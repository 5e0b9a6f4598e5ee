import argparse
import contextlib
import csv
import fractions
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qacm.cli as cli
import qacm.mf
import qacm.quadric
from qacm.cli import ScanConfig, classify_pairs, main, seeded_line_values
from qacm.descriptor import _Parser, parse, to_text
from qacm.errors import InternalCheckError
from qacm.monomials import Form
from qacm.quadric import check_twist_window


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cohomology_rank_one(capsys):
    code, out, _ = run(capsys, ["cohomology", "--sheaf", "R1(side=2,a=-1,b=0)",
                                "--tmin", "-2", "--tmax", "2", "--no-timestamp"])
    assert code == 0
    payload = json.loads(out)
    assert payload["flags"]["kind"] == "rank-one"
    assert all(r["h1"] == 0 for r in payload["rows"])
    assert next(r["h0"] for r in payload["rows"] if r["t"] == 0) == 1


def test_cohomology_collinear_kernel(capsys):
    desc = "K(F1=O(3)+O(0)@H1,F2=G(c=3,k=1,Z=points([0:1:1];[0:1:2]),h=auto)@H2,e=id)"
    code, out, _ = run(capsys, ["cohomology", "--sheaf", desc,
                                "--tmin", "-7", "--tmax", "2", "--no-timestamp"])
    assert code == 0
    payload = json.loads(out)
    assert all(r["h1"] == 0 for r in payload["rows"])
    assert payload["flags"]["cross_checked"]


def test_cohomology_malformed_exit_2(capsys):
    code, _, err = run(capsys, ["cohomology", "--sheaf", "O(3@H1",
                                "--tmin", "0", "--tmax", "1"])
    assert code == 2
    assert "error" in err and "1:4" in err


def test_cohomology_semantic_error_exit_2(capsys):
    code, _, err = run(capsys, ["cohomology", "--sheaf", "G(c=1,k=2,Z=[u,v],h=auto)@H2",
                                "--tmin", "0", "--tmax", "1"])
    assert code == 2


def test_csv_json_numeric_equality(capsys, tmp_path):
    desc = "O(2)+O(0)@H1"
    jpath, cpath = tmp_path / "t.json", tmp_path / "t.csv"
    assert main(["cohomology", "--sheaf", desc, "--tmin", "-3", "--tmax", "3",
                 "--no-timestamp", "--out", str(jpath)]) == 0
    assert main(["cohomology", "--sheaf", desc, "--tmin", "-3", "--tmax", "3",
                 "--format", "csv", "--out", str(cpath)]) == 0
    jrows = json.loads(jpath.read_text())["rows"]
    with open(cpath) as fh:
        crows = list(csv.DictReader(fh))
    assert len(jrows) == len(crows)
    for jr, cr in zip(jrows, crows):
        for key in ("t", "h0", "h1", "h2", "chi"):
            assert jr[key] == int(cr[key])


def test_classify_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["classify", "--cmax", "2", "--seed", "5", "--no-timestamp"]
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_classify_seed_changes_points(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["classify", "--cmax", "2", "--seed", "1", "--no-timestamp",
                 "--out", str(p1)]) == 0
    assert main(["classify", "--cmax", "2", "--seed", "2", "--no-timestamp",
                 "--out", str(p2)]) == 0
    a, b = json.loads(p1.read_text()), json.loads(p2.read_text())
    assert a["seedpoints"] != b["seedpoints"]


def test_env_seed_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QACM_SEED", "7")
    code, out, _ = run(capsys, ["classify", "--cmax", "2", "--seed", "3",
                                "--no-timestamp"])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["seed"] == 7
    assert payload["seedpoints"] == [["0", "1", str(r)] for r in seeded_line_values(7, 2)]


def test_config_file_defaults(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"cmax": 2, "seed": 9, "timestamp": False}))
    code, out, _ = run(capsys, ["classify", "--config", str(conf)])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["c_max"] == 2 and payload["config"]["seed"] == 9
    assert "timestamp" not in payload


def test_config_rejects_unknown_keys(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(capsys, ["classify", "--config", str(conf)])
    assert code == 2 and "unknown config keys" in err


@pytest.mark.parametrize("argv, conf, refused", [
    (["mf", "verify", "--file", "PAIR"], {"format": "csv", "cmax": 9, "timestamp": True},
     "['cmax', 'format', 'timestamp'] are not flags of this command (its keys: out)"),
    (["cohomology", "--sheaf", "O(1)+O(0)@H1", "--tmin", "0", "--tmax", "1"], {"cmax": 9},
     "['cmax'] are not flags of this command (its keys: format, out, timestamp, tmin, tmax)"),
    (["classify"], {"cmax": 2, "tmin": 0},
     "['tmin'] are not flags of this command (its keys: format, out, timestamp, seed, cmax, "
     "margin)"),
])
def test_config_rejects_a_key_the_command_has_no_flag_for(tmp_path, capsys, argv, conf,
                                                          refused):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"q": "x*y", "A": [["x"]], "B": [["y"]]}))
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    argv = [str(pair) if a == "PAIR" else a for a in argv]
    code, out, err = run(capsys, argv + ["--config", str(path)])
    assert (code, out) == (2, "")
    assert f"error: config keys {refused}" in err and "Traceback" not in err


def test_config_keys_of_the_command_flags_are_read(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"cmax": 2, "seed": 9}))
    code, out, _ = run(capsys, ["classify", "--config", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"] == {"c_max": 2, "seed": 9, "window_margin": 8}
    assert "timestamp" in payload


@pytest.mark.parametrize("conf, message", [
    ({"cmax": "6"}, "'cmax' must be an integer"),
    ({"seed": 1.5}, "'seed' must be an integer"),
    ({"margin": True}, "'margin' must be an integer"),
    ({"tmin": None}, "'tmin' must be an integer"),
    ({"timestamp": 0}, "'timestamp' must be a boolean"),
    ({"format": 3}, "'format' must be \"json\" or \"csv\""),
    ({"out": ["a"]}, "'out' must be a string or null"),
    ([1, 2], "must hold a JSON object"),
    ("cmax", "must hold a JSON object"),
    (None, "must hold a JSON object"),
    ({"format": "xml"}, "'format' must be \"json\" or \"csv\", got \"xml\""),
    ({"format": None}, "'format' must be \"json\" or \"csv\", got null"),
])
def test_config_rejects_bad_values(tmp_path, capsys, conf, message):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    code, out, err = run(capsys, ["classify", "--config", str(path)])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_classify_pairs_enumeration():
    assert classify_pairs(3) == [(2, 0), (2, 1), (3, 1), (3, 2)]


def test_classify_report_shape(classify_report):
    rows = classify_report["rows"]
    kinds = {r["kind"] for r in rows}
    assert kinds == {"split", "point_ext", "collinear_ext"}
    collinear = [(r["c"], r["k"]) for r in rows if r["kind"] == "collinear_ext"]
    assert collinear == classify_pairs(6)
    assert all(r["constraint_ok"] for r in rows if r["kind"] == "collinear_ext")


def test_each_scan_row_is_built_from_the_descriptor_it_prints(monkeypatch):
    """run_classify parses exactly the descriptors its rows print, one per row."""
    parsed, real = [], cli.parse
    monkeypatch.setattr(cli, "parse", lambda text: parsed.append(text) or real(text))
    rows = cli.run_classify(ScanConfig(c_max=3, point_seed=4))["rows"]
    assert parsed == [r["descriptor"] for r in rows]


def test_each_scan_row_descriptor_reproduces_its_row(classify_report, capsys):
    """Every descriptor of the c_max = 6 scan is canonical text, and its
    cohomology table over the row's window gives the row's aCM status, t0 and
    h0 after t0."""
    for row in classify_report["rows"]:
        desc, (lo, hi) = row["descriptor"], row["window"]
        assert to_text(parse(desc)) == desc
        code, out, _ = run(capsys, ["cohomology", "--sheaf", desc, "--tmin", str(lo),
                                    "--tmax", str(hi), "--no-timestamp"])
        assert code == 0
        table = json.loads(out)["rows"]
        assert [r["t"] for r in table] == list(range(lo, hi + 1))
        assert all(r["h1"] == 0 for r in table) == row["acm"], desc
        first = next(i for i, r in enumerate(table) if r["h0"])
        assert (table[first - 1]["t"], table[first]["h0"]) == (row["t0"], row["h0_after_t0"])


def _fraction_arithmetic(fn):
    """Run ``fn`` under ``sys.setprofile``: the nearest caller outside ``fractions``
    of every operator of it entered outside the descriptor parser, and the number
    of form products, which shows that the hook saw the run."""
    ops = {"_add", "_mul", "_sub", "_div", "forward", "reverse"}
    parsing = {f.__code__ for f in vars(_Parser).values() if hasattr(f, "__code__")}
    hits, products = [], [0]

    def hook(frame, event, arg):
        code = frame.f_code
        if event != "call":
            return
        products[0] += code is Form.__mul__.__code__
        if code.co_name in ops and code.co_filename == fractions.__file__:
            f = frame.f_back
            while f is not None and f.f_code not in parsing:
                f = f.f_back
            if f is None:
                f = frame.f_back
                while f.f_code.co_filename == fractions.__file__:
                    f = f.f_back
                hits.append(f"{f.f_code.co_filename.rsplit('/', 1)[-1]}:{f.f_code.co_name}")

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return hits, products[0]


KERNEL_SHEAF = "K(F1=O(3)+O(0)@H1,F2=G(c=3,k=1,Z=points([0:1:1];[0:1:2]),h=auto)@H2,e=id)"
U2_SHEAF = "K(F1=O(3)+O(0)@H1,F2=G(c=3,k=0,Z=[v,w^3+u^2*v],h=u+v)@H2,e=id)"


@pytest.mark.parametrize("argv, min_products", [
    (["classify", "--cmax", "6"], 100),
    (["cohomology", "--sheaf", KERNEL_SHEAF, "--tmin", "-40", "--tmax", "4"], 10),
    (["cohomology", "--sheaf", U2_SHEAF, "--tmin", "-30", "--tmax", "9"], 10),
    (["mf", "hilbert", "--tmax", "14"], 10),
    (["mf", "example"], 10),
    (["gluing-report", "--sheaf", KERNEL_SHEAF, "--e", "diag(2/3,-5)", "--e", "upper(1,2,v^3)"],
     10),
], ids=["classify-c6", "cohomology-deep", "cohomology-u2", "mf-hilbert", "mf-example",
        "gluing-report"])
def test_commands_run_no_fraction_arithmetic_off_the_parser(capsys, argv, min_products):
    """Forms and matrices hold int numerators over one denominator, so a
    command enters no ``fractions`` operator; only the descriptor parser may.
    The count of form products shows that the hook saw the run, and the hook
    itself catches a Fraction sum."""
    hits, products = _fraction_arithmetic(lambda: main(argv + ["--no-timestamp"]))
    assert capsys.readouterr().out and hits == [] and products > min_products
    hits, _ = _fraction_arithmetic(lambda: Fraction(1, 2) + 1)
    assert set(hits) == {"test_cli.py:<lambda>"}


def test_ulrich_scan(capsys):
    code, out, _ = run(capsys, ["ulrich-scan", "--cmax", "2", "--no-timestamp"])
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["ulrich_true"] == 2
    assert all(r["kind"] == "point_ext" for r in payload["rows"] if r["ulrich"])


def test_mf_example(capsys):
    code, out, _ = run(capsys, ["mf", "example", "--component", "1", "--no-timestamp"])
    assert code == 0
    payload = json.loads(out)
    assert payload["det"] == "x^2*y^2"
    assert payload["partner_linear"] and payload["ulrich_linear"]
    on_x = [r for r in payload["ranks"] if r["locus"] != "off"]
    assert len(on_x) == 8 and all(r["rank"] == 2 for r in on_x)
    off = [r for r in payload["ranks"] if r["locus"] == "off"]
    assert len(off) == 4 and all(r["rank"] == 4 for r in off)


def test_mf_hilbert_defaults(capsys):
    code, out, _ = run(capsys, ["mf", "hilbert", "--component", "1", "--tmax", "1",
                                "--no-timestamp"])
    assert code == 0
    payload = json.loads(out)
    assert [(r["t"], r["h0"]) for r in payload["rows"]] == [(-1, 0), (0, 4), (1, 12)]


def test_mf_verify_ok(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"q": "x*y", "A": [["x", "0"], ["0", "y"]],
                                "B": [["y", "0"], ["0", "x"]]}))
    code, out, _ = run(capsys, ["mf", "verify", "--file", str(pair)])
    assert code == 0
    assert json.loads(out)["ok"]


def test_mf_verify_bad_pair(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"q": "x*y", "A": [["x", "0"], ["0", "y"]],
                                "B": [["x", "0"], ["0", "y"]]}))
    code, out, _ = run(capsys, ["mf", "verify", "--file", str(pair)])
    assert code == 2
    assert not json.loads(out)["ok"]


def test_mf_verify_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["mf", "verify", "--file", str(bad)])
    assert code == 2 and "invalid pair file" in err


def test_mf_verify_admits_a_pair_at_its_bound(tmp_path, capsys, monkeypatch):
    """The pair of test_mf_verify_ok costs 4 * (1 + 7) term products: one
    term product and one entry product per k, each way."""
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"q": "x*y", "A": [["x", "0"], ["0", "y"]],
                                "B": [["y", "0"], ["0", "x"]]}))
    monkeypatch.setattr("qacm.mf.MAX_VERIFY_TERM_PRODUCTS", 32)
    code, out, _ = run(capsys, ["mf", "verify", "--file", str(pair)])
    assert code == 0 and json.loads(out)["ok"]
    monkeypatch.setattr("qacm.mf.MAX_VERIFY_TERM_PRODUCTS", 31)
    code, out, err = run(capsys, ["mf", "verify", "--file", str(pair)])
    assert code == 2 and out == ""
    assert "needs 32 term products" in err and "MAX_VERIFY_TERM_PRODUCTS = 31" in err


def test_mf_verify_refuses_an_oversized_pair_before_any_product(tmp_path, capsys, monkeypatch):
    """A dense 41 x 41 pair of 4-term linear forms costs 46 * 41^3 term
    products, just over the bound: it is refused without forming A B."""
    def forbidden(*args):
        raise AssertionError("mat_mul called on a pair over the bound")

    monkeypatch.setattr("qacm.mf.mat_mul", forbidden)
    rows = [["x+y+z+w"] * 41 for _ in range(41)]
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"q": "x*y", "A": rows, "B": rows}))
    start = time.perf_counter()
    code, out, err = run(capsys, ["mf", "verify", "--file", str(pair)])
    assert code == 2 and out == "" and time.perf_counter() - start < 1
    assert f"needs {46 * 41 ** 3} term products" in err
    assert f"MAX_VERIFY_TERM_PRODUCTS = {qacm.mf.MAX_VERIFY_TERM_PRODUCTS}" in err


@pytest.mark.parametrize("pair, message", [
    ({"q": "x*y", "A": 5, "B": [["y"]]}, "'A' must be a list of rows"),
    ([1, 2], "expected a JSON object"),
    ({"q": 5, "A": [["x"]], "B": [["y"]]}, "'q' must be a form string"),
    ({"q": "x*y", "A": [["x", "0"], ["0", "y"]], "B": [["y"]]}, "A is 2x2 but B is 1x1"),
    ({"q": "x*y", "A": [], "B": []}, "invalid pair file: A and B must not be empty"),
    ({"q": "0", "A": [["0"]], "B": [["0"]]}, "invalid pair file: 'q' must be a nonzero form"),
])
def test_mf_verify_malformed_pair_exit_2(tmp_path, capsys, pair, message):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, err = run(capsys, ["mf", "verify", "--file", str(path)])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_gluing_report(capsys):
    desc = "K(F1=O(2)+O(0)@H1,F2=G(c=2,k=1,Z=points([0:1:5]),h=auto)@H2,e=id)"
    code, out, _ = run(capsys, ["gluing-report", "--sheaf", desc,
                                "--e", "id", "--e", "diag(2,3)", "--e", "upper(1,1,v^2)",
                                "--tmin", "-4", "--tmax", "2", "--no-timestamp"])
    assert code == 0
    payload = json.loads(out)
    assert [g["e"] for g in payload["gluings"]] == ["id", "diag(2,3)", "upper(1,1,v^2)"]
    assert all(g["equal_to_identity"] for g in payload["gluings"][:2])


GLUING_DESC = "K(F1=O(2)+O(0)@H1,F2=G(c=2,k=1,Z=points([0:1:5]),h=auto)@H2,e=id)"


@pytest.mark.parametrize("argv", [
    ["cohomology", "--sheaf", "O(1)+O(0)@H1", "--tmin", "2", "--tmax", "1"],
    ["mf", "hilbert", "--tmin", "3", "--tmax", "1"],
    ["mf", "hilbert", "--tmin", "3"],                    # default tmax is 2
    ["gluing-report", "--sheaf", GLUING_DESC, "--e", "id", "--tmin", "2", "--tmax", "1"],
    ["gluing-report", "--sheaf", GLUING_DESC, "--e", "id", "--tmin", "7"],     # window ends at 6
    ["gluing-report", "--sheaf", GLUING_DESC, "--e", "id", "--tmax", "-12"],   # starts at -11
])
def test_inverted_twist_window_exit_2(capsys, argv):
    code, out, err = run(capsys, argv + ["--no-timestamp"])
    assert code == 2 and out == ""
    assert "tmin must be <= tmax" in err


def test_inverted_twist_window_from_config_exit_2(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"tmin": 3, "tmax": 1}))
    code, out, err = run(capsys, ["mf", "hilbert", "--config", str(conf)])
    assert code == 2 and out == "" and "tmin must be <= tmax" in err


@pytest.mark.parametrize("bounds, window", [
    (["--tmin", "3"], (3, 6)),
    (["--tmax", "-9"], (-11, -9)),
])
def test_gluing_report_fills_only_the_missing_bound(capsys, bounds, window):
    code, out, _ = run(capsys, ["gluing-report", "--sheaf", GLUING_DESC, "--e", "id",
                                "--no-timestamp"] + bounds)
    assert code == 0
    ts = [r["t"] for r in json.loads(out)["gluings"][0]["rows"]]
    assert ts == list(range(window[0], window[1] + 1))


BIG_PAIR = "K(F1=O(300)+O(0)@H1,F2=O(300)+O(0)@H2,e=id)"


@pytest.mark.parametrize("argv, message", [
    (["cohomology", "--sheaf", "O(1)+O(0)@H1", "--tmin", "-1000000", "--tmax", "0"],
     "twist -1000000 is beyond the limit |t| <= 250"),
    (["cohomology", "--sheaf", "O(1)+O(0)@H1", "--tmin", "0", "--tmax", "251"],
     "twist 251 is beyond the limit |t| <= 250"),
    (["cohomology", "--sheaf", "O(1)+O(0)@H1", "--tmin", "-250", "--tmax", "10"],
     "window [-250, 10] has 261 twists, over the limit of 260"),
    (["gluing-report", "--sheaf", BIG_PAIR, "--e", "id"],          # window from acm_window
     "twist -608 is beyond the limit |t| <= 250"),
    (["classify", "--cmax", "2", "--margin", "300"],
     "margin 300 at c_max 2: twist -304 is beyond the limit |t| <= 250"),
    (["ulrich-scan", "--cmax", "97", "--margin", "57"],
     "margin 57 at c_max 97: twist -251 is beyond the limit |t| <= 250"),
    (["mf", "hilbert", "--tmax", "251"], "twist 251 is beyond the limit |t| <= 250"),
])
def test_work_limits_from_flags_exit_2(monkeypatch, capsys, argv, message):
    def no_scan(config):
        raise AssertionError("the scan must not start")
    monkeypatch.setattr("qacm.cli.run_classify", no_scan)
    code, out, err = run(capsys, argv + ["--no-timestamp"])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, conf, message", [
    (["classify"], {"margin": 300}, "margin 300 at c_max 6: twist -312 is beyond"),
    (["classify"], {"cmax": 97, "margin": 57}, "twist -251 is beyond the limit"),
    (["mf", "hilbert"], {"tmax": 251}, "twist 251 is beyond the limit |t| <= 250"),
    (["mf", "hilbert"], {"tmin": -251, "tmax": 0}, "twist -251 is beyond"),
    (["gluing-report", "--sheaf", GLUING_DESC, "--e", "id"], {"tmin": -300},
     "twist -300 is beyond"),
    (["gluing-report", "--sheaf", GLUING_DESC, "--e", "id"], {"tmin": -250, "tmax": 20},
     "over the limit of 260"),
])
def test_work_limits_from_config_exit_2(monkeypatch, tmp_path, capsys, argv, conf, message):
    def no_scan(config):
        raise AssertionError("the scan must not start")
    monkeypatch.setattr("qacm.cli.run_classify", no_scan)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    code, out, err = run(capsys, argv + ["--config", str(path)])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_work_limits_admit_the_largest_scan_and_window():
    """classify --cmax 97 at the default margin scans down to t = -202."""
    ScanConfig(c_max=97)
    ScanConfig(c_max=97, window_margin=56)
    check_twist_window(-250, 9)
    check_twist_window(240, 250)


def test_gluing_report_needs_kernel(capsys):
    code, _, err = run(capsys, ["gluing-report", "--sheaf", "O(1)+O(0)@H1", "--e", "id"])
    assert code == 2 and "kernel" in err


def test_internal_check_exit_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise InternalCheckError("simulated mismatch")
    monkeypatch.setattr(qacm.quadric, "coh_table", boom)
    monkeypatch.setattr("qacm.cli.kernel_table", boom)
    desc = "K(F1=O(0)+O(0)@H1,F2=O(0)+O(0)@H2,e=id)"
    code, _, err = run(capsys, ["cohomology", "--sheaf", desc, "--tmin", "0",
                                "--tmax", "0"])
    assert code == 3 and "cross-check" in err


def test_scan_config_validation(capsys):
    code, _, err = run(capsys, ["classify", "--cmax", "0"])
    assert code == 2 and "c_max" in err
    code, _, err = run(capsys, ["classify", "--cmax", "2", "--margin", "1"])
    assert code == 2 and "margin" in err


def test_cmax_beyond_point_pool_rejected_before_scan(monkeypatch, capsys):
    def no_scan(config):
        raise AssertionError("the scan must not start")
    monkeypatch.setattr("qacm.cli.run_classify", no_scan)
    for command in ("classify", "ulrich-scan"):
        code, out, err = run(capsys, [command, "--cmax", "98"])
        assert code == 2 and out == ""
        assert "c_max too large" in err and "97" in err


def test_env_seed_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("QACM_SEED", "abc")
    code, out, err = run(capsys, ["classify", "--cmax", "2"])
    assert code == 2 and out == ""
    assert "QACM_SEED" in err and "'abc'" in err


def test_classify_csv_json_numeric_parity(tmp_path):
    jpath, cpath = tmp_path / "c.json", tmp_path / "c.csv"
    assert main(["classify", "--cmax", "2", "--no-timestamp", "--out", str(jpath)]) == 0
    assert main(["classify", "--cmax", "2", "--no-timestamp", "--format", "csv",
                 "--out", str(cpath)]) == 0
    jrows = json.loads(jpath.read_text())["rows"]
    with open(cpath) as fh:
        crows = list(csv.DictReader(fh))
    assert len(jrows) == len(crows)
    for jr, cr in zip(jrows, crows):
        assert str(jr["acm"]) == cr["acm"] and str(jr["ulrich"]) == cr["ulrich"]
        assert ";".join(map(str, jr["chern_h2"])) == cr["chern_h2"]


@pytest.mark.parametrize("sheaf, gluings, digest", [
    ("K(F1=O(3)+O(0)@H1,F2=G(c=3,k=1,Z=points([0:1:1];[0:1:2]),h=auto)@H2,e=id)",
     ["id", "diag(2,3)", "upper(1,1,v^3)", "upper(2,-1,v^3-w^3)"],
     "cb01c03b78f422928f7f706097dca036f183182cf5cbbb4d8154e9db4ca52fa3"),
    ("K(F1=O(5)+O(0)@H1,F2=G(c=5,k=2,Z=points([0:1:1];[0:1:2];[0:1:3]),h=auto)@H2,e=id)",
     ["upper(1,2,v^5-w^5)"],
     "8bde4083bbb590384d33c00d93af2aaefe99958e878f2ed29e3af22134f0c339"),
], ids=["readme-sheaf", "c5-k2"])
def test_upper_gluing_reports_are_pinned(capsys, sheaf, gluings, digest):
    """Reports of gluings with beta != 0, which no benchmark workload runs, pinned
    by sha256.  Their tables equal the identity's, so the beta * r_lo term of the
    H0-level map is checked entry by entry in tests/test_h0_line.py."""
    argv = ["gluing-report", "--sheaf", sheaf, "--no-timestamp"]
    for g in gluings:
        argv += ["--e", g]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["cohomology", "--sheaf", "G(c=4,k=1,Z=[v,w^3],h=auto)@H2", "--tmin", "-60", "--tmax", "4"],
     "31ce2d76c894825bf007451ad2df84b195eff03417e22caddaa263b3df1a21ab"),
    (["classify", "--cmax", "10", "--seed", "3"],
     "388a78b29588d82f0d4c046af99e2c6e4e3860b768616e994d8d4dfce1c33414"),
    (["classify", "--cmax", "12", "--seed", "3"],
     "d18614a8641a250ffb8e6705c96bed8b7e0ab05e0bc4b6e641cb04c073746902"),
    (["cohomology", "--sheaf", "K(F1=O(3)+O(0)@H1,F2=G(c=3,k=0,Z=[v,w^3+u^2*v],h=u+v)@H2,e=id)",
      "--tmin", "-250", "--tmax", "9"],
     "78fa8ede33f72edd440265dcec6bebcadb5059d4e9b3321c50c80381af7e1e25"),
    (["cohomology", "--sheaf", "K(F1=O(2)+O(0)@H1,F2=G(c=2,k=0,Z=[v,w^2],h=u+v)@H2,e=id)",
      "--tmin", "-250", "--tmax", "9"],
     "f0c100d0a7016f698b9551a3a7d494d8f41aa8442190d4e2df9b388d834d122e"),
], ids=["u-free-h2", "classify-c10", "classify-c12", "u-free-kernel-u2", "u-free-kernel"])
def test_reports_off_the_benchmark_are_pinned(capsys, argv, digest):
    """Reports of paths no benchmark workload runs, pinned by sha256: the
    u-free H2 path builds whole dual P2 matrices (no relation form is a multiple
    of u alone), and c_max = 10 and 12 reach larger scan rows than the c_max = 8
    workload; c_max = 12 is the north-star scan and recovers Z on the most rows.
    The two u-free kernel sheaves have no relation form c*u (u lies in the span
    of v and u + v instead, so both are aCM); a relation form of the first,
    -u^2 v - w^3, has a u^2 term."""
    code, out, _ = run(capsys, argv + ["--no-timestamp"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gluing_report_invalid_gluing_text(capsys):
    desc = "K(F1=O(0)+O(0)@H1,F2=O(0)+O(0)@H2,e=id)"
    code, _, err = run(capsys, ["gluing-report", "--sheaf", desc, "--e", "twist(2)"])
    assert code == 2


def test_points_descriptor_preserves_point_data():
    from qacm.descriptor import build, parse
    obj = build(parse("I(points([0:1:4];[0:1:9]))(0)@H2"))
    assert obj.ci.points == (((1, 4), 1), ((1, 9), 1))


# ---------------------------------------------------------------------------
# the table reader and the argparse fallback


def _subparser(parser, name):
    """The parser of command ``name`` under ``parser``."""
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


_COMMAND_PATHS = [[name] for name, *_ in cli.COMMANDS] + \
    [["mf", name] for name, *_ in cli.MF_COMMANDS]


def _main_outcome(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)`` when argparse ends it."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("path", _COMMAND_PATHS, ids=" ".join)
def test_one_command_parser_has_the_full_help(capsys, path):
    """``main`` prints, for a command and every parser on its path, the help
    of the parser with every command filled in."""
    parser = cli.build_parser()
    for depth in range(len(path) + 1):
        if depth:
            parser = _subparser(parser, path[depth - 1])
        assert _main_outcome(capsys, path[:depth] + ["--help"]) == (0, parser.format_help(), "")


def _parse_outcome(capsys, parser, argv):
    """(exit code, stdout, stderr) of parsing argv; code None when it parses."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


_USAGE = "usage: qacm [-h] {cohomology,classify,ulrich-scan,mf,gluing-report} ...\n"


@pytest.mark.parametrize("argv, usage", [
    ([], _USAGE), (["-h"], _USAGE), (["bogus"], _USAGE),
    (["cohomology"], "usage: qacm cohomology [-h] --sheaf SHEAF --tmin TMIN --tmax TMAX\n"),
    (["cohomology", "--sheaf", "x", "--tmin", "1", "--tmax", "2", "extra"], _USAGE),
    (["mf", "hilbert", "--bogus"], _USAGE), (["classify", "--bogus"], _USAGE),
    (["mf"], "usage: qacm mf [-h] {example,verify,hilbert} ...\n"),
    (["mf", "bogus"], "usage: qacm mf [-h] {example,verify,hilbert} ...\n"),
    (["--bogus", "cohomology"], "usage: qacm cohomology [-h] --sheaf SHEAF --tmin TMIN --tmax TMAX\n"),
], ids=repr)
def test_help_and_usage_errors_match_the_full_parser(capsys, argv, usage):
    """Help and usage errors of ``main`` are those of the parser with every
    command filled in, byte for byte, and a usage error exits 2.  Argparse
    prints the top-level usage for an argument the command leaves over, so
    every command must still be listed there."""
    code, out, err = _main_outcome(capsys, argv)
    assert (code, out, err) == _parse_outcome(capsys, cli.build_parser(), argv)
    assert code == (0 if argv == ["-h"] else 2)
    assert (out if code == 0 else err).startswith(usage)


def test_usage_errors_name_the_command_argument(capsys):
    """The pinned bytes of two top-level usage errors: the command positional
    is named ``command`` and lists every command."""
    assert _main_outcome(capsys, []) == (
        2, "", _USAGE + "qacm: error: the following arguments are required: command\n")
    assert _main_outcome(capsys, ["bogus"]) == (
        2, "", _USAGE + "qacm: error: argument command: invalid choice: 'bogus' (choose from "
                        "'cohomology', 'classify', 'ulrich-scan', 'mf', 'gluing-report')\n")


@pytest.mark.parametrize("argv, command", [
    (["cohomology", "--sheaf", "O(1)+O(0)@H1", "--tmin", "0", "--tmax", "1", "--no-timestamp"],
     "cohomology"),
    (["mf", "hilbert", "--tmax", "1", "--no-timestamp"], "mf"),
])
def test_a_call_fills_in_only_its_own_command(monkeypatch, capsys, argv, command):
    """``main`` reads a call from its own command's row of the table: with
    every other command's flags raising when they are read, the call still
    runs."""
    class Refuse:
        def __iter__(self):
            raise AssertionError("arguments of another command were read")

    monkeypatch.setattr(cli, "COMMANDS", tuple(
        (name, help_text, func, flags if name == command else Refuse(), defaults)
        for name, help_text, func, flags, defaults in cli.COMMANDS))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rows"]


@pytest.mark.parametrize("argv", [
    ["cohomology", "--sheaf", "O(1)+O(0)@H1", "--tmin", "-1", "--tmax", "1", "--no-timestamp"],
    ["classify", "--cmax", "2", "--seed", "3", "--format", "csv", "--no-timestamp"],
    ["ulrich-scan", "--cmax", "2", "--margin", "8", "--no-timestamp"],
    ["mf", "example", "--component", "2", "--no-timestamp"],
    ["mf", "verify", "--file", "PAIR"],
    ["mf", "hilbert", "--component", "1", "--tmin", "-1", "--tmax", "1", "--no-timestamp"],
    ["gluing-report", "--sheaf", GLUING_DESC, "--e", "id", "--e", "diag(2,3)", "--tmin", "-1",
     "--tmax", "0", "--no-timestamp"],
], ids=lambda argv: " ".join(argv[:2]) if argv[0] == "mf" else argv[0])
def test_a_call_the_table_reads_builds_no_parser(monkeypatch, tmp_path, capsys, argv):
    """A call of full flag names runs on the command table alone: argparse is
    built only for help, usage errors and syntax the table does not read."""
    def refuse():
        raise AssertionError("argparse built for a call the table reads")

    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"q": "x*y", "A": [["x"]], "B": [["y"]]}))
    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main([str(pair) if a == "PAIR" else a for a in argv]) == 0
    assert capsys.readouterr().out


def test_a_call_loads_no_argparse():
    """Importing the CLI and running a call the table reads loads neither
    argparse nor the gettext and locale modules it brings."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, qacm.cli; qacm.cli.main(['mf', 'hilbert', '--out', sys.argv[1]]); "
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, os.devnull], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "[]\n"


def _row(path):
    """The command-table row of the command path ``path``, or None."""
    rows, row = cli.COMMANDS, None
    for name in path:
        row = next((r for r in rows if r[0] == name), None)
        if row is None:
            return None
        rows = row[3]
    return row if row and row[2] else None


_LEAVES = [path for path in _COMMAND_PATHS if _row(path)]
_FLAGS = {flag: kw for path in _LEAVES for flag, kw in _row(path)[3]}
_ODD = ["-40", "-x", "-²", "-١٢", "١٢", "", "-", "--", "-h", "--help", "-x y", " -x", "3"]


def _value(kw):
    """Values argparse accepts for a flag of keywords ``kw``."""
    if "choices" in kw:
        return st.sampled_from([str(c) for c in kw["choices"]])
    if kw.get("type") is int:
        return st.one_of(st.integers(-300, 300).map(str),
                         st.sampled_from(["007", "-007", " 5", " -4", "١٢"]))
    return st.one_of(st.sampled_from(["O(1)+O(0)@H1", "id", "-40", " -x", "a b", ""]),
                     st.text(max_size=6).filter(lambda v: not v.startswith("-")))


def _odd_values(kw):
    """Values of a flag of keywords ``kw`` that argparse refuses, or reads by
    rules the table does not follow."""
    if "choices" in kw:
        return ["xml", "0", "3", "-1", "01"]
    if kw.get("type") is int:
        return ["3.5", "x", "", "1e3", "-١٢", "-1_0", "-0x1"]
    return _ODD


@st.composite
def _calls(draw, odd):
    """An argv from the command table: a command path, its required flags and
    some more (repeated flags, several --e), each with a valid value; with
    ``odd``, also other paths, bad values, abbreviations, --flag=value, --,
    help, flags of other commands, a flag with no value and dropped required
    flags."""
    path = draw(st.sampled_from(_LEAVES + [[], ["mf"], ["bogus"], ["mf", "bogus"],
                                           ["hilbert"]] if odd else _LEAVES))
    flags = _row(path)[3] if _row(path) else ()

    def valid(flag, kw):
        return [flag] if kw.get("action") == "store_false" else [flag, draw(_value(kw))]

    def odd_item():
        flag, kw = draw(st.sampled_from(list(flags) or sorted(_FLAGS.items())))
        bad = [flag, draw(st.sampled_from(_odd_values(kw)))]
        return draw(st.sampled_from([
            bad, bad, bad, [flag[:draw(st.integers(3, max(3, len(flag) - 1)))], "1"],
            [f"{flag}=1"], ["--"], [draw(st.sampled_from(_ODD))], ["-h"], [flag],
            [draw(st.sampled_from(sorted(_FLAGS))), "1"]]))

    items = [valid(f, kw) for f, kw in flags if kw.get("required")]
    if odd and items and draw(st.booleans()):
        items.pop(draw(st.integers(0, len(items) - 1)))
    items += [valid(*draw(st.sampled_from(flags))) for _ in range(draw(st.integers(0, 5)))
              if flags]
    items += [odd_item() for _ in range(draw(st.integers(1, 2)) if odd else 0)]
    return path + [token for item in draw(st.permutations(items)) for token in item]


def _argparse_vars(argv):
    """vars() of the full parser's namespace of argv; it must parse."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit as exc:
        raise AssertionError(f"argparse refused {argv} with exit {exc.code}") from None


@given(_calls(odd=False))
@settings(max_examples=150, deadline=None)
def test_the_table_reads_a_call_of_full_flag_names_as_argparse_does(argv):
    args = cli._table_args(argv)
    assert args is not None, argv
    assert vars(args) == _argparse_vars(argv)


@given(_calls(odd=True))
@settings(max_examples=300, deadline=None)
def test_whatever_the_table_reads_argparse_reads_alike(argv):
    """The table reads a call exactly as argparse does or declines it, so
    help, usage errors and other syntax stay argparse's."""
    args = cli._table_args(argv)
    if args is not None:
        assert vars(args) == _argparse_vars(argv)


@pytest.mark.parametrize("argv, code", [
    (["cohomology", "--sheaf", "-²", "--tmin", "0", "--tmax", "0"], 2),
    (["cohomology", "--sheaf", "x", "--tmin", "-١٢", "--tmax", "0"], None),
    (["cohomology", "--sheaf=x", "--tmin", "0", "--tmax", "0"], None),
    (["cohomology", "--sh", "x", "--tmin", "0", "--tmax", "0"], None),
    (["cohomology", "--sheaf", "x", "--tmin", "0", "--tmax"], 2),
    (["cohomology", "--sheaf", "x", "--tmin", "0", "--tmax", "1.0"], 2),
    (["cohomology", "--tmin", "0", "--tmax", "0"], 2),
    (["mf", "example", "--component", "3"], 2),
    (["mf", "hilbert", "--", "--tmin", "0"], 2),
    (["classify", "--format", "xml"], 2),
], ids=repr)
def test_the_table_declines_what_it_does_not_read(capsys, argv, code):
    """Syntax past full flag names and values is argparse's: it refuses some
    of these and reads others, as the full parser alone would."""
    assert cli._table_args(argv) is None
    assert _parse_outcome(capsys, cli.build_parser(), argv)[0] == code


# sha256 of json.dumps([exit code, stdout, stderr]) of ``qacm PATH --help`` and
# ``qacm PATH --bogus`` for every command path, recorded under CPython 3.11
# with COLUMNS=80 before the command table replaced the argument functions
_HELP_PINS = {(3, 11): {
    "--help": "1627a2c4410edeb67d2de4495bc21fd22f3ff2d5e4fef24a63845b7ae470c552",
    "--bogus": "009d403b96ad93c0f6c9593aa564e6519d226c41920a309bbf3fc948fa91358f",
    "cohomology --help": "b85b156cc1d6075544bd10b836d277aba27c5c708efe905a553e492048491b88",
    "cohomology --bogus": "eee4a0a496d9b3010cd5411898ad2f6eebc493e87a38f23e96d52957a7eef97c",
    "classify --help": "0329c13ec612ca4fd3878d31cdeb6e18d3b6028433588fef469c4f7d7fc47816",
    "classify --bogus": "4156f1e967e73c3416f961ac9bd390c87d17110a6a1c15aa20380cd43470249d",
    "ulrich-scan --help": "f51abd905ecee43ea8acb71fc40ef4f7fccff8d3779e569c05ee5bacb4c77849",
    "ulrich-scan --bogus": "4156f1e967e73c3416f961ac9bd390c87d17110a6a1c15aa20380cd43470249d",
    "mf --help": "cf8611f4607019e5902af1d8e7901ec7a6cc245b5016e2b333bb0a3ab3b7beaf",
    "mf --bogus": "7b9de9d1cd2ef8e4711f94020568ed3aea54f0c0c8feae72134aae33f41d4097",
    "mf example --help": "63b0ea2d4351e09e9a681813d5cfe8dcb79e9cd348bc55fac3471569e2842da2",
    "mf example --bogus": "4156f1e967e73c3416f961ac9bd390c87d17110a6a1c15aa20380cd43470249d",
    "mf verify --help": "2d7a0609e600ad412f25622738240ca5c97c598b5958f69a6aff655fc24c9874",
    "mf verify --bogus": "2eab5125b4da8062b404d0b2bee18b4c7fa01d280b551b9dfba1057d30596ab5",
    "mf hilbert --help": "9b12a782d5be6950dcfd18768b4d6132819358012382ca01123e99a4b4aee6b7",
    "mf hilbert --bogus": "4156f1e967e73c3416f961ac9bd390c87d17110a6a1c15aa20380cd43470249d",
    "gluing-report --help": "654cbb8fb4ee728137a52de46665f3f50b7b819f6e4a5afbd95aaa9f9d2b6a63",
    "gluing-report --bogus": "47168299a929c0bf445272783f4c5639e849999afd585dc4315bf2b01fc83a2c",
}}


@pytest.mark.parametrize("path", [[]] + _COMMAND_PATHS, ids=lambda p: " ".join(p) or "qacm")
@pytest.mark.parametrize("extra", ["--help", "--bogus"])
def test_help_and_a_usage_error_are_pinned(monkeypatch, capsys, path, extra):
    """The help and one usage error of every command path, byte for byte: a
    flag dropped, reordered or reworded in the command table, which both the
    table reader and the full parser read, changes the digest.  Argparse's
    wording differs between Python versions, so the bytes are pinned for the
    version they were recorded under."""
    pins = _HELP_PINS.get(sys.version_info[:2])
    if pins is None:
        pytest.skip("help bytes are pinned for CPython 3.11 only")
    monkeypatch.setenv("COLUMNS", "80")
    argv = path + [extra]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    blob = json.dumps([code, out.out, out.err]).encode()
    assert hashlib.sha256(blob).hexdigest() == pins[" ".join(argv)]


@pytest.mark.parametrize("argv, config, first", [
    ([], None, -1), ([], {"tmin": 0}, 0), (["--tmin", "1"], {"tmin": 0}, 1),
], ids=["own-default", "config", "flag"])
def test_mf_hilbert_window_precedence(tmp_path, capsys, argv, config, first):
    """mf hilbert's own window -1..2 gives way to a config file, and a flag
    beats both."""
    if config is not None:
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, _ = run(capsys, ["mf", "hilbert", "--no-timestamp"] + argv)
    assert code == 0
    assert [r["t"] for r in json.loads(out)["rows"]] == list(range(first, 3))


@pytest.mark.parametrize("argv", [["mf", "verify", "--file"], ["classify", "--config"]],
                         ids=["mf-verify", "config"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    """JSON nested past the decoder's recursion limit is an input error that
    names the file, not a RecursionError."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, argv + [str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: JSON nested too deeply to read\n"


@pytest.mark.parametrize("argv, content", [
    (["mf", "verify", "--file"], {"q": "x*y", "A": [["x"]], "B": [["y"]]}),
    (["classify", "--config"], {"cmax": 2, "timestamp": False}),
], ids=["mf-verify", "config"])
def test_a_json_file_over_its_bound_is_refused_before_decoding(monkeypatch, tmp_path, capsys,
                                                               argv, content):
    """A file of MAX_JSON_BYTES is read; one byte more is refused, naming the
    file and the limit, before any decoding, so a 4 MB file is refused at once."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    size = path.stat().st_size
    monkeypatch.setattr(cli, "MAX_JSON_BYTES", size)
    code, out, _ = run(capsys, argv + [str(path)])
    assert code == 0 and out
    monkeypatch.setattr(cli, "MAX_JSON_BYTES", size - 1)
    monkeypatch.setattr(cli.json, "load", lambda fh: pytest.fail("decoded a file over the bound"))
    code, out, err = run(capsys, argv + [str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: file is over MAX_JSON_BYTES = {size - 1} bytes\n"
    monkeypatch.undo()
    path.write_text(json.dumps({**content, "q": "+".join(["x*y"] * 1_000_000)}))
    start = time.perf_counter()
    code, out, err = run(capsys, argv + [str(path)])
    assert (code, out) == (2, "") and time.perf_counter() - start < 1
    assert f"MAX_JSON_BYTES = {cli.MAX_JSON_BYTES} bytes" in err


_LONG = "9" * 5000


@pytest.mark.parametrize("argv, col", [
    (["cohomology", "--sheaf", f"O({_LONG})@H1"], 3),
    (["cohomology", "--sheaf", f"I([{_LONG}*v,w])(0)@H2"], 4),
    (["cohomology", "--sheaf", f"I(points([0:1:1/{_LONG}]))(0)@H2"], 17),
    (["mf", "verify", "--file", "PAIR"], 3),
], ids=["integer", "coefficient", "denominator", "ambient-form"])
def test_a_numeral_past_the_int_limit_is_a_positioned_parse_error(tmp_path, capsys, argv, col):
    """A numeral longer than int() converts is refused at its token, with the
    limit named, rather than as an unpositioned ValueError."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"q": "x*y", "A": [[f"x-{_LONG}*y"]], "B": [["y"]]}))
        argv = [str(pair) if a == "PAIR" else a for a in argv]
        code, out, err = run(capsys, argv + ["--tmin", "0", "--tmax", "0"] * (argv[0] != "mf"))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err == (f"error: 1:{col}: numeral of 5000 digits is beyond the integer conversion "
                   "limit of 4300 digits\n")
