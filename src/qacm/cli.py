"""Command-line surface: cohomology tables, classification scans, matrix
factorization reports, machine-readable JSON/CSV output.

Exit codes: 0 success, 2 input error (parse or semantic), 3 internal
cross-check failure.  Reports are byte-deterministic for a fixed config and
seed once timestamps are disabled (--no-timestamp); QACM_SEED overrides the
--seed flag, and --config PATH supplies defaults keyed by the command's own
flags.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import types

from . import mf as mfmod
from .descriptor import (DescriptorParseError, build, parse, parse_ambient_form,
                         parse_gluing, to_text)
from .errors import InternalCheckError
from .plane import (cb_condition_check, coh_table as plane_table,
                    cohomology as plane_cohomology, ideals_match,
                    recover_subscheme)
from .quadric import (KernelSheaf, RankOneSheaf, acm_check, check_twist_window,
                      coh_table as kernel_table, gluing_variation_report,
                      restriction_invariants, ulrich_check)
from .record import record


@record
class ScanConfig:
    c_max: int = 6
    point_seed: int = 0
    window_margin: int = 8

    def __post_init__(self):
        if self.c_max < 1:
            raise ValueError("c_max must be >= 1")
        if self.window_margin < 4:
            raise ValueError("window margin must be >= 4")
        # the report lists c_max seeded points: refuse before the scan, not after
        try:
            seeded_line_values(self.point_seed, self.c_max)
        except ValueError as exc:
            raise ValueError(f"c_max too large: {exc}") from None
        # the deepest scan window is the split pair's at c = c_max (acm_window)
        try:
            check_twist_window(-2 * self.c_max - self.window_margin, 6)
        except ValueError as exc:
            raise ValueError(f"margin {self.window_margin} at c_max {self.c_max}: {exc}") from None


def seeded_line_values(seed: int, count: int):
    """Deterministic distinct small integers from a seeded shuffle of 1..97;
    the points on L are [0 : 1 : r_i]."""
    pool = list(range(1, 98))
    random.Random(seed).shuffle(pool)
    if count > len(pool):
        raise ValueError(f"{count} points requested, but the seeded pool on L has {len(pool)}")
    return pool[:count]


# ---------------------------------------------------------------------------
# emitters


def _emit(args, payload: dict, csv_rows=(), header=()) -> None:
    """Write one report to ``args.out`` or stdout: ``payload`` as JSON, with
    ``timestamp`` as its last key unless --no-timestamp, or, with --format
    csv, the ``header`` columns of each dict in ``csv_rows``, a list cell
    joined by ";"."""
    if args.timestamp:
        from datetime import datetime, timezone  # a --no-timestamp run needs neither it nor csv
        payload["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in csv_rows:
            writer.writerow([";".join(map(str, row[h])) if isinstance(row[h], list) else row[h]
                             for h in header])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


TABLE_HEADER = ["t", "h0", "h1", "h2", "chi"]


# ---------------------------------------------------------------------------
# cohomology command


def cmd_cohomology(args) -> int:
    node = parse(args.sheaf)
    obj = build(node)
    kernel = isinstance(obj, KernelSheaf)
    table = (kernel_table if kernel else plane_table)(obj, args.tmin, args.tmax)
    kind = "kernel" if kernel else "rank-one" if isinstance(obj, RankOneSheaf) else "plane"
    payload = {
        "descriptor": to_text(node),
        "window": [args.tmin, args.tmax],
        "rows": table.as_dicts(),
        "flags": {"kind": kind, "cross_checked": kind == "kernel"},
        "seedpoints": [],
    }
    _emit(args, payload, payload["rows"], TABLE_HEADER)
    return 0


# ---------------------------------------------------------------------------
# classify scan


def classify_pairs(c_max: int):
    """(c, k) of the collinear family: 0 <= k < c <= 2k+2, starting at c = 2
    (the c = 1 non-split classes are the two point-extension sheaves)."""
    return [(c, k) for c in range(2, c_max + 1) for k in range(c) if c <= 2 * k + 2]


def scan_descriptors(config: ScanConfig):
    """(kind, seed values, descriptor) of every classify row, in report order:
    the split pairs O(c) + O against O(c) + O, the two point extensions (the
    point on H1, then on H2) and the collinear family, Z the first c - k of the
    c_max seeded points on L, drawn once."""
    pool = seeded_line_values(config.point_seed, config.c_max)
    for c in range(config.c_max + 1):
        yield "split", [], f"K(F1=O({c})+O(0)@H1,F2=O({c})+O(0)@H2,e=id)"
    for plane in (1, 2):
        yield "point_ext", [], (f"K(F1=O(1)+O(0)@H{3 - plane},"
                                f"F2=G(c=1,k=0,Z=[v,w],h=auto)@H{plane},e=id)")
    for c, k in classify_pairs(config.c_max):
        values = pool[:c - k]
        pts = ";".join(f"[0:1:{r}]" for r in values)
        yield "collinear_ext", values, (f"K(F1=O({c})+O(0)@H1,"
                                        f"F2=G(c={c},k={k},Z=points({pts}),h=auto)@H2,e=id)")


def _row(kind, values, text, margin) -> dict:
    """The classify row of the sheaf ``build(parse(text))``, ``text`` the
    descriptor it prints: every column is read from that one object."""
    kernel = build(parse(text))
    rep = acm_check(kernel, margin)
    ur = ulrich_check(kernel, rep.table)
    inv1, inv2 = restriction_invariants(kernel)
    c, g = kernel.c, kernel.other
    row = {
        "kind": kind,
        "descriptor": text,
        "acm": rep.is_acm,
        "window": list(rep.window),
        "ulrich": ur.is_ulrich,
        "t0": ur.t0,
        "h0_after_t0": ur.h0_after,
        "chern_h1": list(inv1),
        "chern_h2": list(inv2),
        "c": c,
    }
    if kind == "split":
        row.update({"k": None, "z": None, "constraint_ok": None, "cb": None})
    else:
        k = g.k
        # the point extension's Z is one point off L, with d = c - 2k - 3 < 0
        row.update({"k": k, "z": g.ci.degree, "constraint_ok": 0 <= k < c <= 2 * k + 2,
                    "cb": kind == "point_ext" or cb_condition_check(c, k, g.ci)})
    if kind != "collinear_ext":
        row.update({"recover": None, "boundary": False, "seed_values": values})
        return row
    row.update({"h0_g_minus_k": plane_cohomology(g, 0, -k), "boundary": c == 2 * k + 2,
                "seed_values": values})
    if c <= 2 * k:
        row["recover"] = "ok" if ideals_match(recover_subscheme(g), g.ci, c) else "mismatch"
    else:
        row["recover"] = "skipped (c > 2k)"
    if row["boundary"]:
        row["h0_g_minus_k_minus_1"] = plane_cohomology(g, 0, -k - 1)
    return row


def run_classify(config: ScanConfig) -> dict:
    rows = [_row(kind, values, text, config.window_margin)
            for kind, values, text in scan_descriptors(config)]
    return {
        "config": {"c_max": config.c_max, "seed": config.point_seed,
                   "window_margin": config.window_margin},
        "seedpoints": [["0", "1", str(r)]
                       for r in seeded_line_values(config.point_seed, config.c_max)],
        "rows": rows,
        "counts": {
            "rows": len(rows),
            "acm_true": sum(1 for r in rows if r["acm"]),
            "ulrich_true": sum(1 for r in rows if r["ulrich"]),
        },
    }


CLASSIFY_HEADER = ["kind", "descriptor", "c", "k", "z", "constraint_ok", "cb", "acm", "ulrich",
                   "t0", "h0_after_t0", "chern_h1", "chern_h2", "recover", "boundary",
                   "seed_values"]
ULRICH_HEADER = ["kind", "descriptor", "c", "k", "z", "ulrich", "t0"]


def cmd_classify(args) -> int:
    report = run_classify(ScanConfig(args.cmax, args.seed, args.margin))
    _emit(args, report, report["rows"], CLASSIFY_HEADER)
    return 0


def cmd_ulrich_scan(args) -> int:
    full = run_classify(ScanConfig(args.cmax, args.seed, args.margin))
    rows = [{h: r[h] for h in ULRICH_HEADER} for r in full["rows"]]
    report = {"config": full["config"], "rows": rows,
              "counts": {"rows": len(rows), "ulrich_true": sum(1 for r in rows if r["ulrich"])}}
    _emit(args, report, rows, ULRICH_HEADER)
    return 0


# ---------------------------------------------------------------------------
# matrix factorization commands


def cmd_mf_example(args) -> int:
    a = mfmod.ulrich_example_matrix(args.component)
    b = mfmod.partner_from_adjugate(a)
    payload = {
        "component": args.component,
        "matrix": [list(map(str, row)) for row in a],
        "partner": [list(map(str, row)) for row in b],
        "det": str(mfmod.determinant(a)),
        "partner_linear": mfmod.is_linear_matrix(b),
        "ulrich_linear": mfmod.ulrich_linear_check(a),
        "ranks": [{"point": list(map(str, pt)), "locus": locus, "rank": mfmod.rank_at_point(a, pt)}
                  for pt, locus in mfmod.SAMPLE_POINTS],
        "hilbert": [{"t": t, "h0": mfmod.cokernel_hilbert(a, t)} for t in range(-1, 3)],
    }
    _emit(args, payload, payload["ranks"], ["point", "locus", "rank"])
    return 0


def _pair_matrix(data: dict, key: str):
    rows = data[key]
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
            and all(isinstance(s, str) for row in rows for s in row)):
        raise ValueError(f"invalid pair file: {key!r} must be a list of rows of form strings")
    return mfmod.form_matrix([[parse_ambient_form(s) for s in row] for row in rows])


def cmd_mf_verify(args) -> int:
    try:
        data = _read_json(args.file)
        if not isinstance(data, dict):
            raise ValueError("invalid pair file: expected a JSON object with keys q, A, B")
        if not isinstance(data["q"], str):
            raise ValueError("invalid pair file: 'q' must be a form string")
        q = parse_ambient_form(data["q"])
        a, b = _pair_matrix(data, "A"), _pair_matrix(data, "B")
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        raise ValueError(f"invalid pair file: {exc}") from exc
    if len(a) != len(b):
        raise ValueError(f"invalid pair file: A is {len(a)}x{len(a)} but B is {len(b)}x{len(b)}")
    if not a:
        raise ValueError("invalid pair file: A and B must not be empty")
    if q.is_zero:
        raise ValueError("invalid pair file: 'q' must be a nonzero form")
    ok = mfmod.verify_mf(mfmod.MFPair(a, b, q))
    args.format, args.timestamp = "json", False     # flags mf verify does not take
    _emit(args, {"file": args.file, "ok": ok})
    return 0 if ok else 2


def cmd_mf_hilbert(args) -> int:
    a = mfmod.ulrich_example_matrix(args.component)
    payload = {
        "component": args.component,
        "rows": [{"t": t, "h0": mfmod.cokernel_hilbert(a, t)}
                 for t in range(args.tmin, args.tmax + 1)],
    }
    _emit(args, payload, payload["rows"], ["t", "h0"])
    return 0


# ---------------------------------------------------------------------------
# gluing report


def cmd_gluing_report(args) -> int:
    node = parse(args.sheaf)
    obj = build(node)
    if not isinstance(obj, KernelSheaf):
        raise ValueError("gluing-report needs a kernel-sheaf descriptor")
    gluings = [parse_gluing(g) for g in args.e]
    rows = gluing_variation_report(obj, gluings, args.tmin, args.tmax)
    payload = {
        "descriptor": to_text(node),
        "gluings": [{"e": row.gluing, "equal_to_identity": row.equal_to_identity,
                     "rows": row.table.as_dicts()} for row in rows],
    }
    csv_rows = [{"e": g["e"], **r} for g in payload["gluings"] for r in g["rows"]]
    _emit(args, payload, csv_rows, ["e"] + TABLE_HEADER)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

MAX_JSON_BYTES = 2 ** 20      # the largest --config or mf verify file read


def _read_json(path):
    """The JSON value in file ``path``, its bytes decoded as text mode would;
    a file over MAX_JSON_BYTES (refused undecoded) or too deep a nesting is a ValueError."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_JSON_BYTES + 1)
    if len(data) > MAX_JSON_BYTES:
        raise ValueError(f"{path}: file is over MAX_JSON_BYTES = {MAX_JSON_BYTES} bytes")
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


# config key: (default, the test of a --config value, the words for its error)
_CONFIG = {"format": ("json", lambda v: v in ("json", "csv"), '"json" or "csv"'),
           "out": (None, lambda v: v is None or isinstance(v, str), "a string or null"),
           "timestamp": (True, lambda v: isinstance(v, bool), "a boolean"),
           **{key: (default, lambda v: isinstance(v, int) and not isinstance(v, bool),
                    "an integer") for key, default in
              (("seed", 0), ("cmax", 6), ("margin", 8), ("tmin", None), ("tmax", None))}}


def _apply_config(args):
    """Precedence: QACM_SEED env > explicit flag > config file > the
    command's own default > _CONFIG's default."""
    keys = [key for key in _CONFIG if hasattr(args, key)]     # the command's flags
    file_conf = {}
    if getattr(args, "config", None):
        file_conf = _read_json(args.config)
        if not isinstance(file_conf, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_conf) - set(_CONFIG)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_conf.items():
            _, ok, kind = _CONFIG[key]
            if not ok(value):
                raise ValueError(f"config key {key!r} must be {kind}, got {json.dumps(value)}")
        unknown = set(file_conf) - set(keys)
        if unknown:
            raise ValueError(f"config keys {sorted(unknown)} are not flags of this command "
                             f"(its keys: {', '.join(keys)})")
    for key in keys:
        if getattr(args, key) is None:
            setattr(args, key, file_conf.get(key, args.own_defaults.get(key, _CONFIG[key][0])))
    env_seed = os.environ.get("QACM_SEED")
    if env_seed is not None and "seed" in keys:
        try:
            args.seed = int(env_seed)
        except ValueError:
            raise ValueError(f"QACM_SEED must be an integer, got {env_seed!r}") from None
    return args


# flag groups of (flag, add_argument keywords); a None default is _apply_config's
_REPORT = (("--format", {"choices": ("json", "csv")}), ("--out", {}),
           ("--no-timestamp", {"dest": "timestamp", "action": "store_false", "default": None}),
           ("--config", {"help": "JSON file with flag defaults"}))
_SCAN = (("--seed", {"type": int}), ("--cmax", {"type": int}), ("--margin", {"type": int}))
_SHEAF = (("--sheaf", {"required": True}),)
_COMPONENT = (("--component", {"type": int, "choices": (1, 2), "default": 1}),)


def _window(**kw):
    return tuple((flag, {"type": int, **kw}) for flag in ("--tmin", "--tmax"))


# (name, help, function, flags, the command's own config defaults); a row
# with no function is a command of subcommands, its rows in place of flags
MF_COMMANDS = (
    ("example", "the distinguished linear factorization", cmd_mf_example,
     _COMPONENT + _REPORT, {}),
    ("verify", "check A*B = B*A = q*I from a JSON file", cmd_mf_verify,
     (("--file", {"required": True}), ("--out", {}), ("--config", {})), {}),
    ("hilbert", "h0 of the cokernel across twists", cmd_mf_hilbert,
     _COMPONENT + _window() + _REPORT, {"tmin": -1, "tmax": 2}),
)

COMMANDS = (
    ("cohomology", "cohomology table of a descriptor", cmd_cohomology,
     _SHEAF + _window(required=True) + _REPORT, {}),
    ("classify", "scan the rank-2 classification at desk scale", cmd_classify,
     _REPORT + _SCAN, {}),
    ("ulrich-scan", "Ulrich statuses over the classify scan", cmd_ulrich_scan,
     _REPORT + _SCAN, {}),
    ("mf", "matrix factorizations of q = xy", None, MF_COMMANDS, {}),
    ("gluing-report", "tables of one pair under several gluings", cmd_gluing_report,
     _SHEAF + (("--e", {"action": "append", "required": True,
                        "help": "gluing: id | diag(a,d) | upper(a,d,form); repeatable"}),)
     + _window() + _REPORT, {}),
)


def _table_args(argv):
    """The namespace argparse makes of ``argv``, read from the table: a command
    path, then full flag names, each but a store_false flag with a value that
    starts with "-" only as an ASCII negative integer.  None for anything else
    (help, abbreviations, --flag=value, bad values): argparse reads those."""
    func, flags, dest, ns, tokens = None, COMMANDS, "command", {}, iter(argv)
    while func is None:
        ns[dest] = name = next(tokens, None)
        row = next((r for r in flags if r[0] == name), None)
        if row is None:
            return None
        _, _, func, flags, defaults = row
        dest = f"{name}_command"
    actions = {flag: (kw.get("dest", flag[2:].replace("-", "_")), kw) for flag, kw in flags}
    ns.update((key, kw.get("default")) for key, kw in actions.values())
    for flag in tokens:
        key, kw = actions.get(flag, (None, {}))
        if kw.get("action") == "store_false":
            ns[key] = False
            continue
        value = next(tokens, "-")                   # a missing value declines as "-"
        if key is None or value[:1] == "-" and not (value.isascii() and value[1:].isdigit()):
            return None
        try:
            value = kw.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if value not in kw.get("choices", (value,)):
            return None
        ns[key] = (ns[key] or []) + [value] if kw.get("action") == "append" else value
    if any(kw.get("required") and ns[key] is None for key, kw in actions.values()):
        return None         # a required flag has no default: None is its absence
    return types.SimpleNamespace(**ns, func=func, own_defaults=defaults)


def _add_commands(parser, rows, dest):
    """Add ``rows`` to ``parser`` as positional ``dest``."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, help_text, func, flags, defaults in rows:
        p = sub.add_parser(name, help=help_text)
        if func is None:
            _add_commands(p, flags, f"{name}_command")
            continue
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        p.set_defaults(func=func, own_defaults=defaults)


def build_parser() -> argparse.ArgumentParser:
    """The qacm parser, every command filled in.  main builds it only for a
    call _table_args declines: help, usage errors and other syntax."""
    import argparse  # imported here: a call the table reads needs neither it nor gettext
    ap = argparse.ArgumentParser(prog="qacm",
                                 description="Exact cohomology and aCM/Ulrich scans "
                                             "on the reducible quadric surface")
    _add_commands(ap, COMMANDS, "command")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _table_args(argv) or build_parser().parse_args(argv)
    try:
        args = _apply_config(args)
        check_twist_window(getattr(args, "tmin", None), getattr(args, "tmax", None))
        return args.func(args)
    except (DescriptorParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
