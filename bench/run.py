"""Benchmark of the qacm CLI: end-to-end time and memory on three workloads,
and a traced per-module breakdown.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N       # every workload in turn
    python3 bench/run.py --smoke --workload all        # tiny inputs, same code path
    python3 bench/run.py --record                      # fill in bench/expected.json

Each sample is a fresh child process (``bench/child.py``) that imports
``qacm.cli`` from ``src/`` and calls ``cli.main(argv)`` with
``--no-timestamp``, so the program's ``lru_cache`` tables start cold as they
do for a CLI user.  Samples run one at a time.  A run starts
``SETUP_SAMPLES`` import-only children, then takes samples until the next
one would end after ``--seconds`` (at least one).  A sample fails when the
child exits nonzero or the sha256 of its report differs from the one
recorded in ``bench/expected.json`` for the same command line.

With ``--trace 0`` the result holds the end-to-end metrics, each the median
over the run's samples: ``wall_norm_s`` and ``cpu_norm_s`` (wall and CPU
time of the ``cli.main`` call), ``setup_s`` (child start until ``qacm.cli``
is imported) and ``peak_rss_mb`` (the child's peak resident set).  Times are
normalized to the machine's speed during the run: every child also times
``child.reference_seconds``, a fixed loop that runs no qacm code, and a time
is scaled by ``REF_SECONDS`` over the run's median reference time.  Shared
machines run the same work up to 1.5x slower for minutes at a time, which
moves raw times of whole runs far more than any bound could allow; the
summary lines also print every time as measured.  With ``--trace 1``
untraced and traced samples alternate and the result holds the per-layer
metrics of ``bench/spans.py`` plus ``trace.overhead_ratio``.  The last line
of standard output is the JSON result; the lines before it repeat it for a
reader, with ``fail_ratio``.

``--record`` runs every workload input once and stores its report hash.  Run
it only on a commit whose reports are known to be right; every later run is
checked against what it stored.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
EXPECTED = BENCH_DIR / "expected.json"

VARIANTS = 16          # inputs are made from seed % VARIANTS
SETUP_SAMPLES = 5      # import-only children per run, for setup_s
REF_SECONDS = 0.25     # reference loop time that normalized times are scaled to
RUN_LIMIT_S = 170.0    # no sample may end later than this after the run starts


def line_values(seed: int, count: int):
    """Distinct r in 1..97 for the points [0:1:r], by the same seeded shuffle
    as ``qacm.cli.seeded_line_values``; kept here so the inputs stay fixed
    whatever the program does."""
    pool = list(range(1, 98))
    random.Random(seed).shuffle(pool)
    return pool[:count]


def classify_argv(v: int, cmax: int):
    return ["classify", "--cmax", str(cmax), "--seed", str(v)]


def cohomology_argv(v: int, tmin: int, tmax: int):
    r1, r2 = line_values(v, 2)
    sheaf = ("K(F1=O(3)+O(0)@H1,F2=G(c=3,k=1,"
             f"Z=points([0:1:{r1}];[0:1:{r2}]),h=auto)@H2,e=id)")
    return ["cohomology", "--sheaf", sheaf, "--tmin", str(tmin), "--tmax", str(tmax)]


def mf_argv(v: int, tmax: int):
    return ["mf", "hilbert", "--component", str(1 + v % 2), "--tmin", "-1", "--tmax", str(tmax)]


# name -> (full inputs, smoke inputs), each a function of the seed variant
WORKLOADS = {
    "classify-c8": (lambda v: classify_argv(v, 8), lambda v: classify_argv(v, 2)),
    "cohomology-deep": (lambda v: cohomology_argv(v, -40, 4), lambda v: cohomology_argv(v, -3, 2)),
    "mf-hilbert": (lambda v: mf_argv(v, 14), lambda v: mf_argv(v, 2)),
}


def workload_argv(name: str, seed: int, smoke: bool):
    full, tiny = WORKLOADS[name]
    return (tiny if smoke else full)(seed % VARIANTS)


# ---------------------------------------------------------------------------
# samples


def spawn(spec: dict, deadline: float):
    """Run one child to completion; its result dict, or None if it failed."""
    env = dict(os.environ)
    env.pop("QACM_SEED", None)  # it would override the workload's --seed
    # A fixed hash seed keeps set and dict order, and with it the work done,
    # the same from sample to sample.
    env["PYTHONHASHSEED"] = "0"
    spec["src"] = str(SRC)
    spec["spawned_at"] = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=str(ROOT), text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"sample timed out: {spec.get('argv')}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.strip():
        print(f"sample exited {proc.returncode}: {spec.get('argv')}\n{err}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def report_sample(mode: str, argv, deadline: float):
    """One CLI run; (result or None, sha256 of the report or None)."""
    report = WORK / "report.out"
    spec = {"mode": mode, "argv": argv + ["--no-timestamp", "--out", str(report)],
            "spans_out": str(WORK / "spans.json")}
    if report.exists():
        report.unlink()
    res = spawn(spec, deadline)
    if res is None or res.get("exit") != 0 or not report.exists():
        return res, None
    return res, hashlib.sha256(report.read_bytes()).hexdigest()


def load_expected():
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        return json.load(fh)


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    argv = workload_argv(name, seed, smoke)
    want = load_expected().get(name, {}).get(" ".join(argv))
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups, refs = [], []
    for _ in range(SETUP_SAMPLES):
        res = spawn({"mode": "setup"}, deadline)
        if res is not None:
            setups.append(res["setup_s"])
            refs.extend(res["ref_s"])
    plain, traced, layer_runs = [], [], []
    attempted = failed = 0
    while True:
        round_start = time.monotonic()
        for mode in (("run", "trace") if trace else ("run",)):
            res, digest = report_sample(mode, argv, deadline)
            attempted += 1
            if digest != want:
                print(f"{name}: report sha256 {digest}, recorded {want}", file=sys.stderr)
                failed += 1
            if res is None or res.get("exit") != 0:
                continue
            setups.append(res["setup_s"])
            refs.extend(res["ref_s"])
            (traced if mode == "trace" else plain).append(res)
            if mode == "trace":
                layer_runs.append(layer_metrics(res))
        now = time.monotonic()
        if now + (now - round_start) > min(start + seconds, deadline):
            break

    result = {"workload": name, "seed": seed, "argv": argv, "attempted": attempted,
              "failed": failed, "samples": len(plain), "setup_samples": len(setups)}
    if trace:
        if not plain or not traced:
            return result
        metrics = {key: statistics.median(run[key] for run in layer_runs)
                   for key in layer_runs[0]}
        metrics["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                           / statistics.median(r["wall_s"] for r in plain))
        result["metrics"] = metrics
        return result
    if not plain or not setups:
        return result
    raw = {key: statistics.median(r[key] for r in plain) for key in ("wall_s", "cpu_s")}
    raw["setup_s"] = statistics.median(setups)
    raw["ref_s"] = statistics.median(refs)
    scale = REF_SECONDS / raw["ref_s"]
    result["raw"] = raw
    result["metrics"] = {
        "wall_norm_s": raw["wall_s"] * scale,
        "cpu_norm_s": raw["cpu_s"] * scale,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    return result


def layer_metrics(res: dict) -> dict:
    with open(WORK / "spans.json", "r", encoding="utf-8") as fh:
        recorded = json.load(fh)
    info = res["trace"]
    if info["missing"]:
        print(f"warning: not in the program, so not traced: {info['missing']}", file=sys.stderr)
    metrics = spans.aggregate(recorded, res["wall_s"], info["distinct_keys"])
    metrics["monomials.basis.hit_ratio"] = info["basis_hit_ratio"]
    return metrics


# ---------------------------------------------------------------------------
# output


def bench_config():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def emit(result: dict, trace: bool, config: dict) -> dict:
    """Print the readable summary; return the contract's result object."""
    declared = config["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']} seed {result['seed']}: qacm {' '.join(result['argv'])}")
    for m in declared:
        if m["name"] in metrics:
            print(f"  {m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    for key, value in result.get("raw", {}).items():
        print(f"  {key + ' (as measured)':<48} {value:>14.6g} s")
    print(f"  {'fail_ratio':<48} {failed / attempted:>14.6g} ratio ({failed} of {attempted} "
          f"samples failed; {result['samples']} timed, {result['setup_samples']} set-ups)")
    return {
        "correct": failed == 0 and all(m["name"] in metrics for m in declared),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }


def record() -> int:
    """Store the report hash of every workload input, full and smoke.  Hashes
    already in the file are kept; delete the file to record them all anew."""
    old = load_expected() if EXPECTED.exists() else {}
    expected = {}
    for name in WORKLOADS:
        table = expected.setdefault(name, {})
        for smoke in (True, False):
            for v in range(VARIANTS):
                argv = workload_argv(name, v, smoke)
                key = " ".join(argv)
                if key in table:
                    continue
                if key in old.get(name, {}):
                    table[key] = old[name][key]
                    continue
                res, digest = report_sample("run", argv, time.monotonic() + 600)
                if digest is None:
                    print(f"cannot record {key}", file=sys.stderr)
                    return 1
                table[key] = digest
                print(f"{digest}  {key}  ({res['wall_s']:.2f} s)", flush=True)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs of every workload")
    ap.add_argument("--record", action="store_true", help="record missing report hashes in bench/expected.json")
    args = ap.parse_args(argv)

    if not (SRC / "qacm" / "cli.py").is_file():
        print(f"error: no qacm sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "qacm"), quiet=1)
    WORK.mkdir(exist_ok=True)
    if args.record:
        return record()

    config = bench_config()
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    outputs = {}
    for name in names:
        result = measure(name, args.seed, seconds, bool(args.trace), args.smoke)
        if "metrics" not in result:
            print(f"error: {name}: no sample succeeded", file=sys.stderr)
            return 1
        outputs[name] = emit(result, bool(args.trace), config)
    print(json.dumps(outputs[names[0]] if len(names) == 1 else outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
