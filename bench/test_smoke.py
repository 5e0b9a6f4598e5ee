"""Smoke test of the benchmark driver on tiny inputs of every workload.

Run with: python3 -m pytest -q bench/test_smoke.py

It runs ``classify --cmax 2``, ``cohomology`` over [-3, 2] and ``mf hilbert``
over [-1, 2] through the same driver code as the full benchmark, untraced
and traced, and checks exit codes, report hashes and that every metric named
in BENCHMARK.json is present.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--workload", "all",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = {m["name"] for m in CONFIG["per_layer" if trace else "end_to_end"]}
    assert set(results) == {w["name"] for w in CONFIG["workloads"]}
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (name, proc.stderr)
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == declared
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))
    if trace:
        assert results["classify-c8"]["metrics"]["linalg.rank.calls"]["value"] > 0
        assert results["mf-hilbert"]["metrics"]["mf.cokernel_hilbert.calls"]["value"] > 0


def test_needs_sources(tmp_path):
    """Without the program's sources the driver fails and prints no result."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mf-hilbert", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
