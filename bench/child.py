"""One benchmark sample: a fresh process that imports ``qacm.cli`` and runs
one CLI command through ``cli.main(argv)``.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON holds ``mode`` ("setup", "run" or "trace"), ``src`` (the directory
holding the ``qacm`` package), ``spawned_at`` (the parent's
``time.monotonic()`` just before it started this process), and for "run"
and "trace" the CLI ``argv`` and, for "trace", ``spans_out``, the file the
recorded spans are written to.  The last line of standard output is a JSON
object with the measurements: ``setup_s``, ``ref_s`` (times of
``reference_seconds``, before and after the CLI call) and, for "run" and
"trace", the exit code, ``wall_s``, ``cpu_s`` and ``peak_rss_mb``.
"""

import json
import random
import resource
import sys
import time
from fractions import Fraction
from math import gcd


def reference_seconds() -> float:
    """Time of a fixed exact elimination: a seeded sparse rational matrix,
    cleared to integer rows and reduced by fraction-free elimination, the kind
    of work qacm's linalg does.  It runs no qacm code, so it measures how fast
    the machine runs at this moment and nothing a change to the program can
    move."""
    start = time.perf_counter()
    rng = random.Random(20151)
    cols = 200
    rows = []
    for _ in range(190):
        row = {j: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
               for j in rng.sample(range(cols), 5)}
        den = 1
        for x in row.values():
            den = den * x.denominator // gcd(den, x.denominator)
        rows.append({j: int(x * den) for j, x in row.items()})
    remaining = list(range(len(rows)))
    for col in range(cols):
        cand = [i for i in remaining if rows[i].get(col)]
        if not cand:
            continue
        i0 = min(cand, key=lambda i: (len(rows[i]), i))
        piv, p = rows[i0], rows[i0][col]
        remaining.remove(i0)
        for i in cand:
            if i == i0:
                continue
            f = rows[i][col]
            new = {j: v * p for j, v in rows[i].items()}
            for j, v in piv.items():
                w = new.get(j, 0) - f * v
                if w:
                    new[j] = w
                else:
                    new.pop(j, None)
            g = 0
            for v in new.values():
                g = gcd(g, v)
            rows[i] = {j: v // g for j, v in new.items()} if g > 1 else new
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """High-water resident set size of this process image (Linux VmHWM).
    ``ru_maxrss`` is not used: after exec it still counts the resident set
    of the parent that started the process."""
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import qacm.cli as cli
    result = {"setup_s": time.monotonic() - spec["spawned_at"]}
    if spec["mode"] == "setup":
        result["ref_s"] = [reference_seconds()]
        print(json.dumps(result))
        return 0

    recorder = None
    if spec["mode"] == "trace":
        import spans
        recorder = spans.Recorder()
        recorder.install()
    ref_before = reference_seconds()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = cli.main(spec["argv"])
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result.update({
        "ref_s": [ref_before, reference_seconds()],
        "exit": code,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": peak_rss_mb(),
    })
    if recorder is not None:
        basis = getattr(sys.modules["qacm.monomials"], "basis", None)
        info = basis.cache_info() if hasattr(basis, "cache_info") else None
        lookups = info.hits + info.misses if info else 0
        result["trace"] = {
            "distinct_keys": len(recorder.keys),
            "basis_hit_ratio": info.hits / lookups if lookups else 0.0,
            "missing": recorder.missing,
        }
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh, separators=(",", ":"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
