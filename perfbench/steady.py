"""Steadiness self-check: repeat each workload over seeds, compare to bounds.

    python3 perfbench/steady.py

Each run is `run.py --workload W --seed S --trace 0` for seeds 1..10; one
set is those ten runs, and every workload in BENCHMARK.json gets two sets.
For every end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`), the spread (Q3 - Q1) / median and
the bound from BENCHMARK.json.  Every spread, set-up time included, must
stay within its bound, and is steady below a third of it; the second set's
median must lie within the bound of the first's, in either direction.  The
report is stamped with the Python version, the CPU count and the commit,
and its JSON form is the last line.  The exit code is 0 only if every check
holds.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS, SETS = 10, 2


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed {result['failed']} of {result['attempted']}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summary(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within": spread <= bound, "steady": spread < bound / 3, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "runs": RUNS,
        "workloads": {},
    }
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        sets = []
        for _ in range(SETS):
            runs = [one_run(name, seed, spec["run_seconds"]) for seed in range(1, RUNS + 1)]
            sets.append({m: summary([r[m] for r in runs], bounds[m]) for m in bounds})
        for metric in bounds:
            for number, one in enumerate(sets, start=1):
                print(f"{name:>12} {metric:>12} set {number}  median {one[metric]['median']:.4f}  "
                      f"q1 {one[metric]['q1']:.4f}  q3 {one[metric]['q3']:.4f}  "
                      f"spread {one[metric]['spread']:.4f}  bound {one[metric]['bound']}  "
                      f"{'steady' if one[metric]['steady'] else 'within' if one[metric]['within'] else 'OUT OF BOUND'}")
        ok = ok and all(one[m]["within"] for one in sets for m in bounds)
        drift = {m: sets[1][m]["median"] / sets[0][m]["median"] - 1 for m in bounds}
        ok = ok and all(abs(drift[m]) <= bounds[m] for m in bounds)
        print(f"{name:>12} median drift, second set against first: "
              + "  ".join(f"{m} {d:+.4f}" for m, d in drift.items()))
        report["workloads"][name] = {"sets": sets, "median_drift": drift}
    report["ok"] = ok
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
