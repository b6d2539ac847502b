"""orbitdiag benchmark: one workload per fresh process, every output checked.

    python3 perfbench/run.py --workload sweep --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload run prints, as its last stdout line, a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
(`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).  The
line before it, starting `detail `, carries what a reader wants besides:
`fail_ratio`, batch times, command latency percentiles, the first failures.
`wall_s` and `setup_s` are wall times scaled to a nominal machine speed
(`pace.py`); the wall times themselves are in the `detail` line.
`--seconds` defaults to `run_seconds` in BENCHMARK.json.  `--workload all`
runs every workload in its own child process, one after the other, and
prints a table.  Run it from the root of a checkout; the
package is imported from `src/`, nothing needs installing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("sweep", "symbolic", "oracle-large", "cli")
SETUP_PROBES = 15  # about half before the timed batches, the rest after
IMPORT_PROBES = 5
PROBE_INTERVAL = 0.005  # a set-up takes about 0.1 s: sample it about a dozen times

# Spans reported as call count, busy time and self time; BUSY_ONLY spans
# as busy time alone.
SPAN_METRICS = (
    "core.coadjoint_act",
    "oracle.invariance_oracle",
    "oracle.index_oracle",
    "oracle.skew_form_matrix",
    "oracle.exact_rank",
    "oracle.generic_jacobian_rank",
    "invariants.theta_step",
    "invariants.triangular_decompose",
    "invariants.verify_centrality",
    "invariants.verify_relations",
    "polyring.canonical_string",
    "polyring.parse_polynomial",
    "diagram.build_diagram",
)
BUSY_ONLY = ("diagram.structural", "core.ideals", "cli.dispatch")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Fresh interpreter to ready: import the package and build the inputs.

    Returns the wall time and the time at the nominal speed.  The probe
    samples the machine's speed itself while it sets up, and reports how
    long its samples took and their median after `ready`.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    word, *pacing = line.split()
    if proc.wait() != 0 or word != b"ready" or len(pacing) != 2:
        raise RuntimeError(f"set-up probe for {name} failed")
    spent, median = map(float, pacing)
    return ready, pace.scale(ready - spent, [median])


def import_ms(workloads) -> float:
    code = "import time; t = time.perf_counter(); import orbitdiag; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_PROBES):
        status, out, _, _ = workloads.run_child([sys.executable, "-c", code])
        if status != 0:
            raise RuntimeError("importing orbitdiag in a fresh interpreter failed")
        samples.append(float(out) * 1000)
    return statistics.median(samples)


def run_batches(work, inputs, rec, tally, stats, seconds: float) -> tuple[list[float], list[float]]:
    """Whole batches until the next would overrun `seconds` (at least `min_batches`).

    Returns each batch's wall time and its time at the nominal speed.
    """
    walls: list[float] = []
    scaled: list[float] = []
    start = time.perf_counter()
    while len(walls) < work.min_batches or time.perf_counter() - start + statistics.median(walls) <= seconds:
        with pace.Pace() as sampler:
            began = time.perf_counter()
            work.batch(inputs, rec, tally, stats)
            walls.append(time.perf_counter() - began)
        scaled.append(sampler.scaled(walls[-1]))
    return walls, scaled


def percentiles_ms(latencies: list[float]) -> tuple[float, float]:
    """p50 and p90 in ms; callers keep at least 100 samples, 10 beyond p90."""
    cuts = statistics.quantiles(latencies, n=10)
    return statistics.median(latencies) * 1000, cuts[8] * 1000


def end_to_end(work, inputs, tally, stats, seed: int, seconds: float, spans):
    setups = [setup_seconds(work.name, seed) for _ in range(SETUP_PROBES // 2 + 1)]
    walls, times = run_batches(work, inputs, spans.NullRecorder(), tally, stats, seconds)
    work.check(inputs, spans.NullRecorder(), tally, stats)
    setups += [setup_seconds(work.name, seed) for _ in range(SETUP_PROBES // 2)]
    if "latencies" in inputs:
        peak = inputs["child_rss"]
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "wall_s": (statistics.median(times), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    detail = {
        "batch_s": times, "batch_wall_s": walls,
        "setup_samples_s": [scaled for _, scaled in setups], "setup_wall_s": [wall for wall, _ in setups],
    }
    if "latencies" in inputs:
        p50, p90 = percentiles_ms(inputs["latencies"])
        detail.update(cmd_p50_ms=p50, cmd_p90_ms=p90, commands=len(inputs["latencies"]))
    return metrics, detail


def per_layer(work, inputs, tally, stats, seed: int, workloads, spans):
    """One untraced batch, then one traced batch; preparing again records the input spans."""
    began = time.perf_counter()
    work.batch(inputs, spans.NullRecorder(), tally, stats)
    work.check(inputs, spans.NullRecorder(), tally, stats)
    untraced = time.perf_counter() - began
    rec = spans.Recorder()
    work.prepare(seed, rec)
    start = time.perf_counter()
    work.batch(inputs, rec, tally, stats)
    work.check(inputs, rec, tally, stats)
    end = time.perf_counter()
    workloads.OUT.mkdir(exist_ok=True)
    rec.write(workloads.OUT / f"trace-{work.name}-{seed}.json")

    table = spans.summarise(rec.spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    metrics = {}
    for name in SPAN_METRICS:
        row = table.get(name, empty)
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.busy_s"] = (row["busy_s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    for name in BUSY_ONLY:
        metrics[f"{name}.busy_s"] = (table.get(name, empty)["busy_s"], "s")
    jac_calls = stats.jacobian_calls
    latencies = inputs.get("latencies")
    p50, p90 = percentiles_ms(latencies) if latencies else (0.0, 0.0)
    process = [latency - dispatch for latency, dispatch in stats.dispatch_s]
    metrics.update({
        "oracle.exact_rank.dim_max": (stats.rank_dim_max, "count"),
        "oracle.generic_jacobian_rank.retries": (stats.retries, "count"),
        "oracle.generic_jacobian_rank.useful_ratio": (stats.jacobian_first_try / jac_calls if jac_calls else 0.0, "ratio"),
        "invariants.theta_step.max_den_exp": (stats.max_den_exp, "count"),
        "invariants.verify_relations.checked": (stats.relations_checked, "count"),
        "invariants.z.terms_max": (stats.z_terms_max, "count"),
        "invariants.z.terms_total": (stats.z_terms_total, "count"),
        "invariants.z.degree_max": (stats.z_degree_max, "count"),
        "cli.import_ms": (import_ms(workloads), "ms"),
        "cli.process_ms": (statistics.median(process) * 1000 if process else 0.0, "ms"),
        "cli.cmd_p50_ms": (p50, "ms"),
        "cli.cmd_p90_ms": (p90, "ms"),
        "trace.coverage": (spans.coverage(rec.spans, start, end), "ratio"),
        "trace.overhead_ratio": ((end - start) / untraced, "ratio"),
    })
    return metrics, {"untraced_s": untraced, "traced_s": end - start, "spans": len(rec.spans)}


def probe(args) -> int:
    """Set up as a run does, sampling the machine's speed all the while."""
    with pace.Pace(PROBE_INTERVAL) as sampler:
        import spans
        import workloads

        workloads.WORKLOADS[args.workload].prepare(args.seed, spans.NullRecorder())
    print(f"ready {sampler.spent!r} {statistics.median(sampler.samples)!r}", flush=True)
    return 0


def run_one(args) -> int:
    import spans
    import workloads

    work = workloads.WORKLOADS[args.workload]
    inputs = work.prepare(args.seed, spans.NullRecorder())
    tally, stats = workloads.Tally(), workloads.Stats()
    if args.trace:
        metrics, detail = per_layer(work, inputs, tally, stats, args.seed, workloads, spans)
    else:
        metrics, detail = end_to_end(work, inputs, tally, stats, args.seed, args.seconds, spans)
    detail.update(
        workload=args.workload, seed=args.seed, fail_ratio=tally.failed / tally.attempted,
        problems=tally.problems[:5],
    )
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh child process, one at a time."""
    header = ("workload", "setup_s", "wall_s", "peak_rss_mb", "fail_ratio", "cmd_p50_ms", "cmd_p90_ms")
    print("  ".join(f"{h:>12}" for h in header))
    ok = True
    for name in NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, check=False)
        lines = proc.stdout.decode().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:>12}  did not finish (exit {proc.returncode})")
            ok = False
            continue
        result, detail = json.loads(lines[-1]), json.loads(lines[-2].removeprefix("detail "))
        ok = ok and result["correct"]
        if args.trace:
            print(f"{name:>12}  " + json.dumps({k: v["value"] for k, v in result["metrics"].items()}))
            continue
        values = [result["metrics"][k]["value"] for k in header[1:4]]
        values += [detail["fail_ratio"], detail.get("cmd_p50_ms", "-"), detail.get("cmd_p90_ms", "-")]
        print(f"{name:>12}  " + "  ".join(f"{v:>12.4f}" if isinstance(v, float) else f"{v:>12}" for v in values))
        for problem in detail["problems"]:
            print(f"{'':>12}  {problem}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orbitdiag" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'orbitdiag'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return probe(args) if args.probe else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
