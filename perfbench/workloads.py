"""The four benchmark workloads: inputs from a seed, one batch, its checks.

Each workload has `prepare(seed, rec)`, which builds the inputs the package
will receive (this is the set-up that `setup_s` times), and `batch(inputs, rec,
tally, stats)`, which runs one fixed batch of operations and counts each
operation's checks into `tally`.  With a live span recorder (`rec.enabled`)
the batch makes, in place of each composite call (`run_verify`,
`build_invariants`, `dispatch`), the public calls that composite makes one
level down, each wrapped in a span named `layer.function`.  Only untraced
batches feed the end-to-end metrics.
"""

from __future__ import annotations

import json
import logging
import os
import random
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from orbitdiag import (
    LinearForm,
    QuotientAlgebra,
    b_set,
    build_diagram,
    build_invariants,
    canonical_string,
    check_closure,
    coadjoint_act,
    d_minus,
    dominating_ideal,
    enumerate_pattern_ideals,
    exact_rank,
    generic_jacobian_rank,
    index_of,
    index_oracle,
    initial_state,
    invariance_oracle,
    max_orbit_dim,
    order_gt,
    parse_polynomial,
    random_unipotent,
    sample_pattern_ideals,
    skew_form_matrix,
    theta_step,
    triangular_decompose,
    validate_pattern_ideal,
    verify_centrality,
    verify_relations,
)
from orbitdiag.cli import (
    emit_json,
    make_bundle,
    parse_ideal_spec,
    render_diagram,
    run_verify,
)
from orbitdiag.core import counter_rand

from ideals import random_ideals

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


# --- failure accounting ----------------------------------------------------


class Tally:
    """Operations attempted and failed; an operation fails on any problem.

    An operation returns the list of its failed checks.  An exception it
    raises is one more failed check of that operation, never the end of
    the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, label: str, operation) -> list[str]:
        self.attempted += 1
        try:
            problems = list(operation())
        except Exception as exc:  # noqa: BLE001 -- a broken operation is counted, not fatal
            problems = [f"raised {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {problems[0]}")
        return problems


# --- size and retry counters, filled only by traced batches ----------------


@dataclass
class Stats:
    max_den_exp: int = 0
    z_terms_max: int = 0
    z_terms_total: int = 0
    z_degree_max: int = 0
    rank_dim_max: int = 0
    relations_checked: int = 0
    jacobian_calls: int = 0
    jacobian_first_try: int = 0
    retries: int = 0
    dispatch_s: list = field(default_factory=list)  # (command latency, untraced in-process dispatch) pairs


class RetryCounter(logging.Handler):
    """Counts the resampling warnings `generic_jacobian_rank` logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


RETRIES = RetryCounter()
logging.getLogger("orbitdiag.oracle").addHandler(RETRIES)


def ideal_label(ideal) -> str:
    body = "; ".join(f"{p.row},{p.col}" for p in sorted(ideal.members, key=lambda p: (p.col, -p.row)))
    return f"{ideal.n}: {body}" if body else f"{ideal.n}:"


# --- composite calls, decomposed one level down when traced ----------------


def invariants_of(rec, stats, d, check: bool, label: str):
    """`build_invariants(d, check)`; traced, the calls it makes one by one."""
    if not rec.enabled:
        return build_invariants(d, check=check)
    state = rec.call("invariants.initial_state", initial_state, d, ideal=label)
    for i in range(1, d.s + 1):
        state = rec.call("invariants.theta_step", theta_step, state, d, i, ideal=label)
        for image in state.images.values():
            stats.max_den_exp = max(stats.max_den_exp, *image.den.values(), 0)
    zs = list(state.z_list)
    for z in zs:
        stats.z_terms_max = max(stats.z_terms_max, len(z.terms))
        stats.z_terms_total += len(z.terms)
        stats.z_degree_max = max(stats.z_degree_max, z.degree())
    if check:
        for idx, z in enumerate(zs, start=1):
            rec.call(
                "invariants.triangular_decompose",
                triangular_decompose, z, d.steps[idx - 1].xi, zs[: idx - 1], ideal=label,
            )
            if not rec.call("invariants.verify_centrality", verify_centrality, z, d.ideal, ideal=label):
                raise ValueError(f"z_{idx} does not commute with every coordinate")
    return zs


def jacobian_rank_of(rec, stats, zs, ideal, seed: int, label: str) -> int:
    before = RETRIES.count
    rank = rec.call(
        "oracle.generic_jacobian_rank", generic_jacobian_rank, zs, ideal, seed, 1000, ideal=label
    )
    if rec.enabled:
        stats.jacobian_calls += 1
        stats.jacobian_first_try += RETRIES.count == before
        stats.retries += RETRIES.count - before
    return rank


def rank_of(rec, stats, form, ideal, label: str) -> int:
    matrix = rec.call("oracle.skew_form_matrix", skew_form_matrix, form, ideal, ideal=label)
    if rec.enabled:
        stats.rank_dim_max = max(stats.rank_dim_max, matrix.dim)
    return rec.call("oracle.exact_rank", exact_rank, matrix, ideal=label)


def structural_problem(d) -> str | None:
    """The structural checks `verify` runs on one diagram, from public calls."""
    ideal = d.ideal
    if index_of(d) + max_orbit_dim(d) != ideal.dim_quotient:
        return "index plus orbit dimension misses dim L"
    if max_orbit_dim(d) % 2:
        return "orbit dimension is odd"
    if any(len(rec.minus) != len(rec.plus) for rec in d.steps):
        return "plus and minus counts differ"
    if not all(order_gt(a, b) for a, b in zip(d.xi_list, d.xi_list[1:])):
        return "cross chain is not strictly decreasing"
    for i in range(d.s + 1):
        if not check_closure(b_set(d, i), ideal):
            return f"unfilled set after step {i} is not closed"
        if i >= 1 and not check_closure(d_minus(d, i), dominating_ideal(d, i)):
            return f"minus family at step {i} is not closed above the cross"
    return None


def verify_problems(rec, stats, max_n: int, trials: int, seed: int, bound: int) -> tuple[int, list[str]]:
    """`run_verify` one level down: (ideals checked, failed checks)."""
    problems: list[str] = []
    total = 0
    for n in range(2, max_n + 1):
        if n <= 6:
            ideals = rec.call("core.ideals", lambda n=n: list(enumerate_pattern_ideals(n)))
        else:
            ideals = rec.call("core.ideals", sample_pattern_ideals, n, 25, seed)
        for position, ideal in enumerate(ideals):
            total += 1
            label = ideal_label(ideal)
            case_seed = counter_rand(seed, 0x1D, n, position)
            d = rec.call("diagram.build_diagram", build_diagram, ideal, ideal=label)
            problem = rec.call("diagram.structural", structural_problem, d, ideal=label)
            if problem:
                problems.append(f"{label}: {problem}")
            got = rec.call("oracle.index_oracle", index_oracle, ideal, trials, bound, case_seed, ideal=label)
            if got != (index_of(d), max_orbit_dim(d)):
                problems.append(f"{label}: oracle {got} disagrees with the diagram")
            try:
                zs = invariants_of(rec, stats, d, n <= 5, label)
                if n <= 5:
                    state = rec.call("invariants.initial_state", initial_state, d, ideal=label)
                    for i in range(1, d.s + 1):
                        report = rec.call("invariants.verify_relations", verify_relations, state, d, i, ideal=label)
                        stats.relations_checked += report.checked
                        if not report.passed:
                            problems.append(f"{label}: step {i}: {report.counterexample}")
                        state = rec.call("invariants.theta_step", theta_step, state, d, i, ideal=label)
                if not rec.call("oracle.invariance_oracle", invariance_oracle, zs, ideal, trials, case_seed, ideal=label):
                    problems.append(f"{label}: an invariant moved under the coadjoint action")
                if jacobian_rank_of(rec, stats, zs, ideal, case_seed, label) != len(zs):
                    problems.append(f"{label}: invariants are not independent")
            except Exception as exc:  # noqa: BLE001 -- as in run_verify: the ideal fails, the sweep goes on
                problems.append(f"{label}: {exc!r}")
    return total, problems


class Workload:
    name = ""
    min_batches = 2

    def check(self, inputs, rec, tally, stats) -> None:
        """Checks left until after the timed batches; most workloads check as they go."""


# --- sweep: the correctness sweep `orbitdiag verify --max-n 8` runs ---------

SWEEP_MAX_N, SWEEP_TRIALS, SWEEP_BOUND, SWEEP_IDEALS = 8, 5, 1000, 245


class Sweep(Workload):
    name = "sweep"

    def prepare(self, seed: int, rec) -> dict:
        return {"seed": seed, "report": None}

    def batch(self, inputs, rec, tally, stats) -> None:
        seed = inputs["seed"]

        def untraced():
            report, passed = run_verify(SWEEP_MAX_N, SWEEP_TRIALS, seed, SWEEP_BOUND)
            text = json.dumps(report, indent=2)
            if inputs["report"] is None:
                inputs["report"] = text
            problems = []
            if not passed:
                problems.append("the verify report failed")
            if report["ideals_checked"] != SWEEP_IDEALS:
                problems.append(f"{report['ideals_checked']} ideals checked, expected {SWEEP_IDEALS}")
            if text != inputs["report"]:
                problems.append("the report differs between repeats of one seed")
            return problems

        def traced():
            total, problems = verify_problems(rec, stats, SWEEP_MAX_N, SWEEP_TRIALS, seed, SWEEP_BOUND)
            if total != SWEEP_IDEALS:
                problems.append(f"{total} ideals checked, expected {SWEEP_IDEALS}")
            return problems

        tally.run(f"verify --max-n {SWEEP_MAX_N} --seed {seed}", traced if rec.enabled else untraced)


# --- symbolic: invariants and their oracles on a fixed panel ----------------

# The panel is fixed so that every seed does the same symbolic work: raw
# invariants grow without bound over uniform draws at these sizes (one n=11
# draw in about twenty has a z of 1.6e3 to 6e4 terms, which takes from
# seconds to many minutes to check), so a per-seed draw could neither keep
# a steady time nor finish a run.  Panel seed 1 is used because its draw
# holds one such heavy case (1650 terms at n=11) next to light ones; the run
# seed moves every oracle draw.
SYMBOLIC_PANEL_SEED = 1
SYMBOLIC_PER_N = 4


@dataclass(frozen=True)
class Case:
    position: int
    ideal: object
    full: bool = False
    form: object = None

    @property
    def label(self) -> str:
        return ideal_label(self.ideal)


def symbolic_checks(rec, stats, case: Case, d, zs, seed: int) -> list[str]:
    """Every check of one symbolic case on already computed d and zs."""
    ideal, label = case.ideal, case.label
    problems = []
    for idx, z in enumerate(zs, start=1):
        text = rec.call("polyring.canonical_string", canonical_string, z, ideal=label)
        if rec.call("polyring.parse_polynomial", parse_polynomial, text, ideal=label) != z:
            problems.append(f"z_{idx} does not survive a round trip through its string")
    if not rec.call("oracle.invariance_oracle", invariance_oracle, zs, ideal, 2, seed, ideal=label):
        problems.append("an invariant moved under the coadjoint action")
    rank = jacobian_rank_of(rec, stats, zs, ideal, seed, label)
    if rank != len(zs):
        problems.append(f"jacobian rank {rank}, expected {len(zs)}")
    got = rec.call("oracle.index_oracle", index_oracle, ideal, 2, 1000, seed, ideal=label)
    if got != (index_of(d), max_orbit_dim(d)):
        problems.append(f"oracle {got} disagrees with the diagram {(index_of(d), max_orbit_dim(d))}")
    if case.full and len(zs) != ideal.n // 2:
        problems.append(f"{len(zs)} invariants for the full algebra, expected {ideal.n // 2}")
    return problems


class Symbolic(Workload):
    name = "symbolic"

    def prepare(self, seed: int, rec) -> dict:
        cases = [Case(0, validate_pattern_ideal(9, []), full=True)]
        for n in (9, 10, 11):
            for ideal in rec.call("core.ideals", random_ideals, n, SYMBOLIC_PER_N, SYMBOLIC_PANEL_SEED):
                cases.append(Case(len(cases), ideal))
        return {"seed": seed, "cases": cases}

    def batch(self, inputs, rec, tally, stats) -> None:
        for case in inputs["cases"]:
            seed = counter_rand(inputs["seed"], 0x5B, case.position)

            def operation(case=case, seed=seed):
                d = rec.call("diagram.build_diagram", build_diagram, case.ideal, ideal=case.label)
                zs = invariants_of(rec, stats, d, True, case.label)
                return symbolic_checks(rec, stats, case, d, zs, seed)

            tally.run(case.label, operation)


# --- oracle-large: rank oracle and orbit moves past the enumeration limit ---

LARGE_NS = (12, 16, 20)
LARGE_PER_N = 3


def rational_form(ideal, rng: random.Random) -> LinearForm:
    algebra = QuotientAlgebra.from_ideal(ideal)
    values = {p: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for p in algebra.basis}
    return LinearForm.from_dict(algebra, values)


def large_checks(rec, stats, case: Case, d, seed: int) -> list[str]:
    ideal, label = case.ideal, case.label
    problems = []
    got = rec.call("oracle.index_oracle", index_oracle, ideal, 2, 1000, seed, ideal=label)
    if got != (index_of(d), max_orbit_dim(d)):
        problems.append(f"oracle {got} disagrees with the diagram {(index_of(d), max_orbit_dim(d))}")
    g = rec.call("core.random_unipotent", random_unipotent, ideal.n, 5, seed, ideal=label)
    moved = rec.call("core.coadjoint_act", coadjoint_act, g, case.form, ideal, ideal=label)
    before = rank_of(rec, stats, case.form, ideal, label)
    after = rank_of(rec, stats, moved, ideal, label)
    if before != after:
        problems.append(f"rank {before} changed to {after} along the orbit")
    return problems


class OracleLarge(Workload):
    name = "oracle-large"

    def prepare(self, seed: int, rec) -> dict:
        rng = random.Random(f"forms:{seed}")
        cases = []
        for n in LARGE_NS:
            drawn = rec.call("core.ideals", random_ideals, n, LARGE_PER_N, seed)
            for ideal in [validate_pattern_ideal(n, []), *drawn]:
                cases.append(Case(len(cases), ideal, form=rational_form(ideal, rng)))
        return {"seed": seed, "cases": cases}

    def batch(self, inputs, rec, tally, stats) -> None:
        for case in inputs["cases"]:
            seed = counter_rand(inputs["seed"], 0x1A7, case.position)

            def operation(case=case, seed=seed):
                d = rec.call("diagram.build_diagram", build_diagram, case.ideal, ideal=case.label)
                return large_checks(rec, stats, case, d, seed)

            tally.run(case.label, operation)


# --- cli: one closed-loop client running fresh `python -m orbitdiag` --------

EXAMPLE = "7: 5,1; 6,1; 7,1; 7,2"
EXAMPLE_GOLDEN = ROOT / "tests" / "data" / "n7_example_final.txt"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv: list[str], timeout: float = 170.0) -> tuple[int, bytes, float, float]:
    """Run one child to completion: (exit code, stdout, seconds, peak RSS in MB).

    The child's stderr passes through; its stdout is drained with a
    selector so that no thread is needed, and `wait4` reports the child's
    own peak RSS.  A child still running after `timeout` seconds is killed
    and reports the negative exit code of the signal.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT, env=child_env())
    chunks = []
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        while selector.get_map():
            if not selector.select(max(0.0, timeout - (time.perf_counter() - start))):
                proc.kill()
                break
            data = os.read(proc.stdout.fileno(), 1 << 16)
            if data:
                chunks.append(data)
            else:
                selector.unregister(proc.stdout)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, b"".join(chunks), time.perf_counter() - start, usage.ru_maxrss / 1024


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    form: tuple | None = None

    def argv(self, form_file: str | None) -> list[str]:
        args = [*self.args, form_file] if self.form is not None else list(self.args)
        return [sys.executable, "-m", "orbitdiag", *args]

    def option(self, name: str) -> str:
        return self.args[self.args.index(name) + 1]


# 55 commands a batch with the worked example; a run's two batches give
# p90 eleven samples beyond it.
CLI_KINDS = (
    ["diagram"] * 10 + ["diagram-json"] * 11 + ["index"] * 11
    + ["invariants"] * 10 + ["orbit-dim"] * 10 + ["verify"] * 2
)
CLI_SIZES = {"diagram": (6, 12), "diagram-json": (6, 8), "index": (6, 12), "invariants": (7, 8), "orbit-dim": (6, 12)}


def cli_commands(rng: random.Random, rec) -> list[Command]:
    """One batch: the n=7 worked example, then a shuffled seeded mix."""
    kinds = list(CLI_KINDS)
    rng.shuffle(kinds)
    commands = [Command(("diagram", "--ideal", EXAMPLE))]
    for kind in kinds:
        draw = rng.randrange(1 << 30)
        if kind == "verify":
            commands.append(Command(("verify", "--max-n", "4", "--seed", str(draw))))
            continue
        ideal = rec.call("core.ideals", random_ideals, rng.randint(*CLI_SIZES[kind]), 1, draw)[0]
        spec = ideal_label(ideal)
        if kind == "diagram":
            commands.append(Command(("diagram", "--ideal", spec)))
        elif kind == "diagram-json":
            commands.append(Command(("diagram", "--ideal", spec, "--json")))
        elif kind == "index":
            commands.append(Command(("index", "--ideal", spec, "--oracle", "--trials", "2", "--seed", str(draw))))
        elif kind == "invariants":
            commands.append(Command(("invariants", "--ideal", spec, "--check")))
        else:
            form = rational_form(ideal, rng)
            commands.append(Command(("orbit-dim", "--ideal", spec, "--form"), form.values))
    return commands


def cli_expected(rec, stats, command: Command) -> str:
    """The stdout the command should print, from library calls in-process.

    Untraced this is the composite library call; traced, the calls one
    level down (a `verify` then yields only its verdict line, compared
    against the child's report).
    """
    args = command.args
    if args[0] == "verify":
        seed = int(command.option("--seed"))
        if rec.enabled:
            total, problems = verify_problems(rec, stats, 4, 5, seed, 1000)
            return f"passed={not problems} ideals_checked={total}"
        report, _ = run_verify(4, 5, seed, 1000)
        return json.dumps(report, indent=2) + "\n"
    ideal = rec.call("cli.parse_ideal_spec", lambda: parse_ideal_spec(command.option("--ideal")).to_ideal())
    label = ideal_label(ideal)
    d = rec.call("diagram.build_diagram", build_diagram, ideal, ideal=label)
    if args[0] == "diagram" and "--json" in args:
        zs = invariants_of(rec, stats, d, False, label)
        strings = [rec.call("polyring.canonical_string", canonical_string, z, ideal=label) for z in zs]
        return rec.call("cli.emit_json", lambda: emit_json(make_bundle(d, strings))) + "\n"
    if args[0] == "diagram":
        return rec.call("cli.render_diagram", render_diagram, d) + "\n"
    if args[0] == "index":
        trials, seed = int(command.option("--trials")), int(command.option("--seed"))
        index, rank = rec.call("oracle.index_oracle", index_oracle, ideal, trials, 1000, seed, ideal=label)
        return f"index={index_of(d)} oracle={index} rank={rank}\n"
    if args[0] == "invariants":
        zs = invariants_of(rec, stats, d, True, label)
        return "".join(rec.call("polyring.canonical_string", canonical_string, z, ideal=label) + "\n" for z in zs)
    form = LinearForm.from_dict(QuotientAlgebra.from_ideal(ideal), dict(command.form))
    return f"rank={rank_of(rec, stats, form, ideal, label)}\n"


def cli_problems(command: Command, code: int, stdout: str, expected: str, golden: str, verdict_only: bool) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if verdict_only:
        try:
            report = json.loads(stdout)
            got = f"passed={report['passed']} ideals_checked={report['ideals_checked']}"
        except (ValueError, KeyError, TypeError):
            got = "an unreadable report"
        if got != expected:
            problems.append(f"printed {got}, library gives {expected}")
    elif stdout != expected:
        problems.append("stdout differs from the in-process library result")
    if command.args == ("diagram", "--ideal", EXAMPLE) and stdout != golden:
        problems.append("the worked example differs from its golden table")
    return problems


class Cli(Workload):
    name = "cli"

    def prepare(self, seed: int, rec) -> dict:
        rng = random.Random(f"cli:{seed}")
        batches = [cli_commands(rng, rec) for _ in range(2)]
        forms = OUT / "forms" / str(seed)
        forms.mkdir(parents=True, exist_ok=True)
        files = {}
        for commands in batches:
            for command in commands:
                if command.form is not None and command not in files:
                    path = forms / f"{len(files)}.json"
                    path.write_text(json.dumps({f"{p.row},{p.col}": str(v) for p, v in command.form}))
                    files[command] = str(path.relative_to(ROOT))
        golden = EXAMPLE_GOLDEN.read_text(encoding="utf-8")
        return {"batches": batches, "files": files, "golden": golden, "done": 0, "runs": [],
                "latencies": [], "child_rss": 0.0}

    def batch(self, inputs, rec, tally, stats) -> None:
        commands = inputs["batches"][inputs["done"] % len(inputs["batches"])]
        inputs["done"] += 1
        for command in commands:
            with rec.span("cli.command"):
                code, out, seconds, rss = run_child(command.argv(inputs["files"].get(command)))
            inputs["runs"].append((command, code, out.decode("utf-8", "replace"), seconds, rss))

    def check(self, inputs, rec, tally, stats) -> None:
        """Compare each finished command with the library, outside the timing."""
        expected: dict = {}
        for command, code, stdout, seconds, rss in inputs["runs"]:
            def operation():
                if command not in expected:
                    with rec.span("cli.dispatch"):
                        start = time.perf_counter()
                        expected[command] = cli_expected(rec, stats, command)
                        if not rec.enabled:
                            stats.dispatch_s.append((seconds, time.perf_counter() - start))
                verdict_only = rec.enabled and command.args[0] == "verify"
                return cli_problems(command, code, stdout, expected[command], inputs["golden"], verdict_only)

            tally.run(" ".join(command.args[:3]), operation)
        inputs["latencies"] += [run[3] for run in inputs["runs"]]
        inputs["child_rss"] = max(inputs["child_rss"], *(run[4] for run in inputs["runs"]))
        inputs["runs"] = []


WORKLOADS = {w.name: w for w in (Sweep(), Symbolic(), OracleLarge(), Cli())}
