"""Command-line front end: diagrams, indices, invariants, verification.

Commands

    diagram    render the filled table (or emit the whole result as JSON)
    index      number of crosses, optionally cross-checked by the oracle
    invariants canonical polynomial strings, optionally fully checked
    orbit-dim  generic orbit dimension, or the rank at one explicit form
    verify     run the property suite over many ideals and report JSON

Exit status: 0 success, 1 a check failed, 2 bad input.  All randomized
commands are deterministic in --seed (default 0).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import NamedTuple

from .core import (
    ConsistencyError,
    LinearForm,
    MissingCoordinateError,
    Pair,
    PatternIdeal,
    QuotientAlgebra,
    counter_rand,
    enumerate_pattern_ideals,
    order_gt,
    sample_pattern_ideals,
    succ_key,
    validate_pattern_ideal,
)
from .diagram import (
    Diagram,
    b_set,
    build_diagram,
    check_closure,
    d_minus,
    dominating_ideal,
    index_of,
    max_orbit_dim,
)

__all__ = [
    "IdealSpec",
    "IdealSyntaxError",
    "MAX_SIZE",
    "parse_ideal_spec",
    "render_diagram",
    "make_bundle",
    "emit_json",
    "run_verify",
    "dispatch",
    "main",
]


# The largest matrix size an ideal spec may name.  The diagram and the oracle's
# skew form of ut(n) have n(n-1)/2 cells and rows: an unbounded size would run
# without end, while `index --ideal "200:"` already takes a fifth of a second.
MAX_SIZE = 100


class IdealSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class IdealSpec(NamedTuple):
    n: int
    pairs: tuple[Pair, ...]

    def to_ideal(self) -> PatternIdeal:
        return validate_pattern_ideal(self.n, self.pairs)


def parse_ideal_spec(text: str) -> IdealSpec:
    """Parse "n: i,j; i,j; ..." — "n:" alone means the empty ideal."""
    colon = text.find(":")
    if colon < 0:
        raise IdealSyntaxError("expected ':' after the matrix size", len(text))
    head = text[:colon].strip()
    try:
        n = int(head) if head.isdecimal() else 0
    except ValueError:  # int() refuses a size over its digit limit
        raise IdealSyntaxError("matrix size has too many digits", 0) from None
    if n < 1:
        raise IdealSyntaxError("matrix size must be a positive integer", 0)
    if n > MAX_SIZE:
        raise IdealSyntaxError(f"matrix size must be at most {MAX_SIZE}", 0)
    pairs = []
    offset = colon + 1
    body = text[colon + 1 :]
    if body.strip():
        for segment in body.split(";"):
            entry = segment.strip()
            start = offset + len(segment) - len(segment.lstrip())
            parts = entry.split(",")
            if len(parts) != 2 or not all(p.strip().isdecimal() for p in parts):
                raise IdealSyntaxError("expected a pair like 'i,j'", start)
            try:
                pairs.append(Pair(int(parts[0]), int(parts[1])))
            except ValueError:  # int() refuses a coordinate over its digit limit
                raise IdealSyntaxError("pair coordinate has too many digits", start) from None
            offset += len(segment) + 1
    return IdealSpec(n, tuple(pairs))


# One mark string per style: bullet, cross, minus, plus.
_SYMBOLS = {"ascii": "*X-+", "unicode": "•⊗-+"}


def _table_lines(d: Diagram, marks: str, upto: int | None) -> list[str]:
    """Each cell's mark is read off the step that filled it: step 0 is a bullet;
    step i's cross sits at xi_i, its minuses share xi_i's row and its pluses do not."""
    lines = []
    for row in range(1, d.n + 1):
        cells = []
        for col in range(1, row):
            i = d.cells.get(Pair(row, col))
            if i is None or (upto is not None and i > upto):
                cells.append(".")
            elif i == 0:
                cells.append(marks[0])
            else:
                xi = d.steps[i - 1].xi
                cells.append(marks[1 if (row, col) == xi else 2 if row == xi.row else 3])
        lines.append(" ".join(cells))
    return lines


def render_diagram(d: Diagram, style: str = "ascii", steps: bool = False) -> str:
    """The filled table, one line per row, columns 1..row-1 of each row.

    With steps=True the intermediate tables (state after steps 0..s-1,
    unfilled cells shown as ".") are appended below the final one.
    """
    marks = _SYMBOLS[style]
    lines = _table_lines(d, marks, None)
    if steps:
        for i in range(d.s):
            lines.append("")
            lines.append(f"after step {i}:")
            lines.extend(_table_lines(d, marks, i))
    return "\n".join(lines)


def _pair_list(pairs) -> list[list[int]]:
    return [[p.row, p.col] for p in pairs]


def make_bundle(d: Diagram, invariant_strings: list[str], oracle: dict | None = None) -> dict:
    """The JSON document for one ideal, read off its diagram.

    oracle, when given, is {"index", "generic_rank", "trials", "seed"}.
    """
    index, orbit_dim = index_of(d), max_orbit_dim(d)
    if index + orbit_dim != d.ideal.dim_quotient:
        raise ConsistencyError("index plus orbit dimension must equal dim L")
    doc = {
        "n": d.n,
        "ideal": _pair_list(sorted(d.ideal.members, key=succ_key)),
        "S": _pair_list(d.xi_list),
        "C_plus": _pair_list(d.pluses),
        "C_minus": _pair_list(d.minuses),
        "steps": [
            {
                "xi": [rec.xi.row, rec.xi.col],
                "p": rec.p,
                "minus": _pair_list(rec.minus),
                "plus": _pair_list(rec.plus),
            }
            for rec in d.steps
        ],
        "index": index,
        "max_orbit_dim": orbit_dim,
        "invariants": list(invariant_strings),
    }
    if oracle is not None:
        doc["oracle"] = oracle
    return doc


def emit_json(doc: dict) -> str:
    import json

    return json.dumps(doc, indent=2)


def _ideal_label(ideal: PatternIdeal) -> str:
    body = "; ".join(f"{p.row},{p.col}" for p in sorted(ideal.members, key=succ_key))
    return f"{ideal.n}: {body}" if body else f"{ideal.n}:"


def _structural_problem(d: Diagram) -> str | None:
    ideal = d.ideal
    if index_of(d) + max_orbit_dim(d) != ideal.dim_quotient:
        return "index plus orbit dimension misses dim L"
    if max_orbit_dim(d) % 2:
        return "orbit dimension is odd"
    for i, rec in enumerate(d.steps, start=1):
        if len(rec.minus) != len(rec.plus):
            return f"step {i}: plus and minus counts differ"
    for earlier, later in zip(d.xi_list, d.xi_list[1:]):
        if not order_gt(earlier, later):
            return "cross chain is not strictly decreasing"
    for i in range(d.s + 1):
        if not check_closure(b_set(d, i), ideal):
            return f"unfilled set after step {i} is not closed"
        if i >= 1 and not check_closure(d_minus(d, i), dominating_ideal(d, i)):
            return f"minus family at step {i} is not closed above the cross"
    return None


def run_verify(max_n: int, trials: int, seed: int, bound: int) -> tuple[dict, bool]:
    """Check every property we know how to state, over many ideals.

    Exhaustive over pattern ideals for n <= 6, a 25-ideal sample for n in
    {7, 8}, each size built when reached; max_n runs over 2..8.  Symbolic
    checks (centrality, shape, step-by-step relations) run for n <= 5, the
    numeric oracles everywhere.  Every failure string starts with "<ideal>
    [seed S]", so `index --oracle --seed S --ideal "<ideal>"` with the same
    trials and bound replays the agreement check.  Returns (report,
    all_passed) with a deterministic report layout.
    """
    if not 2 <= max_n <= 8:
        raise ValueError(f"max_n must be between 2 and 8, got {max_n}")
    from . import invariants as invariants_mod, oracle as oracle_mod

    names = ("diagram_oracle_agreement", "structural", "symbolic", "invariance", "independence")
    checks = {name: {"checked": 0, "failures": []} for name in names}

    def outcomes(n, ideal, d, case_seed):
        """(check, None) as a check starts, (check, problem) as it fails."""
        index, orbit_dim = index_of(d), max_orbit_dim(d)
        yield "structural", None
        problem = _structural_problem(d)
        if problem:
            yield "structural", problem
        yield "diagram_oracle_agreement", None
        oracle_index, oracle_rank = oracle_mod.index_oracle(ideal, trials, bound, case_seed)
        if (oracle_index, oracle_rank) != (index, orbit_dim):
            yield "diagram_oracle_agreement", (
                f"diagram ({index}, {orbit_dim}) vs oracle ({oracle_index}, {oracle_rank})"
            )
        running = "symbolic"  # the check an exception is filed under
        try:
            if n <= 5:
                yield "symbolic", None
                state = invariants_mod.initial_state(d)
                for i in range(1, d.s + 1):
                    report = invariants_mod.verify_relations(state, d, i)
                    if not report.passed:
                        yield "symbolic", f"step {i}: {report.counterexample}"
                    state = report.state
                # the last step's report has shown every z central: only the shape is left
                zs = list(state.z_list)
                for idx, z in enumerate(zs, start=1):
                    invariants_mod.triangular_decompose(z, d.steps[idx - 1].xi, zs[: idx - 1])
            else:
                zs = invariants_mod.build_invariants(d, check=False)
            running = "invariance"
            yield running, None
            if not oracle_mod.invariance_oracle(zs, ideal, trials, case_seed):
                yield "invariance", "an invariant moved under the coadjoint action"
            running = "independence"
            yield running, None
            jrank = oracle_mod.generic_jacobian_rank(zs, ideal, case_seed, bound)
            if jrank != len(zs):
                yield "independence", f"jacobian rank {jrank}, expected {len(zs)}"
        except Exception as exc:  # noqa: BLE001 -- a bad invariant must fail the run, not kill it
            yield running, repr(exc)

    total = 0
    for n in range(2, max_n + 1):
        ideals = enumerate_pattern_ideals(n) if n <= 6 else sample_pattern_ideals(n, 25, seed)
        for position, ideal in enumerate(ideals):
            total += 1
            case_seed = counter_rand(seed, 0x1D, n, position)
            for name, problem in outcomes(n, ideal, build_diagram(ideal), case_seed):
                if problem is None:
                    checks[name]["checked"] += 1
                else:
                    checks[name]["failures"].append(f"{_ideal_label(ideal)} [seed {case_seed}]: {problem}")
    passed = all(not block["failures"] for block in checks.values())
    report = {
        "max_n": max_n,
        "trials": trials,
        "seed": seed,
        "bound": bound,
        "ideals_checked": total,
        "checks": checks,
        "passed": passed,
    }
    return report, passed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitdiag",
        description="Diagrams, index and coadjoint invariants of quotients of "
        "the strictly lower-triangular matrix algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_ideal(p):
        p.add_argument(
            "--ideal",
            required=True,
            help="pattern ideal, e.g. \"7: 5,1; 6,1; 7,1; 7,2\" (- reads stdin)",
        )

    def with_oracle_knobs(p):
        p.add_argument("--trials", type=int, default=5)
        p.add_argument("--bound", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("diagram", help="render the filled diagram")
    with_ideal(p)
    p.add_argument("--style", choices=sorted(_SYMBOLS), default="ascii")
    p.add_argument("--steps", action="store_true", help="append intermediate tables")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--oracle", action="store_true", help="include an oracle report in the JSON")
    with_oracle_knobs(p)

    p = sub.add_parser("index", help="number of crosses = index of the algebra")
    with_ideal(p)
    p.add_argument("--oracle", action="store_true", help="cross-check against random-form ranks")
    with_oracle_knobs(p)

    p = sub.add_parser("invariants", help="canonical strings of the invariants")
    with_ideal(p)
    p.add_argument("--check", action="store_true", help="run centrality and shape checks")

    p = sub.add_parser("orbit-dim", help="maximal orbit dimension, or rank at a form")
    with_ideal(p)
    p.add_argument("--form", help="JSON file {\"i,j\": \"num/den\"} of form values")

    p = sub.add_parser("verify", help="run the property suite and print a JSON report")
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    with_oracle_knobs(p)
    return parser


def _ideal_text(value: str) -> str:
    return sys.stdin.read() if value == "-" else value


def _load_form(path: str, ideal: PatternIdeal) -> LinearForm:
    import json

    with open(path, encoding="utf-8") as handle:
        # objects load as (key, value) tuples, so a repeated key stays visible;
        # numbers stay text, so Fraction reads each literal exactly and one
        # over int()'s digit limit fails at its key
        raw = json.load(handle, object_pairs_hook=tuple, parse_int=str, parse_float=str)
    if not isinstance(raw, tuple):
        raise ValueError('form file must hold one JSON object of "row,col": value entries')
    values = {}
    for key, value in raw:
        parts = key.split(",")
        if len(parts) != 2 or not all(p.strip().removeprefix("-").isdecimal() for p in parts):
            raise ValueError(f"bad coordinate key {key!r} in form file")
        try:
            pair = Pair(int(parts[0]), int(parts[1]))
        except ValueError:  # int() refuses a coordinate over its digit limit
            raise ValueError(f"coordinate key {key!r} has too many digits in form file") from None
        if pair in values:
            raise ValueError(f"key {key!r} repeats coordinate {pair.row},{pair.col} in form file")
        text = str(value)
        try:
            # Fraction builds the power 10**e of an exponent e, which takes
            # seconds at e = 10**7: past int()'s digit limit (0 is none) it is bad input
            exponent = text.lower().partition("e")[2]
            if exponent and abs(int(exponent)) > sys.get_int_max_str_digits() > 0:
                raise ValueError
            values[pair] = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad value {value!r} for key {key!r} in form file") from None
    return LinearForm.from_dict(QuotientAlgebra.from_ideal(ideal), values)


def _oracle(ideal: PatternIdeal, args) -> tuple[int, int]:
    from . import oracle as oracle_mod

    return oracle_mod.index_oracle(ideal, args.trials, args.bound, args.seed)


def _invariant_strings(d: Diagram, check: bool) -> list[str]:
    from . import invariants as invariants_mod
    from .polyring import canonical_string

    return [canonical_string(z) for z in invariants_mod.build_invariants(d, check=check)]


def _run(args) -> int:
    # Each branch imports what only it uses, so that a plain `diagram` or
    # `index` process starts without loading invariants, oracle or polyring.
    if args.command == "verify":
        report, passed = run_verify(args.max_n, args.trials, args.seed, args.bound)
        print(emit_json(report))
        return 0 if passed else 1
    ideal = parse_ideal_spec(_ideal_text(args.ideal)).to_ideal()
    d = build_diagram(ideal)
    if args.command == "diagram":
        if args.oracle and not args.as_json:
            raise ValueError("--oracle only adds a report to the JSON; add --json")
        if args.as_json:
            # the oracle first: it refuses bad knobs before a walk that can run long
            oracle_report = None
            if args.oracle:
                oracle_index, oracle_rank = _oracle(ideal, args)
                oracle_report = {
                    "index": oracle_index,
                    "generic_rank": oracle_rank,
                    "trials": args.trials,
                    "seed": args.seed,
                }
            print(emit_json(make_bundle(d, _invariant_strings(d, check=False), oracle_report)))
        else:
            print(render_diagram(d, args.style, steps=args.steps))
        return 0
    if args.command == "index":
        value = index_of(d)
        if args.oracle:
            oracle_index, oracle_rank = _oracle(ideal, args)
            print(f"index={value} oracle={oracle_index} rank={oracle_rank}")
            return 0 if oracle_index == value else 1
        print(f"index={value}")
        return 0
    if args.command == "invariants":
        for line in _invariant_strings(d, check=args.check):
            print(line)
        return 0
    if args.command == "orbit-dim":
        if args.form is not None:
            from . import oracle as oracle_mod

            f = _load_form(args.form, ideal)
            rank = oracle_mod.exact_rank(oracle_mod.skew_form_matrix(f, ideal))
            print(f"rank={rank}")
        else:
            print(f"max_orbit_dim={max_orbit_dim(d)}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def dispatch(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except ConsistencyError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (MissingCoordinateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
