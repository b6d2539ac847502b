import ast
from pathlib import Path

from orbitdiag import Pair, Polynomial, build_diagram, build_invariants, validate_pattern_ideal
from spans import NullRecorder
from workloads import Case, Stats, Tally, rational_form, large_checks, symbolic_checks

import random


def symbolic_case(n, members=()):
    ideal = validate_pattern_ideal(n, members)
    d = build_diagram(ideal)
    return Case(0, ideal, full=not members), d, build_invariants(d, check=True)


def test_correct_results_pass():
    case, d, zs = symbolic_case(5)
    assert symbolic_checks(NullRecorder(), Stats(), case, d, zs, seed=3) == []


def test_a_moved_invariant_is_counted():
    case, d, zs = symbolic_case(5)
    moved = zs[:-1] + [zs[-1] + Polynomial.variable(Pair(2, 1))]
    tally = Tally()
    tally.run("moved", lambda: symbolic_checks(NullRecorder(), Stats(), case, d, moved, seed=3))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "moved" in tally.problems[0]


def test_a_wrong_index_is_counted():
    case, _, zs = symbolic_case(5)
    wrong = build_diagram(validate_pattern_ideal(5, [(5, 1)]))
    problems = symbolic_checks(NullRecorder(), Stats(), case, wrong, zs, seed=3)
    assert any("disagrees with the diagram" in p for p in problems)
    ideal = validate_pattern_ideal(6, [])
    large = Case(0, ideal, full=True, form=rational_form(ideal, random.Random(1)))
    problems = large_checks(NullRecorder(), Stats(), large, wrong, seed=3)
    assert any("disagrees with the diagram" in p for p in problems)


def test_an_exception_fails_one_operation_and_the_run_goes_on():
    tally = Tally()
    tally.run("raises", lambda: 1 / 0)
    tally.run("passes", lambda: [])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "ZeroDivisionError" in tally.problems[0]


def test_no_check_is_an_assert():
    # `python -O` strips asserts, so the benchmark's checks must be comparisons.
    bench = Path(__file__).resolve().parent.parent
    for path in bench.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def test_a_traced_sweep_goes_on_past_an_exception(monkeypatch):
    import workloads
    from orbitdiag import enumerate_pattern_ideals
    from spans import Recorder

    def broken(*args, **kwargs):
        raise RuntimeError("broken oracle")

    monkeypatch.setattr(workloads, "invariance_oracle", broken)
    total, problems = workloads.verify_problems(Recorder(), Stats(), 4, 2, 1, 1000)
    expected = sum(len(list(enumerate_pattern_ideals(n))) for n in range(2, 5))
    assert total == expected
    assert len(problems) == expected
    assert all("broken oracle" in p for p in problems)
