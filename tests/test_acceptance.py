"""Acceptance gate: the worked n=7 example plus the exhaustive/sampled suites.

Each test prints one "criterion N: PASS/FAIL" line (straight to the
terminal, bypassing capture) so a full run reads as a checklist.
"""

import json
from pathlib import Path

import pytest

from orbitdiag.core import (
    counter_rand,
    enumerate_pattern_ideals,
    sample_pattern_ideals,
    validate_pattern_ideal,
)
from orbitdiag.diagram import (
    b_set,
    build_diagram,
    check_closure,
    d_minus,
    dominating_ideal,
    index_of,
    max_orbit_dim,
)
from orbitdiag.core import order_gt
from orbitdiag.invariants import (
    build_invariants,
    initial_state,
    triangular_decompose,
    verify_centrality,
    verify_relations,
)
from orbitdiag.oracle import generic_jacobian_rank, index_oracle, invariance_oracle
from orbitdiag.cli import render_diagram, run_verify

DATA = Path(__file__).parent / "data"
SAMPLE_SEED = 20240814
CASE_SEED = 11
TRIALS = 5
BOUND = 1000


def case_seed(n, position):
    return counter_rand(CASE_SEED, n, position)


@pytest.fixture(scope="module")
def example7():
    return build_diagram(validate_pattern_ideal(7, [(5, 1), (6, 1), (7, 1), (7, 2)]))


@pytest.fixture(scope="module")
def suite():
    """All ideals under test: exhaustive for n <= 6, 200 samples for n = 7, 8."""
    out = {}
    for n in range(2, 7):
        out[n] = list(enumerate_pattern_ideals(n))
    for n in (7, 8):
        out[n] = sample_pattern_ideals(n, 200, SAMPLE_SEED)
    return out


@pytest.fixture(scope="module")
def diagrams(suite):
    return {n: [build_diagram(ideal) for ideal in ideals] for n, ideals in suite.items()}


@pytest.fixture(scope="module")
def invariant_lists(diagrams):
    return {
        n: [build_invariants(d, check=False) for d in ds]
        for n, ds in diagrams.items()
    }


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_worked_example(example7, capsys):
    problems = []
    final = (DATA / "n7_example_final.txt").read_text()
    if render_diagram(example7) + "\n" != final:
        problems.append("final table differs from the golden file")
    stepwise = (DATA / "n7_example_steps.txt").read_text()
    if render_diagram(example7, steps=True) + "\n" != stepwise:
        problems.append("step tables differ from the golden file")
    if [tuple(xi) for xi in example7.xi_list] != [(4, 1), (6, 2), (7, 3), (7, 4), (5, 4)]:
        problems.append(f"cross chain is {example7.xi_list}")
    minus_by_step = [set(map(tuple, rec.minus)) for rec in example7.steps]
    if minus_by_step != [
        {(4, 2), (4, 3)},
        {(6, 3), (6, 5)},
        {(7, 5)},
        {(7, 6)},
        set(),
    ]:
        problems.append(f"per-step minus sets are {minus_by_step}")
    families = [set(map(tuple, d_minus(example7, i))) for i in range(1, 6)]
    if families != [
        {(4, 2), (4, 3)},
        {(4, 2), (4, 3), (6, 3), (6, 5)},
        {(4, 3), (6, 3), (6, 5), (7, 5)},
        {(6, 5), (7, 5), (7, 6)},
        {(6, 5), (7, 5), (7, 6)},
    ]:
        problems.append(f"minus families are {families}")
    announce(
        capsys, 1, not problems,
        "; ".join(problems) or "n=7 worked example reproduced cell-for-cell",
    )


def test_criterion_2_exhaustive_agreement(suite, diagrams, capsys):
    mismatches = 0
    checked = 0
    for n in range(2, 7):
        for position, (ideal, d) in enumerate(zip(suite[n], diagrams[n])):
            got_index, got_rank = index_oracle(ideal, TRIALS, BOUND, case_seed(n, position))
            checked += 1
            if got_index != index_of(d) or got_rank != max_orbit_dim(d):
                mismatches += 1
    announce(
        capsys, 2, mismatches == 0,
        f"diagram vs oracle on all {checked} ideals with n <= 6, {mismatches} mismatches",
    )


def test_criterion_3_sampled_agreement(suite, diagrams, capsys):
    mismatches = 0
    checked = 0
    for n in (7, 8):
        for position, (ideal, d) in enumerate(zip(suite[n], diagrams[n])):
            got_index, got_rank = index_oracle(ideal, TRIALS, BOUND, case_seed(n, position))
            checked += 1
            if got_index != index_of(d) or got_rank != max_orbit_dim(d):
                mismatches += 1
    announce(
        capsys, 3, mismatches == 0,
        f"diagram vs oracle on {checked} sampled ideals with n in {{7, 8}}, "
        f"{mismatches} mismatches",
    )


def test_criterion_4_unitriangular_index(capsys):
    bad = []
    for n in range(2, 9):
        ideal = validate_pattern_ideal(n, [])
        d = build_diagram(ideal)
        got_index, _ = index_oracle(ideal, TRIALS, BOUND, case_seed(n, 999))
        if index_of(d) != n // 2 or got_index != n // 2:
            bad.append(n)
    announce(
        capsys, 4, not bad,
        f"index of the full algebra is floor(n/2) for n = 2..8 (failures: {bad or 'none'})",
    )


def test_criterion_5_symbolic_suite(suite, diagrams, example7, capsys):
    failures = []
    cases = [(d, f"n={n} #{k}") for n in range(2, 6)
             for k, d in enumerate(diagrams[n])]
    cases.append((example7, "n=7 example"))
    for d, label in cases:
        try:
            zs = build_invariants(d, check=True)  # centrality + triangular shape
            for z, xi in zip(zs, d.xi_list):
                if not verify_centrality(z, d.ideal):
                    failures.append(f"{label}: non-central invariant")
                triangular_decompose(z, xi, zs[: zs.index(z)])
            state = initial_state(d)
            for i in range(1, d.s + 1):
                report = verify_relations(state, d, i)
                if not report.passed:
                    failures.append(f"{label}: step {i}: {report.counterexample}")
                state = report.state
        except Exception as exc:  # noqa: BLE001 -- gate must report, not crash
            failures.append(f"{label}: {exc!r}")
    announce(
        capsys, 5, not failures,
        "; ".join(failures[:3]) or
        f"centrality, triangular shape and step relations hold on all "
        f"{len(cases)} symbolic cases",
    )


def test_criterion_6_invariance(suite, diagrams, invariant_lists, example7, capsys):
    failures = 0
    checked = 0
    for n in range(2, 8):
        for position, (ideal, zs) in enumerate(zip(suite[n], invariant_lists[n])):
            checked += 1
            if not invariance_oracle(zs, ideal, 20, case_seed(n, position)):
                failures += 1
    checked += 1
    if not invariance_oracle(build_invariants(example7), example7.ideal, 20, case_seed(7, 555)):
        failures += 1
    announce(
        capsys, 6, failures == 0,
        f"all invariants constant on 20 coadjoint moves for each of {checked} ideals "
        f"with n <= 7, {failures} failures",
    )


def test_criterion_7_independence(suite, invariant_lists, capsys):
    failures = 0
    checked = 0
    for n in range(2, 9):
        for position, (ideal, zs) in enumerate(zip(suite[n], invariant_lists[n])):
            checked += 1
            if generic_jacobian_rank(zs, ideal, case_seed(n, position)) != len(zs):
                failures += 1
    announce(
        capsys, 7, failures == 0,
        f"Jacobian rank equals the invariant count on all {checked} tested ideals, "
        f"{failures} failures",
    )


def test_criterion_8_structural(diagrams, capsys):
    failures = []
    checked = 0
    for n, ds in diagrams.items():
        for k, d in enumerate(ds):
            checked += 1
            label = f"n={n} #{k}"
            if len(d.pluses) != len(d.minuses):
                failures.append(f"{label}: plus/minus totals differ")
            if any(len(rec.plus) != len(rec.minus) for rec in d.steps):
                failures.append(f"{label}: a step pairs unevenly")
            if index_of(d) + max_orbit_dim(d) != d.ideal.dim_quotient:
                failures.append(f"{label}: index + orbit dim misses dim L")
            if max_orbit_dim(d) % 2:
                failures.append(f"{label}: odd orbit dimension")
            if any(
                not order_gt(a, b) for a, b in zip(d.xi_list, d.xi_list[1:])
            ):
                failures.append(f"{label}: cross chain not strictly decreasing")
            for i in range(d.s + 1):
                if not check_closure(b_set(d, i), d.ideal):
                    failures.append(f"{label}: unfilled set not closed after step {i}")
                if i and not check_closure(d_minus(d, i), dominating_ideal(d, i)):
                    failures.append(f"{label}: minus family not closed at step {i}")
    announce(
        capsys, 8, not failures,
        "; ".join(failures[:3]) or
        f"pairing, dimension count, parity, chain order and closure hold on all "
        f"{checked} diagrams",
    )


def test_criterion_9_determinism(capsys):
    first, first_ok = run_verify(5, TRIALS, 1, BOUND)
    second, second_ok = run_verify(5, TRIALS, 1, BOUND)
    same = json.dumps(first, indent=2) == json.dumps(second, indent=2)
    announce(
        capsys, 9, same and first_ok and second_ok,
        "verify(max_n=5, seed=1) passes and its JSON report is byte-identical "
        "across two runs",
    )
