"""Command-line layer: spec parsing, rendering, JSON bundles, exit codes."""

import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from orbitdiag import cli as cli_mod
from orbitdiag import invariants as invariants_mod
from orbitdiag import oracle as oracle_mod
from orbitdiag.cli import (
    MAX_SIZE,
    IdealSpec,
    IdealSyntaxError,
    dispatch,
    emit_json,
    make_bundle,
    parse_ideal_spec,
    render_diagram,
    run_verify,
)
from orbitdiag.core import (
    ConsistencyError,
    NotAnIdealError,
    Pair,
    enumerate_pattern_ideals,
    validate_pattern_ideal,
)
from orbitdiag.diagram import Diagram, build_diagram
from orbitdiag.invariants import CentralityError
from orbitdiag.polyring import Polynomial, canonical_string

DATA = Path(__file__).parent / "data"
EXAMPLE_SPEC = "7: 5,1; 6,1; 7,1; 7,2"


def example_diagram():
    return build_diagram(validate_pattern_ideal(7, [(5, 1), (6, 1), (7, 1), (7, 2)]))


# --- parsing the ideal argument ------------------------------------------------


def test_parse_ideal_spec():
    spec = parse_ideal_spec(EXAMPLE_SPEC)
    assert spec.n == 7
    assert spec.pairs == (Pair(5, 1), Pair(6, 1), Pair(7, 1), Pair(7, 2))
    assert parse_ideal_spec("3:") == IdealSpec(3, ())
    assert parse_ideal_spec("  4 : 4,1 ") == IdealSpec(4, (Pair(4, 1),))
    # the size cap, also with a leading zero
    assert parse_ideal_spec(f"{MAX_SIZE}:") == IdealSpec(MAX_SIZE, ())
    assert parse_ideal_spec(f"0{MAX_SIZE}: 3,1") == IdealSpec(MAX_SIZE, (Pair(3, 1),))


def test_parse_ideal_spec_errors():
    cases = [
        ("no colon", 8),
        ("x: 2,1", 0),
        ("0:", 0),
        ("3: 2", 3),
        ("3: a,b", 3),
        ("3: 2,1; x", 8),
        # digits that int() refuses are syntax errors with a position, not bare int() failures
        ("²:", 0),
        ("4: ²,1", 3),
        ("4: 4,¹", 3),
        # a coordinate too long for int() is refused at its pair
        ("7: 2,1; " + "9" * 5000 + ",1", 8),
        ("7: 2," + "9" * 5000, 3),
        # sizes above the cap, including one too long for int()
        (f"{MAX_SIZE + 1}:", 0),
        ("1000:", 0),
        ("9" * 5000 + ":", 0),
        # a size padded with zeros past int()'s digit limit, in and out of range
        ("0" * 5000 + "7:", 0),
        ("0" * 5000 + ":", 0),
    ]
    for text, position in cases:
        with pytest.raises(IdealSyntaxError) as info:
            parse_ideal_spec(text)
        assert info.value.position == position


def test_spec_to_ideal_validates():
    assert parse_ideal_spec("3:").to_ideal() == validate_pattern_ideal(3, [])
    with pytest.raises(NotAnIdealError):
        parse_ideal_spec("7: 6,2").to_ideal()


# --- rendering -------------------------------------------------------------------


def test_render_matches_golden():
    want = (DATA / "n7_example_final.txt").read_text()
    assert render_diagram(example_diagram()) + "\n" == want


def test_render_steps_matches_golden():
    want = (DATA / "n7_example_steps.txt").read_text()
    assert render_diagram(example_diagram(), steps=True) + "\n" == want


def test_render_unicode_style():
    text = render_diagram(example_diagram(), style="unicode")
    assert "⊗" in text and "•" in text
    assert "X" not in text and "*" not in text
    assert text.splitlines()[3] == "⊗ - -"


def test_render_tiny():
    d = build_diagram(validate_pattern_ideal(3, [(2, 1), (3, 1), (3, 2)]))
    assert render_diagram(d) == "\n*\n* *"


def test_every_table_up_to_n7_is_pinned():
    # every ideal with n <= 7, in both styles, with and without the step tables
    digest = hashlib.sha256()
    for n in range(1, 8):
        for ideal in enumerate_pattern_ideals(n):
            d = build_diagram(ideal)
            for style in ("ascii", "unicode"):
                for steps in (False, True):
                    digest.update(render_diagram(d, style, steps).encode() + b"\0")
    assert digest.hexdigest() == "1ad4591362b7e4256a5770f288827932a95f1789b7e43ad19973ebf410e86b1c"


# --- result bundles ------------------------------------------------------------------


def bundle_with_oracle():
    d = example_diagram()
    strings = [canonical_string(z) for z in invariants_mod.build_invariants(d)]
    oracle = {"index": 5, "generic_rank": 12, "trials": 5, "seed": 42}
    return make_bundle(d, strings, oracle)


def test_bundle_fields():
    b = bundle_with_oracle()
    assert b["n"] == 7
    assert b["index"] == 5
    assert b["max_orbit_dim"] == 12
    assert b["S"][0] == [4, 1]
    assert len(b["steps"]) == 5
    assert b["steps"][0]["p"] == 5
    assert b["invariants"][0] == "y[4,1]"


def test_bundle_rejects_inconsistent_counts():
    d = example_diagram()
    short = Diagram(d.ideal, d.cells, d.steps[:-1])
    with pytest.raises(ConsistencyError):
        make_bundle(short, [])


def test_json_layout():
    doc = json.loads(emit_json(bundle_with_oracle()))
    assert list(doc) == [
        "n", "ideal", "S", "C_plus", "C_minus", "steps",
        "index", "max_orbit_dim", "invariants", "oracle",
    ]
    assert doc["ideal"] == [[7, 1], [6, 1], [5, 1], [7, 2]]
    assert doc["S"][0] == [4, 1]
    assert doc["oracle"] == {"index": 5, "generic_rank": 12, "trials": 5, "seed": 42}
    without = json.loads(emit_json(make_bundle(example_diagram(), [])))
    assert "oracle" not in without


# --- the verify driver ------------------------------------------------------------------


def test_run_verify_small():
    report, passed = run_verify(3, 2, 0, 50)
    assert passed
    assert report["ideals_checked"] == 7
    assert set(report["checks"]) == {
        "diagram_oracle_agreement", "structural", "symbolic",
        "invariance", "independence",
    }
    for block in report["checks"].values():
        assert block["failures"] == []
    assert report["passed"] is True


def test_run_verify_is_deterministic():
    first = run_verify(4, 2, 9, 40)
    second = run_verify(4, 2, 9, 40)
    assert json.dumps(first[0]) == json.dumps(second[0])


def test_run_verify_walks_each_symbolic_ideal_once(monkeypatch):
    # only the relation checks walk, and their reports carry each step forward
    calls = []
    step = invariants_mod.theta_step

    def counted(*args):
        calls.append(args[2])
        return step(*args)

    monkeypatch.setattr(invariants_mod, "theta_step", counted)
    run_verify(5, 5, 1, 1000)
    steps = sum(build_diagram(ideal).s for n in range(2, 6) for ideal in enumerate_pattern_ideals(n))
    assert len(calls) == steps == 127


def test_run_verify_flags_corrupted_invariants(monkeypatch):
    # each step's table is replaced by the bare pivot variables: they have the
    # staircase shape, but y[3,1] is no invariant of ut(4)
    step = invariants_mod.theta_step

    def corrupted(prev, d, i):
        pivots = tuple(Polynomial.variable(rec.xi) for rec in d.steps[:i])
        return step(prev, d, i)._replace(z_list=pivots)

    monkeypatch.setattr(invariants_mod, "theta_step", corrupted)
    report, passed = run_verify(4, 5, 0, 50)
    assert not passed
    assert report["checks"]["invariance"]["failures"]


def test_run_verify_survives_a_crashing_builder(monkeypatch):
    def explode(prev, d, i):
        raise RuntimeError("boom")

    monkeypatch.setattr(invariants_mod, "theta_step", explode)
    report, passed = run_verify(2, 2, 0, 50)
    assert not passed
    assert any("boom" in f for f in report["checks"]["symbolic"]["failures"])


@pytest.mark.parametrize(
    "check, oracle", [("invariance", "invariance_oracle"), ("independence", "generic_jacobian_rank")]
)
def test_run_verify_files_a_raising_oracle_under_its_own_check(monkeypatch, check, oracle):
    def explode(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(oracle_mod, oracle, explode)
    report, passed = run_verify(6, 2, 1, 1000)
    assert not passed
    checks = report["checks"]
    assert checks[check]["checked"] == len(checks[check]["failures"]) == 195
    assert all(f.endswith(": RuntimeError('boom')") for f in checks[check]["failures"])
    assert (checks["symbolic"]["checked"], checks["symbolic"]["failures"]) == (63, [])
    assert not any(block["failures"] for name, block in checks.items() if name != check)


def test_verify_failures_name_their_case_seed(monkeypatch):
    calls = []

    def disagree(ideal, trials, bound, seed):
        calls.append((ideal, trials, bound, seed))
        return -1, -1

    monkeypatch.setattr(oracle_mod, "index_oracle", disagree)
    monkeypatch.setattr(oracle_mod, "invariance_oracle", lambda zs, ideal, trials, seed: False)
    report, passed = run_verify(3, 2, 0, 50)
    assert not passed
    agreement = report["checks"]["diagram_oracle_agreement"]["failures"]
    invariance = report["checks"]["invariance"]["failures"]
    assert len(agreement) == len(invariance) == len(calls) == 7
    for (ideal, trials, bound, seed), first, second in zip(list(calls), agreement, invariance):
        match = re.fullmatch(r"(.*) \[seed (\d+)\]: diagram .*", first)
        label, case_seed = match.group(1), int(match.group(2))
        assert case_seed == seed
        assert second.startswith(f"{label} [seed {seed}]: ")
        # the label and seed alone replay the same oracle call
        assert dispatch([
            "index", "--oracle", "--trials", str(trials), "--bound", str(bound),
            "--seed", str(case_seed), "--ideal", label,
        ]) == 1
        assert calls[-1] == (ideal, trials, bound, seed)


# --- dispatch and exit codes ----------------------------------------------------------------


def test_index_with_oracle(capsys):
    code = dispatch([
        "index", "--ideal", EXAMPLE_SPEC, "--oracle",
        "--trials", "5", "--bound", "1000", "--seed", "42",
    ])
    assert code == 0
    assert capsys.readouterr().out == "index=5 oracle=5 rank=12\n"


def test_index_plain(capsys):
    assert dispatch(["index", "--ideal", "3:"]) == 0
    assert capsys.readouterr().out == "index=1\n"


def test_diagram_command_prints_the_golden(capsys):
    assert dispatch(["diagram", "--ideal", EXAMPLE_SPEC]) == 0
    assert capsys.readouterr().out == (DATA / "n7_example_final.txt").read_text()


def test_diagram_json_prints_the_golden(capsys):
    argv = ["diagram", "--ideal", EXAMPLE_SPEC, "--json", "--oracle", "--seed", "42"]
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == (DATA / "n7_example_bundle.json").read_text()


def test_diagram_oracle_needs_json(capsys):
    assert dispatch(["diagram", "--ideal", EXAMPLE_SPEC, "--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--json" in captured.err


def test_diagram_oracle_refuses_bad_knobs_before_the_walk(capsys, monkeypatch):
    walked = []
    monkeypatch.setattr(invariants_mod, "build_invariants", lambda d, check=False: walked.append(d))
    assert dispatch(["diagram", "--ideal", "4:", "--json", "--oracle", "--trials", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert walked == []


def test_diagram_json(capsys):
    assert dispatch(["diagram", "--ideal", EXAMPLE_SPEC, "--json", "--oracle",
                     "--trials", "3", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["index"] == 5
    assert doc["max_orbit_dim"] == 12
    assert doc["oracle"]["index"] == 5
    assert len(doc["invariants"]) == 5


def test_invariants_command(capsys):
    assert dispatch(["invariants", "--ideal", "4:", "--check"]) == 0
    assert capsys.readouterr().out == "y[4,1]\ny[3,2]*y[4,1] - y[3,1]*y[4,2]\n"


def test_orbit_dim_command(capsys):
    assert dispatch(["orbit-dim", "--ideal", EXAMPLE_SPEC]) == 0
    assert capsys.readouterr().out == "max_orbit_dim=12\n"


def test_orbit_dim_at_a_form(capsys, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"3,1": "1", "2,1": "0", "3,2": 0}))
    assert dispatch(["orbit-dim", "--ideal", "3:", "--form", str(path)]) == 0
    assert capsys.readouterr().out == "rank=2\n"


def test_orbit_dim_rejects_bad_form_keys(capsys, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"banana": "1"}))
    assert dispatch(["orbit-dim", "--ideal", "3:", "--form", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_orbit_dim_names_a_form_value_on_the_ideal(capsys, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"5,1": "1/2"}))
    assert dispatch(["orbit-dim", "--ideal", EXAMPLE_SPEC, "--form", str(path)]) == 2
    assert capsys.readouterr().err == "error: pair (5, 1) lies in the ideal, where every form vanishes\n"


def test_orbit_dim_reads_a_tiny_form_number_as_nonzero(capsys, tmp_path):
    # a float literal is read from its own text, not rounded through a binary float
    path = tmp_path / "form.json"
    path.write_text('{"3,1": 1e-400}')
    assert dispatch(["orbit-dim", "--ideal", "3:", "--form", str(path)]) == 0
    assert capsys.readouterr().out == "rank=2\n"


@pytest.mark.parametrize(
    "literal, value",
    [
        ("0.30000000000000000001", Fraction(30000000000000000001, 10**20)),
        ("1e400", 10**400),
        ('"1e-5"', Fraction(1, 100000)),
        ("-7", -7),
        ('"-3/6"', Fraction(-1, 2)),
    ],
    ids=["long-decimal", "past-float-range", "exponent-in-a-string", "int", "ratio"],
)
def test_form_numbers_load_exactly(tmp_path, literal, value):
    path = tmp_path / "form.json"
    path.write_text('{"3,1": %s}' % literal)
    assert cli_mod._load_form(str(path), validate_pattern_ideal(3, [])).lookup == {Pair(3, 1): value}


@pytest.mark.parametrize("literal", ['"1e999999999"', "1e999999999", '"-1E-999999999"'])
def test_orbit_dim_refuses_a_form_exponent_past_the_digit_limit_at_once(capsys, tmp_path, literal):
    # first in a child process under a timeout: without the bound, Fraction
    # would spend far longer building the power of ten than the suite can wait
    path = tmp_path / "form.json"
    path.write_text('{"3,1": %s}' % literal)
    argv = ["orbit-dim", "--ideal", "3:", "--form", str(path)]
    result = subprocess.run(
        [sys.executable, "-m", "orbitdiag", *argv], capture_output=True, text=True, check=False, timeout=20
    )
    assert result.returncode == 2
    assert "for key '3,1' in form file" in result.stderr
    start = time.perf_counter()
    assert dispatch(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == result.stderr


@pytest.mark.parametrize(
    "text, named",
    [
        ("[1, 2]", "JSON object"),
        ('{"2,1": "1/0"}', "'2,1'"),
        ('{"2,1": 1, "2,1 ": 2}', "'2,1 '"),
        ('{"2,1": 1, "2,1": 2}', "'2,1'"),
        # digits that int() refuses make a bad key, not a bare int() failure
        ('{"²,1": 1}', "bad coordinate key '²,1'"),
        ('{"2,-¹": 1}', "bad coordinate key '2,-¹'"),
        pytest.param(
            '{"' + "9" * 5000 + ',1": 1}', "coordinate key '" + "9" * 5000 + ",1' has too many digits",
            id="key-over-the-digit-limit",
        ),
        pytest.param(
            '{"2,1": ' + "9" * 5000 + "}", "for key '2,1' in form file", id="value-over-the-digit-limit"
        ),
        # one sign at most: a doubled one is a bad key, not an int() failure
        ('{"--2,1": 1}', "bad coordinate key '--2,1' in form file"),
        ('{"2,--1": 1}', "bad coordinate key '2,--1' in form file"),
    ],
)
def test_orbit_dim_rejects_bad_form_files(capsys, tmp_path, text, named):
    path = tmp_path / "form.json"
    path.write_text(text)
    assert dispatch(["orbit-dim", "--ideal", "3:", "--form", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


def test_stdin_ideal(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("4: 4,1"))
    assert dispatch(["index", "--ideal", "-"]) == 0
    assert capsys.readouterr().out == "index=3\n"


def test_bad_input_exits_2(capsys):
    assert dispatch(["index", "--ideal", "7: 6,2"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert dispatch(["index", "--ideal", "gibberish"]) == 2
    assert dispatch(["diagram", "--ideal", "0:"]) == 2  # size out of range
    capsys.readouterr()
    # the parser refuses the size itself, so the message carries a position
    assert dispatch(["index", "--ideal", "0:"]) == 2
    assert capsys.readouterr().err.rstrip("\n").endswith("(at position 0)")
    assert dispatch(["index", "--ideal", f"{MAX_SIZE + 1}:"]) == 2
    assert capsys.readouterr().err == f"error: matrix size must be at most {MAX_SIZE} (at position 0)\n"
    # a coordinate int() refuses is bad input at its pair, not Python's own message
    assert dispatch(["index", "--ideal", "7: " + "9" * 5000 + ",1"]) == 2
    assert capsys.readouterr().err == "error: pair coordinate has too many digits (at position 3)\n"
    assert dispatch(["index", "--ideal", "0" * 5000 + "7:"]) == 2
    assert capsys.readouterr().err == "error: matrix size has too many digits (at position 0)\n"


def test_argparse_failures_exit_2(capsys):
    assert dispatch([]) == 2
    assert dispatch(["diagram"]) == 2
    assert dispatch(["diagram", "--ideal", "3:", "--style", "bold"]) == 2
    capsys.readouterr()


def test_failed_check_exits_1(capsys, monkeypatch):
    def refuse(d, check=False):
        raise CentralityError("an invariant fails to commute")

    monkeypatch.setattr(invariants_mod, "build_invariants", refuse)
    assert dispatch(["invariants", "--ideal", "4:", "--check"]) == 1
    assert capsys.readouterr().err.startswith("check failed:")


def test_consistency_error_exits_1(capsys, monkeypatch):
    def broken(d, check=False):
        raise ConsistencyError("a survivor is out of place")

    monkeypatch.setattr(invariants_mod, "build_invariants", broken)
    assert dispatch(["invariants", "--ideal", "4:"]) == 1
    assert capsys.readouterr().err.startswith("check failed:")


def test_index_oracle_disagreement_exits_1(capsys, monkeypatch):
    from orbitdiag import oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "index_oracle", lambda *a, **k: (99, 0))
    assert dispatch(["index", "--ideal", "3:", "--oracle"]) == 1
    assert capsys.readouterr().out == "index=1 oracle=99 rank=0\n"


def test_verify_command(capsys):
    assert dispatch(["verify", "--max-n", "3", "--trials", "2", "--bound", "50"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["ideals_checked"] == 7


@pytest.mark.parametrize(
    "seed, expected", [("0", "4c198c6a3a9244f7"), ("1", "32fb0300bcebc126")]
)
def test_verify_report_is_pinned(capsys, seed, expected):
    # sha256 prefix of the whole report, sampled sizes included, as tests/test_streams.py pins streams
    assert dispatch(["verify", "--max-n", "8", "--seed", seed]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()[:16]) == (486, expected)


@pytest.mark.parametrize("max_n", ["1", "-3", "9"])
def test_verify_refuses_an_unsupported_max_n_before_any_check(capsys, monkeypatch, max_n):
    checked = []
    monkeypatch.setattr(cli_mod, "build_diagram", checked.append)
    assert dispatch(["verify", f"--max-n={max_n}", "--trials", "1"]) == 2
    out, err = capsys.readouterr()
    assert (out, checked) == ("", [])
    assert err.startswith("error:") and "max_n" in err


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "orbitdiag", "index", "--ideal", "3:"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout == "index=1\n"


# Run in a fresh interpreter: the modules loaded beyond its own start-up.
LOADED_BY = """
import sys
baseline = set(sys.modules)
from orbitdiag.cli import dispatch
code = dispatch(sys.argv[1:])
print(code, *sorted(set(sys.modules) - baseline))
"""


@pytest.mark.parametrize(
    "argv, needed, not_loaded",
    [
        (
            ["diagram", "--ideal", EXAMPLE_SPEC],
            {"orbitdiag.diagram"},
            {"orbitdiag.invariants", "orbitdiag.oracle", "orbitdiag.polyring", "json", "logging"},
        ),
        (
            ["index", "--ideal", EXAMPLE_SPEC, "--oracle"],
            {"orbitdiag.oracle"},
            {"orbitdiag.invariants", "orbitdiag.polyring", "json", "logging"},
        ),
        (["invariants", "--ideal", EXAMPLE_SPEC, "--check"], {"orbitdiag.invariants"}, {"orbitdiag.oracle"}),
    ],
    ids=["diagram", "index-oracle", "invariants-check"],
)
def test_each_command_loads_only_what_it_uses(argv, needed, not_loaded):
    result = subprocess.run(
        [sys.executable, "-c", LOADED_BY, *argv], capture_output=True, text=True, check=False
    )
    code, *loaded = result.stdout.splitlines()[-1].split()
    assert code == "0"
    assert needed <= set(loaded)
    assert not_loaded & set(loaded) == set()


def test_optimized_interpreter_keeps_outputs_and_checks():
    # `python -O` strips assert statements; the report and the typed checks must not change
    result = subprocess.run(
        [sys.executable, "-O", "-m", "orbitdiag", "verify", "--max-n", "5", "--seed", "1"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout == json.dumps(run_verify(5, 5, 1, 1000)[0], indent=2) + "\n"
    wrong_pivot = (
        "from orbitdiag.core import ConsistencyError, Pair\n"
        "from orbitdiag.polyring import LocalizedElement, Polynomial, loc_divide\n"
        "y21, y31 = (LocalizedElement(Polynomial.variable(Pair(r, 1))) for r in (2, 3))\n"
        "try:\n"
        "    loc_divide(y31, y21, (y31.num,))\n"
        "except ConsistencyError:\n"
        "    print('raised')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", wrong_pivot], capture_output=True, text=True, check=False
    )
    assert result.returncode == 0
    assert result.stdout == "raised\n"


# --- README examples ---------------------------------------------------------------


README_BLOCKS = re.findall(
    r"^```(\w*)\n(.*?)^```$",
    (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"),
    re.M | re.S,
)
README_COMMANDS = [body for lang, body in README_BLOCKS if body.startswith("$ orbitdiag ")]


def test_readme_shows_three_commands_and_one_library_snippet():
    assert len(README_COMMANDS) == 3
    assert [lang for lang, _ in README_BLOCKS].count("python") == 1


@pytest.mark.parametrize("block", README_COMMANDS, ids=lambda block: block.split()[2])
def test_readme_command_prints_what_readme_shows(block, capsys):
    command, _, shown = block.partition("\n")
    assert dispatch(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == shown


def test_readme_library_snippet_runs(capsys):
    (code,) = [body for lang, body in README_BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("['y[4,1]', ")
