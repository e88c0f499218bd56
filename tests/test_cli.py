"""Exit codes, output formats, and determinism of the command line."""

import itertools
import json

import numpy as np
import pytest

from ncprob import (
    AlternatingWord,
    algebra_from_basis,
    algebra_to_json,
    diagonal_algebra,
    emit_json,
    map_to_json,
    state_from_density,
    suites,
    word_to_json,
)
from ncprob.cli import main
from ncprob.linalg import frob


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify


def test_verify_fast_suite_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "conditional-tensor")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "ncprob/1"
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_verify_single_letters_always_factor(capsys):
    code, out, _ = run_cli(capsys, "verify", "monotone", "--max-word-length", "1")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "nonsense"])
    assert err.value.code == 2


def test_verify_csv_and_text_formats(capsys):
    code, out, _ = run_cli(capsys, "verify", "conditional-tensor", "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "name,residual,tolerance,passed,detail"
    assert all(",yes," in row for row in rows)

    code, out, _ = run_cli(capsys, "verify", "conditional-tensor", "--format", "text")
    assert code == 0
    assert "all" in out and "checks passed" in out


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "algebra", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["suite"] == "algebra"


def test_verify_rejects_bad_counts(capsys):
    code, _, err = run_cli(capsys, "verify", "algebra", "--trials", "0")
    assert code == 2
    assert "trials" in err


@pytest.mark.parametrize("suite", ["white-noise", "all"])
def test_verify_increment_suites_reject_horizon_one(capsys, monkeypatch, suite):
    # horizon 1 leaves no room for a past and a future window; the run must
    # stop before any suite runs, naming the flag and not a window it derived
    ran = []

    def recorder(name):
        def suite_function(config):
            ran.append(name)
            return []

        return suite_function

    for name in list(suites._SUITE_FUNCTIONS):
        monkeypatch.setitem(suites._SUITE_FUNCTIONS, name, recorder(name))
    code, out, err = run_cli(capsys, "verify", suite, "--horizon", "1")
    assert code == 2
    assert out == ""
    assert "--horizon must be at least 2" in err
    assert ran == []


@pytest.mark.parametrize("suite", ["dilation", "markov"])
def test_verify_dilation_runs_at_horizon_one(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", suite, "--horizon", "1")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["config"]["horizon"] == 1


# ---------------------------------------------------------------------------
# seeds


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_verify_rejects_non_finite_tolerance(capsys, value):
    # an infinite tolerance would pass every check, a NaN one would fail all
    code, out, err = run_cli(capsys, "verify", "algebra", "--tolerance", value)
    assert code == 2
    assert out == ""
    assert "tolerance must be a positive finite number" in err


@pytest.mark.parametrize("value", ["1e300", "1e-2"])
def test_verify_rejects_a_tolerance_above_the_bound(capsys, value):
    # a tolerance this loose would let every check pass whatever it computed
    code, out, err = run_cli(capsys, "verify", "algebra", "--tolerance", value)
    assert code == 2
    assert out == ""
    assert "tolerance must be at most 1e-3" in err


def test_verify_accepts_the_tolerance_bound_itself(capsys):
    code, out, _ = run_cli(capsys, "verify", "algebra", "--tolerance", "1e-3")
    assert code == 0
    assert json.loads(out)["config"]["tolerance"] == 1e-3


def _nan_frob(monkeypatch):
    # every Frobenius norm in the suites after the first one is NaN
    calls = itertools.count()
    monkeypatch.setattr(suites, "frob", lambda m: frob(m) if next(calls) == 0 else float("nan"))


def test_nan_residual_is_a_numerical_failure(capsys, monkeypatch):
    _nan_frob(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "module")
    assert code == 1
    report = json.loads(out)
    rows = {c["name"]: c for c in report["checks"]}
    assert rows["module/gns-representation"]["residual"] is None
    assert rows["module/gns-representation"]["passed"] is False
    assert report["passed"] is False
    assert "FAIL module/gns-representation: residual nan" in err


def test_nan_residual_in_a_demo_table_is_written_as_null(capsys, monkeypatch):
    _nan_frob(monkeypatch)
    code, out, err = run_cli(capsys, "demo", "coins")
    assert code == 1
    report = json.loads(out)
    assert report["tables"][0]["rows"][1][-1] is None
    assert "FAIL conditional-expectation-factorizes: residual nan" in err


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_nan_residual_prints_as_nan(capsys, monkeypatch, fmt):
    _nan_frob(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "module", "--format", fmt)
    assert code == 1
    [line] = [l for l in out.splitlines() if "gns-representation" in l]
    assert ("module/gns-representation,nan," if fmt == "csv" else "FAIL  module/gns-representation: residual nan") in line
    assert "FAIL module/gns-representation" in err


def test_env_seed_applies_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("NCPROB_SEED", "7")
    code, out, _ = run_cli(capsys, "verify", "algebra")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 7

    code, out, _ = run_cli(capsys, "verify", "algebra", "--seed", "3")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 3


def test_env_seed_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("NCPROB_SEED", "zebra")
    code, _, err = run_cli(capsys, "verify", "algebra")
    assert code == 2
    assert "NCPROB_SEED" in err


# ---------------------------------------------------------------------------
# demos


def test_demo_two_time(capsys):
    code, out, _ = run_cli(capsys, "demo", "two-time")
    assert code == 0
    report = json.loads(out)
    assert report["demo"] == "two-time"
    titles = [t["title"] for t in report["tables"]]
    assert any("reversed" in t for t in titles)


def test_demo_coins_with_custom_biases(capsys):
    code, out, _ = run_cli(capsys, "demo", "coins", "--bias1", "0.6", "--bias2", "0.4")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    # head-head cell given Y=h is bias1*bias2
    table = report["tables"][0]
    first = table["rows"][0]
    assert abs(first[2] - 0.6 * 0.4) < 1e-12


def test_demo_markov_single_step(capsys):
    code, out, _ = run_cli(capsys, "demo", "markov", "--horizon", "1")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["config"]["horizon"] == 1


def test_demo_white_noise_quick(capsys):
    code, out, _ = run_cli(capsys, "demo", "white-noise", "--horizon", "2", "--trials", "20")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    table = report["tables"][0]
    assert table["columns"] == ["windows", "invariance", "worst residual", "words"]
    for windows, invariance, residual, words in table["rows"]:
        assert invariance <= 1e-9 and residual <= 1e-9, windows
        assert words == 20


def test_demo_unknown_name_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["demo", "bogus"])
    assert err.value.code == 2


def test_demo_reports_are_deterministic(capsys):
    code, first, _ = run_cli(capsys, "demo", "coins")
    assert code == 0
    code, second, _ = run_cli(capsys, "demo", "coins")
    assert code == 0
    assert first == second


# ---------------------------------------------------------------------------
# moments


def _scenario_doc(words=None, state2=(0.7, 0.3)):
    alg = diagonal_algebra(2)
    s1 = state_from_density(alg, np.diag([0.5, 0.5]).astype(complex))
    s2 = state_from_density(alg, np.diag(list(state2)).astype(complex))
    doc = {
        "construction": "monotone",
        "space1": {"algebra": algebra_to_json(alg), "functional": map_to_json(s1)},
        "space2": {"algebra": algebra_to_json(alg), "functional": map_to_json(s2)},
    }
    if words is not None:
        doc["words"] = words
    return doc


def _x_word(*legs):
    x = np.diag([1.0, -1.0]).astype(complex)
    return word_to_json(AlternatingWord([(leg, x) for leg in legs]))


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(emit_json(doc) + "\n")
    return str(path)


def test_moments_inline_words(tmp_path, capsys):
    scenario = _write(tmp_path, "scenario.json", _scenario_doc(words=[_x_word(1, 2, 1)]))
    code, out, _ = run_cli(capsys, "moments", scenario)
    assert code == 0
    report = json.loads(out)
    assert report["construction"] == "monotone"
    [row] = report["moments"]
    # phi2(x) * phi1(x^2) = 0.4
    assert abs(row["realization"][0] - 0.4) < 1e-12
    assert row["residual"] <= 1e-9


def test_moments_words_file_wins_over_inline(tmp_path, capsys):
    scenario = _write(tmp_path, "scenario.json", _scenario_doc(words=[_x_word(1)]))
    words = _write(
        tmp_path, "words.json", {"words": [_x_word(2, 1, 2, 1, 2), _x_word(2, 1, 2)]}
    )
    code, out, _ = run_cli(capsys, "moments", scenario, words)
    assert code == 0
    report = json.loads(out)
    assert len(report["moments"]) == 2
    # phi2(x)^3 * phi1(x^2) = 0.064
    assert abs(report["moments"][0]["realization"][0] - 0.064) < 1e-12


def test_moments_empty_words_is_an_empty_table(tmp_path, capsys):
    scenario = _write(tmp_path, "scenario.json", _scenario_doc(words=[]))
    code, out, _ = run_cli(capsys, "moments", scenario)
    assert code == 0
    assert json.loads(out)["moments"] == []


def test_moments_ragged_matrix_reports_pointer(tmp_path, capsys):
    doc = _scenario_doc(words=[])
    doc["space1"]["algebra"]["basis"][0] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]
    scenario = _write(tmp_path, "scenario.json", doc)
    code, _, err = run_cli(capsys, "moments", scenario)
    assert code == 2
    assert "/space1/algebra/basis/0/1" in err


def test_moments_wrong_letter_shape_reports_pointer(tmp_path, capsys):
    word = {"letters": [{"leg": 1, "element": [[[1.0, 0.0]]]}]}
    scenario = _write(tmp_path, "scenario.json", _scenario_doc(words=[word]))
    code, _, err = run_cli(capsys, "moments", scenario)
    assert code == 2
    assert "/words/0/letters/0/element" in err


def test_moments_letter_outside_its_leg_algebra_is_a_usage_error(tmp_path, capsys):
    # the right shape, but off the diagonal: the input check names the
    # letter by its word and its place in that word
    off = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    x = np.diag([1.0, -1.0]).astype(complex)
    word = word_to_json(AlternatingWord([(1, off), (2, x)]))
    scenario = _write(tmp_path, "scenario.json", _scenario_doc(words=[_x_word(1, 2), word]))
    code, out, err = run_cli(capsys, "moments", scenario)
    assert code == 2
    assert out == ""
    assert "letter is not in the algebra of leg 1" in err
    assert "(at /words/1/letters/0/element)" in err


def test_moments_names_the_first_letter_off_its_algebra_in_file_order(tmp_path, capsys):
    # a bad leg-2 letter in word 0 comes before a bad leg-1 letter in word 1,
    # though leg 1's letters are tested first
    off = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    x = np.diag([1.0, -1.0]).astype(complex)
    words = [
        word_to_json(AlternatingWord([(1, x), (2, off)])),
        word_to_json(AlternatingWord([(1, off), (2, x)])),
    ]
    scenario = _write(tmp_path, "scenario.json", _scenario_doc(words=words))
    code, out, err = run_cli(capsys, "moments", scenario)
    assert code == 2
    assert out == ""
    assert "letter is not in the algebra of leg 2" in err
    assert "(at /words/0/letters/1/element)" in err


def test_moments_accepts_a_letter_within_the_guard_of_its_algebra(tmp_path, capsys):
    # off the diagonal by far less than the guard tolerance: the input check
    # lets the letter through, as the realization's own guard does
    x = np.diag([1.0, -1.0]).astype(complex)
    near = x + 1e-12 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    word = word_to_json(AlternatingWord([(1, near), (2, x), (1, near)]))
    scenario = _write(tmp_path, "scenario.json", _scenario_doc(words=[word, _x_word(1, 2, 1)]))
    code, out, err = run_cli(capsys, "moments", scenario)
    assert code == 0, err
    near_row, exact_row = json.loads(out)["moments"]
    # phi2(x) * phi1(x^2) = 0.4
    assert abs(near_row["realization"][0] - exact_row["realization"][0]) <= 1e-9
    assert abs(exact_row["realization"][0] - 0.4) <= 1e-12


def test_moments_unnormalized_state_fails_verification(tmp_path, capsys):
    doc = _scenario_doc(words=[_x_word(1)])
    # a "state" that maps the unit to 0.9: rejected before any moments
    doc["space2"]["functional"]["matrix"] = [[[0.6, 0.0], [0.3, 0.0]]]
    scenario = _write(tmp_path, "scenario.json", doc)
    code, _, err = run_cli(capsys, "moments", scenario)
    assert code == 1
    assert "space2" in err


def test_moments_nan_state_density_is_malformed_input(tmp_path, capsys):
    doc = _scenario_doc(words=[_x_word(1)])
    doc["space2"]["functional"]["matrix"][0][1] = [12345.5, 0.0]
    path = tmp_path / "scenario.json"
    path.write_text(emit_json(doc).replace("12345.5", "NaN") + "\n")
    code, out, err = run_cli(capsys, "moments", str(path))
    assert code == 2
    assert out == ""
    assert "non-finite number NaN" in err
    assert "/space2/functional/matrix/0/1/0" in err


@pytest.mark.parametrize(
    "where, pointer",
    [("state", "/space2/functional/matrix/0/1"), ("letter", "/words/1/letters/2/element/1/1")],
)
def test_moments_out_of_range_number_is_malformed_input(tmp_path, capsys, where, pointer):
    # 1e309 parses to inf, past the loader's NaN/Infinity hook; the matrix
    # decoders refuse it at its cell, before any moment is computed
    doc = _scenario_doc(words=[_x_word(1, 2), _x_word(2, 1, 2)])
    if where == "state":
        doc["space2"]["functional"]["matrix"][0][1] = [12345.5, 0.0]
    else:
        doc["words"][1]["letters"][2]["element"][1][1] = [12345.5, 0.0]
    path = tmp_path / "scenario.json"
    path.write_text(emit_json(doc).replace("12345.5", "1e309") + "\n")
    code, out, err = run_cli(capsys, "moments", str(path))
    assert code == 2
    assert out == ""
    assert err.strip().endswith(f"expected a [re, im] pair of finite numbers (at {pointer})")


def test_moments_domain_not_closed_under_adjoints_is_malformed_input(tmp_path, capsys):
    # upper-triangular 2x2 matrices with the trace state: no GNS module exists
    doc = _scenario_doc(words=[_x_word(1)])
    upper = np.zeros((3, 2, 2), dtype=complex)
    upper[0, 0, 0] = upper[1, 0, 1] = upper[2, 1, 1] = 1.0
    alg = algebra_from_basis(upper)
    doc["space1"] = {
        "algebra": algebra_to_json(alg),
        "functional": map_to_json(state_from_density(alg, np.eye(2) / 2)),
    }
    code, out, err = run_cli(capsys, "moments", _write(tmp_path, "scenario.json", doc))
    assert code == 2
    assert out == ""
    assert "not in the domain span" in err


def test_moments_missing_file(capsys):
    code, _, err = run_cli(capsys, "moments", "/nonexistent/scenario.json")
    assert code == 2
    assert "cannot read" in err
