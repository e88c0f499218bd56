"""One check-row type: every report row is a check copied as it was decided.

Suites and demos build their rows through :class:`VerificationReport`, so a
row carries the tolerance and verdict of the check that produced it and
nothing downstream decides it again.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ncprob.algebra_core import VerificationReport
from ncprob.demos import demo_coins
from ncprob.dilation import markov_scenario
from ncprob.suites import RunConfig, run_suite, suite_conditional_tensor, suite_markov

GOLDEN = Path(__file__).parent / "data" / "verify_all_seed7_rows.json"


def _rows(config: RunConfig) -> list:
    return [[r["name"], r["tolerance"], r["passed"]] for r in run_suite("all", config)["checks"]]


def test_verify_all_rows_match_the_golden_table():
    # pins every check name, the order, and the tolerance each was decided at
    assert _rows(RunConfig(seed=7)) == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed, horizon", [(42, 3), (2003, 3), (7, 4)])
def test_verify_all_rows_match_the_golden_table_at_other_seeds_and_horizons(seed, horizon):
    # the table does not depend on the seed or the horizon
    assert _rows(RunConfig(seed=seed, horizon=horizon)) == json.loads(GOLDEN.read_text())


def test_extend_copies_checks_as_decided():
    inner = VerificationReport()
    inner.add("exact", 0.0, 0.0)
    inner.add("loose", 5e-10, 1e-9, "why")
    inner.add("failed", 1.0, 1e-9)
    outer = VerificationReport()
    outer.extend("p", inner)
    assert outer.rows() == [
        {"name": "p:exact", "residual": 0.0, "tolerance": 0.0, "passed": True, "detail": ""},
        {"name": "p:loose", "residual": 5e-10, "tolerance": 1e-9, "passed": True, "detail": "why"},
        {"name": "p:failed", "residual": 1.0, "tolerance": 1e-9, "passed": False, "detail": ""},
    ]
    assert [c.name for c in inner.checks] == ["exact", "loose", "failed"]


def test_suite_row_keeps_the_tolerance_of_its_verify_check():
    # a config tolerance other than the shift's fixed bound shows which one a row carries
    config = RunConfig(seed=7, tolerance=1e-8)
    model = markov_scenario(np.array([[0.5, 0.5], [0.3, 0.7]]), config.horizon, config.budget)
    checks = model.verify(tol=config.tolerance, seed=config.seed, trials=min(config.trials, 40)).checks
    rows = {r["name"]: r for r in suite_markov(config)}
    for c in checks:
        row = rows[f"chain:{c.name}"]
        assert (row["residual"], row["tolerance"], row["passed"], row["detail"]) == (
            c.residual, c.tolerance, c.passed, c.detail,
        )
    assert rows["chain:shift-preserves-inner-products"]["tolerance"] == 1e-10
    assert rows["chain:path-space-agreement"]["tolerance"] == 1e-8


def test_coins_suite_and_demo_report_equal_residuals():
    config = RunConfig(seed=7)
    suite = {r["name"]: r["residual"] for r in suite_conditional_tensor(config)}
    demo = demo_coins(config)
    rows = {r["name"]: r["residual"] for r in demo["checks"]}
    shared = {
        "expectation-factorizes": "conditional-expectation-factorizes",
        "classical-oracle-agrees": "eight-outcome-enumeration-agrees",
        "base-insertion-identity": "base-insertion-identity",
    }
    for suite_name, demo_name in shared.items():
        assert suite[suite_name] == rows[demo_name], suite_name
    table = demo["tables"][0]["rows"]
    assert len(table) == 16
    assert max(row[-1] for row in table) == rows["conditional-expectation-factorizes"]
