"""A NaN residual must fail its row, never vanish into a running maximum.

Python's ``max(0.0, nan)`` is ``0.0``: a ``worst = max(worst, r)`` loop
silently drops a NaN that arrives after a finite value.  These tests make
the Frobenius norm of a module return NaN after its first call, so that each
accumulator sees a finite value first and a NaN later, and check that every
accumulated row fails.
"""

import itertools

import numpy as np
import pytest

from ncprob import dilation, hilbert_module, suites
from ncprob.algebra_core import CheckResult, VerificationReport
from ncprob.dilation import IncrementReport, dilate_discrete, random_unital_cp
from ncprob.independence import IndependenceReport, WordResult
from ncprob.linalg import frob, residual_max

NAN = float("nan")


def nan_after_first_call(monkeypatch, module):
    calls = itertools.count()
    monkeypatch.setattr(module, "frob", lambda m: frob(m) if next(calls) == 0 else NAN)


def test_residual_max_propagates_nan():
    assert residual_max() == 0.0
    assert residual_max(-3.0) == 0.0
    assert residual_max(1e-3, 2e-3) == 2e-3
    assert np.isnan(residual_max(0.0, NAN))
    assert np.isnan(residual_max(NAN, 1.0))
    assert np.isnan(residual_max(1.0, NAN, 5.0))


def test_report_maxima_propagate_nan():
    report = VerificationReport([CheckResult("a", 0.0, True), CheckResult("b", NAN, False)])
    assert np.isnan(report.worst_residual)
    words = IndependenceReport([WordResult(1, [1], 0.0), WordResult(2, [1, 2], NAN)])
    assert np.isnan(words.max_residual) and not words.passed
    inc = IncrementReport("white-noise", 0.0, [1e-16, NAN], 1e-9, (0, 1), (1, 2), 1)
    assert np.isnan(inc.max_residual) and not inc.passed


def test_nan_residual_fails_verify_dilation(monkeypatch):
    scenario = dilate_discrete(random_unital_cp(2, np.random.default_rng(0)), 3)
    nan_after_first_call(monkeypatch, dilation)
    report = dilation.verify_dilation(scenario)
    assert {c.name for c in report.checks} >= {"semigroup-recovery", "theta-multiplicative"}
    for check in report.checks:
        assert np.isnan(check.residual) and not check.passed, check.name


def test_nan_residual_fails_verify_module(monkeypatch):
    module = hilbert_module.gns_construct(random_unital_cp(2, np.random.default_rng(1)))
    nan_after_first_call(monkeypatch, hilbert_module)
    rows = {c.name: c for c in hilbert_module.verify_module(module).checks}
    for name in ("left-action-multiplicative", "left-action-star", "unit-vector-normalized"):
        assert np.isnan(rows[name].residual) and not rows[name].passed, name


def test_nan_residual_fails_a_suite(monkeypatch):
    nan_after_first_call(monkeypatch, suites)
    rows = {r["name"]: r for r in suites.suite_module(suites.RunConfig(seed=7))}
    for name in ("gns-representation", "quotient-preserves-moments"):
        assert np.isnan(rows[name]["residual"]) and rows[name]["passed"] is False, name


@pytest.mark.parametrize("value", [NAN, float("inf")])
def test_non_finite_tolerance_is_rejected(value):
    with pytest.raises(ValueError, match="finite"):
        suites.RunConfig(tolerance=value).validate()
