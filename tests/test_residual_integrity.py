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
from ncprob.algebra_core import (
    CheckResult,
    MapKind,
    MatrixStarAlgebra,
    PositiveMap,
    StructuralError,
    VerificationReport,
    cp_from_stochastic,
    diagonal_algebra,
    diagonal_compression,
    full_matrix_algebra,
    identity_map,
    map_from_images,
    normalized_trace_state,
    state_from_density,
)
from ncprob.dilation import (
    dilate_discrete,
    random_unital_cp,
    scalar_fiber,
    white_noise_increment_check,
    white_noise_scenario,
)
from ncprob.hilbert_module import gns_construct
from ncprob.independence import (
    AlternatingWord,
    QuantumProbabilitySpace,
    conditional_monotone_moment_formulas,
    monotone_moment_formula,
    monotone_moment_formulas,
    monotone_realize,
    tensor_moment_formulas,
    verify_independence,
)
from ncprob.linalg import GUARD_TOL, exceeds, frob, residual_max

NAN = float("nan")


def worst_residual(report):
    return residual_max(*(c.residual for c in report.checks))


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


def test_report_maxima_propagate_nan(monkeypatch):
    report = VerificationReport([CheckResult("a", 0.0, 1e-9, True), CheckResult("b", NAN, 1e-9, False)])
    assert np.isnan(worst_residual(report))
    # the second word's right-hand side is NaN, after a finite first word
    honest = dilation.conditional_monotone_factorization
    calls = itertools.count()
    monkeypatch.setattr(
        dilation,
        "conditional_monotone_factorization",
        lambda *args: honest(*args) if next(calls) == 0 else np.full((1, 1), NAN),
    )
    scenario = white_noise_scenario(*scalar_fiber(2), horizon=3)
    rows = {c.name: c for c in white_noise_increment_check(scenario, 0, 1, 3, trials=2).checks}
    assert rows["invariance"].passed
    factorization = rows["increment-factorization"]
    assert np.isnan(factorization.residual) and not factorization.passed


def test_nan_word_residual_fails_verify_independence():
    alg = diagonal_algebra(2)
    space = QuantumProbabilitySpace(alg, state_from_density(alg, np.diag([0.5, 0.5])))
    real = monotone_realize(space, space)
    words = [AlternatingWord([(1, np.eye(2))]), AlternatingWord([(1, np.eye(2)), (2, np.eye(2))])]
    formulas = iter([monotone_moment_formula(words[0], space.functional, space.functional), NAN])
    report = verify_independence(real, lambda w: next(formulas), words)
    assert [c.name for c in report.checks] == ["word 0: legs 1", "word 1: legs 12"]
    assert report.checks[0].passed and not report.checks[1].passed and not report.passed
    assert np.isnan(worst_residual(report))


def test_nan_residual_fails_verify_dilation(monkeypatch):
    scenario = dilate_discrete(random_unital_cp(2, np.random.default_rng(0)), 3)
    nan_after_first_call(monkeypatch, dilation)
    # theta-star's residual is adjoint_gap's, computed in hilbert_module
    nan_after_first_call(monkeypatch, hilbert_module)
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


def test_exceeds_treats_nan_as_failing():
    assert not exceeds(1e-9, 1e-9) and exceeds(2e-9, 1e-9)
    assert exceeds(NAN, 1e-9) and exceeds(NAN, float("inf"))


def _nan_in(m, value=NAN):
    m = np.array(m, dtype=complex)
    m.flat[0] = value
    return m


def _monotone(alg):
    space = QuantumProbabilitySpace(alg, normalized_trace_state(alg))
    return monotone_realize(space, space)


def _diagonal_monotone():
    return _monotone(diagonal_algebra(2))


def _stacked_formula(formula, x, leg=2, algebra=None):
    """``formula`` on a stack of two words, the second holding ``x`` on ``leg``."""
    state = normalized_trace_state(algebra or diagonal_algebra(2))
    words = [AlternatingWord([(1, np.eye(2)), (2, np.eye(2))]), AlternatingWord([(leg, x)])]
    return formula(words, state, state)


def _stacked_moments(real, x, leg=2):
    return real.moments([AlternatingWord([(1, np.eye(2)), (2, np.eye(2))]), AlternatingWord([(leg, x)])])


def _inf_quietly(guard):
    # inf - inf is numpy's "invalid value" on the way to the NaN residual
    with np.errstate(invalid="ignore"):
        guard()


def _non_finite_expectation(value):
    ce = diagonal_compression(2)
    return PositiveMap(ce.domain, ce.codomain, _nan_in(ce.matrix, value), ce.kind)


_NAN_GUARDS = {
    "element": lambda: diagonal_algebra(2).element(_nan_in([[0, 1], [0, 0]])),
    "PositiveMap.apply": lambda: state_from_density(diagonal_algebra(2), np.eye(2) / 2).apply(
        _nan_in(np.eye(2))
    ),
    "LeftAction.coords_of": lambda: gns_construct(identity_map(full_matrix_algebra(2))).left.coords_of(
        _nan_in(np.eye(2))[None]
    ),
    # a conditional expectation with a non-finite matrix entry, which
    # verify_positive_map would otherwise meet as numpy's LinAlgError
    "PositiveMap": lambda: _non_finite_expectation(NAN),
    "PositiveMap-inf": lambda: _non_finite_expectation(float("inf")),
    "map_from_images": lambda: map_from_images(
        diagonal_algebra(2), diagonal_algebra(2), np.stack([_nan_in(np.eye(2)), np.eye(2)]), MapKind.CP_MAP
    ),
    "JointRealization.moment": lambda: _diagonal_monotone().moment(AlternatingWord([(1, _nan_in(np.eye(2)))])),
    "JointRealization.moment-leg2": lambda: _diagonal_monotone().moment(
        AlternatingWord([(1, np.eye(2)), (2, _nan_in(np.eye(2)))])
    ),
    "JointRealization.moments": lambda: _stacked_moments(_diagonal_monotone(), _nan_in(np.eye(2))),
    "JointRealization.moments-leg1": lambda: _stacked_moments(_diagonal_monotone(), _nan_in(np.eye(2)), leg=1),
    "JointRealization.moments-full-nan": lambda: _stacked_moments(
        _monotone(full_matrix_algebra(2)), _nan_in(np.eye(2))
    ),
    "monotone_moment_formulas": lambda: _stacked_formula(monotone_moment_formulas, _nan_in(np.eye(2))),
    "tensor_moment_formulas": lambda: _stacked_formula(tensor_moment_formulas, _nan_in(np.eye(2))),
    "conditional_monotone_moment_formulas": lambda: _stacked_formula(
        conditional_monotone_moment_formulas, _nan_in(np.eye(2)), leg=1
    ),
    "monotone_moment_formulas-full-nan": lambda: _stacked_formula(
        monotone_moment_formulas, _nan_in(np.eye(2)), algebra=full_matrix_algebra(2)
    ),
    "cp_from_stochastic": lambda: cp_from_stochastic([[NAN, 0.5], [0.3, 0.7]]),
    # M2's span holds every finite matrix, so these guards can fail only
    # through the non-finite entry itself
    "PositiveMap.apply-full-nan": lambda: normalized_trace_state(full_matrix_algebra(2)).apply(
        _nan_in(np.eye(2))
    ),
    "PositiveMap.apply-full-inf": lambda: _inf_quietly(
        lambda: normalized_trace_state(full_matrix_algebra(2)).apply(_nan_in(np.eye(2), float("inf")))
    ),
    "JointRealization.moment-full-nan": lambda: _monotone(full_matrix_algebra(2)).moment(
        AlternatingWord([(2, _nan_in(np.eye(2)))])
    ),
    "JointRealization.moment-full-inf": lambda: _inf_quietly(
        lambda: _monotone(full_matrix_algebra(2)).moment(AlternatingWord([(1, _nan_in(np.eye(2), float("inf")))]))
    ),
    "element-full-nan": lambda: full_matrix_algebra(2).element(_nan_in(np.eye(2))),
    "element-full-inf": lambda: _inf_quietly(
        lambda: full_matrix_algebra(2).element(_nan_in(np.eye(2), float("inf")))
    ),
    "PositiveMap.apply_many-full-nan": lambda: normalized_trace_state(full_matrix_algebra(2)).apply_many(
        np.stack([np.eye(2), _nan_in(np.eye(2))])
    ),
    "PositiveMap.apply_many-full-inf": lambda: _inf_quietly(
        lambda: normalized_trace_state(full_matrix_algebra(2)).apply_many(
            np.stack([np.eye(2), _nan_in(np.eye(2), float("inf"))])
        )
    ),
}


@pytest.mark.parametrize("guard", sorted(_NAN_GUARDS))
def test_nan_input_is_rejected(guard):
    # each guard compares a residual with a bound; a NaN must not slip past it
    with pytest.raises(StructuralError):
        _NAN_GUARDS[guard]()


@pytest.mark.parametrize("part", ["basis", "unit"])
@pytest.mark.parametrize("value", [NAN, float("inf")])
def test_non_finite_algebra_is_rejected(part, value):
    # a NaN basis used to fail inside the SVD, and a NaN unit or an inf basis
    # built an algebra that is not the same as itself
    m2 = full_matrix_algebra(2)
    basis, unit = m2.basis.copy(), m2.unit.copy()
    (basis[1] if part == "basis" else unit)[0, 1] = value
    with pytest.raises(StructuralError, match=f"{part} has a non-finite entry"):
        MatrixStarAlgebra(basis, unit)


def _off_diagonal(eps):
    # the identity plus an entry eps outside the diagonal algebra, which puts
    # it at distance exactly eps from that algebra's span
    m = np.eye(2, dtype=complex)
    m[0, 1] = eps
    return m


_SPAN_GUARDS = {
    "element": lambda x: diagonal_algebra(2).element(x),
    "PositiveMap.apply": lambda x: normalized_trace_state(diagonal_algebra(2)).apply(x),
    "LeftAction.coords_of": lambda x: gns_construct(identity_map(diagonal_algebra(2))).left.coords_of(x[None]),
    "JointRealization.moment": lambda x: _diagonal_monotone().moment(AlternatingWord([(2, x)])),
    "JointRealization.moment-leg1": lambda x: _diagonal_monotone().moment(AlternatingWord([(1, x)])),
    "JointRealization.moments": lambda x: _stacked_moments(_diagonal_monotone(), x),
    "JointRealization.moments-leg1": lambda x: _stacked_moments(_diagonal_monotone(), x, leg=1),
    "monotone_moment_formulas": lambda x: _stacked_formula(monotone_moment_formulas, x),
    "tensor_moment_formulas": lambda x: _stacked_formula(tensor_moment_formulas, x, leg=1),
    "conditional_monotone_moment_formulas": lambda x: _stacked_formula(conditional_monotone_moment_formulas, x),
}


@pytest.mark.parametrize("guard", sorted(_SPAN_GUARDS))
def test_span_guards_decide_at_guard_tol(guard):
    _SPAN_GUARDS[guard](_off_diagonal(GUARD_TOL / 10))
    with pytest.raises(StructuralError, match="residual 1.000e-07"):
        _SPAN_GUARDS[guard](_off_diagonal(10 * GUARD_TOL))
