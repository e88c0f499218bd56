"""Product-system dilations: towers, shifts, Markov chains, white noise.

Reference points computed independently of the module code:

* Dilating the identity map gives the trivial tower: every power has one
  generator and inner product table [[unit]] exactly, and every theta is
  the identity on the nose.
* For a stochastic matrix P acting on the diagonal algebra, the semigroup
  is matrix powers: <xi_n, f . xi_n> = diag(P^n f).  For the chain with
  P = [[0.5, 0.5], [0.3, 0.7]] at horizon 3 the eight classical paths
  enumerate every moment.  That enumeration stays here as the reference
  for the transfer-matrix path moments the module is checked against.
* For the uniform chain P = [[0.5, 0.5], [0.5, 0.5]], the state at any
  time >= 1 is independent of the start, so mixed moments split as
  mean(f) * g(start).
* The corner factorization of alternating increment words must use the
  left-multiplication embedding of the base for interior insertions;
  substituting the rank-one splitting of the corner expectation changes
  values by a visible amount (frozen control gap about 0.15 on M2).
"""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob.algebra_core import (
    MapKind,
    StructuralError,
    cp_from_kraus,
    cp_from_stochastic,
    full_matrix_algebra,
    identity_map,
    iterate_map,
    map_from_images,
    verify_positive_map,
)
from ncprob.dilation import (
    BudgetExceededError,
    DiscreteProductSystem,
    HorizonError,
    MarkovModel,
    central_unit_fiber,
    dilate_discrete,
    markov_scenario,
    random_unital_cp,
    scalar_fiber,
    verify_dilation,
    verify_product_system,
    white_noise_increment_check,
    white_noise_scenario,
)
from ncprob.dilation import _random_increment_words, _window_blocks, _window_draws
from ncprob.independence import conditional_monotone_factorization
from ncprob.hilbert_module import (
    apply_blocks,
    compose_blocks,
    identity_blocks,
    operator_distance,
    verify_module,
)
from ncprob.linalg import block_matrix, frob


def random_window_operator(system, width: int, rng: np.random.Generator) -> np.ndarray:
    """Blocks of a random finite-rank operator on E_width, drawn as the
    stacked window letters are drawn: the sum of two rank-ones between dense
    random vectors."""
    (blocks,) = _window_blocks(system, [width], _window_draws(system, [width], rng))
    return blocks


@pytest.fixture(scope="module")
def m2():
    return full_matrix_algebra(2)


@pytest.fixture(scope="module")
def chain():
    return markov_scenario(np.array([[0.5, 0.5], [0.3, 0.7]]), horizon=3)


@pytest.fixture(scope="module")
def m2_noise(m2):
    base, fiber = central_unit_fiber(m2, 2)
    return white_noise_scenario(base, fiber, horizon=3)


# ---------------------------------------------------------------------------
# the trivial tower


def test_identity_dilation_is_exactly_trivial(m2):
    scenario = dilate_discrete(identity_map(m2), horizon=3)
    system = scenario.system
    assert [p.rank for p in system.powers] == [1, 1, 1, 1]
    for p in system.powers:
        assert np.array_equal(p.gram, m2.unit[None, None])
    report = verify_product_system(system)
    assert report.passed, report.failures
    report = verify_dilation(scenario)
    assert report.passed, report.failures


def test_budget_is_checked_before_building_a_level(m2):
    rng = np.random.default_rng(4)
    cp = random_unital_cp(2, rng)
    with pytest.raises(BudgetExceededError) as err:
        dilate_discrete(cp, horizon=3, budget=10)
    assert err.value.dimension > 10


def test_a_permutation_chain_stays_within_the_default_budget():
    # every path of a cyclic permutation is fixed by its start, so each level
    # keeps one word per state; keeping the null words instead would need
    # 4**5 * 4 * 4 scalarized dimensions at the top level
    for horizon in (6, 8):
        model = markov_scenario(np.roll(np.eye(4), 1, axis=1), horizon)
        assert [p.rank for p in model.system.powers] == [1] + [4] * horizon
        assert model.verify(trials=5).passed


def test_word_numbers_past_int64_stay_exact():
    # an absorbing chain keeps k + 1 words at level k, so horizon 64 is cheap
    # while its words, read as base-2 numbers, reach 2**64
    system = markov_scenario(np.array([[1.0, 0.0], [0.5, 0.5]]), 64).system
    assert [p.rank for p in system.powers] == list(range(1, 66))
    lifted = system.theta_blocks(identity_blocks(system.powers[54]), 54, 10)
    assert np.array_equal(lifted, identity_blocks(system.powers[64]))


def test_non_unital_maps_are_rejected(m2):
    v = np.array([[0.5, 0.0], [0.0, 0.5]])
    cp = cp_from_kraus(m2, [v])
    assert not cp.is_unital()
    with pytest.raises(StructuralError, match="unital"):
        dilate_discrete(cp, horizon=2)


# ---------------------------------------------------------------------------
# semigroup recovery


def test_stochastic_recovery_matches_matrix_powers():
    p = np.array([[0.5, 0.5], [0.3, 0.7]])
    model = markov_scenario(p, horizon=3)
    system = model.system
    for n in range(4):
        pn = np.linalg.matrix_power(p, n)
        for f in (np.array([1.0, 0.0]), np.array([0.2, 0.9])):
            want = np.diag(pn @ f)
            e = system.powers[n]
            xi = system.units[n]
            got = e.inner(xi, apply_blocks(e.left.blocks_of(np.diag(f)), xi))
            assert frob(got - want) < 1e-12


def test_random_unital_cp_recovery(m2):
    rng = np.random.default_rng(11)
    for _ in range(3):
        cp = random_unital_cp(2, rng)
        scenario = dilate_discrete(cp, horizon=3)
        system = scenario.system
        for n in range(4):
            tn = iterate_map(cp, n)
            e = system.powers[n]
            xi = system.units[n]
            for b in m2.basis:
                got = e.inner(xi, apply_blocks(e.left.blocks_of(b), xi))
                assert frob(got - tn.apply(b)) < 1e-9


def test_corner_expectation_splits_the_corner_embedding(chain):
    system = chain.system
    for b in system.base.basis:
        got = system.expectation(system.corner_embedding(b))
        assert frob(got - b) < 1e-12


# ---------------------------------------------------------------------------
# the shift endomorphisms


def test_theta_zero_is_the_identity(chain):
    system = chain.system
    rng = np.random.default_rng(0)
    op = random_window_operator(system, 2, rng)
    shifted = system.theta_blocks(op, 2, 0)
    assert shifted.tobytes() == op.tobytes()


def test_theta_of_identity_is_exactly_identity(chain):
    system = chain.system
    for steps in (1, 2):
        level = system.horizon - steps
        ident = np.zeros_like(system.powers[level].gram)
        for i in range(system.powers[level].rank):
            ident[i, i] = system.base.unit
        lifted = system.theta_blocks(ident, level, steps)
        want = np.zeros_like(system.powers[system.horizon].gram)
        for i in range(system.powers[system.horizon].rank):
            want[i, i] = system.base.unit
        assert np.array_equal(lifted, want)


def test_theta_composes_on_generators(chain, m2_noise):
    for scenario in (chain, m2_noise):
        system = scenario.system
        rng = np.random.default_rng(2)
        op = random_window_operator(system, 1, rng)
        twice = system.theta_blocks(system.theta_blocks(op, 1, 1), 2, 1)
        direct = system.theta_blocks(op, 1, 2)
        assert operator_distance(system.powers[3], twice, direct) < 1e-12


def test_theta_rejects_overflowing_backward_and_misshapen_operators(chain):
    system = chain.system
    rng = np.random.default_rng(3)
    op = random_window_operator(system, 2, rng)
    with pytest.raises(HorizonError):
        system.theta_blocks(op, 2, 2)
    with pytest.raises(HorizonError):
        system.theta_blocks(op, 2, -1)
    with pytest.raises(StructuralError, match="stated level"):
        system.theta_blocks(op, 1, 1)


def test_theta_never_lifts_down_the_tower():
    # a backward lift once returned blocks of the wrong level's shape
    system = dilate_discrete(random_unital_cp(2, np.random.default_rng(7)), 3).system
    b = random_window_operator(system, 2, np.random.default_rng(0))
    for from_level, steps in ((2, -1), (2, -2), (-1, 1), (-1, 4)):
        with pytest.raises(HorizonError):
            system.theta_blocks(b, from_level, steps)


def test_product_system_invariants(chain, m2_noise):
    for scenario in (chain, m2_noise):
        report = verify_product_system(scenario.system)
        assert report.passed, report.failures
        names = [c.name for c in report.checks]
        assert "identification-preserves-grams" in names
        assert "units-compose" in names


@pytest.mark.parametrize("level", [1, 2])
def test_product_system_rows_fail_when_the_identification_is_perturbed(level, monkeypatch):
    # the tower's Grams are fixed at build time; a perturbed left action of
    # E_1 or E_2 changes only the raw Grams of E_m (x) E_level and the
    # identifications the two rows go through
    system = dilate_discrete(random_unital_cp(2, np.random.default_rng(7)), horizon=3).system
    names = ["unit-vectors-normalized", "identification-preserves-grams", "units-compose"]
    clean = verify_product_system(system)
    assert clean.passed and [c.name for c in clean.checks] == names
    left = system.powers[level].left
    monkeypatch.setattr(left, "blocks", left.blocks * (1.0 + 1e-3))
    rows = {c.name: c for c in verify_product_system(system).checks}
    assert rows["unit-vectors-normalized"].passed
    for name in ("identification-preserves-grams", "units-compose"):
        assert not rows[name].passed and rows[name].residual > 1e-6, (name, rows[name].residual)


def test_horizon_four_product_system_checks_every_level_pair():
    # the pairs (1, 3), (2, 2) and (3, 1) land on the rank-81 top level
    system = dilate_discrete(random_unital_cp(2, np.random.default_rng(7)), horizon=4).system
    assert [p.rank for p in system.powers] == [1, 3, 9, 27, 81]
    report = verify_product_system(system)
    assert [c.name for c in report.checks] == [
        "unit-vectors-normalized", "identification-preserves-grams", "units-compose"
    ]
    assert report.passed, report.failures


# ---------------------------------------------------------------------------
# Markov chains against the classical oracle


def test_markov_moments_match_path_enumeration(chain):
    report = chain.verify(tol=1e-9, seed=1, trials=20)
    assert report.passed, report.failures


def test_markov_frozen_two_time_moment(chain):
    # E[chi_0(X_3) chi_0(X_1) | X_0 = x] = P[x, 0] * P^2[0, 0];
    # P^2[0,0] = 0.5*0.5 + 0.5*0.3 = 0.4
    chi0 = np.diag([1.0, 0.0]).astype(complex)
    obs = [(chi0, 3), (chi0, 1)]
    want = np.diag([0.5 * 0.4, 0.3 * 0.4])
    assert frob(chain.path_moment(obs) - want) < 1e-12
    assert frob(chain.module_moment(obs) - want) < 1e-9


def _enumerated_path_moment(p, horizon, observables):
    """The classical reference: every path's weight times its observables, summed by start."""
    values = np.zeros(len(p), dtype=complex)
    for path in np.ndindex(*([len(p)] * (horizon + 1))):
        weight = np.prod([p[a, b] for a, b in zip(path, path[1:])])
        values[path[0]] += weight * np.prod([f[path[t], path[t]] for f, t in observables])
    return np.diag(values)


SPARSE_CHAINS = [
    np.array([[1.0, 0.0], [0.5, 0.5]]),
    np.array([[0.0, 0.5, 0.5], [0.3, 0.0, 0.7], [0.6, 0.4, 0.0]]),
    np.array([[0.0, 1.0, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0], [0.0, 0.25, 0.25, 0.5], [0.2, 0.0, 0.0, 0.8]]),
]


@pytest.mark.parametrize("horizon", [1, 2, 3, 4])
@pytest.mark.parametrize("p", SPARSE_CHAINS, ids=["2-state", "3-state", "4-state"])
def test_transfer_matrices_match_path_enumeration(p, horizon):
    model = markov_scenario(p, horizon)
    rng = np.random.default_rng(horizon)

    def draw():
        return np.diag(rng.uniform(-1, 1, size=len(p)) + 1j * rng.uniform(-1, 1, size=len(p)))

    worst = 0.0
    for _ in range(6):
        # two observables share a time and one sits at time 0, next to random times
        shared = int(rng.integers(1, horizon + 1))
        obs = [(draw(), shared), (draw(), 0), (draw(), shared)]
        obs += [(draw(), int(rng.integers(0, horizon + 1))) for _ in range(int(rng.integers(0, 3)))]
        worst = max(worst, frob(model.path_moment(obs) - _enumerated_path_moment(p, horizon, obs)))
    assert worst <= 1e-12


def test_path_moments_reject_times_off_the_horizon(chain):
    # a negative time would otherwise index the transfer weights from the end
    f = np.diag([1.0, 2.0]).astype(complex)
    for time in (-1, 4):
        with pytest.raises(HorizonError):
            chain.path_moment([(f, time)])


def test_path_space_agreement_fails_on_the_transposed_chain(chain):
    # the classical side read with P transposed disagrees with the module built from P
    mutant = dataclasses.replace(chain, transition=chain.transition.T)
    rows = {c.name: c for c in mutant.verify(tol=1e-9, seed=1, trials=20).checks}
    assert not rows["path-space-agreement"].passed
    assert rows["path-space-agreement"].residual > 0.01


def test_deterministic_chain_is_noiseless():
    model = markov_scenario(np.eye(2), horizon=3)
    f = np.diag([2.0, -1.0]).astype(complex)
    obs = [(f, 3), (f, 1)]
    want = np.diag([4.0, 1.0])
    assert frob(model.module_moment(obs) - want) < 1e-12
    report = model.verify(tol=1e-9, seed=4, trials=10)
    assert report.passed, report.failures
    inc = white_noise_increment_check(model.scenario, 0, 1, 3, trials=10, seed=4)
    assert inc.passed, inc.failures


def test_uniform_chain_decorrelates_start_from_later_times():
    model = markov_scenario(np.full((2, 2), 0.5), horizon=3)
    f = np.diag([0.9, -0.4]).astype(complex)
    g = np.diag([1.0, 3.0]).astype(complex)
    for t in (1, 2, 3):
        got = model.module_moment([(f, t), (g, 0)])
        want = 0.5 * (0.9 - 0.4) * g
        assert frob(got - want) < 1e-10


def test_time_zero_observables_need_a_commutative_base(m2_noise):
    f = np.diag([1.0, 2.0]).astype(complex)
    model = MarkovModel(m2_noise, np.eye(2))
    with pytest.raises(StructuralError, match="commutative"):
        model.process_operator(f, 0)


def test_slot_observables_need_to_commute_with_the_base(m2_noise):
    # id (x) f on a letter slot is only well defined for f commuting with the
    # base action; a central f passes
    model = MarkovModel(m2_noise, np.eye(2))
    for time in (1, 2):
        with pytest.raises(StructuralError, match="does not commute"):
            model.process_operator(np.diag([1.0, 2.0]).astype(complex), time)
        central = model.process_operator(2.0 * np.eye(2, dtype=complex), time)
        top = m2_noise.system.powers[3]
        assert operator_distance(top, central, 2.0 * identity_blocks(top)) < 1e-12


# ---------------------------------------------------------------------------
# increment independence


def _rows(report):
    return {c.name: c for c in report.checks}


def test_white_noise_scalar_fiber():
    base, fiber = scalar_fiber(2)
    scenario = white_noise_scenario(base, fiber, horizon=3)
    rows = _rows(white_noise_increment_check(scenario, 1, 2, 3, trials=60, seed=11))
    assert rows["invariance"].residual == 0.0
    assert rows["increment-factorization"].residual < 1e-9
    assert rows["increment-factorization"].detail == "60 words"


def test_white_noise_central_unit_fiber(m2_noise):
    for r, s, t in [(0, 1, 3), (0, 2, 3), (1, 2, 3)]:
        rows = _rows(white_noise_increment_check(m2_noise, r, s, t, trials=40, seed=7))
        assert rows["invariance"].passed, (r, s, t)
        residual = rows["increment-factorization"].residual
        assert residual < 1e-9, (r, s, t, residual)


def test_noninvariant_chain_fails_both_rows(chain):
    """Negative control: a non-stationary chain's corner functional is not
    invariant, so neither its invariance nor the corner factorization holds."""
    rows = _rows(white_noise_increment_check(chain.scenario, 0, 1, 3, trials=30, seed=3))
    for name in ("invariance", "increment-factorization"):
        assert not rows[name].passed, name
        assert rows[name].residual > 1e-3, (name, rows[name].residual)


def test_increment_windows_must_be_ordered(m2_noise):
    with pytest.raises(HorizonError):
        white_noise_increment_check(m2_noise, 1, 1, 3)
    with pytest.raises(HorizonError):
        white_noise_increment_check(m2_noise, 0, 2, 9)


def test_corner_factorization_needs_the_left_embedding(m2_noise):
    """Interior insertions via the rank-one splitting give wrong values."""
    system = m2_noise.system
    rng = np.random.default_rng(7)
    r, s, t = 0, 1, 3

    def embed(leg, blocks):
        width, start = (t - s, s) if leg == 1 else (s - r, r)
        return system.embed_window(blocks[None], width, start)[0]

    worst = 0.0
    for word_ops in _random_increment_words(system, r, s, t, rng, 60, 6):
        letters = [(leg, embed(leg, blocks)) for leg, blocks in word_ops]
        word = letters[0][1]
        for _, x in letters[1:]:
            word = word @ x
        lhs = system.expectation(word)

        def factorization(insert):
            return conditional_monotone_factorization(
                letters, system.expectation, system.expectation, insert, system.base.unit
            )

        assert frob(lhs - factorization(system.left_embedding)) < 1e-10
        worst = max(worst, frob(lhs - factorization(system.corner_embedding)))
    assert worst > 0.01


def _white_noise_scenarios(m2):
    return {
        "m2-central-unit": white_noise_scenario(*central_unit_fiber(m2, 2), horizon=3),
        "scalar-2dim": white_noise_scenario(*scalar_fiber(2), horizon=3),
    }


def test_batched_embed_window_matches_one_lift_per_operator(m2, chain):
    """Each slice of a stacked embedding is theta_start(V x V*) of its own x."""
    rng = np.random.default_rng(5)
    # (width, start): future and past legs of (0, 1, 3) and (1, 2, 3), plus
    # windows ending below the horizon
    windows = [(2, 1), (1, 0), (1, 2), (1, 1), (2, 0), (3, 0)]
    towers = {label: scenario.system for label, scenario in _white_noise_scenarios(m2).items()}
    towers["markov-chain"] = chain.system
    for label, system in towers.items():
        n_top = system.horizon
        for width, start in windows:
            mid = n_top - start
            v, vstar = system.isometry_blocks(width, mid)
            for count in (1, 3):
                ops = np.stack(
                    [random_window_operator(system, width, rng) for _ in range(count)]
                )
                got = system.embed_window(ops, width, start)
                side = system.powers[n_top].rank * system.base.ambient_dim
                assert got.shape == (count, side, side)
                for x, flat in zip(ops, got):
                    want = block_matrix(
                        system.theta_blocks(compose_blocks(v, compose_blocks(x, vstar)), mid, start)
                    )
                    assert frob(flat - want) < 1e-12, (label, width, start, count)


def test_embed_window_rejects_windows_past_the_horizon(m2_noise):
    system = m2_noise.system
    ops = np.stack([random_window_operator(system, 2, np.random.default_rng(0))])
    with pytest.raises(HorizonError):
        system.embed_window(ops, 2, 2)
    with pytest.raises(StructuralError, match="window level"):
        system.embed_window(ops, 1, 0)


def test_extend_rejects_products_past_the_horizon(m2_noise):
    system = m2_noise.system
    top = system.horizon
    with pytest.raises(HorizonError):
        system.extend(system.units[top], top, 1)
    with pytest.raises(HorizonError):
        system.extend(system.units[1], 1, top)
    with pytest.raises(StructuralError, match="do not live on E_0"):
        system.extend(system.units[1], 0, 1)
    assert system.extend(system.units[1], 1, top - 1).shape[:2] == (
        system.powers[top].rank,
        system.powers[top - 1].rank,
    )


@pytest.mark.parametrize(
    "moved, to",
    [(1, 0), (0, 1)],
    ids=["future-letters-at-the-past-start", "past-letters-at-a-later-start"],
)
def test_future_letters_at_the_past_start_break_the_factorization(m2, monkeypatch, moved, to):
    """Negative control: embedding one leg's letters at the other's start must fail."""
    r, s, t = 0, 1, 3
    honest = DiscreteProductSystem.embed_window

    def misplaced(self, blocks, width, start):
        return honest(self, blocks, width, to if start == moved else start)

    scenarios = _white_noise_scenarios(m2)
    for label, scenario in scenarios.items():
        inc = white_noise_increment_check(scenario, r, s, t, trials=100, seed=7)
        assert inc.passed, label
    monkeypatch.setattr(DiscreteProductSystem, "embed_window", misplaced)
    for label, scenario in scenarios.items():
        rows = _rows(white_noise_increment_check(scenario, r, s, t, trials=100, seed=7))
        assert rows["invariance"].passed, label
        residual = rows["increment-factorization"].residual
        assert residual > 0.1, (label, residual)


# ---------------------------------------------------------------------------
# fibers


def test_central_unit_fiber_induces_identity_map(m2):
    base, fiber = central_unit_fiber(m2, 3)
    assert verify_module(fiber).passed
    xi = fiber.distinguished["unit"]
    for b in base.basis:
        got = fiber.inner(xi, apply_blocks(fiber.left.blocks_of(b), xi))
        assert frob(got - b) < 1e-12


def test_white_noise_scenario_requires_a_unit(m2):
    base, fiber = central_unit_fiber(m2, 2)
    stripped = type(fiber)(fiber.base, fiber.gram, fiber.left, {})
    with pytest.raises(StructuralError, match="unit"):
        DiscreteProductSystem.build(base, stripped, horizon=2)


@settings(max_examples=15, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.floats(0.05, 1.0), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    )
)
def test_any_strictly_positive_chain_recovers_its_powers(rows):
    p = np.array(rows)
    p = p / p.sum(axis=1, keepdims=True)
    model = markov_scenario(p, horizon=2)
    system = model.system
    f = np.array([0.3, -1.1])
    want = np.diag(np.linalg.matrix_power(p, 2) @ f)
    e = system.powers[2]
    xi = system.units[2]
    got = e.inner(xi, apply_blocks(e.left.blocks_of(np.diag(f)), xi))
    assert frob(got - want) < 1e-9
