"""Independence constructions against brute-force oracles.

The oracles here are deliberately primitive: plain Hilbert-space models
built with ``np.kron`` for the scalar constructions, and exhaustive
enumeration of classical outcomes for the coins game.  The module-based
realizations must reproduce them.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncprob import (
    AlternatingWord,
    MapKind,
    algebra_from_basis,
    QuantumProbabilitySpace,
    StructuralError,
    adjoint_gap,
    classical_coins_oracle,
    coins_game,
    conditional_monotone_embed,
    conditional_monotone_factorization,
    conditional_monotone_moment_formula,
    conditional_tensor_realize,
    diagonal_algebra,
    diagonal_compression,
    full_matrix_algebra,
    gns_construct,
    identity_blocks,
    map_from_images,
    monotone_moment_formula,
    monotone_realize,
    operator_distance,
    random_alternating_word,
    random_alternating_words,
    state_from_density,
    tensor_moment_formula,
    tensor_realize,
    verify_independence,
    verify_positive_map,
)
from ncprob import demos, dilation, hilbert_module, independence, suites
from ncprob.hilbert_module import (
    HilbertModule,
    LeftAction,
    apply_blocks,
    compose_blocks,
    quotient_module,
    rank_one_blocks,
    restrict_left_action,
    tensor_over_base,
)
from ncprob.independence import JointRealization
from ncprob.linalg import block_matrix, dag, frob, random_density, scaled_hermitian, unblock

X = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(dim, rng):
    """Random Hermitian matrix with spectrum inside [-2, 2]."""
    return scaled_hermitian(rng.normal(size=(1, 2, dim, dim)))[0]


def two_point_space(p_up: float) -> QuantumProbabilitySpace:
    alg = diagonal_algebra(2)
    rho = np.diag([p_up, 1.0 - p_up]).astype(complex)
    return QuantumProbabilitySpace(alg, state_from_density(alg, rho))


@pytest.fixture
def coin_pair():
    # leg 1 fair, leg 2 biased: phi2(X) = 0.7 - 0.3 = 0.4
    return two_point_space(0.5), two_point_space(0.7)


# ---------------------------------------------------------------------------
# kron-space oracles


class KronModel:
    """Direct Hilbert-space model for two diagonal states.

    Carrier C^{d1} (x) C^{d2}; the cyclic vectors are sqrt of the weights.
    Tensor independence embeds both legs as multiplication operators on
    their own slots; the monotone model replaces the first leg by
    f (x) |omega2><omega2|.
    """

    def __init__(self, weights1, weights2, monotone: bool):
        self.u1 = np.sqrt(np.asarray(weights1, dtype=complex))
        self.u2 = np.sqrt(np.asarray(weights2, dtype=complex))
        self.omega = np.kron(self.u1, self.u2)
        self.monotone = monotone
        self.d1, self.d2 = len(self.u1), len(self.u2)

    def letter(self, leg: int, mat: np.ndarray) -> np.ndarray:
        if leg == 2:
            return np.kron(np.eye(self.d1), mat)
        if self.monotone:
            return np.kron(mat, np.outer(self.u2, self.u2.conj()))
        return np.kron(mat, np.eye(self.d2))

    def moment(self, word: AlternatingWord) -> complex:
        v = self.omega
        for leg, mat in reversed(word.letters):
            v = self.letter(leg, mat) @ v
        return complex(np.vdot(self.omega, v))


def random_diagonal_word(rng, d1, d2, max_length=6):
    length = int(rng.integers(1, max_length + 1))
    letters = []
    for _ in range(length):
        leg = int(rng.integers(1, 3))
        d = d1 if leg == 1 else d2
        letters.append((leg, np.diag(rng.uniform(-2, 2, size=d)).astype(complex)))
    return AlternatingWord(letters)


def diagonal_space(rng, d):
    alg = diagonal_algebra(d)
    w = rng.uniform(0.1, 1.0, size=d)
    w = w / w.sum()
    return QuantumProbabilitySpace(alg, state_from_density(alg, np.diag(w))), w


@pytest.mark.parametrize("monotone", [False, True])
def test_realizations_match_kron_oracle(monotone):
    rng = np.random.default_rng(5)
    s1, w1 = diagonal_space(rng, 3)
    s2, w2 = diagonal_space(rng, 2)
    model = KronModel(w1, w2, monotone)
    real = (monotone_realize if monotone else tensor_realize)(s1, s2)
    worst = 0.0
    for _ in range(60):
        word = random_diagonal_word(rng, 3, 2)
        worst = max(worst, abs(real.scalar_moment(word) - model.moment(word)))
    assert worst < 1e-10


def test_frozen_monotone_values(coin_pair):
    s1, s2 = coin_pair
    real = monotone_realize(s1, s2)
    phi1, phi2 = s1.functional, s2.functional

    cases = [
        # f g f: phi2(X) * phi1(X^2) = 0.4
        (AlternatingWord([(1, X), (2, X), (1, X)]), 0.4),
        # g f g f g: phi2(X)^3 * phi1(X^2) = 0.064
        (AlternatingWord([(2, X), (1, X), (2, X), (1, X), (2, X)]), 0.064),
        # the unit letter on the non-unital leg is a projection, not a no-op:
        # g 1 g = phi2(X)^2 = 0.16, not phi2(X^2) = 1
        (AlternatingWord([(2, X), (1, I2), (2, X)]), 0.16),
        (AlternatingWord([]), 1.0),
    ]
    for word, expect in cases:
        assert real.scalar_moment(word) == pytest.approx(expect, abs=1e-12)
        assert monotone_moment_formula(word, phi1, phi2) == pytest.approx(
            expect, abs=1e-12
        )


def test_frozen_tensor_value(coin_pair):
    s1, s2 = coin_pair
    real = tensor_realize(s1, s2)
    word = AlternatingWord([(1, X), (2, X)])
    # phi1(X) * phi2(X) = 0 * 0.4
    assert real.scalar_moment(word) == pytest.approx(0.0, abs=1e-12)
    assert tensor_moment_formula(word, s1.functional, s2.functional) == pytest.approx(
        0.0, abs=1e-12
    )


def test_formulas_match_realizations_on_matrix_states():
    rng = np.random.default_rng(19)
    m2 = full_matrix_algebra(2)
    s1 = QuantumProbabilitySpace(m2, state_from_density(m2, random_density(2, rng)))
    s2 = QuantumProbabilitySpace(m2, state_from_density(m2, random_density(2, rng)))
    words = [random_alternating_word(m2, m2, rng, max_length=6) for _ in range(200)]

    mono = monotone_realize(s1, s2)
    rep = verify_independence(
        mono,
        lambda w: monotone_moment_formula(w, s1.functional, s2.functional),
        words,
        tol=1e-9,
    )
    assert rep.passed, rep.failures

    tens = tensor_realize(s1, s2)
    rep = verify_independence(
        tens,
        lambda w: tensor_moment_formula(w, s1.functional, s2.functional),
        words,
        tol=1e-9,
    )
    assert rep.passed, rep.failures


def test_wrong_oracle_is_rejected(coin_pair):
    s1, s2 = coin_pair
    real = monotone_realize(s1, s2)
    word = AlternatingWord([(2, X), (1, X), (2, X), (1, X), (2, X)])
    got = real.scalar_moment(word)
    wrong = tensor_moment_formula(word, s1.functional, s2.functional)
    # 0.064 under the monotone law vs 0.4 under the tensor law
    assert abs(got - wrong) > 0.01
    rep = verify_independence(
        real,
        lambda w: tensor_moment_formula(w, s1.functional, s2.functional),
        [word],
        tol=1e-9,
    )
    assert not rep.passed


def _swap_legs(word):
    return AlternatingWord([(3 - leg, mat) for leg, mat in word.letters])


def test_monotone_order_matters(coin_pair):
    s1, s2 = coin_pair
    word = AlternatingWord([(2, X), (1, X), (2, X), (1, X), (2, X)])
    forward = monotone_moment_formula(word, s1.functional, s2.functional)
    # swapping the legs swaps which state sees the fused product
    backward = monotone_moment_formula(
        _swap_legs(word), s2.functional, s1.functional
    )
    assert abs(forward - backward) > 0.01


def test_sandwiched_letter_collapses_to_its_mean(coin_pair):
    """leg1(f') leg2(g) leg1(f) collapses to a scalar times leg1(f'f)."""
    s1, s2 = coin_pair
    real = monotone_realize(s1, s2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = np.diag(rng.uniform(-2, 2, size=2)).astype(complex)
        fp = np.diag(rng.uniform(-2, 2, size=2)).astype(complex)
        g = np.diag(rng.uniform(-2, 2, size=2)).astype(complex)
        lhs = compose_blocks(compose_blocks(real.embed(1, fp), real.embed(2, g)), real.embed(1, f))
        scalar = complex(s2.functional.apply(g)[0, 0])
        rhs = scalar * real.embed(1, fp @ f)
        assert operator_distance(real.carrier, lhs, rhs) < 1e-10


def test_a_collapse_without_the_mean_fails_its_row(monkeypatch):
    """Negative control for ``demo two-time``: with phi2(g) dropped from the
    right side, f'(X1) g(X2) f(X1) = (f'f)(X1) is false."""
    config = suites.RunConfig(seed=7)
    rows = {r["name"]: r for r in demos.demo_two_time(config)["checks"]}
    assert rows["collapse-identity"]["passed"]
    honest = demos.monotone_realize

    def mean_dropped(s1, s2):
        real = honest(s1, s2)
        s2.functional.apply = lambda g: np.ones((1, 1), dtype=complex)
        return real

    monkeypatch.setattr(demos, "monotone_realize", mean_dropped)
    rows = {r["name"]: r for r in demos.demo_two_time(config)["checks"]}
    assert not rows["collapse-identity"]["passed"]
    assert rows["collapse-identity"]["residual"] > 1e-3


def test_two_time_tables_hold_the_word_by_word_values(monkeypatch):
    """``demo two-time`` evaluates each table in one stacked call; every cell
    is the bits of ``scalar_moment`` and ``tensor_moment_formula`` on its own
    word."""
    made = []
    honest = demos.monotone_realize

    def kept(s1, s2):
        made.append((honest(s1, s2), s1.functional, s2.functional))
        return made[-1][0]

    monkeypatch.setattr(demos, "monotone_realize", kept)
    ordered, reversed_ = demos.demo_two_time(suites.RunConfig(seed=7))["tables"][:2]
    [(real, phi1, phi2)] = made
    named = {
        "x": np.diag([1.0, -1.0]).astype(complex),
        "up": np.diag([1.0, 0.0]).astype(complex),
        "down": np.diag([0.0, 1.0]).astype(complex),
    }
    assert len(ordered["rows"]) == 9 and len(reversed_["rows"]) == 18
    for f, g, joint, *_ in ordered["rows"]:
        assert joint == complex(real.scalar_moment(AlternatingWord([(1, named[f]), (2, named[g])]))).real
    for g, f, gp, joint, naive, _ in reversed_["rows"]:
        word = AlternatingWord([(2, named[g]), (1, named[f]), (2, named[gp])])
        assert joint == complex(real.scalar_moment(word)).real
        assert naive == complex(tensor_moment_formula(word, phi1, phi2)).real


def _leg2_on_the_first_slot(monkeypatch):
    # id (x) a replaced by the lifted action a (x) id
    honest = independence._slot_legs

    def mutant(s1, s2, e1, e2):
        carrier, e2b, leg1, _ = honest(s1, s2, e1, e2)
        return carrier, e2b, leg1, LeftAction(s2.algebra, carrier.left.blocks)

    monkeypatch.setattr(independence, "_slot_legs", mutant)


def _leg1_without_the_vacuum_projection(monkeypatch):
    # |xi2><xi2| replaced by the identity, so id (x) it is the identity too
    def identity_for_rank_one(gram, x, y):
        return unblock(np.eye(gram.shape[0] * gram.shape[-1], dtype=complex), gram.shape[-1])

    monkeypatch.setattr(independence, "rank_one_blocks", identity_for_rank_one)


@pytest.mark.parametrize("mutate", [_leg2_on_the_first_slot, _leg1_without_the_vacuum_projection])
def test_a_misbuilt_monotone_leg_fails_the_formula(mutate, monkeypatch):
    """Negative controls for the legs of the monotone realization.

    Each mutant leg is still a *-representation, unital where it is
    declared so, and every row of the realization's own check passes; the
    comparison with the formula must catch it.  Leg 1 without the vacuum
    projection even passes ``leg1-unit-is-idempotent``: its unit acts as the
    identity, which is idempotent (its distance to the identity, in the row's
    detail, is what shows the projection is gone).
    """
    config = suites.RunConfig(seed=7, trials=30)
    rows = {r["name"]: r for r in suites.suite_monotone(config)}
    assert rows["realization-matches-formula"]["passed"]
    mutate(monkeypatch)
    rows = {r["name"]: r for r in suites.suite_monotone(config)}
    assert not rows["realization-matches-formula"]["passed"]
    assert rows["realization-matches-formula"]["residual"] > 1e-3
    own = [r for name, r in rows.items() if name.startswith("monotone-realization:")]
    assert len(own) == 7 and all(r["passed"] for r in own)


def _slot_on_every_pair(blocks, n, kept=None):
    """id (x) S without its "same generator of E" condition: S[u, u']
    between every two pairs (i, u) and (i', u'), whatever i and i'."""
    n_f, d0 = blocks.shape[-3], blocks.shape[-1]
    _, u = np.divmod(np.arange(n * n_f), n_f) if kept is None else kept
    return unblock(block_matrix(blocks[..., u[:, None], u, :, :]), d0)


def test_id_tensor_s_on_every_pair_fails_its_rows(monkeypatch):
    """Negative control for ``tensor_slot``, the one id (x) S: the tensor and
    monotone legs, the monotone vacuum projection and the Markov letter
    slots all take it, so each of their comparisons must catch S placed
    between pairs of different generators of E."""
    config = suites.RunConfig(seed=7)
    mono_rows = ("realization-matches-formula", "tensor-realization-matches-formula")

    def rows():
        return {r["name"]: r for r in suites.suite_monotone(config) + suites.suite_markov(config)}

    honest = rows()
    assert all(honest[name]["passed"] for name in (*mono_rows, "chain:path-space-agreement"))
    suites.coins_identities(7)
    for module in (hilbert_module, independence, dilation):
        monkeypatch.setattr(module, "tensor_slot", _slot_on_every_pair)
    mutant = rows()
    for name in (*mono_rows, "chain:path-space-agreement"):
        assert not mutant[name]["passed"] and mutant[name]["residual"] > 1.0, name
    # the coins' amalgamated algebra, read off the legs, no longer holds the
    # image of the base, so its expectation is rejected
    with pytest.raises(StructuralError, match="codomain is not contained"):
        suites.coins_identities(7)


def test_monotone_unit_letter_is_projection(coin_pair):
    s1, s2 = coin_pair
    real = monotone_realize(s1, s2)
    p = real.embed(1, I2)
    assert operator_distance(real.carrier, compose_blocks(p, p), p) < 1e-12
    assert operator_distance(real.carrier, p, identity_blocks(real.carrier)) > 0.1
    report = real.verify()
    assert report.passed


# ---------------------------------------------------------------------------
# conditional monotone over a matrix base


@pytest.fixture
def compressed_pair():
    m2 = full_matrix_algebra(2)
    comp = diagonal_compression(2, m2)
    e1 = gns_construct(comp)
    e2 = gns_construct(comp)
    real = conditional_monotone_embed(e1, e2, m2, m2)
    return m2, comp, real


def test_conditional_monotone_matches_formula(compressed_pair):
    m2, comp, real = compressed_pair
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(60):
        word = random_alternating_word(m2, m2, rng, max_length=5)
        got = real.moment(word)
        want = conditional_monotone_moment_formula(word, comp, comp)
        worst = max(worst, frob(got - want))
    assert worst < 1e-9


def test_dropping_the_interior_insertions_is_detected(compressed_pair):
    """The factorization with every interior E1 value replaced by the unit
    (the leg-2 chain b1 b2 ... bn) misses the realization's moments."""
    m2, comp, real = compressed_pair
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(60):
        word = random_alternating_word(m2, m2, rng, max_length=5)
        dropped = conditional_monotone_factorization(
            word.normalized().letters, comp.apply, comp.apply, lambda v: m2.unit, m2.unit
        )
        worst = max(worst, frob(real.moment(word) - dropped))
    assert worst > 1e-3


def test_conditional_monotone_realization_verifies(compressed_pair):
    _, _, real = compressed_pair
    report = real.verify()
    assert report.passed, [(c.name, c.residual) for c in report.failures]
    # leg 2 embeds non-unitally
    assert real.unital_legs == (True, False)


def test_conditional_embed2_is_adjointable(compressed_pair):
    _, _, real = compressed_pair
    rng = np.random.default_rng(2)
    a = random_hermitian(2, rng) + 0.5j * np.array([[0, 1], [-1, 0]])
    for leg in (2, 1):
        assert adjoint_gap(real.carrier, real.embed(leg, a), real.embed(leg, dag(a))) <= 1e-9


def _seed7_monotone():
    # the state pair of `verify monotone --seed 7`
    rng = np.random.default_rng(7)
    m2 = full_matrix_algebra(2)
    s1, s2 = (
        QuantumProbabilitySpace(m2, state_from_density(m2, random_density(2, rng))) for _ in range(2)
    )
    return monotone_realize(s1, s2)


def _m2_diagonal_compression():
    m2 = full_matrix_algebra(2)
    comp = diagonal_compression(2, m2)
    return conditional_monotone_embed(gns_construct(comp), gns_construct(comp), m2, m2)


@pytest.mark.parametrize("build", [_seed7_monotone, _m2_diagonal_compression])
def test_a_similarity_on_leg2_fails_leg2_star_only(build):
    """Negative control: leg 2 conjugated by S = 1 + N/2, N = leg1(E12).

    N^2 = leg1(E12^2) = 0, so S^-1 = 1 - N/2 and the conjugated leg is
    still a homomorphism; S is not unitary, so it is no longer a *-map.
    """
    real = build()
    nil = 0.5 * real.embed(1, np.array([[0, 1], [0, 0]], dtype=complex))
    one = identity_blocks(real.carrier)
    s, s_inv = one + nil, one - nil
    assert operator_distance(real.carrier, compose_blocks(s, s_inv), one) < 1e-12
    conjugated = compose_blocks(s, compose_blocks(real.leg2.blocks, s_inv))
    similar = dataclasses.replace(real, leg2=LeftAction(real.algebra2, conjugated))
    honest = {c.name: c for c in real.verify().checks}
    rows = {c.name: c for c in similar.verify().checks}
    assert honest["leg2-star"].passed
    assert not rows["leg2-star"].passed and rows["leg2-star"].residual > 0.1
    assert rows["leg2-multiplicative"].passed
    assert rows["leg1-star"].passed and rows["leg1-multiplicative"].passed


def test_leg2_is_the_projected_form_on_every_raw_pair(compressed_pair):
    # x1 o x2 -> 1 o a2 <1, x1> x2 by the definition, one raw pair (i, j) at
    # a time, with x o y = sum_I e_I o (x[I] . y) on the pairs (I, J)
    m2, comp, real = compressed_pair
    e1 = gns_construct(comp)
    e2 = gns_construct(comp)
    action = restrict_left_action(e2.left, comp.codomain)
    xi1 = e1.distinguished["unit"]

    def elementary(x, y):
        return np.stack([apply_blocks(action.blocks_of(x[i]), y)[j] for i in range(e1.rank) for j in range(e2.rank)])

    a2 = random_hermitian(2, np.random.default_rng(3)) + 0.5j * np.array([[0, 1], [-1, 0]])
    got = real.embed(2, a2)
    assert got.shape[:2] == (e1.rank * e2.rank, e1.rank * e2.rank)
    for col, (i, j) in enumerate(itertools.product(range(e1.rank), range(e2.rank))):
        moved = apply_blocks(action.blocks_of(e1.inner(xi1, e1.generator(i))), e2.generator(j))
        want = elementary(xi1, apply_blocks(e2.left.blocks_of(a2), moved))
        assert frob(got[:, col] - want) < 1e-12


def test_leg2_without_the_overlap_fails_the_formula(monkeypatch):
    """Negative control: V* sends e_i o e_j to e_j, dropping <1, e_i>."""
    honest = independence.tensor_isometry

    def overlap_dropped(left, xi, gram, kept=None):
        v, _ = honest(left, xi, gram, kept)
        n1, n2, d0 = len(gram), v.shape[1], xi.shape[-1]
        return v, unblock(np.tile(np.kron(np.eye(n2), left.algebra.unit), n1), d0)

    config = suites.RunConfig(seed=7, trials=30)
    rows = {r["name"]: r for r in suites.suite_conditional_monotone(config)}
    assert rows["realization-matches-formula"]["passed"]
    monkeypatch.setattr(independence, "tensor_isometry", overlap_dropped)
    rows = {r["name"]: r for r in suites.suite_conditional_monotone(config)}
    assert not rows["realization-matches-formula"]["passed"]
    assert rows["realization-matches-formula"]["residual"] > 1e-3


def test_sandwich_identity(compressed_pair):
    """leg2(a) leg1(b) leg2(c) = leg2(a E1(b) c) as operators."""
    m2, comp, real = compressed_pair
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b, c = (random_hermitian(2, rng) for _ in range(3))
        lhs = compose_blocks(compose_blocks(real.embed(2, a), real.embed(1, b)), real.embed(2, c))
        rhs = real.embed(2, a @ comp.apply(b) @ c)
        assert operator_distance(real.carrier, lhs, rhs) < 1e-10


def test_a_sandwich_without_the_expectation_fails_its_row(monkeypatch):
    """Negative control: with E1 dropped from the right side, leg2(a b c),
    the suite's sandwich row fails and the formula row still passes (the
    moment formulas apply E1 through ``apply_many``, which stays honest)."""
    config = suites.RunConfig(seed=7, trials=30)
    rows = {r["name"]: r for r in suites.suite_conditional_monotone(config)}
    assert rows["sandwich-identity"]["passed"]
    honest = suites.diagonal_compression

    def expectation_dropped(*args):
        comp = honest(*args)
        comp.apply = lambda b: b
        return comp

    monkeypatch.setattr(suites, "diagonal_compression", expectation_dropped)
    rows = {r["name"]: r for r in suites.suite_conditional_monotone(config)}
    assert not rows["sandwich-identity"]["passed"]
    assert rows["sandwich-identity"]["residual"] > 1e-3
    assert rows["realization-matches-formula"]["passed"]


def test_scalar_base_reduces_to_monotone_with_swapped_roles():
    """Over B = C the conditional construction is monotone independence with
    the unital leg moved from the second slot to the first."""
    rng = np.random.default_rng(23)
    alg = diagonal_algebra(2)
    s1 = two_point = state_from_density(alg, np.diag([0.6, 0.4]))
    s2 = state_from_density(alg, np.diag([0.7, 0.3]))
    e1 = gns_construct(s1)
    e2 = gns_construct(s2)
    real = conditional_monotone_embed(e1, e2, alg, alg)
    for _ in range(40):
        word = random_alternating_word(alg, alg, rng, max_length=5)
        got = complex(real.moment(word)[0, 0])
        via_formula = complex(conditional_monotone_moment_formula(word, s1, s2)[0, 0])
        # same word through the scalar monotone formula with the legs renamed
        via_monotone = monotone_moment_formula(_swap_legs(word), s2, s1)
        assert got == pytest.approx(via_formula, abs=1e-10)
        assert got == pytest.approx(via_monotone, abs=1e-10)


def test_conditional_monotone_requires_unit_vector():
    m2 = full_matrix_algebra(2)
    comp = diagonal_compression(2, m2)
    e1 = gns_construct(comp)
    e2 = gns_construct(comp)
    del e1.distinguished["unit"]
    with pytest.raises(StructuralError, match="unit vector"):
        conditional_monotone_embed(e1, e2, m2, m2)


def test_conditional_monotone_rejects_an_algebra_its_factor_does_not_act_by():
    m2 = full_matrix_algebra(2)
    e = gns_construct(diagonal_compression(2, m2))
    with pytest.raises(StructuralError, match="second factor's left action is not one of the second algebra"):
        conditional_monotone_embed(e, e, m2, diagonal_algebra(2))


# ---------------------------------------------------------------------------
# conditional tensor independence: the coins game


def indicator4(slot: int) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[slot, slot] = 1.0
    return m


def test_coins_frozen_value():
    s1, s2, _ = coins_game()
    prod = conditional_tensor_realize(s1, s2)
    head = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    val = prod.realization.moment(AlternatingWord([(1, head), (2, head)]))
    assert np.real(np.diagonal(val)) == pytest.approx([0.21, 0.21, 0.21, 0.21])


def test_coins_expectation_factorizes_exhaustively():
    s1, s2, _ = coins_game()
    prod = conditional_tensor_realize(s1, s2)
    worst = 0.0
    for i in range(4):
        for j in range(4):
            f, g = indicator4(i), indicator4(j)
            word = AlternatingWord([(1, f), (2, g)])
            got = prod.realization.moment(word)
            want = s1.functional.apply(f) @ s2.functional.apply(g)
            worst = max(worst, frob(got - want))
            oracle = classical_coins_oracle(f, g)
            worst = max(worst, frob(got - oracle))
    assert worst < 1e-12


def test_coins_base_insertion_attaches_to_either_leg():
    s1, s2, base = coins_game()
    prod = conditional_tensor_realize(s1, s2)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        f = np.diag(rng.uniform(-1, 1, size=4)).astype(complex)
        g = np.diag(rng.uniform(-1, 1, size=4)).astype(complex)
        h = base.combine(rng.uniform(-1, 1, size=2))
        via1 = prod.realization.moment(AlternatingWord([(1, f @ h), (2, g)]))
        via2 = prod.realization.moment(AlternatingWord([(1, f), (2, h @ g)]))
        worst = max(worst, frob(via1 - via2))
    assert worst < 1e-12


def test_coins_amalgamated_expectation_verifies():
    s1, s2, _ = coins_game()
    prod = conditional_tensor_realize(s1, s2)
    assert prod.expectation.kind is MapKind.CONDITIONAL_EXPECTATION
    assert verify_positive_map(prod.expectation).passed
    # the model is the classical fibered product: 8 outcomes
    assert prod.algebra.dim == 8


def _on_the_quotient(real):
    """The realization moved onto a minimal generating subset of its
    carrier's pairs, each leg's operators rewritten over the survivors as
    R blocks J."""
    raw = real.carrier
    carrier, info = quotient_module(HilbertModule(raw.base, raw.gram, None, {"unit": real.vacuum}))

    def rewrite(action):
        return LeftAction(action.algebra, compose_blocks(info.rewrite, action.blocks[..., info.survivors, :, :]))

    return JointRealization(
        carrier, carrier.distinguished["unit"], rewrite(real.leg1), rewrite(real.leg2), real.unital_legs, real.base
    )


def test_coins_model_keeps_its_size_on_a_carrier_with_null_vectors(monkeypatch):
    # the faithful model's rank decision now sees the raw carrier's null
    # vectors; it must give the model built on the quotient of that carrier
    s1, s2, _ = coins_game()
    raw = conditional_tensor_realize(s1, s2)
    honest = independence.JointRealization
    monkeypatch.setattr(independence, "JointRealization", lambda *fields: _on_the_quotient(honest(*fields)))
    reduced = conditional_tensor_realize(s1, s2)
    assert raw.realization.carrier.rank == 16
    assert reduced.realization.carrier.rank == 8
    assert raw.algebra.dim == reduced.algebra.dim == 8
    assert raw.expectation.codomain.dim == reduced.expectation.codomain.dim
    assert frob(raw.expectation.matrix - reduced.expectation.matrix) < 1e-12


def test_conditional_tensor_rejects_noncommutative():
    m2 = full_matrix_algebra(2)
    comp = diagonal_compression(2, m2)
    space = QuantumProbabilitySpace(m2, comp)
    with pytest.raises(StructuralError, match="noncommutative"):
        conditional_tensor_realize(space, space)


def test_conditional_tensor_requires_conditional_expectations(coin_pair):
    s1, s2 = coin_pair
    with pytest.raises(StructuralError, match="conditional expectation"):
        conditional_tensor_realize(s1, s2)


# ---------------------------------------------------------------------------
# moments from the legs' basis operators against the operator chain


def _spaces_of(kind: str):
    rng = np.random.default_rng(31)
    m2 = full_matrix_algebra(2)
    if kind in ("tensor", "monotone"):
        return tuple(
            QuantumProbabilitySpace(m2, state_from_density(m2, random_density(2, rng))) for _ in range(2)
        )
    if kind == "conditional-monotone":
        comp = diagonal_compression(2, m2)
        return QuantumProbabilitySpace(m2, comp), QuantumProbabilitySpace(m2, comp)
    s1, s2, _ = coins_game()
    return s1, s2


def _realization_of(kind: str):
    s1, s2 = _spaces_of(kind)
    if kind in ("tensor", "monotone"):
        return (tensor_realize if kind == "tensor" else monotone_realize)(s1, s2)
    if kind == "conditional-monotone":
        e1, e2 = gns_construct(s1.functional), gns_construct(s2.functional)
        return conditional_monotone_embed(e1, e2, s1.algebra, s2.algebra)
    return conditional_tensor_realize(s1, s2).realization


def _paper_letters(kind: str):
    """The raw product E1 (x)_B E2 of ``kind``'s GNS modules, its vacuum, and
    per leg the operator of one letter by the paper's definition, built for
    that letter alone: a (x) id and id (x) a by their definitions on the raw
    pairs (not by ``tensor_lift`` or ``tensor_slot``, which the legs are
    built with), the monotone leg 1 as (a (x) id)(id (x) |xi2><xi2|), and the
    conditional monotone leg 2 as x1 o x2 -> 1 o a <1, x1> x2, that is
    V a V* with V y = 1 o y.  Elementary tensors are x o y = sum_i e_i o x[i] y,
    with the base acting on E2 by its left action.  No leg of a realization
    is used."""
    s1, s2 = _spaces_of(kind)
    e1, e2 = gns_construct(s1.functional), gns_construct(s2.functional)
    tensor = tensor_over_base(e1, independence._with_base_action(e2, e1.base))
    product = tensor.module
    action = tensor.right_factor.left
    pairs = list(itertools.product(range(e1.rank), range(e2.rank)))

    def elementary(x, y):
        # x o y on the raw pairs (i, u), row-major: (x[i] y)[u] at (i, u)
        return np.concatenate([apply_blocks(action.blocks_of(x[i]), y) for i in range(e1.rank)])

    def lift(s):
        # S (x) id: column (w, u) is (S e_w) o e_u
        return np.stack(
            [elementary(apply_blocks(s, e1.generator(w)), e2.generator(u)) for w, u in pairs], axis=1
        )

    def id_tensor(s):
        # the pairs (i, u) run row-major: S[u, u'] between (i, u) and (i, u'),
        # zero between pairs of different generators i of E1
        n2 = e2.rank
        out = np.zeros((e1.rank * n2, e1.rank * n2, *s.shape[2:]), dtype=complex)
        for i in range(e1.rank):
            out[i * n2 : (i + 1) * n2, i * n2 : (i + 1) * n2] = s
        return out

    def first(a):
        return lift(e1.left.blocks_of(a))

    def second(a):
        return id_tensor(e2.left.blocks_of(a))

    letters = {1: first, 2: second}
    if kind == "monotone":
        xi2 = e2.distinguished["unit"]
        projection = id_tensor(rank_one_blocks(e2.gram, xi2, xi2))
        letters[1] = lambda a: compose_blocks(first(a), projection)
    elif kind == "conditional-monotone":
        xi1 = e1.distinguished["unit"]
        v = np.stack([elementary(xi1, e2.generator(u)) for u in range(e2.rank)], axis=1)
        v_star = np.stack(
            [apply_blocks(action.blocks_of(e1.inner(xi1, e1.generator(p))), e2.generator(u)) for p, u in pairs],
            axis=1,
        )
        letters[2] = lambda a: compose_blocks(v, compose_blocks(e2.left.blocks_of(a), v_star))
    return product, product.distinguished["unit"], letters


def _operator_chain_moment(paper, word):
    # the reference: one operator per letter, applied right to left
    product, vacuum, letters = paper
    v = vacuum
    for leg, mat in reversed(word.letters):
        v = apply_blocks(letters[leg](mat), v)
    return product.inner(vacuum, v)


REALIZATION_KINDS = ["tensor", "monotone", "conditional-monotone", "conditional-tensor"]


@pytest.mark.parametrize("kind", REALIZATION_KINDS)
def test_moment_matches_operator_chain(kind):
    real = _realization_of(kind)
    paper = _paper_letters(kind)
    assert paper[0].rank == real.carrier.rank
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        word = random_alternating_word(real.algebra1, real.algebra2, rng)
        worst = max(worst, frob(real.moment(word) - _operator_chain_moment(paper, word)))
    assert worst <= 1e-12


@pytest.mark.parametrize("kind", REALIZATION_KINDS)
def test_verify_checks_the_operators_moment_applies(kind):
    real = _realization_of(kind)
    for leg, action in ((1, real.leg1), (2, real.leg2)):
        algebra, images = real._legs[leg]
        assert algebra is action.algebra
        assert np.shares_memory(images, action.blocks)  # no copy of the leg's operators
    report = real.verify()
    assert report.passed, [(c.name, c.residual) for c in report.failures]


def test_moment_rejects_a_letter_outside_its_leg():
    # both realizations embed diagonal algebras, which hold no off-diagonal matrix
    for real in (
        monotone_realize(two_point_space(0.5), two_point_space(0.7)),
        _realization_of("conditional-tensor"),
    ):
        d = real.algebra1.ambient_dim
        off, unit = np.eye(d, k=1, dtype=complex), np.eye(d, dtype=complex)
        with pytest.raises(StructuralError, match="letter 1 is not in the algebra of leg 2"):
            real.moment(AlternatingWord([(1, unit), (2, off)]))
        with pytest.raises(StructuralError, match="letter 0 is not in the algebra of leg 1"):
            real.moment(AlternatingWord([(1, off), (2, unit)]))


def _coordinate_path_moment(real, word):
    # the reference: each letter's basis coordinates against the stacked
    # basis operators of its leg, then the carrier's inner product with the vacuum
    v = real.vacuum.reshape(-1, real.vacuum.shape[-1])
    for leg, mat in reversed(word.letters):
        action = real.leg1 if leg == 1 else real.leg2
        c, _ = action.algebra.coords(mat)
        images = block_matrix(action.blocks)
        v = np.einsum("k,kab,bc->ac", c, images, v)
    return real.carrier.inner(real.vacuum, v.reshape(real.vacuum.shape))


# relative gap allowed between two evaluations of one sum in another order
MOMENT_RTOL = 64 * np.finfo(float).eps


@pytest.mark.parametrize("kind", REALIZATION_KINDS)
def test_moment_matches_the_coordinate_path(kind):
    # 200 seeded words; a word's scale is the product of its letters' norms,
    # which bounds every vector along the way
    real = _realization_of(kind)
    rng = np.random.default_rng(2003)
    for word in random_alternating_words(real.algebra1, real.algebra2, rng, 200):
        scale = np.prod([np.linalg.norm(mat, 2) for _, mat in word.letters])
        gap = frob(real.moment(word) - _coordinate_path_moment(real, word))
        assert gap <= MOMENT_RTOL * max(1.0, scale)


@pytest.mark.parametrize("kind", ["tensor", "monotone", "conditional-monotone"])
def test_verify_independence_rows_are_the_word_by_word_moments(kind):
    # the report evaluates its words in one stacked call; with the
    # word-by-word moment as oracle it has one row per word, in order, each
    # reading exactly 0, and an oracle read one word off fails
    real = _realization_of(kind)
    words = random_alternating_words(real.algebra1, real.algebra2, np.random.default_rng(17), 40)
    report = verify_independence(real, real.moment, words, tol=0.0)
    assert [c.name for c in report.checks] == [f"word {k}: {w.label()}" for k, w in enumerate(words)]
    assert all(c.residual == 0.0 for c in report.checks)
    next_word = {id(w): words[(k + 1) % len(words)] for k, w in enumerate(words)}
    shifted = verify_independence(real, lambda w: real.moment(next_word[id(w)]), words)
    assert not shifted.passed


def test_a_stale_vacuum_bra_fails_parity():
    real = _realization_of("monotone")
    real._bra = 2 * real._bra
    word = AlternatingWord([(1, X), (2, X)])
    assert frob(real.moment(word) - _coordinate_path_moment(real, word)) > 1e-3


def test_a_moment_outside_the_shared_base_is_rejected():
    # span{I, X, Z} is not closed under products: E(X) E(Z) = XZ = -iY lies
    # outside it, at distance ||Y||_F = sqrt 2
    m2 = full_matrix_algebra(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    ixz = algebra_from_basis([I2, sx, sz])
    # each basis matrix's least-squares projection onto the span
    onto = map_from_images(
        m2, ixz, np.stack([ixz.combine(ixz.coords(b)[0]) for b in m2.basis]),
        MapKind.CONDITIONAL_EXPECTATION,
    )
    word = AlternatingWord([(1, sx), (2, sz)])
    with pytest.raises(StructuralError, match=r"moment left the base algebra \(residual 1\.414e\+00\)"):
        conditional_monotone_moment_formula(word, onto, onto)
    # the same guard passes on the diagonal base, which is closed
    diag = diagonal_compression(2, m2)
    assert frob(conditional_monotone_moment_formula(word, diag, diag)) == 0.0
    value = conditional_monotone_moment_formula(AlternatingWord([(1, sz), (2, sz)]), diag, diag)
    assert frob(value - I2) <= 1e-15


# ---------------------------------------------------------------------------
# word mechanics


def test_word_normalization_fuses_only_adjacent_same_leg():
    w = AlternatingWord([(1, X), (1, X), (2, X), (1, I2), (2, X)])
    n = w.normalized()
    assert [leg for leg, _ in n.letters] == [1, 2, 1, 2]
    assert np.allclose(n.letters[0][1], X @ X)
    assert n.normalized() is n


def test_word_membership_check():
    real = monotone_realize(two_point_space(0.5), two_point_space(0.7))
    off = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(StructuralError, match="leg 1"):
        real.moment(AlternatingWord([(1, off), (2, X)]))


@settings(max_examples=25, deadline=None)
@given(
    p=st.floats(0.05, 0.95),
    q=st.floats(0.05, 0.95),
    seed=st.integers(0, 10_000),
)
def test_monotone_formula_matches_model_property(p, q, seed):
    s1, s2 = two_point_space(p), two_point_space(q)
    real = monotone_realize(s1, s2)
    rng = np.random.default_rng(seed)
    word = random_diagonal_word(rng, 2, 2, max_length=5)
    got = real.scalar_moment(word)
    want = monotone_moment_formula(word, s1.functional, s2.functional)
    assert got == pytest.approx(want, abs=1e-10)
