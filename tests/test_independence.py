"""Independence constructions against brute-force oracles.

The oracles here are deliberately primitive: plain Hilbert-space models
built with ``np.kron`` for the scalar constructions, and exhaustive
enumeration of classical outcomes for the coins game.  The module-based
realizations must reproduce them.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncprob import (
    AlternatingWord,
    MapKind,
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
    identity_operator,
    map_from_images,
    monotone_moment_formula,
    monotone_realize,
    operator_distance,
    random_alternating_word,
    state_from_density,
    tensor_moment_formula,
    tensor_realize,
    verify_independence,
    verify_positive_map,
)
from ncprob.linalg import dag, frob, random_density, random_hermitian

X = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


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
    assert rep.passed, f"monotone worst residual {rep.worst_residual}"

    tens = tensor_realize(s1, s2)
    rep = verify_independence(
        tens,
        lambda w: tensor_moment_formula(w, s1.functional, s2.functional),
        words,
        tol=1e-9,
    )
    assert rep.passed, f"tensor worst residual {rep.worst_residual}"


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


def test_monotone_order_matters(coin_pair):
    s1, s2 = coin_pair
    word = AlternatingWord([(2, X), (1, X), (2, X), (1, X), (2, X)])
    forward = monotone_moment_formula(word, s1.functional, s2.functional)
    # swapping the legs swaps which state sees the fused product
    backward = monotone_moment_formula(
        word.swap_legs(), s2.functional, s1.functional
    )
    assert abs(forward - backward) > 0.01


def test_sandwiched_letter_collapses_to_its_mean(coin_pair):
    """embed1(f') embed2(g) embed1(f) collapses to a scalar times embed1(f'f)."""
    s1, s2 = coin_pair
    real = monotone_realize(s1, s2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = np.diag(rng.uniform(-2, 2, size=2)).astype(complex)
        fp = np.diag(rng.uniform(-2, 2, size=2)).astype(complex)
        g = np.diag(rng.uniform(-2, 2, size=2)).astype(complex)
        lhs = real.embed1(fp) @ real.embed2(g) @ real.embed1(f)
        scalar = complex(s2.functional.apply(g)[0, 0])
        rhs = scalar * real.embed1(fp @ f)
        assert operator_distance(lhs, rhs) < 1e-10


def test_monotone_unit_letter_is_projection(coin_pair):
    s1, s2 = coin_pair
    real = monotone_realize(s1, s2)
    p = real.embed1(I2)
    assert operator_distance(p @ p, p) < 1e-12
    assert operator_distance(p, identity_operator(real.carrier)) > 0.1
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
    for embed in (real.embed2, real.embed1):
        assert adjoint_gap(real.carrier, embed(a).blocks, embed(dag(a)).blocks) <= 1e-9


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
    """Negative control: leg 2 conjugated by S = 1 + N/2, N = embed1(E12).

    N^2 = embed1(E12^2) = 0, so S^-1 = 1 - N/2 and the conjugated leg is
    still a homomorphism; S is not unitary, so it is no longer a *-map.
    """
    real = build()
    nil = 0.5 * real.embed1(np.array([[0, 1], [0, 0]], dtype=complex))
    one = identity_operator(real.carrier)
    s, s_inv = one + nil, one - nil
    assert operator_distance(s @ s_inv, one) < 1e-12
    similar = dataclasses.replace(real, embed2=lambda a: s @ real.embed2(a) @ s_inv)
    honest = {c.name: c for c in real.verify().checks}
    rows = {c.name: c for c in similar.verify().checks}
    assert honest["leg2-star"].passed
    assert not rows["leg2-star"].passed and rows["leg2-star"].residual > 0.1
    assert rows["leg2-multiplicative"].passed
    assert rows["leg1-star"].passed and rows["leg1-multiplicative"].passed


def test_sandwich_identity(compressed_pair):
    """embed2(a) embed1(b) embed2(c) = embed2(a E1(b) c) as operators."""
    m2, comp, real = compressed_pair
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b, c = (random_hermitian(2, rng) for _ in range(3))
        lhs = real.embed2(a) @ real.embed1(b) @ real.embed2(c)
        rhs = real.embed2(a @ comp.apply(b) @ c)
        assert operator_distance(lhs, rhs) < 1e-10


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
        via_monotone = monotone_moment_formula(word.swap_legs(), s2, s1)
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
# moments from cached basis images against the operator chain


def _realization_of(kind: str):
    rng = np.random.default_rng(31)
    m2 = full_matrix_algebra(2)
    if kind in ("tensor", "monotone"):
        s1, s2 = (
            QuantumProbabilitySpace(m2, state_from_density(m2, random_density(2, rng)))
            for _ in range(2)
        )
        return (tensor_realize if kind == "tensor" else monotone_realize)(s1, s2)
    if kind == "conditional-monotone":
        comp = diagonal_compression(2, m2)
        return conditional_monotone_embed(gns_construct(comp), gns_construct(comp), m2, m2)
    s1, s2, _ = coins_game()
    return conditional_tensor_realize(s1, s2).realization


def _operator_chain_moment(real, word):
    # the reference: one embedded operator per letter, applied right to left
    v = real.vacuum
    for leg, mat in reversed(word.letters):
        v = real.embed(leg, mat)(v)
    return real.carrier.inner(real.vacuum, v)


REALIZATION_KINDS = ["tensor", "monotone", "conditional-monotone", "conditional-tensor"]


@pytest.mark.parametrize("kind", REALIZATION_KINDS)
def test_moment_matches_operator_chain(kind):
    real = _realization_of(kind)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        word = random_alternating_word(real.algebra1, real.algebra2, rng)
        worst = max(worst, frob(real.moment(word) - _operator_chain_moment(real, word)))
    assert worst <= 1e-12


@pytest.mark.parametrize("kind", REALIZATION_KINDS)
def test_verify_checks_the_operators_moment_applies(kind):
    real = _realization_of(kind)
    for leg in (1, 2):
        images, ops = real.basis_images(leg)
        assert real.basis_images(leg)[0] is images  # built once per realization
        assert all(np.shares_memory(op.blocks, images) for op in ops)
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


# ---------------------------------------------------------------------------
# word mechanics


def test_word_normalization_fuses_only_adjacent_same_leg():
    w = AlternatingWord([(1, X), (1, X), (2, X), (1, I2), (2, X)])
    n = w.normalized()
    assert [leg for leg, _ in n.letters] == [1, 2, 1, 2]
    assert np.allclose(n.letters[0][1], X @ X)


def test_word_membership_check():
    alg = diagonal_algebra(2)
    off = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(StructuralError, match="leg 2"):
        AlternatingWord([(1, X), (2, off)]).check_membership(alg, alg)


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
