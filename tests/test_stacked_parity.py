"""The BLAS tensor Gram and the stacked samplers against their originals.

``reference_tensor_gram`` is the two-operand ``einsum`` the package used
for the Gram of E1 (x)_B E2 before it became two matrix products.  The two
must agree to 1e-13 of the entrywise rounding scale |coords| (|G2| |L|) of
the products, and to 1e-13 of the Gram's largest entry wherever the tower
is well conditioned; a diagonal block that is exactly zero in one must be
exactly zero in the other, since the tower drops a word only on an exact
zero.

``reference_random_alternating_word``, ``reference_random_window_operator``
and ``reference_sample_alternating_ops`` draw letter by letter and vector
by vector, as the package did before it drew each word as one stack, and
``reference_random_unital_cp`` draws one map on its own algebra, as the
package did before it drew a check's maps as one stack.  The stacked draws
must give the same samples, bit for bit, and leave the random stream in the
same state: k samples from one call equal k single draws.
"""

import numpy as np
import pytest

from ncprob import independence, suites
from ncprob.algebra_core import cp_from_kraus, diagonal_algebra, full_matrix_algebra, pauli_algebra
from ncprob.dilation import (
    _random_increment_words,
    _window_draws,
    _window_operators,
    _window_vectors,
    central_unit_fiber,
    dilate_discrete,
    markov_scenario,
    random_unital_cp,
    random_unital_cps,
    scalar_fiber,
    white_noise_scenario,
)
from ncprob.dilation import _window_blocks, _window_draws
from ncprob.hilbert_module import rank_one_blocks, tensor_gram
from ncprob.independence import (
    random_alternating_word,
    random_alternating_words,
    random_hermitian_elements,
)
from ncprob.linalg import block_matrix


def random_window_operator(system, width: int, rng: np.random.Generator) -> np.ndarray:
    """Blocks of a random finite-rank operator on E_width, drawn as the
    stacked window letters are drawn: the sum of two rank-ones between dense
    random vectors."""
    (blocks,) = _window_blocks(system, [width], _window_draws(system, [width], rng))
    return blocks


# ---------------------------------------------------------------------------
# the references


def reference_tensor_gram(e1, e2):
    n1, n2, d0 = e1.rank, e2.rank, e2.base.ambient_dim
    coords, _ = e1.base.coords_many(e1.gram.reshape(n1 * n1, *e1.gram.shape[2:]))
    acts = np.einsum("pm,mjkab->pjkab", coords, np.ascontiguousarray(e2.left.blocks))
    return np.einsum(
        "jkab,iIkJbc->ijIJac", np.ascontiguousarray(e2.gram), acts.reshape(n1, n1, n2, n2, d0, d0)
    ).reshape(n1 * n2, n1 * n2, d0, d0)


def _reference_element(algebra, g):
    """The Hermitian letter the package made from the complex draw ``g``."""
    h = (g + g.conj().T) / 2
    top = float(np.max(np.abs(np.linalg.eigvalsh(h)))) or 1.0
    c, _ = algebra.coords(h * (2.0 / top))
    d = algebra.ambient_dim
    mat = np.dot(c.reshape(1, -1), algebra.basis.reshape(len(c), d * d)).reshape(d, d)
    return (mat + mat.conj().T) / 2


def _reference_legs(rng, max_length):
    length = int(rng.integers(1, max_length + 1))
    legs = [int(rng.integers(1, 3))]
    while len(legs) < length:
        legs.append(3 - legs[-1] if rng.random() < 0.8 else legs[-1])
    return legs


def reference_random_alternating_word(algebra1, algebra2, rng, max_length=6):
    letters = []
    for leg in _reference_legs(rng, max_length):
        alg = algebra1 if leg == 1 else algebra2
        d = alg.ambient_dim
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        letters.append((leg, _reference_element(alg, g)))
    return letters


def whole_word_order_word(algebra1, algebra2, rng, max_length=6):
    """The same draws in another order: every real block of the word, then
    every imaginary block.  The parity comparison must reject it."""
    legs = _reference_legs(rng, max_length)
    algs = [algebra1 if leg == 1 else algebra2 for leg in legs]
    real = [rng.normal(size=(a.ambient_dim,) * 2) for a in algs]
    imag = [rng.normal(size=(a.ambient_dim,) * 2) for a in algs]
    return [(leg, _reference_element(a, re + 1j * im)) for leg, a, re, im in zip(legs, algs, real, imag)]


def reference_random_module_vector(module, base, rng):
    coeffs = rng.normal(size=(module.rank, base.dim)) + 1j * rng.normal(size=(module.rank, base.dim))
    coeffs /= np.sqrt(2.0 * module.rank * base.dim)
    return np.einsum("im,mab->iab", coeffs, base.basis)


def reference_window_vectors(system, width, rng):
    e = system.powers[width]
    return [reference_random_module_vector(e, system.base, rng) for _ in range(4)]


def reference_random_window_operator(system, width, rng):
    gram = system.powers[width].gram
    x1, y1, x2, y2 = reference_window_vectors(system, width, rng)
    return rank_one_blocks(gram, x1, y1) + rank_one_blocks(gram, x2, y2)


def reference_sample_alternating_ops(system, r, s, t, rng, max_word_length):
    length = int(rng.integers(1, max_word_length + 1))
    first = int(rng.integers(1, 3))
    letters = []
    for pos in range(length):
        leg = first if pos % 2 == 0 else 3 - first
        width = (t - s) if leg == 1 else (s - r)
        letters.append((leg, reference_random_window_operator(system, width, rng)))
    return letters


def reference_random_unital_cp(dim, rng):
    a = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    s = np.einsum("kba,kbc->ac", a.conj(), a)
    lam, u = np.linalg.eigh(s)
    inv_root = (u / np.sqrt(lam)) @ u.conj().T
    return cp_from_kraus(full_matrix_algebra(dim), [mat @ inv_root for mat in a])


def _same_letters(got, want) -> bool:
    """Same legs and bit-identical letters, sign of zero included."""
    return len(got) == len(want) and all(
        g_leg == w_leg and g.shape == w.shape and g.tobytes() == w.tobytes()
        for (g_leg, g), (w_leg, w) in zip(got, want)
    )


# ---------------------------------------------------------------------------
# the tensor Gram


def _relative_gap(got, want) -> float:
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def _componentwise_gap(got, want, e1, e2) -> float:
    """Worst |got - want| over |coords| (|G2| |L|), the entrywise scale that
    bounds the rounding error of either form; where that scale is 0 the two
    must agree exactly (inf otherwise)."""
    n1, n2, d0 = e1.rank, e2.rank, e2.base.ambient_dim
    coords, _ = e1.base.coords_many(e1.gram.reshape(n1 * n1, *e1.gram.shape[2:]))
    h = np.abs(block_matrix(e2.gram)) @ np.abs(block_matrix(e2.left.blocks))
    scale = (np.abs(coords) @ h.reshape(len(h), -1)).reshape(n1, n1, n2 * d0, n2 * d0)
    scale = scale.transpose(0, 2, 1, 3).reshape(n1 * n2 * d0, -1)
    gap = np.abs(block_matrix(got) - block_matrix(want))
    if gap[scale == 0].any():
        return float("inf")
    return float((gap[scale > 0] / scale[scale > 0]).max(initial=0.0))


def _zero_diagonal(gram) -> np.ndarray:
    n = len(gram)
    return ~gram[np.arange(n), np.arange(n)].any(axis=(1, 2))


_M2 = full_matrix_algebra(2)
_TOWERS = {
    "random-cp-7": lambda: dilate_discrete(random_unital_cp(2, np.random.default_rng(7)), 4).system,
    "random-cp-25": lambda: dilate_discrete(random_unital_cp(2, np.random.default_rng(25)), 4).system,
    "scalar-base": lambda: white_noise_scenario(*scalar_fiber(3), horizon=4).system,
    "central-unit-m2": lambda: white_noise_scenario(*central_unit_fiber(_M2, 2), horizon=4).system,
    "chain-diagonal": lambda: markov_scenario(np.array([[0.5, 0.5], [0.3, 0.7]]), 4).system,
    "chain-with-zeros": lambda: markov_scenario(
        np.array([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]), 4
    ).system,
}


@pytest.mark.parametrize("label", list(_TOWERS))
def test_tensor_gram_matches_the_einsum_on_every_level_pair(label):
    system = _TOWERS[label]()
    for m in range(1, system.horizon):
        for n in range(1, system.horizon - m + 1):
            em, en = system.powers[m], system.powers[n]
            got, want = tensor_gram(em, en), reference_tensor_gram(em, en)
            assert got.shape == want.shape
            assert _componentwise_gap(got, want, em, en) < 1e-13, (label, m, n)
            if label != "random-cp-25":
                assert _relative_gap(got, want) < 1e-13, (label, m, n)
            assert np.array_equal(_zero_diagonal(got), _zero_diagonal(want)), (label, m, n)


def test_an_ill_conditioned_tower_moves_only_within_its_rounding_scale():
    # seed 25's fiber is nearly dependent (smallest level-4 Gram eigenvalue
    # 4e-14) and its left action has entries near 4e3, so both forms cancel
    # large terms: they differ by about 1e-12 of the Gram's largest entry,
    # yet by under 1e-15 of the entrywise scale |coords| (|G2| |L|)
    system = _TOWERS["random-cp-25"]()
    em, en = system.powers[1], system.powers[3]
    got, want = tensor_gram(em, en), reference_tensor_gram(em, en)
    assert _relative_gap(got, want) > 1e-13
    assert _componentwise_gap(got, want, em, en) < 1e-14


def test_tensor_gram_result_is_a_view_of_its_flat_matrix():
    system = _TOWERS["random-cp-7"]()
    gram = tensor_gram(system.powers[2], system.fiber)
    assert np.shares_memory(block_matrix(gram), gram)
    assert block_matrix(gram).flags.c_contiguous


@pytest.mark.parametrize(
    "p, horizon, ranks",
    [
        (np.roll(np.eye(4), 1, axis=1), 6, [1] + [4] * 6),
        (np.array([[1.0, 0.0], [0.5, 0.5]]), 8, list(range(1, 10))),
        ((np.ones((3, 3)) - np.eye(3)) / 2, 5, [1, 3, 6, 12, 24, 48]),
    ],
    ids=["permutation-h6", "absorbing-h8", "zero-diagonal-h5"],
)
def test_sparse_chains_keep_their_exact_zeros(p, horizon, ranks):
    system = markov_scenario(p, horizon).system
    assert [e.rank for e in system.powers] == ranks
    for k in range(1, horizon):
        got = tensor_gram(system.powers[k], system.fiber)
        want = reference_tensor_gram(system.powers[k], system.fiber)
        assert np.array_equal(_zero_diagonal(got), _zero_diagonal(want)), k
        assert _relative_gap(got, want) < 1e-13, k
        assert _componentwise_gap(got, want, system.powers[k], system.fiber) < 1e-13, k


# ---------------------------------------------------------------------------
# the stacked samplers

_ALGEBRAS = {
    "m2": (full_matrix_algebra(2), full_matrix_algebra(2)),
    "pauli": (pauli_algebra(), pauli_algebra()),
    "diag3": (diagonal_algebra(3), diagonal_algebra(3)),
    "m2-diag3": (full_matrix_algebra(2), diagonal_algebra(3)),
    "m3-pauli": (full_matrix_algebra(3), pauli_algebra()),
}


@pytest.mark.parametrize("label", list(_ALGEBRAS))
def test_stacked_word_draws_the_per_letter_letters(label):
    alg1, alg2 = _ALGEBRAS[label]
    for seed in (0, 7, 2003):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(40):
            word = random_alternating_word(alg1, alg2, rng, 6)
            assert _same_letters(word.letters, reference_random_alternating_word(alg1, alg2, ref, 6))
            assert rng.bit_generator.state == ref.bit_generator.state


def test_the_same_algebra_on_both_legs_draws_one_stack():
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(40):
        word = random_alternating_word(_M2, _M2, rng, 6)
        assert _same_letters(word.letters, reference_random_alternating_word(_M2, _M2, ref, 6))


def test_the_parity_check_rejects_whole_word_draw_order():
    alg1, alg2 = _ALGEBRAS["m2-diag3"]
    rng, other = np.random.default_rng(3), np.random.default_rng(3)
    mismatched = 0
    for _ in range(40):
        word = random_alternating_word(alg1, alg2, rng, 6)
        mismatched += not _same_letters(word.letters, whole_word_order_word(alg1, alg2, other, 6))
        assert rng.bit_generator.state == other.bit_generator.state
    # every word of two or more letters draws in another order
    assert mismatched > 20


_WINDOW_TOWERS = {
    "central-unit-m2": lambda: white_noise_scenario(*central_unit_fiber(_M2, 2), horizon=3).system,
    "scalar-base": lambda: white_noise_scenario(*scalar_fiber(2), horizon=3).system,
    "random-cp": lambda: dilate_discrete(random_unital_cp(2, np.random.default_rng(7)), 3).system,
    "chain": lambda: markov_scenario(np.array([[0.5, 0.5], [0.3, 0.7]]), 3).system,
}


@pytest.mark.parametrize("label", list(_WINDOW_TOWERS))
def test_stacked_window_operators_draw_the_per_vector_operators(label):
    system = _WINDOW_TOWERS[label]()
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for width in (1, 2, 3, 2, 1):
        got = random_window_operator(system, width, rng)
        assert got.shape[:2] == (system.powers[width].rank,) * 2
        assert got.tobytes() == reference_random_window_operator(system, width, ref).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
    # the vectors themselves, and the swapped pairs that make an adjoint
    for width in (1, 3):
        (got,) = _window_vectors(system, [width], _window_draws(system, [width], rng))
        want = reference_window_vectors(system, width, ref)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        e = system.powers[width]
        swapped = rank_one_blocks(e.gram, want[1], want[0]) + rank_one_blocks(e.gram, want[3], want[2])
        assert _window_operators(e, got[[1, 0, 3, 2]]).tobytes() == swapped.tobytes()


@pytest.mark.parametrize("label", list(_WINDOW_TOWERS))
def test_stacked_increment_words_draw_the_per_letter_words(label):
    system = _WINDOW_TOWERS[label]()
    # windows of unequal width for the two legs
    for r, s, t in ((0, 1, 3), (0, 2, 3)):
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(25):
            (got,) = _random_increment_words(system, r, s, t, rng, 1, 6)
            want = reference_sample_alternating_ops(system, r, s, t, ref, 6)
            assert _same_letters(got, want), (label, r, s, t)
            assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# k samples from one call against k single draws

SEEDS = (7, 42, 2003)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", ["m2", "m2-diag3", "m3-pauli"])
def test_one_call_draws_the_words_of_single_draws(label, seed):
    alg1, alg2 = _ALGEBRAS[label]
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    words = random_alternating_words(alg1, alg2, rng, 60, 6)
    assert len(words) == 60
    for word in words:
        assert _same_letters(word.letters, reference_random_alternating_word(alg1, alg2, ref, 6))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", ["central-unit-m2", "scalar-base", "random-cp"])
def test_one_call_draws_the_increment_words_of_single_draws(label, seed):
    system = _WINDOW_TOWERS[label]()
    # unequal window widths, and (1, 2, 3) with both legs one step wide
    for r, s, t in ((0, 1, 3), (0, 2, 3), (1, 2, 3)):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        words = _random_increment_words(system, r, s, t, rng, 40, 6)
        assert len(words) == 40
        for got in words:
            want = reference_sample_alternating_ops(system, r, s, t, ref, 6)
            assert _same_letters(got, want), (label, r, s, t)
        assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", SEEDS)
def test_one_call_draws_the_hermitian_elements_of_single_draws(seed):
    m3 = full_matrix_algebra(3)
    algebras = [_M2, diagonal_algebra(3), pauli_algebra(), m3, _M2] * 8
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_hermitian_elements(algebras, rng)
    for alg, mat in zip(algebras, got):
        d = alg.ambient_dim
        want = _reference_element(alg, ref.normal(size=(d, d)) + 1j * ref.normal(size=(d, d)))
        assert mat.tobytes() == want.tobytes()
    assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", [2, 3])
def test_one_call_draws_the_cp_maps_of_single_draws(dim, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    maps = random_unital_cps(dim, rng, 30)
    for pmap in maps:
        want = reference_random_unital_cp(dim, ref)
        assert pmap.matrix.tobytes() == want.matrix.tobytes()
        assert pmap.domain.basis.tobytes() == want.domain.basis.tobytes()
    assert rng.random() == ref.random()
    # one algebra is built for the whole stack
    assert all(pmap.domain is maps[0].domain for pmap in maps)
    one = np.random.default_rng(seed)
    assert random_unital_cp(dim, one).matrix.tobytes() == maps[0].matrix.tobytes()


# ---------------------------------------------------------------------------
# the tower's kept pairs


@pytest.mark.parametrize(
    "build, drops",
    [
        (lambda: markov_scenario((np.ones((3, 3)) - np.eye(3)) / 2, 4).system, True),
        (lambda: dilate_discrete(random_unital_cp(2, np.random.default_rng(7)), 3).system, False),
    ],
    ids=["chain-zero-diagonal-h4", "random-cp-h3"],
)
def test_kept_pairs_are_memoised_read_only(build, drops):
    system = build()
    n1 = system.fiber.rank
    dropped = False
    for level in range(system.horizon + 1):
        for steps in range(system.horizon - level + 1):
            i, u = system._kept(level, steps)
            words = system.codes[level][:, None] * n1**steps + system.codes[steps]
            want_i, want_u = np.nonzero(np.isin(words, system.codes[level + steps]))
            assert np.array_equal(i, want_i) and np.array_equal(u, want_u)
            assert not i.flags.writeable and not u.flags.writeable
            again = system._kept(level, steps)
            assert again[0] is i and again[1] is u
            dropped |= len(i) < words.size
    assert dropped == drops


@pytest.mark.parametrize("suite", ["monotone", "conditional-monotone", "white-noise"])
def test_the_stack_size_does_not_change_a_report(monkeypatch, suite):
    config = suites.RunConfig(seed=7, trials=30)
    want = suites.run_suite(suite, config)
    # 30 words in stacks of 7: four full stacks and one of 2
    monkeypatch.setattr(independence, "WORD_STACK", 7)
    assert list(independence.word_stacks(30)) == [7, 7, 7, 7, 2]
    assert suites.run_suite(suite, config) == want
