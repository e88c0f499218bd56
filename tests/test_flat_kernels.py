"""Flat M_n(B) kernels against independent references.

Block arithmetic runs on the flat (n*d0, n*d0) view while the public layout
stays (n, n, d0, d0).  The references here are written independently of
that: the einsum contractions the kernels replaced, and per-generator loops
that follow the definitions of the tensor and tower plumbing one vector at
a time.
"""

import itertools

import numpy as np
import pytest

from ncprob.algebra_core import StructuralError, scalar_algebra
from ncprob.dilation import (
    DiscreteProductSystem,
    dilate_discrete,
    markov_scenario,
    random_unital_cp,
    random_window_operator,
)
from ncprob.hilbert_module import (
    AdjointableOperator,
    HilbertModule,
    apply_blocks,
    compose_blocks,
    identity_operator,
    inner_product,
    left_action_operator,
    tensor_over_base,
    trivial_left_action,
)
from ncprob.linalg import block_matrix, frob, unblock


def ref_inner(gram, x, y):
    return np.einsum("iba,ijbc,jcd->ad", x.conj(), gram, y)


def ref_apply(blocks, x):
    return np.einsum("ijab,jbc->iac", blocks, x)


def ref_compose(a, b):
    return np.einsum("ikab,kjbc->ijac", a, b)


def _random(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("d0", [1, 2, 3])
def test_kernels_match_einsum_on_non_square_shapes(d0):
    rng = np.random.default_rng(d0)
    a = _random(rng, 4, 3, d0, d0)
    b = _random(rng, 3, 5, d0, d0)
    x = _random(rng, 3, d0, d0)
    y = _random(rng, 4, d0, d0)
    gram = _random(rng, 4, 4, d0, d0)
    assert frob(compose_blocks(a, b) - ref_compose(a, b)) < 1e-12
    assert frob(apply_blocks(a, x) - ref_apply(a, x)) < 1e-12
    assert frob(inner_product(gram, y, y[::-1]) - ref_inner(gram, y, y[::-1])) < 1e-12
    assert compose_blocks(a, b).shape == (4, 5, d0, d0)
    assert apply_blocks(a, x).shape == (4, d0, d0)
    assert inner_product(gram, y, y).shape == (d0, d0)


@pytest.mark.parametrize("d0", [1, 2, 3])
def test_kernel_results_are_views_of_their_flat_matrix(d0):
    rng = np.random.default_rng(10 + d0)
    a = _random(rng, 3, 4, d0, d0)
    b = _random(rng, 4, 2, d0, d0)
    ab = compose_blocks(a, b)
    flat = block_matrix(ab)
    assert np.shares_memory(flat, ab)
    assert frob(unblock(flat, d0) - ab) == 0.0
    # chaining through the flat view agrees with the einsum chain
    c = _random(rng, 2, 3, d0, d0)
    assert frob(compose_blocks(ab, c) - ref_compose(ref_compose(a, b), c)) < 1e-12


# ---------------------------------------------------------------------------
# loop references on a horizon-3 tower


def dependent_fiber():
    """A fiber over the scalars whose generators satisfy e_1 = 2 e_0."""
    base = scalar_algebra()
    gram = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]).reshape(3, 3, 1, 1)
    unit = np.eye(3)[0].reshape(3, 1, 1)
    return HilbertModule(base, gram, trivial_left_action(3, base), {"unit": unit})


@pytest.fixture(scope="module", params=["random-cp", "pruned-chain", "dependent-fiber"])
def tower(request):
    """Towers over a full matrix base, a pruned chain and a dependent fiber.

    In the pruned chain state 0 is absorbing, so paths leaving it have
    weight zero and the tower drops their words.  The tower quotients the
    dependent fiber to its two independent generators.  The raw tensor
    products of :func:`raw` keep every pair; the reduced ones of
    :func:`reduced` drop null pairs and rewrite dependent pairs over the
    survivors with nonzero coefficients.
    """
    if request.param == "random-cp":
        return dilate_discrete(random_unital_cp(2, np.random.default_rng(5)), 3).system
    if request.param == "pruned-chain":
        return markov_scenario(np.array([[1.0, 0.0], [0.5, 0.5]]), 3).system
    fiber = dependent_fiber()
    return DiscreteProductSystem.build(fiber.base, fiber, 3)


@pytest.fixture(scope="module")
def chain():
    return markov_scenario(np.array([[0.5, 0.5], [0.3, 0.7]]), 3).system


def raw(system, level):
    """E_level (x) E_1 on all pairs, null ones included."""
    return tensor_over_base(system.powers[level], system.fiber, reduce=False)


def kept_pairs(system, level):
    """Indices among the raw pairs of E_level (x) E_1 of the generators of E_{level+1}."""
    n1 = system.fiber.rank
    pairs = (system.codes[level][:, None] * n1 + np.arange(n1)).ravel()
    return np.flatnonzero(np.isin(pairs, system.codes[level + 1]))


def reduced(system, level):
    """E_level (x) F on a minimal generating subset of the raw pairs.

    F is the tower's fiber, except over the scalars, where it is the
    dependent fiber as given, before the tower quotients it.
    """
    right = dependent_fiber() if system.base.dim == 1 else system.fiber
    return tensor_over_base(system.powers[level], right, reduce=True)


def words(system, k):
    """The generators of E_k: length-k letter words, lexicographic."""
    n1 = system.fiber.rank
    return [tuple(int(c) // n1 ** (k - 1 - t) % n1 for t in range(k)) for c in system.codes[k]]


def word_index(system, w):
    return words(system, len(w)).index(tuple(w))


def loop_tensor_vector(tensor, x, y):
    """x o y by the definition: (x[i] . y)[j] on every raw pair (i, j)."""
    e2 = tensor.right_factor
    raw = np.stack([ref_apply(e2.left.blocks_of(x[i]), y)[j] for i, j in tensor.pairs])
    info = tensor.info
    return raw if info is None else ref_apply(info.rewrite, raw)


def loop_rewrite(tensor, raw_blocks):
    """R raw J, with J selecting the survivors among the raw pairs and R
    rewriting the raw pairs over them; the raw blocks when nothing is reduced."""
    info = tensor.info
    if info is None:
        return raw_blocks
    return ref_compose(info.rewrite, raw_blocks[:, info.survivors])


def loop_word_gram(fiber, word):
    """<e_w, e_w> of a letter word by the definition, <e_j, <e_p, e_p> . e_j>."""
    g = fiber.base.unit
    for letter in word:
        e = fiber.generator(letter)
        g = ref_inner(fiber.gram, e, ref_apply(fiber.left.blocks_of(g), e))
    return g


def loop_op_left(tensor, s_blocks):
    e2 = tensor.right_factor
    n = len(tensor.pairs)
    raw = np.zeros((n, n, *s_blocks.shape[2:]), dtype=complex)
    for a, (ii, jj) in enumerate(tensor.pairs):
        for b, (i, j) in enumerate(tensor.pairs):
            raw[a, b] = e2.left.blocks_of(s_blocks[ii, i])[jj, j]
    return loop_rewrite(tensor, raw)


def loop_op_right(tensor, s_blocks):
    n = len(tensor.pairs)
    raw = np.zeros((n, n, *s_blocks.shape[2:]), dtype=complex)
    for a, (ii, jj) in enumerate(tensor.pairs):
        for b, (i, j) in enumerate(tensor.pairs):
            if ii == i:
                raw[a, b] = s_blocks[jj, j]
    return loop_rewrite(tensor, raw)


def loop_extend(system, v, letters, level):
    """v (x) e_letters by the definition, one letter at a time: (v[i] . e_l)[j]
    on every pair (i, j), keeping the pairs whose word is a generator."""
    fiber = system.fiber
    for step, letter in enumerate(letters):
        gen = fiber.generator(letter)
        pairs = [ref_apply(fiber.left.blocks_of(vi), gen)[j] for vi in v for j in range(fiber.rank)]
        v = np.stack(pairs)[kept_pairs(system, level + step)]
    return v


def test_tensor_vector_matches_loop(tower):
    system = tower
    rng = np.random.default_rng(0)
    for level in (1, 2):
        x = random_window_operator(system, level, rng).blocks[:, 0]
        for tensor in (raw(system, level), reduced(system, level)):
            right = tensor.right_factor
            y = right.distinguished["unit"] + 0.5 * right.generator(1)
            assert frob(tensor.tensor_vector(x, y) - loop_tensor_vector(tensor, x, y)) < 1e-12


def test_op_left_matches_loop(tower):
    system = tower
    rng = np.random.default_rng(1)
    for level in (1, 2):
        s = random_window_operator(system, level, rng)
        for tensor in (raw(system, level), reduced(system, level)):
            lifted = tensor.op_left(s)
            assert frob(lifted.blocks - loop_op_left(tensor, s.blocks)) < 1e-12


def test_op_right_matches_loop(chain):
    # over the commutative base of a chain, the action of a function commutes
    # with the base action, so id o S is defined; the pruned chain's reduced
    # tensor rewrites over its surviving pairs
    pruned = markov_scenario(np.array([[1.0, 0.0], [0.5, 0.5]]), 3).system
    pruned_tensor = reduced(pruned, 2)
    assert len(pruned_tensor.info.survivors) < len(pruned_tensor.pairs)
    s_blocks = left_action_operator(chain.fiber, np.diag([0.3, -1.2]).astype(complex)).blocks
    for system, tensor in ((chain, raw(chain, 2)), (pruned, pruned_tensor)):
        right = tensor.op_right(AdjointableOperator(system.fiber, s_blocks))
        assert frob(right.blocks - loop_op_right(tensor, s_blocks)) < 1e-12


def test_tower_drops_exactly_the_null_words(tower):
    system = tower
    n1 = system.fiber.rank
    for k in range(system.horizon + 1):
        nonnull = [
            w
            for w in itertools.product(range(n1), repeat=k)
            if frob(loop_word_gram(system.fiber, w)) > 1e-12
        ]
        assert words(system, k) == nonnull
        assert system.powers[k].rank == len(nonnull)
    for level in range(system.horizon + 1):
        ident = identity_operator(system.powers[level]).blocks
        for steps in range(system.horizon - level + 1):
            lifted = system.theta_blocks(ident, level, steps)
            assert np.array_equal(lifted, identity_operator(system.powers[level + steps]).blocks)


def test_tower_ranks_drop_null_and_dependent_generators():
    # the absorbing chain keeps one path per exit time; the dependent fiber
    # is quotiented once, and its tensor powers keep every pair
    pruned = markov_scenario(np.array([[1.0, 0.0], [0.5, 0.5]]), 5).system
    assert [p.rank for p in pruned.powers] == [1, 2, 3, 4, 5, 6]
    fiber = dependent_fiber()
    tower = DiscreteProductSystem.build(fiber.base, fiber, 5)
    assert [p.rank for p in tower.powers] == [1, 2, 4, 8, 16, 32]


def test_theta_blocks_matches_column_loop(tower):
    system = tower
    rng = np.random.default_rng(2)
    for level, steps in ((1, 1), (1, 2), (2, 1), (0, 3)):
        a = random_window_operator(system, level, rng).blocks
        want = np.stack(
            [
                loop_extend(system, a[:, word_index(system, w[:level])], w[level:], level)
                for w in words(system, level + steps)
            ],
            axis=1,
        )
        assert frob(system.theta_blocks(a, level, steps) - want) < 1e-12


def test_isometry_blocks_match_word_loop(tower):
    system = tower
    for width, level in ((1, 3), (2, 3), (1, 2), (0, 2)):
        gap = level - width
        v, vstar = system.isometry_blocks(width, level)
        want_v = np.stack(
            [loop_extend(system, system.units[gap], w, gap) for w in words(system, width)], axis=1
        )
        assert frob(v - want_v) < 1e-12
        e_gap, e_w = system.powers[gap], system.powers[width]
        columns = []
        for w in words(system, level):
            overlap = ref_inner(
                e_gap.gram, system.units[gap], e_gap.generator(word_index(system, w[:gap]))
            )
            reduced_tail = loop_extend(system, system.powers[0].generator(0), w[gap:], 0)
            columns.append(ref_apply(e_w.left.blocks_of(overlap), reduced_tail))
        assert frob(vstar - np.stack(columns, axis=1)) < 1e-12


def test_identify_matches_word_loop(tower):
    system = tower
    rng = np.random.default_rng(3)
    x = random_window_operator(system, 1, rng).blocks[:, 1]
    y = random_window_operator(system, 2, rng).blocks[:, 2]
    want = sum(loop_extend(system, x, w, 1) @ y[k] for k, w in enumerate(words(system, 2)))
    assert frob(system.identify(1, 2, x, y) - want) < 1e-12
    assert frob(system.identify(1, 2, x, np.zeros_like(y))) == 0.0
    assert system.identify(1, 2, x, np.zeros_like(y)).shape == system.units[3].shape


def test_vector_functional_matches_loop(tower):
    # <x, a x> one basis element at a time, through each element's operator
    top = tower.powers[tower.horizon]
    x = random_window_operator(tower, tower.horizon, np.random.default_rng(4)).blocks[:, 0]
    basis = tower.base.basis
    want = np.stack([top.inner(x, apply_blocks(top.left.blocks_of(b), x)) for b in basis])
    assert frob(top.vector_functional(x, basis) - want) < 1e-12


def test_coefficients_outside_the_base_still_raise(chain):
    # over the diagonal base of a chain an off-diagonal coefficient is not a
    # vector of the module; the batched plumbing must refuse it
    outside = np.ones((chain.fiber.rank, 2, 2), dtype=complex)
    with pytest.raises(StructuralError, match="not in the acting algebra"):
        raw(chain, 1).tensor_vector(outside, chain.units[1])
    with pytest.raises(StructuralError, match="not in the acting algebra"):
        chain.extend(outside, 1, 1)
    blocks = np.ones((chain.fiber.rank, chain.fiber.rank, 2, 2), dtype=complex)
    with pytest.raises(StructuralError, match="not in the acting algebra"):
        raw(chain, 1).op_left(AdjointableOperator(chain.fiber, blocks))
    with pytest.raises(StructuralError, match="not in the acting algebra"):
        chain.fiber.vector_functional(chain.units[1], outside[:1])
    with pytest.raises(StructuralError, match="not in the acting algebra"):
        chain.fiber.left.operators(outside[:1])


def test_levels_equal_the_raw_tensor_product_on_the_kept_pairs(tower):
    # the build path the tower used to take: the raw E_{k-1} (x) E_1, then the
    # generators of E_k selected among its pairs
    system = tower
    for k in range(2, system.horizon + 1):
        product = raw(system, k - 1).module
        kept = kept_pairs(system, k - 1)
        assert np.array_equal(system.powers[k].gram, product.gram[np.ix_(kept, kept)])
        assert np.array_equal(system.powers[k].left.blocks, product.left.blocks[:, kept][:, :, kept])
        assert np.array_equal(system.units[k], product.distinguished["unit"][kept])


def test_raw_tensor_keeps_every_pair():
    # the absorbing chain has exactly null pairs; reduce=False keeps them all
    pruned = markov_scenario(np.array([[1.0, 0.0], [0.5, 0.5]]), 3).system
    tensor = raw(pruned, 2)
    n = pruned.powers[2].rank * pruned.fiber.rank
    assert tensor.info is None
    assert tensor.module.rank == len(tensor.pairs) == n
    diagonal = tensor.module.gram[np.arange(n), np.arange(n)]
    assert not diagonal.any(axis=(1, 2)).all()
    assert len(kept_pairs(pruned, 2)) < n


def test_operators_stack_the_blocks_of_each_element(tower):
    left = tower.powers[2].left
    rng = np.random.default_rng(6)
    coeffs = rng.normal(size=(3, left.algebra.dim)) + 1j * rng.normal(size=(3, left.algebra.dim))
    elements = np.einsum("km,mab->kab", coeffs, left.algebra.basis)
    want = np.stack([block_matrix(left.blocks_of(a)) for a in elements])
    assert np.array_equal(left.operators(elements), want)
