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

from ncprob.algebra_core import (
    MapKind,
    PositiveMap,
    StructuralError,
    algebra_from_basis,
    cp_from_stochastic,
    diagonal_algebra,
    diagonal_compression,
    full_matrix_algebra,
    map_from_images,
    normalized_trace_state,
    pauli_algebra,
    scalar_algebra,
    state_from_density,
    verify_positive_map,
)
from ncprob.dilation import (
    DiscreteProductSystem,
    dilate_discrete,
    markov_scenario,
    random_unital_cp,
    random_window_operator,
)
from ncprob.hilbert_module import (
    HilbertModule,
    apply_blocks,
    compose_blocks,
    gns_construct,
    identity_blocks,
    inner_product,
    tensor_over_base,
    trivial_left_action,
)
from ncprob.independence import (
    AlternatingWord,
    QuantumProbabilitySpace,
    conditional_monotone_embed,
    monotone_realize,
    random_alternating_words,
    tensor_realize,
)
from ncprob.linalg import block_matrix, frob, random_density, unblock


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
    dependent fiber to its two independent generators.  The tensor products
    of :func:`raw` keep every pair.
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
    return tensor_over_base(system.powers[level], system.fiber)


def kept_pairs(system, level):
    """Indices among the raw pairs of E_level (x) E_1 of the generators of E_{level+1}."""
    n1 = system.fiber.rank
    pairs = (system.codes[level][:, None] * n1 + np.arange(n1)).ravel()
    return np.flatnonzero(np.isin(pairs, system.codes[level + 1]))


def words(system, k):
    """The generators of E_k: length-k letter words, lexicographic."""
    n1 = system.fiber.rank
    return [tuple(int(c) // n1 ** (k - 1 - t) % n1 for t in range(k)) for c in system.codes[k]]


def word_index(system, w):
    return words(system, len(w)).index(tuple(w))


def pairs(tensor):
    """The raw pairs (i, j) of a tensor product, row-major."""
    return list(itertools.product(range(tensor.left_factor.rank), range(tensor.right_factor.rank)))


def loop_tensor_vector(tensor, x, y):
    """x o y by the definition: (x[i] . y)[j] on every raw pair (i, j)."""
    e2 = tensor.right_factor
    return np.stack([ref_apply(e2.left.blocks_of(x[i]), y)[j] for i, j in pairs(tensor)])


def loop_word_gram(fiber, word):
    """<e_w, e_w> of a letter word by the definition, <e_j, <e_p, e_p> . e_j>."""
    g = fiber.base.unit
    for letter in word:
        e = fiber.generator(letter)
        g = ref_inner(fiber.gram, e, ref_apply(fiber.left.blocks_of(g), e))
    return g


def loop_op_left(tensor, s_blocks):
    e2 = tensor.right_factor
    ps = pairs(tensor)
    raw = np.zeros((len(ps), len(ps), *s_blocks.shape[2:]), dtype=complex)
    for a, (ii, jj) in enumerate(ps):
        for b, (i, j) in enumerate(ps):
            raw[a, b] = e2.left.blocks_of(s_blocks[ii, i])[jj, j]
    return raw


def loop_op_right(tensor, s_blocks):
    ps = pairs(tensor)
    raw = np.zeros((len(ps), len(ps), *s_blocks.shape[2:]), dtype=complex)
    for a, (ii, jj) in enumerate(ps):
        for b, (i, j) in enumerate(ps):
            if ii == i:
                raw[a, b] = s_blocks[jj, j]
    return raw


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
        x = random_window_operator(system, level, rng)[:, 0]
        tensor = raw(system, level)
        right = tensor.right_factor
        y = right.distinguished["unit"] + 0.5 * right.generator(1)
        assert frob(tensor.tensor_vector(x, y) - loop_tensor_vector(tensor, x, y)) < 1e-12


def test_op_left_matches_loop(tower):
    system = tower
    rng = np.random.default_rng(1)
    for level in (1, 2):
        s = random_window_operator(system, level, rng)
        tensor = raw(system, level)
        assert frob(tensor.op_left(s) - loop_op_left(tensor, s)) < 1e-12


def test_op_right_matches_loop(chain):
    # over the commutative base of a chain, the action of a function commutes
    # with the base action, so id o S is defined; the pruned chain's product
    # has exactly null pairs, from its zero transition
    pruned = markov_scenario(np.array([[1.0, 0.0], [0.5, 0.5]]), 3).system
    pruned_tensor = raw(pruned, 2)
    assert len(kept_pairs(pruned, 2)) < pruned_tensor.module.rank
    s_blocks = chain.fiber.left.blocks_of(np.diag([0.3, -1.2]).astype(complex))
    for tensor in (raw(chain, 2), pruned_tensor):
        assert frob(tensor.op_right(s_blocks) - loop_op_right(tensor, s_blocks)) < 1e-12


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
        ident = identity_blocks(system.powers[level])
        for steps in range(system.horizon - level + 1):
            lifted = system.theta_blocks(ident, level, steps)
            assert np.array_equal(lifted, identity_blocks(system.powers[level + steps]))


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
        a = random_window_operator(system, level, rng)
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
    x = random_window_operator(system, 1, rng)[:, 1]
    y = random_window_operator(system, 2, rng)[:, 2]
    want = sum(loop_extend(system, x, w, 1) @ y[k] for k, w in enumerate(words(system, 2)))
    assert frob(system.identify(1, 2, x, y) - want) < 1e-12
    assert frob(system.identify(1, 2, x, np.zeros_like(y))) == 0.0
    assert system.identify(1, 2, x, np.zeros_like(y)).shape == system.units[3].shape


def test_vector_functional_matches_loop(tower):
    # <x, a x> one basis element at a time, through each element's operator
    top = tower.powers[tower.horizon]
    x = random_window_operator(tower, tower.horizon, np.random.default_rng(4))[:, 0]
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
        raw(chain, 1).op_left(blocks)
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
    # the absorbing chain has exactly null pairs; the product keeps them all
    pruned = markov_scenario(np.array([[1.0, 0.0], [0.5, 0.5]]), 3).system
    tensor = raw(pruned, 2)
    n = pruned.powers[2].rank * pruned.fiber.rank
    assert tensor.module.rank == len(pairs(tensor)) == n
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


@pytest.fixture(scope="module", params=["random-cp-h3", "zero-diagonal-chain-h4"])
def shared_tower(request):
    """A random-CP tower, which keeps every pair, and the 3-state chain with a
    zero diagonal, whose tower drops the words that repeat a letter."""
    if request.param == "random-cp-h3":
        return dilate_discrete(random_unital_cp(2, np.random.default_rng(11)), 3).system
    return markov_scenario((np.ones((3, 3)) - np.eye(3)) / 2, 4).system


def test_tower_and_tensor_share_one_contraction(shared_tower):
    # theta and V on E_k (x) E_1 are the tensor product's S o id and xi_k o .,
    # restricted to the pairs the tower keeps
    system = shared_tower
    rng = np.random.default_rng(8)
    for k in (1, 2):
        tensor = raw(system, k)
        kept = kept_pairs(system, k)
        a = random_window_operator(system, k, rng)
        lifted = tensor.op_left(a)[np.ix_(kept, kept)]
        assert frob(system.theta_blocks(a, k, 1) - lifted) < 1e-12
        v, _ = system.isometry_blocks(1, k + 1)
        for u in range(system.fiber.rank):
            column = tensor.tensor_vector(system.units[k], system.fiber.generator(u))[kept]
            assert frob(v[:, u] - column) < 1e-12
    if system.base.dim == 3:
        assert len(kept_pairs(system, 2)) < raw(system, 2).module.rank


# ---------------------------------------------------------------------------
# dot for one product, @ for stacks: the same bits as np.matmul
#
# Products of two 1-D/2-D operands call ndarray.dot, which skips the matmul
# ufunc's dispatch; stacks keep @.  The two reach the same BLAS call on the
# operands the package makes, so each kernel must equal its np.matmul
# reference bit for bit.  The arguments come contiguous, transposed (F order)
# and column-sliced out of a wider array (unit inner stride).  Views that
# BLAS cannot take directly (a step or a reversed axis) are left out: dot
# copies them and matmul runs its own loop, and their bits may differ.


def _layouts(mat):
    """``mat`` (..., r, c) contiguous, as a transposed view and as a column
    slice of a wider array, with the same values."""
    wide = np.zeros((*mat.shape[:-1], mat.shape[-1] + 3), dtype=complex)
    wide[..., 1 : mat.shape[-1] + 1] = mat
    return {
        "contiguous": np.ascontiguousarray(mat),
        "transposed": np.ascontiguousarray(np.swapaxes(mat, -1, -2)).swapaxes(-1, -2),
        "column-sliced": wide[..., 1 : mat.shape[-1] + 1],
    }


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(
        np.ascontiguousarray(got).view(float), np.ascontiguousarray(want).view(float)
    )


def ref_coords(alg, x):
    v = np.asarray(x, dtype=complex).reshape(-1)
    c = np.matmul(alg._pinv, v)
    return c, frob(np.matmul(alg._stack, c) - v)


def ref_coords_many(alg, xs):
    flat = xs.reshape(len(xs), -1).T
    c = np.matmul(alg._pinv, flat)
    r = np.matmul(alg._stack, c) - flat
    return c.T, float(np.sqrt(np.add.reduce((r.conj() * r).real, axis=0)).max(initial=0.0))


def m2_plus_c():
    """M2 ⊕ C inside M3: the matrix units of the upper 2x2 block and E_22,
    a proper subalgebra that is not a factor."""
    units = np.zeros((5, 3, 3), dtype=complex)
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]):
        units[k, i, j] = 1.0
    return algebra_from_basis(units)


PARITY_ALGEBRAS = {
    "scalars": scalar_algebra,
    "diag2": lambda: diagonal_algebra(2),
    "m2": lambda: full_matrix_algebra(2),
    "pauli": pauli_algebra,
    "m3": lambda: full_matrix_algebra(3),
    "m2+c": m2_plus_c,
}


@pytest.mark.parametrize("name", sorted(PARITY_ALGEBRAS))
def test_coordinates_have_the_bits_of_matmul(name):
    alg = PARITY_ALGEBRAS[name]()
    rng = np.random.default_rng(sorted(PARITY_ALGEBRAS).index(name))
    d = alg.ambient_dim
    # an algebra that spans M_d holds every finite matrix: its residual is
    # exactly 0, where the least-squares one would be rounding; a proper
    # subalgebra keeps the least-squares residual's bits
    assert alg.spans_ambient == (name in ("scalars", "m2", "m3", "pauli"))
    # elements of the span and matrices off it (a nonzero residual)
    mats = np.concatenate([alg.combine(_random(rng, 6, alg.dim)), _random(rng, 2, d, d)])
    for layout, xs in _layouts(mats).items():
        for x in xs:
            c, res = alg.coords(x)
            want_c, want_res = ref_coords(alg, x)
            assert _same_bits(c, want_c), layout
            assert res == (0.0 if alg.spans_ambient else want_res), layout
        c, res = alg.coords_many(xs)
        want_c, want_res = ref_coords_many(alg, xs)
        assert _same_bits(c, want_c), layout
        assert res == (0.0 if alg.spans_ambient else want_res), layout
    if not alg.spans_ambient:
        assert want_res > 0.0


@pytest.mark.parametrize("name", sorted(PARITY_ALGEBRAS))
def test_apply_has_the_bits_of_matmul_and_apply_many_those_of_apply(name):
    alg = PARITY_ALGEBRAS[name]()
    rng = np.random.default_rng(20 + sorted(PARITY_ALGEBRAS).index(name))
    # a one-element domain into a larger codomain contracts over length 1,
    # where dot takes its scalar path and matmul does not: left out, and
    # no such map is built by the package
    maps = [
        PositiveMap(alg, cod, _random(rng, cod.dim, alg.dim), MapKind.CP_MAP)
        for cod in (alg, scalar_algebra(), full_matrix_algebra(2))
        if alg.dim > 1 or cod.ambient_dim == 1
    ]
    for layout, xs in _layouts(alg.combine(_random(rng, 5, alg.dim))).items():
        for pmap in maps:
            d2 = pmap.codomain.ambient_dim
            for x in xs:
                want = np.matmul(ref_coords(alg, x)[0], pmap._kernel).reshape(d2, d2)
                assert _same_bits(pmap.apply(x), want), layout
                # one row of coordinates, as apply has it: the stacked
                # product gives the bits of apply's
                assert _same_bits(pmap.apply_many(x[None])[0], want), layout


def _weighted_expectation():
    # E(x) = phi(x) 1 on diag2, phi the state with weights (1/3, 2/3)
    d2, unit = diagonal_algebra(2), np.eye(2, dtype=complex)
    images = np.stack([unit / 3, 2 * unit / 3])
    return map_from_images(d2, algebra_from_basis([unit]), images, MapKind.CONDITIONAL_EXPECTATION)


# maps whose kernel a strided row of coordinates meets in other bits than
# the contiguous vector apply has
APPLY_MANY_MAPS = {
    "state": lambda: state_from_density(full_matrix_algebra(3), random_density(3, np.random.default_rng(1))),
    "conditional-expectation": _weighted_expectation,
    "stochastic": lambda: cp_from_stochastic(np.array([[0.3, 0.7], [0.6, 0.4]])),
    "random-cp": lambda: PositiveMap(
        diagonal_algebra(2), diagonal_algebra(2), np.random.default_rng(0).uniform(size=(2, 2)) + 0j, MapKind.CP_MAP
    ),
    "m3-trace-state": lambda: normalized_trace_state(full_matrix_algebra(3)),
}


@pytest.mark.parametrize("name", sorted(APPLY_MANY_MAPS))
def test_apply_many_gives_each_image_the_bits_of_apply(name):
    pmap = APPLY_MANY_MAPS[name]()
    assert verify_positive_map(pmap).passed
    dom = pmap.domain
    xs = dom.combine(_random(np.random.default_rng(0), 8, dom.dim))
    many = pmap.apply_many(xs)
    assert all(_same_bits(many[j], pmap.apply(x)) for j, x in enumerate(xs))


def ref_moment(real, word):
    """JointRealization.moment with every product an explicit np.matmul."""
    v = real.vacuum.reshape(-1, real.vacuum.shape[-1])
    for leg, mat in reversed(word.letters):
        action = real.leg1 if leg == 1 else real.leg2
        c, _ = ref_coords(action.algebra, mat)
        images = block_matrix(action.blocks)
        moved = np.matmul(images.reshape(-1, v.shape[0]), v)
        v = np.matmul(c, moved.reshape(len(c), -1)).reshape(v.shape)
    ket = real.vacuum.reshape(-1, real.vacuum.shape[-1])
    return np.matmul(np.matmul(ket.conj().T, block_matrix(real.carrier.gram)), v)


def _parity_realizations():
    rng = np.random.default_rng(4)
    m2 = full_matrix_algebra(2)
    s1, s2 = (QuantumProbabilitySpace(m2, state_from_density(m2, random_density(2, rng))) for _ in range(2))
    comp = diagonal_compression(2, m2)
    e = gns_construct(comp, verify=False)
    return {
        "monotone": monotone_realize(s1, s2),
        "tensor": tensor_realize(s1, s2),
        "conditional-monotone": conditional_monotone_embed(e, e, m2, m2),
    }


@pytest.mark.parametrize("name", ["monotone", "tensor", "conditional-monotone"])
def test_word_moments_have_the_bits_of_matmul(name):
    real = _parity_realizations()[name]
    rng = np.random.default_rng(9)
    for word in random_alternating_words(real.algebra1, real.algebra2, rng, 12, 6):
        legs = [leg for leg, _ in word.letters]
        letters = np.stack([mat for _, mat in word.letters])
        for layout, mats in _layouts(letters).items():
            w = AlternatingWord(list(zip(legs, mats)))
            assert _same_bits(real.moment(w), ref_moment(real, w)), (layout, word.label())


@pytest.mark.parametrize("d0", [1, 2, 3])
def test_inner_product_has_the_bits_of_matmul(d0):
    rng = np.random.default_rng(30 + d0)
    n = 4
    gram = _random(rng, n, n, d0, d0)
    x, y = _random(rng, n, d0, d0), _random(rng, n, d0, d0)
    for layout, g in _layouts(block_matrix(gram)).items():
        for x_layout, xf in _layouts(x.reshape(-1, d0)).items():
            g_blocks, xv = unblock(g, d0), xf.reshape(n, d0, d0)
            want = np.matmul(xv.reshape(-1, d0).conj().T, np.matmul(g, y.reshape(-1, d0)))
            got = inner_product(g_blocks, xv, y)
            assert _same_bits(got, want), (layout, x_layout)


@pytest.mark.parametrize("d0", [1, 2, 3])
def test_compose_blocks_has_the_bits_of_matmul_on_operators_and_stacks(d0):
    rng = np.random.default_rng(40 + d0)
    a, b = _random(rng, 3, 4, d0, d0), _random(rng, 4, 2, d0, d0)
    stack_a, stack_b = _random(rng, 5, 3, 4, d0, d0), _random(rng, 5, 4, 2, d0, d0)
    for layout, fa in _layouts(block_matrix(a)).items():
        for b_layout, fb in _layouts(block_matrix(b)).items():
            got = compose_blocks(unblock(fa, d0), unblock(fb, d0))
            assert _same_bits(got, unblock(np.matmul(fa, fb), d0)), (layout, b_layout)
    for layout, fa in _layouts(block_matrix(stack_a)).items():
        fb = block_matrix(stack_b)
        for lhs, rhs in ((fa, fb), (fa[0], fb), (fa, fb[0])):
            got = compose_blocks(unblock(lhs, d0), unblock(rhs, d0))
            assert _same_bits(got, unblock(np.matmul(lhs, rhs), d0)), layout
