"""Flat M_n(B) kernels against independent references.

Block arithmetic runs on the flat (n*d0, n*d0) view while the public layout
stays (n, n, d0, d0).  The references here are written independently of
that: the einsum contractions the kernels replaced, and per-generator loops
that follow the definitions of the tensor and tower plumbing one vector at
a time.
"""

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
    inner_product,
    left_action_operator,
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


@pytest.fixture(scope="module", params=["random-cp", "pruned-chain", "dependent-fiber"])
def tower(request):
    """Towers where every pair survives, where null pairs drop, and where
    dependent pairs are rewritten over the survivors.

    In the pruned chain state 0 is absorbing, so paths leaving it have
    weight zero.  The dependent fiber over the scalars has e_1 = 2 e_0, so
    its tensor powers rewrite raw pairs with nonzero coefficients.
    """
    if request.param == "random-cp":
        return dilate_discrete(random_unital_cp(2, np.random.default_rng(5)), 3).system
    if request.param == "pruned-chain":
        return markov_scenario(np.array([[1.0, 0.0], [0.5, 0.5]]), 3).system
    base = scalar_algebra()
    gram = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]).reshape(3, 3, 1, 1)
    unit = np.eye(3)[0].reshape(3, 1, 1)
    fiber = HilbertModule(base, gram, trivial_left_action(3, base), {"unit": unit})
    return DiscreteProductSystem.build(base, fiber, 3)


@pytest.fixture(scope="module")
def chain():
    return markov_scenario(np.array([[0.5, 0.5], [0.3, 0.7]]), 3).system


def loop_tensor_vector(tensor, x, y):
    """x o y by the definition: (x[i] . y)[j] on every raw pair (i, j)."""
    e2 = tensor.right_factor
    raw = np.stack([ref_apply(e2.left.blocks_of(x[i]), y)[j] for i, j in tensor.pairs])
    return ref_apply(tensor.info.rewrite, raw)


def loop_rewrite(tensor, raw_blocks):
    """R raw J, with J selecting the survivors among the raw pairs."""
    return ref_compose(tensor.info.rewrite, raw_blocks[:, tensor.info.survivors])


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
    """v extended one letter at a time through the tensor structures."""
    for step, letter in enumerate(letters):
        gen = system.fiber.generator(letter)
        if level + step == 0:
            v = ref_apply(system.fiber.left.blocks_of(v[0]), gen)
        else:
            v = loop_tensor_vector(system.tensors[level + step + 1], v, gen)
    return v


def test_tensor_vector_matches_loop(tower):
    system = tower
    rng = np.random.default_rng(0)
    for level in (1, 2):
        tensor = system.tensors[level + 1]
        x = random_window_operator(system, level, rng).blocks[:, 0]
        y = system.units[1] + 0.5 * system.fiber.generator(1)
        assert frob(tensor.tensor_vector(x, y) - loop_tensor_vector(tensor, x, y)) < 1e-12


def test_op_left_matches_loop(tower):
    system = tower
    rng = np.random.default_rng(1)
    for level in (1, 2):
        tensor = system.tensors[level + 1]
        s = random_window_operator(system, level, rng)
        lifted = tensor.op_left(s)
        assert frob(lifted.blocks - loop_op_left(tensor, s.blocks)) < 1e-12


def test_op_right_matches_loop(chain):
    # over the commutative base of a chain, the action of a function commutes
    # with the base action, so id o S is defined
    tensor = chain.tensors[3]
    s = left_action_operator(chain.fiber, np.diag([0.3, -1.2]).astype(complex))
    right = tensor.op_right(s)
    assert frob(right.blocks - loop_op_right(tensor, s.blocks)) < 1e-12


def test_theta_blocks_matches_column_loop(tower):
    system = tower
    rng = np.random.default_rng(2)
    for level, steps in ((1, 1), (1, 2), (2, 1), (0, 3)):
        a = random_window_operator(system, level, rng).blocks
        target = level + steps
        want = np.stack(
            [
                loop_extend(system, a[:, system.index[level][w[:level]]], w[level:], level)
                for w in system.words[target]
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
            [loop_extend(system, system.units[gap], w, gap) for w in system.words[width]], axis=1
        )
        assert frob(v - want_v) < 1e-12
        e_gap, e_w = system.powers[gap], system.powers[width]
        columns = []
        for w in system.words[level]:
            overlap = ref_inner(
                e_gap.gram, system.units[gap], e_gap.generator(system.index[gap][w[:gap]])
            )
            reduced = loop_extend(system, system.powers[0].generator(0), w[gap:], 0)
            columns.append(ref_apply(e_w.left.blocks_of(overlap), reduced))
        assert frob(vstar - np.stack(columns, axis=1)) < 1e-12


def test_identify_matches_word_loop(tower):
    system = tower
    rng = np.random.default_rng(3)
    x = random_window_operator(system, 1, rng).blocks[:, 1]
    y = random_window_operator(system, 2, rng).blocks[:, 2]
    want = sum(
        loop_extend(system, x, w, 1) @ y[k] for k, w in enumerate(system.words[2])
    )
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
        chain.tensors[2].tensor_vector(outside, chain.units[1])
    with pytest.raises(StructuralError, match="not in the acting algebra"):
        chain.extend(outside, 0, 1)
    blocks = np.ones((chain.fiber.rank, chain.fiber.rank, 2, 2), dtype=complex)
    with pytest.raises(StructuralError, match="not in the acting algebra"):
        chain.tensors[2].op_left(AdjointableOperator(chain.fiber, blocks))
    with pytest.raises(StructuralError, match="not in the acting algebra"):
        chain.fiber.vector_functional(chain.units[1], outside[:1])
