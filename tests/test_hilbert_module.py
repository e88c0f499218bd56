"""Hilbert-module layer: inner products, adjoints, quotients, GNS, tensors.

Independent reference points used here:

* GNS of a state phi on the diagonal algebra C^2 is the classical L^2 space:
  gram[i, j] = phi(chi_i chi_j) = delta_ij * w_i.  With weights (0.7, 0.3)
  both indicators survive the reduction and <unit, f . unit> = E[f].
* GNS of the identity on a unit-first matrix algebra collapses to a single
  generator with inner product table [[unit]] exactly: every symbol equals
  the unit symbol right-multiplied by its value.
* Tensoring B (as a module over itself) with any module E over B returns E:
  ranks and moments must match.
* Right multiplication by a self-adjoint element of a commutative base is
  its own adjoint.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import hilbert_module
from ncprob.algebra_core import (
    MapKind,
    StructuralError,
    cp_from_kraus,
    cp_from_stochastic,
    diagonal_algebra,
    diagonal_compression,
    full_matrix_algebra,
    identity_map,
    map_from_images,
    normalized_trace_state,
    scalar_algebra,
    state_from_density,
)
from ncprob.hilbert_module import (
    HilbertModule,
    LeftAction,
    adjoint_gap,
    apply_blocks,
    compose_blocks,
    dagger_blocks,
    extended_gram,
    gns_construct,
    gns_construct_many,
    identity_blocks,
    inner_product,
    operator_distance,
    quotient_module,
    quotient_null_space,
    quotient_null_spaces,
    rank_one_blocks,
    tensor_over_base,
    trivial_left_action,
    vector_norm,
    verify_module,
)
from ncprob.dilation import random_unital_cps
from ncprob.linalg import RANK_RTOL, dag, frob, random_density
from ncprob.suites import RunConfig, suite_module


def module_over_self(alg):
    """The algebra as a right module over itself, with its left action."""
    d0 = alg.ambient_dim
    gram = alg.unit.reshape(1, 1, d0, d0).astype(complex)
    blocks = np.stack([b.reshape(1, 1, d0, d0) for b in alg.basis])
    left = LeftAction(alg, blocks)
    xi = alg.unit.reshape(1, d0, d0).astype(complex)
    return HilbertModule(alg, gram, left, {"unit": xi})


class TestBasics:
    def test_module_over_self_verifies(self):
        for alg in (scalar_algebra(), diagonal_algebra(2), full_matrix_algebra(2)):
            m = module_over_self(alg)
            report = verify_module(m)
            assert report.passed, report.failures

    def test_inner_product_values(self):
        m = module_over_self(full_matrix_algebra(2))
        x = m.vector(np.array([[[1.0, 2.0], [0.0, 1.0]]], dtype=complex))
        y = m.vector(np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=complex))
        # <x, y> = x^dag y in the algebra-over-itself picture
        assert frob(m.inner(x, y) - dag(x[0]) @ y[0]) < 1e-12

    def test_identity_and_rank_one(self):
        m = module_over_self(diagonal_algebra(2))
        ident = identity_blocks(m)
        xi = m.distinguished["unit"]
        p = rank_one_blocks(m.gram, xi, xi)
        # |xi><xi| acts on x as xi <xi, x> = unit * x here, so it equals the identity
        assert operator_distance(m, p, ident) < 1e-12
        # the adjoint of |x><y| is |y><x|, and not |x><y| itself when x != y
        assert adjoint_gap(m, p, rank_one_blocks(m.gram, xi, xi)) <= 1e-9
        x = m.vector(np.diag([1.0, 2.0j])[None])
        x_xi, xi_x = rank_one_blocks(m.gram, x, xi), rank_one_blocks(m.gram, xi, x)
        assert adjoint_gap(m, x_xi, xi_x) <= 1e-9
        assert adjoint_gap(m, x_xi, x_xi) > 1.0

    def test_left_action_blocks_adjoint(self):
        m = module_over_self(full_matrix_algebra(2))
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        op = m.left.blocks_of(a)
        assert adjoint_gap(m, op, m.left.blocks_of(dag(a))) <= 1e-9
        x = m.generator(0)
        assert frob(apply_blocks(op, x)[0] - a) < 1e-12

    def test_operator_algebra(self):
        m = module_over_self(full_matrix_algebra(2))
        a = m.left.blocks_of(np.array([[0, 1], [1, 0]], dtype=complex))
        b = m.left.blocks_of(np.diag([1.0, -1.0]).astype(complex))
        ab, ba = compose_blocks(a, b), compose_blocks(b, a)
        # a and b are self-adjoint, so (ab - ba)* = ba - ab
        assert adjoint_gap(m, ab - ba, ba - ab) <= 1e-9
        anti = ab + ba
        assert operator_distance(m, anti, 0.0 * anti) < 1e-12  # sx sz + sz sx = 0

    def test_an_empty_stack_of_elements_acts_as_nothing(self):
        for alg in (scalar_algebra(), diagonal_algebra(2), full_matrix_algebra(2)):
            left = module_over_self(alg).left
            d0 = alg.ambient_dim
            empty = np.zeros((0, d0, d0), dtype=complex)
            assert left.coords_of(empty).shape == (0, alg.dim)
            assert left.operators(empty).shape == (0, d0, d0)

    def test_vector_norm_detects_null_vectors(self):
        # gram of two proportional generators: e_1 = e_0, so e_0 - e_1 is null
        base = scalar_algebra()
        gram = np.ones((2, 2, 1, 1), dtype=complex)
        m = HilbertModule(base, gram)
        diff = m.generator(0) - m.generator(1)
        assert vector_norm(m, diff) < 1e-12
        assert vector_norm(m, m.generator(0)) == pytest.approx(1.0)


class TestAdjoints:
    def test_right_multiplication_adjointable_over_commutative_base(self):
        m = module_over_self(diagonal_algebra(2))
        b = np.diag([2.0, -1.0]).astype(complex)
        blocks = b.reshape(1, 1, 2, 2)
        # right multiplication by a self-adjoint diagonal b is its own adjoint
        assert adjoint_gap(m, blocks, blocks) <= 1e-9

    def test_broken_adjoint_caught(self):
        m = module_over_self(full_matrix_algebra(2))
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        op = m.left.blocks_of(a)
        # E12 is not self-adjoint: G E12 - (G E12)^H = E12 - E21, of norm sqrt(2)
        assert adjoint_gap(m, op, op) > 1.0


class TestQuotient:
    def test_duplicate_generator_dropped(self):
        base = scalar_algebra()
        gram = np.ones((2, 2, 1, 1), dtype=complex)
        m = HilbertModule(base, gram)
        reduced, info = quotient_module(m)
        assert info.survivors == [0]
        assert reduced.rank == 1
        assert reduced.gram[0, 0, 0, 0] == 1.0
        # the dropped generator rewrites to the survivor with coefficient 1
        assert abs(info.rewrite[0, 1, 0, 0] - 1.0) < 1e-12

    def test_independent_generators_kept_verbatim(self):
        base = scalar_algebra()
        gram = np.array([[[[2.0]], [[0.5]]], [[[0.5]], [[1.0]]]], dtype=complex)
        m = HilbertModule(base, gram)
        reduced, info = quotient_module(m)
        assert info.survivors == [0, 1]
        assert np.array_equal(reduced.gram, gram)

    def test_base_rank_vs_scalar_rank(self):
        # two generators over the diagonal algebra: e_1 = e_0 . b with b = diag(1, -1);
        # scalar rank of the extended gram is 2, module rank is 1.
        base = diagonal_algebra(2)
        b = np.diag([1.0, -1.0]).astype(complex)
        gram = np.zeros((2, 2, 2, 2), dtype=complex)
        gram[0, 0] = np.eye(2)
        gram[0, 1] = b
        gram[1, 0] = b
        gram[1, 1] = np.eye(2)
        m = HilbertModule(base, gram)
        assert np.linalg.matrix_rank(extended_gram(m)) == 2
        reduced, info = quotient_module(m)
        assert info.survivors == [0]
        assert frob(info.rewrite[0, 1] - b) < 1e-10

    def test_rewrite_preserves_inner_products(self):
        rng = np.random.default_rng(7)
        base = diagonal_algebra(2)
        # three concrete vectors with a built-in dependency:
        # v2 = v0 . c0 + v1 . c1 with diagonal coefficients
        vecs = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
        c0, c1 = np.diag([0.5, 2.0]), np.diag([1.0, -1.0])
        vs = [vecs[0], vecs[1], vecs[0] @ c0 + vecs[1] @ c1]

        def diag_part(mat):
            return np.diag(np.diagonal(mat)).astype(complex)

        gram = np.zeros((3, 3, 2, 2), dtype=complex)
        for i in range(3):
            for j in range(3):
                gram[i, j] = diag_part(dag(vs[i]) @ vs[j])
        m = HilbertModule(base, gram)
        assert verify_module(m).passed
        reduced, info = quotient_module(m)
        assert len(info.survivors) == 2
        # inner products of rewritten generators match the originals
        for i in range(3):
            xi = info.rewrite_vector(m.generator(i))
            for j in range(3):
                xj = info.rewrite_vector(m.generator(j))
                assert frob(reduced.inner(xi, xj) - gram[i, j]) < 1e-9

    def test_quotient_residual_and_threshold_reported(self):
        base = scalar_algebra()
        gram = np.ones((2, 2, 1, 1), dtype=complex)
        info = quotient_null_space(HilbertModule(base, gram))
        assert info.residual < 1e-9
        assert info.threshold > 0


def reference_survivors(module):
    """The pivot loop of quotient_null_space before it took its scores from
    one einsum and its pivot inverses from eigh: np.trace per remaining
    generator, np.linalg.pinv per pivot."""
    n, nb = module.rank, module.base.dim
    s_ext = extended_gram(module)
    threshold = float(np.linalg.eigvalsh(s_ext)[-1]) * RANK_RTOL
    work = s_ext.copy()
    survivors, remaining = [], list(range(n))
    while remaining:
        scores = [
            float(np.trace(work[i * nb : (i + 1) * nb, i * nb : (i + 1) * nb]).real)
            for i in remaining
        ]
        k = int(np.argmax(scores))
        if scores[k] <= threshold or scores[k] <= 0.0:
            break
        i = remaining.pop(k)
        survivors.append(i)
        sl = slice(i * nb, (i + 1) * nb)
        inv = np.linalg.pinv(work[sl, sl], rcond=1e-12, hermitian=True)
        work -= work[:, sl] @ inv @ work[sl, :]
    return sorted(survivors)


def _quotient_cases():
    m2 = full_matrix_algebra(2)
    maps = [identity_map(m2), normalized_trace_state(m2), diagonal_compression(2, m2)]
    maps += [
        cp_from_stochastic(np.array([[0.5, 0.5], [0.3, 0.7]])),
        cp_from_stochastic(np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])),
        cp_from_stochastic((np.ones((3, 3)) - np.eye(3)) / 2),
    ]
    for seed in (7, 42, 2003):
        rng = np.random.default_rng(seed)
        maps += random_unital_cps(2, rng, 20)
        maps += [state_from_density(m2, random_density(2, rng)) for _ in range(20)]
    modules = [gns_construct(pmap, reduce=False) for pmap in maps]
    # products of reduced modules, as the independence realizations quotient them
    reduced = [quotient_module(m)[0] for m in modules[6:26]]
    for e1, e2 in zip(reduced[:10], reduced[10:]):
        modules.append(tensor_over_base(e1, e2).module)
    return modules


def test_pivot_loop_keeps_the_reference_survivors():
    modules = _quotient_cases()
    dropped = 0
    for module in modules:
        survivors = quotient_null_space(module).survivors
        assert survivors == reference_survivors(module)
        dropped += len(survivors) < module.rank
    # most random CP maps and every rank-deficient fixed map drop generators
    # (62 of the 136 modules), so elimination is exercised, not only full rank
    assert dropped > 40


class TestGns:
    def test_gns_of_state_is_classical_l2(self):
        alg = diagonal_algebra(2)
        phi = state_from_density(alg, np.diag([0.7, 0.3]))
        m = gns_construct(phi)
        assert verify_module(m).passed
        assert m.rank == 2  # both indicators carry positive mass
        xi = m.distinguished["unit"]
        f = np.diag([1.0, -1.0])
        val = m.inner(xi, apply_blocks(m.left.blocks_of(f), xi))
        assert val[0, 0] == pytest.approx(0.4, abs=1e-14)

    def test_gns_degenerate_state_drops_nullvectors(self):
        alg = diagonal_algebra(2)
        phi = state_from_density(alg, np.diag([1.0, 0.0]))
        m = gns_construct(phi)
        assert m.rank == 1

    def test_gns_identity_is_free_of_rank_one(self):
        for alg in (full_matrix_algebra(2), scalar_algebra()):
            m = gns_construct(identity_map(alg, MapKind.CP_MAP))
            assert m.rank == 1
            assert np.array_equal(m.gram[0, 0], alg.unit)
            assert verify_module(m).passed

    def test_gns_reproduces_the_map(self):
        p = np.array([[0.5, 0.5], [0.3, 0.7]])
        t = cp_from_stochastic(p)
        m = gns_construct(t)
        assert verify_module(m).passed
        xi = m.distinguished["unit"]
        for f in (np.diag([1.0, 0.0]), np.diag([0.25, -2.0])):
            got = m.inner(xi, apply_blocks(m.left.blocks_of(f), xi))
            assert frob(got - t.apply(f)) < 1e-12

    def test_gns_of_trace_state_on_m2(self):
        phi = normalized_trace_state(full_matrix_algebra(2))
        m = gns_construct(phi)
        assert verify_module(m).passed
        assert m.rank == 4  # the trace is faithful: nothing collapses
        xi = m.distinguished["unit"]
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        val = m.inner(xi, apply_blocks(m.left.blocks_of(x), xi))
        assert val[0, 0] == pytest.approx(2.5)

    def test_gns_rejects_domain_without_its_unit(self):
        # span{E11} with the ambient identity declared as unit: the unit is
        # not in the span, so the cyclic vector cannot be formed.
        from ncprob.algebra_core import MatrixStarAlgebra, PositiveMap

        bad_basis = np.zeros((1, 2, 2), dtype=complex)
        bad_basis[0, 0, 0] = 1.0
        sub = MatrixStarAlgebra(bad_basis)  # defaults to ambient unit
        pm = PositiveMap(sub, scalar_algebra(), np.array([[1.0]]), MapKind.STATE)
        with pytest.raises(StructuralError):
            gns_construct(pm)


class TestTensor:
    def test_tensor_with_base_module_is_identity(self):
        # B (x)_B E = E for E the GNS module of a stochastic map
        p = np.array([[0.5, 0.5], [0.3, 0.7]])
        e = gns_construct(cp_from_stochastic(p))
        b_mod = module_over_self(diagonal_algebra(2))
        tensor = tensor_over_base(b_mod, e)
        assert tensor.module.rank == e.rank
        xi = tensor.module.distinguished["unit"]
        f = np.diag([1.0, 0.0])
        got = tensor.module.inner(xi, apply_blocks(tensor.module.left.blocks_of(f), xi))
        want = e.inner(e.distinguished["unit"], apply_blocks(e.left.blocks_of(f), e.distinguished["unit"]))
        assert frob(got - want) < 1e-10

    def test_tensor_of_gns_composes_the_maps(self):
        # <xi2 o xi1, (f . ) (xi2 o xi1)> = T(T(f)) for the two-step tensor
        p = np.array([[0.5, 0.5], [0.3, 0.7]])
        t = cp_from_stochastic(p)
        e1 = gns_construct(t)
        tensor = tensor_over_base(e1, e1)
        m = tensor.module
        assert verify_module(m).passed
        xi = m.distinguished["unit"]
        f = np.diag([1.0, 0.0])
        got = m.inner(xi, apply_blocks(m.left.blocks_of(f), xi))
        assert frob(got - t.apply(t.apply(f))) < 1e-10

    def test_tensor_requires_matching_action(self):
        e = gns_construct(cp_from_stochastic(np.eye(2)))
        m_scalar = module_over_self(scalar_algebra())
        with pytest.raises(StructuralError):
            tensor_over_base(e, m_scalar)

    def test_op_right_commutation_gate(self):
        # over M2 as a module over itself, id (x) S for S = left mult by a
        # non-central element must be rejected: it does not commute with the
        # base action.
        alg = full_matrix_algebra(2)
        m = module_over_self(alg)
        tensor = tensor_over_base(m, m)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(StructuralError):
            tensor.op_right(m.left.blocks_of(sx))

    def test_op_right_accepts_central_elements(self):
        alg = full_matrix_algebra(2)
        m = module_over_self(alg)
        tensor = tensor_over_base(m, m)
        op = tensor.op_right(m.left.blocks_of(2.0 * np.eye(2, dtype=complex)))
        xi = tensor.module.distinguished["unit"]
        assert frob(tensor.module.inner(xi, apply_blocks(op, xi)) - 2.0 * np.eye(2)) < 1e-10

    def test_op_left_respects_composition(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        e = gns_construct(cp_from_stochastic(p))
        tensor = tensor_over_base(e, e)
        f = np.diag([1.0, -0.5]).astype(complex)
        g = np.diag([0.0, 1.0]).astype(complex)
        of = tensor.op_left(e.left.blocks_of(f))
        og = tensor.op_left(e.left.blocks_of(g))
        both = tensor.op_left(e.left.blocks_of(f @ g))
        assert operator_distance(tensor.module, compose_blocks(of, og), both) < 1e-10

    def test_elementary_tensor_relation(self):
        # x b (x) y = x (x) b y after the identification
        p = np.array([[0.5, 0.5], [0.3, 0.7]])
        e = gns_construct(cp_from_stochastic(p))
        tensor = tensor_over_base(e, e)
        b = np.diag([0.5, 2.0]).astype(complex)
        x = e.generator(0)
        y = e.generator(1)
        lhs = tensor.tensor_vector(x @ b, y)
        rhs = tensor.tensor_vector(x, apply_blocks(e.left.blocks_of(b), y))
        assert vector_norm(tensor.module, lhs - rhs) < 1e-10


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_gns_of_random_states_verifies(seed):
    rng = np.random.default_rng(seed)
    alg = full_matrix_algebra(2)
    w = rng.dirichlet(np.ones(2))
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    rho = u @ np.diag(w) @ dag(u)
    phi = state_from_density(alg, rho)
    m = gns_construct(phi)
    report = verify_module(m, tol=1e-8)
    assert report.passed, report.failures
    xi = m.distinguished["unit"]
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    got = m.inner(xi, apply_blocks(m.left.blocks_of(x), xi))[0, 0]
    assert abs(got - np.trace(rho @ x)) < 1e-8


def test_verify_module_on_a_wide_fiber_stays_within_a_row_of_pairs():
    # the unreduced GNS fiber of a unital CP map on M_4, as a dilation
    # builds it: rank 16 over M_4, so each left-action operator is 64 x 64
    # and the 16 of them take 1 MB; the multiplicativity check stacks one
    # row of 16 pairs at a time, where all 256 pairs would take 16 MB an array
    pmap = random_unital_cps(4, np.random.default_rng(7), 1)[0]
    fiber = gns_construct(pmap, reduce=False, verify=False)
    tracemalloc.start()
    try:
        report = verify_module(fiber)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed, report.failures
    assert peak < 12 * 2**20


# ---------------------------------------------------------------------------
# stacked GNS construction and quotient


def _kraus_maps(ranks, rng):
    """Maps on M2 with the given Kraus ranks: rank r keeps r of the 4 GNS
    generators, so the quotient drops 4 - r."""
    m2 = full_matrix_algebra(2)
    return [
        cp_from_kraus(m2, list(rng.normal(size=(r, 2, 2)) + 1j * rng.normal(size=(r, 2, 2))))
        for r in ranks
    ]


def _stack_of(label):
    rng = np.random.default_rng(11)
    m2, m3 = full_matrix_algebra(2), full_matrix_algebra(3)
    if label == "m3-states":
        # a pure state keeps 3 of the 9 generators, a faithful one all 9
        pure = np.zeros((3, 3), dtype=complex)
        pure[0, 0] = 1.0
        return [state_from_density(m3, random_density(3, rng)), normalized_trace_state(m3),
                state_from_density(m3, pure)]
    if label == "m2-compressions":
        return [diagonal_compression(2, m2), diagonal_compression(2, m2)]
    if label == "stochastic":
        return [cp_from_stochastic(p) for p in (
            np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]]),
            (np.ones((3, 3)) - np.eye(3)) / 2,
            np.eye(3),
        )]
    if label == "m2-cps":
        return random_unital_cps(2, rng, 6) + [identity_map(m2)]
    # Kraus ranks 4, 3, 2 and 1: modules dropping 0, 1, 2 and 3 generators
    return _kraus_maps([4, 2, 3, 1, 4], rng)


STACKS = ["m3-states", "m2-compressions", "stochastic", "m2-cps", "mixed-survivors"]


def _bits(a):
    return a.shape, np.asarray(a).tobytes()


@pytest.mark.parametrize("reduce", [False, True])
@pytest.mark.parametrize("label", STACKS)
def test_each_module_of_a_stack_has_the_bits_of_its_count_1_call(label, reduce):
    maps = _stack_of(label)
    for pmap, module in zip(maps, gns_construct_many(maps, reduce=reduce), strict=True):
        alone = gns_construct(pmap, reduce=reduce)
        assert _bits(module.gram) == _bits(alone.gram)
        assert _bits(module.left.blocks) == _bits(alone.left.blocks)
        assert _bits(module.distinguished["unit"]) == _bits(alone.distinguished["unit"])
    raw = gns_construct_many(maps, reduce=False)
    for module, info in zip(raw, quotient_null_spaces(raw), strict=True):
        alone = quotient_null_space(module)
        assert info.survivors == alone.survivors
        assert _bits(info.rewrite) == _bits(alone.rewrite)
        assert (info.residual, info.threshold) == (alone.residual, alone.threshold)


def test_one_stack_holds_modules_that_drop_different_numbers_of_generators():
    maps = _stack_of("mixed-survivors")
    infos = quotient_null_spaces(gns_construct_many(maps, reduce=False))
    assert [len(info.survivors) for info in infos] == [4, 2, 3, 1, 4]
    # the shared left action and unit survive each module's own rewrite
    for pmap, module in zip(maps, gns_construct_many(maps)):
        moments = module.vector_functional(module.distinguished["unit"], pmap.domain.basis)
        assert frob(moments - pmap.apply_many(pmap.domain.basis)) < 1e-10


def test_a_stack_names_the_map_it_rejects():
    m2 = full_matrix_algebra(2)
    # the transpose is positive but not completely positive
    transpose = map_from_images(m2, m2, m2.basis.transpose(0, 2, 1), MapKind.CP_MAP)
    maps = random_unital_cps(2, np.random.default_rng(3), 2) + [transpose]
    with pytest.raises(StructuralError, match="unverified map #2: completely-positive"):
        gns_construct_many(maps)
    # the unverified build keeps it, and a map of another codomain is refused
    assert len(gns_construct_many(maps, verify=False)) == 3
    with pytest.raises(StructuralError, match="map #1 does not share"):
        gns_construct_many([maps[0], normalized_trace_state(m2)])
    other_base = gns_construct(identity_map(diagonal_algebra(2)), reduce=False)
    with pytest.raises(StructuralError, match="module #1 differs"):
        quotient_null_spaces([gns_construct(maps[0], reduce=False), other_base])


def test_refusing_the_last_non_null_pivot_fails_quotient_preserves_moments(monkeypatch):
    """Negative control: a quotient that treats its last surviving generator
    as null, dropping it with no rewrite, must fail the module suite's
    moment check at seed 7.  A module with one survivor keeps it."""
    def rows():
        return {row["name"]: row for row in suite_module(RunConfig(seed=7))}

    assert rows()["quotient-preserves-moments"]["passed"]
    real = hilbert_module.quotient_null_spaces

    def refuse_last_pivot(modules):
        out = []
        for info in real(modules):
            keep = max(len(info.survivors) - 1, 1)
            out.append(hilbert_module.QuotientInfo(
                info.survivors[:keep], info.rewrite[:keep], info.residual, info.threshold
            ))
        return out

    monkeypatch.setattr(hilbert_module, "quotient_null_spaces", refuse_last_pivot)
    row = rows()["quotient-preserves-moments"]
    assert not row["passed"] and row["residual"] > 1e-3
