"""Algebra and positive-map layer.

Hand-computed reference values used below:

* span{I, E12} in M2 is closed under products (E12^2 = 0) but not under
  adjoints: E21 = E12^dag is orthogonal to the span, so the least-squares
  residual of the adjoint-closure check is exactly ||E21||_F = 1.
* The transpose map on M2 is positive but not completely positive; with the
  matrix-unit Choi convention its Choi matrix is the swap, eigenvalues
  (1, 1, 1, -1), so the minimal eigenvalue is exactly -1.
* Projecting E12 onto the diagonal algebra cuts off all of it: residual 1.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import algebra_core
from ncprob.algebra_core import (
    MapKind,
    MatrixStarAlgebra,
    PositiveMap,
    StructuralError,
    algebra_from_basis,
    average_with_involution,
    choi_matrix,
    compose_maps,
    cp_from_kraus,
    cp_from_stochastic,
    cp_kernel,
    diagonal_algebra,
    diagonal_compression,
    full_matrix_algebra,
    identity_map,
    induced_density,
    iterate_map,
    map_from_images,
    normalized_trace_state,
    pauli_algebra,
    scalar_algebra,
    state_from_density,
    verify_algebra,
    verify_positive_map,
)
from ncprob.independence import (
    AlternatingWord,
    QuantumProbabilitySpace,
    coins_game,
    conditional_tensor_realize,
    monotone_realize,
)
from ncprob.linalg import dag, frob, min_eig, random_density, residual_max, scaled_hermitian

RNG = np.random.default_rng(20260817)


def random_hermitian(dim, rng):
    """Random Hermitian matrix with spectrum inside [-2, 2]."""
    return scaled_hermitian(rng.normal(size=(1, 2, dim, dim)))[0]


def e(i, j, d=2):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


class TestAlgebraStructure:
    def test_full_matrix_algebra_verifies(self):
        for d in (1, 2, 3):
            report = verify_algebra(full_matrix_algebra(d))
            assert report.passed, report.failures

    def test_diagonal_algebra_verifies_and_commutes(self):
        alg = diagonal_algebra(3)
        assert verify_algebra(alg).passed
        assert alg.is_commutative()

    def test_full_algebra_not_commutative(self):
        assert not full_matrix_algebra(2).is_commutative()

    def test_pauli_basis_spans_m2(self):
        alg = pauli_algebra()
        assert verify_algebra(alg).passed
        # same span as the matrix units
        for i in range(2):
            for j in range(2):
                _, res = alg.coords(e(i, j))
                assert res < 1e-12

    def test_adjoint_closure_failure_has_unit_residual(self):
        # span{I, E12}: closed under multiplication, not under adjoints.
        alg = algebra_from_basis([np.eye(2), e(0, 1)])
        report = verify_algebra(alg)
        assert not report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["product-closure"].passed
        assert not by_name["adjoint-closure"].passed
        assert by_name["adjoint-closure"].residual == pytest.approx(1.0, abs=1e-12)

    def test_dependent_basis_rejected(self):
        with pytest.raises(StructuralError):
            algebra_from_basis([np.eye(2), 2 * np.eye(2)])

    def test_nonsquare_basis_rejected(self):
        with pytest.raises(StructuralError):
            algebra_from_basis(np.ones((1, 2, 3)))

    def test_corner_unit(self):
        # span{E11} is a *-algebra whose unit is the projection E11.
        alg = algebra_from_basis([e(0, 0)], unit=e(0, 0))
        assert verify_algebra(alg).passed

    def test_subalgebra_projection_of_offdiagonal(self):
        # the least-squares projection onto the span: coordinates, combined
        diag = diagonal_algebra(2)
        c, res = diag.coords(e(0, 1))
        assert frob(diag.combine(c)) < 1e-12
        assert res == pytest.approx(1.0, abs=1e-12)

    def test_subalgebra_projection_is_identity_on_members(self):
        diag = diagonal_algebra(3)
        x = np.diag([1.0, -2.0, 0.5 + 0.5j])
        c, res = diag.coords(x)
        assert res < 1e-12
        assert frob(diag.combine(c) - x) < 1e-12

    def test_membership_check(self):
        diag = diagonal_algebra(2)
        with pytest.raises(StructuralError):
            diag.element(e(0, 1))
        diag.element(np.diag([1.0, 2.0]))

    def test_a_full_algebra_holds_every_large_matrix(self):
        # M2 holds every 2x2 matrix, however large: the least-squares
        # residual of a matrix of norm 1e9 is rounding of about 1e-7, which
        # the absolute guard tolerance rejected for 1131 of these 2000 draws
        rng = np.random.default_rng(0)
        xs = 1e9 * (rng.normal(size=(2000, 2, 2)) + 1j * rng.normal(size=(2000, 2, 2)))
        m2 = full_matrix_algebra(2)
        trace = normalized_trace_state(m2)
        space = QuantumProbabilitySpace(m2, trace)
        real = monotone_realize(space, space)
        for x in xs:
            assert m2.element(x) is not None and m2.span_residual(x) == 0.0
            assert np.isfinite(trace.apply(x)).all()
            assert np.isfinite(real.moment(AlternatingWord([(1, x), (2, x)])))
        assert np.isfinite(trace.apply_many(xs)).all()

    def test_a_proper_subalgebra_keeps_its_least_squares_residual(self):
        diag = diagonal_algebra(2)
        x = 1e9 * (e(0, 1) + np.diag([1.0, -2.0]))
        v = x.reshape(-1).astype(complex)
        want = frob(diag._stack.dot(diag._pinv.dot(v)) - v)
        assert want == 1e9 and diag.span_residual(x) == want
        with pytest.raises(StructuralError, match=re.escape(f"residual {want:.3e}")):
            diag.element(x)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_coords_roundtrip(self, d, seed):
        rng = np.random.default_rng(seed)
        alg = full_matrix_algebra(d)
        x = random_hermitian(d, rng)
        c, res = alg.coords(x)
        assert res < 1e-10
        assert frob(alg.combine(c) - x) < 1e-10


class TestStates:
    def test_trace_state_on_m2(self):
        phi = normalized_trace_state(full_matrix_algebra(2))
        assert verify_positive_map(phi).passed
        assert phi.apply(e(0, 0))[0, 0] == pytest.approx(0.5)

    def test_state_from_density_values(self):
        rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        phi = state_from_density(full_matrix_algebra(2), rho)
        assert verify_positive_map(phi).passed
        x = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
        assert phi.apply(x)[0, 0] == pytest.approx(np.trace(rho @ x))

    def test_two_point_state(self):
        # weights (0.7, 0.3) on two points; the observable diag(1, -1) has mean 0.4
        phi = state_from_density(diagonal_algebra(2), np.diag([0.7, 0.3]))
        x = np.diag([1.0, -1.0])
        assert phi.apply(x)[0, 0] == pytest.approx(0.4, abs=1e-14)

    def test_induced_density_recovers_density(self):
        rho = random_density(3, RNG)
        phi = state_from_density(full_matrix_algebra(3), rho)
        assert frob(induced_density(phi) - rho) < 1e-9

    def test_nonpositive_functional_flagged(self):
        phi = state_from_density(diagonal_algebra(2), np.diag([1.5, -0.5]))
        report = verify_positive_map(phi)
        assert not report.passed
        assert any(c.name == "density-positive" and not c.passed for c in report.checks)

    def test_non_unital_functional_flagged(self):
        phi = state_from_density(diagonal_algebra(2), np.diag([0.5, 0.1]))
        report = verify_positive_map(phi)
        assert not report.passed


class TestConditionalExpectations:
    def test_diagonal_compression_verifies(self):
        ce = diagonal_compression(3)
        report = verify_positive_map(ce)
        assert report.passed, report.failures

    def test_diagonal_compression_values(self):
        ce = diagonal_compression(2)
        x = np.array([[1.0, 5.0], [7.0, -2.0]], dtype=complex)
        assert frob(ce.apply(x) - np.diag([1.0, -2.0])) < 1e-12

    def test_average_with_involution(self):
        # averaging with sz fixes the diagonal of M2
        sz = np.diag([1.0, -1.0])
        ce = average_with_involution(full_matrix_algebra(2), sz)
        report = verify_positive_map(ce)
        assert report.passed, report.failures
        assert ce.codomain.dim == 2
        x = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
        assert frob(ce.apply(x) - np.diag([2.0, 3.0])) < 1e-12

    def test_average_rejects_non_involution(self):
        with pytest.raises(StructuralError):
            average_with_involution(full_matrix_algebra(2), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_broken_bimodule_detected(self):
        # "project to normalized trace times identity" is unital and idempotent
        # on M2 but fails the bimodule property over the full diagonal.
        dom = full_matrix_algebra(2)
        cod = diagonal_algebra(2)
        images = np.stack([np.trace(b) / 2 * np.eye(2) for b in dom.basis])
        ce = map_from_images(dom, cod, images, MapKind.CONDITIONAL_EXPECTATION)
        report = verify_positive_map(ce)
        assert any(c.name in ("bimodule", "idempotent") and not c.passed for c in report.checks)


def _not_bimodular():
    """x -> diag(x11 + x12 + x21, x22 - x12 - x21) from M2 onto diag(2): unital
    and idempotent (it fixes the diagonal), but E(E11 x) != E11 E(x) for
    x = E12."""
    dom = full_matrix_algebra(2)

    def image(x):
        return np.diag([x[0, 0] + x[0, 1] + x[1, 0], x[1, 1] - x[0, 1] - x[1, 0]])

    images = np.stack([image(b) for b in dom.basis])
    return map_from_images(dom, diagonal_algebra(2), images, MapKind.CONDITIONAL_EXPECTATION)


def _bimodule_pair_loop(pmap):
    """The bimodule row's per-pair norms, one three-operand einsum and one
    apply_many per pair (b_i, b_j), i-major: the reference for the stack."""
    dom_b = pmap.domain.basis
    dom_images = pmap.apply_many(dom_b)
    gaps = []
    for bi in pmap.codomain.basis:
        for bj in pmap.codomain.basis:
            lhs = pmap.apply_many(np.einsum("ab,kbc,cd->kad", bi, dom_b, bj))
            rhs = np.einsum("ab,kbc,cd->kad", bi, dom_images, bj)
            gaps.append(float(np.linalg.norm(lhs - rhs)))
    return np.array(gaps)


def _real_expectations():
    s1, s2, _ = coins_game()
    return {
        "diag-compression-3": diagonal_compression(3),
        "average-sz-m3": average_with_involution(full_matrix_algebra(3), np.diag([1.0, -1.0, 1.0])),
        "coins-amalgamated": conditional_tensor_realize(s1, s2).expectation,
    }


class TestBimoduleStack:
    def test_a_unital_idempotent_map_that_is_not_bimodular_fails_only_bimodule(self):
        rows = {c.name: c for c in verify_positive_map(_not_bimodular()).checks}
        for name in ("unit-match", "expectation-unital", "idempotent"):
            assert rows[name].passed and rows[name].residual == 0.0, name
        assert not rows["bimodule"].passed
        # E(E11 E12 E22) = E(E12) = diag(1, -1) against E11 E(E12) E22 = 0
        assert rows["bimodule"].residual == pytest.approx(np.sqrt(2), rel=1e-15)

    @pytest.mark.parametrize("name", ["not-bimodular", *_real_expectations()])
    def test_the_stack_matches_the_pair_loop(self, name):
        pmap = _not_bimodular() if name == "not-bimodular" else _real_expectations()[name]
        got = algebra_core._bimodule_gaps(pmap)
        want = _bimodule_pair_loop(pmap)
        assert got.shape == want.shape == (pmap.codomain.dim**2,)
        top = want.max()
        assert np.abs(got - want).max() <= 1e-15 * top
        row = {c.name: c for c in verify_positive_map(pmap).checks}["bimodule"]
        assert abs(row.residual - top) <= 1e-15 * top
        assert row.tolerance == 1e-9 and row.passed == (name != "not-bimodular")

    def test_a_nan_map_gives_a_nan_bimodule_residual(self):
        ce = diagonal_compression(2)
        matrix = np.array(ce.matrix)
        matrix[0, 1] = np.nan
        with pytest.raises(StructuralError, match="map matrix has a non-finite entry"):
            PositiveMap(ce.domain, ce.codomain, matrix, MapKind.CONDITIONAL_EXPECTATION)
        # the constructor refuses that matrix, so the NaN goes into the kernel
        # the map applies: the row 1 the matrix's NaN column would make
        broken = PositiveMap(ce.domain, ce.codomain, ce.matrix, MapKind.CONDITIONAL_EXPECTATION)
        kernel = np.array(broken._kernel)
        kernel[1] = np.nan
        broken._kernel = kernel
        gaps = algebra_core._bimodule_gaps(broken)
        assert np.isnan(gaps).any()
        # the row is residual_max of the gaps, which a NaN anywhere makes NaN
        assert np.isnan(residual_max(*gaps))

    def test_the_apply_many_calls_do_not_grow_with_the_codomain(self, monkeypatch):
        calls = []
        honest = PositiveMap.apply_many

        def counted(self, xs):
            calls.append(len(xs))
            return honest(self, xs)

        monkeypatch.setattr(PositiveMap, "apply_many", counted)
        counts = []
        for d in (2, 3, 4):
            ce = diagonal_compression(d)
            calls.clear()
            assert verify_positive_map(ce).passed
            counts.append(len(calls))
        assert counts == [2, 2, 2]


class TestSharedAlgebras:
    def test_the_standard_algebras_are_built_once(self):
        assert full_matrix_algebra(2) is full_matrix_algebra(2)
        assert diagonal_algebra(3) is diagonal_algebra(3)
        assert scalar_algebra() is scalar_algebra()
        assert full_matrix_algebra(2) is not full_matrix_algebra(3)

    @pytest.mark.parametrize("make", [lambda: full_matrix_algebra(2), lambda: diagonal_algebra(3), scalar_algebra])
    def test_a_shared_algebra_is_read_only(self, make):
        alg = make()
        for held in (alg.unit, alg.basis, alg._pinv, alg._zero):
            assert not held.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 7

    def test_the_constructor_copies_the_unit(self):
        proj = np.diag([1.0, 0.0]).astype(complex)
        unit = proj.copy()
        alg = MatrixStarAlgebra(proj[None], unit)
        assert unit.flags.writeable
        unit[1, 1] = 5.0
        assert np.array_equal(alg.unit, proj)
        assert verify_algebra(alg).passed


class TestCpMaps:
    def test_identity_is_cp(self):
        report = verify_positive_map(identity_map(full_matrix_algebra(2)))
        assert report.passed

    def test_kraus_map_is_cp_and_choi_psd(self):
        alg = full_matrix_algebra(2)
        kraus = [np.array([[1.0, 0], [0, 0.6]]), np.array([[0, 0.8], [0, 0]])]
        t = cp_from_kraus(alg, kraus)
        assert verify_positive_map(t).passed
        assert min_eig(choi_matrix(t)) > -1e-12
        assert min_eig(cp_kernel(t)) > -1e-12

    def test_transpose_choi_minimum_is_minus_one(self):
        alg = full_matrix_algebra(2)
        images = np.stack([b.T for b in alg.basis])
        transpose = map_from_images(alg, alg, images, MapKind.CP_MAP)
        assert min_eig(choi_matrix(transpose)) == pytest.approx(-1.0, abs=1e-12)
        report = verify_positive_map(transpose)
        assert not report.passed
        # the kernel certificate agrees with the Choi certificate
        assert min_eig(cp_kernel(transpose)) < -0.5

    def test_stochastic_map(self):
        p = np.array([[0.5, 0.5], [0.3, 0.7]])
        t = cp_from_stochastic(p)
        assert verify_positive_map(t).passed
        assert t.is_unital()
        f = np.diag([1.0, 0.0])
        # (Tf)(y) = P[y, 0]
        assert frob(t.apply(f) - np.diag(p[:, 0])) < 1e-12

    def test_stochastic_rejects_bad_rows(self):
        with pytest.raises(StructuralError):
            cp_from_stochastic(np.array([[0.5, 0.4], [0.3, 0.7]]))
        with pytest.raises(StructuralError):
            cp_from_stochastic(np.array([[1.5, -0.5], [0.3, 0.7]]))

    def test_compose_and_iterate(self):
        p = np.array([[0.5, 0.5], [0.3, 0.7]])
        t = cp_from_stochastic(p)
        t2 = compose_maps(t, t)
        assert frob(t2.matrix - p.astype(complex) @ p) < 1e-12
        t3 = iterate_map(t, 3)
        assert frob(t3.matrix - np.linalg.matrix_power(p.astype(complex), 3)) < 1e-12

    def test_apply_outside_domain_raises(self):
        t = cp_from_stochastic(np.eye(2))
        with pytest.raises(StructuralError):
            t.apply(e(0, 1))

    def test_a_domain_not_closed_under_adjoints_is_rejected(self):
        # the upper-triangular 2x2 matrices are closed under products but
        # not under adjoints: E12* E11 = E21 leaves the span (residual 1), so
        # neither the CP kernel nor a GNS Gram is defined on them
        from ncprob.hilbert_module import gns_construct

        upper = algebra_from_basis(np.stack([e(0, 0), e(0, 1), e(1, 1)]))
        with pytest.raises(StructuralError, match="not in the domain span"):
            identity_map(upper).apply_many(e(1, 0)[None])
        with pytest.raises(StructuralError, match="not in the domain span"):
            verify_positive_map(identity_map(upper))
        with pytest.raises(StructuralError, match="not in the domain span"):
            gns_construct(state_from_density(upper, np.eye(2) / 2))

    def test_choi_requires_full_domain(self):
        t = cp_from_stochastic(np.eye(2))
        with pytest.raises(StructuralError):
            choi_matrix(t)

    def test_cp_kernel_on_subalgebra_domain(self):
        # The kernel certificate still works where Choi does not.
        t = cp_from_stochastic(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert min_eig(cp_kernel(t)) > -1e-12

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_kraus_maps_are_cp(self, seed):
        rng = np.random.default_rng(seed)
        alg = full_matrix_algebra(2)
        kraus = [
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)
        ]
        t = cp_from_kraus(alg, kraus)
        assert min_eig(cp_kernel(t)) > -1e-9

    def test_unitality_reported_but_not_required(self):
        alg = full_matrix_algebra(2)
        t = cp_from_kraus(alg, [np.diag([0.5, 0.5])])  # not unital
        report = verify_positive_map(t)
        assert report.passed  # CP holds; unitality is informational
        unital = [c for c in report.checks if c.name == "unital"]
        assert unital and unital[0].residual > 0.1


_KERNEL_ALGEBRAS = {
    "m2": lambda: full_matrix_algebra(2),
    "diag3": lambda: diagonal_algebra(3),
    "pauli": pauli_algebra,
    "scalars": scalar_algebra,
    "diagonal-base": lambda: diagonal_compression(2).codomain,
}


def _draw(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _kernel_maps(name, rng):
    alg = _KERNEL_ALGEBRAS[name]()
    maps = [PositiveMap(alg, cod, _draw(rng, cod.dim, alg.dim), MapKind.CP_MAP)
            for cod in (alg, scalar_algebra())]
    if name == "m2":
        maps.append(diagonal_compression(2))
    return alg, maps


def _kernel_gap(pmap, alg, rng):
    """Worst gap of ``apply`` against the coordinate path over 20 seeded
    arguments, relative to the scale that bounds both sums."""
    gap = 0.0
    for _ in range(20):
        x = alg.combine(_draw(rng, alg.dim))
        c, _ = alg.coords(x)
        # the reference: coordinates, the coordinate matrix, combine
        want = pmap.codomain.combine(pmap.matrix @ c)
        scale = frob(pmap.matrix) * frob(c) * max(frob(b) for b in pmap.codomain.basis)
        gap = max(gap, frob(pmap.apply(x) - want) / scale)
    return gap


class TestFlatKernels:
    @pytest.mark.parametrize("name", sorted(_KERNEL_ALGEBRAS))
    def test_apply_kernel_matches_the_coordinate_path(self, name):
        rng = np.random.default_rng(sorted(_KERNEL_ALGEBRAS).index(name))
        alg, maps = _kernel_maps(name, rng)
        for pmap in maps:
            assert _kernel_gap(pmap, alg, rng) <= 1e-15

    def test_a_kernel_from_the_untransposed_matrix_fails_parity(self):
        rng = np.random.default_rng(5)
        alg, (pmap, *_) = _kernel_maps("pauli", rng)
        pmap._kernel = pmap.matrix @ pmap.codomain._flat
        assert _kernel_gap(pmap, alg, rng) > 1e-3

    @pytest.mark.parametrize("name", sorted(_KERNEL_ALGEBRAS))
    def test_apply_and_apply_many_agree(self, name):
        rng = np.random.default_rng(11)
        alg, maps = _kernel_maps(name, rng)
        xs = alg.combine(_draw(rng, 8, alg.dim))
        for pmap in maps:
            many = pmap.apply_many(xs)
            for x, image in zip(xs, many):
                assert frob(pmap.apply(x) - image) <= 1e-15 * max(1.0, frob(image))

    @pytest.mark.parametrize("name", sorted(_KERNEL_ALGEBRAS))
    def test_an_empty_stack_gives_empty_results(self, name):
        rng = np.random.default_rng(2)
        alg, maps = _kernel_maps(name, rng)
        d = alg.ambient_dim
        c, res = alg.coords_many(np.zeros((0, d, d), dtype=complex))
        assert c.shape == (0, alg.dim) and res == 0.0
        for pmap in maps:
            d2 = pmap.codomain.ambient_dim
            assert pmap.apply_many(np.zeros((0, d, d))).shape == (0, d2, d2)

    def test_kernel_sources_are_read_only_copies(self):
        basis = full_matrix_algebra(2).basis.copy()
        matrix = np.eye(4, dtype=complex)
        alg = algebra_from_basis(basis)
        pmap = PositiveMap(alg, alg, matrix, MapKind.CP_MAP)
        for held in (alg.basis, alg._pinv, pmap.matrix, pmap._kernel):
            assert not held.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0
        # the caller's arrays stay writable, and writing to them changes nothing held
        basis[0] = 0
        matrix[0, 0] = 2
        assert frob(pmap.apply(np.eye(2)) - np.eye(2)) == 0.0

    def test_a_large_ambient_small_basis_algebra_stays_small(self):
        # span{I, P} in M_128: every array held is O(n d^2), a few basis
        # stacks (0.5 MB each); a dense (d^2, d^2) matrix would be 4.3 GB
        d = 128
        proj = np.diag(np.arange(d) < d // 2).astype(complex)
        tracemalloc.start()
        try:
            alg = algebra_from_basis([np.eye(d), proj])
            pmap = PositiveMap(alg, alg, np.eye(2), MapKind.CP_MAP)
            image = pmap.apply(proj)
            with pytest.raises(StructuralError, match="domain span"):
                pmap.apply(np.eye(d, k=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert frob(image - proj) <= 1e-12
        assert peak < 16 * 2**20
