"""Finite-dimensional matrix *-algebras and positive maps between them.

An algebra is stored concretely: a linearly independent basis of complex
``d x d`` matrices whose span is closed under products and adjoints, plus a
unit (which may be a proper projection when the algebra sits non-unitally
inside the ambient matrix algebra).  Positive maps are stored by their matrix
in basis coordinates and tagged with the role they are meant to play: state,
conditional expectation, or completely positive map.

Verification never mutates anything.  Structural problems (shape mismatches,
codomain not inside the domain, dependent basis) raise :class:`StructuralError`;
numerical failures are returned in a :class:`VerificationReport`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    EIG_FLOOR,
    GUARD_TOL,
    RANK_RTOL,
    block_matrix,
    dag,
    exceeds,
    frob,
    min_eig,
    residual_max,
    vec,
)

__all__ = [
    "StructuralError",
    "MatrixStarAlgebra",
    "MapKind",
    "PositiveMap",
    "CheckResult",
    "VerificationReport",
    "full_matrix_algebra",
    "pauli_algebra",
    "diagonal_algebra",
    "scalar_algebra",
    "algebra_from_basis",
    "verify_algebra",
    "map_from_images",
    "independent_columns",
    "state_from_density",
    "normalized_trace_state",
    "induced_density",
    "diagonal_compression",
    "average_with_involution",
    "cp_from_kraus",
    "kraus_images",
    "cp_from_stochastic",
    "identity_map",
    "compose_maps",
    "iterate_map",
    "cp_kernel",
    "cp_kernels",
    "choi_matrix",
    "verify_positive_map",
]


class StructuralError(ValueError):
    """Malformed input: wrong shapes, dependent basis, codomain not contained
    in the domain, and similar.  Distinct from a failed numerical check."""


@dataclass
class CheckResult:
    """One decided check: its residual, the tolerance it was decided at, and
    the verdict.  Reports copy these rows; they never re-decide them."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def add(self, name: str, residual: float, tol: float, detail: str = "") -> None:
        residual, tol = float(residual), float(tol)
        self.checks.append(CheckResult(name, residual, tol, residual <= tol, detail))

    def extend(self, prefix: str, other: "VerificationReport") -> None:
        """Append ``other``'s checks, verdicts and tolerances as decided, named ``prefix:name``."""
        self.checks.extend(replace(c, name=f"{prefix}:{c.name}") for c in other.checks)

    def rows(self) -> list[dict]:
        """The report rows {"name", "residual", "tolerance", "passed", "detail"}."""
        return [
            {"name": c.name, "residual": c.residual, "tolerance": c.tolerance,
             "passed": c.passed, "detail": c.detail}
            for c in self.checks
        ]

    def raise_on_failure(self, message: str) -> None:
        """Raise :class:`StructuralError` naming every failed check after ``message``."""
        if not self.passed:
            raise StructuralError(
                f"{message}: " + "; ".join(f"{c.name}={c.residual:.2e}" for c in self.failures)
            )


class MatrixStarAlgebra:
    """A *-algebra of complex matrices given by an explicit basis.

    Parameters
    ----------
    basis:
        Array of shape ``(n, d, d)``; must be linearly independent.
    unit:
        The algebra unit, a ``d x d`` matrix.  Defaults to the ambient
        identity; pass a projection for non-unital embeddings.

    Every array an algebra holds is a private read-only copy, so that one
    instance can be shared: the standard algebras are built once.
    """

    def __init__(self, basis: np.ndarray, unit: np.ndarray | None = None):
        # a private read-only copy: the pseudoinverse below is derived from it
        basis = np.array(basis, dtype=complex)
        basis.flags.writeable = False
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise StructuralError(f"basis must have shape (n, d, d), got {basis.shape}")
        if not np.isfinite(basis).all():
            raise StructuralError("basis has a non-finite entry")
        self.basis = basis
        d = basis.shape[1]
        self.unit = np.eye(d, dtype=complex) if unit is None else np.array(unit, dtype=complex)
        self.unit.flags.writeable = False
        if self.unit.shape != (d, d):
            raise StructuralError(f"unit shape {self.unit.shape} does not match ambient dimension {d}")
        if not np.isfinite(self.unit).all():
            raise StructuralError("unit has a non-finite entry")
        # row- and column-stacked basis and the pseudoinverse drive all
        # coordinate work
        self._flat = basis.reshape(len(basis), d * d)
        # an independent basis of d*d matrices spans all of M_d: every finite
        # matrix is a member, and its least-squares residual is exactly 0
        self.spans_ambient = len(basis) == d * d
        self._zero = np.zeros(d * d, dtype=complex)
        self._zero.flags.writeable = False
        self._stack = self._flat.T
        overlaps = dag(self._stack).dot(self._stack)
        norms2 = np.diagonal(overlaps).real
        if np.any(norms2 <= 0.0):
            raise StructuralError("basis contains a zero matrix")
        if np.count_nonzero(overlaps - np.diag(np.diagonal(overlaps))) == 0:
            # exactly orthogonal columns (matrix-unit-style bases): analytic
            # pseudoinverse, which keeps coordinate round-trips free of
            # factorization noise
            self._pinv = dag(self._stack) / norms2[:, None]
        else:
            sv = np.linalg.svd(self._stack, compute_uv=False)
            if len(basis) > 1 and sv[-1] < RANK_RTOL * sv[0]:
                raise StructuralError("basis matrices are linearly dependent")
            self._pinv = np.linalg.pinv(self._stack)
            if self._stack.shape[0] == self._stack.shape[1]:
                # square stacks with Gaussian-integer inverses (e.g. a unit
                # prepended to matrix units) deserve exact coordinates: round
                # and keep the result only if it is verifiably the inverse
                rounded = np.round(self._pinv.real) + 1j * np.round(self._pinv.imag)
                if (
                    np.abs(rounded - self._pinv).max() < 1e-10
                    and np.array_equal(rounded.dot(self._stack), np.eye(len(basis)))
                ):
                    self._pinv = rounded
        self._pinv.flags.writeable = False

    @property
    def dim(self) -> int:
        """Number of basis elements (linear dimension of the algebra)."""
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    def coords(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Least-squares coordinates of ``x`` over the basis and the residual.

        When the algebra spans M_d the residual is exact: 0 for a finite
        ``x`` and NaN for one with a non-finite entry (the vector dot
        ``0·x`` sums every term, so it is 0 or NaN), so a membership guard
        still rejects NaN and inf.
        """
        v = vec(x)
        c = self._pinv.dot(v)
        if self.spans_ambient:
            return c, float(abs(self._zero.dot(v)))
        return c, frob(self._stack.dot(c) - v)

    def span_residual(self, x: np.ndarray) -> float:
        """Distance of ``x`` from the algebra span: the residual of :meth:`coords`."""
        return self.coords(x)[1]

    def coords_many(self, xs: np.ndarray) -> tuple[np.ndarray, float]:
        """Coordinates for a stack of matrices ``(m, d, d)``; worst residual.

        The coordinates are C-contiguous rows, one per matrix: BLAS takes a
        strided row in another order, and a row then meets a product with
        other bits than the contiguous vector :meth:`coords` returns.  Each
        column's residual is ``np.linalg.norm(r, axis=0)``'s own
        arithmetic, ``sqrt(add.reduce((r.conj() * r).real, 0))``, so the same
        bits without that function's dispatch; a NaN column stays NaN.  When
        the algebra spans M_d the residual is exact, as in :meth:`coords`: 0
        for a finite stack, NaN for one with a non-finite entry.  An empty
        stack has (0, dim) coordinates and residual 0.
        """
        flat = xs.reshape(len(xs), self._stack.shape[0]).T
        c = self._pinv.dot(flat)
        if self.spans_ambient:
            # a finiteness test, not a product with the zero vector: a matrix
            # times a zero vector is one a BLAS may skip, NaN and all
            worst = 0.0 if np.isfinite(flat).all() else float("nan")
        else:
            r = self._stack.dot(c) - flat
            worst = float(np.sqrt(np.add.reduce((r.conj() * r).real, axis=0)).max(initial=0.0))
        return np.ascontiguousarray(c.T), worst

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """Matrix with the given basis coordinates; a stack (k, dim) of them
        gives the stack (k, d, d) of matrices, with one product."""
        # the one dot np.tensordot(coeffs, basis, axes=(0, 0)) makes after
        # its reshapes, so the same bits
        d = self.basis.shape[1]
        flat = np.dot(coeffs.reshape(-1, len(self._flat)), self._flat)
        return flat.reshape(*coeffs.shape[:-1], d, d)

    def element(self, x: np.ndarray) -> np.ndarray:
        """Return ``x`` checked for membership in the algebra span."""
        x = np.asarray(x, dtype=complex)
        res = self.span_residual(x)
        if exceeds(res, GUARD_TOL):
            raise StructuralError(f"matrix is not in the algebra span (residual {res:.3e})")
        return x

    def is_commutative(self) -> bool:
        b = self.basis
        comm = np.einsum("iab,jbc->ijac", b, b) - np.einsum("jab,ibc->ijac", b, b)
        return float(np.abs(comm).max(initial=0.0)) <= DEFAULT_TOL

    def same_basis(self, other: "MatrixStarAlgebra") -> bool:
        # the constructor rejects non-finite bases, so this norm would read 0
        if other is self:
            return True
        return (
            self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and frob(self.basis - other.basis) <= DEFAULT_TOL
        )


@functools.cache
def full_matrix_algebra(d: int) -> MatrixStarAlgebra:
    """The full matrix algebra, basis ordered with the unit first; built
    once per ``d`` and shared."""
    basis = [np.eye(d, dtype=complex)]
    for i in range(d):
        for j in range(d):
            if i == 0 and j == 0:
                continue
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            basis.append(e)
    return MatrixStarAlgebra(np.array(basis))


def pauli_algebra() -> MatrixStarAlgebra:
    """The 2x2 matrix algebra with the Hermitian unitary basis I, sx, sy, sz."""
    i2 = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return MatrixStarAlgebra(np.array([i2, sx, sy, sz]))


@functools.cache
def diagonal_algebra(d: int) -> MatrixStarAlgebra:
    """Diagonal matrices with the indicator basis (functions on d points);
    built once per ``d`` and shared."""
    basis = np.zeros((d, d, d), dtype=complex)
    for k in range(d):
        basis[k, k, k] = 1.0
    return MatrixStarAlgebra(basis)


@functools.cache
def scalar_algebra() -> MatrixStarAlgebra:
    """The complex numbers as 1x1 matrices; built once and shared."""
    return MatrixStarAlgebra(np.ones((1, 1, 1), dtype=complex))


def algebra_from_basis(basis, unit=None) -> MatrixStarAlgebra:
    return MatrixStarAlgebra(np.asarray(basis, dtype=complex), unit)


def verify_algebra(algebra: MatrixStarAlgebra, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check closure under products and adjoints and the unit laws."""
    b = algebra.basis
    n = algebra.dim
    report = VerificationReport()

    products = np.einsum("iab,jbc->ijac", b, b).reshape(n * n, *b.shape[1:])
    _, res = algebra.coords_many(products)
    report.add("product-closure", res, tol)

    adjoints = np.conj(np.transpose(b, (0, 2, 1)))
    _, res = algebra.coords_many(adjoints)
    report.add("adjoint-closure", res, tol)

    _, res = algebra.coords(algebra.unit)
    report.add("unit-membership", res, tol)

    left = np.einsum("ab,ibc->iac", algebra.unit, b) - b
    right = np.einsum("iab,bc->iac", b, algebra.unit) - b
    report.add("unit-law", residual_max(frob(left), frob(right)), tol)

    herm = frob(algebra.unit - dag(algebra.unit))
    idem = frob(algebra.unit.dot(algebra.unit) - algebra.unit)
    report.add("unit-projection", residual_max(herm, idem), tol)
    return report


class MapKind(str, enum.Enum):
    STATE = "state"
    CONDITIONAL_EXPECTATION = "conditional_expectation"
    CP_MAP = "cp_map"


class PositiveMap:
    """Linear map between matrix *-algebras, stored in basis coordinates.

    ``matrix[i, j]`` is the coefficient of ``codomain.basis[i]`` in the image
    of ``domain.basis[j]``.  :meth:`apply` and :meth:`apply_many` take domain
    coordinates to images by one product with ``_kernel``, whose row ``j`` is
    the flattened image of ``domain.basis[j]``.
    """

    def __init__(
        self,
        domain: MatrixStarAlgebra,
        codomain: MatrixStarAlgebra,
        matrix: np.ndarray,
        kind: MapKind,
    ):
        # a private read-only copy: the kernel below is derived from it
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape != (codomain.dim, domain.dim):
            raise StructuralError(
                f"map matrix shape {matrix.shape} does not match (codomain {codomain.dim}, domain {domain.dim})"
            )
        if not np.isfinite(matrix).all():
            raise StructuralError("map matrix has a non-finite entry")
        matrix.flags.writeable = False
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.kind = MapKind(kind)
        self._kernel = matrix.T.dot(codomain._flat)
        self._kernel.flags.writeable = False

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Image of ``x``; raises if ``x`` is not in the domain span."""
        c, res = self.domain.coords(x)
        if exceeds(res, GUARD_TOL):
            raise StructuralError(f"argument is not in the domain span (residual {res:.3e})")
        d = self.codomain.ambient_dim
        return c.dot(self._kernel).reshape(d, d)

    def apply_many(self, xs: np.ndarray) -> np.ndarray:
        """Images of a stack ``(m, d, d)``; raises, as :meth:`apply` does, if
        one of them is not in the domain span.  Each row of coordinates
        meets the kernel in its own product, so each image has the bits
        :meth:`apply` gives it, whatever the size of the stack."""
        d = self.codomain.ambient_dim
        return (_domain_coords(self.domain, xs)[:, None, :] @ self._kernel).reshape(-1, d, d)

    def is_unital(self) -> bool:
        return frob(self.apply(self.domain.unit) - self.codomain.unit) <= DEFAULT_TOL


def _domain_coords(domain: MatrixStarAlgebra, xs: np.ndarray) -> np.ndarray:
    """Coordinates of a stack of map arguments; raises, as
    :meth:`PositiveMap.apply` does, if one of them is not in the domain span."""
    c, res = domain.coords_many(xs)
    if exceeds(res, GUARD_TOL):
        raise StructuralError(f"argument is not in the domain span (residual {res:.3e})")
    return c


def map_from_images(
    domain: MatrixStarAlgebra,
    codomain: MatrixStarAlgebra,
    images: np.ndarray,
    kind: MapKind,
) -> PositiveMap:
    """Build a map from the images of the domain basis, in order."""
    images = np.asarray(images, dtype=complex)
    if images.shape[0] != domain.dim:
        raise StructuralError(
            f"need one image per domain basis element ({domain.dim}), got {images.shape[0]}"
        )
    coeffs, res = codomain.coords_many(images)
    if exceeds(res, 1e-10):
        raise StructuralError(f"images are not inside the codomain span (residual {res:.3e})")
    return PositiveMap(domain, codomain, coeffs.T, kind)


def state_from_density(algebra: MatrixStarAlgebra, rho: np.ndarray) -> PositiveMap:
    """The functional a -> trace(rho a) as a map into the scalars."""
    rho = np.asarray(rho, dtype=complex)
    values = np.einsum("ab,iba->i", rho, algebra.basis)
    return PositiveMap(algebra, scalar_algebra(), values[None, :], MapKind.STATE)


def normalized_trace_state(algebra: MatrixStarAlgebra) -> PositiveMap:
    d = algebra.ambient_dim
    return state_from_density(algebra, np.eye(d) / d)


def induced_density(state: PositiveMap) -> np.ndarray:
    """Density matrix in the domain span representing a scalar functional.

    Solves trace(rho b_j) = phi(b_j) inside span(domain); for a positive
    functional on a *-closed algebra the solution is positive semidefinite.
    """
    alg = state.domain
    values = state.matrix[0]
    # trace(rho b_j) = vec(rho) . vec(b_j^T); constrain rho to the span
    pairing = alg.basis.transpose(0, 2, 1).reshape(alg.dim, -1)
    coeff_matrix = pairing.dot(alg._stack)
    c = np.linalg.lstsq(coeff_matrix, values, rcond=None)[0]
    return alg.combine(c)


def diagonal_compression(d: int, domain: MatrixStarAlgebra | None = None) -> PositiveMap:
    """Conditional expectation keeping the diagonal of a d x d matrix."""
    dom = full_matrix_algebra(d) if domain is None else domain
    images = np.stack([np.diag(np.diagonal(b)) for b in dom.basis])
    return map_from_images(dom, diagonal_algebra(d), images, MapKind.CONDITIONAL_EXPECTATION)


def average_with_involution(domain: MatrixStarAlgebra, u: np.ndarray) -> PositiveMap:
    """Conditional expectation a -> (a + u a u*) / 2 for a Hermitian unitary u.

    The image is the commutant of ``u`` inside the domain.
    """
    u = np.asarray(u, dtype=complex)
    if exceeds(residual_max(frob(u.dot(u) - np.eye(len(u))), frob(u - dag(u))), 1e-10):
        raise StructuralError("averaging element must be a Hermitian unitary")
    images = (domain.basis + np.einsum("ab,ibc,cd->iad", u, domain.basis, dag(u))) / 2
    coeffs, res = domain.coords_many(images)
    if exceeds(res, 1e-10):
        raise StructuralError("averaged images left the domain span")
    # codomain basis: a maximal independent subset of the averaged images
    keep = independent_columns(images.reshape(len(images), -1).T)
    cod = MatrixStarAlgebra(images[keep])
    return map_from_images(domain, cod, images, MapKind.CONDITIONAL_EXPECTATION)


def independent_columns(a: np.ndarray) -> list[int]:
    """Indices of a maximal independent column subset, greedy by residual norm."""
    work = np.asarray(a, dtype=complex).copy()
    top = float(np.linalg.norm(work, axis=0).max(initial=0.0))
    keep: list[int] = []
    for _ in range(min(work.shape)):
        norms = np.linalg.norm(work, axis=0)
        k = int(np.argmax(norms))
        if norms[k] <= RANK_RTOL * max(top, 1.0):
            break
        keep.append(k)
        v = work[:, k] / norms[k]
        work -= np.outer(v, v.conj().dot(work))
    return sorted(keep)


def kraus_images(basis: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """``sum_k V_k^* b V_k`` for each ``b`` in ``basis`` (n, d, d), summed in
    the order of ``kraus`` (..., K, d, d); a stack of Kraus families gives
    the stack (..., n, d, d) of their images."""
    return np.einsum("...kba,ibc,...kcd->...kiad", kraus.conj(), basis, kraus).sum(axis=-4)


def cp_from_kraus(domain: MatrixStarAlgebra, kraus: list[np.ndarray]) -> PositiveMap:
    """The map a -> sum_k V_k^* a V_k in domain coordinates."""
    images = kraus_images(domain.basis, np.asarray(kraus, dtype=complex))
    try:
        return map_from_images(domain, domain, images, MapKind.CP_MAP)
    except StructuralError as exc:
        raise StructuralError(f"Kraus images left the algebra span: {exc}") from None


def cp_from_stochastic(p: np.ndarray) -> PositiveMap:
    """Transition matrix acting on the diagonal algebra: (Tf)(y) = sum_x P[y,x] f(x)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise StructuralError("transition matrix must be square")
    if not np.all(np.isfinite(p)):
        raise StructuralError("transition matrix has non-finite entries")
    if np.any(p < -1e-12):
        raise StructuralError("transition matrix has negative entries")
    if exceeds(np.max(np.abs(p.sum(axis=1) - 1.0)), 1e-9):
        raise StructuralError("transition matrix rows must sum to one")
    alg = diagonal_algebra(p.shape[0])
    return PositiveMap(alg, alg, p.astype(complex), MapKind.CP_MAP)


def identity_map(algebra: MatrixStarAlgebra, kind: MapKind = MapKind.CP_MAP) -> PositiveMap:
    return PositiveMap(algebra, algebra, np.eye(algebra.dim, dtype=complex), kind)


def compose_maps(outer: PositiveMap, inner: PositiveMap) -> PositiveMap:
    """outer o inner, of the kind of ``outer``; the codomain of ``inner`` must
    match the domain of ``outer``."""
    if not inner.codomain.same_basis(outer.domain):
        raise StructuralError("composition mismatch: inner codomain differs from outer domain")
    return PositiveMap(inner.domain, outer.codomain, outer.matrix.dot(inner.matrix), outer.kind)


def iterate_map(t: PositiveMap, n: int) -> PositiveMap:
    if not t.domain.same_basis(t.codomain):
        raise StructuralError("only endomaps can be iterated")
    return PositiveMap(t.domain, t.codomain, np.linalg.matrix_power(t.matrix, n), t.kind)


def cp_kernel(pmap: PositiveMap) -> np.ndarray:
    """Block matrix [ map(b_i^* b_j) ]_{ij}: the one-map case of :func:`cp_kernels`.

    Positive semidefiniteness of this kernel is equivalent to complete
    positivity and works for maps defined on proper subalgebras, where the
    usual Choi matrix is unavailable.
    """
    return cp_kernels([pmap])[0]


def cp_kernels(pmaps: list[PositiveMap]) -> np.ndarray:
    """The kernels of maps that share their domain and codomain, as one stack
    (K, n*d, n*d) of :func:`cp_kernel` block matrices.

    The products b_i^* b_j are put in coordinates once, and every map's
    images of them come from one stacked product, each with the bits
    :meth:`PositiveMap.apply_many` gives it.  Raises, naming the map, when
    one does not share the first map's domain and codomain.
    """
    first = pmaps[0]
    dom, cod = first.domain, first.codomain
    for k, pmap in enumerate(pmaps):
        if not (pmap.domain.same_basis(dom) and pmap.codomain.same_basis(cod)):
            raise StructuralError(f"map #{k} does not share the domain and codomain of map #0")
    b = dom.basis
    n, d2 = dom.dim, cod.ambient_dim
    products = np.einsum("iba,jbc->ijac", b.conj(), b).reshape(n * n, *b.shape[1:])
    kernels = np.stack([pmap._kernel for pmap in pmaps])
    images = _domain_coords(dom, products)[:, None, :] @ kernels[:, None]
    return block_matrix(images.reshape(len(pmaps), n, n, d2, d2))


def choi_matrix(pmap: PositiveMap) -> np.ndarray:
    """Standard Choi matrix sum_{ij} E_ij (x) map(E_ij).

    Requires the domain span to be the full ambient matrix algebra.
    """
    d = pmap.domain.ambient_dim
    if not pmap.domain.spans_ambient:
        raise StructuralError("Choi matrix needs the full matrix algebra as domain")
    # the matrix units E_ij, i-major
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    d2 = pmap.codomain.ambient_dim
    return block_matrix(pmap.apply_many(units).reshape(d, d, d2, d2))


def _embed_codomain(pmap: PositiveMap, tol: float) -> np.ndarray:
    """Coordinates of the codomain basis inside the domain span (CE only)."""
    coords, res = pmap.domain.coords_many(pmap.codomain.basis)
    if exceeds(res, max(tol, GUARD_TOL)):
        raise StructuralError(
            f"codomain is not contained in the domain span (residual {res:.3e})"
        )
    return coords


def _bimodule_gaps(pmap: PositiveMap) -> np.ndarray:
    """The norms ||E(b_i a_k b_j) - b_i E(a_k) b_j|| over the domain basis
    a_k, one per pair (b_i, b_j) of codomain basis elements, i-major.  Each
    side takes one broadcast product and one :meth:`PositiveMap.apply_many`
    for every pair at once."""
    a, b = pmap.domain.basis, pmap.codomain.basis
    bi, bj = b[:, None, None], b[None, :, None]
    lhs = pmap.apply_many(((bi @ a) @ bj).reshape(-1, *a.shape[1:]))
    rhs = (bi @ pmap.apply_many(a)) @ bj
    gap = (lhs.reshape(rhs.shape) - rhs).reshape(len(b) ** 2, -1)
    return np.sqrt(np.add.reduce((gap.conj() * gap).real, axis=1))


def verify_positive_map(
    pmap: PositiveMap, tol: float = DEFAULT_TOL, kernel: np.ndarray | None = None
) -> VerificationReport:
    """Run the checks appropriate for the map's declared kind.

    ``kernel`` is the map's :func:`cp_kernel`, for a caller that has it
    already; complete positivity is decided on it.
    """
    report = VerificationReport()
    eig_floor = min(EIG_FLOOR, -tol)

    if pmap.kind is MapKind.STATE:
        if pmap.codomain.ambient_dim != 1 or pmap.codomain.dim != 1:
            raise StructuralError("a state must take scalar values")
        report.add("state-unital", abs(pmap.apply(pmap.domain.unit)[0, 0] - 1.0), tol)
        rho = induced_density(pmap)
        report.add("density-hermitian", frob(rho - dag(rho)), tol)
        report.add("density-positive", residual_max(-min_eig(rho)), -eig_floor)
        return report

    if pmap.kind is MapKind.CONDITIONAL_EXPECTATION:
        embed = _embed_codomain(pmap, tol)  # (cod.dim, dom.dim) coordinates
        report.add("unit-match", frob(pmap.domain.unit - pmap.codomain.unit), tol)
        report.add("expectation-unital", frob(pmap.apply(pmap.domain.unit) - pmap.codomain.unit), tol)
        # idempotence: applying the map to its own images changes nothing
        again = pmap.matrix.dot(embed.T).dot(pmap.matrix)
        report.add("idempotent", frob(again - pmap.matrix), tol)
        # bimodule property over the codomain, exhaustively on bases: per
        # pair (b_i, b_j) the Frobenius norm over the domain basis of
        # E(b_i a b_j) - b_i E(a) b_j, every pair in one stacked product
        report.add("bimodule", residual_max(*_bimodule_gaps(pmap)), tol)
        kernel = cp_kernel(pmap) if kernel is None else kernel
        report.add("completely-positive", residual_max(-min_eig(kernel)), -eig_floor)
        return report

    # general CP map
    kernel = cp_kernel(pmap) if kernel is None else kernel
    report.add("completely-positive", residual_max(-min_eig(kernel)), -eig_floor)
    unital_res = frob(pmap.apply(pmap.domain.unit) - pmap.codomain.unit)
    report.checks.append(
        CheckResult("unital", unital_res, tol, True, "informational: unitality is not required of a CP map")
    )
    return report
