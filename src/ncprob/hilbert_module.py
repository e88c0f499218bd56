"""Finitely generated Hilbert modules over matrix *-algebras.

A module is presented by generators and relations in coordinate form: an
``(n, n, d0, d0)`` array of base-algebra-valued inner products between ``n``
generators (``d0`` is the ambient dimension of the base algebra), together
with an optional left action of another algebra and a dictionary of
distinguished vectors.  A vector is an ``(n, d0, d0)`` array of right
coefficients: ``x = sum_i e_i x[i]``.  An operator is its ``(n, n, d0, d0)``
block matrix acting on coefficients: every function takes and returns
operators as blocks.  An operator carries no adjoint; adjointability is a
property we verify, not an assumption.  Blocks do not name their module, so
the comparisons take the module whose Gram decides:
:func:`operator_distance` ``(module, s, t)`` compares two operators in the
form ``<e_i, S e_j>``, and :func:`adjoint_gap` ``(module, blocks,
adjoint)`` decides whether given blocks are an operator's adjoint, by the
Gram identity ``<x, S y> = <S* x, y>`` on all generator pairs.

That block layout is the public one at every function boundary, but the
arithmetic runs on the flat view: an operator is an element of M_n(B), an
``(n*d0, n*d0)`` matrix, and a vector an ``(n*d0, d0)`` matrix, so composing
is ``A B``, applying is ``A X`` and the inner product is ``<x, y> = X^H G Y``,
each one BLAS product.  The block arrays made here are views of such flat
matrices (:func:`~ncprob.linalg.unblock`), so handing them from kernel to
kernel copies nothing.

One rule for products, package-wide: two 1-D/2-D operands multiply by
``a.dot(b)``, stacks by ``a @ b``.  On the same operands both make the same
BLAS call, so the same bits, but ``dot`` skips the matmul ufunc's dispatch,
which at these sizes costs as much as the product.  ``dot`` does not
broadcast, and on arrays of three or more axes it contracts other axes than
``matmul``, so stacks stay on ``@``; :func:`compose_blocks`, which takes
both, picks by ``ndim``.  The bits agree only where BLAS takes the
operands directly: a contraction of length one, or a view with a step or a
reversed axis, is computed differently by each.

Since generators may be dependent, equality of vectors and operators is
always decided through the inner product, never through raw coefficients.
The :func:`quotient_null_space` routine extracts a minimal generating subset
(over the base algebra) and rewrites everything else in terms of it; the
surviving generators keep their original inner products verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra_core import (
    MatrixStarAlgebra,
    PositiveMap,
    StructuralError,
    VerificationReport,
    scalar_algebra,
)
from .linalg import (
    DEFAULT_TOL,
    EIG_FLOOR,
    GUARD_TOL,
    RANK_RTOL,
    block_matrix,
    dag,
    diagonal_blocks,
    exceeds,
    frob,
    min_eig,
    residual_max,
    unblock,
)

__all__ = [
    "HilbertModule",
    "LeftAction",
    "QuotientInfo",
    "inner_product",
    "apply_blocks",
    "compose_blocks",
    "dagger_blocks",
    "identity_blocks",
    "rank_one_blocks",
    "operator_distance",
    "vector_norm",
    "adjoint_gap",
    "extended_gram",
    "quotient_null_space",
    "quotient_module",
    "gns_construct",
    "tensor_gram",
    "tensor_extend",
    "tensor_lift",
    "tensor_isometry",
    "tensor_over_base",
    "ModuleTensor",
    "require_base_commutant",
    "restrict_left_action",
    "trivial_left_action",
    "representation_gaps",
    "verify_module",
]


# ---------------------------------------------------------------------------
# coefficient arithmetic


def _flat_vector(x: np.ndarray) -> np.ndarray:
    """The (n*d0, d0) matrix of an (n, d0, d0) vector (a view)."""
    return x.reshape(-1, x.shape[-1])


def _flat_backed(blocks: np.ndarray) -> np.ndarray:
    """The same blocks as a view of their flat matrix, copied only if needed."""
    blocks = np.asarray(blocks, dtype=complex)
    return unblock(block_matrix(blocks), blocks.shape[-1])


def inner_product(gram: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Base-valued inner product <x, y> = sum_ij x_i^* G_ij y_j = X^H G Y."""
    return _flat_vector(x).conj().T.dot(block_matrix(gram).dot(_flat_vector(y)))


def apply_blocks(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    return block_matrix(blocks).dot(_flat_vector(x)).reshape(blocks.shape[0], *x.shape[1:])


def compose_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Blocks of a b; stacks of operators broadcast like matmul operands."""
    fa, fb = block_matrix(a), block_matrix(b)
    return unblock(fa.dot(fb) if fa.ndim == fb.ndim == 2 else fa @ fb, a.shape[-1])


def dagger_blocks(m: np.ndarray) -> np.ndarray:
    """Blockwise adjoint: (M^*)[i, j] = M[j, i]^dag."""
    return m.transpose(1, 0, 3, 2).conj()


# ---------------------------------------------------------------------------
# modules, left actions, operators


@dataclass
class LeftAction:
    """Left action of ``algebra`` given per basis element as coefficient blocks.

    ``blocks[k]`` is the operator of ``algebra.basis[k]``, an
    ``(n, n, d0, d0)`` block matrix with entries in the base algebra.
    """

    algebra: MatrixStarAlgebra
    blocks: np.ndarray  # (m, n, n, d0, d0)

    def __post_init__(self):
        self.blocks = _flat_backed(self.blocks)

    def coords_of(self, elements: np.ndarray) -> np.ndarray:
        """Coordinates of a stack (k, d0, d0) of elements of the acting algebra.

        Raises when one of them is not in the acting algebra.
        """
        c, res = self.algebra.coords_many(elements)
        if exceeds(res, GUARD_TOL):
            raise StructuralError(f"element is not in the acting algebra (residual {res:.3e})")
        return c

    def operators(self, elements: np.ndarray) -> np.ndarray:
        """Flat operators (k, n*d0, n*d0) of a stack (k, d0, d0) of elements:
        their coordinates times the basis operators, one product."""
        acts = block_matrix(self.blocks)
        return self.coords_of(elements).dot(acts.reshape(len(acts), -1)).reshape(-1, *acts.shape[1:])

    def blocks_of(self, a: np.ndarray) -> np.ndarray:
        return unblock(self.operators(np.asarray(a)[None])[0], self.blocks.shape[-1])


class HilbertModule:
    def __init__(
        self,
        base: MatrixStarAlgebra,
        gram: np.ndarray,
        left: LeftAction | None = None,
        distinguished: dict[str, np.ndarray] | None = None,
    ):
        gram = np.asarray(gram, dtype=complex)
        d0 = base.ambient_dim
        if gram.ndim != 4 or gram.shape[0] != gram.shape[1] or gram.shape[2:] != (d0, d0):
            raise StructuralError(
                f"gram must have shape (n, n, {d0}, {d0}), got {gram.shape}"
            )
        self.base = base
        self.gram = _flat_backed(gram)
        self.left = left
        self.distinguished = dict(distinguished or {})
        if left is not None and left.blocks.shape[1:] != (self.rank, self.rank, d0, d0):
            raise StructuralError("left action blocks do not match the module shape")

    @property
    def rank(self) -> int:
        """Number of generators (not necessarily independent)."""
        return self.gram.shape[0]

    def vector(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.rank, self.base.ambient_dim, self.base.ambient_dim):
            raise StructuralError(f"vector coefficients must have shape "
                                  f"({self.rank}, {self.base.ambient_dim}, {self.base.ambient_dim})")
        return coeffs

    def generator(self, i: int) -> np.ndarray:
        x = np.zeros((self.rank, self.base.ambient_dim, self.base.ambient_dim), dtype=complex)
        x[i] = self.base.unit
        return x

    def inner(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return inner_product(self.gram, x, y)

    def vector_functional(self, x: np.ndarray, elements: np.ndarray) -> np.ndarray:
        """<x, a x> for each ``a`` of a stack (k, d, d) of acting-algebra elements.

        One batched X^H G (L X), with L the stacked operators of the elements;
        raises when an element is not in the acting algebra.
        """
        acts = self.left.operators(np.asarray(elements, dtype=complex))
        flat = _flat_vector(x)
        return flat.conj().T @ (block_matrix(self.gram) @ (acts @ flat))


def vector_norm(module: HilbertModule, x: np.ndarray) -> float:
    """Module norm sqrt(||<x, x>||); zero exactly for null vectors."""
    g = module.inner(x, x)
    return float(np.sqrt(residual_max(np.linalg.norm(g, 2))))


def identity_blocks(module: HilbertModule) -> np.ndarray:
    """Blocks of the identity operator on ``module``."""
    return diagonal_blocks(module.rank, module.base.unit)


def rank_one_blocks(gram: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Blocks of |x><y|, the flat product X (Y^H G); stacks (..., n, d0, d0)
    of vectors give the stack of operators, one stacked product."""
    d0 = x.shape[-1]
    xf, yf = x.reshape(*x.shape[:-3], -1, d0), y.reshape(*y.shape[:-3], -1, d0)
    return unblock(xf @ (yf.conj().swapaxes(-1, -2) @ block_matrix(gram)), d0)


def operator_distance(module: HilbertModule, s: np.ndarray, t: np.ndarray) -> float:
    """Distance of the blocks ``s`` and ``t`` in the sesquilinear form
    <e_i, S e_j> of ``module``, frob(G S - G T); zero iff the operators agree."""
    g = module.gram
    return frob(compose_blocks(g, s) - compose_blocks(g, t))


def adjoint_gap(module: HilbertModule, blocks: np.ndarray, adjoint: np.ndarray) -> float:
    """How far ``adjoint`` is from being the adjoint of ``blocks``.

    ``<x, S y> = <S* x, y>`` on all generator pairs reads ``G S* = (G S)^H``;
    the residual is frob(G S* - (G S)^H), zero iff ``adjoint`` is an adjoint
    of the operator (the two agree in the inner product).
    """
    g = module.gram
    return frob(compose_blocks(g, adjoint) - dagger_blocks(compose_blocks(g, blocks)))


# ---------------------------------------------------------------------------
# quotient by the length-zero subspace


def extended_gram(module: HilbertModule) -> np.ndarray:
    """Scalar Gram matrix of the family { e_i * beta_m } under tau o <.,.>.

    ``tau`` is the normalized ambient trace; positivity and base-linear
    dependence questions about the generators reduce to this matrix.
    """
    beta = module.base.basis
    d0 = module.base.ambient_dim
    # tau(beta_m^dag G beta_p) = sum_{b,c} G[b,c] (beta_p beta_m^dag)[c,b];
    # einsum's summation order follows the memory layout, so rank decisions
    # are taken on one fixed (C-ordered) layout
    pair = np.einsum("pcx,mbx->mpcb", beta, beta.conj())
    s = np.einsum("ijbc,mpcb->imjp", np.ascontiguousarray(module.gram), pair) / d0
    n, nb = module.rank, module.base.dim
    return s.reshape(n * nb, n * nb)


@dataclass
class QuotientInfo:
    """Result of selecting a generating subset over the base algebra."""

    survivors: list[int]
    rewrite: np.ndarray  # (n_new, n_old, d0, d0): old generators over new ones
    residual: float
    threshold: float

    def __post_init__(self):
        self.rewrite = _flat_backed(self.rewrite)

    def rewrite_vector(self, x: np.ndarray) -> np.ndarray:
        return apply_blocks(self.rewrite, x)


def quotient_null_space(module: HilbertModule) -> QuotientInfo:
    """Greedy minimal generating subset over the base algebra.

    Pivoted block Cholesky on the extended Gram: repeatedly claim the
    generator with the largest remaining quadratic form and eliminate its
    block.  Dropped generators are then expressed over the survivors with
    base-algebra coefficients.
    """
    base = module.base
    n, nb, d0 = module.rank, base.dim, base.ambient_dim
    s_ext = extended_gram(module)
    # the extended Gram is Hermitian PSD: its 2-norm is its top eigenvalue
    scale = float(np.linalg.eigvalsh(s_ext)[-1]) if s_ext.size else 0.0
    threshold = scale * RANK_RTOL
    work = s_ext.copy()
    survivors: list[int] = []
    remaining = list(range(n))
    while remaining:
        # each remaining generator's score is the trace of its diagonal block
        scores = np.einsum("iaia->i", work.reshape(n, nb, n, nb)).real[remaining]
        k = int(np.argmax(scores))
        if scores[k] <= threshold or scores[k] <= 0.0:
            break
        i = remaining.pop(k)
        survivors.append(i)
        sl = slice(i * nb, (i + 1) * nb)
        # the pivot's pseudo-inverse, with pinv's cutoff 1e-12 * max |eigenvalue|
        w, v = np.linalg.eigh(work[sl, sl])
        large = np.abs(w) > 1e-12 * np.abs(w).max()
        inv = (v[:, large] / w[large]).dot(v[:, large].conj().T)
        work -= work[:, sl].dot(inv).dot(work[sl, :])

    survivors.sort()
    idx = [i * nb + m for i in survivors for m in range(nb)]
    rewrite = np.zeros((len(survivors), n, d0, d0), dtype=complex)
    dropped = [i for i in range(n) if i not in survivors]
    residual = 0.0
    rewrite[np.arange(len(survivors)), survivors] = base.unit
    if dropped:
        s_surv = s_ext[np.ix_(idx, idx)]
        # <e_s beta_p, e_i>_tau = tau(beta_p^dag G[s, i])
        sub = np.ascontiguousarray(module.gram)[np.ix_(survivors, dropped)]
        # tau(beta_p^dag G) = (1/d0) sum_{b,c} conj(beta_p[b,c]) G[b,c]
        rhs = np.einsum("sibc,pbc->spi", sub, base.basis.conj()).reshape(
            len(idx), len(dropped)
        ) / d0
        gamma, *_ = np.linalg.lstsq(s_surv, rhs, rcond=RANK_RTOL)
        # residual of each dropped generator in the tau-norm
        self_norms = np.array(
            [np.trace(module.gram[i, i]).real / d0 for i in dropped]
        )
        cross = np.real(np.einsum("ki,ki->i", rhs.conj(), gamma))
        residual = float(np.sqrt(np.abs(self_norms - cross).max(initial=0.0)))
        coeffs = gamma.reshape(len(survivors), nb, len(dropped))
        rewrite[:, dropped] = np.einsum("apj,pcd->ajcd", coeffs, base.basis)
    return QuotientInfo(survivors, rewrite, residual, threshold)


def quotient_module(module: HilbertModule) -> tuple[HilbertModule, QuotientInfo]:
    """The same module on a minimal generating subset.

    Surviving generators keep their rows and columns of the inner-product
    table unchanged; dropped generators are rewritten over the survivors.
    """
    info = quotient_null_space(module)
    gram = module.gram[np.ix_(info.survivors, info.survivors)]
    left = None
    if module.left is not None:
        # R blocks J, with J keeping the survivors' columns
        blocks = compose_blocks(info.rewrite, module.left.blocks[..., info.survivors, :, :])
        left = LeftAction(module.left.algebra, blocks)
    distinguished = {k: info.rewrite_vector(v) for k, v in module.distinguished.items()}
    return HilbertModule(module.base, gram, left, distinguished), info


# ---------------------------------------------------------------------------
# GNS construction


def gns_construct(pmap: PositiveMap, reduce: bool = True, verify: bool = True) -> HilbertModule:
    """Generators-and-relations representation of a completely positive map.

    For ``T : A -> B`` the module is spanned by symbols, one per basis
    element of ``A``, with inner products ``<a_i, a_j> = T(a_i^* a_j)``,
    a left action of ``A`` by multiplication of symbols, and the class of
    the unit of ``A`` as the distinguished cyclic vector ("unit").  Then
    ``<unit, a . unit> = T(a)`` by construction.

    The map is verified first (complete positivity through its kernel, and
    the declared kind's axioms); a failing map is rejected, since a
    non-positive kernel is exactly a non-positive Gram matrix.
    """
    if verify:
        from .algebra_core import verify_positive_map

        verify_positive_map(pmap).raise_on_failure(
            "refusing to build a module over an unverified map"
        )
    dom, cod = pmap.domain, pmap.codomain
    n, d0 = dom.dim, cod.ambient_dim
    b = dom.basis
    products = np.einsum("iba,jbc->ijac", b.conj(), b).reshape(n * n, *b.shape[1:])
    gram = pmap.apply_many(products).reshape(n, n, d0, d0)

    # left action: a_k . [a_j] = [a_k a_j], expanded over the symbol basis
    prod_coords, res = dom.coords_many(
        np.einsum("kab,jbc->kjac", b, b).reshape(n * n, *b.shape[1:])
    )
    if exceeds(res, 1e-9):
        raise StructuralError("domain basis is not multiplicatively closed")
    struct = prod_coords.reshape(n, n, n)  # struct[k, j, l]: a_k a_j = sum_l . a_l
    blocks = np.einsum("kjl,ab->kljab", struct, cod.unit)
    left = LeftAction(dom, blocks)

    unit_coords, res = dom.coords(dom.unit)
    if exceeds(res, 1e-9):
        raise StructuralError("the domain unit is not in the domain span")
    xi = np.einsum("i,ab->iab", unit_coords, cod.unit)

    module = HilbertModule(cod, gram, left, {"unit": xi})
    if reduce:
        module, _ = quotient_module(module)
    return module


# ---------------------------------------------------------------------------
# interior tensor product over the base


def require_base_commutant(module: HilbertModule, blocks: np.ndarray) -> None:
    """Raise unless the operator S of ``blocks`` commutes with the base
    action on ``module``, which is what makes id o S well defined on any
    E (x) module.

    The defect of each basis element's action ``L`` is
    :func:`operator_distance` of ``L S`` and ``S L``, ``frob(G L S - G S L)``,
    for all of them from one stacked product.  Blocks (..., n, n, d0, d0)
    stacking several operators have every one of them decided.
    """
    acts, g = block_matrix(module.left.blocks), block_matrix(module.gram)
    op = block_matrix(blocks)[..., None, :, :]
    for gap in map(frob, (g @ (acts @ op) - g @ (op @ acts)).reshape(-1, *g.shape)):
        if exceeds(gap, GUARD_TOL):
            raise StructuralError(
                "operator does not commute with the base action on the right "
                f"factor (defect {gap:.3e}); id-tensor-S is not well defined"
            )


def tensor_extend(left: LeftAction, xs: np.ndarray, kept: tuple | None = None) -> np.ndarray:
    """Blocks of y -> x (x) y from F into E (x)_B F, per vector x of E.

    ``left`` is the base's action on F; ``xs`` stacks vectors of E as (...,
    n, d0, d0).  Row (i, u'), column u of each is rho(x[i])[u', u]: the
    entries' base coordinates times the action's blocks, on the pairs of
    ``kept``, index arrays (i, u') (all ``n * n_F`` pairs, row-major, when
    None).  Raises when an entry is not in the base.
    """
    lead, n, d0 = xs.shape[:-3], xs.shape[-3], xs.shape[-1]
    cols = left.blocks.shape[1] * d0
    if kept is None or len(kept[0]) == n * left.blocks.shape[1]:
        flat = left.operators(xs.reshape(-1, d0, d0))
    else:
        # row u' of the action weighted by x[i]'s coordinates, kept pairs only
        i, u = kept
        acts = block_matrix(left.blocks)
        coeffs = left.coords_of(xs.reshape(-1, d0, d0)).reshape(*lead, n, len(acts))
        rows = acts.reshape(len(acts), -1, d0 * cols)[:, u]
        flat = np.einsum("...pm,mpx->...px", coeffs[..., i, :], rows)
    return unblock(flat.reshape(*lead, -1, cols), d0)


def tensor_lift(left: LeftAction, blocks: np.ndarray, kept: tuple | None = None) -> np.ndarray:
    """Blocks of S (x) id on E (x)_B F, per operator S of a stack (..., n, n, d0, d0).

    Column (w, u) is (S e_w) (x) e_u: :func:`tensor_extend` of the columns,
    each column's index moved next to u, on the pairs (w, u) of ``kept``.
    """
    n, d0 = blocks.shape[-3], blocks.shape[-1]
    # flat (..., w, (w', u'), u) -> ((w', u'), w, u) -> ((w', u'), kept (w, u))
    flat = block_matrix(tensor_extend(left, np.swapaxes(blocks, -4, -3), kept))
    lifted = np.swapaxes(flat, -3, -2)
    if kept is not None and len(kept[0]) < n * left.blocks.shape[1]:
        lifted = lifted.reshape(*lifted.shape[:-1], -1, d0)[..., kept[0], kept[1], :]
    return unblock(lifted.reshape(*lifted.shape[:-2], -1), d0)


def tensor_isometry(
    left: LeftAction, xi: np.ndarray, gram: np.ndarray, kept: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """V : F -> E (x)_B F, y -> xi (x) y, and V* : e_p (x) e_u -> <xi, e_p> . e_u.

    ``xi`` is a vector of E, whose Gram is ``gram``.  ``V*`` extends the
    overlaps <xi, e_p>, as vectors of B, to operators on F, side by side,
    on the pairs (p, u) of ``kept``.
    """
    d0 = xi.shape[-1]
    v = tensor_extend(left, xi, kept)
    row = xi.reshape(-1, d0).conj().T.dot(block_matrix(gram))
    overlaps = np.swapaxes(row.reshape(d0, -1, d0), 0, 1) @ left.algebra.unit
    flat = block_matrix(tensor_extend(left, overlaps[:, None]))
    pairs = np.swapaxes(flat, 0, 1).reshape(flat.shape[1], len(flat), -1, d0)
    pairs = pairs if kept is None else pairs[:, kept[0], kept[1]]
    return v, unblock(pairs.reshape(flat.shape[1], -1), d0)


@dataclass
class ModuleTensor:
    """E1 (x)_B E2 on all ``n1 * n2`` pairs e_i o e_j, row-major, null ones
    included: the semi-inner product already fixes inner products and
    adjointable operators on them.  The maps are the tower's contractions
    with no kept pairs.  :meth:`tensor_vector` takes a vector of each
    factor; :meth:`op_left` takes the blocks of an operator on the left
    factor and :meth:`op_right` those of one on the right factor, and each
    returns the blocks of the operator on the product.  The class and
    :func:`tensor_over_base` stay only because ``perfbench`` traces their
    names; they go with those traces.
    """

    module: HilbertModule
    left_factor: HilbertModule
    right_factor: HilbertModule

    def tensor_vector(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Image of the elementary tensor x o y."""
        return apply_blocks(tensor_extend(self.right_factor.left, x), y)

    def op_left(self, blocks: np.ndarray) -> np.ndarray:
        """S o id for an adjointable S on the left factor."""
        return tensor_lift(self.right_factor.left, blocks)

    def op_right(self, blocks: np.ndarray) -> np.ndarray:
        """id o S; requires S to commute with the base action on the right factor."""
        require_base_commutant(self.right_factor, blocks)
        # (id o S)(e_i o e_j) = e_i o S e_j: S on the right slot of every e_i
        raw = np.kron(np.eye(self.left_factor.rank), block_matrix(blocks))
        return unblock(raw, self.module.base.ambient_dim)


def tensor_gram(e1: HilbertModule, e2: HilbertModule) -> np.ndarray:
    """Inner products of the raw generators e_i o e_j of E1 (x)_B E2.

    G[(i,j),(I,J)] = < e_j, G1[i,I] . e_J >, pairs row-major (i * n2 + j);
    ``e2`` must carry a left action of the base.  Two products: first
    ``H_m = G2 L_m`` on the flat view, for every basis element ``m`` of the
    base (``L_m`` its left action on E2), then the base coordinates of E1's
    Gram entries times the stacked ``H``; one transpose puts the result in
    blocks.
    """
    n1, n2, d0 = e1.rank, e2.rank, e2.base.ambient_dim
    coords, res = e1.base.coords_many(e1.gram.reshape(n1 * n1, *e1.gram.shape[2:]))
    if exceeds(res, GUARD_TOL):
        raise StructuralError("left factor inner products are not in its base algebra")
    h = block_matrix(e2.gram) @ block_matrix(e2.left.blocks)
    # (i, I, (j, a), (J, c)) -> ((i, j, a), (I, J, c))
    g = coords.dot(h.reshape(len(h), -1)).reshape(n1, n1, n2 * d0, n2 * d0)
    return unblock(g.transpose(0, 2, 1, 3).reshape(n1 * n2 * d0, n1 * n2 * d0), d0)


def tensor_over_base(e1: HilbertModule, e2: HilbertModule) -> ModuleTensor:
    """Interior tensor product E1 (x)_B E2 on all pairs of generators.

    ``e2`` must carry a left action of the base algebra of ``e1``; relations
    x b o y = x o b y hold automatically because inner products are computed
    through that action:  < x1 o y1, x2 o y2 > = < y1, <x1, x2> . y2 >.
    The left action carried by the result is the one of ``e1``'s acting
    algebra through ``a . (x o y) = (a x) o y``; see :class:`ModuleTensor`.
    """
    if not e1.base.same_basis(e2.base):
        raise StructuralError("the factors are modules over different base algebras")
    if e2.left is None or not e2.left.algebra.same_basis(e1.base):
        raise StructuralError(
            "the right factor must carry a left action of the left factor's base algebra"
        )
    product = HilbertModule(e2.base, tensor_gram(e1, e2))
    tensor = ModuleTensor(product, e1, e2)

    # push the left action and distinguished vectors through
    if e1.left is not None:
        product.left = LeftAction(e1.left.algebra, tensor_lift(e2.left, e1.left.blocks))
    for name1, v1 in e1.distinguished.items():
        for name2, v2 in e2.distinguished.items():
            key = name1 if name1 == name2 else f"{name1}|{name2}"
            product.distinguished[key] = tensor.tensor_vector(v1, v2)
    return tensor


# ---------------------------------------------------------------------------
# auxiliary constructions


def restrict_left_action(left: LeftAction, subalgebra: MatrixStarAlgebra) -> LeftAction:
    """The same action viewed from a subalgebra of the acting algebra."""
    return LeftAction(subalgebra, unblock(left.operators(subalgebra.basis), left.blocks.shape[-1]))


def trivial_left_action(rank: int, base: MatrixStarAlgebra) -> LeftAction:
    """Scalars acting by multiplication; always available."""
    return LeftAction(scalar_algebra(), diagonal_blocks(rank, base.unit)[None])


# ---------------------------------------------------------------------------
# verification


def representation_gaps(module: HilbertModule, action: LeftAction) -> tuple[float, float]:
    """How far ``action`` is from a *-representation on ``module``.

    Returns the worst multiplicative residual ``frob(G (L(b_k b_l) -
    L(b_k) L(b_l)))`` and the worst star residual, :func:`adjoint_gap` of
    ``L(b_k)`` and ``L(b_k*)``, over the basis of the acting algebra.  Each
    row of pairs is one stacked product, so the size of ``action.blocks``
    at most.
    """
    alg = action.algebra
    acts, gm = block_matrix(action.blocks), block_matrix(module.gram)
    worst_mult = worst_star = 0.0
    for k in range(alg.dim):
        star = action.blocks_of(dag(alg.basis[k]))
        worst_star = residual_max(worst_star, adjoint_gap(module, action.blocks[k], star))
        prods = action.operators(alg.basis[k] @ alg.basis)
        worst_mult = residual_max(worst_mult, *map(frob, gm @ (prods - acts[k] @ acts)))
    return worst_mult, worst_star


def verify_module(module: HilbertModule, tol: float = DEFAULT_TOL) -> VerificationReport:
    report = VerificationReport()
    g = module.gram
    base = module.base
    n = module.rank

    report.add("gram-hermitian", frob(g - dagger_blocks(g)), tol)

    flat = g.reshape(n * n, *g.shape[2:])
    _, res = base.coords_many(flat)
    report.add("gram-in-base", res, tol)

    floor = min(EIG_FLOOR, -tol)
    report.add("gram-positive", residual_max(-min_eig(block_matrix(g))), -floor)

    for name, v in module.distinguished.items():
        _, res = base.coords_many(v)
        report.add(f"vector-in-base[{name}]", res, tol)
    if "unit" in module.distinguished:
        xi = module.distinguished["unit"]
        report.add(
            "unit-vector-normalized",
            frob(module.inner(xi, xi) - base.unit),
            tol,
        )

    if module.left is not None:
        unit_op = module.left.blocks_of(module.left.algebra.unit)
        report.add(
            "left-unit-acts-as-identity",
            frob(compose_blocks(g, unit_op) - g),
            tol,
        )
        worst_mult, worst_star = representation_gaps(module, module.left)
        report.add("left-action-multiplicative", worst_mult, tol)
        report.add("left-action-star", worst_star, tol)
    return report
