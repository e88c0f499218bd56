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
surviving generators keep their original inner products verbatim.  GNS
modules and quotients are also built, and modules verified, for a stack at
once (:func:`gns_construct_many`, :func:`quotient_null_spaces`,
:func:`verify_modules`), each module with the bits of its own one-module
call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra_core import (
    MatrixStarAlgebra,
    PositiveMap,
    StructuralError,
    VerificationReport,
    cp_kernels,
    scalar_algebra,
    verify_positive_map,
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
    hermitian_part,
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
    "quotient_null_spaces",
    "quotient_module",
    "gns_construct",
    "gns_construct_many",
    "tensor_gram",
    "tensor_extend",
    "tensor_lift",
    "tensor_slot",
    "tensor_isometry",
    "tensor_over_base",
    "ModuleTensor",
    "require_base_commutant",
    "restrict_left_action",
    "trivial_left_action",
    "representation_gaps",
    "verify_module",
    "verify_modules",
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
    """Blockwise adjoint: (M^*)[i, j] = M[j, i]^dag; a stack (..., n, n, d0,
    d0) of operators gives the stack of their adjoints."""
    return m.swapaxes(-4, -3).swapaxes(-2, -1).conj()


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
    return _extended_grams(module.base, np.ascontiguousarray(module.gram)[None])[0]


def _extended_grams(base: MatrixStarAlgebra, grams: np.ndarray) -> np.ndarray:
    """:func:`extended_gram` of each Gram of a C-ordered stack (K, n, n, d0, d0)."""
    beta = base.basis
    k, n, nb, d0 = len(grams), grams.shape[1], base.dim, base.ambient_dim
    # tau(beta_m^dag G beta_p) = sum_{b,c} G[b,c] (beta_p beta_m^dag)[c,b];
    # einsum's summation order follows the memory layout, so rank decisions
    # are taken on one fixed (C-ordered) layout
    pair = np.einsum("pcx,mbx->mpcb", beta, beta.conj())
    s = np.einsum("kijbc,mpcb->kimjp", grams, pair) / d0
    return s.reshape(k, n * nb, n * nb)


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
    """Greedy minimal generating subset over the base algebra: the one-module
    case of :func:`quotient_null_spaces`, with the same survivors and bits."""
    return quotient_null_spaces([module])[0]


def quotient_null_spaces(modules: list[HilbertModule]) -> list[QuotientInfo]:
    """Greedy minimal generating subsets of modules of one rank over one base.

    Pivoted block Cholesky on each extended Gram: repeatedly claim the
    generator with the largest remaining quadratic form and eliminate its
    block.  Dropped generators are then expressed over the survivors with
    base-algebra coefficients.

    All modules are eliminated at once: each pivot round is one stacked
    score sum, one stacked ``eigh`` of the pivot blocks and one stacked rank
    update, over the modules that have not stopped.  The rewrites are then
    made per set of survivors, one least-squares solve per module.  Each
    module gets the survivors and the bits its one-module call gives it,
    whatever the stack: every stacked step makes the same arithmetic per
    module as a call on that module alone.  Raises when the modules differ
    in rank or base.
    """
    base = modules[0].base
    n, nb, d0 = modules[0].rank, base.dim, base.ambient_dim
    for k, module in enumerate(modules):
        if module.rank != n or not module.base.same_basis(base):
            raise StructuralError(f"module #{k} differs from module #0 in rank or base")
    grams = np.array([module.gram for module in modules])  # C-ordered
    s_ext = _extended_grams(base, grams)
    count, size = s_ext.shape[:2]
    # the extended Gram is Hermitian PSD: its 2-norm is its top eigenvalue
    thresholds = (np.linalg.eigvalsh(s_ext)[:, -1] if size else np.zeros(count)) * RANK_RTOL
    claimed = np.zeros((count, n), dtype=bool)
    # the modules still eliminating, as indices into the stack, with their
    # claims, floors and eliminated extended Grams; a module that stops
    # leaves them, so every round works on all of them.  Generator p of the
    # k-th of them is row k*n + p of ``taken`` and of the row bands.
    at = np.arange(count)
    taken, floors, work = claimed.copy(), np.fmax(thresholds, 0.0), s_ext.copy()
    for _ in range(n):
        # each remaining generator's score is the trace of its diagonal block
        scores = np.einsum("kiaia->ki", work.reshape(len(at), n, nb, n, nb)).real
        scores[taken] = -np.inf
        # a module stops at a top score <= its threshold or <= 0, and a NaN
        # score goes on, as in ``not (top <= threshold or top <= 0)``
        stop = scores.max(axis=1) <= floors
        if np.count_nonzero(stop):
            claimed[at[stop]] = taken[stop]
            if stop.all():
                break
            go = ~stop
            at, taken, floors, work, scores = at[go], taken[go], floors[go], work[go], scores[go]
        row = np.arange(len(at))
        pick = scores.argmax(axis=1)
        claim = row * n + pick
        taken.put(claim, True)
        # the pivot's row band (nb, size), column band (size, nb) and block
        rows = work.reshape(-1, nb, size).take(claim, axis=0)
        cols = work.reshape(len(at), size, n, nb)[row, :, pick]
        # the pivot's pseudo-inverse, with pinv's cutoff 1e-12 * max |eigenvalue|;
        # an eigenvalue under it divides by inf, so its column drops out
        w, v = np.linalg.eigh(cols.reshape(-1, nb, nb).take(claim, axis=0))
        size_w = np.abs(w)
        kept_w = np.where(size_w > 1e-12 * size_w.max(axis=-1, keepdims=True), w, np.inf)
        inv = (v / kept_w[:, None]) @ v.conj().swapaxes(-1, -2)
        work -= (cols @ inv) @ rows
    claimed[at] = taken

    infos: list[QuotientInfo] = [None] * count
    groups: dict[bytes, list[int]] = {}
    for k, mask in enumerate(claimed):
        groups.setdefault(mask.tobytes(), []).append(k)
    for members in groups.values():
        kept = claimed[members[0]]
        survivors, dropped = kept.nonzero()[0], (~kept).nonzero()[0]
        rewrite = np.zeros((len(members), len(survivors), n, d0, d0), dtype=complex)
        rewrite[:, np.arange(len(survivors)), survivors] = base.unit
        residuals = np.zeros(len(members))
        if len(dropped):
            own = grams[members]
            idx = (survivors[:, None] * nb + np.arange(nb)).ravel()
            # <e_s beta_p, e_i>_tau = tau(beta_p^dag G[s, i])
            sub = own[:, survivors[:, None], dropped]
            # tau(beta_p^dag G) = (1/d0) sum_{b,c} conj(beta_p[b,c]) G[b,c]
            rhs = np.einsum("ksibc,pbc->kspi", sub, base.basis.conj()).reshape(
                len(members), len(idx), len(dropped)
            ) / d0
            s_surv = s_ext[members][:, idx[:, None], idx]
            gamma = np.array([np.linalg.lstsq(a, b, rcond=RANK_RTOL)[0] for a, b in zip(s_surv, rhs)])
            # residual of each dropped generator in the tau-norm
            self_norms = np.trace(own[:, dropped, dropped], axis1=-2, axis2=-1).real / d0
            cross = np.real(np.einsum("kxi,kxi->ki", rhs.conj(), gamma))
            residuals = np.sqrt(np.abs(self_norms - cross).max(axis=1))
            coeffs = gamma.reshape(len(members), len(survivors), nb, len(dropped))
            rewrite[:, :, dropped] = np.einsum("kapj,pcd->kajcd", coeffs, base.basis)
        survivors = survivors.tolist()
        for k, r, residual in zip(members, rewrite, residuals.tolist()):
            infos[k] = QuotientInfo(survivors, r, residual, float(thresholds[k]))
    return infos


def quotient_module(module: HilbertModule) -> tuple[HilbertModule, QuotientInfo]:
    """The same module on a minimal generating subset.

    Surviving generators keep their rows and columns of the inner-product
    table unchanged; dropped generators are rewritten over the survivors.
    """
    info = quotient_null_space(module)
    return _quotients([module], [info])[0], info


def _quotients(modules: list[HilbertModule], infos: list[QuotientInfo]) -> list[HilbertModule]:
    """Each module on the survivors of its quotient info (see :func:`quotient_module`)."""
    out = []
    for module, info in zip(modules, infos):
        gram = module.gram[np.ix_(info.survivors, info.survivors)]
        left = None
        if module.left is not None:
            # R blocks J, with J keeping the survivors' columns
            blocks = compose_blocks(info.rewrite, module.left.blocks[..., info.survivors, :, :])
            left = LeftAction(module.left.algebra, blocks)
        distinguished = {k: info.rewrite_vector(v) for k, v in module.distinguished.items()}
        out.append(HilbertModule(module.base, gram, left, distinguished))
    return out


# ---------------------------------------------------------------------------
# GNS construction


def gns_construct(pmap: PositiveMap, reduce: bool = True, verify: bool = True) -> HilbertModule:
    """Generators-and-relations representation of a completely positive map:
    the one-map case of :func:`gns_construct_many`, with the same bits.  It
    reduces through :func:`quotient_module`, the one-module call, which is
    the quotient ``perfbench``'s tracer counts."""
    module = gns_construct_many([pmap], reduce=False, verify=verify)[0]
    return quotient_module(module)[0] if reduce else module


def gns_construct_many(
    pmaps: list[PositiveMap], reduce: bool = True, verify: bool = True
) -> list[HilbertModule]:
    """Generators-and-relations representations of maps that share their
    domain and codomain, in order.

    For ``T : A -> B`` the module is spanned by symbols, one per basis
    element of ``A``, with inner products ``<a_i, a_j> = T(a_i^* a_j)``,
    a left action of ``A`` by multiplication of symbols, and the class of
    the unit of ``A`` as the distinguished cyclic vector ("unit").  Then
    ``<unit, a . unit> = T(a)`` by construction.

    Every map's Gram comes from one :func:`~ncprob.algebra_core.cp_kernels`
    product; the left action and the unit vector depend only on ``A`` and
    the unit of ``B``, so the unreduced modules share one of each.  Each map
    is verified first (complete positivity on that same kernel, and the
    declared kind's axioms); a failing map is rejected by its index, since
    a non-positive kernel is exactly a non-positive Gram matrix.  With
    ``reduce`` the modules are quotiented by one :func:`quotient_null_spaces`
    call.  Each module has the bits :func:`gns_construct` gives its map
    alone.
    """
    kernels = cp_kernels(pmaps)
    if verify:
        for k, (pmap, kernel) in enumerate(zip(pmaps, kernels)):
            verify_positive_map(pmap, kernel=kernel).raise_on_failure(
                f"refusing to build a module over unverified map #{k}"
            )
    dom, cod = pmaps[0].domain, pmaps[0].codomain
    n, d0 = dom.dim, cod.ambient_dim
    b = dom.basis

    # left action: a_k . [a_j] = [a_k a_j], expanded over the symbol basis
    prod_coords, res = dom.coords_many(
        np.einsum("kab,jbc->kjac", b, b).reshape(n * n, *b.shape[1:])
    )
    if exceeds(res, 1e-9):
        raise StructuralError("domain basis is not multiplicatively closed")
    struct = prod_coords.reshape(n, n, n)  # struct[k, j, l]: a_k a_j = sum_l . a_l
    left = LeftAction(dom, np.einsum("kjl,ab->kljab", struct, cod.unit))

    unit_coords, res = dom.coords(dom.unit)
    if exceeds(res, 1e-9):
        raise StructuralError("the domain unit is not in the domain span")
    xi = np.einsum("i,ab->iab", unit_coords, cod.unit)

    modules = [HilbertModule(cod, unblock(kernel, d0), left, {"unit": xi}) for kernel in kernels]
    return _quotients(modules, quotient_null_spaces(modules)) if reduce else modules


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


def tensor_slot(blocks: np.ndarray, n: int, kept: tuple | None = None) -> np.ndarray:
    """Blocks of id (x) S on E (x)_B F, per operator S of a stack (..., n_F,
    n_F, d0, d0) on F, where E has ``n`` generators: S[u, u'] between the
    pairs (i, u) and (i, u') of ``kept`` (all ``n * n_F`` pairs, row-major,
    when None), and zero between pairs of different i.  Unguarded: id (x) S
    exists only for S commuting with the base action on F, which callers
    decide with :func:`require_base_commutant`, while S (x) id
    (:func:`tensor_lift`) always exists.  A view of its flat matrix.
    """
    n_f, d0 = blocks.shape[-3], blocks.shape[-1]
    i, u = np.divmod(np.arange(n * n_f), n_f) if kept is None else kept
    # S between every two pairs that share their generator of E
    rows, cols = np.nonzero(i[:, None] == i)
    flat = np.zeros((*blocks.shape[:-4], len(i) * d0, len(i) * d0), dtype=complex)
    unblock(flat, d0)[..., rows, cols, :, :] = blocks[..., u[rows], u[cols], :, :]
    return unblock(flat, d0)


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
    with no kept pairs (``tensor_extend``, ``tensor_lift``, ``tensor_slot``;
    ``tensor_isometry`` is the fourth).  :meth:`tensor_vector` takes a
    vector of each factor; :meth:`op_left` takes the blocks of an operator
    S on the left factor and returns those of S (x) id, which always
    exists; :meth:`op_right` takes those of an S on the right factor and
    returns those of id (x) S, which exists only when S commutes with the
    base action there.  The class and :func:`tensor_over_base` stay only
    because ``perfbench`` traces their names; they go with those traces.
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
        return tensor_slot(blocks, self.left_factor.rank)


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
    """How far ``action`` is from a *-representation on ``module``: the
    worst multiplicative and star residuals of :func:`_representation_gaps`
    for one module, with the same bits as in a stack."""
    mult, star = _representation_gaps(
        block_matrix(module.gram)[None], block_matrix(action.blocks)[None], action
    )
    return mult[0], star[0]


def _representation_gaps(
    grams: np.ndarray, acts: np.ndarray, action: LeftAction
) -> tuple[list[float], list[float]]:
    """Per module of a stack, how far its action is from a *-representation.

    ``grams`` stacks the flat Grams (K, n*d0, n*d0) of K modules of one rank
    and ``acts`` the flat operators (K, m, n*d0, n*d0) of the basis of one
    algebra on them, that of ``action``.  Returns, per module, the worst
    multiplicative residual ``frob(G (L(b_k b_l) - L(b_k) L(b_l)))`` and the
    worst star residual, :func:`adjoint_gap` of ``L(b_k)`` and ``L(b_k*)``,
    over the basis of the acting algebra.  The coordinates of ``b_k*`` and
    of the products ``b_k b_l`` depend on the algebra alone, so ``action``
    takes them once; each row of pairs is then one stacked product for all
    the modules, K times the size of one action's blocks at most.
    """
    alg, d0 = action.algebra, action.blocks.shape[-1]
    flat_acts = acts.reshape(*acts.shape[:2], -1)
    worst_mult, worst_star = [0.0] * len(acts), [0.0] * len(acts)
    for k in range(alg.dim):
        star = (action.coords_of(dag(alg.basis[k])[None]) @ flat_acts).reshape(grams.shape)
        star_gaps = unblock(grams @ star, d0) - dagger_blocks(unblock(grams @ acts[:, k], d0))
        prods = (action.coords_of(alg.basis[k] @ alg.basis) @ flat_acts).reshape(acts.shape)
        mult_gaps = grams[:, None] @ (prods - acts[:, k, None] @ acts)
        for j in range(len(acts)):
            worst_star[j] = residual_max(worst_star[j], frob(star_gaps[j]))
            worst_mult[j] = residual_max(worst_mult[j], *map(frob, mult_gaps[j]))
    return worst_mult, worst_star


def verify_module(module: HilbertModule, tol: float = DEFAULT_TOL) -> VerificationReport:
    """The rows of :func:`verify_modules` for one module."""
    return verify_modules([module], tol)[0]


def verify_modules(modules: list[HilbertModule], tol: float = DEFAULT_TOL) -> list[VerificationReport]:
    """One report per module of a stack of one rank over one base, whose
    left actions, if any, share their acting algebra.

    Rows: the Gram is Hermitian, in the base and positive; each
    distinguished vector is in the base, and the unit one normalized; the
    unit of the acting algebra acts as the identity, and the action is a
    *-representation (:func:`representation_gaps`).  The smallest
    eigenvalues of all the Grams come from one stacked ``eigvalsh``, and
    every left-action row from one stacked product per basis element of
    the acting algebra; each module's report has the bits of its own
    :func:`verify_module` call.  Raises when a module differs from the
    first in rank, base or acting algebra.
    """
    first = modules[0]
    base, n, d0 = first.base, first.rank, first.base.ambient_dim
    algebra = None if first.left is None else first.left.algebra
    for k, module in enumerate(modules):
        acts_alike = (module.left is None) if algebra is None else (
            module.left is not None and module.left.algebra.same_basis(algebra)
        )
        if module.rank != n or not module.base.same_basis(base) or not acts_alike:
            raise StructuralError(f"module #{k} differs from module #0 in rank, base or acting algebra")
    flat = np.array([block_matrix(module.gram) for module in modules])
    grams = unblock(flat, d0)
    hermitian_gaps = grams - dagger_blocks(grams)
    lowest = np.linalg.eigvalsh(hermitian_part(flat))[:, 0]
    floor = min(EIG_FLOOR, -tol)

    reports = []
    for module, gap, low in zip(modules, hermitian_gaps, lowest.tolist()):
        report = VerificationReport()
        report.add("gram-hermitian", frob(gap), tol)
        _, res = base.coords_many(module.gram.reshape(n * n, d0, d0))
        report.add("gram-in-base", res, tol)
        report.add("gram-positive", residual_max(-low), -floor)
        for name, v in module.distinguished.items():
            _, res = base.coords_many(v)
            report.add(f"vector-in-base[{name}]", res, tol)
        if "unit" in module.distinguished:
            xi = module.distinguished["unit"]
            report.add("unit-vector-normalized", frob(module.inner(xi, xi) - base.unit), tol)
        reports.append(report)

    if algebra is not None:
        acts = np.array([block_matrix(module.left.blocks) for module in modules])
        unit = first.left.coords_of(algebra.unit[None]) @ acts.reshape(len(acts), algebra.dim, -1)
        unit_gaps = unblock(flat @ unit.reshape(flat.shape), d0) - grams
        worst_mult, worst_star = _representation_gaps(flat, acts, first.left)
        for report, gap, mult, star in zip(reports, unit_gaps, worst_mult, worst_star):
            report.add("left-unit-acts-as-identity", frob(gap), tol)
            report.add("left-action-multiplicative", mult, tol)
            report.add("left-action-star", star, tol)
    return reports
