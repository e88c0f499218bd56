"""Discrete-time dilation of unital CP maps through product systems.

A unital completely positive map ``T`` on a matrix algebra ``B`` generates a
tower of Hilbert modules ``E_0 = B, E_1, E_2 = E_1 (x) E_1, ...`` with
``E_1`` the GNS module of ``T``; the quotient of ``E_1`` onto a minimal
generating subset is the only rank decision, and ``E_n`` is the ``n``-th
tensor power of ``E_1`` without the words that are exactly null (a chain's
zero transitions).  Its generators are length-``n`` letter words in
lexicographic order; the first letter is the *latest* time step.  The
tower is a product system: ``E_m (x) E_n = E_{m+n}`` Gram-preservingly
(pairs of generators go to their concatenated word), the unit vectors
``xi_n = xi^{(x)n}`` compose accordingly, and

    T^n(b) = < xi_n, b xi_n >

recovers the semigroup.  The endomorphisms ``theta_n(a) = a (x) id`` make
the whole tower one reversible system in which the original irreversible
dynamics sits compressed in a corner.

Towers of maps on one algebra are built as a stack
(:func:`dilate_discrete_many`, :meth:`DiscreteProductSystem.build_many`):
the fiber stage, where most of a small tower's time goes, is one
``gns_construct_many`` call (one kernel product, on which complete
positivity is also decided), one ``verify_modules`` call and one
``quotient_null_spaces`` call for all the fibers.  :func:`dilate_discrete`,
:meth:`DiscreteProductSystem.build` and ``verify_module`` are the count-1
calls of these, so there is one build path, and each tower of a stack has
the bits of its own count-1 call.  The levels E_2 ... E_N are built tower
by tower: a prototype that stacked their lifts held every tower's lift
temporaries at once (about 1.9 MB for ten M2 towers at horizon 3) and
measured 5.3 % more peak RSS on ``verify all`` for a 2 % shorter pass.

Time-window subalgebras embed through the projected form: an operator ``x``
on ``E_{s-r}`` becomes ``theta_r(V x V*)`` where ``V y = xi (x) y`` pastes
the far future back on as the unit vector.  The embedding takes a stack of
window operators and returns their flat operators on ``E_N`` together, with
one isometry pair and one lift for the whole stack.  Products of such
embeddings are where conditional monotone independence of increments shows
up, over the corner functional ``<xi_N, . xi_N>`` when it is shift-invariant
(white noise): the increment check reports that invariance, draws its words,
embeds each leg's letters in one call, and evaluates the one factorization of
:func:`~ncprob.independence.conditional_monotone_factorization` on the flat
operators on ``E_N`` of the words that share a leg pattern, as one stack,
against the words' corner values.  A functional that is not invariant fails
both rows.
Every lift ``theta``, identification and isometry ``V`` is one of the
contractions ``tensor_extend``/``tensor_lift``/``tensor_isometry`` that the
independence realizations share, with the base's left action on a power of
the fiber; each level's left action and unit are built by the same lift and
identification from the level below.  The fourth, ``tensor_slot``, gives
the id (x) f of a Markov observable at a letter slot; unlike the lift
S (x) id, it exists only for an f that commutes with the base action on
the fiber, which ``require_base_commutant`` decides first.  The
product-system check is one Gram identity per level pair ``(m, n)``: the
Gram of ``E_{m+n}`` against the raw Gram of ``E_m (x) E_n``
(:func:`~ncprob.hilbert_module.tensor_gram`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra_core import (
    MapKind,
    MatrixStarAlgebra,
    PositiveMap,
    StructuralError,
    VerificationReport,
    cp_from_stochastic,
    full_matrix_algebra,
    iterate_map,
    kraus_images,
    map_from_images,
    scalar_algebra,
    verify_positive_map,
)
from .hilbert_module import (
    HilbertModule,
    LeftAction,
    _quotients,
    adjoint_gap,
    apply_blocks,
    compose_blocks,
    gns_construct_many,
    identity_blocks,
    quotient_null_spaces,
    rank_one_blocks,
    require_base_commutant,
    tensor_extend,
    tensor_gram,
    tensor_isometry,
    tensor_lift,
    tensor_slot,
    vector_norm,
    verify_modules,
)
from .independence import conditional_monotone_factorization, word_stacks
from .linalg import DEFAULT_TOL, block_matrix, diagonal_blocks, frob, residual_max, unblock

__all__ = [
    "HorizonError",
    "BudgetExceededError",
    "DiscreteProductSystem",
    "DilationScenario",
    "dilate_discrete",
    "dilate_discrete_many",
    "verify_product_system",
    "semigroup_gaps",
    "verify_dilation",
    "scalar_fiber",
    "central_unit_fiber",
    "white_noise_scenario",
    "random_unital_cp",
    "random_unital_cps",
    "white_noise_increment_check",
    "MarkovModel",
    "markov_scenario",
]


class HorizonError(StructuralError):
    """A construction asked for more time steps than the system holds."""


class BudgetExceededError(StructuralError):
    """Raising the fiber power went past the configured size budget."""

    def __init__(self, message: str, dimension: int):
        super().__init__(message)
        self.dimension = dimension


# ---------------------------------------------------------------------------
# the product system


def _sorted_members(values: np.ndarray, ascending: np.ndarray) -> np.ndarray:
    """Whether each entry of ``values`` is in the ascending array
    ``ascending``: ``np.isin``'s answer, by one binary search."""
    at = np.searchsorted(ascending, values)
    found = at < len(ascending)
    found[found] = ascending[at[found]] == values[found]
    return found


@dataclass
class DiscreteProductSystem:
    """The tower E_0, ..., E_N with its units and identifications.

    :meth:`build_many` builds the towers of a stack of fibers over one
    base: one stacked verification and one stacked quotient of the fibers,
    then the levels tower by tower (see the module notes); :meth:`build` is
    its count-1 call.  ``fiber`` is E_1 on a minimal generating subset, the
    tower's one quotient.  ``powers[k]`` is its k-th tensor power ``E_k = E_{k-1} (x)
    E_1`` less the pairs whose Gram diagonal block is exactly zero: its
    Gram is :func:`~ncprob.hilbert_module.tensor_gram` on the other pairs,
    its left action the lift of ``E_{k-1}``'s by :meth:`theta_blocks` and
    its unit :meth:`identify` of the units of ``E_{k-1}`` and ``E_1``.
    ``codes[k]`` lists the letter words of the generators of ``E_k`` as
    numbers in base ``fiber.rank``, first letter leading, in increasing
    order.  The identification ``E_m (x) E_n = E_{m+n}`` sends a pair of
    generators to the generator of its concatenated word, or to zero when
    that word was dropped as null.  Every lift, identification and isometry
    is a shared contraction of :mod:`~ncprob.hilbert_module` on the pairs
    :meth:`_kept` names.
    """

    base: MatrixStarAlgebra
    fiber: HilbertModule
    horizon: int
    powers: list[HilbertModule]
    codes: list[np.ndarray]
    units: list[np.ndarray]
    # (level, steps) -> the read-only index pairs of _kept; built on first
    # use, since codes never change once build has appended them
    _kept_pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        base: MatrixStarAlgebra,
        fiber: HilbertModule,
        horizon: int,
        budget: int = 4096,
    ) -> "DiscreteProductSystem":
        """The tower of one fiber: :meth:`build_many` of a stack of one."""
        return cls.build_many(base, [fiber], horizon, budget)[0]

    @classmethod
    def build_many(
        cls,
        base: MatrixStarAlgebra,
        fibers: list[HilbertModule],
        horizon: int,
        budget: int = 4096,
    ) -> list["DiscreteProductSystem"]:
        """The towers of fibers of one rank over ``base``, in order.

        The fiber stage is one stack: one :func:`~ncprob.hilbert_module.verify_modules`
        call, whose failing fiber is refused by its index, and one
        :func:`~ncprob.hilbert_module.quotient_null_spaces` for all the
        quotients.  The levels E_2 ... E_N are then built tower by tower,
        so only one tower's lift temporaries are held at a time.  Each tower
        has the bits of its own :meth:`build` call, and an over-budget power
        raises where that call raises, with the same dimension.
        """
        if horizon < 1:
            raise StructuralError("horizon must be at least 1")
        for k, fiber in enumerate(fibers):
            if not fiber.base.same_basis(base):
                raise StructuralError(f"fiber #{k} is not a module over the stated base")
            if fiber.left is None or not fiber.left.algebra.same_basis(base):
                raise StructuralError(f"fiber #{k} must carry a left action of the base")
            if "unit" not in fiber.distinguished:
                raise StructuralError(f"fiber #{k} has no distinguished unit vector")
        for k, report in enumerate(verify_modules(fibers)):
            report.raise_on_failure(f"fiber #{k} failed verification")
        return [
            cls._tower(base, fiber, horizon, budget)
            for fiber in _quotients(fibers, quotient_null_spaces(fibers))
        ]

    @classmethod
    def _tower(
        cls, base: MatrixStarAlgebra, fiber: HilbertModule, horizon: int, budget: int
    ) -> "DiscreteProductSystem":
        """The levels E_0 ... E_horizon over a verified, quotiented fiber."""
        n1 = fiber.rank
        _, e0 = central_unit_fiber(base, 1)
        powers: list[HilbertModule] = [e0, fiber]
        # word numbers reach n1**horizon; past int64 they stay Python integers
        exact = np.int64 if n1**horizon < 2**63 else object
        codes = [np.zeros(1, dtype=exact), np.arange(n1).astype(exact)]
        units: list[np.ndarray] = [e0.generator(0), fiber.distinguished["unit"]]
        system = cls(base, fiber, horizon, powers, codes, units)
        for k in range(2, horizon + 1):
            raw_dim = powers[k - 1].rank * n1 * base.dim
            if raw_dim > budget:
                raise BudgetExceededError(
                    f"power {k} would need {raw_dim} scalarized dimensions "
                    f"(budget {budget})",
                    raw_dim,
                )
            gram = tensor_gram(powers[k - 1], fiber)
            words = (codes[k - 1][:, None] * n1 + np.arange(n1)).ravel()
            # <x, x> = 0 makes x null by positivity: no tolerance, no elimination
            nonnull = gram[np.arange(len(words)), np.arange(len(words))].any(axis=(1, 2))
            if not nonnull.all():
                words = words[nonnull]
                gram = gram[np.ix_(nonnull, nonnull)]
            # a word whose tail is null is null, so every split of a kept
            # word is a pair of kept words; a full E_{k-1} holds every tail
            full = len(codes[k - 1]) == n1 ** (k - 1)
            if not (full or _sorted_members(words % n1 ** (k - 1), codes[k - 1]).all()):
                raise StructuralError(f"E_{k} keeps a word whose tail E_{k - 1} dropped as null")
            codes.append(words)
            units.append(system.identify(k - 1, 1, units[k - 1], units[1]))
            left = LeftAction(base, system.theta_blocks(powers[k - 1].left.blocks, k - 1, 1))
            powers.append(HilbertModule(base, gram, left, {"unit": units[k]}))
        return system

    def _kept(self, level: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, u), row-major, of the generators of E_level and
        E_steps whose concatenated word is a generator of E_{level+steps}."""
        pairs = self._kept_pairs.get((level, steps))
        if pairs is None:
            words = self.codes[level][:, None] * self.fiber.rank**steps + self.codes[steps]
            kept = self.codes[level + steps]
            # every generator of E_{level+steps} splits into a kept pair, so
            # as many generators as pairs means every pair is kept
            full = len(kept) == words.size
            pairs = np.nonzero(np.ones(words.shape, bool) if full else _sorted_members(words, kept))
            for index in pairs:
                index.flags.writeable = False
            self._kept_pairs[level, steps] = pairs
        return pairs

    def extend(self, xs: np.ndarray, level: int, steps: int) -> np.ndarray:
        """Blocks of y -> x (x) y from E_steps into E_{level+steps}, per vector
        x of a stack (..., n_level, d0, d0): ``tensor_extend`` on the kept pairs."""
        if min(level, steps) < 0 or level + steps > self.horizon:
            raise HorizonError(
                f"E_{level} (x) E_{steps} lands past the horizon {self.horizon}"
            )
        if xs.shape[-3] != self.powers[level].rank:
            raise StructuralError(f"vectors do not live on E_{level}")
        return tensor_extend(self.powers[steps].left, xs, self._kept(level, steps))

    def identify(self, m: int, n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The Gram-preserving identification E_m (x) E_n -> E_{m+n}."""
        return apply_blocks(self.extend(x, m, n), y)

    def theta_blocks(self, blocks: np.ndarray, from_level: int, steps: int) -> np.ndarray:
        """Lift operator blocks on E_from to E_{from+steps} as a (x) id, for a
        stack (..., n, n, d0, d0) of them: ``tensor_lift`` on the kept pairs.

        theta_0 is the identity, each theta_steps is a unital
        *-homomorphism, and they compose: theta_m o theta_n = theta_{m+n}.
        """
        target = from_level + steps
        if min(from_level, steps) < 0 or target > self.horizon:
            raise HorizonError(
                f"theta_{steps} of E_{from_level} lands outside the levels 0..{self.horizon}"
            )
        n = self.powers[from_level].rank
        if blocks.shape[-4:-2] != (n, n):
            raise StructuralError("operator does not live on the stated level")
        if steps == 0:
            return np.asarray(blocks, dtype=complex)
        return tensor_lift(self.powers[steps].left, blocks, self._kept(from_level, steps))

    def isometry_blocks(self, width: int, level: int) -> tuple[np.ndarray, np.ndarray]:
        """V : E_width -> E_level, y -> xi_{level-width} (x) y, and V*: the
        ``tensor_isometry`` pair of the unit of E_gap on the kept pairs."""
        gap = level - width
        if gap < 0:
            raise HorizonError("window is wider than the ambient level")
        left, gram = self.powers[width].left, self.powers[gap].gram
        return tensor_isometry(left, self.units[gap], gram, self._kept(gap, width))

    def embed_window(self, blocks: np.ndarray, width: int, start: int) -> np.ndarray:
        """Flat operators on E_N of a stack of operators of the window [start, start+width].

        ``blocks`` stacks K operators on E_width as (K, n_w, n_w, d0, d0); the
        result stacks their flat (n_N*d0, n_N*d0) matrices.  Each is
        theta_start(V x V*) per the projected embedding: project the factor
        later than the window onto its unit vector, move the inner product
        across as a base action, apply the operator, restore the unit
        vector.  One isometry pair and one lift serve the whole stack.
        """
        mid = self.horizon - start
        if width + start > self.horizon:
            raise HorizonError("window does not fit under the horizon")
        n_w = self.powers[width].rank
        if blocks.ndim != 5 or blocks.shape[1:3] != (n_w, n_w):
            raise StructuralError("operators do not live on the stated window level")
        v, vstar = self.isometry_blocks(width, mid)
        inner = compose_blocks(v, compose_blocks(blocks, vstar))
        return block_matrix(self.theta_blocks(inner, mid, start))

    # -- the corner: flat (n*d0, n*d0) operators on E_N ---------------------

    def expectation(self, x: np.ndarray) -> np.ndarray:
        """The corner functional < xi_N, x xi_N > with values in the base."""
        xi = self.units[self.horizon].reshape(-1, self.base.ambient_dim)
        return xi.conj().T @ (block_matrix(self.powers[self.horizon].gram) @ (x @ xi))

    def corner_embedding(self, b: np.ndarray) -> np.ndarray:
        """b -> |xi_N . b><xi_N|, the embedding split by the expectation."""
        xi = self.units[self.horizon]
        b = np.asarray(b, dtype=complex)
        return block_matrix(rank_one_blocks(self.powers[self.horizon].gram, xi @ b, xi))

    def left_embedding(self, b: np.ndarray) -> np.ndarray:
        """The unital embedding of the base: b acting from the left on E_N,
        as a flat operator; a stack (..., d0, d0) of elements gives the stack
        of their operators, with one product."""
        b = np.asarray(b, dtype=complex)
        ops = self.powers[self.horizon].left.operators(b.reshape(-1, *b.shape[-2:]))
        return ops.reshape(*b.shape[:-2], *ops.shape[1:])


# ---------------------------------------------------------------------------
# scenarios


@dataclass
class DilationScenario:
    """A verified unital CP map together with its product-system dilation."""

    cp_map: PositiveMap
    system: DiscreteProductSystem


def dilate_discrete(
    cp_map: PositiveMap, horizon: int, budget: int = 4096
) -> DilationScenario:
    """Dilation of a verified unital CP map: :func:`dilate_discrete_many` of
    a stack of one."""
    return dilate_discrete_many([cp_map], horizon, budget)[0]


def dilate_discrete_many(
    cp_maps: list[PositiveMap], horizon: int, budget: int = 4096
) -> list[DilationScenario]:
    """Dilations of verified unital CP maps on one shared algebra, in order.

    One :func:`~ncprob.hilbert_module.gns_construct_many` call builds every
    fiber from one ``cp_kernels`` product and decides each map's complete
    positivity on its kernel there; a map that is not an endomap, not CP or
    not unital is refused by its index, in that order of checks.
    :meth:`DiscreteProductSystem.build_many` then builds the towers.
    """
    for k, cp_map in enumerate(cp_maps):
        if not cp_map.domain.same_basis(cp_map.codomain):
            raise StructuralError(f"map #{k} is not an endomap; only endomaps of one algebra can be dilated")
    fibers = gns_construct_many(cp_maps, reduce=False)
    for k, cp_map in enumerate(cp_maps):
        if not cp_map.is_unital():
            raise StructuralError(f"map #{k} is not unital; its dilation has no unit vector")
    systems = DiscreteProductSystem.build_many(cp_maps[0].domain, fibers, horizon, budget)
    return [DilationScenario(cp_map, system) for cp_map, system in zip(cp_maps, systems)]


# ---------------------------------------------------------------------------
# stock fibers and maps


def scalar_fiber(dim: int = 2) -> tuple[MatrixStarAlgebra, HilbertModule]:
    """A dim-dimensional Hilbert space as a module over the scalars."""
    return central_unit_fiber(scalar_algebra(), dim)


def central_unit_fiber(base: MatrixStarAlgebra, copies: int = 2) -> tuple[MatrixStarAlgebra, HilbertModule]:
    """The module B (x) C^copies with orthonormal central generators.

    <x (x) e_i, y (x) e_j> = delta_ij x* y and b (x (x) e_i) = bx (x) e_i;
    the unit vector 1 (x) e_1 is central, so the induced semigroup is
    trivial: <xi, b xi> = b.  This is the standard nontrivial white noise.
    """
    d0 = base.ambient_dim
    gram = diagonal_blocks(copies, base.unit)
    blocks = diagonal_blocks(copies, base.basis)
    xi = np.zeros((copies, d0, d0), dtype=complex)
    xi[0] = base.unit
    fiber = HilbertModule(base, gram, LeftAction(base, blocks), {"unit": xi})
    return base, fiber


def white_noise_scenario(
    base: MatrixStarAlgebra, fiber: HilbertModule, horizon: int, budget: int = 4096
) -> DilationScenario:
    """Scenario built from a fiber; the CP map is read off the unit vector."""
    images = fiber.vector_functional(fiber.distinguished["unit"], base.basis)
    cp_map = map_from_images(base, base, images, MapKind.CP_MAP)
    verify_positive_map(cp_map).raise_on_failure(
        "the map read off the unit vector failed verification"
    )
    system = DiscreteProductSystem.build(base, fiber, horizon, budget)
    return DilationScenario(cp_map, system)


def random_unital_cp(dim: int, rng: np.random.Generator) -> PositiveMap:
    """Random unital CP map on the full dim x dim algebra, with three Kraus
    operators normalized so that sum_k V_k* V_k = 1."""
    return random_unital_cps(dim, rng, 1)[0]


def random_unital_cps(dim: int, rng: np.random.Generator, count: int) -> list[PositiveMap]:
    """``count`` maps drawn as ``count`` calls of :func:`random_unital_cp` draw
    them (per map the real block of its three Kraus seeds, then the imaginary
    one), on one shared full dim x dim algebra.

    Each map's images are ``sum_k V_k* b V_k`` over the domain basis, with
    ``V_k = a_k S^{-1/2}`` and ``S = sum_k a_k* a_k``: one batched ``eigh``,
    one Kraus product and one coordinate solve for all the maps.
    """
    algebra = full_matrix_algebra(dim)
    a = np.array(
        [rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim)) for _ in range(count)]
    )
    lam, u = np.linalg.eigh(np.einsum("nkba,nkbc->nac", a.conj(), a))
    inv_root = (u / np.sqrt(lam)[:, None]) @ np.swapaxes(u.conj(), -1, -2)
    images = kraus_images(algebra.basis, a @ inv_root[:, None])
    # the full algebra spans every dim x dim matrix: no residual to guard
    coeffs, _ = algebra.coords_many(images.reshape(-1, dim, dim))
    # map n's matrix, column j the coordinates of its image of basis element j
    matrices = np.ascontiguousarray(np.swapaxes(coeffs.reshape(count, algebra.dim, -1), 1, 2))
    return [PositiveMap(algebra, algebra, m, MapKind.CP_MAP) for m in matrices]


def _window_draws(system: DiscreteProductSystem, widths: list[int], rng: np.random.Generator) -> np.ndarray:
    """The one ``rng.normal`` that draws the vectors x1, y1, x2, y2 of an
    operator on E_w per width w, in order, one vector at a time: its real
    coefficient block, then its imaginary one, each (n_w, nb) over the base
    basis."""
    return rng.normal(size=(8 * sum(system.powers[w].rank for w in widths), system.base.dim))


def _window_vectors(system: DiscreteProductSystem, widths: list[int], draws: np.ndarray) -> list[np.ndarray]:
    """The vectors x1, y1, x2, y2 per width w that :func:`_window_draws` drew,
    a (4, n_w, d0, d0) stack each, scaled by 1/sqrt(2 n_w nb): one product with
    the base basis for all of them."""
    base = system.base
    nb, d0 = base.dim, base.ambient_dim
    rows = np.repeat([system.powers[w].rank for w in widths], 4)
    ends = np.cumsum(rows)
    # a vector of n rows starting at result row s owns draw rows 2s .. 2s+2n:
    # row s+j takes draw row 2s+j (real) and 2s+n+j (imaginary)
    real = np.arange(ends[-1]) + np.repeat(ends - rows, rows)
    per_row = np.repeat(rows, rows)
    # filled in place: a sum of the two parts would hold two more such arrays
    coeffs = np.empty((ends[-1], nb), dtype=complex)
    coeffs.real = draws[real]
    coeffs.imag = draws[real + per_row]
    coeffs /= np.sqrt(2.0 * nb * per_row)[:, None]
    vectors = coeffs.dot(base.basis.reshape(nb, -1)).reshape(-1, d0, d0)
    return [v.reshape(4, -1, d0, d0) for v in np.split(vectors, ends[3:-1:4])]


def _window_operators(module: HilbertModule, vectors: np.ndarray) -> np.ndarray:
    """Blocks of |x1><y1| + |x2><y2| for a stack (..., 4, n, d0, d0) of
    vectors (x1, y1, x2, y2), with one stacked product."""
    r = rank_one_blocks(module.gram, vectors[..., 0::2, :, :, :], vectors[..., 1::2, :, :, :])
    return r[..., 0, :, :, :, :] + r[..., 1, :, :, :, :]


def _window_blocks(system: DiscreteProductSystem, widths: list[int], draws: np.ndarray) -> list[np.ndarray]:
    """Blocks of the operator on E_w per width w that :func:`_window_draws`
    drew, with one stacked product per width."""
    vectors = _window_vectors(system, widths, draws)
    out: list[np.ndarray] = [None] * len(widths)
    for w in set(widths):
        at = [k for k, v in enumerate(widths) if v == w]
        ops = _window_operators(system.powers[w], np.stack([vectors[k] for k in at]))
        for k, blocks in zip(at, ops):
            out[k] = blocks
    return out


# ---------------------------------------------------------------------------
# verification


def verify_product_system(system: DiscreteProductSystem, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Unit normalization, Gram coherence, and unit composition of the tower.

    The identification E_m (x) E_n = E_{m+n} keeps the pairs of generators
    whose word is a generator of E_{m+n}, so for every level pair (m, n) the
    Gram of E_{m+n}, built by tensoring with E_1 one level at a time, must
    equal the raw Gram of E_m (x) E_n on those pairs and the others must be
    null; the residual is the worst block of the difference.  The units
    compose through :meth:`DiscreteProductSystem.identify`.
    """
    report = VerificationReport()
    base = system.base
    worst_unit = 0.0
    for n in range(system.horizon + 1):
        xi = system.units[n]
        worst_unit = residual_max(worst_unit, frob(system.powers[n].inner(xi, xi) - base.unit))
    report.add("unit-vectors-normalized", worst_unit, tol)

    worst_gram = 0.0
    worst_units = 0.0
    for m in range(1, system.horizon):
        for n in range(1, system.horizon - m + 1):
            em, en = system.powers[m], system.powers[n]
            target = system.powers[m + n]
            gap = tensor_gram(em, en)
            i, u = system._kept(m, n)
            kept = i * en.rank + u
            gap[np.ix_(kept, kept)] -= target.gram
            worst_gram = residual_max(worst_gram, np.linalg.norm(gap, axis=(2, 3)).max())
            glued = system.identify(m, n, system.units[m], system.units[n])
            worst_units = residual_max(worst_units, vector_norm(target, glued - system.units[m + n]))
    report.add("identification-preserves-grams", worst_gram, tol)
    report.add("units-compose", worst_units, tol)
    return report


def semigroup_gaps(scenario: DilationScenario) -> list[list[float]]:
    """frob(T^n(b) - <xi_n, b xi_n>) for every level n and base basis element b."""
    system = scenario.system
    basis = system.base.basis
    gaps = []
    for n in range(system.horizon + 1):
        images = iterate_map(scenario.cp_map, n).apply_many(basis)
        via_module = system.powers[n].vector_functional(system.units[n], basis)
        gaps.append([frob(t - m) for t, m in zip(images, via_module)])
    return gaps


def verify_dilation(
    scenario: DilationScenario, tol: float = DEFAULT_TOL, seed: int = 0
) -> VerificationReport:
    """Semigroup recovery, corner identity, and the theta homomorphism."""
    report = VerificationReport()
    system = scenario.system
    base = system.base

    gaps = semigroup_gaps(scenario)
    report.add("semigroup-recovery", residual_max(*(g for level in gaps for g in level)), tol)

    worst = 0.0
    for b in base.basis:
        got = system.expectation(system.corner_embedding(b))
        worst = residual_max(worst, frob(got - b))
    report.add("corner-expectation-splits-embedding", worst, tol)

    rng = np.random.default_rng(seed)
    n_top = system.horizon
    worst_mult = 0.0
    worst_star = 0.0
    worst_unital = 0.0
    worst_comp = 0.0
    for steps in range(0, n_top):
        level = n_top - steps
        e = system.powers[level]
        # a* is |y><x| summed over the pairs that make a = sum |x><y|
        va, vb = _window_vectors(system, [level, level], _window_draws(system, [level, level], rng))
        a, a_star, b = _window_operators(e, np.stack([va, va[[1, 0, 3, 2]], vb]))
        ta = system.theta_blocks(a, level, steps)
        tb = system.theta_blocks(b, level, steps)
        tab = system.theta_blocks(compose_blocks(a, b), level, steps)
        gram = system.powers[n_top].gram
        worst_mult = residual_max(
            worst_mult, frob(compose_blocks(gram, tab - compose_blocks(ta, tb)))
        )
        ta_star = system.theta_blocks(a_star, level, steps)
        worst_star = residual_max(worst_star, adjoint_gap(system.powers[n_top], ta, ta_star))
        lifted = system.theta_blocks(identity_blocks(system.powers[level]), level, steps)
        target_ident = identity_blocks(system.powers[n_top])
        worst_unital = residual_max(worst_unital, frob(lifted - target_ident))
        # composition: theta_{steps-1} o theta_1 = theta_steps, against ta
        if steps >= 2:
            once = system.theta_blocks(a, level, 1)
            twice = system.theta_blocks(once, level + 1, steps - 1)
            worst_comp = residual_max(worst_comp, frob(compose_blocks(gram, twice - ta)))
    report.add("theta-multiplicative", worst_mult, tol)
    report.add("theta-star", worst_star, tol)
    report.add("theta-exactly-unital", worst_unital, 0.0)
    report.add("theta-composes", worst_comp, tol)
    return report


# ---------------------------------------------------------------------------
# increment independence


def _random_increment_words(
    system: DiscreteProductSystem,
    r: int,
    s: int,
    t: int,
    rng: np.random.Generator,
    count: int,
    max_word_length: int,
) -> list[list[tuple[int, np.ndarray]]]:
    """``count`` alternating words [(leg, window operator blocks), ...], leg 1
    on the future window [s, t] and leg 2 on the past [r, s].

    Each word draws its length, its first leg, then all its vectors with one
    ``rng.normal``, as one :func:`_window_draws` per letter would draw them
    one after another.  The vectors of every word are then made with one
    product, and the operators with one product per width.
    """
    widths = {1: t - s, 2: s - r}
    words_legs: list[list[int]] = []
    draws = []
    for _ in range(count):
        length = int(rng.integers(1, max_word_length + 1))
        first = int(rng.integers(1, 3))
        legs = [first if pos % 2 == 0 else 3 - first for pos in range(length)]
        words_legs.append(legs)
        draws.append(_window_draws(system, [widths[leg] for leg in legs], rng))
    letter_widths = [widths[leg] for legs in words_legs for leg in legs]
    blocks = iter(_window_blocks(system, letter_widths, np.concatenate(draws)))
    return [[(leg, next(blocks)) for leg in legs] for legs in words_legs]


def white_noise_increment_check(
    scenario: DilationScenario,
    r: int,
    s: int,
    t: int,
    trials: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_word_length: int = 6,
) -> VerificationReport:
    """Conditional monotone independence of A[s,t] (future) and A[r,s] (past).

    The identity is the one of the corner functional ``p = <xi_N, . xi_N>``:
    for each sampled alternating word,

        p(word) = p(x_0) p( y_1 p(x_1).y_2 ... y_n ) p(x_n)

    with interior expectations acting by left multiplication on E_N.  It can
    only hold when ``p`` is shift-invariant, so the report has two rows,
    each decided at ``tol``: ``invariance``, the worst gap between ``p`` of a
    lifted window operator and its value on its own level, and
    ``increment-factorization``, the worst word residual.  A functional that
    is not invariant, such as a non-stationary chain's, fails both.  The
    factorization discriminates: the rank-one splitting of ``p`` in place of
    the left-multiplication insertion, dropped interior insertions and
    letters embedded in the wrong window all give visible residuals.

    The right-hand side is
    :func:`~ncprob.independence.conditional_monotone_factorization` on the
    words' flat operators on E_N.  The words are drawn in stacks of at most
    ``WORD_STACK``, each with one call (the embedding draws nothing, so the
    random stream is the word-by-word one); the letters of each leg of a
    stack are then embedded with one :meth:`DiscreteProductSystem.embed_window`
    call.  The words of a stack that share their leg pattern (first leg and
    length) are evaluated together: the word products, the corner
    functional, the left embedding and the factorization each act on the
    stack of their flat operators, one product per letter position.
    """
    system = scenario.system
    n_top = system.horizon
    if not 0 <= r < s < t <= n_top:
        raise HorizonError(f"need 0 <= r < s < t <= {n_top}, got ({r}, {s}, {t})")
    rng = np.random.default_rng(seed)

    # invariance of b -> <xi, theta_n(.) xi> on sampled window operators
    invariance = 0.0
    steps = [n for n in range(1, n_top) for _ in range(4)]
    widths = [n_top - n for n in steps]
    for n, a in zip(steps, _window_blocks(system, widths, _window_draws(system, widths, rng))):
        level = n_top - n
        shifted = block_matrix(system.theta_blocks(a, level, n))
        xi_low = system.units[level]
        local = system.powers[level].inner(xi_low, apply_blocks(a, xi_low))
        invariance = residual_max(invariance, frob(system.expectation(shifted) - local))

    expect = system.expectation
    worst = 0.0
    for count in word_stacks(trials):
        words = _random_increment_words(system, r, s, t, rng, count, max_word_length)
        embedded = {}
        for leg, start, width in ((1, s, t - s), (2, r, s - r)):
            ops = [op for word in words for letter_leg, op in word if letter_leg == leg]
            if ops:
                embedded[leg] = system.embed_window(np.stack(ops), width, start)
        # each letter's row in its leg's stack, per word, grouped by leg pattern
        rows = {1: itertools.count(), 2: itertools.count()}
        groups: dict[tuple[int, ...], list[list[int]]] = {}
        for word_ops in words:
            legs = tuple(leg for leg, _ in word_ops)
            groups.setdefault(legs, []).append([next(rows[leg]) for leg in legs])
        for legs, at in groups.items():
            letters = [(leg, embedded[leg][[word[p] for word in at]]) for p, leg in enumerate(legs)]
            word = letters[0][1]
            for _, x in letters[1:]:
                word = word @ x
            rhs = conditional_monotone_factorization(
                letters, expect, expect, system.left_embedding, system.base.unit
            )
            worst = residual_max(worst, *map(frob, expect(word) - rhs))
    report = VerificationReport()
    report.add("invariance", invariance, tol)
    report.add("increment-factorization", worst, tol, f"{trials} words")
    return report


# ---------------------------------------------------------------------------
# Markov chains

# The most bytes of letter-slot basis operators that one MarkovModel.verify
# or module_moments call keeps for reuse.  A two-state chain keeps every
# pair up to horizon 6; at horizon 8, where a top-level pair takes 8 MiB and
# keeping all seven of them doubled the peak memory, it keeps none of them.
OPERATOR_CACHE_BYTES = 4 * 2**20


@dataclass
class MarkovModel:
    """A finite Markov chain dilated as a product system, plus the classical
    path-space model, computed by transfer matrices, used to cross-check it."""

    scenario: DilationScenario
    transition: np.ndarray

    @property
    def system(self) -> DiscreteProductSystem:
        return self.scenario.system

    @property
    def states(self) -> int:
        return self.transition.shape[0]

    def process_operator(self, f: np.ndarray, time: int, level: int | None = None) -> np.ndarray:
        """The blocks of the observable f(X_time) as an operator on E_level.

        Time 0 is the initial condition carried by the base; times
        1..level are the letter slots, latest first.
        """
        system = self.system
        level = system.horizon if level is None else level
        f = np.asarray(f, dtype=complex)
        if not 0 <= time <= level:
            raise HorizonError(f"time {time} does not fit on E_{level}")
        e = system.powers[level]
        if time == 0:
            if not system.base.is_commutative():
                raise StructuralError(
                    "time-zero observables multiply coefficients from the right; "
                    "this is only an adjointable block operator over a "
                    "commutative base"
                )
            return diagonal_blocks(e.rank, f)
        if time == level:
            return e.left.blocks_of(f)
        f_op = system.fiber.left.blocks_of(f)
        require_base_commutant(system.fiber, f_op)
        return self._slot_operator(f_op, time, level)

    def _slot_operator(self, f_op: np.ndarray, time: int, level: int) -> np.ndarray:
        """theta_{time-1}(id (x) f) on E_level, 0 < time < level, for the
        blocks ``f_op`` of f on the fiber; linear in f and unguarded."""
        system = self.system
        # id (x) f on E_below (x) E_1, on its kept pairs, lifted to E_level
        below = level - time
        slot = tensor_slot(f_op, system.powers[below].rank, system._kept(below, 1))
        return system.theta_blocks(slot, below + 1, time - 1)

    def _basis_operators(self, time: int, level: int):
        """The flat operator on E_level at ``time`` > 0 of each element of the
        base's basis, one at a time.

        At ``time == level`` these are E_level's stored left action.  At a
        letter slot each is built as :meth:`process_operator` builds it,
        without the base-commutant guard: that guard decides observables,
        and a basis element of a noncommutative base need not pass it.
        Since the construction is linear in ``f``, f(X_time) is the
        combination of these operators with the base coordinates of f.
        """
        system = self.system
        if not 0 < time <= level <= system.horizon:
            raise HorizonError(f"time {time} does not fit on E_{level}")
        if time == level:
            yield from block_matrix(system.powers[level].left.blocks)
            return
        for b in system.base.basis:
            yield block_matrix(self._slot_operator(system.fiber.left.blocks_of(b), time, level))

    def _observe(
        self,
        items: list[tuple[np.ndarray, int, int, np.ndarray]],
        operators: dict | None = None,
    ) -> list[np.ndarray]:
        """f(X_time) x for each (f, time, level, x) of ``items``, x a vector of E_level.

        The items are evaluated by (time, level).  A pair with at least as
        many observables as the base has basis elements multiplies all the
        pair's vectors with each of :meth:`_basis_operators` at once, and
        combines the products with the coordinates: ``base.dim`` operators
        in place of one per observable.  The span guard of every ``f`` is
        one ``coords_many`` and a letter slot keeps the base-commutant
        guard of each ``f``.  ``operators`` holds a letter slot's basis
        operators once built, for the caller's other calls (a fresh dict
        when None), while all it holds stays within ``OPERATOR_CACHE_BYTES``:
        :meth:`verify` and :meth:`module_moments` keep one for the length of
        their call, so a pair that fits is built once per call and freed
        when it returns.  A pair that does not fit is built here one
        operator at a time, once per call of this method; E_level's own
        action is read from its stored blocks.  A pair with fewer
        observables, as most pairs of a chain with many states have, builds
        one :meth:`process_operator` per observable, which is fewer
        operators; so does time 0, on its diagonal path.
        """
        system = self.system
        d0 = system.base.ambient_dim
        operators = {} if operators is None else operators
        out: list[np.ndarray] = [None] * len(items)
        groups: dict[tuple[int, int], list[int]] = {}
        for j, (_, time, level, _) in enumerate(items):
            groups.setdefault((time, level), []).append(j)
        for (time, level), at in groups.items():
            if time == 0 or len(at) < system.base.dim:
                for j in at:
                    f, _, _, x = items[j]
                    out[j] = apply_blocks(self.process_operator(f, time, level), x)
                continue
            fs = np.stack([np.asarray(items[j][0], dtype=complex) for j in at])
            c = system.powers[level].left.coords_of(fs)
            if time < level:
                fiber = system.fiber
                require_base_commutant(fiber, unblock(fiber.left.operators(fs), d0))
            # the vectors side by side, (M, K, d0), and sum_k c_k P_k of them
            xs = np.stack([items[j][3].reshape(-1, d0) for j in at], axis=1)
            ops = operators.get((time, level))
            if ops is None:
                ops = self._basis_operators(time, level)
                # E_level's own action is views of its blocks: nothing to keep
                n_flat = system.powers[level].rank * d0
                size = system.base.dim * n_flat**2 * np.dtype(complex).itemsize
                held = sum(op.nbytes for kept in operators.values() for op in kept)
                if time < level and held + size <= OPERATOR_CACHE_BYTES:
                    ops = operators[time, level] = list(ops)
            new = sum(
                ck[:, None] * op.dot(xs.reshape(len(xs), -1)).reshape(xs.shape)
                for ck, op in zip(c.T, ops)
            )
            for j, x in zip(at, new.swapaxes(0, 1)):
                out[j] = x.reshape(-1, d0, d0)
        return out

    def path_moment(self, observables: list[tuple[np.ndarray, int]]) -> np.ndarray:
        """E[ f_k(X_{t_k}) ... f_1(X_{t_1}) | X_0 ] by transfer matrices.

        Returns the diagonal matrix of conditional expectations given the
        start state, ``W_0 P W_1 P ... P W_n 1`` with ``W_t`` the product of
        the observables at time t.  Observables are (diagonal matrix, time)
        pairs; their order is immaterial, since everything commutes
        classically.
        """
        n = self.system.horizon
        weights = np.ones((n + 1, self.states), dtype=complex)
        for f, time in observables:
            if not 0 <= time <= n:
                raise HorizonError(f"time {time} does not fit the horizon {n}")
            weights[time] *= np.diag(f)
        values = weights[-1]
        for w in weights[-2::-1]:
            values = w * self.transition.dot(values)
        return np.diag(values)

    def module_moments(
        self, samples: list[list[tuple[np.ndarray, int]]], operators: dict | None = None
    ) -> list[np.ndarray]:
        """<xi_N, f_k(X_{t_k}) ... f_1(X_{t_1}) xi_N> for each list of
        (observable, time) pairs, the module side of :meth:`path_moment`:
        one :meth:`_observe` per position from the last observable, all
        sharing ``operators`` (see :meth:`_observe`)."""
        system = self.system
        n = system.horizon
        xi = system.units[n]
        operators = {} if operators is None else operators
        vectors = [xi] * len(samples)
        for p in range(1, max(map(len, samples), default=0) + 1):
            at = [j for j, obs in enumerate(samples) if len(obs) >= p]
            items = [(*samples[j][-p], n, vectors[j]) for j in at]
            for j, v in zip(at, self._observe(items, operators)):
                vectors[j] = v
        return [system.powers[n].inner(xi, v) for v in vectors]

    def module_moment(self, observables: list[tuple[np.ndarray, int]]) -> np.ndarray:
        """:meth:`module_moments` of one list of observables."""
        return self.module_moments([observables])[0]

    def verify(
        self, tol: float = DEFAULT_TOL, seed: int = 0, trials: int = 25
    ) -> VerificationReport:
        """Path-space agreement and shift isometry.

        Every sample is drawn first, in the order of one sample at a time;
        the observables of all samples are then applied by
        :meth:`module_moments`.  The basis operators of each (time, level)
        pair are built once for the whole call while they fit the cache
        (see :meth:`_observe`).
        """
        report = VerificationReport()
        operators: dict = {}
        rng = np.random.default_rng(seed)
        system = self.system
        n = system.horizon
        s = self.states
        xi = system.units[n]

        samples = []
        for _ in range(trials):
            count = int(rng.integers(1, 4))
            samples.append([
                (np.diag(rng.uniform(-1, 1, size=s)).astype(complex), int(rng.integers(0, n + 1)))
                for _ in range(count)
            ])
        worst = 0.0
        for obs, m in zip(samples, self.module_moments(samples, operators)):
            worst = residual_max(worst, frob(self.path_moment(obs) - m))
        report.add("path-space-agreement", worst, tol)

        shifts = []
        for _ in range(trials if n >= 2 else 0):
            sw = int(rng.integers(1, n))
            tw = n - sw
            f = np.diag(rng.uniform(-1, 1, size=s)).astype(complex)
            g = np.diag(rng.uniform(-1, 1, size=s)).astype(complex)
            p_time = int(rng.integers(1, sw + 1))
            q_time = int(rng.integers(1, tw + 1))
            shifts.append((sw, tw, f, g, p_time, q_time))
        units = system.units
        us = self._observe([(f, p, sw, units[sw]) for sw, _, f, _, p, _ in shifts], operators)
        vs = self._observe([(g, q, tw, units[tw]) for _, tw, _, g, _, q in shifts], operators)
        later = self._observe([(g, q, n, xi) for _, _, _, g, _, q in shifts], operators)
        direct = self._observe(
            [(f, p + tw, n, w) for (_, tw, f, _, p, _), w in zip(shifts, later)], operators
        )
        worst = 0.0
        if shifts:
            # u (x) v - direct per sample, from one extend of the stacked u's
            # per (sw, tw) pair; then every gap's norm, as vector_norm takes
            # it, from one stacked Gram product and one stacked 2-norm
            d0 = system.base.ambient_dim
            pairs: dict[tuple[int, int], list[int]] = {}
            for j, (sw, tw, *_) in enumerate(shifts):
                pairs.setdefault((sw, tw), []).append(j)
            gaps = np.stack(direct).reshape(len(shifts), -1, d0)
            for (sw, tw), at in pairs.items():
                put = block_matrix(system.extend(np.stack([us[j] for j in at]), sw, tw))
                gaps[at] = put @ np.stack([vs[j] for j in at]).reshape(len(at), -1, d0) - gaps[at]
            inner = gaps.conj().swapaxes(-1, -2) @ (block_matrix(system.powers[n].gram) @ gaps)
            worst = residual_max(worst, *np.sqrt(np.linalg.norm(inner, 2, axis=(-2, -1))))
        report.add("shift-preserves-inner-products", worst, 1e-10, "fixed tolerance 1e-10")
        return report


def markov_scenario(p: np.ndarray, horizon: int, budget: int = 4096) -> MarkovModel:
    """Dilate the transition matrix ``p`` acting on the diagonal algebra.

    Strictly positive entries keep every path weight nonzero, which is the
    discrete stand-in for mutually equivalent transition kernels; zeros are
    allowed, and the tower drops the words of paths through them, which are
    exactly null.
    """
    cp_map = cp_from_stochastic(p)
    scenario = dilate_discrete(cp_map, horizon, budget)
    return MarkovModel(scenario, np.asarray(p, dtype=float))
