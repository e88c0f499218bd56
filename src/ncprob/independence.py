"""Constructive models of noncommutative independence.

Four constructions are provided, each as an explicit operator model on a
(module) tensor product together with a standalone moment formula, so that
``<vacuum, word vacuum> = formula(word)`` is a falsifiable statement:

* tensor independence of two states (both embeddings unital),
* monotone independence of two states (first leg embedded non-unitally as
  ``a (x) |1><1|`` — the first leg is the *later* measurement),
* conditional tensor independence of two commutative algebras over a common
  subalgebra (the noncommutative case is rejected, with the obstruction
  stated in the error),
* conditional monotone independence over an arbitrary matrix base algebra,
  where the roles swap: the first leg acts unitally as ``a . id`` and the
  second leg non-unitally through the projected form
  ``(unit unit*) a2 : x1 o x2  ->  1 o a2 <1, x1> x2``.

Each leg of a model is a left action of its algebra on the carrier, the raw
product E1 (x)_B E2: the operators of the algebra's basis, as for a
module's own left action, and one check, ``representation_gaps``, decides
for both whether they are *-representations.  They are built from the four
contractions of :mod:`~ncprob.hilbert_module`: ``a (x) id`` is the
carrier's own left action, which ``tensor_over_base`` lifts from E1 with
``tensor_lift``; ``id (x) a`` is ``tensor_slot`` of E2's basis operators,
after ``require_base_commutant``, since id (x) S exists only for S
commuting with the base action on E2, while S (x) id always does; the
monotone leg 1 is ``a (x) id`` times the vacuum projection
``id (x) |1><1|``; and the conditional monotone leg 2 is ``V a2 V*`` with
``V y = 1 o y``, from ``tensor_isometry`` (built on ``tensor_extend``).

A unit letter fed to a non-unitally embedded leg acts as a projection, not
as the identity.  This is the single most error-prone consequence of
non-unital embeddings and is deliberately observable: a word may gain or
lose value when an explicit unit letter is inserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .algebra_core import (
    MapKind,
    MatrixStarAlgebra,
    PositiveMap,
    StructuralError,
    VerificationReport,
    diagonal_algebra,
    map_from_images,
    independent_columns,
    verify_positive_map,
)
from .hilbert_module import (
    HilbertModule,
    LeftAction,
    apply_blocks,
    compose_blocks,
    extended_gram,
    gns_construct,
    gns_construct_many,
    identity_blocks,
    operator_distance,
    rank_one_blocks,
    representation_gaps,
    require_base_commutant,
    restrict_left_action,
    tensor_isometry,
    tensor_over_base,
    tensor_slot,
    trivial_left_action,
)
from .linalg import (
    DEFAULT_TOL,
    GUARD_TOL,
    block_matrix,
    exceeds,
    frob,
    hermitian_part,
    scaled_hermitian,
    unblock,
)

__all__ = [
    "QuantumProbabilitySpace",
    "AlternatingWord",
    "JointRealization",
    "tensor_realize",
    "monotone_realize",
    "tensor_moment_formula",
    "tensor_moment_formulas",
    "monotone_moment_formula",
    "monotone_moment_formulas",
    "conditional_monotone_embed",
    "conditional_monotone_factorization",
    "conditional_monotone_moment_formula",
    "conditional_monotone_moment_formulas",
    "conditional_tensor_realize",
    "ConditionalTensorProduct",
    "coins_game",
    "classical_coins_oracle",
    "random_hermitian_elements",
    "random_alternating_word",
    "random_alternating_words",
    "verify_independence",
]


@dataclass
class QuantumProbabilitySpace:
    """An algebra together with a state or conditional expectation on it."""

    algebra: MatrixStarAlgebra
    functional: PositiveMap

    def __post_init__(self):
        if not self.functional.domain.same_basis(self.algebra):
            raise StructuralError("functional is not defined on the given algebra")

    def verify(self, tol: float = DEFAULT_TOL) -> VerificationReport:
        return verify_positive_map(self.functional, tol)

    @property
    def is_state(self) -> bool:
        return self.functional.kind is MapKind.STATE


class AlternatingWord:
    """A word in two algebras: a list of (leg, matrix) letters, legs 1 and 2.

    Leg 1 is the *later* leg throughout ("the future is on the left of the
    past").  Normalization multiplies out consecutive same-leg letters and
    nothing else; in particular an explicit unit letter between two letters
    of the other leg is kept, because on a non-unitally embedded leg it acts
    as a projection.
    """

    def __init__(self, letters):
        self.letters = [(int(leg), np.asarray(mat, dtype=complex)) for leg, mat in letters]
        for leg, _ in self.letters:
            if leg not in (1, 2):
                raise StructuralError(f"letter leg must be 1 or 2, got {leg}")

    def __len__(self) -> int:
        return len(self.letters)

    def normalized(self) -> "AlternatingWord":
        """The word with adjacent same-leg letters multiplied out; the word
        itself when no two adjacent letters share a leg."""
        legs = [leg for leg, _ in self.letters]
        if all(a != b for a, b in zip(legs, legs[1:])):
            return self
        out: list[tuple[int, np.ndarray]] = []
        for leg, mat in self.letters:
            if out and out[-1][0] == leg:
                out[-1] = (leg, out[-1][1].dot(mat))
            else:
                out.append((leg, mat))
        return AlternatingWord(out)

    def label(self) -> str:
        """The leg sequence, e.g. ``legs 1212``, as reports name a word."""
        return "legs " + "".join(str(leg) for leg, _ in self.letters)


@dataclass
class JointRealization:
    """Two algebras acting on one carrier with a common vacuum vector.

    Each leg is a left action of its algebra on the carrier: the operators
    of the algebra's basis, which determine the leg, since it is linear.
    ``unital_legs`` records which leg is unital; the non-unital one sends
    the algebra unit to a proper projection.
    """

    carrier: HilbertModule
    vacuum: np.ndarray
    leg1: LeftAction
    leg2: LeftAction
    unital_legs: tuple[bool, bool]
    base: MatrixStarAlgebra | None = None
    # the vacuum as a flat (N, d0) ket, and its bra ket^H G, (d0, N): the
    # first and the last factor of every moment
    _ket: np.ndarray = field(init=False, repr=False, compare=False)
    _bra: np.ndarray = field(init=False, repr=False, compare=False)
    # leg -> (its algebra, its basis operators as one flat (dim, N, N) stack)
    _legs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._ket = self.vacuum.reshape(-1, self.vacuum.shape[-1])
        self._bra = self._ket.conj().T.dot(block_matrix(self.carrier.gram))
        self._legs = {
            leg: (action.algebra, np.ascontiguousarray(block_matrix(action.blocks)))
            for leg, action in ((1, self.leg1), (2, self.leg2))
        }

    @property
    def algebra1(self) -> MatrixStarAlgebra:
        return self.leg1.algebra

    @property
    def algebra2(self) -> MatrixStarAlgebra:
        return self.leg2.algebra

    def embed(self, leg: int, mat: np.ndarray) -> np.ndarray:
        """The blocks of the operator of ``mat`` on leg ``leg``; raises when
        ``mat`` is not in that leg's algebra."""
        return (self.leg1 if leg == 1 else self.leg2).blocks_of(mat)

    def moment(self, word: AlternatingWord) -> np.ndarray:
        """Vacuum expectation of the word, as a base-algebra element.

        Each letter ``a = sum_k c_k b_k`` acts as ``sum_k c_k M_k``, with
        ``M_k`` the flat basis operators of its leg: its coordinates with
        their span guard, one product of the stacked operators with the
        flat vector, then one contraction with ``c``.  The cached vacuum bra
        closes the word.  :meth:`moments` takes the same steps for a stack
        of words, with the same bits.
        """
        v = self._ket
        for k in reversed(range(len(word.letters))):
            leg, mat = word.letters[k]
            algebra, images = self._legs[leg]
            c, res = algebra.coords(mat)
            if exceeds(res, GUARD_TOL):
                raise StructuralError(
                    f"letter {k} is not in the algebra of leg {leg} (residual {res:.3e})"
                )
            moved = images.reshape(-1, v.shape[0]).dot(v)  # every M_k v, stacked
            v = c.dot(moved.reshape(len(c), -1)).reshape(v.shape)
        return self._bra.dot(v)

    def moments(self, words: list[AlternatingWord]) -> np.ndarray:
        """The :meth:`moment` of each word, stacked (len(words), d0, d0).

        The words are aligned at their last letter, which acts first.  Per
        position from the end and per leg, the letters there take one
        ``coords_many`` with the span guard, one broadcast product of the
        leg's basis operators with their words' flat vectors and one
        contraction with the coordinates: a handful of products for the
        whole stack instead of a few per letter.  Each word's arithmetic is
        the one :meth:`moment` does, and so are its bits.
        """
        legs = [[leg for leg, _ in word.letters] for word in words]
        v = np.repeat(self._ket[None], len(words), axis=0)
        for p in range(1, max(map(len, legs), default=0) + 1):
            for leg in (1, 2):
                at = [j for j, seq in enumerate(legs) if len(seq) >= p and seq[-p] == leg]
                if not at:
                    continue
                algebra, images = self._legs[leg]
                letters = np.stack([words[j].letters[-p][1] for j in at])
                c, res = algebra.coords_many(letters)
                if exceeds(res, GUARD_TOL):
                    raise StructuralError(
                        f"letter {-p} (from the end) is not in the algebra of leg {leg} (residual {res:.3e})"
                    )
                moved = images @ v[at][:, None]  # every M_k v, per word
                v[at] = (c[:, None] @ moved.reshape(len(at), len(images), -1)).reshape(-1, *v.shape[1:])
        return self._bra @ v

    def scalar_moment(self, word: AlternatingWord) -> complex:
        m = self.moment(word)
        if m.shape != (1, 1):
            raise StructuralError("scalar moment requested from a base-valued realization")
        return complex(m[0, 0])

    def verify(self, tol: float = DEFAULT_TOL) -> VerificationReport:
        """Check both legs are *-representations with the declared unitality."""
        report = VerificationReport()
        for leg, action, unital in ((1, self.leg1, self.unital_legs[0]), (2, self.leg2, self.unital_legs[1])):
            worst_mult, worst_star = representation_gaps(self.carrier, action)
            report.add(f"leg{leg}-multiplicative", worst_mult, tol)
            report.add(f"leg{leg}-star", worst_star, tol)
            u = self.embed(leg, action.algebra.unit)
            unit_gap = operator_distance(self.carrier, u, identity_blocks(self.carrier))
            if unital:
                report.add(f"leg{leg}-unital", unit_gap, tol)
            else:
                # the unit must land on a proper projection, strictly below one
                report.add(
                    f"leg{leg}-unit-is-idempotent", operator_distance(self.carrier, compose_blocks(u, u), u), tol,
                    f"distance to identity {unit_gap:.3e}",
                )
        gap = frob(self.carrier.inner(self.vacuum, self.vacuum) - self.carrier.base.unit)
        report.add("vacuum-normalized", gap, tol)
        return report


# ---------------------------------------------------------------------------
# scalar constructions: tensor and monotone


def _scalar_gns(space: QuantumProbabilitySpace) -> HilbertModule:
    if not space.is_state:
        raise StructuralError(
            "this construction needs states; use the conditional variants "
            "for conditional expectations"
        )
    return gns_construct(space.functional)


def _with_base_action(e: HilbertModule, base) -> HilbertModule:
    """The same module carrying only the base's bimodule action.

    The tensor product over the base needs exactly that action on its right
    factor; the full algebra action stays available on the original module
    for building the legs.
    """
    if base.ambient_dim == 1:
        action = trivial_left_action(e.rank, e.base)
    else:
        action = restrict_left_action(e.left, base)
    return HilbertModule(e.base, e.gram, action, e.distinguished)


def _slot_legs(
    s1: QuantumProbabilitySpace, s2: QuantumProbabilitySpace, e1: HilbertModule, e2: HilbertModule
):
    """E1 (x)_B E2 on the raw pairs, E2 with only the base's action, and the
    two slot legs: a (x) id, the carrier's own left action, which
    ``tensor_over_base`` lifts from E1, and id (x) a, E2's basis operators
    on the second slot, which must commute with the base action on E2."""
    e2b = _with_base_action(e2, e1.base)
    carrier = tensor_over_base(e1, e2b).module
    leg1 = LeftAction(s1.algebra, carrier.left.blocks)
    require_base_commutant(e2b, e2.left.blocks)
    leg2 = LeftAction(s2.algebra, tensor_slot(e2.left.blocks, e1.rank))
    return carrier, e2b, leg1, leg2


def tensor_realize(
    s1: QuantumProbabilitySpace, s2: QuantumProbabilitySpace
) -> JointRealization:
    """Both algebras act on GNS(phi1) (x) GNS(phi2), each on its own slot."""
    carrier, _, leg1, leg2 = _slot_legs(s1, s2, _scalar_gns(s1), _scalar_gns(s2))
    return JointRealization(carrier, carrier.distinguished["unit"], leg1, leg2, (True, True))


def monotone_realize(
    s1: QuantumProbabilitySpace, s2: QuantumProbabilitySpace
) -> JointRealization:
    """Monotone model: leg 1 acts as a (x) |1><1|, leg 2 as id (x) a.

    Leg 1 is non-unital: its unit letter becomes the rank-one projection
    onto the second factor's vacuum, which is what makes later measurements
    insensitive to earlier fine structure.
    """
    e1 = _scalar_gns(s1)
    carrier, e2b, lifted, leg2 = _slot_legs(s1, s2, e1, _scalar_gns(s2))
    xi2 = e2b.distinguished["unit"]
    vacuum_projection = rank_one_blocks(e2b.gram, xi2, xi2)
    require_base_commutant(e2b, vacuum_projection)
    leg1 = LeftAction(s1.algebra, compose_blocks(lifted.blocks, tensor_slot(vacuum_projection, e1.rank)))
    return JointRealization(carrier, carrier.distinguished["unit"], leg1, leg2, (False, True))


def _normalized_stacks(words: list[AlternatingWord]):
    """Per normalized leg sequence of ``words``: the indices of its words and
    their normalized letters as stacks, [(leg, (K, d, d)), ...] by position."""
    normal = [word.normalized().letters for word in words]
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, letters in enumerate(normal):
        groups.setdefault(tuple(leg for leg, _ in letters), []).append(j)
    for legs, at in groups.items():
        yield at, [(leg, np.stack([normal[j][p][1] for j in at])) for p, leg in enumerate(legs)]


def tensor_moment_formula(
    word: AlternatingWord,
    phi1: PositiveMap,
    phi2: PositiveMap,
) -> complex:
    """phi1(ordered product of leg-1 letters) * phi2(same for leg 2): the
    one-word case of :func:`tensor_moment_formulas`."""
    return complex(tensor_moment_formulas([word], phi1, phi2)[0])


def tensor_moment_formulas(
    words: list[AlternatingWord],
    phi1: PositiveMap,
    phi2: PositiveMap,
) -> np.ndarray:
    """phi1(ordered product of leg-1 letters) * phi2(same for leg 2) of each
    word, as one complex array.  Per leg, the words with the same number of
    letters on it form one stack: one stacked product per letter, in order,
    and one ``apply_many``."""
    factors: list[list[complex]] = [[] for _ in words]
    for leg, phi in ((1, phi1), (2, phi2)):
        mats = [[mat for letter_leg, mat in word.letters if letter_leg == leg] for word in words]
        groups: dict[int, list[int]] = {}
        for j, own in enumerate(mats):
            if own:
                groups.setdefault(len(own), []).append(j)
        for count, at in groups.items():
            prod = np.stack([mats[j][0] for j in at])
            for i in range(1, count):
                prod = prod @ np.stack([mats[j][i] for j in at])
            for j, value in zip(at, phi.apply_many(prod)[:, 0, 0]):
                factors[j].append(complex(value))
    # each word's factors multiply in order as Python complex numbers
    return np.array([math.prod(own, start=1.0 + 0.0j) for own in factors], dtype=complex)


def _monotone_factorization(letters, phi1: PositiveMap, phi2: PositiveMap) -> np.ndarray:
    """The factorization of :func:`monotone_moment_formula` on normalized
    ``letters``, matrices or stacks (K, d, d) of them, with the legs swapped."""
    unit1 = phi1.domain.unit
    many = bool(letters) and letters[0][1].ndim == 3
    return conditional_monotone_factorization(
        [(3 - leg, x) for leg, x in letters],
        phi2.apply_many if many else phi2.apply,
        phi1.apply_many if many else phi1.apply,
        lambda v: v * unit1,
        np.ones((1, 1), dtype=complex),
    )


def monotone_moment_formula(
    word: AlternatingWord,
    phi1: PositiveMap,
    phi2: PositiveMap,
) -> complex:
    """Each leg-2 letter contributes its own expectation; leg-1 letters fuse.

    For the normalized word g0 f1 g1 ... fn gn the value is
    prod_i phi2(g_i) * phi1(f1 f2 ... fn): the scalar case of
    :func:`conditional_monotone_factorization` with the legs swapped, since
    here leg 2 is the unital one.  Missing g-slots amount to unit letters on
    the unital leg and change nothing; an *explicit* unit among the f's
    still splits its neighbours' leg-2 letters into separate factors, which
    is the projection effect of the non-unital embedding.
    """
    value = _monotone_factorization(word.normalized().letters, phi1, phi2)
    return complex(value[0, 0])


def monotone_moment_formulas(
    words: list[AlternatingWord],
    phi1: PositiveMap,
    phi2: PositiveMap,
) -> np.ndarray:
    """:func:`monotone_moment_formula` of each word, as one complex array: one
    factorization of letter stacks per normalized leg sequence."""
    out = np.empty(len(words), dtype=complex)
    for at, letters in _normalized_stacks(words):
        out[at] = _monotone_factorization(letters, phi1, phi2)[..., 0, 0]
    return out


# ---------------------------------------------------------------------------
# conditional monotone independence over a base algebra


def conditional_monotone_embed(
    e1: HilbertModule,
    e2: HilbertModule,
    algebra1: MatrixStarAlgebra,
    algebra2: MatrixStarAlgebra,
) -> JointRealization:
    """Joint model of two algebras on E1 (x)_B E2.

    ``e1`` must carry a unit vector with <1,1> = unit and a left action of
    ``algebra1``; ``e2`` a unit vector and a left action of ``algebra2``
    whose restriction to the base gives the bimodule structure.  Leg 1 acts
    unitally as a . id.  Leg 2 acts through the projected form

        x1 o x2  |->  1 o a2 <1, x1> x2,

    i.e. project the first slot onto its unit vector, move the inner product
    across the tensor sign as a left base-action on the second slot, then
    apply a2: ``V a2 V*`` with ``V y = 1 o y``, the product system's isometry
    pair, on the raw product.  This is an operator even when a2 fails to
    commute with the base action, which is exactly why the construction
    works where a naive id-tensor-a2 does not.
    """
    base = e1.base
    if e1.left is None or e2.left is None:
        raise StructuralError("both factors need left actions")
    if not e2.base.same_basis(base):
        raise StructuralError("the factors must be modules over the same base algebra")
    for e, algebra, name in ((e1, algebra1, "first"), (e2, algebra2, "second")):
        if "unit" not in e.distinguished:
            raise StructuralError(f"the {name} factor has no distinguished unit vector")
        if not algebra.same_basis(e.left.algebra):
            raise StructuralError(f"the {name} factor's left action is not one of the {name} algebra")
    xi1 = e1.distinguished["unit"]
    if exceeds(frob(e1.inner(xi1, xi1) - base.unit), DEFAULT_TOL):
        raise StructuralError("the first factor's unit vector is not normalized")

    e2b = _with_base_action(e2, base)
    carrier = tensor_over_base(e1, e2b).module
    # V y = 1 o y from E2 to the carrier, and V*(x1 o x2) = <1, x1> . x2
    put, moved = tensor_isometry(e2b.left, xi1, e1.gram)
    leg1 = LeftAction(algebra1, carrier.left.blocks)
    leg2 = LeftAction(algebra2, compose_blocks(put, compose_blocks(e2.left.blocks, moved)))
    return JointRealization(carrier, carrier.distinguished["unit"], leg1, leg2, (True, False), base)


def conditional_monotone_factorization(letters, expect1, expect2, insert, unit):
    """E1(a0) . E2( b1 i(E1(a1)) b2 ... bn ) . E1(an) for an alternating word.

    ``letters`` is a list of (leg, x) pairs alternating between the legs,
    whose outer letters, when present, are on leg 1; a missing end counts as
    ``unit``.  ``expect1`` and ``expect2`` are the two expectations, and
    ``insert`` carries an interior leg-1 value into the leg-2 chain, where it
    is multiplied *inside*.  The letters are matrix letters with base-valued
    expectations, or flat operators with the corner functional and its left
    embedding of the base, or stacks (K, ...) of either, one per word of one
    leg sequence, which broadcast.  One word's matrices multiply by ``dot``
    and stacks by ``@``, as the letters' ``ndim`` says.
    """
    mul = np.matmul if letters and letters[0][1].ndim > 2 else np.ndarray.dot
    left = right = unit
    if letters and letters[0][0] == 1:
        left = expect1(letters[0][1])
        letters = letters[1:]
    if letters and letters[-1][0] == 1:
        right = expect1(letters[-1][1])
        letters = letters[:-1]
    if not letters:
        return mul(left, right)
    chain = None
    for leg, x in letters:
        factor = x if leg == 2 else insert(expect1(x))
        chain = factor if chain is None else mul(chain, factor)
    return mul(mul(left, expect2(chain)), right)


def _conditional_monotone_values(letters, expect1: PositiveMap, expect2: PositiveMap):
    """The factorization of :func:`conditional_monotone_moment_formula` on
    normalized ``letters``, matrices or stacks (K, d, d) of them, guarded
    for membership of its value(s) in the shared codomain."""
    cod = expect1.codomain
    if not expect2.codomain.same_basis(cod):
        raise StructuralError("the two expectations must share their codomain")
    amb = expect2.domain.ambient_dim

    def insert(value: np.ndarray) -> np.ndarray:
        # interior expectations multiply inside the second algebra; over a
        # scalar base that means "scalar times the unit", over a matrix base
        # the value is already an element of it
        if value.shape[-2:] == (amb, amb):
            return value
        if value.shape[-2:] == (1, 1):
            return value * expect2.domain.unit
        raise StructuralError(
            "base values cannot be multiplied into the second algebra: "
            f"ambient dimensions {value.shape[-1]} vs {amb}"
        )

    many = bool(letters) and letters[0][1].ndim == 3
    apply1, apply2 = (expect1.apply_many, expect2.apply_many) if many else (expect1.apply, expect2.apply)
    value = conditional_monotone_factorization(letters, apply1, apply2, insert, cod.unit)
    res = cod.coords_many(value.reshape(-1, *cod.unit.shape))[1] if many else cod.span_residual(value)
    if exceeds(res, GUARD_TOL):
        raise StructuralError(
            f"moment left the base algebra (residual {res:.3e}); "
            "check that the expectations share their range"
        )
    return value


def conditional_monotone_moment_formula(
    word: AlternatingWord,
    expect1: PositiveMap,
    expect2: PositiveMap,
) -> np.ndarray:
    """Base-valued moment of an alternating word under the two expectations.

    Leg 1 is the unital leg here, so for the normalized word
    a1(0) a2(1) a1(1) ... a2(n) a1(n) the value is
    :func:`conditional_monotone_factorization`

        E1(a1(0)) . E2( a2(1) E1(a1(1)) a2(2) ... a2(n) ) . E1(a1(n)),

    with missing outer letters counting as units.  The result is checked to
    lie in the shared codomain algebra.
    """
    return _conditional_monotone_values(word.normalized().letters, expect1, expect2)


def conditional_monotone_moment_formulas(
    words: list[AlternatingWord],
    expect1: PositiveMap,
    expect2: PositiveMap,
) -> np.ndarray:
    """:func:`conditional_monotone_moment_formula` of each word, stacked
    (len(words), d0, d0): one factorization of letter stacks, and one
    base-membership guard, per normalized leg sequence."""
    cod = expect1.codomain
    out = np.empty((len(words), *cod.unit.shape), dtype=complex)
    for at, letters in _normalized_stacks(words):
        out[at] = _conditional_monotone_values(letters, expect1, expect2)
    return out


# ---------------------------------------------------------------------------
# conditional tensor independence (commutative case)


@dataclass
class ConditionalTensorProduct:
    """Amalgamated product of two commutative algebras over a common base.

    ``algebra`` is a faithful matrix model of the product; ``expectation``
    maps it onto the embedded copy of the base and is verified as a
    conditional expectation.  ``realization`` exposes the same structure in
    module form, including the base-valued vacuum functional.
    """

    algebra: MatrixStarAlgebra
    expectation: PositiveMap
    realization: JointRealization


def _right_base_coords(base: MatrixStarAlgebra):
    """The map X -> [coordinates of X beta_p over the base basis]_p, from a
    stack of blocks (..., d0, d0) to (..., nb, nb), ``[..., p, q]`` the q-th
    coordinate of X beta_p.

    X beta_p is linear in the entries of X, so the coordinates of E_ab beta_p
    for every matrix unit E_ab of M_d0, and the residuals of those
    coordinates, are computed once, here.  A stack then takes one product
    for its coordinates and one for its residuals.  It raises when some
    X beta_p leaves the base span (residual above ``GUARD_TOL``) or an entry
    of X is not finite.
    """
    d2, nb = base.ambient_dim**2, base.dim
    units = np.eye(d2, dtype=complex).reshape(d2, 1, *base.unit.shape)
    products = (units @ base.basis).reshape(d2 * nb, d2).T  # columns vec(E_ab beta_p), (ab, p)
    coords = base._pinv.dot(products)
    coords_map = coords.T.reshape(d2, nb * nb)
    residual_map = (base._stack.dot(coords) - products).T.reshape(d2, nb * d2)

    def worst_residual(flat: np.ndarray) -> float:
        r = flat.dot(residual_map).reshape(-1, d2)  # one row per X beta_p
        return float(np.sqrt(np.add.reduce((r.conj() * r).real, axis=1)).max(initial=0.0))

    def base_coords(blocks: np.ndarray) -> np.ndarray:
        flat = blocks.reshape(-1, d2)
        # a finiteness test first: a BLAS may skip a zero row of the
        # residual map, NaN and all
        if not np.isfinite(flat).all() or exceeds(worst_residual(flat), GUARD_TOL):
            raise StructuralError("operator blocks left the base algebra span")
        return flat.dot(coords_map).reshape(*blocks.shape[:-2], nb, nb)

    return base_coords


def conditional_tensor_realize(
    s1: QuantumProbabilitySpace, s2: QuantumProbabilitySpace
) -> ConditionalTensorProduct:
    """Tensor independence of two commutative algebras over a shared base.

    Rejects noncommutative inputs: for noncommutative algebras the relation
    a1 a0 (x) a2 = a1 (x) a0 a2 is incompatible with a multiplication on the
    amalgamated tensor product except in degenerate cases, because the two
    module orders E1 (x) E2 and E2 (x) E1 are genuinely non-isomorphic.

    Both GNS modules come from one ``gns_construct_many`` call when the two
    expectations share their domain basis (one call each otherwise).  The
    faithful matrix model writes each operator X over the extended family
    e_j beta_p, which needs the base coordinates of every X beta_p.  These
    are linear in the entries of X: :func:`_right_base_coords` computes the
    coordinates of E_ab beta_p for every matrix unit E_ab, and their
    residuals, once, so each operator takes one product for its
    coordinates and one for its span guard, which raises "operator blocks
    left the base algebra span".
    """
    for s, name in ((s1, "first"), (s2, "second")):
        if s.functional.kind is not MapKind.CONDITIONAL_EXPECTATION:
            raise StructuralError(
                f"the {name} space must carry a conditional expectation"
            )
        if not s.algebra.is_commutative():
            raise StructuralError(
                f"the {name} algebra is noncommutative: the amalgamated product "
                "a1 a0 (x) a2 = a1 (x) a0 a2 admits a compatible multiplication "
                "only in exceptional cases, none of which are modeled here"
            )
    base = s1.functional.codomain
    if not s2.functional.codomain.same_basis(base):
        raise StructuralError("the two expectations must share the same base algebra")

    f1, f2 = s1.functional, s2.functional
    if f2.domain.same_basis(f1.domain):
        e1, e2 = gns_construct_many([f1, f2])
    else:
        e1, e2 = gns_construct(f1), gns_construct(f2)
    carrier, _, leg1, leg2 = _slot_legs(s1, s2, e1, e2)
    real = JointRealization(carrier, carrier.distinguished["unit"], leg1, leg2, (True, True), base)

    # faithful matrix model on the range of the scalarized Gram, read off
    # the realization alone
    carrier, vac = real.carrier, real.vacuum
    s_ext = extended_gram(carrier)
    lam, u = np.linalg.eigh(s_ext)
    keep = lam > float(lam[-1]) * 1e-12
    lam, u = lam[keep], u[:, keep]
    root = np.sqrt(lam)

    nb = base.dim
    n = carrier.rank
    base_coords = _right_base_coords(base)
    compress_left, compress_right = u.conj().T * root[:, None], u / root[None, :]

    def flatten(blocks: np.ndarray) -> np.ndarray:
        # blocks act on the extended family e_j beta_p; express the results
        # over the same family and compress onto the range of the Gram
        k = base_coords(blocks).transpose(0, 3, 1, 2).reshape(n * nb, n * nb)
        return compress_left.dot(k).dot(compress_right)

    # leg1(b) leg2(c) for every pair of basis elements, b-major: one
    # stacked product of the legs' basis operators
    flat1, flat2 = block_matrix(real.leg1.blocks), block_matrix(real.leg2.blocks)
    pair_ops = unblock((flat1[:, None] @ flat2[None]).reshape(-1, *flat1.shape[1:]), carrier.base.ambient_dim)
    stack = np.stack([flatten(blocks) for blocks in pair_ops])
    keep_idx = independent_columns(stack.reshape(len(stack), -1).T)
    amalg = MatrixStarAlgebra(stack[keep_idx])

    base_images = np.stack([flatten(real.leg1.blocks_of(b)) for b in base.basis])
    base_keep = independent_columns(base_images.reshape(len(base_images), -1).T)
    base_alg = MatrixStarAlgebra(base_images[base_keep])

    images = []
    for k in keep_idx:
        val = carrier.inner(vac, apply_blocks(pair_ops[k], vac))
        c, res = base.coords(val)
        if exceeds(res, GUARD_TOL):
            raise StructuralError("vacuum functional left the base algebra")
        images.append(np.einsum("m,mab->ab", c, base_images))
    expectation = map_from_images(
        amalg, base_alg, np.stack(images), MapKind.CONDITIONAL_EXPECTATION
    )
    verify_positive_map(expectation, DEFAULT_TOL).raise_on_failure(
        "amalgamated expectation failed verification"
    )
    return ConditionalTensorProduct(amalg, expectation, real)


# ---------------------------------------------------------------------------
# the coins game


def coins_game(bias1: float = 0.7, bias2: float = 0.3):
    """Two coins conditioned oppositely on one fair coin.

    Y is fair.  Given Y = heads, X1 shows heads with probability ``bias1``
    and X2 with ``bias2``; given Y = tails the biases swap.  Both observable
    algebras are functions of (X_i, Y) on a 4-point space ordered
    (h,h), (h,t), (t,h), (t,t) with the second slot Y; the common base is
    the functions of Y.  Returns the two spaces and the base algebra.
    """
    if not (0.0 <= bias1 <= 1.0 and 0.0 <= bias2 <= 1.0):
        raise StructuralError("biases must be probabilities")
    alg = diagonal_algebra(4)
    # base: functions of Y inside the 4-point algebra
    chi_h = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
    chi_t = np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex)
    base = MatrixStarAlgebra(np.stack([chi_h, chi_t]))

    def conditional(bias_h: float):
        # E[f | Y] for the law P(X=h | Y=h) = bias_h, P(X=h | Y=t) = 1-bias_h
        images = []
        for f in alg.basis:
            d = np.real(np.diagonal(f))
            given_h = bias_h * d[0] + (1 - bias_h) * d[2]
            given_t = (1 - bias_h) * d[1] + bias_h * d[3]
            images.append(given_h * chi_h + given_t * chi_t)
        return map_from_images(
            alg, base, np.stack(images), MapKind.CONDITIONAL_EXPECTATION
        )

    s1 = QuantumProbabilitySpace(alg, conditional(bias1))
    s2 = QuantumProbabilitySpace(alg, conditional(bias2))
    return s1, s2, base


def classical_coins_oracle(
    f: np.ndarray, g: np.ndarray, bias1: float = 0.7, bias2: float = 0.3
) -> np.ndarray:
    """E[f(X1, Y) g(X2, Y) | Y] by exhaustive enumeration of the 8 outcomes."""
    fd = np.real(np.diagonal(f))
    gd = np.real(np.diagonal(g))
    vals = {}
    for y, (p1h, p2h) in (("h", (bias1, bias2)), ("t", (1 - bias1, 1 - bias2))):
        total = 0.0
        for x1, p1 in (("h", p1h), ("t", 1 - p1h)):
            for x2, p2 in (("h", p2h), ("t", 1 - p2h)):
                f_idx = (0 if x1 == "h" else 2) + (0 if y == "h" else 1)
                g_idx = (0 if x2 == "h" else 2) + (0 if y == "h" else 1)
                total += p1 * p2 * fd[f_idx] * gd[g_idx]
        vals[y] = total
    chi_h = np.diag([1.0, 0.0, 1.0, 0.0])
    chi_t = np.diag([0.0, 1.0, 0.0, 1.0])
    return vals["h"] * chi_h + vals["t"] * chi_t


# ---------------------------------------------------------------------------
# the harness


# The most words one stacked draw makes (--trials' default).  A larger count
# is drawn in stacks of this size, so that no run holds every word at once.
WORD_STACK = 200


def word_stacks(trials: int):
    """The sizes of the stacks that ``trials`` words are drawn in: full
    ``WORD_STACK``s, then the rest."""
    for done in range(0, trials, WORD_STACK):
        yield min(WORD_STACK, trials - done)


def random_hermitian_elements(
    algebras: list[MatrixStarAlgebra], rng: np.random.Generator
) -> list[np.ndarray]:
    """One random Hermitian element of each algebra in ``algebras``, in order:
    the Hermitian part of the projection onto the algebra's span of a random
    Hermitian matrix with spectrum inside [-2, 2].  One ``rng.normal`` draws
    them all, 2 d^2 normals per element in order, then one stack per
    algebra makes them."""
    return _hermitian_elements(algebras, rng.normal(size=sum(2 * a.ambient_dim**2 for a in algebras)))


def _hermitian_elements(algebras: list[MatrixStarAlgebra], draws: np.ndarray) -> list[np.ndarray]:
    """The elements :func:`random_hermitian_elements` makes of the flat normal
    ``draws``, element k from the next 2 d_k^2 of them: one scaling,
    projection and combine per algebra."""
    sizes = (2 * a.ambient_dim**2 for a in algebras)
    starts = np.fromiter(accumulate(sizes, initial=0), int, len(algebras))
    out: list[np.ndarray] = [None] * len(algebras)
    for alg in {id(a): a for a in algebras}.values():
        at = [k for k, a in enumerate(algebras) if a is alg]
        d = alg.ambient_dim
        own = draws[np.add.outer(starts[at], np.arange(2 * d * d))]
        c, _ = alg.coords_many(scaled_hermitian(own.reshape(len(at), 2, d, d)))
        for k, mat in zip(at, hermitian_part(alg.combine(c))):
            out[k] = mat
    return out


def random_alternating_word(
    algebra1: MatrixStarAlgebra,
    algebra2: MatrixStarAlgebra,
    rng: np.random.Generator,
    max_length: int = 6,
) -> AlternatingWord:
    """Random word with letters drawn from the two algebras.

    Letters are :func:`random_hermitian_elements` draws, which keep long
    products well-scaled.  After the legs, one ``rng.normal`` draws every
    letter in order (per letter its real block, then its imaginary block).
    """
    return random_alternating_words(algebra1, algebra2, rng, 1, max_length)[0]


def random_alternating_words(
    algebra1: MatrixStarAlgebra,
    algebra2: MatrixStarAlgebra,
    rng: np.random.Generator,
    count: int,
    max_length: int = 6,
) -> list[AlternatingWord]:
    """``count`` words, drawn as ``count`` calls of :func:`random_alternating_word`
    draw them: each word's legs, then its one ``rng.normal``.  The letters of
    every word are then made as one stack per algebra."""
    algebras = {1: algebra1, 2: algebra2}
    sizes = {leg: 2 * alg.ambient_dim**2 for leg, alg in algebras.items()}
    words_legs: list[list[int]] = []
    draws = []
    for _ in range(count):
        length = int(rng.integers(1, max_length + 1))
        legs = [int(rng.integers(1, 3))]
        while len(legs) < length:
            # bias toward alternation but allow same-leg repeats to exercise
            # normalization
            nxt = 3 - legs[-1] if rng.random() < 0.8 else legs[-1]
            legs.append(nxt)
        words_legs.append(legs)
        draws.append(rng.normal(size=sum(sizes[leg] for leg in legs)))
    letter_algebras = [algebras[leg] for legs in words_legs for leg in legs]
    letters = iter(_hermitian_elements(letter_algebras, np.concatenate(draws)))
    return [AlternatingWord([(leg, next(letters)) for leg in legs]) for legs in words_legs]


def verify_independence(
    realization: JointRealization,
    oracle,
    words: list[AlternatingWord],
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Compare vacuum expectations against the formula oracle, one row per word."""
    report = VerificationReport()
    for k, (word, got) in enumerate(zip(words, realization.moments(words))):
        want = np.asarray(oracle(word))
        if want.shape == ():
            want = want.reshape(1, 1)
        report.add(f"word {k}: {word.label()}", frob(got - want), tol)
    return report
