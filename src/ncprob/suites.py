"""Named verification suites behind `ncprob verify`.

Each suite is a pure function from a RunConfig to a list of check rows
{"name", "residual", "tolerance", "passed", "detail"}; all randomness
comes from the config seed, so identical configs give identical rows.
Every row is a :class:`VerificationReport` check, copied with the
tolerance and verdict it was decided with.  Most rows compare against the
config tolerance; rows that freeze a sharper bound (exact-arithmetic
identities, GNS representation, shift isometry) carry their own tolerance
and say so in the detail field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra_core import (
    StructuralError,
    VerificationReport,
    cp_from_stochastic,
    diagonal_algebra,
    diagonal_compression,
    full_matrix_algebra,
    identity_map,
    normalized_trace_state,
    pauli_algebra,
    state_from_density,
    verify_algebra,
    verify_positive_map,
)
from .dilation import (
    BudgetExceededError,
    central_unit_fiber,
    dilate_discrete,
    markov_scenario,
    random_unital_cp,
    random_unital_cps,
    scalar_fiber,
    semigroup_gaps,
    verify_dilation,
    verify_product_system,
    white_noise_increment_check,
    white_noise_scenario,
)
from .hilbert_module import (
    compose_blocks,
    gns_construct_many,
    operator_distance,
    tensor_over_base,
    verify_module,
)
# unused here, but perfbench's tracer self-test rewraps this second binding
from .hilbert_module import apply_blocks  # noqa: F401
from .independence import (
    AlternatingWord,
    ConditionalTensorProduct,
    QuantumProbabilitySpace,
    classical_coins_oracle,
    coins_game,
    conditional_monotone_embed,
    conditional_monotone_moment_formulas,
    conditional_tensor_realize,
    monotone_moment_formulas,
    monotone_realize,
    random_alternating_words,
    random_hermitian_elements,
    tensor_moment_formulas,
    tensor_realize,
    word_stacks,
)
from .linalg import frob, random_density, residual_max
from .serialization import SCHEMA_TAG

__all__ = ["RunConfig", "SUITE_NAMES", "run_suite", "coins_identities"]

SUITE_NAMES = (
    "algebra",
    "module",
    "monotone",
    "conditional-monotone",
    "conditional-tensor",
    "dilation",
    "white-noise",
    "markov",
)


@dataclass(frozen=True)
class RunConfig:
    tolerance: float = 1e-9
    seed: int = 42
    max_word_length: int = 6
    trials: int = 200
    horizon: int = 3
    budget: int = 4096
    output_format: str = "json"

    def validate(self) -> None:
        if not (0.0 < self.tolerance < float("inf")):
            raise StructuralError("tolerance must be a positive finite number")
        if self.tolerance > 1e-3:
            raise StructuralError(
                "tolerance must be at most 1e-3; a looser one makes the checks vacuous"
            )
        for name in ("max_word_length", "trials", "horizon", "budget"):
            if getattr(self, name) < 1:
                raise StructuralError(f"{name} must be at least 1")
        if self.output_format not in ("json", "csv", "text"):
            raise StructuralError("format must be one of json, csv, text")

    def as_report_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "seed": self.seed,
            "max_word_length": self.max_word_length,
            "trials": self.trials,
            "horizon": self.horizon,
            "budget": self.budget,
        }


# ---------------------------------------------------------------------------


def suite_algebra(config: RunConfig) -> list[dict]:
    tol = config.tolerance
    report = VerificationReport()
    rng = np.random.default_rng(config.seed)
    for label, algebra in (
        ("m2", full_matrix_algebra(2)),
        ("diag3", diagonal_algebra(3)),
        ("pauli", pauli_algebra()),
    ):
        report.extend(label, verify_algebra(algebra, tol))
    m2 = full_matrix_algebra(2)
    maps = [
        ("trace-state", normalized_trace_state(m2)),
        ("diag-compression", diagonal_compression(2, m2)),
        ("stochastic", cp_from_stochastic(np.array([[0.5, 0.5], [0.3, 0.7]]))),
        ("random-state", state_from_density(m2, random_density(2, rng))),
        ("random-cp", random_unital_cp(2, rng)),
    ]
    for label, pmap in maps:
        report.extend(label, verify_positive_map(pmap, tol))
    return report.rows()


def _gns_by_spaces(maps: list) -> list:
    """The reduced GNS module of each map, in order: one
    :func:`gns_construct_many` call per set of maps that share their domain
    and codomain."""
    groups: list[list[int]] = []
    for k, pmap in enumerate(maps):
        for group in groups:
            first = maps[group[0]]
            if first.domain.same_basis(pmap.domain) and first.codomain.same_basis(pmap.codomain):
                group.append(k)
                break
        else:
            groups.append([k])
    modules = [None] * len(maps)
    for group in groups:
        for k, module in zip(group, gns_construct_many([maps[k] for k in group])):
            modules[k] = module
    return modules


def suite_module(config: RunConfig) -> list[dict]:
    report = VerificationReport()
    rng = np.random.default_rng(config.seed)
    m2 = full_matrix_algebra(2)

    # GNS represents the map on the unit vector (fixed sharper bound)
    gns_tol = 1e-10
    maps = [identity_map(m2), normalized_trace_state(m2), diagonal_compression(2, m2)]
    maps.append(cp_from_stochastic(np.array([[0.5, 0.5], [0.3, 0.7]])))
    maps.append(
        cp_from_stochastic(np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]]))
    )
    while len(maps) < 10:
        if len(maps) % 2:
            maps.append(random_unital_cp(2, rng))
        else:
            maps.append(state_from_density(m2, random_density(2, rng)))
    worst = 0.0
    worst_label = ""
    for k, (pmap, module) in enumerate(zip(maps, _gns_by_spaces(maps))):
        moments = module.vector_functional(module.distinguished["unit"], pmap.domain.basis)
        for b, moment in zip(pmap.domain.basis, moments):
            gap = frob(moment - pmap.apply(b))
            if gap > worst or np.isnan(gap):
                worst, worst_label = gap, f"map #{k} ({pmap.kind.value})"
    report.add("gns-representation", worst, gns_tol, f"worst: {worst_label}; fixed tolerance 1e-10")

    # tensor associativity on raw (unreduced) grams (fixed sharper bound)
    assoc_tol = 1e-10
    worst = 0.0
    triples = gns_construct_many(random_unital_cps(2, rng, 30))
    for k in range(10):
        e1, e2, e3 = triples[3 * k : 3 * k + 3]
        left_first = tensor_over_base(e1, e2)
        right_first = tensor_over_base(e2, e3)
        g_left = tensor_over_base(left_first.module, e3).module.gram
        g_right = tensor_over_base(e1, right_first.module).module.gram
        worst = residual_max(worst, float(np.abs(g_left - g_right).max()))
    report.add("tensor-associativity", worst, assoc_tol, "10 seeded module triples; fixed tolerance 1e-10")

    # reductions preserve moments
    worst = 0.0
    pmaps = random_unital_cps(2, rng, 5)
    for full, reduced in zip(gns_construct_many(pmaps, reduce=False), gns_construct_many(pmaps)):
        lhs = full.vector_functional(full.distinguished["unit"], m2.basis)
        rhs = reduced.vector_functional(reduced.distinguished["unit"], m2.basis)
        worst = residual_max(worst, *(frob(l - r) for l, r in zip(lhs, rhs)))
    report.add("quotient-preserves-moments", worst, config.tolerance)

    base, fiber = central_unit_fiber(m2, 2)
    report.extend("central-unit-fiber", verify_module(fiber, config.tolerance))
    return report.rows()


def _seeded_state_pair(rng: np.random.Generator):
    m2 = full_matrix_algebra(2)
    s1 = QuantumProbabilitySpace(m2, state_from_density(m2, random_density(2, rng)))
    s2 = QuantumProbabilitySpace(m2, state_from_density(m2, random_density(2, rng)))
    return s1, s2


def suite_monotone(config: RunConfig) -> list[dict]:
    tol = config.tolerance
    report = VerificationReport()
    rng = np.random.default_rng(config.seed)
    s1, s2 = _seeded_state_pair(rng)

    mono = monotone_realize(s1, s2)
    tens = tensor_realize(s1, s2)
    worst_mono = worst_tens = 0.0
    worst_word = ""
    witness_gap = 0.0
    witness_word = ""
    # each stack of words is drawn in one call, then evaluated as one stack
    for count in word_stacks(config.trials):
        words = random_alternating_words(s1.algebra, s2.algebra, rng, count, config.max_word_length)
        got = mono.moments(words)[:, 0, 0]
        want = monotone_moment_formulas(words, s1.functional, s2.functional)
        naive = tensor_moment_formulas(words, s1.functional, s2.functional)
        tens_got = tens.moments(words)[:, 0, 0]
        # element by element: np.abs of an array need not round as abs does
        for word, g, w, t, n in zip(words, got, want, tens_got, naive):
            gap = abs(g - w)
            if gap > worst_mono or np.isnan(gap):
                worst_mono, worst_word = gap, word.label()
            worst_tens = residual_max(worst_tens, abs(t - n))
            cross = abs(w - n)
            if cross > witness_gap or np.isnan(cross):
                witness_gap, witness_word = cross, word.label()
    report.add("realization-matches-formula", worst_mono, tol, f"worst word: {worst_word}")
    report.add("tensor-realization-matches-formula", worst_tens, tol)

    # ordered two-letter factorization phi(f(X1) g(X2)) = phi1(f) phi2(g);
    # the realization and both maps guard the letters' membership
    elements = random_hermitian_elements([s1.algebra, s2.algebra] * 25, rng)
    fs, gs = np.stack(elements[0::2]), np.stack(elements[1::2])
    words = [AlternatingWord([(1, f), (2, g)]) for f, g in zip(fs, gs)]
    splits = zip(s1.functional.apply_many(fs)[:, 0, 0], s2.functional.apply_many(gs)[:, 0, 0])
    worst = residual_max(*(
        abs(got - complex(a) * complex(b)) for got, (a, b) in zip(mono.moments(words)[:, 0, 0], splits)
    ))
    report.add("ordered-two-letter-factorization", worst, tol)

    # at least one reversed word must separate monotone from tensor values;
    # the witness shape g(X2) f(X1) g'(X2) is fixed, since single letters and
    # ordered pairs always factor and a short word-length cap must not mask
    # the asymmetry
    elements = random_hermitian_elements([s1.algebra, s2.algebra, s2.algebra] * 25, rng)
    words = [
        AlternatingWord([(2, g), (1, f), (2, gp)])
        for f, g, gp in zip(elements[0::3], elements[1::3], elements[2::3])
    ]
    want = monotone_moment_formulas(words, s1.functional, s2.functional)
    naive = tensor_moment_formulas(words, s1.functional, s2.functional)
    for word, w, n in zip(words, want, naive):
        cross = abs(w - n)
        if cross > witness_gap or np.isnan(cross):
            witness_gap, witness_word = cross, word.label()
    shortfall = residual_max(1e-3 - witness_gap)
    report.add(
        "order-sensitivity-witness",
        shortfall,
        0.0,
        f"largest monotone/tensor gap {witness_gap:.6f} on {witness_word or 'no word'};"
        " must exceed 1e-3",
    )
    report.extend("monotone-realization", mono.verify(tol))
    return report.rows()


def suite_conditional_monotone(config: RunConfig) -> list[dict]:
    tol = config.tolerance
    report = VerificationReport()
    rng = np.random.default_rng(config.seed)
    m2 = full_matrix_algebra(2)
    comp = diagonal_compression(2, m2)
    base = comp.codomain

    e1, e2 = gns_construct_many([comp, comp])
    joint = conditional_monotone_embed(e1, e2, m2, m2)

    worst = 0.0
    worst_word = ""
    worst_member = 0.0
    length = min(config.max_word_length, 5)
    for count in word_stacks(config.trials):
        words = random_alternating_words(m2, m2, rng, count, length)
        want = conditional_monotone_moment_formulas(words, comp, comp)
        for word, diff in zip(words, joint.moments(words) - want):
            gap = frob(diff)
            if gap > worst or np.isnan(gap):
                worst, worst_word = gap, word.label()
        worst_member = residual_max(worst_member, base.coords_many(want)[1])
    report.add(
        "realization-matches-formula", worst, tol, f"{config.trials} words (len <= {length}); worst: {worst_word}"
    )
    report.add("formula-stays-in-base", worst_member, tol)

    # sandwich identity: embedding a first-leg letter between second-leg
    # letters only sees its conditional expectation
    worst = 0.0
    elements = random_hermitian_elements([m2] * 30, rng)
    for a, b, c in zip(elements[0::3], elements[1::3], elements[2::3]):
        lhs = compose_blocks(compose_blocks(joint.embed(2, a), joint.embed(1, b)), joint.embed(2, c))
        rhs = joint.embed(2, a @ comp.apply(b) @ c)
        worst = residual_max(worst, operator_distance(joint.carrier, lhs, rhs))
    report.add("sandwich-identity", worst, tol)
    report.extend("realization", joint.verify(tol))
    return report.rows()


@dataclass
class CoinsIdentities:
    """The coins model's identities, computed once for its suite and its demo.

    ``pairs`` holds ``(i, j, joint, split, gap)`` for every pair of outcome
    indicators: the conditional moment E[f_i(X1) g_j(X2) | Y], the product
    E[f_i | Y] E[g_j | Y], and the Frobenius distance between them.
    """

    product: ConditionalTensorProduct
    pairs: list[tuple[int, int, np.ndarray, np.ndarray, float]]
    worst_split: float
    worst_classical: float
    worst_insert: float


def coins_identities(seed: int, bias1: float = 0.7, bias2: float = 0.3) -> CoinsIdentities:
    """Factorization over the 16 indicator pairs, the eight-outcome oracle,
    and the base-insertion identity on 10 seeded triples."""
    s1, s2, base = coins_game(bias1, bias2)
    product = conditional_tensor_realize(s1, s2)
    moments = product.realization.moments

    # the conditional expectation factorizes, exhaustively over indicator pairs
    indicators = [np.diag(np.eye(4)[k]).astype(complex) for k in range(4)]
    index = [(i, j) for i in range(4) for j in range(4)]
    joints = moments([AlternatingWord([(1, indicators[i]), (2, indicators[j])]) for i, j in index])
    pairs = []
    worst_split = worst_classical = 0.0
    for (i, j), joint in zip(index, joints):
        f, g = indicators[i], indicators[j]
        split = s1.functional.apply(f) @ s2.functional.apply(g)
        gap = frob(joint - split)
        worst_split = residual_max(worst_split, gap)
        worst_classical = residual_max(
            worst_classical, frob(joint - classical_coins_oracle(f, g, bias1, bias2))
        )
        pairs.append((i, j, joint, split, gap))

    # functions of the fair coin slide across the tensor sign
    rng = np.random.default_rng(seed)
    via1, via2 = [], []
    for _ in range(10):
        f = np.diag(rng.uniform(-1, 1, size=4)).astype(complex)
        g = np.diag(rng.uniform(-1, 1, size=4)).astype(complex)
        h = base.combine(rng.uniform(-1, 1, size=2))
        via1.append(AlternatingWord([(1, f @ h), (2, g)]))
        via2.append(AlternatingWord([(1, f), (2, h @ g)]))
    worst_insert = residual_max(*map(frob, moments(via1) - moments(via2)))
    return CoinsIdentities(product, pairs, worst_split, worst_classical, worst_insert)


def suite_conditional_tensor(config: RunConfig) -> list[dict]:
    report = VerificationReport()
    exact_tol = 1e-12
    coins = coins_identities(config.seed)
    product = coins.product

    # frozen value: both coins show head with conditional probability 0.21
    head = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    got = product.realization.moments([AlternatingWord([(1, head), (2, head)])])[0]
    frozen = frob(got - np.diag([0.21, 0.21, 0.21, 0.21]).astype(complex))
    report.add("frozen-head-head-value", frozen, exact_tol, "fixed tolerance 1e-12")
    report.add("expectation-factorizes", coins.worst_split, exact_tol, "16 indicator pairs; fixed tolerance 1e-12")
    report.add("classical-oracle-agrees", coins.worst_classical, exact_tol, "fixed tolerance 1e-12")
    report.add("base-insertion-identity", coins.worst_insert, exact_tol, "fixed tolerance 1e-12")
    report.extend("amalgamated-expectation", verify_positive_map(product.expectation, config.tolerance))
    return report.rows()


def suite_dilation(config: RunConfig) -> list[dict]:
    tol = config.tolerance
    report = VerificationReport()
    rng = np.random.default_rng(config.seed)
    m2 = full_matrix_algebra(2)
    horizon = config.horizon

    # the trivial tower is trivial on the nose
    trivial = dilate_discrete(identity_map(m2), horizon, config.budget)
    ranks_ok = all(p.rank == 1 for p in trivial.system.powers)
    grams_ok = all(
        np.array_equal(p.gram, m2.unit[None, None]) for p in trivial.system.powers
    )
    report.add(
        "trivial-system-exact",
        0.0 if (ranks_ok and grams_ok) else 1.0,
        0.0,
        f"ranks {[p.rank for p in trivial.system.powers]}; gram equality {grams_ok}",
    )

    # semigroup recovery for random unital CP maps and the stochastic chain
    worst = 0.0
    worst_label = ""
    scenarios = [("stochastic", markov_scenario(np.array([[0.5, 0.5], [0.3, 0.7]]), horizon, config.budget).scenario)]
    for k, pmap in enumerate(random_unital_cps(2, rng, 10)):
        scenarios.append((f"random-cp-{k}", dilate_discrete(pmap, horizon, config.budget)))
    for label, scenario in scenarios:
        for n, gaps in enumerate(semigroup_gaps(scenario)):
            for gap in gaps:
                if gap > worst or np.isnan(gap):
                    worst, worst_label = gap, f"{label}, n={n}"
    report.add("semigroup-recovery", worst, tol, f"worst: {worst_label}")

    sample = scenarios[1][1]
    report.extend("shift", verify_dilation(sample, tol, seed=config.seed))
    report.extend("product-system", verify_product_system(sample.system, tol))

    # resource guard: an over-budget request must raise with the dimension
    try:
        dilate_discrete(random_unital_cp(2, rng), horizon=3, budget=10)
        guard = 1.0
        detail = "no error raised"
    except BudgetExceededError as err:
        guard = 0.0 if err.dimension > 10 else 1.0
        detail = f"raised with dimension {err.dimension}"
    report.add("budget-guard", guard, 0.0, detail)
    return report.rows()


def suite_white_noise(config: RunConfig) -> list[dict]:
    tol = config.tolerance
    report = VerificationReport()
    horizon = config.horizon
    trials = min(config.trials, 100)

    fibers = [
        ("m2-central-unit", central_unit_fiber(full_matrix_algebra(2), 2)),
        ("scalar-2dim", scalar_fiber(2)),
    ]
    for label, (base, fiber) in fibers:
        scenario = white_noise_scenario(base, fiber, horizon, config.budget)
        r, s, t = 0, max(1, horizon // 2), horizon
        inc = white_noise_increment_check(
            scenario, r, s, t, trials=trials, seed=config.seed, tol=tol,
            max_word_length=config.max_word_length,
        )
        report.extend(label, inc)
        report.extend(f"{label}:dilation", verify_dilation(scenario, tol, seed=config.seed))
    return report.rows()


def suite_markov(config: RunConfig) -> list[dict]:
    tol = config.tolerance
    report = VerificationReport()
    model = markov_scenario(np.array([[0.5, 0.5], [0.3, 0.7]]), config.horizon, config.budget)
    report.extend("chain", model.verify(tol=tol, seed=config.seed, trials=min(config.trials, 40)))
    return report.rows()


_SUITE_FUNCTIONS = {
    "algebra": suite_algebra,
    "module": suite_module,
    "monotone": suite_monotone,
    "conditional-monotone": suite_conditional_monotone,
    "conditional-tensor": suite_conditional_tensor,
    "dilation": suite_dilation,
    "white-noise": suite_white_noise,
    "markov": suite_markov,
}


def run_suite(name: str, config: RunConfig) -> dict:
    """Run one suite (or "all") and assemble the deterministic report."""
    config.validate()
    if name == "all":
        names = SUITE_NAMES
    elif name in _SUITE_FUNCTIONS:
        names = (name,)
    else:
        raise StructuralError(
            f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES + ('all',))}"
        )
    if "white-noise" in names and config.horizon < 2:
        raise StructuralError(
            "--horizon must be at least 2 to cut time into the two increment "
            "windows of white-noise"
        )
    checks = []
    for suite in names:
        for row in _SUITE_FUNCTIONS[suite](config):
            checks.append({**row, "name": f"{suite}/{row['name']}"})
    return {
        "schema": SCHEMA_TAG,
        "suite": name,
        "config": config.as_report_dict(),
        "checks": checks,
        "passed": all(row["passed"] for row in checks),
    }
