"""Worked scenarios with printable moment tables.

Each demo builds one small, fully determined model, evaluates its
characteristic identities, and returns a plain report dict: narrative
lines, value tables, and pass/fail checks.  The CLI renders these in
json/csv/text; tests import the functions directly.

The four scenarios:

* ``two-time`` — two successive coin measurements under the monotone
  model: ordered moments factor, reversed words do not, and a later
  observable on the first leg collapses anything sandwiched between.
* ``coins`` — two coins whose biases are set by one fair coin; the
  conditional expectation onto functions of the fair coin factorizes
  exactly, cross-checked by enumerating all eight outcomes.
* ``markov`` — a two-state chain dilated to a product system; n-step
  transition probabilities and two-time correlations agree with the
  classical path space, computed by transfer matrices.
* ``white-noise`` — the central-unit-vector fiber over M2: the corner
  functional is shift invariant and increment algebras are conditionally
  monotone independent.
"""

from __future__ import annotations

import numpy as np

from .algebra_core import (
    StructuralError,
    VerificationReport,
    full_matrix_algebra,
    diagonal_algebra,
    state_from_density,
    verify_positive_map,
)
from .dilation import (
    central_unit_fiber,
    markov_scenario,
    verify_dilation,
    white_noise_increment_check,
    white_noise_scenario,
)
from .hilbert_module import compose_blocks, operator_distance
from .independence import (
    AlternatingWord,
    QuantumProbabilitySpace,
    monotone_realize,
    tensor_moment_formulas,
)
from .linalg import frob, residual_max
from .serialization import SCHEMA_TAG
from .suites import RunConfig, coins_identities

DEMO_NAMES = ("two-time", "coins", "markov", "white-noise")


def _table(title: str, columns: list[str], rows: list[list]) -> dict:
    return {"title": title, "columns": columns, "rows": rows}


def _finish(name: str, config: RunConfig, narrative, tables, report: VerificationReport) -> dict:
    return {
        "schema": SCHEMA_TAG,
        "demo": name,
        "config": config.as_report_dict(),
        "narrative": list(narrative),
        "tables": tables,
        "checks": report.rows(),
        "passed": report.passed,
    }


# ---------------------------------------------------------------------------
# two-time measurement


def demo_two_time(config: RunConfig) -> dict:
    """Ordered factorization and its failure in reverse, plus collapse."""
    tol = config.tolerance
    alg = diagonal_algebra(2)
    s1 = QuantumProbabilitySpace(
        alg, state_from_density(alg, np.diag([0.5, 0.5]).astype(complex))
    )
    s2 = QuantumProbabilitySpace(
        alg, state_from_density(alg, np.diag([0.7, 0.3]).astype(complex))
    )
    real = monotone_realize(s1, s2)
    phi1, phi2 = s1.functional, s2.functional

    x = np.diag([1.0, -1.0]).astype(complex)
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    named = [("x", x), ("up", up), ("down", down)]

    # ordered words f(X1) g(X2) factor into phi1(f) phi2(g)
    pairs = [(fname, f, gname, g) for fname, f in named for gname, g in named]
    joint = real.moments([AlternatingWord([(1, f), (2, g)]) for _, f, _, g in pairs])
    rows = []
    worst_ordered = 0.0
    for (fname, f, gname, g), value in zip(pairs, joint):
        got = complex(value[0, 0])
        want = complex(phi1.apply(f)[0, 0]) * complex(phi2.apply(g)[0, 0])
        gap = abs(got - want)
        worst_ordered = residual_max(worst_ordered, gap)
        rows.append([fname, gname, got.real, want.real, gap])
    ordered_table = _table(
        "ordered two-time moments: phi(f(X1) g(X2)) vs phi1(f) phi2(g)",
        ["f", "g", "joint", "product", "residual"],
        rows,
    )

    # reversed words g(X2) f(X1) g'(X2) do NOT factor symmetrically: the
    # naive guess treats the legs as tensor independent, phi2(g g') phi1(f)
    labels, words = [], []
    for fname, f in (("x", x), ("up", up)):
        for gname, g in named:
            for gpname, gp in named:
                labels.append([gname, fname, gpname])
                words.append(AlternatingWord([(2, g), (1, f), (2, gp)]))
    rows = []
    best_gap = 0.0
    for label, value, naive in zip(labels, real.moments(words), tensor_moment_formulas(words, phi1, phi2)):
        got, naive = complex(value[0, 0]), complex(naive)
        gap = abs(got - naive)
        best_gap = residual_max(best_gap, gap)
        rows.append([*label, got.real, naive.real, gap])
    reversed_table = _table(
        "reversed words: phi(g(X2) f(X1) g'(X2)) vs the symmetric guess",
        ["g", "f", "g'", "joint", "naive", "gap"],
        rows,
    )

    # a later observable on leg 1 collapses the sandwiched leg-2 letter
    rng = np.random.default_rng(config.seed)
    rows = []
    worst_collapse = 0.0
    for _ in range(5):
        f = np.diag(rng.uniform(-2, 2, size=2)).astype(complex)
        fp = np.diag(rng.uniform(-2, 2, size=2)).astype(complex)
        g = np.diag(rng.uniform(-2, 2, size=2)).astype(complex)
        mean = complex(phi2.apply(g)[0, 0])
        gap = operator_distance(
            real.carrier,
            compose_blocks(compose_blocks(real.embed(1, fp), real.embed(2, g)), real.embed(1, f)),
            mean * real.embed(1, fp @ f),
        )
        worst_collapse = residual_max(worst_collapse, gap)
        rows.append([float(np.real(mean)), gap])
    collapse_table = _table(
        "collapse: f'(X1) g(X2) f(X1) = phi2(g) . (f'f)(X1) as operators",
        ["phi2(g)", "operator distance"],
        rows,
    )

    report = VerificationReport()
    report.add("ordered-factorization", worst_ordered, tol, "9 observable pairs")
    report.add(
        "order-sensitivity-witness",
        residual_max(1e-3 - best_gap),
        0.0,
        f"largest gap {best_gap:.6g}; reversed words must not factor",
    )
    report.add("collapse-identity", worst_collapse, tol, "5 seeded triples")
    report.extend("realization", real.verify(tol))
    narrative = [
        "Fair coin measured at time 1, a 0.7-biased coin at time 2, jointly",
        "realized so that time 1 acts through the projection onto the later",
        "vacuum.  Moments of ordered words split into single-time averages;",
        "words that return to time 2 do not, and any observable sandwiched",
        "between two time-1 letters is replaced by its mean.",
    ]
    return _finish(
        "two-time",
        config,
        narrative,
        [ordered_table, reversed_table, collapse_table],
        report,
    )


# ---------------------------------------------------------------------------
# coins


_OUTCOMES = ("h,h", "h,t", "t,h", "t,t")  # (coin, fair coin), second slot fair


def demo_coins(config: RunConfig, bias1: float = 0.7, bias2: float = 0.3) -> dict:
    """Conditional factorization for two coins driven by one fair coin."""
    exact_tol = 1e-12
    coins = coins_identities(config.seed, bias1, bias2)
    rows = [
        [
            f"[X1={_OUTCOMES[i]}]",
            f"[X2={_OUTCOMES[j]}]",
            float(np.real(joint[0, 0])),
            float(np.real(joint[1, 1])),
            float(np.real(split[0, 0])),
            float(np.real(split[1, 1])),
            gap,
        ]
        for i, j, joint, split, gap in coins.pairs
    ]
    factor_table = _table(
        "E[f(X1) g(X2) | Y] vs E[f | Y] E[g | Y] over all indicator pairs",
        ["f", "g", "joint|Y=h", "joint|Y=t", "split|Y=h", "split|Y=t", "residual"],
        rows,
    )

    report = VerificationReport()
    report.add(
        "conditional-expectation-factorizes",
        coins.worst_split,
        exact_tol,
        "16 indicator pairs; fixed tolerance 1e-12",
    )
    report.add("eight-outcome-enumeration-agrees", coins.worst_classical, exact_tol, "fixed tolerance 1e-12")
    report.add(
        "base-insertion-identity",
        coins.worst_insert,
        exact_tol,
        "10 seeded triples; fixed tolerance 1e-12",
    )
    report.extend(
        "amalgamated-expectation",
        verify_positive_map(coins.product.expectation, config.tolerance),
    )
    narrative = [
        "One fair coin Y sets the biases of two others: given Y = h the",
        f"first shows heads with probability {bias1:g} and the second with",
        f"{bias2:g}; given Y = t the biases swap.  Conditionally on Y the",
        "coins are independent, so the conditional expectation of any",
        "product f(X1) g(X2) splits, and functions of Y attach to either",
        "factor.  Outcomes are labelled (coin, fair coin).",
    ]
    return _finish("coins", config, narrative, [factor_table], report)


# ---------------------------------------------------------------------------
# markov


def demo_markov(config: RunConfig) -> dict:
    """Two-state chain: n-step recovery and path-space cross-checks."""
    tol = config.tolerance
    p = np.array([[0.5, 0.5], [0.3, 0.7]])
    model = markov_scenario(p, config.horizon, config.budget)
    n_top = config.horizon

    rows = []
    worst_recovery = 0.0
    for n in range(1, n_top + 1):
        pn = np.linalg.matrix_power(p, n)
        for j in range(2):
            chi = np.diag([1.0 if k == j else 0.0 for k in range(2)]).astype(complex)
            got = model.module_moment([(chi, n)])
            gap = frob(got - np.diag(pn[:, j]).astype(complex))
            worst_recovery = residual_max(worst_recovery, gap)
            rows.append(
                [
                    n,
                    f"X_{n}={j}",
                    float(pn[0, j]),
                    float(np.real(got[0, 0])),
                    float(pn[1, j]),
                    float(np.real(got[1, 1])),
                    gap,
                ]
            )
    recovery_table = _table(
        "n-step transition probabilities recovered from the module",
        ["n", "event", "P^n[0,:]", "module[0]", "P^n[1,:]", "module[1]", "residual"],
        rows,
    )
    tables = [recovery_table]

    worst_two_time = 0.0
    if n_top >= 2:
        rows = []
        chi0 = np.diag([1.0, 0.0]).astype(complex)
        chi1 = np.diag([0.0, 1.0]).astype(complex)
        pairs = [(s, t) for s in range(1, n_top) for t in range(s + 1, n_top + 1)]
        for s, t in pairs[:4]:
            for f, g, label in ((chi0, chi0, "0,0"), (chi0, chi1, "0,1")):
                obs = [(f, s), (g, t)]
                path = model.path_moment(obs)
                module = model.module_moment(obs)
                gap = frob(path - module)
                worst_two_time = residual_max(worst_two_time, gap)
                rows.append(
                    [
                        f"X_{s},X_{t}={label}",
                        float(np.real(path[0, 0])),
                        float(np.real(module[0, 0])),
                        float(np.real(path[1, 1])),
                        float(np.real(module[1, 1])),
                        gap,
                    ]
                )
        tables.append(
            _table(
                "two-time correlations: transfer matrices vs the module",
                ["event", "path|X0=0", "module|X0=0", "path|X0=1", "module|X0=1", "residual"],
                rows,
            )
        )

    report = VerificationReport()
    report.add("n-step-recovery", worst_recovery, tol, f"n up to {n_top}")
    if n_top >= 2:
        report.add("two-time-agreement", worst_two_time, tol)
    report.extend("model", model.verify(tol, seed=config.seed, trials=25))
    narrative = [
        "The chain P = [[0.5, 0.5], [0.3, 0.7]] on two states, dilated to a",
        f"product system of horizon {n_top}.  Compressing the unit vector",
        "recovers the n-step semigroup, and moments of time-indexed",
        "observables match the classical path space, computed by transfer",
        "matrices, conditional on the start state.",
    ]
    if n_top < 2:
        narrative.append(
            "Horizon 1 exercises single-step recovery only; raise --horizon"
            " for correlations across two times."
        )
    return _finish("markov", config, narrative, tables, report)


# ---------------------------------------------------------------------------
# white noise


def demo_white_noise(config: RunConfig) -> dict:
    """Central-unit fiber over M2: invariance plus increment independence."""
    tol = config.tolerance
    if config.horizon < 2:
        raise StructuralError(
            "the white-noise demo needs --horizon of at least 2 to cut "
            "time into two increment windows"
        )
    m2 = full_matrix_algebra(2)
    base, fiber = central_unit_fiber(m2)
    scenario = white_noise_scenario(base, fiber, config.horizon, config.budget)
    n_top = config.horizon

    windows = []
    for r, s, t in ((0, 1, n_top), (0, max(1, n_top // 2), n_top), (0, n_top - 1, n_top)):
        if (r, s, t) not in windows and r < s < t:
            windows.append((r, s, t))

    trials = min(config.trials, 100)
    rows = []
    report = VerificationReport()
    for r, s, t in windows:
        inc = white_noise_increment_check(
            scenario,
            r,
            s,
            t,
            trials=trials,
            seed=config.seed,
            tol=tol,
            max_word_length=config.max_word_length,
        )
        invariance, factorization = inc.checks
        rows.append(
            [f"[{r},{s}] | [{s},{t}]", invariance.residual, factorization.residual, trials]
        )
        report.extend(f"[{r},{s},{t}]", inc)
    window_table = _table(
        "conditional monotone factorization of increment windows",
        ["windows", "invariance", "worst residual", "words"],
        rows,
    )

    report.extend("dilation", verify_dilation(scenario, tol, seed=config.seed))
    narrative = [
        "The fiber M2 (x) C^2 with central unit vector induces the identity",
        "semigroup, so the corner functional is invariant under the time",
        "shift; on top of that invariance, observables of the later window",
        "are conditionally monotone independent from the earlier ones:",
        "p(w) = p(x_0) p(y_1 p(x_1) y_2 ... y_n) p(x_n) with interior",
        "insertions acting by left multiplication.",
    ]
    return _finish("white-noise", config, narrative, [window_table], report)


# ---------------------------------------------------------------------------


def run_demo(name: str, config: RunConfig, **kwargs) -> dict:
    config.validate()
    if name == "two-time":
        return demo_two_time(config)
    if name == "coins":
        return demo_coins(config, **kwargs)
    if name == "markov":
        return demo_markov(config)
    if name == "white-noise":
        return demo_white_noise(config)
    raise StructuralError(
        f"unknown demo {name!r}; expected one of {', '.join(DEMO_NAMES)}"
    )
