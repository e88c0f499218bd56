"""The benchmark's workloads: inputs from a seed, one pass, and its output checks.

Each workload is a closed loop with one client: a pass starts only after the
previous one has returned.  ``setup`` turns the seed into the program's
inputs; ``run_pass`` makes the public calls a user's command makes and
checks what comes back.  Functions of ``ncprob`` are reached through module
attributes so that the tracer's wrappers see every call made from here.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ncprob import algebra_core, dilation, hilbert_module, independence, serialization, suites
from ncprob.linalg import frob, random_density

TOLERANCE = suites.RunConfig().tolerance


@dataclass
class PassOutcome:
    """What one pass checked, and the deterministic structure it produced."""

    attempted: int
    failed: int
    counts: dict
    digest: str  # sha256 of the bytes the pass emitted or of its residuals
    word_ms: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


class VerifyAll:
    """``ncprob verify all --seed S``: every suite, then the JSON report.

    The north-star command.  Every layer runs at small size (carrier ranks up
    to 27, horizon 3); per-call overhead dominates.
    """

    name = "verify-all"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        self.config = suites.RunConfig(seed=self.seed)
        self.config.validate()

    def run_pass(self) -> PassOutcome:
        report = suites.run_suite("all", self.config)
        text = serialization.emit_json(report) + "\n"
        checks = report["checks"]
        per_suite = Counter(c["name"].split("/", 1)[0] for c in checks)
        problems = [f"check {c['name']} failed" for c in checks if not c["passed"]]
        problems += [f"suite {s} reported no checks" for s in suites.SUITE_NAMES if not per_suite[s]]
        if report["passed"] != all(c["passed"] for c in checks):
            problems.append("report-level passed flag disagrees with its rows")
        data = text.encode("utf-8")
        return PassOutcome(
            attempted=len(checks),
            failed=len(problems),
            counts={
                "checks": len(checks),
                "checks_per_suite": dict(sorted(per_suite.items())),
                "report_bytes": len(data),
            },
            digest=hashlib.sha256(data).hexdigest(),
            problems=problems,
        )


class DeepDilation:
    """A seeded unital CP map on M2 dilated deep: few calls on large arrays.

    ``verify_dilation`` on the horizon-4 tower (ranks 1, 3, 9, 27, 81), then
    ``verify_product_system`` on the horizon-3 tower of the same map.  No
    call reaches ``independence``.
    """

    name = "deep-dilation"

    def __init__(self, seed: int, workdir: str, horizon: int = 4, product_horizon: int = 3):
        self.seed = seed
        self.horizon = horizon
        self.product_horizon = product_horizon

    def setup(self) -> None:
        self.cp_map = dilation.random_unital_cp(2, np.random.default_rng(self.seed))

    def run_pass(self) -> PassOutcome:
        deep = dilation.dilate_discrete(self.cp_map, self.horizon)
        shift = dilation.verify_dilation(deep, TOLERANCE, seed=self.seed)
        shallow = dilation.dilate_discrete(self.cp_map, self.product_horizon)
        product = dilation.verify_product_system(shallow.system, TOLERANCE)
        rows = [("shift", c) for c in shift.checks] + [("product-system", c) for c in product.checks]
        problems = [f"check {p}:{c.name} failed (residual {c.residual:.3e})"
                    for p, c in rows if not c.passed]
        digest = hashlib.sha256(
            "".join(f"{p}:{c.name} {c.residual!r} {c.passed}\n" for p, c in rows).encode()
        ).hexdigest()
        return PassOutcome(
            attempted=len(rows),
            failed=len(problems),
            counts={
                "rows": len(rows),
                "tower_ranks": [p.rank for p in deep.system.powers],
                "product_tower_ranks": [p.rank for p in shallow.system.powers],
            },
            digest=digest,
            problems=problems,
        )


class WordStream:
    """``ncprob moments`` over one words file, for two scenarios.

    Thousands of words share one realization per scenario: the work per word
    is embedding and applying operators.  Files are decoded in every pass and
    each scenario's moments report is emitted, so ``serialization`` runs both
    ways.
    """

    name = "word-stream"

    def __init__(self, seed: int, workdir: str, words: int = 1000, max_length: int = 6):
        self.seed = seed
        self.workdir = workdir
        self.n_words = words
        self.max_length = max_length
        # the clock per-word latencies are read from; the worker swaps in one
        # that leaves out calibration ticks
        self.clock = time.perf_counter

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        m2 = algebra_core.full_matrix_algebra(2)
        m2_json = serialization.algebra_to_json(m2)

        def space(functional):
            return {"algebra": m2_json, "functional": serialization.map_to_json(functional)}

        states = [algebra_core.state_from_density(m2, random_density(2, rng)) for _ in range(2)]
        comp = algebra_core.diagonal_compression(2, m2)
        docs = {
            "monotone.json": {
                "construction": "monotone",
                "space1": space(states[0]),
                "space2": space(states[1]),
            },
            "conditional-monotone.json": {
                "construction": "conditional-monotone",
                "base": serialization.algebra_to_json(comp.codomain),
                "space1": space(comp),
                "space2": space(comp),
            },
            "words.json": {
                "words": [
                    serialization.word_to_json(
                        independence.random_alternating_word(m2, m2, rng, self.max_length)
                    )
                    for _ in range(self.n_words)
                ]
            },
        }
        self.paths = {}
        for name, doc in docs.items():
            path = os.path.join(self.workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialization.emit_json(doc) + "\n")
            self.paths[name] = path
        # projector onto the span of the base, for the benchmark's own
        # membership check of base-valued formula values
        basis = np.stack([b.reshape(-1) for b in comp.codomain.basis], axis=1)
        self.base_projector = basis @ np.linalg.pinv(basis)

    def run_pass(self) -> PassOutcome:
        words = serialization.words_from_json(serialization.load_json_file(self.paths["words.json"]))
        digest = hashlib.sha256()
        word_ms: list[float] = []
        problems: list[str] = []
        attempted = 0
        report_bytes = 0
        carrier_ranks = []
        perf = self.clock
        for name in ("monotone.json", "conditional-monotone.json"):
            scenario = serialization.independence_scenario_from_json(
                serialization.load_json_file(self.paths[name])
            )
            s1, s2 = scenario["space1"], scenario["space2"]
            for which, space in (("space1", s1), ("space2", s2)):
                attempted += 1
                if not space.verify(TOLERANCE).passed:
                    problems.append(f"{name}: {which} functional failed verification")
            construction = scenario["construction"]
            base_valued = construction == "conditional-monotone"
            if base_valued:
                e1 = hilbert_module.gns_construct(s1.functional, verify=False)
                e2 = hilbert_module.gns_construct(s2.functional, verify=False)
                real = independence.conditional_monotone_embed(e1, e2, s1.algebra, s2.algebra)
                formula = independence.conditional_monotone_moment_formula
            else:
                real = independence.monotone_realize(s1, s2)
                formula = independence.monotone_moment_formula
            carrier_ranks.append(real.carrier.rank)
            moments = []
            for i, word in enumerate(words):
                t0 = perf()
                if base_valued:
                    got = real.moment(word)
                    want = formula(word, s1.functional, s2.functional)
                else:
                    got = complex(real.scalar_moment(word))
                    want = complex(formula(word, s1.functional, s2.functional))
                word_ms.append((perf() - t0) * 1e3)
                attempted += 1
                label = f"{i}: legs " + "".join(str(leg) for leg, _ in word.letters)
                if base_valued:
                    residual = float(frob(got - want))
                    flat = want.reshape(-1)
                    outside = float(np.linalg.norm(flat - self.base_projector @ flat))
                    if outside > TOLERANCE:
                        problems.append(f"{name} word {label}: formula value leaves the base ({outside:.3e})")
                    got_json = serialization.matrix_to_json(got)
                    want_json = serialization.matrix_to_json(want)
                else:
                    residual = abs(got - want)
                    got_json = serialization.complex_to_json(got)
                    want_json = serialization.complex_to_json(want)
                passed = residual <= TOLERANCE
                if not passed:
                    problems.append(f"{name} word {label}: residual {residual:.3e}")
                moments.append({
                    "word": label,
                    "realization": got_json,
                    "formula": want_json,
                    "residual": residual,
                    "passed": passed,
                })
            report = {
                "schema": serialization.SCHEMA_TAG,
                "construction": construction,
                "config": suites.RunConfig(seed=self.seed).as_report_dict(),
                "moments": moments,
                "passed": all(m["passed"] for m in moments),
            }
            data = (serialization.emit_json(report) + "\n").encode("utf-8")
            digest.update(data)
            report_bytes += len(data)
        return PassOutcome(
            attempted=attempted,
            failed=len(problems),
            counts={
                "words": 2 * len(words),
                "carrier_ranks": carrier_ranks,
                "report_bytes": report_bytes,
            },
            digest=digest.hexdigest(),
            word_ms=word_ms,
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (VerifyAll, DeepDilation, WordStream)}
