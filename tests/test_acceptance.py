"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Tolerances and budgets here are contractual — do not
loosen them to make a failure go away.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from ncprob import (
    AlternatingWord,
    QuantumProbabilitySpace,
    classical_coins_oracle,
    coins_game,
    conditional_monotone_embed,
    conditional_monotone_moment_formula,
    conditional_tensor_realize,
    cp_from_stochastic,
    diagonal_algebra,
    diagonal_compression,
    dilate_discrete,
    central_unit_fiber,
    full_matrix_algebra,
    gns_construct,
    identity_map,
    left_action_operator,
    map_from_images,
    markov_scenario,
    monotone_moment_formula,
    monotone_realize,
    normalized_trace_state,
    random_alternating_word,
    random_unital_cp,
    scalar_fiber,
    state_from_density,
    tensor_moment_formula,
    tensor_over_base,
    verify_positive_map,
    white_noise_increment_check,
    white_noise_scenario,
)
from ncprob.hilbert_module import apply_blocks
from ncprob.linalg import frob, random_density

P_CHAIN = np.array([[0.5, 0.5], [0.3, 0.7]])


def test_criterion_01_scalar_monotone_words():
    """200 seeded words, length <= 6, algebra dims <= 4, residual <= 1e-9, < 5 s."""
    start = time.monotonic()
    rng = np.random.default_rng(1)
    alg1 = full_matrix_algebra(2)
    alg2 = diagonal_algebra(4)
    s1 = QuantumProbabilitySpace(alg1, state_from_density(alg1, random_density(2, rng)))
    rho2 = np.diag(rng.uniform(0.1, 1.0, size=4)).astype(complex)
    s2 = QuantumProbabilitySpace(alg2, state_from_density(alg2, rho2 / np.trace(rho2).real))
    real = monotone_realize(s1, s2)

    worst = 0.0
    for _ in range(200):
        word = random_alternating_word(alg1, alg2, rng, 6)
        got = real.scalar_moment(word)
        want = monotone_moment_formula(word, s1.functional, s2.functional)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-9
    assert time.monotonic() - start < 5.0


def test_criterion_02_order_sensitivity():
    """Ordered pairs factor <= 1e-9; some reversed word breaks the symmetric guess by > 1e-3."""
    rng = np.random.default_rng(2)
    m2 = full_matrix_algebra(2)
    s1 = QuantumProbabilitySpace(m2, state_from_density(m2, random_density(2, rng)))
    s2 = QuantumProbabilitySpace(m2, state_from_density(m2, random_density(2, rng)))
    real = monotone_realize(s1, s2)

    def hermitian():
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return (h + h.conj().T).astype(complex)

    worst = 0.0
    for _ in range(50):
        f, g = hermitian(), hermitian()
        got = real.scalar_moment(AlternatingWord([(1, f), (2, g)]))
        split = complex(s1.functional.apply(f)[0, 0]) * complex(s2.functional.apply(g)[0, 0])
        worst = max(worst, abs(got - split))
    assert worst <= 1e-9

    witness = 0.0
    for _ in range(50):
        word = AlternatingWord([(2, hermitian()), (1, hermitian()), (2, hermitian())])
        got = real.scalar_moment(word)
        naive = tensor_moment_formula(word, s1.functional, s2.functional)
        witness = max(witness, abs(got - naive))
    assert witness > 1e-3


def test_criterion_03_coins_conditional_factorization():
    """All 16 indicator pairs <= 1e-12, insertion identity <= 1e-12, < 1 s."""
    start = time.monotonic()
    s1, s2, base = coins_game()
    product = conditional_tensor_realize(s1, s2)

    def indicator(k):
        m = np.zeros((4, 4), dtype=complex)
        m[k, k] = 1.0
        return m

    worst = 0.0
    for i in range(4):
        for j in range(4):
            f, g = indicator(i), indicator(j)
            joint = product.realization.moment(AlternatingWord([(1, f), (2, g)]))
            split = s1.functional.apply(f) @ s2.functional.apply(g)
            worst = max(worst, frob(joint - split))
            worst = max(worst, frob(joint - classical_coins_oracle(f, g)))
    assert worst <= 1e-12

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        f = np.diag(rng.uniform(-1, 1, size=4)).astype(complex)
        g = np.diag(rng.uniform(-1, 1, size=4)).astype(complex)
        h = base.combine(rng.uniform(-1, 1, size=2))
        via1 = product.realization.moment(AlternatingWord([(1, f @ h), (2, g)]))
        via2 = product.realization.moment(AlternatingWord([(1, f), (2, h @ g)]))
        worst = max(worst, frob(via1 - via2))
    assert worst <= 1e-12
    assert time.monotonic() - start < 1.0


def test_criterion_04_conditional_monotone_words():
    """Diagonal base in M2, 200 seeded words of length <= 5, <= 1e-9, < 10 s."""
    start = time.monotonic()
    rng = np.random.default_rng(4)
    m2 = full_matrix_algebra(2)
    comp = diagonal_compression(2, m2)
    base = comp.codomain
    joint = conditional_monotone_embed(gns_construct(comp), gns_construct(comp), m2, m2)

    worst = 0.0
    worst_member = 0.0
    for _ in range(200):
        word = random_alternating_word(m2, m2, rng, 5)
        got = joint.moment(word)
        want = conditional_monotone_moment_formula(word, comp, comp)
        worst = max(worst, frob(got - want))
        _, res = base.coords(want)
        worst_member = max(worst_member, res)
    assert worst <= 1e-9
    assert worst_member <= 1e-9
    assert time.monotonic() - start < 10.0


def test_criterion_05_gns_reproduces_the_map():
    """<xi, a xi> = map(a) on the domain basis for 10 verified maps, <= 1e-10."""
    rng = np.random.default_rng(5)
    m2 = full_matrix_algebra(2)
    maps = [
        identity_map(m2),
        normalized_trace_state(m2),
        diagonal_compression(2, m2),
        cp_from_stochastic(P_CHAIN),
        cp_from_stochastic(
            np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
        ),
    ]
    while len(maps) < 10:
        if len(maps) % 2 == 1:
            maps.append(random_unital_cp(2, rng))
        else:
            maps.append(state_from_density(m2, random_density(2, rng)))

    worst = 0.0
    for pmap in maps:
        assert pmap.domain.dim <= 8
        assert verify_positive_map(pmap).passed
        e = gns_construct(pmap, verify=False)
        xi = e.distinguished["unit"]
        for b in pmap.domain.basis:
            got = e.inner(xi, apply_blocks(e.left.blocks_of(b), xi))
            worst = max(worst, frob(got - pmap.apply(b)))
    assert worst <= 1e-10


def test_criterion_06_tensor_associativity():
    """Raw grams of both associations agree entrywise <= 1e-10, 10 seeded triples."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        e1, e2, e3 = (gns_construct(random_unital_cp(2, rng)) for _ in range(3))
        assert e1.base.dim <= 4
        left = tensor_over_base(tensor_over_base(e1, e2, reduce=False).module, e3, reduce=False)
        right = tensor_over_base(e1, tensor_over_base(e2, e3, reduce=False).module, reduce=False)
        worst = max(worst, float(np.abs(left.module.gram - right.module.gram).max()))
    assert worst <= 1e-10


def test_criterion_07_dilation_recovers_the_semigroup():
    """T^n(b) = <xi_n, b xi_n> for n <= 3, 10 random CP maps + the 2-state chain, < 10 s."""
    start = time.monotonic()
    rng = np.random.default_rng(7)
    maps = [cp_from_stochastic(P_CHAIN)] + [random_unital_cp(2, rng) for _ in range(10)]

    worst = 0.0
    for cp in maps:
        scenario = dilate_discrete(cp, 3)
        system = scenario.system
        for n in range(4):
            xi = system.units[n]
            e = system.powers[n]
            for b in cp.domain.basis:
                want = b
                for _ in range(n):
                    want = cp.apply(want)
                got = e.inner(xi, left_action_operator(e, b)(xi))
                worst = max(worst, frob(got - want))
    assert worst <= 1e-9
    assert time.monotonic() - start < 10.0


def test_criterion_08_markov_path_space_cross_check():
    """Path-space moments match module moments at horizon 3; shift <= 1e-10."""
    model = markov_scenario(P_CHAIN, horizon=3)
    report = model.verify(1e-9, seed=8, trials=25)
    by_name = {c.name: c.residual for c in report.checks}
    assert by_name["path-space-agreement"] <= 1e-9
    assert by_name["shift-preserves-inner-products"] <= 1e-10


def test_criterion_09_white_noise_increments():
    """Invariance <= 1e-9 and 100 seeded increment words <= 1e-9, both fibers, < 20 s."""
    start = time.monotonic()
    m2 = full_matrix_algebra(2)
    fibers = [central_unit_fiber(m2), scalar_fiber(2)]
    for base, fiber in fibers:
        scenario = white_noise_scenario(base, fiber, horizon=3)
        inc = white_noise_increment_check(scenario, 0, 1, 3, trials=100, seed=9, tol=1e-9)
        rows = {c.name: c for c in inc.checks}
        assert rows["invariance"].residual <= 1e-9
        assert rows["increment-factorization"].residual <= 1e-9
        assert rows["increment-factorization"].detail == "100 words"
    assert time.monotonic() - start < 20.0


def test_criterion_10_identity_map_gives_the_trivial_system():
    """T = id: every power has one generator and gram [[unit]], exactly."""
    m2 = full_matrix_algebra(2)
    scenario = dilate_discrete(identity_map(m2), 3)
    for n in range(4):
        e = scenario.system.powers[n]
        assert e.rank == 1
        assert np.array_equal(e.gram, m2.unit[None, None])


def test_criterion_11_reports_are_byte_deterministic():
    """`verify all --seed 7` twice produces byte-identical reports."""
    cmd = [sys.executable, "-m", "ncprob", "verify", "all", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"{")
