"""Stacks of samples evaluated as one computation against one sample at a time.

``JointRealization.moments``, the stacked moment formulas, the increment
words of ``white_noise_increment_check`` and the Markov observables of
``MarkovModel.verify`` each evaluate a stack with one product per letter
position (or per time and level).  Each must give what the per-sample path
gives: the moments bit for bit, the formulas to 1e-15 of their scale, and
the Markov operators to rounding.  The words mix lengths, repeat legs and
carry explicit unit letters, so that grouping two leg patterns together or
reading a letter at the wrong position shows.
"""

import numpy as np
import pytest

from ncprob.algebra_core import (
    StructuralError,
    diagonal_algebra,
    diagonal_compression,
    full_matrix_algebra,
    state_from_density,
)
from ncprob.dilation import (
    MarkovModel,
    _random_increment_words,
    _window_draws,
    central_unit_fiber,
    markov_scenario,
    scalar_fiber,
    white_noise_increment_check,
    white_noise_scenario,
)
from ncprob.hilbert_module import apply_blocks, gns_construct, require_base_commutant, vector_norm
from ncprob.independence import (
    AlternatingWord,
    QuantumProbabilitySpace,
    coins_game,
    conditional_monotone_embed,
    conditional_monotone_factorization,
    conditional_monotone_moment_formula,
    conditional_monotone_moment_formulas,
    conditional_tensor_realize,
    monotone_moment_formula,
    monotone_moment_formulas,
    monotone_realize,
    random_alternating_words,
    tensor_moment_formula,
    tensor_moment_formulas,
    tensor_realize,
)
from ncprob.linalg import block_matrix, frob, random_density, residual_max

# ---------------------------------------------------------------------------
# the samples


def _states(seed=11):
    rng = np.random.default_rng(seed)
    m2 = full_matrix_algebra(2)
    return [QuantumProbabilitySpace(m2, state_from_density(m2, random_density(2, rng))) for _ in range(2)]


def _words(algebra1, algebra2, seed, count=120, max_length=6):
    """Random words of mixed lengths with same-leg repeats, and a few fixed
    ones with explicit unit letters and runs on one leg."""
    rng = np.random.default_rng(seed)
    words = random_alternating_words(algebra1, algebra2, rng, count, max_length)
    a, b = words[0].letters[0][1], words[1].letters[0][1]
    one1, one2 = algebra1.unit, algebra2.unit
    words += [
        AlternatingWord([(1, a), (1, a), (2, b)]),
        AlternatingWord([(2, b), (1, one1), (2, b)]),
        AlternatingWord([(1, a), (2, one2), (2, b), (1, a)]),
        AlternatingWord([(2, b), (2, b), (2, b)]),
    ]
    assert {len(w) for w in words} >= set(range(1, max_length + 1))
    assert any(w.letters[k][0] == w.letters[k + 1][0] for w in words for k in range(len(w) - 1))
    return words


def _realization(kind):
    if kind in ("monotone", "tensor"):
        s1, s2 = _states()
        return (monotone_realize if kind == "monotone" else tensor_realize)(s1, s2)
    if kind == "conditional-monotone":
        m2 = full_matrix_algebra(2)
        comp = diagonal_compression(2, m2)
        return conditional_monotone_embed(gns_construct(comp), gns_construct(comp), m2, m2)
    s1, s2, _ = coins_game()
    return conditional_tensor_realize(s1, s2).realization


KINDS = ["monotone", "tensor", "conditional-monotone", "conditional-tensor"]

# ---------------------------------------------------------------------------
# word moments


@pytest.mark.parametrize("kind", KINDS)
def test_stacked_moments_equal_the_word_by_word_moments_bit_for_bit(kind):
    real = _realization(kind)
    words = _words(real.algebra1, real.algebra2, seed=KINDS.index(kind))
    got = real.moments(words)
    want = np.stack([real.moment(w) for w in words])
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_stacked_moments_of_no_words_and_of_one_word():
    real = _realization("monotone")
    assert real.moments([]).shape == (0, 1, 1)
    word = max(_words(real.algebra1, real.algebra2, seed=5), key=len)
    assert np.array_equal(real.moments([word])[0], real.moment(word))


def test_a_letter_read_at_the_wrong_position_shows():
    # a mutant that reads each word's letters one position off must not pass
    real = _realization("monotone")
    words = [w for w in _words(real.algebra1, real.algebra2, seed=3) if len(w) > 1]
    shifted = [AlternatingWord(w.letters[1:] + w.letters[:1]) for w in words]
    got = real.moments(words)
    assert np.max(np.abs(real.moments(shifted) - got)) > 1e-3


def test_a_stacked_letter_outside_its_algebra_is_named_from_the_end():
    alg = diagonal_algebra(2)
    space = QuantumProbabilitySpace(alg, state_from_density(alg, np.eye(2) / 2))
    real = monotone_realize(space, space)
    off = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    words = [AlternatingWord([(1, np.eye(2)), (2, np.eye(2))]), AlternatingWord([(2, off), (1, np.eye(2))])]
    with pytest.raises(StructuralError, match=r"letter -2 \(from the end\) is not in the algebra of leg 2"):
        real.moments(words)


# ---------------------------------------------------------------------------
# moment formulas


def _within_scale(got, want):
    scale = np.maximum(1.0, np.abs(want).reshape(len(want), -1).max(axis=1))
    gap = np.abs(got - want).reshape(len(want), -1).max(axis=1)
    return bool(np.all(gap <= 1e-15 * scale)), float(np.max(gap / scale))


@pytest.mark.parametrize("which", ["monotone", "tensor"])
def test_stacked_scalar_formulas_match_the_word_by_word_formulas(which):
    s1, s2 = _states(seed=12)
    words = _words(s1.algebra, s2.algebra, seed=4)
    single, stacked = {
        "monotone": (monotone_moment_formula, monotone_moment_formulas),
        "tensor": (tensor_moment_formula, tensor_moment_formulas),
    }[which]
    want = np.array([single(w, s1.functional, s2.functional) for w in words])
    got = stacked(words, s1.functional, s2.functional)
    ok, gap = _within_scale(got, want)
    assert got.shape == (len(words),) and ok, gap


@pytest.mark.parametrize("base", ["matrix", "scalar"])
def test_stacked_conditional_monotone_formula_matches_the_word_by_word_one(base):
    if base == "matrix":
        m2 = full_matrix_algebra(2)
        e1 = e2 = diagonal_compression(2, m2)
        a1 = a2 = m2
    else:
        a1 = a2 = diagonal_algebra(2)
        e1 = state_from_density(a1, np.diag([0.6, 0.4]))
        e2 = state_from_density(a2, np.diag([0.7, 0.3]))
    words = _words(a1, a2, seed=8, max_length=5)
    want = np.stack([conditional_monotone_moment_formula(w, e1, e2) for w in words])
    got = conditional_monotone_moment_formulas(words, e1, e2)
    ok, gap = _within_scale(got, want)
    assert got.shape == want.shape and ok, gap


def test_formulas_group_by_the_whole_normalized_leg_sequence():
    # words of one length but different legs must not share a factorization
    s1, s2 = _states(seed=13)
    words = _words(s1.algebra, s2.algebra, seed=9)
    by_length = {}
    for w in words:
        by_length.setdefault(len(w.normalized()), set()).add(w.normalized().label())
    assert any(len(labels) > 1 for labels in by_length.values())
    want = np.array([monotone_moment_formula(w, s1.functional, s2.functional) for w in words])
    assert _within_scale(monotone_moment_formulas(words, s1.functional, s2.functional), want)[0]


# ---------------------------------------------------------------------------
# maps and coordinates


def test_apply_many_is_apply_per_element_for_any_stack_size():
    s1, _ = _states(seed=14)
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(37, 2, 2)) + 1j * rng.normal(size=(37, 2, 2))
    for pmap in (s1.functional, diagonal_compression(2)):
        want = np.stack([pmap.apply(x) for x in xs])
        assert np.array_equal(pmap.apply_many(xs), want)
        for size in (1, 3, 7):
            parts = [pmap.apply_many(xs[i : i + size]) for i in range(0, len(xs), size)]
            assert np.array_equal(np.concatenate(parts), want)


@pytest.mark.parametrize("algebra", [diagonal_algebra(3), full_matrix_algebra(2)], ids=["diag3", "m2"])
def test_coords_many_residual_is_the_norm_along_columns(algebra):
    rng = np.random.default_rng(6)
    d = algebra.ambient_dim
    xs = rng.normal(size=(9, d, d)) + 1j * rng.normal(size=(9, d, d))
    c, res = algebra.coords_many(xs)
    flat = xs.reshape(len(xs), -1).T
    want = float(np.linalg.norm(algebra._stack @ c.T - flat, axis=0).max(initial=0.0))
    # M2 holds every finite matrix: its residual is exactly 0, not rounding
    assert res == (0.0 if algebra.spans_ambient else want)
    xs[4, 0, 0] = np.nan
    c, res = algebra.coords_many(xs)
    flat = xs.reshape(len(xs), -1).T
    want = np.linalg.norm(algebra._stack @ c.T - flat, axis=0)
    assert np.isnan(want[4]) and np.isnan(res)


# ---------------------------------------------------------------------------
# increment words


def _white_noise(label):
    if label == "m2-central-unit":
        return white_noise_scenario(*central_unit_fiber(full_matrix_algebra(2), 2), horizon=3)
    if label == "scalar-2dim":
        return white_noise_scenario(*scalar_fiber(2), horizon=3)
    return markov_scenario(np.array([[0.5, 0.5], [0.3, 0.7]]), horizon=3).scenario


def _per_word_increment_residuals(system, words, r, s, t):
    """The factorization residual of each word, one word at a time."""
    expect = system.expectation
    out = []
    for word_ops in words:
        letters = []
        for leg, blocks in word_ops:
            width, start = (t - s, s) if leg == 1 else (s - r, r)
            letters.append((leg, system.embed_window(blocks[None], width, start)[0]))
        word = letters[0][1]
        for _, x in letters[1:]:
            word = word @ x
        rhs = conditional_monotone_factorization(letters, expect, expect, system.left_embedding, system.base.unit)
        out.append(frob(expect(word) - rhs))
    return out


@pytest.mark.parametrize("label", ["m2-central-unit", "scalar-2dim", "stationary-chain"])
def test_stacked_increment_factorizations_equal_the_word_by_word_loop(label):
    scenario = _white_noise(label)
    system = scenario.system
    r, s, t, seed, trials = 0, 1, 3, 5, 40
    report = white_noise_increment_check(scenario, r, s, t, trials=trials, seed=seed)
    # the check's draws: the invariance operators, then the words
    rng = np.random.default_rng(seed)
    n_top = system.horizon
    _window_draws(system, [n_top - n for n in range(1, n_top) for _ in range(4)], rng)
    words = _random_increment_words(system, r, s, t, rng, trials, 6)
    want = residual_max(*_per_word_increment_residuals(system, words, r, s, t))
    got = {c.name: c for c in report.checks}["increment-factorization"].residual
    assert got == pytest.approx(want, rel=1e-6, abs=1e-15)


def test_stacked_factorization_of_flat_operators_equals_the_per_word_one():
    system = _white_noise("m2-central-unit").system
    rng = np.random.default_rng(4)
    words = [w for w in _random_increment_words(system, 0, 1, 3, rng, 60, 5) if len(w) == 4]
    assert len(words) > 3

    def flat(leg, blocks):
        width, start = (2, 1) if leg == 1 else (1, 0)
        return system.embed_window(blocks, width, start)

    for first in (1, 2):
        group = [w for w in words if w[0][0] == first]
        legs = [leg for leg, _ in group[0]]
        letters = [(leg, flat(leg, np.stack([w[p][1] for w in group]))) for p, leg in enumerate(legs)]
        expect = system.expectation
        stacked = conditional_monotone_factorization(
            letters, expect, expect, system.left_embedding, system.base.unit
        )
        for k in range(len(group)):
            one = [(leg, x[k]) for leg, x in letters]
            single = conditional_monotone_factorization(one, expect, expect, system.left_embedding, system.base.unit)
            assert np.array_equal(stacked[k], single)


def test_left_embedding_takes_one_element_or_a_stack():
    system = _white_noise("m2-central-unit").system
    rng = np.random.default_rng(1)
    bs = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    stacked = system.left_embedding(bs)
    assert stacked.shape[0] == 5
    for b, op in zip(bs, stacked):
        assert np.array_equal(system.left_embedding(b), op)


# ---------------------------------------------------------------------------
# Markov observables from the operators of the base's basis


CHAINS = {
    "zero-diagonal-3-state-h4": lambda: markov_scenario((np.ones((3, 3)) - np.eye(3)) / 2, 4),
    "2-state-h3": lambda: markov_scenario(np.array([[0.5, 0.5], [0.3, 0.7]]), 3),
}


@pytest.mark.parametrize("label", list(CHAINS))
def test_basis_operators_combine_to_the_process_operator(label):
    model = CHAINS[label]()
    system = model.system
    rng = np.random.default_rng(3)
    for level in range(1, system.horizon + 1):
        for time in range(1, level + 1):
            ops = np.stack(list(model._basis_operators(time, level)))
            assert ops.shape[0] == system.base.dim
            for _ in range(3):
                f = np.diag(rng.uniform(-1, 1, size=model.states)).astype(complex)
                c, _ = system.base.coords(f)
                want = block_matrix(model.process_operator(f, time, level))
                got = np.tensordot(c, ops, axes=1)
                assert frob(got - want) <= 1e-13 * max(1.0, frob(want)), (level, time)


@pytest.mark.parametrize("label", list(CHAINS))
def test_observed_vectors_equal_the_process_operator_applied(label):
    model = CHAINS[label]()
    system = model.system
    rng = np.random.default_rng(8)
    items = []
    # every (time, level) pair, with from one observable up to one more
    # than the base's basis has elements: both paths, shuffled together
    for level in range(1, system.horizon + 1):
        for time in range(level + 1):
            for _ in range(int(rng.integers(1, system.base.dim + 2))):
                f = np.diag(rng.uniform(-1, 1, size=model.states)).astype(complex)
                items.append((f, time, level, system.units[level] * rng.uniform(0.5, 1.5)))
    items = [items[j] for j in rng.permutation(len(items))]
    got = model._observe(items)
    for (f, time, level, x), v in zip(items, got):
        want = apply_blocks(model.process_operator(f, time, level), x)
        assert frob(v - want) <= 1e-13, (time, level)


def test_observing_keeps_the_per_observable_guards():
    base, fiber = central_unit_fiber(full_matrix_algebra(2), 2)
    model = MarkovModel(white_noise_scenario(base, fiber, horizon=3), np.eye(2))
    xi = model.system.units[3]
    central = 2.0 * np.eye(2, dtype=complex)
    off = np.diag([1.0, 2.0]).astype(complex)
    # a central observable passes on a slot; one that does not commute with
    # the base action raises, even next to central ones, whether its pair
    # holds fewer observables than the base's 4 basis elements or not
    (got,) = model._observe([(central, 1, 3, xi)])
    assert frob(got - apply_blocks(model.process_operator(central, 1), xi)) <= 1e-13
    for count in (1, 4):
        with pytest.raises(StructuralError, match="does not commute"):
            model._observe([(central, 2, 3, xi)] * count + [(off, 2, 3, xi)])
    # time 0 keeps its commutative-base guard
    with pytest.raises(StructuralError, match="commutative"):
        model._observe([(off, 0, 3, xi)])


def test_basis_operators_are_built_only_for_pairs_with_enough_observables(monkeypatch):
    model = CHAINS["zero-diagonal-3-state-h4"]()
    xi = model.system.units[4]
    built = []

    def counted(time, level):
        for op in MarkovModel._basis_operators(model, time, level):
            built.append((time, level))
            yield op

    monkeypatch.setattr(model, "_basis_operators", counted)
    f = np.diag([0.5, -0.2, 0.9]).astype(complex)
    # two observables at (2, 4) are fewer than the 3 basis elements: one
    # process operator each; three at (3, 4) build the 3 basis operators once
    model._observe([(f, 2, 4, xi)] * 2 + [(f, 3, 4, xi)] * 3)
    assert built == [(3, 4)] * 3


def test_require_base_commutant_decides_each_operator_of_a_stack():
    base, fiber = central_unit_fiber(full_matrix_algebra(2), 2)
    ops = fiber.left.operators(np.stack([np.eye(2), np.diag([1.0, 2.0])]).astype(complex))
    blocks = ops.reshape(2, 2, 2, 2, 2).swapaxes(-3, -2)
    require_base_commutant(fiber, blocks[0])
    with pytest.raises(StructuralError, match="does not commute"):
        require_base_commutant(fiber, blocks)
    with pytest.raises(StructuralError, match="does not commute"):
        require_base_commutant(fiber, blocks[1])


def test_stacked_markov_verify_matches_the_module_moments():
    model = CHAINS["2-state-h3"]()
    report = {c.name: c for c in model.verify(tol=1e-9, seed=2, trials=15).checks}
    rng = np.random.default_rng(2)
    n, s = model.system.horizon, model.states
    worst = 0.0
    for _ in range(15):
        count = int(rng.integers(1, 4))
        obs = [(np.diag(rng.uniform(-1, 1, size=s)).astype(complex), int(rng.integers(0, n + 1))) for _ in range(count)]
        worst = residual_max(worst, frob(model.path_moment(obs) - model.module_moment(obs)))
    assert report["path-space-agreement"].residual == pytest.approx(worst, abs=1e-15)


@pytest.mark.parametrize("label", list(CHAINS))
def test_shift_row_equals_the_per_sample_gluing(label, monkeypatch):
    # the observed vectors are perturbed inside the (diagonal) base, so that
    # the gaps are not zero and the row is the largest of many distinct
    # per-sample norms; the grouped extend and the stacked norm must give
    # the per-sample row bit for bit
    model = CHAINS[label]()
    system = model.system
    eye = np.eye(system.base.ambient_dim)
    rng = np.random.default_rng(5)
    calls = []

    def perturbed(items):
        out = [v + 1e-3 * rng.normal(size=v.shape[:-1])[..., None] * eye for v in MarkovModel._observe(model, items)]
        calls.append((items, out))
        return out

    monkeypatch.setattr(model, "_observe", perturbed)
    row = {c.name: c.residual for c in model.verify(seed=7, trials=40).checks}
    (u_items, us), (v_items, vs), _, (_, direct) = calls[-4:]
    n = system.horizon
    want = 0.0
    for ui, vi, u, v, d in zip(u_items, v_items, us, vs, direct):
        glued = system.identify(ui[2], vi[2], u, v)
        want = residual_max(want, vector_norm(system.powers[n], glued - d))
    assert want > 1e-4
    assert row["shift-preserves-inner-products"] == want
