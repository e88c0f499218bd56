"""Wire-format round trips and schema rejection with exact pointers."""

import ast
import gc
import json
import pathlib

import numpy as np
import pytest

from ncprob import (
    AlternatingWord,
    MapKind,
    SchemaError,
    StructuralError,
    algebra_from_json,
    algebra_to_json,
    diagonal_algebra,
    diagonal_compression,
    emit_json,
    full_matrix_algebra,
    independence_scenario_from_json,
    load_json_file,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    pauli_algebra,
    state_from_density,
    word_from_json,
    word_to_json,
    words_from_json,
)
from ncprob import serialization
from ncprob.linalg import frob


# ---------------------------------------------------------------------------
# deterministic emission


def test_emit_json_is_deterministic_and_17_digits():
    doc = {"x": 1 / 3, "y": [1.0, 2.5e-17], "z": {"nested": True, "n": 7}}
    a = emit_json(doc)
    b = emit_json(doc)
    assert a == b
    assert "0.33333333333333331" in a
    assert "2.4999999999999999e-17" in a


def test_emit_json_normalizes_negative_zero():
    assert emit_json(-0.0) == "0"
    assert emit_json([-0.0, 0.0]) == "[0, 0]"


def test_emit_json_rejects_what_it_cannot_make_deterministic():
    with pytest.raises(StructuralError, match="complex"):
        emit_json(1 + 2j)
    with pytest.raises(StructuralError, match="keys"):
        emit_json({1: "no"})
    with pytest.raises(StructuralError, match="non-finite"):
        emit_json(float("nan"))


@pytest.mark.parametrize("x", [-0.0, 0.0, 5e-324, 1e-300, 1e308, -1.2345678901234567e-30, 0.1])
def test_an_re_im_pair_has_the_bytes_of_format(x):
    want = "0" if x == 0.0 else format(x, ".17g")
    assert len(want) < 24
    assert emit_json([x, 1.0]) == f"[{want}, 1]"
    assert emit_json([1.0, x]) == f"[1, {want}]"


@pytest.mark.parametrize("x", [-1.2345678901234567e-300, -5e-324])
def test_an_re_im_pair_with_a_24_character_member_is_a_block(x):
    text = format(x, ".17g")
    assert len(text) == 24
    assert emit_json([1.0, x], 1) == f"[\n    1,\n    {text}\n  ]"
    assert emit_json([x, -0.0]) == f"[\n  {text},\n  0\n]"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("at", [0, 1])
def test_an_re_im_pair_with_a_non_finite_member_is_refused(bad, at):
    pair = [0.5, 0.5]
    pair[at] = bad
    with pytest.raises(StructuralError, match=f"non-finite number: {bad}"):
        emit_json({"m": [[pair]]})


def test_emit_json_inlines_short_lists_only():
    short = emit_json([1, 2, 3])
    assert short == "[1, 2, 3]"
    long = emit_json(list(range(100)))
    assert "\n" in long


# ---------------------------------------------------------------------------
# matrices


def test_matrix_round_trip():
    m = np.array([[1 + 2j, 0.5], [-1j, 3.25]])
    again = matrix_from_json(matrix_to_json(m))
    assert frob(again - m) == 0.0


def test_ragged_matrix_reports_the_offending_row():
    with pytest.raises(SchemaError) as err:
        matrix_from_json([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], "/m")
    assert err.value.pointer == "/m/1"
    assert "ragged" in err.value.reason


def test_matrix_entries_must_be_pairs():
    with pytest.raises(SchemaError) as err:
        matrix_from_json([[[1.0, 0.0, 0.0]]], "/m")
    assert err.value.pointer == "/m/0/0"


def test_empty_matrix_rejected():
    with pytest.raises(SchemaError):
        matrix_from_json([], "/m")


# ---------------------------------------------------------------------------
# algebras and maps


def test_algebra_round_trip_pauli():
    alg = pauli_algebra()
    again = algebra_from_json(algebra_to_json(alg))
    assert again.same_basis(alg)
    assert frob(again.unit - alg.unit) == 0.0


def test_algebra_dependent_basis_points_at_basis():
    e00 = matrix_to_json(np.array([[1.0, 0.0], [0.0, 0.0]]))
    e00_doubled = matrix_to_json(np.array([[2.0, 0.0], [0.0, 0.0]]))
    bad = {"ambient_dim": 2, "basis": [e00, e00_doubled], "unit": None}
    with pytest.raises(SchemaError) as err:
        algebra_from_json(bad, "/algebra")
    assert err.value.pointer == "/algebra/basis"
    assert "linearly dependent" in err.value.reason


def test_map_round_trip_keeps_kind_and_values():
    m2 = full_matrix_algebra(2)
    comp = diagonal_compression(2, m2)
    doc = map_to_json(comp)
    again = map_from_json(doc, comp.domain, comp.codomain)
    assert again.kind is MapKind.CONDITIONAL_EXPECTATION
    assert frob(again.matrix - comp.matrix) == 0.0


def test_map_unknown_kind_and_wrong_shape():
    m2 = full_matrix_algebra(2)
    comp = diagonal_compression(2, m2)
    doc = map_to_json(comp)

    doc_bad = dict(doc, kind="oracle")
    with pytest.raises(SchemaError) as err:
        map_from_json(doc_bad, comp.domain, comp.codomain, "/f")
    assert err.value.pointer == "/f/kind"

    with pytest.raises(SchemaError) as err:
        map_from_json(doc, comp.domain, comp.domain, "/f")
    assert err.value.pointer == "/f/matrix"


# ---------------------------------------------------------------------------
# words


def test_word_round_trip():
    x = np.diag([1.0, -1.0]).astype(complex)
    word = AlternatingWord([(1, x), (2, np.eye(2, dtype=complex)), (1, x)])
    again = word_from_json(word_to_json(word))
    assert len(again) == 3
    for (leg_a, mat_a), (leg_b, mat_b) in zip(again.letters, word.letters):
        assert leg_a == leg_b
        assert frob(mat_a - mat_b) == 0.0


def test_word_bad_leg_points_at_leg():
    doc = {"letters": [{"leg": 3, "element": matrix_to_json(np.eye(2))}]}
    with pytest.raises(SchemaError) as err:
        word_from_json(doc, "/words/0")
    assert err.value.pointer == "/words/0/letters/0/leg"


def test_words_document_needs_words_field():
    with pytest.raises(SchemaError) as err:
        words_from_json({"terms": []})
    assert err.value.pointer == "/words"


def _walked(nodes):
    return serialization._walk_words(nodes, (f"/words/{i}" for i in range(len(nodes))))


def _letter_bits(words):
    return [
        (leg, m.tobytes(), m.dtype, m.shape, m.flags.c_contiguous) for word in words for leg, m in word.letters
    ]


def _random_words_doc(sizes, seed, ints=False):
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(60):
        letters = []
        for t in range(int(rng.integers(0, 6))):
            d = int(rng.choice(sizes))
            m = rng.normal(size=(d, d, 2)) * 1e3
            letters.append({"leg": 1 + t % 2, "element": (m.round() if ints else m).tolist()})
        words.append({"letters": letters})
    text = json.dumps({"words": words})
    if ints:
        text = text.replace(".0,", ",").replace(".0]", "]")
    return json.loads(text)


@pytest.mark.parametrize(
    "sizes, ints", [((2,), False), ((2, 3), False), ((2,), True), ((1, 2, 3), True)],
    ids=["2x2", "2x2-and-3x3", "ints", "ints-of-three-sizes"],
)
def test_the_bulk_decode_has_the_walkers_bits(sizes, ints):
    doc = _random_words_doc(sizes, 11, ints)
    nodes = doc["words"]
    numbers = {type(v) for w in nodes for e in w["letters"] for row in e["element"] for c in row for v in c}
    assert numbers == ({int} if ints else {float})
    bulk = serialization._bulk_words(nodes)
    assert bulk is not None  # the bulk check passed: the walker was not its fallback
    assert _letter_bits(bulk) == _letter_bits(_walked(nodes)) == _letter_bits(words_from_json(doc))
    assert {m.shape[0] for word in bulk for _, m in word.letters} == set(sizes)


def test_a_well_formed_words_file_is_not_walked(monkeypatch):
    doc = _random_words_doc((2, 3), 5)

    def walk(nodes, pointers):
        raise AssertionError("the walker ran on a well-formed document")

    monkeypatch.setattr(serialization, "_walk_words", walk)
    assert len(words_from_json(doc)) == 60


# each bad letter replaces the second letter of the second word; the
# reasons and pointers are those of the per-field walker, the parent's
# decoder, except the out-of-range cell, which that decoder read as inf
_BAD_LETTER_TEXT = {
    "bool leg": ('{"leg": true, "element": [[[1.0, 0.0]]]}', "expected leg (an integer), got bool", "/leg"),
    "leg 3": ('{"leg": 3, "element": [[[1.0, 0.0]]]}', "leg must be 1 or 2, got 3", "/leg"),
    "missing element": ('{"leg": 1}', "missing required field 'element'", "/element"),
    "empty element": ('{"leg": 1, "element": []}', "matrix has no rows", "/element"),
    "non-list row": (
        '{"leg": 1, "element": [[[1.0, 0.0], [0.0, 0.0]], "row"]}', "expected a matrix row, got str", "/element/1"
    ),
    "ragged row": (
        '{"leg": 1, "element": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}',
        "ragged matrix: row has 1 entries, expected 2",
        "/element/1",
    ),
    "ragged rows of the right count": (
        '{"leg": 1, "element": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}',
        "ragged matrix: row has 1 entries, expected 3",
        "/element/1",
    ),
    "3-number cell": ('{"leg": 1, "element": [[[1.0, 0.0, 0.0]]]}', "expected a [re, im] pair of numbers", "/element/0/0"),
    "string cell": ('{"leg": 1, "element": [[["1", 0.0]]]}', "expected a [re, im] pair of numbers", "/element/0/0"),
    "bool cell": ('{"leg": 1, "element": [[[true, 0.0]]]}', "expected a [re, im] pair of numbers", "/element/0/0"),
    "1e309 cell": (
        '{"leg": 2, "element": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1e309]]]}',
        "expected a [re, im] pair of finite numbers",
        "/element/1/1",
    ),
    "int cell beyond the float range": (
        '{"leg": 2, "element": [[[1.0, %s]]]}' % (10**400),
        "expected a [re, im] pair of finite numbers",
        "/element/0/0",
    ),
}


def _doc_with(bad_letters):
    """A words document of three 2x2 words with ``bad_letters`` as {(word,
    letter): letter text}, parsed from its text as a file would be."""
    eye = json.dumps(matrix_to_json(np.eye(2)))
    words = [[f'{{"leg": {1 + t % 2}, "element": {eye}}}' for t in range(3)] for _ in range(3)]
    for (w, t), text in bad_letters.items():
        words[w][t] = text
    return json.loads('{"words": [%s]}' % ", ".join('{"letters": [%s]}' % ", ".join(w) for w in words))


@pytest.mark.parametrize("case", sorted(_BAD_LETTER_TEXT))
def test_a_bad_letter_gives_the_walkers_reason_and_pointer(case):
    text, reason, tail = _BAD_LETTER_TEXT[case]
    with pytest.raises(SchemaError) as err:
        words_from_json(_doc_with({(1, 1): text}))
    assert (err.value.reason, err.value.pointer) == (reason, "/words/1/letters/1" + tail)


def test_of_two_bad_letters_the_earlier_in_the_file_is_reported():
    later, _, _ = _BAD_LETTER_TEXT["bool leg"]
    earlier, reason, tail = _BAD_LETTER_TEXT["1e309 cell"]
    with pytest.raises(SchemaError) as err:
        words_from_json(_doc_with({(2, 0): later, (1, 2): earlier}))
    assert (err.value.reason, err.value.pointer) == (reason, "/words/1/letters/2" + tail)


_PYTHON_BUILT_LETTERS = {
    "tuple row": ([[[1.0, 0.0], [0.0, 0.0]], ([0.0, 0.0], [1.0, 0.0])], "expected a matrix row, got tuple", "/1"),
    "tuple cell": ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], (1.0, 0.0)]], "expected a [re, im] pair of numbers", "/1/1"),
    "numpy int": ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [np.int64(1), 0.0]]], "expected a [re, im] pair of numbers", "/1/1"),
}


@pytest.mark.parametrize("case", sorted(_PYTHON_BUILT_LETTERS))
def test_a_python_built_letter_the_walker_refuses_is_refused(case):
    # a document built in Python may hold tuples, which no parse makes and
    # which hold the right count of numbers: the bulk check tests types
    element, reason, tail = _PYTHON_BUILT_LETTERS[case]
    doc = _doc_with({})
    doc["words"][1]["letters"][1]["element"] = element
    with pytest.raises(SchemaError) as err:
        words_from_json(doc)
    assert (err.value.reason, err.value.pointer) == (reason, "/words/1/letters/1/element" + tail)


def test_a_python_built_letter_of_numpy_floats_has_the_bits_of_floats():
    doc = _doc_with({})
    floats = [[[0.5, -0.0], [2.0**-1074, 0.1]], [[1e300, 1.0], [3.0, -7.25]]]
    doc["words"][1]["letters"][1]["element"] = [[[np.float64(v) for v in c] for c in row] for row in floats]
    got = words_from_json(doc)[1].letters[1][1]
    doc["words"][1]["letters"][1]["element"] = floats
    want = words_from_json(doc)[1].letters[1][1]
    assert got.tobytes() == want.tobytes() and got.flags.c_contiguous


def test_a_non_finite_map_entry_is_refused_at_its_pointer():
    m2 = full_matrix_algebra(2)
    doc = map_to_json(state_from_density(m2, np.eye(2) / 2))
    doc["matrix"][0][2] = [float("inf"), 0.0]  # what 1e309 parses to
    with pytest.raises(SchemaError) as err:
        map_from_json(doc, m2, serialization.scalar_algebra(), "/space1/functional")
    assert err.value.pointer == "/space1/functional/matrix/0/2"
    assert err.value.reason == "expected a [re, im] pair of finite numbers"


# ---------------------------------------------------------------------------
# scenarios


def _monotone_scenario_doc():
    alg = diagonal_algebra(2)
    s1 = state_from_density(alg, np.diag([0.5, 0.5]).astype(complex))
    s2 = state_from_density(alg, np.diag([0.7, 0.3]).astype(complex))
    x = np.diag([1.0, -1.0]).astype(complex)
    return {
        "construction": "monotone",
        "space1": {"algebra": algebra_to_json(alg), "functional": map_to_json(s1)},
        "space2": {"algebra": algebra_to_json(alg), "functional": map_to_json(s2)},
        "words": [word_to_json(AlternatingWord([(1, x), (2, x), (1, x)]))],
    }


def test_independence_scenario_happy_path():
    sc = independence_scenario_from_json(_monotone_scenario_doc())
    assert sc["construction"] == "monotone"
    assert sc["space1"].functional.is_unital
    assert len(sc["words"]) == 1
    assert sc["base"] is None


def test_independence_scenario_unknown_construction():
    doc = dict(_monotone_scenario_doc(), construction="free")
    with pytest.raises(SchemaError) as err:
        independence_scenario_from_json(doc)
    assert err.value.pointer == "/construction"


def test_conditional_monotone_scenario_requires_base():
    doc = dict(_monotone_scenario_doc(), construction="conditional-monotone")
    with pytest.raises(SchemaError) as err:
        independence_scenario_from_json(doc)
    assert err.value.pointer == "/base"


# ---------------------------------------------------------------------------
# files


def test_load_json_file_errors(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        load_json_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_json_file(str(bad))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_load_json_file_rejects_non_finite_literals(tmp_path, literal):
    path = tmp_path / "doc.json"
    path.write_text('{"words": [{"letters": [{"leg": 1, "element": [[[%s, 0]]]}]}]}' % literal)
    with pytest.raises(SchemaError, match=f"non-finite number {literal}") as err:
        load_json_file(str(path))
    assert err.value.pointer == "/words/0/letters/0/element/0/0/0"


def test_load_json_file_reads_an_out_of_range_literal_as_inf(tmp_path):
    # no parse hook sees 1e309: the matrix decoders refuse it, at its cell
    path = tmp_path / "words.json"
    path.write_text('{"words": [{"letters": [{"leg": 1, "element": [[[1e309, 0]]]}]}]}')
    doc = load_json_file(str(path))
    assert doc["words"][0]["letters"][0]["element"] == [[[float("inf"), 0]]]
    with pytest.raises(SchemaError) as err:
        words_from_json(doc)
    assert err.value.pointer == "/words/0/letters/0/element/0/0"


@pytest.mark.parametrize("enabled", [True, False])
def test_load_json_file_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"words": []}')
    bad.write_text("{not json")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert load_json_file(str(good)) == {"words": []}
        assert gc.isenabled() is enabled
        for path in (bad, tmp_path / "missing.json"):
            with pytest.raises(SchemaError):
                load_json_file(str(path))
            assert gc.isenabled() is enabled
        assert words_from_json({"words": []}) == []
        assert gc.isenabled() is enabled
        with pytest.raises(SchemaError):
            words_from_json({"words": [{"letters": [{"leg": 3, "element": [[[1.0, 0.0]]]}]}]})
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# ---------------------------------------------------------------------------
# dependencies


def test_serialization_imports_only_the_algebra_and_independence_modules():
    # the wire formats are algebras, maps, words, spaces and independence
    # scenarios; no import, at module level or inside a function, reaches a
    # module, dilation or other package module
    tree = ast.parse(pathlib.Path(serialization.__file__).read_text(encoding="utf-8"))
    package = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert package == {"algebra_core", "independence"}
