"""Wire-format round trips and schema rejection with exact pointers."""

import ast
import pathlib

import numpy as np
import pytest

from ncprob import (
    AlternatingWord,
    MapKind,
    SchemaError,
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
    from ncprob import StructuralError

    with pytest.raises(StructuralError, match="complex"):
        emit_json(1 + 2j)
    with pytest.raises(StructuralError, match="keys"):
        emit_json({1: "no"})
    with pytest.raises(StructuralError, match="non-finite"):
        emit_json(float("nan"))


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


# ---------------------------------------------------------------------------
# dependencies


def test_serialization_imports_only_the_algebra_and_independence_modules():
    # the wire formats are algebras, maps, words, spaces and independence
    # scenarios; no import, at module level or inside a function, reaches a
    # module, dilation or other package module
    tree = ast.parse(pathlib.Path(serialization.__file__).read_text(encoding="utf-8"))
    package = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert package == {"algebra_core", "independence"}
