"""The emitter and the matrix codec against their per-value originals.

``reference_emit_json``, ``reference_matrix_from_json``,
``reference_matrix_to_json`` and ``reference_complex_to_json`` are the
recursive emitter, the per-cell decoder and encoder and the numpy-call
scalar encoder the package used before its single-dispatch emitter,
array-built matrix codec and ``complex``-based scalar encoder;
``reference_word_from_json`` is the word decoder that built one array per
letter, before a words list shared one array per letter size.  They stay
here as the references: the package's versions must give the same bytes,
the same bits and the same errors (message, reason and pointer).
"""

import collections
import enum
import json

import numpy as np
import pytest

from ncprob import cli
from ncprob import (
    SchemaError,
    StructuralError,
    algebra_to_json,
    diagonal_compression,
    emit_json,
    full_matrix_algebra,
    independence_scenario_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    random_alternating_word,
    state_from_density,
    word_from_json,
    word_to_json,
    words_from_json,
)
from ncprob.linalg import random_density
from ncprob.serialization import complex_to_json

# ---------------------------------------------------------------------------
# the references


def _reference_fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise StructuralError(f"refusing to serialize a non-finite number: {x}")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(float(x), ".17g")


def reference_emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, complex):
        raise StructuralError("complex values must be encoded as [re, im] pairs first")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [reference_emit_json(v, indent + 1) for v in obj]
        if all("\n" not in it and len(it) < 24 for it in items) and sum(map(len, items)) < 72:
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise StructuralError(f"JSON object keys must be strings, got {key!r}")
            parts.append(inner + json.dumps(key) + ": " + reference_emit_json(value, indent + 1))
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise StructuralError(f"cannot serialize object of type {type(obj).__name__}")


def _reference_complex_from_json(node, pointer: str) -> complex:
    if (
        not isinstance(node, list)
        or len(node) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in node)
    ):
        raise SchemaError("expected a [re, im] pair of numbers", pointer)
    return complex(node[0], node[1])


def reference_matrix_from_json(node, pointer: str = "") -> np.ndarray:
    if not isinstance(node, list):
        raise SchemaError(f"expected a matrix (list of rows), got {type(node).__name__}", pointer)
    if not node:
        raise SchemaError("matrix has no rows", pointer)
    width = None
    out = []
    for i, row in enumerate(node):
        if not isinstance(row, list):
            raise SchemaError(f"expected a matrix row, got {type(row).__name__}", f"{pointer}/{i}")
        if width is None:
            width = len(row)
            if width == 0:
                raise SchemaError("matrix row is empty", f"{pointer}/{i}")
        elif len(row) != width:
            raise SchemaError(
                f"ragged matrix: row has {len(row)} entries, expected {width}",
                f"{pointer}/{i}",
            )
        out.append([_reference_complex_from_json(c, f"{pointer}/{i}/{j}") for j, c in enumerate(row)])
    return np.array(out, dtype=complex)


def reference_word_from_json(node, pointer: str = ""):
    """The (leg, matrix) letters of a word object, one array per letter."""
    if not isinstance(node, dict):
        raise SchemaError(f"expected a word object, got {type(node).__name__}", pointer)
    if "letters" not in node:
        raise SchemaError("missing required field 'letters'", f"{pointer}/letters")
    if not isinstance(node["letters"], list):
        raise SchemaError(f"expected a letter list, got {type(node['letters']).__name__}", f"{pointer}/letters")
    letters = []
    for i, entry in enumerate(node["letters"]):
        lp = f"{pointer}/letters/{i}"
        if not isinstance(entry, dict):
            raise SchemaError(f"expected a letter object, got {type(entry).__name__}", lp)
        if "leg" not in entry:
            raise SchemaError("missing required field 'leg'", f"{lp}/leg")
        leg = entry["leg"]
        if isinstance(leg, bool) or not isinstance(leg, int):
            raise SchemaError(f"expected leg (an integer), got {type(leg).__name__}", f"{lp}/leg")
        if leg not in (1, 2):
            raise SchemaError(f"leg must be 1 or 2, got {leg}", f"{lp}/leg")
        if "element" not in entry:
            raise SchemaError("missing required field 'element'", f"{lp}/element")
        m = reference_matrix_from_json(entry["element"], f"{lp}/element")
        if m.shape[0] != m.shape[1]:
            raise SchemaError(f"expected a square matrix, got shape {m.shape}", f"{lp}/element")
        letters.append((leg, m))
    return letters


def reference_matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    return [
        [[float(np.real(m[i, j])), float(np.imag(m[i, j]))] for j in range(m.shape[1])]
        for i in range(m.shape[0])
    ]


def reference_complex_to_json(z):
    return [float(np.real(z)), float(np.imag(z))]


# ---------------------------------------------------------------------------
# emission: the reports the CLI writes


def _words_doc(n, seed):
    rng = np.random.default_rng(seed)
    m2 = full_matrix_algebra(2)
    return {"words": [word_to_json(random_alternating_word(m2, m2, rng, 6)) for _ in range(n)]}


def _scenario_docs(seed):
    rng = np.random.default_rng(seed)
    m2 = full_matrix_algebra(2)
    m2_json = algebra_to_json(m2)
    states = [state_from_density(m2, random_density(2, rng)) for _ in range(2)]
    comp = diagonal_compression(2, m2)

    def space(functional):
        return {"algebra": m2_json, "functional": map_to_json(functional)}

    return {
        "monotone": {"construction": "monotone", "space1": space(states[0]), "space2": space(states[1])},
        "tensor": {"construction": "tensor", "space1": space(states[0]), "space2": space(states[1])},
        "conditional-monotone": {
            "construction": "conditional-monotone",
            "base": algebra_to_json(comp.codomain),
            "space1": space(comp),
            "space2": space(comp),
        },
    }


def _cli_reports(tmp_path, monkeypatch):
    """Every report object the CLI hands to emit_json, by command."""
    words = tmp_path / "words.json"
    words.write_text(reference_emit_json(_words_doc(60, 7)) + "\n")
    commands = {"verify all": ["verify", "all", "--seed", "7"]}
    for name, doc in _scenario_docs(7).items():
        path = tmp_path / f"{name}.json"
        path.write_text(reference_emit_json(doc) + "\n")
        commands[f"moments {name}"] = ["moments", str(path), str(words), "--seed", "7"]
    for demo in cli.DEMO_NAMES:
        commands[f"demo {demo}"] = ["demo", demo, "--seed", "7"]

    seen = {}
    for label, argv in commands.items():
        captured = []

        def recording(obj, indent=0, captured=captured):
            captured.append(obj)
            return emit_json(obj, indent)

        monkeypatch.setattr(cli, "emit_json", recording)
        assert cli.main([*argv, "--out", str(tmp_path / "report.json")]) == 0, label
        [seen[label]] = captured
    return seen


def test_cli_reports_emit_as_the_reference_does(tmp_path, monkeypatch):
    reports = _cli_reports(tmp_path, monkeypatch)
    assert len(reports) == 1 + 3 + len(cli.DEMO_NAMES)
    for label, report in reports.items():
        assert emit_json(report) == reference_emit_json(report), label


# ---------------------------------------------------------------------------
# emission: edge cases


class _Kind(str, enum.Enum):
    STATE = "state"


class _Count(enum.IntEnum):
    TWO = 2


def _string_of(width):
    # a JSON string literal of exactly ``width`` characters, quotes included
    return "s" * (width - 2)


_EDGE_CASES = {
    "negative zero": [-0.0, [-0.0, 0.0], {"z": -0.0}],
    "numpy scalars": [np.float32(0.1), np.float64(1 / 3), np.int64(-7), np.float32(-0.0), np.uint8(255)],
    "bool is not int": [True, 1, False, 0, [True, 1, 1.0]],
    "tuples": (1, (2.5, "x"), [(), ("a",)]),
    "empty and nested": {"l": [], "d": {}, "ll": [[]], "dd": {"e": {}}, "n": [[[1]], [[{"k": None}]]]},
    "non-ascii strings and keys": {"é": "日本", " ": "\x01\t\"\\", "😀": ["ß", "퟿"]},
    "item of 23 chars": [_string_of(23)],
    "item of 24 chars": [_string_of(24)],
    "items summing to 71": [_string_of(18), _string_of(18), _string_of(18), _string_of(17)],
    "items summing to 72": [_string_of(18), _string_of(18), _string_of(18), _string_of(18)],
    "a 24-char float": [-1.2345678901234567e-300, 1.0],
    "[re, im] pairs": [
        [-1.2345678901234567e-30, -1.2345678901234567e-30],
        [1.0, -1.2345678901234567e-300],
        [-0.0, 2.5],
        [np.float64(0.5), 1.0],
        [1.0, 2],
        (0.25, -0.25),
    ],
    "subclasses": collections.OrderedDict(
        [("kind", _Kind.STATE), ("count", _Count.TWO), (_Kind.STATE, np.str_("np"))]
    ),
    "a multi-line item under 24 chars": [{"a": 1}],
    "large ints": [2**53 + 1, -(2**70), 10**30],
    "top-level scalars": "just a string",
}


@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
@pytest.mark.parametrize("indent", [0, 3])
def test_edge_cases_emit_as_the_reference_does(case, indent):
    obj = _EDGE_CASES[case]
    assert emit_json(obj, indent) == reference_emit_json(obj, indent)


def test_the_inline_thresholds_are_strict():
    # guards the parity cases above against testing nothing
    assert "\n" not in emit_json(_EDGE_CASES["item of 23 chars"])
    assert "\n" in emit_json(_EDGE_CASES["item of 24 chars"])
    assert "\n" not in emit_json(_EDGE_CASES["items summing to 71"])
    assert "\n" in emit_json(_EDGE_CASES["items summing to 72"])
    assert len(emit_json(-1.2345678901234567e-300)) == 24
    assert "\n" not in emit_json([-1.2345678901234567e-30, -1.2345678901234567e-30])
    assert "\n" in emit_json([1.0, -1.2345678901234567e-300])


_REJECTED = {
    "nan": float("nan"),
    "inf": [1.0, float("inf")],
    "nan in a pair": [[float("nan"), 1.0]],
    "numpy -inf": {"x": np.float64("-inf")},
    "complex": [1 + 2j],
    "numpy complex": np.complex128(1j),
    "non-string key": {1: "no"},
    "numpy bool": [np.bool_(True)],
    "set": {"s": {1, 2}},
    "array": np.zeros(2),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_rejections_raise_as_the_reference_does(case):
    obj = _REJECTED[case]
    with pytest.raises(StructuralError) as want:
        reference_emit_json(obj)
    with pytest.raises(StructuralError) as got:
        emit_json(obj)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# matrix decode


def _bits(m):
    return np.asarray(m, dtype=complex).view(np.uint64).tolist()


_CELLS = [
    [-0.0, 0.0],
    [0.0, -0.0],
    [-0.0, -0.0],
    [1, -2],
    [2**53 + 1, -(2**53 + 1)],
    [2**63 + 1, 2**64 + 5],
    [1e308, -1e308],
    [5e-324, 0.1],
    [1, 0.5],
]


def test_decoded_cells_have_the_bits_of_complex():
    doc = [_CELLS[:3], _CELLS[3:6], _CELLS[6:]]
    got = matrix_from_json(json.loads(json.dumps(doc)))
    want = [[complex(re, im) for re, im in row] for row in doc]
    assert got.shape == (3, 3) and got.dtype == complex
    # its own buffer: a view would keep the float pairs and a second array
    # object alive for every decoded letter
    assert got.flags.owndata
    assert _bits(got) == _bits(want)
    assert _bits(got) == _bits(reference_matrix_from_json(doc))


def test_decoded_numpy_scalars_are_accepted():
    # documents built in Python may hold numpy floats (a float subclass)
    doc = [[[np.float64(0.5), np.float64(-0.0)], [1, np.float64(2**53 + 1)]]]
    got = matrix_from_json(doc)
    assert _bits(got) == _bits(reference_matrix_from_json(doc))
    assert _bits(got) == _bits([[complex(0.5, -0.0), complex(1, 2**53 + 1)]])
    # the decoder reads the node and never rewrites it
    assert [[[type(v) for v in c] for c in row] for row in doc] == [
        [[np.float64, np.float64], [int, np.float64]]
    ]


_BAD_MATRICES = {
    "bool cell": [[[1.0, 0.0], [True, 0.0]]],
    "string cell": [[[1.0, 0.0]], [["1", 0.0]]],
    "one-element pair": [[[1.0]]],
    "three-element pair": [[[1.0, 0.0, 0.0]]],
    "non-list cell": [[[1.0, 0.0], 2.0]],
    "tuple cell": [[(1.0, 0.0)]],
    "numpy int cell": [[[np.int64(1), 0.0]]],
    "non-list row": [[[1.0, 0.0]], "row"],
    "ragged row": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
    "empty row": [[]],
    "empty row after a full one": [[[1.0, 0.0]], []],
    "empty matrix": [],
    "non-list matrix": {"rows": []},
    "bad cell before a ragged row": [[[1.0, 0.0], [None, 0.0]], [[0.0, 0.0]]],
}


@pytest.mark.parametrize("case", sorted(_BAD_MATRICES))
@pytest.mark.parametrize("pointer", ["", "/words/3/letters/0/element"])
def test_bad_matrices_raise_as_the_reference_does(case, pointer):
    node = _BAD_MATRICES[case]
    with pytest.raises(SchemaError) as want:
        reference_matrix_from_json(node, pointer)
    with pytest.raises(SchemaError) as got:
        matrix_from_json(node, pointer)
    assert (got.value.reason, got.value.pointer) == (want.value.reason, want.value.pointer)
    assert str(got.value) == str(want.value)


def test_encoded_matrices_have_the_reference_bits():
    rng = np.random.default_rng(3)
    special = np.array([[-0.0, complex(0.0, -0.0)], [1e308, complex(-5e-324, 2**53 + 1)]])
    cases = [
        special,
        rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)),
        (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))).T,  # not C-contiguous
        rng.normal(size=(2, 2)),  # real
        [[1, 2j]],
    ]
    for m in cases:
        got = matrix_to_json(m)
        want = reference_matrix_to_json(m)
        assert got == want
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
        assert all(type(v) is float for row in got for cell in row for v in cell)


@pytest.mark.parametrize(
    "z",
    [complex(-0.0, 2**53 + 1), np.complex128(complex(5e-324, -0.0)), 7, -0.0],
    ids=["complex", "complex128", "int", "float"],
)
def test_encoded_scalars_have_the_reference_bits(z):
    got = complex_to_json(z)
    want = reference_complex_to_json(z)
    assert all(type(v) is float for v in got)
    assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# word decode: one array per letter size


def _mixed_size_words_doc(n, seed):
    """Words whose letters are 1x1, 2x2 and 3x3, with the special cells."""
    rng = np.random.default_rng(seed)
    cells = _CELLS
    words = []
    for _ in range(n):
        letters = []
        for t in range(int(rng.integers(1, 6))):
            d = int(rng.integers(1, 4))
            m = rng.normal(size=(d, d, 2)).tolist()
            if rng.random() < 0.3:
                m[0][0] = list(cells[int(rng.integers(len(cells)))])
            letters.append({"leg": 1 + t % 2, "element": m})
        words.append({"letters": letters})
    return {"words": words}


def _decoders(doc):
    """Each public decoding entry point, as a call giving the words of ``doc``."""
    scenario = dict(_scenario_docs(7)["monotone"], words=doc["words"])
    return {
        "words_from_json": lambda: words_from_json(doc),
        "word_from_json": lambda: [word_from_json(w, f"/words/{i}") for i, w in enumerate(doc["words"])],
        "independence_scenario_from_json": lambda: independence_scenario_from_json(scenario)["words"],
    }


def test_mixed_size_words_have_the_bits_of_per_letter_decoding():
    doc = json.loads(json.dumps(_mixed_size_words_doc(200, 5)))
    sizes = {len(letter["element"]) for w in doc["words"] for letter in w["letters"]}
    assert sizes == {1, 2, 3}
    for entry, decode in _decoders(doc).items():
        words = decode()
        assert len(words) == len(doc["words"])
        for i, (word, node) in enumerate(zip(words, doc["words"])):
            want = reference_word_from_json(node, f"/words/{i}")
            assert [leg for leg, _ in word.letters] == [leg for leg, _ in want], entry
            for (_, got), (_, ref), letter in zip(word.letters, want, node["letters"]):
                assert got.flags.c_contiguous and got.dtype == complex, entry
                assert _bits(got) == _bits(ref) == _bits(matrix_from_json(letter["element"])), entry
    # the letters of one size are views of one array for the whole list
    words = words_from_json(doc)
    by_size = {}
    for word in words:
        for _, m in word.letters:
            by_size.setdefault(len(m), []).append(m)
    for letters in by_size.values():
        assert all(m.base is not None and m.base is letters[0].base for m in letters)


def test_a_bad_cell_deep_in_a_words_file_reports_its_pointer():
    doc = _words_doc(1000, 7)
    eye = matrix_to_json(np.eye(2))
    doc["words"][734] = {"letters": [{"leg": 1 + t % 2, "element": eye} for t in range(3)]}
    doc = json.loads(json.dumps(doc))
    doc["words"][734]["letters"][2]["element"][1][0] = [True, 0.0]
    with pytest.raises(SchemaError) as err:
        words_from_json(doc)
    assert err.value.pointer == "/words/734/letters/2/element/1/0"
    assert err.value.reason == "expected a [re, im] pair of numbers"


_BAD_LETTERS = {
    "ragged element": {"leg": 1, "element": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]},
    "non-square element": {"leg": 2, "element": [[[1.0, 0.0], [0.0, 0.0]]]},
    "empty element": {"leg": 1, "element": []},
    "empty row": {"leg": 1, "element": [[]]},
    "non-list element": {"leg": 1, "element": "eye"},
    "bad cell": {"leg": 2, "element": [[[1.0, 0.0], [0.0, "0"]], [[0.0, 0.0], [1.0, 0.0]]]},
    "leg 3": {"leg": 3, "element": [[[1.0, 0.0]]]},
    "leg 0": {"leg": 0, "element": [[[1.0, 0.0]]]},
    "bool leg": {"leg": True, "element": [[[1.0, 0.0]]]},
    "string leg": {"leg": "1", "element": [[[1.0, 0.0]]]},
    "float leg": {"leg": 1.0, "element": [[[1.0, 0.0]]]},
    "missing leg": {"element": [[[1.0, 0.0]]]},
    "missing element": {"leg": 1},
    "non-object letter": [1, [[[1.0, 0.0]]]],
}


@pytest.mark.parametrize("case", sorted(_BAD_LETTERS))
def test_bad_letters_raise_as_the_reference_does(case):
    good = {"leg": 1, "element": [[[1.0, 0.0]]]}
    doc = {"words": [{"letters": [good]}, {"letters": [good, _BAD_LETTERS[case]]}]}
    with pytest.raises(SchemaError) as want:
        for i, w in enumerate(doc["words"]):
            reference_word_from_json(w, f"/words/{i}")
    assert want.value.pointer.startswith("/words/1/letters/1")
    for entry, decode in _decoders(doc).items():
        with pytest.raises(SchemaError) as got:
            decode()
        assert (got.value.reason, got.value.pointer) == (want.value.reason, want.value.pointer), entry
        assert str(got.value) == str(want.value), entry
