"""JSON schemas for algebras, maps, words, spaces and independence scenarios.

The wire format is deliberately plain: complex numbers are ``[re, im]``
pairs, matrices are nested row-major lists of those pairs, and every
structured object is a JSON object with fixed field names.  Parsing
errors carry a JSON pointer to the offending field so the CLI can report
exactly what was wrong.  Emission is byte-deterministic: fixed key order,
floats printed with 17 significant digits, no timestamps.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any

import numpy as np

from .algebra_core import (
    MapKind,
    MatrixStarAlgebra,
    PositiveMap,
    StructuralError,
    scalar_algebra,
)
from .independence import AlternatingWord, QuantumProbabilitySpace

__all__ = [
    "SchemaError",
    "emit_json",
    "matrix_to_json",
    "matrix_from_json",
    "algebra_to_json",
    "algebra_from_json",
    "map_to_json",
    "map_from_json",
    "word_to_json",
    "word_from_json",
    "words_from_json",
    "space_from_json",
    "independence_scenario_from_json",
    "load_json_file",
]

SCHEMA_TAG = "ncprob/1"


class SchemaError(StructuralError):
    """A document does not match the expected shape.

    ``pointer`` is the RFC 6901 JSON pointer of the offending field.
    """

    def __init__(self, message: str, pointer: str):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer or "/"
        self.reason = message


# ---------------------------------------------------------------------------
# deterministic emission


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise StructuralError(f"refusing to serialize a non-finite number: {x}")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def emit_json(obj: Any, indent: int = 0) -> str:
    """Serialize with a fixed layout: insertion order, 17-digit floats."""
    return _emit(obj, indent)


def _emit(obj: Any, indent: int) -> str:
    # exact types first, most frequent first: a report is mostly floats
    kind = type(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if len(obj) == 2 and type(obj[0]) is float and type(obj[1]) is float:
            # an [re, im] pair, the most common list: the rule below, decided
            # on two items, keeps it inline exactly when both are short
            items = [_fmt_float(obj[0]), _fmt_float(obj[1])]
            if len(items[0]) < 24 and len(items[1]) < 24:
                return f"[{items[0]}, {items[1]}]"
            return _block("[", items, "]", indent)
        items = [_emit(v, indent + 1) for v in obj]
        if sum(map(len, items)) < 72 and all(len(it) < 24 and "\n" not in it for it in items):
            return "[" + ", ".join(items) + "]"
        return _block("[", items, "]", indent)
    if kind is dict:
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise StructuralError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{_encode_str(key)}: {_emit(value, indent + 1)}")
        return _block("{", items, "}", indent)
    if kind is str:
        return _encode_str(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    return _emit(_builtin_value(obj), indent)


def _block(opening: str, items: list[str], closing: str, indent: int) -> str:
    """``items`` one per line, a level deeper than their brackets."""
    pad = "  " * indent
    separator = f",\n{pad}  "
    return f"{opening}\n{pad}  {separator.join(items)}\n{pad}{closing}"


def _builtin_value(obj: Any) -> Any:
    """``obj`` (a numpy scalar or a subclass of a JSON type) as its Python base type."""
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, str):
        return str.__str__(obj)  # the characters, not a subclass's __str__
    if isinstance(obj, complex):
        raise StructuralError("complex values must be encoded as [re, im] pairs first")
    if isinstance(obj, (list, tuple)):
        return list(obj)
    if isinstance(obj, dict):
        return dict(obj)
    raise StructuralError(f"cannot serialize object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# parsing helpers


def _expect(node: Any, kind: type, what: str, pointer: str) -> Any:
    if not isinstance(node, kind) or isinstance(node, bool) and kind is not bool:
        raise SchemaError(f"expected {what}, got {type(node).__name__}", pointer)
    return node


def _expect_int(node: Any, what: str, pointer: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise SchemaError(f"expected {what} (an integer), got {type(node).__name__}", pointer)
    return node


def _field(node: dict, name: str, pointer: str) -> Any:
    if name not in node:
        raise SchemaError(f"missing required field '{name}'", f"{pointer}/{name}")
    return node[name]


class _NonFinite(str):
    """A NaN/Infinity literal, kept as a marker until its pointer is known."""


def _non_finite_pointer(node: Any, pointer: str = "") -> str | None:
    if isinstance(node, _NonFinite):
        return pointer
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        found = _non_finite_pointer(child, f"{pointer}/{key}")
        if found is not None:
            return found
    return None


def load_json_file(path: str) -> Any:
    """Parse a JSON file; NaN and Infinity literals are rejected, not read."""
    seen: list[str] = []

    def non_finite(literal: str) -> _NonFinite:
        seen.append(literal)
        return _NonFinite(literal)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=non_finite)
    except OSError as err:
        raise SchemaError(f"cannot read file: {err}", "") from err
    except json.JSONDecodeError as err:
        raise SchemaError(f"not valid JSON: {err.msg} (line {err.lineno})", "") from err
    if seen:
        raise SchemaError(f"non-finite number {seen[0]} is not allowed", _non_finite_pointer(doc))
    return doc


# ---------------------------------------------------------------------------
# numbers and matrices


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _complex_from_json(node: Any, pointer: str) -> complex:
    if (
        not isinstance(node, list)
        or len(node) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in node)
    ):
        raise SchemaError("expected a [re, im] pair of numbers", pointer)
    return complex(node[0], node[1])


def matrix_to_json(m: np.ndarray) -> list:
    m = np.ascontiguousarray(m, dtype=complex)
    # each complex128 viewed as its (re, im) float64 pair
    return m.view(float).reshape(*m.shape, 2).tolist()


_REAL = (float, int)


def _matrix_rows(node: Any, pointer: str) -> list:
    """The rows of a matrix node, every cell checked and made a [re, im] pair
    of floats or ints; raises :class:`SchemaError` at the first bad field.

    A node whose cells are all such pairs already, as in a parsed document,
    is returned itself: a words file keeps every letter's rows until its
    arrays are built, and copies would double that."""
    rows = _expect(node, list, "a matrix (list of rows)", pointer)
    if not rows:
        raise SchemaError("matrix has no rows", pointer)
    width = None
    out = rows
    for i, row in enumerate(rows):
        cells = row if type(row) is list else _expect(row, list, "a matrix row", f"{pointer}/{i}")
        if width is None:
            width = len(cells)
            if width == 0:
                raise SchemaError("matrix row is empty", f"{pointer}/{i}")
        elif len(cells) != width:
            raise SchemaError(
                f"ragged matrix: row has {len(cells)} entries, expected {width}",
                f"{pointer}/{i}",
            )
        for j, c in enumerate(cells):
            # a parsed document's cells are [float|int, float|int] lists; any
            # other cell is rejected by _complex_from_json, or is a numpy
            # scalar pair it accepts
            if not (type(c) is list and len(c) == 2 and type(c[0]) in _REAL and type(c[1]) in _REAL):
                z = _complex_from_json(c, f"{pointer}/{i}/{j}")
                if cells is row:
                    cells = list(row)
                cells[j] = [z.real, z.imag]
        if cells is not row:
            if out is rows:
                out = list(rows)
            out[i] = cells
    return out


def _square_rows(node: Any, dim: int | None, pointer: str) -> list:
    """:func:`_matrix_rows` of a square matrix, ``dim x dim`` unless ``dim`` is None."""
    rows = _matrix_rows(node, pointer)
    shape = (len(rows), len(rows[0]))
    if shape[0] != shape[1]:
        raise SchemaError(f"expected a square matrix, got shape {shape}", pointer)
    if dim is not None and shape[0] != dim:
        raise SchemaError(f"expected a {dim}x{dim} matrix, got {shape[0]}x{shape[1]}", pointer)
    return rows


def _complex_array(rows: list, shape: tuple[int, ...]) -> np.ndarray:
    """Checked rows of the given shape, or a list of them, as one C-contiguous
    complex array.  Its entries are the [re, im] float pairs viewed as
    complex, so each has the bits of ``complex(re, im)``; the pairs are read
    flat, which is cheaper than ``np.array``'s walk of the nesting."""
    floats = rows
    for _ in shape:
        floats = chain.from_iterable(floats)
    return np.fromiter(floats, float, count=2 * math.prod(shape)).view(complex).reshape(shape)


def matrix_from_json(node: Any, pointer: str = "") -> np.ndarray:
    rows = _matrix_rows(node, pointer)
    # the copy owns its buffer: a matrix on its own is not a view of the
    # float array it was read into
    return _complex_array(rows, (len(rows), len(rows[0]))).copy()


def _square_matrix_from_json(node: Any, dim: int | None, pointer: str) -> np.ndarray:
    rows = _square_rows(node, dim, pointer)
    return _complex_array(rows, (len(rows), len(rows))).copy()


# ---------------------------------------------------------------------------
# algebras and maps


def algebra_to_json(algebra: MatrixStarAlgebra) -> dict:
    return {
        "ambient_dim": algebra.ambient_dim,
        "basis": [matrix_to_json(b) for b in algebra.basis],
        "unit": matrix_to_json(algebra.unit),
    }


def algebra_from_json(node: Any, pointer: str = "") -> MatrixStarAlgebra:
    obj = _expect(node, dict, "an algebra object", pointer)
    d = _expect_int(_field(obj, "ambient_dim", pointer), "ambient_dim", f"{pointer}/ambient_dim")
    if d < 1:
        raise SchemaError("ambient_dim must be >= 1", f"{pointer}/ambient_dim")
    basis_node = _expect(_field(obj, "basis", pointer), list, "a basis list", f"{pointer}/basis")
    if not basis_node:
        raise SchemaError("basis must not be empty", f"{pointer}/basis")
    basis = np.stack(
        [
            _square_matrix_from_json(b, d, f"{pointer}/basis/{i}")
            for i, b in enumerate(basis_node)
        ]
    )
    unit_node = obj.get("unit")
    unit = None if unit_node is None else _square_matrix_from_json(unit_node, d, f"{pointer}/unit")
    try:
        return MatrixStarAlgebra(basis, unit)
    except StructuralError as err:
        raise SchemaError(f"basis does not define an algebra: {err}", f"{pointer}/basis") from err


def map_to_json(pmap: PositiveMap) -> dict:
    return {
        "kind": pmap.kind.value,
        "matrix": matrix_to_json(pmap.matrix),
    }


def map_from_json(
    node: Any,
    domain: MatrixStarAlgebra,
    codomain: MatrixStarAlgebra,
    pointer: str = "",
) -> PositiveMap:
    obj = _expect(node, dict, "a map object", pointer)
    kind_node = _field(obj, "kind", pointer)
    try:
        kind = MapKind(_expect(kind_node, str, "a map kind", f"{pointer}/kind"))
    except ValueError:
        names = ", ".join(k.value for k in MapKind)
        raise SchemaError(f"unknown map kind {kind_node!r}; expected one of {names}", f"{pointer}/kind")
    matrix = matrix_from_json(_field(obj, "matrix", pointer), f"{pointer}/matrix")
    if matrix.shape != (codomain.dim, domain.dim):
        raise SchemaError(
            f"map matrix shape {matrix.shape} does not match "
            f"(codomain dim {codomain.dim}, domain dim {domain.dim})",
            f"{pointer}/matrix",
        )
    return PositiveMap(domain, codomain, matrix, kind)


# ---------------------------------------------------------------------------
# words and scenarios


def word_to_json(word: AlternatingWord) -> dict:
    return {
        "letters": [
            {"leg": leg, "element": matrix_to_json(mat)} for leg, mat in word.letters
        ]
    }


def _decode_words(located: list) -> list[AlternatingWord]:
    """The words of ``(node, pointer)`` pairs, in order.

    Every letter is checked before any array is built, so the first bad
    field raises, with its pointer.  The letters of one size then share one
    complex array for the whole list, and each letter is a C-contiguous view
    of it.
    """
    rows_by_size: dict[int, list] = {}
    for node, pointer in located:
        obj = _expect(node, dict, "a word object", pointer)
        letters_node = _expect(
            _field(obj, "letters", pointer), list, "a letter list", f"{pointer}/letters"
        )
        for i, entry in enumerate(letters_node):
            lp = f"{pointer}/letters/{i}"
            eobj = _expect(entry, dict, "a letter object", lp)
            leg = _expect_int(_field(eobj, "leg", lp), "leg", f"{lp}/leg")
            if leg not in (1, 2):
                raise SchemaError(f"leg must be 1 or 2, got {leg}", f"{lp}/leg")
            rows = _square_rows(_field(eobj, "element", lp), None, f"{lp}/element")
            rows_by_size.setdefault(len(rows), []).append(rows)
    # a second walk over the checked nodes hands out the views in order, so
    # no per-letter record is kept between the two walks
    views = {d: iter(_complex_array(rows, (len(rows), d, d))) for d, rows in rows_by_size.items()}
    return [
        AlternatingWord([(e["leg"], next(views[len(e["element"])])) for e in node["letters"]])
        for node, _ in located
    ]


def _words_from_list(node: Any, pointer: str) -> list[AlternatingWord]:
    words_node = _expect(node, list, "a word list", pointer)
    return _decode_words([(w, f"{pointer}/{i}") for i, w in enumerate(words_node)])


def word_from_json(node: Any, pointer: str = "") -> AlternatingWord:
    return _decode_words([(node, pointer)])[0]


def words_from_json(node: Any, pointer: str = "") -> list[AlternatingWord]:
    obj = _expect(node, dict, "a words document", pointer)
    return _words_from_list(_field(obj, "words", pointer), f"{pointer}/words")


def space_from_json(node: Any, codomain: MatrixStarAlgebra | None, pointer: str = "") -> QuantumProbabilitySpace:
    """A probability space: an algebra with a functional into ``codomain``.

    ``codomain`` of None means the scalars (an ordinary state).
    """
    obj = _expect(node, dict, "a probability space object", pointer)
    algebra = algebra_from_json(_field(obj, "algebra", pointer), f"{pointer}/algebra")
    cod = scalar_algebra() if codomain is None else codomain
    functional = map_from_json(
        _field(obj, "functional", pointer), algebra, cod, f"{pointer}/functional"
    )
    try:
        return QuantumProbabilitySpace(algebra, functional)
    except StructuralError as err:
        raise SchemaError(str(err), f"{pointer}/functional") from err


INDEPENDENCE_CONSTRUCTIONS = ("monotone", "tensor", "conditional-monotone")


def independence_scenario_from_json(node: Any, pointer: str = "") -> dict:
    """Decode {"construction", "space1", "space2"[, "base"][, "words"]}.

    Returns a dict with the construction name, the two spaces, the base
    algebra (scalars unless given), and any inline words.
    """
    obj = _expect(node, dict, "a scenario object", pointer)
    construction = _expect(
        _field(obj, "construction", pointer), str, "a construction name", f"{pointer}/construction"
    )
    if construction not in INDEPENDENCE_CONSTRUCTIONS:
        names = ", ".join(INDEPENDENCE_CONSTRUCTIONS)
        raise SchemaError(
            f"unknown construction {construction!r}; expected one of {names}",
            f"{pointer}/construction",
        )
    base = None
    if construction == "conditional-monotone":
        base = algebra_from_json(_field(obj, "base", pointer), f"{pointer}/base")
    space1 = space_from_json(_field(obj, "space1", pointer), base, f"{pointer}/space1")
    space2 = space_from_json(_field(obj, "space2", pointer), base, f"{pointer}/space2")
    words = None
    if "words" in obj:
        words = _words_from_list(obj["words"], f"{pointer}/words")
    return {
        "construction": construction,
        "space1": space1,
        "space2": space2,
        "base": base,
        "words": words,
    }

