"""JSON serialization for every automaton kind the toolkit handles.

One self-describing schema (``"schema": 1``): alphabets are string arrays,
matrices are row-major arrays of arrays, words in table keys are
space-separated symbol strings (the empty string is the empty word).  A
table is saved with every word up to its depth; a loaded table may omit
words, which read 0.0.
Loading re-validates module invariants and reports the JSON path of the
offending field.  Every numeric field takes finite numbers only: a boolean,
or the NaN and Infinity literals that Python's json reads, is rejected.
"""
from __future__ import annotations

import json
import sys
from itertools import product
from typing import Any

import numpy as np

from .dfa import Dfa, Word
from .generalpa import GeneralPA
from .linauto import LinearAutomaton, StringFunctionTable
from .moorepa import MoorePA
from .sequences import MarkovChain, RandomSequence
from .tolerances import DEFAULT, Tolerances

SCHEMA_VERSION = 1

KIND_OF = {
    GeneralPA: "general_pa",
    MoorePA: "moore_pa",
    LinearAutomaton: "linear_automaton",
    MarkovChain: "markov_chain",
    Dfa: "dfa",
    StringFunctionTable: "string_function",
    RandomSequence: "random_sequence",
}
KINDS = tuple(KIND_OF.values())


class SchemaError(ValueError):
    """Raised on malformed documents, carrying the JSON path of the problem."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def word_to_key(u: Word) -> str:
    return " ".join(u)


def key_to_word(key: str) -> Word:
    return tuple(key.split(" ")) if key else ()


def parse_word(text: str, alphabet: tuple[str, ...]) -> Word:
    """Parse a word from user input.

    Single-character alphabets allow the compact form "201"; otherwise (or
    when the compact parse fails) symbols are space- or comma-separated.
    A symbol outside the alphabet raises ValueError.
    """
    if text == "":
        return ()
    for sep in (" ", ","):
        if sep in text:
            parts = tuple(p for p in text.split(sep) if p)
            break
    else:
        parts = tuple(text) if all(len(s) == 1 for s in alphabet) else (text,)
    for p in parts:
        if p not in alphabet:
            raise ValueError(f"symbol {p!r} not in the alphabet {list(alphabet)}")
    return parts


def _require(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "missing field")
    return doc[key]


_JSON_TYPES = {int: "an integer", (int, float): "a number", list: "an array", dict: "an object"}


def _typed(value: Any, kind, path: str) -> Any:
    """The value, when it has the JSON type `kind`, a key of _JSON_TYPES (no bool is a number)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SchemaError(path, f"expected {_JSON_TYPES[kind]}")
    return value


def _field(doc: dict, key: str, path: str, kind) -> Any:
    return _typed(_require(doc, key, path), kind, f"{path}.{key}")


def _integers(value: Any, path: str) -> list[int]:
    return [_typed(q, int, f"{path}[{j}]") for j, q in enumerate(_typed(value, list, path))]


def _symbols(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not value or not all(isinstance(s, str) for s in value):
        raise SchemaError(path, "expected a non-empty array of symbol strings")
    if len(set(value)) != len(value):
        raise SchemaError(path, "duplicate symbols")
    return tuple(value)


def _number(value: Any, path: str) -> float:
    """A finite float: not a bool, a NaN or Infinity literal, or an integer past the float range."""
    if not abs(_typed(value, (int, float), path)) <= sys.float_info.max:
        raise SchemaError(path, "expected a finite number")
    return float(value)


def _vector(value: Any, path: str) -> np.ndarray:
    return np.array([_number(q, f"{path}[{j}]") for j, q in enumerate(_typed(value, list, path))])


def _matrix(value: Any, path: str) -> np.ndarray:
    rows = [_vector(row, f"{path}[{i}]") for i, row in enumerate(_typed(value, list, path))]
    if len({row.size for row in rows}) > 1:
        raise SchemaError(path, "expected rows of equal length")
    return np.array(rows, ndmin=2)


def _transitions(doc: dict, path: str, names, read) -> list:
    """`read` of the entry of each name in the object doc["trans"], in the order of names."""
    raw = _field(doc, "trans", path, dict)
    return [read(_require(raw, name, f"{path}.trans"), f"{path}.trans.{name}") for name in names]


def to_document(obj) -> dict:
    kind = next((KIND_OF[c] for c in type(obj).__mro__ if c in KIND_OF), None)
    head = {"schema": SCHEMA_VERSION, "kind": kind}
    if kind == "general_pa":
        return {
            **head,
            "inputs": list(obj.inputs),
            "outputs": list(obj.outputs),
            "trans": {f"{x}|{y}": obj.matrix(x, y).tolist() for x in obj.inputs for y in obj.outputs},
            "initial": obj.initial.tolist(),
        }
    if kind in ("moore_pa", "linear_automaton"):
        return {
            **head,
            "inputs": list(obj.inputs),
            "trans": {x: obj.matrix(x).tolist() for x in obj.inputs},
            "initial": obj.initial.tolist(),
            "lambda": obj.lam.tolist(),
        }
    if kind == "markov_chain":
        return {
            **head,
            "signals": list(obj.signals),
            "matrix": obj.matrix.tolist(),
            "labels": list(obj.labels),
            "initial": obj.initial.tolist(),
        }
    if kind == "dfa":
        return {
            **head,
            "alphabet": list(obj.alphabet),
            "states": obj.n_states,
            "start": obj.start,
            "trans": {x: list(obj.trans[x]) for x in obj.alphabet},
            "accepting": sorted(obj.accepting),
        }
    if kind in ("string_function", "random_sequence"):
        return {
            **head,
            "alphabet": list(obj.alphabet),
            "depth": obj.depth,
            "table": dict(zip(map(word_to_key, obj.values), obj.values.array.tolist())),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_document(doc: Any, tol: Tolerances = DEFAULT, path: str = "$"):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected a JSON object")
    version = _require(doc, "schema", path)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{path}.schema", f"unsupported schema version {version!r}")
    kind = _require(doc, "kind", path)
    if kind not in KINDS:
        raise SchemaError(f"{path}.kind", f"unknown kind {kind!r}")
    try:
        if kind == "general_pa":
            inputs = _symbols(_require(doc, "inputs", path), f"{path}.inputs")
            outputs = _symbols(_require(doc, "outputs", path), f"{path}.outputs")
            keys = list(product(inputs, outputs))
            trans = _transitions(doc, path, [f"{x}|{y}" for x, y in keys], _matrix)
            initial = _vector(_require(doc, "initial", path), f"{path}.initial")
            return GeneralPA(inputs, outputs, dict(zip(keys, trans)), initial).validate(tol)
        if kind in ("moore_pa", "linear_automaton"):
            inputs = _symbols(_require(doc, "inputs", path), f"{path}.inputs")
            trans = dict(zip(inputs, _transitions(doc, path, inputs, _matrix)))
            initial = _vector(_require(doc, "initial", path), f"{path}.initial")
            lam = _vector(_require(doc, "lambda", path), f"{path}.lambda")
            if kind == "moore_pa":
                return MoorePA(inputs, trans, initial, lam).validate(tol)
            return LinearAutomaton(inputs, trans, initial, lam).validate()
        if kind == "markov_chain":
            signals = _symbols(_require(doc, "signals", path), f"{path}.signals")
            return MarkovChain(
                signals,
                _matrix(_require(doc, "matrix", path), f"{path}.matrix"),
                tuple(_field(doc, "labels", path, list)),
                _vector(_require(doc, "initial", path), f"{path}.initial"),
            ).validate(tol)
        if kind == "dfa":
            alphabet = _symbols(_require(doc, "alphabet", path), f"{path}.alphabet")
            trans = dict(zip(alphabet, _transitions(doc, path, alphabet, _integers)))
            return Dfa(
                alphabet=alphabet,
                n_states=_field(doc, "states", path, int),
                start=_field(doc, "start", path, int),
                trans=trans,
                accepting=_integers(_require(doc, "accepting", path), f"{path}.accepting"),
            )
        # table kinds
        alphabet = _symbols(_require(doc, "alphabet", path), f"{path}.alphabet")
        depth = _field(doc, "depth", path, int)
        raw = _field(doc, "table", path, dict)
        table = {}
        for key, value in raw.items():
            word = key_to_word(key)
            if any(s not in alphabet for s in word):
                raise SchemaError(f"{path}.table.{key!r}", "symbol outside the alphabet")
            if len(word) > depth:
                raise SchemaError(f"{path}.table.{key!r}", "word longer than the depth")
            table[word] = _number(value, f"{path}.table.{key!r}")
        if kind == "string_function":
            return StringFunctionTable(alphabet, depth, table)
        return RandomSequence(alphabet, depth, table).validate(tol)
    except SchemaError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(path, str(exc)) from None


def load(filename: str, tol: Tolerances = DEFAULT):
    with open(filename, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(
                f"{filename}:{exc.lineno}:{exc.colno}", f"malformed JSON: {exc.msg}"
            ) from None
    return from_document(doc, tol, path=f"{filename}:$")


def save(obj, filename: str) -> None:
    with open(filename, "w", encoding="utf-8") as fh:
        json.dump(to_document(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def dumps(obj) -> str:
    return json.dumps(to_document(obj), indent=2, sort_keys=True) + "\n"
