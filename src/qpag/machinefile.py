"""Machine files: strict JSON schema, canonical byte-stable emission.

Files carry full precision (floats rendered with repr, so parse(serialize(m))
reproduces m exactly); CLI reports render floats with 12 significant digits.
Key order is fixed by construction and the emitter never reorders, so equal
inputs produce byte-identical output.

Layout: two-space indent; every object member and list item on its own
line, except that a list of numbers alone (no bools) goes on one line as
``[a, b]``; empty containers are ``{}`` and ``[]``. A nan or an infinity
is a SchemaError, as JSON has no token for it. Strings and keys
(``str(key)``) are encoded as ``json.dumps(s, ensure_ascii=False)`` encodes
them, so non-ASCII text is written as is.

The three kinds (qpag, qcpda, ppa) share one reader and one writer, run
off two tables. ``_ROW_FIELDS`` (and ``_ALPHABET_FIELDS`` for the two
alphabets) maps each record field to its key in the file and its value
reader and writer; a transition row's keys follow the field order of its
transition class, so every kind writes ``from, read, top, to, [op], move,
amp|prob`` (the first four from the rows' shared base). ``_KINDS`` maps
each kind to its machine class, its top-level keys, the reader and writer
of its own top-level field (``push_strings`` for qpag, ``sigma`` for
qcpda) and the reader and writer of the machine class's ``row_class``,
all laid out once at import.

The parser is strict: unknown, missing and repeated keys are errors. Each
``SchemaError`` names the path of the offending value, such as
``transitions[17].amp[1]``. Paths through a list or an object's entries
are formatted only when their error is raised, so a valid file formats no
row or item path.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring as _quote
from math import isfinite
from typing import Callable, NamedTuple

from .errors import InvariantError, ParseError, SchemaError
from .model import (
    EPSILON,
    POP,
    InputAlphabet,
    MachinePPA,
    MachineQCPDA,
    MachineQPAG,
    StackAlphabet,
    StackOp,
    tokens_doc,
)

# ======================================================================
# Canonical emitter
# ======================================================================


# float style -> format spec; format(x, "") is repr(x) for every float
_FLOAT_SPECS = {"repr": "", "sig12": ".12g"}


def _float(x: float, spec: str) -> str:
    if x == 0:
        x = 0.0
    elif not isfinite(x):
        # JSON has no token for nan or an infinity
        raise SchemaError(f"cannot emit non-finite float {float(x)!r}")
    return format(float(x), spec)


def emit_json(value, floats: str = "repr") -> str:
    """Render ``value`` as deterministic, indented JSON text.

    ``floats`` picks the float style: "repr" (exact round-trip, machine
    files) or "sig12" (12 significant digits, reports). A nan or an
    infinity anywhere in ``value`` raises SchemaError, as does an int with
    more digits than CPython converts to text
    (``sys.get_int_max_str_digits()``).
    """
    spec = _FLOAT_SPECS.get(floats)
    if spec is None:
        raise InvariantError(f"unknown float style {floats!r}")
    out: list[str] = []
    try:
        _emit(value, spec, "\n", out)
    except ValueError:  # only str(int) raises it, past the digit limit
        raise _too_long(sys.get_int_max_str_digits()) from None
    out.append("\n")
    return "".join(out)


def refuse_long_int(digits: int) -> None:
    """Raise the SchemaError ``emit_json`` raises for an int of ``digits``
    digits, if that many pass CPython's limit (``sys.get_int_max_str_digits()``,
    0 for none): a caller can refuse before it computes the int."""
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise _too_long(limit)


def _too_long(limit: int) -> SchemaError:
    return SchemaError(f"cannot emit an int of more than {limit} digits")


def _emit(value, spec, nl, out):
    """Append the text of ``value`` to ``out``. ``nl`` is a newline plus
    the indent of the line ``value`` starts on. The common types are
    tested first; bool is tested inside the int branch."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "{" + inner
        for k, v in value.items():
            out.append(sep + _quote(str(k)) + ": ")
            _emit(v, spec, inner, out)
            sep = comma
        out.append(nl + "}")
    elif isinstance(value, float):
        out.append(_float(value, spec))
    elif isinstance(value, int):
        if value is True:
            out.append("true")
        elif value is False:
            out.append("false")
        else:
            out.append(str(value))
    elif isinstance(value, (list, tuple)):
        # a list of numbers alone (bools excluded) goes on one line
        body = []
        for x in value:
            if isinstance(x, float):
                body.append(_float(x, spec))
            elif isinstance(x, int) and x is not True and x is not False:
                body.append(str(x))
            else:
                break
        else:
            out.append("[" + ", ".join(body) + "]")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "[" + inner
        for x in value:
            out.append(sep)
            _emit(x, spec, inner, out)
            sep = comma
        out.append(nl + "]")
    elif value is None:
        out.append("null")
    else:
        raise SchemaError(f"cannot emit value of type {type(value).__name__}")


# ======================================================================
# Schema helpers
# ======================================================================
#
# Every helper names the value it rejects by the path it was handed. Paths
# that hold an index are formatted only on error: _items hands each item
# the empty path and prefixes "path[index]" to the message of the one it
# rejects (_amp does the same for its two entries), and the fields of a
# transition row or an alphabet are named relative to the object (".amp").


def _unique_keys(pairs):
    """``object_pairs_hook`` for json.loads: a repeated key is an error."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"duplicate field {key!r}")
            seen.add(key)
    return doc


def _fields(*required, optional=()):
    """The keys of one kind of object: the required ones, in the order a
    missing one is reported, and the set of every allowed key."""
    return required, frozenset(required + optional)


def _check_keys(doc, path, keys_of):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    required, allowed = keys_of
    keys = doc.keys()
    if keys == allowed:
        return
    if not keys <= allowed:
        raise SchemaError(f"{path}: unknown fields {sorted(keys - allowed)}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"{path}: missing field {key!r}")


def _items(pairs, path, check):
    """``[check(value, "") for key, value in pairs]``; when check rejects
    a value, its path ``path[key!r]`` goes in front of the message."""
    out = []
    for key, value in pairs:
        try:
            out.append(check(value, ""))
        except SchemaError as e:
            raise SchemaError(f"{path}[{key!r}]{e}") from None
    return out


def _string(value, path):
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{path}: expected a nonempty string")
    return value


def _string_list(value, path):
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected a list of strings")
    return tuple(_items(enumerate(value), path, _string))


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{path}: number out of range") from None


def _move(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer head move")
    return value


def _tokens(value, path):
    """A token string: compact string form (one token per character) or a list."""
    if isinstance(value, str):
        return tuple(value)
    if isinstance(value, list):
        return tuple(_items(enumerate(value), path, _string))
    raise SchemaError(f"{path}: expected a string or a list of tokens")


def _amp(value, path):
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{path}: expected [re, im]")
    try:
        return complex(_number(value[0], "[0]"), _number(value[1], "[1]"))
    except SchemaError as e:
        raise SchemaError(f"{path}{e}") from None


_OP_FIELDS = _fields("op", optional=("string",))


def _op_from_doc(doc, path):
    _check_keys(doc, path, _OP_FIELDS)
    kind = _string(doc["op"], f"{path}.op")
    if kind == "push":
        if "string" not in doc:
            raise SchemaError(f"{path}: push needs a 'string' field")
        return StackOp("push", _tokens(doc["string"], f"{path}.string"))
    if "string" in doc:
        raise SchemaError(f"{path}: {kind} carries no 'string' field")
    if kind == "epsilon":
        return EPSILON
    if kind == "pop":
        return POP
    raise SchemaError(f"{path}: unknown op {kind!r}")


def _op_to_doc(op: StackOp):
    if op.kind == "push":
        return {"op": "push", "string": tokens_doc(op.payload)}
    return {"op": op.kind}


# ======================================================================
# Schema tables
# ======================================================================

# Dataclass field -> (key in the file, value reader, value writer), for the
# fields of the two alphabets and of the three transition classes. A writer
# of None writes the value as it is.
_ALPHABET_FIELDS = {
    "symbols": ("symbols", _string_list, list),
    "left_end": ("left_end", _string, None),
    "right_end": ("right_end", _string, None),
    "bottom": ("bottom", _string, None),
}
_ROW_FIELDS = {
    "source": ("from", _string, None),
    "read": ("read", _string, None),
    "top": ("top", _string, None),
    "target": ("to", _string, None),
    "op": ("op", _op_from_doc, _op_to_doc),
    "move": ("move", _move, None),
    "amp": ("amp", _amp, lambda amp: [amp.real, amp.imag]),
    "prob": ("prob", _number, None),
}


def _schema(cls, table):
    """The reader and the writer of the objects of record class ``cls``: one
    key per field, in field order, laid out once. The reader checks the
    keys, reads each field under its path relative to the object (".amp"),
    puts ``path`` in front of the message of the field it rejects, and
    calls ``cls`` once with the values in field order."""
    layout = tuple((name,) + table[name] for name in cls._fields)
    allowed = _fields(*(key for _, key, _, _ in layout))
    reads = tuple((key, check, "." + key) for _, key, check, _ in layout)

    def read(doc, path):
        _check_keys(doc, path, allowed)
        try:
            return cls(*[check(doc[key], where) for key, check, where in reads])
        except SchemaError as e:
            raise SchemaError(f"{path}{e}") from None

    def write(obj):
        doc = {}
        for name, key, _, put in layout:
            value = getattr(obj, name)
            doc[key] = value if put is None else put(value)
        return doc

    return read, write


_read_input_alphabet, _write_input_alphabet = _schema(InputAlphabet, _ALPHABET_FIELDS)
_read_stack_alphabet, _write_stack_alphabet = _schema(StackAlphabet, _ALPHABET_FIELDS)


# The top-level field of one kind alone: its reader returns the machine's
# constructor keywords, its writer the entries of the document.


def _read_push_strings(doc):
    if "push_strings" not in doc:
        return {}
    raw = doc["push_strings"]
    if not isinstance(raw, list):
        raise SchemaError("push_strings: expected a list")
    return {"declared_push_strings": tuple(_items(enumerate(raw), "push_strings", _tokens))}


def _write_push_strings(machine):
    declared = machine.declared_push_strings
    return {"push_strings": [tokens_doc(p) for p in declared]} if declared else {}


def _read_sigma(doc):
    raw = doc["sigma"]
    if not isinstance(raw, dict):
        raise SchemaError("sigma: expected an object mapping state to op")
    return {"sigma": tuple(zip(raw, _items(raw.items(), "sigma", _op_from_doc)))}


def _write_sigma(machine):
    return {"sigma": {q: _op_to_doc(op) for q, op in machine.sigma}}


class _Kind(NamedTuple):
    machine: type
    keys: tuple  # the top-level keys, as _fields gives them
    read_own: Callable
    write_own: Callable
    read_row: Callable
    write_row: Callable


# The top-level keys of every kind, in the order a missing one is reported.
_TOP_FIELDS = (
    "kind", "states", "input_alphabet", "stack_alphabet",
    "initial", "accepting", "rejecting", "transitions",
)


def _kind(machine, read_own, write_own, required=(), optional=()):
    keys = _fields(*_TOP_FIELDS, *required, optional=optional)
    return _Kind(machine, keys, read_own, write_own, *_schema(machine.row_class, _ROW_FIELDS))


_KINDS = {
    "qpag": _kind(
        MachineQPAG, _read_push_strings, _write_push_strings, optional=("push_strings",)
    ),
    "qcpda": _kind(MachineQCPDA, _read_sigma, _write_sigma, ("sigma",)),
    "ppa": _kind(MachinePPA, lambda doc: {}, lambda machine: {}),
}


# ======================================================================
# Parse and serialize
# ======================================================================


def parse_machine(text: str):
    """Parse a machine file; returns one of the three machine types."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    # ValueError: a JSONDecodeError, or an int past CPython's digit limit;
    # RecursionError: arrays or objects nested too deep
    except (ValueError, RecursionError) as e:
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    if "kind" not in doc:
        raise SchemaError("top level: missing field 'kind'")
    kind = _string(doc["kind"], "kind")
    if kind not in _KINDS:
        raise SchemaError(f"kind: unknown machine kind {kind!r}")
    spec = _KINDS[kind]
    _check_keys(doc, "top level", spec.keys)
    input_alphabet = _read_input_alphabet(doc["input_alphabet"], "top level.input_alphabet")
    stack_alphabet = _read_stack_alphabet(doc["stack_alphabet"], "top level.stack_alphabet")
    own = spec.read_own(doc)
    states = _string_list(doc["states"], "states")
    rows = doc["transitions"]
    if not isinstance(rows, list):
        raise SchemaError("transitions: expected a list of transitions")
    return spec.machine(
        states=states,
        input_alphabet=input_alphabet,
        stack_alphabet=stack_alphabet,
        transitions=tuple(_items(enumerate(rows), "transitions", spec.read_row)),
        initial=_string(doc["initial"], "initial"),
        accepting=frozenset(_string_list(doc["accepting"], "accepting")),
        rejecting=frozenset(_string_list(doc["rejecting"], "rejecting")),
        **own,
    )


def machine_to_doc(machine):
    for kind, spec in _KINDS.items():
        if isinstance(machine, spec.machine):
            break
    else:
        raise SchemaError(f"not a machine: {type(machine).__name__}")
    return {
        "kind": kind,
        "states": list(machine.states),
        "input_alphabet": _write_input_alphabet(machine.input_alphabet),
        "stack_alphabet": _write_stack_alphabet(machine.stack_alphabet),
        "initial": machine.initial,
        "accepting": sorted(machine.accepting),
        "rejecting": sorted(machine.rejecting),
        **spec.write_own(machine),
        "transitions": [spec.write_row(t) for t in machine.transitions],
    }


def serialize_machine(machine) -> str:
    return emit_json(machine_to_doc(machine), floats="repr")
