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

The parser is strict: unknown, missing and repeated keys are errors. Each
``SchemaError`` names the path of the offending value, such as
``transitions[17].amp[1]``. Paths through a list or an object's entries
are formatted only when their error is raised, so a valid file formats no
row or item path.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _quote
from math import isfinite

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
    TransitionPPA,
    TransitionQCPDA,
    TransitionQPAG,
    tokens_doc,
)

# ======================================================================
# Canonical emitter
# ======================================================================


def _float_repr(x: float) -> str:
    if x == 0:
        x = 0.0
    elif not isfinite(x):
        raise _non_finite(x)
    return repr(float(x))


def _float_sig12(x: float) -> str:
    if x == 0:
        x = 0.0
    elif not isfinite(x):
        raise _non_finite(x)
    return format(float(x), ".12g")


def _non_finite(x: float) -> SchemaError:
    # JSON has no token for nan or an infinity
    return SchemaError(f"cannot emit non-finite float {float(x)!r}")


def emit_json(value, floats: str = "repr") -> str:
    """Render ``value`` as deterministic, indented JSON text.

    ``floats`` picks the float style: "repr" (exact round-trip, machine
    files) or "sig12" (12 significant digits, reports). A nan or an
    infinity anywhere in ``value`` raises SchemaError.
    """
    if floats == "repr":
        fmt = _float_repr
    elif floats == "sig12":
        fmt = _float_sig12
    else:
        raise InvariantError(f"unknown float style {floats!r}")
    out: list[str] = []
    _emit(value, fmt, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(value, fmt, nl, out):
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
            _emit(v, fmt, inner, out)
            sep = comma
        out.append(nl + "}")
    elif isinstance(value, float):
        out.append(fmt(value))
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
                body.append(fmt(x))
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
            _emit(x, fmt, inner, out)
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
# transition row are named relative to the row (".amp").


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


def _need(doc, key, path):
    if key not in doc:
        raise SchemaError(f"{path}: missing field {key!r}")
    return doc[key]


def _fields(*required, optional=()):
    """The keys of one kind of object: the required ones, in the order a
    missing one is reported, and the set of every allowed key."""
    return required, frozenset(required + optional)


def _check_keys(doc, path, fields):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    required, allowed = fields
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


_INPUT_ALPHABET_FIELDS = _fields("symbols", "left_end", "right_end")
_STACK_ALPHABET_FIELDS = _fields("symbols", "bottom")


def _alphabets_from_doc(doc, path):
    ia = _need(doc, "input_alphabet", path)
    _check_keys(ia, f"{path}.input_alphabet", _INPUT_ALPHABET_FIELDS)
    input_alphabet = InputAlphabet(
        symbols=_string_list(ia["symbols"], f"{path}.input_alphabet.symbols"),
        left_end=_string(ia["left_end"], f"{path}.input_alphabet.left_end"),
        right_end=_string(ia["right_end"], f"{path}.input_alphabet.right_end"),
    )
    sa = _need(doc, "stack_alphabet", path)
    _check_keys(sa, f"{path}.stack_alphabet", _STACK_ALPHABET_FIELDS)
    stack_alphabet = StackAlphabet(
        symbols=_string_list(sa["symbols"], f"{path}.stack_alphabet.symbols"),
        bottom=_string(sa["bottom"], f"{path}.stack_alphabet.bottom"),
    )
    return input_alphabet, stack_alphabet


_COMMON_FIELDS = (
    "kind",
    "states",
    "input_alphabet",
    "stack_alphabet",
    "initial",
    "accepting",
    "rejecting",
    "transitions",
)


def _transitions(doc, build):
    """The rows of ``doc``, each made by ``build(row, "")``, which names
    the row's fields relative to the row (".amp")."""
    if not isinstance(doc, list):
        raise SchemaError("transitions: expected a list of transitions")
    return tuple(_items(enumerate(doc), "transitions", build))


# ======================================================================
# Parse
# ======================================================================


def parse_machine(text: str):
    """Parse a machine file; returns one of the three machine types."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    kind = _string(_need(doc, "kind", "top level"), "kind")
    if kind == "qpag":
        return _parse_qpag(doc)
    if kind == "qcpda":
        return _parse_qcpda(doc)
    if kind == "ppa":
        return _parse_ppa(doc)
    raise SchemaError(f"kind: unknown machine kind {kind!r}")


_QPAG_FIELDS = _fields(*_COMMON_FIELDS, optional=("push_strings",))
_QPAG_ROW = _fields("from", "read", "top", "to", "op", "move", "amp")


def _parse_qpag(doc):
    _check_keys(doc, "top level", _QPAG_FIELDS)
    input_alphabet, stack_alphabet = _alphabets_from_doc(doc, "top level")

    def build(row, path):
        _check_keys(row, path, _QPAG_ROW)
        return TransitionQPAG(
            source=_string(row["from"], ".from"),
            read=_string(row["read"], ".read"),
            top=_string(row["top"], ".top"),
            target=_string(row["to"], ".to"),
            op=_op_from_doc(row["op"], ".op"),
            move=_move(row["move"], ".move"),
            amp=_amp(row["amp"], ".amp"),
        )

    declared = ()
    if "push_strings" in doc:
        raw = doc["push_strings"]
        if not isinstance(raw, list):
            raise SchemaError("push_strings: expected a list")
        declared = tuple(_items(enumerate(raw), "push_strings", _tokens))
    return MachineQPAG(
        states=_string_list(doc["states"], "states"),
        input_alphabet=input_alphabet,
        stack_alphabet=stack_alphabet,
        transitions=_transitions(doc["transitions"], build),
        initial=_string(doc["initial"], "initial"),
        accepting=frozenset(_string_list(doc["accepting"], "accepting")),
        rejecting=frozenset(_string_list(doc["rejecting"], "rejecting")),
        declared_push_strings=declared,
    )


_QCPDA_FIELDS = _fields(*_COMMON_FIELDS, "sigma")
_QCPDA_ROW = _fields("from", "read", "top", "to", "move", "amp")


def _parse_qcpda(doc):
    _check_keys(doc, "top level", _QCPDA_FIELDS)
    input_alphabet, stack_alphabet = _alphabets_from_doc(doc, "top level")

    def build(row, path):
        _check_keys(row, path, _QCPDA_ROW)
        return TransitionQCPDA(
            source=_string(row["from"], ".from"),
            read=_string(row["read"], ".read"),
            top=_string(row["top"], ".top"),
            target=_string(row["to"], ".to"),
            move=_move(row["move"], ".move"),
            amp=_amp(row["amp"], ".amp"),
        )

    sigma_doc = doc["sigma"]
    if not isinstance(sigma_doc, dict):
        raise SchemaError("sigma: expected an object mapping state to op")
    sigma = tuple(zip(sigma_doc, _items(sigma_doc.items(), "sigma", _op_from_doc)))
    return MachineQCPDA(
        states=_string_list(doc["states"], "states"),
        input_alphabet=input_alphabet,
        stack_alphabet=stack_alphabet,
        transitions=_transitions(doc["transitions"], build),
        sigma=sigma,
        initial=_string(doc["initial"], "initial"),
        accepting=frozenset(_string_list(doc["accepting"], "accepting")),
        rejecting=frozenset(_string_list(doc["rejecting"], "rejecting")),
    )


_PPA_FIELDS = _fields(*_COMMON_FIELDS)
_PPA_ROW = _fields("from", "read", "top", "to", "op", "move", "prob")


def _parse_ppa(doc):
    _check_keys(doc, "top level", _PPA_FIELDS)
    input_alphabet, stack_alphabet = _alphabets_from_doc(doc, "top level")

    def build(row, path):
        _check_keys(row, path, _PPA_ROW)
        return TransitionPPA(
            source=_string(row["from"], ".from"),
            read=_string(row["read"], ".read"),
            top=_string(row["top"], ".top"),
            target=_string(row["to"], ".to"),
            op=_op_from_doc(row["op"], ".op"),
            move=_move(row["move"], ".move"),
            prob=_number(row["prob"], ".prob"),
        )

    return MachinePPA(
        states=_string_list(doc["states"], "states"),
        input_alphabet=input_alphabet,
        stack_alphabet=stack_alphabet,
        transitions=_transitions(doc["transitions"], build),
        initial=_string(doc["initial"], "initial"),
        accepting=frozenset(_string_list(doc["accepting"], "accepting")),
        rejecting=frozenset(_string_list(doc["rejecting"], "rejecting")),
    )


# ======================================================================
# Serialize
# ======================================================================


def machine_to_doc(machine):
    if isinstance(machine, MachineQPAG):
        kind = "qpag"
    elif isinstance(machine, MachineQCPDA):
        kind = "qcpda"
    elif isinstance(machine, MachinePPA):
        kind = "ppa"
    else:
        raise SchemaError(f"not a machine: {type(machine).__name__}")
    doc = {
        "kind": kind,
        "states": list(machine.states),
        "input_alphabet": {
            "symbols": list(machine.input_alphabet.symbols),
            "left_end": machine.input_alphabet.left_end,
            "right_end": machine.input_alphabet.right_end,
        },
        "stack_alphabet": {
            "symbols": list(machine.stack_alphabet.symbols),
            "bottom": machine.stack_alphabet.bottom,
        },
        "initial": machine.initial,
        "accepting": sorted(machine.accepting),
        "rejecting": sorted(machine.rejecting),
    }
    if kind == "qpag" and machine.declared_push_strings:
        doc["push_strings"] = [tokens_doc(p) for p in machine.declared_push_strings]
    if kind == "qcpda":
        doc["sigma"] = {q: _op_to_doc(op) for q, op in machine.sigma}
    doc["transitions"] = [_transition_to_doc(kind, t) for t in machine.transitions]
    return doc


def _transition_to_doc(kind, t):
    row = {"from": t.source, "read": t.read, "top": t.top, "to": t.target}
    if kind != "qcpda":
        row["op"] = _op_to_doc(t.op)
    row["move"] = t.move
    if kind == "ppa":
        row["prob"] = t.prob
    else:
        row["amp"] = [t.amp.real, t.amp.imag]
    return row


def serialize_machine(machine) -> str:
    return emit_json(machine_to_doc(machine), floats="repr")
