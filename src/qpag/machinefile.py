"""Machine files: strict JSON schema, canonical byte-stable emission.

Files carry full precision (floats rendered with repr, so parse(serialize(m))
reproduces m exactly); CLI reports render floats with 12 significant digits.
Key order is fixed by construction and the emitter never reorders, so equal
inputs produce byte-identical output.
"""

from __future__ import annotations

import json

from .errors import ParseError, SchemaError
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
    return repr(float(x))


def _float_sig12(x: float) -> str:
    if x == 0:
        x = 0.0
    return format(float(x), ".12g")


def emit_json(value, floats: str = "repr") -> str:
    """Render ``value`` as deterministic, indented JSON text.

    ``floats`` picks the float style: "repr" (exact round-trip, machine
    files) or "sig12" (12 significant digits, reports).
    """
    fmt = _float_repr if floats == "repr" else _float_sig12
    out: list[str] = []
    _emit(value, fmt, 0, out)
    out.append("\n")
    return "".join(out)


def _emit(value, fmt, indent, out):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(fmt(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            out.append(f"{inner}{json.dumps(str(k), ensure_ascii=False)}: ")
            _emit(v, fmt, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in items):
            body = ", ".join(
                fmt(x) if isinstance(x, float) else str(x) for x in items
            )
            out.append(f"[{body}]")
            return
        out.append("[\n")
        for i, x in enumerate(items):
            out.append(inner)
            _emit(x, fmt, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise SchemaError(f"cannot emit value of type {type(value).__name__}")


# ======================================================================
# Schema helpers
# ======================================================================


def _need(doc, key, path):
    if key not in doc:
        raise SchemaError(f"{path}: missing field {key!r}")
    return doc[key]


def _check_keys(doc, path, required, optional=()):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    extra = sorted(set(doc) - allowed)
    if extra:
        raise SchemaError(f"{path}: unknown fields {extra}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"{path}: missing field {key!r}")


def _string(value, path):
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{path}: expected a nonempty string")
    return value


def _string_list(value, path):
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected a list of strings")
    return tuple(_string(v, f"{path}[{i}]") for i, v in enumerate(value))


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
        return tuple(_string(v, f"{path}[{i}]") for i, v in enumerate(value))
    raise SchemaError(f"{path}: expected a string or a list of tokens")


def _amp(value, path):
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{path}: expected [re, im]")
    return complex(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


def _op_from_doc(doc, path):
    _check_keys(doc, path, required=("op",), optional=("string",))
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


def _alphabets_from_doc(doc, path):
    ia = _need(doc, "input_alphabet", path)
    _check_keys(ia, f"{path}.input_alphabet", ("symbols", "left_end", "right_end"))
    input_alphabet = InputAlphabet(
        symbols=_string_list(ia["symbols"], f"{path}.input_alphabet.symbols"),
        left_end=_string(ia["left_end"], f"{path}.input_alphabet.left_end"),
        right_end=_string(ia["right_end"], f"{path}.input_alphabet.right_end"),
    )
    sa = _need(doc, "stack_alphabet", path)
    _check_keys(sa, f"{path}.stack_alphabet", ("symbols", "bottom"))
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


def _transitions(doc, path, fields, build):
    if not isinstance(doc, list):
        raise SchemaError(f"{path}: expected a list of transitions")
    rows = []
    for i, row in enumerate(doc):
        p = f"{path}[{i}]"
        _check_keys(row, p, fields)
        rows.append(build(row, p))
    return tuple(rows)


# ======================================================================
# Parse
# ======================================================================


def parse_machine(text: str):
    """Parse a machine file; returns one of the three machine types."""
    try:
        doc = json.loads(text)
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


def _parse_qpag(doc):
    _check_keys(doc, "top level", _COMMON_FIELDS, optional=("push_strings",))
    input_alphabet, stack_alphabet = _alphabets_from_doc(doc, "top level")

    def build(row, p):
        return TransitionQPAG(
            source=_string(row["from"], f"{p}.from"),
            read=_string(row["read"], f"{p}.read"),
            top=_string(row["top"], f"{p}.top"),
            target=_string(row["to"], f"{p}.to"),
            op=_op_from_doc(row["op"], f"{p}.op"),
            move=_move(row["move"], f"{p}.move"),
            amp=_amp(row["amp"], f"{p}.amp"),
        )

    declared = ()
    if "push_strings" in doc:
        raw = doc["push_strings"]
        if not isinstance(raw, list):
            raise SchemaError("push_strings: expected a list")
        declared = tuple(
            _tokens(v, f"push_strings[{i}]") for i, v in enumerate(raw)
        )
    return MachineQPAG(
        states=_string_list(doc["states"], "states"),
        input_alphabet=input_alphabet,
        stack_alphabet=stack_alphabet,
        transitions=_transitions(
            doc["transitions"],
            "transitions",
            ("from", "read", "top", "to", "op", "move", "amp"),
            build,
        ),
        initial=_string(doc["initial"], "initial"),
        accepting=frozenset(_string_list(doc["accepting"], "accepting")),
        rejecting=frozenset(_string_list(doc["rejecting"], "rejecting")),
        declared_push_strings=declared,
    )


def _parse_qcpda(doc):
    _check_keys(doc, "top level", _COMMON_FIELDS + ("sigma",))
    input_alphabet, stack_alphabet = _alphabets_from_doc(doc, "top level")

    def build(row, p):
        return TransitionQCPDA(
            source=_string(row["from"], f"{p}.from"),
            read=_string(row["read"], f"{p}.read"),
            top=_string(row["top"], f"{p}.top"),
            target=_string(row["to"], f"{p}.to"),
            move=_move(row["move"], f"{p}.move"),
            amp=_amp(row["amp"], f"{p}.amp"),
        )

    sigma_doc = doc["sigma"]
    if not isinstance(sigma_doc, dict):
        raise SchemaError("sigma: expected an object mapping state to op")
    sigma = tuple(
        (state, _op_from_doc(op, f"sigma[{state!r}]"))
        for state, op in sigma_doc.items()
    )
    return MachineQCPDA(
        states=_string_list(doc["states"], "states"),
        input_alphabet=input_alphabet,
        stack_alphabet=stack_alphabet,
        transitions=_transitions(
            doc["transitions"],
            "transitions",
            ("from", "read", "top", "to", "move", "amp"),
            build,
        ),
        sigma=sigma,
        initial=_string(doc["initial"], "initial"),
        accepting=frozenset(_string_list(doc["accepting"], "accepting")),
        rejecting=frozenset(_string_list(doc["rejecting"], "rejecting")),
    )


def _parse_ppa(doc):
    _check_keys(doc, "top level", _COMMON_FIELDS)
    input_alphabet, stack_alphabet = _alphabets_from_doc(doc, "top level")

    def build(row, p):
        return TransitionPPA(
            source=_string(row["from"], f"{p}.from"),
            read=_string(row["read"], f"{p}.read"),
            top=_string(row["top"], f"{p}.top"),
            target=_string(row["to"], f"{p}.to"),
            op=_op_from_doc(row["op"], f"{p}.op"),
            move=_move(row["move"], f"{p}.move"),
            prob=_number(row["prob"], f"{p}.prob"),
        )

    return MachinePPA(
        states=_string_list(doc["states"], "states"),
        input_alphabet=input_alphabet,
        stack_alphabet=stack_alphabet,
        transitions=_transitions(
            doc["transitions"],
            "transitions",
            ("from", "read", "top", "to", "op", "move", "prob"),
            build,
        ),
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
