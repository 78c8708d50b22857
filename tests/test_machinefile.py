"""File schema: strictness, float fidelity, byte-stable round-trips."""

import copy
import json
import sys
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpag import problem1
from qpag.compiler import compile_qcpda
from qpag.errors import InvariantError, MachineError, ParseError, SchemaError
from qpag.machinefile import (
    emit_json,
    machine_to_doc,
    parse_machine,
    serialize_machine,
)
from qpag.model import MachinePPA, MachineQCPDA, MachineQPAG
from qpag.simulate import run
from qpag.wellformed import check_qpag

from .corpus import TOTAL_MACHINES, coin_ppa, dpda_wcwr
from .generators import random_qcpda


def _doc():
    """A minimal valid qpag document to mutate in schema tests."""
    return {
        "kind": "qpag",
        "states": ["s0"],
        "input_alphabet": {
            "symbols": ["<", "0", ">"],
            "left_end": "<",
            "right_end": ">",
        },
        "stack_alphabet": {"symbols": ["Z"], "bottom": "Z"},
        "initial": "s0",
        "accepting": [],
        "rejecting": [],
        "transitions": [
            {
                "from": "s0",
                "read": "0",
                "top": "Z",
                "to": "s0",
                "op": {"op": "epsilon"},
                "move": 1,
                "amp": [1.0, 0.0],
            }
        ],
    }


def _qcpda_doc():
    """``_doc`` as a qcpda: no row op, one scheduled op per state."""
    doc = _doc()
    doc["kind"] = "qcpda"
    del doc["transitions"][0]["op"]
    doc["sigma"] = {"s0": {"op": "epsilon"}}
    return doc


def _ppa_doc():
    """``_doc`` as a ppa: ``prob`` in place of ``amp``."""
    doc = _doc()
    doc["kind"] = "ppa"
    del doc["transitions"][0]["amp"]
    doc["transitions"][0]["prob"] = 1.0
    return doc


def test_parse_minimal():
    m = parse_machine(json.dumps(_doc()))
    assert isinstance(m, MachineQPAG)
    assert m.transitions[0].amp == 1 + 0j


def test_parse_bad_json_is_parse_error():
    with pytest.raises(ParseError):
        parse_machine("{not json")


def test_parse_unknown_key_rejected():
    doc = _doc()
    doc["extra"] = 1
    with pytest.raises(SchemaError):
        parse_machine(json.dumps(doc))


def test_parse_unknown_transition_key_rejected():
    doc = _doc()
    doc["transitions"][0]["weight"] = 2
    with pytest.raises(SchemaError):
        parse_machine(json.dumps(doc))


def test_parse_bool_move_rejected():
    doc = _doc()
    doc["transitions"][0]["move"] = True
    with pytest.raises(SchemaError):
        parse_machine(json.dumps(doc))


def test_parse_move_out_of_range_is_invariant_error():
    doc = _doc()
    doc["transitions"][0]["move"] = 2
    with pytest.raises(InvariantError):
        parse_machine(json.dumps(doc))


def test_parse_string_on_non_push_rejected():
    doc = _doc()
    doc["transitions"][0]["op"] = {"op": "pop", "string": "x"}
    with pytest.raises(SchemaError):
        parse_machine(json.dumps(doc))


def test_parse_push_without_string_rejected():
    doc = _doc()
    doc["transitions"][0]["op"] = {"op": "push"}
    with pytest.raises(SchemaError):
        parse_machine(json.dumps(doc))


def test_parse_amp_must_be_pair():
    doc = _doc()
    doc["transitions"][0]["amp"] = [1.0]
    with pytest.raises(SchemaError):
        parse_machine(json.dumps(doc))


def test_parse_unknown_kind():
    doc = _doc()
    doc["kind"] = "turing"
    with pytest.raises(SchemaError):
        parse_machine(json.dumps(doc))


def test_semantic_errors_are_invariant_errors():
    doc = _doc()
    doc["initial"] = "missing"
    with pytest.raises(InvariantError):
        parse_machine(json.dumps(doc))


_DELETE = object()
_ROW = {
    "from": "s0", "read": "0", "top": "Z", "to": "s0",
    "op": {"op": "epsilon"}, "move": 1, "amp": [1.0, 0.0],
}


def _edited(base, edits):
    """``base()`` with each ``path: value`` edit applied; a value of
    ``_DELETE`` removes the key, and an index one past a list appends."""
    doc = base()
    for path, value in edits.items():
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        elif isinstance(parent, list) and path[-1] == len(parent):
            parent.append(value)
        else:
            parent[path[-1]] = value
    return doc


_T0 = ("transitions", 0)
_OP0 = _T0 + ("op",)

# (base document, edits, error type, exact message): one row per message
# the parser can give, so a change to how paths are built shows up here.
_BAD_DOCS = {
    "top-level-unknown": (_doc, {("zeta",): 1, ("alpha",): 2}, SchemaError, "top level: unknown fields ['alpha', 'zeta']"),
    "top-level-missing": (_doc, {("states",): _DELETE}, SchemaError, "top level: missing field 'states'"),
    "top-level-missing-kind": (_doc, {("kind",): _DELETE}, SchemaError, "top level: missing field 'kind'"),
    "top-level-unknown-before-missing": (_doc, {("extra",): 1, ("initial",): _DELETE}, SchemaError, "top level: unknown fields ['extra']"),
    "top-level-push-strings-on-qcpda": (_qcpda_doc, {("push_strings",): []}, SchemaError, "top level: unknown fields ['push_strings']"),
    "top-level-missing-sigma": (_qcpda_doc, {("sigma",): _DELETE}, SchemaError, "top level: missing field 'sigma'"),
    "kind-not-string": (_doc, {("kind",): 5}, SchemaError, "kind: expected a nonempty string"),
    "kind-unknown": (_doc, {("kind",): "turing"}, SchemaError, "kind: unknown machine kind 'turing'"),
    "input-alphabet-unknown": (_doc, {("input_alphabet", "extra"): 1}, SchemaError, "top level.input_alphabet: unknown fields ['extra']"),
    "input-alphabet-missing": (_doc, {("input_alphabet", "right_end"): _DELETE}, SchemaError, "top level.input_alphabet: missing field 'right_end'"),
    "input-alphabet-not-object": (_doc, {("input_alphabet",): ["<", ">"]}, SchemaError, "top level.input_alphabet: expected an object"),
    "input-alphabet-symbol": (_doc, {("input_alphabet", "symbols", 1): ""}, SchemaError, "top level.input_alphabet.symbols[1]: expected a nonempty string"),
    "input-alphabet-endmarker": (_doc, {("input_alphabet", "left_end"): 0}, SchemaError, "top level.input_alphabet.left_end: expected a nonempty string"),
    "stack-alphabet-missing": (_doc, {("stack_alphabet", "bottom"): _DELETE}, SchemaError, "top level.stack_alphabet: missing field 'bottom'"),
    "stack-alphabet-extra": (_doc, {("stack_alphabet", "top"): "Z"}, SchemaError, "top level.stack_alphabet: unknown fields ['top']"),
    "stack-alphabet-symbols": (_doc, {("stack_alphabet", "symbols"): "Z"}, SchemaError, "top level.stack_alphabet.symbols: expected a list of strings"),
    "states-not-list": (_doc, {("states",): "s0"}, SchemaError, "states: expected a list of strings"),
    "initial-empty": (_doc, {("initial",): ""}, SchemaError, "initial: expected a nonempty string"),
    "accepting-entry": (_doc, {("accepting",): ["s0", 1]}, SchemaError, "accepting[1]: expected a nonempty string"),
    "transitions-not-list": (_doc, {("transitions",): {}}, SchemaError, "transitions: expected a list of transitions"),
    "row-not-object": (_doc, {_T0: [1]}, SchemaError, "transitions[0]: expected an object"),
    "row-unknown": (_doc, {_T0 + ("weight",): 2}, SchemaError, "transitions[0]: unknown fields ['weight']"),
    "row-missing": (_doc, {_T0 + ("amp",): _DELETE}, SchemaError, "transitions[0]: missing field 'amp'"),
    "row-unknown-and-missing": (_doc, {_T0 + ("to",): _DELETE, _T0 + ("target",): "s0", _T0 + ("amplitude",): 1}, SchemaError, "transitions[0]: unknown fields ['amplitude', 'target']"),
    "second-row-missing": (_doc, {("transitions", 1): {k: v for k, v in _ROW.items() if k != "from"}}, SchemaError, "transitions[1]: missing field 'from'"),
    "row-field-not-string": (_doc, {_T0 + ("top",): ["Z"]}, SchemaError, "transitions[0].top: expected a nonempty string"),
    "amp-short": (_doc, {_T0 + ("amp",): [1.0]}, SchemaError, "transitions[0].amp: expected [re, im]"),
    "amp-not-list": (_doc, {_T0 + ("amp",): 1.0}, SchemaError, "transitions[0].amp: expected [re, im]"),
    "amp-re-string": (_doc, {_T0 + ("amp",): ["1", 0]}, SchemaError, "transitions[0].amp[0]: expected a number"),
    "amp-im-null": (_doc, {_T0 + ("amp",): [1, None]}, SchemaError, "transitions[0].amp[1]: expected a number"),
    "amp-re-bool": (_doc, {_T0 + ("amp",): [True, 0]}, SchemaError, "transitions[0].amp[0]: expected a number"),
    "amp-huge": (_doc, {_T0 + ("amp",): [0, 10**400]}, SchemaError, "transitions[0].amp[1]: number out of range"),
    "move-bool": (_doc, {_T0 + ("move",): True}, SchemaError, "transitions[0].move: expected an integer head move"),
    "move-float": (_doc, {_T0 + ("move",): 1.0}, SchemaError, "transitions[0].move: expected an integer head move"),
    "op-not-object": (_doc, {_OP0: "pop"}, SchemaError, "transitions[0].op: expected an object"),
    "op-unknown": (_doc, {_OP0: {"op": "pop", "count": 1}}, SchemaError, "transitions[0].op: unknown fields ['count']"),
    "op-missing": (_doc, {_OP0: {"string": "Z"}}, SchemaError, "transitions[0].op: missing field 'op'"),
    "op-kind-not-string": (_doc, {_OP0: {"op": 3}}, SchemaError, "transitions[0].op.op: expected a nonempty string"),
    "op-kind-unknown": (_doc, {_OP0: {"op": "swap"}}, SchemaError, "transitions[0].op: unknown op 'swap'"),
    "push-without-string": (_doc, {_OP0: {"op": "push"}}, SchemaError, "transitions[0].op: push needs a 'string' field"),
    "string-on-pop": (_doc, {_OP0: {"op": "pop", "string": "Z"}}, SchemaError, "transitions[0].op: pop carries no 'string' field"),
    "string-on-unknown-op": (_doc, {_OP0: {"op": "swap", "string": "Z"}}, SchemaError, "transitions[0].op: swap carries no 'string' field"),
    "push-string-not-tokens": (_doc, {_OP0: {"op": "push", "string": 5}}, SchemaError, "transitions[0].op.string: expected a string or a list of tokens"),
    "push-string-bad-token": (_doc, {_OP0: {"op": "push", "string": ["Z", ""]}}, SchemaError, "transitions[0].op.string[1]: expected a nonempty string"),
    "second-row-push-bad-token": (_doc, {("transitions", 1): dict(_ROW, read="<", op={"op": "push", "string": [None]})}, SchemaError, "transitions[1].op.string[0]: expected a nonempty string"),
    "push-strings-not-list": (_doc, {("push_strings",): "Z"}, SchemaError, "push_strings: expected a list"),
    "push-strings-entry": (_doc, {("push_strings",): ["Z", 5]}, SchemaError, "push_strings[1]: expected a string or a list of tokens"),
    "push-strings-token": (_doc, {("push_strings",): [["Z", ""]]}, SchemaError, "push_strings[0][1]: expected a nonempty string"),
    "sigma-not-object": (_qcpda_doc, {("sigma",): [{"op": "pop"}]}, SchemaError, "sigma: expected an object mapping state to op"),
    "sigma-entry-not-object": (_qcpda_doc, {("sigma", "s0"): "pop"}, SchemaError, "sigma['s0']: expected an object"),
    "sigma-push-without-string": (_qcpda_doc, {("sigma", "s0"): {"op": "push"}}, SchemaError, "sigma['s0']: push needs a 'string' field"),
    "sigma-bad-token": (_qcpda_doc, {("sigma", "s0"): {"op": "push", "string": [""]}}, SchemaError, "sigma['s0'].string[0]: expected a nonempty string"),
    "qcpda-row-with-op": (_qcpda_doc, {_T0 + ("op",): {"op": "pop"}}, SchemaError, "transitions[0]: unknown fields ['op']"),
    "ppa-prob-string": (_ppa_doc, {_T0 + ("prob",): "1"}, SchemaError, "transitions[0].prob: expected a number"),
    "ppa-row-with-amp": (_ppa_doc, {_T0 + ("amp",): [1.0, 0.0]}, SchemaError, "transitions[0]: unknown fields ['amp']"),
}


@pytest.mark.parametrize("name", sorted(_BAD_DOCS))
def test_parse_error_messages(name):
    base, edits, error, message = _BAD_DOCS[name]
    with pytest.raises(MachineError) as caught:
        parse_machine(json.dumps(_edited(base, edits)))
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("{not json", ParseError, "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("", ParseError, "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[]", SchemaError, "top level: expected an object"),
        ('"qpag"', SchemaError, "top level: expected an object"),
    ],
)
def test_parse_error_messages_of_texts(text, error, message):
    with pytest.raises(MachineError) as caught:
        parse_machine(text)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
        ('{"kind": ' + "1" * 5000 + "}", r"invalid JSON: Exceeds the limit \(\d+ digits\) for integer string"),
    ],
    ids=["nested-too-deep", "int-past-digit-limit"],
)
def test_parse_error_of_json_that_json_loads_cannot_hold(text, message):
    # json.loads raises RecursionError and ValueError here, not JSONDecodeError
    with pytest.raises(ParseError, match=f"^{message}"):
        parse_machine(text)


def test_machine_to_doc_refuses_a_non_machine():
    with pytest.raises(SchemaError, match="^not a machine: object$"):
        machine_to_doc(object())


@pytest.mark.parametrize(
    "once, twice, key",
    [
        ('"initial": "s0"', '"initial": "zz", "initial": "s0"', "initial"),
        ('"move": 1', '"move": 0, "move": 1', "move"),
        ('"op": "epsilon"', '"op": "pop", "op": "epsilon"', "op"),
        ('"bottom": "Z"', '"bottom": "Z", "bottom": "Z"', "bottom"),
    ],
)
def test_parse_rejects_duplicate_keys(once, twice, key):
    # json.loads alone keeps the last value; the parser must not
    text = json.dumps(_doc())
    assert text.count(once) == 1
    with pytest.raises(SchemaError) as caught:
        parse_machine(text.replace(once, twice))
    assert str(caught.value) == f"duplicate field {key!r}"


def test_emit_float_modes():
    third = 1 / 3
    assert emit_json({"x": third}, floats="repr").strip() == '{\n  "x": %s\n}' % repr(third)
    assert '0.333333333333' in emit_json({"x": third}, floats="sig12")
    # negative zero is normalized
    assert "-0" not in emit_json({"x": -0.0})


def test_emit_unicode_literal():
    assert "¢" in emit_json({"tape": "¢a$"})


def test_emit_rejects_unknown_float_style():
    for floats in ("bogus", "sig", "REPR", None):
        with pytest.raises(InvariantError) as caught:
            emit_json({"x": 0.5}, floats=floats)
        assert str(caught.value) == f"unknown float style {floats!r}"


@pytest.mark.parametrize(
    "value, name",
    [({1, 2}, "set"), (b"ab", "bytes"), (1j, "complex"), ([1, {"x": frozenset()}], "frozenset")],
)
def test_emit_rejects_unknown_types(value, name):
    for emit in (emit_json, reference_emit_json):
        with pytest.raises(SchemaError) as caught:
            emit(value)
        assert str(caught.value) == f"cannot emit value of type {name}"


# ----------------------------------------------------------------------
# Reference emitter: emit_json as it was written before it was tuned, one
# json.dumps call per string. emit_json must give exactly its bytes.
# ----------------------------------------------------------------------


def _ref_float_repr(x: float) -> str:
    if x == 0:
        x = 0.0
    return repr(float(x))


def _ref_float_sig12(x: float) -> str:
    if x == 0:
        x = 0.0
    return format(float(x), ".12g")


def reference_emit_json(value, floats: str = "repr") -> str:
    fmt = _ref_float_repr if floats == "repr" else _ref_float_sig12
    out: list[str] = []
    _reference_emit(value, fmt, 0, out)
    out.append("\n")
    return "".join(out)


def _reference_emit(value, fmt, indent, out):
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
            _reference_emit(v, fmt, indent + 1, out)
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
            _reference_emit(x, fmt, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise SchemaError(f"cannot emit value of type {type(value).__name__}")


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


_Pair = namedtuple("_Pair", "first second")

_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80  ¢é€\U0001f600'),
        st.characters(),
    ),
    max_size=6,
)
# finite floats only: emit_json rejects nan and the infinities, which the
# reference emitter wrote as bare tokens (test_emit_rejects_non_finite_floats)
_NUMBERS = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 10**400, -(10**400), 1e-320, 5e-324, 1.7976931348623157e308]),
    st.builds(_Int, st.integers()),
    st.builds(_Float, st.floats(allow_nan=False, allow_infinity=False)),
)
_JSON_LIKE = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, _TEXT, st.builds(_Str, _TEXT)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.builds(_Pair, inner, inner),
        st.dictionaries(st.one_of(_TEXT, st.integers()), inner, max_size=4),
        st.lists(_NUMBERS, max_size=4),
        st.lists(st.one_of(st.booleans(), _NUMBERS), max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_LIKE)
def test_emit_matches_reference(value):
    for floats in ("repr", "sig12"):
        assert emit_json(value, floats=floats) == reference_emit_json(value, floats=floats)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), _Float("nan")])
@pytest.mark.parametrize(
    "place",
    [
        lambda x: x,
        lambda x: {"result": {"p_acc": 0.5, "p_non": x}},
        lambda x: [{"amp": [0.5, x]}],
        lambda x: {"amp": [1, 2.5, x]},
        lambda x: [True, x],
    ],
    ids=["top", "nested", "nested-list", "number-list", "mixed-list"],
)
def test_emit_rejects_non_finite_floats(bad, place):
    # JSON has no nan or infinity: a bare token would break every reader
    for floats in ("repr", "sig12"):
        with pytest.raises(SchemaError) as caught:
            emit_json(place(bad), floats=floats)
        assert str(caught.value) == f"cannot emit non-finite float {float(bad)!r}"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize(
    "place",
    [lambda x: x, lambda x: {"checked": x}, lambda x: [1, x], lambda x: [True, x]],
    ids=["top", "nested", "number-list", "mixed-list"],
)
def test_emit_refuses_an_int_past_the_digit_limit(place):
    # CPython refuses to convert an int of more than 4,300 digits (by
    # default) to text; the emitter names that limit in a SchemaError
    # rather than letting the interpreter's ValueError through
    with pytest.raises(SchemaError) as caught:
        emit_json(place(10**5000))
    assert str(caught.value) == f"cannot emit an int of more than {sys.get_int_max_str_digits()} digits"


def test_emit_matches_reference_on_machines_and_reports():
    machines = [problem1.build_machine(), coin_ppa(), dpda_wcwr()]
    machines += [m for seed in range(4) for m in (random_qcpda(seed), compile_qcpda(random_qcpda(seed))[0])]
    for m in machines:
        doc = machine_to_doc(m)
        assert serialize_machine(m) == reference_emit_json(doc)
        assert emit_json(doc, floats="sig12") == reference_emit_json(doc, floats="sig12")
    builtin = problem1.build_machine()
    word = problem1.generate(3, "yes", seed=7).tokens()
    reports = [
        check_qpag(builtin, mode="total").to_json_dict(),
        run(builtin, word, trace_depth=2).to_json_dict(),
    ]
    for report in reports:
        assert emit_json(report, floats="sig12") == reference_emit_json(report, floats="sig12")


def test_roundtrip_builtin():
    m = problem1.build_machine()
    text = serialize_machine(m)
    again = parse_machine(text)
    assert again == m
    assert serialize_machine(again) == text


@pytest.mark.parametrize("name", sorted(TOTAL_MACHINES))
def test_roundtrip_total_corpus(name):
    m = TOTAL_MACHINES[name]()
    text = serialize_machine(m)
    assert parse_machine(text) == m


def test_roundtrip_ppa_and_dpda():
    for m in (coin_ppa(), dpda_wcwr()):
        text = serialize_machine(m)
        again = parse_machine(text)
        assert isinstance(again, MachinePPA)
        assert again == m
        assert serialize_machine(again) == text


@pytest.mark.parametrize("seed", range(6))
def test_roundtrip_random_qcpda(seed):
    m = random_qcpda(seed)
    text = serialize_machine(m)
    again = parse_machine(text)
    assert isinstance(again, MachineQCPDA)
    assert again == m
    assert serialize_machine(again) == text


def test_serialize_key_order_stable():
    m = problem1.build_machine()
    doc = machine_to_doc(m)
    assert list(doc)[:3] == ["kind", "states", "input_alphabet"]
    assert list(doc)[-1] == "transitions"


def test_multichar_tokens_as_lists():
    doc = _doc()
    doc["stack_alphabet"] = {"symbols": ["Z", "mark"], "bottom": "Z"}
    doc["transitions"][0]["op"] = {"op": "push", "string": ["mark"]}
    m = parse_machine(json.dumps(doc))
    assert m.stack_alphabet.symbols == ("Z", "mark")
    assert m.transitions[0].op.payload == ("mark",)
    assert parse_machine(serialize_machine(m)) == m


def test_roundtrip_declared_push_strings():
    # multi-character tokens, and declared strings that no row pushes
    doc = _doc()
    doc["stack_alphabet"] = {"symbols": ["Z", "mark", "x"], "bottom": "Z"}
    doc["transitions"][0]["op"] = {"op": "push", "string": ["mark"]}
    doc["push_strings"] = [["mark"], ["mark", "x"], "x"]
    m = parse_machine(json.dumps(doc))
    assert m.declared_push_strings == (("mark",), ("mark", "x"), ("x",))
    assert m.push_strings == (("mark",),)
    written = machine_to_doc(m)
    assert list(written)[-2:] == ["push_strings", "transitions"]
    assert written["push_strings"] == [["mark"], ["mark", "x"], "x"]
    text = serialize_machine(m)
    again = parse_machine(text)
    assert again == m
    assert serialize_machine(again) == text


# Documents to fuzz, one or more of each kind: the built-in machine and a
# lowered image (qpag), a scheduled-stack machine (its sigma) and a
# deterministic pushdown machine (its prob rows).
_FUZZ_DOCS = (
    machine_to_doc(problem1.build_machine()),
    machine_to_doc(compile_qcpda(random_qcpda(4))[0]),
    machine_to_doc(random_qcpda(4)),
    machine_to_doc(dpda_wcwr()),
)

_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
)


def _value_paths(value, path=()):
    """The path to every value below ``value``, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _value_paths(child, path + (key,))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_machine_fuzz_one_value(data):
    # one value of a valid file replaced by an arbitrary leaf: the parser
    # returns a machine or raises a MachineError, never anything else
    doc = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_DOCS)))
    path = data.draw(st.sampled_from(list(_value_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(_LEAVES)
    try:
        machine = parse_machine(json.dumps(doc))
    except MachineError:
        return
    assert isinstance(machine, (MachineQPAG, MachineQCPDA, MachinePPA))
