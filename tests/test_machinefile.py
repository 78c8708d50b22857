"""File schema: strictness, float fidelity, byte-stable round-trips."""

import copy
import json

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


def test_emit_float_modes():
    third = 1 / 3
    assert emit_json({"x": third}, floats="repr").strip() == '{\n  "x": %s\n}' % repr(third)
    assert '0.333333333333' in emit_json({"x": third}, floats="sig12")
    # negative zero is normalized
    assert "-0" not in emit_json({"x": -0.0})


def test_emit_unicode_literal():
    assert "¢" in emit_json({"tape": "¢a$"})


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


# Documents to fuzz: the built-in machine and a lowered image.
_FUZZ_DOCS = (
    machine_to_doc(problem1.build_machine()),
    machine_to_doc(compile_qcpda(random_qcpda(4))[0]),
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
