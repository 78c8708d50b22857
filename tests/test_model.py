"""Core type and validation behaviour."""

import math

import pytest
from hypothesis import given, strategies as st

from qpag.errors import (
    EndmarkerInWord,
    InvariantError,
    UnknownSymbol,
)
from qpag.model import (
    EPSILON,
    POP,
    Configuration,
    InputAlphabet,
    MachineQPAG,
    StackAlphabet,
    StackOp,
    TransitionQPAG,
    default_max_steps,
    display_tape,
    join_tokens,
    make_tape,
    push,
    tokens_doc,
    vector_norm_sq,
)

from .corpus import cycle3, pushcycle


def test_stack_op_kinds():
    assert EPSILON.kind == "epsilon" and EPSILON.payload == ()
    assert POP.kind == "pop"
    p = push("x", "y")
    assert p.kind == "push" and p.payload == ("x", "y")
    assert p.describe() == "push:xy"
    assert EPSILON.describe() == "epsilon"
    assert POP.describe() == "pop"


def test_stack_op_validation():
    with pytest.raises(InvariantError):
        StackOp("push")  # push needs a payload
    with pytest.raises(InvariantError):
        StackOp("epsilon", ("x",))  # only push carries one
    with pytest.raises(InvariantError):
        StackOp("swap")


def test_make_tape_and_display():
    m = cycle3()
    assert make_tape(m, ("0", "1")) == ("<", "0", "1", ">")
    assert display_tape(m, make_tape(m, ("0",))) == "¢0$"
    with pytest.raises(UnknownSymbol):
        make_tape(m, ("q",))
    with pytest.raises(EndmarkerInWord):
        make_tape(m, ("<",))


def test_default_max_steps():
    assert default_max_steps(0) == 30
    assert default_max_steps(5) == 80


def test_machine_validation_errors():
    base = cycle3()
    with pytest.raises(InvariantError):
        MachineQPAG(
            states=base.states,
            input_alphabet=base.input_alphabet,
            stack_alphabet=base.stack_alphabet,
            transitions=base.transitions,
            initial="nope",
            accepting=frozenset(),
            rejecting=frozenset(),
        )
    with pytest.raises(InvariantError):
        # accept and reject sets must be disjoint
        MachineQPAG(
            states=base.states,
            input_alphabet=base.input_alphabet,
            stack_alphabet=base.stack_alphabet,
            transitions=base.transitions,
            initial="s0",
            accepting=frozenset({"s1"}),
            rejecting=frozenset({"s1"}),
        )
    with pytest.raises(InvariantError):
        # duplicate transition tuple
        MachineQPAG(
            states=base.states,
            input_alphabet=base.input_alphabet,
            stack_alphabet=base.stack_alphabet,
            transitions=base.transitions + (base.transitions[0],),
            initial="s0",
            accepting=frozenset({"s1"}),
            rejecting=frozenset(),
        )
    with pytest.raises(InvariantError):
        # amplitude magnitude above 1
        MachineQPAG(
            states=("a0",),
            input_alphabet=base.input_alphabet,
            stack_alphabet=base.stack_alphabet,
            transitions=(
                TransitionQPAG("a0", "0", "Z", "a0", EPSILON, 1, 1.5 + 0j),
            ),
            initial="a0",
            accepting=frozenset(),
            rejecting=frozenset(),
        )
    with pytest.raises(InvariantError):
        # pushing the bottom symbol is not allowed
        MachineQPAG(
            states=("a0",),
            input_alphabet=base.input_alphabet,
            stack_alphabet=StackAlphabet(symbols=("Z", "x"), bottom="Z"),
            transitions=(
                TransitionQPAG("a0", "0", "Z", "a0", push("Z"), 1, 1 + 0j),
            ),
            initial="a0",
            accepting=frozenset(),
            rejecting=frozenset(),
        )


def test_declared_push_strings():
    base = pushcycle()
    assert base.push_strings == (("x",), ("y",))
    assert base.push_string_universe == frozenset({("x",), ("y",)})
    from dataclasses import replace

    declared = replace(base, declared_push_strings=(("x",), ("y",), ("x", "y")))
    assert declared.push_strings == (("x",), ("y",))  # inferred stays as-is
    assert ("x", "y") in declared.push_string_universe
    with pytest.raises(InvariantError):
        replace(base, declared_push_strings=(("x",),))  # missing ("y",)


def test_configuration_shape():
    c = Configuration("s0", 2, ("Z", "a"), ("b",))
    d = c.to_json_dict()
    assert d["state"] == "s0" and d["head"] == 2
    # single-character tokens render as compact strings
    assert d["stack"] == "Za" and d["garbage"] == "b"


def test_vector_norm_sq():
    c1 = Configuration("s0", 0, ("Z",), ())
    c2 = Configuration("s1", 0, ("Z",), ())
    assert math.isclose(vector_norm_sq({c1: 0.6, c2: 0.8j}), 1.0)


@given(
    st.lists(
        st.text(alphabet="abcxyz", min_size=1, max_size=3), min_size=1, max_size=4
    )
)
def test_tokens_doc_roundtrip(tokens):
    doc = tokens_doc(tuple(tokens))
    if all(len(t) == 1 for t in tokens):
        assert doc == "".join(tokens)
    else:
        assert doc == list(tokens)


@given(st.lists(st.sampled_from(["a", "b", "zz"]), min_size=1, max_size=5))
def test_join_tokens_single_char_concat(tokens):
    joined = join_tokens(tuple(tokens))
    if all(len(t) == 1 for t in tokens):
        assert joined == "".join(tokens)
    else:
        assert joined == ",".join(tokens)


def test_all_exports_resolve():
    import qpag

    missing = [name for name in qpag.__all__ if not hasattr(qpag, name)]
    assert missing == []
