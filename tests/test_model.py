"""Core type and validation behaviour."""

import importlib
import json
import math
import random
import re
import subprocess
import sys
from qpag.model import replace
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from qpag.errors import (
    EndmarkerInWord,
    InvariantError,
    UnknownSymbol,
)
from qpag import problem1
from qpag.compiler import compile_qcpda
from qpag.model import (
    EPSILON,
    GARBAGE_POP,
    POP,
    SCHEDULED_POP,
    Configuration,
    InputAlphabet,
    MachinePPA,
    MachineQCPDA,
    MachineQPAG,
    RunResult,
    StackAlphabet,
    StackOp,
    StepSnapshot,
    TransitionPPA,
    TransitionQCPDA,
    TransitionQPAG,
    default_max_steps,
    display_tape,
    join_tokens,
    make_tape,
    push,
    tokens_doc,
    vector_norm_sq,
)
from qpag.branching import run_qcpda
from qpag.classical import run_ppa
from qpag.simulate import run
from qpag.wellformed import Violation, audit_unitarity

from .corpus import TOTAL_MACHINES, coin_ppa, cycle3, dpda_wcwr, mutants, pushcycle
from .generators import random_qcpda, row_columns
from .test_classical_walk import random_ppa


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


def _multi_character_machine() -> MachineQPAG:
    """A two-state machine whose input tokens are several characters long."""
    return MachineQPAG(
        states=("s", "t"),
        input_alphabet=InputAlphabet(symbols=("<<", "ab", "c", ">>"), left_end="<<", right_end=">>"),
        stack_alphabet=StackAlphabet(symbols=("Z",), bottom="Z"),
        transitions=(TransitionQPAG("s", "ab", "Z", "t", EPSILON, 1, 1),),
        initial="s",
        accepting=frozenset({"t"}),
        rejecting=frozenset(),
    )


@pytest.mark.parametrize(
    "machine, word, error, message",
    [
        (cycle3, ("0", "<", "q"), EndmarkerInWord, "word contains endmarker token '<'"),
        (cycle3, ("0", "q", ">"), UnknownSymbol, "word contains unknown symbol 'q'"),
        (cycle3, "01>0", EndmarkerInWord, "word contains endmarker token '>'"),
        (cycle3, ("1", ["0"]), UnknownSymbol, "word contains unknown symbol ['0']"),
        (_multi_character_machine, ("ab", "zz", ">>"), UnknownSymbol, "word contains unknown symbol 'zz'"),
        (_multi_character_machine, ("c", ">>", "zz"), EndmarkerInWord, "word contains endmarker token '>>'"),
        (_multi_character_machine, ("<<",), EndmarkerInWord, "word contains endmarker token '<<'"),
        # a word given as one string is split into characters
        (_multi_character_machine, "ab", UnknownSymbol, "word contains unknown symbol 'a'"),
    ],
    ids=["endmarker-first", "unknown-first", "string", "unhashable", "multi-unknown-first", "multi-endmarker-first", "multi-left-end", "multi-as-string"],
)
def test_make_tape_names_the_first_offending_token(machine, word, error, message):
    with pytest.raises(error) as caught:
        make_tape(machine(), word)
    assert str(caught.value) == message


def test_make_tape_takes_multi_character_tokens():
    m = _multi_character_machine()
    assert make_tape(m, ("ab", "c", "ab")) == ("<<", "ab", "c", "ab", ">>")
    assert make_tape(m, ()) == ("<<", ">>")


class _Unhashable:
    """A token equal to one symbol of the alphabet that no set can hold."""

    __hash__ = None

    def __init__(self, symbol):
        self.symbol = symbol

    def __eq__(self, other):
        return other == self.symbol

    def __repr__(self):
        return f"_Unhashable({self.symbol!r})"


@pytest.mark.parametrize(
    "machine, call",
    [
        (cycle3, make_tape),
        (cycle3, run),
        (lambda: random_qcpda(0), run_qcpda),
        (coin_ppa, run_ppa),
        (cycle3, lambda m, w: audit_unitarity(m, w, depth=2)),
    ],
    ids=["make_tape", "run", "run_qcpda", "run_ppa", "audit_unitarity"],
)
def test_unhashable_token_equal_to_a_symbol_is_unknown(machine, call):
    m = machine()
    symbol = sorted(m.input_alphabet.word_symbols)[0]
    token = _Unhashable(symbol)
    assert token == symbol
    with pytest.raises(UnknownSymbol) as caught:
        call(m, (symbol, token, symbol))
    assert str(caught.value) == f"word contains unknown symbol _Unhashable({symbol!r})"


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


def _qpag_row(op=EPSILON, amp=1 + 0j):
    return TransitionQPAG("s0", "0", "Z", "s1", op, 1, amp)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: InputAlphabet(("<", "a"), "<", ">"), "right endmarker must be an input symbol"),
        (lambda: InputAlphabet(("a", ">"), "<", ">"), "left endmarker must be an input symbol"),
        (lambda: InputAlphabet(("<", "a"), "<", "<"), "endmarkers must be distinct"),
        (lambda: StackAlphabet(("Z", "x"), "Y"), "bottom symbol must be a stack symbol"),
        (lambda: StackAlphabet((), "Z"), "stack alphabet is empty"),
        (lambda: InputAlphabet(("<", "a", "a", ">"), "<", ">"), "input alphabet has duplicate symbols"),
        (lambda: StackAlphabet(("Z", ""), "Z"), "stack alphabet symbol '' is not a nonempty token"),
        (lambda: StackAlphabet(("Z", 1), "Z"), "stack alphabet symbol 1 is not a nonempty token"),
        (
            lambda: replace(cycle3(), transitions=(_qpag_row(push("x")),)),
            "push string uses unknown stack symbol 'x'",
        ),
        (lambda: replace(cycle3(), states=()), "machine has no states"),
        (lambda: replace(cycle3(), states=("s0", "s1", "s2", "s1")), "duplicate state names"),
        (lambda: replace(cycle3(), rejecting=frozenset({"zz"})), "halting state 'zz' is not a state"),
        (
            lambda: replace(cycle3(), transitions=(_qpag_row(amp=complex(math.inf, 0)),)),
            "amplitude must be finite",
        ),
        (
            lambda: replace(coin_ppa(), transitions=(replace(coin_ppa().transitions[0], prob=math.nan),)),
            "probability must be finite",
        ),
        (lambda: replace(random_qcpda(0), sigma=random_qcpda(0).sigma * 2), "sigma lists a state twice"),
        (
            lambda: replace(random_qcpda(1), sigma=random_qcpda(1).sigma[1:]),
            "sigma domain must be exactly the non-halting states",
        ),
        (
            lambda: replace(random_qcpda(0), sigma=random_qcpda(0).sigma + (("t1", EPSILON),)),
            "sigma domain must be exactly the non-halting states",
        ),
    ],
    ids=[
        "right-end-missing",
        "left-end-missing",
        "equal-endmarkers",
        "bottom-missing",
        "empty-alphabet",
        "duplicate-symbol",
        "empty-symbol",
        "non-str-symbol",
        "push-unknown-symbol",
        "no-states",
        "duplicate-states",
        "halting-not-a-state",
        "infinite-amplitude",
        "nan-probability",
        "sigma-state-twice",
        "sigma-misses-a-state",
        "sigma-names-a-halting-state",
    ],
)
def test_machine_validation_refusals(build, message):
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        build()


def test_declared_push_strings():
    base = pushcycle()
    assert base.push_strings == (("x",), ("y",))
    assert base.push_string_universe == frozenset({("x",), ("y",)})
    declared = replace(base, declared_push_strings=(("x",), ("y",), ("x", "y")))
    assert declared.push_strings == (("x",), ("y",))  # inferred stays as-is
    assert ("x", "y") in declared.push_string_universe
    with pytest.raises(InvariantError):
        replace(base, declared_push_strings=(("x",),))  # missing ("y",)


_OWN_ROWS = {
    TransitionQPAG: cycle3,
    TransitionQCPDA: lambda: random_qcpda(0),
    TransitionPPA: coin_ppa,
}


def _rows_as(row_class, rows):
    """The same (source, read, top, target, move) rows as ``row_class``."""
    out = []
    for t in rows:
        weight = t.prob if isinstance(t, TransitionPPA) else t.amp
        kw = dict(source=t.source, read=t.read, top=t.top, target=t.target, move=t.move)
        if row_class is not TransitionQCPDA:
            kw["op"] = getattr(t, "op", EPSILON)
        if row_class is TransitionPPA:
            kw["prob"] = abs(weight)
        else:
            kw["amp"] = complex(weight)
        out.append(row_class(**kw))
    return tuple(out)


@pytest.mark.parametrize(
    "own, foreign",
    list(permutations(_OWN_ROWS, 2)),
    ids=lambda c: c.__name__,
)
def test_rows_of_another_machine_kind_rejected(own, foreign):
    machine = _OWN_ROWS[own]()
    assert replace(machine, transitions=_rows_as(own, machine.transitions)) == machine
    with pytest.raises(InvariantError, match=f"not a {own.__name__}"):
        replace(machine, transitions=_rows_as(foreign, machine.transitions))


@pytest.mark.parametrize("move", [True, False, 1.0, 2], ids=repr)
@pytest.mark.parametrize("row_class", list(_OWN_ROWS), ids=lambda c: c.__name__)
def test_head_move_that_is_not_an_int_rejected(row_class, move):
    # True == 1 and 1.0 == 1, but the file reader refuses ``"move": true``
    # and ``"move": 1.0``, so the model refuses them too
    machine = _OWN_ROWS[row_class]()
    first, *rest = machine.transitions
    with pytest.raises(InvariantError, match="head move must be 0 or 1"):
        replace(machine, transitions=(replace(first, move=move), *rest))


# ----------------------------------------------------------------------
# Frozen records: repr, equality, hash, immutability, replace
# ----------------------------------------------------------------------

_SIGMA = InputAlphabet(("<", "a", ">"), "<", ">")
_GAMMA = StackAlphabet(("Z", "x"), "Z")
_SNAP = StepSnapshot(1, ((Configuration("q0", 1, ("Z", "a"), ("b",)), 0.5 - 0.5j),), 0.25, 0.0)

# Each text is the repr the record had when the records were dataclasses.
# Error messages print rows, so the format must not drift.
_REPRS = [
    (StackOp("push", ("x", "y")), "StackOp(kind='push', payload=('x', 'y'))"),
    (EPSILON, "StackOp(kind='epsilon', payload=())"),
    (
        TransitionQPAG("q0", "<", "Z", "qa", push("x"), 1, 1 + 0j),
        "TransitionQPAG(source='q0', read='<', top='Z', target='qa', "
        "op=StackOp(kind='push', payload=('x',)), move=1, amp=(1+0j))",
    ),
    (
        TransitionQCPDA("q0", "<", "Z", "qa", 0, -1j),
        "TransitionQCPDA(source='q0', read='<', top='Z', target='qa', move=0, amp=(-0-1j))",
    ),
    (
        TransitionPPA("q0", "<", "Z", "qa", POP, 1, 1.0),
        "TransitionPPA(source='q0', read='<', top='Z', target='qa', "
        "op=StackOp(kind='pop', payload=()), move=1, prob=1.0)",
    ),
    (
        MachineQPAG(
            ("q0", "qa"), _SIGMA, _GAMMA,
            (TransitionQPAG("q0", "<", "Z", "qa", push("x"), 1, 1 + 0j),),
            "q0", frozenset({"qa"}), frozenset(), declared_push_strings=(("x",),),
        ),
        "MachineQPAG(states=('q0', 'qa'), input_alphabet=InputAlphabet(symbols=('<', 'a', '>'), "
        "left_end='<', right_end='>'), stack_alphabet=StackAlphabet(symbols=('Z', 'x'), "
        "bottom='Z'), transitions=(TransitionQPAG(source='q0', read='<', top='Z', target='qa', "
        "op=StackOp(kind='push', payload=('x',)), move=1, amp=(1+0j)),), initial='q0', "
        "accepting=frozenset({'qa'}), rejecting=frozenset(), declared_push_strings=(('x',),))",
    ),
    (
        MachineQCPDA(
            ("q0", "qa"), _SIGMA, _GAMMA, (TransitionQCPDA("q0", "<", "Z", "qa", 0, -1j),),
            "q0", frozenset(), frozenset({"qa"}), sigma=(("q0", EPSILON),),
        ),
        "MachineQCPDA(states=('q0', 'qa'), input_alphabet=InputAlphabet(symbols=('<', 'a', '>'), "
        "left_end='<', right_end='>'), stack_alphabet=StackAlphabet(symbols=('Z', 'x'), "
        "bottom='Z'), transitions=(TransitionQCPDA(source='q0', read='<', top='Z', target='qa', "
        "move=0, amp=(-0-1j)),), initial='q0', accepting=frozenset(), "
        "rejecting=frozenset({'qa'}), sigma=(('q0', StackOp(kind='epsilon', payload=())),))",
    ),
    (
        MachinePPA(
            ("q0", "qa"), _SIGMA, _GAMMA, (TransitionPPA("q0", "<", "Z", "qa", POP, 1, 1.0),),
            "q0", frozenset({"qa"}), frozenset(),
        ),
        "MachinePPA(states=('q0', 'qa'), input_alphabet=InputAlphabet(symbols=('<', 'a', '>'), "
        "left_end='<', right_end='>'), stack_alphabet=StackAlphabet(symbols=('Z', 'x'), "
        "bottom='Z'), transitions=(TransitionPPA(source='q0', read='<', top='Z', target='qa', "
        "op=StackOp(kind='pop', payload=()), move=1, prob=1.0),), initial='q0', "
        "accepting=frozenset({'qa'}), rejecting=frozenset())",
    ),
    (
        RunResult(0.25, 0.75, 0.0, 0.0, 2, (_SNAP,)),
        "RunResult(p_acc=0.25, p_rej=0.75, p_non=0.0, truncation_loss=0.0, steps=2, "
        "trace=(StepSnapshot(step=1, survivors=((Configuration(state='q0', head=1, "
        "stack=('Z', 'a'), garbage=('b',)), (0.5-0.5j)),), p_acc_delta=0.25, p_rej_delta=0.0),))",
    ),
    (
        RunResult(1.0, 0.0, 0.0, 0.0, 1),
        "RunResult(p_acc=1.0, p_rej=0.0, p_non=0.0, truncation_loss=0.0, steps=1, trace=None)",
    ),
    (
        Violation("4", (("state1", "q"), ("move1", 1)), 0.5),
        "Violation(condition='4', witness=(('state1', 'q'), ('move1', 1)), residual=0.5)",
    ),
]


@pytest.mark.parametrize("record, text", _REPRS, ids=[type(r).__name__ for r, _ in _REPRS])
def test_record_repr_as_pinned(record, text):
    assert repr(record) == text


def test_record_fields_cannot_be_set_or_deleted():
    row = TransitionQPAG("q0", "<", "Z", "qa", EPSILON, 1, 1 + 0j)
    machine = cycle3()
    for obj, name in ((row, "amp"), (row, "extra"), (machine, "initial"), (EPSILON, "kind")):
        with pytest.raises(AttributeError, match=name):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=name):
            delattr(obj, name)
    assert row.amp == 1 + 0j and EPSILON.kind == "epsilon"


def test_rows_of_two_kinds_with_equal_values_differ():
    qpag_row = TransitionQPAG("q0", "<", "Z", "qa", EPSILON, 1, 1.0)
    ppa_row = TransitionPPA("q0", "<", "Z", "qa", EPSILON, 1, 1.0)
    assert qpag_row != ppa_row and ppa_row != qpag_row
    assert qpag_row != ("q0", "<", "Z", "qa", EPSILON, 1, 1.0)


def test_equal_records_hash_equal():
    rows = [TransitionQPAG("q0", "<", "Z", "qa", push("x"), 1, 0.5 + 0j) for _ in range(2)]
    assert rows[0] == rows[1] and rows[0] is not rows[1]
    assert hash(rows[0]) == hash(rows[1]) and len(set(rows)) == 1
    assert hash(cycle3()) == hash(cycle3())
    assert replace(rows[0], amp=-0.5 + 0j) != rows[0]


def test_records_built_by_position_keyword_and_default():
    row = TransitionQCPDA("q0", "<", "Z", "qa", 0, 1j)
    assert TransitionQCPDA(
        "q0", "<", top="Z", target="qa", move=0, amp=1j
    ) == row == replace(row)
    assert StackOp("epsilon") == StackOp(kind="epsilon", payload=()) == EPSILON
    for args, kwargs in [
        (("q0", "<", "Z", "qa", 0), {}),  # a field missing
        (("q0", "<", "Z", "qa", 0, 1j, 2), {}),  # one too many
        (("q0", "<", "Z", "qa", 0, 1j), {"move": 1}),  # a field twice
        (("q0", "<", "Z", "qa", 0, 1j), {"prob": 1.0}),  # no such field
    ]:
        with pytest.raises(TypeError, match="TransitionQCPDA"):
            TransitionQCPDA(*args, **kwargs)
    with pytest.raises(TypeError, match="size"):
        replace(row, size=2)


def test_replace_checks_the_copy():
    assert replace(push("x"), payload=("x", "y")) == push("x", "y")
    with pytest.raises(InvariantError, match="epsilon carries no payload"):
        replace(push("x"), kind="epsilon")
    machine = random_qcpda(0)
    assert replace(machine) == machine
    assert replace(machine).sigma == machine.sigma


def _expected_effect(machine, t):
    """Row ``t``'s stack effect as ``model.GARBAGE_POP`` describes it: its
    own operation in a QPAG or a PPA, its target's scheduled one in a
    QCPDA; a pop keeps garbage only in a QPAG."""
    if isinstance(machine, MachineQCPDA):
        if t.target in machine.halting:
            return None
        op, pop = machine.sigma_map[t.target], SCHEDULED_POP
    else:
        op, pop = t.op, GARBAGE_POP if isinstance(machine, MachineQPAG) else SCHEDULED_POP
    return {"push": op.payload, "pop": pop, "epsilon": None}[op.kind]


def test_compiled_rows_mirror_columns():
    machines = [build() for build in TOTAL_MACHINES.values()]
    machines += [problem1.build_machine(), *(mutant.machine for mutant in mutants())]
    for seed in range(20):
        machines += [random_qcpda(seed), compile_qcpda(random_qcpda(seed))[0]]
    machines += [coin_ppa(), dpda_wcwr(), *(random_ppa(seed) for seed in range(20))]
    assert {type(m) for m in machines} == {MachineQPAG, MachineQCPDA, MachinePPA}
    for i, machine in enumerate(machines):
        columns = machine.columns
        rows = row_columns(machine)
        assert list(columns) == list(rows), i
        weight = "prob" if isinstance(machine, MachinePPA) else "amp"
        for key, column in rows.items():
            want = [
                (getattr(t, weight), t.target, t.move, _expected_effect(machine, t))
                for t in column
            ]
            assert list(columns[key]) == want, (i, key)
        shuffled = list(machine.transitions)
        random.Random(i).shuffle(shuffled)
        assert replace(machine, transitions=tuple(shuffled)).columns == columns, i


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


# home module -> the names ``qpag`` exports from it
_EXPORTED = {
    "branching": "Branch qcpda_step run_qcpda",
    "classical": "ACCEPT BLOCK LOOP REJECT run_dpda run_ppa",
    "compiler": "CompileMap EquivReport compile_qcpda equiv_check",
    "errors": "EndmarkerInWord InvariantError LengthMismatch MachineError NonWellFormedInput "
    "NotDeterministic ParseError PopOnBottom SchemaError StateSpaceOverflow UnknownSymbol",
    "machinefile": "emit_json machine_to_doc parse_machine serialize_machine",
    "model": "EPSILON POP Configuration InputAlphabet MachinePPA MachineQCPDA MachineQPAG "
    "RunResult StackAlphabet StackOp TransitionPPA TransitionQCPDA TransitionQPAG "
    "default_max_steps display_tape make_tape push",
    "simulate": "measure run trajectory",
    "wellformed": "AuditReport Violation WfReport audit_unitarity check_ppa check_qcpda check_qpag",
}

# Run in a fresh interpreter: which qpag submodules a bare ``import qpag``
# loads, what ``dir(qpag)`` lists before any name is used, and whether each
# submodule attribute still resolves afterwards.
_BARE_IMPORT = """
import json, sys
import qpag
loaded = sorted(m for m in sys.modules if m.startswith("qpag."))
listed = dir(qpag)
subs = sys.argv[1:]
print(json.dumps([loaded, listed, [getattr(qpag, s) is sys.modules["qpag." + s] for s in subs]]))
"""


def test_all_exports_resolve():
    import qpag

    homes = {name: home for home, names in _EXPORTED.items() for name in names.split()}
    assert sorted(qpag.__all__) == sorted(homes)
    for name, home in homes.items():
        assert getattr(qpag, name) is getattr(importlib.import_module(f"qpag.{home}"), name)
    star = {}
    exec("from qpag import *", star)
    assert homes.keys() <= star.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        qpag.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        importlib.import_module("qpag.cli").no_such_name

    done = subprocess.run(
        [sys.executable, "-c", _BARE_IMPORT, *_EXPORTED],
        capture_output=True, text=True, timeout=120, check=True,
    )
    loaded, listed, resolved = json.loads(done.stdout)
    assert loaded == []
    assert homes.keys() | _EXPORTED.keys() | {"problem1"} <= set(listed)
    assert resolved == [True] * len(_EXPORTED)
