"""The classical runners on the shared step loop against the loops they
replaced.

``reference_run_ppa`` and ``reference_run_dpda`` are ``run_ppa`` and
``run_dpda`` as they were written before both stepped ``PPASteps`` through
``simulate.walk``: each with a loop of its own, ``run_dpda`` on a list
stack. The stepped runners must give equal results (``RunResult`` with
``==``), equal verdicts, the same warnings in the same order with the same
category and reported file, and the same errors with the same messages.
"""

import itertools
import random
import warnings
from typing import Optional

import pytest

from qpag.classical import ACCEPT, BLOCK, LOOP, REJECT, run_dpda, run_ppa
from qpag.errors import MachineError, NotDeterministic, PopOnBottom
from qpag.model import (
    EPSILON,
    HALT_MASS,
    POP,
    InputAlphabet,
    MachinePPA,
    RunResult,
    StackAlphabet,
    TransitionPPA,
    join_tokens,
    push,
    run_bounds,
)
from qpag.simulate import EMPTY, cons

from .corpus import coin_ppa, dpda_wcwr
from .generators import apply_op, left_sum, row_columns

# ----------------------------------------------------------------------
# Reference runners, kept as they were
# ----------------------------------------------------------------------


def reference_run_ppa(
    machine: MachinePPA,
    word,
    max_steps: Optional[int] = None,
) -> RunResult:
    tape, max_steps = run_bounds(machine, word, max_steps)
    n = len(tape)
    # degenerate case: the machine halts before reading anything
    if machine.initial in machine.accepting:
        return RunResult(1.0, 0.0, 0.0, 0.0, 0, None)
    if machine.initial in machine.rejecting:
        return RunResult(0.0, 1.0, 0.0, 0.0, 0, None)
    columns = row_columns(machine)
    table: dict = {}
    bottom = cons(table, EMPTY, machine.stack_alphabet.bottom)
    dist = {(machine.initial, 0, bottom): 1.0}
    p_acc = 0.0
    p_rej = 0.0
    leaked = 0.0
    warned = set()
    steps = 0
    for i in range(1, max_steps + 1):
        if left_sum(dist.values()) < HALT_MASS:
            break
        new: dict = {}
        for (state, head, stack), mass in dist.items():
            if head >= n:
                leaked += mass
                continue
            col_key = (state, tape[head], stack.symbol)
            column = columns.get(col_key)
            if column is None:
                if col_key not in warned:
                    warned.add(col_key)
                    warnings.warn(
                        f"undefined column (state={state}, read={tape[head]}, "
                        f"top={stack.symbol}); mass leaks to p_non",
                        stacklevel=2,
                    )
                leaked += mass
                continue
            for t in column:
                new_stack = apply_op(table, stack, t.op)
                part = mass * t.prob
                if t.target in machine.accepting:
                    p_acc += part
                elif t.target in machine.rejecting:
                    p_rej += part
                else:
                    succ = (t.target, head + t.move, new_stack)
                    new[succ] = new.get(succ, 0.0) + part
        dist = new
        steps = i
    p_non = leaked + left_sum(dist.values())
    return RunResult(
        p_acc=p_acc,
        p_rej=p_rej,
        p_non=p_non,
        truncation_loss=0.0,
        steps=steps,
        trace=None,
    )


def reference_run_dpda(
    machine: MachinePPA,
    word,
    max_steps: Optional[int] = None,
) -> str:
    columns = row_columns(machine)
    for col_key, column in columns.items():
        if len(column) != 1 or abs(column[0].prob - 1) > 1e-9:
            raise NotDeterministic(
                f"column (state={col_key[0]}, read={col_key[1]}, "
                f"top={col_key[2]}) is not a single probability-1 transition"
            )
    tape, max_steps = run_bounds(machine, word, max_steps)
    n = len(tape)
    state = machine.initial
    head = 0
    stack = [machine.stack_alphabet.bottom]
    for _ in range(max_steps):
        if state in machine.accepting:
            return ACCEPT
        if state in machine.rejecting:
            return REJECT
        if head >= n:
            return BLOCK
        column = columns.get((state, tape[head], stack[-1]))
        if column is None:
            return BLOCK
        t = column[0]
        if t.op.kind == "push":
            stack.extend(t.op.payload)
        elif t.op.kind == "pop":
            if len(stack) <= 1:
                raise PopOnBottom(f"pop on stack {join_tokens(stack)!r}")
            stack.pop()
        state = t.target
        head += t.move
    if state in machine.accepting:
        return ACCEPT
    if state in machine.rejecting:
        return REJECT
    return LOOP


# ----------------------------------------------------------------------
# Machines
# ----------------------------------------------------------------------

_ALPHA = InputAlphabet(symbols=("<", "a", "b", ">"), left_end="<", right_end=">")
_GAMMA = StackAlphabet(symbols=("Z", "A", "B"), bottom="Z")
_LIVE = ("p0", "p1", "p2")
_OPS = (EPSILON, EPSILON, POP, push("A"), push("B"), push("A", "B"))


def random_ppa(seed: int, deterministic: bool = False) -> MachinePPA:
    """Three live states and one accepting and one rejecting state over
    Γ = {Z, A, B}. About one column in five is left undefined, and about
    one in twenty holds rows of probability zero only, which is undefined
    too. Defined columns hold one to three rows, or exactly one of
    probability one if ``deterministic``, with push, pop and ε operations.
    A pop on Z raises PopOnBottom when taken."""
    rng = random.Random(seed)
    targets = _LIVE + ("pA", "pR")
    rows = []
    for state, read, top in itertools.product(_LIVE, _ALPHA.symbols, _GAMMA.symbols):
        roll = rng.random()
        if roll < 0.2:
            continue
        count = 1 if deterministic else rng.randint(1, 3)
        # a pop on Z is rare, so that most runs end without raising
        ops = _OPS if top != "Z" or rng.random() < 0.2 else _OPS[:2] + _OPS[3:]
        picked = set()
        while len(picked) < count:
            picked.add((rng.choice(targets), rng.choice(ops), rng.choice((0, 1, 1))))
        weights = [rng.choice((1, 2, 3, 7)) for _ in picked]
        for (target, op, move), w in zip(sorted(picked, key=repr), weights):
            prob = 1.0 if deterministic else w / sum(weights)
            if roll < 0.25:
                prob = 0.0
            rows.append(TransitionPPA(state, read, top, target, op, move, prob))
    return MachinePPA(
        states=_LIVE + ("pA", "pR"),
        input_alphabet=_ALPHA,
        stack_alphabet=_GAMMA,
        transitions=tuple(rows),
        initial="p0",
        accepting=frozenset({"pA"}),
        rejecting=frozenset({"pR"}),
    )


def _words(symbols, length):
    return [
        "".join(w)
        for n in range(length + 1)
        for w in itertools.product(symbols, repeat=n)
    ]


def _mirror_words(depth, seed):
    u = "".join(random.Random(seed).choice("ab") for _ in range(depth))
    flipped = u + "c" + u[::-1][:-1] + ("a" if u[0] == "b" else "b")
    return [u + "c" + u[::-1], flipped, u, u + "c" + u[::-1] + "a"]


BUDGETS = (0, 1, 3, None)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def _outcome(runner, machine, word, budget):
    """The runner's value or error, and the warnings it gave as
    (message, category, reported file)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = runner(machine, word, budget)
        except MachineError as exc:
            value = (type(exc), str(exc))
    return value, [(str(w.message), w.category, w.filename) for w in caught]


def _compare(runner, reference, machine, words):
    """Assert equal outcomes on every word and budget; return the
    reference's values."""
    seen = []
    for word, budget in itertools.product(words, BUDGETS):
        want = _outcome(reference, machine, word, budget)
        got = _outcome(runner, machine, word, budget)
        assert got == want, (word, budget)
        seen.append(want[0])
    return seen


def test_corpus_ppas_match_reference():
    _compare(run_ppa, reference_run_ppa, coin_ppa(), _words("a", 3))
    _compare(run_ppa, reference_run_ppa, dpda_wcwr(), _words("abc", 4))


def test_corpus_dpda_matches_reference():
    seen = _compare(run_dpda, reference_run_dpda, dpda_wcwr(), _words("abc", 4))
    assert {ACCEPT, REJECT, LOOP} <= set(seen)


@pytest.mark.parametrize("seed", [3, 17])
def test_deep_mirror_words_match_reference(seed):
    words = _mirror_words(400, seed)
    m = dpda_wcwr()
    ppa = _compare(run_ppa, reference_run_ppa, m, words)
    dpda = _compare(run_dpda, reference_run_dpda, m, words)
    assert ppa[3] == RunResult(1.0, 0.0, 0.0, 0.0, 803, None)
    assert dpda[3::4] == [ACCEPT, REJECT, REJECT, REJECT]


@pytest.mark.parametrize("seed", range(24))
def test_random_ppas_match_reference(seed):
    m = random_ppa(seed)
    _compare(run_ppa, reference_run_ppa, m, _words("ab", 3))


@pytest.mark.parametrize("seed", range(24))
def test_random_dpdas_match_reference(seed):
    m = random_ppa(seed, deterministic=True)
    words = _words("ab", 3)
    _compare(run_dpda, reference_run_dpda, m, words)
    _compare(run_ppa, reference_run_ppa, m, words)


def test_random_machines_cover_every_ending():
    # the seeded machines above reach every verdict, warn, and raise
    verdicts = set()
    warned = raised = 0
    for seed in range(24):
        m = random_ppa(seed, deterministic=True)
        for word, budget in itertools.product(_words("ab", 3), BUDGETS):
            value, _ = _outcome(reference_run_dpda, m, word, budget)
            verdicts.add(value if isinstance(value, str) else value[0])
        for word in _words("ab", 3):
            value, caught = _outcome(reference_run_ppa, random_ppa(seed), word, None)
            warned += bool(caught)
            raised += isinstance(value, tuple)
    assert verdicts >= {ACCEPT, REJECT, BLOCK, LOOP}
    assert warned and raised


def _rows_ppa(*rows):
    return MachinePPA(
        states=("p0", "p1", "p2", "p3"),
        input_alphabet=_ALPHA,
        stack_alphabet=_GAMMA,
        transitions=rows,
        initial="p0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )


def test_pop_on_bottom_matches_reference():
    dpda = _rows_ppa(
        TransitionPPA("p0", "<", "Z", "p1", push("A"), 1, 1.0),
        TransitionPPA("p1", "a", "A", "p1", POP, 1, 1.0),
        TransitionPPA("p1", "a", "Z", "p1", POP, 1, 1.0),
        TransitionPPA("p1", ">", "Z", "p1", EPSILON, 1, 1.0),
    )
    # on "ab", p2 meets the undefined column (p2, a, A) at step 3, then p3
    # pops Z at step 4: the warning must still be given
    split = _rows_ppa(
        TransitionPPA("p0", "<", "Z", "p1", push("A"), 1, 1.0),
        TransitionPPA("p1", "a", "A", "p2", EPSILON, 0, 0.5),
        TransitionPPA("p1", "a", "A", "p3", EPSILON, 1, 0.5),
        TransitionPPA("p3", "b", "A", "p3", POP, 0, 1.0),
        TransitionPPA("p3", "b", "Z", "p3", POP, 0, 1.0),
    )
    raised = (PopOnBottom, "pop on stack 'Z'")
    runners = ((run_ppa, reference_run_ppa), (run_dpda, reference_run_dpda))
    for runner, reference in runners:
        assert raised in _compare(runner, reference, dpda, ["a", "aa", "ab"])
    assert raised in _compare(run_ppa, reference_run_ppa, split, ["a", "ab", "abb"])
    value, caught = _outcome(run_ppa, split, "ab", None)
    assert value == raised
    assert [message for message, _, _ in caught] == [
        "undefined column (state=p2, read=a, top=A); mass leaks to p_non"
    ]


def test_initial_halting_state_matches_reference():
    rows = (TransitionPPA("p0", "a", "Z", "p0", EPSILON, 1, 1.0),)
    halting = (frozenset({"p0"}), frozenset())
    for accepting, rejecting in (halting, halting[::-1]):
        m = MachinePPA(
            states=("p0",),
            input_alphabet=_ALPHA,
            stack_alphabet=_GAMMA,
            transitions=rows,
            initial="p0",
            accepting=accepting,
            rejecting=rejecting,
        )
        _compare(run_ppa, reference_run_ppa, m, ["", "a"])
        _compare(run_dpda, reference_run_dpda, m, ["", "a"])


def test_nondeterministic_column_matches_reference():
    m = random_ppa(5)
    want = _outcome(reference_run_dpda, m, "ab", None)
    assert want[0][0] is NotDeterministic
    assert _outcome(run_dpda, m, "ab", None) == want
