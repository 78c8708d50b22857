"""Classical runners: probabilistic pushdown and its deterministic special
case.

The probabilistic runner tracks a distribution over (state, head, stack)
triples. Stacks are cells interned in a table owned by the run
(``simulate.stack_after``), so a push or a pop costs O(1) whatever the
depth, and the distribution is walked in insertion order: every column
lists its rows in canonical order, so no result depends on the order of
the transition table. Halting mass moves to p_acc / p_rej the moment a
halting state is entered; mass reaching an undefined column or a parked
head leaks into p_non, with a warning per distinct undefined column.

``run_dpda`` insists on a single probability-1 transition per defined
column and walks the unique path on a list stack. Outcomes: "accept",
"reject", "block" (no applicable transition, or head past the endmarker),
"loop" (step budget exhausted).
"""

from __future__ import annotations

import warnings
from typing import Optional

from .errors import NotDeterministic, PopOnBottom
from .model import (
    HALT_MASS,
    MachinePPA,
    RunResult,
    default_max_steps,
    join_tokens,
    make_tape,
)
from .simulate import EMPTY, cons, stack_after

ACCEPT = "accept"
REJECT = "reject"
BLOCK = "block"
LOOP = "loop"


def run_ppa(
    machine: MachinePPA,
    word,
    max_steps: Optional[int] = None,
) -> RunResult:
    tape = make_tape(machine, word)
    if max_steps is None:
        max_steps = default_max_steps(len(tape) - 2)
    n = len(tape)
    # degenerate case: the machine halts before reading anything
    if machine.initial in machine.accepting:
        return RunResult(1.0, 0.0, 0.0, 0.0, 0, None)
    if machine.initial in machine.rejecting:
        return RunResult(0.0, 1.0, 0.0, 0.0, 0, None)
    table: dict = {}
    bottom = cons(table, EMPTY, machine.stack_alphabet.bottom)
    dist = {(machine.initial, 0, bottom): 1.0}
    p_acc = 0.0
    p_rej = 0.0
    leaked = 0.0
    warned = set()
    steps = 0
    for i in range(1, max_steps + 1):
        if sum(dist.values()) < HALT_MASS:
            break
        new: dict = {}
        for (state, head, stack), mass in dist.items():
            if head >= n:
                leaked += mass
                continue
            col_key = (state, tape[head], stack.symbol)
            column = machine.columns.get(col_key)
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
                new_stack = stack_after(table, stack, t.op)
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
    p_non = leaked + sum(dist.values())
    return RunResult(
        p_acc=p_acc,
        p_rej=p_rej,
        p_non=p_non,
        truncation_loss=0.0,
        steps=steps,
        trace=None,
    )


def run_dpda(
    machine: MachinePPA,
    word,
    max_steps: Optional[int] = None,
) -> str:
    for col_key, column in machine.columns.items():
        if len(column) != 1 or abs(column[0].prob - 1) > 1e-9:
            raise NotDeterministic(
                f"column (state={col_key[0]}, read={col_key[1]}, "
                f"top={col_key[2]}) is not a single probability-1 transition"
            )
    tape = make_tape(machine, word)
    if max_steps is None:
        max_steps = default_max_steps(len(tape) - 2)
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
        column = machine.columns.get((state, tape[head], stack[-1]))
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
