"""Classical runners: probabilistic pushdown and its deterministic special
case, both stepping one ``PPASteps`` through ``simulate.walk``.

``PPASteps`` tracks a distribution over ``simulate.CellConfiguration``s
whose garbage tape stays ``EMPTY``: the paper's garbage-tape configuration
of a PPA, from ``simulate.start``. Each row of the machine's column index
takes a configuration on through ``simulate.successor``; a PPA's pop keeps
no garbage, and a row that pops the bottom symbol raises
``model.pop_on_bottom``'s PopOnBottom, as every engine does, before its
target is tested for halting. Stacks are cells interned in the
stepper's table, so a push or a pop costs O(1) whatever the depth, and
the distribution is walked in insertion order: every column lists its
rows in canonical order, so no result depends on the order of the
transition table. A checkpoint is
the distribution after the step and the running (p_acc, p_rej, leaked)
sums. Halting mass moves to p_acc / p_rej at the transition that enters a
halting state, in column order; an initial halting state holds all the mass
at checkpoint 0, and the run takes 0 steps. The quantum engines do not
measure their start configuration: an initial halting state steps on there
as any other state does (see ``simulate``), so a PPA lowered onto them
must stage a halting initial state. Mass reaching an undefined column or
a parked head leaks, and whatever is still live at the end lands in p_non
with it. The stepper records each undefined column it meets, first met
first, in ``undefined``; it warns about none of them. A step raises
``model.over_budget()`` as soon as the distribution it started from, the
keys of its new one and the cells in its table when it began pass the
entry budget.

``run_ppa`` walks the stepper and warns once per recorded column, also
when the walk raises. ``run_dpda`` insists on a single probability-1
transition per defined column (``MachinePPA.nondeterministic_column``,
scanned once per machine), walks the same stepper and reads its
outcome off the last checkpoint: "accept" or "reject" if that much mass
halted, "block" if it leaked (no applicable transition, or head past the
endmarker), "loop" if the step budget ran out first.
"""

from __future__ import annotations

import warnings
from typing import Optional

from .errors import NotDeterministic
from .model import (
    HALT_MASS, MachinePPA, RunResult, check_kind, column_text, over_budget, plain_sum,
    pop_on_bottom, room,
)
from .simulate import EMPTY, start, successor, walk_to_end

ACCEPT = "accept"
REJECT = "reject"
BLOCK = "block"
LOOP = "loop"


class PPASteps:
    """The stepper behind ``run_ppa`` and ``run_dpda``; the module
    docstring gives its checkpoint."""

    def __init__(self, machine: MachinePPA):
        self.machine = machine
        self.table: dict = {}
        self.undefined: dict = {}  # (state, read, top) -> None, first met first

    def start(self):
        machine = self.machine
        if machine.initial in machine.accepting:
            return {}, 1.0, 0.0, 0.0
        if machine.initial in machine.rejecting:
            return {}, 0.0, 1.0, 0.0
        return {start(machine, self.table): 1.0}, 0.0, 0.0, 0.0

    def step(self, point, tape, i):
        dist, p_acc, p_rej, leaked = point
        machine = self.machine
        columns = machine.columns
        accepting = machine.accepting
        rejecting = machine.rejecting
        table = self.table
        limit = room(len(dist) + len(table))
        n = len(tape)
        new: dict = {}
        for conf, mass in dist.items():
            state, head, stack, _ = conf
            if head >= n:
                leaked += mass
                continue
            col_key = (state, tape[head], stack.symbol)
            column = columns.get(col_key)
            if column is None:
                self.undefined.setdefault(col_key)
                leaked += mass
                continue
            for prob, target, move, effect in column:
                succ = successor(table, conf, target, move, effect)
                if succ.stack is EMPTY:  # the row popped the bottom symbol
                    raise pop_on_bottom(stack)
                part = mass * prob
                if target in accepting:
                    p_acc += part
                elif target in rejecting:
                    p_rej += part
                else:
                    new[succ] = new.get(succ, 0.0) + part
                    if len(new) > limit:
                        raise over_budget()
        return new, p_acc, p_rej, leaked

    def alive(self, point) -> bool:
        return not plain_sum(point[0].values()) < HALT_MASS

    def result(self, point, steps: int) -> RunResult:
        dist, p_acc, p_rej, leaked = point
        return RunResult(p_acc, p_rej, leaked + plain_sum(dist.values()), 0.0, steps, None)


def run_ppa(
    machine: MachinePPA,
    word,
    max_steps: Optional[int] = None,
) -> RunResult:
    check_kind(machine, MachinePPA)
    stepper = PPASteps(machine)
    try:
        point, steps = walk_to_end(stepper, word, max_steps)
    finally:
        for col_key in stepper.undefined:
            warnings.warn(
                f"undefined {column_text(col_key)}; mass leaks to p_non", stacklevel=2
            )
    return stepper.result(point, steps)


def run_dpda(
    machine: MachinePPA,
    word,
    max_steps: Optional[int] = None,
) -> str:
    check_kind(machine, MachinePPA)
    col_key = machine.nondeterministic_column
    if col_key is not None:
        raise NotDeterministic(
            f"{column_text(col_key)} is not a single probability-1 transition"
        )
    (_, p_acc, p_rej, leaked), _ = walk_to_end(PPASteps(machine), word, max_steps)
    if p_acc:
        return ACCEPT
    if p_rej:
        return REJECT
    if leaked:
        return BLOCK
    return LOOP
