"""Branching simulation for machines whose stack move is scheduled per
target state.

The stack here is classical: measuring which stack operation fired after a
step collapses the superposition into one classical branch per operation
outcome (plus accept and reject). A branch is a plain record of three
fields: its probability, its stack, held once, and a unit-norm amplitude
vector keyed by (state, head); children are renormalized after
measurement. ``qcpda_step`` is the kernel's step, with the branch's one
stack in place of a stack per key. It expands each key through its column
of the machine's column index, read with the branch's top symbol, into
keys (target, head + move, stack effect), a QCPDA row's effect being its
target's scheduled operation; it passes that vector through
``simulate.measure``, which reads only a key's state, so its ledger follows
the kernel's rules; and it splits ``measure``'s survivors by effect.
Distinct effects leave distinct stacks, so the classes are the parent's
operation outcomes. Each class's stack is built once, through
``simulate.successor``, the one home of the stack rule outside ``evolve``.
A scheduled pop of the bottom symbol leaves the empty tape
``simulate.EMPTY`` there unchecked, and ``qcpda_step`` raises
``model.pop_on_bottom``'s PopOnBottom, naming the branch's stack, only for
a class on it that survives measurement: mass pruned or halting before
then never pops.

A branch's stack is an interned cell (``simulate.cons``) in the cell table
of its run, which ``BranchSteps.table`` owns and passes to each step.
Vectors, measurement classes and the frontier are walked in insertion
order and never sorted: every column lists its rows in canonical order,
so that order, and with it every sum, depends on neither the order of the
transition table nor hash seeds.

Branches with equal stacks and equal amplitude vectors (compared after
rounding each part to 10 decimal places) are merged by summing
probabilities, which keeps the frontier polynomial for machines that
forget their history. A child can only merge with an entry of its bucket,
the entries with its stack cell and its key set; interned cells are the
same object exactly when their stacks are equal. Each bucket has one probe
key, the first key of its first child, and its entries are indexed by
their amplitude there, rounded as ``agree`` rounds it; a child calls
``agree``, which compares the two vectors key by key in whatever order
they were filled, only on the entries that round as it does there.
``agree`` is equality after rounding, an equivalence, and the entries of
one bucket pairwise disagree, so at most one matches a child, and the
lookup finds the entry a scan of the whole bucket would find; the merged
entry keeps its place, stack and vector and sums the probabilities.

``run_qcpda`` walks one word's frontier through ``BranchSteps`` with
``simulate.walk_to_end``, holding only the live frontier;
``simulate.run_batch`` over the same stepper serves only
``compiler.equiv_check``'s batches of words; the heads it reads off a
checkpoint are those of the branches at or above ``HALT_MASS``, since the
next step drops the others unread.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .model import (
    HALT_MASS, MachineQCPDA, RunResult, check_kind, over_budget, plain_sum, pop_on_bottom, room,
)

# ``measure`` is bound here at import: a tracer that wraps
# ``simulate.measure`` afterwards, as perfbench's does, reads each
# survivor's ``.stack`` and so must never see a branch's (state, head,
# effect) keys.
from .simulate import EMPTY, Cell, head_of, measure, start, successor, walk_to_end


class Branch(NamedTuple):
    prob: float
    cell: Cell  # the stack, interned in the run's table
    psi: dict  # (state, head) -> amplitude, unit norm


def agree(a: dict, b: dict) -> bool:
    """Whether two vectors on one key set have equal real and equal
    imaginary parts at every key after rounding to 10 places."""
    for key, x in a.items():
        y = b[key]
        if round(x.real, 10) != round(y.real, 10) or round(x.imag, 10) != round(y.imag, 10):
            return False
    return True


class StepDeltas(NamedTuple):
    children: tuple[Branch, ...]
    acc: float
    rej: float
    parked: float
    truncated: float


def initial_branch(machine: MachineQCPDA, table: dict) -> Branch:
    """The branch a run starts from, its stack interned in ``table``."""
    state, head, stack, _ = start(machine, table)
    return Branch(1.0, stack, {(state, head): 1 + 0j})


def qcpda_step(machine: MachineQCPDA, tape, branch: Branch, table: dict) -> StepDeltas:
    """Advance one branch by one step and measure: expand each key
    through its column, read with the branch's one top symbol, into keys
    (target, head + move, stack effect); then the kernel's ``measure``;
    then split its survivors by effect and build each class's stack once,
    through ``simulate.successor``.

    Returns the classical children (one per stack-operation outcome with
    surviving mass, in the order the outcomes first occur), this branch's
    contributions to the probability ledgers, already scaled by the branch
    probability. Parked and undefined-column mass are summed in the
    branch's key order, as ``evolve`` sums them, and the truncated mass is
    (undefined-column mass) + (pruned mass), as in the kernel. The
    children's stacks are interned in ``table``, the run's cell table. The
    step holds its own expansion to the entry budget, as ``evolve`` does.
    A surviving class that popped the bottom symbol raises PopOnBottom.
    ``BranchSteps`` checks the machine's kind when it is built; this
    function, called once per branch per step, does not, just as
    ``evolve`` takes its column index unchecked.
    """
    prob, stack, psi = branch
    columns = machine.columns
    limit = room(len(psi) + len(table))
    out: dict = {}
    parked = undefined = 0.0
    for (state, head), amp in psi.items():
        if head >= len(tape):
            parked += abs(amp) ** 2
            continue
        column = columns.get((state, tape[head], stack.symbol))
        if column is None:
            undefined += abs(amp) ** 2
            continue
        for weight, target, move, effect in column:
            nxt = (target, head + move, effect)
            old = out.get(nxt)
            if old is None:
                out[nxt] = 0j + amp * weight
                if len(out) > limit:
                    raise over_budget()
            else:
                out[nxt] = old + amp * weight
    rest, acc, rej, pruned, _ = measure(machine, out)

    # stack effect -> [vector, squared mass summed left to right in
    # survivor order]: distinct effects leave distinct stacks
    classes: dict = {}
    for (state, head, effect), amp in rest.items():
        split = classes.get(effect)
        if split is None:
            split = classes[effect] = [{}, 0.0]
        split[0][state, head] = amp
        split[1] += abs(amp) ** 2

    children = []
    for effect, (vec, mass) in classes.items():
        # the class's stack, built by the one stack rule
        cell = successor(table, (None, 0, stack, EMPTY), None, 0, effect).stack
        if cell is EMPTY:
            raise pop_on_bottom(stack)
        # every survivor has |amp| >= PRUNE_THRESHOLD, so mass > 0
        scale = mass**-0.5
        for key in vec:
            vec[key] *= scale
        children.append(Branch(prob * mass, cell, vec))
    # the ledger terms: acc, rej, parked, truncated
    return StepDeltas(
        tuple(children), prob * acc, prob * rej, prob * parked, prob * (undefined + pruned)
    )


class BranchSteps:
    """The stepper behind ``run_qcpda`` and ``compiler.equiv_check``. A
    checkpoint is the merged branch frontier after the step and the running
    (p_acc, p_rej, p_non, truncated) sums. A branch below ``HALT_MASS`` is
    dropped unstepped and its probability booked as truncated, as pruned
    mass is; ``result`` books the frontier live at the end as p_non.
    A step merges each child into the entry of its bucket that agrees with
    it, found through the bucket's index as the module docstring gives it.
    ``table`` is the run's cell table. A step's entries are the keys of its
    branch vectors; it raises ``model.over_budget()`` as soon as the
    frontier it started from, the merged children so far and the cells in
    the table when it began pass the entry budget. Vector keys hold no
    stack, so ``key`` holds each branch's cell beside its items."""

    def __init__(self, machine: MachineQCPDA):
        check_kind(machine, MachineQCPDA)
        self.machine = machine
        self.table: dict = {}

    def start(self):
        return ((initial_branch(self.machine, self.table),), 0.0, 0.0, 0.0, 0.0)

    def step(self, point, tape, i):
        frontier, p_acc, p_rej, p_non, truncated = point
        limit = room(self.size(point) + len(self.table))
        entries = 0
        merged: list = []
        # (stack cell, key set) -> the bucket's probe key, the first key of
        # its first child, and its index: the amplitude at the probe key,
        # rounded as ``agree`` rounds it, -> the index in merged of the
        # bucket's entry that rounds so there, or a tuple of them once two do
        buckets: dict = {}
        for branch in frontier:
            if branch.prob < HALT_MASS:
                truncated += branch.prob
                continue
            # called through this module's global, which perfbench's
            # tracer wraps to count the result's ``children``
            deltas = qcpda_step(self.machine, tape, branch, self.table)
            p_acc += deltas.acc
            p_rej += deltas.rej
            p_non += deltas.parked
            truncated += deltas.truncated
            for child in deltas.children:
                psi = child.psi
                home = (child.cell, frozenset(psi))
                probe, index = buckets.get(home) or buckets.setdefault(home, (next(iter(psi)), {}))
                amp = psi[probe]
                spot = complex(round(amp.real, 10), round(amp.imag, 10))
                # a child that agrees with an entry rounds like it at every
                # key; entries pairwise disagree and ``agree`` is an
                # equivalence, so at most one entry matches
                at = index.get(spot)
                found = (at,) if type(at) is int else at or ()
                for j in found:
                    old = merged[j]
                    if agree(old.psi, psi):
                        merged[j] = Branch(old.prob + child.prob, old.cell, old.psi)
                        break
                else:
                    index[spot] = len(merged) if at is None else (*found, len(merged))
                    merged.append(child)
                    entries += len(psi)
                    if entries > limit:
                        raise over_budget()
        return tuple(merged), p_acc, p_rej, p_non, truncated

    def alive(self, point) -> bool:
        return bool(point[0])

    def result(self, point, steps: int) -> RunResult:
        frontier, p_acc, p_rej, p_non, truncated = point
        p_non += plain_sum(branch.prob for branch in frontier)
        return RunResult(p_acc, p_rej, p_non, truncated, steps, None)

    def size(self, point) -> int:
        return sum(len(branch.psi) for branch in point[0])

    def cells(self, point):
        return (branch.cell for branch in point[0])

    def heads(self, point):
        # a branch below HALT_MASS is dropped at the next step, unread
        return (head_of(key) for b in point[0] if not b.prob < HALT_MASS for key in b.psi)

    def key(self, point):
        return (*point[1:], tuple((b.prob, b.cell, tuple(b.psi.items())) for b in point[0]))


def run_qcpda(
    machine: MachineQCPDA,
    word,
    max_steps: Optional[int] = None,
) -> RunResult:
    """Full run of the branch frontier with probability accounting,
    holding only the live frontier."""
    stepper = BranchSteps(machine)
    point, steps = walk_to_end(stepper, word, max_steps)
    return stepper.result(point, steps)

