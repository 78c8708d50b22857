"""Branching simulation for machines whose stack move is scheduled per
target state.

The stack here is classical: measuring which stack operation fired after a
step collapses the superposition into one classical branch per operation
outcome (plus accept and reject). A branch is a plain record of three
fields: its probability, its stack, and a unit-norm amplitude vector keyed
by ``simulate.CellConfiguration(state, head, stack, EMPTY)``, every key
holding the branch's stack; children are renormalized after measurement.
``qcpda_step`` is the kernel's step: ``simulate.evolve`` over the
machine's column index, each row of which applies its target's scheduled
operation to the key's stack, then ``simulate.measure``, with
``measure``'s survivors split by their stack cell, so its ledger follows
the kernel's rules. Distinct operations leave distinct stacks, so the
classes are the parent's operation outcomes. A scheduled pop of the
bottom symbol leaves the empty tape ``simulate.EMPTY`` unchecked, and
``qcpda_step`` raises ``model.pop_on_bottom``'s PopOnBottom, naming the
branch's stack, only for a class on it that survives measurement: mass
pruned or halting before then never pops.

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
the entries with its key set. The key set fixes the stack: every key
holds the branch's stack cell, and interned cells are the same object
exactly when their stacks are equal. ``agree`` then compares the two
vectors key by key, in whatever order they were filled. Entries of one
bucket pairwise disagree, so at most one matches a child; the merged
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

from .model import HALT_MASS, MachineQCPDA, RunResult, over_budget, plain_sum, pop_on_bottom, room
from .simulate import EMPTY, Cell, evolve, head_of, measure, start, walk_to_end


class Branch(NamedTuple):
    prob: float
    cell: Cell  # the stack, interned in the run's table
    psi: dict  # CellConfiguration (state, head, cell, EMPTY) -> amplitude, unit norm


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
    first = start(machine, table)
    return Branch(1.0, first.stack, {first: 1 + 0j})


def qcpda_step(machine: MachineQCPDA, tape, branch: Branch, table: dict) -> StepDeltas:
    """Advance one branch by one step and measure: ``evolve``, which
    applies each row's scheduled stack operation, then the kernel's
    ``measure``, then split its survivors by their stack cell.

    Returns the classical children (one per stack-operation outcome with
    surviving mass, in the order the outcomes first occur), this branch's
    contributions to the probability ledgers, already scaled by the branch
    probability. The truncated mass is (undefined-column mass) + (pruned
    mass), as in the kernel. The children's stacks are interned in
    ``table``, the run's cell table. ``evolve`` holds the branch's own step to the entry budget.
    A surviving class that popped the bottom symbol raises PopOnBottom.
    """
    prob = branch.prob
    limit = room(len(branch.psi) + len(table))
    out, parked, undefined = evolve(branch.psi, tape, machine.columns, table, limit)
    rest, acc, rej, pruned, _ = measure(machine, out)

    # stack cell -> [vector, squared mass summed left to right in survivor
    # order]: distinct operations leave distinct stacks
    classes: dict = {}
    for key, amp in rest.items():
        split = classes.get(key[2])
        if split is None:
            split = classes[key[2]] = [{}, 0.0]
        split[0][key] = amp
        split[1] += abs(amp) ** 2

    children = []
    for cell, (vec, mass) in classes.items():
        if cell is EMPTY:
            raise pop_on_bottom(branch.cell)
        # every survivor has |amp| >= PRUNE_THRESHOLD, so mass > 0
        scale = mass**-0.5
        for key in vec:
            vec[key] *= scale
        children.append(Branch(prob * mass, cell, vec))

    return StepDeltas(
        children=tuple(children),
        acc=prob * acc,
        rej=prob * rej,
        parked=prob * parked,
        truncated=prob * (undefined + pruned),
    )


class BranchSteps:
    """The stepper behind ``run_qcpda`` and ``compiler.equiv_check``. A
    checkpoint is the merged branch frontier after the step and the running
    (p_acc, p_rej, p_non, truncated) sums. A branch below ``HALT_MASS`` is
    dropped unstepped and its probability booked as truncated, as pruned
    mass is; ``result`` books the frontier live at the end as p_non.
    ``table`` is the run's cell table. Its entries are the keys of its branch vectors; a step raises
    ``model.over_budget()`` as soon as the frontier it started from, the
    merged children so far and the cells in the table when it began pass
    the entry budget."""

    def __init__(self, machine: MachineQCPDA):
        self.machine = machine
        self.table: dict = {}

    def start(self):
        return ((initial_branch(self.machine, self.table),), 0.0, 0.0, 0.0, 0.0)

    def step(self, point, tape, i):
        frontier, p_acc, p_rej, p_non, truncated = point
        machine = self.machine
        limit = room(self.size(point) + len(self.table))
        entries = 0
        merged: list = []
        # key set (which fixes the stack cell) -> the indices in merged of
        # that bucket
        buckets: dict = {}
        for branch in frontier:
            if branch.prob < HALT_MASS:
                truncated += branch.prob
                continue
            deltas = qcpda_step(machine, tape, branch, self.table)
            p_acc += deltas.acc
            p_rej += deltas.rej
            p_non += deltas.parked
            truncated += deltas.truncated
            for child in deltas.children:
                psi = child.psi
                bucket = buckets.setdefault(frozenset(psi), [])
                # parts that round equal differ by at most 1e-10, so two
                # amplitudes more than 2e-10 apart never agree: most pairs
                # are refused at the child's first key, before any rounding
                probe, amp = next(iter(psi.items()))
                for at in bucket:
                    old = merged[at]
                    if abs(old.psi[probe] - amp) <= 2e-10 and agree(old.psi, psi):
                        merged[at] = Branch(old.prob + child.prob, old.cell, old.psi)
                        break
                else:
                    bucket.append(len(merged))
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
        # a branch's keys hold its stack cell
        return (*point[1:], tuple((b.prob, tuple(b.psi.items())) for b in point[0]))


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

