"""Branching simulation for machines whose stack move is scheduled per
target state.

The stack here is classical: measuring which stack operation fired after a
step collapses the superposition into one classical branch per operation
outcome (plus accept and reject). A branch carries a probability, a stack,
and a unit-norm amplitude vector over (state, head) pairs; children are
renormalized after measurement.

A branch's stack is an interned cell (``simulate.cons``,
``simulate.stack_after``) in the cell table of its run, which the branch
carries; ``Branch.stack`` is its plain-tuple view. Vectors, measurement
classes and the frontier are walked in insertion order and never sorted:
every column lists its rows in canonical order, so that order, and with it
every sum, depends on neither the order of the transition table nor hash
seeds.

Branches with equal stacks and equal amplitude vectors (compared after
rounding to 10 decimal places) are merged by summing probabilities, which
keeps the frontier polynomial for machines that forget their history. The
merge key is the stack cell with the frozenset of (key, rounded real,
rounded imaginary) triples. Interned cells are the same object exactly
when their stacks are equal, and a vector has each key once, so the set
determines the key-sorted tuple of triples and back: two branches merge
exactly when the sorted tuples would match, in whatever order their
vectors were filled.

``run_qcpda`` steps the frontier through ``BranchSteps`` on
``simulate.PrefixRuns``, one word per run; ``compiler.equiv_check`` runs
all its words through one ``PrefixRuns``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import StateSpaceOverflow
from .model import HALT_MASS, MachineQCPDA, RunResult, make_tape
from .simulate import EMPTY, Cell, PrefixRuns, cons, evolve, stack_after

BRANCH_CAP = 10**5


@dataclass(frozen=True)
class Branch:
    prob: float
    cell: Cell  # the stack, interned in ``table``
    psi: dict  # (state, head) -> amplitude, unit norm
    steps: int
    table: dict = field(compare=False, repr=False)

    @property
    def stack(self) -> tuple[str, ...]:
        return self.cell.tokens()

    def fingerprint(self):
        """The merge key: equal for two branches exactly when their stacks
        are equal and their amplitudes agree after rounding to 10 places."""
        return (
            self.cell,
            frozenset(
                (key, round(amp.real, 10), round(amp.imag, 10))
                for key, amp in self.psi.items()
            ),
        )


@dataclass(frozen=True)
class StepDeltas:
    children: tuple[Branch, ...]
    acc: float
    rej: float
    parked: float
    truncated: float


def initial_branch(machine: MachineQCPDA) -> Branch:
    """The branch a run starts from, with a cell table of its own."""
    table: dict = {}
    return Branch(
        prob=1.0,
        cell=cons(table, EMPTY, machine.stack_alphabet.bottom),
        psi={(machine.initial, 0): 1 + 0j},
        steps=0,
        table=table,
    )


def _move(key, t):
    """The (state, head) key row ``t`` leads to; the stack operation waits
    for the measurement."""
    return (t.target, key[1] + t.move)


def qcpda_step(machine: MachineQCPDA, tape, branch: Branch) -> StepDeltas:
    """Advance one branch by one step and measure.

    Returns the classical children (one per stack-operation outcome with
    surviving mass, in the order the outcomes first occur) plus this
    branch's contributions to the probability ledgers, already scaled by
    the branch probability. The children's stacks are interned in the
    branch's table.
    """
    stack = branch.cell
    top = stack.symbol
    pruned, parked, truncated = evolve(
        branch.psi, tape, machine.columns, lambda key: top, _move
    )

    # measurement outcomes: accept, reject, or the scheduled stack operation
    accepting = machine.accepting
    rejecting = machine.rejecting
    sigma = machine.sigma_map
    acc = 0.0
    rej = 0.0
    classes: dict = {}
    for key, amp in pruned.items():
        state = key[0]
        if state in accepting:
            acc += abs(amp) ** 2
        elif state in rejecting:
            rej += abs(amp) ** 2
        else:
            classes.setdefault(sigma[state], {})[key] = amp

    children = []
    table = branch.table
    for op, vec in classes.items():
        mass = sum(abs(amp) ** 2 for amp in vec.values())
        if mass <= 0:
            continue
        scale = mass**-0.5
        children.append(
            Branch(
                prob=branch.prob * mass,
                cell=stack_after(table, stack, op),
                psi={key: amp * scale for key, amp in vec.items()},
                steps=branch.steps + 1,
                table=table,
            )
        )

    return StepDeltas(
        children=tuple(children),
        acc=branch.prob * acc,
        rej=branch.prob * rej,
        parked=branch.prob * parked,
        truncated=branch.prob * truncated,
    )


class BranchSteps:
    """The stepper behind ``run_qcpda``. A checkpoint is the merged branch
    frontier after the step and the running (p_acc, p_rej, p_non,
    truncated) sums."""

    def __init__(self, machine: MachineQCPDA):
        self.machine = machine
        self._first = initial_branch(machine)
        self.table = self._first.table

    def start(self):
        return ((self._first,), 0.0, 0.0, 0.0, 0.0)

    def step(self, point, tape, i):
        frontier, p_acc, p_rej, p_non, truncated = point
        machine = self.machine
        read = -1
        merged: dict = {}
        for branch in frontier:
            if branch.prob < HALT_MASS:
                p_non += branch.prob
                continue
            read = max(read, max(key[1] for key in branch.psi))
            deltas = qcpda_step(machine, tape, branch)
            p_acc += deltas.acc
            p_rej += deltas.rej
            p_non += deltas.parked
            truncated += deltas.truncated
            for child in deltas.children:
                fp = child.fingerprint()
                old = merged.get(fp)
                if old is None:
                    merged[fp] = child
                    if len(merged) > BRANCH_CAP:
                        raise StateSpaceOverflow(
                            f"branch frontier exceeded {BRANCH_CAP}"
                        )
                else:
                    merged[fp] = Branch(
                        old.prob + child.prob, old.cell, old.psi, old.steps, old.table
                    )
        return (tuple(merged.values()), p_acc, p_rej, p_non, truncated), read

    def alive(self, point) -> bool:
        return bool(point[0])

    def result(self, point, steps: int) -> RunResult:
        frontier, p_acc, p_rej, p_non, truncated = point
        p_non += sum(branch.prob for branch in frontier)
        return RunResult(p_acc, p_rej, p_non, truncated, steps, None)

    def size(self, point) -> int:
        return len(point[0])

    @property
    def cap(self) -> int:
        return BRANCH_CAP

    def cells(self, point):
        return (branch.cell for branch in point[0])


def run_qcpda(
    machine: MachineQCPDA,
    word,
    max_steps: Optional[int] = None,
) -> RunResult:
    """Full run of the branch frontier with probability accounting."""
    return PrefixRuns(BranchSteps(machine)).run(word, max_steps)


def dump_branches(
    machine: MachineQCPDA,
    word,
    max_steps: int,
    limit: int = 8,
) -> dict:
    """Depth-limited branch tree as a JSON-ready dict, for debugging."""
    tape = make_tape(machine, word)
    frontier = [initial_branch(machine)]
    levels = []
    for i in range(1, max_steps + 1):
        children = []
        for branch in frontier:
            if branch.prob < HALT_MASS:
                continue
            children.extend(qcpda_step(machine, tape, branch).children)
        frontier = children
        levels.append(
            {
                "step": i,
                "branches": [
                    {
                        "prob": b.prob,
                        "stack": list(b.stack),
                        "amplitudes": {
                            f"{q}@{k}": [b.psi[(q, k)].real, b.psi[(q, k)].imag]
                            for (q, k) in sorted(b.psi)
                        },
                    }
                    for b in sorted(
                        frontier, key=lambda b: (-b.prob, b.stack)
                    )[:limit]
                ],
            }
        )
        if not frontier:
            break
    return {"word": "".join(word) if not isinstance(word, str) else word, "levels": levels}
