"""Branching simulation for machines whose stack move is scheduled per
target state.

The stack here is classical: measuring which stack operation fired after a
step collapses the superposition into one classical branch per operation
outcome (plus accept and reject). A branch carries a probability, a stack,
and a unit-norm amplitude vector over (state, head) pairs; children are
renormalized after measurement.

Branches with identical stacks and identical amplitude vectors (compared
after rounding to 10 decimal places) are merged by summing probabilities,
which keeps the frontier polynomial for machines that forget their history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import StateSpaceOverflow
from .model import (
    HALT_MASS,
    MachineQCPDA,
    RunResult,
    StackOp,
    apply_stack_op,
    default_max_steps,
    make_tape,
)
from .simulate import evolve

BRANCH_CAP = 10**5


@dataclass(frozen=True)
class Branch:
    prob: float
    stack: tuple[str, ...]
    psi: dict  # (state, head) -> amplitude, unit norm
    steps: int

    def fingerprint(self):
        return (
            self.stack,
            tuple(
                (key, round(self.psi[key].real, 10), round(self.psi[key].imag, 10))
                for key in sorted(self.psi)
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
    return Branch(
        prob=1.0,
        stack=(machine.stack_alphabet.bottom,),
        psi={(machine.initial, 0): 1 + 0j},
        steps=0,
    )


def _move(key, t):
    """The (state, head) key row ``t`` leads to; the stack operation waits
    for the measurement."""
    return (t.target, key[1] + t.move)


def qcpda_step(machine: MachineQCPDA, tape, branch: Branch) -> StepDeltas:
    """Advance one branch by one step and measure.

    Returns the classical children (one per stack-operation outcome with
    surviving mass) plus this branch's contributions to the probability
    ledgers, already scaled by the branch probability.
    """
    top = branch.stack[-1]
    pruned, parked, truncated = evolve(
        branch.psi, tape, machine.columns, lambda key: top, _move
    )

    # measurement outcomes: accept, reject, or the scheduled stack operation
    acc = 0.0
    rej = 0.0
    classes: dict = {}
    for key in sorted(pruned):
        amp = pruned[key]
        state, _ = key
        if state in machine.accepting:
            acc += abs(amp) ** 2
        elif state in machine.rejecting:
            rej += abs(amp) ** 2
        else:
            op = machine.sigma_map[state]
            classes.setdefault(op.sort_key(), {})[key] = amp

    children = []
    for op_key in sorted(classes):
        vec = classes[op_key]
        mass = sum(abs(vec[k]) ** 2 for k in sorted(vec))
        if mass <= 0:
            continue
        kind, payload = op_key
        new_stack, _ = apply_stack_op(branch.stack, StackOp(kind, tuple(payload)))
        scale = mass**-0.5
        unit = {k: vec[k] * scale for k in sorted(vec)}
        children.append(
            Branch(
                prob=branch.prob * mass,
                stack=new_stack,
                psi=unit,
                steps=branch.steps + 1,
            )
        )

    return StepDeltas(
        children=tuple(children),
        acc=branch.prob * acc,
        rej=branch.prob * rej,
        parked=branch.prob * parked,
        truncated=branch.prob * truncated,
    )


def run_qcpda(
    machine: MachineQCPDA,
    word,
    max_steps: Optional[int] = None,
) -> RunResult:
    tape = make_tape(machine, word)
    if max_steps is None:
        max_steps = default_max_steps(len(tape) - 2)
    p_acc = 0.0
    p_rej = 0.0
    p_non = 0.0
    truncated = 0.0
    steps = 0
    frontier = [initial_branch(machine)]
    for i in range(1, max_steps + 1):
        if not frontier:
            break
        steps = i
        merged: dict = {}
        for branch in frontier:
            if branch.prob < HALT_MASS:
                p_non += branch.prob
                continue
            deltas = qcpda_step(machine, tape, branch)
            p_acc += deltas.acc
            p_rej += deltas.rej
            p_non += deltas.parked
            truncated += deltas.truncated
            for child in deltas.children:
                fp = child.fingerprint()
                if fp in merged:
                    old = merged[fp]
                    merged[fp] = Branch(
                        prob=old.prob + child.prob,
                        stack=old.stack,
                        psi=old.psi,
                        steps=old.steps,
                    )
                else:
                    merged[fp] = child
                    if len(merged) > BRANCH_CAP:
                        raise StateSpaceOverflow(
                            f"branch frontier exceeded {BRANCH_CAP} at step {i}"
                        )
        frontier = [merged[fp] for fp in sorted(merged)]
    p_non += sum(b.prob for b in frontier)
    return RunResult(
        p_acc=p_acc,
        p_rej=p_rej,
        p_non=p_non,
        truncation_loss=truncated,
        steps=steps,
        trace=None,
    )


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
