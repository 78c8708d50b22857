"""Lowering a scheduled-stack machine onto the garbage-tape model.

Each original step becomes three: the original transition fires and applies
the target's scheduled stack operation while entering a fresh staging state;
the staging state pushes a marker naming the operation that just happened;
a second staging state pops that marker onto the garbage tape. The garbage
tape thus records the operation history, which is exactly the information
the scheduled-stack machine's measurement leaks classically, so the two
machines produce identical probability ledgers when one original step is
matched against three lowered steps.

Transitions into accepting or rejecting states skip the staging detour: the
run ends there and no marker is needed.

``equiv_check`` runs each side's words through one ``simulate.PrefixRuns``:
the original on ``branching.BranchSteps``, the image on ``ImageSteps``,
the kernel's stepper with a decoherence flag in each checkpoint. A word
resumed from a shared prefix's checkpoint inherits the flag the prefix's
steps left, so its row equals the one a fresh run gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# ``compiler.run_qcpda`` and ``compiler.trajectory`` stay bound:
# perfbench/tracing.py wraps them by these names.
from .branching import BranchSteps, run_qcpda  # noqa: F401
from .errors import NonWellFormedInput
from .model import (
    EPSILON,
    MachineQCPDA,
    MachineQPAG,
    StackAlphabet,
    StackOp,
    TransitionQPAG,
    default_max_steps,
)
from .simulate import KernelSteps, PrefixRuns, trajectory  # noqa: F401
from .wellformed import check_qcpda


@dataclass(frozen=True)
class CompileMap:
    aux_states: tuple[tuple[str, str, str], ...]  # (target, stage_a, stage_b)
    labels: tuple[tuple[str, str], ...]  # (operation description, marker)
    original_transitions: int
    image_transitions: int

    def to_json_dict(self):
        return {
            "aux_states": {q: [a, b] for q, a, b in self.aux_states},
            "labels": dict(self.labels),
            "original_transitions": self.original_transitions,
            "image_transitions": self.image_transitions,
        }


def compile_qcpda(
    machine: MachineQCPDA, tol: float = 1e-9
) -> tuple[MachineQPAG, CompileMap]:
    report = check_qcpda(machine, mode="partial", tol=tol)
    if not report.passed:
        raise NonWellFormedInput(
            "input machine fails its column checks; refusing to lower it",
            report=report,
        )

    sigma = machine.sigma_map
    reached = sorted(
        {
            t.target
            for t in machine.transitions
            if not machine.is_halting(t.target)
        }
    )

    # fresh marker symbols, one per stack operation that actually fires
    used_stack = set(machine.stack_alphabet.symbols)
    labels: dict = {}
    label_rows = []
    for op_key in sorted({sigma[q].sort_key() for q in reached}):
        op = StackOp(op_key[0], tuple(op_key[1]))
        token = "l:" + op.describe()
        while token in used_stack:
            token += "'"
        used_stack.add(token)
        labels[op_key] = token
        label_rows.append((op.describe(), token))

    # fresh staging states, two per reached target
    used_states = set(machine.states)
    stage_a: dict = {}
    stage_b: dict = {}
    aux_rows = []
    for q in reached:
        a_name = q + "@a"
        while a_name in used_states:
            a_name += "'"
        used_states.add(a_name)
        b_name = q + "@b"
        while b_name in used_states:
            b_name += "'"
        used_states.add(b_name)
        stage_a[q] = a_name
        stage_b[q] = b_name
        aux_rows.append((q, a_name, b_name))

    transitions = []
    for t in machine.transitions:
        if machine.is_halting(t.target):
            transitions.append(
                TransitionQPAG(t.source, t.read, t.top, t.target, EPSILON, t.move, t.amp)
            )
        else:
            transitions.append(
                TransitionQPAG(
                    t.source, t.read, t.top, stage_a[t.target], sigma[t.target], t.move, t.amp
                )
            )
    for q in reached:
        marker = labels[sigma[q].sort_key()]
        push_marker = StackOp("push", (marker,))
        for read in machine.input_alphabet.symbols:
            for top in machine.stack_alphabet.symbols:
                transitions.append(
                    TransitionQPAG(
                        stage_a[q], read, top, stage_b[q], push_marker, 0, 1 + 0j
                    )
                )
        for read in machine.input_alphabet.symbols:
            transitions.append(
                TransitionQPAG(
                    stage_b[q], read, marker, q, StackOp("pop"), 0, 1 + 0j
                )
            )

    image = MachineQPAG(
        states=machine.states
        + tuple(x for q in reached for x in (stage_a[q], stage_b[q])),
        input_alphabet=machine.input_alphabet,
        stack_alphabet=StackAlphabet(
            symbols=machine.stack_alphabet.symbols
            + tuple(token for _, token in label_rows),
            bottom=machine.stack_alphabet.bottom,
        ),
        transitions=tuple(transitions),
        initial=machine.initial,
        accepting=machine.accepting,
        rejecting=machine.rejecting,
    )
    cmap = CompileMap(
        aux_states=tuple(aux_rows),
        labels=tuple(label_rows),
        original_transitions=len(machine.transitions),
        image_transitions=len(transitions),
    )
    return image, cmap


# ======================================================================
# Behavioural comparison
# ======================================================================


@dataclass(frozen=True)
class WordComparison:
    word: str
    p_acc_original: float
    p_rej_original: float
    p_non_original: float
    p_acc_image: float
    p_rej_image: float
    p_non_image: float
    delta_acc: float
    delta_rej: float
    decoherent: bool
    passed: bool

    def to_json_dict(self):
        return {
            "word": self.word,
            "p_acc_original": self.p_acc_original,
            "p_rej_original": self.p_rej_original,
            "p_non_original": self.p_non_original,
            "p_acc_image": self.p_acc_image,
            "p_rej_image": self.p_rej_image,
            "p_non_image": self.p_non_image,
            "delta_acc": self.delta_acc,
            "delta_rej": self.delta_rej,
            "decoherent": self.decoherent,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class EquivReport:
    passed: bool
    rows: tuple[WordComparison, ...]

    def to_json_dict(self):
        return {
            "passed": self.passed,
            "rows": [r.to_json_dict() for r in self.rows],
        }


class ImageSteps(KernelSteps):
    """The stepper behind the image runs of ``equiv_check``: the kernel's
    steps, with a checkpoint that also carries the decoherence flag, true
    while components sharing a garbage history have shared a stack at
    every completed three-step block so far."""

    def start(self):
        return super().start(), True

    def step(self, point, tape, i):
        inner, head = super().step(point[0], tape, i)
        decoherent = point[1]
        if decoherent and i % 3 == 0:
            groups: dict = {}
            # interned cells are equal exactly when their tapes are
            for conf in inner[0]:
                groups.setdefault(conf.garbage, set()).add(conf.stack)
            decoherent = all(len(stacks) == 1 for stacks in groups.values())
        return (inner, decoherent), head

    def alive(self, point) -> bool:
        return super().alive(point[0])

    def result(self, point, steps: int):
        res = super().result(point[0], steps)
        return res.p_acc, res.p_rej, res.p_non, point[1]

    def size(self, point) -> int:
        return super().size(point[0])

    def cells(self, point):
        return super().cells(point[0])


def equiv_check(
    original: MachineQCPDA,
    image: MachineQPAG,
    words,
    max_steps: Optional[int] = None,
    tol: float = 1e-9,
) -> EquivReport:
    """Compare the two machines word by word, giving the lowered machine
    three steps for every original step. Each side runs the words through
    one ``PrefixRuns``, so consecutive words share the steps their common
    prefix fixes."""
    originals = PrefixRuns(BranchSteps(original))
    images = PrefixRuns(ImageSteps(image))
    rows = []
    for word in words:
        word = tuple(word)
        budget = max_steps if max_steps is not None else default_max_steps(len(word))
        orig = originals.run(word, budget)
        ia, ir, inon, deco = images.run(word, 3 * budget)
        da = abs(orig.p_acc - ia)
        dr = abs(orig.p_rej - ir)
        ok = da <= tol and dr <= tol and deco
        rows.append(
            WordComparison(
                word="".join(word),
                p_acc_original=orig.p_acc,
                p_rej_original=orig.p_rej,
                p_non_original=orig.p_non,
                p_acc_image=ia,
                p_rej_image=ir,
                p_non_image=inon,
                delta_acc=da,
                delta_rej=dr,
                decoherent=deco,
                passed=ok,
            )
        )
    return EquivReport(passed=all(r.passed for r in rows), rows=tuple(rows))
