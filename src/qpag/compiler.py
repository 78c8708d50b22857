"""Lowering a scheduled-stack machine onto the garbage-tape model.

Each original step becomes three: the original transition fires and applies
the target's scheduled stack operation while entering a fresh staging state;
the staging state pushes a marker naming the operation that just happened;
a second staging state pops that marker onto the garbage tape. The garbage
tape thus records the operation history, which is exactly the information
the scheduled-stack machine's measurement leaks classically, so the two
machines produce identical probability ledgers when one original step is
matched against ``IMAGE_STEPS`` = 3 lowered steps: the row's own step,
then stage a, then stage b.

Transitions into accepting or rejecting states skip the staging detour: the
run ends there and no marker is needed.

``equiv_check`` runs each side's words as one ``simulate.run_batch``: the
original on ``branching.BranchSteps``, the image on ``ImageSteps``, the
kernel's stepper with a decoherence flag in each checkpoint, at
``IMAGE_STEPS`` times the original's step budget. The flag is part of an
image checkpoint's key, so two image runs merge only when their flags
agree, and each row takes the flag its own run leaves.
"""

from __future__ import annotations

from typing import Optional

from . import _resolve
from .errors import NonWellFormedInput
from .model import (
    EPSILON,
    POP,
    MachineQCPDA,
    MachineQPAG,
    Record,
    StackAlphabet,
    StackOp,
    TransitionQPAG,
    check_kind,
    push,
    records,
    run_bounds,
)
from .simulate import KernelSteps, run_batch
from .wellformed import check_qcpda


def __getattr__(name):
    # ``compiler.trajectory`` and ``compiler.run_qcpda`` resolve through the
    # export table (perfbench/tracing.py wraps them by these names), so
    # ``branching`` loads with the equivalence check, not with a compile
    return _resolve(name, globals())


# the column-check tolerance a machine must meet to be lowered
CHECK_TOL = 1e-9
# the largest |delta p_acc| and |delta p_rej| a passing equivalence row shows
EQUIV_TOL = 1e-9
# image steps per original step: the row's own step, then stage a, then stage b
IMAGE_STEPS = 3


def _aux_states_doc(aux_states):
    return {q: list(stages) for q, *stages in aux_states}


class CompileMap(Record):
    """How ``compile_qcpda`` built the image: auxiliary states, labels and row counts."""

    # (target, stage_a, stage_b)
    aux_states: tuple[tuple[str, str, str], ...]
    # (operation description, marker)
    labels: tuple[tuple[str, str], ...]
    original_transitions: int
    image_transitions: int

    _render = {"aux_states": _aux_states_doc, "labels": dict}


def _fresh(name: str, used: set) -> str:
    """``name`` with primes appended until it is not in ``used``; the result
    is added to ``used``."""
    while name in used:
        name += "'"
    used.add(name)
    return name


def compile_qcpda(machine: MachineQCPDA) -> tuple[MachineQPAG, CompileMap]:
    # the column check refuses a machine of another kind before any work
    report = check_qcpda(machine, mode="partial", tol=CHECK_TOL)
    if not report.passed:
        raise NonWellFormedInput(
            "input machine fails its column checks; refusing to lower it",
            report=report,
        )

    sigma = machine.sigma_map
    reached = sorted({t.target for t in machine.transitions} - machine.halting)
    # fresh names: one marker per stack operation that actually fires, then
    # one staging pair per reached target
    used_stack = set(machine.stack_alphabet.symbols)
    markers = {
        op: _fresh("l:" + op.describe(), used_stack)
        for op in sorted({sigma[q] for q in reached}, key=StackOp.sort_key)
    }
    used_states = set(machine.states)
    stages = {
        q: (_fresh(q + "@a", used_states), _fresh(q + "@b", used_states))
        for q in reached
    }

    transitions = []
    for t in machine.transitions:
        target, op = (
            (stages[t.target][0], sigma[t.target])
            if t.target in stages
            else (t.target, EPSILON)
        )
        transitions.append(
            TransitionQPAG(t.source, t.read, t.top, target, op, t.move, t.amp)
        )
    reads = machine.input_alphabet.symbols
    for q, (a, b) in stages.items():
        marker = markers[sigma[q]]
        transitions += [
            TransitionQPAG(a, read, top, b, push(marker), 0, 1 + 0j)
            for read in reads
            for top in machine.stack_alphabet.symbols
        ]
        transitions += [TransitionQPAG(b, read, marker, q, POP, 0, 1 + 0j) for read in reads]

    image = MachineQPAG(
        states=machine.states + tuple(x for pair in stages.values() for x in pair),
        input_alphabet=machine.input_alphabet,
        stack_alphabet=StackAlphabet(
            symbols=machine.stack_alphabet.symbols + tuple(markers.values()),
            bottom=machine.stack_alphabet.bottom,
        ),
        transitions=tuple(transitions),
        initial=machine.initial,
        accepting=machine.accepting,
        rejecting=machine.rejecting,
    )
    # two operations may describe alike (push("a", "b") and push("ab")):
    # their labels are primed apart, as their markers are
    used_labels: set = set()
    labels = tuple((_fresh(op.describe(), used_labels), m) for op, m in markers.items())
    cmap = CompileMap(
        aux_states=tuple((q, a, b) for q, (a, b) in stages.items()),
        labels=labels,
        original_transitions=len(machine.transitions),
        image_transitions=len(transitions),
    )
    return image, cmap


# ======================================================================
# Behavioural comparison
# ======================================================================


class WordComparison(Record):
    """Outcome probabilities of the original and its image on one word."""

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


class EquivReport(Record):
    """The comparison of a machine with its image, one row per word."""

    passed: bool
    rows: tuple[WordComparison, ...]

    _render = {"rows": records}


class ImageSteps(KernelSteps):
    """The stepper behind the image runs of ``equiv_check``: the kernel's
    steps, with a checkpoint that is the kernel's with the decoherence flag
    appended, true while components sharing a garbage history have shared a
    stack at the end of every completed block of ``IMAGE_STEPS`` steps so
    far."""

    def start(self):
        return super().start() + (True,)

    def step(self, point, tape, i):
        inner = super().step(point, tape, i)
        decoherent = point[-1]
        if decoherent and i % IMAGE_STEPS == 0:
            # the first stack met with each garbage tape; interned cells are
            # the same object exactly when their tapes are equal
            first: dict = {}
            decoherent = all(first.setdefault(c.garbage, c.stack) is c.stack for c in inner[0])
        return inner + (decoherent,)

    def result(self, point, steps: int):
        res = super().result(point, steps)
        return res.p_acc, res.p_rej, res.p_non, point[-1]

    def key(self, point):
        return super().key(point) + (point[-1],)


def equiv_check(
    original: MachineQCPDA,
    image: MachineQPAG,
    words,
    max_steps: Optional[int] = None,
) -> EquivReport:
    """Compare the two machines word by word, giving the lowered machine
    ``IMAGE_STEPS`` steps for every original step: a word's image run has
    ``IMAGE_STEPS`` times the budget of its original run, ``max_steps`` or
    the default for its length. A word passes when its two ledgers agree
    within ``EQUIV_TOL`` and the image run stays decoherent. Each side runs
    all the words as one ``simulate.run_batch``."""
    from .branching import BranchSteps

    check_kind(original, MachineQCPDA)
    check_kind(image, MachineQPAG)
    words = [tuple(word) for word in words]
    originals = [run_bounds(original, word, max_steps) for word in words]
    images = [run_bounds(image, w, IMAGE_STEPS * b) for w, (_, b) in zip(words, originals)]
    rows = []
    for word, orig, (ia, ir, inon, deco) in zip(
        words, run_batch(BranchSteps(original), originals), run_batch(ImageSteps(image), images)
    ):
        da = abs(orig.p_acc - ia)
        dr = abs(orig.p_rej - ir)
        ok = da <= EQUIV_TOL and dr <= EQUIV_TOL and deco
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
