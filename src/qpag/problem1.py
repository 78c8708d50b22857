"""The three-segment parity-of-differences problem.

An instance is a word w1#w2#w3 with w1, w2 over {a,b,c} and w3 over
{a,b,c,d}, all the same length n >= 1. Call two equal-length words
"even-distinct" when they differ in an even number of positions. An
instance is a "yes" when exactly one of the pairs (w1, reverse(w2)) and
(w1, reverse(w3)) is even-distinct, and a "no" when both or neither are.

``build_machine`` returns a 13-state garbage-tape machine that accepts
yes-instances and rejects no-instances with probability exactly 1 in one
pass: the first segment is pushed, two interfering branch pairs pop it
against the reversed second segment or scan it against the third, each
tracking its difference parity in a sign, and a final four-way mix at the
right endmarker routes equal parities to reject and unequal parities to
accept. Both neutral states receive amplitude zero on every instance of
the required shape.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .errors import InvariantError, LengthMismatch
from .model import (
    EPSILON,
    POP,
    InputAlphabet,
    MachineQPAG,
    StackAlphabet,
    TransitionQPAG,
    push,
)
# ``problem1.run`` stays bound: perfbench/tracing.py wraps it by that name.
from .simulate import run, run_many  # noqa: F401

SEGMENT_ALPHABET = ("a", "b", "c")
THIRD_ALPHABET = ("a", "b", "c", "d")
SEPARATOR = "#"
YES = "yes"
NO = "no"

_WILD = ("Z", "a", "b", "c")  # every reachable stack top


def even_distinct(u, v) -> bool:
    """True when the words differ in an even number of positions."""
    u = tuple(u)
    v = tuple(v)
    if len(u) != len(v):
        raise LengthMismatch(f"cannot compare lengths {len(u)} and {len(v)}")
    return sum(1 for x, y in zip(u, v) if x != y) % 2 == 0


@dataclass(frozen=True)
class Instance:
    w1: str
    w2: str
    w3: str

    def __post_init__(self):
        n = len(self.w1)
        if n < 1:
            raise InvariantError("segments must be nonempty")
        if len(self.w2) != n or len(self.w3) != n:
            raise LengthMismatch("all three segments must share one length")
        for seg, alpha in ((self.w1, SEGMENT_ALPHABET), (self.w2, SEGMENT_ALPHABET), (self.w3, THIRD_ALPHABET)):
            for ch in seg:
                if ch not in alpha:
                    raise InvariantError(
                        f"symbol {ch!r} not allowed in segment {seg!r}"
                    )

    @property
    def n(self) -> int:
        return len(self.w1)

    def word(self) -> str:
        return self.w1 + SEPARATOR + self.w2 + SEPARATOR + self.w3

    def tokens(self) -> tuple[str, ...]:
        return tuple(self.word())


def classify(inst: Instance) -> str:
    """"yes" when exactly one pair is even-distinct, "no" otherwise."""
    first = even_distinct(inst.w1, inst.w2[::-1])
    second = even_distinct(inst.w1, inst.w3[::-1])
    return YES if first != second else NO


def build_machine() -> MachineQPAG:
    """The 13-state recognizer. 135 transitions; passes the partial-mode
    column checks with zero violations."""
    trans: list[TransitionQPAG] = []
    half = 0.5 + 0j

    def t(src, read, top, tgt, op, move, amp):
        trans.append(TransitionQPAG(src, read, top, tgt, op, move, complex(amp)))

    # ---- load segment one onto the stack
    t("q0", "<", "Z", "q0", EPSILON, 1, 1)
    for sym in SEGMENT_ALPHABET:
        for top in _WILD:
            t("q0", sym, top, "q0", push(sym), 1, 1)
    # split four ways at the first separator: branch pair 1 compares the
    # stack now, branch pair 2 carries it to segment three
    for top in _WILD:
        t("q0", SEPARATOR, top, "q1_I0", EPSILON, 1, half)
        t("q0", SEPARATOR, top, "q1_I1", EPSILON, 1, -half)
        t("q0", SEPARATOR, top, "q2_I0", EPSILON, 1, half)
        t("q0", SEPARATOR, top, "q2_I1", EPSILON, 1, -half)

    # ---- branch pair 1: pop the stack against segment two, flip the parity
    # index on each mismatch, then idle through segment three
    for x in (0, 1):
        src = f"q1_I{x}"
        for read in SEGMENT_ALPHABET:
            for top in SEGMENT_ALPHABET:
                tgt = f"q1_I{x if read == top else 1 - x}"
                t(src, read, top, tgt, POP, 1, 1)
        for top in _WILD:
            t(src, SEPARATOR, top, f"q1_O{x}", EPSILON, 1, 1)
    for x in (0, 1):
        src = f"q1_O{x}"
        for read in THIRD_ALPHABET:
            t(src, read, "Z", src, EPSILON, 1, 1)

    # ---- branch pair 2: idle through segment two, then pop against
    # segment three
    for x in (0, 1):
        src = f"q2_I{x}"
        for read in SEGMENT_ALPHABET:
            for top in _WILD:
                t(src, read, top, src, EPSILON, 1, 1)
        for top in _WILD:
            t(src, SEPARATOR, top, f"q2_O{x}", EPSILON, 1, 1)
    for x in (0, 1):
        src = f"q2_O{x}"
        for read in THIRD_ALPHABET:
            for top in SEGMENT_ALPHABET:
                tgt = f"q2_O{x if read == top else 1 - x}"
                t(src, read, top, tgt, POP, 1, 1)

    # ---- final mix at the right endmarker; rows are orthogonal by the
    # four-dimensional Hadamard pattern below
    finals = ("qf_n0", "qf_acc", "qf_n1", "qf_rej")
    signs = {
        "q1_O0": (1, 1, 1, 1),
        "q1_O1": (1, -1, 1, -1),
        "q2_O0": (-1, -1, 1, 1),
        "q2_O1": (-1, 1, 1, -1),
    }
    for src in ("q1_O0", "q1_O1", "q2_O0", "q2_O1"):
        for tgt, sign in zip(finals, signs[src]):
            t(src, ">", "Z", tgt, EPSILON, 1, sign * half)

    states = (
        "q0",
        "q1_I0",
        "q1_I1",
        "q1_O0",
        "q1_O1",
        "q2_I0",
        "q2_I1",
        "q2_O0",
        "q2_O1",
        "qf_n0",
        "qf_n1",
        "qf_acc",
        "qf_rej",
    )
    return MachineQPAG(
        states=states,
        input_alphabet=InputAlphabet(
            symbols=("<", "a", "b", "c", "d", "#", ">"),
            left_end="<",
            right_end=">",
        ),
        stack_alphabet=StackAlphabet(symbols=("Z", "a", "b", "c"), bottom="Z"),
        transitions=tuple(trans),
        initial="q0",
        accepting=frozenset({"qf_acc"}),
        rejecting=frozenset({"qf_rej"}),
    )


def generate(n: int, cls: str, seed: int) -> Instance:
    """Deterministic sampler: rejection-samples uniform segments until the
    instance classifies as requested."""
    if cls not in (YES, NO):
        raise InvariantError(f"class must be {YES!r} or {NO!r}")
    if n < 1:
        raise InvariantError("n must be at least 1")
    rng = random.Random(f"problem1|{n}|{cls}|{seed}")
    while True:
        w1 = "".join(rng.choice(SEGMENT_ALPHABET) for _ in range(n))
        w2 = "".join(rng.choice(SEGMENT_ALPHABET) for _ in range(n))
        w3 = "".join(rng.choice(THIRD_ALPHABET) for _ in range(n))
        inst = Instance(w1, w2, w3)
        if classify(inst) == cls:
            return inst


@dataclass(frozen=True)
class SweepFailure:
    word: str
    expected: str
    p_acc: float
    p_rej: float
    deviation: float

    def to_json_dict(self):
        return {
            "word": self.word,
            "expected": self.expected,
            "p_acc": self.p_acc,
            "p_rej": self.p_rej,
            "deviation": self.deviation,
        }


@dataclass(frozen=True)
class SweepReport:
    n: int
    mode: str
    checked: int
    failures: tuple[SweepFailure, ...]
    max_deviation: float

    def to_json_dict(self):
        return {
            "n": self.n,
            "mode": self.mode,
            "checked": self.checked,
            "failures": [f.to_json_dict() for f in self.failures],
            "max_deviation": self.max_deviation,
        }


EXHAUSTIVE_CAP = 10**6


def _instances_exhaustive(n: int):
    for w1 in itertools.product(SEGMENT_ALPHABET, repeat=n):
        for w2 in itertools.product(SEGMENT_ALPHABET, repeat=n):
            for w3 in itertools.product(THIRD_ALPHABET, repeat=n):
                yield Instance("".join(w1), "".join(w2), "".join(w3))


def sweep(
    n: int,
    samples: Optional[int] = None,
    seed: int = 0,
    tol: float = 1e-9,
    machine: Optional[MachineQPAG] = None,
) -> SweepReport:
    """Check the machine against every instance of size n
    (``samples is None``) or against ``samples`` random instances.

    Deviation per instance: distance of the expected outcome's probability
    from 1. Exhaustive mode enumerates all 36**n triples, so n is capped
    where that count passes a million. Candidates are generated one at a
    time and run through ``run_many``, so consecutive words share the steps
    their common prefix fixes.
    """
    if n < 1:
        raise InvariantError("n must be at least 1")
    if machine is None:
        machine = build_machine()
    if samples is None:
        total = (3**n) * (3**n) * (4**n)
        if total > EXHAUSTIVE_CAP:
            raise InvariantError(
                f"exhaustive sweep at n={n} means {total} candidates; "
                f"cap is {EXHAUSTIVE_CAP}, use sampling"
            )
        candidates = _instances_exhaustive(n)
        mode = "exhaustive"
    else:
        if samples < 1:
            raise InvariantError("sample count must be positive")
        rng = random.Random(f"sweep|{n}|{seed}")

        def _sampled():
            for _ in range(samples):
                yield Instance(
                    "".join(rng.choice(SEGMENT_ALPHABET) for _ in range(n)),
                    "".join(rng.choice(SEGMENT_ALPHABET) for _ in range(n)),
                    "".join(rng.choice(THIRD_ALPHABET) for _ in range(n)),
                )

        candidates = _sampled()
        mode = "sample"

    checked = 0
    failures = []
    max_dev = 0.0
    candidates, words = itertools.tee(candidates)
    results = run_many(machine, (inst.tokens() for inst in words))
    for inst, result in zip(candidates, results):
        expected = classify(inst)
        good = result.p_acc if expected == YES else result.p_rej
        dev = abs(1 - good)
        if dev > max_dev:
            max_dev = dev
        if dev > tol:
            failures.append(
                SweepFailure(
                    word=inst.word(),
                    expected=expected,
                    p_acc=result.p_acc,
                    p_rej=result.p_rej,
                    deviation=dev,
                )
            )
        checked += 1
    return SweepReport(
        n=n,
        mode=mode,
        checked=checked,
        failures=tuple(failures),
        max_deviation=max_dev,
    )


def expected_amplitudes(inst: Instance) -> tuple[complex, complex]:
    """Closed-form (accept, reject) amplitudes from the two difference
    parities; the four-way mix sends equal parities to reject."""
    p1 = sum(1 for x, y in zip(inst.w1, inst.w2[::-1]) if x != y)
    p2 = sum(1 for x, y in zip(inst.w1, inst.w3[::-1]) if x != y)
    s1 = (-1) ** p1
    s2 = (-1) ** p2
    return complex((s1 - s2) / 2), complex((s1 + s2) / 2)
