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
from operator import ne
from typing import Optional

from .errors import InvariantError, LengthMismatch
from .model import (
    EPSILON,
    POP,
    InputAlphabet,
    MachineQPAG,
    Record,
    StackAlphabet,
    TransitionQPAG,
    check_tolerance,
    push,
    records,
    rendered,
    run_bounds,
)
# ``problem1.run`` stays bound: perfbench/tracing.py wraps it by that name.
from .simulate import KernelSteps, run, run_batch

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
    return _class_of(_odd(inst.w1, inst.w2), _odd(inst.w1, inst.w3))


def _odd(u, v) -> int:
    """1 when ``u`` and ``reverse(v)``, of one length, differ in an odd
    number of positions, else 0."""
    return sum(map(ne, u, reversed(v))) & 1


def _class_of(odd1: int, odd2: int) -> str:
    """The class of an instance whose pairs (w1, reverse(w2)) and (w1,
    reverse(w3)) have mismatch parities ``odd1`` and ``odd2``: "yes" when
    exactly one pair is even-distinct."""
    return YES if odd1 != odd2 else NO


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
        inst = _draw(rng, n)
        if classify(inst) == cls:
            return inst


def _draw(rng: random.Random, n: int) -> Instance:
    """One uniform instance of segment length ``n``: w1, then w2, then w3."""
    alphabets = (SEGMENT_ALPHABET, SEGMENT_ALPHABET, THIRD_ALPHABET)
    return Instance(*("".join(rng.choice(a) for _ in range(n)) for a in alphabets))


@dataclass(frozen=True)
class SweepFailure(Record):
    word: str
    expected: str
    p_acc: float
    p_rej: float
    deviation: float


@dataclass(frozen=True)
class SweepReport(Record):
    n: int
    mode: str
    checked: int
    failures: tuple[SweepFailure, ...] = rendered(records)
    max_deviation: float


EXHAUSTIVE_CAP = 10**6

# The transpositions (a b) and (b c); together they generate every
# relabelling of the segment letters.
_TRANSPOSITIONS = ({"a": "b", "b": "a"}, {"b": "c", "c": "b"})


def _instances_exhaustive(n: int):
    for w1 in itertools.product(SEGMENT_ALPHABET, repeat=n):
        for w2 in itertools.product(SEGMENT_ALPHABET, repeat=n):
            for w3 in itertools.product(THIRD_ALPHABET, repeat=n):
                yield Instance("".join(w1), "".join(w2), "".join(w3))


def _symmetric(machine: MachineQPAG) -> bool:
    """``_relabelling_invariant(machine)``, checked once per machine: the
    verdict is kept in the machine's ``__dict__``, where
    ``cached_property`` keeps its column index."""
    kept = vars(machine)
    verdict = kept.get("_problem1_symmetric")
    if verdict is None:
        verdict = kept["_problem1_symmetric"] = _relabelling_invariant(machine)
    return verdict


def _relabelling_invariant(machine: MachineQPAG) -> bool:
    """True when relabelling the letters a, b, c leaves the machine's runs
    unchanged, float for float.

    A transposition acts on the read symbol, the stack top and push
    payloads, and fixes every other symbol. The machine passes when, for
    both transpositions, the alphabets map onto themselves with the
    endmarkers and the bottom symbol fixed, and the relabelled column
    index equals the index: every column's image column exists and lists
    the images of its rows in the same canonical order. ``evolve`` and ``measure`` never order by symbol, so a run on
    a relabelled instance then does the same float operations in the same
    order as the run on the instance, and their ``RunResult``s are ``==``.
    """
    alpha = machine.input_alphabet
    stack = machine.stack_alphabet
    fixed = (alpha.left_end, alpha.right_end, stack.bottom)
    for pi in _TRANSPOSITIONS:
        if _relabelled(pi, fixed) != fixed:
            return False
        for symbols in (alpha.symbols, stack.symbols):
            if set(_relabelled(pi, symbols)) != set(symbols):
                return False

    def relabelled_columns(pi):
        return {
            (q, *_relabelled(pi, (read, top))): [
                (t.target, t.op.kind, _relabelled(pi, t.op.payload), t.move, t.amp) for t in rows
            ]
            for (q, read, top), rows in machine.columns.items()
        }

    plain = relabelled_columns({})
    return all(relabelled_columns(pi) == plain for pi in _TRANSPOSITIONS)


def _relabelled(pi, symbols) -> tuple[str, ...]:
    """``symbols`` with each one ``pi`` names replaced by its image."""
    return tuple(map(pi.get, symbols, symbols))


def _representatives(n: int):
    """(tokens, odd1, odd2, orbit size) for one instance per orbit of the
    relabellings of a, b, c: the instance whose letters a, b, c first
    appear in that order across w1 w2 w3 (``d`` is fixed). ``tokens`` is
    its word as a tuple, ``odd1`` and ``odd2`` its pairs' mismatch
    parities (``_odd``). It is the first of its orbit in
    ``_instances_exhaustive``'s order, and the representatives come in
    that order too. An orbit holds 6 instances when two or more of a, b, c
    occur, else 3."""
    firsts = _segments(SEGMENT_ALPHABET, n)
    thirds = _segments(THIRD_ALPHABET, n)
    for w1, seen1 in firsts[0]:
        for w2, seen2 in firsts[seen1]:
            head = (*w1, SEPARATOR, *w2, SEPARATOR)
            odd1 = _odd(w1, w2)
            for w3, seen3 in thirds[seen2]:
                yield head + w3, odd1, _odd(w1, w3), 6 if seen3 > 1 else 3


def _segments(alphabet, n: int) -> list[list]:
    """Entry ``met`` (0..3) lists, in lexicographic order, the length-``n``
    segments over ``alphabet`` (tuples) that may follow words in which the
    first ``met`` of the letters a, b, c have appeared: those in which no
    letter of a, b, c appears before every letter ahead of it has. Each
    comes with the count of letters met after it."""
    out = []
    for met in range(len(SEGMENT_ALPHABET) + 1):
        kept = []
        for seg in itertools.product(alphabet, repeat=n):
            seen = met
            for ch in seg:
                k = SEGMENT_ALPHABET.index(ch) if ch in SEGMENT_ALPHABET else -1
                # a letter met already, or the next one
                if k > seen:
                    break
                seen = max(seen, k + 1)
            else:
                kept.append((seg, seen))
        out.append(kept)
    return out


def _each(instances):
    """(tokens, odd1, odd2, 1) for each instance, as ``_representatives``
    gives a representative with its orbit size."""
    for inst in instances:
        yield inst.tokens(), _odd(inst.w1, inst.w2), _odd(inst.w1, inst.w3), 1


def _instance(tokens) -> Instance:
    """The instance whose word is ``tokens``."""
    return Instance(*"".join(tokens).split(SEPARATOR))


def _orbit(inst: Instance) -> list[Instance]:
    """Every relabelling of ``inst``'s letters a, b, c, once each, in
    ``_instances_exhaustive``'s order."""
    members = set()
    for perm in itertools.permutations(SEGMENT_ALPHABET):
        table = str.maketrans("".join(SEGMENT_ALPHABET), "".join(perm))
        members.add(Instance(*(w.translate(table) for w in (inst.w1, inst.w2, inst.w3))))
    return sorted(members, key=lambda m: (m.w1, m.w2, m.w3))


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
    from 1; an instance fails when it passes ``tol``, which must be a
    nonnegative number. Exhaustive mode covers all 36**n triples, so n is
    capped where that count passes a million. A candidate is its word's
    token tuple with its two mismatch parities. Exhaustive mode runs all
    its candidates as one ``simulate.run_batch``, so words share the steps
    their common prefix fixes, and runs that meet merge. Runs do meet: the
    branch pair comparing w1 with reversed w2 pops w1 onto the garbage
    tape whatever w2 is, so after the second ``#`` the vector depends only
    on w1 and the parity of the differences. Sampled mode runs each draw
    through ``run`` as it is drawn, so its memory does not grow with the
    sample count. A candidate is graded from its parities (``_class_of``,
    as ``classify`` grades an instance), and an ``Instance`` is built only
    for a failing one, so a passing candidate costs little beyond its
    run's steps.

    When the machine treats the letters a, b, c alike (``_symmetric``, as
    the built-in machine does), exhaustive mode runs one representative
    per orbit of their relabellings and counts the orbit toward
    ``checked``. That is exact: a relabelled instance's run is ``==`` its
    representative's, and ``classify`` is unchanged by relabelling, since
    it counts mismatches. So a failing representative's result is
    reported for each member of its orbit; failures are listed per
    instance in enumeration order, and the report equals the one
    per-instance runs give.
    """
    if n < 1:
        raise InvariantError("n must be at least 1")
    check_tolerance(tol)
    if machine is None:
        machine = build_machine()
    if samples is None:
        total = (3**n) * (3**n) * (4**n)
        if total > EXHAUSTIVE_CAP:
            raise InvariantError(
                f"exhaustive sweep at n={n} means {total} candidates; "
                f"cap is {EXHAUSTIVE_CAP}, use sampling"
            )
        symmetric = _symmetric(machine)
        candidates = list(_representatives(n) if symmetric else _each(_instances_exhaustive(n)))
        bounds = [run_bounds(machine, tokens, None) for tokens, *_ in candidates]
        graded = zip(candidates, run_batch(KernelSteps(machine), bounds))
        mode = "exhaustive"
    else:
        if samples < 1:
            raise InvariantError("sample count must be positive")
        rng = random.Random(f"sweep|{n}|{seed}")
        candidates = _each(_draw(rng, n) for _ in range(samples))
        graded = ((c, run(machine, c[0])) for c in candidates)
        mode = "sample"

    checked = 0
    failures = []
    max_dev = 0.0
    for (tokens, odd1, odd2, weight), result in graded:
        expected = _class_of(odd1, odd2)
        dev = abs(1 - (result.p_acc if expected == YES else result.p_rej))
        if dev > max_dev:
            max_dev = dev
        if dev > tol:
            inst = _instance(tokens)
            for member in _orbit(inst) if weight > 1 else (inst,):
                failures.append(
                    SweepFailure(
                        word=member.word(),
                        expected=expected,
                        p_acc=result.p_acc,
                        p_rej=result.p_rej,
                        deviation=dev,
                    )
                )
        checked += weight
    if mode == "exhaustive":
        # words of one n hold "#" at the same places, so word order is
        # enumeration order
        failures.sort(key=lambda f: f.word)
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
    s1 = (-1) ** _odd(inst.w1, inst.w2)
    s2 = (-1) ** _odd(inst.w1, inst.w3)
    return complex((s1 - s2) / 2), complex((s1 + s2) / 2)
