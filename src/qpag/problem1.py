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

import random
from operator import ne
from typing import Optional

from .errors import InvariantError, LengthMismatch, MachineError
from .model import (
    EPSILON,
    POP,
    Frozen,
    InputAlphabet,
    MachineQPAG,
    Record,
    StackAlphabet,
    TransitionQPAG,
    check_kind,
    check_tolerance,
    default_max_steps,
    make_tape,
    push,
    records,
)
# ``problem1.run`` stays bound: perfbench/tracing.py wraps it by that name.
from .simulate import KernelSteps, run, run_layers

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


class Instance(Frozen):
    """A word w1#w2#w3 of the three-segment problem."""

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


class SweepFailure(Record):
    """An instance whose expected outcome's probability is more than ``tol`` from 1."""

    word: str
    expected: str
    p_acc: float
    p_rej: float
    deviation: float


class SweepReport(Record):
    """The outcome of one sweep: instances checked, failures and the largest
    deviation. ``seed`` is the sample stream's seed, None when exhaustive."""

    n: int
    mode: str
    seed: Optional[int]
    checked: int
    failures: tuple[SweepFailure, ...]
    max_deviation: float

    _render = {"failures": records}


# An exhaustive sweep lists its failures one per instance; past this many
# it is refused, naming the count, rather than printing them all.
FAILURE_CAP = 100_000

def _reduced(machine: MachineQPAG) -> bool:
    """True for the built-in machine, whose exhaustive sweep expands
    w1 = aⁿ alone (see ``sweep``), checked once per machine: the verdict is
    kept in the machine's ``__dict__``, where ``cached_property`` keeps its
    column index."""
    kept = vars(machine)
    verdict = kept.get("_problem1_reduced")
    if verdict is None:
        verdict = kept["_problem1_reduced"] = machine == build_machine()
    return verdict


class _Words:
    """A set of tape prefixes, all of one length: ``count`` of them, the
    union over ``parts``, a flat tuple (word set, symbol, word set, symbol,
    ...), of each word set's prefixes extended by the symbol after it: one
    tuple per word set and no pair tuples, so the cyclic garbage collector
    tracks fewer objects. The root, with no parts, is the empty prefix.
    Word sets share their parts, so a sweep's word sets form a DAG of
    shared prefixes, as a GLR parser's shared packed forest does (Tomita
    1985). ``+`` is the union of disjoint sets."""

    __slots__ = ("count", "parts")

    def __init__(self, count: int = 1, parts: tuple = ()):
        self.count = count
        self.parts = parts

    def __add__(self, other: _Words) -> _Words:
        return _Words(self.count + other.count, self.parts + other.parts)

    def __iter__(self):
        if not self.parts:
            yield ()
        it = iter(self.parts)
        for words, symbol in zip(it, it):
            for head in words:
                yield (*head, symbol)


class _Grader:
    """The layout of the size-``n`` instances and the grader states an
    exhaustive sweep keeps, each with its ``_Words``, for
    ``simulate.run_layers``.

    Tape position k holds one symbol of ``layout[k]``: the left endmarker,
    a/b/c n times, ``#``, a/b/c n times, ``#``, a/b/c/d n times, the right
    endmarker. A grader state is (w1, odd1, odd2): the first segment read
    so far and the two mismatch parities (``_odd``) read so far. It is
    updated symbol by symbol and never reads the machine.

    When ``reduced``, positions 1..n hold "a" alone, and each word of a
    final state counts for ``weight`` = 3**n instances, one per w1 (see
    ``sweep``); otherwise ``weight`` is 1."""

    def __init__(self, machine: MachineQPAG, n: int, reduced: bool):
        alpha = machine.input_alphabet
        # a letter the machine does not know raises, as ``run_bounds`` does
        make_tape(machine, (*SEGMENT_ALPHABET, SEPARATOR, *THIRD_ALPHABET))
        self.n = n
        self.weight = 3**n if reduced else 1
        self.budget = default_max_steps(3 * n + 2)
        self.layout = (
            (alpha.left_end,),
            *[("a",) if reduced else SEGMENT_ALPHABET] * n,
            (SEPARATOR,),
            *[SEGMENT_ALPHABET] * n,
            (SEPARATOR,),
            *[THIRD_ALPHABET] * n,
            (alpha.right_end,),
        )
        self.start = ("", 0, 0)

    def read(self, k: int, g, s: str):
        """The state after ``g`` reads ``s`` at position ``k``."""
        n = self.n
        w1, odd1, odd2 = g
        if k == 0 or k == n + 1 or k == 2 * n + 2 or k == 3 * n + 3:
            return g
        if k <= n:
            return (w1 + s, odd1, odd2)
        if k <= 2 * n + 1:
            return (w1, odd1 ^ (s != w1[2 * n + 1 - k]), odd2)
        return (w1, odd1, odd2 ^ (s != w1[3 * n + 2 - k]))

    def expand(self, k: int, members: dict) -> dict:
        """``members`` read at position ``k``, as ``run_layers`` expands
        them: (symbol, budget) -> {state: word set}, each word set
        extended by the symbol read."""
        out: dict = {}
        for g, words in members.items():
            for s in self.layout[k]:
                # ``read`` at one position with one symbol is one-to-one, so
                # no two of ``members`` meet in a group
                group = out.setdefault((s, self.budget), {})
                group[self.read(k, g, s)] = _Words(words.count, (words, s))
        return out

    def fold(self, k: int, members: dict) -> dict:
        """The final states, with their word sets, of ``members`` read
        through every position after ``k``."""
        for j in range(k + 1, len(self.layout)):
            out: dict = {}
            for group in self.expand(j, members).values():
                for g, words in group.items():
                    old = out.get(g)
                    out[g] = words if old is None else old + words
            members = out
        return members


def _deviations(result) -> dict:
    """Each class's distance of its expected outcome's probability from 1."""
    return {YES: abs(1 - result.p_acc), NO: abs(1 - result.p_rej)}


def _sweep_exhaustive(machine: MachineQPAG, n: int, tol: float, reduced: bool):
    """(checked, failures, max deviation) over every instance of size
    ``n``, run as one ``simulate.run_layers`` batch whose members are
    ``_Grader`` states, each with the ``_Words`` it stands for. A
    ``reduced`` sweep that meets a failing final state sweeps every w1
    instead, so that its failures are listed per instance."""
    grader = _Grader(machine, n, reduced)
    failing = []  # (final word set, expected class, result, deviation)
    checked = 0
    count_failing = 0
    max_dev = 0.0
    layers = run_layers(KernelSteps(machine), {grader.start: _Words()}, grader.expand)
    for k, ends in enumerate(layers):
        for group, result in ends:
            devs = _deviations(result)
            for g, words in grader.fold(k, group).items():
                cls = _class_of(g[1], g[2])
                dev = devs[cls]
                if dev > max_dev:
                    max_dev = dev
                checked += words.count * grader.weight
                if dev > tol:
                    if reduced:
                        return _sweep_exhaustive(machine, n, tol, False)
                    failing.append((words, cls, result, dev))
                    count_failing += words.count
    if count_failing > FAILURE_CAP:
        raise MachineError(
            f"exhaustive sweep at n={n} fails on {count_failing} instances; "
            f"at most {FAILURE_CAP} are listed"
        )
    failures = [
        SweepFailure("".join(tokens[1:-1]), cls, result.p_acc, result.p_rej, dev)
        for words, cls, result, dev in failing
        for tokens in words
    ]
    # words of one n hold "#" at the same places, so word order is
    # enumeration order
    failures.sort(key=lambda f: f.word)
    return checked, failures, max_dev


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
    nonnegative number. Failures are listed one per instance; an
    exhaustive sweep lists them in enumeration order, a sampled one in
    draw order.

    Exhaustive mode covers all 36**n instances as one
    ``simulate.run_layers`` batch over ``_Grader``'s layout. Its members
    are grader states, each with the set of words it stands for: a
    ``_Words``, an exact count and parts shared with the word sets it grew
    from. So the instances that share a prefix share its steps, and runs
    that meet merge. Runs do meet: the branch pair comparing w1 with
    reversed w2 pops w1 onto the garbage tape whatever w2 is, so after the
    second ``#`` the vector depends only on w1 and the two parities. A
    group whose run ends before the right endmarker folds its word sets
    through the positions left with no kernel step. Grading reads only the
    grader state (``_class_of``, as ``classify`` grades an instance) and
    its word set's count, never the run. A failing final state's
    instances are read off its word set, and a sweep whose failures pass
    ``FAILURE_CAP`` is refused with a ``MachineError`` naming their count.
    The only other limit is the entry budget: a layer whose nodes hold
    more than ``model.ENTRY_BUDGET`` entries raises ``StateSpaceOverflow``
    naming its tape position.
    ``checked`` is an exact int; from n = 11 it passes 2**53, past which a
    JSON reader that parses it as a double loses exactness.

    On the built-in machine (``_reduced``) only w1 = aⁿ is expanded, and
    each final word counts for the 3**n instances it stands for. Let σ_a
    be the identity, σ_b = (a b) and σ_c = (a c), each fixing d. An
    instance maps to (aⁿ, w2′, w3′): position i applies σ_{w1[i]} to
    w1[i], w2[n−1−i] and w3[n−1−i]. σ_{w1[i]} sends w1[i] to a, so each
    image has exactly 3**n preimages, one per w1. On the built-in machine
    an instance's run is ``==`` its image's:
    - every letter column has a single row, so the canonical row order of
      no column can change under the relabelling;
    - ``q0`` pushes the letter it reads, whatever the top, and the split
      at the first ``#`` and the states that idle through a segment take
      the same rows whatever the letter read or on top;
    - the comparing states choose their target only by ``read == top``,
      and those two letters are always position partners, w1[i] against
      w2[n−1−i] or w3[n−1−i], relabelled by the same σ;
    - so the run takes rows of the same amplitudes in the same order, does
      the same float operations in the same order, and its ``RunResult``
      is ``==``.
    ``classify`` is unchanged, since a σ keeps whether two letters differ,
    so the mismatch parity at each position is kept. A reduced sweep that
    meets a failing final state sweeps every w1 instead, so failures are
    listed per instance as for any other machine. The argument reads the
    built-in machine's rows, and the reduction is wrong on machines whose
    rows tell letters apart otherwise, so every other machine is swept
    over every w1.

    Sampled mode runs each draw through ``run`` as it is drawn, so its
    memory does not grow with the sample count.
    """
    if n < 1:
        raise InvariantError("n must be at least 1")
    check_tolerance(tol)
    reduced = machine is None  # the built-in machine, known without comparing
    if machine is None:
        machine = build_machine()
    check_kind(machine, MachineQPAG)
    if samples is None:
        reduced = reduced or _reduced(machine)
        checked, failures, max_dev = _sweep_exhaustive(machine, n, tol, reduced)
        mode = "exhaustive"
    else:
        if samples < 1:
            raise InvariantError("sample count must be positive")
        checked, failures, max_dev = _sweep_sampled(machine, n, samples, seed, tol)
        mode = "sample"
    seed = None if samples is None else seed
    # by position, since a keyword call binds through ``model._bind``,
    # which shows in the time of a short sweep
    return SweepReport(n, mode, seed, checked, tuple(failures), max_dev)


def _sweep_sampled(machine: MachineQPAG, n: int, samples: int, seed: int, tol: float):
    """(checked, failures, max deviation) over ``samples`` seeded draws."""
    rng = random.Random(f"sweep|{n}|{seed}")
    failures = []
    max_dev = 0.0
    for _ in range(samples):
        inst = _draw(rng, n)
        result = run(machine, inst.tokens())
        expected = classify(inst)
        dev = _deviations(result)[expected]
        if dev > max_dev:
            max_dev = dev
        if dev > tol:
            failures.append(SweepFailure(inst.word(), expected, result.p_acc, result.p_rej, dev))
    return samples, failures, max_dev


def expected_amplitudes(inst: Instance) -> tuple[complex, complex]:
    """Closed-form (accept, reject) amplitudes from the two difference
    parities; the four-way mix sends equal parities to reject."""
    s1 = (-1) ** _odd(inst.w1, inst.w2)
    s2 = (-1) ** _odd(inst.w1, inst.w3)
    return complex((s1 - s2) / 2), complex((s1 + s2) / 2)
