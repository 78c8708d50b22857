"""Seeded inputs the benchmark owns.

Nothing here imports from ``tests/``: an edit to a test never changes a
workload. Every function takes the freshly imported ``qpag`` package as its
first argument, so that set-up can import it anew and still build with it.
The problem1 instances come from the public ``problem1.generate``.
"""

from __future__ import annotations

import itertools
import random

SCHED_ALPHABET = ("<", "0", "1", ">")

# Stack-operation mixes a generated scheduled-stack machine draws its
# schedule from. The mix is fixed by the machine's index, not by the seed,
# so every seed carries the same share of push/pop machines and the
# workload's cost does not swing with the draw.
OP_MIXES = (
    ("epsilon",),
    ("epsilon", "push"),
    ("epsilon", "pop"),
    ("push", "pop"),
    ("push2", "pop"),
)


def _op(qp, name):
    m = qp.model
    return {
        "epsilon": m.EPSILON,
        "pop": m.POP,
        "push": m.push("x"),
        "push2": m.push("x", "x"),
    }[name]


def _orthonormal(rng, dim, count):
    """``count`` orthonormal vectors in C^dim (count <= dim), by
    Gram-Schmidt on complex Gaussian draws."""
    basis = []
    while len(basis) < count:
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
        for u in basis:
            ip = sum(a.conjugate() * b for a, b in zip(u, v))
            v = [b - ip * a for a, b in zip(u, v)]
        norm = sum(abs(x) ** 2 for x in v) ** 0.5
        if norm > 1e-6:
            basis.append([x / norm for x in v])
    return basis


def scheduled_stack_machine(qp, seed, index):
    """A scheduled-stack machine that is unitary on every word by
    construction.

    Each (read, top) block is a random isometry from the live states into
    the admissible targets. Each state owns a fixed head move, so images of
    different head positions never overlap. States scheduled to pop are not
    targets while the bottom symbol is on top, and there are never more of
    them than halting states, so the isometry always fits.
    """
    m = qp.model
    shape = random.Random(f"perfbench-qcpda-shape|{index}")
    rng = random.Random(f"perfbench-qcpda|{seed}|{index}")
    mix = OP_MIXES[index % len(OP_MIXES)]
    n_states = 2 + (index // len(OP_MIXES)) % 3
    n_halting = min((index // (3 * len(OP_MIXES))) % 3, n_states - 1)
    states = tuple(f"s{i}" for i in range(n_states))
    halting = states[n_states - n_halting:]
    accepting = frozenset(halting[: (n_halting + 1) // 2])
    rejecting = frozenset(halting[(n_halting + 1) // 2:])
    live = [q for q in states if q not in halting]

    pops_left = n_halting
    sigma = {}
    for q in live:
        name = shape.choice(mix)
        if name == "pop":
            if pops_left == 0:
                name = next((x for x in mix if x != "pop"), "epsilon")
            else:
                pops_left -= 1
        sigma[q] = _op(qp, name)
    uses_stack = any(op.kind != "epsilon" for op in sigma.values())
    gamma = m.StackAlphabet(symbols=("Z", "x") if uses_stack else ("Z",), bottom="Z")
    move = {q: shape.randrange(2) for q in states}

    rows = []
    for read in SCHED_ALPHABET:
        for top in gamma.symbols:
            targets = [
                q for q in states
                if not (top == "Z" and q in sigma and sigma[q].kind == "pop")
            ]
            vectors = _orthonormal(rng, len(targets), len(live))
            for src, vec in zip(live, vectors):
                for tgt, amp in zip(targets, vec):
                    rows.append(m.TransitionQCPDA(src, read, top, tgt, move[tgt], amp))
    return m.MachineQCPDA(
        states=states,
        input_alphabet=m.InputAlphabet(symbols=SCHED_ALPHABET, left_end="<", right_end=">"),
        stack_alphabet=gamma,
        transitions=tuple(rows),
        sigma=tuple(sorted(sigma.items())),
        initial=states[0],
        accepting=accepting,
        rejecting=rejecting,
    )


def binary_words(max_len):
    """Every word over {0, 1} of length 0..max_len, shortest first."""
    words = []
    for n in range(max_len + 1):
        words.extend(itertools.product("01", repeat=n))
    return words


def coin_ppa(qp):
    """Fair coin: accepts or rejects with probability exactly one half at
    the left endmarker, whatever the word."""
    m = qp.model
    rows = (
        m.TransitionPPA("c0", "<", "Z", "c_acc", m.EPSILON, 1, 0.5),
        m.TransitionPPA("c0", "<", "Z", "c_rej", m.EPSILON, 1, 0.5),
    )
    return m.MachinePPA(
        states=("c0", "c_acc", "c_rej"),
        input_alphabet=m.InputAlphabet(symbols=("<", "a", ">"), left_end="<", right_end=">"),
        stack_alphabet=m.StackAlphabet(symbols=("Z",), bottom="Z"),
        transitions=rows,
        initial="c0",
        accepting=frozenset({"c_acc"}),
        rejecting=frozenset({"c_rej"}),
    )


def mirror_dpda(qp):
    """Deterministic pushdown machine for { w c reverse(w) : w in {a,b}* }:
    push w, switch at c, pop against the rest, accept on an empty stack at
    the right endmarker and reject on any mismatch."""
    m = qp.model
    gamma = ("Z", "A", "B")
    token = {"a": "A", "b": "B"}
    rows = []

    def t(src, read, top, tgt, op):
        rows.append(m.TransitionPPA(src, read, top, tgt, op, 1, 1.0))

    t("d0", "<", "Z", "push", m.EPSILON)
    for top in gamma:
        for sym in "ab":
            t("push", sym, top, "push", m.push(token[sym]))
        t("push", "c", top, "pop", m.EPSILON)
        t("push", ">", top, "no", m.EPSILON)
        t("pop", "c", top, "no", m.EPSILON)
    for sym in "ab":
        for top in gamma:
            t("pop", sym, top, "pop" if top == token[sym] else "no",
              m.POP if top == token[sym] else m.EPSILON)
    for top in gamma:
        t("pop", ">", top, "yes" if top == "Z" else "no", m.EPSILON)
    return m.MachinePPA(
        states=("d0", "push", "pop", "yes", "no"),
        input_alphabet=m.InputAlphabet(symbols=("<", "a", "b", "c", ">"), left_end="<", right_end=">"),
        stack_alphabet=m.StackAlphabet(symbols=gamma, bottom="Z"),
        transitions=tuple(rows),
        initial="d0",
        accepting=frozenset({"yes"}),
        rejecting=frozenset({"no"}),
    )


def mirror_words(rng, count, max_half):
    """``count`` words over {a, b, c} with their expected DPDA verdict:
    half of the form w c reverse(w), half with one symbol changed."""
    out = []
    for i in range(count):
        w = "".join(rng.choice("ab") for _ in range(rng.randrange(max_half + 1)))
        word = w + "c" + w[::-1]
        if i % 2:
            pos = rng.randrange(len(word))
            word = word[:pos] + rng.choice([s for s in "abc" if s != word[pos]]) + word[pos + 1:]
        out.append((word, is_mirror(word)))
    return out


def is_mirror(word):
    """Independent oracle for the DPDA: exactly one c, at the centre of a
    palindrome over {a, b}."""
    return word.count("c") == 1 and word == word[::-1] and len(word) % 2 == 1 \
        and word[len(word) // 2] == "c"


def undefined_columns(machine):
    """Columns (state, read, top) that carry no nonzero amplitude: the
    exact set a total-mode column check must flag as norm violations when
    every defined column has unit norm."""
    defined = {
        (t.source, t.read, t.top) for t in machine.transitions if t.amp != 0
    }
    return {
        (q, a, b)
        for q in machine.states
        for a in machine.input_alphabet.symbols
        for b in machine.stack_alphabet.symbols
    } - defined
