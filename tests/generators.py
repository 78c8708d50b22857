"""Seeded random machine generators, and the exhaustive enumerator of
``problem1`` instances.

The garbage-tape table generator draws rows with no regard for unitarity,
so that every column condition has pairs to evaluate and most fail.

The scheduled-stack generator builds machines that are unitary for every
word by construction: each (read, top) block is a random complex isometry
from the non-halting states into a target set, and each target state owns a
fixed head move, so amplitudes never cross between head displacements.
States scheduled to pop are excluded as targets while the bottom symbol is
exposed, and the number of popping states never exceeds the number of
halting states so the isometries always fit.
"""

from __future__ import annotations

import itertools
import random

from qpag.errors import PopOnBottom
from qpag.model import (
    EPSILON,
    POP,
    InputAlphabet,
    MachinePPA,
    MachineQCPDA,
    MachineQPAG,
    StackAlphabet,
    StackOp,
    TransitionQCPDA,
    TransitionQPAG,
    join_tokens,
    push,
)
from qpag.problem1 import SEGMENT_ALPHABET, THIRD_ALPHABET, Instance
from qpag.simulate import cons

ALPHA = InputAlphabet(symbols=("<", "0", "1", ">"), left_end="<", right_end=">")


def left_sum(values):
    """``values`` added left to right, as ``sum()`` adds them before
    CPython 3.12, which compensates float sums. The oracles and generators
    of the tests add through it, so that their floats, and the pins taken
    from them, are the same on every CPython."""
    total = 0
    for value in values:
        total += value
    return total


def row_columns(machine):
    """The machine's columns as the model defines them, rows as row
    objects, for the tests' oracles: (state, read, top) -> the column's rows
    of nonzero weight, sorted by (target, move, stack operation), columns
    in the order the table first lists them."""
    weight = "prob" if isinstance(machine, MachinePPA) else "amp"
    cols: dict = {}
    for t in machine.transitions:
        if getattr(t, weight) != 0:
            cols.setdefault((t.source, t.read, t.top), []).append(t)

    def order(t):
        op = getattr(t, "op", None)
        return (t.target, t.move) if op is None else (t.target, t.move, op.kind, op.payload)

    return {key: sorted(rows, key=order) for key, rows in cols.items()}


def apply_op(table, stack, op):
    """The stack cell the stack operation ``op`` leaves on ``stack``, new
    cells interned in ``table``. Popping the bottom symbol raises
    PopOnBottom."""
    if op.kind == "push":
        for symbol in op.payload:
            stack = cons(table, stack, symbol)
    elif op.kind == "pop":
        if stack.depth <= 1:
            raise PopOnBottom(f"pop on stack {join_tokens(stack.tokens())!r}")
        stack = stack.parent
    return stack


def gram_schmidt_columns(rng: random.Random, rows: int, cols: int):
    """cols orthonormal vectors in C^rows (requires cols <= rows)."""
    assert cols <= rows
    basis: list[list[complex]] = []
    while len(basis) < cols:
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(rows)]
        for u in basis:
            ip = left_sum(x.conjugate() * y for x, y in zip(u, v))
            v = [y - ip * x for x, y in zip(u, v)]
        norm = left_sum(abs(x) ** 2 for x in v) ** 0.5
        if norm < 1e-6:
            continue  # degenerate draw, try again
        basis.append([x / norm for x in v])
    return basis


# stack-op pools; each machine uses one pool so a branch frontier at budget
# t stays within 2**t
_OP_POOLS = (
    (EPSILON,),
    (EPSILON, push("x")),
    (EPSILON, POP),
    (push("x"), POP),
    (push("x", "x"), POP),
)


def random_qcpda(seed: int) -> MachineQCPDA:
    rng = random.Random(f"qcpda|{seed}")
    n_states = rng.choice((2, 3, 4))
    names = tuple(f"t{i}" for i in range(n_states))
    n_halting = rng.choice((0, 1, 2))
    n_halting = min(n_halting, n_states - 1)
    halting = list(names[n_states - n_halting :]) if n_halting else []
    accepting = frozenset(halting[: (len(halting) + 1) // 2])
    rejecting = frozenset(halting[(len(halting) + 1) // 2 :])
    live = [q for q in names if q not in accepting and q not in rejecting]

    pool = _OP_POOLS[rng.randrange(len(_OP_POOLS))]
    uses_stack = any(op.kind != "epsilon" for op in pool)
    gamma = StackAlphabet(symbols=("Z", "x") if uses_stack else ("Z",), bottom="Z")

    # schedule ops; pops may not outnumber halting states so that non-pop
    # targets still cover every source on the bottom symbol
    sigma = {}
    pop_budget = len(halting)
    for q in live:
        op = pool[rng.randrange(len(pool))]
        if op.kind == "pop" and pop_budget == 0:
            op = next(o for o in pool if o.kind != "pop")
        if op.kind == "pop":
            pop_budget -= 1
        sigma[q] = op

    move_of = {q: rng.randrange(2) for q in names}

    trans = []
    for read in ALPHA.symbols:
        for top in gamma.symbols:
            targets = [
                q
                for q in names
                if not (top == "Z" and sigma.get(q, EPSILON).kind == "pop")
            ]
            cols = gram_schmidt_columns(rng, len(targets), len(live))
            for j, src in enumerate(live):
                for i, tgt in enumerate(targets):
                    amp = cols[j][i]
                    trans.append(
                        TransitionQCPDA(src, read, top, tgt, move_of[tgt], amp)
                    )
    return MachineQCPDA(
        states=names,
        input_alphabet=ALPHA,
        stack_alphabet=gamma,
        transitions=tuple(trans),
        sigma=tuple(sorted(sigma.items())),
        initial=names[0],
        accepting=accepting,
        rejecting=rejecting,
    )


_TABLE_OPS = (EPSILON, POP, push("A"), push("B"), push("A", "B"), push("B", "A"))
_TABLE_AMPS = tuple(
    sign * unit * size
    for size in (1.0, 0.5, 2**-0.5)
    for unit in (1 + 0j, 1j)
    for sign in (1, -1)
)


def random_qpag_table(seed: int) -> MachineQPAG:
    """A garbage-tape machine of 8 to 29 random rows over 3 states, input
    ``< 0 1 >`` and stack ``Z A B``, amplitudes drawn from ±1, ±1/2 and
    ±1/√2, real or imaginary. A row repeating an earlier row's column,
    target, move and operation is dropped. Odd seeds declare every push
    string of the operation pool."""
    rng = random.Random(f"qpag-table|{seed}")
    states = ("q0", "q1", "q2")
    gamma = StackAlphabet(symbols=("Z", "A", "B"), bottom="Z")
    rows: dict = {}
    for _ in range(rng.randrange(8, 30)):
        source, target = rng.choice(states), rng.choice(states)
        read, top = rng.choice(ALPHA.symbols), rng.choice(gamma.symbols)
        op, move = rng.choice(_TABLE_OPS), rng.randrange(2)
        rows.setdefault(
            (source, read, top, target, move, op.sort_key()),
            TransitionQPAG(source, read, top, target, op, move, rng.choice(_TABLE_AMPS)),
        )
    declared = tuple(op.payload for op in _TABLE_OPS if op.kind == "push")
    return MachineQPAG(
        states=states,
        input_alphabet=ALPHA,
        stack_alphabet=gamma,
        transitions=tuple(rows.values()),
        initial="q0",
        accepting=frozenset({"q2"}),
        rejecting=frozenset(),
        declared_push_strings=declared if seed % 2 else (),
    )


def words_up_to(length: int, symbols=("0", "1")):
    """Every word over ``symbols`` of length 0..length, shortest first."""
    out = [()]
    frontier = [()]
    for _ in range(length):
        frontier = [w + (s,) for w in frontier for s in symbols]
        out.extend(frontier)
    return out


def random_word(rng: random.Random, symbols, max_len: int):
    return tuple(rng.choice(symbols) for _ in range(rng.randrange(max_len + 1)))


def problem1_instances(n: int):
    """Every ``problem1`` instance of segment length ``n``, w3 varying
    fastest, then w2, then w1: the order an exhaustive sweep lists its
    failures in."""
    for w1 in itertools.product(SEGMENT_ALPHABET, repeat=n):
        for w2 in itertools.product(SEGMENT_ALPHABET, repeat=n):
            for w3 in itertools.product(THIRD_ALPHABET, repeat=n):
                yield Instance("".join(w1), "".join(w2), "".join(w3))
