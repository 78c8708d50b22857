"""Shared machine corpus.

Three families:

* ``TOTAL_MACHINES``: small machines whose transition tables are complete
  unitaries, so they pass the total-mode check. None of them pops (a popping
  machine cannot have a total table: popped symbols land on the garbage tape
  and collide with histories that never pushed, so injectivity forces an
  infinite regress of constraints). Each entry carries a closed-form
  behaviour oracle used by the simulator tests.

* ``mutants()``: the built-in parity machine with one seeded defect each,
  labeled with the condition ids the checker must raise.

* classical baselines: a deterministic pushdown for "u c reverse(u)" and a
  fair-coin probabilistic machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from qpag.model import (
    EPSILON,
    POP,
    InputAlphabet,
    MachinePPA,
    MachineQPAG,
    StackAlphabet,
    TransitionPPA,
    TransitionQPAG,
    push,
    replace,
)
from qpag import problem1

H = 2**-0.5

_ALPHA = InputAlphabet(symbols=("<", "0", "1", ">"), left_end="<", right_end=">")


def _full_columns(states, gamma, rows_for):
    """rows_for(read, top) -> list of (src, tgt, op, move, amp); applied to
    every (read, top) so the table is total."""
    trans = []
    for read in _ALPHA.symbols:
        for top in gamma.symbols:
            for src, tgt, op, move, amp in rows_for(read, top):
                trans.append(
                    TransitionQPAG(src, read, top, tgt, op, move, complex(amp))
                )
    return tuple(trans)


def cycle3() -> MachineQPAG:
    """Permutation walk s0 -> s1 -> s2 -> s0; s1 accepts."""
    gamma = StackAlphabet(symbols=("Z",), bottom="Z")
    rows = lambda read, top: [
        ("s0", "s1", EPSILON, 1, 1),
        ("s1", "s2", EPSILON, 1, 1),
        ("s2", "s0", EPSILON, 1, 1),
    ]
    return MachineQPAG(
        states=("s0", "s1", "s2"),
        input_alphabet=_ALPHA,
        stack_alphabet=gamma,
        transitions=_full_columns(("s0", "s1", "s2"), gamma, rows),
        initial="s0",
        accepting=frozenset({"s1"}),
        rejecting=frozenset(),
    )


def hadamard2() -> MachineQPAG:
    """Hadamard mix between h0 and accepting h1; head always advances.
    On a word of length n: p_acc = 1 - 2**-(n+2), p_non = 2**-(n+2)."""
    gamma = StackAlphabet(symbols=("Z",), bottom="Z")
    rows = lambda read, top: [
        ("h0", "h0", EPSILON, 1, H),
        ("h0", "h1", EPSILON, 1, H),
        ("h1", "h0", EPSILON, 1, H),
        ("h1", "h1", EPSILON, 1, -H),
    ]
    return MachineQPAG(
        states=("h0", "h1"),
        input_alphabet=_ALPHA,
        stack_alphabet=gamma,
        transitions=_full_columns(("h0", "h1"), gamma, rows),
        initial="h0",
        accepting=frozenset({"h1"}),
        rejecting=frozenset(),
    )


def phase1() -> MachineQPAG:
    """One state, amplitude i, never halts; p_non = 1 on every word."""
    gamma = StackAlphabet(symbols=("Z",), bottom="Z")
    rows = lambda read, top: [("p0", "p0", EPSILON, 1, 1j)]
    return MachineQPAG(
        states=("p0",),
        input_alphabet=_ALPHA,
        stack_alphabet=gamma,
        transitions=_full_columns(("p0",), gamma, rows),
        initial="p0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )


def pushcycle() -> MachineQPAG:
    """u0 and u1 alternate, pushing x and y; the stack records the path."""
    gamma = StackAlphabet(symbols=("Z", "x", "y"), bottom="Z")
    rows = lambda read, top: [
        ("u0", "u1", push("x"), 1, 1),
        ("u1", "u0", push("y"), 1, 1),
    ]
    return MachineQPAG(
        states=("u0", "u1"),
        input_alphabet=_ALPHA,
        stack_alphabet=gamma,
        transitions=_full_columns(("u0", "u1"), gamma, rows),
        initial="u0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )


def stackcase() -> MachineQPAG:
    """Behaviour depends on the stack top: swap on Z, identity on x. The
    x columns are unreachable but total mode still checks them."""
    gamma = StackAlphabet(symbols=("Z", "x"), bottom="Z")

    def rows(read, top):
        if top == "Z":
            return [("v0", "v1", EPSILON, 1, 1), ("v1", "v0", EPSILON, 1, 1)]
        return [("v0", "v0", EPSILON, 1, 1), ("v1", "v1", EPSILON, 1, 1)]

    return MachineQPAG(
        states=("v0", "v1"),
        input_alphabet=_ALPHA,
        stack_alphabet=gamma,
        transitions=_full_columns(("v0", "v1"), gamma, rows),
        initial="v0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )


def halfstep() -> MachineQPAG:
    """Coined walk: the m0 component stands still, the m1 component steps
    right. Same-column orthogonality (condition 2) cancels nontrivially."""
    gamma = StackAlphabet(symbols=("Z",), bottom="Z")
    rows = lambda read, top: [
        ("m0", "m0", EPSILON, 0, H),
        ("m0", "m1", EPSILON, 1, H),
        ("m1", "m0", EPSILON, 0, H),
        ("m1", "m1", EPSILON, 1, -H),
    ]
    return MachineQPAG(
        states=("m0", "m1"),
        input_alphabet=_ALPHA,
        stack_alphabet=gamma,
        transitions=_full_columns(("m0", "m1"), gamma, rows),
        initial="m0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )


def mixstep() -> MachineQPAG:
    """Both targets receive a stationary and an advancing amplitude, so the
    head-shift products (condition 4) cancel nontrivially. n1 accepts."""
    gamma = StackAlphabet(symbols=("Z",), bottom="Z")
    rows = lambda read, top: [
        ("n0", "n0", EPSILON, 0, H),
        ("n0", "n1", EPSILON, 0, H),
        ("n1", "n0", EPSILON, 1, H),
        ("n1", "n1", EPSILON, 1, -H),
    ]
    return MachineQPAG(
        states=("n0", "n1"),
        input_alphabet=_ALPHA,
        stack_alphabet=gamma,
        transitions=_full_columns(("n0", "n1"), gamma, rows),
        initial="n0",
        accepting=frozenset({"n1"}),
        rejecting=frozenset(),
    )


def splitter() -> MachineQPAG:
    """Each step pushes x or y in superposition; configurations double every
    step, which exercises the entry budget."""
    gamma = StackAlphabet(symbols=("Z", "x", "y"), bottom="Z")
    rows = lambda read, top: [
        ("g0", "g0", push("x"), 1, H),
        ("g0", "g0", push("y"), 1, H),
    ]
    return MachineQPAG(
        states=("g0",),
        input_alphabet=_ALPHA,
        stack_alphabet=gamma,
        transitions=_full_columns(("g0",), gamma, rows),
        initial="g0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )


TOTAL_MACHINES = {
    "cycle3": cycle3,
    "hadamard2": hadamard2,
    "phase1": phase1,
    "pushcycle": pushcycle,
    "stackcase": stackcase,
    "halfstep": halfstep,
    "mixstep": mixstep,
    "splitter": splitter,
}


# ======================================================================
# Mutants of the built-in parity machine
# ======================================================================


@dataclass(frozen=True)
class Mutant:
    name: str
    machine: MachineQPAG
    expected: frozenset  # condition ids that must appear among violations


def _base():
    return problem1.build_machine()


def _replace_row(machine, match, new_row):
    """Swap the unique transition matching (source, read, top, target) for
    ``new_row``; raises if the row is absent."""
    rows = list(machine.transitions)
    idx = [
        i
        for i, t in enumerate(rows)
        if (t.source, t.read, t.top, t.target) == match
    ]
    assert len(idx) == 1, f"expected one row matching {match}, got {len(idx)}"
    rows[idx[0]] = new_row
    return replace(machine, transitions=tuple(rows))


def _add_row(machine, new_row):
    return replace(machine, transitions=machine.transitions + (new_row,))


def _scale_row(machine, match, new_amp):
    rows = list(machine.transitions)
    idx = [
        i
        for i, t in enumerate(rows)
        if (t.source, t.read, t.top, t.target) == match
    ]
    assert len(idx) == 1
    rows[idx[0]] = replace(rows[idx[0]], amp=complex(new_amp))
    return replace(machine, transitions=tuple(rows))


def mutants() -> list[Mutant]:
    out = []
    m = _base()

    # -- column norms pushed above 1 by rescaling one split amplitude
    for name, match, amp in (
        ("scale-split-Z", ("q0", "#", "Z", "q1_I0"), 0.9),
        ("scale-split-a", ("q0", "#", "a", "q1_I1"), -0.9),
        ("scale-split-b", ("q0", "#", "b", "q2_I0"), 0.8),
        ("scale-split-c", ("q0", "#", "c", "q2_I1"), -0.95),
    ):
        out.append(Mutant(name, _scale_row(m, match, amp), frozenset({"1"})))

    # -- column norms pushed to 2 by an extra full-weight entry
    for name, row in (
        (
            "dup-start",
            TransitionQPAG("q0", "<", "Z", "q1_I0", EPSILON, 1, 1 + 0j),
        ),
        (
            "dup-hash",
            TransitionQPAG("q1_I0", "#", "Z", "qf_acc", EPSILON, 1, 1 + 0j),
        ),
        (
            "dup-idle",
            TransitionQPAG("q1_O0", "a", "Z", "qf_n1", EPSILON, 1, 1 + 0j),
        ),
        (
            "dup-scan",
            TransitionQPAG("q2_I0", "a", "Z", "qf_n0", EPSILON, 1, 1 + 0j),
        ),
    ):
        out.append(Mutant(name, _add_row(m, row), frozenset({"1"})))

    # -- one sign flipped in the final mix: norms survive, orthogonality dies
    for src, tgt in (
        ("q1_O0", "qf_n0"),
        ("q1_O0", "qf_acc"),
        ("q1_O1", "qf_n1"),
        ("q1_O1", "qf_rej"),
        ("q2_O0", "qf_n0"),
        ("q2_O0", "qf_acc"),
        ("q2_O1", "qf_n1"),
        ("q2_O1", "qf_rej"),
    ):
        rows = [t for t in m.transitions if t.source == src and t.target == tgt]
        assert len(rows) == 1
        flipped = _scale_row(m, (src, ">", "Z", tgt), -rows[0].amp)
        out.append(Mutant(f"flip-{src}-{tgt}", flipped, frozenset({"2"})))

    # -- retargeted rows that collide with existing push / pop columns
    out.append(
        Mutant(
            "retarget-3a",
            _replace_row(
                m,
                ("q2_I1", "a", "a", "q2_I1"),
                TransitionQPAG("q2_I1", "a", "a", "q0", EPSILON, 1, 1 + 0j),
            ),
            frozenset({"3a"}),
        )
    )
    out.append(
        Mutant(
            "retarget-3b",
            _replace_row(
                m,
                ("q2_I1", "a", "b", "q2_I1"),
                TransitionQPAG("q2_I1", "a", "b", "q1_I0", EPSILON, 1, 1 + 0j),
            ),
            frozenset({"3b"}),
        )
    )
    out.append(
        Mutant(
            "retarget-4",
            _replace_row(
                m,
                ("q1_O1", "a", "Z", "q1_O1"),
                TransitionQPAG("q1_O1", "a", "Z", "q1_O0", EPSILON, 0, 1 + 0j),
            ),
            frozenset({"4"}),
        )
    )
    out.append(
        Mutant(
            "retarget-5a",
            _replace_row(
                m,
                ("q2_I1", "b", "a", "q2_I1"),
                TransitionQPAG("q2_I1", "b", "a", "q0", EPSILON, 0, 1 + 0j),
            ),
            frozenset({"5a"}),
        )
    )
    out.append(
        Mutant(
            "retarget-5b",
            _replace_row(
                m,
                ("q2_I1", "c", "a", "q2_I1"),
                TransitionQPAG("q2_I1", "c", "a", "q1_I0", EPSILON, 0, 1 + 0j),
            ),
            frozenset({"5b"}),
        )
    )

    # -- a pop scheduled on the bottom symbol
    out.append(
        Mutant(
            "pop-bottom",
            _add_row(
                m, TransitionQPAG("q1_I0", "a", "Z", "q1_I0", POP, 1, 1 + 0j)
            ),
            frozenset({"pop-on-z"}),
        )
    )
    return out


# ======================================================================
# Classical baselines
# ======================================================================


def dpda_wcwr() -> MachinePPA:
    """Deterministic recognizer for { u c reverse(u) : u in {a,b}* }."""
    alpha = InputAlphabet(
        symbols=("<", "a", "b", "c", ">"), left_end="<", right_end=">"
    )
    gamma = StackAlphabet(symbols=("Z", "A", "B"), bottom="Z")
    pushes = {"a": push("A"), "b": push("B")}
    rows = []

    def t(src, read, top, tgt, op, move):
        rows.append(TransitionPPA(src, read, top, tgt, op, move, 1.0))

    t("q0", "<", "Z", "q_loop", EPSILON, 1)
    for top in gamma.symbols:
        for sym in ("a", "b"):
            t("q_loop", sym, top, "q_loop", pushes[sym], 1)
        t("q_loop", "c", top, "q_match", EPSILON, 1)
        t("q_loop", ">", top, "q_rej", EPSILON, 1)
    t("q_match", "a", "A", "q_match", POP, 1)
    t("q_match", "b", "B", "q_match", POP, 1)
    for read, top in (("a", "B"), ("b", "A"), ("a", "Z"), ("b", "Z")):
        t("q_match", read, top, "q_rej", EPSILON, 1)
    for top in gamma.symbols:
        t("q_match", "c", top, "q_rej", EPSILON, 1)
    t("q_match", ">", "A", "q_rej", EPSILON, 1)
    t("q_match", ">", "B", "q_rej", EPSILON, 1)
    t("q_match", ">", "Z", "q_acc", EPSILON, 1)
    return MachinePPA(
        states=("q0", "q_loop", "q_match", "q_acc", "q_rej"),
        input_alphabet=alpha,
        stack_alphabet=gamma,
        transitions=tuple(rows),
        initial="q0",
        accepting=frozenset({"q_acc"}),
        rejecting=frozenset({"q_rej"}),
    )


def coin_ppa() -> MachinePPA:
    """Fair coin: accept or reject with probability exactly one half at the
    left endmarker, whatever the word."""
    alpha = InputAlphabet(symbols=("<", "a", ">"), left_end="<", right_end=">")
    gamma = StackAlphabet(symbols=("Z",), bottom="Z")
    rows = (
        TransitionPPA("c0", "<", "Z", "c_acc", EPSILON, 1, 0.5),
        TransitionPPA("c0", "<", "Z", "c_rej", EPSILON, 1, 0.5),
    )
    return MachinePPA(
        states=("c0", "c_acc", "c_rej"),
        input_alphabet=alpha,
        stack_alphabet=gamma,
        transitions=rows,
        initial="c0",
        accepting=frozenset({"c_acc"}),
        rejecting=frozenset({"c_rej"}),
    )
