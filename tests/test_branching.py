"""Branch-tree engine for machines that schedule stack moves per state."""

import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from qpag import branching
from qpag.errors import PopOnBottom, StateSpaceOverflow
from qpag.model import (
    EPSILON,
    POP,
    InputAlphabet,
    MachineQCPDA,
    StackAlphabet,
    TransitionQCPDA,
    make_tape,
    push,
)
from qpag.branching import (
    Branch,
    BranchSteps,
    StepDeltas,
    dump_branches,
    initial_branch,
    qcpda_step,
    run_qcpda,
)
from qpag.simulate import PrefixRuns
from qpag.wellformed import check_qcpda

from .generators import random_qcpda, words_up_to

_ALPHA = InputAlphabet(symbols=("<", "0", "1", ">"), left_end="<", right_end=">")
_GAMMA = StackAlphabet(symbols=("Z", "x"), bottom="Z")

H = 2**-0.5


def _qcpda(transitions, sigma, states, accepting=frozenset(), rejecting=frozenset()):
    return MachineQCPDA(
        states=states,
        input_alphabet=_ALPHA,
        stack_alphabet=_GAMMA,
        transitions=tuple(transitions),
        sigma=tuple(sigma),
        initial=states[0],
        accepting=accepting,
        rejecting=rejecting,
    )


def halting_walker() -> MachineQCPDA:
    """Each step sheds half the surviving mass into an accepting state and
    advances, so p_acc on a word of length n is 1 - 2**-(n+2)."""
    rows = []
    for read in _ALPHA.symbols:
        for top in _GAMMA.symbols:
            rows.append(TransitionQCPDA("w0", read, top, "w0", 1, H + 0j))
            rows.append(TransitionQCPDA("w0", read, top, "w_acc", 1, H + 0j))
    return _qcpda(
        rows,
        [("w0", EPSILON)],
        ("w0", "w_acc"),
        accepting=frozenset({"w_acc"}),
    )


def push_pop_walker() -> MachineQCPDA:
    """Alternates between a pushing landing state and a popping one; the
    scheduled op fires for the state the machine lands in after each step.
    e1 always evolves with its own pushed x on top, so the row into the
    popping state is only defined there and the bottom stays safe."""
    rows = []
    for read in _ALPHA.symbols:
        for top in _GAMMA.symbols:
            rows.append(TransitionQCPDA("e0", read, top, "e1", 1, 1 + 0j))
        rows.append(TransitionQCPDA("e1", read, "x", "e0", 1, 1 + 0j))
    return _qcpda(
        rows,
        [("e0", POP), ("e1", push("x"))],
        ("e0", "e1"),
    )


def forking_walker() -> MachineQCPDA:
    """Splits into two measurement classes with different stacks every step,
    so the branch tree genuinely doubles until the head parks."""
    rows = []
    for read in _ALPHA.symbols:
        for top in _GAMMA.symbols:
            rows.append(TransitionQCPDA("f0", read, top, "f0", 1, H + 0j))
            rows.append(TransitionQCPDA("f0", read, top, "f1", 1, H + 0j))
            rows.append(TransitionQCPDA("f1", read, top, "f0", 1, H + 0j))
            rows.append(TransitionQCPDA("f1", read, top, "f1", 1, -H + 0j))
    return _qcpda(
        rows,
        [("f0", EPSILON), ("f1", push("x"))],
        ("f0", "f1"),
    )


@pytest.mark.parametrize("n", range(6))
def test_walker_closed_form(n):
    res = run_qcpda(halting_walker(), "0" * n)
    assert res.p_acc == pytest.approx(1 - 2.0 ** -(n + 2), abs=1e-12)
    assert res.p_non == pytest.approx(2.0 ** -(n + 2), abs=1e-12)
    assert res.total() == pytest.approx(1.0, abs=1e-12)


def test_walker_single_branch_line():
    # one live state per step: the tree never widens
    doc = dump_branches(halting_walker(), "00", max_steps=4)
    assert all(len(level["branches"]) == 1 for level in doc["levels"])


def test_scheduled_ops_touch_stack():
    m = push_pop_walker()
    tape = make_tape(m, "01")
    b = initial_branch(m)
    deltas = qcpda_step(m, tape, b)
    assert len(deltas.children) == 1
    child = deltas.children[0]
    assert child.stack == ("Z", "x")  # landed in e1, which pushes
    deltas2 = qcpda_step(m, tape, child)
    assert deltas2.children[0].stack == ("Z",)  # landed in e0, which pops


def test_branch_children_renormalized():
    tape = make_tape(halting_walker(), "00")
    deltas = qcpda_step(halting_walker(), tape, initial_branch(halting_walker()))
    for child in deltas.children:
        norm = sum(abs(a) ** 2 for a in child.psi.values())
        assert norm == pytest.approx(1.0, abs=1e-12)
    assert deltas.acc == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_random_machines_conserve_mass(seed):
    m = random_qcpda(seed)
    assert check_qcpda(m).passed
    for word in ["", "0", "01", "101", "0110"]:
        res = run_qcpda(m, word, max_steps=8)
        assert res.total() == pytest.approx(1.0, abs=1e-9), (seed, word)


def test_branch_count_growth_bounded():
    # at most two distinct scheduled ops: the tree at depth t has <= 2^t leaves
    for m in (random_qcpda(3), forking_walker()):
        doc = dump_branches(m, "01", max_steps=4)
        for level in doc["levels"]:
            assert len(level["branches"]) <= 2 ** level["step"]


def test_forking_walker_doubles():
    doc = dump_branches(forking_walker(), "0101", max_steps=3)
    counts = [len(level["branches"]) for level in doc["levels"]]
    assert counts == [2, 4, 8]


def test_branch_cap_enforced(monkeypatch):
    monkeypatch.setattr(branching, "BRANCH_CAP", 4)
    with pytest.raises(StateSpaceOverflow):
        run_qcpda(forking_walker(), "0101", max_steps=20)


def test_branch_cap_trips_while_frontier_grows(monkeypatch):
    # the cap must stop a step while its merged frontier grows: the failing
    # step steps fewer branches than the uncapped run does at that step
    stepped = Counter()
    real = branching.qcpda_step

    def counting(machine, tape, branch):
        stepped[branch.steps + 1] += 1
        return real(machine, tape, branch)

    monkeypatch.setattr(branching, "qcpda_step", counting)
    run_qcpda(forking_walker(), "0101", max_steps=20)
    full = dict(stepped)
    stepped.clear()
    monkeypatch.setattr(branching, "BRANCH_CAP", 4)
    with pytest.raises(StateSpaceOverflow, match=r"at step \d+$") as info:
        run_qcpda(forking_walker(), "0101", max_steps=20)
    step = int(re.search(r"at step (\d+)$", str(info.value)).group(1))
    assert max(stepped) == step
    assert 0 < stepped[step] < full[step]


def test_run_qcpda_does_not_depend_on_table_order():
    # equal ledgers, bit for bit, after a seeded shuffle of the table
    for seed in range(0, 50, 5):
        m = random_qcpda(seed)
        rows = list(m.transitions)
        random.Random(seed).shuffle(rows)
        shuffled = replace(m, transitions=tuple(rows))
        for word in words_up_to(3):
            assert run_qcpda(shuffled, word, max_steps=8) == run_qcpda(
                m, word, max_steps=8
            ), (seed, word)


def test_pop_on_bottom_raises():
    rows = []
    for read in _ALPHA.symbols:
        for top in _GAMMA.symbols:
            rows.append(TransitionQCPDA("b0", read, top, "b0", 1, 1 + 0j))
    m = _qcpda(rows, [("b0", POP)], ("b0",))
    with pytest.raises(PopOnBottom):
        run_qcpda(m, "0")


def test_fingerprint_merges_identical_branches(monkeypatch):
    # a step-t branch of the forking walker is determined by its landing
    # state, its push count and a sign, so merging keeps the frontier linear
    # in t even though the raw tree doubles; a cap far below 2^8 only
    # survives if equal fingerprints actually collapse
    monkeypatch.setattr(branching, "BRANCH_CAP", 28)
    res = run_qcpda(forking_walker(), "0" * 8, max_steps=8)
    assert res.total() == pytest.approx(1.0, abs=1e-9)
    raw = dump_branches(forking_walker(), "0" * 8, max_steps=5, limit=64)
    assert [len(level["branches"]) for level in raw["levels"]] == [2, 4, 8, 16, 32]


def test_merge_key_ignores_the_order_amplitudes_were_filled_in(monkeypatch):
    # two children with one stack and equal amplitudes, their psi dicts
    # filled in opposite orders, must merge into one branch
    m = forking_walker()
    parent = initial_branch(m)
    psi = {("f0", 1): H + 0j, ("f1", 1): -H + 0j}
    twins = tuple(
        Branch(0.5, parent.cell, dict(items), 1, parent.table)
        for items in (psi.items(), reversed(psi.items()))
    )
    assert list(twins[0].psi) != list(twins[1].psi)
    monkeypatch.setattr(
        branching, "qcpda_step", lambda *args: StepDeltas(twins, 0.0, 0.0, 0.0, 0.0)
    )
    (frontier, *_), _ = BranchSteps(m).step(
        ((parent,), 0.0, 0.0, 0.0, 0.0), make_tape(m, "0"), 1
    )
    assert len(frontier) == 1
    assert frontier[0].prob == 1.0
    assert frontier[0].stack == ("Z",)


def test_run_qcpda_batch_equals_fresh_runs():
    words = words_up_to(4)
    for seed in range(0, 40, 2):
        m = random_qcpda(seed)
        order = random.Random(seed).sample(words, len(words)) + words[::-1]
        for budget in (0, 1, 8):
            runs = PrefixRuns(BranchSteps(m))
            got = [runs.run(w, budget) for w in order]
            assert got == [run_qcpda(m, w, max_steps=budget) for w in order], (
                seed,
                budget,
            )


def test_single_word_run_keeps_a_bounded_path(monkeypatch):
    # the halting walker reads one more cell each step: no checkpoint that
    # read the last cell can serve another word, so none is kept
    runs = PrefixRuns(BranchSteps(halting_walker()))
    assert runs.run("0101") == run_qcpda(halting_walker(), "0101")
    assert runs.reach[-1] < len(make_tape(halting_walker(), "0101")) - 1
    # a forking walker that never moves reads cell 0 only, and its frontier
    # grows each step: the kept frontiers together hold at most BRANCH_CAP
    # branches, with the results of uncapped runs
    m = forking_walker()
    m = replace(m, transitions=tuple(replace(t, move=0) for t in m.transitions))
    full = [run_qcpda(m, w, max_steps=20) for w in ("01", "00", "01")]
    monkeypatch.setattr(branching, "BRANCH_CAP", 100)
    runs = PrefixRuns(BranchSteps(m))
    for word, expected in zip(("01", "00", "01"), full):
        assert runs.run(word, 20) == expected
        assert runs.held[-1] == sum(len(point[0]) for point in runs.path) <= 100
        assert 1 < len(runs.path) < 21


def test_parked_branches_retire_to_non_halting():
    rows = []
    for read in _ALPHA.symbols:
        for top in _GAMMA.symbols:
            rows.append(TransitionQCPDA("r0", read, top, "r0", 1, 1 + 0j))
    m = _qcpda(rows, [("r0", EPSILON)], ("r0",))
    res = run_qcpda(m, "01")
    assert res.p_non == pytest.approx(1.0, abs=1e-12)
    assert res.steps <= 6


def test_zero_amplitude_column_becomes_truncation_loss():
    # z1's only column holds a zero-amplitude row, so it is undefined and the
    # mass that reaches it is truncated rather than lost
    rows = [
        TransitionQCPDA("z0", "<", "Z", "z1", 1, 1 + 0j),
        TransitionQCPDA("z1", "0", "Z", "z0", 1, 0j),
    ]
    m = _qcpda(rows, [("z0", EPSILON), ("z1", EPSILON)], ("z0", "z1"))
    res = run_qcpda(m, "0")
    assert res.truncation_loss == pytest.approx(1.0, abs=1e-12)
    assert res.total() == pytest.approx(1.0, abs=1e-12)


def test_word_budget_default_terminates():
    m = random_qcpda(1)
    res = run_qcpda(m, "01", max_steps=8)
    assert res.steps <= 8
    assert res.total() == pytest.approx(1.0, abs=1e-9)


def test_words_helper_is_exhaustive():
    ws = words_up_to(4)
    assert len(ws) == 31  # 1 + 2 + 4 + 8 + 16
    assert len(set(ws)) == 31
