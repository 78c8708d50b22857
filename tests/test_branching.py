"""Branch-tree engine for machines that schedule stack moves per state."""

import gc
import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from qpag import branching, model
from qpag.compiler import compile_qcpda, equiv_check
from qpag.errors import InvariantError, PopOnBottom, StateSpaceOverflow
from qpag.model import (
    EPSILON,
    POP,
    InputAlphabet,
    PRUNE_THRESHOLD,
    MachineQCPDA,
    StackAlphabet,
    TransitionQCPDA,
    make_tape,
    push,
    run_bounds,
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
from qpag.simulate import run_batch, stack_after, walk_to_end
from qpag.wellformed import check_qcpda

from .generators import left_sum, random_qcpda, words_up_to

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
    table: dict = {}
    b = initial_branch(m, table)
    deltas = qcpda_step(m, tape, b, table)
    assert len(deltas.children) == 1
    child = deltas.children[0]
    assert child.stack == ("Z", "x")  # landed in e1, which pushes
    deltas2 = qcpda_step(m, tape, child, table)
    assert deltas2.children[0].stack == ("Z",)  # landed in e0, which pops


def test_branch_children_renormalized():
    tape = make_tape(halting_walker(), "00")
    table: dict = {}
    deltas = qcpda_step(halting_walker(), tape, initial_branch(halting_walker(), table), table)
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


def test_dump_branches_rejects_a_negative_limit():
    # a negative slice bound would silently drop the least probable branches
    with pytest.raises(InvariantError, match="branch limit must be nonnegative"):
        dump_branches(forking_walker(), "0101", max_steps=3, limit=-1)


def test_branch_cap_enforced(monkeypatch):
    monkeypatch.setattr(model, "ENTRY_BUDGET", 4)
    with pytest.raises(StateSpaceOverflow):
        run_qcpda(forking_walker(), "0101", max_steps=20)


def test_branch_cap_trips_while_frontier_grows(monkeypatch):
    # the budget must stop a step while its merged frontier grows: the
    # failing step steps fewer branches than the uncapped run does at that
    # step. Step 2 starts from 2 entries and 2 cells, so a budget of 4
    # stops it at its first child
    stepped = Counter()
    at = [0]  # the step BranchSteps.step is taking
    real_step = BranchSteps.step
    real = branching.qcpda_step

    def stepping(self, point, tape, i):
        at[0] = i
        return real_step(self, point, tape, i)

    def counting(*args):
        stepped[at[0]] += 1
        return real(*args)

    monkeypatch.setattr(BranchSteps, "step", stepping)
    monkeypatch.setattr(branching, "qcpda_step", counting)
    run_qcpda(forking_walker(), "0101", max_steps=20)
    full = dict(stepped)
    stepped.clear()
    monkeypatch.setattr(model, "ENTRY_BUDGET", 4)
    with pytest.raises(StateSpaceOverflow, match=r"at step \d+$") as info:
        run_qcpda(forking_walker(), "0101", max_steps=20)
    step = int(re.search(r"at step (\d+)$", str(info.value)).group(1))
    assert max(stepped) == step == 2
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
    # in t even though the raw tree doubles. The merged run holds at most
    # 31 + 27 = 58 entries in a step, the tree 38 + 64 at step 6, so a
    # budget of 58 only survives if equal fingerprints actually collapse
    monkeypatch.setattr(model, "ENTRY_BUDGET", 58)
    res = run_qcpda(forking_walker(), "0" * 8, max_steps=8)
    assert res.total() == pytest.approx(1.0, abs=1e-9)
    raw = dump_branches(forking_walker(), "0" * 8, max_steps=5, limit=64)
    assert [len(level["branches"]) for level in raw["levels"]] == [2, 4, 8, 16, 32]
    with pytest.raises(StateSpaceOverflow, match="^live entries exceeded 58 at step 6$"):
        dump_branches(forking_walker(), "0" * 8, max_steps=8)


def test_merge_key_ignores_the_order_amplitudes_were_filled_in(monkeypatch):
    # two children with one stack and equal amplitudes, their psi dicts
    # filled in opposite orders, must merge into one branch
    m = forking_walker()
    parent = initial_branch(m, {})
    psi = {("f0", 1): H + 0j, ("f1", 1): -H + 0j}
    twins = tuple(
        Branch(0.5, parent.cell, dict(items))
        for items in (psi.items(), reversed(psi.items()))
    )
    assert list(twins[0].psi) != list(twins[1].psi)
    monkeypatch.setattr(
        branching,
        "qcpda_step",
        lambda *args: StepDeltas(twins, 0.0, 0.0, 0.0, 0.0),
    )
    frontier, *_ = BranchSteps(m).step(
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
            got = run_batch(BranchSteps(m), [run_bounds(m, w, budget) for w in order])
            assert got == [run_qcpda(m, w, max_steps=budget) for w in order], (
                seed,
                budget,
            )
    # one batch per machine mixes every word at every budget 0..8: a node
    # whose shared walk ends on its budget before any head reaches the next
    # position ends all its groups with that result
    for seed in range(5):
        m = random_qcpda(seed)
        runs = [(w, budget) for w in words for budget in range(9)]
        random.Random(seed).shuffle(runs)
        got = run_batch(BranchSteps(m), [run_bounds(m, w, budget) for w, budget in runs])
        want = []
        for w, budget in runs:
            stepper = BranchSteps(m)
            want.append(stepper.result(*walk_to_end(stepper, w, budget)))
        assert got == want, seed


class _CountingSteps(BranchSteps):
    """``BranchSteps`` that records how many entries each checkpoint it
    steps from holds."""

    def __init__(self, machine):
        super().__init__(machine)
        self.sizes = []

    def step(self, point, tape, i):
        self.sizes.append(self.size(point))
        return super().step(point, tape, i)


def test_single_word_run_keeps_a_bounded_path(monkeypatch):
    # a one-word batch takes the steps of a fresh run, no more: the halting
    # walker reads one more cell each step, so each layer takes one step
    stepper = _CountingSteps(halting_walker())
    want = run_qcpda(halting_walker(), "0101")
    assert run_batch(stepper, [run_bounds(halting_walker(), "0101", None)]) == [want]
    assert len(stepper.sizes) == want.steps
    # a forking walker that never moves reads cell 0 only, and its frontier
    # grows each step: a batch of its words walks once, from the start to
    # its budget, with the results of uncapped runs. A step holds at most
    # 91 + 75 = 166 entries, so no run overflows a budget of 200
    m = forking_walker()
    m = replace(m, transitions=tuple(replace(t, move=0) for t in m.transitions))
    words = ("01", "00", "01")
    full = [run_qcpda(m, w, max_steps=20) for w in words]
    monkeypatch.setattr(model, "ENTRY_BUDGET", 200)
    stepper = _CountingSteps(m)
    assert run_batch(stepper, [run_bounds(m, w, 20) for w in words]) == full
    assert len(stepper.sizes) == 20


def _live_branches() -> list:
    return [obj for obj in gc.get_objects() if type(obj) is Branch]


def test_single_word_run_frees_old_frontiers(monkeypatch):
    # a single-word run holds the live frontier only: when step i starts,
    # the branches alive are those of checkpoint i - 1, the frontier it
    # steps, and no branch of checkpoint i - 2 or earlier. Branches alive
    # before the run are held, so their ids stay theirs. The forking walker
    # that never moves reads cell 0 only, so a driver keeping checkpoints
    # for later words would keep every one of them
    m = forking_walker()
    m = replace(m, transitions=tuple(replace(t, move=0) for t in m.transitions))
    before = _live_branches()
    old = {id(b) for b in before}
    stepped: list = []
    kept: dict = {}
    real_step = BranchSteps.step

    def watching(self, point, tape, i):
        live = {id(b) for b in _live_branches()} - old
        frontier = {id(b) for b in point[0]}
        assert frontier <= live  # the probe sees the frontier it steps
        if live - frontier:
            kept[i] = len(live - frontier)
        stepped.append(i)
        return real_step(self, point, tape, i)

    monkeypatch.setattr(BranchSteps, "step", watching)
    res = run_qcpda(m, "01", max_steps=12)
    assert res.steps == 12 and max(stepped) == 12
    assert kept == {}


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


def _unfolded_qcpda_step(machine, tape, branch, table, pruned):
    """``qcpda_step`` with its pruning as a separate copy between the
    expansion and the measurement, kept as the oracle for the step that
    prunes and measures through ``simulate.measure``. Counts pruned amplitudes into ``pruned``."""
    stack = branch.cell
    top = stack.symbol
    n = len(tape)
    out: dict = {}
    parked = 0.0
    truncated = 0.0
    for key, amp in branch.psi.items():
        head = key[1]
        if head >= n:
            parked += abs(amp) ** 2
            continue
        column = machine.columns.get((key[0], tape[head], top))
        if column is None:
            truncated += abs(amp) ** 2
            continue
        for t in column:
            nxt = (t.target, key[1] + t.move)
            out[nxt] = out.get(nxt, 0j) + amp * t.amp
    kept: dict = {}
    for key, amp in out.items():
        if abs(amp) < PRUNE_THRESHOLD:
            truncated += abs(amp) ** 2
            pruned.append(abs(amp))
        else:
            kept[key] = amp

    acc = 0.0
    rej = 0.0
    classes: dict = {}
    for key, amp in kept.items():
        state = key[0]
        if state in machine.accepting:
            acc += abs(amp) ** 2
        elif state in machine.rejecting:
            rej += abs(amp) ** 2
        else:
            classes.setdefault(machine.sigma_map[state], {})[key] = amp

    children = []
    for op, vec in classes.items():
        mass = left_sum(abs(amp) ** 2 for amp in vec.values())
        if mass <= 0:
            continue
        scale = mass**-0.5
        children.append(
            Branch(
                prob=branch.prob * mass,
                cell=stack_after(table, stack, op),
                psi={key: amp * scale for key, amp in vec.items()},
            )
        )

    return StepDeltas(
        children=tuple(children),
        acc=branch.prob * acc,
        rej=branch.prob * rej,
        parked=branch.prob * parked,
        truncated=branch.prob * truncated,
    )


def test_folded_pruning_matches_unfolded_step(monkeypatch):
    # run_qcpda and equiv_check reports, and the largest head each
    # BranchSteps step reads, are == whether qcpda_step measures through simulate.measure or
    # through a copy that prunes before it measures; seed 8 prunes
    words = words_up_to(3)
    machines = [random_qcpda(seed) for seed in range(20)]
    reads: list = []
    real_step = BranchSteps.step

    def recording(self, point, tape, i):
        reads.append(max(self.heads(point), default=-1))
        return real_step(self, point, tape, i)

    def reports():
        reads.clear()
        out = []
        for m in machines:
            out.append([run_qcpda(m, w, max_steps=12) for w in words])
            out.append(equiv_check(m, compile_qcpda(m)[0], words, max_steps=8))
        return out, list(reads)

    monkeypatch.setattr(BranchSteps, "step", recording)
    folded = reports()
    pruned = []
    monkeypatch.setattr(
        branching,
        "qcpda_step",
        lambda machine, tape, branch, table: _unfolded_qcpda_step(
            machine, tape, branch, table, pruned
        ),
    )
    assert reports() == folded
    assert pruned


def test_result_sums_live_probability_left_to_right():
    # plain left-to-right adds give 1.0; a compensated sum (CPython 3.12's
    # sum()) would give 1.0000000000000002
    m = forking_walker()
    first = initial_branch(m, {})
    frontier = tuple(first._replace(prob=prob) for prob in (1.0, 1e-16, 1e-16))
    point = (frontier, 0.0, 0.0, 0.0, 0.0)
    assert BranchSteps(m).result(point, 3).p_non == 1.0
