"""Branch-tree engine for machines that schedule stack moves per state."""

import gc
import math
import random
import re
from collections import Counter
from qpag.model import replace

import pytest

from qpag import branching, model
from qpag.compiler import EQUIV_TOL, compile_qcpda, equiv_check
from qpag.errors import PopOnBottom, StateSpaceOverflow
from qpag.machinefile import parse_machine, serialize_machine
from qpag.model import (
    EPSILON,
    HALT_MASS,
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
    initial_branch,
    qcpda_step,
    run_qcpda,
)
from qpag.simulate import EMPTY, evolve, measure, run_batch, start, walk, walk_to_end
from qpag.wellformed import check_qcpda

from .generators import apply_op, left_sum, random_qcpda, row_columns, words_up_to

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


def _unmerged_tree(machine, word, max_steps):
    """The oracle for merging: the run's branch tree with no two branches
    merged. Every branch at or above ``HALT_MASS`` steps through
    ``qcpda_step`` and keeps all its children; one below it is dropped and
    its mass booked as truncated, as ``BranchSteps`` books it, while the
    frontier live at the budget goes to p_non. Returns (levels, ledger):
    ``levels[i - 1]`` lists the tree's branches after step i, and the
    ledger is (p_acc, p_rej, p_non, truncated) summed over the tree."""
    tape, budget = run_bounds(machine, word, max_steps)
    table: dict = {}
    frontier = [initial_branch(machine, table)]
    p_acc = p_rej = p_non = truncated = 0.0
    levels = []
    while frontier and len(levels) < budget:
        children = []
        for branch in frontier:
            if branch.prob < HALT_MASS:
                truncated += branch.prob
                continue
            deltas = qcpda_step(machine, tape, branch, table)
            p_acc += deltas.acc
            p_rej += deltas.rej
            p_non += deltas.parked
            truncated += deltas.truncated
            children.extend(deltas.children)
        frontier = children
        levels.append(frontier)
    p_non += left_sum(branch.prob for branch in frontier)
    return levels, (p_acc, p_rej, p_non, truncated)


def _level_sizes(machine, word, max_steps):
    """How many branches each level of the unmerged tree holds."""
    return [len(level) for level in _unmerged_tree(machine, word, max_steps)[0]]


def test_dropped_branch_is_truncation_not_non_halting():
    # the halting walker's live branch holds 2**-t after step t, below
    # HALT_MASS from t = 40, so step 41 drops it unstepped. Its mass is
    # truncation, as pruned mass is: p_non holds only parked mass and mass
    # live at the budget
    res = run_qcpda(halting_walker(), "0" * 50)
    assert res.steps == 41
    assert res.p_non == 0.0
    assert res.truncation_loss == pytest.approx(2.0**-40, rel=1e-12)
    assert res.p_acc + res.truncation_loss == pytest.approx(1.0, abs=1e-15)


def test_walker_single_branch_line():
    # one live state per step: the tree never widens
    assert set(_level_sizes(halting_walker(), "00", 4)) == {1}


def test_scheduled_ops_touch_stack():
    m = push_pop_walker()
    tape = make_tape(m, "01")
    table: dict = {}
    b = initial_branch(m, table)
    deltas = qcpda_step(m, tape, b, table)
    assert len(deltas.children) == 1
    child = deltas.children[0]
    assert child.cell.tokens() == ("Z", "x")  # landed in e1, which pushes
    deltas2 = qcpda_step(m, tape, child, table)
    assert deltas2.children[0].cell.tokens() == ("Z",)  # landed in e0, which pops


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
        for step, size in enumerate(_level_sizes(m, "01", 4), 1):
            assert size <= 2**step


def test_forking_walker_doubles():
    assert _level_sizes(forking_walker(), "0101", 3) == [2, 4, 8]


def test_merged_ledger_matches_the_unmerged_tree():
    # merging sums the probabilities of branches whose stacks and rounded
    # amplitudes agree, so the ledger moves by float error only. No run of
    # random_qcpda(0..9) here merges two branches, and those agree bit for
    # bit; the forking walker merges from step 2. The largest difference
    # measured is 4.4e-16
    worst = 0.0
    for m in [random_qcpda(seed) for seed in range(10)] + [forking_walker()]:
        for word in words_up_to(3):
            res = run_qcpda(m, word, max_steps=6)
            got = (res.p_acc, res.p_rej, res.p_non, res.truncation_loss)
            for a, b in zip(got, _unmerged_tree(m, word, 6)[1]):
                worst = max(worst, abs(a - b))
    assert worst <= EQUIV_TOL


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


def _bottom_popper(pop_amp: float) -> MachineQCPDA:
    """From (s0, r, Z), for every read r: a row into accepting ``acc`` and
    one of amplitude ``pop_amp`` into ``p``, whose scheduled pop takes the
    bottom symbol."""
    keep = (1 - pop_amp**2) ** 0.5
    rows = []
    for read in _ALPHA.symbols:
        rows.append(TransitionQCPDA("s0", read, "Z", "acc", 1, keep + 0j))
        rows.append(TransitionQCPDA("s0", read, "Z", "p", 1, pop_amp + 0j))
    return _qcpda(
        rows, [("s0", EPSILON), ("p", POP)], ("s0", "p", "acc"), accepting=frozenset({"acc"})
    )


def test_scheduled_pop_of_the_bottom_raises_only_for_surviving_mass():
    # a pop into p from the bottom symbol is refused only when p's class
    # survives measurement: an amplitude of 1e-13 is pruned first, and its
    # mass goes to truncation
    res = run_qcpda(_bottom_popper(1e-13), "0")
    assert (res.p_acc, res.truncation_loss) == (1.0, 1e-26)
    m = _bottom_popper(H)
    with pytest.raises(PopOnBottom, match=r"^pop on stack 'Z'$"):
        run_qcpda(m, "0")
    with pytest.raises(PopOnBottom, match=r"^pop on stack 'Z'$"):
        run_batch(BranchSteps(m), [run_bounds(m, w, None) for w in ("0", "1")])


def test_fingerprint_merges_identical_branches(monkeypatch):
    # a step-t branch of the forking walker is determined by its landing
    # state, its push count and a sign, so merging keeps the frontier linear
    # in t even though the raw tree doubles. The merged run holds at most
    # 31 + 27 = 58 entries in a step, while the tree's step 6 alone makes
    # more than 58, so a budget of 58 only survives if branches with equal
    # stacks and rounded vectors actually collapse
    raw, _ = _unmerged_tree(forking_walker(), "0" * 8, 6)
    assert [len(level) for level in raw] == [2, 4, 8, 16, 32, 64]
    assert sum(len(branch.psi) for branch in raw[5]) > 58
    monkeypatch.setattr(model, "ENTRY_BUDGET", 58)
    res = run_qcpda(forking_walker(), "0" * 8, max_steps=8)
    assert res.total() == pytest.approx(1.0, abs=1e-9)


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
    assert frontier[0].cell.tokens() == ("Z",)


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


def _unfolded_qcpda_step(machine, columns, tape, branch, table, pruned):
    """``qcpda_step`` with its pruning as a separate copy between the
    expansion and the measurement, kept as the oracle for the step that
    prunes and measures through ``simulate.measure``. ``columns`` is
    ``row_columns(machine)``. Counts pruned amplitudes into ``pruned``."""
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
        column = columns.get((key[0], tape[head], top))
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
                cell=apply_op(table, stack, op),
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
    columns = {id(m): row_columns(m) for m in machines}
    monkeypatch.setattr(
        branching,
        "qcpda_step",
        lambda machine, tape, branch, table: _unfolded_qcpda_step(
            machine, columns[id(machine)], tape, branch, table, pruned
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


def test_split_groups_equal_operations_not_one_object():
    # seed 1 schedules push x for t0 and t1 through one object; the file's
    # copy reads each sigma entry apart, so there the two are equal but
    # distinct objects, and each step's split must still give one child
    machine = random_qcpda(1)
    copy = parse_machine(serialize_machine(machine))
    ops = machine.sigma_map
    assert ops["t0"] is ops["t1"]
    ops = copy.sigma_map
    assert ops["t0"] == ops["t1"] == push("x") and ops["t0"] is not ops["t1"]
    # budget 8, as the benchmark's lowering check: this machine's frontier
    # passes the entry budget at step 19
    words = words_up_to(4)
    assert [run_qcpda(copy, w, 8) for w in words] == [run_qcpda(machine, w, 8) for w in words]
    rows = [equiv_check(m, compile_qcpda(m)[0], words, 8).rows for m in (copy, machine)]
    assert rows[0] == rows[1]


class _FingerprintSteps(BranchSteps):
    """``BranchSteps`` merging by the rule as first written, kept as the
    oracle for its bucketed merge: children go through a dict keyed by
    the stack cell with the frozenset of (key, real part, imaginary part)
    triples, each part rounded to 10 places, and a child whose key is
    already there adds its probability to that entry, which keeps its
    place, stack and vector."""

    def step(self, point, tape, i):
        frontier, p_acc, p_rej, p_non, truncated = point
        limit = model.room(self.size(point) + len(self.table))
        entries = 0
        merged: dict = {}
        for branch in frontier:
            if branch.prob < HALT_MASS:
                truncated += branch.prob
                continue
            deltas = qcpda_step(self.machine, tape, branch, self.table)
            p_acc += deltas.acc
            p_rej += deltas.rej
            p_non += deltas.parked
            truncated += deltas.truncated
            for child in deltas.children:
                fp = (
                    child.cell,
                    frozenset(
                        (key, round(amp.real, 10), round(amp.imag, 10))
                        for key, amp in child.psi.items()
                    ),
                )
                old = merged.get(fp)
                if old is None:
                    merged[fp] = child
                    entries += len(child.psi)
                    if entries > limit:
                        raise model.over_budget()
                else:
                    merged[fp] = Branch(old.prob + child.prob, old.cell, old.psi)
        return tuple(merged.values()), p_acc, p_rej, p_non, truncated


def _exact(point):
    """A checkpoint with each branch's vector as its items in order, so
    that == also compares the order of frontiers and vectors."""
    frontier, *sums = point
    return [(b.prob, b.cell, tuple(b.psi.items())) for b in frontier], sums


@pytest.mark.parametrize(
    "machine, words",
    [(random_qcpda(seed), words_up_to(3)) for seed in range(20)]
    + [(forking_walker(), ["0" * 8])],
    ids=[f"seed{seed}" for seed in range(20)] + ["forking"],
)
def test_bucketed_merge_steps_like_the_fingerprint_dict(machine, words):
    # every checkpoint of every run is == the oracle's, frontier order,
    # vector order and sums included; one cell table serves both, so equal
    # stacks are one object. The forking walker's unmerged tree holds 2**i
    # branches after step i; merging starts at step 3
    for word in words:
        steps = BranchSteps(machine)
        oracle = _FingerprintSteps(machine)
        oracle.table = steps.table
        tape, budget = run_bounds(machine, word, 8)
        got = [(i, _exact(p)) for i, p in walk(steps, tape, steps.start(), 1, budget)]
        want = [(i, _exact(p)) for i, p in walk(oracle, tape, oracle.start(), 1, budget)]
        assert got == want, word
    if machine.states[0] == "f0":
        assert [len(frontier) for _, (frontier, _) in got] == [2, 4, 7, 11, 15, 19, 23, 27]


@pytest.mark.parametrize("seed", range(5))
def test_bucketed_merge_batches_like_the_fingerprint_dict(seed):
    m = random_qcpda(seed)
    runs = [run_bounds(m, w, 8) for w in words_up_to(4)]
    assert run_batch(BranchSteps(m), runs) == run_batch(_FingerprintSteps(m), runs)


def _evolve_qcpda_step(machine, tape, branch, table):
    """``qcpda_step`` as it was written before branch vectors were keyed
    by (state, head), kept as the oracle for the step that holds the stack
    once: every key of ``branch.psi`` is a kernel configuration (state,
    head, stack cell, garbage cell) holding the branch's stack, as
    ``simulate.start`` and ``simulate.evolve`` build them; ``evolve``
    applies each row's scheduled operation to it, and ``measure``'s
    survivors are split by their stack cell."""
    prob = branch.prob
    limit = model.room(len(branch.psi) + len(table))
    out, parked, undefined = evolve(branch.psi, tape, machine.columns, table, limit)
    rest, acc, rej, pruned, _ = measure(machine, out)
    classes: dict = {}
    for key, amp in rest.items():
        split = classes.get(key[2])
        if split is None:
            split = classes[key[2]] = [{}, 0.0]
        split[0][key] = amp
        split[1] += abs(amp) ** 2
    children = []
    for cell, (vec, mass) in classes.items():
        if cell is EMPTY:
            raise model.pop_on_bottom(branch.cell)
        scale = mass**-0.5
        for key in vec:
            vec[key] *= scale
        children.append(Branch(prob * mass, cell, vec))
    return StepDeltas(
        tuple(children), prob * acc, prob * rej, prob * parked, prob * (undefined + pruned)
    )


class _ScanSteps(BranchSteps):
    """``BranchSteps`` as it was written before branch vectors were keyed
    by (state, head), kept as the oracle for the stepper that holds the
    stack once and finds merge partners by lookup: it steps each branch
    through ``_evolve_qcpda_step``, and a child scans every entry of its
    bucket, the entries with its key set, which fixes the stack since
    every key holds it."""

    def start(self):
        first = start(self.machine, self.table)
        return ((Branch(1.0, first.stack, {first: 1 + 0j}),), 0.0, 0.0, 0.0, 0.0)

    def step(self, point, tape, i):
        frontier, p_acc, p_rej, p_non, truncated = point
        limit = model.room(self.size(point) + len(self.table))
        entries = 0
        merged: list = []
        buckets: dict = {}
        for branch in frontier:
            if branch.prob < HALT_MASS:
                truncated += branch.prob
                continue
            deltas = _evolve_qcpda_step(self.machine, tape, branch, self.table)
            p_acc += deltas.acc
            p_rej += deltas.rej
            p_non += deltas.parked
            truncated += deltas.truncated
            for child in deltas.children:
                psi = child.psi
                bucket = buckets.setdefault(frozenset(psi), [])
                probe, amp = next(iter(psi.items()))
                for at in bucket:
                    old = merged[at]
                    if abs(old.psi[probe] - amp) <= 2e-10 and branching.agree(old.psi, psi):
                        merged[at] = Branch(old.prob + child.prob, old.cell, old.psi)
                        break
                else:
                    bucket.append(len(merged))
                    merged.append(child)
                    entries += len(psi)
                    if entries > limit:
                        raise model.over_budget()
        return tuple(merged), p_acc, p_rej, p_non, truncated

    def key(self, point):
        return (*point[1:], tuple((b.prob, tuple(b.psi.items())) for b in point[0]))


def _rekeyed(point):
    """``_exact`` of a checkpoint with each vector key cut to its (state,
    head) and each stack read as its symbols."""
    frontier, *sums = point
    return [
        (b.prob, b.cell.tokens(), tuple((tuple(key[:2]), amp) for key, amp in b.psi.items()))
        for b in frontier
    ], sums


@pytest.mark.parametrize(
    "machine, words",
    [(random_qcpda(seed), words_up_to(3)) for seed in range(40)]
    + [(forking_walker(), ["0" * 8])],
    ids=[f"seed{seed}" for seed in range(40)] + ["forking"],
)
def test_branch_steps_step_like_the_evolve_oracle(machine, words):
    # every checkpoint of every run is == the oracle's once its keys are
    # cut to (state, head): frontier order, vector order, stacks and sums
    # included. Each stepper interns cells in its own table
    for word in words:
        steps, oracle = BranchSteps(machine), _ScanSteps(machine)
        tape, budget = run_bounds(machine, word, 8)
        got = [(i, _rekeyed(p)) for i, p in walk(steps, tape, steps.start(), 1, budget)]
        want = [(i, _rekeyed(p)) for i, p in walk(oracle, tape, oracle.start(), 1, budget)]
        assert got == want, word


@pytest.mark.parametrize("seed", range(5))
def test_branch_steps_batch_like_the_evolve_oracle(seed):
    m = random_qcpda(seed)
    runs = [run_bounds(m, w, 8) for w in words_up_to(4)]
    assert run_batch(BranchSteps(m), runs) == run_batch(_ScanSteps(m), runs)


def test_scheduled_pop_of_the_bottom_raises_as_the_evolve_oracle_does():
    # the surviving class that pops the bottom symbol raises the oracle's
    # PopOnBottom, naming the branch's one-symbol stack
    m = _bottom_popper(H)
    messages = []
    for steps in (BranchSteps, _ScanSteps):
        with pytest.raises(PopOnBottom) as info:
            walk_to_end(steps(m), "0")
        messages.append(str(info.value))
    assert messages == ["pop on stack 'Z'"] * 2


def test_merge_lookup_probes_the_bucket_key_and_checks_every_key(monkeypatch):
    # the index probes each bucket at one key, the first key of its first
    # child. c and e round like a at the probe key but not at the other
    # key, so neither merges, and all three are then indexed under that
    # rounding. b lists a's keys in the other order, so its own first key
    # holds -H where a's holds H: it still merges into a, past c and e.
    # d agrees with c and merges into c, past a and e
    m = forking_walker()
    parent = initial_branch(m, {})
    keys = (("f0", 1), ("f1", 1))
    a = Branch(0.125, parent.cell, {keys[0]: H + 0j, keys[1]: -H + 0j})
    b = Branch(0.25, parent.cell, {keys[1]: -H + 0j, keys[0]: H + 0j})
    c = Branch(0.375, parent.cell, {keys[0]: H + 0j, keys[1]: H + 0j})
    d = Branch(0.25, parent.cell, {keys[1]: H + 0j, keys[0]: H + 1e-12j})
    e = Branch(0.5, parent.cell, {keys[0]: H + 0j, keys[1]: H * 1j})
    assert list(a.psi) != list(b.psi)
    monkeypatch.setattr(
        branching,
        "qcpda_step",
        lambda *args: StepDeltas((a, c, e, b, d), 0.0, 0.0, 0.0, 0.0),
    )
    frontier, *_ = BranchSteps(m).step(((parent,), 0.0, 0.0, 0.0, 0.0), make_tape(m, "0"), 1)
    assert frontier == (a._replace(prob=0.375), c._replace(prob=0.625), e)


def _up(x, times=1):
    for _ in range(times):
        x = math.nextafter(x, math.inf)
    return x


def _down(x, times=1):
    for _ in range(times):
        x = math.nextafter(x, -math.inf)
    return x


# the double nearest 0.12345678905 lies just above that tie, so it rounds
# up to 10 places and the double below it rounds down
_TIE = 0.12345678905
_NEAR_TIES = {
    "equal-after-rounding": (complex(_TIE, 0.5), complex(_up(_TIE, 3), 0.5), True),
    "equal-below-the-tie": (complex(_down(_TIE), 0.5), complex(_down(_TIE, 3), 0.5), True),
    # both parts round to 0.1234567891 from 1e-10 apart: 1.414e-10 in modulus
    "widest-that-merge": (complex(_TIE, _TIE), complex(0.1234567891499999, 0.1234567891499999), True),
    "one-ulp-across-the-tie": (complex(_down(_TIE), 0.5), complex(_TIE, 0.5), False),
    "within-2e-10-apart": (complex(0.12345678901, 0.5), complex(0.12345678909, 0.5), False),
    "past-2e-10": (complex(0.1234567890, 0.5), complex(0.1234567893, 0.5), False),
    "signed-zero": (complex(-0.0, 0.5), complex(0.0, 0.5), True),
    "tiny-of-either-sign": (complex(-1e-12, 0.5), complex(1e-12, 0.5), True),
    "imaginary-mismatch": (complex(0.5, _down(_TIE)), complex(0.5, _TIE), False),
    "imaginary-equal": (complex(0.5, _TIE), complex(0.5, _up(_TIE)), True),
}


@pytest.mark.parametrize("first", [True, False], ids=["first-key", "second-key"])
@pytest.mark.parametrize("case", list(_NEAR_TIES))
def test_near_tie_amplitudes_merge_exactly_when_they_round_equal(case, first, monkeypatch):
    # two children on one stack whose vectors differ at one key, the first
    # key filled or the second, merge exactly when both parts of the two
    # amplitudes there are equal after round(., 10)
    a, b, merges = _NEAR_TIES[case]
    assert merges == (
        round(a.real, 10) == round(b.real, 10) and round(a.imag, 10) == round(b.imag, 10)
    )
    assert a != b or case == "signed-zero"
    m = forking_walker()
    parent = initial_branch(m, {})
    other = -H + 0j

    def vector(amp):
        return {("f0", 1): amp, ("f1", 1): other} if first else {("f0", 1): other, ("f1", 1): amp}

    twins = (Branch(0.25, parent.cell, vector(a)), Branch(0.75, parent.cell, vector(b)))
    assert branching.agree(twins[0].psi, twins[1].psi) == merges
    monkeypatch.setattr(
        branching,
        "qcpda_step",
        lambda *args: StepDeltas(twins, 0.0, 0.0, 0.0, 0.0),
    )
    frontier, *_ = BranchSteps(m).step(
        ((parent,), 0.0, 0.0, 0.0, 0.0), make_tape(m, "0"), 1
    )
    if merges:
        assert frontier == (Branch(1.0, parent.cell, twins[0].psi),)
    else:
        assert frontier == twins
