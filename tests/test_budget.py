"""The entry budget: every engine counts its live entries in one unit and
raises at the first step where the entries it started from, the entries it
made and the cells of its table when it began pass ``model.ENTRY_BUDGET``.

Each case records those counts per step on an uncapped run, then sets the
budget just below each step's count (and at the largest count) and checks
that the engine raises at the step the counts name, or finishes with the
uncapped result. A memory gate checks the default budget on a deep
compiled run in child processes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from qpag import model, problem1, simulate
from qpag.branching import (
    BranchSteps,
    initial_branch,
    qcpda_step,
    run_qcpda,
)
from qpag.classical import PPASteps, run_ppa
from qpag.compiler import ImageSteps, compile_qcpda, equiv_check
from qpag.errors import StateSpaceOverflow
from qpag.model import (
    InputAlphabet,
    MachinePPA,
    MachineQPAG,
    StackAlphabet,
    TransitionPPA,
    TransitionQPAG,
    make_tape,
    push,
    run_bounds,
)
from qpag.simulate import KernelSteps, run, run_batch
from qpag.wellformed import audit_unitarity

from .corpus import TOTAL_MACHINES, H
from .generators import random_qcpda, words_up_to
from .test_branching import forking_walker


def _totals(stepper, word, max_steps, held, made):
    """(entries held when step i began) + (entries step i made) for each
    step of an uncapped walk of ``word``: ``held(point)`` counts a
    checkpoint's keys and ``made(point)`` the keys of the step that ended
    at ``point``; the table's cells count with the held entries."""
    tape, budget = run_bounds(stepper.machine, word, max_steps)
    point = stepper.start()
    totals = []
    for i in range(1, budget + 1):
        if not stepper.alive(point):
            break
        before = held(point) + len(stepper.table)
        point = stepper.step(point, tape, i)
        totals.append(before + made(point))
    return totals


def _vector_totals(monkeypatch, stepper, word, max_steps=None):
    """``_totals`` of a kernel stepper: a step makes the keys of
    ``evolve``'s vector, which ``measure`` then prunes."""
    made = []
    evolve = simulate.evolve

    def spy(*args):
        out = evolve(*args)
        made.append(len(out[0]))
        return out

    monkeypatch.setattr(simulate, "evolve", spy)
    totals = _totals(stepper, word, max_steps, lambda p: len(p[0]), lambda p: made[-1])
    monkeypatch.setattr(simulate, "evolve", evolve)
    return totals


def _branch_totals(stepper, word, max_steps=None):
    return _totals(stepper, word, max_steps, stepper.size, stepper.size)


def _ppa_totals(machine, word, max_steps=None):
    size = lambda p: len(p[0])
    return _totals(PPASteps(machine), word, max_steps, size, size)


def _audit_totals(machine, word, depth):
    """Per level of ``audit_unitarity``, from the configurations alone: the
    configurations met by the end of the level, plus the cells of the ones
    met before it (every nonempty prefix of their stacks and garbage
    tapes). The last level makes no configurations."""
    tape = make_tape(machine, word)
    first = (machine.initial, 0, (machine.stack_alphabet.bottom,), ())
    seen = {first}
    frontier = [first]
    totals = []
    for level in range(depth + 1):
        cells = {t[:k] for c in seen for t in c[2:] for k in range(1, len(t) + 1)}
        new = []
        for state, head, stack, garbage in frontier:
            if head >= len(tape) or level == depth:
                continue
            for t in machine.transitions:
                if (t.source, t.read, t.top) != (state, tape[head], stack[-1]) or t.amp == 0:
                    continue
                s2, g2 = stack, garbage
                if t.op.kind == "push":
                    s2 = stack + t.op.payload
                elif t.op.kind == "pop":
                    s2, g2 = stack[:-1], garbage + stack[-1:]
                succ = (t.target, head + t.move, s2, g2)
                if succ not in seen:
                    seen.add(succ)
                    new.append(succ)
        totals.append(len(seen) + len(cells))
        frontier = new
        if not frontier:
            break
    return totals


def _first_over(totals, budget):
    for step, total in enumerate(totals, 1):
        if total > budget:
            return step
    return None


def _check_budgets(monkeypatch, totals, call, floor=0):
    """Set the budget just below each step's total and at the largest one
    (never below ``floor``); ``call`` must raise at the first step whose
    total passes the budget, or equal its uncapped result."""
    uncapped = call()
    budgets = sorted({t - 1 for t in totals} | {max(totals)})
    budgets = [b for b in budgets if b >= floor]
    assert len(budgets) > 1
    for budget in budgets:
        monkeypatch.setattr(model, "ENTRY_BUDGET", budget)
        step = _first_over(totals, budget)
        if step is None:
            assert call() == uncapped
        else:
            message = f"^live entries exceeded {budget} at step {step}$"
            with pytest.raises(StateSpaceOverflow, match=message):
                call()


def _doubling_ppa() -> MachinePPA:
    """Pushes a or b with probability 1/2 each step, and advances on 1."""
    alpha = InputAlphabet(symbols=("<", "0", "1", ">"), left_end="<", right_end=">")
    gamma = StackAlphabet(symbols=("Z", "a", "b"), bottom="Z")
    rows = tuple(
        TransitionPPA("p0", read, top, "p0", push(symbol), int(read == "1"), 0.5)
        for read in alpha.symbols
        for top in gamma.symbols
        for symbol in ("a", "b")
    )
    return MachinePPA(
        states=("p0",),
        input_alphabet=alpha,
        stack_alphabet=gamma,
        transitions=rows,
        initial="p0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )


@pytest.mark.parametrize(
    "machine, word",
    [
        (TOTAL_MACHINES["splitter"](), "0000"),
        (TOTAL_MACHINES["pushcycle"](), "0101"),
        (compile_qcpda(random_qcpda(1))[0], "0"),
    ],
)
def test_run_trips_where_the_counts_pass_the_budget(monkeypatch, machine, word):
    totals = _vector_totals(monkeypatch, KernelSteps(machine), word)
    _check_budgets(monkeypatch, totals, lambda: run(machine, word))


def _shedder() -> MachineQPAG:
    """Each step pushes y on half the mass and moves on, and pushes x on
    the other half and accepts: every step leaves a cell that no live
    configuration holds."""
    alpha = InputAlphabet(symbols=("<", "0", "1", ">"), left_end="<", right_end=">")
    gamma = StackAlphabet(symbols=("Z", "x", "y"), bottom="Z")
    return MachineQPAG(
        states=("p", "a"),
        input_alphabet=alpha,
        stack_alphabet=gamma,
        transitions=tuple(
            TransitionQPAG("p", read, top, target, push(symbol), 1, H + 0j)
            for read in alpha.symbols
            for top in gamma.symbols
            for target, symbol in (("p", "y"), ("a", "x"))
        ),
        initial="p",
        accepting=frozenset({"a"}),
        rejecting=frozenset(),
    )


@pytest.mark.parametrize(
    "steps, machine, word, max_steps",
    [
        (KernelSteps, _shedder(), "000000", None),
        (KernelSteps, TOTAL_MACHINES["splitter"](), "0000", None),
        (KernelSteps, TOTAL_MACHINES["pushcycle"](), "0101", None),
        (KernelSteps, compile_qcpda(random_qcpda(1))[0], "0", None),
        (BranchSteps, forking_walker(), "0101", 12),
        (BranchSteps, random_qcpda(1), "01", 12),
    ],
    ids=["shedder", "splitter", "pushcycle", "image", "forking", "qcpda"],
)
def test_a_one_word_batch_trips_as_a_fresh_run(monkeypatch, steps, machine, word, max_steps):
    # the cases of the run and run_qcpda tests above, and the shedder, whose
    # table holds as many cells no live configuration holds as cells it
    # does: a batch of one word counts the table a fresh run counts, so it
    # raises at the same step with the same message, or finishes with the
    # same result
    if steps is KernelSteps:
        totals = _vector_totals(monkeypatch, KernelSteps(machine), word, max_steps)
    else:
        totals = _branch_totals(BranchSteps(machine), word, max_steps)
    bounds = run_bounds(machine, word, max_steps)
    _check_budgets(monkeypatch, totals, lambda: run_batch(steps(machine), [bounds])[0])


def test_a_batch_layer_trips_where_its_nodes_pass_the_budget(monkeypatch):
    # halfstep's runs on the 16 words of length 4 never merge, and a node
    # holds 2 entries per tape position its run has read: the layer past
    # position 3 holds 8 nodes of 6 entries, the next 16 of 8. A run alone
    # holds at most 25 entries in a step, with the table's one cell
    m = TOTAL_MACHINES["halfstep"]()
    words = [w for w in words_up_to(4) if len(w) == 4]
    runs = [run_bounds(m, w, None) for w in words]
    assert max(max(_vector_totals(monkeypatch, KernelSteps(m), w)) for w in words) == 25
    monkeypatch.setattr(model, "ENTRY_BUDGET", 100)
    alone = [run(m, w) for w in words]
    assert [run_batch(KernelSteps(m), [r])[0] for r in runs] == alone
    with pytest.raises(StateSpaceOverflow, match="^live entries exceeded 100 at tape position 4$"):
        run_batch(KernelSteps(m), runs)
    monkeypatch.setattr(model, "ENTRY_BUDGET", 128)
    assert run_batch(KernelSteps(m), runs) == alone


def test_equiv_check_image_trips_where_the_counts_pass_the_budget(monkeypatch):
    original = random_qcpda(1)
    image = compile_qcpda(original)[0]
    # the original side holds far fewer entries: keep the budget above it
    floor = max(_branch_totals(BranchSteps(original), "01", 6))
    totals = _vector_totals(monkeypatch, ImageSteps(image), "01", 18)
    assert max(totals) > floor
    _check_budgets(
        monkeypatch, totals, lambda: equiv_check(original, image, ["01"], max_steps=6), floor
    )


@pytest.mark.parametrize(
    "machine, word", [(forking_walker(), "0101"), (random_qcpda(1), "01")]
)
def test_run_qcpda_trips_where_the_counts_pass_the_budget(monkeypatch, machine, word):
    totals = _branch_totals(BranchSteps(machine), word, 12)
    _check_budgets(monkeypatch, totals, lambda: run_qcpda(machine, word, max_steps=12))


@pytest.mark.parametrize("word", ["", "0", "0101"])
def test_run_ppa_trips_where_the_counts_pass_the_budget(monkeypatch, word):
    m = _doubling_ppa()
    totals = _ppa_totals(m, word, 8)
    _check_budgets(monkeypatch, totals, lambda: run_ppa(m, word, max_steps=8))


@pytest.mark.parametrize("name, word", [("splitter", "000000"), ("pushcycle", "0110")])
def test_audit_trips_where_the_counts_pass_the_budget(monkeypatch, name, word):
    m = TOTAL_MACHINES[name]()
    totals = _audit_totals(m, word, 6)
    _check_budgets(monkeypatch, totals, lambda: audit_unitarity(m, word, depth=6))


def test_a_branch_step_holds_its_own_vector_to_the_budget(monkeypatch):
    # the first branch holds one key on one cell; its step makes two keys
    m = forking_walker()
    tape = make_tape(m, "0")

    def first_step():
        table: dict = {}
        return qcpda_step(m, tape, initial_branch(m, table), table)

    expected = first_step()
    monkeypatch.setattr(model, "ENTRY_BUDGET", 4)
    assert first_step().acc == expected.acc
    monkeypatch.setattr(model, "ENTRY_BUDGET", 3)
    with pytest.raises(StateSpaceOverflow, match="^live entries exceeded 3$"):
        first_step()


_GATE = """
import json, resource, sys
from qpag.compiler import compile_qcpda
from qpag.errors import StateSpaceOverflow
from qpag.simulate import run
from tests.generators import random_qcpda

try:
    outcome = repr(run(compile_qcpda(random_qcpda(1))[0], sys.argv[1]))
except StateSpaceOverflow as exc:
    outcome = "overflow: " + str(exc)
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"outcome": outcome, "peak_mb": peak_mb}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_default_budget_trips_before_memory_grows():
    # each word runs in a child of its own, which measures its own peak
    # resident set; the two run side by side
    root = Path(__file__).resolve().parent.parent
    children = {
        word: subprocess.Popen(
            [sys.executable, "-c", _GATE, word], cwd=root, stdout=subprocess.PIPE
        )
        for word in ("01", "011")
    }
    docs = {}
    for word, child in children.items():
        out, _ = child.communicate(timeout=120)
        assert child.returncode == 0
        docs[word] = json.loads(out)
    assert docs["011"]["outcome"].startswith("overflow: live entries exceeded")
    assert docs["011"]["peak_mb"] <= 150
    assert docs["01"]["outcome"] == (
        "RunResult(p_acc=0.9912627765429942, p_rej=0.0, p_non=0.0087372234570058,"
        " truncation_loss=0.0, steps=50, trace=None)"
    )
