"""Vector engine: conservation, closed forms, trace output, the entry
budget, and batches run layer by layer."""

import random
import re
from qpag.model import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpag import model, problem1, simulate
from qpag.branching import BranchSteps, run_qcpda
from qpag.classical import ACCEPT, PPASteps, run_dpda, run_ppa
from qpag.compiler import compile_qcpda, equiv_check
from qpag.errors import (
    EndmarkerInWord,
    InvariantError,
    PopOnBottom,
    StateSpaceOverflow,
    UnknownSymbol,
)
from qpag.model import (
    EPSILON,
    GARBAGE_POP,
    HALT_MASS,
    POP,
    PRUNE_THRESHOLD,
    SCHEDULED_POP,
    Configuration,
    InputAlphabet,
    MachinePPA,
    MachineQCPDA,
    MachineQPAG,
    RunResult,
    StackAlphabet,
    StepSnapshot,
    TransitionPPA,
    TransitionQCPDA,
    TransitionQPAG,
    default_max_steps,
    make_tape,
    push,
    run_bounds,
    vector_norm_sq,
)
from qpag.simulate import (
    EMPTY,
    CellConfiguration,
    KernelSteps,
    cons,
    evolve,
    run,
    run_batch,
    successor,
    trajectory,
    walk_to_end,
)
from qpag.wellformed import audit_unitarity

from .corpus import TOTAL_MACHINES, H, coin_ppa, dpda_wcwr
from .generators import (
    apply_op,
    problem1_instances,
    random_qcpda,
    random_qpag_table,
    row_columns,
    words_up_to,
)
from .reference import ref_run_qpag
from .test_classical_walk import random_ppa


def test_outcome_masses_sum_to_one():
    res = run(problem1.build_machine(), "ab#ba#abc")
    assert res.total() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(TOTAL_MACHINES)),
    word=st.text(alphabet="01", max_size=6),
)
def test_conservation_property(name, word):
    if name == "splitter" and len(word) > 4:
        word = word[:4]
    res = run(TOTAL_MACHINES[name](), word)
    assert abs(res.total() - 1.0) <= 1e-9
    assert res.p_acc >= -1e-15 and res.p_rej >= -1e-15 and res.p_non >= -1e-15


@pytest.mark.parametrize("n", range(7))
def test_hadamard_walker_closed_form(n):
    # rotating coin on the way right: survival halves per cell, so the
    # accept mass after the full pass is 1 - 2^-(n+2)
    res = run(TOTAL_MACHINES["hadamard2"](), "0" * n)
    assert res.p_acc == pytest.approx(1 - 2.0 ** -(n + 2), abs=1e-12)
    assert res.total() == pytest.approx(1.0, abs=1e-12)


def test_phase_machine_never_halts():
    res = run(TOTAL_MACHINES["phase1"](), "010")
    assert res.p_acc == 0.0
    assert res.p_rej == 0.0
    assert res.p_non == pytest.approx(1.0, abs=1e-12)


def test_parked_mass_counts_as_non_halting():
    # hadamard2 walks right every step: whatever survives past the right
    # endmarker parks, and the run stops well before the step budget
    res = run(TOTAL_MACHINES["hadamard2"](), "01")
    assert res.p_non == pytest.approx(2.0**-4, abs=1e-12)
    assert res.steps <= 6


@pytest.mark.parametrize(
    "word",
    ["a#a#a", "b#b#b", "ab#ba#ab", "ab#ba#cd", "abc#cba#abc", "ca#ac#dd"],
)
def test_matches_reference_engine(word):
    m = problem1.build_machine()
    res = run(m, word)
    acc, rej, non, trunc = ref_run_qpag(m, word, default_max_steps(len(word)))
    assert res.p_acc == pytest.approx(acc, abs=1e-12)
    assert res.p_rej == pytest.approx(rej, abs=1e-12)
    assert res.p_non == pytest.approx(non, abs=1e-12)
    assert res.truncation_loss == pytest.approx(trunc, abs=1e-12)


def test_reference_engine_corpus_agreement():
    for name in sorted(TOTAL_MACHINES):
        if name == "splitter":
            continue
        m = TOTAL_MACHINES[name]()
        for word in ["", "0", "10", "011"]:
            res = run(m, word)
            acc, _rej, non, _tr = ref_run_qpag(m, word, default_max_steps(len(word)))
            assert res.p_acc == pytest.approx(acc, abs=1e-12), (name, word)
            assert res.p_non == pytest.approx(non, abs=1e-12), (name, word)


def test_undefined_column_becomes_truncation_loss():
    # drop every row leaving the start state: all mass dies on step one
    m = problem1.build_machine()
    crippled = type(m)(
        states=m.states,
        input_alphabet=m.input_alphabet,
        stack_alphabet=m.stack_alphabet,
        transitions=tuple(t for t in m.transitions if t.source != "q0"),
        initial=m.initial,
        accepting=m.accepting,
        rejecting=m.rejecting,
    )
    res = run(crippled, "a#a#a")
    assert res.truncation_loss == pytest.approx(1.0, abs=1e-12)
    assert res.total() == pytest.approx(1.0, abs=1e-12)
    # the same rows zeroed instead of dropped leave the column just as undefined
    zeroed = replace(
        m,
        transitions=tuple(
            replace(t, amp=0j) if t.source == "q0" else t for t in m.transitions
        ),
    )
    res = run(zeroed, "a#a#a")
    assert res.truncation_loss == pytest.approx(1.0, abs=1e-12)
    assert res.total() == pytest.approx(1.0, abs=1e-12)


def test_word_validation():
    m = problem1.build_machine()
    with pytest.raises(UnknownSymbol):
        run(m, "a#z#a")
    with pytest.raises(EndmarkerInWord):
        run(m, "a<a")


def test_max_steps_cuts_run():
    res = run(TOTAL_MACHINES["phase1"](), "0101", max_steps=3)
    assert res.steps == 3
    assert res.p_non == pytest.approx(1.0, abs=1e-12)


def test_trace_disabled_by_default():
    assert run(problem1.build_machine(), "a#a#a").trace is None


def test_trace_contents_sorted_by_weight():
    res = run(problem1.build_machine(), "ab#ba#ab", trace_depth=4)
    assert res.trace
    busy = [s for s in res.trace if len(s.survivors) >= 2]
    assert busy
    for snap in busy:
        mags = [abs(a) for _, a in snap.survivors]
        assert mags == sorted(mags, reverse=True)
    row = busy[0].to_json_dict()["survivors"][0]
    assert set(row) == {"state", "head", "stack", "garbage", "amp"}


def test_successor():
    table: dict = {}
    bottom = cons(table, EMPTY, "Z")
    stack = cons(table, bottom, "a")
    conf = CellConfiguration("q", 2, stack, EMPTY)
    # epsilon keeps the stack cell; the row gives the state and head move
    assert successor(table, conf, "r", 1, None) == ("r", 3, stack, EMPTY)
    assert successor(table, conf, "r", 1, None).stack is stack
    pushed = successor(table, conf, "r", 0, ("b", "c")).stack
    assert pushed.tokens() == ("Z", "a", "b", "c")
    assert pushed is cons(table, cons(table, stack, "b"), "c")
    # a garbage pop appends the top symbol to the garbage tape
    popped = successor(table, conf, "r", 0, GARBAGE_POP)
    assert popped.stack is bottom and popped.garbage is cons(table, EMPTY, "a")
    on_bottom = conf._replace(stack=bottom)
    with pytest.raises(PopOnBottom, match="^pop on stack 'Z'$"):
        successor(table, on_bottom, "r", 0, GARBAGE_POP)
    # a scheduled pop keeps no garbage and leaves the empty tape unchecked
    assert successor(table, conf, "r", 0, SCHEDULED_POP) == ("r", 2, bottom, EMPTY)
    assert successor(table, on_bottom, "r", 0, SCHEDULED_POP).stack is EMPTY


def _met(stepper, word, keys):
    """The tape of ``word`` and every configuration the checkpoints of a
    walk of ``word`` hold (``keys(point)``), up to 12 steps, the walk's end
    or a PopOnBottom."""
    tape, budget = run_bounds(stepper.machine, word, 12)
    point = stepper.start()
    met = list(keys(point))
    try:
        for _, point in simulate.walk(stepper, tape, point, 1, budget):
            met += keys(point)
    except PopOnBottom:
        pass
    return tape, met


def _images(expand):
    """``expand()``'s configurations, or the message of the PopOnBottom it
    raises."""
    try:
        return list(expand())
    except PopOnBottom as exc:
        return str(exc)


def _as_qpag(ppa):
    """The rows of ``ppa`` read as a garbage-tape machine's, each
    probability as an amplitude, so that its pops keep garbage."""
    rows = tuple(
        TransitionQPAG(t.source, t.read, t.top, t.target, t.op, t.move, complex(t.prob))
        for t in ppa.transitions
    )
    fields = (ppa.initial, ppa.accepting, ppa.rejecting)
    return MachineQPAG(ppa.states, ppa.input_alphabet, ppa.stack_alphabet, rows, *fields)


def test_evolve_and_successor_agree_on_every_configuration_met():
    # the two stack rules agree: on a one-key vector evolve makes the keys
    # successor makes on each row of the key's column, in row order, and a
    # bottom pop raises the same error in both. No run of the garbage-tape
    # machines below pops the bottom symbol, so each random PPA is walked
    # a second time as one, its pops keeping garbage
    vector = lambda point: point[0]
    branches = lambda point: [key for branch in point[0] for key in branch.psi]
    cases = [(KernelSteps, build()) for build in TOTAL_MACHINES.values()]
    cases += [(KernelSteps, problem1.build_machine())]
    cases += [(PPASteps, coin_ppa()), (PPASteps, dpda_wcwr())]
    for seed in range(20):
        machine = random_qcpda(seed)
        cases += [(BranchSteps, machine), (KernelSteps, compile_qcpda(machine)[0])]
        cases += [(KernelSteps, random_qpag_table(seed)), (PPASteps, random_ppa(seed))]
        cases += [(KernelSteps, _as_qpag(random_ppa(seed)))]
    raised = emptied = compared = 0
    for steps, machine in cases:
        keys = branches if steps is BranchSteps else vector
        columns = machine.columns
        for word in words_up_to(3, sorted(machine.input_alphabet.word_symbols)):
            stepper = steps(machine)
            table = stepper.table
            tape, met = _met(stepper, word, keys)
            for conf in dict.fromkeys(met):
                if conf.head >= len(tape):
                    continue
                column = columns.get((conf.state, tape[conf.head], conf.stack.symbol))
                if column is None:
                    continue
                want = _images(
                    lambda: [successor(table, conf, *row[1:]) for row in column]
                )
                got = _images(
                    lambda: evolve({conf: 1}, tape, columns, table, model.ENTRY_BUDGET)[0]
                )
                assert got == want, (word, conf.view())
                compared += 1
                if isinstance(want, str):
                    raised += 1
                else:
                    emptied += any(succ.stack is EMPTY for succ in want)
    assert raised and emptied, (compared, raised, emptied)
def test_trace_depth_caps_entries():
    res = run(TOTAL_MACHINES["splitter"](), "0000", trace_depth=3)
    assert res.trace
    assert all(len(s.survivors) <= 3 for s in res.trace)


def _cap_vectors(monkeypatch, cap):
    monkeypatch.setattr(model, "ENTRY_BUDGET", cap)


def test_config_cap_overflow(monkeypatch):
    m = TOTAL_MACHINES["splitter"]()
    tape = make_tape(m, "000000")
    _cap_vectors(monkeypatch, 8)
    with pytest.raises(StateSpaceOverflow):
        for _ in trajectory(m, tape, max_steps=20):
            pass


def test_config_cap_trips_during_accumulation(monkeypatch):
    # the budget must stop a step while its vector grows, not after the
    # whole step has been built: count the successors the failing step
    # computed, through the one call ``evolve`` makes per successor key.
    # Step 4 starts from 8 keys and 15 cells and makes 16 keys, so a
    # budget of 30 stops it at its eighth new key
    m = TOTAL_MACHINES["splitter"]()
    tape = make_tape(m, "000000")
    calls = 0
    real = simulate._new_configuration

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(simulate, "_new_configuration", counting)
    per_step = []
    for _ in trajectory(m, tape, max_steps=20):
        per_step.append(calls - sum(per_step))
    calls = 0
    _cap_vectors(monkeypatch, 30)
    with pytest.raises(StateSpaceOverflow, match=r"at step \d+$") as info:
        for _ in trajectory(m, tape, max_steps=20):
            pass
    step = int(re.search(r"at step (\d+)$", str(info.value)).group(1))
    in_failing_step = calls - sum(per_step[: step - 1])
    assert step == 4
    assert 0 < in_failing_step < per_step[step - 1]


def test_results_do_not_depend_on_table_order():
    # equal ledgers, bit for bit, after a seeded shuffle of the table
    cases = [(problem1.build_machine(), ["a#a#a", "ab#ba#cd", "abc#cba#abd"])]
    cases += [
        (compile_qcpda(random_qcpda(seed))[0], words_up_to(3))
        for seed in range(0, 50, 5)
    ]
    for i, (m, words) in enumerate(cases):
        rows = list(m.transitions)
        random.Random(i).shuffle(rows)
        shuffled = replace(m, transitions=tuple(rows))
        for word in words:
            assert run(shuffled, word, max_steps=24) == run(m, word, max_steps=24), (
                i,
                word,
            )


def test_measure_sees_full_stack_depth(monkeypatch):
    # the benchmark's traced run reads len(c.stack) off measure's survivors:
    # the depth including the bottom symbol, n + 1 for a problem1 word
    inst = problem1.generate(8, problem1.YES, seed=3)
    depths = []
    real = simulate.measure

    def spy(machine, psi):
        result = real(machine, psi)
        depths.extend(len(c.stack) for c in result[0])
        return result

    monkeypatch.setattr(simulate, "measure", spy)
    res = run(problem1.build_machine(), inst.tokens())
    assert res.p_acc == 1.0
    assert max(depths) == 9


def test_trajectory_records_hold_plain_tuples():
    m = problem1.build_machine()
    inst = problem1.generate(8, problem1.YES, seed=3)
    tape = make_tape(m, inst.tokens())
    records = list(trajectory(m, tape, default_max_steps(len(tape) - 2)))
    assert records
    for rec in records:
        for conf in rec.psi:
            assert type(conf) is Configuration
            assert type(conf.stack) is tuple and type(conf.garbage) is tuple
            assert all(type(s) is str for s in conf.stack + conf.garbage)


@pytest.mark.parametrize("cls", [problem1.YES, problem1.NO])
def test_deep_run_matches_closed_form(cls):
    inst = problem1.generate(128, cls, seed=11)
    acc, rej = problem1.expected_amplitudes(inst)
    res = run(problem1.build_machine(), inst.tokens())
    assert res.p_acc == abs(acc) ** 2
    assert res.p_rej == abs(rej) ** 2


def test_trajectory_step_records_conserve_mass():
    m = problem1.build_machine()
    tape = make_tape(m, "ab#ba#ab")
    total_acc = total_rej = total_parked = total_trunc = 0.0
    live = 1.0
    for rec in trajectory(m, tape, max_steps=40):
        total_acc += rec.acc_delta
        total_rej += rec.rej_delta
        total_parked += rec.parked_delta
        total_trunc += rec.truncation_delta
        live = sum(abs(a) ** 2 for a in rec.psi.values())
        assert (
            total_acc + total_rej + total_parked + total_trunc + live
            == pytest.approx(1.0, abs=1e-9)
        )
    assert total_acc + total_rej + total_parked + total_trunc + live == pytest.approx(
        1.0, abs=1e-9
    )


def test_run_and_trajectory_agree_bit_for_bit(monkeypatch):
    # run's ledger is trajectory's deltas folded in step order, with ==, and
    # each traced snapshot carries its record's deltas. Some images outgrow
    # a small cap at the default budget: then both overflow at one step
    _cap_vectors(monkeypatch, 5000)
    p1 = problem1.build_machine()
    cases = [
        (
            p1,
            [
                problem1.generate(n, cls, seed=n).tokens()
                for n in (1, 3, 8)
                for cls in (problem1.YES, problem1.NO)
            ]
            + ["ab#ba#cd", ""],
        )
    ]
    cases += [(compile_qcpda(random_qcpda(seed))[0], words_up_to(3)) for seed in range(10)]
    for m, words in cases:
        for word in words:
            tape = make_tape(m, word)
            for budget in (0, 1, default_max_steps(len(tape) - 2)):
                try:
                    records = list(trajectory(m, tape, budget))
                except StateSpaceOverflow as exc:
                    with pytest.raises(StateSpaceOverflow, match=f"^{exc}$"):
                        run(m, word, max_steps=budget)
                    continue
                acc = rej = parked = truncated = 0.0
                for rec in records:
                    acc += rec.acc_delta
                    rej += rec.rej_delta
                    parked += rec.parked_delta
                    truncated += rec.truncation_delta
                live = vector_norm_sq(records[-1].vector) if records else 1.0
                steps = records[-1].step if records else 0
                res = run(m, word, max_steps=budget)
                assert (res.p_acc, res.p_rej, res.p_non, res.truncation_loss) == (
                    acc,
                    rej,
                    parked + live,
                    truncated,
                ), (word, budget)
                assert res.steps == steps
                traced = run(m, word, max_steps=budget, trace_depth=2)
                assert replace(traced, trace=None) == res
                assert [(s.step, s.p_acc_delta, s.p_rej_delta) for s in traced.trace] == [
                    (r.step, r.acc_delta, r.rej_delta) for r in records
                ]


@pytest.mark.parametrize("depth", [1, 3, 16])
def test_run_trace_is_each_trajectory_record_cut_to_depth(depth):
    # each snapshot holds its record's survivors, largest |amp| first and
    # ties by configuration, cut to the depth, and its record's deltas
    cases = [(problem1.build_machine(), ["a#b#c", "ab#ba#cd", "abc#cab#dda"])]
    cases += [
        (TOTAL_MACHINES[name](), words_up_to(3)) for name in ("splitter", "halfstep", "pushcycle")
    ]
    for m, words in cases:
        for word in words:
            tape = make_tape(m, word)
            want = tuple(
                StepSnapshot(
                    rec.step,
                    tuple(sorted(rec.psi.items(), key=lambda kv: (-abs(kv[1]), kv[0]))[:depth]),
                    rec.acc_delta,
                    rec.rej_delta,
                )
                for rec in trajectory(m, tape, default_max_steps(len(tape) - 2))
            )
            assert run(m, word, trace_depth=depth).trace == want, (word, depth)


def test_empty_word_runs():
    res = run(problem1.build_machine(), "")
    assert res.total() == pytest.approx(1.0, abs=1e-12)


def test_default_budget_formula():
    assert default_max_steps(0) == 30
    assert default_max_steps(7) == 100
    res = run(TOTAL_MACHINES["phase1"](), "01")
    assert res.steps <= default_max_steps(2)


def test_amplitudes_can_interfere_destructively():
    # halfstep sends half the mass around a loop that cancels: no single
    # branch carries the accept weight, only the interference pattern
    res = run(TOTAL_MACHINES["halfstep"](), "00")
    assert res.total() == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= res.p_acc <= 1.0


def test_cancelled_halting_amplitude_is_pruned_in_both_engines():
    # s reaches p1, p2 and p3 with amplitude 1/2 each, and they reach the
    # accepting acc with 0.2, 0.4 and -0.6: acc's amplitude cancels to
    # 0.1 + 0.2 - 0.3, about 5.6e-17, below PRUNE_THRESHOLD. Its mass is
    # pruned, not accepted, in the vector engine and the branching engine
    # alike; a measure that drained halting mass before pruning would
    # report these truncated masses as p_acc
    alpha = InputAlphabet(symbols=("<", "0", ">"), left_end="<", right_end=">")
    gamma = StackAlphabet(symbols=("Z",), bottom="Z")
    states = ("s", "p1", "p2", "p3", "acc")
    rows = [
        ("s", "p1", 0.5),
        ("s", "p2", 0.5),
        ("s", "p3", 0.5),
        ("p1", "acc", 0.2),
        ("p2", "acc", 0.4),
        ("p3", "acc", -0.6),
    ]
    common = dict(
        states=states,
        input_alphabet=alpha,
        stack_alphabet=gamma,
        initial="s",
        accepting=frozenset({"acc"}),
        rejecting=frozenset(),
    )
    qpag = MachineQPAG(
        transitions=tuple(
            TransitionQPAG(q, "<", "Z", r, EPSILON, 0, amp + 0j) for q, r, amp in rows
        ),
        **common,
    )
    qcpda = MachineQCPDA(
        transitions=tuple(
            TransitionQCPDA(q, "<", "Z", r, 0, amp + 0j) for q, r, amp in rows
        ),
        sigma=tuple((q, EPSILON) for q in states[:-1]),
        **common,
    )
    got = [
        (res.p_acc, res.truncation_loss, res.steps)
        for res in (run(qpag, "0"), run_qcpda(qcpda, "0"))
    ]
    # the branch renormalizes its vector to unit norm after step 1 and
    # carries probability 3/4, so its residue differs
    assert got == [(0.0, 3.0814879110195774e-33, 2), (0.0, 2.311115933264683e-33, 2)]


def test_negative_step_budget_is_rejected():
    m = TOTAL_MACHINES["halfstep"]()
    q = random_qcpda(0)
    calls = [
        lambda: run(m, "0", max_steps=-1),
        lambda: run_qcpda(q, "0", max_steps=-1),
        lambda: equiv_check(q, compile_qcpda(q)[0], ["0"], max_steps=-1),
        lambda: run_ppa(coin_ppa(), "a", max_steps=-1),
        lambda: list(trajectory(m, make_tape(m, "0"), -1)),
    ]
    for call in calls:
        with pytest.raises(InvariantError, match="step budget must be nonnegative"):
            call()
    assert run(m, "0", max_steps=0).steps == 0


def test_negative_trace_depth_is_rejected():
    m = TOTAL_MACHINES["halfstep"]()
    with pytest.raises(InvariantError, match="^trace depth must be nonnegative, got -3$"):
        run(m, "0", trace_depth=-3)
    assert run(m, "0", trace_depth=0).trace is None


def test_phase_preserved_in_trace():
    res = run(TOTAL_MACHINES["phase1"](), "0", trace_depth=2)
    amps = [a for s in res.trace for _, a in s.survivors]
    assert any(abs(a.imag) > 1e-12 for a in amps)


# ----------------------------------------------------------------------
# run_batch: batches run layer by layer
# ----------------------------------------------------------------------


def _batch(machine, words, max_steps=None):
    """``run_batch`` of the kernel's stepper over ``words``."""
    return run_batch(KernelSteps(machine), [run_bounds(machine, w, max_steps) for w in words])


def test_run_batch_equals_run_on_problem1_up_to_n2():
    m = problem1.build_machine()
    words = [
        inst.tokens()
        for n in (1, 2)
        for inst in problem1_instances(n)
    ]
    assert len(words) == 1332
    single = {w: run(m, w) for w in words}
    # the order of a batch decides its nodes' order and which member's
    # tape a group walks on, never a result
    shuffled = random.Random(17).sample(words, len(words))
    for order in (words, words[::-1], shuffled):
        assert _batch(m, order) == [single[w] for w in order]


def test_run_batch_equals_run_on_compiled_images():
    words = words_up_to(4)
    for seed in range(20):
        image = compile_qcpda(random_qcpda(seed))[0]
        rng = random.Random(seed)
        orders = (
            words,
            rng.sample(words, len(words)),
            [w for w in words for _ in (0, 1)] + words[::-1],
        )
        for budget in (0, 1, 7, 24):
            single = {w: run(image, w, max_steps=budget) for w in words}
            for order in orders:
                got = _batch(image, order, max_steps=budget)
                assert got == [single[w] for w in order], (seed, budget)


def _scanner(rows) -> MachineQPAG:
    """A machine over 0 and 1 that never touches its stack: p moves right
    over both endmarkers, and ``rows`` (source, read, target, move, amp)
    give the rest. State a accepts and r rejects."""
    rows = [("p", "<", "p", 1, 1), ("p", ">", "p", 1, 1), *rows]
    return MachineQPAG(
        states=("a", "p", "r", "w"),
        input_alphabet=InputAlphabet(
            symbols=("<", "0", "1", ">"), left_end="<", right_end=">"
        ),
        stack_alphabet=StackAlphabet(symbols=("Z",), bottom="Z"),
        transitions=tuple(
            TransitionQPAG(src, read, "Z", tgt, EPSILON, move, complex(amp))
            for src, read, tgt, move, amp in rows
        ),
        initial="p",
        accepting=frozenset({"a"}),
        rejecting=frozenset({"r"}),
    )


# p reads a 1 in one step and a 0 in two, through w
_WAITER = [("p", "0", "w", 0, 1), ("w", "0", "p", 1, 1), ("p", "1", "p", 1, 1)]
# p reads a 0 by sending half its mass to accept, a 1 by sending it to reject
_LEAKER = [
    ("p", "0", "a", 1, H),
    ("p", "0", "p", 1, H),
    ("p", "1", "r", 1, H),
    ("p", "1", "p", 1, H),
]


@pytest.mark.parametrize("rows", [_WAITER, _LEAKER], ids=["waiter", "leaker"])
def test_run_batch_keys_the_step_and_the_ledger(rows):
    # after reading position 1, "01" and "11" both hold the vector p@2, so
    # their keys hold the same tape slice (none) and the same vector: the
    # waiter reaches it at step 3 and step 2, the leaker with p_acc 0.5 and
    # with p_rej 0.5, so neither may take the other's result
    m = _scanner(rows)
    words = ["00", "01", "10", "11"]
    want = [run(m, w) for w in words]
    assert want[1] != want[3]
    assert _batch(m, words) == want


# p dwells on the first symbol, sending a little of its mass to accept or
# reject each step, so its runs outlast every default budget
_DWELLER = [
    ("p", "0", "p", 0, 0.9),
    ("p", "0", "a", 0, 0.19**0.5),
    ("p", "1", "p", 0, 0.9),
    ("p", "1", "r", 0, 0.19**0.5),
]


@pytest.mark.parametrize(
    "machine",
    [_scanner(_DWELLER), TOTAL_MACHINES["halfstep"]()],
    ids=["dweller", "halfstep"],
)
def test_run_batch_groups_mixed_lengths_by_budget(machine):
    # words of each length have their own default budget. The dweller's
    # runs all stop on their budget while reading position 1, so "0" and
    # "00" may not share a walk there; halfstep's m0 component stands
    # still, so lagging mass sits on the right endmarker after other mass
    # has parked, and a group's run must step on to its end with the whole
    # tape known
    words = words_up_to(4)
    want = [run(machine, w) for w in words]
    # "0" and "00" run to their budgets
    assert words[1:4:2] == [("0",), ("0", "0")]
    assert (want[1].steps, want[3].steps) == (40, 50)
    assert _batch(machine, words) == want
    assert _batch(machine, words[::-1]) == want[::-1]


def _fresh(machine, word, max_steps):
    """A fresh ``walk_to_end`` of ``word`` on the kernel's stepper, as its
    result."""
    stepper = KernelSteps(machine)
    return stepper.result(*walk_to_end(stepper, word, max_steps))


# lowered machines hold the head still for two of every three steps
_IMAGES = [compile_qcpda(random_qcpda(seed))[0] for seed in (0, 1)]


@pytest.mark.parametrize(
    "machine",
    [_scanner(_DWELLER), _scanner(_WAITER), *_IMAGES],
    ids=["dweller", "waiter", "image0", "image1"],
)
def test_run_batch_mixes_explicit_budgets(machine):
    # one shuffled batch holds every word at seven budgets: the start node
    # splits them by budget, every later node holds one, and a node's walk
    # up to its first head at the next position may end on that budget,
    # ending every group of the node with its result
    runs = [(w, budget) for w in words_up_to(4) for budget in (0, 1, 2, 3, 5, 8, 24)]
    random.Random(5).shuffle(runs)
    got = run_batch(KernelSteps(machine), [run_bounds(machine, w, b) for w, b in runs])
    assert got == [_fresh(machine, w, b) for w, b in runs]


@pytest.mark.parametrize(
    "machine, max_steps, steps",
    [(_scanner(_DWELLER), None, 439), (_scanner(_WAITER), None, 115), (_IMAGES[0], 24, 215)],
    ids=["dweller", "waiter", "image0"],
)
def test_run_batch_walks_a_nodes_lagging_steps_once(monkeypatch, machine, max_steps, steps):
    # a node whose heads all lie below the next position takes the steps
    # that bring one there once, whatever symbols its groups read next: the
    # dweller stays on position 1 until its budget runs out, the waiter
    # spends a second step on each 0, and an image's staging steps hold the
    # head still
    count = 0
    real = simulate.measure

    def counting(*args):
        nonlocal count
        count += 1
        return real(*args)

    words = words_up_to(4)
    want = [run(machine, w, max_steps) for w in words]
    monkeypatch.setattr(simulate, "measure", counting)
    assert _batch(machine, words, max_steps) == want
    assert count == steps


def test_run_batch_of_nothing_yields_nothing():
    assert run_batch(KernelSteps(problem1.build_machine()), []) == []


def test_run_batch_shares_every_common_prefix(monkeypatch):
    # problem1 heads all move right every step, so a batch steps each group
    # once per tape position; groups whose runs meet merge, so the batch
    # makes fewer steps than the tapes' prefix trie has nodes, root
    # excluded
    m = problem1.build_machine()
    words = [inst.tokens() for inst in problem1_instances(2)]
    tapes = [make_tape(m, word) for word in words]
    nodes = {tape[:i] for tape in tapes for i in range(1, len(tape) + 1)}
    steps = 0
    real = simulate.measure

    def counting(*args):
        nonlocal steps
        steps += 1
        return real(*args)

    monkeypatch.setattr(simulate, "measure", counting)
    results = _batch(m, words)
    assert len(results) == 1296
    assert steps == 373
    assert steps <= len(nodes) == 3127


def _reached_cells(points):
    cells = set()
    for entry in points:
        for conf in entry[0]:
            for cell in (conf.stack, conf.garbage):
                while cell.depth and cell not in cells:
                    cells.add(cell)
                    cell = cell.parent
    return cells


def _stacker() -> MachineQPAG:
    """Pushes each symbol it reads, then pushes x on the right endmarker
    without moving until its step budget runs out: each run ends holding
    cells of its own."""
    rows = [("<", EPSILON, 1)]
    rows += [(read, push(read), 1) for read in ("0", "1")]
    rows += [(">", push("x"), 0)]
    gamma = StackAlphabet(symbols=("Z", "0", "1", "x"), bottom="Z")
    return MachineQPAG(
        states=("s",),
        input_alphabet=InputAlphabet(
            symbols=("<", "0", "1", ">"), left_end="<", right_end=">"
        ),
        stack_alphabet=gamma,
        transitions=tuple(
            TransitionQPAG("s", read, top, "s", op, move, 1 + 0j)
            for read, op, move in rows
            for top in gamma.symbols
        ),
        initial="s",
        accepting=frozenset(),
        rejecting=frozenset(),
    )


def test_run_batch_cell_table_stays_bounded(monkeypatch):
    # words of each length end at their own layer, each holding cells no
    # other run reaches: without the rebuild the table would keep every
    # cell of every ended run. Between layers it holds at most twice the
    # cells a layer has reached
    m = _stacker()
    words = words_up_to(8)
    stepper = KernelSteps(m)
    peak = 0
    created = 0
    real = simulate._advance

    def spy(stepper, layer, *rest):
        nonlocal peak, created
        reached = _reached_cells(point for point, *_ in layer)
        assert reached <= set(stepper.table.values())
        peak = max(peak, len(reached))
        assert len(stepper.table) <= 2 * peak
        before = len(stepper.table)
        out = real(stepper, layer, *rest)
        created += len(stepper.table) - before
        return out

    monkeypatch.setattr(simulate, "_advance", spy)
    results = run_batch(stepper, [run_bounds(m, w, None) for w in words])
    assert results == [run(m, w) for w in words]
    assert created > 20 * peak


def test_run_batch_overflow_names_the_step(monkeypatch):
    m = TOTAL_MACHINES["splitter"]()
    tape = make_tape(m, "00")
    first = run(m, "0")
    # "0" holds at most 23 entries in a step; "00"'s step 4 starts from 8
    # keys and 15 cells and makes 16 keys, in a trajectory and in a run
    _cap_vectors(monkeypatch, 30)
    with pytest.raises(StateSpaceOverflow) as single:
        for _ in trajectory(m, tape, default_max_steps(2)):
            pass
    assert run(m, "0") == first
    with pytest.raises(StateSpaceOverflow) as fresh:
        run(m, "00")
    assert str(fresh.value) == str(single.value)
    assert str(fresh.value).endswith("at step 4")


def _garbage_successor(table, conf, t):
    """The configuration garbage-tape row ``t`` takes ``conf`` to: ``t``'s
    stack operation applies to the stack, and a popped symbol goes onto the
    garbage tape."""
    stack = apply_op(table, conf.stack, t.op)
    garbage = conf.garbage
    if t.op.kind == "pop":
        garbage = cons(table, garbage, conf.stack.symbol)
    return CellConfiguration(t.target, conf.head + t.move, stack, garbage)


def _multipass_step(machine, columns, succ, point, tape):
    """The kernel step as separate passes, kept as the oracle for
    ``KernelSteps.step``: a max over the heads, an expansion, a pruning
    copy, a measuring copy and a norm. ``columns`` is
    ``row_columns(machine)``. The step's truncated mass is the
    undefined-column mass plus the pruned mass, each summed on its own.
    Returns (checkpoint, largest head read, pruned mass)."""
    psi, acc, rej, parked, truncated = point[:5]
    read = max(conf[1] for conf in psi)
    n = len(tape)
    out = {}
    d_parked = 0.0
    undefined = 0.0
    for key, amp in psi.items():
        head = key[1]
        if head >= n:
            d_parked += abs(amp) ** 2
            continue
        column = columns.get((key[0], tape[head], key.stack.symbol))
        if column is None:
            undefined += abs(amp) ** 2
            continue
        for t in column:
            nxt = succ(key, t)
            out[nxt] = out.get(nxt, 0j) + amp * t.amp
    kept = {}
    d_pruned = 0.0
    for key, amp in out.items():
        if abs(amp) < PRUNE_THRESHOLD:
            d_pruned += abs(amp) ** 2
        else:
            kept[key] = amp
    d_acc = 0.0
    d_rej = 0.0
    rest = {}
    for conf, amp in kept.items():
        if conf.state in machine.accepting:
            d_acc += abs(amp) ** 2
        elif conf.state in machine.rejecting:
            d_rej += abs(amp) ** 2
        else:
            rest[conf] = amp
    d_truncated = undefined + d_pruned
    point = (
        rest,
        acc + d_acc,
        rej + d_rej,
        parked + d_parked,
        truncated + d_truncated,
        vector_norm_sq(rest),
        d_acc,
        d_rej,
        d_parked,
        d_truncated,
    )
    return point, read, d_pruned


def test_kernel_step_matches_multipass_oracle():
    # every checkpoint of the two-pass kernel, vector order included, is
    # the multi-pass oracle's with ==, and so is the head each step read.
    # Of these machines only halfstep prunes, on words of two or more
    # symbols, where its cancellations leave residues near 1e-17
    m = problem1.build_machine()
    cases = [
        (m, [problem1.generate(n, cls, seed=s).tokens() for s in range(3)], None)
        for n in (64, 128)
        for cls in (problem1.YES, problem1.NO)
    ]
    cases += [
        (compile_qcpda(random_qcpda(seed))[0], words_up_to(3), 30)
        for seed in range(20)
    ]
    cases += [(build(), words_up_to(3), None) for build in TOTAL_MACHINES.values()]
    pruned_steps = 0
    for machine, words, max_steps in cases:
        columns = row_columns(machine)
        for word in words:
            tape, budget = run_bounds(machine, word, max_steps)
            stepper = KernelSteps(machine)
            first = stepper.start()
            steps = list(simulate.walk(stepper, tape, first, 1, budget))
            succ = partial(_garbage_successor, stepper.table)
            point = first
            for i, kernel in steps:
                assert not point[5] < HALT_MASS
                read = max(stepper.heads(point))
                point, oracle_read, d_pruned = _multipass_step(
                    machine, columns, succ, point, tape
                )
                assert list(kernel[0].items()) == list(point[0].items()), (word, i)
                assert kernel[1:] == point[1:], (word, i)
                assert read == oracle_read, (word, i)
                pruned_steps += d_pruned > 0
            assert len(steps) == budget or point[5] < HALT_MASS, word
    assert pruned_steps > 0


def test_pop_on_bottom_raises_in_run_and_audit():
    # one row, (q0, <, Z) -> q0, pop, move 1: the first step pops Z
    m = MachineQPAG(
        states=("q0",),
        input_alphabet=InputAlphabet(("<", "0", ">"), "<", ">"),
        stack_alphabet=StackAlphabet(("Z",), "Z"),
        transitions=(TransitionQPAG("q0", "<", "Z", "q0", POP, 1, 1 + 0j),),
        initial="q0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )
    with pytest.raises(PopOnBottom, match="^pop on stack 'Z'$"):
        run(m, "0")
    with pytest.raises(PopOnBottom, match="^pop on stack 'Z'$"):
        audit_unitarity(m, "0")


def test_an_accepting_initial_state_is_measured_by_the_classical_runs_alone():
    # q accepts and its one row goes to r, which has no rows. The quantum
    # engines do not measure the start configuration: they step from q,
    # then lose the mass at r's undefined column. The classical runs book
    # all of it at checkpoint 0, with 0 steps
    fields = dict(
        states=("q", "r"),
        input_alphabet=InputAlphabet(("<", "a", ">"), "<", ">"),
        stack_alphabet=StackAlphabet(("Z",), "Z"),
        initial="q",
        accepting=frozenset({"q"}),
        rejecting=frozenset(),
    )
    qpag = MachineQPAG(
        transitions=(TransitionQPAG("q", "<", "Z", "r", EPSILON, 1, 1 + 0j),), **fields
    )
    qcpda = MachineQCPDA(
        transitions=(TransitionQCPDA("q", "<", "Z", "r", 1, 1 + 0j),),
        sigma=(("r", EPSILON),),
        **fields,
    )
    ppa = MachinePPA(
        transitions=(TransitionPPA("q", "<", "Z", "r", EPSILON, 1, 1.0),), **fields
    )
    image, _ = compile_qcpda(qcpda)
    lost = RunResult(p_acc=0.0, p_rej=0.0, p_non=0.0, truncation_loss=1.0, steps=2)
    assert run(qpag, "a") == lost
    assert run_qcpda(qcpda, "a") == lost
    # the image's step into r takes its two staging steps too
    assert run(image, "a") == replace(lost, steps=4)
    assert run_ppa(ppa, "a") == RunResult(
        p_acc=1.0, p_rej=0.0, p_non=0.0, truncation_loss=0.0, steps=0
    )
    assert run_dpda(ppa, "a") == ACCEPT
