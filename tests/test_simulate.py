"""Vector engine: conservation, closed forms, trace output, caps, and
prefix-shared batches."""

import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpag import problem1, simulate
from qpag.compiler import compile_qcpda
from qpag.errors import PopOnBottom, StateSpaceOverflow, UnknownSymbol, EndmarkerInWord
from qpag.model import EPSILON, POP, Configuration, default_max_steps, make_tape, push
from qpag.simulate import (
    EMPTY,
    KernelSteps,
    PrefixRuns,
    cons,
    run,
    run_many,
    stack_after,
    trajectory,
)

from .corpus import TOTAL_MACHINES
from .generators import random_qcpda, words_up_to
from .reference import ref_run_qpag


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


def test_stack_after():
    table: dict = {}
    bottom = cons(table, EMPTY, "Z")
    stack = cons(table, bottom, "a")
    assert stack_after(table, stack, EPSILON) is stack
    assert stack_after(table, stack, POP) is bottom
    pushed = stack_after(table, stack, push("b", "c"))
    assert pushed.tokens() == ("Z", "a", "b", "c")
    assert pushed is cons(table, cons(table, stack, "b"), "c")
    with pytest.raises(PopOnBottom):
        stack_after(table, bottom, POP)


def test_trace_depth_caps_entries():
    res = run(TOTAL_MACHINES["splitter"](), "0000", trace_depth=3)
    assert res.trace
    assert all(len(s.survivors) <= 3 for s in res.trace)


def _cap_vectors(monkeypatch, cap):
    monkeypatch.setattr(simulate, "CONFIG_CAP", cap)


def test_config_cap_overflow(monkeypatch):
    m = TOTAL_MACHINES["splitter"]()
    tape = make_tape(m, "000000")
    _cap_vectors(monkeypatch, 8)
    with pytest.raises(StateSpaceOverflow):
        for _ in trajectory(m, tape, max_steps=20):
            pass


def test_config_cap_trips_during_accumulation(monkeypatch):
    # the cap must stop a step while its vector grows, not after the whole
    # step has been built: count the successors the failing step computed
    m = TOTAL_MACHINES["splitter"]()
    tape = make_tape(m, "000000")
    calls = 0
    real = simulate.successor

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(simulate, "successor", counting)
    per_step = []
    for _ in trajectory(m, tape, max_steps=20):
        per_step.append(calls - sum(per_step))
    calls = 0
    _cap_vectors(monkeypatch, 8)
    with pytest.raises(StateSpaceOverflow, match=r"at step \d+$") as info:
        for _ in trajectory(m, tape, max_steps=20):
            pass
    step = int(re.search(r"at step (\d+)$", str(info.value)).group(1))
    in_failing_step = calls - sum(per_step[: step - 1])
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


def test_phase_preserved_in_trace():
    res = run(TOTAL_MACHINES["phase1"](), "0", trace_depth=2)
    amps = [a for s in res.trace for _, a in s.survivors]
    assert any(abs(a.imag) > 1e-12 for a in amps)


# ----------------------------------------------------------------------
# run_many: prefix-shared batches
# ----------------------------------------------------------------------


def test_run_many_equals_run_on_problem1_up_to_n2():
    m = problem1.build_machine()
    words = [
        inst.tokens()
        for n in (1, 2)
        for inst in problem1._instances_exhaustive(n)
    ]
    assert len(words) == 1332
    assert list(run_many(m, words)) == [run(m, w) for w in words]


def test_run_many_equals_run_on_compiled_images():
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
                got = list(run_many(image, order, max_steps=budget))
                assert got == [single[w] for w in order], (seed, budget)


def test_run_many_of_nothing_yields_nothing():
    assert list(run_many(problem1.build_machine(), [])) == []
    assert list(run_many(problem1.build_machine(), iter(()))) == []


def test_run_many_shares_every_common_prefix(monkeypatch):
    # problem1 heads all move right every step, so the shared run makes
    # one step per node of the tapes' prefix trie, root excluded
    m = problem1.build_machine()
    tapes = [make_tape(m, inst.tokens()) for inst in problem1._instances_exhaustive(2)]
    nodes = {tape[:i] for tape in tapes for i in range(1, len(tape) + 1)}
    steps = 0
    real = simulate.measure

    def counting(*args):
        nonlocal steps
        steps += 1
        return real(*args)

    monkeypatch.setattr(simulate, "measure", counting)
    report = problem1.sweep(2, machine=m)
    assert report.checked == 1296 and not report.failures
    assert steps == len(nodes) == 3127


def _reached_cells(path):
    cells = set()
    for entry in path:
        for conf in entry[0]:
            for cell in (conf.stack, conf.garbage):
                while cell.depth and cell not in cells:
                    cells.add(cell)
                    cell = cell.parent
    return cells


def test_run_many_cell_table_stays_bounded():
    # distinct n = 16 words share little: without the rebuild the table
    # would keep every cell of every run
    m = problem1.build_machine()
    rng = random.Random(4)
    words = {
        problem1.generate(16, rng.choice((problem1.YES, problem1.NO)), seed=s).word()
        for s in range(1100)
    }
    assert len(words) >= 1000
    runs = PrefixRuns(KernelSteps(m))
    peak = 0
    created = 0
    for i, w in enumerate(sorted(words)):
        before = set(runs.table.values())
        result = runs.run(w)
        after = set(runs.table.values())
        created += len(after - before)
        if i % 97 == 0:
            assert result == run(m, w)
        reached = _reached_cells(runs.path)
        assert reached <= after
        peak = max(peak, len(reached))
        assert len(runs.table) <= 2 * peak
    assert created > 20 * peak


def test_prefix_runs_keep_at_most_cap_entries(monkeypatch):
    # mixstep dwells on cell 0 for its whole run, so every step could serve
    # a later word; the kept vectors together hold at most CONFIG_CAP keys
    m = TOTAL_MACHINES["mixstep"]()
    words = ("0101", "0110", "0101", "1")
    expected = [run(m, w) for w in words]
    monkeypatch.setattr(simulate, "CONFIG_CAP", 10)
    runs = PrefixRuns(KernelSteps(m))
    for word, result in zip(words, expected):
        assert runs.run(word) == result
        assert runs.held[-1] == sum(len(point[0]) for point in runs.path) <= 10
        assert len(runs.path) < result.steps


def test_run_many_overflow_names_the_step(monkeypatch):
    m = TOTAL_MACHINES["splitter"]()
    tape = make_tape(m, "00")
    first = run(m, "0")
    _cap_vectors(monkeypatch, 8)
    with pytest.raises(StateSpaceOverflow) as single:
        for _ in trajectory(m, tape, default_max_steps(2)):
            pass
    results = run_many(m, ["0", "00"])
    assert next(results) == first
    with pytest.raises(StateSpaceOverflow) as batch:
        next(results)
    assert str(batch.value) == str(single.value)
    assert str(batch.value).endswith("at step 4")


def test_run_many_rejects_a_bad_word_after_the_good_ones():
    m = problem1.build_machine()
    words = iter(["a#a#a", "ab#ba#ab", "a#z#a", "b#b#b"])
    results = run_many(m, words)
    assert next(results) == run(m, "a#a#a")
    assert next(results) == run(m, "ab#ba#ab")
    with pytest.raises(UnknownSymbol):
        next(results)
    # words are read one at a time, as results are taken
    assert list(words) == ["b#b#b"]
