"""Built-in recognizer for the two-way mirrored comparison language."""

import hashlib
import itertools
import math
import random
import tracemalloc
from qpag.model import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpag import model, problem1, simulate
from qpag.errors import InvariantError, LengthMismatch, MachineError, StateSpaceOverflow
from qpag.machinefile import emit_json
from qpag.model import (
    EPSILON,
    POP,
    InputAlphabet,
    MachineQPAG,
    StackAlphabet,
    TransitionQPAG,
    make_tape,
    push,
    run_bounds,
)
from qpag.simulate import KernelSteps, run, run_batch

from .corpus import mutants
from .generators import problem1_instances
from .reference import ref_classify


def test_even_distinct_basics():
    assert problem1.even_distinct("ab", "ab") is True  # zero mismatches
    assert problem1.even_distinct("ab", "ba") is True  # two mismatches
    assert problem1.even_distinct("ab", "ac") is False  # one mismatch
    assert problem1.even_distinct("", "") is True


def test_even_distinct_length_mismatch():
    with pytest.raises(LengthMismatch):
        problem1.even_distinct("ab", "a")


def test_instance_validation():
    with pytest.raises(LengthMismatch):
        problem1.Instance("ab", "a", "ab")
    with pytest.raises(InvariantError):
        problem1.Instance("", "", "")
    with pytest.raises(InvariantError):
        problem1.Instance("ad", "aa", "aa")  # d only allowed in the third block
    inst = problem1.Instance("ab", "ba", "cd")
    assert inst.word() == "ab#ba#cd"
    assert inst.n == 2


def test_sweep_refuses_a_size_or_sample_count_below_one():
    with pytest.raises(InvariantError, match="^n must be at least 1$"):
        problem1.sweep(0)
    with pytest.raises(InvariantError, match="^sample count must be positive$"):
        problem1.sweep(1, samples=0)


@settings(max_examples=120, deadline=None)
@given(
    w1=st.text(alphabet="abc", min_size=1, max_size=4),
    data=st.data(),
)
def test_classify_matches_reference(w1, data):
    n = len(w1)
    w2 = data.draw(st.text(alphabet="abc", min_size=n, max_size=n))
    w3 = data.draw(st.text(alphabet="abcd", min_size=n, max_size=n))
    inst = problem1.Instance(w1, w2, w3)
    assert problem1.classify(inst) == ref_classify(w1, w2, w3)


def test_classify_every_instance_has_an_answer():
    for w1, w2, w3 in itertools.product(
        ("a", "b", "c"), ("a", "b", "c"), ("a", "b", "c", "d")
    ):
        assert problem1.classify(problem1.Instance(w1, w2, w3)) in ("yes", "no")


def test_machine_shape():
    m = problem1.build_machine()
    assert len(m.states) == 13
    assert len(m.transitions) == 135
    assert m.initial == "q0"
    assert m.accepting == frozenset({"qf_acc"})
    assert m.rejecting == frozenset({"qf_rej"})
    assert m.input_alphabet.symbols == ("<", "a", "b", "c", "d", "#", ">")
    assert m.stack_alphabet.symbols == ("Z", "a", "b", "c")


def test_machine_stage_one_pushes():
    m = problem1.build_machine()
    rows = [t for t in m.transitions if t.source == "q0" and t.read == "a"]
    assert rows
    assert all(t.op == push("a") for t in rows)
    assert all(t.target == "q0" and t.move == 1 for t in rows)


def test_machine_comparison_pops():
    # scanning back: mismatched symbol flips the parity state, match keeps it
    m = problem1.build_machine()
    row = next(
        t
        for t in m.transitions
        if t.source == "q2_O0" and t.read == "d" and t.top == "a"
    )
    assert row.target == "q2_O1"
    assert row.op == POP
    assert row.move == 1
    same = next(
        t
        for t in m.transitions
        if t.source == "q2_O0" and t.read == "a" and t.top == "a"
    )
    assert same.target == "q2_O0"


def test_machine_final_mix_signs():
    m = problem1.build_machine()
    finals = ("qf_n0", "qf_acc", "qf_n1", "qf_rej")
    signs = {}
    for src in ("q1_O0", "q1_O1", "q2_O0", "q2_O1"):
        rows = {t.target: t.amp for t in m.transitions if t.source == src and t.read == ">"}
        assert set(rows) == set(finals)
        signs[src] = tuple(1 if rows[f].real > 0 else -1 for f in finals)
        assert all(abs(abs(rows[f]) - 0.5) < 1e-15 for f in finals)
    assert signs["q1_O0"] == (1, 1, 1, 1)
    assert signs["q1_O1"] == (1, -1, 1, -1)
    assert signs["q2_O0"] == (-1, -1, 1, 1)
    assert signs["q2_O1"] == (-1, 1, 1, -1)


@pytest.mark.parametrize(
    "w1,w2,w3",
    [
        ("a", "a", "b"),  # first pair even (0 mismatches), second odd
        ("a", "b", "a"),  # first odd, second even
        ("a", "a", "a"),  # both even
        ("a", "b", "c"),  # both odd
        ("ab", "ba", "cd"),
        ("abc", "cba", "abd"),
        ("ca", "ac", "dd"),
    ],
)
def test_run_probabilities_exact(w1, w2, w3):
    inst = problem1.Instance(w1, w2, w3)
    res = run(problem1.build_machine(), inst.word())
    if problem1.classify(inst) == "yes":
        assert res.p_acc == 1.0 and res.p_rej == 0.0
    else:
        assert res.p_rej == 1.0 and res.p_acc == 0.0
    assert res.p_non == 0.0 and res.truncation_loss == 0.0
    assert res.steps == 3 * inst.n + 4


def test_expected_amplitudes_closed_form():
    inst = problem1.Instance("ab", "ba", "cd")
    acc, rej = problem1.expected_amplitudes(inst)
    # both pairs even-distinct here: everything lands on reject
    assert acc == 0 and rej in (1, -1)
    odd = problem1.Instance("a", "b", "a")
    acc2, rej2 = problem1.expected_amplitudes(odd)
    assert abs(acc2) == 1 and rej2 == 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_amplitudes_match_probabilities(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    w1 = data.draw(st.text(alphabet="abc", min_size=n, max_size=n))
    w2 = data.draw(st.text(alphabet="abc", min_size=n, max_size=n))
    w3 = data.draw(st.text(alphabet="abcd", min_size=n, max_size=n))
    inst = problem1.Instance(w1, w2, w3)
    acc, rej = problem1.expected_amplitudes(inst)
    res = run(problem1.build_machine(), inst.word())
    assert res.p_acc == pytest.approx(abs(acc) ** 2, abs=1e-12)
    assert res.p_rej == pytest.approx(abs(rej) ** 2, abs=1e-12)


def test_generate_is_deterministic_and_classified():
    a = problem1.generate(3, "yes", seed=7)
    b = problem1.generate(3, "yes", seed=7)
    assert a == b
    assert problem1.classify(a) == "yes"
    c = problem1.generate(3, "no", seed=7)
    assert problem1.classify(c) == "no"
    assert problem1.generate(3, "yes", seed=8) != a


@pytest.mark.parametrize(
    "n, cls, seed, want",
    [
        (1, "yes", 0, ("b", "b", "a")),
        (2, "no", 1, ("cc", "aa", "bb")),
        (3, "yes", 7, ("bbc", "abc", "cab")),
        (4, "yes", 123, ("baca", "caab", "cddb")),
        (5, "no", 42, ("acccb", "bcbcc", "cbdcd")),
    ],
)
def test_generate_draws_stay_pinned(n, cls, seed, want):
    # the seeded draws w1, w2, w3 are part of the CLI's output
    assert problem1.generate(n, cls, seed) == problem1.Instance(*want)


def test_generate_rejects_bad_args():
    with pytest.raises(InvariantError):
        problem1.generate(0, "yes", seed=1)
    with pytest.raises(InvariantError):
        problem1.generate(2, "maybe", seed=1)


def test_sweep_exhaustive_small():
    rep = problem1.sweep(1)
    assert rep.mode == "exhaustive"
    assert rep.checked == 36
    assert rep.failures == ()
    assert rep.max_deviation == 0.0


def test_sweep_sampled():
    rep = problem1.sweep(5, samples=25, seed=3)
    assert rep.mode == "sample"
    assert rep.checked == 25
    assert rep.failures == ()
    rep2 = problem1.sweep(5, samples=25, seed=3)
    assert rep2.max_deviation == rep.max_deviation


def test_sweep_exhaustive_n4_is_exact():
    # no instance cap: n = 4 runs as layers of counted grader states
    rep = problem1.sweep(4)
    assert (rep.checked, rep.failures, rep.max_deviation) == (36**4, (), 0.0)


def test_sweep_refuses_a_failure_list_past_the_cap(monkeypatch):
    # this mutant fails on 630 of the 1,296 instances at n = 2
    broken = {mu.name: mu.machine for mu in mutants()}["flip-q1_O0-qf_acc"]
    monkeypatch.setattr(problem1, "FAILURE_CAP", 629)
    with pytest.raises(MachineError, match="fails on 630 instances; at most 629 are listed"):
        problem1.sweep(2, machine=broken)
    monkeypatch.setattr(problem1, "FAILURE_CAP", 630)
    assert len(problem1.sweep(2, machine=broken).failures) == 630


def test_sweep_layer_past_the_entry_budget_overflows(monkeypatch):
    # at n = 3 a fresh run trips only below 14 entries, but the nodes of
    # the layer past position 9 (the first w3 symbol) hold 16 together
    want = problem1.sweep(3)
    monkeypatch.setattr(model, "ENTRY_BUDGET", 15)
    assert problem1.sweep(3, samples=200).failures == ()
    with pytest.raises(StateSpaceOverflow, match="^live entries exceeded 15 at tape position 9$"):
        problem1.sweep(3)
    monkeypatch.setattr(model, "ENTRY_BUDGET", 16)
    assert problem1.sweep(3) == want


# sha256 over emit_json(report.to_json_dict(), floats="repr") of every
# exhaustive report at n = 1, 2, 3, the built-in machine first, then each
# mutant in corpus order; failure lists included. Taken from per-word
# batches before the sweep ran on grader-state counts, then again when the
# reports gained their "seed" key: without it they hash to b543cd53...
_EXHAUSTIVE_REPORTS_SHA256 = "c3d928f20010ddca826512001a0c9777e2c231bfc53a29349305d9ba21e615a5"


def test_exhaustive_reports_hash_as_pinned():
    digest = hashlib.sha256()
    machines = [problem1.build_machine()] + [mu.machine for mu in mutants()]
    assert len(machines) == 23
    for m in machines:
        for n in (1, 2, 3):
            digest.update(emit_json(problem1.sweep(n, machine=m).to_json_dict(), floats="repr").encode())
    assert digest.hexdigest() == _EXHAUSTIVE_REPORTS_SHA256


def test_asymmetric_sweep_memory_stays_small():
    # scale-split-b treats b unlike a and c, so its sweep expands every w1;
    # it fails on 15,552 instances at n = 3, and their failure list is
    # most of what the sweep holds at its peak. Measured with tracemalloc
    # on CPython 3.11: 6.0 MB, where a sweep holding a word list per
    # candidate peaked at 22.2 MB
    broken = {mu.name: mu.machine for mu in mutants()}["scale-split-b"]
    problem1.sweep(1, machine=broken)  # caches the reduction verdict
    tracemalloc.start()
    try:
        rep = problem1.sweep(3, machine=broken)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.failures) == 15552
    assert peak < 12 * 2**20


def test_sweep_flags_a_wrong_machine():
    from tests.corpus import mutants

    by_name = {m.name: m for m in mutants()}
    broken = by_name["flip-q1_O0-qf_acc"].machine
    rep = problem1.sweep(1, machine=broken)
    assert rep.failures
    assert not rep.to_json_dict()["failures"] == []


def test_sweep_report_json_keys():
    rep = problem1.sweep(1)
    doc = rep.to_json_dict()
    assert set(doc) == {"n", "mode", "seed", "checked", "failures", "max_deviation"}


def test_sampled_reports_differ_by_their_seed():
    # two sample streams with no failure give the same counts and deviation;
    # the report still says which stream it checked
    reports = [problem1.sweep(4, samples=20, seed=seed) for seed in (0, 1)]
    assert [rep.seed for rep in reports] == [0, 1]
    assert not reports[0].failures and not reports[1].failures
    assert reports[0] != reports[1]
    assert reports[0] == replace(reports[1], seed=0)


def _per_instance_report(n, machine, tol=1e-9):
    """The exhaustive report with every instance run on its own."""
    insts = list(problem1_instances(n))
    results = [run(machine, i.tokens()) for i in insts]
    return _report(n, "exhaustive", None, insts, results, tol)


def _per_sample_report(n, samples, seed, machine, tol=1e-9):
    """The sampled report with each instance of the sweep's ``_draw``
    stream run on its own, in draw order."""
    rng = random.Random(f"sweep|{n}|{seed}")
    insts = [problem1._draw(rng, n) for _ in range(samples)]
    return _report(n, "sample", seed, insts, (run(machine, i.word()) for i in insts), tol)


def _report(n, mode, seed, insts, results, tol):
    failures = []
    max_dev = 0.0
    for inst, res in zip(insts, results):
        expected = ref_classify(inst.w1, inst.w2, inst.w3)
        dev = abs(1 - (res.p_acc if expected == problem1.YES else res.p_rej))
        max_dev = max(max_dev, dev)
        if dev > tol:
            failures.append(
                problem1.SweepFailure(
                    word=inst.word(),
                    expected=expected,
                    p_acc=res.p_acc,
                    p_rej=res.p_rej,
                    deviation=dev,
                )
            )
    return problem1.SweepReport(
        n=n,
        mode=mode,
        seed=seed,
        checked=len(insts),
        failures=tuple(failures),
        max_deviation=max_dev,
    )


def _relabel(inst, perm):
    table = str.maketrans("abc", "".join(perm))
    return problem1.Instance(*(w.translate(table) for w in (inst.w1, inst.w2, inst.w3)))


def _scaled_push_b():
    """The built-in machine with one push(b) row's amplitude changed, so
    b is no longer treated like a and c."""
    m = problem1.build_machine()
    rows = tuple(
        replace(t, amp=0.6 + 0j) if (t.source, t.read, t.top) == ("q0", "b", "Z") else t
        for t in m.transitions
    )
    return replace(m, transitions=rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sweep_equals_per_instance_report(n):
    assert problem1.sweep(n) == _per_instance_report(n, problem1.build_machine())


@pytest.mark.parametrize("mutant", mutants(), ids=lambda mu: mu.name)
def test_sweep_equals_per_instance_report_on_mutants(mutant):
    for n in (1, 2):
        assert problem1.sweep(n, machine=mutant.machine) == _per_instance_report(n, mutant.machine)


@pytest.mark.parametrize("machine", ["builtin", "flip-q1_O0-qf_acc"])
@pytest.mark.parametrize("n", [4, 5])
def test_sweep_sampled_equals_per_instance_report(n, machine):
    m = problem1.build_machine() if machine == "builtin" else {mu.name: mu.machine for mu in mutants()}[machine]
    for seed in (0, 1, 2):
        rep = problem1.sweep(n, samples=50, seed=seed, machine=m)
        assert rep == _per_sample_report(n, 50, seed, m)
        assert rep.failures if machine != "builtin" else not rep.failures


def _row_reversed():
    """The built-in machine with its rows listed in reverse: its column
    index, and so every run, is the built-in machine's, but the machine is
    not equal to it."""
    m = problem1.build_machine()
    return replace(m, transitions=m.transitions[::-1])


def test_reduction_verdicts():
    # only the built-in machine is swept over w1 = a^n alone
    assert problem1._reduced(problem1.build_machine())
    assert not problem1._reduced(_row_reversed())
    verdicts = {mu.name: problem1._reduced(mu.machine) for mu in mutants()}
    assert len(verdicts) == 22
    assert not any(verdicts.values())


def test_default_sweep_builds_the_machine_once(monkeypatch):
    # the default machine is the built-in one, so it is not compared with a
    # second build
    built = []
    real = problem1.build_machine
    monkeypatch.setattr(problem1, "build_machine", lambda: built.append(1) or real())
    assert problem1.sweep(2).checked == 36**2
    assert built == [1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reduced_sweep_equals_the_sweep_of_every_w1(n):
    # the row-reversed copy runs as the built-in machine does, but it is
    # swept over every w1
    m = _row_reversed()
    assert m.columns == problem1.build_machine().columns
    assert problem1.sweep(n) == problem1.sweep(n, machine=m)


def test_reduced_sweep_that_fails_sweeps_every_w1(monkeypatch):
    # were scale-split-a taken for reducible, its reduced sweep would meet a
    # failing final state (its changed row reads top a, which w1 = a^n
    # leaves at the first #) and sweep every w1 instead, so its failures
    # are still listed per instance
    broken = {mu.name: mu.machine for mu in mutants()}["scale-split-a"]
    monkeypatch.setattr(problem1, "_reduced", lambda m: m is broken)
    calls = []
    real = problem1._sweep_exhaustive

    def spy(machine, n, tol, reduced):
        calls.append(reduced)
        return real(machine, n, tol, reduced)

    monkeypatch.setattr(problem1, "_sweep_exhaustive", spy)
    for n in (1, 2):
        assert problem1.sweep(n, machine=broken) == _per_instance_report(n, broken)
    assert calls == [True, False, True, False]


@pytest.mark.parametrize("mutant", mutants(), ids=lambda mu: mu.name)
def test_run_batch_equals_run_on_mutants(mutant):
    m = mutant.machine
    words = [
        inst.tokens()
        for n in (1, 2)
        for inst in problem1_instances(n)
    ]
    got = run_batch(KernelSteps(m), [run_bounds(m, w, None) for w in words])
    assert got == [run(m, w) for w in words]


def test_sweep_of_an_asymmetric_copy_runs_per_instance():
    m = _scaled_push_b()
    for n in (1, 2):
        rep = problem1.sweep(n, machine=m)
        assert rep.failures
        assert rep == _per_instance_report(n, m)


def _rerouted(pick, target, move):
    """The built-in machine with every row ``pick(row)`` holds sent to
    ``target`` with an epsilon stack operation, head move ``move`` and
    amplitude 1, duplicates dropped."""
    rows = []
    for t in problem1.build_machine().transitions:
        if pick(t):
            t = replace(t, target=target, op=EPSILON, move=move, amp=1 + 0j)
        if t not in rows:
            rows.append(t)
    return replace(problem1.build_machine(), transitions=tuple(rows))


_ENDS_EARLY = {
    # every run halts in the accepting state at the first separator, so
    # the no-instances fail; the copy still treats a, b, c alike
    "accept-at-hash": lambda: _rerouted(lambda t: (t.source, t.read) == ("q0", "#"), "qf_acc", 1),
    # a c in w1 rejects at once
    "reject-c": lambda: _rerouted(lambda t: (t.source, t.read) == ("q0", "c"), "qf_rej", 1),
    # a b in w1 stands still until the step budget runs out
    "stall-b": lambda: _rerouted(lambda t: (t.source, t.read) == ("q0", "b"), "q0", 0),
}


@pytest.mark.parametrize("name", sorted(_ENDS_EARLY))
def test_sweep_folds_runs_that_end_early(name, monkeypatch):
    # groups whose runs end before the right endmarker fold their grader
    # counts through the positions left with no kernel step, and their
    # failures are listed by reading on from each state
    m = _ENDS_EARLY[name]()
    early = []
    real = problem1._Grader.fold

    def spy(grader, k, members):
        early.append(k + 1 < len(grader.layout))
        return real(grader, k, members)

    monkeypatch.setattr(problem1._Grader, "fold", spy)
    for n in (1, 2):
        rep = problem1.sweep(n, machine=m)
        assert rep.failures
        assert rep == _per_instance_report(n, m)
    assert any(early)


def test_sweep_lists_the_failures_of_merged_w1_prefixes():
    # a machine that reads two letters without a stack and accepts on the
    # second: its w1 prefixes "aa" and "ab" reach one node, whose run is
    # found ended at the third letter, where only "ab" may go on with c;
    # walking that failing group back must keep to the states that read c
    rows = [TransitionQPAG("s0", "<", "Z", "s1", EPSILON, 1, 1 + 0j)]
    for src, tgt in (("s1", "s2"), ("s2", "acc")):
        rows += [TransitionQPAG(src, x, "Z", tgt, EPSILON, 1, 1 + 0j) for x in "abc"]
    m = MachineQPAG(
        states=("s0", "s1", "s2", "acc", "rej"),
        input_alphabet=InputAlphabet(
            symbols=("<", "a", "b", "c", "d", "#", ">"), left_end="<", right_end=">"
        ),
        stack_alphabet=StackAlphabet(symbols=("Z",), bottom="Z"),
        transitions=tuple(rows),
        initial="s0",
        accepting=frozenset({"acc"}),
        rejecting=frozenset({"rej"}),
    )
    rep = problem1.sweep(3, machine=m)
    assert len(rep.failures) == 23436
    assert rep == _per_instance_report(3, m)


def test_sweep_measures_once_per_reduced_trie_node(monkeypatch):
    # the built-in machine's sweep expands only w1 = "aa", with every w2 and
    # w3 after it, in one batch: a group steps once per tape position, so
    # the batch makes at most one step per node of their tapes' prefix
    # trie, root excluded, and groups whose runs meet merge
    m = problem1.build_machine()
    reduced = [inst for inst in problem1_instances(2) if inst.w1 == "aa"]
    tapes = [make_tape(m, inst.tokens()) for inst in reduced]
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
    assert len(reduced) == 144
    assert steps == 43
    assert steps <= len(nodes) == 349


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_relabelled_instances_run_alike(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    w1 = data.draw(st.text(alphabet="abc", min_size=n, max_size=n))
    w2 = data.draw(st.text(alphabet="abc", min_size=n, max_size=n))
    w3 = data.draw(st.text(alphabet="abcd", min_size=n, max_size=n))
    inst = problem1.Instance(w1, w2, w3)
    m = problem1.build_machine()
    want = run(m, inst.word())
    for perm in itertools.permutations("abc"):
        other = _relabel(inst, perm)
        assert run(m, other.word()) == want
        assert problem1.classify(other) == problem1.classify(inst)
    # one relabelling per position, as the reduced sweep assumes: position
    # i's applies to w1[i], w2[n-1-i] and w3[n-1-i], and d stays fixed
    tables = [dict(zip("abc", perm)) for perm in data.draw(st.lists(st.permutations("abc"), min_size=n, max_size=n))]
    other = problem1.Instance(
        "".join(tables[i][x] for i, x in enumerate(w1)),
        "".join(tables[n - 1 - j][x] for j, x in enumerate(w2)),
        "".join(tables[n - 1 - j].get(x, x) for j, x in enumerate(w3)),
    )
    assert run(m, other.word()) == want
    assert problem1.classify(other) == problem1.classify(inst)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -math.inf, math.inf])
def test_sweep_rejects_a_bad_tolerance(tol):
    broken = {mu.name: mu.machine for mu in mutants()}["flip-q1_O0-qf_acc"]
    with pytest.raises(InvariantError):
        problem1.sweep(1, tol=tol, machine=broken)
    with pytest.raises(InvariantError):
        problem1.sweep(1, samples=3, tol=tol, machine=broken)
