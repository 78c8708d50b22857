"""Built-in recognizer for the two-way mirrored comparison language."""

import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpag import problem1, simulate
from qpag.errors import InvariantError, LengthMismatch
from qpag.model import POP, make_tape, push, run_bounds
from qpag.simulate import KernelSteps, run, run_batch, run_many

from .corpus import mutants
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


def test_sweep_exhaustive_cap():
    with pytest.raises(InvariantError):
        problem1.sweep(4)  # 36^4 > 10^6


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
    assert set(doc) == {"n", "mode", "checked", "failures", "max_deviation"}


def _per_instance_report(n, machine, tol=1e-9):
    """The exhaustive report with every instance run on its own."""
    insts = list(problem1._instances_exhaustive(n))
    results = run_many(machine, (i.tokens() for i in insts))
    return _report(n, "exhaustive", insts, results, tol)


def _per_sample_report(n, samples, seed, machine, tol=1e-9):
    """The sampled report with each instance of the sweep's ``_draw``
    stream run on its own, in draw order."""
    rng = random.Random(f"sweep|{n}|{seed}")
    insts = [problem1._draw(rng, n) for _ in range(samples)]
    return _report(n, "sample", insts, (run(machine, i.word()) for i in insts), tol)


def _report(n, mode, insts, results, tol):
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


def test_symmetry_check():
    assert problem1._symmetric(problem1.build_machine())
    assert not problem1._symmetric(_scaled_push_b())
    by_name = {mu.name: mu.machine for mu in mutants()}
    # a changed row on fixed symbols keeps the symmetry; one on b breaks it
    assert problem1._symmetric(by_name["flip-q1_O0-qf_acc"])
    assert not problem1._symmetric(by_name["scale-split-b"])


def test_symmetry_verdicts_on_mutants():
    # the changed rows of these read only fixed symbols
    symmetric = {
        "scale-split-Z",
        "dup-start",
        "dup-hash",
        "flip-q1_O0-qf_n0",
        "flip-q1_O0-qf_acc",
        "flip-q1_O1-qf_n1",
        "flip-q1_O1-qf_rej",
        "flip-q2_O0-qf_n0",
        "flip-q2_O0-qf_acc",
        "flip-q2_O1-qf_n1",
        "flip-q2_O1-qf_rej",
    }
    verdicts = {mu.name: problem1._symmetric(mu.machine) for mu in mutants()}
    assert len(verdicts) == 22
    assert {name for name, ok in verdicts.items() if ok} == symmetric


def test_symmetry_is_checked_once_per_machine(monkeypatch):
    checked = []
    real = problem1._relabelling_invariant

    def spy(machine):
        checked.append(machine)
        return real(machine)

    monkeypatch.setattr(problem1, "_relabelling_invariant", spy)
    m = problem1.build_machine()
    first = problem1.sweep(1, machine=m)
    assert problem1.sweep(1, machine=m) == first
    problem1.sweep(2, machine=m)
    assert len(checked) == 1 and checked[0] is m
    # another machine, even an equal one, is checked on its own
    problem1.sweep(1, machine=problem1.build_machine())
    assert len(checked) == 2


@pytest.mark.parametrize("mutant", mutants(), ids=lambda mu: mu.name)
def test_run_many_equals_run_on_mutants(mutant):
    m = mutant.machine
    words = [
        inst.tokens()
        for n in (1, 2)
        for inst in problem1._instances_exhaustive(n)
    ]
    got = run_batch(KernelSteps(m), [run_bounds(m, w, None) for w in words])
    assert got == [run(m, w) for w in words]


def test_sweep_of_an_asymmetric_copy_runs_per_instance():
    m = _scaled_push_b()
    for n in (1, 2):
        rep = problem1.sweep(n, machine=m)
        assert rep.failures
        assert rep == _per_instance_report(n, m)


def test_representatives_cover_each_orbit_once():
    for n, count in ((1, 7), (2, 218), (3, 7780)):
        reps = [(problem1._instance(tokens), size) for tokens, _, _, size in problem1._representatives(n)]
        assert len(reps) == count
        order = {inst: i for i, inst in enumerate(problem1._instances_exhaustive(n))}
        assert [order[inst] for inst, _ in reps] == sorted(order[inst] for inst, _ in reps)
        covered = set()
        for inst, size in reps:
            orbit = problem1._orbit(inst)
            assert len(orbit) == size and orbit[0] == inst
            assert covered.isdisjoint(orbit)
            covered.update(orbit)
        assert covered == set(order)


@pytest.mark.parametrize("n, count", [(1, 7), (2, 218), (3, 7780), (4, 279944)])
def test_representative_counts(n, count):
    sizes = [size for _, _, _, size in problem1._representatives(n)]
    assert len(sizes) == count
    assert sum(sizes) == 36**n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_representatives_carry_their_tokens_and_parities(n):
    for tokens, odd1, odd2, _ in problem1._representatives(n):
        inst = problem1._instance(tokens)
        assert inst.tokens() == tokens
        assert (odd1, odd2) == (
            int(not problem1.even_distinct(inst.w1, inst.w2[::-1])),
            int(not problem1.even_distinct(inst.w1, inst.w3[::-1])),
        )
        assert problem1._class_of(odd1, odd2) == problem1.classify(inst) == ref_classify(inst.w1, inst.w2, inst.w3)


def test_sweep_measures_once_per_representative_trie_node(monkeypatch):
    # the sweep runs one representative per orbit, in one batch: a group
    # steps once per tape position, so the batch makes at most one step per
    # node of their tapes' prefix trie, root excluded, and groups whose
    # runs meet merge
    m = problem1.build_machine()
    tapes = [make_tape(m, tokens) for tokens, _, _, _ in problem1._representatives(2)]
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
    assert steps == 82
    assert steps <= len(nodes) == 530


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


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -math.inf])
def test_sweep_rejects_a_bad_tolerance(tol):
    broken = {mu.name: mu.machine for mu in mutants()}["flip-q1_O0-qf_acc"]
    with pytest.raises(InvariantError):
        problem1.sweep(1, tol=tol, machine=broken)
    with pytest.raises(InvariantError):
        problem1.sweep(1, samples=3, tol=tol, machine=broken)
