"""Lowering scheduled-stack machines onto the garbage-tape model."""

import hashlib
import random

import pytest

from qpag import compiler
from qpag.branching import BranchSteps
from qpag.compiler import IMAGE_STEPS, ImageSteps, compile_qcpda, equiv_check
from qpag.errors import NonWellFormedInput
from qpag.machinefile import emit_json, serialize_machine
from qpag.model import (
    EPSILON,
    POP,
    InputAlphabet,
    MachineQCPDA,
    MachineQPAG,
    StackAlphabet,
    TransitionQCPDA,
    TransitionQPAG,
    make_tape,
    push,
    run_bounds,
)
from qpag.simulate import run, trajectory
from qpag.wellformed import check_qpag

from .generators import random_qcpda, words_up_to
from .test_branching import H, forking_walker, halting_walker, push_pop_walker


def test_image_is_well_formed():
    for build in (halting_walker, push_pop_walker, forking_walker):
        image, _ = compile_qcpda(build())
        rep = check_qpag(image, mode="partial")
        assert rep.passed, (build.__name__, rep.violations)


def test_transition_count_formula():
    m = halting_walker()
    image, cmap = compile_qcpda(m)
    reached = {t.target for t in m.transitions if not m.is_halting(t.target)}
    per_target = len(m.input_alphabet.symbols) * (len(m.stack_alphabet.symbols) + 1)
    want = len(m.transitions) + len(reached) * per_target
    assert cmap.image_transitions == want
    assert len(image.transitions) == want
    assert cmap.original_transitions == len(m.transitions)


def test_staging_state_names():
    m = push_pop_walker()
    image, cmap = compile_qcpda(m)
    by_target = {q: (a, b) for q, a, b in cmap.aux_states}
    assert set(by_target) == {"e0", "e1"}
    assert by_target["e0"] == ("e0@a", "e0@b")
    for q, (a, b) in by_target.items():
        assert a in image.states and b in image.states
    # original states survive unchanged
    assert set(m.states) <= set(image.states)


def test_marker_symbols_extend_stack_alphabet():
    m = push_pop_walker()
    image, cmap = compile_qcpda(m)
    markers = dict(cmap.labels)
    assert set(markers) == {"pop", "push:x"}
    for token in markers.values():
        assert token.startswith("l:")
        assert token in image.stack_alphabet.symbols
        assert token not in m.stack_alphabet.symbols
    assert image.stack_alphabet.bottom == m.stack_alphabet.bottom


def test_name_collisions_get_primed():
    alpha = InputAlphabet(symbols=("<", "0", "1", ">"), left_end="<", right_end=">")
    gamma = StackAlphabet(symbols=("Z", "l:epsilon"), bottom="Z")
    rows = []
    for read in alpha.symbols:
        for top in gamma.symbols:
            rows.append(TransitionQCPDA("w0", read, top, "w0", 1, 1 + 0j))
    m = MachineQCPDA(
        states=("w0", "w0@a"),
        input_alphabet=alpha,
        stack_alphabet=gamma,
        transitions=tuple(rows),
        sigma=(("w0", EPSILON),),
        initial="w0",
        accepting=frozenset({"w0@a"}),
        rejecting=frozenset(),
    )
    image, cmap = compile_qcpda(m)
    by_target = {q: (a, b) for q, a, b in cmap.aux_states}
    assert by_target["w0"][0] == "w0@a'"
    assert dict(cmap.labels)["epsilon"] == "l:epsilon'"


def test_operations_that_describe_alike_keep_a_label_each():
    # push("a", "b") and push("ab") both describe as push:ab; their
    # markers are primed apart, and so are their labels
    alpha = InputAlphabet(symbols=("<", "0", ">"), left_end="<", right_end=">")
    gamma = StackAlphabet(symbols=("Z", "a", "b", "ab"), bottom="Z")
    h = 2**-0.5 + 0j
    m = MachineQCPDA(
        states=("s", "u", "v"),
        input_alphabet=alpha,
        stack_alphabet=gamma,
        transitions=(
            TransitionQCPDA("s", "<", "Z", "u", 1, h),
            TransitionQCPDA("s", "<", "Z", "v", 1, h),
        ),
        sigma=(("s", EPSILON), ("u", push("a", "b")), ("v", push("ab"))),
        initial="s",
        accepting=frozenset(),
        rejecting=frozenset(),
    )
    image, cmap = compile_qcpda(m)
    assert cmap.labels == (("push:ab", "l:push:ab"), ("push:ab'", "l:push:ab'"))
    markers = set(image.stack_alphabet.symbols) - set(gamma.symbols)
    assert sorted(dict(cmap.labels).values()) == sorted(markers)
    assert sorted(cmap.to_json_dict()["labels"].values()) == sorted(markers)


def test_rejects_non_well_formed_input():
    alpha = InputAlphabet(symbols=("<", "0", "1", ">"), left_end="<", right_end=">")
    gamma = StackAlphabet(symbols=("Z",), bottom="Z")
    rows = []
    for read in alpha.symbols:
        rows.append(TransitionQCPDA("a0", read, "Z", "a0", 1, 0.6 + 0j))
        rows.append(TransitionQCPDA("a0", read, "Z", "a1", 1, 0.8 + 0j))
        rows.append(TransitionQCPDA("a1", read, "Z", "a0", 1, 0.8 + 0j))
        rows.append(TransitionQCPDA("a1", read, "Z", "a1", 1, 0.6 + 0j))
    m = MachineQCPDA(
        states=("a0", "a1"),
        input_alphabet=alpha,
        stack_alphabet=gamma,
        transitions=tuple(rows),
        sigma=(("a0", EPSILON), ("a1", EPSILON)),
        initial="a0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )
    with pytest.raises(NonWellFormedInput) as exc:
        compile_qcpda(m)
    assert exc.value.report is not None
    assert not exc.value.report.passed


def test_halting_targets_bypass_staging():
    m = halting_walker()
    image, _ = compile_qcpda(m)
    into_acc = [t for t in image.transitions if t.target == "w_acc"]
    assert into_acc
    assert all(t.op == EPSILON for t in into_acc)
    assert all(t.source == "w0" for t in into_acc)


def test_micro_steps_hold_head_still():
    image, cmap = compile_qcpda(push_pop_walker())
    aux = {x for q, a, b in cmap.aux_states for x in (a, b)}
    for t in image.transitions:
        if t.source in aux:
            assert t.move == 0
            assert abs(t.amp - 1) < 1e-15


def test_garbage_carries_marker_tokens():
    image, cmap = compile_qcpda(push_pop_walker())
    tape = make_tape(image, "01")
    garbages = set()
    for i, rec in enumerate(trajectory(image, tape, max_steps=6), start=1):
        for conf in rec.psi:
            garbages.add(conf.garbage)
    tokens = {tok for g in garbages for tok in g}
    markers = set(dict(cmap.labels).values())
    assert tokens & markers
    # the popped original symbol shows up too, between marker entries
    assert "x" in tokens


def test_walker_equivalence_exact():
    m = halting_walker()
    image, _ = compile_qcpda(m)
    rep = equiv_check(m, image, ["", "0", "01", "110"], max_steps=8)
    assert rep.passed
    for row in rep.rows:
        n = len(row.word)
        assert row.p_acc_original == pytest.approx(1 - 2.0 ** -(n + 2), abs=1e-12)
        assert row.delta_acc <= 1e-12
        assert row.delta_rej <= 1e-12
        assert row.decoherent


def test_image_probabilities_match_directly():
    m = halting_walker()
    image, _ = compile_qcpda(m)
    res = run(image, "00", max_steps=24)
    assert res.p_acc == pytest.approx(1 - 2.0 ** -4, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_random_machine_equivalence(seed):
    m = random_qcpda(seed)
    image, _ = compile_qcpda(m)
    rep = equiv_check(m, image, words_up_to(2), max_steps=8)
    assert rep.passed, [r.word for r in rep.rows if not r.passed]
    for row in rep.rows:
        assert row.delta_acc <= 1e-9
        assert row.delta_rej <= 1e-9
        assert row.decoherent


def test_equiv_report_flags_mismatch():
    m = halting_walker()
    other = forking_walker()
    image, _ = compile_qcpda(other)
    rep = equiv_check(m, image, ["0"], max_steps=6)
    assert not rep.passed
    assert any(not r.passed for r in rep.rows)


def test_equiv_report_json_round_trip():
    m = halting_walker()
    image, _ = compile_qcpda(m)
    rep = equiv_check(m, image, ["0"], max_steps=6)
    doc = rep.to_json_dict()
    assert doc["passed"] is True
    assert doc["rows"][0]["word"] == "0"
    assert set(doc["rows"][0]) >= {
        "word", "p_acc_original", "p_acc_image", "delta_acc", "decoherent", "passed",
    }


def test_equiv_check_batch_rows_equal_single_word_rows():
    # seeds 52, 81 and 151 have words that take an earlier word's result,
    # on the image side, on both sides and on the original side
    words = words_up_to(4)
    for seed in (*range(20), 52, 81, 151):
        m = random_qcpda(seed)
        image, _ = compile_qcpda(m)
        rng = random.Random(seed)
        orders = (
            words,
            rng.sample(words, len(words)),
            [w for w in words for _ in (0, 1)] + words[::-1],
        )
        for budget in (0, 1, 7, 8):
            single = {
                w: equiv_check(m, image, [w], max_steps=budget).rows[0] for w in words
            }
            for order in orders:
                rows = equiv_check(m, image, order, max_steps=budget).rows
                assert list(rows) == [single[w] for w in order], (seed, budget)


def split_on_one() -> MachineQPAG:
    """s scans the word until its first 1, which splits it into p, which
    pushes x, and q, which does not. One step later both accept. In between
    they share the empty garbage tape but not the stack, so the image is
    not decoherent exactly when the split lands on a three-step block
    boundary: when the first 1 is the word's second symbol."""
    alpha = InputAlphabet(symbols=("<", "0", "1", ">"), left_end="<", right_end=">")
    gamma = StackAlphabet(symbols=("Z", "x"), bottom="Z")
    rows = []
    for top in gamma.symbols:
        for read in alpha.symbols:
            if read == "1":
                rows.append(TransitionQPAG("s", read, top, "p", push("x"), 1, H + 0j))
                rows.append(TransitionQPAG("s", read, top, "q", EPSILON, 1, H + 0j))
            else:
                rows.append(TransitionQPAG("s", read, top, "s", EPSILON, 1, 1 + 0j))
            for q in ("p", "q"):
                rows.append(TransitionQPAG(q, read, top, "a", EPSILON, 0, 1 + 0j))
    return MachineQPAG(
        states=("s", "p", "q", "a"),
        input_alphabet=alpha,
        stack_alphabet=gamma,
        transitions=tuple(rows),
        initial="s",
        accepting=frozenset({"a"}),
        rejecting=frozenset(),
    )


def test_decoherence_flag_resumes_with_the_shared_prefix():
    # "010" resumes after "011" from the checkpoint of step 3, whose flag is
    # already false; "0" resumes after "01" from the checkpoint of step 2,
    # taken before the split, whose flag is still true
    image = split_on_one()
    words = ["01", "0", "011", "010", "00", "1", "10", "", "0100"]
    batch = equiv_check(halting_walker(), image, words, max_steps=8).rows
    single = [
        equiv_check(halting_walker(), image, [w], max_steps=8).rows[0] for w in words
    ]
    assert list(batch) == single
    assert [row.decoherent for row in batch] == [
        False, True, False, False, True, True, True, True, False,
    ]


def test_image_key_holds_the_decoherence_flag():
    # two image checkpoints that differ only in the flag give different
    # rows, so a word that reaches one must not take the other's result
    stepper = ImageSteps(split_on_one())
    point = stepper.start()
    flipped = point[:-1] + (not point[-1],)
    assert stepper.key(point) != stepper.key(flipped)
    assert stepper.result(point, 0) != stepper.result(flipped, 0)


@pytest.mark.parametrize("max_steps", [None, 5], ids=["default", "given"])
def test_equiv_check_gives_each_image_word_image_steps_per_original_step(
    monkeypatch, max_steps
):
    # the two batches equiv_check runs, recorded as (stepper class, runs)
    calls = []

    def recording(stepper, runs):
        calls.append((type(stepper), list(runs)))
        return run_batch(stepper, runs)

    run_batch = compiler.run_batch
    monkeypatch.setattr(compiler, "run_batch", recording)
    m = random_qcpda(3)
    image = compile_qcpda(m)[0]
    words = words_up_to(3)
    equiv_check(m, image, words, max_steps=max_steps)
    (branch, originals), (steps, images) = calls
    assert (branch, steps) == (BranchSteps, ImageSteps)
    assert originals == [run_bounds(m, w, max_steps) for w in words]
    assert images == [
        (make_tape(image, w), IMAGE_STEPS * budget) for w, (_, budget) in zip(words, originals)
    ]


def _primed_machine():
    """The machine of ``test_name_collisions_get_primed``: its state
    ``w0@a`` and stack symbol ``l:epsilon`` force primed fresh names."""
    alpha = InputAlphabet(symbols=("<", "0", "1", ">"), left_end="<", right_end=">")
    gamma = StackAlphabet(symbols=("Z", "l:epsilon"), bottom="Z")
    return MachineQCPDA(
        states=("w0", "w0@a"),
        input_alphabet=alpha,
        stack_alphabet=gamma,
        transitions=tuple(
            TransitionQCPDA("w0", read, top, "w0", 1, 1 + 0j)
            for read in alpha.symbols
            for top in gamma.symbols
        ),
        sigma=(("w0", EPSILON),),
        initial="w0",
        accepting=frozenset({"w0@a"}),
        rejecting=frozenset(),
    )


def test_lowering_stays_pinned():
    # every image file and compile map byte for byte, fresh-name order included
    digest = hashlib.sha256()
    for m in [random_qcpda(seed) for seed in range(200)] + [_primed_machine()]:
        image, cmap = compile_qcpda(m)
        digest.update(serialize_machine(image).encode())
        digest.update(emit_json(cmap.to_json_dict()).encode())
    assert digest.hexdigest() == (
        "dab6e874e9deefcde23e1a0a30056d93295d06cba795cd64f28c7cadc050efb3"
    )


def test_equiv_reports_stay_pinned():
    # every equivalence report byte for byte, floats in repr: batches that
    # share a node's steps between its words must give each word's row as
    # its own run does
    digest = hashlib.sha256()
    for seed in range(20):
        m = random_qcpda(seed)
        report = equiv_check(m, compile_qcpda(m)[0], words_up_to(4), max_steps=8)
        digest.update(emit_json(report.to_json_dict(), floats="repr").encode())
    assert digest.hexdigest() == (
        "162acbf70fc24a0d6fda4f593a0c46dcdae1979e05d71bfcf44aa6e5123a6419"
    )
