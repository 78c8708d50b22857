"""Reachable-basis unitarity audits cross-checked against a dense matrix."""

import hashlib
from qpag.model import replace

import numpy as np
import pytest

from qpag import model, problem1, simulate
from qpag.compiler import compile_qcpda
from qpag.errors import InvariantError, StateSpaceOverflow
from qpag.machinefile import emit_json
from qpag.wellformed import audit_unitarity

from .corpus import TOTAL_MACHINES, mutants
from .generators import random_qcpda, words_up_to
from .reference import ref_step_matrix


def test_builtin_audit_passes_depth_twelve():
    rep = audit_unitarity(problem1.build_machine(), "abc#cba#abcd", depth=12)
    assert rep.passed
    assert rep.failures == ()
    assert rep.examined > 0


def test_audit_report_json_shape():
    rep = audit_unitarity(problem1.build_machine(), "a#a#a", depth=6)
    doc = rep.to_json_dict()
    assert set(doc) == {"passed", "examined", "stepped", "failures", "warnings"}
    assert doc["stepped"] <= doc["examined"]


def test_scale_mutant_fails_norm():
    by_name = {m.name: m for m in mutants()}
    mut = by_name["scale-split-a"]
    rep = audit_unitarity(mut.machine, "aa#aa#aa", depth=6)
    assert not rep.passed
    kinds = {f.kind for f in rep.failures}
    assert "norm" in kinds


def test_signflip_mutant_fails_orthogonality():
    by_name = {m.name: m for m in mutants()}
    # flip one Stage III sign: columns entering the final mix stop cancelling
    mut = next(m for name, m in sorted(by_name.items()) if name.startswith("flip-"))
    rep = audit_unitarity(mut.machine, "a#a#a", depth=8)
    assert not rep.passed
    kinds = {f.kind for f in rep.failures}
    assert "orthogonality" in kinds


def test_undefined_column_warns_but_passes():
    # partial machine: columns the word never exercises stay silent, but a
    # reachable undefined column is surfaced as a warning
    m = TOTAL_MACHINES["cycle3"]()
    rep = audit_unitarity(m, "01", depth=5)
    assert rep.passed
    assert rep.warnings == ()
    mutant_word_rep = audit_unitarity(problem1.build_machine(), "abc#cba#abcd", depth=3)
    assert mutant_word_rep.passed


def test_truncated_machine_reports_undefined_columns():
    m = problem1.build_machine()
    trimmed = type(m)(
        states=m.states,
        input_alphabet=m.input_alphabet,
        stack_alphabet=m.stack_alphabet,
        transitions=tuple(t for t in m.transitions if t.source != "q1_I0"),
        initial=m.initial,
        accepting=m.accepting,
        rejecting=m.rejecting,
    )
    rep = audit_unitarity(trimmed, "aa#aa#aa", depth=6)
    assert any("undefined" in w for w in rep.warnings)
    # the same rows zeroed instead of dropped: a warning, not a norm failure
    zeroed = replace(
        m,
        transitions=tuple(
            replace(t, amp=0j) if t.source == "q1_I0" else t for t in m.transitions
        ),
    )
    rep = audit_unitarity(zeroed, "aa#aa#aa", depth=6)
    assert any("undefined" in w for w in rep.warnings)
    assert rep.passed


def test_empty_machine_vacuous():
    m = problem1.build_machine()
    empty = type(m)(
        states=m.states,
        input_alphabet=m.input_alphabet,
        stack_alphabet=m.stack_alphabet,
        transitions=(),
        initial=m.initial,
        accepting=m.accepting,
        rejecting=m.rejecting,
    )
    rep = audit_unitarity(empty, "a#a#a", depth=4)
    assert rep.passed
    assert rep.warnings


def test_depth_must_be_positive():
    with pytest.raises(InvariantError):
        audit_unitarity(problem1.build_machine(), "a#a#a", depth=0)


def test_audit_cap_overflow(monkeypatch):
    monkeypatch.setattr(model, "ENTRY_BUDGET", 16)
    with pytest.raises(StateSpaceOverflow, match=r"^live entries exceeded 16 at step \d+$"):
        audit_unitarity(TOTAL_MACHINES["splitter"](), "0000000000", depth=10)


@pytest.mark.parametrize("name", sorted(TOTAL_MACHINES))
def test_corpus_matches_dense_matrix(name):
    # independent check: build the one-step matrix on the reachable basis
    # and compare M*M ~ I with the audit verdict
    if name == "splitter":
        word, depth = "0000", 4
    else:
        word, depth = "0101", 6
    machine = TOTAL_MACHINES[name]()
    rep = audit_unitarity(machine, word, depth=depth)
    assert rep.passed, rep.failures

    sources, _targets, mat = ref_step_matrix(machine, word, depth)
    if not sources:
        return
    gram = mat.conj().T @ mat
    assert np.allclose(gram, np.eye(len(sources)), atol=1e-9)


def test_dense_matrix_catches_mutant():
    by_name = {m.name: m for m in mutants()}
    mut = by_name["scale-split-a"]
    sources, _targets, mat = ref_step_matrix(mut.machine, "aa#aa#aa", 6)
    gram = mat.conj().T @ mat
    assert not np.allclose(gram, np.eye(len(sources)), atol=1e-9)


def _pinned_audits():
    """The mutant reports, then the reports of the total machines and of
    compiled scheduled-stack images, each as its sig12 JSON document."""
    mutant_reports = [
        audit_unitarity(mut.machine, word, depth=depth)
        for mut in mutants()
        for word, depth in (("aa#aa#aa", 6), ("a#a#a", 8), ("ab#ba#ab", 8))
    ]
    others = [
        audit_unitarity(TOTAL_MACHINES[name](), word, depth=6)
        for name in sorted(TOTAL_MACHINES)
        for word in ("0101", "0000", "", "1")
    ]
    for seed in range(10):
        image = compile_qcpda(random_qcpda(seed))[0]
        others += [audit_unitarity(image, word, depth=24) for word in words_up_to(2)]
    return mutant_reports, others


def test_audit_reports_stay_pinned():
    # every report byte for byte, norms and overlaps to 12 digits
    mutant_reports, others = _pinned_audits()
    assert len(mutant_reports) == 66
    assert sum(not rep.passed for rep in mutant_reports) == 21
    digest = hashlib.sha256()
    for rep in mutant_reports + others:
        digest.update(emit_json(rep.to_json_dict(), floats="sig12").encode())
    assert digest.hexdigest() == (
        "7289ac3494c1665187482912c1e36ef06321c06b8d8ae0e50f3fd916925356f0"
    )


def test_audit_steps_through_walk(monkeypatch):
    walk = simulate.walk
    steps = []

    def spy(*args):
        for item in walk(*args):
            steps.append(item[0])
            yield item

    monkeypatch.setattr(simulate, "walk", spy)
    depth = 6
    rep = audit_unitarity(problem1.build_machine(), "ab#ba#ab", depth=depth)
    assert rep.passed
    assert steps == list(range(1, len(steps) + 1))
    assert 0 < len(steps) <= depth + 1
