"""Report records: every report class writes its JSON through
``model.Record``, one key per record field, in field order."""

import pytest

from qpag import problem1
from qpag.compiler import CompileMap, EquivReport, compile_qcpda, equiv_check
from qpag.machinefile import emit_json
from qpag.model import Configuration, Record, StepSnapshot, replace
from qpag.simulate import run
from qpag.wellformed import AuditFailure, Violation, audit_unitarity, check_qpag

from .corpus import mutants
from .generators import random_qcpda


def _reports():
    """One report of every kind, from real runs, each holding at least one
    of its nested records."""
    by_name = {m.name: m.machine for m in mutants()}
    traced = run(problem1.build_machine(), "a#a#a", trace_depth=2)
    check = check_qpag(by_name["scale-split-a"], mode="total")
    audit = audit_unitarity(by_name["scale-split-a"], "aa#aa#aa", depth=6)
    machine = random_qcpda(0)
    image, cmap = compile_qcpda(machine)
    equiv = equiv_check(machine, image, ["", "0", "01"], max_steps=8)
    sweep = problem1.sweep(1, machine=by_name["flip-q1_O0-qf_acc"])
    return [
        traced,
        traced.trace[0],
        check,
        check.violations[0],
        audit,
        audit.failures[0],
        cmap,
        equiv,
        equiv.rows[0],
        sweep,
        sweep.failures[0],
    ]


_REPORTS = _reports()


def _plain(value):
    """True when ``value`` is built from JSON types alone: no tuple, no
    record left unrendered."""
    if isinstance(value, dict):
        return all(isinstance(k, str) and _plain(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_plain(v) for v in value)
    return value is None or isinstance(value, (str, int, float, bool))


def test_every_record_class_is_covered():
    assert {type(r) for r in _REPORTS} == set(Record.__subclasses__())


@pytest.mark.parametrize("report", _REPORTS, ids=lambda r: type(r).__name__)
def test_record_writes_its_fields_in_order(report):
    doc = report.to_json_dict()
    assert list(doc) == list(report._fields)
    assert _plain(doc)
    for floats in ("repr", "sig12"):
        assert emit_json(doc, floats=floats)


def test_violation_witness():
    v = Violation("4", (("state1", "q"), ("move1", 1), ("state2", "p")), 0.5)
    assert v.to_json_dict() == {
        "condition": "4",
        "witness": {"state1": "q", "move1": 1, "state2": "p"},
        "residual": 0.5,
    }


def test_audit_failure_configs():
    f = AuditFailure(
        "orthogonality",
        (
            Configuration("q", 1, ("Z", "a"), ()),
            Configuration("p", 2, ("Z", "ab"), ("c",)),
        ),
        0.25,
    )
    assert f.to_json_dict() == {
        "kind": "orthogonality",
        "configs": [
            {"state": "q", "head": 1, "stack": "Za", "garbage": ""},
            {"state": "p", "head": 2, "stack": ["Z", "ab"], "garbage": "c"},
        ],
        "value": 0.25,
    }


def test_compile_map_aux_states_and_labels():
    cmap = CompileMap(
        aux_states=(("q", "q@a", "q@b"), ("r", "r@a", "r@b")),
        labels=(("epsilon", "l:epsilon"), ("push:x", "l:push:x")),
        original_transitions=4,
        image_transitions=12,
    )
    assert cmap.to_json_dict() == {
        "aux_states": {"q": ["q@a", "q@b"], "r": ["r@a", "r@b"]},
        "labels": {"epsilon": "l:epsilon", "push:x": "l:push:x"},
        "original_transitions": 4,
        "image_transitions": 12,
    }


def test_step_snapshot_survivors():
    snap = StepSnapshot(
        step=3,
        survivors=(
            (Configuration("q", 1, ("Z",), ()), 0.5 - 0.5j),
            (Configuration("p", 2, ("Z", "x"), ("y",)), -0.5 + 0j),
        ),
        p_acc_delta=0.25,
        p_rej_delta=0.0,
    )
    assert snap.to_json_dict() == {
        "step": 3,
        "survivors": [
            {"state": "q", "head": 1, "stack": "Z", "garbage": "", "amp": [0.5, -0.5]},
            {"state": "p", "head": 2, "stack": "Zx", "garbage": "y", "amp": [-0.5, 0.0]},
        ],
        "p_acc_delta": 0.25,
        "p_rej_delta": 0.0,
    }


def test_comparing_hashing_and_writing_leave_only_the_fields():
    # a record is never written after it is built: no cached key beside
    # its fields, for a row, a stack operation and a report of records
    row = problem1.build_machine().transitions[0]
    report = next(r for r in _REPORTS if type(r) is EquivReport)
    for record in (row, row.op, report):
        copy = replace(record)
        assert record == copy and hash(record) == hash(copy)
        assert repr(record) == repr(copy)
        if isinstance(record, Record):
            assert record.to_json_dict() == copy.to_json_dict()
        for r in (record, copy):
            assert list(vars(r)) == list(r._fields)
    assert list(vars(report.rows[0])) == list(report.rows[0]._fields)
