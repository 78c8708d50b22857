"""Column checkers: pinned residuals, mutant detection, evaluation counts."""

import hashlib
import math
import random
from qpag.model import replace

import pytest

from qpag import problem1, wellformed
from qpag.branching import run_qcpda
from qpag.classical import run_dpda, run_ppa
from qpag.compiler import compile_qcpda, equiv_check
from qpag.errors import InvariantError, PopOnBottom
from qpag.machinefile import emit_json, serialize_machine
from qpag.model import (
    EPSILON,
    POP,
    InputAlphabet,
    MachinePPA,
    MachineQCPDA,
    MachineQPAG,
    StackAlphabet,
    TransitionPPA,
    TransitionQCPDA,
    TransitionQPAG,
    push,
)
from qpag.simulate import run, trajectory
from qpag.wellformed import audit_unitarity, check_ppa, check_qcpda, check_qpag

from .corpus import TOTAL_MACHINES, coin_ppa, dpda_wcwr, mutants
from .generators import random_qcpda, random_qpag_table
from .test_classical_walk import random_ppa

_ALPHA = InputAlphabet(symbols=("<", "0", "1", ">"), left_end="<", right_end=">")
_GAMMA = StackAlphabet(symbols=("Z",), bottom="Z")


def _tiny(transitions, states=("s0",), gamma=_GAMMA, accepting=frozenset()):
    return MachineQPAG(
        states=states,
        input_alphabet=_ALPHA,
        stack_alphabet=gamma,
        transitions=tuple(transitions),
        initial=states[0],
        accepting=accepting,
        rejecting=frozenset(),
    )


def test_builtin_passes_partial_with_zero_violations():
    rep = check_qpag(problem1.build_machine())
    assert rep.passed
    assert rep.violations == ()
    assert rep.mode == "partial"
    # the final-mix columns are the only ones sharing image components
    assert rep.evaluations["2"] == 6


def test_builtin_fails_total():
    rep = check_qpag(problem1.build_machine(), mode="total")
    assert not rep.passed
    assert all(v.condition == "1" for v in rep.violations)


def test_norm_residual_two_for_double_column():
    # two weight-1 entries in one column: sum 2, reported as-is
    m = _tiny(
        [
            TransitionQPAG("s0", "0", "Z", "s0", EPSILON, 1, 1 + 0j),
            TransitionQPAG("s0", "0", "Z", "s1", EPSILON, 1, 1 + 0j),
        ],
        states=("s0", "s1"),
    )
    rep = check_qpag(m)
    assert not rep.passed
    v = rep.violations[0]
    assert v.condition == "1"
    assert v.residual == pytest.approx(2.0, abs=1e-12)


def test_partial_mode_allows_deficit_total_does_not():
    m = _tiny([TransitionQPAG("s0", "0", "Z", "s0", EPSILON, 1, 0.5 + 0j)])
    assert check_qpag(m, mode="partial").passed
    rep = check_qpag(m, mode="total")
    assert not rep.passed
    # the defined deficient column reports 1 - 0.25
    col = [
        v
        for v in rep.violations
        if dict(v.witness) == {"state": "s0", "read": "0", "top": "Z"}
    ]
    assert col and col[0].residual == pytest.approx(0.75, abs=1e-12)
    # an empty column in total mode reports residual 1
    empty = [
        v
        for v in rep.violations
        if dict(v.witness) == {"state": "s0", "read": "1", "top": "Z"}
    ]
    assert empty and empty[0].residual == pytest.approx(1.0, abs=1e-12)


def test_total_evaluates_full_product():
    m = _tiny([TransitionQPAG("s0", "0", "Z", "s0", EPSILON, 1, 1 + 0j)])
    rep = check_qpag(m, mode="total")
    assert rep.evaluations["1"] == 1 * 4 * 1  # states x inputs x stack


def test_orthogonality_residual_is_abs_sum():
    # two columns mapping onto the same target with aligned signs
    m = _tiny(
        [
            TransitionQPAG("s0", "0", "Z", "s0", EPSILON, 1, 0.6 + 0j),
            TransitionQPAG("s1", "0", "Z", "s0", EPSILON, 1, 0.8 + 0j),
        ],
        states=("s0", "s1"),
    )
    rep = check_qpag(m)
    twos = [v for v in rep.violations if v.condition == "2"]
    assert len(twos) == 1
    assert twos[0].residual == pytest.approx(0.48, abs=1e-12)


def test_zero_amplitude_rows_ignored():
    m = _tiny(
        [
            TransitionQPAG("s0", "0", "Z", "s0", EPSILON, 1, 1 + 0j),
            TransitionQPAG("s1", "0", "Z", "s0", EPSILON, 1, 0j),
        ],
        states=("s0", "s1"),
    )
    rep = check_qpag(m)
    assert rep.passed
    assert rep.evaluations["2"] == 0


@pytest.mark.parametrize("name", sorted(TOTAL_MACHINES))
def test_total_corpus_passes_total(name):
    rep = check_qpag(TOTAL_MACHINES[name](), mode="total")
    assert rep.passed, rep.violations


def test_never_pop_corpus_has_no_pop_condition_work():
    for name, build in sorted(TOTAL_MACHINES.items()):
        rep = check_qpag(build(), mode="total")
        assert rep.evaluations["3b"] == 0, name
        assert rep.evaluations["5b"] == 0, name


def test_condition_2_and_4_cancel_nontrivially():
    rep2 = check_qpag(TOTAL_MACHINES["halfstep"](), mode="total")
    assert rep2.evaluations["2"] > 0
    rep4 = check_qpag(TOTAL_MACHINES["mixstep"](), mode="total")
    assert rep4.evaluations["4"] > 0


def test_mutants_all_flagged_with_expected_condition():
    rows = mutants()
    assert len(rows) >= 20
    for mut in rows:
        rep = check_qpag(mut.machine)
        assert not rep.passed, f"{mut.name} slipped through"
        got = {v.condition for v in rep.violations}
        assert mut.expected <= got, f"{mut.name}: wanted {set(mut.expected)}, got {got}"


def test_mutant_scale_residual_pinned():
    by_name = {m.name: m for m in mutants()}
    rep = check_qpag(by_name["scale-split-Z"].machine)
    v = [x for x in rep.violations if x.condition == "1"]
    assert len(v) == 1
    # 0.9^2 + 3 * 0.25 = 1.56, over 1 so reported raw
    assert v[0].residual == pytest.approx(1.56, abs=1e-12)


def test_report_json_shape():
    rep = check_qpag(problem1.build_machine())
    doc = rep.to_json_dict()
    assert set(doc) == {"passed", "mode", "violations", "evaluations"}
    rep2 = check_qpag(mutants()[0].machine)
    vdoc = rep2.to_json_dict()["violations"][0]
    assert set(vdoc) == {"condition", "witness", "residual"}


def test_violation_order_deterministic_under_row_shuffle():
    mut = mutants()[8]  # a sign-flip mutant with several violations
    rep_a = check_qpag(mut.machine)
    shuffled = replace(
        mut.machine, transitions=tuple(reversed(mut.machine.transitions))
    )
    rep_b = check_qpag(shuffled)
    assert [v.to_json_dict() for v in rep_a.violations] == [
        v.to_json_dict() for v in rep_b.violations
    ]


def test_declared_push_strings_widen_candidates():
    # pop column against a push of prefix+revealed symbol: the prefix must
    # be an admissible push string for the pair to be constrained
    gamma = StackAlphabet(symbols=("Z", "x", "y"), bottom="Z")
    rows = [
        TransitionQPAG("s0", "0", "x", "s2", POP, 1, 1 + 0j),
        TransitionQPAG("s1", "0", "x", "s2", push("y", "x"), 1, 1 + 0j),
        # make ("y",) inferred so the prefix is admissible
        TransitionQPAG("s0", "1", "x", "s2", push("y"), 1, 1 + 0j),
    ]
    m = _tiny(rows, states=("s0", "s1", "s2"), gamma=gamma)
    rep = check_qpag(m)
    got = {v.condition for v in rep.violations}
    assert "3b" in got


_GAMMA_ZA = StackAlphabet(symbols=("Z", "a"), bottom="Z")
_H = 2**-0.5 + 0j


def _same_column_push_extends():
    # (q, 0, a) keeps its stack or pushes a: from the stacks Za and Zaa that
    # the start column lays down, both rows reach (t, 2, Zaa)
    rows = [
        TransitionQPAG("s", "<", "Z", "q", push("a"), 1, _H),
        TransitionQPAG("s", "<", "Z", "q", push("a", "a"), 1, _H),
        TransitionQPAG("q", "0", "a", "t", EPSILON, 1, _H),
        TransitionQPAG("q", "0", "a", "t", push("a"), 1, _H),
    ]
    return _tiny(rows, states=("s", "q", "t"), gamma=_GAMMA_ZA)


def _same_column_head_shift():
    # (b0, 0, Z) stays or advances: from heads 1 and 2, both reach
    # (b1, 2, Z); the first three rows put b0 on both heads
    rows = [
        TransitionQPAG("s", "<", "Z", "b0", EPSILON, 1, _H),
        TransitionQPAG("s", "<", "Z", "c", EPSILON, 1, _H),
        TransitionQPAG("c", "0", "Z", "b0", EPSILON, 1, 1 + 0j),
        TransitionQPAG("b0", "0", "Z", "b1", EPSILON, 0, _H),
        TransitionQPAG("b0", "0", "Z", "b1", EPSILON, 1, _H),
    ]
    return _tiny(rows, states=("s", "b0", "b1", "c"), gamma=_GAMMA_ZA)


@pytest.mark.parametrize(
    "build, cid, state",
    [(_same_column_push_extends, "3a", "q"), (_same_column_head_shift, "4", "b0")],
)
def test_rows_of_one_column_pair_like_any_other(build, cid, state):
    # two rows of one column act on configurations that differ in stack or
    # head; the audit sees their images overlap, so the checker must too
    m = build()
    audit = audit_unitarity(m, "00", depth=3)
    assert [f.kind for f in audit.failures] == ["orthogonality"]
    assert audit.failures[0].value == pytest.approx(0.5, abs=1e-12)
    assert {c.state for c in audit.failures[0].configs} == {state}
    rep = check_qpag(m)
    assert [v.condition for v in rep.violations] == [cid]
    v = rep.violations[0]
    assert dict(v.witness)["state1"] == dict(v.witness)["state2"] == state
    assert v.residual == pytest.approx(0.5, abs=1e-12)


# ----------------------------------------------------------------------
# witnesses: field names, their order and rendered values
# ----------------------------------------------------------------------

_SHIFT_FIELDS = ("state1", "read1", "top1", "move1", "state2", "read2", "top2")


@pytest.mark.parametrize(
    "name, cid, witness, residual",
    [
        (
            "scale-split-Z",
            "1",
            {"state": "q0", "read": "#", "top": "Z"},
            1.56,
        ),
        (
            "flip-q1_O0-qf_n0",
            "2",
            {"read": ">", "top": "Z", "state1": "q1_O0", "state2": "q1_O1"},
            0.5,
        ),
        (
            "retarget-3a",
            "3a",
            {
                "read": "a",
                "state1": "q2_I1",
                "top1": "a",
                "state2": "q0",
                "top2": "Z",
                "prefix": "",
            },
            1.0,
        ),
        (
            "retarget-3b",
            "3b",
            {
                "read": "a",
                "state1": "q1_I0",
                "top1": "a",
                "state2": "q2_I1",
                "top2": "b",
                "op2": "epsilon",
            },
            1.0,
        ),
        (
            "retarget-4",
            "4",
            {
                "top": "Z",
                "state1": "q1_O1",
                "read1": "a",
                "state2": "q1_I0",
                "read2": "#",
            },
            1.0,
        ),
        (
            "retarget-5a",
            "5a",
            dict(
                zip(_SHIFT_FIELDS, ("q2_I1", "b", "a", 0, "q0", "a", "Z")),
                move2=1,
                prefix="",
            ),
            1.0,
        ),
        (
            "retarget-5b",
            "5b",
            dict(
                zip(_SHIFT_FIELDS, ("q1_I0", "a", "a", 1, "q2_I1", "c", "a")),
                move2=0,
                op2="epsilon",
            ),
            1.0,
        ),
        (
            "pop-bottom",
            "pop-on-z",
            {
                "state": "q1_I0",
                "read": "a",
                "top": "Z",
                "target": "q1_I0",
                "move": 1,
            },
            1.0,
        ),
    ],
)
def test_mutant_witness_pinned(name, cid, witness, residual):
    by_name = {m.name: m.machine for m in mutants()}
    rep = check_qpag(by_name[name])
    v = next(v for v in rep.violations if v.condition == cid)
    assert v.witness == tuple(witness.items())
    assert v.residual == pytest.approx(residual, abs=1e-12)


def test_push_op_and_prefix_witnesses_rendered():
    # op2 renders a push as "push:<tokens>", prefix as its token string
    gamma = StackAlphabet(symbols=("Z", "x", "y"), bottom="Z")
    rows = [
        TransitionQPAG("s0", "0", "x", "s2", POP, 1, 1 + 0j),
        TransitionQPAG("s1", "0", "x", "s2", push("y", "x"), 1, 1 + 0j),
        TransitionQPAG("s0", "1", "x", "s2", push("y"), 1, 1 + 0j),
        TransitionQPAG("s2", "0", "x", "s1", EPSILON, 1, 1 + 0j),
        TransitionQPAG("s0", "0", "y", "s1", push("y", "x"), 1, 1 + 0j),
    ]
    rep = check_qpag(_tiny(rows, states=("s0", "s1", "s2"), gamma=gamma))
    got = {v.condition: v.witness for v in rep.violations}
    assert got["3b"] == (
        ("read", "0"),
        ("state1", "s0"),
        ("top1", "x"),
        ("state2", "s1"),
        ("top2", "x"),
        ("op2", "push:yx"),
    )
    assert got["3a"] == (
        ("read", "0"),
        ("state1", "s2"),
        ("top1", "x"),
        ("state2", "s0"),
        ("top2", "y"),
        ("prefix", "y"),
    )


# ----------------------------------------------------------------------
# scheduled-stack checker
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_random_qcpda_passes_partial(seed):
    rep = check_qcpda(random_qcpda(seed))
    assert rep.passed, rep.violations


def _mixing_qcpda():
    """Two states mixed by a real matrix whose columns are not orthogonal."""
    trans = []
    for read in _ALPHA.symbols:
        trans.append(TransitionQCPDA("a0", read, "Z", "a0", 1, 0.6 + 0j))
        trans.append(TransitionQCPDA("a0", read, "Z", "a1", 1, 0.8 + 0j))
        trans.append(TransitionQCPDA("a1", read, "Z", "a0", 1, 0.8 + 0j))
        trans.append(TransitionQCPDA("a1", read, "Z", "a1", 1, 0.6 + 0j))
    return MachineQCPDA(
        states=("a0", "a1"),
        input_alphabet=_ALPHA,
        stack_alphabet=_GAMMA,
        transitions=tuple(trans),
        sigma=(("a0", EPSILON), ("a1", EPSILON)),
        initial="a0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )


def test_qcpda_cross_state_orthogonality_flagged():
    rep = check_qcpda(_mixing_qcpda())
    assert not rep.passed
    assert {v.condition for v in rep.violations} == {"2"}
    # 0.6*0.8 + 0.8*0.6
    assert rep.violations[0].residual == pytest.approx(0.96, abs=1e-12)


def test_qcpda_head_shift_includes_diagonal():
    # one source state feeding the same target with both head moves: the
    # word "00" lines the two columns up, so even the same (state, read)
    # pair must satisfy the shift product
    trans = []
    for read in _ALPHA.symbols:
        trans.append(TransitionQCPDA("b0", read, "Z", "b1", 0, 2**-0.5 + 0j))
        trans.append(TransitionQCPDA("b0", read, "Z", "b1", 1, 2**-0.5 + 0j))
    m = MachineQCPDA(
        states=("b0", "b1"),
        input_alphabet=_ALPHA,
        stack_alphabet=_GAMMA,
        transitions=tuple(trans),
        sigma=(("b0", EPSILON), ("b1", EPSILON)),
        initial="b0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )
    rep = check_qcpda(m)
    fours = [v for v in rep.violations if v.condition == "4"]
    assert fours, "diagonal shift pair must be checked"
    diag = [
        v
        for v in fours
        if dict(v.witness)["state1"] == dict(v.witness)["state2"] == "b0"
        and dict(v.witness)["read1"] == dict(v.witness)["read2"]
    ]
    assert diag


def test_qcpda_pop_on_bottom_flagged():
    trans = tuple(
        TransitionQCPDA("c0", read, "Z", "c0", 1, 1 + 0j)
        for read in _ALPHA.symbols
    )
    m = MachineQCPDA(
        states=("c0",),
        input_alphabet=_ALPHA,
        stack_alphabet=_GAMMA,
        transitions=trans,
        sigma=(("c0", POP),),
        initial="c0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )
    rep = check_qcpda(m)
    assert not rep.passed
    assert "pop-on-z" in {v.condition for v in rep.violations}


# ----------------------------------------------------------------------
# probabilistic checker
# ----------------------------------------------------------------------


def test_ppa_corpus_passes():
    assert check_ppa(dpda_wcwr()).passed
    assert check_ppa(coin_ppa()).passed


def _ppa_single(prob_rows):
    alpha = InputAlphabet(symbols=("<", "a", ">"), left_end="<", right_end=">")
    gamma = StackAlphabet(symbols=("Z",), bottom="Z")
    return MachinePPA(
        states=("p0", "p1"),
        input_alphabet=alpha,
        stack_alphabet=gamma,
        transitions=tuple(prob_rows),
        initial="p0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )


def test_ppa_oversum_residual_pinned():
    m = _ppa_single(
        [
            TransitionPPA("p0", "a", "Z", "p0", EPSILON, 1, 0.5),
            TransitionPPA("p0", "a", "Z", "p1", EPSILON, 1, 0.6),
        ]
    )
    rep = check_ppa(m)
    assert not rep.passed
    ones = [v for v in rep.violations if v.condition == "1"]
    assert ones[0].residual == pytest.approx(1.1, abs=1e-12)


def test_ppa_undersum_flagged():
    m = _ppa_single([TransitionPPA("p0", "a", "Z", "p1", EPSILON, 1, 0.4)])
    rep = check_ppa(m)
    ones = [v for v in rep.violations if v.condition == "1"]
    assert ones and ones[0].residual == pytest.approx(0.6, abs=1e-12)


def test_ppa_range_flagged():
    m = _ppa_single(
        [
            TransitionPPA("p0", "a", "Z", "p0", EPSILON, 1, 1.2),
            TransitionPPA("p0", "a", "Z", "p1", EPSILON, 1, -0.2),
        ]
    )
    rep = check_ppa(m)
    got = {v.condition for v in rep.violations}
    assert "range" in got
    residuals = sorted(
        v.residual for v in rep.violations if v.condition == "range"
    )
    assert residuals == [
        pytest.approx(0.2, abs=1e-12),
        pytest.approx(0.2, abs=1e-12),
    ]


def test_ppa_witnesses_pinned():
    m = _ppa_single(
        [
            TransitionPPA("p0", "a", "Z", "p0", EPSILON, 1, 1.2),
            TransitionPPA("p0", "a", "Z", "p1", EPSILON, 0, -0.3),
        ]
    )
    rep = check_ppa(m)
    assert [(v.condition, v.witness) for v in rep.violations] == [
        ("1", (("state", "p0"), ("read", "a"), ("top", "Z"))),
        (
            "range",
            (
                ("state", "p0"),
                ("read", "a"),
                ("top", "Z"),
                ("target", "p0"),
                ("move", 1),
                ("prob", 1.2),
            ),
        ),
        (
            "range",
            (
                ("state", "p0"),
                ("read", "a"),
                ("top", "Z"),
                ("target", "p1"),
                ("move", 0),
                ("prob", -0.3),
            ),
        ),
    ]


def test_ppa_pop_on_bottom_flagged():
    m = _ppa_single([TransitionPPA("p0", "a", "Z", "p1", POP, 1, 1.0)])
    rep = check_ppa(m)
    assert "pop-on-z" in {v.condition for v in rep.violations}


def _broken_checks():
    """A check of each kind, at a given tolerance, on a machine that fails it."""
    by_name = {mu.name: mu.machine for mu in mutants()}
    ppa = _ppa_single(
        [
            TransitionPPA("p0", "a", "Z", "p0", EPSILON, 1, 0.5),
            TransitionPPA("p0", "a", "Z", "p1", EPSILON, 1, 0.6),
        ]
    )
    return [
        pytest.param(lambda tol: check_qpag(by_name["scale-split-Z"], tol=tol), id="qpag"),
        pytest.param(lambda tol: check_qcpda(_mixing_qcpda(), tol=tol), id="qcpda"),
        pytest.param(lambda tol: check_ppa(ppa, tol=tol), id="ppa"),
        pytest.param(
            lambda tol: audit_unitarity(by_name["dup-start"], "a#a#a", depth=8, tol=tol),
            id="audit",
        ),
    ]


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -math.inf, math.inf])
@pytest.mark.parametrize("check", _broken_checks())
def test_checks_reject_a_bad_tolerance(check, tol):
    # every ``> tol`` comparison is false when tol is NaN or infinite, so
    # such a tolerance would pass these machines, which fail at the default
    assert not check(1e-9).passed
    with pytest.raises(InvariantError, match="tolerance must be a nonnegative number"):
        check(tol)


# ----------------------------------------------------------------------
# every column-check report, byte for byte
# ----------------------------------------------------------------------

# sha256 over emit_json(report.to_json_dict(), floats="repr") of: check_qpag
# in partial then total mode on 200 random tables, the built-in machine, the
# total corpus, the mutants and the images of random_qcpda(0..49); then
# check_qcpda in both modes on random_qcpda(0..49); then check_ppa on
# coin_ppa and dpda_wcwr. The random tables are the only machines here that
# fail conditions 3a, 3b, 5a and 5b by the hundred; among the others only
# the retarget mutants evaluate them at all. Taken while each condition
# still had a term generator and a sum of its own
_COLUMN_REPORTS_SHA256 = "6180c32f66cb01b0fb22043c6ff1062c58c45298298191790b47630d8f93dde8"


def test_column_reports_hash_as_pinned():
    qpags = (
        [random_qpag_table(seed) for seed in range(200)]
        + [problem1.build_machine()]
        + [build() for build in TOTAL_MACHINES.values()]
        + [mu.machine for mu in mutants()]
        + [compile_qcpda(random_qcpda(seed))[0] for seed in range(50)]
    )
    reports = [check_qpag(m, mode) for m in qpags for mode in ("partial", "total")]
    reports += [
        check_qcpda(random_qcpda(seed), mode)
        for seed in range(50)
        for mode in ("partial", "total")
    ]
    reports += [check_ppa(coin_ppa()), check_ppa(dpda_wcwr())]
    digest = hashlib.sha256()
    for rep in reports:
        digest.update(emit_json(rep.to_json_dict(), floats="repr").encode())
    assert digest.hexdigest() == _COLUMN_REPORTS_SHA256


def _range_broken(machine, seed):
    """``machine`` with about a third of its rows given a probability
    outside [0, 1], no two of them sharing (source, read, top, target,
    move), so that their "range" entries never tie."""
    rng = random.Random(f"range-broken|{seed}")
    broken = set()
    rows = []
    for t in machine.transitions:
        key = (t.source, t.read, t.top, t.target, t.move)
        if key not in broken and rng.random() < 0.3:
            broken.add(key)
            t = replace(t, prob=rng.choice((-1.0, -0.25, 1.5, 2.0)))
        rows.append(t)
    return replace(machine, transitions=tuple(rows))


# sha256 over emit_json(report.to_json_dict(), floats="repr") of check_ppa
# on random_ppa(0..99), which hold pop-on-z rows, then on their
# _range_broken copies. Taken while the row rules still walked the table
_PPA_REPORTS_SHA256 = "a39025f9ab720cca70a1605c890b4f4efb7525ba0097962357a3ea01e72a4237"


def test_ppa_reports_hash_as_pinned():
    machines = [random_ppa(seed) for seed in range(100)]
    machines += [_range_broken(m, seed) for seed, m in enumerate(machines)]
    reports = [check_ppa(m) for m in machines]
    assert sum(v.condition == "pop-on-z" for rep in reports for v in rep.violations) > 0
    assert sum(v.condition == "range" for rep in reports for v in rep.violations) > 0
    digest = hashlib.sha256()
    for rep in reports:
        digest.update(emit_json(rep.to_json_dict(), floats="repr").encode())
    assert digest.hexdigest() == _PPA_REPORTS_SHA256


def test_check_rejects_an_unknown_mode():
    with pytest.raises(InvariantError, match="^unknown check mode 'x'$"):
        check_qpag(problem1.build_machine(), mode="x")


# ----------------------------------------------------------------------
# reports do not depend on the order of the transition table
# ----------------------------------------------------------------------


def _tied_range_pair():
    """Two out-of-range rows that share (source, read, top, target, move)
    and differ only in their operation, the push listed first."""
    return MachinePPA(
        states=("p0", "p1"),
        input_alphabet=InputAlphabet(symbols=("<", "a", ">"), left_end="<", right_end=">"),
        stack_alphabet=StackAlphabet(symbols=("Z", "A"), bottom="Z"),
        transitions=(
            TransitionPPA("p0", "a", "Z", "p1", push("A"), 1, -0.5),
            TransitionPPA("p0", "a", "Z", "p1", EPSILON, 1, 1.5),
        ),
        initial="p0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )


def test_tied_range_rows_come_in_canonical_order():
    # epsilon sorts before push in a column, whichever the table lists first
    m = _tied_range_pair()
    for rows in (m.transitions, m.transitions[::-1]):
        rep = check_ppa(replace(m, transitions=rows))
        probs = [dict(v.witness)["prob"] for v in rep.violations if v.condition == "range"]
        assert probs == [1.5, -0.5]


def _report_texts(machine):
    """emit_json of every check that applies to ``machine``'s kind and,
    for a garbage-tape machine, of its unitarity audit on one word (or
    the PopOnBottom that the audit raises)."""
    if isinstance(machine, MachinePPA):
        reports = [check_ppa(machine)]
    else:
        check = check_qcpda if isinstance(machine, MachineQCPDA) else check_qpag
        reports = [check(machine, mode) for mode in ("partial", "total")]
    if isinstance(machine, MachineQPAG):
        symbols = sorted(machine.input_alphabet.word_symbols)
        try:
            reports.append(audit_unitarity(machine, (symbols * 5)[:5], depth=8))
        except PopOnBottom as exc:
            return [emit_json(r.to_json_dict(), floats="repr") for r in reports] + [str(exc)]
    return [emit_json(r.to_json_dict(), floats="repr") for r in reports]


def test_reports_do_not_depend_on_table_order():
    machines = (
        [problem1.build_machine(), coin_ppa(), dpda_wcwr(), _tied_range_pair()]
        + [build() for build in TOTAL_MACHINES.values()]
        + [mu.machine for mu in mutants()]
        + [random_qpag_table(seed) for seed in range(40)]
        + [random_qcpda(seed) for seed in range(40)]
        + [compile_qcpda(random_qcpda(seed))[0] for seed in range(10)]
        + [random_ppa(seed) for seed in range(40)]
        + [_range_broken(random_ppa(seed), seed) for seed in range(40)]
    )
    for i, machine in enumerate(machines):
        want = _report_texts(machine)
        orders = [machine.transitions[::-1]]
        for seed in range(3):
            rows = list(machine.transitions)
            random.Random(seed).shuffle(rows)
            orders.append(tuple(rows))
        for rows in orders:
            assert _report_texts(replace(machine, transitions=rows)) == want, i


# ----------------------------------------------------------------------
# the sums kept on a machine
# ----------------------------------------------------------------------

# the key each amplitude checker keeps its machine-only work under
_KEPT = {MachineQPAG: "_check_qpag_sums", MachineQCPDA: "_check_qcpda_sums"}


def _amplitude_check(machine):
    return check_qcpda if isinstance(machine, MachineQCPDA) else check_qpag


@pytest.mark.parametrize(
    "calls",
    [
        [("total", 1e-9), ("partial", 1e-9)],
        [("partial", 1e-9), ("partial", 1e-3), ("total", 1e-9)],
    ],
    ids=["total-first", "partial-first"],
)
def test_kept_sums_give_a_fresh_copys_reports(calls):
    machines = (
        [problem1.build_machine()]
        + [mu.machine for mu in mutants()]
        + [random_qpag_table(seed) for seed in range(40)]
        + [random_qcpda(seed) for seed in range(40)]
        + [compile_qcpda(random_qcpda(seed))[0] for seed in range(40)]
    )
    for i, machine in enumerate(machines):
        check = _amplitude_check(machine)
        kept = replace(machine)
        for mode, tol in calls:
            got = check(kept, mode, tol).to_json_dict()
            want = check(replace(machine), mode, tol).to_json_dict()
            assert emit_json(got, floats="repr") == emit_json(want, floats="repr"), (i, mode, tol)
        assert _KEPT[type(machine)] in vars(kept)


def test_kept_sums_stay_out_of_the_machine():
    for machine in (problem1.build_machine(), random_qcpda(3)):
        check = _amplitude_check(machine)
        fresh = replace(machine)
        report = check(machine, "total")
        assert _KEPT[type(machine)] in vars(machine)
        assert _KEPT[type(machine)] not in vars(fresh)
        assert machine == fresh
        assert hash(machine) == hash(fresh)
        assert repr(machine) == repr(fresh)
        assert serialize_machine(machine) == serialize_machine(fresh)
        assert set(report.to_json_dict()) == {"passed", "mode", "violations", "evaluations"}
        assert _KEPT[type(machine)] not in vars(replace(machine))


def test_a_second_mode_or_compile_sums_nothing(monkeypatch):
    calls = []
    sums = wellformed._sums
    monkeypatch.setattr(wellformed, "_sums", lambda terms: calls.append(1) or sums(terms))
    machine = problem1.build_machine()
    check_qpag(machine, "partial")
    assert calls
    calls.clear()
    check_qpag(machine, "total")
    assert calls == []

    machine = random_qcpda(0)
    compile_qcpda(machine)
    assert calls
    calls.clear()
    image, _ = compile_qcpda(machine)
    check_qcpda(machine, "total", tol=1e-3)
    assert calls == []
    check_qpag(image)
    assert calls


@pytest.mark.parametrize(
    "cid, key",
    [("1", ("q", "a")), ("3a", ("a", "q", "Z", "q", "Z")), ("range", ("q", "a", "Z", "q", 1))],
    ids=["plain", "rendered", "extra-missing"],
)
def test_witness_length_stays_strict(cid, key):
    with pytest.raises(ValueError):
        wellformed._violation(cid, key, 0.0)


# ----------------------------------------------------------------------
# a machine of another kind is refused before any work
# ----------------------------------------------------------------------

_TAKES = [
    pytest.param(check_qpag, MachineQPAG, id="check_qpag"),
    pytest.param(check_qcpda, MachineQCPDA, id="check_qcpda"),
    pytest.param(check_ppa, MachinePPA, id="check_ppa"),
    pytest.param(lambda m: audit_unitarity(m, ()), MachineQPAG, id="audit_unitarity"),
    pytest.param(compile_qcpda, MachineQCPDA, id="compile_qcpda"),
    pytest.param(
        lambda m: equiv_check(m, compile_qcpda(random_qcpda(0))[0], [()]),
        MachineQCPDA,
        id="equiv_check-original",
    ),
    pytest.param(
        lambda m: equiv_check(random_qcpda(0), m, [()]), MachineQPAG, id="equiv_check-image"
    ),
    pytest.param(lambda m: run(m, ()), MachineQPAG, id="run"),
    pytest.param(lambda m: next(trajectory(m, ("<", ">"), 4)), MachineQPAG, id="trajectory"),
    pytest.param(lambda m: run_qcpda(m, ()), MachineQCPDA, id="run_qcpda"),
    pytest.param(lambda m: run_ppa(m, ()), MachinePPA, id="run_ppa"),
    pytest.param(lambda m: run_dpda(m, ()), MachinePPA, id="run_dpda"),
]

_KINDS = {
    MachineQPAG: problem1.build_machine,
    MachineQCPDA: lambda: random_qcpda(0),
    MachinePPA: dpda_wcwr,
}


@pytest.mark.parametrize("given", sorted(_KINDS, key=lambda kind: kind.__name__))
@pytest.mark.parametrize("call, expected", _TAKES)
def test_a_machine_of_another_kind_is_refused(call, expected, given):
    machine = _KINDS[given]()
    if given is expected:
        call(machine)
        return
    before = dict(vars(machine))
    message = f"^expected a {expected.__name__}, got a {given.__name__}$"
    with pytest.raises(InvariantError, match=message):
        call(machine)
    # nothing was worked out or kept on the machine
    assert vars(machine) == before
