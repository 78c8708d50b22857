"""Probabilistic and deterministic pushdown runners."""

import random
from qpag.model import replace

import pytest

from qpag import model
from qpag.classical import ACCEPT, BLOCK, LOOP, REJECT, PPASteps, run_dpda, run_ppa
from qpag.errors import NotDeterministic, PopOnBottom, StateSpaceOverflow
from qpag.model import (
    EPSILON,
    POP,
    InputAlphabet,
    MachinePPA,
    StackAlphabet,
    TransitionPPA,
    push,
)

from .corpus import coin_ppa, dpda_wcwr
from .reference import ref_wcwr_member

_ALPHA = InputAlphabet(symbols=("<", "a", "b", "c", ">"), left_end="<", right_end=">")
_GAMMA = StackAlphabet(symbols=("Z", "a", "b"), bottom="Z")


def _ppa(rows, states, accepting=frozenset(), rejecting=frozenset()):
    return MachinePPA(
        states=states,
        input_alphabet=_ALPHA,
        stack_alphabet=_GAMMA,
        transitions=tuple(rows),
        initial=states[0],
        accepting=accepting,
        rejecting=rejecting,
    )


# ----------------------------------------------------------------------
# deterministic runner
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "word",
    ["", "c", "aca", "bcb", "abcba", "bacab", "abccba", "ab", "acb", "abca",
     "aacaa", "abcab", "cc", "acaa", "aabcbaa"],
)
def test_wcwr_matches_reference(word):
    got = run_dpda(dpda_wcwr(), word)
    want = ACCEPT if ref_wcwr_member(word) else REJECT
    assert got == want, word


def test_wcwr_larger_corpus():
    import itertools

    words = [""]
    for n in range(1, 6):
        words.extend("".join(t) for t in itertools.product("abc", repeat=n))
    hits = 0
    for w in words:
        got = run_dpda(dpda_wcwr(), w)
        member = ref_wcwr_member(w)
        hits += member
        assert got == (ACCEPT if member else REJECT), w
    assert hits > 3  # corpus exercises both answers


def test_dpda_rejects_on_nondeterministic_column():
    rows = [
        TransitionPPA("d0", "a", "Z", "d0", EPSILON, 1, 0.5),
        TransitionPPA("d0", "a", "Z", "d1", EPSILON, 1, 0.5),
    ]
    m = _ppa(rows, ("d0", "d1"))
    with pytest.raises(NotDeterministic):
        run_dpda(m, "a")


def test_dpda_requires_weight_one_rows():
    m = _ppa([TransitionPPA("d0", "a", "Z", "d0", EPSILON, 1, 0.9)], ("d0",))
    with pytest.raises(NotDeterministic):
        run_dpda(m, "a")


def test_determinism_scan_runs_once_per_machine():
    m = dpda_wcwr()
    assert run_dpda(m, "aca") == ACCEPT
    # the scan's answer is kept on the machine for later runs
    assert vars(m)["nondeterministic_column"] is None
    assert run_dpda(m, "ab") == REJECT
    coin = coin_ppa()
    with pytest.raises(NotDeterministic, match=r"column \(state=c0, read=<, top=Z\)"):
        run_dpda(coin, "a")
    assert vars(coin)["nondeterministic_column"] == ("c0", "<", "Z")


def test_dpda_block_on_undefined_column():
    rows = [TransitionPPA("d0", "<", "Z", "d1", EPSILON, 1, 1.0)]
    m = _ppa(rows, ("d0", "d1"))
    assert run_dpda(m, "a") == BLOCK
    # a column whose only row has probability zero is undefined too
    rows.append(TransitionPPA("d1", "a", "Z", "d0", EPSILON, 1, 0.0))
    m = _ppa(rows, ("d0", "d1"))
    assert run_dpda(m, "a") == BLOCK


def test_dpda_block_when_parked():
    # always move right: runs off the tape without halting
    rows = []
    for read in _ALPHA.symbols:
        for top in _GAMMA.symbols:
            rows.append(TransitionPPA("d0", read, top, "d0", EPSILON, 1, 1.0))
    m = _ppa(rows, ("d0",))
    assert run_dpda(m, "ab") == BLOCK


def test_dpda_loop_detected():
    # bounce in place on the left endmarker
    rows = []
    for read in _ALPHA.symbols:
        for top in _GAMMA.symbols:
            rows.append(TransitionPPA("d0", read, top, "d0", EPSILON, 0, 1.0))
    m = _ppa(rows, ("d0",))
    assert run_dpda(m, "ab") == LOOP


# ----------------------------------------------------------------------
# probabilistic runner
# ----------------------------------------------------------------------


def test_coin_is_exactly_fair():
    res = run_ppa(coin_ppa(), "aaa")
    assert res.p_acc == 0.5
    assert res.p_rej == 0.5
    assert res.p_non == 0.0
    assert res.total() == 1.0


def test_coin_fair_on_empty_word():
    res = run_ppa(coin_ppa(), "")
    assert res.p_acc == 0.5 and res.p_rej == 0.5


def test_ppa_undefined_column_leaks_and_warns():
    rows = [
        TransitionPPA("p0", "<", "Z", "p1", EPSILON, 1, 1.0),
        # p1 has no rows: half the question is where the mass goes
    ]
    m = _ppa(rows, ("p0", "p1"))
    with pytest.warns(UserWarning):
        res = run_ppa(m, "a")
    assert res.p_non == pytest.approx(1.0, abs=1e-12)
    # p1's column holding only a probability-zero row is just as undefined
    rows.append(TransitionPPA("p1", "a", "Z", "p0", EPSILON, 1, 0.0))
    m = _ppa(rows, ("p0", "p1"))
    with pytest.warns(UserWarning):
        res = run_ppa(m, "a")
    assert res.p_non == pytest.approx(1.0, abs=1e-12)


def test_ppa_parked_mass_is_non_halting():
    rows = []
    for read in _ALPHA.symbols:
        for top in _GAMMA.symbols:
            rows.append(TransitionPPA("p0", read, top, "p0", EPSILON, 1, 1.0))
    m = _ppa(rows, ("p0",))
    res = run_ppa(m, "ab")
    assert res.p_non == pytest.approx(1.0, abs=1e-12)


def test_ppa_initial_halting_degenerate():
    rows = [TransitionPPA("p0", "a", "Z", "p0", EPSILON, 1, 1.0)]
    m = _ppa(rows, ("p0",), accepting=frozenset({"p0"}))
    res = run_ppa(m, "a")
    assert res.p_acc == 1.0 and res.steps == 0


def test_ppa_split_then_merge_probabilities():
    # p0 splits, both branches accept one step later
    rows = [
        TransitionPPA("p0", "<", "Z", "p1", EPSILON, 1, 0.25),
        TransitionPPA("p0", "<", "Z", "p2", EPSILON, 1, 0.75),
        TransitionPPA("p1", "a", "Z", "pA", EPSILON, 1, 1.0),
        TransitionPPA("p2", "a", "Z", "pA", EPSILON, 1, 1.0),
    ]
    m = _ppa(rows, ("p0", "p1", "p2", "pA"), accepting=frozenset({"pA"}))
    res = run_ppa(m, "a")
    assert res.p_acc == 1.0


def test_ppa_stack_ops_respected():
    rows = [
        TransitionPPA("p0", "<", "Z", "p1", push("a"), 1, 1.0),
        TransitionPPA("p1", "a", "a", "p2", POP, 1, 1.0),
        TransitionPPA("p2", ">", "Z", "pA", EPSILON, 0, 1.0),
    ]
    m = _ppa(rows, ("p0", "p1", "p2", "pA"), accepting=frozenset({"pA"}))
    res = run_ppa(m, "a")
    assert res.p_acc == 1.0


def test_ppa_mass_conserved_with_halting_split():
    rows = [
        TransitionPPA("p0", "<", "Z", "pA", EPSILON, 1, 0.3),
        TransitionPPA("p0", "<", "Z", "pR", EPSILON, 1, 0.3),
        TransitionPPA("p0", "<", "Z", "p0", EPSILON, 0, 0.4),
    ]
    m = _ppa(
        rows,
        ("p0", "pA", "pR"),
        accepting=frozenset({"pA"}),
        rejecting=frozenset({"pR"}),
    )
    res = run_ppa(m, "a")
    # geometric series 0.3 * sum 0.4^k = 0.5 each side, truncated by budget
    assert res.total() == pytest.approx(1.0, abs=1e-12)
    assert res.p_acc == pytest.approx(res.p_rej, abs=1e-12)
    assert res.p_acc == pytest.approx(0.5, abs=1e-6)


def _lopsided_ppa():
    # uneven splits, pushes and pops whose branches merge on equal stacks:
    # summation order shows in the last bits of the ledger
    rows = [TransitionPPA("p0", "<", "Z", "p1", EPSILON, 1, 1.0)]
    for top in _GAMMA.symbols:
        rows += [
            TransitionPPA("p1", "a", top, "p1", push("a"), 1, 0.3),
            TransitionPPA("p1", "a", top, "p2", push("b", "a"), 1, 0.7),
            TransitionPPA("p2", "a", top, "p1", EPSILON, 1, 0.1),
            TransitionPPA("p2", "a", top, "p2", push("a"), 1, 0.2),
            TransitionPPA("p2", "a", top, "pR", EPSILON, 1, 0.7),
            TransitionPPA("p1", ">", top, "pA", EPSILON, 0, 1 / 3),
            TransitionPPA("p1", ">", top, "pR", EPSILON, 0, 2 / 3),
            TransitionPPA("p2", ">", top, "pA", EPSILON, 0, 1.0),
        ]
        if top == "Z":
            rows += [
                TransitionPPA("p1", "b", top, "pR", EPSILON, 1, 1.0),
                TransitionPPA("p2", "b", top, "pA", EPSILON, 1, 1.0),
            ]
        else:
            rows += [
                TransitionPPA("p1", "b", top, "p2", POP, 1, 0.6),
                TransitionPPA("p1", "b", top, "p1", POP, 0, 0.4),
                TransitionPPA("p2", "b", top, "p1", POP, 1, 1.0),
            ]
    return _ppa(
        rows,
        ("p0", "p1", "p2", "pA", "pR"),
        accepting=frozenset({"pA"}),
        rejecting=frozenset({"pR"}),
    )


def test_ppa_does_not_depend_on_table_order():
    words = ["", "a", "ab", "aab", "abab", "aaabbb", "aabab", "aaaabbba"]
    cases = [
        (_lopsided_ppa(), words),
        (coin_ppa(), ["", "a", "aaa"]),
        (dpda_wcwr(), ["c", "abcba", "abcab", "aabcbaa"]),
    ]
    for m, ws in cases:
        rows = list(m.transitions)
        for seed in range(3):
            random.Random(seed).shuffle(rows)
            shuffled = replace(m, transitions=tuple(rows))
            for w in ws:
                assert run_ppa(shuffled, w) == run_ppa(m, w), (seed, w)


@pytest.mark.parametrize("n", [100, 400])
def test_deep_stacks_keep_exact_ledgers(n):
    u = "".join(random.Random(n).choice("ab") for _ in range(n))
    m = dpda_wcwr()
    member = run_ppa(m, u + "c" + u[::-1])
    assert (member.p_acc, member.p_rej, member.p_non) == (1.0, 0.0, 0.0)
    assert member.steps == 2 * n + 3
    assert run_dpda(m, u + "c" + u[::-1]) == ACCEPT
    flipped = u + "c" + u[::-1][:-1] + ("a" if u[0] == "b" else "b")
    assert run_ppa(m, flipped).p_rej == 1.0
    assert run_dpda(m, flipped) == REJECT


def test_pop_on_bottom_raises_in_both_runners():
    rows = [
        TransitionPPA("p0", "<", "Z", "p1", push("a"), 1, 1.0),
        TransitionPPA("p1", "a", "a", "p1", POP, 1, 1.0),
        TransitionPPA("p1", "a", "Z", "p1", POP, 1, 1.0),
        TransitionPPA("p1", ">", "Z", "p1", EPSILON, 1, 1.0),
    ]
    m = _ppa(rows, ("p0", "p1"))
    assert run_ppa(m, "a").p_non == 1.0
    with pytest.raises(PopOnBottom, match="^pop on stack 'Z'$"):
        run_ppa(m, "aa")
    with pytest.raises(PopOnBottom, match="^pop on stack 'Z'$"):
        run_dpda(m, "aa")


def test_ppa_distribution_cap_names_the_step(monkeypatch):
    # every step pushes a or b with probability 1/2: 2**i stacks at step i,
    # on 2**(i + 1) - 1 cells. Step 3 holds 4 + 7 + 8 = 19 entries, step 4
    # 8 + 15 + 16
    rows = [
        TransitionPPA("p0", read, top, "p0", push(symbol), 0, 0.5)
        for read in _ALPHA.symbols
        for top in _GAMMA.symbols
        for symbol in ("a", "b")
    ]
    m = _ppa(rows, ("p0",))
    assert run_ppa(m, "a", max_steps=3).p_non == 1.0
    monkeypatch.setattr(model, "ENTRY_BUDGET", 19)
    message = r"^live entries exceeded 19 at step 4$"
    with pytest.raises(StateSpaceOverflow, match=message):
        run_ppa(m, "a")


def test_result_sums_live_mass_left_to_right():
    # plain left-to-right adds give 1.0; a compensated sum (CPython 3.12's
    # sum()) would give 1.0000000000000002
    stepper = PPASteps(coin_ppa())
    (first,) = stepper.start()[0]
    masses = (1.0, 1e-16, 1e-16)
    dist = {first._replace(head=head): mass for head, mass in enumerate(masses)}
    assert stepper.result((dist, 0.0, 0.0, 0.0), 3).p_non == 1.0
