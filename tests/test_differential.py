"""Differential tests: two ways of deciding the same thing must agree.

* The static column checks against the unitarity audit, over random
  garbage-tape tables: an audit failure of a kind the column conditions
  cover must show in the checker's report.
* ``simulate.run_batch`` against a fresh ``run`` of each of its runs, over
  random garbage-tape tables, mixed words and mixed step budgets.
"""

from __future__ import annotations

import random

from qpag.errors import PopOnBottom, StateSpaceOverflow
from qpag.model import make_tape, run_bounds
from qpag.simulate import KernelSteps, run, run_batch
from qpag.wellformed import audit_unitarity, check_qpag

from .generators import random_qpag_table, words_up_to

_ORTHOGONALITY = {"2", "3a", "3b", "4", "5a", "5b"}


def test_audit_failures_show_in_the_column_checks():
    # an orthogonality failure fails partial mode on an orthogonality
    # condition; a norm failure fails total mode on the column its
    # configuration reads; an audit that pops the bottom symbol meets a
    # partial-mode "pop-on-z" row
    met = {"orthogonality": 0, "norm": 0, "pop": 0}
    for seed in range(400):
        machine = random_qpag_table(seed)
        partial = {v.condition for v in check_qpag(machine, "partial").violations}
        flagged_columns = {
            tuple(value for _, value in v.witness)
            for v in check_qpag(machine, "total").violations
            if v.condition == "1"
        }
        for word in words_up_to(3):
            try:
                report = audit_unitarity(machine, word, depth=6)
            except PopOnBottom:
                assert "pop-on-z" in partial, (seed, word)
                met["pop"] += 1
                continue
            tape = make_tape(machine, word)
            for failure in report.failures:
                met[failure.kind] += 1
                if failure.kind == "orthogonality":
                    assert partial & _ORTHOGONALITY, (seed, word, failure)
                else:
                    (conf,) = failure.configs
                    column = (conf.state, tape[conf.head], conf.stack[-1])
                    assert column in flagged_columns, (seed, word, failure)
    assert all(met.values()), met


def test_run_batch_equals_fresh_runs():
    # every word of length up to 3 under mixed budgets, shuffled, in one
    # batch per machine; a run whose fresh walk raises is left out
    for seed in range(200):
        machine = random_qpag_table(seed)
        runs = []
        fresh = []
        for word in words_up_to(3):
            for budget in (0, 1, 3, 8, None):
                try:
                    fresh.append(run(machine, word, budget))
                except (PopOnBottom, StateSpaceOverflow):
                    continue
                runs.append(run_bounds(machine, word, budget))
        order = list(range(len(runs)))
        random.Random(seed).shuffle(order)
        got = run_batch(KernelSteps(machine), [runs[i] for i in order])
        assert got == [fresh[i] for i in order], seed
