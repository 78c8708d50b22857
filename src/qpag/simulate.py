"""State-vector evolution for garbage-tape machines, and the step kernel
that every quantum engine shares.

* ``successor(conf, t)`` is the garbage-tape successor rule: row ``t``'s
  stack operation and head move, with a popped symbol appended to the
  garbage tape. ``trajectory`` and ``wellformed.audit_unitarity`` build
  configurations through it.
* ``evolve(psi, tape, columns, top, succ)`` is one unmeasured step of any
  sparse vector whose keys start with (state, head): expand every key
  through its column, accumulate, count parked and undefined-column mass,
  and prune. ``trajectory`` (behind ``run`` and the image runs of
  ``compiler.equiv_check``) and ``branching.qcpda_step`` step through it.
* ``tally`` folds a trajectory into the four-mass ledger for ``run`` and
  the image runs of ``compiler.equiv_check``.

One step of the loop: apply the transition table to every live
configuration, then measure. Measurement projects onto accepting /
rejecting / neither; the squared mass of halting configurations is drained
into the running accept / reject probabilities and the rest keeps evolving.

Bookkeeping rules, all of which keep
``p_acc + p_rej + p_non + truncation_loss == 1`` exactly up to float error:

* a configuration whose head has moved past the right endmarker is parked:
  it cannot read, so its mass is retired into ``p_non`` before the step;
* a live configuration whose column is undefined (no rows of nonzero
  amplitude) contributes its mass to ``truncation_loss`` (the table is only
  a fragment of a unitary there);
* amplitudes below ``PRUNE_THRESHOLD`` are dropped into ``truncation_loss``;
* the run stops when the live mass falls below ``HALT_MASS`` or the step
  budget runs out, and whatever is still live lands in ``p_non``.

Iteration is in sorted configuration order everywhere, so runs are
deterministic regardless of table order or hash seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import StateSpaceOverflow
from .model import (
    CONFIG_CAP,
    HALT_MASS,
    PRUNE_THRESHOLD,
    Configuration,
    MachineQPAG,
    RunResult,
    StateVector,
    StepSnapshot,
    apply_stack_op,
    default_max_steps,
    initial_configuration,
    make_tape,
    vector_norm_sq,
)


def initial_vector(machine: MachineQPAG) -> StateVector:
    return {initial_configuration(machine): 1 + 0j}


def successor(conf: Configuration, t) -> Configuration:
    """The configuration transition ``t`` takes ``conf`` to: the stack
    operation applies and a popped symbol is appended to the garbage tape."""
    stack, delta = apply_stack_op(conf.stack, t.op)
    return Configuration(t.target, conf.head + t.move, stack, conf.garbage + delta)


def _stack_top(conf: Configuration) -> str:
    return conf.stack[-1]


def evolve(psi, tape, columns, top, succ):
    """Apply one transition-table step to a sparse vector whose keys start
    with (state, head). ``top(key)`` is the stack top the key reads and
    ``succ(key, t)`` the key row ``t`` leads to.

    Returns (new vector, parked mass, truncated mass): parked is the mass
    whose head is past the right endmarker, truncated the mass on undefined
    columns plus the amplitudes pruned below ``PRUNE_THRESHOLD``.
    """
    n = len(tape)
    out: dict = {}
    parked = 0.0
    truncated = 0.0
    for key in sorted(psi):
        amp = psi[key]
        head = key[1]
        if head >= n:
            parked += abs(amp) ** 2
            continue
        column = columns.get((key[0], tape[head], top(key)))
        if column is None:
            truncated += abs(amp) ** 2
            continue
        for t in column:
            nxt = succ(key, t)
            out[nxt] = out.get(nxt, 0j) + amp * t.amp
    pruned: dict = {}
    for key in sorted(out):
        amp = out[key]
        if abs(amp) < PRUNE_THRESHOLD:
            truncated += abs(amp) ** 2
        else:
            pruned[key] = amp
    return pruned, parked, truncated


def measure(machine: MachineQPAG, psi: StateVector):
    """Project out halting mass. Returns (survivors, acc_delta, rej_delta)."""
    acc = 0.0
    rej = 0.0
    rest: StateVector = {}
    for conf in sorted(psi):
        amp = psi[conf]
        if conf.state in machine.accepting:
            acc += abs(amp) ** 2
        elif conf.state in machine.rejecting:
            rej += abs(amp) ** 2
        else:
            rest[conf] = amp
    return rest, acc, rej


@dataclass(frozen=True)
class StepRecord:
    """Post-measurement state after one loop iteration."""

    step: int
    psi: StateVector
    acc_delta: float
    rej_delta: float
    parked_delta: float
    truncation_delta: float


def trajectory(
    machine: MachineQPAG,
    tape,
    max_steps: int,
    config_cap: int = CONFIG_CAP,
) -> Iterator[StepRecord]:
    """Yield one StepRecord per loop iteration until the live mass dies out
    or the budget is exhausted."""
    psi = initial_vector(machine)
    for i in range(1, max_steps + 1):
        if vector_norm_sq(psi) < HALT_MASS:
            return
        psi, parked, truncated = evolve(
            psi, tape, machine.columns, _stack_top, successor
        )
        if len(psi) > config_cap:
            raise StateSpaceOverflow(
                f"state vector exceeded {config_cap} configurations at step {i}"
            )
        psi, acc, rej = measure(machine, psi)
        yield StepRecord(i, psi, acc, rej, parked, truncated)


def run(
    machine: MachineQPAG,
    word,
    max_steps: Optional[int] = None,
    trace_depth: int = 0,
) -> RunResult:
    """Full run with probability accounting and optional per-step trace of
    the ``trace_depth`` largest surviving amplitudes."""
    tape = make_tape(machine, word)
    if max_steps is None:
        max_steps = default_max_steps(len(tape) - 2)
    return tally(machine, trajectory(machine, tape, max_steps), trace_depth)


def tally(machine: MachineQPAG, records, trace_depth: int = 0) -> RunResult:
    """Fold a trajectory's step records into the four-mass ledger."""
    p_acc = 0.0
    p_rej = 0.0
    parked = 0.0
    truncated = 0.0
    steps = 0
    final: StateVector = initial_vector(machine)
    snaps: list[StepSnapshot] = []
    for rec in records:
        steps = rec.step
        p_acc += rec.acc_delta
        p_rej += rec.rej_delta
        parked += rec.parked_delta
        truncated += rec.truncation_delta
        final = rec.psi
        if trace_depth > 0:
            top = sorted(final.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
            snaps.append(
                StepSnapshot(
                    step=rec.step,
                    survivors=tuple(top[:trace_depth]),
                    p_acc_delta=rec.acc_delta,
                    p_rej_delta=rec.rej_delta,
                )
            )
    p_non = parked + vector_norm_sq(final)
    return RunResult(
        p_acc=p_acc,
        p_rej=p_rej,
        p_non=p_non,
        truncation_loss=truncated,
        steps=steps,
        trace=tuple(snaps) if trace_depth > 0 else None,
    )
