"""State-vector evolution for garbage-tape machines, and the step kernel
that every quantum engine shares.

* Inside the kernel a stack or a garbage tape is a ``Cell``: its top
  symbol, a link to the cell below it, and its length. Cells are interned
  in a table that belongs to one run or one ``PrefixRuns`` batch (``cons``),
  so equal tapes are the same object, a ``CellConfiguration`` hashes and
  compares in O(1), and a push, a pop or a garbage append costs O(1)
  whatever the depth. Cells point down to their parents only, so a run's
  cells are freed when its table and vectors are.
  ``CellConfiguration.view`` turns one back into a plain-tuple
  ``Configuration`` where callers see it: ``StepRecord.psi``, the ``run``
  trace and ``wellformed.audit_unitarity``'s reports.
* ``stack_after(table, stack, op)`` applies a stack operation to a cell
  stack; ``classical.run_ppa`` and ``branching`` keep their stacks
  through it.
  ``successor(table, conf, t)`` is the garbage-tape successor rule over
  cells: row ``t``'s stack operation and head move, with a popped symbol
  appended to the garbage tape. ``trajectory`` and
  ``wellformed.audit_unitarity`` build configurations through it.
* ``evolve(psi, tape, columns, top, succ)`` is one unmeasured step of any
  sparse vector whose keys start with (state, head): expand every key
  through its column, accumulate, count parked and undefined-column mass,
  and prune. ``trajectory`` (behind ``run``), the steppers below and
  ``branching.qcpda_step`` step through it.
* ``tally`` folds a trajectory into the four-mass ledger for ``run``.
* ``PrefixRuns(stepper)`` is the one checkpoint-and-resume driver: it runs
  one word after another, each resuming from the last step the previous
  word's run shares with it. A stepper supplies ``start()``, checkpoint 0;
  ``step(point, tape, i)``, checkpoint ``i`` from checkpoint ``i - 1``
  with the largest head step ``i`` read; ``alive(point)``, whether another
  step may follow; ``result(point, steps)``, the run's result at that
  checkpoint; ``size(point)``, the entries a checkpoint holds, and
  ``cap``, the most entries one may hold; and, for the cell table it keeps
  in ``table``, ``cells(point)``, the cells a checkpoint holds. The
  steppers are
  ``KernelSteps`` behind ``run_many`` (the vector, the four running sums
  added in ``tally``'s order, and the vector's squared norm),
  ``compiler.ImageSteps`` behind the image half of
  ``compiler.equiv_check`` (the same, and the decoherence flag), and
  ``branching.BranchSteps`` behind ``branching.run_qcpda`` and the other
  half (the merged branch frontier and the running p_acc, p_rej, p_non and
  truncation sums).
* Why resuming is exact: a step reads the tape only at the heads of what
  enters it (the parked check compares a head with the tape's length),
  and heads move 0 or 1, never left. So two tapes that agree below
  position L give the same checkpoints through every step whose entering
  heads all stayed below L. ``PrefixRuns`` keeps the checkpoints of the
  previous word's first steps and the largest head that entered any step
  so far; the next word resumes from the last kept checkpoint whose
  largest head lies below the common prefix of the two tapes, and its
  result is checkpoint ``min(budget, last)``. A stop the ``alive`` test
  makes reads no tape, so it carries over. The checkpoints hold the very
  floats a fresh run computes, so the results are equal with ``==``. No
  tape is a proper prefix of another, because a tape ends with the right
  endmarker and no word holds one; so a checkpoint below the common prefix
  never saw a parked check the two lengths decide differently, and a tape
  of length T shares at most T - 1 symbols with any other.
* What ``PrefixRuns`` keeps: a run stops keeping checkpoints at the first
  step whose largest head reaches T - 1, since only the same tape again
  could resume there, and at the first checkpoint that would lift the
  entries kept past the stepper's ``cap``; it steps on from a rolling
  checkpoint. So the kept checkpoints together hold at most as much as one
  live checkpoint may, and a single run holds at most twice that.
  Dropping a checkpoint costs only recomputation. All words share one
  cell table. When it grows past twice its size after the last rebuild,
  it is rebuilt from the cells the kept checkpoints reach. So it never
  holds more than twice the cells reached at the last rebuild, and each
  rebuild follows at least as many new cells as it keeps.
* ``run_many(machine, words)`` yields ``run``'s untraced result for each
  word, in order, through ``PrefixRuns(KernelSteps(machine))``;
  ``problem1.sweep`` runs through it.

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

Vectors are iterated in dict insertion order, and every column lists its
rows in canonical order (``model._Machine.columns``), so the order in which
amplitudes are summed depends neither on the order of the transition table
nor on hash seeds, and runs are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterator, NamedTuple, Optional

from .errors import PopOnBottom, StateSpaceOverflow
from .model import (
    CONFIG_CAP,
    HALT_MASS,
    PRUNE_THRESHOLD,
    Configuration,
    MachineQPAG,
    RunResult,
    StateVector,
    StepSnapshot,
    default_max_steps,
    initial_configuration,
    join_tokens,
    make_tape,
    vector_norm_sq,
)


class Cell:
    """The top symbol of an interned stack or garbage tape, on top of the
    tape ``parent``; ``len`` is the tape's length. Build cells with
    ``cons`` only, so that two cells of one run are equal exactly when they
    are the same object."""

    __slots__ = ("parent", "symbol", "depth", "_tokens")

    def __init__(self, parent: Optional[Cell], symbol: Optional[str], depth: int):
        self.parent = parent
        self.symbol = symbol
        self.depth = depth

    def __len__(self) -> int:
        return self.depth

    def tokens(self) -> tuple[str, ...]:
        """The tape's symbols, bottom first. The tuple is kept on this cell
        and on each cell below it, so a later call costs O(1)."""
        chain = []
        cell = self
        while True:
            try:
                out = cell._tokens
                break
            except AttributeError:
                chain.append(cell)
                cell = cell.parent
        for cell in reversed(chain):
            out = cell._tokens = out + (cell.symbol,)
        return out


# The empty tape: the garbage tape at the start of a run, and the cell below
# every stack's bottom symbol.
EMPTY = Cell(None, None, 0)
EMPTY._tokens = ()


def cons(table: dict, parent: Cell, symbol: str) -> Cell:
    """The cell of ``table`` holding ``symbol`` on top of ``parent``."""
    cell = table.get((parent, symbol))
    if cell is None:
        cell = table[parent, symbol] = Cell(parent, symbol, parent.depth + 1)
    return cell


# Builds a NamedTuple without its Python-level __new__.
_new_configuration = tuple.__new__


class CellConfiguration(NamedTuple):
    """A configuration inside the kernel: stack and garbage are cells."""

    state: str
    head: int
    stack: Cell
    garbage: Cell

    def view(self) -> Configuration:
        """The same configuration with plain-tuple stack and garbage."""
        return _new_configuration(
            Configuration,
            (self.state, self.head, self.stack.tokens(), self.garbage.tokens()),
        )


def start(machine: MachineQPAG, table: dict) -> CellConfiguration:
    """``initial_configuration`` with its tapes interned in ``table``."""
    bottom = cons(table, EMPTY, machine.stack_alphabet.bottom)
    return CellConfiguration(machine.initial, 0, bottom, EMPTY)


def initial_vector(machine: MachineQPAG) -> StateVector:
    return {initial_configuration(machine): 1 + 0j}


def stack_after(table: dict, stack: Cell, op) -> Cell:
    """The stack ``op`` leaves, its new cells interned in ``table``.
    Popping the bottom symbol raises PopOnBottom."""
    kind = op.kind
    if kind == "push":
        for symbol in op.payload:
            stack = cons(table, stack, symbol)
    elif kind == "pop":
        if stack.depth <= 1:
            raise PopOnBottom(f"pop on stack {join_tokens(stack.tokens())!r}")
        stack = stack.parent
    return stack


def successor(table: dict, conf: CellConfiguration, t) -> CellConfiguration:
    """The configuration transition ``t`` takes ``conf`` to: the stack
    operation applies as in ``stack_after`` and a popped symbol is appended
    to the garbage tape. New cells are interned in ``table``. Popping the
    bottom symbol raises PopOnBottom. The stack operation is written out
    here rather than called: this is the innermost loop of every run."""
    stack = conf.stack
    garbage = conf.garbage
    kind = t.op.kind
    if kind == "push":
        for symbol in t.op.payload:
            stack = cons(table, stack, symbol)
    elif kind == "pop":
        if stack.depth <= 1:
            raise PopOnBottom(f"pop on stack {join_tokens(stack.tokens())!r}")
        garbage = cons(table, garbage, stack.symbol)
        stack = stack.parent
    return _new_configuration(
        CellConfiguration, (t.target, conf.head + t.move, stack, garbage)
    )


def _stack_top(conf: CellConfiguration) -> str:
    return conf.stack.symbol


def evolve(psi, tape, columns, top, succ):
    """Apply one transition-table step to a sparse vector whose keys start
    with (state, head). ``top(key)`` is the stack top the key reads and
    ``succ(key, t)`` the key row ``t`` leads to.

    Returns (new vector, parked mass, truncated mass): parked is the mass
    whose head is past the right endmarker, truncated the mass on undefined
    columns plus the amplitudes pruned below ``PRUNE_THRESHOLD``. Raises
    StateSpaceOverflow as soon as the new vector holds more than
    ``CONFIG_CAP`` keys, read when the call starts.
    """
    n = len(tape)
    cap = CONFIG_CAP
    out: dict = {}
    parked = 0.0
    truncated = 0.0
    for key, amp in psi.items():
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
            if len(out) > cap:
                raise StateSpaceOverflow(
                    f"state vector exceeded {cap} configurations"
                )
    pruned: dict = {}
    for key, amp in out.items():
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
    for conf, amp in psi.items():
        if conf.state in machine.accepting:
            acc += abs(amp) ** 2
        elif conf.state in machine.rejecting:
            rej += abs(amp) ** 2
        else:
            rest[conf] = amp
    return rest, acc, rej


@dataclass(frozen=True)
class StepRecord:
    """Post-measurement state after one loop iteration. ``vector`` is keyed
    by the kernel's ``CellConfiguration``s; ``psi`` is the same vector keyed
    by plain-tuple ``Configuration``s, built the first time it is read."""

    step: int
    vector: StateVector
    acc_delta: float
    rej_delta: float
    parked_delta: float
    truncation_delta: float

    @cached_property
    def psi(self) -> StateVector:
        return {conf.view(): amp for conf, amp in self.vector.items()}


def trajectory(machine: MachineQPAG, tape, max_steps: int) -> Iterator[StepRecord]:
    """Yield one StepRecord per loop iteration until the live mass dies out
    or the budget is exhausted."""
    table: dict = {}
    succ = partial(successor, table)
    psi = {start(machine, table): 1 + 0j}
    for i in range(1, max_steps + 1):
        if vector_norm_sq(psi) < HALT_MASS:
            return
        try:
            psi, parked, truncated = evolve(
                psi, tape, machine.columns, _stack_top, succ
            )
        except StateSpaceOverflow as exc:
            raise StateSpaceOverflow(f"{exc} at step {i}") from None
        psi, acc, rej = measure(machine, psi)
        yield StepRecord(i, psi, acc, rej, parked, truncated)


def _common_prefix(a: tuple, b: tuple) -> int:
    """How many leading symbols the tapes share."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


class KernelSteps:
    """The stepper behind ``run_many``: ``trajectory``'s loop, one step at a
    time. A checkpoint is the vector after the step, the running (p_acc,
    p_rej, parked, truncated) sums added in ``tally``'s order, and the
    vector's squared norm."""

    def __init__(self, machine: MachineQPAG):
        self.machine = machine
        self.table: dict = {}
        self._succ = partial(successor, self.table)

    def start(self):
        psi = {start(self.machine, self.table): 1 + 0j}
        return (psi, 0.0, 0.0, 0.0, 0.0, vector_norm_sq(psi))

    def step(self, point, tape, i):
        psi, acc, rej, parked, truncated, _ = point
        read = max(conf[1] for conf in psi)
        psi, d_parked, d_truncated = evolve(
            psi, tape, self.machine.columns, _stack_top, self._succ
        )
        psi, d_acc, d_rej = measure(self.machine, psi)
        point = (
            psi,
            acc + d_acc,
            rej + d_rej,
            parked + d_parked,
            truncated + d_truncated,
            vector_norm_sq(psi),
        )
        return point, read

    def alive(self, point) -> bool:
        return not point[5] < HALT_MASS

    def result(self, point, steps: int) -> RunResult:
        _, acc, rej, parked, truncated, norm = point
        return RunResult(acc, rej, parked + norm, truncated, steps, None)

    def size(self, point) -> int:
        return len(point[0])

    @property
    def cap(self) -> int:
        return CONFIG_CAP

    def cells(self, point):
        for conf in point[0]:
            yield conf.stack
            yield conf.garbage


class PrefixRuns:
    """The checkpoint-and-resume driver: one run after another of the
    stepper's machine, each resuming from the last step the previous word's
    run shares with it.

    ``path[i]`` is the stepper's checkpoint ``i``, kept for the first
    steps of the last run only. ``reach[i]`` is the largest head that any
    of steps 1..i read, or -1 for ``i = 0``. ``held[i]`` is the entries
    checkpoints 0..i hold together. ``table`` is the stepper's cell table,
    which holds the cells of every run.
    """

    def __init__(self, stepper):
        self.stepper = stepper
        self.table: dict = stepper.table
        self.tape: tuple = ()
        self.path = [stepper.start()]
        self.reach = [-1]
        self.held = [stepper.size(self.path[0])]
        self._table_limit = 2 * len(self.table)

    def run(self, word, max_steps: Optional[int] = None):
        """The stepper's result for ``word`` after at most ``max_steps``
        steps (``default_max_steps`` of the word's length if None)."""
        stepper = self.stepper
        tape = make_tape(stepper.machine, word)
        budget = max_steps
        if budget is None:
            budget = default_max_steps(len(tape) - 2)
        path = self.path
        reach = self.reach
        held = self.held
        # reach is nondecreasing: keep the checkpoints that read only the
        # shared prefix
        keep = bisect_left(reach, _common_prefix(self.tape, tape))
        del path[keep:], reach[keep:], held[keep:]
        self.tape = tape
        # another tape shares at most len(tape) - 1 symbols with this one,
        # so it resumes only from a checkpoint whose reach is below that
        shared = len(tape) - 1
        cap = stepper.cap
        point = path[-1]
        read = reach[-1]
        step = len(path)
        while step <= budget and stepper.alive(point):
            try:
                point, head = stepper.step(point, tape, step)
            except StateSpaceOverflow as exc:
                raise StateSpaceOverflow(f"{exc} at step {step}") from None
            read = max(read, head)
            # keep checkpoints while the path runs unbroken to this step
            if len(path) == step and read < shared:
                total = held[-1] + stepper.size(point)
                if total <= cap:
                    path.append(point)
                    reach.append(read)
                    held.append(total)
            step += 1
        # point is checkpoint step - 1; an earlier one is kept
        steps = min(budget, step - 1)
        if steps < step - 1:
            point = path[steps]
        result = stepper.result(point, steps)
        if len(self.table) > self._table_limit:
            self._rebuild_table()
        return result

    def _rebuild_table(self):
        """Keep only the cells the path's checkpoints reach."""
        kept: dict = {}
        for point in self.path:
            for cell in self.stepper.cells(point):
                while cell.depth and (cell.parent, cell.symbol) not in kept:
                    kept[cell.parent, cell.symbol] = cell
                    cell = cell.parent
        self.table.clear()
        self.table.update(kept)
        self._table_limit = 2 * len(kept)


def run_many(
    machine: MachineQPAG, words, max_steps: Optional[int] = None
) -> Iterator[RunResult]:
    """Yield ``run(machine, word, max_steps)`` for each word, in order,
    sharing the steps that consecutive words' common tape prefix fixes.
    Words are read one at a time, as results are taken."""
    runs = PrefixRuns(KernelSteps(machine))
    for word in words:
        yield runs.run(word, max_steps)


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
        final = rec.vector
        if trace_depth > 0:
            top = sorted(rec.psi.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
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
