"""State-vector evolution for garbage-tape machines, the step kernel
every quantum engine shares, and the step loop every run shares.

* Inside the kernel a stack or a garbage tape is a ``Cell``: its top
  symbol, a link to the cell below it, and its length. Cells are interned
  in a table that belongs to one run or one ``run_layers`` batch (``cons``),
  so equal tapes are the same object, a configuration of cells hashes and
  compares in O(1), and a push, a pop or a garbage append costs O(1)
  whatever the depth. Cells point down to their parents only, so a run's
  cells are freed when its table and vectors are.
  A kernel configuration is a (state, head, stack cell, garbage cell)
  tuple: ``start`` and ``evolve`` key their vectors by the
  ``CellConfiguration`` NamedTuple, and ``successor`` returns a plain
  tuple, which hashes and compares as the NamedTuple does. ``view`` turns
  either back into a plain-tuple ``Configuration`` where callers see it:
  ``StepRecord.psi``, the ``run`` trace and
  ``wellformed.audit_unitarity``'s reports.
* A machine compiles its rows once (``model._Machine.columns``, the one
  column index): each column's rows, in canonical order, as plain
  (weight, target, move, stack effect) tuples. A QPAG row's effect is its
  own stack operation, a popped symbol going to the garbage tape; a PPA
  row's is its own operation with no garbage tape; a QCPDA row's is its
  target's scheduled operation, with no garbage tape, and none for a
  halting target.
* A step makes two passes over its data. ``evolve(psi, tape, rows,
  table, limit)`` is the first, one unmeasured step of a sparse vector of
  ``CellConfiguration``s: expand every key through its column of
  ``rows``, a machine's column index, applying each row's stack effect
  inline with new cells interned in ``table``; accumulate; and count
  parked and undefined-column mass. ``measure(machine, psi)`` is the
  kernel's second: prune, drain accepting and rejecting mass, keep the
  survivors and sum their squared norm. ``KernelSteps`` steps through
  the two. ``branching.qcpda_step``, whose branch holds one stack for all
  its keys, makes its own first pass, keyed by (target, head, stack
  effect) rather than by configuration, passes that vector through
  ``measure``, which reads only a key's state, and splits the survivors by
  effect.
* The stack rule is written out twice, each time inside the loop that
  needs it: in ``evolve``, and in ``successor(table, conf, target, move,
  effect)``, which takes one configuration along one compiled row.
  ``wellformed.AuditSteps`` builds its images through ``successor``,
  ``classical.PPASteps`` steps its distribution through it, and
  ``qcpda_step`` builds each class's stack through it. A garbage pop
  of the bottom symbol raises PopOnBottom in both; a scheduled pop of it
  leaves the empty tape, which ``qcpda_step`` refuses once its class
  survives and ``PPASteps`` at once. All four raise the one error that
  ``model.pop_on_bottom`` builds, naming the stack popped.
* ``walk(stepper, tape, point, first, budget)`` is the one step loop of
  every run, quantum or classical, and of the unitarity audit. A stepper
  gives ``start()``, checkpoint 0; ``step(point, tape, i)``, checkpoint
  ``i`` from checkpoint ``i - 1``, and nothing else; ``alive(point)``,
  whether another step may follow; and ``result(point, steps)``. From
  ``point``, checkpoint ``first - 1``, ``walk`` yields ``(i, checkpoint
  i)`` for each step ``i <= budget`` it takes while ``alive`` holds, and names the step in a StateSpaceOverflow: it
  is the only code that names the step of an overflow.
  ``walk_to_end(stepper, word, max_steps)`` walks one fresh run of a word
  to its end and returns its last checkpoint and step count. The
  steppers: ``KernelSteps`` behind ``run``, ``trajectory`` and
  ``problem1.sweep``'s batches; ``compiler.ImageSteps``, its checkpoint
  with a decoherence flag appended, behind the image half of
  ``compiler.equiv_check``; ``branching.BranchSteps`` behind
  ``branching.run_qcpda`` and the other half; ``classical.PPASteps``
  behind ``classical.run_ppa`` and ``classical.run_dpda``; and
  ``wellformed.AuditSteps``, whose checkpoint is the configurations first
  met at the step, behind ``wellformed.audit_unitarity``, which builds its
  report from what the stepper keeps rather than from a ``result``.
* A ``KernelSteps`` checkpoint is the vector after the step, the running
  (p_acc, p_rej, parked, truncated) sums, the vector's squared norm, and
  the step's four deltas (acc, rej, parked, truncated), kept because a
  difference of running sums is not the same float. ``run``'s ledger is
  its last checkpoint's sums, its trace built from each checkpoint in
  hand: its survivors' views, largest first, and its acc and rej deltas;
  ``trajectory`` yields each checkpoint as a ``StepRecord``.
* ``run_layers(stepper, members, expand)`` is the one layer loop of every
  batch. Its stepper also gives ``size(point)``, the entries a checkpoint
  holds; ``cells(point)``, the cells of its ``table`` a checkpoint holds;
  ``heads(point)``, the heads of the entries the next step from a
  checkpoint reads; and ``key(point)``, a hashable value that fixes
  everything of a checkpoint that ``step``, ``alive`` and ``result`` read:
  its running sums and its vectors' items in insertion order, which fix a
  kernel checkpoint's norm (``measure`` sums it over them), and for a
  branch checkpoint each branch's stack cell beside its vector's items,
  since a branch's keys are (state, head) alone. The runs advance
  together, one layer per tape position. A node of a layer is a
  checkpoint, its step, its members, opaque keys with values, each
  standing for some of the runs, and its known tape; the first layer is
  the start checkpoint with the caller's members and an empty tape. At
  position k the caller's ``expand`` splits each node's members into
  groups by (symbol at k, budget), handing back each group's members as
  it wants them one position on. The node first steps through ``walk``
  on its known tape alone until a checkpoint has a head at k, once for
  all its groups: every node but the start holds one budget, since its
  key holds it, and the start's head is at 0, so it takes no such step.
  Each group steps on from that checkpoint, on the known tape and its
  symbol at k, through one step, the step that reads k; on the group's
  last position, the right endmarker, it steps to the end instead. A
  group whose run has ended, in the node's walk or its own, is handed
  back with the result.
  The others become the next layer's nodes, with the walked tape as their
  known tape, two groups merging into one node, their values added key by
  key with ``+``, when their keys
  ``(budget, step, tape[low:k + 1], stepper.key(checkpoint))`` are equal,
  ``low`` being the smallest of the checkpoint's heads (k + 1 if it has
  none). The loop yields only each layer's ends, (group members, result)
  pairs.
  ``run_batch(stepper, runs)`` takes (tape, step budget) pairs and returns
  the stepper's result for each: its members are run indices, each
  counted once, grouped by their tapes. ``problem1.sweep``'s exhaustive
  mode supplies a layout and keeps, per grader state, the set of words
  the state stands for.
* Why merging is exact: a step reads the tape only at the ``heads`` of
  the checkpoint it starts from (the parked check compares a head with
  the tape's length), and heads move 0 or 1, never left, so after a step
  that read at most position k every head is at most k + 1. Take a node
  at layer k: its heads are at most k, and the tapes of all the runs its
  members stand for agree from its smallest head ``low`` through k - 1,
  where its known tape holds them; a group's also agree at k. Until a
  checkpoint has a head at k, every head is below k, the known tape's
  length, and a step moves none past k: so each step of the node's walk
  reads only positions ``low`` through k - 1, which every group's tape
  holds alike, and its parked check parks nothing on the known tape as
  on any longer one. The checkpoints it reaches, and its end if the
  run's mass halts or its budget runs out there, are those each group's
  own walk would reach on its tape, float for float, and a step taken
  again would intern only cells the first one made; so the node takes
  them once, and each group starts from its last one. From there
  each step of the group's walk reads only positions ``low`` through k,
  where the runs agree and the walked tape holds their symbols, and the
  step that reads k ends it. The parked check decides alike for every
  run too: each head it compares is at most k, below the walked tape's
  length k + 1 and below every run's tape length, until a last group's
  walk goes on past k, and a last group's tapes all end at k as the
  walked one does (no word holds an endmarker). So the walks yield,
  float for float, the checkpoints each run's fresh walk computes. A
  merge keeps this: a key fixes the step,
  the budget and all a checkpoint gives ``step``, ``alive`` and
  ``result``, and the tape from ``low`` through k, all that the rest of
  the run reads below k + 1; positions from k + 1 on are grouped by the
  next layers. A member and its value stand for some of the runs; the
  loop only adds values with ``+`` and never reads them. A run that ends
  before its last position (its mass halts or its budget runs out) reads
  nothing more, so its result holds for every way its tape goes on: a
  caller may fold such a group's members through the positions left
  without a step.
  Each result is then the one a fresh run gives, with ``==``. Floats
  compare with ``==``, under which 0.0 and -0.0 are equal; a signed zero
  never reaches a result, since every ledger term is a square, a norm or
  a probability.
* A batch's entry budget: each step counts its entries as in a single
  run, with the batch's one cell table in place of a run's, and a layer
  raises ``StateSpaceOverflow`` ("... at tape position k") as soon as the
  entries its nodes hold together pass ``ENTRY_BUDGET``; it is the only
  limit on a batch's size. Between layers, once runs have ended since the
  table's last rebuild and it has grown
  past twice the cells it kept then (the start's at first), it is rebuilt
  from the cells the live layer's checkpoints reach, which drops the
  ended runs' cells. A one-run batch is never rebuilt before its run
  ends, and a step's own check trips before the layer's whenever a single
  node passes the budget, so it overflows at the step, and with the
  message, of a fresh run.

One step of the loop: apply the transition table to every live
configuration, then measure. Measurement projects onto accepting /
rejecting / neither; the squared mass of halting configurations is drained
into the running accept / reject probabilities and the rest keeps evolving.
The start configuration is never measured: a run puts amplitude 1 on it
whatever the initial state, so an accepting or rejecting initial state
steps on through its column at step 1 like any other state, and
``branching.run_qcpda`` starts alike. ``classical.PPASteps`` instead
books an initial halting state's whole mass at checkpoint 0, with 0 steps.

Bookkeeping rules, all of which keep
``p_acc + p_rej + p_non + truncation_loss == 1`` exactly up to float error:

* a configuration whose head has moved past the right endmarker is parked:
  it cannot read, so its mass is retired into ``p_non`` before the step;
* a live configuration whose column is undefined (no rows of nonzero
  amplitude) contributes its mass to ``truncation_loss`` (the table is only
  a fragment of a unitary there);
* amplitudes below ``PRUNE_THRESHOLD`` are dropped into ``truncation_loss``,
  whatever their state. A step's truncated mass is (undefined-column mass)
  + (pruned mass), each a running sum in vector order;
* the run stops when the live mass falls below ``HALT_MASS`` or the step
  budget runs out, and whatever is still live lands in ``p_non``.

Vectors are iterated in dict insertion order, and every column lists its
rows in canonical order (``model._Machine.columns``), so the order in which
amplitudes are summed depends neither on the order of the transition table
nor on hash seeds, and runs are deterministic.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from . import model
from .errors import InvariantError, StateSpaceOverflow
from .model import (
    GARBAGE_POP,
    HALT_MASS,
    PRUNE_THRESHOLD,
    SCHEDULED_POP,
    Configuration,
    MachineQPAG,
    RunResult,
    StateVector,
    StepSnapshot,
    check_kind,
    over_budget,
    pop_on_bottom,
    room,
    run_bounds,
    step_budget,
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


def view(conf) -> Configuration:
    """A kernel configuration, a ``CellConfiguration`` or a plain tuple of
    (state, head, stack cell, garbage cell), with plain-tuple stack and
    garbage."""
    state, head, stack, garbage = conf
    return _new_configuration(Configuration, (state, head, stack.tokens(), garbage.tokens()))


def start(machine: MachineQPAG, table: dict) -> CellConfiguration:
    """The initial configuration (the initial state, head 0, the stack
    holding the bottom symbol, an empty garbage tape), its tapes interned
    in ``table``."""
    bottom = cons(table, EMPTY, machine.stack_alphabet.bottom)
    return CellConfiguration(machine.initial, 0, bottom, EMPTY)


def successor(table: dict, conf, target: str, move: int, effect) -> tuple[str, int, Cell, Cell]:
    """The configuration a compiled row (weight, ``target``, ``move``,
    ``effect``) takes ``conf`` to, as a plain tuple (state, head, stack
    cell, garbage cell): its stack effect applies as ``evolve``
    applies it, with new cells interned in ``table``. A garbage pop of the
    bottom symbol raises ``model.pop_on_bottom``'s PopOnBottom; a scheduled
    pop of it leaves the empty tape ``EMPTY``."""
    _, head, stack, garbage = conf
    if effect is not None:
        if effect is GARBAGE_POP:
            if stack.depth <= 1:
                raise pop_on_bottom(stack)
            garbage = cons(table, garbage, stack.symbol)
            stack = stack.parent
        elif effect is SCHEDULED_POP:
            stack = stack.parent
        else:
            for symbol in effect:
                stack = cons(table, stack, symbol)
    return (target, head + move, stack, garbage)


# the head of a kernel configuration, its second field
head_of = itemgetter(1)


def evolve(psi, tape, rows, table, limit):
    """Apply one transition-table step to a sparse vector of
    ``CellConfiguration``s: ``rows`` is the machine's column index
    (``columns``) and ``table`` the run's cell table, where new cells are
    interned. Each row's stack effect is applied as ``model.GARBAGE_POP``
    describes it; a garbage pop of the bottom symbol raises
    ``model.pop_on_bottom``'s PopOnBottom.
    This is the first of a step's two passes: it expands and accumulates,
    and prunes nothing.

    Returns (new vector, parked mass, undefined mass): parked is the mass
    whose head is past the right endmarker, undefined the mass on
    undefined columns, each summed in ``psi``'s order. The caller passes
    the new vector to ``measure`` and counts (undefined mass) + (pruned
    mass) as the step's truncated mass.
    Raises ``model.over_budget()`` as soon as the new vector holds more
    than ``limit`` keys: the caller passes ``model.room`` of the entries it
    holds, so the step trips when (held + new keys) pass ``ENTRY_BUDGET``.
    """
    n = len(tape)
    out: dict = {}
    get = out.get
    parked = 0.0
    undefined = 0.0
    for key, amp in psi.items():
        state, head, stack, garbage = key
        if head >= n:
            parked += abs(amp) ** 2
            continue
        column = rows.get((state, tape[head], stack.symbol))
        if column is None:
            undefined += abs(amp) ** 2
            continue
        for weight, target, move, effect in column:
            stack2, garbage2 = stack, garbage
            if effect is not None:
                if effect is GARBAGE_POP:
                    if stack.depth <= 1:
                        raise pop_on_bottom(stack)
                    stack2 = stack.parent
                    garbage2 = cons(table, garbage, stack.symbol)
                elif effect is SCHEDULED_POP:
                    stack2 = stack.parent
                else:
                    for symbol in effect:
                        stack2 = cons(table, stack2, symbol)
            nxt = (target, head + move, stack2, garbage2)
            old = get(nxt)
            if old is None:
                # a plain tuple finds an equal CellConfiguration key
                out[_new_configuration(CellConfiguration, nxt)] = 0j + amp * weight
                if len(out) > limit:
                    raise over_budget()
            else:
                out[nxt] = old + amp * weight
    return out, parked, undefined


def measure(machine: MachineQPAG, psi: StateVector):
    """The second pass of a kernel step: prune, project out halting mass
    and take the survivors' norm, all in one walk over ``psi`` in its
    order.

    Returns (survivors, acc, rej, pruned, norm): the configurations that
    are neither pruned nor halting, with their amplitudes; the squared mass
    drained into accepting and into rejecting states; the squared mass of
    the amplitudes below ``PRUNE_THRESHOLD``, which are dropped whatever
    their state; and the survivors' squared norm, summed left to right in
    their order as ``model.vector_norm_sq`` sums it.
    """
    accepting = machine.accepting
    rejecting = machine.rejecting
    threshold = PRUNE_THRESHOLD
    acc = 0.0
    rej = 0.0
    pruned = 0.0
    norm = 0.0
    rest: StateVector = {}
    for conf, amp in psi.items():
        size = abs(amp)
        if size < threshold:
            pruned += size**2
            continue
        state = conf[0]
        if state in accepting:
            acc += size**2
        elif state in rejecting:
            rej += size**2
        else:
            rest[conf] = amp
            norm += size**2
    return rest, acc, rej, pruned, norm


class StepRecord(model.Frozen):
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
        return {view(conf): amp for conf, amp in self.vector.items()}


def walk(stepper, tape, point, first: int, budget: int):
    """The step loop of every run: from ``point``, the stepper's
    checkpoint ``first - 1``, yield ``(i, checkpoint i)`` for i = first,
    first + 1, ... up to ``budget``, while the stepper finds its last
    checkpoint alive. A StateSpaceOverflow raised inside a step is raised
    again with the step's number."""
    for i in range(first, budget + 1):
        if not stepper.alive(point):
            return
        try:
            point = stepper.step(point, tape, i)
        except StateSpaceOverflow as exc:
            raise StateSpaceOverflow(f"{exc} at step {i}") from None
        yield i, point


def walk_to_end(stepper, word, max_steps: Optional[int] = None):
    """One fresh run of ``word`` on the stepper's machine, at most
    ``max_steps`` steps (``default_max_steps`` of the word's length if
    None). Returns (last checkpoint, steps taken)."""
    tape, budget = run_bounds(stepper.machine, word, max_steps)
    point = stepper.start()
    steps = 0
    for steps, point in walk(stepper, tape, point, 1, budget):
        pass
    return point, steps


class KernelSteps:
    """The stepper behind ``run``, ``trajectory`` and ``problem1.sweep``'s
    batches; the module docstring gives its checkpoint."""

    def __init__(self, machine: MachineQPAG):
        check_kind(machine, MachineQPAG)
        self.machine = machine
        self.table: dict = {}

    def start(self):
        psi = {start(self.machine, self.table): 1 + 0j}
        return (psi, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)

    def step(self, point, tape, i):
        psi, acc, rej, parked, truncated = point[:5]
        limit = room(len(psi) + len(self.table))
        psi, d_parked, d_undefined = evolve(
            psi, tape, self.machine.columns, self.table, limit
        )
        psi, d_acc, d_rej, d_pruned, norm = measure(self.machine, psi)
        d_truncated = d_undefined + d_pruned
        return (
            psi,
            acc + d_acc,
            rej + d_rej,
            parked + d_parked,
            truncated + d_truncated,
            norm,
            d_acc,
            d_rej,
            d_parked,
            d_truncated,
        )

    def alive(self, point) -> bool:
        return not point[5] < HALT_MASS

    def result(self, point, steps: int) -> RunResult:
        _, acc, rej, parked, truncated, norm = point[:6]
        return RunResult(acc, rej, parked + norm, truncated, steps, None)

    def size(self, point) -> int:
        return len(point[0])

    def cells(self, point):
        for conf in point[0]:
            yield conf.stack
            yield conf.garbage

    def heads(self, point):
        return map(head_of, point[0])

    def key(self, point):
        # the vector fixes its norm: ``measure`` sums it over the same items
        return (*point[1:5], tuple(point[0].items()))


def trajectory(machine: MachineQPAG, tape, max_steps: int) -> Iterator[StepRecord]:
    """Yield one StepRecord per loop iteration until the live mass dies out
    or the budget is exhausted. A negative ``max_steps``, or a machine
    that is not a MachineQPAG, raises InvariantError when the first record
    is taken."""
    stepper = KernelSteps(machine)
    budget = step_budget(max_steps)
    for i, point in walk(stepper, tape, stepper.start(), 1, budget):
        yield StepRecord(i, point[0], *point[6:])


def run_batch(stepper, runs) -> list:
    """The stepper's result for each run, a (tape, step budget) pair as
    ``model.run_bounds`` gives it, in input order: each ``==`` a fresh
    ``walk_to_end`` of the tape's word. A tape ends with the only right
    endmarker it holds. The runs go through ``run_layers`` as its members,
    one per run index with value 1, and each end's group names the runs
    that share its result."""
    results = [None] * len(runs)

    def expand(k, members):
        groups: dict = {}
        for m in members:
            tape, budget = runs[m]
            groups.setdefault((tape[k], budget), {})[m] = 1
        return groups

    for ends in run_layers(stepper, dict.fromkeys(range(len(runs)), 1), expand):
        for group, result in ends:
            for m in group:
                results[m] = result
    return results


def run_layers(stepper, members: dict, expand):
    """The one layer loop of every batch (the module docstring gives the
    rules and why merging is exact). ``members`` are the start node's
    members, opaque keys with values; ``expand(k, members)`` splits a
    node's members by what its runs read at tape position ``k``: a dict
    (symbol at ``k``, step budget) -> that group's members, a new dict with
    the keys and values the caller wants one position on. A run's budget
    never changes between layers: ``expand`` gives it the same one at
    every position. When groups merge into one node, the loop adds the
    later ones' members into the first one's dict with ``old + value``.

    Yields, for each position k, the ends of layer k + 1: a list of (group
    members, result) pairs, one per group whose run ended."""
    right_end = stepper.machine.input_alphabet.right_end
    layer = [(stepper.start(), 0, members, ())]
    table = stepper.table
    limit = 2 * len(table)
    ended = False
    k = 0
    while layer:
        layer, ends = _advance(stepper, layer, k, expand, right_end)
        yield ends
        ended = ended or bool(ends)
        if ended and len(table) > limit:
            limit = 2 * _keep_reached(stepper, layer)
            ended = False
        k += 1


def _advance(stepper, layer, k, expand, right_end):
    """The layer after ``layer``, whose nodes' runs have read only tape
    positions below ``k`` and whose known tapes run through position
    k - 1: each node's members are expanded at ``k``, the node is walked
    once to its first checkpoint with a head at ``k``
    (``_reach``), and each group steps on from there with its symbol at
    ``k``, through the step that reads ``k`` or, on the right endmarker, to
    the end. Returns (nodes, ends), the ends as ``run_layers`` yields
    them."""
    nodes: dict = {}
    out: list = []
    ends: list = []
    held = 0
    for point, step, members, known in layer:
        reached = None
        for (symbol, budget), group in expand(k, members).items():
            # one walk serves every group: a node's key holds its budget, and
            # the start, whose groups' budgets may differ, has its head at 0
            reached = reached or _reach(stepper, known, point, step, budget, k)
            here, i = reached
            last = symbol == right_end
            tape = known + (symbol,)
            for i, here in walk(stepper, tape, here, i + 1, budget):
                if not last:
                    break
            else:
                ends.append((group, stepper.result(here, i)))
                continue
            low = min(stepper.heads(here), default=k + 1)
            key = (budget, i, tape[low:], stepper.key(here))
            child = nodes.get(key)
            if child is None:
                nodes[key] = group
                out.append((here, i, group, tape))
                held += stepper.size(here)
                if held > model.ENTRY_BUDGET:
                    raise StateSpaceOverflow(f"{over_budget()} at tape position {k}")
            else:
                for member, value in group.items():
                    old = child.get(member)
                    child[member] = value if old is None else old + value
    return out, ends


def _reach(stepper, known, point, step: int, budget: int, k: int):
    """Walk ``point``, checkpoint ``step``, on the node's known tape
    (positions 0 through k - 1) until a checkpoint has a head at ``k``.
    Returns (that checkpoint, its step), or the run's last checkpoint and
    step when it ends first, so that a group's walk from there takes no
    step."""
    i = step
    if k not in stepper.heads(point):
        for i, point in walk(stepper, known, point, step + 1, budget):
            if k in stepper.heads(point):
                break
    return point, i


def _keep_reached(stepper, layer) -> int:
    """Drop from the stepper's cell table every cell that no checkpoint of
    ``layer`` reaches. Returns how many cells it keeps."""
    kept: dict = {}
    for point, *_ in layer:
        for cell in stepper.cells(point):
            while cell.depth and (cell.parent, cell.symbol) not in kept:
                kept[cell.parent, cell.symbol] = cell
                cell = cell.parent
    stepper.table.clear()
    stepper.table.update(kept)
    return len(kept)


def run(
    machine: MachineQPAG,
    word,
    max_steps: Optional[int] = None,
    trace_depth: int = 0,
) -> RunResult:
    """Full run with probability accounting and optional per-step trace of
    the ``trace_depth`` largest surviving amplitudes. A negative
    ``trace_depth`` raises InvariantError."""
    stepper = KernelSteps(machine)
    if trace_depth < 0:
        raise InvariantError(f"trace depth must be nonnegative, got {trace_depth}")
    tape, budget = run_bounds(machine, word, max_steps)
    point = stepper.start()
    steps = 0
    snaps: list[StepSnapshot] = []
    for steps, point in walk(stepper, tape, point, 1, budget):
        if trace_depth > 0:
            top = sorted(
                ((view(conf), amp) for conf, amp in point[0].items()),
                key=lambda kv: (-abs(kv[1]), kv[0]),
            )
            snaps.append(StepSnapshot(steps, tuple(top[:trace_depth]), point[6], point[7]))
    result = stepper.result(point, steps)
    if trace_depth > 0:
        result = model.replace(result, trace=tuple(snaps))
    return result
