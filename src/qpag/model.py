"""Core machine descriptions shared by every engine in the package.

Three machine flavours over the same configuration space:

* ``MachineQPAG``: amplitudes on (state, input, stack-top) columns, a stack
  operation and a head move per transition, plus a write-once garbage tape
  that receives every popped symbol.
* ``MachineQCPDA``: amplitudes on (state, input, stack-top) columns with the
  head move only; the stack operation is scheduled classically per target
  state and applied by measurement.
* ``MachinePPA``: probabilities instead of amplitudes, otherwise the same
  shape as the QPAG.

Every object here is a frozen record: it derives from ``Frozen``, whose
fields are the class's annotated names, its bases' first. The three machine
classes derive from one, ``_Machine``: its seven fields (states, the two
alphabets, transitions, initial, accepting, rejecting) come first, and its
``__post_init__`` is the one construction check, which reads the row class
off the machine class (``row_class``) and the weight field off
``_weight``. ``MachineQPAG`` adds ``declared_push_strings`` and
``MachineQCPDA`` adds ``sigma``, each checked after the shared check.
The three row classes likewise share a base of ``(source, read, top,
target)`` and add their own fields after it. ``replace`` copies a record
with some fields changed and checks the copy as a new record is checked.

``_Machine`` holds the one column index, ``columns``, the form every
stepper reads: each row as a plain (weight, target, move, stack effect)
tuple, built once per machine. A QPAG or PPA row's effect is read off its
own operation, a QCPDA row's off its target's scheduled one;
``GARBAGE_POP`` gives the forms.

Symbols are text tokens. The input alphabet reserves two tokens as the left
and right endmarker (spelled ``<`` / ``>`` in files, shown as ``¢`` / ``$``
in traces); the stack alphabet reserves one token as the bottom symbol,
which lives at stack position 0 and nowhere else.

Every report record (run results here, and the reports of ``wellformed``,
``compiler`` and ``problem1``) derives from ``Record``, whose one
``to_json_dict`` writes the fields in field order under their own names,
from the record's ``__dict__``: ``Frozen`` compares and hashes a record by
reading its fields each time, and a report keeps nothing beside them. A
machine's ``__dict__`` also keeps what is cached on it after construction
(see ``Frozen``), which no comparison, hash or report reads. A
field's value goes out as it is, unless the class's ``_render`` table maps
the field to a function ``fn``; then ``fn(value)`` goes out: ``records``
for a tuple of records (or None), ``dict`` or ``list`` for a tuple of pairs
or of strings, or a function of the record's module for a shape of its own.
"""

from __future__ import annotations

import cmath
import math
from contextlib import suppress
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import NamedTuple, Optional, Union

from .errors import EndmarkerInWord, InvariantError, PopOnBottom, StateSpaceOverflow, UnknownSymbol

# Magnitude slack for single amplitudes and vector norms.
AMP_MAG_TOL = 1e-9
# Amplitudes below this magnitude are dropped; their mass is accounted as loss.
PRUNE_THRESHOLD = 1e-12
# Non-halting mass below this ends a run early.
HALT_MASS = 1e-12
# The live entries one step of a run may hold: the keys of the checkpoint
# it started from (a state vector, a PPA distribution or a frontier's
# branch vectors, or the configurations an audit has met), the keys it has
# made so far, and the cells of the run's interned table when it began.
# In a ``simulate.run_layers`` batch each step counts so, with the batch's
# one table, and a layer counts the entries its nodes hold together. A
# counted entry costs at most about 210 bytes of peak RSS (CPython 3.11,
# uncounted kernel survivors included), so 400,000 entries hold a run
# within about 85 MB of the interpreter's base. CHANGES.md records the
# measurements.
ENTRY_BUDGET = 400_000

# The stack effect of a compiled row (``_Machine.columns``) is None, which
# leaves the stack alone; the tuple of symbols a push puts on it; or one of
# two pops. A QPAG's pop compiles to ``GARBAGE_POP``, which moves the top
# symbol onto the garbage tape; ``simulate.evolve`` and ``simulate.successor``
# raise PopOnBottom when it meets the bottom symbol. A QCPDA's scheduled pop
# and a PPA's pop compile to ``SCHEDULED_POP``, which drops the top symbol
# unchecked and keeps no garbage, so the bottom's pop leaves the empty tape:
# ``branching.qcpda_step`` refuses that for a class that survives
# measurement, and ``classical.PPASteps`` for any row that takes it. The
# column checks of ``wellformed`` flag a row of either pop effect in a
# column whose top is the bottom symbol ("pop-on-z").
GARBAGE_POP = "garbage pop"
SCHEDULED_POP = "scheduled pop"

LEFT_DISPLAY = "¢"
RIGHT_DISPLAY = "$"


def default_max_steps(word_length: int) -> int:
    """Default step budget for a run: generous for machines that scan once."""
    return 10 * (word_length + 2) + 10


# ======================================================================
# Frozen records
# ======================================================================

_set = object.__setattr__
# the default of a field that has none
_MISSING = object()


class Frozen:
    """Base of the package's frozen records: stack operations, alphabets,
    rows, machines and reports.

    A subclass's fields are its annotated names, its bases' first, in MRO
    order, read once when the class is made; a field given a value in the
    class body defaults to it. A record is built from its fields by
    position or keyword, then checked by its class's ``__post_init__``, if
    the class defines one. It equals only a record of its own class with
    equal fields, hashes its field tuple, reprs as a dataclass does, and
    raises AttributeError on any attribute set or delete. A record that
    holds an unhashable value does not hash: ``hash`` of a
    ``wellformed.WfReport``, whose ``evaluations`` is a dict, raises
    TypeError. Fields live in the instance's ``__dict__``. After
    construction a machine's ``__dict__`` also takes what is cached on it:
    each ``cached_property`` read (``columns``, say), the verdict
    ``problem1._reduced`` keeps under ``_problem1_reduced``, and the
    condition sums ``wellformed.check_qpag`` and ``check_qcpda`` keep under
    ``_check_qpag_sums`` and ``_check_qcpda_sums``. A report has none of
    these, so it holds exactly its fields. No source is generated, as
    ``dataclasses`` does at import: one ``__init__`` serves every class."""

    _fields = ()
    _defaults = ()

    def __init_subclass__(cls):
        names, defaults = [], []
        for klass in reversed(cls.__mro__):
            own = vars(klass)
            for name in own.get("__annotations__", ()):
                if name not in names:
                    names.append(name)
                    defaults.append(own.get(name, _MISSING))
        cls._fields, cls._defaults = tuple(names), tuple(defaults)
        # the field values, then the class: a tuple whatever the field count
        cls._values = staticmethod(attrgetter(*names, "__class__"))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = _bind(type(self), args, kwargs)
        # object.__setattr__ keeps the instance's values inline, which
        # attribute reads in the step kernel need: a __dict__ written
        # directly reads slower on CPython 3.11
        for name, value in zip(names, args):
            _set(self, name, value)
        if self.__post_init__:
            self.__post_init__()

    # the construction check: a class that has one defines it as a method
    __post_init__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r}")

    __delattr__ = __setattr__


def _bind(cls, args, kwargs) -> list:
    """The field values of ``cls(*args, **kwargs)``, defaults filled in;
    TypeError for a wrong argument list. Takes ``kwargs`` apart."""
    names, k = cls._fields, len(args)
    values = [*args, *map(kwargs.pop, names[k:], cls._defaults[k:])]
    if kwargs or k > len(names) or _MISSING in values:
        raise TypeError(f"{cls.__name__}() takes each of the fields {names} once, unless it has "
                        f"a default; {k} came by position and {sorted(kwargs)} is left over")
    return values


def replace(obj: Frozen, **changes):
    """A copy of the record ``obj`` with ``changes`` to its fields, built,
    and so checked, as a new record is."""
    return type(obj)(**dict(zip(obj._fields, obj._values(obj)), **changes))


# ======================================================================
# Stack operations
# ======================================================================


class StackOp(Frozen):
    """One of push(word), epsilon, pop.

    ``payload`` is the pushed token sequence; empty for epsilon and pop.
    """

    kind: str
    payload: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("push", "epsilon", "pop"):
            raise InvariantError(f"unknown stack op kind {self.kind!r}")
        if self.kind == "push":
            if not self.payload:
                raise InvariantError("push payload must be a nonempty token sequence")
        elif self.payload:
            raise InvariantError(f"{self.kind} carries no payload")

    def describe(self) -> str:
        if self.kind == "push":
            return "push:" + join_tokens(self.payload)
        return self.kind

    def sort_key(self):
        return (self.kind, self.payload)


EPSILON = StackOp("epsilon")
POP = StackOp("pop")


def push(*tokens: str) -> StackOp:
    return StackOp("push", tuple(tokens))


def join_tokens(tokens) -> str:
    """Human-readable rendering: plain join when unambiguous."""
    if all(len(t) == 1 for t in tokens):
        return "".join(tokens)
    return ",".join(tokens)


def tokens_doc(tokens):
    """JSON form of a token sequence: string if single-char, else a list."""
    if all(len(t) == 1 for t in tokens):
        return "".join(tokens)
    return list(tokens)


# ======================================================================
# Alphabets
# ======================================================================


class InputAlphabet(Frozen):
    """Input tokens, two of which play the endmarker roles."""

    symbols: tuple[str, ...]
    left_end: str
    right_end: str

    def __post_init__(self):
        _check_symbols(self.symbols, "input alphabet")
        if self.left_end not in self.symbols:
            raise InvariantError("left endmarker must be an input symbol")
        if self.right_end not in self.symbols:
            raise InvariantError("right endmarker must be an input symbol")
        if self.left_end == self.right_end:
            raise InvariantError("endmarkers must be distinct")

    @cached_property
    def word_symbols(self) -> frozenset[str]:
        """The symbols a word may hold: every input symbol but the two
        endmarkers."""
        return frozenset(self.symbols) - {self.left_end, self.right_end}

    def display(self, symbol: str) -> str:
        if symbol == self.left_end:
            return LEFT_DISPLAY
        if symbol == self.right_end:
            return RIGHT_DISPLAY
        return symbol


class StackAlphabet(Frozen):
    """Stack tokens, one of which is the reserved bottom symbol."""

    symbols: tuple[str, ...]
    bottom: str

    def __post_init__(self):
        _check_symbols(self.symbols, "stack alphabet")
        if self.bottom not in self.symbols:
            raise InvariantError("bottom symbol must be a stack symbol")


def _check_symbols(symbols, what):
    if not symbols:
        raise InvariantError(f"{what} is empty")
    if len(set(symbols)) != len(symbols):
        raise InvariantError(f"{what} has duplicate symbols")
    for s in symbols:
        if not isinstance(s, str) or not s:
            raise InvariantError(f"{what} symbol {s!r} is not a nonempty token")


# ======================================================================
# Transitions
# ======================================================================


class _Row(Frozen):
    """The column (source, read, top) and the target every row kind starts with."""

    source: str
    read: str
    top: str
    target: str


class TransitionQPAG(_Row):
    """One garbage-tape row: column, target, stack operation, head move, amplitude."""

    op: StackOp
    move: int
    amp: complex


class TransitionQCPDA(_Row):
    """One scheduled-stack row: column, target, head move, amplitude."""

    move: int
    amp: complex


class TransitionPPA(_Row):
    """One probabilistic row: column, target, stack operation, head move, probability."""

    op: StackOp
    move: int
    prob: float


# ======================================================================
# Machines
# ======================================================================


def _check_push_payload(op, stack_alphabet):
    if op.kind != "push":
        return
    for s in op.payload:
        if s == stack_alphabet.bottom:
            raise InvariantError("push strings may not contain the bottom symbol")
        if s not in stack_alphabet.symbols:
            raise InvariantError(f"push string uses unknown stack symbol {s!r}")


class _Machine(Frozen):
    """The fields, construction check, halting set and column index shared
    by the three machine classes. A subclass names the class of its rows
    in ``row_class`` and their weight field in ``_weight``; a subclass with
    a field of its own checks it after ``super().__post_init__()``."""

    states: tuple[str, ...]
    input_alphabet: InputAlphabet
    stack_alphabet: StackAlphabet
    transitions: tuple
    initial: str
    accepting: frozenset[str]
    rejecting: frozenset[str]

    # Name of the transition field holding the row's weight.
    _weight = "amp"

    def __post_init__(self):
        if not self.states:
            raise InvariantError("machine has no states")
        if len(set(self.states)) != len(self.states):
            raise InvariantError("duplicate state names")
        states = set(self.states)
        if self.initial not in states:
            raise InvariantError("initial state is not a state")
        for q in self.accepting | self.rejecting:
            if q not in states:
                raise InvariantError(f"halting state {q!r} is not a state")
        if self.accepting & self.rejecting:
            raise InvariantError("accepting and rejecting sets overlap")
        row_class = self.row_class
        seen = set()
        for t in self.transitions:
            if not isinstance(t, row_class):
                raise InvariantError(f"transition is not a {row_class.__name__}: {t}")
            if t.source not in states or t.target not in states:
                raise InvariantError(f"transition endpoint missing from states: {t}")
            if t.read not in self.input_alphabet.symbols:
                raise InvariantError(f"transition reads unknown symbol {t.read!r}")
            if t.top not in self.stack_alphabet.symbols:
                raise InvariantError(f"transition tops unknown symbol {t.top!r}")
            # an int, as the file reader takes it: True == 1.0 == 1, but a
            # file's ``"move": true`` or ``"move": 1.0`` is refused
            if type(t.move) is not int or t.move not in (0, 1):
                raise InvariantError(f"head move must be 0 or 1, got {t.move!r}")
            key = (t.source, t.read, t.top, t.target, t.move)
            op = getattr(t, "op", None)
            if op is not None:
                _check_push_payload(op, self.stack_alphabet)
                key += (op.sort_key(),)
            if key in seen:
                raise InvariantError(f"duplicate transition tuple {key}")
            seen.add(key)
            if self._weight == "prob":
                if not math.isfinite(t.prob):
                    raise InvariantError("probability must be finite")
            elif not cmath.isfinite(t.amp):
                raise InvariantError("amplitude must be finite")
            elif abs(t.amp) > 1 + AMP_MAG_TOL:
                raise InvariantError(f"amplitude magnitude {abs(t.amp)} exceeds 1")

    @cached_property
    def halting(self) -> frozenset[str]:
        return self.accepting | self.rejecting

    def is_halting(self, state: str) -> bool:
        return state in self.halting

    # the effect a row's pop compiles to (see ``GARBAGE_POP``)
    _pop = GARBAGE_POP

    @cached_property
    def columns(self):
        """(state, read, top) -> the column's rows, each a plain tuple
        (weight, target, move, stack effect), the effect as ``GARBAGE_POP``
        describes it. Columns come in the order the table first lists them,
        rows in canonical order, sorted by (target, move, stack operation),
        so the order of the table never reaches a result. Rows of weight
        zero are left out, so a column of only zero rows is undefined. One
        pass enters each row under its sort key, which no two rows of a
        column share, so the sort never compares two weights."""
        weight, pop = self._weight, self._pop
        cols: dict = {}
        for t, op in zip(self.transitions, self._ops()):
            w = getattr(t, weight)
            if w != 0:
                kind, payload = op.kind, op.payload
                effect = payload if kind == "push" else pop if kind == "pop" else None
                cols.setdefault((t.source, t.read, t.top), []).append(
                    (t.target, t.move, kind, payload, w, effect)
                )
        return {key: tuple(map(_compiled, sorted(rows))) for key, rows in cols.items()}

    def _ops(self):
        """The stack operation of each row of ``transitions``, in order."""
        return map(attrgetter("op"), self.transitions)


# a sorted row of ``_Machine.columns``'s pass as (weight, target, move, effect)
_compiled = itemgetter(4, 0, 1, 5)


class MachineQPAG(_Machine):
    """A quantum pushdown automaton whose popped symbols go to a garbage tape."""

    # Optional declared push-string set; must cover the inferred one.
    declared_push_strings: tuple[tuple[str, ...], ...] = ()

    row_class = TransitionQPAG

    def __post_init__(self):
        super().__post_init__()
        inferred = set(self.push_strings)
        declared = set(self.declared_push_strings)
        for p in declared:
            _check_push_payload(StackOp("push", p), self.stack_alphabet)
        if declared and not inferred <= declared:
            missing = sorted(inferred - declared)
            raise InvariantError(
                f"declared push strings miss inferred ones: {missing}"
            )

    @cached_property
    def push_strings(self) -> tuple[tuple[str, ...], ...]:
        found = {t.op.payload for t in self.transitions if t.op.kind == "push"}
        return tuple(sorted(found))

    @cached_property
    def push_string_universe(self) -> frozenset:
        """Strings admissible as stack extensions in the column checks:
        the declared set when one is given, else the inferred one."""
        return frozenset(self.declared_push_strings or self.push_strings)


class MachineQCPDA(_Machine):
    """A quantum pushdown automaton whose stack operations ``sigma`` schedules per state."""

    sigma: tuple[tuple[str, StackOp], ...]

    row_class = TransitionQCPDA

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(
            self, "sigma", tuple(sorted(self.sigma, key=lambda row: row[0]))
        )
        names = [q for q, _ in self.sigma]
        if len(set(names)) != len(names):
            raise InvariantError("sigma lists a state twice")
        non_halting = set(self.states) - self.accepting - self.rejecting
        if set(names) != non_halting:
            raise InvariantError(
                "sigma domain must be exactly the non-halting states"
            )
        for q, op in self.sigma:
            _check_push_payload(op, self.stack_alphabet)

    _pop = SCHEDULED_POP

    @cached_property
    def sigma_map(self) -> dict[str, StackOp]:
        return dict(self.sigma)

    def _ops(self):
        # the target's scheduled operation; a halting target's run ends
        # there, so its rows leave the stack alone
        scheduled = dict.fromkeys(self.halting, EPSILON) | self.sigma_map
        return map(scheduled.__getitem__, map(attrgetter("target"), self.transitions))


class MachinePPA(_Machine):
    """A probabilistic pushdown automaton: a QPAG's shape with probabilities for amplitudes."""

    row_class = TransitionPPA
    _weight = "prob"
    _pop = SCHEDULED_POP

    @cached_property
    def nondeterministic_column(self) -> Optional[tuple[str, str, str]]:
        """The first column, in ``columns`` order, that is not a single
        row of probability 1 (within 1e-9), or None if every column is."""
        for key, column in self.columns.items():
            if len(column) != 1 or abs(column[0][0] - 1) > 1e-9:
                return key
        return None


Machine = Union[MachineQPAG, MachineQCPDA, MachinePPA]


# ======================================================================
# Configurations, tapes, vectors
# ======================================================================


class Configuration(NamedTuple):
    """Basis element: state, head position, stack, garbage tape."""

    state: str
    head: int
    stack: tuple[str, ...]
    garbage: tuple[str, ...]

    def to_json_dict(self):
        return {
            "state": self.state,
            "head": self.head,
            "stack": tokens_doc(self.stack),
            "garbage": tokens_doc(self.garbage),
        }


def make_tape(machine: Machine, word) -> tuple[str, ...]:
    """Wrap a word in endmarkers: tape = left, word..., right. A token is
    valid when it is in ``InputAlphabet.word_symbols``, which an unhashable
    token never is. A word with an invalid token raises, for the first
    one, EndmarkerInWord if it equals an endmarker and UnknownSymbol
    otherwise."""
    alpha = machine.input_alphabet
    word = tuple(word)
    # an unhashable token is in no set: hashing it raises TypeError
    with suppress(TypeError):
        if alpha.word_symbols.issuperset(word):
            return (alpha.left_end, *word, alpha.right_end)
    for s in word:
        with suppress(TypeError):
            if s in alpha.word_symbols:
                continue
        if s in (alpha.left_end, alpha.right_end):
            raise EndmarkerInWord(f"word contains endmarker token {s!r}")
        raise UnknownSymbol(f"word contains unknown symbol {s!r}")


def run_bounds(machine: Machine, word, max_steps: Optional[int]) -> tuple[tuple, int]:
    """A run's tape (``make_tape``) and step budget: ``max_steps``, or
    ``default_max_steps`` of the word's length if None. A negative budget
    raises InvariantError (``step_budget``)."""
    tape = make_tape(machine, word)
    if max_steps is None:
        return tape, default_max_steps(len(tape) - 2)
    return tape, step_budget(max_steps)


def step_budget(max_steps: int) -> int:
    """``max_steps``; InvariantError if it is negative."""
    if max_steps < 0:
        raise InvariantError(f"step budget must be nonnegative, got {max_steps}")
    return max_steps


def check_kind(machine, kind: type) -> None:
    """InvariantError, naming both classes, unless ``machine`` is a
    ``kind``. Each checker, the audit, the compiler and each engine calls
    it first, so a machine of another kind is refused before any work."""
    if not isinstance(machine, kind):
        raise InvariantError(f"expected a {kind.__name__}, got a {type(machine).__name__}")


def check_tolerance(tol: float) -> None:
    """InvariantError unless ``tol`` is a finite nonnegative number. A NaN
    or an infinite tolerance is refused: every ``> tol`` comparison with
    it is false, so it would pass any machine."""
    if not 0 <= tol < math.inf:
        raise InvariantError(f"tolerance must be a nonnegative number, got {tol!r}")


def room(held: int) -> int:
    """How many more entries ``ENTRY_BUDGET`` allows beside ``held``, the
    entries a step starts from. Raises ``over_budget()`` if ``held``
    already passes it."""
    left = ENTRY_BUDGET - held
    if left < 0:
        raise over_budget()
    return left


def over_budget() -> StateSpaceOverflow:
    """The one overflow error: live entries passed ``ENTRY_BUDGET``.
    ``simulate.walk`` names the step it was raised in."""
    return StateSpaceOverflow(f"live entries exceeded {ENTRY_BUDGET}")


def pop_on_bottom(stack) -> PopOnBottom:
    """The one error of a pop that meets the bottom symbol, naming
    ``stack``, the cell (``simulate.Cell``) of the stack it pops."""
    return PopOnBottom(f"pop on stack {join_tokens(stack.tokens())!r}")


def column_text(key) -> str:
    """A (state, read, top) column key as warnings and errors spell it."""
    state, read, top = key
    return f"column (state={state}, read={read}, top={top})"


def display_tape(machine: Machine, tape) -> str:
    return join_tokens(tuple(machine.input_alphabet.display(s) for s in tape))


# Sparse state vector: configuration -> amplitude.
StateVector = dict


def plain_sum(values) -> float:
    """``values`` summed left to right with plain float additions, as the
    step kernel sums. ``sum()`` is not used: from CPython 3.12 it
    compensates float sums, which would give another float on some
    inputs."""
    total = 0.0
    for value in values:
        total += value
    return total


def vector_norm_sq(psi: StateVector) -> float:
    """Squared norm, summed in the vector's insertion order by
    ``plain_sum``."""
    return plain_sum(abs(amp) ** 2 for amp in psi.values())


# ======================================================================
# Report records
# ======================================================================


def records(rs):
    """JSON value of a tuple of records, or of None."""
    return None if rs is None else [r.to_json_dict() for r in rs]


class Record(Frozen):
    """Base of the report records: one JSON writer for all of them. A
    class's ``_render`` table maps a field to the function its value goes
    out through. ``to_json_dict`` copies the record's ``__dict__``, which
    holds the fields in field order and nothing else."""

    _render = {}

    def to_json_dict(self):
        doc = vars(self).copy()
        for name, render in self._render.items():
            doc[name] = render(doc[name])
        return doc


# ======================================================================
# Run results
# ======================================================================


def _survivors_doc(survivors):
    return [{**c.to_json_dict(), "amp": [a.real, a.imag]} for c, a in survivors]


class StepSnapshot(Record):
    """Top surviving amplitudes after one step's measurement."""

    step: int
    survivors: tuple[tuple[Configuration, complex], ...]
    p_acc_delta: float
    p_rej_delta: float

    _render = {"survivors": _survivors_doc}


class RunResult(Record):
    """Outcome probabilities of one run, its truncation loss and step count."""

    p_acc: float
    p_rej: float
    p_non: float
    truncation_loss: float
    steps: int
    trace: Optional[tuple[StepSnapshot, ...]] = None

    _render = {"trace": records}

    def total(self) -> float:
        return self.p_acc + self.p_rej + self.p_non + self.truncation_loss
