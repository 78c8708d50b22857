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

Symbols are text tokens. The input alphabet reserves two tokens as the left
and right endmarker (spelled ``<`` / ``>`` in files, shown as ``¢`` / ``$``
in traces); the stack alphabet reserves one token as the bottom symbol,
which lives at stack position 0 and nowhere else.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Union

from .errors import (
    EndmarkerInWord,
    InvariantError,
    UnknownSymbol,
)

# Magnitude slack for single amplitudes and vector norms.
AMP_MAG_TOL = 1e-9
# Amplitudes below this magnitude are dropped; their mass is accounted as loss.
PRUNE_THRESHOLD = 1e-12
# Non-halting mass below this ends a run early.
HALT_MASS = 1e-12
# Hard cap on live configurations in a run or audit.
CONFIG_CAP = 10**6

LEFT_DISPLAY = "¢"
RIGHT_DISPLAY = "$"


def default_max_steps(word_length: int) -> int:
    """Default step budget for a run: generous for machines that scan once."""
    return 10 * (word_length + 2) + 10


# ======================================================================
# Stack operations
# ======================================================================


@dataclass(frozen=True)
class StackOp:
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


@dataclass(frozen=True)
class InputAlphabet:
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

    @property
    def word_symbols(self) -> tuple[str, ...]:
        ends = (self.left_end, self.right_end)
        return tuple(s for s in self.symbols if s not in ends)

    def display(self, symbol: str) -> str:
        if symbol == self.left_end:
            return LEFT_DISPLAY
        if symbol == self.right_end:
            return RIGHT_DISPLAY
        return symbol


@dataclass(frozen=True)
class StackAlphabet:
    """Stack tokens, one of which is the reserved bottom symbol."""

    symbols: tuple[str, ...]
    bottom: str

    def __post_init__(self):
        _check_symbols(self.symbols, "stack alphabet")
        if self.bottom not in self.symbols:
            raise InvariantError("bottom symbol must be a stack symbol")

    @property
    def pushable(self) -> tuple[str, ...]:
        return tuple(s for s in self.symbols if s != self.bottom)


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


@dataclass(frozen=True)
class TransitionQPAG:
    source: str
    read: str
    top: str
    target: str
    op: StackOp
    move: int
    amp: complex


@dataclass(frozen=True)
class TransitionQCPDA:
    source: str
    read: str
    top: str
    target: str
    move: int
    amp: complex


@dataclass(frozen=True)
class TransitionPPA:
    source: str
    read: str
    top: str
    target: str
    op: StackOp
    move: int
    prob: float


# ======================================================================
# Machines
# ======================================================================


def _check_common(m, kind):
    if not m.states:
        raise InvariantError("machine has no states")
    if len(set(m.states)) != len(m.states):
        raise InvariantError("duplicate state names")
    states = set(m.states)
    if m.initial not in states:
        raise InvariantError("initial state is not a state")
    for q in m.accepting | m.rejecting:
        if q not in states:
            raise InvariantError(f"halting state {q!r} is not a state")
    if m.accepting & m.rejecting:
        raise InvariantError("accepting and rejecting sets overlap")
    seen = set()
    for t in m.transitions:
        if t.source not in states or t.target not in states:
            raise InvariantError(f"transition endpoint missing from states: {t}")
        if t.read not in m.input_alphabet.symbols:
            raise InvariantError(f"transition reads unknown symbol {t.read!r}")
        if t.top not in m.stack_alphabet.symbols:
            raise InvariantError(f"transition tops unknown symbol {t.top!r}")
        if t.move not in (0, 1):
            raise InvariantError(f"head move must be 0 or 1, got {t.move!r}")
        op = getattr(t, "op", None)
        if op is not None:
            _check_push_payload(op, m.stack_alphabet)
        key = _transition_key(t)
        if key in seen:
            raise InvariantError(f"duplicate transition tuple {key}")
        seen.add(key)
        if kind == "ppa":
            if not math.isfinite(t.prob):
                raise InvariantError("probability must be finite")
        else:
            if not cmath.isfinite(t.amp):
                raise InvariantError("amplitude must be finite")
            if abs(t.amp) > 1 + AMP_MAG_TOL:
                raise InvariantError(f"amplitude magnitude {abs(t.amp)} exceeds 1")


def _check_push_payload(op, stack_alphabet):
    if op.kind != "push":
        return
    for s in op.payload:
        if s == stack_alphabet.bottom:
            raise InvariantError("push strings may not contain the bottom symbol")
        if s not in stack_alphabet.symbols:
            raise InvariantError(f"push string uses unknown stack symbol {s!r}")


def _transition_key(t):
    op = getattr(t, "op", None)
    parts = [t.source, t.read, t.top, t.target, t.move]
    if op is not None:
        parts.append(op.sort_key())
    return tuple(parts)


class _Machine:
    """Halting set and column index shared by the three machine classes."""

    # Name of the transition field holding the row's weight.
    _weight = "amp"

    @cached_property
    def halting(self) -> frozenset[str]:
        return self.accepting | self.rejecting

    def is_halting(self, state: str) -> bool:
        return state in self.halting

    @cached_property
    def columns(self):
        """(state, read, top) -> rows in canonical order, sorted by
        (target, move, stack operation), so the order of the table never
        reaches a result. Rows of weight zero are left out, so a column of
        only zero rows is undefined."""
        cols: dict[tuple[str, str, str], list] = {}
        for t in self.transitions:
            if getattr(t, self._weight) != 0:
                cols.setdefault((t.source, t.read, t.top), []).append(t)
        return {k: tuple(sorted(v, key=_transition_key)) for k, v in cols.items()}


@dataclass(frozen=True)
class MachineQPAG(_Machine):
    states: tuple[str, ...]
    input_alphabet: InputAlphabet
    stack_alphabet: StackAlphabet
    transitions: tuple[TransitionQPAG, ...]
    initial: str
    accepting: frozenset[str]
    rejecting: frozenset[str]
    # Optional declared push-string set; must cover the inferred one.
    declared_push_strings: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        _check_common(self, "qpag")
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


@dataclass(frozen=True)
class MachineQCPDA(_Machine):
    states: tuple[str, ...]
    input_alphabet: InputAlphabet
    stack_alphabet: StackAlphabet
    transitions: tuple[TransitionQCPDA, ...]
    sigma: tuple[tuple[str, StackOp], ...]
    initial: str
    accepting: frozenset[str]
    rejecting: frozenset[str]

    def __post_init__(self):
        _check_common(self, "qcpda")
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

    @cached_property
    def sigma_map(self) -> dict[str, StackOp]:
        return dict(self.sigma)

    @cached_property
    def push_strings(self) -> tuple[tuple[str, ...], ...]:
        found = {op.payload for _, op in self.sigma if op.kind == "push"}
        return tuple(sorted(found))


@dataclass(frozen=True)
class MachinePPA(_Machine):
    states: tuple[str, ...]
    input_alphabet: InputAlphabet
    stack_alphabet: StackAlphabet
    transitions: tuple[TransitionPPA, ...]
    initial: str
    accepting: frozenset[str]
    rejecting: frozenset[str]

    _weight = "prob"

    def __post_init__(self):
        _check_common(self, "ppa")


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
    """Wrap a word in endmarkers: tape = left, word..., right."""
    alpha = machine.input_alphabet
    word = tuple(word)
    for s in word:
        if s in (alpha.left_end, alpha.right_end):
            raise EndmarkerInWord(f"word contains endmarker token {s!r}")
        if s not in alpha.symbols:
            raise UnknownSymbol(f"word contains unknown symbol {s!r}")
    return (alpha.left_end,) + word + (alpha.right_end,)


def display_tape(machine: Machine, tape) -> str:
    return join_tokens(tuple(machine.input_alphabet.display(s) for s in tape))


# Sparse state vector: configuration -> amplitude.
StateVector = dict


def initial_configuration(machine: Machine) -> Configuration:
    return Configuration(machine.initial, 0, (machine.stack_alphabet.bottom,), ())


def vector_norm_sq(psi: StateVector) -> float:
    """Squared norm, summed in the vector's insertion order."""
    return sum(abs(a) ** 2 for a in psi.values())


# ======================================================================
# Run results
# ======================================================================


@dataclass(frozen=True)
class StepSnapshot:
    """Top surviving amplitudes after one step's measurement."""

    step: int
    survivors: tuple[tuple[Configuration, complex], ...]
    p_acc_delta: float
    p_rej_delta: float

    def to_json_dict(self):
        rows = []
        for c, a in self.survivors:
            row = c.to_json_dict()
            row["amp"] = [a.real, a.imag]
            rows.append(row)
        return {
            "step": self.step,
            "survivors": rows,
            "p_acc_delta": self.p_acc_delta,
            "p_rej_delta": self.p_rej_delta,
        }


@dataclass(frozen=True)
class RunResult:
    p_acc: float
    p_rej: float
    p_non: float
    truncation_loss: float
    steps: int
    trace: Optional[tuple[StepSnapshot, ...]] = None

    def total(self) -> float:
        return self.p_acc + self.p_rej + self.p_non + self.truncation_loss

    def to_json_dict(self):
        return {
            "p_acc": self.p_acc,
            "p_rej": self.p_rej,
            "p_non": self.p_non,
            "truncation_loss": self.truncation_loss,
            "steps": self.steps,
            "trace": None
            if self.trace is None
            else [s.to_json_dict() for s in self.trace],
        }
