"""Well-formedness checking.

Two layers:

* ``check_qpag`` / ``check_qcpda`` / ``check_ppa``: algebraic column checks on
  the transition table. Each numbered condition quantifies over column tuples
  and requires a sum of amplitude products to hit a target value (1 for norm
  conditions, 0 for orthogonality conditions). Partial mode treats the table
  as a fragment of a larger unitary: undefined columns are unconstrained and
  norm sums may fall short of 1 but never exceed it. Total mode requires
  every column of Q x Sigma x Gamma to have norm exactly 1.

* ``audit_unitarity``: a direct numerical check on a concrete tape. It
  walks ``AuditSteps`` through ``simulate.walk_to_end``, which meets the
  configurations reachable within a step budget and takes the image of
  each under one evolution step, then verifies image norms and pairwise
  image orthogonality. This catches anything the literal column conditions
  miss.

Condition ids: "1" column norm, "2" same-column-index orthogonality,
"3a"/"3b" same-head different-stack orthogonality (push-extends vs pop-reveals),
"4" head-shift orthogonality, "5a"/"5b" head-shift with stack change, plus
"pop-on-z" (pop scheduled on the bottom symbol) and "range" (probability
outside [0, 1]).

``check_qpag`` and ``check_qcpda`` run one skeleton, ``_check_amplitudes``:
the mode and tolerance checks, the row rules, condition 1 and one
``_orthogonality`` call; each passes only its condition ids and a function
that yields its terms from the rows of nonzero amplitude. The per-row rules
of all three checkers ("pop-on-z", and "range" for ``check_ppa``) are read
off the machine's column index, ``model._Machine.columns``, in canonical
row order by ``_row_rules``: a row pops the bottom symbol when its compiled
effect is ``GARBAGE_POP`` or ``SCHEDULED_POP`` in a column whose top is the
bottom symbol, the compiled form every engine steps by. Column norms sum
the table's rows in their own term order, (target, operation, move), not
in the column index's (target, move, operation): on some columns the two
orders give different floats, and so different reports.

Every orthogonality term has one shape, ``((cid, key), term_key,
conj(amp1) * amp2)``: ``cid`` names the condition and ``key`` the two
columns it quantifies over. A checker chains its generators into one
stream and makes one ``_orthogonality`` call, which sums the terms per
``(cid, key)`` and reports each sum over the tolerance; a condition's
evaluation count is its number of keys. ``_meeting_terms`` pairs the rows
that share a target once for 3a and 5a (epsilon against push rows) and
once for 3b and 5b (pop against epsilon and push rows); equal head moves
give the first condition, opposite ones the second. Column norms
(condition 1) go through ``_norm_violations`` for all three checkers.
Every witness comes from one table, ``_WITNESS``: the condition's field
names, paired in order with its key. ``check_qcpda`` shares the
generators of conditions 2 and 4 with ``check_qpag``; a scheduled-stack
row carries no stack operation, so its operation key is ``()``. Two rows
of one column pair like any other two rows: applied to two configurations
that differ in head or stack, their images can still meet.

Every condition sum is accumulated in sorted term order, each
``(cid, key, term_key)`` names both of its rows, and the row rules come in
canonical row order, so reports are bit-identical across transition
reorderings.

The sums depend on the machine alone, so ``_check_amplitudes`` works them
out once per machine and checker: the row-rule entries, the column norms
and the orthogonality sums are kept in the machine's ``__dict__`` under
``_check_qpag_sums`` or ``_check_qcpda_sums``, beside the column index.
Each call then applies only its mode and tolerance, so the second mode of
a machine, another tolerance and every later ``compiler.compile_qcpda`` of
it sum nothing again, and the reports are those of a fresh copy.
``check_ppa``, whose "range" rule depends on ``tol``, keeps nothing. Every
checker, and ``AuditSteps`` for the audit, refuses a machine of another
kind before any work (``model.check_kind``), so no checker ever fills
another's entry.
"""

from __future__ import annotations

from itertools import chain, product

from .errors import InvariantError
from .model import (
    GARBAGE_POP,
    SCHEDULED_POP,
    Configuration,
    MachinePPA,
    MachineQCPDA,
    MachineQPAG,
    Record,
    StackOp,
    check_kind,
    check_tolerance,
    column_text,
    over_budget,
    records,
    room,
    tokens_doc,
    vector_norm_sq,
)
from .simulate import CellConfiguration, start, successor, walk_to_end


class Violation(Record):
    """One failed well-formedness condition, its witness and its residual."""

    condition: str
    witness: tuple[tuple[str, object], ...]
    residual: float

    _render = {"witness": dict}


class WfReport(Record):
    """The column checks of one machine: violations and per-condition evaluation counts."""

    passed: bool
    mode: str
    violations: tuple[Violation, ...]
    evaluations: dict[str, int]

    _render = {"violations": records, "evaluations": dict}


def _op_desc(op_key) -> str:
    return StackOp(*op_key).describe()


_SHIFT = ("state1", "read1", "top1", "move1", "state2", "read2", "top2", "move2")

# condition id -> witness field names, in the order of the condition's key
_WITNESS = {
    "1": ("state", "read", "top"),
    "2": ("read", "top", "state1", "state2"),
    "3a": ("read", "state1", "top1", "state2", "top2", "prefix"),
    "3b": ("read", "state1", "top1", "state2", "top2", "op2"),
    "4": ("top", "state1", "read1", "state2", "read2"),
    "5a": _SHIFT + ("prefix",),
    "5b": _SHIFT + ("op2",),
    "pop-on-z": ("state", "read", "top", "target", "move"),
    "range": ("state", "read", "top", "target", "move", "prob"),
}

# witness fields whose key value is rendered for JSON
_RENDER = {"prefix": tokens_doc, "op2": _op_desc}


# conditions none of whose witness fields is rendered
_PLAIN = frozenset(cid for cid, names in _WITNESS.items() if _RENDER.keys().isdisjoint(names))


def _violation(cid, key, residual, *extra):
    """The sortable entry (cid, key, Violation) of one failed condition. Its
    witness pairs the condition's field names with ``key`` then ``extra``,
    as they are unless the condition renders a field."""
    pairs = zip(_WITNESS[cid], key + extra, strict=True)
    if cid in _PLAIN:
        witness = tuple(pairs)
    else:
        witness = tuple(
            (name, _RENDER[name](value) if name in _RENDER else value) for name, value in pairs
        )
    return cid, key, Violation(cid, witness, residual)


def _row_rules(machine, tol=None):
    """The entries of the per-row rules, read off ``machine.columns`` in
    canonical row order: "pop-on-z" for each row whose compiled effect
    pops the bottom symbol (``GARBAGE_POP`` or ``SCHEDULED_POP``), its
    residual the weight's magnitude; and, given ``tol``, "range" for each
    weight more than ``tol`` outside [0, 1]."""
    bottom = machine.stack_alphabet.bottom
    viols = []
    for (state, read, top), rows in machine.columns.items():
        for w, target, move, effect in rows:
            key = (state, read, top, target, move)
            if top == bottom and effect in (GARBAGE_POP, SCHEDULED_POP):
                viols.append(_violation("pop-on-z", key, abs(w)))
            if tol is not None and (w < -tol or w > 1 + tol):
                viols.append(_violation("range", key, w - 1 if w > 1 else -w, w))
    return viols


def _sums(terms):
    """Quantifier key -> sum of its ``(key, term_key, value)`` terms, added
    in sorted term order; keys in sorted order."""
    groups: dict = {}
    for key, term_key, value in terms:
        groups.setdefault(key, []).append((term_key, value))
    sums = {}
    for key in sorted(groups):
        total = 0j
        for _, v in sorted(groups[key], key=lambda r: r[0]):
            total += v
        sums[key] = total
    return sums


def _orthogonality(cids, sums, tol, viols):
    """Report each ``(cid, key)`` of ``sums`` (``_sums`` of the terms) whose
    sum is more than ``tol`` in absolute value; returns each of ``cids``
    with its number of keys evaluated, 0 for a condition with none."""
    counts = dict.fromkeys(cids, 0)
    for (cid, key), total in sums.items():
        counts[cid] += 1
        if abs(total) > tol:
            viols.append(_violation(cid, key, abs(total)))
    return counts


def _op_key(t):
    op = getattr(t, "op", None)
    return () if op is None else op.sort_key()


def _column_norms(transitions, weight):
    """Column (state, read, top) -> sum of ``weight(t)`` over its rows."""
    sums = _sums(
        ((t.source, t.read, t.top), (t.target, _op_key(t), t.move), weight(t))
        for t in transitions
    )
    return {col: total.real for col, total in sums.items()}


def _norm_violations(norms, columns, bad, viols):
    """Report each of ``columns`` whose norm ``s`` makes ``bad(s)`` true;
    returns the number of columns evaluated."""
    for col in columns:
        s = norms.get(col, 0.0)
        if bad(s):
            # raw sum when the column overshoots, deficit otherwise; both
            # exceed tolerance whenever the column is in violation
            viols.append(_violation("1", col, s if s > 1 else 1 - s))
    return len(columns)


def _finish(viols, mode, evaluations):
    viols.sort(key=lambda v: (v[0], v[1]))
    ordered = tuple(v[2] for v in viols)
    return WfReport(
        passed=not ordered,
        mode=mode,
        violations=ordered,
        evaluations=evaluations,
    )


# ======================================================================
# Term generators of the orthogonality conditions
# ======================================================================


def _same_column_terms(trans):
    """(2) Two columns with the same (read, top): rows with the same
    target, stack operation and head move."""
    by_image: dict = {}
    for t in trans:
        by_image.setdefault(
            (t.read, t.top, t.target, _op_key(t), t.move), []
        ).append((t.source, t.amp))
    for (a, b, tgt, opk, mv), entries in by_image.items():
        entries.sort(key=lambda e: e[0])
        for i, (q1, a1) in enumerate(entries):
            for q2, a2 in entries[i + 1 :]:
                yield ("2", (a, b, q1, q2)), (tgt, opk, mv), a1.conjugate() * a2


def _head_shift_terms(trans):
    """(4) Same stack, heads one apart: stationary against advancing rows
    with the same target and stack operation."""
    shift: dict = {}
    for t in trans:
        shift.setdefault((t.top, t.target, _op_key(t)), ([], []))[t.move].append(t)
    for (b, tgt, opk), (m0, m1) in shift.items():
        for t0 in m0:
            for t1 in m1:
                key = (b, t0.source, t0.read, t1.source, t1.read)
                yield ("4", key), (tgt, opk), t0.amp.conjugate() * t1.amp


def _extension(e, p, g_set):
    """The prefix push row ``p`` lays over epsilon row ``e``'s top, or None
    when the push does not end in that top or the prefix is not an
    admissible push string."""
    payload = p.op.payload
    prefix = payload[:-1]
    if payload[-1] == e.top and (not prefix or prefix in g_set):
        return prefix
    return None


def _side(t):
    return (t.source, t.read, t.top, t.move)


def _meeting_terms(cids, rows, others, tail):
    """(3a, 5a) or (3b, 5b), named by ``cids``: each row of ``rows`` against
    each row of ``others`` into the same target, where ``tail(row, other)``,
    the key's last field, is not None. Equal reads and head moves give a
    term of the first condition, opposite head moves one of the second
    (reads free)."""
    same, shifted = cids
    by_target: dict = {}
    for o in others:
        by_target.setdefault(o.target, []).append(o)
    for t in rows:
        for o in by_target.get(t.target, ()):
            end = tail(t, o)
            if end is None:
                continue
            value = t.amp.conjugate() * o.amp
            if t.move != o.move:
                yield (shifted, (*_side(t), *_side(o), end)), (t.target,), value
            elif t.read == o.read:
                key = (t.read, t.source, t.top, o.source, o.top, end)
                yield (same, key), (t.target, t.move), value


# ======================================================================
# Checkers
# ======================================================================


def _check_amplitudes(machine, mode, tol, cids, terms, name):
    """The column checks of an amplitude machine: the row rules
    (``_row_rules``), column norms (1) and the orthogonality conditions
    ``cids``, whose terms ``terms(rows)`` yields from the rows of nonzero
    amplitude. Partial mode checks the defined columns for overshoot, total
    mode every column of Q x Sigma x Gamma.

    What depends on the machine alone, the row-rule entries, the column
    norms and the orthogonality sums, is worked out on the first call and
    kept in the machine's ``__dict__`` under ``name``, one key per checker,
    as ``cached_property`` keeps ``columns``. Every call, the first too,
    then checks its mode and tolerance against the kept sums, on a copy of
    the kept row-rule list, so a second mode, another tolerance or a later
    ``compiler.compile_qcpda`` sums nothing again."""
    if mode not in ("partial", "total"):
        raise InvariantError(f"unknown check mode {mode!r}")
    check_tolerance(tol)
    kept = vars(machine)
    if name not in kept:
        trans = [t for t in machine.transitions if t.amp != 0]
        norms = _column_norms(trans, lambda t: abs(t.amp) ** 2)
        kept[name] = _row_rules(machine), norms, _sums(terms(trans))
    rules, norms, sums = kept[name]
    viols = list(rules)
    if mode == "partial":
        evaluated = _norm_violations(norms, norms, lambda s: s > 1 + tol, viols)
    else:
        alphabets = (machine.input_alphabet.symbols, machine.stack_alphabet.symbols)
        every = list(product(machine.states, *alphabets))
        evaluated = _norm_violations(norms, every, lambda s: abs(s - 1) > tol, viols)
    evaluations = {"1": evaluated, **_orthogonality(cids, sums, tol, viols)}
    return _finish(viols, mode, evaluations)


def check_qpag(machine: MachineQPAG, mode: str = "partial", tol: float = 1e-9) -> WfReport:
    """Column conditions for the garbage-tape machine."""
    check_kind(machine, MachineQPAG)

    def terms(trans):
        g_set = machine.push_string_universe
        eps = [t for t in trans if t.op.kind == "epsilon"]
        pushes = [t for t in trans if t.op.kind == "push"]
        pops = [t for t in trans if t.op.kind == "pop"]
        return chain(
            _same_column_terms(trans),
            _meeting_terms(("3a", "5a"), eps, pushes, lambda e, p: _extension(e, p, g_set)),
            _meeting_terms(("3b", "5b"), pops, eps + pushes, lambda t, o: o.op.sort_key()),
            _head_shift_terms(trans),
        )

    cids = ("2", "3a", "3b", "4", "5a", "5b")
    return _check_amplitudes(machine, mode, tol, cids, terms, "_check_qpag_sums")


def check_qcpda(machine: MachineQCPDA, mode: str = "partial", tol: float = 1e-9) -> WfReport:
    """Unitarity-for-every-word conditions for the scheduled-stack machine.

    Checks per stack symbol: column norms (1), same-column-index
    orthogonality (2), and the head-shift products (4), with the generators
    ``check_qpag`` uses; a row's stack operation is scheduled by its target,
    so its operation key is ``()``. The head-shift products must vanish for
    every ordered pair of columns, a column against itself included, since a
    word may repeat a symbol at adjacent positions. Also flags any amplitude
    that would schedule a pop on the bottom symbol.
    """
    check_kind(machine, MachineQCPDA)

    def terms(trans):
        return chain(_same_column_terms(trans), _head_shift_terms(trans))

    return _check_amplitudes(machine, mode, tol, ("2", "4"), terms, "_check_qcpda_sums")


def check_ppa(machine: MachinePPA, tol: float = 1e-9) -> WfReport:
    """Row stochasticity: every defined column's probabilities sum to 1,
    every probability lies in [0, 1], and nothing pops the bottom symbol."""
    check_kind(machine, MachinePPA)
    check_tolerance(tol)
    viols = _row_rules(machine, tol)
    norms = _column_norms(
        [t for t in machine.transitions if t.prob != 0], lambda t: t.prob
    )
    evaluated = _norm_violations(norms, norms, lambda s: abs(s - 1) > tol, viols)
    return _finish(viols, "total", {"1": evaluated})


# ======================================================================
# Configuration-level audit
# ======================================================================


class AuditFailure(Record):
    """Configurations whose images break unit norm or orthogonality, and by how much."""

    kind: str  # "norm" or "orthogonality"
    configs: tuple[Configuration, ...]
    value: float

    _render = {"configs": records}


class AuditReport(Record):
    """The unitarity audit of one word: configurations examined, warnings and failures."""

    passed: bool
    examined: int
    stepped: int
    warnings: tuple[str, ...]
    failures: tuple[AuditFailure, ...]

    _render = {"warnings": list, "failures": records}


class AuditSteps:
    """The stepper behind ``audit_unitarity``. Checkpoint i is the list of
    configurations first met at step i. A step takes the image of each
    configuration in its frontier and, while ``i <= depth``, meets their
    successors. The stepper keeps every configuration met (``seen``, each
    with its plain-tuple view, the sort key), their images (``images``) and
    the undefined columns, first met first (``undefined``).

    The audit builds each image from the machine's column index through
    ``simulate.successor``, one compiled row at a time, rather than through
    ``simulate.evolve``: ``evolve`` sums the images of different
    configurations into one vector, but the audit needs each image apart.
    Calling ``evolve`` once per configuration built images about 40 %
    slower, and cost ``verify_io`` 3.1 % of its items/s."""

    def __init__(self, machine: MachineQPAG, depth: int):
        check_kind(machine, MachineQPAG)
        self.machine = machine
        self.depth = depth
        self.table: dict = {}
        self.seen: dict[CellConfiguration, Configuration] = {}
        self.images: dict[CellConfiguration, dict[CellConfiguration, complex]] = {}
        self.undefined: dict = {}  # (state, read, top) -> None, first met first

    def start(self):
        first = start(self.machine, self.table)
        self.seen[first] = first.view()
        return [first]

    def step(self, frontier, tape, i):
        seen = self.seen
        table = self.table
        columns = self.machine.columns
        n = len(tape)
        # a step starts from the configurations met so far and makes the
        # ones it meets first
        limit = room(len(seen) + len(table))
        meet = i <= self.depth
        new = []
        for c in frontier:
            if c.head >= n:
                continue
            col_key = (c.state, tape[c.head], c.stack.symbol)
            col = columns.get(col_key)
            if col is None:
                self.undefined.setdefault(col_key)
                continue
            vec: dict[CellConfiguration, complex] = {}
            for amp, target, move, effect in col:
                succ = successor(table, c, target, move, effect)
                vec[succ] = vec.get(succ, 0j) + amp
            self.images[c] = vec
            if meet:
                for succ in vec:
                    if succ not in seen:
                        seen[succ] = succ.view()
                        new.append(succ)
                if len(new) > limit:
                    raise over_budget()
        return new

    def alive(self, frontier) -> bool:
        return bool(frontier)


def audit_unitarity(
    machine: MachineQPAG,
    word,
    depth: int = 10,
    tol: float = 1e-9,
) -> AuditReport:
    """Evolve every configuration reachable within ``depth`` steps and verify
    that images have unit norm and are pairwise orthogonal.

    Configurations whose head sits past the right endmarker cannot evolve and
    are skipped silently; non-parked configurations whose column is undefined
    produce a warning (not a failure), so partially specified machines audit
    their defined fragment. An empty machine passes vacuously with a warning.
    Norms and overlaps are summed over each column's rows in canonical order,
    so the report does not depend on the order of the transition table.
    ``AuditSteps`` walks ``depth + 1`` steps through ``simulate.walk_to_end``;
    a step raises StateSpaceOverflow as soon as the configurations met so
    far and the cells in the table when the step began pass
    ``model.ENTRY_BUDGET``.
    """
    stepper = AuditSteps(machine, depth)
    if depth < 1:
        raise InvariantError("audit depth must be at least 1")
    check_tolerance(tol)
    walk_to_end(stepper, word, depth + 1)
    seen = stepper.seen
    images = sorted(stepper.images.items(), key=lambda item: seen[item[0]])

    failures = []
    for c, vec in images:
        norm = vector_norm_sq(vec) ** 0.5
        if abs(norm - 1) > tol:
            failures.append(AuditFailure("norm", (seen[c],), norm))

    by_target: dict[CellConfiguration, list[tuple[int, complex]]] = {}
    for i, (_, vec) in enumerate(images):
        for tgt, a in vec.items():
            by_target.setdefault(tgt, []).append((i, a))
    overlaps: dict[tuple[int, int], complex] = {}
    for entries in by_target.values():
        for x, (i, ai) in enumerate(entries):
            for j, aj in entries[x + 1 :]:
                overlaps[(i, j)] = overlaps.get((i, j), 0j) + ai.conjugate() * aj
    for (i, j) in sorted(overlaps):
        v = abs(overlaps[(i, j)])
        if v > tol:
            witnesses = (seen[images[i][0]], seen[images[j][0]])
            failures.append(AuditFailure("orthogonality", witnesses, v))

    warn = {f"undefined {column_text(col_key)}" for col_key in stepper.undefined}
    if not machine.transitions:
        warn.add("machine has no transitions; audit is vacuous")

    return AuditReport(
        passed=not failures,
        examined=len(seen),
        stepped=len(images),
        warnings=tuple(sorted(warn)),
        failures=tuple(failures),
    )
