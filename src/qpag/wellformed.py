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
  enumerates configurations reachable within a step budget, applies one
  evolution step to each, and verifies image norms and pairwise image
  orthogonality. This catches anything the literal column conditions miss.

Condition ids: "1" column norm, "2" same-column-index orthogonality,
"3a"/"3b" same-head different-stack orthogonality (push-extends vs pop-reveals),
"4" head-shift orthogonality, "5a"/"5b" head-shift with stack change, plus
"pop-on-z" (pop scheduled on the bottom symbol) and "range" (probability
outside [0, 1]).

Every condition sum is accumulated in sorted term order, so reports are
bit-identical across transition reorderings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantError, StateSpaceOverflow
from .model import (
    CONFIG_CAP,
    Configuration,
    MachinePPA,
    MachineQCPDA,
    MachineQPAG,
    StackOp,
    make_tape,
    tokens_doc,
)
from .simulate import CellConfiguration, start, successor

CONDITION_IDS = ("1", "2", "3a", "3b", "4", "5a", "5b")


@dataclass(frozen=True)
class Violation:
    condition: str
    witness: tuple[tuple[str, object], ...]
    residual: float

    def to_json_dict(self):
        return {
            "condition": self.condition,
            "witness": dict(self.witness),
            "residual": self.residual,
        }


@dataclass(frozen=True)
class WfReport:
    passed: bool
    mode: str
    violations: tuple[Violation, ...]
    evaluations: dict[str, int] = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "passed": self.passed,
            "mode": self.mode,
            "violations": [v.to_json_dict() for v in self.violations],
            "evaluations": dict(self.evaluations),
        }


def _norm_residual(s: float) -> float:
    # Raw sum when the column overshoots, deficit otherwise; both exceed
    # tolerance whenever the column is in violation.
    return s if s > 1 else 1 - s


class _Sums:
    """Terms grouped per quantifier key; summed in sorted term order."""

    def __init__(self):
        self.terms: dict = {}

    def add(self, key, term_key, value):
        self.terms.setdefault(key, []).append((term_key, value))

    def totals(self):
        for key in sorted(self.terms):
            rows = sorted(self.terms[key], key=lambda r: r[0])
            total = 0j
            for _, v in rows:
                total += v
            yield key, total

    def __len__(self):
        return len(self.terms)


def _column_norms(transitions, weight):
    sums = _Sums()
    for t in transitions:
        op = getattr(t, "op", None)
        term_key = (t.target, () if op is None else op.sort_key(), t.move)
        sums.add((t.source, t.read, t.top), term_key, weight(t))
    return sums


def _norm_violations(machine, sums, mode, tol, viols):
    diag = {k: v.real for k, v in sums.totals()}
    if mode == "partial":
        evaluated = len(diag)
        items = diag.items()
    else:
        evaluated = 0
        items = []
        for q in machine.states:
            for a in machine.input_alphabet.symbols:
                for b in machine.stack_alphabet.symbols:
                    evaluated += 1
                    items.append(((q, a, b), diag.get((q, a, b), 0.0)))
    for (q, a, b), s in items:
        bad = s > 1 + tol if mode == "partial" else abs(s - 1) > tol
        if bad:
            viols.append(
                (
                    "1",
                    (q, a, b),
                    Violation(
                        "1",
                        (("state", q), ("read", a), ("top", b)),
                        _norm_residual(s),
                    ),
                )
            )
    return evaluated


def _pop_on_bottom(t, weight):
    """The "pop-on-z" entry for row ``t``, which pops the bottom symbol."""
    return (
        "pop-on-z",
        (t.source, t.read, t.top, t.target, t.move),
        Violation(
            "pop-on-z",
            (
                ("state", t.source),
                ("read", t.read),
                ("top", t.top),
                ("target", t.target),
                ("move", t.move),
            ),
            weight,
        ),
    )


def _finish(viols, mode, evaluations):
    viols.sort(key=lambda v: (v[0], v[1]))
    ordered = tuple(v[2] for v in viols)
    return WfReport(
        passed=not ordered,
        mode=mode,
        violations=ordered,
        evaluations=evaluations,
    )


def _check_mode(mode):
    if mode not in ("partial", "total"):
        raise InvariantError(f"unknown check mode {mode!r}")


# ======================================================================
# QPAG checker
# ======================================================================


def check_qpag(machine: MachineQPAG, mode: str = "partial", tol: float = 1e-9) -> WfReport:
    """Column conditions for the garbage-tape machine."""
    _check_mode(mode)
    trans = [t for t in machine.transitions if t.amp != 0]
    g_set = machine.push_string_universe
    bottom = machine.stack_alphabet.bottom
    viols: list = []

    # pop on the bottom symbol is never allowed
    for t in trans:
        if t.op.kind == "pop" and t.top == bottom:
            viols.append(_pop_on_bottom(t, abs(t.amp)))

    evaluations = {cid: 0 for cid in CONDITION_IDS}

    # (1) column norms
    sums1 = _column_norms(trans, lambda t: abs(t.amp) ** 2)
    evaluations["1"] = _norm_violations(machine, sums1, mode, tol, viols)

    # (2) two columns with the same (read, top): orthogonal images
    by_target = {}
    for t in trans:
        by_target.setdefault(
            (t.read, t.top, t.target, t.op.sort_key(), t.move), []
        ).append((t.source, t.amp))
    sums2 = _Sums()
    for (a, b, tgt, opk, mv), entries in by_target.items():
        entries = sorted(entries, key=lambda e: e[0])
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                (q1, a1), (q2, a2) = entries[i], entries[j]
                sums2.add((a, b, q1, q2), (tgt, opk, mv), a1.conjugate() * a2)
    _orth_violations(
        sums2,
        tol,
        viols,
        "2",
        lambda key: (
            ("read", key[0]),
            ("top", key[1]),
            ("state1", key[2]),
            ("state2", key[3]),
        ),
    )
    evaluations["2"] = len(sums2)

    eps = [t for t in trans if t.op.kind == "epsilon"]
    pushes = [t for t in trans if t.op.kind == "push"]
    pops = [t for t in trans if t.op.kind == "pop"]

    # (3a) same head move and read: an epsilon column against a column that
    # pushes prefix+top onto the same hidden stack
    push_same = {}
    for p in pushes:
        push_same.setdefault((p.read, p.target, p.move), []).append(p)
    sums3a = _Sums()
    for e in eps:
        for p in push_same.get((e.read, e.target, e.move), ()):
            payload = p.op.payload
            if payload[-1] != e.top:
                continue
            prefix = payload[:-1]
            if prefix and prefix not in g_set:
                continue
            if (e.source, e.top) == (p.source, p.top):
                continue
            key = (e.read, e.source, e.top, p.source, p.top, prefix)
            sums3a.add(key, (e.target, e.move), e.amp.conjugate() * p.amp)
    _orth_violations(
        sums3a,
        tol,
        viols,
        "3a",
        lambda key: (
            ("read", key[0]),
            ("state1", key[1]),
            ("top1", key[2]),
            ("state2", key[3]),
            ("top2", key[4]),
            ("prefix", tokens_doc(key[5])),
        ),
    )
    evaluations["3a"] = len(sums3a)

    # (3b) same head move and read: a pop column against a column pushing the
    # revealed suffix (epsilon counts as the empty suffix)
    other_same = {}
    for o in eps + pushes:
        other_same.setdefault((o.read, o.target, o.move), []).append(o)
    sums3b = _Sums()
    for t1 in pops:
        for o in other_same.get((t1.read, t1.target, t1.move), ()):
            if (t1.source, t1.top) == (o.source, o.top):
                continue
            key = (
                t1.read,
                t1.source,
                t1.top,
                o.source,
                o.top,
                o.op.sort_key(),
            )
            sums3b.add(key, (t1.target, t1.move), t1.amp.conjugate() * o.amp)
    _orth_violations(
        sums3b,
        tol,
        viols,
        "3b",
        lambda key: (
            ("read", key[0]),
            ("state1", key[1]),
            ("top1", key[2]),
            ("state2", key[3]),
            ("top2", key[4]),
            ("op2", _op_desc(key[5])),
        ),
    )
    evaluations["3b"] = len(sums3b)

    # (4) same stack, heads one apart: stationary against advancing columns
    shift = {}
    for t in trans:
        shift.setdefault((t.top, t.target, t.op.sort_key()), ([], []))[t.move].append(t)
    sums4 = _Sums()
    for (b, tgt, opk), (m0, m1) in shift.items():
        for t0 in m0:
            for t1 in m1:
                if (t0.source, t0.read) == (t1.source, t1.read):
                    continue
                key = (b, t0.source, t0.read, t1.source, t1.read)
                sums4.add(key, (tgt, opk), t0.amp.conjugate() * t1.amp)
    _orth_violations(
        sums4,
        tol,
        viols,
        "4",
        lambda key: (
            ("top", key[0]),
            ("state1", key[1]),
            ("read1", key[2]),
            ("state2", key[3]),
            ("read2", key[4]),
        ),
    )
    evaluations["4"] = len(sums4)

    # (5a) like (3a) with opposite head moves and free reads
    push_any = {}
    for p in pushes:
        push_any.setdefault(p.target, []).append(p)
    sums5a = _Sums()
    for e in eps:
        for p in push_any.get(e.target, ()):
            if e.move == p.move:
                continue
            payload = p.op.payload
            if payload[-1] != e.top:
                continue
            prefix = payload[:-1]
            if prefix and prefix not in g_set:
                continue
            if (e.source, e.read, e.top) == (p.source, p.read, p.top):
                continue
            key = (
                e.source,
                e.read,
                e.top,
                e.move,
                p.source,
                p.read,
                p.top,
                p.move,
                prefix,
            )
            sums5a.add(key, (e.target,), e.amp.conjugate() * p.amp)
    _orth_violations(
        sums5a,
        tol,
        viols,
        "5a",
        lambda key: (
            ("state1", key[0]),
            ("read1", key[1]),
            ("top1", key[2]),
            ("move1", key[3]),
            ("state2", key[4]),
            ("read2", key[5]),
            ("top2", key[6]),
            ("move2", key[7]),
            ("prefix", tokens_doc(key[8])),
        ),
    )
    evaluations["5a"] = len(sums5a)

    # (5b) like (3b) with opposite head moves and free reads
    other_any = {}
    for o in eps + pushes:
        other_any.setdefault(o.target, []).append(o)
    sums5b = _Sums()
    for t1 in pops:
        for o in other_any.get(t1.target, ()):
            if t1.move == o.move:
                continue
            if (t1.source, t1.read, t1.top) == (o.source, o.read, o.top):
                continue
            key = (
                t1.source,
                t1.read,
                t1.top,
                t1.move,
                o.source,
                o.read,
                o.top,
                o.move,
                o.op.sort_key(),
            )
            sums5b.add(key, (t1.target,), t1.amp.conjugate() * o.amp)
    _orth_violations(
        sums5b,
        tol,
        viols,
        "5b",
        lambda key: (
            ("state1", key[0]),
            ("read1", key[1]),
            ("top1", key[2]),
            ("move1", key[3]),
            ("state2", key[4]),
            ("read2", key[5]),
            ("top2", key[6]),
            ("move2", key[7]),
            ("op2", _op_desc(key[8])),
        ),
    )
    evaluations["5b"] = len(sums5b)

    return _finish(viols, mode, evaluations)


def _op_desc(op_key) -> str:
    kind, payload = op_key
    return StackOp(kind, tuple(payload)).describe()


def _orth_violations(sums, tol, viols, cid, witness_of):
    for key, total in sums.totals():
        if abs(total) > tol:
            viols.append((cid, key, Violation(cid, witness_of(key), abs(total))))


# ======================================================================
# QCPDA checker
# ======================================================================


def check_qcpda(machine: MachineQCPDA, mode: str = "partial", tol: float = 1e-9) -> WfReport:
    """Unitarity-for-every-word conditions for the scheduled-stack machine.

    Checks per stack symbol: column norms (1), same-column-index
    orthogonality (2), and the head-shift products (4), which must vanish for
    every ordered source pair including a source against itself since a word
    may repeat a symbol at adjacent positions. Also flags any amplitude that
    would schedule a pop on the bottom symbol.
    """
    _check_mode(mode)
    trans = [t for t in machine.transitions if t.amp != 0]
    bottom = machine.stack_alphabet.bottom
    sigma = machine.sigma_map
    viols: list = []

    for t in trans:
        op = sigma.get(t.target)
        if op is not None and op.kind == "pop" and t.top == bottom:
            viols.append(_pop_on_bottom(t, abs(t.amp)))

    evaluations = {"1": 0, "2": 0, "4": 0}

    sums1 = _column_norms(trans, lambda t: abs(t.amp) ** 2)
    evaluations["1"] = _norm_violations(machine, sums1, mode, tol, viols)

    by_target = {}
    for t in trans:
        by_target.setdefault((t.read, t.top, t.target, t.move), []).append(
            (t.source, t.amp)
        )
    sums2 = _Sums()
    for (a, b, tgt, mv), entries in by_target.items():
        entries = sorted(entries, key=lambda e: e[0])
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                (q1, a1), (q2, a2) = entries[i], entries[j]
                sums2.add((a, b, q1, q2), (tgt, mv), a1.conjugate() * a2)
    _orth_violations(
        sums2,
        tol,
        viols,
        "2",
        lambda key: (
            ("read", key[0]),
            ("top", key[1]),
            ("state1", key[2]),
            ("state2", key[3]),
        ),
    )
    evaluations["2"] = len(sums2)

    shift = {}
    for t in trans:
        shift.setdefault((t.top, t.target), ([], []))[t.move].append(t)
    sums4 = _Sums()
    for (b, tgt), (m0, m1) in shift.items():
        for t0 in m0:
            for t1 in m1:
                key = (b, t0.source, t0.read, t1.source, t1.read)
                sums4.add(key, (tgt,), t0.amp.conjugate() * t1.amp)
    _orth_violations(
        sums4,
        tol,
        viols,
        "4",
        lambda key: (
            ("top", key[0]),
            ("state1", key[1]),
            ("read1", key[2]),
            ("state2", key[3]),
            ("read2", key[4]),
        ),
    )
    evaluations["4"] = len(sums4)

    return _finish(viols, mode, evaluations)


# ======================================================================
# PPA checker
# ======================================================================


def check_ppa(machine: MachinePPA, tol: float = 1e-9) -> WfReport:
    """Row stochasticity: every defined column's probabilities sum to 1,
    every probability lies in [0, 1], and nothing pops the bottom symbol."""
    bottom = machine.stack_alphabet.bottom
    viols: list = []

    for t in machine.transitions:
        if t.prob != 0 and t.op.kind == "pop" and t.top == bottom:
            viols.append(_pop_on_bottom(t, abs(t.prob)))
        if t.prob < -tol or t.prob > 1 + tol:
            dist = t.prob - 1 if t.prob > 1 else -t.prob
            key = (t.source, t.read, t.top, t.target, t.move, 1)
            viols.append(
                (
                    "range",
                    key,
                    Violation(
                        "range",
                        (
                            ("state", t.source),
                            ("read", t.read),
                            ("top", t.top),
                            ("target", t.target),
                            ("move", t.move),
                            ("prob", t.prob),
                        ),
                        dist,
                    ),
                )
            )

    sums = _Sums()
    for t in machine.transitions:
        if t.prob == 0:
            continue
        sums.add(
            (t.source, t.read, t.top),
            (t.target, t.op.sort_key(), t.move),
            complex(t.prob),
        )
    evaluated = 0
    for (q, a, b), total in sums.totals():
        evaluated += 1
        s = total.real
        if abs(s - 1) > tol:
            viols.append(
                (
                    "1",
                    (q, a, b),
                    Violation(
                        "1",
                        (("state", q), ("read", a), ("top", b)),
                        _norm_residual(s),
                    ),
                )
            )

    return _finish(viols, "total", {"1": evaluated})


# ======================================================================
# Configuration-level audit
# ======================================================================


@dataclass(frozen=True)
class AuditFailure:
    kind: str  # "norm" or "orthogonality"
    configs: tuple[Configuration, ...]
    value: float

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "configs": [c.to_json_dict() for c in self.configs],
            "value": self.value,
        }


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    examined: int
    stepped: int
    warnings: tuple[str, ...]
    failures: tuple[AuditFailure, ...]

    def to_json_dict(self):
        return {
            "passed": self.passed,
            "examined": self.examined,
            "stepped": self.stepped,
            "warnings": list(self.warnings),
            "failures": [f.to_json_dict() for f in self.failures],
        }


def audit_unitarity(
    machine: MachineQPAG,
    word,
    depth: int = 10,
    tol: float = 1e-9,
    cap: int = CONFIG_CAP,
) -> AuditReport:
    """Evolve every configuration reachable within ``depth`` steps and verify
    that images have unit norm and are pairwise orthogonal.

    Configurations whose head sits past the right endmarker cannot evolve and
    are skipped silently; non-parked configurations whose column is undefined
    produce a warning (not a failure), so partially specified machines audit
    their defined fragment. An empty machine passes vacuously with a warning.
    Norms and overlaps are summed over each column's rows in canonical order,
    so the report does not depend on the order of the transition table.
    """
    if depth < 1:
        raise InvariantError("audit depth must be at least 1")
    tape = make_tape(machine, word)
    n = len(tape)
    table: dict = {}
    first = start(machine, table)
    # every configuration met so far -> its plain-tuple view, the sort key
    seen = {first: first.view()}
    frontier = [first]
    warn = set()
    vecs: dict[CellConfiguration, dict[CellConfiguration, complex]] = {}
    # levels 0..depth-1 expand the frontier; level depth only takes images
    for level in range(depth + 1):
        new = []
        for c in sorted(frontier, key=seen.__getitem__):
            if c.head >= n:
                continue
            top = c.stack.symbol
            col = machine.columns.get((c.state, tape[c.head], top))
            if col is None:
                warn.add(
                    f"undefined column (state={c.state}, read={tape[c.head]}, "
                    f"top={top})"
                )
                continue
            vec: dict[CellConfiguration, complex] = {}
            for t in col:
                succ = successor(table, c, t)
                vec[succ] = vec.get(succ, 0j) + t.amp
            vecs[c] = vec
            if level == depth:
                continue
            for succ in vec:
                if succ not in seen:
                    seen[succ] = succ.view()
                    new.append(succ)
            if len(seen) > cap:
                raise StateSpaceOverflow(
                    f"audit exceeded {cap} configurations"
                )
        frontier = new
        if not frontier:
            break

    images = sorted(vecs.items(), key=lambda item: seen[item[0]])

    failures = []
    for c, vec in images:
        norm = sum(abs(a) ** 2 for a in vec.values()) ** 0.5
        if abs(norm - 1) > tol:
            failures.append(AuditFailure("norm", (seen[c],), norm))

    by_target: dict[CellConfiguration, list[tuple[int, complex]]] = {}
    for i, (_, vec) in enumerate(images):
        for tgt, a in vec.items():
            by_target.setdefault(tgt, []).append((i, a))
    overlaps: dict[tuple[int, int], complex] = {}
    for entries in by_target.values():
        for x in range(len(entries)):
            for y in range(x + 1, len(entries)):
                (i, ai), (j, aj) = entries[x], entries[y]
                overlaps[(i, j)] = overlaps.get((i, j), 0j) + ai.conjugate() * aj
    for (i, j) in sorted(overlaps):
        v = abs(overlaps[(i, j)])
        if v > tol:
            witnesses = (seen[images[i][0]], seen[images[j][0]])
            failures.append(AuditFailure("orthogonality", witnesses, v))

    if not machine.transitions:
        warn.add("machine has no transitions; audit is vacuous")

    return AuditReport(
        passed=not failures,
        examined=len(seen),
        stepped=len(images),
        warnings=tuple(sorted(warn)),
        failures=tuple(failures),
    )
