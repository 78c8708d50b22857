"""Spans around the calls into each qpag layer, for the traced run.

The wrappers live here, in the benchmark, not in the program:
``Recorder.install`` replaces the module-level names the layers call
through and ``Recorder.uninstall`` puts the originals back. Spans stay in
memory until the run writes them out. Calls made once per engine step
(``simulate.measure``, ``branching.qcpda_step`` and each ``next()`` of the
compiler's trajectory) are only totalled, so the trace of a sweep stays
small; they still count as children when a span's self time is computed.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# Per-call counters, fed from a wrapped call's arguments and result.


def _measure_counts(rec, args, result):
    rest = result[0]
    rec.add("simulate.config_steps", len(rest))
    rec.peak("simulate.peak_live_configs", len(rest))
    if rest:
        rec.peak("simulate.peak_stack_depth", max(len(c.stack) for c in rest))


def _run_counts(rec, args, result):
    rec.peak("simulate.max_mass_error", abs(result.total() - 1))


def _step_counts(rec, args, result):
    rec.add("branching.children", len(result.children))


def _audit_counts(rec, args, result):
    rec.add("wellformed.audit.examined", result.examined)


def _text_in(name):
    def count(rec, args, result):
        rec.add(name, len(args[0].encode("utf-8")))
    return count


def _text_out(name):
    def count(rec, args, result):
        rec.add(name, len(result.encode("utf-8")))
    return count


# name -> (bindings it is called through, kind, counter hook).
# kind "span": every call is kept as a span; "total": calls made once per
# engine step, only totalled; "next": a generator, each next() totalled.
# ``qpag.machinefile.emit_json`` is left alone on purpose: its only caller
# there is serialize_machine, whose bytes are counted already.
LAYER_CALLS = {
    "simulate.run": (("qpag.run", "qpag.problem1.run", "qpag.cli.run"), "span", _run_counts),
    "simulate.measure": (("qpag.simulate.measure",), "total", _measure_counts),
    "problem1.sweep": (("qpag.problem1.sweep",), "span", None),
    "branching.run_qcpda": (("qpag.run_qcpda", "qpag.compiler.run_qcpda", "qpag.cli.run_qcpda"), "span", None),
    "branching.qcpda_step": (("qpag.branching.qcpda_step",), "total", _step_counts),
    "compiler.compile_qcpda": (("qpag.compile_qcpda", "qpag.cli.compile_qcpda"), "span", None),
    "compiler.equiv_check": (("qpag.equiv_check", "qpag.cli.equiv_check"), "span", None),
    "compiler.image_trajectory": (("qpag.compiler.trajectory",), "next", None),
    "wellformed.check_qpag": (("qpag.check_qpag", "qpag.cli.check_qpag"), "span", None),
    "wellformed.check_qcpda": (("qpag.check_qcpda", "qpag.compiler.check_qcpda", "qpag.cli.check_qcpda"), "span", None),
    "wellformed.check_ppa": (("qpag.check_ppa", "qpag.cli.check_ppa"), "span", None),
    "wellformed.audit_unitarity": (("qpag.audit_unitarity", "qpag.cli.audit_unitarity"), "span", _audit_counts),
    "machinefile.parse_machine": (("qpag.parse_machine", "qpag.cli.parse_machine"), "span", _text_in("machinefile.parse_machine.bytes")),
    "machinefile.serialize_machine": (("qpag.serialize_machine", "qpag.cli.serialize_machine"), "span", _text_out("machinefile.serialize_machine.bytes")),
    "machinefile.emit_json": (("qpag.emit_json", "qpag.cli.emit_json"), "span", _text_out("machinefile.emit_json.bytes")),
    "classical.run_ppa": (("qpag.run_ppa", "qpag.cli.run_ppa"), "span", None),
    "classical.run_dpda": (("qpag.run_dpda",), "span", None),
    "cli.main": (("qpag.cli.main",), "span", None),
}


class NullRecorder:
    """Stands in for the recorder when tracing is off."""

    @contextlib.contextmanager
    def span(self, name):
        yield


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name id, parent span id, start, end]
        self._open = []  # [name, start, child time, span id or None]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.counters = defaultdict(int)
        self._restore = []

    # -- spans ---------------------------------------------------------
    def enter(self, name, keep):
        sid = None
        if keep:
            parent = next((f[3] for f in reversed(self._open) if f[3] is not None), -1)
            sid = len(self.spans)
            self.spans.append([self._name_id(name), parent, 0.0, 0.0])
        self._open.append([name, perf_counter(), 0.0, sid])

    def leave(self):
        end = perf_counter()
        name, start, child, sid = self._open.pop()
        busy = end - start
        total = self.totals[name]
        total[0] += 1
        total[1] += busy
        total[2] += busy - child
        if self._open:
            self._open[-1][2] += busy
        if sid is not None:
            self.spans[sid][2] = start
            self.spans[sid][3] = end

    @contextlib.contextmanager
    def span(self, name):
        self.enter(name, True)
        try:
            yield
        finally:
            self.leave()

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- counters ------------------------------------------------------
    def add(self, name, amount):
        self.counters[name] += amount

    def peak(self, name, value):
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    # -- wrappers ------------------------------------------------------
    def install(self):
        """Wrap every binding in LAYER_CALLS; ``uninstall`` undoes it."""
        for name, (bindings, kind, hook) in LAYER_CALLS.items():
            for binding in bindings:
                module_name, attr = binding.rsplit(".", 1)
                module = sys.modules[module_name]
                original = getattr(module, attr)
                self._restore.append((module, attr, original))
                setattr(module, attr, self._wrap(name, kind, hook, original))

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _wrap(self, name, kind, hook, fn):
        rec = self
        if kind == "next":
            def traced_generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    rec.enter(name, False)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec.leave()
                    yield item
            return traced_generator

        keep = kind == "span"

        def traced(*args, **kwargs):
            rec.enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.leave()
            if hook is not None:
                hook(rec, args, result)
            return result
        return traced

    # -- results -------------------------------------------------------
    def durations(self, name):
        nid = self._name_ids.get(name)
        return [s[3] - s[2] for s in self.spans if s[0] == nid]

    def dump(self):
        """Spans in a compact, JSON-ready form: times in microseconds from
        the first span's start."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        return {
            "names": self.names,
            "fields": ["name", "parent", "start_us", "end_us"],
            "spans": [
                [n, p, round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1)]
                for n, p, a, b in self.spans
            ],
        }


def layer_metrics(rec):
    """Per-layer numbers of one traced pass, keyed by metric name."""
    tot = rec.totals
    cnt = rec.counters

    def calls(name):
        return tot[name][0] if name in tot else 0

    def busy(name):
        return tot[name][1] if name in tot else 0.0

    def self_time(name):
        return tot[name][2] if name in tot else 0.0

    examined = cnt.get("wellformed.audit.examined", 0)
    warm = rec.durations("cli.main")
    m = {
        "simulate.run.calls": calls("simulate.run"),
        "simulate.run.busy_s": busy("simulate.run"),
        "simulate.measure.busy_s": busy("simulate.measure"),
        "simulate.config_steps": cnt.get("simulate.config_steps", 0),
        "simulate.peak_live_configs": cnt.get("simulate.peak_live_configs", 0),
        "simulate.peak_stack_depth": cnt.get("simulate.peak_stack_depth", 0),
        "simulate.max_mass_error": float(cnt.get("simulate.max_mass_error", 0.0)),
        "problem1.driver_self_s": self_time("problem1.sweep"),
        "branching.run_qcpda.calls": calls("branching.run_qcpda"),
        "branching.run_qcpda.busy_s": busy("branching.run_qcpda"),
        "branching.qcpda_step.calls": calls("branching.qcpda_step"),
        "branching.children": cnt.get("branching.children", 0),
        "compiler.compile_qcpda.busy_s": busy("compiler.compile_qcpda"),
        "compiler.equiv_check.self_s": self_time("compiler.equiv_check"),
        "compiler.image_trajectory.busy_s": busy("compiler.image_trajectory"),
        "wellformed.check_qpag.busy_s": busy("wellformed.check_qpag"),
        "wellformed.check_qcpda.busy_s": busy("wellformed.check_qcpda"),
        "wellformed.check_ppa.busy_s": busy("wellformed.check_ppa"),
        "wellformed.audit_unitarity.busy_s": busy("wellformed.audit_unitarity"),
        "wellformed.audit.examined": examined,
        "wellformed.us_per_examined_config": (
            busy("wellformed.audit_unitarity") / examined * 1e6 if examined else 0.0
        ),
        "classical.run_ppa.busy_s": busy("classical.run_ppa"),
        "classical.run_ppa.calls": calls("classical.run_ppa"),
        "classical.run_dpda.busy_s": busy("classical.run_dpda"),
        "classical.run_dpda.calls": calls("classical.run_dpda"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.warm_ms": statistics.median(warm) * 1e3 if warm else 0.0,
    }
    for part in ("parse_machine", "serialize_machine", "emit_json"):
        m[f"machinefile.{part}.busy_s"] = busy(f"machinefile.{part}")
        m[f"machinefile.{part}.bytes"] = cnt.get(f"machinefile.{part}.bytes", 0)
    return m


def unit(name):
    """The unit of a layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".us_per_examined_config"):
        return "us"
    if name.endswith(".bytes"):
        return "bytes"
    if name == "simulate.max_mass_error":
        return "1"
    return "count"


# Counts that must repeat exactly between passes and runs of the same code
# on the same seed; later changes may cite them as count-based evidence.
EXACT_COUNTS = (
    "simulate.run.calls",
    "simulate.config_steps",
    "simulate.peak_live_configs",
    "simulate.peak_stack_depth",
    "branching.run_qcpda.calls",
    "branching.qcpda_step.calls",
    "branching.children",
    "wellformed.audit.examined",
    "machinefile.parse_machine.bytes",
    "machinefile.serialize_machine.bytes",
    "machinefile.emit_json.bytes",
    "classical.run_ppa.calls",
    "classical.run_dpda.calls",
    "cli.main.calls",
)
