"""The four workloads.

Each workload builds its inputs from the seed in ``build`` and does one
atomic, deterministic unit of work in ``round``; the runner repeats rounds
for the timed window. Every output is checked: a wrong output or an
exception becomes a failed item with its reasons, never an aborted run.

Timing. Every timing is scaled to a reference host speed (see clock.py)
and every item is repeated; an item's time is the median of its
repetitions. ``item_ms_p50`` and ``item_ms_tail`` are percentiles over the
distinct items of those times, and ``items_per_s`` is the number of
verified items one round stands for over the sum of its items' times.
"""

from __future__ import annotations

import itertools
import random
import statistics
from time import perf_counter

import inputs

TOL = 1e-9


def guarded(fn, *args, **kwargs):
    """Run ``fn``; an exception becomes a reported problem."""
    try:
        return fn(*args, **kwargs), []
    except Exception as exc:  # noqa: BLE001 - every failure is reported
        return None, [f"{type(exc).__name__}: {exc}"]


class Tally:
    """Verified items: how many were attempted, which failed and why."""

    MAX_LISTED = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, label, problems, count=1, failed=None):
        if failed is None:
            failed = count if problems else 0
        self.attempted += count
        self.failed += failed
        if problems and len(self.failures) < self.MAX_LISTED:
            self.failures.append({"item": label, "problems": problems[:5]})


class ItemTimes:
    """Scaled times of each item's repetitions, and how many verified
    items each item stands for."""

    def __init__(self):
        self.samples = {}
        self.count = {}

    def add(self, key, seconds, count=1):
        self.samples.setdefault(key, []).append(seconds)
        self.count[key] = count

    def time(self, key):
        return statistics.median(self.samples[key])

    def items_per_s(self):
        return sum(self.count.values()) / sum(self.time(k) for k in self.samples)

    def latency(self):
        """``item_ms_p50`` and ``item_ms_tail``: the tail is the highest
        percentile with at least ten items beyond it."""
        ms = sorted(self.time(k) * 1e3 for k in self.samples)
        n = len(ms)
        out = {"item_ms_p50": (statistics.median(ms), "ms", n)}
        if n >= 11:
            out["item_ms_tail"] = (ms[-11], "ms", n)
            out["item_ms_tail.percentile"] = (100.0 * (n - 10) / n, "%", n)
        return out


def ledger_problems(result, expected_acc=None, expected_rej=None):
    """Checks every run result gets: the four masses sum to one, and the
    expected outcome probabilities where they are known."""
    problems = []
    if abs(result.total() - 1) > TOL:
        problems.append(f"masses sum to {result.total()!r}")
    if expected_acc is not None and abs(result.p_acc - expected_acc) > TOL:
        problems.append(f"p_acc {result.p_acc!r}, expected {expected_acc!r}")
    if expected_rej is not None and abs(result.p_rej - expected_rej) > TOL:
        problems.append(f"p_rej {result.p_rej!r}, expected {expected_rej!r}")
    return problems


def build_builtin(qp, rec):
    with rec.span("model.build"):
        machine = qp.problem1.build_machine()
        machine.columns  # noqa: B018 - the column index is part of the build
    return machine


def recognizer_run(qp, machine, inst, key, times, clock, tally, rec):
    """Run the built-in recognizer on one instance; the class probability
    must be exactly one (against ``problem1.classify``) and the four masses
    must sum to one."""
    with rec.span("bench.item"):
        t0 = clock.start()
        result, problems = guarded(qp.run, machine, inst.tokens())
        times.add(key, clock.stop(t0))
    if not problems:
        yes = qp.problem1.classify(inst) == qp.problem1.YES
        problems = ledger_problems(result, 1.0 if yes else 0.0, 0.0 if yes else 1.0)
    tally.add(f"n={inst.n} {inst.word()[:40]}", problems)


class DepthRuns:
    """Runs of the built-in recognizer on seeded yes and no instances,
    timed per configuration-step.

    The configuration-step count of a word is the sum of the live
    configurations over its steps. It is taken once per word from the
    public ``simulate.trajectory`` and repeats exactly.
    """

    def __init__(self, qp, machine, seed, slots, clock):
        self.qp = qp
        self.machine = machine
        self.clock = clock
        self.insts = [
            qp.problem1.generate(n, cls, seed=seed * 1000 + i)
            for i, (n, cls) in enumerate(slots)
        ]
        self.times = ItemTimes()

    def run(self, i, tally, rec):
        inst = self.insts[i]
        recognizer_run(self.qp, self.machine, inst, i, self.times, self.clock, tally, rec)

    def round(self, tally, rec):
        for i in range(len(self.insts)):
            self.run(i, tally, rec)

    def config_steps(self, inst):
        qp = self.qp
        tape = qp.make_tape(self.machine, inst.tokens())
        budget = qp.default_max_steps(len(tape) - 2)
        return sum(len(r.psi) for r in qp.trajectory(self.machine, tape, budget))

    def us_per_config_step(self):
        """Median microseconds per configuration-step over every run of
        each size; runs of one size cost the same whatever the word."""
        per_n = {}
        for i, inst in enumerate(self.insts):
            steps = self.config_steps(inst)
            per_n.setdefault(inst.n, []).extend(t * 1e6 / steps for t in self.times.samples.get(i, ()))
        return {
            f"us_per_config_step.n{n}": (statistics.median(v), "us", len(v))
            for n, v in sorted(per_n.items()) if v
        }


# Depth probe of the traced run, for the workloads whose rounds have no
# deep runs.
PROBE_SLOTS = ((128, "yes"), (128, "no")) * 3 + ((512, "yes"), (512, "no"))


class Workload:
    min_rounds = 1

    def __init__(self, clock):
        self.clock = clock

    def _set_depth_probe(self, qp, machine, seed):
        self.depth = DepthRuns(qp, machine, seed, PROBE_SLOTS, self.clock)

    def depth_probe(self, tally, rec):
        """The traced run's fixed depth runs, for us_per_config_step."""
        self.depth.round(tally, rec)

    def tick(self, tally, rec):
        """Called between rounds and between command-line checks of the
        timed run; see SweepExhaustive."""

    def probe(self, tally, rec):
        """Called once before and once after the timed window."""

    def metrics(self):
        out = {"items_per_s": (self.times.items_per_s(), "1/s", sum(self.times.count.values()))}
        out.update(self.times.latency())
        return out


class SweepExhaustive(Workload):
    """problem1.sweep in exhaustive mode for n = 1 and n = 2 (36 and 1,296
    instances): many short runs on one machine, with stacks at most 2 deep
    and long prefixes shared by consecutive words.

    n = 3 (46,656 instances, 12.8 s in one call) is left out: a single call
    that long cannot be repeated inside the window, and its time swings
    with the host's load as a whole (one 10-second run fitted two n = 3
    sweeps while the others fitted less than one)."""

    name = "sweep_exhaustive"
    SIZES = (1, 2)
    LATENCY_SAMPLES = 100
    SAMPLES_PER_TICK = 10
    TICK_S = 0.4

    def build(self, qp, seed, rec):
        self.qp = qp
        self.machine = build_builtin(qp, rec)
        # sweep() does not time single instances, so per-instance latency
        # comes from single runs of seeded instances drawn with the sizes'
        # shares of the exhaustive space. They run from tick(), a few at a
        # time between rounds and command-line checks, so that each
        # instance's repetitions are spread over the whole run.
        rng = random.Random(f"perfbench-sweep|{seed}")
        self.samples = [
            qp.problem1.generate(
                rng.choices(self.SIZES, weights=[36**n for n in self.SIZES])[0],
                rng.choice((qp.problem1.YES, qp.problem1.NO)),
                seed=rng.randrange(10**9),
            )
            for _ in range(self.LATENCY_SAMPLES)
        ]
        self.sample_times = ItemTimes()
        self._next_sample = itertools.cycle(range(self.LATENCY_SAMPLES))
        self._next_tick = 0.0
        self.times = ItemTimes()
        self._set_depth_probe(qp, self.machine, seed)

    def round(self, tally, rec):
        for n in self.SIZES:
            want = 36**n
            with rec.span("bench.item"):
                t0 = self.clock.start()
                rep, problems = guarded(self.qp.problem1.sweep, n, machine=self.machine)
                seconds = self.clock.stop(t0)
            if problems:
                tally.add(f"sweep n={n}", problems, count=want)
                continue
            problems = [f"{f.word}: expected {f.expected}, deviation {f.deviation!r}" for f in rep.failures]
            failed = len(rep.failures)
            if rep.checked != want:
                problems.append(f"checked {rep.checked} of {want} instances")
                failed += abs(want - rep.checked)
            if rep.max_deviation > TOL:
                problems.append(f"max deviation {rep.max_deviation!r}")
            tally.add(f"sweep n={n}", problems, count=want, failed=min(failed, want))
            self.times.add(n, seconds, count=want)

    def _sample(self, i, tally, rec):
        recognizer_run(self.qp, self.machine, self.samples[i], i, self.sample_times, self.clock, tally, rec)

    def tick(self, tally, rec):
        if perf_counter() >= self._next_tick:
            for _ in range(self.SAMPLES_PER_TICK):
                self._sample(next(self._next_sample), tally, rec)
            self._next_tick = perf_counter() + self.TICK_S

    def probe(self, tally, rec):
        for i in range(self.LATENCY_SAMPLES):
            self._sample(i, tally, rec)

    def metrics(self):
        out = super().metrics()
        out.update(self.sample_times.latency())
        return out


class LongTape(Workload):
    """Single runs of the built-in recognizer on seeded yes and no
    instances at n = 128 and n = 512: runs whose stacks and garbage tapes
    grow up to n symbols deep."""

    name = "long_tape"
    # 13 words at n = 128 and 11 at n = 512, so that the median item is a
    # 128-run and the tail, ten items from the top, a 512-run
    SLOTS = ((128, "yes"), (128, "no")) * 6 + ((128, "yes"),) + ((512, "yes"), (512, "no")) * 5 + ((512, "no"),)
    min_rounds = 2

    def build(self, qp, seed, rec):
        self.qp = qp
        self.depth = DepthRuns(qp, build_builtin(qp, rec), seed, self.SLOTS, self.clock)
        self.times = self.depth.times

    def round(self, tally, rec):
        self.depth.round(tally, rec)

    def depth_probe(self, tally, rec):
        pass  # the rounds are the depth runs


class LowerEquiv(Workload):
    """Fifty seeded scheduled-stack machines: lower each one, write the
    image and read it back, then compare the two machines on all 31 words
    of length <= 4 with an 8-step budget."""

    name = "lower_equiv"
    MACHINES = 50
    MAX_STEPS = 8
    min_rounds = 3  # a round takes about 5 s; three give each machine a median

    def build(self, qp, seed, rec):
        self.qp = qp
        with rec.span("model.build"):
            self.machines = [
                inputs.scheduled_stack_machine(qp, seed, i) for i in range(self.MACHINES)
            ]
            for m in self.machines:
                m.columns  # noqa: B018
                m.sigma_map  # noqa: B018
        self.words = inputs.binary_words(4)
        self.times = ItemTimes()
        self._set_depth_probe(qp, build_builtin(qp, rec), seed)

    def _lower(self, machine):
        qp = self.qp
        image, _ = qp.compile_qcpda(machine)
        text = qp.serialize_machine(image)
        back = qp.parse_machine(text)
        report = qp.equiv_check(machine, back, self.words, max_steps=self.MAX_STEPS)
        return image, text, back, report

    def _problems(self, out):
        image, text, back, report = out
        problems = []
        if back != image:
            problems.append("parsed image differs from the compiled one")
        if self.qp.serialize_machine(back) != text:
            problems.append("image text is not byte-stable across a round trip")
        if len(report.rows) != len(self.words):
            problems.append(f"{len(report.rows)} equivalence rows for {len(self.words)} words")
        for row in report.rows:
            if not row.passed or row.delta_acc > TOL or row.delta_rej > TOL or not row.decoherent:
                problems.append(
                    f"word {row.word!r}: delta_acc {row.delta_acc!r}, "
                    f"delta_rej {row.delta_rej!r}, decoherent {row.decoherent}"
                )
        if not report.passed and not problems:
            problems.append("equivalence report failed")
        return problems

    def round(self, tally, rec):
        for i, machine in enumerate(self.machines):
            with rec.span("bench.item"):
                t0 = self.clock.start()
                out, problems = guarded(self._lower, machine)
                self.times.add(i, self.clock.stop(t0))
            tally.add(f"machine {i}", problems or self._problems(out))


class VerifyIO(Workload):
    """The file-and-verification path: each task parses a serialized
    machine, runs its checks, audits or runs it on seeded words and writes
    the report with emit_json."""

    name = "verify_io"
    AUDIT_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)
    AUDITS_PER_SIZE = 5
    SCHEDULED = 24
    CLASSICAL_TASKS = 5
    IMAGE_DEPTH = 3 * LowerEquiv.MAX_STEPS  # three image steps per original step

    def build(self, qp, seed, rec):
        self.qp = qp
        rng = random.Random(f"perfbench-verify|{seed}")
        builtin = build_builtin(qp, rec)
        with rec.span("model.build"):
            sched = [inputs.scheduled_stack_machine(qp, seed, i) for i in range(self.SCHEDULED)]
            coin = inputs.coin_ppa(qp)
            dpda = inputs.mirror_dpda(qp)
            for m in sched + [coin, dpda]:
                m.columns  # noqa: B018
        images = [qp.compile_qcpda(m)[0] for m in sched]
        ser = qp.serialize_machine
        builtin_text = ser(builtin)
        tasks = []
        for n in self.AUDIT_SIZES:
            for _ in range(self.AUDITS_PER_SIZE):
                inst = qp.problem1.generate(n, rng.choice(("yes", "no")), seed=rng.randrange(10**9))
                tasks.append(("builtin", builtin_text, self._qpag_task(inst.tokens(), None)))
        for i, (m, image) in enumerate(zip(sched, images)):
            # the length, like the machine's shape, is fixed by the index
            word = tuple(rng.choice("01") for _ in range(2 + i % 5))
            tasks.append(("image", ser(image), self._qpag_task(word, self.IMAGE_DEPTH)))
            tasks.append(("qcpda", ser(m), self._qcpda_task))
        for _ in range(self.CLASSICAL_TASKS):
            coin_words = ["a" * rng.randrange(12) for _ in range(8)]
            tasks.append(("coin", ser(coin), self._coin_task(coin_words)))
            tasks.append(("dpda", ser(dpda), self._dpda_task(inputs.mirror_words(rng, 16, 12))))
        self.tasks = tasks
        self.times = ItemTimes()
        self._set_depth_probe(qp, builtin, seed)

    # Each task body returns (report document, problems).

    def _total_problems(self, machine, report):
        """Total mode must flag exactly the undefined columns, because
        every defined column of these machines has unit norm."""
        want = inputs.undefined_columns(machine)
        got = {
            tuple(value for _, value in v.witness)
            for v in report.violations if v.condition == "1"
        }
        others = [v.condition for v in report.violations if v.condition != "1"]
        if got != want or others or report.passed != (not want):
            return [
                f"total mode flagged {len(got)} columns and {len(others)} other "
                f"violations; {len(want)} columns are undefined"
            ]
        return []

    def _qpag_task(self, word, depth):
        def task(machine):
            qp = self.qp
            partial = qp.check_qpag(machine, mode="partial")
            total = qp.check_qpag(machine, mode="total")
            d = depth if depth is not None else qp.default_max_steps(len(word))
            audit = qp.audit_unitarity(machine, word, depth=d)
            problems = [] if partial.passed else ["partial check failed"]
            problems += self._total_problems(machine, total)
            if not audit.passed:
                problems.append(f"audit failed on {''.join(word)!r}")
            doc = {"partial": partial.to_json_dict(), "total": total.to_json_dict(),
                   "audit": audit.to_json_dict()}
            return doc, problems
        return task

    def _qcpda_task(self, machine):
        qp = self.qp
        partial = qp.check_qcpda(machine, mode="partial")
        total = qp.check_qcpda(machine, mode="total")
        problems = [] if partial.passed else ["partial check failed"]
        problems += self._total_problems(machine, total)
        return {"partial": partial.to_json_dict(), "total": total.to_json_dict()}, problems

    def _coin_task(self, words):
        def task(machine):
            qp = self.qp
            check = qp.check_ppa(machine)
            problems = [] if check.passed else ["check_ppa failed"]
            runs = []
            for w in words:
                r = qp.run_ppa(machine, w)
                problems += ledger_problems(r, 0.5, 0.5)
                runs.append(r.to_json_dict())
            return {"check": check.to_json_dict(), "runs": runs}, problems
        return task

    def _dpda_task(self, words):
        def task(machine):
            qp = self.qp
            check = qp.check_ppa(machine)
            problems = [] if check.passed else ["check_ppa failed"]
            verdicts = []
            for w, member in words:
                v = qp.run_dpda(machine, w)
                r = qp.run_ppa(machine, w)
                want = qp.ACCEPT if member else qp.REJECT
                if v != want:
                    problems.append(f"run_dpda({w!r}) = {v}, expected {want}")
                problems += ledger_problems(r, 1.0 if member else 0.0, 0.0 if member else 1.0)
                verdicts.append({"word": w, "verdict": v, "run": r.to_json_dict()})
            return {"check": check.to_json_dict(), "verdicts": verdicts}, problems
        return task

    def _run_task(self, text, body):
        machine = self.qp.parse_machine(text)
        doc, problems = body(machine)
        return self.qp.emit_json(doc, floats="sig12"), problems

    def round(self, tally, rec):
        for i, (kind, text, body) in enumerate(self.tasks):
            with rec.span("bench.item"):
                t0 = self.clock.start()
                out, problems = guarded(self._run_task, text, body)
                self.times.add(i, self.clock.stop(t0))
            if not problems:
                report, problems = out
                if not report.endswith("}\n"):
                    problems = ["report is not a JSON document"]
            tally.add(kind, problems)


WORKLOADS = {w.name: w for w in (SweepExhaustive, LongTape, LowerEquiv, VerifyIO)}
