"""qpag benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric. ``--trace 1`` runs the same work untraced and traced in
alternation and prints the per-layer metrics and the tracing overhead. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller result file, stamped
with the revision, Python version, processor count, seed and sample
counts, goes to ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path("perfbench/out")

import clicheck  # noqa: E402
from clock import SpeedClock  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, ItemTimes, Tally  # noqa: E402

SETUP_REPEATS = 15
CLI_BLOCKS = 2  # before the window, and again after it


def fresh_import():
    """Import qpag from scratch, so that each set-up pays the import."""
    for name in [n for n in sys.modules if n == "qpag" or n.startswith("qpag.")]:
        del sys.modules[name]
    qp = importlib.import_module("qpag")
    importlib.import_module("qpag.problem1")
    importlib.import_module("qpag.cli")
    return qp


def setup(workload, seed, rec):
    """Import qpag, build the machines and generate the inputs."""
    qp = fresh_import()
    workload.build(qp, seed, rec)
    commands = clicheck.write_machines(qp, seed)
    return qp, clicheck.CliCheck(commands, SRC, workload.clock)


def timed_setups(workload, seed):
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = workload.clock.start()
        qp, cli = setup(workload, seed, tracing.NullRecorder())
        times.append(workload.clock.stop(t0))
        gc.collect()  # free the previous import's modules now, not at random
    return qp, cli, times


def measure(workload, args, tally):
    """Untraced run: the end-to-end metrics. Whole rounds repeat until
    ``seconds`` have passed. The workload's probe and CLI_BLOCKS
    command-line checks run before that window and again after it."""
    qp, cli, setup_times = timed_setups(workload, args.seed)
    null = tracing.NullRecorder()
    tick = lambda: workload.tick(tally, null)  # noqa: E731

    def outside_window():
        workload.probe(tally, null)
        for _ in range(CLI_BLOCKS):
            cli.run(qp, tally, null, with_cold=True, between=tick)

    outside_window()
    gc.collect()
    rounds = 0
    t0 = perf_counter()
    while rounds < workload.min_rounds or perf_counter() - t0 < args.seconds:
        workload.round(tally, null)
        tick()
        rounds += 1
    wall = perf_counter() - t0
    outside_window()
    m = {"setup_s": (statistics.median(setup_times), "s", len(setup_times))}
    m.update(workload.metrics())
    m.update(cli.metrics())
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    m["fail_rate"] = (tally.failed / max(tally.attempted, 1), "1", tally.attempted)
    return m, {"rounds": rounds, "window_s": wall, "setup_s": setup_times}, None


def traced(workload, args, tally):
    """Traced run. One pass is one round, the fixed depth probe and the
    in-process command-line calls. Untraced and traced passes alternate
    until ``seconds`` have passed. The per-layer numbers come from the
    fastest traced pass; us_per_config_step comes from the untraced
    passes, so the wrappers do not inflate it."""
    qp, cli, _ = timed_setups(workload, args.seed)
    null = tracing.NullRecorder()

    build_rec = tracing.Recorder()
    workload.build(qp, args.seed, build_rec)
    builds = build_rec.durations("model.build")

    def one_pass(rec):
        gc.collect()
        t0 = workload.clock.start()
        workload.round(tally, rec)
        workload.depth_probe(tally, rec)
        cli.run(qp, tally, rec, with_cold=False)
        return workload.clock.stop(t0)

    depth_times = workload.depth.times
    plain, passes = [], []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < args.seconds:
        plain.append(one_pass(null))
        rec = tracing.Recorder()
        workload.depth.times = ItemTimes()  # traced timings are not kept
        rec.install()
        try:
            wall = one_pass(rec)
        finally:
            rec.uninstall()
            workload.depth.times = depth_times
        passes.append((wall, tracing.layer_metrics(rec), rec))

    counts = {k: passes[0][1][k] for k in tracing.EXACT_COUNTS}
    for i, (_, layer, _) in enumerate(passes[1:], 2):
        diff = [k for k in tracing.EXACT_COUNTS if layer[k] != counts[k]]
        if diff:
            tally.add(f"traced pass {i}", [f"exact counts differ from pass 1: {diff}"])
    tally.add("exact counts vs earlier runs", compare_stored_counts(workload.name, args.seed, counts))

    wall, layer, rec = min(passes, key=lambda p: p[0])
    n = len(passes)
    m = {key: (value, tracing.unit(key), n) for key, value in layer.items()}
    m.update(workload.depth.us_per_config_step())
    m["model.build_s"] = (sum(builds), "s", len(builds))
    u = min(plain)
    m["trace.overhead_s"] = (wall - u, "s", n)
    m["trace.overhead_pct"] = (100.0 * (wall - u) / u, "%", n)
    detail = {"passes": n, "untraced_pass_s": plain, "traced_pass_s": [p[0] for p in passes],
              "exact_counts": counts}
    return m, detail, rec


def compare_stored_counts(workload, seed, counts):
    """Exact counts must agree with every earlier run of the same code
    (qpag and this benchmark) on the same workload and seed; the first run
    records them."""
    path = OUT / "exact_counts.json"
    key = f"{digest(SRC / 'qpag')}|{digest(ROOT / 'perfbench')}|{workload}|{seed}"
    stored = json.loads(path.read_text()) if path.exists() else {}
    if key in stored:
        diff = sorted(k for k in counts if stored[key].get(k) != counts[k])
        return [f"exact counts differ from an earlier run: {diff}"] if diff else []
    stored[key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []


def digest(directory):
    """Short hash of the Python files in ``directory``."""
    h = hashlib.sha256()
    for p in sorted(directory.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamp(args, nproc):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "qpag_sha256_16": digest(SRC / "qpag"),
        "perfbench_sha256_16": digest(ROOT / "perfbench"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "pinned_cpu": min(os.sched_getaffinity(0)),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="qpag benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# Metrics on the last line: every end-to-end metric with tracing off,
# every per-layer metric with tracing on, as listed in BENCHMARK.json.
def reported_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qpag" / "__init__.py").is_file():
        print(f"error: no qpag sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    nproc = len(os.sched_getaffinity(0))
    # one processor for the run and its subprocesses, so that a cold start
    # runs where the clock was calibrated
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload](SpeedClock())
    tally = Tally()
    run = traced if args.trace else measure
    metrics, detail, rec = run(workload, args, tally)

    names = reported_names(args.trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        tally.add("metrics", [f"not measured: {missing}"])

    result = {
        "stamp": stamp(args, nproc),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "detail": detail,
        "clock": workload.clock.summary(),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")
    if rec is not None:
        (OUT / f"{name}-spans.json").write_text(json.dumps(rec.dump()) + "\n")

    for k, (v, u, s) in metrics.items():
        print(f"{k:40s} {v:>16.6g} {u:6s} n={s}")
    for f in tally.failures:
        print(f"FAILED {f['item']}: {'; '.join(f['problems'])}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
