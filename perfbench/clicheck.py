"""Command-line checks shared by every workload.

Each command runs in process through ``cli.main`` and, in the timed runs,
as a cold ``python -m qpag`` subprocess, one at a time, timed with the
scaled clock. The subprocess must exit 0 and print exactly what the
in-process call printed; ``compile`` must also write the same image bytes.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import inputs
from workloads import guarded

WORK = Path("perfbench/out/work")
COLD_TIMEOUT_S = 60


def write_machines(qp, seed):
    """Write the machine files the commands read; return the commands.
    Paths are relative to the checkout root, so outputs do not depend on
    where the checkout lives."""
    rng = random.Random(f"perfbench-cli|{seed}")
    WORK.mkdir(parents=True, exist_ok=True)
    files = {
        "builtin.json": qp.problem1.build_machine(),
        "sched.json": inputs.scheduled_stack_machine(qp, seed, 1),
        "coin.json": inputs.coin_ppa(qp),
        "dpda.json": inputs.mirror_dpda(qp),
    }
    for name, machine in files.items():
        (WORK / name).write_text(qp.serialize_machine(machine), encoding="utf-8")

    def instance(n):
        cls = rng.choice((qp.problem1.YES, qp.problem1.NO))
        return qp.problem1.generate(n, cls, seed=rng.randrange(10**9)).word()

    binary = "".join(rng.choice("01") for _ in range(5))
    w = str(WORK)
    return [
        ["run", f"{w}/builtin.json", "--input", instance(8)],
        ["check", f"{w}/builtin.json"],
        ["audit", f"{w}/builtin.json", "--input", instance(2), "--depth", "12"],
        ["compile", f"{w}/sched.json", "-o", f"{w}/image.json",
         "--equiv-words", "0,1,01,10,110", "--max-steps", "6"],
        ["run", f"{w}/image.json", "--input", binary, "--max-steps", "18"],
        ["run", f"{w}/sched.json", "--input", binary, "--max-steps", "6"],
        ["run", f"{w}/coin.json", "--input", "aaa"],
        ["check", f"{w}/dpda.json"],
        ["problem1", "sweep", "-n", "1", "--exhaustive"],
    ]


def _written(argv):
    """The file a command writes, if any."""
    return Path(argv[argv.index("-o") + 1]) if "-o" in argv else None


def in_process(qp, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qp.cli.main(list(argv))
    written = _written(argv)
    return code, out.getvalue(), written.read_bytes() if written else None


def cold(argv, src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env["PYTHONIOENCODING"] = "utf-8"
    proc = subprocess.run(
        [sys.executable, "-m", "qpag", *argv],
        capture_output=True, env=env, timeout=COLD_TIMEOUT_S, check=False,
    )
    written = _written(argv)
    return proc.returncode, proc.stdout.decode("utf-8"), written.read_bytes() if written else None


class CliCheck:
    """Runs the command list and checks every output."""

    def __init__(self, commands, src, clock):
        self.commands = commands
        self.src = src
        self.clock = clock
        self.cold_ms = []
        self.reference = {}  # first in-process output of each command

    def run(self, qp, tally, rec, with_cold, between=None):
        """Check every command; ``between`` is called after each one."""
        for argv in self.commands:
            if between is not None and argv is not self.commands[0]:
                between()
            label = "qpag " + " ".join(argv[:2])
            with rec.span("bench.cli"):
                ref, problems = guarded(in_process, qp, argv)
            if problems:
                tally.add(label, problems)
                continue
            code, text, image = ref
            key = tuple(argv)
            first = self.reference.setdefault(key, (text, image))
            if code != 0:
                problems.append(f"cli.main returned {code}")
            if (text, image) != first:
                problems.append("in-process output changed between calls")
            if with_cold:
                t0 = self.clock.start()
                got, cold_problems = guarded(cold, argv, self.src)
                ms = self.clock.stop(t0) * 1e3
                problems += cold_problems
                if got is not None:
                    ccode, ctext, cimage = got
                    self.cold_ms.append(ms)
                    if ccode != 0:
                        problems.append(f"exit code {ccode}")
                    if ctext != text:
                        problems.append("stdout differs from the in-process cli.main output")
                    if cimage != image:
                        problems.append("written file differs from the in-process one")
            tally.add(label, problems)


    def metrics(self):
        if not self.cold_ms:
            return {}
        return {"cli_cold_ms_p50": (statistics.median(self.cold_ms), "ms", len(self.cold_ms))}
