"""Split the import time of ``qpag`` command cold starts by layer.

    python tools/import_cost.py [--checkout DIR] [--repeat N]

Runs the commands whose cold starts ``perfbench/clicheck.py`` times, on the
machine files its ``write_machines`` writes, each as
``python -X importtime -m qpag ...`` in a fresh interpreter, ``--repeat``
times (default 5), and prints one JSON document. For each command it gives
the median self time, in µs, of each group: ``startup``, the imports the
interpreter makes before the first ``qpag`` import (``site``,
``encodings``, the ``.pth`` files of site-packages); ``stdlib``, every
other non-``qpag`` module, whichever ``qpag`` module or function imported
it; and one entry per ``qpag.*`` module. ``wall_ms`` is the median wall
time of the subprocess, and ``total`` sums each group over the commands.
Beside the commands, ``bare_ms`` is the median wall time of
``python -c pass`` and ``bare_no_site_ms`` that of ``python -S -c pass``,
the floor under every cold start with and without ``site``; where the two
differ widely, a ``.pth`` file of site-packages imports something at start.

The package is copied from ``DIR/src/qpag`` (default: this checkout) into
a temporary directory with no ``__pycache__``, which also holds the machine
files, and every run has ``PYTHONDONTWRITEBYTECODE=1``, as
``tools/bench_pairs.py`` runs: each cold start compiles the ``qpag`` source
it loads, and that compile time is part of each module's self time. The
standard library loads from its own bytecode. ``-X importtime`` times only
imports made through ``__import__`` (``import`` statements), so a ``qpag``
module loaded through ``importlib.import_module`` would be missing and its
imports would count as top-level ones; ``qpag._resolve`` loads through
``__import__``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# the seed only draws the commands' input words
SEED = 1


def split(report: str) -> dict[str, int]:
    """Self µs per group from the ``-X importtime`` lines of one run.

    Each line ends an import; its children end before it, one indent
    deeper. So an unindented line closes the group of lines since the
    previous unindented one, and names that group's top import."""
    groups: dict[str, int] = {"startup": 0, "stdlib": 0}
    pending: list[tuple[str, int]] = []
    started = False
    for line in report.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        pending.append((name.strip(), int(self_us)))
        if name[1:2] == " ":  # an indented name: the group is still open
            continue
        started = started or name.strip().startswith("qpag")
        for module, us in pending:
            if module == "qpag" or module.startswith("qpag."):
                key = module
            else:
                key = "stdlib" if started else "startup"
            groups[key] = groups.get(key, 0) + us
        pending.clear()
    return groups


def measure(package: Path, work: Path, argv: tuple, repeat: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(package), PYTHONDONTWRITEBYTECODE="1",
               PYTHONIOENCODING="utf-8")
    runs, walls = [], []
    for _ in range(repeat):
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "qpag", *argv],
            capture_output=True, text=True, env=env, cwd=work, timeout=120, check=False,
        )
        walls.append((perf_counter() - t0) * 1e3)
        if done.returncode not in (0, 1):
            raise SystemExit(f"error: qpag {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
        runs.append(split(done.stderr))
    keys = sorted({k for run in runs for k in run}, key=lambda k: (k.startswith("qpag"), k))
    row = {"argv": list(argv), "wall_ms": round(statistics.median(walls), 1)}
    row["self_us"] = {k: int(statistics.median(run.get(k, 0) for run in runs)) for k in keys}
    return row


def bare_ms(flags: tuple, repeat: int) -> float:
    """Median wall time, in ms, of ``python *flags -c pass``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    walls = []
    for _ in range(repeat):
        t0 = perf_counter()
        subprocess.run([sys.executable, *flags, "-c", "pass"], env=env, timeout=60, check=True)
        walls.append((perf_counter() - t0) * 1e3)
    return round(statistics.median(walls), 1)


def commands(checkout: Path, package: Path) -> list:
    """Write the machine files of ``DIR/perfbench/clicheck.py`` under the
    current directory with the copied package, and return its commands.
    Every module it imports is dropped from ``sys.modules`` again: the
    copy's are gone with its directory, and perfbench's would shadow a
    later import of another checkout's."""
    saved = sys.path[:], sys.dont_write_bytecode
    loaded = set(sys.modules)
    sys.dont_write_bytecode = True  # the copy stays free of __pycache__
    sys.path[:0] = [str(package), str(checkout / "perfbench")]
    try:
        import clicheck
        import qpag

        return clicheck.write_machines(qpag, SEED)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
        for name in sys.modules.keys() - loaded:
            del sys.modules[name]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkout", type=Path, default=ROOT)
    p.add_argument("--repeat", type=int, default=5)
    args = p.parse_args(argv)
    source = args.checkout / "src" / "qpag"
    if not (source / "__init__.py").is_file():
        p.error(f"no qpag sources at {source}")
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp, "src")
        shutil.copytree(source, package / "qpag", ignore=shutil.ignore_patterns("__pycache__"))
        os.chdir(tmp)  # the commands name their files relative to it
        try:
            argvs = commands(args.checkout, package)
            rows = [measure(package, Path(tmp), tuple(a), args.repeat) for a in argvs]
        finally:
            os.chdir(here)
    total: dict[str, int] = {}
    for row in rows:
        for k, us in row["self_us"].items():
            total[k] = total.get(k, 0) + us
    doc = {
        "python": platform.python_version(),
        "checkout": str(args.checkout.resolve()),
        "repeat": args.repeat,
        "bare_ms": bare_ms((), args.repeat),
        "bare_no_site_ms": bare_ms(("-S",), args.repeat),
        "commands": rows,
        "total": total,
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
