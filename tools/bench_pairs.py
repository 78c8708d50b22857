"""Run the benchmark on two checkouts in alternating pairs and record the
end-to-end metrics of both sides in the layout of the ``BENCH_*.json``
files.

    python tools/bench_pairs.py --parent DIR --change DIR --workload W \\
        --seeds 91-100 --seconds 10 [--claim METRIC] [--out FILE --key KEY]

Each seed is one pair: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0`` runs once in each checkout, one run at a time, the
parent first for an odd seed and the change first for an even one. Each
run starts with ``PYTHONDONTWRITEBYTECODE=1`` and from its checkout's own
directory, where it leaves its result file under ``perfbench/out/``.

For each end-to-end metric of this repository's BENCHMARK.json the record
holds its unit, ``better`` and ``bound``; each side's median and inclusive
quartiles (``statistics.quantiles(n=4, method="inclusive")``) and its runs
in pair order; ``change_wins``, the pairs in which the change did better;
and ``median_ratio``, the change's median over the parent's. With
``--claim``, the record states whether that metric meets the claim rule:
the change wins at least nine pairs in ten and the medians differ by more
than the parent's interquartile range.

The record is printed, or, with ``--out`` and ``--key``, stored as
``FILE[KEY]``, the file created if it does not exist.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"91-100"`` or ``"91,93,95"`` as a list of seeds."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def revision(checkout: Path) -> str | None:
    """The checkout's short git revision, None if it is not a git tree."""
    proc = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its last output line, parsed,
    with the source hash its result file is stamped with."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    stored = json.loads(
        (checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    out["qpag_sha256_16"] = stored["stamp"]["qpag_sha256_16"]
    return out


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": round(median, 6),
        "q1": round(q1, 6),
        "q3": round(q3, 6),
        "runs": [round(v, 6) for v in values],
    }


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's entry: both sides' summaries, the change's wins and the
    ratio of the medians."""
    if spec["better"] == "lower":
        wins = sum(c < p for p, c in zip(parent, change))
    else:
        wins = sum(c > p for p, c in zip(parent, change))
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": summary(parent),
        "change": summary(change),
        "change_wins": wins,
        "median_ratio": round(statistics.median(change) / statistics.median(parent), 4),
    }


def claim_met(entry: dict, pairs: int) -> bool:
    parent = entry["parent"]
    gap = abs(entry["change"]["median"] - parent["median"])
    return 10 * entry["change_wins"] >= 9 * pairs and gap > parent["q3"] - parent["q1"]


def record(args, seeds: list[int], runs: dict) -> dict:
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = ("parent", "change")
    section = {
        "pairs": len(seeds),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "all_correct": all(r["correct"] for side in sides for r in runs[side]),
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in sides},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in sides},
        "qpag_sha256_16": {side: sorted({r["qpag_sha256_16"] for r in runs[side]}) for side in sides},
        "metrics": {
            spec["name"]: compare(
                spec, *([r["metrics"][spec["name"]]["value"] for r in runs[side]] for side in sides)
            )
            for spec in specs
        },
    }
    out = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed N "
        f"--seconds {args.seconds:g} --trace 0",
        "parent_revision": revision(args.parent),
        "change_revision": revision(args.change),
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "method": "alternating pairs (an odd seed runs the parent first, an even seed the "
        "change first), one seed per pair, one run at a time, each side from its own "
        "checkout with PYTHONDONTWRITEBYTECODE=1; quartiles are statistics.quantiles(n=4, "
        "method='inclusive') over each side's runs; 'runs' lists each side's values in "
        "pair order",
    }
    if args.claim:
        out["claim"] = {
            "metric": args.claim,
            "rule": "change wins at least 9/10 pairs and the medians differ by more than "
            "the parent's interquartile range",
            "met": claim_met(section["metrics"][args.claim], len(seeds)),
        }
    out[args.workload] = section
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="a range 91-100 or a list 91,93")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--claim", default=None, help="the end-to-end metric the change claims")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--key", default=None)
    args = p.parse_args(argv)
    if (args.out is None) != (args.key is None):
        p.error("--out and --key go together")
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        p.error("quartiles need at least two pairs")
    runs: dict = {"parent": [], "change": []}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, seed, args.seconds))
            print(f"seed {seed} {side} done", file=sys.stderr)
    rec = record(args, seeds, runs)
    if args.out is None:
        print(json.dumps(rec, indent=2))
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.key] = rec
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
