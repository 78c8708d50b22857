"""Time each stage of one round of the ``lower_equiv`` benchmark workload
in-process.

    python tools/equiv_halves.py [--checkout DIR] [--repeat N]

Builds the workload's scheduled-stack machines of seed 7 with
``DIR/perfbench/inputs.py`` (default: this checkout), takes its words and
its step budget from ``perfbench/workloads.py``, and times the stages of
its round: ``compile``, ``compile_qcpda`` of each machine; ``io``,
``serialize_machine`` and ``parse_machine`` of each image; ``branch`` and
``image``, the two halves of ``equiv_check``, each as the one
``simulate.run_batch`` per machine that ``equiv_check`` runs, through
``branching.BranchSteps`` on the machine and ``compiler.ImageSteps`` on its
parsed image, at ``compiler.IMAGE_STEPS`` times the machine's step budget.
The benchmark's tracer sees neither half on its own, as it sees no batch.

The stages run one after another, ``--repeat`` times (default 5), so a
drift of the host's speed reaches each of them alike; each stage reports
its best time in ms and every run's time. ``total_ms`` sums the best
times. Every run starts from a collected heap. The package is imported
from ``DIR/src``, so two checkouts can be compared from one tree (a
checkout whose ``compiler`` has no ``IMAGE_STEPS`` is timed with its own
copy of this tool), and no bytecode is written while the tool runs: the
package loads its submodules lazily, during the timed stages too, and a
``.pyc`` left in ``DIR`` would spare a later cold start there the source
compile it is meant to include.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("compile", "io", "branch", "image")
# the seed only draws the machines' amplitudes and schedules
SEED = 7


def load(checkout: Path):
    """The ``qpag`` package and the ``inputs`` and ``workloads`` modules of
    ``checkout``."""
    saved = sys.path[:]
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    try:
        import inputs
        import qpag
        import workloads

        return qpag, inputs, workloads
    finally:
        sys.path[:] = saved


def stages(qp, machines, words, max_steps):
    """One function per stage, each doing its stage for every machine and
    handing its outputs to the next."""
    from qpag.branching import BranchSteps
    from qpag.compiler import IMAGE_STEPS, ImageSteps
    from qpag.model import run_bounds
    from qpag.simulate import run_batch

    images, backs = [], []

    def compile_():
        images[:] = [qp.compile_qcpda(m)[0] for m in machines]

    def io():
        backs[:] = [qp.parse_machine(qp.serialize_machine(image)) for image in images]

    def branch():
        for m in machines:
            run_batch(BranchSteps(m), [run_bounds(m, w, max_steps) for w in words])

    def image():
        for back in backs:
            run_batch(
                ImageSteps(back), [run_bounds(back, w, IMAGE_STEPS * max_steps) for w in words]
            )

    return dict(zip(STAGES, (compile_, io, branch, image)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkout", type=Path, default=ROOT)
    p.add_argument("--repeat", type=int, default=5)
    args = p.parse_args(argv)
    if not (args.checkout / "src" / "qpag" / "__init__.py").is_file():
        p.error(f"no qpag sources at {args.checkout / 'src' / 'qpag'}")
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    # on for the whole run, as the package imports submodules on first use
    sys.dont_write_bytecode = True
    qp, inputs, workloads = load(args.checkout)
    workload = workloads.WORKLOADS["lower_equiv"]
    machines = [inputs.scheduled_stack_machine(qp, SEED, i) for i in range(workload.MACHINES)]
    for m in machines:  # built before the clock starts, as the workload builds them
        m.columns  # noqa: B018
        m.sigma_map  # noqa: B018
    # the words equiv_check runs: each word as a tuple of symbols
    words = [tuple(w) for w in inputs.binary_words(4)]
    runs = {name: [] for name in STAGES}
    for _ in range(args.repeat):
        for name, fn in stages(qp, machines, words, workload.MAX_STEPS).items():
            gc.collect()
            t0 = perf_counter()
            fn()
            runs[name].append(round((perf_counter() - t0) * 1e3, 2))
    best = {name: min(times) for name, times in runs.items()}
    doc = {
        "python": platform.python_version(),
        "checkout": str(args.checkout.resolve()),
        "seed": SEED,
        "repeat": args.repeat,
        "machines": len(machines),
        "words": len(words),
        "max_steps": workload.MAX_STEPS,
        "best_ms": best,
        "runs_ms": runs,
        "total_ms": round(sum(best.values()), 2),
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
