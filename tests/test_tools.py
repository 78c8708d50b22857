"""tools/bench_pairs.py refuses a bad argument before it runs anything;
tools/import_cost.py splits a cold start's import time by layer and
leaves no module of its copy loaded; tools/equiv_halves.py times each
stage of a lower_equiv round, as equiv_check runs it, and writes no
bytecode into the checkout it times; tools/code_lines.py counts code lines."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qpag
from qpag import compiler, simulate
from qpag.compiler import ImageSteps, equiv_check

from .generators import random_qcpda, words_up_to

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pairs():
    return _tool("bench_pairs")


@pytest.fixture
def bench_pairs(monkeypatch):
    """The tool, its ``run_once`` replaced by a stub that records each call
    and returns a run whose every end-to-end metric reads 1.0."""
    module = _bench_pairs()
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(seed)
        metrics = {m["name"]: {"value": 1.0} for m in module.benchmark()["end_to_end"]}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics,
                "qpag_sha256_16": "0" * 16}

    monkeypatch.setattr(module, "run_once", run_once)
    module.calls = calls
    return module


_GOOD = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "verify_io",
         "--seeds", "91-92", "--seconds", "1"]


def _with(**changes):
    argv = list(_GOOD)
    for flag, value in changes.items():
        argv += [f"--{flag}", value]
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        _with(claim="items_per_sec"),
        _with(workload="verify"),
        _with(seeds="91-"),
        _with(seeds="ninety"),
        _with(seeds="91"),
        _with(seeds="92-91"),
        _with(parent="/nonexistent-checkout"),
        _with(out="record.json"),
        _with(key="k"),
        _with(out="/nonexistent-directory/record.json", key="k"),
    ],
    ids=["claim", "workload", "open-range", "not-a-number", "one-seed", "empty-range",
         "parent", "out-alone", "key-alone", "out-directory"],
)
def test_bad_argument_exits_2_before_any_run(bench_pairs, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert bench_pairs.calls == []
    assert "error:" in capsys.readouterr().err


def test_record_holds_every_end_to_end_metric(bench_pairs, capsys):
    assert bench_pairs.main(_with(claim="items_per_s", seeds="91,93")) == 0
    rec = json.loads(capsys.readouterr().out)
    assert bench_pairs.calls == [91, 91, 93, 93]
    section = rec["verify_io"]
    assert (section["pairs"], section["seeds"], section["all_correct"]) == (2, "91,93", True)
    assert list(section["metrics"]) == [m["name"] for m in bench_pairs.benchmark()["end_to_end"]]
    assert rec["claim"]["metric"] == "items_per_s"


# -X importtime prints each import as it ends, its children first and one
# indent deeper
_IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   encodings.aliases
import time:       200 |        300 | encodings
import time:        50 |         50 |     cmath
import time:       400 |        450 |   qpag.model
import time:        30 |        480 | qpag
import time:        70 |         70 | json
import time:         5 |          5 |   qpag.errors
import time:        60 |         65 | qpag.simulate
"""


def test_import_cost_groups_by_the_first_qpag_import():
    assert _tool("import_cost").split(_IMPORTTIME) == {
        "startup": 300, "stdlib": 120, "qpag.model": 400, "qpag": 30,
        "qpag.errors": 5, "qpag.simulate": 60,
    }


def test_import_cost_times_every_command(capsys):
    tool = _tool("import_cost")
    assert tool.main(["--repeat", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = doc["commands"]
    # the commands perfbench/clicheck.py times cold
    assert [row["argv"][0] for row in rows] == [
        "run", "check", "audit", "compile", "run", "run", "run", "check", "problem1",
    ]
    for row in rows:
        assert {"startup", "stdlib", "qpag", "qpag.cli", "qpag.model"} <= row["self_us"].keys()
        assert row["wall_ms"] > 0
    # the bare interpreter's start, with and without site
    assert doc["bare_ms"] > 0 and doc["bare_no_site_ms"] > 0
    # a module the command loads on first use is timed too
    assert "qpag.problem1" in rows[-1]["self_us"]
    assert "qpag.wellformed" not in rows[-1]["self_us"]
    assert doc["total"]["qpag.model"] == sum(row["self_us"]["qpag.model"] for row in rows)


def test_import_cost_commands_leave_no_module_loaded(tmp_path, monkeypatch):
    # as in a command-line run of the tool, no qpag module is loaded, so
    # the commands import qpag from the temporary copy
    for name in [n for n in sys.modules if n == "qpag" or n.startswith("qpag.")]:
        monkeypatch.delitem(sys.modules, name)
    tool = _tool("import_cost")
    package = tmp_path / "copy"
    shutil.copytree(ROOT / "src" / "qpag", package / "qpag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.chdir(tmp_path)
    loaded = set(sys.modules)
    try:
        assert tool.commands(ROOT, package)
        assert sys.modules.keys() == loaded
        shutil.rmtree(package)
        # a submodule the commands do not load comes from the real tree
        module = importlib.import_module("qpag.wellformed")
        assert Path(module.__file__).parent == ROOT / "src" / "qpag"
    finally:
        # drop this test's own imports; monkeypatch restores the others
        for name in sys.modules.keys() - loaded:
            del sys.modules[name]


def test_equiv_halves_times_every_stage():
    # in a fresh interpreter: the tool imports qpag and perfbench's modules
    # from the checkout it times
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "equiv_halves.py"), "--repeat", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    doc = json.loads(done.stdout)
    assert (doc["repeat"], doc["machines"], doc["words"], doc["max_steps"]) == (1, 50, 31, 8)
    stages = ["compile", "io", "branch", "image"]
    assert list(doc["best_ms"]) == list(doc["runs_ms"]) == stages
    for stage in stages:
        assert doc["runs_ms"][stage] == [doc["best_ms"][stage]]
        assert doc["best_ms"][stage] > 0
    assert doc["total_ms"] == pytest.approx(sum(doc["best_ms"].values()), abs=0.05)


def test_equiv_halves_writes_no_bytecode_into_the_checkout(tmp_path):
    # the package loads its submodules lazily, after the tool has imported
    # it, and a .pyc left in the checkout would spare its next cold start
    # the source compile
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "equiv_halves.py"),
         "--checkout", str(tmp_path), "--repeat", "1"],
        capture_output=True, text=True, timeout=300, check=True, env=env,
    )
    assert list(tmp_path.rglob("__pycache__")) == []


def test_equiv_halves_image_stage_runs_equiv_checks_image_runs(monkeypatch):
    # the tool's image half hands run_batch the (tape, budget) pairs that
    # equiv_check hands it for the image, machine by machine
    def recording(calls, run_batch):
        def record(stepper, runs):
            if isinstance(stepper, ImageSteps):
                calls.append(list(runs))
            return run_batch(stepper, runs)
        return record

    tool = _tool("equiv_halves")
    machines = [random_qcpda(seed) for seed in range(4)]
    words = [tuple(w) for w in words_up_to(3)]
    timed, checked = [], []
    monkeypatch.setattr(simulate, "run_batch", recording(timed, simulate.run_batch))
    monkeypatch.setattr(compiler, "run_batch", recording(checked, compiler.run_batch))
    run = tool.stages(qpag, machines, words, 6)
    run["compile"]()
    run["io"]()
    run["image"]()
    for m in machines:
        equiv_check(m, qpag.compile_qcpda(m)[0], words, max_steps=6)
    assert len(timed) == len(machines)
    assert timed == checked


_SOURCE = '''"""A module docstring
over two lines."""

# a comment


def f(x):
    """A function docstring."""
    return (x +
            1)  # a trailing comment counts its line


class C:
    """A class docstring."""
    y = "not a docstring"
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    tool = _tool("code_lines")
    # def f, return and its continuation, class C and y
    assert tool.code_lines(_SOURCE) == 5


def test_code_lines_lists_every_module_and_their_total(capsys):
    tool = _tool("code_lines")
    tool.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(path.name for path in (ROOT / "src" / "qpag").glob("*.py"))
    assert [name for name, _ in rows[:-1]] == modules
    counts = [int(count) for _, count in rows[:-1]]
    assert all(count > 0 for count in counts)
    assert rows[-1] == ["total", str(sum(counts))]
