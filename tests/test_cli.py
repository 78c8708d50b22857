"""Command-line surface: exit codes, JSON documents, byte stability."""

import json
import os
import subprocess
import sys

import pytest

from qpag.cli import main
from qpag.machinefile import parse_machine, serialize_machine
from qpag import problem1

from .corpus import coin_ppa, dpda_wcwr, mutants
from .generators import random_qcpda
from .test_branching import halting_walker


@pytest.fixture()
def builtin_file(tmp_path):
    path = tmp_path / "builtin.json"
    path.write_text(serialize_machine(problem1.build_machine()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def qcpda_file(tmp_path):
    path = tmp_path / "walker.json"
    path.write_text(serialize_machine(halting_walker()), encoding="utf-8")
    return str(path)


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_check_passes_partial(builtin_file, capsys):
    assert main(["check", builtin_file]) == 0
    doc = _json_out(capsys)
    assert doc["passed"] is True
    assert doc["mode"] == "partial"
    assert doc["evaluations"]["1"] == 111


def test_check_total_fails_builtin(builtin_file, capsys):
    assert main(["check", builtin_file, "--mode", "total"]) == 1
    doc = _json_out(capsys)
    assert doc["passed"] is False
    assert doc["violations"]


def test_check_flags_mutant(tmp_path, capsys):
    mut = mutants()[0]
    path = tmp_path / "mutant.json"
    path.write_text(serialize_machine(mut.machine), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    doc = _json_out(capsys)
    conditions = {v["condition"] for v in doc["violations"]}
    assert mut.expected <= conditions


def test_check_ppa_file(tmp_path, capsys):
    path = tmp_path / "coin.json"
    path.write_text(serialize_machine(coin_ppa()), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert _json_out(capsys)["passed"] is True


def test_unreadable_file_is_usage_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_garbage_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_audit_passes(builtin_file, capsys):
    assert main(["audit", builtin_file, "--input", "ab#ba#ab", "--depth", "8"]) == 0
    doc = _json_out(capsys)
    assert doc["passed"] is True
    assert doc["examined"] > 0


def test_audit_rejects_ppa_file(tmp_path, capsys):
    path = tmp_path / "coin.json"
    path.write_text(serialize_machine(coin_ppa()), encoding="utf-8")
    assert main(["audit", str(path), "--input", "a"]) == 2


def test_run_reports_probabilities(builtin_file, capsys):
    assert main(["run", builtin_file, "--input", "ab#ba#ab"]) == 0
    doc = _json_out(capsys)
    assert doc["word"] == "ab#ba#ab"
    assert doc["tape"].startswith("¢") and doc["tape"].endswith("$")
    inst = problem1.Instance("ab", "ba", "ab")
    want = "yes" if problem1.classify(inst) == "yes" else "no"
    if want == "yes":
        assert doc["result"]["p_acc"] == 1.0
    else:
        assert doc["result"]["p_rej"] == 1.0
    assert doc["result"]["steps"] == 10


def test_run_token_input(tmp_path, capsys):
    path = tmp_path / "walker.json"
    path.write_text(serialize_machine(halting_walker()), encoding="utf-8")
    assert main(["run", str(path), "--input", "0,1", "--tokens"]) == 0
    doc = _json_out(capsys)
    assert doc["word"] == "0,1"
    assert doc["result"]["p_acc"] == pytest.approx(1 - 2.0**-4, abs=1e-9)


def test_run_trace_included(builtin_file, capsys):
    assert main(["run", builtin_file, "--input", "a#a#a", "--trace", "4"]) == 0
    doc = _json_out(capsys)
    assert doc["result"]["trace"]
    assert all(len(s["survivors"]) <= 4 for s in doc["result"]["trace"])


def test_run_qcpda_file(qcpda_file, capsys):
    assert main(["run", qcpda_file, "--input", "00", "--max-steps", "8"]) == 0
    doc = _json_out(capsys)
    assert doc["result"]["p_acc"] == pytest.approx(1 - 2.0**-4, abs=1e-9)


def test_run_ppa_file(tmp_path, capsys):
    path = tmp_path / "dpda.json"
    path.write_text(serialize_machine(dpda_wcwr()), encoding="utf-8")
    assert main(["run", str(path), "--input", "abcba"]) == 0
    doc = _json_out(capsys)
    assert doc["result"]["p_acc"] == 1.0


def test_compile_writes_image(qcpda_file, tmp_path, capsys):
    out = tmp_path / "image.json"
    assert main(["compile", qcpda_file, "-o", str(out)]) == 0
    doc = _json_out(capsys)
    assert doc["output"] == str(out)
    image = parse_machine(out.read_text(encoding="utf-8"))
    assert doc["map"]["image_transitions"] == len(image.transitions)


def test_compile_with_equivalence_words(qcpda_file, tmp_path, capsys):
    out = tmp_path / "image.json"
    rc = main(
        ["compile", qcpda_file, "-o", str(out), "--equiv-words", "0,01,110",
         "--max-steps", "8"]
    )
    assert rc == 0
    doc = _json_out(capsys)
    assert doc["equiv"]["passed"] is True
    assert [r["word"] for r in doc["equiv"]["rows"]] == ["0", "01", "110"]


def test_compile_rejects_bad_machine(tmp_path, capsys):
    # over-full column: fails the pre-compile checks, report on stderr
    from qpag.model import EPSILON, InputAlphabet, MachineQCPDA, StackAlphabet, TransitionQCPDA

    alpha = InputAlphabet(symbols=("<", "0", ">"), left_end="<", right_end=">")
    gamma = StackAlphabet(symbols=("Z",), bottom="Z")
    rows = tuple(
        TransitionQCPDA("a0", read, "Z", tgt, 1, 1 + 0j)
        for read in alpha.symbols
        for tgt in ("a0", "a1")
    )
    m = MachineQCPDA(
        states=("a0", "a1"),
        input_alphabet=alpha,
        stack_alphabet=gamma,
        transitions=rows,
        sigma=(("a0", EPSILON), ("a1", EPSILON)),
        initial="a0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )
    path = tmp_path / "bad.json"
    path.write_text(serialize_machine(m), encoding="utf-8")
    assert main(["compile", str(path), "-o", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert '"passed": false' in err


def test_compile_rejects_plain_machine_file(builtin_file, tmp_path, capsys):
    assert main(["compile", builtin_file, "-o", str(tmp_path / "x.json")]) == 2


def test_problem1_build_round_trip(tmp_path, capsys):
    out = tmp_path / "builtin.json"
    assert main(["problem1", "build", "-o", str(out)]) == 0
    doc = _json_out(capsys)
    assert doc["states"] == 13
    assert doc["transitions"] == 135
    machine = parse_machine(out.read_text(encoding="utf-8"))
    assert machine == problem1.build_machine()


def test_problem1_gen_deterministic(capsys):
    assert main(["problem1", "gen", "-n", "3", "--class", "yes", "--seed", "5"]) == 0
    first = _json_out(capsys)
    assert main(["problem1", "gen", "-n", "3", "--class", "yes", "--seed", "5"]) == 0
    second = _json_out(capsys)
    assert first == second
    assert first["class"] == "yes"
    assert first["word"].count("#") == 2


def test_problem1_sweep_exhaustive(capsys):
    assert main(["problem1", "sweep", "-n", "1", "--exhaustive"]) == 0
    doc = _json_out(capsys)
    assert doc["checked"] == 36
    assert doc["failures"] == []


def test_problem1_sweep_sampled(capsys):
    assert main(["problem1", "sweep", "-n", "5", "--samples", "10"]) == 0
    doc = _json_out(capsys)
    assert doc["checked"] == 10
    assert doc["mode"] == "sample"


def test_problem1_sweep_needs_a_mode(capsys):
    assert main(["problem1", "sweep", "-n", "1"]) == 2


def _cli(args, hash_seed=None):
    env = None
    if hash_seed is not None:
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    return subprocess.run(
        [sys.executable, "-m", "qpag", *args],
        capture_output=True,
        timeout=120,
        env=env,
    )


def _sweep_doc(n, mode, checked):
    return (
        f'{{\n  "n": {n},\n  "mode": "{mode}",\n  "checked": {checked},\n'
        '  "failures": [],\n  "max_deviation": 0\n}\n'
    ).encode()


def test_stdout_byte_stable_across_processes(tmp_path):
    path = tmp_path / "builtin.json"
    path.write_text(serialize_machine(problem1.build_machine()), encoding="utf-8")
    # sweep reports pinned to what per-word runs gave before batching
    pinned = {
        ("problem1", "sweep", "-n", "2", "--exhaustive"): _sweep_doc(
            2, "exhaustive", 1296
        ),
        ("problem1", "sweep", "-n", "5", "--samples", "50"): _sweep_doc(
            5, "sample", 50
        ),
    }
    for args in (
        ["check", str(path), "--mode", "total"],
        ["run", str(path), "--input", "ab#ba#ab", "--trace"],
        ["problem1", "gen", "-n", "2", "--class", "no"],
        *map(list, pinned),
    ):
        first = _cli(args, hash_seed=1)
        second = _cli(args, hash_seed=2)
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty
        assert first.returncode == second.returncode
        if tuple(args) in pinned:
            assert first.stdout == pinned[tuple(args)]


def test_compiled_file_byte_stable(tmp_path):
    src = tmp_path / "walker.json"
    src.write_text(serialize_machine(halting_walker()), encoding="utf-8")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    ra = _cli(["compile", str(src), "-o", str(out_a)])
    rb = _cli(["compile", str(src), "-o", str(out_b)])
    assert ra.returncode == rb.returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_random_qcpda_through_cli(tmp_path, capsys):
    path = tmp_path / "rand.json"
    path.write_text(serialize_machine(random_qcpda(2)), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert _json_out(capsys)["passed"] is True
