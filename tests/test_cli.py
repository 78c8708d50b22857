"""Command-line surface: exit codes, JSON documents, byte stability."""

import json
import os
import subprocess
import sys
from collections import Counter
from qpag.model import replace

import pytest

import qpag
from qpag.cli import main
from qpag.machinefile import parse_machine, serialize_machine
from qpag.model import (
    EPSILON,
    POP,
    InputAlphabet,
    MachinePPA,
    StackAlphabet,
    TransitionPPA,
    push,
)
from qpag import cli, problem1

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


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0"),
        (b"[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
        (b'{"kind": ' + b"1" * 5000 + b"}", "invalid JSON: Exceeds the limit ("),
    ],
    ids=["not-utf8", "nested-too-deep", "int-past-digit-limit"],
)
def test_machine_file_json_cannot_hold_is_usage_error(content, message, tmp_path):
    # an input error, not a failed check: exit 2 and one error line, with
    # no traceback
    path = tmp_path / "machine.json"
    path.write_bytes(content)
    done = _cli(["check", str(path)])
    err = done.stderr.decode()
    assert (done.returncode, done.stdout) == (2, b"")
    assert err.startswith("error: " + message.format(path=path))
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unwritable_output_is_usage_error(qcpda_file, tmp_path, capsys):
    # a machine file that cannot be written is an input error, as one that
    # cannot be read is: its path on stderr, no document on stdout
    target = tmp_path / "missing" / "x.json"
    for argv in (
        ["compile", qcpda_file, "-o", str(target)],
        ["problem1", "build", "-o", str(target)],
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1


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


@pytest.mark.parametrize(
    "word, message",
    [
        ("0,<,q", "word contains endmarker token '<'"),
        ("0,q,>", "word contains unknown symbol 'q'"),
        ("0,01,>", "word contains unknown symbol '01'"),
    ],
)
def test_run_names_the_first_bad_token(word, message, tmp_path, capsys):
    path = tmp_path / "walker.json"
    path.write_text(serialize_machine(halting_walker()), encoding="utf-8")
    assert main(["run", str(path), "--input", word, "--tokens"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_compile_with_failing_equivalence_exits_1(qcpda_file, tmp_path, monkeypatch, capsys):
    # the image of a copy whose accepting state rejects: every word that
    # accepts on the source rejects on this image
    compile_qcpda = cli.compile_qcpda

    def swapped(machine):
        return compile_qcpda(
            replace(machine, accepting=machine.rejecting, rejecting=machine.accepting)
        )

    monkeypatch.setattr(cli, "compile_qcpda", swapped)
    out = tmp_path / "image.json"
    rc = main(
        ["compile", qcpda_file, "-o", str(out), "--equiv-words", "0,01", "--max-steps", "8"]
    )
    assert rc == 1
    doc = _json_out(capsys)
    assert doc["equiv"]["passed"] is False
    assert [r["word"] for r in doc["equiv"]["rows"]] == ["0", "01"]
    assert doc["output"] == str(out) and out.is_file()


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


def test_problem1_sweep_takes_one_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["problem1", "sweep", "-n", "1", "--exhaustive", "--samples", "3"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_problem1_sweep_past_the_digit_limit_refused_before_sweeping(monkeypatch, capsys):
    # an exhaustive report's ``checked`` is 36**n, which has 4,299 digits at
    # n = 2,762 and 4,301 at n = 2,763: past the limit the sweep is refused
    # before it runs (a real one takes seconds there), with the error
    # emit_json would give; a limit of 0 is no limit
    swept = []

    def sweep(n, **kwargs):
        swept.append(n)
        return problem1.SweepReport(n, "exhaustive", None, 36**n, (), 0.0)

    monkeypatch.setattr(problem1, "sweep", sweep)
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert main(["problem1", "sweep", "-n", "2762", "--exhaustive"]) == 0
        assert _json_out(capsys)["checked"] == 36**2762
        assert main(["problem1", "sweep", "-n", "2763", "--exhaustive"]) == 2
        assert capsys.readouterr() == ("", "error: cannot emit an int of more than 4300 digits\n")
        assert swept == [2762]
        sys.set_int_max_str_digits(0)
        assert main(["problem1", "sweep", "-n", "2763", "--exhaustive"]) == 0
        assert swept == [2762, 2763]
    finally:
        sys.set_int_max_str_digits(old)


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


def _sweep_doc(n, mode, seed, checked):
    return (
        f'{{\n  "n": {n},\n  "mode": "{mode}",\n  "seed": {seed},\n  "checked": {checked},\n'
        '  "failures": [],\n  "max_deviation": 0\n}\n'
    ).encode()


def test_stdout_byte_stable_across_processes(tmp_path):
    path = tmp_path / "builtin.json"
    path.write_text(serialize_machine(problem1.build_machine()), encoding="utf-8")
    broken = tmp_path / "broken.json"
    by_name = {m.name: m for m in mutants()}
    broken.write_text(serialize_machine(by_name["scale-split-a"].machine), encoding="utf-8")
    walker = tmp_path / "walker.json"
    walker.write_text(serialize_machine(halting_walker()), encoding="utf-8")
    # sweep reports pinned to what per-word runs gave before batching
    pinned = {
        ("problem1", "sweep", "-n", "2", "--exhaustive"): _sweep_doc(
            2, "exhaustive", "null", 1296
        ),
        ("problem1", "sweep", "-n", "5", "--samples", "50"): _sweep_doc(
            5, "sample", 0, 50
        ),
    }
    for args in (
        ["check", str(path), "--mode", "total"],
        ["run", str(path), "--input", "ab#ba#ab", "--trace"],
        ["problem1", "gen", "-n", "2", "--class", "no"],
        *map(list, pinned),
        # a failing audit, whose report lists its failures' configurations
        ["audit", str(broken), "--input", "aa#aa#aa", "--depth", "6"],
        ["compile", str(walker), "-o", str(tmp_path / "image.json"), "--equiv-words", "0,01,1"],
    ):
        first = _cli(args, hash_seed=1)
        second = _cli(args, hash_seed=2)
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty
        assert first.returncode == second.returncode
        if tuple(args) in pinned:
            assert first.stdout == pinned[tuple(args)]
        if args[0] == "audit":
            assert first.returncode == 1 and b'"configs"' in first.stdout
        if args[0] == "compile":
            assert b'"aux_states"' in first.stdout and b'"rows"' in first.stdout


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


def _leaky_dpda():
    """``dpda_wcwr`` without its accepting row: a matched word such as
    "aca" meets the undefined column (q_match, >, Z)."""
    m = dpda_wcwr()
    rows = tuple(
        t for t in m.transitions if (t.source, t.read, t.top) != ("q_match", ">", "Z")
    )
    return replace(m, transitions=rows)


_LEAK_WARNING = "warning: undefined column (state=q_match, read=>, top=Z); mass leaks to p_non\n"


def test_run_ppa_warnings_under_warnings_as_errors(tmp_path):
    # the command reports run_ppa's warnings itself, so a child started
    # with every warning an error still exits 0 with its report
    path = tmp_path / "leaky.json"
    path.write_text(serialize_machine(_leaky_dpda()), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qpag", "run", str(path), "--input", "aca"],
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0
    doc = json.loads(done.stdout)
    assert doc["tape"] == "¢aca$"
    assert doc["result"]["p_non"] == 1.0
    assert doc["result"]["p_acc"] == doc["result"]["p_rej"] == 0
    assert done.stderr.decode() == _LEAK_WARNING


def test_run_ppa_warnings_before_pop_on_bottom(tmp_path, capsys):
    # on "ab", p2 meets the undefined column (p2, a, A) at step 3, then p3
    # pops Z at step 4: the warning is still reported, before the error
    alpha = InputAlphabet(symbols=("<", "a", "b", ">"), left_end="<", right_end=">")
    gamma = StackAlphabet(symbols=("Z", "A"), bottom="Z")
    machine = MachinePPA(
        states=("p0", "p1", "p2", "p3"),
        input_alphabet=alpha,
        stack_alphabet=gamma,
        transitions=(
            TransitionPPA("p0", "<", "Z", "p1", push("A"), 1, 1.0),
            TransitionPPA("p1", "a", "A", "p2", EPSILON, 0, 0.5),
            TransitionPPA("p1", "a", "A", "p3", EPSILON, 1, 0.5),
            TransitionPPA("p3", "b", "A", "p3", POP, 0, 1.0),
            TransitionPPA("p3", "b", "Z", "p3", POP, 0, 1.0),
        ),
        initial="p0",
        accepting=frozenset(),
        rejecting=frozenset(),
    )
    path = tmp_path / "split.json"
    path.write_text(serialize_machine(machine), encoding="utf-8")
    assert main(["run", str(path), "--input", "ab"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "warning: undefined column (state=p2, read=a, top=A); mass leaks to p_non\n"
        "error: pop on stack 'Z'\n"
    )


def test_run_rejects_a_negative_step_budget(builtin_file, capsys):
    assert main(["run", builtin_file, "--input", "a#a#a", "--max-steps", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: step budget must be nonnegative, got -1\n"


def test_run_rejects_a_negative_trace_depth(builtin_file, capsys):
    assert main(["run", builtin_file, "--input", "a#a#a", "--trace", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trace depth must be nonnegative, got -3\n"


@pytest.mark.parametrize("kind", ["qcpda", "ppa"])
@pytest.mark.parametrize("trace", [["--trace"], ["--trace", "3"], ["--trace", "-5"]], ids=["bare", "3", "-5"])
def test_run_rejects_a_trace_on_other_kinds(kind, trace, tmp_path, capsys):
    # only the quantum kernel records a trace; other kinds used to print
    # "trace": null and exit 0
    machine, word = {"qcpda": (halting_walker(), "00"), "ppa": (coin_ppa(), "a")}[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(serialize_machine(machine), encoding="utf-8")
    assert main(["run", str(path), "--input", word, *trace]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trace requires a qpag machine file\n"
    assert main(["run", str(path), "--input", word, "--trace", "0"]) == 0
    assert _json_out(capsys)["result"]["trace"] is None


@pytest.mark.parametrize(
    "mutant, command",
    [
        ("scale-split-Z", ["check"]),
        ("dup-start", ["audit", "--input", "a#a#a", "--depth", "8"]),
    ],
    ids=["check", "audit"],
)
def test_check_and_audit_reject_a_nan_tolerance(mutant, command, tmp_path, capsys):
    # the machine fails at the default tolerance; a NaN or an infinite one
    # would pass it
    path = tmp_path / "mutant.json"
    machine = {mu.name: mu.machine for mu in mutants()}[mutant]
    path.write_text(serialize_machine(machine), encoding="utf-8")
    argv = [command[0], str(path), *command[1:]]
    assert main(argv) == 1
    capsys.readouterr()
    for tol in ("nan", "inf"):
        assert main([*argv, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tolerance must be a nonnegative number, got {tol}\n"


@pytest.fixture()
def machine_files(tmp_path):
    """One machine file of each kind, by kind."""
    files = {}
    for kind, machine in (
        ("qpag", problem1.build_machine()),
        ("qcpda", halting_walker()),
        ("ppa", coin_ppa()),
    ):
        files[kind] = tmp_path / f"{kind}.json"
        files[kind].write_text(serialize_machine(machine), encoding="utf-8")
    return files


# Run in a fresh interpreter: the command's exit code and the modules that
# importing qpag.cli and running the command loaded, past those the
# interpreter's start-up loaded.
_LOADED_BY = """
import sys
started = set(sys.modules)
import contextlib, io, json
from qpag import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - started)]))
"""

_CHECK_UNLOADED = {"compiler", "branching", "classical", "problem1"}


@pytest.mark.parametrize(
    "command, kind, unloaded",
    [
        (["run", "--input", "ab#ba#cc"], "qpag",
         {"wellformed", "compiler", "branching", "classical", "problem1"}),
        (["run", "--input", "00", "--max-steps", "8"], "qcpda",
         {"wellformed", "compiler", "classical", "problem1"}),
        (["run", "--input", "aaa"], "ppa", {"wellformed", "compiler", "branching", "problem1"}),
        (["check"], "qpag", _CHECK_UNLOADED),
        (["check"], "qcpda", _CHECK_UNLOADED),
        (["check"], "ppa", _CHECK_UNLOADED),
        (["audit", "--input", "a#a#a", "--depth", "4"], "qpag", _CHECK_UNLOADED),
        (["problem1", "sweep", "-n", "1", "--exhaustive"], None,
         {"wellformed", "compiler", "branching", "classical"}),
        # only the equivalence check steps the original machine
        (["compile", "-o", os.devnull], "qcpda", {"branching", "classical", "problem1"}),
    ],
    ids=["run-qpag", "run-qcpda", "run-ppa", "check-qpag", "check-qcpda", "check-ppa",
         "audit", "sweep", "compile"],
)
def test_command_loads_only_the_modules_it_runs(command, kind, unloaded, machine_files):
    argv = command if kind is None else [command[0], str(machine_files[kind]), *command[1:]]
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_BY, *argv],
        capture_output=True, text=True, timeout=120, check=True,
    )
    code, modules = json.loads(done.stdout)
    loaded = {m[5:] for m in modules if m.startswith("qpag.")}
    assert code == 0
    assert {"cli", "errors", "machinefile", "model"} <= loaded
    assert unloaded.isdisjoint(loaded)
    # the records build no class through ``dataclasses``, which would load
    # ``inspect`` and its imports at every start
    assert {"dataclasses", "inspect"}.isdisjoint(modules)


# Every name perfbench/tracing.py wraps on ``qpag.cli``.
_TRACED_ON_CLI = (
    "run", "run_qcpda", "run_ppa", "compile_qcpda", "equiv_check", "check_qpag",
    "check_qcpda", "check_ppa", "audit_unitarity", "parse_machine", "serialize_machine",
    "emit_json",
)


def test_commands_call_the_bindings_set_on_cli(machine_files, tmp_path, monkeypatch, capsys):
    calls = Counter()
    for name in _TRACED_ON_CLI:
        # the package's binding first, then the module's, in the tracer's
        # order; dropping the cached value first makes the wrapper also the
        # first binding a command could look up
        for owner in (qpag, cli):
            monkeypatch.delitem(vars(owner), name, raising=False)
            original = getattr(owner, name)

            def counted(*args, _key=(owner.__name__, name), _fn=original, **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

    qp, qc, pp = (str(machine_files[k]) for k in ("qpag", "qcpda", "ppa"))
    image = str(tmp_path / "image.json")
    for argv, want in [
        (["run", qp, "--input", "ab#ba#cc"], "parse_machine run emit_json"),
        (["run", qc, "--input", "00", "--max-steps", "8"], "parse_machine run_qcpda emit_json"),
        (["run", pp, "--input", "aaa"], "parse_machine run_ppa emit_json"),
        (["check", qp], "parse_machine check_qpag emit_json"),
        (["check", qc], "parse_machine check_qcpda emit_json"),
        (["check", pp], "parse_machine check_ppa emit_json"),
        (["audit", qp, "--input", "a#a#a", "--depth", "4"], "parse_machine audit_unitarity emit_json"),
        (["compile", qc, "-o", image, "--equiv-words", "0,01", "--max-steps", "8"],
         "parse_machine compile_qcpda serialize_machine equiv_check emit_json"),
        (["problem1", "build", "-o", str(tmp_path / "built.json")], "serialize_machine emit_json"),
    ]:
        calls.clear()
        assert main(argv) == 0
        assert calls == Counter(("qpag.cli", name) for name in want.split()), argv
    capsys.readouterr()

    # bindings the tracer wraps outside ``cli`` still resolve
    assert qpag.problem1.run is qpag.simulate.run
    assert qpag.compiler.run_qcpda is qpag.branching.run_qcpda
    assert qpag.compiler.trajectory is qpag.simulate.trajectory
    assert qpag.compiler.check_qcpda is qpag.wellformed.check_qcpda
