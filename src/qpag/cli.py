"""Command-line front end.

Every subcommand prints one JSON document to stdout (floats rendered at 12
significant digits so output is byte-stable across runs) and diagnostics to
stderr: ``error: ...`` when a command fails, and ``warning: ...`` for each
warning a ``ppa`` run gives. Exit codes: 0 success, 1 a check / audit /
equivalence / sweep reported failure, 2 usage or input errors.

Only ``errors``, ``machinefile`` and ``model``, which every command uses,
load with this module. The engines (``run``, ``run_qcpda``, ``run_ppa``,
``compile_qcpda``, ``equiv_check``, the checks, ``audit_unitarity`` and
``problem1``) load on first use through the package's export table (see
``__getattr__``), so a command imports only the modules it runs. Commands
call each engine as an attribute of this module, so a binding set on
``qpag.cli`` (as the benchmark's tracer sets its wrappers) is the one
called.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

from . import _resolve
from .errors import MachineError, NonWellFormedInput, ParseError, SchemaError
from .machinefile import emit_json, parse_machine, refuse_long_int, serialize_machine
from .model import MachineQCPDA, MachineQPAG, display_tape, make_tape

USAGE_ERROR = 2
CHECK_FAILED = 1

# a module ``__getattr__`` serves attribute lookups, not bare names, so
# commands call the engines as ``_cli.<name>``
_cli = sys.modules[__name__]


def __getattr__(name):
    return _resolve(name, globals())


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_machine(text)


def _save(path: str, machine) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_machine(machine))
    except OSError as exc:
        raise MachineError(f"cannot write {path}: {exc}") from exc


def _word(args) -> tuple[str, ...]:
    raw = args.input
    if args.tokens:
        return tuple(raw.split(",")) if raw else ()
    return tuple(raw)


def _emit(doc) -> None:
    sys.stdout.write(emit_json(doc, floats="sig12"))


def _cmd_check(args) -> int:
    machine = _load(args.file)
    if isinstance(machine, MachineQPAG):
        report = _cli.check_qpag(machine, mode=args.mode, tol=args.tol)
    elif isinstance(machine, MachineQCPDA):
        report = _cli.check_qcpda(machine, mode=args.mode, tol=args.tol)
    else:
        report = _cli.check_ppa(machine, tol=args.tol)
    _emit(report.to_json_dict())
    return 0 if report.passed else CHECK_FAILED


def _cmd_audit(args) -> int:
    machine = _load(args.file)
    if not isinstance(machine, MachineQPAG):
        raise SchemaError("audit requires a qpag machine file")
    report = _cli.audit_unitarity(
        machine, _word(args), depth=args.depth, tol=args.tol
    )
    _emit(report.to_json_dict())
    return 0 if report.passed else CHECK_FAILED


def _cmd_run(args) -> int:
    machine = _load(args.file)
    word = _word(args)
    if args.trace and not isinstance(machine, MachineQPAG):
        raise SchemaError("--trace requires a qpag machine file")
    if isinstance(machine, MachineQPAG):
        result = _cli.run(machine, word, max_steps=args.max_steps, trace_depth=args.trace)
    elif isinstance(machine, MachineQCPDA):
        result = _cli.run_qcpda(machine, word, max_steps=args.max_steps)
    else:
        # run_ppa warns once per undefined column; report each on stderr,
        # also when the run then raises
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = _cli.run_ppa(machine, word, max_steps=args.max_steps)
            finally:
                for warning in caught:
                    print(f"warning: {warning.message}", file=sys.stderr)
    doc = {
        "word": ",".join(word) if args.tokens else "".join(word),
        "tape": display_tape(machine, make_tape(machine, word)),
        "result": result.to_json_dict(),
    }
    _emit(doc)
    return 0


def _cmd_compile(args) -> int:
    machine = _load(args.file)
    if not isinstance(machine, MachineQCPDA):
        raise SchemaError("compile requires a qcpda machine file")
    image, cmap = _cli.compile_qcpda(machine)
    _save(args.output, image)
    doc = {"output": args.output, "map": cmap.to_json_dict()}
    status = 0
    if args.equiv_words is not None:
        words = [tuple(w) for w in args.equiv_words.split(",")] if args.equiv_words else [()]
        report = _cli.equiv_check(machine, image, words, max_steps=args.max_steps)
        doc["equiv"] = report.to_json_dict()
        if not report.passed:
            status = CHECK_FAILED
    _emit(doc)
    return status


def _cmd_problem1(args) -> int:
    problem1 = _cli.problem1
    if args.p1_cmd == "build":
        machine = problem1.build_machine()
        _save(args.output, machine)
        _emit(
            {
                "output": args.output,
                "states": len(machine.states),
                "transitions": len(machine.transitions),
            }
        )
        return 0
    if args.p1_cmd == "gen":
        inst = problem1.generate(args.n, getattr(args, "class"), args.seed)
        _emit(
            {
                "n": inst.n,
                "class": problem1.classify(inst),
                "seed": args.seed,
                "w1": inst.w1,
                "w2": inst.w2,
                "w3": inst.w3,
                "word": inst.word(),
            }
        )
        return 0
    # sweep
    if not args.exhaustive and args.samples is None:
        raise SchemaError("sweep needs --exhaustive or --samples C")
    if args.exhaustive:
        # its report's ``checked`` is 36**n, with floor(n log10 36) + 1 digits
        refuse_long_int(math.floor(args.n * math.log10(36)) + 1)
    report = problem1.sweep(args.n, samples=args.samples, seed=args.seed)
    _emit(report.to_json_dict())
    return 0 if not report.failures else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpag",
        description="simulate and verify quantum pushdown machines "
        "with a garbage tape",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="run column well-formedness checks")
    p.add_argument("file")
    p.add_argument("--mode", choices=("partial", "total"), default="partial")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("audit", help="numerically audit step unitarity on a word")
    p.add_argument("file")
    p.add_argument("--input", required=True)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--tokens", action="store_true", help="input is comma-separated tokens")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("run", help="simulate a machine on a word")
    p.add_argument("file")
    p.add_argument("--input", required=True)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=16,
        default=0,
        help="record the K largest amplitudes per step (default 16); "
        "qpag files only",
    )
    p.add_argument("--tokens", action="store_true", help="input is comma-separated tokens")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("compile", help="lower a scheduled-stack machine")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument(
        "--equiv-words",
        default=None,
        help="comma-separated words to compare behaviour on",
    )
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("problem1", help="built-in three-segment parity problem")
    p1 = p.add_subparsers(dest="p1_cmd", required=True)

    b = p1.add_parser("build", help="write the built-in machine to a file")
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(fn=_cmd_problem1)

    g = p1.add_parser("gen", help="sample an instance")
    g.add_argument("-n", type=int, required=True)
    g.add_argument("--class", choices=("yes", "no"), required=True)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=_cmd_problem1)

    s = p1.add_parser("sweep", help="check instances of one size")
    s.add_argument("-n", type=int, required=True)
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=_cmd_problem1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NonWellFormedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:
            sys.stderr.write(emit_json(exc.report.to_json_dict(), floats="sig12"))
        return CHECK_FAILED
    except MachineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())
