"""Simulation and verification workbench for quantum pushdown automata
that shed popped symbols onto a write-only garbage tape, plus the
scheduled-stack variant, probabilistic and deterministic baselines, a
lowering between the two quantum models, and a built-in exact recognizer
for a three-segment parity problem.

``import qpag`` loads no submodule. Each exported name, and each submodule
(``qpag.model``, ``qpag.simulate``, ...), is imported from its home module
on first access (PEP 562) and then kept in the package's namespace, so a
command that runs one engine loads only the modules that engine needs.
"""

__version__ = "0.1.0"

# exported name -> its home module; a submodule maps to itself
_EXPORTS = {
    **dict.fromkeys(("Branch", "qcpda_step", "run_qcpda"), "branching"),
    **dict.fromkeys(("ACCEPT", "BLOCK", "LOOP", "REJECT", "run_dpda", "run_ppa"), "classical"),
    **dict.fromkeys(("CompileMap", "EquivReport", "compile_qcpda", "equiv_check"), "compiler"),
    **dict.fromkeys(
        (
            "EndmarkerInWord", "InvariantError", "LengthMismatch", "MachineError",
            "NonWellFormedInput", "NotDeterministic", "ParseError", "PopOnBottom",
            "SchemaError", "StateSpaceOverflow", "UnknownSymbol",
        ),
        "errors",
    ),
    **dict.fromkeys(
        ("emit_json", "machine_to_doc", "parse_machine", "serialize_machine"), "machinefile"
    ),
    **dict.fromkeys(
        (
            "EPSILON", "POP", "Configuration", "InputAlphabet", "MachinePPA",
            "MachineQCPDA", "MachineQPAG", "RunResult", "StackAlphabet", "StackOp",
            "TransitionPPA", "TransitionQCPDA", "TransitionQPAG", "default_max_steps",
            "display_tape", "make_tape", "push",
        ),
        "model",
    ),
    **dict.fromkeys(("measure", "run", "trajectory"), "simulate"),
    **dict.fromkeys(
        (
            "AuditReport", "Violation", "WfReport", "audit_unitarity", "check_ppa",
            "check_qcpda", "check_qpag",
        ),
        "wellformed",
    ),
    **{m: m for m in (
        "branching", "classical", "compiler", "errors", "machinefile", "model",
        "problem1", "simulate", "wellformed",
    )},
}

__all__ = [name for name, home in _EXPORTS.items() if name != home]


def _resolve(name, namespace):
    """Import ``name`` from its home module, bind it in ``namespace`` (a
    module's globals) and return it; AttributeError if it is not exported."""
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
    # ``__import__``, not ``importlib.import_module``: only the former is
    # timed by ``-X importtime``, which tools/import_cost.py reads
    module = __import__(f"{__name__}.{home}", fromlist=("_",))
    namespace[name] = value = module if home == name else getattr(module, name)
    return value


def __getattr__(name):
    return _resolve(name, globals())


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
