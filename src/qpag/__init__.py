"""Simulation and verification workbench for quantum pushdown automata
that shed popped symbols onto a write-only garbage tape, plus the
scheduled-stack variant, probabilistic and deterministic baselines, a
lowering between the two quantum models, and a built-in exact recognizer
for a three-segment parity problem.
"""

from .branching import Branch, dump_branches, qcpda_step, run_qcpda
from .classical import ACCEPT, BLOCK, LOOP, REJECT, run_dpda, run_ppa
from .compiler import CompileMap, EquivReport, compile_qcpda, equiv_check
from .errors import (
    EndmarkerInWord,
    InvariantError,
    LengthMismatch,
    MachineError,
    NonWellFormedInput,
    NotDeterministic,
    ParseError,
    PopOnBottom,
    SchemaError,
    StateSpaceOverflow,
    UnknownSymbol,
)
from .machinefile import emit_json, machine_to_doc, parse_machine, serialize_machine
from .model import (
    EPSILON,
    POP,
    Configuration,
    InputAlphabet,
    MachinePPA,
    MachineQCPDA,
    MachineQPAG,
    RunResult,
    StackAlphabet,
    StackOp,
    TransitionPPA,
    TransitionQCPDA,
    TransitionQPAG,
    default_max_steps,
    display_tape,
    make_tape,
    push,
)
from .simulate import initial_vector, measure, run, run_many, trajectory
from .wellformed import (
    AuditReport,
    Violation,
    WfReport,
    audit_unitarity,
    check_ppa,
    check_qcpda,
    check_qpag,
)

__version__ = "0.1.0"

__all__ = [
    "ACCEPT",
    "BLOCK",
    "LOOP",
    "REJECT",
    "AuditReport",
    "Branch",
    "CompileMap",
    "Configuration",
    "EPSILON",
    "EndmarkerInWord",
    "EquivReport",
    "InputAlphabet",
    "InvariantError",
    "LengthMismatch",
    "MachineError",
    "MachinePPA",
    "MachineQCPDA",
    "MachineQPAG",
    "NonWellFormedInput",
    "NotDeterministic",
    "POP",
    "ParseError",
    "PopOnBottom",
    "RunResult",
    "SchemaError",
    "StackAlphabet",
    "StackOp",
    "StateSpaceOverflow",
    "TransitionPPA",
    "TransitionQCPDA",
    "TransitionQPAG",
    "UnknownSymbol",
    "Violation",
    "WfReport",
    "audit_unitarity",
    "check_ppa",
    "check_qcpda",
    "check_qpag",
    "compile_qcpda",
    "default_max_steps",
    "display_tape",
    "dump_branches",
    "emit_json",
    "equiv_check",
    "initial_vector",
    "machine_to_doc",
    "make_tape",
    "measure",
    "parse_machine",
    "push",
    "qcpda_step",
    "run",
    "run_dpda",
    "run_many",
    "run_ppa",
    "run_qcpda",
    "serialize_machine",
    "trajectory",
]
