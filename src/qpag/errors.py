"""Exception types shared across the package."""


class MachineError(Exception):
    """Base class for every error raised by this package."""


class UnknownSymbol(MachineError):
    """A word contains a token that is not in the machine's input alphabet."""


class EndmarkerInWord(MachineError):
    """A word contains an endmarker token; endmarkers are added by make_tape."""


class PopOnBottom(MachineError):
    """A pop was applied to a stack holding only the bottom symbol."""


class LengthMismatch(MachineError):
    """Two strings compared position-wise have different lengths."""


class NotDeterministic(MachineError):
    """A deterministic run was requested on a machine with a nondeterministic column."""


class StateSpaceOverflow(MachineError):
    """A run or an audit held more live entries than ``model.ENTRY_BUDGET``."""


class NonWellFormedInput(MachineError):
    """The compiler was handed a machine that fails its well-formedness check."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(MachineError):
    """A machine file is not valid JSON."""


class SchemaError(MachineError):
    """A machine file parses as JSON but violates the document schema."""


class InvariantError(MachineError):
    """A structurally valid document describes an inconsistent machine."""
