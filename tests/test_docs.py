"""The documents' code stays true: README's library quick start runs as it
stands, and docs/format.md's complete example is a machine that reads,
checks, audits, runs and writes back as the text around it says."""

import re
from pathlib import Path

from qpag.machinefile import parse_machine, serialize_machine
from qpag.simulate import run
from qpag.wellformed import audit_unitarity, check_qpag

_ROOT = Path(__file__).resolve().parent.parent


def _block(path: str, heading: str, lang: str) -> str:
    """The first ``lang`` code block after ``heading`` in the document."""
    text = (_ROOT / path).read_text(encoding="utf-8")
    after = text[text.index(heading) :]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def test_readme_quick_start_runs():
    exec(compile(_block("README.md", "## Library quick start", "python"), "README.md", "exec"), {})


def test_format_complete_example_checks_runs_and_round_trips():
    machine = parse_machine(_block("docs/format.md", "## Complete example", "json"))
    assert check_qpag(machine).passed
    assert audit_unitarity(machine, "aa").passed
    assert run(machine, "aa").p_acc == 1.0
    assert parse_machine(serialize_machine(machine)) == machine
