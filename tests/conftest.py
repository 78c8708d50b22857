"""Session set-up shared by every test module.

``pyproject.toml`` puts ``src`` on the import path of the test process. The
command-line tests also start ``python -m qpag`` in child processes, which
find the package only through ``PYTHONPATH``; the fixture below puts
``src`` there for the whole session, so a plain ``python -m pytest`` from a
checkout needs no environment set-up.
"""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_pythonpath():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", _SRC, prepend=os.pathsep)
        yield
