"""Subprocesses started by the tests import the package from src/, as the
tests do (pyproject.toml's pytest `pythonpath`), so a bare `pytest` needs
no PYTHONPATH."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
