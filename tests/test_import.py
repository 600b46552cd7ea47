"""``import cqcsp`` loads only what the package uses: no ``dataclasses``
(with the ``inspect``, ``ast`` and ``dis`` it loads) and no ``typing``,
and the CLI module leaves ``traceback`` for its internal-error path and
reads and writes files without ``pathlib``.
Checked in a fresh interpreter without ``site``, as the commands start."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import cqcsp

SRC = str(Path(cqcsp.__file__).resolve().parent.parent)
HEAVY = ("dataclasses", "inspect", "typing")


def _loaded(module: str, names: tuple[str, ...]) -> list[str]:
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        f"import {module}\n"
        f"print(' '.join(n for n in {names!r} if n in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_import_leaves_out_dataclasses_inspect_and_typing():
    assert _loaded("cqcsp", HEAVY) == []


def test_cli_import_leaves_out_traceback():
    assert _loaded("cqcsp.cli", HEAVY + ("traceback",)) == []


def test_cli_import_leaves_out_pathlib():
    assert _loaded("cqcsp.cli", ("pathlib",)) == []
