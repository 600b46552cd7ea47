"""``import cqcsp`` loads only what the package uses: no ``dataclasses``
(with the ``inspect``, ``ast`` and ``dis`` it loads) and no ``typing``,
and none of ``re``, ``enum``, ``functools``, ``collections`` or
``random``: the package reads text with ``str`` methods, its records are
``model.Record`` classes, and ``random`` is imported only where a seeded
source suite is drawn.  The CLI module leaves ``traceback`` for its
internal-error path, reads and writes files without ``pathlib`` and loads
no ``random``; ``argparse`` still loads the other four, so the CLI's
start-up gains less than the library's.
Checked in a fresh interpreter without ``site``, as the commands start."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import cqcsp

SRC = str(Path(cqcsp.__file__).resolve().parent.parent)
HEAVY = ("dataclasses", "inspect", "typing")
STDLIB_LEFT_OUT = ("re", "enum", "functools", "collections", "random")


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


def test_import_leaves_out_re_enum_functools_collections_and_random():
    assert _loaded("cqcsp", STDLIB_LEFT_OUT) == []


def test_cli_import_leaves_out_random():
    assert _loaded("cqcsp.cli", ("random",)) == []
