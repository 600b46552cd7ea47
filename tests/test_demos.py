"""The demos run as scripts and print the bytes they printed before.

Each digest is the sha256 of the demo's stdout, computed on the code as it
stood before the text parsers stopped building a token object per token,
except 03's, re-pinned when its 6-cycle example moved inside the cycle
decider's tractable threshold sets, and 05's, re-pinned when the triangle
given as an edge list came to be classified as the clique K3 is; the
output does not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_DIGESTS = {
    "01_counting_semantics.py": "af1f5767ebf1d48a4f3b3ad3aa3457767ffe1ed8fe906e7a07585133b90d083b",
    "02_sumsets.py": "38d56a73c68e800e6bcbeba9cb8a8edcc8846cf33eba96a9f9028bbfc800c5fb",
    "03_deciders.py": "45dcbacc177d69c2d9c4b8ee01d4575d4c498efd7cf3ef3bb31a48e23cf92f28",
    "04_reductions.py": "d5358e18f87be76662692b55b9cc4a08be7028c743e5c54f917ccd5a179a8dba",
    "05_classifier.py": "4a05ba4af8ac211db90cd948f19125c23bee6cf2eb33109394c7fa0fdea875f9",
    "06_girth_isolation.py": "83be807f93471526da15e9dd935e2bf08f5f6fe1fc06d4ce5990815398c5fcb1",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
