"""The acceptance gate, ``tests/test_acceptance.py``, pinned by its SHA-256.

The gate is never loosened and its file never edited (ROADMAP.md, aim 3).
Any edit to it fails this test until the pin below changes in the same
diff, so that both edits show in one change.
"""

import hashlib
from pathlib import Path

GATE = Path(__file__).resolve().parent / "test_acceptance.py"
GATE_SHA256 = "d47ee394a963c7a03bc07511db1f01e7de7c80bff6a4fb8b03bf580f6f403b50"


def test_the_acceptance_gate_is_unedited():
    assert hashlib.sha256(GATE.read_bytes()).hexdigest() == GATE_SHA256
