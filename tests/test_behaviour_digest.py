"""The program's observable behaviour, pinned.

``scripts/behaviour_digest.py`` hashes the patched trees, outcomes,
records, execution traces, replays and verification reports of 81
scenarios. A change meant to be behaviour-neutral (a speed-up, a
refactor) must leave the digest as it is. A change that alters behaviour
on purpose updates ``EXPECTED`` and says in CHANGES.md why the behaviour
changed.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "behaviour_digest.py"
EXPECTED = "99d0d82a7098ba4c1c75d415a61ebd496b2722c1421fe52c11ed3c5f7399d3c0"


def test_behaviour_digest_is_pinned():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-1] == EXPECTED, run.stdout
