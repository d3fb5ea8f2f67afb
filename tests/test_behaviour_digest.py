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
EXPECTED = "eaa49d7e16a40c6c63555c7f3747e8179d1234ef46fa96e1204b07cb3286ab8e"


def test_behaviour_digest_is_pinned():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-1] == EXPECTED, run.stdout
