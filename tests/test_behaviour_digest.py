"""The program's observable behaviour, pinned.

``scripts/behaviour_digest.py`` hashes the patched trees, outcomes,
records, execution traces, replays and verification reports of 81
scenarios. A change meant to be behaviour-neutral (a speed-up, a
refactor) must leave the digest as it is. A change that alters behaviour
on purpose updates ``EXPECTED`` and says in CHANGES.md why the behaviour
changed.

The digest says only that something changed. The resolution of the same
81 scenarios is also pinned by name: outcome counts, rounds and backend
calls, so that a change trading backend calls for tree shape shows up as
such.
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from btpolicy.bt import NodeKind, iter_preorder
from btpolicy.resolver import resolve_until_success

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "behaviour_digest.py"
EXPECTED = "89a3dddfa7d1241aad16f0d4a905f620ed2de620e082f8d331ba4490045f5617"

sys.path.insert(0, str(SCRIPT.parent))
import behaviour_digest  # noqa: E402


def test_behaviour_digest_is_pinned():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-1] == EXPECTED, run.stdout


class CountingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def complete(self, prompt, meta):
        self.calls += 1
        return self.inner.complete(prompt, meta)


@pytest.fixture(scope="module")
def resolved(tmp_path_factory):
    """(result, backend calls) for each digest scenario, in digest order."""
    out = []
    for scenario in behaviour_digest.load_digest_scenarios(tmp_path_factory.mktemp("digest")):
        backend = CountingBackend(scenario.oracle_backend())
        out.append((resolve_until_success(scenario, backend), backend.calls))
    return out


def test_resolution_outcomes_rounds_and_backend_calls_are_pinned(resolved):
    assert len(resolved) == 81
    assert Counter(result.outcome.value for result, _ in resolved) == {"success": 81}
    assert sum(result.rounds for result, _ in resolved) == 307
    assert sum(calls for _, calls in resolved) == 388


def test_every_tower_expansion_has_one_branch(resolved):
    """Each Fallback of the tower policies is an expansion: the condition,
    then one Sequence for its achiever."""
    towers = resolved[-behaviour_digest.TOWER_COUNT:]
    fallbacks = [node for result, _ in towers
                 for node, _ in iter_preorder(result.tree.root)
                 if node.kind is NodeKind.FALLBACK]
    assert fallbacks
    for node in fallbacks:
        assert [c.kind for c in node.children] == [NodeKind.CONDITION, NodeKind.SEQUENCE]
