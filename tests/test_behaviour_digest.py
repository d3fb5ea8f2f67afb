"""The program's observable behaviour, pinned.

``scripts/behaviour_digest.py`` hashes the patched trees, outcomes,
records, execution traces, replays and verification reports of 81
scenarios, prints a second digest of everything but the records, and a
third of every prompt the runs send. A change meant to be behaviour-neutral
(a speed-up, a refactor) must leave all three as they are. A change that
alters behaviour on purpose updates ``EXPECTED`` (or, when only the records
change, ``EXPECTED`` alone and not ``EXPECTED_WITHOUT_RECORDS``; when only
the prompt text changes, ``EXPECTED_PROMPTS`` alone) and says in CHANGES.md
why the behaviour changed.

The digest says only that something changed. The resolution of the same
81 scenarios is also pinned by name: outcome counts, rounds and backend
calls, so that a change trading backend calls for tree shape shows up as
such. A precondition round that reuses an answer the run already got
(``reused_from``) makes no call; the 174 such rounds are the difference
between 307 rounds plus one goal call per scenario and the calls made.
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from btpolicy.bt import NodeKind, iter_preorder
from btpolicy.resolver import resolve_until_success

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "behaviour_digest.py"
EXPECTED = "5a8f66aba10da62769ad4810a73c07a32decf2ecce88d1db53a10e27619de4bf"
EXPECTED_WITHOUT_RECORDS = "242efe3aa38be1ea8a3d64f8ff7f1eea42ec97cbabe88af587abf272c3144a9b"
EXPECTED_PROMPTS = "8f7281e961f6972bc983ccd8d2544c26a822c05faca4538c3aa316c4d5e324a1"

sys.path.insert(0, str(SCRIPT.parent))
import behaviour_digest  # noqa: E402


def test_behaviour_digest_is_pinned():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    full, without_records, prompts = run.stdout.splitlines()
    assert full == f"81 scenarios: {EXPECTED}", run.stdout
    assert without_records == \
        f"81 scenarios without records.jsonl: {EXPECTED_WITHOUT_RECORDS}", run.stdout
    assert prompts == f"81 scenarios, 214 prompts: {EXPECTED_PROMPTS}", run.stdout


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
    assert sum(calls for _, calls in resolved) == 214
    assert sum(record.reused_from is not None
               for result, _ in resolved for record in result.records) == 174


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
