#!/usr/bin/env python3
"""Print one digest of the program's observable behaviour.

Runs the full pipeline with each scenario's oracle backend on the 17
bundled scenarios and on the 64 seed-7 towers that ``perfbench/towergen.py``
writes (into a temporary directory), and hashes, per scenario: the
serialized patched tree, the outcome and rounds, ``records.jsonl``, every
execution's ``trace.jsonl``, a backend-free replay from the initial world,
and the ``verify_tree`` report. Two checkouts that print the same digest
behaved identically on these inputs. A second digest leaves out
``records.jsonl``: it covers what the policies are and do, so a change to
how rounds are recorded (or to which rounds call the backend) moves only
the first. The program is imported from the
checkout the script sits in, so a copy of it run inside another checkout
digests that checkout's code:

    python3 scripts/behaviour_digest.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import towergen  # noqa: E402
from btpolicy import bt  # noqa: E402
from btpolicy.errors import BtError  # noqa: E402
from btpolicy.resolver import (ResolveConfig, records_to_jsonl,  # noqa: E402
                               resolve_until_success)
from btpolicy.sim import (bundled_data_path, execute, load_scenario,  # noqa: E402
                          load_scenarios)
from btpolicy.verify import verify_tree  # noqa: E402

TOWER_SEED = 7
TOWER_COUNT = 64


RECORDS = "records.jsonl"


def behaviour(scenario) -> list[tuple[str, str]]:
    """The texts one scenario's run is judged by, each with its name, in a
    fixed order."""
    config = ResolveConfig()
    result = resolve_until_success(scenario, scenario.oracle_backend(), config)
    parts = [("id", scenario.id), ("tree", bt.serialize(result.tree)),
             ("outcome", result.outcome.value), ("rounds", str(result.rounds)),
             (RECORDS, records_to_jsonl(result.records))]
    parts += [("trace", trace.to_jsonl()) for trace in result.traces]
    try:
        replay = execute(result.tree, scenario, max_ticks=config.plan.max_sim_ticks)
        parts += [("replay", replay.outcome), ("replay", replay.to_jsonl())]
    except BtError as e:
        parts.append(("replay", f"replay raised {type(e).__name__}: {e}"))
    parts.append(("verify", verify_tree(result.tree, scenario.domain, result.goals,
                                        initial_state=scenario.initial).to_text()))
    return parts


def load_digest_scenarios(workdir: Path) -> list:
    """The bundled scenarios, then the seed-7 towers written into ``workdir``."""
    batch = towergen.generate(TOWER_SEED, TOWER_COUNT, workdir / "towers",
                              bundled_data_path("domains", "cube_tabletop.yaml"))
    cache: dict = {}
    return load_scenarios(bundled_data_path("scenarios")) + \
        [load_scenario(p, domain_cache=cache) for p in batch.paths]


def main() -> None:
    full, without_records = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        scenarios = load_digest_scenarios(Path(tmp))
        for scenario in scenarios:
            for name, part in behaviour(scenario):
                full.update(part.encode() + b"\0")
                if name != RECORDS:
                    without_records.update(part.encode() + b"\0")
    print(f"{len(scenarios)} scenarios: {full.hexdigest()}")
    print(f"{len(scenarios)} scenarios without {RECORDS}: {without_records.hexdigest()}")


if __name__ == "__main__":
    main()
