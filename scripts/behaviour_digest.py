#!/usr/bin/env python3
"""Print one digest of the program's observable behaviour.

Runs the full pipeline with each scenario's oracle backend on the 17
bundled scenarios and on the 64 seed-7 towers that ``perfbench/towergen.py``
writes (into a temporary directory), and hashes, per scenario: the
serialized patched tree, the outcome and rounds, ``records.jsonl``, every
execution's ``trace.jsonl``, a backend-free replay from the initial world,
and the ``verify_tree`` report. Two checkouts that print the same digest
behaved identically on these inputs. The program is imported from the
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


def behaviour(scenario) -> list[str]:
    """The texts one scenario's run is judged by, in a fixed order."""
    config = ResolveConfig()
    result = resolve_until_success(scenario, scenario.oracle_backend(), config)
    parts = [scenario.id, bt.serialize(result.tree), result.outcome.value,
             str(result.rounds), records_to_jsonl(result.records)]
    parts += [trace.to_jsonl() for trace in result.traces]
    try:
        replay = execute(result.tree, scenario, max_ticks=config.plan.max_sim_ticks)
        parts += [replay.outcome, replay.to_jsonl()]
    except BtError as e:
        parts.append(f"replay raised {type(e).__name__}: {e}")
    parts.append(verify_tree(result.tree, scenario.domain, result.goals,
                             initial_state=scenario.initial).to_text())
    return parts


def load_digest_scenarios(workdir: Path) -> list:
    """The bundled scenarios, then the seed-7 towers written into ``workdir``."""
    batch = towergen.generate(TOWER_SEED, TOWER_COUNT, workdir / "towers",
                              bundled_data_path("domains", "cube_tabletop.yaml"))
    cache: dict = {}
    return load_scenarios(bundled_data_path("scenarios")) + \
        [load_scenario(p, domain_cache=cache) for p in batch.paths]


def main() -> None:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        scenarios = load_digest_scenarios(Path(tmp))
        for scenario in scenarios:
            for part in behaviour(scenario):
                digest.update(part.encode() + b"\0")
    print(f"{len(scenarios)} scenarios: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
