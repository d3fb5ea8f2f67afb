"""Seeded generator of tower-building scenarios for the benchmark.

Each scenario is a ``cube_tabletop`` world with 10-16 cubes, a goal of 2-3
disjoint ``on(a, b)`` conjuncts, and 3-6 blocker cubes stacked on the goal
cubes. The blockers trip the same planning-time faults as the bundled
``precond_02_two_blockers`` scenario (``blocked_grasp``/``blocked_place``),
costing about one resolution round per blocker, and the oracle answers are
the same templates.

Sizes are drawn stratified: every (conjunct count, blocker count) pair
appears equally often in a batch whose size is a multiple of eight, with
its cube counts spread evenly over the feasible range and its split of
blockers between source cubes (which trip ``blocked_grasp``) and
destination cubes (``blocked_place``) spread evenly from all on sources to
all on destinations, the two paired as in a Latin square. Each side's
blockers are dealt out in turn over its cubes. The seed orders the batch
and draws the arrangement: which cubes are goals, pairs and blockers, and
which cube of a side gets the taller stacks. Two seeds therefore give
different worlds with the same mix of sizes and fault kinds, which keeps
run-to-run spread down without fixing the inputs.

The output is plain ``scenario/v1`` and ``domain/v1`` files, so the program
loads them through ``load_scenario`` with its usual schema checks.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

CONJUNCTS = (2, 3)
BLOCKERS = (3, 4, 5, 6)
MIN_CUBES, MAX_CUBES = 10, 16
DOMAIN_FILE = "towers.domain.yaml"

FAULT_RULES = [
    {"id": "blocked_grasp", "skill": "grasp", "phase": "planning",
     "guard": ["on(any_object, @obj)"],
     "message": "No collision free path found"},
    {"id": "blocked_place", "skill": "place", "phase": "planning",
     "where": {"dst": {"category": "cube"}},
     "guard": ["on(any_object, @dst)"],
     "message": "No collision free path found"},
]
ORACLE_PRECONDITIONS = {"blocked_grasp": "~on(any_object, @obj)",
                        "blocked_place": "~on(any_object, @dst)"}


@dataclass(frozen=True)
class TowerSize:
    cubes: int
    conjuncts: int
    blockers: int
    on_destinations: int   # blockers stacked on destination cubes; the rest on sources

    def __str__(self) -> str:
        return f"{self.cubes}c/{self.conjuncts}g/{self.blockers}b/{self.on_destinations}d"


@dataclass(frozen=True)
class TowerBatch:
    """A generated batch: scenario files in generation order, plus the
    sizes drawn for them and a digest over every file written."""

    seed: int
    paths: tuple[Path, ...]
    sizes: tuple[TowerSize, ...]
    digest: str


def spread(low: int, high: int, count: int) -> list[int]:
    """``count`` whole numbers spread evenly over ``low..high``: the
    midpoints of as many equal slices of the range."""
    span = high - low + 1
    return [low + (2 * i + 1) * span // (2 * count) for i in range(count)]


def draw_sizes(rng: random.Random, count: int) -> list[TowerSize]:
    """``count`` sizes: each (conjuncts, blockers) pair ``count / 8`` times,
    with cube counts and blocker splits each spread evenly over their
    feasible ranges, in a seeded order. Cube counts and splits are paired
    as in a Latin square, each pair of counts rotating the splits by one
    more place, so that no seed draws a batch heavy in large worlds with
    all blockers on one side."""
    combos = [(k, b) for k in CONJUNCTS for b in BLOCKERS]
    if count % len(combos):
        raise ValueError(f"count must be a multiple of {len(combos)}, got {count}")
    per_combo = count // len(combos)
    sizes = []
    for index, (k, b) in enumerate(combos):
        low = max(MIN_CUBES, 2 * k + b)   # goal pairs and blockers are distinct cubes
        splits = spread(0, b, per_combo)
        turn = index % per_combo
        splits = splits[turn:] + splits[:turn]
        sizes += [TowerSize(cubes, k, b, split)
                  for cubes, split in zip(spread(low, MAX_CUBES, per_combo), splits)]
    rng.shuffle(sizes)
    return sizes


def cube_names(count: int) -> list[str]:
    return [f"cube_{i:02d}" for i in range(count)]


def tower_domain(template_path: Path) -> dict:
    """The cube domain with its named cubes replaced by the generated ones."""
    data = yaml.safe_load(template_path.read_text())
    others = [o for o in data["objects"] if o["category"] != "cube"]
    data["objects"] = [{"name": n, "category": "cube"}
                       for n in cube_names(MAX_CUBES)] + others
    return data


def tower_scenario(rng: random.Random, scenario_id: str, size: TowerSize) -> dict:
    cubes = cube_names(size.cubes)
    rng.shuffle(cubes)
    goal_cubes = cubes[:2 * size.conjuncts]
    pairs = [(goal_cubes[2 * i], goal_cubes[2 * i + 1]) for i in range(size.conjuncts)]
    blockers = cubes[2 * size.conjuncts:2 * size.conjuncts + size.blockers]
    # Each side's blockers are dealt out in turn over its cubes, in a seeded
    # order, so stacks on one side differ in height by at most one.
    sources = rng.sample([a for a, _ in pairs], len(pairs))
    destinations = rng.sample([b for _, b in pairs], len(pairs))
    bases = [destinations[i % len(pairs)] for i in range(size.on_destinations)]
    bases += [sources[i % len(pairs)] for i in range(size.blockers - size.on_destinations)]
    support = {c: "table" for c in cubes}
    top = {c: c for c in goal_cubes}
    for blocker, base in zip(blockers, bases):
        support[blocker] = top[base]
        top[base] = blocker
    goals = " & ".join(f"on({a}, {b})" for a, b in pairs)
    return {
        "schema": "scenario/v1",
        "id": scenario_id,
        "domain": DOMAIN_FILE,
        "description": f"Generated tower scenario ({size}).",
        "instruction": "Put " + " and ".join(f"{a} on {b}" for a, b in pairs),
        "objects": sorted(cubes) + ["table"],
        "initial": {"visible": [f"on({c}, {s})" for c, s in sorted(support.items())],
                    "hidden": []},
        "fault_rules": FAULT_RULES,
        "oracle": {"goals": goals, "preconditions": ORACLE_PRECONDITIONS},
        "expected": {"outcome": "success"},
    }


def generate(seed: int, count: int, out: Path, template_path: Path) -> TowerBatch:
    """Write ``count`` scenarios plus their shared domain file into ``out``.

    The same seed writes byte-identical files."""
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    files = {DOMAIN_FILE: yaml.safe_dump(tower_domain(template_path), sort_keys=False)}
    sizes = draw_sizes(rng, count)
    names = []
    for index, size in enumerate(sizes):
        name = f"tower_{index:02d}.yaml"
        scenario = tower_scenario(rng, f"tower_s{seed}_{index:02d}", size)
        files[name] = yaml.safe_dump(scenario, sort_keys=False)
        names.append(name)
    digest = hashlib.sha256()
    for name in sorted(files):
        (out / name).write_text(files[name])
        digest.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return TowerBatch(seed, tuple(out / n for n in names), tuple(sizes),
                      digest.hexdigest()[:16])

