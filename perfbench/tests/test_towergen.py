import re
from collections import Counter

from btpolicy.sim import bundled_data_path, load_scenario

import towergen

TEMPLATE = bundled_data_path("domains", "cube_tabletop.yaml")


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_identical_inputs(tmp_path):
    first = towergen.generate(11, 8, tmp_path / "a", TEMPLATE)
    second = towergen.generate(11, 8, tmp_path / "b", TEMPLATE)
    assert first.digest == second.digest
    assert first.sizes == second.sizes
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_other_seed_gives_other_inputs(tmp_path):
    first = towergen.generate(11, 8, tmp_path / "a", TEMPLATE)
    second = towergen.generate(12, 8, tmp_path / "b", TEMPLATE)
    assert first.digest != second.digest
    assert _files(tmp_path / "a") != _files(tmp_path / "b")


def test_sizes_are_stratified_and_feasible(tmp_path):
    batch = towergen.generate(5, 16, tmp_path, TEMPLATE)
    pairs = Counter((s.conjuncts, s.blockers) for s in batch.sizes)
    assert set(pairs.values()) == {2}
    assert len(pairs) == len(towergen.CONJUNCTS) * len(towergen.BLOCKERS)
    for size in batch.sizes:
        assert towergen.MIN_CUBES <= size.cubes <= towergen.MAX_CUBES
        assert 2 * size.conjuncts + size.blockers <= size.cubes
        assert 0 <= size.on_destinations <= size.blockers
    for combo in pairs:
        splits = sorted(s.on_destinations for s in batch.sizes
                        if (s.conjuncts, s.blockers) == combo)
        assert splits == towergen.spread(0, combo[1], 2)


def test_generated_files_pass_the_scenario_loader(tmp_path):
    batch = towergen.generate(5, 8, tmp_path, TEMPLATE)
    for path, size in zip(batch.paths, batch.sizes):
        scenario = load_scenario(path)
        assert len(scenario.initial.objects) == size.cubes + 1
        assert len(scenario.fault_rules) == 2
        goal_count = scenario.oracle_goals.count("&") + 1
        assert goal_count == size.conjuncts
        blocked = [lit for lit in scenario.initial.true if lit.args[1] != "table"]
        assert len(blocked) == size.blockers
        pairs = re.findall(r"on\((\w+), (\w+)\)", scenario.oracle_goals)
        destinations = {b for _, b in pairs}
        support = {lit.args[0]: lit.args[1] for lit in scenario.initial.true}

        def base(cube):
            while support[cube] != "table":
                cube = support[cube]
            return cube

        on_destinations = [lit for lit in blocked if base(lit.args[0]) in destinations]
        assert len(on_destinations) == size.on_destinations
        heights = Counter(base(lit.args[0]) for lit in blocked)
        for side in (destinations, {a for a, _ in pairs}):
            side_heights = [heights[cube] for cube in side]
            assert max(side_heights) - min(side_heights) <= 1
