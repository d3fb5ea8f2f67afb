import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from btpolicy.domain import load_domain, make_state
from btpolicy.sim import bundled_data_path, load_scenario, load_scenarios

DATA = bundled_data_path()


@pytest.fixture(scope="session")
def cube_domain():
    return load_domain(DATA / "domains" / "cube_tabletop.yaml")


@pytest.fixture(scope="session")
def cafe_domain():
    return load_domain(DATA / "domains" / "cafe.yaml")


@pytest.fixture(scope="session")
def household_domain():
    return load_domain(DATA / "domains" / "household.yaml")


@pytest.fixture(scope="session")
def blocks_domain():
    return load_domain(DATA / "domains" / "blocks_strict.yaml")


@pytest.fixture(scope="session")
def all_scenarios():
    return load_scenarios(DATA / "scenarios")


@pytest.fixture()
def golden_scenario():
    return load_scenario(DATA / "scenarios" / "cube_stack_golden.yaml")


@pytest.fixture()
def blocked_cube_state(cube_domain):
    return make_state(
        cube_domain,
        ["on(red_cube, blue_cube)", "on(blue_cube, table)", "on(green_cube, table)"],
        objects=["blue_cube", "green_cube", "red_cube", "table"])


def _towers(seed: int, count: int, out: Path) -> list:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import towergen
    batch = towergen.generate(seed, count, out,
                              bundled_data_path("domains", "cube_tabletop.yaml"))
    cache: dict = {}
    return [load_scenario(path, domain_cache=cache) for path in batch.paths]


@pytest.fixture(scope="session")
def seed7_towers(tmp_path_factory):
    """The first four seed-7 towers of the benchmark's generator."""
    return _towers(7, 8, tmp_path_factory.mktemp("towers"))[:4]


@pytest.fixture(scope="session")
def seed7_tower_pool(tmp_path_factory):
    """The 64 seed-7 towers the benchmark's ``tower-scale`` pool holds."""
    return _towers(7, 64, tmp_path_factory.mktemp("tower_pool"))
