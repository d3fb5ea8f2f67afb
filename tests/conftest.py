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


def _tower_files(seed: int, count: int, out: Path) -> list[Path]:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import towergen
    return list(towergen.generate(seed, count, out,
                                  bundled_data_path("domains", "cube_tabletop.yaml")).paths)


def _load(paths: list[Path]) -> list:
    cache: dict = {}
    return [load_scenario(path, domain_cache=cache) for path in paths]


@pytest.fixture(scope="session")
def seed7_tower_files(tmp_path_factory):
    """The files of eight seed-7 towers of the benchmark's generator."""
    return _tower_files(7, 8, tmp_path_factory.mktemp("towers"))


@pytest.fixture(scope="session")
def seed7_towers(seed7_tower_files):
    """The first four seed-7 towers of the benchmark's generator."""
    return _load(seed7_tower_files[:4])


@pytest.fixture(scope="session")
def seed7_pool_files(tmp_path_factory):
    """The files of the 64 seed-7 towers the benchmark's ``tower-scale``
    pool holds."""
    return _tower_files(7, 64, tmp_path_factory.mktemp("tower_pool"))


@pytest.fixture(scope="session")
def seed7_tower_pool(seed7_pool_files):
    """The 64 seed-7 towers the benchmark's ``tower-scale`` pool holds."""
    return _load(seed7_pool_files)
