import json

import pytest

from foreman.experiment import fixtures_dir
from foreman.plan import parse_plan
from foreman.scenario import load_scenario


def scenario_doc(name: str) -> dict:
    """A fresh copy of the JSON document of the shipped scenario ``name``:
    what ``load_scenario`` parses, for a test to edit and load."""
    return json.loads((fixtures_dir() / f"{name}.scn.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def fix_dir():
    return fixtures_dir()


@pytest.fixture(scope="session")
def wall(fix_dir):
    return load_scenario(fix_dir / "wall_assembly.scn.json")


@pytest.fixture(scope="session")
def grid(fix_dir):
    return load_scenario(fix_dir / "scan_grid.scn.json")


def _plan(fix_dir, name):
    return parse_plan((fix_dir / "plans" / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def wall_draft(fix_dir):
    return _plan(fix_dir, "wall_assembly.draft.plan")


@pytest.fixture(scope="session")
def wall_gemma(fix_dir):
    return _plan(fix_dir, "wall_assembly.gemma.plan")


@pytest.fixture(scope="session")
def wall_llama(fix_dir):
    return _plan(fix_dir, "wall_assembly.llama.plan")


@pytest.fixture(scope="session")
def wall_mistral(fix_dir):
    return _plan(fix_dir, "wall_assembly.mistral.plan")


@pytest.fixture(scope="session")
def grid_draft(fix_dir):
    return _plan(fix_dir, "scan_grid.draft.plan")


@pytest.fixture(scope="session")
def grid_gemma(fix_dir):
    return _plan(fix_dir, "scan_grid.gemma.plan")


@pytest.fixture(scope="session")
def grid_llama(fix_dir):
    return _plan(fix_dir, "scan_grid.llama.plan")


@pytest.fixture(scope="session")
def grid_mistral(fix_dir):
    return _plan(fix_dir, "scan_grid.mistral.plan")
