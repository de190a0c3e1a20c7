import importlib
import json
import pkgutil
import sys

import pytest

import foreman
from foreman.experiment import fixtures_dir
from foreman.plan import parse_plan
from foreman.scenario import load_scenario


def scenario_doc(name: str) -> dict:
    """A fresh copy of the JSON document of the shipped scenario ``name``:
    what ``load_scenario`` parses, for a test to edit and load."""
    return json.loads((fixtures_dir() / f"{name}.scn.json").read_text(encoding="utf-8"))


# The records a run updates in place, as the package docstring lists them.
# Every other record is read-only: for the whole run, only the record's own
# ``__init__`` may set its fields, and any other assignment raises.
UPDATED_IN_PLACE = {"WorldState", "RobotState", "CheckState", "PlanStep"}


def foreman_records() -> list[type]:
    """Every slotted class that a foreman module defines."""
    out = []
    for info in pkgutil.iter_modules(foreman.__path__):
        module = importlib.import_module(f"foreman.{info.name}")
        out += [c for c in vars(module).values()
                if isinstance(c, type) and c.__module__ == module.__name__ and "__slots__" in vars(c)]
    return out


def _assign_once(self, name, value):
    # only the record's own __init__ assigns, which is the one a subclass inherits too
    if sys._getframe(1).f_code is not type(self).__init__.__code__:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only and already set")
    object.__setattr__(self, name, value)


@pytest.fixture(scope="session", autouse=True)
def read_only_records():
    records = foreman_records()
    assert UPDATED_IN_PLACE <= {c.__name__ for c in records}
    guarded = [c for c in records if c.__name__ not in UPDATED_IN_PLACE]
    for cls in guarded:
        cls.__setattr__ = _assign_once
    yield guarded
    for cls in guarded:
        del cls.__setattr__


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
