from pathlib import Path

import pytest

from conftest import UPDATED_IN_PLACE
from foreman.executor import RobotState, Trace, TraceEntry, WorldState
from foreman.experiment import ExperimentConfig
from foreman.fcfs import Assignment
from foreman.gateway import LlmProfile
from foreman.metrics import EvalReport, SimilarityScores
from foreman.plan import Action, ActionKind, Plan, PlanStep
from foreman.repair import EditKind, EditOp, EditProfile, EditScript, RepairResult
from foreman.scenario import CostModel, PrecedenceDag, RobotSpec, ScanFootprint, TaskSpec
from foreman.validator import (
    ALL_CHECKS, CheckState, FixHint, HintKind, Violation, ViolationClass as VC, ViolationReport,
)

_HINT = (HintKind.InsertBefore, 2, ActionKind.CHARGE)
_VIOLATION = (VC.Battery, 2, "battery at -5% after MOVE_B", FixHint(*_HINT))

# Each record that hashes by value, as its class and its fields in order.
_RECORDS = [
    (Action, (ActionKind.NAVIGATE, "B")),
    (FixHint, _HINT),
    (Violation, _VIOLATION),
    (ViolationReport, ((Violation(*_VIOLATION),), frozenset({VC.Battery}), True, 1, False)),
    (EditOp, (EditKind.Substitute, 2, Action(ActionKind.PICK), Action(ActionKind.MOVE_S))),
    (EditProfile, (1, 2, 0)),
    (Assignment, ((("t1", ("r1",)),), (("t1", 0.0),))),
]


@pytest.mark.parametrize("cls, fields", _RECORDS, ids=[cls.__name__ for cls, _ in _RECORDS])
def test_a_record_hashes_as_its_fields_and_equals_only_its_own_class(cls, fields):
    record = cls(*fields)
    # the hash a frozen dataclass computed, so no set or dict order moves
    assert hash(record) == hash(fields)
    assert record == cls(*fields) and not record != cls(*fields)
    assert len({record, cls(*fields)}) == 1
    for i in range(len(fields)):
        other = cls(*fields[:i], object(), *fields[i + 1:])
        assert record != other and other != record, i
    subclass = type("Sub", (cls,), {"__slots__": ()})
    assert record != subclass(*fields) and subclass(*fields) != record
    assert record != fields and fields != record


# Every record that ``foreman.record`` writes: its fields in declaration
# order, the defaults of the trailing ones, and how it compares: by value
# with a hash ("hash"), by value without one ("eq"), or by identity.
_DECLARED = [
    (RobotState, "location battery cargo", {}, "eq"),
    (WorldState, "robots stock placed_at scanned discovered elapsed placed_total", {}, "eq"),
    (TraceEntry, "step robot location battery cargo placed_total placed_here tu_cost du_cost", {}, "eq"),
    (Trace, "entries final error", {"error": None}, "eq"),
    (ExperimentConfig, "scenario_path supervisors max_iters budget checks out_dir seed mocks_dir profiles_path",
     {"supervisors": ("search-minimal",), "max_iters": 3, "budget": 4, "checks": ALL_CHECKS, "out_dir": Path("out"),
      "seed": 0, "mocks_dir": None, "profiles_path": None}, "identity"),
    (Assignment, "alpha theta", {}, "hash"),
    (LlmProfile, "name role endpoint model_name temperature max_tokens stop_tokens api_key_env seed",
     {"temperature": 0.2, "max_tokens": 1024, "stop_tokens": (), "api_key_env": "", "seed": None}, "identity"),
    (SimilarityScores, "bleu rouge1 rouge2 rougeL meteor", {}, "identity"),
    (EvalReport, "scores fr edits makespan_tu makespan_delta", {}, "identity"),
    (Action, "kind target", {"target": None}, "hash"),
    (PlanStep, "step robot location action cargo placed battery coalition", {"coalition": ()}, "eq"),
    (Plan, "steps", {}, "eq"),
    (EditOp, "kind position payload replaced", {"payload": None, "replaced": None}, "hash"),
    (EditProfile, "insertions substitutions reorders", {"insertions": 0, "substitutions": 0, "reorders": 0}, "hash"),
    (EditScript, "ops", {}, "identity"),
    (RepairResult, "feasible plan script iterations_used report", {}, "identity"),
    (RobotSpec, "id skills payload_capacity battery_max battery_init start_location cargo_init",
     {"cargo_init": 0}, "identity"),
    (TaskSpec, "id type required_skills location demand duration", {}, "identity"),
    (PrecedenceDag, "edges", {}, "identity"),
    (CostModel, "battery_per_du tu_per_du pick_build_tu_per_3mu recharge_tu scan_tu_per_su scan_footprint",
     {"battery_per_du": 25.0, "tu_per_du": 1.0, "pick_build_tu_per_3mu": 1.0, "recharge_tu": 1.0,
      "scan_tu_per_su": 1.0, "scan_footprint": ScanFootprint.RowColLos}, "identity"),
    (FixHint, "kind anchor_step suggested_action", {"suggested_action": None}, "hash"),
    (Violation, "cls step detail hint", {"hint": None}, "hash"),
    (ViolationReport, "violations checks_run checks_completed psi feasible", {}, "hash"),
    (CheckState, "placed_at done index last_step doomed", {"index": 0, "last_step": 0, "doomed": False}, "identity"),
]
_REPRS = {Action, PlanStep, Plan, EditOp}
_declared = pytest.mark.parametrize("cls, names, defaults, compares", _DECLARED,
                                    ids=[cls.__name__ for cls, *_ in _DECLARED])


@_declared
def test_a_record_takes_its_fields_in_order_by_position_or_keyword(cls, names, defaults, compares):
    names = names.split()
    assert cls.__slots__ == tuple(names)
    values = [object() for _ in names]
    for record in (cls(*values), cls(**dict(zip(names, values))), cls(*values[:1], **dict(zip(names[1:], values[1:])))):
        assert all(getattr(record, n) is v for n, v in zip(names, values))
    required = [object() for n in names if n not in defaults]
    assert list(defaults) == names[len(required):]
    first, second = cls(*required), cls(*required)
    for name, default in defaults.items():
        # the declared object, bound once for every call
        assert getattr(first, name) == default and type(getattr(first, name)) is type(default), name
        assert getattr(first, name) is getattr(second, name), name
    with pytest.raises(TypeError):
        cls(*values, object())
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    if required:
        with pytest.raises(TypeError):
            cls(*required[:-1])


@_declared
def test_a_record_compares_and_prints_as_declared(cls, names, defaults, compares):
    values = tuple(object() for _ in names.split())
    record, twin = cls(*values), cls(*values)
    assert record == record
    if compares == "identity":
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
        assert record != twin
    else:
        assert record == twin and record != cls(*values[:-1], object())
        if compares == "hash":
            assert hash(record) == hash(twin) == hash(values)
        else:
            assert cls.__hash__ is None
            with pytest.raises(TypeError):
                hash(record)
    if cls in _REPRS:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names.split(), values))
        assert repr(record) == f"{cls.__name__}({shown})"
    else:
        assert cls.__repr__ is object.__repr__


@_declared
def test_a_generated_method_names_its_record(cls, names, defaults, compares):
    made = {"__init__": True, "__eq__": compares != "identity", "__hash__": compares == "hash",
            "__repr__": cls in _REPRS}
    for method in (m for m, present in made.items() if present):
        code = vars(cls)[method].__code__
        assert code.co_filename == f"<record {cls.__name__}>", method
        assert vars(cls)[method].__qualname__ == f"{cls.__name__}.{method}"


def test_every_record_but_those_updated_in_place_refuses_a_second_assignment(read_only_records, wall):
    assert {c.__name__ for c in read_only_records} == (
        {cls.__name__ for cls, *_ in _DECLARED} | {"SiteMap", "Scenario"}) - UPDATED_IN_PLACE
    for cls, names, *_ in _DECLARED:
        name = names.split()[0]
        record = cls(*(object() for _ in names.split()))
        if cls.__name__ in UPDATED_IN_PLACE:
            setattr(record, name, 1)
            assert getattr(record, name) == 1
        else:
            with pytest.raises(AttributeError, match="read-only"):
                setattr(record, name, 1)
    with pytest.raises(AttributeError, match="read-only"):
        wall.name = "x"
    with pytest.raises(AttributeError, match="read-only"):
        wall.site.kind = wall.site.kind
