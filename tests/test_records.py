import pytest

from foreman.fcfs import Assignment
from foreman.plan import Action, ActionKind
from foreman.repair import EditKind, EditOp, EditProfile
from foreman.validator import FixHint, HintKind, Violation, ViolationClass as VC, ViolationReport

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
