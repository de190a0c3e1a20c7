"""Plan DSL: parse, serialize and tokenize six-field API command records.

A plan is an ordered sequence of step records, one per line:

    STEP 4, [B], BUILD, [0], 3, [50]

with the fields STEP, CURRENT_LOCATION, ACTION, INTERNAL_CARGO,
PLACED_BRICKS, REMAINING_BATTERY.  Multi-robot plans prefix each line
with ``robot_id:`` (coalitions use ``r1+r2:``); single-robot plans omit
the prefix.  Brackets around values are optional on input; the canonical
serializer emits the bracketed form shown above.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum


class ActionKind(Enum):
    MOVE_S = "MOVE_S"
    MOVE_B = "MOVE_B"
    MOVE_C = "MOVE_C"
    MOVE_Left = "MOVE_Left"
    MOVE_Right = "MOVE_Right"
    MOVE_Up = "MOVE_Up"
    MOVE_Down = "MOVE_Down"
    PICK = "PICK"
    BUILD = "BUILD"
    CHARGE = "CHARGE"
    SCAN = "SCAN"
    IDLE = "IDLE"
    NAVIGATE = "NAVIGATE"
    MARK_LAYOUT = "MARK_LAYOUT"
    INSPECT = "INSPECT"
    CO_CARRY = "CO_CARRY"


# Named-graph move actions and the node they target.
MOVE_TARGETS = {
    ActionKind.MOVE_S: "S",
    ActionKind.MOVE_B: "B",
    ActionKind.MOVE_C: "C",
}

# Grid move actions as (dx, dy) with Up = +y.
GRID_MOVES = {
    ActionKind.MOVE_Left: (-1, 0),
    ActionKind.MOVE_Right: (1, 0),
    ActionKind.MOVE_Up: (0, 1),
    ActionKind.MOVE_Down: (0, -1),
}


@dataclass(frozen=True)
class Action:
    """An action kind plus the target location for NAVIGATE."""

    kind: ActionKind
    target: str | None = None

    def token(self) -> str:
        return self.kind.value

    def __str__(self) -> str:
        if self.kind is ActionKind.NAVIGATE:
            return f"NAVIGATE {self.target}"
        return self.kind.value


@dataclass(frozen=True)
class PlanStep:
    """One six-field command record; numeric fields are the *claimed* state.

    The claimed cargo/placed/battery columns are whatever the plan text
    reported; ground truth is always recomputed by the executor.  Battery
    may therefore be negative here (a raw trace transcription) even though
    feasible plans require it in [0, battery_max].
    """

    step: int
    robot: str | None
    location: str
    action: Action
    cargo: int
    placed: int
    battery: float
    coalition: tuple[str, ...] = ()


@dataclass(frozen=True)
class Plan:
    steps: tuple[PlanStep, ...]

    @property
    def robots(self) -> tuple[str | None, ...]:
        """Roster of robot ids referenced, in first-appearance order."""
        seen: list[str | None] = []
        for s in self.steps:
            if s.robot not in seen:
                seen.append(s.robot)
        return tuple(seen)

    def __len__(self) -> int:
        return len(self.steps)

    def steps_for(self, robot: str | None) -> tuple[PlanStep, ...]:
        return tuple(s for s in self.steps if s.robot == robot)


class SchemaError(ValueError):
    """Raised when plan text does not match the step grammar."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


_STEP_RE = re.compile(r"^STEP\s+(-?\d+)$", re.IGNORECASE)
_DECIMAL_RE = re.compile(r"[-+]?\d+(\.\d+)?([eE][-+]?\d+)?")
_PREFIX_RE = re.compile(r"^([A-Za-z_][\w+-]*)\s*:\s*(STEP\b.*)$")


def _split_fields(body: str) -> list[str]:
    """Split on commas that are not inside parentheses.

    Grid cell ids like ``(2,2)`` contain commas, so a plain split breaks.
    """
    fields, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            fields.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    fields.append("".join(cur).strip())
    return fields


def _unbracket(raw: str) -> str:
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        return raw[1:-1].strip()
    return raw


def _parse_int(raw: str, line: int, what: str) -> int:
    try:
        return int(_unbracket(raw))
    except ValueError:
        raise SchemaError(line, f"{what} is not an integer: {raw!r}") from None


def _parse_decimal(raw: str, line: int, what: str) -> float:
    """A finite decimal such as ``50``, ``87.5`` or ``1e-05`` (what ``_fmt_num`` writes)."""
    text = _unbracket(raw)
    if _DECIMAL_RE.fullmatch(text) and math.isfinite(value := float(text)):
        return value
    raise SchemaError(line, f"{what} is not a finite decimal: {raw!r}")


def _parse_action(raw: str, line: int) -> Action:
    raw = _unbracket(raw)
    parts = raw.split(None, 1)
    name = parts[0]
    try:
        kind = ActionKind(name)
    except ValueError:
        raise SchemaError(line, f"unknown action {name}") from None
    if kind is ActionKind.NAVIGATE:
        if len(parts) != 2 or not parts[1].strip():
            raise SchemaError(line, "NAVIGATE requires a target location")
        return Action(kind, parts[1].strip())
    if len(parts) != 1:
        raise SchemaError(line, f"action {name} takes no argument")
    return Action(kind)


def parse_plan(text: str) -> Plan:
    """Parse plan text into a Plan.

    Accepts bracketed or bare integers in every numeric position and an
    optional ``robot:`` (or ``r1+r2:`` coalition) line prefix.  Raises
    SchemaError for malformed fields, unknown actions, or step indices
    that are not 1..K consecutive per robot.
    """
    steps: list[PlanStep] = []
    expected: dict[str | None, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        robot: str | None = None
        coalition: tuple[str, ...] = ()
        m = _PREFIX_RE.match(line)
        if m:
            prefix, line = m.group(1), m.group(2)
            members = tuple(p for p in prefix.split("+") if p)
            robot = members[0]
            coalition = members if len(members) > 1 else ()
        fields = _split_fields(line)
        if len(fields) != 6:
            raise SchemaError(line_no, f"expected 6 fields, got {len(fields)}")
        m = _STEP_RE.match(fields[0])
        if not m:
            raise SchemaError(line_no, f"bad step field: {fields[0]!r}")
        index = int(m.group(1))
        want = expected.get(robot, 0) + 1
        if index != want:
            raise SchemaError(
                line_no, f"step index {index} (expected {want} for robot {robot or '<default>'})"
            )
        expected[robot] = index
        location = _unbracket(fields[1])
        if not location:
            raise SchemaError(line_no, "empty location")
        action = _parse_action(fields[2], line_no)
        cargo = _parse_int(fields[3], line_no, "INTERNAL_CARGO")
        placed = _parse_int(fields[4], line_no, "PLACED_BRICKS")
        battery = _parse_decimal(fields[5], line_no, "REMAINING_BATTERY")
        if cargo < 0:
            raise SchemaError(line_no, f"negative cargo {cargo}")
        if placed < 0:
            raise SchemaError(line_no, f"negative placed count {placed}")
        steps.append(
            PlanStep(index, robot, location, action, cargo, placed, battery, coalition)
        )
    return Plan(tuple(steps))


def _fmt_num(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(value)


def serialize_plan(plan: Plan) -> str:
    """Emit canonical plan text: one line per step, grouped by robot.

    Round-trips: parse_plan(serialize_plan(p)) == p for any valid Plan.
    """
    lines = []
    for robot in plan.robots:
        for s in plan.steps_for(robot):
            prefix = ""
            if s.coalition:
                prefix = "+".join(s.coalition) + ": "
            elif robot is not None:
                prefix = f"{robot}: "
            lines.append(
                f"{prefix}STEP {s.step}, [{s.location}], {s.action}, "
                f"[{s.cargo}], {s.placed}, [{_fmt_num(s.battery)}]"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def tokenize_plan(plan: Plan) -> list[str]:
    """Flatten a plan to [action-name, location-id] per step.

    The numeric state fields are excluded: similarity metrics score the
    action/ordering content, not the monotone counters.
    """
    tokens: list[str] = []
    for s in plan.steps:
        tokens.append(s.action.token())
        tokens.append(s.location)
    return tokens


def tokenize_plan_full(plan: Plan) -> list[str]:
    """Full-field tokenization (action, location, cargo, placed, battery).

    Offered behind the ``--full-tokens`` CLI flag for sensitivity analysis.
    """
    tokens: list[str] = []
    for s in plan.steps:
        tokens.extend(
            [s.action.token(), s.location, str(s.cargo), str(s.placed), _fmt_num(s.battery)]
        )
    return tokens
