"""The field-by-field plan parser that the one-regex parser replaced.

``parse_plan`` here is the reference for the differential test in
``test_plan_dsl.py``: on every line both must return equal plans or raise
``SchemaError``s with equal messages, apart from the differences that test
lists.  It shares no parsing code with ``foreman.plan``.
"""

from __future__ import annotations

import math
import re

from foreman.plan import Action, ActionKind, Plan, PlanStep, SchemaError


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
