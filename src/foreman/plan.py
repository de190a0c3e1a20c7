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
from enum import Enum
from typing import NoReturn


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

    # Members are singletons, so identity hashing is exact and runs in C;
    # Enum's own __hash__ is a Python call.  Sets of kinds are sorted
    # before they reach any output.
    __hash__ = object.__hash__


# The members that per-step code compares against, bound once as module
# names, which hot loops read instead of ``ActionKind.X``: on Python 3.10 and
# 3.11 each such read runs ``EnumType.__getattr__``, a Python-level hook that
# costs several times a module-global read, up to nine per step in
# ``apply_step``.
NAVIGATE, PICK, BUILD, CHARGE, SCAN, IDLE, INSPECT, MARK_LAYOUT = (
    ActionKind.NAVIGATE, ActionKind.PICK, ActionKind.BUILD, ActionKind.CHARGE, ActionKind.SCAN, ActionKind.IDLE,
    ActionKind.INSPECT, ActionKind.MARK_LAYOUT,
)

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


class Action:
    """An action kind plus the target location for NAVIGATE."""

    __slots__ = ("kind", "target")

    def __init__(self, kind: ActionKind, target: str | None = None):
        self.kind = kind
        self.target = target

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.target) == (other.kind, other.target)

    def __hash__(self):
        return hash((self.kind, self.target))

    def __repr__(self):
        return f"Action(kind={self.kind!r}, target={self.target!r})"

    def token(self) -> str:
        return self.kind.value

    def __str__(self) -> str:
        if self.kind is NAVIGATE:
            return f"NAVIGATE {self.target}"
        return self.kind.value


class PlanStep:
    """One six-field command record; numeric fields are the *claimed* state.

    The claimed cargo/placed/battery columns are whatever the plan text
    reported; ground truth is always recomputed by the executor.  Battery
    may therefore be negative here (a raw trace transcription) even though
    feasible plans require it in [0, battery_max].

    Steps are shared: a trace entry holds the step it ran, and the search's
    candidates and edited step lists hold the draft's own steps.  So a step
    is read-only by convention, like ``TraceEntry``.  The one writer is
    ``repair.reconcile_plan``: it fills in the state columns of the steps
    it has just built and run, before any caller sees them, which is why a
    step is mutable.  Two steps are equal when their fields are, and a
    step has no hash.
    """

    __slots__ = ("step", "robot", "location", "action", "cargo", "placed", "battery", "coalition")

    def __init__(
        self,
        step: int,
        robot: str | None,
        location: str,
        action: Action,
        cargo: int,
        placed: int,
        battery: float,
        coalition: tuple[str, ...] = (),
    ):
        self.step = step
        self.robot = robot
        self.location = location
        self.action = action
        self.cargo = cargo
        self.placed = placed
        self.battery = battery
        self.coalition = coalition

    def _fields(self) -> tuple:
        return (self.step, self.robot, self.location, self.action, self.cargo, self.placed, self.battery,
                self.coalition)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return (
            f"PlanStep(step={self.step!r}, robot={self.robot!r}, location={self.location!r}, "
            f"action={self.action!r}, cargo={self.cargo!r}, placed={self.placed!r}, "
            f"battery={self.battery!r}, coalition={self.coalition!r})"
        )


class Plan:
    __slots__ = ("steps",)

    def __init__(self, steps: tuple[PlanStep, ...]):
        self.steps = steps

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.steps == other.steps


    def __repr__(self):
        return f"Plan(steps={self.steps!r})"

    def __len__(self) -> int:
        return len(self.steps)


class SchemaError(ValueError):
    """Raised when plan text does not match the step grammar."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


# One shared Action per kind that takes no argument.
_PLAIN_ACTIONS = {k.value: Action(k) for k in ActionKind if k is not NAVIGATE}

# The parts of the step-line grammar of docs/GRAMMAR.md.  The accept regex
# ``_LINE_RE``, the error wording in ``_explain`` and ``STEP_HEAD`` are all
# built from them.  A location or NAVIGATE target has no whitespace at either
# end and no comma outside parentheses, which do not nest, so a grid cell
# "(2,2)" is one value.
_PREFIX = r"(?P<prefix>[A-Za-z_][\w+-]*)\s*:\s*"
_INT = r"-?[0-9]+"
_STEP = rf"(?i:STEP)\s+(?P<step>{_INT})"
_TEXT = r"(?:[^\s(,]|\([^()]*\))[^(,]*(?:\([^()]*\)[^(,]*)*(?<=\S)"
_DECIMAL = r"[-+]?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
_NAMES = "|".join(_PLAIN_ACTIONS)

# A step line up to the comma after its index: the line at which
# ``gateway.strip_plan_preamble`` starts an LLM response's plan.
STEP_HEAD = re.compile(rf"(?:{_PREFIX})?{_STEP}\s*,")

# Each field after STEP may sit in brackets: "(?P<xb>\[\s*)?" opens them and
# "(?(xb)\s*\])" closes them when they were opened.
_LINE_RE = re.compile(
    rf"""
    (?:{_PREFIX})? {_STEP} \s*,
    \s* (?P<lb> \[\s* )? (?(lb)|(?!\[\s*\]\s*,))    # a bare "[]" is no location
        (?P<location> {_TEXT} ) (?(lb)\s*\]) \s*,
    \s* (?P<ab> \[\s* )? (?: (?P<name> {_NAMES} ) | NAVIGATE \s+ (?P<target> {_TEXT} ) )
        (?(ab)\s*\]) \s*,
    \s* (?P<cb> \[\s* )? (?P<cargo> -0+|[0-9]+ ) (?(cb)\s*\]) \s*,    # "-0" is zero
    \s* (?P<pb> \[\s* )? (?P<placed> -0+|[0-9]+ ) (?(pb)\s*\]) \s*,
    \s* (?P<bb> \[\s* )? (?P<battery> {_DECIMAL} ) (?(bb)\s*\])
    """,
    re.VERBOSE,
)


def _members(prefix: str) -> tuple[str, tuple[str, ...]]:
    """The robot and coalition that an ``r1`` or ``r1+r2`` line prefix names."""
    members = tuple(p for p in prefix.split("+") if p)
    return members[0], (members if len(members) > 1 else ())


def parse_plan(text: str) -> Plan:
    """Parse plan text into a Plan.

    Accepts bracketed or bare values in every field and an optional
    ``robot:`` (or ``r1+r2:`` coalition) line prefix.  Raises SchemaError
    for malformed fields, unknown actions, or step indices that are not
    1..K consecutive per robot.  A line is accepted only when it matches
    ``_LINE_RE`` and its step index and battery are in range; ``_explain``
    words the error for any other line.
    """
    steps: list[PlanStep] = []
    expected: dict[str | None, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.fullmatch(line)
        if m is None:
            _explain(line, line_no, expected)
        # the groups in pattern order; "_" are the bracket groups
        prefix, index, _, location, _, name, target, _, cargo, _, placed, _, battery = m.groups()
        robot, coalition = (None, ()) if prefix is None else _members(prefix)
        index, battery = int(index), float(battery)
        if index != expected.get(robot, 0) + 1 or not math.isfinite(battery):
            _explain(line, line_no, expected)
        expected[robot] = index
        action = _PLAIN_ACTIONS[name] if name else Action(NAVIGATE, target)
        steps.append(
            PlanStep(index, robot, location, action, int(cargo), int(placed), battery, coalition)
        )
    return Plan(tuple(steps))


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


def _explain(line: str, line_no: int, expected: dict[str | None, int]) -> NoReturn:
    """Raise the SchemaError for a step line that ``parse_plan`` rejects.

    Checks the fields in order, so the message names the first bad one.
    """
    m = re.match(rf"{_PREFIX}(?=(?i:STEP)\b)", line)
    robot = _members(m["prefix"])[0] if m else None
    fields = _split_fields(line[m.end():] if m else line)
    if len(fields) != 6:
        raise SchemaError(line_no, f"expected 6 fields, got {len(fields)}")
    step, location, action, *counts, battery = fields
    m = re.fullmatch(_STEP, step)
    if not m:
        raise SchemaError(line_no, f"bad step field: {step!r}")
    want = expected.get(robot, 0) + 1
    index = int(m["step"])
    if index != want:
        raise SchemaError(
            line_no, f"step index {index} (expected {want} for robot {robot or '<default>'})"
        )
    if not _unbracket(location):
        raise SchemaError(line_no, "empty location")
    name, *target = _unbracket(action).split(None, 1) or [""]
    if not name:
        raise SchemaError(line_no, "empty action")
    if name == "NAVIGATE":
        if not target:
            raise SchemaError(line_no, "NAVIGATE requires a target location")
    elif name not in _PLAIN_ACTIONS:
        raise SchemaError(line_no, f"unknown action {name}")
    elif target:
        raise SchemaError(line_no, f"action {name} takes no argument")
    for raw, what in zip(counts, ("INTERNAL_CARGO", "PLACED_BRICKS")):
        if not re.fullmatch(_INT, _unbracket(raw)):
            raise SchemaError(line_no, f"{what} is not an integer: {raw!r}")
    value = _unbracket(battery)
    if not (re.fullmatch(_DECIMAL, value) and math.isfinite(float(value))):
        raise SchemaError(line_no, f"REMAINING_BATTERY is not a finite decimal: {battery!r}")
    for n, what in zip((int(_unbracket(raw)) for raw in counts), ("cargo", "placed count")):
        if n < 0:
            raise SchemaError(line_no, f"negative {what} {n}")
    # every field passed, so the line breaks the one rule only _LINE_RE states
    raise SchemaError(line_no, "nested parentheses")


def _fmt_num(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(value)


def serialize_plan(plan: Plan) -> str:
    """Emit canonical plan text: one line per step, in line order.

    Round-trips: parse_plan(serialize_plan(p)) == p for any valid Plan.
    """
    lines = []
    for s in plan.steps:
        prefix = ""
        if s.coalition:
            prefix = "+".join(s.coalition) + ": "
        elif s.robot is not None:
            prefix = f"{s.robot}: "
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
