"""Deterministic plan simulator: the executable semantics behind validation.

``execute`` replays a Plan against a Scenario and records the true state
trajectory (position, battery, cargo, placed bricks, scan coverage,
elapsed time).  Battery is recorded raw: negative values are kept, never
clamped, so the validator can observe energy violations.  Only physically
impossible transitions (moving along a nonexistent edge, charging away
from a charger, picking at a non-stock location) halt execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .plan import ActionKind, GRID_MOVES, MOVE_TARGETS, Plan, PlanStep
from .scenario import Cell, Scenario, cell_id, parse_cell


class ExecError(Exception):
    """An impossible transition at a specific step."""

    def __init__(self, robot: str | None, step: int, kind: str, reason: str):
        super().__init__(f"step {step} ({robot or 'robot'}): {reason}")
        self.robot = robot
        self.step = step
        self.kind = kind  # "bad_move" | "bad_charge" | "bad_pick" | "bad_action"
        self.reason = reason


@dataclass
class RobotState:
    location: str
    battery: float
    cargo: int


@dataclass
class WorldState:
    """Mutable simulation state; snapshots of it appear in the Trace."""

    robots: dict[str, RobotState]
    stock: dict[str, int]
    placed_at: dict[str, int] = field(default_factory=dict)
    scanned: set[Cell] = field(default_factory=set)
    discovered: set[Cell] = field(default_factory=set)
    elapsed: dict[str, float] = field(default_factory=dict)

    @property
    def placed_total(self) -> int:
        return sum(self.placed_at.values())


@dataclass(frozen=True)
class TraceEntry:
    """One executed step with its post-state and costs."""

    step: PlanStep
    robot: str
    location: str
    battery: float
    cargo: int
    placed_total: int
    placed_here: int  # bricks placed by this step (0 unless BUILD)
    picked_here: int  # MU picked by this step (0 unless PICK)
    recharged: float  # battery added by this step (0 unless CHARGE)
    tu_cost: float
    du_cost: float
    elapsed: float  # this robot's elapsed TU after the step


@dataclass(frozen=True)
class Trace:
    entries: tuple[TraceEntry, ...]
    final: WorldState
    error: ExecError | None = None

    def __len__(self) -> int:
        return len(self.entries)


def _initial_state(s: Scenario) -> WorldState:
    return WorldState(
        robots={r.id: RobotState(r.start_location, r.battery_init, r.cargo_init) for r in s.robots},
        stock=s.stock(),
        elapsed={r.id: 0.0 for r in s.robots},
    )


def _apply(s: Scenario, world: WorldState, step: PlanStep, robot_id: str) -> TraceEntry:
    if robot_id not in world.robots:
        raise ExecError(robot_id, step.step, "bad_action", f"unknown robot {robot_id!r}")
    rs = world.robots[robot_id]
    spec = s.robot(robot_id)
    cost = s.cost
    kind = step.action.kind
    du = 0.0
    tu = 0.0
    placed_here = 0
    picked_here = 0
    recharged = 0.0

    if kind in MOVE_TARGETS or kind is ActionKind.NAVIGATE:
        target = step.action.target if kind is ActionKind.NAVIGATE else MOVE_TARGETS[kind]
        if s.site.is_grid():
            raise ExecError(robot_id, step.step, "bad_move", f"{kind.value} is not a grid move")
        if target == rs.location:
            raise ExecError(robot_id, step.step, "bad_move", f"already at {target}")
        if kind is ActionKind.NAVIGATE:
            dist = s.site.shortest_path_du(rs.location, target)
            if dist is None:
                raise ExecError(robot_id, step.step, "bad_move", f"no route {rs.location} -> {target}")
            du = dist
        else:
            w = s.site.edge_weight(rs.location, target)
            if w is None:
                raise ExecError(robot_id, step.step, "bad_move", f"no edge {rs.location} -> {target}")
            du = w
        rs.location = target
        rs.battery -= cost.battery_per_du * du
        tu = cost.tu_per_du * du
    elif kind in GRID_MOVES:
        if not s.site.is_grid():
            raise ExecError(robot_id, step.step, "bad_move", f"{kind.value} needs a grid site")
        cell = parse_cell(rs.location)
        dx, dy = GRID_MOVES[kind]
        nxt = (cell[0] + dx, cell[1] + dy)
        if not s.site.in_grid(nxt):
            raise ExecError(robot_id, step.step, "bad_move", f"{kind.value} leaves the grid from {rs.location}")
        if nxt in s.site.blocked:
            raise ExecError(robot_id, step.step, "bad_move", f"cell {cell_id(nxt)} is blocked")
        du = 1.0
        rs.location = cell_id(nxt)
        rs.battery -= cost.battery_per_du
        tu = cost.tu_per_du
    elif kind is ActionKind.PICK:
        if rs.location not in world.stock:
            raise ExecError(robot_id, step.step, "bad_pick", f"no stockpile at {rs.location}")
        moved = min(3, spec.payload_capacity - rs.cargo, world.stock[rs.location])
        moved = max(0, moved)
        rs.cargo += moved
        world.stock[rs.location] -= moved
        picked_here = moved
        tu = cost.pick_build_tu_per_3mu if moved > 0 else 0.0
    elif kind is ActionKind.BUILD:
        moved = min(3, rs.cargo)
        rs.cargo -= moved
        if moved > 0:
            world.placed_at[rs.location] = world.placed_at.get(rs.location, 0) + moved
        placed_here = moved
        tu = cost.pick_build_tu_per_3mu if moved > 0 else 0.0
    elif kind is ActionKind.CHARGE:
        if rs.location not in s.site.chargers:
            raise ExecError(robot_id, step.step, "bad_charge", f"no charging station at {rs.location}")
        recharged = spec.battery_max - rs.battery
        rs.battery = spec.battery_max
        tu = cost.recharge_tu
    elif kind is ActionKind.SCAN:
        if s.site.is_grid():
            cell = parse_cell(rs.location)
            world.scanned.add(cell)
            world.discovered |= s.site.scan_footprint(cell, cost.scan_footprint)
        tu = cost.scan_tu_per_su
    elif kind in (ActionKind.IDLE, ActionKind.MARK_LAYOUT, ActionKind.INSPECT, ActionKind.CO_CARRY):
        tu = 1.0
    else:  # pragma: no cover - alphabet is closed
        raise ExecError(robot_id, step.step, "bad_action", f"unsupported action {kind.value}")

    world.elapsed[robot_id] += tu
    return TraceEntry(
        step=step,
        robot=robot_id,
        location=rs.location,
        battery=rs.battery,
        cargo=rs.cargo,
        placed_total=world.placed_total,
        placed_here=placed_here,
        picked_here=picked_here,
        recharged=recharged,
        tu_cost=tu,
        du_cost=du,
        elapsed=world.elapsed[robot_id],
    )


def execute(s: Scenario, plan: Plan) -> Trace:
    """Simulate ``plan`` against ``s``; deterministic.

    Multi-robot plans are replayed in per-robot elapsed-time order so that
    shared stockpiles decrement consistently.  Each plan label is bound to
    a robot id once; unlabelled steps belong to the scenario's sole robot.
    On an impossible transition the partial Trace is returned with
    ``error`` set.
    """
    world = _initial_state(s)
    entries: list[TraceEntry] = []
    try:
        bound = {label: s.sole_robot().id if label is None else label for label in plan.robots}
    except ValueError as e:
        first = plan.steps[0].step if plan.steps else 0
        err = ExecError(None, first, "bad_action", str(e))
        return Trace(entries=(), final=world, error=err)
    # Merge the per-robot step streams by (elapsed time so far, robot id).
    streams = {robot: list(plan.steps_for(robot)) for robot in plan.robots}
    error: ExecError | None = None
    while any(streams.values()) and error is None:
        ready = [r for r, steps in streams.items() if steps]
        robot = min(ready, key=lambda r: (world.elapsed.get(bound[r], 0.0), str(r)))
        step = streams[robot].pop(0)
        try:
            entries.append(_apply(s, world, step, bound[robot]))
        except ExecError as e:
            error = e
    return Trace(entries=tuple(entries), final=world, error=error)


def makespan(trace: Trace) -> float:
    """Total elapsed TU; the max over robots for multi-robot plans."""
    if not trace.final.elapsed:
        return 0.0
    return max(trace.final.elapsed.values())


def coverage_complete(s: Scenario, trace: Trace) -> tuple[bool, frozenset[Cell]]:
    """Whether every traversable grid cell was discovered; returns the gap."""
    if not s.site.is_grid():
        return True, frozenset()
    missing = s.site.traversable_cells() - trace.final.discovered
    return (not missing), frozenset(missing)
