"""Deterministic plan simulator: the executable semantics behind validation.

``execute`` replays a Plan against a Scenario and records the true state
trajectory (position, battery, cargo, placed bricks, scan coverage,
elapsed time).  Battery is recorded raw: negative values are kept, never
clamped, so the validator can observe energy violations.  Only physically
impossible transitions (moving along a nonexistent edge, charging away
from a charger, picking at a non-stock location) halt execution.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from . import record
from .plan import BUILD, CHARGE, GRID_MOVES, MOVE_TARGETS, NAVIGATE, PICK, Plan, PlanStep, SCAN
from .scenario import Cell, Scenario, cell_id, parse_cell


class ExecError(Exception):
    """An impossible transition at a specific step."""

    def __init__(self, robot: str | None, step: int, kind: str, reason: str):
        super().__init__(f"step {step} ({robot or 'robot'}): {reason}")
        self.robot = robot
        self.step = step
        self.kind = kind  # "bad_move" | "bad_charge" | "bad_pick" | "bad_action"
        self.reason = reason


@record(eq=True)
class RobotState:
    location: str
    battery: float
    cargo: int


@record(eq=True)
class WorldState:
    """Mutable simulation state; snapshots of it appear in the Trace."""

    robots: dict[str, RobotState]
    stock: dict[str, int]
    placed_at: dict[str, int]
    scanned: set[Cell]
    discovered: set[Cell]
    elapsed: dict[str, float]
    placed_total: int  # running sum of placed_at

    def copy(self) -> WorldState:
        """An independent snapshot; later steps on either leave the other alone."""
        robots = {}
        for r, rs in self.robots.items():  # a loop: a comprehension is a call of its own before 3.12
            robots[r] = RobotState(rs.location, rs.battery, rs.cargo)
        return WorldState(
            robots,
            self.stock.copy(),
            self.placed_at.copy(),
            self.scanned.copy(),
            self.discovered.copy(),
            self.elapsed.copy(),
            self.placed_total,
        )


@record(eq=True)
class TraceEntry:
    """One executed step with its post-state and costs; read-only by convention."""

    step: PlanStep
    robot: str
    location: str
    battery: float
    cargo: int
    placed_total: int
    placed_here: int  # bricks placed by this step (0 unless BUILD)
    tu_cost: float
    du_cost: float


@record(eq=True)
class Trace:
    entries: tuple[TraceEntry, ...]
    final: WorldState
    error: ExecError | None = None

    def __len__(self) -> int:
        return len(self.entries)


def initial_state(s: Scenario) -> WorldState:
    return WorldState(
        {r.id: RobotState(r.start_location, r.battery_init, r.cargo_init) for r in s.robots},
        s.stock(),
        {},
        set(),
        set(),
        {r.id: 0.0 for r in s.robots},
        0,
    )


def apply_step(s: Scenario, world: WorldState, step: PlanStep, robot_id: str) -> TraceEntry:
    """Apply one step by ``robot_id`` to ``world`` in place; raises ExecError
    on an impossible transition."""
    if robot_id not in world.robots:
        raise ExecError(robot_id, step.step, "bad_action", f"unknown robot {robot_id!r}")
    for member in step.coalition:
        if member not in world.robots:
            raise ExecError(robot_id, step.step, "bad_action", f"unknown robot {member!r}")
    rs = world.robots[robot_id]
    cost = s.cost
    kind = step.action.kind
    du = 0.0
    tu = 0.0
    placed_here = 0

    if kind in MOVE_TARGETS or kind is NAVIGATE:
        target = step.action.target if kind is NAVIGATE else MOVE_TARGETS[kind]
        if s.site.is_grid():
            raise ExecError(robot_id, step.step, "bad_move", f"{kind.value} is not a grid move")
        if target == rs.location:
            raise ExecError(robot_id, step.step, "bad_move", f"already at {target}")
        if kind is NAVIGATE:
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
    elif kind is PICK:
        if rs.location not in world.stock:
            raise ExecError(robot_id, step.step, "bad_pick", f"no stockpile at {rs.location}")
        moved = min(3, s.robot(robot_id).payload_capacity - rs.cargo, world.stock[rs.location])
        rs.cargo += moved
        world.stock[rs.location] -= moved
        tu = cost.pick_build_tu_per_3mu if moved > 0 else 0.0
    elif kind is BUILD:
        moved = min(3, rs.cargo)
        rs.cargo -= moved
        if moved > 0:
            world.placed_at[rs.location] = world.placed_at.get(rs.location, 0) + moved
            world.placed_total += moved
        placed_here = moved
        tu = cost.pick_build_tu_per_3mu if moved > 0 else 0.0
    elif kind is CHARGE:
        if rs.location not in s.site.chargers:
            raise ExecError(robot_id, step.step, "bad_charge", f"no charging station at {rs.location}")
        rs.battery = s.robot(robot_id).battery_max
        tu = cost.recharge_tu
    elif kind is SCAN:
        if s.site.is_grid():
            cell = parse_cell(rs.location)
            world.scanned.add(cell)
            world.discovered |= s.site.scan_footprint(cell, cost.scan_footprint)
        tu = cost.scan_tu_per_su
    else:  # IDLE, MARK_LAYOUT, INSPECT and CO_CARRY: the alphabet is closed
        tu = 1.0

    world.elapsed[robot_id] += tu
    return TraceEntry(step, robot_id, rs.location, rs.battery, rs.cargo, world.placed_total, placed_here, tu, du)


def bind(s: Scenario, labels: Iterable[str | None]) -> dict[str | None, str]:
    """Bind each plan label to the robot id it drives.

    Unlabelled steps belong to the scenario's sole robot; raises
    ValueError when there is more than one.
    """
    return {label: s.sole_robot().id if label is None else label for label in labels}


def execute(s: Scenario, plan: Plan) -> Trace:
    """Simulate ``plan`` against ``s``; deterministic.

    Each plan label is bound to a robot id once, and each robot's steps
    keep their line order.  While two or more robots have steps left they
    take turns by (elapsed time so far, robot id), so shared stockpiles
    decrement consistently; then the last robot's steps run in line order.
    So when every label binds to one robot, execution order is line order,
    and that robot runs the plan's own step tuple: nothing is queued.
    On an impossible transition the partial Trace is returned with
    ``error`` set.  That ExecError carries no traceback: its frames would
    reach the caller's, which keeps the Trace, and leave a reference cycle
    per rejected plan for the garbage collector.
    """
    world = initial_state(s)
    steps = plan.steps
    try:
        bound = bind(s, {step.robot for step in steps})
    except ValueError as e:  # an unlabelled step, so there is a first step
        return Trace(entries=(), final=world, error=ExecError(None, steps[0].step, "bad_action", str(e)))
    robots = set(bound.values())
    # robot -> the steps it has left, in line order
    queues: dict[str, deque[PlanStep] | tuple[PlanStep, ...]] = {}
    if len(robots) == 1:
        queues[robots.pop()] = steps
    else:
        for step in steps:
            queues.setdefault(bound[step.robot], deque()).append(step)
    elapsed = world.elapsed
    entries: list[TraceEntry] = []
    try:
        while len(queues) > 1:
            robot = min(queues, key=lambda r: (elapsed.get(r, 0.0), r))
            queue = queues[robot]
            step = queue.popleft()
            if not queue:
                del queues[robot]
            entries.append(apply_step(s, world, step, robot))
        for robot, queue in queues.items():
            for step in queue:
                entries.append(apply_step(s, world, step, robot))
    except ExecError as e:
        return Trace(tuple(entries), world, e.with_traceback(None))
    return Trace(tuple(entries), world)


def makespan(trace: Trace) -> float:
    """Total elapsed TU; the max over robots for multi-robot plans."""
    return max(trace.final.elapsed.values(), default=0.0)
