"""First-come-first-served rule-based scheduler, the deterministic baseline.

FCFS walks the precedence DAG in topological order (declaration order among
ready tasks), assigns each task to the lowest-id robot whose skills cover
it, and lowers the assignment to a sequential plan with shortest-path
connecting moves.  It is intentionally blind: no coalitions, no battery or
coverage reasoning, no post-hoc edits.
"""

from __future__ import annotations

from . import record
from .executor import TraceEntry, apply_step, initial_state
from .plan import Action, BUILD, GRID_MOVES, INSPECT, MARK_LAYOUT, MOVE_TARGETS, NAVIGATE, PICK, Plan, PlanStep, SCAN
from .repair import reconcile_plan
from .scenario import Scenario, TaskSpec, parse_cell


class UnassignableTask(ValueError):
    def __init__(self, task_id: str):
        super().__init__(f"no single robot covers the skills of task {task_id!r}")
        self.task_id = task_id


class RealizationError(ValueError):
    """An assigned task cannot be lowered to executable plan steps."""


@record(eq=True, hash=True)
class Assignment:
    alpha: tuple[tuple[str, tuple[str, ...]], ...]  # task id -> robot ids
    theta: tuple[tuple[str, float], ...]  # task id -> start TU

    def to_dict(self) -> dict:
        return {
            "alpha": {t: list(r) for t, r in self.alpha},
            "theta": {t: s for t, s in self.theta},
        }


_MOVE_FOR_NODE = {node: kind for kind, node in MOVE_TARGETS.items()}
_MOVE_FOR_STEP = {step: kind for kind, step in GRID_MOVES.items()}


class _Lowering:
    """Sequential lowering of FCFS task assignments to plan steps.

    Each step runs on one executor world as it is emitted, so location,
    cargo, stock and every cost come from ``apply_step``.  ``clock`` sums
    the emitted steps' TU: robots work in sequence, on one clock.
    """

    def __init__(self, s: Scenario):
        self.s = s
        self.world = initial_state(s)
        self.clock = 0.0
        self.steps: list[PlanStep] = []

    def _emit(self, robot: str, action: Action) -> TraceEntry:
        # single-robot plans leave their steps unlabelled
        step = PlanStep(0, robot if len(self.s.robots) > 1 else None, "?", action, 0, 0, 0.0)
        self.steps.append(step)
        entry = apply_step(self.s, self.world, step, robot)
        self.clock += entry.tu_cost
        return entry

    def travel(self, robot: str, target: str):
        """One move step per hop of the site's shortest route (the loader keeps every site connected)."""
        here = self.world.robots[robot].location
        for loc, _ in self.s.site.route(here, target):
            if self.s.site.is_grid():
                (x0, y0), (x1, y1) = parse_cell(here), parse_cell(loc)
                action = Action(_MOVE_FOR_STEP[(x1 - x0, y1 - y0)])
            else:
                kind = _MOVE_FOR_NODE.get(loc)
                action = Action(kind) if kind else Action(NAVIGATE, loc)
            self._emit(robot, action)
            here = loc

    def nearest_stock(self, robot: str) -> str:
        """The closest stockpile with material left (the loader keeps every stockpile reachable)."""
        here = self.world.robots[robot].location
        stocked = [(self.s.site.shortest_path_du(here, loc), loc) for loc, mu in self.world.stock.items() if mu > 0]
        if not stocked:
            raise RealizationError("no stock left anywhere")
        return min(stocked)[1]

    def run_task(self, robot: str, task: TaskSpec) -> float:
        """Lower one task; returns its start time theta (first arrival at the site)."""
        theta: float | None = None
        if task.type is BUILD:
            remaining = task.demand
            while remaining > 0:
                if self.world.robots[robot].cargo == 0:
                    self.travel(robot, self.nearest_stock(robot))
                    self._emit(robot, Action(PICK))
                self.travel(robot, task.location)
                if theta is None:
                    theta = self.clock
                placed = self._emit(robot, Action(BUILD)).placed_here
                if placed == 0:
                    raise RealizationError(f"task {task.id}: no material available to build")
                remaining -= placed
        elif task.type is NAVIGATE:
            self.travel(robot, task.location)
            theta = self.clock
        elif task.type in (SCAN, INSPECT, MARK_LAYOUT):
            self.travel(robot, task.location)
            theta = self.clock
            self._emit(robot, Action(task.type))
        else:
            raise RealizationError(f"task {task.id}: cannot lower task type {task.type.value}")
        return theta if theta is not None else self.clock


def fcfs_schedule(s: Scenario) -> tuple[Assignment, Plan]:
    """Schedule tasks FCFS and lower to an executable sequential plan.

    Raises UnassignableTask when no single robot covers a task's skills
    (the baseline never forms coalitions).
    """
    order = s.dag.topological_order([t.id for t in s.tasks])  # not None: the loader rejects a cycle
    by_id = {t.id: t for t in s.tasks}
    lowering = _Lowering(s)
    alpha = []
    theta = []
    for task_id in order:
        task = by_id[task_id]
        capable = [r for r in sorted(s.robots, key=lambda r: r.id) if task.required_skills <= r.skills]
        if not capable:
            raise UnassignableTask(task_id)
        robot = capable[0].id  # sequential execution: every robot is idle, lowest id wins
        alpha.append((task_id, (robot,)))
        theta.append((task_id, lowering.run_task(robot, task)))
    plan, _ = reconcile_plan(s, lowering.steps)  # numbers the steps, fills the state columns
    return Assignment(tuple(alpha), tuple(theta)), plan

