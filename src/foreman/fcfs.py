"""First-come-first-served rule-based scheduler, the deterministic baseline.

FCFS walks the precedence DAG in topological order (declaration order among
ready tasks), assigns each task to the lowest-id robot whose skills cover
it, and lowers the assignment to a sequential plan with shortest-path
connecting moves.  It is intentionally blind: no coalitions, no battery or
coverage reasoning, no post-hoc edits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plan import Action, ActionKind, GRID_MOVES, MOVE_TARGETS, Plan, PlanStep
from .scenario import Scenario, TaskSpec, parse_cell


class UnassignableTask(ValueError):
    def __init__(self, task_id: str):
        super().__init__(f"no single robot covers the skills of task {task_id!r}")
        self.task_id = task_id


class RealizationError(ValueError):
    """An assigned task cannot be lowered to executable plan steps."""


@dataclass(frozen=True)
class Assignment:
    alpha: tuple[tuple[str, tuple[str, ...]], ...]  # task id -> robot ids
    theta: tuple[tuple[str, float], ...]  # task id -> start TU

    def start_of(self, task_id: str) -> float:
        return dict(self.theta)[task_id]

    def to_dict(self) -> dict:
        return {
            "alpha": {t: list(r) for t, r in self.alpha},
            "theta": {t: s for t, s in self.theta},
        }


_MOVE_FOR_NODE = {node: kind for kind, node in MOVE_TARGETS.items()}
_MOVE_FOR_STEP = {step: kind for kind, step in GRID_MOVES.items()}


class _Lowering:
    """Sequential lowering of FCFS task assignments to plan steps."""

    def __init__(self, s: Scenario):
        self.s = s
        self.loc = {r.id: r.start_location for r in s.robots}
        self.cargo = {r.id: r.cargo_init for r in s.robots}
        self.stock = s.stock()
        self.elapsed = 0.0
        self.templates: list[tuple[str, Action]] = []

    def _emit(self, robot: str, action: Action, tu: float):
        self.templates.append((robot, action))
        self.elapsed += tu

    def travel(self, robot: str, target: str):
        """One move step per hop of the site's shortest route."""
        s = self.s
        here = self.loc[robot]
        hops = s.site.route(here, target)
        if hops is None:
            raise RealizationError(f"{target} unreachable from {here}")
        for loc, du in hops:
            if s.site.is_grid():
                (x0, y0), (x1, y1) = parse_cell(here), parse_cell(loc)
                action = Action(_MOVE_FOR_STEP[(x1 - x0, y1 - y0)])
            else:
                kind = _MOVE_FOR_NODE.get(loc)
                action = Action(kind) if kind else Action(ActionKind.NAVIGATE, loc)
            self._emit(robot, action, s.cost.tu_per_du * du)
            here = loc
        self.loc[robot] = here

    def nearest_stock(self, robot: str) -> str:
        reachable = []
        for loc, mu in self.stock.items():
            if mu > 0 and (du := self.s.site.shortest_path_du(self.loc[robot], loc)) is not None:
                reachable.append((du, loc))
        if not reachable:
            raise RealizationError("no stock left anywhere")
        return min(reachable)[1]

    def run_task(self, robot: str, task: TaskSpec) -> float:
        """Lower one task; returns its start time theta (first arrival at the site)."""
        s = self.s
        theta: float | None = None
        if task.type is ActionKind.BUILD:
            remaining = task.demand
            while remaining > 0:
                if self.cargo[robot] == 0:
                    stock_loc = self.nearest_stock(robot)
                    self.travel(robot, stock_loc)
                    moved = min(3, s.robot(robot).payload_capacity, self.stock[stock_loc])
                    self.stock[stock_loc] -= moved
                    self.cargo[robot] += moved
                    self._emit(robot, Action(ActionKind.PICK), s.cost.pick_build_tu_per_3mu if moved else 0.0)
                self.travel(robot, task.location)
                if theta is None:
                    theta = self.elapsed
                moved = min(3, self.cargo[robot])
                self.cargo[robot] -= moved
                remaining -= moved
                self._emit(robot, Action(ActionKind.BUILD), s.cost.pick_build_tu_per_3mu if moved else 0.0)
                if moved == 0:
                    raise RealizationError(f"task {task.id}: no material available to build")
        elif task.type is ActionKind.NAVIGATE:
            self.travel(robot, task.location)
            theta = self.elapsed
        elif task.type in (ActionKind.SCAN, ActionKind.INSPECT, ActionKind.MARK_LAYOUT):
            self.travel(robot, task.location)
            theta = self.elapsed
            tu = s.cost.scan_tu_per_su if task.type is ActionKind.SCAN else 1.0
            self._emit(robot, Action(task.type), tu)
        else:
            raise RealizationError(f"task {task.id}: cannot lower task type {task.type.value}")
        return theta if theta is not None else self.elapsed

    def to_plan(self) -> Plan:
        counters: dict[str, int] = {}
        multi = len(self.s.robots) > 1
        steps = []
        for robot, action in self.templates:
            counters[robot] = counters.get(robot, 0) + 1
            steps.append(
                PlanStep(counters[robot], robot if multi else None, "?", action, 0, 0, 0.0)
            )
        from .repair import plan_templates, reconcile_plan

        plan, _ = reconcile_plan(self.s, plan_templates(Plan(tuple(steps))))
        return plan


def fcfs_schedule(s: Scenario) -> tuple[Assignment, Plan]:
    """Schedule tasks FCFS and lower to an executable sequential plan.

    Raises UnassignableTask when no single robot covers a task's skills
    (the baseline never forms coalitions).
    """
    order = s.dag.topological_order([t.id for t in s.tasks])
    if order is None:  # load_scenario guarantees acyclicity; belt and braces
        raise RealizationError("precedence graph has a cycle")
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
    return Assignment(tuple(alpha), tuple(theta)), lowering.to_plan()

