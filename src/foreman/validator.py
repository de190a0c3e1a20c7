"""Typed constraint checking over executed plans.

``validate`` replays a plan through the executor and runs the enabled
check classes against the ground-truth trajectory, never against the
plan's claimed state columns.  Each violation carries an actionable fix
hint; the invalidity score counts violated *classes*, not individual
violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .executor import Trace, coverage_complete, execute
from .plan import ActionKind, Plan, SchemaError, parse_plan
from .scenario import Scenario, cell_id


class ViolationClass(Enum):
    Precedence = "precedence"
    Capability = "capability"
    Capacity = "capacity"
    Battery = "battery"
    Safety = "safety"
    Schema = "schema"
    Coverage = "coverage"


ALL_CHECKS = frozenset(ViolationClass)

# The invalidity score counts over the classic five-class vector
# (precedence, capability, capacity, battery, safety); Coverage folds
# into Safety for that count.
_PSI_GROUPING = {ViolationClass.Coverage: ViolationClass.Safety}


class HintKind(Enum):
    InsertBefore = "insert_before"
    InsertAfter = "insert_after"
    Substitute = "substitute"
    SwapAdjacent = "swap_adjacent"
    ReassignRobot = "reassign_robot"


@dataclass(frozen=True)
class FixHint:
    kind: HintKind
    anchor_step: int
    suggested_action: ActionKind | None = None

    def render(self) -> str:
        what = f" {self.suggested_action.value}" if self.suggested_action else ""
        return f"{self.kind.value}{what} @ step {self.anchor_step}"


@dataclass(frozen=True)
class Violation:
    cls: ViolationClass
    step: int | None
    detail: str
    hint: FixHint | None = None

    def render(self) -> str:
        where = f"step {self.step}" if self.step is not None else "plan"
        line = f"[{self.cls.value}] {where}: {self.detail}"
        if self.hint:
            line += f" (suggest: {self.hint.render()})"
        return line


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple[Violation, ...]
    checks_run: frozenset[ViolationClass]
    checks_completed: bool
    psi: int
    feasible: bool

    def by_class(self, cls: ViolationClass) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.cls == cls)

    def classes(self) -> frozenset[ViolationClass]:
        return frozenset(v.cls for v in self.violations)

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "psi": self.psi,
            "checks_run": sorted(c.value for c in self.checks_run),
            "checks_completed": self.checks_completed,
            "violations": [
                {
                    "class": v.cls.value,
                    "step": v.step,
                    "detail": v.detail,
                    "hint": v.hint.render() if v.hint else None,
                }
                for v in self.violations
            ],
        }


def _make_report(
    violations: list[Violation], checks: frozenset[ViolationClass], completed: bool
) -> ViolationReport:
    psi = len({_PSI_GROUPING.get(v.cls, v.cls) for v in violations})
    return ViolationReport(
        violations=tuple(violations),
        checks_run=checks,
        checks_completed=completed,
        psi=psi,
        feasible=(psi == 0 and completed),
    )


# ---------------------------------------------------------------------------
# Task completion events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompletionEvent:
    task_id: str
    order: int  # global position in the trace
    step: int


def completion_events(s: Scenario, trace: Trace) -> tuple[list[CompletionEvent], list[str]]:
    """Derive task completions from the trace.

    Plans carry no task ids, so completions are matched by task type and
    location: the k-th productive BUILD at a wall location completes the
    k-th build task there once its cumulative demand is met; navigation
    tasks complete on first arrival; SCAN/INSPECT/MARK_LAYOUT tasks on the
    first matching action at their location.  Returns (events, incomplete).
    """
    events: list[CompletionEvent] = []
    done: set[str] = set()
    build_tasks: dict[str, list] = {}
    order = [t.id for t in s.tasks]
    for t in s.tasks:
        if t.type is ActionKind.BUILD:
            build_tasks.setdefault(t.location, []).append(t)
    placed_cum: dict[str, int] = {}

    for i, e in enumerate(trace.entries):
        kind = e.step.action.kind
        if kind is ActionKind.BUILD and e.placed_here > 0:
            loc = e.location
            placed_cum[loc] = placed_cum.get(loc, 0) + e.placed_here
            threshold = 0
            for t in build_tasks.get(loc, []):
                threshold += t.demand
                if t.id not in done and placed_cum[loc] >= threshold:
                    done.add(t.id)
                    events.append(CompletionEvent(t.id, i, e.step.step))
        elif kind in (ActionKind.SCAN, ActionKind.INSPECT, ActionKind.MARK_LAYOUT):
            for t in s.tasks:
                if t.id not in done and t.type is kind and t.location == e.location:
                    done.add(t.id)
                    events.append(CompletionEvent(t.id, i, e.step.step))
                    break
        if kind is not ActionKind.BUILD:
            # navigation-style tasks complete on arrival
            for t in s.tasks:
                if t.id not in done and t.type is ActionKind.NAVIGATE and t.location == e.location:
                    done.add(t.id)
                    events.append(CompletionEvent(t.id, i, e.step.step))

    incomplete = [t for t in order if t not in done]
    return events, incomplete


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _check_precedence(s: Scenario, trace: Trace) -> list[Violation]:
    out = []
    events, incomplete = completion_events(s, trace)
    last_step = trace.entries[-1].step.step if trace.entries else 0
    for task_id in incomplete:
        task = next(t for t in s.tasks if t.id == task_id)
        out.append(
            Violation(
                ViolationClass.Precedence,
                None,
                f"task {task_id} ({task.type.value} at {task.location}) never completes",
                FixHint(HintKind.InsertAfter, last_step, task.type),
            )
        )
    pos = {e.task_id: e.order for e in events}
    for a, b in sorted(s.dag.edges):
        if a in pos and b in pos and pos[a] > pos[b]:
            step_b = next(e.step for e in events if e.task_id == b)
            out.append(
                Violation(
                    ViolationClass.Precedence,
                    step_b,
                    f"task {b} completes before its prerequisite {a}",
                    FixHint(HintKind.SwapAdjacent, step_b),
                )
            )
    return out


def _check_capability(s: Scenario, trace: Trace) -> list[Violation]:
    out = []
    for e in trace.entries:
        kind = e.step.action.kind
        if kind is ActionKind.IDLE:
            continue
        if e.step.coalition:
            skills = frozenset().union(*(s.robot(r).skills for r in e.step.coalition))
        else:
            skills = s.robot(e.robot).skills
        if kind not in skills:
            out.append(
                Violation(
                    ViolationClass.Capability,
                    e.step.step,
                    f"{e.robot} lacks skill {kind.value}",
                    FixHint(HintKind.ReassignRobot, e.step.step),
                )
            )
    return out


def _check_capacity(s: Scenario, trace: Trace) -> list[Violation]:
    out = []
    demand_at: dict[str, int] = {}
    for t in s.tasks:
        if t.type is ActionKind.BUILD:
            demand_at[t.location] = demand_at.get(t.location, 0) + t.demand
    placed_cum: dict[str, int] = {}
    for e in trace.entries:
        cap = s.robot(e.robot).payload_capacity
        if e.cargo > cap:
            out.append(
                Violation(
                    ViolationClass.Capacity,
                    e.step.step,
                    f"cargo {e.cargo} MU exceeds capacity {cap}",
                    FixHint(HintKind.Substitute, e.step.step, ActionKind.IDLE),
                )
            )
        if e.placed_here > 0:
            loc = e.location
            placed_cum[loc] = placed_cum.get(loc, 0) + e.placed_here
            if loc not in demand_at:
                out.append(
                    Violation(
                        ViolationClass.Capacity,
                        e.step.step,
                        f"BUILD places {e.placed_here} MU at {loc}, which has no build task",
                        FixHint(HintKind.Substitute, e.step.step, ActionKind.IDLE),
                    )
                )
            elif placed_cum[loc] > demand_at[loc]:
                out.append(
                    Violation(
                        ViolationClass.Capacity,
                        e.step.step,
                        f"placed {placed_cum[loc]} MU at {loc} exceeds demand {demand_at[loc]}",
                        FixHint(HintKind.Substitute, e.step.step, ActionKind.IDLE),
                    )
                )
    return out


def _check_battery(s: Scenario, trace: Trace) -> list[Violation]:
    out = []
    for e in trace.entries:
        if e.battery < 0:
            out.append(
                Violation(
                    ViolationClass.Battery,
                    e.step.step,
                    f"battery at {_fmt(e.battery)}% after {e.step.action}",
                    FixHint(HintKind.InsertBefore, e.step.step, ActionKind.CHARGE),
                )
            )
        if e.step.action.kind is ActionKind.CHARGE and e.location not in s.site.chargers:
            out.append(
                Violation(
                    ViolationClass.Battery,
                    e.step.step,
                    f"CHARGE at {e.location}, which has no charging station",
                    FixHint(HintKind.Substitute, e.step.step, ActionKind.IDLE),
                )
            )
    return out


def _check_safety(s: Scenario, trace: Trace) -> list[Violation]:
    out = []
    for e in trace.entries:
        if e.location in s.site.no_go:
            out.append(
                Violation(
                    ViolationClass.Safety,
                    e.step.step,
                    f"step enters no-go zone {e.location}",
                    FixHint(HintKind.Substitute, e.step.step, ActionKind.IDLE),
                )
            )
    return out


def _check_coverage(s: Scenario, trace: Trace) -> list[Violation]:
    if not s.site.is_grid():
        return []
    complete, missing = coverage_complete(s, trace)
    if complete:
        return []
    last_step = trace.entries[-1].step.step if trace.entries else 0
    cells = ", ".join(cell_id(c) for c in sorted(missing))
    return [
        Violation(
            ViolationClass.Coverage,
            None,
            f"cells never discovered: {cells}",
            FixHint(HintKind.InsertAfter, last_step, ActionKind.SCAN),
        )
    ]


# A misplaced CHARGE is the battery constraint itself; an impossible move
# or pick is a command that doesn't conform to the API for this site.
_EXEC_ERROR_CLASS = {
    "bad_move": ViolationClass.Schema,
    "bad_charge": ViolationClass.Battery,
    "bad_pick": ViolationClass.Capacity,
    "bad_action": ViolationClass.Schema,
}

# In report order: validate runs the enabled checks in this order.
_CHECKS = {
    ViolationClass.Precedence: _check_precedence,
    ViolationClass.Capability: _check_capability,
    ViolationClass.Capacity: _check_capacity,
    ViolationClass.Battery: _check_battery,
    ViolationClass.Safety: _check_safety,
    ViolationClass.Coverage: _check_coverage,
}


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else f"{x:g}"


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def validate(
    s: Scenario,
    plan: Plan,
    checks: frozenset[ViolationClass] | set[ViolationClass] = ALL_CHECKS,
    *,
    trace: Trace | None = None,
) -> ViolationReport:
    """Run the enabled check classes against the executed plan.

    Never raises for plan defects: an unexecutable plan yields a violation
    wrapping the execution error, and the report is marked incomplete
    (hence infeasible) because the checks could not run over a full trace.
    """
    checks = frozenset(checks)
    if trace is None:
        trace = execute(s, plan)
    violations: list[Violation] = []
    if trace.error is not None:
        err = trace.error
        violations.append(
            Violation(
                _EXEC_ERROR_CLASS[err.kind],
                err.step,
                f"unexecutable: {err.reason}",
                FixHint(HintKind.Substitute, err.step, ActionKind.IDLE),
            )
        )
    else:
        for cls, check in _CHECKS.items():
            if cls in checks:
                violations.extend(check(s, trace))
    return _make_report(violations, checks, trace.error is None)


def validate_text(
    s: Scenario,
    text: str,
    checks: frozenset[ViolationClass] | set[ViolationClass] = ALL_CHECKS,
) -> ViolationReport:
    """Validate raw plan text; schema failures short-circuit deeper checks."""
    try:
        plan = parse_plan(text)
    except SchemaError as e:
        v = Violation(ViolationClass.Schema, e.line, e.reason, None)
        return _make_report([v], frozenset(checks), False)
    return validate(s, plan, checks)


def parse_check_names(names: str) -> frozenset[ViolationClass]:
    """Parse a comma list like ``battery,coverage`` (for the CLI ablation flag)."""
    wanted = set()
    for raw in names.split(","):
        raw = raw.strip().lower()
        if not raw:
            continue
        if raw == "all":
            return ALL_CHECKS
        try:
            wanted.add(ViolationClass(raw))
        except ValueError:
            valid = ", ".join(c.value for c in ViolationClass)
            raise ValueError(f"unknown check class {raw!r} (valid: {valid})") from None
    return frozenset(wanted)
