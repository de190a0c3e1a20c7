"""Typed constraint checking over executed plans.

``validate`` replays a plan through the executor and checks the
ground-truth trajectory, never the plan's claimed state columns.  Every
check class runs in one walk over the trace, which also records task
completions; the report keeps the enabled classes.  Each violation
carries an actionable fix hint; the invalidity score counts violated
*classes*, not individual violations.

Plans carry no task ids, so completions are matched by task type and
location: the k-th productive BUILD at a wall location completes the
k-th build task there once its cumulative demand is met; navigation
tasks complete on first arrival; SCAN/INSPECT/MARK_LAYOUT tasks on the
first matching action at their location.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .executor import Trace, coverage_complete, execute
from .plan import ActionKind, Plan, SchemaError, parse_plan
from .scenario import Scenario, TaskSpec, cell_id


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


# The order of the check classes in a report.
_REPORT_ORDER = (
    ViolationClass.Precedence,
    ViolationClass.Capability,
    ViolationClass.Capacity,
    ViolationClass.Battery,
    ViolationClass.Safety,
    ViolationClass.Coverage,
)

# Task types completed by the first such action at their location.
_DONE_AT_SITE = frozenset({ActionKind.SCAN, ActionKind.INSPECT, ActionKind.MARK_LAYOUT})

# A misplaced CHARGE is the battery constraint itself; an impossible move
# or pick is a command that doesn't conform to the API for this site.
_EXEC_ERROR_CLASS = {
    "bad_move": ViolationClass.Schema,
    "bad_charge": ViolationClass.Battery,
    "bad_pick": ViolationClass.Capacity,
    "bad_action": ViolationClass.Schema,
}


# ---------------------------------------------------------------------------
# The checks: one walk over the trace
# ---------------------------------------------------------------------------


def _walk(s: Scenario, trace: Trace) -> dict[ViolationClass, list[Violation]]:
    """Every check class's violations over a complete ``trace``, in one walk."""
    VC = ViolationClass
    found: dict[ViolationClass, list[Violation]] = {cls: [] for cls in _REPORT_ORDER}

    def add(cls: ViolationClass, step: int | None, detail: str, hint: FixHint) -> None:
        found[cls].append(Violation(cls, step, detail, hint))

    tasks_at: dict[tuple[ActionKind, str], list[TaskSpec]] = {}
    for t in s.tasks:
        tasks_at.setdefault((t.type, t.location), []).append(t)
    demand_at = {
        loc: sum(t.demand for t in ts) for (kind, loc), ts in tasks_at.items() if kind is ActionKind.BUILD
    }
    robots = {r.id: r for r in s.robots}
    placed_at: dict[str, int] = {}
    done: dict[str, tuple[int, int]] = {}  # task id -> (trace index, step number)

    for i, e in enumerate(trace.entries):
        step, kind, loc, robot = e.step.step, e.step.action.kind, e.location, robots[e.robot]
        if kind is not ActionKind.IDLE:
            if e.step.coalition:
                skills = frozenset().union(*(robots[r].skills for r in e.step.coalition))
            else:
                skills = robot.skills
            if kind not in skills:
                add(VC.Capability, step, f"{e.robot} lacks skill {kind.value}",
                    FixHint(HintKind.ReassignRobot, step))
        if e.placed_here > 0:
            placed = placed_at[loc] = placed_at.get(loc, 0) + e.placed_here
            threshold = 0
            for t in tasks_at.get((ActionKind.BUILD, loc), ()):
                threshold += t.demand
                if t.id not in done and placed >= threshold:
                    done[t.id] = (i, step)
            if loc not in demand_at:
                add(VC.Capacity, step, f"BUILD places {e.placed_here} MU at {loc}, which has no build task",
                    FixHint(HintKind.Substitute, step, ActionKind.IDLE))
            elif placed > demand_at[loc]:
                add(VC.Capacity, step, f"placed {placed} MU at {loc} exceeds demand {demand_at[loc]}",
                    FixHint(HintKind.Substitute, step, ActionKind.IDLE))
        elif kind in _DONE_AT_SITE:
            for t in tasks_at.get((kind, loc), ()):
                if t.id not in done:
                    done[t.id] = (i, step)
                    break
        if kind is not ActionKind.BUILD:
            for t in tasks_at.get((ActionKind.NAVIGATE, loc), ()):
                done.setdefault(t.id, (i, step))
        if e.battery < 0:
            add(VC.Battery, step, f"battery at {_fmt(e.battery)}% after {e.step.action}",
                FixHint(HintKind.InsertBefore, step, ActionKind.CHARGE))
        if loc in s.site.no_go:
            add(VC.Safety, step, f"step enters no-go zone {loc}",
                FixHint(HintKind.Substitute, step, ActionKind.IDLE))

    last_step = trace.entries[-1].step.step if trace.entries else 0
    for t in s.tasks:
        if t.id not in done:
            add(VC.Precedence, None, f"task {t.id} ({t.type.value} at {t.location}) never completes",
                FixHint(HintKind.InsertAfter, last_step, t.type))
    for a, b in sorted(s.dag.edges):
        if a in done and b in done and done[a][0] > done[b][0]:
            step_b = done[b][1]
            add(VC.Precedence, step_b, f"task {b} completes before its prerequisite {a}",
                FixHint(HintKind.SwapAdjacent, step_b))
    complete, missing = coverage_complete(s, trace)
    if not complete:
        cells = ", ".join(cell_id(c) for c in sorted(missing))
        add(VC.Coverage, None, f"cells never discovered: {cells}",
            FixHint(HintKind.InsertAfter, last_step, ActionKind.SCAN))
    return found


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
        violations = [v for cls, vs in _walk(s, trace).items() if cls in checks for v in vs]
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
