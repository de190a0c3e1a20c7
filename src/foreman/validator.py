"""Typed constraint checking over executed plans.

``validate`` replays a plan through the executor and checks the
ground-truth trajectory, never the plan's claimed state columns.  The
enabled check classes form one ``Monitor``, which ``validate`` folds over
the trace: ``step`` per entry, which also records task completions, then
``final``.  The repair search runs the same monitor step by step as it
walks its candidates.  Each violation carries an actionable fix hint; the
invalidity score counts violated *classes*, not individual violations.

Plans carry no task ids, so completions are matched by task type and
location: the k-th productive BUILD at a wall location completes the
k-th build task there once its cumulative demand is met; navigation
tasks complete on first arrival; SCAN/INSPECT/MARK_LAYOUT tasks on the
first matching action at their location.
"""

from __future__ import annotations

from enum import Enum

from . import record
from .executor import Trace, TraceEntry, WorldState, execute
from .plan import ActionKind, BUILD, CHARGE, IDLE, NAVIGATE, Plan, SCAN, SchemaError, parse_plan
from .scenario import Scenario, TaskSpec, cell_id


class ViolationClass(Enum):
    Precedence = "precedence"
    Capability = "capability"
    Capacity = "capacity"
    Battery = "battery"
    Safety = "safety"
    Schema = "schema"
    Coverage = "coverage"

    # Identity hashing runs in C (see ActionKind); sets of classes are
    # sorted before they reach any output.
    __hash__ = object.__hash__


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


@record(eq=True, hash=True)
class FixHint:
    kind: HintKind
    anchor_step: int
    suggested_action: ActionKind | None = None

    def render(self) -> str:
        what = f" {self.suggested_action.value}" if self.suggested_action else ""
        return f"{self.kind.value}{what} @ step {self.anchor_step}"


@record(eq=True, hash=True)
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


@record(eq=True, hash=True)
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


# A report lists its violations by class, in declaration order.  A Schema
# violation is never sorted: an unexecutable plan reports it alone.
_RANK = {cls: i for i, cls in enumerate(ViolationClass)}

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
# The checks: a monitor folded over the trace
# ---------------------------------------------------------------------------


@record()
class CheckState:
    """What the checks carry from one executed step to the next."""

    placed_at: dict[str, int]
    done: dict[str, tuple[int, int]]  # task id -> (trace index, step number)
    index: int = 0  # trace entries seen
    last_step: int = 0  # step number of the last entry seen
    doomed: bool = False  # a task completed before a prerequisite

    def copy(self) -> CheckState:
        return CheckState(dict(self.placed_at), dict(self.done), self.index, self.last_step, self.doomed)


class Monitor:
    """The enabled check classes of one scenario, as a fold over executed steps.

    ``step`` takes the next trace entry, updates the carried ``CheckState``
    and returns that step's Capability, Capacity, Battery and Safety
    violations; ``final`` returns the "never completes" and precedence-order
    violations and Coverage once the trace has ended.  A step violation is
    irrevocable: the placed counts and the done map only grow, and the trace
    is never revisited.  So is a task completing before one of its
    prerequisites: that prerequisite either completes later (an order
    violation) or never does, so ``step`` marks the state ``doomed``.  Only
    classes in ``checks`` are tracked or reported.

    A monitor holds only tables derived from the scenario and ``checks``
    and never changes them: a run keeps all of its state in its own
    ``CheckState``.  So ``Monitor.of`` builds one monitor per scenario and
    check set, and every run under them shares it.
    """

    def __init__(self, s: Scenario, checks: frozenset[ViolationClass]):
        VC = ViolationClass
        self.s = s
        self.capability = VC.Capability in checks
        self.capacity = VC.Capacity in checks
        self.battery = VC.Battery in checks
        self.safety = VC.Safety in checks
        self.precedence = VC.Precedence in checks
        self.cells = s.site.traversable_cells() if VC.Coverage in checks and s.site.is_grid() else None
        self.tasks_at: dict[tuple[ActionKind, str], list[TaskSpec]] = {}
        for t in s.tasks:
            self.tasks_at.setdefault((t.type, t.location), []).append(t)
        # by location, the tables that ``step`` reads for every entry
        self.builds_at = {loc: ts for (kind, loc), ts in self.tasks_at.items() if kind is BUILD}
        self.arrivals_at = {loc: ts for (kind, loc), ts in self.tasks_at.items() if kind is NAVIGATE}
        self.demand_at = {loc: sum(t.demand for t in ts) for loc, ts in self.builds_at.items()}
        self.no_go = s.site.no_go
        self.skills = {r.id: r.skills for r in s.robots}
        self.edges = sorted(s.dag.edges)
        self.prerequisites: dict[str, list[str]] = {}
        for a, b in self.edges:
            self.prerequisites.setdefault(b, []).append(a)

    @classmethod
    def of(cls, s: Scenario, checks: frozenset[ViolationClass]) -> Monitor:
        """The monitor of ``s`` under ``checks``, built on first use."""
        memo = s._monitors
        monitor = memo.get(checks)
        if monitor is None:
            monitor = memo[checks] = cls(s, checks)
        return monitor

    def step(self, state: CheckState, e: TraceEntry) -> list[Violation]:
        """Fold one trace entry into ``state``; the step's violations."""
        VC = ViolationClass
        found: list[Violation] = []
        step, kind, loc = e.step.step, e.step.action.kind, e.location
        i = state.index
        state.index, state.last_step = i + 1, step
        if self.capability and kind is not IDLE:
            if e.step.coalition:
                skills = frozenset().union(*(self.skills[r] for r in e.step.coalition))
            else:
                skills = self.skills[e.robot]
            if kind not in skills:
                found.append(Violation(VC.Capability, step, f"{e.robot} lacks skill {kind.value}",
                                       FixHint(HintKind.ReassignRobot, step)))
        placed_here = e.placed_here
        if placed_here > 0 and (self.capacity or self.precedence):
            placed = state.placed_at[loc] = state.placed_at.get(loc, 0) + placed_here
            demand = self.demand_at.get(loc)
            if self.capacity and demand is None:
                found.append(Violation(
                    VC.Capacity, step, f"BUILD places {placed_here} MU at {loc}, which has no build task",
                    FixHint(HintKind.Substitute, step, IDLE)))
            elif self.capacity and placed > demand:
                found.append(Violation(VC.Capacity, step, f"placed {placed} MU at {loc} exceeds demand {demand}",
                                       FixHint(HintKind.Substitute, step, IDLE)))
        if self.precedence:
            done = state.done
            before = len(done)
            if placed_here > 0:
                threshold = 0
                for t in self.builds_at.get(loc, ()):
                    threshold += t.demand
                    if t.id not in done and placed >= threshold:
                        done[t.id] = (i, step)
            elif kind in _DONE_AT_SITE:
                for t in self.tasks_at.get((kind, loc), ()):
                    if t.id not in done:
                        done[t.id] = (i, step)
                        break
            if kind is not BUILD:
                for t in self.arrivals_at.get(loc, ()):
                    done.setdefault(t.id, (i, step))
            if len(done) > before:  # prerequisites count as done when completed by this same step
                prerequisites = self.prerequisites
                state.doomed = state.doomed or any(
                    a not in done for t in list(done)[before:] for a in prerequisites.get(t, ())
                )
        if self.battery and e.battery < 0:
            found.append(Violation(VC.Battery, step, f"battery at {_fmt(e.battery)}% after {e.step.action}",
                                   FixHint(HintKind.InsertBefore, step, CHARGE)))
        if self.safety and loc in self.no_go:
            found.append(Violation(VC.Safety, step, f"step enters no-go zone {loc}",
                                   FixHint(HintKind.Substitute, step, IDLE)))
        return found

    def final(self, state: CheckState, world: WorldState) -> list[Violation]:
        """The violations decided when the trace ends in ``world``."""
        VC = ViolationClass
        found: list[Violation] = []
        if self.precedence:
            done = state.done
            for t in self.s.tasks:
                if t.id not in done:
                    found.append(Violation(
                        VC.Precedence, None, f"task {t.id} ({t.type.value} at {t.location}) never completes",
                        FixHint(HintKind.InsertAfter, state.last_step, t.type)))
            for a, b in self.edges:
                if a in done and b in done and done[a][0] > done[b][0]:
                    step_b = done[b][1]
                    found.append(Violation(VC.Precedence, step_b, f"task {b} completes before its prerequisite {a}",
                                           FixHint(HintKind.SwapAdjacent, step_b)))
        if self.cells is not None:
            missing = self.cells - world.discovered
            if missing:
                cells = ", ".join(cell_id(c) for c in sorted(missing))
                found.append(Violation(VC.Coverage, None, f"cells never discovered: {cells}",
                                       FixHint(HintKind.InsertAfter, state.last_step, SCAN)))
        return found

    def key(self, state: CheckState) -> frozenset[str]:
        """What of ``state`` can still change a verdict: the tasks done.

        The placed counts equal the world's ``placed_at`` when one robot
        runs every step, and a walk prunes a doomed state before keying it.
        """
        return frozenset(state.done)


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
                FixHint(HintKind.Substitute, err.step, IDLE),
            )
        )
    else:
        monitor, state = Monitor.of(s, checks), CheckState({}, {})
        for e in trace.entries:
            violations += monitor.step(state, e)
        violations += monitor.final(state, trace.final)
        violations.sort(key=lambda v: _RANK[v.cls])  # stable: by class, then in the order found
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
