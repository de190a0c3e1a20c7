"""Bounded validate-and-repair loop with a search-based minimal-edit supervisor.

The search supervisor projects an infeasible draft onto the feasible set
by breadth-first enumeration of edit scripts in increasing cost, so the
first feasible plan found is cost-minimal.  Candidate edits substitute or
insert actions from the scenario's alphabet and transpose adjacent steps;
the search never deletes (observed repairs only insert, substitute and
reorder).  After every structural edit the state columns are recomputed by
the executor, never edited textually.

The search screens every candidate before rebuilding it.  It replays its
draft once and keeps the world state after every step prefix; it also runs
each single-edit variant of the draft that a candidate starts with, lazily,
from the draft's snapshot at that edit.  A candidate with one edit shares
the draft's steps up to that edit, and a candidate with more shares its
first edit's variant up to its second edit, so only the rest runs, from the
matching snapshot, and the candidate is dropped at its first execution
error or battery underflow.  A level is screened one insert count at a
time, and only the survivors are sorted, rebuilt and fully validated.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

from .executor import ExecError, Trace, TraceEntry, WorldState, bind, execute, initial_state, run
from .plan import Action, ActionKind, Plan, PlanStep
from .scenario import Scenario
from .validator import (
    ALL_CHECKS,
    ViolationClass,
    ViolationReport,
    validate,
)


class SupervisorError(Exception):
    """A supervisor failed to produce a parseable proposal this iteration."""


class EditKind(Enum):
    Insert = "insert"
    Substitute = "substitute"
    Transpose = "transpose"


@dataclass(frozen=True)
class EditOp:
    """One unit-cost edit.

    ``position`` is a 1-based step index for Substitute/Transpose (the
    transpose swaps ``position`` and ``position + 1``) and the index the
    new step will occupy for Insert.  A Substitute payload of None records
    a deletion when diffing arbitrary plan pairs; the repair search itself
    never emits those.
    """

    kind: EditKind
    position: int
    payload: Action | None = None
    replaced: Action | None = None

    def render(self) -> str:
        if self.kind is EditKind.Insert:
            return f"S{self.position}: {self.payload} (+)"
        if self.kind is EditKind.Transpose:
            return f"S{self.position}<->S{self.position + 1}"
        if self.payload is None:
            return f"S{self.position}: {self.replaced} (-)"
        if self.replaced is not None:
            return f"S{self.position}: {self.replaced}->{self.payload}"
        return f"S{self.position}: ->{self.payload}"


@dataclass(frozen=True)
class EditProfile:
    insertions: int = 0
    substitutions: int = 0  # includes substitutions-to-nothing (deletes)
    reorders: int = 0

    def total(self) -> int:
        return self.insertions + self.substitutions + self.reorders

    def to_dict(self) -> dict:
        return {
            "insertions": self.insertions,
            "substitutions": self.substitutions,
            "reorders": self.reorders,
        }


@dataclass(frozen=True)
class EditScript:
    ops: tuple[EditOp, ...]
    profile: EditProfile

    @property
    def cost(self) -> int:
        return len(self.ops)

    def render(self) -> str:
        return "; ".join(op.render() for op in self.ops) if self.ops else "(none)"


EMPTY_SCRIPT = EditScript((), EditProfile())


@dataclass(frozen=True)
class RepairResult:
    feasible: bool
    plan: Plan | None
    script: EditScript | None
    iterations_used: int  # T_rep
    report: ViolationReport | None  # report of the final plan

    def to_dict(self) -> dict:
        return {
            "outcome": "feasible" if self.feasible else "infeasible",
            "iterations_used": self.iterations_used,
            "edit_script": self.script.render() if self.script else None,
            "edit_profile": self.script.profile.to_dict() if self.script else None,
        }


# ---------------------------------------------------------------------------
# Plan reconstruction from action templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepTemplate:
    robot: str | None
    action: Action
    coalition: tuple[str, ...] = ()


def plan_templates(plan: Plan) -> list[StepTemplate]:
    return [StepTemplate(s.robot, s.action, s.coalition) for s in plan.steps]


def reconcile_plan(s: Scenario, templates: list[StepTemplate]) -> tuple[Plan, Trace]:
    """Rebuild a canonical Plan from action templates.

    State fields (location, cargo, placed, battery) come from executing
    the action sequence, so structurally edited plans can never carry
    contradictory state columns.  Step numbers count per template label,
    and each step takes the trace entry of its own (label, step number).
    If execution fails, claimed fields for the unexecuted suffix fall back
    to zeros and the Trace carries the error.
    """
    counters: dict[str | None, int] = {}
    skeleton = []
    for t in templates:
        counters[t.robot] = counters.get(t.robot, 0) + 1
        skeleton.append(
            PlanStep(counters[t.robot], t.robot, "?", t.action, 0, 0, 0.0, t.coalition)
        )
    trace = execute(s, Plan(tuple(skeleton)))
    by_key = {(e.step.robot, e.step.step): e for e in trace.entries}
    steps = []
    for sk in skeleton:
        e = by_key.get((sk.robot, sk.step))
        if e is None:
            steps.append(sk)
        else:
            steps.append(
                PlanStep(
                    sk.step, sk.robot, e.location, sk.action, e.cargo, e.placed_total,
                    e.battery, sk.coalition,
                )
            )
    return Plan(tuple(steps)), trace


# ---------------------------------------------------------------------------
# Edit-script alignment (restricted Damerau-Levenshtein over steps)
# ---------------------------------------------------------------------------


def _sig(step: PlanStep):
    return (step.robot, step.action.kind, step.action.target, step.coalition)


def edit_script(from_plan: Plan, to_plan: Plan) -> EditScript:
    """Minimum-cost alignment between two plans under unit-cost edits.

    Insert, delete (reported as a substitution-to-nothing), substitute and
    adjacent transpose all cost 1.  Positions in the recovered ops refer
    to the source plan's step indices.
    """
    a = [(_sig(s), s.action) for s in from_plan.steps]
    b = [(_sig(s), s.action) for s in to_plan.steps]
    n, m = len(a), len(b)
    INF = n + m + 1
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][0] = i
    for j in range(m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            same = a[i - 1][0] == b[j - 1][0]
            best = min(
                dist[i - 1][j] + 1,  # delete a[i-1]
                dist[i][j - 1] + 1,  # insert b[j-1]
                dist[i - 1][j - 1] + (0 if same else 1),
            )
            if (
                i > 1
                and j > 1
                and a[i - 1][0] == b[j - 2][0]
                and a[i - 2][0] == b[j - 1][0]
                and not same
            ):
                best = min(best, dist[i - 2][j - 2] + 1)
            dist[i][j] = best

    # Backtrace into ops.
    ops: list[EditOp] = []
    ins = subs = reorders = 0
    i, j = n, m
    while i > 0 or j > 0:
        cur = dist[i][j]
        if (
            i > 1
            and j > 1
            and a[i - 1][0] == b[j - 2][0]
            and a[i - 2][0] == b[j - 1][0]
            and a[i - 1][0] != b[j - 1][0]
            and cur == dist[i - 2][j - 2] + 1
        ):
            ops.append(EditOp(EditKind.Transpose, i - 1))
            reorders += 1
            i, j = i - 2, j - 2
            continue
        if i > 0 and j > 0 and a[i - 1][0] == b[j - 1][0] and cur == dist[i - 1][j - 1]:
            i, j = i - 1, j - 1
            continue
        if i > 0 and j > 0 and cur == dist[i - 1][j - 1] + 1:
            ops.append(EditOp(EditKind.Substitute, i, b[j - 1][1], a[i - 1][1]))
            subs += 1
            i, j = i - 1, j - 1
            continue
        if j > 0 and cur == dist[i][j - 1] + 1:
            ops.append(EditOp(EditKind.Insert, i + 1, b[j - 1][1]))
            ins += 1
            j -= 1
            continue
        # delete: substitution-to-nothing
        ops.append(EditOp(EditKind.Substitute, i, None, a[i - 1][1]))
        subs += 1
        i -= 1
    ops.reverse()
    return EditScript(tuple(ops), EditProfile(ins, subs, reorders))


# ---------------------------------------------------------------------------
# Minimal-edit projection search
# ---------------------------------------------------------------------------


def _apply_edits(
    templates: list[StepTemplate],
    subs: Iterable[tuple[int, Action]],
    inserts: Iterable[tuple[int, Action]],
    transposes: Iterable[int],
    deletes: frozenset[int] = frozenset(),
) -> list[StepTemplate]:
    """Apply edits given in the original index space of ``templates``.

    ``subs`` are (1-based step, action) pairs, ``transposes`` swap step
    ``p`` with ``p + 1``, ``deletes`` drop 1-based steps, and ``inserts``
    are (gap, action) pairs with gaps counted from 0 (before step 1) to n
    (after the last step).  Inserts sharing a gap enter the plan in list
    order and take the robot of the step after the gap (the last step's
    at the end).
    """
    work = list(templates)
    for pos, action in subs:
        t = work[pos - 1]
        work[pos - 1] = StepTemplate(t.robot, action, t.coalition)
    for pos in transposes:
        work[pos - 1], work[pos] = work[pos], work[pos - 1]
    out = [None if i in deletes else t for i, t in enumerate(work, 1)]
    # Right to left, so lower gap indices stay valid; within a gap, back to
    # front, so the inserts end up in list order.
    for gap, action in reversed(sorted(inserts, key=lambda ins: ins[0])):
        robot = work[min(gap, len(work) - 1)].robot if work else None
        out.insert(gap, StepTemplate(robot, action))
    return [t for t in out if t is not None]


def _candidate_key(subs, inserts, transposes) -> tuple:
    """Deterministic tie-break: fewer insertions, then the smallest
    highest-touched step index (earliest fix), then lexicographic ops."""
    touched = [p for p, _ in subs] + [g + 1 for g, _ in inserts] + [p + 1 for p in transposes]
    lex = tuple(
        sorted(
            [("sub", p, str(a)) for p, a in subs]
            + [("ins", g + 1, str(a)) for g, a in inserts]
            + [("swap", p, "") for p in transposes]
        )
    )
    return (len(inserts), max(touched) if touched else 0, lex)


def _enumerate_scripts(
    n_steps: int,
    alphabet: list[Action],
    templates: list[StepTemplate],
    cost: int,
    n_ins: int | None = None,
):
    """All candidate op-sets of exactly ``cost`` unit edits, original-index
    space; only those with ``n_ins`` inserts when that is given."""
    sub_choices = []
    for pos in range(1, n_steps + 1):
        current = templates[pos - 1].action
        for action in alphabet:
            if action != current:
                sub_choices.append((pos, action))
    ins_choices = [(gap, action) for gap in range(n_steps + 1) for action in alphabet]
    swap_choices = [
        pos
        for pos in range(1, n_steps)
        if templates[pos - 1].action != templates[pos].action
        and templates[pos - 1].robot == templates[pos].robot
    ]

    for n_subs in range(cost + 1):
        for n_swaps in range(cost - n_subs + 1):
            k = cost - n_subs - n_swaps
            if n_ins is not None and k != n_ins:
                continue
            for subs in itertools.combinations(sub_choices, n_subs):
                positions = [p for p, _ in subs]
                if len(set(positions)) != len(positions):
                    continue
                for swaps in itertools.combinations(swap_choices, n_swaps):
                    # transposes must not overlap each other or substituted steps
                    touched = set(positions)
                    ok = True
                    for p in swaps:
                        if p in touched or p + 1 in touched:
                            ok = False
                            break
                        touched |= {p, p + 1}
                    if not ok:
                        continue
                    for inserts in itertools.combinations_with_replacement(ins_choices, k):
                        # a gap's inserts come out in alphabet order; reversed,
                        # they keep the repaired plans the tests pin
                        yield subs, inserts[::-1], swaps


def apply_script(s: Scenario, draft: Plan, script: EditScript) -> Plan:
    """Apply a script's ops to the draft and reconcile the state columns.

    Op positions are interpreted in the draft's index space (substitute,
    delete and transpose name existing steps; insert names the index the
    new step will occupy), which is how both the search and the alignment
    emit them.  Inserts at one position enter the plan in script order.
    """
    subs: dict[int, Action] = {}
    deletes: set[int] = set()
    inserts: list[tuple[int, Action]] = []
    swaps: list[int] = []
    for op in script.ops:
        if op.kind is EditKind.Insert:
            inserts.append((op.position - 1, op.payload))
        elif op.kind is EditKind.Transpose:
            swaps.append(op.position)
        elif op.payload is None:
            deletes.add(op.position)
        else:
            subs[op.position] = op.payload
    edited = _apply_edits(plan_templates(draft), subs.items(), inserts, swaps, frozenset(deletes))
    plan, _ = reconcile_plan(s, edited)
    return plan


def _skeleton(templates: Iterable[StepTemplate]) -> Iterator[PlanStep]:
    """Unnumbered steps for the simulator; only robot and action matter."""
    return (PlanStep(0, t.robot, "?", t.action, 0, 0, 0.0, t.coalition) for t in templates)


class _Run:
    """A base plan run in line order from ``start``, up to its first failure.

    A base is the draft or a single-edit variant of it; ``entries`` applies
    its steps from ``start`` on to ``world``.  ``snaps[k]`` is the world
    after the base's first ``start + k`` steps, kept for every prefix up to
    the first failing step.  ``fail_at`` is that step's index
    (an ExecError, or a negative battery while Battery is checked), or
    infinity when none fails.
    """

    def __init__(
        self, world: WorldState, start: int, entries: Iterable[TraceEntry], battery_checked: bool
    ):
        self.start = start
        self.snaps = [world.copy()]
        self.error: ExecError | None = None
        self.fail_at = math.inf
        try:
            for entry in entries:
                if battery_checked and entry.battery < 0:
                    break
                self.snaps.append(world.copy())
            else:
                return
        except ExecError as e:
            # its traceback's frames would hold this run in a reference cycle
            self.error = e.with_traceback(None)
        self.fail_at = start + len(self.snaps) - 1

    def state(self, k: int) -> WorldState:
        """A copy of the world after the base's first ``k`` steps."""
        return self.snaps[k - self.start].copy()


class _Screen:
    """Rejects search candidates cheaply, from runs of the draft and its variants.

    Each edit touches the draft first at its ``d``: a substitute or
    transpose at step ``p`` has ``d = p - 1``, an insert at gap ``g`` has
    ``d = g``.  With its edits sorted by ``d``, a candidate shares its first
    ``L`` steps with a base.  For one edit the base is the draft and
    ``L = d``.  For more it is the variant of the first edit and ``L = d2``,
    the second edit's ``d``, plus one when the first edit inserts a step
    before ``d2``.  When every label binds to one robot, steps run in line
    order, so the candidate fails if its base fails before ``L``; otherwise
    only ``edited[L:]`` runs, from a copy of the base's snapshot ``L``, up
    to its first ExecError or (Battery checked) negative battery.  Labels
    bound to two or more robots screen from the draft at ``L = 0``.
    ``rejects`` is true exactly when the candidate's full trace has an
    error, or a negative battery while Battery is checked.
    """

    def __init__(self, s: Scenario, draft: Plan, battery_checked: bool):
        self.s = s
        self.battery_checked = battery_checked
        self.templates = plan_templates(draft)
        self.variants: dict[tuple, _Run] = {}  # single-edit variants, by edit
        try:
            # search inserts into an empty draft are unlabelled
            self.bound = bind(s, draft.robots or (None,))
        except ValueError:
            # every candidate keeps the unbindable label, so none executes
            self.bound = None
            self.trace = execute(s, draft)
            return
        self.one_robot = len(set(self.bound.values())) == 1
        world = initial_state(s)
        entries: list[TraceEntry] = []
        steps = run(s, world, draft.steps, self.bound)

        def recorded():
            for entry in steps:
                entries.append(entry)
                yield entry

        # snapshots are prefixes of line order, so two robots keep only the first
        self.draft = _Run(world, 0, recorded() if self.one_robot else (), battery_checked)
        error = self.draft.error
        try:
            for entry in steps:  # the draft's trace goes on past an underflow
                entries.append(entry)
        except ExecError as e:
            error = e.with_traceback(None)  # as in _Run: no cycle through this frame
        self.trace = Trace(tuple(entries), world, error)  # == execute(s, draft)

    def _variant(self, d: int, edit: tuple) -> _Run:
        """The run of the draft with one edit, touching it first at ``d``."""
        variant = self.variants.get(edit)
        if variant is None:
            world = self.draft.state(d)
            steps = _skeleton(_apply_edits(self.templates, *edit)[d:])
            entries = run(self.s, world, steps, self.bound)
            variant = self.variants[edit] = _Run(world, d, entries, self.battery_checked)
        return variant

    def rejects(self, subs, inserts, swaps) -> bool:
        if self.bound is None:
            return True
        base, shared = self.draft, 0
        if self.one_robot:
            # (d, the edit as _apply_edits arguments); at one d, subs come first
            edits = [(p - 1, (((p, a),), (), ())) for p, a in subs]
            edits += [(g, ((), ((g, a),), ())) for g, a in inserts]
            edits += [(p - 1, ((), (), (p,))) for p in swaps]
            edits.sort(key=lambda e: e[0])
            shared = edits[0][0]
            # a draft that fails before the first edit is the base that rejects
            if len(edits) > 1 and self.draft.fail_at >= shared:
                (d, first), nxt = edits[0], edits[1][0]
                base = self._variant(d, first)
                shared = nxt + (1 if first[1] and d < nxt else 0)
            if base.fail_at < shared:
                return True
        edited = _apply_edits(self.templates, subs, inserts, swaps)
        try:
            for entry in run(self.s, base.state(shared), _skeleton(edited[shared:]), self.bound):
                if self.battery_checked and entry.battery < 0:
                    return True
        except ExecError:
            return True
        return False


def _survivors(screen: _Screen, alphabet: list[Action], cost: int) -> Iterator[tuple]:
    """The candidates of one cost level that pass the screen, in search order.

    ``_candidate_key`` ranks insert count first, so each insert count is
    screened as it is enumerated and only its survivors are sorted: the
    order equals the whole level's sort with the rejected ones left out,
    and no level is held in memory.
    """
    templates = screen.templates
    for n_ins in range(cost + 1):
        scripts = _enumerate_scripts(len(templates), alphabet, templates, cost, n_ins)
        yield from sorted(
            (c for c in scripts if not screen.rejects(*c)), key=lambda c: _candidate_key(*c)
        )


def minimal_edit_repair(
    s: Scenario,
    draft: Plan,
    budget: int = 4,
    checks: frozenset[ViolationClass] = ALL_CHECKS,
    style: str = "minimal",
) -> RepairResult:
    """Project ``draft`` onto the feasible set with the fewest unit edits.

    Enumerates scripts by increasing cost and, within a cost level, in
    deterministic tie-break order (fewest insertions, earliest highest
    touched step, lexicographic actions); the first feasible candidate is
    therefore the canonical argmin.  ``style='conservative'``
    additionally appends a terminal CHARGE (at a charger) or IDLE when the
    repaired plan ends below 50% battery.

    Before ``reconcile_plan`` and ``validate``, ``_Screen`` drops the
    candidates that fail to execute, or underflow while Battery is checked,
    by running only their steps from the second edit on, from a snapshot of
    their first edit's variant (from the first edit on, from the draft's,
    for a single edit).  It drops exactly those, so the result does not
    change.  Each level is screened one insert count at a time, and only
    that count's survivors are sorted into tie-break order.
    """
    screen = _Screen(s, draft, ViolationClass.Battery in checks)
    base_report = validate(s, draft, checks, trace=screen.trace)
    if base_report.feasible:
        return RepairResult(True, draft, EMPTY_SCRIPT, 1, base_report)

    templates = screen.templates
    alphabet = s.action_alphabet()
    found: tuple[Plan, Trace, list[EditOp], ViolationReport] | None = None

    for cost in range(1, budget + 1):
        for subs, inserts, swaps in _survivors(screen, alphabet, cost):
            plan, trace = reconcile_plan(s, _apply_edits(templates, subs, inserts, swaps))
            report = validate(s, plan, checks, trace=trace)
            if report.feasible:
                ops = [
                    EditOp(EditKind.Substitute, p, a, templates[p - 1].action) for p, a in subs
                ]
                ops += [EditOp(EditKind.Insert, g + 1, a) for g, a in inserts]
                ops += [EditOp(EditKind.Transpose, p) for p in swaps]
                # stable: inserts at one position stay in plan order
                ops.sort(key=lambda op: (op.position, op.kind.value))
                found = (plan, trace, ops, report)
                break
        if found:
            break

    if found is None:
        return RepairResult(False, None, None, 1, base_report)

    plan, trace, ops, report = found
    if style == "conservative":
        final_battery = min(rs.battery for rs in trace.final.robots.values())
        if final_battery < 50.0:
            last = plan.steps[-1]
            tail_kind = (
                ActionKind.CHARGE if last.location in s.site.chargers else ActionKind.IDLE
            )
            tail = plan_templates(plan) + [StepTemplate(last.robot, Action(tail_kind))]
            tail_plan, tail_trace = reconcile_plan(s, tail)
            tail_report = validate(s, tail_plan, checks, trace=tail_trace)
            if tail_report.feasible:
                ops = ops + [EditOp(EditKind.Insert, len(templates) + 1, Action(tail_kind))]
                plan, report = tail_plan, tail_report

    profile = EditProfile(
        insertions=sum(1 for o in ops if o.kind is EditKind.Insert),
        substitutions=sum(1 for o in ops if o.kind is EditKind.Substitute),
        reorders=sum(1 for o in ops if o.kind is EditKind.Transpose),
    )
    return RepairResult(True, plan, EditScript(tuple(ops), profile), 1, report)


# ---------------------------------------------------------------------------
# Supervisors and the bounded repair loop
# ---------------------------------------------------------------------------


class SearchSupervisor:
    """Deterministic supervisor computing the minimal-edit projection."""

    deterministic = True

    def __init__(self, style: str = "minimal", budget: int = 4):
        if style not in ("minimal", "conservative"):
            raise ValueError(f"unknown search style {style!r}")
        self.style = style
        self.budget = budget

    @property
    def name(self) -> str:
        return f"search-{self.style}"

    def propose(
        self, s: Scenario, draft: Plan, report: ViolationReport, iteration: int
    ) -> Plan:
        result = minimal_edit_repair(s, draft, self.budget, report.checks_run, self.style)
        if not result.feasible or result.plan is None:
            raise SupervisorError(f"no feasible plan within {self.budget} edits")
        return result.plan


class LlmSupervisor:
    """Supervisor backed by a chat-completion gateway (live or mock)."""

    def __init__(self, gateway, profile, scenario_name: str):
        self.gateway = gateway
        self.profile = profile
        self.scenario_name = scenario_name

    @property
    def name(self) -> str:
        return f"llm:{self.profile.name}"

    def propose(
        self, s: Scenario, draft: Plan, report: ViolationReport, iteration: int
    ) -> Plan:
        from .gateway import GatewayError, supervise_with_llm
        from .plan import SchemaError

        try:
            return supervise_with_llm(
                s, draft, report, self.gateway, self.profile,
                scenario_name=self.scenario_name, iteration=iteration,
            )
        except (GatewayError, SchemaError) as e:
            raise SupervisorError(str(e)) from e


def repair_loop(
    s: Scenario,
    draft: Plan,
    supervisor,
    max_iters: int = 3,
    checks: frozenset[ViolationClass] = ALL_CHECKS,
) -> RepairResult:
    """Algorithm: up to ``max_iters`` rounds of validate -> supervisor repair.

    Returns Feasible on the first zero-violation validation; a supervisor
    failure (gateway error, unparseable response, exhausted search) counts
    as a failed iteration with the plan unchanged.  A *deterministic*
    supervisor that fails is not retried on the identical plan: the
    remaining iterations cannot go differently, so the loop reports
    Infeasible at the cap immediately.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    current = draft
    proposals = 0
    report: ViolationReport | None = None  # of ``current``; None until validated
    for t in range(1, max_iters + 1):
        report = validate(s, current, checks)
        if report.feasible:
            break
        proposals += 1
        try:
            current = supervisor.propose(s, current, report, t)
        except SupervisorError:
            if getattr(supervisor, "deterministic", False):
                break
            continue
        report = None
    if report is None:
        report = validate(s, current, checks)
    if report.feasible:
        return RepairResult(True, current, edit_script(draft, current), max(1, proposals), report)
    return RepairResult(False, None, None, max_iters, report)
