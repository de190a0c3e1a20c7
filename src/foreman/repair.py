"""Bounded validate-and-repair loop with a search-based minimal-edit supervisor.

The search supervisor projects an infeasible draft onto the feasible set
by enumerating edit scripts in increasing cost, so the first feasible plan
found is cost-minimal.  Its edit model is restricted string-to-string
correction over steps (Lowrance & Wagner, JACM 1975): each draft step takes
at most one substitute or transpose with the next step, and any number of
inserts, in any order, may go at any gap.  Payloads come from the
scenario's action alphabet; the search never deletes (observed repairs only
insert, substitute and reorder).  After every structural edit the state
columns are recomputed by the executor, never edited textually.

A candidate is its edit script: a tuple of ``EditOp`` in script order.
``_survivors`` walks the scripts of each cost and keeps only the feasible
ones.  The smallest feasible script in tie-break order wins;
``apply_script`` (the one applier of edit ops) rebuilds it, and
``validate`` confirms it once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from enum import Enum
from functools import cache

from . import record
from .executor import ExecError, Trace, WorldState, apply_step, bind, execute, initial_state
from .plan import Action, CHARGE, IDLE, Plan, PlanStep
from .scenario import Scenario
from .validator import (
    ALL_CHECKS,
    CheckState,
    Monitor,
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


@record(eq=True, hash=True, repr=True)
class EditOp:
    """One unit-cost edit.

    ``position`` is a 1-based step index for Substitute/Transpose (the
    transpose swaps ``position`` and ``position + 1``) and the index the
    new step will occupy for Insert.  A Substitute names the action it
    replaces; a payload of None records a deletion when diffing arbitrary
    plan pairs, which the repair search itself never emits.
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
        return f"S{self.position}: {self.replaced}->{self.payload}"


@record(eq=True, hash=True)
class EditProfile:
    insertions: int = 0
    substitutions: int = 0  # includes substitutions-to-nothing (deletes)
    reorders: int = 0

    def to_dict(self) -> dict:
        return {
            "insertions": self.insertions,
            "substitutions": self.substitutions,
            "reorders": self.reorders,
        }


@record()
class EditScript:
    ops: tuple[EditOp, ...]

    @property
    def cost(self) -> int:
        return len(self.ops)

    @property
    def profile(self) -> EditProfile:
        kinds = Counter(op.kind for op in self.ops)
        return EditProfile(kinds[EditKind.Insert], kinds[EditKind.Substitute], kinds[EditKind.Transpose])

    def render(self) -> str:
        return "; ".join(op.render() for op in self.ops) if self.ops else "(none)"


EMPTY_SCRIPT = EditScript(())


@record()
class RepairResult:
    feasible: bool
    plan: Plan | None
    script: EditScript | None
    iterations_used: int  # T_rep
    report: ViolationReport  # report of the final plan

    def to_dict(self) -> dict:
        return {
            "outcome": "feasible" if self.feasible else "infeasible",
            "iterations_used": self.iterations_used,
            "edit_script": self.script.render() if self.script else None,
            "edit_profile": self.script.profile.to_dict() if self.script else None,
        }


# ---------------------------------------------------------------------------
# Plan reconstruction from edited steps
# ---------------------------------------------------------------------------


def reconcile_plan(s: Scenario, steps: list[PlanStep]) -> tuple[Plan, Trace]:
    """Rebuild a canonical Plan from steps, reading only their label,
    action and coalition.

    Each step is built once, numbered per label, and the plan of them runs
    once.  State fields (location, cargo, placed, battery) are then filled
    in from each executed step's own trace entry, so structurally edited
    plans can never carry contradictory state columns, and the returned
    trace's entries hold the returned plan's steps.  If execution fails,
    the steps it never reached keep location "?" and zeros, and the Trace
    carries the error.
    """
    counters: dict[str | None, int] = {}
    rebuilt = []
    for t in steps:
        counters[t.robot] = counters.get(t.robot, 0) + 1
        rebuilt.append(
            PlanStep(counters[t.robot], t.robot, "?", t.action, 0, 0, 0.0, t.coalition)
        )
    plan = Plan(tuple(rebuilt))
    trace = execute(s, plan)
    for e in trace.entries:  # no one else holds these steps yet
        e.step.location = e.location
        e.step.cargo = e.cargo
        e.step.placed = e.placed_total
        e.step.battery = e.battery
    return plan, trace


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

    Each cell of the table holds its cost and the op that reached it, and
    the backtrace only reads those ops back.  Among equal-cost ops a cell
    prefers transpose, then keep, substitute, insert and delete: each later
    candidate takes the cell only when it is strictly cheaper, and a
    transpose also when it is as cheap.
    """
    a = [(_sig(s), s.action) for s in from_plan.steps]
    b = [(_sig(s), s.action) for s in to_plan.steps]
    n, m = len(a), len(b)
    table = [[(j, "insert") for j in range(m + 1)]]  # row i: (cost, op) aligning a[:i] with each b[:j]
    for i in range(1, n + 1):
        x, up = a[i - 1][0], table[i - 1]
        row = [(i, "delete")]
        for j in range(1, m + 1):
            y = b[j - 1][0]
            best, op = (up[j - 1][0], "keep") if x == y else (up[j - 1][0] + 1, "substitute")
            if row[j - 1][0] + 1 < best:
                best, op = row[j - 1][0] + 1, "insert"
            if up[j][0] + 1 < best:
                best, op = up[j][0] + 1, "delete"
            if x != y and i > 1 and j > 1 and x == b[j - 2][0] and a[i - 2][0] == y and table[i - 2][j - 2][0] < best:
                best, op = table[i - 2][j - 2][0] + 1, "transpose"
            row.append((best, op))
        table.append(row)

    ops: list[EditOp] = []
    i, j = n, m
    while i or j:
        op = table[i][j][1]
        if op == "transpose":
            ops.append(EditOp(EditKind.Transpose, i - 1))
            i, j = i - 2, j - 2
        elif op == "insert":
            ops.append(EditOp(EditKind.Insert, i + 1, b[j - 1][1]))
            j -= 1
        elif op == "delete":
            ops.append(EditOp(EditKind.Substitute, i, None, a[i - 1][1]))
            i -= 1
        else:
            if op == "substitute":
                ops.append(EditOp(EditKind.Substitute, i, b[j - 1][1], a[i - 1][1]))
            i, j = i - 1, j - 1
    ops.reverse()
    return EditScript(tuple(ops))


# ---------------------------------------------------------------------------
# Minimal-edit projection search
# ---------------------------------------------------------------------------


def _edited(steps: Sequence[PlanStep], ops: Sequence[EditOp]) -> list[PlanStep]:
    """``steps`` with ``ops`` applied; the state columns are left to reconcile.

    Substitutes and deletes apply first, then transposes in script order.
    Inserts go in right to left, so lower positions stay valid; inserts at
    one position enter the plan in script order, and each takes the label
    of the step at its position (the last step's at the end).
    """
    work = list(steps)
    for op in ops:
        if op.kind is EditKind.Substitute and op.payload is not None:
            t = work[op.position - 1]
            work[op.position - 1] = PlanStep(0, t.robot, "?", op.payload, 0, 0, 0.0, t.coalition)
    for op in ops:
        if op.kind is EditKind.Transpose:
            p = op.position
            work[p - 1], work[p] = work[p], work[p - 1]
    deleted = {op.position for op in ops if op.kind is EditKind.Substitute and op.payload is None}
    out = [None if i in deleted else t for i, t in enumerate(work, 1)]
    inserts = sorted((op for op in ops if op.kind is EditKind.Insert), key=lambda op: op.position)
    for op in reversed(inserts):  # not reverse=True: same-position inserts go in back to front
        label = work[min(op.position, len(work)) - 1].robot if work else None
        out.insert(op.position - 1, PlanStep(0, label, "?", op.payload, 0, 0, 0.0))
    return [t for t in out if t is not None]


def apply_script(s: Scenario, draft: Plan, ops: Sequence[EditOp]) -> tuple[Plan, Trace]:
    """Apply ``ops`` to the draft; returns the reconciled plan and its trace.

    This is the one applier of edit ops.  Positions are in the draft's
    index space (substitute, delete and transpose name existing steps;
    insert names the index the new step will occupy), which is how both
    the search and the alignment emit them; ``_edited`` gives the order in
    which the ops apply.
    """
    return reconcile_plan(s, _edited(draft.steps, ops))


def _candidate_key(ops: tuple[EditOp, ...], rank: dict[Action, int]) -> tuple:
    """Deterministic tie-break: fewer insertions, then the smallest
    highest-touched step index (earliest fix; a transpose touches
    ``position + 1``), then lexicographic ops, then the order of inserts
    that share a gap, reverse alphabet order first.

    ``ops`` are in script order, so the inserts are in plan order, and
    ``rank`` is each action's index in the alphabet.
    """
    inserts = [op.payload for op in ops if op.kind is EditKind.Insert]
    touched = max((op.position + (op.kind is EditKind.Transpose) for op in ops), default=0)
    lex = tuple(sorted((op.kind.value, op.position, str(op.payload or "")) for op in ops))
    return (len(inserts), touched, lex, tuple(-rank[a] for a in inserts))


FAILS, UNSEEN = -1, -2  # entries of the walk's transition table that name no state


def _survivors(
    s: Scenario, draft: Plan, alphabet: list[Action], checks: frozenset[ViolationClass]
) -> Callable[[int], list[tuple[EditOp, ...]]]:
    """The walk of one search: ``level(cost)`` lists every script of
    ``cost`` edits whose edited plan is feasible under ``checks``.

    Each script is a tuple of ops in script order: by position, and at one
    position the inserts, in plan order, before a substitute or transpose.
    One depth-first walk goes through the draft gap by gap and emits the
    ops in that order, each drawing on one budget of edits.  At each gap it
    may insert any action, again and again, so every order of same-gap
    inserts is tried; then it substitutes the next step, transposes it
    with the one after (inserts may go between the swapped pair) or keeps
    it.  The walk carries each op as an integer, ``3 * (gap * len(alphabet)
    + action index) + kind`` with kind 0 insert, 1 substitute and 2
    transpose, and builds ``EditOp``s, once per op, only for the scripts
    it keeps and the two-robot scripts it validates.  The steps the ops
    run are numbered once per search, one code per distinct action and
    coalition.

    When one robot runs every step, the walk carries an interned state: the
    id of what of the world and the validator's ``CheckState`` can still
    change a verdict.  That is the robot's location, battery and cargo, the
    stock, the placed counts, the discovered cells and the monitor's key;
    ``elapsed``, ``scanned`` and the check state's step numbers reach only
    messages and hints.  ``worlds[id]`` holds the first world and check
    state that reached it, and ``moves`` maps a state and a step code to
    the next state, or to FAILS when the step raises ExecError, violates a
    checked class or dooms a precedence edge.  A missing entry is filled by
    running the step on a copy of that world, and the check state is copied
    only once the step ran, so a step that raises ExecError copies no check
    state.  Each distinct transition runs once per search; a failed one
    drops the branch with every script that extends it.  Whether a step
    raises ExecError depends only on the robot's location and the step:
    every raise in ``apply_step`` reads that location, the roster, the
    static site and the stockpiles' keys, and no step changes the last
    three.  So ``unexecutable`` remembers each (location, step code) pair
    that raised, and a state at that location fills its entry with FAILS
    without copying the world or running the step again.  Likewise
    ``apply_step`` computes the new battery from the robot's battery and
    location, the static site, the cost model and ``battery_max`` alone,
    and the monitor's Battery check reads only the entry's battery: so
    ``drained`` remembers each (location, battery, step code) whose step
    violated Battery, and a state with that location and battery fails it
    the same way.  A new state's key takes its parent's stock, placed
    counts, discovered cells and monitor key wherever the step left them
    equal (by ``==``), so its frozensets keep their cached hashes.  At the
    end of the draft the monitor's ``final`` on the interned pair alone
    decides feasibility (a state that is not doomed never fails its order
    check), so the walk keeps exactly the scripts that ``apply_script``
    plus ``validate`` find feasible.  Keeping a step moves the walk's own
    state, so the recursion is only as deep as the edit count.

    A walk node is its gap, whether a transposed step is pending, and its
    state.  ``dead`` holds, for every level of the search, the most edits
    left with which a node's subtree was shown to hold no feasible end, and
    the node is skipped when it is reached again with at most that many
    edits left: no feasible end within r edits means none within fewer
    (iterative deepening with a table of lower bounds; Reinefeld &
    Marsland, IEEE TPAMI 16(7), 1994).  The insert and substitute loops
    read a child's entry before they enter it.  So with one robot a
    feasible end reached with edits to spare keeps its nodes off that
    table, although it is not a script of the level; then ``level(cost)``
    lists exactly the scripts of ``cost`` edits even after a lower level
    held some.

    Labels bound to two or more robots take turns by elapsed time rather
    than line order, so there every step is the identity on the one state
    and runs nothing: each complete script's edited steps (``_edited`` on
    its ops), which keep the draft's labels and so bind to the same robots,
    go whole through ``validate`` under the same checks, and nothing is
    remembered.  A draft whose labels cannot be bound, or bind to a robot
    the scenario does not have, yields nothing: every edited plan keeps
    those labels.
    """
    steps = draft.steps
    n = len(steps)
    try:
        # search inserts into an empty draft are unlabelled
        robots = set(bind(s, {t.robot for t in steps} or {None}).values())
    except ValueError:
        return lambda cost: []
    if not robots <= {r.id for r in s.robots}:
        return lambda cost: []
    one_robot = len(robots) == 1
    robot = next(iter(robots))  # the one robot, when there is one
    monitor = Monitor.of(s, checks)
    dead: dict[tuple, int] = {}  # node -> the most edits left with which its subtree held no feasible end
    n_actions = len(alphabet)

    # Per gap g: the inserts at position g + 1 and the substitutes of step
    # g + 1, each as its op with the code of the step it runs, and the
    # transpose of steps g + 1 and g + 2 when it is allowed.  Only one
    # robot's walk runs steps, and apply_step takes that robot as an
    # argument, so labels are left out.
    codes: dict[tuple[Action, tuple[str, ...]], int] = {}  # numbered in order of first use

    def code(action: Action, coalition: tuple[str, ...] = ()) -> int:
        return codes.setdefault((action, coalition), len(codes))

    for a in alphabet:  # the alphabet's own steps take the codes 0 .. n_actions - 1, in its order
        code(a)
    inserts_at = [[(3 * (g * n_actions + i), i) for i in range(n_actions)] for g in range(n + 1)]
    subs_at = []
    for g, t in enumerate(steps):
        own = codes.get((t.action, ()))  # the index of the step's own action, if the alphabet has it
        subs_at.append([(3 * (g * n_actions + i) + 1, code(a, t.coalition) if t.coalition else i)
                        for i, a in enumerate(alphabet) if i != own])
    kept = [code(t.action, t.coalition) for t in steps]
    swaps_at = [
        3 * g * n_actions + 2 if t.robot == u.robot and t.action != u.action else None
        for g, (t, u) in enumerate(zip(steps, steps[1:]))
    ] + [None]  # the last step has no partner
    runs = [PlanStep(0, None, "?", a, 0, 0, 0.0, coalition) for a, coalition in codes]  # by code, the step it runs
    width = len(runs)

    @cache  # two-robot leaves decode the same few ops again and again
    def edit_op(op: int) -> EditOp:
        g, i = divmod(op // 3, n_actions)
        kind = op % 3
        if kind == 0:
            return EditOp(EditKind.Insert, g + 1, alphabet[i])
        if kind == 1:
            return EditOp(EditKind.Substitute, g + 1, alphabet[i], steps[g].action)
        return EditOp(EditKind.Transpose, g + 1)

    ids: dict[tuple, int] = {}  # projection -> state id
    worlds: list[tuple[WorldState, CheckState, tuple]] = []  # by id, the first pair that reached it and its key
    moves = [] if one_robot else [0] * width  # by id * width + code: the next id, FAILS or UNSEEN

    def intern(world: WorldState, state: CheckState, key: tuple) -> int:
        sid = ids.get(key)
        if sid is None:
            sid = ids[key] = len(worlds)
            worlds.append((world, state, key))
            moves.extend([UNSEEN] * width)
        return sid

    unexecutable: set[tuple[str, int]] = set()  # (robot location, step code) pairs that raised ExecError
    drained: set[tuple[str, float, int]] = set()  # (robot location, battery, step code) that violated Battery

    def fill(sid: int, c: int) -> int:
        """Run step ``c`` from state ``sid`` and record the state it
        reaches, or FAILS."""
        was, before, (_, _, _, stock, placed, discovered, done) = worlds[sid]
        rs = was.robots[robot]
        at = (rs.location, c)
        if at in unexecutable or (rs.location, rs.battery, c) in drained:
            nxt = FAILS
        else:
            world = was.copy()
            try:
                entry = apply_step(s, world, runs[c], robot)
            except ExecError:
                unexecutable.add(at)
                nxt = FAILS
            else:
                state = before.copy()
                found = monitor.step(state, entry)
                if found or state.doomed:
                    if any(v.cls is ViolationClass.Battery for v in found):
                        drained.add((rs.location, rs.battery, c))
                    nxt = FAILS
                else:  # the parent's key parts, wherever the step left them equal
                    rs = world.robots[robot]
                    nxt = intern(world, state, (
                        rs.location, rs.battery, rs.cargo,
                        stock if world.stock == was.stock else tuple(world.stock.values()),
                        placed if world.placed_at == was.placed_at else frozenset(world.placed_at.items()),
                        discovered if world.discovered == was.discovered else frozenset(world.discovered),
                        done if state.done == before.done else monitor.key(state),
                    ))
        moves[sid * width + c] = nxt
        return nxt

    def feasible(sid: int, ops: tuple[int, ...]) -> bool:
        """Whether the edited plan, at the end of the draft, is feasible:
        with one robot the final checks on the walk's state decide; with
        more, ``validate`` on the script's edited steps."""
        if one_robot:
            world, state, _ = worlds[sid]
            return not monitor.final(state, world)
        return validate(s, Plan(tuple(_edited(steps, [edit_op(op) for op in ops]))), checks).feasible

    world, state = initial_state(s), CheckState({}, {})
    rs = world.robots[robot]
    start = intern(world, state, (
        rs.location, rs.battery, rs.cargo, tuple(world.stock.values()),
        frozenset(world.placed_at.items()), frozenset(world.discovered), monitor.key(state),
    )) if one_robot else 0

    def level(cost: int) -> list[tuple[EditOp, ...]]:
        found: list[tuple[int, ...]] = []
        alive = 0  # feasible ends reached, with or without edits to spare

        def walk(g, sid, ops, left, pending) -> None:
            nonlocal alive
            entered = []  # the nodes this call reached, each with the feasible ends before it
            while True:
                if one_robot:
                    key = (g, pending is not None, sid)
                    if dead.get(key, -1) >= left:
                        break
                    entered.append((key, alive))
                if left:
                    row, pend = sid * width, pending is not None
                    for op, c in inserts_at[g]:
                        nxt = moves[row + c]
                        if nxt == UNSEEN:
                            nxt = fill(sid, c)
                        if nxt != FAILS and dead.get((g, pend, nxt), -1) < left - 1:
                            walk(g, nxt, ops + (op,), left - 1, pending)
                if pending is not None:  # the code of the first step of a transposed pair
                    nxt = moves[sid * width + pending]
                    sid = fill(sid, pending) if nxt == UNSEEN else nxt
                    if sid == FAILS:
                        break
                    g, pending = g + 1, None
                    continue
                if g == n:
                    # with one robot, an end with edits to spare counts for the dead table
                    if (one_robot or not left) and feasible(sid, ops):
                        alive += 1
                        if not left:
                            found.append(ops)
                    break
                if left:
                    row = sid * width
                    for op, c in subs_at[g]:
                        nxt = moves[row + c]
                        if nxt == UNSEEN:
                            nxt = fill(sid, c)
                        if nxt != FAILS and dead.get((g + 1, False, nxt), -1) < left - 1:
                            walk(g + 1, nxt, ops + (op,), left - 1, None)
                    if swaps_at[g] is not None:
                        nxt = moves[row + kept[g + 1]]
                        if nxt == UNSEEN:
                            nxt = fill(sid, kept[g + 1])
                        if nxt != FAILS:
                            walk(g + 1, nxt, ops + (swaps_at[g],), left - 1, kept[g])
                nxt = moves[sid * width + kept[g]]
                sid = fill(sid, kept[g]) if nxt == UNSEEN else nxt
                if sid == FAILS:
                    break
                g += 1
            for key, before in entered:
                if alive == before:
                    dead[key] = left

        walk(0, start, (), cost, None)
        del walk  # it refers to itself: free the cycle now, not at the next collection
        return [tuple(map(edit_op, ops)) for ops in found]

    return level


def minimal_edit_repair(
    s: Scenario,
    draft: Plan,
    budget: int = 4,
    checks: frozenset[ViolationClass] = ALL_CHECKS,
    style: str = "minimal",
    base_report: ViolationReport | None = None,
) -> RepairResult:
    """Project ``draft`` onto the feasible set with the fewest unit edits.

    Each draft step takes at most one substitute or transpose, and any
    number of inserts, in any order, may go at any gap.  Scripts are tried
    by increasing cost, and within the first level that holds a feasible
    script the deterministic tie-break
    (fewest insertions, earliest highest touched step, lexicographic
    actions, then same-gap inserts in reverse alphabet order first) picks
    the canonical argmin.  ``style='conservative'`` additionally appends a
    terminal CHARGE (at a charger) or IDLE when the repaired plan ends
    below 50% battery: one more insert, after the last step, applied with
    the rest of the script.

    ``_survivors`` walks each level and keeps only the feasible scripts,
    deciding feasibility with the validator's own monitor as it goes.  So
    the winner is the only script that ``apply_script`` rebuilds; it is
    validated once more, and a disagreement is an internal error
    (AssertionError).  The reported script is exactly the ops that were
    applied.

    ``base_report`` is the draft's report under ``checks`` when the caller
    has it already; otherwise the draft is validated here.
    """
    if base_report is None:
        base_report = validate(s, draft, checks)
    if base_report.feasible:
        return RepairResult(True, draft, EMPTY_SCRIPT, 1, base_report)

    alphabet = s.action_alphabet()
    rank = {a: i for i, a in enumerate(alphabet)}
    level = _survivors(s, draft, alphabet, checks)
    for cost in range(1, budget + 1):
        leaves = level(cost)
        if leaves:
            ops = min(leaves, key=lambda ops: _candidate_key(ops, rank))
            break
    else:
        return RepairResult(False, None, None, 1, base_report)

    plan, trace = apply_script(s, draft, ops)
    report = validate(s, plan, checks, trace=trace)
    assert report.feasible, f"the search's winner [{EditScript(ops).render()}] fails validation"
    if style == "conservative":
        final_battery = min(rs.battery for rs in trace.final.robots.values())
        if final_battery < 50.0:
            at_charger = plan.steps[-1].location in s.site.chargers
            tail = Action(CHARGE if at_charger else IDLE)
            tail_ops = ops + (EditOp(EditKind.Insert, len(draft) + 1, tail),)
            tail_plan, tail_trace = apply_script(s, draft, tail_ops)
            tail_report = validate(s, tail_plan, checks, trace=tail_trace)
            if tail_report.feasible:
                plan, ops, report = tail_plan, tail_ops, tail_report

    return RepairResult(True, plan, EditScript(ops), 1, report)


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
    ) -> tuple[Plan, ViolationReport]:
        result = minimal_edit_repair(s, draft, self.budget, report.checks_run, self.style, report)
        if not result.feasible:
            raise SupervisorError(f"no feasible plan within {self.budget} edits")
        return result.plan, result.report


class LlmSupervisor:
    """Supervisor backed by a chat-completion gateway (live or mock)."""

    def __init__(self, gateway, profile):
        self.gateway = gateway
        self.profile = profile

    @property
    def name(self) -> str:
        return f"llm:{self.profile.name}"

    def propose(
        self, s: Scenario, draft: Plan, report: ViolationReport, iteration: int
    ) -> tuple[Plan, ViolationReport]:
        from .gateway import GatewayError, supervise_with_llm
        from .plan import SchemaError

        try:
            plan = supervise_with_llm(s, draft, report, self.gateway, self.profile, iteration=iteration)
        except (GatewayError, SchemaError) as e:
            raise SupervisorError(str(e)) from e
        return plan, validate(s, plan, report.checks_run)


def repair_loop(
    s: Scenario,
    draft: Plan,
    supervisor,
    max_iters: int = 3,
    checks: frozenset[ViolationClass] = ALL_CHECKS,
) -> RepairResult:
    """Algorithm: up to ``max_iters`` rounds of validate -> supervisor repair.

    The loop validates the draft once; ``propose`` returns the supervisor's
    plan with its report under the same checks, so no plan is validated
    twice.  Returns Feasible on the first zero-violation report; a
    supervisor failure (gateway error, unparseable response, exhausted
    search) counts as a failed iteration with the plan and its report
    unchanged.  A *deterministic* supervisor that fails is not retried on
    the identical plan: the remaining iterations cannot go differently, so
    the loop reports Infeasible at the cap immediately.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    current = draft
    report = validate(s, current, checks)
    proposals = 0
    for t in range(1, max_iters + 1):
        if report.feasible:
            break
        proposals += 1
        try:
            current, report = supervisor.propose(s, current, report, t)
        except SupervisorError:
            if getattr(supervisor, "deterministic", False):
                break
    if report.feasible:  # an untouched draft needs no alignment against itself
        script = EMPTY_SCRIPT if current is draft else edit_script(draft, current)
        return RepairResult(True, current, script, max(1, proposals), report)
    return RepairResult(False, None, None, max_iters, report)
