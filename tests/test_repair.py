import collections
import gc
import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import scenario_doc
from edit_oracle import as_ops, bfs_min_cost, enumerate_scripts, unnumbered
from foreman import fcfs, repair, validator
from foreman.executor import WorldState, execute, makespan
from foreman.experiment import battery_pressured_batch
from foreman.fcfs import fcfs_schedule
from foreman.plan import Action, ActionKind, Plan, PlanStep, parse_plan, serialize_plan
from foreman.repair import (
    EditKind,
    EditOp,
    _candidate_key,
    _survivors,
    SearchSupervisor,
    SupervisorError,
    apply_script,
    edit_script,
    minimal_edit_repair,
    reconcile_plan,
    repair_loop,
)
from foreman.scenario import load_scenario_dict
from foreman.validator import ALL_CHECKS, ViolationClass as VC, validate
from test_acceptance import MICRO_WORLD


def test_exp1_search_minimal_two_substitutions(wall, wall_draft):
    result = minimal_edit_repair(wall, wall_draft, budget=4)
    assert result.feasible
    assert result.script.cost == 2
    assert result.script.profile.substitutions == 2
    assert result.script.profile.insertions == 0
    assert result.script.profile.reorders == 0
    # the canonical argmin rewires the first post-build move into a charge stop
    assert result.script.render() == "S5: MOVE_S->MOVE_C; S6: PICK->CHARGE"
    assert validate(wall, result.plan, ALL_CHECKS).psi == 0


def test_exp1_repair_loop_single_iteration(wall, wall_draft):
    result = repair_loop(wall, wall_draft, SearchSupervisor("minimal", 4), max_iters=3)
    assert result.feasible
    assert result.iterations_used == 1
    assert result.script.profile.substitutions == 2
    assert result.script.profile.insertions == 0


def test_exp2_search_minimal_single_scan_insert(grid, grid_draft):
    result = minimal_edit_repair(grid, grid_draft, budget=4)
    assert result.feasible
    assert result.script.cost == 1
    [op] = result.script.ops
    assert op.kind is EditKind.Insert
    assert op.payload == Action(ActionKind.SCAN)
    assert op.position == 8  # appended right after the arrival at (2,2)
    delta = makespan(execute(grid, result.plan)) - makespan(execute(grid, grid_draft))
    assert delta == 1.0


def test_already_feasible_plan_is_fixed_point(wall, wall_gemma):
    result = minimal_edit_repair(wall, wall_gemma, budget=4)
    assert result.feasible
    assert result.script.cost == 0
    assert result.plan == wall_gemma
    looped = repair_loop(wall, wall_gemma, SearchSupervisor("minimal", 4))
    assert looped.feasible and looped.iterations_used == 1
    assert looped.script.cost == 0


def _stranded():
    """A robot on 10% battery and the 2-step start of the wall draft."""
    doc = scenario_doc("wall_assembly")
    doc["robots"][0]["battery_init"] = 10
    doc["robots"][0]["battery_max"] = 10
    weak = load_scenario_dict(doc, name="weak")
    prefix = Plan(parse_plan(
        "STEP 1, [S], MOVE_S, [0], 0, [75]\nSTEP 2, [S], PICK, [3], 0, [75]\n"
    ).steps)
    return weak, prefix


def test_stranded_robot_is_infeasible_within_budget():
    # 10% battery cannot afford any move (25%/DU) and the dock is a move
    # away: exhaustive search over small scripts proves infeasibility
    weak, prefix = _stranded()
    result = minimal_edit_repair(weak, prefix, budget=3)
    assert not result.feasible
    looped = repair_loop(weak, prefix, SearchSupervisor("minimal", 3), max_iters=3)
    assert not looped.feasible
    assert looped.iterations_used == 3


def test_budget_zero_on_infeasible_draft(wall, wall_draft):
    result = minimal_edit_repair(wall, wall_draft, budget=0)
    assert not result.feasible


def test_conservative_matches_minimal_when_battery_ok(wall, wall_draft):
    # the repaired wall plan ends at exactly 50%: no terminal safeguard
    minimal = minimal_edit_repair(wall, wall_draft, budget=4, style="minimal")
    conservative = minimal_edit_repair(wall, wall_draft, budget=4, style="conservative")
    assert conservative.plan == minimal.plan


def test_conservative_appends_idle_on_low_end_battery(grid, grid_draft):
    # the repaired grid plan ends at 40% away from the dock: IDLE appended
    minimal = minimal_edit_repair(grid, grid_draft, budget=4, style="minimal")
    conservative = minimal_edit_repair(grid, grid_draft, budget=4, style="conservative")
    assert len(conservative.plan) == len(minimal.plan) + 1
    assert conservative.plan.steps[-1].action == Action(ActionKind.IDLE)
    assert validate(grid, conservative.plan, ALL_CHECKS).feasible
    # the terminal insert is placed in the draft's index space, like every
    # other search op, so the script replays onto the draft
    assert conservative.script.render() == "S8: SCAN (+); S8: IDLE (+)"
    assert apply_script(grid, grid_draft, conservative.script.ops)[0] == conservative.plan


def test_conservative_tail_reuses_the_winners_trace(monkeypatch, grid, grid_draft):
    # the winner runs once, in its rebuild, and is validated on that trace;
    # so is the tail, and no plan runs twice
    minimal = minimal_edit_repair(grid, grid_draft, budget=4, style="minimal")
    executed = []

    def counting_execute(s, plan):
        executed.append(plan)
        return execute(s, plan)

    monkeypatch.setattr(repair, "execute", counting_execute)
    monkeypatch.setattr(validator, "execute", counting_execute)
    minimal_edit_repair(grid, grid_draft, budget=4, style="conservative")
    assert executed.count(minimal.plan) == 1
    assert all(executed.count(plan) == 1 for plan in executed)


def test_the_trace_holds_the_rebuilt_plans_own_steps(wall, wall_draft):
    # a CHARGE at B, which has no charger, halts the draft at step 5
    halting = list(wall_draft.steps[:9])
    halting[4] = unnumbered(None, Action(ActionKind.CHARGE))
    winner = minimal_edit_repair(wall, wall_draft, budget=2).script.ops
    cases = [
        (reconcile_plan(wall, list(wall_draft.steps)), len(wall_draft)),
        (apply_script(wall, wall_draft, winner), len(wall_draft)),
        (reconcile_plan(wall, halting), 4),
        (apply_script(wall, Plan(tuple(halting)), ()), 4),
    ]
    for (plan, trace), ran in cases:
        assert len(trace.entries) == ran
        for e, step in zip(trace.entries, plan.steps):
            assert e.step is step
            assert (step.location, step.cargo, step.placed, step.battery) == (
                e.location, e.cargo, e.placed_total, e.battery,
            )
        assert all((t.location, t.cargo, t.placed, t.battery) == ("?", 0, 0, 0.0) for t in plan.steps[ran:])


def test_search_rebuilds_only_its_winner(monkeypatch, wall, grid, wall_draft, grid_draft):
    # the walk decides feasibility itself: apply_script rebuilds the winner,
    # and the conservative tail once more, never a losing script
    rebuilt = []

    def counting_reconcile(s, steps):
        rebuilt.append(steps)
        return reconcile_plan(s, steps)

    monkeypatch.setattr(repair, "reconcile_plan", counting_reconcile)
    cases = [
        (wall, wall_draft, "minimal", True, 1),
        (grid, grid_draft, "minimal", True, 1),
        (grid, grid_draft, "conservative", True, 2),  # with the terminal IDLE
        (*_stranded(), "minimal", False, 0),
        (_wall5(), wall_draft, "minimal", False, 0),
    ]
    for s, draft, style, repaired, rebuilds in cases:
        rebuilt.clear()
        assert minimal_edit_repair(s, draft, budget=4, style=style).feasible is repaired
        assert len(rebuilt) == rebuilds, (s.name, style)


def test_search_supervisor_validates_the_draft_once(monkeypatch, wall, grid, wall_draft, grid_draft):
    # the loop validates the draft, the search its winner, and the loop reads
    # the winner's report from the search: no plan is validated twice
    validated = []

    def counting_validate(s, plan, checks=ALL_CHECKS, trace=None):
        validated.append(plan)
        return validate(s, plan, checks, trace=trace)

    monkeypatch.setattr(repair, "validate", counting_validate)
    for s, draft in [(wall, wall_draft), (grid, grid_draft)]:
        for style in ("minimal", "conservative"):
            validated.clear()
            result = repair_loop(s, draft, SearchSupervisor(style, 4))
            assert result.feasible and result.iterations_used == 1
            assert validated.count(draft) == 1  # by the loop; the search reuses its report
            assert validated.count(result.plan) == 1  # by the search; the loop reuses its report
            assert all(validated.count(plan) == 1 for plan in validated)


def test_repair_feasibility_postcondition(wall, grid, wall_draft, grid_draft):
    for s, draft in [(wall, wall_draft), (grid, grid_draft)]:
        result = minimal_edit_repair(s, draft, budget=4)
        assert result.feasible
        assert validate(s, result.plan, ALL_CHECKS).psi == 0


def test_edit_locality_window(wall, grid, wall_draft, grid_draft):
    # minimal scripts touch a window of <= 2 consecutive step indices
    for s, draft in [(wall, wall_draft), (grid, grid_draft)]:
        result = minimal_edit_repair(s, draft, budget=4)
        positions = [op.position for op in result.script.ops]
        assert max(positions) - min(positions) <= 1


def test_battery_only_repair(wall, wall_draft):
    result = minimal_edit_repair(wall, wall_draft, budget=4, checks=frozenset({VC.Battery}))
    assert result.feasible
    assert result.script.cost <= 2
    report = validate(wall, result.plan, {VC.Battery})
    assert not report.by_class(VC.Battery)


def test_supervisor_error_counts_as_failed_iteration(wall, wall_draft):
    class Hopeless:
        name = "hopeless"

        def propose(self, s, draft, report, iteration):
            raise SupervisorError("nope")

    result = repair_loop(wall, wall_draft, Hopeless(), max_iters=3)
    assert not result.feasible
    assert result.iterations_used == 3


# Argument checks that the CLI makes first, so only the Python API reaches
# them: (test id, the call on the wall draft, its message).
_BAD_ARGUMENTS = [
    ("style", lambda s, draft: SearchSupervisor("bold"), "unknown search style 'bold'"),
    ("max_iters", lambda s, draft: repair_loop(s, draft, SearchSupervisor(), max_iters=0), "max_iters must be >= 1"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in _BAD_ARGUMENTS], ids=[c[0] for c in _BAD_ARGUMENTS])
def test_a_bad_argument_is_a_value_error(wall, wall_draft, call, message):
    with pytest.raises(ValueError) as exc:
        call(wall, wall_draft)
    assert str(exc.value) == message


def test_repair_loop_with_canned_plan_supervisor(wall, wall_draft, wall_llama):
    class Canned:
        name = "canned"

        def propose(self, s, draft, report, iteration):
            return wall_llama, validate(s, wall_llama, report.checks_run)

    result = repair_loop(wall, wall_draft, Canned(), max_iters=3)
    assert result.feasible
    assert result.iterations_used == 1
    assert result.plan == wall_llama
    # cumulative draft->final script matches the fixture's known profile
    assert result.script.profile.substitutions == 2
    assert result.script.profile.insertions == 0


def test_reconcile_reads_each_step_its_own_trace_entry(wall):
    # one robot addressed both unlabelled and as r1: the two labels number
    # their steps separately, and each step's state columns must come from
    # its own (label, step) entry, not from the other label's step 1 or 2
    K = ActionKind
    steps = [unnumbered(None, Action(K.MOVE_S)), unnumbered(None, Action(K.PICK))]
    steps += [unnumbered("r1", Action(K.MOVE_B)), unnumbered("r1", Action(K.BUILD))]
    plan, trace = reconcile_plan(wall, steps)
    assert trace.error is None
    rows = [(s.robot, s.step, s.location, s.action.kind, s.cargo, s.placed, s.battery) for s in plan.steps]
    assert rows == [
        (None, 1, "S", K.MOVE_S, 0, 0, 75.0),
        (None, 2, "S", K.PICK, 3, 0, 75.0),
        ("r1", 1, "B", K.MOVE_B, 3, 0, 50.0),
        ("r1", 2, "B", K.BUILD, 0, 3, 50.0),
    ]


def test_failed_deterministic_supervisor_reuses_the_loops_report(monkeypatch, wall, wall_draft):
    class Stuck:
        name = "stuck"
        deterministic = True

        def propose(self, s, draft, report, iteration):
            raise SupervisorError("stuck")

    validated = []

    def counting_validate(s, plan, *args, **kwargs):
        validated.append(plan)
        return validate(s, plan, *args, **kwargs)

    monkeypatch.setattr(repair, "validate", counting_validate)
    result = repair_loop(wall, wall_draft, Stuck(), max_iters=3)
    assert not result.feasible and result.iterations_used == 3
    assert result.report.psi == 1
    assert validated == [wall_draft]


# ---------------------------------------------------------------------------
# edit_script alignment
# ---------------------------------------------------------------------------


def _plan_of(actions):
    steps = []
    for i, a in enumerate(actions, start=1):
        from foreman.plan import PlanStep

        steps.append(PlanStep(i, None, "S", a if isinstance(a, Action) else Action(a), 0, 0, 100.0))
    return Plan(tuple(steps))


def test_edit_script_identical_plans_is_empty(wall_draft):
    script = edit_script(wall_draft, wall_draft)
    assert script.cost == 0


def test_edit_script_adjacent_swap_is_one_reorder():
    a = _plan_of([ActionKind.PICK, ActionKind.BUILD, ActionKind.IDLE])
    b = _plan_of([ActionKind.BUILD, ActionKind.PICK, ActionKind.IDLE])
    script = edit_script(a, b)
    assert script.cost == 1
    assert script.profile.reorders == 1


def test_edit_script_substitutions_and_insertions():
    a = _plan_of([ActionKind.PICK, ActionKind.BUILD, ActionKind.IDLE, ActionKind.PICK])
    b = _plan_of(
        [ActionKind.PICK, ActionKind.CHARGE, ActionKind.IDLE, ActionKind.PICK,
         ActionKind.SCAN, ActionKind.SCAN]
    )
    script = edit_script(a, b)
    assert script.cost == 3
    assert script.profile.substitutions == 1
    assert script.profile.insertions == 2
    assert script.profile.reorders == 0


def test_edit_script_deletions_fold_into_substitutions():
    a = _plan_of([ActionKind.PICK, ActionKind.BUILD, ActionKind.IDLE])
    b = _plan_of([ActionKind.PICK])
    script = edit_script(a, b)
    assert script.cost == 2
    assert script.profile.substitutions == 2  # substitutions-to-nothing
    assert any(op.payload is None for op in script.ops)


def test_gemma_fixture_profile(wall_draft, wall_gemma):
    script = edit_script(wall_draft, wall_gemma)
    assert script.profile.substitutions == 2
    assert script.profile.insertions == 0
    assert script.profile.reorders == 0


def test_mistral_fixture_profile(wall_draft, wall_mistral):
    script = edit_script(wall_draft, wall_mistral)
    assert script.profile.substitutions == 2
    assert script.profile.insertions == 1  # the extra terminal charge


_ACTION_LISTS = st.lists(
    st.sampled_from([ActionKind.PICK, ActionKind.BUILD, ActionKind.IDLE, ActionKind.SCAN]),
    min_size=0,
    max_size=7,
)


@given(_ACTION_LISTS, _ACTION_LISTS)
@settings(max_examples=120, deadline=None)
def test_edit_distance_symmetry(xs, ys):
    a, b = _plan_of(xs), _plan_of(ys)
    assert edit_script(a, b).cost == edit_script(b, a).cost


@given(_ACTION_LISTS, _ACTION_LISTS)
@settings(max_examples=120, deadline=None)
def test_edit_distance_bounds(xs, ys):
    cost = edit_script(_plan_of(xs), _plan_of(ys)).cost
    assert abs(len(xs) - len(ys)) <= cost <= max(len(xs), len(ys))


_PAIR_ACTIONS = [Action(ActionKind.PICK), Action(ActionKind.BUILD), Action(ActionKind.IDLE),
                 Action(ActionKind.NAVIGATE, "A"), Action(ActionKind.NAVIGATE, "B")]


def _random_plan_pair(rng):
    """Two plans of 0-9 steps over an alphabet of 1-5 actions, labelled
    None, r1 or r2, some steps by a coalition: the second is either drawn
    afresh or the first after a few swaps, inserts, deletes and relabels."""
    alphabet = rng.sample(_PAIR_ACTIONS, rng.randint(1, 5))

    def step():
        coalition = ("r1", "r2") if rng.random() < 0.1 else ()
        return (rng.choice([None, "r1", "r2"]), rng.choice(alphabet), coalition)

    a = [step() for _ in range(rng.randint(0, 9))]
    if rng.random() < 0.5:
        b = [step() for _ in range(rng.randint(0, 9))]
    else:
        b = list(a)
        for _ in range(rng.randint(1, 4)):
            p = rng.randint(0, len(b))
            what = rng.choice(["swap", "ins", "del", "sub"])
            if what == "swap" and p + 1 < len(b):
                b[p], b[p + 1] = b[p + 1], b[p]
            elif what == "ins" or not b:
                b.insert(p, step())
            elif what == "del":
                del b[min(p, len(b) - 1)]
            else:
                b[min(p, len(b) - 1)] = step()
        b = b[:9]
    return tuple(Plan(tuple(PlanStep(i, label, "S", action, 0, 0, 100.0, coalition)
                            for i, (label, action, coalition) in enumerate(steps, 1)))
                 for steps in (a, b))


def test_edit_script_is_pinned_on_random_plan_pairs():
    # 3,000 seeded plan pairs whose steps differ in label, action, target and
    # coalition, the four things an alignment compares; with many equal-cost
    # alignments, the digest of each script and profile pins the tie-break
    rng = random.Random(20261021)
    digest = hashlib.sha256()
    for _ in range(3000):
        script = edit_script(*_random_plan_pair(rng))
        digest.update(f"{script.render()}|{script.profile.to_dict()}\n".encode())
    assert digest.hexdigest() == "29401d05813d0386e20684dd46d3d76aa61cd3474b72992f5035c0514eed055d"


def test_applying_search_script_reproduces_repaired_plan(wall, grid, wall_draft, grid_draft):
    cases = [(wall, wall_draft, 4), (grid, grid_draft, 4)]
    # one FCFS draft per (tasks x initial battery) class of criterion 10's
    # batch; 3 tasks at 50% is the class no budget-2 script repairs
    classes = {}
    for s in battery_pressured_batch(2024, 50):
        classes.setdefault((len(s.tasks), s.robots[0].battery_init), s)
    del classes[(3, 50.0)]
    cases += [(s, fcfs_schedule(s)[1], 2) for _, s in sorted(classes.items())]
    same_gap_inserts = 0
    for s, draft, budget in cases:
        result = minimal_edit_repair(s, draft, budget)
        assert result.feasible
        assert apply_script(s, draft, result.script.ops)[0] == result.plan
        positions = [op.position for op in result.script.ops if op.kind is EditKind.Insert]
        same_gap_inserts += len(positions) - len(set(positions))
    assert same_gap_inserts  # 3 tasks at 100% needs two inserts in one gap


def test_applying_alignment_script_reproduces_target(wall, wall_draft, wall_gemma, wall_mistral):
    for target in (wall_gemma, wall_mistral):
        script = edit_script(wall_draft, target)
        assert apply_script(wall, wall_draft, script.ops)[0] == target


def _random_ops(rng, draft, alphabet):
    """Up to five random edits in random order: substitutes, deletes,
    transposes, runs of inserts at one position, and a substitute of a step
    that a transpose also moves."""
    steps = draft.steps
    n = len(steps)
    ops = []
    for _ in range(rng.randint(1, 5)):
        what = rng.choice(["sub", "del", "swap", "ins", "sub_swap"])
        if what == "ins":
            position = rng.randint(1, n + 1)
            ops += [EditOp(EditKind.Insert, position, rng.choice(alphabet)) for _ in range(rng.randint(1, 3))]
        elif what == "sub" or what == "del" or n < 2:
            p = rng.randint(1, n)
            payload = rng.choice(alphabet) if what != "del" else None
            ops.append(EditOp(EditKind.Substitute, p, payload, steps[p - 1].action))
        else:
            p = rng.randint(1, n - 1)
            ops.append(EditOp(EditKind.Transpose, p))
            if what == "sub_swap":
                q = p + rng.randint(0, 1)
                ops.append(EditOp(EditKind.Substitute, q, rng.choice(alphabet), steps[q - 1].action))
    rng.shuffle(ops)
    return ops


def test_apply_script_is_pinned_on_random_op_lists(wall, grid, wall_draft, grid_draft):
    # 500 seeded op lists in any order; the digest of each edited plan's
    # text and replay error was recorded when subs, inserts and transposes
    # were applied as separate lists
    cases = [(wall, wall_draft), (grid, grid_draft), (_two_robot_wall(25), parse_plan(_TWO_ROBOT_DRAFT))]
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for i in range(500):
        s, draft = cases[i % len(cases)]
        plan, trace = apply_script(s, draft, _random_ops(rng, draft, s.action_alphabet()))
        digest.update(f"{serialize_plan(plan)}|{trace.error}\n".encode())
    assert digest.hexdigest() == "342f7c6e387d0c6bb1c325adca27588fa1841374e5d70945437ab08b7d4afd1a"


def _snapshot(steps):
    return [
        (t.step, t.robot, t.location, (t.action.kind, t.action.target), t.cargo, t.placed, t.battery, t.coalition)
        for t in steps
    ]


def test_shared_steps_are_never_mutated(wall, grid, wall_draft, grid_draft, monkeypatch):
    # steps are shared between a plan, its candidates and its traces, and
    # are not frozen: nothing may change a step it was handed
    assert not hasattr(wall_draft.steps[0], "__dict__")  # slots, no per-step dict
    lowered = []

    def spy(s, steps):
        before = _snapshot(steps)
        out = reconcile_plan(s, steps)
        lowered.append(_snapshot(steps) == before)
        return out

    monkeypatch.setattr(fcfs, "reconcile_plan", spy)
    for s, draft in ((wall, wall_draft), (grid, grid_draft)):
        before = _snapshot(draft.steps)
        for style in ("minimal", "conservative"):
            minimal_edit_repair(s, draft, budget=2, style=style)
            assert _snapshot(draft.steps) == before
        repair_loop(s, draft, SearchSupervisor("minimal", 2))
        assert _snapshot(draft.steps) == before
        reconcile_plan(s, list(draft.steps))
        assert _snapshot(draft.steps) == before
        fcfs_schedule(s)
        assert _snapshot(draft.steps) == before
    assert lowered == [True, True]  # the FCFS lowering's steps, through reconcile_plan
    # the seeded op lists of the apply_script pin
    cases = [(wall, wall_draft), (grid, grid_draft), (_two_robot_wall(25), parse_plan(_TWO_ROBOT_DRAFT))]
    befores = [_snapshot(draft.steps) for _, draft in cases]
    rng = random.Random(20261018)
    for i in range(500):
        s, draft = cases[i % len(cases)]
        apply_script(s, draft, _random_ops(rng, draft, s.action_alphabet()))
        assert _snapshot(draft.steps) == befores[i % len(cases)], i


def _wall5():
    """The wall with two more 3-brick tasks chained after it, and the bricks."""
    doc = scenario_doc("wall_assembly")
    last = doc["tasks"][-1]
    doc["tasks"] += [dict(last, id="build_4"), dict(last, id="build_5")]
    doc["dag"] += [["build_3", "build_4"], ["build_4", "build_5"]]
    doc["resources"] = {"S": 15}
    return load_scenario_dict(doc, name="wall5")


def test_runtime_budgets(wall, grid, wall_draft, grid_draft, monkeypatch):
    t0 = time.monotonic()
    minimal_edit_repair(wall, wall_draft, budget=4)
    assert time.monotonic() - t0 < 5.0
    t0 = time.monotonic()
    minimal_edit_repair(grid, grid_draft, budget=4)
    assert time.monotonic() - t0 < 5.0
    # the wall draft with its second and third trips cut needs four edits
    t0 = time.monotonic()
    result = minimal_edit_repair(wall, Plan(wall_draft.steps[:4] + wall_draft.steps[12:]), budget=4)
    assert time.monotonic() - t0 < 2.0
    assert result.script.render() == "S11: MOVE_S (+); S11: PICK (+); S11: MOVE_C->MOVE_B; S12: CHARGE->BUILD"
    # the shipped draft builds three of wall5's five tasks: no repair within four edits
    t0 = time.monotonic()
    result = minimal_edit_repair(_wall5(), wall_draft, budget=4)
    assert time.monotonic() - t0 < 2.0
    assert not result.feasible
    # six edits repair it: a charge in the second trip and a fifth trip at the end
    calls = collections.Counter()

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)

        return call

    monkeypatch.setattr(validator.Monitor, "final", counted("final", validator.Monitor.final))
    monkeypatch.setattr(repair, "apply_step", counted("apply_step", repair.apply_step))
    t0 = time.monotonic()
    result = minimal_edit_repair(_wall5(), wall_draft, budget=6)
    elapsed = time.monotonic() - t0
    # the walk's work without a clock: re-walking subtrees already shown dead
    # (a `>` for `>=` in the dead check) calls `final` 73,438 times instead;
    # each transition the walk fills runs one step, once per search, except
    # a step already unexecutable at the robot's location, or one that
    # already drained the battery below zero from the robot's location and
    # battery, which runs none (829 steps when every such transition ran its
    # own, 560 when only unexecutable steps were remembered)
    assert calls == {"final": 275, "apply_step": 505}
    assert elapsed < 1.0
    assert result.script.render() == (
        "S7: MOVE_C (+); S7: CHARGE (+); S19: MOVE_S (+); S19: PICK (+); S19: MOVE_C->MOVE_B; S20: CHARGE->BUILD"
    )


# ---------------------------------------------------------------------------
# Multi-robot search and the candidate walk
# ---------------------------------------------------------------------------

# r1 builds trips 1 and 2; r2 runs trip 3 in between on its own battery
_TWO_ROBOT_DRAFT = """\
r1: STEP 1, [S], MOVE_S, [0], 0, [75]
r1: STEP 2, [S], PICK, [3], 0, [75]
r1: STEP 3, [B], MOVE_B, [3], 0, [50]
r1: STEP 4, [B], BUILD, [0], 3, [50]
r2: STEP 1, [S], MOVE_S, [0], 0, [0]
r2: STEP 2, [S], PICK, [3], 0, [0]
r2: STEP 3, [B], MOVE_B, [3], 0, [-25]
r2: STEP 4, [B], BUILD, [0], 6, [-25]
r1: STEP 5, [S], MOVE_S, [0], 6, [25]
r1: STEP 6, [S], PICK, [3], 6, [25]
r1: STEP 7, [B], MOVE_B, [3], 6, [0]
r1: STEP 8, [B], BUILD, [0], 9, [0]
"""


def _two_robot_wall(r2_battery, r2_battery_max=100):
    doc = scenario_doc("wall_assembly")
    r2 = dict(doc["robots"][0], id="r2", battery_init=r2_battery, battery_max=r2_battery_max)
    doc["robots"].append(r2)
    return load_scenario_dict(doc, name="two")


def _rows(plan):
    return [(p.robot, p.step, p.location, str(p.action), p.cargo, p.placed, p.battery) for p in plan.steps]


def test_search_repairs_a_two_robot_plan():
    s = _two_robot_wall(25)
    draft = parse_plan(_TWO_ROBOT_DRAFT)
    result = minimal_edit_repair(s, draft, budget=2)
    assert result.feasible
    # r2 charges at the dock before its trip; robots take turns by elapsed time
    assert result.script.render() == "S5: CHARGE (+)"
    assert _rows(result.plan) == [
        ("r1", 1, "S", "MOVE_S", 0, 0, 75.0),
        ("r1", 2, "S", "PICK", 3, 0, 75.0),
        ("r1", 3, "B", "MOVE_B", 3, 0, 50.0),
        ("r1", 4, "B", "BUILD", 0, 3, 50.0),
        ("r2", 1, "C", "CHARGE", 0, 0, 100.0),
        ("r2", 2, "S", "MOVE_S", 0, 0, 75.0),
        ("r2", 3, "S", "PICK", 3, 0, 75.0),
        ("r2", 4, "B", "MOVE_B", 3, 3, 50.0),
        ("r2", 5, "B", "BUILD", 0, 6, 50.0),
        ("r1", 5, "S", "MOVE_S", 0, 3, 25.0),
        ("r1", 6, "S", "PICK", 3, 6, 25.0),
        ("r1", 7, "B", "MOVE_B", 3, 6, 0.0),
        ("r1", 8, "B", "BUILD", 0, 9, 0.0),
    ]
    assert apply_script(s, draft, result.script.ops)[0] == result.plan


def test_search_exhausts_its_budget_on_a_two_robot_plan():
    # r2's 10% battery never affords a move, and taking its trip over
    # costs more than two edits
    s = _two_robot_wall(10, r2_battery_max=10)
    result = minimal_edit_repair(s, parse_plan(_TWO_ROBOT_DRAFT), budget=2)
    assert not result.feasible
    assert result.script is None and result.plan is None


def test_search_of_a_robot_outside_the_roster_finds_nothing(wall, wall_draft):
    # every edited plan keeps the draft's labels, so none can execute
    draft = Plan(tuple(
        PlanStep(t.step, "r9", t.location, t.action, t.cargo, t.placed, t.battery, t.coalition) for t in wall_draft.steps
    ))
    result = minimal_edit_repair(wall, draft, budget=2)
    assert not result.feasible
    assert result.script is None and result.plan is None


# Two stockpiles and two build sites, each a move from either pile: after
# the same number of trips, which pile is emptier and which site holds more
# bricks are not told by the robot's cargo or location, so the walk's
# states must tell them apart
_TWO_SITES = {
    "instruction": "build 6 bricks at B and 6 at D from the piles at S and T",
    "site": {"kind": "named_graph", "nodes": ["S", "T", "B", "D"],
             "edges": [["S", "B", 1], ["S", "D", 1], ["T", "B", 1], ["T", "D", 1]]},
    "robots": [{"id": "r1", "skills": ["NAVIGATE", "PICK", "BUILD"], "payload_capacity": 3,
                "battery_max": 100, "battery_init": 100, "start_location": "S"}],
    "tasks": [
        {"id": "b", "type": "BUILD", "required_skills": ["BUILD"], "location": "B", "demand": 6, "duration": 1},
        {"id": "d", "type": "BUILD", "required_skills": ["BUILD"], "location": "D", "demand": 6, "duration": 1},
    ],
    "dag": [],
    "cost": {"battery_per_du": 5, "tu_per_du": 1, "pick_build_tu_per_3mu": 1, "recharge_tu": 1},
    "resources": {"S": 6, "T": 6},
}


def _two_sites_draft(s):
    """Two trips from S to B, then two from T to D, and an IDLE."""
    words = "PICK B BUILD S PICK B BUILD T PICK D BUILD T PICK D BUILD IDLE".split()
    steps = [unnumbered(None, Action(ActionKind.NAVIGATE, w) if len(w) == 1 else Action(ActionKind[w])) for w in words]
    return reconcile_plan(s, steps)[0]


def _screen_cases(wall, grid, wall_draft, grid_draft):
    """(scenario, draft, top cost) whose candidates the walk is checked on."""
    classes = {(len(s.tasks), s.robots[0].battery_init): s for s in battery_pressured_batch(2024, 50)}
    cases = [(wall, wall_draft), (grid, grid_draft)]
    cases += [(classes[k], fcfs_schedule(classes[k])[1]) for k in [(3, 100.0), (3, 50.0)]]
    cases.append((_two_robot_wall(25), parse_plan(_TWO_ROBOT_DRAFT)))
    # a CHARGE at B, which has no charger, halts the draft at step 5
    halting = list(wall_draft.steps[:9])
    halting[4] = unnumbered(None, Action(ActionKind.CHARGE))
    plan, trace = reconcile_plan(wall, halting)
    assert trace.error is not None and len(trace.entries) == 4
    cases.append((wall, plan))
    cases = [(s, draft, 2) for s, draft in cases]
    # short drafts with three-edit candidates: up to three inserts share a gap
    cases.append((*_stranded(), 3))
    cases.append((wall, Plan(wall_draft.steps[:5]), 3))
    # a feasible draft whose one-edit candidates take trip 2 from T or build trip 1 at D
    two_sites = load_scenario_dict(_TWO_SITES, name="two_sites")
    cases.append((two_sites, _two_sites_draft(two_sites), 1))
    return cases


def test_walk_keeps_exactly_the_candidates_that_validate(wall, grid, wall_draft, grid_draft):
    # each check set's walk is asked for its levels in search order, so one
    # table of dead nodes serves them all, as in the search; each level's
    # leaves, sliced by insert count, must be exactly the oracle's
    # candidates of that cost and insert count that apply_script + validate
    # find feasible.  Scripts that edit the draft into the same steps share
    # the verdicts of the first of them
    check_sets = (ALL_CHECKS, ALL_CHECKS - {VC.Battery}, frozenset({VC.Precedence, VC.Capacity, VC.Coverage}))
    kept = [0] * len(check_sets)
    dropped = [0] * len(check_sets)
    for s, draft, top in _screen_cases(wall, grid, wall_draft, grid_draft):
        alphabet = s.action_alphabet()
        rank = {a: i for i, a in enumerate(alphabet)}

        def key(ops):
            return _candidate_key(ops, rank)

        walks = [_survivors(s, draft, alphabet, checks) for checks in check_sets]
        verdicts = {}  # the edited steps' labels, actions and coalitions -> feasible under each check set
        for cost in range(1, top + 1):
            feasible = [[[] for _ in range(cost + 1)] for _ in check_sets]  # [check set][insert count]
            for subs, inserts, swaps in enumerate_scripts(len(draft), alphabet, draft.steps, cost):
                ops = as_ops(draft.steps, (subs, inserts, swaps))
                steps = repair._edited(draft.steps, ops)
                # three flat tuples: a tuple per step would keep the collector busy
                edited = (
                    tuple([t.robot for t in steps]), tuple([t.action for t in steps]), tuple([t.coalition for t in steps])
                )
                if edited not in verdicts:
                    plan, trace = reconcile_plan(s, steps)  # apply_script(s, draft, ops), from its edited steps
                    verdicts[edited] = [
                        trace.error is None and validate(s, plan, checks, trace=trace).feasible
                        for checks in check_sets
                    ]
                for j, ok in enumerate(verdicts[edited]):
                    if ok:
                        feasible[j][len(inserts)].append(ops)
                    else:
                        dropped[j] += 1
            for j, level in enumerate(walks):
                leaves = [[] for _ in range(cost + 1)]  # by insert count
                for ops in level(cost):
                    leaves[sum(op.kind is EditKind.Insert for op in ops)].append(ops)
                for n_ins in range(cost + 1):
                    expected = sorted(feasible[j][n_ins], key=key)
                    assert sorted(leaves[n_ins], key=key) == expected, (s.name, cost, n_ins, j)
                    kept[j] += len(expected)
    assert all(kept) and all(dropped)
    assert dropped[0] > dropped[1]  # underflows count only while Battery is checked


@pytest.mark.parametrize(
    "payload, draft",
    [("PICK", "NAVIGATE B, BUILD"), ("CHARGE", "NAVIGATE B, PICK, BUILD")],
)
def test_walk_counts_feasible_ends_with_edits_to_spare(payload, draft):
    # With IDLE among the payloads, a shorter repair pads into a longer one.
    # Without it, a node whose feasible ends all leave edits to spare must
    # stay off the dead table, or a later level misses the scripts through
    # it.  The levels are asked for in order although lower ones hold leaves
    s = load_scenario_dict(MICRO_WORLD, name="micro")
    alphabet = [Action(ActionKind[payload])]
    plan = _plan_of([Action(ActionKind[kind], *target) for kind, *target in map(str.split, draft.split(", "))])
    level = _survivors(s, plan, alphabet, ALL_CHECKS)
    for cost in range(1, 4):
        expected = [
            ops for ops in (as_ops(plan.steps, c) for c in enumerate_scripts(len(plan), alphabet, plan.steps, cost))
            if validate(s, apply_script(s, plan, ops)[0]).feasible
        ]
        assert expected
        assert sorted(level(cost), key=repr) == sorted(expected, key=repr), cost


def test_oracle_tries_every_order_of_same_gap_inserts(wall):
    alphabet = wall.action_alphabet()
    assert len(set(enumerate_scripts(0, alphabet, [], 2))) == len(alphabet) ** 2


def test_search_leaves_no_world_state_for_the_cycle_collector(wall, wall_draft):
    # every branch of the walk owns a world copy; a reference cycle through
    # the walk would keep them until the collector ran
    gc.collect()
    before = sum(isinstance(o, WorldState) for o in gc.get_objects())
    gc.disable()
    try:
        assert minimal_edit_repair(wall, wall_draft, budget=2).feasible
        left = sum(isinstance(o, WorldState) for o in gc.get_objects())
    finally:
        gc.enable()
    assert left == before


def _one_trip():
    """The wall's first trip alone: 3 bricks from S to B."""
    doc = scenario_doc("wall_assembly")
    doc["tasks"], doc["dag"] = doc["tasks"][:1], []
    return load_scenario_dict(doc, name="one_trip")


def test_search_inserts_a_whole_trip_in_plan_order():
    # four inserts at one gap, in an order that is not reverse alphabet order
    result = minimal_edit_repair(_one_trip(), Plan(()), budget=4)
    assert result.feasible
    assert result.script.render() == "S1: MOVE_S (+); S1: PICK (+); S1: MOVE_B (+); S1: BUILD (+)"


@pytest.mark.parametrize(
    "world, longest",
    [("micro", 2), ("one_trip", 1)],
)
def test_search_agrees_with_a_breadth_first_search_over_plans(world, longest):
    s = load_scenario_dict(MICRO_WORLD, name="micro") if world == "micro" else _one_trip()
    alphabet = tuple(s.action_alphabet())
    verdicts = {}

    def feasible(actions):
        if actions not in verdicts:
            verdicts[actions] = validate(s, _plan_of(actions)).feasible
        return verdicts[actions]

    drafts = [d for n in range(longest + 1) for d in itertools.product(alphabet, repeat=n)]
    for draft in drafts:
        result = minimal_edit_repair(s, _plan_of(draft), budget=4)
        searched = result.script.cost if result.feasible else None
        assert searched == bfs_min_cost(feasible, draft, alphabet, 4), draft


# draft -> (script, rows of the repaired plan); each draft needs three edits,
# one of each kind
_COST_3 = {
    "IDLE BUILD MOVE_B": (
        "S1: MOVE_S (+); S1: IDLE->PICK; S2<->S3",
        [("S", "MOVE_S", 0, 0, 75.0), ("S", "PICK", 3, 0, 75.0), ("B", "MOVE_B", 3, 0, 50.0),
         ("B", "BUILD", 0, 3, 50.0)],
    ),
    "MOVE_B MOVE_S CHARGE IDLE": (
        "S1<->S2; S2: PICK (+); S3: CHARGE->BUILD",
        [("S", "MOVE_S", 0, 0, 75.0), ("S", "PICK", 3, 0, 75.0), ("B", "MOVE_B", 3, 0, 50.0),
         ("B", "BUILD", 0, 3, 50.0), ("B", "IDLE", 0, 3, 50.0)],
    ),
}


@pytest.mark.parametrize("actions", sorted(_COST_3))
def test_search_finds_a_three_edit_repair(actions):
    s = _one_trip()
    draft, _ = reconcile_plan(s, [unnumbered(None, Action(ActionKind[a])) for a in actions.split()])
    assert not minimal_edit_repair(s, draft, budget=2).feasible
    result = minimal_edit_repair(s, draft, budget=3)
    assert result.feasible
    script, rows = _COST_3[actions]
    assert result.script.render() == script
    assert [(p.location, str(p.action), p.cargo, p.placed, p.battery) for p in result.plan.steps] == rows
    assert apply_script(s, draft, result.script.ops)[0] == result.plan


def _search_pin_cases(wall, grid, wall_draft, grid_draft):
    """(scenario, draft, budget) of the searches whose results are pinned."""
    cases = [(s, d, b) for s, d in [(wall, wall_draft), (grid, grid_draft)] for b in range(1, 5)]
    cases += [(s, fcfs_schedule(s)[1], 2) for s in battery_pressured_batch(2024, 50)]
    cases.append((_wall5(), wall_draft, 4))
    cases.append((wall, Plan(wall_draft.steps[:4] + wall_draft.steps[12:]), 4))
    s = _one_trip()
    for actions in sorted(_COST_3):
        draft, _ = reconcile_plan(s, [unnumbered(None, Action(ActionKind[a])) for a in actions.split()])
        cases.append((s, draft, 3))
    return cases


def test_search_results_are_pinned(wall, grid, wall_draft, grid_draft):
    # one digest over every byte the search hands out, for both styles
    digest = hashlib.sha256()
    for s, draft, budget in _search_pin_cases(wall, grid, wall_draft, grid_draft):
        for style in ("minimal", "conservative"):
            r = minimal_edit_repair(s, draft, budget, style=style)
            out = (
                r.feasible,
                r.script.render() if r.script else None,
                serialize_plan(r.plan) if r.plan else None,
                r.report.to_dict(),
                r.to_dict(),
            )
            digest.update(repr(out).encode())
    assert digest.hexdigest() == "11ac68381bfd20b7e8f1fbbd1faf11c1a983f30a1dc265813181958c2273160e"
