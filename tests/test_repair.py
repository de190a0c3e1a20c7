import json
import time

from hypothesis import given, settings, strategies as st

from foreman import repair
from foreman.executor import execute, makespan
from foreman.experiment import battery_pressured_batch
from foreman.fcfs import fcfs_schedule
from foreman.plan import Action, ActionKind, Plan, parse_plan
from foreman.repair import (
    EditKind,
    SearchSupervisor,
    StepTemplate,
    SupervisorError,
    apply_script,
    edit_script,
    minimal_edit_repair,
    plan_templates,
    reconcile_plan,
    repair_loop,
)
from foreman.scenario import load_scenario_dict, serialize_scenario
from foreman.validator import ALL_CHECKS, ViolationClass as VC, validate


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


def test_stranded_robot_is_infeasible_within_budget(wall):
    # 10% battery cannot afford any move (25%/DU) and the dock is a move
    # away: exhaustive search over small scripts proves infeasibility
    doc = json.loads(serialize_scenario(wall))
    doc["robots"][0]["battery_init"] = 10
    doc["robots"][0]["battery_max"] = 10
    weak = load_scenario_dict(doc, name="weak")
    prefix = Plan(parse_plan(
        "STEP 1, [S], MOVE_S, [0], 0, [75]\nSTEP 2, [S], PICK, [3], 0, [75]\n"
    ).steps)
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
    assert apply_script(grid, grid_draft, conservative.script) == conservative.plan


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


def test_repair_loop_with_canned_plan_supervisor(wall, wall_draft, wall_llama):
    class Canned:
        name = "canned"

        def propose(self, s, draft, report, iteration):
            return wall_llama

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
    templates = [StepTemplate(None, Action(K.MOVE_S)), StepTemplate(None, Action(K.PICK))]
    templates += [StepTemplate("r1", Action(K.MOVE_B)), StepTemplate("r1", Action(K.BUILD))]
    plan, trace = reconcile_plan(wall, templates)
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
    assert script.profile.total() == 0


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
        assert apply_script(s, draft, result.script) == result.plan
        positions = [op.position for op in result.script.ops if op.kind is EditKind.Insert]
        same_gap_inserts += len(positions) - len(set(positions))
    assert same_gap_inserts  # 3 tasks at 100% needs two inserts in one gap


def test_applying_alignment_script_reproduces_target(wall, wall_draft, wall_gemma, wall_mistral):
    for target in (wall_gemma, wall_mistral):
        script = edit_script(wall_draft, target)
        assert apply_script(wall, wall_draft, script) == target


def test_runtime_budgets(wall, grid, wall_draft, grid_draft):
    t0 = time.monotonic()
    minimal_edit_repair(wall, wall_draft, budget=4)
    assert time.monotonic() - t0 < 5.0
    t0 = time.monotonic()
    minimal_edit_repair(grid, grid_draft, budget=4)
    assert time.monotonic() - t0 < 5.0
