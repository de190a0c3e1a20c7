import copy
import hashlib
import itertools
import json
import random

from brute_oracle import brute_feasible
from conftest import scenario_doc
from edit_oracle import unnumbered
from foreman.plan import Action, ActionKind, parse_plan
from foreman.repair import minimal_edit_repair, reconcile_plan
from foreman.scenario import load_scenario, load_scenario_dict
from foreman.validator import (
    ALL_CHECKS,
    CheckState,
    HintKind,
    Monitor,
    ViolationClass as VC,
    parse_check_names,
    validate,
    validate_text,
)
from test_acceptance import BRUTE_WORLD, MICRO_WORLD, _MICRO_ALPHABET


def test_exp1_draft_battery_violations(wall, wall_draft):
    report = validate(wall, wall_draft, ALL_CHECKS)
    assert not report.feasible
    assert report.psi >= 1
    battery = report.by_class(VC.Battery)
    assert battery, "draft must carry battery-class violations"
    assert report.classes() == {VC.Battery}  # energy is the only failure mode
    assert all(v.step >= 9 for v in battery)


def test_exp2_draft_coverage_violation_with_hint(grid, grid_draft):
    report = validate(grid, grid_draft, ALL_CHECKS)
    assert not report.feasible
    cov = report.by_class(VC.Coverage)
    assert len(cov) == 1
    assert "(2,0)" in cov[0].detail
    assert cov[0].hint.kind is HintKind.InsertAfter
    assert cov[0].hint.suggested_action is ActionKind.SCAN


def test_corrected_fixtures_are_feasible(wall, grid, wall_gemma, wall_llama, wall_mistral, grid_gemma, grid_llama, grid_mistral):
    for s, plan in [
        (wall, wall_gemma), (wall, wall_llama), (wall, wall_mistral),
        (grid, grid_gemma), (grid, grid_llama), (grid, grid_mistral),
    ]:
        report = validate(s, plan, ALL_CHECKS)
        assert report.feasible and report.psi == 0


def test_schema_only_leaves_drafts_clean(wall, grid, wall_draft, grid_draft):
    # well-formed command strings, unchanged failure modes
    for s, plan in [(wall, wall_draft), (grid, grid_draft)]:
        report = validate(s, plan, {VC.Schema})
        assert report.psi == 0
        report_full = validate(s, plan, ALL_CHECKS)
        assert not report_full.feasible


def test_battery_only_ablation(wall, wall_draft):
    report = validate(wall, wall_draft, {VC.Battery})
    assert report.classes() == {VC.Battery}


def test_coverage_only_ablation(grid, grid_draft):
    report = validate(grid, grid_draft, {VC.Coverage})
    assert report.classes() == {VC.Coverage}
    assert report.psi == 1


def test_psi_counts_classes_not_violations(wall, wall_draft):
    report = validate(wall, wall_draft, ALL_CHECKS)
    assert len(report.by_class(VC.Battery)) > 1
    assert report.psi == 1


def test_coverage_groups_under_safety_for_psi(grid, grid_draft):
    merged = validate(grid, grid_draft, ALL_CHECKS)
    assert merged.psi == 1  # no safety violation to collide with
    # force a collision: a no-go cell on the draft path, so the plan now has
    # one Safety and one Coverage violation
    doc = scenario_doc("scan_grid")
    doc["site"]["no_go"] = [[0, 1]]
    risky = load_scenario_dict(doc, name="risky")
    m = validate(risky, grid_draft, ALL_CHECKS)
    assert {v.cls for v in m.violations} == {VC.Safety, VC.Coverage}
    assert m.psi == 1  # five-element-vector parity: coverage folds into safety


def test_monotonicity_in_checks(wall, wall_draft, grid, grid_draft):
    rng = random.Random(3)
    classes = sorted(ALL_CHECKS, key=lambda c: c.value)
    for s, plan in [(wall, wall_draft), (grid, grid_draft)]:
        for _ in range(20):
            k = rng.randint(0, len(classes))
            small = frozenset(rng.sample(classes, k))
            extra = frozenset(rng.sample(classes, rng.randint(0, len(classes))))
            big = small | extra
            psi_small = validate(s, plan, small).psi
            psi_big = validate(s, plan, big).psi
            assert psi_small <= psi_big


def test_battery_soundness_vs_executor(wall):
    # battery-class violation exists iff a trace battery value dips below
    # zero or a CHARGE happens away from the charging dock
    rng = random.Random(11)
    kinds = [ActionKind.MOVE_S, ActionKind.MOVE_B, ActionKind.MOVE_C,
             ActionKind.PICK, ActionKind.BUILD, ActionKind.CHARGE, ActionKind.IDLE]
    for _ in range(300):
        actions = [Action(rng.choice(kinds)) for _ in range(rng.randint(1, 8))]
        plan, trace = reconcile_plan(wall, [unnumbered(None, a) for a in actions])
        report = validate(wall, plan, ALL_CHECKS, trace=trace)
        has_battery_class = bool(report.by_class(VC.Battery))
        negative = any(e.battery < 0 for e in trace.entries)
        bad_charge = (trace.error is not None and trace.error.kind == "bad_charge") or any(
            e.step.action.kind is ActionKind.CHARGE and e.location not in wall.site.chargers
            for e in trace.entries
        )
        assert has_battery_class == (negative or bad_charge)


def test_unexecutable_plan_never_crashes(wall):
    plan = parse_plan("STEP 1, [S], MOVE_S, [0], 0, [75]\nSTEP 2, [S], MOVE_S, [0], 0, [75]\n")
    report = validate(wall, plan, ALL_CHECKS)
    assert not report.feasible
    assert not report.checks_completed
    assert any("unexecutable" in v.detail for v in report.violations)


def test_validate_text_schema_error_line():
    from foreman.scenario import load_scenario_dict

    s = load_scenario_dict(
        {
            "instruction": "x",
            "site": {"kind": "named_graph", "nodes": ["A"], "edges": []},
            "robots": [{"id": "r1", "skills": ["IDLE"], "payload_capacity": 0, "start_location": "A"}],
            "tasks": [],
            "dag": [],
            "cost": {},
            "resources": {},
        }
    )
    text = (
        "STEP 1, [A], IDLE, [0], 0, [100]\n"
        "STEP 2, [A], IDLE, [0], 0, [100]\n"
        "STEP 3, [A], WIBBLE, [0], 0, [100]\n"
    )
    report = validate_text(s, text)
    assert report.classes() == {VC.Schema}
    assert report.violations[0].step == 3
    assert not report.feasible


def test_validate_text_duplicate_step_is_schema_violation(wall):
    text = "STEP 5, [S], IDLE, [0], 0, [100]\nSTEP 5, [S], IDLE, [0], 0, [100]\n"
    report = validate_text(wall, text)
    assert report.classes() == {VC.Schema}


def test_validate_text_matches_validate_on_clean_text(wall, fix_dir):
    text = (fix_dir / "plans" / "wall_assembly.gemma.plan").read_text()
    from foreman.plan import parse_plan as pp

    assert validate_text(wall, text).to_dict() == validate(wall, pp(text)).to_dict()


def test_precedence_incomplete_and_order(wall):
    # build only 6 of 9 bricks: the third chained task never completes
    actions = [ActionKind.MOVE_S, ActionKind.PICK, ActionKind.MOVE_B, ActionKind.BUILD,
               ActionKind.MOVE_C, ActionKind.CHARGE, ActionKind.MOVE_S, ActionKind.PICK,
               ActionKind.MOVE_B, ActionKind.BUILD]
    plan, _ = reconcile_plan(wall, [unnumbered(None, Action(a)) for a in actions])
    report = validate(wall, plan, {VC.Precedence})
    assert [v for v in report.violations if "build_3" in v.detail]


def test_misplaced_build_is_capacity_violation(wall):
    actions = [ActionKind.MOVE_S, ActionKind.PICK, ActionKind.MOVE_C, ActionKind.BUILD]
    plan, _ = reconcile_plan(wall, [unnumbered(None, Action(a)) for a in actions])
    report = validate(wall, plan, {VC.Capacity})
    assert report.by_class(VC.Capacity)


def test_overbuild_is_capacity_violation():
    doc = scenario_doc("wall_assembly")
    doc["resources"]["S"] = 12  # spare bricks allow a fourth delivery
    rich = load_scenario_dict(doc, name="rich")
    actions = [ActionKind.MOVE_S, ActionKind.PICK, ActionKind.MOVE_B, ActionKind.BUILD,
               ActionKind.MOVE_C, ActionKind.CHARGE] * 4
    plan, _ = reconcile_plan(rich, [unnumbered(None, Action(a)) for a in actions])
    report = validate(rich, plan, {VC.Capacity})
    assert any("exceeds demand" in v.detail for v in report.violations)


def test_safety_no_go_zone(grid_draft):
    doc = scenario_doc("scan_grid")
    doc["site"]["no_go"] = [[0, 1]]
    risky = load_scenario_dict(doc, name="risky")
    report = validate(risky, grid_draft, {VC.Safety})
    assert report.by_class(VC.Safety)


def test_capability_violation():
    from foreman.scenario import load_scenario_dict

    s = load_scenario_dict(
        {
            "instruction": "x",
            "site": {"kind": "named_graph", "nodes": ["A", "B"], "edges": [["A", "B", 1]], "chargers": []},
            "robots": [{"id": "r1", "skills": ["NAVIGATE"], "payload_capacity": 0, "start_location": "A"}],
            "tasks": [],
            "dag": [],
            "cost": {},
            "resources": {"A": 3},
        }
    )
    plan, _ = reconcile_plan(s, [unnumbered(None, Action(ActionKind.PICK))])
    report = validate(s, plan, {VC.Capability})
    assert report.by_class(VC.Capability)
    assert report.violations[0].hint.kind is HintKind.ReassignRobot


def test_every_violation_carries_a_hint(wall, grid, wall_draft, grid_draft):
    for s, plan in [(wall, wall_draft), (grid, grid_draft)]:
        for v in validate(s, plan, ALL_CHECKS).violations:
            assert v.hint is not None


def test_parse_check_names():
    assert parse_check_names("battery,coverage") == {VC.Battery, VC.Coverage}
    assert parse_check_names("all") == ALL_CHECKS
    import pytest

    with pytest.raises(ValueError):
        parse_check_names("bogus")


def _report_dict(checks, completed, psi, rows):
    return {
        "feasible": completed and psi == 0,
        "psi": psi,
        "checks_run": sorted(c.value for c in checks),
        "checks_completed": completed,
        "violations": [
            {"class": cls, "step": step, "detail": detail, "hint": hint}
            for cls, step, detail, hint in rows
        ],
    }


def test_whole_reports_are_pinned(grid_draft):
    """Every violation text, in report order, under all checks and a subset."""
    def task(id, kind, loc, demand=0):
        return {"id": id, "type": kind, "required_skills": [kind], "location": loc, "demand": demand, "duration": 1}

    s = load_scenario_dict(
        {
            "instruction": "x",
            "site": {
                "kind": "named_graph",
                "nodes": ["S", "B", "C", "D", "X"],
                "edges": [["S", "B", 1], ["B", "C", 1], ["C", "S", 1], ["C", "D", 1], ["D", "X", 1]],
                "no_go": ["X"],
                "chargers": ["C"],
            },
            "robots": [
                {"id": "r1", "skills": ["MOVE_S", "MOVE_B", "MOVE_C", "PICK", "BUILD", "CHARGE"],
                 "payload_capacity": 3, "battery_init": 100, "start_location": "C"},
                {"id": "r2", "skills": ["NAVIGATE", "INSPECT", "SCAN"],
                 "payload_capacity": 0, "battery_init": 60, "start_location": "C"},
            ],
            "tasks": [
                task("build_1", "BUILD", "B", 3), task("build_2", "BUILD", "B", 3),
                task("inspect_d", "INSPECT", "D"), task("reach_x", "NAVIGATE", "X"), task("scan_s", "SCAN", "S"),
            ],
            "dag": [["build_1", "build_2"], ["inspect_d", "reach_x"]],
            "cost": {"battery_per_du": 25, "tu_per_du": 1, "pick_build_tu_per_3mu": 1, "recharge_tu": 1},
            "resources": {"S": 12},
        },
        name="two_robots",
    )
    K = ActionKind

    def trip(to):
        return [K.MOVE_S, K.PICK, to, K.BUILD]

    steps = [unnumbered("r1", Action(k)) for k in trip(K.MOVE_B) + trip(K.MOVE_C) + [K.CHARGE]]
    steps.append(unnumbered("r1", Action(K.INSPECT), ("r1", "r2")))  # r2 brings the skill
    steps += [unnumbered("r1", Action(k)) for k in trip(K.MOVE_B) * 2]
    steps += [
        unnumbered("r2", a)
        for a in (Action(K.NAVIGATE, "D"), Action(K.NAVIGATE, "X"), Action(K.BUILD),
                  Action(K.NAVIGATE, "D"), Action(K.INSPECT))
    ]
    plan, _ = reconcile_plan(s, steps)
    precedence = [
        ("precedence", None, "task scan_s (SCAN at S) never completes", "insert_after SCAN @ step 18"),
        ("precedence", 2, "task reach_x completes before its prerequisite inspect_d", "swap_adjacent @ step 2"),
    ]
    capacity = [
        ("capacity", 8, "BUILD places 3 MU at C, which has no build task", "substitute IDLE @ step 8"),
        ("capacity", 18, "placed 9 MU at B exceeds demand 6", "substitute IDLE @ step 18"),
    ]
    safety = [
        ("safety", 2, "step enters no-go zone X", "substitute IDLE @ step 2"),
        ("safety", 3, "step enters no-go zone X", "substitute IDLE @ step 3"),
    ]
    everything = precedence + [
        ("capability", 3, "r2 lacks skill BUILD", "reassign_robot @ step 3"),
    ] + capacity + [
        ("battery", 4, "battery at -15% after NAVIGATE D", "insert_before CHARGE @ step 4"),
        ("battery", 5, "battery at -15% after INSPECT", "insert_before CHARGE @ step 5"),
    ] + safety
    assert validate(s, plan).to_dict() == _report_dict(ALL_CHECKS, True, 5, everything)
    subset = {VC.Capacity, VC.Safety, VC.Precedence}
    assert validate(s, plan, subset).to_dict() == _report_dict(subset, True, 3, precedence + capacity + safety)

    bad_charge, _ = reconcile_plan(s, [unnumbered("r1", Action(K.MOVE_S)), unnumbered("r1", Action(K.CHARGE))])
    unexecutable = [("battery", 2, "unexecutable: no charging station at S", "substitute IDLE @ step 2")]
    for checks in (ALL_CHECKS, subset):
        assert validate(s, bad_charge, checks).to_dict() == _report_dict(checks, False, 1, unexecutable)

    doc = scenario_doc("scan_grid")
    doc["site"]["no_go"] = [[0, 1]]
    risky = load_scenario_dict(doc, name="risky")
    grid_rows = [
        ("safety", 2, "step enters no-go zone (0,1)", "substitute IDLE @ step 2"),
        ("safety", 3, "step enters no-go zone (0,1)", "substitute IDLE @ step 3"),
        ("coverage", None, "cells never discovered: (2,0)", "insert_after SCAN @ step 7"),
    ]
    assert validate(risky, grid_draft).to_dict() == _report_dict(ALL_CHECKS, True, 1, grid_rows)
    assert validate(risky, grid_draft, subset).to_dict() == _report_dict(subset, True, 1, grid_rows[:2])


def test_coalition_member_outside_the_roster_is_unexecutable(wall):
    text = "r1+r9: STEP 1, [S], MOVE_S, [0], 0, [75]\n"
    unexecutable = [("schema", 1, "unexecutable: unknown robot 'r9'", "substitute IDLE @ step 1")]
    for checks in (ALL_CHECKS, {VC.Capability}, set()):
        assert validate_text(wall, text, checks).to_dict() == _report_dict(checks, False, 1, unexecutable)


# ---------------------------------------------------------------------------
# The monitor on criterion 7's micro world
# ---------------------------------------------------------------------------

_MICRO_CHECK_SETS = (
    ALL_CHECKS, frozenset({VC.Battery}), frozenset({VC.Precedence}), frozenset({VC.Capacity, VC.Safety}), frozenset(),
)


def _micro_worlds():
    """Criterion 7's micro world, and the same world with the robot and
    the bricks at B and a return to A that must follow the build: there a
    step at A before the build dooms the plan."""
    doc = copy.deepcopy(MICRO_WORLD)
    doc["robots"][0]["start_location"] = "B"
    doc["resources"] = {"B": 3}
    doc["tasks"].append({"id": "back_at_a", "type": "NAVIGATE", "required_skills": ["NAVIGATE"],
                         "location": "A", "demand": 0, "duration": 1})
    doc["dag"] = [["build_1", "back_at_a"]]
    return [load_scenario_dict(MICRO_WORLD, name="micro"), load_scenario_dict(doc, name="micro_return")]


def _micro_plans(s):
    """Every plan of up to five micro-world actions, with its trace."""
    for length in range(6):
        for combo in itertools.product(_MICRO_ALPHABET, repeat=length):
            plan, trace = reconcile_plan(s, [unnumbered(None, Action(ActionKind(k), t)) for k, t in combo])
            yield combo, plan, trace


def test_micro_world_reports_are_pinned():
    # every report over both micro worlds and five check sets; the digest
    # was recorded when the checks ran as one walk over the trace
    digest = hashlib.sha256()
    for s in _micro_worlds():
        for _, plan, trace in _micro_plans(s):
            for checks in _MICRO_CHECK_SETS:
                digest.update(json.dumps(validate(s, plan, checks, trace=trace).to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == "a6de55837c47d7711de4d3a07d793aba5f8bb6e5b98e366b772abd19631dd808"


def test_a_prefix_the_monitor_flags_never_validates():
    # a step violation of a checked class, or a task done before its
    # prerequisite, flags the prefix: every plan extending it must fail
    # validate under the same checks (and, on the micro world with every
    # check, the brute-force oracle)
    flagged = {"violation": 0, "doomed": 0}
    feasible = 0
    for s in _micro_worlds():
        for combo, plan, trace in _micro_plans(s):
            for checks in _MICRO_CHECK_SETS:
                monitor, state = Monitor(s, checks), CheckState({}, {})
                why = None
                for e in trace.entries:
                    if monitor.step(state, e):
                        why = "violation"
                    elif state.doomed:
                        why = "doomed"
                    if why:
                        break
                report = validate(s, plan, checks, trace=trace)
                feasible += report.feasible
                if why:
                    flagged[why] += 1
                    assert not report.feasible, (s.name, combo, sorted(c.value for c in checks))
                    if s.name == "micro" and checks == ALL_CHECKS:
                        assert not brute_feasible(BRUTE_WORLD, list(combo)), combo
    assert all(flagged.values()) and feasible


def test_one_monitor_per_scenario_and_check_set(fix_dir, wall_draft, monkeypatch):
    # a monitor keeps no run state, so validate and the search share one
    # per (scenario, check set); a fresh scenario has none built yet
    s = load_scenario(fix_dir / "wall_assembly.scn.json")
    built = []
    init = Monitor.__init__

    def counted(self, s, checks):
        built.append(checks)
        init(self, s, checks)

    monkeypatch.setattr(Monitor, "__init__", counted)
    battery = frozenset({VC.Battery})
    for _ in range(3):
        for checks in (ALL_CHECKS, battery):
            validate(s, wall_draft, checks)
            validate(s, wall_draft, set(checks))
    assert built == [ALL_CHECKS, battery]
    assert minimal_edit_repair(s, wall_draft, budget=2, checks=battery).feasible
    assert built == [ALL_CHECKS, battery]
