import random

from foreman.plan import Action, ActionKind, parse_plan
from foreman.repair import StepTemplate, reconcile_plan
from foreman.validator import (
    ALL_CHECKS,
    HintKind,
    ViolationClass as VC,
    parse_check_names,
    validate,
    validate_text,
)


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
    import json

    from foreman.scenario import load_scenario_dict, serialize_scenario

    doc = json.loads(serialize_scenario(grid))
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
        plan, trace = reconcile_plan(wall, [StepTemplate(None, a) for a in actions])
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
    plan, _ = reconcile_plan(wall, [StepTemplate(None, Action(a)) for a in actions])
    report = validate(wall, plan, {VC.Precedence})
    assert [v for v in report.violations if "build_3" in v.detail]


def test_misplaced_build_is_capacity_violation(wall):
    actions = [ActionKind.MOVE_S, ActionKind.PICK, ActionKind.MOVE_C, ActionKind.BUILD]
    plan, _ = reconcile_plan(wall, [StepTemplate(None, Action(a)) for a in actions])
    report = validate(wall, plan, {VC.Capacity})
    assert report.by_class(VC.Capacity)


def test_overbuild_is_capacity_violation(wall):
    import json

    from foreman.scenario import load_scenario_dict, serialize_scenario

    doc = json.loads(serialize_scenario(wall))
    doc["resources"]["S"] = 12  # spare bricks allow a fourth delivery
    rich = load_scenario_dict(doc, name="rich")
    actions = [ActionKind.MOVE_S, ActionKind.PICK, ActionKind.MOVE_B, ActionKind.BUILD,
               ActionKind.MOVE_C, ActionKind.CHARGE] * 4
    plan, _ = reconcile_plan(rich, [StepTemplate(None, Action(a)) for a in actions])
    report = validate(rich, plan, {VC.Capacity})
    assert any("exceeds demand" in v.detail for v in report.violations)


def test_safety_no_go_zone(grid, grid_draft):
    import json

    from foreman.scenario import load_scenario_dict, serialize_scenario

    doc = json.loads(serialize_scenario(grid))
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
    plan, _ = reconcile_plan(s, [StepTemplate(None, Action(ActionKind.PICK))])
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
