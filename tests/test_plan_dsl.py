import json

import pytest
from hypothesis import example, given, settings, strategies as st

from foreman.plan import (
    Action,
    ActionKind,
    Plan,
    PlanStep,
    SchemaError,
    parse_plan,
    serialize_plan,
    tokenize_plan,
    tokenize_plan_full,
)
from foreman.repair import StepTemplate, reconcile_plan
from foreman.scenario import load_scenario_dict, serialize_scenario
from foreman.validator import validate


def test_parse_canonical_step_line():
    plan = parse_plan("STEP 1, [B], BUILD, [0], 3, [50]")
    s = plan.steps[0]
    assert s.step == 1
    assert s.location == "B"
    assert s.action == Action(ActionKind.BUILD)
    assert s.cargo == 0
    assert s.placed == 3
    assert s.battery == 50.0


def test_parse_empty_text_is_empty_plan():
    assert len(parse_plan("")) == 0
    assert len(parse_plan("\n  \n# comment only\n")) == 0


def test_unknown_action_is_schema_error():
    with pytest.raises(SchemaError) as exc:
        parse_plan("STEP 1, [B], FLY, [0], 0, [100]")
    assert "FLY" in str(exc.value)
    assert exc.value.line == 1


def test_bracket_tolerance():
    bare = parse_plan("STEP 1, B, IDLE, 0, 0, 100")
    boxed = parse_plan("STEP 1, [B], IDLE, [0], 0, [100]")
    assert bare == boxed


def test_negative_battery_is_accepted_as_claimed_state():
    # raw trace transcriptions record battery underflow verbatim; range
    # enforcement is the validator's job, not the parser's
    plan = parse_plan("STEP 1, [S], MOVE_S, [0], 0, [-25]")
    assert plan.steps[0].battery == -25.0


def test_fractional_battery_parses_in_plain_and_exponent_form():
    for text, value in [("[87.5]", 87.5), ("-12.5", -12.5), ("[1e-05]", 1e-05), ("2.5E+1", 25.0)]:
        assert parse_plan(f"STEP 1, [S], MOVE_S, [0], 0, {text}").steps[0].battery == value
    for text in ("nan", "[inf]", "-inf", "1e999", "1.", ".5", "1e", "0x10"):
        with pytest.raises(SchemaError) as exc:
            parse_plan(f"STEP 1, [S], MOVE_S, [0], 0, {text}")
        assert "REMAINING_BATTERY" in exc.value.reason


def test_non_consecutive_step_index_rejected():
    text = "STEP 1, [B], IDLE, [0], 0, [100]\nSTEP 3, [B], IDLE, [0], 0, [100]"
    with pytest.raises(SchemaError) as exc:
        parse_plan(text)
    assert exc.value.line == 2


def test_duplicated_step_index_rejected():
    text = "STEP 5, [B], IDLE, [0], 0, [100]"
    with pytest.raises(SchemaError):
        parse_plan(text + "\n" + text)


def test_wrong_field_count_rejected():
    with pytest.raises(SchemaError):
        parse_plan("STEP 1, [B], IDLE, [0], 0")


def test_navigate_requires_target():
    plan = parse_plan("STEP 1, [B], NAVIGATE B, [0], 0, [100]")
    assert plan.steps[0].action == Action(ActionKind.NAVIGATE, "B")
    with pytest.raises(SchemaError):
        parse_plan("STEP 1, [B], NAVIGATE, [0], 0, [100]")


def test_grid_cell_locations_survive_comma_splitting():
    plan = parse_plan("STEP 1, [(2,2)], SCAN, [0], 0, [40]")
    assert plan.steps[0].location == "(2,2)"


def test_multi_robot_prefix_and_grouping():
    text = (
        "r1: STEP 1, [S], PICK, [3], 0, [100]\n"
        "r1: STEP 2, [B], MOVE_B, [3], 0, [75]\n"
        "r2: STEP 1, [C], IDLE, [0], 0, [100]\n"
    )
    plan = parse_plan(text)
    assert plan.robots == ("r1", "r2")
    assert [st.robot for st in plan.steps] == ["r1", "r1", "r2"]
    assert serialize_plan(plan) == text


def test_interleaved_labels_serialize_in_line_order():
    text = (
        "r1: STEP 1, [S], PICK, [3], 0, [100]\n"
        "r2: STEP 1, [C], IDLE, [0], 0, [100]\n"
        "r1+r2: STEP 2, [B], CO_CARRY, [3], 0, [75]\n"
        "STEP 1, [B], BUILD, [0], 3, [75]\n"
        "r2: STEP 2, [C], IDLE, [0], 0, [100]\n"
    )
    plan = parse_plan(text)
    assert serialize_plan(plan) == text
    assert parse_plan(serialize_plan(plan)) == plan


def test_coalition_prefix():
    plan = parse_plan("r1+r2: STEP 1, [B], CO_CARRY, [0], 0, [100]")
    assert plan.steps[0].coalition == ("r1", "r2")
    assert plan.steps[0].robot == "r1"
    assert parse_plan(serialize_plan(plan)) == plan


def test_fixture_round_trip(fix_dir):
    for name in ("wall_assembly.draft.plan", "wall_assembly.gemma.plan", "scan_grid.mistral.plan"):
        text = (fix_dir / "plans" / name).read_text(encoding="utf-8")
        plan = parse_plan(text)
        assert parse_plan(serialize_plan(plan)) == plan
        assert serialize_plan(plan) == text  # fixtures are stored canonically


def test_tokenize_definition():
    plan = parse_plan("STEP 1, [B], BUILD, [0], 3, [50]")
    assert tokenize_plan(plan) == ["BUILD", "B"]


def test_tokenize_excludes_numeric_state(wall_draft):
    tokens = tokenize_plan(wall_draft)
    assert len(tokens) == 2 * len(wall_draft)
    assert "50" not in tokens and "-25" not in tokens
    full = tokenize_plan_full(wall_draft)
    assert len(full) == 5 * len(wall_draft)
    assert "-25" in full


_ACTIONS = st.sampled_from(
    [
        Action(ActionKind.MOVE_S),
        Action(ActionKind.MOVE_B),
        Action(ActionKind.PICK),
        Action(ActionKind.BUILD),
        Action(ActionKind.CHARGE),
        Action(ActionKind.IDLE),
        Action(ActionKind.SCAN),
        Action(ActionKind.NAVIGATE, "S"),
    ]
)


@st.composite
def plans(draw):
    n_robots = draw(st.integers(0, 2))
    robots = [None] if n_robots == 0 else [f"r{i+1}" for i in range(n_robots)]
    steps = []
    for robot in robots:
        k = draw(st.integers(1, 6))
        for idx in range(1, k + 1):
            steps.append(
                PlanStep(
                    step=idx,
                    robot=robot,
                    location=draw(st.sampled_from(["S", "B", "C", "(1,2)"])),
                    action=draw(_ACTIONS),
                    cargo=draw(st.integers(0, 5)),
                    placed=draw(st.integers(0, 12)),
                    battery=float(draw(st.integers(-100, 100))),
                )
            )
    return Plan(tuple(steps))


@given(plans())
@settings(max_examples=150, deadline=None)
def test_round_trip_property(plan):
    assert parse_plan(serialize_plan(plan)) == plan


@given(plans())
@settings(max_examples=60, deadline=None)
def test_pi_closure(plan):
    # any accepted text re-serializes to a text that is again accepted
    text = serialize_plan(plan)
    again = serialize_plan(parse_plan(text))
    parse_plan(again)
    assert again == text


@given(plans())
@settings(max_examples=60, deadline=None)
def test_tokenize_length(plan):
    assert len(tokenize_plan(plan)) == 2 * len(plan)


_RATES = st.one_of(
    st.integers(0, 60).map(float),
    st.floats(0.001, 60.0, allow_nan=False, allow_infinity=False),
)


@given(
    rate=_RATES,
    weight=st.floats(0.01, 5.0, allow_nan=False, allow_infinity=False),
    kinds=st.lists(
        st.sampled_from([ActionKind.MOVE_S, ActionKind.MOVE_B, ActionKind.MOVE_C, ActionKind.PICK,
                         ActionKind.BUILD, ActionKind.CHARGE, ActionKind.IDLE]),
        max_size=12,
    ),
)
@example(rate=12.5, weight=1.0, kinds=[ActionKind.MOVE_S, ActionKind.PICK, ActionKind.MOVE_B])
@settings(max_examples=150, deadline=None)
def test_executor_generated_plans_round_trip(wall, rate, weight, kinds):
    # state columns written by the executor under fractional rates and edge
    # weights parse back to the same plan, which validates the same way
    doc = json.loads(serialize_scenario(wall))
    doc["cost"]["battery_per_du"] = rate
    doc["site"]["edges"][0][2] = weight
    s = load_scenario_dict(doc, name="rates")
    plan, _ = reconcile_plan(s, [StepTemplate(None, Action(k)) for k in kinds])
    again = parse_plan(serialize_plan(plan))
    assert again == plan
    assert validate(s, again) == validate(s, plan)
