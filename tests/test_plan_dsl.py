import ast
import hashlib
import math
import random
import re
from pathlib import Path

import parse_oracle
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
from conftest import scenario_doc
from edit_oracle import unnumbered
from foreman.repair import reconcile_plan
from foreman.scenario import load_scenario_dict
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


def test_grammar_doc_lists_the_action_names_in_order():
    doc = (Path(__file__).parents[1] / "docs" / "GRAMMAR.md").read_text(encoding="utf-8")
    names = re.search(r"^Action names: `([^`]*)`", doc, re.MULTILINE)[1].split()
    assert names == [k.value for k in ActionKind]


def test_step_index_error_names_the_index_as_a_number():
    first = "STEP 1, [S], MOVE_S, [0], 0, [75]\n"
    for index, reason in [("03", "step index 3 (expected 2"), ("-0", "step index 0 (expected 2")]:
        with pytest.raises(SchemaError) as exc:
            parse_plan(first + f"STEP {index}, [B], BUILD, [0], 3, [50]")
        assert exc.value.reason == reason + " for robot <default>)"


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
def test_executor_generated_plans_round_trip(rate, weight, kinds):
    # state columns written by the executor under fractional rates and edge
    # weights parse back to the same plan, which validates the same way
    doc = scenario_doc("wall_assembly")
    doc["cost"]["battery_per_du"] = rate
    doc["site"]["edges"][0][2] = weight
    s = load_scenario_dict(doc, name="rates")
    plan, _ = reconcile_plan(s, [unnumbered(None, Action(k)) for k in kinds])
    again = parse_plan(serialize_plan(plan))
    assert again == plan
    assert validate(s, again) == validate(s, plan)


# ---------------------------------------------------------------------------
# The one-regex parser against the field-by-field parser it replaced
# ---------------------------------------------------------------------------

_PREFIXED_STEP_RE = re.compile(r"^(\s*[A-Za-z_][\w+-]*\s*:\s*)(?i:STEP)\b")
_OUT_OF_GRAMMAR_RE = re.compile(
    r"line (\d+): (?:(INTERNAL_CARGO|PLACED_BRICKS) is not an integer"
    r"|(REMAINING_BATTERY) is not a finite decimal|bad step field): ('.*'|\".*\")",
    re.DOTALL,
)


def _outcome(parse, text):
    try:
        return parse(text)
    except SchemaError as e:
        return str(e)
    except IndexError:
        return IndexError


def _error_line(outcome):
    return int(outcome.split(":")[0].split()[1]) if isinstance(outcome, str) else math.inf


def _nests(line: str) -> bool:
    depth = 0
    for ch in line:
        depth = depth + 1 if ch == "(" else max(0, depth - 1) if ch == ")" else depth
        if depth > 1:
            return True
    return False


def _allowed_difference(old, new, text) -> bool:
    """Whether ``new`` differs from ``old`` only by a documented change.

    - Numbers outside the grammar are errors: ``+``, ``_`` and non-ASCII
      digits in STEP, INTERNAL_CARGO and PLACED_BRICKS, and non-ASCII
      digits in REMAINING_BATTERY.  The old parser took them (or failed on
      a later field or line).
    - Parentheses inside a location or NAVIGATE target do not nest.
    - An empty action field is a SchemaError, not an IndexError.
    """
    if not isinstance(new, str) or _error_line(old) < _error_line(new):
        return False
    n = _error_line(new)
    if old is IndexError and new.endswith(": empty action"):
        return True
    if m := _OUT_OF_GRAMMAR_RE.fullmatch(new):
        raw = ast.literal_eval(m[4])  # the message quotes the field's repr
        if m[3]:  # the battery's "+" sign is in the grammar
            parse_oracle._parse_decimal(raw, n, m[3])
            return bool(re.search(r"(?![0-9])\d", raw))
        if m[2]:
            parse_oracle._parse_int(raw, n, m[2])
        else:
            assert parse_oracle._STEP_RE.match(raw)
        return bool(re.search(r"[+_]|(?![0-9])\d", raw))
    return new.endswith(": nested parentheses") and _nests(text.splitlines()[n - 1])


def _agree(text) -> bool:
    """Assert that both parsers read ``text`` alike, up to
    ``_allowed_difference``; return whether the new parser accepted it.

    The old parser wants an upper-case ``STEP`` after a robot prefix, so it
    reads ``text`` with that keyword upper-cased; messages then compare
    case-blind.
    """
    lines = text.splitlines()
    upper = "\n".join(_PREFIXED_STEP_RE.sub(r"\1STEP", line) for line in lines)
    old, new = _outcome(parse_oracle.parse_plan, upper), _outcome(parse_plan, text)
    if old == new or upper != "\n".join(lines) and isinstance(old, str) and old.lower() == str(new).lower():
        return not isinstance(new, str)
    assert _allowed_difference(old, new, upper), (text, old, new)
    return False


_SEED_LINES = (
    "STEP 1, [B], BUILD, [0], 3, [50]",
    "STEP 1, B, IDLE, 0, 0, 100",
    "STEP 1, [ S ], [ MOVE_S ], [ 0 ] , [ 12 ], [ -12.5 ]",
    "STEP 1, [(2,2)], SCAN, [0], 0, [40]",
    "STEP 1, ( 1 , 2 ), MOVE_Up, 0, 0, 1e-05",
    "r1+r2: STEP 1, [B], CO_CARRY, [0], 0, [100]",
    "r1: step 1, [S], PICK, [3], 0, [100]",
    "STEP 1, [C], NAVIGATE C, [0], 0, [75]",
    "STEP 1, [(0,1)], [NAVIGATE (0,1)], [0], 0, [2.5E+1]",
    "step 1, [B], MARK_LAYOUT, [-0], 0, [+7.25]",
    "STEP 1, [((1,2),3)], NAVIGATE a(b), [0], 0, [5]",
)
# inserted one at a time: delimiters, signs, digits (one Arabic-Indic), an
# exponent, the comment mark, letters, a no-break space and a line separator
_INSERTS = " \t,[]()-+_07.e:#Bs٣ \x1c"


def _mutations(line: str) -> list[str]:
    out = []
    for i in range(len(line)):
        out += [line[:i] + line[i + 1:], line[:i], line[i:]]
    for i in range(len(line) + 1):
        out += [line[:i] + c + line[i:] for c in _INSERTS]
    return out


def test_parser_agrees_with_the_field_by_field_parser_on_mutated_lines():
    rng = random.Random(2024)
    texts = []
    for line in _SEED_LINES:
        once = _mutations(line)
        texts += once
        # as the second step of the default robot
        texts += ["STEP 1, [S], MOVE_S, [0], 0, [75]\n" + t.replace("1", "2", 1) for t in once[::4]]
        for t in rng.choices(once, k=6000):  # a second mutation
            i = rng.randrange(len(t) + 1)
            texts.append(t[:i] + rng.choice(_INSERTS) + t[i:] if rng.random() < 0.7 else t[:i] + t[i + 1:])
    accepted = sum(_agree(t) for t in texts)
    assert len(texts) > 75_000 and accepted > 8_000


_FIELD_TEXT = {
    "prefix": ["", "", "r1: ", "r1+r2: ", "r2 :", "_x+: ", "9r: "],
    "keyword": ["STEP", "step", "Step", "STEP_", "STE P"],
    "index": ["1", "2", "01", "-1", "0", "+1", "1_0", "١", "x", ""],
    "location": ["B", "[B]", "[ B ]", "(2,2)", "[( 0 , 1 )]", "[]", "", "[B", "B]", "((1,2))", "(1,2", "a b"],
    "action": ["PICK", "[BUILD]", "NAVIGATE C", "[NAVIGATE (1,1)]", "NAVIGATE", "FLY", "pick", "IDLE x", "", "[ ]"],
    "count": ["0", "[3]", "[ 12 ]", "-0", "-2", "+3", "1_0", "٣", "3.0", "[3", ""],
    "battery": ["50", "[75]", "-12.5", "[1e-05]", "+2.5E+1", "1e999", "nan", ".5", "٥٠", "[5", ""],
}


@st.composite
def _step_lines(draw):
    pick = lambda key: draw(st.sampled_from(_FIELD_TEXT[key]))  # noqa: E731
    sep = draw(st.sampled_from([", ", ",", " , ", ",\t"]))
    fields = [pick("keyword") + " " + pick("index"), pick("location"), pick("action"),
              pick("count"), pick("count"), pick("battery")]
    fields = fields[: draw(st.integers(4, 6))] + [pick("count")] * draw(st.integers(0, 1))
    return pick("prefix") + sep.join(fields)


@given(st.lists(_step_lines(), min_size=1, max_size=3))
@example(["STEP \u0661, B, , 0, 0, 0"])  # the old parser fails on the empty action after the STEP field
@settings(max_examples=200, deadline=None)
def test_parser_agrees_with_the_field_by_field_parser_on_generated_lines(lines):
    _agree("\n".join(lines))


def test_out_of_grammar_lines_are_schema_errors():
    for text, reason in [
        ("STEP 1, [B], BUILD, [+3], 3, [50]", "INTERNAL_CARGO is not an integer: '[+3]'"),
        ("STEP 1, [B], BUILD, [0], 1_0, [50]", "PLACED_BRICKS is not an integer: '1_0'"),
        ("STEP ١, [B], BUILD, [0], 3, [50]", "bad step field: 'STEP ١'"),
        ("STEP 1, [B], BUILD, [0], 3, [٥٠]", "REMAINING_BATTERY is not a finite decimal: '[٥٠]'"),
        ("STEP 1, [B], , [0], 3, [50]", "empty action"),
        ("STEP 1, [((1,2))], BUILD, [0], 3, [50]", "nested parentheses"),
    ]:
        with pytest.raises(SchemaError) as exc:
            parse_plan(text)
        assert exc.value.reason == reason
    assert parse_plan("STEP 1, [B], BUILD, [-0], 3, [+50]").steps[0].battery == 50.0


def test_lower_case_step_after_a_robot_prefix():
    upper = parse_plan("r1: STEP 1, A, PICK, 3, 0, 50\nr1+r2: STEP 2, [B], CO_CARRY, [3], 0, [25]")
    lower = parse_plan("r1: step 1, A, PICK, 3, 0, 50\nr1+r2 :Step 2, [B], CO_CARRY, [3], 0, [25]")
    assert lower == upper and lower.steps[1].coalition == ("r1", "r2")


# The SHA-256 of every parse outcome on the single mutations of the seed
# lines, recorded on the parser before its patterns were shared with the
# error wording and the preamble stripper.
_OUTCOMES_SHA256 = "8a7e896770df3fdc5615e14d9f730cfe984b1ee64d6316fca8075ebdccf1d207"


def test_parser_outcomes_are_pinned():
    digest = hashlib.sha256()
    texts = [t for line in _SEED_LINES for t in _mutations(line)]
    for text in texts:
        digest.update(repr(_outcome(parse_plan, text)).encode("utf-8") + b"\n")
    assert len(texts) > 8_000
    assert digest.hexdigest() == _OUTCOMES_SHA256
