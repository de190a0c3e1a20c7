"""The path that rejects a plan leaves no work for the garbage collector.

An ``ExecError`` kept with its traceback holds the frames that raised it,
and through them every caller's frame; a caller that keeps the Trace in a
local then closes a reference cycle that only the collector frees.  Each
check below disables the collector, runs one rejecting path and asserts
that ``gc.collect()`` finds nothing.

The module needs no pytest: ``python tests/test_collector.py`` (with
``src`` on ``PYTHONPATH``) runs every check and prints what each left.
"""

import gc
import json

from foreman.executor import execute
from foreman.experiment import fixtures_dir
from foreman.plan import parse_plan
from foreman.repair import minimal_edit_repair, reconcile_plan
from foreman.scenario import load_scenario, load_scenario_dict
from foreman.validator import validate

_WALL_PICK_AT_C = "STEP 1, [S], PICK, [3], 0, [100]\n"  # the robot starts at C, which has no stockpile
_GRID_OFF_GRID = "STEP 1, [(0,0)], MOVE_Down, [0], 0, [85]\n"
_TWO_ROBOTS_PICK_AT_C = (
    "r1: STEP 1, [S], MOVE_S, [0], 0, [75]\n"
    "r2: STEP 1, [S], PICK, [3], 0, [100]\n"
    "r1: STEP 2, [S], PICK, [3], 0, [75]\n"
)


def _scenario(name):
    return load_scenario(fixtures_dir() / f"{name}.scn.json")


def _draft(name):
    return parse_plan((fixtures_dir() / "plans" / f"{name}.draft.plan").read_text(encoding="utf-8"))


def _left_for_the_collector(run) -> int:
    """The objects ``gc.collect()`` frees after ``run()``, with the
    collector kept off from a clean start until then."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def _assert_none_left(run, what=""):
    left = _left_for_the_collector(run)
    assert left == 0, f"{what}{left} objects left for the collector"


def _repeat(n, call, *args):
    def run():
        for _ in range(n):
            call(*args)

    return run


def test_validate_on_an_unexecutable_wall_plan_leaves_no_cycle():
    wall, plan = _scenario("wall_assembly"), parse_plan(_WALL_PICK_AT_C)
    assert execute(wall, plan).error.kind == "bad_pick"
    _assert_none_left(_repeat(100, validate, wall, plan))


def test_validate_on_an_off_grid_plan_leaves_no_cycle():
    grid, plan = _scenario("scan_grid"), parse_plan(_GRID_OFF_GRID)
    assert execute(grid, plan).error.kind == "bad_move"
    _assert_none_left(_repeat(20, validate, grid, plan))


def test_reconcile_plan_on_failing_steps_leaves_no_cycle():
    grid, steps = _scenario("scan_grid"), list(parse_plan(_GRID_OFF_GRID).steps)
    assert reconcile_plan(grid, steps)[1].error is not None
    _assert_none_left(_repeat(20, reconcile_plan, grid, steps))


def test_an_unexecutable_two_robot_plan_leaves_no_cycle():
    doc = json.loads((fixtures_dir() / "wall_assembly.scn.json").read_text(encoding="utf-8"))
    doc["robots"].append(dict(doc["robots"][0], id="r2"))
    two, plan = load_scenario_dict(doc, name="two"), parse_plan(_TWO_ROBOTS_PICK_AT_C)
    assert execute(two, plan).error.robot == "r2"
    _assert_none_left(_repeat(1, validate, two, plan))


def test_the_search_on_both_fixture_drafts_leaves_no_cycle():
    for name in ("wall_assembly", "scan_grid"):
        s, draft = _scenario(name), _draft(name)
        _assert_none_left(_repeat(1, minimal_edit_repair, s, draft), f"{name}: ")


if __name__ == "__main__":
    import sys

    failed = 0
    for name, check in sorted(globals().items()):
        if name.startswith("test_"):
            try:
                check()
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
            else:
                print(f"ok   {name}")
    sys.exit(1 if failed else 0)
