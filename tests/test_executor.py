import collections
import random

import pytest

from conftest import scenario_doc
from foreman.executor import ExecError, apply_step, execute, initial_state, makespan
from foreman.experiment import battery_pressured_batch
from foreman.plan import Action, ActionKind, Plan, PlanStep, parse_plan, serialize_plan
from foreman.scenario import load_scenario, load_scenario_dict


def test_figure_trace_prefix_through_step_4(wall, wall_draft):
    trace = execute(wall, wall_draft)
    e4 = trace.entries[3]
    assert (e4.location, e4.cargo, e4.placed_total, e4.battery) == ("B", 0, 3, 50.0)


def test_draft_arrives_at_build_area_with_zero_battery(wall, wall_draft):
    trace = execute(wall, wall_draft)
    e7 = trace.entries[6]
    assert e7.location == "B"
    assert e7.battery == 0.0


def test_corrected_step_7_battery_is_75(wall, wall_gemma):
    # after the early substituted charge, step 7 runs at 75% remaining
    trace = execute(wall, wall_gemma)
    assert trace.entries[6].battery == 75.0
    assert trace.entries[5].battery == 100.0  # the substituted CHARGE


def test_empty_plan(wall):
    trace = execute(wall, Plan(()))
    assert len(trace) == 0
    assert makespan(trace) == 0.0
    assert trace.final.placed_total == 0


def test_negative_battery_recorded_not_clamped(wall, wall_draft):
    trace = execute(wall, wall_draft)
    assert trace.error is None  # underflow never halts execution
    assert min(e.battery for e in trace.entries) == -75.0


def test_three_unit_moves_cost_three_tu(wall):
    plan = parse_plan(
        "STEP 1, [S], MOVE_S, [0], 0, [75]\n"
        "STEP 2, [B], MOVE_B, [0], 0, [50]\n"
        "STEP 3, [C], MOVE_C, [0], 0, [25]\n"
    )
    assert makespan(execute(wall, plan)) == 3.0


def test_determinism(wall, wall_draft):
    assert execute(wall, wall_draft) == execute(wall, wall_draft)


def test_move_along_nonexistent_edge_halts(wall):
    plan = parse_plan("STEP 1, [S], MOVE_S, [0], 0, [75]\nSTEP 2, [S], MOVE_S, [0], 0, [75]\n")
    trace = execute(wall, plan)
    assert trace.error is not None
    assert trace.error.kind == "bad_move"
    assert len(trace.entries) == 1  # partial trace attached


def test_charge_away_from_charger_halts(wall):
    plan = parse_plan("STEP 1, [S], MOVE_S, [0], 0, [75]\nSTEP 2, [S], CHARGE, [0], 0, [100]\n")
    trace = execute(wall, plan)
    assert trace.error is not None and trace.error.kind == "bad_charge"


def test_pick_at_non_stock_location_halts(wall):
    plan = parse_plan("STEP 1, [B], MOVE_B, [0], 0, [75]\nSTEP 2, [B], PICK, [0], 0, [75]\n")
    trace = execute(wall, plan)
    assert trace.error is not None and trace.error.kind == "bad_pick"


def test_pick_build_amounts_and_stock(wall):
    plan = parse_plan(
        "STEP 1, [S], MOVE_S, [0], 0, [75]\n"
        "STEP 2, [S], PICK, [3], 0, [75]\n"
        "STEP 3, [S], PICK, [3], 0, [75]\n"  # cargo full: vacuous, no TU
        "STEP 4, [B], MOVE_B, [3], 0, [50]\n"
        "STEP 5, [B], BUILD, [0], 3, [50]\n"
    )
    trace = execute(wall, plan)
    cargo = [wall.robots[0].cargo_init] + [e.cargo for e in trace.entries]
    # the first PICK loads 3 MU, the second none; the BUILD unloads them
    assert [after - before for before, after in zip(cargo, cargo[1:])] == [0, 3, 0, 0, -3]
    assert trace.entries[2].tu_cost == 0.0  # 1 TU per 3 MU: zero material, zero time
    assert trace.final.stock["S"] == 6
    assert trace.final.placed_at["B"] == 3


def test_vacuous_build_is_free_noop(wall):
    plan = parse_plan("STEP 1, [B], MOVE_B, [0], 0, [75]\nSTEP 2, [B], BUILD, [0], 0, [75]\n")
    trace = execute(wall, plan)
    assert trace.entries[1].placed_here == 0
    assert trace.entries[1].tu_cost == 0.0


def test_charge_resets_to_battery_max(wall, wall_draft):
    trace = execute(wall, wall_draft)
    charge_entries = [e for e in trace.entries if e.step.action.kind.value == "CHARGE"]
    assert all(e.battery == 100.0 for e in charge_entries)


def test_battery_conservation_on_fixtures(wall, grid, wall_draft, wall_gemma, wall_llama, wall_mistral, grid_draft, grid_llama):
    cases = [(wall, p) for p in (wall_draft, wall_gemma, wall_llama, wall_mistral)]
    cases += [(grid, p) for p in (grid_draft, grid_llama)]
    for scenario, plan in cases:
        trace = execute(scenario, plan)
        robot = scenario.robots[0]
        battery = robot.battery_init
        for e in trace.entries:
            if e.step.action.kind is ActionKind.CHARGE:
                assert e.battery == robot.battery_max
            else:
                assert e.battery == battery - e.du_cost * scenario.cost.battery_per_du
            battery = e.battery
        assert trace.final.robots[robot.id].battery == battery


def test_placed_bricks_monotone(wall, wall_draft):
    trace = execute(wall, wall_draft)
    placed = [e.placed_total for e in trace.entries]
    assert placed == sorted(placed)


def test_tu_additivity_single_robot(wall, wall_gemma):
    trace = execute(wall, wall_gemma)
    assert makespan(trace) == sum(e.tu_cost for e in trace.entries)


def test_makespan_deltas_for_corrected_fixtures(wall, wall_draft, wall_gemma, wall_llama, wall_mistral):
    base = makespan(execute(wall, wall_draft))
    assert makespan(execute(wall, wall_llama)) - base == 1.0
    assert makespan(execute(wall, wall_gemma)) - base == 1.0
    assert makespan(execute(wall, wall_mistral)) - base == 2.0


def test_grid_moves_and_battery(grid, grid_draft):
    trace = execute(grid, grid_draft)
    assert trace.entries[-1].location == "(2,2)"
    assert trace.entries[-1].battery == 100 - 4 * 15


def test_move_into_blocked_cell_halts(grid):
    plan = parse_plan("STEP 1, [(1,0)], MOVE_Right, [0], 0, [85]")
    trace = execute(grid, plan)
    assert trace.error is not None and trace.error.kind == "bad_move"


def test_move_off_grid_halts(grid):
    plan = parse_plan("STEP 1, [(0,0)], MOVE_Down, [0], 0, [85]")
    trace = execute(grid, plan)
    assert trace.error is not None


def test_coverage_draft_misses_corner(grid, grid_draft):
    trace = execute(grid, grid_draft)
    assert grid.site.traversable_cells() - trace.final.discovered == {(2, 0)}


def test_coverage_complete_after_inserted_scan(grid, grid_llama):
    trace = execute(grid, grid_llama)
    assert grid.site.traversable_cells() - trace.final.discovered == set()


def test_coverage_degenerate_grid():
    doc = {
        "instruction": "x",
        "site": {"kind": "grid", "width": 2, "height": 2, "blocked": [[0, 1], [1, 0], [1, 1]]},
        "robots": [{"id": "r1", "skills": ["SCAN"], "payload_capacity": 0, "start_location": "(0,0)"}],
        "tasks": [],
        "dag": [],
        "cost": {},
        "resources": {},
    }
    s = load_scenario_dict(doc)
    trace = execute(s, parse_plan("STEP 1, [(0,0)], SCAN, [0], 0, [100]"))
    assert s.site.traversable_cells() - trace.final.discovered == set()


def test_duplicate_scans_allowed_and_cost_tu(grid):
    plan = parse_plan(
        "STEP 1, [(0,0)], SCAN, [0], 0, [100]\nSTEP 2, [(0,0)], SCAN, [0], 0, [100]\n"
    )
    trace = execute(grid, plan)
    assert trace.error is None
    assert makespan(trace) == 2.0


def test_multi_robot_elapsed_and_makespan(wall):
    doc_text = (
        "r1: STEP 1, [S], MOVE_S, [0], 0, [75]\n"
        "r1: STEP 2, [B], MOVE_B, [0], 0, [50]\n"
        "r2: STEP 1, [S], MOVE_S, [0], 0, [75]\n"
    )
    two = load_scenario_dict(
        {
            "instruction": "x",
            "site": {"kind": "named_graph", "nodes": ["S", "B", "C"],
                     "edges": [["S", "B", 1], ["B", "C", 1], ["C", "S", 1]], "chargers": ["C"]},
            "robots": [
                {"id": "r1", "skills": ["MOVE_S", "MOVE_B"], "payload_capacity": 0, "start_location": "C"},
                {"id": "r2", "skills": ["MOVE_S"], "payload_capacity": 0, "start_location": "C"},
            ],
            "tasks": [],
            "dag": [],
            "cost": {},
            "resources": {},
        }
    )
    trace = execute(two, parse_plan(doc_text))
    assert makespan(trace) == 2.0  # max over robots, not the sum


def test_labels_bound_to_one_robot_run_in_line_order(wall):
    # r1: and unlabelled steps drive the same robot, so the plan runs as
    # written: pick at S, then carry the bricks to B and build
    plan = parse_plan(
        "r1: STEP 1, [S], MOVE_S, [0], 0, [75]\n"
        "r1: STEP 2, [S], PICK, [3], 0, [75]\n"
        "STEP 1, [B], MOVE_B, [3], 0, [50]\n"
        "STEP 2, [B], BUILD, [0], 3, [50]\n"
    )
    trace = execute(wall, plan)
    assert trace.error is None
    assert [e.step for e in trace.entries] == list(plan.steps)
    assert [e.placed_here for e in trace.entries] == [0, 0, 0, 3]
    assert trace.final.placed_total == 3


def test_interleaved_one_robot_plan_reads_back_with_the_same_trace(wall):
    # the written plan keeps its line order, so it runs as validated
    plan = parse_plan(
        "STEP 1, [S], MOVE_S, [0], 0, [75]\n"
        "r1: STEP 1, [S], PICK, [3], 0, [75]\n"
        "STEP 2, [B], MOVE_B, [3], 0, [50]\n"
        "r1: STEP 2, [B], BUILD, [0], 3, [50]\n"
    )
    again = parse_plan(serialize_plan(plan))
    assert again == plan
    trace = execute(wall, again)
    assert trace.error is None
    assert trace.final.placed_total == 3


def test_two_robots_take_turns_by_elapsed_then_id():
    # equal elapsed time breaks by robot id, whatever the line order
    doc = scenario_doc("wall_assembly")
    doc["robots"].append(dict(doc["robots"][0], id="r2"))
    two = load_scenario_dict(doc, name="two")
    plan = parse_plan(
        "r2: STEP 1, [S], MOVE_S, [0], 0, [75]\n"
        "r2: STEP 2, [S], PICK, [3], 0, [75]\n"
        "r1: STEP 1, [S], MOVE_S, [0], 0, [75]\n"
        "r1: STEP 2, [S], PICK, [3], 0, [75]\n"
    )
    trace = execute(two, plan)
    assert [(e.robot, e.step.step) for e in trace.entries] == [("r1", 1), ("r2", 1), ("r1", 2), ("r2", 2)]
    assert trace.final.stock == {"S": 3}

    # seeded plans over three robots, where r3 has no steps and every other
    # plan has a step that fails midway
    doc["robots"].append(dict(doc["robots"][0], id="r3"))
    doc["site"]["edges"] = [["S", "B", 1], ["B", "C", 2], ["C", "S", 0.5]]
    three = load_scenario_dict(doc, name="three")
    rng = random.Random(5)
    for trial in range(80):
        own = {r: _random_steps(rng, r, rng.randint(0, 6)) for r in ("r1", "r2")}
        failing = None
        if trial % 2:
            r = rng.choice(["r1", "r2"])
            k = rng.randint(0, len(own[r]))
            here = own[r][k - 1].location if k else "C"
            failing = PlanStep(0, r, here, Action(ActionKind(f"MOVE_{here}")), 0, 0, 0.0)  # already there
            own[r].insert(k, failing)
        order = rng.sample(["r1", "r2"] * 7, 14)
        counts = collections.Counter()
        lines = []
        for r in order:
            if own[r]:
                counts[r] += 1
                t = own[r].pop(0)
                lines.append(PlanStep(counts[r], t.robot, t.location, t.action, t.cargo, t.placed, t.battery, t.coalition))
        plan = Plan(tuple(lines))
        trace = execute(three, plan)
        left = {r: [st for st in plan.steps if st.robot == r] for r in ("r1", "r2")}
        elapsed = dict.fromkeys(left, 0.0)
        for e in trace.entries:
            turn = min((r for r in left if left[r]), key=lambda r: (elapsed[r], r))
            assert e.robot == turn and e.step == left[turn].pop(0), trial
            elapsed[turn] += e.tu_cost
        if failing:
            turn = min((r for r in left if left[r]), key=lambda r: (elapsed[r], r))
            assert (trace.error.robot, trace.error.step) == (turn, left[turn][0].step) == (failing.robot, k + 1)
        else:
            assert trace.error is None and not any(left.values())


def test_an_entry_counts_the_bricks_placed_at_its_location_so_far():
    # two robots build at B in turns, so their BUILDs interleave with each other's moves
    doc = scenario_doc("wall_assembly")
    doc["robots"].append(dict(doc["robots"][0], id="r2"))
    two = load_scenario_dict(doc, name="two")
    trip = ["MOVE_S, [0], 0, [75]", "PICK, [3], 0, [75]", "MOVE_B, [3], 0, [50]", "BUILD, [0], 3, [50]"]
    lines = [f"{r}: STEP {i}, [S], {step}" for r, n in (("r1", 2), ("r2", 1)) for i, step in enumerate(trip * n, 1)]
    lines.append("r2: STEP 5, [B], BUILD, [0], 3, [50]")  # vacuous: r2's cargo is empty
    trace = execute(two, parse_plan("\n".join(lines) + "\n"))
    assert trace.error is None
    placed = collections.Counter()
    for e in trace.entries:
        placed[e.location] += e.placed_here
        assert e.placed_so_far == placed[e.location], e
    assert [(e.robot, e.placed_so_far) for e in trace.entries if e.step.action.kind is ActionKind.BUILD] == [
        ("r1", 3), ("r2", 6), ("r2", 6), ("r1", 9),
    ]
    assert trace.final.placed_at == {loc: n for loc, n in placed.items() if n}


def _random_steps(rng, robot, n):
    """``n`` steps that ``robot`` can run in turn from C on the triangle site."""
    steps, here = [], "C"
    for _ in range(n):
        kind = rng.choice(["MOVE", "MOVE", "PICK", "BUILD", "IDLE", "INSPECT", "CHARGE"])
        if kind == "MOVE":
            here = rng.choice([x for x in "SBC" if x != here])
            kind = f"MOVE_{here}"
        elif kind == "PICK" and here != "S" or kind == "CHARGE" and here != "C":
            kind = "IDLE"
        steps.append(PlanStep(0, robot, here, Action(ActionKind(kind)), 0, 0, 0.0))
    return steps


def _world_at(rng, s, robot, location):
    """A world in which ``robot`` stands at ``location`` and everything else
    that a step reads or changes is drawn at random."""
    world = initial_state(s)
    for r in s.robots:
        rs = world.robots[r.id]
        rs.location = location if r.id == robot else rng.choice(sorted(s.site.locations()))
        rs.battery = rng.uniform(-50.0, r.battery_max)
        rs.cargo = rng.randint(0, max(r.payload_capacity, 3))
        world.elapsed[r.id] = rng.uniform(0.0, 50.0)
    for loc in world.stock:
        world.stock[loc] = rng.choice([0, 1, 3, 9])
    locations = sorted(s.site.locations())
    world.placed_at = {loc: rng.randint(1, 9) for loc in rng.sample(locations, rng.randint(0, len(locations)))}
    world.placed_total = sum(world.placed_at.values())
    cells = [(x, y) for x in range(3) for y in range(3)]
    world.discovered = set(rng.sample(cells, rng.randint(0, len(cells))))
    world.scanned = set(rng.sample(cells, rng.randint(0, len(cells))))
    return world


def _raised(s, world, step, robot):
    """The (kind, reason) of the ExecError that ``step`` raises on a copy of ``world``, or None."""
    try:
        apply_step(s, world.copy(), step, robot)
    except ExecError as e:
        return e.kind, e.reason
    return None


@pytest.mark.parametrize("name", ["wall_assembly", "wall_assembly_two_robots", "scan_grid"])
def test_whether_a_step_raises_reads_only_the_robots_location(fix_dir, name):
    # the repair walk remembers each (robot location, step) pair that raised
    # ExecError and rejects it again without running it: that is exact only
    # if battery, cargo, stock amounts, placed counts, elapsed time and the
    # scanned and discovered cells never decide whether a step raises
    if name == "wall_assembly_two_robots":
        doc = scenario_doc("wall_assembly")
        doc["robots"].append({**doc["robots"][0], "id": "r2", "payload_capacity": 6})
        s = load_scenario_dict(doc)
    else:
        s = load_scenario(fix_dir / f"{name}.scn.json")
    roster = tuple(r.id for r in s.robots)
    locations = sorted(s.site.locations())
    actions = [Action(k) for k in ActionKind if k is not ActionKind.NAVIGATE]
    actions += [Action(ActionKind.NAVIGATE, loc) for loc in locations]
    steps = [PlanStep(1, None, "?", a, 0, 0, 0.0) for a in actions]
    steps.append(PlanStep(1, None, "?", Action(ActionKind.PICK), 0, 0, 0.0, roster))
    steps.append(PlanStep(1, None, "?", Action(ActionKind.IDLE), 0, 0, 0.0, roster + ("r9",)))
    rng = random.Random(name)
    seen = set()
    for robot in roster:
        for location in locations:
            for trial in range(20):
                a, b = _world_at(rng, s, robot, location), _world_at(rng, s, robot, location)
                for step in steps:
                    for acting in (robot, "r9"):  # r9 is on no roster
                        outcome = _raised(s, a, step, acting)
                        assert outcome == _raised(s, b, step, acting), (robot, location, trial, step.action, acting)
                        seen.add(outcome and outcome[0])
    assert seen == {None, "bad_move", "bad_pick", "bad_charge", "bad_action"}


def _battery_after(s, world, step, robot):
    """The battery of the entry that ``step`` yields on a copy of ``world``, or None if it raises."""
    try:
        return apply_step(s, world.copy(), step, robot).battery
    except ExecError:
        return None


@pytest.mark.parametrize("name", ["wall_assembly", "wall_assembly_two_robots", "scan_grid", "batch"])
def test_a_steps_battery_reads_only_the_robots_location_and_battery(fix_dir, name):
    # the repair walk remembers each (robot location, battery, step) whose
    # step violated Battery and rejects it again without running it: that is
    # exact only if cargo, stock amounts, placed counts, elapsed time and the
    # scanned and discovered cells never change the battery a step leaves
    if name == "wall_assembly_two_robots":
        doc = scenario_doc("wall_assembly")
        doc["robots"].append({**doc["robots"][0], "id": "r2", "payload_capacity": 6})
        s = load_scenario_dict(doc)
    elif name == "batch":
        s = battery_pressured_batch(2024, 1)[0]
    else:
        s = load_scenario(fix_dir / f"{name}.scn.json")
    locations = sorted(s.site.locations())
    actions = s.action_alphabet() + [Action(ActionKind.NAVIGATE, loc) for loc in locations]
    steps = [PlanStep(1, None, "?", a, 0, 0, 0.0) for a in actions + [Action(ActionKind.CHARGE)]]
    rng = random.Random(name)
    seen = set()
    for r in s.robots:
        for location in locations:
            for trial in range(20):
                a, b = _world_at(rng, s, r.id, location), _world_at(rng, s, r.id, location)
                b.robots[r.id].battery = a.robots[r.id].battery
                for step in steps:
                    battery = _battery_after(s, a, step, r.id)
                    assert battery == _battery_after(s, b, step, r.id), (r.id, location, trial, step.action)
                    seen.add(None if battery is None else battery < 0)
    assert seen == {None, True, False}
