import hashlib
import itertools
import random

import pytest

from foreman import experiment, repair, validator
from foreman.executor import execute
from foreman.experiment import battery_pressured_batch, fcfs_vs_hybrid
from foreman.fcfs import RealizationError, UnassignableTask, fcfs_schedule
from foreman.plan import ActionKind, serialize_plan
from foreman.scenario import SiteMap, ValidationError, load_scenario, load_scenario_dict
from foreman.validator import ALL_CHECKS, ViolationClass as VC, validate


def test_exp1_fcfs_three_trip_plan_with_battery_violations(wall):
    assignment, plan = fcfs_schedule(wall)
    kinds = [s.action.kind for s in plan.steps]
    assert kinds == [ActionKind.MOVE_S, ActionKind.PICK, ActionKind.MOVE_B, ActionKind.BUILD] * 3
    report = validate(wall, plan, ALL_CHECKS)
    assert report.by_class(VC.Battery)  # the baseline never avoids energy trouble
    assert not report.by_class(VC.Precedence)
    assert not report.by_class(VC.Capability)
    assert dict(assignment.alpha) == {"build_1": ("r1",), "build_2": ("r1",), "build_3": ("r1",)}


def test_exp2_fcfs_no_scans_fails_coverage(grid):
    _, plan = fcfs_schedule(grid)
    kinds = {s.action.kind for s in plan.steps}
    assert ActionKind.SCAN not in kinds  # no coverage reasoning by design
    report = validate(grid, plan, ALL_CHECKS)
    assert report.by_class(VC.Coverage)
    assert not report.feasible


def _world_doc(tasks, dag, robots=None, stock=9):
    return {
        "instruction": "x",
        "site": {
            "kind": "named_graph",
            "nodes": ["S", "B", "C"],
            "edges": [["S", "B", 1], ["B", "C", 1], ["C", "S", 1]],
            "chargers": ["C"],
        },
        "robots": robots
        or [
            {
                "id": "r1",
                "skills": ["MOVE_S", "MOVE_B", "MOVE_C", "PICK", "BUILD", "CHARGE", "NAVIGATE", "INSPECT"],
                "payload_capacity": 3,
                "start_location": "C",
            }
        ],
        "tasks": tasks,
        "dag": dag,
        "cost": {},
        "resources": {"S": stock},
    }


def _world(tasks, dag, robots=None, stock=9):
    return load_scenario_dict(_world_doc(tasks, dag, robots, stock))


def test_single_navigate_task_theta_is_travel_time():
    s = _world([{"id": "go", "type": "NAVIGATE", "location": "B"}], [])
    assignment, plan = fcfs_schedule(s)
    assert dict(assignment.theta)["go"] == 1.0  # one 1-DU hop at 1 TU/DU
    assert dict(assignment.alpha)["go"] == ("r1",)


def test_two_independent_tasks_two_robots_both_go_to_lowest_id():
    robots = [
        {"id": "r1", "skills": ["NAVIGATE", "INSPECT"], "payload_capacity": 0, "start_location": "C"},
        {"id": "r2", "skills": ["NAVIGATE", "INSPECT"], "payload_capacity": 0, "start_location": "C"},
    ]
    s = _world(
        [
            {"id": "t1", "type": "INSPECT", "location": "B"},
            {"id": "t2", "type": "INSPECT", "location": "S"},
        ],
        [],
        robots=robots,
    )
    assignment, plan = fcfs_schedule(s)
    # sequential execution means every robot is idle at each decision point,
    # so the lowest-id tie-break sends both tasks to r1
    assert dict(assignment.alpha) == {"t1": ("r1",), "t2": ("r1",)}
    assert {st.robot for st in plan.steps} == {"r1"}


def test_unassignable_task():
    robots = [{"id": "r1", "skills": ["NAVIGATE"], "payload_capacity": 0, "start_location": "C"}]
    s = _world([{"id": "t1", "type": "INSPECT", "required_skills": ["INSPECT"], "location": "B"}], [], robots=robots)
    with pytest.raises(UnassignableTask):
        fcfs_schedule(s)


def test_determinism(wall):
    a1, p1 = fcfs_schedule(wall)
    a2, p2 = fcfs_schedule(wall)
    assert a1 == a2 and p1 == p2


def test_stock_under_the_robot_is_picked_without_moving():
    s = load_scenario_dict(
        {
            "instruction": "x",
            "site": {
                "kind": "named_graph",
                "nodes": ["S", "B", "C"],
                "edges": [["S", "B", 1], ["B", "C", 1], ["C", "S", 1]],
            },
            "robots": [
                {"id": "r1", "skills": ["MOVE_S", "MOVE_B", "MOVE_C", "PICK", "BUILD"],
                 "payload_capacity": 3, "start_location": "S"}
            ],
            "tasks": [{"id": "b1", "type": "BUILD", "required_skills": ["BUILD"], "location": "B", "demand": 3}],
            "dag": [],
            "cost": {},
            "resources": {"S": 3, "C": 3},
        }
    )
    _, plan = fcfs_schedule(s)
    kinds = [st.action.kind for st in plan.steps]
    assert kinds == [ActionKind.PICK, ActionKind.MOVE_B, ActionKind.BUILD]


def test_fcfs_respects_precedence_and_capability_on_random_dags(wall):
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 8)
        tasks = [
            {"id": f"t{i}", "type": "BUILD", "required_skills": ["BUILD"], "location": "B", "demand": 3}
            for i in range(n)
        ]
        dag = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    dag.append([f"t{i}", f"t{j}"])
        s = _world(tasks, dag, stock=3 * n)
        _, plan = fcfs_schedule(s)
        report = validate(s, plan, {VC.Precedence, VC.Capability})
        assert not report.by_class(VC.Precedence)
        assert not report.by_class(VC.Capability)


def test_theta_respects_dag_durations(wall):
    assignment, _ = fcfs_schedule(wall)
    theta = dict(assignment.theta)
    by_id = {t.id: t for t in wall.tasks}
    for a, b in wall.dag.edges:
        assert theta[b] >= theta[a] + by_id[a].duration


def test_theta_is_the_executed_arrival_when_a_pair_is_listed_twice():
    # S-B is listed at 2 DU, then at 1 DU: the route, MOVE_B and MOVE_S all
    # cost the lighter 1 DU, so B is reached at 3 and 7
    doc = _world_doc(
        [
            {"id": "t1", "type": "BUILD", "required_skills": ["BUILD"], "location": "B", "demand": 3},
            {"id": "t2", "type": "BUILD", "required_skills": ["BUILD"], "location": "B", "demand": 3},
        ],
        [],
    )
    doc["site"]["edges"].insert(0, ["S", "B", 2])
    s = load_scenario_dict(doc)
    assignment, plan = fcfs_schedule(s)
    assert dict(assignment.theta) == {"t1": 3.0, "t2": 7.0}
    trace = execute(s, plan)
    arrivals = list(itertools.accumulate(e.tu_cost for e in trace.entries))
    assert [t for t, e in zip(arrivals, trace.entries) if e.step.action.kind is ActionKind.MOVE_B] == [3.0, 7.0]


_NODES = ["S", "B", "C", "D", "E"]
_DU = [0.5, 1, 1, 1.5, 2, 2.25, 3]
_TASK_TYPES = ["BUILD", "BUILD", "NAVIGATE", "SCAN", "INSPECT", "MARK_LAYOUT"]


def _random_tasks(rng, locations):
    n = rng.randint(1, 4)
    tasks = [
        {
            "id": f"t{k}",
            "type": (kind := rng.choice(_TASK_TYPES)),
            "required_skills": [kind],
            "location": rng.choice(locations),
            "demand": rng.randint(0, 7) if kind == "BUILD" else 0,
        }
        for k in range(n)
    ]
    dag = [[f"t{a}", f"t{b}"] for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
    return tasks, dag


def _random_robots(rng, locations, all_skills):
    robots = []
    for k in range(rng.choice([1, 1, 1, 2, 3])):
        cap = rng.choice([0, 1, 2, 3, 3, 4])
        skills = [sk for sk in all_skills if rng.random() < 0.95]
        robots.append(
            {
                "id": f"r{k + 1}",
                "skills": skills,
                "payload_capacity": cap,
                "cargo_init": rng.randint(0, cap),
                "start_location": rng.choice(locations),
            }
        )
    return robots


def _random_cost(rng):
    return {
        "tu_per_du": rng.choice([0.5, 1, 2]),
        "pick_build_tu_per_3mu": rng.choice([0.5, 1, 2]),
        "scan_tu_per_su": rng.choice([1, 1.5]),
    }


def _random_graph(rng, i):
    """A connected named graph; small, so extra edges often repeat a pair."""
    nodes = _NODES[: rng.randint(2, 5)]
    edges = [[nodes[k], rng.choice(nodes[:k]), rng.choice(_DU)] for k in range(1, len(nodes))]
    for _ in range(rng.randint(0, 4)):
        u, v = rng.sample(nodes, 2)
        edges.insert(rng.randint(0, len(edges)), [u, v, rng.choice(_DU)])
    skills = ["MOVE_S", "MOVE_B", "MOVE_C", "NAVIGATE", "PICK", "BUILD", "SCAN", "INSPECT", "MARK_LAYOUT"]
    tasks, dag = _random_tasks(rng, nodes)
    doc = {
        "site": {"kind": "named_graph", "nodes": nodes, "edges": edges},
        "robots": _random_robots(rng, nodes, skills),
        "tasks": tasks,
        "dag": dag,
        "cost": _random_cost(rng),
        "resources": {n: rng.randint(2, 12) for n in rng.sample(nodes, rng.randint(1, len(nodes)))},
    }
    return load_scenario_dict(doc, name=f"graph_{i}")


def _random_grid(rng, i):
    """A grid with a few blocked cells, or None when they cut it in two."""
    w, h = rng.randint(1, 5), rng.randint(2, 5)
    cells = [[x, y] for x in range(w) for y in range(h)]
    blocked = rng.sample(cells, rng.randint(0, len(cells) // 4))
    free = [f"({x},{y})" for x, y in cells if [x, y] not in blocked]
    skills = ["MOVE_Left", "MOVE_Right", "MOVE_Up", "MOVE_Down", "NAVIGATE", "PICK", "BUILD", "SCAN", "INSPECT",
              "MARK_LAYOUT"]
    tasks, dag = _random_tasks(rng, free)
    doc = {
        "site": {"kind": "grid", "width": w, "height": h, "blocked": blocked},
        "robots": _random_robots(rng, free, skills),
        "tasks": tasks,
        "dag": dag,
        "cost": _random_cost(rng),
        "resources": {c: rng.randint(2, 12) for c in rng.sample(free, rng.randint(1, min(3, len(free))))},
    }
    try:
        return load_scenario_dict(doc, name=f"grid_{i}")
    except ValidationError:
        return None


def _seeded_scenarios(wall, grid):
    yield wall
    yield grid
    yield from battery_pressured_batch(2024, 50)
    yield from battery_pressured_batch(7, 30)
    rng = random.Random(9)
    yield from (_random_graph(rng, i) for i in range(200))
    yield from filter(None, (_random_grid(rng, i) for i in range(100)))


# SHA-256 of every seeded scenario's FCFS plan text (or error), recorded when
# a pair listed twice came to cost its lightest weight for moves as for routes
# (32 plans changed, each over a pair listed heavy first, and only in their
# battery column)
_SEEDED_PLANS_SHA256 = "ddc92cc3b75338589ed48c19386a0501980d08294b3fa905fdc1e2485f197252"


def test_fcfs_theta_is_a_prefix_sum_of_the_executed_costs(wall, grid):
    digest = hashlib.sha256()
    single = 0
    for s in _seeded_scenarios(wall, grid):
        try:
            assignment, plan = fcfs_schedule(s)
        except (UnassignableTask, RealizationError) as e:
            digest.update(f"{s.name}: error: {e}\n".encode())
            continue
        digest.update(f"{s.name}:\n{serialize_plan(plan)}".encode())
        if len(s.robots) > 1:
            continue  # robots take turns when run, while FCFS keeps one clock
        trace = execute(s, plan)
        assert trace.error is None, s.name
        sums = {0.0, *itertools.accumulate(e.tu_cost for e in trace.entries)}
        assert all(start in sums for _, start in assignment.theta), s.name
        single += 1
    assert single > 150
    assert digest.hexdigest() == _SEEDED_PLANS_SHA256


@pytest.mark.parametrize(
    "seed, expected",
    [
        (2024, {"fcfs_rate": 0.36, "hybrid_rate": 0.94, "strict_hybrid_wins": 29, "fcfs_only_wins": 0, "neither": 3}),
        (7, {"fcfs_rate": 0.48, "hybrid_rate": 0.82, "strict_hybrid_wins": 17, "fcfs_only_wins": 0, "neither": 9}),
    ],
)
def test_fcfs_vs_hybrid_runs_each_fcfs_plan_once(monkeypatch, seed, expected):
    # the repair loop's first validation is the FCFS verdict: after
    # fcfs_schedule returns a plan, nothing else runs it
    runs = []  # [FCFS plan, executions after fcfs_schedule returned it]

    def counting_execute(s, plan):
        for run in runs:
            if run[0] is plan:
                run[1] += 1
        return execute(s, plan)

    def recording_schedule(s):
        assignment, plan = fcfs_schedule(s)
        runs.append([plan, 0])
        return assignment, plan

    monkeypatch.setattr(repair, "execute", counting_execute)
    monkeypatch.setattr(validator, "execute", counting_execute)
    monkeypatch.setattr(experiment, "fcfs_schedule", recording_schedule)
    assert fcfs_vs_hybrid(battery_pressured_batch(seed, 50)) == {"n": 50, **expected}
    assert [n for _, n in runs] == [1] * 50


def test_fcfs_searches_each_source_once(monkeypatch, fix_dir):
    # the routing work without a clock: the loader's connectivity checks and
    # every route and distance FCFS asks for share one search per site and
    # source, 140 in all; one search per (from, to) pair would run 52 + 140
    # times
    trees, sources, asked = {}, set(), set()  # a search builds a new tree
    tree, route, distance = SiteMap._tree, SiteMap.route, SiteMap.shortest_path_du

    def counted_tree(site, a):
        found = tree(site, a)
        trees[id(found)] = found  # kept alive, so no id is reused
        sources.add((id(site), a))
        return found

    def asked_route(site, a, b):
        asked.add((id(site), a, b))
        return route(site, a, b)

    def asked_distance(site, a, b):
        asked.add((id(site), a, b))
        return distance(site, a, b)

    monkeypatch.setattr(SiteMap, "_tree", counted_tree)
    monkeypatch.setattr(SiteMap, "route", asked_route)
    monkeypatch.setattr(SiteMap, "shortest_path_du", asked_distance)
    scenarios = [load_scenario(fix_dir / f"{name}.scn.json") for name in ("wall_assembly", "scan_grid")]
    scenarios += battery_pressured_batch(2024, 50)  # kept alive too
    for s in scenarios:
        fcfs_schedule(s)
    assert len(trees) == len(sources) == 140
    assert len(asked) == 140  # distinct (site, from, to) pairs
