import random

import pytest

from foreman.fcfs import UnassignableTask, fcfs_schedule
from foreman.plan import ActionKind
from foreman.scenario import load_scenario_dict
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


def _world(tasks, dag, robots=None, stock=9):
    return load_scenario_dict(
        {
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
    )


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
