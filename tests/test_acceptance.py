"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -s`` and in failure output).

Run with:  pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import random
import time

import pytest

from brute_oracle import brute_feasible
from edit_oracle import as_ops, enumerate_scripts, unnumbered
from foreman import experiment
from foreman.executor import execute, makespan
from foreman.experiment import (
    ExperimentConfig,
    battery_pressured_batch,
    fcfs_vs_hybrid,
    run_experiment,
)
from foreman.metrics import bleu, meteor, rouge, similarity
from foreman.plan import Action, ActionKind, tokenize_plan
from foreman.repair import (
    SearchSupervisor,
    apply_script,
    minimal_edit_repair,
    reconcile_plan,
    repair_loop,
)
from foreman.scenario import load_scenario_dict
from foreman.validator import ALL_CHECKS, ViolationClass as VC, validate


def _report(ok: bool, name: str, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_experiment_i_feasibility_repair(wall, wall_draft):
    t0 = time.monotonic()
    draft_report = validate(wall, wall_draft, ALL_CHECKS)
    battery_violations = draft_report.by_class(VC.Battery)
    result = repair_loop(wall, wall_draft, SearchSupervisor("minimal", 4), max_iters=3)
    elapsed = time.monotonic() - t0
    ok = (
        not draft_report.feasible
        and len(battery_violations) >= 1
        and result.feasible
        and result.report.psi == 0
        and result.script.cost == 2
        and result.script.profile.substitutions == 2
        and result.script.profile.insertions == 0
        and result.script.profile.reorders == 0
        and result.iterations_used == 1
        and result.iterations_used <= 3
        and elapsed < 5.0
    )
    _report(
        ok,
        "criterion 1 (Experiment I feasibility repair)",
        f"draft battery violations={len(battery_violations)}, script=[{result.script.render()}], "
        f"T_rep={result.iterations_used}, {elapsed:.2f}s",
    )


def test_criterion_2_experiment_ii_coverage_repair(grid, grid_draft):
    t0 = time.monotonic()
    draft_report = validate(grid, grid_draft, ALL_CHECKS)
    coverage = draft_report.by_class(VC.Coverage)
    result = repair_loop(grid, grid_draft, SearchSupervisor("minimal", 4), max_iters=3)
    delta = makespan(execute(grid, result.plan)) - makespan(execute(grid, grid_draft))
    elapsed = time.monotonic() - t0
    scan_inserts = [
        op for op in result.script.ops
        if op.kind.value == "insert" and op.payload == Action(ActionKind.SCAN)
    ]
    ok = (
        not draft_report.feasible
        and len(coverage) == 1
        and "(2,0)" in coverage[0].detail
        and result.feasible
        and result.script.cost == 1
        and len(scan_inserts) == 1
        and delta == 1.0
        and elapsed < 5.0
    )
    _report(
        ok,
        "criterion 2 (Experiment II coverage repair)",
        f"missing cell flagged, script=[{result.script.render()}], dMakespan={delta:+g} TU, {elapsed:.2f}s",
    )


def _no_cheaper_script_is_feasible(s, draft, below_cost) -> bool:
    alphabet = s.action_alphabet()
    for cost in range(1, below_cost):
        for c in enumerate_scripts(len(draft), alphabet, draft.steps, cost):
            plan, trace = apply_script(s, draft, as_ops(draft.steps, c))
            if trace.error is not None:
                continue
            if validate(s, plan, ALL_CHECKS, trace=trace).feasible:
                return False
    return True


def test_criterion_3_minimality_oracle(wall, wall_draft, grid, grid_draft):
    t0 = time.monotonic()
    wall_result = minimal_edit_repair(wall, wall_draft, budget=4)
    wall_certified = (
        not validate(wall, wall_draft, ALL_CHECKS).feasible
        and _no_cheaper_script_is_feasible(wall, wall_draft, wall_result.script.cost)
    )
    wall_elapsed = time.monotonic() - t0
    t0 = time.monotonic()
    grid_result = minimal_edit_repair(grid, grid_draft, budget=4)
    grid_certified = (
        not validate(grid, grid_draft, ALL_CHECKS).feasible
        and _no_cheaper_script_is_feasible(grid, grid_draft, grid_result.script.cost)
    )
    grid_elapsed = time.monotonic() - t0
    ok = wall_certified and grid_certified and wall_elapsed < 60 and grid_elapsed < 60
    _report(
        ok,
        "criterion 3 (minimality oracle)",
        f"no script below cost {wall_result.script.cost} (exp I, {wall_elapsed:.1f}s) "
        f"or cost {grid_result.script.cost} (exp II, {grid_elapsed:.1f}s) is feasible",
    )


def test_criterion_4_guardrail_ablation(wall, wall_draft, grid, grid_draft):
    # schema only: both drafts look clean yet fail full validation
    schema_wall = validate(wall, wall_draft, {VC.Schema})
    schema_grid = validate(grid, grid_draft, {VC.Schema})
    schema_ok = (
        schema_wall.psi == 0
        and schema_grid.psi == 0
        and not validate(wall, wall_draft, ALL_CHECKS).feasible
        and not validate(grid, grid_draft, ALL_CHECKS).feasible
    )
    # battery only (exp I): <= 2 edits, no negative-battery events, small overhead
    battery_res = minimal_edit_repair(wall, wall_draft, budget=4, checks=frozenset({VC.Battery}))
    battery_delta = makespan(execute(wall, battery_res.plan)) - makespan(execute(wall, wall_draft))
    battery_ok = (
        battery_res.feasible
        and battery_res.script.cost <= 2
        and not validate(wall, battery_res.plan, {VC.Battery}).by_class(VC.Battery)
        and battery_delta <= 2.0
    )
    # coverage only (exp II): one SCAN closes the gap
    coverage_res = minimal_edit_repair(grid, grid_draft, budget=4, checks=frozenset({VC.Coverage}))
    coverage_delta = makespan(execute(grid, coverage_res.plan)) - makespan(execute(grid, grid_draft))
    coverage_ok = (
        coverage_res.feasible
        and coverage_res.script.cost == 1
        and coverage_res.script.ops[0].payload == Action(ActionKind.SCAN)
        and coverage_delta <= 4.0
    )
    ok = schema_ok and battery_ok and coverage_ok
    _report(
        ok,
        "criterion 4 (guardrail ablation)",
        f"schema-only psi=0 both; battery-only edits={battery_res.script.cost} dMk={battery_delta:+g}; "
        f"coverage-only edits={coverage_res.script.cost} dMk={coverage_delta:+g}",
    )


TABLE_1 = {"gemma": (0.9407, 0.9444, 0.9444, 0.9655), "llama": (0.8750, 0.9230, 0.9230, 0.9140),
           "mistral": (0.8235, 0.8824, 0.8235, 0.8529)}
TABLE_2 = {"gemma": (0.447, 0.625, 0.625, 0.672), "llama": (0.742, 0.933, 0.933, 0.984),
           "mistral": (0.339, 0.7778, 0.7778, 0.934)}


def test_criterion_5_similarity_ordering(request, wall_draft, grid_draft):
    wall_tokens = tokenize_plan(wall_draft)
    grid_tokens = tokenize_plan(grid_draft)
    exp1, exp2 = {}, {}
    for sup in ("gemma", "llama", "mistral"):
        exp1[sup] = similarity(tokenize_plan(request.getfixturevalue(f"wall_{sup}")), wall_tokens)
        exp2[sup] = similarity(tokenize_plan(request.getfixturevalue(f"grid_{sup}")), grid_tokens)

    # blocking: experiment II BLEU ordering and METEOR maximum
    ordering_ok = exp2["llama"].bleu > exp2["gemma"].bleu > exp2["mistral"].bleu
    meteor_ok = exp2["llama"].meteor == max(sc.meteor for sc in exp2.values())
    # blocking: experiment I floors
    floors_ok = all(sc.bleu >= 0.80 for sc in exp1.values()) and all(
        sc.rouge1 >= 0.85 for sc in exp1.values()
    )
    # non-blocking proximity report against the published table cells
    lines = []
    for sup in ("gemma", "llama", "mistral"):
        d1 = abs(exp1[sup].bleu - TABLE_1[sup][0])
        d2 = abs(exp2[sup].bleu - TABLE_2[sup][0])
        dm = abs(exp2[sup].meteor - TABLE_2[sup][3])
        lines.append(f"{sup}: expI BLEU delta {d1:+.3f}, expII BLEU delta {d2:+.3f}, expII METEOR delta {dm:+.3f}")
    ok = ordering_ok and meteor_ok and floors_ok
    _report(
        ok,
        "criterion 5 (similarity ordering and floors)",
        f"expII BLEU {exp2['llama'].bleu:.3f} > {exp2['gemma'].bleu:.3f} > {exp2['mistral'].bleu:.3f}; "
        f"expII METEOR max={exp2['llama'].meteor:.3f}; expI floors ok; proximity (non-blocking): "
        + " | ".join(lines),
    )


def test_criterion_6_metric_oracles():
    import math

    # hand-computed golden values (derivations in tests/test_metrics.py and METRICS.md)
    goldens = [
        ("bleu identical", bleu(list("abcde"), list("abcde")), 1.0),
        ("bleu mid-substitution hard zero", bleu(list("abxde"), list("abcde")), 0.0),
        ("bleu add-one", bleu(list("abxde"), list("abcde"), "add-one"), (1 / 24) ** 0.25),
        ("bleu brevity", bleu(list("abc"), list("abcde")), math.exp(1 - 5 / 3)),
        ("bleu extra token", bleu(list("abcdef"), list("abcde")), (1 / 3) ** 0.25),
        ("rouge-l worked", rouge(list("abxc"), list("abcde"), "rl"), 2 / 3),
        ("rouge-2 worked", rouge(list("abxc"), list("abcde"), "r2"), 2 / 7),
        ("rouge-1 clipped", rouge(list("aaa"), list("a"), "r1"), 0.5),
        ("rouge-l swap", rouge(list("ba"), list("ab"), "rl"), 0.5),
        ("rouge identical", rouge(list("abc"), list("abc"), "r2"), 1.0),
        ("meteor identical", meteor(list("abcde"), list("abcde")), 0.996),
        ("meteor two chunks", meteor(list("abcd"), list("cdab")), 0.9375),
        ("meteor half", meteor(list("ax"), list("ab")), 0.25),
        ("meteor tail swap", meteor(list("abcd"), list("abdc")), 0.7890625),
        ("meteor extra token", meteor(list("abcx"), list("abc")), (7.5 / 7.75) * (1 - 0.5 / 27)),
    ]
    bad = [name for name, got, want in goldens if abs(got - want) > 1e-12]

    rng = random.Random(1234)
    alphabet = list("abcdexy")
    out_of_range = 0
    for _ in range(10_000):
        cand = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        ref = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        values = [bleu(cand, ref), rouge(cand, ref, "r1"), rouge(cand, ref, "rl"), meteor(cand, ref)]
        r2 = rouge(cand, ref, "r2")
        if r2 is not None:
            values.append(r2)
        if any(not (0.0 <= v <= 1.0) for v in values):
            out_of_range += 1
    ok = not bad and out_of_range == 0
    _report(
        ok,
        "criterion 6 (metric correctness oracles)",
        f"{len(goldens)} golden values reproduced, 10^4 fuzz pairs all in [0,1]"
        + (f"; FAILED {bad}" if bad else ""),
    )


MICRO_WORLD = {
    "instruction": "deliver three bricks from A to B on a tight battery",
    "site": {"kind": "named_graph", "nodes": ["A", "B"], "edges": [["A", "B", 1]], "chargers": ["A"]},
    "robots": [
        {
            "id": "r1",
            "skills": ["NAVIGATE", "PICK", "BUILD", "CHARGE"],
            "payload_capacity": 3,
            "battery_max": 100,
            "battery_init": 75,
            "start_location": "A",
        }
    ],
    "tasks": [{"id": "build_1", "type": "BUILD", "required_skills": ["BUILD"], "location": "B", "demand": 3, "duration": 1}],
    "dag": [],
    "cost": {"battery_per_du": 25, "tu_per_du": 1, "pick_build_tu_per_3mu": 1, "recharge_tu": 1},
    "resources": {"A": 3},
}

BRUTE_WORLD = {
    "edges": {frozenset(("A", "B")): 1},
    "chargers": {"A"},
    "stock": {"A": 3},
    "battery_per_du": 25,
    "robot": {
        "start": "A", "battery_init": 75, "battery_max": 100, "capacity": 3,
        "skills": ["NAVIGATE", "PICK", "BUILD", "CHARGE"],
    },
    "tasks": [{"id": "build_1", "type": "BUILD", "location": "B", "demand": 3}],
    "dag": [],
}

_MICRO_ALPHABET = [
    ("NAVIGATE", "A"), ("NAVIGATE", "B"), ("PICK", None), ("BUILD", None),
    ("CHARGE", None), ("IDLE", None),
]


def test_criterion_7_validator_oracle_equivalence():
    t0 = time.monotonic()
    s = load_scenario_dict(MICRO_WORLD, name="micro")
    checked = feasible_count = disagreements = 0
    for length in range(0, 7):
        for combo in itertools.product(_MICRO_ALPHABET, repeat=length):
            actions = [Action(ActionKind(kind), target) for kind, target in combo]
            plan, trace = reconcile_plan(s, [unnumbered(None, a) for a in actions])
            validator_says = validate(s, plan, ALL_CHECKS, trace=trace).feasible
            brute_says = brute_feasible(BRUTE_WORLD, list(combo))
            checked += 1
            feasible_count += validator_says
            if validator_says != brute_says:
                disagreements += 1
                if disagreements <= 5:
                    print("DISAGREE:", combo, "validator", validator_says, "brute", brute_says)
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 60 and feasible_count > 0
    _report(
        ok,
        "criterion 7 (validator-oracle equivalence)",
        f"{checked} plans, {feasible_count} feasible, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_8_executor_ground_truth(wall, wall_draft, wall_gemma, wall_llama, wall_mistral):
    mismatches = []
    for name, plan in [
        ("draft", wall_draft), ("gemma", wall_gemma), ("llama", wall_llama), ("mistral", wall_mistral),
    ]:
        trace = execute(wall, plan)
        assert trace.error is None
        for step, entry in zip(plan.steps, trace.entries):
            if step.battery != entry.battery or step.placed != entry.placed_total:
                mismatches.append((name, step.step))
    draft_trace = execute(wall, wall_draft)
    gemma_trace = execute(wall, wall_gemma)
    anchors_ok = (
        draft_trace.entries[6].battery == 0.0  # draft arrives at [B] drained
        and draft_trace.entries[6].location == "B"
        and gemma_trace.entries[6].battery == 75.0  # corrected step 7 at 75%
    )
    ok = not mismatches and anchors_ok
    _report(
        ok,
        "criterion 8 (executor ground truth)",
        "every fixture battery/placed value reproduced exactly; draft S7=0%, gemma-corrected S7=75%"
        + (f"; mismatches={mismatches}" if mismatches else ""),
    )


def test_criterion_9_offline_end_to_end(fix_dir, tmp_path):
    supervisors = ("llm:gemma", "llm:llama", "llm:mistral", "search-minimal")
    outputs = []
    for run in (1, 2):
        files = {}
        for scen in ("wall_assembly", "scan_grid"):
            out = tmp_path / f"run{run}" / scen
            cfg = ExperimentConfig(
                scenario_path=fix_dir / f"{scen}.scn.json",
                supervisors=supervisors,
                out_dir=out,
            )
            summary = run_experiment(cfg)
            assert len(summary["arms"]) == 6  # generator-only + 4 hybrids + fcfs
            for fname in ("similarity.csv", "edit_profile.csv", "summary.json"):
                files[f"{scen}/{fname}"] = (out / fname).read_bytes()
        outputs.append(files)
    byte_stable = outputs[0] == outputs[1]
    wall_summary = json.loads(outputs[0]["wall_assembly/summary.json"])
    arms_ok = (
        wall_summary["arms"]["generator-only"]["fr"] == 0.0
        and wall_summary["arms"]["hybrid/search-minimal"]["fr"] == 1.0
        and all(wall_summary["arms"][f"hybrid/llm:{m}"]["fr"] == 1.0 for m in ("gemma", "llama", "mistral"))
        and wall_summary["arms"]["fcfs"]["fr"] == 0.0
    )
    ok = byte_stable and arms_ok
    _report(
        ok,
        "criterion 9 (offline end-to-end)",
        f"both scenarios, all arms, byte-stable reruns={byte_stable}",
    )


def test_criterion_10_fcfs_directional_claim(monkeypatch):
    scenarios = battery_pressured_batch(seed=2024, n=50)
    runs = []  # (scenario, FCFS plan, hybrid result): the batch's one search per instance
    loop = experiment.repair_loop

    def kept(s, plan, *args):
        result = loop(s, plan, *args)
        runs.append((s, plan, result))
        return result

    monkeypatch.setattr(experiment, "repair_loop", kept)
    stats = fcfs_vs_hybrid(scenarios)
    # the FCFS verdicts, each from a validate of its own rather than the loop's
    fcfs_ok = [validate(s, plan).feasible for s, plan, _ in runs]
    fcfs_only = sum(ok and not result.feasible for ok, (_, _, result) in zip(fcfs_ok, runs))
    ok = (
        stats["hybrid_rate"] >= stats["fcfs_rate"]
        and stats["strict_hybrid_wins"] >= 10
        and stats["fcfs_only_wins"] == 0
        and len(runs) == 50
        and sum(fcfs_ok) / 50 == stats["fcfs_rate"]
        and fcfs_only == 0
    )
    _report(
        ok,
        "criterion 10 (FCFS directional claim)",
        f"hybrid rate {stats['hybrid_rate']:.2f} >= fcfs rate {stats['fcfs_rate']:.2f}, "
        f"strict hybrid wins {stats['strict_hybrid_wins']}/50, FCFS-only wins by own validate {fcfs_only}",
    )
