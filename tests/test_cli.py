import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import scenario_doc
from foreman import cli, experiment, repair
from foreman.cli import main
from foreman.gateway import GatewayError, MockProvider
from foreman.plan import parse_plan
from foreman.scenario import load_scenario
from foreman.validator import ALL_CHECKS, ViolationReport, validate
from test_scenario import _MALFORMED, _minimal_doc


@pytest.fixture
def runner(capsys):
    """``runner.invoke(main, args)`` runs the CLI in this process and returns its
    ``exit_code``, ``output`` (stdout then stderr), ``stdout_bytes`` and
    ``exception`` (the ``SystemExit`` of a nonzero exit, else None)."""

    def invoke(main, args):
        capsys.readouterr()
        with pytest.raises(SystemExit) as done:
            main(args)
        out, err = capsys.readouterr()
        code = done.value.code
        return SimpleNamespace(
            exit_code=code, output=out + err, stdout_bytes=out.encode(), exception=done.value if code else None
        )

    return SimpleNamespace(invoke=invoke)


def _paths(fix_dir):
    return {
        "wall": str(fix_dir / "wall_assembly.scn.json"),
        "grid": str(fix_dir / "scan_grid.scn.json"),
        "wall_draft": str(fix_dir / "plans" / "wall_assembly.draft.plan"),
        "wall_gemma": str(fix_dir / "plans" / "wall_assembly.gemma.plan"),
        "grid_draft": str(fix_dir / "plans" / "scan_grid.draft.plan"),
        "grid_llama": str(fix_dir / "plans" / "scan_grid.llama.plan"),
    }


def _write_wall(path: Path, **overrides) -> str:
    """The wall document with ``overrides`` for its top-level keys, written to ``path``."""
    path.write_text(json.dumps(dict(scenario_doc("wall_assembly"), **overrides)), encoding="utf-8")
    return str(path)


def test_validate_exit_codes(runner, fix_dir):
    p = _paths(fix_dir)
    ok = runner.invoke(main, ["validate", p["wall"], p["wall_gemma"]])
    assert ok.exit_code == 0
    bad = runner.invoke(main, ["validate", p["wall"], p["wall_draft"]])
    assert bad.exit_code == 3
    report = json.loads(bad.output)
    assert report["feasible"] is False
    assert report["psi"] == 1


def test_validate_checks_flag_ablation(runner, fix_dir):
    p = _paths(fix_dir)
    res = runner.invoke(main, ["validate", p["wall"], p["wall_draft"], "--checks", "schema"])
    assert res.exit_code == 0  # well-formed but infeasible under full checks
    assert json.loads(res.output)["psi"] == 0


def test_validate_missing_scenario_is_config_error(runner, fix_dir):
    res = runner.invoke(main, ["validate", "nope.json", _paths(fix_dir)["wall_draft"]])
    assert res.exit_code == 1


def test_simulate_emits_trace_and_summary(runner, fix_dir):
    p = _paths(fix_dir)
    res = runner.invoke(main, ["simulate", p["wall"], p["wall_draft"]])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 21  # 20 steps + summary
    assert records[6]["battery"] == 0.0
    assert "summary" in records[-1]
    assert records[-1]["summary"]["makespan_tu"] == 18.0


def test_repair_cli_search_minimal(runner, fix_dir):
    p = _paths(fix_dir)
    res = runner.invoke(main, ["repair", p["wall"], p["wall_draft"], "--supervisor", "search-minimal"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["outcome"] == "feasible"
    assert payload["edit_profile"] == {"insertions": 0, "reorders": 0, "substitutions": 2}
    assert payload["iterations_used"] == 1


@pytest.mark.parametrize("scenario", ["wall", "grid"])
@pytest.mark.parametrize("supervisor", ["search-minimal", "search-conservative", "llm:mistral"])
def test_repair_cli_plan_reads_back_feasible(runner, fix_dir, scenario, supervisor):
    p = _paths(fix_dir)
    res = runner.invoke(main, ["repair", p[scenario], p[f"{scenario}_draft"], "--supervisor", supervisor])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert sorted(payload) == ["edit_profile", "edit_script", "iterations_used", "outcome", "plan"]
    assert validate(load_scenario(p[scenario]), parse_plan(payload["plan"])).feasible


def test_malformed_scenario_is_a_one_line_error(runner, fix_dir, tmp_path):
    for where, overrides in _MALFORMED.items():
        path = tmp_path / "bad.scn.json"
        path.write_text(json.dumps(_minimal_doc(**overrides)), encoding="utf-8")
        res = runner.invoke(main, ["validate", str(path), _paths(fix_dir)["wall_draft"]])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), where
        assert res.output.startswith(f"error: {where}: ") and "Traceback" not in res.output


def test_repair_cli_llm_mock(runner, fix_dir):
    p = _paths(fix_dir)
    res = runner.invoke(main, ["repair", p["grid"], p["grid_draft"], "--supervisor", "llm:mistral"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["outcome"] == "feasible"


@pytest.mark.parametrize("bad", ["missing", "number", "not_utf8"])
def test_a_mock_response_that_cannot_be_read_is_a_gateway_error(runner, fix_dir, tmp_path, bad):
    mocks = tmp_path / "mocks"
    mocks.mkdir()
    (mocks / "latin1.txt").write_bytes("STEP 1, [S], MOVE_S, [0], 0, [75] # caf\xe9\n".encode("latin-1"))
    target = {"missing": "gone.txt", "number": 5, "not_utf8": "latin1.txt"}[bad]
    (mocks / "manifest.json").write_text(json.dumps({"mistral::wall_assembly::1": target}), encoding="utf-8")
    p = _paths(fix_dir)
    args = ["repair", p["wall"], p["wall_draft"], "--supervisor", "llm:mistral", "--mocks-dir", str(mocks)]
    res = runner.invoke(main, args)
    if bad == "number":  # the manifest itself is malformed
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
        manifest = mocks / "manifest.json"
        assert res.output == f"error: malformed-response: {manifest} must map each mock key to a file name\n"
        return
    with pytest.raises(GatewayError) as exc:
        MockProvider(mocks).complete(("mistral", "wall_assembly", 1))
    assert exc.value.kind == "malformed-response"
    # inside the loop each failed completion is a spent iteration, as for a missing key
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == {
        "outcome": "infeasible", "iterations_used": 3, "edit_script": None, "edit_profile": None,
    }


def test_fcfs_cli(runner, fix_dir):
    p = _paths(fix_dir)
    res = runner.invoke(main, ["fcfs", p["wall"]])
    assert res.exit_code == 0
    assert "STEP 1, [S], MOVE_S" in res.output
    assert '"build_1"' in res.output


def test_plan_file_that_is_not_utf8_is_a_one_line_error(runner, fix_dir, tmp_path):
    path = tmp_path / "latin1.plan"
    path.write_bytes("STEP 1, [S], MOVE_S, [0], 0, [75] # café\n".encode("latin-1"))
    res = runner.invoke(main, ["validate", _paths(fix_dir)["wall"], str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ") and "Traceback" not in res.output


def test_fcfs_cli_unlowerable_schedule_is_an_error(runner, fix_dir, tmp_path):
    doc = json.loads(open(_paths(fix_dir)["wall"], encoding="utf-8").read())
    doc["resources"] = {}  # nothing to build with
    path = tmp_path / "nostock.scn.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    res = runner.invoke(main, ["fcfs", str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.output == "error: no stock left anywhere\n"


def test_metrics_cli(runner, fix_dir):
    p = _paths(fix_dir)
    res = runner.invoke(main, ["metrics", p["grid_llama"], p["grid_draft"]])
    assert res.exit_code == 0
    scores = json.loads(res.output)
    assert scores["rouge1"] == 0.9333
    res_full = runner.invoke(main, ["metrics", p["grid_llama"], p["grid_draft"], "--full-tokens"])
    assert res_full.exit_code == 0


def test_experiment_cli_end_to_end(runner, fix_dir, tmp_path):
    p = _paths(fix_dir)
    out = tmp_path / "out"
    res = runner.invoke(main, ["experiment", p["wall"], "--out-dir", str(out)])
    assert res.exit_code == 0, res.output
    summary = json.loads((out / "summary.json").read_text())
    assert summary["arms"]["generator-only"]["fr"] == 0.0
    assert summary["arms"]["hybrid/search-minimal"]["fr"] == 1.0
    assert (out / "similarity.csv").exists()
    assert (out / "edit_profile.csv").exists()


def test_experiment_nonexistent_scenario(runner, tmp_path):
    res = runner.invoke(main, ["experiment", "missing.scn.json", "--out-dir", str(tmp_path)])
    assert res.exit_code == 1


def test_experiment_out_dir_that_cannot_be_created_is_a_one_line_error(runner, fix_dir, tmp_path):
    blocker = tmp_path / "a_file"
    blocker.write_text("", encoding="utf-8")
    res = runner.invoke(main, ["experiment", _paths(fix_dir)["wall"], "--out-dir", str(blocker / "out")])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    assert res.output.startswith("error: ") and res.output.count("\n") == 1


@pytest.mark.parametrize(
    "options",
    [["--supervisor", "search-minimal", "--supervisor", "nope"], ["--mocks-dir", "missing"]],
    ids=["unknown_second_supervisor", "missing_mocks"],
)
def test_experiment_set_up_error_runs_nothing_and_writes_nothing(runner, fix_dir, tmp_path, monkeypatch, options):
    # every supervisor is built before the output directory is made and the
    # draft fetched, so a bad one runs no repair and leaves no directory
    repairs = []
    repair_loop = experiment.repair_loop

    def counted(*args):
        repairs.append(args)
        return repair_loop(*args)

    monkeypatch.setattr(experiment, "repair_loop", counted)
    out = tmp_path / "out"
    options = [str(tmp_path / o) if o == "missing" else o for o in options]
    res = runner.invoke(main, ["experiment", _paths(fix_dir)["wall"], "--out-dir", str(out), *options])
    assert res.exit_code == 1 and res.output.startswith("error: "), res.output
    assert repairs == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["repair", "experiment"])
def test_negative_budget_is_a_one_line_error(runner, fix_dir, tmp_path, command):
    p = _paths(fix_dir)
    if command == "repair":
        args = ["repair", p["wall"], p["wall_draft"]]
    else:
        args = ["experiment", p["wall"], "--out-dir", str(tmp_path / "out")]
    res = runner.invoke(main, args + ["--budget", "-1"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    assert res.output == "error: budget must be >= 0\n"


def test_coalition_member_outside_the_roster_is_no_traceback(runner, fix_dir, tmp_path):
    path = tmp_path / "coalition.plan"
    path.write_text("r1+r9: STEP 1, [S], MOVE_S, [0], 0, [75]\n", encoding="utf-8")
    wall = _paths(fix_dir)["wall"]
    res = runner.invoke(main, ["validate", wall, str(path)])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
    assert json.loads(res.output)["violations"][0]["detail"] == "unexecutable: unknown robot 'r9'"
    res = runner.invoke(main, ["repair", wall, str(path), "--budget", "1"])
    assert res.exit_code == 0 and res.exception is None
    assert json.loads(res.output)["outcome"] == "infeasible"


def test_a_draft_of_a_robot_outside_the_roster_is_no_traceback(runner, fix_dir, tmp_path):
    # every line of the wall draft labelled with a robot the scenario lacks
    p = _paths(fix_dir)
    path = tmp_path / "r9.plan"
    lines = Path(p["wall_draft"]).read_text(encoding="utf-8").splitlines()
    path.write_text("".join(f"r9: {line}\n" for line in lines), encoding="utf-8")
    res = runner.invoke(main, ["validate", p["wall"], str(path)])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
    assert json.loads(res.output)["violations"][0]["detail"] == "unexecutable: unknown robot 'r9'"
    res = runner.invoke(main, ["repair", p["wall"], str(path)])
    assert res.exit_code == 0 and res.exception is None, res.output
    assert json.loads(res.output)["outcome"] == "infeasible"


_WALL = scenario_doc("wall_assembly")
_R1 = _WALL["robots"][0]

# A step the executor cannot run on a copy of the wall scenario: (test id, the
# copy's top-level overrides, the step, the executor's reason).
_UNEXECUTABLE = [
    ("no_route", {}, "STEP 1, [Z], NAVIGATE Z, [0], 0, [75]", "no route C -> Z"),
    ("no_edge", {"site": dict(_WALL["site"], edges=[["S", "B", 1], ["B", "C", 1]])},
     "STEP 1, [S], MOVE_S, [0], 0, [75]", "no edge C -> S"),
    ("unlabelled_step_two_robots", {"robots": [_R1, dict(_R1, id="r2")]},
     "STEP 1, [S], MOVE_S, [0], 0, [75]", "plan omits robot ids but scenario has multiple robots"),
]


@pytest.mark.parametrize("overrides, step, reason", [c[1:] for c in _UNEXECUTABLE], ids=[c[0] for c in _UNEXECUTABLE])
def test_an_unexecutable_step_is_one_schema_violation_and_no_repair(runner, tmp_path, overrides, step, reason):
    scenario = _write_wall(tmp_path / "wall_assembly.scn.json", **overrides)
    plan = tmp_path / "one.plan"
    plan.write_text(step + "\n", encoding="utf-8")
    res = runner.invoke(main, ["validate", scenario, str(plan)])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit), res.output
    assert json.loads(res.output)["violations"] == [
        {"class": "schema", "step": 1, "detail": f"unexecutable: {reason}", "hint": "substitute IDLE @ step 1"}
    ]
    res = runner.invoke(main, ["repair", scenario, str(plan), "--budget", "1"])
    assert res.exit_code == 0 and res.exception is None, res.output
    assert json.loads(res.output) == {
        "outcome": "infeasible", "iterations_used": 3, "edit_script": None, "edit_profile": None,
    }


def test_an_empty_name_in_the_checks_list_is_skipped(runner, fix_dir):
    p = _paths(fix_dir)
    res = runner.invoke(main, ["validate", p["wall"], p["wall_draft"], "--checks", "battery,,coverage"])
    assert res.exit_code == 3, res.output
    assert json.loads(res.output)["checks_run"] == ["battery", "coverage"]
    same = runner.invoke(main, ["validate", p["wall"], p["wall_draft"], "--checks", "battery,coverage"])
    assert res.output == same.output


def test_simulate_an_empty_plan_for_an_empty_roster(runner, tmp_path):
    scenario = tmp_path / "nobody.scn.json"
    scenario.write_text(json.dumps(_minimal_doc(robots=[])), encoding="utf-8")
    plan = tmp_path / "empty.plan"
    plan.write_text("", encoding="utf-8")
    res = runner.invoke(main, ["simulate", str(scenario), str(plan)])
    assert res.exit_code == 0, res.output
    assert res.output == (
        '{"summary": {"discovered": [], "error": null, "makespan_tu": 0.0, "placed": 0, "scanned": []}}\n'
    )


def test_validate_on_text_that_does_not_parse_is_one_schema_violation_without_a_hint(runner, fix_dir, tmp_path):
    plan = tmp_path / "bad.plan"
    plan.write_text("STEP 1, garbage\n", encoding="utf-8")
    res = runner.invoke(main, ["validate", _paths(fix_dir)["wall"], str(plan)])
    assert res.exit_code == 3, res.output
    assert json.loads(res.output)["violations"] == [
        {"class": "schema", "step": 1, "detail": "expected 6 fields, got 2", "hint": None}
    ]


def test_simulate_stops_at_an_unexecutable_step(runner, fix_dir, tmp_path):
    plan = tmp_path / "two.plan"
    plan.write_text("STEP 1, [S], MOVE_S, [0], 0, [75]\nSTEP 2, [Z], NAVIGATE Z, [0], 0, [75]\n", encoding="utf-8")
    res = runner.invoke(main, ["simulate", _paths(fix_dir)["wall"], str(plan)])
    assert res.exit_code == 0, res.output
    *steps, summary = [json.loads(line) for line in res.output.splitlines()]
    assert [r["action"] for r in steps] == ["MOVE_S"]
    assert summary["summary"] == {
        "discovered": [], "error": "step 2 (r1): no route S -> Z", "makespan_tu": 1.0, "placed": 0, "scanned": [],
    }


def _no_go_b(tmp_path, draft: str, supervisor_answer: str) -> list[str]:
    """``experiment`` arguments for a copy of the wall with no tasks and B a
    no-go zone, whose generator answers ``draft`` and whose supervisor
    ``llm:x`` answers ``supervisor_answer``, both served as mocks."""
    scenario = _write_wall(tmp_path / "no_go_b.scn.json", tasks=[], dag=[], site=dict(_WALL["site"], no_go=["B"]))
    mocks = tmp_path / "mocks"
    mocks.mkdir()
    (mocks / "draft.txt").write_text(draft, encoding="utf-8")
    (mocks / "x.txt").write_text(supervisor_answer, encoding="utf-8")
    manifest = {"generator::no_go_b::1": "draft.txt", "x::no_go_b::1": "x.txt"}
    (mocks / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    profiles = tmp_path / "profiles.json"
    mock = {"endpoint": "mock://m"}
    profiles.write_text(json.dumps({"generator": dict(mock, role="generator"), "x": dict(mock, role="supervisor")}))
    return ["experiment", scenario, "--supervisor", "llm:x", "--mocks-dir", str(mocks), "--profiles", str(profiles),
            "--out-dir", str(tmp_path / "out")]


@pytest.mark.parametrize(
    "draft, answer, edits",
    [
        # the draft enters B; the supervisor answers an empty plan, which is feasible
        ("STEP 1, [B], MOVE_B, [0], 0, [75]\n", "", "S1: MOVE_B (-)"),
        # a generator answer of comments alone is an empty draft, feasible as it is
        ("# nothing to do here\n", "", "(none)"),
    ],
    ids=["empty_repair", "empty_draft"],
)
def test_an_empty_plan_on_either_side_has_no_similarity_row(runner, tmp_path, draft, answer, edits):
    res = runner.invoke(main, _no_go_b(tmp_path, draft, answer))
    assert res.exit_code == 0, res.output
    out = tmp_path / "out"
    assert (out / "similarity.csv").read_text() == "Supervisor,BLEU,ROUGE-1,ROUGE-L,METEOR\n"
    arm = json.loads((out / "summary.json").read_text())["arms"]["hybrid/llm:x"]
    assert (arm["fr"], arm["edited_steps"]) == (1.0, edits)


def test_repair_max_iters_zero_is_a_one_line_error(runner, fix_dir):
    p = _paths(fix_dir)
    res = runner.invoke(main, ["repair", p["wall"], p["wall_draft"], "--max-iters", "0"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.output == "error: max_iters must be >= 1\n"


def test_repair_winner_failing_validation_is_an_internal_error(runner, fix_dir, monkeypatch):
    # a validator that disagrees with the search's monitor on every plan
    def disagreeing(s, plan, checks=ALL_CHECKS, *, trace=None):
        r = validate(s, plan, checks, trace=trace)
        return ViolationReport(r.violations, r.checks_run, False)

    monkeypatch.setattr(repair, "validate", disagreeing)
    p = _paths(fix_dir)
    res = runner.invoke(main, ["repair", p["wall"], p["wall_draft"]])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert res.output == (
        "internal error: the search's winner [S5: MOVE_S->MOVE_C; S6: PICK->CHARGE] fails validation\n"
    )


_BAD_PROFILES = {
    "no_endpoint": {"gemma": {"role": "supervisor", "model_name": "gemma"}},
    "not_an_object": ["gemma"],
    "unmocked_generator": {"generator": {"endpoint": "mock://gen", "role": "generator"}},
}


@pytest.mark.parametrize(
    "command, bad",
    [
        ("repair", "missing_profiles"),
        ("repair", "missing_mocks"),
        ("experiment", "missing_mocks"),
        ("repair", "no_endpoint"),
        ("experiment", "no_endpoint"),
        ("repair", "not_an_object"),
        ("experiment", "not_an_object"),
        ("experiment", "unmocked_generator"),
    ],
)
def test_unreadable_llm_set_up_is_a_one_line_error(runner, fix_dir, tmp_path, command, bad):
    p = _paths(fix_dir)
    if bad == "missing_profiles":
        options = ["--profiles", str(tmp_path / "missing.json")]
    elif bad == "missing_mocks":
        options = ["--mocks-dir", str(tmp_path / "missing")]
    else:
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(_BAD_PROFILES[bad]), encoding="utf-8")
        options = ["--profiles", str(path)]
    supervisor = "llm:gemma"
    if bad == "unmocked_generator":  # no mock answers the generator's prompt
        (tmp_path / "mocks").mkdir()
        (tmp_path / "mocks" / "manifest.json").write_text("{}", encoding="utf-8")
        options += ["--mocks-dir", str(tmp_path / "mocks")]
        supervisor = "search-minimal"
    if command == "repair":
        args = ["repair", p["wall"], p["wall_draft"], "--supervisor", supervisor]
    else:
        args = ["experiment", p["wall"], "--supervisor", supervisor, "--out-dir", str(tmp_path / "out")]
    res = runner.invoke(main, args + options)
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    assert res.output.startswith("error: ") and res.output.count("\n") == 1


def test_profile_field_of_the_wrong_type_is_a_one_line_error(runner, fix_dir, tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps({"x": {"endpoint": 5}}), encoding="utf-8")
    p = _paths(fix_dir)
    res = runner.invoke(main, ["repair", p["wall"], p["wall_draft"], "--supervisor", "llm:x", "--profiles", str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    assert res.output == f"error: {path}: profile 'x': endpoint must be a string\n"


@pytest.mark.parametrize("empty", ["candidate", "reference"])
def test_metrics_on_an_empty_plan_is_a_one_line_error(runner, fix_dir, tmp_path, empty):
    path = tmp_path / "empty.plan"
    path.write_text("", encoding="utf-8")
    plan = _paths(fix_dir)["grid_draft"]
    args = [str(path), plan] if empty == "candidate" else [plan, str(path)]
    res = runner.invoke(main, ["metrics", *args])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    assert res.output.startswith("error: ") and res.output.count("\n") == 1


# The exit code and the SHA-256 of stdout of one run per command and fixture;
# the paths name the keys of ``_paths``, and ``experiment`` writes under tmp_path.
_PINNED = [
    ("validate wall wall_draft", 3, "d3caef105ce85ad4bfc0a750d986ac03aed6e287f2cdef11d994cdbb9ca2ab32"),
    ("validate grid grid_draft", 3, "56ca87679d69395c6dc02be291f236b57a9de5a568ed7070742f92580fb4ac17"),
    ("validate wall wall_gemma", 0, "13910ef18c7a9c897ababb750b9d70c8b006077f45b4dfbbdc49ec25e6d48ff6"),
    ("simulate wall wall_draft", 0, "d9ec168d1eaef88cd58a8aa21c77dc463c71583fffad8981ef6f83909a1c4aee"),
    ("simulate grid grid_draft", 0, "38b343072cd3c9e7d0f1b17a10ef6cd9ca130d88d1687a0e9ee4f6675fd52cea"),
    ("repair wall wall_draft --supervisor search-minimal", 0, "275ebcd4faec2600770f43c12b747d06348c9c626f5023616abecc0f410061f6"),
    ("repair wall wall_draft --supervisor search-conservative", 0, "275ebcd4faec2600770f43c12b747d06348c9c626f5023616abecc0f410061f6"),
    ("repair wall wall_draft --supervisor llm:mistral", 0, "5d882973613609b7faad37faf59c615edcbe85c916544deeedf56dd1ab091776"),
    ("repair grid grid_draft --supervisor search-minimal", 0, "d05ccf0e54adc063ba8657f5c07a01f6d11c42435d6ae3ba6c77d5bade5482aa"),
    ("repair grid grid_draft --supervisor search-conservative", 0, "932d3c5c8260ea02d4187879807310e35613580c6c9e35f756a838b16616148d"),
    ("repair grid grid_draft --supervisor llm:mistral", 0, "21364be0429e025ac0dbeb6f4fbbfeab700b4942b5f1269eba5d9b357a0cdcb0"),
    ("fcfs wall", 0, "6edb8432f1237e625b45792ee9a55a7c44d007fe982be1ee0afb4c5e29d91304"),
    ("fcfs grid", 0, "6b561c2abfc30b82bf9dac293f70e36834cfdf6424245fb27168ffa3f152444f"),
    ("metrics grid_llama grid_draft", 0, "ecfdb02815fe06e7aa90599121bad9bce4708ba26b6e1686c7fd855e3412cfdd"),
    ("metrics grid_llama grid_draft --full-tokens", 0, "4c8b291f0c580dda4f31d71e54dd2f7b103143b6629074df08eabe739cc0caec"),
    ("metrics grid_llama grid_draft --smoothing add-one", 0, "15aefa57cf4eb9bb7e8902bdbb24522ca3db9d44ae9ede3e59d7800c9e69755e"),
    ("experiment wall", 0, "f26d66de0ca5aac7a034912bbdfc380553638e22b9965c6e616d1e8c9a54c509"),
]


@pytest.mark.parametrize("command, code, digest", _PINNED, ids=[c for c, _, _ in _PINNED])
def test_cli_output_is_pinned(runner, fix_dir, tmp_path, command, code, digest):
    p = _paths(fix_dir)
    args = [p.get(a, a) for a in command.split()]
    if args[0] == "experiment":
        args += ["--out-dir", str(tmp_path / "out")]
    res = runner.invoke(main, args)
    assert res.exit_code == code, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize(
    "name, code, digest, stderr",
    [
        # the shipped draft fixture stands in for the generator: the run is `experiment wall`'s
        ("wall_assembly", 0, {c: d for c, _, d in _PINNED}["experiment wall"], ""),
        ("other", 1, hashlib.sha256(b"").hexdigest(), "error: no generator profile and no draft fixture for other\n"),
    ],
    ids=["wall_assembly", "other"],
)
def test_experiment_without_a_generator_profile_reads_the_draft_fixture(
    runner, fix_dir, tmp_path, name, code, digest, stderr
):
    profiles = json.loads((fix_dir / "llm_profiles.json").read_text(encoding="utf-8"))
    del profiles["generator"]
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(profiles), encoding="utf-8")
    scenario = _write_wall(tmp_path / f"{name}.scn.json")
    res = runner.invoke(main, ["experiment", scenario, "--profiles", str(path), "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == code, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest
    assert res.output[len(res.stdout_bytes.decode()):] == stderr


@pytest.mark.parametrize(
    "command",
    [
        "repair wall wall_draft --budget x",
        "metrics grid_llama grid_draft --smoothing x",
        "validate wall",
        "bogus wall",
        "",
        "repair wall wall_draft --max 3",
        "validate -h",
    ],
    ids=[
        "budget-not-an-int", "unknown-smoothing", "missing-argument", "unknown-subcommand", "no-subcommand",
        "abbreviated-option", "short-help",
    ],
)
def test_usage_errors_exit_2(runner, fix_dir, command):
    p = _paths(fix_dir)
    assert runner.invoke(main, [p.get(a, a) for a in command.split()]).exit_code == 2


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports foreman from
    the same source tree as this test."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


def test_a_cold_cli_imports_only_what_validate_runs(runner, fix_dir):
    # what the import adds beyond what `site` loaded first, by top-level name:
    # outside the standard library and foreman, then `dataclasses` and `inspect`
    code = (
        "import sys; before = set(sys.modules); import foreman.cli;"
        " added = {m.split('.')[0] for m in set(sys.modules) - before};"
        " print('logging' in sys.modules, sorted(added - sys.stdlib_module_names - {'foreman'}),"
        " sorted(added & {'dataclasses', 'inspect'}),"
        " ' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'foreman')))"
    )
    loaded = _fresh("-c", code)
    assert loaded.returncode == 0, loaded.stderr
    # The loader warns through `warnings`, which `site` loads, not `logging`
    # (about 2 ms of a cold validate).  The records are slotted classes, not
    # dataclasses: `dataclasses` pulls in `inspect`, `ast`, `dis` and
    # `tokenize` (about 4 ms), and building each class costs more on top.
    assert loaded.stdout.split() == [
        b"False",
        b"[]",
        b"[]",
        b"foreman", b"foreman.cli", b"foreman.executor", b"foreman.plan", b"foreman.scenario", b"foreman.validator",
    ]
    p = _paths(fix_dir)
    cold = _fresh("-m", "foreman.cli", "validate", p["wall"], p["wall_draft"])
    warm = runner.invoke(main, ["validate", p["wall"], p["wall_draft"]])
    assert cold.returncode == warm.exit_code == 3, cold.stderr
    assert cold.stdout == warm.stdout_bytes


def test_no_foreman_module_loads_dataclasses():
    code = (
        "import importlib, pathlib, sys; before = set(sys.modules); import foreman;"
        " names = sorted(p.stem for p in pathlib.Path(foreman.__file__).parent.glob('*.py') if p.stem != '__init__');"
        " [importlib.import_module('foreman.' + n) for n in names];"
        " print(' '.join(names), 'dataclasses' in set(sys.modules) - before)"
    )
    loaded = _fresh("-c", code)
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.split() == [
        b"cli", b"executor", b"experiment", b"fcfs", b"gateway", b"metrics", b"plan", b"repair", b"scenario",
        b"validator", b"False",
    ]


def test_every_subcommand_runs_from_a_fresh_interpreter(runner, fix_dir):
    for command in ["validate", "simulate", "repair", "fcfs", "metrics", "experiment"]:
        res = _fresh("-m", "foreman.cli", command, "--help")
        assert res.returncode == 0, (command, res.stderr)
        assert res.stdout.startswith(b"usage: "), command
    wall = _paths(fix_dir)["wall"]
    cold = _fresh("-m", "foreman.cli", "fcfs", wall)  # imports fcfs inside the command
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout == runner.invoke(main, ["fcfs", wall]).stdout_bytes



_CHECKS_BOGUS = (
    "error: unknown check class 'bogus' (valid: precedence, capability, capacity, battery, safety, schema, coverage)"
)


def _scan_b(fix_dir, tmp_path) -> str:
    """The wall document plus a SCAN task at B that no robot can do, written under ``tmp_path``."""
    doc = json.loads(Path(_paths(fix_dir)["wall"]).read_text(encoding="utf-8"))
    doc["tasks"].append({"id": "scan_b", "type": "SCAN", "required_skills": ["SCAN"], "location": "B"})
    path = tmp_path / "scan_b.scn.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# The loader's note on scan_b.  Under the test suite's filters a warning from
# foreman is an error, so the tests that load scan_b let this one through.
_SCAN_B_NOTE = "task scan_b requires skills no robot offers: ['SCAN']"
_SHOW_SCAN_B_NOTE = pytest.mark.filterwarnings("always:task scan_b requires skills no robot offers")


@_SHOW_SCAN_B_NOTE
def test_a_loader_warning_is_one_warning_line(runner, fix_dir, tmp_path):
    path = _scan_b(fix_dir, tmp_path)
    stderr = f"warning: {_SCAN_B_NOTE}\nerror: no single robot covers the skills of task 'scan_b'\n"
    res = runner.invoke(main, ["fcfs", path])
    assert res.exit_code == 1 and res.stdout_bytes == b""
    assert res.output == stderr
    cold = _fresh("-m", "foreman.cli", "fcfs", path)
    assert cold.returncode == 1 and cold.stdout == b""
    assert cold.stderr.decode() == stderr


# (command, last line of stderr) for error paths that exit 1; the paths name the
# keys of ``_paths`` or files that the test writes under tmp_path: ``bad.plan``
# fails the grammar, ``a_dir`` is a directory, ``scan_b.scn.json`` is the wall
# document plus a SCAN task at B that no robot can do, and ``pick_p.scn.json``
# is the wall document with one PICK task, a type that FCFS cannot lower.
_ERRORS = [
    ("simulate wall bad.plan", "error: line 1: expected 6 fields, got 2"),
    ("simulate wall missing.plan", "error: [Errno 2] No such file or directory: '{missing}'"),
    ("metrics bad.plan grid_draft", "error: line 1: expected 6 fields, got 2"),
    ("validate wall wall_draft --checks bogus", _CHECKS_BOGUS),
    ("validate wall a_dir", "error: [Errno 21] Is a directory: '{a_dir}'"),
    ("fcfs scan_b.scn.json", "error: no single robot covers the skills of task 'scan_b'"),
    ("fcfs pick_p.scn.json", "error: task p: cannot lower task type PICK"),
    ("repair wall wall_draft --supervisor nope", "error: unknown supervisor spec 'nope'"),
    ("repair wall wall_draft --supervisor llm:nope", "error: unknown LLM profile 'nope'"),
    ("experiment wall --checks bogus", _CHECKS_BOGUS),
]


@_SHOW_SCAN_B_NOTE
@pytest.mark.parametrize("command, last_line", _ERRORS, ids=[c for c, _ in _ERRORS])
def test_error_paths_exit_1_with_one_error_line(runner, fix_dir, tmp_path, command, last_line):
    (tmp_path / "bad.plan").write_text("STEP 1, garbage\n", encoding="utf-8")
    (tmp_path / "a_dir").mkdir()
    _scan_b(fix_dir, tmp_path)
    _write_wall(tmp_path / "pick_p.scn.json", tasks=[{"id": "p", "type": "PICK", "location": "S"}], dag=[])
    written = ("bad.plan", "missing.plan", "a_dir", "scan_b.scn.json", "pick_p.scn.json")
    names = dict(_paths(fix_dir), **{n: str(tmp_path / n) for n in written})
    args = [names.get(a, a) for a in command.split()]
    if args[0] == "experiment":
        args += ["--out-dir", str(tmp_path / "out")]
    res = runner.invoke(main, args)
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    assert res.stdout_bytes == b""
    # the loader's note on scan_b comes first
    notes = [f"warning: {_SCAN_B_NOTE}"] if "scan_b.scn.json" in command else []
    assert res.output.splitlines() == notes + [last_line.format(missing=names["missing.plan"], a_dir=names["a_dir"])]
