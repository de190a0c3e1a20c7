import json

import pytest
from click.testing import CliRunner

from foreman.cli import main
from foreman.plan import parse_plan
from foreman.scenario import load_scenario
from foreman.validator import validate
from test_scenario import _MALFORMED, _minimal_doc


@pytest.fixture
def runner():
    return CliRunner()


def _paths(fix_dir):
    return {
        "wall": str(fix_dir / "wall_assembly.scn.json"),
        "grid": str(fix_dir / "scan_grid.scn.json"),
        "wall_draft": str(fix_dir / "plans" / "wall_assembly.draft.plan"),
        "wall_gemma": str(fix_dir / "plans" / "wall_assembly.gemma.plan"),
        "grid_draft": str(fix_dir / "plans" / "scan_grid.draft.plan"),
        "grid_llama": str(fix_dir / "plans" / "scan_grid.llama.plan"),
    }


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
