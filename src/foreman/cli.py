"""Command-line entry point: validate / repair / simulate / fcfs / metrics / experiment.

Exit codes: 0 = ran to completion, 1 = config or I/O error, 2 = internal
invariant breach.  ``validate`` additionally exits 3 when the plan is
infeasible (so scripts can branch on feasibility without parsing JSON).

Each command imports the modules it runs inside its body, so a cold
``validate`` or ``simulate`` loads only plan, scenario, executor and validator.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .executor import execute, makespan
from .plan import SchemaError, parse_plan, serialize_plan, tokenize_plan, tokenize_plan_full
from .scenario import ParseError, ValidationError, load_scenario
from .validator import parse_check_names, validate_text


def _load(scenario_path: str):
    try:
        return load_scenario(scenario_path)
    except (ParseError, ValidationError, OSError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)


def _read_plan_text(plan_path: str) -> str:
    try:
        return Path(plan_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)


@click.group()
def main():
    """Schedule feasibility toolkit for construction robot scenarios."""


@main.command("validate")
@click.argument("scenario_path", type=click.Path())
@click.argument("plan_path", type=click.Path())
@click.option("--checks", default="all", help="comma list of check classes (ablation)")
def cmd_validate(scenario_path, plan_path, checks):
    """Validate PLAN against SCENARIO; exit 0 iff feasible (3 otherwise)."""
    s = _load(scenario_path)
    try:
        wanted = parse_check_names(checks)
    except ValueError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    report = validate_text(s, _read_plan_text(plan_path), wanted)
    click.echo(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    sys.exit(0 if report.feasible else 3)


@main.command("simulate")
@click.argument("scenario_path", type=click.Path())
@click.argument("plan_path", type=click.Path())
def cmd_simulate(scenario_path, plan_path):
    """Replay PLAN against SCENARIO, one JSON record per step plus a summary."""
    s = _load(scenario_path)
    try:
        plan = parse_plan(_read_plan_text(plan_path))
    except SchemaError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    trace = execute(s, plan)
    for e in trace.entries:
        click.echo(
            json.dumps(
                {
                    "step": e.step.step,
                    "robot": e.robot,
                    "action": str(e.step.action),
                    "location": e.location,
                    "battery": e.battery,
                    "cargo": e.cargo,
                    "placed": e.placed_total,
                    "tu_cost": e.tu_cost,
                    "du_cost": e.du_cost,
                },
                sort_keys=True,
            )
        )
    summary = {
        "makespan_tu": makespan(trace),
        "placed": trace.final.placed_total,
        "error": str(trace.error) if trace.error else None,
        "scanned": sorted(map(list, trace.final.scanned)),
        "discovered": sorted(map(list, trace.final.discovered)),
    }
    click.echo(json.dumps({"summary": summary}, sort_keys=True))
    sys.exit(0)


@main.command("repair")
@click.argument("scenario_path", type=click.Path())
@click.argument("plan_path", type=click.Path())
@click.option("--supervisor", "supervisor_spec", default="search-minimal",
              help="search-minimal | search-conservative | llm:<profile>")
@click.option("--max-iters", default=3, show_default=True)
@click.option("--budget", default=4, show_default=True, help="edit budget for the search supervisor")
@click.option("--checks", default="all")
@click.option("--profiles", "profiles_path", type=click.Path(), default=None)
@click.option("--mocks-dir", type=click.Path(), default=None)
def cmd_repair(scenario_path, plan_path, supervisor_spec, max_iters, budget, checks, profiles_path, mocks_dir):
    """Run the bounded validate->repair loop on PLAN."""
    from .experiment import ExperimentConfig, llm_access, make_supervisor
    from .repair import repair_loop

    s = _load(scenario_path)
    try:
        plan = parse_plan(_read_plan_text(plan_path))
        cfg = ExperimentConfig(
            scenario_path=Path(scenario_path),
            max_iters=max_iters,
            budget=budget,
            checks=parse_check_names(checks),
            mocks_dir=Path(mocks_dir) if mocks_dir else None,
            profiles_path=Path(profiles_path) if profiles_path else None,
        )
        cfg.validate_config()
        supervisor = make_supervisor(supervisor_spec, cfg, *llm_access(cfg))
    except (SchemaError, ValueError) as e:  # ConfigError included
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    try:
        result = repair_loop(s, plan, supervisor, max_iters, cfg.checks)
    except AssertionError as e:  # internal invariant breach
        click.echo(f"internal error: {e}", err=True)
        sys.exit(2)
    payload = result.to_dict()
    if result.feasible and result.plan is not None:
        payload["plan"] = serialize_plan(result.plan)
    click.echo(json.dumps(payload, indent=2, sort_keys=True))
    sys.exit(0)


@main.command("fcfs")
@click.argument("scenario_path", type=click.Path())
def cmd_fcfs(scenario_path):
    """Schedule SCENARIO with the FCFS baseline; plan text plus assignment JSON."""
    from .fcfs import RealizationError, UnassignableTask, fcfs_schedule

    s = _load(scenario_path)
    try:
        assignment, plan = fcfs_schedule(s)
    except (UnassignableTask, RealizationError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    click.echo(serialize_plan(plan).rstrip("\n"))
    click.echo(json.dumps(assignment.to_dict(), indent=2, sort_keys=True))
    sys.exit(0)


@main.command("metrics")
@click.argument("candidate_path", type=click.Path())
@click.argument("reference_path", type=click.Path())
@click.option("--smoothing", type=click.Choice(["add-one"]), default=None)
@click.option("--full-tokens", is_flag=True, help="include numeric state fields in tokens")
def cmd_metrics(candidate_path, reference_path, smoothing, full_tokens):
    """Similarity scores between two plan files (candidate vs reference)."""
    from .metrics import EmptyInput, EmptyReference, similarity

    try:
        cand = parse_plan(_read_plan_text(candidate_path))
        ref = parse_plan(_read_plan_text(reference_path))
    except SchemaError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    tok = tokenize_plan_full if full_tokens else tokenize_plan
    try:
        scores = similarity(tok(cand), tok(ref), smoothing)
    except (EmptyReference, EmptyInput) as e:  # a plan file without steps
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    click.echo(json.dumps(scores.to_dict(), indent=2, sort_keys=True))
    sys.exit(0)


@main.command("experiment")
@click.argument("scenario_path", type=click.Path())
@click.option("--supervisor", "supervisors", multiple=True,
              help="repeatable; defaults to llm:gemma, llm:llama, llm:mistral and search-minimal")
@click.option("--max-iters", default=3, show_default=True)
@click.option("--budget", default=4, show_default=True)
@click.option("--checks", default="all")
@click.option("--out-dir", default="out", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--profiles", "profiles_path", type=click.Path(), default=None)
@click.option("--mocks-dir", type=click.Path(), default=None)
def cmd_experiment(scenario_path, supervisors, max_iters, budget, checks, out_dir, seed, profiles_path, mocks_dir):
    """Run generator-only, hybrid and FCFS arms; write CSV/JSON reports."""
    from .experiment import ExperimentConfig, run_experiment

    if not supervisors:
        supervisors = ("llm:gemma", "llm:llama", "llm:mistral", "search-minimal")
    try:
        cfg = ExperimentConfig(
            scenario_path=Path(scenario_path),
            supervisors=tuple(supervisors),
            max_iters=max_iters,
            budget=budget,
            checks=parse_check_names(checks),
            out_dir=Path(out_dir),
            seed=seed,
            mocks_dir=Path(mocks_dir) if mocks_dir else None,
            profiles_path=Path(profiles_path) if profiles_path else None,
        )
        summary = run_experiment(cfg)
    except (ValueError, OSError) as e:  # ConfigError included; OSError from writing the reports
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    except AssertionError as e:  # internal invariant breach
        click.echo(f"internal error: {e}", err=True)
        sys.exit(2)
    click.echo(json.dumps(summary, indent=2, sort_keys=True))
    sys.exit(0)


if __name__ == "__main__":
    main()
