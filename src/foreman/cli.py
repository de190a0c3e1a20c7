"""Command-line entry point: validate / repair / simulate / fcfs / metrics / experiment.

Exit codes: 0 = ran to completion, 1 = config or I/O error, 2 = usage error
or internal invariant breach.  ``validate`` additionally exits 3 when the
plan is infeasible (so scripts can branch on feasibility without parsing JSON).
``main`` alone turns a failure into its exit code: a ``ValueError`` (every
documented foreman error is one) or an ``OSError`` prints ``error: <message>``
and exits 1, and an ``AssertionError`` prints ``internal error: <message>``
and exits 2.  The commands themselves catch nothing.  A warning raised while
a command runs, such as the loader's note on a task no robot can do, prints
``warning: <message>``.

Each command imports the modules it runs inside its body, so a cold
``validate`` or ``simulate`` loads only plan, scenario, executor and validator.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path
from typing import NoReturn

from .executor import execute, makespan
from .plan import parse_plan, serialize_plan, tokenize_plan, tokenize_plan_full
from .scenario import load_scenario
from .validator import parse_check_names, validate_text


def cmd_validate(scenario_path, plan_path, checks):
    """Validate PLAN against SCENARIO; exit 0 iff feasible (3 otherwise)."""
    s = load_scenario(scenario_path)
    wanted = parse_check_names(checks)
    report = validate_text(s, Path(plan_path).read_text(encoding="utf-8"), wanted)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.feasible else 3


def cmd_simulate(scenario_path, plan_path):
    """Replay PLAN against SCENARIO, one JSON record per step plus a summary."""
    s = load_scenario(scenario_path)
    plan = parse_plan(Path(plan_path).read_text(encoding="utf-8"))
    trace = execute(s, plan)
    for e in trace.entries:
        record = {
            "step": e.step.step,
            "robot": e.robot,
            "action": str(e.step.action),
            "location": e.location,
            "battery": e.battery,
            "cargo": e.cargo,
            "placed": e.placed_total,
            "tu_cost": e.tu_cost,
            "du_cost": e.du_cost,
        }
        print(json.dumps(record, sort_keys=True))
    summary = {
        "makespan_tu": makespan(trace),
        "placed": trace.final.placed_total,
        "error": str(trace.error) if trace.error else None,
        "scanned": sorted(map(list, trace.final.scanned)),
        "discovered": sorted(map(list, trace.final.discovered)),
    }
    print(json.dumps({"summary": summary}, sort_keys=True))
    return 0


def cmd_repair(scenario_path, plan_path, supervisor_spec, max_iters, budget, checks, profiles_path, mocks_dir):
    """Run the bounded validate->repair loop on PLAN."""
    from .experiment import ExperimentConfig, llm_access, make_supervisor
    from .repair import repair_loop

    s = load_scenario(scenario_path)
    plan = parse_plan(Path(plan_path).read_text(encoding="utf-8"))
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
    result = repair_loop(s, plan, supervisor, max_iters, cfg.checks)
    payload = result.to_dict()
    if result.feasible:
        payload["plan"] = serialize_plan(result.plan)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_fcfs(scenario_path):
    """Schedule SCENARIO with the FCFS baseline; plan text plus assignment JSON."""
    from .fcfs import fcfs_schedule

    assignment, plan = fcfs_schedule(load_scenario(scenario_path))
    print(serialize_plan(plan).rstrip("\n"))
    print(json.dumps(assignment.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_metrics(candidate_path, reference_path, smoothing, full_tokens):
    """Similarity scores between two plan files (candidate vs reference)."""
    from .metrics import similarity

    cand = parse_plan(Path(candidate_path).read_text(encoding="utf-8"))
    ref = parse_plan(Path(reference_path).read_text(encoding="utf-8"))
    tok = tokenize_plan_full if full_tokens else tokenize_plan
    scores = similarity(tok(cand), tok(ref), smoothing)
    print(json.dumps(scores.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_experiment(scenario_path, supervisors, max_iters, budget, checks, out_dir, seed, profiles_path, mocks_dir):
    """Run generator-only, hybrid and FCFS arms; write CSV/JSON reports."""
    from .experiment import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(
        scenario_path=Path(scenario_path),
        supervisors=tuple(supervisors or ("llm:gemma", "llm:llama", "llm:mistral", "search-minimal")),
        max_iters=max_iters,
        budget=budget,
        checks=parse_check_names(checks),
        out_dir=Path(out_dir),
        seed=seed,
        mocks_dir=Path(mocks_dir) if mocks_dir else None,
        profiles_path=Path(profiles_path) if profiles_path else None,
    )
    summary = run_experiment(cfg)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> NoReturn:
    """Schedule feasibility toolkit for construction robot scenarios."""
    # `--help` is the one help option (no `-h`), and no option may be abbreviated
    plain = {"add_help": False, "allow_abbrev": False}
    parser = argparse.ArgumentParser(prog="foreman", description=main.__doc__, **plain)
    parser.add_argument("--help", action="help", help="show this message and exit")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, *paths):
        sub = commands.add_parser(run.__name__[4:], help=run.__doc__, description=run.__doc__, **plain)
        sub.add_argument("--help", action="help", help="show this message and exit")
        sub.set_defaults(run=run)
        for path in paths:
            sub.add_argument(path)
        return sub

    def loop_options(sub):  # repair's and experiment's
        sub.add_argument("--max-iters", type=int, default=3, help="default: 3")
        sub.add_argument("--budget", type=int, default=4, help="edit budget for the search supervisor (default: 4)")
        sub.add_argument("--checks", default="all")
        sub.add_argument("--profiles", dest="profiles_path")
        sub.add_argument("--mocks-dir")

    sub = command(cmd_validate, "scenario_path", "plan_path")
    sub.add_argument("--checks", default="all", help="comma list of check classes (ablation)")
    command(cmd_simulate, "scenario_path", "plan_path")
    sub = command(cmd_repair, "scenario_path", "plan_path")
    sub.add_argument("--supervisor", dest="supervisor_spec", default="search-minimal",
                     help="search-minimal | search-conservative | llm:<profile>")
    loop_options(sub)
    command(cmd_fcfs, "scenario_path")
    sub = command(cmd_metrics, "candidate_path", "reference_path")
    sub.add_argument("--smoothing", choices=["add-one"])
    sub.add_argument("--full-tokens", action="store_true", help="include numeric state fields in tokens")
    sub = command(cmd_experiment, "scenario_path")
    sub.add_argument("--supervisor", dest="supervisors", action="append",
                     help="repeatable; defaults to llm:gemma, llm:llama, llm:mistral and search-minimal")
    loop_options(sub)
    sub.add_argument("--out-dir", default="out", help="default: out")
    sub.add_argument("--seed", type=int, default=0, help="default: 0")

    args = vars(parser.parse_args(argv))
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            code = args.pop("run")(**args)
        except (ValueError, OSError) as e:  # every documented foreman error is a ValueError
            print(f"error: {e}", file=sys.stderr)
            code = 1
        except AssertionError as e:  # internal invariant breach
            print(f"internal error: {e}", file=sys.stderr)
            code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
