"""End-to-end experiment pipeline: generator-only vs hybrid vs FCFS.

``run_experiment`` replays the full supervision pipeline offline: the draft
comes from the (mock or live) generator, each configured supervisor
repairs it through the bounded loop, and FCFS schedules from scratch.
Outputs are a per-supervisor similarity CSV, an edit-profile CSV
(substitutions/insertions/reorders, edited steps, makespan delta, FR) and
a JSON summary, all byte-stable for equal configs and mock providers.
"""

from __future__ import annotations

import csv
import io
import json
import random
from pathlib import Path

from . import record
from .executor import execute, makespan
from .fcfs import RealizationError, UnassignableTask, fcfs_schedule
from .gateway import Gateway, GatewayError, LlmProfile, build_generator_prompt, load_profiles, strip_plan_preamble
from .metrics import eval_run
from .plan import Plan, parse_plan
from .repair import LlmSupervisor, SearchSupervisor, repair_loop
from .scenario import Scenario, load_scenario
from .validator import ALL_CHECKS, ViolationClass, validate


class ConfigError(ValueError):
    pass


def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"


@record()
class ExperimentConfig:
    scenario_path: Path
    supervisors: tuple[str, ...] = ("search-minimal",)
    max_iters: int = 3
    budget: int = 4
    checks: frozenset[ViolationClass] = ALL_CHECKS
    out_dir: Path = Path("out")
    seed: int = 0
    mocks_dir: Path | None = None
    profiles_path: Path | None = None

    def validate_config(self):
        if not Path(self.scenario_path).exists():
            raise ConfigError(f"scenario file not found: {self.scenario_path}")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.budget < 0:
            raise ConfigError("budget must be >= 0")
        if self.profiles_path is not None and not Path(self.profiles_path).exists():
            raise ConfigError(f"profiles file not found: {self.profiles_path}")


def llm_access(cfg: ExperimentConfig) -> tuple[Gateway, dict[str, LlmProfile]]:
    """The gateway and the LLM profiles ``cfg`` names (the shipped ones by
    default); ConfigError when either cannot be read."""
    mocks = cfg.mocks_dir if cfg.mocks_dir is not None else fixtures_dir() / "mocks"
    try:
        return Gateway(mocks_dir=mocks), load_profiles(cfg.profiles_path or fixtures_dir() / "llm_profiles.json")
    except (GatewayError, OSError, ValueError) as e:
        raise ConfigError(str(e)) from None


def make_supervisor(spec: str, cfg: ExperimentConfig, gateway: Gateway, profiles):
    """The supervisor a spec names: search-minimal, search-conservative or llm:<profile>."""
    if spec == "search-minimal":
        return SearchSupervisor("minimal", cfg.budget)
    if spec == "search-conservative":
        return SearchSupervisor("conservative", cfg.budget)
    if spec.startswith("llm:"):
        name = spec.split(":", 1)[1]
        if name not in profiles:
            raise ConfigError(f"unknown LLM profile {name!r}")
        return LlmSupervisor(gateway, profiles[name])
    raise ConfigError(f"unknown supervisor spec {spec!r}")


def _fetch_draft(s: Scenario, gateway: Gateway, profiles) -> Plan:
    """Generator arm input: mock/live completion, else the shipped draft fixture."""
    if "generator" in profiles:
        prompt = build_generator_prompt(s)
        try:
            raw = gateway.complete(profiles["generator"], prompt, mock_key=("generator", s.name, 1))
        except GatewayError as e:
            raise ConfigError(str(e)) from None
        return parse_plan(strip_plan_preamble(raw))
    draft_file = fixtures_dir() / "plans" / f"{s.name}.draft.plan"
    if not draft_file.exists():
        raise ConfigError(f"no generator profile and no draft fixture for {s.name}")
    return parse_plan(draft_file.read_text(encoding="utf-8"))


def _arm(feasible: bool, psi: int, makespan_tu: float, t_rep: int = 0, edited_steps: str = "", error: str = "") -> dict:
    """One arm's entry in ``summary.json``; FR and FPR both read feasibility."""
    fr = 1.0 if feasible else 0.0
    return {
        "fr": fr, "fpr": fr, "psi": psi, "makespan_tu": makespan_tu, "t_rep": t_rep,
        "edited_steps": edited_steps, "error": error,
    }


def _write_csv(path: Path, rows: list[list]) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(buf.getvalue())


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all three arms; returns the summary dict and writes report files."""
    cfg.validate_config()
    s = load_scenario(cfg.scenario_path)
    gateway, profiles = llm_access(cfg)
    supervisors = [make_supervisor(spec, cfg, gateway, profiles) for spec in cfg.supervisors]  # before any write
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    draft = _fetch_draft(s, gateway, profiles)
    draft_trace = execute(s, draft)
    draft_report = validate(s, draft, cfg.checks, trace=draft_trace)
    draft_ms = makespan(draft_trace)
    arms = {"generator-only": _arm(draft_report.feasible, draft_report.psi, draft_ms)}

    include_r2 = s.site.is_grid()  # grid runs report R-2; wall runs omit the column
    similarity = [["Supervisor", "BLEU", "ROUGE-1"] + (["ROUGE-2"] if include_r2 else []) + ["ROUGE-L", "METEOR"]]
    edit_profile = [
        ["Supervisor", "Substitutions", "Insertions", "Reorders", "EditedSteps", "DeltaMakespanTU", "FR", "Strategy"]
    ]
    for supervisor in supervisors:
        result = repair_loop(s, draft, supervisor, cfg.max_iters, cfg.checks)
        report = eval_run(s, draft, result)
        label = supervisor.name
        script = result.script.render() if result.script else ""
        arms[f"hybrid/{label}"] = _arm(
            result.feasible, result.report.psi, report.makespan_tu, result.iterations_used, script
        )
        sc = report.scores
        if sc is not None:
            r2 = [f"{sc.rouge2:.4f}"] if include_r2 else []  # two tokens per step: R-2 is defined
            similarity.append(
                [label, f"{sc.bleu:.4f}", f"{sc.rouge1:.4f}", *r2, f"{sc.rougeL:.4f}", f"{sc.meteor:.4f}"]
            )
        edits, delta, fr = report.edits, f"{report.makespan_delta:g}", f"{report.fr:.1f}"
        edit_profile.append([label, edits.substitutions, edits.insertions, edits.reorders, script, delta, fr, label])
    try:
        _, fcfs_plan = fcfs_schedule(s)
    except (UnassignableTask, RealizationError) as e:  # an unschedulable baseline is a result, not a crash
        arms["fcfs"] = _arm(False, -1, 0.0, error=str(e))
    else:
        fcfs_trace = execute(s, fcfs_plan)
        fcfs_report = validate(s, fcfs_plan, cfg.checks, trace=fcfs_trace)
        arms["fcfs"] = _arm(fcfs_report.feasible, fcfs_report.psi, makespan(fcfs_trace))

    _write_csv(out_dir / "similarity.csv", similarity)
    _write_csv(out_dir / "edit_profile.csv", edit_profile)
    summary = {
        "scenario": s.name,
        "checks": sorted(c.value for c in cfg.checks),
        "max_iters": cfg.max_iters,
        "budget": cfg.budget,
        "seed": cfg.seed,
        "draft": {"feasible": draft_report.feasible, "psi": draft_report.psi, "makespan_tu": draft_ms},
        "arms": arms,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


# ---------------------------------------------------------------------------
# Seeded scenario batch (battery-pressured wall worlds)
# ---------------------------------------------------------------------------


def battery_pressured_batch(seed: int, n: int) -> list[Scenario]:
    """Random single-robot triangle worlds where naive schedules run dry.

    Demand and initial battery vary so that a deterministic slice of the
    batch is FCFS-infeasible yet repairable within the default edit budget.
    """
    from .scenario import load_scenario_dict

    rng = random.Random(seed)
    out = []
    for i in range(n):
        trips = rng.choice([1, 2, 3])
        demand = 3 * trips
        battery = rng.choice([50, 75, 100])
        doc = {
            "instruction": f"build a {demand}-brick wall (batch instance {i})",
            "site": {
                "kind": "named_graph",
                "nodes": ["S", "B", "C"],
                "edges": [["S", "B", 1], ["B", "C", 1], ["C", "S", 1]],
                "chargers": ["C"],
            },
            "robots": [
                {
                    "id": "r1",
                    "skills": ["MOVE_S", "MOVE_B", "MOVE_C", "PICK", "BUILD", "CHARGE"],
                    "payload_capacity": 3,
                    "battery_max": 100,
                    "battery_init": battery,
                    "start_location": "C",
                }
            ],
            "tasks": [
                {
                    "id": f"build_{k + 1}",
                    "type": "BUILD",
                    "required_skills": ["BUILD"],
                    "location": "B",
                    "demand": 3,
                    "duration": 1,
                }
                for k in range(trips)
            ],
            "dag": [[f"build_{k + 1}", f"build_{k + 2}"] for k in range(trips - 1)],
            "cost": {"battery_per_du": 25, "tu_per_du": 1, "pick_build_tu_per_3mu": 1, "recharge_tu": 1},
            "resources": {"S": demand},
        }
        out.append(load_scenario_dict(doc, name=f"batch_{i}"))
    return out


def fcfs_vs_hybrid(scenarios: list[Scenario], budget: int = 2, max_iters: int = 3) -> dict:
    """Feasibility comparison over a batch: the directional FCFS claim.

    The batch default keeps the edit budget at 2 so exhausting the search
    on unrepairable instances stays cheap; a tighter budget only weakens
    the hybrid arm, so the directional claim is conservative.

    The hybrid arm repairs the FCFS plan itself, and ``repair_loop`` hands
    back that same plan object only when its first validation passed it; no
    supervisor returns the object it was given (the search does so only for
    a feasible draft, and the LLM arm parses a new plan).  So an
    FCFS-feasible instance is hybrid-feasible, and ``fcfs_only_wins`` is 0.
    """
    fcfs_ok = hybrid_ok = 0
    for s in scenarios:
        _, plan = fcfs_schedule(s)
        result = repair_loop(s, plan, SearchSupervisor("minimal", budget), max_iters)
        fcfs_ok += result.plan is plan
        hybrid_ok += result.feasible
    n = len(scenarios)
    return {
        "n": n,
        "fcfs_rate": fcfs_ok / n,
        "hybrid_rate": hybrid_ok / n,
        "strict_hybrid_wins": hybrid_ok - fcfs_ok,
        "fcfs_only_wins": 0,
        "neither": n - hybrid_ok,
    }
