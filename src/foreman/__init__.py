"""Feasibility toolkit for API-level construction robot schedules.

Validate, repair, simulate and score six-field command plans against
declarative scenarios; includes a deterministic minimal-edit search
supervisor, an LLM supervisor gateway with offline mocks, an FCFS
baseline, and similarity metrics over plan tokens.
"""

from .executor import ExecError, Trace, WorldState, coverage_complete, execute, makespan
from .fcfs import Assignment, RealizationError, UnassignableTask, fcfs_schedule
from .gateway import (
    Gateway,
    GatewayError,
    LlmProfile,
    build_generator_prompt,
    build_supervisor_prompt,
    load_profiles,
    strip_plan_preamble,
    supervise_with_llm,
)
from .metrics import EvalReport, SimilarityScores, bleu, eval_run, meteor, rouge, similarity
from .plan import (
    Action,
    ActionKind,
    Plan,
    PlanStep,
    SchemaError,
    parse_plan,
    serialize_plan,
    tokenize_plan,
)
from .repair import (
    EditOp,
    EditScript,
    RepairResult,
    SearchSupervisor,
    SupervisorError,
    edit_script,
    minimal_edit_repair,
    repair_loop,
)
from .scenario import (
    CostModel,
    ParseError,
    PrecedenceDag,
    PromptContext,
    RobotSpec,
    ScanFootprint,
    Scenario,
    SiteMap,
    TaskSpec,
    ValidationError,
    canonical_context,
    load_scenario,
    serialize_scenario,
)
from .validator import (
    FixHint,
    Violation,
    ViolationClass,
    ViolationReport,
    validate,
    validate_text,
)

__version__ = "0.1.0"
