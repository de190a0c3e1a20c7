"""Feasibility toolkit for API-level construction robot schedules.

Validate, repair, simulate and score six-field command plans against
declarative scenarios.  The API lives in the submodules, and the package
root holds only ``__version__``:

- ``plan``: the plan text grammar (``parse_plan``, ``serialize_plan``);
- ``scenario``: scenario files and the site model (``load_scenario``);
- ``executor``: ground-truth replay of a plan (``execute``);
- ``validator``: typed feasibility checks (``validate``);
- ``repair``: the deterministic minimal-edit search supervisor
  (``minimal_edit_repair``, ``repair_loop``);
- ``gateway``: the LLM supervisor gateway with offline mocks;
- ``fcfs``: the FCFS baseline scheduler (``fcfs_schedule``);
- ``metrics``: similarity metrics over plan tokens;
- ``experiment``: the end-to-end experiment pipeline (``run_experiment``);
- ``cli``: the ``foreman`` command, which imports only what a command runs.

Each record is a plain class with ``__slots__`` and its own ``__init__``, so
that no import pays for ``dataclasses``.  Records are read-only by convention,
except what a run updates in place: ``WorldState`` and its ``RobotState``s,
``CheckState``, and the ``PlanStep``s that ``repair.reconcile_plan`` fills in.
"""

__version__ = "0.1.0"
