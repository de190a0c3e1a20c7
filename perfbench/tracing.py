"""Spans recorded from outside foreman, at the names its callers look up.

``Tracer.install`` replaces every binding of each traced public function in
the loaded ``foreman`` modules with a wrapper that records a span: name,
start, end, parent span and the benchmark item being worked on.  Spans are
kept in flat arrays in memory and aggregated (or written out) when the run
ends.  The benchmark assumes one thread: the parent of a span is whatever
span is open when it starts.

A traced name that has disappeared from foreman is an error, never a silent
zero: ``install`` raises when a target or one of the caller bindings the
layer metrics rely on is missing, and ``require`` raises when a span that a
workload must produce was never recorded.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path


class TracingError(RuntimeError):
    """A traced name is missing, so the per-layer numbers would be wrong."""


def _plan_len(args, kwargs, result):
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    return len(plan)


def _steps_parsed(args, kwargs, result):
    return len(result)


def _with_trace(args, kwargs, result):
    # candidate validations in the search pass the replay's trace
    return int(kwargs.get("trace", args[4] if len(args) > 4 else None) is not None)


def _found(args, kwargs, result):
    return int(result.feasible)


# (span name, defining module, attribute, per-call value)
TARGETS = (
    ("scenario.load_scenario", "foreman.scenario", "load_scenario", None),
    ("scenario.load_scenario_dict", "foreman.scenario", "load_scenario_dict", None),
    ("plan.parse_plan", "foreman.plan", "parse_plan", _steps_parsed),
    ("executor.execute", "foreman.executor", "execute", _plan_len),
    ("validator.validate", "foreman.validator", "validate", _with_trace),
    ("repair.minimal_edit_repair", "foreman.repair", "minimal_edit_repair", _found),
    ("repair.reconcile_plan", "foreman.repair", "reconcile_plan", None),
    ("repair.repair_loop", "foreman.repair", "repair_loop", None),
    ("repair.edit_script", "foreman.repair", "edit_script", None),
    ("gateway.Gateway.complete", "foreman.gateway", "Gateway.complete", None),
    ("gateway.supervise_with_llm", "foreman.gateway", "supervise_with_llm", None),
    ("fcfs.fcfs_schedule", "foreman.fcfs", "fcfs_schedule", None),
    ("metrics.eval_run", "foreman.metrics", "eval_run", None),
    ("experiment.run_experiment", "foreman.experiment", "run_experiment", None),
    ("experiment.fcfs_vs_hybrid", "foreman.experiment", "fcfs_vs_hybrid", None),
)

# Module-level names whose callers the layer metrics are defined through.
REQUIRED_BINDINGS = (
    ("foreman.repair", "execute"),
    ("foreman.repair", "validate"),
    ("foreman.repair", "reconcile_plan"),
    ("foreman.repair", "minimal_edit_repair"),
    ("foreman.experiment", "repair_loop"),
    ("foreman.experiment", "eval_run"),
    ("foreman.experiment", "fcfs_schedule"),
    ("foreman.experiment", "validate"),
    ("foreman.validator", "execute"),
)

SETUP_ITEM = "setup"


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.items: list[str] = []
        self.item_index: dict[str, int] = {}
        self.cur_item = -1
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.value = array("q")
        self.stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def set_item(self, label: str) -> None:
        idx = self.item_index.get(label)
        if idx is None:
            idx = self.item_index[label] = len(self.items)
            self.items.append(label)
        self.cur_item = idx

    def _wrap(self, fn, name_id, value_of):
        start, end, name, parent, item, value, stack = (
            self.start, self.end, self.name, self.parent, self.item, self.value, self.stack,
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(name_id)
            item.append(tracer.cur_item)
            value.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if value_of is not None:
                value[idx] = value_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        """Wrap every binding of every target; raise if any target is gone."""
        if self._patches:
            raise TracingError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if m is not None and (n == "foreman" or n.startswith("foreman."))]
        patched: set[tuple[str, str]] = set()
        for name_id, (span, mod_name, attr, value_of) in enumerate(TARGETS):
            mod = sys.modules.get(mod_name)
            if mod is None:
                raise TracingError(f"{span}: module {mod_name} is not loaded")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, leaf, None) if owner is not None else None
            if orig is None:
                raise TracingError(f"{span}: {mod_name}.{attr} no longer exists")
            wrapper = self._wrap(orig, name_id, value_of)
            if owner_name:  # a method: patch the class attribute
                self._patch(owner, leaf, orig, wrapper)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapper)
                        patched.add((m.__name__, key))
        missing = [f"{m}.{k}" for m, k in REQUIRED_BINDINGS if (m, k) not in patched]
        if missing:
            self.uninstall()
            raise TracingError("caller bindings no longer found: " + ", ".join(missing))

    def _patch(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def require(self, span_names) -> None:
        """Raise unless every named span was recorded at least once."""
        seen = {self.names[i] for i in set(self.name)}
        missing = sorted(set(span_names) - seen)
        if missing:
            raise TracingError("spans never recorded (renamed or no longer called?): " + ", ".join(missing))

    def write(self, path: Path, t0: float) -> None:
        """Write all spans as gzipped TSV, times in seconds from ``t0``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("id\tname\tstart_s\tend_s\tparent\titem\tvalue\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.items[self.item[i]]}\t{self.value[i]}\n"
                )

    def layer_metrics(self, traced_passes: int) -> dict[str, float]:
        """Per-layer numbers for one set-up plus one traced pass.

        Spans recorded during set-up count once; spans of the timed passes
        are divided by the number of traced passes.
        """
        n = len(self.start)
        names, name, parent, item, value = self.names, self.name, self.parent, self.item, self.value
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        setup_idx = self.item_index.get(SETUP_ITEM, -2)
        # key -> [set-up sum, traced-pass sum]; combined once at the end so
        # per-pass counts stay whole numbers
        acc: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        search_id = names.index("repair.minimal_edit_repair")
        replay_id = names.index("repair.reconcile_plan")
        validate_id = names.index("validator.validate")
        for i in range(n):
            k = 1 if item[i] != setup_idx else 0
            nm = names[name[i]]
            acc["count." + nm][k] += 1
            acc["total." + nm][k] += dur[i]
            acc["self." + nm][k] += dur[i] - child[i]
            acc["value." + nm][k] += value[i]
            layer = nm.split(".", 1)[0]
            p = parent[i]
            if p < 0 or names[name[p]].split(".", 1)[0] != layer:
                acc["outer." + layer][k] += dur[i]  # layer time not nested in the same layer
            if p >= 0 and name[p] == search_id:  # direct children of the search
                if name[i] == replay_id:
                    acc["replayed"][k] += 1
                    acc["replay_s"][k] += dur[i]
                elif name[i] == validate_id:
                    acc["validated"][k] += value[i]

        def get(key: str) -> float:
            setup, passes = acc[key] if key in acc else (0.0, 0.0)
            return setup + passes / traced_passes

        replayed = get("replayed")
        found = get("value.repair.minimal_edit_repair")
        return {
            "scenario.loads": get("count.scenario.load_scenario_dict"),
            "scenario.load_s": get("outer.scenario"),
            "plan.parse_calls": get("count.plan.parse_plan"),
            "plan.lines": get("value.plan.parse_plan"),
            "plan.parse_s": get("total.plan.parse_plan"),
            "executor.calls": get("count.executor.execute"),
            "executor.steps": get("value.executor.execute"),
            "executor.self_s": get("self.executor.execute"),
            "validator.calls": get("count.validator.validate"),
            "validator.self_s": get("self.validator.validate"),
            "repair.search_calls": get("count.repair.minimal_edit_repair"),
            "repair.search_s": get("total.repair.minimal_edit_repair"),
            "repair.search_self_s": get("self.repair.minimal_edit_repair"),
            "repair.candidates_replayed": replayed,
            "repair.replay_s": get("replay_s"),
            "repair.candidates_validated": get("validated"),
            "repair.repairs_found": found,
            "repair.useful_ratio": found / replayed if replayed else 0.0,
            "repair.loop_s": get("total.repair.repair_loop"),
            "repair.edit_script_s": get("total.repair.edit_script"),
            "gateway.calls": get("count.gateway.Gateway.complete"),
            "gateway.complete_s": get("total.gateway.Gateway.complete"),
            "gateway.supervise_s": get("total.gateway.supervise_with_llm"),
            "fcfs.calls": get("count.fcfs.fcfs_schedule"),
            "fcfs.schedule_s": get("total.fcfs.fcfs_schedule"),
            "metrics.eval_s": get("total.metrics.eval_run"),
            "experiment.self_s": get("self.experiment.run_experiment") + get("self.experiment.fcfs_vs_hybrid"),
            "trace.spans": sum(get(k) for k in list(acc) if k.startswith("count.")),
        }
