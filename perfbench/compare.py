"""Compare two sets of benchmark results: a parent commit and a change.

Reads every untraced result file (``*.json`` written by run.py) in each
directory and prints one row per workload x end-to-end metric: each side's
median and quartiles with its run count, the number of pairs, the change's
wins, and a verdict.  Runs are paired by seed where both sides ran it,
otherwise in the order they were made.  The verdicts follow the rule the
benchmark is judged by:

* improved    -- over at least ten pairs, the change wins at least 9/10 of
                 them (ties count for neither) and the medians differ by more
                 than the parent's interquartile range;
* unresolved  -- the parent's own spread (IQR / median) is wider than the
                 metric's bound, unless every change run beats every parent
                 run (then ``no worse``);
* worse       -- the change's median is worse than the parent's by more
                 than the bound;
* no worse    -- otherwise.

A change that fails more items than its parent is reported ``worse`` on a
``failed`` row.  The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10


def load(directory: Path) -> dict[str, list[dict]]:
    """workload -> untraced results, oldest first."""
    runs = defaultdict(list)
    for p in sorted(directory.glob("*.json")):
        r = json.loads(p.read_text(encoding="utf-8"))
        if r["stamp"]["trace"] == 0:
            runs[r["workload"]].append(r)
    for rs in runs.values():
        rs.sort(key=lambda r: r["stamp"]["started_utc"])
    return runs


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["stamp"]["seed"]: r for r in change}
    matched = [(p, by_seed[p["stamp"]["seed"]]) for p in parent if p["stamp"]["seed"] in by_seed]
    if len(matched) == min(len(parent), len(change)):
        return matched
    return list(zip(parent, change))


def verdict(pv, cv, paired, better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "lower" else -1.0  # positive = worse
    q1, pm, q3 = quartiles(pv)
    cm = statistics.median(cv)
    wins = sum(1 for a, b in paired if sign * (b - a) < 0)
    change_better = sign * (cm - pm) < 0
    if len(paired) >= MIN_PAIRS and wins >= 0.9 * len(paired) and change_better and abs(cm - pm) > (q3 - q1):
        return "improved", wins
    all_better = all(sign * (c - p) < 0 for c in cv for p in pv)
    if pm and (q3 - q1) / abs(pm) > bound and not all_better:
        return "unresolved", wins
    if pm and sign * (cm - pm) / abs(pm) > bound:
        return "worse", wins
    return "no worse", wins


def _fmt(xs: list[float]) -> str:
    q1, med, q3 = quartiles(xs)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(xs)}"


def main(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    import workloads

    bounds = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    for wl in workloads.WORKLOADS.values():
        bounds.update(wl.detail)
    parent, change = load(parent_dir), load(change_dir)
    rows = [("workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "pairs", "wins", "verdict")]
    worse = 0
    for name in sorted(set(parent) | set(change)):
        if name not in parent or name not in change:
            rows.append((name, "-", "-", "-", "-", "0", "0", f"only in {'parent' if name in parent else 'change'}"))
            continue
        paired_runs = pairs(parent[name], change[name])
        failed = [sum(r["failed"] for r in side[name]) for side in (parent, change)]
        if failed[1] > failed[0]:
            worse += 1
            rows.append((name, "failed", "count", str(failed[0]), str(failed[1]), "-", "-", "worse"))
        for metric, (unit, better, bound) in bounds.items():
            pv = [r["metrics"][metric]["value"] for r in parent[name] if metric in r["metrics"]]
            cv = [r["metrics"][metric]["value"] for r in change[name] if metric in r["metrics"]]
            if not pv or not cv:
                continue
            paired = [(a["metrics"][metric]["value"], b["metrics"][metric]["value"]) for a, b in paired_runs]
            v, wins = verdict(pv, cv, paired, better, bound)
            worse += v == "worse"
            rows.append((name, metric, unit, _fmt(pv), _fmt(cv), str(len(paired)), str(wins), v))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if worse else 0
