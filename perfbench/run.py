"""foreman benchmark: run one workload, all of them, or compare two result sets.

    python3 perfbench/run.py --workload fixtures|batch|oracle|all \
        --seed N --seconds S --trace 0|1 [--out DIR]
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

Run from the root of a checkout.  A run sets up the workload five times or more
(importing foreman afresh each time) and reports the median set-up time,
warms the workload once, then times whole passes until ``--seconds`` would
be exceeded (at least one pass; batch's one pass stops at ``--seconds``
once every instance class has run).  Every timing is normalised for the
host's speed by ``speed.SpeedProbe``.  With ``--trace 1`` it alternates
whole untraced and traced passes instead, and reports the per-layer
numbers.  Every run
writes a stamped result file under ``--out`` and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up runs at least SETUP_REPEATS times, and more while it has taken less
# than SETUP_MIN_S in all (up to SETUP_MAX_REPEATS)
SETUP_REPEATS = 5
SETUP_MIN_S = 1.5
SETUP_MAX_REPEATS = 25
MAX_REPORTED_ERRORS = 5
STARTED = datetime.datetime.now(datetime.timezone.utc)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Pass(NamedTuple):
    starts: array  # per item, perf_counter at the call
    times: array  # per item, in item order
    total: float  # sum of item times: checks and bookkeeping excluded
    wall: float
    attempted: int
    failed: int
    errors: list


def run_pass(wl, items, tracer=None, deadline=None) -> Pass:
    """Call every item once, or stop at ``deadline`` once the workload's
    ``min_items`` have run."""
    clock = time.perf_counter
    starts, times, outs, errors = array("d"), array("d"), [], []
    failed = 0
    t_pass = clock()
    wl.begin_pass()
    try:
        for i, it in enumerate(items):
            if deadline is not None and i >= wl.min_items and clock() >= deadline:
                break
            if tracer is not None:
                tracer.set_item(it.label)
            t0 = clock()
            try:
                out = wl.call(it)
            except Exception as e:  # an item that raises counts as a mismatch
                out = e
            times.append(clock() - t0)
            starts.append(t0)
            outs.append(out)
            if isinstance(out, Exception):
                ok, why = False, f"{type(out).__name__}: {out}"
            else:
                try:
                    ok, why = wl.check(it, out), "differs from the known answer"
                except Exception as e:  # output no longer has the checked shape
                    ok, why = False, f"check failed: {type(e).__name__}: {e}"
            if not ok:
                failed += 1
                if len(errors) < MAX_REPORTED_ERRORS:
                    errors.append(f"{it.label}: {why}")
    finally:
        wl.end_pass()
    extra = wl.finish_pass(outs)
    if extra:
        errors.append(f"{wl.name}: pass aggregate differs from the known answer")
    return Pass(starts, times, sum(times), clock() - t_pass, len(outs) + extra, failed + extra, errors)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return r.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over foreman's sources and this benchmark, so runs of a
    checkout without git history can still be told apart."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts and "out" not in p.relative_to(base).parts[:1]:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def cli_import_s(reps: int = 5) -> float:
    """Median time of ``import foreman.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import foreman.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    xs = []
    for _ in range(reps):
        r = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                           text=True, timeout=60, check=True)
        xs.append(float(r.stdout))
    return statistics.median(xs)


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, so the speed probe
    samples the CPU a child (the cold CLI) runs on."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def more_setups(setups: list, traced: bool) -> bool:
    if traced:  # one set-up, whose spans the layer metrics count
        return not setups
    n = len(setups)
    return n < SETUP_REPEATS or n < SETUP_MAX_REPEATS and sum(dt for _, dt in setups) < SETUP_MIN_S


def normalised(p: Pass, probe) -> Pass:
    times = array("d", map(probe.normalise, p.starts, p.times))
    return p._replace(times=times, total=sum(times))


def measure(args, work_dir: Path) -> dict:
    import speed
    import tracing
    import workloads

    wl_cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    probe = speed.SpeedProbe()
    probe.start()
    try:
        setups = []  # (start, wall seconds)
        while more_setups(setups, tracer is not None):
            wl = None
            gc.collect()
            t0 = time.perf_counter()
            fm = workloads.import_foreman()
            if tracer is not None:
                tracer.install()
                tracer.set_item(tracing.SETUP_ITEM)
                try:
                    wl = wl_cls(fm, args.seed, work_dir)
                finally:
                    tracer.uninstall()
            else:
                wl = wl_cls(fm, args.seed, work_dir)
            setups.append((t0, time.perf_counter() - t0))
        wl.prepare_answers()
        run_pass(wl, wl.warm_items())

        untraced, traced = [], []
        t_start = time.perf_counter()
        # traced runs keep whole passes: the layer metrics are per pass
        deadline = None if tracer else t_start + args.seconds
        while True:
            p = run_pass(wl, wl.items, deadline=deadline)
            untraced.append(p)
            predicted = p.wall
            if tracer is not None:
                tracer.install()
                try:
                    q = run_pass(wl, wl.items, tracer)
                finally:
                    tracer.uninstall()
                traced.append(q)
                predicted += q.wall
            if len(p.times) < len(wl.items) or time.perf_counter() - t_start + predicted > args.seconds:
                break
    finally:
        probe.stop()
    # before the benchmark's own bookkeeping allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = untraced + traced
    attempted = sum(p.attempted for p in measured)
    failed = sum(p.failed for p in measured)
    errors = [e for p in measured for e in p.errors][:MAX_REPORTED_ERRORS]

    runs = [normalised(p, probe) for p in untraced]
    times = [t for p in runs for t in p.times]
    setup_s = [probe.normalise(t0, dt) for t0, dt in setups]
    metrics = {
        "setup_s": workloads.Metric(statistics.median(setup_s), "s", len(setups)),
        "pass_s": workloads.Metric(workloads.typical_pass_s(wl.items, runs), "s", len(times)),
        "verdict_ms.tail": workloads.Metric(workloads.percentile(times, wl.tail_pct) * 1e3, "ms", len(times)),
        "peak_rss_mb": workloads.Metric(peak_rss_mb, "MB", 1),
    }
    metrics.update(wl.details(runs))
    # the same timings on the wall clock, not normalised
    metrics["wall.setup_s"] = workloads.Metric(statistics.median(dt for _, dt in setups), "s", len(setups))
    metrics["wall.pass_s"] = workloads.Metric(
        workloads.typical_pass_s(wl.items, untraced), "s", sum(len(p.times) for p in untraced))
    metrics["host.slowdown"] = workloads.Metric(statistics.median(probe.dur) / speed.REF_S, "ratio", len(probe.dur))
    metrics["host.probe_share"] = workloads.Metric(probe.overhead_share(), "ratio", len(probe.dur))
    metrics["mismatch_share"] = workloads.Metric(failed / attempted, "ratio", attempted)

    result = {
        "workload": wl.name,
        "tail_percentile": wl.tail_pct,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {k: m._asdict() for k, m in metrics.items()},
        "trace_overhead_s": None,
    }
    if tracer is not None:
        tracer.require(wl.required_spans)
        overhead = (statistics.median(normalised(q, probe).total for q in traced)
                    - statistics.median(p.total for p in runs))
        layers = tracer.layer_metrics(len(traced))
        layers.update(workloads.time_check_classes(wl.fm, wl.plan_set()))
        layers["cli.import_s"] = cli_import_s() if wl.name == "fixtures" else 0.0
        layers["trace.overhead_s"] = overhead
        result["per_layer"] = layers
        result["trace_overhead_s"] = overhead
        result["traced_passes"] = len(traced)
        spans = args.out / f"{result_stem(args)}.spans.tsv.gz"
        tracer.write(spans, t_start)
        result["spans_file"] = str(spans)
    return result


def result_stem(args) -> str:
    return f"{args.workload}-trace{args.trace}-seed{args.seed}-{STARTED:%Y%m%dT%H%M%S}-{os.getpid()}"


def stamp(args, load_before, result) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": sys.version,
        "nproc": os.cpu_count(),
        "cpu_pinned": args.cpu,
        "host": platform.node(),
        "platform": platform.platform(),
        "started_utc": STARTED.isoformat(),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "samples": {k: m["n"] for k, m in result["metrics"].items()},
        "trace_overhead_s": result["trace_overhead_s"],
    }


def print_report(result: dict) -> None:
    print(f"# foreman benchmark  workload={result['stamp']['workload']}  seed={result['stamp']['seed']}  "
          f"trace={result['stamp']['trace']}  loadavg {result['stamp']['loadavg_before'][0]:.2f}"
          f" -> {result['stamp']['loadavg_after'][0]:.2f}")
    for name, m in result["metrics"].items():
        print(f"  {name:<22} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<34} {value:>14.6g}")
    for e in result["errors"]:
        print(f"  MISMATCH {e}")
    if result.get("spans_file"):
        print(f"  spans written to {result['spans_file']}")


def result_line(result: dict, spec: dict, trace: int) -> str:
    if trace:
        metrics = {
            m["name"]: {"value": float(result["per_layer"][m["name"]]), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def run_all(args) -> int:
    """Run every workload, each in its own process, and print a summary."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(args.out)]
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = r.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if r.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {r.returncode}", file=sys.stderr)
            return r.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("fixtures", "batch", "oracle", "all"))
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(HERE / "out" / "results"), help="directory for result files")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.compare:
        import compare

        return compare.main(Path(args.compare[0]), Path(args.compare[1]), spec)
    if not args.workload:
        ap.error("--workload or --compare is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    missing = [p for p in ("src/foreman/__init__.py", "tests/brute_oracle.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a foreman checkout (missing {', '.join(missing)}) under {ROOT}", file=sys.stderr)
        return 2
    args.out = Path(args.out).resolve()
    if args.workload == "all":
        return run_all(args)

    load_before = list(os.getloadavg())
    args.cpu = pin_to_one_cpu()
    work_dir = HERE / "out" / f"tmp-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["stamp"] = stamp(args, load_before, result)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{result_stem(args)}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print_report(result)
    print(result_line(result, spec, args.trace), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
