"""frustumbox benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout holding `src/frustumbox`. The run:

1. records the environment and refuses to report (exit 3) unless OpenBLAS
   runs one thread, since reproducibility and spread both rest on the pin;
2. builds the workload's inputs from the seed three times, each in a fresh
   process (`prepare.py`), and reports the median as `setup_s`;
3. runs the workload's round (see `workloads.py`) in this process again and
   again until the next round would end past `--seconds`, and at least three
   times (`--trace 0`); each timed metric is a median over the rounds or
   commands, so a short slow spell of the shared host moves it little. The
   traced run (`--trace 1`) runs one untraced and two traced rounds;
4. checks the outputs and prints, as its last line, one JSON object with
   `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
   untraced, or the per-layer metrics traced.

The tracing overhead is the traced minus the untraced round time. Its spans go to
`.bench_out/trace-<workload>-seed<seed>.json`. Temporary inputs live under
`.bench_work/` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pipeline import ROOT, MissingProgram, environment, import_program, tree_digest

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
MIN_ROUNDS = 3
TRACED_ROUNDS = 2
MIN_TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def tail(values):
    """(value, percentile): p90, or the highest percentile with >= 10 values
    beyond it when fewer than 100 values are given."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = max(MIN_TAIL_BEYOND, n // 10)
    if n <= beyond:
        return ordered[-1], 100
    return ordered[n - beyond - 1], math.floor(100 * (n - beyond) / n)


def prepare(workload, seed, out):
    """One set-up in a fresh process; returns its JSON report."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), workload, str(seed), str(out)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(run_one, seconds, minimum):
    """Run rounds until the next one would end past `seconds`, and at least
    `minimum`; returns their results and wall seconds."""
    results, durations = [], []
    start = time.perf_counter()
    while len(results) < minimum or (
            time.perf_counter() - start + statistics.median(durations) <= seconds):
        began = time.perf_counter()
        results.append(run_one(len(results)))
        durations.append(time.perf_counter() - began)
    return results, durations


def check_repeats(results, problems):
    prints = [r.fingerprint() for r in results]
    if any(p != prints[0] for p in prints[1:]):
        problems.append(f"rounds disagree on outputs that must repeat: {prints}")


def end_to_end(setups, results, problems):
    """The eight end-to-end metrics, with their units."""
    loss = results[0].loss
    if loss is None or not math.isfinite(loss):
        problems.append(f"last-epoch loss is {loss}")
    steps = [1000.0 * s for r in results for s in r.step_s]
    tail_ms, tail_pct = tail(steps) if steps else (None, None)
    print(f"train_step_ms_tail is p{tail_pct} of {len(steps)} steps")
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "train_samples_per_s": (
            median([r.samples / r.train_wall_s for r in results if r.train_wall_s]), "samples/s"),
        "train_step_ms_p50": (median(steps), "ms"),
        "train_step_ms_tail": (tail_ms, "ms"),
        "train_loss_last_epoch": (loss, "loss"),
        "annotate_objects_per_s": (
            median([x for r in results for x in r.annotate_rates]), "objects/s"),
        "annotate_miou": (results[0].miou[0] if results[0].miou else None, "IoU"),
    }


def median(values):
    """The median, or None (printed as null) when failed commands left no values."""
    return statistics.median(values) if values else None


def measure(args, workload, work):
    """Set up, run the rounds, check them; returns the result object."""
    from tracing import (Recorder, Tracer, per_layer_metrics, self_time_table, summarize,
                         write_trace)
    from workloads import probe_2d_only, run_round

    problems = []
    setups, digests = [], []
    for k in range(SETUP_REPEATS):
        out = work / f"setup{k}"
        setups.append(prepare(workload.name, args.seed, out))
        digests.append(tree_digest(out))
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(out)
    inputs = work / f"setup{SETUP_REPEATS - 1}"
    if len(set(digests)) != 1:
        problems.append("set-up repeats wrote different inputs")
    print("setup_s per repeat: " + ", ".join(f"{s['setup_s']:.3f}" for s in setups))

    def run_one(tag, train=True):
        def one(k):
            out = work / f"{tag}{k}"
            result = run_round(workload, inputs, out, train)
            shutil.rmtree(out)
            return result
        return one

    recorder = None
    if args.trace:
        untraced, untraced_s = repeat(run_one("plain", workload.trace_train), 0, 1)
        recorder = Recorder()

        def traced_one(k):
            recorder.start_run(f"{workload.name}/seed{args.seed}/round{k}")
            with Tracer(recorder):
                return run_one("traced", workload.trace_train)(k)

        results, durations = repeat(traced_one, 0, TRACED_ROUNDS)
        check_repeats(untraced + results, problems)
    else:
        results, durations = repeat(run_one("round"), args.seconds, MIN_ROUNDS)
        check_repeats(results, problems)
    print("round s: " + ", ".join(f"{d:.3f}" for d in durations))
    for r in results:
        problems.extend(r.problems)

    probe = probe_2d_only(inputs, work / "probe")
    print(f"2D-only probe: {probe.care} care boxes, {probe.missing} got no label line "
          f"(annotate exit failures: {probe.failed_commands})")

    attempted = sum(r.commands + r.steps + r.care for r in results)
    failed = sum(r.failed_commands + r.non_finite + r.missing for r in results)

    if not args.trace:
        metrics = end_to_end(setups, results, problems)
        return problems, attempted, failed, metrics

    runs = summarize(recorder)
    metrics, trace_problems = per_layer_metrics(runs)
    problems.extend(trace_problems)
    overhead = 100.0 * (statistics.median(durations) - untraced_s[0]) / untraced_s[0]
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics["probe_2d.boxes_attempted"] = (probe.care, "count")
    metrics["probe_2d.boxes_failed"] = (probe.missing + probe.failed_commands, "count")
    selfs = self_time_table(runs)
    print("self ms per span (mean per traced round): "
          + ", ".join(f"{k} {v:.1f}" for k, v in selfs.items()))
    print(f"tracing overhead: {overhead:+.2f}% "
          f"(traced {statistics.median(durations):.3f} s vs untraced {untraced_s[0]:.3f} s)")
    trace_path = ROOT / ".bench_out" / f"trace-{workload.name}-seed{args.seed}.json"
    write_trace(trace_path, recorder, {
        "workload": workload.name, "seed": args.seed, "environment": environment(),
        "why": workload.why, "roadmap": workload.roadmap,
        "untraced_round_s": untraced_s, "traced_round_s": durations,
        "self_ms": selfs, "metrics": {k: v for k, (v, _) in metrics.items()},
    })
    print(f"spans: {trace_path.relative_to(ROOT)}")
    return problems, attempted, failed, metrics


def main(argv=None):
    args = parse_args(argv)
    try:
        import_program()
    except MissingProgram as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    if env["openblas_threads"] != 1:
        print(f"perfbench: invalid run, OpenBLAS runs {env['openblas_threads']} threads, "
              "not 1", file=sys.stderr)
        return 3
    print(f"workload {workload.name}: {workload.why} ({workload.roadmap})")

    work = ROOT / ".bench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        problems, attempted, failed, metrics = measure(args, workload, work)
    except (RuntimeError, subprocess.TimeoutExpired) as err:  # a set-up that failed
        print(f"perfbench: {err}", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
