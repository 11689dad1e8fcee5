"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload seq_greedy --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` answers the
same question list once untraced and once traced and prints the per-layer
metrics, writing the spans to ``.perfbench/`` in the repository root.
The last line of standard output is the JSON result; the lines before it
are a readable report.  Workload parameters and the reason for each
workload are in ``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class InvalidRun(Exception):
    """The run cannot be reported: its numbers would not mean anything."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_pass(cls, params: dict, seed: int, seconds: int, repeats: int,
             recorder=None):
    """Set the workload up ``repeats`` times, then answer its list once."""
    from workloads import SpeedProbe, clear_process_caches

    setups, generates, workload = [], [], None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
            workload = None
        # Each set-up starts from a collected heap, so it neither pays
        # for nor keeps the previous set-up's garbage.
        gc.collect()
        clear_process_caches()
        workload = cls(params, seed, seconds, recorder)
        with SpeedProbe() as speed:
            started = time.perf_counter()
            generates.append(workload.setup())
            elapsed = time.perf_counter() - started
        setups.append((elapsed, speed.take()))
    if recorder is not None:
        recorder.clear()
    # Start every timed pass from the same collector state: set-up
    # garbage collected, and the inputs and warmed system frozen out of
    # later collections, so a full collection scans what the pass made.
    gc.collect()
    gc.freeze()
    try:
        result = workload.run()
    finally:
        workload.close()
        gc.unfreeze()
    return workload, result, setups, generates


def check_loadgen(result, params: dict) -> None:
    """An open loop whose generator fell behind measured something else."""
    late = result.layer.get("late")
    if late and percentile(late, 0.99) * 1000 > params["late_limit_ms"]:
        raise InvalidRun(
            f"load generator fell behind: p99 lateness "
            f"{percentile(late, 0.99) * 1000:.1f} ms > "
            f"{params['late_limit_ms']} ms")


def check_outputs(workload, result, config: dict) -> list[str]:
    """Output checks; returns the list of problems found."""
    problems = []
    if result.accuracy < config["min_accuracy"]:
        problems.append(f"accuracy {result.accuracy:.3f} below "
                        f"{config['min_accuracy']}")
    # Direct AgentSpec.build(seed).run answers for an evenly spaced
    # sample of the non-degraded answers must match what was served.
    by_uid = {q.uid: q for q in workload.questions}
    served = [a for a in result.answers
              if a.success and a.outcome != "degraded"]
    step = max(1, len(served) // config["reference_sample"])
    sample = served[::step][:config["reference_sample"]]
    questions = [by_uid[a.uid.split("#")[0]] for a in sample]
    for answer, expected in zip(sample, workload.reference(questions)):
        if answer.answer != expected:
            problems.append(f"{answer.uid}: served {answer.answer} but a "
                            f"direct run answers {expected}")
    return problems


def scaled_cpu(result, probe_ref: float) -> float:
    """The pass's CPU seconds at the reference host speed."""
    return sum(r.cpu * probe_ref / r.probe for r in result.rounds)


def end_to_end(params, result, setups, probe_ref: float) -> dict:
    """Every end-to-end metric, timings scaled to the reference speed.

    A duration measured while the probe took ``p`` seconds is scaled by
    ``probe_ref / p``: the figure the host would give at the speed where
    the probe takes ``probe_ref``.  In the open loop the arrival schedule
    fixes the rate, and only the part of each latency that is not awaited
    model time is scaled: host speed does not change the model's latency.
    """
    from workloads import peak_rss_mb

    n = result.attempted
    closed = params["loop"] != "open"
    latencies = []
    for r in result.rounds:
        scale = probe_ref / r.probe
        latencies += [a.awaited + (a.latency - a.awaited) * scale
                      for a in result.answers[r.start:r.start + r.count]]
    limit = params["latency_limit_ms"]
    met = sum(a.success and (limit is None or a.latency * 1000 <= limit)
              for a in result.answers)
    return {
        "setup_s": (statistics.median(
            elapsed * probe_ref / p for elapsed, p in setups), "s"),
        "qps": (n / sum(r.wall * (probe_ref / r.probe if closed else 1.0)
                        for r in result.rounds), "1/s"),
        "latency_p50_ms": (percentile(latencies, 0.50) * 1000, "ms"),
        "latency_p99_ms": (percentile(latencies, 0.99) * 1000, "ms"),
        "cpu_ms_per_q": (scaled_cpu(result, probe_ref) * 1000 / n, "ms"),
        "accuracy": (result.accuracy, "share"),
        "model_calls_per_q": (result.model_calls / n, "calls/q"),
        "tokens_per_q": (result.tokens / n, "tokens/q"),
        "success_share": ((n - result.failed) / n, "share"),
        "slo_met_share": (met / n, "share"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def raw_timings(result, setups) -> str:
    """The unscaled figures, for the readable report."""
    n = result.attempted
    wall = sum(r.wall for r in result.rounds)
    probe = statistics.median(r.probe for r in result.rounds)
    return (f"raw: setup_s median {statistics.median(e for e, _ in setups):.4f}"
            f"  qps {n / wall:.2f}  cpu_ms_per_q "
            f"{result.cpu * 1000 / n:.4f}  probe median {probe * 1000:.3f} ms")


def per_layer(result, untraced, recorder, generates,
              probe_ref: float) -> dict:
    n = result.attempted
    spans = recorder.totals()

    def self_ms(name):
        return spans.get(name, {}).get("self", 0.0) * 1000 / n

    def calls(name):
        return spans.get(name, {}).get("count", 0)

    def errors(name):
        return ratio(spans.get(name, {}).get("errors", 0), calls(name))

    layer = result.layer
    encode_hits, encode_misses = layer["counts"]["encode"]
    plan_hits, plan_misses = layer["counts"]["plan"]
    vector, dispatched, fallback = layer["counts"]["tiers"]
    serving = layer.get("serving", {})
    before = layer.get("serving_before", {})

    def served(key):
        return ratio(serving.get(key, 0) - before.get(key, 0), n)

    waits = layer.get("queue_waits", [])
    aio = layer.get("aio", {})
    roots = sum(s.duration for s in recorder.spans
                if s.parent is None and s.name != "serving.submit")
    has_serving = "serving" in layer
    return {
        "llm.complete_ms_per_q": (self_ms("llm.complete"), "ms/q"),
        "llm.parse_prompt_ms_per_q": (self_ms("llm.parse_prompt"), "ms/q"),
        "llm.calls_per_q": (result.model_calls / n, "calls/q"),
        "llm.prompt_tokens_per_call": (ratio(
            sum(c.prompt_tokens for c in result.counters),
            result.model_calls), "tokens/call"),
        "prompt.build_ms_per_q": (self_ms("prompt.build"), "ms/q"),
        "prompt.encode_cache_hit_share": (ratio(
            encode_hits, encode_hits + encode_misses), "share"),
        "engine.self_ms_per_q": (self_ms("engine.run"), "ms/q"),
        "engine.iterations_per_q": (
            sum(a.iterations for a in result.answers) / n, "count/q"),
        "engine.forced_share": (
            sum(bool(a.forced) for a in result.answers) / n, "share"),
        "executors.sql_ms_per_q": (self_ms("executors.sql"), "ms/q"),
        "executors.sql_calls_per_q": (calls("executors.sql") / n, "calls/q"),
        "executors.sql_error_share": (errors("executors.sql"), "share"),
        "executors.python_ms_per_q": (self_ms("executors.python"), "ms/q"),
        "executors.python_calls_per_q": (
            calls("executors.python") / n, "calls/q"),
        "executors.python_error_share": (errors("executors.python"), "share"),
        "sqlengine.vector_share": (ratio(vector, dispatched), "share"),
        "sqlengine.fallback_per_q": (fallback / n, "count/q"),
        "sqlengine.plan_cache_hit_share": (ratio(
            plan_hits, plan_hits + plan_misses), "share"),
        "serving.self_ms_per_q": (self_ms("serving.answer"), "ms/q"),
        "serving.queue_wait_ms_p50": (percentile(waits, 0.50) * 1000, "ms"),
        "serving.queue_wait_ms_p99": (percentile(waits, 0.99) * 1000, "ms"),
        "serving.cache_hit_share": (served("cache_hits"), "share"),
        "serving.coalesced_share": (served("coalesced"), "share"),
        "serving.attempts_per_q": (
            sum(a.attempts for a in result.answers) / n if has_serving
            else 0.0, "count/q"),
        "serving.degraded_share": (sum(
            a.outcome == "degraded" for a in result.answers) / n, "share"),
        "serving.rejected_share": (sum(
            a.outcome == "rejected" for a in result.answers) / n, "share"),
        "aio.model_batch_size_mean": (ratio(
            aio.get("requests", 0), aio.get("round_trips", 0)), "count"),
        "aio.await_ms_per_q": (aio.get("await_s", 0.0) * 1000 / n, "ms/q"),
        "telemetry.spans_per_q": (layer.get("spans", 0) / n, "count/q"),
        "datasets.generate_s": (statistics.median(generates), "s"),
        "loadgen.late_ms_p99": (
            percentile(layer.get("late", []), 0.99) * 1000, "ms"),
        "trace.overhead_share": (ratio(
            scaled_cpu(result, probe_ref),
            scaled_cpu(untraced, probe_ref)) - 1, "share"),
        "host.probe_ms": (statistics.median(
            r.probe for r in result.rounds) * 1000, "ms"),
        "trace.unattributed_ms_per_q": ((
            sum(a.latency for a in result.answers) - roots) * 1000 / n,
            "ms/q"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from layers import Recorder, instrument
    from workloads import WORKLOADS

    config = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    params = config["workloads"][args.workload]
    cls = WORKLOADS[args.workload]

    problems = []
    try:
        if args.trace:
            _, untraced, _, _ = run_pass(cls, params, args.seed,
                                         args.seconds, 1)
            recorder = Recorder()
            with instrument(recorder):
                workload, result, _, generates = run_pass(
                    cls, params, args.seed, args.seconds, 1, recorder)
            metrics = per_layer(result, untraced, recorder, generates,
                                config["probe_reference_s"])
            if result.digest != untraced.digest:
                problems.append("tracing changed the answers: digest "
                                f"{result.digest} != {untraced.digest}")
            out = ROOT / ".perfbench" / (
                f"{args.workload}-seed{args.seed}-spans.jsonl")
            recorder.save(out)
            print(f"# spans: {len(recorder.spans)} written to {out}")
        else:
            workload, result, setups, _ = run_pass(
                cls, params, args.seed, args.seconds,
                config["setup_repeats"])
            metrics = end_to_end(params, result, setups,
                                 config["probe_reference_s"])
            print(f"# {raw_timings(result, setups)}")
        check_loadgen(result, params)
    except InvalidRun as exc:
        print(f"error: invalid run: {exc}", file=sys.stderr)
        return 3

    problems += check_outputs(workload, result, config)
    for problem in problems:
        print(f"# check failed: {problem}")
    print(f"# workload={args.workload} seed={args.seed} "
          f"questions={result.attempted} rounds={len(result.rounds)} "
          f"latency samples={result.attempted} digest={result.digest}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<34} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
