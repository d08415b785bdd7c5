"""The repository benchmark: four workloads, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload score-blocked --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper
installed; ``--trace 1`` runs a fixed amount of the same work, alternately
untraced and traced, reports the per-layer metrics (see README.md) and
writes the spans to ``.perfbench_spans/<workload>.jsonl``.
Inputs come from ``--seed``; every run checks the program's outputs.
The last line of standard output is the result object.  A run that
cannot measure exits non-zero without printing one.
"""

from __future__ import annotations

import argparse
import json
import sys

import common
from common import BenchError, RunDir, emit_result, log, metric

WORKLOADS = ("score-blocked", "serve-open", "stream-ingest", "train-emba")
SERVE_LAYERS = ("serve.open_p50_ms", "serve.open_p90_ms",
                "serve.queue_wait_ms", "serve.score_wait_ms",
                "serve.write_ms", "serve.mean_batch_size",
                "serve.peak_queue_depth", "serve.rejected",
                "serve.generator_late_p99_ms", "serve.generator_late_max_ms",
                "serve.wall_capacity_per_s")


def _declared(section: str, values: dict) -> dict:
    """``values`` as result metrics, in ``BENCHMARK.json``'s order and units.

    The names measured must be exactly the names declared.
    """
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())[section]
    names = [entry["name"] for entry in declared]
    if set(names) != set(values):
        raise BenchError(f"{section} mismatch: declared only "
                         f"{sorted(set(names) - set(values))}, measured only "
                         f"{sorted(set(values) - set(names))}")
    return {entry["name"]: metric(values[entry["name"]], entry["unit"])
            for entry in declared}


def end_to_end(setup_s: float, measured: dict, rss_mb: float) -> dict:
    return _declared("end_to_end", {
        "setup_s": setup_s,
        "throughput_per_s": measured["throughput_per_s"],
        "rss_peak_mb": rss_mb,
    })


def per_layer(summary: dict, traced: dict, extra: dict) -> dict:
    """Every per-layer metric; layers a workload never enters read 0."""
    from tracer import layer_metrics

    values = layer_metrics(summary)
    values.update({name: 0.0 for name in SERVE_LAYERS})
    values.update({"stream.candidates_per_record": 0.0,
                   "stream.wal_syncs": 0.0, "trainer.nonfinite_skipped": 0.0})
    values.update(traced.get("layers", {}))
    values.update(extra)
    values["obs.trace_overhead"] = traced["overhead"]
    values["trace.traced_s"] = traced["traced_s"]
    values["trace.uncovered_s"] = max(0.0, traced["traced_s"]
                                      - summary["covered_s"])
    return _declared("per_layer", values)


def _report_layers(summary: dict) -> None:
    ranked = sorted(summary["self_s"].items(), key=lambda kv: -kv[1])
    log("self time by span: " + ", ".join(
        f"{name} {value:.3f}s" for name, value in ranked[:8]))


# ----------------------------------------------------------------------
# In-process workloads: score-blocked, stream-ingest, train-emba
# ----------------------------------------------------------------------
def run_in_process(args, run_dir: RunDir) -> tuple:
    """score-blocked, stream-ingest and train-emba: each module builds
    its inputs, measures, and runs traced with the same signatures."""
    import programs
    import score_blocked
    import stream_ingest
    import train_emba
    from tracer import Tracer

    module = {"score-blocked": score_blocked, "stream-ingest": stream_ingest,
              "train-emba": train_emba}[args.workload]
    run_dir.use_in_process(run_dir.fresh("cache"))
    inputs = module.build_inputs(args.seed)
    if not args.trace:
        # Set-up samples alternate with slices of the measurement.
        setup = common.SetupSampler(args.workload, run_dir)
        setup.sample()
        run_dir.use_in_process(setup.first_cache)
        state = programs.build(args.workload)
        measured = module.measure(
            state, inputs, args.seconds, run_dir,
            gaps=[setup.sample] * (common.SETUP_SAMPLES - 1))
        return measured, end_to_end(setup.median(), measured,
                                    common.rss_peak_mb())
    state = programs.build(args.workload)
    tracer = Tracer()
    traced = module.traced(state, inputs, args.seconds, tracer, run_dir)
    leaks = tracer.leftover_patches()
    if leaks:
        log(f"attributes left patched: {leaks}")
    traced["correct"] = traced["correct"] and not leaks
    summary = tracer.summary()
    tracer.dump(common.spans_path(args.workload))
    _report_layers(summary)
    return traced, per_layer(summary, traced, {})


# ----------------------------------------------------------------------
# serve-open: the daemon is its own process
# ----------------------------------------------------------------------
def run_serve(args, run_dir: RunDir) -> tuple:
    import serve_open as so

    run_dir.use_in_process(run_dir.fresh("cache"))
    measured_s = max(2.0, args.seconds - so.WARMUP_S)
    if not args.trace:
        # One closed loop per set-up sample, each after its own warm-up.
        inputs = so.Inputs(args.seed, 0.0, measured_s / common.SETUP_SAMPLES)
        result = so.measure_capacity(run_dir, inputs)
        run_dir.use_in_process(result["cache_dir"])
        correct, attempted, failed = so.tally(result["phases"],
                                              so.direct_scores(inputs))
        measured = {"correct": correct, "attempted": attempted,
                    "failed": failed,
                    "throughput_per_s": result["cpu_capacity"]}
        return measured, end_to_end(result["setup_s"], measured,
                                    result["rss_peak_mb"])

    # Traced: the same phases against an untraced and a traced daemon;
    # open-loop latency is reported from the untraced one.  The traced
    # daemon's spans, counters and own trace all start after the warm-up,
    # so they cover the open and the closed loop, as traced_s does.
    inputs = so.Inputs(args.seed, measured_s / 2, measured_s / 2)
    plain = so.start_daemon(run_dir)
    try:
        phases, baseline = so.measure(plain, inputs, open_loop_too=True)
    finally:
        plain.shutdown()
    trace_dir = run_dir.fresh("trace")
    daemon = so.start_daemon(run_dir, trace_dir=trace_dir)
    try:
        traced_phases, result = so.measure(daemon, inputs, open_loop_too=True)
    finally:
        report = daemon.shutdown()
    run_dir.use_in_process(daemon.cache_dir)
    correct, attempted, failed = so.tally(phases + traced_phases,
                                          so.direct_scores(inputs))
    leaks = report["leftover_patches"]
    if leaks:
        log(f"attributes left patched in the daemon: {leaks}")
    from repro.obs import merge_traces, stage_breakdown

    merged = merge_traces(trace_dir)
    stages = stage_breakdown(merged)
    (obs_metrics,) = merged.metrics.values()
    summary = report["summary"]

    def mean_ms(name: str) -> float:
        return stages[name]["mean"] * 1e3 if name in stages else 0.0

    extra = {
        "serve.open_p50_ms": baseline["p50"] * 1e3,
        "serve.open_p90_ms": baseline["p90"] * 1e3,
        "serve.queue_wait_ms": mean_ms("serve.queue_wait"),
        "serve.score_wait_ms": mean_ms("serve.score_wait"),
        "serve.write_ms": mean_ms("serve.write"),
        "serve.mean_batch_size":
            obs_metrics["histograms"]["serve.batch_size"]["mean"],
        "serve.peak_queue_depth":
            summary["counters"].get("serve.peak_queue_depth", 0.0),
        "serve.rejected":
            float(obs_metrics["counters"].get("serve.rejected", 0)),
        "serve.generator_late_p99_ms": baseline["late_p99"] * 1e3,
        "serve.generator_late_max_ms": baseline["late_max"] * 1e3,
        "serve.wall_capacity_per_s": baseline["capacity"],
    }
    traced = {"correct": correct and not leaks, "attempted": attempted,
              "failed": failed,
              "overhead": baseline["cpu_capacity"] / result["cpu_capacity"],
              "traced_s": result["wall"]}
    _report_layers(summary)
    return traced, per_layer(summary, traced, extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        common.require_program()
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 2
    run_dir = RunDir(args.workload)
    try:
        if args.workload == "serve-open":
            outcome, metrics = run_serve(args, run_dir)
        else:
            outcome, metrics = run_in_process(args, run_dir)
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 2
    finally:
        run_dir.close()
    emit_result(outcome["correct"], outcome["attempted"], outcome["failed"],
                metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
