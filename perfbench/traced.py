#!/usr/bin/env python3
"""Traced in-process pass over one workload's inputs.

Calls traceprof's public functions in the order the CLI's pipeline runs them
and records a span (name, start, end, parent) around each call. The spans
stay in memory and are written once, as one JSON document on stdout, when
the process exits. Nothing inside traceprof is instrumented: the calls that
``build_report`` makes internally (resolve_steps, attribute_samples,
concurrent_ops_exist, predictability) are timed by calling each one
separately on the same inputs just before it.

The tracer also times its own bookkeeping, the part of each call that falls
outside the span it records; the sum over a pass is what tracing cost it.

Usage: python3 perfbench/traced.py --inputs DIR --seconds N
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from traceprof import correlate, ingest, metrics, model, steps, sweep  # noqa: E402
from traceprof.errors import NoCompleteSteps, SignalTooShort, TraceValidationError  # noqa: E402

SIGNAL = "gpu_util"  # the CLI's default --signal
MIN_PASSES = 3


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index] rows, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.overhead_ns = 0
        self._open: list[int] = []

    def __call__(self, name: str, fn, *args, **kwargs):
        entered = time.perf_counter_ns()
        index = len(self.spans)
        self.spans.append([name, 0, 0, self._open[-1] if self._open else None])
        self._open.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.spans[index][1:3] = start, end
            self._open.pop()
            self.overhead_ns += start - entered + time.perf_counter_ns() - end


def _report_one(trace: Tracer, manifest_path: Path, counts: dict, parts: dict):
    """One run through load, validation, the report's layers and build_report."""
    manifest = trace("load_manifest", ingest.load_manifest, manifest_path)
    base = manifest_path.parent
    op_bytes = trace("read_inputs", (base / manifest.op_trace_path).read_bytes)
    tel_bytes = trace("read_inputs", (base / manifest.telemetry_path).read_bytes)
    ops, op_issues = trace("parse_op_trace", ingest.parse_op_trace, op_bytes)
    samples, tel_issues = trace("parse_telemetry", ingest.parse_telemetry, tel_bytes,
                                manifest.meta.core_count)
    issues = op_issues + tel_issues
    if any(i.severity == "error" for i in issues):
        raise TraceValidationError(issues)
    run = trace("validate_run", model.validate_run, manifest.meta, ops, samples,
                manifest.memory_breakdown)
    windows = trace("resolve_steps", steps.resolve_steps, run, SIGNAL)
    attributions = trace("attribute_samples", correlate.attribute_samples, run, windows)
    trace("concurrent_ops_exist", correlate.concurrent_ops_exist, run)
    try:
        score = trace("predictability", steps.predictability, run, windows, SIGNAL)
    except (NoCompleteSteps, SignalTooShort):
        score = None
    report = trace("build_report", metrics.build_report, run, signal=SIGNAL,
                   idle_threshold=0.0)

    counts["ingest.samples"] += len(run.samples)
    counts["ingest.ops"] += len(run.ops)
    counts["ingest.input_bytes"] += (
        manifest_path.stat().st_size + len(op_bytes) + len(tel_bytes)
    )
    counts["ingest.warnings"] += len(issues) + len(run.warnings)
    counts["steps.steps"] += len(windows)
    counts["steps.step_pairs"] += 0 if score is None else score.per_step_pairs
    counts["correlate.attributions"] += sum(len(a.op_indices) for a in attributions)
    parts["covered_samples"] += sum(1 for a in attributions if a.op_indices)
    parts["op_names"] += len(report.per_op)
    parts["sub_resolution_op_names"] += sum(
        1 for agg in report.per_op.values() if agg.below_sampling_resolution
    )
    counts["metrics.per_step_windows"] += len(report.per_step)
    counts["metrics.dropped_step_windows"] += len(windows) - len(report.per_step)
    return run, report


def one_pass(trace: Tracer, command: str, manifest_path: Path) -> dict:
    """The whole pipeline for `analyze` or `sweep`: counts, ratios and report digest.

    The keys of "counts" and "ratios" are the per-layer metric names.
    """
    counts = dict.fromkeys((
        "ingest.samples", "ingest.ops", "ingest.input_bytes", "ingest.report_bytes",
        "ingest.warnings", "steps.steps", "steps.step_pairs", "correlate.attributions",
        "metrics.per_step_windows", "metrics.dropped_step_windows", "sweep.points",
    ), 0)
    parts = dict.fromkeys(("covered_samples", "op_names", "sub_resolution_op_names"), 0)
    if command == "analyze":
        _, result = _report_one(trace, manifest_path, counts, parts)
    else:
        model_name, run_paths = trace("load_sweep_manifest", ingest.load_sweep_manifest,
                                      manifest_path)
        counts["ingest.input_bytes"] += manifest_path.stat().st_size
        points, capacities = [], []
        for path in run_paths:
            run, report = _report_one(trace, path, counts, parts)
            points.append(sweep.SweepPoint(batch_size=run.meta.batch_size, report=report))
            capacities.append(run.meta.device_mem_capacity_bytes)
        result = trace("build_sweep_result", sweep.build_sweep_result, model_name, points,
                       capacities[0], rail="sys")
        counts["sweep.points"] = len(result.points)
    data = trace("write_report", ingest.write_report, result, "json")
    counts["ingest.report_bytes"] = len(data)
    ratios = {
        "correlate.covered_sample_ratio": parts["covered_samples"] / counts["ingest.samples"],
        "correlate.sub_resolution_op_ratio": parts["sub_resolution_op_names"] / parts["op_names"],
    }
    return {"counts": counts, "ratios": ratios,
            "report_sha256": hashlib.sha256(data).hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, help="directory written by gen.py")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    inputs = Path(args.inputs)
    expected = json.loads((inputs / "expected.json").read_text(encoding="utf-8"))
    command, manifest_path = expected["command"], inputs / expected["manifest"]

    passes = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        trace = Tracer()
        result = trace(command, one_pass, trace, command, manifest_path)
        passes.append({**result, "spans": trace.spans, "overhead_ns": trace.overhead_ns})
    json.dump({"passes": passes}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
