"""Trace-correlation profiler for training telemetry.

Aligns periodic hardware-telemetry samples with fine-grained training-op
timelines and computes utilization, energy, throughput, idle-ratio and
peak-memory metrics, plus step-periodicity, batch-sweep and feasibility
analyses.

The exports below are imported from their submodule on first access (PEP
562), so ``import traceprof`` alone imports neither numpy nor a submodule,
and ``traceprof.cli`` can set numpy's thread defaults before numpy loads.
"""

from importlib import import_module

_EXPORTS = {
    "correlate": ["Attribution", "attribute_samples", "busy_time"],
    "errors": ["DuplicateBatchSize", "InvalidSpec", "ManifestError", "MissingEnergy",
               "NoCompleteSteps", "NoSamplesInWindow", "NoSteps", "OverlappingSteps",
               "SignalTooShort", "TraceProfError", "TraceValidationError"],
    "ingest": ["RunManifest", "load_manifest", "load_run", "parse_op_trace", "parse_report",
               "parse_telemetry", "write_manifest", "write_op_trace", "write_report",
               "write_telemetry"],
    "metrics": ["MetricReport", "OpAggregate", "StepMetrics", "build_report"],
    "model": ["Device", "Issue", "MemoryBreakdown", "OpEvent", "OpTable", "Run", "RunMeta",
              "SampleTable", "StepWindow", "TelemetrySample", "validate_run"],
    "steps": ["PeriodEstimate", "PredictabilityScore", "detect_period", "predictability",
              "resolve_steps", "resolve_steps_and_period"],
    "sweep": ["SweepPoint", "SweepResult", "build_sweep_result"],
    "synth": ["GroundTruth", "PhaseSpec", "SynthSpec", "generate", "random_spec", "write_run"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
