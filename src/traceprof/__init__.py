"""Trace-correlation profiler for training telemetry.

Aligns periodic hardware-telemetry samples with fine-grained training-op
timelines and computes utilization, energy, throughput, idle-ratio and
peak-memory metrics, plus step-periodicity, batch-sweep and feasibility
analyses.
"""

from .correlate import Attribution, attribute_samples, busy_time
from .errors import (
    DuplicateBatchSize,
    InvalidSpec,
    ManifestError,
    MissingEnergy,
    NoCompleteSteps,
    NoSamplesInWindow,
    NoSteps,
    OverlappingSteps,
    SignalTooShort,
    TraceProfError,
    TraceValidationError,
)
from .ingest import (
    RunManifest,
    load_manifest,
    load_run,
    parse_op_trace,
    parse_report,
    parse_telemetry,
    write_manifest,
    write_op_trace,
    write_report,
    write_telemetry,
)
from .metrics import (
    MetricReport,
    OpAggregate,
    StepMetrics,
    build_report,
    cpu_avg_utilization,
    cpu_core_utilization,
    energy,
    gpu_utilization,
    idle_ratio,
    peak_memory,
    power_dominance,
    throughput,
)
from .model import (
    Device,
    Issue,
    MemoryBreakdown,
    OpEvent,
    OpTable,
    Run,
    RunMeta,
    SampleTable,
    StepWindow,
    TelemetrySample,
    validate_run,
)
from .steps import (
    PeriodEstimate,
    PredictabilityScore,
    detect_period,
    predictability,
    resolve_steps,
    resolve_steps_and_period,
)
from .sweep import (
    SweepPoint,
    SweepResult,
    build_sweep_result,
    energy_scaling,
    feasibility,
    gpu_util_sensitivity,
    throughput_speedup,
)
from .synth import GroundTruth, PhaseSpec, SynthSpec, generate, random_spec, write_run

__version__ = "0.1.0"
