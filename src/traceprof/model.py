"""Domain types for profiled training runs and their validity rules.

Timestamps are integer microseconds on a single monotonic clock per run;
utilization is stored as fractions in [0, 1]; power in milliwatts. All types
are plain carriers: invariants are enforced centrally by ``validate_run`` so
that every violation in a trace can be reported at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

from .errors import TraceValidationError

Micros = int


class Device(Enum):
    CPU = "CPU"
    GPU = "GPU"


@dataclass(frozen=True)
class OpEvent:
    """One recorded operation instance with its start/end timestamps."""

    op_name: str
    device: Device
    start: Micros
    end: Micros
    layer: str | None = None
    step_id: int | None = None

    @property
    def duration_us(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class TelemetrySample:
    """One periodic snapshot of utilization, power rails and memory footprint."""

    t: Micros
    cpu_core_util: tuple[float, ...]
    gpu_util: float
    power_cpu_mw: float
    power_gpu_mw: float
    power_mem_mw: float
    power_sys_mw: float
    mem_used_bytes: int


@dataclass(frozen=True)
class RunMeta:
    run_id: str
    batch_size: int
    core_count: int
    device_mem_capacity_bytes: int = 8 * 1024**3
    sample_interval_us: int = 10_000
    warmup_steps: int = 3


@dataclass(frozen=True)
class StepWindow:
    """A training-step interval; treated half-open [start_us, end_us)."""

    step_id: int
    start_us: Micros
    end_us: Micros
    is_warmup: bool = False

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


@dataclass(frozen=True)
class MemoryBreakdown:
    """Reported byte split of training memory; absent fields mean unreported."""

    parameters_bytes: int | None = None
    gradients_bytes: int | None = None
    input_bytes: int | None = None
    intermediate_bytes: int | None = None

    def total_bytes(self) -> int | None:
        parts = (
            self.parameters_bytes,
            self.gradients_bytes,
            self.input_bytes,
            self.intermediate_bytes,
        )
        if any(p is None for p in parts):
            return None
        return sum(parts)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Issue:
    """One diagnostic produced while parsing or validating a trace."""

    code: str
    message: str
    severity: str = "error"  # "error" | "warning"
    line_no: int | None = None


@dataclass(frozen=True)
class Run:
    """A validated, immutable run: sorted ops and samples plus metadata."""

    meta: RunMeta
    ops: tuple[OpEvent, ...]
    samples: tuple[TelemetrySample, ...]
    memory_breakdown: MemoryBreakdown | None = None
    warnings: tuple[Issue, ...] = ()

    @property
    def start_us(self) -> int:
        return min(self.ops[0].start, self.samples[0].t)

    @property
    def end_us(self) -> int:
        last_sample_end = self.samples[-1].t + self.meta.sample_interval_us
        return max(max(op.end for op in self.ops), last_sample_end)

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


def _op_sort_key(op: OpEvent):
    return (
        op.start,
        op.end,
        op.op_name,
        op.device.value,
        -1 if op.step_id is None else op.step_id,
        op.layer or "",
    )


def _sample_sort_key(s: TelemetrySample):
    return (
        s.t,
        s.cpu_core_util,
        s.gpu_util,
        s.power_cpu_mw,
        s.power_gpu_mw,
        s.power_mem_mw,
        s.power_sys_mw,
        s.mem_used_bytes,
    )


def _check_meta(meta: RunMeta, issues: list[Issue]) -> None:
    if not meta.run_id:
        issues.append(Issue("InvalidMeta", "run_id must be non-empty"))
    if meta.batch_size < 1:
        issues.append(Issue("InvalidMeta", f"batch_size must be >= 1, got {meta.batch_size}"))
    if meta.core_count < 1:
        issues.append(Issue("InvalidMeta", f"core_count must be >= 1, got {meta.core_count}"))
    if meta.sample_interval_us <= 0:
        issues.append(
            Issue("InvalidMeta", f"sample_interval_us must be > 0, got {meta.sample_interval_us}")
        )
    if meta.device_mem_capacity_bytes < 1:
        issues.append(Issue("InvalidMeta", "device_mem_capacity_bytes must be >= 1"))
    if meta.warmup_steps < 0:
        issues.append(Issue("InvalidMeta", f"warmup_steps must be >= 0, got {meta.warmup_steps}"))


def _check_op(i: int, op: OpEvent, issues: list[Issue]) -> None:
    if not op.op_name:
        issues.append(Issue("InvariantViolation", f"op #{i} has empty op_name"))
    if op.start < 0:
        issues.append(
            Issue("InvariantViolation", f"op #{i} '{op.op_name}' has negative start {op.start}")
        )
    if op.end <= op.start:
        issues.append(
            Issue(
                "InvariantViolation",
                f"op #{i} '{op.op_name}' has end {op.end} <= start {op.start}",
            )
        )
    if op.step_id is not None and op.step_id < 0:
        issues.append(
            Issue("InvariantViolation", f"op #{i} '{op.op_name}' has negative step_id")
        )


def _check_sample(i: int, s: TelemetrySample, core_count: int, issues: list[Issue]) -> None:
    if s.t < 0:
        issues.append(Issue("InvariantViolation", f"sample #{i} has negative timestamp {s.t}"))
    if len(s.cpu_core_util) != core_count:
        issues.append(
            Issue(
                "CoreCountMismatch",
                f"sample #{i} has {len(s.cpu_core_util)} core utilizations, "
                f"run declares {core_count} cores",
            )
        )
    for c, u in enumerate(s.cpu_core_util):
        if not 0.0 <= u <= 1.0:
            issues.append(
                Issue("InvariantViolation", f"sample #{i} core {c} utilization {u} outside [0, 1]")
            )
    if not 0.0 <= s.gpu_util <= 1.0:
        issues.append(
            Issue("InvariantViolation", f"sample #{i} gpu utilization {s.gpu_util} outside [0, 1]")
        )
    for rail, p in (
        ("cpu", s.power_cpu_mw),
        ("gpu", s.power_gpu_mw),
        ("mem", s.power_mem_mw),
        ("sys", s.power_sys_mw),
    ):
        if p < 0:
            issues.append(
                Issue("InvariantViolation", f"sample #{i} negative {rail} power {p} mW")
            )
    if s.mem_used_bytes < 0:
        issues.append(Issue("InvariantViolation", f"sample #{i} negative mem_used_bytes"))


def validate_run(
    meta: RunMeta,
    ops: Sequence[OpEvent],
    samples: Sequence[TelemetrySample],
    memory_breakdown: MemoryBreakdown | None = None,
) -> Run:
    """Check every invariant and return a Run with sorted ops and samples.

    Collects all violations instead of failing fast; raises
    :class:`TraceValidationError` carrying the full issue list when any
    error-severity issue exists. Non-fatal findings (duplicate timestamps,
    breakdown/peak mismatch) become warnings attached to the returned Run.
    Validating the pieces of an already-validated Run returns an equal Run.
    """
    issues: list[Issue] = []
    _check_meta(meta, issues)

    sorted_ops = tuple(sorted(ops, key=_op_sort_key))
    sorted_samples = tuple(sorted(samples, key=_sample_sort_key))

    if not sorted_samples or not sorted_ops:
        issues.append(Issue("EmptyTrace", "run needs at least one op and one sample"))

    for i, op in enumerate(sorted_ops):
        _check_op(i, op, issues)
    for i, s in enumerate(sorted_samples):
        _check_sample(i, s, meta.core_count, issues)

    warnings: list[Issue] = []
    for a, b in zip(sorted_samples, sorted_samples[1:]):
        if a.t == b.t:
            warnings.append(
                Issue("ClockSkew", f"duplicate sample timestamp {a.t} us", severity="warning")
            )
    for a, b in zip(sorted_ops, sorted_ops[1:]):
        if a == b:
            warnings.append(
                Issue(
                    "ClockSkew",
                    f"duplicate op record '{a.op_name}' at {a.start} us",
                    severity="warning",
                )
            )

    if memory_breakdown is not None and sorted_samples:
        total = memory_breakdown.total_bytes()
        if total is not None:
            peak = max(s.mem_used_bytes for s in sorted_samples)
            if total > peak:
                warnings.append(
                    Issue(
                        "MemoryBreakdownMismatch",
                        f"breakdown sums to {total} bytes, above observed peak {peak}",
                        severity="warning",
                    )
                )

    if any(i.severity == "error" for i in issues):
        raise TraceValidationError(issues + warnings)

    return Run(
        meta=meta,
        ops=sorted_ops,
        samples=sorted_samples,
        memory_breakdown=memory_breakdown,
        warnings=tuple(warnings),
    )


def with_warmup_steps(run: Run, warmup_steps: int) -> Run:
    """Return a copy of the run with an overridden warmup-step count."""
    return replace(run, meta=replace(run.meta, warmup_steps=warmup_steps))
