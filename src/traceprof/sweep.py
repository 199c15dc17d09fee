"""Compares runs of one model across batch sizes: scaling, sensitivity, feasibility.

Ratios use the min/max batch endpoints; adding intermediate points never
changes them. Energy comparisons use per-step energy because runs at
different batch sizes finish different step counts. The capacity check is a
strict inequality: a peak exactly equal to capacity fails in practice due to
system reservations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Sequence

from .errors import DuplicateBatchSize, MissingEnergy
from .metrics import MetricReport
from .model import MemoryBreakdown

PROPORTIONALITY_BAND = 0.05

SUB_PROPORTIONAL = "sub_proportional"
PROPORTIONAL = "proportional"
SUPER_PROPORTIONAL = "super_proportional"


@dataclass(frozen=True)
class SweepPoint:
    batch_size: int
    report: MetricReport


@dataclass(frozen=True)
class FeasibilityVerdict:
    batch_size: int
    verdict: str  # "fits" | "out_of_memory"
    peak_mem_bytes: int
    capacity_bytes: int
    memory_breakdown: MemoryBreakdown | None


@dataclass(frozen=True)
class SweepResult:
    model: str
    points: tuple[SweepPoint, ...]
    batch_ratio: float
    throughput_speedup: float
    energy_scaling: float
    energy_scaling_class: str
    gpu_util_delta: float
    cpu_util_delta: float
    mem_intermediate_growth: tuple[int, int] | None
    feasibility: tuple[FeasibilityVerdict, ...]


def _sorted_points(points: Sequence[SweepPoint]) -> list[SweepPoint]:
    if len(points) < 2:
        raise ValueError(f"a sweep needs at least 2 points, got {len(points)}")
    out = sorted(points, key=lambda p: p.batch_size)
    for a, b in zip(out, out[1:]):
        if a.batch_size == b.batch_size:
            raise DuplicateBatchSize(f"duplicate batch size {a.batch_size} in sweep")
    return out


def throughput_speedup(points: Sequence[SweepPoint]) -> float:
    """Throughput at the largest batch divided by throughput at the smallest."""
    pts = _sorted_points(points)
    return pts[-1].report.throughput_samples_per_sec / pts[0].report.throughput_samples_per_sec


def per_step_energy(report: MetricReport, rail: str = "sys") -> float:
    """Mean energy of one non-warmup training step for the given rail."""
    energies = [
        sm.energy_by_rail_joules[rail] for sm in report.per_step if not sm.is_warmup
    ]
    if not energies:
        raise MissingEnergy(f"run {report.run_id} has no non-warmup per-step energy")
    return fsum(energies) / len(energies)


def energy_scaling(points: Sequence[SweepPoint], rail: str = "sys") -> tuple[float, str]:
    """Per-step energy ratio (max batch / min batch) and its classification.

    Proportional means the ratio matches the batch ratio within the 5% band;
    below is sub_proportional, above is super_proportional. A zero per-step
    energy at the smallest batch leaves the ratio undefined: MissingEnergy.
    """
    pts = _sorted_points(points)
    lo, hi = pts[0], pts[-1]
    lo_energy = per_step_energy(lo.report, rail)
    if lo_energy == 0.0:
        raise MissingEnergy(
            f"run {lo.report.run_id} has zero mean per-step {rail} energy; "
            "energy scaling is undefined"
        )
    ratio = per_step_energy(hi.report, rail) / lo_energy
    batch_ratio = hi.batch_size / lo.batch_size
    if abs(ratio - batch_ratio) <= PROPORTIONALITY_BAND * batch_ratio:
        cls = PROPORTIONAL
    elif ratio < batch_ratio:
        cls = SUB_PROPORTIONAL
    else:
        cls = SUPER_PROPORTIONAL
    return ratio, cls


def gpu_util_sensitivity(points: Sequence[SweepPoint]) -> tuple[float, float]:
    """(GPU, CPU-average) utilization change from the smallest to largest batch."""
    pts = _sorted_points(points)
    lo, hi = pts[0], pts[-1]
    return (
        hi.report.gpu_util - lo.report.gpu_util,
        hi.report.cpu_avg_util - lo.report.cpu_avg_util,
    )


def feasibility(
    points: Sequence[SweepPoint], capacity_bytes: int
) -> tuple[FeasibilityVerdict, ...]:
    """Per-batch fits / out_of_memory verdicts against the device capacity."""
    verdicts = []
    for p in sorted(points, key=lambda p: p.batch_size):
        fits = p.report.peak_mem_bytes < capacity_bytes
        verdicts.append(
            FeasibilityVerdict(
                batch_size=p.batch_size,
                verdict="fits" if fits else "out_of_memory",
                peak_mem_bytes=p.report.peak_mem_bytes,
                capacity_bytes=capacity_bytes,
                memory_breakdown=p.report.memory_breakdown,
            )
        )
    return tuple(verdicts)


def _intermediate_growth(points: list[SweepPoint]) -> tuple[int, int] | None:
    lo, hi = points[0], points[-1]
    lo_bd, hi_bd = lo.report.memory_breakdown, hi.report.memory_breakdown
    if lo_bd is None or hi_bd is None:
        return None
    if lo_bd.intermediate_bytes is None or hi_bd.intermediate_bytes is None:
        return None
    return (lo_bd.intermediate_bytes, hi_bd.intermediate_bytes)


def build_sweep_result(
    model: str,
    points: Sequence[SweepPoint],
    capacity_bytes: int,
    rail: str = "sys",
) -> SweepResult:
    """Aggregate a batch-size sweep of one model into a SweepResult."""
    pts = _sorted_points(points)
    ratio, cls = energy_scaling(pts, rail)
    delta_gpu, delta_cpu = gpu_util_sensitivity(pts)
    return SweepResult(
        model=model,
        points=tuple(pts),
        batch_ratio=pts[-1].batch_size / pts[0].batch_size,
        throughput_speedup=throughput_speedup(pts),
        energy_scaling=ratio,
        energy_scaling_class=cls,
        gpu_util_delta=delta_gpu,
        cpu_util_delta=delta_cpu,
        mem_intermediate_growth=_intermediate_growth(pts),
        feasibility=feasibility(pts, capacity_bytes),
    )
