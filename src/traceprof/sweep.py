"""Compares runs of one model across batch sizes: scaling, sensitivity, feasibility.

``build_sweep_result`` is the one entry point: it sorts and checks the points
once, then computes every field. Ratios use the min/max batch endpoints;
adding intermediate points never changes them. Energy comparisons use
per-step energy because runs at different batch sizes finish different step
counts. The capacity check is a strict inequality: a peak exactly equal to
capacity fails in practice due to system reservations.
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


def _mean_step_energy(report: MetricReport, rail: str) -> float:
    """Mean energy of one non-warmup training step on ``rail``."""
    energies = [sm.energy_by_rail_joules[rail] for sm in report.per_step if not sm.is_warmup]
    if not energies:
        raise MissingEnergy(f"run {report.run_id} has no non-warmup per-step energy")
    return fsum(energies) / len(energies)


def build_sweep_result(
    model: str,
    points: Sequence[SweepPoint],
    capacity_bytes: int,
    rail: str = "sys",
) -> SweepResult:
    """Aggregate a batch-size sweep of one model into a SweepResult.

    Fewer than 2 points is a ValueError, a repeated batch size DuplicateBatchSize.
    The energy scaling is the ratio of the mean non-warmup per-step ``rail``
    energies; it is proportional within the 5% band around the batch ratio,
    sub_proportional below it and super_proportional above it. A run with no
    non-warmup step energy, or a zero one at the lowest batch, is MissingEnergy.
    """
    if len(points) < 2:
        raise ValueError(f"a sweep needs at least 2 points, got {len(points)}")
    pts = tuple(sorted(points, key=lambda p: p.batch_size))
    for a, b in zip(pts, pts[1:]):
        if a.batch_size == b.batch_size:
            raise DuplicateBatchSize(f"duplicate batch size {a.batch_size} in sweep")
    lo, hi = pts[0].report, pts[-1].report
    batch_ratio = pts[-1].batch_size / pts[0].batch_size

    lo_energy = _mean_step_energy(lo, rail)
    if lo_energy == 0.0:
        raise MissingEnergy(
            f"run {lo.run_id} has zero mean per-step {rail} energy; "
            "energy scaling is undefined"
        )
    energy_ratio = _mean_step_energy(hi, rail) / lo_energy
    if abs(energy_ratio - batch_ratio) <= PROPORTIONALITY_BAND * batch_ratio:
        energy_class = PROPORTIONAL
    elif energy_ratio < batch_ratio:
        energy_class = SUB_PROPORTIONAL
    else:
        energy_class = SUPER_PROPORTIONAL

    growth = tuple(r.memory_breakdown and r.memory_breakdown.intermediate_bytes
                   for r in (lo, hi))
    return SweepResult(
        model=model,
        points=pts,
        batch_ratio=batch_ratio,
        throughput_speedup=hi.throughput_samples_per_sec / lo.throughput_samples_per_sec,
        energy_scaling=energy_ratio,
        energy_scaling_class=energy_class,
        gpu_util_delta=hi.gpu_util - lo.gpu_util,
        cpu_util_delta=hi.cpu_avg_util - lo.cpu_avg_util,
        mem_intermediate_growth=None if None in growth else growth,
        feasibility=tuple(
            FeasibilityVerdict(
                batch_size=p.batch_size,
                verdict="fits" if p.report.peak_mem_bytes < capacity_bytes else "out_of_memory",
                peak_mem_bytes=p.report.peak_mem_bytes,
                capacity_bytes=capacity_bytes,
                memory_breakdown=p.report.memory_breakdown,
            )
            for p in pts
        ),
    )
