"""Computes the metric suite from a validated run.

Utilization, idle-ratio and energy metrics are evaluated over an analysis
window that excludes warmup steps; peak memory is taken over the full run
because allocation spikes during warmup are real feasibility constraints.
Every report states both choices in its notes.

Energy uses the rectangle rule over the samples actually present in the
file: each sample's weight is the gap to the next sample, the run's last
sample falls back to the nominal interval. The same weights drive the
time-weighted utilization means, so binary utilization streams reduce
exactly to active-sample-count / total-count.

``build_report`` is the one entry point and computes each field once.
Every metric reads the run's sample columns (``model.SampleTable``): int64
timestamps and a float64 matrix of core utilizations, GPU utilization and
the four power rails. One pass evaluates the analysis window and every step
window. It computes the int64 weights once and bounds all windows with one
``np.searchsorted`` (half-open, like ``bisect_left``). A window's total and
idle microseconds are differences of int64 prefix sums, exact because
validated timestamps and t + interval stay in [0, 2**63). Each value column
is multiplied by the weights once, and a window's weighted sum is
``math.fsum`` of its slice of the products. fsum is correctly rounded, so a
result never depends on summation order or blocking. Float prefix sums would
round, and one inf product would make every later difference NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from . import steps as steps_mod
from .correlate import concurrent_ops_exist
from .errors import NoCompleteSteps, NoSamplesInWindow, SignalTooShort
from .model import RAILS, MemoryBreakdown, Run, StepWindow
from .steps import PeriodEstimate, PredictabilityScore

Window = tuple[int, int]


@dataclass(frozen=True)
class RailShare:
    rail: str
    mean_mw: float
    share_of_sys: float


@dataclass(frozen=True)
class OpAggregate:
    count: int
    busy_time_us: int
    attributed_samples: int
    below_sampling_resolution: bool


@dataclass(frozen=True)
class StepMetrics:
    step_id: int
    is_warmup: bool
    start_us: int
    end_us: int
    per_core_util: tuple[float, ...]
    cpu_avg_util: float
    gpu_util: float
    idle_ratio_per_core: tuple[float, ...]
    energy_by_rail_joules: dict[str, float]
    throughput_samples_per_sec: float


@dataclass(frozen=True)
class MetricReport:
    run_id: str
    batch_size: int
    core_count: int
    sample_interval_us: int
    warmup_steps: int
    per_core_util: tuple[float, ...]
    cpu_avg_util: float
    gpu_util: float
    idle_ratio_per_core: tuple[float, ...]
    energy_by_rail_joules: dict[str, float]
    peak_mem_bytes: int
    throughput_samples_per_sec: float
    steps: tuple[StepWindow, ...]
    per_step: tuple[StepMetrics, ...]
    per_op: dict[str, OpAggregate]
    power_rail_ranking: tuple[RailShare, ...]
    period: PeriodEstimate
    predictability: PredictabilityScore | None
    memory_breakdown: MemoryBreakdown | None
    concurrent_ops_double_counting: bool
    idle_threshold: float
    notes: tuple[str, ...]


@dataclass(frozen=True)
class _WindowSums:
    """Every time-weighted quantity of one window, each from an exact sum."""

    per_core: tuple[float, ...]
    cpu_avg: float
    gpu: float
    idle: tuple[float, ...]
    energy_j: dict[str, float]
    rail_mean_mw: dict[str, float]


def _windows(run: Run, bounds: list[Window], idle: float) -> list[_WindowSums | None]:
    """Metrics of the samples with t in each [lo, hi), or None where there are none.

    A core is idle in a sample where its utilization is <= ``idle``.
    """
    samples, c = run.samples, run.samples.core_count
    # Rectangle width per sample: gap to the next sample; the last uses the nominal.
    dt = np.append(np.diff(samples.t), np.int64(run.meta.sample_interval_us))
    a, b = np.searchsorted(samples.t, np.array(bounds, np.int64).reshape(-1, 2).T)
    spans = list(zip(a.tolist(), b.tolist()))

    def window_us(weights: np.ndarray) -> list[int]:
        # Exact: validate_run keeps every t, and t[-1] + interval, in [0, 2**63).
        prefix = np.concatenate(([0], np.cumsum(weights)))
        return (prefix[b] - prefix[a]).tolist()

    sums = []
    for col in samples.values.T:
        # Products that overflow to inf surface as a strict-JSON error, not a warning.
        with np.errstate(over="ignore"):
            products = (col * dt).tolist()  # one column's Python floats at a time
        sums.append([fsum(products[i:j]) for i, j in spans])

    def window(total: int, idle_us: tuple[int, ...], s: tuple[float, ...]) -> _WindowSums:
        per_core = tuple(x / total for x in s[:c])
        rail_nj = dict(zip(RAILS, s[c + 1:]))  # mW * us, i.e. nanojoules
        return _WindowSums(
            per_core=per_core,
            cpu_avg=fsum(per_core) / c,
            gpu=s[c] / total,
            idle=tuple(u / total for u in idle_us),
            energy_j={rail: nj / 1e9 for rail, nj in rail_nj.items()},
            rail_mean_mw={rail: nj / total for rail, nj in rail_nj.items()},
        )

    idle_cols = [window_us(np.where(samples.values[:, k] <= idle, dt, 0)) for k in range(c)]
    rows = zip(spans, window_us(dt), zip(*idle_cols), zip(*sums))  # c >= 1: validate_run
    return [window(*row) if i < j else None for (i, j), *row in rows]


def _rail_ranking(sums: _WindowSums) -> tuple[RailShare, ...]:
    """The cpu, gpu and mem rails by descending mean power, each with its share of sys's."""
    means = dict(sums.rail_mean_mw)
    sys_mean = means.pop("sys")
    ranked = sorted(means.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(
        RailShare(rail=r, mean_mw=m, share_of_sys=(m / sys_mean if sys_mean > 0 else 0.0))
        for r, m in ranked
    )


def _per_op_aggregates(run: Run) -> dict[str, OpAggregate]:
    # An op's attributed samples are those with t in its half-open
    # [start, end), counted by bisection: the same multi-attribution that
    # attribute_samples makes sample by sample. Sums per name are exact
    # int64 (object ints if busy time could pass 2**63).
    ops, t = run.ops, run.samples.t
    n = len(ops.names)
    inside = np.searchsorted(t, ops.end) - np.searchsorted(t, ops.start)
    busy_us = ops.end - ops.start
    if busy_us.sum(dtype=np.float64) >= 2.0**62:
        busy_us = busy_us.astype(object)
    busy = np.zeros(n, busy_us.dtype)
    np.add.at(busy, ops.name, busy_us)
    attributed = np.zeros(n, np.int64)
    np.add.at(attributed, ops.name, inside)
    count = np.bincount(ops.name, minlength=n)
    return {
        name: OpAggregate(c, b, k, below_sampling_resolution=k == 0)
        for name, c, b, k in sorted(zip(ops.names, count.tolist(), busy.tolist(),
                                        attributed.tolist()))
        if c
    }


def build_report(
    run: Run, *, signal: str = "gpu_util", idle_threshold: float = 0.0
) -> MetricReport:
    """Assemble the full metric report for one run.

    One ``steps.resolve_steps_and_period`` call gives the steps (labelled, or
    tiled by one autocorrelation estimate of ``signal``) and their period.
    Run-level metrics cover the analysis window, from the first non-warmup
    step's start to the last step's end; with no non-warmup step that is
    NoSamplesInWindow. Per-step metrics narrow it to each step, throughput
    counts the non-warmup steps, peak memory covers the whole run, and per-op
    sample attributions are aggregated. Component errors propagate.
    """
    step_windows, period = steps_mod.resolve_steps_and_period(run, signal)
    non_warmup = [w for w in step_windows if not w.is_warmup]
    if not non_warmup:
        raise NoSamplesInWindow("all step windows are warmup; nothing to analyze")
    analysis = (non_warmup[0].start_us, step_windows[-1].end_us)
    whole, *step_sums = _windows(
        run, [analysis, *((w.start_us, w.end_us) for w in step_windows)], idle_threshold)
    if whole is None:
        raise NoSamplesInWindow(f"no samples with t in [{analysis[0]}, {analysis[1]}) us")

    predictability: PredictabilityScore | None
    try:
        predictability = steps_mod.predictability(run, step_windows, signal)
    except (NoCompleteSteps, SignalTooShort):
        predictability = None

    concurrent = concurrent_ops_exist(run)
    warmup = run.meta.warmup_steps
    notes = [
        f"utilization, idle-ratio and energy metrics exclude the first {warmup} warmup steps",
        "peak memory is taken over the full run, warmup included",
        f"ops with zero attributed samples are below the {run.meta.sample_interval_us} us "
        "sampling resolution",
    ]
    if concurrent:
        notes.append(
            "concurrent ops exist: per-op attributed-sample counts may double-count samples"
        )

    per_step = tuple(
        StepMetrics(w.step_id, w.is_warmup, w.start_us, w.end_us, s.per_core, s.cpu_avg, s.gpu,
                    s.idle, s.energy_j, (run.meta.batch_size * 1_000_000) / w.duration_us)
        for w, s in zip(step_windows, step_sums)
        if s is not None  # None: the step is shorter than the sampling resolution
    )
    return MetricReport(
        run_id=run.meta.run_id,
        batch_size=run.meta.batch_size,
        core_count=run.meta.core_count,
        sample_interval_us=run.meta.sample_interval_us,
        warmup_steps=warmup,
        per_core_util=whole.per_core,
        cpu_avg_util=whole.cpu_avg,
        gpu_util=whole.gpu,
        idle_ratio_per_core=whole.idle,
        energy_by_rail_joules=whole.energy_j,
        peak_mem_bytes=int(run.samples.mem.max()),
        throughput_samples_per_sec=(run.meta.batch_size * len(non_warmup) * 1_000_000)
        / sum(w.duration_us for w in non_warmup),
        steps=step_windows,
        per_step=per_step,
        per_op=_per_op_aggregates(run),
        power_rail_ranking=_rail_ranking(whole),
        period=period,
        predictability=predictability,
        memory_breakdown=run.memory_breakdown,
        concurrent_ops_double_counting=concurrent,
        idle_threshold=idle_threshold,
        notes=tuple(notes),
    )
