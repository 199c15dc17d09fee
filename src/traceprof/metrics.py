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
is multiplied by the weights once, and a window's weighted sum is the
correctly rounded sum of its slice of the products, as ``math.fsum`` gives it
(inf if they add past the float range), so a result never depends on
summation order or blocking. ``model._exact_sums`` gets every window's sum of
a column from the prefix sums of at most three parts of it, each exact. A
column it cannot split so (an inf product, a maximum near the float range, or
magnitudes too far apart) falls back to one ``fsum`` per window; one inf
would make every later prefix difference NaN. The pass returns columns,
one row per window, and each per-step row of the report is made straight
from them, with no object per window.
"""

from __future__ import annotations

from functools import partial
from itertools import compress, repeat
from operator import truediv
from typing import NamedTuple

import numpy as np

from . import steps as steps_mod
from .correlate import concurrent_ops_exist
from .errors import NoCompleteSteps, NoSamplesInWindow, SignalTooShort
from .model import (RAILS, MemoryBreakdown, Run, StepWindow, _exact_sums, _fsum_or_inf,
                    _row_sums)
from .steps import PeriodEstimate, PredictabilityScore

Window = tuple[int, int]


class RailShare(NamedTuple):
    rail: str
    mean_mw: float
    share_of_sys: float


class OpAggregate(NamedTuple):
    count: int
    busy_time_us: int
    attributed_samples: int
    below_sampling_resolution: bool


class StepMetrics(NamedTuple):
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


class MetricReport(NamedTuple):
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


class _Windows(NamedTuple):
    """Exact sums over the samples of each window, as columns: row k is the k-th window's."""

    nonempty: np.ndarray  # bool: the window holds a sample
    total_us: np.ndarray  # int64: the sum of the sample weights
    idle_us: np.ndarray  # int64, a column per core: the weights of its idle samples
    sums: np.ndarray  # float64, a column per value column: fsum of value x weight


def _in_windows(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum of ``x[a[k]:b[k]]`` for each k, by differences of one prefix sum.

    Exact where every prefix sum is: the int64 weights and ``_exact_sums``' parts.
    """
    prefix = np.concatenate(([0], np.cumsum(x)))
    return prefix[b] - prefix[a]


def _window_sums(values: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``fsum(values[a[k]:b[k]])`` for each k, or inf where it passes the float range."""
    sums = _exact_sums(values, len(values), partial(_in_windows, a=a, b=b))
    if sums is None:  # an inf, sums near the float range, or magnitudes too far apart
        values = values.tolist()
        sums = np.array([_fsum_or_inf(values[lo:hi]) for lo, hi in zip(a.tolist(), b.tolist())])
    return sums


def _windows(run: Run, bounds: list[Window], idle: float) -> _Windows:
    """The sums over the samples with t in each [lo, hi), one row per window.

    A core is idle in a sample where its utilization is <= ``idle``.
    """
    samples, c = run.samples, run.samples.core_count
    # Rectangle width per sample: gap to the next sample; the last uses the nominal.
    dt = np.append(np.diff(samples.t), np.int64(run.meta.sample_interval_us))
    a, b = np.searchsorted(samples.t, np.array(bounds, np.int64).reshape(-1, 2).T)
    sums = []
    for col in samples.values.T:
        # Products that overflow to inf surface as a strict-JSON error, not a warning.
        with np.errstate(over="ignore"):
            products = col * dt
        sums.append(_window_sums(products, a, b))
    # Exact int64 sums: validate_run keeps every t, and t[-1] + interval, in [0, 2**63).
    # validate_run keeps c >= 1, so there is a column to stack.
    idle_us = [_in_windows(np.where(samples.values[:, k] <= idle, dt, 0), a, b)
               for k in range(c)]
    return _Windows(a < b, _in_windows(dt, a, b), np.column_stack(idle_us), np.array(sums).T)


def _window_metrics(w: _Windows, c: int) -> list[tuple]:
    """(per_core, cpu_avg, gpu, idle, energy_j) of each non-empty window, in window order.

    The sums over the total and nJ / 1e9 are numpy divides, correctly rounded
    as Python's float / int is. An idle ratio stays Python's int / int, rounded
    once from the exact quotient: numpy would round both ints to float64 first,
    which differs once a total passes 2**53 us.
    """
    keep = w.nonempty
    totals = w.total_us[keep].tolist()
    ratios = w.sums[keep, :c + 1] / w.total_us[keep, None]
    per_core = list(map(tuple, ratios[:, :c].tolist()))
    cpu_avg = (_row_sums(ratios[:, :c]) / c).tolist()
    idle = zip(*(map(truediv, col, totals) for col in w.idle_us[keep].T.tolist()))
    energy = map(dict, map(zip, repeat(RAILS), (w.sums[keep, c + 1:] / 1e9).tolist()))
    return list(zip(per_core, cpu_avg, ratios[:, c].tolist(), idle, energy))


def _rail_ranking(rail_nj: np.ndarray, total_us: int) -> tuple[RailShare, ...]:
    """The cpu, gpu and mem rails by descending mean power, each with its share of sys's.

    ``rail_nj`` is one window's energy per rail in nJ (mW x us), in RAILS order.
    """
    means = dict(zip(RAILS, (rail_nj / total_us).tolist()))
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
    busy_us = ops.end - ops.start
    if busy_us.sum(dtype=np.float64) >= 2.0**62:
        busy_us = busy_us.astype(object)
    busy = np.zeros(n, busy_us.dtype)
    np.add.at(busy, ops.name, busy_us)
    del busy_us  # each n-length temporary goes before the next comes
    attributed = np.zeros(n, np.int64)
    np.add.at(attributed, ops.name, np.searchsorted(t, ops.end))
    np.subtract.at(attributed, ops.name, np.searchsorted(t, ops.start))
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
    sums = _windows(
        run, [analysis, *((w.start_us, w.end_us) for w in step_windows)], idle_threshold)
    if not sums.nonempty[0]:
        raise NoSamplesInWindow(f"no samples with t in [{analysis[0]}, {analysis[1]}) us")
    c = run.meta.core_count
    (per_core, cpu_avg, gpu, idle, energy), *step_metrics = _window_metrics(sums, c)

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

    # A step shorter than the sampling resolution can hold no sample, and gets no row.
    per_step = tuple(
        StepMetrics(w.step_id, w.is_warmup, w.start_us, w.end_us, *m,
                    (run.meta.batch_size * 1_000_000) / w.duration_us)
        for w, m in zip(compress(step_windows, sums.nonempty[1:].tolist()), step_metrics)
    )
    return MetricReport(
        run_id=run.meta.run_id,
        batch_size=run.meta.batch_size,
        core_count=run.meta.core_count,
        sample_interval_us=run.meta.sample_interval_us,
        warmup_steps=warmup,
        per_core_util=per_core,
        cpu_avg_util=cpu_avg,
        gpu_util=gpu,
        idle_ratio_per_core=idle,
        energy_by_rail_joules=energy,
        peak_mem_bytes=int(run.samples.mem.max()),
        throughput_samples_per_sec=(run.meta.batch_size * len(non_warmup) * 1_000_000)
        / sum(w.duration_us for w in non_warmup),
        steps=step_windows,
        per_step=per_step,
        per_op=_per_op_aggregates(run),
        power_rail_ranking=_rail_ranking(sums.sums[0, c + 1:], sums.total_us[0]),
        period=period,
        predictability=predictability,
        memory_breakdown=run.memory_breakdown,
        concurrent_ops_double_counting=concurrent,
        idle_threshold=idle_threshold,
        notes=tuple(notes),
    )
