"""Resolves training-step windows and quantifies cross-step predictability.

One call, ``resolve_steps_and_period``, gives a run's steps and their period.
Explicit op labels give the steps when present, and their mean duration the
period. Otherwise one normalized-autocorrelation estimate of a telemetry
signal gives the period, whose windows are tiled from the first op's start.
GPU utilization is the default signal because it carries the strongest step
structure.

``predictability`` scores how alike the steps are: the mean Pearson r over
every pair of non-warmup steps. It never forms the S(S-1)/2 pairs. Steps are
resampled to rows of equal length L by one gather per distinct step length,
and the pair scores are summed in closed form from the rows' centred,
unit-norm vectors. Memory is O(S*L), and time is O(S*L) plus one sort of the
rows, which groups the equal ones.
"""

from __future__ import annotations

from math import comb, fsum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NoCompleteSteps, NoSteps, OverlappingSteps, SignalTooShort
from .model import Run, StepWindow

SIGNALS = ("gpu_util", "cpu_avg_util", "power_sys")

# Minimum autocorrelation peak for accepting an inferred period; conservative,
# favors explicit labels.
PERIOD_CONFIDENCE_THRESHOLD = 0.5

_MIN_SAMPLES = 8


class PeriodEstimate(NamedTuple):
    period_us: int
    confidence: float
    method: str  # "explicit" | "autocorrelation"


class PredictabilityScore(NamedTuple):
    signal: str
    mean_pairwise_correlation: float
    per_step_pairs: int


def signal_values(run: Run, signal: str) -> np.ndarray:
    """Per-sample values of one of the supported telemetry signals."""
    values, c = run.samples.values, run.samples.core_count
    if signal == "gpu_util":
        return values[:, c]
    if signal == "cpu_avg_util":
        return np.array([fsum(cores) / c for cores in values[:, :c].tolist()])
    if signal == "power_sys":
        return values[:, c + 4]  # the last rail
    raise ValueError(f"unknown signal {signal!r}, expected one of {SIGNALS}")


def _resampled_rows(values: np.ndarray, bounds: np.ndarray, target: int) -> np.ndarray:
    """One row per segment ``values[a:b]`` of ``bounds``, linearly resampled to ``target`` points.

    Row i equals ``np.interp(np.linspace(0, n - 1, target), np.arange(n), segment)`` bit
    for bit, for a segment of n >= target samples: one gather per distinct n evaluates
    np.interp's formula ``(fp[j+1] - fp[j]) * (x - j) + fp[j]``, and ``fp[j]`` where
    ``x == j`` (this covers the last knot). The values are finite and non-negative, as
    every signal is, so the difference cannot overflow.
    """
    starts, lengths = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    rows = np.empty((len(bounds), target))
    for n in set(lengths.tolist()):
        group = np.flatnonzero(lengths == n)
        x = np.linspace(0.0, n - 1.0, target)
        j = x.astype(np.intp)
        frac = x - j
        first = starts[group, None]
        lo = values[first + j]
        hi = values[first + np.minimum(j + 1, n - 1)]
        rows[group] = np.where(frac == 0.0, lo, (hi - lo) * frac + lo)
    return rows


def _mean_pair_score(rows: np.ndarray) -> float:
    """Mean Pearson r over the row pairs i < j, without forming the pairs.

    Pairs of equal rows score exactly 1 (this covers identical constant rows).
    Across the groups g of equal rows, with k_g rows each, the scores sum to
    (||sum_g k_g z_g||^2 - sum_g k_g^2 ||z_g||^2) / 2, where z_g is the group's
    centred, unit-norm row and is 0 when its denominator is 0; a constant row
    centres to exactly 0, whatever its mean rounds to. Each row is first
    scaled by a power of two, which leaves r unchanged and keeps the squares of
    values near 1e308 finite. With a single group the mean is exactly 1; it is
    clamped to [-1, 1], as each pair's r would be.
    """
    uniq, counts = np.unique(rows, axis=0, return_counts=True)
    total = comb(len(rows), 2)
    same = int((counts * (counts - 1) // 2).sum())
    cross = 0.0
    if len(uniq) > 1:
        scaled = np.ldexp(uniq, -np.frexp(np.abs(uniq).max(axis=1))[1][:, None])
        centred = scaled - scaled.mean(axis=1, keepdims=True)
        centred[np.ptp(scaled, axis=1) == 0] = 0.0  # constant: 0, not a rounded mean's residue
        norms = np.sqrt((centred * centred).sum(axis=1, keepdims=True))
        z = centred / np.where(norms > 0.0, norms, 1.0)
        weighted = (counts[:, None] * z).sum(axis=0)
        diagonal = (counts * counts * (z * z).sum(axis=1)).sum()
        cross = float((weighted * weighted).sum() - diagonal) / 2.0
    return max(-1.0, min(1.0, (same + cross) / total))


def estimate_period_from_series(values: np.ndarray, interval_us: int) -> PeriodEstimate:
    """Dominant period of a uniformly sampled series via lagged Pearson autocorrelation.

    Scans lags in [2, n//2] on the mean-centered, variance-normalized signal,
    so the result is invariant under affine scaling a*x + b with a > 0. Ties
    within 1e-9 resolve to the smallest lag, which keeps the fundamental
    period ahead of its harmonics. Sub-sample resolution comes from parabolic
    interpolation around the peak lag.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < _MIN_SAMPLES:
        raise SignalTooShort(f"need at least {_MIN_SAMPLES} samples, got {n}")
    x = x - x.mean()
    if not np.any(x):
        # Flat signal: no periodicity exists.
        return PeriodEstimate(period_us=2 * interval_us, confidence=0.0, method="autocorrelation")

    max_lag = n // 2
    lags = np.arange(2, max_lag + 1)
    # Lagged sums via one full autocorrelation plus cumulative sums; r(L) is
    # the exact Pearson coefficient between x[:-L] and x[L:].
    dots = np.correlate(x, x, mode="full")[n - 1 + lags]
    c1 = np.cumsum(x)
    c2 = np.cumsum(x * x)
    m = (n - lags).astype(float)
    head_sum = c1[n - lags - 1]
    tail_sum = c1[-1] - c1[lags - 1]
    head_sq = c2[n - lags - 1]
    tail_sq = c2[-1] - c2[lags - 1]
    num = dots - head_sum * tail_sum / m
    var_head = head_sq - head_sum**2 / m
    var_tail = tail_sq - tail_sum**2 / m
    denom = np.sqrt(np.maximum(var_head, 0.0) * np.maximum(var_tail, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0.0, num / denom, 0.0)
    r = np.clip(r, -1.0, 1.0)

    peak = float(r.max())
    best_i = int(np.argmax(r >= peak - 1e-9))  # smallest lag within tolerance
    best_lag = int(lags[best_i])

    period_samples = float(best_lag)
    # A peak of exactly 1 means the signal repeats exactly at this integer
    # lag; parabolic refinement would only import asymmetry from the
    # different overlap lengths of the neighboring lags.
    if peak < 1.0 - 1e-12 and 0 < best_i < len(lags) - 1:
        r_prev, r_mid, r_next = float(r[best_i - 1]), float(r[best_i]), float(r[best_i + 1])
        curvature = r_prev - 2.0 * r_mid + r_next
        if curvature < 0.0:
            delta = 0.5 * (r_prev - r_next) / curvature
            if abs(delta) <= 0.5:
                period_samples = best_lag + delta

    period_us = max(1, int(round(period_samples * interval_us)))
    confidence = max(0.0, min(1.0, peak))
    return PeriodEstimate(period_us=period_us, confidence=confidence, method="autocorrelation")


def detect_period(run: Run, signal: str = "gpu_util") -> PeriodEstimate:
    """Estimate the dominant period of a run's telemetry signal.

    The signal is first resampled onto a uniform grid at the run's nominal
    sample interval so that jittered samplers do not distort lag lengths.
    The samples must fill at least half of that grid (else SignalTooShort).
    """
    interval = run.meta.sample_interval_us
    ts = run.samples.t.astype(float)
    if ts.size < _MIN_SAMPLES:
        raise SignalTooShort(f"need at least {_MIN_SAMPLES} samples, got {ts.size}")
    vals = signal_values(run, signal)
    n_grid = int((ts[-1] - ts[0]) // interval) + 1
    if n_grid < _MIN_SAMPLES:
        raise SignalTooShort("run spans fewer than the minimum number of sample intervals")
    if n_grid > 2 * ts.size:  # also bounds the grid's memory and its O(n^2) autocorrelation
        raise SignalTooShort(f"{ts.size} samples cover under half of the {n_grid}-point "
                             f"resampling grid at the {interval} us sample interval")
    grid = ts[0] + interval * np.arange(n_grid)
    resampled = np.interp(grid, ts, vals)
    return estimate_period_from_series(resampled, interval)


def resolve_steps_and_period(
    run: Run, signal: str = "gpu_util"
) -> tuple[tuple[StepWindow, ...], PeriodEstimate]:
    """A run's step windows with their period.

    With labeled ops, each step window spans [min start, max end] of its ops,
    and the period is the windows' mean duration ("explicit"); labeled ops
    always give at least one window. The windows must be disjoint and in
    step-id order (else OverlappingSteps, naming two windows that overlap, or
    else two steps whose ids run backwards in time). Without labels,
    ``detect_period`` runs once; its estimate is the period, and it tiles
    complete windows from the first op's start unless its confidence is below
    the threshold (NoSteps).
    The first ``meta.warmup_steps`` resolved windows are flagged as warmup.
    """
    ops = run.ops
    warmup = run.meta.warmup_steps
    if not ops.has_step.any():
        estimate = detect_period(run, signal)
        if estimate.confidence < PERIOD_CONFIDENCE_THRESHOLD:
            raise NoSteps(
                f"no step labels and period confidence {estimate.confidence:.3f} "
                f"below threshold {PERIOD_CONFIDENCE_THRESHOLD}"
            )
        period = estimate.period_us
        start = int(ops.start[0])
        count = (run.end_us - start) // period
        if count < 1:
            raise NoSteps("inferred period does not fit a single complete window")
        windows = tuple(StepWindow(i, start + i * period, start + (i + 1) * period, i < warmup)
                        for i in range(count))
        return windows, estimate
    labelled = slice(None)  # every op, already in step order: columns as views, no gather
    if not (ops.has_step.all() and (ops.step[1:] >= ops.step[:-1]).all()):
        labelled = np.flatnonzero(ops.has_step)
        labelled = labelled[np.argsort(ops.step[labelled], kind="stable")]
    step_ids = ops.step[labelled]
    heads = np.flatnonzero(np.r_[True, step_ids[1:] != step_ids[:-1]])
    ids = step_ids[heads].tolist()
    lo = np.minimum.reduceat(ops.start[labelled], heads)
    hi = np.maximum.reduceat(ops.end[labelled], heads)
    out_of_order = np.flatnonzero(lo[1:] < hi[:-1])  # else disjoint windows in id order
    if out_of_order.size:  # name the first overlap in time order, else the first pair out of it
        by_start = np.argsort(lo, kind="stable")
        overlaps = np.flatnonzero(lo[by_start[1:]] < hi[by_start[:-1]])
        if overlaps.size:
            a, b = by_start[overlaps[0]], by_start[overlaps[0] + 1]
            raise OverlappingSteps(f"step windows {ids[a]} and {ids[b]} overlap; "
                                   "labeled op intervals are inconsistent")
        a, b = out_of_order[0], out_of_order[0] + 1
        raise OverlappingSteps(f"step {ids[b]} in [{lo[b]}, {hi[b]}) us comes before step "
                               f"{ids[a]} in [{lo[a]}, {hi[a]}) us; labeled step ids must "
                               "increase in time")
    bounds = enumerate(zip(ids, lo.tolist(), hi.tolist()))
    windows = tuple(StepWindow(step_id, a, b, i < warmup) for i, (step_id, a, b) in bounds)
    mean_us = fsum(w.duration_us for w in windows) / len(windows)
    return windows, PeriodEstimate(int(round(mean_us)), confidence=1.0, method="explicit")


def resolve_steps(run: Run, signal: str = "gpu_util") -> tuple[StepWindow, ...]:
    """The step windows of :func:`resolve_steps_and_period`."""
    return resolve_steps_and_period(run, signal)[0]


def predictability(
    run: Run, steps: Sequence[StepWindow], signal: str = "gpu_util"
) -> PredictabilityScore:
    """Mean pairwise Pearson correlation of the per-step signal.

    Each step's samples are linearly resampled to the shortest step's sample
    count (avoids extrapolation), then the scores of all unordered step pairs
    are averaged. Defined only when at least two complete non-warmup steps exist.
    """
    windows = [w for w in steps if not w.is_warmup]
    if len(windows) < 2:
        raise NoCompleteSteps(
            f"predictability needs >= 2 non-warmup steps, got {len(windows)}"
        )
    vals = signal_values(run, signal)
    bounds = np.searchsorted(run.samples.t, [(w.start_us, w.end_us) for w in windows])
    target = int((bounds[:, 1] - bounds[:, 0]).min())
    if target < 2:
        raise SignalTooShort("shortest step contains fewer than 2 samples")
    rows = _resampled_rows(vals, bounds, target)
    return PredictabilityScore(
        signal=signal,
        mean_pairwise_correlation=_mean_pair_score(rows),
        per_step_pairs=comb(len(rows), 2),
    )
