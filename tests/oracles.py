"""Independent reference implementations used to check the pipeline.

Everything here is deliberately naive: plain loops, brute-force pair
enumeration and a discretized timeline. None of it shares code with the
implementations under test.
"""

import numpy as np


def weighted_mean_oracle(values, weights):
    num = 0.0
    den = 0.0
    for v, w in zip(values, weights):
        num += v * w
        den += w
    return num / den


def rectangle_energy_oracle(powers_mw, dts_us):
    total_nj = 0.0
    for p, dt in zip(powers_mw, dts_us):
        total_nj += p * dt
    return total_nj / 1e9


def brute_force_attribution(ops, samples):
    """All (sample, op) pairs with op.start <= sample.t < op.end, by double loop."""
    starts = np.array([op.start for op in ops])
    ends = np.array([op.end for op in ops])
    ts = np.array([s.t for s in samples])
    # Broadcasting evaluates every (sample, op) pair.
    inside = (starts[None, :] <= ts[:, None]) & (ts[:, None] < ends[None, :])
    return [tuple(np.flatnonzero(row)) for row in inside]


def discretized_busy_oracle(intervals, resolution_us=1):
    """Union length of intervals by marking a boolean timeline."""
    if not intervals:
        return 0
    lo = min(start for start, _ in intervals)
    hi = max(end for _, end in intervals)
    timeline = np.zeros((hi - lo) // resolution_us, dtype=bool)
    for start, end in intervals:
        timeline[(start - lo) // resolution_us : (end - lo) // resolution_us] = True
    return int(timeline.sum()) * resolution_us


def count_ratio_oracle(values, predicate):
    hits = sum(1 for v in values if predicate(v))
    return hits / len(values)


def pairwise_pearson_oracle(series):
    """Mean Pearson correlation over unordered pairs, via numpy directly."""
    rs = []
    for i in range(len(series)):
        for j in range(i + 1, len(series)):
            a, b = np.asarray(series[i]), np.asarray(series[j])
            rs.append(float(np.corrcoef(a, b)[0, 1]))
    return sum(rs) / len(rs)


def pearson_pair_oracle(a, b):
    """Pearson r of two equal-length rows with the report's conventions.

    Equal rows score 1.0 (this covers two identical constant rows), a zero
    denominator scores 0.0, and r is clamped to [-1, 1] by Python's min/max.
    """
    if np.array_equal(a, b):
        return 1.0
    ca = a - a.mean()
    cb = b - b.mean()
    denom = np.sqrt((ca * ca).sum() * (cb * cb).sum())
    if denom == 0.0:
        return 0.0
    r = float((ca * cb).sum() / denom)
    return max(-1.0, min(1.0, r))


def window_metrics_loop_oracle(run, window, threshold=0.0):
    """Every time-weighted window metric by a per-sample loop, each sum by fsum.

    The report promises these exact floats: fsum is correctly rounded, so any
    implementation that sums the same products must match bit for bit.
    """
    from bisect import bisect_left
    from math import fsum

    ts = [s.t for s in run.samples]
    dts = [b - a for a, b in zip(ts, ts[1:])] + [run.meta.sample_interval_us]
    idx = range(bisect_left(ts, window[0]), bisect_left(ts, window[1]))
    total = fsum(dts[i] for i in idx)

    def weighted(value):
        return fsum(value(run.samples[i]) * dts[i] for i in idx)

    cores = range(run.meta.core_count)
    rails = {"cpu": "power_cpu_mw", "gpu": "power_gpu_mw", "mem": "power_mem_mw",
             "sys": "power_sys_mw"}
    return {
        "per_core": [weighted(lambda s, c=c: s.cpu_core_util[c]) / total for c in cores],
        "gpu": weighted(lambda s: s.gpu_util) / total,
        "idle": [
            fsum(dts[i] for i in idx if run.samples[i].cpu_core_util[c] <= threshold) / total
            for c in cores
        ],
        "energy": {r: weighted(lambda s, a=a: getattr(s, a)) / 1e9 for r, a in rails.items()},
        "mean_mw": {r: weighted(lambda s, a=a: getattr(s, a)) / total for r, a in rails.items()},
    }
