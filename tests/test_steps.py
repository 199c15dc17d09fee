import re
from math import comb, fsum

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import mk_run, mk_sample, tables, util_fractions
from oracles import (OpEvent, pair_scores_oracle, pairwise_pearson_oracle, pearson_pair_oracle,
                     rows, step_windows_oracle)
from traceprof import steps
from traceprof.errors import NoCompleteSteps, NoSteps, OverlappingSteps, SignalTooShort
from traceprof.metrics import build_report
from traceprof.model import DEVICES, RunMeta, SampleTable
from traceprof.steps import (
    PeriodEstimate,
    detect_period,
    estimate_period_from_series,
    predictability,
    resolve_steps,
    resolve_steps_and_period,
)
from traceprof.synth import PhaseSpec, SynthSpec, generate
from traceprof.model import validate_run


def _square_wave(period, n, duty=0.5, high=1.0, low=0.0):
    cycle = np.concatenate(
        [np.full(int(period * duty), high), np.full(period - int(period * duty), low)]
    )
    reps = int(np.ceil(n / period))
    return np.tile(cycle, reps)[:n]


def _square_run(period_samples=100, steps=6, interval=10_000, duty=0.6, **spec_kw):
    spec = SynthSpec(
        steps=steps,
        step_duration_us=period_samples * interval,
        batch_size=4,
        core_count=2,
        sample_interval_us=interval,
        phases=(
            PhaseSpec(duty, (0.5, 0.25), 1.0, 500, 4000, 2000, 7000, 10**9),
            PhaseSpec(1.0 - duty, (0.5, 0.25), 0.0, 500, 1000, 2000, 4000, 10**9),
        ),
        warmup_steps=0,
        **spec_kw,
    )
    meta, ops, samples, truth = generate(spec)
    return validate_run(meta, ops, samples), truth


def test_resolve_steps_from_explicit_labels():
    samples = [mk_sample(t * 10_000) for t in range(50)]
    ops = [OpEvent("op", "GPU", s * 100_000, (s + 1) * 100_000, step_id=s)
           for s in range(5)]
    run = mk_run(samples, ops, warmup=3)
    windows = resolve_steps(run)
    assert [w.step_id for w in windows] == [0, 1, 2, 3, 4]
    assert [w.is_warmup for w in windows] == [True, True, True, False, False]
    assert all(w.duration_us == 100_000 for w in windows)


def test_resolve_steps_windows_disjoint_and_ordered():
    run, _ = _square_run()
    windows = resolve_steps(run)
    for a, b in zip(windows, windows[1:]):
        assert a.end_us <= b.start_us
        assert a.step_id < b.step_id


def test_resolve_steps_tiles_one_second_windows():
    run, _ = _square_run(period_samples=100, interval=10_000, strip_step_ids=True)
    windows = resolve_steps(run)
    assert len(windows) == 6
    assert all(w.duration_us == 1_000_000 for w in windows)


def test_resolve_steps_flat_signal_raises():
    samples = [mk_sample(t * 10_000, gpu=0.5) for t in range(100)]
    ops = [OpEvent("op", "GPU", 0, 1_000_000)]
    run = mk_run(samples, ops)
    with pytest.raises(NoSteps):
        resolve_steps(run)


def test_resolve_steps_and_period_labelled_gives_the_mean_duration():
    samples = [mk_sample(t * 10_000) for t in range(50)]
    ops = [OpEvent("op", "GPU", s * 100_000, s * 100_000 + 90_000 + s, step_id=s)
           for s in range(5)]
    run = mk_run(samples, ops, warmup=1)
    windows, period = resolve_steps_and_period(run)
    assert windows == resolve_steps(run)
    assert period == PeriodEstimate(90_002, confidence=1.0, method="explicit")


def test_resolve_steps_and_period_unlabelled_keeps_one_estimate():
    run, truth = _square_run(period_samples=100, strip_step_ids=True)
    windows, period = resolve_steps_and_period(run)
    assert windows == resolve_steps(run)
    assert period == detect_period(run)
    assert period.method == "autocorrelation" and period.period_us == truth.period_us


@st.composite
def partly_labelled_runs(draw):
    """A run whose ops are labelled with a step id or unlabelled, in a drawn order.

    Time slot k's labelled ops lie in [1000 k, 1000 k + 900) us, so no two slots
    overlap, unless a drawn labelled op is stretched up to 400 us past its slot's
    end; unlabelled ops lie anywhere, across slots too. Slot k's step id is 3 k,
    or the slots' ids are drawn in any order, so that ids need not grow with
    time. A sample every 50 us covers the run, and each op spans at least 100 us.
    """
    n_slots = draw(st.integers(1, 6))
    ids = [3 * k for k in range(n_slots)]
    if draw(st.booleans()):
        ids = draw(st.permutations(ids))

    def op(lo, hi, step):
        start = draw(st.integers(lo, hi - 100))
        return OpEvent(draw(st.sampled_from(["a", "b", "c"])), draw(st.sampled_from(DEVICES)),
                       start, draw(st.integers(start + 100, hi)), step_id=step)

    slots = draw(st.lists(st.integers(0, n_slots - 1), min_size=1))
    labelled = [op(1000 * k, 1000 * k + 900, ids[k]) for k in slots]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(labelled) - 1))
        labelled[i] = labelled[i]._replace(end=labelled[i].end + draw(st.integers(1, 400)))
    unlabelled = [op(0, 1000 * n_slots, None) for _ in range(draw(st.integers(1, 8)))]
    ops = draw(st.permutations(labelled + unlabelled))
    samples = [mk_sample(t, gpu=draw(util_fractions)) for t in range(0, 1000 * n_slots, 50)]
    warmup = draw(st.integers(0, len(set(slots)) - 1))
    return mk_run(samples, ops, interval=50, warmup=warmup)


@given(partly_labelled_runs())
def test_partly_labelled_runs_window_the_labelled_ops(run):
    ops = rows(run.ops)
    want = step_windows_oracle(ops, run.meta.warmup_steps)
    by_start = sorted(want, key=lambda w: w.start_us)  # stable: tied starts stay in id order
    overlaps = [(a, b) for a, b in zip(by_start, by_start[1:]) if b.start_us < a.end_us]
    backwards = [(a, b) for a, b in zip(want, want[1:]) if b.start_us < a.end_us]
    if overlaps:  # two windows share time
        (a, b), *_ = overlaps
        with pytest.raises(OverlappingSteps,
                           match=f"^step windows {a.step_id} and {b.step_id} overlap; "):
            resolve_steps_and_period(run)
        return
    if backwards:  # disjoint windows whose ids do not follow time
        (a, b), *_ = backwards
        message = (f"step {b.step_id} in [{b.start_us}, {b.end_us}) us comes before step "
                   f"{a.step_id} in [{a.start_us}, {a.end_us}) us; labeled step ids must "
                   "increase in time")
        with pytest.raises(OverlappingSteps, match=f"^{re.escape(message)}$"):
            resolve_steps_and_period(run)
        return
    windows, period = resolve_steps_and_period(run)
    assert list(windows) == want
    mean_us = fsum(w.end_us - w.start_us for w in want) / len(want)
    assert period == PeriodEstimate(int(round(mean_us)), confidence=1.0, method="explicit")
    # Unlabelled ops belong to no window, but every op counts in per_op.
    per_op = build_report(run).per_op
    ts = run.samples.t.tolist()
    assert sorted(per_op) == sorted({op.op_name for op in ops})
    for name in per_op:
        mine = [op for op in ops if op.op_name == name]
        assert per_op[name].count == len(mine)
        assert per_op[name].busy_time_us == sum(op.end - op.start for op in mine)
        assert per_op[name].attributed_samples == sum(op.start <= t < op.end
                                                      for op in mine for t in ts)


def test_step_ids_that_run_backwards_in_time_are_not_called_an_overlap():
    samples = [mk_sample(t) for t in range(0, 2000, 50)]
    backwards = mk_run(samples, [OpEvent("a", "GPU", 0, 900, step_id=3),
                                 OpEvent("a", "GPU", 1000, 1900, step_id=0)], interval=50)
    with pytest.raises(OverlappingSteps, match=re.escape(
            "step 3 in [0, 900) us comes before step 0 in [1000, 1900) us; labeled step ids "
            "must increase in time")):
        resolve_steps_and_period(backwards)
    # A real overlap is named as one, whatever the id order.
    overlapping = mk_run(samples, [OpEvent("a", "GPU", 0, 1100, step_id=3),
                                   OpEvent("a", "GPU", 1000, 1900, step_id=0)], interval=50)
    with pytest.raises(OverlappingSteps, match="^step windows 3 and 0 overlap; "):
        resolve_steps_and_period(overlapping)


def test_build_report_detects_the_period_once(monkeypatch):
    run, truth = _square_run(period_samples=100, strip_step_ids=True)
    calls = []
    detect = steps.detect_period
    monkeypatch.setattr(steps, "detect_period", lambda *args: calls.append(args) or detect(*args))
    report = build_report(run)
    assert len(calls) == 1
    assert report.period == detect(run) and report.period.period_us == truth.period_us


def test_detect_period_rejects_samples_on_under_half_the_grid():
    # 10 samples 10**12 us apart at a declared 1 us interval: a 9e12-point grid.
    samples = [mk_sample(i * 10**12, gpu=float(i % 2)) for i in range(10)]
    run = mk_run(samples, [OpEvent("op", "GPU", 0, 9 * 10**12 + 1)], interval=1)
    with pytest.raises(SignalTooShort, match="cover under half of the 9000000000001-point"):
        detect_period(run)
    # Every other interval sampled is exactly half the grid, which is enough.
    half = mk_run([mk_sample(2 * i, gpu=float(i % 4 < 2)) for i in range(40)], interval=1)
    assert detect_period(half).period_us == 8


def test_detect_period_square_wave():
    run, truth = _square_run(period_samples=100, strip_step_ids=True)
    estimate = detect_period(run)
    assert estimate.period_us == truth.period_us
    assert estimate.confidence >= 0.99


def test_detect_period_white_noise_low_confidence():
    for seed in range(5):
        noise = np.random.default_rng(seed).uniform(0, 1, 600)
        estimate = estimate_period_from_series(noise, 10_000)
        assert estimate.confidence < 0.5


def test_detect_period_affine_invariance():
    x = _square_wave(50, 500, duty=0.4)
    base = estimate_period_from_series(x, 10_000)
    scaled = estimate_period_from_series(3.7 * x - 1.2, 10_000)
    assert scaled.period_us == base.period_us
    assert scaled.confidence == pytest.approx(base.confidence, abs=1e-9)


def test_detect_period_invariant_under_duplication():
    x = _square_wave(40, 400, duty=0.3)
    doubled = np.tile(x, 2)
    assert (
        estimate_period_from_series(doubled, 10_000).period_us
        == estimate_period_from_series(x, 10_000).period_us
    )


def test_detect_period_too_short():
    with pytest.raises(SignalTooShort):
        estimate_period_from_series(np.ones(5), 10_000)


def test_period_estimate_bounded_by_duration():
    x = _square_wave(30, 240)
    estimate = estimate_period_from_series(x, 10_000)
    assert estimate.period_us <= 240 * 10_000


def test_predictability_identical_steps_is_exactly_one():
    run, _ = _square_run()
    windows = resolve_steps(run)
    score = predictability(run, windows)
    assert score.mean_pairwise_correlation == 1.0
    assert score.per_step_pairs == 15  # C(6, 2)


def test_predictability_independent_noise_near_zero():
    rng = np.random.default_rng(42)
    n_steps, per_step = 5, 100
    samples = [
        mk_sample(t * 10_000, gpu=float(g))
        for t, g in enumerate(rng.uniform(0, 1, n_steps * per_step))
    ]
    ops = [OpEvent("op", "GPU", s * 1_000_000, (s + 1) * 1_000_000, step_id=s)
           for s in range(n_steps)]
    run = mk_run(samples, ops)
    windows = resolve_steps(run)
    score = predictability(run, windows)
    assert abs(score.mean_pairwise_correlation) < 0.2


def test_predictability_periodic_with_small_noise_above_point_nine():
    run, _ = _square_run(noise_amplitude=0.05, seed=5)
    windows = resolve_steps(run)
    score = predictability(run, windows)
    assert score.mean_pairwise_correlation > 0.9


def test_predictability_matches_pairwise_oracle():
    run, _ = _square_run(noise_amplitude=0.1, seed=9)
    windows = resolve_steps(run)
    score = predictability(run, windows)
    ts = np.array([s.t for s in rows(run.samples)])
    vals = np.array([s.gpu_util for s in rows(run.samples)])
    segments = [vals[(ts >= w.start_us) & (ts < w.end_us)] for w in windows]
    assert score.mean_pairwise_correlation == pytest.approx(
        pairwise_pearson_oracle(segments), rel=1e-9
    )


def test_predictability_needs_two_non_warmup_steps():
    run, _ = _square_run(steps=3)
    windows = resolve_steps(mk_run(rows(run.samples), rows(run.ops), warmup=2))
    with pytest.raises(NoCompleteSteps):
        predictability(run, windows)


def test_predictability_symmetric_pair_count():
    run, _ = _square_run(steps=5)
    windows = resolve_steps(run)
    score = predictability(run, windows)
    assert score.per_step_pairs == 10  # unordered pairs of 5 steps


def test_alternate_signals_carry_the_same_period():
    # The power and CPU profiles alternate with the same step structure.
    run, truth = _square_run(strip_step_ids=True)
    for signal in ("power_sys", "gpu_util"):
        estimate = detect_period(run, signal)
        assert estimate.period_us == truth.period_us
    windows = resolve_steps(run, "power_sys")
    score = predictability(run, windows, "power_sys")
    assert score.signal == "power_sys"
    assert score.mean_pairwise_correlation == 1.0


@pytest.mark.parametrize("length", [2, 7, 8, 9, 20, 128, 129, 1000])
def test_batched_pair_scores_equal_scalar_pearson(length):
    # Lengths straddle numpy's pairwise-summation blocks (8-way unrolling,
    # 128-element blocks), where a different reduction order would show up.
    rng = np.random.default_rng(length)
    rows = rng.normal(size=(9, length)) * 1e3 + 1e4
    rows[1] = rows[0]  # equal rows
    rows[2] = 5.0  # constant rows: equal to each other, zero variance otherwise
    rows[3] = 5.0
    rows[4] = 7.0
    rows[5] = -rows[6]  # anti-correlated
    rows[7] = np.round(rng.uniform(0, 1, length) * 1024) / 1024  # utilization grid
    expected = [
        pearson_pair_oracle(rows[i], rows[j])
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
    ]
    assert pair_scores_oracle(rows).tolist() == expected


@st.composite
def step_rows(draw):
    """(rows, oracle rows): one row of sys-power samples per step, and its oracle input.

    Rows are random, on the 1/1024 utilization grid (zeros among them), constant,
    a copy of an earlier row with the sign of every zero flipped, or an earlier
    row mirrored about its maximum (anti-correlated). A random row is scaled by
    2**1000, to near 1e308, at random; copies and mirrors keep their row's scale.
    The oracle rows are the unscaled ones: r is invariant under the exact scaling,
    and the oracle's squares would overflow near 1e308.
    """
    length = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, scales = [], []
    for _ in range(draw(st.integers(2, 10))):
        kinds = ["random", "grid", "constant"] + ["copy", "mirror"] * bool(rows)
        kind = draw(st.sampled_from(kinds))
        scale = 0
        if kind == "random":
            row = rng.uniform(0.5, 1.0, length) * 2.0**23
            scale = draw(st.sampled_from([0, 1000]))
        elif kind == "grid":
            row = rng.integers(0, draw(st.sampled_from([2, 1025])), length) / 1024
        elif kind == "constant":
            row = np.full(length, draw(st.sampled_from([0.0, -0.0, 0.1, 5.0])))
        else:
            i = draw(st.integers(0, len(rows) - 1))
            row = rows[i]
            row = row.max() - row if kind == "mirror" else np.where(row, row, -row)
            scale = scales[i]
        rows.append(row)
        scales.append(scale)
    oracle_rows = np.array(rows)
    return np.ldexp(oracle_rows, np.array(scales)[:, None]), oracle_rows


def _sys_power_run(rows):
    """A labelled run whose step i holds one 1 ms sample per value of rows[i], as sys power."""
    steps_, length = rows.shape
    values = np.zeros((rows.size, 6))  # one core, the GPU, then the cpu, gpu, mem and sys rails
    values[:, 5] = rows.ravel()
    samples = SampleTable(np.arange(rows.size) * 1_000, values, np.zeros(rows.size, np.int64))
    ops = [OpEvent("op", "GPU", i * length * 1_000, (i + 1) * length * 1_000, step_id=i)
           for i in range(steps_)]
    meta = RunMeta("rows", batch_size=1, core_count=1, sample_interval_us=1_000, warmup_steps=0)
    return validate_run(meta, tables(ops, [])[0], samples)


@given(step_rows())
def test_predictability_matches_the_pair_scores_oracle(case):
    rows, oracle_rows = case
    run = _sys_power_run(rows)
    score = predictability(run, resolve_steps(run), "power_sys")
    scores = pair_scores_oracle(oracle_rows)
    assert score.per_step_pairs == scores.size == comb(len(rows), 2)
    assert abs(score.mean_pairwise_correlation - fsum(scores) / scores.size) <= 1e-12
    if (rows == rows[0]).all():  # -0.0 == 0.0, as for the oracle
        assert score.mean_pairwise_correlation == 1.0


@pytest.mark.parametrize("length", [5, 20, 31])
@pytest.mark.parametrize("low, high", [(100.0, 300.0), (100.1, 300.3)])
def test_constant_steps_score_zero_against_other_constant_steps(low, high, length):
    # Means of 100.1 and 300.3 round; their centred rows must still be exactly 0.
    rows = np.array([[low] * length, [high] * length] * 3)
    run = _sys_power_run(rows)
    score = predictability(run, resolve_steps(run), "power_sys")
    # 6 pairs of equal steps score 1, the 9 unequal pairs 0.
    assert score.mean_pairwise_correlation == 0.4
    assert fsum(pair_scores_oracle(rows)) / score.per_step_pairs == 0.4


@given(st.lists(st.integers(2, 30), min_size=1, max_size=8), st.data())
def test_resampled_rows_equal_per_segment_interp_bit_for_bit(lengths, data):
    cells = st.floats(0.0, 1e308) | util_fractions | st.just(-0.0)
    values = np.array(data.draw(st.lists(cells, min_size=sum(lengths), max_size=sum(lengths))))
    ends = np.cumsum(lengths)
    bounds = np.column_stack([ends - lengths, ends])
    target = data.draw(st.integers(2, min(lengths)))
    expected = np.stack([
        np.interp(np.linspace(0.0, b - a - 1.0, target), np.arange(b - a), values[a:b])
        for a, b in bounds.tolist()
    ])
    # tobytes tells -0.0 from 0.0.
    assert steps._resampled_rows(values, bounds, target).tobytes() == expected.tobytes()
