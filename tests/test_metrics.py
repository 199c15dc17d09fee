import random
from dataclasses import replace
from math import fsum

import pytest

from conftest import mk_run, mk_sample, window_sums
from oracles import (
    rectangle_energy_oracle,
    sample_weights_oracle,
    weighted_mean_oracle,
    window_metrics_loop_oracle,
)
from traceprof import metrics
from traceprof.errors import NoSamplesInWindow
from traceprof.ingest import write_report
from traceprof.metrics import _rail_ranking, build_report
from traceprof.model import Device, OpEvent


def _uniform_run(core_rows, gpu_row=None, powers=None, interval=10_000, mems=None, ops=None,
                 **kw):
    """One sample per interval; by default one op labelled step 0 spans the run."""
    n = len(core_rows)
    ops = ops or [OpEvent("op", Device.GPU, 0, n * interval, step_id=0)]
    gpu_row = gpu_row or [0.0] * n
    powers = powers or [(0.0, 0.0, 0.0, 0.0)] * n
    mems = mems or [0] * n
    samples = [
        mk_sample(i * interval, cores=core_rows[i], gpu=gpu_row[i],
                  p_cpu=powers[i][0], p_gpu=powers[i][1], p_mem=powers[i][2],
                  p_sys=powers[i][3], mem=mems[i])
        for i in range(n)
    ]
    return mk_run(samples, ops, interval=interval, **kw)


def _jittered_run(seed, n=60):
    rng = random.Random(seed)
    t = 0
    samples = []
    for _ in range(n):
        samples.append(
            mk_sample(
                t,
                cores=(rng.random(), rng.random()),
                gpu=rng.random(),
                p_cpu=rng.uniform(0, 2_000),
                p_gpu=rng.uniform(0, 9_000),
                p_mem=rng.uniform(0, 4_000),
                p_sys=rng.uniform(0, 15_000),
                mem=rng.randrange(10**9),
            )
        )
        t += rng.randrange(8_000, 13_000)
    return mk_run(samples, [OpEvent("op", Device.GPU, 0, t, step_id=0)])


# --- Eq. 1: individual core utilization -------------------------------------

def test_saturated_core_is_one():
    run = _uniform_run([(1.0,)] * 10)
    assert window_sums(run).per_core[0] == 1.0


def test_binary_stream_active_30_of_100():
    rows = [(1.0,) if i < 30 else (0.0,) for i in range(100)]
    run = _uniform_run(rows)
    assert window_sums(run).per_core[0] == 0.30


def test_core_utilization_matches_direct_sum_oracle():
    run = _jittered_run(seed=1)
    dts = sample_weights_oracle(run)
    for core in (0, 1):
        values = [s.cpu_core_util[core] for s in run.samples]
        expected = weighted_mean_oracle(values, dts)
        assert window_sums(run).per_core[core] == pytest.approx(expected, rel=1e-12)


# --- Eq. 2: average over cores ----------------------------------------------

def test_avg_utilization_six_cores():
    run = _uniform_run([(0.6, 0.6, 0.0, 0.0, 0.0, 0.0)] * 4)
    assert window_sums(run).cpu_avg == pytest.approx(0.2, abs=1e-15)


def test_avg_utilization_all_zero():
    run = _uniform_run([(0.0, 0.0)] * 4)
    assert window_sums(run).cpu_avg == 0.0


def test_avg_equals_mean_of_per_core_exactly():
    run = _jittered_run(seed=2)
    sums = window_sums(run)
    assert sums.cpu_avg == fsum(sums.per_core) / len(sums.per_core)


# --- Eq. 3: GPU utilization ---------------------------------------------------

def test_gpu_constant_denselike_batch64():
    run = _uniform_run([(0.0,)] * 50, gpu_row=[0.964] * 50)
    assert window_sums(run).gpu == 0.964


def test_gpu_all_zero():
    run = _uniform_run([(0.0,)] * 10)
    assert window_sums(run).gpu == 0.0


def test_gpu_matches_direct_sum_oracle():
    run = _jittered_run(seed=3)
    dts = sample_weights_oracle(run)
    expected = weighted_mean_oracle([s.gpu_util for s in run.samples], dts)
    assert window_sums(run).gpu == pytest.approx(expected, rel=1e-12)


# --- idle-state ratio ---------------------------------------------------------

def test_idle_ratio_denver2_extreme():
    rows = [(0.0,) if i < 65 else (0.5,) for i in range(100)]
    run = _uniform_run(rows)
    assert window_sums(run).idle[0] == 0.65


def test_idle_ratio_never_zero_utilization():
    run = _uniform_run([(0.25,)] * 20)
    assert window_sums(run).idle[0] == 0.0


def test_idle_ratio_counts_exact_zeros_only():
    run = _uniform_run([(0.0,), (1e-9,), (0.0,), (0.5,)])
    assert window_sums(run).idle[0] == 0.5
    assert window_sums(run, threshold=1e-6).idle[0] == 0.75


def test_idle_ratio_matches_count_oracle_on_binary_stream():
    rng = random.Random(7)
    rows = [((0.0 if rng.random() < 0.4 else 1.0),) for _ in range(200)]
    run = _uniform_run(rows)
    zeros = sum(1 for (u,) in rows if u == 0.0)
    assert window_sums(run).idle[0] == pytest.approx(zeros / 200, abs=1e-15)


def test_idle_plus_active_is_one_for_binary_streams():
    rng = random.Random(9)
    rows = [((0.0 if rng.random() < 0.3 else 1.0),) for _ in range(150)]
    run = _uniform_run(rows)
    active = window_sums(run).per_core[0]
    assert abs(window_sums(run).idle[0] + active - 1.0) < 1e-12


# --- Eq. 4: energy -------------------------------------------------------------

def test_energy_single_sample():
    run = _uniform_run([(0.0,)], powers=[(0.0, 0.0, 0.0, 2_000.0)])
    assert window_sums(run).energy_j["sys"] == 0.02


def test_energy_constant_low_power_mode_one_second():
    for interval in (5_000, 10_000, 20_000):
        n = 1_000_000 // interval
        run = _uniform_run(
            [(0.0,)] * n,
            powers=[(0.0, 0.0, 0.0, 7_500.0)] * n,
            interval=interval,
        )
        assert window_sums(run).energy_j["sys"] == 7.5


def test_energy_matches_rectangle_oracle():
    run = _jittered_run(seed=4)
    dts = sample_weights_oracle(run)
    for rail, attr in (("cpu", "power_cpu_mw"), ("gpu", "power_gpu_mw"),
                       ("mem", "power_mem_mw"), ("sys", "power_sys_mw")):
        expected = rectangle_energy_oracle([getattr(s, attr) for s in run.samples], dts)
        assert window_sums(run).energy_j[rail] == pytest.approx(expected, abs=1e-9)


def test_energy_additive_at_sample_boundaries():
    run = _jittered_run(seed=5)
    ts = [s.t for s in run.samples]
    a, b, c = ts[0], ts[len(ts) // 2], ts[-1] + run.meta.sample_interval_us
    total = window_sums(run, (a, c)).energy_j["sys"]
    split = window_sums(run, (a, b)).energy_j["sys"] + window_sums(run, (b, c)).energy_j["sys"]
    assert split == pytest.approx(total, abs=1e-9)


def test_energy_scales_exactly_with_power():
    run = _jittered_run(seed=6)
    doubled = mk_run(
        [
            mk_sample(s.t, cores=s.cpu_core_util, gpu=s.gpu_util,
                      p_cpu=2 * s.power_cpu_mw, p_gpu=2 * s.power_gpu_mw,
                      p_mem=2 * s.power_mem_mw, p_sys=2 * s.power_sys_mw,
                      mem=s.mem_used_bytes)
            for s in run.samples
        ]
    )
    for rail in ("cpu", "gpu", "mem", "sys"):
        assert window_sums(doubled).energy_j[rail] == 2 * window_sums(run).energy_j[rail]


# --- peak memory ----------------------------------------------------------------

def test_peak_memory_is_max():
    gb = 1_000_000_000
    run = _uniform_run([(0.0,)] * 3, mems=[1 * gb, 5 * gb, 3 * gb])
    assert build_report(run).peak_mem_bytes == 5 * gb


def test_peak_memory_monotone_series_is_last():
    run = _uniform_run([(0.0,)] * 5, mems=[1, 2, 3, 4, 5])
    assert build_report(run).peak_mem_bytes == 5


def test_peak_memory_includes_warmup_window():
    # Peak lands in the warmup step; the metric must still see it.
    rows = [(0.0,)] * 8
    mems = [9, 9, 1, 1, 1, 1, 1, 1]
    ops = [OpEvent("op", Device.GPU, s * 40_000, (s + 1) * 40_000, step_id=s) for s in range(2)]
    run = _uniform_run(rows, mems=mems, ops=ops, warmup=1)
    assert build_report(run).peak_mem_bytes == 9


def test_peak_memory_matches_running_max_oracle():
    run = _jittered_run(seed=8)
    peak = build_report(run).peak_mem_bytes
    running = 0
    for s in run.samples:
        if s.mem_used_bytes > running:
            running = s.mem_used_bytes
    assert peak == running
    assert all(peak >= s.mem_used_bytes for s in run.samples)


# --- throughput -------------------------------------------------------------------

def _steps_run(durations, batch, warmup=0, interval=10_000):
    """Back-to-back labelled steps of the given durations, one sample per interval."""
    bounds = [sum(durations[:s]) for s in range(len(durations) + 1)]
    ops = [OpEvent("op", Device.GPU, a, b, step_id=s)
           for s, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    return _uniform_run([(0.0,)] * (bounds[-1] // interval), ops=ops, batch=batch,
                        warmup=warmup, interval=interval)


def _stepped_run(n_steps, step_us, batch, warmup=0, interval=10_000):
    return _steps_run([step_us] * n_steps, batch, warmup, interval)


def _throughput(run):
    return build_report(run).throughput_samples_per_sec


def test_throughput_worked_example():
    # Five steps per second at batch size 4.
    assert _throughput(_stepped_run(n_steps=5, step_us=200_000, batch=4)) == 20.0


def test_throughput_one_second_step_batch_one():
    assert _throughput(_stepped_run(n_steps=1, step_us=1_000_000, batch=1)) == 1.0


def test_throughput_matches_raw_window_oracle():
    rng = random.Random(11)
    durations = [rng.randrange(50_000, 400_000) for _ in range(6)]
    run = _steps_run(durations, batch=16, warmup=2)
    expected = 16 * 4 / (sum(durations[2:]) / 1e6)
    assert _throughput(run) == pytest.approx(expected, rel=1e-12)


def test_throughput_invariant_under_time_translation():
    run = _stepped_run(n_steps=4, step_us=150_000, batch=8)
    shift = 123_456_789
    shifted = mk_run(
        [mk_sample(s.t + shift) for s in run.samples],
        [OpEvent(o.op_name, o.device, o.start + shift, o.end + shift, o.layer, o.step_id)
         for o in run.ops],
        batch=8,
    )
    assert _throughput(run) == _throughput(shifted)


# --- power dominance -----------------------------------------------------------

def test_power_dominance_constant_ordering():
    run = _uniform_run([(0.0,)] * 5, powers=[(1_000.0, 4_000.0, 2_000.0, 7_000.0)] * 5)
    ranking = _rail_ranking(window_sums(run))
    assert [r.rail for r in ranking] == ["gpu", "mem", "cpu"]
    assert ranking[0].share_of_sys == pytest.approx(4_000 / 7_000, rel=1e-12)


def test_power_dominance_memory_first_lstm_signature():
    run = _uniform_run([(0.0,)] * 5, powers=[(1_000.0, 2_000.0, 3_000.0, 7_000.0)] * 5)
    assert _rail_ranking(window_sums(run))[0].rail == "mem"


def test_power_dominance_matches_weighted_mean_oracle():
    run = _jittered_run(seed=12)
    dts = sample_weights_oracle(run)
    means = {
        rail: weighted_mean_oracle([getattr(s, attr) for s in run.samples], dts)
        for rail, attr in (("cpu", "power_cpu_mw"), ("gpu", "power_gpu_mw"),
                           ("mem", "power_mem_mw"))
    }
    expected = sorted(means, key=lambda r: -means[r])
    assert [r.rail for r in _rail_ranking(window_sums(run))] == expected


# --- report assembly -------------------------------------------------------------

def test_two_identical_runs_give_identical_reports():
    a = _stepped_run(n_steps=4, step_us=100_000, batch=4, warmup=1)
    b = _stepped_run(n_steps=4, step_us=100_000, batch=4, warmup=1)
    assert build_report(a) == build_report(b)


def test_warmup_only_run_rejected():
    # The manifest's warmup covers every step.
    run = _stepped_run(n_steps=3, step_us=100_000, batch=4, warmup=3)
    with pytest.raises(NoSamplesInWindow, match="^all step windows are warmup; nothing"):
        build_report(run)


def test_build_report_rejects_given_windows_without_an_analysis_window():
    # A warmup override at or past the step count leaves every resolved window warmup.
    run = _stepped_run(n_steps=4, step_us=100_000, batch=4, warmup=1)
    for warmup in (4, 5):
        overridden = replace(run, meta=replace(run.meta, warmup_steps=warmup))
        with pytest.raises(NoSamplesInWindow, match="^all step windows are warmup; nothing"):
            build_report(overridden)


def test_report_cpu_avg_consistent_with_per_core():
    report = build_report(_stepped_run(n_steps=4, step_us=100_000, batch=4, warmup=1))
    assert report.cpu_avg_util == fsum(report.per_core_util) / len(report.per_core_util)


def test_report_marks_sub_resolution_ops():
    # 1 us op can never catch a 10 ms sample.
    rows = [(0.0,)] * 10
    ops = [
        OpEvent("big", Device.GPU, 0, 100_000, step_id=0),
        OpEvent("tiny", Device.CPU, 55_001, 55_002, step_id=0),
    ]
    run = _uniform_run(rows, ops=ops, warmup=0)
    report = build_report(run)
    assert report.per_op["tiny"].below_sampling_resolution
    assert not report.per_op["big"].below_sampling_resolution
    assert report.concurrent_ops_double_counting


def test_report_keeps_a_step_with_no_sample_but_drops_its_metrics():
    # Step 2 spans [61 000, 62 000) us, between two 10 ms samples.
    bounds = [0, 30_000, 61_000, 62_000, 100_000]
    ops = [OpEvent("op", Device.GPU, lo, hi, step_id=s)
           for s, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    report = build_report(_uniform_run([(0.0,)] * 10, ops=ops, warmup=0))
    assert [(w.step_id, w.start_us, w.end_us) for w in report.steps] == [
        (0, 0, 30_000), (1, 30_000, 61_000), (2, 61_000, 62_000), (3, 62_000, 100_000)]
    assert [m.step_id for m in report.per_step] == [0, 1, 3]


def test_analysis_window_without_samples_is_no_samples_in_window():
    # Warmup step 0 holds every sample; step 1, the only other, falls between two.
    ops = [OpEvent("op", Device.GPU, 0, 61_000, step_id=0),
           OpEvent("op", Device.GPU, 61_000, 62_000, step_id=1)]
    run = _uniform_run([(0.0,)] * 10, ops=ops, warmup=1)
    with pytest.raises(NoSamplesInWindow, match=r"^no samples with t in \[61000, 62000\) us$"):
        build_report(run)


def test_power_overflowing_outside_every_step_leaves_the_report_unchanged():
    # Samples 0 and 7 lie before the first and after the last step; there a
    # 1e308 mW rail times the 10 ms weight overflows to inf. A float prefix
    # sum would carry that inf into every window (inf - inf is NaN).
    ops = [OpEvent("op", Device.GPU, s * 10_000, (s + 1) * 10_000, step_id=s)
           for s in range(1, 7)]
    powers = [(100.0, 200.0, 300.0, 400.0)] * 8
    spiked = [(1e308,) * 4] + powers[1:7] + [(1e308,) * 4]
    plain, spike = (build_report(_uniform_run([(0.5,)] * 8, powers=p, ops=ops, warmup=0))
                    for p in (powers, spiked))
    assert spike == plain
    assert write_report(spike, "json") == write_report(plain, "json")  # strict JSON


@pytest.mark.parametrize("seed", range(6))
def test_window_metrics_equal_loop_reference_bit_for_bit(seed):
    # All windows go through one call, as build_report's do, the empty ones too.
    run = _jittered_run(seed=100 + seed, n=300)
    rng = random.Random(seed)
    ts = [s.t for s in run.samples]
    threshold = rng.choice([0.0, 0.25])
    windows = [(ts[0], ts[-1] + 1)] + [
        tuple(sorted(rng.sample(range(ts[0] - 5_000, ts[-1] + 5_000), 2))) for _ in range(20)
    ] + [(ts[0] - 5_000, ts[0]), (ts[-1] + 1, ts[-1] + 9_000), (ts[5] + 1, ts[6])]
    results = metrics._windows(run, windows, threshold)
    assert len(results) == len(windows)
    for window, sums in zip(windows, results):
        if not any(window[0] <= t < window[1] for t in ts):
            assert sums is None
            continue
        ref = window_metrics_loop_oracle(run, window, threshold)
        assert list(sums.per_core) == ref["per_core"]
        assert sums.gpu == ref["gpu"]
        assert list(sums.idle) == ref["idle"]
        assert sums.energy_j == ref["energy"]
        ranking = _rail_ranking(sums)
        assert {r.rail: r.mean_mw for r in ranking} == {
            r: m for r, m in ref["mean_mw"].items() if r != "sys"
        }


def test_report_per_op_busy_time_stays_exact_past_int64():
    big = 2**62 + 5
    ops = [OpEvent("a", Device.GPU, 0, big, step_id=0), OpEvent("a", Device.CPU, 0, big, step_id=0),
           OpEvent("b", Device.CPU, 0, 3, step_id=0)]
    report = build_report(_uniform_run([(0.0,)] * 3, ops=ops, warmup=0))
    assert report.per_op["a"].busy_time_us == 2 * big
    assert (report.per_op["a"].count, report.per_op["a"].attributed_samples) == (2, 6)
    assert report.per_op["b"].busy_time_us == 3
