"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from conftest import mk_run, mk_sample, window_sums
from oracles import (
    OpEvent,
    brute_force_attribution,
    discretized_busy_oracle,
    dump_oracle,
    rectangle_energy_oracle,
    rows,
    sample_weights_oracle,
)
from traceprof.cli import main
from traceprof.correlate import attribute_samples, busy_time
from traceprof.ingest import load_run
from traceprof.metrics import build_report
from traceprof.model import MemoryBreakdown, validate_run
from traceprof.steps import detect_period, predictability, resolve_steps
from traceprof.sweep import SweepPoint, build_sweep_result
from traceprof.synth import PhaseSpec, SynthSpec, generate, random_spec, write_run

GB = 1_000_000_000
REL_TOL = 1e-9


def _rel_ok(got, expected, tol=REL_TOL):
    if expected == 0:
        return abs(got) <= 1e-12
    return abs(got - expected) <= tol * abs(expected)


def _analyze_json(manifest, capsysbinary, *extra):
    rc = main(["analyze", str(manifest), "--format", "json", *extra])
    out = capsysbinary.readouterr().out
    assert rc == 0
    return out


# -- 1. end-to-end zero-noise oracle ------------------------------------------

def test_criterion_1_end_to_end_synth_oracle(tmp_path, capsysbinary):
    started = time.perf_counter()
    for seed in range(50):
        spec = random_spec(seed, noise_amplitude=0.0)
        manifest = write_run(spec, tmp_path / f"run{seed}")
        _, _, _, truth = generate(spec)
        doc = json.loads(_analyze_json(manifest, capsysbinary))

        assert len(doc["per_core_util"]) == spec.core_count
        for got, want in zip(doc["per_core_util"], truth.per_core_util):
            assert _rel_ok(got, want)
        assert _rel_ok(doc["cpu_avg_util"], truth.cpu_avg_util)
        assert _rel_ok(doc["gpu_util"], truth.gpu_util)
        for got, want in zip(doc["idle_ratio_per_core"], truth.idle_ratio_per_core):
            assert _rel_ok(got, want)
        for rail, want in truth.energy_by_rail_joules.items():
            assert _rel_ok(doc["energy_by_rail_joules"][rail], want)
        for sm in doc["per_step"]:
            if sm["is_warmup"]:
                continue
            for rail, want in truth.energy_per_step_joules.items():
                assert _rel_ok(sm["energy_by_rail_joules"][rail], want)
        assert doc["peak_mem_bytes"] == truth.peak_mem_bytes
        assert _rel_ok(doc["throughput_samples_per_sec"], truth.throughput_samples_per_sec)
        assert doc["period"]["period_us"] == truth.period_us
        assert doc["predictability"]["mean_pairwise_correlation"] == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"50 synth pipelines took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: 50 zero-noise synth runs match ground truth "
          f"to 1e-9 in {elapsed:.2f}s")


# -- 2. utilization equations on binary streams --------------------------------

def test_criterion_2_utilization_equations_binary_streams():
    rng = random.Random(1234)
    for _ in range(50):
        cores = rng.randrange(1, 7)
        n = rng.randrange(10, 300)
        rows = [
            tuple(1.0 if rng.random() < 0.5 else 0.0 for _ in range(cores))
            for _ in range(n)
        ]
        gpu_row = [1.0 if rng.random() < 0.5 else 0.0 for _ in range(n)]
        samples = [
            mk_sample(i * 10_000, cores=rows[i], gpu=gpu_row[i]) for i in range(n)
        ]
        run = mk_run(samples)
        per_core = []
        for c in range(cores):
            active = sum(1 for row in rows if row[c] == 1.0)
            got = window_sums(run).per_core[c]
            assert got == active / n  # exact, per the binary-stream reduction
            per_core.append(got)
        assert abs(window_sums(run).cpu_avg - sum(per_core) / cores) <= 1e-12
        gpu_active = sum(1 for g in gpu_row if g == 1.0)
        assert window_sums(run).gpu == gpu_active / n
    print("\nPASS criterion 2: binary-stream utilizations equal count ratios exactly; "
          "core average matches Eq-by-Eq mean to 1e-12")


# -- 3. energy oracle -----------------------------------------------------------

def test_criterion_3_energy_rectangle_oracle():
    rng = random.Random(99)
    for case in range(1000):
        n = rng.randrange(2, 60)
        t = 0
        samples = []
        for _ in range(n):
            samples.append(
                mk_sample(
                    t,
                    p_cpu=rng.uniform(0, 2_000),
                    p_gpu=rng.uniform(0, 9_000),
                    p_mem=rng.uniform(0, 5_000),
                    p_sys=rng.uniform(0, 15_000),
                )
            )
            t += rng.randrange(5_000, 15_000)
        run = mk_run(samples)
        dts = sample_weights_oracle(run)
        rail = ("cpu", "gpu", "mem", "sys")[case % 4]
        attr = f"power_{rail}_mw"
        expected = rectangle_energy_oracle([getattr(s, attr) for s in rows(run.samples)], dts)
        assert abs(window_sums(run).energy_j[rail] - expected) <= 1e-9
        if n >= 4:
            ts = [s.t for s in rows(run.samples)]
            a, b, c = ts[0], ts[n // 2], ts[-1] + run.meta.sample_interval_us
            whole = window_sums(run, (a, c)).energy_j[rail]
            split = (window_sums(run, (a, b)).energy_j[rail]
                     + window_sums(run, (b, c)).energy_j[rail])
            assert abs(whole - split) <= 1e-9
    print("\nPASS criterion 3: energy matches the independent rectangle sum on 1000 "
          "random series within 1e-9 J, additively across sample-boundary splits")


# -- 4. throughput worked example -------------------------------------------------

def test_criterion_4_throughput_fixture(tmp_path, capsysbinary):
    spec = SynthSpec(
        steps=5,
        step_duration_us=200_000,
        batch_size=4,
        core_count=2,
        sample_interval_us=10_000,
        phases=(
            PhaseSpec(0.5, (0.5, 0.0), 1.0, 500.0, 4000.0, 2000.0, 7000.0, GB),
            PhaseSpec(0.5, (0.5, 0.0), 0.0, 500.0, 1000.0, 2000.0, 4000.0, GB),
        ),
        warmup_steps=0,
        run_id="densenet40-b4",
    )
    manifest = write_run(spec, tmp_path / "tp")
    doc = json.loads(_analyze_json(manifest, capsysbinary))
    assert doc["throughput_samples_per_sec"] == 20.0
    print("\nPASS criterion 4: five 200 ms steps at batch 4 -> exactly 20 samples/s")


# -- 5. paper-number fixtures -------------------------------------------------------

def _fixture_spec(batch, step_us, interval, duty=0.5, p_sys=5_000.0,
                  mem_hi=3 * GB, mem_lo=2 * GB, run_id=""):
    return SynthSpec(
        steps=5,
        step_duration_us=step_us,
        batch_size=batch,
        core_count=2,
        sample_interval_us=interval,
        phases=(
            PhaseSpec(duty, (0.25, 0.0), 0.875, 500.0, 4000.0, 2000.0, p_sys, mem_hi),
            PhaseSpec(1.0 - duty, (0.25, 0.0), 0.125, 500.0, 1000.0, 2000.0, p_sys, mem_lo),
        ),
        warmup_steps=0,
        run_id=run_id or f"b{batch}",
        device_mem_capacity_bytes=8 * GB,
    )


def _run_sweep(tmp_path, capsysbinary, name, entries, model):
    base = tmp_path / name
    base.mkdir()
    rel = []
    for i, (spec, breakdown) in enumerate(entries):
        write_run(spec, base / f"b{i}", memory_breakdown=breakdown)
        rel.append(f"b{i}/run.json")
    sweep_path = base / "sweep.json"
    sweep_path.write_text(json.dumps({"schema_version": 1, "model": model, "runs": rel}))
    rc = main(["sweep", str(sweep_path), "--format", "json"])
    out = capsysbinary.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_criterion_5_paper_number_fixtures(tmp_path, capsysbinary):
    # Deep-RL-like: 889 -> 13,618 samples/s gives a 15.3x speedup.
    rl = _run_sweep(
        tmp_path, capsysbinary, "rl",
        [
            (_fixture_spec(4, 4_500, 50), None),
            (_fixture_spec(64, 4_700, 50), None),
        ],
        model="deep-rl",
    )
    assert abs(rl["throughput_speedup"] - 15.3) <= 0.05

    # ResNet50-like: 9 -> 55 samples/s gives 6.1x.
    resnet = _run_sweep(
        tmp_path, capsysbinary, "resnet",
        [
            (_fixture_spec(4, 444_400, 200), None),
            (_fixture_spec(64, 1_163_600, 200), None),
        ],
        model="resnet50",
    )
    assert abs(resnet["throughput_speedup"] - 6.1) <= 0.05

    # Energy grows 2.2x while the batch grows 16x: sub-proportional scaling.
    energy_sweep = _run_sweep(
        tmp_path, capsysbinary, "energy",
        [
            (_fixture_spec(4, 100_000, 10_000), None),
            (_fixture_spec(64, 220_000, 10_000), None),
        ],
        model="densenet40",
    )
    assert energy_sweep["batch_ratio"] == 16.0
    assert energy_sweep["energy_scaling"] == pytest.approx(2.2, rel=REL_TOL)
    assert energy_sweep["energy_scaling_class"] == "sub_proportional"
    assert 2.2 <= round(energy_sweep["energy_scaling"], 6) <= 10.5

    # DenseNet-like feasibility: intermediate data 2.2 GB -> 5.9 GB, both fit in 8 GB.
    densenet = _run_sweep(
        tmp_path, capsysbinary, "densenet",
        [
            (
                _fixture_spec(4, 100_000, 10_000, mem_hi=int(3.5 * GB)),
                MemoryBreakdown(300_000_000, 300_000_000, 100_000_000, 2_200_000_000),
            ),
            (
                _fixture_spec(64, 200_000, 10_000, mem_hi=int(7.2 * GB)),
                MemoryBreakdown(300_000_000, 300_000_000, 200_000_000, 5_900_000_000),
            ),
        ],
        model="densenet40",
    )
    assert [v["verdict"] for v in densenet["feasibility"]] == ["fits", "fits"]
    assert densenet["mem_intermediate_growth"] == [2_200_000_000, 5_900_000_000]

    # VGG19-class peak above capacity cannot start training.
    vgg = _run_sweep(
        tmp_path, capsysbinary, "vgg",
        [
            (_fixture_spec(4, 100_000, 10_000, mem_hi=10 * GB), None),
            (_fixture_spec(64, 200_000, 10_000, mem_hi=12 * GB), None),
        ],
        model="vgg19",
    )
    assert [v["verdict"] for v in vgg["feasibility"]] == ["out_of_memory"] * 2
    print("\nPASS criterion 5: paper-number fixtures reproduce 15.3x / 6.1x speedups, "
          "2.2x sub-proportional energy, and the feasibility verdicts")


# -- 6. period detection --------------------------------------------------------------

def test_criterion_6_period_detection():
    periods = (10, 25, 50, 100, 250, 500)
    seeds_per_period = 4
    combos = 0
    for period in periods:
        for seed in range(seeds_per_period):
            rng = np.random.default_rng(seed * 1_000 + period)
            interval = 10_000
            duty_samples = int(rng.integers(2, period - 1))
            spec = SynthSpec(
                steps=6,
                step_duration_us=period * interval,
                batch_size=4,
                core_count=1,
                sample_interval_us=interval,
                phases=(
                    PhaseSpec(duty_samples / period, (0.5,),
                              float(rng.integers(700, 1025)) / 1024.0,
                              500.0, 4000.0, 2000.0, 7000.0, GB),
                    PhaseSpec((period - duty_samples) / period, (0.5,),
                              float(rng.integers(0, 300)) / 1024.0,
                              500.0, 1000.0, 2000.0, 4000.0, GB),
                ),
                warmup_steps=0,
                strip_step_ids=True,
                seed=seed,
            )
            meta, ops, samples, truth = generate(spec)
            run = validate_run(meta, ops, samples)
            estimate = detect_period(run)
            assert abs(estimate.period_us - truth.period_us) <= interval, (
                f"period {period}: got {estimate.period_us}"
            )
            assert estimate.confidence >= 0.9
            combos += 1
    assert combos >= 20

    rejected = 0
    n_noise = 20
    for seed in range(n_noise):
        spec = SynthSpec(
            steps=6,
            step_duration_us=100 * 10_000,
            batch_size=4,
            core_count=1,
            sample_interval_us=10_000,
            phases=(PhaseSpec(1.0, (0.5,), 0.5, 500.0, 4000.0, 2000.0, 7000.0, GB),),
            noise_amplitude=0.45,
            warmup_steps=0,
            strip_step_ids=True,
            seed=seed,
        )
        meta, ops, samples, _ = generate(spec)
        run = validate_run(meta, ops, samples)
        if detect_period(run).confidence < 0.5:
            rejected += 1
    assert rejected >= 0.95 * n_noise
    print(f"\nPASS criterion 6: {combos} periodic traces (10-500 samples) recovered "
          f"within one interval at confidence >= 0.9; "
          f"{rejected}/{n_noise} white-noise traces rejected")


# -- 7. predictability ------------------------------------------------------------------

def test_criterion_7_predictability():
    spec = SynthSpec(
        steps=6,
        step_duration_us=500_000,
        batch_size=4,
        core_count=1,
        sample_interval_us=10_000,
        phases=(
            PhaseSpec(0.6, (0.5,), 1.0, 500.0, 4000.0, 2000.0, 7000.0, GB),
            PhaseSpec(0.4, (0.5,), 0.0, 500.0, 1000.0, 2000.0, 4000.0, GB),
        ),
        warmup_steps=0,
    )
    meta, ops, samples, _ = generate(spec)
    run = validate_run(meta, ops, samples)
    score = predictability(run, resolve_steps(run))
    assert score.mean_pairwise_correlation == 1.0

    n_seeds = 20
    small = 0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        n_steps, per_step = 5, 100
        noise_samples = [
            mk_sample(t * 10_000, gpu=float(g))
            for t, g in enumerate(rng.uniform(0, 1, n_steps * per_step))
        ]
        noise_ops = [
            OpEvent("op", "GPU", s * 1_000_000, (s + 1) * 1_000_000, step_id=s)
            for s in range(n_steps)
        ]
        noise_run = mk_run(noise_samples, noise_ops)
        s = predictability(noise_run, resolve_steps(noise_run))
        if abs(s.mean_pairwise_correlation) < 0.2:
            small += 1
    assert small >= 0.95 * n_seeds
    print(f"\nPASS criterion 7: identical steps score exactly 1.0; "
          f"independent-noise steps stay below 0.2 in {small}/{n_seeds} seeds")


# -- 8. correlation oracles ----------------------------------------------------------------

def test_criterion_8_correlation_oracles():
    started = time.perf_counter()
    rng = random.Random(2024)
    for case in range(100):
        n_ops = rng.randrange(10, 1001)
        span = 50_000
        ops = []
        for i in range(n_ops):
            start = rng.randrange(span)
            ops.append(
                OpEvent(
                    f"op{i % 11}",
                    rng.choice(["CPU", "GPU"]),
                    start,
                    start + rng.randrange(1, 2_000),
                )
            )
        ts = sorted(rng.sample(range(span), 150))
        samples = [mk_sample(t) for t in ts]
        run = mk_run(samples, ops, interval=1)

        got = [a.op_indices for a in attribute_samples(run)]
        assert got == brute_force_attribution(rows(run.ops), rows(run.samples))

        for device in ("CPU", "GPU"):
            intervals = [(op.start, op.end) for op in rows(run.ops) if op.device == device]
            assert busy_time(run, device) == discretized_busy_oracle(intervals)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"100 oracle comparisons took {elapsed:.1f}s"
    print(f"\nPASS criterion 8: attribution and busy-time match brute-force/discretized "
          f"oracles on 100 random runs in {elapsed:.2f}s")


# -- 9. format stability ----------------------------------------------------------------------

def test_criterion_9_format_stability(tmp_path, capsysbinary):
    manifests = []
    for seed in (0, 17, 33):
        spec = random_spec(seed)
        manifests.append(write_run(spec, tmp_path / f"fx{seed}"))

    for manifest in manifests:
        first = _analyze_json(manifest, capsysbinary)
        second = _analyze_json(manifest, capsysbinary)
        assert first == second  # byte-identical across invocations
        assert first == dump_oracle(build_report(load_run(manifest)))  # the stdlib encoder's

    # Same stability for a sweep result document.
    rel = []
    for i, seed in enumerate((0, 17)):
        rel.append(f"../fx{seed}/run.json")
    sweep_path = tmp_path / "sweeps"
    sweep_path.mkdir()
    doc_path = sweep_path / "sweep.json"
    doc_path.write_text(json.dumps({"schema_version": 1, "model": "m", "runs": rel}))
    rc = main(["sweep", str(doc_path), "--format", "json"])
    first = capsysbinary.readouterr().out
    assert rc == 0
    rc = main(["sweep", str(doc_path), "--format", "json"])
    second = capsysbinary.readouterr().out
    assert rc == 0
    assert first == second
    runs = [load_run(manifest) for manifest in manifests[:2]]
    points = [SweepPoint(run.meta.batch_size, build_report(run)) for run in runs]
    result = build_sweep_result("m", points, runs[0].meta.device_mem_capacity_bytes)
    assert first == dump_oracle(result)
    print("\nPASS criterion 9: JSON reports are byte-identical across invocations and "
          "equal the stdlib encoder's bytes")


# -- 10. long noisy run ---------------------------------------------------------------------------

def _check_long_noisy_run(steps, per_step):
    """``steps`` x ``per_step`` samples at 5% noise against GroundTruth, with six-sigma bounds.

    The bounds are perfbench's. Every utilization and power stays far enough
    from its clamp that the noise never engages it, so each metric is an
    unbiased estimate of the ground truth.
    """
    amp, dt = 0.05, 1_000
    spec = SynthSpec(
        steps=steps,
        step_duration_us=per_step * dt,
        batch_size=8,
        core_count=4,
        sample_interval_us=dt,
        phases=(
            PhaseSpec(0.6, (0.5, 0.25, 0.75, 0.375), 0.625, 800.0, 6000.0, 2000.0, 9000.0, 3 * GB),
            PhaseSpec(0.4, (0.25, 0.5, 0.125, 0.625), 0.25, 400.0, 2000.0, 1500.0, 5000.0, 2 * GB),
        ),
        noise_amplitude=amp,
        seed=10,
        warmup_steps=3,
        warmup_mem_extra_bytes=GB,
    )
    started = time.perf_counter()
    meta, ops, samples, truth = generate(spec)
    report = build_report(validate_run(meta, ops, samples))
    elapsed = time.perf_counter() - started

    assert len(samples) == steps * per_step
    assert len(report.steps) == steps
    assert report.period.method == "explicit"
    assert report.period.period_us == truth.period_us
    assert report.peak_mem_bytes == truth.peak_mem_bytes == 4 * GB
    assert report.throughput_samples_per_sec == truth.throughput_samples_per_sec
    assert report.predictability.per_step_pairs == math.comb(steps - spec.warmup_steps, 2)

    # Uniform noise of amplitude a has standard deviation a / sqrt(3); the mean of
    # n independent draws has a / sqrt(3 n). Quantization adds at most half a grid step.
    six_sigma = 6.0 / math.sqrt(3.0) * amp
    n = (steps - spec.warmup_steps) * per_step
    util_tol = six_sigma / math.sqrt(n) + 0.5 / 1024
    for got, want in zip(report.per_core_util, truth.per_core_util, strict=True):
        assert abs(got - want) <= util_tol
    assert abs(report.gpu_util - truth.gpu_util) <= util_tol
    cpu_tol = six_sigma / math.sqrt(n * spec.core_count) + 0.5 / 1024
    assert abs(report.cpu_avg_util - truth.cpu_avg_util) <= cpu_tol
    assert report.idle_ratio_per_core == truth.idle_ratio_per_core == (0.0,) * spec.core_count
    counts = [round(p.duration_fraction * per_step) for p in spec.phases]
    for rail, want in truth.energy_by_rail_joules.items():
        powers = [getattr(p, f"power_{rail}_mw") for p in spec.phases]
        sigma_mw_us = dt * math.sqrt((steps - spec.warmup_steps)
                                     * sum(c * p**2 for c, p in zip(counts, powers)))
        tol = six_sigma * sigma_mw_us / 1e9 + 1e-9 * want
        assert abs(report.energy_by_rail_joules[rail] - want) <= tol
    print(f"\nPASS criterion 10: a {len(samples)}-sample noisy run matches GroundTruth within "
          f"six sigma (exact throughput, peak memory, period, steps) in {elapsed:.2f}s")


def test_criterion_10_long_noisy_run_matches_ground_truth():
    _check_long_noisy_run(steps=200, per_step=500)


def test_criterion_10_million_sample_run_matches_ground_truth():
    # 50 000 steps: predictability's C(49 997, 2) step pairs are summed, never stored.
    _check_long_noisy_run(steps=50_000, per_step=20)
