import json
import math
from dataclasses import replace

import pytest

from conftest import tables
from oracles import generate_oracle
from traceprof.errors import InvalidSpec
from traceprof.ingest import to_doc, write_op_trace, write_telemetry
from traceprof.metrics import build_report
from traceprof.model import Device, OpTable, SampleTable, validate_run
from traceprof.synth import (
    PhaseSpec,
    SynthSpec,
    generate,
    random_spec,
    spec_from_dict,
    write_run,
)

GB = 1_000_000_000


def _two_phase_spec(**kw):
    defaults = dict(
        steps=5,
        step_duration_us=500_000,
        batch_size=4,
        core_count=2,
        sample_interval_us=10_000,
        phases=(
            PhaseSpec(0.6, (0.5, 0.0), 1.0, 500, 4000, 2000, 7000, 2 * GB),
            PhaseSpec(0.4, (0.5, 0.0), 0.0, 500, 1000, 2000, 4000, GB),
        ),
        warmup_steps=2,
    )
    defaults.update(kw)
    return SynthSpec(**defaults)


def test_two_phase_gpu_utilization_closed_form():
    _, _, _, truth = generate(_two_phase_spec())
    assert truth.gpu_util == 0.6


def test_zero_noise_report_equals_ground_truth():
    spec = _two_phase_spec()
    meta, ops, samples, truth = generate(spec)
    run = validate_run(meta, ops, samples)
    report = build_report(run)
    assert report.gpu_util == pytest.approx(truth.gpu_util, rel=1e-9)
    assert report.per_core_util == pytest.approx(truth.per_core_util, rel=1e-9)
    assert report.cpu_avg_util == pytest.approx(truth.cpu_avg_util, rel=1e-9)
    for c in range(spec.core_count):
        assert report.idle_ratio_per_core[c] == pytest.approx(
            truth.idle_ratio_per_core[c], rel=1e-9, abs=1e-12
        )
    for rail in ("cpu", "gpu", "mem", "sys"):
        assert report.energy_by_rail_joules[rail] == pytest.approx(
            truth.energy_by_rail_joules[rail], rel=1e-9
        )
    assert report.peak_mem_bytes == truth.peak_mem_bytes
    assert report.throughput_samples_per_sec == pytest.approx(
        truth.throughput_samples_per_sec, rel=1e-9
    )
    assert report.period.period_us == truth.period_us


def test_same_seed_gives_identical_bytes(tmp_path):
    spec = random_spec(21, noise_amplitude=0.1)
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_run(spec, a)
    write_run(spec, b)
    for name in ("ops.jsonl", "telemetry.csv", "run.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generated_traces_always_validate():
    for seed in range(25):
        meta, ops, samples, _ = generate(random_spec(seed, noise_amplitude=0.2))
        validate_run(meta, ops, samples)  # must not raise


def test_warmup_memory_spike_shows_in_peak_only():
    spec = _two_phase_spec(warmup_mem_extra_bytes=3 * GB)
    meta, ops, samples, truth = generate(spec)
    run = validate_run(meta, ops, samples)
    report = build_report(run)
    assert truth.peak_mem_bytes == 5 * GB
    assert report.peak_mem_bytes == 5 * GB
    # Warmup exclusion keeps utilization/energy at the steady-state values.
    assert report.gpu_util == pytest.approx(0.6, rel=1e-9)


def test_noise_converges_to_ground_truth():
    amp = 0.1

    def mean_abs_error(samples_per_phase):
        errors = []
        for seed in range(20):
            spec = SynthSpec(
                steps=4,
                step_duration_us=samples_per_phase * 2 * 1_000,
                batch_size=4,
                core_count=1,
                sample_interval_us=1_000,
                phases=(
                    # Mid-range values keep clamping (and hence bias) away.
                    PhaseSpec(0.5, (0.5,), 0.6, 1000, 4000, 2000, 7000, GB),
                    PhaseSpec(0.5, (0.4,), 0.3, 1000, 2000, 2000, 5000, GB),
                ),
                noise_amplitude=amp,
                seed=seed,
                warmup_steps=0,
            )
            meta, ops, samples, truth = generate(spec)
            run = validate_run(meta, ops, samples)
            report = build_report(run)
            errors.append(abs(report.gpu_util - truth.gpu_util))
            errors.append(abs(report.cpu_avg_util - truth.cpu_avg_util))
            sys_err = abs(
                report.energy_by_rail_joules["sys"] / truth.energy_by_rail_joules["sys"] - 1.0
            )
            errors.append(sys_err)
        return sum(errors) / len(errors)

    coarse = mean_abs_error(samples_per_phase=25)
    fine = mean_abs_error(samples_per_phase=400)
    assert fine < coarse
    # Uniform noise of amplitude a has std a/sqrt(3); the mean over n samples
    # concentrates as 1/sqrt(n). Allow a generous 6-sigma envelope.
    assert fine < 6 * amp / math.sqrt(3 * 800)


def test_invalid_specs_rejected():
    good = _two_phase_spec()
    with pytest.raises(InvalidSpec):
        generate(SynthSpec(**{**_kw(good), "steps": 0}))
    with pytest.raises(InvalidSpec):
        # Step duration not on the sampling grid.
        generate(SynthSpec(**{**_kw(good), "step_duration_us": 505_001}))
    with pytest.raises(InvalidSpec):
        # Fractions do not sum to 1.
        bad = (
            PhaseSpec(0.6, (0.5, 0.0), 1.0, 500, 4000, 2000, 7000, GB),
            PhaseSpec(0.6, (0.5, 0.0), 0.0, 500, 1000, 2000, 4000, GB),
        )
        generate(SynthSpec(**{**_kw(good), "phases": bad}))
    with pytest.raises(InvalidSpec):
        # Phase boundary falls between samples.
        bad = (
            PhaseSpec(0.611, (0.5, 0.0), 1.0, 500, 4000, 2000, 7000, GB),
            PhaseSpec(0.389, (0.5, 0.0), 0.0, 500, 1000, 2000, 4000, GB),
        )
        generate(SynthSpec(**{**_kw(good), "phases": bad}))
    with pytest.raises(InvalidSpec):
        bad = (PhaseSpec(1.0, (0.5, 0.0), 1.0, -5.0, 4000, 2000, 7000, GB),)
        generate(SynthSpec(**{**_kw(good), "phases": bad}))


def _kw(spec):
    return {
        "steps": spec.steps,
        "step_duration_us": spec.step_duration_us,
        "batch_size": spec.batch_size,
        "core_count": spec.core_count,
        "sample_interval_us": spec.sample_interval_us,
        "phases": spec.phases,
        "noise_amplitude": spec.noise_amplitude,
        "seed": spec.seed,
        "warmup_steps": spec.warmup_steps,
    }


def test_spec_dict_round_trip():
    spec = _two_phase_spec()
    assert spec_from_dict(to_doc(spec)) == spec
    for seed in range(6):
        spec = random_spec(seed, noise_amplitude=0.05 * (seed % 2))
        assert spec_from_dict(json.loads(json.dumps(to_doc(spec)))) == spec


def test_strip_step_ids_removes_labels():
    meta, ops, _, _ = generate(_two_phase_spec(strip_step_ids=True))
    assert all(op.step_id is None for op in ops)
    assert ops[0].device is Device.GPU


def test_generate_matches_the_per_sample_oracle():
    specs = [
        replace(random_spec(seed, noise_amplitude=noise), strip_step_ids=strip)
        for seed in range(30) for noise in (0.0, 0.05, 0.2, 0.45) for strip in (False, True)
    ]
    # Zero utilizations, a zero and a -0.0 power rail under full-scale noise: the
    # cells where a clamp can produce -0.0, which equals 0.0 but is written "-0.0".
    specs.append(_two_phase_spec(
        phases=(
            PhaseSpec(0.6, (0.0, 1.0), 0.0, 0.0, -0.0, 2000, 7000, 2 * GB),
            PhaseSpec(0.4, (1.0, 0.0), 1.0, 500, 0.0, 2000, 4000, GB),
        ),
        noise_amplitude=1.0,
        seed=3,
    ))
    for spec in specs:
        meta, ops, samples, truth = generate(spec)
        want_meta, want_ops, want_samples, want_truth = generate_oracle(spec)
        assert isinstance(ops, OpTable) and isinstance(samples, SampleTable)
        assert (meta, truth) == (want_meta, want_truth)
        # Bytes, not values: -0.0 == 0.0.
        assert write_op_trace(ops) == write_op_trace(tables(want_ops, [])[0])
        assert write_telemetry(samples) == write_telemetry(want_samples)
