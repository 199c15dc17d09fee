"""Generates synthetic run traces with analytically known metrics.

Each step repeats the same sequence of phases (busy cycles alternating with
less busy ones). Phase boundaries must land on the sampling grid so every
closed-form expectation in :class:`GroundTruth` is exact for the noiseless
profile. Noise is uniform, clamped to valid ranges and applied after the
profile, so metrics stay unbiased estimators of the ground truth as long as
clamping never engages.

A run is built as the columns the parser fills, with no loop per op or per
sample. Op ``k`` is phase ``k % P`` of step ``k // P`` and covers the next
``count`` grid samples, so a cumulative sum of the counts gives every op's
start and end; sample ``i`` is at ``i * sample_interval_us``. Noise is one
``uniform(-a, a)`` draw shaped like the ``(samples, cores + 5)`` values, which
in row order is the stream of one draw per cell.

Utilization values are quantized to multiples of 1/1024 because the
telemetry wire format stores percent: dyadic fractions survive the
fraction -> percent -> fraction round trip bit-exactly.
"""

from __future__ import annotations

from math import fsum, inf, isfinite
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .errors import InvalidSpec
from .ingest import (
    RunManifest,
    SchemaError,
    from_doc,
    op_trace_chunks,
    telemetry_chunks,
    write_manifest,
)
from .model import DEVICES, RAILS, Device, MemoryBreakdown, OpTable, RunMeta, SampleTable, _check_meta

_UTIL_GRID = 1024.0


def quantize_util(value: np.ndarray | float) -> np.ndarray | float:
    """Snap utilization fractions (an array or a scalar) to the 1/1024 grid used on the wire.

    ``np.round`` rounds half to even, as ``round`` does. Adding ``0.0`` turns a
    ``-0.0`` into ``0.0``, as ``max(0.0, x)`` does, whichever zero ``np.maximum`` keeps.
    """
    return np.minimum(np.maximum(np.round(value * _UTIL_GRID) / _UTIL_GRID, 0.0), 1.0) + 0.0


class PhaseSpec(NamedTuple):
    """One phase of a step: constant utilization, power and memory profile."""

    duration_fraction: float
    cpu_core_util: tuple[float, ...]
    gpu_util: float
    power_cpu_mw: float
    power_gpu_mw: float
    power_mem_mw: float
    power_sys_mw: float
    mem_bytes: int
    op_name: str = ""
    op_device: Device = "GPU"


class SynthSpec(NamedTuple):
    steps: int
    step_duration_us: int
    batch_size: int
    core_count: int
    sample_interval_us: int
    phases: tuple[PhaseSpec, ...]
    noise_amplitude: float = 0.0
    seed: int = 0
    warmup_steps: int = 3
    device_mem_capacity_bytes: int = 8 * 1024**3
    warmup_mem_extra_bytes: int = 0
    strip_step_ids: bool = False
    run_id: str = "synth"


class GroundTruth(NamedTuple):
    """Closed-form expected metrics for a spec's noiseless profile."""

    per_core_util: tuple[float, ...]
    cpu_avg_util: float
    gpu_util: float
    idle_ratio_per_core: tuple[float, ...]
    energy_per_step_joules: dict[str, float]
    energy_by_rail_joules: dict[str, float]
    peak_mem_bytes: int
    throughput_samples_per_sec: float
    period_us: int


_RAIL_FIELDS = {rail: f"power_{rail}_mw" for rail in RAILS}


def _phase_sample_counts(spec: SynthSpec) -> list[int]:
    if spec.steps < 1:
        raise InvalidSpec("steps must be >= 1")
    if spec.warmup_steps > spec.steps:  # equal is a run that is all warmup
        raise InvalidSpec(f"warmup_steps must be <= steps ({spec.steps}), got {spec.warmup_steps}")
    if not 0 < spec.steps * spec.step_duration_us < 2**63:
        raise InvalidSpec("steps * step_duration_us must be in [1, 2**63)")
    if spec.step_duration_us % spec.sample_interval_us != 0:
        raise InvalidSpec("step_duration_us must be a multiple of sample_interval_us")
    if not spec.phases:
        raise InvalidSpec("at least one phase is required")
    fractions = [p.duration_fraction for p in spec.phases]
    if not all(map(isfinite, fractions)) or not abs(fsum(fractions) - 1.0) <= 1e-9:
        raise InvalidSpec("phase duration fractions must sum to 1")
    if not 0.0 <= spec.noise_amplitude <= 1.0:
        raise InvalidSpec("noise_amplitude must be in [0, 1]")
    if spec.seed < 0:
        raise InvalidSpec("seed must be >= 0")
    samples_per_step = spec.step_duration_us // spec.sample_interval_us
    warmup_extra = spec.warmup_mem_extra_bytes if spec.warmup_steps > 0 else 0
    counts = []
    for i, phase in enumerate(spec.phases):
        if phase.op_device not in DEVICES:
            raise InvalidSpec(f"phase {i} op_device must be one of {list(DEVICES)}, "
                              f"got {phase.op_device!r}")
        if len(phase.cpu_core_util) != spec.core_count:
            raise InvalidSpec(f"phase {i} declares {len(phase.cpu_core_util)} cores, "
                              f"spec has {spec.core_count}")
        for u in (*phase.cpu_core_util, phase.gpu_util):
            if not 0.0 <= u <= 1.0:
                raise InvalidSpec(f"phase {i} utilization {u} outside [0, 1]")
        for rail, field in _RAIL_FIELDS.items():
            if not 0 <= getattr(phase, field) * (1.0 + spec.noise_amplitude) < inf:
                raise InvalidSpec(f"phase {i} {rail} power must be finite and >= 0, noise included")
        if not all(0 <= mem < 2**63 for mem in (phase.mem_bytes, phase.mem_bytes + warmup_extra)):
            raise InvalidSpec(f"phase {i} memory must be in [0, 2**63) bytes, warmup steps included")
        exact = phase.duration_fraction * samples_per_step
        count = round(exact)
        if count < 1 or abs(exact - count) > 1e-6:
            raise InvalidSpec(
                f"phase {i} duration fraction {phase.duration_fraction} does not align "
                f"with the sampling grid ({samples_per_step} samples per step)"
            )
        counts.append(count)
    if sum(counts) != samples_per_step:
        raise InvalidSpec("phase sample counts do not cover the step exactly")
    return counts


def _quantized_phases(spec: SynthSpec) -> tuple[PhaseSpec, ...]:
    return tuple(
        p._replace(
            cpu_core_util=tuple(quantize_util(np.array(p.cpu_core_util)).tolist()),
            gpu_util=float(quantize_util(p.gpu_util)),
        )
        for p in spec.phases
    )


def _ground_truth(spec: SynthSpec, phases: tuple[PhaseSpec, ...], counts: list[int]) -> GroundTruth:
    samples_per_step = sum(counts)
    dt = spec.sample_interval_us
    fractions = [c / samples_per_step for c in counts]

    per_core = tuple(
        fsum(f * p.cpu_core_util[c] for f, p in zip(fractions, phases))
        for c in range(spec.core_count)
    )
    idle = tuple(
        fsum(f for f, p in zip(fractions, phases) if p.cpu_core_util[c] == 0.0)
        for c in range(spec.core_count)
    )
    non_warmup = spec.steps - spec.warmup_steps
    energy_step = {
        rail: fsum(c * dt * getattr(p, field) for c, p in zip(counts, phases)) / 1e9
        for rail, field in _RAIL_FIELDS.items()
    }
    energy_total = {
        rail: fsum(
            non_warmup * c * dt * getattr(p, field) for c, p in zip(counts, phases)
        )
        / 1e9
        for rail, field in _RAIL_FIELDS.items()
    }
    peak = max(p.mem_bytes for p in phases)
    if spec.warmup_steps > 0:
        peak = max(peak, max(p.mem_bytes for p in phases) + spec.warmup_mem_extra_bytes)
    throughput = (
        (spec.batch_size * non_warmup * 1_000_000) / (non_warmup * spec.step_duration_us)
        if non_warmup > 0
        else float("nan")
    )
    return GroundTruth(
        per_core_util=per_core,
        cpu_avg_util=fsum(per_core) / len(per_core),
        gpu_util=fsum(f * p.gpu_util for f, p in zip(fractions, phases)),
        idle_ratio_per_core=idle,
        energy_per_step_joules=energy_step,
        energy_by_rail_joules=energy_total,
        peak_mem_bytes=peak,
        throughput_samples_per_sec=throughput,
        period_us=spec.step_duration_us,
    )


def generate(spec: SynthSpec) -> tuple[RunMeta, OpTable, SampleTable, GroundTruth]:
    """Produce (meta, ops, samples, ground truth) for a spec, or raise InvalidSpec.

    Deterministic for a given seed. Ops are emitted one per phase per step
    with explicit step ids unless ``strip_step_ids`` is set (which exercises
    period inference downstream).
    """
    meta = RunMeta(**{name: getattr(spec, name) for name in RunMeta._fields})
    issues = []
    _check_meta(meta, issues)
    if issues:
        raise InvalidSpec("; ".join(issue.message for issue in issues))
    counts = _phase_sample_counts(spec)
    phases = _quantized_phases(spec)
    truth = _ground_truth(spec, phases, counts)

    op_phase = np.tile(np.arange(len(phases)), spec.steps)
    per_op = np.array(counts)[op_phase]
    bounds = np.cumsum(np.r_[0, per_op]) * spec.sample_interval_us
    device = np.array([DEVICES.index(p.op_device) for p in phases], np.int8)
    labels = [p.op_name or f"phase{k}" for k, p in enumerate(phases)]
    names = tuple(dict.fromkeys(labels))
    name = np.array([names.index(label) for label in labels], np.int32)
    has_step = np.full(len(op_phase), not spec.strip_step_ids)
    step = np.where(has_step, np.repeat(np.arange(spec.steps), len(phases)), 0)
    ops = OpTable(bounds[:-1], bounds[1:], device[op_phase], step, has_step, name[op_phase],
                  np.zeros(len(op_phase), np.int32), names, (None,))

    sample_phase = np.repeat(op_phase, per_op)
    profile = [[*p.cpu_core_util, p.gpu_util, *(getattr(p, f) for f in _RAIL_FIELDS.values())]
               for p in phases]
    values = np.array(profile, np.float64)[sample_phase]
    amp = spec.noise_amplitude
    if amp > 0.0:
        noise = np.random.default_rng(spec.seed).uniform(-amp, amp, values.shape)
        utils = spec.core_count + 1
        values[:, :utils] = quantize_util(values[:, :utils] + noise[:, :utils])
        values[:, utils:] = np.maximum(values[:, utils:] * (1.0 + noise[:, utils:]), 0.0) + 0.0
    mem = np.array([p.mem_bytes for p in phases], np.int64)[sample_phase]
    if spec.warmup_steps > 0:
        mem[: spec.warmup_steps * sum(counts)] += spec.warmup_mem_extra_bytes
    t = np.arange(len(sample_phase), dtype=np.int64) * spec.sample_interval_us
    return meta, ops, SampleTable(t, values, mem), truth


def write_run(
    spec: SynthSpec,
    out_dir: Path | str,
    memory_breakdown: MemoryBreakdown | None = None,
) -> Path:
    """Write a complete run (op trace, telemetry, manifest); returns manifest path."""
    meta, ops, samples, _ = generate(spec)  # before mkdir: an invalid spec leaves no directory
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # One piece at a time: the whole file as one bytes object would double the peak.
    with open(out_dir / "ops.jsonl", "wb") as f:
        f.writelines(op_trace_chunks(ops))
    with open(out_dir / "telemetry.csv", "wb") as f:
        f.writelines(telemetry_chunks(samples))
    manifest = RunManifest(
        meta=meta,
        op_trace_path="ops.jsonl",
        telemetry_path="telemetry.csv",
        memory_breakdown=memory_breakdown,
    )
    manifest_path = out_dir / "run.json"
    manifest_path.write_bytes(write_manifest(manifest))
    return manifest_path


def random_spec(seed: int, *, noise_amplitude: float = 0.0) -> SynthSpec:
    """A randomized valid spec; phase values land on the exactness grids."""
    if seed < 0:
        raise InvalidSpec("seed must be >= 0")
    rng = np.random.default_rng(seed)
    core_count = int(rng.integers(2, 7))
    interval = int(rng.choice([1_000, 5_000, 10_000]))
    steps = int(rng.integers(5, 9))
    warmup = int(rng.integers(0, min(3, steps - 2) + 1))
    n_phases = int(rng.integers(2, 5))
    # Partition the step into per-phase sample counts, each at least 2.
    phase_counts = [int(rng.integers(2, 13)) for _ in range(n_phases)]
    samples_per_step = sum(phase_counts)
    step_duration = samples_per_step * interval

    phases = []
    for k, count in enumerate(phase_counts):
        cores = tuple(
            0.0 if rng.random() < 0.3 else float(rng.integers(0, 1025)) / 1024.0
            for _ in range(core_count)
        )
        phases.append(
            PhaseSpec(
                duration_fraction=count / samples_per_step,
                cpu_core_util=cores,
                gpu_util=float(rng.integers(0, 1025)) / 1024.0,
                power_cpu_mw=float(rng.integers(100, 3_000)),
                power_gpu_mw=float(rng.integers(500, 9_000)),
                power_mem_mw=float(rng.integers(200, 5_000)),
                power_sys_mw=float(rng.integers(1_000, 15_000)),
                mem_bytes=int(rng.integers(500_000_000, 7_000_000_000)),
                op_device="GPU" if k % 2 == 0 else "CPU",
            )
        )
    return SynthSpec(
        steps=steps,
        step_duration_us=step_duration,
        batch_size=int(2 ** rng.integers(0, 7)),
        core_count=core_count,
        sample_interval_us=interval,
        phases=tuple(phases),
        noise_amplitude=noise_amplitude,
        seed=seed,
        warmup_steps=warmup,
        run_id=f"synth-{seed}",
    )


def spec_from_dict(doc: dict[str, Any]) -> SynthSpec:
    try:
        return from_doc(SynthSpec, doc, "spec")
    except SchemaError as exc:
        raise InvalidSpec(f"bad synth spec document: {exc}")
