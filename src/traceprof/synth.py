"""Generates synthetic run traces with analytically known metrics.

Each step repeats the same sequence of phases (busy cycles alternating with
less busy ones). Phase boundaries must land on the sampling grid so every
closed-form expectation in :class:`GroundTruth` is exact for the noiseless
profile. Noise is uniform, clamped to valid ranges and applied after the
profile, so metrics stay unbiased estimators of the ground truth as long as
clamping never engages.

Utilization values are quantized to multiples of 1/1024 because the
telemetry wire format stores percent: dyadic fractions survive the
fraction -> percent -> fraction round trip bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import fsum
from pathlib import Path
from typing import Any

import numpy as np

from .errors import InvalidSpec
from .ingest import (
    RunManifest,
    SchemaError,
    from_doc,
    to_doc,
    write_manifest,
    write_op_trace,
    write_telemetry,
)
from .model import RAILS, Device, MemoryBreakdown, OpEvent, RunMeta, SampleTable

_UTIL_GRID = 1024.0


def quantize_util(value: float) -> float:
    """Snap a utilization fraction to the 1/1024 grid used on the wire."""
    return min(1.0, max(0.0, round(value * _UTIL_GRID) / _UTIL_GRID))


@dataclass(frozen=True)
class PhaseSpec:
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
    op_device: Device = Device.GPU


@dataclass(frozen=True)
class SynthSpec:
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


@dataclass(frozen=True)
class GroundTruth:
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
    if spec.sample_interval_us <= 0 or spec.step_duration_us <= 0:
        raise InvalidSpec("step duration and sample interval must be positive")
    if spec.step_duration_us % spec.sample_interval_us != 0:
        raise InvalidSpec("step_duration_us must be a multiple of sample_interval_us")
    if not spec.phases:
        raise InvalidSpec("at least one phase is required")
    if abs(fsum(p.duration_fraction for p in spec.phases) - 1.0) > 1e-9:
        raise InvalidSpec("phase duration fractions must sum to 1")
    if not 0.0 <= spec.noise_amplitude <= 1.0:
        raise InvalidSpec("noise_amplitude must be in [0, 1]")
    samples_per_step = spec.step_duration_us // spec.sample_interval_us
    counts = []
    for i, phase in enumerate(spec.phases):
        if len(phase.cpu_core_util) != spec.core_count:
            raise InvalidSpec(f"phase {i} declares {len(phase.cpu_core_util)} cores, "
                              f"spec has {spec.core_count}")
        for u in (*phase.cpu_core_util, phase.gpu_util):
            if not 0.0 <= u <= 1.0:
                raise InvalidSpec(f"phase {i} utilization {u} outside [0, 1]")
        for rail, field in _RAIL_FIELDS.items():
            if getattr(phase, field) < 0:
                raise InvalidSpec(f"phase {i} has negative {rail} power")
        if phase.mem_bytes < 0:
            raise InvalidSpec(f"phase {i} has negative mem_bytes")
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
        replace(
            p,
            cpu_core_util=tuple(quantize_util(u) for u in p.cpu_core_util),
            gpu_util=quantize_util(p.gpu_util),
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


def generate(spec: SynthSpec) -> tuple[RunMeta, list[OpEvent], SampleTable, GroundTruth]:
    """Produce (meta, ops, samples, ground truth) for a spec.

    Deterministic for a given seed. Ops are emitted one per phase per step
    with explicit step ids unless ``strip_step_ids`` is set (which exercises
    period inference downstream).
    """
    counts = _phase_sample_counts(spec)
    phases = _quantized_phases(spec)
    truth = _ground_truth(spec, phases, counts)

    rng = np.random.default_rng(spec.seed)
    amp = spec.noise_amplitude
    dt = spec.sample_interval_us
    meta = RunMeta(
        run_id=spec.run_id,
        batch_size=spec.batch_size,
        core_count=spec.core_count,
        device_mem_capacity_bytes=spec.device_mem_capacity_bytes,
        sample_interval_us=dt,
        warmup_steps=spec.warmup_steps,
    )

    ops: list[OpEvent] = []
    t_col, rows, mem_col = [], [], []
    for step in range(spec.steps):
        step_start = step * spec.step_duration_us
        offset = 0
        for k, (phase, count) in enumerate(zip(phases, counts)):
            phase_start = step_start + offset * dt
            phase_end = phase_start + count * dt
            ops.append(
                OpEvent(
                    op_name=phase.op_name or f"phase{k}",
                    device=phase.op_device,
                    start=phase_start,
                    end=phase_end,
                    step_id=None if spec.strip_step_ids else step,
                )
            )
            mem = phase.mem_bytes
            if step < spec.warmup_steps:
                mem += spec.warmup_mem_extra_bytes
            powers = [getattr(phase, field) for field in _RAIL_FIELDS.values()]
            for j in range(count):
                t_col.append(phase_start + j * dt)
                if amp > 0.0:
                    cores = [quantize_util(u + rng.uniform(-amp, amp)) for u in phase.cpu_core_util]
                    gpu = quantize_util(phase.gpu_util + rng.uniform(-amp, amp))
                    rows.append([*cores, gpu,
                                 *(max(0.0, p * (1.0 + rng.uniform(-amp, amp))) for p in powers)])
                else:
                    rows.append([*phase.cpu_core_util, phase.gpu_util, *powers])
                mem_col.append(mem)
            offset += count
    samples = SampleTable(np.array(t_col, np.int64), np.array(rows, np.float64),
                          np.array(mem_col, np.int64))
    return meta, ops, samples, truth


def write_run(
    spec: SynthSpec,
    out_dir: Path | str,
    memory_breakdown: MemoryBreakdown | None = None,
) -> Path:
    """Write a complete run (op trace, telemetry, manifest); returns manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta, ops, samples, _ = generate(spec)
    (out_dir / "ops.jsonl").write_bytes(write_op_trace(ops))
    (out_dir / "telemetry.csv").write_bytes(write_telemetry(samples, meta.core_count))
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
                op_device=Device.GPU if k % 2 == 0 else Device.CPU,
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


def spec_to_dict(spec: SynthSpec) -> dict[str, Any]:
    return to_doc(spec)


def spec_from_dict(doc: dict[str, Any]) -> SynthSpec:
    try:
        return from_doc(SynthSpec, doc, "spec")
    except SchemaError as exc:
        raise InvalidSpec(f"bad synth spec document: {exc}")
