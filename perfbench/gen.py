#!/usr/bin/env python3
"""Seeded input generator for the traceprof benchmark.

Writes the op traces (JSONL), telemetry (CSV) and run or sweep manifests of
one workload, plus ``expected.json``: the report values that follow in closed
form from the generator's own parameters. It uses numpy and the standard
library only, never traceprof, so a change to traceprof's writers or to its
synthetic generator cannot change the bytes the benchmark reads.

Every run is labelled: step i spans exactly [t0 + i*D, t0 + (i+1)*D), samples
sit on the grid t0 + j*dt, and every step holds the same phase profile.
Utilization noise is uniform in [-a, a] and added only to non-zero
utilizations, whose bases keep a margin of a + 1/1024 from 0 and 1 so that no
value is ever clamped; power noise is a uniform relative factor 1 + U(-a, a).
Tolerances are six standard deviations of the noise term plus half a step
of the 1/1024 utilization grid, so a correct report fails a check with
negligible probability.

Usage: python3 perfbench/gen.py --workload long-run --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NOISE = 0.05
RAILS = ("cpu", "gpu", "mem", "sys")
GB = 1_000_000_000
_GRID = 1024
_PCT = [repr(k * 100 / _GRID) for k in range(_GRID + 1)]  # percent cell per grid step
_SIX_SIGMA = 6.0 / math.sqrt(3.0)  # six standard deviations of U(-1, 1)


@dataclass(frozen=True)
class Phase:
    name: str
    device: str
    count: int  # samples per step
    cores: tuple[float, ...]
    gpu: float
    power_mw: tuple[float, float, float, float]  # cpu, gpu, mem, sys
    mem_bytes: int


@dataclass(frozen=True)
class Profile:
    run_id: str
    batch_size: int
    core_count: int
    interval_us: int
    steps: int
    warmup_steps: int
    phases: tuple[Phase, ...]
    warmup_mem_extra_bytes: int
    capacity_bytes: int
    breakdown: dict | None

    @property
    def per_step(self) -> int:
        return sum(p.count for p in self.phases)

    @property
    def step_us(self) -> int:
        return self.per_step * self.interval_us


def _grid(u: float) -> int:
    k = round(u * _GRID)
    if k and not NOISE + 1 / _GRID <= k / _GRID <= 1 - NOISE - 1 / _GRID:
        raise ValueError(f"base utilization {u} leaves no room for noise {NOISE}")
    return k


# --------------------------------------------------------------------------
# Telemetry
# --------------------------------------------------------------------------


def _telemetry(prof: Profile, t0: int, rng: np.random.Generator) -> bytes:
    """Noisy samples of the phase profile, one CSV row per sample."""
    phase_of = np.repeat(np.arange(len(prof.phases)), [p.count for p in prof.phases])
    idx = np.tile(phase_of, prof.steps)
    n = idx.size
    util_base = np.array([[_grid(u) for u in (*p.cores, p.gpu)] for p in prof.phases])[idx]
    noise = rng.uniform(-NOISE, NOISE, size=util_base.shape)
    util = np.where(util_base > 0, np.rint(util_base + noise * _GRID), 0).astype(np.int64)
    power_base = np.array([p.power_mw for p in prof.phases], dtype=float)[idx]
    power = power_base * (1.0 + rng.uniform(-NOISE, NOISE, size=power_base.shape))
    mem = np.array([p.mem_bytes for p in prof.phases], dtype=np.int64)[idx]
    mem[: prof.warmup_steps * prof.per_step] += prof.warmup_mem_extra_bytes
    t = t0 + prof.interval_us * np.arange(n, dtype=np.int64)

    header = ["t_us", *(f"c{c}" for c in range(prof.core_count)),
              "gpu", "p_cpu_mw", "p_gpu_mw", "p_mem_mw", "p_sys_mw", "mem_bytes"]
    lines = [",".join(header)]
    for ti, urow, prow, m in zip(t.tolist(), util.tolist(), power.tolist(), mem.tolist()):
        cells = [str(ti)]
        cells.extend(_PCT[k] for k in urow)
        cells.extend(repr(p) for p in prow)
        cells.append(str(m))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _util_expectation(prof: Profile, steps: int) -> dict:
    """Expected utilizations over `steps` whole steps, each with its tolerance."""
    total = steps * prof.per_step
    counts = [p.count for p in prof.phases]
    expected, noisy = [], []
    for col in zip(*((*p.cores, p.gpu) for p in prof.phases)):  # cores, then gpu
        grid = [_grid(u) for u in col]
        expected.append(sum(c * k for c, k in zip(counts, grid)) / (prof.per_step * _GRID))
        noisy.append(steps * sum(c for c, k in zip(counts, grid) if k))

    def tol(noisy_samples: int, denominator: int) -> float:
        if noisy_samples == 0:
            return 0.0
        return _SIX_SIGMA * NOISE * math.sqrt(noisy_samples) / denominator + 0.5 / _GRID

    cores = prof.core_count
    return {
        "per_core_util": [[expected[c], tol(noisy[c], total)] for c in range(cores)],
        "cpu_avg_util": [sum(expected[:cores]) / cores, tol(sum(noisy[:cores]), total * cores)],
        "gpu_util": [expected[cores], tol(noisy[cores], total)],
        "idle_ratio_per_core": [
            (steps * sum(p.count for p in prof.phases if _grid(p.cores[c]) == 0)) / total
            for c in range(cores)
        ],
    }


def _power_expectation(prof: Profile, steps: int) -> dict:
    """Expected rectangle-rule energy and mean power per rail over `steps` steps."""
    dt = prof.interval_us
    total_us = steps * prof.step_us
    energy, mean_mw = {}, {}
    for r, rail in enumerate(RAILS):
        mw_us = steps * sum(p.count * dt * p.power_mw[r] for p in prof.phases)
        sigma = dt * math.sqrt(steps * sum(p.count * p.power_mw[r] ** 2 for p in prof.phases))
        tol = _SIX_SIGMA * NOISE * sigma
        energy[rail] = [mw_us / 1e9, (tol + 1e-9 * mw_us) / 1e9]
        mean_mw[rail] = [mw_us / total_us, (tol + 1e-9 * mw_us) / total_us]
    return {"energy_by_rail_joules": energy, "rail_mean_mw": mean_mw}


# --------------------------------------------------------------------------
# Op traces
# --------------------------------------------------------------------------


@dataclass
class Ops:
    """Op records as parallel columns; `step` is the label written to the trace."""

    name: list[str]
    device: list[str]
    step: list[int]
    start: list[int]
    end: list[int]
    layer: list[str | None]

    @classmethod
    def empty(cls) -> "Ops":
        return cls([], [], [], [], [], [])

    def add(self, name, device, step, start, end, layer=None) -> None:
        self.name.append(name)
        self.device.append(device)
        self.step.append(step)
        self.start.append(int(start))
        self.end.append(int(end))
        self.layer.append(layer)

    def jsonl(self) -> bytes:
        lines = []
        for name, dev, step, s, e, layer in zip(
            self.name, self.device, self.step, self.start, self.end, self.layer
        ):
            extra = "" if layer is None else f', "layer": "{layer}"'
            lines.append(
                f'{{"op": "{name}", "device": "{dev}", "step": {step}, '
                f'"start_us": {s}, "end_us": {e}{extra}}}'
            )
        return ("\n".join(lines) + "\n").encode("utf-8")


def _phase_ops(prof: Profile, t0: int) -> Ops:
    """One op per phase per step, tiling each step exactly."""
    ops = Ops.empty()
    dt = prof.interval_us
    for i in range(prof.steps):
        start = t0 + i * prof.step_us
        for p in prof.phases:
            ops.add(p.name, p.device, i, start, start + p.count * dt)
            start += p.count * dt
    return ops


GPU_TICK_KERNELS = ("sgemm_nn", "conv2d_fwd", "conv2d_bwd_filter")
GPU_SHORT_KERNELS = ("relu_fwd", "bias_add", "elementwise_mul", "batchnorm_fwd",
                     "softmax_fwd", "dropout_fwd", "reduce_sum", "memset")
CPU_LAUNCHES = ("cudaLaunchKernel", "cudaMemcpyAsync", "cudaEventRecord")


def _dense_ops(prof: Profile, t0: int, rng: np.random.Generator) -> Ops:
    """Concurrent GPU and CPU streams, about 100 ops per sampling interval.

    In each interval the GPU stream usually opens with a long kernel that
    covers the sample tick; the rest of the interval is tiled by short
    kernels that never cover a tick. One interval in five (never the first
    of a step) opens with a GPU bubble instead. The CPU stream runs short
    launch calls between ticks, after a data-loader call that covers the tick
    in half of the intervals.
    """
    ops = Ops.empty()
    dt = prof.interval_us
    for i in range(prof.steps):
        for m in range(prof.per_step):
            tick = t0 + (i * prof.per_step + m) * dt
            end = tick + dt
            if m > 0 and rng.random() < 0.2:
                cursor = tick + int(rng.integers(200, 2_000))
            else:
                cursor = tick + int(rng.integers(dt // 8, dt // 4))
                ops.add(GPU_TICK_KERNELS[int(rng.integers(3))], "GPU", i, tick, cursor,
                        layer=f"block{m}")
            durations = rng.integers(20, 201, size=(end - cursor) // 20 + 1)
            names = rng.integers(len(GPU_SHORT_KERNELS), size=durations.size)
            for d, k in zip(durations.tolist(), names.tolist()):
                stop = cursor + d
                if end - stop < 20:  # fold a sliver into the last kernel
                    stop = end
                ops.add(GPU_SHORT_KERNELS[k], "GPU", i, cursor, stop)
                cursor = stop
                if cursor == end:
                    break

            if rng.random() < 0.5:
                cursor = tick + int(rng.integers(dt // 10, dt // 2))
                ops.add("dataloader_next", "CPU", i, tick, cursor)
            else:
                cursor = tick + int(rng.integers(50, 500))
            gaps = rng.integers(20, 201, size=40)
            durations = rng.integers(10, 81, size=40)
            names = rng.integers(len(CPU_LAUNCHES), size=40)
            for g, d, k in zip(gaps.tolist(), durations.tolist(), names.tolist()):
                start = cursor + g
                if start + d >= end:
                    break
                ops.add(CPU_LAUNCHES[k], "CPU", i, start, start + d)
                cursor = start + d
    return ops


def _op_expectation(ops: Ops, prof: Profile, t0: int) -> tuple[dict, bool]:
    """Exact per-op aggregates and whether any two ops overlap."""
    start = np.array(ops.start, dtype=np.int64)
    end = np.array(ops.end, dtype=np.int64)
    ticks = t0 + prof.interval_us * np.arange(prof.steps * prof.per_step, dtype=np.int64)
    covered = np.searchsorted(ticks, end, "left") - np.searchsorted(ticks, start, "left")
    per_op: dict[str, dict] = {}
    for name, d, c in zip(ops.name, (end - start).tolist(), covered.tolist()):
        agg = per_op.setdefault(name, {"count": 0, "busy_time_us": 0, "attributed_samples": 0})
        agg["count"] += 1
        agg["busy_time_us"] += d
        agg["attributed_samples"] += c
    for agg in per_op.values():
        agg["below_sampling_resolution"] = agg["attributed_samples"] == 0
    order = np.lexsort((end, start))
    running_end = np.maximum.accumulate(end[order])
    concurrent = bool(np.any(start[order][1:] < running_end[:-1]))
    return dict(sorted(per_op.items())), concurrent


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------


def _write_run(prof: Profile, out: Path, rng: np.random.Generator, dense: bool) -> dict:
    """Write one run's files under `out`; return its closed-form expectations."""
    out.mkdir(parents=True, exist_ok=True)
    t0 = prof.interval_us * int(rng.integers(0, 1_000))
    ops = _dense_ops(prof, t0, rng) if dense else _phase_ops(prof, t0)
    (out / "ops.jsonl").write_bytes(ops.jsonl())
    (out / "telemetry.csv").write_bytes(_telemetry(prof, t0, rng))
    manifest = {
        "schema_version": 1,
        "meta": {
            "run_id": prof.run_id,
            "batch_size": prof.batch_size,
            "core_count": prof.core_count,
            "sample_interval_us": prof.interval_us,
            "device_mem_capacity_bytes": prof.capacity_bytes,
            "warmup_steps": prof.warmup_steps,
        },
        "op_trace_path": "ops.jsonl",
        "telemetry_path": "telemetry.csv",
        "memory_breakdown": prof.breakdown,
    }
    (out / "run.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

    per_op, concurrent = _op_expectation(ops, prof, t0)
    kept = prof.steps - prof.warmup_steps
    window_power = _power_expectation(prof, kept)
    mean_mw = window_power.pop("rail_mean_mw")
    peak = max(p.mem_bytes for p in prof.phases)
    if prof.warmup_steps:
        peak += prof.warmup_mem_extra_bytes
    return {
        "run_id": prof.run_id,
        "batch_size": prof.batch_size,
        "core_count": prof.core_count,
        "sample_interval_us": prof.interval_us,
        "warmup_steps": prof.warmup_steps,
        "t0_us": t0,
        "step_us": prof.step_us,
        "steps": prof.steps,
        "ops": len(ops.name),
        "samples": prof.steps * prof.per_step,
        "peak_mem_bytes": peak,
        "throughput": [prof.batch_size * kept * 1_000_000, kept * prof.step_us],
        "step_throughput": [prof.batch_size * 1_000_000, prof.step_us],
        "concurrent_ops": concurrent,
        "memory_breakdown": prof.breakdown,
        "per_op": per_op,
        "rail_order": sorted(("cpu", "gpu", "mem"), key=lambda r: -mean_mw[r][0]),
        "rail_mean_mw": mean_mw,
        "window": {**_util_expectation(prof, kept), **window_power},
        "step": {**_util_expectation(prof, 1), **_power_expectation(prof, 1)},
    }


def _long_run() -> Profile:
    return Profile(
        run_id="long-run", batch_size=32, core_count=8, interval_us=1_000, steps=200,
        warmup_steps=3,
        phases=(
            Phase("forward", "GPU", 8, (0.55, 0.30, 0.25, 0.20, 0.15, 0.10, 0.0, 0.0), 0.85,
                  (3_500.0, 9_000.0, 1_800.0, 16_000.0), int(3.1 * GB)),
            Phase("backward", "GPU", 8, (0.60, 0.35, 0.30, 0.25, 0.20, 0.10, 0.08, 0.0), 0.92,
                  (3_800.0, 10_500.0, 2_100.0, 18_500.0), int(4.2 * GB)),
            Phase("optimizer", "CPU", 4, (0.90, 0.70, 0.60, 0.50, 0.40, 0.30, 0.20, 0.0), 0.15,
                  (5_200.0, 2_500.0, 1_500.0, 11_000.0), int(3.6 * GB)),
        ),
        warmup_mem_extra_bytes=int(0.5 * GB), capacity_bytes=8 * GB,
        breakdown={"parameters_bytes": 400_000_000, "gradients_bytes": 400_000_000,
                   "input_bytes": 300_000_000, "intermediate_bytes": 2_900_000_000},
    )


def _op_dense() -> Profile:
    return Profile(
        run_id="op-dense", batch_size=16, core_count=4, interval_us=10_000, steps=100,
        warmup_steps=3,
        phases=(
            Phase("compute", "GPU", 6, (0.40, 0.20, 0.10, 0.0), 0.90,
                  (2_800.0, 11_000.0, 2_400.0, 19_000.0), int(5.5 * GB)),
            Phase("input", "CPU", 4, (0.75, 0.55, 0.35, 0.0), 0.30,
                  (4_600.0, 3_000.0, 1_900.0, 12_500.0), int(4.8 * GB)),
        ),
        warmup_mem_extra_bytes=int(0.3 * GB), capacity_bytes=8 * GB, breakdown=None,
    )


SWEEP_BATCHES = (4, 16, 64)


def _sweep_point(batch: int) -> Profile:
    """Step time grows with sqrt(batch); GPU busy, power and memory grow with it."""
    scale = batch / SWEEP_BATCHES[0]
    half = 10 * round(math.sqrt(scale))
    busy = 0.6 + 0.1 * scale**0.25
    intermediate = int(0.08 * batch * GB)
    return Profile(
        run_id=f"sweep-b{batch}", batch_size=batch, core_count=4, interval_us=10_000, steps=60,
        warmup_steps=2,
        phases=(
            Phase("fwd_bwd", "GPU", half, (0.50, 0.30, 0.10, 0.0), busy,
                  (900.0, 4_200.0 * busy / 0.7, 2_100.0, 7_600.0 + 2_000.0 * busy),
                  int(1.5 * GB) + intermediate),
            Phase("data_prep", "CPU", half, (0.60, 0.40, 0.20, 0.0), 0.10,
                  (1_200.0, 900.0, 1_800.0, 4_200.0), int(1.2 * GB) + intermediate),
        ),
        warmup_mem_extra_bytes=0, capacity_bytes=6 * GB,
        breakdown={"parameters_bytes": 500_000_000, "gradients_bytes": 500_000_000,
                   "input_bytes": batch * 2_000_000, "intermediate_bytes": intermediate},
    )


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs under `out`; return what goes into expected.json."""
    if workload == "long-run":
        run = _write_run(_long_run(), out, np.random.default_rng([seed, 1]), dense=False)
        return {"command": "analyze", "manifest": "run.json", "runs": [run], "sweep": None}
    if workload == "op-dense":
        run = _write_run(_op_dense(), out, np.random.default_rng([seed, 2]), dense=True)
        return {"command": "analyze", "manifest": "run.json", "runs": [run], "sweep": None}
    if workload == "sweep":
        runs = [
            _write_run(_sweep_point(b), out / f"b{b}", np.random.default_rng([seed, 3, b]),
                       dense=False)
            for b in SWEEP_BATCHES
        ]
        doc = {"schema_version": 1, "model": "convnet-sweep",
               "runs": [f"b{b}/run.json" for b in SWEEP_BATCHES]}
        (out / "sweep.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return {"command": "sweep", "manifest": "sweep.json", "runs": runs,
                "sweep": {"model": doc["model"], "capacity_bytes": 6 * GB}}
    raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    expected = generate(args.workload, args.seed, out)
    (out / "expected.json").write_text(json.dumps(expected) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
