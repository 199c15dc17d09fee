#!/usr/bin/env python3
"""Analyze a labelled 1M-sample run and a 1M-op run end to end, in child processes.

The sample run is 50 000 steps of 20 samples at 1 ms on 4 cores, at 5% noise.
``traceprof synth --spec`` writes it and ``traceprof analyze --format json``
reads it. The op run is 1 000 steps of 500 GPU and 500 CPU ops that alternate
in time. A child of this script writes it with numpy, the GPU stream's lines
before the CPU stream's, so the op-trace reader puts the streams in run order
itself, and ``traceprof analyze --format json`` reads it. Each child runs in a
fresh process started by the benchmark's ``spawn``, which kills a child that
outlives its timeout, and the script prints each traceprof child's wall time
and peak RSS (from ``os.wait4``).

The script fails unless every child exits 0 and each traceprof child peaks at
no more than MAX_RSS_MB. The sample run's analyze must print strict JSON (no
NaN or Infinity) with one score per pair of the 49 997 non-warmup steps, and
one ``per_step`` row and one ``steps`` entry per step (50 000 each). The op
run's report must count every op and have one ``steps`` entry per step. The
script's own process imports neither numpy nor traceprof, like the
benchmark's, because a child's peak RSS starts at its parent's.

Example:
    python scripts/million_sample_run.py
"""

import json
import math
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from oracle import strict_loads  # noqa: E402
from run import ROOT, spawn  # noqa: E402

MAX_RSS_MB = 512
STEPS, PER_STEP, WARMUP = 50_000, 20, 3
SPEC = {
    "steps": STEPS, "step_duration_us": PER_STEP * 1_000, "batch_size": 8, "core_count": 4,
    "sample_interval_us": 1_000, "noise_amplitude": 0.05, "seed": 10,
    "warmup_steps": WARMUP, "warmup_mem_extra_bytes": 10**9,
    "phases": [
        {"duration_fraction": 0.6, "cpu_core_util": [0.5, 0.25, 0.75, 0.375], "gpu_util": 0.625,
         "power_cpu_mw": 800.0, "power_gpu_mw": 6000.0, "power_mem_mw": 2000.0,
         "power_sys_mw": 9000.0, "mem_bytes": 3 * 10**9},
        {"duration_fraction": 0.4, "cpu_core_util": [0.25, 0.5, 0.125, 0.625], "gpu_util": 0.25,
         "power_cpu_mw": 400.0, "power_gpu_mw": 2000.0, "power_mem_mw": 1500.0,
         "power_sys_mw": 5000.0, "mem_bytes": 2 * 10**9},
    ],
}
OP_STEPS, OPS_PER_STREAM, OP_STEP_US = 1_000, 500, 10_000
OPS = 2 * OPS_PER_STREAM * OP_STEPS


def write_op_run(out: Path) -> None:
    """Write the op run: its op trace, its telemetry (one sample per ms) and its manifest.

    Op i of a step starts 20*i us into it on the GPU (15 us long) and 5 us
    later on the CPU (10 us long), so the two streams alternate in time.
    """
    import numpy as np

    out.mkdir()
    step = np.repeat(np.arange(OP_STEPS), OPS_PER_STREAM)
    i = np.tile(np.arange(OPS_PER_STREAM), OP_STEPS)
    start = step * OP_STEP_US + 20 * i
    with open(out / "ops.jsonl", "w") as f:
        for device, offset, length, names in [("GPU", 0, 15, 6), ("CPU", 5, 10, 3)]:
            rows = np.column_stack([i % names, step, start + offset, start + offset + length,
                                    i % 4])
            np.savetxt(f, rows, fmt=f'{{"op": "{device.lower()}_op%d", "device": "{device}", '
                       '"step": %d, "start_us": %d, "end_us": %d, "layer": "block%d"}')
    t = np.arange(0, OP_STEPS * OP_STEP_US, 1_000)
    busy = t % OP_STEP_US < 6_000
    cells = [t, *(np.where(busy, 50.0 + 10 * c, 25.0) for c in range(4)),
             np.where(busy, 80.0, 20.0), np.full(len(t), 900.0), np.where(busy, 6000.0, 2000.0),
             np.full(len(t), 1500.0), np.where(busy, 9000.0, 5000.0), np.full(len(t), 3 * 10**9)]
    header = "t_us,c0,c1,c2,c3,gpu,p_cpu_mw,p_gpu_mw,p_mem_mw,p_sys_mw,mem_bytes"
    np.savetxt(out / "telemetry.csv", np.column_stack(cells), fmt="%d" + ",%.1f" * 9 + ",%d",
               header=header, comments="")
    meta = {"run_id": "op-run", "batch_size": 8, "core_count": 4, "sample_interval_us": 1_000}
    (out / "run.json").write_text(json.dumps({
        "schema_version": 1, "meta": meta, "op_trace_path": "ops.jsonl",
        "telemetry_path": "telemetry.csv"}))


def run_children(children: list[tuple[str, list[str]]], env: dict, tmp: Path):
    """Run each traceprof command in turn; the last child, or None after a failure."""
    for name, cli in children:
        child = spawn([sys.executable, "-m", "traceprof", *cli], env, tmp)
        print(f"{name}: exit {child.returncode}, wall {child.wall_s:.2f} s, "
              f"peak RSS {child.peak_rss_mb:.0f} MB")
        if child.returncode != 0:
            sys.stdout.write(child.stderr.decode(errors="replace")[-2000:])
            return None
        if child.peak_rss_mb > MAX_RSS_MB:
            print(f"{name} peaked at {child.peak_rss_mb:.0f} MB, above {MAX_RSS_MB} MB")
            return None
    return child


def check_op_run(env: dict) -> int:
    """Write the op run and analyze it; 0 if every check passes."""
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp, "run")
        writer = spawn([sys.executable, __file__, "--write-op-run", str(run_dir)], env, Path(tmp))
        if writer.returncode != 0:
            sys.stdout.write(writer.stderr.decode(errors="replace")[-2000:])
            return 1
        child = run_children([("analyze ops", ["analyze", str(run_dir / "run.json"),
                                               "--format", "json"])], env, Path(tmp))
    if child is None:
        return 1
    report = strict_loads(child.stdout)
    counted = sum(op["count"] for op in report["per_op"].values())
    if (counted, len(report["steps"])) != (OPS, OP_STEPS):
        print(f"{counted} ops in {len(report['steps'])} steps, expected {OPS} in {OP_STEPS}")
        return 1
    return 0


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if check_op_run(env):  # first, while this process is small: its children start at its RSS
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        spec, run_dir = Path(tmp, "spec.json"), Path(tmp, "run")
        spec.write_text(json.dumps(SPEC))
        child = run_children([
            ("synth", ["synth", "--spec", str(spec), "--out", str(run_dir)]),
            ("analyze", ["analyze", str(run_dir / "run.json"), "--format", "json"]),
        ], env, Path(tmp))
    if child is None:
        return 1
    report = strict_loads(child.stdout)
    pairs = report["predictability"]["per_step_pairs"]
    if pairs != math.comb(STEPS - WARMUP, 2):
        print(f"per_step_pairs {pairs}, expected C({STEPS - WARMUP}, 2)")
        return 1
    rows = (len(report["per_step"]), len(report["steps"]))
    if rows != (STEPS, STEPS):
        print(f"{rows[0]} per_step rows and {rows[1]} steps, expected {STEPS} of each")
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write-op-run"]:
        write_op_run(Path(sys.argv[2]))
    else:
        sys.exit(main())
