#!/usr/bin/env python3
"""Synthesize a labelled 1M-sample run and analyze it end to end, in child processes.

The run is 50 000 steps of 20 samples at 1 ms on 4 cores, at 5% noise.
``traceprof synth --spec`` writes it and ``traceprof analyze --format json``
reads it, each in a fresh process started by the benchmark's ``spawn``, which
kills a child that outlives its timeout. The script prints each child's wall
time and peak RSS (from ``os.wait4``). It fails unless both children exit 0
and peak at no more than MAX_RSS_MB, and analyze prints strict JSON (no NaN
or Infinity) with one score per pair of the 49 997 non-warmup steps, and one
``per_step`` row and one ``steps`` entry per step (50 000 each). Like the
benchmark it imports neither numpy nor traceprof, because a child's peak RSS
starts at its parent's.

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


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        spec, run_dir = Path(tmp, "spec.json"), Path(tmp, "run")
        spec.write_text(json.dumps(SPEC))
        for name, cli in [
            ("synth", ["synth", "--spec", str(spec), "--out", str(run_dir)]),
            ("analyze", ["analyze", str(run_dir / "run.json"), "--format", "json"]),
        ]:
            child = spawn([sys.executable, "-m", "traceprof", *cli], env, Path(tmp))
            print(f"{name}: exit {child.returncode}, wall {child.wall_s:.2f} s, "
                  f"peak RSS {child.peak_rss_mb:.0f} MB")
            if child.returncode != 0:
                sys.stdout.write(child.stderr.decode(errors="replace")[-2000:])
                return 1
            if child.peak_rss_mb > MAX_RSS_MB:
                print(f"{name} peaked at {child.peak_rss_mb:.0f} MB, above {MAX_RSS_MB} MB")
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
    sys.exit(main())
