#!/usr/bin/env python3
"""Synthesize a batch-size sweep and print the scaling analysis.

The generated runs mimic the scaling shape seen on embedded trainers: GPU
utilization and memory grow with the batch while step time grows slower
than batch size, so per-step energy scales sub-proportionally.

Example:
    python scripts/batch_sweep_demo.py --batches 4 16 64
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from traceprof.cli import main as cli_main
from traceprof.synth import PhaseSpec, SynthSpec, write_run

GB = 1_000_000_000


def sweep_spec(batch: int, base_batch: int, interval: int = 10_000) -> SynthSpec:
    scale = batch / base_batch
    # Step time grows with sqrt(batch): bigger batches amortize fixed overhead.
    samples_per_step = int(20 * scale**0.5) * 2
    busy = min(1.0, 0.6 + 0.1 * scale**0.25)
    return SynthSpec(
        steps=6,
        step_duration_us=samples_per_step * interval,
        batch_size=batch,
        core_count=4,
        sample_interval_us=interval,
        phases=(
            PhaseSpec(0.5, (0.5, 0.3, 0.1, 0.0), busy,
                      900.0, 4200.0, 2100.0, 7600.0,
                      int((1.5 + 0.08 * batch) * GB), op_name="fwd_bwd",
                      op_device="GPU"),
            PhaseSpec(0.5, (0.6, 0.4, 0.2, 0.0), 0.1,
                      1200.0, 900.0, 1800.0, 4200.0,
                      int((1.2 + 0.08 * batch) * GB), op_name="data_prep",
                      op_device="CPU"),
        ),
        warmup_steps=2,
        run_id=f"demo-b{batch}",
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batches", type=int, nargs="+", default=[4, 16, 64])
    parser.add_argument("--format", choices=("json", "table"), default="table")
    args = parser.parse_args()
    if len(args.batches) < 2:
        parser.error("need at least two batch sizes")

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        rel = []
        for batch in sorted(args.batches):
            write_run(sweep_spec(batch, min(args.batches)), base / f"b{batch}")
            rel.append(f"b{batch}/run.json")
        sweep_path = base / "sweep.json"
        sweep_path.write_text(
            json.dumps({"schema_version": 1, "model": "demo-model", "runs": rel})
        )
        return cli_main(["sweep", str(sweep_path), "--format", args.format])


if __name__ == "__main__":
    sys.exit(main())
