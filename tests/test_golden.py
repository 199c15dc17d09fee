"""Byte-for-byte regression of ``analyze``/``sweep --format json`` output.

The inputs are fixed labelled synth runs, rebuilt in a temporary directory
for every test; the expected reports live in ``tests/golden/``. A metric
whose value moves by a single ulp fails here, so a change to how sums are
formed (order, blocking, accumulation type) cannot slip through unnoticed.

Regenerate the expected files, after a deliberate output change only, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from traceprof.cli import main
from traceprof.synth import PhaseSpec, SynthSpec, write_run

GOLDEN = Path(__file__).parent / "golden"
GB = 1_000_000_000

# 140 samples per step: pairwise-summation blocks of 8 and 128 are crossed
# both by the per-step windows and by the predictability rows.
_LONG = SynthSpec(
    steps=24,
    step_duration_us=140_000,
    batch_size=32,
    core_count=4,
    sample_interval_us=1_000,
    phases=(
        PhaseSpec(0.25, (0.75, 0.0, 0.5, 0.25), 0.125, 2_500.0, 1_200.0, 900.0, 6_000.0, 2 * GB),
        PhaseSpec(0.5, (0.25, 0.0, 0.0, 1.0), 0.875, 900.0, 7_500.0, 1_400.0, 11_000.0, 5 * GB),
        PhaseSpec(0.25, (0.5, 0.125, 0.0, 0.0), 0.375, 1_700.0, 3_000.0, 1_100.0, 7_000.0, 3 * GB),
    ),
    warmup_steps=3,
    warmup_mem_extra_bytes=GB,
    seed=11,
    run_id="golden-long",
)


def _sweep_spec(batch: int, samples_per_step: int, seed: int) -> SynthSpec:
    return _LONG._replace(
        steps=12,
        step_duration_us=samples_per_step * 1_000,
        batch_size=batch,
        noise_amplitude=0.05,
        seed=seed,
        run_id=f"golden-b{batch}",
    )


def _analyze_case(spec: SynthSpec, *flags: str):
    def build(root: Path) -> list[str]:
        return ["analyze", str(write_run(spec, root / "run")), "--format", "json", *flags]

    return build


def _sweep_case(root: Path) -> list[str]:
    names = []
    for batch, per_step, seed in ((4, 20, 21), (16, 40, 22), (64, 80, 23)):
        write_run(_sweep_spec(batch, per_step, seed), root / f"b{batch}")
        names.append(f"b{batch}/run.json")
    manifest = root / "sweep.json"
    manifest.write_text(json.dumps({"schema_version": 1, "model": "golden", "runs": names}))
    return ["sweep", str(manifest), "--format", "json"]


_NOISY = _LONG._replace(noise_amplitude=0.05)

CASES = {
    "analyze_noiseless": _analyze_case(_LONG),
    "analyze_noise05": _analyze_case(_NOISY),
    "analyze_noise05_cpu_signal": _analyze_case(
        _NOISY, "--signal", "cpu_avg_util", "--idle-threshold", "0.05"
    ),
    "analyze_noise05_power_signal": _analyze_case(_NOISY, "--signal", "power_sys"),
    "sweep_noise05": _sweep_case,
}


def _run_case(name: str, root: Path, capsysbinary) -> bytes:
    assert main(CASES[name](root)) == 0
    return capsysbinary.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path, capsysbinary):
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert _run_case(name, tmp_path, capsysbinary) == expected


if __name__ == "__main__":
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            stdout, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO())
            try:
                status = main(CASES[case](Path(tmp)))
                sys.stdout.flush()
                data = sys.stdout.buffer.getvalue()
            finally:
                sys.stdout = stdout
        if status != 0:
            sys.exit(f"{case}: exit {status}")
        (GOLDEN / f"{case}.json").write_bytes(data)
        print(f"{case}: {len(data)} bytes")
