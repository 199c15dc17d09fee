"""Metamorphic relations between the report of a noisy run and the report of its transform.

A noisy run has no closed-form report, but a transform of its trace files can
have a known effect on it. Each test writes a noisy labelled run with
``traceprof synth``, rewrites its files (or its spec, or how they are read), and
compares the two ``traceprof analyze --format json`` reports, all through
``cli.main``.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import to_doc
from traceprof import ingest
from traceprof.cli import main
from traceprof.synth import random_spec

_SEEDS = st.integers(0, 10**6)
_POWER = ("p_cpu_mw", "p_gpu_mw", "p_mem_mw", "p_sys_mw")


def _cli(*args) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()) as err:
        code = main(list(map(str, args)))
    assert code == 0, err.getvalue()
    return out.getvalue()


def _synth(out: Path, seed: int, *flags: str) -> Path:
    return Path(_cli("synth", "--seed", seed, "--noise", "0.05", "--out", out, *flags).strip())


def _report(manifest: Path) -> dict:
    return json.loads(_cli("analyze", manifest, "--format", "json"))


def _rewrite_lines(path: Path, edit) -> None:
    path.write_text("".join(edit(line) + "\n" for line in path.read_text().splitlines()))


def _with_bounds_moved(report: dict, shift: int) -> dict:
    """The report with every step and per-step window moved by ``shift`` us."""
    moved = copy.deepcopy(report)
    for window in (*moved["steps"], *moved["per_step"]):
        window["start_us"] += shift
        window["end_us"] += shift
    return moved


@settings(max_examples=15)
@given(_SEEDS, st.integers(1, 2**30))
def test_shifting_every_timestamp_moves_only_the_windows(seed, k):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = _synth(Path(tmp, "run"), seed)
        before = _report(manifest)
        shift = k * before["sample_interval_us"]

        def shift_op(line):
            op = json.loads(line)
            return json.dumps({**op, "start_us": op["start_us"] + shift,
                               "end_us": op["end_us"] + shift})

        def shift_sample(line):
            t, rest = line.split(",", 1)
            return line if t == "t_us" else f"{int(t) + shift},{rest}"

        _rewrite_lines(manifest.parent / "ops.jsonl", shift_op)
        _rewrite_lines(manifest.parent / "telemetry.csv", shift_sample)
        assert _report(manifest) == _with_bounds_moved(before, shift)


def _doubled_energies(report: dict) -> dict:
    """The report with every energy and every rail's mean power doubled."""
    doubled = copy.deepcopy(report)
    for energies in (doubled["energy_by_rail_joules"],
                     *(m["energy_by_rail_joules"] for m in doubled["per_step"])):
        energies.update((rail, 2 * joules) for rail, joules in energies.items())
    for share in doubled["power_rail_ranking"]:
        share["mean_mw"] *= 2
    return doubled


@settings(max_examples=15)
@given(_SEEDS)
def test_doubling_every_power_cell_doubles_energy_and_mean_power(seed):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = _synth(Path(tmp, "run"), seed)
        before = _report(manifest)
        telemetry = manifest.parent / "telemetry.csv"
        header = telemetry.read_text().split("\n", 1)[0].split(",")
        power = {header.index(name) for name in _POWER}

        def double_power(line):
            if line.startswith("t_us"):
                return line
            # Doubling is exact in binary, and repr writes the double back exactly.
            return ",".join(repr(2 * float(cell)) if i in power else cell
                            for i, cell in enumerate(line.split(",")))

        _rewrite_lines(telemetry, double_power)
        assert _report(manifest) == _doubled_energies(before)


def _windows(report: dict) -> list[tuple[int, int]]:
    return [(w["start_us"], w["end_us"]) for w in report["steps"]]


@pytest.mark.xfail(strict=True, reason="period inference on noisy unlabelled runs picks a "
                   "multiple of the step period (ROADMAP item 1)")
@settings(max_examples=15)
@given(_SEEDS)
def test_stripping_the_step_labels_keeps_the_windows_within_one_interval(seed):
    with tempfile.TemporaryDirectory() as tmp:
        labelled = _report(_synth(Path(tmp, "labelled"), seed))
        unlabelled = _report(_synth(Path(tmp, "unlabelled"), seed, "--strip-step-ids"))
    interval = labelled["sample_interval_us"]
    assert len(_windows(unlabelled)) == len(_windows(labelled))
    for (lo, hi), (want_lo, want_hi) in zip(_windows(unlabelled), _windows(labelled)):
        assert abs(lo - want_lo) <= interval and abs(hi - want_hi) <= interval


@settings(max_examples=15)
@given(_SEEDS, st.randoms(use_true_random=False), st.booleans(),
       st.sampled_from([(1, 1), (3, 7), (2, 5), (ingest._CHUNK, ingest._ROWS)]))
def test_op_line_order_and_read_chunk_sizes_leave_the_report_bytes_unchanged(
        seed, rng, shuffle, sizes):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = _synth(Path(tmp, "run"), seed)
        before = _cli("analyze", manifest, "--format", "json")
        if shuffle:
            ops = manifest.parent / "ops.jsonl"
            lines = ops.read_text().splitlines(keepends=True)
            rng.shuffle(lines)
            ops.write_text("".join(lines))
        chunk, rows = sizes
        with mock.patch.object(ingest, "_CHUNK", chunk), mock.patch.object(ingest, "_ROWS", rows):
            after = _cli("analyze", manifest, "--format", "json")
    assert after == before


def _synth_spec(out: Path, spec) -> dict:
    out.mkdir()
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(to_doc(spec)))
    return _report(Path(_cli("synth", "--spec", spec_path, "--out", out / "run").strip()))


@settings(max_examples=15)
@given(_SEEDS, st.sampled_from([0.0, 0.01, 0.05, 0.1]), st.integers(1, 6))
def test_appending_steps_extends_per_step_and_keeps_the_utilizations(seed, noise, k):
    spec = random_spec(seed, noise_amplitude=noise)
    with tempfile.TemporaryDirectory() as tmp:
        short = _synth_spec(Path(tmp, "short"), spec)
        long = _synth_spec(Path(tmp, "long"), spec._replace(steps=spec.steps + k))
    # The noise is drawn row by row from one seeded stream, so the first steps
    # are the same samples in both runs.
    for key in ("steps", "per_step"):
        assert len(long[key]) == len(short[key]) + k
        assert long[key][:len(short[key])] == short[key]
    # Every sample lies within noise plus half a quantum of its phase's value,
    # and both runs repeat the same steady-state step.
    bound = 2 * noise + 1 / 1024
    for key in ("cpu_avg_util", "gpu_util"):
        assert abs(long[key] - short[key]) <= bound
    assert len(long["per_core_util"]) == len(short["per_core_util"])
    for a, b in zip(long["per_core_util"], short["per_core_util"]):
        assert abs(a - b) <= bound
