import copy
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import tables
from oracles import OpEvent, TelemetrySample, rows, to_doc
from traceprof import cli, ingest
from traceprof.cli import main
from traceprof.errors import InvalidSpec
from traceprof.ingest import (RunManifest, load_run, op_trace_chunks, telemetry_chunks,
                              write_manifest, write_report)
from traceprof.metrics import build_report
from traceprof.model import MemoryBreakdown, RunMeta
from traceprof.steps import SIGNALS
from traceprof.sweep import SweepPoint, build_sweep_result
from traceprof.synth import PhaseSpec, SynthSpec, generate, random_spec, write_run

GB = 1_000_000_000


@pytest.fixture
def run_dir(tmp_path):
    spec = random_spec(1)
    return write_run(spec, tmp_path / "run"), spec


def test_validate_ok(run_dir, capsys):
    manifest, _ = run_dir
    assert main(["validate", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK ")


def test_validate_warning_only_run_still_exits_zero(run_dir, capsys):
    manifest, _ = run_dir
    telemetry = manifest.parent / "telemetry.csv"
    lines = telemetry.read_text().splitlines()
    lines.append(lines[-1])  # duplicate timestamp: ClockSkew warning, not fatal
    telemetry.write_text("\n".join(lines) + "\n")
    assert main(["validate", str(manifest)]) == 0
    captured = capsys.readouterr()
    assert "ClockSkew" in captured.err
    assert captured.out.startswith("OK ")


def test_validate_missing_telemetry_names_path(tmp_path, capsys):
    manifest_doc = {
        "meta": {"run_id": "r", "batch_size": 1, "core_count": 1},
        "op_trace_path": "ops.jsonl",
        "telemetry_path": "gone.csv",
    }
    (tmp_path / "ops.jsonl").write_bytes(
        b'{"op":"a","device":"GPU","start_us":0,"end_us":1}\n'
    )
    path = tmp_path / "run.json"
    path.write_text(json.dumps(manifest_doc))
    assert main(["validate", str(path)]) == 1
    assert "gone.csv" in capsys.readouterr().err


def test_validate_reports_each_malformed_line(run_dir, capsys, tmp_path):
    manifest, spec = run_dir
    ops_path = manifest.parent / "ops.jsonl"
    ops_path.write_bytes(
        ops_path.read_bytes() + b"junk1\n" + b"junk2\n" + b'{"op": 1}\n'
    )
    assert main(["validate", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.count("MalformedLine") == 3
    assert "line" in err


def test_analyze_json_deterministic(run_dir, capsysbinary):
    manifest, _ = run_dir
    assert main(["analyze", str(manifest), "--format", "json"]) == 0
    first = capsysbinary.readouterr().out
    assert main(["analyze", str(manifest), "--format", "json"]) == 0
    second = capsysbinary.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema_version"] == 1
    assert doc["kind"] == "metric_report"


def test_analyze_warmup_override(tmp_path, capsysbinary):
    spec = random_spec(2)  # generated with some warmup steps
    manifest = write_run(spec, tmp_path / "run")

    assert main(["analyze", str(manifest), "--format", "json"]) == 0
    default_doc = json.loads(capsysbinary.readouterr().out)
    assert default_doc["warmup_steps"] == spec.warmup_steps

    assert main(["analyze", str(manifest), "--format", "json", "--warmup", "0"]) == 0
    overridden = json.loads(capsysbinary.readouterr().out)
    assert overridden["warmup_steps"] == 0
    assert all(not w["is_warmup"] for w in overridden["steps"])


def test_analyze_table_output(run_dir, capsys):
    manifest, _ = run_dir
    assert main(["analyze", str(manifest), "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "throughput:" in out
    assert "power ranking:" in out


def test_analyze_propagates_failures(tmp_path, capsys):
    spec = random_spec(3)
    spec = spec._replace(warmup_steps=spec.steps)  # every step is warmup
    manifest = write_run(spec, tmp_path / "run")
    assert main(["analyze", str(manifest), "--format", "json"]) == 1
    assert "error" in capsys.readouterr().err


def _write_sweep(tmp_path, entries, model="m"):
    names = []
    for i, (spec, breakdown) in enumerate(entries):
        write_run(spec, tmp_path / f"b{i}", memory_breakdown=breakdown)
        names.append(f"b{i}/run.json")
    doc = {"schema_version": 1, "model": model, "runs": names}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    return path


def _throughput_spec(batch, step_duration_us, interval, seed=0, p_sys=5000.0):
    return SynthSpec(
        steps=5,
        step_duration_us=step_duration_us,
        batch_size=batch,
        core_count=2,
        sample_interval_us=interval,
        phases=(
            PhaseSpec(0.5, (0.25, 0.0), 0.875, 500.0, 4000.0, 2000.0, p_sys, 3 * GB),
            PhaseSpec(0.5, (0.25, 0.0), 0.125, 500.0, 1000.0, 2000.0, p_sys, 2 * GB),
        ),
        warmup_steps=0,
        seed=seed,
        run_id=f"b{batch}",
    )


def test_sweep_single_run_is_usage_error(tmp_path, capsys):
    path = _write_sweep(tmp_path, [(_throughput_spec(4, 100_000, 10_000), None)])
    assert main(["sweep", str(path)]) == 2
    assert "at least 2 runs" in capsys.readouterr().err


def test_sweep_resnet50_fixture(tmp_path, capsysbinary):
    path = _write_sweep(
        tmp_path,
        [
            (_throughput_spec(4, 444_400, 200), None),
            (_throughput_spec(64, 1_163_600, 200), None),
        ],
        model="resnet50",
    )
    assert main(["sweep", str(path), "--format", "json"]) == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["kind"] == "sweep_result"
    assert abs(doc["throughput_speedup"] - 6.1) <= 0.05


def test_sweep_three_point_closed_form(tmp_path, capsysbinary):
    # Durations scale 1x, 2x, 4x at constant power: per-step energy ratio 4,
    # throughput speedup = (16/4) / (400/100) ... = 4x batch over 4x time = 1.
    specs = [
        (_throughput_spec(4, 100_000, 10_000), None),
        (_throughput_spec(8, 200_000, 10_000), None),
        (_throughput_spec(16, 400_000, 10_000), None),
    ]
    path = _write_sweep(tmp_path, specs)
    assert main(["sweep", str(path), "--format", "json"]) == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["batch_ratio"] == 4.0
    assert doc["throughput_speedup"] == pytest.approx(1.0, rel=1e-9)
    assert doc["energy_scaling"] == pytest.approx(4.0, rel=1e-9)
    assert doc["energy_scaling_class"] == "proportional"


def test_sweep_table_rows_follow_the_json_result(tmp_path, capsys):
    specs = [_throughput_spec(16, 300_000, 10_000), _throughput_spec(4, 100_000, 10_000),
             _throughput_spec(8, 160_000, 10_000)]
    # Batch 16 peaks at 9 GB, above the default capacity of 8 GiB.
    specs[0] = specs[0]._replace(phases=(specs[0].phases[0]._replace(mem_bytes=9 * GB),
                                          *specs[0].phases[1:]))
    path = _write_sweep(tmp_path, [(spec, None) for spec in specs])
    assert main(["sweep", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["sweep", str(path), "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("batch"))
    rows = [line.split() for line in lines[header + 1 :]]
    verdicts = {v["batch_size"]: v["verdict"] for v in doc["feasibility"]}
    assert [[row[0], row[1], row[5], row[6]] for row in rows] == [
        [str(p["batch_size"]), f"{p['report']['throughput_samples_per_sec']:.2f}",
         str(p["report"]["peak_mem_bytes"]), verdicts[p["batch_size"]]]
        for p in doc["points"]
    ]
    assert [(row[0], row[6]) for row in rows] == [
        ("4", "fits"), ("8", "fits"), ("16", "out_of_memory")]


def test_synth_manifest_feeds_analyze(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "s"), "--seed", "5"]) == 0
    manifest = capsys.readouterr().out.strip()
    assert main(["validate", manifest]) == 0


def test_synth_spec_file(tmp_path, capsys):
    spec = _throughput_spec(4, 100_000, 10_000)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(to_doc(spec)))
    assert main(["synth", "--out", str(tmp_path / "s"), "--spec", str(spec_path)]) == 0
    manifest = capsys.readouterr().out.strip()
    assert main(["analyze", manifest, "--format", "json"]) == 0


@pytest.mark.parametrize("flags", [["--seed", "5"], ["--noise", "0.2"],
                                   ["--seed", "0", "--noise", "0"]])
def test_synth_spec_with_seed_or_noise_is_a_usage_error(tmp_path, capsys, flags):
    # A spec carries its own seed and noise; the flags would be silently ignored.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(to_doc(random_spec(1))))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "s"), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "--seed and --noise do not apply to a --spec run\n"
    assert not (tmp_path / "s").exists()


def test_synth_spec_keeps_strip_step_ids(tmp_path, capsys):
    spec = random_spec(2, noise_amplitude=0.05)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(to_doc(spec)))
    argv = ["synth", "--spec", str(spec_path), "--strip-step-ids", "--out", str(tmp_path / "a")]
    assert main(argv) == 0, capsys.readouterr().err
    write_run(spec._replace(strip_step_ids=True), tmp_path / "b")
    for name in ("run.json", "ops.jsonl", "telemetry.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert b'"step"' not in (tmp_path / "a" / "ops.jsonl").read_bytes()


def test_synth_without_spec_defaults_to_seed_0_and_no_noise(tmp_path, capsys):
    runs = {"default": [], "explicit": ["--seed", "0", "--noise", "0.0"]}
    for name, flags in runs.items():
        assert main(["synth", "--out", str(tmp_path / name), *flags]) == 0
    write_run(random_spec(0), tmp_path / "want")
    for name in ("run.json", "ops.jsonl", "telemetry.csv"):
        want = (tmp_path / "want" / name).read_bytes()
        assert all((tmp_path / run / name).read_bytes() == want for run in runs)


def test_console_entry_point_subprocess(tmp_path):
    spec = random_spec(4)
    manifest = write_run(spec, tmp_path / "run")
    result = subprocess.run(
        [sys.executable, "-m", "traceprof", "analyze", str(manifest), "--format", "json"],
        capture_output=True,
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["run_id"] == spec.run_id
    assert result.stderr == b""


def _in_child(code, **env):
    """Stdout of ``python -c code``, with OPENBLAS_NUM_THREADS set only as given."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, check=True).stdout.split()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts Linux threads")
def test_cli_import_starts_no_blas_threads():
    code = "import os, traceprof.cli; print(len(os.listdir('/proc/self/task')))"
    assert _in_child(code) == ["1"]


def test_cli_keeps_a_preset_blas_thread_count():
    code = "import os, traceprof.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _in_child(code, OPENBLAS_NUM_THREADS="2") == ["2"]


def test_main_in_process_leaves_the_collector_unfrozen(run_dir, tmp_path, capsys):
    manifest, _ = run_dir
    before = gc.get_freeze_count()
    assert main(["validate", str(manifest)]) == 0
    assert main(["synth", "--seed", "2", "--out", str(tmp_path / "synth")]) == 0
    assert gc.get_freeze_count() == before


def test_process_entry_point_freezes_the_startup_heap_and_exits_with_main():
    # python -m traceprof, with main replaced by a probe of the collector.
    code = ("import gc, runpy, traceprof.cli as cli; print(gc.get_freeze_count()); "
            "cli.main = lambda: print(gc.get_freeze_count()) or 3; "
            "runpy.run_module('traceprof', run_name='__main__')")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 3, result.stderr
    unfrozen, frozen = map(int, result.stdout.split())
    # numpy and the package modules alone leave tens of thousands of tracked objects.
    assert unfrozen == 0 and frozen > 10_000


@pytest.mark.parametrize("command", ["validate", "analyze", "sweep"])
def test_only_synth_imports_the_synth_module(tmp_path, command):
    if command == "sweep":
        target = _write_sweep(tmp_path, [(_throughput_spec(4, 100_000, 10_000), None),
                                         (_throughput_spec(8, 200_000, 10_000), None)])
    else:
        target = write_run(random_spec(1), tmp_path / "run")
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "traceprof", command,
                             str(target)], capture_output=True)
    imported = {line.rpartition("|")[2].strip() for line in result.stderr.decode().splitlines()
                if line.startswith("import time:")}
    assert result.returncode == 0, result.stderr
    assert {"traceprof.cli", "traceprof.ingest"} <= imported
    assert "traceprof.synth" not in imported
    assert "dataclasses" not in imported  # records are NamedTuples
    # Only sweep imports the sweep module.
    assert ("traceprof.sweep" in imported) == (command == "sweep")


def test_package_import_loads_nothing_and_leaves_the_environment_alone():
    code = ("import os, sys; env = dict(os.environ); import traceprof; "
            "print(os.environ == env, 'OPENBLAS_NUM_THREADS' in os.environ, "
            "'numpy' in sys.modules, any(m.startswith('traceprof.') for m in sys.modules))")
    assert _in_child(code) == ["True", "False", "False", "False"]


def test_unlabeled_run_analysis_via_inference(tmp_path, capsysbinary):
    spec = SynthSpec(
        steps=6,
        step_duration_us=400_000,
        batch_size=4,
        core_count=2,
        sample_interval_us=10_000,
        phases=(
            PhaseSpec(0.5, (0.25, 0.0), 1.0, 500.0, 4000.0, 2000.0, 7000.0, GB),
            PhaseSpec(0.5, (0.25, 0.0), 0.0, 500.0, 1000.0, 2000.0, 4000.0, GB),
        ),
        warmup_steps=0,
        strip_step_ids=True,
    )
    manifest = write_run(spec, tmp_path / "run")
    assert main(["analyze", str(manifest), "--format", "json"]) == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["period"]["method"] == "autocorrelation"
    assert doc["period"]["period_us"] == 400_000
    assert len(doc["steps"]) == 6


def test_analyze_overlapping_labelled_steps_is_a_diagnostic(tmp_path):
    meta, ops, samples, _ = generate(_throughput_spec(4, 100_000, 10_000)._replace(steps=7))
    ops = rows(ops)
    step4_end = max(op.end for op in ops if op.step_id == 4)
    first5 = min((op for op in ops if op.step_id == 5), key=lambda op: op.start)
    ops = [
        OpEvent(op.op_name, op.device, step4_end - 10, op.end, op.layer, op.step_id)
        if op is first5 else op
        for op in ops
    ]
    (tmp_path / "ops.jsonl").write_bytes(b"".join(op_trace_chunks(tables(ops, [])[0])))
    (tmp_path / "telemetry.csv").write_bytes(b"".join(telemetry_chunks(samples)))
    manifest = tmp_path / "run.json"
    manifest.write_bytes(write_manifest(RunManifest(meta, "ops.jsonl", "telemetry.csv")))
    result = subprocess.run(
        [sys.executable, "-m", "traceprof", "analyze", str(manifest), "--format", "json"],
        capture_output=True,
    )
    assert result.returncode == 1
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    assert result.stderr.startswith(b"error: step windows 4 and 5 overlap; ")


def _add_extra_column(telemetry_csv):
    lines = telemetry_csv.read_text().splitlines()
    rows = [lines[0] + ",extra"] + [line + ",1" for line in lines[1:]]
    telemetry_csv.write_text("\n".join(rows) + "\n")


def test_analyze_and_sweep_print_load_warnings(tmp_path, capsysbinary):
    manifest = write_run(random_spec(1), tmp_path / "run")
    assert main(["analyze", str(manifest), "--format", "json"]) == 0
    clean = capsysbinary.readouterr()
    assert clean.err == b""

    _add_extra_column(tmp_path / "run" / "telemetry.csv")
    assert main(["analyze", str(manifest), "--format", "json"]) == 0
    warned = capsysbinary.readouterr()
    assert warned.out == clean.out
    assert warned.err == b"warning[UnknownColumn] line 1: ignoring unknown column 'extra'\n"

    path = _write_sweep(tmp_path / "sweep", [
        (_throughput_spec(4, 100_000, 10_000), None),
        (_throughput_spec(8, 200_000, 10_000), None),
    ])
    _add_extra_column(tmp_path / "sweep" / "b1" / "telemetry.csv")
    assert main(["sweep", str(path), "--format", "json"]) == 0
    assert b"warning[UnknownColumn]" in capsysbinary.readouterr().err


def test_parse_warnings_come_before_validation_errors(tmp_path):
    manifest = write_run(random_spec(1), tmp_path / "run")
    _add_extra_column(tmp_path / "run" / "telemetry.csv")
    _edit_first_sample(manifest, "t_us", "-5")
    result = _run_cli("validate", manifest)
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr.decode().splitlines() == [
        "warning[UnknownColumn] line 1: ignoring unknown column 'extra'",
        "error[InvariantViolation]: sample #0 has negative timestamp -5",
    ]


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "traceprof", *map(str, args)],
                          capture_output=True)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["meta"].update(batch_size="8"), "manifest.meta.batch_size must be int, got '8'"),
    (lambda d: d["meta"].update(core_count=2.5), "manifest.meta.core_count must be int, got 2.5"),
    (lambda d: d["meta"].update(batch_size=True), "manifest.meta.batch_size must be int, got True"),
    (lambda d: d.update(memory_breakdown={"parameters_bytes": "1"}),
     "manifest.memory_breakdown.parameters_bytes must be int, got '1'"),
    (lambda d: d.update(telemetry_path=""), "needs op_trace_path and telemetry_path"),
], ids=["str_batch", "float_cores", "bool_batch", "str_breakdown", "empty_telemetry_path"])
def test_malformed_manifest_is_a_diagnostic(tmp_path, edit, message):
    manifest = write_run(random_spec(1), tmp_path / "run")
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    result = _run_cli("analyze", manifest, "--format", "json")
    assert result.returncode == 1
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    assert result.stderr.startswith(b"error: manifest")
    assert message.encode() in result.stderr


@pytest.mark.parametrize("name, encode, error", [
    ("ops.jsonl", lambda d: "\ufeff".encode() + d,
     "error[MalformedLine] line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ("telemetry.csv", lambda d: "\ufeff".encode() + d,
     "error[MalformedLine] line 1: header missing columns ['t_us']"),
    ("ops.jsonl", lambda d: d.decode().encode("utf-16"),
     "error[MalformedLine] line 1: op trace is not UTF-8: it starts with a UTF-16 or UTF-32 "
     "byte-order mark"),
    ("telemetry.csv", lambda d: d.decode().encode("utf-16"),
     "error[MalformedLine] line 1: header missing columns"),
    ("ops.jsonl", lambda d: d.decode().encode("utf-32"),
     "error[MalformedLine] line 1: op trace is not UTF-8: it starts with a UTF-16 or UTF-32 "
     "byte-order mark"),
], ids=["ops_bom", "telemetry_bom", "ops_utf16", "telemetry_utf16", "ops_utf32"])
def test_other_encodings_are_diagnostics(tmp_path, name, encode, error):
    manifest = write_run(random_spec(1), tmp_path / "run")
    path = manifest.parent / name
    path.write_bytes(encode(path.read_bytes()))
    result = _run_cli("analyze", manifest, "--format", "json")
    assert (result.returncode, result.stdout) == (1, b"")
    assert b"Traceback" not in result.stderr
    lines = result.stderr.decode().splitlines()
    assert any(line.startswith(error) for line in lines)
    if "byte-order mark" in error:  # one diagnostic for the file, not one per line
        assert [line for line in lines if line.startswith("error")] == [error]


def test_negative_memory_breakdown_is_a_diagnostic(tmp_path):
    manifest = write_run(random_spec(1), tmp_path / "run")
    doc = json.loads(manifest.read_text())
    doc["memory_breakdown"] = {"parameters_bytes": -5}
    manifest.write_text(json.dumps(doc))
    result = _run_cli("analyze", manifest, "--format", "json")
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr.decode().splitlines() == [
        "error[InvalidMeta]: memory_breakdown.parameters_bytes must be >= 0, got -5"]


def test_memory_breakdown_past_int64_is_a_diagnostic(tmp_path):
    manifest = write_run(random_spec(1), tmp_path / "run")
    doc = json.loads(manifest.read_text())
    doc["memory_breakdown"] = {"parameters_bytes": 10**400, "gradients_bytes": 1,
                               "input_bytes": 1, "intermediate_bytes": 1}
    manifest.write_text(json.dumps(doc))
    result = _run_cli("analyze", manifest, "--format", "json")
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr.decode().splitlines() == [
        "error[InvalidMeta]: memory_breakdown.parameters_bytes must be < 2**63"]


def test_non_finite_telemetry_is_a_diagnostic(tmp_path):
    manifest = write_run(random_spec(1), tmp_path / "run")
    telemetry = tmp_path / "run" / "telemetry.csv"
    rows = [line.split(",") for line in telemetry.read_text().splitlines()]

    def analyze_with_sys_power(values):
        for row, value in values.items():
            rows[row][-2] = value  # p_sys_mw
        telemetry.write_text("\n".join(",".join(row) for row in rows) + "\n")
        result = _run_cli("analyze", manifest, "--format", "json")
        assert result.returncode == 1
        assert result.stdout == b""
        assert b"Traceback" not in result.stderr
        assert b"RuntimeWarning" not in result.stderr
        return result.stderr.splitlines()

    assert analyze_with_sys_power({3: "inf", 5: "nan"}) == [
        b"error[NonFinite] line 4: nan or inf in column(s) ['p_sys_mw']",
        b"error[NonFinite] line 6: nan or inf in column(s) ['p_sys_mw']",
    ]
    # Finite cells whose energy overflows to inf: no report rather than invalid JSON.
    last = analyze_with_sys_power(dict.fromkeys(range(1, len(rows)), "1e308"))[-1]
    assert last.startswith(b"error: cannot write strict JSON: ")
    # Finite products (1e304 mW x 5000 us) whose window sums pass the float range: inf too.
    assert analyze_with_sys_power(dict.fromkeys(range(1, len(rows)), "1e304")) == [
        b"error: cannot write strict JSON: Out of range float values are not JSON compliant: inf"]
    table = _run_cli("analyze", manifest, "--format", "table")
    assert (table.returncode, table.stderr) == (0, b"")
    assert b" inf\n" in table.stdout


def test_sweep_duplicate_batch_size_is_usage_error(tmp_path):
    write_run(_throughput_spec(4, 100_000, 10_000), tmp_path / "b4")
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"model": "m", "runs": ["b4/run.json", "b4/run.json"]}))
    result = _run_cli("sweep", path, "--format", "json")
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr == b"error: duplicate batch size 4 in sweep\n"


def _edit_first_op(manifest, **fields):
    ops = manifest.parent / "ops.jsonl"
    first, rest = ops.read_text().split("\n", 1)
    ops.write_text(json.dumps({**json.loads(first), **fields}) + "\n" + rest)


def _edit_first_sample(manifest, column, value):
    telemetry = manifest.parent / "telemetry.csv"
    header, first, rest = telemetry.read_text().split("\n", 2)
    cells = first.split(",")
    cells[header.split(",").index(column)] = value
    telemetry.write_text("\n".join([header, ",".join(cells), rest]))


@pytest.mark.parametrize("edit, diagnostic", [
    (lambda m: _edit_first_op(m, end_us=2**70),
     b"error[MalformedLine] line 1: start_us and end_us must fit in int64"),
    (lambda m: _edit_first_op(m, end_us=2e300),
     b"error[MalformedLine] line 1: start_us and end_us must fit in int64"),
    (lambda m: _edit_first_op(m, start_us=-2**63 - 1),
     b"error[MalformedLine] line 1: start_us and end_us must fit in int64"),
    (lambda m: _edit_first_op(m, step=2**63),
     b"error[MalformedLine] line 1: step must fit in int64"),
    (lambda m: _edit_first_sample(m, "t_us", str(2**70)),
     b"error[MalformedLine] line 2: t_us must fit in int64"),
    (lambda m: _edit_first_sample(m, "mem_bytes", str(2**63)),
     b"error[MalformedLine] line 2: mem_bytes must fit in int64"),
    (lambda m: (m.parent / "telemetry.csv").write_text("\n  \n\t\r\n"),
     b"error[EmptyTrace]: telemetry file is empty"),
], ids=["end_2pow70", "end_2e300", "start_below_int64", "step_2pow63", "t_us_2pow70",
        "mem_bytes_2pow63", "blank_telemetry"])
def test_out_of_range_integers_are_diagnostics(tmp_path, edit, diagnostic):
    manifest = write_run(random_spec(1), tmp_path / "run")
    edit(manifest)
    result = _run_cli("analyze", manifest, "--format", "json")
    assert result.returncode == 1
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    assert result.stderr.splitlines() == [diagnostic]


def test_sweep_zero_energy_is_a_diagnostic(tmp_path):
    path = _write_sweep(tmp_path, [
        (_throughput_spec(4, 100_000, 10_000, p_sys=0.0), None),
        (_throughput_spec(8, 200_000, 10_000, p_sys=0.0), None),
    ])
    result = _run_cli("sweep", path, "--format", "json")
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr == (
        b"error: run b4 has zero mean per-step sys energy; energy scaling is undefined\n"
    )


def _set_meta(manifest, **fields):
    doc = json.loads(manifest.read_text())
    doc["meta"].update(fields)
    manifest.write_text(json.dumps(doc))


@pytest.mark.parametrize("fields, diagnostic", [
    ({"sample_interval_us": 2**63},
     "error[InvariantViolation]: last sample at {last_t} us plus sample_interval_us "
     "9223372036854775808 reaches 2**63 us"),
    ({"sample_interval_us": 2**63 - 1},
     "error[InvariantViolation]: last sample at {last_t} us plus sample_interval_us "
     "9223372036854775807 reaches 2**63 us"),
    ({"batch_size": 10**400}, "error[InvalidMeta]: batch_size must be < 2**63"),
    ({"core_count": 10**6},
     "error[CoreCountMismatch] line 1: run declares 1000000 cores, more than its "
     "{width}-character header can name"),
    ({"sample_interval_us": 0}, "error[InvalidMeta]: sample_interval_us must be > 0, got 0"),
    ({"sample_interval_us": -10_000},
     "error[InvalidMeta]: sample_interval_us must be > 0, got -10000"),
    ({"warmup_steps": -1}, "error[InvalidMeta]: warmup_steps must be >= 0, got -1"),
    ({"device_mem_capacity_bytes": 0},
     "error[InvalidMeta]: device_mem_capacity_bytes must be >= 1"),
    # Checked before the telemetry header, whose core columns it would exceed.
    ({"core_count": 0}, "error[InvalidMeta]: core_count must be >= 1, got 0"),
    ({"core_count": -2}, "error[InvalidMeta]: core_count must be >= 1, got -2"),
], ids=["interval_2pow63", "interval_2pow63_minus_1", "batch_10pow400", "cores_10pow6",
        "interval_0", "interval_negative", "warmup_negative", "capacity_0", "cores_0",
        "cores_negative"])
def test_meta_values_past_int64_are_diagnostics(tmp_path, fields, diagnostic):
    spec = random_spec(1)
    manifest = write_run(spec, tmp_path / "run")
    _set_meta(manifest, **fields)
    header = (tmp_path / "run" / "telemetry.csv").read_text().splitlines()[0]
    last_t = generate(spec)[2].t[-1]
    result = _run_cli("analyze", manifest, "--format", "json")
    assert result.returncode == 1
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    expected = diagnostic.format(last_t=last_t, width=len(header))
    assert result.stderr.decode().splitlines() == [expected]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_idle_threshold_is_a_usage_error(tmp_path, capsys, value):
    manifest = write_run(random_spec(1), tmp_path / "run")
    sweep = _write_sweep(tmp_path, [(_throughput_spec(4, 100_000, 10_000), None),
                                    (_throughput_spec(8, 200_000, 10_000), None)])
    for args in (["analyze", manifest, "--format", "json"], ["analyze", manifest],
                 ["sweep", sweep, "--format", "json"], ["sweep", sweep]):
        assert main([*map(str, args), f"--idle-threshold={value}"]) == 2
        assert capsys.readouterr() == ("", "--idle-threshold must be finite\n")


def test_negative_warmup_is_a_usage_error(tmp_path, capsys):
    manifest = write_run(random_spec(1), tmp_path / "run")
    sweep = _write_sweep(tmp_path, [(_throughput_spec(4, 100_000, 10_000), None),
                                    (_throughput_spec(8, 200_000, 10_000), None)])
    for args in (["analyze", manifest, "--format", "json"], ["sweep", sweep]):
        assert main([*map(str, args), "--warmup", "-1"]) == 2
        assert capsys.readouterr() == ("", "--warmup must be >= 0\n")


def test_breakdown_above_the_peak_is_a_warning(tmp_path, capsys):
    spec = random_spec(1)
    peak = generate(spec)[3].peak_mem_bytes
    manifest = write_run(spec, tmp_path / "run", MemoryBreakdown(peak - 10, 5, 5, 1))
    assert main(["analyze", str(manifest), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["peak_mem_bytes"] == peak
    assert err == (f"warning[MemoryBreakdownMismatch]: breakdown sums to {peak + 1} bytes, "
                   f"above observed peak {peak}\n")


def test_sweep_with_different_capacities_uses_the_first(tmp_path, capsysbinary):
    # The first run listed has the larger batch, so "first" is not "lowest batch".
    path = _write_sweep(tmp_path, [
        (_throughput_spec(8, 200_000, 10_000)._replace(device_mem_capacity_bytes=10 * GB), None),
        (_throughput_spec(4, 100_000, 10_000)._replace(device_mem_capacity_bytes=2 * GB), None),
    ])
    assert main(["sweep", str(path), "--format", "json"]) == 0
    out, err = capsysbinary.readouterr()
    assert err.decode() == (f"warning: runs declare different memory capacities "
                            f"{[2 * GB, 10 * GB]}; using the first\n")
    assert [(v["batch_size"], v["capacity_bytes"], v["verdict"])
            for v in json.loads(out)["feasibility"]] == [(4, 10 * GB, "fits"), (8, 10 * GB, "fits")]


def test_sweep_table_prints_intermediate_memory_growth(tmp_path, capsys):
    specs = [_throughput_spec(4, 100_000, 10_000), _throughput_spec(8, 200_000, 10_000)]
    breakdowns = [MemoryBreakdown(10**6, 10**6, 10**5, 40_000),
                  MemoryBreakdown(10**6, 10**6, 2 * 10**5, 80_000)]
    path = _write_sweep(tmp_path, list(zip(specs, breakdowns)))
    assert main(["sweep", str(path), "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4] == "intermediate memory growth: 40000 -> 80000 bytes"
    path = _write_sweep(tmp_path / "none", [(spec, None) for spec in specs])
    assert main(["sweep", str(path), "--format", "table"]) == 0
    assert "intermediate memory growth" not in capsys.readouterr().out


def test_invalid_synth_spec_leaves_no_directory(tmp_path, capsys):
    assert main(["synth", "--seed", "0", "--noise", "5", "--out", str(tmp_path / "cli")]) == 1
    # A negative --seed gets the --spec path's message, not numpy's ValueError.
    assert main(["synth", "--seed", "-1", "--out", str(tmp_path / "cli")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: seed must be >= 0"
    with pytest.raises(InvalidSpec):
        write_run(random_spec(1)._replace(warmup_steps=20), tmp_path / "lib")
    assert list(tmp_path.iterdir()) == []


@cache
def _fuzz_base(strip_step_ids):
    """(manifest, op lines, telemetry lines) of a small noisy synth run."""
    spec = random_spec(2, noise_amplitude=0.05)._replace(strip_step_ids=strip_step_ids)
    breakdown = MemoryBreakdown(10**6, 10**6, 10**4, 10**5)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_run(spec, tmp, memory_breakdown=breakdown)
        ops = (manifest.parent / "ops.jsonl").read_text().splitlines()
        telemetry = (manifest.parent / "telemetry.csv").read_text().splitlines()
        return manifest.read_bytes(), tuple(ops), tuple(telemetry)


_CELLS = ["", "x", "nan", "-inf", "-1", "-0", "0.5", "101", "1e308", "1e-320", " 7 ",
          str(2**63), str(-2**63 - 1), str(2**70)]
_OP_VALUES = [None, "", "x", "TPU", -1, 0, 1.5, True, 2**63, -2**63 - 1, 1e300, [], {}]
_LINES = ["", "garbage", "{}", "[1]", '{"op": "a"}', ",", "0,1", "\ufeff{}"]
_META_VALUES = [0, -1, 2**63 - 1, 2**63, 10**400]
_PATHS = ["", ".", "missing.jsonl", "ops\0.jsonl", "\ud800ops.jsonl"]
_BREAKDOWN_VALUES = [None, [1], -1, 2**63, 10**400]
_BYTE_EDITS = ["truncate", b"\x00", b"\xff", "crlf", "bom", "utf16"]


@st.composite
def mutated_runs(draw, batch_size=None, max_edits=4):
    """(manifest, op trace, telemetry) bytes after 1 to ``max_edits`` text edits and byte edits.

    A text edit changes a cell, an op field, a line, a manifest ``meta``
    integer, a trace path or the memory breakdown; byte edits then truncate a
    file, insert a NUL or 0xff byte, turn every newline into CRLF, put a UTF-8
    BOM before the first op line or the telemetry header, or re-encode a file
    as UTF-16 (with its BOM). With ``max_edits`` 0 the run is unchanged.
    """
    manifest, ops, telemetry = _fuzz_base(draw(st.booleans()))
    ops, telemetry, doc = list(ops), list(telemetry), json.loads(manifest)
    meta = doc["meta"]
    if batch_size is not None:
        meta["batch_size"] = batch_size
    # core_count sizes the expected telemetry header: one past the real count, or past the file.
    meta_values = {key: _META_VALUES for key, value in meta.items() if type(value) is int}
    meta_values["core_count"] = [0, -1, meta["core_count"] + 1, 10**6]
    for _ in range(draw(st.integers(min(1, max_edits), max_edits))):
        lines = draw(st.sampled_from([ops, telemetry, meta, "paths", "memory_breakdown"]))
        if lines == "paths":
            doc[draw(st.sampled_from(["op_trace_path", "telemetry_path"]))] = draw(
                st.sampled_from(_PATHS))
            continue
        if lines == "memory_breakdown":
            value = draw(st.sampled_from(_BREAKDOWN_VALUES))
            field = draw(st.sampled_from([None, "parameters_bytes", "gradients_bytes",
                                          "input_bytes", "intermediate_bytes"]))
            if field is None:
                doc["memory_breakdown"] = value
            elif isinstance(doc["memory_breakdown"], dict):
                doc["memory_breakdown"][field] = value
            continue
        if lines is meta:
            key = draw(st.sampled_from(sorted(meta_values)))
            meta[key] = draw(st.sampled_from(meta_values[key]))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["edit", "drop", "repeat", "insert"]))
        if action == "drop":
            del lines[i]
        elif action == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif action == "insert":
            lines.insert(i, draw(st.sampled_from(_LINES)))
        elif lines is telemetry:
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_CELLS))
            lines[i] = ",".join(cells)
        else:
            try:
                record = json.loads(lines[i])
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict):
                continue
            key = draw(st.sampled_from(["op", "device", "start_us", "end_us", "step", "layer",
                                        "pid"]))
            record[key] = draw(st.sampled_from(_OP_VALUES))
            lines[i] = json.dumps(record)
    files = [("\n".join(lines) + "\n").encode() for lines in (ops, telemetry)]
    for _ in range(draw(st.integers(0, min(2, max_edits)))):
        k = draw(st.sampled_from([0, 1]))
        at = draw(st.integers(0, len(files[k])))
        edit = draw(st.sampled_from(_BYTE_EDITS))
        if edit == "truncate":
            files[k] = files[k][:at]
        elif edit == "crlf":
            files[k] = files[k].replace(b"\n", b"\r\n")
        elif edit == "bom":
            files[k] = "\ufeff".encode() + files[k]
        elif edit == "utf16":
            files[k] = files[k].decode(errors="replace").encode("utf-16")
        else:
            files[k] = files[k][:at] + edit + files[k][at:]
    return json.dumps(doc).encode(), *files


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _fractions(doc, key=""):
    """Every utilization and idle-ratio number in a report document."""
    if isinstance(doc, dict):
        return [x for k, v in doc.items() for x in _fractions(v, k)]
    if isinstance(doc, list):
        return [x for v in doc for x in _fractions(v, key)]
    return [doc] if key.endswith("_util") or key.startswith("idle_ratio") else []


def _write_fuzz_run(directory, run):
    directory.mkdir(exist_ok=True)
    for name, data in zip(("run.json", "ops.jsonl", "telemetry.csv"), run):
        (directory / name).write_bytes(data)
    return directory / "run.json"


def _assert_report_or_diagnostic(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*map(str, args), "--format", "json"])
    assert code in (0, 1, 2)
    if code == 0:
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert all(0.0 <= x <= 1.0 + 1e-9 for x in _fractions(report))
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error", "warning"))


_SIGNALS = st.sampled_from(["gpu_util", "cpu_avg_util", "power_sys"])


@settings(max_examples=100)
@given(mutated_runs(), _SIGNALS)
def test_mutated_inputs_end_in_a_report_or_a_diagnostic(run, signal):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_report_or_diagnostic(["analyze", _write_fuzz_run(Path(tmp), run),
                                      "--signal", signal])


def _sweep_run(batch_size):
    """A sweep's run at this batch size: clean, or after one or two edits."""
    return mutated_runs(batch_size, max_edits=0) | mutated_runs(batch_size, max_edits=2)


@settings(max_examples=40)
@given(_sweep_run(4), _sweep_run(16), st.none() | _sweep_run(64), _SIGNALS)
def test_sweep_over_mutated_runs_ends_in_a_result_or_a_diagnostic(run4, run16, run64, signal):
    runs = [run for run in (run4, run16, run64) if run is not None]
    with tempfile.TemporaryDirectory() as tmp:
        names = [_write_fuzz_run(Path(tmp, f"r{i}"), run).relative_to(tmp).as_posix()
                 for i, run in enumerate(runs)]
        sweep = Path(tmp, "sweep.json")
        sweep.write_text(json.dumps({"model": "m", "runs": names}))
        _assert_report_or_diagnostic(["sweep", sweep, "--signal", signal])


def _run_past_int64(doc):
    """5 steps of 14 samples at 2**58 us: each field fits in int64, the last op's end does not."""
    doc.update(steps=5, sample_interval_us=2**58, step_duration_us=14 * 2**58,
               phases=[{**doc["phases"][0], "duration_fraction": 1.0}])


def _uncovered_step(doc):
    """A 4e9-sample step whose two phases get 2e9 + 1 and 2e9 samples: each fraction
    aligns with the grid within 1e-6, and the fractions sum to 1 within 1e-9."""
    doc.update(step_duration_us=4 * 10**9, sample_interval_us=1,
               phases=[{**doc["phases"][0], "duration_fraction": f} for f in (0.50000000025, 0.5)])


def _set_fractions(doc, *fractions):
    for phase, fraction in zip(doc["phases"], fractions):
        phase["duration_fraction"] = fraction


def _huge_power_with_noise(doc):
    doc["noise_amplitude"] = 0.5
    doc["phases"][1]["power_gpu_mw"] = 1.7e308  # finite, but not once noise scales it up


@pytest.mark.parametrize("edit, message", [
    (lambda d: _set_fractions(d, float("nan")), "phase duration fractions must sum to 1"),
    (lambda d: _set_fractions(d, float("inf"), -float("inf")),
     "phase duration fractions must sum to 1"),
    (lambda d: d["phases"][1].update(mem_bytes=2**63),
     "phase 1 memory must be in [0, 2**63) bytes, warmup steps included"),
    (lambda d: d.update(warmup_steps=1, warmup_mem_extra_bytes=2**63 - d["phases"][0]["mem_bytes"]),
     "phase 0 memory must be in [0, 2**63) bytes, warmup steps included"),
    (_run_past_int64, "steps * step_duration_us must be in [1, 2**63)"),
    (lambda d: d.update(seed=-1, noise_amplitude=0.05), "seed must be >= 0"),
    (lambda d: d["phases"][0].update(power_sys_mw=float("nan")),
     "phase 0 sys power must be finite and >= 0, noise included"),
    (_huge_power_with_noise,
     "phase 1 gpu power must be finite and >= 0, noise included"),
    (lambda d: d.update(batch_size=0, run_id=""),
     "run_id must be non-empty; batch_size must be >= 1, got 0"),
    (lambda d: d.update(warmup_steps=20), "warmup_steps must be <= steps (8), got 20"),
    (lambda d: d.update(warmup_steps=d["steps"] + 1), "warmup_steps must be <= steps (8), got 9"),
    (lambda d: d.update(batch_size=2**63), "batch_size must be < 2**63"),
    (lambda d: d.update(phases=[]), "at least one phase is required"),
    (_uncovered_step, "phase sample counts do not cover the step exactly"),
], ids=["nan_fraction", "inf_fractions", "mem_2pow63", "warmup_mem_2pow63", "run_2pow63_us",
        "negative_seed", "nan_power", "power_overflows_with_noise", "invalid_meta",
        "warmup_20_of_8_steps", "warmup_one_past_steps", "batch_2pow63", "no_phases",
        "uncovered_step"])
def test_invalid_synth_spec_is_a_diagnostic(tmp_path, edit, message):
    doc = to_doc(random_spec(1))
    edit(doc)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    result = _run_cli("synth", "--spec", spec, "--out", tmp_path / "run")
    assert result.returncode == 1
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    assert result.stderr == f"error: {message}\n".encode()


def _write(path, data):
    path.write_bytes(data)
    return path


def _op_trace_is_a_directory(tmp):
    manifest = write_run(random_spec(1), tmp / "run")
    doc = json.loads(manifest.read_text())
    return ["analyze", _write(manifest, json.dumps({**doc, "op_trace_path": "."}).encode())]


@pytest.mark.parametrize("args, message", [
    (lambda tmp: ["validate", _write(tmp / "run.json", b'{"meta": "\xff"}')], "is not UTF-8"),
    (lambda tmp: ["analyze", tmp], "Is a directory"),
    (_op_trace_is_a_directory,
     lambda tmp: f"error: op trace {tmp / 'run'} cannot be read: Is a directory"),
    (lambda tmp: ["synth", "--spec", tmp, "--out", tmp / "run"],
     lambda tmp: f"error: synth spec {tmp} cannot be read: Is a directory"),
    (lambda tmp: ["synth", "--spec", _write(tmp / "spec.json", b"\xff"), "--out", tmp / "run"],
     lambda tmp: f"error: synth spec {tmp / 'spec.json'} is not UTF-8: invalid start byte "
                 "at byte 0"),
    (lambda tmp: ["synth", "--out", _write(tmp / "run", b"")],
     lambda tmp: f"error: synth out {tmp / 'run'} cannot be written: File exists"),
], ids=["non_utf8_manifest", "analyze_dir", "op_trace_dir", "spec_dir", "non_utf8_spec",
        "out_is_a_file"])
def test_unreadable_or_unwritable_path_is_a_diagnostic(tmp_path, args, message):
    # A callable message is the exact line. PermissionError takes the same path
    # as a directory, but root, which may run the tests, can read any file.
    result = _run_cli(*args(tmp_path))
    assert result.returncode == 1
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    (line,) = result.stderr.decode().splitlines()
    if callable(message):
        assert line == message(tmp_path)
    else:
        assert line.startswith("error: ") and message in line

_LONG_INT = "1" + "0" * 5000  # past Python's 4300-digit int conversion limit; json.dumps fails too


def _long_int_batch(tmp):
    manifest = write_run(random_spec(1), tmp / "run")
    doc = json.loads(manifest.read_text())
    doc["meta"]["batch_size"] = 12345
    manifest.write_text(json.dumps(doc).replace("12345", _LONG_INT))
    return ["validate", manifest]


def _long_int_step(tmp):
    manifest = write_run(random_spec(1), tmp / "run")
    _edit_first_op(manifest, step=12345)
    ops = manifest.parent / "ops.jsonl"
    ops.write_text(ops.read_text().replace("12345", _LONG_INT, 1))
    return ["validate", manifest]


def _long_int_seed(tmp):
    spec = tmp / "spec.json"
    spec.write_text(json.dumps({**to_doc(random_spec(1)), "seed": 12345})
                    .replace("12345", _LONG_INT))
    return ["synth", "--spec", spec, "--out", tmp / "run"]


def _long_int_sweep(tmp):
    path = tmp / "sweep.json"
    path.write_text('{"model": "m", "runs": [], "seed": %s}' % _LONG_INT)
    return ["sweep", path]


@pytest.mark.parametrize("args, message", [
    (_long_int_batch, "error: manifest {tmp}/run/run.json is not valid JSON: Exceeds the limit"),
    (_long_int_step, "error[MalformedLine] line 1: invalid JSON: Exceeds the limit"),
    (_long_int_seed, "error: synth spec {tmp}/spec.json is not valid JSON: Exceeds the "
                     "limit"),
    (_long_int_sweep, "error: sweep manifest {tmp}/sweep.json is not valid JSON: Exceeds the limit"),
], ids=["manifest_batch_size", "op_step", "spec_seed", "sweep_manifest"])
def test_integers_past_the_digit_limit_are_diagnostics(tmp_path, args, message):
    result = _run_cli(*args(tmp_path))
    assert result.returncode == 1
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    (line,) = result.stderr.decode().splitlines()
    assert line.startswith(message.format(tmp=tmp_path))


def test_nul_in_a_manifest_path_is_a_diagnostic(tmp_path, capsys):
    manifest = write_run(random_spec(1), tmp_path / "run")
    doc = json.loads(manifest.read_text())
    bad = tmp_path / "run" / "nul.json"
    bad.write_text(json.dumps({**doc, "op_trace_path": "ops\u0000.jsonl"}))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"model": "m", "runs": ["run/run.json", "run/run\u0000.json"]}))
    for args, message in [(["analyze", bad], f"error: manifest {bad} has a NUL character"),
                          (["validate", bad], f"error: manifest {bad} has a NUL character"),
                          (["sweep", sweep], f"error: sweep manifest {sweep} has a NUL character")]:
        assert main(list(map(str, args))) == 1
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(message)


def test_unencodable_manifest_path_is_a_diagnostic(tmp_path):
    # A lone surrogate has no file-system bytes; the JSON file holds it as the escape \ud800.
    manifest = write_run(random_spec(1), tmp_path / "run")
    doc = json.loads(manifest.read_text())
    bad = tmp_path / "run" / "surrogate.json"
    bad.write_text(json.dumps({**doc, "op_trace_path": "\ud800ops.jsonl"}))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"model": "m", "runs": ["run/run.json", "run/\ud800.json"]}))
    for args, where, path in [(["analyze", bad], f"manifest {bad}", "\\ud800ops.jsonl"),
                              (["validate", bad], f"manifest {bad}", "\\ud800ops.jsonl"),
                              (["sweep", sweep], f"sweep manifest {sweep}", "run/\\ud800.json")]:
        result = _run_cli(*args)
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.decode().splitlines() == [
            f"error: {where} has a path the file system cannot encode: '{path}'"]


_RUNS = ["a/run.json", "b/run.json"]


@pytest.mark.parametrize("doc", [
    {"runs": _RUNS}, {"model": 3, "runs": _RUNS}, {"model": "m"},
    {"model": "m", "runs": "a/run.json"}, {"model": "m", "runs": {"a": "a/run.json"}}, _RUNS,
    {"model": "m", "runs": ["a/run.json", 5]}, {"model": "m", "runs": ["a/run.json", None]},
    {"model": "m", "runs": ["a/run.json", "b\u0000/run.json"]},
    {"model": "m", "runs": ["a/run.json", "\ud800.json"]},
    {"model": "m", "runs": ["a/run.json", "b"]}, {"model": "m", "runs": ["a/run.json", "c.json"]},
    {"model": "m", "runs": ["a/run.json", "sweep.json"]},
    {"model": "m", "runs": ["a/run.json", "b/ops.jsonl"]},
    {"model": "m", "runs": ["a/run.json", "b/telemetry.csv"]},
    {"model": "m", "runs": []}, {"model": "m", "runs": ["a/run.json"]},
    {"model": "m", "runs": ["a/run.json", "a/run.json"]},
    b'{"model": "m", "runs": ["a/run.json", "b/run.json"]',
    "\ufeff".encode() + json.dumps({"model": "m", "runs": _RUNS}).encode(),
    json.dumps({"model": "m", "runs": _RUNS}).encode("utf-16"),
], ids=["no_model", "int_model", "no_runs", "str_runs", "dict_runs", "list_document",
        "int_entry", "null_entry", "nul_entry", "unencodable_entry", "directory_entry",
        "missing_entry", "sweep_manifest_entry", "op_trace_entry", "telemetry_entry",
        "zero_runs", "one_run", "duplicate_run", "invalid_json", "utf8_bom", "utf16"])
def test_malformed_sweep_manifest_is_a_diagnostic(tmp_path, capsys, doc):
    write_run(random_spec(1), tmp_path / "a")  # batch 8
    write_run(random_spec(2), tmp_path / "b")  # batch 16
    sweep = tmp_path / "sweep.json"
    sweep.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    assert main(["sweep", str(sweep), "--format", "json"]) in (1, 2)
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[0].startswith("error")
    if doc == {"model": "m", "runs": ["a/run.json", "b"]}:  # directory_entry
        assert err == f"error: manifest {tmp_path / 'b'} cannot be read: Is a directory\n"


def _unlabelled_run(directory, interval, times, gpu, op):
    """The manifest of a run of one unlabelled op and a sample at each of ``times``, with
    GPU utilization ``gpu``, at the declared sample interval."""
    meta = RunMeta(run_id="unlabelled", batch_size=1, core_count=1, sample_interval_us=interval)
    samples = [TelemetrySample(t, (0.5,), g, 1.0, 1.0, 1.0, 4.0, 100) for t, g in zip(times, gpu)]
    op_table, sample_table = tables([op], samples)
    (directory / "ops.jsonl").write_bytes(b"".join(op_trace_chunks(op_table)))
    (directory / "telemetry.csv").write_bytes(b"".join(telemetry_chunks(sample_table)))
    manifest = directory / "run.json"
    manifest.write_bytes(write_manifest(RunManifest(meta, "ops.jsonl", "telemetry.csv")))
    return manifest


def test_samples_on_under_half_the_period_grid_are_a_diagnostic(tmp_path):
    # Unlabelled, 10 samples 10**12 us apart at a declared 1 us interval: a 9e12-point grid.
    manifest = _unlabelled_run(tmp_path, 1, [i * 10**12 for i in range(10)], [0.0, 1.0] * 5,
                               OpEvent("a", "GPU", 0, 9 * 10**12 + 1))
    result = _run_cli("analyze", manifest)
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr == (b"error: 10 samples cover under half of the 9000000000001-point "
                             b"resampling grid at the 1 us sample interval\n")


@pytest.mark.parametrize("times, gpu, op, message", [
    (range(0, 70, 10), [0.0, 1.0] * 4, OpEvent("a", "GPU", 0, 70),
     "need at least 8 samples, got 7"),
    (range(10), [0.0, 1.0] * 5, OpEvent("a", "GPU", 0, 10),
     "run spans fewer than the minimum number of sample intervals"),
    # A 40 us period, found with confidence 1, and an op that starts 20 us before the end.
    (range(0, 400, 10), [1.0, 1.0, 0.0, 0.0] * 10, OpEvent("a", "GPU", 380, 390),
     "inferred period does not fit a single complete window"),
], ids=["seven_samples", "samples_within_one_interval", "first_op_starts_late"])
def test_unlabelled_runs_without_a_step_window_are_diagnostics(tmp_path, times, gpu, op, message):
    result = _run_cli("analyze", _unlabelled_run(tmp_path, 10, times, gpu, op), "--format", "json")
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr == f"error: {message}\n".encode()


def _spec_edits():
    """(path into a small spec document, value) pairs that keep the row count bounded.

    The row count is steps * step_duration_us / sample_interval_us, so steps and
    step_duration_us are never raised and sample_interval_us never lowered.
    """
    doc = to_doc(random_spec(1, noise_amplitude=0.05))
    paths = [(key,) for key in doc]
    for i, phase in enumerate(doc["phases"]):
        paths += [("phases", i, key) for key in phase]
        paths += [("phases", i, "cpu_core_util", c) for c in range(len(phase["cpu_core_util"]))]
    values = [float("nan"), float("inf"), -float("inf"), -1, 0, 2**63, ""]
    unbounded = {("steps", 2**63), ("step_duration_us", 2**63), ("sample_interval_us", -1),
                 ("sample_interval_us", 0)}
    return doc, [(path, v) for path in paths for v in values if (path[-1], v) not in unbounded]


_SPEC_DOC, _SPEC_EDITS = _spec_edits()


@settings(max_examples=120)
@given(st.sampled_from(_SPEC_EDITS))
def test_synth_spec_ends_in_a_valid_run_or_a_diagnostic(edit):
    path, value = edit
    doc = copy.deepcopy(_SPEC_DOC)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp, "spec.json")
        spec.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["synth", "--spec", str(spec), "--out", str(Path(tmp, "run"))])
            validated = main(["validate", str(Path(tmp, "run", "run.json"))]) if code == 0 else None
    assert code in (0, 1)
    if code == 0:
        assert validated == 0, err.getvalue()
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


def test_sweep_releases_each_run_before_it_reads_the_next(tmp_path, capsysbinary, monkeypatch):
    specs = [(_throughput_spec(b, 100_000, 10_000), None) for b in (4, 8, 16)]
    path = _write_sweep(tmp_path, specs)
    samples, alive = [], []

    def spy(manifest):
        alive.append([ref() is not None for ref in samples])
        run = load_run(manifest)
        samples.append(weakref.ref(run.samples))
        return run

    monkeypatch.setattr(cli, "load_run", spy)
    assert main(["sweep", str(path), "--format", "json"]) == 0
    assert alive == [[], [False], [False, False]]


def test_analyze_releases_the_run_before_it_writes_the_report(run_dir, capsysbinary,
                                                              monkeypatch):
    samples, alive = [], []

    def load(manifest):
        run = load_run(manifest)
        samples.append(weakref.ref(run.samples))
        return run

    def pieces(obj, indent, write=ingest._pieces):
        alive.append(samples[0]() is not None)
        return write(obj, indent)

    monkeypatch.setattr(cli, "load_run", load)
    monkeypatch.setattr(ingest, "_pieces", pieces)
    assert main(["analyze", str(run_dir[0]), "--format", "json"]) == 0
    assert alive and not any(alive)


_STREAMED = settings(max_examples=8, suppress_health_check=[HealthCheck.function_scoped_fixture])


@_STREAMED
@given(seed=st.integers(0, 2**16), noise=st.sampled_from([0.0, 0.05]),
       signal=st.sampled_from(SIGNALS))
def test_analyze_json_stdout_is_write_reports_bytes(capsysbinary, seed, noise, signal):
    # The CLI streams the report to stdout's buffer; write_report collects it in memory.
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_run(random_spec(seed, noise_amplitude=noise), Path(tmp, "run"))
        capsysbinary.readouterr()
        assert main(["analyze", str(manifest), "--format", "json", "--signal", signal]) == 0
        out = capsysbinary.readouterr().out
        assert out == write_report(build_report(load_run(manifest), signal=signal))


@_STREAMED
@given(seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=3),
       rail=st.sampled_from(["sys", "gpu"]))
def test_sweep_json_stdout_is_write_reports_bytes(capsysbinary, seeds, rail):
    with tempfile.TemporaryDirectory() as tmp:
        entries = [(random_spec(seed, noise_amplitude=0.05)._replace(batch_size=4 << i), None)
                   for i, seed in enumerate(seeds)]
        path = _write_sweep(Path(tmp), entries)
        capsysbinary.readouterr()
        assert main(["sweep", str(path), "--format", "json", "--rail", rail]) == 0
        out = capsysbinary.readouterr().out
        runs = [load_run(Path(tmp, f"b{i}", "run.json")) for i in range(len(seeds))]
        points = [SweepPoint(run.meta.batch_size, build_report(run)) for run in runs]
        result = build_sweep_result("m", points, runs[0].meta.device_mem_capacity_bytes, rail=rail)
        assert out == write_report(result)
