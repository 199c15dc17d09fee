import codecs
import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import mk_run, mk_sample, table_bytes, tables, traced_peak, two_stream_ops
from oracles import (OpEvent, dump_oracle, op_order_oracle, parse_op_trace_oracle,
                     parse_telemetry_oracle, rows, sort_ops_oracle, to_doc)
from traceprof import ingest
from traceprof.errors import (InvalidSpec, ManifestError, TraceProfError,
                              TraceValidationError)
from traceprof.ingest import (
    RunManifest,
    load_manifest,
    load_run,
    load_sweep_manifest,
    op_trace_chunks,
    parse_op_trace,
    parse_telemetry,
    telemetry_chunks,
    write_manifest,
    write_report,
)
from traceprof.metrics import build_report
from traceprof.model import (
    RAILS,
    Issue,
    MemoryBreakdown,
    RunMeta,
    validate_run,
)
from traceprof.sweep import SweepPoint, build_sweep_result
from traceprof.synth import generate, random_spec, spec_from_dict

_PHASE = to_doc(random_spec(3))["phases"][0]


def test_parse_op_trace_direct_mapping():
    line = b'{"op":"MatMul","device":"GPU","step":0,"start_us":100,"end_us":350}\n'
    events, issues = parse_op_trace(line)
    assert issues == []
    assert rows(events) == [OpEvent("MatMul", "GPU", 100, 350, layer=None, step_id=0)]


def test_parse_op_trace_empty_file():
    events, issues = parse_op_trace(b"")
    assert rows(events) == []
    assert any(i.code == "EmptyTrace" for i in issues)


def test_parse_op_trace_unknown_device_names_line():
    data = b'{"op":"a","device":"GPU","start_us":0,"end_us":1}\n' \
           b'{"op":"b","device":"TPU","start_us":0,"end_us":1}\n'
    events, issues = parse_op_trace(data)
    assert len(events) == 1
    bad = [i for i in issues if i.code == "UnknownDevice"]
    assert bad and bad[0].line_no == 2


def test_parse_op_trace_unknown_key_warns_once():
    data = b'{"op":"a","device":"GPU","start_us":0,"end_us":1,"pid":7}\n' \
           b'{"op":"b","device":"GPU","start_us":2,"end_us":3,"pid":8}\n'
    events, issues = parse_op_trace(data)
    assert len(events) == 2
    warnings = [i for i in issues if i.code == "UnknownKey"]
    assert len(warnings) == 1 and warnings[0].severity == "warning"


def test_parse_op_trace_unknown_keys_warn_in_line_order():
    # String hashes, and so set order, change from process to process.
    line = b'{"op":"a","pid":1,"device":"GPU","tid":2,"start_us":0,"cat":"x","end_us":1,"ts":3}'
    code = ("import sys; from traceprof.ingest import parse_op_trace; "
            "print([i.message for i in parse_op_trace(sys.stdin.buffer.read())[1]])")
    outputs = [
        subprocess.run([sys.executable, "-c", code], input=line, capture_output=True, check=True,
                       env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")
    ]
    expected = [f"ignoring unknown key {key!r}" for key in ("pid", "tid", "cat", "ts")]
    assert outputs == [f"{expected}\n".encode()] * 2


def _telemetry_file(rows, core_count=6):
    header = "t_us," + ",".join(f"c{i}" for i in range(core_count)) + \
        ",gpu,p_cpu_mw,p_gpu_mw,p_mem_mw,p_sys_mw,mem_bytes"
    return ("\n".join([header, *rows]) + "\n").encode()


def test_parse_telemetry_percent_to_fraction():
    row = "0,50,0,0,0,0,0,100,500,4000,2000,7000,1000000"
    samples, issues = parse_telemetry(_telemetry_file([row]), core_count=6)
    assert issues == []
    (s,) = rows(samples)
    assert s.gpu_util == 1.0
    assert s.cpu_core_util[0] == 0.5
    assert s.power_sys_mw == 7000.0
    assert s.mem_used_bytes == 1_000_000


def test_parse_telemetry_out_of_range():
    row = "0,50,0,0,0,0,0,101,500,4000,2000,7000,1000000"
    samples, issues = parse_telemetry(_telemetry_file([row]), core_count=6)
    assert rows(samples) == []
    assert any(i.code == "UtilizationOutOfRange" for i in issues)


def test_parse_telemetry_negative_power():
    row = "0,50,0,0,0,0,0,10,-1,4000,2000,7000,1000000"
    _, issues = parse_telemetry(_telemetry_file([row]), core_count=6)
    assert any(i.code == "NegativePower" for i in issues)


def test_parse_telemetry_three_rows_in_order():
    lines = [
        "0,10,0,0,0,0,0,10,1,1,1,1,5",
        "10000,20,0,0,0,0,0,20,1,1,1,1,5",
        "20000,30,0,0,0,0,0,30,1,1,1,1,5",
    ]
    samples, issues = parse_telemetry(_telemetry_file(lines), core_count=6)
    assert issues == []
    assert [s.t for s in rows(samples)] == [0, 10_000, 20_000]


def test_parse_telemetry_unknown_column_warns():
    header = "t_us,c0,gpu,p_cpu_mw,p_gpu_mw,p_mem_mw,p_sys_mw,mem_bytes,extra"
    data = (header + "\n0,50,10,1,1,1,1,5,99\n").encode()
    samples, issues = parse_telemetry(data, core_count=1)
    assert len(samples) == 1
    assert any(i.code == "UnknownColumn" and i.severity == "warning" for i in issues)


def test_parse_telemetry_extra_core_column_is_mismatch():
    header = "t_us,c0,c1,gpu,p_cpu_mw,p_gpu_mw,p_mem_mw,p_sys_mw,mem_bytes"
    data = (header + "\n0,50,60,10,1,1,1,1,5\n").encode()
    _, issues = parse_telemetry(data, core_count=1)
    assert any(i.code == "CoreCountMismatch" for i in issues)


def test_core_count_past_the_header_length_is_one_diagnostic():
    header = "t_us,c0,gpu,p_cpu_mw,p_gpu_mw,p_mem_mw,p_sys_mw,mem_bytes"
    data = f"\n{header}\n0,50,10,1,1,1,1,5\n".encode()
    # No list of 2**62 column names is built: one issue, at the header's line.
    samples, issues = parse_telemetry(data, core_count=2**62)
    assert len(samples) == 0
    assert issues == [Issue("CoreCountMismatch", f"run declares {2**62} cores, more than its "
                            f"{len(header)}-character header can name", line_no=2)]
    # A header as long as the core count is checked column by column, as before.
    _, issues = parse_telemetry(data, core_count=len(header))
    assert [i.code for i in issues] == ["MalformedLine"]
    assert issues[0].message.startswith("header missing columns ['c1', 'c2', ")


_ABSENT = object()
_OP_FIELD_VALUES = {
    "op": ["a", "b", "", 1, None],
    "device": ["GPU", "CPU", "TPU", None, 1, ["GPU"]],
    "start_us": [0, 3, -2, 3.0, 2.5, True, "1", None, -2**63],
    "end_us": [5, 9, 0, 5.0, None, 2**63 - 1],
    "step": [None, 0, 2, -1, 1.0, 1.5, "2", False, 2**63 - 1],
    "layer": [None, "", "l1", 5],
    "pid": [7],
    "tid": [[1]],
}
# Integers outside int64: lines the parser rejects, unlike the OpEvent oracle.
_OUT_OF_RANGE = {"start_us": [-2**63 - 1], "end_us": [2**70, 2e300], "step": [2**63]}


@st.composite
def op_records(draw, out_of_range=False):
    """One op-trace line: a valid record with some fields changed or removed."""
    record = {"op": "a", "device": "GPU", "start_us": 0, "end_us": 5}
    for key, values in _OP_FIELD_VALUES.items():
        if draw(st.booleans()):
            extra = _OUT_OF_RANGE.get(key, []) if out_of_range else []
            value = draw(st.sampled_from([*values, *extra, _ABSENT]))
            if value is _ABSENT:
                record.pop(key, None)
            else:
                record[key] = value
    return json.dumps(record)


def op_lines(out_of_range=False):
    return st.lists(
        st.one_of(
            st.just('{"op":"a","device":"GPU","start_us":0,"end_us":5}'),
            st.just('{"op":"b","device":"CPU","start_us":3,"end_us":9}'),
            st.just("not json at all"),
            st.just('{"op":"","device":"GPU","start_us":0,"end_us":1}'),
            st.just('{"op":"c","device":"TPU","start_us":0,"end_us":1}'),
            st.just(""),
            st.just("   "),
            st.just("[1, 2]"),
            st.just('{"op":"a","device":"GPU","start_us":0,"end_us":5} x'),
            st.just('\ufeff{"op":"a","device":"GPU","start_us":0,"end_us":5}'),
            st.just(' {"op":"a","device":"GPU","start_us":0,"end_us":5}\t'),
            op_records(out_of_range),
        ),
        max_size=30,
    )


@given(op_lines(out_of_range=True))
def test_parsing_never_loses_records(lines):
    data = ("\n".join(lines) + "\n").encode()
    events, issues = parse_op_trace(data)
    non_blank = sum(1 for line in lines if line.strip())
    line_errors = [i for i in issues if i.severity == "error" and i.code != "EmptyTrace"]
    assert len(events) + len(line_errors) == non_blank


@given(op_lines())
def test_parse_op_trace_matches_oracle(lines):
    data = ("\n".join(lines) + "\n").encode()
    events, issues = parse_op_trace(data)
    want_events, want_issues = parse_op_trace_oracle(data)
    assert rows(events) == sort_ops_oracle(want_events)  # ops leave the reader in run order
    assert issues == want_issues


def _sample_run():
    samples = [
        mk_sample(t * 10_000, cores=(0.5, 0.0), gpu=0.75, p_cpu=100, p_gpu=800,
                  p_mem=300, p_sys=1500, mem=10**9)
        for t in range(12)
    ]
    ops = [
        OpEvent("conv", "GPU", s * 40_000, (s + 1) * 40_000, step_id=s)
        for s in range(3)
    ]
    return mk_run(samples, ops, batch=4, warmup=1)


def test_write_report_deterministic():
    report = build_report(_sample_run())
    assert write_report(report, "json") == write_report(report, "json")
    assert write_report(report, "table") == write_report(report, "table")


def _synth_report(noise: float, batch: int = 4, breakdown=None):
    spec = random_spec(7, noise_amplitude=noise)._replace(
        batch_size=batch, steps=8, warmup_steps=2, run_id=f"synth-b{batch}")
    meta, ops, samples, _ = generate(spec)
    return build_report(validate_run(meta, ops, samples, breakdown))


def _sweep_result():
    points = [
        SweepPoint(batch, _synth_report(0.05, batch, MemoryBreakdown(1, 2, 3, batch * 10)))
        for batch in (4, 16, 64)
    ]
    return build_sweep_result("m", points, capacity_bytes=6 * 10**9)


REPORTS = {
    "sample": lambda: build_report(_sample_run()),
    "analyze_noiseless": lambda: _synth_report(0.0),
    "analyze_noisy": lambda: _synth_report(0.05),
    "sweep": _sweep_result,
}


def test_report_json_round_trip_equality():
    for case, build in REPORTS.items():
        report = build()
        assert write_report(report, "json") == dump_oracle(report), case


# Floats whose shortest repr is hard to get right: signed zero, the least
# subnormal, the least normal, the largest magnitudes and 17-digit values.
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                0.1 + 0.2, 1 / 3, 2.0**53 + 2.0, 123456789.01234567]
_json_floats = st.one_of(st.sampled_from(_EDGE_FLOATS),
                         st.floats(allow_nan=False, allow_infinity=False))
_BASE_REPORT = _synth_report(0.05)


@st.composite
def _reports(draw, steps_may_be_empty=True):
    """The base report with drawn per-step and run-level floats, run id and op names.

    Each per-step energy dict gets its keys in a drawn order: the writer sorts them.
    Unless ``steps_may_be_empty`` is false, some reports have no per-step rows.
    """
    base = _BASE_REPORT

    def floats(n):
        return tuple(draw(_json_floats) for _ in range(n))

    per_step = () if steps_may_be_empty and draw(st.booleans()) else tuple(
        m._replace(per_core_util=floats(len(m.per_core_util)), cpu_avg_util=draw(_json_floats),
                   gpu_util=draw(_json_floats), idle_ratio_per_core=floats(len(m.per_core_util)),
                   energy_by_rail_joules=dict(zip(draw(st.permutations(RAILS)), floats(4))),
                   throughput_samples_per_sec=draw(_json_floats))
        for m in base.per_step
    )
    names = draw(st.lists(st.text(), min_size=len(base.per_op), max_size=len(base.per_op),
                          unique=True))
    return base._replace(run_id=draw(st.text()), gpu_util=draw(_json_floats),
                         per_step=per_step, per_op=dict(zip(names, base.per_op.values())))


@settings(max_examples=40)
@given(_reports())
def test_report_writer_bytes_equal_the_stdlib_encoder(report):
    assert write_report(report, "json") == dump_oracle(report)


@settings(max_examples=20)
@given(_reports(), _reports(), st.text())
def test_sweep_writer_bytes_equal_the_stdlib_encoder(lo, hi, model):
    result = _sweep_result()._replace(model=model, points=(SweepPoint(4, lo), SweepPoint(16, hi)))
    assert write_report(result, "json") == dump_oracle(result)


_maybe_bytes = st.none() | st.integers(0, 2**63 - 1)


@given(st.builds(RunManifest, st.builds(RunMeta, st.text(), st.integers(1, 2**63 - 1),
                                        st.integers(1, 64), st.integers(0, 2**63 - 1),
                                        st.integers(1, 10**9), st.integers(0, 100)),
                 st.text(), st.text(),
                 st.none() | st.builds(MemoryBreakdown, _maybe_bytes, _maybe_bytes,
                                       _maybe_bytes, _maybe_bytes)))
def test_manifest_writer_bytes_equal_the_stdlib_encoder(manifest):
    assert write_manifest(manifest) == dump_oracle(manifest)


@settings(max_examples=20)
@given(_reports(steps_may_be_empty=False), st.sampled_from([math.inf, -math.inf, math.nan]),
       st.data())
def test_non_finite_per_step_value_is_a_strict_json_error(report, bad, data):
    k = data.draw(st.integers(0, len(report.per_step) - 1))
    field = data.draw(st.sampled_from(["per_core_util", "cpu_avg_util", "gpu_util",
                                       "idle_ratio_per_core", "energy_by_rail_joules",
                                       "throughput_samples_per_sec"]))
    row = report.per_step[k]
    value = getattr(row, field)
    if isinstance(value, tuple):
        value = (*value[:-1], bad)
    elif isinstance(value, dict):
        value = {**value, "mem": bad}
    else:
        value = bad
    broken = report._replace(per_step=(*report.per_step[:k], row._replace(**{field: value}),
                                        *report.per_step[k + 1:]))
    with pytest.raises(ValueError) as stdlib:
        dump_oracle(broken)
    message = f"cannot write strict JSON: {stdlib.value}"
    with pytest.raises(TraceProfError, match=f"^{re.escape(message)}$"):
        write_report(broken, "json")


def test_run_whose_steps_hold_no_sample_reports_no_steps():
    # 250 us steps every 10 intervals, each between two 1 ms samples: no step window
    # holds a sample, so every step is dropped and no step pair is left to correlate.
    samples = [mk_sample(t, gpu=0.5, p_sys=1000.0) for t in range(0, 60_000, 1_000)]
    ops = [OpEvent("op", "GPU", s * 10_000 + 300, s * 10_000 + 550, step_id=s)
           for s in range(5)]
    report = build_report(mk_run(samples, ops, interval=1_000, warmup=0))
    assert report.per_step == () and report.predictability is None
    assert write_report(report, "json") == dump_oracle(report)
    table = write_report(report, "table").decode().splitlines()
    header = table.index("step  warmup   duration (us)    gpu util       sys J")
    assert table[header + 1] == ""  # no step rows


def test_sweep_table_mean_step_energy_is_correctly_rounded():
    # A plain sum of these per-step energies rounds each partial sum; fsum rounds once.
    energies = [2.0**53, 1.0, 1.0]
    assert f"{math.fsum(energies) / 3:.6f}" != f"{sum(energies) / 3:.6f}"
    result = _sweep_result()
    lo, mid, hi = result.points
    steps = [m for m in lo.report.per_step if not m.is_warmup][:3]
    steps = tuple(m._replace(energy_by_rail_joules={**m.energy_by_rail_joules, "sys": e})
                  for m, e in zip(steps, energies))
    lo = lo._replace(report=lo.report._replace(per_step=steps))
    warm = tuple(m._replace(is_warmup=True) for m in mid.report.per_step)
    mid = mid._replace(report=mid.report._replace(per_step=warm))
    table = write_report(result._replace(points=(lo, mid, hi)), "table").decode().splitlines()
    rows = {row.split()[0]: row for row in table if row.split()[:1] in (["4"], ["16"])}
    assert f"{math.fsum(energies) / 3:.6f}" in rows["4"]
    assert f"{sum(energies) / 3:.6f}" not in rows["4"]
    assert f"{'nan':>12}" in rows["16"]  # no non-warmup step


def test_report_with_empty_per_op_map_valid_json():
    report = build_report(_sample_run())
    doc = json.loads(write_report(report, "json"))
    assert isinstance(doc["per_op"], dict)
    assert doc["schema_version"] == 1


def test_manifest_warmup_defaults_to_three_steps(tmp_path):
    doc = {
        "meta": {"run_id": "r", "batch_size": 4, "core_count": 2},
        "op_trace_path": "ops.jsonl",
        "telemetry_path": "telemetry.csv",
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    manifest = load_manifest(path)
    assert manifest.meta.warmup_steps == 3
    assert manifest.meta.sample_interval_us == 10_000


def test_manifest_round_trip(tmp_path):
    meta = RunMeta("r1", batch_size=8, core_count=2, sample_interval_us=5_000)
    for breakdown in (
        None,
        MemoryBreakdown(intermediate_bytes=2_200_000_000),
        MemoryBreakdown(1_000, 2_000, 3_000, 2_200_000_000),
    ):
        manifest = RunManifest(
            meta=meta,
            op_trace_path="ops.jsonl",
            telemetry_path="telemetry.csv",
            memory_breakdown=breakdown,
        )
        path = tmp_path / "run.json"
        path.write_bytes(write_manifest(manifest))
        assert load_manifest(path) == manifest


_MANIFEST = {
    "meta": {"run_id": "r", "batch_size": 4, "core_count": 2},
    "op_trace_path": "ops.jsonl",
    "telemetry_path": "telemetry.csv",
}


@pytest.mark.parametrize("edit, message", [
    ({"meta": {"run_id": "r", "core_count": 2}}, "manifest.meta.batch_size is missing"),
    ({"meta": None}, "manifest.meta must be an object, got None"),
    ({"op_trace_path": 3}, "manifest.op_trace_path must be str, got 3"),
])
def test_manifest_type_errors_name_the_field(tmp_path, edit, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**_MANIFEST, **edit}))
    with pytest.raises(ManifestError) as exc:
        load_manifest(path)
    assert message in str(exc.value)


@pytest.mark.parametrize("edit, message", [
    ({"steps": "5"}, "spec.steps must be int, got '5'"),
    ({"noise_amplitude": False}, "spec.noise_amplitude must be float, got False"),
    ({"phases": None}, "spec.phases must be a list, got None"),
    ({"phases": [{"duration_fraction": 1.0}]}, "spec.phases[0].cpu_core_util is missing"),
    ({"phases": [{**_PHASE, "op_device": "TPU"}]},
     "spec.phases[0].op_device must be one of ['CPU', 'GPU'], got 'TPU'"),
    ({"phases": [{**_PHASE, "cpu_core_util": [0.5, "x"]}]},
     "spec.phases[0].cpu_core_util[1] must be float, got 'x'"),
])
def test_spec_document_type_errors_name_the_field(edit, message):
    doc = {**to_doc(random_spec(3)), **edit}
    with pytest.raises(InvalidSpec) as exc:
        spec_from_dict(doc)
    assert message in str(exc.value)


def test_manifest_that_is_not_an_object_is_a_diagnostic(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[1, 2]")
    with pytest.raises(ManifestError, match=rf"^manifest must be an object, got \[1, 2\] in "):
        load_manifest(path)


def test_sweep_manifest_model_must_be_a_string(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"model": 5, "runs": ["a/run.json", "b/run.json"]}))
    with pytest.raises(ManifestError, match="needs a string 'model' and 'runs'"):
        load_sweep_manifest(path)


def test_load_run_resolves_paths_relative_to_manifest(tmp_path):
    run = _sample_run()
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "ops.jsonl").write_bytes(b"".join(op_trace_chunks(run.ops)))
    (sub / "telemetry.csv").write_bytes(b"".join(telemetry_chunks(run.samples)))
    manifest = RunManifest(run.meta, "ops.jsonl", "telemetry.csv")
    (sub / "run.json").write_bytes(write_manifest(manifest))
    loaded = load_run(sub / "run.json")
    assert rows(loaded.ops) == rows(run.ops)
    assert rows(loaded.samples) == rows(run.samples)


def test_load_run_missing_telemetry_names_path(tmp_path):
    run = _sample_run()
    (tmp_path / "ops.jsonl").write_bytes(b"".join(op_trace_chunks(run.ops)))
    manifest = RunManifest(run.meta, "ops.jsonl", "missing.csv")
    (tmp_path / "run.json").write_bytes(write_manifest(manifest))
    with pytest.raises(ManifestError, match="missing.csv"):
        load_run(tmp_path / "run.json")


def test_load_run_collects_parse_errors(tmp_path):
    run = _sample_run()
    bad_ops = b"".join(op_trace_chunks(run.ops)) + b"garbage line\n"
    (tmp_path / "ops.jsonl").write_bytes(bad_ops)
    (tmp_path / "telemetry.csv").write_bytes(b"".join(telemetry_chunks(run.samples)))
    (tmp_path / "run.json").write_bytes(
        write_manifest(RunManifest(run.meta, "ops.jsonl", "telemetry.csv"))
    )
    with pytest.raises(TraceValidationError) as exc:
        load_run(tmp_path / "run.json")
    assert any(i.code == "MalformedLine" for i in exc.value.issues)


def test_load_run_of_an_out_of_order_trace_holds_one_op_table(tmp_path):
    # Two streams written one after the other: the reader sorts the ops into run
    # order itself, one column at a time, and validation then copies nothing.
    ops = two_stream_ops(100_000)
    file_order = ops.take(np.r_[0:len(ops):2, 1:len(ops):2])
    _, samples = tables([], [mk_sample(t) for t in range(0, 500_000, 10_000)])
    (tmp_path / "ops.jsonl").write_bytes(b"".join(op_trace_chunks(file_order)))
    (tmp_path / "telemetry.csv").write_bytes(b"".join(telemetry_chunks(samples)))
    meta = RunMeta("r", batch_size=1, core_count=2)
    (tmp_path / "run.json").write_bytes(
        write_manifest(RunManifest(meta, "ops.jsonl", "telemetry.csv")))
    run, peak = traced_peak(load_run, tmp_path / "run.json")
    assert rows(run.ops) == rows(ops)
    assert peak < 2 * table_bytes(run.ops)  # the file-order table and a sorted copy are 2x


# ---------------------------------------------------------------------------
# Column readers: whatever path a file takes, the result is the oracle's
# ---------------------------------------------------------------------------


def _assert_same_columns(got, want):
    for col in got._columns:
        a, b = getattr(got, col), getattr(want, col)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), col


def _assert_ops_match_oracle(data, source=None):
    """parse_op_trace of ``source`` (default: the bytes ``data``) equals the oracle's of ``data``.

    The oracle's table is in file order, and the reader's rows are in run order;
    names, layers and issues stay in line order.
    """
    ops, issues = parse_op_trace(data if source is None else source)
    want_events, want_issues = parse_op_trace_oracle(data)
    want, _ = tables(want_events, [])
    _assert_same_columns(ops, want.take(op_order_oracle(want)))
    assert (ops.names, ops.layers) == (want.names, want.layers)
    assert issues == want_issues


_CLEAN_OPS = [
    {"op": "conv", "device": "GPU", "step": 0, "start_us": 10, "end_us": 20, "layer": "b0"},
    {"op": "relu", "device": "CPU", "start_us": 2**63 - 1, "end_us": -2**63},
    {"device": "GPU", "end_us": 7, "op": "conv", "start_us": 0, "step": None, "layer": None},
    {"op": "é }{", "device": "GPU", "start_us": 0, "end_us": 1, "step": -3},
]
# Raw text mutations of one record line; each is either still clean or some
# line's diagnostic. Out-of-int64 values, which the OpEvent oracle accepts,
# are checked on their own below.
_OP_MUTATIONS = [
    lambda r: r + " " + r,  # two objects on one line
    lambda r: r[: len(r) // 2] + "\n" + r[len(r) // 2 :],  # a record split across two lines
    lambda r: r.replace(", ", "\n", 1),  # ... where the joining ",\n" makes it whole
    lambda r: r.replace("{", '{"x": [{}\n{}], ', 1),  # ... into two lines that are {...}
    lambda r: r.replace('"conv"', '"a\u2028b"'),  # raw line breaks in a string
    lambda r: r.replace('"conv"', '"}\x85{"'),
    lambda r: r + "\n\n   \n\t",  # blank and whitespace-only lines
    lambda r: "\ufeff" + r,
    lambda r: "# " + r,
    lambda r: r + "  # note",
    lambda r: r.replace('"device"', '"pid": 7, "device"'),
    lambda r: r.replace('"op"', '"name"'),
    lambda r: r.replace("}", ', "args": {"k": "v"}}', 1),
    lambda r: r.replace('"GPU"', '"TPU"').replace('"CPU"', '"TPU"'),
    *(lambda r, v=v: re.sub(r'"start_us": -?\d+', f'"start_us": {v}', r)
      for v in ("1_0", "５", "Infinity", "NaN", "1.0", "1e3", "true", "null", '"5"')),
    lambda r: re.sub(r'"step": (-?\d+|null)', '"step": 2.0', r),
    lambda r: re.sub(r'"layer": ("\w*"|null)', '"layer": 5', r),
    lambda r: r.replace('"conv"', '""'),
    lambda r: r.replace('"conv"', '"[conv]"'),
]


@st.composite
def op_trace_files(draw):
    lines = [json.dumps(draw(st.sampled_from(_CLEAN_OPS)), ensure_ascii=draw(st.booleans()))
             for _ in range(draw(st.integers(1, 12)))]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from(_OP_MUTATIONS))(lines[i])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (newline.join(lines) + newline).encode()


# Characters str.splitlines() breaks at besides "\n", and bytes that are not UTF-8.
_LINE_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
_NOISE = [*(b.encode() for b in _LINE_BREAKS), b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80",
          b"\n\n", b" \t\n"]


@st.composite
def noisy(draw, files):
    """A drawn file with line breaks, invalid UTF-8 and blank lines put anywhere, and
    maybe blank lines before its first line."""
    data = draw(files)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_NOISE)) + data[at:]
    return draw(st.sampled_from([b"", b"\n", b" \r\n\n\t\x85"])) + data


@contextmanager
def _open_copy(data):
    """A binary file open for reading, holding ``data``."""
    with tempfile.TemporaryFile() as f:
        f.write(data)
        f.seek(0)
        yield f


@settings(max_examples=300)
@given(noisy(op_trace_files()), st.sampled_from([1, 2, 3, 7, 64, 65536]))
def test_op_trace_reader_matches_oracle_on_mutated_files(data, block):
    with mock.patch.object(ingest, "_BLOCK", block), _open_copy(data) as f:
        _assert_ops_match_oracle(data)
        _assert_ops_match_oracle(data, f)


_TEL_HEADER = ["t_us", "c0", "c1", "gpu", "p_cpu_mw", "p_gpu_mw", "p_mem_mw", "p_sys_mw",
               "mem_bytes"]
# Cells that int()/float() and np.loadtxt may read differently, valid or not.
# numpy 2.4.6's int reader takes U+20000 for a digit.
_TEL_EDGE_CELLS = ["1_0", "５", "inf", "-inf", "nan", "1e400", "1.0", "1e3", "", "#", "3 # c",
                  "0x10", str(2**63), str(-2**63 - 1), "-5e-324", "5e-324", "-0.0", "-0", "+7",
                  " 7 ", "\u30004", "100.0000001", "-1", "101", "\U00020000"]


@st.composite
def telemetry_files(draw):
    rows = [list(_TEL_HEADER)]
    for _ in range(draw(st.integers(0, 6))):
        rows.append([
            str(draw(st.integers(-2**63, 2**63 - 1))),
            *(repr(draw(st.floats(0, 100))) for _ in range(3)),
            *(repr(draw(st.floats(0, 1e300))) for _ in range(4)),
            str(draw(st.integers(0, 2**63 - 1))),
        ])
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["cell", "cell", "drop", "extra"]))
        if kind == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_TEL_EDGE_CELLS))
        elif kind == "drop":
            row.pop()
        else:
            row.append(draw(st.sampled_from(["", "9", "x"])))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from(["", "   ", "\t", "# note", "1,2\u20283", "1\x852"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return (bom + newline.join(lines) + newline).encode()


@settings(max_examples=300)
@given(noisy(telemetry_files()), st.sampled_from([1, 2, 3, 7, 64, 65536]))
def test_telemetry_reader_matches_oracle_on_mutated_files(data, block):
    want, want_issues = parse_telemetry_oracle(data, core_count=2)
    with mock.patch.object(ingest, "_BLOCK", block), _open_copy(data) as f:
        for source in (data, f):
            samples, issues = parse_telemetry(source, core_count=2)
            _assert_same_columns(samples, want)
            assert issues == want_issues


def test_every_single_op_mutation_matches_oracle():
    lines = [json.dumps(op, ensure_ascii=False) for op in _CLEAN_OPS]
    for i, mutate in itertools.product(range(len(lines)), _OP_MUTATIONS):
        mutated = [*lines[:i], mutate(lines[i]), *lines[i + 1 :]]
        _assert_ops_match_oracle(("\n".join(mutated) + "\n").encode())


def test_every_single_telemetry_cell_matches_oracle():
    rows = [list(_TEL_HEADER), "0,0,12.5,100,0,1.5,2e3,4,0".split(","),
            "10,50,-0.0,1e2,7,0,0,0,9223372036854775807".split(",")]
    for i, j, cell in itertools.product(range(3), range(len(_TEL_HEADER)), _TEL_EDGE_CELLS):
        mutated = [row.copy() for row in rows]
        mutated[i][j] = cell
        data = "".join(",".join(row) + "\n" for row in mutated).encode()
        samples, issues = parse_telemetry(data, core_count=2)
        want, want_issues = parse_telemetry_oracle(data, core_count=2)
        _assert_same_columns(samples, want)
        assert issues == want_issues


def _long_op_trace(n):
    return [json.dumps({"op": f"op{i % 7}", "device": "GPU", "step": i // 10, "start_us": i,
                        "end_us": i + 1}) for i in range(n)]


def _long_telemetry(n):
    return [",".join(_TEL_HEADER)] + [f"{i},12.5,0,100,1.5,2,3,4,{i}" for i in range(n)]


def _counted(monkeypatch, owner, name):
    """The argument tuples of each later call of ``owner.name`` in this test."""
    calls = []
    function = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args, **kw: calls.append(args) or function(*args, **kw))
    return calls


def _read_blocks(calls):
    """The bytes that the counted np.loadtxt calls read: each reads one block as bytes."""
    assert all(isinstance(args[0], io.BytesIO) for args in calls)
    return [args[0].getvalue() for args in calls]


def test_column_readers_take_clean_input(monkeypatch):
    lines = _long_op_trace(3000)
    data = ("\n".join(lines) + "\n").encode()
    loads = _counted(monkeypatch, json, "loads")
    ops, issues = parse_op_trace(data)
    # One JSON array per block: a read of ingest._BLOCK characters, run on to a line's end.
    blocks = list(ingest._text_blocks(io.BytesIO(data)))
    longest = max(map(len, lines)) + 1
    assert "".join(blocks).encode() == data and all(block.endswith("\n") for block in blocks)
    assert all(ingest._BLOCK <= len(block) < ingest._BLOCK + longest for block in blocks[:-1])
    assert len(loads) == len(blocks) > 3 and all(args[0][0] == "[" for args in loads)
    assert len(ops) == 3000 and issues == []
    _assert_ops_match_oracle(data)
    lines = _long_telemetry(3000)
    data = ("\n".join(lines) + "\n").encode()
    loadtxt = _counted(monkeypatch, ingest.np, "loadtxt")
    row_blocks = _counted(monkeypatch, ingest, "_parse_lines")
    samples, issues = parse_telemetry(data, core_count=2)
    assert len(samples) == 3000 and issues == []
    # One call per block, on its bytes; the first block of rows is the rest of the
    # header's block.
    blocks = _read_blocks(loadtxt)
    assert len(data) > ingest._BLOCK and len(blocks) == 2 and not row_blocks
    assert (lines[0] + "\n").encode() + b"".join(blocks) == data
    assert ingest._BLOCK <= len(lines[0]) + 1 + len(blocks[0]) < ingest._BLOCK + len(lines[1]) + 1
    assert all(block.endswith(b"\n") for block in blocks)
    want, _ = parse_telemetry_oracle(data, core_count=2)
    _assert_same_columns(samples, want)
    # np.loadtxt refuses "1.0" as an int64 cell. That block makes one call on its
    # bytes, and then its text lines are read row by row.
    lines[2500] = lines[2500].rsplit(",", 1)[0] + ",1.0"
    data = ("\n".join(lines) + "\n").encode()
    loadtxt.clear()
    samples, issues = parse_telemetry(data, core_count=2)
    blocks = _read_blocks(loadtxt)
    assert len(blocks) == 2 and len(samples) == 2999
    assert [args[0] for args in row_blocks] == [blocks[1].decode().splitlines()]
    want, want_issues = parse_telemetry_oracle(data, core_count=2)
    _assert_same_columns(samples, want)
    assert issues == want_issues != []


def test_a_bad_line_is_decoded_again_only_within_its_block(monkeypatch):
    lines = _long_op_trace(3000)
    lines[2900] = "not json"
    data = ("\n".join(lines) + "\n").encode()
    blocks = [block.splitlines() for block in ingest._text_blocks(io.BytesIO(data))]
    assert "not json" in blocks[-1] and len(blocks) > 3
    loads = _counted(monkeypatch, json, "loads")
    ops, issues = parse_op_trace(data)
    # Whole blocks, then the last block's lines one at a time.
    assert [len(args[0].splitlines()) for args in loads[:len(blocks) - 1]] == [
        len(block) for block in blocks[:-1]]
    assert len(loads) == len(blocks) - 1 + len(blocks[-1])
    assert len(ops) == 2999
    assert issues == [Issue("MalformedLine", "invalid JSON: Expecting value", line_no=2901)]


def test_a_flagged_telemetry_row_is_read_by_loadtxt_alone(monkeypatch):
    lines = _long_telemetry(3000)
    lines[2001] = lines[2001].replace(",12.5,", ",100.5,", 1)
    data = ("\n".join(lines) + "\n").encode()
    loadtxt = _counted(monkeypatch, ingest.np, "loadtxt")
    row_blocks = _counted(monkeypatch, ingest, "_parse_lines")
    samples, issues = parse_telemetry(data, core_count=2)
    # The flagged row leaves its block's loadtxt columns; no row is tokenized again.
    assert len(_read_blocks(loadtxt)) == 2 and not row_blocks
    assert len(samples) == 2999
    assert issues == [Issue("UtilizationOutOfRange", "utilization 100.5% outside [0, 100]",
                            line_no=2002)]
    want, want_issues = parse_telemetry_oracle(data, core_count=2)
    _assert_same_columns(samples, want)
    assert issues == want_issues


_ROW = "7,12.5,0,100,1.5,2,3,4,9"
# Rows after a clean one. np.loadtxt reads a block of these from its bytes, one row
# per non-blank text line ...
_ON_THE_BYTE_PATH = {
    "crlf": f"{_ROW}\r\n{_ROW}\r\n",
    "cr_only": f"{_ROW}\r{_ROW}\r",
    "blank_line": f"{_ROW}\n\n{_ROW}\n",
    "last_line_without_newline": f"{_ROW}\n{_ROW}",
}
# ... and cannot read a block that holds one of these so, which is then read row by row.
_OFF_THE_BYTE_PATH = {
    "form_feed_in_a_line": f"{_ROW}\n7,12.5\x0c,0,100,1.5,2,3,4,9\n",
    "vertical_tab_in_a_line": f"{_ROW}\n7,12.5,0,100,1.5,2,3\x0b,4,9\n",
    "file_separator_in_a_line": f"{_ROW}\n7,12.5,0,100\x1c,1.5,2,3,4,9\n",
    "form_feed_ends_a_line": f"{_ROW}\x0c\n{_ROW}\n",
    "whitespace_only_line": f"{_ROW}\n \t\n{_ROW}\n",
    "non_ascii_cell": f"{_ROW}\n7,12.5,0,100,1.5,2,3,4,\uff19\n",
    "int_cell_1.0": f"{_ROW}\n1.0,12.5,0,100,1.5,2,3,4,9\n",
}


@pytest.mark.parametrize("body", [*_ON_THE_BYTE_PATH.values(), *_OFF_THE_BYTE_PATH.values()],
                         ids=[*_ON_THE_BYTE_PATH, *_OFF_THE_BYTE_PATH])
@pytest.mark.parametrize("block", [1, 7, 65536])
def test_blocks_np_loadtxt_cannot_read_row_per_line_are_read_as_text(monkeypatch, body, block):
    data = ("\n".join([",".join(_TEL_HEADER), f"{_ROW}\n"]) + body).encode()
    if "\n" not in body:  # a file whose lines all end in \r
        data = data.replace(b"\n", b"\r")
    read = []  # what the byte path returned for each block
    by_bytes = ingest._loadtxt

    def spy(*args):
        read.append(by_bytes(*args))
        return read[-1]

    monkeypatch.setattr(ingest, "_loadtxt", spy)
    monkeypatch.setattr(ingest, "_BLOCK", block)
    row_blocks = _counted(monkeypatch, ingest, "_parse_lines")
    samples, issues = parse_telemetry(data, core_count=2)
    # An empty line, or an empty rest of the header's block, has no row for loadtxt.
    by_row = [line for args in row_blocks for line in args[0] if line]
    if body in _ON_THE_BYTE_PATH.values():
        assert by_row == [] and any(tokens is not None for tokens in read)
    else:
        assert by_row != [] and None in read
        if block == 65536:  # one block, the header's
            assert read == [None] and len(row_blocks) == 1
    want, want_issues = parse_telemetry_oracle(data, core_count=2)
    _assert_same_columns(samples, want)
    assert issues == want_issues


def test_telemetry_with_cr_line_ends_is_read_in_blocks():
    data = ("\n".join(_long_telemetry(5000)) + "\n").encode()
    peaks = []
    for newline in (b"\n", b"\r"):
        with _open_copy(data.replace(b"\n", newline)) as f:
            (samples, issues), peak = traced_peak(parse_telemetry, f, 2)
        assert len(samples) == 5000 and issues == []
        peaks.append(peak)
    # A reader that held the whole file, or its text, would need about twice as much.
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("parse, lines", [(parse_op_trace, _long_op_trace(5000)),
                                          (lambda f: parse_telemetry(f, 2), _long_telemetry(5000))],
                         ids=["op_trace", "telemetry"])
def test_a_file_whose_line_ends_change_from_lf_to_cr_is_read_in_blocks(parse, lines):
    # Line ends change from \n to \r after line 2, and at the line that holds the
    # first read's last byte, so that read ends before its line's \r.
    ends = np.cumsum([len(line) + 1 for line in lines])
    results, peaks = [], []
    for lf in (len(lines), 2, int(np.searchsorted(ends, ingest._BLOCK, side="right"))):
        data = "".join(line + ("\n" if k < lf else "\r") for k, line in enumerate(lines)).encode()
        with _open_copy(data) as f:
            (table, issues), peak = traced_peak(parse, f)
        results.append((table, issues))
        peaks.append(peak)
    (want, want_issues), *mixed = results
    for got, issues in mixed:
        assert len(got) == 5000 and issues == want_issues == []
        _assert_same_columns(got, want)
    assert max(peaks[1:]) <= 1.25 * peaks[0]


@pytest.mark.parametrize("block", [7, 25, 64, 65536])
def test_line_numbers_run_on_across_blocks_cut_at_any_line_end(monkeypatch, block):
    # Lines end in \r and \r\n by turns, so some reads end between a \r and its \n.
    # A late bad line shows the line count.
    monkeypatch.setattr(ingest, "_BLOCK", block)
    ends = itertools.cycle(["\r", "\r\n"])
    lines = [*_long_op_trace(300), "not json", *_long_op_trace(3)]
    _assert_ops_match_oracle("".join(line + next(ends) for line in lines).encode())
    lines = [*_long_telemetry(300), "1,100.5,0,0,0,0,0,0,0", *_long_telemetry(3)[1:]]
    data = "".join(line + next(ends) for line in lines).encode()
    samples, issues = parse_telemetry(data, core_count=2)
    want, want_issues = parse_telemetry_oracle(data, core_count=2)
    _assert_same_columns(samples, want)
    assert issues == want_issues != []


class _Pipe(io.BytesIO):
    """Bytes that can be read only once, in order, as from a pipe."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("File or stream is not seekable.")


@pytest.mark.parametrize("data", [
    ("\n".join(_long_op_trace(3000)) + "\n").encode(),
    ("\n".join(_long_op_trace(3)) + "\nnot json\n").encode(),
    ("\n".join(_long_op_trace(3)) + "\n").encode("utf-16"),
], ids=["clean", "bad_line", "utf16"])
def test_op_trace_is_read_from_a_stream_that_cannot_seek(data):
    ops, issues = parse_op_trace(_Pipe(data))
    want, want_issues = parse_op_trace(data)
    _assert_same_columns(ops, want)
    assert issues == want_issues
    if data.startswith(codecs.BOM_UTF16):
        assert issues == [Issue("MalformedLine", "op trace is not UTF-8: it starts with a "
                                "UTF-16 or UTF-32 byte-order mark", line_no=1)]


def test_a_long_line_is_read_whole_by_small_blocks(monkeypatch):
    monkeypatch.setattr(ingest, "_BLOCK", 16)
    long_op = {"op": "x" * 2**20, "device": "GPU", "step": 1, "start_us": 5, "end_us": 9}
    lines = [*_long_op_trace(3), json.dumps(long_op), *_long_op_trace(3)]
    assert len(lines[3]) > 2**20
    data = ("\n".join(lines) + "\n").encode()
    with _open_copy(data) as f:
        _assert_ops_match_oracle(data)
        _assert_ops_match_oracle(data, f)
    lines = _long_telemetry(6)
    lines[3] = lines[3].replace(",", "," + " " * 2**20, 1)
    assert len(lines[3]) > 2**20
    data = ("\n".join(lines) + "\n").encode()
    want, want_issues = parse_telemetry_oracle(data, core_count=2)
    assert len(want) == 6
    with _open_copy(data) as f:
        for source in (data, f):
            samples, issues = parse_telemetry(source, core_count=2)
            _assert_same_columns(samples, want)
            assert issues == want_issues


def _crlf_at(lines, at):
    """``lines`` ended by \n, but for one line, padded with spaces, whose \r\n pair is
    characters ``at`` - 1 and ``at``."""
    text, longest = "", max(map(len, lines))
    for line in lines:
        free = at - 1 - len(text) - len(line)
        text += line + (" " * free + "\r\n" if 0 <= free <= longest else "\n")
    return text.encode()


@pytest.mark.parametrize("at", [8192, ingest._BLOCK], ids=["wrapper_read", "block"])
def test_a_crlf_pair_across_a_read_boundary_is_one_line_end(at):
    # The text wrapper reads 8192 bytes at a time, and the reader _BLOCK characters;
    # a late bad line shows that no line was added or lost at the pair.
    data = _crlf_at([*_long_op_trace(at // 50), "not json"], at)
    assert data[at - 1:at + 1] == b"\r\n" and data.count(b"\r") == 1
    with _open_copy(data) as f:
        _assert_ops_match_oracle(data)
        _assert_ops_match_oracle(data, f)
    data = _crlf_at([*_long_telemetry(at // 20), "1,100.5,0,0,0,0,0,0,0"], at)
    assert data[at - 1:at + 1] == b"\r\n" and data.count(b"\r") == 1
    want, want_issues = parse_telemetry_oracle(data, core_count=2)
    with _open_copy(data) as f:
        for source in (data, f):
            samples, issues = parse_telemetry(source, core_count=2)
            _assert_same_columns(samples, want)
            assert issues == want_issues != []


@pytest.mark.parametrize("block", [1, 7, 65536])
def test_a_file_ending_in_a_lone_cr_matches_oracle(monkeypatch, block):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    for data in (b"\r", "\n".join([*_long_op_trace(3), "not json"]).encode() + b"\r"):
        _assert_ops_match_oracle(data)
        _assert_ops_match_oracle(data, _Pipe(data))
    for lines in ([_long_telemetry(0)[0]], [*_long_telemetry(3), "1,100.5,0,0,0,0,0,0,0"]):
        data = "\n".join(lines).encode() + b"\r"
        want, want_issues = parse_telemetry_oracle(data, core_count=2)
        for source in (data, _Pipe(data)):
            samples, issues = parse_telemetry(source, core_count=2)
            _assert_same_columns(samples, want)
            assert issues == want_issues != []


@pytest.mark.parametrize("parse, data, whole", [
    (parse_op_trace, ("\n".join(_long_op_trace(3000)) + "\n").encode(), True),
    (parse_op_trace, ("\n".join(_long_op_trace(3)) + "\n").encode("utf-16"), False),
    (lambda f: parse_telemetry(f, 2), ("\r\n".join(_long_telemetry(9000)) + "\r").encode(),
     True),
    (lambda f: parse_telemetry(f, 2), b"t_us,c0\n" + b"1,2\n" * 9000, False),
], ids=["op_trace", "op_trace_utf16", "telemetry", "telemetry_bad_header"])
def test_a_callers_stream_is_left_open(parse, data, whole):
    # A parser that reads the whole file leaves the stream at its end; one that stops
    # at a first-line diagnostic may leave some of it.
    with _open_copy(data) as f:
        for stream in (f, _Pipe(data)):  # a file can peek, and a _Pipe cannot
            _, issues = parse(stream)
            gc.collect()  # a wrapper left to the collector would close the stream here
            assert not stream.closed
            assert (issues == []) == whole
            if whole:
                assert stream.read() == b""


@pytest.mark.parametrize("first", [1, 3])
@pytest.mark.parametrize("mark, encoding", [
    (codecs.BOM_UTF16_LE, "utf-16-le"), (codecs.BOM_UTF16_BE, "utf-16-be"),
    (codecs.BOM_UTF32_BE, "utf-32-be"),
], ids=["utf16_le", "utf16_be", "utf32_be"])
def test_a_mark_split_across_a_pipes_writes_is_one_diagnostic(mark, encoding, first):
    data = mark + ("\n".join(_long_op_trace(3)) + "\n").encode(encoding)
    read_end, write_end = os.pipe()

    def write():
        os.write(write_end, data[:first])
        time.sleep(0.2)  # so that the reader gets the first write alone
        os.write(write_end, data[first:])
        os.close(write_end)

    writer = threading.Thread(target=write)
    writer.start()
    with open(read_end, "rb") as f:
        ops, issues = parse_op_trace(f)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert len(ops) == 0
    assert issues == [Issue("MalformedLine", "op trace is not UTF-8: it starts with a "
                            "UTF-16 or UTF-32 byte-order mark", line_no=1)]


_BRACKETED_OPS = [
    '{"op": "layers[3]", "device": "GPU", "start_us": 1, "end_us": 2}',
    '{"op": "mm", "device": "CPU", "start_us": 3, "end_us": 5, "shape": [1, 2, 3]}',
    '{"op": "mm", "device": "GPU", "start_us": 3, "end_us": 5, "args": [{"k": [1]}, []]}',
    '{"op": "mm", "device": "GPU", "start_us": 3, "end_us": 5, "shape": "]"}',
]
# A record that spans lines inside an array its first line opens, and a line of two
# records, so that the three lines hold three records when decoded together.
_SPANNING = ['{"a": [{"x": 1}', '{"y": 2}]}', '{"c": 3}, {"d": 4}']


@st.composite
def bracketed_op_traces(draw):
    lines = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["clean", "bracketed", "spanning"]))
        if kind == "clean":
            lines.append(json.dumps(draw(st.sampled_from(_CLEAN_OPS))))
        elif kind == "bracketed":
            lines.append(draw(st.sampled_from(_BRACKETED_OPS)))
        else:
            lines += _SPANNING
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=200)
@given(bracketed_op_traces(), st.sampled_from([64, 512, 65536]))
def test_op_lines_with_brackets_match_oracle(data, block):
    with mock.patch.object(ingest, "_BLOCK", block):
        _assert_ops_match_oracle(data)


# Canonical op-trace blocks: a block that starts with "{", has each "\n" but a
# final one inside "}\n{", and holds no "[" or "]" is decoded from its text.


@pytest.mark.parametrize("mark", ["\u2028", "\u2029", "\x85"])
@pytest.mark.parametrize("block", [64, 65536])
def test_a_raw_line_break_in_an_op_name_splits_its_line(mark, block):
    # The block looks canonical, but str.splitlines breaks the name's line in two,
    # so each half is a line with its own diagnostic.
    lines = _long_op_trace(6)
    lines[3] = lines[3].replace('"op3"', f'"op{mark}3"')
    data = ("\n".join(lines) + "\n").encode()
    with mock.patch.object(ingest, "_BLOCK", block):
        _assert_ops_match_oracle(data)
        ops, issues = parse_op_trace(data)
    assert len(ops) == 5
    assert [(i.code, i.line_no) for i in issues] == [("MalformedLine", 4), ("MalformedLine", 5)]


_CANONICAL_LINES = _long_op_trace(40)


@pytest.mark.parametrize("edit", [
    lambda lines: lines.insert(5, "  " + lines.pop(5) + " \t"),  # a padded line
    lambda lines: lines.insert(7, ""),  # a blank line inside a block
    lambda lines: lines.append(""),  # a blank line at the end of the file
    lambda lines: lines.append("   "),
    # An object split over two lines, which joined by ",\n" are not JSON, and each half.
    lambda lines: lines.__setitem__(slice(9, 9), ['{"a": {"x": 1}', '{"y": 2}}']),
    lambda lines: lines.insert(9, '{"a": {"x": 1}'),
    lambda lines: lines.insert(10, '{"y": 2}}'),
    lambda lines: lines.insert(9, lines[3] + ", " + lines[4]),  # two records on one line
    lambda lines: lines.insert(9, lines[3] + lines[4]),
    lambda lines: lines.insert(9, lines[3] + " " + lines[4]),
])
@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("block", [64, 700, 65536])
def test_op_lines_around_canonical_blocks_match_oracle(edit, final_newline, block):
    lines = list(_CANONICAL_LINES)
    edit(lines)
    lines[-2] = lines[-2].replace('"GPU"', '"TPU"')  # a diagnostic in the last block
    data = ("\n".join(lines) + ("\n" if final_newline else "")).encode()
    with mock.patch.object(ingest, "_BLOCK", block):
        _assert_ops_match_oracle(data)
        _assert_ops_match_oracle(data, _Pipe(data))


def test_a_canonical_block_is_one_json_loads(monkeypatch):
    lines = _long_op_trace(3000)
    lines[1500] = lines[1500].replace('"GPU"', '"TPU"')
    data = "\n".join(lines).encode()  # and no final newline
    blocks = list(ingest._text_blocks(io.BytesIO(data)))
    loads = _counted(monkeypatch, json, "loads")
    by_lines = _counted(monkeypatch, ingest, "_decode_op_lines")
    ops, issues = parse_op_trace(data)
    assert len(loads) == len(blocks) > 3 and not by_lines
    assert [args[0] for args in loads] == [
        "[" + block.removesuffix("\n").replace("\n", ",\n") + "]" for block in blocks]
    assert len(ops) == 2999
    assert issues == [Issue("UnknownDevice", "unknown device 'TPU'", line_no=1501)]
    _assert_ops_match_oracle(data)


def test_a_canonical_block_of_more_records_than_lines_is_decoded_once_as_an_array(monkeypatch):
    # The block looks canonical, but its third line holds two records: after the one
    # array fails, each line is decoded on its own, with no second array.
    lines = _long_op_trace(5)
    lines[2] = lines[2] + ", " + lines[3]
    data = ("\n".join(lines) + "\n").encode()
    loads = _counted(monkeypatch, json, "loads")
    ops, issues = parse_op_trace(data)
    assert [args[0][:1] for args in loads] == ["["] + ["{"] * 5
    assert len(ops) == 4 and [(i.code, i.line_no) for i in issues] == [("MalformedLine", 3)]
    monkeypatch.undo()
    _assert_ops_match_oracle(data)


def test_bad_line_in_a_late_chunk_keeps_its_line_number():
    lines = _long_op_trace(2 * 1024 + 500)
    lines[2400] = lines[2400].replace('"start_us": 2400', f'"start_us": {2**63}')
    ops, issues = parse_op_trace(("\n".join(lines) + "\n").encode())
    assert len(ops) == len(lines) - 1
    assert issues == [Issue("MalformedLine", "start_us and end_us must fit in int64",
                            line_no=2401)]
    lines = _long_telemetry(2 * 1024 + 500)
    lines[2400] = lines[2400].rsplit(",", 1)[0] + f",{2**63}"
    samples, issues = parse_telemetry(("\n".join(lines) + "\n").encode(), core_count=2)
    assert len(samples) == len(lines) - 2
    assert issues == [Issue("MalformedLine", "mem_bytes must fit in int64", line_no=2401)]
