import json
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from conftest import (mk_run, mk_sample, table_bytes, tables, traced_peak, two_stream_ops,
                      util_fractions)
from oracles import (
    OpEvent,
    TelemetrySample,
    op_order_oracle,
    rows,
    sort_samples_oracle,
    validate_ops_oracle,
    validate_samples_oracle,
    write_op_trace_oracle,
    write_telemetry_oracle,
)
from traceprof import ingest, model
from traceprof.errors import TraceValidationError
from traceprof.ingest import op_trace_chunks, parse_op_trace, parse_telemetry, telemetry_chunks
from traceprof.model import (
    DEVICES,
    Issue,
    MemoryBreakdown,
    RunMeta,
    SampleTable,
    validate_run,
)


def test_well_formed_run_is_sorted():
    samples = [mk_sample(t * 10_000) for t in reversed(range(10))]
    ops = [
        OpEvent("b", "CPU", 50, 150),
        OpEvent("a", "GPU", 0, 100),
    ]
    run = mk_run(samples, ops)
    assert [s.t for s in rows(run.samples)] == sorted(s.t for s in rows(run.samples))
    assert [op.op_name for op in rows(run.ops)] == ["a", "b"]
    assert run.warnings == ()


def test_core_count_mismatch_reported():
    meta = RunMeta("r", batch_size=1, core_count=6)
    samples = [mk_sample(0, cores=(0.0,) * 5)]
    ops = [OpEvent("a", "GPU", 0, 100)]
    with pytest.raises(TraceValidationError) as exc:
        validate_run(meta, *tables(ops, samples))
    assert any(i.code == "CoreCountMismatch" for i in exc.value.issues)


def test_core_count_mismatch_is_collected_with_other_issues():
    # A one-core table under a two-core meta: the table's width is reported
    # once, ahead of the row issues, next to every other issue.
    meta = RunMeta("r", batch_size=1, core_count=2)
    samples = [mk_sample(10, cores=(0.0,)), mk_sample(0, cores=(1.5,))]
    with pytest.raises(TraceValidationError) as exc:
        validate_run(meta, *tables([OpEvent("a", "GPU", 5, 5)], samples))
    assert exc.value.issues == (
        Issue("InvariantViolation", "op #0 'a' has end 5 <= start 5"),
        Issue("CoreCountMismatch", "samples have 1 core utilizations, run declares 2 cores"),
        Issue("InvariantViolation", "sample #0 core 0 utilization 1.5 outside [0, 1]"),
    )


def test_core_count_mismatch_is_one_issue_for_any_row_count():
    meta = RunMeta("r", batch_size=1, core_count=2)
    samples = [mk_sample(t * 10_000, cores=(0.5,)) for t in range(1000)]
    with pytest.raises(TraceValidationError) as exc:
        validate_run(meta, *tables([OpEvent("a", "GPU", 0, 100)], samples))
    assert exc.value.issues == (
        Issue("CoreCountMismatch", "samples have 1 core utilizations, run declares 2 cores"),)


def test_op_end_before_start_names_the_op():
    samples = [mk_sample(0)]
    ops = [OpEvent("MatMul", "GPU", 200, 100)]
    with pytest.raises(TraceValidationError) as exc:
        mk_run(samples, ops)
    bad = [i for i in exc.value.issues if i.code == "InvariantViolation"]
    assert bad and "MatMul" in bad[0].message


def test_validation_collects_every_violation():
    meta = RunMeta("r", batch_size=0, core_count=2)
    ops = [OpEvent("", "GPU", 100, 100), OpEvent("x", "CPU", -5, 10)]
    samples = [mk_sample(0, cores=(1.5, 0.0), p_gpu=-1.0)]
    with pytest.raises(TraceValidationError) as exc:
        validate_run(meta, *tables(ops, samples))
    codes = [i.code for i in exc.value.issues]
    # batch_size, empty name, end<=start, negative start, util range, power
    assert len([c for c in codes if c in ("InvalidMeta", "InvariantViolation")]) >= 5


@pytest.mark.parametrize("power", [float("nan"), float("inf")])
def test_non_finite_power_is_an_invariant_violation(power):
    samples = [mk_sample(t * 10_000, p_sys=power if t == 1 else 0.0) for t in range(3)]
    with pytest.raises(TraceValidationError) as exc:
        mk_run(samples)
    assert exc.value.issues == (
        Issue("InvariantViolation", f"sample #1 non-finite sys power {power} mW"),
    )


@pytest.mark.parametrize("field", [{"start_us": 0.5}, {"end_us": "100"}, {"step": 1.5}])
def test_non_integer_op_fields_are_rejected(field):
    # Tables hold int64 columns; a non-integer time or step is stopped by the op-trace reader.
    record = {"op": "a", "device": "GPU", "start_us": 0, "end_us": 100, **field}
    ops, issues = parse_op_trace(json.dumps(record).encode() + b"\n")
    assert len(ops) == 0
    (issue,) = issues
    assert (issue.code, issue.line_no) == ("MalformedLine", 1)
    assert issue.message.endswith(("must be integers", "must be an integer"))


@pytest.mark.parametrize("column, cell", [
    (0, "0.5"), (0, '"3"'), (-1, "1.5"), (-1, '"7"'),
], ids=["t_half", "t_str", "mem_float", "mem_str"])
def test_non_integer_sample_fields_are_rejected(column, cell):
    # The same for a sample's t or memory cell in the telemetry reader.
    header, row = b"".join(telemetry_chunks(tables([], [mk_sample(0)])[1])).decode().splitlines()
    cells = row.split(",")
    cells[column] = cell
    samples, issues = parse_telemetry(f"{header}\n{','.join(cells)}\n".encode(), 2)
    assert len(samples) == 0
    (issue,) = issues
    assert (issue.code, issue.line_no) == ("MalformedLine", 2)
    assert issue.message.startswith("bad numeric cell: invalid literal for int()")


def test_empty_trace_reported():
    meta = RunMeta("r", batch_size=1, core_count=1)
    with pytest.raises(TraceValidationError) as exc:
        validate_run(meta, *tables([], []))
    assert any(i.code == "EmptyTrace" for i in exc.value.issues)


def test_negative_memory_breakdown_bytes_are_invalid_meta():
    # Zero is a valid count; each negative one is an error, though the sum is below the peak.
    breakdown = MemoryBreakdown(-1, 0, -3, -4)
    with pytest.raises(TraceValidationError) as exc:
        mk_run([mk_sample(0), mk_sample(10_000)], breakdown=breakdown)
    assert [(i.code, i.message) for i in exc.value.issues] == [
        ("InvalidMeta", "memory_breakdown.parameters_bytes must be >= 0, got -1"),
        ("InvalidMeta", "memory_breakdown.input_bytes must be >= 0, got -3"),
        ("InvalidMeta", "memory_breakdown.intermediate_bytes must be >= 0, got -4"),
    ]


def test_memory_breakdown_bytes_past_int64_are_invalid_meta():
    # The mismatch warning is not given either: it would print the sum.
    breakdown = MemoryBreakdown(10**400, 2**63 - 1, 2**63, 1)
    with pytest.raises(TraceValidationError) as exc:
        mk_run([mk_sample(0), mk_sample(10_000)], breakdown=breakdown)
    assert [(i.code, i.message) for i in exc.value.issues] == [
        ("InvalidMeta", "memory_breakdown.parameters_bytes must be < 2**63"),
        ("InvalidMeta", "memory_breakdown.input_bytes must be < 2**63"),
    ]


def test_duplicate_timestamps_warn_but_validate():
    samples = [mk_sample(0), mk_sample(0), mk_sample(10_000)]
    run = mk_run(samples)
    assert any(w.code == "ClockSkew" for w in run.warnings)


def _decoded(run):
    """The run with its tables as rows, so that equal runs hold the same rows."""
    return run._replace(ops=rows(run.ops), samples=rows(run.samples))


def test_validate_is_idempotent():
    samples = [mk_sample(t * 10_000, cores=(0.5, 0.0), gpu=0.25) for t in range(5)]
    ops = [OpEvent("a", "GPU", 0, 50_000, step_id=0)]
    run = mk_run(samples, ops)
    again = validate_run(run.meta, run.ops, run.samples, run.memory_breakdown)
    assert _decoded(again) == _decoded(run)


@st.composite
def runs(draw):
    core_count = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    interval = draw(st.sampled_from([1_000, 10_000]))
    samples = [
        mk_sample(
            i * interval,
            cores=tuple(draw(util_fractions) for _ in range(core_count)),
            gpu=draw(util_fractions),
            p_cpu=float(draw(st.integers(0, 15_000))),
            p_gpu=float(draw(st.integers(0, 15_000))),
            p_mem=float(draw(st.integers(0, 15_000))),
            p_sys=float(draw(st.integers(0, 15_000))),
            mem=draw(st.integers(0, 10**10)),
        )
        for i in range(n)
    ]
    n_ops = draw(st.integers(1, 6))
    ops = []
    for i in range(n_ops):
        start = draw(st.integers(0, n * interval))
        length = draw(st.integers(1, interval * 3))
        ops.append(
            OpEvent(
                op_name=draw(st.sampled_from(["conv", "matmul", "pool"])),
                device=draw(st.sampled_from(["CPU", "GPU"])),
                start=start,
                end=start + length,
                layer=draw(st.sampled_from([None, "l1"])),
                step_id=draw(st.sampled_from([None, 0, 1])),
            )
        )
    meta = RunMeta(
        run_id="prop",
        batch_size=draw(st.integers(1, 64)),
        core_count=core_count,
        sample_interval_us=interval,
        warmup_steps=draw(st.integers(0, 3)),
    )
    return validate_run(meta, *tables(ops, samples))


@given(runs())
def test_serialize_parse_round_trip(run):
    op_bytes = b"".join(op_trace_chunks(run.ops))
    telemetry_bytes = b"".join(telemetry_chunks(run.samples))
    ops, op_issues = parse_op_trace(op_bytes)
    samples, telemetry_issues = parse_telemetry(telemetry_bytes, run.meta.core_count)
    assert not [i for i in op_issues if i.severity == "error"]
    assert not [i for i in telemetry_issues if i.severity == "error"]
    again = validate_run(run.meta, ops, samples)
    assert rows(again.ops) == rows(run.ops)
    assert rows(again.samples) == rows(run.samples)


@given(runs())
def test_validate_idempotent_property(run):
    assert _decoded(validate_run(run.meta, run.ops, run.samples)) == _decoded(run)


@st.composite
def op_lists(draw):
    """Ops with tied sort keys, None and "" layers, None steps and exact duplicates.

    Half of the lists may also hold invalid ops (empty name, negative start or
    step, end <= start).
    """
    invalid = draw(st.booleans())
    op = st.builds(
        lambda name, device, start, length, layer, step: OpEvent(
            name, device, start, start + length, layer, step),
        st.sampled_from(["a", "B", "ab"] + [""] * invalid),
        st.sampled_from(list(DEVICES)),
        st.integers(-1 if invalid else 0, 1),
        st.integers(0 if invalid else 1, 2),
        st.sampled_from([None, "", "l1"]),
        st.sampled_from([None, 0, 1] + [-1] * invalid),
    )
    ops = draw(st.lists(op, max_size=20))
    duplicates = draw(st.lists(st.sampled_from(ops), max_size=5)) if ops else []
    return draw(st.permutations(ops + duplicates))


@given(op_lists())
def test_validate_run_ops_match_oracle(ops):
    meta = RunMeta("r", batch_size=1, core_count=1)
    ordered, errors, warnings = validate_ops_oracle(ops)
    if not ops:
        errors.insert(0, Issue("EmptyTrace", "run needs at least one op and one sample"))
    try:
        run = validate_run(meta, *tables(ops, [mk_sample(0, cores=(0.0,))]))
    except TraceValidationError as exc:
        assert list(exc.issues) == errors + warnings
        assert errors
    else:
        assert errors == []
        assert rows(run.ops) == ordered
        assert list(run.warnings) == warnings


@given(op_lists())
def test_op_table_row_views(ops):
    assert rows(tables(ops, [])[0]) == ops


@st.composite
def tie_heavy_ops(draw):
    """Ops whose run-order keys tie often: each op keeps some fields of one base op and
    redraws the others. Start and end come from the same 3-5 values, "" is among the
    names, None and "" among the layers, steps are missing or -1, and some rows are
    exact duplicates."""
    times = st.sampled_from(draw(st.lists(st.integers(-2, 9), min_size=3, max_size=5,
                                          unique=True)))
    fields = [st.sampled_from(["", "a", "B", "ab"]), st.sampled_from(list(DEVICES)), times, times,
              st.sampled_from([None, "", "l1", "L"]), st.sampled_from([None, -1, 0, 1])]
    base = draw(st.tuples(*fields))
    op = st.tuples(*(st.just(value) | field for value, field in zip(base, fields)))
    ops = [OpEvent(*row) for row in draw(st.lists(op, max_size=40))]
    duplicates = draw(st.lists(st.sampled_from(ops), max_size=8)) if ops else []
    return draw(st.permutations(ops + duplicates))


@example([])
@example([OpEvent("a", "GPU", 3, 1, step_id=2)])
@given(tie_heavy_ops())
def test_op_order_matches_oracle(ops):
    table, _ = tables(ops, [])
    order, want = model._op_order(table), op_order_oracle(table)
    # None when the rows are in run order already, else that order.
    assert (list(range(len(ops))) if order is None else order.tolist()) == want


@example([], "sorted")
@given(tie_heavy_ops(), st.sampled_from(["shuffled", "sorted", "sorted, one pair swapped"]))
def test_in_op_order_matches_oracle(ops, arrangement):
    table, _ = tables(ops, [])
    if arrangement != "shuffled":
        order = op_order_oracle(table)
        if arrangement != "sorted" and len(order) > 1:
            k = len(order) // 2
            order[k - 1], order[k] = order[k], order[k - 1]
        table = table.take(order)
    order, want = model._op_order(table), op_order_oracle(table)
    # None exactly when the rows are in run order already, else that order.
    assert (order is None) == (want == list(range(len(ops))))
    assert order is None or order.tolist() == want


def test_validate_run_sorts_ops_only_when_they_are_out_of_run_order(monkeypatch):
    ops, samples = tables([OpEvent("b", "GPU", 0, 5), OpEvent("a", "GPU", 0, 5)],
                          [mk_sample(0, cores=(0.0,))])
    meta = RunMeta("r", batch_size=1, core_count=1)
    sorts = []  # the orders _op_order returned, not counting None
    op_order = model._op_order

    def counted(table):
        order = op_order(table)
        sorts.extend([] if order is None else [order])
        return order

    monkeypatch.setattr(model, "_op_order", counted)
    run = validate_run(meta, ops, samples)
    assert len(sorts) == 1 and run.ops.names[run.ops.name[0]] == "a"
    assert validate_run(meta, run.ops, samples).ops is run.ops and len(sorts) == 1


def test_validate_run_keeps_a_run_ordered_table_without_a_copy():
    # At least 50k ops, so the fixed cost of the other checks is small beside the table.
    ops = two_stream_ops(60_000)
    _, samples = tables([], [mk_sample(t) for t in range(0, 300_000, 10_000)])
    meta = RunMeta("r", batch_size=1, core_count=2)
    run, peak = traced_peak(validate_run, meta, ops, samples)
    assert run.ops is ops
    assert peak < 0.75 * table_bytes(ops)  # a sorted copy alone would be 1x


def _samples(core_count, invalid):
    util = st.sampled_from([0.0, -0.0, 0.5, 1.0] * 3 + [1.5, -0.25] * invalid)
    power = st.sampled_from([0.0, 1.0, 2.0] * 3 + [-1.0, float("inf"), -float("inf")] * invalid)
    return st.builds(
        lambda t, cores, gpu, powers, mem: TelemetrySample(t, cores, gpu, *powers, mem),
        st.sampled_from([0, 1, 2] * 2 + [-1] * invalid),
        st.tuples(*[util] * core_count),
        util,
        st.tuples(power, power, power, power),
        st.sampled_from([0, 5] * 2 + [-1] * invalid),
    )


_SAMPLES = {(c, invalid): _samples(c, invalid) for c in (1, 2) for invalid in (False, True)}


@st.composite
def sample_lists(draw):
    """(core count, samples) with tied timestamps and tied leading values.

    Values come from a few choices, -0.0 and 0.0 among them, and some samples
    are repeated exactly. Half of the lists may also hold invalid samples
    (negative t or memory, utilization outside [0, 1], negative or infinite
    power); invalid values are rare enough that many samples break only one
    invariant.
    """
    core_count = draw(st.integers(1, 2))
    samples = draw(st.lists(_SAMPLES[core_count, draw(st.booleans())], min_size=1, max_size=20))
    duplicates = draw(st.lists(st.sampled_from(samples), max_size=5))
    return core_count, draw(st.permutations(samples + duplicates))


@given(sample_lists())
def test_validate_run_samples_match_oracle(case):
    core_count, samples = case
    meta = RunMeta("r", batch_size=1, core_count=core_count)
    ordered, errors, warnings = validate_samples_oracle(samples, core_count)
    try:
        run = validate_run(meta, *tables([OpEvent("a", "GPU", 0, 100)], samples))
    except TraceValidationError as exc:
        assert list(exc.issues) == errors + warnings
        assert errors
    else:
        assert errors == []
        # repr tells -0.0 from 0.0, so ties must keep their input order.
        assert list(map(repr, rows(run.samples))) == list(map(repr, ordered))
        assert list(run.warnings) == warnings


@given(sample_lists())
def test_sample_table_row_views(case):
    _, samples = case
    _, table = tables([], samples)
    assert list(map(repr, rows(table))) == list(map(repr, samples))
    # Fields bind by position or keyword; every table's columns are read-only.
    assert rows(SampleTable(mem=table.mem, t=table.t, values=table.values)) == samples
    for view in (table, table.take(slice(None, None, 2))):
        assert not any(getattr(view, col).flags.writeable for col in view._columns)
    with pytest.raises(AttributeError):
        table.t = table.t
    for args, kwargs in [((table.t, table.values), {}), ((table.t,), {"t": table.t}),
                         ((table.t, table.values, table.mem), {"names": ()})]:
        with pytest.raises(TypeError):
            SampleTable(*args, **kwargs)


def _validated(meta, samples):
    """validate_run's Run, or its issues, and whether it sorted the samples."""
    with mock.patch.object(model, "_sample_order", wraps=model._sample_order) as order:
        try:
            result = validate_run(meta, *tables([OpEvent("a", "GPU", 0, 100)], samples))
        except TraceValidationError as exc:
            return exc.issues, order.called
    return (list(map(repr, rows(result.samples))), result.warnings), order.called


@given(sample_lists())
def test_validate_run_sorts_samples_unless_t_strictly_increases(case):
    core_count, samples = case
    meta = RunMeta("r", batch_size=1, core_count=core_count)
    ordered = sort_samples_oracle(samples)
    increasing = [s for i, s in enumerate(ordered) if i == 0 or s.t != ordered[i - 1].t]
    # Time order alone skips the sort, and the Run is the one the sort gives.
    result, sorted_ = _validated(meta, increasing)
    assert not sorted_
    assert _validated(meta, increasing[::-1]) == (result, len(increasing) > 1)
    # Out-of-order or duplicate-t input is sorted, with its ClockSkew warnings.
    tied = any(a.t >= b.t for a, b in zip(samples, samples[1:]))
    assert _validated(meta, samples) == (_validated(meta, ordered)[0], tied)


_NAMES = st.text(st.characters(codec="utf-8"), max_size=3)


@given(st.lists(st.builds(OpEvent, _NAMES, st.sampled_from(list(DEVICES)),
                          st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1),
                          st.none() | _NAMES, st.none() | st.integers(-2**63, 2**63 - 1)),
                max_size=8),
       sample_lists(), st.sampled_from([1, 2, 3, 65536]))
def test_writers_format_the_columns_as_the_per_row_oracles(ops, case, rows):
    # Names and layers with quotes, backslashes and non-ASCII; -0.0, inf and
    # out-of-range cells; chunks of 1, 2, 3 and 65 536 rows.
    core_count, samples = case
    op_table, sample_table = tables(ops, samples)
    with mock.patch.object(ingest, "_ROWS", rows):
        assert b"".join(op_trace_chunks(op_table)) == write_op_trace_oracle(ops)
        assert (b"".join(telemetry_chunks(sample_table))
                == write_telemetry_oracle(samples, core_count))
