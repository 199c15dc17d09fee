import random
from dataclasses import replace

from hypothesis import given, strategies as st

from conftest import mk_run, mk_sample
from oracles import brute_force_attribution, discretized_busy_oracle
from traceprof.correlate import attribute_samples, busy_time, concurrent_ops_exist
from traceprof.metrics import build_report
from traceprof.model import Device, OpEvent, StepWindow


def _run_with(ops, sample_ts, interval=10_000):
    samples = [mk_sample(t) for t in sample_ts]
    return mk_run(samples, ops, interval=interval)


def test_sample_inside_two_ops_attributed_to_both():
    ops = [OpEvent("A", Device.GPU, 0, 100), OpEvent("B", Device.GPU, 50, 150)]
    run = _run_with(ops, [75])
    (attr,) = attribute_samples(run)
    names = {run.ops[i].op_name for i in attr.op_indices}
    assert names == {"A", "B"}


def test_sample_outside_all_ops_gets_empty_list():
    ops = [OpEvent("A", Device.GPU, 0, 100)]
    run = _run_with(ops, [200])
    (attr,) = attribute_samples(run)
    assert attr.op_indices == ()


def test_half_open_boundaries():
    ops = [OpEvent("A", Device.GPU, 0, 100), OpEvent("B", Device.GPU, 100, 200)]
    run = _run_with(ops, [0, 100, 200])
    at0, at100, at200 = attribute_samples(run)
    assert {run.ops[i].op_name for i in at0.op_indices} == {"A"}
    assert {run.ops[i].op_name for i in at100.op_indices} == {"B"}
    assert at200.op_indices == ()


def test_step_id_assigned_from_windows():
    ops = [OpEvent("A", Device.GPU, 0, 300)]
    run = _run_with(ops, [50, 150, 250])
    windows = [StepWindow(0, 0, 100), StepWindow(1, 100, 200)]
    attrs = attribute_samples(run, windows)
    assert [a.step_id for a in attrs] == [0, 1, None]


def _random_case(seed, n_ops, n_samples, span):
    rng = random.Random(seed)
    ops = []
    for i in range(n_ops):
        start = rng.randrange(span)
        ops.append(
            OpEvent(
                f"op{i % 7}",
                rng.choice([Device.CPU, Device.GPU]),
                start,
                start + rng.randrange(1, span // 4),
            )
        )
    ts = sorted(rng.sample(range(span), min(n_samples, span)))
    return _run_with(ops, ts, interval=1)


def test_attribution_matches_brute_force_on_random_runs():
    for seed in range(10):
        run = _random_case(seed, n_ops=60, n_samples=80, span=2_000)
        got = attribute_samples(run)
        expected = brute_force_attribution(run.ops, run.samples)
        assert [a.op_indices for a in got] == expected


def test_attribution_insensitive_to_input_order():
    run = _random_case(3, n_ops=40, n_samples=50, span=1_000)
    rng = random.Random(0)
    ops = list(run.ops)
    samples = list(run.samples)
    rng.shuffle(ops)
    rng.shuffle(samples)
    shuffled = mk_run(samples, ops, interval=1)
    assert attribute_samples(shuffled) == attribute_samples(run)


def test_removing_an_op_never_grows_attribution():
    run = _random_case(5, n_ops=30, n_samples=40, span=1_000)
    base = attribute_samples(run)
    base_pairs = {
        (a.sample_index, run.ops[i]) for a in base for i in a.op_indices
    }
    for drop in range(len(run.ops)):
        kept = [op for i, op in enumerate(run.ops) if i != drop]
        smaller = mk_run(list(run.samples), kept, interval=1)
        pairs = {
            (a.sample_index, smaller.ops[i])
            for a in attribute_samples(smaller)
            for i in a.op_indices
        }
        assert pairs <= base_pairs


def test_busy_time_union_of_overlapping_intervals():
    ops = [OpEvent("A", Device.GPU, 0, 100), OpEvent("B", Device.GPU, 50, 150)]
    run = _run_with(ops, [0])
    assert busy_time(run, Device.GPU) == 150


def test_busy_time_no_ops_on_device():
    ops = [OpEvent("A", Device.GPU, 0, 100)]
    run = _run_with(ops, [0])
    assert busy_time(run, Device.CPU) == 0


def test_busy_time_matches_discretized_oracle():
    for seed in range(8):
        run = _random_case(seed + 100, n_ops=80, n_samples=5, span=5_000)
        for device in (Device.CPU, Device.GPU):
            intervals = [(op.start, op.end) for op in run.ops if op.device is device]
            assert busy_time(run, device) == discretized_busy_oracle(intervals)


@given(st.integers(0, 10_000))
def test_busy_time_bounded_by_run_duration(seed):
    run = _random_case(seed, n_ops=20, n_samples=10, span=3_000)
    start = min(int(run.ops.start[0]), int(run.samples.t[0]))
    for device in (Device.CPU, Device.GPU):
        assert busy_time(run, device) <= run.end_us - start


def test_concurrent_ops_detection():
    overlapping = [OpEvent("A", Device.GPU, 0, 100), OpEvent("B", Device.CPU, 50, 150)]
    disjoint = [OpEvent("A", Device.GPU, 0, 100), OpEvent("B", Device.CPU, 100, 150)]
    assert concurrent_ops_exist(_run_with(overlapping, [0]))
    assert not concurrent_ops_exist(_run_with(disjoint, [0]))


def test_report_attribution_counts_match_attribute_samples():
    # Concurrent ops on both devices, and samples exactly on op starts and
    # ends, where half-open intervals decide the attribution. The labels give
    # the disjoint steps [0, 300) and [310, 320).
    ops = [
        OpEvent("A", Device.GPU, 0, 100, step_id=0),
        OpEvent("B", Device.GPU, 50, 150, step_id=0),
        OpEvent("A", Device.CPU, 100, 200, step_id=0),
        OpEvent("C", Device.CPU, 120, 125, step_id=0),
        OpEvent("D", Device.GPU, 150, 300, step_id=0),
        OpEvent("D", Device.GPU, 150, 300, step_id=0),
        OpEvent("E", Device.CPU, 310, 320, step_id=1),
    ]
    run = _run_with(ops, [0, 25, 50, 100, 120, 125, 150, 200, 250, 300], interval=50)
    expected = {op.op_name: 0 for op in run.ops}
    for attribution in attribute_samples(run):
        for i in attribution.op_indices:
            expected[run.ops[i].op_name] += 1
    per_op = build_report(run).per_op
    assert {name: agg.attributed_samples for name, agg in per_op.items()} == expected
    assert expected["C"] == 1 and expected["E"] == 0
    assert [name for name, agg in per_op.items() if agg.below_sampling_resolution] == ["E"]


def test_report_attribution_counts_match_attribute_samples_on_random_runs():
    for seed in range(20):
        labelled = _random_case(seed, n_ops=40, n_samples=60, span=1_000)
        run = mk_run(list(labelled.samples), [replace(op, step_id=0) for op in labelled.ops],
                     interval=1)
        expected = {op.op_name: 0 for op in run.ops}
        for attribution in attribute_samples(run):
            for i in attribution.op_indices:
                expected[run.ops[i].op_name] += 1
        per_op = build_report(run).per_op
        assert {name: agg.attributed_samples for name, agg in per_op.items()} == expected
