import tracemalloc
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
from hypothesis import settings

from traceprof import metrics
from traceprof.model import (
    DEVICES,
    Device,
    OpEvent,
    OpTable,
    RunMeta,
    SampleTable,
    TelemetrySample,
    validate_run,
)

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


def mk_sample(t, cores=(0.0, 0.0), gpu=0.0, p_cpu=0.0, p_gpu=0.0, p_mem=0.0, p_sys=0.0, mem=0):
    return TelemetrySample(
        t=t,
        cpu_core_util=tuple(cores),
        gpu_util=gpu,
        power_cpu_mw=p_cpu,
        power_gpu_mw=p_gpu,
        power_mem_mw=p_mem,
        power_sys_mw=p_sys,
        mem_used_bytes=mem,
    )


def tables(ops, samples):
    """The OpTable and SampleTable of OpEvent and TelemetrySample lists, rows in order.

    Every sample has as many cores as the first.
    """
    names, layers = {}, {}
    op_rows = [(op.start, op.end, DEVICES.index(op.device), op.step_id or 0,
                op.step_id is not None, names.setdefault(op.op_name, len(names)),
                layers.setdefault(op.layer, len(layers))) for op in ops]
    start, end, device, step, has_step, name, layer = np.array(op_rows, np.int64).reshape(-1, 7).T
    op_table = OpTable(start.copy(), end.copy(), device.astype(np.int8), step.copy(),
                       has_step.astype(bool), name.astype(np.int32), layer.astype(np.int32),
                       tuple(names), tuple(layers))
    samples = list(samples)
    rows = [(*s.cpu_core_util, s.gpu_util, s.power_cpu_mw, s.power_gpu_mw, s.power_mem_mw,
             s.power_sys_mw) for s in samples]
    width = len(rows[0]) if rows else 5
    sample_table = SampleTable(np.array([s.t for s in samples], np.int64),
                               np.array(rows, np.float64).reshape(-1, width),
                               np.array([s.mem_used_bytes for s in samples], np.int64))
    return op_table, sample_table


def two_stream_ops(n):
    """n labelled ops in run order on two streams: a GPU op every 10 us, a CPU op 3 us
    after each, 30 of each per step."""
    k = np.arange(n, dtype=np.int64)
    start = k // 2 * 10 + k % 2 * 3
    return OpTable(start, start + 8, (k % 2 == 0).astype(np.int8), k // 60, np.ones(n, bool),
                   (k % 7).astype(np.int32), np.zeros(n, np.int32),
                   tuple(f"op{i}" for i in range(7)), ("l0",))


def table_bytes(table):
    return sum(getattr(table, col).nbytes for col in table._columns)


def traced_peak(call, *args):
    """The result of ``call(*args)`` and the most memory tracemalloc saw it hold at once."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def assert_same_types(got, want, path="doc"):
    """``got`` has ``want``'s type at every node of its tree.

    A record is a NamedTuple, and tuple ``==`` ignores the class, so a decoder
    that built plain tuples or the wrong record would still compare equal.
    """
    assert type(got) is type(want), f"{path}: {type(got).__name__}, not {type(want).__name__}"
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_same_types(got[key], want[key], f"{path}[{key!r}]")
    elif isinstance(want, tuple):
        assert len(got) == len(want), path
        names = getattr(want, "_fields", range(len(want)))
        for name, g, w in zip(names, got, want):
            assert_same_types(g, w, f"{path}.{name}")


def window_sums(run, window=None, threshold=0.0):
    """Every time-weighted metric of the run's samples with t in ``window``, or of all.

    Fields: per_core, cpu_avg, gpu, idle, energy_j and the rail ranking.
    """
    t, c = run.samples.t, run.samples.core_count
    w = metrics._windows(run, [window or (int(t[0]), int(t[-1]) + 1)], threshold)
    (row,) = metrics._window_metrics(w, c)
    return SimpleNamespace(**dict(zip(("per_core", "cpu_avg", "gpu", "idle", "energy_j"), row)),
                           ranking=metrics._rail_ranking(w.sums[0, c + 1:], w.total_us[0]))


def mk_run(samples, ops=None, *, batch=1, interval=10_000, warmup=0,
           capacity=8_000_000_000, breakdown=None, run_id="test"):
    core_count = len(samples[0].cpu_core_util)
    if ops is None:
        ops = [OpEvent("op", Device.GPU, samples[0].t, samples[-1].t + interval)]
    meta = RunMeta(
        run_id=run_id,
        batch_size=batch,
        core_count=core_count,
        device_mem_capacity_bytes=capacity,
        sample_interval_us=interval,
        warmup_steps=warmup,
    )
    return validate_run(meta, *tables(ops, samples), breakdown)


# Utilization fractions on the 1/1024 grid survive the percent wire format
# bit-exactly; see the synth module notes.
util_fractions = st.integers(0, 1024).map(lambda k: k / 1024.0)
powers_mw = st.floats(0.0, 15_000.0, allow_nan=False, allow_infinity=False)
