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


def window_sums(run, window=None, threshold=0.0):
    """Every time-weighted metric of the run's samples with t in ``window``, or of all."""
    t = run.samples.t
    (sums,) = metrics._windows(run, [window or (int(t[0]), int(t[-1]) + 1)], threshold)
    return sums


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
