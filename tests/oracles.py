"""Independent reference implementations used to check the pipeline.

Everything here is deliberately naive: plain loops, brute-force pair
enumeration and a discretized timeline. None of it shares code with the
implementations under test.
"""

import codecs
import json
from enum import Enum
from math import isfinite

import numpy as np

from traceprof.ingest import RunManifest
from traceprof.metrics import MetricReport
from traceprof.model import Device, Issue, OpEvent, RunMeta, SampleTable
from traceprof.sweep import SweepResult
from traceprof.synth import _RAIL_FIELDS, _ground_truth, _phase_sample_counts


_HEADERS = {
    MetricReport: {"schema_version": 1, "kind": "metric_report"},
    SweepResult: {"schema_version": 1, "kind": "sweep_result"},
    RunManifest: {"schema_version": 1},
}


def to_doc(obj):
    """JSON-ready values: a record becomes its fields plus its header, an Enum its value.

    A record (a NamedTuple, which has ``_fields``) is a tuple too, so it is tested for first.
    """
    if hasattr(obj, "_fields"):
        return {**{k: to_doc(v) for k, v in obj._asdict().items()}, **_HEADERS.get(type(obj), {})}
    if isinstance(obj, (tuple, list)):
        return [to_doc(x) for x in obj]
    if isinstance(obj, dict):
        return {k: to_doc(v) for k, v in obj.items()}
    if isinstance(obj, Enum):
        return obj.value
    return obj


def dump_oracle(obj):
    """The report, sweep result or manifest bytes that the stdlib encoder writes."""
    return (json.dumps(to_doc(obj), sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def weighted_mean_oracle(values, weights):
    num = 0.0
    den = 0.0
    for v, w in zip(values, weights):
        num += v * w
        den += w
    return num / den


def sample_weights_oracle(run):
    """Rectangle width per sample: the gap to the next sample; the last uses the nominal."""
    ts = [s.t for s in run.samples]
    return [b - a for a, b in zip(ts, ts[1:])] + [run.meta.sample_interval_us]


def rectangle_energy_oracle(powers_mw, dts_us):
    total_nj = 0.0
    for p, dt in zip(powers_mw, dts_us):
        total_nj += p * dt
    return total_nj / 1e9


def brute_force_attribution(ops, samples):
    """All (sample, op) pairs with op.start <= sample.t < op.end, by double loop."""
    starts = np.array([op.start for op in ops])
    ends = np.array([op.end for op in ops])
    ts = np.array([s.t for s in samples])
    # Broadcasting evaluates every (sample, op) pair.
    inside = (starts[None, :] <= ts[:, None]) & (ts[:, None] < ends[None, :])
    return [tuple(np.flatnonzero(row)) for row in inside]


def discretized_busy_oracle(intervals, resolution_us=1):
    """Union length of intervals by marking a boolean timeline."""
    if not intervals:
        return 0
    lo = min(start for start, _ in intervals)
    hi = max(end for _, end in intervals)
    timeline = np.zeros((hi - lo) // resolution_us, dtype=bool)
    for start, end in intervals:
        timeline[(start - lo) // resolution_us : (end - lo) // resolution_us] = True
    return int(timeline.sum()) * resolution_us


def count_ratio_oracle(values, predicate):
    hits = sum(1 for v in values if predicate(v))
    return hits / len(values)


def pairwise_pearson_oracle(series):
    """Mean Pearson correlation over unordered pairs, via numpy directly."""
    rs = []
    for i in range(len(series)):
        for j in range(i + 1, len(series)):
            a, b = np.asarray(series[i]), np.asarray(series[j])
            rs.append(float(np.corrcoef(a, b)[0, 1]))
    return sum(rs) / len(rs)


def pearson_pair_oracle(a, b):
    """Pearson r of two equal-length rows with the report's conventions.

    Equal rows score 1.0 (this covers two identical constant rows), a zero
    denominator scores 0.0, and r is clamped to [-1, 1] by Python's min/max.
    """
    if np.array_equal(a, b):
        return 1.0
    if np.ptp(a) == 0 or np.ptp(b) == 0:  # a constant row centres to exactly 0
        return 0.0
    ca = a - a.mean()
    cb = b - b.mean()
    denom = np.sqrt((ca * ca).sum() * (cb * cb).sum())
    if denom == 0.0:
        return 0.0
    r = float((ca * cb).sum() / denom)
    return max(-1.0, min(1.0, r))


def pair_scores_oracle(rows):
    """Pearson r of every row pair i < j, in (i, j) order: the report's reference scores.

    Each pair scores exactly as the scalar definition does on its two rows:
    equal rows correlate perfectly (this also covers two identical constant
    rows, where the usual formula is 0/0), a zero denominator scores 0.0, and
    r is clamped to [-1, 1] with NaN mapped to 1.0 as Python's min/max do.
    It holds all pair scores at once, and values near 1e308 overflow it.
    """
    centred = rows - rows.mean(axis=1, keepdims=True)
    centred[np.ptp(rows, axis=1) == 0] = 0.0  # a constant row has no rounding residue
    sq_sums = (centred * centred).sum(axis=1)
    blocks = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(len(rows) - 1):
            denom = np.sqrt(sq_sums[i] * sq_sums[i + 1:])
            r = (centred[i] * centred[i + 1:]).sum(axis=1) / denom
            r = np.where(r < 1.0, r, 1.0)
            r = np.where(r > -1.0, r, -1.0)
            r[denom == 0.0] = 0.0
            r[(rows[i] == rows[i + 1:]).all(axis=1)] = 1.0
            blocks.append(r)
    return np.concatenate(blocks)


def write_op_trace_oracle(ops):
    """The op-trace bytes, one ``json.dumps(record, sort_keys=True)`` line per OpEvent."""
    lines = []
    for op in ops:
        record = {"op": op.op_name, "device": op.device.value, "start_us": op.start,
                  "end_us": op.end}
        if op.layer is not None:
            record["layer"] = op.layer
        if op.step_id is not None:
            record["step"] = op.step_id
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines).encode("utf-8")


def write_telemetry_oracle(samples, core_count):
    """The telemetry bytes, one row per TelemetrySample, each percent cell ``repr(u * 100.0)``."""
    cores = [f"c{i}" for i in range(core_count)]
    lines = [",".join(["t_us", *cores, "gpu", "p_cpu_mw", "p_gpu_mw", "p_mem_mw", "p_sys_mw",
                       "mem_bytes"]) + "\n"]
    for s in samples:
        cells = [str(s.t), *(repr(u * 100.0) for u in s.cpu_core_util), repr(s.gpu_util * 100.0),
                 *map(repr, (s.power_cpu_mw, s.power_gpu_mw, s.power_mem_mw, s.power_sys_mw)),
                 str(s.mem_used_bytes)]
        lines.append(",".join(cells) + "\n")
    return "".join(lines).encode("utf-8")


def window_metrics_loop_oracle(run, window, threshold=0.0):
    """Every time-weighted window metric by a per-sample loop, each sum by fsum.

    The report promises these exact floats: fsum is correctly rounded, so any
    implementation that sums the same products must match bit for bit.
    """
    from bisect import bisect_left
    from math import fsum

    ts = [s.t for s in run.samples]
    dts = sample_weights_oracle(run)
    idx = range(bisect_left(ts, window[0]), bisect_left(ts, window[1]))
    total = fsum(dts[i] for i in idx)

    def weighted(value):
        return fsum(value(run.samples[i]) * dts[i] for i in idx)

    cores = range(run.meta.core_count)
    rails = {"cpu": "power_cpu_mw", "gpu": "power_gpu_mw", "mem": "power_mem_mw",
             "sys": "power_sys_mw"}
    return {
        "per_core": [weighted(lambda s, c=c: s.cpu_core_util[c]) / total for c in cores],
        "gpu": weighted(lambda s: s.gpu_util) / total,
        "idle": [
            fsum(dts[i] for i in idx if run.samples[i].cpu_core_util[c] <= threshold) / total
            for c in cores
        ],
        "energy": {r: weighted(lambda s, a=a: getattr(s, a)) / 1e9 for r, a in rails.items()},
        "mean_mw": {r: weighted(lambda s, a=a: getattr(s, a)) / total for r, a in rails.items()},
    }


_OP_KEYS = {"op", "layer", "device", "step", "start_us", "end_us"}


def _as_int(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def parse_op_trace_oracle(data: bytes):
    """The op-trace parser as one OpEvent per line: (events, diagnostics)."""
    events: list[OpEvent] = []
    issues: list[Issue] = []
    boms = (codecs.BOM_UTF32_LE, codecs.BOM_UTF32_BE, codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE)
    if data.startswith(boms):
        message = "op trace is not UTF-8: it starts with a UTF-16 or UTF-32 byte-order mark"
        return events, [Issue("MalformedLine", message, line_no=1)]
    warned_keys: set[str] = set()
    non_blank = 0
    for line_no, raw in enumerate(data.decode("utf-8", errors="replace").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        non_blank += 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            issues.append(Issue("MalformedLine", f"invalid JSON: {exc.msg}", line_no=line_no))
            continue
        if not isinstance(record, dict):
            issues.append(Issue("MalformedLine", "record is not a JSON object", line_no=line_no))
            continue
        for key in record:
            if key not in _OP_KEYS and key not in warned_keys:
                warned_keys.add(key)
                issues.append(
                    Issue("UnknownKey", f"ignoring unknown key {key!r}", "warning", line_no)
                )
        name = record.get("op")
        if not isinstance(name, str) or not name:
            issues.append(Issue("MalformedLine", "missing or empty 'op'", line_no=line_no))
            continue
        device_raw = record.get("device")
        try:
            device = Device(device_raw)
        except ValueError:
            issues.append(
                Issue("UnknownDevice", f"unknown device {device_raw!r}", line_no=line_no)
            )
            continue
        start = _as_int(record.get("start_us"))
        end = _as_int(record.get("end_us"))
        if start is None or end is None:
            issues.append(
                Issue("MalformedLine", "start_us and end_us must be integers", line_no=line_no)
            )
            continue
        step = record.get("step")
        if step is not None:
            step = _as_int(step)
            if step is None:
                issues.append(
                    Issue("MalformedLine", "step must be an integer", line_no=line_no)
                )
                continue
        layer = record.get("layer")
        if layer is not None and not isinstance(layer, str):
            issues.append(Issue("MalformedLine", "layer must be a string", line_no=line_no))
            continue
        events.append(
            OpEvent(op_name=name, device=device, start=start, end=end, layer=layer, step_id=step)
        )
    if non_blank == 0:
        issues.append(Issue("EmptyTrace", "op trace has no records", line_no=0))
    return events, issues



_NO_SAMPLES = SampleTable(np.empty(0, np.int64), np.empty((0, 5)), np.empty(0, np.int64))


def parse_telemetry_oracle(data: bytes, core_count: int):
    """The telemetry parser one line at a time: (SampleTable, diagnostics)."""
    int64 = 2**63
    t_col, values, mem_col = [], [], []
    issues: list[Issue] = []
    raw_lines = data.decode("utf-8", errors="replace").splitlines()
    numbered = [(i, line.strip()) for i, line in enumerate(raw_lines, start=1) if line.strip()]
    if not numbered:
        issues.append(Issue("EmptyTrace", "telemetry file is empty", line_no=0))
        return _NO_SAMPLES, issues

    header_no, header_line = numbered[0]
    # Naming n cores takes at least n characters ("c0,c1,..."), so a shorter header cannot.
    width = len(raw_lines[header_no - 1])
    if core_count > width:
        message = (f"run declares {core_count} cores, more than its {width}-character header "
                   "can name")
        return _NO_SAMPLES, [Issue("CoreCountMismatch", message, line_no=header_no)]
    header = [cell.strip() for cell in header_line.split(",")]
    rails = ("cpu", "gpu", "mem", "sys")
    value_names = [*(f"c{i}" for i in range(core_count)), "gpu", *(f"p_{r}_mw" for r in rails)]
    expected = ["t_us", *value_names, "mem_bytes"]
    col_index: dict[str, int] = {}
    for pos, name in enumerate(header):
        if name in expected and name not in col_index:
            col_index[name] = pos
        elif name.startswith("c") and name[1:].isdigit():
            issues.append(
                Issue(
                    "CoreCountMismatch",
                    f"telemetry column {name!r} exceeds declared core count {core_count}",
                    line_no=header_no,
                )
            )
        else:
            issues.append(
                Issue("UnknownColumn", f"ignoring unknown column {name!r}", "warning", header_no)
            )
    missing = [name for name in expected if name not in col_index]
    if missing:
        issues.append(
            Issue("MalformedLine", f"header missing columns {missing}", line_no=header_no)
        )
        return _NO_SAMPLES, issues

    n_util = core_count + 1
    for line_no, line in numbered[1:]:
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) < len(header):
            issues.append(
                Issue("MalformedLine", f"expected {len(header)} cells, got {len(cells)}", line_no=line_no)
            )
            continue
        try:
            t = int(cells[col_index["t_us"]])
            mem = int(cells[col_index["mem_bytes"]])
            row = [float(cells[col_index[name]]) for name in value_names]
        except ValueError as exc:
            issues.append(Issue("MalformedLine", f"bad numeric cell: {exc}", line_no=line_no))
            continue
        if not -int64 <= t < int64:
            issues.append(Issue("MalformedLine", "t_us must fit in int64", line_no=line_no))
            continue
        if not all(isfinite(x) for x in row):
            cols = [name for name, x in zip(value_names, row) if not isfinite(x)]
            issues.append(Issue("NonFinite", f"nan or inf in column(s) {cols}", line_no=line_no))
            continue
        pct = next((x for x in row[:n_util] if not 0.0 <= x <= 100.0), None)
        if pct is not None:
            issues.append(
                Issue("UtilizationOutOfRange", f"utilization {pct}% outside [0, 100]", line_no=line_no)
            )
            continue
        negative = [rail for rail, p in zip(rails, row[n_util:]) if p < 0]
        if negative:
            issues.append(
                Issue("NegativePower", f"negative power on rail(s) {negative}", line_no=line_no)
            )
            continue
        if not 0 <= mem < int64:
            message = "must be non-negative" if mem < 0 else "must fit in int64"
            issues.append(Issue("MalformedLine", f"mem_bytes {message}", line_no=line_no))
            continue
        t_col.append(t)
        values.append([x / 100.0 for x in row[:n_util]] + row[n_util:])
        mem_col.append(mem)
    if not t_col and not any(i.severity == "error" for i in issues):
        issues.append(Issue("EmptyTrace", "telemetry has a header but no rows", line_no=0))
    samples = SampleTable(np.array(t_col, np.int64),
                          np.array(values, np.float64).reshape(-1, len(value_names)),
                          np.array(mem_col, np.int64))
    return samples, issues

def _op_sort_key(op):
    return (
        op.start,
        op.end,
        op.op_name,
        op.device.value,
        -1 if op.step_id is None else op.step_id,
        op.layer or "",
    )


def sort_ops_oracle(ops):
    """Ops in validated order by a stable sort on the tuple key."""
    return sorted(ops, key=_op_sort_key)


def op_order_oracle(ops):
    """The row indices of an OpTable in run order: a stable sort of its rows on the tuple
    key start, end, name, device, step (-1 if missing), layer ("" if missing)."""
    rows = list(ops)
    return sorted(range(len(rows)), key=lambda i: _op_sort_key(rows[i]))


def validate_ops_oracle(ops):
    """(sorted ops, op errors, duplicate-op warnings) as validation reports them, by loops."""
    ordered = sort_ops_oracle(ops)
    errors = []
    for i, op in enumerate(ordered):
        if not op.op_name:
            errors.append(Issue("InvariantViolation", f"op #{i} has empty op_name"))
        if op.start < 0:
            errors.append(Issue("InvariantViolation",
                                f"op #{i} '{op.op_name}' has negative start {op.start}"))
        if op.end <= op.start:
            errors.append(Issue("InvariantViolation",
                                f"op #{i} '{op.op_name}' has end {op.end} <= start {op.start}"))
        if op.step_id is not None and op.step_id < 0:
            errors.append(Issue("InvariantViolation",
                                f"op #{i} '{op.op_name}' has negative step_id"))
    warnings = [
        Issue("ClockSkew", f"duplicate op record '{a.op_name}' at {a.start} us", severity="warning")
        for a, b in zip(ordered, ordered[1:])
        if a == b
    ]
    return ordered, errors, warnings


def _sample_sort_key(s):
    return (
        s.t,
        s.cpu_core_util,
        s.gpu_util,
        s.power_cpu_mw,
        s.power_gpu_mw,
        s.power_mem_mw,
        s.power_sys_mw,
        s.mem_used_bytes,
    )


def sort_samples_oracle(samples):
    """Samples in validated order by a stable sort on the tuple key."""
    return sorted(samples, key=_sample_sort_key)


def validate_samples_oracle(samples, core_count):
    """(sorted samples, sample errors, duplicate-timestamp warnings), by loops."""
    ordered = sort_samples_oracle(samples)
    errors = []
    width = len(ordered[0].cpu_core_util) if ordered else core_count
    if width != core_count:  # one table, one width
        errors.append(Issue("CoreCountMismatch", f"samples have {width} core utilizations, "
                            f"run declares {core_count} cores"))
    for i, s in enumerate(ordered):
        if s.t < 0:
            errors.append(Issue("InvariantViolation", f"sample #{i} has negative timestamp {s.t}"))
        for c, u in enumerate(s.cpu_core_util):
            if not 0.0 <= u <= 1.0:
                errors.append(Issue("InvariantViolation",
                                    f"sample #{i} core {c} utilization {u} outside [0, 1]"))
        if not 0.0 <= s.gpu_util <= 1.0:
            errors.append(Issue("InvariantViolation",
                                f"sample #{i} gpu utilization {s.gpu_util} outside [0, 1]"))
        for rail in ("cpu", "gpu", "mem", "sys"):
            p = getattr(s, f"power_{rail}_mw")
            if not isfinite(p):
                errors.append(Issue("InvariantViolation",
                                    f"sample #{i} non-finite {rail} power {p} mW"))
            elif p < 0:
                errors.append(Issue("InvariantViolation", f"sample #{i} negative {rail} power {p} mW"))
        if s.mem_used_bytes < 0:
            errors.append(Issue("InvariantViolation", f"sample #{i} negative mem_used_bytes"))
    warnings = [
        Issue("ClockSkew", f"duplicate sample timestamp {a.t} us", severity="warning")
        for a, b in zip(ordered, ordered[1:])
        if a.t == b.t
    ]
    return ordered, errors, warnings


def _quantize_util_oracle(value):
    return min(1.0, max(0.0, round(value * 1024.0) / 1024.0))


def generate_oracle(spec):
    """(meta, ops, samples, ground truth) of a valid spec, one op and one sample at a time.

    The loop that ``synth.generate`` replaced, with a scalar quantizer. It
    reuses the spec checks and the closed forms of ``synth``: those are not
    what it is compared on.
    """
    counts = _phase_sample_counts(spec)
    phases = tuple(
        p._replace(cpu_core_util=tuple(_quantize_util_oracle(u) for u in p.cpu_core_util),
                   gpu_util=_quantize_util_oracle(p.gpu_util))
        for p in spec.phases
    )
    truth = _ground_truth(spec, phases, counts)

    rng = np.random.default_rng(spec.seed)
    amp = spec.noise_amplitude
    dt = spec.sample_interval_us
    meta = RunMeta(
        run_id=spec.run_id,
        batch_size=spec.batch_size,
        core_count=spec.core_count,
        device_mem_capacity_bytes=spec.device_mem_capacity_bytes,
        sample_interval_us=dt,
        warmup_steps=spec.warmup_steps,
    )

    ops: list[OpEvent] = []
    t_col, rows, mem_col = [], [], []
    for step in range(spec.steps):
        step_start = step * spec.step_duration_us
        offset = 0
        for k, (phase, count) in enumerate(zip(phases, counts)):
            phase_start = step_start + offset * dt
            phase_end = phase_start + count * dt
            ops.append(
                OpEvent(
                    op_name=phase.op_name or f"phase{k}",
                    device=phase.op_device,
                    start=phase_start,
                    end=phase_end,
                    step_id=None if spec.strip_step_ids else step,
                )
            )
            mem = phase.mem_bytes
            if step < spec.warmup_steps:
                mem += spec.warmup_mem_extra_bytes
            powers = [getattr(phase, field) for field in _RAIL_FIELDS.values()]
            for j in range(count):
                t_col.append(phase_start + j * dt)
                if amp > 0.0:
                    cores = [_quantize_util_oracle(u + rng.uniform(-amp, amp))
                             for u in phase.cpu_core_util]
                    gpu = _quantize_util_oracle(phase.gpu_util + rng.uniform(-amp, amp))
                    rows.append([*cores, gpu,
                                 *(max(0.0, p * (1.0 + rng.uniform(-amp, amp))) for p in powers)])
                else:
                    rows.append([*phase.cpu_core_util, phase.gpu_util, *powers])
                mem_col.append(mem)
            offset += count
    samples = SampleTable(np.array(t_col, np.int64), np.array(rows, np.float64),
                          np.array(mem_col, np.int64))
    return meta, ops, samples, truth
