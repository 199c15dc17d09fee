"""Domain types for profiled training runs and their validity rules.

Timestamps are integer microseconds on a single monotonic clock per run;
utilization is stored as fractions in [0, 1]; power in milliwatts. All types
are plain carriers: invariants are enforced centrally by ``validate_run`` so
that every violation in a trace can be reported at once. Each table's
invariants are written once, as the boolean columns of one rows x checks
failure matrix. Its nonzero entries, walked row-major, give the issues in
row-then-check order, and each message is formatted from the columns' values.

A run's ops and samples are held as columns, not as one object per row.
:class:`OpTable` has int64 ``start``/``end``/``step`` (with a ``has_step``
mask, so "no step" is distinct from every integer), an int8 device code and
int32 codes into interned ``names`` and ``layers`` tuples (a ``None`` layer
is distinct from ``""``). :class:`SampleTable` has int64 ``t`` and ``mem``
and one float64 ``values`` row per sample. Both share one read-only table
base; ``validate_run`` and every command read their columns.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import isfinite
from typing import Literal, NamedTuple, get_args

import numpy as np

from .errors import TraceValidationError

Micros = int
Device = Literal["CPU", "GPU"]  # a device name, as written in the op trace


class _Table:
    """Read-only numpy columns, one row per item.

    A subclass names its fields in ``_fields``, the array columns
    (``_columns``) first. A table is built from its fields by position or
    keyword; its columns are then read-only, and no attribute can be
    assigned. It is not a tuple, because ``len`` counts its rows.
    """

    _fields: tuple[str, ...]
    _columns: tuple[str, ...]

    def __init__(self, *args, **kwargs) -> None:
        values = dict(zip(self._fields, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update(values)
        for col in self._columns:
            values[col].flags.writeable = False

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a read-only table")

    def take(self, rows):
        """The table of the given rows, in that order."""
        return type(self)(**{**vars(self), **{col: getattr(self, col)[rows]
                                               for col in self._columns}})

    def __len__(self) -> int:
        return len(getattr(self, self._columns[0]))


# Power rails in the order of SampleTable.values' last four columns.
RAILS = ("cpu", "gpu", "mem", "sys")
# Device codes of OpTable.device; the codes sort as the names do.
DEVICES = get_args(Device)


class OpTable(_Table):
    """Ops as columns, one row per op.

    ``names`` and ``layers`` hold each distinct value once and ``name`` and
    ``layer`` index them, so equal codes mean equal values. ``step`` is 0
    where ``has_step`` is false.
    """

    start: np.ndarray  # int64 us
    end: np.ndarray  # int64 us
    device: np.ndarray  # int8 index into DEVICES
    step: np.ndarray  # int64
    has_step: np.ndarray  # bool
    name: np.ndarray  # int32 index into names
    layer: np.ndarray  # int32 index into layers
    names: tuple[str, ...]
    layers: tuple[str | None, ...]
    _columns = ("start", "end", "device", "step", "has_step", "name", "layer")
    _fields = (*_columns, "names", "layers")


class SampleTable(_Table):
    """Samples as columns, one row per sample.

    ``values`` has one row per sample: the core utilizations, then the GPU
    utilization, then the cpu, gpu, mem and sys power rails.
    """

    t: np.ndarray  # int64 us
    values: np.ndarray  # float64, one row of core_count + 5 values per sample
    mem: np.ndarray  # int64 bytes
    _columns = _fields = ("t", "values", "mem")

    @property
    def core_count(self) -> int:
        return self.values.shape[1] - 5


class RunMeta(NamedTuple):
    run_id: str
    batch_size: int
    core_count: int
    device_mem_capacity_bytes: int = 8 * 1024**3
    sample_interval_us: int = 10_000
    warmup_steps: int = 3


class StepWindow(NamedTuple):
    """A training-step interval; treated half-open [start_us, end_us)."""

    step_id: int
    start_us: Micros
    end_us: Micros
    is_warmup: bool = False

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


class MemoryBreakdown(NamedTuple):
    """Reported byte split of training memory; absent fields mean unreported."""

    parameters_bytes: int | None = None
    gradients_bytes: int | None = None
    input_bytes: int | None = None
    intermediate_bytes: int | None = None

    def total_bytes(self) -> int | None:
        return None if None in self else sum(self)  # type: ignore[arg-type]


class Issue(NamedTuple):
    """One diagnostic produced while parsing or validating a trace."""

    code: str
    message: str
    severity: str = "error"  # "error" | "warning"
    line_no: int | None = None


class Run(NamedTuple):
    """A validated, immutable run: sorted ops and samples plus metadata."""

    meta: RunMeta
    ops: OpTable
    samples: SampleTable
    memory_breakdown: MemoryBreakdown | None = None
    warnings: tuple[Issue, ...] = ()

    @property
    def end_us(self) -> int:
        last_sample_end = int(self.samples.t[-1]) + self.meta.sample_interval_us
        return max(int(self.ops.end.max()), last_sample_end)


def _ranks(keys: Sequence[str]) -> np.ndarray:
    """Each key's position among the distinct keys in sorted order."""
    position = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return np.array([position[key] for key in keys], dtype=np.int64)


def _tie_keys(ops: OpTable, rows: np.ndarray) -> list[np.ndarray]:
    """The name, device, step and layer sort keys of ``rows``, the most significant first.

    A missing step sorts as -1 and a missing layer as "".
    """
    return [_ranks(ops.names)[ops.name[rows]], ops.device[rows],
            np.where(ops.has_step[rows], ops.step[rows], -1),
            _ranks([layer or "" for layer in ops.layers])[ops.layer[rows]]]


def _op_order(ops: OpTable) -> np.ndarray:
    """Stable row order by start, end, name, device, step, layer.

    Rows that tie on every key keep their input order. One sort by start and
    end orders the rows; only the rows that tie on both are then sorted by
    every key.
    """
    order = np.lexsort((ops.end, ops.start))
    key = ops.start[order]
    tied = key[1:] == key[:-1]
    np.take(ops.end, order, out=key, mode="clip")  # "raise" would buffer a copy
    tied &= key[1:] == key[:-1]
    del key
    if tied.any():
        at = np.flatnonzero(np.r_[tied, False] | np.r_[False, tied])
        rows = order[at]
        order[at] = rows[np.lexsort((*_tie_keys(ops, rows)[::-1], ops.end[rows],
                                     ops.start[rows]))]
    return order


def _in_op_order(ops: OpTable) -> bool:
    """Whether ``_op_order(ops)`` is the identity: no row's key is below the one before.

    O(n), with no sort: start and end are compared first, and the other keys
    only at rows tied on both.
    """
    start, end = ops.start, ops.end
    if not (start[1:] >= start[:-1]).all():
        return False
    tied = start[1:] == start[:-1]
    if (tied & (end[1:] < end[:-1])).any():
        return False
    tied &= end[1:] == end[:-1]
    if not tied.any():
        return True
    at = np.flatnonzero(tied)
    undecided = np.ones(len(at), dtype=bool)  # the pairs (at, at + 1) tied on every key so far
    for key in _tie_keys(ops, np.concatenate((at, at + 1))):
        before, after = key[:len(at)], key[len(at):]
        if (undecided & (before > after)).any():
            return False
        undecided &= before == after
    return True


def _sample_order(samples: SampleTable) -> np.ndarray:
    """Stable row order by t, then each value column in turn, then memory."""
    return np.lexsort((samples.mem, *samples.values.T[::-1], samples.t))


def _check_meta(meta: RunMeta, issues: list[Issue]) -> None:
    if not meta.run_id:
        issues.append(Issue("InvalidMeta", "run_id must be non-empty"))
    if meta.batch_size < 1:
        issues.append(Issue("InvalidMeta", f"batch_size must be >= 1, got {meta.batch_size}"))
    if meta.batch_size >= 2**63:
        issues.append(Issue("InvalidMeta", "batch_size must be < 2**63"))
    if meta.core_count < 1:
        issues.append(Issue("InvalidMeta", f"core_count must be >= 1, got {meta.core_count}"))
    if meta.sample_interval_us <= 0:
        issues.append(
            Issue("InvalidMeta", f"sample_interval_us must be > 0, got {meta.sample_interval_us}")
        )
    if meta.device_mem_capacity_bytes < 1:
        issues.append(Issue("InvalidMeta", "device_mem_capacity_bytes must be >= 1"))
    if meta.warmup_steps < 0:
        issues.append(Issue("InvalidMeta", f"warmup_steps must be >= 0, got {meta.warmup_steps}"))


def _failures(*checks: np.ndarray) -> Iterator[tuple[int, int]]:
    """(row, check) of each true cell of the rows x checks failure matrix, row-major."""
    failures = np.column_stack(checks)
    # np.flatnonzero, not np.nonzero: on a 2-d array the latter is ~50x slower, even all false.
    rows, cols = divmod(np.flatnonzero(failures), failures.shape[1])
    return zip(rows.tolist(), cols.tolist())


def _check_ops(ops: OpTable, issues: list[Issue]) -> None:
    """One issue per failing (op, check), in row-then-check order."""
    empty_name = np.array([not name for name in ops.names], dtype=bool)[ops.name]
    for i, check in _failures(empty_name, ops.start < 0, ops.end <= ops.start,
                              ops.has_step & (ops.step < 0)):
        name, start, end = ops.names[ops.name[i]], ops.start[i].item(), ops.end[i].item()
        what = ("has empty op_name", f"'{name}' has negative start {start}",
                f"'{name}' has end {end} <= start {start}", f"'{name}' has negative step_id")
        issues.append(Issue("InvariantViolation", f"op #{i} {what[check]}"))


def _duplicate_op_warnings(ops: OpTable) -> list[Issue]:
    """One warning per op equal in every field to the op before it."""
    same = np.ones(max(len(ops) - 1, 0), dtype=bool)
    for col in ops._columns:
        values = getattr(ops, col)
        same &= values[1:] == values[:-1]
    return [
        Issue(
            "ClockSkew",
            f"duplicate op record '{ops.names[ops.name[i]]}' at {ops.start[i]} us",
            severity="warning",
        )
        for i in np.flatnonzero(same).tolist()
    ]


def _check_samples(samples: SampleTable, core_count: int, issues: list[Issue]) -> None:
    """A table of the wrong width once, then one issue per failing (sample, check).

    The row checks, in order, are the timestamp, then the value columns: c
    cores and the GPU in [0, 1], then the rails finite and >= 0, then memory.
    """
    c, values = samples.core_count, samples.values
    if samples and c != core_count:
        issues.append(Issue("CoreCountMismatch", f"samples have {c} core utilizations, "
                            f"run declares {core_count} cores"))
    utils, powers = values[:, :c + 1], values[:, c + 1:]
    for i, check in _failures(samples.t < 0, ~((utils >= 0.0) & (utils <= 1.0)),
                              ~(np.isfinite(powers) & (powers >= 0.0)), samples.mem < 0):
        col = check - 1
        if check == 0:
            what = f"has negative timestamp {samples.t[i].item()}"
        elif col <= c:
            unit = f"core {col}" if col < c else "gpu"
            what = f"{unit} utilization {values[i, col].item()} outside [0, 1]"
        elif col <= c + 4:
            p = values[i, col].item()
            kind = "negative" if isfinite(p) else "non-finite"
            what = f"{kind} {RAILS[col - c - 1]} power {p} mW"
        else:
            what = "negative mem_used_bytes"
        issues.append(Issue("InvariantViolation", f"sample #{i} {what}"))


def validate_run(
    meta: RunMeta,
    ops: OpTable,
    samples: SampleTable,
    memory_breakdown: MemoryBreakdown | None = None,
) -> Run:
    """Check every invariant and return a Run with sorted ops and samples.

    Collects all violations instead of failing fast; raises
    :class:`TraceValidationError` carrying the full issue list when any
    error-severity issue exists. Non-fatal findings (duplicate timestamps,
    breakdown/peak mismatch) become warnings attached to the returned Run.
    Validating the pieces of an already-validated Run returns a Run of the
    same rows. Ops and samples are tables, as ``ingest.load_run`` and
    ``synth.generate`` build them; each issue names its row in sorted order.
    A sorted table is kept, not copied.
    """
    issues: list[Issue] = []
    _check_meta(meta, issues)
    breakdown = memory_breakdown or MemoryBreakdown()
    bad_bytes = {f: v for f, v in zip(breakdown._fields, breakdown)
                 if v is not None and not 0 <= v < 2**63}
    for field, value in bad_bytes.items():
        bound = f">= 0, got {value}" if value < 0 else "< 2**63"
        issues.append(Issue("InvalidMeta", f"memory_breakdown.{field} must be {bound}"))
    if not samples or not ops:
        issues.append(Issue("EmptyTrace", "run needs at least one op and one sample"))

    if not _in_op_order(ops):  # else the run order is the identity, and no copy is made
        ops = ops.take(_op_order(ops))
    _check_ops(ops, issues)

    if not (samples.t[1:] > samples.t[:-1]).all():  # else the sorted order is the identity
        samples = samples.take(_sample_order(samples))
    _check_samples(samples, meta.core_count, issues)
    # With every t >= 0 this bounds each window's int64 weight sum.
    if samples and samples.t[-1].item() + meta.sample_interval_us >= 2**63:
        issues.append(Issue("InvariantViolation", f"last sample at {samples.t[-1]} us plus "
                            f"sample_interval_us {meta.sample_interval_us} reaches 2**63 us"))

    t = samples.t
    warnings = [
        Issue("ClockSkew", f"duplicate sample timestamp {dup} us", severity="warning")
        for dup in t[1:][t[1:] == t[:-1]].tolist()
    ]
    warnings.extend(_duplicate_op_warnings(ops))

    total = None if bad_bytes else breakdown.total_bytes()
    peak = int(samples.mem.max()) if samples else None
    if total is not None and peak is not None and total > peak:
        warnings.append(Issue("MemoryBreakdownMismatch",
                              f"breakdown sums to {total} bytes, above observed peak {peak}",
                              severity="warning"))

    if any(i.severity == "error" for i in issues):
        raise TraceValidationError(issues + warnings)

    return Run(
        meta=meta,
        ops=ops,
        samples=samples,
        memory_breakdown=memory_breakdown,
        warnings=tuple(warnings),
    )
