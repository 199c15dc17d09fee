"""Domain types for profiled training runs and their validity rules.

Timestamps are integer microseconds on a single monotonic clock per run;
utilization is stored as fractions in [0, 1]; power in milliwatts. All types
are plain carriers: invariants are enforced centrally by ``validate_run`` so
that every violation in a trace can be reported at once.

A run's ops are held as columns (:class:`OpTable`), not as one object per
op: int64 ``start``/``end``/``step`` (with a ``has_step`` mask, so "no step"
is distinct from every integer), an int8 device code and int32 codes into
interned ``names`` and ``layers`` tuples (a ``None`` layer is distinct from
``""``). The table is still a ``Sequence[OpEvent]``: indexing or iterating it
builds the events on demand.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from math import isfinite

import numpy as np

from .errors import TraceValidationError

Micros = int


class Device(Enum):
    CPU = "CPU"
    GPU = "GPU"


@dataclass(frozen=True)
class OpEvent:
    """One recorded operation instance with its start/end timestamps."""

    op_name: str
    device: Device
    start: Micros
    end: Micros
    layer: str | None = None
    step_id: int | None = None

    @property
    def duration_us(self) -> int:
        return self.end - self.start


# Device codes of OpTable.device; the codes sort as the Device values do.
DEVICES = (Device.CPU, Device.GPU)
_DEVICE_CODES = {d: code for code, d in enumerate(DEVICES)}
_OP_COLUMNS = ("start", "end", "device", "step", "has_step", "name", "layer")


@dataclass(frozen=True, eq=False)
class OpTable(Sequence[OpEvent]):
    """Ops as read-only columns, one row per op; ``self[i]`` is row i as an OpEvent.

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

    def __post_init__(self) -> None:
        for col in _OP_COLUMNS:
            getattr(self, col).flags.writeable = False

    @classmethod
    def from_events(cls, events: Iterable[OpEvent]) -> OpTable:
        """The table of the events, in order; TypeError on a non-integer time or step."""
        names: dict[str, int] = {}
        layers: dict[str | None, int] = {}
        rows = [
            (op.start, op.end, _DEVICE_CODES[op.device], op.step_id or 0,
             op.step_id is not None, names.setdefault(op.op_name, len(names)),
             layers.setdefault(op.layer, len(layers)))
            for op in events
        ]
        values = np.array(rows, dtype=object).reshape(-1, len(_OP_COLUMNS))
        columns = values.astype(np.int64)
        if not (columns == values).all():  # astype truncates 0.5 and parses "3"
            raise TypeError("op start, end and step_id must be integers")
        start, end, device, step, has_step, name, layer = columns.T
        return cls(start.copy(), end.copy(), device.astype(np.int8), step.copy(),
                   has_step.astype(bool), name.astype(np.int32), layer.astype(np.int32),
                   tuple(names), tuple(layers))

    def take(self, rows) -> OpTable:
        """The table of the given rows, in that order."""
        return replace(self, **{col: getattr(self, col)[rows] for col in _OP_COLUMNS})

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(range(len(self))[i])
        i = range(len(self))[i]  # any integer type; negative and out-of-range as a tuple
        return OpEvent(
            op_name=self.names[self.name[i]],
            device=DEVICES[self.device[i]],
            start=int(self.start[i]),
            end=int(self.end[i]),
            layer=self.layers[self.layer[i]],
            step_id=int(self.step[i]) if self.has_step[i] else None,
        )

    def __iter__(self) -> Iterator[OpEvent]:
        names, layers = self.names, self.layers
        rows = zip(self.name.tolist(), self.device.tolist(), self.start.tolist(),
                   self.end.tolist(), self.layer.tolist(), self.has_step.tolist(),
                   self.step.tolist())
        for name, device, start, end, layer, has_step, step in rows:
            yield OpEvent(names[name], DEVICES[device], start, end, layers[layer],
                          step if has_step else None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpTable):
            return NotImplemented
        return list(self) == list(other)


@dataclass(frozen=True)
class TelemetrySample:
    """One periodic snapshot of utilization, power rails and memory footprint."""

    t: Micros
    cpu_core_util: tuple[float, ...]
    gpu_util: float
    power_cpu_mw: float
    power_gpu_mw: float
    power_mem_mw: float
    power_sys_mw: float
    mem_used_bytes: int


@dataclass(frozen=True)
class RunMeta:
    run_id: str
    batch_size: int
    core_count: int
    device_mem_capacity_bytes: int = 8 * 1024**3
    sample_interval_us: int = 10_000
    warmup_steps: int = 3


@dataclass(frozen=True)
class StepWindow:
    """A training-step interval; treated half-open [start_us, end_us)."""

    step_id: int
    start_us: Micros
    end_us: Micros
    is_warmup: bool = False

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


@dataclass(frozen=True)
class MemoryBreakdown:
    """Reported byte split of training memory; absent fields mean unreported."""

    parameters_bytes: int | None = None
    gradients_bytes: int | None = None
    input_bytes: int | None = None
    intermediate_bytes: int | None = None

    def total_bytes(self) -> int | None:
        parts = (
            self.parameters_bytes,
            self.gradients_bytes,
            self.input_bytes,
            self.intermediate_bytes,
        )
        if any(p is None for p in parts):
            return None
        return sum(parts)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Issue:
    """One diagnostic produced while parsing or validating a trace."""

    code: str
    message: str
    severity: str = "error"  # "error" | "warning"
    line_no: int | None = None


@dataclass(frozen=True)
class Run:
    """A validated, immutable run: sorted ops and samples plus metadata."""

    meta: RunMeta
    ops: OpTable
    samples: tuple[TelemetrySample, ...]
    memory_breakdown: MemoryBreakdown | None = None
    warnings: tuple[Issue, ...] = ()

    @property
    def start_us(self) -> int:
        return min(int(self.ops.start[0]), self.samples[0].t)

    @property
    def end_us(self) -> int:
        last_sample_end = self.samples[-1].t + self.meta.sample_interval_us
        return max(int(self.ops.end.max()), last_sample_end)

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


def _ranks(keys: Sequence[str]) -> np.ndarray:
    """Each key's position among the distinct keys in sorted order."""
    position = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return np.array([position[key] for key in keys], dtype=np.int64)


def _op_order(ops: OpTable) -> np.ndarray:
    """Stable row order by start, end, name, device, step, layer.

    A missing step sorts as -1 and a missing layer as "", so rows that tie
    on every key keep their input order.
    """
    layer_rank = _ranks([layer or "" for layer in ops.layers])[ops.layer]
    step = np.where(ops.has_step, ops.step, -1)
    name_rank = _ranks(ops.names)[ops.name]
    return np.lexsort((layer_rank, step, ops.device, name_rank, ops.end, ops.start))


def _sample_sort_key(s: TelemetrySample):
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


def _check_meta(meta: RunMeta, issues: list[Issue]) -> None:
    if not meta.run_id:
        issues.append(Issue("InvalidMeta", "run_id must be non-empty"))
    if meta.batch_size < 1:
        issues.append(Issue("InvalidMeta", f"batch_size must be >= 1, got {meta.batch_size}"))
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


def _check_op(i: int, op: OpEvent, issues: list[Issue]) -> None:
    if not op.op_name:
        issues.append(Issue("InvariantViolation", f"op #{i} has empty op_name"))
    if op.start < 0:
        issues.append(
            Issue("InvariantViolation", f"op #{i} '{op.op_name}' has negative start {op.start}")
        )
    if op.end <= op.start:
        issues.append(
            Issue(
                "InvariantViolation",
                f"op #{i} '{op.op_name}' has end {op.end} <= start {op.start}",
            )
        )
    if op.step_id is not None and op.step_id < 0:
        issues.append(
            Issue("InvariantViolation", f"op #{i} '{op.op_name}' has negative step_id")
        )


def _check_ops(ops: OpTable, issues: list[Issue]) -> None:
    """_check_op on every row that breaks an invariant; the masks only find the rows."""
    empty_name = np.array([not name for name in ops.names], dtype=bool)[ops.name]
    bad = empty_name | (ops.start < 0) | (ops.end <= ops.start) | (ops.has_step & (ops.step < 0))
    for i in np.flatnonzero(bad).tolist():
        _check_op(i, ops[i], issues)


def _duplicate_op_warnings(ops: OpTable) -> list[Issue]:
    """One warning per op equal in every field to the op before it."""
    same = np.ones(max(len(ops) - 1, 0), dtype=bool)
    for col in _OP_COLUMNS:
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


def _check_sample(i: int, s: TelemetrySample, core_count: int, issues: list[Issue]) -> None:
    if s.t < 0:
        issues.append(Issue("InvariantViolation", f"sample #{i} has negative timestamp {s.t}"))
    if len(s.cpu_core_util) != core_count:
        issues.append(
            Issue(
                "CoreCountMismatch",
                f"sample #{i} has {len(s.cpu_core_util)} core utilizations, "
                f"run declares {core_count} cores",
            )
        )
    for c, u in enumerate(s.cpu_core_util):
        if not 0.0 <= u <= 1.0:
            issues.append(
                Issue("InvariantViolation", f"sample #{i} core {c} utilization {u} outside [0, 1]")
            )
    if not 0.0 <= s.gpu_util <= 1.0:
        issues.append(
            Issue("InvariantViolation", f"sample #{i} gpu utilization {s.gpu_util} outside [0, 1]")
        )
    for rail, p in (
        ("cpu", s.power_cpu_mw),
        ("gpu", s.power_gpu_mw),
        ("mem", s.power_mem_mw),
        ("sys", s.power_sys_mw),
    ):
        if not isfinite(p):
            issues.append(
                Issue("InvariantViolation", f"sample #{i} non-finite {rail} power {p} mW")
            )
        elif p < 0:
            issues.append(
                Issue("InvariantViolation", f"sample #{i} negative {rail} power {p} mW")
            )
    if s.mem_used_bytes < 0:
        issues.append(Issue("InvariantViolation", f"sample #{i} negative mem_used_bytes"))


def validate_run(
    meta: RunMeta,
    ops: Sequence[OpEvent],
    samples: Sequence[TelemetrySample],
    memory_breakdown: MemoryBreakdown | None = None,
) -> Run:
    """Check every invariant and return a Run with sorted ops and samples.

    Collects all violations instead of failing fast; raises
    :class:`TraceValidationError` carrying the full issue list when any
    error-severity issue exists. Non-fatal findings (duplicate timestamps,
    breakdown/peak mismatch) become warnings attached to the returned Run.
    Validating the pieces of an already-validated Run returns an equal Run.
    Ops given as OpEvents are converted to an OpTable first.
    """
    issues: list[Issue] = []
    _check_meta(meta, issues)

    sorted_samples = tuple(sorted(samples, key=_sample_sort_key))
    if not isinstance(ops, OpTable):
        ops = OpTable.from_events(ops)
    sorted_ops = ops.take(_op_order(ops))

    if not sorted_samples or not sorted_ops:
        issues.append(Issue("EmptyTrace", "run needs at least one op and one sample"))

    _check_ops(sorted_ops, issues)
    for i, s in enumerate(sorted_samples):
        _check_sample(i, s, meta.core_count, issues)

    warnings: list[Issue] = []
    for a, b in zip(sorted_samples, sorted_samples[1:]):
        if a.t == b.t:
            warnings.append(
                Issue("ClockSkew", f"duplicate sample timestamp {a.t} us", severity="warning")
            )
    warnings.extend(_duplicate_op_warnings(sorted_ops))

    if memory_breakdown is not None and sorted_samples:
        total = memory_breakdown.total_bytes()
        if total is not None:
            peak = max(s.mem_used_bytes for s in sorted_samples)
            if total > peak:
                warnings.append(
                    Issue(
                        "MemoryBreakdownMismatch",
                        f"breakdown sums to {total} bytes, above observed peak {peak}",
                        severity="warning",
                    )
                )

    if any(i.severity == "error" for i in issues):
        raise TraceValidationError(issues + warnings)

    return Run(
        meta=meta,
        ops=sorted_ops,
        samples=sorted_samples,
        memory_breakdown=memory_breakdown,
        warnings=tuple(warnings),
    )


def with_warmup_steps(run: Run, warmup_steps: int) -> Run:
    """Return a copy of the run with an overridden warmup-step count."""
    return replace(run, meta=replace(run.meta, warmup_steps=warmup_steps))
