"""Parses and writes the on-disk trace formats, manifests and reports.

Formats:
  * op trace: one JSON object per line with keys ``op``, ``layer`` (optional),
    ``device``, ``step`` (optional), ``start_us``, ``end_us``. Append-friendly
    during live recording, trivially streamable.
  * telemetry: comma-separated with header
    ``t_us,c0..c{n-1},gpu,p_cpu_mw,p_gpu_mw,p_mem_mw,p_sys_mw,mem_bytes``;
    utilization columns are percent; ``nan``/``inf`` cells are errors.
  * run manifest: a single JSON document binding metadata, trace paths and an
    optional memory breakdown. Paths resolve relative to the manifest's
    directory.

Parsers never lose records: every non-blank record line becomes either a
parsed item or a line-numbered diagnostic. Unknown extra columns/keys are
ignored with a warning for forward compatibility. The op trace and the
telemetry are parsed straight into the columns of a ``model.OpTable`` and a
``model.SampleTable`` (one row per valid line, in file order), without an
object per op or sample. A timestamp, step or ``mem_bytes`` value outside
the int64 range is a diagnostic on its line.

Each parser first reads the whole file as columns and returns them only if no
line would get an issue; else the per-line loop, the only source of
diagnostics and line numbers, runs. Op trace: if the file holds no ``[``/``]``
and each stripped non-blank line is ``{...}``, a chunk of lines decodes as one
JSON array. No record can then span lines (a string cannot hold the raw
newline, an object would need a key where the next line has ``{``), so as
many records as lines is one per line; keys and exact value types must be
what the loop accepts unchanged. Telemetry: if the file is ASCII and the
header exactly as expected, ``np.loadtxt`` reads the columns; it accepts a
subset of what ``int``/``float`` do, with equal values.

Manifests, reports, sweep results and synth specs go through one codec
(``to_doc``/``from_doc``) whose JSON keys are the dataclass field names.
Decoding type-checks every field, so a malformed manifest is one error
naming the field. JSON output is strict (no NaN/Infinity) and
stable-key-ordered, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import io
import json
import reprlib
import warnings
from array import array
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import cache, partial
from itertools import repeat
from math import isfinite
from operator import is_not
from pathlib import Path
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ManifestError, TraceProfError, TraceValidationError
from .metrics import MetricReport
from .model import (
    DEVICES,
    RAILS,
    Issue,
    MemoryBreakdown,
    OpTable,
    Run,
    RunMeta,
    SampleTable,
    validate_run,
)
from .sweep import SweepResult

SCHEMA_VERSION = 1

_OP_KEYS = {"op", "layer", "device", "step", "start_us", "end_us"}
# The exact value types a line of the op-trace column reader may hold, by key.
_OP_TYPES = {"op": {str}, "device": {str}, "start_us": {int}, "end_us": {int},
             "step": {int, type(None)}, "layer": {str, type(None)}}
_DEVICE_CODES = {d.value: code for code, d in enumerate(DEVICES)}
_INT64 = 2**63  # integers in traces and telemetry must lie in [-_INT64, _INT64)
# json.loads's own decoder without its per-call wrapper, which costs about as
# much as decoding a short op record. On a stripped line it returns what
# json.loads returns whenever it consumes the whole line.
_raw_decode = json.JSONDecoder().raw_decode
_CHUNK = 1024  # lines per json.loads call of the op-trace column reader


@dataclass(frozen=True)
class RunManifest:
    meta: RunMeta
    op_trace_path: str
    telemetry_path: str
    memory_breakdown: MemoryBreakdown | None = None


def _as_int(value: Any) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


class _Codes(dict):
    """Interns keys: a key not seen before gets the next code."""

    def __missing__(self, key: Any) -> int:
        self[key] = code = len(self)
        return code


def _op_columns() -> tuple[list[array], dict[str, int], dict[str | None, int]]:
    """Empty growable op columns in ``OpTable`` field order, with name and layer codes."""
    return [array(code) for code in "qqbqbii"], _Codes(), _Codes()


def _op_table(columns: list[array], names: dict, layers: dict) -> OpTable:
    dtypes = (np.int64, np.int64, np.int8, np.int64, np.bool_, np.int32, np.int32)
    arrays = (np.frombuffer(col, dtype) for col, dtype in zip(columns, dtypes))
    return OpTable(*arrays, names=tuple(names), layers=tuple(layers))


def _parse_clean_op_trace(lines: list[str]) -> OpTable | None:
    """The op columns when no line would get an issue, else None (see the module doc)."""
    columns, names, layers = _op_columns()
    start, end, device, step, has_step, name_code, layer_code = columns
    for i in range(0, len(lines), _CHUNK):
        chunk = [line for line in map(str.strip, lines[i : i + _CHUNK]) if line]
        if not all(line[0] == "{" and line[-1] == "}" for line in chunk):
            return None
        try:
            records = json.loads("[" + ",\n".join(chunk) + "]")
        except ValueError:  # also an integer past Python's int-to-str digit limit
            return None
        if len(records) != len(chunk) or not _OP_KEYS.issuperset(set().union(*records)):
            return None
        cols = [list(map(dict.get, records, repeat(key))) for key in _OP_TYPES]
        if not all(set(map(type, col)) <= kinds for col, kinds in zip(cols, _OP_TYPES.values())):
            return None
        name, dev, t0, t1, op_step, layer = cols
        if not all(name) or not _DEVICE_CODES.keys() >= set(dev):
            return None
        try:  # int64 range
            start.extend(t0)
            end.extend(t1)
            step.extend([s or 0 for s in op_step])
        except OverflowError:
            return None
        has_step.extend(map(is_not, op_step, repeat(None)))
        device.extend(map(_DEVICE_CODES.__getitem__, dev))
        name_code.extend(map(names.__getitem__, name))
        layer_code.extend(map(layers.__getitem__, layer))
    return _op_table(columns, names, layers) if start else None


def parse_op_trace(data: bytes) -> tuple[OpTable, list[Issue]]:
    """Parse a line-delimited op trace; returns (ops in file order, diagnostics).

    Each valid line becomes one row of the op columns; no per-op object is
    built.
    """
    lines = data.decode("utf-8", errors="replace").splitlines()
    if b"[" not in data and b"]" not in data:
        ops = _parse_clean_op_trace(lines)
        if ops is not None:
            return ops, []
    columns, names, layers = _op_columns()
    start, end, device, step, has_step, name_code, layer_code = columns
    issues: list[Issue] = []
    warned_keys: set[str] = set()
    non_blank = 0
    lo, hi = -_INT64, _INT64
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        non_blank += 1
        try:
            record, stop = _raw_decode(line)
        except ValueError:
            stop = -1
        if stop != len(line):  # not one JSON value: json.loads gives the result or message
            try:
                record = json.loads(line)
            except ValueError as exc:  # also an integer past Python's int-to-str digit limit
                message = f"invalid JSON: {getattr(exc, 'msg', exc)}"
                issues.append(Issue("MalformedLine", message, line_no=line_no))
                continue
        # json.loads makes exact types only, so the type tests below are
        # isinstance tests that skip the subclass walk.
        if type(record) is not dict:
            issues.append(Issue("MalformedLine", "record is not a JSON object", line_no=line_no))
            continue
        if not _OP_KEYS.issuperset(record):
            for key in record:  # in the line's order, not set order
                if key not in _OP_KEYS and key not in warned_keys:
                    warned_keys.add(key)
                    issues.append(
                        Issue("UnknownKey", f"ignoring unknown key {key!r}", "warning", line_no)
                    )
        name = record.get("op")
        if type(name) is not str or not name:
            issues.append(Issue("MalformedLine", "missing or empty 'op'", line_no=line_no))
            continue
        device_raw = record.get("device")
        code = _DEVICE_CODES.get(device_raw) if type(device_raw) is str else None
        if code is None:
            issues.append(
                Issue("UnknownDevice", f"unknown device {device_raw!r}", line_no=line_no)
            )
            continue
        t0 = record.get("start_us")
        t1 = record.get("end_us")
        if type(t0) is not int:
            t0 = _as_int(t0)
        if type(t1) is not int:
            t1 = _as_int(t1)
        if t0 is None or t1 is None:
            issues.append(
                Issue("MalformedLine", "start_us and end_us must be integers", line_no=line_no)
            )
            continue
        if not (lo <= t0 < hi and lo <= t1 < hi):
            issues.append(
                Issue("MalformedLine", "start_us and end_us must fit in int64", line_no=line_no)
            )
            continue
        op_step = record.get("step")
        if op_step is not None:
            if type(op_step) is not int:
                op_step = _as_int(op_step)
            if op_step is None:
                issues.append(
                    Issue("MalformedLine", "step must be an integer", line_no=line_no)
                )
                continue
            if not lo <= op_step < hi:
                issues.append(Issue("MalformedLine", "step must fit in int64", line_no=line_no))
                continue
        layer = record.get("layer")
        if layer is not None and type(layer) is not str:
            issues.append(Issue("MalformedLine", "layer must be a string", line_no=line_no))
            continue
        start.append(t0)
        end.append(t1)
        device.append(code)
        step.append(op_step or 0)
        has_step.append(op_step is not None)
        name_code.append(names[name])
        layer_code.append(layers[layer])
    if non_blank == 0:
        issues.append(Issue("EmptyTrace", "op trace has no records", line_no=0))
    return _op_table(columns, names, layers), issues


def _telemetry_columns(core_count: int) -> list[str]:
    cores = [f"c{i}" for i in range(core_count)]
    return ["t_us", *cores, "gpu", *(f"p_{rail}_mw" for rail in RAILS), "mem_bytes"]


def _parse_clean_telemetry(lines: list[str], columns: list[str]) -> SampleTable | None:
    """The sample columns when no line would get an issue, else None (see the module doc)."""
    rows = [line for line in map(str.strip, lines) if line]
    # numpy's int reader takes some non-ASCII letters for digits (U+20000 reads
    # as 131024) and can crash on others, so it sees ASCII only.
    if len(rows) < 2 or not all(map(str.isascii, rows)):
        return None
    if [cell.strip() for cell in rows.pop(0).split(",")] != columns:
        return None
    last = len(columns) - 1
    read = partial(np.loadtxt, rows, delimiter=",", comments=None, ndmin=2)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.23-1.24 only warn on "1.0" as an int
            ints = read(np.int64, usecols=(0, last))
            values = read(np.float64, usecols=range(1, last))
    except (ValueError, Warning):
        return None
    t, mem = ints.T.copy()
    util, power = values[:, : -len(RAILS)], values[:, -len(RAILS) :]
    # Percent, before scaling: -5e-324 is out of range, its fraction -0.0 is not.
    if not (((0 <= util) & (util <= 100)).all() and ((0 <= power) & (power < np.inf)).all()
            and (mem >= 0).all()):
        return None
    util /= 100.0
    return SampleTable(t, values, mem)


def parse_telemetry(data: bytes, core_count: int) -> tuple[SampleTable, list[Issue]]:
    """Parse the telemetry CSV; utilization percent columns become fractions.

    Each valid line becomes one row of the sample columns, in file order; no
    per-sample object is built.
    """
    decoded = data.decode("utf-8", errors="replace").splitlines()
    expected = _telemetry_columns(core_count)
    samples = _parse_clean_telemetry(decoded, expected)
    if samples is not None:
        return samples, []
    t_col, values, mem_col = array("q"), array("d"), array("q")
    issues: list[Issue] = []
    lines = enumerate(decoded, start=1)
    stripped = ((i, line.strip()) for i, line in lines)
    numbered = ((i, line) for i, line in stripped if line)
    first = next(numbered, None)
    if first is None:
        issues.append(Issue("EmptyTrace", "telemetry file is empty", line_no=0))
        return SampleTable.from_samples(()), issues

    header_no, header_line = first
    header = [cell.strip() for cell in header_line.split(",")]
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
        return SampleTable.from_samples(()), issues

    value_names = expected[1:-1]  # the cores, gpu and rails: one row of SampleTable.values
    value_at = [col_index[name] for name in value_names]
    t_at, mem_at = col_index["t_us"], col_index["mem_bytes"]
    n_util = len(value_names) - len(RAILS)  # the cores and gpu, in percent
    for line_no, line in numbered:
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) < len(header):
            issues.append(
                Issue("MalformedLine", f"expected {len(header)} cells, got {len(cells)}", line_no=line_no)
            )
            continue
        try:
            t = int(cells[t_at])
            mem = int(cells[mem_at])
            row = [float(cells[k]) for k in value_at]
        except ValueError as exc:
            issues.append(Issue("MalformedLine", f"bad numeric cell: {exc}", line_no=line_no))
            continue
        if not -_INT64 <= t < _INT64:
            issues.append(Issue("MalformedLine", "t_us must fit in int64", line_no=line_no))
            continue
        if not all(map(isfinite, row)):
            cols = [name for name, x in zip(value_names, row) if not isfinite(x)]
            issues.append(Issue("NonFinite", f"nan or inf in column(s) {cols}", line_no=line_no))
            continue
        pct = next((x for x in row[:n_util] if not 0.0 <= x <= 100.0), None)
        if pct is not None:
            issues.append(
                Issue("UtilizationOutOfRange", f"utilization {pct}% outside [0, 100]", line_no=line_no)
            )
            continue
        negative = [rail for rail, p in zip(RAILS, row[n_util:]) if p < 0]
        if negative:
            issues.append(
                Issue("NegativePower", f"negative power on rail(s) {negative}", line_no=line_no)
            )
            continue
        if not 0 <= mem < _INT64:
            message = "must be non-negative" if mem < 0 else "must fit in int64"
            issues.append(Issue("MalformedLine", f"mem_bytes {message}", line_no=line_no))
            continue
        t_col.append(t)
        values.extend([x / 100.0 for x in row[:n_util]])
        values.extend(row[n_util:])
        mem_col.append(mem)
    if not t_col and not any(i.severity == "error" for i in issues):
        issues.append(Issue("EmptyTrace", "telemetry has a header but no rows", line_no=0))
    samples = SampleTable(np.frombuffer(t_col, np.int64),
                          np.frombuffer(values, np.float64).reshape(-1, len(value_names)),
                          np.frombuffer(mem_col, np.int64))
    return samples, issues


def write_op_trace(ops) -> bytes:
    out = io.StringIO()
    for op in ops:
        record: dict[str, Any] = {
            "op": op.op_name,
            "device": op.device.value,
            "start_us": op.start,
            "end_us": op.end,
        }
        if op.layer is not None:
            record["layer"] = op.layer
        if op.step_id is not None:
            record["step"] = op.step_id
        out.write(json.dumps(record, sort_keys=True))
        out.write("\n")
    return out.getvalue().encode("utf-8")


def write_telemetry(samples, core_count: int) -> bytes:
    out = io.StringIO()
    out.write(",".join(_telemetry_columns(core_count)))
    out.write("\n")
    for s in samples:
        cells = [str(s.t)]
        cells.extend(repr(u * 100.0) for u in s.cpu_core_util)
        cells.append(repr(s.gpu_util * 100.0))
        cells.extend(
            repr(p) for p in (s.power_cpu_mw, s.power_gpu_mw, s.power_mem_mw, s.power_sys_mw)
        )
        cells.append(str(s.mem_used_bytes))
        out.write(",".join(cells))
        out.write("\n")
    return out.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# JSON codec: dataclass field names are the wire names
# ---------------------------------------------------------------------------


class SchemaError(ValueError):
    """A JSON document does not match the dataclass it is decoded into."""


# Written into every encoded document of these types, nested ones included.
_HEADERS: dict[type, dict[str, Any]] = {
    MetricReport: {"schema_version": SCHEMA_VERSION, "kind": "metric_report"},
    SweepResult: {"schema_version": SCHEMA_VERSION, "kind": "sweep_result"},
    RunManifest: {"schema_version": SCHEMA_VERSION},
}
_KINDS = {h["kind"]: cls for cls, h in _HEADERS.items() if "kind" in h}

_SCALARS = frozenset({str, int, float, bool})
_PLAIN = _SCALARS | {type(None)}


def to_doc(obj: Any) -> Any:
    """JSON-ready values: a dataclass becomes its fields, an Enum its value."""
    cls = type(obj)
    if cls in _PLAIN:
        return obj
    # Containers of plain values, most of a report, are copied without recursion.
    if cls is tuple or cls is list:
        return list(obj) if _PLAIN.issuperset(map(type, obj)) else [to_doc(x) for x in obj]
    if cls is dict:
        return {k: to_doc(v) for k, v in obj.items()}
    if isinstance(obj, Enum):
        return obj.value
    doc = dict(vars(obj))  # a dataclass
    for k, v in doc.items():
        if type(v) not in _PLAIN:
            doc[k] = to_doc(v)
    doc.update(_HEADERS.get(cls, ()))
    return doc


def _dump(obj: Any) -> bytes:
    try:
        text = json.dumps(to_doc(obj), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # a metric overflowed to inf or nan
        raise TraceProfError(f"cannot write strict JSON: {exc}") from None
    return (text + "\n").encode("utf-8")


@cache
def _field_types(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, resolved type, has a default) per field, resolved once per class."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is not MISSING or f.default_factory is not MISSING)
        for f in fields(cls)
    )


def _mismatch(path: str, expected: str, value: Any) -> SchemaError:
    return SchemaError(f"{path} must be {expected}, got {reprlib.repr(value)}")


def from_doc(tp: Any, value: Any, path: str) -> Any:
    """Decode a JSON value into type ``tp``, checking every field's type.

    Handles dataclasses, ``X | None``, ``tuple[T, ...]``, fixed tuples,
    ``dict[str, T]``, Enums and int/float/str/bool. A bool is never a number
    and an int is accepted as a float. Unknown keys are ignored; a key may
    be absent only where the dataclass gives a default. Raises SchemaError
    naming the path of the first mismatch.
    """
    if tp in _SCALARS:
        # Exact types: json.loads makes no subclasses, and bool is not an int here.
        if type(value) is tp:
            return value
        if tp is float and type(value) is int:
            return float(value)
        raise _mismatch(path, tp.__name__, value)
    origin = get_origin(tp)
    if origin is Union or origin is UnionType:
        (inner,) = (a for a in get_args(tp) if a is not type(None))  # only X | None
        return None if value is None else from_doc(inner, value, path)
    if origin is tuple:
        if not isinstance(value, list):
            raise _mismatch(path, "a list", value)
        args = get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            if {args[0]}.issuperset(map(type, value)):
                return tuple(value)  # scalars already of the item type
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise _mismatch(path, f"a list of {len(args)} items", value)
        return tuple(from_doc(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise _mismatch(path, "an object", value)
        item_tp = get_args(tp)[1]
        return {k: from_doc(item_tp, v, f"{path}[{k!r}]") for k, v in value.items()}
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise _mismatch(path, "an object", value)
        kwargs = {}
        for name, field_tp, has_default in _field_types(tp):
            if name in value:
                kwargs[name] = from_doc(field_tp, value[name], f"{path}.{name}")
            elif not has_default:
                raise SchemaError(f"{path}.{name} is missing")
        return tp(**kwargs)
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise _mismatch(path, f"one of {[m.value for m in tp]}", value) from None
    raise TypeError(f"no JSON decoding for {tp!r} at {path}")


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def write_manifest(manifest: RunManifest) -> bytes:
    return _dump(manifest)


def _read_json(path: Path, what: str) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ManifestError(f"{what} not found: {path}")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{what} {path} is not UTF-8: {exc.reason} at byte {exc.start}")
    except ValueError as exc:  # also an integer past Python's int-to-str digit limit
        raise ManifestError(f"{what} {path} is not valid JSON: {getattr(exc, 'msg', exc)}")


def load_manifest(path: Path | str) -> RunManifest:
    path = Path(path)
    doc = _read_json(path, "manifest")
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest {path} must be a JSON object")
    try:
        manifest = from_doc(RunManifest, doc, "manifest")
    except SchemaError as exc:
        raise ManifestError(f"{exc} in {path}")
    if not manifest.op_trace_path or not manifest.telemetry_path:
        raise ManifestError(f"manifest {path} needs op_trace_path and telemetry_path")
    if "\0" in manifest.op_trace_path + manifest.telemetry_path:
        raise ManifestError(f"manifest {path} has a NUL character in a path")
    return manifest


def load_run(manifest_path: Path | str) -> Run:
    """Load, parse and validate a complete run from its manifest.

    Raises TraceValidationError with the combined parse + validation issue
    list when anything fatal is found; parse warnings survive on the Run.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    base = manifest_path.parent
    op_file = base / manifest.op_trace_path
    telemetry_file = base / manifest.telemetry_path
    try:
        op_bytes = op_file.read_bytes()
    except FileNotFoundError:
        raise ManifestError(f"op trace not found: {op_file}")
    try:
        telemetry_bytes = telemetry_file.read_bytes()
    except FileNotFoundError:
        raise ManifestError(f"telemetry not found: {telemetry_file}")

    core_count = manifest.meta.core_count
    if core_count > len(telemetry_bytes):  # no header this short names that many cores
        raise TraceValidationError([Issue(
            "CoreCountMismatch", f"run declares {core_count} cores, more than the "
            f"{len(telemetry_bytes)} bytes of {telemetry_file} can name")])
    ops, op_issues = parse_op_trace(op_bytes)
    samples, telemetry_issues = parse_telemetry(telemetry_bytes, core_count)
    issues = op_issues + telemetry_issues
    if any(i.severity == "error" for i in issues):
        raise TraceValidationError(issues)
    warnings = tuple(i for i in issues if i.severity == "warning")
    run = validate_run(manifest.meta, ops, samples, manifest.memory_breakdown)
    if warnings:
        run = replace(run, warnings=warnings + run.warnings)
    return run


def load_sweep_manifest(path: Path | str) -> tuple[str, list[Path]]:
    """Read a sweep manifest: {"model": name, "runs": [run-manifest paths]}."""
    path = Path(path)
    doc = _read_json(path, "sweep manifest")
    if not isinstance(doc, dict) or not isinstance(doc.get("model"), str) or "runs" not in doc:
        raise ManifestError(f"sweep manifest {path} needs a string 'model' and 'runs'")
    runs = doc["runs"]
    if not isinstance(runs, list) or not all(isinstance(r, str) for r in runs):
        raise ManifestError(f"sweep manifest {path} 'runs' must be a list of paths")
    if any("\0" in r for r in runs):
        raise ManifestError(f"sweep manifest {path} has a NUL character in a path")
    return doc["model"], [path.parent / r for r in runs]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _pct(x: float) -> str:
    return f"{x * 100.0:.2f}%"


def _render_report_table(report: MetricReport) -> str:
    lines = [
        f"run {report.run_id}  batch_size={report.batch_size}  cores={report.core_count}  "
        f"interval={report.sample_interval_us}us  warmup_steps={report.warmup_steps}",
    ]
    lines.extend(f"note: {n}" for n in report.notes)
    lines.append("")
    lines.append(f"{'core':<8}{'utilization':>14}{'idle ratio':>14}")
    for c, (u, idle) in enumerate(zip(report.per_core_util, report.idle_ratio_per_core)):
        lines.append(f"c{c:<7}{_pct(u):>14}{_pct(idle):>14}")
    lines.append(f"{'cpu avg':<8}{_pct(report.cpu_avg_util):>14}")
    lines.append(f"{'gpu':<8}{_pct(report.gpu_util):>14}")
    lines.append("")
    lines.append(f"{'rail':<6}{'energy (J)':>14}")
    for rail in sorted(report.energy_by_rail_joules):
        lines.append(f"{rail:<6}{report.energy_by_rail_joules[rail]:>14.6f}")
    ranking = " > ".join(
        f"{r.rail} ({r.mean_mw:.1f} mW, {_pct(r.share_of_sys)} of sys)"
        for r in report.power_rail_ranking
    )
    lines.append(f"power ranking: {ranking}")
    lines.append("")
    lines.append(f"throughput: {report.throughput_samples_per_sec:.3f} samples/s")
    lines.append(f"peak memory: {report.peak_mem_bytes} bytes")
    period = report.period
    lines.append(f"step period: {period.period_us} us "
                 f"(confidence {period.confidence:.3f}, {period.method})")
    if report.predictability is not None:
        p = report.predictability
        lines.append(
            f"predictability[{p.signal}]: {p.mean_pairwise_correlation:.4f} "
            f"over {p.per_step_pairs} step pairs"
        )
    lines.append("")
    lines.append(f"{'step':<6}{'warmup':<8}{'duration (us)':>14}{'gpu util':>12}{'sys J':>12}")
    for m in report.per_step:
        lines.append(
            f"{m.step_id:<6}{str(m.is_warmup).lower():<8}{m.end_us - m.start_us:>14}"
            f"{_pct(m.gpu_util):>12}{m.energy_by_rail_joules['sys']:>12.6f}"
        )
    lines.append("")
    lines.append(
        f"{'op':<24}{'count':>8}{'busy (us)':>12}{'samples':>9}  below-resolution"
    )
    by_busy = sorted(
        report.per_op.items(), key=lambda kv: (-kv[1].busy_time_us, kv[0])
    )
    for name, agg in by_busy:
        flag = "yes" if agg.below_sampling_resolution else ""
        lines.append(
            f"{name:<24}{agg.count:>8}{agg.busy_time_us:>12}{agg.attributed_samples:>9}  {flag}"
        )
    return "\n".join(lines) + "\n"


def _render_sweep_table(result: SweepResult) -> str:
    lines = [
        f"model {result.model}  batch ratio {result.batch_ratio:g}",
        f"throughput speedup: {result.throughput_speedup:.3f}x",
        f"energy scaling: {result.energy_scaling:.3f}x ({result.energy_scaling_class})",
        f"gpu util delta: {result.gpu_util_delta:+.4f}  cpu util delta: {result.cpu_util_delta:+.4f}",
    ]
    if result.mem_intermediate_growth is not None:
        lo, hi = result.mem_intermediate_growth
        lines.append(f"intermediate memory growth: {lo} -> {hi} bytes")
    lines.append("")
    lines.append(
        f"{'batch':<7}{'throughput':>12}{'gpu util':>10}{'cpu avg':>9}"
        f"{'sys J/step':>12}{'peak bytes':>14}  verdict"
    )
    fz = {v.batch_size: v for v in result.feasibility}
    for p in result.points:
        r = p.report
        step_e = [m.energy_by_rail_joules["sys"] for m in r.per_step if not m.is_warmup]
        mean_e = sum(step_e) / len(step_e) if step_e else float("nan")
        lines.append(
            f"{p.batch_size:<7}{r.throughput_samples_per_sec:>12.2f}{_pct(r.gpu_util):>10}"
            f"{_pct(r.cpu_avg_util):>9}"
            f"{mean_e:>12.6f}{r.peak_mem_bytes:>14}  {fz[p.batch_size].verdict}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: MetricReport | SweepResult, fmt: str = "json") -> bytes:
    """Serialize a metric report or sweep result; json output is stable."""
    if fmt == "json":
        return _dump(report)
    if fmt == "table":
        if isinstance(report, MetricReport):
            return _render_report_table(report).encode("utf-8")
        return _render_sweep_table(report).encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}, expected 'json' or 'table'")


def parse_report(data: bytes) -> MetricReport | SweepResult:
    """Parse a JSON report produced by :func:`write_report`."""
    doc = json.loads(data.decode("utf-8"))
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in _KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    return from_doc(_KINDS[kind], doc, "report")
