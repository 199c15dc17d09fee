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

One reader per input file: ``_open`` opens every file, and ``read_json`` reads
the run and sweep manifests and the synth spec. A file that cannot be opened, or
a document that is not UTF-8 JSON, is one diagnostic naming the file's role.

Parsers never lose records: every non-blank record line becomes either a
parsed item or a line-numbered diagnostic. Unknown extra columns/keys are
ignored with a warning for forward compatibility. The op trace and the
telemetry are parsed straight into the columns of a ``model.OpTable`` and a
``model.SampleTable`` (one row per valid line, samples in file order and ops
in run order, each column sorted in turn), without an object per op or
sample. Diagnostics keep their line numbers. A timestamp, step or
``mem_bytes`` value outside the int64 range is a diagnostic on its line.

Each parser reads its input, bytes or an open binary file (a pipe too: nothing
seeks), once, in blocks (``_text_blocks``): ``io.TextIOWrapper`` decodes it as
UTF-8 with ``errors="replace"`` and universal newlines (``\r\n`` and ``\r``
arrive as ``\n``), and a block is a read of ``_BLOCK`` characters that one
``readline`` runs on to its line's end. So the blocks' lines (``str.splitlines``)
are those of the whole file decoded at once, numbered across blocks. A reader
holds one block plus its longest line, so a file with no line break after its
header is held whole, with what its parser makes of it (a tracemalloc peak of
7.3 MB for ``long-run``'s 0.73 MB telemetry with its rows' line breaks made
spaces, 28 MB for 2.9 MB). Only decoding falls back to one line at a time; each
value rule is then one check over a block's column, and a failing line gets the
diagnostic of its first failing rule.

Op trace: if a block holds no ``[``/``]`` and each stripped non-blank line is
``{...}``, the block decodes as one JSON array. No record can then span lines
(a string cannot hold the raw newline, an object would need a key where the
next line has ``{``), so as many records as lines is one per line. Else each
line goes through ``json.loads`` on its own.

Telemetry: the first non-blank line is the header, and the rest of its block is
the first block of rows. If the header is exactly as expected, a block that is
ASCII with no line break but ``\n`` (see ``_BREAKS``) goes to one ``np.loadtxt``
call as bytes, with no object per line held. loadtxt skips only empty lines, so
its rows are the block's non-blank lines; it accepts a subset of what
``int``/``float`` do, with equal values, and strips the same whitespace around a
cell as ``str.strip``. Any other block, or one it refuses, is read row by row
from its text lines, and a loadtxt block is split into lines only to number a
row that a range check flags. Each block's valid rows are appended to growable
columns, which become the table's arrays without a copy, so no block outlives
its turn.

Manifests, reports, sweep results and synth specs go through one codec
whose JSON keys are the field names of their records (``typing.NamedTuple``
classes, recognised by their ``_fields``). It reads run manifests and synth
specs, and writes manifests and reports. Decoding (``from_doc``) type-checks
every field, so a malformed manifest is one error naming the field. Writing
(``write_json``) walks the objects itself and writes the bytes of
``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)``: strict (no
NaN/Infinity) and stable-key-ordered, so identical inputs produce
byte-identical files. A document goes to a binary stream as it is formatted,
once a first pass has found each of its floats finite, and ``write_report``
collects the same bytes. A list of same-class rows, such as a report's
``per_step``, is written a field column at a time into one template, with
floats by ``float.__repr__`` as ``json`` writes them.
"""

from __future__ import annotations

import codecs
import io
import json
import os
import reprlib
import warnings
from array import array
from functools import cache
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _json_str
from math import isfinite
from operator import attrgetter, itemgetter
from pathlib import Path
from types import NoneType, UnionType
from typing import (TYPE_CHECKING, Any, BinaryIO, Iterator, Literal, NamedTuple, Sequence, Union,
                    get_args, get_origin, get_type_hints)

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
    _check_meta,
    _op_order,
    validate_run,
)

if TYPE_CHECKING:
    from .sweep import SweepResult

SCHEMA_VERSION = 1

_OP_KEYS = {"op", "layer", "device", "step", "start_us", "end_us"}
_CODE_OF_DEVICE = {d: code for code, d in enumerate(DEVICES)}
_INT64 = 2**63  # integers in traces and telemetry must lie in [-_INT64, _INT64)
_ROWS = 65536  # trace lines per written piece
_BLOCK = 65536  # characters per read of a trace file, run on to the end of a line
# The ASCII characters str.splitlines breaks a line at, besides "\n" and "\r".
_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
# An op trace that starts with one of these is UTF-16 or UTF-32 (UTF-32 LE's starts as UTF-16 LE's).
_WIDE_BOMS = (codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE, codecs.BOM_UTF32_BE)
_NO_SAMPLES = SampleTable(np.empty(0, np.int64), np.empty((0, 5)), np.empty(0, np.int64))


class RunManifest(NamedTuple):
    meta: RunMeta
    op_trace_path: str
    telemetry_path: str
    memory_breakdown: MemoryBreakdown | None = None


class _Codes(dict):
    """Interns keys: a key not seen before gets the next code."""

    def __missing__(self, key: Any) -> int:
        self[key] = code = len(self)
        return code


def _json_or_error(line: str) -> Any:
    try:
        return json.loads(line)
    except ValueError as exc:  # also an integer past Python's int-to-str digit limit
        return exc


def _decode_op_lines(lines: list[str]) -> list:
    """Each stripped non-blank line's JSON value, or the ValueError of a line that is not JSON."""
    joined = ",\n".join(lines)
    objects = all(line[0] == "{" and line[-1] == "}" for line in lines)
    if objects and "[" not in joined and "]" not in joined:
        try:
            records = json.loads("[" + joined + "]")
            if len(records) == len(lines):  # one record per line (see the module doc)
                return records
        except ValueError:
            pass
    return list(map(_json_or_error, lines))


def _numbered(found: list[tuple], lines: list[str], first: int = 0) -> list[Issue]:
    """Issues from (record, code, message, severity) in record order, where record r is
    the r-th non-blank one of ``lines``, numbered from ``first`` + 1."""
    found.sort(key=itemgetter(0))  # stable: a line's warnings stay before its error
    line_nos = [n for n, line in enumerate(lines, first + 1) if line.strip()] if found else []
    return [Issue(code, message, severity, line_nos[r]) for r, code, message, severity in found]


def _kinds(col: list) -> set[type]:
    """The exact types in a column: json.loads makes no subclass, and a bool is no int here."""
    return set(map(type, col))


def _in_int64(x: int) -> bool:
    return -_INT64 <= x < _INT64


def _check_op_records(records: list, warned: set[str]) -> tuple[dict[str, Any], list[tuple]]:
    """Apply the op rules, in order, to one block's decoded records.

    Returns the columns of the records that pass (by key, plus ``has_step``)
    and (record index, code, message, severity) per new unknown key, which
    joins ``warned``, and per failing record, for its first failing rule. A
    rule tests a whole column at once, and its values one by one only then.
    """
    found: list[tuple[int, str, str, str]] = []
    cols: dict[str, Any] = {"at": range(len(records)), "record": records}

    def drop(key: str, ok, code: str, message) -> None:
        passed = list(map(ok, cols[key]))
        found.extend((i, code, message(x), "error")
                     for i, x, p in zip(cols["at"], cols[key], passed) if not p)
        for k, col in cols.items():
            cols[k] = list(compress(col, passed))

    def integers(key: str, kinds: set[type], message: str) -> None:
        if not _kinds(cols[key]) <= kinds:  # JSON 5.0 is the integer 5
            cols[key] = [int(x) if type(x) is float and x.is_integer() else x for x in cols[key]]
            drop(key, lambda x: type(x) in kinds, "MalformedLine", lambda _: message)

    def int64(key: str, message: str) -> None:
        try:
            cols[key] = array("q", cols[key])
        except OverflowError:
            drop(key, _in_int64, "MalformedLine", lambda _: message)
            cols[key] = array("q", cols[key])

    if not _kinds(records) <= {dict}:
        drop("record", lambda r: type(r) is dict, "MalformedLine",
             lambda r: f"invalid JSON: {getattr(r, 'msg', r)}" if isinstance(r, ValueError)
             else "record is not a JSON object")
    records = cols.pop("record")
    unknown = set().union(*records) - _OP_KEYS - warned
    for i, record in zip(cols["at"], records) if unknown else ():
        for key in record:  # in the line's order
            if key in unknown:
                unknown.discard(key)
                warned.add(key)
                found.append((i, "UnknownKey", f"ignoring unknown key {key!r}", "warning"))
    for key in _OP_KEYS:
        cols[key] = list(map(dict.get, records, repeat(key)))

    if not (_kinds(cols["op"]) <= {str} and all(cols["op"])):
        drop("op", lambda x: type(x) is str and x != "", "MalformedLine",
             lambda _: "missing or empty 'op'")
    if not (_kinds(cols["device"]) <= {str} and set(cols["device"]) <= _CODE_OF_DEVICE.keys()):
        drop("device", lambda x: type(x) is str and x in _CODE_OF_DEVICE, "UnknownDevice",
             lambda x: f"unknown device {x!r}")
    for key in ("start_us", "end_us"):
        integers(key, {int}, "start_us and end_us must be integers")
    for key in ("start_us", "end_us"):
        int64(key, "start_us and end_us must fit in int64")
    integers("step", {int, NoneType}, "step must be an integer")
    cols["has_step"] = [x is not None for x in cols["step"]]
    cols["step"] = [x or 0 for x in cols["step"]]
    int64("step", "step must fit in int64")
    if not _kinds(cols["layer"]) <= {str, NoneType}:
        drop("layer", lambda x: x is None or type(x) is str, "MalformedLine",
             lambda _: "layer must be a string")
    return cols, found


def _text_blocks(stream: BinaryIO) -> Iterator[str]:
    """The rest of ``stream`` as UTF-8 text with universal newlines, in reads of ``_BLOCK``
    characters each run on to the end of its line. ``stream`` is left open."""
    text = io.TextIOWrapper(stream, "utf-8", errors="replace", newline=None)
    try:
        while block := text.read(_BLOCK):
            if block[-1] != "\n":
                block += text.readline()  # in place: no second copy of the block
            yield block
            del block  # so that, if the caller lets go of it too, one block is held at a time
    finally:
        text.detach()


def parse_op_trace(data: bytes | BinaryIO) -> tuple[OpTable, list[Issue]]:
    """Parse a line-delimited op trace, given as bytes or a binary file.

    Returns (ops in ``model.validate_run``'s run order, diagnostics). Each
    valid line becomes one row of the op columns; no per-op object is built.
    A file that starts with a UTF-16 or UTF-32 byte-order mark has no rows
    and one diagnostic.
    """
    columns = [array(code) for code in "qqbqbii"]  # growable, in OpTable field order
    start, end, device, step, has_step, name_code, layer_code = columns
    names, layers = _Codes(), _Codes()
    issues: list[Issue] = []
    warned: set[str] = set()
    first = 0  # text lines before the block
    stream = io.BytesIO(data) if isinstance(data, bytes) else data
    # The peek's one read of a buffered stream (_open's, of a pipe too) waits for
    # 8 KiB or the end of the file, so it sees a whole mark.
    peekable = io.BufferedReader(stream)
    try:
        blocks = _text_blocks(peekable)
        if peekable.peek(4).startswith(_WIDE_BOMS):
            blocks = ()
            issues.append(Issue("MalformedLine", "op trace is not UTF-8: it starts with a "
                                "UTF-16 or UTF-32 byte-order mark", line_no=1))
        for block in blocks:
            lines = block.splitlines()
            records = [line for line in map(str.strip, lines) if line]
            if records:
                cols, found = _check_op_records(_decode_op_lines(records), warned)
                issues.extend(_numbered(found, lines, first))
                start.extend(cols["start_us"])
                end.extend(cols["end_us"])
                device.extend(map(_CODE_OF_DEVICE.__getitem__, cols["device"]))
                step.extend(cols["step"])
                has_step.extend(cols["has_step"])
                name_code.extend(map(names.__getitem__, cols["op"]))
                layer_code.extend(map(layers.__getitem__, cols["layer"]))
            first += len(lines)
    finally:
        peekable.detach()  # else, once collected, it would close the caller's stream
    if not start and not issues:  # every non-blank line is a row or has an error
        issues.append(Issue("EmptyTrace", "op trace has no records", line_no=0))
    dtypes = (np.int64, np.int64, np.int8, np.int64, np.bool_, np.int32, np.int32)
    arrays = [np.frombuffer(col, dtype) for col, dtype in zip(columns, dtypes)]
    del columns, start, end, device, step, has_step, name_code, layer_code
    names, layers = tuple(names), tuple(layers)
    order = _op_order(OpTable(*arrays, names=names, layers=layers))
    if order is not None:  # else the rows are in run order
        for i, col in enumerate(arrays):  # a buffer goes when its permuted copy replaces it
            arrays[i] = col[order]
    return OpTable(*arrays, names=names, layers=layers), issues


def _telemetry_columns(core_count: int) -> list[str]:
    cores = [f"c{i}" for i in range(core_count)]
    return ["t_us", *cores, "gpu", *(f"p_{rail}_mw" for rail in RAILS), "mem_bytes"]


@cache
def _row_dtype(width: int) -> np.dtype:
    """One 8-byte field per cell, so the int and the float cells are views of one array."""
    return np.dtype([("t", np.int64), *((f"v{k}", np.float64) for k in range(width - 2)),
                     ("mem", np.int64)])


def _loadtxt(block: str, width: int) -> tuple[np.ndarray, ...] | None:
    """(t, values, mem) of a block's non-blank text lines, as rows of ``width`` cells
    in the expected order, or None if np.loadtxt cannot read them so."""
    # numpy's int reader takes some non-ASCII letters for digits (U+20000 reads
    # as 131024) and can crash on others, so it sees ASCII only.
    if not block.isascii() or any(map(block.__contains__, _BREAKS)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.23-1.24 only warn on "1.0" as an int
            cells = np.loadtxt(io.BytesIO(block.encode()), _row_dtype(width), delimiter=",",
                               comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    ints = cells.view(np.int64).reshape(-1, width)
    return ints[:, 0], cells.view(np.float64).reshape(-1, width)[:, 1:-1], ints[:, -1]


def _parse_lines(lines: list[str], first: int, header: list[str], col_index: dict[str, int],
                 expected: list[str]) -> tuple[tuple[np.ndarray, ...], list[Issue]]:
    """The (t, values, mem) columns of the valid rows, read one at a time, among text lines
    numbered from ``first`` + 1, utilization as fractions, and a diagnostic per invalid row."""
    rows = [line for line in map(str.strip, lines) if line]
    value_names = expected[1:-1]  # the cores, gpu and rails: one row of SampleTable.values
    found: list[tuple[int, str, str, str]] = []
    at, t_col, values, mem_col = array("q"), array("q"), array("d"), []
    value_at = [col_index[name] for name in value_names]
    t_at, mem_at = col_index["t_us"], col_index["mem_bytes"]
    for r, line in enumerate(rows):
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) < len(header):
            found.append((r, "MalformedLine",
                          f"expected {len(header)} cells, got {len(cells)}", "error"))
            continue
        try:
            t, mem = int(cells[t_at]), int(cells[mem_at])
            row = [float(cells[k]) for k in value_at]
        except ValueError as exc:
            found.append((r, "MalformedLine", f"bad numeric cell: {exc}", "error"))
            continue
        if not _in_int64(t):
            found.append((r, "MalformedLine", "t_us must fit in int64", "error"))
            continue
        at.append(r)
        t_col.append(t)
        values.extend(row)
        mem_col.append(mem)
    tokens = (np.frombuffer(t_col, np.int64),
              np.frombuffer(values, np.float64).reshape(-1, len(value_names)),
              np.array(mem_col, dtype=object))  # its range is checked after the values'
    columns, found = _check_rows(tokens, at, value_names, found)
    return columns, _numbered(found, lines, first)


def _check_rows(tokens: tuple[np.ndarray, ...], at: Sequence[int], value_names: list[str],
                found: list[tuple]) -> tuple[tuple[np.ndarray, ...], list[tuple]]:
    """The (t, values, mem) tokens of the rows ``at`` that pass the range checks,
    utilization as fractions, and ``found`` plus (row, code, message, severity) per other."""
    n_util = len(value_names) - len(RAILS)  # the cores and gpu, in percent
    t, values, mem = tokens
    # Percent, before scaling: -5e-324 is out of range, its fraction -0.0 is not.
    util, power = values[:, :n_util], values[:, n_util:]
    checks = [~np.isfinite(values), ~((0 <= util) & (util <= 100)), power < 0,
              ((mem < 0) | (mem > _INT64 - 1))[:, None]]
    if any(map(np.any, checks)):  # else skip the slower per-row reductions
        failures = np.column_stack([check.any(1) for check in checks])
        failed = failures.any(1)
        for k in np.flatnonzero(failed).tolist():
            row = values[k].tolist()
            check = int(failures[k].argmax())
            if check == 0:
                cols = [name for name, x in zip(value_names, row) if not isfinite(x)]
                code, message = "NonFinite", f"nan or inf in column(s) {cols}"
            elif check == 1:
                pct = next(x for x in row[:n_util] if not 0.0 <= x <= 100.0)
                code, message = "UtilizationOutOfRange", f"utilization {pct}% outside [0, 100]"
            elif check == 2:
                negative = [rail for rail, p in zip(RAILS, row[n_util:]) if p < 0]
                code, message = "NegativePower", f"negative power on rail(s) {negative}"
            else:
                what = "must be non-negative" if mem[k] < 0 else "must fit in int64"
                code, message = "MalformedLine", f"mem_bytes {what}"
            found.append((at[k], code, message, "error"))
        t, values, mem = t[~failed], values[~failed], mem[~failed]
    values[:, :n_util] /= 100.0
    return (t, values, np.asarray(mem, np.int64)), found


def parse_telemetry(data: bytes | BinaryIO, core_count: int) -> tuple[SampleTable, list[Issue]]:
    """Parse the telemetry CSV, given as bytes or a binary file.

    Utilization percent columns become fractions. Each valid line becomes one
    row of the sample columns, in file order; no per-sample object is built.
    A ``core_count`` above the header line's length is one CoreCountMismatch.
    """
    blocks = _text_blocks(io.BytesIO(data) if isinstance(data, bytes) else data)
    first = 0  # text lines before the block
    for block in blocks:
        lines = block.splitlines(keepends=True)
        h = next((k for k, line in enumerate(lines) if line.strip()), None)
        if h is not None:  # the header
            break
        first += len(lines)
    else:
        return _NO_SAMPLES, [Issue("EmptyTrace", "telemetry file is empty", line_no=0)]
    header_no = first + h + 1
    line = lines[h].splitlines()[0]
    if core_count > len(line):  # naming n cores takes at least n characters
        return _NO_SAMPLES, [Issue("CoreCountMismatch", f"run declares {core_count} cores, more "
                                   f"than its {len(line)}-character header can name",
                                   line_no=header_no)]
    expected = _telemetry_columns(core_count)
    known = set(expected)  # a set, so checking a long header is linear in its length
    header = [cell.strip() for cell in line.split(",")]
    issues: list[Issue] = []
    col_index: dict[str, int] = {}
    for pos, name in enumerate(header):
        if name in known and name not in col_index:
            col_index[name] = pos
        elif name.startswith("c") and name[1:].isdigit():
            issues.append(Issue("CoreCountMismatch", f"telemetry column {name!r} exceeds "
                                f"declared core count {core_count}", line_no=header_no))
        else:
            issues.append(Issue("UnknownColumn", f"ignoring unknown column {name!r}", "warning",
                                header_no))
    missing = [name for name in expected if name not in col_index]
    if missing:
        issues.append(
            Issue("MalformedLine", f"header missing columns {missing}", line_no=header_no)
        )
        return _NO_SAMPLES, issues

    columns = array("q"), array("d"), array("q")  # t, values and mem, grown a block at a time
    block = "".join(lines[h + 1:])  # the rows after the header in its block
    first, by_bytes = header_no, header == expected
    del lines
    while block is not None:
        tokens = _loadtxt(block, len(header)) if by_bytes else None
        if tokens is None:  # one row at a time
            lines = block.splitlines()
            piece, found = _parse_lines(lines, first, header, col_index, expected)
            first += len(lines)
        else:  # text lines only to number a row that a check flags
            piece, found = _check_rows(tokens, range(len(tokens[0])), expected[1:-1], [])
            found = _numbered(found, block.splitlines() if found else [], first)
            first += block.count("\n")  # only the last block can end without one
        issues += found
        for column, cells in zip(columns, piece):
            column.frombytes(cells.tobytes())
        del block  # before the next is read
        block = next(blocks, None)
    t, values, mem = (np.frombuffer(col, dtype)
                      for col, dtype in zip(columns, (np.int64, np.float64, np.int64)))
    values = values.reshape(-1, len(expected) - 2)
    if not len(t) and not any(i.severity == "error" for i in issues):
        issues.append(Issue("EmptyTrace", "telemetry has a header but no rows", line_no=0))
    return SampleTable(t, values, mem), issues


def op_trace_chunks(ops: OpTable) -> Iterator[bytes]:
    """The op trace in pieces of up to ``_ROWS`` lines, to write one at a time.

    One JSON line per op, keys sorted, as ``json.dumps(record, sort_keys=True)`` writes it.
    """
    devices = [json.dumps(d) for d in DEVICES]
    names = [json.dumps(n) for n in ops.names]
    layers = ["" if x is None else f'"layer": {json.dumps(x)}, ' for x in ops.layers]
    for lo in range(0, len(ops), _ROWS):
        start, end, device, step, has_step, name, layer = (
            getattr(ops, col)[lo:lo + _ROWS].tolist() for col in ops._columns)
        steps = (f', "step": {s}' if has else "" for s, has in zip(step, has_step))
        yield "".join(
            f'{{"device": {devices[d]}, "end_us": {e}, {layers[x]}"op": {names[n]}, '
            f'"start_us": {s}{step_key}}}\n'
            for s, e, d, n, x, step_key in zip(start, end, device, name, layer, steps)).encode()


def telemetry_chunks(samples: SampleTable) -> Iterator[bytes]:
    """The telemetry in pieces, to write one at a time: the header, then up to ``_ROWS`` rows each.

    One row per sample; utilizations are written as percent.
    """
    c = samples.core_count
    yield (",".join(_telemetry_columns(c)) + "\n").encode()
    for lo in range(0, len(samples), _ROWS):
        values = samples.values[lo:lo + _ROWS].copy()
        values[:, :c + 1] *= 100.0
        rows = zip(samples.t[lo:lo + _ROWS].tolist(), values.tolist(),
                   samples.mem[lo:lo + _ROWS].tolist())
        yield "".join(f"{t},{','.join(map(repr, row))},{mem}\n" for t, row, mem in rows).encode()


# ---------------------------------------------------------------------------
# JSON codec: record field names are the wire names
# ---------------------------------------------------------------------------


class SchemaError(ValueError):
    """A JSON document does not match the record it is decoded into."""


# Written into every document of these classes, nested ones included. Keyed by
# class name, so that writing a report does not import traceprof.sweep.
_HEADERS: dict[str, dict[str, Any]] = {
    "MetricReport": {"schema_version": SCHEMA_VERSION, "kind": "metric_report"},
    "SweepResult": {"schema_version": SCHEMA_VERSION, "kind": "sweep_result"},
    "RunManifest": {"schema_version": SCHEMA_VERSION},
}

_SCALARS = frozenset({str, int, float, bool})
# The JSON text of each scalar type, as json.dumps writes it.
_TEXT = {float: float.__repr__, int: int.__repr__, str: _json_str,
         bool: {True: "true", False: "false"}.get, NoneType: {None: "null"}.get}
_BATCH = 4096  # rows written together; one batch's field columns are held at once


def _scalar(x: Any) -> str:
    """The JSON text of a str, int, float, bool or None; a non-finite float is an error."""
    if type(x) is float and not isfinite(x):
        raise TraceProfError("cannot write strict JSON: "
                             f"Out of range float values are not JSON compliant: {x!r}")
    return _TEXT[type(x)](x)


def _texts(values: list) -> list[str]:
    """The JSON text of each scalar, by one list repr where all are finite ints and floats."""
    if set(map(type, values)) <= {int, float} and "n" not in (text := repr(values)[1:-1]):
        return text.split(", ") if text else []  # only "inf" and "nan" hold an n
    return list(map(_scalar, values))


def _layout(items: list[str], ends: str, indent: str) -> str:
    """``items`` one per line between the two ``ends``, the last line at ``indent``."""
    if not items:
        return ends
    inner = indent + "  "
    return ends[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + ends[1]


def _row_texts(rows: Sequence, indent: str) -> list[str] | None:
    """The JSON text of each row, all of one record class, at ``indent``, from one template.

    Each field's values are formatted as one column, then filled into the rows'
    template. None, for the row-by-row path, unless the class has no header and
    each field holds scalars, equal-length tuples of them or same-key dicts of
    them; or if a float is not finite, so that its error comes in text order.
    """
    cls, inner = type(rows[0]), indent + "  "
    if cls.__name__ in _HEADERS:
        return None
    lines, slots = [], []
    for name in sorted(cls._fields):
        col = list(map(attrgetter(name), rows))
        kinds, first = set(map(type, col)), col[0]
        if kinds <= _TEXT.keys():
            values, shape = col, "%s"
        elif kinds == {tuple} and len(set(map(len, col))) == 1:
            values = list(chain.from_iterable(col))
            shape = _layout(["%s"] * len(first), "[]", inner)
        elif kinds == {dict} and all(d.keys() == first.keys() for d in col):
            keys = sorted(first)
            values = [d[k] for d in col for k in keys]
            shape = _layout([_json_str(k).replace("%", "%%") + ": %s" for k in keys], "{}", inner)
        else:
            return None
        if not set(map(type, values)) <= _TEXT.keys():
            return None
        try:
            texts = _texts(values)
        except TraceProfError:
            return None
        width = len(values) // len(rows)
        slots += [texts[k::width] for k in range(width)]
        lines.append(f'"{name}": {shape}')  # a field name is an identifier: no escapes
    return list(map(_layout(lines, "{}", indent).__mod__, zip(*slots))) if slots else None


def _pieces(obj: Any, indent: str) -> Iterator[str]:
    """The JSON text of ``obj``, its last line at ``indent``, in pieces.

    A record is its fields plus its header. Keys are sorted and nesting is
    indented by 2, as ``json.dumps(..., sort_keys=True, indent=2)`` writes
    them. A list of record rows goes ``_BATCH`` rows a piece.
    """
    cls, inner = type(obj), indent + "  "
    if cls in _TEXT:
        yield _scalar(obj)
    elif cls is tuple or cls is list:
        kinds = set(map(type, obj))
        if kinds <= _TEXT.keys():
            yield _layout(_texts(list(obj)), "[]", indent)
            return
        rows = len(kinds) == 1 and hasattr(obj[0], "_fields")
        sep = "[\n" + inner
        for lo in range(0, len(obj), _BATCH):
            batch = obj[lo:lo + _BATCH]
            texts = _row_texts(batch, inner) if rows else None
            if texts is None:
                for item in batch:
                    yield sep
                    yield from _pieces(item, inner)
                    sep = ",\n" + inner
            else:
                yield sep + (",\n" + inner).join(texts)
                sep = ",\n" + inner
        yield "\n" + indent + "]"
    else:  # a dict or a record
        items = obj.items() if cls is dict else [*zip(cls._fields, obj),
                                                 *_HEADERS.get(cls.__name__, {}).items()]
        sep = "{\n" + inner
        for key, value in sorted(items):
            yield sep + _json_str(key) + ": "
            yield from _pieces(value, inner)
            sep = ",\n" + inner
        yield "{}" if sep[0] == "{" else "\n" + indent + "}"  # "{}": no key was written


def _finite(values: list) -> bool:
    """Whether every float in ``values``, and in the lists, dicts and records they hold, is finite.

    The values of one type are checked together, and those of one record field
    as one column, so a list of rows costs a few passes per field. A record's
    header holds no float.
    """
    kinds = set(map(type, values))
    for cls in kinds:
        col = values if len(kinds) == 1 else [x for x in values if type(x) is cls]
        if cls is float:
            finite = all(map(isfinite, col))
        elif cls in _TEXT:
            finite = True
        elif cls is dict:
            finite = _finite(list(chain.from_iterable(map(dict.values, col))))
        elif cls is tuple or cls is list:
            finite = _finite(list(chain.from_iterable(col)))
        else:
            finite = all(_finite(list(map(attrgetter(name), col))) for name in cls._fields)
        if not finite:
            return False
    return True


def write_json(obj: Any, out: BinaryIO) -> None:
    """Write ``obj`` to ``out`` as strict JSON with sorted keys at indent 2, and a final newline.

    One pass over its floats comes first: if one is not finite, nothing is
    written, and the error names the first such float in text order. Then the
    pieces go to ``out`` as they are formatted, so no more than one batch of
    rows is held as text.
    """
    if not _finite([obj]):
        for _ in _pieces(obj, ""):  # raises at the first non-finite float
            pass
    for piece in _pieces(obj, ""):
        out.write(piece.encode("utf-8"))
    out.write(b"\n")


def _dump(obj: Any) -> bytes:
    """The bytes that ``write_json`` writes of ``obj``."""
    out = io.BytesIO()
    write_json(obj, out)
    return out.getvalue()


@cache
def _field_types(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, resolved type, has a default) per field, resolved once per class."""
    hints = get_type_hints(cls)
    return tuple((name, hints[name], name in cls._field_defaults) for name in cls._fields)


def _mismatch(path: str, expected: str, value: Any) -> SchemaError:
    return SchemaError(f"{path} must be {expected}, got {reprlib.repr(value)}")


def from_doc(tp: Any, value: Any, path: str) -> Any:
    """Decode a JSON value into type ``tp``, checking every field's type.

    Handles what run manifests and synth specs hold: records, ``X | None``,
    ``tuple[T, ...]``, string ``Literal``s and int/float/str/bool. A bool is
    never a number and an int is accepted as a float. Unknown keys are
    ignored; a key may be absent only where the record gives a default.
    Raises SchemaError naming the path of the first mismatch.
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
    if origin is tuple:  # only tuple[T, ...]
        if not isinstance(value, list):
            raise _mismatch(path, "a list", value)
        item_tp = get_args(tp)[0]
        return tuple(from_doc(item_tp, v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is Literal:  # only of strings, so no bool can equal an allowed value
        if value in get_args(tp):
            return value
        raise _mismatch(path, f"one of {list(get_args(tp))}", value)
    if hasattr(tp, "_fields"):  # a record
        if not isinstance(value, dict):
            raise _mismatch(path, "an object", value)
        kwargs = {}
        for name, field_tp, has_default in _field_types(tp):
            if name in value:
                kwargs[name] = from_doc(field_tp, value[name], f"{path}.{name}")
            elif not has_default:
                raise SchemaError(f"{path}.{name} is missing")
        return tp(**kwargs)
    raise TypeError(f"no JSON decoding for {tp!r} at {path}")


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def write_manifest(manifest: RunManifest) -> bytes:
    return _dump(manifest)


def _open(path: Path, what: str) -> BinaryIO:
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise ManifestError(f"{what} not found: {path}")
    except OSError as exc:
        raise ManifestError(f"{what} {path} cannot be read: {exc.strerror}")


def read_json(path: Path, what: str) -> Any:
    """The JSON document in ``path``, or a ManifestError naming ``what`` if it cannot be read."""
    with _open(path, what) as stream:
        try:
            return json.loads(stream.read().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{what} {path} is not UTF-8: {exc.reason} at byte {exc.start}")
        except ValueError as exc:  # also an integer past Python's int-to-str digit limit
            raise ManifestError(f"{what} {path} is not valid JSON: {getattr(exc, 'msg', exc)}")


def _check_paths(paths: list[str], where: str) -> None:
    """ManifestError unless the file system can open every path: no NUL, and encodable."""
    for p in paths:
        if "\0" in p:
            raise ManifestError(f"{where} has a NUL character in a path")
        try:
            os.fsencode(p)
        except UnicodeEncodeError:
            raise ManifestError(f"{where} has a path the file system cannot encode: {p!r}")


def load_manifest(path: Path | str) -> RunManifest:
    path = Path(path)
    try:
        manifest = from_doc(RunManifest, read_json(path, "manifest"), "manifest")
    except SchemaError as exc:
        raise ManifestError(f"{exc} in {path}")
    if not manifest.op_trace_path or not manifest.telemetry_path:
        raise ManifestError(f"manifest {path} needs op_trace_path and telemetry_path")
    _check_paths([manifest.op_trace_path, manifest.telemetry_path], f"manifest {path}")
    return manifest


def load_run(manifest_path: Path | str) -> Run:
    """Load, parse and validate a complete run from its manifest.

    Raises TraceValidationError at the first stage that finds an error: the
    manifest's meta, checked before either trace is read; then both parses,
    with all their issues; then ``validate_run``, its issues after the parse
    warnings. Parse warnings survive on the Run.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    meta_issues: list[Issue] = []
    _check_meta(manifest.meta, meta_issues)
    if meta_issues:
        raise TraceValidationError(meta_issues)
    base = manifest_path.parent
    with (_open(base / manifest.op_trace_path, "op trace") as op_stream,
          _open(base / manifest.telemetry_path, "telemetry") as telemetry_stream):
        ops, op_issues = parse_op_trace(op_stream)
        samples, telemetry_issues = parse_telemetry(telemetry_stream, manifest.meta.core_count)
    issues = op_issues + telemetry_issues
    if any(i.severity == "error" for i in issues):
        raise TraceValidationError(issues)
    warnings = tuple(i for i in issues if i.severity == "warning")
    try:
        run = validate_run(manifest.meta, ops, samples, manifest.memory_breakdown)
    except TraceValidationError as exc:  # the parse warnings still come first
        raise TraceValidationError(warnings + exc.issues) from None
    return run._replace(warnings=warnings + run.warnings)


def load_sweep_manifest(path: Path | str) -> tuple[str, list[Path]]:
    """Read a sweep manifest: {"model": name, "runs": [run-manifest paths]}."""
    path = Path(path)
    doc = read_json(path, "sweep manifest")
    if not isinstance(doc, dict) or not isinstance(doc.get("model"), str) or "runs" not in doc:
        raise ManifestError(f"sweep manifest {path} needs a string 'model' and 'runs'")
    runs = doc["runs"]
    if not isinstance(runs, list) or not all(isinstance(r, str) for r in runs):
        raise ManifestError(f"sweep manifest {path} 'runs' must be a list of paths")
    _check_paths(runs, f"sweep manifest {path}")
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
