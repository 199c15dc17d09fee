"""Parses and writes the on-disk trace formats, manifests and reports.

Formats:
  * op trace: one JSON object per line with keys ``op``, ``layer`` (optional),
    ``device``, ``step`` (optional), ``start_us``, ``end_us``. Append-friendly
    during live recording, trivially streamable.
  * telemetry: comma-separated with header
    ``t_us,c0..c{n-1},gpu,p_cpu_mw,p_gpu_mw,p_mem_mw,p_sys_mw,mem_bytes``;
    utilization columns are percent.
  * run manifest: a single JSON document binding metadata, trace paths and an
    optional memory breakdown. Paths resolve relative to the manifest's
    directory.

Parsers never lose records: every non-blank record line becomes either a
parsed item or a line-numbered diagnostic. Unknown extra columns/keys are
ignored with a warning for forward compatibility. JSON report output is
stable-key-ordered so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import ManifestError, TraceValidationError
from .metrics import (
    MetricReport,
    OpAggregate,
    RailShare,
    StepMetrics,
)
from .model import (
    Device,
    Issue,
    MemoryBreakdown,
    OpEvent,
    Run,
    RunMeta,
    StepWindow,
    TelemetrySample,
    validate_run,
)
from .steps import PeriodEstimate, PredictabilityScore
from .sweep import FeasibilityVerdict, SweepPoint, SweepResult

SCHEMA_VERSION = 1

_OP_KEYS = {"op", "layer", "device", "step", "start_us", "end_us"}


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


def parse_op_trace(data: bytes) -> tuple[list[OpEvent], list[Issue]]:
    """Parse a line-delimited op trace; returns (events, diagnostics)."""
    events: list[OpEvent] = []
    issues: list[Issue] = []
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
        for key in record.keys() - _OP_KEYS:
            if key not in warned_keys:
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


def _telemetry_columns(core_count: int) -> list[str]:
    cores = [f"c{i}" for i in range(core_count)]
    return ["t_us", *cores, "gpu", "p_cpu_mw", "p_gpu_mw", "p_mem_mw", "p_sys_mw", "mem_bytes"]


def parse_telemetry(data: bytes, core_count: int) -> tuple[list[TelemetrySample], list[Issue]]:
    """Parse the telemetry CSV; utilization percent columns become fractions."""
    samples: list[TelemetrySample] = []
    issues: list[Issue] = []
    # Lazy over the decoded lines: no stripped copy of the whole file is kept.
    lines = enumerate(data.decode("utf-8", errors="replace").splitlines(), start=1)
    stripped = ((i, line.strip()) for i, line in lines)
    numbered = ((i, line) for i, line in stripped if line)
    first = next(numbered, None)
    if first is None:
        issues.append(Issue("EmptyTrace", "telemetry file is empty", line_no=0))
        return samples, issues

    header_no, header_line = first
    header = [cell.strip() for cell in header_line.split(",")]
    expected = _telemetry_columns(core_count)
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
        return samples, issues

    for line_no, line in numbered:
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) < len(header):
            issues.append(
                Issue("MalformedLine", f"expected {len(header)} cells, got {len(cells)}", line_no=line_no)
            )
            continue
        try:
            t = int(cells[col_index["t_us"]])
            mem = int(cells[col_index["mem_bytes"]])
            utils_pct = [float(cells[col_index[f"c{i}"]]) for i in range(core_count)]
            gpu_pct = float(cells[col_index["gpu"]])
            powers = {
                rail: float(cells[col_index[f"p_{rail}_mw"]])
                for rail in ("cpu", "gpu", "mem", "sys")
            }
        except ValueError as exc:
            issues.append(Issue("MalformedLine", f"bad numeric cell: {exc}", line_no=line_no))
            continue
        bad = False
        for pct in (*utils_pct, gpu_pct):
            if not 0.0 <= pct <= 100.0:
                issues.append(
                    Issue(
                        "UtilizationOutOfRange",
                        f"utilization {pct}% outside [0, 100]",
                        line_no=line_no,
                    )
                )
                bad = True
                break
        if bad:
            continue
        negative = [rail for rail, p in powers.items() if p < 0]
        if negative:
            issues.append(
                Issue("NegativePower", f"negative power on rail(s) {negative}", line_no=line_no)
            )
            continue
        if mem < 0:
            issues.append(
                Issue("MalformedLine", "mem_bytes must be non-negative", line_no=line_no)
            )
            continue
        samples.append(
            TelemetrySample(
                t=t,
                cpu_core_util=tuple(pct / 100.0 for pct in utils_pct),
                gpu_util=gpu_pct / 100.0,
                power_cpu_mw=powers["cpu"],
                power_gpu_mw=powers["gpu"],
                power_mem_mw=powers["mem"],
                power_sys_mw=powers["sys"],
                mem_used_bytes=mem,
            )
        )
    if not samples and not any(i.severity == "error" for i in issues):
        issues.append(Issue("EmptyTrace", "telemetry has a header but no rows", line_no=0))
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
# Manifests
# ---------------------------------------------------------------------------


def _breakdown_to_dict(bd: MemoryBreakdown | None) -> dict[str, Any] | None:
    if bd is None:
        return None
    return {
        "parameters_bytes": bd.parameters_bytes,
        "gradients_bytes": bd.gradients_bytes,
        "input_bytes": bd.input_bytes,
        "intermediate_bytes": bd.intermediate_bytes,
    }


def _breakdown_from_dict(d: dict[str, Any] | None) -> MemoryBreakdown | None:
    if d is None:
        return None
    return MemoryBreakdown(
        parameters_bytes=d.get("parameters_bytes"),
        gradients_bytes=d.get("gradients_bytes"),
        input_bytes=d.get("input_bytes"),
        intermediate_bytes=d.get("intermediate_bytes"),
    )


def write_manifest(manifest: RunManifest) -> bytes:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "meta": {
            "run_id": manifest.meta.run_id,
            "batch_size": manifest.meta.batch_size,
            "core_count": manifest.meta.core_count,
            "device_mem_capacity_bytes": manifest.meta.device_mem_capacity_bytes,
            "sample_interval_us": manifest.meta.sample_interval_us,
            "warmup_steps": manifest.meta.warmup_steps,
        },
        "op_trace_path": manifest.op_trace_path,
        "telemetry_path": manifest.telemetry_path,
        "memory_breakdown": _breakdown_to_dict(manifest.memory_breakdown),
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def load_manifest(path: Path | str) -> RunManifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}")
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc.msg}")
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest {path} must be a JSON object")
    meta_doc = doc.get("meta")
    if not isinstance(meta_doc, dict):
        raise ManifestError(f"manifest {path} missing 'meta' object")
    try:
        meta = RunMeta(
            run_id=meta_doc["run_id"],
            batch_size=meta_doc["batch_size"],
            core_count=meta_doc["core_count"],
            device_mem_capacity_bytes=meta_doc.get(
                "device_mem_capacity_bytes", RunMeta.device_mem_capacity_bytes
            ),
            sample_interval_us=meta_doc.get("sample_interval_us", RunMeta.sample_interval_us),
            warmup_steps=meta_doc.get("warmup_steps", RunMeta.warmup_steps),
        )
    except KeyError as exc:
        raise ManifestError(f"manifest {path} meta missing key {exc}")
    op_path = doc.get("op_trace_path")
    telemetry_path = doc.get("telemetry_path")
    if not op_path or not telemetry_path:
        raise ManifestError(f"manifest {path} needs op_trace_path and telemetry_path")
    return RunManifest(
        meta=meta,
        op_trace_path=op_path,
        telemetry_path=telemetry_path,
        memory_breakdown=_breakdown_from_dict(doc.get("memory_breakdown")),
    )


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

    ops, op_issues = parse_op_trace(op_bytes)
    samples, telemetry_issues = parse_telemetry(telemetry_bytes, manifest.meta.core_count)
    issues = op_issues + telemetry_issues
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        raise TraceValidationError(issues)
    warnings = tuple(i for i in issues if i.severity == "warning")
    run = validate_run(manifest.meta, ops, samples, manifest.memory_breakdown)
    if warnings:
        run = Run(
            meta=run.meta,
            ops=run.ops,
            samples=run.samples,
            memory_breakdown=run.memory_breakdown,
            warnings=warnings + run.warnings,
        )
    return run


def load_sweep_manifest(path: Path | str) -> tuple[str, list[Path]]:
    """Read a sweep manifest: {"model": name, "runs": [run-manifest paths]}."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ManifestError(f"sweep manifest not found: {path}")
    except json.JSONDecodeError as exc:
        raise ManifestError(f"sweep manifest {path} is not valid JSON: {exc.msg}")
    if not isinstance(doc, dict) or "model" not in doc or "runs" not in doc:
        raise ManifestError(f"sweep manifest {path} needs 'model' and 'runs'")
    runs = doc["runs"]
    if not isinstance(runs, list) or not all(isinstance(r, str) for r in runs):
        raise ManifestError(f"sweep manifest {path} 'runs' must be a list of paths")
    return doc["model"], [path.parent / r for r in runs]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _fields(obj: Any) -> dict[str, Any] | None:
    """A flat dataclass whose field names are its wire names, as a dict."""
    return None if obj is None else dict(vars(obj))


def _step_window_to_dict(w: StepWindow) -> dict[str, Any]:
    return {"step_id": w.step_id, "start_us": w.start, "end_us": w.end, "is_warmup": w.is_warmup}


def _step_metrics_to_dict(m: StepMetrics) -> dict[str, Any]:
    return {
        "step_id": m.step_id,
        "is_warmup": m.is_warmup,
        "start_us": m.start,
        "end_us": m.end,
        "per_core_util": list(m.per_core_util),
        "cpu_avg_util": m.cpu_avg_util,
        "gpu_util": m.gpu_util,
        "idle_ratio_per_core": list(m.idle_ratio_per_core),
        "energy_by_rail_joules": dict(m.energy_by_rail_joules),
        "throughput_samples_per_sec": m.throughput_samples_per_sec,
    }


def report_to_dict(report: MetricReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "metric_report",
        "run_id": report.run_id,
        "batch_size": report.batch_size,
        "core_count": report.core_count,
        "sample_interval_us": report.sample_interval_us,
        "warmup_steps": report.warmup_steps,
        "notes": list(report.notes),
        "idle_threshold": report.idle_threshold,
        "concurrent_ops_double_counting": report.concurrent_ops_double_counting,
        "per_core_util": list(report.per_core_util),
        "cpu_avg_util": report.cpu_avg_util,
        "gpu_util": report.gpu_util,
        "idle_ratio_per_core": list(report.idle_ratio_per_core),
        "energy_by_rail_joules": dict(report.energy_by_rail_joules),
        "peak_mem_bytes": report.peak_mem_bytes,
        "throughput_samples_per_sec": report.throughput_samples_per_sec,
        "power_rail_ranking": [_fields(r) for r in report.power_rail_ranking],
        "steps": [_step_window_to_dict(w) for w in report.steps],
        "per_step": [_step_metrics_to_dict(m) for m in report.per_step],
        "per_op": {name: _fields(agg) for name, agg in report.per_op.items()},
        "period": _fields(report.period),
        "predictability": _fields(report.predictability),
        "memory_breakdown": _breakdown_to_dict(report.memory_breakdown),
    }


def report_from_dict(doc: dict[str, Any]) -> MetricReport:
    period = doc.get("period")
    predictability = doc.get("predictability")
    return MetricReport(
        run_id=doc["run_id"],
        batch_size=doc["batch_size"],
        core_count=doc["core_count"],
        sample_interval_us=doc["sample_interval_us"],
        warmup_steps=doc["warmup_steps"],
        per_core_util=tuple(doc["per_core_util"]),
        cpu_avg_util=doc["cpu_avg_util"],
        gpu_util=doc["gpu_util"],
        idle_ratio_per_core=tuple(doc["idle_ratio_per_core"]),
        energy_by_rail_joules=dict(doc["energy_by_rail_joules"]),
        peak_mem_bytes=doc["peak_mem_bytes"],
        throughput_samples_per_sec=doc["throughput_samples_per_sec"],
        steps=tuple(
            StepWindow(w["step_id"], w["start_us"], w["end_us"], w["is_warmup"])
            for w in doc["steps"]
        ),
        per_step=tuple(
            StepMetrics(
                step_id=m["step_id"],
                is_warmup=m["is_warmup"],
                start=m["start_us"],
                end=m["end_us"],
                per_core_util=tuple(m["per_core_util"]),
                cpu_avg_util=m["cpu_avg_util"],
                gpu_util=m["gpu_util"],
                idle_ratio_per_core=tuple(m["idle_ratio_per_core"]),
                energy_by_rail_joules=dict(m["energy_by_rail_joules"]),
                throughput_samples_per_sec=m["throughput_samples_per_sec"],
            )
            for m in doc["per_step"]
        ),
        per_op={name: OpAggregate(**agg) for name, agg in doc["per_op"].items()},
        power_rail_ranking=tuple(RailShare(**r) for r in doc["power_rail_ranking"]),
        period=None if period is None else PeriodEstimate(**period),
        predictability=None if predictability is None else PredictabilityScore(**predictability),
        memory_breakdown=_breakdown_from_dict(doc.get("memory_breakdown")),
        concurrent_ops_double_counting=doc["concurrent_ops_double_counting"],
        idle_threshold=doc["idle_threshold"],
        notes=tuple(doc["notes"]),
    )


def sweep_result_to_dict(result: SweepResult) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "sweep_result",
        "model": result.model,
        "batch_ratio": result.batch_ratio,
        "throughput_speedup": result.throughput_speedup,
        "energy_scaling": result.energy_scaling,
        "energy_scaling_class": result.energy_scaling_class,
        "gpu_util_delta": result.gpu_util_delta,
        "cpu_util_delta": result.cpu_util_delta,
        "mem_intermediate_growth": (
            None
            if result.mem_intermediate_growth is None
            else list(result.mem_intermediate_growth)
        ),
        "feasibility": [
            {
                "batch_size": v.batch_size,
                "verdict": v.verdict,
                "peak_mem_bytes": v.peak_mem_bytes,
                "capacity_bytes": v.capacity_bytes,
                "memory_breakdown": _breakdown_to_dict(v.memory_breakdown),
            }
            for v in result.feasibility
        ],
        "points": [
            {"batch_size": p.batch_size, "report": report_to_dict(p.report)}
            for p in result.points
        ],
    }


def sweep_result_from_dict(doc: dict[str, Any]) -> SweepResult:
    growth = doc.get("mem_intermediate_growth")
    return SweepResult(
        model=doc["model"],
        points=tuple(
            SweepPoint(p["batch_size"], report_from_dict(p["report"])) for p in doc["points"]
        ),
        batch_ratio=doc["batch_ratio"],
        throughput_speedup=doc["throughput_speedup"],
        energy_scaling=doc["energy_scaling"],
        energy_scaling_class=doc["energy_scaling_class"],
        gpu_util_delta=doc["gpu_util_delta"],
        cpu_util_delta=doc["cpu_util_delta"],
        mem_intermediate_growth=None if growth is None else (growth[0], growth[1]),
        feasibility=tuple(
            FeasibilityVerdict(
                batch_size=v["batch_size"],
                verdict=v["verdict"],
                peak_mem_bytes=v["peak_mem_bytes"],
                capacity_bytes=v["capacity_bytes"],
                memory_breakdown=_breakdown_from_dict(v.get("memory_breakdown")),
            )
            for v in doc["feasibility"]
        ),
    )


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
    tput = (
        "n/a"
        if report.throughput_samples_per_sec is None
        else f"{report.throughput_samples_per_sec:.3f}"
    )
    lines.append(f"throughput: {tput} samples/s")
    lines.append(f"peak memory: {report.peak_mem_bytes} bytes")
    if report.period is not None:
        lines.append(
            f"step period: {report.period.period_us} us "
            f"(confidence {report.period.confidence:.3f}, {report.period.method})"
        )
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
            f"{m.step_id:<6}{str(m.is_warmup).lower():<8}{m.end - m.start:>14}"
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
        tput = "n/a" if r.throughput_samples_per_sec is None else f"{r.throughput_samples_per_sec:.2f}"
        lines.append(
            f"{p.batch_size:<7}{tput:>12}{_pct(r.gpu_util):>10}{_pct(r.cpu_avg_util):>9}"
            f"{mean_e:>12.6f}{r.peak_mem_bytes:>14}  {fz[p.batch_size].verdict}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: MetricReport | SweepResult, fmt: str = "json") -> bytes:
    """Serialize a metric report or sweep result; json output is stable."""
    if fmt == "json":
        if isinstance(report, MetricReport):
            doc = report_to_dict(report)
        else:
            doc = sweep_result_to_dict(report)
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
    if fmt == "table":
        if isinstance(report, MetricReport):
            return _render_report_table(report).encode("utf-8")
        return _render_sweep_table(report).encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}, expected 'json' or 'table'")


def parse_report(data: bytes) -> MetricReport | SweepResult:
    """Parse a JSON report produced by :func:`write_report`."""
    doc = json.loads(data.decode("utf-8"))
    kind = doc.get("kind")
    if kind == "metric_report":
        return report_from_dict(doc)
    if kind == "sweep_result":
        return sweep_result_from_dict(doc)
    raise ValueError(f"unknown report kind {kind!r}")
