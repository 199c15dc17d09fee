"""Command-line entry point: validate | analyze | sweep | synth.

Reports go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 validation/analysis failure, 2 usage error. Output is deterministic for
fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from math import isfinite
from pathlib import Path

# traceprof makes no BLAS call, but numpy's OpenBLAS starts one spinning worker
# per CPU when it loads, so the package modules below are imported after this.
# A value the user sets wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import DuplicateBatchSize, TraceProfError, TraceValidationError
from .ingest import load_run, load_sweep_manifest, read_json, write_json, write_report
from .metrics import build_report
from .model import RAILS, Run
from .steps import SIGNALS

USAGE_ERROR = 2


def _emit(report, fmt: str) -> None:
    """Write a report to stdout; JSON goes to its binary buffer as it is formatted."""
    stream = sys.stdout
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(write_report(report, fmt).decode("utf-8"))
        return
    if fmt == "json":
        write_json(report, buffer)
    else:
        buffer.write(write_report(report, fmt))
    stream.flush()


def _print_issues(issues) -> None:
    for issue in issues:
        location = f" line {issue.line_no}" if issue.line_no else ""
        print(f"{issue.severity}[{issue.code}]{location}: {issue.message}", file=sys.stderr)


def _load(path: str, warmup: int | None) -> Run:
    run = load_run(Path(path))
    _print_issues(run.warnings)
    if warmup is not None:
        run = run._replace(meta=run.meta._replace(warmup_steps=warmup))
    return run


def cmd_validate(args: argparse.Namespace) -> int:
    run = _load(args.manifest, None)
    print(
        f"OK run_id={run.meta.run_id} ops={len(run.ops)} samples={len(run.samples)} "
        f"warnings={len(run.warnings)}"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    run = _load(args.manifest, args.warmup)
    report = build_report(run, signal=args.signal, idle_threshold=args.idle_threshold)
    del run  # its tables go before the report is written
    _emit(report, args.format)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    # Imported here, as synth is below: no other command compiles the sweep module.
    from .sweep import SweepPoint, build_sweep_result

    model, run_paths = load_sweep_manifest(Path(args.manifest))
    if len(run_paths) < 2:
        print(f"error: sweep needs at least 2 runs, manifest lists {len(run_paths)}",
              file=sys.stderr)
        return USAGE_ERROR
    points = []
    capacities = []
    for path in run_paths:
        run = _load(str(path), args.warmup)
        report = build_report(run, signal=args.signal, idle_threshold=args.idle_threshold)
        points.append(SweepPoint(batch_size=run.meta.batch_size, report=report))
        capacities.append(run.meta.device_mem_capacity_bytes)
        del run  # its tables go before the next run is read
    if len(set(capacities)) > 1:
        print(
            f"warning: runs declare different memory capacities {sorted(set(capacities))}; "
            "using the first",
            file=sys.stderr,
        )
    result = build_sweep_result(model, points, capacities[0], rail=args.rail)
    _emit(result, args.format)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    # Imported here: no other command runs synth, and each process compiles what it imports.
    from .synth import random_spec, spec_from_dict, write_run

    if args.spec is None:
        spec = random_spec(args.seed or 0, noise_amplitude=args.noise or 0.0)
    elif args.seed is None and args.noise is None:
        spec = spec_from_dict(read_json(Path(args.spec), "synth spec"))
    else:
        print("--seed and --noise do not apply to a --spec run", file=sys.stderr)
        return USAGE_ERROR
    if args.strip_step_ids:
        spec = spec._replace(strip_step_ids=True)
    try:
        manifest_path = write_run(spec, Path(args.out))
    except OSError as exc:
        raise TraceProfError(f"synth out {args.out} cannot be written: {exc.strerror}") from None
    print(manifest_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traceprof",
        description="Correlate hardware telemetry with training-op timelines and report metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a run manifest and its trace files")
    p_validate.add_argument("manifest", help="path to the run manifest JSON")
    p_validate.set_defaults(func=cmd_validate)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="table")
    common.add_argument("--warmup", type=int, default=None,
                        help="override the manifest's warmup step count")
    common.add_argument("--signal", choices=SIGNALS, default="gpu_util",
                        help="signal used for periodicity and predictability")
    common.add_argument("--idle-threshold", type=float, default=0.0,
                        help="utilization at or below this counts as idle")

    p_analyze = sub.add_parser("analyze", parents=[common],
                               help="compute the full metric report for one run")
    p_analyze.add_argument("manifest", help="path to the run manifest JSON")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="compare runs of one model across batch sizes")
    p_sweep.add_argument("manifest", help="path to the sweep manifest JSON")
    p_sweep.add_argument("--rail", choices=RAILS, default="sys",
                         help="power rail used for energy scaling")
    p_sweep.set_defaults(func=cmd_sweep)

    p_synth = sub.add_parser("synth", help="emit a synthetic run with a complete manifest")
    p_synth.add_argument("--out", required=True, help="output directory for the run files")
    p_synth.add_argument("--spec", default=None, help="JSON file describing the synth spec")
    p_synth.add_argument("--seed", type=int, default=None, help="random spec seed (default 0)")
    p_synth.add_argument("--noise", type=float, default=None,
                         help="random spec noise amplitude (default 0.0)")
    p_synth.add_argument("--strip-step-ids", action="store_true",
                         help="drop step labels to exercise period inference")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "warmup", None) is not None and args.warmup < 0:
        print("--warmup must be >= 0", file=sys.stderr)
        return USAGE_ERROR
    if not isfinite(getattr(args, "idle_threshold", 0.0)):
        print("--idle-threshold must be finite", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except TraceValidationError as exc:
        _print_issues(exc.issues)
        return 1
    except TraceProfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, DuplicateBatchSize) else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry point (``python -m traceprof`` and the ``traceprof`` script).

    Freezing moves every object that exists after the imports into the permanent
    generation, so neither a collection during the run nor the one at interpreter
    exit walks them again. Cycles the run itself makes are still collected.
    ``main`` leaves the collector alone, because tests and library callers run it
    in process.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
