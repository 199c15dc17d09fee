#!/usr/bin/env python3
"""traceprof benchmark: closed-loop CLI runs, output checks and a traced pass.

One client runs ``python -m traceprof analyze|sweep ... --format json`` in a
fresh process, reads its stdout in full, waits for it to exit, checks the
output, and starts the next, until ``--seconds`` have passed. Before the loop
the inputs are generated (gen.py) and one untimed warm-up invocation runs; its
output is checked against the generator's closed forms and is the reference
every later invocation must match byte for byte. Each loop iteration also
times one ``python -c "import traceprof.cli"`` probe and one run of the fixed
reference task (refload.py). The gated ``wall_rel`` and ``cpu_rel`` divide
the run's total invocation time by the reference task's total, and
``setup_s`` is the probes' total over the reference task's total, in seconds
of a host on which the reference task takes REF_NOMINAL_S. CPU time and
peak RSS come from each child's own ``os.wait4`` rusage. This process
imports neither numpy nor traceprof and stays small, because a child's
``ru_maxrss`` starts at its parent's peak RSS.

With ``--trace 1`` the warm-up is followed by traced.py, which calls each
traceprof layer in process with a span around every call; the per-layer
metrics are derived from those spans.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it list the input files' sizes and
SHA-256 digests and, per metric, the median, the sample count and the highest
percentile with at least ten samples beyond it.

Usage: python3 perfbench/run.py --workload long-run --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import check_output, strict_loads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long-run", "op-dense", "sweep")
MIN_ITERATIONS = 3
REF_NOMINAL_S = 0.5  # reference-task wall time that setup_s is scaled to
CHILD_TIMEOUT_S = 120.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_PROBLEMS = 5

# Span name -> per-layer metric holding the summed self time of those spans.
LAYER_SPANS = {
    "parse_telemetry": "ingest.parse_telemetry_s",
    "parse_op_trace": "ingest.parse_op_trace_s",
    "load_manifest": "ingest.load_manifest_s",
    "load_sweep_manifest": "ingest.load_sweep_manifest_s",
    "write_report": "ingest.write_report_s",
    "validate_run": "model.validate_run_s",
    "resolve_steps": "steps.resolve_steps_s",
    "predictability": "steps.predictability_s",
    "attribute_samples": "correlate.attribute_samples_s",
    "concurrent_ops_exist": "correlate.concurrent_ops_exist_s",
    "build_report": "metrics.build_report_s",
    "build_sweep_result": "sweep.build_sweep_result_s",
}
# Layers that build_report also runs internally; its self time excludes them.
REPORT_INNER = ("resolve_steps", "attribute_samples", "concurrent_ops_exist", "predictability")


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(cmd: list[str], env: dict, scratch: Path, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to exit, reading stdout in full; account it by its own rusage."""
    with tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(
            returncode=proc.returncode,
            stdout=out,
            stderr=err.read(),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        )


def process_failures(child: Child) -> list[str]:
    reasons = []
    if child.returncode != 0:
        reasons.append(f"exit code {child.returncode}")
    if b"Traceback" in child.stderr:
        reasons.append("traceback on stderr: " + child.stderr.decode(errors="replace")[-400:])
    return reasons


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def tail(values: list[float]) -> str:
    """Highest listed percentile that still has at least ten samples beyond it."""
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * len(ordered))
        if len(ordered) - rank >= 10:
            return f"p{p:g}={ordered[rank - 1]!r}"
    return "tail=n/a (fewer than 11 samples)"


def summarize(name: str, values: list[float], unit: str) -> dict:
    if unit in ("count", "bytes"):
        median = statistics.median_low(values)  # a whole number for an even sample count
    else:
        median = statistics.median(values)
    print(f"metric {name} median={median!r} {unit} n={len(values)} {tail(values)}")
    return {"value": median, "unit": unit}


class Bench:
    """One benchmark run: the inputs, the warm-up output and every checked child."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        self.env = dict(os.environ)
        extra = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
        self.inputs = scratch / "inputs"
        gen = spawn([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                     "--seed", str(seed), "--out", str(self.inputs)], self.env, scratch)
        if gen.returncode != 0:
            raise BenchError("input generation failed: " + gen.stderr.decode(errors="replace"))
        self.expected = json.loads((self.inputs / "expected.json").read_text(encoding="utf-8"))
        self.cli = [sys.executable, "-m", "traceprof", self.expected["command"],
                    str(self.inputs / self.expected["manifest"]), "--format", "json"]
        self.setup_cmd = [sys.executable, "-c", "import traceprof.cli"]
        self.ref_cmd = [sys.executable, str(HERE / "refload.py")]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.series: dict[str, list[float]] = {
            name: [] for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_raw_s",
                                  "ref_wall_s", "ref_cpu_s")
        }
        self.warmup, ok = self._invoke(None)
        self.warmup_failed = not ok

    def digests(self) -> list[str]:
        return [
            f"input {p.relative_to(self.inputs)} bytes={p.stat().st_size} "
            f"sha256={sha256_file(p)}"
            for p in sorted(self.inputs.rglob("*"))
            if p.is_file() and p.name != "expected.json"
        ]

    def problem(self, message: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def record(self, reasons: list[str]) -> bool:
        """Count one attempted operation; True when it succeeded."""
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.problem("; ".join(reasons))
        return not reasons

    def _invoke(self, warmup: Child | None) -> tuple[Child, bool]:
        """One checked CLI invocation: the oracle for the warm-up, byte equality after."""
        child = spawn(self.cli, self.env, self.scratch)
        reasons = process_failures(child)
        if not reasons and warmup is None:
            try:
                reasons = check_output(child.stdout, self.expected)
            except (KeyError, TypeError, AttributeError, IndexError) as exc:
                reasons = [f"malformed report: {exc!r}"]
        elif not reasons and child.stdout != warmup.stdout:
            reasons = ["stdout differs from the warm-up invocation's"]
        elif not reasons and self.warmup_failed:
            reasons = ["output failed the checks (see the warm-up invocation)"]
        return child, self.record(reasons)

    def loop(self, seconds: float) -> None:
        """Closed loop: a setup probe, the reference task and one checked invocation."""
        deadline = time.perf_counter() + seconds
        iterations = 0
        while iterations < MIN_ITERATIONS or time.perf_counter() < deadline:
            iterations += 1
            probe = spawn(self.setup_cmd, self.env, self.scratch)
            ref = spawn(self.ref_cmd, self.env, self.scratch)
            clean = True
            for what, aux in (("setup probe", probe), ("reference task", ref)):
                reasons = process_failures(aux)
                if reasons:
                    self.problem(f"{what}: " + "; ".join(reasons))
                    clean = False
            child, _ = self._invoke(self.warmup)
            if not clean:
                continue
            s = self.series
            s["setup_raw_s"].append(probe.wall_s)
            s["ref_wall_s"].append(ref.wall_s)
            s["ref_cpu_s"].append(ref.cpu_s)
            s["wall_s"].append(child.wall_s)
            s["cpu_s"].append(child.cpu_s)
            s["peak_rss_mb"].append(child.peak_rss_mb)
        if not self.series["wall_s"]:
            raise BenchError("setup probe or reference task failed: " + " | ".join(self.problems))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def relative(name: str, times: list[float], ref_times: list[float],
             scale: float = 1.0, unit: str = "x") -> dict:
    """Total time over the total reference-task time of the same iterations, scaled."""
    value = math.fsum(times) / math.fsum(ref_times) * scale
    print(f"metric {name} value={value!r} {unit} n={len(times)} (ratio of totals)")
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Print every end-to-end figure; return the ones BENCHMARK.json gates on.

    wall_s, cpu_s and setup_raw_s are printed for reading only: on a shared
    host they drift by tens of percent between runs. The gated wall_rel,
    cpu_rel and setup_s divide them by the reference task timed in the same
    iterations, which cancels most of that drift.
    """
    bench.loop(seconds)
    s = bench.series
    for name in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s"):
        summarize(name, s[name], "s")
    summarize("setup_raw_s", s["setup_raw_s"], "s")
    return {
        "wall_rel": relative("wall_rel", s["wall_s"], s["ref_wall_s"]),
        "cpu_rel": relative("cpu_rel", s["cpu_s"], s["ref_cpu_s"]),
        "peak_rss_mb": summarize("peak_rss_mb", s["peak_rss_mb"], "MB"),
        "setup_s": relative("setup_s", s["setup_raw_s"], s["ref_wall_s"], REF_NOMINAL_S, "s"),
    }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0, start
        for s, e in sorted(children.get(i, ())):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start - covered) / 1e9)
    return out


def pass_values(p: dict) -> dict:
    """Per-layer self times, counts, ratios and tracing cost of one traced pass."""
    spans = p["spans"]
    by_span = dict.fromkeys(LAYER_SPANS, 0.0)
    for (name, *_), self_s in zip(spans, self_times(spans)):
        if name in by_span:
            by_span[name] += self_s
    values = {metric: by_span[span] for span, metric in LAYER_SPANS.items()}
    values["metrics.build_report_self_s"] = (
        by_span["build_report"] - sum(by_span[s] for s in REPORT_INNER)
    )
    values.update(p["counts"])
    values.update(p["ratios"])
    root = spans[0]
    values["trace.total_s"] = (root[2] - root[1]) / 1e9
    values["trace.overhead_s"] = p["overhead_ns"] / 1e9
    return values


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(bench: Bench, seconds: float) -> dict:
    """Per-layer metrics from the traced passes, each pass checked like an invocation."""
    traced = spawn([sys.executable, str(HERE / "traced.py"), "--inputs", str(bench.inputs),
                    "--seconds", repr(seconds)],
                   bench.env, bench.scratch, timeout=seconds + CHILD_TIMEOUT_S)
    reasons = process_failures(traced)
    if reasons:
        raise BenchError("traced pass failed: " + "; ".join(reasons))
    passes = strict_loads(traced.stdout)["passes"]

    warmup_digest = hashlib.sha256(bench.warmup.stdout).hexdigest()
    runs = bench.expected["runs"]
    want = {"ingest.samples": sum(r["samples"] for r in runs),
            "ingest.ops": sum(r["ops"] for r in runs)}
    series: dict[str, list[float]] = {}
    for p in passes:
        counts = p["counts"]
        reasons = [f"{k}={counts[k]}, want {v}" for k, v in want.items() if counts[k] != v]
        if p["report_sha256"] != warmup_digest:
            reasons.append("traced report differs from the CLI's")
        if counts != passes[0]["counts"] or p["ratios"] != passes[0]["ratios"]:
            reasons.append("counts differ between traced passes")
        bench.record(reasons)
        for name, value in pass_values(p).items():
            series.setdefault(name, []).append(value)

    summarize("trace.total_s", series.pop("trace.total_s"), "s")
    return {name: summarize(name, values, unit_of(name))
            for name, values in sorted(series.items())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "traceprof" / "__main__.py").is_file():
        print(f"error: no traceprof sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work))
    try:
        bench = Bench(args.workload, args.seed, scratch)
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        for line in bench.digests():
            print(line)
        if args.trace:
            metrics = layer_metrics(bench, args.seconds)
        else:
            metrics = end_to_end(bench, args.seconds)
        print(f"fail_ratio={bench.failed / bench.attempted!r} ratio "
              f"({bench.failed} of {bench.attempted} attempted)")
        for problem in bench.problems:
            print(f"failure: {problem}")
        print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                          "failed": bench.failed, "metrics": metrics}))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
