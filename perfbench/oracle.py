"""Checks traceprof JSON output against the generator's closed forms.

Exact checks compare with ``==`` (and the same JSON type): step windows and
warmup flags, throughput, peak memory, idle ratios, per-op aggregates, the
period, the memory breakdown and, for sweeps, the batch ratio, the
throughput speedup and the feasibility verdicts. Utilizations, energies and
mean powers are checked within the noise-derived tolerances from
``expected.json``.
"""

from __future__ import annotations

import json
import math

MAX_MESSAGES = 8
MAX_MESSAGE_CHARS = 300
PROPORTIONALITY_BAND = 0.05  # traceprof's documented sweep classification band


def strict_loads(data: bytes):
    """Parse JSON, rejecting NaN and +/-Infinity."""

    def reject(constant: str):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(data.decode("utf-8"), parse_constant=reject)


class Checker:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        if len(self.failures) < MAX_MESSAGES:
            self.failures.append(message[:MAX_MESSAGE_CHARS])
        elif len(self.failures) == MAX_MESSAGES:
            self.failures.append("(further failures not shown)")

    def exact(self, where: str, got, want) -> None:
        if got != want or type(got) is not type(want):
            self.fail(f"{where}: got {got!r}, want {want!r}")

    def near(self, where: str, got, want_tol) -> None:
        want, tol = want_tol
        if isinstance(got, bool) or not isinstance(got, (int, float)) or abs(got - want) > tol:
            self.fail(f"{where}: got {got!r}, want {want!r} +/- {tol!r}")


def _check_levels(c: Checker, where: str, doc: dict, exp: dict) -> None:
    """Utilization, idle-ratio and energy fields shared by runs and steps."""
    cores = doc.get("per_core_util")
    if not isinstance(cores, list) or len(cores) != len(exp["per_core_util"]):
        c.fail(f"{where}.per_core_util: got {cores!r}")
    else:
        for i, (got, want) in enumerate(zip(cores, exp["per_core_util"])):
            c.near(f"{where}.per_core_util[{i}]", got, want)
    c.near(f"{where}.cpu_avg_util", doc.get("cpu_avg_util"), exp["cpu_avg_util"])
    c.near(f"{where}.gpu_util", doc.get("gpu_util"), exp["gpu_util"])
    c.exact(f"{where}.idle_ratio_per_core", doc.get("idle_ratio_per_core"),
            exp["idle_ratio_per_core"])
    energy = doc.get("energy_by_rail_joules")
    if not isinstance(energy, dict) or sorted(energy) != sorted(exp["energy_by_rail_joules"]):
        c.fail(f"{where}.energy_by_rail_joules: got {energy!r}")
    else:
        for rail, want in exp["energy_by_rail_joules"].items():
            c.near(f"{where}.energy_by_rail_joules.{rail}", energy[rail], want)


def check_report(c: Checker, doc: dict, exp: dict, where: str = "report") -> None:
    """Check one metric report against one run's expectations."""
    if not isinstance(doc, dict):
        c.fail(f"{where}: not a JSON object")
        return
    c.exact(f"{where}.kind", doc.get("kind"), "metric_report")
    c.exact(f"{where}.schema_version", doc.get("schema_version"), 1)
    for key in ("run_id", "batch_size", "core_count", "sample_interval_us", "warmup_steps",
                "peak_mem_bytes", "memory_breakdown", "per_op"):
        c.exact(f"{where}.{key}", doc.get(key), exp[key])
    c.exact(f"{where}.concurrent_ops_double_counting",
            doc.get("concurrent_ops_double_counting"), exp["concurrent_ops"])
    c.exact(f"{where}.idle_threshold", doc.get("idle_threshold"), 0.0)
    num, den = exp["throughput"]
    c.exact(f"{where}.throughput_samples_per_sec", doc.get("throughput_samples_per_sec"),
            num / den)

    t0, step_us, n, warmup = exp["t0_us"], exp["step_us"], exp["steps"], exp["warmup_steps"]
    windows = [
        {"step_id": i, "start_us": t0 + i * step_us, "end_us": t0 + (i + 1) * step_us,
         "is_warmup": i < warmup}
        for i in range(n)
    ]
    got_steps = doc.get("steps")
    if got_steps != windows:
        first = next((i for i, (g, w) in enumerate(zip(got_steps or [], windows)) if g != w),
                     min(len(got_steps or []), n))
        c.fail(f"{where}.steps: {len(got_steps or [])} windows, want {n}; first difference "
               f"at index {first}")

    _check_levels(c, where, doc, exp["window"])
    ranking = doc.get("power_rail_ranking") or []
    c.exact(f"{where}.power_rail_ranking order", [r.get("rail") for r in ranking],
            exp["rail_order"])
    for r in ranking:
        if r.get("rail") in exp["rail_mean_mw"]:
            c.near(f"{where}.power_rail_ranking.{r['rail']}.mean_mw", r.get("mean_mw"),
                   exp["rail_mean_mw"][r["rail"]])

    c.exact(f"{where}.period", doc.get("period"),
            {"period_us": step_us, "confidence": 1.0, "method": "explicit"})
    pred = doc.get("predictability") or {}
    kept = n - warmup
    c.exact(f"{where}.predictability.per_step_pairs", pred.get("per_step_pairs"),
            kept * (kept - 1) // 2)
    c.exact(f"{where}.predictability.signal", pred.get("signal"), "gpu_util")
    r = pred.get("mean_pairwise_correlation")
    if not isinstance(r, float) or not -1.0 <= r <= 1.0:
        c.fail(f"{where}.predictability.mean_pairwise_correlation: got {r!r}")

    per_step = doc.get("per_step")
    if not isinstance(per_step, list) or len(per_step) != n:
        c.fail(f"{where}.per_step: got {len(per_step or [])} entries, want {n}")
        return
    num, den = exp["step_throughput"]
    for i, (m, w) in enumerate(zip(per_step, windows)):
        at = f"{where}.per_step[{i}]"
        for key in ("step_id", "start_us", "end_us", "is_warmup"):
            c.exact(f"{at}.{key}", m.get(key), w[key])
        c.exact(f"{at}.throughput_samples_per_sec", m.get("throughput_samples_per_sec"),
                num / den)
        _check_levels(c, at, m, exp["step"])


def _step_energy_mean(run: dict) -> tuple[float, float]:
    """Expected mean per-step sys energy over non-warmup steps, with tolerance."""
    want, tol = run["step"]["energy_by_rail_joules"]["sys"]
    kept = run["steps"] - run["warmup_steps"]
    return want, tol / math.sqrt(kept) + 1e-9 * want


def check_sweep(c: Checker, doc: dict, exp: dict) -> None:
    """Check a sweep result against the sweep's and each point's expectations."""
    if not isinstance(doc, dict):
        c.fail("sweep: not a JSON object")
        return
    runs = exp["runs"]
    lo, hi = runs[0], runs[-1]
    c.exact("sweep.kind", doc.get("kind"), "sweep_result")
    c.exact("sweep.schema_version", doc.get("schema_version"), 1)
    c.exact("sweep.model", doc.get("model"), exp["sweep"]["model"])
    points = doc.get("points") or []
    c.exact("sweep.points batch sizes", [p.get("batch_size") for p in points],
            [r["batch_size"] for r in runs])
    for p, run in zip(points, runs):
        check_report(c, p.get("report"), run, where=f"sweep.b{run['batch_size']}")

    batch_ratio = hi["batch_size"] / lo["batch_size"]
    c.exact("sweep.batch_ratio", doc.get("batch_ratio"), batch_ratio)
    c.exact("sweep.throughput_speedup", doc.get("throughput_speedup"),
            (hi["throughput"][0] / hi["throughput"][1])
            / (lo["throughput"][0] / lo["throughput"][1]))

    (e_lo, tol_lo), (e_hi, tol_hi) = _step_energy_mean(lo), _step_energy_mean(hi)
    ratio = e_hi / e_lo
    c.near("sweep.energy_scaling", doc.get("energy_scaling"),
           (ratio, ratio * (tol_lo / e_lo + tol_hi / e_hi)))
    if abs(ratio - batch_ratio) <= PROPORTIONALITY_BAND * batch_ratio:
        cls = "proportional"
    else:
        cls = "sub_proportional" if ratio < batch_ratio else "super_proportional"
    c.exact("sweep.energy_scaling_class", doc.get("energy_scaling_class"), cls)
    for key, field in (("gpu_util_delta", "gpu_util"), ("cpu_util_delta", "cpu_avg_util")):
        (w_lo, t_lo), (w_hi, t_hi) = lo["window"][field], hi["window"][field]
        c.near(f"sweep.{key}", doc.get(key), (w_hi - w_lo, t_lo + t_hi))

    c.exact("sweep.mem_intermediate_growth", doc.get("mem_intermediate_growth"),
            [lo["memory_breakdown"]["intermediate_bytes"],
             hi["memory_breakdown"]["intermediate_bytes"]])
    capacity = exp["sweep"]["capacity_bytes"]
    c.exact("sweep.feasibility", doc.get("feasibility"), [
        {"batch_size": r["batch_size"],
         "verdict": "fits" if r["peak_mem_bytes"] < capacity else "out_of_memory",
         "peak_mem_bytes": r["peak_mem_bytes"], "capacity_bytes": capacity,
         "memory_breakdown": r["memory_breakdown"]}
        for r in runs
    ])


def check_output(stdout: bytes, exp: dict) -> list[str]:
    """All failed checks for one invocation's stdout; empty when it is correct."""
    c = Checker()
    try:
        doc = strict_loads(stdout)
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"stdout is not strict JSON: {exc}"]
    if exp["sweep"] is None:
        check_report(c, doc, exp["runs"][0])
    else:
        check_sweep(c, doc, exp)
    return c.failures
