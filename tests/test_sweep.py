from dataclasses import replace
from math import fsum

import pytest
from hypothesis import given, strategies as st

from traceprof.errors import DuplicateBatchSize, MissingEnergy
from traceprof.metrics import MetricReport, StepMetrics
from traceprof.model import MemoryBreakdown
from traceprof.sweep import SweepPoint, build_sweep_result

GB = 1_000_000_000


def mk_report(batch, *, tput=1.0, gpu=0.5, cpu=0.2, step_sys_j=1.0, warmup_sys_j=None,
              peak=4 * GB, breakdown=None, n_steps=3, warmup=0):
    warmup_sys_j = step_sys_j if warmup_sys_j is None else warmup_sys_j
    per_step = tuple(
        StepMetrics(
            step_id=i,
            is_warmup=i < warmup,
            start_us=i * 100_000,
            end_us=(i + 1) * 100_000,
            per_core_util=(cpu,),
            cpu_avg_util=cpu,
            gpu_util=gpu,
            idle_ratio_per_core=(0.0,),
            energy_by_rail_joules={"cpu": 0.1, "gpu": 0.5, "mem": 0.2,
                                   "sys": warmup_sys_j if i < warmup else step_sys_j},
            throughput_samples_per_sec=batch * 10.0,
        )
        for i in range(n_steps)
    )
    return MetricReport(
        run_id=f"b{batch}",
        batch_size=batch,
        core_count=1,
        sample_interval_us=10_000,
        warmup_steps=warmup,
        per_core_util=(cpu,),
        cpu_avg_util=cpu,
        gpu_util=gpu,
        idle_ratio_per_core=(0.0,),
        energy_by_rail_joules={"cpu": 0.3, "gpu": 1.5, "mem": 0.6, "sys": 3.0},
        peak_mem_bytes=peak,
        throughput_samples_per_sec=tput,
        steps=(),
        per_step=per_step,
        per_op={},
        power_rail_ranking=(),
        period=None,
        predictability=None,
        memory_breakdown=breakdown,
        concurrent_ops_double_counting=False,
        idle_threshold=0.0,
        notes=(),
    )


def pt(batch, **kw):
    return SweepPoint(batch, mk_report(batch, **kw))


def sweep(points, capacity_bytes=8 * GB):
    return build_sweep_result("m", points, capacity_bytes)


def energy(points):
    """The energy ratio and its class."""
    result = sweep(points)
    return result.energy_scaling, result.energy_scaling_class


# --- throughput speedup -----------------------------------------------------

def test_speedup_deep_rl_case():
    points = [pt(4, tput=889.0), pt(64, tput=13_618.0)]
    assert sweep(points).throughput_speedup == pytest.approx(15.3, abs=0.05)


def test_speedup_resnet50_case():
    points = [pt(4, tput=9.0), pt(64, tput=55.0)]
    assert sweep(points).throughput_speedup == pytest.approx(6.1, abs=0.05)


def test_speedup_equal_throughputs():
    points = [pt(4, tput=100.0), pt(64, tput=100.0)]
    assert sweep(points).throughput_speedup == 1.0


def test_speedup_uses_batch_endpoints_not_list_order():
    points = [pt(64, tput=55.0), pt(4, tput=9.0)]
    assert sweep(points).throughput_speedup == pytest.approx(55.0 / 9.0, rel=1e-12)


# --- energy scaling -----------------------------------------------------------

def test_energy_scaling_sub_proportional_paper_minimum():
    points = [pt(4, step_sys_j=1.0), pt(64, step_sys_j=2.2)]
    ratio, cls = energy(points)
    assert ratio == pytest.approx(2.2, rel=1e-12)
    assert cls == "sub_proportional"


def test_energy_scaling_proportional_boundary():
    points = [pt(4, step_sys_j=1.0), pt(64, step_sys_j=16.0)]
    ratio, cls = energy(points)
    assert ratio == pytest.approx(16.0, rel=1e-12)
    assert cls == "proportional"


def test_energy_scaling_super_proportional():
    points = [pt(4, step_sys_j=1.0), pt(64, step_sys_j=20.0)]
    _, cls = energy(points)
    assert cls == "super_proportional"


def test_energy_scaling_band_edges():
    low = [pt(4, step_sys_j=1.0), pt(8, step_sys_j=1.9)]     # ratio 1.9 < 2 * 0.95
    inside = [pt(4, step_sys_j=1.0), pt(8, step_sys_j=1.95)]  # exactly at the band edge
    assert energy(low)[1] == "sub_proportional"
    assert energy(inside)[1] == "proportional"
    # Batch ratio 20: the band is exactly [19, 21] in floating point, edges included.
    for step_j, cls in [(18.999, "sub_proportional"), (19.0, "proportional"),
                        (21.0, "proportional"), (21.001, "super_proportional")]:
        assert energy([pt(1, step_sys_j=1.0), pt(20, step_sys_j=step_j)]) == (step_j, cls)


def test_per_step_energy_is_non_warmup_mean():
    # Warmup steps at 9 J are left out of both means: the ratio is 4 / 2.
    lo = pt(4, step_sys_j=2.0, warmup_sys_j=9.0, n_steps=4, warmup=2)
    assert energy([lo, pt(8, step_sys_j=4.0)]) == (2.0, "proportional")
    hi = pt(8, step_sys_j=4.0, warmup_sys_j=9.0, warmup=1)
    assert energy([pt(4, step_sys_j=2.0), hi]) == (2.0, "proportional")
    for all_warmup in ([pt(4, n_steps=2, warmup=2), pt(8)], [pt(4), pt(8, n_steps=2, warmup=2)]):
        with pytest.raises(MissingEnergy, match="has no non-warmup per-step energy"):
            sweep(all_warmup)


def test_energy_scaling_hand_computed_fixture():
    # Step energy 0.5 J at batch 2 and 3.5 J at batch 16: ratio 7, batch ratio 8.
    points = [pt(2, step_sys_j=0.5), pt(16, step_sys_j=3.5)]
    ratio, cls = energy(points)
    assert ratio == pytest.approx(7.0, rel=1e-12)
    assert cls == "sub_proportional"


# --- utilization sensitivity ---------------------------------------------------

def test_gpu_sensitivity_densenet_like():
    points = [pt(4, gpu=0.816), pt(64, gpu=0.964)]
    delta_gpu = sweep(points).gpu_util_delta
    assert delta_gpu == pytest.approx(0.148, abs=1e-12)


def test_gpu_sensitivity_squeezenet_like():
    points = [pt(4, gpu=0.714), pt(64, gpu=0.845)]
    delta_gpu = sweep(points).gpu_util_delta
    assert delta_gpu == pytest.approx(0.131, abs=1e-12)


def test_sensitivity_identical_reports():
    points = [pt(4), pt(64)]
    result = sweep(points)
    assert (result.gpu_util_delta, result.cpu_util_delta) == (0.0, 0.0)


# --- feasibility -----------------------------------------------------------------

def test_feasibility_densenet_growth_under_capacity():
    points = [
        pt(4, tput=14.0, peak=int(3.5 * GB),
           breakdown=MemoryBreakdown(300_000_000, 300_000_000, 100_000_000, 2_200_000_000)),
        pt(64, tput=24.0, peak=int(7.2 * GB),
           breakdown=MemoryBreakdown(300_000_000, 300_000_000, 200_000_000, 5_900_000_000)),
    ]
    verdicts = sweep(points).feasibility
    assert [v.verdict for v in verdicts] == ["fits", "fits"]
    result = build_sweep_result("densenet40", points, 8 * GB)
    assert result.mem_intermediate_growth == (2_200_000_000, 5_900_000_000)


def test_feasibility_vgg19_class_oom():
    points = [pt(4, peak=10 * GB), pt(64, peak=12 * GB)]
    verdicts = sweep(points).feasibility
    assert all(v.verdict == "out_of_memory" for v in verdicts)


def test_feasibility_peak_equal_to_capacity_is_oom():
    points = [pt(4, peak=8 * GB), pt(64, peak=8 * GB)]
    verdicts = sweep(points).feasibility
    assert all(v.verdict == "out_of_memory" for v in verdicts)


def test_feasibility_monotone_when_peak_nondecreasing():
    points = [pt(b, peak=b * GB // 2) for b in (2, 4, 8, 16, 32)]
    verdicts = sweep(points).feasibility
    fits_flags = [v.verdict == "fits" for v in verdicts]
    # Once a batch stops fitting, no larger batch fits.
    assert fits_flags == sorted(fits_flags, reverse=True)


# --- aggregate result ---------------------------------------------------------------

def test_intermediate_point_never_changes_endpoint_ratios():
    ends = [pt(4, tput=9.0, step_sys_j=1.0), pt(64, tput=55.0, step_sys_j=2.2)]
    with_mid = ends + [pt(16, tput=30.0, step_sys_j=1.6)]
    r1 = build_sweep_result("m", ends, 8 * GB)
    r2 = build_sweep_result("m", with_mid, 8 * GB)
    assert r1.throughput_speedup == r2.throughput_speedup
    assert r1.energy_scaling == r2.energy_scaling
    assert r1.gpu_util_delta == r2.gpu_util_delta


def test_ratios_invariant_under_time_unit_change():
    # Halving all rates (as if time was rescaled) leaves the ratios alone.
    base = [pt(4, tput=9.0, step_sys_j=1.0), pt(64, tput=55.0, step_sys_j=2.2)]
    scaled = [pt(4, tput=4.5, step_sys_j=2.0), pt(64, tput=27.5, step_sys_j=4.4)]
    r1 = build_sweep_result("m", base, 8 * GB)
    r2 = build_sweep_result("m", scaled, 8 * GB)
    assert r1.throughput_speedup == pytest.approx(r2.throughput_speedup, rel=1e-12)
    assert r1.energy_scaling == pytest.approx(r2.energy_scaling, rel=1e-12)


def test_sweep_requires_two_points():
    with pytest.raises(ValueError):
        build_sweep_result("m", [pt(4, tput=9.0)], 8 * GB)


def test_points_sorted_by_batch_size():
    result = build_sweep_result(
        "m", [pt(64, tput=55.0), pt(4, tput=9.0), pt(16, tput=30.0)], 8 * GB
    )
    assert [p.batch_size for p in result.points] == [4, 16, 64]
    assert result.batch_ratio == 16.0


def test_energy_errors_check_the_lowest_batch_first():
    starved = {"n_steps": 2, "warmup": 2}  # no non-warmup step energy
    cases = [
        ([pt(4, **starved), pt(8, **starved)], "run b4 has no non-warmup"),
        ([pt(4, step_sys_j=0.0), pt(8, **starved)], "run b4 has zero mean per-step sys energy"),
        ([pt(4), pt(8, **starved)], "run b8 has no non-warmup"),
    ]
    for points, message in cases:
        with pytest.raises(MissingEnergy, match=f"^{message}"):
            sweep(points)


# --- every field against its closed form ---------------------------------------------

CAPACITY = 8 * GB
_unit = st.floats(0.0, 1.0)
_point = st.fixed_dictionaries({
    "tput": st.floats(1e-3, 1e6),
    "gpu": _unit,
    "cpu": _unit,
    "warmup": st.integers(0, 2),
    "warmup_j": st.floats(0.0, 1e3),
    "energies": st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
    "peak": st.integers(-1, 1).map(lambda d: CAPACITY + d) | st.integers(0, 2 * CAPACITY),
    "breakdown": st.builds(MemoryBreakdown, intermediate_bytes=st.integers(0, CAPACITY))
                 | st.just(MemoryBreakdown()) | st.none(),
})


def _sweep_point(batch, d):
    steps = d["warmup"] + len(d["energies"])
    report = mk_report(batch, tput=d["tput"], gpu=d["gpu"], cpu=d["cpu"], peak=d["peak"],
                       breakdown=d["breakdown"], n_steps=steps, warmup=d["warmup"])
    energies = [d["warmup_j"]] * d["warmup"] + d["energies"]
    per_step = tuple(replace(m, energy_by_rail_joules={**m.energy_by_rail_joules, "sys": j})
                     for m, j in zip(report.per_step, energies))
    return SweepPoint(batch, replace(report, per_step=per_step))


@st.composite
def sweep_points(draw):
    """2 to 5 points with distinct batches, shuffled. The highest batch's step energy is
    drawn near the band edges of the lowest's times the batch ratio."""
    batches = sorted(draw(st.lists(st.integers(1, 1024), min_size=2, max_size=5, unique=True)))
    fields = [draw(_point) for _ in batches]
    lo_energies = fields[0]["energies"]
    edge = draw(st.sampled_from([0.9, 0.95, 1.0, 1.05, 1.1]) | st.floats(0.01, 100.0))
    target = fsum(lo_energies) / len(lo_energies) * batches[-1] / batches[0] * edge
    energies = draw(st.sampled_from([[target], fields[-1]["energies"]]))
    fields[-1] = {**fields[-1], "energies": energies}
    return draw(st.permutations([_sweep_point(b, d) for b, d in zip(batches, fields)]))


def _mean_sys_energy(report):
    energies = [m.energy_by_rail_joules["sys"] for m in report.per_step if not m.is_warmup]
    return fsum(energies) / len(energies)


@given(sweep_points())
def test_every_field_is_its_closed_form_from_the_endpoints(points):
    ordered = sorted(points, key=lambda p: p.batch_size)
    lo, hi = ordered[0], ordered[-1]
    batch_ratio = hi.batch_size / lo.batch_size
    energy_ratio = _mean_sys_energy(hi.report) / _mean_sys_energy(lo.report)
    if abs(energy_ratio - batch_ratio) <= 0.05 * batch_ratio:
        energy_class = "proportional"
    else:
        energy_class = "sub_proportional" if energy_ratio < batch_ratio else "super_proportional"
    breakdowns = (lo.report.memory_breakdown, hi.report.memory_breakdown)
    growth = None
    if None not in breakdowns and None not in [b.intermediate_bytes for b in breakdowns]:
        growth = tuple(b.intermediate_bytes for b in breakdowns)

    result = sweep(points, CAPACITY)
    assert result.model == "m"
    assert result.points == tuple(ordered)
    assert result.batch_ratio == batch_ratio
    assert result.throughput_speedup == (hi.report.throughput_samples_per_sec
                                         / lo.report.throughput_samples_per_sec)
    assert result.energy_scaling == energy_ratio
    assert result.energy_scaling_class == energy_class
    assert result.gpu_util_delta == hi.report.gpu_util - lo.report.gpu_util
    assert result.cpu_util_delta == hi.report.cpu_avg_util - lo.report.cpu_avg_util
    assert result.mem_intermediate_growth == growth
    assert [(v.batch_size, v.verdict, v.peak_mem_bytes, v.capacity_bytes, v.memory_breakdown)
            for v in result.feasibility] == [
        (p.batch_size, "fits" if p.report.peak_mem_bytes < CAPACITY else "out_of_memory",
         p.report.peak_mem_bytes, CAPACITY, p.report.memory_breakdown) for p in ordered]


@given(sweep_points(), st.data())
def test_duplicate_batch_is_reported_before_missing_energy(points, data):
    # Every run lacks step energy, so any check of energy would fail first.
    starved = [SweepPoint(p.batch_size, replace(p.report, per_step=())) for p in points]
    twin = data.draw(st.sampled_from(starved))
    shuffled = data.draw(st.permutations(starved + [twin]))
    with pytest.raises(DuplicateBatchSize, match=f"^duplicate batch size {twin.batch_size} "):
        sweep(shuffled)
