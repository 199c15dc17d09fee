import pytest

from traceprof.errors import MissingEnergy
from traceprof.metrics import MetricReport, StepMetrics
from traceprof.model import MemoryBreakdown
from traceprof.sweep import (
    SweepPoint,
    build_sweep_result,
    energy_scaling,
    feasibility,
    gpu_util_sensitivity,
    per_step_energy,
    throughput_speedup,
)

GB = 1_000_000_000


def mk_report(batch, *, tput=None, gpu=0.5, cpu=0.2, step_sys_j=1.0, peak=4 * GB,
              breakdown=None, n_steps=3, warmup=0):
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
            energy_by_rail_joules={"cpu": 0.1, "gpu": 0.5, "mem": 0.2, "sys": step_sys_j},
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


# --- throughput speedup -----------------------------------------------------

def test_speedup_deep_rl_case():
    points = [pt(4, tput=889.0), pt(64, tput=13_618.0)]
    assert throughput_speedup(points) == pytest.approx(15.3, abs=0.05)


def test_speedup_resnet50_case():
    points = [pt(4, tput=9.0), pt(64, tput=55.0)]
    assert throughput_speedup(points) == pytest.approx(6.1, abs=0.05)


def test_speedup_equal_throughputs():
    points = [pt(4, tput=100.0), pt(64, tput=100.0)]
    assert throughput_speedup(points) == 1.0


def test_speedup_uses_batch_endpoints_not_list_order():
    points = [pt(64, tput=55.0), pt(4, tput=9.0)]
    assert throughput_speedup(points) == pytest.approx(55.0 / 9.0, rel=1e-12)


# --- energy scaling -----------------------------------------------------------

def test_energy_scaling_sub_proportional_paper_minimum():
    points = [pt(4, step_sys_j=1.0), pt(64, step_sys_j=2.2)]
    ratio, cls = energy_scaling(points)
    assert ratio == pytest.approx(2.2, rel=1e-12)
    assert cls == "sub_proportional"


def test_energy_scaling_proportional_boundary():
    points = [pt(4, step_sys_j=1.0), pt(64, step_sys_j=16.0)]
    ratio, cls = energy_scaling(points)
    assert ratio == pytest.approx(16.0, rel=1e-12)
    assert cls == "proportional"


def test_energy_scaling_super_proportional():
    points = [pt(4, step_sys_j=1.0), pt(64, step_sys_j=20.0)]
    _, cls = energy_scaling(points)
    assert cls == "super_proportional"


def test_energy_scaling_band_edges():
    low = [pt(4, step_sys_j=1.0), pt(8, step_sys_j=1.9)]     # ratio 1.9 < 2 * 0.95
    inside = [pt(4, step_sys_j=1.0), pt(8, step_sys_j=1.95)]  # exactly at the band edge
    assert energy_scaling(low)[1] == "sub_proportional"
    assert energy_scaling(inside)[1] == "proportional"


def test_per_step_energy_is_non_warmup_mean():
    report = mk_report(4, step_sys_j=2.0, n_steps=4, warmup=2)
    assert per_step_energy(report, "sys") == 2.0
    all_warmup = mk_report(4, n_steps=2, warmup=2)
    with pytest.raises(MissingEnergy):
        per_step_energy(all_warmup, "sys")


def test_energy_scaling_hand_computed_fixture():
    # Step energy 0.5 J at batch 2 and 3.5 J at batch 16: ratio 7, batch ratio 8.
    points = [pt(2, step_sys_j=0.5), pt(16, step_sys_j=3.5)]
    ratio, cls = energy_scaling(points)
    assert ratio == pytest.approx(7.0, rel=1e-12)
    assert cls == "sub_proportional"


# --- utilization sensitivity ---------------------------------------------------

def test_gpu_sensitivity_densenet_like():
    points = [pt(4, gpu=0.816), pt(64, gpu=0.964)]
    delta_gpu, _ = gpu_util_sensitivity(points)
    assert delta_gpu == pytest.approx(0.148, abs=1e-12)


def test_gpu_sensitivity_squeezenet_like():
    points = [pt(4, gpu=0.714), pt(64, gpu=0.845)]
    delta_gpu, _ = gpu_util_sensitivity(points)
    assert delta_gpu == pytest.approx(0.131, abs=1e-12)


def test_sensitivity_identical_reports():
    points = [pt(4), pt(64)]
    assert gpu_util_sensitivity(points) == (0.0, 0.0)


# --- feasibility -----------------------------------------------------------------

def test_feasibility_densenet_growth_under_capacity():
    points = [
        pt(4, tput=14.0, peak=int(3.5 * GB),
           breakdown=MemoryBreakdown(300_000_000, 300_000_000, 100_000_000, 2_200_000_000)),
        pt(64, tput=24.0, peak=int(7.2 * GB),
           breakdown=MemoryBreakdown(300_000_000, 300_000_000, 200_000_000, 5_900_000_000)),
    ]
    verdicts = feasibility(points, capacity_bytes=8 * GB)
    assert [v.verdict for v in verdicts] == ["fits", "fits"]
    result = build_sweep_result("densenet40", points, 8 * GB)
    assert result.mem_intermediate_growth == (2_200_000_000, 5_900_000_000)


def test_feasibility_vgg19_class_oom():
    points = [pt(4, peak=10 * GB), pt(64, peak=12 * GB)]
    verdicts = feasibility(points, capacity_bytes=8 * GB)
    assert all(v.verdict == "out_of_memory" for v in verdicts)


def test_feasibility_peak_equal_to_capacity_is_oom():
    points = [pt(4, peak=8 * GB), pt(64, peak=8 * GB)]
    verdicts = feasibility(points, capacity_bytes=8 * GB)
    assert all(v.verdict == "out_of_memory" for v in verdicts)


def test_feasibility_monotone_when_peak_nondecreasing():
    points = [pt(b, peak=b * GB // 2) for b in (2, 4, 8, 16, 32)]
    verdicts = feasibility(points, capacity_bytes=8 * GB)
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
