"""GPU/CPU execution models: the paper's Table I/II shapes."""

import pytest

from repro.core.storage import Storage
from repro.machine import CpuModel, GpuModel
from repro.machine.gpu import _private_liveness_peak
from repro.machine.traffic import cold_mesh_dram_bytes, forwarded


# ``study``, ``gpu_table`` and ``cpu_table`` are the session's (conftest).


# -- GPU registers / occupancy (Table II rows) ----------------------------------


def test_registers_match_paper(gpu_table):
    """Fitted register model reproduces Table II: 255/255/184/148/128."""
    assert gpu_table["B"].registers == 255
    assert gpu_table["P"].registers == 255
    assert gpu_table["RS"].registers == 184
    assert gpu_table["RSP"].registers == 148
    assert gpu_table["RSPR"].registers == 128


def test_occupancy_step_rsp_to_rspr(gpu_table):
    """The paper's +33% occupancy from the second restructuring."""
    w_rsp = gpu_table["RSP"].warps_per_sm
    w_rspr = gpu_table["RSPR"].warps_per_sm
    assert w_rspr / w_rsp == pytest.approx(4.0 / 3.0)


def test_gpu_runtime_ordering(gpu_table):
    t = {v: c.runtime_ms for v, c in gpu_table.items()}
    assert t["B"] > t["P"] > t["RS"] > t["RSP"] > t["RSPR"]


def test_gpu_headline_speedup(gpu_table):
    """The paper's headline: the final GPU version is >50x the baseline."""
    assert gpu_table["B"].runtime_ms / gpu_table["RSPR"].runtime_ms > 50.0


def test_privatization_speedup_about_2x(gpu_table):
    """Paper: P alone gives 'more than 2x' (we accept 1.3-3x)."""
    ratio = gpu_table["B"].runtime_ms / gpu_table["P"].runtime_ms
    assert 1.3 < ratio < 3.5


def test_rs_big_dram_reduction(gpu_table):
    """Paper: RS reduces DRAM volume ~20x vs B."""
    assert gpu_table["B"].dram_volume / gpu_table["RS"].dram_volume > 5.0


def test_privatization_converts_global_to_local(gpu_table):
    assert gpu_table["P"].local_loadstore > 1000
    assert gpu_table["P"].global_loadstore < 100
    assert gpu_table["B"].local_loadstore == 0


def test_rspr_more_global_loads_than_rsp(gpu_table):
    """Paper Table II: RSPR global 71 > RSP 50."""
    assert gpu_table["RSPR"].global_loadstore > gpu_table["RSP"].global_loadstore


def test_baseline_thrashes_caches(gpu_table):
    """B: both caches well below 70% effectiveness at GPU concurrency."""
    assert gpu_table["B"].l1_effectiveness < 0.7
    assert gpu_table["B"].l2_effectiveness < 0.7


def test_gpu_gflops_increase_monotonically(gpu_table):
    g = [gpu_table[v].gflops for v in ("B", "P", "RS", "RSP", "RSPR")]
    assert g[0] < g[1] and g[2] < g[3] <= g[4] * 1.2
    assert g[-1] > 2000  # paper: ~2.5 TF/s


def test_rspr_past_roofline_knee(study, gpu_table):
    """Figure 3's punchline."""
    rl = study.roofline()
    c = gpu_table["RSPR"]
    assert c.dram_intensity > rl.knee
    assert gpu_table["B"].dram_intensity < rl.knee


def test_roofline_points_climb_the_chain(study, gpu_table):
    """Figure 3: privatization lifts DRAM intensity by an order of
    magnitude, RSPR keeps it, and performance climbs B -> RS -> RSP -> RSPR."""
    points = study.roofline_points(list(gpu_table.values()))["dram"]
    by = {p.label: p for p in points}
    assert by["RSP"].intensity > 5 * by["B"].intensity
    assert by["RSPR"].intensity >= by["RSP"].intensity
    perf = [by[v].performance for v in ("B", "RS", "RSP", "RSPR")]
    assert perf == sorted(perf)


def test_baseline_cannot_saturate_dram(gpu_table):
    """Paper: B reaches only ~608 of 1381 GB/s."""
    assert gpu_table["B"].gbs < 0.6 * 1381.0


# -- GPU vs CPU (Section IV) -----------------------------------------------------


def test_baseline_gpu_slower_than_cpu_node(gpu_table, cpu_table):
    """Paper: baseline runs 4-5x slower on the A100 than on 71 cores."""
    ratio = gpu_table["B"].runtime_ms / cpu_table["B"].runtime_multicore_ms
    assert 2.5 < ratio < 8.0


def test_final_gpu_beats_cpu_node(gpu_table, cpu_table):
    assert gpu_table["RSPR"].runtime_ms < cpu_table["RSP"].runtime_multicore_ms


# -- CPU table ---------------------------------------------------------------------


def test_cpu_runtime_ordering(cpu_table):
    assert (
        cpu_table["B"].runtime_1c_ms
        > cpu_table["RS"].runtime_1c_ms
        > cpu_table["RSP"].runtime_1c_ms
    )


def test_cpu_headline_speedup(cpu_table):
    """Paper: >5x CPU improvement B -> RSP."""
    assert cpu_table["B"].runtime_1c_ms / cpu_table["RSP"].runtime_1c_ms > 5.0


def test_cpu_l1_effectiveness_high(cpu_table):
    """CPU caches stay effective (74-94% in the paper) -- unlike the GPU."""
    for v in ("B", "RS", "RSP"):
        assert cpu_table[v].l1_effectiveness > 0.7


def test_cpu_compute_bound_intensity(cpu_table):
    """Paper: B's DRAM intensity 24 F/B > machine 15 F/B (compute bound)."""
    assert cpu_table["B"].dram_intensity > 15.0


def test_rsp_reduces_cpu_loadstore(cpu_table):
    assert cpu_table["RSP"].loadstore < cpu_table["RS"].loadstore


# -- scaling (Figure 2) --------------------------------------------------------------


def test_scaling_linear_then_turbo_kinks(study):
    rows = study.cpu_scaling(variants=["RSP"], worker_counts=[1, 2, 4, 8, 16])[
        "RSP"
    ]
    m = [r["melem_per_s"] for r in rows]
    w = [r["workers"] for r in rows]
    # linear within the first turbo bin
    for i in range(1, len(m)):
        assert m[i] / m[0] == pytest.approx(w[i] / w[0], rel=1e-6)


def test_scaling_kink_at_18_workers(study):
    rows = study.cpu_scaling(
        variants=["RSP"], worker_counts=[17, 18, 34, 36]
    )["RSP"]
    by_w = {r["workers"]: r["melem_per_s"] for r in rows}
    # 17 -> 34 doubles workers; per-socket count 17 stays in the 3.4 bin
    # (workers split over 2 sockets), so scaling is perfect...
    assert by_w[34] == pytest.approx(2 * by_w[17], rel=1e-6)
    # ...while 36 workers = 18/socket drops to the 3.1 GHz bin
    assert by_w[36] < 2 * by_w[18] * (3.4 / 3.1) + 1e-9
    assert by_w[36] / by_w[34] < 36 / 34  # sub-linear across the kink


def test_scaling_variant_order_at_every_worker_count(study):
    """Figure 2: B < RS < RSP in Melem/s at all twelve plotted worker
    counts, and 71 workers stay below 71x one worker (the turbo kinks)."""
    workers = [1, 2, 4, 8, 16, 17, 18, 24, 32, 48, 60, 71]
    curves = study.cpu_scaling(worker_counts=workers)
    for i in range(len(workers)):
        b, rs, rsp = (curves[v][i]["melem_per_s"] for v in ("B", "RS", "RSP"))
        assert b < rs < rsp, workers[i]
    rsp = curves["RSP"]
    assert rsp[-1]["melem_per_s"] < 71 * rsp[0]["melem_per_s"]


def test_multicore_runtime_validates(study):
    model = CpuModel()
    with pytest.raises(ValueError, match="worker"):
        model.multicore_runtime(100.0, 100.0, 0)


# -- internals ------------------------------------------------------------------------


def test_liveness_peak_measures_overlap(study):
    rep = study.trace("RSP")
    cands = [
        n for n, s in rep.temps.items()
        if s.storage is Storage.PRIVATE and s.static
    ]
    peak = _private_liveness_peak(rep, cands)
    total = sum(rep.temps[n].size for n in cands)
    assert 0 < peak <= total


def test_rspr_liveness_below_rsp(study):
    rsp = study.trace("RSP")
    rspr = study.trace("RSPR")

    def peak(rep):
        cands = [
            n for n, s in rep.temps.items()
            if s.storage is Storage.PRIVATE and s.static
        ]
        return _private_liveness_peak(rep, cands)

    assert peak(rspr) < peak(rsp)


def test_forwarding_window_shrinks_private_pattern(study):
    rep = study.trace("P")
    filtered = forwarded(rep, GpuModel().map_storage(rep).region_of)
    assert len(filtered) < len(rep.pattern)


def test_wider_forwarding_window_never_keeps_more_accesses(study):
    """Ablation: P's surviving private accesses fall as the window widens."""
    rep = study.trace("P")
    region_of = GpuModel().map_storage(rep).region_of
    survivors = [
        len(forwarded(rep, region_of, window=window)) for window in (0, 2, 8, 32)
    ]
    assert survivors == sorted(survivors, reverse=True)
    assert survivors[-1] < survivors[0]


def test_cpu_forwarding_window_never_keeps_more_accesses(study):
    """The same ablation on the CPU's placement: RSP's 24 register slots
    leave arrays on the stack, whose accesses fall as the window widens;
    window 0 keeps every access that is not a register's."""
    rep = study.trace("RSP")
    region_of = CpuModel().map_storage(rep)
    assert "local" in region_of.values()
    survivors = [
        len(forwarded(rep, region_of, window=window)) for window in (0, 2, 8, 32)
    ]
    assert survivors == sorted(survivors, reverse=True)
    assert survivors[-1] < survivors[0]
    in_memory = [ev for ev in rep.pattern if region_of.get(ev.array) != "register"]
    assert survivors[0] == len(in_memory)


def test_global_temps_never_forwarded(study):
    rep = study.trace("B")
    filtered = forwarded(rep, GpuModel().map_storage(rep).region_of)
    assert len(filtered) == len(rep.pattern)  # B has no private arrays


def test_cold_mesh_correction_positive():
    assert cold_mesh_dram_bytes() > 32.0
    assert cold_mesh_dram_bytes(locality_factor=1.0) < cold_mesh_dram_bytes(
        locality_factor=5.0
    )
