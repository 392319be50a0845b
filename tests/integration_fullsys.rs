//! Integration: the full runtime — benchmarks × topologies through the
//! coupled multicore + NoP + control-unit simulation.

use flumen::{run_benchmark, ControlUnitParams, RuntimeConfig, SystemTopology};
use flumen_workloads::{small_benchmarks, Rotation3d};

fn quick_cfg() -> RuntimeConfig {
    RuntimeConfig {
        max_cycles: 20_000_000,
        ..RuntimeConfig::paper()
    }
}

#[test]
fn every_small_benchmark_finishes_on_every_topology() {
    let cfg = quick_cfg();
    for bench in small_benchmarks() {
        for topo in SystemTopology::all() {
            let r = run_benchmark(bench.as_ref(), topo, &cfg);
            assert!(r.cycles > 0, "{} on {}", bench.name(), topo.name());
            assert!(r.total_energy_j() > 0.0);
            assert!(r.energy.core_j > 0.0);
            // Work conservation: MACs ended up somewhere.
            let did_work = r.counts.core_ops > 0 || r.counts.mzim_mvms > 0;
            assert!(did_work, "{} on {}", bench.name(), topo.name());
        }
    }
}

#[test]
fn flumen_a_offloads_and_wins_on_rotation() {
    let cfg = quick_cfg();
    let bench = Rotation3d::paper();
    let mesh = run_benchmark(&bench, SystemTopology::Mesh, &cfg);
    let fa = run_benchmark(&bench, SystemTopology::FlumenA, &cfg);
    assert!(fa.counts.offload_requests > 0);
    assert!(fa.counts.mzim_mvms > 0);
    assert!(
        fa.cycles * 2 < mesh.cycles,
        "rotation should speed up ≥2x: mesh {} vs fa {}",
        mesh.cycles,
        fa.cycles
    );
    assert!(fa.total_energy_j() < mesh.total_energy_j());
    assert!(fa.edp() < mesh.edp());
}

#[test]
fn flumen_a_does_less_core_work_than_local_modes() {
    let cfg = quick_cfg();
    let bench = Rotation3d::paper();
    let local = run_benchmark(&bench, SystemTopology::FlumenI, &cfg);
    let fa = run_benchmark(&bench, SystemTopology::FlumenA, &cfg);
    assert!(
        fa.counts.core_ops < local.counts.core_ops / 2,
        "offload must remove the MAC work from the cores: {} vs {}",
        fa.counts.core_ops,
        local.counts.core_ops
    );
}

#[test]
fn electrical_and_photonic_runs_move_the_same_data() {
    // DRAM traffic is a property of the working set, not the topology.
    let cfg = quick_cfg();
    let bench = Rotation3d::paper();
    let mesh = run_benchmark(&bench, SystemTopology::Mesh, &cfg);
    let optbus = run_benchmark(&bench, SystemTopology::OptBus, &cfg);
    let ratio = mesh.counts.dram_accesses as f64 / optbus.counts.dram_accesses.max(1) as f64;
    assert!((0.8..1.25).contains(&ratio), "dram ratio {ratio}");
}

#[test]
fn disabling_pipelining_slows_block_heavy_offload() {
    // E14: with no phase-DAC double buffering, per-block switching
    // dominates and Flumen-A loses its advantage on multi-block kernels.
    let bench = flumen_workloads::ImageBlur::small();
    let fast_cfg = quick_cfg();
    let slow_cfg = RuntimeConfig {
        control: ControlUnitParams {
            config_pipeline: 0.0,
            ..ControlUnitParams::paper()
        },
        ..quick_cfg()
    };
    let fast = run_benchmark(&bench, SystemTopology::FlumenA, &fast_cfg);
    let slow = run_benchmark(&bench, SystemTopology::FlumenA, &slow_cfg);
    assert!(
        slow.cycles > fast.cycles,
        "unpipelined switching must cost cycles: {} vs {}",
        slow.cycles,
        fast.cycles
    );
}

#[test]
fn utilization_trace_reports_low_link_usage() {
    // Fig. 1's premise: linear-algebra codes leave photonic links mostly
    // idle.
    let cfg = quick_cfg();
    let plan = flumen_workloads::ImageBlur::plan(16, 16);
    let r = flumen::run_utilization_trace(&plan, 64, 200, &cfg);
    assert!(!r.utilization_trace.is_empty());
    let avg: f64 = r.utilization_trace.iter().sum::<f64>() / r.utilization_trace.len() as f64;
    assert!(avg < 0.5, "linear algebra should not saturate links: {avg}");
}
