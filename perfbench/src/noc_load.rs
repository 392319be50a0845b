//! `noc_load`: network-only synthetic traffic. `measure_point` runs on
//! ring, mesh, optical bus, the MZIM crossbar (reported as `flumen_i`)
//! and the composed 4×4 torus, under uniform-random traffic at three
//! offered loads, with the injection seed taken from the command line.
//! No engine and no control unit run, and it is the only workload that
//! steps the `noc::fabric` combinators (the torus).

use crate::digests;
use crate::probe::{DynNet, NetProbe, TimedNet};
use crate::report::{median, print_row, Layers, Outcome};
use crate::{timed_loop, RunSpec, DEFAULT_SEED};
use flumen_noc::harness::{measure_point, LatencyPoint, RunConfig};
use flumen_noc::traffic::TrafficPattern;
use flumen_noc::{NetStats, Network};
use flumen_sweep::{JobResult, NetSpec, NocStatsPoint};
use std::rc::Rc;
use std::time::Instant;

/// The networks under test, with the name each is reported under.
pub const NETWORKS: [(&str, NetSpec); 5] = [
    ("ring", NetSpec::Ring { nodes: 16 }),
    (
        "mesh",
        NetSpec::Mesh {
            width: 4,
            height: 4,
        },
    ),
    ("optbus", NetSpec::OptBus { nodes: 16 }),
    ("flumen_i", NetSpec::Flumen { nodes: 16 }),
    (
        "torus",
        NetSpec::Torus {
            width: 4,
            height: 4,
        },
    ),
];

/// Offered loads with the suffix their per-layer rows carry.
pub const LOADS: [(&str, f64); 3] = [("load05", 0.05), ("load30", 0.3), ("load80", 0.8)];

/// Warmup cycles per point.
pub const WARMUP: u64 = 2_000;

/// Measured cycles per point.
pub const MEASURE: u64 = 60_000;

fn run_config(seed: u64) -> RunConfig {
    RunConfig {
        warmup: WARMUP,
        measure: MEASURE,
        seed,
        ..RunConfig::default()
    }
}

/// `<network>/<load suffix>`, the key a point's digest is recorded under.
fn key(net: &str, load: &str) -> String {
    format!("{net}/{load}")
}

fn digest(latency: &LatencyPoint, stats: &NetStats) -> String {
    digests::of_json(&JobResult::NocStats(NocStatsPoint {
        latency: latency.clone(),
        stats: stats.clone(),
    }))
}

/// Checks that hold at every seed: the window moved traffic, the
/// latency agrees with the counters, utilization is a fraction, and no
/// network saturates at the lowest load.
pub fn invariants_hold(load: f64, p: &LatencyPoint, s: &NetStats) -> bool {
    let latency_ok = match s.avg_latency() {
        Some(l) => l.to_bits() == p.avg_latency.to_bits() && l >= 1.0,
        None => false,
    };
    s.injected > 0
        && s.delivered > 0
        && s.latency_max >= 1
        && latency_ok
        && p.throughput > 0.0
        && (0.0..=1.0).contains(&p.link_utilization)
        && p.offered_load == load
        && (load > 0.1 || !p.saturated)
}

/// One measured point's outcome: `(name, load suffix, seconds, digest)`.
type Point = (&'static str, &'static str, f64, String);

/// Checks one point: invariants at every seed, the recorded digest at
/// the default seed.
fn check(
    out: &mut Outcome,
    seed: u64,
    name: &str,
    load: (&str, f64),
    p: &LatencyPoint,
    s: &NetStats,
) {
    let d = digest(p, s);
    let recorded =
        seed != DEFAULT_SEED || digests::matches(digests::NOC_LOAD, &key(name, load.0), &d);
    let ok = invariants_hold(load.1, p, s);
    if !ok {
        println!("  invariant broken at {name}/{}", load.0);
    }
    out.check(ok && recorded);
}

/// Measures every point once on freshly built networks.
fn untraced_pass(nets: Vec<Box<dyn Network>>, seed: u64, out: &mut Outcome) -> Vec<Point> {
    let cfg = run_config(seed);
    let mut points = Vec::new();
    let mut nets = nets.into_iter();
    for (name, _) in NETWORKS {
        for load in LOADS {
            let mut net = nets.next().expect("one network per point");
            let t = Instant::now();
            let p = measure_point(net.as_mut(), TrafficPattern::UniformRandom, load.1, &cfg);
            let secs = t.elapsed().as_secs_f64();
            check(out, seed, name, load, &p, net.stats());
            points.push((name, load.0, secs, digest(&p, net.stats())));
        }
    }
    points
}

/// Builds one network per point, in measuring order.
fn build_networks() -> Vec<Box<dyn Network>> {
    NETWORKS
        .iter()
        .flat_map(|(_, spec)| LOADS.iter().map(|_| spec.build()))
        .collect()
}

/// Simulated cycles per point.
fn cycles_per_point() -> u64 {
    WARMUP + MEASURE
}

/// The untraced run: repeated passes, medians reported.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let mut passes: Vec<Vec<Point>> = Vec::new();
    let times = timed_loop(spec.seconds, build_networks, |nets| {
        let points = untraced_pass(nets, spec.seed, &mut out);
        let wall = points.iter().map(|p| p.2).sum();
        passes.push(points);
        wall
    });
    let per_net = |net: Option<&str>| {
        let samples: Vec<f64> = passes
            .iter()
            .map(|points| {
                let chosen: Vec<&Point> = points
                    .iter()
                    .filter(|p| net.is_none_or(|n| n == p.0))
                    .collect();
                let secs: f64 = chosen.iter().map(|p| p.2).sum();
                1e9 * secs / (chosen.len() as u64 * cycles_per_point()) as f64
            })
            .collect();
        median(&samples)
    };
    times.print();
    println!("  workload-specific end-to-end rows:");
    print_row("ns_per_cycle", per_net(None), "ns");
    for (name, _) in NETWORKS {
        print_row(&format!("ns_per_cycle.{name}"), per_net(Some(name)), "ns");
    }
    out.end_to_end = vec![
        ("wall_s", median(&times.passes)),
        ("setup_s", median(&times.setups)),
    ];
    out
}

/// The traced run: one untraced pass, then every point again through a
/// [`TimedNet`], which must reproduce the untraced digests.
pub fn run_traced(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let plain = untraced_pass(build_networks(), spec.seed, &mut out);
    let plain_wall: f64 = plain.iter().map(|p| p.2).sum();

    let cfg = run_config(spec.seed);
    let mut traced_wall = 0.0;
    let (mut step_ns, mut steps, mut inject_ns, mut injects, mut idle) = (0, 0, 0, 0, 0);
    for (name, net_spec) in NETWORKS {
        let (mut net_ns, mut net_steps) = (0, 0);
        for load in LOADS {
            let probe = Rc::new(NetProbe::default());
            let mut net = TimedNet::new(DynNet(net_spec.build()), probe.clone());
            let t = Instant::now();
            let p = measure_point(&mut net, TrafficPattern::UniformRandom, load.1, &cfg);
            traced_wall += t.elapsed().as_secs_f64();
            let same = plain
                .iter()
                .any(|q| q.0 == name && q.1 == load.0 && q.3 == digest(&p, net.stats()));
            if !same {
                println!("  traced {name}/{} differs from the untraced point", load.0);
            }
            out.check(same);
            layers.set(
                &format!("noc.step_ns.{name}.{}", load.0),
                probe.step.mean_ns(),
            );
            net_ns += probe.step.nanos();
            net_steps += probe.step.calls();
            inject_ns += probe.inject.nanos();
            injects += probe.inject.calls();
            idle += probe.idle_steps.get();
        }
        layers.set(
            &format!("noc.step_ns.{name}"),
            net_ns as f64 / net_steps.max(1) as f64,
        );
        step_ns += net_ns;
        steps += net_steps;
    }
    layers.set("noc.step_s", step_ns as f64 * 1e-9);
    layers.set("noc.step_calls", steps as f64);
    layers.set("noc.inject_s", inject_ns as f64 * 1e-9);
    layers.set("noc.injects", injects as f64);
    layers.set("noc.idle_step_frac", idle as f64 / steps.max(1) as f64);
    layers.set(
        "bench.trace_overhead_frac",
        (traced_wall - plain_wall) / plain_wall,
    );
    out.layers = Some(layers);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariants_hold_on_a_short_point_and_catch_a_bad_one() {
        let cfg = RunConfig {
            warmup: 200,
            measure: 2_000,
            seed: 3,
            ..RunConfig::default()
        };
        for (_, spec) in NETWORKS {
            let mut net = spec.build();
            let p = measure_point(net.as_mut(), TrafficPattern::UniformRandom, 0.05, &cfg);
            assert!(invariants_hold(0.05, &p, net.stats()), "{spec:?}");
            let mut bad = p.clone();
            bad.avg_latency += 1.0;
            assert!(!invariants_hold(0.05, &bad, net.stats()));
        }
    }

    #[test]
    fn every_point_has_a_recorded_digest() {
        for (name, _) in NETWORKS {
            for (load, _) in LOADS {
                assert!(digests::recorded(digests::NOC_LOAD, &key(name, load)).is_some());
            }
        }
    }
}
