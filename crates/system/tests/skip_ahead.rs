//! Property: the engine's idle skip is invisible. `SystemSim::run` jumps
//! over cycles on which nothing acts; a plain `step()` loop ticks through
//! them. On all five system topologies, with utilization sampling off and
//! on, both give the same `RunResult`, and the same snapshot bytes at
//! every cycle where the skipping run stops.

use flumen::{ControlUnitParams, MzimControlUnit};
use flumen_noc::{
    BusConfig, CrossbarConfig, MzimCrossbar, Network, OpticalBus, RoutedConfig, RoutedNetwork,
    RoutedTopology,
};
use flumen_sim::{run_until, Clock, Component, Cycles, SimCtx, Snapshotable, ToJson};
use flumen_system::{
    CacheConfig, CoreTask, ExternalServer, NullServer, RunResult, SystemConfig, SystemSim,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CORES: usize = 8;
const CHIPLETS: usize = 4;

/// Small caches, so short task mixes still evict and write back.
fn small_sys() -> SystemConfig {
    let cache = |kib: usize, ways: usize, latency: u64| CacheConfig {
        size_bytes: kib << 10,
        line_bytes: 64,
        ways,
        latency,
    };
    SystemConfig {
        cores: CORES,
        chiplets: CHIPLETS,
        l1d: cache(1, 2, 1),
        l2: cache(4, 4, 4),
        l3_slice: cache(16, 4, 12),
        ..SystemConfig::paper()
    }
}

/// A control unit for a 2-wire fabric: two chiplets per wire.
fn control_unit() -> MzimControlUnit {
    MzimControlUnit::new(ControlUnitParams {
        fabric_n: 2,
        chiplets_per_wire: 2,
        ..ControlUnitParams::paper()
    })
}

fn random_task(rng: &mut StdRng) -> CoreTask {
    let addrs = |rng: &mut StdRng, n: u64| -> Vec<u64> {
        (0..rng.gen_range(0..n))
            .map(|_| rng.gen_range(0..1u64 << 18) & !63)
            .collect()
    };
    match rng.gen_range(0..5) {
        0 => CoreTask::Compute {
            ops: rng.gen_range(1..3_000),
        },
        1 => CoreTask::Stream {
            ops: rng.gen_range(0..400),
            reads: addrs(rng, 40),
            writes: addrs(rng, 40),
        },
        2 => CoreTask::NetRequest {
            dst_chiplet: rng.gen_range(0..CHIPLETS),
            req_bits: 128,
            reply_bits: 576,
            server_cycles: rng.gen_range(1..400),
        },
        3 => CoreTask::NetSend {
            dst_chiplets: (0..CHIPLETS).filter(|_| rng.gen_bool(0.6)).collect(),
            bits: rng.gen_range(64..2_048),
        },
        _ => CoreTask::External {
            payload: [
                rng.gen_range(1..40),
                rng.gen_range(1..64),
                rng.gen_range(1..3),
                0,
            ],
            fallback: vec![CoreTask::Compute {
                ops: rng.gen_range(1..800),
            }],
        },
    }
}

/// Random per-core queues, optionally split by a barrier every core
/// reaches.
fn random_tasks(seed: u64) -> Vec<Vec<CoreTask>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let barrier = rng.gen_bool(0.5);
    (0..CORES)
        .map(|_| {
            let mut q: Vec<CoreTask> = (0..rng.gen_range(0..4))
                .map(|_| random_task(&mut rng))
                .collect();
            if barrier {
                q.push(CoreTask::Barrier { id: 1 });
                q.extend((0..rng.gen_range(0..3)).map(|_| random_task(&mut rng)));
            }
            q
        })
        .collect()
}

/// Forwards to the engine and snapshots it before every real step: the
/// cycles where a skipping run stops.
struct Stops<'a, N: Network, S: ExternalServer<N>> {
    sim: &'a mut SystemSim<N, S>,
    snaps: Vec<(u64, String)>,
}

impl<N, S> Component for Stops<'_, N, S>
where
    N: Network + Snapshotable,
    S: ExternalServer<N> + Snapshotable,
{
    fn step(&mut self, now: Cycles, ctx: &mut SimCtx) {
        let snap = self.sim.snapshot().to_canonical();
        self.snaps.push((now.value(), snap));
        Component::step(self.sim, now, ctx);
    }

    fn done(&self, now: Cycles) -> bool {
        self.sim.done(now)
    }

    fn next_activity(&self, now: Cycles) -> Cycles {
        self.sim.next_activity(now)
    }

    fn advance_idle(&mut self, now: Cycles, k: u64, ctx: &mut SimCtx) {
        self.sim.advance_idle(now, k, ctx);
    }
}

fn assert_same(a: &RunResult, b: &RunResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.cycles, b.cycles);
    prop_assert_eq!(a.truncated, b.truncated);
    prop_assert_eq!(&a.counts, &b.counts);
    prop_assert_eq!(
        a.net_stats.to_json().to_canonical(),
        b.net_stats.to_json().to_canonical()
    );
    let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&a.utilization_trace), bits(&b.utilization_trace));
    Ok(())
}

/// Runs one system three ways — `run()`, `run_until` with a snapshot at
/// every stop, and a `step()` loop — and checks they agree.
fn skip_matches_tick<N, S>(
    mk: &dyn Fn() -> SystemSim<N, S>,
    max_cycles: u64,
) -> Result<(), TestCaseError>
where
    N: Network + Snapshotable,
    S: ExternalServer<N> + Snapshotable,
{
    let skipped = mk().run(max_cycles);

    let mut sim = mk();
    let mut stops = Stops {
        sim: &mut sim,
        snaps: Vec::new(),
    };
    let mut clock = Clock::at(Cycles::new(0));
    run_until(
        &mut stops,
        &mut SimCtx::new(0),
        &mut clock,
        Cycles::new(max_cycles),
    );
    let snaps = stops.snaps;
    let end = sim.snapshot().to_canonical();

    let mut tick = mk();
    let mut next = snaps.iter().peekable();
    while !tick.finished() && tick.cycle() < max_cycles {
        if let Some((_, snap)) = next.next_if(|(c, _)| *c == tick.cycle()) {
            prop_assert!(
                tick.snapshot().to_canonical() == *snap,
                "state differs at cycle {}",
                tick.cycle()
            );
        }
        tick.step();
    }
    prop_assert!(next.next().is_none(), "skip run stopped off the tick path");
    prop_assert!(tick.snapshot().to_canonical() == end, "end states differ");
    let ticked = tick.run(max_cycles);

    assert_same(&skipped, &ticked)?;
    assert_same(&sim.run(max_cycles), &ticked)
}

fn every_topology(seed: u64, trace_interval: u64, max_cycles: u64) -> Result<(), TestCaseError> {
    fn build<N: Network, S: ExternalServer<N>>(
        net: N,
        server: S,
        seed: u64,
        trace_interval: u64,
    ) -> SystemSim<N, S> {
        let mut sim = SystemSim::new(small_sys(), net, server, random_tasks(seed));
        sim.set_trace_interval(trace_interval);
        sim
    }
    let routed = |topo| RoutedNetwork::new(topo, RoutedConfig::default()).unwrap();
    let crossbar = || MzimCrossbar::new(CHIPLETS, CrossbarConfig::default()).unwrap();
    let null = NullServer::default;
    skip_matches_tick(
        &|| {
            let ring = routed(RoutedTopology::Ring { nodes: CHIPLETS });
            build(ring, null(), seed, trace_interval)
        },
        max_cycles,
    )?;
    skip_matches_tick(
        &|| {
            let mesh = routed(RoutedTopology::Mesh {
                width: 2,
                height: 2,
            });
            build(mesh, null(), seed, trace_interval)
        },
        max_cycles,
    )?;
    skip_matches_tick(
        &|| {
            let bus = OpticalBus::new(CHIPLETS, BusConfig::default()).unwrap();
            build(bus, null(), seed, trace_interval)
        },
        max_cycles,
    )?;
    skip_matches_tick(
        &|| build(crossbar(), null(), seed, trace_interval),
        max_cycles,
    )?;
    skip_matches_tick(
        &|| build(crossbar(), control_unit(), seed, trace_interval),
        max_cycles,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn skip_ahead_matches_tick_by_tick(
        seed in any::<u64>(),
        trace_interval in 1u64..400,
        truncate in any::<bool>(),
    ) {
        // A tight budget exercises the truncation path, where the cap
        // itself is a stop.
        let max_cycles = if truncate { 1_500 } else { 2_000_000 };
        every_topology(seed, 0, max_cycles)?;
        every_topology(seed, trace_interval, max_cycles)?;
    }
}
