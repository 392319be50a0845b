//! `Network::advance_idle(k)` replays `k` idle cycles exactly: after it,
//! a network's snapshot bytes equal those after `k` calls to `step`. One
//! test per hand-written network, plus the composed torus, which keeps the
//! trait defaults.

use flumen_noc::{
    torus, BusConfig, CrossbarConfig, MzimCrossbar, Network, OpticalBus, Packet, RoutedConfig,
    RoutedNetwork, RoutedTopology,
};
use flumen_sim::Snapshotable;

fn snap(net: &impl Snapshotable) -> String {
    net.snapshot().to_canonical()
}

/// Drives `skip` by its next activity and `tick` one step at a time
/// through a burst of traffic and a long idle tail, comparing snapshot
/// bytes after every jump. Returns the cycles skipped during the burst.
fn advance_idle_matches_steps<N: Network + Snapshotable>(mk: impl Fn() -> N) -> u64 {
    let (mut skip, mut tick) = (mk(), mk());
    let n = skip.num_nodes();
    let burst = [
        Packet::new(1, 0, 1, 512, 0),
        Packet::new(2, 1, n - 1, 4096, 0),
        Packet::new(3, n - 1, 0, 128, 0),
        Packet::multicast(4, 2, &[0, 1, 3], 1024, 0),
    ];
    for p in burst {
        skip.inject(p.clone());
        tick.inject(p);
    }
    let mut skipped = 0;
    while let Some(t) = skip.next_activity() {
        let now = skip.cycle();
        assert!(t >= now, "next activity {t} is in the past at {now}");
        if t == now {
            assert_eq!(skip.step(), tick.step(), "cycle {now}");
        } else {
            skip.advance_idle(t - now);
            for _ in now..t {
                assert!(tick.step().is_empty(), "tick delivered inside a skip");
            }
            skipped += t - now;
        }
        assert_eq!(snap(&skip), snap(&tick), "after cycle {now}");
        assert!(now < 100_000, "burst never drained");
    }
    assert_eq!(skip.pending(), 0);
    assert_eq!(skip.stats().delivered, tick.stats().delivered);

    // An empty network: one long jump.
    skip.advance_idle(1_000);
    for _ in 0..1_000 {
        tick.step();
    }
    assert_eq!(snap(&skip), snap(&tick));
    assert_eq!(skip.cycle(), tick.cycle());
    skipped
}

#[test]
fn crossbar_advance_idle_matches_steps() {
    let skipped =
        advance_idle_matches_steps(|| MzimCrossbar::new(8, CrossbarConfig::default()).unwrap());
    assert!(skipped > 0, "packets in flight leave idle cycles to skip");
}

#[test]
fn bus_advance_idle_matches_steps() {
    let skipped = advance_idle_matches_steps(|| OpticalBus::new(8, BusConfig::default()).unwrap());
    assert!(skipped > 0);
}

#[test]
fn ring_advance_idle_matches_steps() {
    let skipped = advance_idle_matches_steps(|| {
        RoutedNetwork::new(RoutedTopology::Ring { nodes: 8 }, RoutedConfig::default()).unwrap()
    });
    assert!(skipped > 0);
}

#[test]
fn mesh_advance_idle_matches_steps() {
    let skipped = advance_idle_matches_steps(|| {
        let mesh = RoutedTopology::Mesh {
            width: 4,
            height: 2,
        };
        RoutedNetwork::new(mesh, RoutedConfig::default()).unwrap()
    });
    assert!(skipped > 0);
}

#[test]
fn composed_torus_keeps_the_default_replay() {
    // The default next activity never skips while anything is pending.
    let torus = || torus(4, 2, &RoutedConfig::default()).unwrap();
    assert_eq!(advance_idle_matches_steps(torus), 0);
}
