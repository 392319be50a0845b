//! Property-based tests for the NoC simulator: conservation, delivery and
//! fairness invariants that must hold on every topology.

use flumen_noc::traffic::TrafficPattern;
use flumen_noc::{
    BusConfig, CrossbarConfig, MzimCrossbar, Network, OpticalBus, Packet, RoutedConfig,
    RoutedNetwork, RoutedTopology, WavefrontArbiter,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every injected packet is eventually delivered, exactly once, to its
/// destination — on every topology, for arbitrary traffic.
/// Bit mask with the listed ports set.
fn mask(ports: &[usize]) -> u64 {
    ports.iter().fold(0, |m, &p| m | 1 << p)
}

/// Bit mask of the `true` flags.
fn mask_of(flags: &[bool]) -> u64 {
    flags
        .iter()
        .enumerate()
        .fold(0, |m, (i, &f)| m | u64::from(f) << i)
}

/// The wavefront as a plain scan of every row on every diagonal, over
/// request lists: the reference the mask arbiter must match grant for
/// grant.
fn list_wavefront(
    priority: usize,
    requests: &[Vec<usize>],
    row_busy: &[bool],
    col_busy: &[bool],
) -> Vec<Option<usize>> {
    let n = requests.len();
    let mut grants = vec![None; n];
    let mut row_taken = row_busy.to_vec();
    let mut col_taken = col_busy.to_vec();
    for d in 0..n {
        let diag = (priority + d) % n;
        for i in 0..n {
            let j = (diag + n - i) % n;
            if !row_taken[i] && !col_taken[j] && requests[i].contains(&j) {
                grants[i] = Some(j);
                row_taken[i] = true;
                col_taken[j] = true;
            }
        }
    }
    grants
}

fn check_conservation<N: Network>(mut net: N, seed: u64, packets: usize) -> Result<(), String> {
    let n = net.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut expected: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for id in 0..packets as u64 {
        let src = rng.gen_range(0..n);
        let mut dst = rng.gen_range(0..n);
        if dst == src {
            dst = (dst + 1) % n;
        }
        let bits = [128u32, 512, 1024][rng.gen_range(0..3)];
        let at = rng.gen_range(0..64u64);
        expected.insert(id, dst);
        net.inject(Packet::new(id, src, dst, bits, at));
    }
    let mut delivered = std::collections::HashMap::new();
    for _ in 0..500_000u64 {
        for d in net.step() {
            if delivered.insert(d.packet.id, d.packet.dst).is_some() {
                return Err(format!("packet {} delivered twice", d.packet.id));
            }
        }
        if net.pending() == 0 {
            break;
        }
    }
    if net.pending() != 0 {
        return Err("network failed to drain".into());
    }
    if delivered.len() != expected.len() {
        return Err(format!(
            "{} of {} delivered",
            delivered.len(),
            expected.len()
        ));
    }
    for (id, dst) in expected {
        if delivered.get(&id) != Some(&dst) {
            return Err(format!("packet {id} arrived at the wrong node"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_conserves_packets(seed in any::<u32>(), packets in 1usize..120) {
        check_conservation(RoutedNetwork::ring_16(), seed as u64, packets).unwrap();
    }

    #[test]
    fn mesh_conserves_packets(seed in any::<u32>(), packets in 1usize..120) {
        check_conservation(RoutedNetwork::mesh_4x4(), seed as u64, packets).unwrap();
    }

    #[test]
    fn optbus_conserves_packets(seed in any::<u32>(), packets in 1usize..120) {
        check_conservation(OpticalBus::optbus_16(), seed as u64, packets).unwrap();
    }

    #[test]
    fn crossbar_conserves_packets(seed in any::<u32>(), packets in 1usize..120) {
        check_conservation(MzimCrossbar::flumen_16(), seed as u64, packets).unwrap();
    }

    #[test]
    fn odd_sized_networks_work(nodes in 3usize..12, seed in any::<u32>()) {
        check_conservation(
            RoutedNetwork::new(RoutedTopology::Ring { nodes }, RoutedConfig::default()).unwrap(),
            seed as u64,
            40,
        )
        .unwrap();
        check_conservation(
            OpticalBus::new(nodes, BusConfig::default()).unwrap(),
            seed as u64,
            40,
        )
        .unwrap();
        check_conservation(
            MzimCrossbar::new(nodes, CrossbarConfig::default()).unwrap(),
            seed as u64,
            40,
        )
        .unwrap();
    }

    #[test]
    fn latency_measured_from_creation(seed in any::<u32>()) {
        // A packet created early but injected into a busy network must
        // report latency ≥ any same-path packet created later.
        let mut net = MzimCrossbar::flumen_16();
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let dst = rng.gen_range(1..16);
        for k in 0..6u64 {
            net.inject(Packet::new(k, 0, dst, 2048, 0));
        }
        let mut lats = Vec::new();
        for _ in 0..10_000 {
            for d in net.step() {
                lats.push((d.packet.id, d.latency()));
            }
            if net.pending() == 0 { break; }
        }
        lats.sort_by_key(|&(id, _)| id);
        prop_assert!(lats.windows(2).all(|w| w[0].1 <= w[1].1), "{lats:?}");
    }

    #[test]
    fn traffic_patterns_are_valid_destinations(src in 0usize..64, n_pow in 2u32..7, seed in any::<u32>()) {
        let n = 1usize << n_pow;
        prop_assume!(src < n);
        let mut rng = StdRng::seed_from_u64(seed as u64);
        for p in TrafficPattern::all() {
            let d = p.destination(src, n, &mut rng);
            prop_assert!(d < n && d != src, "{} gave {d} for {src}/{n}", p.name());
        }
    }

    #[test]
    fn wavefront_grants_are_always_a_matching(n in 2usize..12, seed in any::<u32>()) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let requests: Vec<Vec<usize>> = (0..n)
            .map(|_| {
                let k = rng.gen_range(0..3);
                (0..k).map(|_| rng.gen_range(0..n)).collect()
            })
            .collect();
        let row_busy: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
        let col_busy: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
        let mut arb = WavefrontArbiter::new(n);
        let mut grants = vec![None; n];
        arb.arbitrate(
            &requests.iter().map(|r| mask(r)).collect::<Vec<_>>(),
            mask_of(&row_busy),
            mask_of(&col_busy),
            &mut grants,
        );
        let mut used_out = vec![false; n];
        for (i, g) in grants.iter().enumerate() {
            if let Some(j) = g {
                prop_assert!(!row_busy[i], "granted a busy row");
                prop_assert!(!col_busy[*j], "granted a busy col");
                prop_assert!(requests[i].contains(j), "granted an unrequested output");
                prop_assert!(!used_out[*j], "output granted twice");
                used_out[*j] = true;
            }
        }
    }

    #[test]
    fn wavefront_masks_grant_as_the_list_scan(n in 2usize..65, seed in any::<u32>(), rounds in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let mut arb = WavefrontArbiter::new(n);
        arb.set_priority(rng.gen_range(0..n));
        let mut priority = arb.priority();
        for _ in 0..rounds {
            let requests: Vec<Vec<usize>> = (0..n)
                .map(|_| (0..rng.gen_range(0..4)).map(|_| rng.gen_range(0..n)).collect())
                .collect();
            let row_busy: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
            let col_busy: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
            let mut grants = vec![Some(usize::MAX); n];
            arb.arbitrate(
                &requests.iter().map(|r| mask(r)).collect::<Vec<_>>(),
                mask_of(&row_busy),
                mask_of(&col_busy),
                &mut grants,
            );
            let want = list_wavefront(priority, &requests, &row_busy, &col_busy);
            prop_assert_eq!(grants, want);
            priority = (priority + 1) % n;
            prop_assert_eq!(arb.priority(), priority);
        }
    }

    #[test]
    fn multicast_delivers_to_every_destination(seed in any::<u32>(), mask in 1u16..0xFFFF) {
        let mut net = MzimCrossbar::flumen_16();
        let dests: Vec<usize> = (0..16).filter(|i| mask >> i & 1 == 1 && *i != 0).collect();
        prop_assume!(!dests.is_empty());
        let _ = seed;
        net.inject(Packet::multicast(1, 0, &dests, 512, 0));
        let mut got = Vec::new();
        for _ in 0..5_000 {
            for d in net.step() {
                got.push(d.packet.dst);
            }
            if net.pending() == 0 { break; }
        }
        got.sort_unstable();
        prop_assert_eq!(got, dests);
    }
}
