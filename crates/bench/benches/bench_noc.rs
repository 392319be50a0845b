//! Criterion micro-benchmarks for the cycle-level NoC simulator: per-cycle
//! stepping cost of each topology under load (determines how fast the
//! Fig. 11 sweeps and full-system runs execute).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flumen_noc::traffic::{BernoulliInjector, TrafficPattern};
use flumen_noc::{MzimCrossbar, Network, OpticalBus, RoutedNetwork};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_cycles<N: Network>(mut net: N, cycles: u64) -> u64 {
    let mut inj = BernoulliInjector::new(0.2, 1024, 256, TrafficPattern::UniformRandom);
    let mut rng = StdRng::seed_from_u64(1);
    let mut delivered = 0u64;
    for c in 0..cycles {
        for p in inj.generate(net.num_nodes(), c, &mut rng) {
            net.inject(p);
        }
        delivered += net.step().len() as u64;
    }
    delivered
}

fn bench_networks(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_step_1k_cycles");
    group.bench_function(BenchmarkId::from_parameter("ring16"), |b| {
        b.iter(|| run_cycles(RoutedNetwork::ring_16(), 1_000))
    });
    group.bench_function(BenchmarkId::from_parameter("mesh4x4"), |b| {
        b.iter(|| run_cycles(RoutedNetwork::mesh_4x4(), 1_000))
    });
    group.bench_function(BenchmarkId::from_parameter("optbus16"), |b| {
        b.iter(|| run_cycles(OpticalBus::optbus_16(), 1_000))
    });
    group.bench_function(BenchmarkId::from_parameter("mzim16"), |b| {
        b.iter(|| run_cycles(MzimCrossbar::flumen_16(), 1_000))
    });
    group.finish();
}

fn bench_wavefront(c: &mut Criterion) {
    use flumen_noc::WavefrontArbiter;
    let mut group = c.benchmark_group("wavefront_arbiter");
    for n in [16usize, 64] {
        let requests: Vec<u64> = (0..n).map(|i| 1 << ((i * 7 + 3) % n)).collect();
        let mut grants = vec![None; n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut arb = WavefrontArbiter::new(n);
            b.iter(|| arb.arbitrate(&requests, 0, 0, &mut grants))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_networks, bench_wavefront);
criterion_main!(benches);
