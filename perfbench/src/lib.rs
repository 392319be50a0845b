//! The Flumen repository benchmark: four workloads that exercise the
//! simulator's layers end to end, timed from outside the library.
//!
//! Every timing is taken in this package, around calls into the public
//! functions of each layer's crate, or by the wrappers in [`probe`]
//! around the public `Network` and `ExternalServer` traits. The library
//! itself is built unmodified. See `README.md` for the workloads, the
//! layer-to-metric map and the baseline figures.

pub mod digests;
pub mod grid;
pub mod noc_load;
pub mod probe;
pub mod report;
pub mod serve_mix;
pub mod verify;

use std::path::PathBuf;
use std::time::Instant;

/// The seed the recorded digests were taken at, and the default of
/// `--seed`. The bounds in `BENCHMARK.json` were set from seeds 1–10;
/// seed 20231 was never run while the benchmark was tuned and is held
/// back for confirming later claims.
pub const DEFAULT_SEED: u64 = 1;

/// Fewest set-up samples a run takes before it reports their median.
pub const MIN_SETUPS: usize = 5;

/// Before each pass, set-up is repeated until the repeats cover this many
/// seconds (or [`BURST_SETUPS`] were taken); the last one feeds the pass.
/// The samples are thus spread over the whole run, and a cheap set-up is
/// still timed over a steady stretch.
pub const BURST_SECONDS: f64 = 0.1;

/// Most set-up samples taken before one pass.
pub const BURST_SETUPS: usize = 40;

/// How one run is driven: the seed, the measuring time and a scratch
/// directory.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload seed.
    pub seed: u64,
    /// Seconds to keep measuring (at least one pass always runs).
    pub seconds: f64,
    /// Scratch directory for caches; removed by the caller.
    pub work_dir: PathBuf,
}

/// Set-up and pass timings of an untraced run.
#[derive(Debug, Default)]
pub struct LoopTimes {
    /// Seconds per set-up call.
    pub setups: Vec<f64>,
    /// Seconds per measured pass, as each pass reported it.
    pub passes: Vec<f64>,
}

impl LoopTimes {
    /// Prints the pass and set-up samples.
    pub fn print(&self) {
        let secs = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("  {} passes, s: {}", self.passes.len(), secs(&self.passes));
        let mut sorted = self.setups.clone();
        sorted.sort_by(f64::total_cmp);
        println!(
            "  {} set-ups, s: min {:.6} median {:.6} max {:.6}",
            sorted.len(),
            sorted[0],
            report::median(&sorted),
            sorted[sorted.len() - 1]
        );
    }
}

/// Runs passes for about `seconds`: before each pass, times a burst of
/// `prepare` calls (see [`BURST_SECONDS`]) and hands the last result to
/// `pass`. A pass starts only if one more pass, at the median length so
/// far, still ends within `seconds`; at least one always runs. Then
/// `prepare` alone is timed until there are [`MIN_SETUPS`] samples.
/// `pass` returns the seconds of its measured part, so the output checks
/// it makes stay outside the measurement.
pub fn timed_loop<P>(
    seconds: f64,
    mut prepare: impl FnMut() -> P,
    mut pass: impl FnMut(P) -> f64,
) -> LoopTimes {
    let start = Instant::now();
    let mut times = LoopTimes::default();
    let mut lengths = Vec::new();
    loop {
        let began = Instant::now();
        let (mut burst, mut taken) = (0.0, 0);
        let prepared = loop {
            let t = Instant::now();
            let prepared = prepare();
            let secs = t.elapsed().as_secs_f64();
            times.setups.push(secs);
            burst += secs;
            taken += 1;
            if burst >= BURST_SECONDS || taken == BURST_SETUPS {
                break prepared;
            }
            drop(prepared);
        };
        times.passes.push(pass(prepared));
        lengths.push(began.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + report::median(&lengths) > seconds {
            break;
        }
    }
    while times.setups.len() < MIN_SETUPS {
        let t = Instant::now();
        drop(prepare());
        times.setups.push(t.elapsed().as_secs_f64());
    }
    times
}

/// `items` in an order drawn from `seed` (Fisher–Yates over SplitMix64).
/// The workloads whose results do not depend on a seed use it to vary
/// the order they run in; their outputs must not change with it.
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

/// Runs `f`, turning a panic into `None` (a failed unit of work).
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled((0..10).collect::<Vec<_>>(), 7);
        assert_eq!(a, shuffled((0..10).collect::<Vec<_>>(), 7));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_ne!(a, shuffled((0..10).collect::<Vec<_>>(), 8));
    }

    #[test]
    fn timed_loop_runs_once_and_samples_cheap_setups_to_the_cap() {
        let mut passes = 0;
        let t = timed_loop(
            0.0,
            || 1,
            |x| {
                passes += x;
                0.5
            },
        );
        assert_eq!(passes, 1);
        assert_eq!(t.passes, vec![0.5]);
        assert_eq!(t.setups.len(), BURST_SETUPS);
    }

    #[test]
    fn guarded_catches_panics() {
        assert_eq!(guarded(|| 3), Some(3));
        let r: Option<()> = guarded(|| panic!("expected panic"));
        assert!(r.is_none());
    }
}
