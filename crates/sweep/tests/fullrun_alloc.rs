//! A full-system job reads only job shapes, so `JobSpec::execute` on a
//! `FullRun` never synthesizes the benchmark's tensors. The paper-size
//! `vgg16_fc` layer shows it best: its 1000×4096 `f64` weight matrix
//! alone is 31.25 MiB. A counting global allocator records the peak of
//! live heap bytes over the whole run. The file holds one test, so no
//! other test thread allocates meanwhile.

use flumen::{RuntimeConfig, SystemTopology};
use flumen_sweep::{BenchKind, BenchSize, BenchSpec, JobSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MIB: usize = 1 << 20;

/// The calibrated bound: the run peaks at about 3.6 MiB of live heap
/// (task queues, caches and network state), against about 35 MiB when
/// the job instantiated the benchmark first.
const PEAK_BOUND: usize = 8 * MIB;

#[test]
fn paper_vgg16_fc_full_run_never_allocates_its_weights() {
    let weights = 1000 * 4096 * std::mem::size_of::<f64>();
    assert!(PEAK_BOUND * 3 < weights);
    let spec = JobSpec::FullRun {
        bench: BenchSpec {
            kind: BenchKind::Vgg16Fc,
            size: BenchSize::Paper,
        },
        topology: SystemTopology::FlumenA,
        cfg: RuntimeConfig::paper(),
    };
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = spec.execute();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(!result.full_run().truncated);
    assert!(
        peak < PEAK_BOUND,
        "peak live heap {:.2} MiB, bound {} MiB",
        peak as f64 / MIB as f64,
        PEAK_BOUND / MIB
    );
    eprintln!("peak live heap {:.2} MiB", peak as f64 / MIB as f64);
}
