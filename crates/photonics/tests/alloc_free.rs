//! The heap-free block loop: once a scratch and a circuit have been used at
//! a width, reprogramming and applying through `SvdCircuit::reprogram` and
//! `SvdCircuit::apply_into` allocate nothing. A counting global allocator
//! checks it; the count is per thread, so the test harness's own threads
//! do not disturb it.

use flumen_linalg::RMat;
use flumen_photonics::{AnalogModel, SvdCircuit, SvdScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may be gone while the thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter only reads and writes a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn reprogram_and_apply_allocate_nothing_after_warm_up() {
    let mut rng = StdRng::seed_from_u64(14);
    for n in [4usize, 8] {
        for model in [AnalogModel::ideal(), AnalogModel::eight_bit()] {
            // Blocks of every kind the executor meets: random, all zero,
            // rank one, and an identity.
            let mut blocks: Vec<RMat> = (0..6)
                .map(|_| RMat::from_fn(n, n, |_, _| rng.gen_range(-2.0..2.0)))
                .collect();
            blocks.push(RMat::zeros(n, n));
            blocks.push(RMat::from_fn(n, n, |r, c| ((r + 1) * (c + 1)) as f64));
            blocks.push(RMat::identity(n));
            let inputs: Vec<Vec<f64>> = (0..4)
                .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let mut scratch = SvdScratch::new();
            let mut circuit = SvdCircuit::new(n);
            let mut out = vec![0.0; n];

            // Warm-up: one block grows every buffer to this width.
            circuit.reprogram(&blocks[0], &mut scratch).unwrap();
            circuit.quantize_phases(&model);
            circuit.apply_into(&inputs[0], &model, 0, &mut scratch, &mut out);

            let before = allocations();
            for (b, block) in blocks.iter().enumerate() {
                circuit.reprogram(block, &mut scratch).unwrap();
                circuit.quantize_phases(&model);
                for (v, x) in inputs.iter().enumerate() {
                    let seed = (b * inputs.len() + v) as u64;
                    circuit.apply_into(x, &model, seed, &mut scratch, &mut out);
                }
            }
            let during = allocations() - before;
            assert_eq!(
                during,
                0,
                "n={n} ideal={}: {during} allocations in the block loop",
                model.is_ideal()
            );
            // The scratch path computes what the allocating wrappers do.
            let fresh = {
                let mut c = SvdCircuit::program(&blocks[1]).unwrap();
                c.quantize_phases(&model);
                c.apply_with_model(&inputs[2], &model, 7)
            };
            circuit.reprogram(&blocks[1], &mut scratch).unwrap();
            circuit.quantize_phases(&model);
            circuit.apply_into(&inputs[2], &model, 7, &mut scratch, &mut out);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
