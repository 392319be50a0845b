//! The data-free plan path against the data path. Each benchmark's shape
//! function must give the plan of the benchmark its data constructor
//! builds, every job's orthogonality flag must be what the matrix's full
//! `MᵀM = I` test says, and task generation from the plan must equal
//! task generation from the instantiated benchmark, task for task, for
//! any task-generation settings.

use flumen_linalg::RMat;
use flumen_system::SystemConfig;
use flumen_workloads::taskgen::{
    generate, generate_plan, partition_width, ExecMode, TaskGenConfig,
};
use flumen_workloads::{
    Benchmark, ImageBlur, Jpeg, MvmJob, ResnetConv3, Rotation3d, Vgg16Fc, WorkloadPlan,
};
use proptest::prelude::*;

/// The orthogonality test task generation made on the job's matrix
/// before plans existed.
fn orthogonal_by_product(m: &RMat) -> bool {
    m.rows() == m.cols()
        && m.transpose()
            .matmul(m)
            .approx_eq(&RMat::identity(m.rows()), 1e-9)
}

/// The partition width task generation chose from the job's data before
/// plans existed.
fn width_from_data(job: &MvmJob, cfg: &TaskGenConfig) -> usize {
    let m = &job.matrix;
    if m.rows() == m.cols()
        && m.rows() <= cfg.unitary_partition
        && m.rows() > cfg.svd_partition
        && orthogonal_by_product(m)
    {
        cfg.unitary_partition
    } else {
        cfg.svd_partition
    }
}

/// A shape function's plan and the benchmark its data constructor builds
/// from the same arguments. `a`, `b` and `c` are sizes; some shapes are
/// deliberately not the paper's (square and batched FC layers, odd
/// images and convolutions).
fn case(
    kind: usize,
    a: usize,
    b: usize,
    c: usize,
    seed: u64,
) -> (WorkloadPlan, Box<dyn Benchmark>) {
    match kind {
        0 => (
            Vgg16Fc::plan(a, a, 1),
            Box::new(Vgg16Fc::with_size(a, a, seed)),
        ),
        1 => (
            Vgg16Fc::plan(a, b, c),
            Box::new(Vgg16Fc::with_batch(a, b, c, seed)),
        ),
        2 => (
            ImageBlur::plan(a, b),
            Box::new(ImageBlur::with_size(a, b, seed)),
        ),
        3 => {
            let (h, w) = (a % 9 + 1, b % 9 + 1);
            (
                ResnetConv3::plan(h, w, c),
                Box::new(ResnetConv3::with_size(h, w, c, seed)),
            )
        }
        4 => {
            let (h, w) = (8 * (a % 3 + 1), 8 * (b % 5 + 1));
            (Jpeg::plan(h, w), Box::new(Jpeg::with_size(h, w, seed)))
        }
        _ => (
            Rotation3d::plan(a * 7, seed),
            Box::new(Rotation3d::with_vertices(a * 7, seed)),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn taskgen_from_the_plan_equals_taskgen_from_the_data(
        (kind, a, b, c) in (0usize..6, 1usize..24, 1usize..24, 1usize..5),
        (svd_partition, unitary_partition, cores) in (1usize..9, 1usize..17, 1usize..65),
        (max_configs, max_vectors, offload) in (1u64..64, 1usize..80, any::<bool>()),
        seed in any::<u64>(),
    ) {
        let (plan, bench) = case(kind, a, b, c, seed);
        prop_assert_eq!(&plan, &bench.plan());

        let cfg = TaskGenConfig {
            max_configs_per_request: max_configs,
            max_vectors_per_request: max_vectors,
            svd_partition,
            unitary_partition,
            ..TaskGenConfig::default()
        };
        for (shape, job) in plan.jobs.iter().zip(bench.jobs()) {
            prop_assert_eq!(shape.orthogonal, orthogonal_by_product(&job.matrix));
            prop_assert_eq!(partition_width(shape, &cfg), width_from_data(job, &cfg));
        }

        let sys = SystemConfig {
            cores,
            ..SystemConfig::paper()
        };
        let mode = if offload { ExecMode::Offload } else { ExecMode::Local };
        let from_plan = generate_plan(&plan, &sys, mode, &cfg);
        let from_data = generate(bench.as_ref(), &sys, mode, &cfg);
        prop_assert_eq!(from_plan.len(), from_data.len());
        for (p, d) in from_plan.iter().zip(&from_data) {
            prop_assert_eq!(p, d);
        }
    }
}

#[test]
fn jpeg_takes_the_unitary_partition_and_rotation_does_not() {
    let cfg = TaskGenConfig {
        svd_partition: 2,
        unitary_partition: 8,
        ..TaskGenConfig::default()
    };
    let jpeg = Jpeg::plan(16, 24);
    assert!(jpeg.jobs.iter().all(|j| j.orthogonal));
    assert_eq!(partition_width(&jpeg.jobs[1], &cfg), 8);
    // The transform's translation column is not a unit vector.
    let rotation = Rotation3d::plan(24, 0x3D);
    assert!(!rotation.jobs[0].orthogonal);
    assert_eq!(partition_width(&rotation.jobs[0], &cfg), 2);
}
