//! One worker per job. A job runs its evaluation, MLFT and contraction on
//! the worker that claimed it; `parallel`/`threads` size only the fold
//! over a call's jobs. So a single run at 8 threads spawns no worker and
//! matches the sequential run bit for bit, and a sweep of two jobs at 8
//! threads folds its jobs on two workers, each job reporting its own typed
//! error while the job no fault targets matches its solo run. The plan has
//! 8 manual cuts, so its contraction runs in 16 chunks and a fault can
//! target chunk 5.
//!
//! One test function: the pool's spawn counter is process-global, so a
//! sibling test running concurrently in the same binary would perturb it.

use qcir::Circuit;
use std::sync::Arc;
use supersim::{
    CutPoint, CutStrategy, ExecParams, FaultKind, FaultPlan, RunResult, Stage, SuperSim,
    SuperSimConfig, SuperSimError,
};

const CUTS: usize = 8;

/// A one-qubit `H·T` chain cut after every T but the last.
fn chain() -> (Circuit, CutStrategy) {
    let mut c = Circuit::new(1);
    for _ in 0..=CUTS {
        c.h(0).t(0);
    }
    let cuts = (0..CUTS)
        .map(|i| CutPoint {
            qubit: 0,
            after_op: 2 * i + 1,
        })
        .collect();
    (c, CutStrategy::Manual(cuts))
}

fn root(result: &Result<RunResult, SuperSimError>, job: usize) -> &SuperSimError {
    match result {
        Err(e @ SuperSimError::Job { job: j, .. }) if *j == job => e.root(),
        other => panic!("job {job}: expected a failure with its job context, got {other:?}"),
    }
}

fn spawned_total() -> usize {
    SuperSim::default().stats().pool.spawned_total
}

#[test]
fn each_job_runs_on_one_worker() {
    let (circuit, strategy) = chain();
    let sequential = SuperSimConfig::builder()
        .cut_strategy(strategy)
        .shots(500)
        .build()
        .unwrap();
    let base = sequential
        .clone()
        .into_builder()
        .parallel(true)
        .threads(8)
        .build()
        .unwrap();
    let plan = SuperSim::new(base.clone()).plan(&circuit).unwrap();
    assert_eq!(plan.num_cuts(), CUTS);
    let points = [ExecParams::seeded(11), ExecParams::seeded(12)].map(|p| p.with_shots(500));
    let solo: Vec<RunResult> = points
        .iter()
        .map(|&p| {
            SuperSim::new(sequential.clone())
                .executor()
                .run_with(&plan, p)
                .unwrap()
        })
        .collect();

    // A single run at 8 threads is one job on the calling thread: the pool
    // does not grow, and the result is the sequential run's.
    let spawned = spawned_total();
    let single = SuperSim::new(base.clone())
        .executor()
        .run_with(&plan, points[0])
        .unwrap();
    assert_eq!(spawned_total(), spawned, "a single run spawned workers");
    assert!(single.bit_identical_to(&solo[0]));

    let sweep = |faults: FaultPlan| {
        let config = SuperSimConfig {
            faults: Some(Arc::new(faults)),
            ..base.clone()
        };
        SuperSim::new(config).executor().run_sweep(&plan, &points)
    };
    let recombine_panic = || FaultPlan::new().inject(0, Stage::Recombine, 5, FaultKind::Panic);
    let mlft_error = || FaultPlan::new().inject(1, Stage::Mlft, 1, FaultKind::Error);
    let both = || recombine_panic().inject(1, Stage::Mlft, 1, FaultKind::Error);
    let assert_both_fail = |results: &[Result<RunResult, SuperSimError>], label: &str| {
        assert!(
            matches!(
                root(&results[0], 0),
                SuperSimError::Panicked {
                    stage: Stage::Recombine,
                    ..
                }
            ),
            "{label}: job 0"
        );
        match root(&results[1], 1) {
            SuperSimError::Injected {
                stage: Stage::Mlft,
                message,
            } => assert!(message.contains("task 1"), "{label}: {message}"),
            other => panic!("{label}: job 1 expected an MLFT injection, got {other}"),
        }
    };

    assert_both_fail(&sweep(both()), "cold");
    // Each fault alone: the sibling it does not target is bit-identical to
    // its solo run.
    let only_panic = sweep(recombine_panic());
    assert!(matches!(
        root(&only_panic[0], 0),
        SuperSimError::Panicked {
            stage: Stage::Recombine,
            ..
        }
    ));
    assert!(only_panic[1].as_ref().unwrap().bit_identical_to(&solo[1]));
    let only_error = sweep(mlft_error());
    assert!(only_error[0].as_ref().unwrap().bit_identical_to(&solo[0]));
    assert!(matches!(
        root(&only_error[1], 1),
        SuperSimError::Injected {
            stage: Stage::Mlft,
            ..
        }
    ));

    // A warm rerun of the faulting sweep spawns no worker.
    let spawned = spawned_total();
    assert_both_fail(&sweep(both()), "warm");
    assert_eq!(spawned_total(), spawned);
}
