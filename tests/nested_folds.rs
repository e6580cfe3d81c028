//! Nested folds under faults. A sweep of two jobs at 8 threads runs its
//! fold over jobs on two workers and each job's evaluation, MLFT and
//! contraction folds on four, nested inside it. The plan has 8 manual cuts,
//! so its contraction runs in 16 chunks and a fault can target chunk 5.
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

#[test]
fn nested_folds_isolate_faults_and_reuse_the_pool() {
    let (circuit, strategy) = chain();
    let base = SuperSimConfig::builder()
        .cut_strategy(strategy)
        .shots(500)
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
            SuperSim::new(base.clone())
                .executor()
                .run_with(&plan, p)
                .unwrap()
        })
        .collect();
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

    // A warm rerun of the nested, faulting sweep spawns no worker.
    let spawned = SuperSim::default().stats().pool.spawned_total;
    assert_both_fail(&sweep(both()), "warm");
    assert_eq!(SuperSim::default().stats().pool.spawned_total, spawned);
}
