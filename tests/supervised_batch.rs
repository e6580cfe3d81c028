//! Chaos suite for the supervised batch scheduler: deterministic fault
//! injection against `run_batch` at explicit pool sizes (1, 2, 8).
//!
//! The contract under test: a batch where individual jobs panic, exceed
//! deadlines, are cancelled, or are rejected by admission control still
//! completes every *surviving* job **bit-identically** to an independent
//! sequential `SuperSim::run`, at every thread count — and every failed
//! job reports a typed, schedule-independent error naming its batch
//! index, circuit fingerprint, stage, and (for deterministic fault
//! sources) the earliest faulting task.

use qcir::Circuit;
use std::sync::{Arc, Once};
use std::time::Duration;
use supersim::{
    AdmissionPolicy, CancelToken, ExecParams, FaultKind, FaultPlan, RunResult, Stage, SuperSim,
    SuperSimConfig, SuperSimError,
};

/// Suppresses the default panic-hook backtrace noise for *injected*
/// panics (they are the point of this suite), leaving real panics loud.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected fault") {
                default(info);
            }
        }));
    });
}

fn assert_bit_identical(a: &RunResult, b: &RunResult, label: &str) {
    assert!(a.bit_identical_to(b), "{label}: runs are not bit-identical");
}

fn mixed_circuits() -> Vec<Circuit> {
    let mut deep = Circuit::new(2);
    deep.h(0).t(0).cx(0, 1).h(1).t(1).h(0);
    vec![
        workloads::hwea(5, 2, 1, 41).circuit,
        deep,
        workloads::qaoa_sk(4, 1, 1, 43).circuit,
        workloads::ghz(6), // pure Clifford: no cuts, single fragment
        workloads::hwea(4, 1, 2, 44).circuit,
    ]
}

fn base_config() -> SuperSimConfig {
    SuperSimConfig {
        shots: 180,
        seed: 2026,
        mlft: true,
        ..SuperSimConfig::default()
    }
}

fn solo_runs(circuits: &[Circuit]) -> Vec<RunResult> {
    circuits
        .iter()
        .map(|c| SuperSim::new(base_config()).run(c).unwrap())
        .collect()
}

fn batch_at(
    threads: usize,
    cfg: &SuperSimConfig,
    circuits: &[Circuit],
) -> Vec<Result<RunResult, SuperSimError>> {
    SuperSim::new(SuperSimConfig {
        parallel: threads > 1,
        threads,
        ..cfg.clone()
    })
    .run_batch(circuits)
}

/// Unwraps the `Job` context layer, asserting it matches the batch index.
fn job_error(result: &Result<RunResult, SuperSimError>, job: usize) -> &SuperSimError {
    match result {
        Err(e @ SuperSimError::Job { job: j, .. }) => {
            assert_eq!(*j, job, "error reports wrong batch index: {e}");
            e.root()
        }
        Err(other) => panic!("job {job}: error missing Job context: {other}"),
        Ok(_) => panic!("job {job}: expected a failure"),
    }
}

/// An injected panic in one job's evaluation is caught at the task
/// boundary: the job reports `Panicked` (stage + chunk), every other job
/// completes bit-identically, at every pool size.
#[test]
fn injected_eval_panic_isolates_the_job() {
    quiet_injected_panics();
    let circuits = mixed_circuits();
    let solo = solo_runs(&circuits);
    let cfg = SuperSimConfig {
        faults: Some(Arc::new(FaultPlan::new().inject(
            1,
            Stage::Eval,
            0,
            FaultKind::Panic,
        ))),
        ..base_config()
    };
    for threads in [1usize, 2, 8] {
        let batch = batch_at(threads, &cfg, &circuits);
        match job_error(&batch[1], 1) {
            SuperSimError::Panicked {
                stage: Stage::Eval,
                task: Some(0),
                payload,
            } => assert!(payload.contains("injected fault"), "payload: {payload}"),
            other => panic!("expected eval panic at chunk 0, got {other}"),
        }
        for (i, s) in solo.iter().enumerate() {
            if i != 1 {
                assert_bit_identical(
                    s,
                    batch[i].as_ref().unwrap(),
                    &format!("survivor {i} at {threads} threads"),
                );
            }
        }
    }
}

/// Injected *errors* at several chunks of one job: the reported fault is
/// the earliest chunk in chunk order, on every schedule.
#[test]
fn injected_error_reports_earliest_chunk_on_every_schedule() {
    let circuits = mixed_circuits();
    let faults = FaultPlan::new()
        .inject(0, Stage::Eval, 2, FaultKind::Error)
        .inject(0, Stage::Eval, 1, FaultKind::Error)
        .inject(0, Stage::Eval, 0, FaultKind::Error);
    let cfg = SuperSimConfig {
        faults: Some(Arc::new(faults)),
        ..base_config()
    };
    let mut rendered: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        let batch = batch_at(threads, &cfg, &circuits);
        match job_error(&batch[0], 0) {
            SuperSimError::Injected {
                stage: Stage::Eval,
                message,
            } => {
                assert!(message.contains("task 0"), "earliest chunk wins: {message}");
            }
            other => panic!("expected injected eval error, got {other}"),
        }
        rendered.push(batch[0].as_ref().unwrap_err().to_string());
    }
    // The full rendered error (index, fingerprint, stage, task) is
    // schedule-independent.
    assert_eq!(rendered[0], rendered[1]);
    assert_eq!(rendered[0], rendered[2]);
}

/// Panics injected into the MLFT and recombination stages of different
/// jobs are isolated simultaneously; the failures are typed per stage.
#[test]
fn mlft_and_recombine_panics_are_isolated() {
    quiet_injected_panics();
    let circuits = mixed_circuits();
    let solo = solo_runs(&circuits);
    let faults = FaultPlan::new()
        .inject(0, Stage::Mlft, 0, FaultKind::Panic)
        .inject(2, Stage::Recombine, 0, FaultKind::Panic);
    let cfg = SuperSimConfig {
        faults: Some(Arc::new(faults)),
        ..base_config()
    };
    for threads in [1usize, 2, 8] {
        let batch = batch_at(threads, &cfg, &circuits);
        match job_error(&batch[0], 0) {
            SuperSimError::Panicked {
                stage: Stage::Mlft,
                task: Some(0),
                ..
            } => {}
            other => panic!("expected MLFT panic at fragment 0, got {other}"),
        }
        match job_error(&batch[2], 2) {
            SuperSimError::Panicked {
                stage: Stage::Recombine,
                ..
            } => {}
            other => panic!("expected recombination panic, got {other}"),
        }
        for (i, s) in solo.iter().enumerate() {
            if i != 0 && i != 2 {
                assert_bit_identical(
                    s,
                    batch[i].as_ref().unwrap(),
                    &format!("survivor {i} at {threads} threads"),
                );
            }
        }
    }
}

/// A zero job deadline interrupts every job at its first
/// checkpoint with a typed `DeadlineExceeded`.
#[test]
fn zero_job_deadline_interrupts_every_job() {
    let circuits = mixed_circuits();
    let cfg = SuperSimConfig {
        job_deadline: Some(Duration::ZERO),
        ..base_config()
    };
    for threads in [1usize, 2, 8] {
        for (i, r) in batch_at(threads, &cfg, &circuits).iter().enumerate() {
            match job_error(r, i) {
                SuperSimError::DeadlineExceeded { .. } => {}
                other => panic!("job {i} at {threads} threads: expected deadline, got {other}"),
            }
        }
    }
}

/// A fault-plan deadline override hits exactly its target job; neighbours
/// stay bit-identical.
#[test]
fn fault_plan_deadline_targets_one_job() {
    let circuits = mixed_circuits();
    let solo = solo_runs(&circuits);
    let cfg = SuperSimConfig {
        faults: Some(Arc::new(
            FaultPlan::new().with_job_deadline(2, Duration::ZERO),
        )),
        ..base_config()
    };
    for threads in [1usize, 2, 8] {
        let batch = batch_at(threads, &cfg, &circuits);
        match job_error(&batch[2], 2) {
            SuperSimError::DeadlineExceeded {
                stage: Stage::Eval, ..
            } => {}
            other => panic!("expected eval-stage deadline, got {other}"),
        }
        for (i, s) in solo.iter().enumerate() {
            if i != 2 {
                assert_bit_identical(
                    s,
                    batch[i].as_ref().unwrap(),
                    &format!("survivor {i} at {threads} threads"),
                );
            }
        }
    }
}

/// A pre-cancelled shared token stops every job at its first checkpoint.
#[test]
fn pre_cancelled_token_stops_the_batch() {
    let circuits = mixed_circuits();
    let token = CancelToken::new();
    token.cancel();
    let cfg = SuperSimConfig {
        cancel: Some(token),
        ..base_config()
    };
    for (i, r) in batch_at(4, &cfg, &circuits).iter().enumerate() {
        match job_error(r, i) {
            SuperSimError::Cancelled { .. } => {}
            other => panic!("job {i}: expected cancellation, got {other}"),
        }
    }
}

/// Admission control: the most expensive plan is rejected before running
/// (typed error naming the quantity and budget), and the admitted jobs
/// stay bit-identical.
#[test]
fn admission_rejects_the_most_expensive_plan() {
    let circuits = mixed_circuits();
    let solo = solo_runs(&circuits);
    let sim = SuperSim::new(base_config());
    let costs: Vec<_> = circuits
        .iter()
        .map(|c| sim.plan(c).unwrap().cost())
        .collect();
    let max_sweep = costs.iter().map(|c| c.sweep_assignments).max().unwrap();
    assert!(max_sweep > 1, "need a cut circuit to exercise rejection");
    let rejected: Vec<usize> = (0..circuits.len())
        .filter(|&i| costs[i].sweep_assignments >= max_sweep)
        .collect();
    let cfg = SuperSimConfig {
        admission: AdmissionPolicy {
            max_sweep_assignments: Some(max_sweep - 1),
            ..AdmissionPolicy::default()
        },
        ..base_config()
    };
    for threads in [1usize, 2, 8] {
        let batch = batch_at(threads, &cfg, &circuits);
        for (i, s) in solo.iter().enumerate() {
            if rejected.contains(&i) {
                match job_error(&batch[i], i) {
                    SuperSimError::Rejected(e) => {
                        assert_eq!(e.quantity, "sweep assignments");
                        assert_eq!(e.actual, max_sweep);
                        assert_eq!(e.limit, max_sweep - 1);
                    }
                    other => panic!("job {i}: expected admission rejection, got {other}"),
                }
            } else {
                assert_bit_identical(
                    s,
                    batch[i].as_ref().unwrap(),
                    &format!("admitted job {i} at {threads} threads"),
                );
            }
        }
    }
}

/// The acceptance scenario: one job panics, one exceeds its deadline, one
/// is admission-rejected — and every remaining job completes
/// bit-identically to sequential runs at 1, 2, and 8 threads, with typed
/// per-job errors throughout.
#[test]
fn acceptance_panic_deadline_rejection_batch() {
    quiet_injected_panics();
    let circuits = mixed_circuits();
    let solo = solo_runs(&circuits);
    let sim = SuperSim::new(base_config());
    let costs: Vec<_> = circuits
        .iter()
        .map(|c| sim.plan(c).unwrap().cost())
        .collect();
    // Reject the most expensive plan among jobs 2.. so the rejection
    // never collides with the panic (job 0) or deadline (job 1) targets.
    let reject = (2..circuits.len())
        .max_by_key(|&i| costs[i].sweep_assignments)
        .unwrap();
    let budget = costs[reject].sweep_assignments - 1;
    assert!(
        (0..circuits.len())
            .filter(|&i| costs[i].sweep_assignments > budget)
            .count()
            == 1,
        "rejection budget must single out job {reject}"
    );
    let cfg = SuperSimConfig {
        faults: Some(Arc::new(
            FaultPlan::new()
                .inject(0, Stage::Eval, 0, FaultKind::Panic)
                .with_job_deadline(1, Duration::ZERO),
        )),
        admission: AdmissionPolicy {
            max_sweep_assignments: Some(budget),
            ..AdmissionPolicy::default()
        },
        ..base_config()
    };
    for threads in [1usize, 2, 8] {
        let batch = batch_at(threads, &cfg, &circuits);
        assert!(matches!(
            job_error(&batch[0], 0),
            SuperSimError::Panicked {
                stage: Stage::Eval,
                ..
            }
        ));
        assert!(matches!(
            job_error(&batch[1], 1),
            SuperSimError::DeadlineExceeded { .. }
        ));
        assert!(matches!(
            job_error(&batch[reject], reject),
            SuperSimError::Rejected(_)
        ));
        for (i, s) in solo.iter().enumerate() {
            if i != 0 && i != 1 && i != reject {
                assert_bit_identical(
                    s,
                    batch[i].as_ref().unwrap(),
                    &format!("survivor {i} at {threads} threads"),
                );
            }
        }
    }
}

/// Seed-scattered fault plans (the CI fault matrix drives the seed via
/// `SUPERSIM_FAULT_SEED` and the pool sizes via `SUPERSIM_TEST_THREADS`):
/// whatever the schedule, each job's outcome — success or rendered error
/// — is identical at every thread count, and survivors stay bit-identical
/// to sequential runs.
#[test]
fn scattered_faults_deterministic_across_thread_counts() {
    quiet_injected_panics();
    let circuits = mixed_circuits();
    let solo = solo_runs(&circuits);
    let seed = std::env::var("SUPERSIM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    let threads: Vec<usize> = std::env::var("SUPERSIM_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .map(|t: usize| vec![t])
        .unwrap_or_else(|| vec![1, 2, 8]);
    let cfg = SuperSimConfig {
        faults: Some(Arc::new(FaultPlan::scattered(seed, circuits.len(), 3))),
        ..base_config()
    };
    let reference = batch_at(1, &cfg, &circuits);
    for &t in &threads {
        let batch = batch_at(t, &cfg, &circuits);
        for (i, (r, base)) in batch.iter().zip(&reference).enumerate() {
            match (r, base) {
                (Ok(a), Ok(b)) => {
                    assert_bit_identical(a, b, &format!("job {i} at {t} threads vs 1 thread"));
                    assert_bit_identical(a, &solo[i], &format!("job {i} at {t} threads vs solo"));
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "job {i} error at {t} threads");
                }
                _ => panic!("job {i}: outcome differs between 1 and {t} threads (seed {seed})"),
            }
        }
    }
}

/// The fault plan of the re-run tests: an injected error at the first
/// evaluation chunk of jobs 1 and 3.
fn errors_at_jobs_1_and_3(threads: usize) -> SuperSimConfig {
    SuperSimConfig {
        parallel: threads > 1,
        threads,
        faults: Some(Arc::new(
            FaultPlan::new()
                .inject(1, Stage::Eval, 0, FaultKind::Error)
                .inject(3, Stage::Eval, 0, FaultKind::Error),
        )),
        ..base_config()
    }
}

/// A job that failed under an injected error, re-run without the fault as
/// a sub-batch on the same instance (its plan is a cache hit), is
/// bit-identical to its clean solo run at 1, 2 and 8 threads — the
/// contract a caller's retry loop relies on. Errors index the sub-batch:
/// the plan still injures job 1, which in the re-run is circuit 3.
#[test]
fn failed_jobs_rerun_as_a_sub_batch_match_clean_runs() {
    let circuits = mixed_circuits();
    let solo = solo_runs(&circuits);
    for threads in [1usize, 2, 8] {
        let sim = SuperSim::new(errors_at_jobs_1_and_3(threads));
        let first = sim.run_batch(&circuits);
        let failed: Vec<usize> = (0..circuits.len()).filter(|&i| first[i].is_err()).collect();
        assert_eq!(failed, [1, 3], "at {threads} threads");
        for &i in &failed {
            let err = job_error(&first[i], i);
            assert!(matches!(err, SuperSimError::Injected { .. }), "{err}");
        }
        let sub: Vec<Circuit> = failed.iter().map(|&i| circuits[i].clone()).collect();
        let second = sim.run_batch(&sub);
        let rerun = second[0].as_ref().unwrap();
        assert!(rerun.report.plan_cache_hit);
        assert_bit_identical(&solo[1], rerun, &format!("job 1 at {threads} threads"));
        let err = job_error(&second[1], 1);
        assert!(matches!(err, SuperSimError::Injected { .. }), "{err}");
        // Alone, circuit 3 is job 0, where nothing is injected.
        let third = sim.run_batch(&sub[1..]);
        let rerun = third[0].as_ref().unwrap();
        assert!(rerun.report.plan_cache_hit);
        assert_bit_identical(&solo[3], rerun, &format!("job 3 at {threads} threads"));
    }
}

/// The sweep counterpart: points that failed under an injected error,
/// re-run as a sub-slice of the points over the same plan, are
/// bit-identical to clean solo runs at 1, 2 and 8 threads, and errors
/// index the sub-slice.
#[test]
fn failed_points_rerun_as_a_sub_slice_match_clean_runs() {
    let circuit = mixed_circuits().swap_remove(1);
    let points: Vec<ExecParams> = (0..5)
        .map(|i| ExecParams::from_config(&base_config()).with_seed(300 + i))
        .collect();
    let solo: Vec<RunResult> = points
        .iter()
        .map(|p| {
            SuperSim::new(SuperSimConfig {
                seed: p.seed,
                ..base_config()
            })
            .run(&circuit)
            .unwrap()
        })
        .collect();
    for threads in [1usize, 2, 8] {
        let sim = SuperSim::new(errors_at_jobs_1_and_3(threads));
        let plan = sim.plan(&circuit).unwrap();
        let first = sim.executor().run_sweep(&plan, &points);
        let failed: Vec<usize> = (0..points.len()).filter(|&i| first[i].is_err()).collect();
        assert_eq!(failed, [1, 3], "at {threads} threads");
        for &i in &failed {
            let err = job_error(&first[i], i);
            assert!(matches!(err, SuperSimError::Injected { .. }), "{err}");
        }
        let sub: Vec<ExecParams> = failed.iter().map(|&i| points[i]).collect();
        let second = sim.executor().run_sweep(&plan, &sub);
        assert_bit_identical(
            &solo[1],
            second[0].as_ref().unwrap(),
            &format!("point 1 at {threads} threads"),
        );
        let err = job_error(&second[1], 1);
        assert!(matches!(err, SuperSimError::Injected { .. }), "{err}");
        let third = sim.executor().run_sweep(&plan, &sub[1..]);
        assert_bit_identical(
            &solo[3],
            third[0].as_ref().unwrap(),
            &format!("point 3 at {threads} threads"),
        );
    }
}
