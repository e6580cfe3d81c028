//! Resilient batch service demo: one flaky job (transient faults on its
//! first two attempts) and one oversized job (rejected by admission
//! control) submitted together — the resilience layer retries the first
//! to success and degrades the second along an error-budget ladder
//! instead of failing it, while the healthy jobs run exactly once.
//!
//! ```sh
//! cargo run --release --example resilient_service
//! ```

use qcir::Circuit;
use std::sync::Arc;
use supersim::{
    AdmissionPolicy, BreakerPolicy, DegradationPolicy, FaultKind, FaultPlan, JobStatus,
    ResiliencePolicy, Stage, SuperSim, SuperSimConfig,
};

fn main() {
    // The incoming batch: two healthy circuits, one deep circuit whose
    // exact recombination sweep is the most expensive (our "oversized"
    // tenant), and a near-Clifford circuit we will make flaky.
    let mut flaky = Circuit::new(2);
    flaky.h(0).t(0).cx(0, 1).h(1).t(1).h(0);
    let circuits = vec![
        workloads::ghz(6),                    // 0: healthy (pure Clifford)
        flaky,                                // 1: transient faults below
        workloads::hwea(5, 2, 1, 41).circuit, // 2: deep, many cuts
        workloads::hwea(4, 1, 2, 44).circuit, // 3: deep, many cuts
    ];

    // Size the admission budget to reject exactly the most expensive
    // plan — the service is "full" for that tenant.
    let probe = SuperSim::new(SuperSimConfig::default());
    let costs: Vec<u64> = circuits
        .iter()
        .map(|c| probe.plan(c).expect("plans").cost().sweep_assignments)
        .collect();
    let max_sweep = *costs.iter().max().unwrap();
    let oversized = costs.iter().position(|&c| c == max_sweep).unwrap();
    println!(
        "per-job sweep assignments: {costs:?} (admission limit {}; job {oversized} oversized)",
        max_sweep - 1
    );

    // Chaos: the flaky job's first evaluation chunk fails on attempts 1
    // and 2, then passes — a worker that recovers, not a broken circuit.
    let config = SuperSimConfig::builder()
        .shots(400)
        .seed(7)
        .faults(Arc::new(FaultPlan::new().inject(
            1,
            Stage::Eval,
            0,
            FaultKind::FailNTimes(2),
        )))
        .admission(AdmissionPolicy {
            max_sweep_assignments: Some(max_sweep - 1),
            ..AdmissionPolicy::default()
        })
        .build()
        .expect("a valid configuration");

    // The resilience policy: 3 attempts with deterministic jittered
    // backoff, an error-budget ladder for load shedding, and a per-plan
    // circuit breaker guarding enqueue.
    let policy = ResiliencePolicy::new()
        .with_degradation(DegradationPolicy::new(vec![0.25, 0.5]).expect("valid ladder"))
        .with_breaker(BreakerPolicy::default());

    let sim = SuperSim::new(config);
    let outcome = sim.run_batch_resilient(&circuits, policy);

    println!("\nper-job outcomes:");
    for (i, status) in outcome.statuses().iter().enumerate() {
        match status {
            JobStatus::Ok { attempts } => println!("  job {i}: ok after {attempts} attempt(s)"),
            JobStatus::Failed { attempts } => {
                println!("  job {i}: FAILED after {attempts} attempt(s)")
            }
        }
    }

    println!("\noperator reports:");
    for i in 0..outcome.len() {
        match outcome.result(i) {
            Ok(run) => {
                println!("--- job {i} ---");
                for line in run.report.render_summary().lines() {
                    println!("  {line}");
                }
            }
            Err(e) => println!("--- job {i} ---\n  error: {e}"),
        }
    }

    // The flaky job retried to success; the oversized job shed a bounded
    // amount of accuracy instead of failing.
    let flaky_run = outcome.result(1).as_ref().expect("retried to success");
    assert_eq!(
        flaky_run.report.attempts, 3,
        "two transient failures + success"
    );
    let shed_run = outcome
        .result(oversized)
        .as_ref()
        .expect("degraded to success");
    let budget = shed_run.report.degraded_budget.expect("ladder applied");
    println!(
        "\njob {oversized} was admitted at error budget {budget} \
         (realized L1 bound {:.3e}, {} assignments skipped)",
        shed_run.report.recombine_error_bound, shed_run.report.assignments_skipped
    );
    assert!(outcome.all_ok(), "every job must complete");
    println!("\nall {} jobs completed; no work was lost.", outcome.len());
}
