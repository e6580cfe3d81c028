//! A resilient batch service written as a caller's loop over the public
//! API. The library runs each batch once; the policy is all here. Each
//! round runs the pending circuits as one `run_batch` and retries
//! transient failures with capped exponential backoff; an
//! admission-rejected job climbs an error-budget ladder through
//! `run_with`; a per-circuit breaker denies attempts after repeated
//! failures. One worker is flaky: its first two rounds fail.
//!
//! ```sh
//! cargo run --release --example resilient_service
//! ```

use qcir::Circuit;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use supersim::{
    ExecParams, FaultKind, FaultPlan, RunResult, Stage, SuperSim, SuperSimConfig, SuperSimError,
};

/// Every count is in attempts, never wall clock, so a schedule is the same
/// on every run and thread count.
struct Policy {
    /// Attempts per job: executions, breaker denials and ladder rungs.
    max_attempts: usize,
    /// The pause before retry round 1, doubled each round up to the cap.
    base_backoff: Duration,
    max_backoff: Duration,
    /// Error budgets a rejected job climbs, smallest first.
    ladder: &'static [f64],
    /// Consecutive failures that open a breaker.
    breaker_threshold: usize,
    /// Attempts an open breaker denies before it lets one trial in.
    breaker_cooldown: usize,
}

const SERVICE: Policy = Policy {
    max_attempts: 3,
    base_backoff: Duration::from_millis(1),
    max_backoff: Duration::from_millis(50),
    ladder: &[0.25, 0.5],
    breaker_threshold: 3,
    breaker_cooldown: 2,
};

impl Policy {
    /// The pause before round `round`; none before the first try.
    fn backoff(&self, round: usize) -> Duration {
        let doublings = (1u32 << round.min(31)) >> 1;
        self.base_backoff
            .saturating_mul(doublings)
            .min(self.max_backoff)
    }
}

/// A worker that injures the first evaluation chunk of these circuits in
/// the service's first `rounds` rounds.
struct Flaky {
    circuits: Vec<usize>,
    rounds: usize,
}

impl Flaky {
    fn new(circuits: &[usize], rounds: usize) -> Self {
        let circuits = circuits.to_vec();
        Flaky { circuits, rounds }
    }
}

/// What the service made of one job.
struct Served {
    result: Result<RunResult, SuperSimError>,
    attempts: usize,
    /// The rung of the ladder that admitted the job.
    degraded: Option<f64>,
}

/// Whether the identical job can succeed on another attempt.
fn is_transient(err: &SuperSimError) -> bool {
    matches!(
        err.root(),
        SuperSimError::Panicked { .. }
            | SuperSimError::DeadlineExceeded { .. }
            | SuperSimError::Injected { .. }
    )
}

/// Closed until `threshold` consecutive failures, then open for
/// `cooldown` denied attempts, then one trial: success closes, failure
/// re-opens.
#[derive(Default)]
struct Breaker {
    failures: usize,
    open: bool,
    denials_left: usize,
}

impl Breaker {
    fn admit(&mut self) -> bool {
        let deny = self.open && self.denials_left > 0;
        self.denials_left -= usize::from(deny);
        !deny
    }

    fn record(&mut self, ok: bool, policy: &Policy) {
        self.failures = if ok { 0 } else { self.failures + 1 };
        self.open = !ok && (self.open || self.failures >= policy.breaker_threshold.max(1));
        self.denials_left = policy.breaker_cooldown * usize::from(self.open);
    }
}

/// Serves `jobs` in rounds until every job has a verdict.
fn serve(cfg: &SuperSimConfig, jobs: &[Circuit], policy: &Policy, flaky: &Flaky) -> Vec<Served> {
    let n = jobs.len();
    // A pending job's outcome is its last error; a served job's, its verdict.
    let mut outcome: Vec<Option<Result<RunResult, SuperSimError>>> = (0..n).map(|_| None).collect();
    let (mut attempts, mut degraded) = (vec![0; n], vec![None; n]);
    let mut breakers: BTreeMap<u64, Breaker> = BTreeMap::new();
    let mut pending: Vec<usize> = (0..n).collect();
    for round in 0.. {
        if pending.is_empty() {
            break;
        }
        std::thread::sleep(policy.backoff(round));
        let (mut batch, mut next) = (Vec::new(), Vec::new());
        for i in pending {
            attempts[i] += 1;
            let breaker = breakers.entry(jobs[i].fingerprint()).or_default();
            if breaker.admit() {
                batch.push(i);
            } else if attempts[i] < policy.max_attempts {
                next.push(i); // denied; out of attempts, it keeps its last error
            }
        }
        // Fault sites are keyed by position in this round's batch.
        let mut round_cfg = cfg.clone();
        if round < flaky.rounds {
            let mut faults = FaultPlan::new();
            for (job, i) in batch.iter().enumerate() {
                if flaky.circuits.contains(i) {
                    faults = faults.inject(job, Stage::Eval, 0, FaultKind::Error);
                }
            }
            round_cfg.faults = Some(Arc::new(faults));
        }
        let sub: Vec<Circuit> = batch.iter().map(|&i| jobs[i].clone()).collect();
        let results = SuperSim::new(round_cfg).run_batch(&sub);
        for (&i, result) in batch.iter().zip(results) {
            outcome[i] = Some(match result {
                Err(e) if matches!(e.root(), SuperSimError::Rejected(_)) => {
                    let (result, rung) = degrade(cfg, &jobs[i], policy, e, &mut attempts[i]);
                    degraded[i] = rung;
                    result
                }
                result => {
                    let retry = matches!(&result, Err(e) if is_transient(e));
                    if retry && attempts[i] < policy.max_attempts {
                        next.push(i);
                    }
                    let breaker = breakers.get_mut(&jobs[i].fingerprint());
                    breaker.expect("gated above").record(result.is_ok(), policy);
                    result
                }
            });
        }
        next.sort_unstable();
        pending = next;
    }
    let served = |((result, attempts), degraded): ((Option<_>, _), _)| Served {
        result: result.expect("every job ran"),
        attempts,
        degraded,
    };
    outcome
        .into_iter()
        .zip(attempts)
        .zip(degraded)
        .map(served)
        .collect()
}

/// Climbs the ladder: each rung is one more attempt, a single run that
/// admission judges by its budget-discounted cost.
fn degrade(
    cfg: &SuperSimConfig,
    circuit: &Circuit,
    policy: &Policy,
    mut last: SuperSimError,
    attempts: &mut usize,
) -> (Result<RunResult, SuperSimError>, Option<f64>) {
    let sim = SuperSim::new(cfg.clone());
    let plan = sim.plan(circuit).expect("a rejected job has a plan");
    for &rung in policy.ladder {
        if *attempts >= policy.max_attempts || !matches!(last.root(), SuperSimError::Rejected(_)) {
            break;
        }
        *attempts += 1;
        let params = ExecParams::from_config(cfg).with_error_budget(rung);
        match sim.executor().run_with(&plan, params) {
            Ok(run) => return (Ok(run), Some(rung)),
            Err(e) => last = e,
        }
    }
    (Err(last), None)
}

fn main() {
    let mut flaky_circuit = Circuit::new(2);
    flaky_circuit.h(0).t(0).cx(0, 1).h(1).t(1).h(0);
    let circuits = [
        workloads::ghz(6),
        flaky_circuit,
        workloads::hwea(5, 2, 1, 41).circuit,
        workloads::hwea(4, 1, 2, 44).circuit,
    ];
    let cfg = SuperSimConfig::builder().shots(400).seed(7).build();
    let direct = SuperSim::new(cfg.expect("a valid configuration"));
    // Admission rejects the most expensive plan: the service is "full".
    let cost = |c| direct.plan(c).expect("plans").cost().sweep_assignments;
    let max_sweep = circuits.iter().map(cost).max().expect("jobs");
    let oversized = circuits.iter().position(|c| cost(c) == max_sweep);
    let oversized = oversized.expect("a most expensive job");
    let mut full = direct.config().clone();
    full.admission.max_sweep_assignments = Some(max_sweep - 1);
    let served = serve(&full, &circuits, &SERVICE, &Flaky::new(&[1], 2));
    for (i, job) in served.iter().enumerate() {
        let (attempts, budget) = (job.attempts, job.degraded);
        match &job.result {
            Ok(run) => println!(
                "job {i}: ok, {attempts} attempt(s), budget {budget:?}\n  {}",
                run.report
            ),
            Err(e) => println!("job {i}: failed, {attempts} attempt(s): {e}"),
        }
    }
    // The flaky job succeeds on attempt 3, bit for bit its clean run.
    let clean = direct.run(&circuits[1]).expect("a clean run");
    assert_eq!(served[1].attempts, 3);
    let retried = served[1].result.as_ref().expect("retried to success");
    assert!(retried.bit_identical_to(&clean));
    // The oversized job sheds bounded accuracy instead of failing, bit for
    // bit a direct run at the rung that admitted it.
    let job = &served[oversized];
    let budget = job.degraded.expect("the ladder applied");
    let params = ExecParams::from_config(direct.config()).with_error_budget(budget);
    let plan = direct.plan(&circuits[oversized]).expect("plans");
    let at_budget = direct.executor().run_with(&plan, params).expect("admitted");
    let shed = job.result.as_ref().expect("degraded to success");
    assert!(shed.bit_identical_to(&at_budget));
    println!("shed job: bit-identical to a direct run at error budget {budget}");
    assert!(served.iter().all(|job| job.result.is_ok()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim::AdmissionPolicy;

    fn mixed_circuits() -> Vec<Circuit> {
        let mut deep = Circuit::new(2);
        deep.h(0).t(0).cx(0, 1).h(1).t(1).h(0);
        vec![
            workloads::hwea(5, 2, 1, 41).circuit,
            deep,
            workloads::qaoa_sk(4, 1, 1, 43).circuit,
            workloads::ghz(6), // pure Clifford: no cuts, one fragment
            workloads::hwea(4, 1, 2, 44).circuit,
        ]
    }

    fn config(threads: usize) -> SuperSimConfig {
        SuperSimConfig {
            shots: 180,
            seed: 2026,
            parallel: threads > 1,
            threads,
            ..SuperSimConfig::default()
        }
    }

    /// Retries without pauses (the attempt schedule does not depend on
    /// them), no ladder and a breaker that never opens.
    fn policy(max_attempts: usize) -> Policy {
        Policy {
            max_attempts,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ladder: &[],
            breaker_threshold: usize::MAX,
            breaker_cooldown: 0,
        }
    }

    fn solo_runs(circuits: &[Circuit]) -> Vec<RunResult> {
        let sim = SuperSim::new(config(1));
        circuits.iter().map(|c| sim.run(c).unwrap()).collect()
    }

    /// `SUPERSIM_TEST_THREADS` pins one pool size; 1, 2 and 8 otherwise.
    fn thread_counts() -> Vec<usize> {
        std::env::var("SUPERSIM_TEST_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .map_or_else(|| vec![1, 2, 8], |t| vec![t])
    }

    fn assert_served_like(solo: &RunResult, job: &Served, label: &str) {
        let run = job
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(run.bit_identical_to(solo), "{label}: not bit-identical");
    }

    /// A job injured in its first two rounds succeeds on attempt 3, bit for
    /// bit its clean run, at 1, 2 and 8 threads; the others run once. The
    /// pauses are on here, so the sleep path runs too.
    #[test]
    fn retried_jobs_recover_bit_identically() {
        let circuits = mixed_circuits();
        let solo = solo_runs(&circuits);
        let flaky = Flaky::new(&[1], 2);
        let policy = Policy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..policy(3)
        };
        for threads in [1, 2, 8] {
            let served = serve(&config(threads), &circuits, &policy, &flaky);
            for (i, job) in served.iter().enumerate() {
                assert_served_like(&solo[i], job, &format!("job {i} at {threads} threads"));
                assert_eq!(job.attempts, if i == 1 { 3 } else { 1 }, "job {i}");
                assert_eq!(job.degraded, None, "job {i}");
            }
        }
    }

    /// The test policy with this backoff base and cap.
    fn capped(base: Duration, max: Duration) -> Policy {
        Policy {
            base_backoff: base,
            max_backoff: max,
            ..policy(3)
        }
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let policy = capped(Duration::from_millis(1), Duration::from_millis(5));
        let pauses: Vec<u64> = (0..6)
            .map(|r| policy.backoff(r).as_millis() as u64)
            .collect();
        assert_eq!(pauses, [0, 1, 2, 4, 5, 5]);
        for round in 0..64 {
            assert_eq!(
                policy.backoff(round),
                policy.backoff(round),
                "round {round}"
            );
            assert!(policy.backoff(round) <= policy.max_backoff, "round {round}");
        }
        let still = capped(Duration::ZERO, Duration::from_millis(5));
        assert_eq!(
            still.backoff(3),
            Duration::ZERO,
            "zero base disables sleeping"
        );
    }

    #[test]
    fn backoff_grows_exponentially() {
        let policy = capped(Duration::from_millis(3), Duration::from_secs(60));
        let b1 = policy.backoff(1);
        assert_eq!(b1, Duration::from_millis(3));
        assert_eq!(policy.backoff(2), 2 * b1, "doubling");
        assert_eq!(policy.backoff(3), 4 * b1, "doubling");
        assert_eq!(policy.backoff(10), 512 * b1, "doubling");
    }

    #[test]
    fn backoff_saturates_at_the_largest_duration() {
        let huge = capped(Duration::MAX, Duration::MAX);
        assert_eq!(huge.backoff(1), Duration::MAX);
        for round in 2..80 {
            assert_eq!(
                huge.backoff(round),
                Duration::MAX,
                "round {round} saturates instead of overflowing"
            );
        }
    }

    #[test]
    fn classification_matches_the_documented_table() {
        use supersim::ConfigError;
        let transient = SuperSimError::Panicked {
            stage: Stage::Eval,
            task: Some(0),
            payload: "boom".into(),
        };
        assert!(is_transient(&transient));
        let elapsed = Duration::from_millis(1);
        assert!(is_transient(&SuperSimError::DeadlineExceeded {
            stage: Stage::Recombine,
            elapsed
        }));
        assert!(is_transient(&SuperSimError::Injected {
            stage: Stage::Eval,
            message: "job 0".into()
        }));
        assert!(!is_transient(&SuperSimError::Cancelled {
            stage: Stage::Eval,
            elapsed
        }));
        assert!(!is_transient(&SuperSimError::Config(
            ConfigError::ZeroShots
        )));
        assert!(!is_transient(&SuperSimError::from(
            cutkit::MlftError::NonFinite
        )));
        // Job context is stripped before classification.
        let wrapped = SuperSimError::Job {
            job: 2,
            fingerprint: 9,
            source: Box::new(transient),
        };
        assert!(is_transient(&wrapped));
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_deterministically() {
        let policy = Policy {
            breaker_threshold: 2,
            breaker_cooldown: 2,
            ..policy(1)
        };
        let mut b = Breaker::default();
        assert!(b.admit());
        b.record(false, &policy);
        assert!(b.admit() && !b.open);
        b.record(false, &policy);
        // Open: exactly two denials, then the half-open trial...
        assert_eq!([b.admit(), b.admit(), b.admit()], [false, false, true]);
        // ...whose failure re-opens with a fresh cool-down...
        b.record(false, &policy);
        assert_eq!([b.admit(), b.admit(), b.admit()], [false, false, true]);
        // ...and whose success closes and resets the streak.
        b.record(true, &policy);
        assert!(!b.open && b.failures == 0 && b.admit());
    }

    /// The breaker timeline of the injured job, identical at 1, 2 and 8
    /// threads: fail, fail (open), denied, trial fails (re-open), denied,
    /// trial succeeds — six attempts, then bit for bit its clean run.
    #[test]
    fn breaker_walks_its_lifecycle_deterministically() {
        let circuits = mixed_circuits();
        let solo = solo_runs(&circuits);
        let flaky = Flaky::new(&[1], 4);
        let policy = Policy {
            breaker_threshold: 2,
            breaker_cooldown: 1,
            ..policy(6)
        };
        for threads in [1, 2, 8] {
            let served = serve(&config(threads), &circuits, &policy, &flaky);
            for (i, job) in served.iter().enumerate() {
                assert_served_like(&solo[i], job, &format!("job {i} at {threads} threads"));
                assert_eq!(job.attempts, if i == 1 { 6 } else { 1 }, "job {i}");
            }
        }
    }

    /// A budget that runs out while the breaker is open keeps the last
    /// error the job itself met.
    #[test]
    fn exhausted_budget_keeps_the_last_error() {
        let circuits = mixed_circuits();
        let flaky = Flaky::new(&[1], usize::MAX);
        let policy = Policy {
            breaker_threshold: 2,
            breaker_cooldown: 4,
            ..policy(3)
        };
        let served = serve(&config(2), &circuits, &policy, &flaky);
        assert_eq!(served[1].attempts, 3, "fail, fail (open), denied");
        let err = served[1].result.as_ref().unwrap_err();
        assert!(
            matches!(err.root(), SuperSimError::Injected { .. }),
            "{err}"
        );
    }

    /// An admission-rejected job escalates to the ladder's first rung and
    /// completes on attempt 2, bit for bit a direct run at that budget; the
    /// others run once, untouched, at 1, 2 and 8 threads.
    #[test]
    fn degradation_rescues_rejected_jobs() {
        let circuits = mixed_circuits();
        let solo = solo_runs(&circuits);
        let sim = SuperSim::new(config(1));
        let costs: Vec<u64> = circuits
            .iter()
            .map(|c| sim.plan(c).unwrap().cost().sweep_assignments)
            .collect();
        let max_sweep = *costs.iter().max().unwrap();
        assert!(max_sweep > 1, "need a cut circuit to exercise rejection");
        let rung = 0.5;
        let policy = Policy {
            ladder: &[0.5, 0.9],
            ..policy(3)
        };
        for threads in [1, 2, 8] {
            let limited = SuperSimConfig {
                admission: AdmissionPolicy {
                    max_sweep_assignments: Some(max_sweep - 1),
                    ..AdmissionPolicy::default()
                },
                ..config(threads)
            };
            let served = serve(&limited, &circuits, &policy, &Flaky::new(&[], 0));
            for (i, job) in served.iter().enumerate() {
                let label = format!("job {i} at {threads} threads");
                if costs[i] == max_sweep {
                    let params = ExecParams::from_config(sim.config()).with_error_budget(rung);
                    let budgeted = sim
                        .executor()
                        .run_with(&sim.plan(&circuits[i]).unwrap(), params)
                        .unwrap();
                    assert_served_like(&budgeted, job, &label);
                    assert_eq!((job.attempts, job.degraded), (2, Some(rung)), "{label}");
                } else {
                    assert_served_like(&solo[i], job, &label);
                    assert_eq!((job.attempts, job.degraded), (1, None), "{label}");
                }
            }
        }
    }

    /// A failure that reproduces is never retried: a circuit too wide to
    /// evaluate uncut fails on its one attempt, and its sibling is served.
    #[test]
    fn permanent_failures_fail_fast() {
        let mut too_wide = Circuit::new(svsim::MAX_QUBITS + 1);
        too_wide.t(0);
        let circuits = vec![mixed_circuits().swap_remove(1), too_wide];
        let uncut = SuperSimConfig {
            cut_strategy: supersim::CutStrategy::None,
            ..config(2)
        };
        let served = serve(&uncut, &circuits, &policy(5), &Flaky::new(&[], 0));
        assert_served_like(
            &SuperSim::new(uncut.clone()).run(&circuits[0]).unwrap(),
            &served[0],
            "sibling",
        );
        assert_eq!(served[1].attempts, 1);
        let err = served[1].result.as_ref().unwrap_err();
        assert!(matches!(err.root(), SuperSimError::Eval(_)), "{err}");
    }

    /// Two identical calls give identical attempt counts and results, bit
    /// for bit: the retry loop is as deterministic as the batch it runs.
    #[test]
    fn resilient_runs_are_reproducible() {
        let circuits = mixed_circuits();
        let injured: Vec<usize> = FaultPlan::scattered(7, circuits.len(), 2)
            .iter()
            .map(|(job, ..)| job)
            .collect();
        let flaky = Flaky::new(&injured, 1);
        let a = serve(&config(8), &circuits, &policy(3), &flaky);
        let b = serve(&config(8), &circuits, &policy(3), &flaky);
        for (i, (a, b)) in a.iter().zip(&b).enumerate() {
            assert_eq!(a.attempts, b.attempts, "job {i}");
            let a = a.result.as_ref().unwrap_or_else(|e| panic!("job {i}: {e}"));
            assert_served_like(a, b, &format!("job {i}"));
        }
        let retried = a.iter().filter(|job| job.attempts == 2).count();
        assert_eq!(retried, 2, "both injured jobs retry once");
    }

    /// Seed-scattered flaky jobs (`SUPERSIM_FAULT_SEED` picks them) all
    /// recover, bit for bit their clean runs, with the same attempt counts
    /// at every thread count and on a second identical call.
    #[test]
    fn scattered_transient_faults_recover_across_thread_counts() {
        let circuits = mixed_circuits();
        let solo = solo_runs(&circuits);
        let seed = std::env::var("SUPERSIM_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0FFEE);
        let injured: Vec<usize> = FaultPlan::scattered(seed, circuits.len(), 3)
            .iter()
            .map(|(job, ..)| job)
            .collect();
        let flaky = Flaky::new(&injured, 2);
        let attempts = |threads| {
            let served = serve(&config(threads), &circuits, &policy(3), &flaky);
            for (i, job) in served.iter().enumerate() {
                assert_served_like(
                    &solo[i],
                    job,
                    &format!("job {i} at {threads} threads (seed {seed})"),
                );
            }
            served.iter().map(|job| job.attempts).collect::<Vec<_>>()
        };
        let reference = attempts(1);
        assert_eq!(
            reference.iter().filter(|&&a| a == 3).count(),
            3,
            "{reference:?}"
        );
        for threads in thread_counts() {
            assert_eq!(attempts(threads), reference, "at {threads} threads");
            assert_eq!(attempts(threads), reference, "again at {threads} threads");
        }
    }
}
