//! The one driver behind every run entry point.
//!
//! A run is a set of *slots*, one per job: a plan, its [`ExecParams`], the
//! job's batch index and its retry bookkeeping. [`drive`] runs the slots
//! under a [`ResiliencePolicy`] in rounds — breaker gate, backoff, one
//! [`execute_jobs`] call over every admitted slot, record — until each
//! slot has a verdict. Every public entry point is a thin wrapper over it:
//!
//! * [`SuperSim::run_batch`](crate::SuperSim::run_batch) and
//!   [`Executor::run_sweep`](crate::Executor::run_sweep) drive with a
//!   one-attempt policy (no backoff, ladder or breaker), which is exactly
//!   one round and one `execute_jobs` call;
//! * [`SuperSim::run`](crate::SuperSim::run),
//!   [`Executor::run`](crate::Executor::run) and
//!   [`Executor::run_with`](crate::Executor::run_with) drive one slot that
//!   way and strip the [`SuperSimError::Job`] context from its error;
//! * [`SuperSim::run_batch_resilient`](crate::SuperSim::run_batch_resilient)
//!   and [`Executor::run_sweep_resilient`](crate::Executor::run_sweep_resilient)
//!   drive with the caller's policy and keep the slots in a
//!   [`BatchOutcome`] for [`BatchOutcome::resume`].
//!
//! A job is three calls in order: cutkit's evaluation driver
//! ([`cutkit::evaluate_fragment_tensors_planned`]), its MLFT driver
//! ([`cutkit::correct_tensors`]) and recombination ([`finish_run`]). A
//! round is a [`runtime::fold_ordered`] over its jobs, so production runs
//! exactly the drivers the benchmark harness and cutkit's reference-parity
//! tests exercise.
//!
//! # Work split
//!
//! With `W` the configured worker count and `n` jobs in a round, the fold
//! over jobs runs on `min(W, n)` workers, and each job's evaluation, MLFT
//! and contraction folds run on `max(1, W / n)` workers nested inside it.
//! A single job — `run`, `run_with`, a solo job — therefore keeps all `W`.
//!
//! # Supervision
//!
//! Before anything in a round runs, every job's [`PlanCost`](crate::PlanCost)
//! is judged by the configured [`AdmissionPolicy`](crate::AdmissionPolicy):
//! rejected jobs record [`SuperSimError::Rejected`] without running, and
//! sequentialized jobs run alone, with all `W` workers, after the pooled
//! phase. Every job's [`Supervisor`] — job index, attempt, cancel token,
//! per-job and batch deadlines, fault plan — is built before the first job
//! of its phase starts; the batch deadline counts from the start of the
//! round. The drivers check the supervisor at every evaluation chunk, MLFT
//! fragment and contraction chunk. A panic inside a chunk or fragment is
//! that task's typed error inside its driver's fold, so the job reports
//! [`SuperSimError::Panicked`] naming the lowest panicking task on every
//! schedule; a panic outside any task — in a merge or in recombination — is
//! caught at the job and reported for the stage the job was in. The pool
//! and the other jobs are unaffected.
//!
//! # Determinism
//!
//! Each job's output is a function of the job alone: the drivers fold in
//! index order for every worker count, and per-job RNG streams are derived
//! from the job's own seed exactly as single runs derive them. So every
//! job is **bit-identical to an independent sequential
//! [`SuperSim::run`](crate::SuperSim::run)** with the same parameters,
//! whichever phase or round runs it and however many jobs share it, and a
//! failing job reports the earliest failing task in task order, as that
//! run would. Gating and recording happen in slot order between rounds,
//! never concurrently, so breaker evolution, degradation and attempt
//! accounting are the same on every schedule and thread count.

use super::cache::PlanCache;
use super::execute::{
    base_seeds, eval_options, finish_run, mlft_enabled, resolved_error_budget, tensor_options,
    worker_threads, ExecParams, RunResult,
};
use super::plan::CutPlan;
use super::resilience::{
    degradation_trigger, is_transient, BreakerPolicy, BreakerState, ResiliencePolicy, RetryPolicy,
};
use super::supervise::Admission;
use super::{eval_error, mlft_error, ConfigError, SuperSimConfig, SuperSimError};
use cutkit::{
    correct_tensors, evaluate_fragment_tensors_planned, CutError, FragmentTensor, MlftOptions,
};
use faultkit::{lock_or_recover, panic_message, splitmix64, Stage, Supervisor};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One unit of a round: a plan executed with one set of parameters.
struct BatchJob<'p> {
    plan: &'p CutPlan,
    params: ExecParams,
    /// The job's supervision id — the index fault plans target and error
    /// context reports: the caller-visible batch position (circuit index
    /// for `run_batch`, point index for `run_sweep`), stable across
    /// retries so a fault plan follows its job through every attempt.
    index: usize,
    /// Zero-based execution attempt (0 = first try), forwarded to the
    /// job's [`Supervisor`] so attempt-aware transient faults
    /// ([`faultkit::FaultKind::FailNTimes`]) see retries.
    attempt: usize,
}

/// Executes one round's jobs under the supervision layer (see the module
/// docs) and returns per-job results in job order, without
/// [`SuperSimError::Job`] context — the driver attaches it.
fn execute_jobs(
    config: &SuperSimConfig,
    jobs: &[BatchJob<'_>],
) -> Vec<Result<RunResult, SuperSimError>> {
    let batch_deadline_at = config.batch_deadline.map(|d| Instant::now() + d);
    // Admission control: judge every job before any runs.
    let mut results: Vec<Option<Result<RunResult, SuperSimError>>> =
        jobs.iter().map(|_| None).collect();
    let mut pooled: Vec<usize> = Vec::with_capacity(jobs.len());
    let mut solo: Vec<usize> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        // A sampled run with no shots has no data to reconstruct from;
        // refuse it here, where every entry point's parameters resolve.
        if !config.exact && job.params.shots == 0 {
            results[i] = Some(Err(SuperSimError::Config(ConfigError::ZeroShots)));
            continue;
        }
        // Admission judges the budget-discounted cost: a job whose error
        // budget will truncate most of its sweep should not be rejected
        // (or sequentialized) on the exact sweep's assignment count.
        let cost = job
            .plan
            .cost()
            .with_error_budget(resolved_error_budget(config, job.params));
        match config.admission.admit(&cost) {
            Admission::Admit => pooled.push(i),
            Admission::Solo => solo.push(i),
            Admission::Reject(e) => results[i] = Some(Err(SuperSimError::Rejected(e))),
        }
    }
    // Pooled phase: the admitted jobs share the workers; then the
    // sequentialized jobs run one at a time, each with every worker. A
    // job's result does not depend on the phase that runs it.
    run_jobs(config, jobs, &pooled, batch_deadline_at, &mut results);
    for &i in &solo {
        run_jobs(config, jobs, &[i], batch_deadline_at, &mut results);
    }
    results
        .into_iter()
        .map(|r| r.expect("every job records a result"))
        .collect()
}

/// Runs the jobs selected by `subset` (indices into `jobs`) as one fold
/// and records their results.
fn run_jobs(
    config: &SuperSimConfig,
    jobs: &[BatchJob<'_>],
    subset: &[usize],
    batch_deadline_at: Option<Instant>,
    results: &mut [Option<Result<RunResult, SuperSimError>>],
) {
    // Every supervisor exists before the first job starts, so per-job
    // deadlines count from here, not from when a worker reaches the job.
    let supervisors: Vec<Supervisor> = subset
        .iter()
        .map(|&i| supervisor(config, &jobs[i], batch_deadline_at))
        .collect();
    let workers = worker_threads(config);
    let per_job = (workers / subset.len().max(1)).max(1);
    // A failure stays with its job, so the fold itself never fails.
    let Ok(done) = runtime::fold_ordered(
        workers,
        subset.len(),
        Vec::with_capacity(subset.len()),
        || (),
        |j, _| Ok::<_, Infallible>(run_job(config, &jobs[subset[j]], &supervisors[j], per_job)),
        |done, result| done.push(result),
    );
    for (&i, result) in subset.iter().zip(done) {
        results[i] = Some(result);
    }
}

/// A job's supervision context, keyed by [`BatchJob::index`] — the job's
/// position in the caller's batch, independent of which phase or retry
/// attempt runs it.
fn supervisor(
    config: &SuperSimConfig,
    job: &BatchJob<'_>,
    batch_deadline_at: Option<Instant>,
) -> Supervisor {
    let mut supervisor = Supervisor::for_job(job.index).with_attempt(job.attempt);
    if let Some(token) = &config.cancel {
        supervisor = supervisor.with_cancel(token.clone());
    }
    if let Some(deadline) = job.params.deadline.or(config.job_deadline) {
        supervisor = supervisor.with_timeout(deadline);
    }
    if let Some(at) = batch_deadline_at {
        supervisor = supervisor.with_deadline_at(at);
    }
    if let Some(faults) = &config.faults {
        supervisor = supervisor.with_faults(Arc::clone(faults));
    }
    supervisor
}

/// One job: evaluation, MLFT, recombination, each on `threads` workers.
fn run_job(
    config: &SuperSimConfig,
    job: &BatchJob<'_>,
    supervisor: &Supervisor,
    threads: usize,
) -> Result<RunResult, SuperSimError> {
    let plan = job.plan;
    let started = Instant::now();
    let mut tensors = in_stage(Stage::Eval, || {
        evaluate_fragment_tensors_planned(
            &plan.cut.fragments,
            &plan.eval_plans,
            &eval_options(config, job.params, supervisor.clone()),
            &tensor_options(config),
            &base_seeds(job.params.seed, plan.num_fragments()),
            threads,
        )
        .map_err(|e| eval_error(e, supervisor))
    })?;
    let mlft_moved = if mlft_enabled(config) {
        let opts = MlftOptions {
            supervisor: supervisor.clone(),
            ..MlftOptions::default()
        };
        in_stage(Stage::Mlft, || {
            correct_tensors(&mut tensors, &opts, threads).map_err(|e| mlft_error(e, supervisor))
        })?
    } else {
        0.0
    };
    let eval_time = started.elapsed();
    let enumerated = tensors
        .iter()
        .map(FragmentTensor::enumerated_variants)
        .sum();
    in_stage(Stage::Recombine, || {
        finish_run(
            config,
            plan,
            tensors,
            enumerated,
            mlft_moved,
            eval_time,
            threads,
            resolved_error_budget(config, job.params),
            supervisor,
        )
    })
}

/// Runs one stage of a job, reporting a panic that escaped every task — a
/// merge, recombination — as [`SuperSimError::Panicked`] for that stage.
fn in_stage<T>(
    stage: Stage,
    body: impl FnOnce() -> Result<T, SuperSimError>,
) -> Result<T, SuperSimError> {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        Err(SuperSimError::Panicked {
            stage,
            task: None,
            payload: panic_message(payload.as_ref()),
        })
    })
}

/// Builds every circuit's plan — cache-first, then on the configured pool
/// size when rebuilding pays: plans are independent and placed by index,
/// so the output is identical to the sequential loop for any worker
/// count. Parallelizing this matters because cutting *is* the dominant
/// stage for cut-bound batches — a serial planning pass would serialize
/// exactly the cost the batch front-end exists to amortize. The `bool` in
/// each result reports whether the plan came from the cache (planning is
/// deterministic, so hits are bit-identical in effect to rebuilds).
fn build_plans(
    config: &SuperSimConfig,
    cache: &PlanCache,
    circuits: &[qcir::Circuit],
) -> Vec<(Result<Arc<CutPlan>, CutError>, bool)> {
    let strategy = &config.cut_strategy;
    let mut out: Vec<Option<(Result<Arc<CutPlan>, CutError>, bool)>> = circuits
        .iter()
        .map(|c| cache.get(c, strategy).map(|p| (Ok(p), true)))
        .collect();
    let missing: Vec<usize> = (0..circuits.len()).filter(|&i| out[i].is_none()).collect();
    // A planning error stays with its circuit, so the fold itself never
    // fails.
    let Ok(built) = runtime::fold_ordered(
        worker_threads(config),
        missing.len(),
        Vec::with_capacity(missing.len()),
        || (),
        |j, _| {
            Ok::<_, Infallible>(
                CutPlan::build(&circuits[missing[j]], strategy.clone()).map(Arc::new),
            )
        },
        |built, plan| built.push(plan),
    );
    for (&i, plan) in missing.iter().zip(built) {
        out[i] = Some((plan, false));
    }
    // Publish the fresh builds in circuit order (duplicate circuits in
    // one batch each build once here and converge on a single entry).
    for &i in &missing {
        if let Some((Ok(plan), _)) = &out[i] {
            cache.insert(&circuits[i], strategy, plan);
        }
    }
    out.into_iter()
        .map(|slot| slot.expect("every circuit gets a plan outcome"))
        .collect()
}

/// One job of the driver and its bookkeeping across rounds and
/// [`BatchOutcome::resume`] calls. `P` is how the slot holds its plan:
/// borrowed (`&CutPlan`) on the one-attempt entry points, shared
/// (`Arc<CutPlan>`) where a [`BatchOutcome`] outlives the call.
pub(crate) struct Slot<P> {
    /// The plan this job runs against (`None`: planning itself failed,
    /// nothing to run).
    plan: Option<P>,
    /// Whether the plan came from the instance cache (stamped on reports).
    cache_hit: bool,
    /// Parameters of the next attempt (escalated by the ladder).
    params: ExecParams,
    /// Batch index — supervision id, fault-plan target, and the `job`
    /// field of [`SuperSimError::Job`] wrapping.
    job: usize,
    /// Circuit-breaker key and error-context fingerprint.
    fingerprint: u64,
    /// Attempts consumed over the slot's lifetime, breaker denials
    /// included (what budgets and reports count).
    attempts: usize,
    /// Actual executions — the supervisor attempt number, cumulative
    /// across [`BatchOutcome::resume`] calls so attempt-indexed fault
    /// sites ([`faultkit::FaultKind::FailNTimes`]) see monotone numbers.
    executions: usize,
    /// Next degradation rung to escalate to; above 0 once the job has
    /// shed accuracy (stamps
    /// [`RunReport::degraded_budget`](super::RunReport::degraded_budget)).
    ladder_pos: usize,
    /// Lifetime attempt count at which the current [`drive`] call stops
    /// retrying this slot.
    budget: usize,
    /// Terminal result; `None` while the driver still owes this slot a
    /// verdict.
    outcome: Option<Result<RunResult, SuperSimError>>,
    /// Most recent failure of a still-pending slot (becomes the terminal
    /// error when the budget runs out).
    last_error: Option<SuperSimError>,
}

impl<P: Deref<Target = CutPlan>> Slot<P> {
    /// A fresh slot; a planning failure is its terminal verdict at once,
    /// with no attempt consumed.
    fn new(
        plan: Result<P, SuperSimError>,
        cache_hit: bool,
        params: ExecParams,
        job: usize,
        fingerprint: u64,
    ) -> Self {
        let mut slot = Slot {
            plan: None,
            cache_hit,
            params,
            job,
            fingerprint,
            attempts: 0,
            executions: 0,
            ladder_pos: 0,
            budget: 0,
            outcome: None,
            last_error: None,
        };
        match plan {
            Ok(plan) => slot.plan = Some(plan),
            Err(e) => slot.outcome = Some(Err(slot.wrap(e))),
        }
        slot
    }

    fn wrap(&self, e: SuperSimError) -> SuperSimError {
        SuperSimError::Job {
            job: self.job,
            fingerprint: self.fingerprint,
            source: Box::new(e),
        }
    }

    /// The seed of this job's backoff stream: its own RNG seed (which
    /// degradation never changes), mixed with the batch index so sweep
    /// points sharing one seed still jitter independently.
    fn backoff_seed(&self) -> u64 {
        let mut state = self.params.seed ^ (self.job as u64).rotate_left(32);
        splitmix64(&mut state)
    }

    fn into_result(self) -> Result<RunResult, SuperSimError> {
        self.outcome.expect("the driver finalizes every slot")
    }
}

/// One slot per circuit of a batch: each circuit is planned up front
/// (cache-first; an invalid cut strategy stays per-circuit).
pub(crate) fn circuit_slots(
    config: &SuperSimConfig,
    cache: &PlanCache,
    circuits: &[qcir::Circuit],
) -> Vec<Slot<Arc<CutPlan>>> {
    let params = ExecParams::from_config(config);
    build_plans(config, cache, circuits)
        .into_iter()
        .zip(circuits)
        .enumerate()
        .map(|(i, ((plan, cache_hit), circuit))| {
            // A built plan carries its circuit's fingerprint; only a
            // planning failure recomputes it.
            let fingerprint = plan
                .as_ref()
                .map_or_else(|_| circuit.fingerprint(), |p| p.fingerprint());
            let plan = plan.map_err(SuperSimError::Cut);
            Slot::new(plan, cache_hit, params, i, fingerprint)
        })
        .collect()
}

/// One slot per parameter point of a sweep over one plan.
pub(crate) fn sweep_slots<P: Clone + Deref<Target = CutPlan>>(
    plan: P,
    params: &[ExecParams],
) -> Vec<Slot<P>> {
    let fingerprint = plan.fingerprint();
    params
        .iter()
        .enumerate()
        .map(|(i, &p)| Slot::new(Ok(plan.clone()), false, p, i, fingerprint))
        .collect()
}

/// The policy of the plain entry points: one attempt, no backoff, ladder
/// or breaker — one round, one `execute_jobs` call.
const ONE_ATTEMPT: ResiliencePolicy = ResiliencePolicy {
    retry: RetryPolicy {
        max_attempts: 1,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        jitter: 0.0,
    },
    degradation: None,
    breaker: None,
};

/// Drives `slots` once under the one-attempt policy and returns their
/// results in slot order, errors wrapped in [`SuperSimError::Job`].
pub(crate) fn run_once<P: Deref<Target = CutPlan>>(
    config: &SuperSimConfig,
    mut slots: Vec<Slot<P>>,
) -> Vec<Result<RunResult, SuperSimError>> {
    drive(config, &ONE_ATTEMPT, None, &mut slots);
    slots.into_iter().map(Slot::into_result).collect()
}

/// One job under the one-attempt policy, its error without the
/// [`SuperSimError::Job`] context (the single-run error shape).
pub(crate) fn run_single(
    config: &SuperSimConfig,
    plan: &CutPlan,
    params: ExecParams,
    cache_hit: bool,
) -> Result<RunResult, SuperSimError> {
    let slot = Slot::new(Ok(plan), cache_hit, params, 0, plan.fingerprint());
    match run_once(config, vec![slot])
        .pop()
        .expect("one slot, one result")
    {
        Err(SuperSimError::Job { source, .. }) => Err(*source),
        result => result,
    }
}

/// The driver: rounds of (breaker gate → backoff → one [`execute_jobs`]
/// call → record) over every slot without a verdict, until each has one.
/// Every slot pending at the call gets `policy.retry.max_attempts` fresh
/// attempts on top of what earlier calls consumed.
fn drive<P: Deref<Target = CutPlan>>(
    config: &SuperSimConfig,
    policy: &ResiliencePolicy,
    breaker: Option<&CircuitBreaker>,
    slots: &mut [Slot<P>],
) {
    let per_call = policy.retry.max_attempts.max(1);
    let mut pending: Vec<usize> = Vec::with_capacity(slots.len());
    for (i, slot) in slots.iter_mut().enumerate() {
        if slot.outcome.is_none() {
            slot.budget = slot.attempts + per_call;
            pending.push(i);
        }
    }
    let mut round = 0usize;
    while !pending.is_empty() {
        let mut admitted: Vec<usize> = Vec::with_capacity(pending.len());
        let mut still_pending: Vec<usize> = Vec::new();
        for &i in &pending {
            let slot = &mut slots[i];
            if slot.attempts >= slot.budget {
                let e = slot
                    .last_error
                    .take()
                    .expect("an exhausted slot recorded its last failure");
                slot.outcome = Some(Err(slot.wrap(e)));
                continue;
            }
            match breaker.map(|b| b.try_acquire(slot.fingerprint)) {
                Some(Err(failures)) => {
                    slot.attempts += 1;
                    slot.last_error = Some(SuperSimError::BreakerOpen {
                        fingerprint: slot.fingerprint,
                        failures,
                    });
                    still_pending.push(i);
                }
                Some(Ok(_)) | None => admitted.push(i),
            }
        }
        // One pause per retry round: the longest of the admitted jobs'
        // deterministic backoffs (round 0 is the first try — no pause).
        if round > 0 && !admitted.is_empty() {
            let pause = admitted
                .iter()
                .map(|&i| {
                    let slot = &slots[i];
                    policy.retry.backoff(slot.backoff_seed(), slot.attempts)
                })
                .max()
                .unwrap_or(Duration::ZERO);
            if pause > Duration::ZERO {
                std::thread::sleep(pause);
            }
        }
        // The round's survivors run as one fold on the shared pool —
        // retries keep full cross-job parallelism.
        let results = {
            let jobs: Vec<BatchJob<'_>> = admitted
                .iter()
                .map(|&i| {
                    let slot = &slots[i];
                    BatchJob {
                        plan: slot.plan.as_deref().expect("admitted slots hold plans"),
                        params: slot.params,
                        index: slot.job,
                        attempt: slot.executions,
                    }
                })
                .collect();
            execute_jobs(config, &jobs)
        };
        for (&i, result) in admitted.iter().zip(results) {
            let slot = &mut slots[i];
            slot.attempts += 1;
            slot.executions += 1;
            match result {
                Ok(mut res) => {
                    if let Some(b) = breaker {
                        b.record_success(slot.fingerprint);
                    }
                    res.report.plan_cache_hit = slot.cache_hit;
                    res.report.attempts = slot.attempts;
                    res.report.degraded_budget = if slot.ladder_pos > 0 {
                        slot.params.error_budget
                    } else {
                        None
                    };
                    res.report.breaker_state = breaker.map(|b| b.state(slot.fingerprint));
                    slot.outcome = Some(Ok(res));
                }
                Err(e) => {
                    if let Some(b) = breaker {
                        b.record_failure(slot.fingerprint);
                    }
                    if slot.attempts < slot.budget {
                        let rung = policy
                            .degradation
                            .as_ref()
                            .filter(|_| degradation_trigger(&e))
                            .and_then(|d| d.ladder().get(slot.ladder_pos).copied());
                        if let Some(budget) = rung {
                            // Shed accuracy and try again: the next
                            // attempt runs (and is re-judged by
                            // admission) at the escalated budget.
                            slot.ladder_pos += 1;
                            slot.params = slot.params.with_error_budget(budget);
                        }
                        if rung.is_some() || is_transient(&e) {
                            slot.last_error = Some(e);
                            still_pending.push(i);
                            continue;
                        }
                    }
                    slot.outcome = Some(Err(slot.wrap(e)));
                }
            }
        }
        still_pending.sort_unstable();
        pending = still_pending;
        round += 1;
    }
}

#[derive(Clone, Copy, Debug)]
struct KeyState {
    state: BreakerState,
    consecutive_failures: usize,
    cooldown_remaining: usize,
}

impl Default for KeyState {
    fn default() -> Self {
        KeyState {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_remaining: 0,
        }
    }
}

/// Per-key circuit breaker guarding enqueue, keyed by plan fingerprint so
/// every job of one repeatedly-failing cut structure shares one breaker.
/// All transitions are counted in attempts — never wall clock — so the
/// breaker's evolution is identical on every schedule and thread count.
#[derive(Debug)]
struct CircuitBreaker {
    policy: BreakerPolicy,
    keys: Mutex<BTreeMap<u64, KeyState>>,
}

impl CircuitBreaker {
    /// A breaker with the given thresholds; every key starts closed.
    fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            keys: Mutex::new(BTreeMap::new()),
        }
    }

    /// Asks to enqueue an attempt under `key`. `Ok` carries the state the
    /// attempt runs under (`Closed` or the `HalfOpen` trial); `Err`
    /// carries the consecutive-failure count behind the open breaker.
    fn try_acquire(&self, key: u64) -> Result<BreakerState, usize> {
        let mut keys = lock_or_recover(&self.keys);
        let entry = keys.entry(key).or_default();
        match entry.state {
            BreakerState::Closed => Ok(BreakerState::Closed),
            BreakerState::HalfOpen => Ok(BreakerState::HalfOpen),
            BreakerState::Open => {
                if entry.cooldown_remaining > 0 {
                    entry.cooldown_remaining -= 1;
                    Err(entry.consecutive_failures)
                } else {
                    entry.state = BreakerState::HalfOpen;
                    Ok(BreakerState::HalfOpen)
                }
            }
        }
    }

    /// Records a successful attempt under `key`: the key closes and its
    /// failure streak resets.
    fn record_success(&self, key: u64) {
        let mut keys = lock_or_recover(&self.keys);
        let entry = keys.entry(key).or_default();
        *entry = KeyState::default();
    }

    /// Records a failed attempt under `key`: a half-open trial failure
    /// re-opens immediately; a closed key opens once its streak reaches
    /// the threshold.
    fn record_failure(&self, key: u64) {
        let mut keys = lock_or_recover(&self.keys);
        let entry = keys.entry(key).or_default();
        entry.consecutive_failures += 1;
        let reopen = entry.state == BreakerState::HalfOpen
            || entry.consecutive_failures >= self.policy.failure_threshold.max(1);
        if reopen {
            entry.state = BreakerState::Open;
            entry.cooldown_remaining = self.policy.cooldown_attempts;
        }
    }

    /// The current state of `key` (untracked keys are closed).
    fn state(&self, key: u64) -> BreakerState {
        lock_or_recover(&self.keys)
            .get(&key)
            .map(|e| e.state)
            .unwrap_or(BreakerState::Closed)
    }
}

/// Terminal status of one job of a [`BatchOutcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The job succeeded, consuming this many attempts over the
    /// outcome's lifetime (1 = clean first pass; breaker denials count).
    Ok {
        /// Total attempts consumed, including the successful one.
        attempts: usize,
    },
    /// The job failed after consuming this many attempts (0 = the
    /// circuit never planned, so nothing was ever enqueued).
    Failed {
        /// Total attempts consumed.
        attempts: usize,
    },
}

/// Outcome of a resilient batch/sweep call: per-job results plus the
/// retry bookkeeping and cached plans needed to salvage the failures.
///
/// Succeeded jobs are **never re-executed** — their first-pass results
/// (and attempt counters) are frozen; [`BatchOutcome::resume`] grants the
/// failed jobs a fresh attempt budget and merges their recoveries in
/// place, bit-identically with what a clean run would have produced.
pub struct BatchOutcome {
    config: SuperSimConfig,
    policy: ResiliencePolicy,
    breaker: Option<CircuitBreaker>,
    slots: Vec<Slot<Arc<CutPlan>>>,
}

impl BatchOutcome {
    /// Drives `slots` under `policy` (the resilient entry points).
    pub(crate) fn new(
        config: &SuperSimConfig,
        policy: ResiliencePolicy,
        mut slots: Vec<Slot<Arc<CutPlan>>>,
    ) -> Self {
        let breaker = policy.breaker.map(CircuitBreaker::new);
        drive(config, &policy, breaker.as_ref(), &mut slots);
        BatchOutcome {
            config: config.clone(),
            policy,
            breaker,
            slots,
        }
    }

    /// Number of jobs (failed planning included).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the outcome holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Per-job result, in batch order. Errors carry the same
    /// [`SuperSimError::Job`] context `run_batch`/`run_sweep` attach.
    pub fn result(&self, job: usize) -> &Result<RunResult, SuperSimError> {
        self.slots[job]
            .outcome
            .as_ref()
            .expect("the driver finalizes every slot")
    }

    /// Terminal status + lifetime attempt counter of one job.
    pub fn status(&self, job: usize) -> JobStatus {
        let slot = &self.slots[job];
        match slot.outcome {
            Some(Ok(_)) => JobStatus::Ok {
                attempts: slot.attempts,
            },
            _ => JobStatus::Failed {
                attempts: slot.attempts,
            },
        }
    }

    /// All job statuses in batch order.
    pub fn statuses(&self) -> Vec<JobStatus> {
        (0..self.len()).map(|i| self.status(i)).collect()
    }

    /// Lifetime attempts job `job` has consumed (breaker denials
    /// included). Frozen once the job succeeds — the salvage invariant
    /// tests assert on exactly this counter.
    pub fn attempts(&self, job: usize) -> usize {
        self.slots[job].attempts
    }

    /// Indices of the jobs currently failed, in batch order.
    pub fn failed(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| matches!(self.status(i), JobStatus::Failed { .. }))
            .collect()
    }

    /// Whether every job succeeded.
    pub fn all_ok(&self) -> bool {
        self.failed().is_empty()
    }

    /// Re-runs **only the failed jobs** against the cached plans with a
    /// fresh [`RetryPolicy::max_attempts`] budget, merging recoveries in
    /// place; succeeded jobs are untouched (their results and attempt
    /// counters are frozen). Jobs whose circuit never planned cannot be
    /// salvaged and keep their error. Returns how many jobs this call
    /// newly salvaged.
    pub fn resume(&mut self) -> usize {
        let retryable: Vec<usize> = self
            .failed()
            .into_iter()
            .filter(|&i| self.slots[i].plan.is_some())
            .collect();
        for &i in &retryable {
            let slot = &mut self.slots[i];
            // The pre-resume error (stripped of its Job context, which
            // finalization re-attaches) becomes the fallback verdict
            // should the fresh budget run out without a single execution.
            slot.last_error = slot.outcome.take().and_then(|r| r.err()).map(|e| match e {
                SuperSimError::Job { source, .. } => *source,
                other => other,
            });
        }
        drive(
            &self.config,
            &self.policy,
            self.breaker.as_ref(),
            &mut self.slots,
        );
        retryable
            .iter()
            .filter(|&&i| matches!(self.status(i), JobStatus::Ok { .. }))
            .count()
    }

    /// Consumes the outcome into plain per-job results, in batch order —
    /// the exact shape [`SuperSim::run_batch`](crate::SuperSim::run_batch)
    /// returns.
    pub fn into_results(self) -> Vec<Result<RunResult, SuperSimError>> {
        self.slots.into_iter().map(Slot::into_result).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_walks_closed_open_halfopen_deterministically() {
        let breaker = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 2,
            cooldown_attempts: 2,
        });
        let key = 0xFEED;
        assert_eq!(breaker.try_acquire(key), Ok(BreakerState::Closed));
        breaker.record_failure(key);
        assert_eq!(breaker.state(key), BreakerState::Closed);
        assert_eq!(breaker.try_acquire(key), Ok(BreakerState::Closed));
        breaker.record_failure(key);
        assert_eq!(breaker.state(key), BreakerState::Open);
        // Cool-down: exactly two denials, then the half-open trial.
        assert_eq!(breaker.try_acquire(key), Err(2));
        assert_eq!(breaker.try_acquire(key), Err(2));
        assert_eq!(breaker.try_acquire(key), Ok(BreakerState::HalfOpen));
        // Trial failure re-opens with a fresh cool-down...
        breaker.record_failure(key);
        assert_eq!(breaker.state(key), BreakerState::Open);
        assert_eq!(breaker.try_acquire(key), Err(3));
        assert_eq!(breaker.try_acquire(key), Err(3));
        assert_eq!(breaker.try_acquire(key), Ok(BreakerState::HalfOpen));
        // ...and a trial success closes and resets the streak.
        breaker.record_success(key);
        assert_eq!(breaker.state(key), BreakerState::Closed);
        assert_eq!(breaker.try_acquire(key), Ok(BreakerState::Closed));
        // Other keys are independent.
        assert_eq!(breaker.state(key + 1), BreakerState::Closed);
    }
}
