//! Resilience policies over the batch driver: deterministic retries,
//! partial-batch salvage/resume, load-shedding degradation, and a per-plan
//! circuit breaker.
//!
//! The supervision layer ([`batch`](super::batch) + `faultkit`) turns
//! failures into **typed, per-job errors**; this module turns those errors
//! into **outcomes**. [`SuperSim::run_batch_resilient`](crate::SuperSim::run_batch_resilient)
//! and [`Executor::run_sweep_resilient`](crate::Executor::run_sweep_resilient)
//! wrap the one-shot entry points with a [`ResiliencePolicy`]:
//!
//! * **Retry** ([`RetryPolicy`]) — transient failures (panics, deadline
//!   trips, injected transients, breaker denials) are re-enqueued up to a
//!   per-call attempt budget, with exponential backoff whose jitter is
//!   drawn from the job's own RNG stream — the schedule is a pure function
//!   of (seed, job, attempt), reproducible across runs and thread counts.
//! * **Salvage** ([`BatchOutcome`]) — a failed job never drags its
//!   surviving siblings down: succeeded jobs keep their first-pass results
//!   (they are never re-executed — watch the attempt counters), and
//!   [`BatchOutcome::resume`] re-runs *only* the failed jobs against the
//!   cached [`CutPlan`]s, merging bit-identically with the first pass.
//! * **Degradation** ([`DegradationPolicy`]) — under deadline pressure or
//!   admission rejection, the job's recombination error budget escalates
//!   along a validated ladder ([`ExecParams::with_error_budget`]): the
//!   service sheds accuracy instead of failing, and the shed is surfaced
//!   on [`RunReport::degraded_budget`](super::RunReport::degraded_budget).
//! * **Breaker** ([`BreakerPolicy`]) — per plan-fingerprint circuit
//!   breaker: after a threshold of consecutive failures the key opens and
//!   enqueue is denied ([`SuperSimError::BreakerOpen`]) for a cool-down
//!   measured in **attempts** (not wall clock — deterministic), then a
//!   half-open trial decides between closing and re-opening.
//!
//! Every retried, salvaged, or degraded result stays **bit-identical** to
//! a clean single-pass run with the same effective [`ExecParams`], for
//! every thread count: the driver only re-submits jobs through the same
//! `execute_jobs` backend, whose outputs depend on per-job seeds alone.

use super::batch::{build_plans, execute_jobs, BatchJob};
use super::cache::PlanCache;
use super::execute::{ExecParams, RunResult};
use super::plan::CutPlan;
use super::{ConfigError, SuperSimConfig, SuperSimError};
use faultkit::{lock_or_recover, splitmix64, TRANSIENT_MARKER};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Retry budget and deterministic backoff schedule of the resilient
/// drivers.
///
/// Backoff is exponential from [`RetryPolicy::base_backoff`], capped at
/// [`RetryPolicy::max_backoff`], with multiplicative jitter in
/// `[1 − jitter, 1 + jitter]` drawn from an RNG seeded by the job's own
/// seed and the retry number — so the whole schedule is reproducible (see
/// [`RetryPolicy::backoff`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Attempts each job may consume per driver call (first try included;
    /// circuit-breaker denials count). Clamped to at least 1.
    pub max_attempts: usize,
    /// Backoff before the first retry; doubles per retry. `ZERO` disables
    /// sleeping entirely (the retry schedule is still deterministic).
    pub base_backoff: Duration,
    /// Upper bound on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Jitter amplitude in `[0, 1]`: each backoff is scaled by a factor in
    /// `[1 − jitter, 1 + jitter]` drawn from the job's RNG stream.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    /// 3 attempts, 1 ms base, 50 ms cap, ±50% jitter.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// This policy with a different attempt budget.
    pub fn with_max_attempts(self, max_attempts: usize) -> Self {
        RetryPolicy {
            max_attempts,
            ..self
        }
    }

    /// This policy with sleeping disabled (tests and latency-critical
    /// callers; the attempt schedule is unchanged).
    pub fn without_backoff(self) -> Self {
        RetryPolicy {
            base_backoff: Duration::ZERO,
            ..self
        }
    }

    /// The deterministic backoff before retry number `retry` (1-based) of
    /// the job whose backoff stream is seeded by `seed`: exponential,
    /// capped, jittered — and a pure function of its inputs, so tests can
    /// predict the exact schedule.
    pub fn backoff(&self, seed: u64, retry: usize) -> Duration {
        if retry == 0 || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let ideal = self.base_backoff.as_secs_f64() * 2f64.powi((retry - 1).min(31) as i32);
        let capped = ideal.min(self.max_backoff.as_secs_f64());
        let mut state = seed ^ (retry as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(splitmix64(&mut state));
        // 53-bit uniform in [0, 1): the full-precision f64 mantissa draw.
        let unit = (rng.random::<u64>() >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 + self.jitter.clamp(0.0, 1.0) * (2.0 * unit - 1.0);
        Duration::from_secs_f64((capped * factor).max(0.0))
    }
}

/// Whether a pipeline failure is worth retrying: panics and deadline
/// trips (a stalled worker surfaces as the latter), injected faults
/// carrying the `faultkit` transient marker, and circuit-breaker denials.
/// Everything else — invalid cut points, evaluation, MLFT, cancellation, and
/// (ladder permitting, degradation-handled) admission failures — is
/// permanent: re-running the identical job deterministically reproduces
/// the identical error.
pub fn is_transient(err: &SuperSimError) -> bool {
    match err.root() {
        SuperSimError::Panicked { .. }
        | SuperSimError::DeadlineExceeded { .. }
        | SuperSimError::BreakerOpen { .. } => true,
        SuperSimError::Injected { message, .. } => message.starts_with(TRANSIENT_MARKER),
        _ => false,
    }
}

/// Whether a failure should escalate the job's error budget instead of
/// (or before) plain retry: deadline pressure and admission rejection are
/// exactly the failures a cheaper, budget-truncated sweep can rescue.
fn degradation_trigger(err: &SuperSimError) -> bool {
    matches!(
        err.root(),
        SuperSimError::DeadlineExceeded { .. } | SuperSimError::Rejected(_)
    )
}

/// Load-shedding ladder: successive recombination error budgets a job
/// escalates through when deadline pressure or admission rejection would
/// otherwise fail it (each rung re-judged by admission against the
/// budget-discounted [`PlanCost`](crate::PlanCost)). Validated at
/// construction: rungs must be finite, positive, and strictly increasing.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradationPolicy {
    ladder: Vec<f64>,
}

impl DegradationPolicy {
    /// Validates and builds a ladder.
    ///
    /// # Errors
    ///
    /// [`ConfigError::InvalidDegradationLadder`] when the ladder is empty,
    /// a rung is NaN/infinite/non-positive, or rungs do not strictly
    /// increase.
    pub fn new(ladder: Vec<f64>) -> Result<Self, ConfigError> {
        if ladder.is_empty() {
            return Err(ConfigError::InvalidDegradationLadder(
                "ladder must have at least one rung".into(),
            ));
        }
        for (i, &b) in ladder.iter().enumerate() {
            if !b.is_finite() || b <= 0.0 {
                return Err(ConfigError::InvalidDegradationLadder(format!(
                    "rung {i} must be a finite positive error budget, got {b}"
                )));
            }
        }
        if ladder.windows(2).any(|w| w[1] <= w[0]) {
            return Err(ConfigError::InvalidDegradationLadder(
                "rungs must strictly increase (each escalation sheds more accuracy)".into(),
            ));
        }
        Ok(DegradationPolicy { ladder })
    }

    /// The validated rungs, smallest budget first.
    pub fn ladder(&self) -> &[f64] {
        &self.ladder
    }
}

/// Circuit-breaker thresholds (see [`BreakerState`] for the lifecycle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures of a key that trip it open. Clamped to at
    /// least 1.
    pub failure_threshold: usize,
    /// Enqueue attempts denied while open before the half-open trial is
    /// admitted — the cool-down, measured in attempts rather than wall
    /// clock so breaker evolution is deterministic.
    pub cooldown_attempts: usize,
}

impl Default for BreakerPolicy {
    /// Open after 3 consecutive failures; deny 2 attempts before trialing.
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 3,
            cooldown_attempts: 2,
        }
    }
}

/// State of one circuit-breaker key (a plan fingerprint).
///
/// Lifecycle: `Closed` → (threshold consecutive failures) → `Open` →
/// (cool-down attempts denied) → `HalfOpen` → one trial attempt →
/// `Closed` on success, `Open` (fresh cool-down) on failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Attempts flow freely; consecutive failures are counted.
    Closed,
    /// Attempts are denied with [`SuperSimError::BreakerOpen`] until the
    /// cool-down elapses.
    Open,
    /// Cool-down elapsed: exactly one trial attempt is admitted.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
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
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    keys: Mutex<BTreeMap<u64, KeyState>>,
}

impl CircuitBreaker {
    /// A breaker with the given thresholds; every key starts closed.
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            keys: Mutex::new(BTreeMap::new()),
        }
    }

    /// Asks to enqueue an attempt under `key`. `Ok` carries the state the
    /// attempt runs under (`Closed` or the `HalfOpen` trial); `Err`
    /// carries the consecutive-failure count behind the open breaker.
    pub fn try_acquire(&self, key: u64) -> Result<BreakerState, usize> {
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
    pub fn record_success(&self, key: u64) {
        let mut keys = lock_or_recover(&self.keys);
        let entry = keys.entry(key).or_default();
        *entry = KeyState::default();
    }

    /// Records a failed attempt under `key`: a half-open trial failure
    /// re-opens immediately; a closed key opens once its streak reaches
    /// the threshold.
    pub fn record_failure(&self, key: u64) {
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
    pub fn state(&self, key: u64) -> BreakerState {
        lock_or_recover(&self.keys)
            .get(&key)
            .map(|e| e.state)
            .unwrap_or(BreakerState::Closed)
    }
}

/// The full resilience configuration of a driver call: retry budget +
/// optional degradation ladder + optional circuit breaker.
#[derive(Clone, Debug, Default)]
pub struct ResiliencePolicy {
    /// Retry budget and backoff schedule.
    pub retry: RetryPolicy,
    /// Load-shedding ladder (`None`: never degrade).
    pub degradation: Option<DegradationPolicy>,
    /// Circuit-breaker thresholds (`None`: no breaker).
    pub breaker: Option<BreakerPolicy>,
}

impl ResiliencePolicy {
    /// The default policy: 3 attempts with jittered backoff, no
    /// degradation, no breaker.
    pub fn new() -> Self {
        ResiliencePolicy::default()
    }

    /// This policy with a different retry schedule.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// This policy with a degradation ladder.
    pub fn with_degradation(mut self, degradation: DegradationPolicy) -> Self {
        self.degradation = Some(degradation);
        self
    }

    /// This policy with a circuit breaker.
    pub fn with_breaker(mut self, breaker: BreakerPolicy) -> Self {
        self.breaker = Some(breaker);
        self
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

struct Slot {
    /// The cached plan this job re-runs against (`None`: planning itself
    /// failed, nothing to retry).
    plan: Option<Arc<CutPlan>>,
    /// Whether the plan came from the instance cache (stamped on reports).
    cache_hit: bool,
    /// Original parameters, before any degradation.
    base_params: ExecParams,
    /// Effective parameters of the next attempt (escalated by the ladder).
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
    /// Next degradation rung to escalate to.
    ladder_pos: usize,
    /// Whether any escalation was applied (stamps
    /// [`RunReport::degraded_budget`](super::RunReport::degraded_budget)).
    degraded: bool,
    /// Terminal result; `None` while the driver still owes this slot a
    /// verdict.
    outcome: Option<Result<RunResult, SuperSimError>>,
    /// Most recent failure of a still-pending slot (becomes the terminal
    /// error when the budget runs out).
    last_error: Option<SuperSimError>,
}

impl Slot {
    fn wrap(&self, e: SuperSimError) -> SuperSimError {
        SuperSimError::Job {
            job: self.job,
            fingerprint: self.fingerprint,
            source: Box::new(e),
        }
    }

    /// The seed of this job's backoff stream: its own RNG seed, mixed
    /// with the batch index so sweep points sharing one seed still jitter
    /// independently.
    fn backoff_seed(&self) -> u64 {
        let mut state = self.base_params.seed ^ (self.job as u64).rotate_left(32);
        splitmix64(&mut state)
    }
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
    slots: Vec<Slot>,
}

impl BatchOutcome {
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
            .expect("driver finalizes every slot")
    }

    /// All per-job results in batch order.
    pub fn results(&self) -> Vec<&Result<RunResult, SuperSimError>> {
        (0..self.len()).map(|i| self.result(i)).collect()
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
        self.drive();
        retryable
            .iter()
            .filter(|&&i| matches!(self.status(i), JobStatus::Ok { .. }))
            .count()
    }

    /// Consumes the outcome into plain per-job results, in batch order —
    /// the exact shape [`SuperSim::run_batch`](crate::SuperSim::run_batch)
    /// returns.
    pub fn into_results(self) -> Vec<Result<RunResult, SuperSimError>> {
        self.slots
            .into_iter()
            .map(|s| s.outcome.expect("driver finalizes every slot"))
            .collect()
    }

    /// The retry driver: rounds of (breaker gate → backoff → one shared
    /// batch → record), over every slot without a terminal outcome, until
    /// all pending slots are finalized. Gating and recording happen in
    /// batch-index order between rounds — never concurrently — so breaker
    /// evolution, degradation, and attempt accounting are identical on
    /// every schedule and thread count.
    fn drive(&mut self) {
        let mut pending: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].outcome.is_none())
            .collect();
        // Fresh per-call budget on top of whatever earlier calls consumed.
        let per_call = self.policy.retry.max_attempts.max(1);
        let budgets: BTreeMap<usize, usize> = pending
            .iter()
            .map(|&i| (i, self.slots[i].attempts + per_call))
            .collect();
        let mut round = 0usize;
        while !pending.is_empty() {
            let mut admitted: Vec<usize> = Vec::new();
            let mut still_pending: Vec<usize> = Vec::new();
            for &i in &pending {
                let fingerprint = self.slots[i].fingerprint;
                let slot = &mut self.slots[i];
                if slot.attempts >= budgets[&i] {
                    let e = slot
                        .last_error
                        .take()
                        .expect("an exhausted slot recorded its last failure");
                    slot.outcome = Some(Err(slot.wrap(e)));
                    continue;
                }
                match &self.breaker {
                    Some(b) => match b.try_acquire(fingerprint) {
                        Ok(_) => admitted.push(i),
                        Err(failures) => {
                            slot.attempts += 1;
                            slot.last_error = Some(SuperSimError::BreakerOpen {
                                fingerprint,
                                failures,
                            });
                            still_pending.push(i);
                        }
                    },
                    None => admitted.push(i),
                }
            }
            // One pause per retry round: the longest of the admitted
            // jobs' deterministic backoffs (round 0 is the first try —
            // no pause).
            if round > 0 && !admitted.is_empty() {
                let pause = admitted
                    .iter()
                    .map(|&i| {
                        let slot = &self.slots[i];
                        self.policy
                            .retry
                            .backoff(slot.backoff_seed(), slot.attempts)
                    })
                    .max()
                    .unwrap_or(Duration::ZERO);
                if pause > Duration::ZERO {
                    std::thread::sleep(pause);
                }
            }
            // The round's survivors run as one batch on the shared pool —
            // retries keep full cross-job parallelism.
            let results = {
                let jobs: Vec<BatchJob<'_>> = admitted
                    .iter()
                    .map(|&i| {
                        let slot = &self.slots[i];
                        BatchJob {
                            plan: slot.plan.as_ref().expect("admitted slots hold plans"),
                            params: slot.params,
                            index: slot.job,
                            attempt: slot.executions,
                        }
                    })
                    .collect();
                execute_jobs(&self.config, &jobs)
            };
            for (&i, result) in admitted.iter().zip(results) {
                let slot = &mut self.slots[i];
                slot.attempts += 1;
                slot.executions += 1;
                match result {
                    Ok(mut res) => {
                        if let Some(b) = &self.breaker {
                            b.record_success(slot.fingerprint);
                        }
                        res.report.plan_cache_hit = slot.cache_hit;
                        res.report.attempts = slot.attempts;
                        res.report.degraded_budget = if slot.degraded {
                            slot.params.error_budget
                        } else {
                            None
                        };
                        res.report.breaker_state =
                            self.breaker.as_ref().map(|b| b.state(slot.fingerprint));
                        slot.outcome = Some(Ok(res));
                    }
                    Err(e) => {
                        if let Some(b) = &self.breaker {
                            b.record_failure(slot.fingerprint);
                        }
                        let rung = self
                            .policy
                            .degradation
                            .as_ref()
                            .filter(|_| degradation_trigger(&e))
                            .and_then(|d| d.ladder().get(slot.ladder_pos).copied());
                        if slot.attempts < budgets[&i] {
                            if let Some(budget) = rung {
                                // Shed accuracy and try again: the next
                                // attempt runs (and is re-judged by
                                // admission) at the escalated budget.
                                slot.ladder_pos += 1;
                                slot.degraded = true;
                                slot.params = slot.params.with_error_budget(budget);
                                slot.last_error = Some(e);
                                still_pending.push(i);
                                continue;
                            }
                            if is_transient(&e) {
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
}

/// The backend of [`SuperSim::run_batch_resilient`](crate::SuperSim::run_batch_resilient):
/// plan every circuit (cache-first), then drive the retry loop.
pub(crate) fn run_batch_resilient(
    config: &SuperSimConfig,
    cache: &PlanCache,
    circuits: &[qcir::Circuit],
    policy: ResiliencePolicy,
) -> BatchOutcome {
    let params = ExecParams::from_config(config);
    let slots = build_plans(config, cache, circuits)
        .into_iter()
        .zip(circuits)
        .enumerate()
        .map(|(i, ((plan, cache_hit), circuit))| {
            let fingerprint = circuit.fingerprint();
            match plan {
                Ok(plan) => new_slot(Some(plan), cache_hit, params, i, fingerprint, None),
                // Planning failures are permanent and were never enqueued:
                // finalized immediately, 0 attempts consumed.
                Err(e) => new_slot(
                    None,
                    cache_hit,
                    params,
                    i,
                    fingerprint,
                    Some(SuperSimError::Cut(e)),
                ),
            }
        })
        .collect();
    finish_outcome(config, policy, slots)
}

/// The backend of [`Executor::run_sweep_resilient`](crate::Executor::run_sweep_resilient):
/// one plan, many parameter points, one retry driver.
pub(crate) fn run_sweep_resilient(
    config: &SuperSimConfig,
    plan: &Arc<CutPlan>,
    params: &[ExecParams],
    policy: ResiliencePolicy,
) -> BatchOutcome {
    let slots = params
        .iter()
        .enumerate()
        .map(|(i, &p)| new_slot(Some(plan.clone()), false, p, i, plan.fingerprint(), None))
        .collect();
    finish_outcome(config, policy, slots)
}

fn new_slot(
    plan: Option<Arc<CutPlan>>,
    cache_hit: bool,
    params: ExecParams,
    job: usize,
    fingerprint: u64,
    plan_error: Option<SuperSimError>,
) -> Slot {
    let mut slot = Slot {
        plan,
        cache_hit,
        base_params: params,
        params,
        job,
        fingerprint,
        attempts: 0,
        executions: 0,
        ladder_pos: 0,
        degraded: false,
        outcome: None,
        last_error: None,
    };
    if let Some(e) = plan_error {
        slot.outcome = Some(Err(slot.wrap(e)));
    }
    slot
}

fn finish_outcome(
    config: &SuperSimConfig,
    policy: ResiliencePolicy,
    slots: Vec<Slot>,
) -> BatchOutcome {
    let breaker = policy.breaker.map(CircuitBreaker::new);
    let mut outcome = BatchOutcome {
        config: config.clone(),
        policy,
        breaker,
        slots,
    };
    outcome.drive();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultkit::Stage;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let policy = RetryPolicy::default();
        for retry in 1..6 {
            let a = policy.backoff(42, retry);
            let b = policy.backoff(42, retry);
            assert_eq!(a, b, "same (seed, retry) must give the same backoff");
            let cap = policy.max_backoff.as_secs_f64() * (1.0 + policy.jitter);
            assert!(a.as_secs_f64() <= cap + 1e-12, "retry {retry} above cap");
        }
        assert_ne!(
            policy.backoff(42, 1),
            policy.backoff(43, 1),
            "different seeds must jitter differently"
        );
        assert_eq!(policy.backoff(42, 0), Duration::ZERO);
        assert_eq!(
            policy.without_backoff().backoff(42, 3),
            Duration::ZERO,
            "zero base disables sleeping"
        );
    }

    #[test]
    fn backoff_grows_exponentially_within_jitter() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let b1 = policy.backoff(7, 1).as_secs_f64();
        let b2 = policy.backoff(7, 2).as_secs_f64();
        let b3 = policy.backoff(7, 3).as_secs_f64();
        assert!((b2 - 2.0 * b1).abs() < 1e-9, "doubling: {b1} -> {b2}");
        assert!((b3 - 4.0 * b1).abs() < 1e-9, "doubling: {b1} -> {b3}");
    }

    #[test]
    fn classification_matches_the_documented_table() {
        let transient = SuperSimError::Panicked {
            stage: Stage::Eval,
            task: Some(0),
            payload: "boom".into(),
        };
        assert!(is_transient(&transient));
        assert!(is_transient(&SuperSimError::DeadlineExceeded {
            stage: Stage::Recombine,
            elapsed: Duration::from_millis(1),
        }));
        assert!(is_transient(&SuperSimError::BreakerOpen {
            fingerprint: 1,
            failures: 3,
        }));
        assert!(is_transient(&SuperSimError::Injected {
            stage: Stage::Eval,
            message: format!("{TRANSIENT_MARKER}: job 0 stage evaluate task 1"),
        }));
        assert!(!is_transient(&SuperSimError::Injected {
            stage: Stage::Eval,
            message: "job 0 stage evaluate task 1".into(),
        }));
        assert!(!is_transient(&SuperSimError::Cancelled {
            stage: Stage::Eval,
            elapsed: Duration::from_millis(1),
        }));
        // A zero-shot run is refused the same way on every retry: permanent.
        assert!(!is_transient(&SuperSimError::Config(
            ConfigError::ZeroShots
        )));
        // Non-finite tensor data reproduces on every retry: permanent.
        let non_finite = SuperSimError::from(cutkit::MlftError::NonFinite);
        assert!(!is_transient(&non_finite));
        assert!(non_finite.to_string().contains("non-finite coefficient"));
        // Job context is stripped before classification.
        let wrapped = SuperSimError::Job {
            job: 2,
            fingerprint: 9,
            source: Box::new(transient),
        };
        assert!(is_transient(&wrapped));
    }

    #[test]
    fn degradation_ladder_is_validated() {
        assert!(DegradationPolicy::new(vec![1e-4, 1e-3, 1e-2]).is_ok());
        for bad in [
            vec![],
            vec![0.0],
            vec![-1e-3],
            vec![f64::NAN],
            vec![f64::INFINITY],
            vec![1e-3, 1e-3],
            vec![1e-2, 1e-3],
        ] {
            assert!(
                matches!(
                    DegradationPolicy::new(bad.clone()),
                    Err(ConfigError::InvalidDegradationLadder(_))
                ),
                "ladder {bad:?} must be rejected"
            );
        }
    }

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
