//! The resilience policies of the one driver ([`batch`](super::batch)):
//! what it does with a failed job. The plain entry points run the driver
//! with a one-attempt policy; [`SuperSim::run_batch_resilient`](crate::SuperSim::run_batch_resilient)
//! and [`Executor::run_sweep_resilient`](crate::Executor::run_sweep_resilient)
//! pass the caller's [`ResiliencePolicy`]:
//!
//! * **Retry** ([`RetryPolicy`]) — transient failures ([`is_transient`]:
//!   panics, deadline trips, injected transients, breaker denials) are
//!   re-enqueued up to a per-call attempt budget, with exponential backoff
//!   whose jitter is drawn from the job's own RNG stream — the schedule is
//!   a pure function of (seed, job, attempt), reproducible across runs and
//!   thread counts.
//! * **Degradation** ([`DegradationPolicy`]) — under deadline pressure or
//!   admission rejection, the job's recombination error budget escalates
//!   along a validated ladder ([`ExecParams::with_error_budget`](super::ExecParams::with_error_budget)):
//!   the service sheds accuracy instead of failing, and the shed is
//!   surfaced on [`RunReport::degraded_budget`](super::RunReport::degraded_budget).
//! * **Breaker** ([`BreakerPolicy`]) — per plan-fingerprint circuit
//!   breaker: after a threshold of consecutive failures the key opens and
//!   enqueue is denied ([`SuperSimError::BreakerOpen`]) for a cool-down
//!   measured in **attempts** (not wall clock — deterministic), then a
//!   half-open trial ([`BreakerState`]) decides between closing and
//!   re-opening.
//!
//! Every retried, salvaged, or degraded result stays **bit-identical** to
//! a clean single-pass run with the same effective parameters, for every
//! thread count: the driver only re-submits jobs through the same fold
//! over jobs, whose outputs depend on per-job seeds alone.

use super::{ConfigError, SuperSimError};
use faultkit::{splitmix64, TRANSIENT_MARKER};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
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
        // A cap near `Duration::MAX` jittered upwards saturates.
        Duration::try_from_secs_f64((capped * factor).max(0.0)).unwrap_or(Duration::MAX)
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
pub(crate) fn degradation_trigger(err: &SuperSimError) -> bool {
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
    pub(crate) fn ladder(&self) -> &[f64] {
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
    fn backoff_saturates_at_the_largest_duration() {
        let policy = RetryPolicy {
            base_backoff: Duration::MAX,
            max_backoff: Duration::MAX,
            ..RetryPolicy::default()
        };
        let cap = policy.max_backoff.as_secs_f64() * (1.0 + policy.jitter);
        let mut saturated = 0;
        for seed in 0..64 {
            for retry in 1..40 {
                let b = policy.backoff(seed, retry);
                assert!(b.as_secs_f64() <= cap, "seed {seed} retry {retry}: {b:?}");
                saturated += usize::from(b == Duration::MAX);
            }
        }
        assert!(saturated > 0, "an upward jitter of the cap must saturate");
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
}
