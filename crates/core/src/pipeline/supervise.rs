//! The supervision layer: admission control for batch jobs.
//!
//! Admission control runs **before** any job of a batch: the job round
//! derives a [`PlanCost`] from the job's [`CutPlan`] (cuts, variants,
//! `4^k` sweep size, an accumulator-bytes proxy — all structural, no
//! execution needed) and asks the configured [`AdmissionPolicy`] for a
//! verdict. Oversized jobs are rejected with a typed
//! [`AdmissionError`] carrying the offending quantity and its budget;
//! borderline jobs can instead be *sequentialized* — admitted, but run
//! alone with the full worker pool after the pooled phase, so one giant
//! sweep cannot starve every other job of workers. Plans served from the
//! plan cache get no shortcut here: a cached plan's cost is re-judged on
//! every run, so tightening the policy takes effect immediately even for
//! circuits whose plans are already cached.
//!
//! The other half of supervision — panic isolation, deadlines,
//! cancellation, and fault injection — lives in the `faultkit` crate
//! ([`Supervisor`](faultkit::Supervisor)) and is threaded into cutkit's
//! evaluation, MLFT and contraction drivers by the job round; see the
//! failure-semantics notes
//! on [`SuperSim::run_batch`](crate::SuperSim::run_batch).

use crate::pipeline::plan::PlanCost;
use std::error::Error;
use std::fmt;

/// Budget limits applied to every batch job before it is enqueued.
///
/// All limits default to `None` (unlimited). `max_*` limits reject the
/// job outright; `solo_*` thresholds admit the job but force it to run
/// sequentialized — alone, after the pooled phase, with the full worker
/// pool to itself — so its footprint is paid once instead of multiplied
/// by pool-wide concurrency.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Reject jobs with more than this many cuts (`4^k` guard).
    pub max_cuts: Option<usize>,
    /// Reject jobs evaluating more than this many tomography variants.
    pub max_variants: Option<usize>,
    /// Reject jobs whose recombination sweep exceeds this many
    /// assignments (`4^k`, before sparse pruning).
    pub max_sweep_assignments: Option<u64>,
    /// Reject jobs whose [`PlanCost::accumulator_bytes`] proxy exceeds
    /// this many bytes.
    pub max_accumulator_bytes: Option<u64>,
    /// Sequentialize (run solo, not reject) jobs whose sweep exceeds
    /// this many assignments.
    pub solo_sweep_assignments: Option<u64>,
    /// Sequentialize jobs whose [`PlanCost::accumulator_bytes`] proxy
    /// exceeds this many bytes.
    pub solo_accumulator_bytes: Option<u64>,
}

impl AdmissionPolicy {
    /// A policy with every limit disabled (the default).
    pub fn unlimited() -> Self {
        AdmissionPolicy::default()
    }

    /// Judges a job's [`PlanCost`] against this policy. Rejection limits
    /// are checked first (in declaration order, so the reported quantity
    /// is deterministic), then sequentialization thresholds.
    pub fn admit(&self, cost: &PlanCost) -> Admission {
        let over = |actual: u64, limit: Option<u64>| limit.is_some_and(|l| actual > l);
        if over(cost.num_cuts as u64, self.max_cuts.map(|l| l as u64)) {
            return Admission::Reject(AdmissionError {
                quantity: "cuts",
                actual: cost.num_cuts as u64,
                limit: self.max_cuts.unwrap_or(0) as u64,
            });
        }
        if over(
            cost.num_variants as u64,
            self.max_variants.map(|l| l as u64),
        ) {
            return Admission::Reject(AdmissionError {
                quantity: "variants",
                actual: cost.num_variants as u64,
                limit: self.max_variants.unwrap_or(0) as u64,
            });
        }
        if over(cost.sweep_assignments, self.max_sweep_assignments) {
            return Admission::Reject(AdmissionError {
                quantity: "sweep assignments",
                actual: cost.sweep_assignments,
                limit: self.max_sweep_assignments.unwrap_or(0),
            });
        }
        if over(cost.accumulator_bytes, self.max_accumulator_bytes) {
            return Admission::Reject(AdmissionError {
                quantity: "accumulator bytes",
                actual: cost.accumulator_bytes,
                limit: self.max_accumulator_bytes.unwrap_or(0),
            });
        }
        if over(cost.sweep_assignments, self.solo_sweep_assignments)
            || over(cost.accumulator_bytes, self.solo_accumulator_bytes)
        {
            return Admission::Solo;
        }
        Admission::Admit
    }
}

/// The verdict of [`AdmissionPolicy::admit`] for one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Run in the shared pool.
    Admit,
    /// Run, but sequentialized: alone with the full worker pool, after
    /// the pooled jobs finish.
    Solo,
    /// Do not run; the job's result is this error.
    Reject(AdmissionError),
}

/// A job exceeded an [`AdmissionPolicy`] budget and was not enqueued.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdmissionError {
    /// Which budgeted quantity overflowed ("cuts", "variants",
    /// "sweep assignments", "accumulator bytes").
    pub quantity: &'static str,
    /// The job's value of that quantity.
    pub actual: u64,
    /// The configured budget it exceeded.
    pub limit: u64,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admission rejected: {} {} exceeds budget {}",
            self.quantity, self.actual, self.limit
        )
    }
}

impl Error for AdmissionError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> PlanCost {
        PlanCost {
            num_cuts: 3,
            num_variants: 40,
            sweep_assignments: 64,
            accumulator_bytes: 1 << 20,
        }
    }

    #[test]
    fn unlimited_policy_admits_everything() {
        assert_eq!(
            AdmissionPolicy::unlimited().admit(&cost()),
            Admission::Admit
        );
    }

    #[test]
    fn rejection_reports_quantity_and_budget() {
        let policy = AdmissionPolicy {
            max_cuts: Some(2),
            ..AdmissionPolicy::default()
        };
        match policy.admit(&cost()) {
            Admission::Reject(e) => {
                assert_eq!(e.quantity, "cuts");
                assert_eq!(e.actual, 3);
                assert_eq!(e.limit, 2);
                assert_eq!(e.to_string(), "admission rejected: cuts 3 exceeds budget 2");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn rejection_outranks_sequentialization() {
        let policy = AdmissionPolicy {
            max_variants: Some(10),
            solo_sweep_assignments: Some(1),
            ..AdmissionPolicy::default()
        };
        assert!(matches!(policy.admit(&cost()), Admission::Reject(_)));
    }

    #[test]
    fn solo_threshold_sequentializes() {
        let policy = AdmissionPolicy {
            solo_accumulator_bytes: Some(1 << 10),
            ..AdmissionPolicy::default()
        };
        assert_eq!(policy.admit(&cost()), Admission::Solo);
    }

    #[test]
    fn at_limit_is_admitted() {
        let policy = AdmissionPolicy {
            max_cuts: Some(3),
            max_sweep_assignments: Some(64),
            ..AdmissionPolicy::default()
        };
        assert_eq!(policy.admit(&cost()), Admission::Admit);
    }
}
