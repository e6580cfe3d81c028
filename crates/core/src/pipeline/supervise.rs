//! The supervision layer: admission control for batch jobs.
//!
//! Admission control runs **before** any job of a batch: the job round
//! derives a [`PlanCost`] from the job's
//! [`CutPlan`](crate::CutPlan) (cuts, variants, `4^k` sweep size, an
//! accumulator-bytes proxy — all structural, no execution needed) and
//! asks the configured [`AdmissionPolicy`] whether the job may run. An
//! oversized job is rejected with a typed [`AdmissionError`] carrying the
//! offending quantity and its budget. Plans served from the plan cache
//! get no shortcut here: a cached plan's cost is re-judged on every run,
//! so tightening the policy takes effect immediately even for circuits
//! whose plans are already cached.
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

/// Budget limits applied to every batch job before it runs.
///
/// All limits default to `None` (unlimited); a job over any limit is
/// rejected outright. Every admitted job runs on one worker, so a limit
/// bounds one worker's footprint.
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
}

impl AdmissionPolicy {
    /// A policy with every limit disabled (the default).
    pub fn unlimited() -> Self {
        AdmissionPolicy::default()
    }

    /// Judges a job's [`PlanCost`] against this policy. Limits are
    /// checked in declaration order, so the reported quantity is
    /// deterministic.
    ///
    /// # Errors
    ///
    /// The [`AdmissionError`] of the first limit the cost exceeds.
    pub fn admit(&self, cost: &PlanCost) -> Result<(), AdmissionError> {
        let check = |quantity: &'static str, actual: u64, limit: Option<u64>| match limit {
            Some(limit) if actual > limit => Err(AdmissionError {
                quantity,
                actual,
                limit,
            }),
            _ => Ok(()),
        };
        check(
            "cuts",
            cost.num_cuts as u64,
            self.max_cuts.map(|l| l as u64),
        )?;
        check(
            "variants",
            cost.num_variants as u64,
            self.max_variants.map(|l| l as u64),
        )?;
        check(
            "sweep assignments",
            cost.sweep_assignments,
            self.max_sweep_assignments,
        )?;
        check(
            "accumulator bytes",
            cost.accumulator_bytes,
            self.max_accumulator_bytes,
        )
    }
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
        assert_eq!(AdmissionPolicy::unlimited().admit(&cost()), Ok(()));
    }

    #[test]
    fn rejection_reports_quantity_and_budget() {
        let policy = AdmissionPolicy {
            max_cuts: Some(2),
            ..AdmissionPolicy::default()
        };
        let e = policy.admit(&cost()).unwrap_err();
        assert_eq!(e.quantity, "cuts");
        assert_eq!(e.actual, 3);
        assert_eq!(e.limit, 2);
        assert_eq!(e.to_string(), "admission rejected: cuts 3 exceeds budget 2");
    }

    #[test]
    fn rejection_reports_the_first_limit_in_declaration_order() {
        let policy = AdmissionPolicy {
            max_variants: Some(10),
            max_accumulator_bytes: Some(1),
            ..AdmissionPolicy::default()
        };
        assert_eq!(policy.admit(&cost()).unwrap_err().quantity, "variants");
    }

    #[test]
    fn at_limit_is_admitted() {
        let policy = AdmissionPolicy {
            max_cuts: Some(3),
            max_sweep_assignments: Some(64),
            ..AdmissionPolicy::default()
        };
        assert_eq!(policy.admit(&cost()), Ok(()));
    }
}
