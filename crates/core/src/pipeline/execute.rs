//! The execute stage: running evaluate → MLFT → recombine against a
//! [`CutPlan`].
//!
//! An [`Executor`] owns no state beyond a reference to the configuration;
//! every run replays a prebuilt plan with a choice of [`ExecParams`]
//! (seed + shot budget). Its entry points are thin wrappers over one round
//! of jobs in [`batch`](super::batch): [`Executor::run_sweep`] executes
//! many parameter points against **one** plan as one fold over jobs — the
//! plan is built once, the cutter never re-runs, and points proceed through
//! the pipeline stages independently.

use super::batch::{run_points, run_single};
use super::plan::CutPlan;
use super::{fault_error, SuperSimConfig, SuperSimError};
use cutkit::{EvalMode, EvalOptions, FragmentTensor, Reconstructor, TensorOptions};
use faultkit::{Stage, Supervisor};
use metrics::Distribution;
use qcir::Bits;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::{Duration, Instant};

/// Per-run execution parameters: the knobs a sweep varies while the cut
/// structure (the [`CutPlan`]) stays fixed.
///
/// Build fluently from a starting point — [`ExecParams::seeded`],
/// [`ExecParams::from_config`], or [`ExecParams::default`] — then chain
/// `with_*` overrides:
///
/// ```
/// # use supersim::ExecParams;
/// let p = ExecParams::seeded(7).with_shots(2000).with_error_budget(1e-3);
/// assert_eq!(p.seed, 7);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecParams {
    /// Base RNG seed of this run (each fragment derives its own stream,
    /// exactly as [`SuperSimConfig::seed`] does for
    /// [`SuperSim::run`](crate::SuperSim::run)).
    pub seed: u64,
    /// Shots per fragment variant in sampled mode (ignored in exact mode).
    pub shots: usize,
    /// Per-job wall-clock deadline of this run, overriding
    /// [`SuperSimConfig::job_deadline`] when set. A run that exceeds it
    /// fails with [`SuperSimError::DeadlineExceeded`] at its next
    /// supervision checkpoint.
    pub deadline: Option<Duration>,
    /// Recombination error budget of this run, overriding
    /// [`SuperSimConfig::error_budget`] when set (see that field for the
    /// accuracy/latency semantics; the realized bound is reported via
    /// [`RunReport::recombine_error_bound`]).
    pub error_budget: Option<f64>,
}

impl Default for ExecParams {
    /// The paper-protocol defaults: seed 0, 5000 shots, no deadline, no
    /// error budget (exact recombination).
    fn default() -> Self {
        ExecParams {
            seed: 0,
            shots: 5000,
            deadline: None,
            error_budget: None,
        }
    }
}

impl ExecParams {
    /// Default parameters with the given seed — the usual sweep starting
    /// point (independent tomography repetitions of one cut structure).
    pub fn seeded(seed: u64) -> Self {
        ExecParams {
            seed,
            ..ExecParams::default()
        }
    }

    /// The parameters [`SuperSim::run`](crate::SuperSim::run) itself uses:
    /// the config's seed and shot budget.
    pub fn from_config(config: &SuperSimConfig) -> Self {
        ExecParams {
            seed: config.seed,
            shots: config.shots,
            deadline: None,
            error_budget: None,
        }
    }

    /// This run's parameters with a different seed.
    pub fn with_seed(self, seed: u64) -> Self {
        ExecParams { seed, ..self }
    }

    /// This run's parameters with a different shot budget.
    pub fn with_shots(self, shots: usize) -> Self {
        ExecParams { shots, ..self }
    }

    /// This run's parameters with a wall-clock deadline (overrides
    /// [`SuperSimConfig::job_deadline`] for this run only).
    pub fn with_deadline(self, deadline: Duration) -> Self {
        ExecParams {
            deadline: Some(deadline),
            ..self
        }
    }

    /// This run's parameters with a recombination error budget (overrides
    /// [`SuperSimConfig::error_budget`] for this run only). `0.0` forces
    /// the exact sweep regardless of the config's budget.
    pub fn with_error_budget(self, budget: f64) -> Self {
        ExecParams {
            error_budget: Some(budget),
            ..self
        }
    }
}

/// Diagnostics of one pipeline run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Number of fragments after cutting.
    pub num_fragments: usize,
    /// Number of Clifford fragments (evaluated on the stabilizer backend).
    pub clifford_fragments: usize,
    /// Number of cuts (`k` in the `4^k` reconstruction bound).
    pub num_cuts: usize,
    /// Total fragment variants executed.
    pub num_variants: usize,
    /// Variants whose rows were enumerated — their exact distributions —
    /// rather than sampled, out of [`RunReport::num_variants`]: every
    /// variant in exact mode; in sampled mode the noiseless ones whose
    /// distribution has no more points than the shot budget.
    pub enumerated_variants: usize,
    /// Wall time of the cutting stage. Runs that reuse a [`CutPlan`]
    /// report the plan's one-time build cost here, so a sweep's points all
    /// show the same (amortized) value.
    pub cut_time: Duration,
    /// Wall time of the job's own fragment evaluation and MLFT correction
    /// (all variants). In a batch, other jobs may share the pool meanwhile.
    pub eval_time: Duration,
    /// Wall time of recombination.
    pub recombine_time: Duration,
    /// Total Frobenius movement of the MLFT correction (0 without MLFT).
    pub mlft_moved: f64,
    /// Guaranteed cap on the L1 error the budget-truncated recombination
    /// introduced: the accumulated weight bound of every skipped cut
    /// assignment (0.0 with a zero budget — the exact sweep). The skip
    /// set is identical for every query of the run (marginals, joint,
    /// follow-up strong simulation), so one bound covers them all.
    pub recombine_error_bound: f64,
    /// Cut assignments the error budget skipped during recombination
    /// (sparse-skipped exact zeros are not counted).
    pub assignments_skipped: u64,
    /// Cut assignments the recombination sweep actually contracted, after
    /// both sparse skipping and budget truncation — the post-truncation
    /// counterpart of [`PlanCost::sweep_assignments`](crate::PlanCost::sweep_assignments),
    /// so cost estimates and realized work compare like with like.
    pub visited_assignments: u64,
    /// Whether this run's [`CutPlan`] was served from the instance's plan
    /// cache instead of being rebuilt. Always `false` on the raw
    /// [`Executor`] entry points, which take a prebuilt plan; set by
    /// [`SuperSim::run`](crate::SuperSim::run) and
    /// [`SuperSim::run_batch`](crate::SuperSim::run_batch).
    pub plan_cache_hit: bool,
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fragments ({} Clifford), {} cuts, {} variants ({} enumerated); \
             cut {:?}, eval {:?}, recombine {:?}",
            self.num_fragments,
            self.clifford_fragments,
            self.num_cuts,
            self.num_variants,
            self.enumerated_variants,
            self.cut_time,
            self.eval_time,
            self.recombine_time
        )?;
        if self.assignments_skipped > 0 {
            write!(
                f,
                "; budget skipped {} assignments (error bound {:.3e})",
                self.assignments_skipped, self.recombine_error_bound
            )?;
        }
        Ok(())
    }
}

/// Result of one pipeline execution ([`SuperSim::run`](crate::SuperSim::run),
/// [`Executor::run`], or one point of a sweep/batch).
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Single-qubit marginals of the reconstructed distribution — always
    /// available, even for hundreds of qubits.
    pub marginals: Vec<[f64; 2]>,
    /// The full joint distribution, when the fragment supports are small
    /// enough (see [`SuperSimConfig::joint_support_limit`]).
    pub distribution: Option<Distribution>,
    /// Pipeline diagnostics.
    pub report: RunReport,
    tensors: Vec<FragmentTensor>,
    num_cuts: usize,
    n_qubits: usize,
    /// Resolved recombination error budget of this run, reapplied to
    /// follow-up queries ([`RunResult::probability_of`],
    /// [`RunResult::expectation_z`]) so they truncate the exact same
    /// assignment set the run itself did.
    error_budget: f64,
}

impl RunResult {
    /// "Strong simulation": the reconstructed probability of a specific
    /// bitstring (machine precision in exact mode).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the circuit width.
    pub fn probability_of(&self, bits: &Bits) -> f64 {
        Reconstructor::new(&self.tensors, self.num_cuts, self.n_qubits)
            .with_error_budget(self.error_budget)
            .probability_of(bits)
    }

    /// The fragment tensors of this run (advanced inspection).
    pub fn tensors(&self) -> &[FragmentTensor] {
        &self.tensors
    }

    /// Draws measurement samples from the reconstructed joint distribution.
    ///
    /// Returns `None` when the joint distribution was withheld (fragment
    /// supports too large); use [`RunResult::marginals`] instead in that
    /// regime.
    pub fn sample(&self, shots: usize, rng: &mut impl rand::Rng) -> Option<Vec<Bits>> {
        self.distribution.as_ref().map(|d| d.sample(shots, rng))
    }

    /// Expectation value `⟨Π_{q∈subset} Z_q⟩` of a diagonal observable on
    /// the reconstructed distribution. Scales to hundreds of qubits (does
    /// not require the joint distribution) — the workhorse for VQE-style
    /// cost functions (paper §IV-B).
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range.
    pub fn expectation_z(&self, subset: &[usize]) -> f64 {
        Reconstructor::new(&self.tensors, self.num_cuts, self.n_qubits)
            .with_error_budget(self.error_budget)
            .expectation_z(subset)
    }

    /// Whether two runs agree **bit for bit** on every numeric output of
    /// the determinism contract: marginal float bits, joint availability,
    /// support size and emission order, per-outcome probability bits, and
    /// the `mlft_moved` diagnostic. This is the comparison the
    /// determinism suites and the `batch_sweep` benchmark gate on —
    /// batch/sweep results must satisfy it against independent sequential
    /// runs for every thread count.
    pub fn bit_identical_to(&self, other: &RunResult) -> bool {
        self.report.mlft_moved.to_bits() == other.report.mlft_moved.to_bits()
            && self.marginals.len() == other.marginals.len()
            && self
                .marginals
                .iter()
                .zip(&other.marginals)
                .all(|(x, y)| x[0].to_bits() == y[0].to_bits() && x[1].to_bits() == y[1].to_bits())
            && match (&self.distribution, &other.distribution) {
                (Some(da), Some(db)) => {
                    da.n_bits() == db.n_bits()
                        && da.support_len() == db.support_len()
                        && da
                            .iter()
                            .zip(db.iter())
                            .all(|((ab, ap), (bb, bp))| ab == bb && ap.to_bits() == bp.to_bits())
                }
                (None, None) => true,
                _ => false,
            }
    }
}

/// Executes prebuilt [`CutPlan`]s: single runs, and parameter sweeps on
/// one shared worker pool.
#[derive(Clone, Copy, Debug)]
pub struct Executor<'c> {
    config: &'c SuperSimConfig,
}

impl<'c> Executor<'c> {
    /// Creates an executor over a configuration.
    pub(crate) fn new(config: &'c SuperSimConfig) -> Self {
        Executor { config }
    }

    /// Runs the evaluate → MLFT → recombine stages against `plan` with the
    /// configuration's own seed and shot budget. `SuperSim::run` is
    /// exactly `plan` + this call, so results are identical to the
    /// monolithic pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`SuperSimError`] when a fragment cannot be evaluated or
    /// the MLFT correction cannot normalize a fragment.
    pub fn run(&self, plan: &CutPlan) -> Result<RunResult, SuperSimError> {
        self.run_with(plan, ExecParams::from_config(self.config))
    }

    /// [`Executor::run`] with explicit per-run parameters.
    ///
    /// Runs as a one-job batch through the same round a batch uses, so
    /// single runs get the full supervision layer — panic isolation,
    /// deadlines, cancellation, admission control, fault injection — and
    /// are bit-identical to the same job in a batch. Single-run errors are
    /// **not** wrapped in [`SuperSimError::Job`].
    ///
    /// # Errors
    ///
    /// Returns [`SuperSimError`] when a fragment cannot be evaluated, the
    /// MLFT correction cannot normalize a fragment, a task panics, the
    /// run is cancelled or exceeds its deadline, or admission control
    /// rejects the plan.
    pub fn run_with(&self, plan: &CutPlan, params: ExecParams) -> Result<RunResult, SuperSimError> {
        run_single(self.config, plan, params, false)
    }

    /// Executes one plan across many parameter points — the sweep shape of
    /// CAFQA/VQE and fragment tomography: cut once, execute many times.
    ///
    /// The points are the jobs of one fold over jobs on one worker pool,
    /// each running evaluation, MLFT and recombination in order on the
    /// worker that claimed it. Each
    /// point's output is **bit-identical** to an independent
    /// [`SuperSim::run`](crate::SuperSim::run) with that point's seed and
    /// shot budget, for every thread count: per-point RNG streams are
    /// derived exactly as single runs derive them, and every merge folds
    /// in (point, fragment, variant) order.
    ///
    /// # Failure semantics
    ///
    /// Identical to [`SuperSim::run_batch`](crate::SuperSim::run_batch):
    /// failures stay per-point and are wrapped in [`SuperSimError::Job`]
    /// (point index + circuit fingerprint); panics are isolated per point
    /// ([`SuperSimError::Panicked`]); per-point deadlines (counted from
    /// the start of the sweep), the cancel token, and admission control
    /// apply per point; surviving points stay bit-identical to
    /// independent runs on every schedule.
    pub fn run_sweep(
        &self,
        plan: &CutPlan,
        params: &[ExecParams],
    ) -> Vec<Result<RunResult, SuperSimError>> {
        run_points(self.config, plan, params)
    }
}

/// Worker-pool size `W` of the fold over a batch's jobs and of batch
/// planning: 1 when [`SuperSimConfig::parallel`] is off,
/// otherwise the configured thread count resolved by
/// [`runtime::worker_count`] (`0` = the auto count: `SUPERSIM_TEST_THREADS`
/// when set, hardware parallelism otherwise).
pub(crate) fn worker_threads(config: &SuperSimConfig) -> usize {
    if config.parallel {
        runtime::worker_count(config.threads, usize::MAX)
    } else {
        1
    }
}

/// Whether the MLFT correction stage runs under this configuration.
pub(crate) fn mlft_enabled(config: &SuperSimConfig) -> bool {
    config.mlft && !config.exact
}

/// The evaluation options of one run. The supervisor is the job's own
/// supervision context, consulted at every evaluation-chunk boundary.
pub(crate) fn eval_options(
    config: &SuperSimConfig,
    params: ExecParams,
    supervisor: Supervisor,
) -> EvalOptions {
    EvalOptions {
        mode: if config.exact {
            EvalMode::Exact
        } else {
            EvalMode::Sampled {
                shots: params.shots,
            }
        },
        supervisor,
    }
}

/// The recombination error budget of one run: the per-run override when
/// set, the config's budget otherwise (the same override shape as
/// [`ExecParams::deadline`] vs [`SuperSimConfig::job_deadline`]).
pub(crate) fn resolved_error_budget(config: &SuperSimConfig, params: ExecParams) -> f64 {
    params.error_budget.unwrap_or(config.error_budget)
}

/// The tensor-construction options of one run.
pub(crate) fn tensor_options(config: &SuperSimConfig) -> TensorOptions {
    TensorOptions {
        clifford_snap: config.clifford_snap,
    }
}

/// One base seed per fragment, derived from the run seed exactly as every
/// path (single run, sweep point, batch circuit) derives them — the RNG
/// stream isolation that keeps batch output bit-identical to independent
/// runs.
pub(crate) fn base_seeds(seed: u64, fragments: usize) -> Vec<u64> {
    (0..fragments)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
            rng.random()
        })
        .collect()
}

/// The recombination stage + result assembly, the last step of every job.
/// The job's supervisor is checked once per contraction chunk; an
/// interrupt or injected error surfaces as the typed pipeline error with
/// the job's elapsed time.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_run(
    config: &SuperSimConfig,
    plan: &CutPlan,
    tensors: Vec<FragmentTensor>,
    enumerated_variants: usize,
    mlft_moved: f64,
    eval_time: Duration,
    error_budget: f64,
    supervisor: &Supervisor,
) -> Result<RunResult, SuperSimError> {
    let t2 = Instant::now();
    let rec = Reconstructor::new(&tensors, plan.cut.num_cuts, plan.cut.original_qubits)
        .with_output_plans(&plan.output_plans)
        .with_supervisor(supervisor.clone())
        .with_error_budget(error_budget);
    let (marginals, stats) = rec
        .try_marginals_with_stats()
        .map_err(|fault| fault_error(Stage::Recombine, fault, supervisor))?;
    let support: usize = tensors
        .iter()
        .map(|t| t.support_len().max(1))
        .fold(1usize, |a, b| a.saturating_mul(b));
    let distribution = if support <= config.joint_support_limit {
        // The joint sweep skips the identical assignment set the marginal
        // sweep did (skip decisions are query-independent), so its stats
        // are the same and one report entry covers both.
        let (mut d, _) = rec
            .try_joint_with_stats(config.joint_support_limit)
            .map_err(|fault| fault_error(Stage::Recombine, fault, supervisor))?;
        d.clip_and_normalize();
        Some(d)
    } else {
        None
    };
    let recombine_time = t2.elapsed();
    Ok(RunResult {
        marginals,
        distribution,
        report: RunReport {
            num_fragments: plan.num_fragments(),
            clifford_fragments: plan.clifford_fragments,
            num_cuts: plan.cut.num_cuts,
            num_variants: plan.num_variants,
            enumerated_variants,
            cut_time: plan.cut_time,
            eval_time,
            recombine_time,
            mlft_moved,
            recombine_error_bound: stats.skipped_bound,
            assignments_skipped: stats.skipped,
            visited_assignments: stats.visited,
            plan_cache_hit: false,
        },
        tensors,
        num_cuts: plan.cut.num_cuts,
        n_qubits: plan.cut.original_qubits,
        error_budget,
    })
}
