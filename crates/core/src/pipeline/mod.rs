//! The SuperSim pipeline, staged as **plan → execute**, batch-first.
//!
//! # Architecture
//!
//! * [`plan`] — [`CutPlan`]: cut placement, fragment structure, variant
//!   enumeration, and recombination scatter plans, built **once** per cut
//!   structure by [`SuperSim::plan`] (and cached per instance, [`cache`]);
//! * [`batch`] — one round over a set of jobs, the body of every run
//!   entry point ([`SuperSim::run`], [`SuperSim::run_batch`],
//!   [`Executor::run_with`], [`Executor::run_sweep`]): a fold over jobs,
//!   each job's evaluate → MLFT → recombine under its own supervisor and
//!   admission verdict ([`supervise`]). A failed job keeps its typed
//!   error; nothing is retried;
//! * [`execute`] — [`Executor`], the entry points over a prebuilt plan with
//!   per-run [`ExecParams`] (seed, shot budget), and the recombination
//!   step every job ends with.
//!
//! [`SuperSim::run`] is exactly `plan` + `execute` — the monolithic entry
//! point is a thin composition of the stages.
//!
//! # Threading model
//!
//! A job — one circuit of a batch, one sweep point, one single run — runs
//! its evaluation, MLFT and contraction on the one worker that claimed
//! it. [`SuperSimConfig::parallel`] and [`SuperSimConfig::threads`]
//! (`W` workers, `0` = one per available core) size only two folds
//! ([`runtime::fold_ordered`]):
//!
//! * the fold over a batch's or sweep's `n` jobs, on `min(W, n)` workers;
//! * the planning fold of [`SuperSim::run_batch`] over the circuits the
//!   plan cache misses.
//!
//! A single run is a one-job batch, so it runs on the calling thread.
//! Without `parallel` both folds run on the calling thread too.
//!
//! **Determinism-in-seed guarantee:** every path produces bit-identical
//! results for a given seed regardless of thread count, and batch/sweep
//! output is bit-identical to independent sequential [`SuperSim::run`]
//! calls: work-item decompositions are fixed (never derived from worker
//! counts or schedules), all float folds happen in (circuit, fragment,
//! variant) / chunk order, and each circuit derives its RNG streams from
//! its own seed exactly as a single run does. `parallel: false` is
//! therefore purely a scheduling choice, never a numerical one.

pub(crate) mod batch;
pub(crate) mod cache;
pub(crate) mod execute;
pub(crate) mod plan;
pub(crate) mod supervise;

pub use cache::PlanCacheStats;
pub use execute::{ExecParams, Executor, RunReport, RunResult};
pub use plan::{CutPlan, PlanCost, PlanLoadError};
pub use supervise::{AdmissionError, AdmissionPolicy};

use cache::PlanCache;

use cutkit::{CutError, CutStrategy, EvalError, MlftError};
use faultkit::{CancelToken, Fault, FaultPlan, Interrupt, Stage, Supervisor, TaskPanic};
use qcir::Circuit;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a [`SuperSim`] instance.
///
/// The defaults match the paper's protocol: 5000-shot sampled fragment
/// evaluation, MLFT correction, and both Clifford-specific optimizations
/// (§IX) enabled.
#[derive(Clone, Debug)]
pub struct SuperSimConfig {
    /// Shots per fragment variant in sampled mode.
    pub shots: usize,
    /// Machine-precision evaluation (exact fragment distributions) instead
    /// of sampling.
    pub exact: bool,
    /// Cut placement strategy.
    pub cut_strategy: CutStrategy,
    /// Apply the maximum-likelihood fragment-tomography correction to
    /// sampled fragment tensors.
    pub mlft: bool,
    /// Snap Clifford-fragment conditional Pauli expectations to
    /// `{-1, 0, +1}` (paper §IX optimization 1).
    pub clifford_snap: bool,
    /// Recombination error budget — the accuracy/latency dial (see the
    /// crate docs). The `4^k` sweep may skip cut assignments as long as
    /// the accumulated weight bound of everything skipped stays within
    /// this budget; the realized bound — a guaranteed cap on the L1 error
    /// of the unnormalized joint — is reported via
    /// [`RunReport::recombine_error_bound`]. `0.0` (the default) runs the
    /// exact sweep, bit for bit; any fixed budget is bit-identical for
    /// every thread count. Must be finite and non-negative.
    /// [`ExecParams::error_budget`] overrides this per run.
    pub error_budget: f64,
    /// Run the fold over a batch's or sweep's jobs, and batch planning,
    /// on the worker pool; each job still runs on one worker (see the
    /// module docs for the threading model).
    pub parallel: bool,
    /// Worker-pool size of the fold over jobs and of batch planning when
    /// [`SuperSimConfig::parallel`] is set (`0` = one worker per
    /// available core). Ignored when `parallel` is `false`. Results are
    /// bit-identical for every value.
    pub threads: usize,
    /// Base RNG seed (each fragment derives its own stream).
    pub seed: u64,
    /// Build the full joint distribution only when the product of fragment
    /// supports stays below this.
    pub joint_support_limit: usize,
    /// Per-job wall-clock deadline: a job (one circuit of a batch, one
    /// sweep point, or one [`SuperSim::run`]) that exceeds it fails with
    /// [`SuperSimError::DeadlineExceeded`] at its next supervision
    /// checkpoint (evaluation chunk, MLFT fragment, or recombination
    /// chunk boundary). [`ExecParams::deadline`] overrides this per job.
    /// The clock starts when the call starts its jobs, after admission,
    /// for every job of the call alike — so it also bounds the whole
    /// batch or sweep.
    pub job_deadline: Option<Duration>,
    /// Shareable cooperative cancellation token: once
    /// [`CancelToken::cancel`] is called (from any thread), every job in
    /// flight fails with [`SuperSimError::Cancelled`] at its next
    /// supervision checkpoint. Already-completed jobs keep their results.
    pub cancel: Option<CancelToken>,
    /// Admission-control budgets applied to every job before it is
    /// enqueued (default: unlimited). Rejected jobs report
    /// [`SuperSimError::Rejected`].
    pub admission: AdmissionPolicy,
    /// Deterministic fault-injection plan for chaos testing: makes chosen
    /// (job, stage, task) sites panic, error, or stall on schedule. `None`
    /// (the default) injects nothing and adds no per-task overhead.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for SuperSimConfig {
    fn default() -> Self {
        SuperSimConfig {
            shots: 5000,
            exact: false,
            cut_strategy: CutStrategy::default(),
            mlft: true,
            clifford_snap: true,
            error_budget: 0.0,
            parallel: false,
            threads: 0,
            seed: 0,
            joint_support_limit: 2_000_000,
            job_deadline: None,
            cancel: None,
            admission: AdmissionPolicy::default(),
            faults: None,
        }
    }
}

impl SuperSimConfig {
    /// A fluent, validating builder over the paper-protocol defaults —
    /// the preferred way to construct a configuration (the public fields
    /// stay available for struct-literal construction, but bypass
    /// validation):
    ///
    /// ```
    /// # use supersim::SuperSimConfig;
    /// let config = SuperSimConfig::builder()
    ///     .exact(true)
    ///     .parallel(true)
    ///     .error_budget(1e-3)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(config.error_budget, 1e-3);
    /// ```
    pub fn builder() -> SuperSimConfigBuilder {
        SuperSimConfigBuilder::default()
    }

    /// Re-enter the builder from an existing configuration, to derive a
    /// variant (revalidated at `build()`):
    ///
    /// ```
    /// # use supersim::SuperSimConfig;
    /// let base = SuperSimConfig::builder().shots(300).build().unwrap();
    /// let seq = base.clone().into_builder().parallel(false).build().unwrap();
    /// assert_eq!(seq.shots, 300);
    /// assert!(!seq.parallel);
    /// ```
    pub fn into_builder(self) -> SuperSimConfigBuilder {
        SuperSimConfigBuilder { config: self }
    }
}

/// Validation errors from [`SuperSimConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// The error budget was NaN, infinite, or negative — the truncated
    /// sweep needs a finite non-negative L1 allowance.
    InvalidErrorBudget(f64),
    /// A worker-pool size was set without enabling `parallel`; `threads`
    /// is meaningless on the sequential path, so an explicit size there
    /// is almost certainly a dropped `.parallel(true)`.
    ThreadsWithoutParallel(usize),
    /// Sampled mode with a shot budget of zero: every fragment tensor
    /// would be identically zero, which no stage can turn into a
    /// distribution. Exact mode ignores the shot budget and accepts it.
    ZeroShots,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidErrorBudget(b) => {
                write!(f, "error budget must be finite and non-negative, got {b}")
            }
            ConfigError::ThreadsWithoutParallel(t) => {
                write!(f, "threads = {t} has no effect without parallel; call .parallel(true) or drop .threads(..)")
            }
            ConfigError::ZeroShots => {
                write!(f, "sampled mode needs at least one shot per variant; set shots >= 1 or exact(true)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fluent builder for [`SuperSimConfig`], created by
/// [`SuperSimConfig::builder`]. Starts from [`SuperSimConfig::default`]
/// (the paper's protocol); every setter mirrors the config field of the
/// same name, and [`SuperSimConfigBuilder::build`] validates the
/// combination before handing out the config.
#[derive(Clone, Debug, Default)]
pub struct SuperSimConfigBuilder {
    config: SuperSimConfig,
}

impl SuperSimConfigBuilder {
    /// Shots per fragment variant in sampled mode.
    pub fn shots(mut self, shots: usize) -> Self {
        self.config.shots = shots;
        self
    }

    /// Machine-precision evaluation instead of sampling.
    pub fn exact(mut self, exact: bool) -> Self {
        self.config.exact = exact;
        self
    }

    /// Cut placement strategy.
    pub fn cut_strategy(mut self, strategy: CutStrategy) -> Self {
        self.config.cut_strategy = strategy;
        self
    }

    /// Apply the MLFT correction to sampled fragment tensors.
    pub fn mlft(mut self, mlft: bool) -> Self {
        self.config.mlft = mlft;
        self
    }

    /// Snap Clifford-fragment conditional Pauli expectations (§IX opt. 1).
    pub fn clifford_snap(mut self, snap: bool) -> Self {
        self.config.clifford_snap = snap;
        self
    }

    /// Recombination error budget — the accuracy/latency dial (see
    /// [`SuperSimConfig::error_budget`]). Validated at build time: must
    /// be finite and non-negative.
    pub fn error_budget(mut self, budget: f64) -> Self {
        self.config.error_budget = budget;
        self
    }

    /// Run the fold over a batch's or sweep's jobs, and batch planning,
    /// on the worker pool (one worker per job).
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.config.parallel = parallel;
        self
    }

    /// Worker-pool size of the fold over jobs and of batch planning
    /// (`0` = one worker per available core). Only meaningful together
    /// with [`SuperSimConfigBuilder::parallel`] — build time rejects a
    /// nonzero size on the sequential path.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Joint-distribution support ceiling.
    pub fn joint_support_limit(mut self, limit: usize) -> Self {
        self.config.joint_support_limit = limit;
        self
    }

    /// Per-job wall-clock deadline.
    pub fn job_deadline(mut self, deadline: Duration) -> Self {
        self.config.job_deadline = Some(deadline);
        self
    }

    /// Shareable cooperative cancellation token.
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.config.cancel = Some(cancel);
        self
    }

    /// Admission-control budgets applied before jobs are enqueued.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.config.admission = policy;
        self
    }

    /// Deterministic fault-injection plan (chaos testing).
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.config.faults = Some(plan);
        self
    }

    /// Validates the combination and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::InvalidErrorBudget`] when the error budget is NaN,
    /// infinite, or negative; [`ConfigError::ThreadsWithoutParallel`]
    /// when a nonzero worker count was set without `parallel`;
    /// [`ConfigError::ZeroShots`] when sampled mode has no shots.
    pub fn build(self) -> Result<SuperSimConfig, ConfigError> {
        let config = self.config;
        if config.shots == 0 && !config.exact {
            return Err(ConfigError::ZeroShots);
        }
        if !config.error_budget.is_finite() || config.error_budget < 0.0 {
            return Err(ConfigError::InvalidErrorBudget(config.error_budget));
        }
        if config.threads > 0 && !config.parallel {
            return Err(ConfigError::ThreadsWithoutParallel(config.threads));
        }
        Ok(config)
    }
}

/// Errors from the SuperSim pipeline.
///
/// Batch and sweep entry points wrap every per-job error in
/// [`SuperSimError::Job`], attaching the job's batch index and circuit
/// fingerprint; [`SuperSimError::root`] unwraps that context.
#[derive(Debug)]
pub enum SuperSimError {
    /// The cut strategy is invalid for the circuit (a manual cut point off
    /// its wire, or more cuts than the recombination accepts).
    Cut(CutError),
    /// A fragment could not be evaluated.
    Eval(EvalError),
    /// The MLFT correction could not normalize a fragment (its tensor
    /// would have poisoned recombination had the run continued).
    Mlft(MlftError),
    /// A worker panicked while executing one of this job's tasks. The
    /// panic was isolated: the pool and every other job survive, and
    /// surviving jobs stay bit-identical to sequential runs.
    Panicked {
        /// Pipeline stage of the panicking task.
        stage: Stage,
        /// Task index within the stage (evaluation chunk, MLFT fragment,
        /// recombination chunk); `None` when the panic escaped a
        /// stage-fold step rather than a per-task kernel.
        task: Option<usize>,
        /// The panic payload, rendered to a string.
        payload: String,
    },
    /// The job's deadline passed before it
    /// finished; work stopped at the next supervision checkpoint.
    DeadlineExceeded {
        /// Stage that observed the deadline.
        stage: Stage,
        /// Wall time the job had been running when it stopped.
        elapsed: Duration,
    },
    /// The batch's [`CancelToken`] fired before the job finished.
    Cancelled {
        /// Stage that observed the cancellation.
        stage: Stage,
        /// Wall time the job had been running when it stopped.
        elapsed: Duration,
    },
    /// A configured [`FaultPlan`] injected an error at one of this job's
    /// supervision checkpoints (chaos testing).
    Injected {
        /// Stage of the injection site.
        stage: Stage,
        /// The injector's site description (`job J stage S task T`).
        message: String,
    },
    /// Admission control rejected the job before it was enqueued.
    Rejected(AdmissionError),
    /// The run's parameters are invalid and nothing was executed: a
    /// sampled run resolved to zero shots ([`ConfigError::ZeroShots`]),
    /// through [`ExecParams::with_shots`] or a struct-literal
    /// configuration that bypassed the builder.
    Config(ConfigError),
    /// Per-job context wrapper attached by batch/sweep entry points.
    Job {
        /// Index of the job in the batch (circuit index for
        /// [`SuperSim::run_batch`], parameter index for
        /// [`Executor::run_sweep`]).
        job: usize,
        /// Structural fingerprint of the job's circuit
        /// ([`qcir::Circuit::fingerprint`]).
        fingerprint: u64,
        /// The underlying failure.
        source: Box<SuperSimError>,
    },
}

impl SuperSimError {
    /// Strips any [`SuperSimError::Job`] context layers and returns the
    /// underlying failure.
    pub fn root(&self) -> &SuperSimError {
        match self {
            SuperSimError::Job { source, .. } => source.root(),
            other => other,
        }
    }
}

impl fmt::Display for SuperSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperSimError::Cut(e) => write!(f, "cutting failed: {e}"),
            SuperSimError::Eval(e) => write!(f, "fragment evaluation failed: {e}"),
            SuperSimError::Mlft(e) => write!(f, "MLFT correction failed: {e}"),
            SuperSimError::Panicked {
                stage,
                task: Some(task),
                payload,
            } => write!(f, "{stage} task {task} panicked: {payload}"),
            SuperSimError::Panicked {
                stage,
                task: None,
                payload,
            } => write!(f, "{stage} stage panicked: {payload}"),
            SuperSimError::DeadlineExceeded { stage, elapsed } => {
                write!(f, "deadline exceeded during {stage} after {elapsed:?}")
            }
            SuperSimError::Cancelled { stage, elapsed } => {
                write!(f, "cancelled during {stage} after {elapsed:?}")
            }
            SuperSimError::Injected { stage, message } => {
                write!(f, "injected fault during {stage}: {message}")
            }
            SuperSimError::Rejected(e) => write!(f, "{e}"),
            SuperSimError::Config(e) => write!(f, "invalid run parameters: {e}"),
            SuperSimError::Job {
                job,
                fingerprint,
                source,
            } => write!(f, "job {job} (circuit {fingerprint:#018x}): {source}"),
        }
    }
}

impl std::error::Error for SuperSimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SuperSimError::Cut(e) => Some(e),
            SuperSimError::Eval(e) => Some(e),
            SuperSimError::Mlft(e) => Some(e),
            SuperSimError::Rejected(e) => Some(e),
            SuperSimError::Config(e) => Some(e),
            SuperSimError::Job { source, .. } => Some(source.as_ref()),
            SuperSimError::Panicked { .. }
            | SuperSimError::DeadlineExceeded { .. }
            | SuperSimError::Cancelled { .. }
            | SuperSimError::Injected { .. } => None,
        }
    }
}

/// Converts a supervision [`Fault`] observed at `stage` into the typed
/// pipeline error, stamping the job's elapsed wall time on interrupts
/// (the "partial timing" a cancelled or timed-out job still reports).
pub(crate) fn fault_error(stage: Stage, fault: Fault, supervisor: &Supervisor) -> SuperSimError {
    match fault {
        Fault::Interrupted(Interrupt::Cancelled) => SuperSimError::Cancelled {
            stage,
            elapsed: supervisor.elapsed(),
        },
        Fault::Interrupted(Interrupt::DeadlineExceeded) => SuperSimError::DeadlineExceeded {
            stage,
            elapsed: supervisor.elapsed(),
        },
        Fault::Injected(message) => SuperSimError::Injected { stage, message },
    }
}

/// The pipeline error of a failed evaluation: a supervision fault becomes
/// the typed fault error, a panicking chunk [`SuperSimError::Panicked`]
/// naming it.
pub(crate) fn eval_error(e: EvalError, supervisor: &Supervisor) -> SuperSimError {
    match e {
        EvalError::Interrupted(i) => fault_error(Stage::Eval, Fault::Interrupted(i), supervisor),
        EvalError::Injected(site) => fault_error(Stage::Eval, Fault::Injected(site), supervisor),
        EvalError::Panicked(p) => task_panicked(Stage::Eval, p),
        e => SuperSimError::Eval(e),
    }
}

/// The pipeline error of a failed MLFT correction, mapped like
/// [`eval_error`].
pub(crate) fn mlft_error(e: MlftError, supervisor: &Supervisor) -> SuperSimError {
    match e {
        MlftError::Interrupted(i) => fault_error(Stage::Mlft, Fault::Interrupted(i), supervisor),
        MlftError::Injected(site) => fault_error(Stage::Mlft, Fault::Injected(site), supervisor),
        MlftError::Panicked(p) => task_panicked(Stage::Mlft, p),
        e => SuperSimError::Mlft(e),
    }
}

fn task_panicked(stage: Stage, p: TaskPanic) -> SuperSimError {
    SuperSimError::Panicked {
        stage,
        task: Some(p.task),
        payload: p.payload,
    }
}

impl From<CutError> for SuperSimError {
    fn from(e: CutError) -> Self {
        SuperSimError::Cut(e)
    }
}

impl From<EvalError> for SuperSimError {
    fn from(e: EvalError) -> Self {
        SuperSimError::Eval(e)
    }
}

impl From<MlftError> for SuperSimError {
    fn from(e: MlftError) -> Self {
        SuperSimError::Mlft(e)
    }
}

/// Runtime counters of a [`SuperSim`] instance: plan-cache traffic and
/// the state of the process-wide persistent worker pool. Snapshot via
/// [`SuperSim::stats`].
#[derive(Copy, Clone, Debug)]
pub struct RunStats {
    /// This instance's plan-cache counters (hits, misses, evictions,
    /// occupancy).
    pub plan_cache: PlanCacheStats,
    /// The process-wide [`runtime`] pool (shared by every instance):
    /// live workers, total spawns, idle count. `spawned_total` staying
    /// flat across consecutive batches is the pool-reuse signal.
    pub pool: runtime::PoolStats,
}

/// Plans a [`SuperSim`]'s cache holds (keyed by circuit fingerprint and
/// cut strategy); the least recently used is evicted beyond this.
const PLAN_CACHE_CAPACITY: usize = 128;

/// The SuperSim framework: Clifford-based circuit cutting simulation.
///
/// Instances are cheap to clone; clones share one plan cache, so a
/// circuit planned through any clone is a cache hit for all of them.
#[derive(Clone, Debug)]
pub struct SuperSim {
    config: SuperSimConfig,
    plan_cache: Arc<PlanCache>,
}

impl Default for SuperSim {
    fn default() -> Self {
        SuperSim::new(SuperSimConfig::default())
    }
}

impl SuperSim {
    /// Creates a framework instance with the given configuration.
    pub fn new(config: SuperSimConfig) -> Self {
        let plan_cache = Arc::new(PlanCache::new(PLAN_CACHE_CAPACITY));
        SuperSim { config, plan_cache }
    }

    /// The active configuration.
    pub fn config(&self) -> &SuperSimConfig {
        &self.config
    }

    /// Runtime counters: this instance's plan-cache traffic and the
    /// process-wide worker-pool state.
    pub fn stats(&self) -> RunStats {
        RunStats {
            plan_cache: self.plan_cache.stats(),
            pool: runtime::pool_stats(),
        }
    }

    /// Builds the reusable [`CutPlan`] of a circuit: cut placement,
    /// fragment structure, variant enumeration, and recombination scatter
    /// plans. Sweeps and repeated runs pay this once.
    ///
    /// Consults the instance's plan cache first (keyed by the circuit's
    /// structural fingerprint and the configured cut strategy): a hit
    /// returns the already-built plan — the *same* `Arc` — which is
    /// bit-identical in effect to a rebuild because planning is
    /// deterministic. The cache holds the `PLAN_CACHE_CAPACITY` (128) most
    /// recently used plans.
    ///
    /// # Errors
    ///
    /// Returns [`SuperSimError::Cut`] when a manual cut point does not lie
    /// on its wire or the plan has more than
    /// [`cutkit::MAX_CONTRACTION_CUTS`] cuts.
    pub fn plan(&self, circuit: &Circuit) -> Result<Arc<CutPlan>, SuperSimError> {
        Ok(self.plan_cached(circuit)?.0)
    }

    /// Cache-first planning; the flag reports whether the plan was served
    /// from the cache (surfaced as [`RunReport::plan_cache_hit`]).
    fn plan_cached(&self, circuit: &Circuit) -> Result<(Arc<CutPlan>, bool), SuperSimError> {
        let strategy = &self.config.cut_strategy;
        if let Some(plan) = self.plan_cache.get(circuit, strategy) {
            return Ok((plan, true));
        }
        let plan = Arc::new(CutPlan::build(circuit, strategy.clone())?);
        self.plan_cache.insert(circuit, strategy, &plan);
        Ok((plan, false))
    }

    /// An [`Executor`] over this instance's configuration.
    pub fn executor(&self) -> Executor<'_> {
        Executor::new(&self.config)
    }

    /// Runs the full pipeline on a circuit — exactly [`SuperSim::plan`]
    /// followed by [`Executor::run`].
    ///
    /// # Errors
    ///
    /// Returns [`SuperSimError`] when the circuit cannot be cut as
    /// configured (see [`SuperSim::plan`]) or a fragment cannot be evaluated (too wide for the statevector
    /// backend, support too large for exact enumeration, noise in exact
    /// mode).
    pub fn run(&self, circuit: &Circuit) -> Result<RunResult, SuperSimError> {
        let (plan, cache_hit) = self.plan_cached(circuit)?;
        let params = ExecParams::from_config(&self.config);
        batch::run_single(&self.config, &plan, params, cache_hit)
    }

    /// Runs the full pipeline on a batch of circuits: one job per circuit,
    /// the jobs folded side by side on one worker pool (see the module
    /// docs).
    ///
    /// # Failure semantics
    ///
    /// Failures stay per-circuit, and every per-circuit error is wrapped
    /// in [`SuperSimError::Job`] (batch index + circuit fingerprint;
    /// unwrap with [`SuperSimError::root`]):
    ///
    /// * **Panic isolation** — a panic inside any of a job's tasks
    ///   (evaluation chunk, MLFT fragment, recombination) is caught and
    ///   becomes that job's [`SuperSimError::Panicked`], naming the lowest
    ///   panicking chunk or fragment; the pool, the other jobs, and their
    ///   bit-identity to sequential runs all survive.
    /// * **Deadlines and cancellation** — per-job deadlines
    ///   ([`SuperSimConfig::job_deadline`], [`ExecParams::deadline`]),
    ///   all counted from the start of the batch, and the shared
    ///   [`SuperSimConfig::cancel`] token are checked
    ///   cooperatively at chunk/fragment boundaries, yielding
    ///   [`SuperSimError::DeadlineExceeded`] /
    ///   [`SuperSimError::Cancelled`] with the job's elapsed wall time.
    /// * **Admission control** — each job's [`PlanCost`] is judged
    ///   against [`SuperSimConfig::admission`] before any job runs:
    ///   rejected jobs report [`SuperSimError::Rejected`] without
    ///   running.
    /// * **Determinism** — surviving jobs are **bit-identical** to
    ///   independent [`SuperSim::run`] calls for every thread count, and
    ///   a failing job's root error is the earliest faulting task in
    ///   task order (chunk order, then fragment order) on every
    ///   schedule.
    /// * **One attempt** — each job runs once. A caller that wants
    ///   another attempt runs the failed circuits again as a new batch
    ///   (a plan-cache hit); the new batch's errors index that sub-batch.
    pub fn run_batch(&self, circuits: &[Circuit]) -> Vec<Result<RunResult, SuperSimError>> {
        batch::run_circuits(&self.config, &self.plan_cache, circuits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Bits;
    use svsim::StateVec;

    fn exact_config() -> SuperSimConfig {
        SuperSimConfig {
            exact: true,
            ..SuperSimConfig::default()
        }
    }

    fn assert_matches_sv(c: &Circuit, cfg: SuperSimConfig, tol: f64, label: &str) {
        let result = SuperSim::new(cfg).run(c).unwrap();
        let sv = StateVec::run(c).unwrap();
        let dist = result.distribution.as_ref().expect("joint available");
        for x in 0..1usize << c.num_qubits() {
            let b = Bits::from_u64(x as u64, c.num_qubits());
            let got = dist.prob(&b);
            let expect = sv.probability_of_index(x);
            assert!(
                (got - expect).abs() < tol,
                "{label}: p({b}) = {got} vs sv {expect}"
            );
        }
    }

    #[test]
    fn exact_pipeline_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).h(2);
        assert_matches_sv(&c, exact_config(), 1e-9, "3q 1T");
    }

    #[test]
    fn exact_pipeline_two_t_gates() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1).h(1).t(1).h(0);
        assert_matches_sv(&c, exact_config(), 1e-9, "2q 2T");
    }

    #[test]
    fn sampled_pipeline_close_to_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).h(2);
        let cfg = SuperSimConfig {
            shots: 20_000,
            seed: 7,
            ..SuperSimConfig::default()
        };
        assert_matches_sv(&c, cfg, 0.03, "sampled 3q");
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).h(2);
        let seq = SuperSim::new(exact_config()).run(&c).unwrap();
        let par = SuperSim::new(SuperSimConfig {
            parallel: true,
            ..exact_config()
        })
        .run(&c)
        .unwrap();
        for x in 0..8u64 {
            let b = Bits::from_u64(x, 3);
            let a = seq.distribution.as_ref().unwrap().prob(&b);
            let p = par.distribution.as_ref().unwrap().prob(&b);
            assert!((a - p).abs() < 1e-9, "parallel mismatch at {b}");
        }
    }

    #[test]
    fn parallel_mlft_bit_identical_to_sequential() {
        // Sampled mode with MLFT on: the corrected pipeline must be
        // bit-identical between the sequential loop and the worker pool.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).t(2).h(2);
        let cfg = |parallel: bool, threads: usize| SuperSimConfig {
            shots: 400,
            seed: 11,
            mlft: true,
            parallel,
            threads,
            ..SuperSimConfig::default()
        };
        let seq = SuperSim::new(cfg(false, 1)).run(&c).unwrap();
        for threads in [2usize, 8] {
            let par = SuperSim::new(cfg(true, threads)).run(&c).unwrap();
            assert!(
                seq.report.mlft_moved.to_bits() == par.report.mlft_moved.to_bits(),
                "mlft_moved differs at {threads} threads"
            );
            let a = seq.distribution.as_ref().unwrap();
            let b = par.distribution.as_ref().unwrap();
            assert_eq!(a.support_len(), b.support_len());
            for ((ab, ap), (bb, bp)) in a.iter().zip(b.iter()) {
                assert_eq!(ab, bb, "support order at {threads} threads");
                assert!(
                    ap.to_bits() == bp.to_bits(),
                    "probability differs at {ab:?}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn report_counts_fragments_and_cuts() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1).h(1);
        let r = SuperSim::new(exact_config()).run(&c).unwrap();
        assert_eq!(r.report.num_cuts, 2);
        assert_eq!(r.report.num_fragments, 3);
        assert_eq!(r.report.clifford_fragments, 2);
        // 12 variants for the middle T fragment + upstream (3) + downstream (4).
        assert_eq!(r.report.num_variants, 12 + 3 + 4);
    }

    #[test]
    fn strong_simulation_probability() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).h(0).cx(0, 1);
        let r = SuperSim::new(exact_config()).run(&c).unwrap();
        let sv = StateVec::run(&c).unwrap();
        for x in 0..4u64 {
            let b = Bits::from_u64(x, 2);
            assert!(
                (r.probability_of(&b) - sv.probability_of(&b)).abs() < 1e-9,
                "strong sim at {b}"
            );
        }
    }

    #[test]
    fn marginals_available_without_joint() {
        // Force the joint off via a tiny support limit.
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).t(2).cx(2, 3);
        let cfg = SuperSimConfig {
            joint_support_limit: 1,
            ..exact_config()
        };
        let r = SuperSim::new(cfg).run(&c).unwrap();
        assert!(r.distribution.is_none());
        assert_eq!(r.marginals.len(), 4);
        let sv = StateVec::run(&c).unwrap();
        let sv_dist = metrics::Distribution::from_pairs(4, sv.distribution(1e-12));
        for q in 0..4 {
            let m = sv_dist.marginal(q);
            assert!(
                (r.marginals[q][0] - m[0]).abs() < 1e-9,
                "marginal q{q}: {:?} vs {m:?}",
                r.marginals[q]
            );
        }
    }

    #[test]
    fn pure_clifford_circuit_no_cut_needed() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).s(2);
        let r = SuperSim::new(exact_config()).run(&c).unwrap();
        assert_eq!(r.report.num_cuts, 0);
        assert_eq!(r.report.num_fragments, 1);
        let dist = r.distribution.unwrap();
        assert!((dist.total_mass() - 1.0).abs() < 1e-9);
    }

    /// Under the default configuration every variant of a small circuit
    /// fits the 5000 shots, so the sampled pipeline enumerates them all and
    /// its marginals and joint are the statevector's to rounding.
    #[test]
    fn default_config_enumerates_small_fragments_exactly() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).t(2).h(2);
        let r = SuperSim::new(SuperSimConfig::builder().seed(3).build().unwrap())
            .run(&c)
            .unwrap();
        assert_eq!(r.report.enumerated_variants, r.report.num_variants);
        assert!(r
            .report
            .to_string()
            .contains(&format!("({} enumerated)", r.report.num_variants)));
        assert_matches_sv(
            &c,
            SuperSimConfig::builder().seed(3).build().unwrap(),
            1e-12,
            "enumerated",
        );
        let sv = StateVec::run(&c).unwrap();
        let sv_marg = metrics::Distribution::from_pairs(3, sv.distribution(1e-14));
        for q in 0..3 {
            assert!(
                (r.marginals[q][0] - sv_marg.marginal(q)[0]).abs() < 1e-12,
                "qubit {q}"
            );
        }
    }

    /// `plan` + `Executor::run` is the same pipeline as `run`, and plan
    /// reuse across repeated executions changes nothing: identical
    /// marginals, joint support, probability bits, and diagnostics.
    #[test]
    fn planned_execution_bit_identical_to_run() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).t(2).h(2);
        let cfg = SuperSimConfig {
            shots: 350,
            seed: 99,
            ..SuperSimConfig::default()
        };
        let sim = SuperSim::new(cfg);
        let direct = sim.run(&c).unwrap();
        let plan = sim.plan(&c).unwrap();
        assert_eq!(plan.num_cuts(), direct.report.num_cuts);
        assert_eq!(plan.num_variants(), direct.report.num_variants);
        assert_eq!(plan.clifford_fragments(), direct.report.clifford_fragments);
        let executor = sim.executor();
        for rep in 0..2 {
            let replay = executor.run(&plan).unwrap();
            assert!(
                replay.report.mlft_moved.to_bits() == direct.report.mlft_moved.to_bits(),
                "mlft_moved drifted on replay {rep}"
            );
            for (q, (a, b)) in direct.marginals.iter().zip(&replay.marginals).enumerate() {
                assert!(
                    a[0].to_bits() == b[0].to_bits() && a[1].to_bits() == b[1].to_bits(),
                    "marginal bits differ at qubit {q}, replay {rep}"
                );
            }
            let (da, db) = (
                direct.distribution.as_ref().unwrap(),
                replay.distribution.as_ref().unwrap(),
            );
            assert_eq!(da.support_len(), db.support_len());
            for ((ab, ap), (bb, bp)) in da.iter().zip(db.iter()) {
                assert_eq!(ab, bb, "support order, replay {rep}");
                assert!(ap.to_bits() == bp.to_bits(), "probability at {ab:?}");
            }
        }
    }

    /// `run_with` overrides seed and shots exactly like a reconfigured
    /// single run.
    #[test]
    fn run_with_matches_reconfigured_run() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1).h(1);
        let base = SuperSimConfig {
            shots: 200,
            seed: 5,
            ..SuperSimConfig::default()
        };
        let sim = SuperSim::new(base.clone());
        let plan = sim.plan(&c).unwrap();
        let swept = sim
            .executor()
            .run_with(
                &plan,
                ExecParams::from_config(&base).with_seed(77).with_shots(300),
            )
            .unwrap();
        let reconfigured = SuperSim::new(SuperSimConfig {
            seed: 77,
            shots: 300,
            ..base
        })
        .run(&c)
        .unwrap();
        for (a, b) in swept.marginals.iter().zip(&reconfigured.marginals) {
            assert!(a[0].to_bits() == b[0].to_bits() && a[1].to_bits() == b[1].to_bits());
        }
    }

    /// Repeated planning of a structurally identical circuit is a cache
    /// hit: the same `Arc` comes back, the hit is surfaced on the run
    /// report, and a gate edit misses.
    #[test]
    fn plan_cache_hits_on_identical_structure() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1);
        let sim = SuperSim::new(SuperSimConfig {
            shots: 100,
            ..SuperSimConfig::default()
        });
        let first = sim.plan(&c).unwrap();
        let second = sim.plan(&c).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "identical circuit must be served from the cache"
        );
        // The cached plan flows through `run`, flagged on the report, and
        // stays bit-identical to the first (cache-miss) run.
        let cold = SuperSim::new(sim.config().clone()).run(&c).unwrap();
        assert!(!cold.report.plan_cache_hit);
        let warm = sim.run(&c).unwrap();
        assert!(warm.report.plan_cache_hit);
        assert!(warm.bit_identical_to(&cold));
        // A structural edit misses.
        let mut edited = Circuit::new(2);
        edited.h(0).t(0).cx(0, 1).h(1);
        let third = sim.plan(&edited).unwrap();
        assert!(!Arc::ptr_eq(&first, &third));
        let stats = sim.stats().plan_cache;
        assert!(stats.hits >= 2, "stats: {stats:?}");
        assert!(stats.misses >= 2, "stats: {stats:?}");
        // run_batch shares the same cache: every circuit here is cached.
        let batch = sim.run_batch(&[c.clone(), edited.clone()]);
        for r in &batch {
            assert!(r.as_ref().unwrap().report.plan_cache_hit);
        }
    }

    /// A plan snapshot round-trips: save → load rebuilds a plan with the
    /// same structure, and executing it is bit-identical to the original.
    #[test]
    fn plan_snapshot_round_trips_bit_identically() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).t(2).h(2);
        let cfg = SuperSimConfig {
            shots: 250,
            seed: 17,
            ..SuperSimConfig::default()
        };
        let sim = SuperSim::new(cfg);
        let plan = sim.plan(&c).unwrap();
        let loaded = CutPlan::from_text(&plan.to_text()).unwrap();
        assert_eq!(loaded.fingerprint(), plan.fingerprint());
        assert_eq!(loaded.num_cuts(), plan.num_cuts());
        assert_eq!(loaded.num_variants(), plan.num_variants());
        assert_eq!(loaded.strategy(), plan.strategy());
        let executor = sim.executor();
        let original = executor.run(&plan).unwrap();
        let replayed = executor.run(&loaded).unwrap();
        assert!(
            replayed.bit_identical_to(&original),
            "loaded plan must execute bit-identically"
        );
        // The snapshot also round-trips textually (stable format).
        assert_eq!(loaded.to_text(), plan.to_text());
        // Manual strategies render and parse too.
        let manual = CutPlan::build(
            &c,
            cutkit::CutStrategy::Manual(vec![cutkit::CutPoint {
                qubit: 1,
                after_op: 2,
            }]),
        )
        .unwrap();
        let manual_loaded = CutPlan::from_text(&manual.to_text()).unwrap();
        assert_eq!(manual_loaded.strategy(), manual.strategy());
        assert_eq!(manual_loaded.fingerprint(), manual.fingerprint());
    }

    /// Edited snapshots that used to panic the loader are typed errors: a
    /// manual cut point off its wire, and a gate with a repeated operand.
    /// The same cut point through `SuperSim::plan` is a `Cut` error.
    #[test]
    fn malformed_plan_snapshots_are_typed_errors() {
        let off_wire = "supersim-plan v1\nstrategy manual 1:0\nqubits 2\nh 0\ncx 0 1\n";
        let point = cutkit::CutPoint {
            qubit: 1,
            after_op: 0,
        };
        match CutPlan::from_text(off_wire) {
            Err(PlanLoadError::Cut(CutError::InvalidCutPoint(p))) => assert_eq!(p, point),
            other => panic!("expected an invalid cut point, got {other:?}"),
        }
        match CutPlan::from_text("supersim-plan v1\nstrategy none\nqubits 2\ncx 1 1\n") {
            Err(PlanLoadError::Circuit(e)) => {
                assert_eq!(e.line, 2);
                assert!(e.message.contains("duplicate"), "{e}");
            }
            other => panic!("expected a circuit parse error, got {other:?}"),
        }
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sim = SuperSim::new(SuperSimConfig {
            cut_strategy: CutStrategy::Manual(vec![point]),
            ..SuperSimConfig::default()
        });
        assert!(matches!(
            sim.run(&c),
            Err(SuperSimError::Cut(CutError::InvalidCutPoint(p))) if p == point
        ));
    }

    /// A plan with more cuts than the contraction accepts is refused when
    /// it is built — a permanent `Cut` error on every entry point — instead
    /// of evaluating every variant and panicking in recombination.
    #[test]
    fn too_many_cuts_is_a_permanent_planning_error() {
        let mut c = Circuit::new(1);
        for _ in 0..15 {
            c.h(0).t(0);
        }
        let too_many = CutError::TooManyCuts { cuts: 14, max: 13 };
        let after_each_t = |n: usize| {
            (0..n)
                .map(|i| cutkit::CutPoint {
                    qubit: 0,
                    after_op: 2 * i + 1,
                })
                .collect::<Vec<_>>()
        };
        let uncut = CutPlan::build(&c, CutStrategy::None).unwrap().to_text();
        let manual_line = after_each_t(14)
            .iter()
            .fold("strategy manual".to_string(), |line, p| {
                format!("{line} {}:{}", p.qubit, p.after_op)
            });
        for (strategy, line) in [
            (CutStrategy::Manual(after_each_t(14)), manual_line),
            (
                CutStrategy::IsolateNonClifford { max_cuts: 14 },
                "strategy isolate 14".to_string(),
            ),
        ] {
            let sim = SuperSim::new(SuperSimConfig {
                cut_strategy: strategy.clone(),
                ..SuperSimConfig::default()
            });
            let batch = sim.run_batch(std::slice::from_ref(&c)).pop().unwrap();
            let batch = batch.unwrap_err();
            assert!(
                matches!(batch, SuperSimError::Job { job: 0, .. }),
                "{batch}"
            );
            for err in [sim.plan(&c).unwrap_err(), sim.run(&c).unwrap_err(), batch] {
                assert!(
                    matches!(err.root(), SuperSimError::Cut(e) if *e == too_many),
                    "{strategy:?}: {err}"
                );
            }
            match CutPlan::from_text(&uncut.replace("strategy none", &line)) {
                Err(PlanLoadError::Cut(e)) => assert_eq!(e, too_many),
                other => panic!("{strategy:?}: expected a cut error, got {other:?}"),
            }
        }
        // At the limit the plan is accepted.
        let plan = CutPlan::build(&c, CutStrategy::Manual(after_each_t(13))).unwrap();
        assert_eq!(plan.num_cuts(), cutkit::MAX_CONTRACTION_CUTS);
    }

    /// Evaluation failures in a batch stay per-circuit: the failing
    /// circuit reports the same error an independent run would, and the
    /// other circuits' results are untouched.
    #[test]
    fn batch_isolates_per_circuit_failures() {
        let mut fine = Circuit::new(2);
        fine.h(0).t(0).cx(0, 1);
        // Uncut non-Clifford circuit wider than the statevector backend
        // allows: evaluation fails with FragmentTooWide.
        let mut infeasible = Circuit::new(svsim::MAX_QUBITS + 1);
        infeasible.t(0);
        let cfg = SuperSimConfig {
            cut_strategy: CutStrategy::None,
            shots: 100,
            seed: 2,
            ..SuperSimConfig::default()
        };
        let sim = SuperSim::new(cfg);
        let results = sim.run_batch(&[fine.clone(), infeasible.clone()]);
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok(), "feasible circuit must run");
        let standalone = sim.run(&infeasible).unwrap_err();
        // Batch errors carry a Job context layer; the root failure is the
        // same error the standalone run reports.
        let batch_err = results[1].as_ref().unwrap_err();
        match batch_err {
            SuperSimError::Job { job, .. } => assert_eq!(*job, 1),
            other => panic!("batch error missing job context: {other:?}"),
        }
        match (batch_err.root(), standalone.root()) {
            (
                SuperSimError::Eval(cutkit::EvalError::FragmentTooWide(a)),
                SuperSimError::Eval(cutkit::EvalError::FragmentTooWide(b)),
            ) => assert_eq!(a, b),
            other => panic!("unexpected error pair {other:?}"),
        }
        // The feasible circuit's batch result matches its standalone run.
        let solo = sim.run(&fine).unwrap();
        let batch_fine = results[0].as_ref().unwrap();
        for (a, b) in solo.marginals.iter().zip(&batch_fine.marginals) {
            assert!(a[0].to_bits() == b[0].to_bits() && a[1].to_bits() == b[1].to_bits());
        }
    }
}
