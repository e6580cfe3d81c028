//! One round over a set of jobs: the body of every run entry point.
//!
//! A job is a plan, its [`ExecParams`] and its batch index. Batches
//! ([`run_circuits`]), sweeps ([`run_points`]) and single runs
//! ([`run_single`]) build their jobs and run them once through
//! [`execute_jobs`]. Nothing here retries: a failed job keeps its typed
//! error, and a caller that wants another attempt runs the job again (the
//! `resilient_service` example is such a caller's loop).
//!
//! A job is three calls in order: cutkit's evaluation driver
//! ([`cutkit::evaluate_fragment_tensors_planned`]), its MLFT driver
//! ([`cutkit::correct_tensors`]) and recombination ([`finish_run`]). The
//! jobs run as a [`runtime::fold_ordered`], so production runs exactly
//! the drivers the benchmark harness and cutkit's reference-parity tests
//! exercise.
//!
//! # Work split
//!
//! With `W` the configured worker count and `n` jobs, the fold over jobs
//! runs on `min(W, n)` workers, and each job's evaluation, MLFT and
//! contraction folds run on `max(1, W / n)` workers nested inside it. A
//! single job — `run`, `run_with`, a solo job — therefore keeps all `W`.
//!
//! # Supervision
//!
//! Before anything runs, every job's [`PlanCost`](crate::PlanCost) is
//! judged by the configured [`AdmissionPolicy`](crate::AdmissionPolicy):
//! rejected jobs record [`SuperSimError::Rejected`] without running, and
//! sequentialized jobs run alone, with all `W` workers, after the pooled
//! phase. Every job's [`Supervisor`] — job index, cancel token, per-job
//! and batch deadlines, fault plan — is built before the first job of its
//! phase starts; the batch deadline counts from the start of the call.
//! The drivers check the supervisor at every evaluation chunk, MLFT
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
//! whichever phase runs it and however many jobs share it, and a failing
//! job reports the earliest failing task in task order, as that run would.

use super::cache::PlanCache;
use super::execute::{
    base_seeds, eval_options, finish_run, mlft_enabled, resolved_error_budget, tensor_options,
    worker_threads, ExecParams, RunResult,
};
use super::plan::CutPlan;
use super::supervise::Admission;
use super::{eval_error, mlft_error, ConfigError, SuperSimConfig, SuperSimError};
use cutkit::{
    correct_tensors, evaluate_fragment_tensors_planned, CutError, FragmentTensor, MlftOptions,
};
use faultkit::{panic_message, Stage, Supervisor};
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One job: a plan executed with one set of parameters.
struct BatchJob<'p> {
    plan: &'p CutPlan,
    params: ExecParams,
    /// The job's supervision id — the index fault plans target and error
    /// context reports: its position in the caller's batch (circuit index
    /// for `run_batch`, point index for `run_sweep`).
    index: usize,
    /// Whether the plan came from the instance cache (stamped on reports).
    cache_hit: bool,
}

/// Executes the jobs under the supervision layer (see the module docs)
/// and returns per-job results in job order, without
/// [`SuperSimError::Job`] context — the entry points attach it.
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
    // The job fold runs on `min(W, n)` workers, each job's folds on
    // `per_job`; spawning their peak up front keeps a warm batch from
    // spawning whenever its nested folds overlap more than the first did.
    runtime::prewarm(workers.min(subset.len()), per_job);
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
/// position in the caller's batch, independent of which phase runs it.
fn supervisor(
    config: &SuperSimConfig,
    job: &BatchJob<'_>,
    batch_deadline_at: Option<Instant>,
) -> Supervisor {
    let mut supervisor = Supervisor::for_job(job.index);
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
    let mut run = in_stage(Stage::Recombine, || {
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
    })?;
    run.report.plan_cache_hit = job.cache_hit;
    Ok(run)
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

/// Runs every circuit of a batch once: plans cache-first, then one job
/// per planned circuit. Results come back in circuit order, each error
/// wrapped in [`SuperSimError::Job`]; a circuit that fails to plan keeps
/// its [`SuperSimError::Cut`] and runs nothing.
pub(crate) fn run_circuits(
    config: &SuperSimConfig,
    cache: &PlanCache,
    circuits: &[qcir::Circuit],
) -> Vec<Result<RunResult, SuperSimError>> {
    let params = ExecParams::from_config(config);
    let plans = build_plans(config, cache, circuits);
    let ran = {
        let jobs: Vec<BatchJob<'_>> = plans
            .iter()
            .enumerate()
            .filter_map(|(index, (plan, cache_hit))| {
                let plan = plan.as_deref().ok()?;
                Some(BatchJob {
                    plan,
                    params,
                    index,
                    cache_hit: *cache_hit,
                })
            })
            .collect();
        execute_jobs(config, &jobs)
    };
    let mut ran = ran.into_iter();
    plans
        .into_iter()
        .zip(circuits)
        .enumerate()
        .map(|(job, ((plan, _), circuit))| match plan {
            Ok(plan) => {
                let result = ran.next().expect("every planned circuit ran");
                result.map_err(|e| wrap(job, plan.fingerprint(), e))
            }
            // A built plan carries its circuit's fingerprint; only a
            // planning failure recomputes it.
            Err(e) => Err(wrap(job, circuit.fingerprint(), SuperSimError::Cut(e))),
        })
        .collect()
}

/// Runs one job per parameter point over one plan, results in point
/// order, each error wrapped in [`SuperSimError::Job`].
pub(crate) fn run_points(
    config: &SuperSimConfig,
    plan: &CutPlan,
    params: &[ExecParams],
) -> Vec<Result<RunResult, SuperSimError>> {
    let jobs: Vec<BatchJob<'_>> = params
        .iter()
        .enumerate()
        .map(|(index, &params)| BatchJob {
            plan,
            params,
            index,
            cache_hit: false,
        })
        .collect();
    execute_jobs(config, &jobs)
        .into_iter()
        .enumerate()
        .map(|(job, result)| result.map_err(|e| wrap(job, plan.fingerprint(), e)))
        .collect()
}

/// Runs one job, its error without the [`SuperSimError::Job`] context
/// (the single-run error shape).
pub(crate) fn run_single(
    config: &SuperSimConfig,
    plan: &CutPlan,
    params: ExecParams,
    cache_hit: bool,
) -> Result<RunResult, SuperSimError> {
    let job = BatchJob {
        plan,
        params,
        index: 0,
        cache_hit,
    };
    execute_jobs(config, &[job])
        .pop()
        .expect("one job, one result")
}

/// The per-job context every batch and sweep error carries.
fn wrap(job: usize, fingerprint: u64, source: SuperSimError) -> SuperSimError {
    SuperSimError::Job {
        job,
        fingerprint,
        source: Box::new(source),
    }
}
