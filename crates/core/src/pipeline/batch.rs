//! The batch stage: one shared worker pool spanning all circuits and all
//! pipeline stages, under a supervision layer.
//!
//! [`execute_jobs`] drives a set of (plan, params) jobs — the backend of
//! [`SuperSim::run_batch`](crate::SuperSim::run_batch) (many circuits),
//! [`Executor::run_sweep`](crate::Executor::run_sweep) (one plan, many
//! parameter points), and [`Executor::run_with`](crate::Executor::run_with)
//! (a single supervised job) — through a dependency-driven task queue:
//!
//! * every job's evaluation decomposes into the same fixed (fragment ×
//!   variant) chunks a standalone run uses
//!   ([`cutkit::evaluate_planned_chunk`]); all jobs' chunks go into one
//!   FIFO queue, so workers drain whatever is ready regardless of which
//!   circuit it belongs to;
//! * a chunk that lands folds into its job's running partial as soon as
//!   every earlier chunk has ([`cutkit::EvalChunk::absorb`], always in
//!   chunk order), so a job retains one partial per fragment plus the few
//!   chunks that landed early — not one per chunk until the end, which on
//!   a many-variant plan is tens of MiB allocated and released per run;
//! * when a job's **last** evaluation chunk lands, the finishing worker
//!   finishes the tensors ([`cutkit::merge_planned_chunks`]) and enqueues
//!   that job's per-fragment MLFT tasks — no global stage barrier, so one
//!   slow circuit cannot hold every other circuit's MLFT and
//!   recombination hostage;
//! * when a job's last MLFT task lands, its `mlft_moved` folds in fragment
//!   order and a single recombination task is enqueued (recombination is
//!   bit-identical for any thread count, so the batch contracts each job
//!   with one thread and takes its parallelism from running many jobs at
//!   once).
//!
//! # Supervision
//!
//! Before anything is enqueued, every job's [`PlanCost`] is judged by the
//! configured [`AdmissionPolicy`](crate::AdmissionPolicy): rejected jobs
//! record [`SuperSimError::Rejected`] without running, and sequentialized
//! jobs run alone (with the full pool) after the pooled phase. Each
//! admitted job carries a [`Supervisor`] — job index, cancel token,
//! per-job/batch deadlines, fault-injection plan — consulted at every
//! chunk/fragment boundary. Every task body runs under `catch_unwind`, so
//! a panic (including injected ones) becomes that job's
//! [`SuperSimError::Panicked`] while the pool, the other jobs, and their
//! bit-identity all survive; mutexes a panicking task may have poisoned
//! are recovered, never unwrapped.
//!
//! # Determinism
//!
//! The work-item decomposition is a pure function of each job (never of
//! the worker count or schedule), and every float fold happens in a fixed
//! order — chunks in chunk order, fragments in fragment order, jobs
//! independent — so each job's output is **bit-identical to an
//! independent sequential [`SuperSim::run`](crate::SuperSim::run)** with
//! the same parameters, for every pool size. Per-job RNG streams are
//! derived from the job's own seed exactly as single runs derive them,
//! which isolates the streams of different circuits in a batch.
//!
//! # Errors
//!
//! Failures stay per-job: a circuit whose evaluation or correction fails
//! reports the same root error an independent run would. Failed tasks
//! record into a per-job *failure floor* (a `fetch_min` over task
//! indices), and tasks above the floor are skipped while tasks at or
//! below it always run — so the reported failure is the **earliest
//! faulting task in task order on every schedule**, for every
//! deterministic fault source (evaluation errors, injected faults).

use super::cache::PlanCache;
use super::execute::{
    base_seeds, contraction_pool, eval_options, finish_run, mlft_enabled, resolved_error_budget,
    tensor_options, worker_threads, ExecParams, RunResult,
};
use super::plan::CutPlan;
use super::supervise::Admission;
use super::{fault_error, ConfigError, SuperSimConfig, SuperSimError};
use cutkit::{
    correct_tensor, evaluate_planned_chunk, merge_planned_chunks, planned_num_chunks, EvalChunk,
    EvalError, EvalOptions, FragmentTensor, MlftError, MlftOptions, TensorOptions,
};
use faultkit::{into_inner_or_recover, lock_or_recover, wait_or_recover, Fault, Stage, Supervisor};
use std::collections::VecDeque;
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One unit of batch work: a plan executed with one set of parameters.
pub(crate) struct BatchJob<'p> {
    pub plan: &'p CutPlan,
    pub params: ExecParams,
    /// The job's supervision id — the index fault plans target and error
    /// context reports. Entry points set it to the caller-visible batch
    /// position (circuit index for `run_batch`, point index for
    /// `run_sweep`), and the resilience layer keeps it stable across
    /// retries so a fault plan follows its job through every attempt.
    pub index: usize,
    /// Zero-based execution attempt (0 = first try), forwarded to the
    /// job's [`Supervisor`] so attempt-aware transient faults
    /// ([`faultkit::FaultKind::FailNTimes`]) see retries.
    pub attempt: usize,
}

/// A schedulable task. Tasks of one job are enqueued in dependency order
/// (all evaluation chunks, then — once those complete — MLFT fragments,
/// then recombination); the FIFO queue preserves within-job chunk order,
/// which the deterministic error selection relies on.
#[derive(Clone, Copy, Debug)]
enum Task {
    EvalChunk { job: usize, chunk: usize },
    Mlft { job: usize, frag: usize },
    Recombine { job: usize },
}

/// How one task of a job failed. Recorded per task slot; the job's
/// finish step converts the earliest failure (in task order) into the
/// job's [`SuperSimError`].
#[derive(Debug)]
enum TaskFailure {
    /// The evaluation kernel returned an error (including supervision
    /// interrupts and injected errors observed inside the kernel).
    Eval(EvalError),
    /// The MLFT correction returned an error.
    Mlft(MlftError),
    /// A supervision checkpoint in the scheduler itself tripped.
    Fault(Fault),
    /// The task panicked; payload rendered to a string.
    Panicked(String),
}

/// A job's evaluation chunks, folded in chunk order as they land.
struct ChunkFold {
    /// Chunks `..next` folded into one (`None` before chunk 0 lands).
    folded: Option<EvalChunk>,
    next: usize,
    /// Landed chunks from `next` on (`None` = not run yet, skipped after an
    /// earlier chunk of this job failed, or already folded).
    slots: Vec<Option<Result<EvalChunk, TaskFailure>>>,
}

impl ChunkFold {
    /// Records chunk `chunk`'s outcome and folds every chunk that is now
    /// contiguous with the folded prefix; a failed chunk stops the fold
    /// for good.
    fn land(&mut self, chunk: usize, outcome: Result<EvalChunk, TaskFailure>) {
        self.slots[chunk] = Some(outcome);
        while let Some(Some(Ok(_))) = self.slots.get(self.next) {
            let Some(Ok(landed)) = self.slots[self.next].take() else {
                unreachable!("matched above")
            };
            match &mut self.folded {
                Some(folded) => folded.absorb(landed),
                None => self.folded = Some(landed),
            }
            self.next += 1;
        }
    }
}

/// Mutable per-job state, shared across workers. Slots are written by
/// exactly one worker each (the queue hands out distinct tasks), so the
/// mutexes are uncontended handles for `&mut` access — but for `chunks`,
/// which a worker holds while it folds what it landed (an id-indexed
/// vector add per chunk, against a whole chunk's evaluation outside the
/// lock). All locks recover from poisoning: a panicking task must not take
/// down its siblings.
struct JobState<'p> {
    plan: &'p CutPlan,
    eval: EvalOptions,
    topts: TensorOptions,
    seeds: Vec<u64>,
    num_chunks: usize,
    /// This job's supervision context (job index, cancel token, deadline,
    /// fault plan) — cloned into the evaluation options and the
    /// recombination step, checked directly by the MLFT arm.
    supervisor: Supervisor,
    /// Resolved recombination error budget of this job (the params
    /// override when set, the config's budget otherwise).
    error_budget: f64,
    /// The evaluation chunks landed so far.
    chunks: Mutex<ChunkFold>,
    chunks_left: AtomicUsize,
    /// Lowest failing chunk index (`usize::MAX` = none). Chunks above
    /// the floor are skipped; chunks at or below it always run, so the
    /// floor only tightens toward the true minimum and the reported
    /// error is the earliest failing chunk on every schedule.
    fail_floor: AtomicUsize,
    /// Finished fragment tensors, populated when the last chunk folds;
    /// corrected in place by the per-fragment MLFT tasks.
    tensors: Vec<Mutex<Option<FragmentTensor>>>,
    /// Variants whose rows were enumerated, read off the folded chunks
    /// when the last one lands: stored (`Release`) before the job's next
    /// stage is enqueued, loaded (`Acquire`) by its recombination task.
    enumerated_variants: AtomicUsize,
    /// Per-fragment MLFT outcomes, folded in fragment order at the end.
    moved: Mutex<Vec<Option<Result<f64, TaskFailure>>>>,
    mlft_left: AtomicUsize,
    /// Folded `mlft_moved` (set between the MLFT and recombine stages).
    mlft_moved: Mutex<f64>,
    started: Instant,
    /// Wall time from job start to the end of its correction stage (the
    /// batch analogue of the single-run `eval_time`; overlaps other jobs'
    /// work on the shared pool).
    eval_time: Mutex<std::time::Duration>,
    /// Guards result recording: a job completes exactly once even when a
    /// fold-step panic races its own error path.
    done: AtomicBool,
    result: Mutex<Option<Result<RunResult, SuperSimError>>>,
}

impl<'p> JobState<'p> {
    /// The supervision context is keyed by [`BatchJob::index`] — the
    /// job's position in the caller's batch, independent of which
    /// scheduling phase (pooled or solo) or retry attempt runs it.
    fn new(
        config: &SuperSimConfig,
        job: &BatchJob<'p>,
        batch_deadline_at: Option<Instant>,
    ) -> Self {
        let plan = job.plan;
        let fragments = plan.num_fragments();
        let num_chunks = planned_num_chunks(&plan.eval_plans);
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
        JobState {
            plan,
            eval: eval_options(config, job.params, supervisor.clone()),
            topts: tensor_options(config),
            seeds: base_seeds(job.params.seed, fragments),
            num_chunks,
            supervisor,
            error_budget: resolved_error_budget(config, job.params),
            chunks: Mutex::new(ChunkFold {
                folded: None,
                next: 0,
                slots: (0..num_chunks).map(|_| None).collect(),
            }),
            chunks_left: AtomicUsize::new(num_chunks),
            fail_floor: AtomicUsize::new(usize::MAX),
            tensors: (0..fragments).map(|_| Mutex::new(None)).collect(),
            enumerated_variants: AtomicUsize::new(0),
            moved: Mutex::new((0..fragments).map(|_| None).collect()),
            mlft_left: AtomicUsize::new(fragments),
            mlft_moved: Mutex::new(0.0),
            started: Instant::now(),
            eval_time: Mutex::new(std::time::Duration::ZERO),
            done: AtomicBool::new(false),
            result: Mutex::new(None),
        }
    }
}

/// FIFO task queue with completion-based termination.
struct Queue {
    tasks: Mutex<VecDeque<Task>>,
    ready: Condvar,
    jobs_done: AtomicUsize,
    total_jobs: usize,
    /// Pool size, for tasks that can borrow idle capacity (tail-job
    /// recombination).
    workers: usize,
    /// Set when a worker panics outside the per-task isolation (a
    /// scheduler bug, not a task fault): termination is completion-based
    /// (`jobs_done == total_jobs`), and such a worker's job would never
    /// complete — without this flag its siblings would wait on the
    /// condvar forever and the pool run would deadlock instead of
    /// propagating the panic.
    aborted: AtomicBool,
}

impl Queue {
    fn push(&self, new: impl IntoIterator<Item = Task>) {
        let mut q = lock_or_recover(&self.tasks);
        q.extend(new);
        drop(q);
        self.ready.notify_all();
    }

    /// Pops the next task, blocking while the queue is empty but jobs are
    /// still in flight (their completions will enqueue follow-up tasks).
    /// Returns `None` once every job has recorded its result or a sibling
    /// worker panicked (the panic then propagates from the scope join).
    fn pop(&self) -> Option<Task> {
        let mut q = lock_or_recover(&self.tasks);
        loop {
            if self.aborted.load(Ordering::Acquire) {
                return None;
            }
            if let Some(t) = q.pop_front() {
                return Some(t);
            }
            if self.jobs_done.load(Ordering::Acquire) >= self.total_jobs {
                return None;
            }
            q = wait_or_recover(&self.ready, q);
        }
    }

    /// Marks one job complete; wakes idle workers so they can re-check the
    /// termination condition.
    fn job_done(&self) {
        let done = self.jobs_done.fetch_add(1, Ordering::AcqRel) + 1;
        if done >= self.total_jobs {
            self.wake_all();
        }
    }

    /// Flags the pool as dead and wakes every waiter (worker-panic path).
    fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        self.wake_all();
    }

    fn wake_all(&self) {
        // Taking the lock orders the flag/counter store before any
        // waiter's re-check; recover from poisoning — this runs on panic
        // paths, where an unwrap would turn one contained task panic
        // into a pool-wide abort.
        let _guard = lock_or_recover(&self.tasks);
        self.ready.notify_all();
    }
}

/// Aborts the queue when dropped during a panic, so sibling workers wake
/// and exit instead of waiting for a job that will never complete.
struct AbortOnPanic<'q>(&'q Queue);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

/// Executes every job under the supervision layer (see the module docs)
/// and returns per-job results in job order. Errors are **not** wrapped
/// in [`SuperSimError::Job`] here — the public batch/sweep entry points
/// attach that context with their own job indexing.
pub(crate) fn execute_jobs(
    config: &SuperSimConfig,
    jobs: &[BatchJob<'_>],
) -> Vec<Result<RunResult, SuperSimError>> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let batch_deadline_at = config.batch_deadline.map(|d| Instant::now() + d);
    // Admission control: judge every job before anything is enqueued.
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
    // Pooled phase: every admitted job shares one pool; then the
    // sequentialized jobs run one at a time, each with the pool to
    // itself. Both phases use the identical task decomposition, so
    // results are bit-identical whichever phase runs a job.
    run_scheduled(config, jobs, &pooled, batch_deadline_at, &mut results);
    for &i in &solo {
        run_scheduled(config, jobs, &[i], batch_deadline_at, &mut results);
    }
    results
        .into_iter()
        .map(|r| r.expect("every job records a result"))
        .collect()
}

/// Runs the jobs selected by `subset` (indices into `jobs`) on one shared
/// pool and records their results. Supervisors keep the jobs' original
/// batch indices, so fault plans and error context are phase-independent.
fn run_scheduled(
    config: &SuperSimConfig,
    jobs: &[BatchJob<'_>],
    subset: &[usize],
    batch_deadline_at: Option<Instant>,
    results: &mut [Option<Result<RunResult, SuperSimError>>],
) {
    if subset.is_empty() {
        return;
    }
    let states: Vec<JobState<'_>> = subset
        .iter()
        .map(|&i| JobState::new(config, &jobs[i], batch_deadline_at))
        .collect();
    let workers = worker_threads(config)
        .min(total_tasks_bound(&states))
        .max(1);
    let queue = Queue {
        tasks: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        jobs_done: AtomicUsize::new(0),
        total_jobs: states.len(),
        workers,
        aborted: AtomicBool::new(false),
    };
    // Seed the queue with every job's evaluation chunks, job-major: the
    // FIFO drain then keeps each job's chunks in chunk order.
    queue.push(
        states.iter().enumerate().flat_map(|(j, s)| {
            (0..s.num_chunks).map(move |c| Task::EvalChunk { job: j, chunk: c })
        }),
    );
    if workers <= 1 {
        // Sequential drain on the current thread — the identical task
        // structure, so results match the pooled paths bit for bit.
        while let Some(task) = queue.pop() {
            run_task(config, &states, &queue, task);
        }
    } else {
        // The persistent runtime pool replaces the per-call thread scope:
        // workers (including the calling thread) drain the same queue, and
        // consecutive batches reuse the live threads. A panic escaping the
        // drain loop trips `AbortOnPanic` (the pool unwinds the worker's
        // ticket, so `std::thread::panicking()` is observed) and is
        // re-raised by `run` after every ticket finishes — the same
        // propagation the scope join used to provide.
        runtime::Pool::global().run(workers, |_| {
            let _abort_guard = AbortOnPanic(&queue);
            while let Some(task) = queue.pop() {
                run_task(config, &states, &queue, task);
            }
        });
    }
    for (&i, s) in subset.iter().zip(states) {
        results[i] =
            Some(into_inner_or_recover(s.result).expect("every scheduled job records a result"));
    }
}

/// A loose upper bound on useful workers (no point spawning more threads
/// than initially queued evaluation chunks across all jobs).
fn total_tasks_bound(states: &[JobState<'_>]) -> usize {
    states.iter().map(|s| s.num_chunks).sum::<usize>().max(1)
}

/// Records a job's result and marks it complete, exactly once: losers of
/// the race (e.g. a fold-step panic whose error path already completed
/// the job) are dropped.
fn complete(s: &JobState<'_>, queue: &Queue, result: Result<RunResult, SuperSimError>) {
    if !s.done.swap(true, Ordering::AcqRel) {
        *lock_or_recover(&s.result) = Some(result);
        queue.job_done();
    }
}

/// Renders a caught panic payload for [`SuperSimError::Panicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Converts the earliest task failure of a stage into the job's typed
/// error, stamping elapsed time on interrupts and stage/task context on
/// panics and injections.
fn task_error(
    stage: Stage,
    task: Option<usize>,
    failure: TaskFailure,
    supervisor: &Supervisor,
) -> SuperSimError {
    match failure {
        TaskFailure::Eval(EvalError::Interrupted(i)) => {
            fault_error(stage, Fault::Interrupted(i), supervisor)
        }
        TaskFailure::Eval(EvalError::Injected(site)) => {
            fault_error(stage, Fault::Injected(site), supervisor)
        }
        TaskFailure::Eval(e) => SuperSimError::Eval(e),
        TaskFailure::Mlft(e) => SuperSimError::Mlft(e),
        TaskFailure::Fault(fault) => fault_error(stage, fault, supervisor),
        TaskFailure::Panicked(payload) => SuperSimError::Panicked {
            stage,
            task,
            payload,
        },
    }
}

fn run_task(config: &SuperSimConfig, states: &[JobState<'_>], queue: &Queue, task: Task) {
    match task {
        Task::EvalChunk { job, chunk } => {
            let s = &states[job];
            // Skip only chunks *above* the failure floor: chunks below
            // the earliest failure always run, so the reported error is
            // schedule-independent.
            if chunk <= s.fail_floor.load(Ordering::Relaxed) {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    evaluate_planned_chunk(
                        &s.plan.cut.fragments,
                        &s.plan.eval_plans,
                        &s.eval,
                        &s.seeds,
                        chunk,
                    )
                }));
                let r: Result<EvalChunk, TaskFailure> = match outcome {
                    Ok(Ok(c)) => Ok(c),
                    Ok(Err(e)) => Err(TaskFailure::Eval(e)),
                    Err(payload) => Err(TaskFailure::Panicked(panic_message(payload.as_ref()))),
                };
                if r.is_err() {
                    s.fail_floor.fetch_min(chunk, Ordering::Relaxed);
                }
                lock_or_recover(&s.chunks).land(chunk, r);
            }
            if s.chunks_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                if let Err(payload) =
                    catch_unwind(AssertUnwindSafe(|| finish_eval(config, s, queue, job)))
                {
                    complete(
                        s,
                        queue,
                        Err(SuperSimError::Panicked {
                            stage: Stage::Eval,
                            task: None,
                            payload: panic_message(payload.as_ref()),
                        }),
                    );
                }
            }
        }
        Task::Mlft { job, frag } => {
            let s = &states[job];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                s.supervisor
                    .check(Stage::Mlft, frag)
                    .map_err(TaskFailure::Fault)?;
                let mut slot = lock_or_recover(&s.tensors[frag]);
                let tensor = slot.as_mut().expect("MLFT before tensors finalized");
                correct_tensor(tensor, &MlftOptions::default()).map_err(TaskFailure::Mlft)
            }));
            let r: Result<f64, TaskFailure> = match outcome {
                Ok(r) => r,
                Err(payload) => Err(TaskFailure::Panicked(panic_message(payload.as_ref()))),
            };
            lock_or_recover(&s.moved)[frag] = Some(r);
            if s.mlft_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| finish_mlft(s, queue, job)))
                {
                    complete(
                        s,
                        queue,
                        Err(SuperSimError::Panicked {
                            stage: Stage::Mlft,
                            task: None,
                            payload: panic_message(payload.as_ref()),
                        }),
                    );
                }
            }
        }
        Task::Recombine { job } => {
            let s = &states[job];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let tensors: Vec<FragmentTensor> = s
                    .tensors
                    .iter()
                    .map(|m| {
                        lock_or_recover(m)
                            .take()
                            .expect("recombine before tensors finalized")
                    })
                    .collect();
                let mlft_moved = *lock_or_recover(&s.mlft_moved);
                let eval_time = *lock_or_recover(&s.eval_time);
                // Recombination is bit-identical for any thread count, so
                // the contraction may soak up idle pool capacity when few
                // jobs remain (a tail sweep point on a large 4^k plan
                // would otherwise contract single-threaded while workers
                // idle) — purely a scheduling choice, never a numerical
                // one. Single-job calls (run_with, solo phase) use the
                // configured contraction pool like a standalone run.
                let rec_threads = if queue.total_jobs == 1 {
                    contraction_pool(config)
                } else {
                    let remaining = queue
                        .total_jobs
                        .saturating_sub(queue.jobs_done.load(Ordering::Acquire))
                        .max(1);
                    (queue.workers / remaining).max(1)
                };
                finish_run(
                    config,
                    s.plan,
                    tensors,
                    s.enumerated_variants.load(Ordering::Acquire),
                    mlft_moved,
                    eval_time,
                    rec_threads,
                    s.error_budget,
                    &s.supervisor,
                )
            }));
            let result = match outcome {
                Ok(r) => r,
                Err(payload) => Err(SuperSimError::Panicked {
                    stage: Stage::Recombine,
                    task: None,
                    payload: panic_message(payload.as_ref()),
                }),
            };
            complete(s, queue, result);
        }
    }
}

/// Runs when a job's last evaluation chunk lands: finishes the folded
/// chunks into fragment tensors, then opens the job's next stage.
fn finish_eval(config: &SuperSimConfig, s: &JobState<'_>, queue: &Queue, job: usize) {
    let (folded, unfolded) = {
        let mut fold = lock_or_recover(&s.chunks);
        (fold.folded.take(), std::mem::take(&mut fold.slots))
    };
    // Every chunk has landed, so the fold stopped short only at a failure:
    // the first in chunk order — identical to the error an independent
    // sequential run reports. Chunks past it ran or were skipped above the
    // failure floor.
    for (idx, slot) in unfolded.into_iter().enumerate() {
        if let Some(Err(failure)) = slot {
            complete(
                s,
                queue,
                Err(task_error(Stage::Eval, Some(idx), failure, &s.supervisor)),
            );
            return;
        }
    }
    if let Some(chunk) = &folded {
        s.enumerated_variants
            .store(chunk.enumerated_variants(), Ordering::Release);
    }
    let tensors = merge_planned_chunks(
        &s.plan.cut.fragments,
        &s.plan.eval_plans,
        &s.eval,
        &s.topts,
        folded,
    );
    for (slot, tensor) in s.tensors.iter().zip(tensors) {
        *lock_or_recover(slot) = Some(tensor);
    }
    if mlft_enabled(config) {
        queue.push((0..s.plan.num_fragments()).map(|f| Task::Mlft { job, frag: f }));
    } else {
        *lock_or_recover(&s.eval_time) = s.started.elapsed();
        queue.push([Task::Recombine { job }]);
    }
}

/// Runs when a job's last MLFT task lands: folds `mlft_moved` in fragment
/// order (the first failing fragment's error wins, like the sequential
/// path) and enqueues recombination.
fn finish_mlft(s: &JobState<'_>, queue: &Queue, job: usize) {
    let outcomes = std::mem::take(&mut *lock_or_recover(&s.moved));
    let mut total = 0.0;
    for (frag, outcome) in outcomes.into_iter().enumerate() {
        match outcome.expect("every fragment records an MLFT outcome") {
            Ok(moved) => total += moved,
            Err(failure) => {
                complete(
                    s,
                    queue,
                    Err(task_error(Stage::Mlft, Some(frag), failure, &s.supervisor)),
                );
                return;
            }
        }
    }
    *lock_or_recover(&s.mlft_moved) = total;
    *lock_or_recover(&s.eval_time) = s.started.elapsed();
    queue.push([Task::Recombine { job }]);
}

/// Builds every circuit's plan — cache-first, then on the configured pool
/// size when rebuilding pays: plans are independent and placed by index,
/// so the output is identical to the sequential loop for any worker
/// count. Parallelizing this matters because cutting *is* the dominant
/// stage for cut-bound batches (the `batch_sweep` workload) — a serial
/// planning pass would serialize exactly the cost the batch front-end
/// exists to amortize. The `bool` in each result reports whether the
/// plan came from the cache (planning is deterministic, so hits are
/// bit-identical in effect to rebuilds).
pub(crate) fn build_plans(
    config: &SuperSimConfig,
    cache: &PlanCache,
    circuits: &[qcir::Circuit],
) -> Vec<(Result<Arc<CutPlan>, SuperSimError>, bool)> {
    let strategy = &config.cut_strategy;
    let build = |c: &qcir::Circuit| {
        CutPlan::build(c, strategy.clone())
            .map(Arc::new)
            .map_err(SuperSimError::Cut)
    };
    let mut out: Vec<Option<(Result<Arc<CutPlan>, SuperSimError>, bool)>> = circuits
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
        |j, _| Ok::<_, Infallible>(build(&circuits[missing[j]])),
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

/// Plans and executes a batch of circuits (the backend of
/// [`SuperSim::run_batch`](crate::SuperSim::run_batch)): each circuit is
/// cut and planned up front (an invalid cut strategy stays per-circuit),
/// then every successfully planned circuit executes on the shared pool.
/// Every per-circuit error — planning or execution — is wrapped in
/// [`SuperSimError::Job`] with the circuit's batch index and fingerprint.
pub(crate) fn plan_and_run_batch(
    config: &SuperSimConfig,
    cache: &PlanCache,
    circuits: &[qcir::Circuit],
) -> Vec<Result<RunResult, SuperSimError>> {
    let plans = build_plans(config, cache, circuits);
    let params = ExecParams::from_config(config);
    let jobs: Vec<BatchJob<'_>> = plans
        .iter()
        .enumerate()
        .filter_map(|(i, (p, _))| {
            p.as_ref().ok().map(|plan| BatchJob {
                plan: plan.as_ref(),
                params,
                // Supervision id = circuit index, so fault plans target
                // batch positions even when an earlier circuit failed
                // planning and was never enqueued.
                index: i,
                attempt: 0,
            })
        })
        .collect();
    let mut executed = execute_jobs(config, &jobs).into_iter();
    plans
        .iter()
        .zip(circuits)
        .enumerate()
        .map(|(i, ((p, cache_hit), circuit))| {
            let result = match p {
                Ok(_) => executed
                    .next()
                    .expect("one result per planned job")
                    .map(|mut r| {
                        r.report.plan_cache_hit = *cache_hit;
                        r
                    }),
                Err(SuperSimError::Cut(e)) => Err(SuperSimError::Cut(e.clone())),
                Err(_) => unreachable!("planning only produces cut errors"),
            };
            result.map_err(|e| SuperSimError::Job {
                job: i,
                fingerprint: circuit.fingerprint(),
                source: Box::new(e),
            })
        })
        .collect()
}
