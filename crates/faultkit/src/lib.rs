//! Supervision primitives for the SuperSim pipeline: cooperative
//! cancellation, deadlines, poison-recovering locks, and a deterministic
//! fault-injection harness.
//!
//! A batch (`supersim`'s pipeline) runs many independent jobs on one
//! shared worker pool. A service built on that pool must guarantee that
//! one pathological job — a panicking kernel, a job past its latency
//! budget, an operator-cancelled batch — fails *alone*, *fast*, and
//! *reportably*. This crate holds the pieces of that contract that are
//! independent of the pipeline itself:
//!
//! * [`CancelToken`] — a shareable cooperative cancellation flag;
//! * [`Supervisor`] — the per-job supervision context (cancel token +
//!   deadline + fault plan), consulted at chunk/fragment boundaries via
//!   [`Supervisor::check`];
//! * [`FaultPlan`] — a deterministic, seeded schedule of injected faults
//!   (panic / error / stall) keyed by `(job, stage, task)`, so every
//!   failure path is exercised by tests rather than trusted;
//! * [`catch_task`] — turns a panic inside one task into that task's typed
//!   error ([`TaskPanic`]), so a panic is reported like any other failure;
//! * [`lock_or_recover`] — mutex acquisition that recovers from poisoning
//!   instead of cascading a caught panic into `PoisonError` panics.
//!
//! Everything here is dependency-free `std`. Determinism is a design
//! constraint throughout: a fault plan fires at exactly the scheduled
//! sites for every thread count, and the seeded scatter
//! ([`FaultPlan::scattered`]) derives its sites from the seed alone.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A pipeline stage, as seen by the supervision layer. Checkpoints and
/// fault-plan sites are keyed by `(job, Stage, task)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Fragment evaluation (task = evaluation chunk index).
    Eval,
    /// MLFT correction (task = fragment index).
    Mlft,
    /// Recombination (task = contraction chunk index).
    Recombine,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Eval => write!(f, "eval"),
            Stage::Mlft => write!(f, "mlft"),
            Stage::Recombine => write!(f, "recombine"),
        }
    }
}

/// A shareable cooperative cancellation flag. Cloning shares the flag;
/// cancelling any clone cancels them all. Supervised work observes the
/// flag at its next checkpoint and stops with [`Interrupt::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why supervised work stopped before completing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The job's [`CancelToken`] was cancelled.
    Cancelled,
    /// The job ran past its deadline.
    DeadlineExceeded,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "cancelled"),
            Interrupt::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl std::error::Error for Interrupt {}

/// What a supervision checkpoint reported: either a cooperative interrupt
/// (cancellation / deadline) or an injected error from the fault plan.
/// (Injected *panics* do not return — they unwind, exactly like a real
/// defect, so the catch-unwind isolation path is what gets exercised.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Cancelled or past deadline.
    Interrupted(Interrupt),
    /// A scheduled [`FaultKind::Error`] fired at this site.
    Injected(String),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Interrupted(i) => write!(f, "{i}"),
            Fault::Injected(msg) => write!(f, "injected error: {msg}"),
        }
    }
}

impl std::error::Error for Fault {}

/// The kind of fault a [`FaultPlan`] fires at a scheduled site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the checkpoint (exercises `catch_unwind` isolation).
    Panic,
    /// Return an injected error from the checkpoint (exercises the typed
    /// per-job error path).
    Error,
    /// Sleep at the checkpoint, then continue (exercises deadlines and
    /// slow-job isolation).
    Stall(Duration),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Error => write!(f, "error"),
            FaultKind::Stall(d) => write!(f, "stall {d:?}"),
        }
    }
}

/// A deterministic schedule of injected faults, keyed by
/// `(job, stage, task)`. The plan is immutable once built and shared via
/// `Arc`, so every worker observes the identical schedule; a site fires
/// every time its checkpoint is reached (checkpoints run at most once per
/// task on every path, so in practice a site fires at most once per run).
///
/// Per-job deadline overrides ([`FaultPlan::with_job_deadline`]) ride
/// along for chaos testing: they let a harness give one job of a batch a
/// zero deadline — a deterministic `DeadlineExceeded` at its first
/// checkpoint — without perturbing its neighbours.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    sites: BTreeMap<(usize, Stage, usize), FaultKind>,
    job_deadlines: BTreeMap<usize, Duration>,
}

impl FaultPlan {
    /// An empty plan (no faults fire).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `kind` to fire when `job` reaches `task` of `stage`.
    /// Later calls override earlier ones at the same site.
    pub fn inject(mut self, job: usize, stage: Stage, task: usize, kind: FaultKind) -> Self {
        self.sites.insert((job, stage, task), kind);
        self
    }

    /// Overrides `job`'s deadline (chaos-harness knob: `Duration::ZERO`
    /// makes the job fail deterministically at its first checkpoint).
    pub fn with_job_deadline(mut self, job: usize, deadline: Duration) -> Self {
        self.job_deadlines.insert(job, deadline);
        self
    }

    /// A seeded scatter of `count` faults over `num_jobs` jobs: each
    /// chosen job gets one fault at task 0 of its evaluation stage (every
    /// job has at least one evaluation chunk, so the site always fires),
    /// with the kind cycling panic → error → stall by seed. The schedule
    /// is a pure function of `(seed, num_jobs, count)` — the CI fault
    /// matrix varies the seed to sweep different failure placements.
    pub fn scattered(seed: u64, num_jobs: usize, count: usize) -> Self {
        let mut plan = FaultPlan::new();
        let mut state = seed;
        for job in choose_jobs(&mut state, num_jobs, count) {
            let kind = match splitmix64(&mut state) % 3 {
                0 => FaultKind::Panic,
                1 => FaultKind::Error,
                _ => FaultKind::Stall(Duration::from_millis(1)),
            };
            plan = plan.inject(job, Stage::Eval, 0, kind);
        }
        plan
    }

    /// The fault scheduled at `(job, stage, task)`, if any.
    pub fn at(&self, job: usize, stage: Stage, task: usize) -> Option<&FaultKind> {
        self.sites.get(&(job, stage, task))
    }

    /// The deadline override of `job`, if any.
    pub fn job_deadline(&self, job: usize) -> Option<Duration> {
        self.job_deadlines.get(&job).copied()
    }

    /// Every scheduled site, in `(job, stage, task)` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Stage, usize, &FaultKind)> {
        self.sites
            .iter()
            .map(|(&(job, stage, task), kind)| (job, stage, task, kind))
    }
}

/// The seeded distinct-job choice of [`FaultPlan::scattered`]: draws until
/// `count.min(num_jobs)` distinct jobs are chosen, in draw order.
fn choose_jobs(state: &mut u64, num_jobs: usize, count: usize) -> Vec<usize> {
    let mut chosen: Vec<usize> = Vec::new();
    if num_jobs == 0 {
        return chosen;
    }
    while chosen.len() < count.min(num_jobs) {
        let job = (splitmix64(state) % num_jobs as u64) as usize;
        if !chosen.contains(&job) {
            chosen.push(job);
        }
    }
    chosen
}

/// SplitMix64 step — the dependency-free deterministic stream behind
/// [`FaultPlan::scattered`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-job supervision context: a cancel token, an absolute deadline,
/// and a shared fault plan, checked at chunk/fragment boundaries. An
/// unsupervised (default) context reduces every checkpoint to two `None`
/// tests, so supervision adds no measurable overhead to clean runs.
#[derive(Clone, Debug)]
pub struct Supervisor {
    job: usize,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    epoch: Instant,
    faults: Option<Arc<FaultPlan>>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            job: 0,
            cancel: None,
            deadline: None,
            epoch: Instant::now(),
            faults: None,
        }
    }
}

impl Supervisor {
    /// An unsupervised context: every checkpoint passes.
    pub fn new() -> Self {
        Supervisor::default()
    }

    /// A context for fault-plan site lookup under job id `job`.
    pub fn for_job(job: usize) -> Self {
        Supervisor {
            job,
            ..Supervisor::default()
        }
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Sets the absolute deadline; checkpoints after this instant fail
    /// with [`Interrupt::DeadlineExceeded`]. When a deadline is already
    /// set, the earlier one wins (a fault plan's deadline override
    /// composes with the job's own by `min`).
    fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(match self.deadline {
            Some(d) => d.min(deadline),
            None => deadline,
        });
        self
    }

    /// Sets the deadline `timeout` from the supervisor's epoch (its
    /// creation instant). When a deadline is already set, the earlier
    /// one wins.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let at = self.epoch.checked_add(timeout).unwrap_or_else(|| {
            // Unrepresentable far-future deadline: effectively unlimited;
            // keep the existing deadline (if any) by adding nothing.
            self.epoch + Duration::from_secs(u32::MAX as u64)
        });
        self.with_deadline_at(at)
    }

    /// Attaches a shared fault plan; also applies the plan's deadline
    /// override for this job, when one is scheduled.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        let override_deadline = faults.job_deadline(self.job);
        self.faults = Some(faults);
        match override_deadline {
            Some(d) => self.with_timeout(d),
            None => self,
        }
    }

    /// Wall time since the supervisor was created — the partial timing
    /// statistic reported with interrupts.
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// The supervision checkpoint, called at chunk/fragment boundaries:
    /// observes cancellation first, then the deadline, then fires any
    /// fault scheduled at `(job, stage, task)`.
    ///
    /// # Errors
    ///
    /// [`Fault::Interrupted`] when cancelled or past deadline;
    /// [`Fault::Injected`] when a [`FaultKind::Error`] is scheduled here.
    ///
    /// # Panics
    ///
    /// Panics (deliberately) when a [`FaultKind::Panic`] is scheduled at
    /// this site — the caller's `catch_unwind` isolation is the code
    /// under test.
    pub fn check(&self, stage: Stage, task: usize) -> Result<(), Fault> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Err(Fault::Interrupted(Interrupt::Cancelled));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Fault::Interrupted(Interrupt::DeadlineExceeded));
            }
        }
        if let Some(plan) = &self.faults {
            match plan.at(self.job, stage, task) {
                Some(FaultKind::Panic) => {
                    panic!("injected fault: job {} stage {stage} task {task}", self.job);
                }
                Some(FaultKind::Error) => {
                    return Err(Fault::Injected(format!(
                        "job {} stage {stage} task {task}",
                        self.job
                    )));
                }
                Some(FaultKind::Stall(d)) => std::thread::sleep(*d),
                None => {}
            }
        }
        Ok(())
    }
}

/// A panic caught inside one task of a supervised loop: the task's index
/// and the rendered payload, so the panic can travel as that task's typed
/// error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the panicking task within its stage (evaluation chunk,
    /// MLFT fragment).
    pub task: usize,
    /// The panic payload, rendered by [`panic_message`].
    pub payload: String,
}

/// Runs the body of task `task`, turning a panic into the task's error.
///
/// An ordered parallel loop that calls this per item treats a panicking
/// item like any failing one: the lowest failing index is reported on every
/// schedule, instead of whichever panic unwound first.
///
/// # Errors
///
/// The body's own error, or `E::from(TaskPanic)` when the body panicked.
pub fn catch_task<T, E: From<TaskPanic>>(
    task: usize,
    body: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        Err(E::from(TaskPanic {
            task,
            payload: panic_message(payload.as_ref()),
        }))
    })
}

/// Renders a caught panic payload: the message of a `&str` or `String`
/// payload, a placeholder for anything else.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Acquires a mutex, recovering from poisoning: a panic caught and
/// contained by the supervision layer must not cascade into `PoisonError`
/// panics in every sibling worker that touches the same job state. The
/// protected data's invariants are maintained by the callers (each slot
/// is written by exactly one task), so recovery is sound.
pub fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Consumes a mutex, recovering its contents even when poisoned — the
/// end-of-run counterpart of [`lock_or_recover`].
pub fn into_inner_or_recover<T>(mutex: Mutex<T>) -> T {
    mutex
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Blocks on a condition variable, recovering from poisoning — the
/// [`Condvar::wait`](std::sync::Condvar::wait) counterpart of
/// [`lock_or_recover`], for worker pools that must keep parking/waking
/// after a sibling panicked while holding the paired mutex.
pub fn wait_or_recover<'a, T>(
    condvar: &std::sync::Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    condvar
        .wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_between_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn unsupervised_checkpoints_always_pass() {
        let s = Supervisor::new();
        for task in 0..4 {
            assert_eq!(s.check(Stage::Eval, task), Ok(()));
            assert_eq!(s.check(Stage::Recombine, task), Ok(()));
        }
    }

    #[test]
    fn cancellation_beats_deadline_at_checkpoints() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let s = Supervisor::new()
            .with_cancel(cancel)
            .with_timeout(Duration::ZERO);
        assert_eq!(
            s.check(Stage::Eval, 0),
            Err(Fault::Interrupted(Interrupt::Cancelled))
        );
    }

    #[test]
    fn zero_deadline_fails_every_checkpoint() {
        let s = Supervisor::new().with_timeout(Duration::ZERO);
        for task in 0..3 {
            assert_eq!(
                s.check(Stage::Mlft, task),
                Err(Fault::Interrupted(Interrupt::DeadlineExceeded))
            );
        }
    }

    #[test]
    fn deadlines_compose_by_min() {
        let s = Supervisor::new()
            .with_timeout(Duration::from_secs(3600))
            .with_timeout(Duration::ZERO);
        assert_eq!(
            s.check(Stage::Eval, 0),
            Err(Fault::Interrupted(Interrupt::DeadlineExceeded))
        );
        let t = Supervisor::new()
            .with_timeout(Duration::ZERO)
            .with_timeout(Duration::from_secs(3600));
        assert_eq!(
            t.check(Stage::Eval, 0),
            Err(Fault::Interrupted(Interrupt::DeadlineExceeded))
        );
    }

    #[test]
    fn fault_plan_fires_only_at_its_site() {
        let plan = Arc::new(FaultPlan::new().inject(2, Stage::Eval, 3, FaultKind::Error));
        let hit = Supervisor::for_job(2).with_faults(plan.clone());
        assert!(matches!(hit.check(Stage::Eval, 3), Err(Fault::Injected(_))));
        assert_eq!(hit.check(Stage::Eval, 2), Ok(()));
        assert_eq!(hit.check(Stage::Mlft, 3), Ok(()));
        let other_job = Supervisor::for_job(1).with_faults(plan);
        assert_eq!(other_job.check(Stage::Eval, 3), Ok(()));
    }

    #[test]
    fn injected_panic_unwinds_at_its_site() {
        let plan = Arc::new(FaultPlan::new().inject(0, Stage::Recombine, 1, FaultKind::Panic));
        let s = Supervisor::for_job(0).with_faults(plan);
        assert_eq!(s.check(Stage::Recombine, 0), Ok(()));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.check(Stage::Recombine, 1);
        }));
        let payload = caught.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("injected fault"), "payload: {msg}");
    }

    #[test]
    fn job_deadline_override_applies_through_with_faults() {
        let plan = Arc::new(FaultPlan::new().with_job_deadline(4, Duration::ZERO));
        let doomed = Supervisor::for_job(4).with_faults(plan.clone());
        assert_eq!(
            doomed.check(Stage::Eval, 0),
            Err(Fault::Interrupted(Interrupt::DeadlineExceeded))
        );
        let fine = Supervisor::for_job(3).with_faults(plan);
        assert_eq!(fine.check(Stage::Eval, 0), Ok(()));
    }

    #[test]
    fn scattered_plans_are_seed_deterministic() {
        let a = FaultPlan::scattered(7, 10, 3);
        let b = FaultPlan::scattered(7, 10, 3);
        let sites_a: Vec<_> = a.iter().map(|(j, s, t, k)| (j, s, t, k.clone())).collect();
        let sites_b: Vec<_> = b.iter().map(|(j, s, t, k)| (j, s, t, k.clone())).collect();
        assert_eq!(sites_a, sites_b);
        assert_eq!(sites_a.len(), 3);
        // Every site lands on eval task 0 of a distinct in-range job.
        for (job, stage, task, _) in &sites_a {
            assert!(*job < 10);
            assert_eq!(*stage, Stage::Eval);
            assert_eq!(*task, 0);
        }
        // A different seed produces a different placement (for these
        // parameters; equality would be astronomically unlikely).
        let c = FaultPlan::scattered(8, 10, 3);
        let sites_c: Vec<_> = c.iter().map(|(j, s, t, k)| (j, s, t, k.clone())).collect();
        assert_ne!(sites_a, sites_c);
    }

    #[test]
    fn lock_or_recover_survives_poisoning() {
        let m = Mutex::new(41);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        *lock_or_recover(&m) += 1;
        assert_eq!(*lock_or_recover(&m), 42);
        assert_eq!(into_inner_or_recover(m), 42);
    }

    #[test]
    fn wait_or_recover_wakes_through_poisoned_mutex() {
        use std::sync::{Arc, Condvar};
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        // Poison the mutex first so the waiter exercises the recovery arm.
        {
            let pair = Arc::clone(&pair);
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _guard = pair.0.lock().unwrap();
                panic!("poison it");
            }));
        }
        assert!(pair.0.is_poisoned());
        let signaller = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                *lock_or_recover(&pair.0) = true;
                pair.1.notify_all();
            })
        };
        let mut ready = lock_or_recover(&pair.0);
        while !*ready {
            ready = wait_or_recover(&pair.1, ready);
        }
        drop(ready);
        signaller.join().unwrap();
    }
}
