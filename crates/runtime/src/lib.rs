//! Persistent worker pool and the one ordered parallel loop built on it.
//!
//! Every parallel stage of the pipeline has the same shape: `n`
//! independent work items (evaluation chunks, fragments to correct,
//! contraction chunks, circuits to plan) whose results fold into one
//! accumulator. This crate owns that shape, so the rule that keeps it
//! deterministic is written once:
//!
//! - [`fold_ordered`] — runs `work(i)` for every `i in 0..n` on up to
//!   `workers` workers, merges the results **in index order**, reports the
//!   **lowest-index failure** on every schedule, and resolves a claimed
//!   index before a panic unwinds past it. With one worker it is a plain
//!   loop on the calling thread.
//! - [`pool_stats`] — the health counters of the **persistent,
//!   lazily-grown pool** `fold_ordered` runs on (a private `Pool`: it runs
//!   a body once per worker index on pooled threads and blocks until all
//!   finish, propagating the first panic like a scoped spawn).
//! - [`worker_count`] — the one thread-count heuristic (request → env
//!   override → hardware default → cap clamp).
//!
//! # Ownership and lifecycle
//!
//! Workers are plain OS threads owned by the pool that spawned them. The
//! process-wide pool spawns workers on first demand and **never shrinks or
//! re-spawns**: consecutive `run_batch` calls reuse the same live threads,
//! which is the point. Idle workers park on a condition variable and cost
//! nothing but their stacks. Locally constructed pools (tests) shut their
//! workers down on drop.
//!
//! The pool grows to the helpers its in-flight calls have asked for: a
//! call for `n` workers reserves `n - 1` helpers until it returns, and a
//! worker is spawned only while the live count is below the reservations
//! outstanding. Nested folds — a job's evaluation fold running inside a
//! batch's fold over jobs — therefore get real parallelism, and a sequence
//! of calls from one thread whose nesting multiplies out to at most `W`
//! workers never holds more than `W - 1` helpers, so a warm rerun spawns
//! nothing.
//!
//! The **caller participates**: a call for `n` workers claims worker
//! indices on the calling thread too, so a job can never deadlock waiting
//! for pool capacity — with zero idle workers the caller simply runs every
//! index itself (and `n == 1` never touches the pool at all, keeping the
//! sequential paths allocation-free). The calling thread only blocks once
//! all indices are claimed, waiting for the stragglers it did not run
//! itself.
//!
//! # Supervisor integration and panic safety
//!
//! The pool is deliberately supervision-agnostic: `faultkit::Supervisor`
//! checkpoints (cancellation, deadlines, fault injection) live inside the
//! work closures, and a caller that wants a panic reported as a typed
//! error catches it there (`faultkit::catch_task`), where the fold's
//! lowest-index rule then applies to it. What the pool does guarantee is
//! containment: each claimed index runs under `catch_unwind`, the first
//! panic payload is re-raised on the *calling* thread once the job
//! completes (matching scoped-spawn semantics), and pool threads never die
//! from a task panic — a panicking fault-injection run leaves the pool as
//! healthy as a clean one. All internal locks use `faultkit`'s
//! poison-recovering accessors.
//!
//! # Bit-identity
//!
//! Nothing in this crate makes scheduling observable to results: work
//! decomposition stays a pure function of the job at every call site, and
//! [`fold_ordered`] commits merges in strict index order into a single
//! accumulator, so outputs are bit-identical for every worker count —
//! including one, which bypasses the pool entirely.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use faultkit::{into_inner_or_recover, lock_or_recover, wait_or_recover};

// ---------------------------------------------------------------------------
// Thread-count heuristic
// ---------------------------------------------------------------------------

/// Resolves a requested thread count against the environment and a cap.
///
/// `requested > 0` is taken literally; `requested == 0` means "auto":
/// the `SUPERSIM_TEST_THREADS` environment variable when set to a positive
/// integer (so CI matrices pin the default pool width process-wide),
/// otherwise [`std::thread::available_parallelism`]. The result is clamped
/// to `[1, cap]` (a zero `cap` counts as 1) — pass the number of
/// independent work items as `cap` so a job never requests more workers
/// than it has tasks.
pub fn worker_count(requested: usize, cap: usize) -> usize {
    let n = if requested > 0 {
        requested
    } else {
        default_workers()
    };
    n.clamp(1, cap.max(1))
}

/// The "auto" worker count: `SUPERSIM_TEST_THREADS` when set, hardware
/// parallelism otherwise. Cached for the process lifetime.
pub fn default_workers() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        resolve_default(
            std::env::var("SUPERSIM_TEST_THREADS").ok().as_deref(),
            || std::thread::available_parallelism().map_or(1, usize::from),
        )
    })
}

fn resolve_default(env: Option<&str>, fallback: impl FnOnce() -> usize) -> usize {
    env.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(fallback)
}

// ---------------------------------------------------------------------------
// The ordered parallel fold
// ---------------------------------------------------------------------------

/// Runs `work(i, &mut scratch)` for every `i in 0..n` on up to `workers`
/// workers of the global pool and folds each result into `acc` with
/// `merge`, **in ascending `i`**.
///
/// - **Order.** Results stream through an index-ordered merger, so the
///   float association is the sequential loop's for every worker count,
///   and at most `workers` unmerged results are held at a time.
/// - **Errors.** A failure at index `i` stops claims past `i`; every index
///   below the lowest failure still runs, so the error returned is the
///   lowest-index one on every schedule — the one the sequential loop
///   stops at.
/// - **Panics.** A panicking `work` resolves its claimed index before the
///   unwind continues, so no sibling waits on the merge forever, and the
///   panic is re-raised on the calling thread once every worker is done.
/// - **Scratch.** `new_scratch` runs once per worker, never per index.
///
/// `workers <= 1` (after clamping to `n`) is a plain loop on the calling
/// thread: no lock, no atomic, no allocation beyond the closures' own.
///
/// # Errors
///
/// The error of the lowest failing index; the partial accumulator is
/// dropped.
pub fn fold_ordered<T, A, S, E>(
    workers: usize,
    n: usize,
    acc: A,
    new_scratch: impl Fn() -> S + Sync,
    work: impl Fn(usize, &mut S) -> Result<T, E> + Sync,
    mut merge: impl FnMut(&mut A, T) + Send,
) -> Result<A, E>
where
    T: Send,
    A: Send,
    E: Send,
{
    let workers = workers.min(n);
    if workers <= 1 {
        let mut acc = acc;
        let mut scratch = new_scratch();
        for i in 0..n {
            let item = work(i, &mut scratch)?;
            merge(&mut acc, item);
        }
        return Ok(acc);
    }
    let next = AtomicUsize::new(0);
    // Lowest failing index so far. Indices above it are not run, indices
    // at or below it always are, so it only tightens toward the true
    // minimum. (A bare "failed" flag would let a worker skip an index
    // below the failure it observed.) `Relaxed` suffices for it and for
    // `next`: neither publishes data — errors travel under the mutex,
    // items through the merger — and every value the floor ever holds is
    // a failing index, so a stale read only skips indices above a failure.
    let fail_floor = AtomicUsize::new(usize::MAX);
    let first_error: Mutex<Option<(usize, E)>> = Mutex::new(None);
    let merger = OrderedMerger::new(workers, acc, merge);
    Pool::global().run(workers, |_| {
        let mut scratch = new_scratch();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if i > fail_floor.load(Ordering::Relaxed) {
                // Claims are monotone, so every later one lies past the
                // floor too; the claimed index must still be resolved or
                // the merge could not drain past it.
                merger.skip(i as u64);
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| work(i, &mut scratch))) {
                Ok(Ok(item)) => merger.submit(i as u64, item),
                Ok(Err(e)) => {
                    fail_floor.fetch_min(i, Ordering::Relaxed);
                    {
                        let mut slot = lock_or_recover(&first_error);
                        if slot.as_ref().is_none_or(|&(j, _)| i < j) {
                            *slot = Some((i, e));
                        }
                    }
                    merger.skip(i as u64);
                    break;
                }
                Err(payload) => {
                    fail_floor.fetch_min(i, Ordering::Relaxed);
                    merger.skip(i as u64);
                    resume_unwind(payload);
                }
            }
        }
    });
    match into_inner_or_recover(first_error) {
        Some((_, e)) => Err(e),
        None => Ok(merger.finish()),
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// A snapshot of pool health, used by reuse assertions and the benchmark
/// report ([`pool_stats`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers alive right now.
    pub live: usize,
    /// Workers ever spawned by this pool (monotone; a warm pool stops
    /// growing, which is what the persistence tests assert).
    pub spawned_total: usize,
    /// Workers currently parked waiting for work.
    pub idle: usize,
}

/// Health counters of the process-wide pool that [`fold_ordered`] runs on.
pub fn pool_stats() -> PoolStats {
    Pool::global().stats()
}

/// One submitted `run` call: a lifetime-erased body plus the claim/finish
/// bookkeeping. Workers claim indices (`next`) until `tickets` are
/// exhausted; the last finished index trips the latch the caller waits on.
struct Job {
    /// Erased `&dyn Fn(usize)` of the caller's body closure.
    ///
    /// SAFETY invariant: the submitting `Pool::run` frame outlives every
    /// dereference. It cannot return before `pending` reaches zero, and
    /// indices claimed after exhaustion never dereference the body.
    body: RawBody,
    tickets: usize,
    next: AtomicUsize,
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    latch: Condvar,
}

struct RawBody(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared calls are safe) and the `Job`
// lifetime discipline above keeps it alive for every dereference.
unsafe impl Send for RawBody {}
unsafe impl Sync for RawBody {}

impl Job {
    /// Runs the body for one claimed index under `catch_unwind`, recording
    /// the first panic, and marks the index finished — tripping the
    /// completion latch on the last one.
    fn run_ticket(&self, index: usize) {
        // SAFETY: see the invariant on `body`.
        let body = unsafe { &*self.body.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(index))) {
            let mut slot = lock_or_recover(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *lock_or_recover(&self.done) = true;
            self.latch.notify_all();
        }
    }
}

struct PoolState {
    jobs: VecDeque<Arc<Job>>,
    /// Helpers the in-flight `run` calls have reserved (`workers - 1`
    /// each, from submission until the call returns). The pool spawns
    /// while fewer workers are live than this.
    reserved: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work: Condvar,
    live: AtomicUsize,
    spawned_total: AtomicUsize,
    idle: AtomicUsize,
}

/// A persistent, lazily-grown worker pool. See the crate docs for the
/// ownership/lifecycle story; [`fold_ordered`] uses [`Pool::global`].
struct Pool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Pool {
    /// A fresh pool with no workers; they spawn on demand. Tests use it
    /// for cold-start isolation; the folds share [`Pool::global`].
    fn new() -> Pool {
        Pool {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    jobs: VecDeque::new(),
                    reserved: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
                live: AtomicUsize::new(0),
                spawned_total: AtomicUsize::new(0),
                idle: AtomicUsize::new(0),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide pool. Never shuts down; workers persist across
    /// `run_batch` calls.
    fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(Pool::new)
    }

    /// Current pool health counters.
    fn stats(&self) -> PoolStats {
        PoolStats {
            live: self.shared.live.load(Ordering::Relaxed),
            spawned_total: self.shared.spawned_total.load(Ordering::Relaxed),
            idle: self.shared.idle.load(Ordering::Relaxed),
        }
    }

    /// Executes `body(i)` once for every worker index `i in 0..workers`
    /// and returns when all of them have finished — the drop-in
    /// replacement for `thread::scope` + spawn loop.
    ///
    /// `workers <= 1` runs `body(0)` inline without touching the pool.
    /// Otherwise the calling thread participates (it claims indices too),
    /// pool workers help, and the pool grows to the helpers reserved by
    /// every call in flight, so nested calls retain real parallelism.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from any `body(i)` on the calling thread
    /// after the whole job has completed, like a scoped spawn would.
    fn run<F>(&self, workers: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if workers <= 1 {
            body(0);
            return;
        }
        let wide: &(dyn Fn(usize) + Sync) = &body;
        // SAFETY: lifetime erasure only — this frame blocks until
        // `pending == 0`, after which no dereference can happen (claims
        // past `tickets` never touch the body).
        let raw = RawBody(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(wide as *const _)
        });
        let job = Arc::new(Job {
            body: raw,
            tickets: workers,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(workers),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            latch: Condvar::new(),
        });
        {
            // Reserve this call's helpers and spawn up to the reservations
            // outstanding, under the lock that orders concurrent calls: a
            // nested call whose ancestors hold every worker still gets
            // `workers - 1` real helpers, and a warm pool spawns nothing.
            let mut st = lock_or_recover(&self.shared.state);
            st.jobs.push_back(Arc::clone(&job));
            st.reserved += workers - 1;
            let live = self.shared.live.load(Ordering::Relaxed);
            for _ in live..st.reserved {
                self.spawn_worker();
            }
        }
        self.shared.work.notify_all();

        // Participate: claim and run indices on the calling thread.
        loop {
            let t = job.next.fetch_add(1, Ordering::Relaxed);
            if t >= job.tickets {
                break;
            }
            job.run_ticket(t);
        }
        // Retire the job from the queue (a helper may already have).
        {
            let mut st = lock_or_recover(&self.shared.state);
            if let Some(pos) = st.jobs.iter().position(|j| Arc::ptr_eq(j, &job)) {
                st.jobs.remove(pos);
            }
        }
        // Wait for indices claimed by helpers, then release the helpers.
        let mut done = lock_or_recover(&job.done);
        while !*done {
            done = wait_or_recover(&job.latch, done);
        }
        drop(done);
        lock_or_recover(&self.shared.state).reserved -= workers - 1;
        let payload = lock_or_recover(&job.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    fn spawn_worker(&self) {
        let shared = Arc::clone(&self.shared);
        let id = self.shared.spawned_total.fetch_add(1, Ordering::Relaxed);
        self.shared.live.fetch_add(1, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name(format!("supersim-rt-{id}"))
            .spawn(move || worker_loop(shared))
            .expect("failed to spawn pool worker");
        lock_or_recover(&self.handles).push(handle);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = lock_or_recover(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in
            into_inner_or_recover(std::mem::replace(&mut self.handles, Mutex::new(Vec::new())))
        {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        // Park until there is a job (or shutdown).
        let job = {
            let mut st = lock_or_recover(&shared.state);
            loop {
                if st.shutdown {
                    shared.live.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                if let Some(job) = st.jobs.front() {
                    break Arc::clone(job);
                }
                shared.idle.fetch_add(1, Ordering::Relaxed);
                st = wait_or_recover(&shared.work, st);
                shared.idle.fetch_sub(1, Ordering::Relaxed);
            }
        };
        // Help drain it.
        loop {
            let t = job.next.fetch_add(1, Ordering::Relaxed);
            if t >= job.tickets {
                // Exhausted: retire it from the queue if still listed so
                // the next iteration sees fresh work.
                let mut st = lock_or_recover(&shared.state);
                if let Some(front) = st.jobs.front() {
                    if Arc::ptr_eq(front, &job) {
                        st.jobs.pop_front();
                    }
                }
                break;
            }
            job.run_ticket(t);
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming ordered merge
// ---------------------------------------------------------------------------

/// The streaming, strictly index-ordered reduction behind
/// [`fold_ordered`].
///
/// Workers call [`submit`](OrderedMerger::submit) with `(index, item)` as
/// items finish (in any order) or [`skip`](OrderedMerger::skip) for
/// indices that produced nothing (failed or skipped items — every
/// *claimed* index must be accounted for exactly once). A single central
/// accumulator applies `merge(acc, item)` **in ascending index order**, so
/// float association is identical to a sequential loop that merged the
/// results one by one — that is the bit-identity guarantee.
///
/// At most `window` indices are in flight: a submit for an index at or
/// beyond `head + window` blocks until the head advances (bounded
/// retention — this is what lets the joint-reconstruction path keep its
/// dense per-chunk accumulators without a size cap). Deadlock-free as
/// long as claimed indices are each resolved by their claimant: the
/// holder of the smallest unresolved index is never blocked, and its
/// submission advances the head.
struct OrderedMerger<T, A, F: FnMut(&mut A, T)> {
    inner: Mutex<MergeState<T, A, F>>,
    space: Condvar,
}

struct MergeState<T, A, F> {
    head: u64,
    window: u64,
    /// Ring buffer indexed by `index % window`: `None` = unresolved,
    /// `Some(None)` = skipped, `Some(Some(t))` = pending item.
    slots: Vec<Option<Option<T>>>,
    acc: A,
    merge: F,
}

impl<T, A, F: FnMut(&mut A, T)> OrderedMerger<T, A, F> {
    /// A merger over `acc` with the given in-flight `window` (clamped to
    /// at least 1; pass the worker count — any window yields identical
    /// results, it only bounds retention).
    fn new(window: usize, acc: A, merge: F) -> OrderedMerger<T, A, F> {
        let window = window.max(1) as u64;
        let mut slots = Vec::with_capacity(window as usize);
        slots.resize_with(window as usize, || None);
        OrderedMerger {
            inner: Mutex::new(MergeState {
                head: 0,
                window,
                slots,
                acc,
                merge,
            }),
            space: Condvar::new(),
        }
    }

    /// Submits the item for `index`, blocking while the index is more
    /// than `window` ahead of the merge head.
    fn submit(&self, index: u64, item: T) {
        self.place(index, Some(item));
    }

    /// Resolves `index` with no item (a failed or skipped index).
    fn skip(&self, index: u64) {
        self.place(index, None);
    }

    fn place(&self, index: u64, item: Option<T>) {
        let mut st = lock_or_recover(&self.inner);
        while index >= st.head + st.window {
            st = wait_or_recover(&self.space, st);
        }
        debug_assert!(index >= st.head, "index {index} already merged");
        let pos = (index % st.window) as usize;
        debug_assert!(st.slots[pos].is_none(), "duplicate submit for {index}");
        st.slots[pos] = Some(item);
        let mut advanced = false;
        loop {
            let MergeState {
                head,
                window,
                slots,
                acc,
                merge,
            } = &mut *st;
            let pos = (*head % *window) as usize;
            match slots[pos].take() {
                Some(Some(item)) => {
                    merge(acc, item);
                    *head += 1;
                    advanced = true;
                }
                Some(None) => {
                    *head += 1;
                    advanced = true;
                }
                None => break,
            }
        }
        if advanced {
            drop(st);
            self.space.notify_all();
        }
    }

    /// Consumes the merger and returns the accumulator. Unresolved slots
    /// past the head are discarded (the error paths return before using
    /// the accumulator).
    fn finish(self) -> A {
        into_inner_or_recover(self.inner).acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::time::{Duration, Instant};

    #[test]
    fn worker_count_resolution() {
        assert_eq!(worker_count(4, 16), 4);
        assert_eq!(worker_count(4, 2), 2);
        assert_eq!(worker_count(7, 0), 1);
        // requested == 0 resolves through the cached default; whatever it
        // is, the clamp still applies.
        assert_eq!(worker_count(0, 1), 1);
        assert!(worker_count(0, usize::MAX) >= 1);
    }

    #[test]
    fn resolve_default_prefers_valid_env() {
        assert_eq!(resolve_default(Some("3"), || 8), 3);
        assert_eq!(resolve_default(Some(" 2 "), || 8), 2);
        assert_eq!(resolve_default(Some("0"), || 8), 8);
        assert_eq!(resolve_default(Some("nope"), || 8), 8);
        assert_eq!(resolve_default(None, || 8), 8);
    }

    #[test]
    fn run_executes_every_index_once() {
        let pool = Pool::new();
        for workers in [1usize, 2, 4, 8] {
            let hits: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
            pool.run(workers, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn single_worker_runs_inline_without_spawning() {
        let pool = Pool::new();
        let caller = std::thread::current().id();
        pool.run(1, |i| {
            assert_eq!(i, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
        assert_eq!(pool.stats().spawned_total, 0);
    }

    #[test]
    fn pool_reuses_workers_across_runs() {
        let pool = Pool::new();
        pool.run(4, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let spawned_cold = pool.stats().spawned_total;
        assert_eq!(spawned_cold, 3, "caller participates: exactly n-1 spawns");
        // Back-to-back warm runs must not spawn: busy is released before
        // the completion latch, so a finished `run` always sees its
        // helpers as available again.
        for _ in 0..8 {
            pool.run(4, |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        }
        assert_eq!(pool.stats().spawned_total, spawned_cold);
        assert_eq!(pool.stats().live, spawned_cold);
    }

    #[test]
    fn panics_propagate_to_caller_and_pool_survives() {
        let pool = Pool::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, |i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool still works after a task panic.
        let count = AtomicUsize::new(0);
        pool.run(4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn nested_runs_complete() {
        let pool = Pool::new();
        let count = AtomicUsize::new(0);
        pool.run(2, |_| {
            pool.run(3, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 6);
    }

    /// Two outer workers each running a nested call for four hold
    /// `1 + 3 + 3` helpers, and a warm rerun of the same nesting spawns
    /// none: growth follows the reservations in flight, not which workers
    /// happen to be busy when a call is submitted.
    #[test]
    fn nested_reservations_bound_the_pool_and_warm_reruns_spawn_nothing() {
        let pool = Pool::new();
        // Index 0 of each nested call waits for the other's, so both
        // nested calls are in flight together on every schedule.
        let both_nested = std::sync::Barrier::new(2);
        let nested = || {
            pool.run(2, |_| {
                pool.run(4, |i| {
                    if i == 0 {
                        both_nested.wait();
                    }
                });
            });
        };
        nested();
        assert_eq!(pool.stats().spawned_total, 7);
        for _ in 0..3 {
            nested();
        }
        assert_eq!(pool.stats().spawned_total, 7);
    }

    /// Sums `i` for every index, as a fold that cannot fail.
    fn index_sum(workers: usize, n: usize) -> usize {
        fold_ordered(
            workers,
            n,
            0,
            || (),
            |i, _| Ok::<_, ()>(i),
            |acc, i| *acc += i,
        )
        .unwrap()
    }

    #[test]
    fn fold_ordered_merges_in_index_order() {
        let n = 48;
        for workers in [1usize, 2, 8] {
            let order = fold_ordered(
                workers,
                n,
                Vec::new(),
                || (),
                |i, _| {
                    // Later indices often finish first.
                    let micros = ((n - i) * 37 % 11) as u64 * 150;
                    std::thread::sleep(std::time::Duration::from_micros(micros));
                    Ok::<_, ()>(i)
                },
                |acc: &mut Vec<usize>, i| acc.push(i),
            )
            .unwrap();
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn fold_ordered_reports_the_lowest_failing_index() {
        for workers in [1usize, 2, 8] {
            let high_failed = AtomicBool::new(false);
            let result = fold_ordered(
                workers,
                64,
                (),
                || (),
                |i, _| match i {
                    2 => {
                        // With eight workers index 5 is in the merge
                        // window while 2 runs: let it fail first.
                        let deadline = Instant::now() + Duration::from_secs(5);
                        while workers == 8
                            && !high_failed.load(Ordering::Acquire)
                            && Instant::now() < deadline
                        {
                            std::thread::yield_now();
                        }
                        Err(i)
                    }
                    5 => {
                        high_failed.store(true, Ordering::Release);
                        Err(i)
                    }
                    _ => Ok(()),
                },
                |_, ()| {},
            );
            assert_eq!(result, Err(2), "{workers} workers");
            assert_eq!(
                high_failed.load(Ordering::Acquire),
                workers == 8,
                "{workers} workers: index 5 runs only if a worker reached it"
            );
        }
    }

    #[test]
    fn fold_ordered_reraises_panics_and_keeps_working() {
        for workers in [1usize, 2, 8] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                fold_ordered(
                    workers,
                    32,
                    (),
                    || (),
                    |i, _| {
                        assert_ne!(i, 5, "boom");
                        Ok::<_, ()>(())
                    },
                    |_, ()| {},
                )
            }));
            assert!(result.is_err(), "{workers} workers: panic swallowed");
            assert_eq!(index_sum(workers, 32), 31 * 32 / 2);
        }
    }

    #[test]
    fn fold_ordered_of_nothing_is_the_initial_accumulator() {
        for workers in [1usize, 2, 8] {
            let acc = fold_ordered(
                workers,
                0,
                vec![7],
                || (),
                |_, _| Err::<(), _>("never called"),
                |_: &mut Vec<i32>, ()| {},
            );
            assert_eq!(acc, Ok(vec![7]));
        }
    }

    #[test]
    fn fold_ordered_builds_at_most_one_scratch_per_worker() {
        for workers in [1usize, 2, 8] {
            let built = AtomicUsize::new(0);
            let sum = fold_ordered(
                workers,
                100,
                0,
                || {
                    built.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |i, seen: &mut Vec<usize>| {
                    seen.push(i);
                    Ok::<_, ()>(i)
                },
                |acc, i| *acc += i,
            )
            .unwrap();
            assert_eq!(sum, 99 * 100 / 2);
            let built = built.load(Ordering::Relaxed);
            assert!(
                (1..=workers).contains(&built),
                "{workers} workers built {built} scratches"
            );
        }
    }

    #[test]
    fn ordered_merger_merges_in_index_order() {
        // Submit out of order from several threads; the merge transcript
        // must still be 0, 1, 2, ... regardless of arrival order.
        let n = 64u64;
        let merger = OrderedMerger::new(4, Vec::new(), |acc: &mut Vec<u64>, x| acc.push(x));
        let next = AtomicU64::new(0);
        Pool::new().run(4, |_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if i % 7 == 3 {
                merger.skip(i);
            } else {
                merger.submit(i, i);
            }
        });
        let out = merger.finish();
        let expect: Vec<u64> = (0..n).filter(|i| i % 7 != 3).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn ordered_merger_window_bounds_in_flight_items() {
        // With window 1 every submit is immediately merged, so the
        // high-index submitter must block until the head catches up.
        let merger = OrderedMerger::new(1, Vec::new(), |acc: &mut Vec<u64>, x| acc.push(x));
        Pool::new().run(2, |w| {
            if w == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
                merger.submit(0, 0);
            } else {
                merger.submit(1, 1); // blocks until index 0 merges
            }
        });
        let merged = merger.finish();
        assert_eq!(merged, vec![0, 1]);
    }
}
