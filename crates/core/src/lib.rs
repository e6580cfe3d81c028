//! SuperSim-RS: Clifford-based circuit cutting for scalable quantum
//! circuit simulation.
//!
//! This crate is the user-facing framework of the reproduction of
//! *"Clifford-based Circuit Cutting for Quantum Simulation"* (ISCA 2023).
//!
//! # Plan / execute / batch architecture
//!
//! The pipeline of the paper's §V is staged so its one-time structure is
//! separated from its per-run work:
//!
//! 1. **Plan** ([`SuperSim::plan`] → [`CutPlan`]): the circuit cutter
//!    isolates non-Clifford gates ([`cutkit::cut_circuit`]) and
//!    precomputes everything reusable — fragment structure, tomography
//!    variant enumeration, extraction and recombination index plans.
//! 2. **Execute** ([`Executor`]): every fragment variant runs on the
//!    right backend (stabilizer simulator for Clifford fragments, exact
//!    statevector for the rest), sampled tensors get the MLFT correction,
//!    and the distribution builder recombines the fragment tensors. Each
//!    execution takes its own [`ExecParams`] (seed, shot budget), so
//!    parameterized sweeps ([`Executor::run_sweep`]) cut **once** and
//!    execute many times — the CAFQA/VQE and fragment-tomography shape.
//! 3. **Batch** ([`SuperSim::run_batch`]): a fold over jobs. Each circuit
//!    is one job — evaluation, MLFT, recombination, in that order — and
//!    the jobs run side by side on one persistent worker pool, so one slow
//!    circuit holds up only itself.
//!
//! # Threading model
//!
//! One pool, sized by [`SuperSimConfig::threads`] (`W` workers), serves
//! everything, and every parallel loop is the same ordered fold
//! ([`runtime::fold_ordered`]). A batch of `n` jobs folds over its jobs on
//! `min(W, n)` workers, and each job's evaluation chunks, MLFT fragments
//! and contraction chunks fold on `max(1, W / n)` workers nested inside.
//! A single run is a one-job batch and keeps all `W`. **Determinism:** for
//! a given seed, every path — sequential, parallel, batched — produces
//! bit-identical results at every thread count, and batch/sweep output is
//! bit-identical to independent sequential [`SuperSim::run`] calls; work
//! decompositions are fixed and float folds happen in (circuit, fragment,
//! variant) order, never in completion order.
//!
//! # The accuracy/latency dial: error-budgeted recombination
//!
//! Recombination sweeps `4^k` cut assignments — the paper's hard
//! reconstruction wall. [`SuperSimConfig::error_budget`] (per-run:
//! [`ExecParams::with_error_budget`]) trades a *bounded* amount of
//! accuracy for latency: each assignment carries a cheap weight bound
//! (the product of its fragments' per-slice L1 masses, which is exactly
//! the probability mass the assignment contributes to the unnormalized
//! joint in absolute value), and the sweep skips assignments greedily
//! while the accumulated bound of everything skipped stays within the
//! budget.
//!
//! What the knob guarantees:
//!
//! * **The bound is hard.** [`RunReport::recombine_error_bound`] is the
//!   accumulated bound actually skipped; by the triangle inequality it
//!   caps the L1 distance between the truncated and the exact
//!   unnormalized joint. [`RunReport::assignments_skipped`] and
//!   [`RunReport::visited_assignments`] report the work traded.
//! * **`0.0` is exact.** The default budget runs the untruncated sweep,
//!   bit for bit — truncation is strictly opt-in.
//! * **Determinism survives.** The budget is split evenly across the
//!   fixed contraction chunks and skip decisions are per-chunk
//!   sequential, so for a fixed budget results are **bit-identical for
//!   every thread count** and on every path (single run, sweep, batch,
//!   plan-cache hit).
//! * **Queries stay consistent.** Skip decisions depend only on the
//!   assignment indices, never on the query — marginals, the joint, and
//!   follow-up [`RunResult::probability_of`] /
//!   [`RunResult::expectation_z`] calls all truncate the identical
//!   assignment set.
//!
//! When to use it: deep circuits (large `k`) served at interactive
//! latency, sampled runs whose shot noise already dwarfs a small budget,
//! and admission-constrained batches (admission control discounts
//! [`PlanCost::sweep_assignments`] by the budget via
//! [`PlanCost::with_error_budget`]). Keep it at `0.0` when reproducing
//! the paper's exact protocol.
//!
//! # Failures
//!
//! Every run entry point runs its jobs once. A job that fails keeps a
//! typed error — [`SuperSimError::Panicked`],
//! [`DeadlineExceeded`](SuperSimError::DeadlineExceeded),
//! [`Cancelled`](SuperSimError::Cancelled),
//! [`Injected`](SuperSimError::Injected),
//! [`Rejected`](SuperSimError::Rejected), or a [`Cut`](SuperSimError::Cut),
//! [`Eval`](SuperSimError::Eval), [`Mlft`](SuperSimError::Mlft) or
//! [`Config`](SuperSimError::Config) failure — which batch and sweep entry
//! points wrap in [`SuperSimError::Job`] and [`SuperSimError::root`]
//! unwraps; its siblings are unaffected. Nothing is retried. Re-running a
//! failed job — as a sub-batch, as a sub-slice of sweep points, or through
//! [`Executor::run_with`] at a larger error budget — is bit-identical to a
//! direct run with the same parameters, so retries, backoff, circuit
//! breaking and load shedding are the caller's loop: the
//! `resilient_service` example writes one over this API.
//!
//! ```
//! use qcir::Circuit;
//! use supersim::{ExecParams, SuperSim, SuperSimConfig};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1).t(1).h(1);
//! let sim = SuperSim::new(
//!     SuperSimConfig::builder().exact(true).build().unwrap(),
//! );
//!
//! // One-shot: plan + execute fused.
//! let result = sim.run(&c).unwrap();
//! assert_eq!(result.report.num_cuts, 2);
//! let dist = result.distribution.as_ref().unwrap();
//! assert!((dist.total_mass() - 1.0).abs() < 1e-9);
//!
//! // Sweep: cut once, execute for many seeds on one shared pool.
//! let plan = sim.plan(&c).unwrap();
//! let points: Vec<ExecParams> = (0..3).map(|s| ExecParams::seeded(s)).collect();
//! let runs = sim.executor().run_sweep(&plan, &points);
//! assert_eq!(runs.len(), 3);
//!
//! // The accuracy/latency dial: trade a bounded L1 error for latency.
//! let budgeted = sim
//!     .executor()
//!     .run_with(&plan, ExecParams::seeded(0).with_error_budget(1e-3))
//!     .unwrap();
//! assert!(budgeted.report.recombine_error_bound <= 1e-3);
//! ```

mod backends;
mod pipeline;

pub use backends::{
    BackendError, ExtStabBackend, MpsBackend, Simulator, StabilizerBackend, StatevectorBackend,
};
pub use pipeline::{
    Admission, AdmissionError, AdmissionPolicy, ConfigError, CutPlan, ExecParams, Executor,
    PlanCacheStats, PlanCost, PlanLoadError, RunReport, RunResult, RunStats, SuperSim,
    SuperSimConfig, SuperSimConfigBuilder, SuperSimError,
};

// Re-export the persistent worker-pool stats surfaced by
// [`SuperSim::stats`] (the pool itself is process-wide, in `runtime`).
pub use runtime::PoolStats;

// Re-export the pieces users need to configure the pipeline.
pub use cutkit::{CutPoint, CutStrategy, EvalMode, SweepStats};

// Re-export the supervision primitives batch callers configure
// ([`SuperSimConfig::cancel`], [`SuperSimConfig::faults`]).
pub use faultkit::{CancelToken, Fault, FaultKind, FaultPlan, Interrupt, Stage};
