//! One run of one workload in this process: the timed pass with tracing
//! off (`--trace 0`, the end-to-end metrics) or the traced pass
//! (`--trace 1`, the per-layer metrics).
//!
//! Closed loop, one client: the next operation starts when the previous one
//! has returned. The oracles are built only after the last timed operation,
//! so `peak_rss_mb` is the pipeline's memory and not the oracle's.

use crate::layers::{composed_op, replay_op, Counts, BACKEND_LAYERS, PLAN_LAYERS, RUN_LAYERS};
use crate::oracle::{Oracle, EXACT_MAX_QUBITS, JOINT_MAX_QUBITS, MIN_MARGINAL_FIDELITY};
use crate::stats::{median, percentile};
use crate::suite::{self, Kind, Spec, BATCH_THREADS, SHOTS};
use crate::trace::{per_op_ms, Span, Tracer};
use metrics::Distribution;
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;
use supersim::{
    CutPlan, ExecParams, RunResult, Simulator, StatevectorBackend, SuperSim, SuperSimConfig,
};

/// Name and unit of every end-to-end metric, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("op_ms_p50", "ms"),
    ("op_ms_p80", "ms"),
    ("circuits_per_s", "1/s"),
    ("marginal_fidelity_min", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Name and unit of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("core.op_ms_p50", "ms"),
    ("core.traced_op_ms", "ms"),
    ("core.layer_sum_ms", "ms"),
    ("core.layer_sum_ratio", "ratio"),
    ("core.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("cutkit.cut_ms", "ms"),
    ("cutkit.eval_plan_ms", "ms"),
    ("core.plan_build_ms", "ms"),
    ("core.plan_cache_hit_ms", "ms"),
    ("cutkit.eval_clifford_ms", "ms"),
    ("cutkit.eval_nonclifford_ms", "ms"),
    ("cutkit.variant_circuit_ms", "ms"),
    ("stabsim.tableau_run_ms", "ms"),
    ("stabsim.support_ms", "ms"),
    ("stabsim.sample_ms", "ms"),
    ("svsim.fragment_run_ms", "ms"),
    ("svsim.fragment_sample_ms", "ms"),
    ("cutkit.accumulate_ms", "ms"),
    ("cutkit.mlft_ms", "ms"),
    ("cutkit.recombine_marginals_ms", "ms"),
    ("cutkit.recombine_joint_ms", "ms"),
    ("core.op_2t_ms", "ms"),
    ("core.scaling_2t", "ratio"),
    ("core.batch_parallel_efficiency", "ratio"),
    ("runtime.pool_spawned_total", "count"),
    ("runtime.pool_live", "count"),
    ("runtime.respawn_delta", "count"),
    ("core.plan_cache_hits", "1/op"),
    ("core.plan_cache_misses", "1/op"),
    ("svsim.uncut_ms", "ms"),
    ("svsim.cut_speedup", "ratio"),
    ("core.joint_fidelity_min", "ratio"),
    ("qcir.qubits", "count"),
    ("qcir.ops", "count"),
    ("qcir.non_clifford", "count"),
    ("cutkit.cuts", "count"),
    ("cutkit.fragments", "count"),
    ("cutkit.clifford_fragments", "count"),
    ("cutkit.variants", "count"),
    ("cutkit.assignments_visited", "count"),
    ("cutkit.assignments_skipped", "count"),
    ("cutkit.tensor_support", "count"),
    ("cutkit.joint_support", "count"),
    ("cutkit.mlft_moved", "norm"),
];

/// Untimed operations that end a set-up: they fill the plan cache and
/// start the worker pool.
const WARMUP_OPS: usize = 5;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed operations of a run, however short `--seconds` is.
const MIN_TIMED_OPS: usize = 20;
/// The fidelity metrics are taken over exactly the first `FIDELITY_OPS`
/// operations, which every run makes, so they repeat for a given seed
/// whatever the speed of the host.
const FIDELITY_OPS: usize = 10;
/// Shares of `--seconds` the traced run spends on its untraced baseline and
/// on traced operations; fixed-count probes take the rest.
const BASELINE_SHARE: f64 = 0.3;
const TRACED_SHARE: f64 = 0.45;

pub struct Params {
    pub seed: u64,
    /// Time budget of the timed or traced loops; 0 makes exactly the fewest
    /// operations.
    pub seconds: f64,
    /// Smoke-test sizes: 3 timed operations, 1 traced. Set with `seconds: 0`.
    pub quick: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub threads: usize,
    pub metrics: Vec<Metric>,
    /// Spans of the traced pass; empty with tracing off.
    pub spans: Vec<Span>,
}

/// A set-up workload: its inputs and a warm pipeline instance.
struct Harness {
    spec: &'static Spec,
    circuits: Vec<qcir::Circuit>,
    config: SuperSimConfig,
    sim: SuperSim,
    /// Plan-cache (hits, misses) of the fresh instances a cold workload
    /// builds, one per operation.
    cold_cache: Cell<(u64, u64)>,
}

/// What is kept of one timed operation, to verify it once timing is over.
struct OpRecord {
    ms: f64,
    /// Per circuit: the marginals, or `None` where the run failed.
    marginals: Vec<Option<Vec<[f64; 2]>>>,
    /// Per circuit: the joint, kept for the first `FIDELITY_OPS` only.
    joints: Vec<Option<Distribution>>,
    counts: Counts,
    assignments_visited: u64,
    assignments_skipped: u64,
    tensor_support: u64,
    joint_support: u64,
    mlft_moved: f64,
}

impl Harness {
    fn set_up(spec: &'static Spec, config: SuperSimConfig, warmups: usize, seed: u64) -> Harness {
        let h = Harness {
            spec,
            circuits: suite::circuits(spec.name),
            sim: SuperSim::new(config.clone()),
            config,
            cold_cache: Cell::new((0, 0)),
        };
        for j in 0..warmups {
            black_box(h.op(op_seed(seed, 900_000 + j)));
        }
        h.cold_cache.set((0, 0));
        h
    }

    /// One operation of the workload.
    fn op(&self, seed: u64) -> Vec<Result<RunResult, supersim::SuperSimError>> {
        let single = |sim: &SuperSim| {
            let circuit = &self.circuits[0];
            sim.plan(circuit).and_then(|plan| {
                sim.executor()
                    .run_with(&plan, ExecParams::from_config(&self.config).with_seed(seed))
            })
        };
        match self.spec.kind {
            Kind::Warm => vec![single(&self.sim)],
            Kind::Cold => {
                let sim = SuperSim::new(self.config.clone());
                let result = single(&sim);
                let cache = sim.stats().plan_cache;
                let (hits, misses) = self.cold_cache.get();
                self.cold_cache
                    .set((hits + cache.hits, misses + cache.misses));
                vec![result]
            }
            Kind::Batch => self.sim.run_batch(&self.circuits),
        }
    }

    /// Cumulative plan-cache (hits, misses) of the workload's operations.
    fn cache_counts(&self) -> (u64, u64) {
        match self.spec.kind {
            Kind::Cold => self.cold_cache.get(),
            Kind::Warm | Kind::Batch => {
                let cache = self.sim.stats().plan_cache;
                (cache.hits, cache.misses)
            }
        }
    }

    /// Timed operations back to back until `budget_s` has passed and at
    /// least `min_ops` have run, keeping of each what verification needs.
    fn timed_loop(&self, seed: u64, first: usize, budget_s: f64, min_ops: usize) -> Vec<OpRecord> {
        let loop_start = Instant::now();
        let mut records = Vec::new();
        while records.len() < min_ops || loop_start.elapsed().as_secs_f64() < budget_s {
            let i = records.len();
            let start = Instant::now();
            let results = self.op(op_seed(seed, first + i));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            records.push(record(ms, results, i < FIDELITY_OPS));
        }
        records
    }
}

fn op_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1_000_000).wrapping_add(index as u64)
}

fn record(
    ms: f64,
    results: Vec<Result<RunResult, supersim::SuperSimError>>,
    keep_joint: bool,
) -> OpRecord {
    let mut rec = OpRecord {
        ms,
        marginals: Vec::new(),
        joints: Vec::new(),
        counts: Counts::default(),
        assignments_visited: 0,
        assignments_skipped: 0,
        tensor_support: 0,
        joint_support: 0,
        mlft_moved: 0.0,
    };
    for result in results {
        match result {
            Ok(run) => {
                rec.counts.add(&Counts::of_report(&run.report));
                rec.mlft_moved += run.report.mlft_moved;
                rec.assignments_visited += run.report.visited_assignments;
                rec.assignments_skipped += run.report.assignments_skipped;
                rec.tensor_support += run
                    .tensors()
                    .iter()
                    .map(|t| t.support_len() as u64)
                    .sum::<u64>();
                rec.joint_support += run
                    .distribution
                    .as_ref()
                    .map_or(0, |d| d.support_len() as u64);
                // Only a joint the oracle can judge is worth its memory.
                rec.joints.push(
                    run.distribution
                        .filter(|d| keep_joint && d.n_bits() <= JOINT_MAX_QUBITS),
                );
                rec.marginals.push(Some(run.marginals));
            }
            Err(error) => {
                eprintln!("operation failed: {error}");
                rec.joints.push(None);
                rec.marginals.push(None);
            }
        }
    }
    rec
}

/// Fidelity floors of a set of verified operations.
struct Verdict {
    failed: u64,
    marginal_fidelity_min: f64,
    /// 0 where no circuit of the workload has a joint reference.
    joint_fidelity_min: f64,
}

/// Checks every kept operation against the references. An operation fails
/// when a circuit of it returned an error or marginals below
/// [`MIN_MARGINAL_FIDELITY`].
fn verify(records: &[OpRecord], oracles: &[Oracle]) -> Verdict {
    let mut verdict = Verdict {
        failed: 0,
        marginal_fidelity_min: 1.0,
        joint_fidelity_min: f64::INFINITY,
    };
    for (i, rec) in records.iter().enumerate() {
        let mut ok = true;
        for ((marginals, joint), reference) in rec.marginals.iter().zip(&rec.joints).zip(oracles) {
            let Some(marginals) = marginals else {
                ok = false;
                continue;
            };
            let fidelity = reference.marginal_fidelity(marginals);
            ok &= fidelity >= MIN_MARGINAL_FIDELITY;
            if i < FIDELITY_OPS {
                verdict.marginal_fidelity_min = verdict.marginal_fidelity_min.min(fidelity);
                if let Some(f) = joint.as_ref().and_then(|j| reference.joint_fidelity(j)) {
                    verdict.joint_fidelity_min = verdict.joint_fidelity_min.min(f);
                }
            }
        }
        verdict.failed += u64::from(!ok);
    }
    if verdict.joint_fidelity_min == f64::INFINITY {
        verdict.joint_fidelity_min = 0.0;
    }
    verdict
}

fn oracles(circuits: &[qcir::Circuit]) -> Vec<Oracle> {
    circuits.iter().map(Oracle::build).collect()
}

/// Peak resident set of this process so far, in MiB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

fn ms_of(records: &[OpRecord]) -> Vec<f64> {
    records.iter().map(|r| r.ms).collect()
}

/// Threads a workload's operations use, or an error on a host that cannot
/// run it: a one-thread number must not appear under a multi-thread name.
pub fn threads_for(spec: &Spec) -> Result<usize, String> {
    match spec.kind {
        Kind::Batch if crate::host::nproc() < BATCH_THREADS => Err(format!(
            "{} needs {BATCH_THREADS} cores and this host has {}; refusing to report it",
            spec.name,
            crate::host::nproc()
        )),
        Kind::Batch => Ok(BATCH_THREADS),
        Kind::Warm | Kind::Cold => Ok(1),
    }
}

/// The timed pass, tracing off: the end-to-end metrics.
pub fn end_to_end(spec: &'static Spec, params: &Params) -> Result<Outcome, String> {
    let threads = threads_for(spec)?;
    let (warmups, reps, min_ops) = if params.quick {
        (1, 1, 3)
    } else {
        (WARMUP_OPS, SETUP_REPS, MIN_TIMED_OPS)
    };

    let mut setups = Vec::new();
    let mut harness = None;
    for _ in 0..reps {
        drop(harness.take());
        let start = Instant::now();
        let config = suite::config(spec, params.seed, spec.kind == Kind::Batch);
        harness = Some(Harness::set_up(spec, config, warmups, params.seed));
        setups.push(start.elapsed().as_secs_f64());
    }
    let harness = harness.expect("at least one set-up ran");

    let loop_start = Instant::now();
    let records = harness.timed_loop(params.seed, 0, params.seconds, min_ops);
    let loop_s = loop_start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();

    let verdict = verify(&records, &oracles(&harness.circuits));
    let ms = ms_of(&records);
    let circuits = (records.len() * harness.circuits.len()) as f64;
    let values = [
        median(&ms),
        percentile(&ms, 0.8),
        circuits / loop_s,
        verdict.marginal_fidelity_min,
        peak_rss,
        median(&setups),
    ];
    Ok(Outcome {
        correct: verdict.failed == 0,
        attempted: records.len() as u64,
        failed: verdict.failed,
        threads,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect(),
        spans: Vec::new(),
    })
}

/// Median over the traced operations of the time spent in spans `name`.
fn layer_ms(spans: &[Span], name: &str) -> f64 {
    median(&per_op_ms(spans, name))
}

/// Median wall time of `ops` operations of a freshly set-up `config`.
fn probe_ms(spec: &'static Spec, config: SuperSimConfig, ops: usize, seed: u64) -> f64 {
    let harness = Harness::set_up(spec, config, 1, seed);
    median(&ms_of(&harness.timed_loop(seed, 700_000, 0.0, ops)))
}

/// The traced pass: the per-layer metrics.
pub fn per_layer(spec: &'static Spec, params: &Params) -> Result<Outcome, String> {
    let threads = threads_for(spec)?;
    let multi_core = crate::host::nproc() >= BATCH_THREADS;
    let (warmups, base_ops, traced_ops, probe_ops) = if params.quick {
        (1, 3, 1, 1)
    } else {
        (WARMUP_OPS, FIDELITY_OPS, 3, 5)
    };
    let config = suite::config(spec, params.seed, spec.kind == Kind::Batch);
    let harness = Harness::set_up(spec, config, warmups, params.seed);
    let strategy = suite::cut_strategy(spec);

    // Untraced baseline, the base of every ratio below.
    let pool_before = harness.sim.stats().pool;
    let cache_before = harness.cache_counts();
    let baseline = harness.timed_loop(params.seed, 0, params.seconds * BASELINE_SHARE, base_ops);
    let pool_after = harness.sim.stats().pool;
    let cache_after = harness.cache_counts();
    let op_ms_p50 = median(&ms_of(&baseline));
    let baseline_ops = baseline.len() as f64;

    // Traced operations: the production run, the plan stage on its own, then
    // the harness's composition and the backend replay of every circuit.
    for circuit in &harness.circuits {
        harness.sim.plan(circuit).map_err(|e| e.to_string())?;
    }
    let mut tracer = Tracer::new();
    let mut traced = Vec::new();
    let mut composed_counts = Vec::new();
    let mut composed_marginals = Vec::new();
    let traced_start = Instant::now();
    while traced.len() < traced_ops
        || traced_start.elapsed().as_secs_f64() < params.seconds * TRACED_SHARE
    {
        let i = traced.len();
        let seed = op_seed(params.seed, 500_000 + i);
        tracer.set_op(i as u32);
        tracer.span("op", |tr| {
            let start = Instant::now();
            let results = tr.span("core.run", |_| harness.op(seed));
            traced.push(record(start.elapsed().as_secs_f64() * 1e3, results, false));
            let mut counts = Counts::default();
            let mut marginals = Vec::new();
            for circuit in &harness.circuits {
                tr.span("core.plan_cache_hit", |_| {
                    black_box(harness.sim.plan(circuit)).is_ok()
                });
                tr.span("core.plan_build", |_| {
                    black_box(CutPlan::build(circuit, strategy.clone())).is_ok()
                });
                let composed = composed_op(tr, circuit, &strategy, seed);
                replay_op(tr, &composed.cut, seed);
                counts.add(&composed.counts);
                marginals.push(composed.marginals);
            }
            composed_counts.push(counts);
            composed_marginals.push(marginals);
        });
    }
    let spans = tracer.into_spans();

    // Fixed-count probes.
    let single_run = spec.kind != Kind::Batch;
    let op_2t_ms = if single_run && multi_core {
        probe_ms(
            spec,
            suite::config(spec, params.seed, true),
            probe_ops,
            params.seed,
        )
    } else {
        0.0
    };
    let batch_parallel_efficiency = if spec.kind == Kind::Batch {
        // Each member alone on one thread, against the batch on two.
        let sim = SuperSim::new(suite::config(spec, params.seed, false));
        let mut solo_ms = 0.0;
        for circuit in &harness.circuits {
            let mut ms = Vec::new();
            for j in 0..=probe_ops.min(3) {
                let start = Instant::now();
                black_box(sim.run(circuit)).map_err(|e| e.to_string())?;
                if j > 0 {
                    ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
            }
            solo_ms += median(&ms);
        }
        solo_ms / (BATCH_THREADS as f64 * op_ms_p50)
    } else {
        0.0
    };
    let uncut_ms = match harness.circuits.as_slice() {
        [circuit] if circuit.num_qubits() <= EXACT_MAX_QUBITS => {
            let mut ms = Vec::new();
            for j in 0..probe_ops.min(3) {
                let start = Instant::now();
                black_box(StatevectorBackend.run_distribution(
                    circuit,
                    SHOTS,
                    params.seed + j as u64,
                ))
                .map_err(|e| e.to_string())?;
                ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            median(&ms)
        }
        _ => 0.0,
    };

    // Verification, after all timing.
    let oracles = oracles(&harness.circuits);
    let mut production: Vec<OpRecord> = baseline;
    production.extend(traced);
    let verdict = verify(&production, &oracles);
    let first_traced = &production[production.len() - composed_counts.len()];
    let mut structural = true;
    for (counts, marginals) in composed_counts.iter().zip(&composed_marginals) {
        structural &= *counts == first_traced.counts;
        for (m, reference) in marginals.iter().zip(&oracles) {
            structural &= reference.marginal_fidelity(m) >= MIN_MARGINAL_FIDELITY;
        }
    }
    if !structural {
        eprintln!(
            "the composed pipeline disagrees with the production run's report or the reference"
        );
    }

    let traced_op_ms = layer_ms(&spans, "core.run");
    let run_layers: f64 = RUN_LAYERS.iter().map(|l| layer_ms(&spans, l)).sum();
    let layer_sum_ms = run_layers
        + match spec.kind {
            Kind::Cold => PLAN_LAYERS.iter().map(|l| layer_ms(&spans, l)).sum::<f64>(),
            Kind::Warm | Kind::Batch => layer_ms(&spans, "core.plan_cache_hit"),
        };
    let layer_sum_ratio = layer_sum_ms / traced_op_ms;
    if single_run && !(0.85..=1.15).contains(&layer_sum_ratio) {
        eprintln!("warning: core.layer_sum_ratio {layer_sum_ratio:.3} is outside [0.85, 1.15]");
    }
    let eval_ms =
        layer_ms(&spans, "cutkit.eval_clifford") + layer_ms(&spans, "cutkit.eval_nonclifford");
    let backend_ms: f64 = BACKEND_LAYERS.iter().map(|l| layer_ms(&spans, l)).sum();
    let variant_circuit_ms = layer_ms(&spans, "cutkit.variant_circuit");
    let circuits = &harness.circuits;
    let total = |f: fn(&qcir::Circuit) -> usize| circuits.iter().map(f).sum::<usize>() as f64;

    let value = |name: &str| -> f64 {
        match name {
            "core.op_ms_p50" => op_ms_p50,
            "core.traced_op_ms" => traced_op_ms,
            "core.layer_sum_ms" => layer_sum_ms,
            "core.layer_sum_ratio" => layer_sum_ratio,
            "core.overhead_ms" => traced_op_ms - layer_sum_ms,
            "trace.overhead_frac" => (traced_op_ms - op_ms_p50) / op_ms_p50,
            "cutkit.accumulate_ms" => eval_ms - backend_ms - variant_circuit_ms,
            "core.op_2t_ms" => op_2t_ms,
            "core.scaling_2t" if op_2t_ms > 0.0 => op_ms_p50 / op_2t_ms,
            "core.scaling_2t" => 0.0,
            "core.batch_parallel_efficiency" => batch_parallel_efficiency,
            "runtime.pool_spawned_total" => pool_after.spawned_total as f64,
            "runtime.pool_live" => pool_after.live as f64,
            "runtime.respawn_delta" => {
                (pool_after.spawned_total - pool_before.spawned_total) as f64
            }
            "core.plan_cache_hits" => (cache_after.0 - cache_before.0) as f64 / baseline_ops,
            "core.plan_cache_misses" => (cache_after.1 - cache_before.1) as f64 / baseline_ops,
            "svsim.uncut_ms" => uncut_ms,
            "svsim.cut_speedup" => uncut_ms / op_ms_p50,
            "core.joint_fidelity_min" => verdict.joint_fidelity_min,
            "qcir.qubits" => total(qcir::Circuit::num_qubits),
            "qcir.ops" => total(qcir::Circuit::len),
            "qcir.non_clifford" => total(qcir::Circuit::non_clifford_count),
            "cutkit.cuts" => first_traced.counts.cuts as f64,
            "cutkit.fragments" => first_traced.counts.fragments as f64,
            "cutkit.clifford_fragments" => first_traced.counts.clifford_fragments as f64,
            "cutkit.variants" => first_traced.counts.variants as f64,
            "cutkit.assignments_visited" => first_traced.assignments_visited as f64,
            "cutkit.assignments_skipped" => first_traced.assignments_skipped as f64,
            "cutkit.tensor_support" => first_traced.tensor_support as f64,
            "cutkit.joint_support" => first_traced.joint_support as f64,
            "cutkit.mlft_moved" => first_traced.mlft_moved,
            span_ms => layer_ms(
                &spans,
                span_ms
                    .strip_suffix("_ms")
                    .expect("every other metric is a span's time"),
            ),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: value(name),
        })
        .collect();

    Ok(Outcome {
        correct: verdict.failed == 0 && structural,
        attempted: production.len() as u64,
        failed: verdict.failed,
        threads,
        metrics,
        spans,
    })
}
