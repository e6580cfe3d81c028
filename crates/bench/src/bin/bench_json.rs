//! Perf-trajectory benchmark: parallel recombination and the batch
//! drivers, written as `BENCH_recombine.json` at the repo root.
//!
//! Three measurements per `k` (number of cuts):
//!
//! * `seed_ms` — a faithful replica of the seed implementation's
//!   sequential `4^k` marginals loop (per-assignment prefix/suffix
//!   allocations, per-tensor `slice_max_abs` checks), timed through the
//!   same public `FragmentTensor` API it used;
//! * `engine_1t_ms` — the chunked contraction engine at one thread;
//! * `engine_mt_ms` — the engine with one worker per available core.
//!
//! A `joint_reconstruction` series compares the interned-id joint engine
//! against the frozen pre-intern baseline
//! (`cutkit::reference_joint_btreemap`: per-chunk `BTreeMap<Bits, f64>`
//! accumulation, one `Bits` clone per partial term, clone-per-merge across
//! chunks), asserting the outputs bit-identical before timing is reported.
//!
//! (Fragment evaluation and the MLFT stage have no series here:
//! `cutkit.accumulate_ms` / `cutkit.eval_clifford_ms` and `cutkit.mlft_ms`
//! of `e2e_bench` measure them inside a whole run.)
//!
//! A `runtime_reuse` series runs first (while the process-global runtime
//! pool is still cold): one batch that pays the worker spawns, then warm
//! batches on the persistent pool, asserting zero new spawns and
//! bit-identical output. A `plan_cache` series times a cut-bound plan
//! rebuild against a fingerprint-keyed cache hit (same `Arc` returned).
//!
//! A `truncated_sweep` series exercises the error-budgeted recombination
//! dial (`ExecParams::with_error_budget`) on the plan of a noisy T chain,
//! whose variants are all sampled: the exact sweep against three budgets,
//! asserting the largest budget buys at least 2x recombination latency and
//! that every point's reported skipped-mass bound dominates its measured
//! L1 distance from the exact distribution.
//!
//! Plus the §IX sparse-contraction ablation. Every engine result is
//! checked bit-identical between thread counts before timing is reported.
//!
//! Environment knobs: `REPS` (samples per point, default 3; the best is
//! kept), `MAX_K` (default 12), `BENCH_CHECK_TOLERANCE` (gate fraction,
//! default 0.25), `BENCH_CHECK_MIN_DELTA_MS` (absolute noise floor,
//! default 0.5).
//!
//! With `--check`, the previously committed `BENCH_recombine.json` is
//! read before being overwritten and every `*_1t_ms` series is gated
//! against it: a per-series delta table is printed and the process exits
//! nonzero when any series regressed beyond the tolerance — the CI
//! bench-regression gate.

use cutkit::{
    cut_circuit, reference_joint_btreemap, synthetic_dense_chain, CutPoint, CutStrategy, EvalMode,
    EvalOptions, FragmentTensor, Reconstructor, TensorOptions,
};
use qcir::{Bits, Circuit, NoiseChannel};
use std::time::Instant;
use supersim::{ExecParams, RunResult, SuperSim, SuperSimConfig};

/// The seed implementation's marginals loop, reproduced verbatim against
/// the public tensor API: one `4^k` sweep, fresh prefix/suffix vectors per
/// assignment, `slice_max_abs` checked per tensor per assignment.
fn seed_marginals(tensors: &[FragmentTensor], num_cuts: usize, n_qubits: usize) -> Vec<[f64; 2]> {
    let nf = tensors.len();
    let tol = 1e-12;
    let mut marg = vec![[0.0f64; 2]; n_qubits];
    let mut mass = 0.0;
    let total = 1u64 << (2 * num_cuts);
    let mut indices = vec![0usize; nf];
    for kappa in 0..total {
        let digit = |cut: usize| ((kappa >> (2 * cut)) & 0b11) as usize;
        let mut skip = false;
        for (fi, t) in tensors.iter().enumerate() {
            let idx = t.pauli_index(digit);
            if t.slice_max_abs(idx) <= tol {
                skip = true;
                break;
            }
            indices[fi] = idx;
        }
        if skip {
            continue;
        }
        let mut prefix = vec![1.0; nf + 1];
        for f in 0..nf {
            prefix[f + 1] = prefix[f] * tensors[f].total(indices[f]);
        }
        let mut suffix = vec![1.0; nf + 1];
        for f in (0..nf).rev() {
            suffix[f] = suffix[f + 1] * tensors[f].total(indices[f]);
        }
        mass += prefix[nf];
        for (f, t) in tensors.iter().enumerate() {
            let excl = prefix[f] * suffix[f + 1];
            if excl == 0.0 {
                continue;
            }
            for (bit, &global) in t.output_globals().iter().enumerate() {
                for v in 0..2 {
                    marg[global][v] += excl * t.marginal(bit, v == 1, indices[f]);
                }
            }
        }
    }
    if mass.abs() > 1e-12 {
        for m in &mut marg {
            m[0] /= mass;
            m[1] /= mass;
        }
    }
    for m in &mut marg {
        m[0] = m[0].clamp(0.0, 1.0);
        m[1] = m[1].clamp(0.0, 1.0);
        let s = m[0] + m[1];
        if s > 0.0 {
            m[0] /= s;
            m[1] /= s;
        }
    }
    marg
}

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.unwrap())
}

fn max_abs_diff(a: &[[f64; 2]], b: &[[f64; 2]]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x[0] - y[0]).abs().max((x[1] - y[1]).abs()))
        .fold(0.0, f64::max)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let check = std::env::args().skip(1).any(|a| a == "--check");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recombine.json");
    // Snapshot the committed baseline before this run overwrites it.
    let committed = if check {
        std::fs::read_to_string(path).ok()
    } else {
        None
    };
    let cores = runtime::default_workers();
    let reps = env_usize("REPS", 3);
    let max_k = env_usize("MAX_K", 12);

    // --- Runtime pool reuse: cold spawn vs warm persistent pool --------
    // This series must run FIRST: the cold measurement relies on the
    // process-global runtime pool never having been touched, so it pays
    // the worker spawns that every warm batch — and every later section
    // of this benchmark — gets for free.
    let pool_circuits: Vec<Circuit> = vec![
        workloads::hwea(5, 2, 1, 41).circuit,
        workloads::qaoa_sk(4, 1, 1, 43).circuit,
        workloads::ghz(6),
        workloads::hwea(4, 1, 2, 44).circuit,
    ];
    // Plan caching off: this series isolates worker reuse.
    let pool_cfg = SuperSimConfig::builder()
        .shots(300)
        .seed(23)
        .mlft(true)
        .parallel(true)
        .threads(8)
        .plan_cache_capacity(0)
        .build()
        .unwrap();
    let pool_sim = SuperSim::new(pool_cfg.clone());
    assert_eq!(
        pool_sim.stats().pool.spawned_total,
        0,
        "runtime_reuse must be the first pool user"
    );
    let t_cold = Instant::now();
    let cold_runs = pool_sim.run_batch(&pool_circuits);
    let cold_mt_ms = t_cold.elapsed().as_secs_f64() * 1e3;
    let spawned_cold = pool_sim.stats().pool.spawned_total;
    let (warm_mt_ms, warm_runs) = time_best(reps, || pool_sim.run_batch(&pool_circuits));
    let spawned_warm = pool_sim.stats().pool.spawned_total;
    assert_eq!(
        spawned_cold, spawned_warm,
        "runtime_reuse: warm batches must reuse the live workers"
    );
    let (pool_1t_ms, pool_seq_runs) = time_best(reps, || {
        SuperSim::new(
            pool_cfg
                .clone()
                .into_builder()
                .parallel(false)
                .threads(0)
                .build()
                .unwrap(),
        )
        .run_batch(&pool_circuits)
    });
    let pool_identical = cold_runs
        .iter()
        .zip(&warm_runs)
        .chain(pool_seq_runs.iter().zip(&warm_runs))
        .all(|(a, b)| a.as_ref().unwrap().bit_identical_to(b.as_ref().unwrap()));
    assert!(
        pool_identical,
        "runtime_reuse: cold/warm/sequential batches diverged"
    );
    println!(
        "runtime_reuse ({} jobs, 8 workers): cold {cold_mt_ms:.2} ms \
         ({spawned_cold} spawns), warm {warm_mt_ms:.2} ms (0 new spawns), \
         sequential {pool_1t_ms:.2} ms",
        pool_circuits.len(),
    );
    let runtime_reuse_row = format!(
        "{{\"jobs\": {}, \"cold_mt_ms\": {cold_mt_ms:.3}, \
         \"warm_mt_ms\": {warm_mt_ms:.3}, \"batch_1t_ms\": {pool_1t_ms:.3}, \
         \"workers_spawned_cold\": {spawned_cold}, \
         \"workers_spawned_warm_delta\": 0, \"bit_identical\": {pool_identical}}}",
        pool_circuits.len(),
    );

    // --- Plan cache: fingerprint-keyed hit vs rebuild ------------------
    // The cut-bound t_ladder under a tight budget: the greedy merge pass
    // dominates planning, which is exactly the cost a cache hit elides.
    let cache_ladder = workloads::t_ladder(2, 150);
    let cache_cfg = SuperSimConfig::builder()
        .cut_strategy(CutStrategy::IsolateNonClifford { max_cuts: 4 })
        .build()
        .unwrap();
    let miss_sim = SuperSim::new(
        cache_cfg
            .clone()
            .into_builder()
            .plan_cache_capacity(0)
            .build()
            .unwrap(),
    );
    let (plan_miss_1t_ms, _) = time_best(reps, || miss_sim.plan(&cache_ladder.circuit).unwrap());
    let hit_sim = SuperSim::new(cache_cfg.clone());
    let seeded_plan = hit_sim.plan(&cache_ladder.circuit).unwrap();
    let (plan_hit_1t_ms, hit_plan) =
        time_best(reps, || hit_sim.plan(&cache_ladder.circuit).unwrap());
    assert!(
        std::sync::Arc::ptr_eq(&seeded_plan, &hit_plan),
        "plan_cache: hit must return the cached plan"
    );
    let cache_stats = hit_sim.stats().plan_cache;
    assert_eq!(
        cache_stats.misses, 1,
        "plan_cache: only the seed plan misses"
    );
    let plan_cache_speedup = plan_miss_1t_ms / plan_hit_1t_ms.max(1e-6);
    println!(
        "plan_cache (t_ladder {} ops, k={}): rebuild {plan_miss_1t_ms:.2} ms, \
         hit {plan_hit_1t_ms:.4} ms ({plan_cache_speedup:.0}x), {} hits",
        cache_ladder.circuit.len(),
        seeded_plan.num_cuts(),
        cache_stats.hits,
    );
    let plan_cache_row = format!(
        "{{\"ops\": {}, \"cuts\": {}, \"miss_1t_ms\": {plan_miss_1t_ms:.3}, \
         \"hit_1t_ms\": {plan_hit_1t_ms:.4}, \"speedup\": {plan_cache_speedup:.1}, \
         \"hits\": {}, \"arc_identity\": true}}",
        cache_ladder.circuit.len(),
        seeded_plan.num_cuts(),
        cache_stats.hits,
    );

    // --- Recombination: marginals at k = 4 / 8 / 12 ------------------
    let mut recombine_rows = Vec::new();
    for k in [4usize, 8, 12] {
        if k > max_k {
            continue;
        }
        let point_reps = if k >= 12 { 1 } else { reps };
        let (tensors, n_qubits) = synthetic_dense_chain(k, 1);
        let (seed_ms, seed_marg) = time_best(point_reps, || seed_marginals(&tensors, k, n_qubits));
        let (one_ms, one_marg) = time_best(point_reps, || {
            Reconstructor::new(&tensors, k, n_qubits)
                .with_threads(1)
                .marginals()
        });
        let (multi_ms, multi_marg) = time_best(point_reps, || {
            Reconstructor::new(&tensors, k, n_qubits)
                .with_threads(0)
                .marginals()
        });
        let identical = one_marg == multi_marg;
        let seed_diff = max_abs_diff(&seed_marg, &one_marg);
        assert!(identical, "k={k}: parallel result differs from sequential");
        assert!(
            seed_diff < 1e-9,
            "k={k}: engine diverged from seed algorithm"
        );
        let speedup_1t = seed_ms / one_ms;
        let speedup_mt = seed_ms / multi_ms;
        println!(
            "recombine k={k}: seed {seed_ms:.2} ms, engine(1t) {one_ms:.2} ms \
             ({speedup_1t:.2}x), engine({cores} workers) {multi_ms:.2} ms ({speedup_mt:.2}x)"
        );
        recombine_rows.push(format!(
            "    {{\"k\": {k}, \"seed_ms\": {seed_ms:.3}, \"engine_1t_ms\": {one_ms:.3}, \
             \"engine_mt_ms\": {multi_ms:.3}, \"speedup_1t\": {speedup_1t:.3}, \
             \"speedup_mt\": {speedup_mt:.3}, \"bit_identical_across_threads\": {identical}, \
             \"max_abs_diff_vs_seed\": {seed_diff:e}}}"
        ));
    }

    // --- Joint reconstruction: interned-id engine vs BTreeMap baseline
    let mut joint_rows = Vec::new();
    for k in [4usize, 6, 8] {
        if k > max_k {
            continue;
        }
        let point_reps = if k >= 8 { 1.max(reps / 3) } else { reps };
        let (tensors, n_qubits) = synthetic_dense_chain(k, 1);
        let support: usize = tensors.iter().map(|t| t.support_len().max(1)).product();
        let (seed_ms, seed_pairs) = time_best(point_reps, || {
            reference_joint_btreemap(&tensors, k, n_qubits, true)
        });
        let (one_ms, one_dist) = time_best(point_reps, || {
            Reconstructor::new(&tensors, k, n_qubits)
                .with_threads(1)
                .joint(usize::MAX)
        });
        let (multi_ms, multi_dist) = time_best(point_reps, || {
            Reconstructor::new(&tensors, k, n_qubits)
                .with_threads(0)
                .joint(usize::MAX)
        });
        let one_pairs: Vec<(Bits, f64)> = one_dist.iter().map(|(b, p)| (b.clone(), p)).collect();
        let multi_pairs: Vec<(Bits, f64)> =
            multi_dist.iter().map(|(b, p)| (b.clone(), p)).collect();
        let identical = one_pairs == multi_pairs;
        assert!(identical, "k={k}: parallel joint differs from sequential");
        assert_eq!(
            one_pairs.len(),
            seed_pairs.len(),
            "k={k}: joint support diverged from baseline"
        );
        for ((gb, gw), (eb, ew)) in one_pairs.iter().zip(&seed_pairs) {
            assert!(
                gb == eb && gw.to_bits() == ew.to_bits(),
                "k={k}: joint diverged from BTreeMap baseline at {gb}"
            );
        }
        let speedup_1t = seed_ms / one_ms;
        let speedup_mt = seed_ms / multi_ms;
        println!(
            "joint k={k} (support {support}): seed {seed_ms:.2} ms, \
             engine(1t) {one_ms:.2} ms ({speedup_1t:.2}x), \
             engine({cores} workers) {multi_ms:.2} ms ({speedup_mt:.2}x)"
        );
        joint_rows.push(format!(
            "    {{\"k\": {k}, \"support\": {support}, \"seed_joint_ms\": {seed_ms:.3}, \
             \"joint_1t_ms\": {one_ms:.3}, \"joint_mt_ms\": {multi_ms:.3}, \
             \"speedup_1t\": {speedup_1t:.3}, \"speedup_mt\": {speedup_mt:.3}, \
             \"bit_identical_to_baseline\": true, \
             \"bit_identical_across_threads\": {identical}}}"
        ));
    }

    // --- Batch sweep: plan-reuse vs re-cut-per-point baseline ----------
    // A deep T-rich ladder under a tight cut budget: the greedy merge
    // pass dominates each run, which is exactly the cost plan reuse
    // amortizes. The baseline re-cuts per sweep point (one SuperSim::run
    // each); the engine plans once and drives every point through
    // Executor::run_sweep on one shared pool. Output is asserted
    // bit-identical to the sequential per-point runs at 1, 2, and 8
    // worker threads before timing is reported.
    let ladder = workloads::t_ladder(2, 150);
    let sweep_cfg = SuperSimConfig::builder()
        .shots(400)
        .cut_strategy(CutStrategy::IsolateNonClifford { max_cuts: 4 })
        .build()
        .unwrap();
    let points: Vec<ExecParams> = (0..8u64)
        .map(|i| ExecParams::seeded(1000 + i).with_shots(400))
        .collect();
    let (recut_ms, baseline_runs) = time_best(reps, || {
        points
            .iter()
            .map(|p| {
                SuperSim::new(
                    sweep_cfg
                        .clone()
                        .into_builder()
                        .seed(p.seed)
                        .shots(p.shots)
                        .build()
                        .unwrap(),
                )
                .run(&ladder.circuit)
                .unwrap()
            })
            .collect::<Vec<_>>()
    });
    let run_sweep_at = |threads: usize| -> Vec<RunResult> {
        let sim = SuperSim::new(
            sweep_cfg
                .clone()
                .into_builder()
                .parallel(threads != 1)
                .threads(if threads != 1 { threads } else { 0 })
                .build()
                .unwrap(),
        );
        let plan = sim.plan(&ladder.circuit).unwrap();
        sim.executor()
            .run_sweep(&plan, &points)
            .into_iter()
            .map(Result::unwrap)
            .collect()
    };
    let (sweep_1t_ms, sweep_runs) = time_best(reps, || run_sweep_at(1));
    let (sweep_mt_ms, _) = time_best(reps, || run_sweep_at(0));
    // Two distinct parity claims, collected separately and asserted after
    // each comparison: the 1-thread sweep against the sequential re-cut
    // baseline, and the 2/8-thread sweeps against the 1-thread sweep.
    let sweep_vs_sequential = baseline_runs
        .iter()
        .zip(&sweep_runs)
        .all(|(b, e)| b.bit_identical_to(e));
    assert!(
        sweep_vs_sequential,
        "batch_sweep: plan-reuse sweep diverged from the sequential per-point runs"
    );
    let sweep_across_threads = [2usize, 8].iter().all(|&threads| {
        run_sweep_at(threads)
            .iter()
            .zip(&sweep_runs)
            .all(|(e, one)| e.bit_identical_to(one))
    });
    assert!(
        sweep_across_threads,
        "batch_sweep: sweep output changed with the worker count"
    );
    let sweep_speedup_1t = recut_ms / sweep_1t_ms;
    let sweep_speedup_mt = recut_ms / sweep_mt_ms;
    println!(
        "batch_sweep ({} points, {} ops, {} T gates, k={}): \
         re-cut baseline {recut_ms:.2} ms, plan-reuse(1t) {sweep_1t_ms:.2} ms \
         ({sweep_speedup_1t:.2}x), plan-reuse({cores} workers) {sweep_mt_ms:.2} ms \
         ({sweep_speedup_mt:.2}x)",
        points.len(),
        ladder.circuit.len(),
        ladder.circuit.t_count(),
        baseline_runs[0].report.num_cuts,
    );
    let batch_sweep_row = format!(
        "{{\"points\": {}, \"ops\": {}, \"t_gates\": {}, \"cuts\": {}, \
         \"recut_1t_ms\": {recut_ms:.3}, \"sweep_1t_ms\": {sweep_1t_ms:.3}, \
         \"sweep_mt_ms\": {sweep_mt_ms:.3}, \"speedup_1t\": {sweep_speedup_1t:.3}, \
         \"speedup_mt\": {sweep_speedup_mt:.3}, \
         \"bit_identical_to_sequential\": {sweep_vs_sequential}, \
         \"bit_identical_across_threads\": {sweep_across_threads}}}",
        points.len(),
        ladder.circuit.len(),
        ladder.circuit.t_count(),
        baseline_runs[0].report.num_cuts,
    );

    // --- Error-budgeted recombination: the accuracy/latency dial -------
    // One plan of a noisy one-qubit T chain recombined exactly and under
    // three error budgets (`ExecParams::with_error_budget`). The budget
    // must buy recombination latency — at least 2x at the largest budget
    // — and the reported skipped-mass bound must dominate the measured L1
    // distance from the exact distribution, or the dial is lying about one
    // of its two axes. A weak depolarizing channel after every `T`, with
    // the chain cut after each channel, makes every fragment noisy, so
    // every variant is sampled: the budget trims the thousands of
    // small-weight assignments that shot noise leaves where the exact
    // tensors are zero. (A noiseless T ladder's supports fit the shot
    // budget, its tensors are enumerated, and the sparse sweep leaves a
    // budget nothing to trim.)
    let mut trunc_chain = Circuit::new(1);
    let mut trunc_cuts = Vec::new();
    for layer in 0..9 {
        trunc_chain
            .h(0)
            .t(0)
            .add_noise(NoiseChannel::Depolarize1(1e-3), &[0]);
        if layer < 8 {
            trunc_cuts.push(CutPoint {
                qubit: 0,
                after_op: trunc_chain.len() - 1,
            });
        }
    }
    let trunc_sim = SuperSim::new(
        SuperSimConfig::builder()
            .cut_strategy(CutStrategy::Manual(trunc_cuts))
            .build()
            .unwrap(),
    );
    let trunc_plan = trunc_sim.plan(&trunc_chain).unwrap();
    // Best recombination time across reps (the series gates on the
    // recombine stage, not eval, which the budget does not touch).
    let best_recombine = |params: ExecParams| -> (f64, RunResult) {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..reps {
            let r = trunc_sim.executor().run_with(&trunc_plan, params).unwrap();
            best = best.min(r.report.recombine_time.as_secs_f64() * 1e3);
            out = Some(r);
        }
        (best, out.unwrap())
    };
    let (trunc_exact_ms, trunc_exact) = best_recombine(ExecParams::seeded(7));
    assert_eq!(
        trunc_exact.report.assignments_skipped, 0,
        "truncated_sweep: the zero-budget run must not skip anything"
    );
    assert_eq!(
        trunc_exact.report.enumerated_variants, 0,
        "truncated_sweep: every noisy variant must be sampled"
    );
    let exact_dist: std::collections::HashMap<Bits, f64> = trunc_exact
        .distribution
        .as_ref()
        .unwrap()
        .iter()
        .map(|(b, p)| (b.clone(), p))
        .collect();
    let mut trunc_rows = Vec::new();
    let mut trunc_last_speedup = 0.0;
    for budget in [0.05f64, 0.25, 1.0] {
        let (ms, run) = best_recombine(ExecParams::seeded(7).with_error_budget(budget));
        let bound = run.report.recombine_error_bound;
        let mut rest = exact_dist.clone();
        let mut l1 = 0.0;
        for (b, p) in run.distribution.as_ref().unwrap().iter() {
            l1 += (p - rest.remove(b).unwrap_or(0.0)).abs();
        }
        l1 += rest.values().map(|v| v.abs()).sum::<f64>();
        assert!(
            bound <= budget + 1e-12,
            "truncated_sweep: realized bound {bound} exceeds the budget {budget}"
        );
        assert!(
            l1 <= bound,
            "truncated_sweep: measured L1 {l1} above the reported bound {bound}"
        );
        assert_eq!(
            run.report.visited_assignments + run.report.assignments_skipped,
            trunc_exact.report.visited_assignments,
            "truncated_sweep: budget {budget} lost track of assignments"
        );
        let speedup = trunc_exact_ms / ms;
        trunc_last_speedup = speedup;
        println!(
            "truncated_sweep budget={budget}: visited {} of {} ({} skipped), \
             bound {bound:.4}, l1 {l1:.5}, recombine {ms:.2} ms ({speedup:.2}x)",
            run.report.visited_assignments,
            trunc_exact.report.visited_assignments,
            run.report.assignments_skipped,
        );
        trunc_rows.push(format!(
            "    {{\"budget\": {budget}, \"recombine_1t_ms\": {ms:.3}, \
             \"speedup\": {speedup:.3}, \"visited\": {}, \"skipped\": {}, \
             \"error_bound\": {bound:.6}, \"l1_vs_exact\": {l1:.6}, \
             \"bound_dominates_l1\": true}}",
            run.report.visited_assignments, run.report.assignments_skipped,
        ));
    }
    assert!(
        trunc_last_speedup >= 2.0,
        "truncated_sweep: largest budget bought only {trunc_last_speedup:.2}x"
    );
    let truncated_sweep_row = format!(
        "{{\"ops\": {}, \"t_gates\": {}, \"cuts\": {}, \
         \"exact_recombine_1t_ms\": {trunc_exact_ms:.3}, \
         \"exact_visited\": {}, \"points\": [\n{}\n  ]}}",
        trunc_chain.len(),
        trunc_chain.t_count(),
        trunc_exact.report.num_cuts,
        trunc_exact.report.visited_assignments,
        trunc_rows.join(",\n"),
    );

    // --- Supervised batch: isolation overhead --------------------------
    // A mixed batch timed clean, then with one job killed by an injected
    // panic (`faultkit::FaultPlan`): the supervision layer must keep the
    // survivors bit-identical to the clean batch — the panic costs only
    // the dead job's work, never the pool or its neighbours' results.
    {
        // Silence the default panic hook for the injected panic below;
        // it is deliberate and would otherwise spray a backtrace into
        // the bench log.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected fault") {
                default_hook(info);
            }
        }));
    }
    let super_circuits: Vec<Circuit> = vec![
        workloads::hwea(5, 2, 1, 41).circuit,
        workloads::qaoa_sk(4, 1, 1, 43).circuit,
        workloads::ghz(6),
        workloads::hwea(4, 1, 2, 44).circuit,
    ];
    let super_cfg = SuperSimConfig::builder()
        .shots(300)
        .seed(17)
        .mlft(true)
        .parallel(true)
        .threads(0)
        .build()
        .unwrap();
    let (super_clean_1t_ms, clean_1t) = time_best(reps, || {
        SuperSim::new(
            super_cfg
                .clone()
                .into_builder()
                .parallel(false)
                .build()
                .unwrap(),
        )
        .run_batch(&super_circuits)
    });
    let (super_clean_mt_ms, clean_mt) = time_best(reps, || {
        SuperSim::new(super_cfg.clone()).run_batch(&super_circuits)
    });
    let faulted_cfg = super_cfg
        .clone()
        .into_builder()
        .faults(std::sync::Arc::new(supersim::FaultPlan::new().inject(
            0,
            supersim::Stage::Eval,
            0,
            supersim::FaultKind::Panic,
        )))
        .build()
        .unwrap();
    let (super_faulted_ms, faulted) = time_best(reps, || {
        SuperSim::new(faulted_cfg.clone()).run_batch(&super_circuits)
    });
    let clean_across_threads = clean_1t
        .iter()
        .zip(&clean_mt)
        .all(|(a, b)| a.as_ref().unwrap().bit_identical_to(b.as_ref().unwrap()));
    assert!(
        clean_across_threads,
        "supervised_batch: clean batch differs across thread counts"
    );
    assert!(
        matches!(
            faulted[0].as_ref().unwrap_err().root(),
            supersim::SuperSimError::Panicked { .. }
        ),
        "supervised_batch: injected panic not reported"
    );
    let survivors_identical = clean_mt
        .iter()
        .zip(&faulted)
        .skip(1)
        .all(|(a, b)| a.as_ref().unwrap().bit_identical_to(b.as_ref().unwrap()));
    assert!(
        survivors_identical,
        "supervised_batch: a panicking job perturbed its neighbours"
    );
    println!(
        "supervised_batch ({} jobs): clean(1t) {super_clean_1t_ms:.2} ms, \
         clean({cores} workers) {super_clean_mt_ms:.2} ms, \
         one job panicked {super_faulted_ms:.2} ms",
        super_circuits.len(),
    );
    let supervised_row = format!(
        "{{\"jobs\": {}, \"clean_1t_ms\": {super_clean_1t_ms:.3}, \
         \"clean_mt_ms\": {super_clean_mt_ms:.3}, \
         \"faulted_mt_ms\": {super_faulted_ms:.3}, \
         \"bit_identical_across_threads\": {clean_across_threads}, \
         \"survivors_bit_identical\": {survivors_identical}}}",
        super_circuits.len(),
    );

    // --- Resilient batch: retry + salvage overhead ---------------------
    // The resilience driver on the same mixed batch: a clean pass (the
    // wrapper's bookkeeping cost), a pass where one job needs a transient
    // retry (`FailNTimes(1)`), and a full salvage cycle (fail under a
    // 1-attempt budget, then `resume` re-runs only the failed job). All
    // recovered results must stay bit-identical to the clean batch.
    let resilient_policy = || {
        supersim::ResiliencePolicy::new().with_retry(
            supersim::RetryPolicy::default()
                .with_max_attempts(3)
                .without_backoff(),
        )
    };
    let (resil_clean_ms, resil_clean) = time_best(reps, || {
        SuperSim::new(super_cfg.clone())
            .run_batch_resilient(&super_circuits, resilient_policy())
            .into_results()
    });
    let transient_cfg = super_cfg
        .clone()
        .into_builder()
        .faults(std::sync::Arc::new(supersim::FaultPlan::new().inject(
            0,
            supersim::Stage::Eval,
            0,
            supersim::FaultKind::FailNTimes(1),
        )))
        .build()
        .unwrap();
    let (resil_transient_ms, resil_transient) = time_best(reps, || {
        let outcome = SuperSim::new(transient_cfg.clone())
            .run_batch_resilient(&super_circuits, resilient_policy());
        (outcome.statuses(), outcome.into_results())
    });
    let (resil_salvage_ms, resil_salvaged) = time_best(reps, || {
        let mut outcome = SuperSim::new(transient_cfg.clone()).run_batch_resilient(
            &super_circuits,
            resilient_policy().with_retry(
                supersim::RetryPolicy::default()
                    .with_max_attempts(1)
                    .without_backoff(),
            ),
        );
        let salvaged = outcome.resume();
        (salvaged, outcome.into_results())
    });
    let (resil_statuses, resil_transient) = resil_transient;
    let (resil_salvage_count, resil_salvaged) = resil_salvaged;
    assert_eq!(
        resil_statuses[0],
        supersim::JobStatus::Ok { attempts: 2 },
        "resilient_batch: the flaky job must recover on attempt 2"
    );
    assert_eq!(
        resil_salvage_count, 1,
        "resilient_batch: resume must salvage exactly the failed job"
    );
    let resil_identical = clean_mt
        .iter()
        .zip(&resil_clean)
        .zip(&resil_transient)
        .zip(&resil_salvaged)
        .all(|(((base, c), t), s)| {
            let base = base.as_ref().unwrap();
            base.bit_identical_to(c.as_ref().unwrap())
                && base.bit_identical_to(t.as_ref().unwrap())
                && base.bit_identical_to(s.as_ref().unwrap())
        });
    assert!(
        resil_identical,
        "resilient_batch: retried/salvaged results diverged from the clean batch"
    );
    println!(
        "resilient_batch ({} jobs): clean {resil_clean_ms:.2} ms, \
         one transient retry {resil_transient_ms:.2} ms, \
         salvage cycle {resil_salvage_ms:.2} ms",
        super_circuits.len(),
    );
    let resilient_row = format!(
        "{{\"jobs\": {}, \"clean_mt_ms\": {resil_clean_ms:.3}, \
         \"transient_mt_ms\": {resil_transient_ms:.3}, \
         \"salvage_cycle_mt_ms\": {resil_salvage_ms:.3}, \
         \"retried_job_attempts\": 2, \
         \"recovered_bit_identical\": {resil_identical}}}",
        super_circuits.len(),
    );

    // --- §IX sparse-contraction ablation ------------------------------
    let mut ghz_t = Circuit::new(4);
    ghz_t.h(0);
    for q in 1..4 {
        ghz_t.cx(q - 1, q);
    }
    ghz_t.t(3).h(3);
    let sparse_cut = cut_circuit(&ghz_t, CutStrategy::default()).unwrap();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let sparse_tensors: Vec<FragmentTensor> = sparse_cut
        .fragments
        .iter()
        .map(|f| {
            cutkit::build_fragment_tensor(
                f,
                &EvalOptions {
                    mode: EvalMode::Exact,
                    ..Default::default()
                },
                &TensorOptions::default(),
                &mut rng,
            )
            .unwrap()
        })
        .collect();
    let rec = Reconstructor::new(
        &sparse_tensors,
        sparse_cut.num_cuts,
        sparse_cut.original_qubits,
    );
    let visited_sparse = rec.visited_assignments();
    let visited_dense = rec.clone().with_sparse(false).visited_assignments();
    println!(
        "sparse ablation (k={}): visited {visited_sparse} of {visited_dense}",
        sparse_cut.num_cuts
    );

    // --- JSON report ---------------------------------------------------
    let json = format!(
        "{{\n  \"bench\": \"recombine\",\n  \"schema_version\": 12,\n  \
         \"threads_available\": {cores},\n  \"reps\": {reps},\n  \
         \"runtime_reuse\": {runtime_reuse_row},\n  \
         \"plan_cache\": {plan_cache_row},\n  \
         \"recombine_marginals\": [\n{}\n  ],\n  \
         \"joint_reconstruction\": [\n{}\n  ],\n  \
         \"batch_sweep\": {batch_sweep_row},\n  \
         \"truncated_sweep\": {truncated_sweep_row},\n  \
         \"supervised_batch\": {supervised_row},\n  \
         \"resilient_batch\": {resilient_row},\n  \
         \"sparse_contraction\": {{\"k\": {}, \"visited_sparse\": {visited_sparse}, \
         \"visited_dense\": {visited_dense}}}\n}}\n",
        recombine_rows.join(",\n"),
        joint_rows.join(",\n"),
        sparse_cut.num_cuts,
    );
    std::fs::write(path, &json).expect("write BENCH_recombine.json");
    println!("wrote {path}");

    // --- Bench-regression gate (--check) -------------------------------
    if check {
        let tolerance = std::env::var("BENCH_CHECK_TOLERANCE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.25);
        let min_delta_ms = std::env::var("BENCH_CHECK_MIN_DELTA_MS")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.5);
        match committed {
            Some(baseline) => {
                let ok = supersim_bench::benchjson::check_regressions(
                    &baseline,
                    &json,
                    tolerance,
                    min_delta_ms,
                )
                .expect("baseline/report JSON must parse");
                if !ok {
                    std::process::exit(1);
                }
            }
            None => println!("bench-check: no committed baseline found; gate skipped"),
        }
    }
}
