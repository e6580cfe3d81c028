//! Error-budgeted recombination at the pipeline surface.
//!
//! The contract under test: `error_budget = 0.0` (the default) is the
//! exact sweep, bit for bit, on every path; a fixed nonzero budget is
//! deterministic across thread counts and across the batch / sweep /
//! plan-cache-hit paths; the reported `recombine_error_bound` is a hard
//! cap on the true L1 distance to the exact unnormalized joint; and the
//! budget composes with the config builder's validation, `ExecParams`
//! overrides, and fault injection.

use proptest::prelude::*;
use qcir::Circuit;
use std::collections::HashMap;
use std::sync::Arc;
use supersim::{
    ConfigError, CutPoint, CutStrategy, ExecParams, FaultKind, FaultPlan, RunResult, Stage,
    SuperSim, SuperSimConfig, SuperSimError,
};

fn assert_bit_identical(a: &RunResult, b: &RunResult, label: &str) {
    assert!(a.bit_identical_to(b), "{label}: runs are not bit-identical");
}

/// The first circuit has Clifford supports of more than 180 points, so at
/// the fixtures' 180 shots some of its variants are sampled, and their shot
/// noise leaves small-weight assignments for a budget to skip. Enumerated
/// tensors have exact zeros instead, which the sparse sweep prunes before
/// a budget sees them.
fn mixed_circuits() -> Vec<Circuit> {
    let mut deep = Circuit::new(2);
    deep.h(0).t(0).cx(0, 1).h(1).t(1).h(0);
    vec![
        workloads::hwea(7, 2, 2, 44).circuit,
        deep,
        workloads::qaoa_sk(4, 1, 1, 43).circuit,
        workloads::ghz(6), // pure Clifford: no cuts, nothing to truncate
        workloads::hwea(4, 1, 2, 44).circuit,
    ]
}

fn budgeted_config(budget: f64) -> SuperSimConfig {
    SuperSimConfig::builder()
        .shots(180)
        .seed(2026)
        .mlft(true)
        .error_budget(budget)
        .build()
        .expect("valid config")
}

/// An explicit `error_budget(0.0)` is the exact default, bit for bit, on
/// the single-run, batch (1/2/8 workers), plan-cache-hit, and sweep
/// paths — and every report shows an exact sweep.
#[test]
fn zero_budget_is_the_exact_default_on_every_path() {
    let circuits = mixed_circuits();
    let default_cfg = SuperSimConfig::builder()
        .shots(180)
        .seed(2026)
        .mlft(true)
        .build()
        .expect("valid config");
    let solo: Vec<RunResult> = circuits
        .iter()
        .map(|c| SuperSim::new(default_cfg.clone()).run(c).unwrap())
        .collect();
    for threads in [1usize, 2, 8] {
        let sim = SuperSim::new(
            budgeted_config(0.0)
                .into_builder()
                .parallel(true)
                .threads(threads)
                .build()
                .unwrap(),
        );
        for (pass, batch) in [sim.run_batch(&circuits), sim.run_batch(&circuits)]
            .iter()
            .enumerate()
        {
            for (i, (s, b)) in solo.iter().zip(batch).enumerate() {
                let b = b.as_ref().unwrap();
                assert_bit_identical(
                    s,
                    b,
                    &format!("circuit {i}, pass {pass} at {threads} threads"),
                );
                assert_eq!(b.report.assignments_skipped, 0, "circuit {i}");
                assert_eq!(b.report.recombine_error_bound, 0.0, "circuit {i}");
                if pass == 1 {
                    assert!(b.report.plan_cache_hit, "circuit {i} missed the plan cache");
                }
            }
        }
    }
    // Sweep path: a point carrying the solo seed/shots must reproduce the
    // solo run exactly.
    let sim = SuperSim::new(budgeted_config(0.0));
    let plan = sim.plan(&circuits[0]).unwrap();
    let point = ExecParams::seeded(2026).with_shots(180);
    for (i, swept) in sim
        .executor()
        .run_sweep(&plan, &[point, point, point])
        .iter()
        .enumerate()
    {
        assert_bit_identical(
            &solo[0],
            swept.as_ref().unwrap(),
            &format!("sweep point {i}"),
        );
    }
}

/// A fixed nonzero budget truncates deterministically: batch output at
/// 1/2/8 workers, the plan-cache-hit second batch, and a sweep-point
/// override all reproduce the sequential budgeted run bit for bit, with
/// identical skip counts and bound bits.
#[test]
fn fixed_budget_is_bit_identical_across_paths_and_threads() {
    let circuits = mixed_circuits();
    let budget = 0.2;
    let solo: Vec<RunResult> = circuits
        .iter()
        .map(|c| SuperSim::new(budgeted_config(budget)).run(c).unwrap())
        .collect();
    // The budget must bite somewhere or this test is vacuous — and it can
    // only bite where variants were sampled.
    assert!(
        solo.iter().any(|r| r.report.assignments_skipped > 0
            && r.report.enumerated_variants < r.report.num_variants),
        "budget {budget} skipped nothing on any sampled circuit"
    );
    for r in &solo {
        assert!(r.report.recombine_error_bound <= budget + 1e-12);
    }
    for threads in [1usize, 2, 8] {
        let sim = SuperSim::new(
            budgeted_config(budget)
                .into_builder()
                .parallel(true)
                .threads(threads)
                .build()
                .unwrap(),
        );
        for (pass, batch) in [sim.run_batch(&circuits), sim.run_batch(&circuits)]
            .iter()
            .enumerate()
        {
            for (i, (s, b)) in solo.iter().zip(batch).enumerate() {
                let b = b.as_ref().unwrap();
                assert_bit_identical(
                    s,
                    b,
                    &format!("circuit {i}, pass {pass} at {threads} threads"),
                );
                assert_eq!(
                    b.report.assignments_skipped, s.report.assignments_skipped,
                    "circuit {i} at {threads} threads: skip count"
                );
                assert_eq!(
                    b.report.recombine_error_bound.to_bits(),
                    s.report.recombine_error_bound.to_bits(),
                    "circuit {i} at {threads} threads: bound bits"
                );
            }
        }
    }
    // Sweep path: a per-point `with_error_budget` override under an
    // unbudgeted config reproduces the config-level budget bit for bit.
    let exact_sim = SuperSim::new(
        SuperSimConfig::builder()
            .shots(180)
            .seed(2026)
            .mlft(true)
            .build()
            .unwrap(),
    );
    let plan = exact_sim.plan(&circuits[0]).unwrap();
    let point = ExecParams::seeded(2026)
        .with_shots(180)
        .with_error_budget(budget);
    for (i, swept) in exact_sim
        .executor()
        .run_sweep(&plan, &[point, point])
        .iter()
        .enumerate()
    {
        assert_bit_identical(
            &solo[0],
            swept.as_ref().unwrap(),
            &format!("budgeted sweep point {i}"),
        );
    }
}

/// `ExecParams::with_error_budget` overrides the config in both
/// directions: it opts a run of an exact config into truncation, and
/// `0.0` forces the exact sweep back under a budgeted config.
#[test]
fn exec_params_budget_overrides_config_both_ways() {
    let c = mixed_circuits().swap_remove(0);
    let budget = 0.2;
    let sim = SuperSim::new(
        SuperSimConfig::builder()
            .shots(180)
            .seed(2026)
            .mlft(true)
            .build()
            .unwrap(),
    );
    let plan = sim.plan(&c).unwrap();
    let base = ExecParams::from_config(sim.config());
    let exact = sim.executor().run_with(&plan, base).unwrap();
    assert!(exact.report.enumerated_variants < exact.report.num_variants);
    assert_eq!(exact.report.assignments_skipped, 0);
    assert_eq!(exact.report.recombine_error_bound, 0.0);
    let budgeted = sim
        .executor()
        .run_with(&plan, base.with_error_budget(budget))
        .unwrap();
    assert!(budgeted.report.assignments_skipped > 0, "budget must bite");
    assert!(budgeted.report.recombine_error_bound <= budget + 1e-12);
    assert!(budgeted.report.visited_assignments < exact.report.visited_assignments);

    let bsim = SuperSim::new(budgeted_config(budget));
    let bplan = bsim.plan(&c).unwrap();
    let bbase = ExecParams::from_config(bsim.config());
    // Config-level budget alone == params-level override, bit for bit.
    let config_budgeted = bsim.executor().run_with(&bplan, bbase).unwrap();
    assert_bit_identical(&budgeted, &config_budgeted, "config vs params budget");
    // `0.0` forces the exact sweep back.
    let forced_exact = bsim
        .executor()
        .run_with(&bplan, bbase.with_error_budget(0.0))
        .unwrap();
    assert_eq!(forced_exact.report.assignments_skipped, 0);
    assert_bit_identical(&exact, &forced_exact, "params budget 0.0 vs exact config");
}

/// The builder rejects non-finite / negative budgets and a thread count
/// without `parallel`, and `into_builder` derivations are revalidated.
#[test]
fn builder_validates_budget_and_thread_combinations() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1] {
        match SuperSimConfig::builder().error_budget(bad).build() {
            Err(ConfigError::InvalidErrorBudget(_)) => {}
            other => panic!("budget {bad}: expected InvalidErrorBudget, got {other:?}"),
        }
    }
    match SuperSimConfig::builder().threads(4).build() {
        Err(ConfigError::ThreadsWithoutParallel(4)) => {}
        other => panic!("expected ThreadsWithoutParallel, got {other:?}"),
    }
    let base = SuperSimConfig::builder()
        .parallel(true)
        .threads(4)
        .error_budget(0.5)
        .build()
        .expect("valid config");
    // Deriving a sequential variant must clear the thread count too.
    assert!(matches!(
        base.clone().into_builder().parallel(false).build(),
        Err(ConfigError::ThreadsWithoutParallel(4))
    ));
    let seq = base
        .into_builder()
        .parallel(false)
        .threads(0)
        .build()
        .expect("sequential derivation");
    assert_eq!(seq.error_budget, 0.5, "derivation keeps unrelated fields");
}

/// A budgeted run with a fault injected into recombination still reports
/// the typed error naming the earliest faulting task, at every pool
/// size, while the surviving jobs stay bit-identical to budgeted solo
/// runs.
#[test]
fn budgeted_batch_reports_injected_recombine_fault() {
    let circuits = mixed_circuits();
    let budget = 0.2;
    let solo: Vec<RunResult> = circuits
        .iter()
        .map(|c| SuperSim::new(budgeted_config(budget)).run(c).unwrap())
        .collect();
    let cfg = budgeted_config(budget)
        .into_builder()
        .faults(Arc::new(FaultPlan::new().inject(
            2,
            Stage::Recombine,
            0,
            FaultKind::Error,
        )))
        .build()
        .unwrap();
    for threads in [1usize, 2, 8] {
        let batch = SuperSim::new(
            cfg.clone()
                .into_builder()
                .parallel(threads > 1)
                .threads(if threads > 1 { threads } else { 0 })
                .build()
                .unwrap(),
        )
        .run_batch(&circuits);
        match &batch[2] {
            Err(SuperSimError::Job { job: 2, .. }) => match batch[2].as_ref().unwrap_err().root() {
                SuperSimError::Injected {
                    stage: Stage::Recombine,
                    message,
                } => {
                    assert!(message.contains("task 0"), "earliest task wins: {message}");
                }
                other => panic!("expected injected recombine error, got {other}"),
            },
            other => panic!("job 2 at {threads} threads: expected failure, got {other:?}"),
        }
        for (i, s) in solo.iter().enumerate() {
            if i != 2 {
                assert_bit_identical(
                    s,
                    batch[i].as_ref().unwrap(),
                    &format!("survivor {i} at {threads} threads"),
                );
            }
        }
    }
}

/// A noisy one-qubit T chain — 9 × (`h`, `t`, weak depolarizing), cut
/// after each of the first 8 channels — under three error budgets. Every
/// fragment is noisy, so all 91 variants are sampled, and the shot noise
/// leaves thousands of small-weight assignments where the exact tensors
/// are zero: the budget has real work to trim. Each budgeted run must stay
/// within its budget, its bound must dominate the measured L1 distance
/// from the exact run's distribution, and every assignment the exact run
/// visits must be either visited or skipped. The largest budget must cut
/// the visited assignments at least in half.
#[test]
fn budget_trims_a_sampled_chain_within_its_bound() {
    let mut chain = Circuit::new(1);
    let mut cuts = Vec::new();
    for layer in 0..9 {
        chain
            .h(0)
            .t(0)
            .add_noise(qcir::NoiseChannel::Depolarize1(1e-3), &[0]);
        if layer < 8 {
            cuts.push(CutPoint {
                qubit: 0,
                after_op: chain.len() - 1,
            });
        }
    }
    let sim = SuperSim::new(
        SuperSimConfig::builder()
            .cut_strategy(CutStrategy::Manual(cuts))
            .build()
            .unwrap(),
    );
    let plan = sim.plan(&chain).unwrap();
    let exact = sim
        .executor()
        .run_with(&plan, ExecParams::seeded(7))
        .unwrap();
    assert_eq!(exact.report.assignments_skipped, 0);
    assert_eq!(
        exact.report.enumerated_variants, 0,
        "every noisy variant must be sampled"
    );
    let exact_dist: HashMap<Vec<u64>, f64> = exact
        .distribution
        .as_ref()
        .unwrap()
        .iter()
        .map(|(b, p)| (b.to_vec(), p))
        .collect();
    let mut last = None;
    for budget in [0.05, 0.25, 1.0] {
        let run = sim
            .executor()
            .run_with(&plan, ExecParams::seeded(7).with_error_budget(budget))
            .unwrap();
        let bound = run.report.recombine_error_bound;
        assert!(
            bound <= budget + 1e-12,
            "budget {budget}: bound {bound} exceeds the budget"
        );
        let mut rest = exact_dist.clone();
        let mut l1 = 0.0;
        for (b, p) in run.distribution.as_ref().unwrap().iter() {
            l1 += (p - rest.remove(b).unwrap_or(0.0)).abs();
        }
        l1 += rest.values().map(|v| v.abs()).sum::<f64>();
        assert!(
            l1 <= bound,
            "budget {budget}: L1 {l1} above the bound {bound}"
        );
        assert_eq!(
            run.report.visited_assignments + run.report.assignments_skipped,
            exact.report.visited_assignments,
            "budget {budget} lost track of assignments"
        );
        last = Some(run.report.visited_assignments);
    }
    let visited = last.unwrap();
    assert!(
        visited <= exact.report.visited_assignments / 2,
        "budget 1.0 visited {visited} of {} assignments",
        exact.report.visited_assignments
    );
}

/// Unnormalized joint of `tensors` contracted under `budget` (0 = exact),
/// as (outcome words, weight) pairs.
fn joint_under_budget(
    tensors: &[cutkit::FragmentTensor],
    k: usize,
    n: usize,
    budget: f64,
) -> (Vec<(Vec<u64>, f64)>, cutkit::SweepStats) {
    let r = cutkit::Reconstructor::new(tensors, k, n).with_error_budget(budget);
    let (dist, stats) = r.try_joint_with_stats(10_000_000).expect("no faults");
    (dist.iter().map(|(b, p)| (b.to_vec(), p)).collect(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random small cut circuits (k ≤ 4), the realized
    /// `recombine_error_bound` stays within the requested budget and
    /// upper-bounds the true L1 distance between the truncated and the
    /// exact **unnormalized** joint.
    #[test]
    fn truncation_bound_dominates_true_l1(
        ops in proptest::collection::vec((0u8..8, 0..3usize, 0..2usize), 4..14),
        frac in 0.05f64..0.95,
    ) {
        let n = 3;
        let mut c = Circuit::new(n);
        let mut t_count = 0;
        for &(kind, a, boff) in &ops {
            let b = (a + 1 + boff) % n;
            match kind {
                0 => c.h(a),
                1 => c.s(a),
                2 => c.x(a),
                3 => c.cx(a, b),
                4 => c.cz(a, b),
                // Cap the non-Clifford count so k stays ≤ 4.
                _ if t_count < 2 => {
                    t_count += 1;
                    c.t(a)
                }
                _ => c.h(a),
            };
        }
        let sim = SuperSim::new(
            SuperSimConfig::builder().exact(true).build().unwrap(),
        );
        let run = sim.run(&c).unwrap();
        let k = run.report.num_cuts;
        if k == 0 {
            return; // all-Clifford draw: nothing to truncate
        }
        prop_assert!(k <= 4, "strategy produced k = {k}");

        // Scale the budget off the all-skip bound so truncation is
        // partial for (almost) any circuit the strategy produces.
        let total_bound = cutkit::Reconstructor::new(run.tensors(), k, n)
            .with_error_budget(1e18)
            .sweep_stats()
            .skipped_bound;
        if total_bound <= 0.0 {
            return; // fully sparse: nothing the budget could skip
        }
        let budget = total_bound * frac;

        let (exact, exact_stats) = joint_under_budget(run.tensors(), k, n, 0.0);
        prop_assert_eq!(exact_stats.skipped, 0);
        let (truncated, stats) = joint_under_budget(run.tensors(), k, n, budget);
        prop_assert!(
            stats.skipped_bound <= budget * (1.0 + 1e-12),
            "bound {} exceeds budget {}", stats.skipped_bound, budget
        );
        let mut diff: HashMap<Vec<u64>, f64> = exact.into_iter().collect();
        for (b, p) in truncated {
            *diff.entry(b).or_insert(0.0) -= p;
        }
        let l1: f64 = diff.values().map(|d| d.abs()).sum();
        prop_assert!(
            l1 <= stats.skipped_bound * (1.0 + 1e-12) + 1e-12,
            "l1 {} exceeds reported bound {}", l1, stats.skipped_bound
        );

        // The pipeline surfaces the identical bound for the same budget.
        let budgeted = sim
            .executor()
            .run_with(
                &sim.plan(&c).unwrap(),
                ExecParams::from_config(sim.config()).with_error_budget(budget),
            )
            .unwrap();
        prop_assert_eq!(
            budgeted.report.recombine_error_bound.to_bits(),
            stats.skipped_bound.to_bits()
        );
        prop_assert_eq!(budgeted.report.assignments_skipped, stats.skipped);
    }
}
