//! Batch-first pipeline integration: `run_batch` / `run_sweep` against
//! independent sequential runs, at explicit pool sizes (1, 2, 8).
//!
//! The determinism contract under test: batch and sweep output is
//! **bit-identical** to independent `SuperSim::run` calls — same marginal
//! float bits, same joint support and emission order, same probability
//! bits, same `mlft_moved` — for every worker count, with RNG streams
//! isolated per circuit/point. (The CI thread-count matrix variant lives
//! in `noise_and_determinism.rs`; this suite pins the counts explicitly.)

use qcir::{Bits, Circuit};
use supersim::{
    AdmissionPolicy, ConfigError, ExecParams, RunResult, SuperSim, SuperSimConfig, SuperSimError,
};

fn assert_bit_identical(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.report.num_variants, b.report.num_variants, "{label}");
    assert!(a.bit_identical_to(b), "{label}: runs are not bit-identical");
}

fn mixed_circuits() -> Vec<Circuit> {
    // Small cut counts only (k ≤ ~4): these circuits run through full
    // batches at several pool sizes in debug builds, so recombination
    // must stay far from the 4^k blow-up.
    let mut deep = Circuit::new(2);
    deep.h(0).t(0).cx(0, 1).h(1).t(1).h(0);
    vec![
        workloads::hwea(5, 2, 1, 41).circuit,
        deep,
        workloads::qaoa_sk(4, 1, 1, 43).circuit,
        workloads::ghz(6), // pure Clifford: no cuts, single fragment
        workloads::hwea(4, 1, 2, 44).circuit,
    ]
}

/// Sampled batch with MLFT, 1/2/8 workers, vs independent sequential runs.
#[test]
fn sampled_batch_bit_identical_at_1_2_8_threads() {
    let circuits = mixed_circuits();
    let base = SuperSimConfig {
        shots: 220,
        seed: 2024,
        mlft: true,
        ..SuperSimConfig::default()
    };
    let solo: Vec<RunResult> = circuits
        .iter()
        .map(|c| SuperSim::new(base.clone()).run(c).unwrap())
        .collect();
    for threads in [1usize, 2, 8] {
        let batch = SuperSim::new(SuperSimConfig {
            parallel: true,
            threads,
            ..base.clone()
        })
        .run_batch(&circuits);
        for (i, (s, b)) in solo.iter().zip(&batch).enumerate() {
            assert_bit_identical(
                s,
                b.as_ref().unwrap(),
                &format!("circuit {i} at {threads} threads"),
            );
        }
    }
    // `parallel: false` batches take the same scheduler with one worker.
    let seq_batch = SuperSim::new(base).run_batch(&circuits);
    for (i, (s, b)) in solo.iter().zip(&seq_batch).enumerate() {
        assert_bit_identical(s, b.as_ref().unwrap(), &format!("circuit {i} sequential"));
    }
}

/// A plan of many evaluation chunks (472 variants, 30 chunks) folds its
/// chunks as they land: in order on one worker, out of order on eight —
/// always into the same bits, next to a sibling whose chunks interleave
/// with its own on the shared queue.
#[test]
fn many_chunk_plan_folds_identically_at_1_2_8_threads() {
    let circuits = vec![
        workloads::hwea(8, 5, 3, 1).circuit,
        workloads::hwea(5, 2, 1, 41).circuit,
    ];
    let base = SuperSimConfig {
        shots: 60,
        seed: 77,
        mlft: true,
        ..SuperSimConfig::default()
    };
    let solo: Vec<RunResult> = circuits
        .iter()
        .map(|c| SuperSim::new(base.clone()).run(c).unwrap())
        .collect();
    assert_eq!(solo[0].report.num_variants, 472);
    for threads in [1usize, 2, 8] {
        let batch = SuperSim::new(SuperSimConfig {
            parallel: true,
            threads,
            ..base.clone()
        })
        .run_batch(&circuits);
        for (i, (s, b)) in solo.iter().zip(&batch).enumerate() {
            assert_bit_identical(
                s,
                b.as_ref().unwrap(),
                &format!("circuit {i} at {threads} threads"),
            );
        }
    }
}

/// Exact-mode batch (no MLFT stage — evaluation feeds recombination
/// directly) stays bit-identical across pool sizes.
#[test]
fn exact_batch_bit_identical_at_1_2_8_threads() {
    let circuits = mixed_circuits();
    let base = SuperSimConfig {
        exact: true,
        ..SuperSimConfig::default()
    };
    let solo: Vec<RunResult> = circuits
        .iter()
        .map(|c| SuperSim::new(base.clone()).run(c).unwrap())
        .collect();
    for threads in [1usize, 2, 8] {
        let batch = SuperSim::new(SuperSimConfig {
            parallel: true,
            threads,
            ..base.clone()
        })
        .run_batch(&circuits);
        for (i, (s, b)) in solo.iter().zip(&batch).enumerate() {
            assert_bit_identical(
                s,
                b.as_ref().unwrap(),
                &format!("exact circuit {i} at {threads} threads"),
            );
        }
    }
}

/// RNG stream isolation in batches: duplicating a circuit in a batch
/// gives every copy the identical (config-seeded) result, and batch
/// results never depend on which other circuits share the pool.
#[test]
fn batch_rng_streams_are_isolated_per_circuit() {
    let a = workloads::hwea(5, 2, 1, 51).circuit;
    let b = workloads::hwea(5, 2, 1, 52).circuit;
    let cfg = SuperSimConfig {
        shots: 180,
        seed: 7,
        parallel: true,
        threads: 4,
        ..SuperSimConfig::default()
    };
    let sim = SuperSim::new(cfg);
    let alone = sim.run_batch(std::slice::from_ref(&a));
    let together = sim.run_batch(&[a.clone(), b.clone(), a.clone()]);
    assert_bit_identical(
        alone[0].as_ref().unwrap(),
        together[0].as_ref().unwrap(),
        "batch composition must not perturb circuit a",
    );
    assert_bit_identical(
        together[0].as_ref().unwrap(),
        together[2].as_ref().unwrap(),
        "duplicate circuits share the config seed",
    );
    // ...but a different circuit under the same seed still differs.
    assert_ne!(
        together[0].as_ref().unwrap().marginals,
        together[1].as_ref().unwrap().marginals,
    );
}

/// Sweep over seeds and shot budgets, 1/2/8 workers, vs reconfigured
/// independent runs; the plan builds once and replays unchanged.
#[test]
fn sweep_bit_identical_at_1_2_8_threads() {
    let w = workloads::hwea(5, 2, 2, 61);
    let base = SuperSimConfig {
        shots: 200,
        seed: 0,
        ..SuperSimConfig::default()
    };
    let points: Vec<ExecParams> = (0..5)
        .map(|i| ExecParams::seeded(900 + i as u64).with_shots(150 + 50 * (i % 3)))
        .collect();
    let solo: Vec<RunResult> = points
        .iter()
        .map(|p| {
            SuperSim::new(SuperSimConfig {
                seed: p.seed,
                shots: p.shots,
                ..base.clone()
            })
            .run(&w.circuit)
            .unwrap()
        })
        .collect();
    for threads in [1usize, 2, 8] {
        let sim = SuperSim::new(SuperSimConfig {
            parallel: true,
            threads,
            ..base.clone()
        });
        let plan = sim.plan(&w.circuit).unwrap();
        let swept = sim.executor().run_sweep(&plan, &points);
        for (i, (s, r)) in solo.iter().zip(&swept).enumerate() {
            assert_bit_identical(
                s,
                r.as_ref().unwrap(),
                &format!("sweep point {i} at {threads} threads"),
            );
        }
    }
}

/// Follow-up queries on batch results (strong simulation, Z observables)
/// match the standalone runs' answers.
#[test]
fn batch_results_answer_followup_queries() {
    let c = workloads::hwea(4, 2, 1, 71).circuit;
    let cfg = SuperSimConfig {
        shots: 260,
        seed: 5,
        parallel: true,
        threads: 3,
        ..SuperSimConfig::default()
    };
    let sim = SuperSim::new(cfg.clone());
    let solo = SuperSim::new(cfg).run(&c).unwrap();
    let batch = sim.run_batch(std::slice::from_ref(&c));
    let br = batch[0].as_ref().unwrap();
    for x in 0..16u64 {
        let b = Bits::from_u64(x, 4);
        assert!(
            solo.probability_of(&b) == br.probability_of(&b),
            "probability_of at {b}"
        );
    }
    assert!(solo.expectation_z(&[0, 2]) == br.expectation_z(&[0, 2]));
}

/// Degenerate batches: empty input and a single circuit.
#[test]
fn degenerate_batches() {
    let sim = SuperSim::new(SuperSimConfig {
        parallel: true,
        threads: 2,
        exact: true,
        ..SuperSimConfig::default()
    });
    assert!(sim.run_batch(&[]).is_empty());
    let c = workloads::ghz(3);
    let one = sim.run_batch(std::slice::from_ref(&c));
    assert_eq!(one.len(), 1);
    let dist = one[0].as_ref().unwrap().distribution.as_ref().unwrap();
    assert!((dist.prob(&Bits::from_u64(0, 3)) - 0.5).abs() < 1e-9);
}

/// Zero shots in sampled mode is refused up front with a typed error on
/// every entry point — not an MLFT normalization failure deep in the run,
/// and not all-zero "marginals" with MLFT off. Exact mode ignores the
/// shot budget and stays valid; a zero-shot sweep point leaves its
/// siblings bit-identical to independent runs.
#[test]
fn zero_shots_is_a_typed_error_up_front() {
    let zero_shots =
        |e: &SuperSimError| matches!(e.root(), SuperSimError::Config(ConfigError::ZeroShots));
    for mlft in [true, false] {
        assert_eq!(
            SuperSimConfig::builder().shots(0).mlft(mlft).build().err(),
            Some(ConfigError::ZeroShots)
        );
    }
    let exact = SuperSimConfig::builder()
        .shots(0)
        .exact(true)
        .build()
        .expect("exact mode ignores the shot budget");
    let circuits = mixed_circuits();
    let run = SuperSim::new(exact).run(&circuits[1]).unwrap();
    for m in &run.marginals {
        assert!((m[0] + m[1] - 1.0).abs() < 1e-9, "exact marginal {m:?}");
    }

    // A struct literal bypasses the builder; the run catches it.
    for mlft in [true, false] {
        let sim = SuperSim::new(SuperSimConfig {
            shots: 0,
            mlft,
            ..SuperSimConfig::default()
        });
        let err = sim.run(&circuits[1]).unwrap_err();
        assert!(zero_shots(&err), "run, mlft {mlft}: {err}");
        for (i, r) in sim.run_batch(&circuits).iter().enumerate() {
            let err = r.as_ref().unwrap_err();
            assert!(matches!(err, SuperSimError::Job { job, .. } if *job == i));
            assert!(zero_shots(err), "batch member {i}, mlft {mlft}: {err}");
        }
    }

    let base = SuperSimConfig::builder()
        .shots(150)
        .seed(5)
        .build()
        .unwrap();
    let sim = SuperSim::new(base.clone());
    let plan = sim.plan(&circuits[0]).unwrap();
    let err = sim
        .executor()
        .run_with(&plan, ExecParams::seeded(5).with_shots(0))
        .unwrap_err();
    assert!(zero_shots(&err), "run_with: {err}");

    let points = [
        ExecParams::seeded(5).with_shots(150),
        ExecParams::seeded(6).with_shots(0),
        ExecParams::seeded(7).with_shots(150),
    ];
    let sweep = sim.executor().run_sweep(&plan, &points);
    assert!(zero_shots(sweep[1].as_ref().unwrap_err()));
    for i in [0usize, 2] {
        let solo = SuperSim::new(
            base.clone()
                .into_builder()
                .seed(points[i].seed)
                .build()
                .unwrap(),
        )
        .run(&circuits[0])
        .unwrap();
        assert_bit_identical(&solo, sweep[i].as_ref().unwrap(), &format!("sibling {i}"));
    }
}

/// An admission-rejected job re-run alone through `run_with` at an error
/// budget is admitted (admission judges the budget-discounted cost) and is
/// bit-identical to a direct run configured at that budget, at 1, 2 and 8
/// threads — the contract a caller's load-shedding loop relies on.
#[test]
fn rejected_job_rerun_at_an_error_budget_matches_a_direct_budgeted_run() {
    let circuits = mixed_circuits();
    let base = SuperSimConfig::builder()
        .shots(180)
        .seed(2026)
        .build()
        .unwrap();
    let probe = SuperSim::new(base.clone());
    let costs: Vec<u64> = circuits
        .iter()
        .map(|c| probe.plan(c).unwrap().cost().sweep_assignments)
        .collect();
    let max_sweep = *costs.iter().max().unwrap();
    assert!(max_sweep > 1, "need a cut circuit to exercise rejection");
    let oversized = costs.iter().position(|&c| c == max_sweep).unwrap();
    let rung = 0.5;
    let direct = SuperSim::new(
        base.clone()
            .into_builder()
            .error_budget(rung)
            .build()
            .unwrap(),
    )
    .run(&circuits[oversized])
    .unwrap();
    for threads in [1usize, 2, 8] {
        let limited = SuperSim::new(
            base.clone()
                .into_builder()
                .parallel(true)
                .threads(threads)
                .admission(AdmissionPolicy {
                    max_sweep_assignments: Some(max_sweep - 1),
                    ..AdmissionPolicy::default()
                })
                .build()
                .unwrap(),
        );
        let batch = limited.run_batch(&circuits);
        let err = batch[oversized].as_ref().unwrap_err();
        assert!(
            matches!(err, SuperSimError::Job { job, .. } if *job == oversized),
            "{err}"
        );
        assert!(matches!(err.root(), SuperSimError::Rejected(_)), "{err}");
        let plan = limited.plan(&circuits[oversized]).unwrap();
        let rescued = limited
            .executor()
            .run_with(
                &plan,
                ExecParams::from_config(limited.config()).with_error_budget(rung),
            )
            .unwrap();
        assert!(rescued.report.recombine_error_bound <= rung);
        assert_bit_identical(
            &direct,
            &rescued,
            &format!("rescued job {oversized} at {threads} threads"),
        );
    }
}
