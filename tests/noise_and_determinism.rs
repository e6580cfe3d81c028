//! Noisy near-Clifford circuits through the cut pipeline, and determinism
//! guarantees of the seeded API.
//!
//! CI runs this suite as a thread-count matrix: `SUPERSIM_TEST_THREADS`
//! pins the worker-pool size the parallel determinism tests use (`0` or
//! unset = one worker per available core), so the bit-identity guarantee
//! is exercised at 1, 2, and 8 workers regardless of the runner's core
//! count.

use metrics::Distribution;
use qcir::{Bits, Circuit, NoiseChannel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use supersim::{ExecParams, RunResult, SuperSim, SuperSimConfig};

mod oracles;

/// Worker-pool size under test, from `SUPERSIM_TEST_THREADS`.
fn test_threads() -> usize {
    std::env::var("SUPERSIM_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Reference distribution for a noisy circuit: average many statevector
/// noise trajectories.
fn trajectory_reference(c: &Circuit, trajectories: usize, seed: u64) -> Distribution {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = c.num_qubits();
    let mut pairs = Vec::new();
    for _ in 0..trajectories {
        let sv = svsim::StateVec::run_noisy(c, &mut rng).unwrap();
        for (b, p) in sv.distribution(1e-14) {
            pairs.push((b, p / trajectories as f64));
        }
    }
    Distribution::from_pairs(n, pairs)
}

#[test]
fn noisy_clifford_fragments_cut_correctly() {
    // Noise lives in the Clifford part (frame-simulated); the T fragment
    // stays noise-free. The reconstruction must match the trajectory-
    // averaged statevector.
    let mut c = Circuit::new(3);
    c.h(0);
    c.add_noise(NoiseChannel::BitFlip(0.2), &[1]);
    c.cx(0, 1);
    c.add_noise(NoiseChannel::PhaseFlip(0.15), &[0]);
    c.cx(1, 2);
    c.t(2);
    c.h(2);
    let reference = trajectory_reference(&c, 3000, 5);
    let sim = SuperSim::new(SuperSimConfig {
        shots: 30_000,
        seed: 9,
        ..SuperSimConfig::default()
    });
    let result = sim.run(&c).unwrap();
    let dist = result.distribution.as_ref().unwrap();
    let f = reference.hellinger_fidelity(dist);
    assert!(f > 0.995, "noisy cut fidelity {f}");
}

#[test]
fn depolarizing_noise_through_the_pipeline() {
    let mut c = Circuit::new(2);
    c.h(0);
    c.add_noise(NoiseChannel::Depolarize2(0.3), &[0, 1]);
    c.cx(0, 1);
    c.t(1);
    let reference = trajectory_reference(&c, 4000, 11);
    let sim = SuperSim::new(SuperSimConfig {
        shots: 30_000,
        seed: 2,
        ..SuperSimConfig::default()
    });
    let dist = sim.run(&c).unwrap().distribution.unwrap();
    let f = reference.hellinger_fidelity(&dist);
    assert!(f > 0.99, "depolarizing cut fidelity {f}");
}

#[test]
fn identical_seeds_give_identical_results() {
    let w = workloads::hwea(6, 3, 2, 7);
    let cfg = SuperSimConfig {
        shots: 400,
        seed: 1234,
        ..SuperSimConfig::default()
    };
    let a = SuperSim::new(cfg.clone()).run(&w.circuit).unwrap();
    let b = SuperSim::new(cfg).run(&w.circuit).unwrap();
    assert_eq!(a.marginals, b.marginals, "same seed must reproduce exactly");
    let (da, db) = (a.distribution.unwrap(), b.distribution.unwrap());
    for x in 0..64u64 {
        let bits = Bits::from_u64(x, 6);
        assert_eq!(da.prob(&bits), db.prob(&bits));
    }
}

/// At 20 shots some of the circuit's Clifford supports are larger than
/// the budget and are sampled, so the seed shows in the estimates.
#[test]
fn different_seeds_differ_in_sampled_mode() {
    let w = workloads::hwea(6, 3, 1, 7);
    let mk = |seed| SuperSimConfig {
        shots: 20,
        seed,
        mlft: false,
        clifford_snap: false,
        ..SuperSimConfig::default()
    };
    let a = SuperSim::new(mk(1)).run(&w.circuit).unwrap();
    let b = SuperSim::new(mk(2)).run(&w.circuit).unwrap();
    assert!(a.report.enumerated_variants < a.report.num_variants);
    assert_ne!(
        a.marginals, b.marginals,
        "different seeds should perturb low-shot estimates"
    );
}

#[test]
fn parallel_flag_is_deterministic_too() {
    let w = workloads::hwea(6, 3, 2, 3);
    let base = SuperSimConfig {
        shots: 500,
        seed: 77,
        ..SuperSimConfig::default()
    };
    let seq = SuperSim::new(base.clone()).run(&w.circuit).unwrap();
    let par = SuperSim::new(SuperSimConfig {
        parallel: true,
        threads: test_threads(),
        ..base
    })
    .run(&w.circuit)
    .unwrap();
    assert_eq!(
        seq.marginals, par.marginals,
        "thread count must not change results"
    );
}

/// The full sampled pipeline — interned evaluation pool, MLFT, and
/// recombination — is bit-identical between the sequential path and the
/// worker pool at the matrix thread count (`SUPERSIM_TEST_THREADS`):
/// same marginal bits, same joint support and emission order, same
/// per-outcome probability bits, same `mlft_moved` diagnostic.
#[test]
fn full_pipeline_bit_identical_at_matrix_thread_count() {
    let w = workloads::hwea(6, 3, 2, 11);
    let base = SuperSimConfig {
        shots: 600,
        seed: 4242,
        mlft: true,
        ..SuperSimConfig::default()
    };
    let seq = SuperSim::new(base.clone()).run(&w.circuit).unwrap();
    let par = SuperSim::new(SuperSimConfig {
        parallel: true,
        threads: test_threads(),
        ..base
    })
    .run(&w.circuit)
    .unwrap();
    assert!(
        seq.report.mlft_moved.to_bits() == par.report.mlft_moved.to_bits(),
        "mlft_moved drifted under the worker pool"
    );
    for (q, (s, p)) in seq.marginals.iter().zip(&par.marginals).enumerate() {
        assert!(
            s[0].to_bits() == p[0].to_bits() && s[1].to_bits() == p[1].to_bits(),
            "marginal bits differ at qubit {q}"
        );
    }
    let (sd, pd) = (seq.distribution.unwrap(), par.distribution.unwrap());
    assert_eq!(sd.support_len(), pd.support_len());
    for ((sb, sp), (pb, pp)) in sd.iter().zip(pd.iter()) {
        assert_eq!(sb, pb, "joint emission order drifted");
        assert!(sp.to_bits() == pp.to_bits(), "probability bits at {sb:?}");
    }
}

/// Asserts two runs satisfy the determinism contract's bit-identity
/// (marginal bits, joint support/order/probability bits, `mlft_moved` —
/// see [`RunResult::bit_identical_to`]).
fn assert_runs_bit_identical(a: &RunResult, b: &RunResult, label: &str) {
    assert!(a.bit_identical_to(b), "{label}: runs are not bit-identical");
}

/// `run_batch` over distinct circuits is bit-identical to independent
/// sequential `SuperSim::run` calls at the matrix thread count
/// (`SUPERSIM_TEST_THREADS`): the shared cross-circuit pool must not
/// perturb any circuit's RNG streams, fold orders, or diagnostics.
#[test]
fn batch_bit_identical_to_independent_runs_at_matrix_thread_count() {
    let circuits: Vec<Circuit> = vec![
        workloads::hwea(5, 2, 2, 21).circuit,
        workloads::hwea(6, 3, 1, 22).circuit,
        workloads::qaoa_sk(4, 1, 1, 23).circuit,
        workloads::phase_repetition(workloads::RepetitionConfig {
            data_qubits: 3,
            phase_noise: None,
            t_gates: 1,
            seed: 4,
        })
        .circuit,
    ];
    let base = SuperSimConfig {
        shots: 300,
        seed: 1717,
        mlft: true,
        ..SuperSimConfig::default()
    };
    // Reference: independent sequential runs.
    let solo: Vec<RunResult> = circuits
        .iter()
        .map(|c| SuperSim::new(base.clone()).run(c).unwrap())
        .collect();
    let batch = SuperSim::new(SuperSimConfig {
        parallel: true,
        threads: test_threads(),
        ..base
    })
    .run_batch(&circuits);
    assert_eq!(batch.len(), circuits.len());
    for (i, (s, b)) in solo.iter().zip(&batch).enumerate() {
        assert_runs_bit_identical(s, b.as_ref().unwrap(), &format!("circuit {i}"));
    }
}

/// `run_sweep` over (seed, shots) points — one plan, cut once — is
/// bit-identical to independent `SuperSim::run` calls with reconfigured
/// seed/shots at the matrix thread count, and distinct seeds produce
/// distinct (isolated) RNG streams.
#[test]
fn sweep_bit_identical_to_independent_runs_at_matrix_thread_count() {
    // Supports past 250 points: half the variants are sampled at 250 shots.
    let w = workloads::hwea(8, 3, 2, 31);
    let base = SuperSimConfig {
        shots: 250,
        seed: 0,
        mlft: true,
        ..SuperSimConfig::default()
    };
    let points: Vec<ExecParams> = vec![
        ExecParams::seeded(11).with_shots(250),
        ExecParams::seeded(12).with_shots(250),
        ExecParams::seeded(11).with_shots(400),
    ];
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
    let sim = SuperSim::new(SuperSimConfig {
        parallel: true,
        threads: test_threads(),
        ..base
    });
    let plan = sim.plan(&w.circuit).unwrap();
    let swept = sim.executor().run_sweep(&plan, &points);
    assert_eq!(swept.len(), points.len());
    for (i, (s, r)) in solo.iter().zip(&swept).enumerate() {
        assert_runs_bit_identical(s, r.as_ref().unwrap(), &format!("point {i}"));
    }
    // Seed isolation: points 0 and 1 differ only in seed and must not
    // share outcomes.
    assert!(solo[0].report.enumerated_variants < solo[0].report.num_variants);
    assert_ne!(
        solo[0].marginals, solo[1].marginals,
        "distinct seeds must perturb sampled estimates"
    );
}

/// `cutkit::evaluate_variant` — the one place the pipeline reaches the
/// tableau — returns for every Clifford variant of a cut workload exactly
/// what the frozen oracle path computes from the same seed (bit-at-a-time
/// tableau, then the enumerated support when it has no more points than
/// the shots — always in exact mode — or the per-shot sampling loop
/// otherwise): same outcomes, same order, same weight bits, same RNG
/// position afterwards. Both sampled-mode branches are exercised.
#[test]
fn clifford_evaluation_matches_reference_bit_exact() {
    use cutkit::{cut_circuit, enumerate_variants, variant_circuit, CutStrategy};
    use cutkit::{evaluate_variant, EvalMode, EvalOptions};
    use rand::Rng;
    let w = workloads::hwea(6, 3, 2, 19);
    let cut = cut_circuit(&w.circuit, CutStrategy::default()).unwrap();
    let (mut sampled, mut enumerated) = (0, 0);
    for (fi, fragment) in cut.fragments.iter().enumerate() {
        if !fragment.is_clifford {
            continue;
        }
        for (vi, variant) in enumerate_variants(fragment).iter().enumerate() {
            for mode in [
                EvalMode::Sampled { shots: 700 },
                EvalMode::Sampled { shots: 7 },
                EvalMode::Exact,
            ] {
                let seed = 640 + (fi * 1000 + vi) as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let opts = EvalOptions {
                    mode,
                    ..Default::default()
                };
                let got = evaluate_variant(fragment, variant, &opts, &mut rng).unwrap();

                let mut orng = StdRng::seed_from_u64(seed);
                let circuit = variant_circuit(fragment, variant);
                let support = oracles::ReferenceTableauSim::run(&circuit, &mut orng)
                    .unwrap()
                    .support();
                let points = 1usize << support.dim();
                let want: Vec<(Bits, f64)> = match mode {
                    EvalMode::Sampled { shots } if points > shots => {
                        sampled += 1;
                        oracles::sample_counts_frozen(&support, shots, &mut orng)
                            .into_iter()
                            .map(|(b, c)| (b, c as f64 / shots as f64))
                            .collect()
                    }
                    _ => {
                        enumerated += 1;
                        let p = 1.0 / points as f64;
                        let mut rows = Vec::new();
                        support.enumerate_into(&mut Bits::zeros(0), |b| rows.push((b.clone(), p)));
                        rows
                    }
                };
                assert_eq!(got.len(), want.len(), "fragment {fi} variant {vi} {mode:?}");
                for ((gb, gp), (wb, wp)) in got.iter().zip(&want) {
                    assert_eq!(gb, wb, "fragment {fi} variant {vi} {mode:?}: order");
                    assert!(
                        gp.to_bits() == wp.to_bits(),
                        "fragment {fi} variant {vi} {mode:?}: weight bits at {gb}"
                    );
                }
                assert_eq!(
                    rng.random::<u64>(),
                    orng.random::<u64>(),
                    "fragment {fi} variant {vi} {mode:?}: RNG positions diverged"
                );
            }
        }
    }
    assert!(sampled > 0, "no Clifford variant was sampled");
    assert!(enumerated > 0, "workload has no Clifford variant");
}

#[test]
fn frame_and_trajectory_noise_models_agree() {
    // The frame simulator (batched) and statevector trajectories implement
    // the same noise channel semantics.
    let mut c = Circuit::new(2);
    c.h(0);
    c.add_noise(NoiseChannel::Depolarize1(0.4), &[0]);
    c.cx(0, 1);
    c.add_noise(NoiseChannel::YFlip(0.2), &[1]);
    let reference = trajectory_reference(&c, 5000, 3);
    let mut rng = StdRng::seed_from_u64(8);
    let samples = stabsim::FrameSim::sample(&c, 60_000, &mut rng).unwrap();
    let frame_dist = Distribution::from_samples(2, &samples);
    let f = reference.hellinger_fidelity(&frame_dist);
    assert!(f > 0.998, "noise model mismatch: fidelity {f}");
}
