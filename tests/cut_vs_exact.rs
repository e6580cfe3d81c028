//! The end-to-end correctness theorem of the paper: cutting, fragment
//! evaluation, and recombination reproduce the uncut circuit's output
//! distribution — exactly in exact mode, statistically in sampled mode.

use qcir::{Bits, Circuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use supersim::{SuperSim, SuperSimConfig};
use svsim::StateVec;

/// Random near-Clifford circuit: Clifford body + up to `max_t` T gates.
fn random_near_clifford(n: usize, ops: usize, max_t: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    let mut t_left = max_t;
    for _ in 0..ops {
        match rng.random_range(0..8) {
            0 => c.h(rng.random_range(0..n)),
            1 => c.s(rng.random_range(0..n)),
            2 => c.x(rng.random_range(0..n)),
            3 => c.rz(
                rng.random_range(0..n),
                std::f64::consts::FRAC_PI_2 * rng.random_range(0..4) as f64,
            ),
            4 if t_left > 0 => {
                t_left -= 1;
                c.t(rng.random_range(0..n))
            }
            5 => {
                let a = rng.random_range(0..n);
                let b = (a + 1 + rng.random_range(0..n - 1)) % n;
                c.cz(a, b)
            }
            _ => {
                let a = rng.random_range(0..n);
                let b = (a + 1 + rng.random_range(0..n - 1)) % n;
                c.cx(a, b)
            }
        };
    }
    c
}

fn exact_supersim() -> SuperSim {
    SuperSim::new(SuperSimConfig {
        exact: true,
        ..SuperSimConfig::default()
    })
}

#[test]
fn exact_reconstruction_matches_statevector_on_random_circuits() {
    for seed in 0..12u64 {
        let n = 3 + (seed % 3) as usize;
        let c = random_near_clifford(n, 20, 2, seed);
        if c.non_clifford_count() == 0 {
            continue;
        }
        let result = exact_supersim().run(&c).unwrap();
        let sv = StateVec::run(&c).unwrap();
        let dist = result.distribution.as_ref().expect("joint available");
        for x in 0..1usize << n {
            let b = Bits::from_u64(x as u64, n);
            let got = dist.prob(&b);
            let expect = sv.probability_of_index(x);
            assert!(
                (got - expect).abs() < 1e-8,
                "seed {seed}: p({b}) = {got} vs {expect}\ncircuit: {c}"
            );
        }
    }
}

#[test]
fn strong_simulation_matches_statevector() {
    for seed in 20..26u64 {
        let c = random_near_clifford(4, 18, 2, seed);
        let result = exact_supersim().run(&c).unwrap();
        let sv = StateVec::run(&c).unwrap();
        for x in [0usize, 3, 7, 11, 15] {
            let b = Bits::from_u64(x as u64, 4);
            assert!(
                (result.probability_of(&b) - sv.probability_of_index(x)).abs() < 1e-8,
                "seed {seed} at {b}"
            );
        }
    }
}

#[test]
fn marginal_and_joint_paths_agree() {
    for seed in 30..36u64 {
        let c = random_near_clifford(5, 24, 2, seed);
        let result = exact_supersim().run(&c).unwrap();
        let dist = result.distribution.as_ref().expect("joint available");
        for q in 0..5 {
            let jm = dist.marginal(q);
            assert!(
                (jm[0] - result.marginals[q][0]).abs() < 1e-8,
                "seed {seed} qubit {q}: joint {jm:?} vs marginal path {:?}",
                result.marginals[q]
            );
        }
    }
}

#[test]
fn sampled_reconstruction_converges_with_shots() {
    let c = random_near_clifford(4, 16, 1, 99);
    let sv = StateVec::run(&c).unwrap();
    let reference = metrics::Distribution::from_pairs(4, sv.distribution(1e-13));
    let mut last = 0.0;
    for (shots, expect_at_least) in [(200usize, 0.80), (2000, 0.95), (20000, 0.99)] {
        let cfg = SuperSimConfig {
            shots,
            seed: 42,
            ..SuperSimConfig::default()
        };
        let result = SuperSim::new(cfg).run(&c).unwrap();
        let dist = result.distribution.as_ref().unwrap();
        let f = reference.hellinger_fidelity(dist);
        assert!(f > expect_at_least, "{shots} shots gave fidelity {f}");
        assert!(f >= last - 0.02, "fidelity should not degrade with shots");
        last = f;
    }
}

#[test]
fn reconstruction_total_mass_is_one_in_exact_mode() {
    for seed in 50..56u64 {
        let c = random_near_clifford(4, 20, 3, seed);
        let result = exact_supersim().run(&c).unwrap();
        if let Some(d) = &result.distribution {
            assert!(
                (d.total_mass() - 1.0).abs() < 1e-8,
                "seed {seed}: mass {}",
                d.total_mass()
            );
        }
    }
}

#[test]
fn every_clifford_optimization_combination_is_consistent() {
    let c = random_near_clifford(4, 18, 2, 123);
    let sv = StateVec::run(&c).unwrap();
    for snap in [false, true] {
        let cfg = SuperSimConfig {
            exact: true,
            clifford_snap: snap,
            ..SuperSimConfig::default()
        };
        let result = SuperSim::new(cfg).run(&c).unwrap();
        let dist = result.distribution.as_ref().unwrap();
        for x in 0..16usize {
            let b = Bits::from_u64(x as u64, 4);
            assert!(
                (dist.prob(&b) - sv.probability_of_index(x)).abs() < 1e-8,
                "snap={snap} at {b}"
            );
        }
    }
}

/// Sampled mode at the default 5000 shots on seeded random Clifford+T
/// circuits (≤ 8 qubits, ≤ 3 `T`): every fragment support fits the shot
/// budget, so every variant is enumerated, and the marginals and the joint
/// equal the uncut statevector's to rounding — bit-identically at 1, 2
/// and 8 threads.
#[test]
fn sampled_mode_is_exact_when_every_support_fits_the_shots() {
    let config = |threads: usize| {
        let builder = SuperSimConfig::builder().seed(11);
        match threads {
            1 => builder,
            t => builder.parallel(true).threads(t),
        }
        .build()
        .unwrap()
    };
    for seed in 0..10u64 {
        let n = 2 + (seed % 7) as usize;
        let mut c = workloads::random_clifford(n, n, seed);
        let mut rng = StdRng::seed_from_u64(100 + seed);
        workloads::inject_t_gates(&mut c, 1 + (seed % 3) as usize, &mut rng);

        let result = SuperSim::new(config(1)).run(&c).unwrap();
        let report = &result.report;
        assert!(report.num_cuts > 0, "seed {seed}: nothing was cut");
        assert_eq!(
            report.enumerated_variants, report.num_variants,
            "seed {seed}: a variant was sampled"
        );
        let sv = StateVec::run(&c).unwrap();
        let dist = result.distribution.as_ref().expect("joint available");
        let mut marginals = vec![[0.0; 2]; n];
        for x in 0..1usize << n {
            let p = sv.probability_of_index(x);
            let b = Bits::from_u64(x as u64, n);
            assert!(
                (dist.prob(&b) - p).abs() < 1e-12,
                "seed {seed}: p({b}) = {} vs {p}",
                dist.prob(&b)
            );
            for (q, m) in marginals.iter_mut().enumerate() {
                m[usize::from(b.get(q))] += p;
            }
        }
        for (q, (got, want)) in result.marginals.iter().zip(&marginals).enumerate() {
            assert!(
                (got[0] - want[0]).abs() < 1e-12 && (got[1] - want[1]).abs() < 1e-12,
                "seed {seed}, qubit {q}: {got:?} vs {want:?}"
            );
        }
        for threads in [2, 8] {
            let pooled = SuperSim::new(config(threads)).run(&c).unwrap();
            assert!(
                pooled.bit_identical_to(&result),
                "seed {seed}: {threads} threads changed the result"
            );
        }
    }
}

#[test]
fn manual_cuts_reconstruct_exactly_even_without_non_cliffords() {
    // Peng-style generic cutting: chop a GHZ ladder in the middle and
    // reconstruct — no non-Clifford gate involved at all.
    let mut c = Circuit::new(5);
    c.h(0);
    for q in 1..5 {
        c.cx(q - 1, q);
    }
    c.s(4).z(0);
    let cfg = SuperSimConfig {
        exact: true,
        cut_strategy: supersim::CutStrategy::Manual(vec![supersim::CutPoint {
            qubit: 2,
            after_op: 2,
        }]),
        ..SuperSimConfig::default()
    };
    let result = SuperSim::new(cfg).run(&c).unwrap();
    assert_eq!(result.report.num_cuts, 1);
    assert_eq!(result.report.num_fragments, 2);
    let sv = StateVec::run(&c).unwrap();
    let dist = result.distribution.as_ref().unwrap();
    for x in 0..32usize {
        let b = Bits::from_u64(x as u64, 5);
        assert!(
            (dist.prob(&b) - sv.probability_of_index(x)).abs() < 1e-9,
            "manual cut mismatch at {b}"
        );
    }
}

#[test]
fn manual_cut_through_a_t_gate_wire() {
    // Manual cuts compose with non-Clifford content: cut right after the
    // T gate's wire segment and reconstruct.
    let mut c = Circuit::new(2);
    c.h(0).t(0).cx(0, 1).h(1);
    let cfg = SuperSimConfig {
        exact: true,
        cut_strategy: supersim::CutStrategy::Manual(vec![supersim::CutPoint {
            qubit: 0,
            after_op: 1,
        }]),
        ..SuperSimConfig::default()
    };
    let result = SuperSim::new(cfg).run(&c).unwrap();
    let sv = StateVec::run(&c).unwrap();
    let dist = result.distribution.as_ref().unwrap();
    for x in 0..4usize {
        let b = Bits::from_u64(x as u64, 2);
        assert!((dist.prob(&b) - sv.probability_of_index(x)).abs() < 1e-9);
    }
}

#[test]
fn z_string_expectations_match_statevector() {
    for seed in 70..76u64 {
        let c = random_near_clifford(4, 18, 2, seed);
        let result = exact_supersim().run(&c).unwrap();
        let sv = StateVec::run(&c).unwrap();
        let sv_dist = metrics::Distribution::from_pairs(4, sv.distribution(1e-13));
        for subset in [vec![0], vec![1, 2], vec![0, 3], vec![0, 1, 2, 3]] {
            let got = result.expectation_z(&subset);
            let expect = sv_dist.expectation_z(&subset);
            assert!(
                (got - expect).abs() < 1e-8,
                "seed {seed} <Z{subset:?}>: {got} vs {expect}"
            );
        }
    }
}

#[test]
fn z_string_expectation_scales_to_wide_circuits() {
    // 60-qubit near-Clifford circuit: joint distribution is unavailable at
    // tiny support limits, but Z observables still reconstruct.
    let w = workloads::hwea(60, 3, 1, 5);
    let cfg = SuperSimConfig {
        shots: 4000,
        seed: 2,
        joint_support_limit: 0,
        ..SuperSimConfig::default()
    };
    let result = SuperSim::new(cfg).run(&w.circuit).unwrap();
    assert!(result.distribution.is_none());
    let z01 = result.expectation_z(&[0, 1]);
    assert!((-1.0..=1.0).contains(&z01));
    // Consistency with the marginal-based single-qubit value.
    let z0 = result.expectation_z(&[0]);
    let from_marginal = result.marginals[0][0] - result.marginals[0][1];
    assert!(
        (z0 - from_marginal).abs() < 1e-6,
        "<Z0> paths disagree: {z0} vs {from_marginal}"
    );
}

#[test]
fn reconstruction_sampling_roundtrip() {
    use rand::SeedableRng;
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).t(1).cx(1, 2);
    let result = exact_supersim().run(&c).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let samples = result.sample(30_000, &mut rng).expect("joint available");
    let empirical = metrics::Distribution::from_samples(3, &samples);
    let f = result
        .distribution
        .as_ref()
        .unwrap()
        .hellinger_fidelity(&empirical);
    assert!(f > 0.995, "sampling roundtrip fidelity {f}");
}

#[test]
fn deep_t_chains_respect_cut_budget_by_merging() {
    // Many T gates on one wire force merges; result must stay correct.
    let mut c = Circuit::new(2);
    c.h(0);
    for _ in 0..4 {
        c.t(0).h(0);
    }
    c.cx(0, 1);
    let cfg = SuperSimConfig {
        exact: true,
        cut_strategy: supersim::CutStrategy::IsolateNonClifford { max_cuts: 4 },
        ..SuperSimConfig::default()
    };
    let result = SuperSim::new(cfg).run(&c).unwrap();
    assert!(result.report.num_cuts <= 4);
    let sv = StateVec::run(&c).unwrap();
    let dist = result.distribution.as_ref().unwrap();
    for x in 0..4usize {
        let b = Bits::from_u64(x as u64, 2);
        assert!((dist.prob(&b) - sv.probability_of_index(x)).abs() < 1e-8);
    }
}
