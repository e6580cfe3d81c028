//! Cross-backend agreement on the paper's workloads: every simulator must
//! produce the same distribution (up to sampling noise) on circuits they
//! all support.

use metrics::{mean_marginal_fidelity, Distribution};
use supersim::{
    ExtStabBackend, MpsBackend, Simulator, StabilizerBackend, StatevectorBackend, SuperSim,
    SuperSimConfig,
};

fn reference(c: &qcir::Circuit) -> Distribution {
    let sv = svsim::StateVec::run(c).expect("reference fits");
    Distribution::from_pairs(c.num_qubits(), sv.distribution(1e-13))
}

#[test]
fn hwea_workload_all_backends() {
    let w = workloads::hwea(8, 3, 1, 5);
    let reference = reference(&w.circuit);
    let shots = 20_000;
    let backends: Vec<Box<dyn Simulator>> = vec![
        Box::new(StatevectorBackend),
        Box::new(MpsBackend::default()),
        Box::new(ExtStabBackend::default()),
        Box::new(SuperSim::new(SuperSimConfig {
            shots,
            ..SuperSimConfig::default()
        })),
    ];
    for b in backends {
        let marg = b.run_marginals(&w.circuit, shots, 7).unwrap();
        let f = mean_marginal_fidelity(&reference.marginals(), &marg);
        assert!(f > 0.995, "{}: marginal fidelity {f}", b.name());
    }
}

#[test]
fn qaoa_workload_all_backends() {
    let w = workloads::qaoa_sk(6, 1, 1, 3);
    let reference = reference(&w.circuit);
    let shots = 20_000;
    let backends: Vec<Box<dyn Simulator>> = vec![
        Box::new(StatevectorBackend),
        Box::new(MpsBackend::default()),
        Box::new(SuperSim::new(SuperSimConfig {
            shots,
            ..SuperSimConfig::default()
        })),
    ];
    for b in backends {
        let d = b.run_distribution(&w.circuit, shots, 11).unwrap();
        let f = reference.hellinger_fidelity(&d);
        assert!(f > 0.98, "{}: fidelity {f}", b.name());
    }
}

#[test]
fn repetition_code_workload() {
    let w = workloads::phase_repetition(workloads::RepetitionConfig {
        data_qubits: 4,
        phase_noise: None,
        t_gates: 1,
        seed: 2,
    });
    let reference = reference(&w.circuit);
    let shots = 20_000;
    let supersim = SuperSim::new(SuperSimConfig {
        shots,
        ..SuperSimConfig::default()
    });
    let d = supersim.run_distribution(&w.circuit, shots, 1).unwrap();
    assert!(
        reference.hellinger_fidelity(&d) > 0.98,
        "supersim fidelity on repetition code"
    );
    // MPS should ace this low-entanglement workload (the Fig. 7 story).
    let mps = MpsBackend::default()
        .run_distribution(&w.circuit, shots, 1)
        .unwrap();
    assert!(reference.hellinger_fidelity(&mps) > 0.99);
}

#[test]
fn clifford_only_circuit_stabilizer_vs_statevector() {
    let c = workloads::random_clifford(8, 8, 17);
    let shots = 30_000;
    let stab = StabilizerBackend.run_distribution(&c, shots, 5).unwrap();
    let reference = reference(&c);
    let f = reference.hellinger_fidelity(&stab);
    assert!(f > 0.98, "stabilizer sampling fidelity {f}");
}

#[test]
fn ghz_support_agreement_across_backends() {
    // GHZ has a two-point support: every backend must keep it sharp.
    let c = workloads::ghz(6);
    let shots = 5000;
    let reference = reference(&c);
    for b in [
        Box::new(StatevectorBackend) as Box<dyn Simulator>,
        Box::new(StabilizerBackend),
        Box::new(MpsBackend::default()),
    ] {
        let d = b.run_distribution(&c, shots, 23).unwrap();
        let mut bits = qcir::Bits::zeros(d.n_bits());
        for (words, p) in d.iter() {
            bits.copy_from_words(words);
            assert!(
                reference.prob(&bits) > 0.0 || p < 0.01,
                "{}: spurious outcome {bits} with p={p}",
                b.name()
            );
        }
    }
}
