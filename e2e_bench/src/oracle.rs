//! Independent references the pipeline's outputs are checked against.
//!
//! Up to 20 qubits the uncut circuit runs on the exact statevector
//! simulator; wider circuits, which no statevector holds, run uncut on the
//! matrix-product-state sampler at 20 000 shots. Neither path shares code
//! with cutting, fragment evaluation or recombination.

use metrics::{mean_marginal_fidelity, Distribution};
use qcir::Circuit;
use supersim::{MpsBackend, Simulator};

/// Widest circuit checked against exact statevector marginals.
pub const EXACT_MAX_QUBITS: usize = 20;
/// Widest circuit whose joint distribution is checked as well.
pub const JOINT_MAX_QUBITS: usize = 12;
const MPS_SHOTS: usize = 20_000;
const MPS_SEED: u64 = 0x5EED;
/// An operation whose marginal fidelity falls below this has failed.
pub const MIN_MARGINAL_FIDELITY: f64 = 0.99;

pub struct Oracle {
    pub marginals: Vec<[f64; 2]>,
    /// Exact joint distribution, up to [`JOINT_MAX_QUBITS`] qubits.
    pub joint: Option<Distribution>,
}

impl Oracle {
    /// Builds the reference of one circuit.
    ///
    /// # Panics
    ///
    /// Panics if the reference simulator rejects the circuit: the
    /// workloads are chosen so that it does not.
    pub fn build(circuit: &Circuit) -> Oracle {
        let n = circuit.num_qubits();
        if n > EXACT_MAX_QUBITS {
            let marginals = MpsBackend::default()
                .run_marginals(circuit, MPS_SHOTS, MPS_SEED)
                .expect("the MPS reference runs every wide workload circuit");
            return Oracle {
                marginals,
                joint: None,
            };
        }
        let state = svsim::StateVec::run(circuit).expect("the statevector reference fits");
        let probabilities = state.probabilities();
        let marginals = (0..n)
            .map(|q| {
                let one: f64 = probabilities
                    .iter()
                    .enumerate()
                    .filter(|(index, _)| index >> q & 1 == 1)
                    .map(|(_, p)| p)
                    .sum();
                [1.0 - one, one]
            })
            .collect();
        let joint =
            (n <= JOINT_MAX_QUBITS).then(|| Distribution::from_pairs(n, state.distribution(1e-14)));
        Oracle { marginals, joint }
    }

    pub fn marginal_fidelity(&self, marginals: &[[f64; 2]]) -> f64 {
        mean_marginal_fidelity(marginals, &self.marginals)
    }

    /// Hellinger fidelity of a returned joint distribution against the
    /// exact one; `None` where no joint reference exists.
    pub fn joint_fidelity(&self, joint: &Distribution) -> Option<f64> {
        self.joint
            .as_ref()
            .map(|exact| exact.hellinger_fidelity(joint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statevector_marginals_follow_qubit_order() {
        let mut c = Circuit::new(3);
        c.x(0).h(2);
        let r = Oracle::build(&c);
        assert!((r.marginals[0][1] - 1.0).abs() < 1e-12);
        assert!((r.marginals[1][0] - 1.0).abs() < 1e-12);
        assert!((r.marginals[2][0] - 0.5).abs() < 1e-12);
        let joint = r.joint.as_ref().unwrap();
        assert_eq!(joint.marginals().len(), 3);
        assert!((joint.marginal(0)[1] - 1.0).abs() < 1e-12);
        assert!((r.joint_fidelity(joint).unwrap() - 1.0).abs() < 1e-12);
        assert!((r.marginal_fidelity(&r.marginals) - 1.0).abs() < 1e-12);
    }
}
