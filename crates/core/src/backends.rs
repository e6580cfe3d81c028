//! A uniform sampler interface over every simulator backend.
//!
//! The paper's evaluation (§VI-A) uses all simulators "as samplers, using
//! 5000 shots to build output distributions". The [`Simulator`] trait
//! captures that protocol so the benchmark harness and examples can compare
//! backends uniformly:
//!
//! * [`StatevectorBackend`] — the exact dense simulator (paper's "SV");
//! * [`StabilizerBackend`] — Clifford circuits only (paper's Stim baseline);
//! * [`ExtStabBackend`] — Clifford+T via stabilizer decompositions
//!   (paper's "Qiskit extended stabilizer");
//! * [`MpsBackend`] — matrix product states (paper's "Qiskit MPS");
//! * [`SuperSim`] — Clifford-based circuit cutting.

use crate::{SuperSim, SuperSimError};
use metrics::Distribution;
use mpssim::{MpsConfig, MpsState};
use qcir::Circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Error from a [`Simulator`] backend.
#[derive(Debug, Clone)]
pub enum BackendError {
    /// The backend cannot simulate this circuit (wrong gate class, noise,
    /// or size limits).
    Unsupported(String),
    /// The circuit exceeds the backend's resource limits.
    TooLarge(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Unsupported(s) => write!(f, "unsupported: {s}"),
            BackendError::TooLarge(s) => write!(f, "too large: {s}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A shot-based quantum circuit sampler.
pub trait Simulator {
    /// Human-readable backend name (used in benchmark tables).
    fn name(&self) -> String;

    /// Builds an empirical output distribution from `shots` samples.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] when the backend cannot simulate the
    /// circuit.
    fn run_distribution(
        &self,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Distribution, BackendError>;

    /// Single-qubit marginals of the sampled distribution.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] when the backend cannot simulate the
    /// circuit.
    fn run_marginals(
        &self,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<[f64; 2]>, BackendError> {
        Ok(self.run_distribution(circuit, shots, seed)?.marginals())
    }
}

/// The exact dense statevector sampler (the paper's "SV simulator").
#[derive(Clone, Copy, Debug, Default)]
pub struct StatevectorBackend;

impl Simulator for StatevectorBackend {
    fn name(&self) -> String {
        "SV simulator".into()
    }

    fn run_distribution(
        &self,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Distribution, BackendError> {
        let sv =
            svsim::StateVec::run(circuit).map_err(|e| BackendError::TooLarge(e.to_string()))?;
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = sv.sample(shots, &mut rng);
        Ok(Distribution::from_samples(circuit.num_qubits(), &samples))
    }
}

/// The Clifford-only tableau sampler (the paper's Stim baseline, Fig. 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct StabilizerBackend;

impl Simulator for StabilizerBackend {
    fn name(&self) -> String {
        "Stabilizer (Stim-like)".into()
    }

    fn run_distribution(
        &self,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Distribution, BackendError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = if circuit.has_noise() {
            stabsim::FrameSim::sample(circuit, shots, &mut rng)
                .map_err(|e| BackendError::Unsupported(e.to_string()))?
        } else {
            stabsim::TableauSim::run(circuit, &mut rng)
                .map_err(|e| BackendError::Unsupported(e.to_string()))?
                .sample_all(shots, &mut rng)
        };
        Ok(Distribution::from_samples(circuit.num_qubits(), &samples))
    }
}

/// The extended stabilizer sampler (paper's "Qiskit extended stabilizer").
#[derive(Clone, Copy, Debug)]
pub struct ExtStabBackend {
    /// Cap on the stabilizer decomposition rank (`2^t` for `t` T gates).
    pub rank_cap: usize,
    /// Metropolis steps between recorded samples.
    pub mixing: usize,
}

impl Default for ExtStabBackend {
    fn default() -> Self {
        ExtStabBackend {
            rank_cap: 1 << 16,
            mixing: 16,
        }
    }
}

impl Simulator for ExtStabBackend {
    fn name(&self) -> String {
        "Extended stabilizer".into()
    }

    fn run_distribution(
        &self,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Distribution, BackendError> {
        let sim = extstab::StabDecomp::run(circuit, self.rank_cap).map_err(|e| match e {
            extstab::ExtStabError::RankExceeded { .. } => BackendError::TooLarge(e.to_string()),
            extstab::ExtStabError::Unsupported(_) => BackendError::Unsupported(e.to_string()),
        })?;
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = sim.sample_metropolis(shots, self.mixing, &mut rng);
        Ok(Distribution::from_samples(circuit.num_qubits(), &samples))
    }
}

/// The matrix-product-state sampler (paper's "Qiskit MPS").
#[derive(Clone, Copy, Debug, Default)]
pub struct MpsBackend {
    /// MPS truncation configuration (default: exact, unbounded bond).
    pub config: MpsConfig,
}

impl Simulator for MpsBackend {
    fn name(&self) -> String {
        "Qiskit-style MPS".into()
    }

    fn run_distribution(
        &self,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
    ) -> Result<Distribution, BackendError> {
        let mps = MpsState::run(circuit, &self.config)
            .map_err(|e| BackendError::Unsupported(e.to_string()))?;
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = mps.sample(shots, &mut rng);
        Ok(Distribution::from_samples(circuit.num_qubits(), &samples))
    }
}

impl Simulator for SuperSim {
    fn name(&self) -> String {
        "SuperSim Clifford cut".into()
    }

    fn run_distribution(
        &self,
        circuit: &Circuit,
        _shots: usize,
        seed: u64,
    ) -> Result<Distribution, BackendError> {
        let mut cfg = self.config().clone();
        cfg.seed = seed;
        let result = SuperSim::new(cfg).run(circuit).map_err(|e| match e {
            SuperSimError::Cut(_) => BackendError::Unsupported(e.to_string()),
            SuperSimError::Eval(_) | SuperSimError::Rejected(_) => {
                BackendError::TooLarge(e.to_string())
            }
            _ => BackendError::Unsupported(e.to_string()),
        })?;
        result.distribution.ok_or_else(|| {
            BackendError::TooLarge("joint distribution support too large; use run_marginals".into())
        })
    }

    fn run_marginals(
        &self,
        circuit: &Circuit,
        _shots: usize,
        seed: u64,
    ) -> Result<Vec<[f64; 2]>, BackendError> {
        let mut cfg = self.config().clone();
        cfg.seed = seed;
        let result = SuperSim::new(cfg).run(circuit).map_err(|e| match e {
            SuperSimError::Cut(_) => BackendError::Unsupported(e.to_string()),
            SuperSimError::Eval(_) | SuperSimError::Rejected(_) => {
                BackendError::TooLarge(e.to_string())
            }
            _ => BackendError::Unsupported(e.to_string()),
        })?;
        Ok(result.marginals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuperSimConfig;

    fn near_clifford_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).h(2);
        c
    }

    #[test]
    fn all_backends_agree_on_near_clifford_circuit() {
        let c = near_clifford_circuit();
        let shots = 30_000;
        let reference = StatevectorBackend
            .run_distribution(&c, shots, 1)
            .expect("sv runs");
        let backends: Vec<Box<dyn Simulator>> = vec![
            Box::new(ExtStabBackend::default()),
            Box::new(MpsBackend::default()),
            Box::new(SuperSim::new(SuperSimConfig {
                shots,
                seed: 1,
                ..SuperSimConfig::default()
            })),
        ];
        for b in &backends {
            let d = b.run_distribution(&c, shots, 2).unwrap_or_else(|e| {
                panic!("{} failed: {e}", b.name());
            });
            let f = reference.hellinger_fidelity(&d);
            assert!(f > 0.98, "{} fidelity {f}", b.name());
        }
    }

    #[test]
    fn stabilizer_backend_rejects_t_gates() {
        let c = near_clifford_circuit();
        assert!(matches!(
            StabilizerBackend.run_distribution(&c, 10, 0),
            Err(BackendError::Unsupported(_))
        ));
    }

    #[test]
    fn stabilizer_backend_handles_clifford() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let d = StabilizerBackend.run_distribution(&c, 4000, 3).unwrap();
        let m = d.marginal(0);
        assert!((m[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn supersim_marginals_for_wide_clifford_circuit() {
        // 40-qubit GHZ-like Clifford circuit with one T: marginals must be
        // available even though the joint may be withheld.
        let mut c = Circuit::new(40);
        c.h(0);
        for q in 1..40 {
            c.cx(q - 1, q);
        }
        c.t(39);
        let sim = SuperSim::new(SuperSimConfig {
            shots: 2000,
            seed: 5,
            ..SuperSimConfig::default()
        });
        let marg = sim.run_marginals(&c, 2000, 5).unwrap();
        assert_eq!(marg.len(), 40);
        for (q, m) in marg.iter().enumerate() {
            assert!((m[0] - 0.5).abs() < 0.1, "qubit {q} marginal {m:?}");
        }
    }
}
