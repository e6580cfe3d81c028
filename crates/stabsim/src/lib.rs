//! A fast stabilizer-circuit simulator — the Stim substitute in SuperSim-RS.
//!
//! One tableau engine plus a frame simulator:
//!
//! | Simulator | Layout | Gate cost | Measure cost | Use it for |
//! |---|---|---|---|---|
//! | [`TableauSim`] | column-major bit-planes (inverse/Stim orientation) | `O(n/64)` words | `O(n·n/64)` bit-sliced collapse + lazy transpose | noiseless Clifford circuits: measurement, support extraction, expectations |
//! | [`FrameSim`] | Pauli frames, batch-major | — | — | noisy multi-shot sampling (Pauli channels only) |
//!
//! [`AffineSupport`] — the extracted computational-basis support of a
//! stabilizer state — makes 300-qubit sampling cheap. The engine's seeded
//! outcome streams are pinned against a frozen bit-at-a-time oracle by the
//! workspace's engine-parity integration suite (the oracle lives under
//! `tests/oracles/`, not in this crate).
//!
//! ```
//! use qcir::Circuit;
//! use stabsim::TableauSim;
//! use rand::SeedableRng;
//!
//! let mut ghz = Circuit::new(3);
//! ghz.h(0).cx(0, 1).cx(1, 2);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let sim = TableauSim::run(&ghz, &mut rng).unwrap();
//! assert_eq!(sim.support().dim(), 1); // uniform over {000, 111}
//! ```

mod frame;
mod packed;
mod support;
mod tableau;

pub use frame::FrameSim;
pub use packed::PackedPauli;
pub use support::AffineSupport;
pub use tableau::TableauSim;

/// Error returned when a stabilizer engine encounters a non-Clifford gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonCliffordError {
    /// Index of the offending operation in the circuit.
    pub op_index: usize,
    /// Human-readable gate name.
    pub name: String,
}

impl std::fmt::Display for NonCliffordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "non-Clifford gate {} at operation index {}",
            self.name, self.op_index
        )
    }
}

impl std::error::Error for NonCliffordError {}
