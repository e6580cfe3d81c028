//! Quantum circuit intermediate representation for SuperSim-RS.
//!
//! This crate plays the role Cirq plays for the original (Python) SuperSim:
//! it defines the gate set, the circuit container, and the supporting
//! Pauli/bitstring algebra that every simulator backend and the circuit
//! cutter build on.
//!
//! * [`Gate`] — the unitary gate set (Clifford group generators, their
//!   parameterized generalizations, and non-Clifford rotations such as `T`),
//!   with exact Clifford classification;
//! * [`NoiseChannel`] — Pauli noise channels for stabilizer/frame simulation;
//! * [`Circuit`] — an ordered list of operations over `n` qubit wires with a
//!   non-consuming builder API;
//! * [`Pauli`] / [`PauliString`] — phase-tracked Pauli algebra;
//! * [`Bits`] — compact bitstrings used for measurement outcomes.
//!
//! # Example
//!
//! ```
//! use qcir::Circuit;
//!
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).cx(1, 2).t(2);
//! assert_eq!(c.num_qubits(), 3);
//! assert_eq!(c.t_count(), 1);
//! assert!(!c.is_clifford());
//! ```

mod bits;
mod circuit;
mod gate;
mod pauli;
pub mod simd;
pub mod text;

pub use bits::{pauli_mul_phase, pauli_mul_phase_words, Bits, IndexPlan};
pub use circuit::{Circuit, OpKind, Operation};
pub use gate::{CliffordGate, Gate, NoiseChannel};
pub use pauli::{Pauli, PauliString};

/// A qubit wire index in a circuit.
///
/// Plain `usize` newtype; qubit `k` is the `k`-th wire of a [`Circuit`].
#[derive(
    Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Qubit(pub usize);

impl Qubit {
    /// The wire index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for Qubit {
    fn from(i: usize) -> Self {
        Qubit(i)
    }
}

impl std::fmt::Display for Qubit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}
