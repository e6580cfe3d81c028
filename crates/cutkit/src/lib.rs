//! Quantum circuit cutting for SuperSim-RS.
//!
//! This crate implements the three pillars of the SuperSim pipeline
//! (paper §V):
//!
//! 1. **Cutter** ([`cut_circuit`]): parses a near-Clifford circuit and
//!    places wire cuts isolating the non-Clifford operations into small
//!    fragments;
//! 2. **Fragment evaluator** ([`evaluate_variant`], [`build_fragment_tensor`]):
//!    executes every fragment variant (4 preparation states per quantum
//!    input × 3 measurement bases per quantum output) on the appropriate
//!    backend — the stabilizer simulator for Clifford fragments, the exact
//!    statevector simulator otherwise — and assembles the tomographic
//!    fragment tensor, with optional maximum-likelihood correction
//!    ([`correct_tensor`]);
//! 3. **Distribution builder** ([`Reconstructor`]): contracts the fragment
//!    tensors over one 4-valued Pauli index per cut (`O(4^k)`), producing
//!    joint distributions, single-qubit marginals, or machine-precision
//!    probabilities of individual bitstrings.
//!
//! The Clifford-specific optimizations of paper §IX: fewer shots — in
//! sampled mode a variant is enumerated instead of sampled whenever its
//! distribution has no more points than the shot budget (a Clifford
//! support of `2^dim ≤ shots` points, a statevector with at most `shots`
//! nonzero probabilities), and `⟨P⟩` snapping to `{-1,0,+1}`
//! ([`TensorOptions::clifford_snap`]) for the supports that are still
//! sampled; fewer stitching calculations — zero-Pauli pruning in the
//! contraction ([`Reconstructor::with_sparse`]), which the exact zeros of
//! enumerated tensors let fire.
//!
//! ```
//! use qcir::Circuit;
//! use cutkit::{cut_circuit, CutStrategy};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1).t(1).h(1);
//! let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
//! assert_eq!(cut.num_cuts, 2); // two cuts isolate the single T gate
//! ```

mod cut;
mod evaluate;
mod keys;
mod mlft;
mod recombine;
mod tensor;
mod variants;

pub use cut::{cut_circuit, CutCircuit, CutError, CutPoint, CutStrategy, Fragment};
pub use evaluate::{evaluate_variant, EvalError, EvalMode, EvalOptions};
pub use mlft::{correct_tensor, correct_tensors, MlftError, MlftOptions};
pub use recombine::{Reconstructor, SweepStats, ASSIGNMENTS_PER_CHUNK, MAX_CONTRACTION_CUTS};
pub use tensor::{
    build_fragment_tensor, evaluate_fragment_tensors, evaluate_fragment_tensors_planned,
    FragmentEvalPlan, FragmentTensor, TensorOptions, PREP_TO_PAULI,
};
pub use variants::{enumerate_variants, variant_circuit, MeasBasis, PrepState, Variant};
