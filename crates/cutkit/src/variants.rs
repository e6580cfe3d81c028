//! Fragment variants: preparation states and measurement bases.
//!
//! Each cut incident to a fragment multiplies the number of *variants* the
//! fragment must be executed in (paper §V-B): a quantum input is prepared
//! in each of the four tomographically complete states
//! `{|0⟩, |1⟩, |+⟩, |+i⟩}`, and a quantum output is measured in each of the
//! three Pauli bases `{X, Y, Z}`.

use crate::cut::Fragment;
use qcir::{Circuit, Gate, Operation, Qubit};

/// The four preparation states used at quantum inputs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum PrepState {
    /// `|0⟩` — the `(I+Z)/2` state.
    Zero,
    /// `|1⟩` — the `(I−Z)/2` state.
    One,
    /// `|+⟩` — the `(I+X)/2` state.
    Plus,
    /// `|+i⟩` — the `(I+Y)/2` state.
    PlusI,
}

impl PrepState {
    /// All preparation states in index order.
    pub const ALL: [PrepState; 4] = [
        PrepState::Zero,
        PrepState::One,
        PrepState::Plus,
        PrepState::PlusI,
    ];

    /// Index of this state in [`PrepState::ALL`].
    pub fn index(self) -> usize {
        match self {
            PrepState::Zero => 0,
            PrepState::One => 1,
            PrepState::Plus => 2,
            PrepState::PlusI => 3,
        }
    }

    /// Gates that prepare this state from `|0⟩` on `qubit` (all Clifford,
    /// so Clifford fragments stay Clifford).
    pub fn prep_ops(self, qubit: usize) -> Vec<Operation> {
        let q = Qubit(qubit);
        match self {
            PrepState::Zero => vec![],
            PrepState::One => vec![Operation::gate(Gate::X, vec![q])],
            PrepState::Plus => vec![Operation::gate(Gate::H, vec![q])],
            PrepState::PlusI => vec![
                Operation::gate(Gate::H, vec![q]),
                Operation::gate(Gate::S, vec![q]),
            ],
        }
    }
}

/// The three measurement bases used at quantum outputs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MeasBasis {
    /// Pauli-X basis.
    X,
    /// Pauli-Y basis.
    Y,
    /// Pauli-Z (computational) basis.
    Z,
}

impl MeasBasis {
    /// All bases in index order.
    pub const ALL: [MeasBasis; 3] = [MeasBasis::X, MeasBasis::Y, MeasBasis::Z];

    /// Index of this basis in [`MeasBasis::ALL`].
    pub fn index(self) -> usize {
        match self {
            MeasBasis::X => 0,
            MeasBasis::Y => 1,
            MeasBasis::Z => 2,
        }
    }

    /// The Pauli-index (in `I=0,X=1,Y=2,Z=3` order) this basis estimates.
    pub fn pauli_digit(self) -> usize {
        match self {
            MeasBasis::X => 1,
            MeasBasis::Y => 2,
            MeasBasis::Z => 3,
        }
    }

    /// Gates rotating this basis to the computational basis on `qubit`
    /// (applied just before measurement; all Clifford).
    pub fn rotation_ops(self, qubit: usize) -> Vec<Operation> {
        let q = Qubit(qubit);
        match self {
            MeasBasis::X => vec![Operation::gate(Gate::H, vec![q])],
            MeasBasis::Y => vec![
                Operation::gate(Gate::Sdg, vec![q]),
                Operation::gate(Gate::H, vec![q]),
            ],
            MeasBasis::Z => vec![],
        }
    }
}

/// A fixed choice of preparation states and measurement bases for one
/// fragment execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Variant {
    /// One preparation per quantum input, in `fragment.quantum_inputs`
    /// order.
    pub preps: Vec<PrepState>,
    /// One basis per quantum output, in `fragment.quantum_outputs` order.
    pub bases: Vec<MeasBasis>,
}

impl Variant {
    /// The composite prep index in `0..4^{inputs}` (input 0 is the
    /// most-significant base-4 digit).
    pub fn prep_index(&self) -> usize {
        self.preps.iter().fold(0, |acc, p| acc * 4 + p.index())
    }

    /// The composite basis index in `0..3^{outputs}`.
    pub fn basis_index(&self) -> usize {
        self.bases.iter().fold(0, |acc, b| acc * 3 + b.index())
    }
}

/// Enumerates every variant of a fragment: `4^inputs · 3^outputs` entries,
/// prep-major then basis, both in most-significant-first digit order.
pub fn enumerate_variants(fragment: &Fragment) -> Vec<Variant> {
    let qi = fragment.quantum_inputs.len();
    let qo = fragment.quantum_outputs.len();
    let np = 4usize.pow(qi as u32);
    let nb = 3usize.pow(qo as u32);
    let mut out = Vec::with_capacity(np * nb);
    for s in 0..np {
        for b in 0..nb {
            let mut preps = Vec::with_capacity(qi);
            let mut rem = s;
            for k in (0..qi).rev() {
                let pw = 4usize.pow(k as u32);
                preps.push(PrepState::ALL[rem / pw]);
                rem %= pw;
            }
            let mut bases = Vec::with_capacity(qo);
            let mut rem = b;
            for k in (0..qo).rev() {
                let pw = 3usize.pow(k as u32);
                bases.push(MeasBasis::ALL[rem / pw]);
                rem %= pw;
            }
            let v = Variant { preps, bases };
            debug_assert_eq!(v.prep_index(), s);
            debug_assert_eq!(v.basis_index(), b);
            out.push(v);
        }
    }
    out
}

/// Builds the executable circuit of a fragment variant: preparation gates,
/// the fragment body, then measurement-basis rotations.
///
/// It serves noisy variants (one trajectory or frame sample each), the
/// test oracles and the benchmark harness's replay; the evaluator runs a
/// noiseless variant from its preparation's shared post-body state, with
/// the same gates in the same order.
pub fn variant_circuit(fragment: &Fragment, variant: &Variant) -> Circuit {
    assert_eq!(
        variant.preps.len(),
        fragment.quantum_inputs.len(),
        "prep count mismatch"
    );
    assert_eq!(
        variant.bases.len(),
        fragment.quantum_outputs.len(),
        "basis count mismatch"
    );
    let mut c = Circuit::new(fragment.num_local_qubits());
    for (&(q, _), prep) in fragment.quantum_inputs.iter().zip(&variant.preps) {
        for op in prep.prep_ops(q) {
            c.push(op);
        }
    }
    c.append(&fragment.circuit);
    for (&(q, _), basis) in fragment.quantum_outputs.iter().zip(&variant.bases) {
        for op in basis.rotation_ops(q) {
            c.push(op);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{cut_circuit, CutStrategy};

    fn t_fragment() -> Fragment {
        let mut c = Circuit::new(1);
        c.h(0).t(0).h(0);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        cut.fragments
            .into_iter()
            .find(|f| !f.is_clifford)
            .expect("t fragment")
    }

    #[test]
    fn variant_count_matches_formula() {
        let f = t_fragment();
        let variants = enumerate_variants(&f);
        assert_eq!(variants.len(), 12); // 4^1 · 3^1
                                        // All distinct.
        for i in 0..variants.len() {
            for j in (i + 1)..variants.len() {
                assert_ne!(variants[i], variants[j]);
            }
        }
    }

    #[test]
    fn indices_roundtrip() {
        let f = t_fragment();
        for v in enumerate_variants(&f) {
            assert!(v.prep_index() < 4);
            assert!(v.basis_index() < 3);
        }
    }

    #[test]
    fn prep_ops_are_clifford() {
        for p in PrepState::ALL {
            for op in p.prep_ops(0) {
                assert!(op.is_clifford(), "{p:?} prep must be Clifford");
            }
        }
        for b in MeasBasis::ALL {
            for op in b.rotation_ops(0) {
                assert!(op.is_clifford(), "{b:?} rotation must be Clifford");
            }
        }
    }

    #[test]
    fn variant_circuit_shape() {
        let f = t_fragment();
        let v = Variant {
            preps: vec![PrepState::PlusI],
            bases: vec![MeasBasis::Y],
        };
        let c = variant_circuit(&f, &v);
        // 2 prep ops (H, S) + 1 body op (T) + 2 rotation ops (S†, H).
        assert_eq!(c.len(), 5);
        assert_eq!(c.ops()[0].as_gate(), Some(Gate::H));
        assert_eq!(c.ops()[1].as_gate(), Some(Gate::S));
        assert_eq!(c.ops()[2].as_gate(), Some(Gate::T));
        assert_eq!(c.ops()[3].as_gate(), Some(Gate::Sdg));
        assert_eq!(c.ops()[4].as_gate(), Some(Gate::H));
    }

    #[test]
    fn clifford_fragment_variants_stay_clifford() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let cliff = cut.fragments.iter().find(|f| f.is_clifford).unwrap();
        for v in enumerate_variants(cliff) {
            assert!(variant_circuit(cliff, &v).is_clifford());
        }
    }

    #[test]
    fn no_cut_fragment_has_single_trivial_variant() {
        let mut c = Circuit::new(1);
        c.h(0);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let f = &cut.fragments[0];
        let vs = enumerate_variants(f);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].preps.is_empty() && vs[0].bases.is_empty());
        assert_eq!(variant_circuit(f, &vs[0]).len(), 1);
    }
}
