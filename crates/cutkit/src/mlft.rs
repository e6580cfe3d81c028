//! Maximum-likelihood fragment-tomography (MLFT) correction.
//!
//! Finite-shot fragment tensors are generally *unphysical*: the implied
//! conditional channels `E_b` need not be completely positive, and the
//! fragment need not be exactly trace preserving. Following Perlin et al.
//! (the paper's ref. 40), this module projects each fragment model onto the
//! physical set before recombination, which provably reduces the effect of
//! sampling error:
//!
//! 1. for every observed output `b`, rebuild the Choi operator
//!    `J_b = Σ_{pi,po} T[b,pi,po]/2^qo · (P_po ⊗ P_piᵀ)` and project it
//!    onto the positive-semidefinite cone (complete positivity);
//! 2. rescale the whole fragment so `Σ_b T[b, I…I] = 1` (trace
//!    preservation / normalization).
//!
//! With exact fragment data both steps are the identity.
//!
//! # The physicality screen
//!
//! Step 1 projects a block only when `λ_min(J_b) < -negativity_tolerance`,
//! and on sampled data almost no block is that unphysical. Whether one
//! *can* be is decided from the coefficient slice alone. Write
//! `J_b = Σ_idx (t_idx/d_o)·B_idx` with `d = 2^(qi+qo)`, `d_o = 2^qo`,
//! `B_0 = 𝟙`, and the `B_idx` Hermitian with `Tr[B_i B_j] = d·δ_ij`. Then
//!
//! ```text
//! tr J_b = d·t_0/d_o            ‖J_b‖_F² = (d/d_o²)·Σ_idx t_idx²
//! ```
//!
//! so the eigenvalues have mean `μ = t_0/d_o` and variance
//! `s² = ‖J_b‖_F²/d − μ² = Σ_{idx≥1} t_idx²/d_o²`, and the Wolkowicz–Styan
//! bound `λ_min ≥ μ − s·sqrt(d−1)` reads
//!
//! ```text
//! λ_min(J_b) ≥ ( t_0 − sqrt((d−1) · Σ_{idx≥1} t_idx²) ) / d_o
//! ```
//!
//! — `4^(qi+qo)` multiply-adds, no matrix. A block is skipped on the bound
//! only when it clears `-negativity_tolerance` by a margin of `1e-9` per
//! unit of block mass, several orders above the rounding of the Jacobi
//! eigensolver (≈ `1e-14·‖J_b‖_F`); every other block — within the margin,
//! really unphysical, or not comparable — is rebuilt as a matrix and
//! handed to the eigensolver, whose verdict stands. The screen therefore
//! only ever skips a block the eigensolver would skip too: the correction
//! is the same function of its input, bit for bit, with or without it.
//! Debug builds check that claim against the eigensolver on every
//! screened block.
//!
//! `negativity_tolerance` is in absolute probability-mass units, not
//! relative to the block. The coefficients of a sampled block are signed
//! averages over the shots that landed on `b`, so none exceeds the order
//! of the block's mass, and the bound cannot reach `-negativity_tolerance`
//! while that mass is `≪ negativity_tolerance / sqrt(d−1)` — which is why
//! the large sampled supports of Clifford fragments (tens of thousands of
//! outcomes sharing unit mass) pass wholesale, and the blocks that reach
//! the eigensolver are the few heavy ones of small-support fragments.

use crate::tensor::FragmentTensor;
use faultkit::{Fault, Interrupt, Stage, Supervisor, TaskPanic};
use qcir::Pauli;
use qmath::{psd_project_with_trace, CMat, C64};
use std::fmt;
use std::sync::Mutex;

/// Identity-Pauli mass below which a fragment cannot be normalized.
const MASS_TOLERANCE: f64 = 1e-12;

/// How far, per unit of block mass, the screen's lower bound must clear
/// `-negativity_tolerance` for the eigensolver to be skipped (see the
/// module docs).
const SCREEN_MARGIN: f64 = 1e-9;

/// Errors from the MLFT correction.
#[derive(Clone, Debug, PartialEq)]
pub enum MlftError {
    /// The fragment's total identity-Pauli mass `Σ_b T[b, I…I]` vanished,
    /// so the trace-preservation rescale is undefined. An uncorrected,
    /// unnormalized tensor would silently poison recombination — surface
    /// it instead. (Exact fragment data always has unit mass; sampled
    /// data can only hit this when every recorded outcome was projected
    /// or clipped away.)
    VanishingMass {
        /// The offending mass value.
        mass: f64,
    },
    /// A coefficient of the fragment tensor is NaN or infinite (or so
    /// large that its square overflows). No physical model lies near such
    /// data and every sum downstream of it would be NaN, so the fragment
    /// is rejected instead of normalized.
    NonFinite,
    /// A supervision checkpoint stopped the correction before a fragment
    /// (cooperative cancellation or a deadline — see
    /// [`MlftOptions::supervisor`]).
    Interrupted(Interrupt),
    /// A scheduled fault-injection error fired at a fragment's checkpoint
    /// (chaos testing — see [`faultkit::FaultPlan`]).
    Injected(String),
    /// Correcting a fragment panicked; the panic was caught at the
    /// fragment boundary and names the fragment.
    Panicked(TaskPanic),
}

impl fmt::Display for MlftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlftError::VanishingMass { mass } => write!(
                f,
                "MLFT normalization undefined: fragment identity mass {mass:e} \
                 is below {MASS_TOLERANCE:e}"
            ),
            MlftError::NonFinite => write!(
                f,
                "MLFT correction undefined: the fragment tensor holds a non-finite coefficient"
            ),
            MlftError::Interrupted(i) => write!(f, "MLFT correction interrupted: {i}"),
            MlftError::Injected(site) => write!(f, "injected MLFT fault at {site}"),
            MlftError::Panicked(p) => {
                write!(f, "MLFT fragment {} panicked: {}", p.task, p.payload)
            }
        }
    }
}

impl std::error::Error for MlftError {}

impl From<Fault> for MlftError {
    fn from(fault: Fault) -> Self {
        match fault {
            Fault::Interrupted(i) => MlftError::Interrupted(i),
            Fault::Injected(site) => MlftError::Injected(site),
        }
    }
}

impl From<TaskPanic> for MlftError {
    fn from(p: TaskPanic) -> Self {
        MlftError::Panicked(p)
    }
}

/// Options for the MLFT correction.
#[derive(Clone, Debug)]
pub struct MlftOptions {
    /// Skip the PSD projection for fragments with more than this many cut
    /// ends (the Choi matrix is `2^(qi+qo)` dimensional).
    pub max_cut_ends: usize,
    /// Project a block only when its most negative eigenvalue is below
    /// `-negativity_tolerance` (in absolute probability-mass units).
    /// Finite-shot blocks are *slightly* unphysical almost surely;
    /// projecting those introduces more bias than the variance it removes,
    /// so the correction acts as a guard against seriously unphysical
    /// models rather than a blanket filter.
    pub negativity_tolerance: f64,
    /// Supervision context, consulted by [`correct_tensors`] before each
    /// fragment: cancellation and deadlines surface as
    /// [`MlftError::Interrupted`], scheduled fault injections as
    /// [`MlftError::Injected`] (or a deliberate panic, which becomes
    /// [`MlftError::Panicked`]). The default context is unsupervised.
    pub supervisor: Supervisor,
}

impl Default for MlftOptions {
    fn default() -> Self {
        MlftOptions {
            max_cut_ends: 3,
            negativity_tolerance: 0.05,
            supervisor: Supervisor::new(),
        }
    }
}

/// The 2×2 matrix of a Pauli.
fn pauli_matrix(p: Pauli) -> CMat {
    let o = C64::ZERO;
    let l = C64::ONE;
    let i = C64::i();
    match p {
        Pauli::I => CMat::identity(2),
        Pauli::X => CMat::from_rows(&[&[o, l], &[l, o]]),
        Pauli::Y => CMat::from_rows(&[&[o, -i], &[i, o]]),
        Pauli::Z => CMat::from_rows(&[&[l, o], &[o, -l]]),
    }
}

/// Builds the Choi-basis matrix `P_po ⊗ P_piᵀ` for a composite Pauli
/// index with `qi` input digits followed by `qo` output digits
/// (most-significant first, matching [`FragmentTensor`] layout).
fn basis_matrix(idx: usize, qi: usize, qo: usize) -> CMat {
    let digits: Vec<usize> = (0..qi + qo)
        .rev()
        .map(|k| (idx >> (2 * k)) & 0b11)
        .collect();
    let mut out = CMat::identity(1);
    // Output part first (acts on the output factor of J).
    for &d in digits[qi..].iter() {
        out = out.kron(&pauli_matrix(Pauli::from_index(d)));
    }
    for &d in digits[..qi].iter() {
        out = out.kron(&pauli_matrix(Pauli::from_index(d)).transpose());
    }
    out
}

/// The Choi block `J_b = Σ_idx T[b,idx]/d_o · basis[idx]`.
fn choi_block(coeffs: &[f64], basis: &[CMat], d: usize, do_: f64) -> CMat {
    let mut j = CMat::zeros(d, d);
    for (idx, &t) in coeffs.iter().enumerate() {
        if t != 0.0 {
            j = j.add(&basis[idx].scale(C64::real(t / do_)));
        }
    }
    j
}

/// The Wolkowicz–Styan lower bound on `λ_min` of a block's Choi matrix
/// (dimension `d`, output dimension `do_`), read off its coefficient
/// slice: `(t_0 − sqrt((d−1)·Σ_{idx≥1} t_idx²)) / d_o`. NaN or `-∞` when a
/// coefficient is not finite or the sum of squares overflows.
fn screen_lower_bound(coeffs: &[f64], d: usize, do_: f64) -> f64 {
    let tail: f64 = coeffs[1..].iter().map(|t| t * t).sum();
    (coeffs[0] - ((d - 1) as f64 * tail).sqrt()) / do_
}

/// Applies the MLFT physicality correction to a fragment tensor in place.
///
/// Returns the Frobenius-norm change summed over all corrected Choi
/// blocks — zero (up to rounding) for exact fragment data, positive for
/// noisy sampled data. Useful for diagnostics and tests.
///
/// Blocks are visited in the tensor's lexicographic emission order and
/// only projected blocks are written back. A block whose coefficients
/// already prove it physical enough is skipped without building its Choi
/// matrix (the module docs derive the bound); the rest go through the
/// eigensolver.
///
/// The tensor's derived sums are computed once, from the normalized
/// coefficients, before this returns — inside the caller's per-fragment
/// task rather than on the first read during recombination.
///
/// # Errors
///
/// Returns [`MlftError::NonFinite`] when a coefficient is NaN or infinite,
/// and [`MlftError::VanishingMass`] when the fragment's identity mass is
/// too small to normalize. Either way the tensor is left **uncorrected or
/// unnormalized** — callers must not recombine it.
pub fn correct_tensor(tensor: &mut FragmentTensor, opts: &MlftOptions) -> Result<f64, MlftError> {
    let qi = tensor.num_inputs();
    let qo = tensor.num_outputs();
    let m = qi + qo;
    let mut moved = 0.0;

    if m > 0 && m <= opts.max_cut_ends {
        let d = 1usize << m; // Choi dimension
        let dim = tensor.pauli_dim();
        let do_ = (1usize << qo) as f64;
        // Precompute the Pauli basis matrices once per fragment shape.
        let basis: Vec<CMat> = (0..dim).map(|idx| basis_matrix(idx, qi, qo)).collect();

        // Only projected blocks are written back, by position in key
        // order; `moved` folds in emission (lexicographic) order, matching
        // the former snapshot walk bit for bit.
        let mut projected: Vec<(usize, Vec<f64>)> = Vec::new();
        for (i, (_, coeffs)) in tensor.iter().enumerate() {
            let bound = screen_lower_bound(coeffs, d, do_);
            if !bound.is_finite() {
                return Err(MlftError::NonFinite);
            }
            if bound >= -opts.negativity_tolerance + SCREEN_MARGIN * coeffs[0].abs().max(1.0) {
                debug_assert!(
                    qmath::eigh(&choi_block(coeffs, &basis, d, do_)).values[0]
                        >= -opts.negativity_tolerance,
                    "the screen passed a block the eigensolver would project"
                );
                continue;
            }
            let j = choi_block(coeffs, &basis, d, do_);
            // Trace-preserving PSD projection: keeps each block's
            // (unbiased) probability mass while enforcing complete
            // positivity. Plain eigenvalue clipping would inflate noisy
            // blocks and bias the reconstruction. Blocks that are only
            // marginally unphysical are left alone (see
            // [`MlftOptions::negativity_tolerance`]).
            let trace = j.trace().re.max(0.0);
            let min_eig = qmath::eigh(&j).values.first().copied().unwrap_or(0.0);
            if min_eig >= -opts.negativity_tolerance {
                continue;
            }
            let jp = psd_project_with_trace(&j, trace);
            moved += jp.sub(&j).frobenius_norm();
            // T'[idx] = do · Tr[basis[idx]·J'] / (di·do) = Tr[...] / di.
            let di = (1usize << qi) as f64;
            let new_coeffs: Vec<f64> = (0..dim)
                .map(|idx| {
                    let tr = basis[idx].mul(&jp).trace();
                    debug_assert!(tr.im.abs() < 1e-9, "non-real Choi coefficient");
                    tr.re / di
                })
                .collect();
            projected.push((i, new_coeffs));
        }
        for (i, v) in projected {
            tensor.set_coeffs(i, &v);
        }
    }

    // Normalization: Σ_b T[b, I…I] = 1 exactly. The mass is summed off
    // the entries in key order — identical bits to the derived `total(0)`
    // — so the derived sums are computed only once, after the rescale.
    let mass: f64 = tensor.iter().map(|(_, v)| v[0]).sum();
    if !mass.is_finite() {
        return Err(MlftError::NonFinite);
    }
    if mass <= MASS_TOLERANCE {
        return Err(MlftError::VanishingMass { mass });
    }
    tensor.rebuild_derived(1.0 / mass);
    // Forces the derived sums, whose L1 masses cover every coefficient:
    // this is where non-finite data the PSD step never looked at (a
    // fragment past `max_cut_ends`) is caught.
    if !tensor.abs_sums().iter().all(|x| x.is_finite()) {
        return Err(MlftError::NonFinite);
    }
    Ok(moved)
}

/// Applies [`correct_tensor`] to every fragment on up to `threads` worker
/// threads (fragments are corrected independently, so the stage
/// parallelizes the same way fragment evaluation does). Before each
/// fragment `i` the options' supervisor checks `(Stage::Mlft, i)`.
///
/// The summed Frobenius movement folds in fragment-index order
/// ([`runtime::fold_ordered`]), so the result is **bit-identical for any
/// thread count**.
///
/// # Errors
///
/// Returns the error of the first failing fragment in fragment-index
/// order — the same error for any thread count; a fragment that panics
/// fails with [`MlftError::Panicked`] naming it. (Fragments after that
/// failure may or may not have been corrected by then; callers receiving
/// an error must discard the tensors.)
pub fn correct_tensors(
    tensors: &mut [FragmentTensor],
    opts: &MlftOptions,
    threads: usize,
) -> Result<f64, MlftError> {
    let n = tensors.len();
    // Each fragment index is claimed once, so the mutexes are uncontended
    // handles for `&mut` access from whichever worker claims it.
    let slots: Vec<Mutex<&mut FragmentTensor>> = tensors.iter_mut().map(Mutex::new).collect();
    runtime::fold_ordered(
        runtime::worker_count(threads.max(1), n),
        n,
        0.0,
        || (),
        |i, _| {
            faultkit::catch_task(i, || {
                opts.supervisor.check(Stage::Mlft, i)?;
                correct_tensor(&mut faultkit::lock_or_recover(&slots[i]), opts)
            })
        },
        |moved, m| *moved += m,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{cut_circuit, CutStrategy};
    use crate::evaluate::{EvalMode, EvalOptions};
    use crate::tensor::{build_fragment_tensor, TensorOptions};
    use qcir::{Bits, Circuit};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pre-intern MLFT correction, frozen as a parity baseline: snapshots
    /// every entry, rebuilds a full `BTreeMap<Bits, Vec<f64>>` of corrected
    /// blocks (re-inserting even untouched ones), and writes the whole map
    /// back — the ordered-map churn [`correct_tensor`] no longer pays.
    /// It has no screen and decides every block with the eigensolver, which
    /// makes it the oracle for the screen's decisions.
    fn reference_correct_btreemap(
        tensor: &mut FragmentTensor,
        opts: &MlftOptions,
    ) -> Result<f64, MlftError> {
        use std::collections::BTreeMap;
        let qi = tensor.num_inputs();
        let qo = tensor.num_outputs();
        let m = qi + qo;
        let mut moved = 0.0;

        if m > 0 && m <= opts.max_cut_ends {
            let d = 1usize << m;
            let dim = tensor.pauli_dim();
            let do_ = (1usize << qo) as f64;
            let basis: Vec<CMat> = (0..dim).map(|idx| basis_matrix(idx, qi, qo)).collect();

            let snapshot: Vec<(Bits, Vec<f64>)> = tensor
                .entries()
                .into_iter()
                .map(|(b, v)| (b, v.to_vec()))
                .collect();
            let mut corrected: BTreeMap<Bits, Vec<f64>> = BTreeMap::new();
            for (b, coeffs) in snapshot {
                let mut j = CMat::zeros(d, d);
                for (idx, &t) in coeffs.iter().enumerate() {
                    if t != 0.0 {
                        j = j.add(&basis[idx].scale(C64::real(t / do_)));
                    }
                }
                let trace = j.trace().re.max(0.0);
                let min_eig = qmath::eigh(&j).values.first().copied().unwrap_or(0.0);
                if min_eig >= -opts.negativity_tolerance {
                    corrected.insert(b, coeffs);
                    continue;
                }
                let jp = psd_project_with_trace(&j, trace);
                moved += jp.sub(&j).frobenius_norm();
                let di = (1usize << qi) as f64;
                let new_coeffs: Vec<f64> = (0..dim)
                    .map(|idx| basis[idx].mul(&jp).trace().re / di)
                    .collect();
                corrected.insert(b, new_coeffs);
            }
            for (b, v) in corrected {
                tensor.set_entry(b, v);
            }
        }

        let mass: f64 = tensor.iter().map(|(_, v)| v[0]).sum();
        if mass <= MASS_TOLERANCE {
            tensor.rebuild_derived(1.0);
            return Err(MlftError::VanishingMass { mass });
        }
        tensor.rebuild_derived(1.0 / mass);
        Ok(moved)
    }

    fn tensors_for(c: &Circuit, eval: &EvalOptions, seed: u64) -> Vec<FragmentTensor> {
        let cut = cut_circuit(c, CutStrategy::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        cut.fragments
            .iter()
            .map(|f| {
                build_fragment_tensor(
                    f,
                    eval,
                    &TensorOptions {
                        clifford_snap: false,
                    },
                    &mut rng,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn basis_matrices_are_orthogonal() {
        // Tr[B_i · B_j] = d·δ_ij for the Pauli ⊗ Pauliᵀ basis.
        let d = 4; // qi = qo = 1
        for i in 0..16 {
            for j in 0..16 {
                let bi = basis_matrix(i, 1, 1);
                let bj = basis_matrix(j, 1, 1);
                let tr = bi.mul(&bj).trace();
                let expect = if i == j { d as f64 } else { 0.0 };
                assert!(
                    (tr.re - expect).abs() < 1e-12 && tr.im.abs() < 1e-12,
                    "orthogonality failed at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn exact_tensors_are_fixed_points() {
        let mut c = Circuit::new(1);
        c.h(0).t(0).h(0);
        let eval = EvalOptions {
            mode: EvalMode::Exact,
            ..Default::default()
        };
        for mut t in tensors_for(&c, &eval, 1) {
            let before: Vec<(Bits, Vec<f64>)> = t
                .entries()
                .into_iter()
                .map(|(b, v)| (b, v.to_vec()))
                .collect();
            let moved = correct_tensor(&mut t, &MlftOptions::default()).unwrap();
            assert!(moved < 1e-8, "exact data should be physical, moved {moved}");
            for (b, v) in before {
                for (i, x) in v.iter().enumerate() {
                    assert!((t.value(&b, i) - x).abs() < 1e-8);
                }
            }
        }
    }

    #[test]
    fn sampled_tensors_get_normalized() {
        let mut c = Circuit::new(1);
        c.h(0).t(0).h(0);
        let eval = EvalOptions {
            mode: EvalMode::Sampled { shots: 300 },
            ..Default::default()
        };
        for mut t in tensors_for(&c, &eval, 5) {
            correct_tensor(&mut t, &MlftOptions::default()).unwrap();
            assert!(
                (t.total(0) - 1.0).abs() < 1e-9,
                "normalization must hold after correction"
            );
        }
    }

    #[test]
    fn correction_moves_noisy_data_toward_truth() {
        // Build the T-fragment tensor with few shots; the corrected tensor
        // must not be further from the exact tensor than the raw one
        // (averaged over fragments and entries).
        let mut c = Circuit::new(1);
        c.h(0).t(0).h(0);
        let exact = tensors_for(
            &c,
            &EvalOptions {
                mode: EvalMode::Exact,
                ..Default::default()
            },
            1,
        );
        let mut err_raw = 0.0;
        let mut err_fix = 0.0;
        for trial in 0..8u64 {
            let sampled = tensors_for(
                &c,
                &EvalOptions {
                    mode: EvalMode::Sampled { shots: 150 },
                    ..Default::default()
                },
                100 + trial,
            );
            for (raw, ex) in sampled.iter().zip(&exact) {
                let mut fixed = raw.clone();
                correct_tensor(&mut fixed, &MlftOptions::default()).unwrap();
                for (b, v) in ex.entries() {
                    for (i, &x) in v.iter().enumerate() {
                        err_raw += (raw.value(&b, i) - x).powi(2);
                        err_fix += (fixed.value(&b, i) - x).powi(2);
                    }
                }
            }
        }
        assert!(
            err_fix <= err_raw * 1.05,
            "correction should not hurt: raw {err_raw:.4} vs fixed {err_fix:.4}"
        );
    }

    #[test]
    fn psd_projection_kills_negative_eigenvalues() {
        // Hand-build an unphysical single-output tensor: |<P>| > 1.
        let mut c = Circuit::new(1);
        c.h(0).t(0);
        let eval = EvalOptions {
            mode: EvalMode::Exact,
            ..Default::default()
        };
        let cutc = cut_circuit(&c, CutStrategy::default()).unwrap();
        let up = cutc.fragments.iter().find(|f| f.is_clifford).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut t = build_fragment_tensor(
            up,
            &eval,
            &TensorOptions {
                clifford_snap: false,
            },
            &mut rng,
        )
        .unwrap();
        // Corrupt: set <Z> = 1.8 (impossible).
        let b = Bits::zeros(0);
        let mut v: Vec<f64> = t.iter().next().unwrap().1.to_vec();
        v[3] = 1.8;
        t.set_entry(b.clone(), v);
        let moved = correct_tensor(&mut t, &MlftOptions::default()).unwrap();
        assert!(moved > 0.1, "projection must act on unphysical data");
        let z = t.value(&b, 3);
        let x = t.value(&b, 1);
        let norm = (z * z + x * x).sqrt();
        assert!(
            norm <= 1.0 + 1e-9,
            "Bloch vector must be physical, got {norm}"
        );
    }

    #[test]
    fn vanishing_mass_is_surfaced_not_swallowed() {
        // Zero out a tensor's identity mass entirely; the old code left
        // the unnormalized tensor in place silently.
        let mut c = Circuit::new(1);
        c.t(0).add_gate(qcir::Gate::I, &[0]);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let down = cut
            .fragments
            .iter()
            .find(|f| f.quantum_inputs.len() == 1)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let eval = EvalOptions {
            mode: EvalMode::Exact,
            ..Default::default()
        };
        let mut t =
            build_fragment_tensor(down, &eval, &TensorOptions::default(), &mut rng).unwrap();
        let zeroed: Vec<(Bits, Vec<f64>)> = t
            .entries()
            .into_iter()
            .map(|(b, v)| (b, vec![0.0; v.len()]))
            .collect();
        for (b, v) in zeroed {
            t.set_entry(b, v);
        }
        let err = correct_tensor(&mut t, &MlftOptions::default()).unwrap_err();
        assert!(matches!(err, MlftError::VanishingMass { mass } if mass.abs() < 1e-12));
        assert!(err.to_string().contains("identity mass"));
    }

    #[test]
    fn parallel_error_matches_sequential_first_failure() {
        // Two vanishing-mass fragments: every thread count must surface
        // the error of the *lower-index* one, like the sequential loop.
        let mut c = Circuit::new(1);
        c.t(0).add_gate(qcir::Gate::I, &[0]);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let down = cut
            .fragments
            .iter()
            .find(|f| f.quantum_inputs.len() == 1)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let eval = EvalOptions {
            mode: EvalMode::Exact,
            ..Default::default()
        };
        let good = build_fragment_tensor(down, &eval, &TensorOptions::default(), &mut rng).unwrap();
        let mut bad = good.clone();
        let zeroed: Vec<(Bits, Vec<f64>)> = bad
            .entries()
            .into_iter()
            .map(|(b, v)| (b, vec![0.0; v.len()]))
            .collect();
        for (b, v) in zeroed {
            bad.set_entry(b, v);
        }
        // Second failing fragment with a *distinct* (still vanishing)
        // mass, so returning the wrong fragment's error is detectable.
        let mut scaled = bad.clone();
        let (b0, mut v0) = {
            let (b, v) = scaled.entries().swap_remove(0);
            (b, v.to_vec())
        };
        v0[0] = 1e-14;
        scaled.set_entry(b0, v0);
        let template = vec![good.clone(), bad, good.clone(), scaled, good];
        let seq_err = {
            let mut ts = template.clone();
            correct_tensors(&mut ts, &MlftOptions::default(), 1).unwrap_err()
        };
        for threads in [2usize, 8] {
            let mut ts = template.clone();
            let err = correct_tensors(&mut ts, &MlftOptions::default(), threads).unwrap_err();
            assert_eq!(err, seq_err, "error identity at {threads} threads");
        }
    }

    #[test]
    fn parallel_correction_bit_identical_to_sequential() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).t(2).h(2);
        let eval = EvalOptions {
            mode: EvalMode::Sampled { shots: 250 },
            ..Default::default()
        };
        let baseline = tensors_for(&c, &eval, 17);
        let opts = MlftOptions {
            // Force the projection to fire often on this noisy data.
            negativity_tolerance: 1e-6,
            ..MlftOptions::default()
        };
        let mut seq = baseline.clone();
        let moved_seq = correct_tensors(&mut seq, &opts, 1).unwrap();
        for threads in [2usize, 8] {
            let mut par = baseline.clone();
            let moved_par = correct_tensors(&mut par, &opts, threads).unwrap();
            assert!(
                moved_seq.to_bits() == moved_par.to_bits(),
                "mlft_moved differs at {threads} threads: {moved_seq} vs {moved_par}"
            );
            for (s, p) in seq.iter().zip(&par) {
                assert_eq!(s.support_len(), p.support_len());
                for (b, v) in s.entries() {
                    for (i, &x) in v.iter().enumerate() {
                        assert!(
                            p.value(&b, i) == x,
                            "corrected tensor differs at {b}, idx {i}, {threads} threads"
                        );
                    }
                }
            }
        }
    }

    /// Asserts the engine's correction of `baseline` at `threads` workers
    /// equals the frozen reference's bit for bit: support, emission order,
    /// coefficients, `moved`. Returns `moved`.
    fn assert_matches_reference(
        baseline: &[FragmentTensor],
        opts: &MlftOptions,
        threads: usize,
        label: &str,
    ) -> f64 {
        let mut expect = baseline.to_vec();
        let mut moved_expect = 0.0;
        for t in expect.iter_mut() {
            moved_expect += reference_correct_btreemap(t, opts).unwrap();
        }
        let mut got = baseline.to_vec();
        let moved = correct_tensors(&mut got, opts, threads).unwrap();
        assert!(
            moved.to_bits() == moved_expect.to_bits(),
            "{label}: moved {moved} vs {moved_expect}"
        );
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.support_len(), e.support_len(), "{label}: support");
            for ((gb, gv), (eb, ev)) in g.entries().into_iter().zip(e.entries()) {
                assert_eq!(gb, eb, "{label}: emission order");
                for (i, (x, y)) in gv.iter().zip(ev).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "{label}: corrected coeff at {gb}, idx {i}"
                    );
                }
            }
        }
        moved
    }

    /// The screened, ordered-map-free correction is bit-identical — same
    /// support, same emission order, same coefficient and `moved` float
    /// bits — to the frozen `BTreeMap` reference, which decides every
    /// block with the eigensolver: from few shots (most blocks projected)
    /// to many (every block screened), at tolerances from the default to
    /// zero, at 1, 2, and 8 worker threads.
    #[test]
    fn correction_matches_btreemap_reference_bit_exact() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).t(2).h(2);
        let mut projecting_cases = 0;
        for shots in [50usize, 300, 5000] {
            let eval = EvalOptions {
                mode: EvalMode::Sampled { shots },
                ..Default::default()
            };
            let baseline = tensors_for(&c, &eval, 31);
            for negativity_tolerance in [0.05, 1e-6, 0.0] {
                let opts = MlftOptions {
                    negativity_tolerance,
                    ..MlftOptions::default()
                };
                for threads in [1usize, 2, 8] {
                    let label =
                        format!("{shots} shots, tol {negativity_tolerance}, {threads} threads");
                    let moved = assert_matches_reference(&baseline, &opts, threads, &label);
                    projecting_cases += (moved > 0.0) as usize;
                }
            }
        }
        assert!(projecting_cases > 0, "the projection never fired");
    }

    /// A one-output-cut tensor (`d = 2`, where the bound is exact) from
    /// Bloch-style blocks `[t_0, t_x, t_y, t_z]`, one per outcome.
    fn single_output_tensor(blocks: &[[f64; 4]]) -> FragmentTensor {
        let width = 3;
        assert!(blocks.len() <= 1 << width);
        FragmentTensor::from_dense_entries(
            vec![],
            vec![0],
            (0..width).collect(),
            blocks
                .iter()
                .enumerate()
                .map(|(i, v)| (Bits::from_u64(i as u64, width), v.to_vec()))
                .collect(),
        )
    }

    /// Soundness: the bound never exceeds the eigensolver's least
    /// eigenvalue, at every Choi shape the PSD step admits and across
    /// coefficient scales — including blocks with almost no mass and one
    /// dominant coefficient, where the bound is far below zero.
    #[test]
    fn screen_bound_never_exceeds_least_eigenvalue() {
        let mut rng = StdRng::seed_from_u64(5077);
        for (qi, qo) in [
            (0, 1),
            (1, 0),
            (1, 1),
            (0, 2),
            (2, 0),
            (1, 2),
            (2, 1),
            (0, 3),
            (3, 0),
        ] {
            let d = 1usize << (qi + qo);
            let dim = d * d;
            let do_ = (1usize << qo) as f64;
            let basis: Vec<CMat> = (0..dim).map(|idx| basis_matrix(idx, qi, qo)).collect();
            for case in 0..120 {
                let scale = [1e-6, 1e-3, 1.0, 40.0][case % 4];
                let mut coeffs: Vec<f64> = (0..dim)
                    .map(|_| scale * (rng.random::<f64>() - 0.5))
                    .collect();
                match case % 3 {
                    // A physical-looking block: mass dominates.
                    0 => coeffs[0] = scale * (0.5 + (d as f64) * rng.random::<f64>()),
                    // Adversarial: no mass, one large coefficient.
                    1 => {
                        coeffs[0] = 1e-15 * rng.random::<f64>();
                        coeffs[1 + case % (dim - 1)] = 10.0 * scale;
                    }
                    _ => {}
                }
                let bound = screen_lower_bound(&coeffs, d, do_);
                let least = qmath::eigh(&choi_block(&coeffs, &basis, d, do_)).values[0];
                let norm = coeffs.iter().map(|t| t * t).sum::<f64>().sqrt();
                assert!(
                    bound <= least + 1e-12 * (1.0 + norm),
                    "shape ({qi},{qo}) case {case}: bound {bound} above λ_min {least}"
                );
            }
        }
    }

    /// Tightness: for `J = α·𝟙 − β·|0⟩⟨0|` (one eigenvalue `α − β` below
    /// `d − 1` equal ones) the bound *is* the least eigenvalue.
    #[test]
    fn screen_bound_is_tight_for_one_low_eigenvalue() {
        for (qi, qo) in [(0, 1), (1, 1), (2, 0), (1, 2), (0, 3)] {
            let d = 1usize << (qi + qo);
            let do_ = (1usize << qo) as f64;
            for (alpha, beta) in [(0.3, 0.1), (0.02, 0.5), (1.0, 0.0)] {
                let mut j = CMat::identity(d).scale(C64::real(alpha));
                j[(0, 0)] = C64::real(alpha - beta);
                // t_idx = d_o · Tr[B_idx·J] / d inverts the Choi expansion.
                let coeffs: Vec<f64> = (0..d * d)
                    .map(|idx| do_ * basis_matrix(idx, qi, qo).mul(&j).trace().re / d as f64)
                    .collect();
                let bound = screen_lower_bound(&coeffs, d, do_);
                assert!(
                    (bound - (alpha - beta)).abs() < 1e-12,
                    "shape ({qi},{qo}), α {alpha}, β {beta}: bound {bound}"
                );
            }
        }
    }

    /// A block whose bound sits inside the margin above
    /// `-negativity_tolerance` is not trusted to the screen: it goes to
    /// the eigensolver and comes out as the reference leaves it. Its
    /// neighbours pin both other outcomes — comfortably physical
    /// (screened) and just past the tolerance (projected).
    #[test]
    fn blocks_inside_the_screen_margin_take_the_eigensolver_path() {
        let opts = MlftOptions::default();
        let tol = opts.negativity_tolerance;
        // d = 2: λ_min = (t_0 − |r|)/2 exactly.
        let in_margin = [0.5, 0.0, 0.0, 0.5 + 2.0 * tol - 1e-9];
        let bound = screen_lower_bound(&in_margin, 2, 2.0);
        assert!(
            (-tol..-tol + SCREEN_MARGIN).contains(&bound),
            "bound {bound} must land inside the margin"
        );
        let tensor = single_output_tensor(&[
            in_margin,
            [0.3, 0.1, 0.0, 0.1],
            [0.2, 0.0, 0.2 + 2.0 * tol + 1e-6, 0.0],
        ]);
        for threads in [1usize, 2] {
            let moved = assert_matches_reference(
                std::slice::from_ref(&tensor),
                &opts,
                threads,
                &format!("margin block, {threads} threads"),
            );
            assert!(
                moved > 0.0,
                "the block past the tolerance must be projected"
            );
        }
    }

    /// NaN and ∞ coefficients are a typed error wherever they sit: in a
    /// block the screen reads, in the mass, or in a fragment whose PSD
    /// step is skipped — never a panicked eigenvalue sort or a tensor
    /// silently normalized to NaN.
    #[test]
    fn non_finite_coefficients_are_a_typed_error() {
        let skip_psd = MlftOptions {
            max_cut_ends: 0,
            ..MlftOptions::default()
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for idx in 0..4 {
                let mut block = [0.5, 0.1, 0.0, 0.2];
                block[idx] = bad;
                let tensor = single_output_tensor(&[[0.5, 0.0, 0.1, 0.0], block]);
                for opts in [MlftOptions::default(), skip_psd.clone()] {
                    let err = correct_tensor(&mut tensor.clone(), &opts).unwrap_err();
                    assert_eq!(
                        err,
                        MlftError::NonFinite,
                        "{bad} at idx {idx}, max_cut_ends {}",
                        opts.max_cut_ends
                    );
                }
            }
        }
        assert!(MlftError::NonFinite.to_string().contains("non-finite"));
    }

    /// On the pool a non-finite fragment is the same typed error as in the
    /// sequential loop — the first failure in fragment order, ahead of a
    /// later vanishing-mass fragment — and the workers stay usable.
    #[test]
    fn non_finite_fragment_is_the_same_typed_error_on_the_pool() {
        let good = single_output_tensor(&[[0.5, 0.1, 0.0, 0.2], [0.5, 0.0, 0.1, -0.2]]);
        let poisoned = single_output_tensor(&[[0.5, 0.1, 0.0, 0.2], [0.5, f64::NAN, 0.1, 0.0]]);
        let massless = single_output_tensor(&[[0.0, 0.0, 0.0, 0.0]]);
        let template = vec![good.clone(), poisoned, good.clone(), massless, good.clone()];
        for threads in [1usize, 2] {
            let err = correct_tensors(&mut template.clone(), &MlftOptions::default(), threads)
                .unwrap_err();
            assert_eq!(err, MlftError::NonFinite, "{threads} threads");
        }
        let healthy = vec![good.clone(), good.clone(), good];
        assert_matches_reference(&healthy, &MlftOptions::default(), 2, "pool after the error");
    }

    /// Faults injected at fragments 2 and 5 — panics, errors, or one of
    /// each — fail the correction with fragment 2's typed error at every
    /// thread count, whichever fault fires first in time, and the workers
    /// stay usable.
    #[test]
    fn faulting_fragments_report_the_lowest_index() {
        use faultkit::{FaultKind, FaultPlan};
        let good = single_output_tensor(&[[0.5, 0.1, 0.0, 0.2], [0.5, 0.0, 0.1, -0.2]]);
        let template = vec![good; 7];
        for (at2, at5) in [
            (FaultKind::Panic, FaultKind::Panic),
            (FaultKind::Error, FaultKind::Panic),
            (FaultKind::Panic, FaultKind::Error),
        ] {
            let plan = FaultPlan::new()
                .inject(0, Stage::Mlft, 2, at2.clone())
                .inject(0, Stage::Mlft, 5, at5);
            let opts = MlftOptions {
                supervisor: Supervisor::for_job(0).with_faults(std::sync::Arc::new(plan)),
                ..MlftOptions::default()
            };
            for threads in [1usize, 2, 8] {
                let err = correct_tensors(&mut template.clone(), &opts, threads).unwrap_err();
                let site = "job 0 stage mlft task 2";
                match (&at2, &err) {
                    (FaultKind::Panic, MlftError::Panicked(p)) => {
                        assert_eq!(p.task, 2, "{threads} threads");
                        assert!(p.payload.contains(site), "{threads} threads: {err}");
                    }
                    (FaultKind::Error, MlftError::Injected(message)) => {
                        assert_eq!(message, site, "{threads} threads");
                    }
                    _ => panic!("{at2} at fragment 2, {threads} threads: got {err}"),
                }
            }
        }
        for threads in [1usize, 2, 8] {
            assert_matches_reference(
                &template,
                &MlftOptions::default(),
                threads,
                &format!("pool after the faults, {threads} threads"),
            );
        }
    }

    /// The reference path surfaces the same vanishing-mass error.
    #[test]
    fn reference_correction_surfaces_vanishing_mass() {
        let mut c = Circuit::new(1);
        c.t(0).add_gate(qcir::Gate::I, &[0]);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let down = cut
            .fragments
            .iter()
            .find(|f| f.quantum_inputs.len() == 1)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let eval = EvalOptions {
            mode: EvalMode::Exact,
            ..Default::default()
        };
        let mut t =
            build_fragment_tensor(down, &eval, &TensorOptions::default(), &mut rng).unwrap();
        let zeroed: Vec<(Bits, Vec<f64>)> = t
            .entries()
            .into_iter()
            .map(|(b, v)| (b, vec![0.0; v.len()]))
            .collect();
        for (b, v) in zeroed {
            t.set_entry(b, v);
        }
        let mut reference = t.clone();
        let e1 = correct_tensor(&mut t, &MlftOptions::default()).unwrap_err();
        let e2 = reference_correct_btreemap(&mut reference, &MlftOptions::default()).unwrap_err();
        assert_eq!(e1, e2);
    }

    #[test]
    fn single_rebuild_matches_former_double_rebuild() {
        // The folded normalization must reproduce the former
        // rebuild(1.0)-then-rebuild(1/mass) sequence bit for bit.
        let mut c = Circuit::new(1);
        c.h(0).t(0).h(0);
        let eval = EvalOptions {
            mode: EvalMode::Sampled { shots: 200 },
            ..Default::default()
        };
        for raw in tensors_for(&c, &eval, 23) {
            let mut fixed = raw.clone();
            correct_tensor(&mut fixed, &MlftOptions::default()).unwrap();
            // Former semantics, replayed by hand on the raw tensor with a
            // blanket projection disabled (max_cut_ends: 0 skips PSD, so
            // both paths reduce to pure normalization).
            let mut reference = raw.clone();
            reference.rebuild_derived(1.0);
            let mass = reference.total(0);
            assert!(mass > 1e-12);
            reference.rebuild_derived(1.0 / mass);
            let mut pure = raw.clone();
            correct_tensor(
                &mut pure,
                &MlftOptions {
                    max_cut_ends: 0,
                    ..Default::default()
                },
            )
            .unwrap();
            for (b, v) in reference.entries() {
                for (i, &x) in v.iter().enumerate() {
                    assert!(
                        pure.value(&b, i) == x,
                        "normalization drifted at {b}, idx {i}"
                    );
                }
            }
            let _ = fixed;
        }
    }
}
