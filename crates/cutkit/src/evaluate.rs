//! Fragment evaluation: dispatching variants to simulator backends.
//!
//! This is SuperSim's fragment evaluator (paper §V-B): Clifford fragments
//! go to the stabilizer simulator ([`stabsim::TableauSim`] /
//! [`stabsim::FrameSim`] when noisy), everything else goes to the exact
//! statevector simulator ([`svsim::StateVec`]).

use crate::cut::Fragment;
use crate::variants::{variant_circuit, Variant};
use faultkit::{Interrupt, Supervisor};
use qcir::Bits;
use rand::Rng;
use std::fmt;

/// How fragments are evaluated.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EvalMode {
    /// Exact distributions (machine-precision "strong simulation").
    Exact,
    /// Finite-shot sampling, the paper's default protocol (5000 shots).
    Sampled {
        /// Shots per fragment variant.
        shots: usize,
    },
}

/// Options controlling fragment evaluation.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Evaluation mode.
    pub mode: EvalMode,
    /// Evaluate Clifford fragments exactly even in sampled mode (the
    /// strongest form of the paper's §IX "fewer shots" optimization:
    /// `⟨P⟩ ∈ {-1,0,+1}` read off the tableau at zero shots). Requires the
    /// support to fit `exact_support_limit`.
    pub exact_clifford: bool,
    /// Largest affine-support dimension enumerated exactly (`2^dim`
    /// outcomes).
    pub exact_support_limit: usize,
    /// Supervision context, consulted once per evaluation chunk
    /// ([`crate::evaluate_planned_chunk`]): cooperative cancellation and
    /// deadlines surface as [`EvalError::Interrupted`], scheduled fault
    /// injections as [`EvalError::Injected`] (or a deliberate panic). The
    /// default (unsupervised) context passes every checkpoint and adds no
    /// measurable overhead.
    pub supervisor: Supervisor,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            mode: EvalMode::Sampled { shots: 5000 },
            exact_clifford: false,
            exact_support_limit: 16,
            supervisor: Supervisor::new(),
        }
    }
}

/// Errors surfaced while evaluating a fragment variant.
#[derive(Debug, Clone)]
pub enum EvalError {
    /// A non-Clifford fragment is too wide for dense simulation.
    FragmentTooWide(usize),
    /// Exact mode requested but the Clifford fragment's output support is
    /// too large to enumerate.
    SupportTooLarge {
        /// Support dimension (the distribution has `2^dim` points).
        dim: usize,
        /// The configured limit.
        limit: usize,
    },
    /// Exact mode cannot evaluate noisy fragments.
    NoiseInExactMode,
    /// A fragment flagged [`Fragment::is_clifford`] holds a non-Clifford
    /// gate, so the stabilizer simulator refused it.
    NonClifford(stabsim::NonCliffordError),
    /// A supervision checkpoint stopped the evaluation (cooperative
    /// cancellation or a deadline — see [`EvalOptions::supervisor`]).
    Interrupted(Interrupt),
    /// A scheduled fault-injection error fired at this evaluation site
    /// (chaos testing — see [`faultkit::FaultPlan`]).
    Injected(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::FragmentTooWide(n) => {
                write!(
                    f,
                    "non-Clifford fragment with {n} qubits exceeds statevector limit"
                )
            }
            EvalError::SupportTooLarge { dim, limit } => write!(
                f,
                "Clifford fragment support dimension {dim} exceeds exact enumeration limit {limit}"
            ),
            EvalError::NoiseInExactMode => {
                write!(f, "noise channels cannot be evaluated in exact mode")
            }
            EvalError::NonClifford(e) => write!(f, "fragment flagged Clifford: {e}"),
            EvalError::Interrupted(i) => write!(f, "evaluation interrupted: {i}"),
            EvalError::Injected(site) => write!(f, "injected evaluation fault at {site}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Reusable per-worker evaluation scratch for [`evaluate_variant_into`]:
/// the outcome tally (and its hash table), the sampling scratch row, and
/// nothing else — everything the sampled hot paths would otherwise
/// allocate afresh per variant.
pub struct EvalScratch {
    counts: metrics::OutcomeCounts,
    row: Bits,
}

impl EvalScratch {
    /// An empty scratch; buffers grow to the working-set size of the
    /// first evaluations and are reused afterwards.
    pub fn new() -> Self {
        EvalScratch {
            counts: metrics::OutcomeCounts::new(),
            row: Bits::zeros(0),
        }
    }
}

impl Default for EvalScratch {
    fn default() -> Self {
        EvalScratch::new()
    }
}

/// Evaluates one variant of a fragment, returning a weighted list of
/// outcomes over the fragment's local qubits (probabilities for exact mode,
/// empirical frequencies for sampled mode).
///
/// Allocates its scratch and output buffers afresh; hot loops that
/// evaluate many variants should use [`evaluate_variant_into`] with
/// per-worker buffers instead.
///
/// # Errors
///
/// Returns [`EvalError`] when the backend cannot evaluate the variant (too
/// wide, support too large to enumerate, noise in exact mode, or a
/// non-Clifford gate in a fragment flagged Clifford).
pub fn evaluate_variant(
    fragment: &Fragment,
    variant: &Variant,
    options: &EvalOptions,
    rng: &mut impl Rng,
) -> Result<Vec<(Bits, f64)>, EvalError> {
    let mut out = Vec::new();
    evaluate_variant_into(
        fragment,
        variant,
        options,
        rng,
        &mut EvalScratch::new(),
        &mut out,
    )?;
    Ok(out)
}

/// [`evaluate_variant`] into caller-provided buffers: `out` is replaced by
/// the variant's weighted outcomes (on an error its contents are
/// unspecified); `scratch` carries the tally table and sampling row across
/// calls so the per-variant hot loop re-allocates neither, and the sampled
/// paths overwrite the `Bits` rows `out` already holds instead of cloning
/// one per outcome.
///
/// # Errors
///
/// Returns [`EvalError`] when the backend cannot evaluate the variant (too
/// wide, support too large to enumerate, noise in exact mode, or a
/// non-Clifford gate in a fragment flagged Clifford).
pub fn evaluate_variant_into(
    fragment: &Fragment,
    variant: &Variant,
    options: &EvalOptions,
    rng: &mut impl Rng,
    scratch: &mut EvalScratch,
    out: &mut Vec<(Bits, f64)>,
) -> Result<(), EvalError> {
    let circuit = variant_circuit(fragment, variant);
    let clifford = fragment.is_clifford; // prep/rotation ops are Clifford
    let noisy = circuit.has_noise();

    if clifford {
        if noisy {
            let EvalMode::Sampled { shots } = options.mode else {
                return Err(EvalError::NoiseInExactMode);
            };
            let samples =
                stabsim::FrameSim::sample(&circuit, shots, rng).map_err(EvalError::NonClifford)?;
            count_samples_into(&samples, scratch, out);
            return Ok(());
        }
        let support = stabsim::TableauSim::run(&circuit, rng)
            .map_err(EvalError::NonClifford)?
            .support();
        let dim = support.dim();
        // Exact mode enumerates the support; so does sampled mode when the
        // zero-shot optimization (`exact_clifford`) is on and it fits.
        let enumerate = options.mode == EvalMode::Exact || options.exact_clifford;
        if enumerate && dim <= options.exact_support_limit {
            let p = 1.0 / (1u64 << dim) as f64;
            out.clear();
            out.extend(support.enumerate().into_iter().map(|b| (b, p)));
            return Ok(());
        }
        // A support too large to enumerate is a hard error in exact mode;
        // the merely opportunistic zero-shot path falls through to
        // sampling.
        let EvalMode::Sampled { shots } = options.mode else {
            return Err(EvalError::SupportTooLarge {
                dim,
                limit: options.exact_support_limit,
            });
        };
        // Bulk sampling through the counting path reuses the worker's
        // tally table and scratch row instead of allocating per variant
        // (let alone per shot).
        scratch.counts.clear();
        support.sample_counts_scratch(shots, rng, &mut scratch.counts, &mut scratch.row);
        counts_to_frequencies_into(&scratch.counts, shots, out);
        Ok(())
    } else {
        if circuit.num_qubits() > svsim::MAX_QUBITS {
            return Err(EvalError::FragmentTooWide(circuit.num_qubits()));
        }
        match options.mode {
            EvalMode::Exact => {
                if noisy {
                    return Err(EvalError::NoiseInExactMode);
                }
                let sv = svsim::StateVec::run(&circuit)
                    .map_err(|_| EvalError::FragmentTooWide(circuit.num_qubits()))?;
                out.clear();
                out.extend(sv.distribution(1e-14));
                Ok(())
            }
            EvalMode::Sampled { shots } => {
                let sv = if noisy {
                    svsim::StateVec::run_noisy(&circuit, rng)
                } else {
                    svsim::StateVec::run(&circuit)
                }
                .map_err(|_| EvalError::FragmentTooWide(circuit.num_qubits()))?;
                let nq = circuit.num_qubits();
                if (1..=20).contains(&nq) {
                    // Index-tally sampling: same RNG stream and outcome
                    // multiset as `sample`, without materializing a `Bits`
                    // per shot. Gated on width so the 2^n tally stays small.
                    scratch.counts.clear();
                    if scratch.row.len() != nq {
                        scratch.row = Bits::zeros(nq);
                    }
                    for (idx, count) in sv.sample_index_counts(shots, rng) {
                        scratch.row.copy_from_words(&[idx]);
                        scratch.counts.record_n(&scratch.row, count);
                    }
                    counts_to_frequencies_into(&scratch.counts, shots, out);
                } else {
                    count_samples_into(&sv.sample(shots, rng), scratch, out);
                }
                Ok(())
            }
        }
    }
}

/// Collapses samples into `(outcome, frequency)` pairs in deterministic
/// (lexicographic) order so downstream accumulation is bit-reproducible.
/// Tallied by interned id (`O(1)` per sample) through the worker's reused
/// table instead of the former per-sample ordered-map walk; the sort
/// happens once at emission.
fn count_samples_into(samples: &[Bits], scratch: &mut EvalScratch, out: &mut Vec<(Bits, f64)>) {
    scratch.counts.clear();
    for s in samples {
        scratch.counts.record(s);
    }
    counts_to_frequencies_into(&scratch.counts, samples.len(), out);
}

/// Converts an outcome tally to frequencies, replacing `out`'s contents in
/// lexicographic order (bit-identical to the former `BTreeMap<Bits,
/// usize>` path). Rows `out` already holds are overwritten in place — a
/// word copy when the width matches, as it does from one variant of a
/// fragment to the next — so a worker allocates a row only when a variant
/// has more distinct outcomes than any before it.
fn counts_to_frequencies_into(
    counts: &metrics::OutcomeCounts,
    shots: usize,
    out: &mut Vec<(Bits, f64)>,
) {
    let total = shots.max(1) as f64;
    out.truncate(counts.len());
    for (n, (b, c)) in counts.iter_sorted().enumerate() {
        let freq = c as f64 / total;
        match out.get_mut(n) {
            Some((row, p)) => {
                if row.len() == b.len() {
                    row.copy_from(b);
                } else {
                    row.clone_from(b);
                }
                *p = freq;
            }
            None => out.push((b.clone(), freq)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{cut_circuit, CutStrategy};
    use crate::variants::enumerate_variants;
    use qcir::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn exact_clifford_fragment_distribution_sums_to_one() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let cliff = cut.fragments.iter().find(|f| f.is_clifford).unwrap();
        let opts = EvalOptions {
            mode: EvalMode::Exact,
            ..Default::default()
        };
        let mut r = rng();
        for v in enumerate_variants(cliff) {
            let data = evaluate_variant(cliff, &v, &opts, &mut r).unwrap();
            let total: f64 = data.iter().map(|(_, p)| p).sum();
            assert!(
                (total - 1.0).abs() < 1e-12,
                "variant distribution not normalized"
            );
        }
    }

    #[test]
    fn sampled_mode_frequencies_sum_to_one() {
        let mut c = Circuit::new(1);
        c.h(0).t(0).h(0);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let opts = EvalOptions {
            mode: EvalMode::Sampled { shots: 100 },
            ..Default::default()
        };
        let mut r = rng();
        for f in &cut.fragments {
            for v in enumerate_variants(f) {
                let data = evaluate_variant(f, &v, &opts, &mut r).unwrap();
                let total: f64 = data.iter().map(|(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn exact_and_sampled_agree_statistically() {
        let mut c = Circuit::new(1);
        c.h(0).t(0).h(0);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let f = cut.fragments.iter().find(|f| !f.is_clifford).unwrap();
        let v = &enumerate_variants(f)[5];
        let mut r = rng();
        let exact = evaluate_variant(
            f,
            v,
            &EvalOptions {
                mode: EvalMode::Exact,
                ..Default::default()
            },
            &mut r,
        )
        .unwrap();
        let sampled = evaluate_variant(
            f,
            v,
            &EvalOptions {
                mode: EvalMode::Sampled { shots: 40_000 },
                ..Default::default()
            },
            &mut r,
        )
        .unwrap();
        for (b, p) in &exact {
            let q = sampled
                .iter()
                .find(|(sb, _)| sb == b)
                .map(|(_, q)| *q)
                .unwrap_or(0.0);
            assert!(
                (p - q).abs() < 0.02,
                "outcome {b}: exact {p} vs sampled {q}"
            );
        }
    }

    #[test]
    fn exact_clifford_override_in_sampled_mode() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let cliff = cut.fragments.iter().find(|f| f.is_clifford).unwrap();
        let opts = EvalOptions {
            mode: EvalMode::Sampled { shots: 10 },
            exact_clifford: true,
            exact_support_limit: 16,
            ..Default::default()
        };
        let mut r = rng();
        let v = &enumerate_variants(cliff)[0];
        let data = evaluate_variant(cliff, v, &opts, &mut r).unwrap();
        // Exact probabilities despite only 10 shots configured: all entries
        // must be exact powers of 1/2^dim.
        let total: f64 = data.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for (_, p) in &data {
            let inv = 1.0 / p;
            assert!(
                (inv - inv.round()).abs() < 1e-9,
                "non-dyadic probability {p}"
            );
        }
    }

    /// A hand-built fragment flagged Clifford that holds a `T`: both
    /// stabilizer call sites (tableau, and the frame simulator when noisy)
    /// return the typed error instead of panicking.
    #[test]
    fn mislabeled_clifford_fragment_is_a_typed_error() {
        let mislabeled = |noisy: bool| {
            let mut circuit = Circuit::new(1);
            circuit.h(0);
            if noisy {
                circuit.add_noise(qcir::NoiseChannel::BitFlip(0.1), &[0]);
            }
            circuit.t(0);
            Fragment {
                circuit,
                circuit_inputs: vec![0],
                quantum_inputs: vec![],
                circuit_outputs: vec![(0, 0)],
                quantum_outputs: vec![],
                is_clifford: true,
            }
        };
        let sampled = EvalOptions {
            mode: EvalMode::Sampled { shots: 10 },
            ..Default::default()
        };
        let exact = EvalOptions {
            mode: EvalMode::Exact,
            ..Default::default()
        };
        for (fragment, opts) in [
            (mislabeled(false), &sampled),
            (mislabeled(false), &exact),
            (mislabeled(true), &sampled),
        ] {
            let variants = enumerate_variants(&fragment);
            assert_eq!(variants.len(), 1);
            match evaluate_variant(&fragment, &variants[0], opts, &mut rng()) {
                Err(EvalError::NonClifford(e)) => assert_eq!(e.name, "T"),
                other => panic!("expected NonClifford, got {other:?}"),
            }
        }
    }

    /// A worker's outcome rows are overwritten in place from one variant
    /// to the next. Whatever the buffers held before — wider rows, more of
    /// them, fewer — a variant emits exactly the rows a fresh scratch
    /// does: a 1-qubit fragment after a 72-qubit one, and back.
    #[test]
    fn counts_rows_are_reused_across_widths() {
        let mut wide = Circuit::new(72);
        for q in 0..72 {
            wide.h(q);
        }
        for q in 1..72 {
            wide.cz(q - 1, q);
        }
        wide.t(71);
        let mut narrow = Circuit::new(1);
        narrow.h(0).t(0).h(0);
        let fragments = |c: &Circuit| cut_circuit(c, CutStrategy::default()).unwrap().fragments;
        let (wide, narrow) = (fragments(&wide), fragments(&narrow));
        let wide = wide.iter().find(|f| f.num_local_qubits() == 72).unwrap();
        let sampled = |shots| EvalOptions {
            mode: EvalMode::Sampled { shots },
            ..Default::default()
        };

        let mut scratch = EvalScratch::new();
        let mut out = Vec::new();
        let mut check = |fragment: &Fragment, shots: usize, seed: u64| {
            for v in enumerate_variants(fragment) {
                let fresh = evaluate_variant(
                    fragment,
                    &v,
                    &sampled(shots),
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
                evaluate_variant_into(
                    fragment,
                    &v,
                    &sampled(shots),
                    &mut StdRng::seed_from_u64(seed),
                    &mut scratch,
                    &mut out,
                )
                .unwrap();
                assert_eq!(out, fresh, "{} qubits", fragment.num_local_qubits());
            }
        };
        check(wide, 60, 1); // 60 distinct 72-bit rows
        for f in &narrow {
            check(f, 60, 2); // at most two 1-bit rows: shrink and re-width
        }
        check(wide, 20, 3); // grow again, fewer rows than the first time
        check(wide, 90, 4); // and past the high-water mark
    }

    #[test]
    fn noise_rejected_in_exact_mode() {
        let mut c = Circuit::new(1);
        c.add_noise(qcir::NoiseChannel::BitFlip(0.5), &[0]);
        c.t(0);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let mut r = rng();
        let mut saw_noise_error = false;
        for f in &cut.fragments {
            for v in enumerate_variants(f) {
                let res = evaluate_variant(
                    f,
                    &v,
                    &EvalOptions {
                        mode: EvalMode::Exact,
                        ..Default::default()
                    },
                    &mut r,
                );
                if matches!(res, Err(EvalError::NoiseInExactMode)) {
                    saw_noise_error = true;
                }
            }
        }
        assert!(saw_noise_error);
    }
}
