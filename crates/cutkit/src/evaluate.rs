//! Fragment evaluation: dispatching variants to simulator backends.
//!
//! This is SuperSim's fragment evaluator (paper §V-B): Clifford fragments
//! go to the stabilizer simulator ([`stabsim::TableauSim`] /
//! [`stabsim::FrameSim`] when noisy), everything else goes to the exact
//! statevector simulator ([`svsim::StateVec`]).
//!
//! # Enumerate or sample
//!
//! A variant's rows are its exact distribution whenever those rows are no
//! more than the shots sampling would draw (the paper's §IX "fewer shots"
//! optimization, taken as a rule rather than an option):
//!
//! * a noiseless Clifford variant whose affine support has `2^dim ≤ shots`
//!   points (and `dim ≤ 16`) emits every point at `2^-dim`;
//! * a noiseless non-Clifford variant whose statevector has at most
//!   `shots` probabilities above `1e-14` emits those probabilities.
//!
//! Larger supports and noisy variants ([`stabsim::FrameSim`],
//! [`svsim::StateVec::run_noisy`] trajectories) are sampled. Exact mode
//! enumerates every variant and fails on a Clifford support past `dim 16`.
//! Enumerated rows carry no shot noise, so the exact zeros of stabilizer
//! and `T` tensors survive into the contraction, where the sparse sweep
//! skips the Pauli assignments they kill.
//!
//! # One body run per preparation
//!
//! A fragment's `4^qi · 3^qo` variants differ only in the preparation
//! gates before its body and the basis rotations after it. So the `3^qo`
//! noiseless variants of one preparation share one body run: the first
//! of them a worker evaluates runs `|0…0⟩` through the prep ops and the
//! body — a [`stabsim::TableauSim`] for a Clifford fragment, a
//! [`svsim::StateVec`] otherwise — and leaves that post-body state in the
//! worker's scratch, keyed by fragment index and prep index. Each variant
//! of the preparation then clones it, applies its own rotations, and
//! enumerates or samples as above; the last basis (`3^qo − 1`) takes the
//! state instead of a copy, so a `qo = 0` fragment never clones.
//!
//! No bit moves. Every state gets the same gates in the same order as a
//! run of the variant's whole circuit would apply (prep ops, body,
//! rotations); noiseless gates draw nothing from the variant's RNG; and a
//! cache hit or miss changes only the time taken, so the result does not
//! depend on how chunks split a preparation's variants or which worker
//! runs them. Noisy variants do not share: each is still one trajectory
//! or frame sample of the whole variant circuit, drawn with the variant's
//! RNG.
//!
//! The cost is memory: one cached state per worker, plus a working copy
//! while a preparation's variants run — `2 · 2^n · 16` bytes for an
//! `n`-qubit statevector fragment (64 KiB each at 12 qubits), a few
//! `n²/32`-word bit planes for a tableau.

use crate::cut::Fragment;
use crate::variants::{variant_circuit, Variant};
use faultkit::{Fault, Interrupt, Supervisor, TaskPanic};
use qcir::{Bits, OpKind, Operation};
use rand::Rng;
use stabsim::NonCliffordError;
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
    /// Supervision context, consulted once per evaluation chunk
    /// ([`crate::evaluate_fragment_tensors`]): cooperative cancellation and
    /// deadlines surface as [`EvalError::Interrupted`], scheduled fault
    /// injections as [`EvalError::Injected`] (or a deliberate panic, which
    /// becomes [`EvalError::Panicked`]). The default (unsupervised) context
    /// passes every checkpoint and adds no measurable overhead.
    pub supervisor: Supervisor,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            mode: EvalMode::Sampled { shots: 5000 },
            supervisor: Supervisor::new(),
        }
    }
}

/// Largest affine-support dimension a Clifford variant is enumerated at
/// (`2^16` outcomes): the hard limit in exact mode, and a cap on top of the
/// shot budget in sampled mode.
const MAX_ENUMERATED_DIM: usize = 16;

/// Probabilities at or below this are dropped from an enumerated
/// statevector distribution.
const SV_PROBABILITY_TOL: f64 = 1e-14;

/// Errors surfaced while evaluating a fragment variant.
#[derive(Debug, Clone)]
pub enum EvalError {
    /// A non-Clifford fragment is too wide for dense simulation.
    FragmentTooWide(usize),
    /// Exact mode requested but the Clifford fragment's output support is
    /// too large to enumerate (more than `2^16` points).
    SupportTooLarge {
        /// Support dimension (the distribution has `2^dim` points).
        dim: usize,
    },
    /// Exact mode cannot evaluate noisy fragments.
    NoiseInExactMode,
    /// A fragment flagged [`Fragment::is_clifford`] holds a non-Clifford
    /// gate, so the stabilizer simulator refused it.
    NonClifford(NonCliffordError),
    /// A supervision checkpoint stopped the evaluation (cooperative
    /// cancellation or a deadline — see [`EvalOptions::supervisor`]).
    Interrupted(Interrupt),
    /// A scheduled fault-injection error fired at this evaluation site
    /// (chaos testing — see [`faultkit::FaultPlan`]).
    Injected(String),
    /// An evaluation chunk panicked; the panic was caught at the chunk
    /// boundary and names the chunk.
    Panicked(TaskPanic),
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
            EvalError::SupportTooLarge { dim } => write!(
                f,
                "Clifford fragment support dimension {dim} exceeds exact enumeration limit \
                 {MAX_ENUMERATED_DIM}"
            ),
            EvalError::NoiseInExactMode => {
                write!(f, "noise channels cannot be evaluated in exact mode")
            }
            EvalError::NonClifford(e) => write!(f, "fragment flagged Clifford: {e}"),
            EvalError::Interrupted(i) => write!(f, "evaluation interrupted: {i}"),
            EvalError::Injected(site) => write!(f, "injected evaluation fault at {site}"),
            EvalError::Panicked(p) => {
                write!(f, "evaluation chunk {} panicked: {}", p.task, p.payload)
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<Fault> for EvalError {
    fn from(fault: Fault) -> Self {
        match fault {
            Fault::Interrupted(i) => EvalError::Interrupted(i),
            Fault::Injected(site) => EvalError::Injected(site),
        }
    }
}

impl From<TaskPanic> for EvalError {
    fn from(p: TaskPanic) -> Self {
        EvalError::Panicked(p)
    }
}

/// Reusable per-worker evaluation scratch for [`evaluate_variant_into`]:
/// the sampler's working memory (its byte tables and drawn rows), the
/// row that enumeration writes each point through, and the post-body
/// state of the last preparation run — everything the hot paths would
/// otherwise allocate or recompute afresh per variant. The state's key
/// holds a fragment index, so a scratch serves one fragment slice.
pub(crate) struct EvalScratch {
    buf: Vec<u64>,
    row: Bits,
    /// `((fragment index, prep index), state after prep ops and body)`.
    prepared: Option<((usize, usize), Prepared)>,
}

impl EvalScratch {
    /// An empty scratch; buffers grow to the working-set size of the
    /// first evaluations and are reused afterwards.
    pub(crate) fn new() -> Self {
        EvalScratch {
            buf: Vec::new(),
            row: Bits::zeros(0),
            prepared: None,
        }
    }
}

/// A noiseless fragment state: a tableau for a Clifford fragment, a
/// statevector otherwise.
#[derive(Clone)]
enum Prepared {
    Tableau(stabsim::TableauSim),
    State(svsim::StateVec),
}

impl Prepared {
    /// Applies the gates `ops` in order, as the backend's `run` would: on
    /// a tableau a non-Clifford gate is an error at its position in `ops`.
    fn apply<'a>(
        &mut self,
        ops: impl IntoIterator<Item = &'a Operation>,
    ) -> Result<(), NonCliffordError> {
        for (op_index, op) in ops.into_iter().enumerate() {
            let OpKind::Gate(gate) = op.kind else {
                unreachable!("only noiseless variants branch from a prepared state");
            };
            match self {
                Prepared::State(sv) => sv.apply_gate(gate, &op.qubits),
                Prepared::Tableau(sim) => {
                    let name = || NonCliffordError {
                        op_index,
                        name: gate.name(),
                    };
                    sim.apply(gate.to_clifford().ok_or_else(name)?, &op.qubits);
                }
            }
        }
        Ok(())
    }
}

/// Evaluates one variant of a fragment, returning a weighted list of
/// outcomes over the fragment's local qubits: the variant's exact
/// probabilities when its distribution is enumerated (always in exact
/// mode; in sampled mode whenever it has no more points than the shot
/// budget), empirical frequencies otherwise.
///
/// Runs the variant alone into fresh buffers; the tensor builders
/// ([`crate::evaluate_fragment_tensors`]) share one body run among the
/// variants of a preparation, with bit-identical rows.
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
    let scratch = &mut EvalScratch::new();
    evaluate_variant_into(fragment, 0, variant, options, rng, scratch, &mut out)?;
    Ok(out)
}

/// [`evaluate_variant`] of fragment number `fi` into caller-provided
/// buffers: `out` is replaced by the variant's weighted outcomes (on an
/// error its contents are unspecified); `scratch` carries the sampler's
/// buffer, the row buffer and the last preparation's post-body state
/// across calls, and every path overwrites the `Bits` rows `out` already
/// holds instead of cloning one per outcome.
///
/// Returns `true` when the rows were enumerated — the variant's exact
/// distribution — and `false` when they are sampled frequencies (see the
/// module docs for which variants enumerate).
///
/// # Errors
///
/// As [`evaluate_variant`].
pub(crate) fn evaluate_variant_into(
    fragment: &Fragment,
    fi: usize,
    variant: &Variant,
    options: &EvalOptions,
    rng: &mut impl Rng,
    scratch: &mut EvalScratch,
    out: &mut Vec<(Bits, f64)>,
) -> Result<bool, EvalError> {
    let nq = fragment.num_local_qubits();
    if !fragment.is_clifford && nq > svsim::MAX_QUBITS {
        return Err(EvalError::FragmentTooWide(nq));
    }
    let noisy = fragment.circuit.has_noise();
    let sv = if noisy {
        let EvalMode::Sampled { shots } = options.mode else {
            return Err(EvalError::NoiseInExactMode);
        };
        let circuit = variant_circuit(fragment, variant);
        if fragment.is_clifford {
            // Prep/rotation ops are Clifford, so the variant stays on the
            // stabilizer backends.
            let samples =
                stabsim::FrameSim::sample(&circuit, shots, rng).map_err(EvalError::NonClifford)?;
            count_samples_into(samples, out);
            return Ok(false);
        }
        svsim::StateVec::run_noisy(&circuit, rng).map_err(|_| EvalError::FragmentTooWide(nq))?
    } else {
        match branch(fragment, fi, variant, scratch)? {
            Prepared::State(sv) => sv,
            Prepared::Tableau(sim) => {
                return support_rows(&sim.support(), options, rng, scratch, out)
            }
        }
    };
    let probabilities = || {
        sv.amplitudes()
            .iter()
            .map(|a| a.norm_sqr())
            .enumerate()
            .filter(|&(_, p)| p > SV_PROBABILITY_TOL)
    };
    let shots = match options.mode {
        // A noisy statevector is one sampled trajectory, never the
        // variant's distribution.
        EvalMode::Sampled { shots } if noisy || probabilities().nth(shots).is_some() => shots,
        _ => {
            let mut n = 0;
            for (idx, p) in probabilities() {
                // `nq ≤ MAX_QUBITS < 64`: a row is one word, or none at
                // zero width.
                set_row(out, n, nq, &[idx as u64][..nq.div_ceil(64)], p);
                n += 1;
            }
            out.truncate(n);
            return Ok(true);
        }
    };
    if (1..=20).contains(&nq) {
        // Index-tally sampling: same RNG stream and outcome multiset as
        // `sample`, without materializing a `Bits` per shot. Gated on
        // width so the 2^n tally stays small. The tally ascends by index,
        // which is the order of one-word rows.
        let total = shots as f64;
        let mut n = 0;
        for (idx, count) in sv.sample_index_counts(shots, rng) {
            set_row(out, n, nq, &[idx], count as f64 / total);
            n += 1;
        }
        out.truncate(n);
    } else {
        count_samples_into(sv.sample(shots, rng), out);
    }
    Ok(false)
}

/// The state noiseless variant `variant` of fragment `fi` is measured in:
/// its preparation's post-body state — taken from `scratch`, or run from
/// `|0…0⟩` through the prep ops and the body and left there — with the
/// variant's rotations applied. A preparation's last basis takes the
/// cached state instead of a copy.
fn branch(
    fragment: &Fragment,
    fi: usize,
    variant: &Variant,
    scratch: &mut EvalScratch,
) -> Result<Prepared, EvalError> {
    let key = (fi, variant.prep_index());
    let mut state = match scratch.prepared.take() {
        Some((cached, state)) if cached == key => state,
        _ => {
            let n = fragment.num_local_qubits();
            let mut state = if fragment.is_clifford {
                Prepared::Tableau(stabsim::TableauSim::new(n))
            } else {
                Prepared::State(svsim::StateVec::new(n))
            };
            // One pass, so an error counts positions as in the variant
            // circuit.
            let inputs = fragment.quantum_inputs.iter().zip(&variant.preps);
            let preps: Vec<Operation> = inputs.flat_map(|(&(q, _), p)| p.prep_ops(q)).collect();
            let ops = preps.iter().chain(fragment.circuit.ops());
            state.apply(ops).map_err(EvalError::NonClifford)?;
            state
        }
    };
    if variant.basis_index() + 1 < 3usize.pow(variant.bases.len() as u32) {
        scratch.prepared = Some((key, state.clone()));
    }
    let outputs = fragment.quantum_outputs.iter().zip(&variant.bases);
    let rotations: Vec<Operation> = outputs.flat_map(|(&(q, _), b)| b.rotation_ops(q)).collect();
    state.apply(&rotations).expect("rotations are Clifford");
    Ok(state)
}

/// Writes a noiseless Clifford variant's rows from its affine support:
/// every point at `2^-dim` when enumerated, the sampler's tally otherwise.
/// Returns whether the rows were enumerated.
fn support_rows(
    support: &stabsim::AffineSupport,
    options: &EvalOptions,
    rng: &mut impl Rng,
    scratch: &mut EvalScratch,
    out: &mut Vec<(Bits, f64)>,
) -> Result<bool, EvalError> {
    let dim = support.dim();
    match options.mode {
        EvalMode::Exact if dim > MAX_ENUMERATED_DIM => {
            return Err(EvalError::SupportTooLarge { dim });
        }
        EvalMode::Sampled { shots } if dim > MAX_ENUMERATED_DIM || (1usize << dim) > shots => {
            // The sampler streams its sorted tally straight into the
            // rows, through the worker's reused buffer.
            let (width, total) = (support.base().len(), shots as f64);
            let mut n = 0;
            support.sample_runs(shots, rng, &mut scratch.buf, |words, count| {
                set_row(out, n, width, words, count as f64 / total);
                n += 1;
            });
            out.truncate(n);
            return Ok(false);
        }
        _ => {}
    }
    let p = 1.0 / (1u64 << dim) as f64;
    let mut n = 0;
    support.enumerate_into(&mut scratch.row, |point| {
        set_row(out, n, point.len(), point.as_words(), p);
        n += 1;
    });
    out.truncate(n);
    Ok(true)
}

/// Collapses samples into `(outcome, frequency)` rows in ascending
/// [`Bits`] order, so downstream accumulation is bit-reproducible: one
/// sort, then one row per run of equal samples.
fn count_samples_into(mut samples: Vec<Bits>, out: &mut Vec<(Bits, f64)>) {
    let total = samples.len().max(1) as f64;
    samples.sort_unstable();
    let mut n = 0;
    for run in samples.chunk_by(|a, b| a == b) {
        set_row(
            out,
            n,
            run[0].len(),
            run[0].as_words(),
            run.len() as f64 / total,
        );
        n += 1;
    }
    out.truncate(n);
}

/// Sets row `n` of `out` — at most one past its end — to the `len`-bit
/// outcome with backing words `words`, weighted `p`. A row `out` already
/// holds is overwritten in place, a word copy when the width matches, as
/// it does from one variant of a fragment to the next, so a worker
/// allocates a row only when a variant has more outcomes than any before
/// it.
fn set_row(out: &mut Vec<(Bits, f64)>, n: usize, len: usize, words: &[u64], p: f64) {
    if n == out.len() {
        out.push((Bits::zeros(len), p));
    }
    let (row, weight) = &mut out[n];
    if row.len() != len {
        *row = Bits::zeros(len);
    }
    row.copy_from_words(words);
    *weight = p;
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

    /// Under the default options (5000 shots) a small Clifford support is
    /// enumerated: every row carries the exact probability `2^-dim`.
    #[test]
    fn default_options_enumerate_small_clifford_supports() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let cliff = cut.fragments.iter().find(|f| f.is_clifford).unwrap();
        for v in enumerate_variants(cliff) {
            let mut out = Vec::new();
            let enumerated = evaluate_variant_into(
                cliff,
                0,
                &v,
                &EvalOptions::default(),
                &mut rng(),
                &mut EvalScratch::new(),
                &mut out,
            )
            .unwrap();
            assert!(enumerated);
            let p = 1.0 / out.len() as f64;
            assert!(out.len().is_power_of_two());
            assert!(out.iter().all(|&(_, q)| q == p), "non-uniform rows {out:?}");
        }
    }

    /// Evaluates one variant into fresh buffers, returning the rows and
    /// whether they were enumerated.
    fn rows(fragment: &Fragment, variant: &Variant, shots: usize) -> (Vec<(Bits, f64)>, bool) {
        let mut out = Vec::new();
        let enumerated = evaluate_variant_into(
            fragment,
            0,
            variant,
            &EvalOptions {
                mode: EvalMode::Sampled { shots },
                ..Default::default()
            },
            &mut rng(),
            &mut EvalScratch::new(),
            &mut out,
        )
        .unwrap();
        (out, enumerated)
    }

    /// The Clifford branch at its edge: `shots = 2^dim` enumerates exactly
    /// what exact mode returns, `shots = 2^dim − 1` samples.
    #[test]
    fn clifford_support_enumerates_at_two_to_the_dim_shots() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).h(2).cx(1, 2).t(2);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let cliff = cut.fragments.iter().find(|f| f.is_clifford).unwrap();
        let mut checked = 0;
        for v in enumerate_variants(cliff) {
            let support = stabsim::TableauSim::run(&variant_circuit(cliff, &v), &mut rng())
                .unwrap()
                .support();
            let points = 1usize << support.dim();
            if points < 4 {
                continue;
            }
            let exact = evaluate_variant(
                cliff,
                &v,
                &EvalOptions {
                    mode: EvalMode::Exact,
                    ..Default::default()
                },
                &mut rng(),
            )
            .unwrap();
            assert_eq!(rows(cliff, &v, points), (exact, true));
            let (sampled, enumerated) = rows(cliff, &v, points - 1);
            assert!(!enumerated, "{points} points at {} shots", points - 1);
            let total: f64 = sampled.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-12);
            checked += 1;
        }
        assert!(
            checked > 0,
            "no variant has a support of four or more points"
        );
    }

    /// The statevector branch at its edge: as many shots as nonzero
    /// probabilities enumerates them, one fewer samples.
    #[test]
    fn statevector_enumerates_at_its_support_size() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).t(0).cx(0, 1);
        let cut = cut_circuit(&c, CutStrategy::None).unwrap();
        let fragment = &cut.fragments[0];
        let variant = &enumerate_variants(fragment)[0];
        let exact = svsim::StateVec::run(&c).unwrap().distribution(1e-14);
        assert_eq!(exact.len(), 4);
        assert_eq!(rows(fragment, variant, 4), (exact, true));
        let (sampled, enumerated) = rows(fragment, variant, 3);
        assert!(!enumerated);
        assert!(sampled.iter().all(|&(_, p)| {
            let hits = p * 3.0;
            (hits - hits.round()).abs() < 1e-12
        }));
    }

    /// Noise makes a variant's rows one trajectory's or one frame's draw,
    /// so noisy fragments sample however large the shot budget is.
    #[test]
    fn noisy_fragments_still_sample() {
        for clifford in [true, false] {
            let mut c = Circuit::new(1);
            c.h(0).add_noise(qcir::NoiseChannel::BitFlip(0.1), &[0]);
            if !clifford {
                c.t(0);
            }
            let cut = cut_circuit(&c, CutStrategy::None).unwrap();
            let fragment = &cut.fragments[0];
            assert_eq!(fragment.is_clifford, clifford);
            let (out, enumerated) = rows(fragment, &enumerate_variants(fragment)[0], 1000);
            assert!(!enumerated, "clifford = {clifford}");
            let total: f64 = out.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    /// A hand-built fragment flagged Clifford that holds a `T`: both
    /// stabilizer call sites (tableau, and the frame simulator when noisy)
    /// return the typed error instead of panicking, naming the gate and
    /// its position among the variant circuit's ops, noise channels
    /// counted — past the prep ops, when the fragment has a quantum input.
    #[test]
    fn mislabeled_clifford_fragment_is_a_typed_error() {
        let mislabeled = |noisy: bool, quantum_input: bool| {
            let mut circuit = Circuit::new(1);
            circuit.h(0);
            if noisy {
                circuit.add_noise(qcir::NoiseChannel::BitFlip(0.1), &[0]);
            }
            circuit.t(0);
            let (circuit_inputs, quantum_inputs) = if quantum_input {
                (vec![], vec![(0, 0)])
            } else {
                (vec![0], vec![])
            };
            Fragment {
                circuit,
                circuit_inputs,
                quantum_inputs,
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
        let mut checked = [0usize; 2];
        for quantum_input in [false, true] {
            for (fragment, opts) in [
                (mislabeled(false, quantum_input), &sampled),
                (mislabeled(false, quantum_input), &exact),
                (mislabeled(true, quantum_input), &sampled),
            ] {
                let variants = enumerate_variants(&fragment);
                assert_eq!(variants.len(), if quantum_input { 4 } else { 1 });
                for v in &variants {
                    let t_at = variant_circuit(&fragment, v)
                        .ops()
                        .iter()
                        .position(|op| op.as_gate() == Some(qcir::Gate::T));
                    match evaluate_variant(&fragment, v, opts, &mut rng()) {
                        Err(EvalError::NonClifford(e)) => {
                            assert_eq!(e.name, "T");
                            assert_eq!(Some(e.op_index), t_at, "{v:?}");
                            checked[usize::from(e.op_index > 2)] += 1;
                        }
                        other => panic!("expected NonClifford, got {other:?}"),
                    }
                }
            }
        }
        // Only `|+i⟩` puts two prep gates before the body's `H`, and the
        // noisy body's `BitFlip` puts one more op before its `T`.
        assert_eq!(checked, [10, 5]);
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
        let mut check = |fi: usize, fragment: &Fragment, shots: usize, seed: u64| {
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
                    fi,
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
        check(0, wide, 60, 1); // 60 distinct 72-bit rows
        for (fi, f) in narrow.iter().enumerate() {
            check(1 + fi, f, 60, 2); // at most two 1-bit rows: shrink and re-width
        }
        check(0, wide, 20, 3); // grow again, fewer rows than the first time
        check(0, wide, 90, 4); // and past the high-water mark
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
