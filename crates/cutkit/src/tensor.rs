//! Fragment tensors: from tomographic variant data to Pauli coefficients.
//!
//! For a fragment with `qi` quantum inputs and `qo` quantum outputs, the
//! fragment tensor holds, for every observed circuit-output bitstring `b`,
//! the coefficients
//!
//! ```text
//! T[b, P_in, P_out] = Tr[ P_out · E_b(P_in) ] / 2^qi
//! ```
//!
//! where `E_b` is the (subnormalized) channel from the quantum inputs to
//! the quantum outputs conditioned on observing `b`. These are exactly the
//! objects contracted by the distribution builder: for any set of cuts,
//! `p(b) = Σ_κ Π_f T_f[b_f, κ_f]` with one Pauli index per cut.
//!
//! Estimation follows maximum-likelihood fragment tomography's data
//! collection: quantum outputs are measured in the three Pauli bases;
//! quantum inputs are prepared in `{|0⟩,|1⟩,|+⟩,|+i⟩}` and converted to the
//! Pauli basis with the linear map
//!
//! ```text
//! T[I] = (p₀+p₁)/2    T[X] = p₊ − T[I]
//! T[Z] = (p₀−p₁)/2    T[Y] = pᵢ − T[I]
//! ```
//!
//! In sampled mode a variant contributes its exact distribution instead of
//! shot frequencies whenever that distribution has no more points than the
//! shot budget: a noiseless Clifford variant with `2^dim ≤ shots` support
//! points, a noiseless statevector variant with at most `shots`
//! probabilities above `1e-14` (see [`crate::evaluate_variant`]). A
//! fragment whose variants all enumerate has an exact tensor: its vanishing
//! Pauli slices are zero, not shot noise, so the sparse contraction prunes
//! every assignment they kill, and the Clifford snap and MLFT have nothing
//! to repair on it. [`FragmentTensor::enumerated_variants`] counts them.
//!
//! # Flat, key-ordered layout
//!
//! No outcome key lives in a heap allocation of its own. The
//! evaluation-stage accumulators intern each distinct outcome's words once
//! into a flat arena with a dense `u32` id (`KeyIndex`), and every
//! coefficient vector lives at `coeffs[id·dim .. (id+1)·dim]` inside one
//! flat buffer, `dim = 4^(qi+qo)`. In sampled mode that buffer is reserved
//! up front for every row its variants can emit (`TensorAccum::reserve_rows`),
//! so it never moves while it fills and its size does not depend on the
//! seed. Finishing a fragment sorts the ids by
//! key (a sort on each key's first word, whole keys compared only among
//! equal first words), permutes the coefficient rows into that order
//! in place and copies the key words out in the same order. A
//! [`FragmentTensor`] is therefore two flat arrays in ascending key order:
//! its read paths — [`FragmentTensor::iter`], the derived-sum pass, the
//! MLFT walk, the joint's pre-scatter — stream through memory front to
//! back, and a lookup is a binary search over the key words.
//!
//! Accumulation has three levels, and their float association is fixed:
//!
//! 1. **Variant.** A variant with prep index `s` writes, per outcome, only
//!    the `2^qo` columns `s·4^qo + po` with `po` ranging over the subsets
//!    of its output bases — 8 of 1024 when `qi = 2, qo = 3`. Its data rows
//!    are summed per outcome into a *pending block* of `2^qo` doubles per
//!    touched outcome, owned by the evaluation worker and reused for every
//!    variant it runs; the sums start at `+0.0` and add in data order.
//! 2. **Chunk.** Each finished sum is added once onto its column of the
//!    chunk's per-fragment accumulator, in whose key index the row's key
//!    was interned — once per row, there is no per-variant index — and the
//!    pending block is emptied. Variants fold in variant order.
//! 3. **Fragment.** Chunk partials merge into the fragment accumulator in
//!    chunk order, all `dim` columns of a row at a time (a chunk partial
//!    holds up to [`VARIANTS_PER_CHUNK`] variants' columns, so a column set
//!    for it is not worth its code); the first chunk to reach a fragment
//!    is moved in, not merged. A partial is `support × dim` doubles — 1 MiB
//!    on a 128-outcome `dim = 1024` fragment — so [`runtime::fold_ordered`]
//!    merges each as soon as its predecessors are in, instead of keeping
//!    one per chunk until the last: tens of MiB
//!    allocated and released per run cost page faults by the thousand
//!    whenever the allocator hands the memory back in between.
//!
//! The three levels stay because collapsing any two changes which partial
//! sums exist and hence the rounding: summing rows straight into the chunk
//! accumulator, say, would associate `(chunk + row₁) + row₂` where the
//! tensor is defined as `chunk + (row₁ + row₂)`.
//!
//! **Why skipping the untouched columns changes no bit.** In
//! round-to-nearest `x + y` is `−0.0` only when both `x` and `y` are
//! `−0.0`. A variant sum starts at `+0.0`, so it is never `−0.0`; a chunk
//! or fragment coefficient is a sum of such sums onto `+0.0`, so neither is
//! it. Hence (a) adding the `+0.0` a variant left in a column it did not
//! write would be the identity — `a + 0.0 = a` for every `a` but `−0.0` —
//! and is skipped; (b) adding a sum onto a freshly zeroed row equals
//! copying it, and merging a chunk partial into an empty accumulator equals
//! moving it.
//!
//! # Bit-identity and emission order
//!
//! Id assignment order is first-seen and thus schedule-dependent; the
//! tensor's **storage is ordered**. Every read path that can feed float
//! accumulation downstream — [`FragmentTensor::iter`] and the derived sums
//! (totals, slice maxima, slice L1 masses, per-bit marginals) — visits
//! outcomes in lexicographic [`Bits`] order, exactly the order an ordered
//! map iterates in, because that is the order they are stored in.
//! Combined with the fixed chunk decomposition of
//! [`evaluate_fragment_tensors`] (a pure function of the plans: variant
//! folds in variant order, chunk merges in chunk order, one RNG stream per
//! variant), results are **identical for any thread count and
//! bit-identical to the `BTreeMap<Bits, Vec<f64>>` pipeline** this layout
//! replaced, which the test module keeps frozen as the parity oracle
//! (`reference_evaluate_btreemap`).
//!
//! # Derived sums are lazy
//!
//! The derived sums cost one `support × n_out × 4^m` pass, so a tensor
//! computes them **once, on first read**, and caches them; scaling the
//! coefficients or replacing an entry drops the cache, so a stale sum
//! cannot be read. Building a tensor computes nothing. Who forces the pass: [`correct_tensor`](crate::correct_tensor)
//! does before it returns, which keeps the pass inside the per-fragment
//! MLFT task (parallel across fragments) — the sums are then those of the
//! normalized coefficients and the unnormalized ones are never computed.
//! Without MLFT the first accessor call does, in practice
//! [`Reconstructor::new`](crate::Reconstructor::new). The sums are
//! accumulated from the same coefficients in the same order whenever the
//! pass runs, so laziness changes no float bit.

use crate::cut::Fragment;
use crate::evaluate::{evaluate_variant_into, EvalError, EvalMode, EvalOptions, EvalScratch};
use crate::keys::KeyIndex;
use crate::variants::{enumerate_variants, Variant};
use qcir::{Bits, IndexPlan};
use rand::Rng;
use std::sync::OnceLock;

/// Single-qubit conversion from preparation-state probabilities (columns:
/// `|0⟩, |1⟩, |+⟩, |+i⟩`) to Pauli coefficients (rows: `I, X, Y, Z`).
pub const PREP_TO_PAULI: [[f64; 4]; 4] = [
    [0.5, 0.5, 0.0, 0.0],
    [-0.5, -0.5, 1.0, 0.0],
    [-0.5, -0.5, 0.0, 1.0],
    [0.5, -0.5, 0.0, 0.0],
];

/// Options controlling tensor construction.
#[derive(Copy, Clone, Debug)]
pub struct TensorOptions {
    /// Snap Clifford-fragment conditional expectations to `{-1, 0, +1}`
    /// (paper §IX, optimization 1 — valid because stabilizer states have
    /// no other Pauli expectation values).
    pub clifford_snap: bool,
}

impl Default for TensorOptions {
    fn default() -> Self {
        TensorOptions {
            clifford_snap: true,
        }
    }
}

/// The tomographic tensor of one fragment.
///
/// Outcomes are stored in ascending key order as one flat run of key
/// words, each with its coefficient vector at the same position of one
/// flat buffer (see the module docs for the layout and the emission-order
/// contract).
#[derive(Clone, Debug)]
pub struct FragmentTensor {
    qi: usize,
    qo: usize,
    /// Cut ids per input axis (most-significant digit first).
    input_cuts: Vec<usize>,
    /// Cut ids per output axis.
    output_cuts: Vec<usize>,
    /// Original-circuit qubit for each circuit-output bit of `b`.
    co_global: Vec<usize>,
    /// Observed outcomes in strictly ascending [`Bits`] order, as the
    /// words of their `Bits`: outcome `i` is `keys[i·nw .. (i+1)·nw]` with
    /// `nw = ⌈n_out/64⌉` (no words at all when `n_out = 0`).
    keys: Vec<u64>,
    /// Coefficients in the same order: outcome `i` owns
    /// `coeffs[i·dim .. (i+1)·dim]` with `dim = 4^(qi+qo)`.
    coeffs: Vec<f64>,
    /// Lazily-computed sums over the support. Invalidated whenever a
    /// coefficient changes; derived state, rebuilt on demand.
    derived: OnceLock<Derived>,
    /// Variants whose rows were enumerated rather than sampled.
    enumerated: usize,
}

/// The sums over a tensor's support that the contraction reads, each a
/// dense vector indexed by composite Pauli index.
#[derive(Clone, Debug)]
struct Derived {
    /// `Σ_b entries[b]`, per Pauli index.
    totals: Vec<f64>,
    /// `max_b |entries[b]|`, per Pauli index (sparse-contraction pruning:
    /// a zero here means the whole slice vanishes, exactly for stabilizer
    /// fragments).
    slice_max: Vec<f64>,
    /// `Σ_b |entries[b]|`, per Pauli index — the per-slice L1 mass the
    /// error-budgeted contraction uses to bound how much probability mass
    /// a skipped cut assignment could carry (the per-assignment bound is
    /// the product of these over the assignment's composite indices).
    slice_abs: Vec<f64>,
    /// Per circuit-output bit and value, `Σ_{b: b[bit]=v} entries[b]` in
    /// one buffer: the vector of `(bit, v)` starts at `(2·bit + v)·dim`.
    marginals: Vec<f64>,
}

impl FragmentTensor {
    /// Number of quantum inputs.
    pub fn num_inputs(&self) -> usize {
        self.qi
    }

    /// Number of quantum outputs.
    pub fn num_outputs(&self) -> usize {
        self.qo
    }

    /// Length of the dense Pauli-coefficient vectors: `4^(qi+qo)`.
    pub fn pauli_dim(&self) -> usize {
        1 << (2 * (self.qi + self.qo))
    }

    /// Cut ids of the input axes (most-significant first).
    pub fn input_cuts(&self) -> &[usize] {
        &self.input_cuts
    }

    /// Cut ids of the output axes.
    pub fn output_cuts(&self) -> &[usize] {
        &self.output_cuts
    }

    /// Original-circuit qubit indices of the circuit-output bits.
    pub fn output_globals(&self) -> &[usize] {
        &self.co_global
    }

    /// Number of observed circuit-output bitstrings.
    pub fn support_len(&self) -> usize {
        self.coeffs.len() / self.pauli_dim()
    }

    /// Words per outcome key: `⌈n_out/64⌉`.
    fn key_words(&self) -> usize {
        self.co_global.len().div_ceil(64)
    }

    /// How many of the fragment's variants contributed their exact
    /// distribution rather than sampled frequencies (0 for a tensor built
    /// by [`FragmentTensor::from_dense_entries`]).
    pub fn enumerated_variants(&self) -> usize {
        self.enumerated
    }

    /// Iterator over `(key, coefficients)` in lexicographic outcome order
    /// — the deterministic emission order that keeps downstream float
    /// accumulation bit-reproducible, and the storage order, so the walk
    /// is sequential. A key is the outcome's [`Bits::as_words`]:
    /// `⌈n_out/64⌉` words, bit `j` of the outcome at bit `j % 64` of word
    /// `j / 64`.
    pub fn iter(&self) -> impl Iterator<Item = (&[u64], &[f64])> + '_ {
        let (nw, dim) = (self.key_words(), self.pauli_dim());
        (0..self.support_len()).map(move |i| {
            (
                &self.keys[i * nw..(i + 1) * nw],
                &self.coeffs[i * dim..(i + 1) * dim],
            )
        })
    }

    /// Where `b` is, or would be inserted, in key order.
    fn position(&self, b: &[u64]) -> Result<usize, usize> {
        let nw = self.key_words();
        let (mut lo, mut hi) = (0, self.support_len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.keys[mid * nw..(mid + 1) * nw].cmp(b) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Coefficient `T[b, idx]`, zero when `b` was never observed.
    pub fn value(&self, b: &Bits, idx: usize) -> f64 {
        self.coeffs(b).map_or(0.0, |v| v[idx])
    }

    /// `Σ_b T[b, idx]`.
    pub fn total(&self, idx: usize) -> f64 {
        self.derived().totals[idx]
    }

    /// All Pauli totals as one dense slice indexed by composite Pauli
    /// index — the flat view the contraction hot loops read.
    pub fn totals(&self) -> &[f64] {
        &self.derived().totals
    }

    /// `Σ_{b: b[bit]=v} T[b, idx]`.
    pub fn marginal(&self, bit: usize, v: bool, idx: usize) -> f64 {
        let (m0, m1) = self.marginal_slices(bit);
        if v {
            m1[idx]
        } else {
            m0[idx]
        }
    }

    /// Dense marginal slices (`v = 0`, `v = 1`) for one circuit-output
    /// bit, indexed by composite Pauli index.
    pub fn marginal_slices(&self, bit: usize) -> (&[f64], &[f64]) {
        let dim = self.pauli_dim();
        self.derived().marginals[2 * bit * dim..(2 * bit + 2) * dim].split_at(dim)
    }

    /// The dense coefficient slice of one observed outcome, `None` when
    /// `b` was never observed.
    pub fn coeffs(&self, b: &Bits) -> Option<&[f64]> {
        if b.len() != self.co_global.len() {
            return None;
        }
        let dim = self.pauli_dim();
        let i = self.position(b.as_words()).ok()?;
        Some(&self.coeffs[i * dim..(i + 1) * dim])
    }

    /// `max_b |T[b, idx]|` — zero exactly when the whole Pauli slice
    /// vanishes.
    pub fn slice_max_abs(&self, idx: usize) -> f64 {
        self.derived().slice_max[idx]
    }

    /// `Σ_b |T[b, idx]|` — the L1 mass of one Pauli slice. A cut
    /// assignment's total contribution to the unnormalized joint is
    /// bounded by the product of these over its composite indices, which
    /// is the weight bound the error-budgeted contraction ranks skip
    /// candidates by.
    pub fn slice_abs_sum(&self, idx: usize) -> f64 {
        self.derived().slice_abs[idx]
    }

    /// All per-slice L1 masses as one dense slice indexed by composite
    /// Pauli index — the flat view the budgeted contraction's bound
    /// computation reads.
    pub fn abs_sums(&self) -> &[f64] {
        &self.derived().slice_abs
    }

    /// The composite Pauli index for a cut assignment: `digit(cut)` is the
    /// Pauli on that cut (`I=0, X=1, Y=2, Z=3`).
    pub fn pauli_index(&self, digit_of_cut: impl Fn(usize) -> usize) -> usize {
        let mut idx = 0;
        for &c in &self.input_cuts {
            idx = idx * 4 + digit_of_cut(c);
        }
        for &c in &self.output_cuts {
            idx = idx * 4 + digit_of_cut(c);
        }
        idx
    }

    /// Overwrites the coefficients of the `i`-th outcome in key order (the
    /// MLFT write-back) and drops the cached derived sums.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the slice length differs from
    /// [`FragmentTensor::pauli_dim`].
    pub(crate) fn set_coeffs(&mut self, i: usize, coeffs: &[f64]) {
        let dim = self.pauli_dim();
        self.coeffs[i * dim..(i + 1) * dim].copy_from_slice(coeffs);
        self.derived.take();
    }

    /// Replaces the coefficients of an observed `b`, or inserts an unseen
    /// `b` at its place in key order, and drops the cached derived sums —
    /// the ordered-map insert the tests model the tensor by.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from [`FragmentTensor::pauli_dim`]
    /// or the outcome width from the tensor's.
    #[cfg(test)]
    pub(crate) fn set_entry(&mut self, b: Bits, coeffs: Vec<f64>) {
        let (nw, dim) = (self.key_words(), self.pauli_dim());
        assert_eq!(coeffs.len(), dim, "coefficient length mismatch");
        assert_eq!(b.len(), self.co_global.len(), "outcome width mismatch");
        match self.position(b.as_words()) {
            Ok(i) => self.set_coeffs(i, &coeffs),
            Err(i) => {
                self.keys
                    .splice(i * nw..i * nw, b.as_words().iter().copied());
                self.coeffs.splice(i * dim..i * dim, coeffs);
                self.derived.take();
            }
        }
    }

    /// The entries as `(outcome, coefficients)` pairs in key order, each
    /// outcome rebuilt as a [`Bits`] — for tests that print or look up
    /// keys.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> Vec<(Bits, &[f64])> {
        self.iter()
            .map(|(key, v)| {
                let mut b = Bits::zeros(self.co_global.len());
                b.copy_from_words(key);
                (b, v)
            })
            .collect()
    }

    /// Scales every coefficient by `scale` and drops the cached derived
    /// sums; the next read recomputes them from the scaled coefficients.
    /// `scale == 1.0` skips the multiply, which is the identity on every
    /// `f64` bit pattern.
    pub(crate) fn rebuild_derived(&mut self, scale: f64) {
        if scale != 1.0 {
            for x in &mut self.coeffs {
                *x *= scale;
            }
        }
        self.derived.take();
    }

    /// The derived sums, computed on first use and cached until a
    /// coefficient changes. Entries are visited in lexicographic key
    /// order, so the float accumulation is bit-identical to the former
    /// ordered-map walk; every sum of the pass lives in one of four flat
    /// buffers, and an entry's bits are read a word at a time.
    fn derived(&self) -> &Derived {
        self.derived.get_or_init(|| {
            let dim = self.pauli_dim();
            let n_out = self.co_global.len();
            let mut totals = vec![0.0; dim];
            let mut slice_max = vec![0.0f64; dim];
            let mut slice_abs = vec![0.0f64; dim];
            let mut marginals = vec![0.0; 2 * n_out * dim];
            for (key, v) in self.iter() {
                for (i, &x) in v.iter().enumerate() {
                    totals[i] += x;
                    slice_max[i] = slice_max[i].max(x.abs());
                    slice_abs[i] += x.abs();
                }
                add_marginals(&mut marginals, key, v);
            }
            Derived {
                totals,
                slice_max,
                slice_abs,
                marginals,
            }
        })
    }

    /// Pauli indices whose slice is not identically zero — the §IX
    /// "fewer stitching calculations" optimization enumerates only these.
    pub fn nonzero_indices(&self, tol: f64) -> Vec<usize> {
        let slice_max = &self.derived().slice_max;
        (0..slice_max.len())
            .filter(|&i| slice_max[i] > tol)
            .collect()
    }

    /// Builds a tensor directly from dense per-`b` coefficient vectors —
    /// for synthetic-workload benchmarks and tests that need full control
    /// over the cut structure without running a simulator. A repeated
    /// outcome overwrites the earlier vector (ordered-map insert
    /// semantics). One stable sort puts the entries in key order, so the
    /// input order costs nothing.
    ///
    /// # Panics
    ///
    /// Panics when a coefficient vector's length differs from
    /// `4^(input_cuts + output_cuts)` or an outcome width differs from
    /// `co_global.len()`.
    pub fn from_dense_entries(
        input_cuts: Vec<usize>,
        output_cuts: Vec<usize>,
        co_global: Vec<usize>,
        mut entries: Vec<(Bits, Vec<f64>)>,
    ) -> Self {
        let qi = input_cuts.len();
        let qo = output_cuts.len();
        let dim = 1usize << (2 * (qi + qo));
        for (b, v) in &entries {
            assert_eq!(v.len(), dim, "coefficient length mismatch");
            assert_eq!(b.len(), co_global.len(), "outcome width mismatch");
        }
        // Stable, so each run of a repeated outcome keeps input order and
        // its last vector is the one an ordered map would hold.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut keys = Vec::new();
        let mut coeffs = Vec::new();
        for run in entries.chunk_by(|a, b| a.0 == b.0) {
            let (b, v) = run.last().expect("runs are non-empty");
            keys.extend_from_slice(b.as_words());
            coeffs.extend_from_slice(v);
        }
        FragmentTensor {
            qi,
            qo,
            input_cuts,
            output_cuts,
            co_global,
            keys,
            coeffs,
            derived: OnceLock::new(),
            enumerated: 0,
        }
    }
}

/// Adds one entry's coefficient row `v` (`dim` wide) onto the marginal
/// sums: bit `j` of the entry's key `words` picks the side `s` of the
/// `(j, s)` vector at `(2·j + s)·dim` in `marginals`. Rows are `4^m` wide,
/// so they are added four columns at a time; only a cut-free fragment's
/// 1-wide row has a remainder.
fn add_marginals(marginals: &mut [f64], words: &[u64], v: &[f64]) {
    let dim = v.len();
    let (v4, v_rest) = v.as_chunks::<4>();
    for (word, bits) in words.iter().zip(marginals.chunks_mut(128 * dim)) {
        for (bit, sides) in bits.chunks_exact_mut(2 * dim).enumerate() {
            let (off, on) = sides.split_at_mut(dim);
            let dst = if word >> bit & 1 == 1 { on } else { off };
            let (dst4, dst_rest) = dst.as_chunks_mut::<4>();
            for (a, x) in dst4.iter_mut().zip(v4) {
                for k in 0..4 {
                    a[k] += x[k];
                }
            }
            for (a, x) in dst_rest.iter_mut().zip(v_rest) {
                *a += x;
            }
        }
    }
}

/// Builds the tomographic tensor of a fragment by evaluating all of its
/// variants.
///
/// # Errors
///
/// Propagates [`EvalError`] from fragment evaluation.
pub fn build_fragment_tensor(
    fragment: &Fragment,
    eval: &EvalOptions,
    opts: &TensorOptions,
    rng: &mut impl Rng,
) -> Result<FragmentTensor, EvalError> {
    let base_seed: u64 = rng.random();
    let mut tensors =
        evaluate_fragment_tensors(std::slice::from_ref(fragment), eval, opts, &[base_seed], 1)?;
    Ok(tensors.pop().expect("one tensor per fragment"))
}

/// Derives the RNG for one variant from the fragment's base seed.
fn variant_rng(base_seed: u64, variant_index: usize) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(
        base_seed ^ (variant_index as u64 + 1).wrapping_mul(0xD1B54A32D192ED03),
    )
}

/// Per-fragment precomputed evaluation context: the enumerated variants
/// plus the extraction plans and weights shared by every variant
/// evaluation of the fragment.
///
/// Owning this separately from the [`Fragment`] is what makes plan reuse
/// possible: a session-level plan (e.g. `supersim`'s `CutPlan`) builds one
/// `FragmentEvalPlan` per fragment **once** and re-executes it for every
/// sweep point, instead of re-enumerating variants and rebuilding
/// [`IndexPlan`]s on every run.
#[derive(Clone, Debug)]
pub struct FragmentEvalPlan {
    variants: Vec<Variant>,
    /// Extraction plan for the circuit-output bits of a local outcome.
    co_plan: IndexPlan,
    /// Extraction plan for the quantum-output bits of a local outcome.
    qo_plan: IndexPlan,
    qo: usize,
    dim: usize,
    /// 1/3^t weights for averaging the 3^t basis variants compatible with
    /// a Pauli pattern that has t identity digits.
    inv3: Vec<f64>,
}

impl FragmentEvalPlan {
    /// Precomputes the evaluation context of one fragment.
    pub fn new(fragment: &Fragment) -> Self {
        let qi = fragment.quantum_inputs.len();
        let qo = fragment.quantum_outputs.len();
        let width = fragment.num_local_qubits();
        let co_local: Vec<usize> = fragment.circuit_outputs.iter().map(|&(l, _)| l).collect();
        let qo_local: Vec<usize> = fragment.quantum_outputs.iter().map(|&(l, _)| l).collect();
        FragmentEvalPlan {
            variants: enumerate_variants(fragment),
            co_plan: IndexPlan::new(&co_local, width),
            qo_plan: IndexPlan::new(&qo_local, width),
            qo,
            dim: 1usize << (2 * (qi + qo)),
            inv3: (0..=qo).map(|t| 3f64.powi(-(t as i32))).collect(),
        }
    }

    /// Number of tomography variants this fragment executes.
    pub fn num_variants(&self) -> usize {
        self.variants.len()
    }

    /// Coefficient slots per outcome of this fragment's tensor:
    /// `4^(qi+qo)`. Admission control's cost estimate uses
    /// `num_variants × dim × 8` bytes as a proxy; the live accumulator is
    /// `support × dim` slots, one row per distinct outcome.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// Interned per-fragment accumulator for the evaluation stage: outcome
/// keys get dense ids in a flat [`KeyIndex`], coefficient vectors live in
/// one flat id-indexed buffer, which [`finalize_fragment_tensor`] puts in
/// key order in place and hands to the tensor with the sorted key words.
struct TensorAccum {
    dim: usize,
    keys: KeyIndex,
    coeffs: Vec<f64>,
    /// Variants folded in whose rows were enumerated.
    enumerated: usize,
}

impl TensorAccum {
    fn new(plan: &FragmentEvalPlan) -> Self {
        TensorAccum {
            dim: plan.dim,
            keys: KeyIndex::new(plan.co_plan.len()),
            coeffs: Vec::new(),
            enumerated: 0,
        }
    }

    /// Reserves the coefficient rows `variants` sampled variants of
    /// `plan` can add at most: each emits at most `shots` outcomes, and a
    /// `w`-bit key has at most `2^w` values. The buffer then never moves
    /// while it fills, and its size depends on the plan and the shots
    /// only, never on which outcomes a seed draws — so every operation on
    /// a plan makes the same allocation, however its support varies.
    /// Untouched capacity costs address space, not memory. Exact mode has
    /// no such bound, and a bound past [`MAX_RESERVED_BYTES`] is not
    /// reserved; those buffers grow as they fill.
    fn reserve_rows(&mut self, plan: &FragmentEvalPlan, eval: &EvalOptions, variants: usize) {
        let EvalMode::Sampled { shots } = eval.mode else {
            return;
        };
        let keys = u32::try_from(plan.co_plan.len())
            .ok()
            .and_then(|w| 1usize.checked_shl(w))
            .unwrap_or(usize::MAX);
        let rows = variants.saturating_mul(shots).min(keys);
        let len = rows.saturating_mul(self.dim);
        if len.saturating_mul(size_of::<f64>()) <= MAX_RESERVED_BYTES {
            self.coeffs
                .reserve_exact(len.saturating_sub(self.coeffs.len()));
        }
    }
}

/// Largest coefficient buffer [`TensorAccum::reserve_rows`] reserves ahead.
const MAX_RESERVED_BYTES: usize = 1 << 28;

/// All of one evaluation worker's reusable buffers: the backend's
/// scratch ([`EvalScratch`]: sampling buffers and the post-body state of
/// the preparation last run, keyed by fragment index and prep index), the
/// variant outcome list, the key-extraction rows, and the compact fold's
/// column table and pending block. One per worker of one evaluation (or
/// per sequential loop) — the per-variant hot path allocates only when an
/// accumulator's flat buffers grow, and a cached state never outlives the
/// fragment slice its key indexes.
///
/// Between variants the pending block is empty and no outcome is marked
/// (`WorkerScratch::is_clean`, checked by the tests); [`fold_variant`]
/// restores that before it returns, and a variant that fails does so
/// before it folds anything.
struct WorkerScratch {
    eval: EvalScratch,
    data: Vec<(Bits, f64)>,
    /// Extraction rows: the circuit-output key and the quantum-output bits
    /// of one data row.
    co: Bits,
    qo: Bits,
    /// The variant's `2^qo` columns: (column within the outcome's
    /// coefficient vector, `3^-t` weight, sign mask over the
    /// quantum-output word).
    cols: Vec<(usize, f64, u64)>,
    /// The variant's partial sums: `2^qo` doubles per outcome it touched,
    /// in first-touch order.
    pending: Vec<f64>,
    /// Chunk-accumulator ids the variant touched, parallel to `pending`.
    touched: Vec<u32>,
    /// `id → 1 + position in touched`, `0` for an id the variant has not
    /// touched.
    slot_of: Vec<u32>,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            eval: EvalScratch::new(),
            data: Vec::new(),
            co: Bits::zeros(0),
            qo: Bits::zeros(0),
            cols: Vec::new(),
            pending: Vec::new(),
            touched: Vec::new(),
            slot_of: Vec::new(),
        }
    }

    /// No partial sum pending and no outcome marked.
    #[cfg(test)]
    fn is_clean(&self) -> bool {
        self.pending.is_empty() && self.touched.is_empty() && self.slot_of.iter().all(|&s| s == 0)
    }
}

/// Evaluates one work item — variant `vi` of fragment number `fi` — and
/// folds it into `m`, the chunk's accumulator for that fragment. Returns
/// whether the variant's rows were enumerated rather than sampled.
fn evaluate_item(
    fragment: &Fragment,
    plan: &FragmentEvalPlan,
    (fi, vi): (usize, usize),
    base_seed: u64,
    eval: &EvalOptions,
    scratch: &mut WorkerScratch,
    m: &mut TensorAccum,
) -> Result<bool, EvalError> {
    let mut rng = variant_rng(base_seed, vi);
    let variant = &plan.variants[vi];
    let enumerated = evaluate_variant_into(
        fragment,
        fi,
        variant,
        eval,
        &mut rng,
        &mut scratch.eval,
        &mut scratch.data,
    )?;
    fold_variant(m, variant, plan, scratch);
    Ok(enumerated)
}

/// Folds the variant outcome data in `scratch.data` into the prep-indexed
/// accumulator `M[b][s·4^qo + po]` — the compact fold of the module docs.
///
/// A variant writes one prep row `s` and, per outcome, one column per
/// subset of its output bases (the subset's positions carry the basis
/// Pauli, the rest identity): its rows are summed per outcome into the
/// pending block, starting from `+0.0` in data order, and each sum is then
/// added once onto its column. Every row's key is interned once, in `m`'s
/// own key index, and the hot loop allocates only when that index or the
/// coefficient buffer grows.
fn fold_variant(
    m: &mut TensorAccum,
    variant: &Variant,
    plan: &FragmentEvalPlan,
    scratch: &mut WorkerScratch,
) {
    let qo = plan.qo;
    let ncols = 1usize << qo;
    let base = variant.prep_index() << (2 * qo);
    scratch.cols.clear();
    scratch.cols.extend((0..ncols).map(|subset| {
        let mut po = 0usize;
        let mut mask = 0u64;
        for (j, basis) in variant.bases.iter().enumerate() {
            let active = (subset >> (qo - 1 - j)) & 1 == 1;
            po = po * 4 + if active { basis.pauli_digit() } else { 0 };
            mask |= (active as u64) << j;
        }
        let t = qo - subset.count_ones() as usize;
        (base + po, plan.inv3[t], mask)
    }));

    for (bits, p) in &scratch.data {
        plan.co_plan.extract_into(bits, &mut scratch.co);
        plan.qo_plan.extract_into(bits, &mut scratch.qo);
        let measured = scratch.qo.as_words().first().copied().unwrap_or(0);
        let id = m.keys.intern(scratch.co.as_words()) as usize;
        if id >= scratch.slot_of.len() {
            scratch.slot_of.resize(id + 1, 0);
        }
        if scratch.slot_of[id] == 0 {
            scratch.touched.push(id as u32);
            scratch.slot_of[id] = scratch.touched.len() as u32;
            scratch.pending.resize(scratch.pending.len() + ncols, 0.0);
        }
        let slot = scratch.slot_of[id] as usize - 1;
        let sums = &mut scratch.pending[slot * ncols..(slot + 1) * ncols];
        for (sum, &(_, weight, mask)) in sums.iter_mut().zip(&scratch.cols) {
            let signed = if (measured & mask).count_ones() & 1 == 1 {
                -*p
            } else {
                *p
            };
            *sum += signed * weight;
        }
    }

    m.coeffs.resize(m.keys.len() * m.dim, 0.0);
    for (&id, sums) in scratch.touched.iter().zip(scratch.pending.chunks(ncols)) {
        let row = &mut m.coeffs[id as usize * m.dim..][..m.dim];
        for (&sum, &(col, _, _)) in sums.iter().zip(&scratch.cols) {
            row[col] += sum;
        }
        scratch.slot_of[id as usize] = 0;
    }
    scratch.touched.clear();
    scratch.pending.clear();
}

/// Adds a chunk accumulator into a fragment accumulator: an id-indexed
/// vector add per shared outcome, a verbatim copy for an outcome the
/// fragment accumulator has not seen (which equals the add onto zeros, see
/// the module docs). Dense over all `4^(qi+qo)` columns — a chunk partial
/// has up to sixteen variants' columns filled.
fn merge_accumulator(m: &mut TensorAccum, local: TensorAccum) {
    let dim = m.dim;
    debug_assert_eq!(dim, local.dim, "fragment dimension mismatch");
    m.enumerated += local.enumerated;
    m.keys.reserve(local.keys.len());
    for (id, src) in local.coeffs.chunks_exact(dim).enumerate() {
        let dst = m.keys.intern(local.keys.row(id)) as usize;
        if dst * dim == m.coeffs.len() {
            m.coeffs.extend_from_slice(src);
        } else {
            for (a, x) in m.coeffs[dst * dim..(dst + 1) * dim].iter_mut().zip(src) {
                *a += x;
            }
        }
    }
}

/// Finishes a fragment tensor from its accumulated variant data: optional
/// Clifford snap, prep→Pauli axis conversion, and key order — the
/// accumulator's coefficient buffer is permuted in place into the tensor,
/// beside its key words copied out in that order.
fn finalize_fragment_tensor(
    fragment: &Fragment,
    mut m: TensorAccum,
    eval: &EvalOptions,
    opts: &TensorOptions,
) -> FragmentTensor {
    let qi = fragment.quantum_inputs.len();
    let qo = fragment.quantum_outputs.len();
    let pow4_qo = 1usize << (2 * qo);

    // Optional Clifford snap: conditional expectations of stabilizer states
    // are exactly -1, 0, or +1. Noisy fragments prepare *mixed* states with
    // fractional expectations, so the snap must not touch them.
    let snapped = opts.clifford_snap
        && fragment.is_clifford
        && !fragment.circuit.has_noise()
        && matches!(eval.mode, EvalMode::Sampled { .. });
    if snapped {
        for v in m.coeffs.chunks_mut(m.dim) {
            for s in 0..(1usize << (2 * qi)) {
                let norm = v[s * pow4_qo];
                if norm.abs() < 1e-12 {
                    continue;
                }
                for po in 1..pow4_qo {
                    let r = v[s * pow4_qo + po] / norm;
                    let snap = r.round().clamp(-1.0, 1.0);
                    v[s * pow4_qo + po] = snap * norm;
                }
            }
        }
    }

    // Convert each input axis from preparation-state to Pauli coordinates.
    for v in m.coeffs.chunks_mut(m.dim) {
        for axis in 0..qi {
            let stride = (1usize << (2 * (qi - 1 - axis))) * pow4_qo;
            transform_axis(v, stride, &PREP_TO_PAULI);
        }
    }

    let (order, keys) = m.keys.into_sorted();
    permute_rows(&mut m.coeffs, m.dim, &order);
    FragmentTensor {
        qi,
        qo,
        input_cuts: fragment.quantum_inputs.iter().map(|&(_, c)| c).collect(),
        output_cuts: fragment.quantum_outputs.iter().map(|&(_, c)| c).collect(),
        co_global: fragment.circuit_outputs.iter().map(|&(_, g)| g).collect(),
        keys,
        coeffs: m.coeffs,
        derived: OnceLock::new(),
        enumerated: m.enumerated,
    }
}

/// Reorders the `dim`-wide rows of `rows` in place so that row `i` of the
/// result is row `order[i]` of the input (`order` a permutation), one
/// cycle at a time through a single spare row.
fn permute_rows(rows: &mut [f64], dim: usize, order: &[u32]) {
    let mut placed = vec![false; order.len()];
    let mut spare = vec![0.0; dim];
    for start in 0..order.len() {
        if placed[start] {
            continue;
        }
        spare.copy_from_slice(&rows[start * dim..(start + 1) * dim]);
        let mut at = start;
        loop {
            placed[at] = true;
            let from = order[at] as usize;
            if from == start {
                rows[at * dim..(at + 1) * dim].copy_from_slice(&spare);
                break;
            }
            rows.copy_within(from * dim..(from + 1) * dim, at * dim);
            at = from;
        }
    }
}

/// Evaluates several fragments' variants on **one shared worker pool** (the
/// paper's §X parallelization, lifted to the whole evaluation stage): every
/// (fragment × variant) pair is an independent work item, so a lone
/// expensive fragment no longer serializes the pipeline behind its
/// neighbours.
///
/// Items are processed in fixed-size chunks (`VARIANTS_PER_CHUNK`, a
/// constant independent of the worker count): each chunk folds its
/// variants, in item order, into one accumulator per fragment it spans,
/// and chunk partials are merged in chunk order by [`runtime::fold_ordered`]
/// whatever the worker count, which makes the result **bit-identical for
/// any `threads` value** (including 1) given the same `base_seeds`. A
/// variant touches only the `2^qo` columns it writes (the compact fold of
/// the module docs).
///
/// # Errors
///
/// Propagates the [`EvalError`] of the earliest failing chunk in chunk
/// order, on every schedule. A chunk that panics fails with
/// [`EvalError::Panicked`] naming it, so a panic is reported the same way:
/// the lowest panicking or failing chunk wins.
///
/// # Panics
///
/// Panics if `base_seeds.len() != fragments.len()`.
pub fn evaluate_fragment_tensors(
    fragments: &[Fragment],
    eval: &EvalOptions,
    opts: &TensorOptions,
    base_seeds: &[u64],
    threads: usize,
) -> Result<Vec<FragmentTensor>, EvalError> {
    let plans: Vec<FragmentEvalPlan> = fragments.iter().map(FragmentEvalPlan::new).collect();
    evaluate_fragment_tensors_planned(fragments, &plans, eval, opts, base_seeds, threads)
}

/// [`evaluate_fragment_tensors`] against prebuilt [`FragmentEvalPlan`]s —
/// the plan-reuse entry point: parameterized sweeps build the plans once
/// and re-execute them for every (seed, shots) point, skipping variant
/// enumeration and [`IndexPlan`] construction per run. Bit-identical to
/// the plan-building wrapper for any thread count.
///
/// # Errors
///
/// Propagates the [`EvalError`] of the earliest failing chunk in chunk
/// order, like [`evaluate_fragment_tensors`].
///
/// # Panics
///
/// Panics if `plans` or `base_seeds` length differs from `fragments`.
pub fn evaluate_fragment_tensors_planned(
    fragments: &[Fragment],
    plans: &[FragmentEvalPlan],
    eval: &EvalOptions,
    opts: &TensorOptions,
    base_seeds: &[u64],
    threads: usize,
) -> Result<Vec<FragmentTensor>, EvalError> {
    assert_eq!(
        fragments.len(),
        base_seeds.len(),
        "one base seed per fragment required"
    );
    assert_eq!(
        fragments.len(),
        plans.len(),
        "one evaluation plan per fragment required"
    );
    let num_chunks = num_chunks(plans);
    let maps = runtime::fold_ordered(
        runtime::worker_count(threads.max(1), num_chunks),
        num_chunks,
        plans.iter().map(TensorAccum::new).collect::<Vec<_>>(),
        WorkerScratch::new,
        |ci, scratch| {
            faultkit::catch_task(ci, || {
                evaluate_chunk(fragments, plans, eval, base_seeds, ci, scratch)
            })
        },
        |maps, chunk| merge_chunk(maps, chunk, plans, eval),
    )?;
    Ok(maps
        .into_iter()
        .zip(fragments)
        .map(|(m, fragment)| finalize_fragment_tensor(fragment, m, eval, opts))
        .collect())
}

/// Work items per evaluation-pool chunk. Fixed (not derived from the
/// thread count) so the fold structure — and therefore every float-merge
/// association — is identical for any parallelism, while bounding retained
/// accumulators to one per chunk instead of one per variant.
const VARIANTS_PER_CHUNK: usize = 16;

/// One evaluation chunk's result: a partial accumulator per fragment it
/// spans, in fragment order, each folded in variant order.
type ChunkPartials = Vec<(usize, TensorAccum)>;

/// Number of fixed-size evaluation chunks the (fragment × variant) work
/// items of `plans` decompose into. The decomposition is a pure function
/// of the plans (never of the worker count), which is what makes chunked
/// execution bit-identical for any parallelism.
fn num_chunks(plans: &[FragmentEvalPlan]) -> usize {
    let total: usize = plans.iter().map(FragmentEvalPlan::num_variants).sum();
    total.div_ceil(VARIANTS_PER_CHUNK)
}

/// Evaluates one chunk of the fixed (fragment × variant) decomposition on
/// a worker's reusable scratch.
///
/// # Panics
///
/// Panics if `chunk >= num_chunks(plans)` or the slice lengths disagree.
fn evaluate_chunk(
    fragments: &[Fragment],
    plans: &[FragmentEvalPlan],
    eval: &EvalOptions,
    base_seeds: &[u64],
    chunk: usize,
    scratch: &mut WorkerScratch,
) -> Result<ChunkPartials, EvalError> {
    assert_eq!(fragments.len(), plans.len(), "plan count mismatch");
    assert_eq!(fragments.len(), base_seeds.len(), "seed count mismatch");
    // Supervision checkpoint, once per chunk: cancellation and deadlines
    // surface here as `Interrupted`, scheduled fault injections as
    // `Injected` (or a deliberate panic the driver turns into `Panicked`).
    eval.supervisor.check(faultkit::Stage::Eval, chunk)?;
    let total: usize = plans.iter().map(FragmentEvalPlan::num_variants).sum();
    let start = chunk * VARIANTS_PER_CHUNK;
    assert!(start < total.max(1), "chunk {chunk} out of range");
    let end = (start + VARIANTS_PER_CHUNK).min(total);

    // Locate the fragment containing flat item `start`.
    let mut fi = 0;
    let mut offset = 0; // flat index of fragment fi's first item
    while fi < plans.len() && offset + plans[fi].num_variants() <= start {
        offset += plans[fi].num_variants();
        fi += 1;
    }

    let mut out: ChunkPartials = Vec::new();
    for flat in start..end {
        while flat >= offset + plans[fi].num_variants() {
            offset += plans[fi].num_variants();
            fi += 1;
        }
        if out.last().is_none_or(|(f, _)| *f != fi) {
            let mut m = TensorAccum::new(&plans[fi]);
            let variants = end.min(offset + plans[fi].num_variants()) - flat;
            m.reserve_rows(&plans[fi], eval, variants);
            out.push((fi, m));
        }
        let (_, m) = out.last_mut().expect("pushed above");
        m.enumerated += usize::from(evaluate_item(
            &fragments[fi],
            &plans[fi],
            (fi, flat - offset),
            base_seeds[fi],
            eval,
            scratch,
            m,
        )?);
    }
    Ok(out)
}

/// Folds one chunk's partial accumulators into the per-fragment maps. A
/// partial that meets a fragment accumulator still empty is moved in —
/// what copying its every row onto the empty accumulator would produce,
/// without the re-interning — and reserves the rows of all the fragment's
/// variants, so the later chunks' merges do not move it.
fn merge_chunk(
    maps: &mut [TensorAccum],
    chunk: ChunkPartials,
    plans: &[FragmentEvalPlan],
    eval: &EvalOptions,
) {
    for (fi, mut m) in chunk {
        if maps[fi].keys.is_empty() {
            m.enumerated += maps[fi].enumerated;
            m.reserve_rows(&plans[fi], eval, plans[fi].num_variants());
            maps[fi] = m;
        } else {
            merge_accumulator(&mut maps[fi], m);
        }
    }
}

/// In-place contraction of one base-4 axis (identified by its stride) with
/// a 4×4 matrix: `new[digit=r] = Σ_c mat[r][c]·old[digit=c]`.
fn transform_axis(v: &mut [f64], stride: usize, mat: &[[f64; 4]; 4]) {
    let len = v.len();
    let mut i = 0;
    while i < len {
        // `i` iterates over positions whose axis digit is 0.
        let old = [v[i], v[i + stride], v[i + 2 * stride], v[i + 3 * stride]];
        for (r, row) in mat.iter().enumerate() {
            let mut acc = 0.0;
            for (c, &val) in old.iter().enumerate() {
                acc += row[c] * val;
            }
            v[i + r * stride] = acc;
        }
        // Advance to the next digit-0 position.
        i += 1;
        if i % stride == 0 {
            i += 3 * stride;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{cut_circuit, CutStrategy};
    use crate::evaluate::evaluate_variant;
    use qcir::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(21)
    }

    fn exact_opts() -> EvalOptions {
        EvalOptions {
            mode: EvalMode::Exact,
            ..Default::default()
        }
    }

    #[test]
    fn axis_transform_identity() {
        let id = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ];
        let mut v: Vec<f64> = (0..16).map(|x| x as f64).collect();
        let orig = v.clone();
        transform_axis(&mut v, 4, &id);
        transform_axis(&mut v, 1, &id);
        assert_eq!(v, orig);
    }

    #[test]
    fn axis_transform_permutation() {
        // Swap digits 0<->1 on the stride-1 axis of a 2-axis tensor.
        let swap01 = [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ];
        let mut v: Vec<f64> = (0..16).map(|x| x as f64).collect();
        transform_axis(&mut v, 1, &swap01);
        for hi in 0..4 {
            assert_eq!(v[hi * 4], (hi * 4 + 1) as f64);
            assert_eq!(v[hi * 4 + 1], (hi * 4) as f64);
            assert_eq!(v[hi * 4 + 2], (hi * 4 + 2) as f64);
        }
    }

    /// Upstream |0>-state fragment: T[∅, I]=1, T[∅, Z]=1, X=Y=0.
    #[test]
    fn upstream_zero_state_tensor() {
        // Circuit: single wire ending in a cut: "I q0 ; T q0" cut before T.
        let mut c = Circuit::new(1);
        c.add_gate(qcir::Gate::I, &[0]).t(0);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let up = cut
            .fragments
            .iter()
            .find(|f| f.is_clifford && f.quantum_outputs.len() == 1)
            .expect("upstream fragment");
        let t = build_fragment_tensor(up, &exact_opts(), &TensorOptions::default(), &mut rng())
            .unwrap();
        let b = Bits::zeros(0);
        assert!((t.value(&b, 0) - 1.0).abs() < 1e-12, "I component");
        assert!((t.value(&b, 3) - 1.0).abs() < 1e-12, "Z component");
        assert!(t.value(&b, 1).abs() < 1e-12, "X component");
        assert!(t.value(&b, 2).abs() < 1e-12, "Y component");
    }

    /// Upstream |+>-state fragment: T[∅, X] = 1.
    #[test]
    fn upstream_plus_state_tensor() {
        let mut c = Circuit::new(1);
        c.h(0).t(0);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let up = cut
            .fragments
            .iter()
            .find(|f| f.is_clifford && f.quantum_outputs.len() == 1)
            .unwrap();
        let t = build_fragment_tensor(up, &exact_opts(), &TensorOptions::default(), &mut rng())
            .unwrap();
        let b = Bits::zeros(0);
        assert!((t.value(&b, 0) - 1.0).abs() < 1e-12);
        assert!((t.value(&b, 1) - 1.0).abs() < 1e-12, "X component of |+>");
        assert!(t.value(&b, 3).abs() < 1e-12, "Z component of |+>");
    }

    /// Downstream identity fragment: measuring the prepared state directly.
    #[test]
    fn downstream_identity_tensor() {
        let mut c = Circuit::new(1);
        c.t(0).add_gate(qcir::Gate::I, &[0]);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let down = cut
            .fragments
            .iter()
            .find(|f| f.is_clifford && f.quantum_inputs.len() == 1)
            .expect("downstream fragment");
        let t = build_fragment_tensor(down, &exact_opts(), &TensorOptions::default(), &mut rng())
            .unwrap();
        let b0 = Bits::from_u64(0, 1);
        let b1 = Bits::from_u64(1, 1);
        // T[0,I]=1/2, T[0,Z]=1/2, T[1,I]=1/2, T[1,Z]=-1/2, X=Y=0.
        assert!((t.value(&b0, 0) - 0.5).abs() < 1e-12);
        assert!((t.value(&b0, 3) - 0.5).abs() < 1e-12);
        assert!((t.value(&b1, 0) - 0.5).abs() < 1e-12);
        assert!((t.value(&b1, 3) + 0.5).abs() < 1e-12);
        assert!(t.value(&b0, 1).abs() < 1e-12);
        assert!(t.value(&b1, 2).abs() < 1e-12);
        // Trace preservation: Σ_b T[b, P≠I] = 0, Σ_b T[b,I] = 1.
        assert!((t.total(0) - 1.0).abs() < 1e-12);
        for idx in 1..3 {
            assert!(t.total(idx).abs() < 1e-12);
        }
    }

    /// Middle fragment (T gate): verify against analytic values.
    #[test]
    fn middle_t_gate_tensor() {
        let mut c = Circuit::new(1);
        c.h(0).t(0).h(0);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let tf = cut.fragments.iter().find(|f| !f.is_clifford).unwrap();
        let t = build_fragment_tensor(tf, &exact_opts(), &TensorOptions::default(), &mut rng())
            .unwrap();
        let b = Bits::zeros(0);
        // T[P_in, P_out] = Tr[P_out T P_in T†]/2:
        //   I→I: 1, Z→Z: 1, X→X: cos(π/4), X→Y: sin(π/4),
        //   Y→Y: cos(π/4), Y→X: -sin(π/4).
        let c45 = std::f64::consts::FRAC_PI_4.cos();
        let idx = |pi: usize, po: usize| pi * 4 + po;
        assert!((t.value(&b, idx(0, 0)) - 1.0).abs() < 1e-12, "I->I");
        assert!((t.value(&b, idx(3, 3)) - 1.0).abs() < 1e-12, "Z->Z");
        assert!((t.value(&b, idx(1, 1)) - c45).abs() < 1e-12, "X->X");
        assert!((t.value(&b, idx(1, 2)) - c45).abs() < 1e-12, "X->Y");
        assert!((t.value(&b, idx(2, 2)) - c45).abs() < 1e-12, "Y->Y");
        assert!((t.value(&b, idx(2, 1)) + c45).abs() < 1e-12, "Y->X");
        assert!(t.value(&b, idx(0, 3)).abs() < 1e-12, "I->Z");
        assert!(t.value(&b, idx(1, 3)).abs() < 1e-12, "X->Z");
    }

    #[test]
    fn clifford_fragment_has_sparse_pauli_support() {
        // §IX optimization 2: stabilizer states have mostly-zero Pauli
        // coefficients. A GHZ-producing upstream fragment over 2 cut qubits
        // has at most 1/4 of coefficients non-zero... here just check that
        // zeros exist in abundance.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(0).t(1);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let up = cut
            .fragments
            .iter()
            .find(|f| f.is_clifford && f.quantum_outputs.len() == 2)
            .expect("two-cut upstream fragment");
        let t = build_fragment_tensor(up, &exact_opts(), &TensorOptions::default(), &mut rng())
            .unwrap();
        let nonzero = t.nonzero_indices(1e-9).len();
        assert!(
            nonzero <= 4,
            "Bell-pair upstream should have ≤4 nonzero Paulis, got {nonzero}"
        );
    }

    #[test]
    fn threaded_build_matches_sequential() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(0).t(1).cx(0, 1);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let eval = EvalOptions {
            mode: EvalMode::Sampled { shots: 500 },
            ..Default::default()
        };
        let one = |f: &Fragment, threads: usize| {
            let fs = std::slice::from_ref(f);
            evaluate_fragment_tensors(fs, &eval, &TensorOptions::default(), &[99], threads)
                .unwrap()
                .remove(0)
        };
        for f in &cut.fragments {
            let (seq, par) = (one(f, 1), one(f, 4));
            assert_eq!(seq.support_len(), par.support_len());
            for (b, v) in seq.entries() {
                for (i, &x) in v.iter().enumerate() {
                    assert!(
                        (par.value(&b, i) - x).abs() < 1e-12,
                        "thread count changed results at {b}, idx {i}"
                    );
                }
            }
        }
    }

    /// The shared-pool evaluator is bit-identical across thread counts and
    /// matches the per-fragment path given the same base seeds.
    #[test]
    fn pooled_evaluation_bit_identical_across_thread_counts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).t(2).h(2);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let eval = EvalOptions {
            mode: EvalMode::Sampled { shots: 400 },
            ..Default::default()
        };
        let seeds: Vec<u64> = (0..cut.fragments.len() as u64).map(|i| 1000 + i).collect();
        let opts = TensorOptions::default();
        let seq = evaluate_fragment_tensors(&cut.fragments, &eval, &opts, &seeds, 1).unwrap();
        for threads in [2, 8] {
            let par =
                evaluate_fragment_tensors(&cut.fragments, &eval, &opts, &seeds, threads).unwrap();
            for (s, p) in seq.iter().zip(&par) {
                assert_eq!(s.support_len(), p.support_len());
                for (b, v) in s.entries() {
                    for (i, &x) in v.iter().enumerate() {
                        assert!(
                            p.value(&b, i) == x,
                            "pool with {threads} threads changed results at {b}, idx {i}"
                        );
                    }
                }
            }
        }
        // One fragment on its own folds the same chunks.
        for (fi, f) in cut.fragments.iter().enumerate() {
            let one = evaluate_fragment_tensors(
                std::slice::from_ref(f),
                &eval,
                &opts,
                &seeds[fi..=fi],
                3,
            )
            .unwrap()
            .remove(0);
            for (b, v) in one.entries() {
                for (i, &x) in v.iter().enumerate() {
                    assert!(
                        seq[fi].value(&b, i) == x,
                        "wrapper mismatch at {b}, idx {i}"
                    );
                }
            }
        }
    }

    /// `Fragment` is a `pub` struct, so its `is_clifford` flag can lie. A
    /// flagged fragment that holds a `T` is a typed error on the pool —
    /// the same one at 1 and 2 threads, not a panicked worker — and the
    /// pool evaluates honest fragments afterwards.
    #[test]
    fn mislabeled_clifford_fragment_is_a_typed_error_on_the_pool() {
        let mut c = Circuit::new(6);
        c.h(0);
        for q in 1..6 {
            c.cx(q - 1, q);
        }
        for q in [1usize, 3, 5] {
            c.t(q);
        }
        for q in 0..6 {
            c.h(q);
        }
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let mut mislabeled = cut.fragments.clone();
        let victim = mislabeled.iter().rposition(|f| !f.is_clifford).unwrap();
        mislabeled[victim].is_clifford = true;
        let plans: Vec<FragmentEvalPlan> = mislabeled.iter().map(FragmentEvalPlan::new).collect();
        assert!(num_chunks(&plans) >= 2, "need work for two workers");

        let eval = EvalOptions {
            mode: EvalMode::Sampled { shots: 50 },
            ..Default::default()
        };
        let opts = TensorOptions::default();
        let seeds: Vec<u64> = (0..mislabeled.len() as u64).map(|i| 900 + i).collect();
        let errors = [1usize, 2].map(|threads| {
            match evaluate_fragment_tensors(&mislabeled, &eval, &opts, &seeds, threads) {
                Err(EvalError::NonClifford(e)) => e,
                other => panic!("{threads} threads: expected NonClifford, got {other:?}"),
            }
        });
        assert_eq!(errors[0], errors[1]);
        assert_eq!(errors[0].name, "T");

        let seq = evaluate_fragment_tensors(&cut.fragments, &eval, &opts, &seeds, 1).unwrap();
        let par = evaluate_fragment_tensors(&cut.fragments, &eval, &opts, &seeds, 2).unwrap();
        for (fi, (s, p)) in seq.iter().zip(&par).enumerate() {
            assert_tensors_bit_identical(s, p, &format!("fragment {fi} after the error"));
        }

        // One worker's scratch across the failure: the chunk that fails
        // drops its partial and leaves nothing pending, and the worker's
        // next job folds exactly as on a fresh scratch.
        let mut scratch = WorkerScratch::new();
        let failed = (0..num_chunks(&plans)).find_map(|ci| {
            evaluate_chunk(&mislabeled, &plans, &eval, &seeds, ci, &mut scratch).err()
        });
        assert!(matches!(failed, Some(EvalError::NonClifford(_))));
        assert!(scratch.is_clean(), "a failed variant left partial sums");
        let honest: Vec<FragmentEvalPlan> =
            cut.fragments.iter().map(FragmentEvalPlan::new).collect();
        let mut maps: Vec<TensorAccum> = honest.iter().map(TensorAccum::new).collect();
        for ci in 0..num_chunks(&honest) {
            let chunk =
                evaluate_chunk(&cut.fragments, &honest, &eval, &seeds, ci, &mut scratch).unwrap();
            merge_chunk(&mut maps, chunk, &honest, &eval);
        }
        let reused = maps
            .into_iter()
            .zip(&cut.fragments)
            .map(|(m, f)| finalize_fragment_tensor(f, m, &eval, &opts));
        for (fi, (s, r)) in seq.iter().zip(reused).enumerate() {
            assert_tensors_bit_identical(s, &r, &format!("fragment {fi} on the reused scratch"));
        }
    }

    /// Faults injected at evaluation chunks 2 and 5 — panics, errors, or
    /// one of each — fail the evaluation with chunk 2's typed error at
    /// every thread count, whichever fault fires first in time, and the
    /// pool evaluates bit-identically afterwards.
    #[test]
    fn faulting_chunks_report_the_lowest_index() {
        use faultkit::{FaultKind, FaultPlan, Stage, Supervisor};
        let cut =
            cut_circuit(&workloads::hwea(8, 5, 3, 1).circuit, CutStrategy::default()).unwrap();
        let plans: Vec<FragmentEvalPlan> =
            cut.fragments.iter().map(FragmentEvalPlan::new).collect();
        assert!(num_chunks(&plans) > 5);
        let seeds: Vec<u64> = (0..plans.len() as u64).map(|i| 17 + i).collect();
        let opts = TensorOptions::default();
        let evaluate = |eval: &EvalOptions, threads| {
            evaluate_fragment_tensors_planned(&cut.fragments, &plans, eval, &opts, &seeds, threads)
        };
        for (at2, at5) in [
            (FaultKind::Panic, FaultKind::Panic),
            (FaultKind::Error, FaultKind::Panic),
            (FaultKind::Panic, FaultKind::Error),
        ] {
            let plan = FaultPlan::new()
                .inject(0, Stage::Eval, 2, at2.clone())
                .inject(0, Stage::Eval, 5, at5);
            let eval = EvalOptions {
                mode: EvalMode::Sampled { shots: 50 },
                supervisor: Supervisor::for_job(0).with_faults(std::sync::Arc::new(plan)),
            };
            for threads in [1usize, 2, 8] {
                let site = "job 0 stage eval task 2";
                match (&at2, evaluate(&eval, threads)) {
                    (FaultKind::Panic, Err(EvalError::Panicked(p))) => {
                        assert_eq!(p.task, 2, "{threads} threads");
                        assert!(p.payload.contains(site), "{threads} threads: {}", p.payload);
                    }
                    (FaultKind::Error, Err(EvalError::Injected(message))) => {
                        assert_eq!(message, site, "{threads} threads");
                    }
                    (_, other) => panic!(
                        "{at2} at chunk 2, {threads} threads: got {:?}",
                        other.map(|_| ())
                    ),
                }
            }
        }
        let eval = EvalOptions {
            mode: EvalMode::Sampled { shots: 50 },
            ..Default::default()
        };
        let seq = evaluate(&eval, 1).unwrap();
        for threads in [2usize, 8] {
            for (fi, (s, p)) in seq
                .iter()
                .zip(&evaluate(&eval, threads).unwrap())
                .enumerate()
            {
                assert_tensors_bit_identical(s, p, &format!("fragment {fi}, {threads} threads"));
            }
        }
    }

    /// After every variant the worker's pending block is empty and no
    /// outcome is marked — whatever the fragment's width, `qo`, or how
    /// many outcomes the chunk accumulator already holds — so one scratch
    /// serves a worker's whole life.
    #[test]
    fn worker_scratch_is_clean_between_variants() {
        let mut scratch = WorkerScratch::new();
        for (name, fragments) in parity_shapes() {
            let eval = EvalOptions {
                mode: EvalMode::Sampled { shots: 50 },
                ..Default::default()
            };
            for (fi, fragment) in fragments.iter().enumerate() {
                let plan = FragmentEvalPlan::new(fragment);
                let mut m = TensorAccum::new(&plan);
                for vi in 0..plan.num_variants() {
                    evaluate_item(fragment, &plan, (fi, vi), 77, &eval, &mut scratch, &mut m)
                        .unwrap();
                    assert!(scratch.is_clean(), "{name}, fragment {fi}, variant {vi}");
                    assert_eq!(m.coeffs.len(), m.keys.len() * m.dim);
                }
            }
        }
    }

    /// The premise of the compact fold (module docs): no accumulation
    /// partial at any level is `−0.0`. Scans every coefficient of every
    /// chunk partial, merged fragment accumulator and finished tensor —
    /// with the Clifford snap off, which can round a small negative ratio
    /// to `−0.0` downstream of accumulation — and a hand-built variant
    /// whose signed rows cancel exactly.
    #[test]
    fn no_partial_is_negative_zero() {
        let scan = |coeffs: &[f64], label: &str| {
            assert!(
                coeffs.iter().all(|x| x.to_bits() != (-0.0f64).to_bits()),
                "{label}: a partial is -0.0"
            );
        };
        let opts = TensorOptions {
            clifford_snap: false,
        };
        for (name, fragments) in parity_shapes() {
            let seeds: Vec<u64> = (0..fragments.len() as u64).map(|i| 31 + i).collect();
            let plans: Vec<FragmentEvalPlan> =
                fragments.iter().map(FragmentEvalPlan::new).collect();
            for mode in [EvalMode::Exact, EvalMode::Sampled { shots: 50 }] {
                let eval = EvalOptions {
                    mode,
                    ..Default::default()
                };
                let mut scratch = WorkerScratch::new();
                let chunks: Result<Vec<ChunkPartials>, _> = (0..num_chunks(&plans))
                    .map(|ci| evaluate_chunk(&fragments, &plans, &eval, &seeds, ci, &mut scratch))
                    .collect();
                // Exact mode cannot enumerate the 72-qubit support.
                let Ok(chunks) = chunks else { continue };
                let mut maps: Vec<TensorAccum> = plans.iter().map(TensorAccum::new).collect();
                for chunk in chunks {
                    for (fi, m) in &chunk {
                        scan(&m.coeffs, &format!("{name}, {mode:?}, chunk of #{fi}"));
                    }
                    merge_chunk(&mut maps, chunk, &plans, &eval);
                }
                for (fi, (m, fragment)) in maps.into_iter().zip(&fragments).enumerate() {
                    scan(&m.coeffs, &format!("{name}, {mode:?}, fragment #{fi}"));
                    let t = finalize_fragment_tensor(fragment, m, &eval, &opts);
                    scan(&t.coeffs, &format!("{name}, {mode:?}, tensor #{fi}"));
                }
            }
        }

        // One circuit output (local 0) and one quantum output (local 1).
        // Rows over (local 1, local 0): the quantum-output bit flips the
        // sign of the active column, so equal weights cancel there.
        let fragment = Fragment {
            circuit: Circuit::new(2),
            circuit_inputs: vec![0, 1],
            quantum_inputs: vec![],
            circuit_outputs: vec![(0, 0)],
            quantum_outputs: vec![(1, 0)],
            is_clifford: true,
        };
        let plan = FragmentEvalPlan::new(&fragment);
        let row = |q1: u64, q0: u64, p: f64| (Bits::from_u64(q1 << 1 | q0, 2), p);
        for (label, rows) in [
            ("+p then -p", vec![row(0, 0, 0.25), row(1, 0, 0.25)]),
            ("-p then +p", vec![row(1, 1, 0.25), row(0, 1, 0.25)]),
            ("a negated zero weight", vec![row(1, 0, 0.0)]),
        ] {
            let mut scratch = WorkerScratch::new();
            let mut m = TensorAccum::new(&plan);
            for variant in &plan.variants {
                scratch.data = rows.clone();
                fold_variant(&mut m, variant, &plan, &mut scratch);
            }
            scan(&m.coeffs, label);
            assert_eq!(m.keys.len(), 1, "{label}");
            let mass: f64 = rows.iter().map(|(_, p)| p).sum();
            // Identity column: every basis adds mass/3; X, Y, Z cancel.
            assert!((m.coeffs[0] - mass).abs() < 1e-15, "{label}");
            assert_eq!(&m.coeffs[1..], &[0.0; 3], "{label}");
        }
    }

    /// In sampled mode a coefficient buffer is sized by the plan and the
    /// shots alone: every chunk partial has the same capacity whichever
    /// seed drew its outcomes, and each fragment accumulator holds exactly
    /// the rows all its variants can emit, `min(variants·shots, 2^width)`
    /// — so no buffer grew, or moved, while it filled.
    #[test]
    fn sampled_accumulators_are_sized_by_the_plan_not_the_seed() {
        let shots = 50;
        let eval = EvalOptions {
            mode: EvalMode::Sampled { shots },
            ..Default::default()
        };
        for (name, fragments) in parity_shapes() {
            let plans: Vec<FragmentEvalPlan> =
                fragments.iter().map(FragmentEvalPlan::new).collect();
            let run = |seed: u64| {
                let seeds: Vec<u64> = (0..fragments.len() as u64).map(|i| seed + i).collect();
                let mut scratch = WorkerScratch::new();
                let mut maps: Vec<TensorAccum> = plans.iter().map(TensorAccum::new).collect();
                let mut partials = Vec::new();
                for ci in 0..num_chunks(&plans) {
                    let chunk = evaluate_chunk(&fragments, &plans, &eval, &seeds, ci, &mut scratch)
                        .unwrap();
                    partials.extend(chunk.iter().map(|(fi, m)| (*fi, m.coeffs.capacity())));
                    merge_chunk(&mut maps, chunk, &plans, &eval);
                }
                let maps: Vec<(usize, usize)> = maps
                    .iter()
                    .map(|m| (m.keys.len(), m.coeffs.capacity()))
                    .collect();
                (partials, maps)
            };
            let (partials, maps) = run(11);
            let (other_partials, other_maps) = run(9001);
            assert_eq!(partials, other_partials, "{name}: chunk partials");
            for (fi, (((support, cap), &(_, other_cap)), plan)) in
                maps.iter().zip(&other_maps).zip(&plans).enumerate()
            {
                let keys = 1usize
                    .checked_shl(plan.co_plan.len() as u32)
                    .unwrap_or(usize::MAX);
                let rows = (plan.num_variants() * shots).min(keys);
                assert!(*support <= rows, "{name}, fragment {fi}: support");
                assert_eq!(*cap, rows * plan.dim, "{name}, fragment {fi}: capacity");
                assert_eq!(other_cap, *cap, "{name}, fragment {fi}: other seed");
            }
        }
    }

    /// The pre-intern evaluation stage, frozen as a parity baseline: per-chunk
    /// `BTreeMap<Bits, Vec<f64>>` accumulation (one ordered-map walk and a key
    /// clone per touch), folded and merged with the identical chunk structure
    /// as [`evaluate_fragment_tensors`], then finished through the same snap /
    /// axis-transform / derived-sum pipeline. Sequential only — the chunk
    /// decomposition makes it bit-identical to the engine at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] like [`evaluate_fragment_tensors`].
    ///
    /// # Panics
    ///
    /// Panics if `base_seeds.len() != fragments.len()`.
    fn reference_evaluate_btreemap(
        fragments: &[Fragment],
        eval: &EvalOptions,
        opts: &TensorOptions,
        base_seeds: &[u64],
    ) -> Result<Vec<FragmentTensor>, EvalError> {
        assert_eq!(
            fragments.len(),
            base_seeds.len(),
            "one base seed per fragment required"
        );
        type Map = BTreeMap<Bits, Vec<f64>>;
        fn merge_map(m: &mut Map, local: Map) {
            for (b, v) in local {
                match m.entry(b) {
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        for (a, x) in e.get_mut().iter_mut().zip(&v) {
                            *a += x;
                        }
                    }
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(v);
                    }
                }
            }
        }

        let plans: Vec<FragmentEvalPlan> = fragments.iter().map(FragmentEvalPlan::new).collect();
        let items: Vec<(usize, usize)> = plans
            .iter()
            .enumerate()
            .flat_map(|(fi, plan)| (0..plan.num_variants()).map(move |vi| (fi, vi)))
            .collect();
        let mut maps: Vec<Map> = fragments.iter().map(|_| Map::new()).collect();
        for chunk in items.chunks(VARIANTS_PER_CHUNK) {
            let mut out: Vec<(usize, Map)> = Vec::new();
            for &(fi, vi) in chunk {
                let plan = &plans[fi];
                let mut rng = variant_rng(base_seeds[fi], vi);
                let variant = &plan.variants[vi];
                let data = evaluate_variant(&fragments[fi], variant, eval, &mut rng)?;
                let mut local = Map::new();
                let qo = plan.qo;
                let pow4_qo = 1usize << (2 * qo);
                let s = variant.prep_index();
                let basis_digits: Vec<usize> =
                    variant.bases.iter().map(|b| b.pauli_digit()).collect();
                for (bits, p) in data {
                    let b = plan.co_plan.extract(&bits);
                    let mbits = plan.qo_plan.extract(&bits);
                    let mv = local.entry(b).or_insert_with(|| vec![0.0; plan.dim]);
                    for subset in 0..(1usize << qo) {
                        let mut po = 0usize;
                        let mut sign = 1.0;
                        for j in 0..qo {
                            let active = (subset >> (qo - 1 - j)) & 1 == 1;
                            po = po * 4 + if active { basis_digits[j] } else { 0 };
                            if active && mbits.get(j) {
                                sign = -sign;
                            }
                        }
                        let t = qo - subset.count_ones() as usize;
                        mv[s * pow4_qo + po] += p * sign * plan.inv3[t];
                    }
                }
                match out.last_mut() {
                    Some((f, m)) if *f == fi => merge_map(m, local),
                    _ => out.push((fi, local)),
                }
            }
            for (fi, m) in out {
                merge_map(&mut maps[fi], m);
            }
        }

        Ok(maps
            .into_iter()
            .zip(fragments)
            .map(|(mut m, fragment)| {
                let qi = fragment.quantum_inputs.len();
                let qo = fragment.quantum_outputs.len();
                let pow4_qo = 1usize << (2 * qo);
                let snapped = opts.clifford_snap
                    && fragment.is_clifford
                    && !fragment.circuit.has_noise()
                    && matches!(eval.mode, EvalMode::Sampled { .. });
                if snapped {
                    for v in m.values_mut() {
                        for s in 0..(1usize << (2 * qi)) {
                            let norm = v[s * pow4_qo];
                            if norm.abs() < 1e-12 {
                                continue;
                            }
                            for po in 1..pow4_qo {
                                let r = v[s * pow4_qo + po] / norm;
                                let snap = r.round().clamp(-1.0, 1.0);
                                v[s * pow4_qo + po] = snap * norm;
                            }
                        }
                    }
                }
                for v in m.values_mut() {
                    for axis in 0..qi {
                        let stride = (1usize << (2 * (qi - 1 - axis))) * pow4_qo;
                        transform_axis(v, stride, &PREP_TO_PAULI);
                    }
                }
                FragmentTensor::from_dense_entries(
                    fragment.quantum_inputs.iter().map(|&(_, c)| c).collect(),
                    fragment.quantum_outputs.iter().map(|&(_, c)| c).collect(),
                    fragment.circuit_outputs.iter().map(|&(_, g)| g).collect(),
                    m.into_iter().collect(),
                )
            })
            .collect())
    }

    /// The cut circuits the parity and `±0.0` tests run: the shapes the
    /// end-to-end benchmark evaluates, plus fragments without circuit
    /// outputs (every row shares the empty key) and a pair whose
    /// preparations share prep index 0 inside one chunk.
    fn parity_shapes() -> Vec<(&'static str, Vec<Fragment>)> {
        let cut = |c: &Circuit, strategy| cut_circuit(c, strategy).unwrap().fragments;
        let mut ladder_head = cut(&workloads::t_ladder(2, 400).circuit, CutStrategy::default());
        ladder_head.truncate(2);
        let mut small = Circuit::new(3);
        small.h(0).cx(0, 1).t(1).cx(1, 2).t(2).h(2);
        let mut keyless = Circuit::new(1);
        keyless.h(0).t(0).h(0).t(0);
        vec![
            ("3q two-T", cut(&small, CutStrategy::default())),
            (
                "1q, no circuit outputs",
                cut(&keyless, CutStrategy::default()),
            ),
            (
                "hwea(8,5,3,1)",
                cut(&workloads::hwea(8, 5, 3, 1).circuit, CutStrategy::default()),
            ),
            (
                "qaoa_sk(12,1,1,1)",
                cut(
                    &workloads::qaoa_sk(12, 1, 1, 1).circuit,
                    CutStrategy::default(),
                ),
            ),
            (
                "hwea(72,5,1,2)",
                cut(
                    &workloads::hwea(72, 5, 1, 2).circuit,
                    CutStrategy::default(),
                ),
            ),
            (
                "t_ladder(10,8)",
                cut(
                    &workloads::t_ladder(10, 8).circuit,
                    CutStrategy::IsolateNonClifford { max_cuts: 4 },
                ),
            ),
            ("t_ladder(2,400), first two fragments", ladder_head),
        ]
    }

    /// The shapes are what the tests say they are: a Clifford
    /// `qi + qo = 5` fragment of 432 variants followed by chunks that
    /// several fragments share, and a `qo = 0` fragment with several
    /// preparations; a fragment that sits whole inside chunk 0; outcome
    /// keys past one word with no quantum outputs; a statevector fragment
    /// with `qi = qo = 2` whose 9-basis preparation groups straddle chunk
    /// boundaries; fragments keyed by the empty bitstring; and a `qi = 0`
    /// fragment followed, inside chunk 0, by one whose first variant also
    /// has prep index 0.
    #[test]
    fn parity_shapes_cover_the_compact_fold() {
        let shapes = parity_shapes();
        let plans_of = |name: &str| -> Vec<FragmentEvalPlan> {
            let (_, fragments) = shapes.iter().find(|(n, _)| *n == name).unwrap();
            fragments.iter().map(FragmentEvalPlan::new).collect()
        };
        let fragments_of = |name: &str| &shapes.iter().find(|(n, _)| *n == name).unwrap().1;

        let t3 = plans_of("hwea(8,5,3,1)");
        let big = t3.iter().position(|p| p.num_variants() == 432).unwrap();
        assert_eq!((t3[big].dim, t3[big].qo), (1024, 3));
        assert!(fragments_of("hwea(8,5,3,1)")[big].is_clifford);
        assert!(fragments_of("hwea(8,5,3,1)")
            .iter()
            .any(|f| f.quantum_outputs.is_empty() && !f.quantum_inputs.is_empty()));
        assert!(num_chunks(&t3) >= 27);
        let boundaries = t3.iter().scan(0, |end, p| {
            *end += p.num_variants();
            Some(*end)
        });
        assert!(
            boundaries
                .take(t3.len() - 1)
                .any(|end| end % VARIANTS_PER_CHUNK != 0),
            "a fragment boundary must fall inside a chunk"
        );

        let qaoa = plans_of("qaoa_sk(12,1,1,1)");
        let widest = (0..qaoa.len())
            .max_by_key(|&fi| fragments_of("qaoa_sk(12,1,1,1)")[fi].circuit_outputs.len())
            .unwrap();
        let end: usize = qaoa[..=widest].iter().map(|p| p.num_variants()).sum();
        assert!(end <= VARIANTS_PER_CHUNK, "widest fragment inside chunk 0");

        let wide = fragments_of("hwea(72,5,1,2)");
        assert!(wide
            .iter()
            .any(|f| f.circuit_outputs.len() > 64 && f.quantum_outputs.is_empty()));
        let ladder = fragments_of("t_ladder(10,8)");
        assert!(!ladder[0].is_clifford);
        assert_eq!(
            (
                ladder[0].quantum_inputs.len(),
                ladder[0].quantum_outputs.len()
            ),
            (2, 2)
        );
        assert!(
            (0..16).any(|s| (9 * s) / VARIANTS_PER_CHUNK != (9 * s + 8) / VARIANTS_PER_CHUNK),
            "a preparation group straddles a chunk boundary"
        );

        let head = fragments_of("t_ladder(2,400), first two fragments");
        let head_plans = plans_of("t_ladder(2,400), first two fragments");
        assert!(head[0].quantum_inputs.is_empty());
        assert!(head_plans[0].num_variants() < VARIANTS_PER_CHUNK);
        assert_eq!(head_plans[1].variants[0].prep_index(), 0);
        assert!(fragments_of("1q, no circuit outputs")
            .iter()
            .any(|f| f.circuit_outputs.is_empty() && f.num_cut_ends() == 2));
    }

    /// The evaluation engine is bit-identical — same support, same
    /// emission order, same float bits — to the frozen `BTreeMap`
    /// reference path, which runs every variant alone through
    /// `evaluate_variant` (its own body run, a fresh cache), on every shape
    /// of [`parity_shapes`], in exact mode and at 50 and 5000 shots: at 1,
    /// 2, and 8 threads (the pipeline's one evaluation path), and on one
    /// worker that runs the chunks backwards and zigzag (first, last,
    /// second, …), so a chunk starts on whatever post-body state another
    /// fragment or preparation left cached. A shape exact mode cannot
    /// evaluate must fail with the reference's error on every schedule.
    #[test]
    fn evaluation_matches_btreemap_reference_bit_exact() {
        let opts = TensorOptions::default();
        for (name, fragments) in parity_shapes() {
            let seeds: Vec<u64> = (0..fragments.len() as u64).map(|i| 4242 + i).collect();
            let plans: Vec<FragmentEvalPlan> =
                fragments.iter().map(FragmentEvalPlan::new).collect();
            let n = num_chunks(&plans);
            let backwards: Vec<usize> = (0..n).rev().collect();
            let zigzag: Vec<usize> = (0..n)
                .map(|i| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 })
                .collect();
            for mode in [
                EvalMode::Exact,
                EvalMode::Sampled { shots: 50 },
                EvalMode::Sampled { shots: 5000 },
            ] {
                let eval = EvalOptions {
                    mode,
                    ..Default::default()
                };
                let expect = reference_evaluate_btreemap(&fragments, &eval, &opts, &seeds)
                    .map_err(|e| e.to_string());
                let pooled = [1usize, 2, 8].map(|threads| {
                    evaluate_fragment_tensors_planned(
                        &fragments, &plans, &eval, &opts, &seeds, threads,
                    )
                });
                let one_worker = [&backwards, &zigzag].map(|order| {
                    evaluate_in_order(&fragments, &plans, &eval, &opts, &seeds, order)
                });
                for (path, got) in [
                    "1 thread",
                    "2 threads",
                    "8 threads",
                    "one worker, backwards",
                    "one worker, zigzag",
                ]
                .into_iter()
                .zip(pooled.into_iter().chain(one_worker))
                {
                    let label = format!("{name}, {mode:?}, {path}");
                    match (got.map_err(|e| e.to_string()), &expect) {
                        (Ok(got), Ok(expect)) => {
                            for (fi, (g, e)) in got.iter().zip(expect).enumerate() {
                                assert_tensors_bit_identical(g, e, &format!("{label}, #{fi}"));
                            }
                        }
                        (Err(got), Err(expect)) => assert_eq!(&got, expect, "{label}"),
                        _ => panic!("{label}: engine and reference disagree on failure"),
                    }
                }
            }
        }
    }

    /// Runs the chunks of `plans` on one worker's scratch in `order` (a
    /// permutation of the chunk indices) and merges their partials in
    /// chunk order, as [`runtime::fold_ordered`] does: the lowest failing
    /// chunk's error wins.
    fn evaluate_in_order(
        fragments: &[Fragment],
        plans: &[FragmentEvalPlan],
        eval: &EvalOptions,
        opts: &TensorOptions,
        seeds: &[u64],
        order: &[usize],
    ) -> Result<Vec<FragmentTensor>, EvalError> {
        let mut scratch = WorkerScratch::new();
        let mut partials: Vec<_> = order.iter().map(|_| None).collect();
        for &ci in order {
            partials[ci] = Some(evaluate_chunk(
                fragments,
                plans,
                eval,
                seeds,
                ci,
                &mut scratch,
            ));
        }
        let mut maps: Vec<TensorAccum> = plans.iter().map(TensorAccum::new).collect();
        for chunk in partials {
            merge_chunk(&mut maps, chunk.expect("every chunk ran")?, plans, eval);
        }
        Ok(maps
            .into_iter()
            .zip(fragments)
            .map(|(m, f)| finalize_fragment_tensor(f, m, eval, opts))
            .collect())
    }

    /// Asserts two tensors agree bit for bit: support, emission order,
    /// coefficients, and every derived sum.
    fn assert_tensors_bit_identical(a: &FragmentTensor, b: &FragmentTensor, label: &str) {
        assert_eq!(a.support_len(), b.support_len(), "{label}: support");
        for ((ab, av), (bb, bv)) in a.entries().into_iter().zip(b.entries()) {
            assert_eq!(ab, bb, "{label}: emission order");
            for (i, (x, y)) in av.iter().zip(bv).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "{label}: coeff at {ab}, idx {i}: {x} vs {y}"
                );
            }
        }
        for i in 0..a.pauli_dim() {
            assert!(
                a.total(i).to_bits() == b.total(i).to_bits(),
                "{label}: total {i}"
            );
            assert!(
                a.slice_max_abs(i).to_bits() == b.slice_max_abs(i).to_bits(),
                "{label}: slice_max {i}"
            );
        }
        for bit in 0..a.output_globals().len() {
            let (a0, a1) = a.marginal_slices(bit);
            let (b0, b1) = b.marginal_slices(bit);
            for i in 0..a.pauli_dim() {
                assert!(
                    a0[i].to_bits() == b0[i].to_bits() && a1[i].to_bits() == b1[i].to_bits(),
                    "{label}: marginal bit {bit}, idx {i}"
                );
            }
        }
    }

    /// Frozen reference model for [`FragmentTensor`]'s storage semantics:
    /// the pre-intern `BTreeMap<Bits, Vec<f64>>` internals, reproduced
    /// verbatim (insert-overwrites, sorted iteration, derived sums
    /// accumulated in key order, rebuild scaling in place).
    mod reference_model {
        use qcir::Bits;
        use std::collections::BTreeMap;

        #[derive(Clone)]
        pub struct Model {
            pub dim: usize,
            pub n_out: usize,
            pub entries: BTreeMap<Bits, Vec<f64>>,
            pub totals: Vec<f64>,
            pub slice_max: Vec<f64>,
            pub slice_abs: Vec<f64>,
            pub marginals: Vec<[Vec<f64>; 2]>,
        }

        impl Model {
            pub fn new(dim: usize, n_out: usize) -> Self {
                Model {
                    dim,
                    n_out,
                    entries: BTreeMap::new(),
                    totals: Vec::new(),
                    slice_max: Vec::new(),
                    slice_abs: Vec::new(),
                    marginals: Vec::new(),
                }
            }

            pub fn set_entry(&mut self, b: Bits, v: Vec<f64>) {
                self.entries.insert(b, v);
            }

            pub fn rebuild_derived(&mut self, scale: f64) {
                let dim = self.dim;
                let mut totals = vec![0.0; dim];
                let mut slice_max = vec![0.0f64; dim];
                let mut slice_abs = vec![0.0f64; dim];
                let mut marginals = vec![[vec![0.0; dim], vec![0.0; dim]]; self.n_out];
                for (b, v) in self.entries.iter_mut() {
                    for x in v.iter_mut() {
                        *x *= scale;
                    }
                    for (i, &x) in v.iter().enumerate() {
                        totals[i] += x;
                        slice_max[i] = slice_max[i].max(x.abs());
                        slice_abs[i] += x.abs();
                    }
                    for bit in 0..self.n_out {
                        let side = b.get(bit) as usize;
                        for (i, &x) in v.iter().enumerate() {
                            marginals[bit][side][i] += x;
                        }
                    }
                }
                self.totals = totals;
                self.slice_max = slice_max;
                self.slice_abs = slice_abs;
                self.marginals = marginals;
            }
        }
    }

    /// Asserts every derived-sum accessor of the (lazy) tensor returns the
    /// bits the eagerly rebuilt model holds.
    fn assert_derived_match_model(t: &FragmentTensor, model: &reference_model::Model, label: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(t.totals()), bits(&model.totals), "{label}: totals");
        assert_eq!(
            bits(t.abs_sums()),
            bits(&model.slice_abs),
            "{label}: abs_sums"
        );
        for i in 0..model.dim {
            assert!(
                t.total(i).to_bits() == model.totals[i].to_bits(),
                "{label}: total {i}"
            );
            assert!(
                t.slice_max_abs(i).to_bits() == model.slice_max[i].to_bits(),
                "{label}: slice_max {i}"
            );
            assert!(
                t.slice_abs_sum(i).to_bits() == model.slice_abs[i].to_bits(),
                "{label}: slice_abs {i}"
            );
        }
        for bit in 0..model.n_out {
            let (m0, m1) = t.marginal_slices(bit);
            let [e0, e1] = &model.marginals[bit];
            assert_eq!(bits(m0), bits(e0), "{label}: marginal bit {bit}, v 0");
            assert_eq!(bits(m1), bits(e1), "{label}: marginal bit {bit}, v 1");
            for i in 0..model.dim {
                assert!(
                    t.marginal(bit, false, i).to_bits() == e0[i].to_bits()
                        && t.marginal(bit, true, i).to_bits() == e1[i].to_bits(),
                    "{label}: marginal({bit}, _, {i})"
                );
            }
        }
        for tol in [0.0, 0.2] {
            let expect: Vec<usize> = (0..model.dim)
                .filter(|&i| model.slice_max[i] > tol)
                .collect();
            assert_eq!(t.nonzero_indices(tol), expect, "{label}: nonzero({tol})");
        }
    }

    /// Property: random build / overwrite / insert / rescale sequences on
    /// the interned tensor match the ordered-map reference model bit for
    /// bit — same support, same emission order, same coefficient and
    /// derived-sum float bits. Covers empty-support and single-entry
    /// tensors (the `n_entries` range starts at 0).
    #[test]
    fn interned_tensor_matches_btreemap_reference_bit_exact() {
        let mut rng = StdRng::seed_from_u64(777);
        for case in 0..60 {
            // One input cut, one output cut, three circuit-output bits.
            let n_out = 3;
            let dim = 16;
            // Cases 0 and 1 pin the empty-support and single-entry edges.
            let n_entries = match case {
                0 => 0,
                1 => 1,
                _ => (rng.random::<u64>() % 9) as usize,
            };
            let coeff_vec = |rng: &mut StdRng| -> Vec<f64> {
                (0..dim).map(|_| rng.random::<f64>() - 0.45).collect()
            };
            // Duplicate keys on purpose: later entries must overwrite.
            let entries: Vec<(Bits, Vec<f64>)> = (0..n_entries)
                .map(|_| {
                    let b = Bits::from_u64(rng.random::<u64>() % 6, n_out);
                    (b, coeff_vec(&mut rng))
                })
                .collect();
            let mut tensor = FragmentTensor::from_dense_entries(
                vec![0],
                vec![1],
                vec![0, 1, 2],
                entries.clone(),
            );
            let mut model = reference_model::Model::new(dim, n_out);
            for (b, v) in entries {
                model.set_entry(b, v);
            }
            model.rebuild_derived(1.0);
            // Interleave overwrites of existing keys, brand-new keys, and
            // rescales — the exact op mix the MLFT stage performs.
            for _ in 0..(rng.random::<u64>() % 6) {
                match rng.random::<u64>() % 3 {
                    0 => {
                        let b = Bits::from_u64(rng.random::<u64>() % 8, n_out);
                        let v = coeff_vec(&mut rng);
                        // No rebuild on the tensor: `set_entry` alone
                        // must make the old sums unreadable.
                        tensor.set_entry(b.clone(), v.clone());
                        model.set_entry(b, v);
                        model.rebuild_derived(1.0);
                    }
                    1 => {
                        let scale = 0.25 + rng.random::<f64>();
                        tensor.rebuild_derived(scale);
                        model.rebuild_derived(scale);
                    }
                    _ => {}
                }
            }
            assert_eq!(
                tensor.support_len(),
                model.entries.len(),
                "case {case}: support"
            );
            for ((tb, tv), (mb, mv)) in tensor.entries().into_iter().zip(model.entries.iter()) {
                assert_eq!(&tb, mb, "case {case}: emission order");
                for (i, (x, y)) in tv.iter().zip(mv).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "case {case}: coeff at {tb}, idx {i}"
                    );
                }
                assert_eq!(tensor.coeffs(&tb).unwrap(), mv.as_slice());
            }
            assert_derived_match_model(&tensor, &model, &format!("case {case}"));
            // Unobserved outcomes read as zero / absent.
            let absent = Bits::from_u64(63, n_out);
            if !model.entries.contains_key(&absent) {
                assert_eq!(tensor.value(&absent, 0), 0.0, "case {case}: absent value");
                assert!(
                    tensor.coeffs(&absent).is_none(),
                    "case {case}: absent slice"
                );
            }
        }
    }

    /// The derived sums are computed on first read and can never be read
    /// stale: after building, after a rescale (`1.0` included, which must
    /// leave every bit alone), after `set_entry` with no rebuild, and on
    /// clones taken before and after the first read, all eight accessors
    /// return the bits of the eager model.
    #[test]
    fn lazy_derived_sums_match_the_eager_model() {
        let mut rng = StdRng::seed_from_u64(4096);
        let (dim, n_out) = (16, 3);
        let mut coeff_vec =
            || -> Vec<f64> { (0..dim).map(|_| rng.random::<f64>() - 0.45).collect() };
        let entries: Vec<(Bits, Vec<f64>)> = [5u64, 0, 3, 6]
            .iter()
            .map(|&k| (Bits::from_u64(k, n_out), coeff_vec()))
            .collect();
        let mut tensor =
            FragmentTensor::from_dense_entries(vec![0], vec![1], vec![0, 1, 2], entries.clone());
        let mut model = reference_model::Model::new(dim, n_out);
        for (b, v) in entries {
            model.set_entry(b, v);
        }
        model.rebuild_derived(1.0);

        assert!(tensor.derived.get().is_none(), "building computes nothing");
        let unread_clone = tensor.clone();
        assert_derived_match_model(&tensor, &model, "built");
        assert!(tensor.derived.get().is_some());
        assert!(unread_clone.derived.get().is_none());
        assert_derived_match_model(&unread_clone, &model, "clone taken before the first read");
        assert_derived_match_model(&tensor.clone(), &model, "clone taken after the first read");

        for scale in [1.0, 1.0 / 3.0] {
            tensor.rebuild_derived(scale);
            model.rebuild_derived(scale);
            assert!(tensor.derived.get().is_none(), "a rescale drops the sums");
            assert_derived_match_model(&tensor, &model, &format!("rescaled by {scale}"));
        }

        // Overwrite an observed outcome, then append an unseen one.
        let (read_clone, before) = (tensor.clone(), model.clone());
        for key in [3u64, 7] {
            let (b, v) = (Bits::from_u64(key, n_out), coeff_vec());
            tensor.set_entry(b.clone(), v.clone());
            model.set_entry(b, v);
            model.rebuild_derived(1.0);
            assert_derived_match_model(&tensor, &model, &format!("set_entry({key}), no rebuild"));
        }
        // The clone kept the sums of the coefficients it was taken with.
        assert_derived_match_model(&read_clone, &before, "clone is independent of later writes");
    }

    /// The derived pass matches the eager model at every row width — a
    /// cut-free fragment's 1-wide row (the column-wise remainder) and
    /// 4-, 16- and 64-wide rows — with keys past one word.
    #[test]
    fn derived_sums_match_the_eager_model_at_every_row_width() {
        let mut rng = StdRng::seed_from_u64(77);
        let n_out = 70;
        for (qi, qo) in [(0usize, 0usize), (0, 1), (1, 1), (1, 2)] {
            let dim = 1usize << (2 * (qi + qo));
            let entries: Vec<(Bits, Vec<f64>)> = (0..40)
                .map(|_| {
                    let key: Bits = (0..n_out).map(|_| rng.random::<bool>()).collect();
                    let v = (0..dim).map(|_| rng.random::<f64>() - 0.45).collect();
                    (key, v)
                })
                .collect();
            let tensor = FragmentTensor::from_dense_entries(
                (0..qi).collect(),
                (qi..qi + qo).collect(),
                (0..n_out).collect(),
                entries.clone(),
            );
            let mut model = reference_model::Model::new(dim, n_out);
            for (b, v) in entries {
                model.set_entry(b, v);
            }
            model.rebuild_derived(1.0);
            assert_derived_match_model(&tensor, &model, &format!("row width {dim}"));
        }
    }

    /// Evaluation leaves the derived sums uncomputed and the MLFT
    /// correction computes them — once per fragment per run, inside the
    /// MLFT task, from the normalized coefficients.
    #[test]
    fn evaluation_defers_the_derived_pass_to_the_mlft_correction() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).t(2).h(2);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let eval = EvalOptions {
            mode: EvalMode::Sampled { shots: 200 },
            ..Default::default()
        };
        let seeds: Vec<u64> = (0..cut.fragments.len() as u64).map(|i| 60 + i).collect();
        let mut tensors =
            evaluate_fragment_tensors(&cut.fragments, &eval, &TensorOptions::default(), &seeds, 1)
                .unwrap();
        for t in &mut tensors {
            assert!(t.derived.get().is_none(), "evaluation must not sum");
            crate::correct_tensor(t, &crate::MlftOptions::default()).unwrap();
            assert!(t.derived.get().is_some(), "the correction must sum");
            assert!((t.total(0) - 1.0).abs() < 1e-9);
        }
    }

    /// Empty-support tensors expose sane derived state.
    #[test]
    fn empty_support_tensor_is_well_formed() {
        let t = FragmentTensor::from_dense_entries(vec![0], vec![], vec![0, 1], Vec::new());
        assert_eq!(t.support_len(), 0);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.pauli_dim(), 4);
        for i in 0..4 {
            assert_eq!(t.total(i), 0.0);
            assert_eq!(t.slice_max_abs(i), 0.0);
        }
        assert!(t.nonzero_indices(0.0).is_empty());
        assert_eq!(t.value(&Bits::from_u64(0, 2), 0), 0.0);
    }

    #[test]
    fn snapping_restores_exact_values_from_samples() {
        let mut c = Circuit::new(1);
        c.h(0).t(0);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        let up = cut.fragments.iter().find(|f| f.is_clifford).unwrap();
        let eval = EvalOptions {
            mode: EvalMode::Sampled { shots: 200 },
            ..Default::default()
        };
        let snapped = build_fragment_tensor(
            up,
            &eval,
            &TensorOptions {
                clifford_snap: true,
            },
            &mut rng(),
        )
        .unwrap();
        let b = Bits::zeros(0);
        // With snapping, 200 shots recover the exact <X>=1, <Z>=0 values.
        assert!((snapped.value(&b, 1) - 1.0).abs() < 1e-12);
        assert!(snapped.value(&b, 3).abs() < 1e-12);
    }
}
