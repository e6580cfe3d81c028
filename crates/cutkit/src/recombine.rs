//! Recombination: contracting fragment tensors into output distributions.
//!
//! The distribution builder (paper §V-C) evaluates
//!
//! ```text
//! p(b) = Σ_{κ ∈ {I,X,Y,Z}^k}  Π_f  T_f[b_f, κ_f]
//! ```
//!
//! — a tensor-network contraction with one 4-valued edge per cut, hence the
//! `O(4^k)` reconstruction cost the paper analyzes. Three query shapes are
//! supported:
//!
//! * [`Reconstructor::joint`] — the full sparse joint distribution
//!   (feasible when fragment supports are modest);
//! * [`Reconstructor::marginals`] — all single-qubit marginals, the
//!   scalable path used for the paper's 300-qubit runs (its dense-metric
//!   fidelity is defined on marginals);
//! * [`Reconstructor::probability_of`] — "strong simulation" of one
//!   bitstring to machine precision.
//!
//! The Clifford-specific "fewer stitching calculations" optimization
//! (paper §IX) skips every `κ` containing a Pauli with identically-zero
//! fragment weight, which prunes most of the `4^k` terms for stabilizer
//! fragments.
//!
//! # Chunked contraction
//!
//! The `4^k` assignment range is split into fixed-size chunks
//! ([`ASSIGNMENTS_PER_CHUNK`]), contracted in chunk order into one
//! accumulator per query. The contraction runs on the calling thread: the
//! pipeline parallelizes across jobs, never inside one. Chunks are the
//! unit of supervision (one checkpoint each), of the error budget's split,
//! and of the whole-chunk sparse skip.
//!
//! Sparse skipping precomputes one bitmask of non-vanishing Pauli slices
//! per tensor, turning the per-assignment check into a single bit test.
//!
//! # Error-budgeted truncation
//!
//! [`Reconstructor::with_error_budget`] turns accuracy into a latency
//! knob: each cut assignment carries a cheap weight bound — the product
//! of its fragments' per-slice L1 masses
//! ([`FragmentTensor::slice_abs_sum`]), which upper-bounds the total
//! probability mass the assignment can contribute — and the sweep skips
//! assignments greedily while the accumulated bound of everything skipped
//! stays within the budget. The budget is split evenly across the fixed
//! chunks and skip decisions are made sequentially within each chunk, so
//! they are a pure function of the chunk, and `budget = 0` (the default)
//! runs the exact sweep unchanged, bit for bit. Every query reports what
//! it skipped via [`SweepStats`] (see
//! [`Reconstructor::try_joint_with_stats`] /
//! [`Reconstructor::try_marginals_with_stats`]): the accumulated
//! `skipped_bound` upper-bounds the L1 distance between the truncated and
//! the exact unnormalized joint distribution, by the triangle inequality.
//! Skip decisions depend only on the assignment's indices — never on the
//! query — so marginals, joint, and strong-simulation queries of one
//! reconstructor all truncate the identical assignment set and stay
//! mutually consistent.
//!
//! # Sorted-row joint accumulation
//!
//! [`Reconstructor::joint`]'s outer product addresses outcomes by dense
//! mixed-radix ids over fragment entry indices: partial terms carry
//! `(id, weight)` pairs instead of cloned bitstrings, and the accumulator
//! is a flat id-indexed vector allocated by the first contracted
//! assignment. Each outcome is then built once: its id is decoded into a
//! flat row of key words (the OR of one per-fragment row, each scattered
//! once per query), all rows are sorted once in `Bits` order, and the rows
//! and weights are gathered in that order into the two arrays the
//! [`Distribution`] keeps (`Distribution::from_sorted_rows`). No outcome
//! becomes a `Bits` and nothing is hashed. Output stays bit-identical to
//! ordered-map accumulation: the same sums in the same order, emitted in
//! sorted key order.

use crate::keys::sort_rows;
use crate::tensor::FragmentTensor;
use faultkit::{Fault, Stage, Supervisor};
use metrics::Distribution;
use qcir::{Bits, IndexPlan};
use std::sync::{Arc, OnceLock};

/// Hard cap on cuts for dense `4^k` contraction.
pub const MAX_CONTRACTION_CUTS: usize = 13;

/// Assignments contracted per chunk. `4096 = 4^6`: a contraction with
/// k ≤ 6 is one chunk, and each chunk is one supervision checkpoint and
/// one even share of the error budget.
pub const ASSIGNMENTS_PER_CHUNK: u64 = 4096;

/// Base-4 digits spanned by one chunk: cut digits at positions ≥ this are
/// constant within an aligned chunk, which is what the chunk-level caches
/// (constant-mask prefilter, constant prefix/suffix product hoists) key on.
const CHUNK_CUT_DIGITS: usize = 6;
const _: () = assert!(ASSIGNMENTS_PER_CHUNK == 1 << (2 * CHUNK_CUT_DIGITS));

/// Per-tensor bitmask of Pauli indices whose slice is not identically zero.
#[derive(Clone, Debug)]
struct NonzeroMask {
    words: Vec<u64>,
}

impl NonzeroMask {
    fn build(tensor: &FragmentTensor, tol: f64) -> Self {
        let dim = tensor.pauli_dim();
        let mut words = vec![0u64; dim.div_ceil(64)];
        for idx in 0..dim {
            if tensor.slice_max_abs(idx) > tol {
                words[idx >> 6] |= 1u64 << (idx & 63);
            }
        }
        NonzeroMask { words }
    }

    #[inline]
    fn test(&self, idx: usize) -> bool {
        (self.words[idx >> 6] >> (idx & 63)) & 1 == 1
    }
}

/// Contracts a set of fragment tensors over their shared cuts.
#[derive(Clone, Debug)]
pub struct Reconstructor<'a> {
    tensors: &'a [FragmentTensor],
    num_cuts: usize,
    n_qubits: usize,
    sparse: bool,
    /// Precomputed sparse-skip masks, one per tensor.
    nonzero: Vec<NonzeroMask>,
    /// For each cut, the `(tensor, base-4 place value)` pairs its digit
    /// contributes to — the incremental-update table of the assignment
    /// sweep (each cut has exactly one upstream and one downstream end).
    cut_tensors: Vec<Vec<(usize, usize)>>,
    /// Whether a tensor's every incident cut has id ≥ [`CHUNK_CUT_DIGITS`]:
    /// its composite Pauli index is then constant within an aligned chunk,
    /// so its sparse-mask test and its prefix/suffix product factors are
    /// hoisted to once per chunk instead of once per assignment.
    chunk_constant: Vec<bool>,
    /// Tensors with at least one low (< [`CHUNK_CUT_DIGITS`]) cut — the
    /// only ones whose index moves within a chunk, and therefore the only
    /// ones the per-assignment sparse test must consult.
    varying: Vec<usize>,
    /// Length of the maximal leading run of chunk-constant tensors.
    const_prefix: usize,
    /// Start of the maximal trailing run of chunk-constant tensors.
    const_suffix: usize,
    /// Prebuilt circuit-output scatter plans (one per tensor, mapping the
    /// fragment's output bits into the global bitstring), shared from a
    /// session-level plan so repeated joint reconstructions skip rebuilding
    /// them.
    output_plans: Option<&'a [IndexPlan]>,
    /// Supervision context, consulted once per contraction chunk (see
    /// [`Reconstructor::with_supervisor`]).
    supervisor: Supervisor,
    /// Accumulated-skip L1 budget for the truncated sweep (0 = exact; see
    /// [`Reconstructor::with_error_budget`]).
    error_budget: f64,
    /// Lazily-built record of a budgeted sweep's visited set. Skip
    /// decisions are a pure function of the tensors and the budget —
    /// never of the query — so the first budgeted query's sweep is
    /// recorded and every later query of this reconstructor replays it
    /// body-only, skipping the `4^k` iteration entirely. `None` inside
    /// the cell means the set was measured too large to retain. Purely a
    /// performance cache: replayed queries reproduce the recorded sweep's
    /// exact call sequence, so results are bit-identical with or without
    /// it. Clones share the cache (it depends only on shared state);
    /// setters that change the skip set ([`Reconstructor::with_sparse`],
    /// [`Reconstructor::with_error_budget`]) swap in a fresh cell.
    skip_cache: Arc<OnceLock<Option<Vec<ChunkRecord>>>>,
}

/// One chunk of a recorded budgeted sweep: which assignments the chunk
/// contracted (as offsets into the chunk) and the stats it reported.
/// Every chunk gets a record, in chunk order, so replay runs the fresh
/// sweep's supervision checkpoints too.
#[derive(Clone, Debug)]
struct ChunkRecord {
    /// Offsets of body-visited assignments ([`ASSIGNMENTS_PER_CHUNK`] is
    /// 4096, so `u16` always fits).
    visited: Vec<u16>,
    stats: SweepStats,
}

/// Cap on the total number of recorded visited offsets: a budgeted sweep
/// that still visits more than this replays no faster than it re-iterates,
/// so the cache is dropped rather than grown past ~8 MiB.
const SKIP_CACHE_MAX_VISITED: usize = 1 << 22;

/// Per-worker scratch for the assignment sweep.
struct SweepScratch {
    /// Current composite Pauli index per tensor.
    indices: Vec<usize>,
    /// Current base-4 digit per cut.
    digits: Vec<u8>,
}

/// What one contraction sweep visited and skipped (see the module docs on
/// error-budgeted truncation).
///
/// `skipped_bound` is the accumulated per-assignment weight bound of every
/// budget-skipped assignment — each bound is the product of the
/// assignment's per-fragment slice L1 masses, which equals the total
/// probability mass that assignment contributes to the unnormalized joint
/// in absolute value — so `skipped_bound` upper-bounds the L1 distance
/// between the truncated and the exact unnormalized joint distribution.
/// With an error budget of zero (the default) the sweep is exact:
/// `skipped == 0` and `skipped_bound == 0.0`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SweepStats {
    /// Assignments whose contraction body actually ran — after both the
    /// sparse zero-slice skip and the budget truncation.
    pub visited: u64,
    /// Assignments skipped by the error budget. Sparse-skipped assignments
    /// are exact zeros and are counted by neither field.
    pub skipped: u64,
    /// Accumulated weight bound of the budget-skipped assignments — the
    /// guaranteed cap on the L1 error introduced by truncation.
    pub skipped_bound: f64,
}

impl SweepStats {
    /// Folds another chunk's stats into `self`. Always applied in chunk
    /// order, so the float `skipped_bound` sum has one fixed association.
    fn absorb(&mut self, other: SweepStats) {
        self.visited += other.visited;
        self.skipped += other.skipped;
        self.skipped_bound += other.skipped_bound;
    }
}

impl<'a> Reconstructor<'a> {
    /// Creates a reconstructor over `tensors` joined by `num_cuts` cuts in
    /// an `n_qubits`-wide original circuit.
    ///
    /// # Panics
    ///
    /// Panics if `num_cuts` exceeds [`MAX_CONTRACTION_CUTS`].
    pub fn new(tensors: &'a [FragmentTensor], num_cuts: usize, n_qubits: usize) -> Self {
        assert!(
            num_cuts <= MAX_CONTRACTION_CUTS,
            "contraction over {num_cuts} cuts exceeds the 4^k budget"
        );
        let tol = 1e-12;
        let nonzero = tensors.iter().map(|t| NonzeroMask::build(t, tol)).collect();
        let mut cut_tensors: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_cuts];
        let mut chunk_constant = vec![true; tensors.len()];
        for (fi, t) in tensors.iter().enumerate() {
            let axes: Vec<usize> = t
                .input_cuts()
                .iter()
                .chain(t.output_cuts())
                .copied()
                .collect();
            let m = axes.len();
            for (j, &c) in axes.iter().enumerate() {
                cut_tensors[c].push((fi, 1usize << (2 * (m - 1 - j))));
                if c < CHUNK_CUT_DIGITS {
                    chunk_constant[fi] = false;
                }
            }
        }
        let varying: Vec<usize> = (0..tensors.len())
            .filter(|&fi| !chunk_constant[fi])
            .collect();
        let const_prefix = chunk_constant.iter().take_while(|&&c| c).count();
        let const_suffix = tensors.len()
            - chunk_constant
                .iter()
                .rev()
                .take_while(|&&c| c)
                .count()
                .min(tensors.len() - const_prefix);
        Reconstructor {
            tensors,
            num_cuts,
            n_qubits,
            sparse: true,
            nonzero,
            cut_tensors,
            chunk_constant,
            varying,
            const_prefix,
            const_suffix,
            output_plans: None,
            supervisor: Supervisor::new(),
            error_budget: 0.0,
            skip_cache: Arc::new(OnceLock::new()),
        }
    }

    /// Enables or disables the sparse (zero-Pauli-skipping) contraction.
    pub fn with_sparse(mut self, sparse: bool) -> Self {
        self.sparse = sparse;
        self.skip_cache = Arc::new(OnceLock::new());
        self
    }

    /// Sets the error budget of the truncated sweep: the contraction may
    /// skip cut assignments as long as the accumulated weight bound of
    /// everything skipped stays within `budget` (see the module docs). The
    /// realized bound is reported per query via [`SweepStats`]; it caps
    /// the L1 distance to the exact unnormalized joint. `0.0` (the
    /// default) disables truncation entirely — the exact sweep runs
    /// unchanged, bit for bit.
    ///
    /// Repeated queries of one budgeted reconstructor share the work of
    /// deciding what to skip: the first query records which assignments
    /// survived and every later query replays that set body-only, without
    /// re-walking the `4^k` range (the skip set is query-independent, so
    /// this is exact, and replay reproduces the recorded call sequence
    /// bit for bit).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is not finite or is negative.
    pub fn with_error_budget(mut self, budget: f64) -> Self {
        assert!(
            budget.is_finite() && budget >= 0.0,
            "error budget must be finite and non-negative, got {budget}"
        );
        self.error_budget = budget;
        self.skip_cache = Arc::new(OnceLock::new());
        self
    }

    /// Attaches a supervision context, checked once per contraction chunk
    /// in the `4^k` assignment sweep (the recombination analogue of the
    /// evaluation-stage checkpoints). Supervised callers use the fallible
    /// queries ([`Reconstructor::try_marginals`],
    /// [`Reconstructor::try_joint`]); the infallible queries panic if an
    /// attached supervisor interrupts them. Checkpoint results never
    /// change any numeric output — surviving runs stay bit-identical.
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Shares prebuilt circuit-output scatter plans (one per tensor, in
    /// tensor order, each mapping that fragment's output bits into the
    /// `n_qubits`-wide global bitstring). Session-level plans build these
    /// once; [`Reconstructor::joint`] and
    /// [`Reconstructor::probability_of`] then skip rebuilding them per
    /// query. Purely a caching hint — results are bit-identical with or
    /// without it.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the tensor count.
    pub fn with_output_plans(mut self, plans: &'a [IndexPlan]) -> Self {
        assert_eq!(plans.len(), self.tensors.len(), "one plan per tensor");
        self.output_plans = Some(plans);
        self
    }

    /// Number of fixed-size chunks the `4^k` assignment range splits into.
    fn num_chunks(&self) -> u64 {
        (1u64 << (2 * self.num_cuts)).div_ceil(ASSIGNMENTS_PER_CHUNK)
    }

    /// Contracts one chunk of the assignment range into `acc`, returning
    /// the chunk's [`SweepStats`].
    ///
    /// `chunk_budget` is this chunk's even share of the error budget
    /// (`error_budget / num_chunks`, or 0 when truncation is off): skip
    /// decisions consult only the chunk's own assignments and its fixed
    /// share, never global state, so they are a pure function of the
    /// chunk.
    ///
    /// Tensor indices are maintained incrementally: advancing `κ` changes
    /// an amortized 4/3 base-4 digits, and each changed cut digit touches
    /// only the two tensor ends of that cut — instead of recomputing every
    /// tensor's composite index per assignment.
    /// When `visited` is given (a budgeted sweep whose visited set is not
    /// cached yet), the chunk appends the offsets of the assignments its
    /// body ran.
    #[allow(clippy::too_many_arguments)]
    fn run_chunk<A>(
        &self,
        chunk: u64,
        chunk_budget: f64,
        acc: &mut A,
        chunk_start: &impl Fn(&mut A, &[usize]),
        body: &impl Fn(&mut A, &[usize]),
        scratch: &mut SweepScratch,
        mut visited: Option<&mut Vec<u16>>,
    ) -> SweepStats {
        let k = self.num_cuts;
        let total = 1u64 << (2 * k);
        let start = chunk * ASSIGNMENTS_PER_CHUNK;
        let end = (start + ASSIGNMENTS_PER_CHUNK).min(total);
        let SweepScratch { indices, digits } = scratch;
        for (c, d) in digits.iter_mut().enumerate() {
            *d = ((start >> (2 * c)) & 0b11) as u8;
        }
        for (fi, t) in self.tensors.iter().enumerate() {
            indices[fi] = t.pauli_index(|c| digits[c] as usize);
        }
        // Chunk-constant tensors (every incident cut ≥ 6) keep one
        // composite index across the whole aligned 4^6 chunk, so their
        // sparse-mask tests run once here instead of once per assignment.
        // A failing constant mask vanishes every assignment in the chunk
        // — skip it outright, which visits exactly the same (empty)
        // surviving set the per-assignment test would.
        if self.sparse
            && self
                .chunk_constant
                .iter()
                .zip(self.nonzero.iter())
                .zip(indices.iter())
                .any(|((&constant, mask), &idx)| constant && !mask.test(idx))
        {
            return SweepStats::default();
        }
        chunk_start(acc, indices);
        let mut stats = SweepStats::default();
        let budgeted = chunk_budget > 0.0;
        let mut kappa = start;
        loop {
            // Exact skip: a zero slice maximum means every term of this
            // assignment vanishes (stabilizer fragments hit this for most
            // multi-qubit Paulis — paper §IX optimization 2). The
            // precomputed mask makes this a single bit test per tensor,
            // and only the tensors whose index moves within the chunk
            // (`varying`) need testing — the constant ones passed above.
            // It runs before the budget check: exact zeros are free and
            // must never consume budget.
            let surviving = !self.sparse
                || self
                    .varying
                    .iter()
                    .all(|&f| self.nonzero[f].test(indices[f]));
            if surviving {
                // Budget skip: greedily drop the assignment if its weight
                // bound — the product of per-fragment slice L1 masses,
                // exactly the mass it contributes to the unnormalized
                // joint — still fits in this chunk's remaining share.
                // Gated on `budgeted` so a zero budget runs the exact
                // sweep untouched.
                let truncated = budgeted && {
                    let mut bound = 1.0;
                    for (t, &idx) in self.tensors.iter().zip(indices.iter()) {
                        bound *= t.slice_abs_sum(idx);
                    }
                    stats.skipped_bound + bound <= chunk_budget && {
                        stats.skipped_bound += bound;
                        stats.skipped += 1;
                        true
                    }
                };
                if !truncated {
                    stats.visited += 1;
                    if let Some(offsets) = visited.as_deref_mut() {
                        offsets.push((kappa - start) as u16);
                    }
                    body(acc, indices);
                }
            }
            kappa += 1;
            if kappa >= end {
                break;
            }
            // Base-4 increment with incremental tensor-index updates.
            let mut c = 0;
            loop {
                if digits[c] == 3 {
                    digits[c] = 0;
                    for &(f, w) in &self.cut_tensors[c] {
                        indices[f] -= 3 * w;
                    }
                    c += 1;
                } else {
                    digits[c] += 1;
                    for &(f, w) in &self.cut_tensors[c] {
                        indices[f] += w;
                    }
                    break;
                }
            }
        }
        stats
    }

    /// The chunked contraction driver: runs `body` over every surviving
    /// assignment, chunk by chunk, folding into the one accumulator `acc`.
    /// Returns the accumulator and the sweep's [`SweepStats`].
    ///
    /// `chunk_start` runs after a chunk's first assignment indices are in
    /// place and before any of its `body` calls: accumulators precompute
    /// what is constant within the chunk (the prefix/suffix product
    /// hoists of the marginal sweep) without changing any per-assignment
    /// float association.
    ///
    /// The attached [`Supervisor`] is consulted once per chunk, before the
    /// chunk's sweep; an interrupt stops the sweep at the first faulting
    /// chunk. A budgeted sweep records its visited set on first use and
    /// every later query of this reconstructor replays it.
    fn run_contraction<A>(
        &self,
        mut acc: A,
        chunk_start: impl Fn(&mut A, &[usize]),
        body: impl Fn(&mut A, &[usize]),
    ) -> Result<(A, SweepStats), Fault> {
        // At most `4^13 / 4096` chunks (`MAX_CONTRACTION_CUTS`).
        let num_chunks = self.num_chunks();
        // Each chunk gets an even, fixed share of the error budget; the
        // share depends only on `k` and the budget, so skip decisions are
        // a pure function of the chunk.
        let chunk_budget = if self.error_budget > 0.0 {
            self.error_budget / num_chunks as f64
        } else {
            0.0
        };
        if chunk_budget > 0.0 {
            // Replay a previously recorded budgeted sweep: body-only, no
            // `4^k` re-iteration. The recorded call sequence is exactly
            // the fresh sweep's, so results are bit-identical.
            if let Some(Some(records)) = self.skip_cache.get() {
                return self.replay_records(records, acc, chunk_start, body);
            }
        }
        let record = chunk_budget > 0.0 && self.skip_cache.get().is_none();
        let mut stats = SweepStats::default();
        let mut records: Vec<ChunkRecord> = Vec::new();
        let mut scratch = SweepScratch {
            indices: vec![0usize; self.tensors.len()],
            digits: vec![0u8; self.num_cuts],
        };
        for chunk in 0..num_chunks {
            self.supervisor.check(Stage::Recombine, chunk as usize)?;
            let mut visited = Vec::new();
            let chunk_stats = self.run_chunk(
                chunk,
                chunk_budget,
                &mut acc,
                &chunk_start,
                &body,
                &mut scratch,
                record.then_some(&mut visited),
            );
            stats.absorb(chunk_stats);
            if record {
                records.push(ChunkRecord {
                    visited,
                    stats: chunk_stats,
                });
            }
        }
        if record {
            let total: usize = records.iter().map(|r| r.visited.len()).sum();
            let _ = self
                .skip_cache
                .set((total <= SKIP_CACHE_MAX_VISITED).then_some(records));
        }
        Ok((acc, stats))
    }

    /// Replays a recorded budgeted sweep: the identical chunk-start / body
    /// call sequence as the recording run — same assignments, same order,
    /// so every float folds identically — but touching only the recorded
    /// assignments instead of walking the full `4^k` range. Supervision
    /// checkpoints still run once per chunk, in chunk order.
    fn replay_records<A>(
        &self,
        records: &[ChunkRecord],
        mut acc: A,
        chunk_start: impl Fn(&mut A, &[usize]),
        body: impl Fn(&mut A, &[usize]),
    ) -> Result<(A, SweepStats), Fault> {
        let mut stats = SweepStats::default();
        let mut indices = vec![0usize; self.tensors.len()];
        for (chunk, rec) in records.iter().enumerate() {
            self.supervisor.check(Stage::Recombine, chunk)?;
            stats.absorb(rec.stats);
            if rec.visited.is_empty() {
                continue;
            }
            let start = chunk as u64 * ASSIGNMENTS_PER_CHUNK;
            for (fi, t) in self.tensors.iter().enumerate() {
                indices[fi] = t.pauli_index(|c| ((start >> (2 * c)) & 0b11) as usize);
            }
            chunk_start(&mut acc, &indices);
            for &offset in &rec.visited {
                let kappa = start + offset as u64;
                for (fi, t) in self.tensors.iter().enumerate() {
                    indices[fi] = t.pauli_index(|c| ((kappa >> (2 * c)) & 0b11) as usize);
                }
                body(&mut acc, &indices);
            }
        }
        Ok((acc, stats))
    }

    /// Total reconstructed probability mass `Σ_b p(b)`; 1 up to sampling
    /// error.
    pub fn total_mass(&self) -> f64 {
        let totals: Vec<&[f64]> = self.tensors.iter().map(|t| t.totals()).collect();
        let (mass, _) = expect_unsupervised(self.run_contraction(
            0.0f64,
            |_, _| {},
            |mass, indices| {
                let mut prod = 1.0;
                for (t, &idx) in totals.iter().zip(indices) {
                    prod *= t[idx];
                }
                *mass += prod;
            },
        ));
        mass
    }

    /// Builds the full joint distribution over the original circuit's
    /// qubits.
    ///
    /// # Mixed-radix ids, sorted rows
    ///
    /// Every joint outcome is a combination of one observed entry per
    /// fragment (fragments own disjoint circuit-output positions), so the
    /// engine addresses outcomes by a dense mixed-radix id over fragment
    /// entry indices instead of materializing a heap-allocated [`Bits`]
    /// per partial term. The outer product propagates `(id, weight)`
    /// pairs — integer multiply-adds only — into one flat `Vec<f64>`
    /// indexed by id rather than an ordered map. Ids are decoded
    /// back into rows of key words exactly once, sorted once, and moved
    /// into the [`Distribution`] as its sorted rows (see the module docs),
    /// keeping the result bit-identical to the former `BTreeMap`-keyed
    /// accumulation.
    ///
    /// # Panics
    ///
    /// Panics if the product of fragment supports exceeds
    /// `max_support` — use [`Reconstructor::marginals`] for wide circuits.
    /// Also panics if an attached supervisor interrupts the sweep — use
    /// [`Reconstructor::try_joint`] from supervised callers.
    pub fn joint(&self, max_support: usize) -> Distribution {
        expect_unsupervised(self.try_joint(max_support))
    }

    /// Fallible variant of [`Reconstructor::joint`]: returns the fault
    /// instead of panicking when an attached supervisor cancels the sweep,
    /// its deadline passes, or a fault plan targets a recombine chunk.
    /// Numeric results are bit-identical to [`Reconstructor::joint`].
    ///
    /// # Panics
    ///
    /// Still panics if the product of fragment supports exceeds
    /// `max_support` (a sizing bug, not a runtime fault).
    pub fn try_joint(&self, max_support: usize) -> Result<Distribution, Fault> {
        self.try_joint_with_stats(max_support).map(|(dist, _)| dist)
    }

    /// [`Reconstructor::try_joint`] plus the sweep's [`SweepStats`]:
    /// post-truncation visited/skipped assignment counts and the
    /// accumulated skipped-weight bound, which caps the L1 distance
    /// between the returned (unnormalized) distribution and the exact
    /// one. With a zero error budget the stats report an exact sweep and
    /// the distribution is bit-identical to [`Reconstructor::joint`].
    pub fn try_joint_with_stats(
        &self,
        max_support: usize,
    ) -> Result<(Distribution, SweepStats), Fault> {
        // Saturating: a product past `usize::MAX` must fail the limit
        // check, not wrap under it.
        let support = self
            .tensors
            .iter()
            .map(|t| t.support_len().max(1))
            .fold(1usize, |a, b| a.saturating_mul(b));
        assert!(
            support <= max_support,
            "joint support {support} exceeds limit {max_support}"
        );
        let nw = self.n_qubits.div_ceil(64);
        // Fragments with observed outcomes, with their entries in key
        // order (the id digit of fragment `f` is the position of its entry
        // in this order). `rows` holds each entry's key scattered into the
        // global word layout, `nw` words per entry: fragments own disjoint
        // circuit outputs, so a joint key is the OR of one row per fragment.
        struct FragView<'t> {
            tensor_index: usize,
            support: usize,
            coeffs: Vec<&'t [f64]>,
            rows: Vec<u64>,
        }
        // Scatter plans come shared from the session plan when available
        // (`with_output_plans`), else are built for this query.
        let built: Vec<IndexPlan> = match self.output_plans {
            Some(_) => Vec::new(),
            None => self
                .tensors
                .iter()
                .map(|t| IndexPlan::new(t.output_globals(), self.n_qubits))
                .collect(),
        };
        let plans: &[IndexPlan] = self.output_plans.unwrap_or(&built);
        let views: Vec<FragView<'_>> = self
            .tensors
            .iter()
            .enumerate()
            .filter(|(_, t)| t.support_len() > 0)
            .map(|(fi, t)| {
                // Every entry writes the same positions, so one scratch
                // key serves the whole fragment.
                let mut local = Bits::zeros(t.output_globals().len());
                let mut global = Bits::zeros(self.n_qubits);
                let mut rows = Vec::with_capacity(t.support_len() * nw);
                let coeffs = t
                    .iter()
                    .map(|(key, coeffs)| {
                        local.copy_from_words(key);
                        plans[fi].scatter_into(&local, &mut global);
                        rows.extend_from_slice(global.as_words());
                        coeffs
                    })
                    .collect();
                FragView {
                    tensor_index: fi,
                    support: t.support_len(),
                    coeffs,
                    rows,
                }
            })
            .collect();
        // The accumulator: dense id-indexed weights and a touched-id bitset
        // (a key whose weights cancel to exactly zero must still appear in
        // the output, as it did under ordered-map accumulation), both
        // allocated by the first `body` call — so a sweep the constant
        // mask skips whole allocates nothing — and outer-product scratch.
        struct JointAcc {
            weights: Vec<f64>,
            touched: Vec<u64>,
            partial: Vec<(usize, f64)>,
            next: Vec<(usize, f64)>,
        }
        let (acc, stats) = self.run_contraction(
            JointAcc {
                weights: Vec::new(),
                touched: Vec::new(),
                partial: Vec::new(),
                next: Vec::new(),
            },
            |_, _| {},
            |acc, indices| {
                if acc.weights.is_empty() {
                    acc.weights = vec![0.0; support];
                    acc.touched = vec![0u64; support.div_ceil(64)];
                }
                // Outer product of the fragments' b-slices, propagating
                // mixed-radix outcome ids.
                acc.partial.clear();
                acc.partial.push((0usize, 1.0));
                for view in &views {
                    let idx = indices[view.tensor_index];
                    acc.next.clear();
                    acc.next.reserve(acc.partial.len() * view.support);
                    for (j, coeffs) in view.coeffs.iter().enumerate() {
                        let v = coeffs[idx];
                        if v == 0.0 {
                            continue;
                        }
                        for &(id, w) in &acc.partial {
                            acc.next.push((id * view.support + j, w * v));
                        }
                    }
                    std::mem::swap(&mut acc.partial, &mut acc.next);
                }
                for &(id, w) in &acc.partial {
                    if w != 0.0 {
                        acc.weights[id] += w;
                        acc.touched[id >> 6] |= 1u64 << (id & 63);
                    }
                }
            },
        )?;
        // Decode every touched id, in id order, into one flat row of `nw`
        // key words beside its weight. A row is the OR of one
        // pre-scattered row per fragment: the single-entry fragments' rows
        // are the same for every id and start it, the others are picked by
        // the id's mixed-radix digits. The outer-product scratch is freed
        // here, the dense accumulator before the rows are sorted.
        let JointAcc {
            weights,
            touched,
            partial,
            next,
        } = acc;
        drop((partial, next));
        let mut base = vec![0u64; nw];
        for view in views.iter().filter(|v| v.support == 1) {
            for (b, r) in base.iter_mut().zip(&view.rows) {
                *b |= r;
            }
        }
        let digits: Vec<&FragView<'_>> = views.iter().rev().filter(|v| v.support > 1).collect();
        let count: usize = touched.iter().map(|w| w.count_ones() as usize).sum();
        let mut keys: Vec<u64> = Vec::with_capacity(count * nw);
        let mut unsorted: Vec<f64> = Vec::with_capacity(count);
        for (wi, &word) in touched.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let id = wi * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let at = keys.len();
                keys.extend_from_slice(&base);
                let mut rem = id;
                for view in &digits {
                    let j = rem % view.support;
                    rem /= view.support;
                    for (k, r) in keys[at..].iter_mut().zip(&view.rows[j * nw..]) {
                        *k |= r;
                    }
                }
                unsorted.push(weights[id]);
            }
        }
        drop((weights, touched));
        // One sort in `Bits` order (every key has `n_qubits` bits, so that
        // is the rows' lexicographic order from word 0), then one gather
        // of the rows and weights into the distribution's arrays.
        let order = sort_rows(&keys, nw, count);
        let mut words = Vec::with_capacity(count * nw);
        let mut probs = Vec::with_capacity(count);
        for i in order {
            let i = i as usize;
            words.extend_from_slice(&keys[i * nw..(i + 1) * nw]);
            probs.push(unsorted[i]);
        }
        let dist = Distribution::from_sorted_rows(self.n_qubits, words, probs);
        Ok((dist, stats))
    }

    /// All single-qubit marginals of the reconstructed distribution,
    /// normalized to unit mass. Scales to hundreds of qubits: cost is
    /// `O(4^k · n)` independent of fragment support sizes.
    ///
    /// # Panics
    ///
    /// Panics if an attached supervisor interrupts the sweep — use
    /// [`Reconstructor::try_marginals`] from supervised callers.
    pub fn marginals(&self) -> Vec<[f64; 2]> {
        expect_unsupervised(self.try_marginals())
    }

    /// Fallible variant of [`Reconstructor::marginals`]: returns the fault
    /// instead of panicking when an attached supervisor cancels the sweep,
    /// its deadline passes, or a fault plan targets a recombine chunk.
    /// Numeric results are bit-identical to [`Reconstructor::marginals`].
    pub fn try_marginals(&self) -> Result<Vec<[f64; 2]>, Fault> {
        self.try_marginals_with_stats().map(|(marg, _)| marg)
    }

    /// [`Reconstructor::try_marginals`] plus the sweep's [`SweepStats`].
    /// The skip decisions of the truncated sweep depend only on the
    /// assignment indices — never on the query — so the stats (and the
    /// skipped assignment set) here are identical to what
    /// [`Reconstructor::try_joint_with_stats`] reports for the same
    /// reconstructor, keeping marginal and joint queries mutually
    /// consistent.
    pub fn try_marginals_with_stats(&self) -> Result<(Vec<[f64; 2]>, SweepStats), Fault> {
        // One exclusion weight per (fragment, Pauli index) — a single
        // multiply-add per fragment per assignment — contracted against
        // the marginal tables once after the sweep.
        let nf = self.tensors.len();
        struct GroupedAcc {
            /// `weights[f][idx]` = Σ over visited assignments with
            /// `indices[f] == idx` of the product of the other fragments'
            /// totals.
            weights: Vec<Vec<f64>>,
            mass: f64,
            prefix: Vec<f64>,
            suffix: Vec<f64>,
        }
        let totals: Vec<&[f64]> = self.tensors.iter().map(|t| t.totals()).collect();
        let (cp, cs) = (self.const_prefix, self.const_suffix);
        let (acc, stats) = self.run_contraction(
            GroupedAcc {
                weights: totals.iter().map(|t| vec![0.0f64; t.len()]).collect(),
                mass: 0.0,
                prefix: vec![1.0; nf + 1],
                suffix: vec![1.0; nf + 1],
            },
            |acc, indices| {
                // Chunk-constant runs at the ends of the fragment order:
                // their prefix/suffix factors are identical for every
                // assignment in the chunk, so compute them once here. The
                // per-assignment sweeps below continue from these cached
                // slots with the exact same multiplication order, keeping
                // results bit-identical to the unhoisted sweep.
                for f in 0..cp {
                    acc.prefix[f + 1] = acc.prefix[f] * totals[f][indices[f]];
                }
                for f in (cs..nf).rev() {
                    acc.suffix[f] = acc.suffix[f + 1] * totals[f][indices[f]];
                }
            },
            |acc, indices| {
                // Prefix/suffix products of fragment totals (slots 0 and nf
                // stay 1.0 from initialization; the chunk-constant head and
                // tail were filled at chunk start).
                for f in cp..nf {
                    acc.prefix[f + 1] = acc.prefix[f] * totals[f][indices[f]];
                }
                for f in (0..cs).rev() {
                    acc.suffix[f] = acc.suffix[f + 1] * totals[f][indices[f]];
                }
                acc.mass += acc.prefix[nf];
                for f in 0..nf {
                    acc.weights[f][indices[f]] += acc.prefix[f] * acc.suffix[f + 1];
                }
            },
        )?;
        // Contract the accumulated weights against the marginal tables.
        let mut marg = vec![[0.0f64; 2]; self.n_qubits];
        for (f, t) in self.tensors.iter().enumerate() {
            for (bit, &global) in t.output_globals().iter().enumerate() {
                let (m0, m1) = t.marginal_slices(bit);
                for (idx, &w) in acc.weights[f].iter().enumerate() {
                    if w != 0.0 {
                        marg[global][0] += w * m0[idx];
                        marg[global][1] += w * m1[idx];
                    }
                }
            }
        }
        let mass = acc.mass;
        if mass.abs() > 1e-12 {
            for m in &mut marg {
                m[0] /= mass;
                m[1] /= mass;
            }
        }
        // Repair small quasi-probability artifacts.
        for m in &mut marg {
            m[0] = m[0].clamp(0.0, 1.0);
            m[1] = m[1].clamp(0.0, 1.0);
            let s = m[0] + m[1];
            if s > 0.0 {
                m[0] /= s;
                m[1] /= s;
            }
        }
        Ok((marg, stats))
    }

    /// "Strong simulation": the probability of one specific global
    /// bitstring, to machine precision in exact mode.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the original qubit count.
    pub fn probability_of(&self, bits: &Bits) -> f64 {
        assert_eq!(bits.len(), self.n_qubits, "bitstring width mismatch");
        // Resolve each fragment's coefficient slice once; an unobserved
        // outcome in any fragment zeroes the whole probability.
        let mut slices: Vec<&[f64]> = Vec::with_capacity(self.tensors.len());
        for (fi, t) in self.tensors.iter().enumerate() {
            let local = match self.output_plans {
                Some(plans) => plans[fi].extract(bits),
                None => bits.extract(t.output_globals()),
            };
            match t.coeffs(&local) {
                Some(s) => slices.push(s),
                None => return 0.0,
            }
        }
        let (p, _) = expect_unsupervised(self.run_contraction(
            0.0f64,
            |_, _| {},
            |p, indices| {
                let mut prod = 1.0;
                for (s, &idx) in slices.iter().zip(indices) {
                    prod *= s[idx];
                    if prod == 0.0 {
                        break;
                    }
                }
                *p += prod;
            },
        ));
        p
    }

    /// Number of `4^k` terms the contraction actually visits — after both
    /// sparse skipping and budget truncation, so the §IX sparse ablation
    /// and an error-budgeted run count the same work.
    pub fn visited_assignments(&self) -> usize {
        self.sweep_stats().visited as usize
    }

    /// Runs an empty sweep and reports its [`SweepStats`] — the visited
    /// and budget-skipped assignment counts and the accumulated
    /// skipped-weight bound any real query of this reconstructor would
    /// incur (skip decisions are query-independent). Cheap relative to a
    /// real query: no accumulator work, just the sweep itself.
    pub fn sweep_stats(&self) -> SweepStats {
        let ((), stats) = expect_unsupervised(self.run_contraction((), |_, _| {}, |_, _| {}));
        stats
    }

    /// Expectation value of a Z-string observable `⟨Π_{q∈subset} Z_q⟩` on
    /// the reconstructed distribution, normalized by the total mass.
    ///
    /// Unlike going through [`Reconstructor::joint`], this works at any
    /// width: each fragment contributes a signed total per cut assignment,
    /// `Σ_b T[b,κ]·(−1)^{parity(b over subset)}`, so the cost is
    /// `O(4^k · Σ_f support_f)` — the scalable path for VQE-style
    /// diagonal observables on hundreds of qubits.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range.
    pub fn expectation_z(&self, subset: &[usize]) -> f64 {
        for &q in subset {
            assert!(q < self.n_qubits, "qubit {q} out of range");
        }
        let member: Vec<bool> = {
            let mut m = vec![false; self.n_qubits];
            for &q in subset {
                m[q] = true;
            }
            m
        };
        // Signed totals per fragment, computed lazily per assignment would
        // repeat work; precompute per fragment as dense vectors instead.
        let signed: Vec<Vec<f64>> = self
            .tensors
            .iter()
            .map(|t| {
                let mut out = vec![0.0; t.pauli_dim()];
                for (key, coeffs) in t.iter() {
                    let parity = t
                        .output_globals()
                        .iter()
                        .enumerate()
                        .filter(|&(bit, &g)| member[g] && key[bit / 64] >> (bit % 64) & 1 == 1)
                        .count()
                        % 2;
                    let sign = if parity == 1 { -1.0 } else { 1.0 };
                    for (i, &x) in coeffs.iter().enumerate() {
                        out[i] += sign * x;
                    }
                }
                out
            })
            .collect();
        let totals: Vec<&[f64]> = self.tensors.iter().map(|t| t.totals()).collect();
        let ((num, mass), _) = expect_unsupervised(self.run_contraction(
            (0.0f64, 0.0f64),
            |_, _| {},
            |acc, indices| {
                let mut sprod = 1.0;
                let mut tprod = 1.0;
                for (f, &idx) in indices.iter().enumerate() {
                    sprod *= signed[f][idx];
                    tprod *= totals[f][idx];
                }
                acc.0 += sprod;
                acc.1 += tprod;
            },
        ));
        if mass.abs() > 1e-12 {
            (num / mass).clamp(-1.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Unwraps a contraction result on the infallible query surface. Callers
/// that attach a supervisor must use the fallible `try_*` queries; an
/// interrupt surfacing here is a caller bug, not a runtime condition.
fn expect_unsupervised<T>(result: Result<T, Fault>) -> T {
    result.unwrap_or_else(|fault| panic!("unsupervised contraction interrupted: {fault}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{cut_circuit, CutStrategy};
    use crate::evaluate::{EvalMode, EvalOptions};
    use crate::tensor::{build_fragment_tensor, TensorOptions};
    use qcir::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Deterministic dense tensor chain with `k` cuts (`k + 1` fragments, each
    /// with `outputs_per_frag` circuit outputs), returned with the synthetic
    /// circuit width. Every Pauli slice is nonzero, so the sparse skip never
    /// prunes — the controlled workload of the multi-chunk tests.
    fn synthetic_dense_chain(k: usize, outputs_per_frag: usize) -> (Vec<FragmentTensor>, usize) {
        let mut tensors = Vec::new();
        for f in 0..=k {
            let input_cuts = if f == 0 { vec![] } else { vec![f - 1] };
            let output_cuts = if f == k { vec![] } else { vec![f] };
            let co_global: Vec<usize> =
                (f * outputs_per_frag..(f + 1) * outputs_per_frag).collect();
            let dim = 1usize << (2 * (input_cuts.len() + output_cuts.len()));
            let entries: Vec<(Bits, Vec<f64>)> = (0..1u64 << outputs_per_frag)
                .map(|e| {
                    (
                        Bits::from_u64(e, outputs_per_frag),
                        (0..dim)
                            .map(|i| synthetic_coeff(f, e as usize, i))
                            .collect(),
                    )
                })
                .collect();
            tensors.push(FragmentTensor::from_dense_entries(
                input_cuts,
                output_cuts,
                co_global,
                entries,
            ));
        }
        let n_qubits = (k + 1) * outputs_per_frag;
        (tensors, n_qubits)
    }

    /// Coefficient `i` of entry `e` of synthetic fragment `f`:
    /// pseudo-random but fully deterministic, and never zero.
    fn synthetic_coeff(f: usize, e: usize, i: usize) -> f64 {
        let x = (f * 7919 + e * 104729 + i * 1299709) % 1000;
        0.05 + x as f64 / 1000.0
    }

    /// The pre-intern joint implementation, kept as a parity baseline:
    /// one `4^k` sweep in assignment order accumulating into one running
    /// `BTreeMap<Bits, f64>`, one heap-allocated `Bits` clone per partial
    /// term. Written against the public tensor API only.
    ///
    /// The reference of `joint_matches_btreemap_reference_bit_exact`.
    fn reference_joint_btreemap(
        tensors: &[FragmentTensor],
        num_cuts: usize,
        n_qubits: usize,
        sparse: bool,
    ) -> Vec<(Bits, f64)> {
        use std::collections::BTreeMap;
        let tol = 1e-12;
        let plans: Vec<IndexPlan> = tensors
            .iter()
            .map(|t| IndexPlan::new(t.output_globals(), n_qubits))
            .collect();
        let mut dist: BTreeMap<Bits, f64> = BTreeMap::new();
        let mut partial: Vec<(Bits, f64)> = Vec::new();
        let mut next: Vec<(Bits, f64)> = Vec::new();
        for kappa in 0..1u64 << (2 * num_cuts) {
            let digit = |cut: usize| ((kappa >> (2 * cut)) & 0b11) as usize;
            let indices: Vec<usize> = tensors.iter().map(|t| t.pauli_index(digit)).collect();
            if sparse
                && tensors
                    .iter()
                    .zip(&indices)
                    .any(|(t, &idx)| t.slice_max_abs(idx) <= tol)
            {
                continue;
            }
            partial.clear();
            partial.push((Bits::zeros(n_qubits), 1.0));
            for ((t, plan), &idx) in tensors.iter().zip(&plans).zip(&indices) {
                if t.support_len() == 0 {
                    continue;
                }
                next.clear();
                next.reserve(partial.len() * t.support_len());
                let mut b = Bits::zeros(t.output_globals().len());
                for (key, coeffs) in t.iter() {
                    let v = coeffs[idx];
                    if v == 0.0 {
                        continue;
                    }
                    b.copy_from_words(key);
                    for (gb, w) in &partial {
                        let mut gb2 = gb.clone();
                        plan.scatter_into(&b, &mut gb2);
                        next.push((gb2, w * v));
                    }
                }
                std::mem::swap(&mut partial, &mut next);
            }
            for (b, w) in partial.drain(..) {
                if w != 0.0 {
                    *dist.entry(b).or_insert(0.0) += w;
                }
            }
        }
        dist.into_iter().collect()
    }

    fn reconstruct_exact(c: &Circuit) -> (Vec<FragmentTensor>, usize, usize) {
        let cut = cut_circuit(c, CutStrategy::default()).unwrap();
        let eval = EvalOptions {
            mode: EvalMode::Exact,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let tensors: Vec<FragmentTensor> = cut
            .fragments
            .iter()
            .map(|f| build_fragment_tensor(f, &eval, &TensorOptions::default(), &mut rng).unwrap())
            .collect();
        (tensors, cut.num_cuts, cut.original_qubits)
    }

    #[test]
    fn identity_cut_reconstructs_zero_state() {
        let mut c = Circuit::new(1);
        c.add_gate(qcir::Gate::I, &[0]).t(0);
        let (tensors, k, n) = reconstruct_exact(&c);
        let r = Reconstructor::new(&tensors, k, n);
        let dist = r.joint(1000);
        assert!((dist.prob(&Bits::parse("0").unwrap()) - 1.0).abs() < 1e-10);
        assert!(dist.prob(&Bits::parse("1").unwrap()).abs() < 1e-10);
        assert!((r.total_mass() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn h_t_h_matches_statevector() {
        let mut c = Circuit::new(1);
        c.h(0).t(0).h(0);
        let (tensors, k, n) = reconstruct_exact(&c);
        assert_eq!(k, 2);
        let r = Reconstructor::new(&tensors, k, n);
        let dist = r.joint(1000);
        let sv = svsim::StateVec::run(&c).unwrap();
        for (idx, bstr) in [(0usize, "0"), (1usize, "1")] {
            let expect = sv.probability_of_index(idx);
            let got = dist.prob(&Bits::parse(bstr).unwrap());
            assert!(
                (expect - got).abs() < 1e-9,
                "p({bstr}): sv={expect} cut={got}"
            );
            assert!((r.probability_of(&Bits::parse(bstr).unwrap()) - expect).abs() < 1e-9);
        }
        let marg = r.marginals();
        assert!((marg[0][0] - sv.probability_of_index(0)).abs() < 1e-9);
    }

    #[test]
    fn two_qubit_loop_cut_matches_statevector() {
        // CX - T - CX creates a fragment loop (2 cuts to the same
        // Clifford fragment).
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(0).cx(0, 1).h(0);
        let (tensors, k, n) = reconstruct_exact(&c);
        assert_eq!(k, 2);
        let r = Reconstructor::new(&tensors, k, n);
        let dist = r.joint(100_000);
        let sv = svsim::StateVec::run(&c).unwrap();
        for idx in 0..4usize {
            let b = Bits::from_u64(idx as u64, 2);
            assert!(
                (dist.prob(&b) - sv.probability_of_index(idx)).abs() < 1e-9,
                "p({b})"
            );
        }
        assert!((r.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn marginals_match_joint() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).h(2);
        let (tensors, k, n) = reconstruct_exact(&c);
        let r = Reconstructor::new(&tensors, k, n);
        let joint = r.joint(100_000);
        let marg = r.marginals();
        for q in 0..3 {
            let jm = joint.marginal(q);
            assert!(
                (jm[0] - marg[q][0]).abs() < 1e-9 && (jm[1] - marg[q][1]).abs() < 1e-9,
                "qubit {q}: joint {jm:?} vs marginal {:?}",
                marg[q]
            );
        }
    }

    /// `joint()` marginals agree with `marginals()` on multi-fragment
    /// circuits (joint marginals are un-normalized by construction, so
    /// normalize by the joint mass).
    #[test]
    fn joint_marginals_match_marginals_on_multi_fragment_circuits() {
        let mut a = Circuit::new(3);
        a.h(0).cx(0, 1).t(1).cx(1, 2).h(2);
        let mut b = Circuit::new(4);
        b.h(0).cx(0, 1).t(1).cx(1, 2).t(2).cx(2, 3).h(3);
        for (label, c) in [("3q", a), ("4q", b)] {
            let (tensors, k, n) = reconstruct_exact(&c);
            let r = Reconstructor::new(&tensors, k, n);
            let joint = r.joint(1_000_000);
            let mass = joint.total_mass();
            let marg = r.marginals();
            for q in 0..n {
                let jm = joint.marginal(q);
                assert!(
                    (jm[0] / mass - marg[q][0]).abs() < 1e-9
                        && (jm[1] / mass - marg[q][1]).abs() < 1e-9,
                    "{label} qubit {q}: joint {jm:?}/{mass} vs marginal {:?}",
                    marg[q]
                );
            }
        }
    }

    /// `synthetic_dense_chain(k, 1)` with Pauli slices `zeroed` of the
    /// last fragment set to zero. For `k ≥ 7` that fragment's only cut is
    /// cut `k − 1`, whose digit is constant within every 4^6 chunk, so
    /// zeroing slice `d` masks each chunk with that digit whole.
    fn masked_chain(k: usize, zeroed: &[usize]) -> (Vec<FragmentTensor>, usize) {
        let (mut tensors, n) = synthetic_dense_chain(k, 1);
        let last = tensors.len() - 1;
        let entries: Vec<(Bits, Vec<f64>)> = tensors[last]
            .entries()
            .into_iter()
            .map(|(b, v)| {
                let mut v = v.to_vec();
                for &d in zeroed {
                    v[d] = 0.0;
                }
                (b, v)
            })
            .collect();
        tensors[last] = FragmentTensor::from_dense_entries(
            tensors[last].input_cuts().to_vec(),
            tensors[last].output_cuts().to_vec(),
            tensors[last].output_globals().to_vec(),
            entries,
        );
        (tensors, n)
    }

    /// Sampled tensors of a cut `circuit` — keys as wide as the circuit.
    fn reconstruct_sampled(c: &Circuit, shots: usize) -> (Vec<FragmentTensor>, usize, usize) {
        let cut = cut_circuit(c, CutStrategy::default()).unwrap();
        let eval = EvalOptions {
            mode: EvalMode::Sampled { shots },
            ..Default::default()
        };
        let seeds: Vec<u64> = (0..cut.fragments.len() as u64).map(|i| 500 + i).collect();
        let tensors = crate::tensor::evaluate_fragment_tensors(
            &cut.fragments,
            &eval,
            &TensorOptions::default(),
            &seeds,
            1,
        )
        .unwrap();
        (tensors, cut.num_cuts, cut.original_qubits)
    }

    /// The joint engine is bit-identical — same support, same
    /// emission order, same float bits — to the pre-change ordered-map
    /// implementation: on real cut circuits, on
    /// sampled 72- and 130-qubit circuits whose keys span two and three
    /// words, on keys that tie in their first word, and on a multi-chunk
    /// synthetic chain as is, with its first chunk masked (the dense
    /// buffers are allocated by a later chunk) and with every chunk masked
    /// (an empty joint).
    #[test]
    fn joint_matches_btreemap_reference_bit_exact() {
        let mut a = Circuit::new(3);
        a.h(0).cx(0, 1).t(1).cx(1, 2).h(2);
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1).t(0).cx(0, 1).h(0);
        let mut cases: Vec<(String, Vec<FragmentTensor>, usize, usize)> = Vec::new();
        for (label, c) in [("3q", a), ("loop", b)] {
            let (tensors, k, n) = reconstruct_exact(&c);
            cases.push((label.to_string(), tensors, k, n));
        }
        for (label, w) in [
            ("hwea(72,5,1,2)", workloads::hwea(72, 5, 1, 2)),
            ("hwea(130,2,2,5)", workloads::hwea(130, 2, 2, 5)),
        ] {
            let (tensors, k, n) = reconstruct_sampled(&w.circuit, 300);
            assert!(n > 64 && tensors.iter().any(|t| t.support_len() > 1));
            cases.push((label.to_string(), tensors, k, n));
        }
        // Two cut-free fragments, one in word 0 and one across words 1–2:
        // every first word repeats, so the order rests on the later words.
        let corner = |globals: Vec<usize>, scale: f64| {
            let entries = (0..4u64)
                .map(|e| (Bits::from_u64(e, 2), vec![scale * (e + 1) as f64]))
                .collect();
            FragmentTensor::from_dense_entries(vec![], vec![], globals, entries)
        };
        let ties = vec![corner(vec![0, 63], 0.1), corner(vec![64, 129], 0.01)];
        cases.push(("word-0 ties".to_string(), ties, 0, 130));
        let (chain, n) = synthetic_dense_chain(7, 1);
        cases.push(("chain-k7".to_string(), chain, 7, n));
        let (head_masked, n) = masked_chain(7, &[0]);
        cases.push(("chain-k7-head-masked".to_string(), head_masked, 7, n));
        let (all_masked, n) = masked_chain(7, &[0, 1, 2, 3]);
        assert!(Reconstructor::new(&all_masked, 7, n)
            .joint(10_000_000)
            .is_empty());
        cases.push(("chain-k7-all-masked".to_string(), all_masked, 7, n));
        for (label, tensors, k, n) in &cases {
            for sparse in [true, false] {
                let expect = reference_joint_btreemap(tensors, *k, *n, sparse);
                let got = Reconstructor::new(tensors, *k, *n)
                    .with_sparse(sparse)
                    .joint(10_000_000);
                let got_pairs = joint_pairs(&got);
                assert_eq!(
                    got_pairs.len(),
                    expect.len(),
                    "{label} sparse={sparse}: support"
                );
                for ((gb, gw), (eb, ew)) in got_pairs.iter().zip(&expect) {
                    assert_eq!(gb, eb, "{label} sparse={sparse}: key order");
                    assert_eq!(
                        gw.to_bits(),
                        ew.to_bits(),
                        "{label} sparse={sparse}: weight at {gb}: {gw} vs {ew}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_contraction_matches_dense_and_prunes() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(0).h(0);
        let (tensors, k, n) = reconstruct_exact(&c);
        let sparse = Reconstructor::new(&tensors, k, n);
        let dense = Reconstructor::new(&tensors, k, n).with_sparse(false);
        let b = Bits::parse("00").unwrap();
        assert!((sparse.probability_of(&b) - dense.probability_of(&b)).abs() < 1e-12);
        let visited_sparse = sparse.visited_assignments();
        let visited_dense = dense.visited_assignments();
        assert!(
            visited_sparse < visited_dense,
            "sparse must prune stabilizer zeros"
        );
        assert_eq!(visited_dense, 1 << (2 * k));
    }

    fn joint_pairs(d: &metrics::Distribution) -> Vec<(Bits, f64)> {
        d.iter()
            .map(|(words, p)| {
                let mut b = Bits::zeros(d.n_bits());
                b.copy_from_words(words);
                (b, p)
            })
            .collect()
    }

    /// A zeroed Pauli slice on a chunk-constant tensor (all cuts ≥ 6)
    /// triggers the whole-chunk sparse skip: the pruned sweep must visit
    /// exactly the assignments the per-assignment test would, and the
    /// marginals and a point probability must agree with the dense
    /// contraction.
    #[test]
    fn chunk_constant_mask_prefilter_prunes_whole_chunks() {
        let k = 8;
        // Zero Pauli index 2 of the last fragment (input cut 7), so
        // digit(cut 7) = 2 kills 1/4 of the range, one whole chunk at a
        // time.
        let (tensors, n) = masked_chain(k, &[2]);
        let sparse = Reconstructor::new(&tensors, k, n);
        let dense = Reconstructor::new(&tensors, k, n).with_sparse(false);
        let visited_dense = dense.visited_assignments();
        assert_eq!(visited_dense, 1 << (2 * k));
        assert_eq!(
            sparse.visited_assignments(),
            visited_dense / 4 * 3,
            "digit(cut 7) = 2 must prune exactly a quarter of the range"
        );
        for (s, d) in sparse.marginals().iter().zip(dense.marginals()) {
            assert!((s[0] - d[0]).abs() < 1e-12 && (s[1] - d[1]).abs() < 1e-12);
        }
        let b = Bits::from_u64(0b1011, n);
        assert!((sparse.probability_of(&b) - dense.probability_of(&b)).abs() < 1e-12);
    }

    /// The seed implementation's marginals loop, kept as an independent
    /// reference: one sequential `4^k` sweep, fresh prefix/suffix products
    /// per assignment and `slice_max_abs` checked per tensor per
    /// assignment — no chunks, no hoisted prefixes, no grouping.
    fn seed_marginals(
        tensors: &[FragmentTensor],
        num_cuts: usize,
        n_qubits: usize,
    ) -> Vec<[f64; 2]> {
        let nf = tensors.len();
        let tol = 1e-12;
        let mut marg = vec![[0.0f64; 2]; n_qubits];
        let mut mass = 0.0;
        let total = 1u64 << (2 * num_cuts);
        let mut indices = vec![0usize; nf];
        for kappa in 0..total {
            let digit = |cut: usize| ((kappa >> (2 * cut)) & 0b11) as usize;
            let mut skip = false;
            for (fi, t) in tensors.iter().enumerate() {
                let idx = t.pauli_index(digit);
                if t.slice_max_abs(idx) <= tol {
                    skip = true;
                    break;
                }
                indices[fi] = idx;
            }
            if skip {
                continue;
            }
            let mut prefix = vec![1.0; nf + 1];
            for f in 0..nf {
                prefix[f + 1] = prefix[f] * tensors[f].total(indices[f]);
            }
            let mut suffix = vec![1.0; nf + 1];
            for f in (0..nf).rev() {
                suffix[f] = suffix[f + 1] * tensors[f].total(indices[f]);
            }
            mass += prefix[nf];
            for (f, t) in tensors.iter().enumerate() {
                let excl = prefix[f] * suffix[f + 1];
                if excl == 0.0 {
                    continue;
                }
                for (bit, &global) in t.output_globals().iter().enumerate() {
                    for v in 0..2 {
                        marg[global][v] += excl * t.marginal(bit, v == 1, indices[f]);
                    }
                }
            }
        }
        if mass.abs() > 1e-12 {
            for m in &mut marg {
                m[0] /= mass;
                m[1] /= mass;
            }
        }
        for m in &mut marg {
            m[0] = m[0].clamp(0.0, 1.0);
            m[1] = m[1].clamp(0.0, 1.0);
            let s = m[0] + m[1];
            if s > 0.0 {
                m[0] /= s;
                m[1] /= s;
            }
        }
        marg
    }

    /// The chunked marginal sweep agrees with the seed's per-assignment
    /// sum on a dense k = 8 chain spanning 16 chunks, on the same chain
    /// with a quarter of its chunks masked whole, and on a k = 9 star
    /// whose hub alone has `4^9` grouped weights, over 64 chunks.
    #[test]
    fn marginals_match_seed_per_assignment_sum() {
        assert_eq!((1u64 << (2 * 8)) / ASSIGNMENTS_PER_CHUNK, 16);
        for (label, k, (tensors, n)) in [
            ("dense", 8, synthetic_dense_chain(8, 1)),
            ("masked", 8, masked_chain(8, &[2])),
            ("wide hub", 9, synthetic_star(9)),
        ] {
            let expect = seed_marginals(&tensors, k, n);
            let got = Reconstructor::new(&tensors, k, n).marginals();
            let diff = got
                .iter()
                .zip(&expect)
                .map(|(g, e)| (g[0] - e[0]).abs().max((g[1] - e[1]).abs()))
                .fold(0.0, f64::max);
            assert!(diff < 1e-9, "{label}: max |Δ| = {diff}");
        }
    }

    /// A star of `k` cuts: a hub fragment carrying every cut end (`4^k`
    /// Pauli slots) and one leaf per three consecutive cuts, each fragment
    /// with one circuit output and every slice nonzero.
    fn synthetic_star(k: usize) -> (Vec<FragmentTensor>, usize) {
        let fragment = |f: usize, input_cuts: Vec<usize>, output_cuts: Vec<usize>| {
            let dim = 1usize << (2 * (input_cuts.len() + output_cuts.len()));
            let entries = (0..2u64)
                .map(|e| {
                    let v = (0..dim)
                        .map(|i| synthetic_coeff(f, e as usize, i))
                        .collect();
                    (Bits::from_u64(e, 1), v)
                })
                .collect();
            FragmentTensor::from_dense_entries(input_cuts, output_cuts, vec![f], entries)
        };
        let mut tensors = vec![fragment(0, vec![], (0..k).collect())];
        let cuts: Vec<usize> = (0..k).collect();
        for leaf in cuts.chunks(3) {
            tensors.push(fragment(tensors.len(), leaf.to_vec(), vec![]));
        }
        let n = tensors.len();
        (tensors, n)
    }

    /// Under an error budget, the first (recorded) marginal query of the
    /// k = 9 star and its replay are bit-identical: one accumulator
    /// carries the hub's `4^9` weights through all 64 chunks, and the
    /// chunk-constant leaf on cuts 6–8 takes the suffix hoist.
    #[test]
    fn wide_hub_budgeted_marginals_replay_bit_exact() {
        let k = 9;
        let (tensors, n) = synthetic_star(k);
        let total_bound = Reconstructor::new(&tensors, k, n)
            .with_error_budget(1e18)
            .sweep_stats()
            .skipped_bound;
        let r = Reconstructor::new(&tensors, k, n).with_error_budget(total_bound * 0.25);
        let (first, first_stats) = r.try_marginals_with_stats().unwrap();
        assert!(first_stats.skipped > 0 && first_stats.visited > 0);
        assert!(matches!(r.skip_cache.get(), Some(Some(_))), "recorded");
        let (replay, replay_stats) = r.try_marginals_with_stats().unwrap();
        assert_eq!(first_stats, replay_stats);
        let bits = |m: &[[f64; 2]]| -> Vec<[u64; 2]> {
            m.iter().map(|p| [p[0].to_bits(), p[1].to_bits()]).collect()
        };
        assert_eq!(bits(&first), bits(&replay));
    }

    /// Shared output scatter plans change nothing: `joint` and
    /// `probability_of` are bit-identical with and without
    /// `with_output_plans`.
    #[test]
    fn shared_output_plans_are_bit_identical() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).h(2);
        let (tensors, k, n) = reconstruct_exact(&c);
        let plans: Vec<IndexPlan> = tensors
            .iter()
            .map(|t| IndexPlan::new(t.output_globals(), n))
            .collect();
        let bare = Reconstructor::new(&tensors, k, n);
        let shared = Reconstructor::new(&tensors, k, n).with_output_plans(&plans);
        assert_eq!(
            joint_pairs(&bare.joint(1_000_000)),
            joint_pairs(&shared.joint(1_000_000))
        );
        for x in 0..8u64 {
            let b = Bits::from_u64(x, n);
            assert!(bare.probability_of(&b) == shared.probability_of(&b));
        }
    }

    /// Sparse and dense contraction agree on a circuit whose fragments are
    /// all Clifford except the isolated rotation (stabilizer zeros pruned)
    /// and on a T-rich circuit whose fragments are non-Clifford.
    #[test]
    fn sparse_matches_dense_on_clifford_and_nonclifford_fragments() {
        let mut clifford_heavy = Circuit::new(3);
        clifford_heavy.h(0).cx(0, 1).cx(1, 2).t(2).h(2);
        let mut t_rich = Circuit::new(2);
        t_rich.h(0).t(0).h(0).t(0).cx(0, 1).h(1);
        for (label, c) in [("clifford", clifford_heavy), ("t-rich", t_rich)] {
            let (tensors, k, n) = reconstruct_exact(&c);
            let sparse = Reconstructor::new(&tensors, k, n);
            let dense = Reconstructor::new(&tensors, k, n).with_sparse(false);
            assert!(
                (sparse.total_mass() - dense.total_mass()).abs() < 1e-12,
                "{label}: total mass"
            );
            for (s, d) in sparse.marginals().iter().zip(dense.marginals()) {
                assert!(
                    (s[0] - d[0]).abs() < 1e-12 && (s[1] - d[1]).abs() < 1e-12,
                    "{label}: marginals"
                );
            }
            for x in 0..1u64 << n {
                let b = Bits::from_u64(x, n);
                assert!(
                    (sparse.probability_of(&b) - dense.probability_of(&b)).abs() < 1e-12,
                    "{label}: p({b})"
                );
            }
            assert!(
                sparse.visited_assignments() <= dense.visited_assignments(),
                "{label}: sparse must not visit more terms"
            );
        }
    }

    #[test]
    fn no_cut_clifford_circuit_reconstructs_directly() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let (tensors, k, n) = reconstruct_exact(&c);
        assert_eq!(k, 0);
        let r = Reconstructor::new(&tensors, k, n);
        let dist = r.joint(1000);
        assert!((dist.prob(&Bits::parse("00").unwrap()) - 0.5).abs() < 1e-12);
        assert!((dist.prob(&Bits::parse("11").unwrap()) - 0.5).abs() < 1e-12);
    }

    /// Five cut-free fragments of 2^13 outcomes each: the support product
    /// 2^65 overflows `usize`. It wraps to 0 unless the product
    /// saturates, so the limit check must still refuse it, in debug and
    /// release builds alike.
    #[test]
    #[should_panic(expected = "exceeds limit")]
    fn joint_support_product_past_usize_is_refused() {
        let tensors: Vec<FragmentTensor> = (0..5)
            .map(|f| {
                let entries = (0..1u64 << 13)
                    .map(|e| (Bits::from_u64(e, 13), vec![1.0]))
                    .collect();
                FragmentTensor::from_dense_entries(
                    vec![],
                    vec![],
                    (13 * f..13 * (f + 1)).collect(),
                    entries,
                )
            })
            .collect();
        let _ = Reconstructor::new(&tensors, 0, 65).try_joint(2_000_000);
    }

    /// A nonzero budget skips real mass, the realized `skipped_bound`
    /// stays within the budget and upper-bounds the true L1 distance to
    /// the exact unnormalized joint.
    #[test]
    fn budget_truncation_bounds_l1() {
        use std::collections::HashMap;
        let k = 7;
        let (tensors, n) = synthetic_dense_chain(k, 1);
        let exact = Reconstructor::new(&tensors, k, n);
        let (exact_joint, exact_stats) = exact.try_joint_with_stats(10_000_000).unwrap();
        assert_eq!(exact_stats.skipped, 0);
        assert_eq!(exact_stats.skipped_bound, 0.0);
        // Scale the budget off the all-skip bound so truncation is
        // partial regardless of the synthetic tensors' magnitudes.
        let total_bound = Reconstructor::new(&tensors, k, n)
            .with_error_budget(1e18)
            .sweep_stats()
            .skipped_bound;
        let budget = total_bound * 0.25;
        let seq = Reconstructor::new(&tensors, k, n).with_error_budget(budget);
        let (joint, stats) = seq.try_joint_with_stats(10_000_000).unwrap();
        assert!(stats.skipped > 0, "budget must skip something");
        assert!(stats.visited > 0, "budget must not skip everything");
        assert!(stats.skipped_bound <= budget + 1e-12);
        let mut diff: HashMap<Bits, f64> = joint_pairs(&exact_joint).into_iter().collect();
        for (b, p) in joint_pairs(&joint) {
            *diff.entry(b).or_insert(0.0) -= p;
        }
        let l1: f64 = diff.values().map(|d| d.abs()).sum();
        // Relative tolerance: on the synthetic chain the bound is tight
        // (no sign cancellation), so l1 ≈ bound up to float fold noise.
        assert!(
            l1 <= stats.skipped_bound * (1.0 + 1e-12) + 1e-12,
            "l1 {l1} exceeds bound {}",
            stats.skipped_bound
        );
    }

    /// The first budgeted sequential sweep records its visited set; every
    /// later query replays it bit for bit, answers other query shapes
    /// identically to a fresh sweep, and the cache is dropped by the
    /// setters that change the skip set.
    #[test]
    fn budgeted_replay_cache_is_bit_identical_across_queries() {
        let k = 7;
        let (tensors, n) = synthetic_dense_chain(k, 1);
        let total_bound = Reconstructor::new(&tensors, k, n)
            .with_error_budget(1e18)
            .sweep_stats()
            .skipped_bound;
        let budget = total_bound * 0.25;
        let r = Reconstructor::new(&tensors, k, n).with_error_budget(budget);
        assert!(r.skip_cache.get().is_none(), "cache starts cold");
        let (first, first_stats) = r.try_joint_with_stats(10_000_000).unwrap();
        assert!(
            matches!(r.skip_cache.get(), Some(Some(_))),
            "first budgeted sweep must record the visited set"
        );
        let (second, second_stats) = r.try_joint_with_stats(10_000_000).unwrap();
        assert_eq!(joint_pairs(&first), joint_pairs(&second));
        assert_eq!(first_stats, second_stats);
        // Replay answers a different query shape identically to a fresh
        // reconstructor's first (recorded) sweep.
        let fresh = Reconstructor::new(&tensors, k, n).with_error_budget(budget);
        let (fresh_marg, fresh_stats) = fresh.try_marginals_with_stats().unwrap();
        let (replay_marg, replay_stats) = r.try_marginals_with_stats().unwrap();
        assert_eq!(fresh_marg, replay_marg);
        assert_eq!(fresh_stats, replay_stats);
        // Exact queries never populate the cache.
        let exact = Reconstructor::new(&tensors, k, n);
        let _ = exact.try_joint_with_stats(10_000_000).unwrap();
        assert!(exact.skip_cache.get().is_none());
        // Setters that change the skip set swap in a fresh cell.
        let rebudgeted = r.clone().with_error_budget(budget * 2.0);
        assert!(rebudgeted.skip_cache.get().is_none());
        let resparsed = r.clone().with_sparse(false);
        assert!(resparsed.skip_cache.get().is_none());
    }

    /// Supervision faults on a 16-chunk sweep: the query reports the
    /// lowest faulting chunk, and an injected panic reaches the caller and
    /// leaves later contractions bit-identical.
    #[test]
    fn contraction_reports_the_earliest_fault_and_survives_a_panic() {
        use faultkit::{FaultKind, FaultPlan};
        let k = 8;
        let (tensors, n) = synthetic_dense_chain(k, 1);
        let supervised = |plan: FaultPlan| {
            Reconstructor::new(&tensors, k, n)
                .with_supervisor(Supervisor::new().with_faults(Arc::new(plan)))
        };
        assert_eq!(supervised(FaultPlan::new()).num_chunks(), 16);
        let faults = FaultPlan::new()
            .inject(0, Stage::Recombine, 3, FaultKind::Error)
            .inject(0, Stage::Recombine, 9, FaultKind::Error);
        let chunk_3 = Fault::Injected(format!("job 0 stage {} task 3", Stage::Recombine));
        let r = supervised(faults);
        assert_eq!(r.try_marginals(), Err(chunk_3.clone()));
        assert_eq!(r.try_joint(10_000_000).map(|_| ()), Err(chunk_3));

        let clean = Reconstructor::new(&tensors, k, n).marginals();
        let panicking = FaultPlan::new().inject(0, Stage::Recombine, 5, FaultKind::Panic);
        let r = supervised(panicking);
        // The query runs on its own thread, whose join reports the panic.
        let panicked = std::thread::scope(|s| s.spawn(|| r.try_marginals()).join().is_err());
        assert!(panicked, "the panic was lost");
        let after = Reconstructor::new(&tensors, k, n).marginals();
        assert_eq!(clean, after, "after a panic");
    }
}
