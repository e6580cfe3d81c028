//! The computational-basis support of a stabilizer state.
//!
//! Measuring every qubit of a stabilizer state yields the uniform
//! distribution over an affine subspace `base ⊕ span(directions)` of
//! `GF(2)^n`. [`AffineSupport`] is that subspace, extracted once from the
//! tableau's stabilizer rows by Gaussian elimination (`O(n³/64)`), after
//! which every shot costs `O(n·r/64)` — the property that lets SuperSim
//! sample 300-qubit Clifford fragments in milliseconds.

use crate::packed::PackedPauli;
use qcir::Bits;
use rand::Rng;

/// Gaussian-eliminates `n` extracted stabilizer generators into the
/// affine support of the measurement distribution.
///
/// The elimination order, pivot choice, and free-variable convention
/// fix the emitted `base`/`directions` — and therefore the per-shot RNG
/// consumption of sampling — so seeded runs depend on them staying put.
pub(crate) fn support_from_packed_rows(n: usize, mut rows: Vec<PackedPauli>) -> AffineSupport {
    // Echelon form on the X-block.
    let mut rank = 0;
    for col in 0..n {
        if let Some(pivot) = (rank..n).find(|&i| rows[i].x.get(col)) {
            rows.swap(rank, pivot);
            let pivot_row = rows[rank].clone();
            for (i, row) in rows.iter_mut().enumerate() {
                if i != rank && row.x.get(col) {
                    row.mul_assign(&pivot_row);
                }
            }
            rank += 1;
        }
    }

    // Move the bit-planes out of the eliminated rows: the first `rank`
    // X-masks become the directions, the rest are pure-Z constraints.
    let mut rows_iter = rows.into_iter();
    let directions: Vec<Bits> = rows_iter.by_ref().take(rank).map(|r| r.x).collect();

    // Remaining rows are pure-Z stabilizers: (-1)^{k/2} Z^z fixes
    // z·x ≡ k/2 (mod 2) on the support.
    let mut cons: Vec<(Bits, bool)> = rows_iter
        .map(|r| {
            debug_assert!(r.is_z_type());
            debug_assert!(r.k % 2 == 0);
            (r.z, r.k % 4 == 2)
        })
        .collect();

    // Solve the linear system for a particular solution (free vars = 0).
    let mut base = Bits::zeros(n);
    let mut row_i = 0;
    let mut pivots: Vec<(usize, usize)> = Vec::new(); // (row, col)
    for col in 0..n {
        if row_i >= cons.len() {
            break;
        }
        if let Some(p) = (row_i..cons.len()).find(|&i| cons[i].0.get(col)) {
            cons.swap(row_i, p);
            let (pivot_bits, pivot_rhs) = cons[row_i].clone();
            for (i, (bits, rhs)) in cons.iter_mut().enumerate() {
                if i != row_i && bits.get(col) {
                    bits.xor_assign(&pivot_bits);
                    *rhs ^= pivot_rhs;
                }
            }
            pivots.push((row_i, col));
            row_i += 1;
        }
    }
    for &(r, col) in &pivots {
        // In reduced echelon form with free variables set to zero the
        // pivot variable equals the right-hand side.
        base.set(col, cons[r].1);
    }

    AffineSupport { base, directions }
}

/// The support of a stabilizer state's computational-basis distribution:
/// the uniform distribution over `base ⊕ span(directions)`.
#[derive(Clone, Debug)]
pub struct AffineSupport {
    base: Bits,
    directions: Vec<Bits>,
}

impl AffineSupport {
    /// Constructs a support from a base point and (independent) directions.
    pub fn new(base: Bits, directions: Vec<Bits>) -> Self {
        AffineSupport { base, directions }
    }

    /// The dimension `r` of the support subspace (the distribution is
    /// uniform over `2^r` points).
    pub fn dim(&self) -> usize {
        self.directions.len()
    }

    /// The base point.
    pub fn base(&self) -> &Bits {
        &self.base
    }

    /// The subspace directions.
    pub fn directions(&self) -> &[Bits] {
        &self.directions
    }

    /// XORs a random subset of the directions into `x`, drawing the
    /// selection mask 64 directions at a time (one RNG call per block
    /// instead of one per direction).
    fn xor_random_directions(&self, x: &mut Bits, rng: &mut impl Rng) {
        for block in self.directions.chunks(64) {
            let mut mask: u64 = rng.random();
            for d in block {
                if mask & 1 == 1 {
                    x.xor_assign(d);
                }
                mask >>= 1;
            }
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> Bits {
        let mut x = self.base.clone();
        self.xor_random_directions(&mut x, rng);
        x
    }

    /// Draws one sample into an existing row, reusing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the support width.
    pub fn sample_into(&self, out: &mut Bits, rng: &mut impl Rng) {
        out.copy_from(&self.base);
        self.xor_random_directions(out, rng);
    }

    /// Draws `shots` samples. Each returned row is necessarily a fresh
    /// allocation; use [`AffineSupport::sample_counts`] for the
    /// scratch-reusing bulk path.
    pub fn sample_many(&self, shots: usize, rng: &mut impl Rng) -> Vec<Bits> {
        (0..shots).map(|_| self.sample(rng)).collect()
    }

    /// Draws `shots` samples and tallies them, reusing one scratch row —
    /// the allocation-free path for bulk Clifford sampling (a fresh `Bits`
    /// is cloned only the first time an outcome is seen). The tally is
    /// keyed by interned ids ([`metrics::OutcomeCounts`]), so the per-shot
    /// cost is a hash probe instead of the ordered-map walk the former
    /// `BTreeMap` return type paid; outcomes emit in lexicographic order
    /// through [`metrics::OutcomeCounts::iter_sorted`].
    pub fn sample_counts(&self, shots: usize, rng: &mut impl Rng) -> metrics::OutcomeCounts {
        let mut counts = metrics::OutcomeCounts::new();
        self.sample_counts_into(shots, rng, &mut counts);
        counts
    }

    /// [`AffineSupport::sample_counts`] into a caller-provided tally —
    /// lets hot loops reuse one accumulator (and its table allocation)
    /// across many sampling calls. Counts accumulate on top of whatever
    /// the tally already holds; call [`metrics::OutcomeCounts::clear`]
    /// between independent records.
    pub fn sample_counts_into(
        &self,
        shots: usize,
        rng: &mut impl Rng,
        counts: &mut metrics::OutcomeCounts,
    ) {
        let mut scratch = self.base.clone();
        self.sample_counts_scratch(shots, rng, counts, &mut scratch);
    }

    /// [`AffineSupport::sample_counts_into`] with a caller-provided
    /// scratch row as well — the fully allocation-free bulk path for
    /// workers that sample many supports in a loop. The scratch row is
    /// re-shaped (one allocation) only when the support width changes
    /// between calls.
    ///
    /// Small supports (single-word outcomes, `dim ≤ 10`) take a table
    /// fast path: the `2^dim` support points are precomputed once and
    /// each shot becomes one RNG draw plus an indexed tally bump. The
    /// per-shot RNG consumption (one `u64` for `1..=64` directions, none
    /// for zero) and the resulting per-outcome counts are exactly those
    /// of the general loop, so sampling streams stay bit-identical.
    pub fn sample_counts_scratch(
        &self,
        shots: usize,
        rng: &mut impl Rng,
        counts: &mut metrics::OutcomeCounts,
        scratch: &mut Bits,
    ) {
        let dim = self.directions.len();
        let width = self.base.len();
        if scratch.len() != width {
            *scratch = self.base.clone();
        }
        const MAX_TABLE_DIM: usize = 10;
        if (1..=64).contains(&width) && dim <= MAX_TABLE_DIM {
            // table[idx] = base ⊕ (directions selected by idx's bits) —
            // bit i of idx ↔ direction i, matching the low-bits-first
            // selection of `xor_random_directions`.
            let mut table = vec![0u64; 1 << dim];
            table[0] = self.base.as_words()[0];
            for (i, d) in self.directions.iter().enumerate() {
                let dw = d.as_words()[0];
                let (lo, hi) = table.split_at_mut(1 << i);
                for (t, &s) in hi[..1 << i].iter_mut().zip(lo.iter()) {
                    *t = s ^ dw;
                }
            }
            let mut tally = vec![0u64; 1 << dim];
            if dim == 0 {
                tally[0] = shots as u64;
            } else {
                let m = (u64::MAX) >> (64 - dim);
                for _ in 0..shots {
                    let mask: u64 = rng.random();
                    tally[(mask & m) as usize] += 1;
                }
            }
            for (idx, &n) in tally.iter().enumerate() {
                if n > 0 {
                    scratch.copy_from_words(&table[idx..idx + 1]);
                    counts.record_n(scratch, n);
                }
            }
        } else {
            for _ in 0..shots {
                self.sample_into(scratch, rng);
                counts.record(scratch);
            }
        }
    }

    /// Visits all `2^dim` support points in Gray-code order (one direction
    /// flipped per step, starting at the base), each through `row`: the
    /// row is overwritten point by point, so enumerating allocates nothing
    /// beyond re-shaping `row` when its width differs from the support's.
    ///
    /// # Panics
    ///
    /// Panics if `dim > 24` (guard against accidental exponential blowup).
    pub fn enumerate_into(&self, row: &mut Bits, mut visit: impl FnMut(&Bits)) {
        let r = self.dim();
        assert!(r <= 24, "support too large to enumerate (dim {r})");
        if row.len() == self.base.len() {
            row.copy_from(&self.base);
        } else {
            row.clone_from(&self.base);
        }
        visit(row);
        for k in 1u64..(1 << r) {
            row.xor_assign(&self.directions[k.trailing_zeros() as usize]);
            visit(row);
        }
    }

    /// Membership test (reduces `x ⊕ base` against the directions).
    pub fn contains(&self, x: &Bits) -> bool {
        let n = self.base.len();
        if x.len() != n {
            return false;
        }
        let mut v = x.clone();
        v.xor_assign(&self.base);
        // Row-reduce the directions to echelon form, reducing v in lockstep.
        let mut basis: Vec<Bits> = self.directions.clone();
        let mut rank = 0;
        for col in 0..n {
            if let Some(p) = (rank..basis.len()).find(|&i| basis[i].get(col)) {
                basis.swap(rank, p);
                let pivot = basis[rank].clone();
                for (i, b) in basis.iter_mut().enumerate() {
                    if i != rank && b.get(col) {
                        b.xor_assign(&pivot);
                    }
                }
                if v.get(col) {
                    v.xor_assign(&pivot);
                }
                rank += 1;
            }
        }
        v.is_zero()
    }
}
