//! The computational-basis support of a stabilizer state.
//!
//! Measuring every qubit of a stabilizer state yields the uniform
//! distribution over an affine subspace `base ⊕ span(directions)` of
//! `GF(2)^n`. [`AffineSupport`] is that subspace, extracted once from the
//! tableau's stabilizer rows by Gaussian elimination (`O(n³/64)`). Sampling
//! folds the `r` directions into `⌈r/8⌉` byte tables of 256 entries each
//! (`⌈r/8⌉·256·⌈n/64⌉` words, built once per call), after which every shot
//! costs `⌈r/64⌉` RNG draws and `⌈r/8⌉·⌈n/64⌉` word XORs; the shots are
//! tallied by sorting them. That is what lets SuperSim sample 300-qubit
//! Clifford fragments in milliseconds.

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

    /// Phase 1 of sampling: draws `shots` outcomes into `buf` and returns
    /// them as one flat `shots × words` array, in draw order.
    ///
    /// The directions are first folded into byte tables: entry `v` of
    /// table `j` is the XOR of the directions `8j..8j+8` that `v`'s bits
    /// select (bits past the last direction select nothing), kept one
    /// word of the outcome at a time. A shot is then `base` XORed with one
    /// table entry per mask byte, with no branch on the mask. The draws
    /// are those of a per-direction loop: one `u64` per block of 64
    /// directions, whose bit `i` selects the block's direction `i`, and
    /// none at all when `dim = 0`. `buf` holds the tables, the rows and the
    /// masks, so its size follows `shots`, the width and `dim` alone.
    fn draw_rows<'a>(
        &self,
        shots: usize,
        rng: &mut impl Rng,
        buf: &'a mut Vec<u64>,
    ) -> &'a mut [u64] {
        let base = self.base.as_words();
        let words = base.len();
        let (tables, blocks) = (self.dim().div_ceil(8), self.dim().div_ceil(64));
        buf.clear();
        buf.resize(words * tables * 256 + shots * (words + blocks), 0);
        let (table, rest) = buf.split_at_mut(words * tables * 256);
        let (rows, masks) = rest.split_at_mut(shots * words);
        // Word `w`'s table `j` is `table[w * tables + j]`.
        let table = table.as_chunks_mut::<256>().0;
        for w in 0..words {
            for (j, byte) in self.directions.chunks(8).enumerate() {
                let t = &mut table[w * tables + j];
                for v in 1..256usize {
                    let d = byte.get(v.trailing_zeros() as usize);
                    t[v] = t[v & (v - 1)] ^ d.map_or(0, |d| d.as_words()[w]);
                }
            }
        }
        masks.fill_with(|| rng.random());
        for (w, &b) in base.iter().enumerate() {
            let t = &table[w * tables..][..tables];
            for s in 0..shots {
                let mut x = b;
                for (m, t8) in masks[s * blocks..][..blocks].iter().zip(t.chunks(8)) {
                    for (k, t) in t8.iter().enumerate() {
                        x ^= t[((m >> (8 * k)) & 0xff) as usize];
                    }
                }
                rows[s * words + w] = x;
            }
        }
        rows
    }

    /// The outcome whose backing words are `words`.
    fn outcome(&self, words: &[u64]) -> Bits {
        let mut x = self.base.clone();
        x.copy_from_words(words);
        x
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> Bits {
        self.outcome(self.draw_rows(1, rng, &mut Vec::new()))
    }

    /// Draws `shots` samples, in draw order.
    pub fn sample_many(&self, shots: usize, rng: &mut impl Rng) -> Vec<Bits> {
        let mut buf = Vec::new();
        let rows = self.draw_rows(shots, rng, &mut buf);
        let words = self.base.as_words().len();
        (0..shots)
            .map(|s| self.outcome(&rows[s * words..][..words]))
            .collect()
    }

    /// Draws `shots` samples and tallies them: `(outcome, count)` pairs in
    /// ascending [`Bits`] order, one per distinct outcome.
    pub fn sample_counts(&self, shots: usize, rng: &mut impl Rng) -> Vec<(Bits, u64)> {
        let mut counts = Vec::new();
        self.sample_runs(shots, rng, &mut Vec::new(), |words, n| {
            counts.push((self.outcome(words), n));
        });
        counts
    }

    /// [`AffineSupport::sample_counts`] without building a `Bits` per
    /// outcome: calls `visit(words, count)` once per distinct outcome, in
    /// ascending [`Bits`] order, with the outcome's backing words. `buf`
    /// is the working memory — the byte tables, the drawn rows and their
    /// masks, sized from `shots`, the width and `dim` alone — so a caller
    /// that samples many supports reuses one allocation.
    ///
    /// Phase 2 of sampling: the drawn rows are sorted — as plain `u64`s
    /// when outcomes fit one word, by first word with a whole-row
    /// tie-break ([`qcir::sort_by_first_word`]) otherwise — and each run
    /// of equal rows is one outcome.
    pub fn sample_runs(
        &self,
        shots: usize,
        rng: &mut impl Rng,
        buf: &mut Vec<u64>,
        mut visit: impl FnMut(&[u64], u64),
    ) {
        let words = self.base.as_words().len();
        let rows = self.draw_rows(shots, rng, buf);
        match words {
            0 if shots > 0 => visit(&[], shots as u64),
            0 => {}
            1 => {
                rows.sort_unstable();
                for run in rows.chunk_by(|a, b| a == b) {
                    visit(&run[..1], run.len() as u64);
                }
            }
            _ => {
                let row = |i: u32| &rows[i as usize * words..][..words];
                let order =
                    qcir::sort_by_first_word(shots, |i| rows[i * words], |a, b| row(a).cmp(row(b)));
                for run in order.chunk_by(|&a, &b| row(a) == row(b)) {
                    visit(row(run[0]), run.len() as u64);
                }
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
