//! Portable `u64×4`-block SIMD layer for the GF(2) bit-plane kernels.
//!
//! Every hot word loop in the workspace — the [`Bits`](crate::Bits)
//! row kernels, the fused Pauli phase accumulator
//! ([`pauli_mul_phase_words`](crate::pauli_mul_phase_words)), and the
//! tableau engine's bit-plane gate/measurement sweeps — processes flat
//! `u64` slices. This module gives them one explicit 4-lane block type,
//! [`W4`], plus slice kernels built on it, so the straight-line block
//! bodies vectorize to 256-bit ops wherever the target has them.
//!
//! `W4` is a `[u64; 4]` wrapper whose operators are plain lane-wise word
//! arithmetic. It builds on the stable (offline) toolchain, and
//! optimizing backends lower the 4-lane bodies to vector instructions.
//!
//! The slice kernels treat length-mismatched inputs as caller bugs
//! (asserted), process the aligned 4-word blocks with `W4`, and finish
//! the `len % 4` tail with scalar words. Callers that maintain a
//! zero-padding invariant (the `Bits` contract) need no extra masking.

/// Lanes per block: the kernels consume `u64` slices in strides of 4.
pub const LANES: usize = 4;

/// A 4-lane `u64` block with lane-wise bit operators: a plain `[u64; 4]`
/// with unrolled operators.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(align(32))]
pub struct W4(pub [u64; 4]);

impl W4 {
    /// The all-zero block.
    pub const ZERO: W4 = W4([0; 4]);

    /// Broadcasts one word into every lane.
    #[inline(always)]
    pub fn splat(w: u64) -> W4 {
        W4([w; 4])
    }

    /// Loads the first 4 words of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` holds fewer than 4 words.
    #[inline(always)]
    pub fn load(s: &[u64]) -> W4 {
        W4([s[0], s[1], s[2], s[3]])
    }

    /// Stores the block into the first 4 words of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` holds fewer than 4 words.
    #[inline(always)]
    pub fn store(self, s: &mut [u64]) {
        s[0] = self.0[0];
        s[1] = self.0[1];
        s[2] = self.0[2];
        s[3] = self.0[3];
    }

    /// Sum of per-lane popcounts.
    #[inline(always)]
    pub fn count_ones(self) -> u32 {
        self.0[0].count_ones()
            + self.0[1].count_ones()
            + self.0[2].count_ones()
            + self.0[3].count_ones()
    }

    /// XOR-fold of the lanes into one word (parity-preserving).
    #[inline(always)]
    pub fn xor_lanes(self) -> u64 {
        self.0[0] ^ self.0[1] ^ self.0[2] ^ self.0[3]
    }

    /// OR-fold of the lanes into one word (zero test).
    #[inline(always)]
    pub fn or_lanes(self) -> u64 {
        self.0[0] | self.0[1] | self.0[2] | self.0[3]
    }
}

impl std::ops::BitAnd for W4 {
    type Output = W4;
    #[inline(always)]
    fn bitand(self, o: W4) -> W4 {
        W4([
            self.0[0] & o.0[0],
            self.0[1] & o.0[1],
            self.0[2] & o.0[2],
            self.0[3] & o.0[3],
        ])
    }
}

impl std::ops::BitOr for W4 {
    type Output = W4;
    #[inline(always)]
    fn bitor(self, o: W4) -> W4 {
        W4([
            self.0[0] | o.0[0],
            self.0[1] | o.0[1],
            self.0[2] | o.0[2],
            self.0[3] | o.0[3],
        ])
    }
}

impl std::ops::BitXor for W4 {
    type Output = W4;
    #[inline(always)]
    fn bitxor(self, o: W4) -> W4 {
        W4([
            self.0[0] ^ o.0[0],
            self.0[1] ^ o.0[1],
            self.0[2] ^ o.0[2],
            self.0[3] ^ o.0[3],
        ])
    }
}

impl std::ops::Not for W4 {
    type Output = W4;
    #[inline(always)]
    fn not(self) -> W4 {
        W4([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

/// `dst[k] ^= src[k]` for every word.
///
/// # Panics
///
/// Panics on length mismatch.
#[inline]
pub fn xor_into(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dw, sw) in d.by_ref().zip(s.by_ref()) {
        (W4::load(dw) ^ W4::load(sw)).store(dw);
    }
    for (dw, sw) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dw ^= sw;
    }
}

/// `dst[k] ^= a[k] & b[k]` for every word.
///
/// # Panics
///
/// Panics on length mismatch.
#[inline]
pub fn and_xor_into(dst: &mut [u64], a: &[u64], b: &[u64]) {
    assert!(
        dst.len() == a.len() && dst.len() == b.len(),
        "length mismatch"
    );
    let mut d = dst.chunks_exact_mut(LANES);
    let mut ab = a.chunks_exact(LANES);
    let mut bb = b.chunks_exact(LANES);
    for ((dw, aw), bw) in d.by_ref().zip(ab.by_ref()).zip(bb.by_ref()) {
        (W4::load(dw) ^ (W4::load(aw) & W4::load(bw))).store(dw);
    }
    for ((dw, aw), bw) in d
        .into_remainder()
        .iter_mut()
        .zip(ab.remainder())
        .zip(bb.remainder())
    {
        *dw ^= aw & bw;
    }
}

/// `dst[k] ^= a[k] & !b[k]` for every word.
///
/// # Panics
///
/// Panics on length mismatch.
#[inline]
pub fn andnot_xor_into(dst: &mut [u64], a: &[u64], b: &[u64]) {
    assert!(
        dst.len() == a.len() && dst.len() == b.len(),
        "length mismatch"
    );
    let mut d = dst.chunks_exact_mut(LANES);
    let mut ab = a.chunks_exact(LANES);
    let mut bb = b.chunks_exact(LANES);
    for ((dw, aw), bw) in d.by_ref().zip(ab.by_ref()).zip(bb.by_ref()) {
        (W4::load(dw) ^ (W4::load(aw) & !W4::load(bw))).store(dw);
    }
    for ((dw, aw), bw) in d
        .into_remainder()
        .iter_mut()
        .zip(ab.remainder())
        .zip(bb.remainder())
    {
        *dw ^= aw & !bw;
    }
}

/// Sum of per-word popcounts.
#[inline]
pub fn popcount(a: &[u64]) -> u32 {
    let mut blocks = a.chunks_exact(LANES);
    let mut total = 0u32;
    for c in blocks.by_ref() {
        total += W4::load(c).count_ones();
    }
    total
        + blocks
            .remainder()
            .iter()
            .map(|w| w.count_ones())
            .sum::<u32>()
}

/// `popcount(a & b)` without materializing the AND.
///
/// # Panics
///
/// Panics on length mismatch.
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let mut ab = a.chunks_exact(LANES);
    let mut bb = b.chunks_exact(LANES);
    let mut total = 0u32;
    for (aw, bw) in ab.by_ref().zip(bb.by_ref()) {
        total += (W4::load(aw) & W4::load(bw)).count_ones();
    }
    for (aw, bw) in ab.remainder().iter().zip(bb.remainder()) {
        total += (aw & bw).count_ones();
    }
    total
}

/// XOR-fold of all words into one (preserves total popcount parity).
#[inline]
pub fn xor_fold(a: &[u64]) -> u64 {
    let mut blocks = a.chunks_exact(LANES);
    let mut acc = W4::ZERO;
    for c in blocks.by_ref() {
        acc = acc ^ W4::load(c);
    }
    let mut fold = acc.xor_lanes();
    for &w in blocks.remainder() {
        fold ^= w;
    }
    fold
}

/// XOR-fold of `a & b` into one word (the GF(2) dot product folds this
/// once more with a popcount-parity).
///
/// # Panics
///
/// Panics on length mismatch.
#[inline]
pub fn and_xor_fold(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let mut ab = a.chunks_exact(LANES);
    let mut bb = b.chunks_exact(LANES);
    let mut acc = W4::ZERO;
    for (aw, bw) in ab.by_ref().zip(bb.by_ref()) {
        acc = acc ^ (W4::load(aw) & W4::load(bw));
    }
    let mut fold = acc.xor_lanes();
    for (aw, bw) in ab.remainder().iter().zip(bb.remainder()) {
        fold ^= aw & bw;
    }
    fold
}

/// Returns `true` when any word is nonzero (short-circuits per block).
#[inline]
pub fn any_nonzero(a: &[u64]) -> bool {
    let mut blocks = a.chunks_exact(LANES);
    for c in blocks.by_ref() {
        if W4::load(c).or_lanes() != 0 {
            return true;
        }
    }
    blocks.remainder().iter().any(|&w| w != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(len: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x
            })
            .collect()
    }

    #[test]
    fn w4_ops_are_lane_wise() {
        let a = W4::load(&[1, 2, 4, 8]);
        let b = W4::splat(0b1010);
        assert_eq!(
            (a ^ b).xor_lanes(),
            (1 ^ 10) ^ (2 ^ 10) ^ (4 ^ 10) ^ (8 ^ 10)
        );
        assert_eq!((a & b).count_ones(), 2); // lanes: 1&10=0, 2&10=2, 4&10=0, 8&10=8
        assert_eq!((a | b).or_lanes(), 1 | 2 | 4 | 8 | 10);
        assert_eq!((!W4::ZERO).count_ones(), 256);
        let mut out = [0u64; 4];
        a.store(&mut out);
        assert_eq!(out, [1, 2, 4, 8]);
    }

    #[test]
    fn slice_kernels_match_scalar_reference_across_tails() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 11, 16, 33] {
            let a = patterned(len, 2 * len as u64 + 1);
            let b = patterned(len, 2 * len as u64 + 9);
            let mut d = a.clone();
            xor_into(&mut d, &b);
            for k in 0..len {
                assert_eq!(d[k], a[k] ^ b[k], "xor_into len {len} word {k}");
            }
            let mut d = a.clone();
            and_xor_into(&mut d, &b, &a);
            for k in 0..len {
                assert_eq!(
                    d[k],
                    a[k] ^ (b[k] & a[k]),
                    "and_xor_into len {len} word {k}"
                );
            }
            let mut d = a.clone();
            andnot_xor_into(&mut d, &b, &a);
            for k in 0..len {
                assert_eq!(
                    d[k],
                    a[k] ^ (b[k] & !a[k]),
                    "andnot_xor_into len {len} word {k}"
                );
            }
            assert_eq!(
                popcount(&a),
                a.iter().map(|w| w.count_ones()).sum::<u32>(),
                "popcount len {len}"
            );
            assert_eq!(
                and_popcount(&a, &b),
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| (x & y).count_ones())
                    .sum::<u32>(),
                "and_popcount len {len}"
            );
            assert_eq!(
                xor_fold(&a),
                a.iter().fold(0, |acc, w| acc ^ w),
                "xor_fold len {len}"
            );
            assert_eq!(
                and_xor_fold(&a, &b),
                a.iter().zip(&b).fold(0, |acc, (x, y)| acc ^ (x & y)),
                "and_xor_fold len {len}"
            );
            assert_eq!(any_nonzero(&a), a.iter().any(|&w| w != 0));
            assert!(!any_nonzero(&vec![0u64; len]));
        }
    }
}
