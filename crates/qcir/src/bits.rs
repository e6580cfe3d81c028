//! Compact bitstrings for measurement outcomes.

use crate::simd::{self, W4};
use std::fmt;

/// A fixed-length bitstring packed into 64-bit words.
///
/// Bit `i` corresponds to qubit `i` of a measurement record. The [`Display`]
/// form prints bit 0 leftmost, matching the qubit-ordering convention used
/// throughout SuperSim-RS.
///
/// ```
/// use qcir::Bits;
/// let mut b = Bits::zeros(4);
/// b.set(1, true);
/// b.set(3, true);
/// assert_eq!(b.to_string(), "0101");
/// assert_eq!(b.count_ones(), 2);
/// ```
///
/// [`Display`]: std::fmt::Display
///
/// Invariant: bits at positions `len..` of the backing words are always
/// zero — every constructor and mutator maintains this, which lets the
/// word-level kernels ([`Bits::extract`], [`Bits::concat`],
/// [`Bits::scatter`]) copy whole words without masking.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub struct Bits {
    len: usize,
    words: Vec<u64>,
}

impl Bits {
    /// Creates an all-zero bitstring of length `len`.
    pub fn zeros(len: usize) -> Self {
        Bits {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates a bitstring of length `len` from the low bits of `value`.
    ///
    /// Bit `i` of the result equals bit `i` of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits");
        let mut b = Bits::zeros(len);
        if len > 0 {
            let mask = if len == 64 {
                u64::MAX
            } else {
                (1u64 << len) - 1
            };
            b.words[0] = value & mask;
        }
        b
    }

    /// Creates a bitstring from a slice of booleans (`bools[i]` → bit `i`).
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut b = Bits::zeros(bools.len());
        for (i, &v) in bools.iter().enumerate() {
            b.set(i, v);
        }
        b
    }

    /// Parses a string of `'0'`/`'1'` characters (leftmost character → bit 0).
    ///
    /// Returns `None` when any other character is present.
    pub fn parse(s: &str) -> Option<Self> {
        let mut b = Bits::zeros(s.len());
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => {}
                '1' => b.set(i, true),
                _ => return None,
            }
        }
        Some(b)
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the bitstring has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let m = 1u64 << (i % 64);
        if value {
            *w |= m;
        } else {
            *w &= !m;
        }
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// XORs another bitstring of the same length into `self`.
    ///
    /// Runs on the [`simd`] `u64×4`-block kernels so the hot GF(2) row
    /// operations (tableau rowsums, Pauli products, affine-support
    /// sampling) vectorize.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[inline]
    pub fn xor_assign(&mut self, other: &Bits) {
        assert_eq!(self.len, other.len, "length mismatch");
        simd::xor_into(&mut self.words, &other.words);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        simd::popcount(&self.words)
    }

    /// Number of positions where both `self` and `other` are set
    /// (`popcount(self & other)`), without materializing the AND.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[inline]
    pub fn and_count_ones(&self, other: &Bits) -> u32 {
        assert_eq!(self.len, other.len, "length mismatch");
        simd::and_popcount(&self.words, &other.words)
    }

    /// Returns `true` when no bit is set.
    ///
    /// Short-circuiting block scan — unlike `count_ones() == 0` it stops
    /// at the first nonzero block instead of popcounting the whole string.
    #[inline]
    pub fn is_zero(&self) -> bool {
        !simd::any_nonzero(&self.words)
    }

    /// Parity (mod-2 sum) of all bits.
    ///
    /// XOR-folds the words into one accumulator and popcounts once —
    /// XOR preserves popcount parity, so this matches the per-word
    /// popcount sum while doing a single `popcnt` at the end.
    #[inline]
    pub fn parity(&self) -> bool {
        simd::xor_fold(&self.words).count_ones() % 2 == 1
    }

    /// Parity of the AND with `other` — the GF(2) inner product.
    ///
    /// Same XOR-fold trick as [`Bits::parity`]: the per-word ANDs are
    /// XOR-folded (parity-preserving) and popcounted once.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[inline]
    pub fn dot(&self, other: &Bits) -> bool {
        assert_eq!(self.len, other.len, "length mismatch");
        simd::and_xor_fold(&self.words, &other.words).count_ones() % 2 == 1
    }

    /// Read-only view of the backing words (bit `i` of word `w` = bit
    /// `64w + i` of the string; `len..` padding bits are zero).
    ///
    /// Lets word-level consumers (e.g. the tableau's flat bit-plane
    /// arena) mix `Bits` values into slice-based kernels such as
    /// [`pauli_mul_phase_words`] without per-bit accessors.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites the backing words from a slice.
    ///
    /// The caller must supply exactly the backing word count and keep the
    /// `len..` padding invariant: bits at positions `len..` of the final
    /// word must be zero (debug-asserted).
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the backing word count.
    #[inline]
    pub fn copy_from_words(&mut self, words: &[u64]) {
        debug_assert!(
            self.len % 64 == 0 || words.last().is_none_or(|&w| w >> (self.len % 64) == 0),
            "copy_from_words source sets padding bits"
        );
        self.words.copy_from_slice(words);
    }

    /// XORs `mask` into word `w` of the backing storage.
    ///
    /// The caller must keep the `len..` padding invariant: bits of `mask`
    /// at positions `len..` must be zero (debug-asserted).
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    #[inline]
    pub fn xor_word(&mut self, w: usize, mask: u64) {
        debug_assert!(
            {
                let lo = w * 64;
                let valid = if self.len >= lo + 64 {
                    u64::MAX
                } else if self.len > lo {
                    (1u64 << (self.len - lo)) - 1
                } else {
                    0
                };
                mask & !valid == 0
            },
            "xor_word mask touches padding bits"
        );
        self.words[w] ^= mask;
    }

    /// The bitstring as a `u64`, when it fits.
    pub fn to_u64(&self) -> Option<u64> {
        if self.len <= 64 {
            Some(self.words.first().copied().unwrap_or(0))
        } else {
            None
        }
    }

    /// Overwrites `self` with `other`'s bits without reallocating.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[inline]
    pub fn copy_from(&mut self, other: &Bits) {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Extracts the bits at `indices` (in order) into a new bitstring.
    ///
    /// Word-level kernel: output bits are packed into 64-bit accumulators
    /// instead of being set one at a time.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn extract(&self, indices: &[usize]) -> Bits {
        let mut out = Bits::zeros(indices.len());
        let mut acc = 0u64;
        let mut w = 0;
        for (k, &i) in indices.iter().enumerate() {
            assert!(i < self.len, "bit index {i} out of range {}", self.len);
            let bit = (self.words[i >> 6] >> (i & 63)) & 1;
            acc |= bit << (k & 63);
            if k & 63 == 63 {
                out.words[w] = acc;
                acc = 0;
                w += 1;
            }
        }
        if indices.len() & 63 != 0 {
            out.words[w] = acc;
        }
        out
    }

    /// Concatenates two bitstrings (`self` occupies the low bit positions).
    ///
    /// Word-level kernel: `other`'s words are shifted into place instead of
    /// copying bit by bit.
    pub fn concat(&self, other: &Bits) -> Bits {
        let len = self.len + other.len;
        let mut out = Bits::zeros(len);
        out.words[..self.words.len()].copy_from_slice(&self.words);
        let base = self.len >> 6;
        let shift = self.len & 63;
        if shift == 0 {
            out.words[base..base + other.words.len()].copy_from_slice(&other.words);
        } else {
            for (j, &w) in other.words.iter().enumerate() {
                out.words[base + j] |= w << shift;
                let carry = w >> (64 - shift);
                if carry != 0 {
                    out.words[base + j + 1] |= carry;
                }
            }
        }
        out
    }

    /// Iterator over the bits in index order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Scatter: writes `self`'s bits into positions `positions` of a
    /// zero-initialized bitstring of length `total_len`.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != self.len()` or a position is out of range.
    pub fn scatter(&self, positions: &[usize], total_len: usize) -> Bits {
        assert_eq!(positions.len(), self.len, "positions/len mismatch");
        let mut out = Bits::zeros(total_len);
        for (k, &p) in positions.iter().enumerate() {
            assert!(p < total_len, "bit index {p} out of range {total_len}");
            // The output starts zeroed, so an OR suffices.
            let bit = (self.words[k >> 6] >> (k & 63)) & 1;
            out.words[p >> 6] |= bit << (p & 63);
        }
        out
    }

    /// A fast 64-bit hash of the bitstring (FxHash-style word fold).
    ///
    /// Intended for open-addressed hash tables and intern pools over
    /// outcome keys, where the per-key cost of the standard `Hasher`
    /// machinery dominates; not a cryptographic hash. Equal bitstrings
    /// hash equally (the `len..` word invariant keeps padding bits zero).
    #[inline]
    pub fn hash_u64(&self) -> u64 {
        Bits::hash_words(self.len, &self.words)
    }

    /// [`Bits::hash_u64`] of the `len`-bit string whose words are `words`
    /// (padding bits zero) — the same hash for a key held as a row of a
    /// flat word array instead of as a `Bits`.
    #[inline]
    pub fn hash_words(len: usize, words: &[u64]) -> u64 {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mut h = len as u64;
        for &w in words {
            h = (h.rotate_left(5) ^ w).wrapping_mul(SEED);
        }
        // Final avalanche so low table-index bits depend on every word.
        h ^= h >> 32;
        h.wrapping_mul(SEED)
    }

    /// Writes `self`'s bits into positions `positions` of `target` in place.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != self.len()` or a position is out of range.
    pub fn scatter_into(&self, positions: &[usize], target: &mut Bits) {
        assert_eq!(positions.len(), self.len, "positions/len mismatch");
        for (k, &p) in positions.iter().enumerate() {
            assert!(p < target.len, "bit index {p} out of range {}", target.len);
            let bit = (self.words[k >> 6] >> (k & 63)) & 1;
            let m = 1u64 << (p & 63);
            let w = &mut target.words[p >> 6];
            *w = (*w & !m) | (bit << (p & 63));
        }
    }
}

/// Fused GF(2) multiply-and-phase kernel for Pauli rows in the
/// Aaronson–Gottesman `(x, z)` encoding (`Y` ≡ `(1,1)` with no per-qubit
/// phase): performs `(x2, z2) := (x1 ⊕ x2, z1 ⊕ z2)` in place and returns
/// the exponent of `i` picked up by the product `P(x1,z1) · P(x2,z2)`,
/// mod 4.
///
/// This is the word-parallel replacement for the per-qubit `g()` phase
/// match of the textbook rowsum: anticommuting bit positions contribute
/// `±1` to the `i`-exponent, and the kernel accumulates those
/// contributions in two carry-save bit-planes per word (`cnt1` = low
/// counter bit per lane, `cnt2` = high bit, i.e. a 2-bit saturating-free
/// counter mod 4 per bit lane). Adding `+1` to a lane flips `cnt1` and
/// carries into `cnt2`; adding `−1` (≡ `+3`) additionally flips `cnt2`,
/// and the "was this a `−1`" predicate reduces to
/// `newx ⊕ newz ⊕ (x1 & z2)` on anticommuting lanes. The total exponent
/// is then `popcount(cnt1) + 2·popcount(cnt2) (mod 4)` — per-lane counts
/// mod 4 sum to the true count mod 4.
///
/// The `len..` padding invariant guarantees the slack bits of the last
/// word never anticommute, so no tail masking is needed.
///
/// # Panics
///
/// Panics when the four rows do not share one length.
#[inline]
pub fn pauli_mul_phase(x1: &Bits, z1: &Bits, x2: &mut Bits, z2: &mut Bits) -> u8 {
    assert!(
        x1.len == z1.len && x1.len == x2.len && x1.len == z2.len,
        "length mismatch"
    );
    pauli_mul_phase_words(&x1.words, &z1.words, &mut x2.words, &mut z2.words)
}

/// Word-slice form of [`pauli_mul_phase`], for callers that keep rows in
/// a flat word arena (the tableau's bit-plane layout) rather than in
/// `Bits` values. Identical semantics; slack bits beyond the operand
/// width must be zero in all four slices (the `Bits` padding invariant).
///
/// # Panics
///
/// Panics when the four slices do not share one length.
#[inline]
pub fn pauli_mul_phase_words(x1: &[u64], z1: &[u64], x2: &mut [u64], z2: &mut [u64]) -> u8 {
    assert!(
        x1.len() == z1.len() && x1.len() == x2.len() && x1.len() == z2.len(),
        "length mismatch"
    );
    // Block pass: the carry-save counters live in 4-lane accumulators,
    // one independent mod-4 counter per bit lane. Lane counts mod 4 sum
    // to the true count mod 4, so the block and scalar-tail accumulators
    // just add at the end.
    let mut c1 = W4::ZERO;
    let mut c2 = W4::ZERO;
    let mut x1b = x1.chunks_exact(simd::LANES);
    let mut z1b = z1.chunks_exact(simd::LANES);
    let mut x2b = x2.chunks_exact_mut(simd::LANES);
    let mut z2b = z2.chunks_exact_mut(simd::LANES);
    for (((x1w, z1w), x2w), z2w) in x1b
        .by_ref()
        .zip(z1b.by_ref())
        .zip(x2b.by_ref())
        .zip(z2b.by_ref())
    {
        let x1v = W4::load(x1w);
        let z1v = W4::load(z1w);
        let x2v = W4::load(x2w);
        let z2v = W4::load(z2w);
        let newx = x1v ^ x2v;
        let newz = z1v ^ z2v;
        let x1z2 = x1v & z2v;
        let anti = (z1v & x2v) ^ x1z2;
        c2 = c2 ^ ((c1 ^ newx ^ newz ^ x1z2) & anti);
        c1 = c1 ^ anti;
        newx.store(x2w);
        newz.store(z2w);
    }
    let mut cnt1 = 0u64;
    let mut cnt2 = 0u64;
    for (((&x1w, &z1w), x2w), z2w) in x1b
        .remainder()
        .iter()
        .zip(z1b.remainder())
        .zip(x2b.into_remainder())
        .zip(z2b.into_remainder())
    {
        let newx = x1w ^ *x2w;
        let newz = z1w ^ *z2w;
        let x1z2 = x1w & *z2w;
        let anti = (z1w & *x2w) ^ x1z2;
        cnt2 ^= (cnt1 ^ newx ^ newz ^ x1z2) & anti;
        cnt1 ^= anti;
        *x2w = newx;
        *z2w = newz;
    }
    let ones = c1.count_ones() + cnt1.count_ones();
    let twos = c2.count_ones() + cnt2.count_ones();
    ((ones + 2 * twos) % 4) as u8
}

/// Positions `0..n` of `n` pairwise-distinct keys of one width in
/// ascending [`Bits`] order, given each key's first word (`first(i)`, `0`
/// for a zero-width key) and a comparison of two whole keys by position
/// (`cmp(a, b)`).
///
/// The outcome-ordering kernel behind every sorted emission. `Bits` of
/// one width compare by their words from word 0, so the first word decides
/// the order unless two keys share it. The `(first word, position)` pairs
/// are sorted on their own, in one array, and `cmp` only orders the runs
/// of equal first words — which keys of at most 64 bits never form — so
/// the bulk of the sort never follows a key anywhere else in memory.
pub fn sort_by_first_word(
    n: usize,
    first: impl Fn(usize) -> u64,
    mut cmp: impl FnMut(u32, u32) -> std::cmp::Ordering,
) -> Vec<u32> {
    let mut pairs: Vec<(u64, u32)> = (0..n).map(|i| (first(i), i as u32)).collect();
    // Order inside a run of equal first words is left to `cmp` below.
    pairs.sort_unstable_by_key(|&(first, _)| first);
    for run in pairs.chunk_by_mut(|a, b| a.0 == b.0) {
        if run.len() > 1 {
            run.sort_unstable_by(|a, b| cmp(a.1, b.1));
        }
    }
    pairs.into_iter().map(|(_, i)| i).collect()
}

/// A precompiled index list for repeated [`Bits::extract`] /
/// [`Bits::scatter_into`] over the same positions.
///
/// The cutting pipeline extracts the same index lists (a fragment's
/// circuit-output positions, its global qubit positions) once per sampled
/// outcome and once per fragment entry; a plan hoists the bounds checks
/// and the index arithmetic out of those hot loops.
///
/// The list is stored as maximal `Run`s: stretches where consecutive
/// plan positions map to consecutive domain positions, each at most 64
/// bits long. A run moves as one masked, funnel-shifted word, so a
/// contiguous index list costs one word operation per 64 bits instead of
/// one per bit; a permuted list degrades to one-bit runs. When both the
/// domain and the plan fit in one word, [`IndexPlan::extract_into`] is a
/// branch-free shift-and-mask per run.
#[derive(Clone, Debug)]
pub struct IndexPlan {
    domain_len: usize,
    len: usize,
    runs: Vec<Run>,
}

/// `mask.count_ones()` consecutive plan positions starting at bit `pos`
/// that map to consecutive domain positions starting at bit `dom`.
#[derive(Clone, Copy, Debug)]
struct Run {
    /// The low `len` bits set (`1 ≤ len ≤ 64`).
    mask: u64,
    dom: u32,
    pos: u32,
    len: u32,
}

/// The `len` bits of `words` starting at bit `at` (a funnel shift across
/// at most two words), masked by `mask`.
#[inline]
fn read_run(words: &[u64], at: usize, len: u32, mask: u64) -> u64 {
    let (w, s) = (at >> 6, (at & 63) as u32);
    let mut v = words[w] >> s;
    if s + len > 64 {
        v |= words[w + 1] << (64 - s);
    }
    v & mask
}

/// Overwrites the `len` bits of `words` starting at bit `at` with `v`
/// (already masked by `mask`), leaving every other bit untouched.
#[inline]
fn write_run(words: &mut [u64], at: usize, len: u32, mask: u64, v: u64) {
    let (w, s) = (at >> 6, (at & 63) as u32);
    words[w] = (words[w] & !(mask << s)) | (v << s);
    if s + len > 64 {
        let spill = 64 - s;
        words[w + 1] = (words[w + 1] & !(mask >> spill)) | (v >> spill);
    }
}

impl IndexPlan {
    /// Builds a plan for `indices` into bitstrings of length `domain_len`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn new(indices: &[usize], domain_len: usize) -> Self {
        let mut runs: Vec<Run> = Vec::new();
        for (k, &i) in indices.iter().enumerate() {
            assert!(i < domain_len, "bit index {i} out of range {domain_len}");
            match runs.last_mut() {
                Some(r) if r.len < 64 && r.dom as usize + r.len as usize == i => {
                    r.len += 1;
                    r.mask = (r.mask << 1) | 1;
                }
                _ => runs.push(Run {
                    mask: 1,
                    dom: i as u32,
                    pos: k as u32,
                    len: 1,
                }),
            }
        }
        IndexPlan {
            domain_len,
            len: indices.len(),
            runs,
        }
    }

    /// Number of planned indices.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the plan covers no indices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Equivalent of `src.extract(indices)` using the precomputed runs.
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` differs from the plan's domain length.
    pub fn extract(&self, src: &Bits) -> Bits {
        let mut out = Bits::zeros(self.len());
        self.extract_into(src, &mut out);
        out
    }

    /// [`IndexPlan::extract`] into a caller-provided scratch bitstring,
    /// reusing its allocation: `out` is resized to the plan length and
    /// every word is overwritten. The hot accumulation loops of the
    /// evaluation stage call this once per observed outcome, so reusing
    /// one scratch `Bits` removes a heap allocation per data entry.
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` differs from the plan's domain length.
    pub fn extract_into(&self, src: &Bits, out: &mut Bits) {
        assert_eq!(src.len, self.domain_len, "domain length mismatch");
        out.len = self.len;
        out.words.clear();
        if self.len == 0 {
            return;
        }
        if self.domain_len <= 64 && self.len <= 64 {
            // Both sides are one word, so no run crosses a word boundary.
            let w = src.words[0];
            let mut acc = 0u64;
            for r in &self.runs {
                acc |= ((w >> r.dom) & r.mask) << r.pos;
            }
            out.words.push(acc);
            return;
        }
        // Plan positions are distinct, so each run writes bits no other
        // run touches and the zeroed words need no per-run clearing.
        out.words.resize(self.len.div_ceil(64), 0);
        for r in &self.runs {
            let v = read_run(&src.words, r.dom as usize, r.len, r.mask);
            let (w, s) = (r.pos as usize >> 6, r.pos & 63);
            out.words[w] |= v << s;
            if s + r.len > 64 {
                out.words[w + 1] |= v >> (64 - s);
            }
        }
    }

    /// Equivalent of `src.scatter_into(indices, target)` using the
    /// precomputed runs. Runs apply in plan order, so a repeated index
    /// keeps the last write, as in the per-bit loop.
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` differs from the plan length or `target.len()`
    /// from the plan's domain length.
    pub fn scatter_into(&self, src: &Bits, target: &mut Bits) {
        assert_eq!(src.len, self.len, "source length mismatch");
        assert_eq!(target.len, self.domain_len, "domain length mismatch");
        for r in &self.runs {
            let v = read_run(&src.words, r.pos as usize, r.len, r.mask);
            write_run(&mut target.words, r.dom as usize, r.len, r.mask, v);
        }
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bits(\"{self}\")")
    }
}

impl FromIterator<bool> for Bits {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bools: Vec<bool> = iter.into_iter().collect();
        Bits::from_bools(&bools)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_flip() {
        let mut b = Bits::zeros(130);
        assert_eq!(b.count_ones(), 0);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(63) && !b.get(128));
        assert_eq!(b.count_ones(), 3);
        b.flip(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn display_roundtrip() {
        let b = Bits::parse("0110010").unwrap();
        assert_eq!(b.to_string(), "0110010");
        assert_eq!(b.len(), 7);
        assert!(Bits::parse("01x").is_none());
    }

    #[test]
    fn from_u64_bit_order() {
        let b = Bits::from_u64(0b1101, 4);
        // bit 0 of value -> bit 0 of string (leftmost)
        assert_eq!(b.to_string(), "1011");
        assert_eq!(b.to_u64(), Some(0b1101));
    }

    #[test]
    fn xor_and_dot() {
        let a = Bits::parse("1100").unwrap();
        let b = Bits::parse("1010").unwrap();
        let mut c = a.clone();
        c.xor_assign(&b);
        assert_eq!(c.to_string(), "0110");
        // dot = parity of AND = parity of "1000" = 1
        assert!(a.dot(&b));
        assert!(!a.dot(&a.clone()) ^ (a.count_ones() % 2 == 1));
    }

    #[test]
    fn extract_and_scatter() {
        let b = Bits::parse("10110").unwrap();
        let e = b.extract(&[4, 0, 2]);
        assert_eq!(e.to_string(), "011");
        let s = e.scatter(&[1, 3, 5], 7);
        assert_eq!(s.to_string(), "0001010");
    }

    #[test]
    fn concat_orders_low_then_high() {
        let a = Bits::parse("10").unwrap();
        let b = Bits::parse("011").unwrap();
        assert_eq!(a.concat(&b).to_string(), "10011");
    }

    #[test]
    fn hash_eq_in_map() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(Bits::parse("01").unwrap(), 1.0);
        *m.entry(Bits::parse("01").unwrap()).or_insert(0.0) += 1.0;
        assert_eq!(m.len(), 1);
        assert_eq!(m[&Bits::parse("01").unwrap()], 2.0);
    }

    #[test]
    fn empty_bits() {
        let b = Bits::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.to_string(), "");
        assert_eq!(b.to_u64(), Some(0));
        let c = b.concat(&Bits::parse("1").unwrap());
        assert_eq!(c.to_string(), "1");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let b = Bits::zeros(3);
        let _ = b.get(3);
    }

    /// Bit-at-a-time reference implementations the word-level kernels are
    /// checked against.
    mod reference {
        use super::Bits;

        pub fn extract(src: &Bits, indices: &[usize]) -> Bits {
            let mut out = Bits::zeros(indices.len());
            for (k, &i) in indices.iter().enumerate() {
                out.set(k, src.get(i));
            }
            out
        }

        pub fn concat(a: &Bits, b: &Bits) -> Bits {
            let mut out = Bits::zeros(a.len() + b.len());
            for i in 0..a.len() {
                out.set(i, a.get(i));
            }
            for i in 0..b.len() {
                out.set(a.len() + i, b.get(i));
            }
            out
        }

        pub fn scatter_into(src: &Bits, positions: &[usize], target: &mut Bits) {
            for (k, &p) in positions.iter().enumerate() {
                target.set(p, src.get(k));
            }
        }
    }

    fn patterned(len: usize, seed: u64) -> Bits {
        let mut b = Bits::zeros(len);
        let mut x = seed | 1;
        for i in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.set(i, x >> 63 == 1);
        }
        b
    }

    #[test]
    fn word_level_kernels_match_reference_across_boundaries() {
        for &len in &[1usize, 7, 63, 64, 65, 127, 128, 130, 200] {
            let src = patterned(len, len as u64);
            // Strided + reversed index lists exercise unordered access.
            let indices: Vec<usize> = (0..len).step_by(3).collect();
            let rev: Vec<usize> = (0..len).rev().step_by(2).collect();
            for idx in [&indices, &rev] {
                assert_eq!(
                    src.extract(idx),
                    reference::extract(&src, idx),
                    "extract len {len}"
                );
                let small = patterned(idx.len(), 99 + len as u64);
                let mut a = patterned(len, 7);
                let mut b = a.clone();
                small.scatter_into(idx, &mut a);
                reference::scatter_into(&small, idx, &mut b);
                assert_eq!(a, b, "scatter_into len {len}");
                assert_eq!(
                    small.scatter(idx, len),
                    {
                        let mut z = Bits::zeros(len);
                        reference::scatter_into(&small, idx, &mut z);
                        z
                    },
                    "scatter len {len}"
                );
            }
        }
    }

    #[test]
    fn concat_matches_reference_across_boundaries() {
        for &la in &[0usize, 1, 63, 64, 65, 130] {
            for &lb in &[0usize, 1, 63, 64, 65, 130] {
                let a = patterned(la, la as u64 + 1);
                let b = patterned(lb, lb as u64 + 2);
                assert_eq!(a.concat(&b), reference::concat(&a, &b), "concat {la}+{lb}");
            }
        }
    }

    #[test]
    fn index_plan_matches_direct_kernels() {
        let src = patterned(130, 5);
        let indices: Vec<usize> = vec![0, 63, 64, 65, 129, 1, 128];
        let plan = IndexPlan::new(&indices, 130);
        assert_eq!(plan.len(), indices.len());
        assert!(!plan.is_empty());
        assert_eq!(plan.extract(&src), src.extract(&indices));
        let small = patterned(indices.len(), 11);
        let mut a = patterned(130, 17);
        let mut b = a.clone();
        plan.scatter_into(&small, &mut a);
        small.scatter_into(&indices, &mut b);
        assert_eq!(a, b);
    }

    /// Random index lists mixing ascending runs longer than 64 bits, runs
    /// across bits 63/64 and 127/128, descending, permuted and repeated
    /// indices, over domains of 1 to 300 bits: the plan's runs must match
    /// the per-bit reference on extract (into a scratch that held a longer
    /// string before) and on scatter (where the last write of a repeated
    /// index wins).
    #[test]
    fn index_plan_runs_match_per_bit_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let mut domains = vec![1usize, 2, 63, 64, 65, 127, 128, 129, 200, 300];
        domains.extend((0..40).map(|_| 1 + next(300)));
        let mut scratch = Bits::zeros(0);
        for (case, &domain) in domains.iter().enumerate() {
            for list in 0..8 {
                let mut indices: Vec<usize> = Vec::new();
                if list == 0 {
                    indices.extend(0..domain);
                }
                for _ in 0..1 + next(6) {
                    match next(5) {
                        0 => {
                            let start = next(domain);
                            let end = (start + 1 + next(150)).min(domain);
                            indices.extend(start..end);
                        }
                        1 => {
                            let edge = [64usize, 128][next(2)];
                            if edge < domain {
                                let lo = edge - 1 - next(8);
                                let hi = (edge + 1 + next(70)).min(domain);
                                indices.extend(lo..hi);
                            }
                        }
                        2 => {
                            let top = next(domain);
                            let bottom = top.saturating_sub(1 + next(20));
                            indices.extend((bottom..=top).rev());
                        }
                        3 => indices.extend((0..1 + next(10)).map(|_| next(domain))),
                        _ => {
                            for _ in 0..next(5) {
                                if !indices.is_empty() {
                                    indices.push(indices[next(indices.len())]);
                                }
                            }
                        }
                    }
                }
                let plan = IndexPlan::new(&indices, domain);
                assert_eq!(plan.len(), indices.len());
                let src = patterned(domain, (case * 8 + list) as u64);
                if list % 2 == 1 {
                    scratch = Bits::from_bools(&[true; 320]);
                }
                plan.extract_into(&src, &mut scratch);
                let want = reference::extract(&src, &indices);
                assert_eq!(scratch, want, "extract domain {domain} indices {indices:?}");
                assert_eq!(plan.extract(&src), want);
                let small = patterned(indices.len(), 31 + list as u64);
                let mut a = patterned(domain, 77 + case as u64);
                let mut b = a.clone();
                plan.scatter_into(&small, &mut a);
                reference::scatter_into(&small, &indices, &mut b);
                assert_eq!(a, b, "scatter domain {domain} indices {indices:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_plan_out_of_range_panics() {
        let _ = IndexPlan::new(&[4], 4);
    }

    #[test]
    fn extract_into_reuses_scratch_across_plan_widths() {
        // One scratch reused across plans of different lengths (shrinking,
        // growing, word-boundary, empty) must always equal a fresh extract,
        // including the zero-padding invariant of the partial word.
        let src = patterned(130, 9);
        let mut scratch = Bits::zeros(0);
        let plans: Vec<Vec<usize>> = vec![
            (0..100).collect(),
            vec![129, 0, 64],
            (0..64).collect(),
            vec![],
            (0..65).rev().collect(),
        ];
        for indices in &plans {
            let plan = IndexPlan::new(indices, 130);
            plan.extract_into(&src, &mut scratch);
            assert_eq!(scratch, plan.extract(&src), "indices {indices:?}");
            assert_eq!(scratch, src.extract(indices));
        }
        // Stale high bits from a longer previous extraction must not leak
        // into the padding of a shorter one (Ord/Eq read whole words).
        let ones = Bits::from_bools(&[true; 130]);
        let long = IndexPlan::new(&(0..128).collect::<Vec<_>>(), 130);
        long.extract_into(&ones, &mut scratch);
        let short = IndexPlan::new(&[5], 130);
        short.extract_into(&ones, &mut scratch);
        assert_eq!(scratch, Bits::from_bools(&[true]));
        assert_eq!(scratch.count_ones(), 1);
    }

    #[test]
    fn hash_u64_consistent_with_equality() {
        use std::collections::HashSet;
        // Equal values hash equally, including across construction routes.
        let a = Bits::parse("0110010").unwrap();
        let b = Bits::from_bools(&[false, true, true, false, false, true, false]);
        assert_eq!(a, b);
        assert_eq!(a.hash_u64(), b.hash_u64());
        // Same words, different length must differ (length is mixed in).
        assert_ne!(Bits::zeros(3).hash_u64(), Bits::zeros(4).hash_u64());
        // No collisions over a small dense universe (8-bit strings) and a
        // multi-word sample — a sanity floor for table quality, not a
        // universal guarantee.
        let mut seen = HashSet::new();
        for x in 0..256u64 {
            assert!(
                seen.insert(Bits::from_u64(x, 8).hash_u64()),
                "collision at {x}"
            );
        }
        let mut seen = HashSet::new();
        for s in 0..512u64 {
            // `patterned` ORs 1 into the seed, so use odd seeds only.
            let b = patterned(130, 2 * s + 1);
            assert!(seen.insert(b.hash_u64()), "collision at seed {s}");
        }
    }

    #[test]
    fn packed_kernels_match_bit_at_a_time_reference() {
        for &len in &[0usize, 1, 7, 63, 64, 65, 127, 128, 130, 200, 300] {
            let a = patterned(len, 2 * len as u64 + 1);
            let b = patterned(len, 2 * len as u64 + 5);
            // parity / dot / and_count_ones / is_zero against per-bit loops.
            let slow_parity = (0..len).filter(|&i| a.get(i)).count() % 2 == 1;
            assert_eq!(a.parity(), slow_parity, "parity len {len}");
            let slow_dot = (0..len).filter(|&i| a.get(i) && b.get(i)).count() % 2 == 1;
            assert_eq!(a.dot(&b), slow_dot, "dot len {len}");
            let slow_and = (0..len).filter(|&i| a.get(i) && b.get(i)).count() as u32;
            assert_eq!(a.and_count_ones(&b), slow_and, "and_count_ones len {len}");
            assert_eq!(a.is_zero(), a.count_ones() == 0, "is_zero len {len}");
            assert!(Bits::zeros(len).is_zero());
            let mut c = a.clone();
            c.xor_assign(&b);
            for i in 0..len {
                assert_eq!(c.get(i), a.get(i) ^ b.get(i), "xor_assign bit {i}");
            }
            c.xor_assign(&c.clone());
            assert!(c.is_zero(), "x ^ x must be zero");
            assert_eq!(c.len(), len);
        }
    }

    /// Per-qubit reference for the fused Pauli kernel: the textbook
    /// Aaronson–Gottesman `g()` phase match, accumulated qubit by qubit.
    fn reference_pauli_mul_phase(x1: &Bits, z1: &Bits, x2: &mut Bits, z2: &mut Bits) -> u8 {
        let mut ph: i32 = 0;
        for q in 0..x1.len() {
            let (a, b) = (x1.get(q), z1.get(q));
            let (c, d) = (x2.get(q), z2.get(q));
            ph += match (a, b) {
                (false, false) => 0,
                (true, true) => d as i32 - c as i32,
                (true, false) => d as i32 * (2 * c as i32 - 1),
                (false, true) => c as i32 * (1 - 2 * d as i32),
            };
            x2.set(q, a ^ c);
            z2.set(q, b ^ d);
        }
        ph.rem_euclid(4) as u8
    }

    #[test]
    fn pauli_mul_phase_matches_g_function_reference() {
        // Dense 2-qubit sweep covers every per-qubit Pauli pairing,
        // including both anticommuting orientations.
        for bits in 0..256u64 {
            let x1 = Bits::from_u64(bits & 3, 2);
            let z1 = Bits::from_u64((bits >> 2) & 3, 2);
            let mut x2 = Bits::from_u64((bits >> 4) & 3, 2);
            let mut z2 = Bits::from_u64((bits >> 6) & 3, 2);
            let mut rx2 = x2.clone();
            let mut rz2 = z2.clone();
            let got = pauli_mul_phase(&x1, &z1, &mut x2, &mut z2);
            let want = reference_pauli_mul_phase(&x1, &z1, &mut rx2, &mut rz2);
            assert_eq!(got, want, "phase mismatch at case {bits}");
            assert_eq!(x2, rx2);
            assert_eq!(z2, rz2);
        }
        // Multi-word rows exercise the cross-word carry-save accumulation.
        for &len in &[63usize, 64, 65, 130, 200] {
            for seed in 0..8u64 {
                let x1 = patterned(len, 4 * seed + 1);
                let z1 = patterned(len, 4 * seed + 3);
                let mut x2 = patterned(len, 4 * seed + 5);
                let mut z2 = patterned(len, 4 * seed + 7);
                let mut rx2 = x2.clone();
                let mut rz2 = z2.clone();
                let got = pauli_mul_phase(&x1, &z1, &mut x2, &mut z2);
                let want = reference_pauli_mul_phase(&x1, &z1, &mut rx2, &mut rz2);
                assert_eq!(got, want, "phase mismatch len {len} seed {seed}");
                assert_eq!(x2, rx2, "x mismatch len {len} seed {seed}");
                assert_eq!(z2, rz2, "z mismatch len {len} seed {seed}");
            }
        }
    }

    #[test]
    fn copy_from_reuses_allocation() {
        let src = patterned(130, 3);
        let mut dst = Bits::zeros(130);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }
}
