//! Aaronson–Gottesman tableau simulation over column-major bit-planes.
//!
//! # Layout
//!
//! The Stim-style *inverse* orientation: the tableau's `2n+1` rows
//! (destabilizers `0..n`, stabilizers `n..2n`, one scratch row) are
//! stored one **column per qubit** — qubit `q`'s X and Z bits across all
//! rows packed into `⌈(2n+1)/64⌉`-word columns held in two flat arenas,
//! plus one packed sign word-plane. A Clifford gate reads and rewrites
//! only the 2–4 columns indexed by its qubits: 2–12 word-strided column
//! ops per gate (`O(n/64)` words), independent of circuit width. All
//! column kernels run on the [`qcir::simd`] `u64×4` blocks.
//!
//! # Measurement
//!
//! The orientation trades gate cost against row operations, so
//! measurement re-creates the row view lazily:
//!
//! * **random outcome** — the collapse multiplies the pivot row into every
//!   row whose X-bit at the measured qubit is set. Instead of transposing,
//!   this runs *column-wise bit-sliced*: one pass over the `2n` columns
//!   with the pivot's per-qubit bits broadcast to all row lanes, the
//!   carry-save `i`-exponent counters of [`qcir::pauli_mul_phase_words`]
//!   kept as row-indexed planes, and a row mask (the measured X-column
//!   with the pivot pair cleared) restricting the column updates — every
//!   target row collapses in the same `O(n·n/64)` one pass costs;
//! * **deterministic outcome** — the stabilizer-product phase is
//!   order-dependent (each rowsum's phase depends on the accumulated
//!   product), so the selected stabilizer rows are extracted to row-major
//!   scratch (the lazy transpose) and folded through the
//!   [`qcir::pauli_mul_phase_words`] rowsum kernel in increasing row
//!   order.
//!
//! Pivot choice, RNG draw sites, and the support extraction
//! (`support_from_packed_rows`) define the seeded outcome streams; the
//! workspace's engine-parity integration suite pins them against a
//! frozen bit-at-a-time oracle kept under `tests/oracles/`.

use crate::packed::PackedPauli;
use crate::support::{support_from_packed_rows, AffineSupport};
use crate::NonCliffordError;
use qcir::simd::{self, W4};
use qcir::{pauli_mul_phase_words, Bits, Circuit, CliffordGate, NoiseChannel, OpKind, Qubit};
use rand::Rng;

/// Splits two distinct columns of a flat `cols × cw` word arena mutably.
#[inline]
fn col_pair_mut(arena: &mut [u64], cw: usize, a: usize, b: usize) -> (&mut [u64], &mut [u64]) {
    debug_assert_ne!(a, b, "need distinct columns");
    if a < b {
        let (lo, hi) = arena.split_at_mut(b * cw);
        (&mut lo[a * cw..(a + 1) * cw], &mut hi[..cw])
    } else {
        let (lo, hi) = arena.split_at_mut(a * cw);
        (&mut hi[..cw], &mut lo[b * cw..(b + 1) * cw])
    }
}

#[inline]
fn get_bit(plane: &[u64], i: usize) -> bool {
    (plane[i >> 6] >> (i & 63)) & 1 == 1
}

#[inline]
fn set_bit(plane: &mut [u64], i: usize, v: bool) {
    let m = 1u64 << (i & 63);
    let w = &mut plane[i >> 6];
    *w = (*w & !m) | ((v as u64) << (i & 63));
}

/// Fused CX column kernel: `signs ^= xc & zt & !(xt ^ zc)`,
/// `xt ^= xc`, `zc ^= zt` — one `u64×4`-block pass over the four
/// columns and the sign plane.
#[inline]
fn cx_cols(xc: &[u64], zc: &mut [u64], xt: &mut [u64], zt: &[u64], signs: &mut [u64]) {
    let mut xcb = xc.chunks_exact(simd::LANES);
    let mut zcb = zc.chunks_exact_mut(simd::LANES);
    let mut xtb = xt.chunks_exact_mut(simd::LANES);
    let mut ztb = zt.chunks_exact(simd::LANES);
    let mut sb = signs.chunks_exact_mut(simd::LANES);
    for ((((xcw, zcw), xtw), ztw), sw) in xcb
        .by_ref()
        .zip(zcb.by_ref())
        .zip(xtb.by_ref())
        .zip(ztb.by_ref())
        .zip(sb.by_ref())
    {
        let xcv = W4::load(xcw);
        let zcv = W4::load(zcw);
        let xtv = W4::load(xtw);
        let ztv = W4::load(ztw);
        (W4::load(sw) ^ (xcv & ztv & !(xtv ^ zcv))).store(sw);
        (xtv ^ xcv).store(xtw);
        (zcv ^ ztv).store(zcw);
    }
    for ((((xcw, zcw), xtw), ztw), sw) in xcb
        .remainder()
        .iter()
        .zip(zcb.into_remainder())
        .zip(xtb.into_remainder())
        .zip(ztb.remainder())
        .zip(sb.into_remainder())
    {
        *sw ^= xcw & ztw & !(*xtw ^ *zcw);
        *xtw ^= xcw;
        *zcw ^= ztw;
    }
}

/// Fused CZ column kernel: `signs ^= xa & xb & (za ^ zb)`, `za ^= xb`,
/// `zb ^= xa`.
#[inline]
fn cz_cols(xa: &[u64], xb: &[u64], za: &mut [u64], zb: &mut [u64], signs: &mut [u64]) {
    let mut xab = xa.chunks_exact(simd::LANES);
    let mut xbb = xb.chunks_exact(simd::LANES);
    let mut zab = za.chunks_exact_mut(simd::LANES);
    let mut zbb = zb.chunks_exact_mut(simd::LANES);
    let mut sb = signs.chunks_exact_mut(simd::LANES);
    for ((((xaw, xbw), zaw), zbw), sw) in xab
        .by_ref()
        .zip(xbb.by_ref())
        .zip(zab.by_ref())
        .zip(zbb.by_ref())
        .zip(sb.by_ref())
    {
        let xav = W4::load(xaw);
        let xbv = W4::load(xbw);
        let zav = W4::load(zaw);
        let zbv = W4::load(zbw);
        (W4::load(sw) ^ (xav & xbv & (zav ^ zbv))).store(sw);
        (zav ^ xbv).store(zaw);
        (zbv ^ xav).store(zbw);
    }
    for ((((xaw, xbw), zaw), zbw), sw) in xab
        .remainder()
        .iter()
        .zip(xbb.remainder())
        .zip(zab.into_remainder())
        .zip(zbb.into_remainder())
        .zip(sb.into_remainder())
    {
        *sw ^= xaw & xbw & (*zaw ^ *zbw);
        *zaw ^= xbw;
        *zbw ^= xaw;
    }
}

/// One column's contribution to the bit-sliced collapse: with the pivot
/// row's bits at this qubit broadcast to every row lane (`x1m`/`z1m`),
/// advance the carry-save `i`-exponent planes (`cnt1`/`cnt2`, one 2-bit
/// counter per row) and XOR the pivot's bits into the rows selected by
/// `mask`. Lanes outside `mask` accumulate garbage counters that the
/// caller never reads — only `cnt2 & mask` reaches the sign plane.
#[inline]
fn collapse_col(
    xcol: &mut [u64],
    zcol: &mut [u64],
    cnt1: &mut [u64],
    cnt2: &mut [u64],
    mask: &[u64],
    x1m: u64,
    z1m: u64,
) {
    let x1v = W4::splat(x1m);
    let z1v = W4::splat(z1m);
    let mut xb = xcol.chunks_exact_mut(simd::LANES);
    let mut zb = zcol.chunks_exact_mut(simd::LANES);
    let mut c1b = cnt1.chunks_exact_mut(simd::LANES);
    let mut c2b = cnt2.chunks_exact_mut(simd::LANES);
    let mut mb = mask.chunks_exact(simd::LANES);
    for ((((xw, zw), c1w), c2w), mw) in xb
        .by_ref()
        .zip(zb.by_ref())
        .zip(c1b.by_ref())
        .zip(c2b.by_ref())
        .zip(mb.by_ref())
    {
        let x2 = W4::load(xw);
        let z2 = W4::load(zw);
        let mv = W4::load(mw);
        let newx = x1v ^ x2;
        let newz = z1v ^ z2;
        let x1z2 = x1v & z2;
        let anti = (z1v & x2) ^ x1z2;
        let c1 = W4::load(c1w);
        (W4::load(c2w) ^ ((c1 ^ newx ^ newz ^ x1z2) & anti)).store(c2w);
        (c1 ^ anti).store(c1w);
        (x2 ^ (x1v & mv)).store(xw);
        (z2 ^ (z1v & mv)).store(zw);
    }
    for ((((xw, zw), c1w), c2w), &mw) in xb
        .into_remainder()
        .iter_mut()
        .zip(zb.into_remainder())
        .zip(c1b.into_remainder())
        .zip(c2b.into_remainder())
        .zip(mb.remainder())
    {
        let x2 = *xw;
        let z2 = *zw;
        let newx = x1m ^ x2;
        let newz = z1m ^ z2;
        let x1z2 = x1m & z2;
        let anti = (z1m & x2) ^ x1z2;
        *c2w ^= (*c1w ^ newx ^ newz ^ x1z2) & anti;
        *c1w ^= anti;
        *xw = x2 ^ (x1m & mw);
        *zw = z2 ^ (z1m & mw);
    }
}

/// A stabilizer-circuit simulator in the style of Stim (inverse,
/// column-major orientation).
///
/// Gates touch only the columns of their qubits — `O(n/64)` words per
/// gate — at the cost of row-view reconstruction during measurement (see
/// the module docs). Bulk computational-basis sampling extracts the
/// affine-subspace support of the state once (`O(n³/64)`) and then draws
/// shots in `O(n·r/64)` each — the property that lets SuperSim sample
/// 300-qubit Clifford fragments in milliseconds.
///
/// ```
/// use stabsim::TableauSim;
/// use qcir::Circuit;
/// use rand::SeedableRng;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let sim = TableauSim::run(&bell, &mut rng).unwrap();
/// for shot in sim.support().sample_many(20, &mut rng) {
///     assert!(shot.to_string() == "00" || shot.to_string() == "11");
/// }
/// ```
#[derive(Clone, Debug)]
pub struct TableauSim {
    n: usize,
    /// Words per column (`⌈(2n+1)/64⌉`): one bit per tableau row.
    cw: usize,
    /// X bit-plane arena: qubit `q`'s column occupies words
    /// `q·cw .. (q+1)·cw`; bit `r` of the column is row `r`'s X bit at
    /// `q`. Rows `0..n` destabilizers, `n..2n` stabilizers, row `2n`
    /// scratch (whose X/Z lanes stay zero: gates only XOR/AND existing
    /// content into them, and nothing ever sets them).
    xs: Vec<u64>,
    /// Z bit-plane arena, same geometry.
    zs: Vec<u64>,
    /// Sign plane: bit `r` is row `r`'s `(-1)` phase.
    signs: Vec<u64>,
    /// Collapse scratch (target-row mask + carry-save counter planes),
    /// retained across measurements to keep the hot path allocation-free.
    mask: Vec<u64>,
    cnt1: Vec<u64>,
    cnt2: Vec<u64>,
}

impl TableauSim {
    /// Creates the all-`|0⟩` state on `n` qubits.
    pub fn new(n: usize) -> Self {
        let cw = (2 * n + 1).div_ceil(64);
        let mut sim = TableauSim {
            n,
            cw,
            xs: vec![0u64; n * cw],
            zs: vec![0u64; n * cw],
            signs: vec![0u64; cw],
            mask: vec![0u64; cw],
            cnt1: vec![0u64; cw],
            cnt2: vec![0u64; cw],
        };
        for q in 0..n {
            set_bit(&mut sim.xs[q * cw..(q + 1) * cw], q, true); // destabilizer q = X_q
            set_bit(&mut sim.zs[q * cw..(q + 1) * cw], n + q, true); // stabilizer q = Z_q
        }
        sim
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    #[inline]
    fn x_col(&self, q: usize) -> &[u64] {
        &self.xs[q * self.cw..(q + 1) * self.cw]
    }

    #[inline]
    fn z_col(&self, q: usize) -> &[u64] {
        &self.zs[q * self.cw..(q + 1) * self.cw]
    }

    /// Runs a circuit from `|0…0⟩`.
    ///
    /// Noise channels are applied as a *single random Pauli trajectory*
    /// (adequate for one-shot evaluation; use
    /// [`FrameSim`](crate::FrameSim) for noisy multi-shot sampling).
    ///
    /// # Errors
    ///
    /// Returns [`NonCliffordError`] if the circuit contains a non-Clifford
    /// gate.
    pub fn run(circuit: &Circuit, rng: &mut impl Rng) -> Result<Self, NonCliffordError> {
        let mut sim = TableauSim::new(circuit.num_qubits());
        sim.run_ops(circuit, rng)?;
        Ok(sim)
    }

    /// Applies every operation of `circuit` to the current state.
    ///
    /// # Errors
    ///
    /// Returns [`NonCliffordError`] if the circuit contains a non-Clifford
    /// gate.
    pub fn run_ops(
        &mut self,
        circuit: &Circuit,
        rng: &mut impl Rng,
    ) -> Result<(), NonCliffordError> {
        for (i, op) in circuit.ops().iter().enumerate() {
            match &op.kind {
                OpKind::Gate(g) => {
                    let c = g.to_clifford().ok_or_else(|| NonCliffordError {
                        op_index: i,
                        name: g.name(),
                    })?;
                    self.apply(c, &op.qubits);
                }
                OpKind::Noise(ch) => self.apply_noise(*ch, &op.qubits, rng),
            }
        }
        Ok(())
    }

    /// Applies a Clifford gate.
    ///
    /// Column-major orientation: each gate is 2–12 word-strided ops on
    /// the 2–4 columns of its qubits plus the sign plane — `O(n/64)` per
    /// gate, independent of where the other qubits' bits sit.
    ///
    /// # Panics
    ///
    /// Panics if the qubit count does not match the gate arity or a qubit
    /// is out of range.
    pub fn apply(&mut self, gate: CliffordGate, qubits: &[Qubit]) {
        assert_eq!(qubits.len(), gate.arity(), "arity mismatch");
        for qb in qubits {
            assert!(qb.index() < self.n, "qubit out of range");
        }
        use CliffordGate as G;
        let cw = self.cw;
        match gate {
            G::I => {}
            G::X => {
                let q = qubits[0].index();
                simd::xor_into(&mut self.signs, &self.zs[q * cw..(q + 1) * cw]);
            }
            G::Y => {
                let q = qubits[0].index();
                simd::xor_into(&mut self.signs, &self.xs[q * cw..(q + 1) * cw]);
                simd::xor_into(&mut self.signs, &self.zs[q * cw..(q + 1) * cw]);
            }
            G::Z => {
                let q = qubits[0].index();
                simd::xor_into(&mut self.signs, &self.xs[q * cw..(q + 1) * cw]);
            }
            G::H => {
                let q = qubits[0].index();
                let x = &self.xs[q * cw..(q + 1) * cw];
                let z = &self.zs[q * cw..(q + 1) * cw];
                simd::and_xor_into(&mut self.signs, x, z);
                self.xs[q * cw..(q + 1) * cw].swap_with_slice(&mut self.zs[q * cw..(q + 1) * cw]);
            }
            G::S => {
                let q = qubits[0].index();
                let x = &self.xs[q * cw..(q + 1) * cw];
                let z = &mut self.zs[q * cw..(q + 1) * cw];
                simd::and_xor_into(&mut self.signs, x, z);
                simd::xor_into(z, x);
            }
            G::Sdg => {
                let q = qubits[0].index();
                let x = &self.xs[q * cw..(q + 1) * cw];
                let z = &mut self.zs[q * cw..(q + 1) * cw];
                simd::andnot_xor_into(&mut self.signs, x, z);
                simd::xor_into(z, x);
            }
            G::SqrtX => {
                let q = qubits[0].index();
                let z = &self.zs[q * cw..(q + 1) * cw];
                let x = &mut self.xs[q * cw..(q + 1) * cw];
                simd::andnot_xor_into(&mut self.signs, z, x);
                simd::xor_into(x, z);
            }
            G::SqrtXdg => {
                let q = qubits[0].index();
                let z = &self.zs[q * cw..(q + 1) * cw];
                let x = &mut self.xs[q * cw..(q + 1) * cw];
                simd::and_xor_into(&mut self.signs, z, x);
                simd::xor_into(x, z);
            }
            G::SqrtY => {
                let q = qubits[0].index();
                let x = &self.xs[q * cw..(q + 1) * cw];
                let z = &self.zs[q * cw..(q + 1) * cw];
                simd::andnot_xor_into(&mut self.signs, x, z);
                self.xs[q * cw..(q + 1) * cw].swap_with_slice(&mut self.zs[q * cw..(q + 1) * cw]);
            }
            G::SqrtYdg => {
                let q = qubits[0].index();
                let x = &self.xs[q * cw..(q + 1) * cw];
                let z = &self.zs[q * cw..(q + 1) * cw];
                simd::andnot_xor_into(&mut self.signs, z, x);
                self.xs[q * cw..(q + 1) * cw].swap_with_slice(&mut self.zs[q * cw..(q + 1) * cw]);
            }
            G::Cx => {
                let (c, t) = (qubits[0].index(), qubits[1].index());
                let (xc, xt) = col_pair_mut(&mut self.xs, cw, c, t);
                let (zc, zt) = col_pair_mut(&mut self.zs, cw, c, t);
                cx_cols(xc, zc, xt, zt, &mut self.signs);
            }
            G::Cz => {
                let (a, b) = (qubits[0].index(), qubits[1].index());
                let (xa, xb) = col_pair_mut(&mut self.xs, cw, a, b);
                let (za, zb) = col_pair_mut(&mut self.zs, cw, a, b);
                cz_cols(xa, xb, za, zb, &mut self.signs);
            }
            G::Cy => {
                self.apply(G::Sdg, &[qubits[1]]);
                self.apply(G::Cx, qubits);
                self.apply(G::S, &[qubits[1]]);
            }
            G::Swap => {
                let (a, b) = (qubits[0].index(), qubits[1].index());
                let (xa, xb) = col_pair_mut(&mut self.xs, cw, a, b);
                xa.swap_with_slice(xb);
                let (za, zb) = col_pair_mut(&mut self.zs, cw, a, b);
                za.swap_with_slice(zb);
            }
        }
    }

    /// Applies a Pauli noise channel as one random trajectory.
    pub fn apply_noise(&mut self, channel: NoiseChannel, qubits: &[Qubit], rng: &mut impl Rng) {
        use CliffordGate as G;
        match channel {
            NoiseChannel::BitFlip(p) => {
                if rng.random::<f64>() < p {
                    self.apply(G::X, qubits);
                }
            }
            NoiseChannel::PhaseFlip(p) => {
                if rng.random::<f64>() < p {
                    self.apply(G::Z, qubits);
                }
            }
            NoiseChannel::YFlip(p) => {
                if rng.random::<f64>() < p {
                    self.apply(G::Y, qubits);
                }
            }
            NoiseChannel::Depolarize1(p) => {
                if rng.random::<f64>() < p {
                    let g = [G::X, G::Y, G::Z][rng.random_range(0..3)];
                    self.apply(g, qubits);
                }
            }
            NoiseChannel::Depolarize2(p) => {
                if rng.random::<f64>() < p {
                    let k = rng.random_range(1..16u8);
                    for (bit_pos, q) in [(0u8, qubits[0]), (2u8, qubits[1])] {
                        match (k >> bit_pos) & 0b11 {
                            0b01 => self.apply(G::X, &[q]),
                            0b10 => self.apply(G::Z, &[q]),
                            0b11 => self.apply(G::Y, &[q]),
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    /// First stabilizer row (`n..2n`) with an X bit at qubit `q`: one
    /// masked word scan down the qubit's X column.
    fn first_stab_x(&self, q: usize) -> Option<usize> {
        let n = self.n;
        if n == 0 {
            return None;
        }
        let col = self.x_col(q);
        for k in (n >> 6)..=((2 * n - 1) >> 6) {
            let lo = 64 * k;
            let mut w = col[k];
            if n > lo {
                w &= u64::MAX << (n - lo);
            }
            if 2 * n - lo < 64 {
                w &= (1u64 << (2 * n - lo)) - 1;
            }
            if w != 0 {
                return Some(lo + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The random-outcome collapse, column-wise: multiplies pivot row `p`
    /// into every row selected by the measured qubit's X column (minus
    /// the pivot pair and the scratch row), all rows at once per column.
    fn collapse(&mut self, p: usize, q: usize) {
        let n = self.n;
        let cw = self.cw;
        let (pw, pb) = (p >> 6, (p & 63) as u32);
        self.mask.copy_from_slice(&self.xs[q * cw..(q + 1) * cw]);
        // Row p is rewritten below, row p−n anticommutes with the pivot
        // (its product would pick up an imaginary phase) and is
        // overwritten by the pivot copy anyway, and the scratch row's
        // X/Z lanes are structurally zero — cleared defensively.
        set_bit(&mut self.mask, p, false);
        set_bit(&mut self.mask, p - n, false);
        set_bit(&mut self.mask, 2 * n, false);
        self.cnt1.fill(0);
        self.cnt2.fill(0);
        {
            let mask = &self.mask;
            let cnt1 = &mut self.cnt1;
            let cnt2 = &mut self.cnt2;
            for j in 0..n {
                let xcol = &mut self.xs[j * cw..(j + 1) * cw];
                let x1 = (xcol[pw] >> pb) & 1;
                let zcol = &mut self.zs[j * cw..(j + 1) * cw];
                let z1 = (zcol[pw] >> pb) & 1;
                if x1 | z1 == 0 {
                    // Pivot is identity at qubit j: no phase contribution,
                    // no column change.
                    continue;
                }
                collapse_col(
                    xcol,
                    zcol,
                    cnt1,
                    cnt2,
                    mask,
                    0u64.wrapping_sub(x1),
                    0u64.wrapping_sub(z1),
                );
            }
        }
        // Fold the counters into the sign plane: per selected row,
        // g = cnt1 + 2·cnt2 (mod 4) must be real (cnt1 = 0), and the new
        // sign is s_r ⊕ s_p ⊕ cnt2.
        let spm = 0u64.wrapping_sub(get_bit(&self.signs, p) as u64);
        for k in 0..cw {
            debug_assert_eq!(
                self.cnt1[k] & self.mask[k],
                0,
                "rowsum produced imaginary phase"
            );
            self.signs[k] ^= (self.cnt2[k] ^ spm) & self.mask[k];
        }
        // copy_row(p → p−n) + clear_row(p), column-wise: one bit
        // read/rewrite per column.
        let d = p - n;
        let (dw, db) = (d >> 6, d & 63);
        for arena in [&mut self.xs, &mut self.zs] {
            for j in 0..n {
                let col = &mut arena[j * cw..(j + 1) * cw];
                let bit = (col[pw] >> pb) & 1;
                col[dw] = (col[dw] & !(1u64 << db)) | (bit << db);
                col[pw] &= !(1u64 << pb);
            }
        }
        let sp = (self.signs[pw] >> pb) & 1;
        self.signs[dw] = (self.signs[dw] & !(1u64 << db)) | (sp << db);
        self.signs[pw] &= !(1u64 << pb);
    }

    /// Extracts row `r`'s X/Z bits into row-major word scratch
    /// (`⌈n/64⌉` words) — the lazy transpose the deterministic
    /// measurement branch and the row-extraction APIs pay.
    fn extract_row(&self, r: usize, xrow: &mut [u64], zrow: &mut [u64]) {
        let cw = self.cw;
        let (rw, rb) = (r >> 6, (r & 63) as u32);
        let mut accx = 0u64;
        let mut accz = 0u64;
        let mut w = 0;
        for j in 0..self.n {
            accx |= ((self.xs[j * cw + rw] >> rb) & 1) << (j & 63);
            accz |= ((self.zs[j * cw + rw] >> rb) & 1) << (j & 63);
            if j & 63 == 63 {
                xrow[w] = accx;
                zrow[w] = accz;
                accx = 0;
                accz = 0;
                w += 1;
            }
        }
        if self.n & 63 != 0 {
            xrow[w] = accx;
            zrow[w] = accz;
        }
    }

    /// Deterministic-outcome branch: folds the stabilizer rows selected
    /// by the destabilizer X column through the row-major rowsum kernel,
    /// in increasing row order (the phase recurrence is order-dependent).
    fn deterministic_measure(&self, q: usize) -> bool {
        let n = self.n;
        let bw = n.div_ceil(64);
        let mut xacc = vec![0u64; bw];
        let mut zacc = vec![0u64; bw];
        let mut xrow = vec![0u64; bw];
        let mut zrow = vec![0u64; bw];
        let xq = self.x_col(q);
        let mut sign = 0u32;
        for i in 0..n {
            if !get_bit(xq, i) {
                continue;
            }
            self.extract_row(n + i, &mut xrow, &mut zrow);
            let g = pauli_mul_phase_words(&xrow, &zrow, &mut xacc, &mut zacc) as u32;
            let ph = (2 * (sign + get_bit(&self.signs, n + i) as u32) + g) % 4;
            debug_assert!(ph == 0 || ph == 2, "rowsum produced imaginary phase");
            sign = (ph == 2) as u32;
        }
        sign == 1
    }

    /// Measures qubit `q` in the computational basis, collapsing the state.
    ///
    /// Returns the outcome bit. Random outcomes draw one boolean from
    /// `rng`; deterministic outcomes draw nothing.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn measure(&mut self, q: usize, rng: &mut impl Rng) -> bool {
        assert!(q < self.n, "qubit out of range");
        let cw = self.cw;
        if let Some(p) = self.first_stab_x(q) {
            self.collapse(p, q);
            let outcome: bool = rng.random();
            set_bit(&mut self.zs[q * cw..(q + 1) * cw], p, true);
            set_bit(&mut self.signs, p, outcome);
            outcome
        } else {
            self.deterministic_measure(q)
        }
    }

    /// Extracts row `row` of the tableau as a packed Pauli.
    fn row_pauli(&self, row: usize) -> PackedPauli {
        let bw = self.n.div_ceil(64);
        let mut xrow = vec![0u64; bw];
        let mut zrow = vec![0u64; bw];
        self.extract_row(row, &mut xrow, &mut zrow);
        let mut out = PackedPauli::identity(self.n);
        out.x.copy_from_words(&xrow);
        out.z.copy_from_words(&zrow);
        // Y = i·X·Z per (1,1) qubit: the i-exponent is the Y count mod 4.
        let ys = out.x.and_count_ones(&out.z) % 4;
        out.k = ((2 * get_bit(&self.signs, row) as u32 + ys) % 4) as u8;
        out
    }

    /// The current stabilizer generators as phase-tracked Pauli strings.
    pub fn stabilizers(&self) -> Vec<qcir::PauliString> {
        (self.n..2 * self.n)
            .map(|r| self.row_pauli(r).to_string_form())
            .collect()
    }

    /// The current destabilizer generators.
    pub fn destabilizers(&self) -> Vec<qcir::PauliString> {
        (0..self.n)
            .map(|r| self.row_pauli(r).to_string_form())
            .collect()
    }

    /// Exact expectation value `⟨ψ|P|ψ⟩ ∈ {-1, 0, +1}` of a Pauli string.
    ///
    /// The commutation screen runs column-wise: one pass over the `2n`
    /// columns XOR-accumulates an anticommutation bit-plane for *all*
    /// rows at once (`acc ^= x_col·P.z[j] ⊕ z_col·P.x[j]`), `O(n·n/64)`
    /// total. Only the rows that participate in the membership product
    /// are then extracted.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != num_qubits` or the string carries an
    /// imaginary phase (non-Hermitian operator).
    pub fn expectation(&self, p: &qcir::PauliString) -> i32 {
        assert_eq!(p.len(), self.n, "operator width mismatch");
        assert!(p.phase() % 2 == 0, "non-Hermitian Pauli operator");
        let target = PackedPauli::from_string(p);
        let n = self.n;
        let cw = self.cw;
        let mut anti = vec![0u64; cw];
        for j in 0..n {
            if target.z.get(j) {
                simd::xor_into(&mut anti, self.x_col(j));
            }
            if target.x.get(j) {
                simd::xor_into(&mut anti, self.z_col(j));
            }
        }
        // ⟨P⟩ = 0 unless P commutes with every stabilizer generator.
        for r in n..2 * n {
            if get_bit(&anti, r) {
                return 0;
            }
        }
        // P = ± Π of the stabilizers paired with anticommuting
        // destabilizers.
        let mut product = PackedPauli::identity(n);
        for i in 0..n {
            if get_bit(&anti, i) {
                product.mul_assign(&self.row_pauli(n + i));
            }
        }
        debug_assert_eq!(product.x, target.x, "membership reconstruction failed");
        debug_assert_eq!(product.z, target.z, "membership reconstruction failed");
        let k_diff = (4 + product.k - target.k) % 4;
        debug_assert!(k_diff % 2 == 0);
        if k_diff == 0 {
            1
        } else {
            -1
        }
    }

    /// The affine-subspace support of the computational-basis measurement
    /// distribution.
    ///
    /// The distribution of measuring all qubits of a stabilizer state is
    /// uniform over `base ⊕ span(directions)`. The stabilizer rows are
    /// extracted to row-major form (the lazy transpose, `O(n²/64)`) and
    /// Gaussian-eliminated once (`O(n³/64)`), which makes bulk sampling
    /// cheap.
    pub fn support(&self) -> AffineSupport {
        let n = self.n;
        let rows: Vec<PackedPauli> = (n..2 * n).map(|r| self.row_pauli(r)).collect();
        support_from_packed_rows(n, rows)
    }

    /// Convenience: samples `shots` full computational-basis measurements
    /// without collapsing the state.
    pub fn sample_all(&self, shots: usize, rng: &mut impl Rng) -> Vec<Bits> {
        self.support().sample_many(shots, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::{Circuit, PauliString};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn fresh_state_measures_zero() {
        let mut sim = TableauSim::new(3);
        let mut r = rng();
        for q in 0..3 {
            assert!(!sim.measure(q, &mut r));
        }
    }

    #[test]
    fn x_flips_measurement() {
        let mut sim = TableauSim::new(2);
        sim.apply(CliffordGate::X, &[Qubit(1)]);
        let mut r = rng();
        assert!(!sim.measure(0, &mut r));
        assert!(sim.measure(1, &mut r));
    }

    #[test]
    fn bell_state_correlations() {
        let mut r = rng();
        for _ in 0..20 {
            let mut sim = TableauSim::new(2);
            sim.apply(CliffordGate::H, &[Qubit(0)]);
            sim.apply(CliffordGate::Cx, &[Qubit(0), Qubit(1)]);
            let a = sim.measure(0, &mut r);
            let b = sim.measure(1, &mut r);
            assert_eq!(a, b, "Bell outcomes must correlate");
        }
    }

    #[test]
    fn repeated_measurement_is_stable() {
        let mut r = rng();
        let mut sim = TableauSim::new(1);
        sim.apply(CliffordGate::H, &[Qubit(0)]);
        let first = sim.measure(0, &mut r);
        for _ in 0..5 {
            assert_eq!(sim.measure(0, &mut r), first);
        }
    }

    #[test]
    fn bell_expectations() {
        let mut sim = TableauSim::new(2);
        sim.apply(CliffordGate::H, &[Qubit(0)]);
        sim.apply(CliffordGate::Cx, &[Qubit(0), Qubit(1)]);
        let exp = |s: &str| sim.expectation(&PauliString::parse(s).unwrap());
        assert_eq!(exp("XX"), 1);
        assert_eq!(exp("ZZ"), 1);
        assert_eq!(exp("YY"), -1);
        assert_eq!(exp("ZI"), 0);
        assert_eq!(exp("IX"), 0);
        assert_eq!(exp("II"), 1);
    }

    #[test]
    fn expectation_tracks_signs() {
        let mut sim = TableauSim::new(1);
        sim.apply(CliffordGate::X, &[Qubit(0)]);
        assert_eq!(sim.expectation(&PauliString::parse("Z").unwrap()), -1);
        let mut sim = TableauSim::new(1);
        sim.apply(CliffordGate::H, &[Qubit(0)]);
        assert_eq!(sim.expectation(&PauliString::parse("X").unwrap()), 1);
        sim.apply(CliffordGate::Z, &[Qubit(0)]);
        assert_eq!(sim.expectation(&PauliString::parse("X").unwrap()), -1);
        // |i⟩ state: S·H|0⟩ has ⟨Y⟩ = +1.
        let mut sim = TableauSim::new(1);
        sim.apply(CliffordGate::H, &[Qubit(0)]);
        sim.apply(CliffordGate::S, &[Qubit(0)]);
        assert_eq!(sim.expectation(&PauliString::parse("Y").unwrap()), 1);
        assert_eq!(sim.expectation(&PauliString::parse("X").unwrap()), 0);
    }

    /// Every point of a support, in enumeration order.
    fn points(sup: &AffineSupport) -> Vec<Bits> {
        let mut out = Vec::new();
        sup.enumerate_into(&mut Bits::zeros(0), |b| out.push(b.clone()));
        out
    }

    #[test]
    fn support_of_bell_state() {
        let mut r = rng();
        let mut bell = Circuit::new(2);
        bell.h(0).cx(0, 1);
        let sim = TableauSim::run(&bell, &mut r).unwrap();
        let sup = sim.support();
        assert_eq!(sup.dim(), 1);
        let points: Vec<String> = points(&sup).iter().map(|b| b.to_string()).collect();
        assert!(points.contains(&"00".to_string()));
        assert!(points.contains(&"11".to_string()));
        assert!(sup.contains(&Bits::parse("11").unwrap()));
        assert!(!sup.contains(&Bits::parse("10").unwrap()));
    }

    #[test]
    fn support_of_ghz_and_sampling() {
        let mut r = rng();
        let mut ghz = Circuit::new(5);
        ghz.h(0);
        for q in 1..5 {
            ghz.cx(q - 1, q);
        }
        let sim = TableauSim::run(&ghz, &mut r).unwrap();
        let sup = sim.support();
        assert_eq!(sup.dim(), 1);
        let mut seen = std::collections::HashSet::new();
        for s in sup.sample_many(200, &mut r) {
            let t = s.to_string();
            assert!(t == "00000" || t == "11111", "bad GHZ sample {t}");
            seen.insert(t);
        }
        assert_eq!(seen.len(), 2, "both GHZ branches should appear");
    }

    #[test]
    fn deterministic_circuit_support_is_single_point() {
        let mut r = rng();
        let mut c = Circuit::new(3);
        c.x(0).x(2);
        let sim = TableauSim::run(&c, &mut r).unwrap();
        let sup = sim.support();
        assert_eq!(sup.dim(), 0);
        assert_eq!(sup.base().to_string(), "101");
    }

    #[test]
    fn support_with_sign_structure() {
        // |-> state: H then Z. Distribution over {0,1} uniform still, but
        // combined with CX correlations signs must place the base correctly.
        let mut r = rng();
        let mut c = Circuit::new(2);
        c.x(0).h(0).cx(0, 1).h(0); // builds a state with a deterministic bit
        let sim = TableauSim::run(&c, &mut r).unwrap();
        let sup = sim.support();
        for s in points(&sup) {
            // Cross-check every enumerated point against collapse-based
            // measurement by replaying measurement on a clone.
            let mut clone = TableauSim::run(&c, &mut r).unwrap();
            let m: Vec<bool> = (0..2).map(|q| clone.measure(q, &mut r)).collect();
            let measured = Bits::from_bools(&m);
            assert!(
                sup.contains(&measured),
                "measured {measured} not in support {s}"
            );
        }
    }

    #[test]
    fn stabilizers_of_fresh_state() {
        let sim = TableauSim::new(2);
        let stabs: Vec<String> = sim.stabilizers().iter().map(|s| s.to_string()).collect();
        assert_eq!(stabs, vec!["+ZI", "+IZ"]);
        let destabs: Vec<String> = sim.destabilizers().iter().map(|s| s.to_string()).collect();
        assert_eq!(destabs, vec!["+XI", "+IX"]);
    }

    #[test]
    fn tableau_invariants_after_random_circuit() {
        let mut r = rng();
        for seed in 0..5u64 {
            let mut c = Circuit::new(6);
            let mut gen = StdRng::seed_from_u64(seed);
            for _ in 0..60 {
                match gen.random_range(0..5) {
                    0 => {
                        c.h(gen.random_range(0..6));
                    }
                    1 => {
                        c.s(gen.random_range(0..6));
                    }
                    2 => {
                        c.x(gen.random_range(0..6));
                    }
                    _ => {
                        let a = gen.random_range(0..6);
                        let mut b = gen.random_range(0..6);
                        if a == b {
                            b = (b + 1) % 6;
                        }
                        c.cx(a, b);
                    }
                }
            }
            let sim = TableauSim::run(&c, &mut r).unwrap();
            let stabs = sim.stabilizers();
            let destabs = sim.destabilizers();
            for i in 0..6 {
                for j in 0..6 {
                    assert!(
                        stabs[i].commutes_with(&stabs[j]),
                        "stabilizers must commute"
                    );
                    let should_commute = i != j;
                    assert_eq!(
                        destabs[i].commutes_with(&stabs[j]),
                        should_commute,
                        "destab {i} vs stab {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_clifford_circuit_rejected() {
        let mut r = rng();
        let mut c = Circuit::new(1);
        c.t(0);
        let err = TableauSim::run(&c, &mut r).unwrap_err();
        assert_eq!(err.op_index, 0);
        assert!(err.to_string().contains('T'));
    }

    #[test]
    fn noise_trajectory_deterministic_extremes() {
        let mut r = rng();
        let mut c = Circuit::new(1);
        c.add_noise(NoiseChannel::BitFlip(1.0), &[0]);
        let mut sim = TableauSim::run(&c, &mut r).unwrap();
        assert!(sim.measure(0, &mut r), "p=1 bit flip must flip");
        let mut c0 = Circuit::new(1);
        c0.add_noise(NoiseChannel::BitFlip(0.0), &[0]);
        let mut sim = TableauSim::run(&c0, &mut r).unwrap();
        assert!(!sim.measure(0, &mut r));
    }

    #[test]
    fn sample_all_matches_exact_support() {
        let mut r = rng();
        let mut c = Circuit::new(4);
        c.h(0).h(2).cx(0, 1).cz(1, 2).s(3).cx(2, 3);
        let sim = TableauSim::run(&c, &mut r).unwrap();
        let sup = sim.support();
        let points: std::collections::HashSet<String> =
            points(&sup).iter().map(|b| b.to_string()).collect();
        for s in sim.sample_all(500, &mut r) {
            assert!(points.contains(&s.to_string()), "sample outside support");
        }
    }
}
