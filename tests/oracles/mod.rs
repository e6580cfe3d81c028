//! Frozen oracles for the stabilizer stack, shared by the integration
//! suites (`mod oracles;`). Built only from `stabsim`'s public items.
//!
//! [`ReferenceTableauSim`] is the seed-era tableau — column-major
//! bit-packed storage (`xs[q]` holds qubit `q`'s column over all `2n+1`
//! rows) with `rowsum`/`copy_row`/`measure` probing one bit at a time and
//! the per-qubit `g()` phase match — kept verbatim so the parity suites
//! can assert `stabsim::TableauSim` bit-identical to it: same outcomes,
//! same seeded-RNG consumption. [`sample_frozen`] is the matching
//! per-direction sampling loop and [`sample_counts_frozen`] its ordered-map
//! tally. Do not optimize this module; its value is being frozen.

// Each suite uses its own subset of the oracle surface.
#![allow(dead_code)]

use qcir::{Bits, Circuit, CliffordGate, NoiseChannel, OpKind, Qubit};
use rand::Rng;
use stabsim::{AffineSupport, NonCliffordError, PackedPauli};
use std::collections::BTreeMap;

/// Splits two distinct columns out of a column store for simultaneous
/// mutation.
fn pair_mut(cols: &mut [Vec<u64>], a: usize, b: usize) -> (&mut Vec<u64>, &mut Vec<u64>) {
    assert_ne!(a, b, "need distinct columns");
    if a < b {
        let (lo, hi) = cols.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = cols.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[inline]
fn get_bit(v: &[u64], r: usize) -> bool {
    (v[r / 64] >> (r % 64)) & 1 == 1
}

#[inline]
fn set_bit(v: &mut [u64], r: usize, b: bool) {
    let m = 1u64 << (r % 64);
    if b {
        v[r / 64] |= m;
    } else {
        v[r / 64] &= !m;
    }
}

/// The frozen column-major, bit-at-a-time stabilizer tableau.
///
/// API-compatible with [`stabsim::TableauSim`] and guaranteed to consume
/// the RNG identically, so the two can be driven side by side from one
/// seed.
#[derive(Clone, Debug)]
pub struct ReferenceTableauSim {
    n: usize,
    /// Words per column; rows are `0..n` destabilizers, `n..2n` stabilizers,
    /// row `2n` scratch.
    words: usize,
    xs: Vec<Vec<u64>>,
    zs: Vec<Vec<u64>>,
    signs: Vec<u64>,
}

impl ReferenceTableauSim {
    /// Creates the all-`|0⟩` state on `n` qubits.
    pub fn new(n: usize) -> Self {
        let rows = 2 * n + 1;
        let words = rows.div_ceil(64).max(1);
        let mut sim = ReferenceTableauSim {
            n,
            words,
            xs: vec![vec![0u64; words]; n],
            zs: vec![vec![0u64; words]; n],
            signs: vec![0u64; words],
        };
        for q in 0..n {
            set_bit(&mut sim.xs[q], q, true); // destabilizer q = X_q
            set_bit(&mut sim.zs[q], n + q, true); // stabilizer q = Z_q
        }
        sim
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Runs a circuit from `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`NonCliffordError`] if the circuit contains a non-Clifford
    /// gate.
    pub fn run(circuit: &Circuit, rng: &mut impl Rng) -> Result<Self, NonCliffordError> {
        let mut sim = ReferenceTableauSim::new(circuit.num_qubits());
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
    /// # Panics
    ///
    /// Panics if the qubit count does not match the gate arity or a qubit is
    /// out of range.
    pub fn apply(&mut self, gate: CliffordGate, qubits: &[Qubit]) {
        assert_eq!(qubits.len(), gate.arity(), "arity mismatch");
        use CliffordGate as G;
        let w = self.words;
        match gate {
            G::I => {}
            G::X => {
                let q = qubits[0].index();
                for k in 0..w {
                    self.signs[k] ^= self.zs[q][k];
                }
            }
            G::Y => {
                let q = qubits[0].index();
                for k in 0..w {
                    self.signs[k] ^= self.xs[q][k] ^ self.zs[q][k];
                }
            }
            G::Z => {
                let q = qubits[0].index();
                for k in 0..w {
                    self.signs[k] ^= self.xs[q][k];
                }
            }
            G::H => {
                let q = qubits[0].index();
                for k in 0..w {
                    self.signs[k] ^= self.xs[q][k] & self.zs[q][k];
                }
                let (x, z) = (&mut self.xs[q], &mut self.zs[q]);
                std::mem::swap(x, z);
            }
            G::S => {
                let q = qubits[0].index();
                for k in 0..w {
                    self.signs[k] ^= self.xs[q][k] & self.zs[q][k];
                    self.zs[q][k] ^= self.xs[q][k];
                }
            }
            G::Sdg => {
                let q = qubits[0].index();
                for k in 0..w {
                    self.signs[k] ^= self.xs[q][k] & !self.zs[q][k];
                    self.zs[q][k] ^= self.xs[q][k];
                }
            }
            G::SqrtX => {
                let q = qubits[0].index();
                for k in 0..w {
                    self.signs[k] ^= self.zs[q][k] & !self.xs[q][k];
                    self.xs[q][k] ^= self.zs[q][k];
                }
            }
            G::SqrtXdg => {
                let q = qubits[0].index();
                for k in 0..w {
                    self.signs[k] ^= self.zs[q][k] & self.xs[q][k];
                    self.xs[q][k] ^= self.zs[q][k];
                }
            }
            G::SqrtY => {
                let q = qubits[0].index();
                for k in 0..w {
                    self.signs[k] ^= self.xs[q][k] & !self.zs[q][k];
                }
                std::mem::swap(&mut self.xs[q], &mut self.zs[q]);
            }
            G::SqrtYdg => {
                let q = qubits[0].index();
                for k in 0..w {
                    self.signs[k] ^= self.zs[q][k] & !self.xs[q][k];
                }
                std::mem::swap(&mut self.xs[q], &mut self.zs[q]);
            }
            G::Cx => {
                let (c, t) = (qubits[0].index(), qubits[1].index());
                for k in 0..w {
                    self.signs[k] ^=
                        self.xs[c][k] & self.zs[t][k] & !(self.xs[t][k] ^ self.zs[c][k]);
                }
                {
                    let (xc, xt) = pair_mut(&mut self.xs, c, t);
                    for k in 0..w {
                        xt[k] ^= xc[k];
                    }
                }
                let (zc, zt) = pair_mut(&mut self.zs, c, t);
                for k in 0..w {
                    zc[k] ^= zt[k];
                }
            }
            G::Cz => {
                let (a, b) = (qubits[0].index(), qubits[1].index());
                for k in 0..w {
                    self.signs[k] ^=
                        self.xs[a][k] & self.xs[b][k] & (self.zs[a][k] ^ self.zs[b][k]);
                }
                for k in 0..w {
                    let xa = self.xs[a][k];
                    let xb = self.xs[b][k];
                    self.zs[a][k] ^= xb;
                    self.zs[b][k] ^= xa;
                }
            }
            G::Cy => {
                self.apply(G::Sdg, &[qubits[1]]);
                self.apply(G::Cx, qubits);
                self.apply(G::S, &[qubits[1]]);
            }
            G::Swap => {
                let (a, b) = (qubits[0].index(), qubits[1].index());
                self.xs.swap(a, b);
                self.zs.swap(a, b);
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

    #[inline]
    fn x_bit(&self, q: usize, row: usize) -> bool {
        get_bit(&self.xs[q], row)
    }

    #[inline]
    fn z_bit(&self, q: usize, row: usize) -> bool {
        get_bit(&self.zs[q], row)
    }

    #[inline]
    fn sign_bit(&self, row: usize) -> bool {
        get_bit(&self.signs, row)
    }

    /// The Aaronson–Gottesman phase function `g` (exponent of `i`
    /// contributed when multiplying single-qubit Paulis `(x1,z1)·(x2,z2)`).
    #[inline]
    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => z2 as i32 - x2 as i32,
            (true, false) => z2 as i32 * (2 * x2 as i32 - 1),
            (false, true) => x2 as i32 * (1 - 2 * z2 as i32),
        }
    }

    /// Row operation: `row_h := row_i · row_h` with exact phase tracking,
    /// one qubit at a time.
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut ph: i32 = 2 * (self.sign_bit(h) as i32) + 2 * (self.sign_bit(i) as i32);
        for q in 0..self.n {
            let (x1, z1) = (self.x_bit(q, i), self.z_bit(q, i));
            let (x2, z2) = (self.x_bit(q, h), self.z_bit(q, h));
            ph += Self::g(x1, z1, x2, z2);
            set_bit(&mut self.xs[q], h, x1 ^ x2);
            set_bit(&mut self.zs[q], h, z1 ^ z2);
        }
        let ph = ph.rem_euclid(4);
        debug_assert!(ph == 0 || ph == 2, "rowsum produced imaginary phase");
        set_bit(&mut self.signs, h, ph == 2);
    }

    fn copy_row(&mut self, src: usize, dst: usize) {
        for q in 0..self.n {
            let x = self.x_bit(q, src);
            let z = self.z_bit(q, src);
            set_bit(&mut self.xs[q], dst, x);
            set_bit(&mut self.zs[q], dst, z);
        }
        let s = self.sign_bit(src);
        set_bit(&mut self.signs, dst, s);
    }

    fn clear_row(&mut self, row: usize) {
        for q in 0..self.n {
            set_bit(&mut self.xs[q], row, false);
            set_bit(&mut self.zs[q], row, false);
        }
        set_bit(&mut self.signs, row, false);
    }

    /// Measures qubit `q` in the computational basis, collapsing the state.
    ///
    /// Returns the outcome bit. Random outcomes draw from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn measure(&mut self, q: usize, rng: &mut impl Rng) -> bool {
        assert!(q < self.n, "qubit out of range");
        let n = self.n;
        if let Some(p) = (n..2 * n).find(|&r| self.x_bit(q, r)) {
            // Random outcome. Row p's own destabilizer partner (row p−n)
            // anticommutes with row p, so multiplying it would produce an
            // imaginary phase — but it is overwritten below anyway, so it
            // is skipped here.
            for r in 0..2 * n {
                if r != p && r != p - n && self.x_bit(q, r) {
                    self.rowsum(r, p);
                }
            }
            self.copy_row(p, p - n);
            self.clear_row(p);
            let outcome: bool = rng.random();
            set_bit(&mut self.zs[q], p, true);
            set_bit(&mut self.signs, p, outcome);
            outcome
        } else {
            // Deterministic outcome.
            let scratch = 2 * n;
            self.clear_row(scratch);
            for i in 0..n {
                if self.x_bit(q, i) {
                    self.rowsum(scratch, n + i);
                }
            }
            self.sign_bit(scratch)
        }
    }

    /// Extracts row `row` of the tableau as a packed Pauli, one bit at a
    /// time.
    fn row_pauli(&self, row: usize) -> PackedPauli {
        let mut x = Bits::zeros(self.n);
        let mut z = Bits::zeros(self.n);
        let mut ys = 0u8;
        for q in 0..self.n {
            let xb = self.x_bit(q, row);
            let zb = self.z_bit(q, row);
            x.set(q, xb);
            z.set(q, zb);
            if xb && zb {
                ys = (ys + 1) % 4;
            }
        }
        PackedPauli {
            x,
            z,
            k: (2 * self.sign_bit(row) as u8 + ys) % 4,
        }
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

    /// Exact expectation value `⟨ψ|P|ψ⟩ ∈ {-1, 0, +1}` of a Pauli string,
    /// with a fresh `row_pauli` extraction per commute check.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != num_qubits` or the string carries an imaginary
    /// phase (non-Hermitian operator).
    pub fn expectation(&self, p: &qcir::PauliString) -> i32 {
        assert_eq!(p.len(), self.n, "operator width mismatch");
        assert!(p.phase() % 2 == 0, "non-Hermitian Pauli operator");
        let target = PackedPauli::from_string(p);
        // ⟨P⟩ = 0 unless P commutes with every stabilizer generator.
        for r in self.n..2 * self.n {
            if !self.row_pauli(r).commutes_with(&target) {
                return 0;
            }
        }
        // P = ± Π of the stabilizers paired with anticommuting destabilizers.
        let mut product = PackedPauli::identity(self.n);
        for i in 0..self.n {
            if !self.row_pauli(i).commutes_with(&target) {
                product.mul_assign(&self.row_pauli(self.n + i));
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
    /// distribution: its own copy of the Gaussian elimination, fed by the
    /// bit-at-a-time `row_pauli`.
    pub fn support(&self) -> AffineSupport {
        let n = self.n;
        let mut rows: Vec<PackedPauli> = (n..2 * n).map(|r| self.row_pauli(r)).collect();

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

        let directions: Vec<Bits> = rows[..rank].iter().map(|r| r.x.clone()).collect();

        // Remaining rows are pure-Z stabilizers: (-1)^{k/2} Z^z fixes
        // z·x ≡ k/2 (mod 2) on the support.
        let mut cons: Vec<(Bits, bool)> = rows[rank..]
            .iter()
            .map(|r| {
                debug_assert!(r.is_z_type());
                debug_assert!(r.k % 2 == 0);
                (r.z.clone(), r.k % 4 == 2)
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

        AffineSupport::new(base, directions)
    }

    /// Convenience: samples `shots` full computational-basis measurements
    /// without collapsing the state.
    pub fn sample_all(&self, shots: usize, rng: &mut impl Rng) -> Vec<Bits> {
        let support = self.support();
        (0..shots).map(|_| sample_frozen(&support, rng)).collect()
    }
}

/// One draw of the per-direction sampling loop the production sampler
/// must reproduce: a fresh `u64` mask per block of 64 directions, bit `i`
/// of it XORing the block's direction `i` into the base, and no draw at
/// all when the support has no directions.
pub fn sample_frozen(support: &AffineSupport, rng: &mut impl Rng) -> Bits {
    let mut x = support.base().clone();
    for block in support.directions().chunks(64) {
        let mut mask: u64 = rng.random();
        for d in block {
            if mask & 1 == 1 {
                x.xor_assign(d);
            }
            mask >>= 1;
        }
    }
    x
}

/// `shots` draws of [`sample_frozen`] tallied in an ordered map, whose
/// iteration order is the ascending `Bits` order the production tally
/// must emit in.
pub fn sample_counts_frozen(
    support: &AffineSupport,
    shots: usize,
    rng: &mut impl Rng,
) -> BTreeMap<Bits, u64> {
    let mut counts = BTreeMap::new();
    for _ in 0..shots {
        *counts.entry(sample_frozen(support, rng)).or_insert(0) += 1;
    }
    counts
}
