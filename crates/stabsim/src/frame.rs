//! Pauli-frame batch simulation for noisy stabilizer sampling.
//!
//! This is the architecture Stim uses for bulk noisy sampling: one clean
//! *reference* measurement record is produced by the tableau simulator, and
//! a batch of Pauli *frames* (X/Z flip masks, one bit per shot, packed 64
//! shots per word) is propagated through the circuit. Noise channels flip
//! frame bits stochastically; final measurement outcomes are the reference
//! XOR the X-frame.
//!
//! Frames are seeded with uniformly random Z masks: a random `Z^b` on
//! `|0…0⟩` leaves the initial state invariant, but as it propagates it
//! toggles non-deterministic measurement outcomes with exactly the right
//! linear correlations, so the sampled records follow the true joint
//! distribution of the noisy circuit.

use crate::{NonCliffordError, TableauSim};
use qcir::{Bits, Circuit, CliffordGate, NoiseChannel, OpKind, Qubit};
use rand::Rng;

/// A batch of Pauli frames propagated through a Clifford circuit.
///
/// ```
/// use stabsim::FrameSim;
/// use qcir::{Circuit, NoiseChannel};
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// c.add_noise(NoiseChannel::BitFlip(0.1), &[1]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let shots = FrameSim::sample(&c, 256, &mut rng).unwrap();
/// assert_eq!(shots.len(), 256);
/// ```
#[derive(Clone, Debug)]
pub struct FrameSim {
    n: usize,
    shots: usize,
    words: usize,
    /// X-flip masks per qubit, one bit per shot.
    xs: Vec<Vec<u64>>,
    /// Z-flip masks per qubit, one bit per shot.
    zs: Vec<Vec<u64>>,
}

/// Generates a word mask whose bits are 1 with probability `p`.
fn random_mask(words: usize, bits: usize, p: f64, rng: &mut impl Rng) -> Vec<u64> {
    let mut out = vec![0u64; words];
    if p <= 0.0 {
        return out;
    }
    for b in 0..bits {
        if rng.random::<f64>() < p {
            out[b / 64] |= 1 << (b % 64);
        }
    }
    out
}

impl FrameSim {
    /// Creates a batch of `shots` frames on `n` qubits with random initial Z
    /// masks (see module docs for why).
    pub fn new(n: usize, shots: usize, rng: &mut impl Rng) -> Self {
        let words = shots.div_ceil(64).max(1);
        let tail_mask = if shots % 64 == 0 {
            u64::MAX
        } else {
            (1u64 << (shots % 64)) - 1
        };
        let mut zs = Vec::with_capacity(n);
        for _ in 0..n {
            let mut col: Vec<u64> = (0..words).map(|_| rng.random()).collect();
            if let Some(last) = col.last_mut() {
                *last &= tail_mask;
            }
            zs.push(col);
        }
        FrameSim {
            n,
            shots,
            words,
            xs: vec![vec![0u64; words]; n],
            zs,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of shots in the batch.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Propagates the frames through a Clifford gate.
    ///
    /// Signs are irrelevant for frames (a frame is an actual Pauli error;
    /// its global phase is unobservable), so the update rules are the
    /// sign-free symplectic ones.
    ///
    /// # Panics
    ///
    /// Panics on gate arity mismatch or out-of-range qubits.
    pub fn apply(&mut self, gate: CliffordGate, qubits: &[Qubit]) {
        assert_eq!(qubits.len(), gate.arity(), "arity mismatch");
        use CliffordGate as G;
        let w = self.words;
        match gate {
            G::I | G::X | G::Y | G::Z => {}
            G::H | G::SqrtY | G::SqrtYdg => {
                let q = qubits[0].index();
                std::mem::swap(&mut self.xs[q], &mut self.zs[q]);
            }
            G::S | G::Sdg => {
                let q = qubits[0].index();
                for k in 0..w {
                    self.zs[q][k] ^= self.xs[q][k];
                }
            }
            G::SqrtX | G::SqrtXdg => {
                let q = qubits[0].index();
                for k in 0..w {
                    self.xs[q][k] ^= self.zs[q][k];
                }
            }
            G::Cx => {
                let (c, t) = (qubits[0].index(), qubits[1].index());
                for k in 0..w {
                    let xc = self.xs[c][k];
                    let zt = self.zs[t][k];
                    self.xs[t][k] ^= xc;
                    self.zs[c][k] ^= zt;
                }
            }
            G::Cz => {
                let (a, b) = (qubits[0].index(), qubits[1].index());
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

    /// Applies a noise channel, flipping frame bits stochastically per shot.
    ///
    /// # Panics
    ///
    /// Panics on channel arity mismatch.
    pub fn apply_noise(&mut self, channel: NoiseChannel, qubits: &[Qubit], rng: &mut impl Rng) {
        assert_eq!(qubits.len(), channel.arity(), "arity mismatch");
        match channel {
            NoiseChannel::BitFlip(p) => {
                let q = qubits[0].index();
                let m = random_mask(self.words, self.shots, p, rng);
                for k in 0..self.words {
                    self.xs[q][k] ^= m[k];
                }
            }
            NoiseChannel::PhaseFlip(p) => {
                let q = qubits[0].index();
                let m = random_mask(self.words, self.shots, p, rng);
                for k in 0..self.words {
                    self.zs[q][k] ^= m[k];
                }
            }
            NoiseChannel::YFlip(p) => {
                let q = qubits[0].index();
                let m = random_mask(self.words, self.shots, p, rng);
                for k in 0..self.words {
                    self.xs[q][k] ^= m[k];
                    self.zs[q][k] ^= m[k];
                }
            }
            NoiseChannel::Depolarize1(p) => {
                let q = qubits[0].index();
                for shot in 0..self.shots {
                    if rng.random::<f64>() < p {
                        let which = rng.random_range(1..4u8);
                        let m = 1u64 << (shot % 64);
                        if which & 1 != 0 {
                            self.xs[q][shot / 64] ^= m;
                        }
                        if which & 2 != 0 {
                            self.zs[q][shot / 64] ^= m;
                        }
                    }
                }
            }
            NoiseChannel::Depolarize2(p) => {
                let (a, b) = (qubits[0].index(), qubits[1].index());
                for shot in 0..self.shots {
                    if rng.random::<f64>() < p {
                        let which = rng.random_range(1..16u8);
                        let m = 1u64 << (shot % 64);
                        let w = shot / 64;
                        if which & 1 != 0 {
                            self.xs[a][w] ^= m;
                        }
                        if which & 2 != 0 {
                            self.zs[a][w] ^= m;
                        }
                        if which & 4 != 0 {
                            self.xs[b][w] ^= m;
                        }
                        if which & 8 != 0 {
                            self.zs[b][w] ^= m;
                        }
                    }
                }
            }
        }
    }

    /// The X-frame bit of qubit `q` in shot `shot` (whether the measured
    /// value deviates from the reference).
    pub fn x_flip(&self, q: usize, shot: usize) -> bool {
        (self.xs[q][shot / 64] >> (shot % 64)) & 1 == 1
    }

    /// Converts the batch into measurement records given a clean reference
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics if `reference.len() != num_qubits`.
    pub fn measure_all(&self, reference: &Bits) -> Vec<Bits> {
        assert_eq!(reference.len(), self.n, "reference width mismatch");
        (0..self.shots)
            .map(|s| {
                let mut b = reference.clone();
                for q in 0..self.n {
                    if self.x_flip(q, s) {
                        b.flip(q);
                    }
                }
                b
            })
            .collect()
    }

    /// End-to-end noisy sampling of a (possibly noisy) Clifford circuit:
    /// clean tableau reference + frame propagation.
    ///
    /// # Errors
    ///
    /// Returns [`NonCliffordError`] naming the first non-Clifford gate
    /// and its index in `circuit` (noise channels counted), before any
    /// draw from `rng`.
    pub fn sample(
        circuit: &Circuit,
        shots: usize,
        rng: &mut impl Rng,
    ) -> Result<Vec<Bits>, NonCliffordError> {
        // Scan before any draw, so the index is the gate's position in
        // `circuit` (noise channels counted) and a valid circuit draws
        // exactly what it would without the scan.
        for (op_index, op) in circuit.ops().iter().enumerate() {
            if let OpKind::Gate(g) = &op.kind {
                if g.to_clifford().is_none() {
                    return Err(NonCliffordError {
                        op_index,
                        name: g.name(),
                    });
                }
            }
        }
        let clean = circuit.without_noise();
        let tab = TableauSim::run(&clean, rng)?;
        let reference = tab.support().sample(rng);

        let mut frames = FrameSim::new(circuit.num_qubits(), shots, rng);
        for op in circuit.ops() {
            match &op.kind {
                OpKind::Gate(g) => {
                    let c = g
                        .to_clifford()
                        .expect("scanned above: every gate is Clifford");
                    frames.apply(c, &op.qubits);
                }
                OpKind::Noise(ch) => frames.apply_noise(*ch, &op.qubits, rng),
            }
        }
        Ok(frames.measure_all(&reference))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn noiseless_bell_correlations_hold_per_shot() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut r = rng();
        let shots = FrameSim::sample(&c, 512, &mut r).unwrap();
        let mut zeros = 0;
        for s in &shots {
            assert_eq!(s.get(0), s.get(1), "Bell correlation violated");
            if !s.get(0) {
                zeros += 1;
            }
        }
        // Both branches should appear with roughly equal frequency.
        assert!(
            zeros > 150 && zeros < 362,
            "unbalanced Bell sampling: {zeros}"
        );
    }

    #[test]
    fn random_z_seed_spreads_nondeterministic_outcomes() {
        // |+> measured: without the random-Z trick every shot would equal
        // the reference; with it, both outcomes appear.
        let mut c = Circuit::new(1);
        c.h(0);
        let mut r = rng();
        let shots = FrameSim::sample(&c, 512, &mut r).unwrap();
        let ones: usize = shots.iter().filter(|s| s.get(0)).count();
        assert!(ones > 150 && ones < 362, "skewed |+> sampling: {ones}");
    }

    #[test]
    fn certain_bitflip_flips_every_shot() {
        let mut c = Circuit::new(1);
        c.add_noise(NoiseChannel::BitFlip(1.0), &[0]);
        let mut r = rng();
        let shots = FrameSim::sample(&c, 64, &mut r).unwrap();
        assert!(shots.iter().all(|s| s.get(0)));
    }

    #[test]
    fn phase_flip_invisible_on_z_basis_state() {
        let mut c = Circuit::new(1);
        c.add_noise(NoiseChannel::PhaseFlip(1.0), &[0]);
        let mut r = rng();
        let shots = FrameSim::sample(&c, 64, &mut r).unwrap();
        assert!(shots.iter().all(|s| !s.get(0)));
    }

    #[test]
    fn phase_flip_between_hadamards_becomes_bit_flip() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.add_noise(NoiseChannel::PhaseFlip(1.0), &[0]);
        c.h(0);
        let mut r = rng();
        let shots = FrameSim::sample(&c, 64, &mut r).unwrap();
        assert!(shots.iter().all(|s| s.get(0)));
    }

    #[test]
    fn depolarizing_rate_scales_observed_errors() {
        let p = 0.25;
        let mut c = Circuit::new(1);
        c.add_noise(NoiseChannel::BitFlip(p), &[0]);
        let mut r = rng();
        let n = 4096;
        let shots = FrameSim::sample(&c, n, &mut r).unwrap();
        let ones: usize = shots.iter().filter(|s| s.get(0)).count();
        let freq = ones as f64 / n as f64;
        assert!((freq - p).abs() < 0.03, "bit-flip rate off: {freq}");
    }

    #[test]
    fn error_propagates_through_cx() {
        // X error on control before CX infects the target.
        let mut c = Circuit::new(2);
        c.add_noise(NoiseChannel::BitFlip(1.0), &[0]);
        c.cx(0, 1);
        let mut r = rng();
        let shots = FrameSim::sample(&c, 32, &mut r).unwrap();
        assert!(shots.iter().all(|s| s.get(0) && s.get(1)));
    }

    #[test]
    fn depolarize2_hits_roughly_p() {
        let p = 0.3;
        let mut c = Circuit::new(2);
        c.add_noise(NoiseChannel::Depolarize2(p), &[0, 1]);
        let mut r = rng();
        let n = 4096;
        let shots = FrameSim::sample(&c, n, &mut r).unwrap();
        // Only X-components are visible on |00>; 8 of 15 two-qubit Paulis
        // have an X or Y on a given qubit... count any visible flip:
        // 12 of 15 non-identity Paulis flip at least one bit.
        let flipped: usize = shots.iter().filter(|s| s.get(0) || s.get(1)).count();
        let freq = flipped as f64 / n as f64;
        let expected = p * 12.0 / 15.0;
        assert!(
            (freq - expected).abs() < 0.04,
            "dep2 rate off: {freq} vs {expected}"
        );
    }

    #[test]
    fn rejects_non_clifford() {
        let mut c = Circuit::new(1);
        c.t(0);
        let mut r = rng();
        assert!(FrameSim::sample(&c, 8, &mut r).is_err());
    }

    /// The error names the gate's position in the circuit passed in, noise
    /// channels counted: in `H, BitFlip, T` the `T` is op 2.
    #[test]
    fn non_clifford_index_counts_noise_channels() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.add_noise(NoiseChannel::BitFlip(0.1), &[0]);
        c.t(0);
        let e = FrameSim::sample(&c, 8, &mut rng()).unwrap_err();
        assert_eq!((e.op_index, e.name.as_str()), (2, "T"));
    }
}
