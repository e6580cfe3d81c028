//! Probability distributions and fidelity metrics.
//!
//! The SuperSim paper quantifies accuracy with the Hellinger fidelity, in
//! two flavours (§VI-C):
//!
//! * on *sparse* distributions (few observed outcomes): Hellinger fidelity
//!   of the complete distributions — [`Distribution::hellinger_fidelity`];
//! * on *dense* distributions (VQA-style): the mean Hellinger fidelity of
//!   the single-qubit marginal distributions — [`mean_marginal_fidelity`].
//!
//! [`Distribution`] is a sparse map from measurement bitstrings to
//! probabilities, suitable for the few-thousand-shot records the paper
//! works with even on 300-qubit circuits. Internally it is keyed by a
//! hash-interned dense id per outcome (see [`intern`]), so accumulation is
//! `O(1)` per touch instead of an ordered-map walk with a key clone; every
//! read path still emits outcomes in lexicographic order, which keeps all
//! downstream float accumulation bit-reproducible and bit-identical to the
//! previous `BTreeMap`-keyed implementation.

pub mod intern;

pub use intern::InternPool;

use qcir::{Bits, IndexPlan};
use rand::Rng;
use std::sync::OnceLock;

/// A sparse probability distribution over measurement bitstrings.
///
/// Outcomes are interned into dense ids on first touch ([`InternPool`]);
/// probabilities live in a flat id-indexed vector. All iteration and
/// reduction APIs visit outcomes in lexicographic order, independent of
/// insertion order.
///
/// ```
/// use metrics::Distribution;
/// use qcir::Bits;
///
/// let d = Distribution::from_pairs(
///     2,
///     vec![
///         (Bits::parse("00").unwrap(), 0.5),
///         (Bits::parse("11").unwrap(), 0.5),
///     ],
/// );
/// assert!((d.prob(&Bits::parse("00").unwrap()) - 0.5).abs() < 1e-12);
/// assert_eq!(d.marginal(0), [0.5, 0.5]);
/// ```
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Distribution {
    n_bits: usize,
    pool: InternPool,
    /// `id → probability`, parallel to the pool's key list.
    probs: Vec<f64>,
    /// Lazily-computed sorted-id cache backing [`Distribution::order`];
    /// invalidated whenever the key set grows. Derived state — excluded
    /// from serialization.
    #[serde(skip)]
    order: OnceLock<Vec<u32>>,
}

impl Distribution {
    /// Creates an empty distribution over `n_bits`-bit outcomes.
    pub fn new(n_bits: usize) -> Self {
        Distribution {
            n_bits,
            pool: InternPool::new(),
            probs: Vec::new(),
            order: OnceLock::new(),
        }
    }

    /// Builds an empirical distribution from measurement samples.
    ///
    /// # Panics
    ///
    /// Panics if a sample width differs from `n_bits`.
    pub fn from_samples(n_bits: usize, samples: &[Bits]) -> Self {
        let mut d = Distribution::new(n_bits);
        if samples.is_empty() {
            return d;
        }
        let w = 1.0 / samples.len() as f64;
        for s in samples {
            d.add_ref(s, w);
        }
        d
    }

    /// Builds a distribution from `(outcome, probability)` pairs, summing
    /// duplicates.
    ///
    /// # Panics
    ///
    /// Panics if an outcome width differs from `n_bits`.
    pub fn from_pairs(n_bits: usize, pairs: Vec<(Bits, f64)>) -> Self {
        let mut d = Distribution::new(n_bits);
        for (b, p) in pairs {
            d.add(b, p);
        }
        d
    }

    /// Builds a distribution from outcomes already in strictly ascending
    /// key order (so pairwise distinct), with `probs[i]` the probability
    /// of `keys[i]`. The keys are moved, not copied, hashed once and never
    /// compared, and the read order is known without a sort.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or an outcome width differs from
    /// `n_bits`; the ordering is debug-asserted.
    pub fn from_sorted_distinct(n_bits: usize, keys: Vec<Bits>, probs: Vec<f64>) -> Self {
        assert_eq!(keys.len(), probs.len(), "one probability per outcome");
        assert!(
            keys.iter().all(|k| k.len() == n_bits),
            "outcome width mismatch"
        );
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "outcomes not strictly ascending"
        );
        let order = OnceLock::from((0..keys.len() as u32).collect::<Vec<u32>>());
        Distribution {
            n_bits,
            pool: InternPool::from_distinct(keys),
            probs,
            order,
        }
    }

    /// Number of bits per outcome.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Number of outcomes with recorded (possibly zero) probability.
    pub fn support_len(&self) -> usize {
        self.probs.len()
    }

    /// Returns `true` when no outcome has been recorded.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// The probability of an outcome (0 when absent).
    pub fn prob(&self, outcome: &Bits) -> f64 {
        self.pool
            .get(outcome)
            .map_or(0.0, |id| self.probs[id as usize])
    }

    /// Adds `p` to the probability of `outcome`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn add(&mut self, outcome: Bits, p: f64) {
        assert_eq!(outcome.len(), self.n_bits, "outcome width mismatch");
        let id = self.pool.intern_owned(outcome) as usize;
        if id == self.probs.len() {
            // First touch: start from an explicit zero so signed zeros
            // behave exactly like the former `or_insert(0.0) += p`.
            self.probs.push(0.0 + p);
            self.order.take();
        } else {
            self.probs[id] += p;
        }
    }

    /// [`Distribution::add`] without taking ownership (the outcome is
    /// cloned only on its first appearance).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn add_ref(&mut self, outcome: &Bits, p: f64) {
        assert_eq!(outcome.len(), self.n_bits, "outcome width mismatch");
        let id = self.pool.intern(outcome) as usize;
        if id == self.probs.len() {
            self.probs.push(0.0 + p);
            self.order.take();
        } else {
            self.probs[id] += p;
        }
    }

    /// Ids of the recorded outcomes in lexicographic key order — the
    /// deterministic visit order shared by every read path. Computed on
    /// first use and cached until the key set grows, so repeated reads
    /// (per-bit marginals, fidelity sweeps) sort the support once.
    fn order(&self) -> &[u32] {
        self.order.get_or_init(|| self.pool.sorted_ids())
    }

    /// Iterator over `(outcome, probability)` pairs in lexicographic
    /// outcome order (deterministic, which keeps downstream float
    /// accumulation bit-reproducible).
    pub fn iter(&self) -> impl Iterator<Item = (&Bits, f64)> + '_ {
        self.order()
            .iter()
            .map(move |&id| (self.pool.key(id), self.probs[id as usize]))
    }

    /// Sum of all recorded probabilities.
    pub fn total_mass(&self) -> f64 {
        let mut mass = 0.0;
        for &id in self.order() {
            mass += self.probs[id as usize];
        }
        mass
    }

    /// Clamps negative entries to zero and rescales to unit mass.
    ///
    /// Cut reconstruction from sampled fragment data can produce small
    /// negative quasi-probabilities; this is the standard repair. Outcomes
    /// left with zero probability are dropped from the support.
    pub fn clip_and_normalize(&mut self) {
        // Compact the surviving (positive) outcomes in place, in
        // lexicographic order, and rebuild over them; the mass is summed
        // in that order, matching the ordered-map semantics this type
        // originally had bit for bit.
        let n_bits = self.n_bits;
        let (mut keys, mut probs) = std::mem::take(self).into_sorted();
        let mut kept = 0;
        let mut mass = 0.0;
        for i in 0..keys.len() {
            let p = probs[i];
            if p > 0.0 {
                keys.swap(kept, i);
                probs[kept] = p;
                kept += 1;
                mass += p;
            }
        }
        keys.truncate(kept);
        probs.truncate(kept);
        if mass > 0.0 {
            for p in &mut probs {
                *p /= mass;
            }
        }
        *self = Distribution::from_sorted_distinct(n_bits, keys, probs);
    }

    /// The outcomes and their probabilities in lexicographic order, moved
    /// out without copying a key — and without permuting when the ids are
    /// in that order already, as [`Distribution::from_sorted_distinct`]
    /// leaves them.
    fn into_sorted(mut self) -> (Vec<Bits>, Vec<f64>) {
        let order = self.order.take().unwrap_or_else(|| self.pool.sorted_ids());
        let mut all = self.pool.into_keys();
        if order.iter().enumerate().all(|(i, &id)| id as usize == i) {
            return (all, self.probs);
        }
        let keys = order
            .iter()
            .map(|&id| std::mem::replace(&mut all[id as usize], Bits::zeros(0)))
            .collect();
        let probs = order.iter().map(|&id| self.probs[id as usize]).collect();
        (keys, probs)
    }

    /// The `[p(bit=0), p(bit=1)]` marginal of one bit position.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= n_bits`.
    pub fn marginal(&self, bit: usize) -> [f64; 2] {
        assert!(bit < self.n_bits, "bit out of range");
        let mut m = [0.0; 2];
        for &id in self.order() {
            m[self.pool.key(id).get(bit) as usize] += self.probs[id as usize];
        }
        m
    }

    /// All single-bit marginals.
    pub fn marginals(&self) -> Vec<[f64; 2]> {
        let mut out = vec![[0.0; 2]; self.n_bits];
        for &id in self.order() {
            let b = self.pool.key(id);
            let p = self.probs[id as usize];
            for (q, m) in out.iter_mut().enumerate() {
                m[b.get(q) as usize] += p;
            }
        }
        out
    }

    /// The joint marginal over a subset of bit positions (in given order).
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range.
    pub fn marginal_subset(&self, bits: &[usize]) -> Distribution {
        // One extraction plan reused across the support, instead of
        // re-deriving the word/shift tables per entry.
        let plan = IndexPlan::new(bits, self.n_bits);
        let mut d = Distribution::new(bits.len());
        for &id in self.order() {
            d.add(plan.extract(self.pool.key(id)), self.probs[id as usize]);
        }
        d
    }

    /// Hellinger fidelity `(Σ_x √(p(x)·q(x)))²` with another distribution.
    ///
    /// Negative quasi-probabilities are clamped to zero for the comparison.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn hellinger_fidelity(&self, other: &Distribution) -> f64 {
        assert_eq!(self.n_bits, other.n_bits, "width mismatch");
        let mut bc = 0.0;
        for &id in self.order() {
            let p = self.probs[id as usize];
            let q = other.prob(self.pool.key(id));
            if p > 0.0 && q > 0.0 {
                bc += (p * q).sqrt();
            }
        }
        bc * bc
    }

    /// Total-variation distance `½·Σ_x |p(x) − q(x)|`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn total_variation(&self, other: &Distribution) -> f64 {
        assert_eq!(self.n_bits, other.n_bits, "width mismatch");
        let mut tv = 0.0;
        for &id in self.order() {
            tv += (self.probs[id as usize] - other.prob(self.pool.key(id))).abs();
        }
        for &id in other.order() {
            let b = other.pool.key(id);
            if self.pool.get(b).is_none() {
                tv += other.probs[id as usize];
            }
        }
        tv / 2.0
    }

    /// Expectation value of a Z-string observable `⟨Π_{q∈subset} Z_q⟩ =
    /// Σ_x p(x)·(−1)^{parity of x over subset}`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn expectation_z(&self, subset: &[usize]) -> f64 {
        for &q in subset {
            assert!(q < self.n_bits, "bit index {q} out of range");
        }
        let mut total = 0.0;
        for &id in self.order() {
            let b = self.pool.key(id);
            let p = self.probs[id as usize];
            let parity = subset.iter().filter(|&&q| b.get(q)).count() % 2;
            total += if parity == 1 { -p } else { p };
        }
        total
    }

    /// Draws `shots` samples (requires non-negative probabilities; mass is
    /// normalized implicitly).
    ///
    /// Zero- and negative-probability entries can never be drawn: the
    /// sampler walks cumulative weights over the strictly positive support
    /// with a binary search per shot.
    ///
    /// # Panics
    ///
    /// Panics when no outcome has strictly positive probability (empty
    /// distribution, or all mass clipped to zero) — any returned outcome
    /// would be a probability-zero event.
    pub fn sample(&self, shots: usize, rng: &mut impl Rng) -> Vec<Bits> {
        // Cumulative weights over the positive support, in lexicographic
        // order so a given RNG stream maps to a deterministic sample
        // sequence.
        let mut support = Vec::new();
        let mut cum = Vec::new();
        let mut total = 0.0;
        for &id in self.order() {
            let p = self.probs[id as usize];
            if p > 0.0 {
                total += p;
                support.push(id);
                cum.push(total);
            }
        }
        assert!(
            total > 0.0,
            "sampling from a distribution with zero total probability mass"
        );
        let mut out = Vec::with_capacity(shots);
        for _ in 0..shots {
            let u = rng.random::<f64>() * total;
            // First cumulative weight ≥ u; the final clamp guards the
            // float edge where u rounds up to the total.
            let k = cum.partition_point(|&c| c < u).min(cum.len() - 1);
            out.push(self.pool.key(support[k]).clone());
        }
        out
    }
}

/// Hellinger fidelity of two binary marginals `[p0, p1]`, `[q0, q1]`.
pub fn binary_hellinger_fidelity(p: [f64; 2], q: [f64; 2]) -> f64 {
    let bc = (p[0].max(0.0) * q[0].max(0.0)).sqrt() + (p[1].max(0.0) * q[1].max(0.0)).sqrt();
    bc * bc
}

/// The paper's dense-distribution accuracy metric: the mean Hellinger
/// fidelity of single-qubit marginal distributions.
///
/// # Panics
///
/// Panics if the two marginal lists have different lengths.
pub fn mean_marginal_fidelity(a: &[[f64; 2]], b: &[[f64; 2]]) -> f64 {
    assert_eq!(a.len(), b.len(), "marginal count mismatch");
    if a.is_empty() {
        return 1.0;
    }
    let total: f64 = a
        .iter()
        .zip(b)
        .map(|(&p, &q)| binary_hellinger_fidelity(p, q))
        .sum();
    total / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(s: &str) -> Bits {
        Bits::parse(s).unwrap()
    }

    #[test]
    fn empirical_distribution_counts() {
        let samples = vec![bits("00"), bits("00"), bits("11"), bits("01")];
        let d = Distribution::from_samples(2, &samples);
        assert!((d.prob(&bits("00")) - 0.5).abs() < 1e-12);
        assert!((d.prob(&bits("11")) - 0.25).abs() < 1e-12);
        assert!((d.prob(&bits("10")) - 0.0).abs() < 1e-12);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_distributions_have_unit_fidelity() {
        let d = Distribution::from_pairs(2, vec![(bits("00"), 0.3), (bits("11"), 0.7)]);
        assert!((d.hellinger_fidelity(&d) - 1.0).abs() < 1e-12);
        assert!(d.total_variation(&d) < 1e-12);
    }

    #[test]
    fn disjoint_distributions_have_zero_fidelity() {
        let a = Distribution::from_pairs(1, vec![(bits("0"), 1.0)]);
        let b = Distribution::from_pairs(1, vec![(bits("1"), 1.0)]);
        assert_eq!(a.hellinger_fidelity(&b), 0.0);
        assert!((a.total_variation(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hellinger_known_value() {
        // p = (1/2, 1/2), q = (1, 0): BC = √(1/2) ⇒ fidelity = 1/2.
        let a = Distribution::from_pairs(1, vec![(bits("0"), 0.5), (bits("1"), 0.5)]);
        let b = Distribution::from_pairs(1, vec![(bits("0"), 1.0)]);
        assert!((a.hellinger_fidelity(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn marginals_and_subsets() {
        let d = Distribution::from_pairs(
            3,
            vec![(bits("000"), 0.25), (bits("110"), 0.25), (bits("111"), 0.5)],
        );
        assert_eq!(d.marginal(0), [0.25, 0.75]);
        assert_eq!(d.marginal(2), [0.5, 0.5]);
        let m = d.marginal_subset(&[0, 1]);
        assert!((m.prob(&bits("11")) - 0.75).abs() < 1e-12);
        assert!((m.prob(&bits("00")) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn clip_and_normalize_repairs_quasiprobabilities() {
        let mut d = Distribution::from_pairs(1, vec![(bits("0"), 0.9), (bits("1"), -0.1)]);
        d.clip_and_normalize();
        assert!((d.prob(&bits("0")) - 1.0).abs() < 1e-12);
        assert_eq!(d.prob(&bits("1")), 0.0);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_roundtrip() {
        let d = Distribution::from_pairs(2, vec![(bits("01"), 0.25), (bits("10"), 0.75)]);
        let mut rng = StdRng::seed_from_u64(11);
        let samples = d.sample(8000, &mut rng);
        let e = Distribution::from_samples(2, &samples);
        assert!(d.hellinger_fidelity(&e) > 0.999);
    }

    #[test]
    fn marginal_fidelity_metric() {
        let a = vec![[0.5, 0.5], [1.0, 0.0]];
        let b = vec![[0.5, 0.5], [1.0, 0.0]];
        assert!((mean_marginal_fidelity(&a, &b) - 1.0).abs() < 1e-12);
        let c = vec![[0.5, 0.5], [0.0, 1.0]];
        // Second qubit completely wrong: (1 + 0)/2.
        assert!((mean_marginal_fidelity(&a, &c) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn binary_hellinger_handles_clamping() {
        assert!((binary_hellinger_fidelity([1.0, 0.0], [1.0, -0.001]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn z_string_expectations() {
        // Bell-like: 00 and 11 each 1/2: <Z0 Z1> = +1, <Z0> = 0.
        let d = Distribution::from_pairs(2, vec![(bits("00"), 0.5), (bits("11"), 0.5)]);
        assert!((d.expectation_z(&[0, 1]) - 1.0).abs() < 1e-12);
        assert!(d.expectation_z(&[0]).abs() < 1e-12);
        assert!((d.expectation_z(&[]) - 1.0).abs() < 1e-12);
        // Anticorrelated: 01 and 10: <Z0 Z1> = -1.
        let a = Distribution::from_pairs(2, vec![(bits("01"), 0.5), (bits("10"), 0.5)]);
        assert!((a.expectation_z(&[0, 1]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution_behaviour() {
        let d = Distribution::new(2);
        assert!(d.is_empty());
        assert_eq!(d.total_mass(), 0.0);
        assert_eq!(d.prob(&bits("00")), 0.0);
    }

    #[test]
    fn sample_never_returns_zero_probability_outcomes() {
        // Regression: the former linear-scan sampler could return the
        // first entry on u == 0 even with p == 0, and zero-mass tails via
        // the last-entry fallback. "00" sorts first and "11" last; neither
        // may ever be drawn.
        let d = Distribution::from_pairs(
            2,
            vec![
                (bits("00"), 0.0),
                (bits("01"), 0.5),
                (bits("10"), 0.5),
                (bits("11"), 0.0),
            ],
        );
        let mut rng = StdRng::seed_from_u64(42);
        for s in d.sample(20_000, &mut rng) {
            assert!(
                s == bits("01") || s == bits("10"),
                "sampled zero-probability outcome {s}"
            );
        }
        // Negative quasi-probabilities are equally unsampleable.
        let q = Distribution::from_pairs(1, vec![(bits("0"), -0.25), (bits("1"), 1.0)]);
        for s in q.sample(5_000, &mut rng) {
            assert_eq!(s, bits("1"));
        }
    }

    #[test]
    #[should_panic(expected = "zero total probability mass")]
    fn sample_panics_on_zero_mass() {
        let d = Distribution::from_pairs(1, vec![(bits("0"), 0.0), (bits("1"), 0.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = d.sample(1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "zero total probability mass")]
    fn sample_panics_on_empty_distribution() {
        let d = Distribution::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = d.sample(1, &mut rng);
    }

    /// Reference model: the pre-intern `BTreeMap`-keyed implementation,
    /// reproduced verbatim. The interned engine must match it bit for bit
    /// on every operation that feeds float accumulation downstream.
    mod reference {
        use qcir::Bits;
        use std::collections::BTreeMap;

        #[derive(Default)]
        pub struct Model {
            pub probs: BTreeMap<Bits, f64>,
        }

        impl Model {
            pub fn add(&mut self, b: Bits, p: f64) {
                *self.probs.entry(b).or_insert(0.0) += p;
            }

            pub fn total_mass(&self) -> f64 {
                self.probs.values().sum()
            }

            pub fn marginal(&self, n_bits: usize, bit: usize) -> [f64; 2] {
                let _ = n_bits;
                let mut m = [0.0; 2];
                for (b, &p) in &self.probs {
                    m[b.get(bit) as usize] += p;
                }
                m
            }

            pub fn clip_and_normalize(&mut self) {
                self.probs.retain(|_, p| {
                    if *p < 0.0 {
                        *p = 0.0;
                    }
                    *p > 0.0
                });
                let mass = self.total_mass();
                if mass > 0.0 {
                    for p in self.probs.values_mut() {
                        *p /= mass;
                    }
                }
            }
        }
    }

    /// Property: random interleaved add/merge sequences produce a
    /// distribution bit-identical to the ordered-map reference — same
    /// support, same iteration order, same float values (no tolerance).
    #[test]
    fn interned_distribution_matches_btreemap_reference_bit_exact() {
        let n_bits = 6;
        let mut rng = StdRng::seed_from_u64(2024);
        for _case in 0..200 {
            let mut d = Distribution::new(n_bits);
            let mut model = reference::Model::default();
            // Random adds, with deliberate key reuse and signed weights.
            let ops = 1 + (rng.random::<u64>() % 64) as usize;
            for _ in 0..ops {
                let key = Bits::from_u64(rng.random::<u64>() % 16, n_bits);
                let w = (rng.random::<f64>() - 0.4) * 0.3;
                d.add(key.clone(), w);
                model.add(key, w);
            }
            // Merge a second batch through add_ref (the borrow path).
            for _ in 0..ops / 2 {
                let key = Bits::from_u64(rng.random::<u64>() % 16, n_bits);
                let w = rng.random::<f64>() * 0.1;
                d.add_ref(&key, w);
                model.add(key, w);
            }
            let check = |d: &Distribution, model: &reference::Model, stage: &str| {
                assert_eq!(d.support_len(), model.probs.len(), "{stage}: support");
                for ((db, dp), (mb, &mp)) in d.iter().zip(model.probs.iter()) {
                    assert_eq!(db, mb, "{stage}: iteration order");
                    assert!(
                        dp == mp || (dp.is_nan() && mp.is_nan()),
                        "{stage}: value at {db}: {dp} vs {mp}"
                    );
                }
                assert!(d.total_mass() == model.total_mass(), "{stage}: mass");
                for bit in 0..n_bits {
                    assert_eq!(
                        d.marginal(bit),
                        model.marginal(n_bits, bit),
                        "{stage}: marginal"
                    );
                }
            };
            check(&d, &model, "accumulated");
            d.clip_and_normalize();
            model.clip_and_normalize();
            check(&d, &model, "normalized");
        }
    }

    /// `from_sorted_distinct` and the moving `clip_and_normalize` against
    /// the ordered-map reference: random unsorted adds with repeated keys,
    /// negative values, exact zeros, all-non-positive and empty inputs, and
    /// a second clip. Iteration order and probability bits must match,
    /// `prob()` must still find every outcome, and the read order must come
    /// from the constructor instead of a sort.
    #[test]
    fn sorted_constructor_and_moving_clip_match_btreemap_reference() {
        let n_bits = 70; // two-word keys
        let mut rng = StdRng::seed_from_u64(77);
        let key = |rng: &mut StdRng| {
            let mut b = Bits::zeros(n_bits);
            for i in [0usize, 1, 2, 63, 64, 69] {
                b.set(i, rng.random::<bool>());
            }
            b
        };
        let order_is_identity = |d: &Distribution| {
            d.order
                .get()
                .is_some_and(|o| o.iter().enumerate().all(|(i, &id)| id as usize == i))
        };
        let check = |d: &Distribution, model: &reference::Model, stage: &str| {
            assert!(order_is_identity(d), "{stage}: read order was re-sorted");
            assert_eq!(d.support_len(), model.probs.len(), "{stage}: support");
            for ((db, dp), (mb, &mp)) in d.iter().zip(model.probs.iter()) {
                assert_eq!(db, mb, "{stage}: iteration order");
                assert_eq!(dp.to_bits(), mp.to_bits(), "{stage}: value at {db}");
                assert_eq!(d.prob(mb).to_bits(), mp.to_bits(), "{stage}: prob({mb})");
            }
        };
        for case in 0..120 {
            let mut d = Distribution::new(n_bits);
            let mut model = reference::Model::default();
            let ops = if case == 0 {
                0
            } else {
                rng.random::<u64>() % 40
            };
            for _ in 0..ops {
                let b = key(&mut rng);
                let w = match (case % 3, rng.random::<u64>() % 4) {
                    (0, _) => -rng.random::<f64>(), // all non-positive
                    (_, 0) => 0.0,
                    (_, 1) => -0.0,
                    _ => rng.random::<f64>() - 0.3,
                };
                d.add(b.clone(), w);
                model.add(b, w);
            }
            let (keys, probs): (Vec<Bits>, Vec<f64>) =
                model.probs.iter().map(|(b, &p)| (b.clone(), p)).unzip();
            let sorted = Distribution::from_sorted_distinct(n_bits, keys, probs);
            check(&sorted, &model, "from_sorted_distinct");
            for pass in ["first clip", "second clip"] {
                d.clip_and_normalize();
                model.clip_and_normalize();
                check(&d, &model, pass);
                let absent = key(&mut rng);
                if !model.probs.contains_key(&absent) {
                    assert_eq!(d.prob(&absent), 0.0, "{pass}: absent outcome");
                }
            }
        }
    }

    #[test]
    fn marginal_subset_matches_per_entry_extract() {
        let mut rng = StdRng::seed_from_u64(9);
        let n_bits = 70; // multi-word keys
        let mut d = Distribution::new(n_bits);
        for _ in 0..40 {
            let mut b = Bits::zeros(n_bits);
            for i in 0..n_bits {
                b.set(i, rng.random::<bool>());
            }
            d.add(b, rng.random::<f64>());
        }
        let subset = [0usize, 63, 64, 69, 7];
        let via_plan = d.marginal_subset(&subset);
        // Reference: per-entry Bits::extract in the same iteration order.
        let mut expect = Distribution::new(subset.len());
        for (b, p) in d.iter() {
            expect.add(b.extract(&subset), p);
        }
        assert_eq!(via_plan.support_len(), expect.support_len());
        for ((ab, ap), (eb, ep)) in via_plan.iter().zip(expect.iter()) {
            assert_eq!(ab, eb);
            assert!(ap == ep, "plan-based subset diverged at {ab}");
        }
    }
}
