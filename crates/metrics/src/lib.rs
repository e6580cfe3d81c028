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
//! [`Distribution`] is a sparse, immutable set of measurement bitstrings
//! with their probabilities, suitable for the few-thousand-shot records
//! the paper works with even on 300-qubit circuits. It is stored as sorted
//! word rows — one flat array of key words in ascending [`Bits`] order
//! beside one array of probabilities — so it is built by one sort, looked
//! up by binary search and read by walking the rows. Every read path
//! visits outcomes in that order, which keeps all downstream float
//! accumulation bit-reproducible and bit-identical to the ordered-map
//! (`BTreeMap`) semantics the type started from.

use qcir::{Bits, IndexPlan};
use rand::Rng;
use std::cmp::Ordering;

/// A sparse probability distribution over measurement bitstrings.
///
/// Outcomes are held as rows of `⌈n_bits/64⌉` words in one flat array, in
/// strictly ascending [`Bits`] order, beside a parallel probability array.
/// The builders sort once and sum repeated outcomes; all iteration and
/// reduction APIs visit outcomes in that order, independent of input
/// order.
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
#[derive(Clone, Debug, Default)]
pub struct Distribution {
    n_bits: usize,
    /// The outcomes' key words, `⌈n_bits/64⌉` per outcome, ascending.
    words: Vec<u64>,
    /// `probs[i]` is the probability of the `i`-th outcome; its length is
    /// the outcome count (a 0-bit outcome has no words).
    probs: Vec<f64>,
}

impl Distribution {
    /// Creates an empty distribution over `n_bits`-bit outcomes.
    pub fn new(n_bits: usize) -> Self {
        Distribution {
            n_bits,
            words: Vec::new(),
            probs: Vec::new(),
        }
    }

    /// Builds an empirical distribution from measurement samples: each
    /// sample adds `1/len` to its outcome, one addition per sample.
    ///
    /// # Panics
    ///
    /// Panics if a sample width differs from `n_bits`.
    pub fn from_samples(n_bits: usize, samples: &[Bits]) -> Self {
        if samples.is_empty() {
            return Distribution::new(n_bits);
        }
        let w = 1.0 / samples.len() as f64;
        Distribution::from_unsorted(n_bits, samples.iter().map(|s| (s, w)), samples.len())
    }

    /// Builds a distribution from `(outcome, probability)` pairs, summing
    /// duplicates in input order.
    ///
    /// # Panics
    ///
    /// Panics if an outcome width differs from `n_bits`.
    pub fn from_pairs(n_bits: usize, pairs: Vec<(Bits, f64)>) -> Self {
        Distribution::from_unsorted(n_bits, pairs.iter().map(|(b, p)| (b, *p)), pairs.len())
    }

    /// Builds a distribution from `probs.len()` outcome rows already in
    /// strictly ascending key order: row `i` is
    /// `words[i·⌈n_bits/64⌉ .. (i+1)·⌈n_bits/64⌉]`, with probability
    /// `probs[i]`. Both arrays are moved in as they are.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not hold one row per probability; the
    /// ordering and the zero padding past `n_bits` are debug-asserted.
    pub fn from_sorted_rows(n_bits: usize, words: Vec<u64>, probs: Vec<f64>) -> Self {
        let d = Distribution {
            n_bits,
            words,
            probs,
        };
        assert_eq!(
            d.words.len(),
            d.probs.len() * d.nw(),
            "one row of words per probability"
        );
        debug_assert!(
            (1..d.probs.len()).all(|i| d.row(i - 1) < d.row(i)),
            "outcomes not strictly ascending"
        );
        debug_assert!(
            n_bits % 64 == 0
                || (0..d.probs.len())
                    .all(|i| d.row(i).last().is_none_or(|&w| w >> (n_bits % 64) == 0)),
            "outcome words set padding bits"
        );
        d
    }

    /// Sorts `n` `(outcome, weight)` items into rows: one sort by key,
    /// equal keys kept in input order, each run of equal keys summed in
    /// that order starting from `0.0` (so a leading `-0.0` becomes
    /// `+0.0`, as an ordered map's `or_insert(0.0) += p` would have it).
    fn from_unsorted<'b>(
        n_bits: usize,
        items: impl Iterator<Item = (&'b Bits, f64)>,
        n: usize,
    ) -> Self {
        let nw = n_bits.div_ceil(64);
        let mut keys = Vec::with_capacity(n * nw);
        let mut weights = Vec::with_capacity(n);
        for (b, p) in items {
            assert_eq!(b.len(), n_bits, "outcome width mismatch");
            keys.extend_from_slice(b.as_words());
            weights.push(p);
        }
        Distribution::from_unsorted_rows(n_bits, &keys, &weights)
    }

    /// [`Distribution::from_unsorted`] over `weights.len()` rows of `keys`.
    fn from_unsorted_rows(n_bits: usize, keys: &[u64], weights: &[f64]) -> Self {
        let nw = n_bits.div_ceil(64);
        let row = |i: usize| &keys[i * nw..(i + 1) * nw];
        // Ties on the whole row fall back to the input position, so the
        // sort is stable.
        let order = qcir::sort_by_first_word(
            weights.len(),
            |i| row(i).first().copied().unwrap_or(0),
            |a, b| row(a as usize).cmp(row(b as usize)).then(a.cmp(&b)),
        );
        let mut words: Vec<u64> = Vec::with_capacity(keys.len());
        let mut probs: Vec<f64> = Vec::with_capacity(weights.len());
        for i in order {
            let (key, p) = (row(i as usize), weights[i as usize]);
            match probs.last_mut() {
                Some(sum) if words[words.len() - nw..] == *key => *sum += p,
                _ => {
                    words.extend_from_slice(key);
                    probs.push(0.0 + p);
                }
            }
        }
        Distribution {
            n_bits,
            words,
            probs,
        }
    }

    /// Words per outcome row.
    fn nw(&self) -> usize {
        self.n_bits.div_ceil(64)
    }

    /// The key words of the `i`-th outcome.
    fn row(&self, i: usize) -> &[u64] {
        let nw = self.nw();
        &self.words[i * nw..(i + 1) * nw]
    }

    /// Bit `bit` of the `i`-th outcome.
    fn bit(&self, i: usize, bit: usize) -> bool {
        (self.row(i)[bit >> 6] >> (bit & 63)) & 1 == 1
    }

    /// The position of the outcome whose words are `key`, by binary search.
    fn find(&self, key: &[u64]) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.probs.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid).cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
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
        if outcome.len() != self.n_bits {
            return 0.0;
        }
        self.find(outcome.as_words()).map_or(0.0, |i| self.probs[i])
    }

    /// Iterator over `(outcome words, probability)` pairs in ascending
    /// outcome order (deterministic, which keeps downstream float
    /// accumulation bit-reproducible). An outcome's words are those of
    /// its [`Bits`] ([`Bits::as_words`]); it is [`Distribution::n_bits`]
    /// bits wide.
    pub fn iter(&self) -> impl Iterator<Item = (&[u64], f64)> + '_ {
        (0..self.probs.len()).map(move |i| (self.row(i), self.probs[i]))
    }

    /// Sum of all recorded probabilities.
    pub fn total_mass(&self) -> f64 {
        let mut mass = 0.0;
        for &p in &self.probs {
            mass += p;
        }
        mass
    }

    /// Clamps negative entries to zero and rescales to unit mass.
    ///
    /// Cut reconstruction from sampled fragment data can produce small
    /// negative quasi-probabilities; this is the standard repair. Outcomes
    /// left with zero probability are dropped from the support.
    pub fn clip_and_normalize(&mut self) {
        // Compact the surviving (positive) rows in place, in key order,
        // summing the mass in that order.
        let nw = self.nw();
        let mut kept = 0;
        let mut mass = 0.0;
        for i in 0..self.probs.len() {
            let p = self.probs[i];
            if p > 0.0 {
                self.words.copy_within(i * nw..(i + 1) * nw, kept * nw);
                self.probs[kept] = p;
                kept += 1;
                mass += p;
            }
        }
        self.words.truncate(kept * nw);
        self.probs.truncate(kept);
        if mass > 0.0 {
            for p in &mut self.probs {
                *p /= mass;
            }
        }
    }

    /// The `[p(bit=0), p(bit=1)]` marginal of one bit position.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= n_bits`.
    pub fn marginal(&self, bit: usize) -> [f64; 2] {
        assert!(bit < self.n_bits, "bit out of range");
        let mut m = [0.0; 2];
        for (i, &p) in self.probs.iter().enumerate() {
            m[self.bit(i, bit) as usize] += p;
        }
        m
    }

    /// All single-bit marginals.
    pub fn marginals(&self) -> Vec<[f64; 2]> {
        let mut out = vec![[0.0; 2]; self.n_bits];
        for (i, &p) in self.probs.iter().enumerate() {
            for (q, m) in out.iter_mut().enumerate() {
                m[self.bit(i, q) as usize] += p;
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
        let mut key = Bits::zeros(self.n_bits);
        let mut sub = Bits::zeros(bits.len());
        let mut keys = Vec::with_capacity(self.probs.len() * bits.len().div_ceil(64));
        for i in 0..self.probs.len() {
            key.copy_from_words(self.row(i));
            plan.extract_into(&key, &mut sub);
            keys.extend_from_slice(sub.as_words());
        }
        Distribution::from_unsorted_rows(bits.len(), &keys, &self.probs)
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
        let mut j = 0;
        for (i, &p) in self.probs.iter().enumerate() {
            let q = other.seek(&mut j, self.row(i)).unwrap_or(0.0);
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
        let mut j = 0;
        for (i, &p) in self.probs.iter().enumerate() {
            tv += (p - other.seek(&mut j, self.row(i)).unwrap_or(0.0)).abs();
        }
        let mut i = 0;
        for (j, &q) in other.probs.iter().enumerate() {
            if self.seek(&mut i, other.row(j)).is_none() {
                tv += q;
            }
        }
        tv / 2.0
    }

    /// The probability of the outcome whose words are `key`, if present,
    /// for a walk visiting keys in ascending order: `*from` is where the
    /// previous key's search stopped and moves past every smaller row.
    fn seek(&self, from: &mut usize, key: &[u64]) -> Option<f64> {
        while *from < self.probs.len() && self.row(*from) < key {
            *from += 1;
        }
        (*from < self.probs.len() && self.row(*from) == key).then(|| self.probs[*from])
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
        for (i, &p) in self.probs.iter().enumerate() {
            let parity = subset.iter().filter(|&&q| self.bit(i, q)).count() % 2;
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
        // Cumulative weights over the positive support, in key order so a
        // given RNG stream maps to a deterministic sample sequence.
        let mut support = Vec::new();
        let mut cum = Vec::new();
        let mut total = 0.0;
        for (i, &p) in self.probs.iter().enumerate() {
            if p > 0.0 {
                total += p;
                support.push(i);
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
            let mut b = Bits::zeros(self.n_bits);
            b.copy_from_words(self.row(support[k]));
            out.push(b);
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
    use std::collections::BTreeMap;

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

    /// Independent model: the ordered-map (`BTreeMap`) semantics the type
    /// started from, over `Bits` keys, with every builder and read path
    /// written out directly. The row engine must match it bit for bit.
    #[derive(Clone, Default)]
    struct Model {
        probs: BTreeMap<Bits, f64>,
    }

    impl Model {
        fn add(&mut self, b: Bits, p: f64) {
            *self.probs.entry(b).or_insert(0.0) += p;
        }

        fn from_pairs(pairs: &[(Bits, f64)]) -> Self {
            let mut m = Model::default();
            for (b, p) in pairs {
                m.add(b.clone(), *p);
            }
            m
        }

        fn from_samples(samples: &[Bits]) -> Self {
            let mut m = Model::default();
            let w = 1.0 / samples.len() as f64;
            for s in samples {
                m.add(s.clone(), w);
            }
            m
        }

        fn prob(&self, b: &Bits) -> f64 {
            self.probs.get(b).copied().unwrap_or(0.0)
        }

        fn total_mass(&self) -> f64 {
            let mut mass = 0.0;
            for p in self.probs.values() {
                mass += p;
            }
            mass
        }

        fn marginals(&self, n_bits: usize) -> Vec<[f64; 2]> {
            let mut out = vec![[0.0; 2]; n_bits];
            for (b, &p) in &self.probs {
                for (q, m) in out.iter_mut().enumerate() {
                    m[b.get(q) as usize] += p;
                }
            }
            out
        }

        fn marginal_subset(&self, bits: &[usize]) -> Model {
            let mut m = Model::default();
            for (b, &p) in &self.probs {
                m.add(b.extract(bits), p);
            }
            m
        }

        fn hellinger_fidelity(&self, other: &Model) -> f64 {
            let mut bc = 0.0;
            for (b, &p) in &self.probs {
                let q = other.prob(b);
                if p > 0.0 && q > 0.0 {
                    bc += (p * q).sqrt();
                }
            }
            bc * bc
        }

        fn total_variation(&self, other: &Model) -> f64 {
            let mut tv = 0.0;
            for (b, &p) in &self.probs {
                tv += (p - other.prob(b)).abs();
            }
            for (b, &q) in &other.probs {
                if !self.probs.contains_key(b) {
                    tv += q;
                }
            }
            tv / 2.0
        }

        fn expectation_z(&self, subset: &[usize]) -> f64 {
            let mut total = 0.0;
            for (b, &p) in &self.probs {
                let parity = subset.iter().filter(|&&q| b.get(q)).count() % 2;
                total += if parity == 1 { -p } else { p };
            }
            total
        }

        fn clip_and_normalize(&mut self) {
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

    /// The widths every model test runs at: zero, one bit, either side of
    /// one word, and several words.
    const WIDTHS: [usize; 6] = [0, 1, 63, 64, 65, 130];

    /// A pseudo-random `width`-bit key per `seed`. Past 64 bits, bits
    /// 3..64 stay clear, so keys share first words and every sort and
    /// search has to break ties past word 0.
    fn key_of(width: usize, seed: u64) -> Bits {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut b = Bits::zeros(width);
        for i in 0..width {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let fixed = width > 64 && (3..64).contains(&i);
            b.set(i, !fixed && s & 1 == 1);
        }
        b
    }

    /// `d` equals `model` bit for bit: support, row order and words,
    /// probabilities, `prob` of every outcome, mass, and every marginal.
    fn assert_matches(d: &Distribution, model: &Model, n_bits: usize, stage: &str) {
        assert_eq!(d.n_bits(), n_bits, "{stage}: width");
        assert_eq!(d.support_len(), model.probs.len(), "{stage}: support");
        assert_eq!(d.is_empty(), model.probs.is_empty(), "{stage}: empty");
        for ((dw, dp), (mb, &mp)) in d.iter().zip(&model.probs) {
            assert_eq!(dw, mb.as_words(), "{stage}: row order at {mb}");
            assert_eq!(dp.to_bits(), mp.to_bits(), "{stage}: value at {mb}");
            assert_eq!(d.prob(mb).to_bits(), mp.to_bits(), "{stage}: prob({mb})");
        }
        assert_eq!(
            d.total_mass().to_bits(),
            model.total_mass().to_bits(),
            "{stage}: mass"
        );
        let bits =
            |m: &[[f64; 2]]| -> Vec<u64> { m.iter().flat_map(|x| x.map(f64::to_bits)).collect() };
        let marginals = d.marginals();
        assert_eq!(
            bits(&marginals),
            bits(&model.marginals(n_bits)),
            "{stage}: marginals"
        );
        for (q, m) in marginals.iter().enumerate() {
            assert_eq!(bits(&[d.marginal(q)]), bits(&[*m]), "{stage}: marginal {q}");
        }
    }

    /// Property: at every width, `from_pairs` over duplicated keys and
    /// signed weights (exact zeros of both signs among them), and every
    /// read path on the result, equal the ordered-map model bit for bit —
    /// before and after a clip, including `marginal_subset`s that merge
    /// keys and fidelity/distance against overlapping and disjoint
    /// supports.
    #[test]
    fn distribution_matches_btreemap_reference_bit_exact() {
        let mut rng = StdRng::seed_from_u64(2024);
        for width in WIDTHS {
            for case in 0..40 {
                let pool = 1 + rng.random::<u64>() % 24;
                let pairs = |rng: &mut StdRng, parity: Option<bool>| -> Vec<(Bits, f64)> {
                    let n = rng.random::<u64>() % 48;
                    (0..n)
                        .map(|_| {
                            let mut b = key_of(width, rng.random::<u64>() % pool);
                            if let Some(bit0) = parity {
                                b.set(0, bit0);
                            }
                            let w = match rng.random::<u64>() % 5 {
                                0 => 0.0,
                                1 => -0.0,
                                _ => (rng.random::<f64>() - 0.3) * 0.4,
                            };
                            (b, w)
                        })
                        .collect()
                };
                let input = pairs(&mut rng, None);
                let d = Distribution::from_pairs(width, input.clone());
                let model = Model::from_pairs(&input);
                assert_matches(&d, &model, width, "from_pairs");
                let absent = key_of(width, pool + rng.random::<u64>() % 8);
                if !model.probs.contains_key(&absent) {
                    assert_eq!(d.prob(&absent).to_bits(), 0.0f64.to_bits(), "absent");
                }
                assert_eq!(d.prob(&Bits::zeros(width + 1)), 0.0, "other width");

                // A subset of few positions merges many keys.
                let subset: Vec<usize> = (0..width.min(3))
                    .map(|_| rng.random::<u64>() as usize % width)
                    .chain((width > 64).then(|| width - 1))
                    .collect();
                assert_matches(
                    &d.marginal_subset(&subset),
                    &model.marginal_subset(&subset),
                    subset.len(),
                    "marginal_subset",
                );
                let z = d.expectation_z(&subset);
                assert_eq!(z.to_bits(), model.expectation_z(&subset).to_bits(), "<Z>");

                // Overlapping supports draw on the same key pool; disjoint
                // ones differ in bit 0.
                let (a, b) = if width > 0 && case % 2 == 1 {
                    (pairs(&mut rng, Some(false)), pairs(&mut rng, Some(true)))
                } else {
                    (input.clone(), pairs(&mut rng, None))
                };
                let (da, db) = (
                    Distribution::from_pairs(width, a.clone()),
                    Distribution::from_pairs(width, b.clone()),
                );
                let (ma, mb) = (Model::from_pairs(&a), Model::from_pairs(&b));
                for (x, y, mx, my) in [(&da, &db, &ma, &mb), (&db, &da, &mb, &ma)] {
                    let (h, t) = (x.hellinger_fidelity(y), x.total_variation(y));
                    assert_eq!(h.to_bits(), mx.hellinger_fidelity(my).to_bits(), "fidelity");
                    assert_eq!(t.to_bits(), mx.total_variation(my).to_bits(), "distance");
                }

                let (mut d, mut model) = (d, model);
                for pass in ["first clip", "second clip"] {
                    d.clip_and_normalize();
                    model.clip_and_normalize();
                    assert_matches(&d, &model, width, pass);
                }
            }
        }
    }

    /// `from_samples` adds `1/len` once per sample, like the model's map:
    /// ten equal samples sum to `0.9999999999999999`, not `10 × 0.1`.
    /// Checked at every width, on repeated and distinct samples.
    #[test]
    fn from_samples_matches_the_model_bit_exact() {
        let ten = vec![Bits::parse("01").unwrap(); 10];
        let d = Distribution::from_samples(2, &ten);
        assert_eq!(d.prob(&ten[0]), 0.9999999999999999);
        assert_matches(&d, &Model::from_samples(&ten), 2, "ten equal samples");
        let mut rng = StdRng::seed_from_u64(5);
        for width in WIDTHS {
            for n in [1usize, 3, 10, 49, 200] {
                let pool = 1 + rng.random::<u64>() % 12;
                let samples: Vec<Bits> = (0..n)
                    .map(|_| key_of(width, rng.random::<u64>() % pool))
                    .collect();
                let d = Distribution::from_samples(width, &samples);
                assert_matches(&d, &Model::from_samples(&samples), width, "samples");
            }
        }
    }

    /// The edges of the builders and the clip: a leading `-0.0` summed
    /// into `+0.0`, every entry negative (the clip leaves nothing), and
    /// lookups on an empty distribution.
    #[test]
    fn builder_and_clip_edges_match_the_model() {
        let b = |s: &str| Bits::parse(s).unwrap();
        let pairs = vec![(b("01"), -0.0), (b("10"), -0.0), (b("01"), -0.0)];
        let d = Distribution::from_pairs(2, pairs.clone());
        assert_matches(&d, &Model::from_pairs(&pairs), 2, "signed zeros");
        assert_eq!(d.prob(&b("01")).to_bits(), 0.0f64.to_bits(), "+0.0");

        let negative = vec![(b("00"), -0.25), (b("11"), -0.5), (b("00"), -0.0)];
        let mut d = Distribution::from_pairs(2, negative.clone());
        let mut model = Model::from_pairs(&negative);
        d.clip_and_normalize();
        model.clip_and_normalize();
        assert_matches(&d, &model, 2, "all negative");
        assert!(d.is_empty());
        assert_eq!(d.prob(&b("00")), 0.0);
        assert_eq!(d.hellinger_fidelity(&d), 0.0);
        assert_eq!(d.total_variation(&Distribution::new(2)), 0.0);
    }

    /// `from_sorted_rows` and the in-place `clip_and_normalize` against the
    /// ordered-map reference at every width: random pairs with repeated
    /// keys, negative values, exact zeros, all-non-positive and empty
    /// inputs, and a second clip. Row order and probability bits must
    /// match, and `prob()` must find every outcome and miss absent ones.
    #[test]
    fn sorted_constructor_and_moving_clip_match_btreemap_reference() {
        let mut rng = StdRng::seed_from_u64(77);
        for width in WIDTHS {
            for case in 0..60 {
                let ops = if case == 0 {
                    0
                } else {
                    rng.random::<u64>() % 40
                };
                let pairs: Vec<(Bits, f64)> = (0..ops)
                    .map(|_| {
                        let w = match (case % 3, rng.random::<u64>() % 4) {
                            (0, _) => -rng.random::<f64>(), // all non-positive
                            (_, 0) => 0.0,
                            (_, 1) => -0.0,
                            _ => rng.random::<f64>() - 0.3,
                        };
                        (key_of(width, rng.random::<u64>() % 30), w)
                    })
                    .collect();
                let mut model = Model::from_pairs(&pairs);
                let words: Vec<u64> = model
                    .probs
                    .keys()
                    .flat_map(|b| b.as_words().to_vec())
                    .collect();
                let probs: Vec<f64> = model.probs.values().copied().collect();
                let mut d = Distribution::from_sorted_rows(width, words, probs);
                assert_matches(&d, &model, width, "from_sorted_rows");
                for pass in ["first clip", "second clip"] {
                    d.clip_and_normalize();
                    model.clip_and_normalize();
                    assert_matches(&d, &model, width, pass);
                    let absent = key_of(width, 30 + rng.random::<u64>() % 30);
                    if !model.probs.contains_key(&absent) {
                        assert_eq!(d.prob(&absent), 0.0, "{pass}: absent outcome");
                    }
                }
            }
        }
    }

    #[test]
    fn rows_follow_key_order() {
        // `Bits` orders by packed word value (bit 0 is the LSB of word 0),
        // exactly like the former `BTreeMap<Bits, _>` keys did: "10" is
        // value 1 and sorts before "01" (value 2).
        let pairs = ["10", "00", "11", "01"]
            .iter()
            .map(|s| (Bits::parse(s).unwrap(), 0.25))
            .collect();
        let d = Distribution::from_pairs(2, pairs);
        let rows: Vec<&[u64]> = d.iter().map(|(w, _)| w).collect();
        assert_eq!(rows, [[0b00], [0b01], [0b10], [0b11]]);
    }

    /// The builders' sort equals a whole-key `Bits` sort at every width:
    /// one word, exactly 64 bits, and several words with first words
    /// shared by many keys (the tie path).
    #[test]
    fn rows_match_a_whole_key_sort_at_every_width() {
        for width in [0, 5, 20, 64, 65, 130] {
            let keys: Vec<Bits> = (0..400).map(|i| key_of(width, i % 250)).collect();
            let pairs = keys.iter().map(|b| (b.clone(), 1.0)).collect();
            let d = Distribution::from_pairs(width, pairs);
            let mut expect = keys.clone();
            expect.sort();
            expect.dedup();
            let got: Vec<&[u64]> = d.iter().map(|(w, _)| w).collect();
            let want: Vec<&[u64]> = expect.iter().map(Bits::as_words).collect();
            assert_eq!(got, want, "width {width}");
        }
    }

    #[test]
    fn marginal_subset_matches_per_entry_extract() {
        let mut rng = StdRng::seed_from_u64(9);
        let n_bits = 70; // multi-word keys
        let pairs: Vec<(Bits, f64)> = (0..40)
            .map(|_| {
                let mut b = Bits::zeros(n_bits);
                for i in 0..n_bits {
                    b.set(i, rng.random::<bool>());
                }
                (b, rng.random::<f64>())
            })
            .collect();
        let d = Distribution::from_pairs(n_bits, pairs);
        let subset = [0usize, 63, 64, 69, 7];
        let via_plan = d.marginal_subset(&subset);
        // Reference: per-entry Bits::extract in the same iteration order.
        let mut key = Bits::zeros(n_bits);
        let extracted = d
            .iter()
            .map(|(w, p)| {
                key.copy_from_words(w);
                (key.extract(&subset), p)
            })
            .collect();
        let expect = Distribution::from_pairs(subset.len(), extracted);
        assert_eq!(via_plan.support_len(), expect.support_len());
        for ((ab, ap), (eb, ep)) in via_plan.iter().zip(expect.iter()) {
            assert_eq!(ab, eb);
            assert!(ap == ep, "plan-based subset diverged at {ab:?}");
        }
    }
}
