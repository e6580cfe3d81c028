//! Hash-interned outcome keys.
//!
//! Joint reconstruction and distribution accumulation repeatedly touch the
//! same small set of outcome bitstrings: every cut assignment re-derives
//! the same global outcomes, and every chunk merge re-inserts them. Keying
//! accumulators by [`Bits`] directly means one heap-allocated clone plus an
//! `O(log n)` ordered-map walk per touch — the hot spot this module
//! removes.
//!
//! [`InternPool`] maps each distinct [`Bits`] key to a dense `u32` id
//! exactly once (open addressing over [`Bits::hash_u64`], linear probing);
//! after that, accumulators are flat `Vec<f64>`s indexed by id, merges are
//! id-indexed vector adds, and the key itself is cloned only on first
//! insertion. Ids are assigned in first-seen order, which is *not*
//! deterministic across code paths — deterministic consumers must emit in
//! key-sorted order via [`InternPool::sorted_ids`] (what
//! [`Distribution`](crate::Distribution) does at its API boundary).

use qcir::Bits;

/// Sentinel marking a free slot in the open-addressed table.
const EMPTY: u32 = u32::MAX;

/// A pool assigning dense `u32` ids to distinct [`Bits`] keys.
///
/// ```
/// use metrics::InternPool;
/// use qcir::Bits;
///
/// let mut pool = InternPool::new();
/// let a = pool.intern(&Bits::parse("01").unwrap());
/// let b = pool.intern(&Bits::parse("10").unwrap());
/// assert_eq!(pool.intern(&Bits::parse("01").unwrap()), a);
/// assert_ne!(a, b);
/// assert_eq!(pool.key(a), &Bits::parse("01").unwrap());
/// ```
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct InternPool {
    /// `id → key`, in first-interned order.
    keys: Vec<Bits>,
    /// Open-addressed table of ids (power-of-two capacity, linear
    /// probing); empty until the first insertion.
    table: Vec<u32>,
}

impl InternPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        InternPool::default()
    }

    /// Creates a pool sized for roughly `n` keys without rehashing.
    pub fn with_capacity(n: usize) -> Self {
        let mut pool = InternPool {
            keys: Vec::with_capacity(n),
            table: Vec::new(),
        };
        if n > 0 {
            pool.rebuild_table(Self::table_len_for(n));
        }
        pool
    }

    /// A pool over `keys`, which must be pairwise distinct: key `i` gets
    /// id `i`. Each key is hashed once into a table sized for the whole
    /// set, with no equality probing (distinctness is debug-asserted).
    pub(crate) fn from_distinct(keys: Vec<Bits>) -> Self {
        let mut pool = InternPool {
            keys,
            table: Vec::new(),
        };
        if !pool.keys.is_empty() {
            pool.rebuild_table(Self::table_len_for(pool.keys.len()));
        }
        debug_assert!(
            pool.keys
                .iter()
                .enumerate()
                .all(|(id, k)| pool.get(k) == Some(id as u32)),
            "from_distinct keys repeat"
        );
        pool
    }

    /// The keys, indexed by id, without copying them.
    pub(crate) fn into_keys(self) -> Vec<Bits> {
        self.keys
    }

    /// Number of distinct keys interned so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when no key has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The key of an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this pool.
    #[inline]
    pub fn key(&self, id: u32) -> &Bits {
        &self.keys[id as usize]
    }

    /// All keys, indexed by id (first-interned order).
    #[inline]
    pub fn keys(&self) -> &[Bits] {
        &self.keys
    }

    /// The id of `b`, if already interned.
    pub fn get(&self, b: &Bits) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = (b.hash_u64() as usize) & mask;
        loop {
            match self.table[slot] {
                EMPTY => return None,
                id => {
                    if &self.keys[id as usize] == b {
                        return Some(id);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The id of `b`, interning (and cloning) it on first sight.
    pub fn intern(&mut self, b: &Bits) -> u32 {
        self.reserve_slot();
        let mask = self.table.len() - 1;
        let mut slot = (b.hash_u64() as usize) & mask;
        loop {
            match self.table[slot] {
                EMPTY => {
                    let id = self.keys.len() as u32;
                    self.keys.push(b.clone());
                    self.table[slot] = id;
                    return id;
                }
                id => {
                    if &self.keys[id as usize] == b {
                        return id;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The id of `b`, taking ownership on first sight (no clone at all).
    pub fn intern_owned(&mut self, b: Bits) -> u32 {
        self.reserve_slot();
        let mask = self.table.len() - 1;
        let mut slot = (b.hash_u64() as usize) & mask;
        loop {
            match self.table[slot] {
                EMPTY => {
                    let id = self.keys.len() as u32;
                    self.keys.push(b);
                    self.table[slot] = id;
                    return id;
                }
                id => {
                    if self.keys[id as usize] == b {
                        return id;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Ids in lexicographic key order — the deterministic emission order
    /// used at API boundaries (id assignment order is first-seen and thus
    /// implementation-dependent).
    pub fn sorted_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.keys.len() as u32).collect();
        ids.sort_by(|&a, &b| self.keys[a as usize].cmp(&self.keys[b as usize]));
        ids
    }

    /// Pre-sizes the pool for `additional` more keys, so a known-size batch
    /// of insertions (a merge of another pool, a chunk fold) triggers at
    /// most one rehash instead of one per growth step.
    pub fn reserve(&mut self, additional: usize) {
        let want = self.keys.len() + additional;
        self.keys.reserve(additional);
        if self.table.is_empty() || want * 3 > self.table.len() * 2 {
            self.rebuild_table(Self::table_len_for(want.max(1)));
        }
    }

    /// Removes every key while keeping both the key vector's and the
    /// table's allocations — the reuse path for accumulators cleared
    /// between rounds.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.table.fill(EMPTY);
    }

    /// Smallest power-of-two table length keeping load below ~2/3 for `n`
    /// keys.
    fn table_len_for(n: usize) -> usize {
        (n.max(4) * 3 / 2 + 1).next_power_of_two()
    }

    /// Ensures a free slot exists for one more insertion.
    fn reserve_slot(&mut self) {
        if self.table.is_empty() || (self.keys.len() + 1) * 3 > self.table.len() * 2 {
            self.rebuild_table(Self::table_len_for(self.keys.len() + 1));
        }
    }

    /// Rehashes every interned key into a fresh table of `len` slots.
    fn rebuild_table(&mut self, len: usize) {
        let mask = len - 1;
        let mut table = vec![EMPTY; len];
        for (id, key) in self.keys.iter().enumerate() {
            let mut slot = (key.hash_u64() as usize) & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = id as u32;
        }
        self.table = table;
    }
}

/// Shot-outcome counts keyed by interned ids.
///
/// The bulk-sampling hot loops record one outcome per shot; keying the
/// tally by a [`BTreeMap`](std::collections::BTreeMap) means an `O(log n)`
/// ordered walk (with full key comparisons) per shot, re-sorting outcomes
/// that were already seen thousands of times. `OutcomeCounts` tallies by
/// interned id instead — `O(1)` per shot, one key clone per *distinct*
/// outcome — and emits in lexicographic key order only at the API boundary
/// ([`OutcomeCounts::iter_sorted`]), which keeps downstream accumulation
/// bit-identical to the former ordered-map tally.
#[derive(Clone, Debug, Default)]
pub struct OutcomeCounts {
    pool: InternPool,
    /// `id → count`, parallel to the pool's key list.
    counts: Vec<u64>,
}

impl OutcomeCounts {
    /// Creates an empty tally.
    pub fn new() -> Self {
        OutcomeCounts::default()
    }

    /// Creates a tally sized for roughly `n` distinct outcomes.
    pub fn with_capacity(n: usize) -> Self {
        OutcomeCounts {
            pool: InternPool::with_capacity(n),
            counts: Vec::with_capacity(n),
        }
    }

    /// Number of distinct outcomes recorded.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total number of recorded shots.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Records one observation of `outcome` (cloned only on first sight).
    pub fn record(&mut self, outcome: &Bits) {
        self.record_n(outcome, 1);
    }

    /// Records `n` observations of `outcome` at once — the bulk arm for
    /// samplers that pre-tally shots elsewhere (e.g. the small-support
    /// table path of `AffineSupport::sample_counts`). Equivalent to `n`
    /// [`OutcomeCounts::record`] calls.
    pub fn record_n(&mut self, outcome: &Bits, n: u64) {
        let id = self.pool.intern(outcome) as usize;
        if id == self.counts.len() {
            self.counts.push(n);
        } else {
            self.counts[id] += n;
        }
    }

    /// The count of one outcome (0 when never recorded).
    pub fn count(&self, outcome: &Bits) -> u64 {
        self.pool
            .get(outcome)
            .map_or(0, |id| self.counts[id as usize])
    }

    /// Resets the tally for reuse, keeping allocations (the caller-provided
    /// accumulator pattern: one tally reused across many sampling calls).
    pub fn clear(&mut self) {
        self.pool.clear();
        self.counts.clear();
    }

    /// `(outcome, count)` pairs in lexicographic outcome order — the
    /// deterministic emission order for downstream accumulation.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (&Bits, u64)> + '_ {
        self.pool
            .sorted_ids()
            .into_iter()
            .map(move |id| (self.pool.key(id), self.counts[id as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Bits {
        Bits::parse(s).unwrap()
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut pool = InternPool::new();
        let ids: Vec<u32> = ["00", "01", "10", "01", "00", "11"]
            .iter()
            .map(|s| pool.intern(&bits(s)))
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 1, 0, 3]);
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.key(2), &bits("10"));
        assert_eq!(pool.get(&bits("11")), Some(3));
        assert_eq!(pool.get(&bits("111")), None);
    }

    #[test]
    fn intern_owned_matches_intern() {
        let mut pool = InternPool::new();
        let a = pool.intern_owned(bits("0101"));
        assert_eq!(pool.intern(&bits("0101")), a);
        assert_eq!(pool.intern_owned(bits("0101")), a);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn survives_many_rehashes() {
        let mut pool = InternPool::new();
        for x in 0..10_000u64 {
            let id = pool.intern(&Bits::from_u64(x, 16));
            assert_eq!(id as u64, x);
        }
        assert_eq!(pool.len(), 10_000);
        for x in 0..10_000u64 {
            assert_eq!(pool.get(&Bits::from_u64(x, 16)), Some(x as u32));
        }
    }

    #[test]
    fn sorted_ids_follow_key_order() {
        // `Bits` orders by packed word value (bit 0 is the LSB of word 0),
        // exactly like the former `BTreeMap<Bits, _>` keys did: "10" is
        // value 1 and sorts before "01" (value 2).
        let mut pool = InternPool::new();
        for s in ["10", "00", "11", "01"] {
            pool.intern(&bits(s));
        }
        let order = pool.sorted_ids();
        let keys: Vec<String> = order.iter().map(|&id| pool.key(id).to_string()).collect();
        assert_eq!(keys, vec!["00", "10", "01", "11"]);
        let mut resorted: Vec<Bits> = pool.keys().to_vec();
        resorted.sort();
        let direct: Vec<String> = resorted.iter().map(|b| b.to_string()).collect();
        assert_eq!(keys, direct);
    }

    #[test]
    fn with_capacity_avoids_growth() {
        let mut pool = InternPool::with_capacity(100);
        for x in 0..100u64 {
            pool.intern(&Bits::from_u64(x, 8));
        }
        assert_eq!(pool.len(), 100);
    }

    #[test]
    fn empty_key_is_internable() {
        let mut pool = InternPool::new();
        let id = pool.intern(&Bits::zeros(0));
        assert_eq!(pool.get(&Bits::zeros(0)), Some(id));
    }

    #[test]
    fn reserve_prevents_rehash_for_known_batches() {
        let mut pool = InternPool::new();
        pool.intern(&bits("0000"));
        pool.reserve(500);
        for x in 0..500u64 {
            pool.intern(&Bits::from_u64(x, 12));
        }
        assert_eq!(pool.len(), 501);
        assert_eq!(pool.get(&bits("0000")), Some(0));
    }

    #[test]
    fn outcome_counts_match_btreemap_tally() {
        use std::collections::BTreeMap;
        let mut counts = OutcomeCounts::new();
        let mut model: BTreeMap<Bits, u64> = BTreeMap::new();
        let seq = ["10", "00", "10", "11", "00", "10"];
        for s in seq {
            counts.record(&bits(s));
            *model.entry(bits(s)).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), model.len());
        assert_eq!(counts.total(), seq.len() as u64);
        assert_eq!(counts.count(&bits("10")), 3);
        assert_eq!(counts.count(&bits("01")), 0);
        let got: Vec<(Bits, u64)> = counts.iter_sorted().map(|(b, c)| (b.clone(), c)).collect();
        let expect: Vec<(Bits, u64)> = model.into_iter().collect();
        assert_eq!(got, expect, "emission must match ordered-map order");
    }

    #[test]
    fn clear_keeps_capacity_and_resets_ids() {
        let mut pool = InternPool::with_capacity(64);
        for x in 0..64u64 {
            pool.intern(&Bits::from_u64(x, 8));
        }
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.get(&Bits::from_u64(3, 8)), None);
        // Ids restart from zero and lookups resolve against the new keys.
        assert_eq!(pool.intern(&bits("11111111")), 0);
        assert_eq!(pool.intern(&bits("00000001")), 1);
        assert_eq!(pool.get(&bits("11111111")), Some(0));
    }

    #[test]
    fn outcome_counts_clear_resets_for_reuse() {
        let mut counts = OutcomeCounts::new();
        counts.record(&bits("01"));
        counts.record(&bits("01"));
        counts.clear();
        assert!(counts.is_empty());
        assert_eq!(counts.count(&bits("01")), 0);
        counts.record(&bits("11"));
        assert_eq!(counts.count(&bits("11")), 1);
        assert_eq!(counts.total(), 1);
    }
}
