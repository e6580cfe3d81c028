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
//! exactly once (an [`IdTable`] over [`Bits::hash_u64`]); after that,
//! accumulators are flat `Vec<f64>`s indexed by id, merges are id-indexed
//! vector adds, and the key itself is cloned only on first insertion.
//! cutkit's flat word-row interner probes the same [`IdTable`] with the
//! same hash ([`Bits::hash_words`]). Ids are assigned in first-seen order,
//! which is *not* deterministic across code paths — deterministic
//! consumers must emit in key-sorted order via [`InternPool::sorted_ids`] (what
//! [`Distribution`](crate::Distribution) does at its API boundary).

use qcir::Bits;

/// Sentinel marking a free slot in an [`IdTable`].
const EMPTY: u32 = u32::MAX;

/// The open-addressed id table behind every outcome interner: dense `u32`
/// ids in a power-of-two array, linear probing, load kept below 2/3.
///
/// The table stores ids only. The interner that owns the keys hands each
/// probe the key's hash and a test of whether an id holds that key, and
/// hands a growth step the hash of every stored id — so keys can live as
/// [`Bits`] ([`InternPool`]) or as rows of one flat word array, under one
/// probing and sizing rule.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct IdTable {
    /// Ids, `EMPTY` in a free slot; empty until the first reservation.
    slots: Vec<u32>,
}

impl IdTable {
    /// The id hashing to `hash` for which `is_key` holds, if any.
    pub(crate) fn get(&self, hash: u64, is_key: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(hash, is_key).ok()
    }

    /// The id hashing to `hash` for which `is_key` holds; on a miss, `len`
    /// — the next dense id — is recorded and returned, and the caller
    /// appends its key as id `len`. `len` is the number of ids stored so
    /// far and `hash_of(id)` their hashes, read if the table grows.
    pub fn intern(
        &mut self,
        len: usize,
        hash: u64,
        is_key: impl Fn(u32) -> bool,
        hash_of: impl Fn(u32) -> u64,
    ) -> u32 {
        self.reserve(len, 1, hash_of);
        match self.find(hash, is_key) {
            Ok(id) => id,
            Err(slot) => {
                self.slots[slot] = len as u32;
                len as u32
            }
        }
    }

    /// Sizes the table for `additional` ids beyond the `len` stored ones,
    /// so a batch of known size rehashes at most once; growing re-inserts
    /// ids `0..len` by `hash_of`. `reserve(len, 0, ..)` on an empty table
    /// therefore indexes `len` keys in one pass.
    pub fn reserve(&mut self, len: usize, additional: usize, hash_of: impl Fn(u32) -> u64) {
        let want = len + additional;
        if !self.slots.is_empty() && want * 3 <= self.slots.len() * 2 {
            return;
        }
        let size = (want.max(4) * 3 / 2 + 1).next_power_of_two();
        let mask = size - 1;
        let mut slots = vec![EMPTY; size];
        for id in 0..len as u32 {
            let mut slot = hash_of(id) as usize & mask;
            while slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id;
        }
        self.slots = slots;
    }

    /// Forgets every id, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
    }

    /// The id hashing to `hash` for which `is_key` holds, or the free slot
    /// where the probe stopped. The table must not be empty.
    fn find(&self, hash: u64, is_key: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                id if is_key(id) => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

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
    table: IdTable,
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
            table: IdTable::default(),
        };
        if n > 0 {
            // No key is stored yet, so nothing is rehashed.
            pool.table.reserve(0, n, |_| unreachable!());
        }
        pool
    }

    /// A pool over `keys`, which must be pairwise distinct: key `i` gets
    /// id `i`. Each key is hashed once into a table sized for the whole
    /// set, with no equality probing (distinctness is debug-asserted).
    pub(crate) fn from_distinct(keys: Vec<Bits>) -> Self {
        let mut table = IdTable::default();
        if !keys.is_empty() {
            table.reserve(keys.len(), 0, |id| keys[id as usize].hash_u64());
        }
        let pool = InternPool { keys, table };
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
        self.table
            .get(b.hash_u64(), |id| self.keys[id as usize] == *b)
    }

    /// The id of `b`, interning (and cloning) it on first sight.
    pub fn intern(&mut self, b: &Bits) -> u32 {
        let id = self.probe(b);
        if id as usize == self.keys.len() {
            self.keys.push(b.clone());
        }
        id
    }

    /// The id of `b`, taking ownership on first sight (no clone at all).
    pub fn intern_owned(&mut self, b: Bits) -> u32 {
        let id = self.probe(&b);
        if id as usize == self.keys.len() {
            self.keys.push(b);
        }
        id
    }

    /// Ids in lexicographic key order — the deterministic emission order
    /// used at API boundaries (id assignment order is first-seen and thus
    /// implementation-dependent).
    pub fn sorted_ids(&self) -> Vec<u32> {
        sort_keys(&self.keys)
    }

    /// Removes every key while keeping both the key vector's and the
    /// table's allocations — the reuse path for accumulators cleared
    /// between rounds.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.table.clear();
    }

    /// The id of `b`, or `len()` — recorded in the table — when `b` is
    /// new and its caller must append it.
    fn probe(&mut self, b: &Bits) -> u32 {
        let keys = &self.keys;
        self.table.intern(
            keys.len(),
            b.hash_u64(),
            |id| keys[id as usize] == *b,
            |id| keys[id as usize].hash_u64(),
        )
    }
}

/// Positions of `keys` in ascending [`Bits`] order (keys must be
/// distinct): the first-word sort ([`qcir::sort_by_first_word`]) when the
/// keys share one width, whole-key comparisons when widths mix (`Bits`
/// orders by length first, which a first word cannot tell).
fn sort_keys(keys: &[Bits]) -> Vec<u32> {
    let width = keys.first().map_or(0, Bits::len);
    if keys.iter().any(|k| k.len() != width) {
        let mut ids: Vec<u32> = (0..keys.len() as u32).collect();
        ids.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        return ids;
    }
    qcir::sort_by_first_word(
        keys.len(),
        |i| keys[i].as_words().first().copied().unwrap_or(0),
        |a, b| keys[a as usize].cmp(&keys[b as usize]),
    )
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

    /// The first-word sort equals a whole-key sort at every width: one
    /// word, exactly 64 bits, several words with first words shared by
    /// many keys (the tie path), zero bits, and mixed widths (the
    /// fallback).
    #[test]
    fn sorted_ids_match_a_whole_key_sort_at_every_width() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for widths in [&[0][..], &[5], &[20], &[64], &[65], &[130], &[3, 70, 3, 64]] {
            let mut pool = InternPool::new();
            for i in 0..400 {
                let width = widths[i % widths.len()];
                let mut b = Bits::zeros(width);
                for bit in 0..width {
                    // Eight distinct first words past 64 bits, so ties form.
                    let fixed = width > 64 && (3..64).contains(&bit);
                    b.set(bit, !fixed && next() & 1 == 1);
                }
                pool.intern_owned(b);
            }
            let mut expect: Vec<Bits> = pool.keys().to_vec();
            expect.sort();
            let got: Vec<Bits> = pool
                .sorted_ids()
                .iter()
                .map(|&id| pool.key(id).clone())
                .collect();
            assert_eq!(got, expect, "widths {widths:?}");
        }
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

    /// A reservation sizes the shared table for a batch of known size, so
    /// none of the batch's insertions rehashes, and ids stay dense.
    #[test]
    fn reserve_prevents_rehash_for_known_batches() {
        let keys: Vec<Bits> = (0..501u64).map(|x| Bits::from_u64(x, 12)).collect();
        let mut table = IdTable::default();
        let first = table.intern(0, keys[0].hash_u64(), |_| false, |_| unreachable!());
        assert_eq!(first, 0);
        table.reserve(1, 500, |id| keys[id as usize].hash_u64());
        let size = table.slots.len();
        for (len, k) in keys.iter().enumerate().skip(1) {
            let hash = k.hash_u64();
            let id = table.intern(
                len,
                hash,
                |id| keys[id as usize] == *k,
                |_| panic!("rehash"),
            );
            assert_eq!(id as usize, len);
        }
        assert_eq!(table.slots.len(), size);
        let zero = &keys[0];
        assert_eq!(
            table.get(zero.hash_u64(), |id| keys[id as usize] == *zero),
            Some(0)
        );
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
}
