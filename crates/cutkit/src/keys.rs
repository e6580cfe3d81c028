//! Flat outcome keys for the accumulation and contraction hot loops.
//!
//! Every outcome key a fragment accumulator, a fragment tensor or the
//! joint holds has one width, so it is held as a fixed number of words in
//! one flat arena rather than as one heap-allocated [`Bits`] per key. A
//! lookup reads a table slot and compares the arena row it names — two
//! reads of compact arrays, where a `Bits` key adds a pointer to follow.
//! The table is an [`IdTable`] (open addressing, linear probing), probed
//! with [`Bits::hash_words`] over the rows. Ids are assigned in first-seen
//! order, which is *not* deterministic across code paths, so consumers
//! sort the keys before emitting them. Sorting goes through
//! [`qcir::sort_by_first_word`]: a sort of `(first word, id)` pairs, whole
//! rows compared only among equal first words.
//!
//! [`Bits`] orders by length and then by its words from word 0, so among
//! keys of one width the arena row order of [`sort_rows`] is exactly the
//! `Bits` order.

use qcir::Bits;

/// Positions of the `count` rows of `rows` (`nw` words each, pairwise
/// distinct) in ascending word-lexicographic order, word 0 first — the
/// [`Bits`] order of keys of one width.
pub(crate) fn sort_rows(rows: &[u64], nw: usize, count: usize) -> Vec<u32> {
    debug_assert_eq!(rows.len(), nw * count, "row arena size");
    let row = |i: usize| &rows[i * nw..(i + 1) * nw];
    qcir::sort_by_first_word(
        count,
        |i| row(i).first().copied().unwrap_or(0),
        |a, b| row(a as usize).cmp(row(b as usize)),
    )
}

/// Sentinel marking a free slot in an [`IdTable`].
const EMPTY: u32 = u32::MAX;

/// The open-addressed id table behind [`KeyIndex`]: dense `u32` ids in a
/// power-of-two array, linear probing, load kept below 2/3.
///
/// The table stores ids only. The index that owns the keys hands each
/// probe the key's hash and a test of whether an id holds that key, and
/// hands a growth step the hash of every stored id, so the index chooses
/// how its keys are stored.
#[derive(Clone, Debug, Default)]
struct IdTable {
    /// Ids, `EMPTY` in a free slot; empty until the first reservation.
    slots: Vec<u32>,
}

impl IdTable {
    /// The id hashing to `hash` for which `is_key` holds; on a miss, `len`
    /// — the next dense id — is recorded and returned, and the caller
    /// appends its key as id `len`. `len` is the number of ids stored so
    /// far and `hash_of(id)` their hashes, read if the table grows.
    fn intern(
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
    fn reserve(&mut self, len: usize, additional: usize, hash_of: impl Fn(u32) -> u64) {
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

/// Outcome keys of one width interned to dense ids, first-seen order:
/// id `i`'s words are `words[i·nw .. (i+1)·nw]`.
#[derive(Clone, Debug)]
pub(crate) struct KeyIndex {
    width: usize,
    nw: usize,
    len: usize,
    words: Vec<u64>,
    table: IdTable,
}

impl KeyIndex {
    /// An empty index over `width`-bit keys.
    pub(crate) fn new(width: usize) -> Self {
        KeyIndex {
            width,
            nw: width.div_ceil(64),
            len: 0,
            words: Vec::new(),
            table: IdTable::default(),
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The words of key `id`.
    pub(crate) fn row(&self, id: usize) -> &[u64] {
        &self.words[id * self.nw..(id + 1) * self.nw]
    }

    /// The id of `key` (its words), appended on first sight.
    pub(crate) fn intern(&mut self, key: &[u64]) -> u32 {
        debug_assert_eq!(key.len(), self.nw, "key width");
        let (width, nw, words) = (self.width, self.nw, &self.words);
        let row = |id: u32| &words[id as usize * nw..(id as usize + 1) * nw];
        let id = self.table.intern(
            self.len,
            Bits::hash_words(width, key),
            |id| row(id) == key,
            |id| Bits::hash_words(width, row(id)),
        );
        if id as usize == self.len {
            self.len += 1;
            self.words.extend_from_slice(key);
        }
        id
    }

    /// Sizes the index for `additional` more keys, so a batch of known
    /// size rehashes at most once.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.words.reserve(additional * self.nw);
        let (width, nw, words) = (self.width, self.nw, &self.words);
        self.table.reserve(self.len, additional, |id| {
            Bits::hash_words(width, &words[id as usize * nw..(id as usize + 1) * nw])
        });
    }

    /// The keys in ascending order as one flat run of words, and the ids
    /// in that order: `order[i]` is the id of the `i`-th smallest key.
    pub(crate) fn into_sorted(self) -> (Vec<u32>, Vec<u64>) {
        let order = sort_rows(&self.words, self.nw, self.len);
        let mut words = Vec::with_capacity(self.words.len());
        for &id in &order {
            words.extend_from_slice(self.row(id as usize));
        }
        (order, words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_of(width: usize, seed: u64) -> Bits {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut b = Bits::zeros(width);
        for i in 0..width {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            // Past one word, keep few distinct first words so sorting and
            // lookups meet ties on word 0.
            let fixed = width > 64 && (2..64).contains(&i);
            b.set(i, !fixed && s & 1 == 1);
        }
        b
    }

    /// Interning and sorting agree with a `Bits`-keyed model at widths
    /// of zero, one word, exactly 64 bits and several words.
    #[test]
    fn index_matches_a_bits_model() {
        for width in [0usize, 7, 64, 65, 130] {
            let mut index = KeyIndex::new(width);
            let mut seen: Vec<Bits> = Vec::new();
            for i in 0..600u64 {
                let b = bits_of(width, i % 250);
                let id = index.intern(b.as_words()) as usize;
                match seen.iter().position(|s| *s == b) {
                    Some(at) => assert_eq!(id, at, "width {width}: repeat key"),
                    None => {
                        assert_eq!(id, seen.len(), "width {width}: new key");
                        seen.push(b.clone());
                    }
                }
                assert_eq!(index.row(id), b.as_words(), "width {width}: stored words");
            }
            assert_eq!(index.len(), seen.len());
            let mut expect = seen.clone();
            expect.sort();
            let (order, words) = index.into_sorted();
            let by_id: Vec<&Bits> = order.iter().map(|&id| &seen[id as usize]).collect();
            assert_eq!(
                by_id,
                expect.iter().collect::<Vec<_>>(),
                "width {width}: order"
            );
            let flat: Vec<u64> = expect.iter().flat_map(|b| b.as_words().to_vec()).collect();
            assert_eq!(words, flat, "width {width}: sorted words");
        }
    }

    fn bits(s: &str) -> Bits {
        Bits::parse(s).unwrap()
    }

    /// The id hashing to `hash` for which `is_key` holds, if any.
    fn get(table: &IdTable, hash: u64, is_key: impl Fn(u32) -> bool) -> Option<u32> {
        if table.slots.is_empty() {
            return None;
        }
        table.find(hash, is_key).ok()
    }

    /// `Bits` keys interned through an [`IdTable`], id `i` naming
    /// `keys[i]`.
    #[derive(Default)]
    struct Keys {
        keys: Vec<Bits>,
        table: IdTable,
    }

    impl Keys {
        fn intern(&mut self, b: &Bits) -> u32 {
            let keys = &self.keys;
            let id = self.table.intern(
                keys.len(),
                b.hash_u64(),
                |id| keys[id as usize] == *b,
                |id| keys[id as usize].hash_u64(),
            );
            if id as usize == self.keys.len() {
                self.keys.push(b.clone());
            }
            id
        }

        fn get(&self, b: &Bits) -> Option<u32> {
            get(&self.table, b.hash_u64(), |id| self.keys[id as usize] == *b)
        }
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut keys = Keys::default();
        let ids: Vec<u32> = ["00", "01", "10", "01", "00", "11"]
            .iter()
            .map(|s| keys.intern(&bits(s)))
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 1, 0, 3]);
        assert_eq!(keys.keys.len(), 4);
        assert_eq!(keys.get(&bits("11")), Some(3));
        assert_eq!(keys.get(&bits("111")), None);
    }

    #[test]
    fn survives_many_rehashes() {
        let mut keys = Keys::default();
        for x in 0..10_000u64 {
            let id = keys.intern(&Bits::from_u64(x, 16));
            assert_eq!(id as u64, x);
        }
        for x in 0..10_000u64 {
            assert_eq!(keys.get(&Bits::from_u64(x, 16)), Some(x as u32));
        }
    }

    /// A table reserved for `n` ids before the first one takes `n` keys
    /// without growing.
    #[test]
    fn with_capacity_avoids_growth() {
        let keys: Vec<Bits> = (0..100u64).map(|x| Bits::from_u64(x, 8)).collect();
        let mut table = IdTable::default();
        table.reserve(0, keys.len(), |_| unreachable!());
        let size = table.slots.len();
        for (len, k) in keys.iter().enumerate() {
            let id = table.intern(
                len,
                k.hash_u64(),
                |id| keys[id as usize] == *k,
                |_| panic!("rehash"),
            );
            assert_eq!(id as usize, len);
        }
        assert_eq!(table.slots.len(), size);
    }

    #[test]
    fn empty_key_is_internable() {
        let mut keys = Keys::default();
        let id = keys.intern(&Bits::zeros(0));
        assert_eq!(keys.get(&Bits::zeros(0)), Some(id));
        assert_eq!(keys.intern(&Bits::zeros(0)), id);
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
            get(&table, zero.hash_u64(), |id| keys[id as usize] == *zero),
            Some(0)
        );
    }
}
