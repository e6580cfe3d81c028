//! The open-addressed id table behind outcome interning.
//!
//! Accumulating fragment data repeatedly touches the same small set of
//! outcome bitstrings: every variant re-derives the same fragment
//! outcomes, and every chunk merge re-inserts them. An interner maps each
//! distinct key to a dense `u32` id exactly once, so accumulators are flat
//! arrays indexed by id and merges are id-indexed adds. [`IdTable`] is the
//! table part of such an interner; cutkit's flat word-row interner stores
//! the keys and probes it with [`Bits::hash_words`](qcir::Bits::hash_words).
//! Ids are assigned in first-seen order, which is *not* deterministic
//! across code paths — deterministic consumers sort the keys before
//! emitting them.

/// Sentinel marking a free slot in an [`IdTable`].
const EMPTY: u32 = u32::MAX;

/// The open-addressed id table behind every outcome interner: dense `u32`
/// ids in a power-of-two array, linear probing, load kept below 2/3.
///
/// The table stores ids only. The interner that owns the keys hands each
/// probe the key's hash and a test of whether an id holds that key, and
/// hands a growth step the hash of every stored id, so the interner
/// chooses how its keys are stored.
#[derive(Clone, Debug, Default)]
pub struct IdTable {
    /// Ids, `EMPTY` in a free slot; empty until the first reservation.
    slots: Vec<u32>,
}

impl IdTable {
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

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Bits;

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
