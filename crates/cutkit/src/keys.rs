//! Flat outcome keys for the accumulation and contraction hot loops.
//!
//! Every outcome key a fragment accumulator, a fragment tensor or the
//! joint holds has one width, so it is held as a fixed number of words in
//! one flat arena rather than as one heap-allocated [`Bits`] per key. A
//! lookup reads a table slot and compares the arena row it names — two
//! reads of compact arrays, where a `Bits` key adds a pointer to follow.
//! The table is [`metrics::intern::IdTable`] (open addressing, linear
//! probing), probed with [`Bits::hash_words`] over the rows. Sorting goes
//! through [`qcir::sort_by_first_word`]: a sort of `(first word, id)`
//! pairs, whole rows compared only among equal first words.
//!
//! [`Bits`] orders by length and then by its words from word 0, so among
//! keys of one width the arena row order of [`sort_rows`] is exactly the
//! `Bits` order.

use metrics::intern::IdTable;
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
}
