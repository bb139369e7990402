//! A flat, contiguous matrix of bit rows — one analysis state in one
//! allocation.
//!
//! The fixpoint solvers keep their per-block IN/OUT sets in two
//! `BitMatrix` values instead of `Vec<BitSet>`: `n_rows × words_per_row`
//! 64-bit words in a single row-major `Vec<u64>`, so a whole solve state
//! is one heap allocation and a confluence sweep over blocks streams the
//! backing store cache-linearly. Rows are exposed as `&[u64]` /
//! `&mut [u64]` slice views and combined with the row kernels in
//! [`bitset`](crate::bitset) ([`union_rows`], [`intersect_rows`],
//! [`copy_row_changed`], …), which a standalone [`BitSet`] also accepts —
//! the two storage shapes are interchangeable operands.
//!
//! Every row maintains the same trailing-bit hygiene invariant as
//! [`BitSet`]: bits at positions `>= nbits` stay zero, so
//! [`count_row`](BitMatrix::count_row) and
//! [`row_is_empty`](BitMatrix::row_is_empty) can never drift.

use std::fmt;

use crate::bitset::{
    copy_row_changed, count_row, debug_assert_row_hygiene, intersect_rows, row_contains,
    row_is_empty, union_rows, BitIter, BitSet, WORD_BITS,
};

/// A dense `n_rows × nbits` bit matrix in one contiguous allocation.
///
/// ```
/// use lcm_dataflow::BitMatrix;
///
/// let mut m = BitMatrix::new(3, 130);
/// m.set(0, 129);
/// m.set(2, 0);
/// assert!(m.contains(0, 129));
/// assert_eq!(m.row_iter(2).collect::<Vec<_>>(), vec![0]);
/// assert!(m.row_is_empty(1));
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    words: Vec<u64>,
    n_rows: usize,
    nbits: usize,
    words_per_row: usize,
}

impl BitMatrix {
    /// Creates a matrix of `n_rows` empty rows of capacity `nbits`.
    pub fn new(n_rows: usize, nbits: usize) -> Self {
        let words_per_row = nbits.div_ceil(WORD_BITS);
        BitMatrix {
            words: vec![0; n_rows * words_per_row],
            n_rows,
            nbits,
            words_per_row,
        }
    }

    /// Creates a matrix of `n_rows` full rows (all of `0..nbits` present).
    pub fn filled(n_rows: usize, nbits: usize) -> Self {
        let mut m = Self::new(n_rows, nbits);
        for r in 0..n_rows {
            m.fill_row(r);
        }
        m
    }

    /// The number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The per-row capacity in bits.
    #[inline]
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Words per row (the unit of the complexity counters).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// A row as an immutable word slice, usable as a row-kernel operand.
    ///
    /// # Panics
    ///
    /// Panics if `r >= n_rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        let start = r * self.words_per_row;
        &self.words[start..start + self.words_per_row]
    }

    /// A row as a mutable word slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= n_rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        let start = r * self.words_per_row;
        &mut self.words[start..start + self.words_per_row]
    }

    /// Two distinct rows, the first mutable — the in-place transfer shape
    /// (`out[i] ← f(in[i])`) without cloning either row.
    ///
    /// # Panics
    ///
    /// Panics if `dst == src` or either index is out of range.
    #[inline]
    pub fn row_pair_mut(&mut self, dst: usize, src: usize) -> (&mut [u64], &[u64]) {
        assert_ne!(dst, src, "row_pair_mut requires distinct rows");
        let wpr = self.words_per_row;
        let (d, s) = (dst * wpr, src * wpr);
        if d < s {
            let (lo, hi) = self.words.split_at_mut(s);
            (&mut lo[d..d + wpr], &hi[..wpr])
        } else {
            let (lo, hi) = self.words.split_at_mut(d);
            (&mut hi[..wpr], &lo[s..s + wpr])
        }
    }

    /// Tests membership of `bit` in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= n_rows` or `bit >= nbits`.
    #[inline]
    pub fn contains(&self, r: usize, bit: usize) -> bool {
        assert!(bit < self.nbits, "bit {bit} out of range {}", self.nbits);
        row_contains(self.row(r), bit)
    }

    /// Inserts `bit` into row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= n_rows` or `bit >= nbits`.
    #[inline]
    pub fn set(&mut self, r: usize, bit: usize) {
        assert!(bit < self.nbits, "bit {bit} out of range {}", self.nbits);
        self.row_mut(r)[bit / WORD_BITS] |= 1 << (bit % WORD_BITS);
    }

    /// Returns `true` if row `r` has no bits set.
    #[inline]
    pub fn row_is_empty(&self, r: usize) -> bool {
        row_is_empty(self.row(r))
    }

    /// Counts the set bits of row `r`.
    #[inline]
    pub fn count_row(&self, r: usize) -> usize {
        count_row(self.row(r))
    }

    /// Iterates the set bits of row `r` in increasing order, via the same
    /// word-skipping iterator as [`BitSet::iter`].
    pub fn row_iter(&self, r: usize) -> BitIter<'_> {
        BitIter::new(self.row(r))
    }

    /// An owned [`BitSet`] copy of row `r` — the bridge for cold paths
    /// (reports, plan derivation) that want a standalone set.
    pub fn row_set(&self, r: usize) -> BitSet {
        BitSet::from_row(self.row(r), self.nbits)
    }

    /// Overwrites row `r` from a same-capacity [`BitSet`].
    ///
    /// # Panics
    ///
    /// Panics if the set's capacity differs from `nbits`.
    pub fn set_row(&mut self, r: usize, set: &BitSet) {
        assert_eq!(set.capacity(), self.nbits, "row capacity mismatch");
        self.row_mut(r).copy_from_slice(set.words());
    }

    /// Clears row `r`.
    pub fn clear_row(&mut self, r: usize) {
        self.row_mut(r).fill(0);
    }

    /// Sets every bit of `0..nbits` in row `r` (padding stays zero).
    pub fn fill_row(&mut self, r: usize) {
        let nbits = self.nbits;
        let row = self.row_mut(r);
        row.fill(!0);
        trim_row(row, nbits);
        debug_assert_row_hygiene(row, nbits);
    }

    /// Flips every bit of `0..nbits` in row `r` (padding stays zero).
    pub fn complement_row(&mut self, r: usize) {
        let nbits = self.nbits;
        let row = self.row_mut(r);
        for w in row.iter_mut() {
            *w = !*w;
        }
        trim_row(row, nbits);
        debug_assert_row_hygiene(row, nbits);
    }

    /// `row[dst] ∪= row[src]` within the matrix; returns `true` on change.
    pub fn union_row_from(&mut self, dst: usize, src: usize) -> bool {
        if dst == src {
            return false;
        }
        let (d, s) = self.row_pair_mut(dst, src);
        union_rows(d, s)
    }

    /// `row[dst] ∩= row[src]` within the matrix; returns `true` on change.
    pub fn intersect_row_from(&mut self, dst: usize, src: usize) -> bool {
        if dst == src {
            return false;
        }
        let (d, s) = self.row_pair_mut(dst, src);
        intersect_rows(d, s)
    }

    /// Copies `row[src]` into `row[dst]`; returns `true` on change.
    pub fn copy_row_from(&mut self, dst: usize, src: usize) -> bool {
        if dst == src {
            return false;
        }
        let (d, s) = self.row_pair_mut(dst, src);
        copy_row_changed(d, s)
    }

    /// Resizes in place to `n_rows × nbits`, clearing every row and
    /// reusing the backing allocation whenever it is large enough.
    /// Returns `true` if the backing store had to grow (reallocate).
    pub fn reset(&mut self, n_rows: usize, nbits: usize) -> bool {
        let words_per_row = nbits.div_ceil(WORD_BITS);
        let total = n_rows * words_per_row;
        let grew = total > self.words.capacity();
        self.words.clear();
        self.words.resize(total, 0);
        self.n_rows = n_rows;
        self.nbits = nbits;
        self.words_per_row = words_per_row;
        grew
    }
}

/// Clears padding bits beyond `nbits` in the row's last word.
#[inline]
fn trim_row(row: &mut [u64], nbits: usize) {
    let used = nbits % WORD_BITS;
    if used != 0 {
        if let Some(last) = row.last_mut() {
            *last &= (1u64 << used) - 1;
        }
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix[{}x{}]{{", self.n_rows, self.nbits)?;
        for r in 0..self.n_rows {
            write!(f, "  {r}: {{")?;
            for (i, bit) in self.row_iter(r).enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{bit}")?;
            }
            writeln!(f, "}}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_independent_and_contiguous() {
        let mut m = BitMatrix::new(4, 100);
        m.set(1, 99);
        m.set(3, 0);
        assert!(m.contains(1, 99));
        assert!(!m.contains(0, 99) && !m.contains(2, 99));
        assert_eq!(m.count_row(1), 1);
        assert_eq!(m.words_per_row(), 2);
        assert_eq!(m.row(1).len(), 2);
        assert_eq!(m.row_set(3).iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn filled_and_complement_respect_capacity() {
        let mut m = BitMatrix::filled(3, 67);
        for r in 0..3 {
            assert_eq!(m.count_row(r), 67);
        }
        m.complement_row(1);
        assert!(m.row_is_empty(1));
        m.complement_row(1);
        assert_eq!(m.count_row(1), 67);
        assert_eq!(m.row_iter(1).last(), Some(66));
        // Padding bits above 67 stay zero after complement (hygiene).
        assert_eq!(m.row(1)[1] & !((1u64 << 3) - 1), 0);
    }

    #[test]
    fn row_pair_mut_both_orders() {
        let mut m = BitMatrix::new(3, 64);
        m.set(0, 1);
        m.set(2, 5);
        {
            let (d, s) = m.row_pair_mut(0, 2);
            assert!(union_rows(d, s));
        }
        assert!(m.contains(0, 1) && m.contains(0, 5));
        {
            let (d, s) = m.row_pair_mut(2, 0);
            assert!(copy_row_changed(d, s));
        }
        assert_eq!(m.row(0), m.row(2));
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn row_pair_mut_rejects_aliasing() {
        BitMatrix::new(2, 8).row_pair_mut(1, 1);
    }

    #[test]
    fn in_matrix_kernels() {
        let mut m = BitMatrix::new(3, 70);
        m.set(0, 69);
        m.set(1, 69);
        m.set(1, 3);
        assert!(m.union_row_from(0, 1));
        assert!(!m.union_row_from(0, 1));
        assert!(m.intersect_row_from(0, 2)); // row 2 empty
        assert!(m.row_is_empty(0));
        assert!(m.copy_row_from(0, 1));
        assert_eq!(m.row_set(0), m.row_set(1));
        assert!(!m.union_row_from(1, 1)); // self no-op
    }

    #[test]
    fn set_row_and_row_set_round_trip() {
        let mut m = BitMatrix::new(2, 130);
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(129);
        m.set_row(1, &s);
        assert_eq!(m.row_set(1), s);
        assert!(m.row_is_empty(0));
    }

    #[test]
    fn reset_reuses_or_grows() {
        let mut m = BitMatrix::filled(4, 64);
        assert!(!m.reset(2, 100)); // 4 words ≤ old capacity of 4
        assert_eq!((m.n_rows(), m.nbits(), m.words_per_row()), (2, 100, 2));
        assert!(m.row_is_empty(0) && m.row_is_empty(1));
        assert!(m.reset(64, 256)); // 256 words: must grow
        assert_eq!(m.n_rows(), 64);
        assert!(m.row_is_empty(63));
    }

    #[test]
    fn equality_is_shape_and_content() {
        let mut a = BitMatrix::new(2, 10);
        let mut b = BitMatrix::new(2, 10);
        assert_eq!(a, b);
        a.set(0, 3);
        assert_ne!(a, b);
        b.set(0, 3);
        assert_eq!(a, b);
        assert_ne!(a, BitMatrix::new(3, 10));
    }
}
