//! Fixed-width bit vectors — the overlap vectors `v_i` of §4.1.1.
//!
//! Each block `r_i` of relation R gets an `m`-bit vector whose j-th bit
//! says whether `r_i` overlaps block `s_j` of relation S on the join
//! attribute. The hyper-join grouping algorithms live on three
//! operations: union (`|=`), popcount (`δ`), and "popcount of a union
//! without materializing it" — all implemented here on `u64` words.

/// A fixed-width bit vector backed by `u64` words.
///
/// ```
/// use adaptdb_common::BitSet;
///
/// // Fig. 4's v2 and v3: which S blocks two R blocks overlap.
/// let v2 = BitSet::from_binary_str("1100");
/// let v3 = BitSet::from_binary_str("0110");
/// assert_eq!(v2.count_ones(), 2);           // δ(v2)
/// assert_eq!(v2.union_count(&v3), 3);       // δ(v2 ∨ v3), no allocation
/// assert_eq!(v2.added_count(&v3), 1);       // marginal blocks v3 adds
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    bits: usize,
    words: Box<[u64]>,
}

impl BitSet {
    /// An all-zero vector of `bits` bits.
    pub fn new(bits: usize) -> Self {
        BitSet { bits, words: vec![0u64; bits.div_ceil(64)].into_boxed_slice() }
    }

    /// An all-ones vector of `bits` bits — the identity for
    /// [`BitSet::intersect_with`], used as the starting selection when
    /// evaluating predicate conjunctions column-wise.
    pub fn all_set(bits: usize) -> Self {
        let mut out = BitSet::new(bits);
        for w in out.words.iter_mut() {
            *w = !0u64;
        }
        let extra = bits % 64;
        if extra != 0 {
            if let Some(last) = out.words.last_mut() {
                *last &= (1u64 << extra) - 1;
            }
        }
        out
    }

    /// Build from the indices of set bits.
    pub fn from_indices(bits: usize, indices: &[usize]) -> Self {
        let mut s = BitSet::new(bits);
        for &i in indices {
            s.set(i);
        }
        s
    }

    /// Parse from a string of `0`/`1` characters, e.g. `"1100"` — matches
    /// the notation used in the paper's Fig. 4 discussion.
    pub fn from_binary_str(s: &str) -> Self {
        let mut out = BitSet::new(s.len());
        for (i, c) in s.chars().enumerate() {
            match c {
                '1' => out.set(i),
                '0' => {}
                other => panic!("invalid bit character {other:?}"),
            }
        }
        out
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// True when the width is zero.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.bits, "bit index {i} out of range {}", self.bits);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.bits, "bit index {i} out of range {}", self.bits);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.bits, "bit index {i} out of range {}", self.bits);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// `δ(v)` — the number of set bits (the paper's block-read count).
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place union: `self |= other`. Widths must match.
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.bits, other.bits, "bitset width mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
    }

    /// In-place intersection: `self &= other`. Widths must match. This
    /// is the word-level AND that combines per-predicate selection
    /// vectors in the scan path.
    #[inline]
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.bits, other.bits, "bitset width mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= *b;
        }
    }

    /// `δ(self ∨ other)` without allocating — the inner-loop quantity of
    /// the bottom-up algorithm (Fig. 6): cost of adding a block to a
    /// partially-built partition.
    #[inline]
    pub fn union_count(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.bits, other.bits, "bitset width mismatch");
        self.words.iter().zip(other.words.iter()).map(|(a, b)| (a | b).count_ones() as usize).sum()
    }

    /// `δ(other \ self)` — how many *new* bits `other` would contribute.
    /// Equivalent to `union_count(other) - count_ones()` but one pass.
    #[inline]
    pub fn added_count(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.bits, other.bits, "bitset width mismatch");
        self.words.iter().zip(other.words.iter()).map(|(a, b)| (b & !a).count_ones() as usize).sum()
    }

    /// Indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let tz = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// The complement vector `v̄` used in the NP-hardness reduction
    /// (§4.1.4): flips every addressable bit.
    pub fn complement(&self) -> BitSet {
        let mut out = BitSet::new(self.bits);
        for (o, w) in out.words.iter_mut().zip(self.words.iter()) {
            *o = !w;
        }
        // Mask off bits beyond `bits` in the last word.
        let extra = self.bits % 64;
        if extra != 0 {
            if let Some(last) = out.words.last_mut() {
                *last &= (1u64 << extra) - 1;
            }
        }
        out
    }
}

impl std::fmt::Display for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.bits {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_4_vectors() {
        // V = {v1=1000, v2=1100, v3=0110, v4=0011}
        let v1 = BitSet::from_binary_str("1000");
        let v2 = BitSet::from_binary_str("1100");
        let v3 = BitSet::from_binary_str("0110");
        let v4 = BitSet::from_binary_str("0011");
        assert_eq!(v1.count_ones(), 1);
        assert_eq!(v2.count_ones(), 2);
        // ṽ({r1,r2}) = 1100 → δ = 2 ; ṽ({r3,r4}) = 0111 → δ = 3 ; total 5.
        assert_eq!(v1.union_count(&v2), 2);
        assert_eq!(v3.union_count(&v4), 3);
    }

    #[test]
    fn set_get_clear() {
        let mut b = BitSet::new(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn union_with_and_added_count() {
        let mut a = BitSet::from_binary_str("1010");
        let b = BitSet::from_binary_str("0110");
        assert_eq!(a.added_count(&b), 1); // only bit 1 is new
        assert_eq!(a.union_count(&b), 3);
        a.union_with(&b);
        assert_eq!(a.to_string(), "1110");
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let b = BitSet::from_indices(200, &[0, 63, 64, 127, 128, 199]);
        let ones: Vec<_> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 63, 64, 127, 128, 199]);
    }

    #[test]
    fn complement_masks_tail_bits() {
        let b = BitSet::from_binary_str("101");
        let c = b.complement();
        assert_eq!(c.to_string(), "010");
        assert_eq!(c.count_ones(), 1);
        // Double complement is identity.
        assert_eq!(c.complement(), b);
    }

    #[test]
    fn intersect_with_and_all_set() {
        let mut a = BitSet::from_binary_str("1110");
        let b = BitSet::from_binary_str("0110");
        a.intersect_with(&b);
        assert_eq!(a.to_string(), "0110");
        // all_set is the identity for intersection and masks tail bits.
        let ones = BitSet::all_set(130);
        assert_eq!(ones.count_ones(), 130);
        let mut c = BitSet::from_indices(130, &[0, 64, 129]);
        c.intersect_with(&ones);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
        assert_eq!(BitSet::all_set(0).count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitSet::new(8).get(8);
    }

    #[test]
    fn display_matches_from_binary_str() {
        let s = "100101";
        assert_eq!(BitSet::from_binary_str(s).to_string(), s);
    }
}
