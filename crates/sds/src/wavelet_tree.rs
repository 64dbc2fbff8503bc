//! Pointerless (level-wise) wavelet tree.
//!
//! The *WT* structure of the paper (§3.3): a balanced binary tree that
//! decomposes an integer sequence bit by bit, each tree level stored as a
//! single rank/select bitmap ([`crate::RsBitVec`]). `access`, `rank` and
//! `select` run in *O(log σ)* where σ is the alphabet size, and
//! [`WaveletTree::range_search`] — the extra operation SuccinctEdge relies on
//! for triple-pattern evaluation (§5.2) — finds all occurrences of a value
//! inside an index interval without decompressing anything.
//!
//! The layout is *pointerless*: the nodes of level `l` are concatenated
//! left-to-right into one bitmap, and node boundaries are recomputed on the
//! fly with `rank0`/`rank1`, so no child pointers are stored at all.

use crate::bitvec::BitVec;
use crate::rank_select::RsBitVec;
use crate::serialize::{ReadBin, Serialize, WriteBin};
use crate::{bits_for, HeapSize};
use std::io;

/// An immutable wavelet tree over a sequence of `u64` symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveletTree {
    /// One bitmap per bit level; `levels[0]` holds the most significant bit.
    levels: Vec<RsBitVec>,
    len: usize,
    width: u32,
    max_symbol: u64,
}

impl WaveletTree {
    /// Builds a wavelet tree from `values`.
    ///
    /// The tree depth is the number of bits of the largest value (at least
    /// one level, even for an all-zero sequence).
    pub fn new(values: &[u64]) -> Self {
        let max_symbol = values.iter().copied().max().unwrap_or(0);
        let width = bits_for(max_symbol);
        let len = values.len();
        let mut levels = Vec::with_capacity(width as usize);
        // `nodes` holds the non-empty nodes of the current level in
        // left-to-right order; empty nodes contribute nothing to the bitmap
        // and are skipped without breaking rank-based navigation.
        let mut nodes: Vec<Vec<u64>> = if values.is_empty() {
            Vec::new()
        } else {
            vec![values.to_vec()]
        };
        for l in 0..width {
            let shift = width - 1 - l;
            let mut bits = BitVec::with_capacity(len);
            let mut next = Vec::with_capacity(nodes.len() * 2);
            for node in &nodes {
                let mut left = Vec::new();
                let mut right = Vec::new();
                for &v in node {
                    let bit = (v >> shift) & 1 == 1;
                    bits.push(bit);
                    if bit {
                        right.push(v);
                    } else {
                        left.push(v);
                    }
                }
                if !left.is_empty() {
                    next.push(left);
                }
                if !right.is_empty() {
                    next.push(right);
                }
            }
            levels.push(RsBitVec::new(bits));
            nodes = next;
        }
        Self {
            levels,
            len,
            width,
            max_symbol,
        }
    }

    /// Number of symbols in the sequence.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of bit levels (≥ 1 unless the tree is empty).
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Largest symbol stored at construction time.
    #[inline]
    pub fn max_symbol(&self) -> u64 {
        self.max_symbol
    }

    /// The SDS `access` operation: the symbol at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn access(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let (mut s, mut e, mut pos) = (0usize, self.len, i);
        let mut symbol = 0u64;
        for level in &self.levels {
            symbol <<= 1;
            let z_s = level.rank0(s);
            let zeros_in_node = level.rank0(e) - z_s;
            if level.get(pos) {
                symbol |= 1;
                let o_s = level.rank1(s);
                let new_s = s + zeros_in_node;
                pos = new_s + (level.rank1(pos) - o_s);
                s = new_s;
            } else {
                pos = s + (level.rank0(pos) - z_s);
                e = s + zeros_in_node;
            }
        }
        symbol
    }

    /// The SDS `rank` operation: number of occurrences of `symbol` in
    /// `[0, i)`. `i` may equal `len()`.
    pub fn rank(&self, i: usize, symbol: u64) -> usize {
        assert!(
            i <= self.len,
            "rank index {i} out of bounds (len {})",
            self.len
        );
        if symbol > self.max_symbol || self.len == 0 {
            return 0;
        }
        let (mut s, mut e, mut pos) = (0usize, self.len, i);
        for (l, level) in self.levels.iter().enumerate() {
            let shift = self.width - 1 - l as u32;
            let bit = (symbol >> shift) & 1 == 1;
            let z_s = level.rank0(s);
            let zeros_in_node = level.rank0(e) - z_s;
            if bit {
                let o_s = level.rank1(s);
                let p1 = level.rank1(pos) - o_s;
                s += zeros_in_node;
                pos = s + p1;
                // e stays: node end at next level = old e
            } else {
                pos = s + (level.rank0(pos) - z_s);
                e = s + zeros_in_node;
            }
        }
        pos - s
    }

    /// The SDS `select` operation: index of the `k`-th occurrence of
    /// `symbol` (1-indexed), or `None` when there are fewer than `k`
    /// occurrences.
    pub fn select(&self, k: usize, symbol: u64) -> Option<usize> {
        if k == 0 || symbol > self.max_symbol || self.len == 0 {
            return None;
        }
        // Downward pass: record the start of the node containing `symbol`
        // at every level (at most 64 levels, so no heap allocation).
        let mut starts = [0usize; 64];
        let (mut s, mut e) = (0usize, self.len);
        for (l, level) in self.levels.iter().enumerate() {
            starts[l] = s;
            let shift = self.width - 1 - l as u32;
            let bit = (symbol >> shift) & 1 == 1;
            let zeros_in_node = level.rank0(e) - level.rank0(s);
            if bit {
                s += zeros_in_node;
            } else {
                e = s + zeros_in_node;
            }
        }
        if k > e - s {
            return None; // fewer than k occurrences
        }
        // Upward pass: map the offset inside the leaf back to the root.
        let mut offset = k - 1;
        for (l, level) in self.levels.iter().enumerate().rev() {
            let shift = self.width - 1 - l as u32;
            let bit = (symbol >> shift) & 1 == 1;
            let node_start = starts[l];
            let pos = if bit {
                level
                    .select1(level.rank1(node_start) + offset + 1)
                    .expect("wavelet tree invariant: child bit must exist in parent")
            } else {
                level
                    .select0(level.rank0(node_start) + offset + 1)
                    .expect("wavelet tree invariant: child bit must exist in parent")
            };
            offset = pos - node_start;
        }
        Some(offset)
    }

    /// Number of occurrences of `symbol` in `[a, b)`.
    pub fn count_range(&self, a: usize, b: usize, symbol: u64) -> usize {
        assert!(
            a <= b && b <= self.len,
            "invalid range [{a}, {b}) for len {}",
            self.len
        );
        self.rank(b, symbol) - self.rank(a, symbol)
    }

    /// The paper's `rangeSearch(a, b, c)` (§5.2): all indices `i ∈ [a, b)`
    /// with `access(i) == c`, in increasing order.
    ///
    /// Runs in *O((occ + 1)·log σ)* — it never scans the interval, it prunes
    /// through the tree exactly as the paper describes ("it efficiently
    /// prunes searches by just computing the boundaries").
    pub fn range_search(&self, a: usize, b: usize, symbol: u64) -> Vec<usize> {
        assert!(
            a <= b && b <= self.len,
            "invalid range [{a}, {b}) for len {}",
            self.len
        );
        if symbol > self.max_symbol {
            return Vec::new();
        }
        let lo = self.rank(a, symbol);
        let hi = self.rank(b, symbol);
        (lo + 1..=hi)
            .map(|k| self.select(k, symbol).expect("rank/select consistency"))
            .collect()
    }

    /// Iterates over all symbols in sequence order.
    ///
    /// This decodes through the tree; it is meant for tests and debugging,
    /// not for hot paths.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.access(i))
    }
}

impl HeapSize for WaveletTree {
    fn heap_size(&self) -> usize {
        self.levels
            .iter()
            .map(|l| std::mem::size_of::<RsBitVec>() + l.heap_size())
            .sum::<usize>()
    }
}

impl Serialize for WaveletTree {
    fn serialize<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_u64(self.len as u64)?;
        w.write_u32(self.width)?;
        w.write_u64(self.max_symbol)?;
        for level in &self.levels {
            level.serialize(w)?;
        }
        Ok(())
    }

    fn deserialize<R: io::Read>(r: &mut R) -> io::Result<Self> {
        let len = r.read_u64()? as usize;
        let width = r.read_u32()?;
        let max_symbol = r.read_u64()?;
        if !(1..=64).contains(&width) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad wavelet-tree width",
            ));
        }
        let mut levels = Vec::with_capacity(width as usize);
        for _ in 0..width {
            levels.push(RsBitVec::deserialize(r)?);
        }
        // Every level holds one bit per symbol; a length the levels do not
        // back would make `access` read past them.
        if levels.iter().any(|level| level.len() != len) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "wavelet-tree length does not match its levels",
            ));
        }
        Ok(Self {
            levels,
            len,
            width,
            max_symbol,
        })
    }

    fn serialized_size(&self) -> usize {
        8 + 4
            + 8
            + self
                .levels
                .iter()
                .map(Serialize::serialized_size)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example sequence from the paper's Figure 3: ABFECBCCADEF with
    /// A=0, B=1, C=2, D=3, E=4, F=5.
    fn paper_sequence() -> Vec<u64> {
        vec![0, 1, 5, 4, 2, 1, 2, 2, 0, 3, 4, 5]
    }

    #[test]
    fn paper_figure_3_access() {
        let wt = WaveletTree::new(&paper_sequence());
        for (i, &v) in paper_sequence().iter().enumerate() {
            assert_eq!(wt.access(i), v, "position {i}");
        }
    }

    #[test]
    fn paper_figure_3_rank() {
        let wt = WaveletTree::new(&paper_sequence());
        // C (=2) appears at positions 4, 6, 7.
        assert_eq!(wt.rank(0, 2), 0);
        assert_eq!(wt.rank(5, 2), 1);
        assert_eq!(wt.rank(7, 2), 2);
        assert_eq!(wt.rank(12, 2), 3);
        // F (=5) appears at positions 2 and 11.
        assert_eq!(wt.rank(12, 5), 2);
    }

    #[test]
    fn paper_figure_3_select() {
        let wt = WaveletTree::new(&paper_sequence());
        assert_eq!(wt.select(1, 2), Some(4));
        assert_eq!(wt.select(2, 2), Some(6));
        assert_eq!(wt.select(3, 2), Some(7));
        assert_eq!(wt.select(4, 2), None);
        assert_eq!(wt.select(1, 0), Some(0));
        assert_eq!(wt.select(2, 0), Some(8));
        assert_eq!(wt.select(1, 3), Some(9));
    }

    #[test]
    fn range_search_paper_sequence() {
        let wt = WaveletTree::new(&paper_sequence());
        assert_eq!(wt.range_search(0, 12, 2), vec![4, 6, 7]);
        assert_eq!(wt.range_search(5, 8, 2), vec![6, 7]);
        assert_eq!(wt.range_search(5, 7, 2), vec![6]);
        assert_eq!(wt.range_search(0, 12, 99), Vec::<usize>::new());
        assert_eq!(wt.range_search(4, 4, 2), Vec::<usize>::new());
    }

    #[test]
    fn empty_tree() {
        let wt = WaveletTree::new(&[]);
        assert!(wt.is_empty());
        assert_eq!(wt.rank(0, 0), 0);
        assert_eq!(wt.select(1, 0), None);
        assert_eq!(wt.range_search(0, 0, 0), Vec::<usize>::new());
    }

    #[test]
    fn single_symbol() {
        let wt = WaveletTree::new(&[7]);
        assert_eq!(wt.access(0), 7);
        assert_eq!(wt.rank(1, 7), 1);
        assert_eq!(wt.select(1, 7), Some(0));
        assert_eq!(wt.rank(1, 6), 0);
    }

    #[test]
    fn all_same_symbol() {
        let wt = WaveletTree::new(&[3; 100]);
        assert_eq!(wt.rank(100, 3), 100);
        assert_eq!(wt.select(50, 3), Some(49));
        assert_eq!(wt.rank(100, 2), 0);
        assert_eq!(wt.rank(100, 0), 0);
    }

    #[test]
    fn all_zeros() {
        let wt = WaveletTree::new(&[0; 64]);
        assert_eq!(wt.width(), 1);
        assert_eq!(wt.rank(64, 0), 64);
        assert_eq!(wt.select(64, 0), Some(63));
        assert_eq!(wt.select(65, 0), None);
    }

    #[test]
    fn symbol_above_max_is_absent() {
        let wt = WaveletTree::new(&[1, 2, 3]);
        assert_eq!(wt.rank(3, 100), 0);
        assert_eq!(wt.select(1, 100), None);
    }

    #[test]
    fn large_symbols() {
        let values = vec![u64::MAX, 0, u64::MAX / 2, 1, u64::MAX];
        let wt = WaveletTree::new(&values);
        assert_eq!(wt.width(), 64);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(wt.access(i), v);
        }
        assert_eq!(wt.rank(5, u64::MAX), 2);
        assert_eq!(wt.select(2, u64::MAX), Some(4));
    }

    #[test]
    fn iter_matches_access() {
        let values: Vec<u64> = (0..200).map(|i| (i * 31) % 17).collect();
        let wt = WaveletTree::new(&values);
        assert_eq!(wt.iter().collect::<Vec<_>>(), values);
    }

    #[test]
    fn serialization_roundtrip() {
        let values: Vec<u64> = (0..333).map(|i| (i * 7) % 50).collect();
        let wt = WaveletTree::new(&values);
        let buf = wt.to_bytes();
        assert_eq!(buf.len(), wt.serialized_size());
        let back = WaveletTree::from_bytes(&buf).unwrap();
        assert_eq!(wt, back);
        assert_eq!(back.access(100), values[100]);
        // The leading length field, overstated.
        let mut bad = buf.clone();
        bad[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(WaveletTree::from_bytes(&bad).is_err());
    }

    #[test]
    fn count_range() {
        let values = vec![1, 2, 1, 1, 3, 1, 2];
        let wt = WaveletTree::new(&values);
        assert_eq!(wt.count_range(0, 7, 1), 4);
        assert_eq!(wt.count_range(1, 4, 1), 2);
        assert_eq!(wt.count_range(0, 0, 1), 0);
        assert_eq!(wt.count_range(4, 5, 3), 1);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn matches_naive(values in proptest::collection::vec(0u64..64, 0..500)) {
                let wt = WaveletTree::new(&values);
                prop_assert_eq!(wt.len(), values.len());
                for (i, &v) in values.iter().enumerate() {
                    prop_assert_eq!(wt.access(i), v, "access({})", i);
                }
                // rank/select against a naive scan for a few symbols
                for symbol in [0u64, 1, 7, 31, 63] {
                    let occ: Vec<usize> = values
                        .iter()
                        .enumerate()
                        .filter(|(_, &v)| v == symbol)
                        .map(|(i, _)| i)
                        .collect();
                    prop_assert_eq!(wt.rank(values.len(), symbol), occ.len());
                    for (k, &p) in occ.iter().enumerate() {
                        prop_assert_eq!(wt.select(k + 1, symbol), Some(p));
                    }
                    prop_assert_eq!(wt.select(occ.len() + 1, symbol), None);
                }
            }

            #[test]
            fn range_search_matches_scan(
                values in proptest::collection::vec(0u64..16, 1..300),
                symbol in 0u64..16,
                range in (0usize..300, 0usize..300),
            ) {
                let n = values.len();
                let (a, b) = (range.0.min(n), range.1.min(n));
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                let wt = WaveletTree::new(&values);
                let expected: Vec<usize> = (a..b).filter(|&i| values[i] == symbol).collect();
                prop_assert_eq!(wt.range_search(a, b, symbol), expected);
            }

            #[test]
            fn sparse_alphabet(values in proptest::collection::vec(
                prop_oneof![Just(0u64), Just(1_000_000u64), Just(123u64), Just(u64::MAX / 3)],
                0..200,
            )) {
                let wt = WaveletTree::new(&values);
                for (i, &v) in values.iter().enumerate() {
                    prop_assert_eq!(wt.access(i), v);
                }
            }
        }
    }
}
