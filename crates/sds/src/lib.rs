//! # se-sds — succinct data structures for SuccinctEdge
//!
//! This crate implements the succinct-data-structure (SDS) substrate that the
//! SuccinctEdge RDF store (EDBT 2021) builds on, replacing the C++
//! `sdsl-lite` library used by the paper:
//!
//! * [`BitVec`] — a growable, word-packed bit vector;
//! * [`RsBitVec`] — a static bit vector with *O(1)* `rank` and
//!   near-*O(1)* `select` (two-level rank directory + sampled select hints);
//! * [`IntVector`] — a fixed-width packed integer vector (the analogue of
//!   sdsl's `int_vector`);
//! * [`WaveletTree`] — a pointerless (level-wise) wavelet tree over an
//!   integer sequence supporting `access`, `rank`, `select` and the
//!   `range_search` operation of the paper (§5.2) in *O(log σ)*.
//!
//! All structures expose [`HeapSize::heap_size`] (RAM-footprint accounting
//! for the paper's Figure 11) and a compact binary serialization
//! ([`Serialize`]) used for the on-disk size comparisons (Figures 9 and 10).

pub mod bitvec;
pub mod int_vector;
pub mod rank_select;
pub mod serialize;
pub mod wavelet_tree;

pub use bitvec::BitVec;
pub use int_vector::IntVector;
pub use rank_select::RsBitVec;
pub use serialize::{
    capped, checksum64, expect_section, read_container_header, read_section, read_section_from,
    write_container_header, write_section, ContainerError, ReadBin, Serialize, WriteBin,
};
pub use wavelet_tree::WaveletTree;

/// Number of bits needed to represent `v` (at least 1).
#[inline]
pub fn bits_for(v: u64) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

/// RAM-footprint accounting used to reproduce the paper's Figure 11
/// (main-memory comparison of the in-memory systems).
pub trait HeapSize {
    /// Bytes of heap memory owned by this value (excluding `size_of::<Self>()`).
    fn heap_size(&self) -> usize;

    /// Total in-memory footprint: stack size plus owned heap bytes.
    fn total_size(&self) -> usize
    where
        Self: Sized,
    {
        std::mem::size_of::<Self>() + self.heap_size()
    }
}

impl HeapSize for Vec<u64> {
    fn heap_size(&self) -> usize {
        self.capacity() * std::mem::size_of::<u64>()
    }
}

impl HeapSize for Vec<u32> {
    fn heap_size(&self) -> usize {
        self.capacity() * std::mem::size_of::<u32>()
    }
}

impl HeapSize for String {
    fn heap_size(&self) -> usize {
        self.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_small_values() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn heap_size_vec() {
        let v: Vec<u64> = Vec::with_capacity(10);
        assert_eq!(v.heap_size(), 80);
    }
}
