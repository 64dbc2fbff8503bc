//! A growable, word-packed bit vector.
//!
//! [`BitVec`] is the mutable building block used while *constructing* the
//! SuccinctEdge layers; once construction is finished it is frozen into an
//! [`crate::RsBitVec`] which adds the rank/select directories.

use crate::serialize::{capped, ReadBin, Serialize, WriteBin};
use crate::HeapSize;
use std::io;

/// A growable sequence of bits packed into `u64` words (LSB-first).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit vector with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no bits are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Returns the bit at `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of bounds (len {})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit at `i` to `bit`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of bounds (len {})",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits in the whole vector (computed by scanning).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words (the final word may contain trailing zero padding).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over all bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Builds a bit vector from an iterator of bools.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut bv = Self::new();
        for b in bits {
            bv.push(b);
        }
        bv
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bits(iter)
    }
}

impl HeapSize for BitVec {
    fn heap_size(&self) -> usize {
        self.words.capacity() * 8
    }
}

impl Serialize for BitVec {
    fn serialize<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_u64(self.len as u64)?;
        for word in &self.words {
            w.write_u64(*word)?;
        }
        Ok(())
    }

    fn deserialize<R: io::Read>(r: &mut R) -> io::Result<Self> {
        let len = r.read_u64()?;
        let n_words = len.div_ceil(64);
        let mut words = Vec::with_capacity(capped(n_words));
        for _ in 0..n_words {
            words.push(r.read_u64()?);
        }
        Ok(Self {
            words,
            len: len as usize,
        })
    }

    fn serialized_size(&self) -> usize {
        8 + self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hostile bit count must fail on the missing words, not abort on
    /// an up-front reservation.
    #[test]
    fn hostile_length_is_an_error() {
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(BitVec::from_bytes(&bytes).is_err());
    }

    #[test]
    fn push_and_get() {
        let mut bv = BitVec::new();
        let pattern = [true, false, true, true, false, false, true];
        for &b in &pattern {
            bv.push(b);
        }
        assert_eq!(bv.len(), 7);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bv.get(i), b, "bit {i}");
        }
    }

    #[test]
    fn crosses_word_boundary() {
        let mut bv = BitVec::new();
        for i in 0..200 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 200);
        for i in 0..200 {
            assert_eq!(bv.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bv.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn set_bits() {
        let mut bv = BitVec::zeros(130);
        assert_eq!(bv.count_ones(), 0);
        bv.set(0, true);
        bv.set(64, true);
        bv.set(129, true);
        assert_eq!(bv.count_ones(), 3);
        assert!(bv.get(0) && bv.get(64) && bv.get(129));
        bv.set(64, false);
        assert_eq!(bv.count_ones(), 2);
        assert!(!bv.get(64));
    }

    #[test]
    fn zeros_has_right_len() {
        let bv = BitVec::zeros(0);
        assert!(bv.is_empty());
        let bv = BitVec::zeros(65);
        assert_eq!(bv.len(), 65);
        assert_eq!(bv.words().len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let bv = BitVec::zeros(10);
        bv.get(10);
    }

    #[test]
    fn from_iterator() {
        let bv: BitVec = (0..100).map(|i| i % 2 == 0).collect();
        assert_eq!(bv.len(), 100);
        assert_eq!(bv.count_ones(), 50);
    }

    #[test]
    fn roundtrip_serialization() {
        let bv: BitVec = (0..137).map(|i| i % 5 == 0).collect();
        let mut buf = Vec::new();
        bv.serialize(&mut buf).unwrap();
        assert_eq!(buf.len(), bv.serialized_size());
        let back = BitVec::deserialize(&mut buf.as_slice()).unwrap();
        assert_eq!(bv, back);
    }

    #[test]
    fn iter_matches_get() {
        let bv: BitVec = (0..70).map(|i| i % 7 < 3).collect();
        let collected: Vec<bool> = bv.iter().collect();
        for (i, b) in collected.iter().enumerate() {
            assert_eq!(*b, bv.get(i));
        }
    }
}
