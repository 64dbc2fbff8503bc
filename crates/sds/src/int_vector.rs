//! Fixed-width packed integer vector (the analogue of sdsl's `int_vector`).
//!
//! Stores `n` integers of `width` bits each in `⌈n·width/64⌉` words. Used by
//! the wavelet-tree builder and by the flat literal store of the
//! Datatype-triple layer.

use crate::serialize::{capped, ReadBin, Serialize, WriteBin};
use crate::{bits_for, HeapSize};
use std::io;

/// A packed vector of fixed-width unsigned integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntVector {
    words: Vec<u64>,
    len: usize,
    width: u32,
}

impl IntVector {
    /// Creates an empty vector whose elements use `width` bits (1..=64).
    ///
    /// # Panics
    /// Panics if `width` is 0 or greater than 64.
    pub fn new(width: u32) -> Self {
        assert!(
            (1..=64).contains(&width),
            "width must be in 1..=64, got {width}"
        );
        Self {
            words: Vec::new(),
            len: 0,
            width,
        }
    }

    /// Creates an empty vector with room for `n` elements of `width` bits.
    pub fn with_capacity(width: u32, n: usize) -> Self {
        assert!(
            (1..=64).contains(&width),
            "width must be in 1..=64, got {width}"
        );
        Self {
            words: Vec::with_capacity((n * width as usize).div_ceil(64)),
            len: 0,
            width,
        }
    }

    /// Builds a vector wide enough for every value in `values`.
    pub fn from_slice(values: &[u64]) -> Self {
        let max = values.iter().copied().max().unwrap_or(0);
        let mut iv = Self::with_capacity(bits_for(max), values.len());
        for &v in values {
            iv.push(v);
        }
        iv
    }

    /// Element width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `v`.
    ///
    /// # Panics
    /// Panics if `v` does not fit in `width` bits.
    pub fn push(&mut self, v: u64) {
        assert!(
            self.width == 64 || v < (1u64 << self.width),
            "value {v} does not fit in {} bits",
            self.width
        );
        let bit_pos = self.len * self.width as usize;
        let word = bit_pos / 64;
        let offset = bit_pos % 64;
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= v << offset;
        let spill = offset as u32 + self.width;
        if spill > 64 {
            self.words.push(v >> (64 - offset));
        }
        self.len += 1;
    }

    /// Returns the element at `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let bit_pos = i * self.width as usize;
        let word = bit_pos / 64;
        let offset = (bit_pos % 64) as u32;
        let mask = if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        let lo = self.words[word] >> offset;
        if offset + self.width <= 64 {
            lo & mask
        } else {
            (lo | (self.words[word + 1] << (64 - offset))) & mask
        }
    }

    /// Overwrites the element at `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()` or `v` does not fit in `width` bits.
    pub fn set(&mut self, i: usize, v: u64) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        assert!(
            self.width == 64 || v < (1u64 << self.width),
            "value {v} does not fit in {} bits",
            self.width
        );
        let bit_pos = i * self.width as usize;
        let word = bit_pos / 64;
        let offset = (bit_pos % 64) as u32;
        let mask = if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        self.words[word] &= !(mask << offset);
        self.words[word] |= v << offset;
        if offset + self.width > 64 {
            let hi_bits = offset + self.width - 64;
            let hi_mask = (1u64 << hi_bits) - 1;
            self.words[word + 1] &= !hi_mask;
            self.words[word + 1] |= v >> (64 - offset);
        }
    }

    /// Iterates over all elements.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Copies the contents into a plain `Vec<u64>`.
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

impl HeapSize for IntVector {
    fn heap_size(&self) -> usize {
        self.words.capacity() * 8
    }
}

impl Serialize for IntVector {
    fn serialize<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_u64(self.len as u64)?;
        w.write_u32(self.width)?;
        for word in &self.words {
            w.write_u64(*word)?;
        }
        Ok(())
    }

    fn deserialize<R: io::Read>(r: &mut R) -> io::Result<Self> {
        let len = r.read_u64()?;
        let width = r.read_u32()?;
        if !(1..=64).contains(&width) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad int-vector width",
            ));
        }
        let n_words = len
            .checked_mul(u64::from(width))
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "int-vector size overflows"))?
            .div_ceil(64);
        let mut words = Vec::with_capacity(capped(n_words));
        for _ in 0..n_words {
            words.push(r.read_u64()?);
        }
        Ok(Self {
            words,
            len: len as usize,
            width,
        })
    }

    fn serialized_size(&self) -> usize {
        8 + 4 + self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hostile length must fail on the missing words — and `len *
    /// width` overflowing must be an error — not abort on an up-front
    /// reservation.
    #[test]
    fn hostile_length_is_an_error() {
        for width in [1u32, 64] {
            let mut bytes = u64::MAX.to_le_bytes().to_vec();
            bytes.extend_from_slice(&width.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 16]);
            assert!(IntVector::from_bytes(&bytes).is_err(), "width {width}");
        }
    }

    #[test]
    fn push_get_width_7() {
        let mut iv = IntVector::new(7);
        let values: Vec<u64> = (0..200).map(|i| (i * 37) % 128).collect();
        for &v in &values {
            iv.push(v);
        }
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(iv.get(i), v, "index {i}");
        }
    }

    #[test]
    fn width_64_roundtrip() {
        let mut iv = IntVector::new(64);
        iv.push(u64::MAX);
        iv.push(0);
        iv.push(42);
        assert_eq!(iv.get(0), u64::MAX);
        assert_eq!(iv.get(1), 0);
        assert_eq!(iv.get(2), 42);
    }

    #[test]
    fn width_1_behaves_like_bitvec() {
        let mut iv = IntVector::new(1);
        for i in 0..150 {
            iv.push(u64::from(i % 2 == 0));
        }
        for i in 0..150 {
            assert_eq!(iv.get(i), u64::from(i % 2 == 0));
        }
    }

    #[test]
    fn spanning_word_boundary() {
        // width 33: second element crosses the first word boundary.
        let mut iv = IntVector::new(33);
        let values = [0x1_2345_6789u64, 0x1_FFFF_FFFF, 0, 0x0_DEAD_BEEF];
        for &v in &values {
            iv.push(v);
        }
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(iv.get(i), v, "index {i}");
        }
    }

    #[test]
    fn set_overwrites() {
        let mut iv = IntVector::from_slice(&[5, 10, 15, 20]);
        iv.set(1, 11);
        iv.set(3, 0);
        assert_eq!(iv.to_vec(), vec![5, 11, 15, 0]);
    }

    #[test]
    fn set_across_boundary() {
        let mut iv = IntVector::new(61);
        for _ in 0..10 {
            iv.push(0);
        }
        iv.set(1, (1u64 << 61) - 1);
        iv.set(2, 12345);
        assert_eq!(iv.get(0), 0);
        assert_eq!(iv.get(1), (1u64 << 61) - 1);
        assert_eq!(iv.get(2), 12345);
        assert_eq!(iv.get(3), 0);
    }

    #[test]
    fn from_slice_picks_width() {
        let iv = IntVector::from_slice(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(iv.width(), 3);
        assert_eq!(iv.to_vec(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let iv = IntVector::from_slice(&[]);
        assert!(iv.is_empty());
        assert_eq!(iv.width(), 1);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_too_wide_panics() {
        let mut iv = IntVector::new(3);
        iv.push(8);
    }

    #[test]
    fn serialization_roundtrip() {
        let values: Vec<u64> = (0..500).map(|i| (i * 7919) % 1000).collect();
        let iv = IntVector::from_slice(&values);
        let buf = iv.to_bytes();
        assert_eq!(buf.len(), iv.serialized_size());
        let back = IntVector::from_bytes(&buf).unwrap();
        assert_eq!(iv, back);
    }

    #[test]
    fn deserialize_rejects_bad_width() {
        let mut buf = Vec::new();
        buf.write_u64(3).unwrap();
        buf.write_u32(65).unwrap();
        assert!(IntVector::from_bytes(&buf).is_err());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip_any_width(
                width in 1u32..=64,
                raw in proptest::collection::vec(any::<u64>(), 0..300),
            ) {
                let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
                let values: Vec<u64> = raw.iter().map(|v| v & mask).collect();
                let mut iv = IntVector::new(width);
                for &v in &values {
                    iv.push(v);
                }
                prop_assert_eq!(iv.len(), values.len());
                for (i, &v) in values.iter().enumerate() {
                    prop_assert_eq!(iv.get(i), v);
                }
                let back = IntVector::from_bytes(&iv.to_bytes()).unwrap();
                prop_assert_eq!(back.to_vec(), values);
            }
        }
    }
}
