//! Minimal binary serialization used for the on-disk size experiments
//! (paper Figures 9 and 10: dictionary and triple-storage sizes persisted to
//! an SD card).
//!
//! All integers are written little-endian. The format is deliberately dumb
//! and compact — it mirrors what the paper does when it "persists all the
//! data structures existing in SuccinctEdge to disk in order to make a fair
//! comparison" (§7.3.2).

use std::io;

/// Little-endian integer writing on top of any [`io::Write`].
pub trait WriteBin: io::Write {
    fn write_u64(&mut self, v: u64) -> io::Result<()> {
        self.write_all(&v.to_le_bytes())
    }
    fn write_u32(&mut self, v: u32) -> io::Result<()> {
        self.write_all(&v.to_le_bytes())
    }
    fn write_u8(&mut self, v: u8) -> io::Result<()> {
        self.write_all(&[v])
    }
    /// Length-prefixed UTF-8 string.
    fn write_str(&mut self, s: &str) -> io::Result<()> {
        self.write_u64(s.len() as u64)?;
        self.write_all(s.as_bytes())
    }
}

impl<W: io::Write + ?Sized> WriteBin for W {}

/// Little-endian integer reading on top of any [`io::Read`].
pub trait ReadBin: io::Read {
    fn read_u64(&mut self) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        self.read_exact(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }
    fn read_u32(&mut self) -> io::Result<u32> {
        let mut buf = [0u8; 4];
        self.read_exact(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }
    fn read_u8(&mut self) -> io::Result<u8> {
        let mut buf = [0u8; 1];
        self.read_exact(&mut buf)?;
        Ok(buf[0])
    }
    /// Length-prefixed UTF-8 string. The declared length is untrusted
    /// (it may come off the network or a corrupted file): reading goes
    /// through `take` + `read_to_end` so a hostile length yields a clean
    /// `UnexpectedEof` when the source runs dry instead of an up-front
    /// `vec![0; huge]` allocation aborting the process.
    fn read_str(&mut self) -> io::Result<String> {
        let len = self.read_u64()?;
        let mut buf = Vec::new();
        let n = io::Read::read_to_end(&mut io::Read::take(&mut *self, len), &mut buf)?;
        if n as u64 != len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("string declared {len} bytes, only {n} available"),
            ));
        }
        String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl<R: io::Read + ?Sized> ReadBin for R {}

/// Caps a pre-allocation driven by an untrusted length prefix (on-disk or
/// on-the-wire): the vector still grows to the real element count as
/// parsing proceeds, but a corrupted (huge) count can no longer abort the
/// process on an up-front `with_capacity` before truncation is detected.
pub fn capped(n: u64) -> usize {
    n.min(1 << 16) as usize
}

/// Compact binary serialization with a known size.
pub trait Serialize: Sized {
    /// Writes `self` to `w`.
    fn serialize<W: io::Write>(&self, w: &mut W) -> io::Result<()>;
    /// Reads a value previously written by [`Serialize::serialize`].
    fn deserialize<R: io::Read>(r: &mut R) -> io::Result<Self>;
    /// Exact number of bytes [`Serialize::serialize`] will write.
    fn serialized_size(&self) -> usize;

    /// Serializes into a fresh byte buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.serialized_size());
        self.serialize(&mut buf)
            .expect("serializing to Vec cannot fail");
        buf
    }

    /// Deserializes from a byte slice.
    fn from_bytes(mut bytes: &[u8]) -> io::Result<Self> {
        Self::deserialize(&mut bytes)
    }
}

// ---------------------------------------------------------------- container
//
// The versioned container layer underneath the stream-persistence v02
// formats: every file is a fixed 12-byte header (8-byte magic +
// little-endian u32 format version) followed by a sequence of *sections*.
// A section is self-describing and self-verifying:
//
// ```text
// [tag: 4 ASCII bytes][len: u64 LE][payload: len bytes][checksum: u64 LE]
// ```
//
// where `checksum` is FNV-1a over the payload bytes. Readers can thus
// distinguish the four corruption classes the stream layer reports
// separately: wrong magic (not our file), unsupported version (file from
// the future), truncation (EOF inside a header or payload) and bit rot
// (checksum mismatch). Unknown *sections* are skippable by construction
// (length-prefixed), which is what lets a v02 reader ignore additions a
// v03 writer may append.

/// FNV-1a 64-bit checksum — cheap corruption detection for the container
/// sections (not cryptographic).
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What can go wrong reading a container file. Each corruption class is
/// distinguishable so callers can surface structured errors.
#[derive(Debug)]
pub enum ContainerError {
    /// Underlying I/O failed (including clean EOF between sections).
    Io(io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// The magic the reader expected.
        expected: [u8; 8],
        /// What the file actually starts with.
        found: [u8; 8],
    },
    /// The header declares a format version newer than this build reads.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Highest version this reader supports.
        max_supported: u32,
    },
    /// A section ended prematurely (EOF inside its declared payload).
    Truncated {
        /// Tag of the truncated section, as ASCII.
        section: [u8; 4],
    },
    /// A section's payload does not match its recorded checksum.
    Checksum {
        /// Tag of the corrupt section, as ASCII.
        section: [u8; 4],
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the bytes actually read.
        found: u64,
    },
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = |t: &[u8; 4]| String::from_utf8_lossy(t).into_owned();
        match self {
            ContainerError::Io(e) => write!(f, "container I/O failed: {e}"),
            ContainerError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            ContainerError::UnsupportedVersion {
                found,
                max_supported,
            } => write!(
                f,
                "unsupported format version {found} (this build reads up to {max_supported})"
            ),
            ContainerError::Truncated { section } => {
                write!(f, "section '{}' truncated", tag(section))
            }
            ContainerError::Checksum {
                section,
                expected,
                found,
            } => write!(
                f,
                "section '{}' checksum mismatch: recorded {expected:#018x}, computed {found:#018x}",
                tag(section)
            ),
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ContainerError {
    fn from(e: io::Error) -> Self {
        ContainerError::Io(e)
    }
}

/// Writes the 12-byte container header.
pub fn write_container_header<W: io::Write>(
    w: &mut W,
    magic: &[u8; 8],
    version: u32,
) -> io::Result<()> {
    w.write_all(magic)?;
    w.write_u32(version)
}

/// Reads and validates a container header, returning the file's format
/// version (which must be `1..=max_supported`).
pub fn read_container_header<R: io::Read>(
    r: &mut R,
    magic: &[u8; 8],
    max_supported: u32,
) -> Result<u32, ContainerError> {
    let mut found = [0u8; 8];
    r.read_exact(&mut found)?;
    if &found != magic {
        return Err(ContainerError::BadMagic {
            expected: *magic,
            found,
        });
    }
    let version = r.read_u32()?;
    if version == 0 || version > max_supported {
        return Err(ContainerError::UnsupportedVersion {
            found: version,
            max_supported,
        });
    }
    Ok(version)
}

/// Writes one checksummed section.
pub fn write_section<W: io::Write>(w: &mut W, tag: &[u8; 4], payload: &[u8]) -> io::Result<()> {
    w.write_all(tag)?;
    w.write_u64(payload.len() as u64)?;
    w.write_all(payload)?;
    w.write_u64(checksum64(payload))
}

/// Reads one section, verifying its checksum. Returns `(tag, payload)`.
pub fn read_section<R: io::Read>(r: &mut R) -> Result<([u8; 4], Vec<u8>), ContainerError> {
    use io::Read as _;
    let mut tag = [0u8; 4];
    r.read_exact(&mut tag)?;
    let len = r
        .read_u64()
        .map_err(|_| ContainerError::Truncated { section: tag })?;
    // Never trust the on-disk length with an up-front allocation: a
    // corrupted (huge) len would abort on an infallible alloc before the
    // truncation could be reported. `take` + `read_to_end` grows the
    // buffer only as far as real input exists.
    let mut payload = Vec::new();
    let read = r
        .take(len)
        .read_to_end(&mut payload)
        .map_err(|_| ContainerError::Truncated { section: tag })?;
    if (read as u64) < len {
        return Err(ContainerError::Truncated { section: tag });
    }
    let expected = r
        .read_u64()
        .map_err(|_| ContainerError::Truncated { section: tag })?;
    let found = checksum64(&payload);
    if expected != found {
        return Err(ContainerError::Checksum {
            section: tag,
            expected,
            found,
        });
    }
    Ok((tag, payload))
}

/// Parses one section from the front of `buf` without copying, returning
/// `(tag, payload, consumed_bytes)`. Unlike [`read_section`] the caller
/// learns the frame's exact extent, which log-structured readers need:
/// a checksum mismatch on a frame that runs to the very end of a file is
/// a torn write, while one followed by more bytes is bit rot.
pub fn read_section_from(buf: &[u8]) -> Result<([u8; 4], &[u8], usize), ContainerError> {
    let mut tag = [0u8; 4];
    if buf.len() < 4 {
        tag[..buf.len()].copy_from_slice(buf);
        return Err(ContainerError::Truncated { section: tag });
    }
    tag.copy_from_slice(&buf[..4]);
    if buf.len() < 12 {
        return Err(ContainerError::Truncated { section: tag });
    }
    let len = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    // The declared length is untrusted: checked arithmetic so a corrupted
    // (huge) len reports truncation instead of overflowing.
    let end = (len.checked_add(20))
        .filter(|total| *total <= buf.len() as u64)
        .ok_or(ContainerError::Truncated { section: tag })? as usize;
    let payload = &buf[12..end - 8];
    let expected = u64::from_le_bytes(buf[end - 8..end].try_into().unwrap());
    let found = checksum64(payload);
    if expected != found {
        return Err(ContainerError::Checksum {
            section: tag,
            expected,
            found,
        });
    }
    Ok((tag, payload, end))
}

/// Reads the next section and checks it carries `tag` — the reader-side
/// contract for formats whose section order is fixed.
pub fn expect_section<R: io::Read>(r: &mut R, tag: &[u8; 4]) -> Result<Vec<u8>, ContainerError> {
    let (found, payload) = read_section(r)?;
    if &found != tag {
        return Err(ContainerError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "expected section '{}', found '{}'",
                String::from_utf8_lossy(tag),
                String::from_utf8_lossy(&found)
            ),
        )));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        let mut buf = Vec::new();
        buf.write_u64(0xDEAD_BEEF_CAFE_BABE).unwrap();
        assert_eq!(buf.len(), 8);
        let v = buf.as_slice().read_u64().unwrap();
        assert_eq!(v, 0xDEAD_BEEF_CAFE_BABE);
    }

    #[test]
    fn str_roundtrip() {
        let mut buf = Vec::new();
        buf.write_str("hello ünïcode").unwrap();
        let s = buf.as_slice().read_str().unwrap();
        assert_eq!(s, "hello ünïcode");
    }

    #[test]
    fn str_rejects_invalid_utf8() {
        let mut buf = Vec::new();
        buf.write_u64(2).unwrap();
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(buf.as_slice().read_str().is_err());
    }

    #[test]
    fn read_past_end_errors() {
        let buf = [1u8, 2, 3];
        assert!(buf.as_slice().read_u64().is_err());
    }

    const MAGIC: &[u8; 8] = b"TESTMAGC";

    #[test]
    fn container_roundtrip() {
        let mut buf = Vec::new();
        write_container_header(&mut buf, MAGIC, 2).unwrap();
        write_section(&mut buf, b"ALFA", b"hello").unwrap();
        write_section(&mut buf, b"BETA", &[]).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_container_header(&mut r, MAGIC, 2).unwrap(), 2);
        assert_eq!(expect_section(&mut r, b"ALFA").unwrap(), b"hello");
        let (tag, payload) = read_section(&mut r).unwrap();
        assert_eq!(&tag, b"BETA");
        assert!(payload.is_empty());
    }

    #[test]
    fn container_rejects_bad_magic() {
        let mut buf = Vec::new();
        write_container_header(&mut buf, b"WRONGMGC", 2).unwrap();
        assert!(matches!(
            read_container_header(&mut buf.as_slice(), MAGIC, 2),
            Err(ContainerError::BadMagic { .. })
        ));
    }

    #[test]
    fn container_rejects_future_version() {
        let mut buf = Vec::new();
        write_container_header(&mut buf, MAGIC, 9).unwrap();
        assert!(matches!(
            read_container_header(&mut buf.as_slice(), MAGIC, 2),
            Err(ContainerError::UnsupportedVersion {
                found: 9,
                max_supported: 2
            })
        ));
    }

    #[test]
    fn section_from_slice_reports_consumed_bytes() {
        let mut buf = Vec::new();
        write_section(&mut buf, b"ALFA", b"one").unwrap();
        let first_len = buf.len();
        write_section(&mut buf, b"BETA", b"two!").unwrap();
        let (tag, payload, used) = read_section_from(&buf).unwrap();
        assert_eq!((&tag, payload, used), (b"ALFA", &b"one"[..], first_len));
        let (tag, payload, used) = read_section_from(&buf[first_len..]).unwrap();
        assert_eq!(
            (&tag, payload, used),
            (b"BETA", &b"two!"[..], buf.len() - first_len)
        );

        // Truncation anywhere inside the frame, including a huge declared
        // length, is Truncated; a flipped payload bit is Checksum.
        for cut in [1, 5, 11, first_len - 1] {
            assert!(matches!(
                read_section_from(&buf[..cut]),
                Err(ContainerError::Truncated { .. })
            ));
        }
        let mut huge = buf.clone();
        huge[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_section_from(&huge),
            Err(ContainerError::Truncated { .. })
        ));
        let mut corrupt = buf.clone();
        corrupt[13] ^= 0x01;
        assert!(matches!(
            read_section_from(&corrupt),
            Err(ContainerError::Checksum { .. })
        ));
    }

    #[test]
    fn container_detects_truncation_and_corruption() {
        let mut buf = Vec::new();
        write_section(&mut buf, b"ALFA", b"payload bytes").unwrap();
        // Truncated inside the payload.
        let cut = &buf[..buf.len() - 12];
        assert!(matches!(
            read_section(&mut &cut[..]),
            Err(ContainerError::Truncated { section }) if &section == b"ALFA"
        ));
        // One flipped payload bit.
        let mut corrupt = buf.clone();
        corrupt[4 + 8] ^= 0x40;
        assert!(matches!(
            read_section(&mut corrupt.as_slice()),
            Err(ContainerError::Checksum { section, .. }) if &section == b"ALFA"
        ));
    }
}
