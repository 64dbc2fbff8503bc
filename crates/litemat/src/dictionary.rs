//! The dictionaries of SuccinctEdge's architecture (paper §4).
//!
//! "Like most RDF stores, all triples are encoded according to some
//! dictionaries. [...] a dictionary should provide two basic operations:
//! `string-to-id` and `id-to-string`". SuccinctEdge uses:
//!
//! * a **concept dictionary** (LiteMat-encoded, bidirectional, with the
//!   local-length metadata of Figure 2(b));
//! * a **property dictionary** (LiteMat-encoded, same shape — covering both
//!   object and datatype properties);
//! * an **instance dictionary** ("each distinct entry is assigned an
//!   arbitrary unique integer value" §3.2).
//!
//! Every dictionary also persists *occurrence statistics* at creation time;
//! the query optimizer (§5.1) consults them, and for terms inside a
//! hierarchy the count of a term aggregates the counts of all its sub-terms
//! ("our statistic approach considers the hierarchy position of a given
//! concept or property when computing the total number of triples it is
//! involved in").

use crate::encoding::{IdInterval, LiteMatEncoding};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

// Local copies of the tiny binary-IO helpers (kept dependency-free; the
// sds crate is below this one in the dependency order by design choice:
// dictionaries do not need wavelet trees).
fn write_u64<W: io::Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn write_u32<W: io::Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn write_str<W: io::Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}
fn read_u64<R: io::Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
fn read_u32<R: io::Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
/// Length-prefixed UTF-8. The length is untrusted: the bytes are read
/// through `take`, so a hostile length fails on the missing input rather
/// than on an up-front allocation.
fn read_str<R: io::Read>(r: &mut R) -> io::Result<String> {
    let len = read_u64(r)?;
    let mut buf = Vec::new();
    if io::Read::read_to_end(&mut io::Read::take(&mut *r, len), &mut buf)? as u64 != len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Pre-allocation for an untrusted entry count (the vector still grows
/// to the real size as entries are read).
fn capped(n: u64) -> usize {
    n.min(1 << 16) as usize
}

/// A LiteMat-backed bidirectional dictionary for concepts or properties.
#[derive(Debug, Clone, Default)]
pub struct LiteMatDictionary {
    encoding: LiteMatEncoding,
    /// Occurrence count per identifier (own occurrences, not aggregated).
    counts: HashMap<u64, u64>,
}

impl LiteMatDictionary {
    /// Wraps a finished LiteMat encoding.
    pub fn new(encoding: LiteMatEncoding) -> Self {
        Self {
            encoding,
            counts: HashMap::new(),
        }
    }

    /// The `string-to-id` (`locate`) operation.
    pub fn id(&self, term: &str) -> Option<u64> {
        self.encoding.id(term)
    }

    /// The `id-to-string` (`extract`) operation.
    pub fn term(&self, id: u64) -> Option<&str> {
        self.encoding.term(id)
    }

    /// Zero-copy `extract`: the shared `Arc` of the term string.
    pub fn term_arc(&self, id: u64) -> Option<Arc<str>> {
        self.encoding.term_arc(id)
    }

    /// The subsumption interval of `term` (the reasoning primitive).
    pub fn interval(&self, term: &str) -> Option<IdInterval> {
        self.encoding.interval(term)
    }

    /// Access to the underlying encoding.
    pub fn encoding(&self) -> &LiteMatEncoding {
        &self.encoding
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.encoding.len()
    }

    /// `true` if the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.encoding.is_empty()
    }

    /// Records one occurrence of `id` (called during store construction).
    pub fn record_occurrence(&mut self, id: u64) {
        *self.counts.entry(id).or_insert(0) += 1;
    }

    /// Own occurrence count of `term` (not counting sub-terms).
    pub fn count(&self, term: &str) -> u64 {
        self.encoding
            .id(term)
            .and_then(|id| self.counts.get(&id).copied())
            .unwrap_or(0)
    }

    /// Hierarchy-aggregated count: occurrences of `term` plus all its
    /// direct and indirect sub-terms (§5.1's statistics).
    pub fn aggregated_count(&self, term: &str) -> u64 {
        let Some(iv) = self.encoding.interval(term) else {
            return 0;
        };
        self.counts
            .iter()
            .filter(|(id, _)| iv.contains(**id))
            .map(|(_, c)| *c)
            .sum()
    }

    /// Serialized size in bytes of the persistent form (both directions of
    /// the mapping, the local lengths and the statistics) — what the paper
    /// persists for the Figure 9 comparison.
    pub fn serialized_size(&self) -> usize {
        let mut n = 8 + 4; // entry count + total_len
        for (term, _) in self.encoding.iter() {
            n += 8 + term.len(); // length-prefixed string
            n += 8 + 4 + 8; // id + local_len + count
        }
        n
    }

    /// Writes the persistent form.
    pub fn serialize<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        write_u64(w, self.encoding.len() as u64)?;
        write_u32(w, self.encoding.total_len())?;
        for (term, enc) in self.encoding.iter() {
            write_str(w, term)?;
            write_u64(w, enc.id)?;
            write_u32(w, enc.local_len)?;
            write_u64(w, self.counts.get(&enc.id).copied().unwrap_or(0))?;
        }
        Ok(())
    }

    /// Reads the persistent form written by [`LiteMatDictionary::serialize`].
    pub fn deserialize<R: io::Read>(r: &mut R) -> io::Result<Self> {
        let n = read_u64(r)?;
        let total_len = read_u32(r)?;
        let mut entries = Vec::with_capacity(capped(n));
        let mut counts = HashMap::new();
        for _ in 0..n {
            let term = read_str(r)?;
            let id = read_u64(r)?;
            let local_len = read_u32(r)?;
            let count = read_u64(r)?;
            if count > 0 {
                counts.insert(id, count);
            }
            entries.push((term, id, local_len));
        }
        Ok(Self {
            encoding: LiteMatEncoding::from_entries(total_len, entries),
            counts,
        })
    }
}

/// The instance dictionary: dense, arbitrary integer identifiers.
#[derive(Debug, Clone, Default)]
pub struct InstanceDictionary {
    str_to_id: HashMap<Arc<str>, u64>,
    id_to_str: Vec<Arc<str>>,
    counts: Vec<u64>,
}

impl InstanceDictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the identifier of `term`, inserting it if new. Identifiers
    /// are dense: `0..len`.
    pub fn get_or_insert(&mut self, term: &str) -> u64 {
        if let Some(&id) = self.str_to_id.get(term) {
            return id;
        }
        let id = self.id_to_str.len() as u64;
        let arc: Arc<str> = Arc::from(term);
        self.str_to_id.insert(arc.clone(), id);
        self.id_to_str.push(arc);
        self.counts.push(0);
        id
    }

    /// The `string-to-id` operation.
    pub fn id(&self, term: &str) -> Option<u64> {
        self.str_to_id.get(term).copied()
    }

    /// The `id-to-string` operation.
    pub fn term(&self, id: u64) -> Option<&str> {
        self.id_to_str.get(id as usize).map(|s| &**s)
    }

    /// Zero-copy `id-to-string`: the shared `Arc` of the stored key.
    pub fn term_arc(&self, id: u64) -> Option<Arc<str>> {
        self.id_to_str.get(id as usize).cloned()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.id_to_str.len()
    }

    /// `true` if the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.id_to_str.is_empty()
    }

    /// Records one occurrence of `id`.
    pub fn record_occurrence(&mut self, id: u64) {
        if let Some(c) = self.counts.get_mut(id as usize) {
            *c += 1;
        }
    }

    /// Occurrence count of the entry `id`.
    pub fn count(&self, id: u64) -> u64 {
        self.counts.get(id as usize).copied().unwrap_or(0)
    }

    /// Overwrites the occurrence count of `id` — used when replaying
    /// persisted dictionary segments, where counts arrive as totals
    /// rather than one `record_occurrence` call at a time.
    pub fn set_count(&mut self, id: u64, count: u64) {
        if let Some(c) = self.counts.get_mut(id as usize) {
            *c = count;
        }
    }

    /// Serialized size in bytes of the persistent form: the entry count,
    /// then each key (length-prefixed) and its occurrence count — the
    /// `INST` payload of a store-directory segment holding every entry.
    pub fn serialized_size(&self) -> usize {
        8 + self
            .id_to_str
            .iter()
            .map(|s| 8 + s.len() + 8)
            .sum::<usize>()
    }

    /// Iterates over `(id, term)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &str)> + '_ {
        self.id_to_str
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64, &**s))
    }
}

/// The full dictionary set broadcast from the administration server to each
/// SuccinctEdge instance (§4): LiteMat-encoded concepts and properties plus
/// the per-store instance dictionary.
#[derive(Debug, Clone, Default)]
pub struct Dictionaries {
    /// Concept hierarchy (anchored at `owl:Thing`).
    pub concepts: LiteMatDictionary,
    /// Property hierarchy (object + datatype properties).
    pub properties: LiteMatDictionary,
    /// Instances and IRIs outside the ontology.
    pub instances: InstanceDictionary,
}

impl Dictionaries {
    /// Builds from finished encodings.
    pub fn new(concepts: LiteMatEncoding, properties: LiteMatEncoding) -> Self {
        Self {
            concepts: LiteMatDictionary::new(concepts),
            properties: LiteMatDictionary::new(properties),
            instances: InstanceDictionary::new(),
        }
    }

    /// Total serialized (on-disk) size — the paper's Figure 9 metric.
    pub fn serialized_size(&self) -> usize {
        self.concepts.serialized_size()
            + self.properties.serialized_size()
            + self.instances.serialized_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hostile entry count must fail on the missing entries, not abort
    /// on an up-front reservation.
    #[test]
    fn litemat_hostile_count_is_an_error() {
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(LiteMatDictionary::deserialize(&mut bytes.as_slice()).is_err());
    }

    /// A hostile string length must fail on the missing bytes, not abort
    /// on a `len`-byte buffer.
    #[test]
    fn litemat_hostile_string_length_is_an_error() {
        let mut bytes = 1u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(LiteMatDictionary::deserialize(&mut bytes.as_slice()).is_err());
    }

    fn sample_encoding() -> LiteMatEncoding {
        LiteMatEncoding::encode(
            "Thing",
            &[
                ("A".into(), "Thing".into()),
                ("B".into(), "Thing".into()),
                ("C".into(), "B".into()),
            ],
            &[],
        )
        .unwrap()
    }

    #[test]
    fn litemat_dictionary_lookup() {
        let dict = LiteMatDictionary::new(sample_encoding());
        let id = dict.id("C").unwrap();
        assert_eq!(dict.term(id), Some("C"));
        assert_eq!(dict.id("unknown"), None);
        assert_eq!(dict.len(), 4);
    }

    #[test]
    fn litemat_counts_aggregate_over_hierarchy() {
        let mut dict = LiteMatDictionary::new(sample_encoding());
        let a = dict.id("A").unwrap();
        let b = dict.id("B").unwrap();
        let c = dict.id("C").unwrap();
        for _ in 0..3 {
            dict.record_occurrence(c);
        }
        dict.record_occurrence(b);
        dict.record_occurrence(a);
        assert_eq!(dict.count("C"), 3);
        assert_eq!(dict.count("B"), 1);
        assert_eq!(dict.aggregated_count("B"), 4); // B + C
        assert_eq!(dict.aggregated_count("Thing"), 5); // everything
        assert_eq!(dict.aggregated_count("A"), 1);
        assert_eq!(dict.aggregated_count("unknown"), 0);
    }

    #[test]
    fn instance_dictionary_dense_ids() {
        let mut dict = InstanceDictionary::new();
        let a = dict.get_or_insert("http://x/a");
        let b = dict.get_or_insert("http://x/b");
        let a2 = dict.get_or_insert("http://x/a");
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a, a2);
        assert_eq!(dict.len(), 2);
        assert_eq!(dict.term(0), Some("http://x/a"));
        assert_eq!(dict.term(5), None);
        assert_eq!(dict.id("http://x/b"), Some(1));
        assert_eq!(dict.id("http://x/zzz"), None);
    }

    #[test]
    fn instance_counts() {
        let mut dict = InstanceDictionary::new();
        let a = dict.get_or_insert("a");
        dict.record_occurrence(a);
        dict.record_occurrence(a);
        assert_eq!(dict.count(a), 2);
        assert_eq!(dict.count(99), 0);
    }

    #[test]
    fn serialization_sizes_match() {
        let mut dict = LiteMatDictionary::new(sample_encoding());
        dict.record_occurrence(dict.id("A").unwrap());
        let mut buf = Vec::new();
        dict.serialize(&mut buf).unwrap();
        assert_eq!(buf.len(), dict.serialized_size());

        // Entry count, then per entry a length-prefixed key and a count.
        let mut inst = InstanceDictionary::new();
        inst.get_or_insert("http://example.org/instance/1");
        inst.get_or_insert("http://example.org/i/2");
        assert_eq!(inst.serialized_size(), 8 + (8 + 29 + 8) + (8 + 22 + 8));
    }

    #[test]
    fn dictionaries_total_size() {
        let d = Dictionaries::new(sample_encoding(), sample_encoding());
        assert_eq!(
            d.serialized_size(),
            d.concepts.serialized_size()
                + d.properties.serialized_size()
                + d.instances.serialized_size()
        );
    }
}
