//! Store persistence: the v02 layer file of a [`Baseline`].
//!
//! The paper's administration model (§4) broadcasts LiteMat-encoded
//! dictionaries from a central server to the edge instances, and §7.3.2
//! persists "all the data structures existing in SuccinctEdge to disk".
//! A baseline's on-disk form is one layer file
//! ([`Baseline::to_layer_file`]) in `se-stream`'s store directory, which
//! also holds the dictionaries: an `se-sds` container (magic
//! `SESHLv02`, version 2) with three checksummed sections,
//!
//! * `OBJL` — the object layer: triple count, the predicate/subject
//!   index (`WT_p`, `BM_ps`, `WT_s`, `BM_so`), `WT_o`;
//! * `DATL` — the datatype layer: the same index, then the literal count
//!   and the literals;
//! * `TYPS` — the `rdf:type` pair count and the `(s, c)` pairs.
//!
//! Their payload sizes sum to
//! [`SuccinctEdgeStore::triple_serialized_size`](crate::SuccinctEdgeStore::triple_serialized_size),
//! the paper's Figure 10 metric. Decoding checks that each layer's index
//! and object column agree, so a section that passes its checksum but
//! was written inconsistently is `InvalidData`, not a later panic.
//! Loading rebuilds the rank/select directories and the sorted
//! `rdf:type` arrays (they are cheap derived structures; only raw data is
//! stored).

use crate::baseline::Baseline;
use se_sds::{
    expect_section, read_container_header, write_container_header, write_section, ContainerError,
    Serialize,
};
use std::io;

/// Magic header of a v02 shard layer file.
const LAYER_MAGIC: &[u8; 8] = b"SESHLv02";
/// Container format version of the layer file.
const LAYER_VERSION: u32 = 2;

impl Baseline {
    /// The v02 layer file: the three structures, one checksummed section
    /// each.
    pub fn to_layer_file(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        (|| {
            write_container_header(&mut buf, LAYER_MAGIC, LAYER_VERSION)?;
            write_section(&mut buf, b"OBJL", &self.objects.to_bytes())?;
            write_section(&mut buf, b"DATL", &self.datatypes.to_bytes())?;
            write_section(&mut buf, b"TYPS", &self.types.to_bytes())
        })()
        .expect("serializing to Vec cannot fail");
        buf
    }

    /// Parses a layer file written by [`Baseline::to_layer_file`]. A
    /// section whose payload does not decode reports `InvalidData` naming
    /// the section.
    pub fn from_layer_file(bytes: &[u8]) -> Result<Self, ContainerError> {
        fn section<T: Serialize>(r: &mut &[u8], tag: &[u8; 4]) -> Result<T, ContainerError> {
            T::from_bytes(&expect_section(r, tag)?).map_err(|e| {
                let tag = String::from_utf8_lossy(tag);
                io::Error::new(io::ErrorKind::InvalidData, format!("section {tag}: {e}")).into()
            })
        }
        let mut r = bytes;
        read_container_header(&mut r, LAYER_MAGIC, LAYER_VERSION)?;
        Ok(Self {
            objects: section(&mut r, b"OBJL")?,
            datatypes: section(&mut r, b"DATL")?,
            types: section(&mut r, b"TYPS")?,
        })
    }

    /// Payload bytes of the three layer-file sections.
    pub fn serialized_size(&self) -> usize {
        self.objects.serialized_size()
            + self.datatypes.serialized_size()
            + self.types.serialized_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typestore::RdfTypeStore;
    use crate::{SuccinctEdgeStore, TripleSource};
    use se_ontology::Ontology;
    use se_rdf::{Graph, Term, Triple};
    use se_sds::read_section_from;

    fn sample_store() -> SuccinctEdgeStore {
        let iri = |s: &str| Term::iri(format!("http://x/{s}"));
        let mut o = Ontology::new();
        o.add_class("http://x/C2", "http://x/C1");
        o.add_property("http://x/worksFor", "http://x/memberOf");
        o.add_datatype_property("http://x/age");
        let mut g = Graph::new();
        g.extend([
            Triple::new(iri("a"), Term::iri(se_rdf::vocab::rdf::TYPE), iri("C2")),
            Triple::new(iri("a"), iri("worksFor"), iri("org")),
            Triple::new(iri("b"), iri("memberOf"), iri("org")),
            Triple::new(iri("a"), iri("age"), Term::literal("42")),
            Triple::new(iri("b"), Term::iri(se_rdf::vocab::rdf::TYPE), iri("C1")),
        ]);
        SuccinctEdgeStore::build(&o, &g).unwrap()
    }

    /// The payloads of a layer file's sections, in file order.
    fn payloads(file: &[u8]) -> Vec<([u8; 4], Vec<u8>)> {
        let mut rest = &file[12..];
        let mut out = Vec::new();
        while !rest.is_empty() {
            let (tag, payload, used) = read_section_from(rest).unwrap();
            out.push((tag, payload.to_vec()));
            rest = &rest[used..];
        }
        out
    }

    /// A layer file with the given section payloads, checksums computed
    /// afresh: what a crafted (not bit-rotted) file looks like.
    fn layer_file(sections: &[([u8; 4], Vec<u8>)]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_container_header(&mut buf, LAYER_MAGIC, LAYER_VERSION).unwrap();
        for (tag, payload) in sections {
            write_section(&mut buf, tag, payload).unwrap();
        }
        buf
    }

    #[test]
    fn roundtrip_preserves_answers() {
        let store = sample_store();
        let file = store.base.to_layer_file();
        let base = Baseline::from_layer_file(&file).unwrap();
        assert_eq!(base.to_layer_file(), file);
        let back = SuccinctEdgeStore::from_parts(store.dicts.clone(), base, store.stats().clone());

        assert_eq!(back.len(), store.len());
        // Queries agree, including reasoning (intervals survive the trip).
        let iv = back.concept_interval("http://x/C1").unwrap();
        assert_eq!(iv, store.concept_interval("http://x/C1").unwrap());
        assert_eq!(
            back.subjects_of_concept_interval(iv),
            store.subjects_of_concept_interval(iv)
        );
        let p_iv = back.property_interval("http://x/memberOf").unwrap();
        let org = back.instance_id(&Term::iri("http://x/org")).unwrap();
        assert_eq!(
            crate::source::subjects_in(&back, p_iv, &crate::Value::Instance(org)),
            crate::source::subjects_in(&store, p_iv, &crate::Value::Instance(org))
        );
        // Literals survive.
        let age = back.property_id("http://x/age").unwrap();
        let a = back.instance_id(&Term::iri("http://x/a")).unwrap();
        let objs = back.objects(age, a);
        assert_eq!(objs.len(), 1);
        assert_eq!(back.value_to_term(objs[0]).unwrap(), Term::literal("42"));
    }

    #[test]
    fn file_roundtrip() {
        let store = sample_store();
        let mut path = std::env::temp_dir();
        path.push(format!("se-persist-test-{}.layers", std::process::id()));
        std::fs::write(&path, store.base.to_layer_file()).unwrap();
        let back = Baseline::from_layer_file(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back.len(), store.len());
        std::fs::remove_file(&path).ok();
    }

    /// A hostile `rdf:type` pair count fails on the missing pairs, in the
    /// `TYPS` payload alone and through a re-checksummed layer file.
    #[test]
    fn hostile_type_count_is_an_error() {
        let store = sample_store();
        let mut sections = payloads(&store.base.to_layer_file());
        let typs = &mut sections[2].1;
        typs[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(RdfTypeStore::from_bytes(typs).is_err());
        assert!(Baseline::from_layer_file(&layer_file(&sections)).is_err());
    }

    /// The object layer's stored triple count disagrees with its index in
    /// a layer file whose checksums were recomputed: `InvalidData`.
    #[test]
    fn forged_triple_count_is_an_error() {
        let store = sample_store();
        let mut sections = payloads(&store.base.to_layer_file());
        assert_eq!(&sections[0].0, b"OBJL");
        let forged = store.base.objects.len() as u64 + 1;
        sections[0].1[..8].copy_from_slice(&forged.to_le_bytes());
        match Baseline::from_layer_file(&layer_file(&sections)) {
            Err(ContainerError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        let garbage = b"not a store file at all";
        assert!(Baseline::from_layer_file(garbage).is_err());
        assert!(RdfTypeStore::from_bytes(garbage).is_err());
    }

    /// The Figure 10 accounting is exactly the layer file's payload bytes.
    #[test]
    fn persisted_size_matches_accounting() {
        let store = sample_store();
        let sections = payloads(&store.base.to_layer_file());
        let tags: Vec<&[u8; 4]> = sections.iter().map(|(t, _)| t).collect();
        assert_eq!(tags, [b"OBJL", b"DATL", b"TYPS"]);
        let payload: usize = sections.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(payload, store.triple_serialized_size());
    }
}
