//! Store persistence: the two on-disk forms of a [`Baseline`].
//!
//! The paper's administration model (§4) broadcasts LiteMat-encoded
//! dictionaries from a central server to the edge instances, and §7.3.2
//! persists "all the data structures existing in SuccinctEdge to disk".
//!
//! * **v01** ([`SuccinctEdgeStore::save`]) — one compact binary file: the
//!   magic `SEDGEv01`, the three dictionaries, the baseline (object
//!   layer, datatype layer, `rdf:type` count + `(s, c)` pairs) and six
//!   build-statistics words. The four triple counts among them must
//!   match the loaded baseline, or `load` fails with `InvalidData`.
//! * **v02 layer file** ([`Baseline::to_layer_file`]) — one shard's
//!   baseline in `se-stream`'s store directory: an `se-sds` container
//!   (magic `SESHLv02`, version 2) with the checksummed sections `OBJL`,
//!   `DATL` and `TYPS`, holding the same three encodings.
//!
//! Loading rebuilds the rank/select directories and the sorted
//! `rdf:type` arrays (they are cheap derived structures; only raw data is
//! stored).

use crate::baseline::Baseline;
use crate::builder::BuildStats;
use crate::datatype::DatatypeLayer;
use crate::layer::TripleLayer;
use crate::store::SuccinctEdgeStore;
use crate::typestore::RdfTypeStore;
use se_litemat::{Dictionaries, InstanceDictionary, LiteMatDictionary};
use se_sds::{
    expect_section, read_container_header, write_container_header, write_section, ContainerError,
    ReadBin, Serialize, WriteBin,
};
use std::io;
use std::path::Path;

/// Magic header of the persistent format.
const MAGIC: &[u8; 8] = b"SEDGEv01";
/// Magic header of a v02 shard layer file.
const LAYER_MAGIC: &[u8; 8] = b"SESHLv02";
/// Container format version of the layer file.
const LAYER_VERSION: u32 = 2;

/// The v01 baseline body: object layer, datatype layer, `rdf:type` pairs.
impl Serialize for Baseline {
    fn serialize<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        self.objects.serialize(w)?;
        self.datatypes.serialize(w)?;
        self.types.serialize(w)
    }

    fn deserialize<R: io::Read>(r: &mut R) -> io::Result<Self> {
        Ok(Self {
            objects: TripleLayer::deserialize(r)?,
            datatypes: DatatypeLayer::deserialize(r)?,
            types: RdfTypeStore::deserialize(r)?,
        })
    }

    fn serialized_size(&self) -> usize {
        self.objects.serialized_size()
            + self.datatypes.serialized_size()
            + self.types.serialized_size()
    }
}

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
}

impl SuccinctEdgeStore {
    /// Writes the store's persistent form.
    pub fn save<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        self.dicts.concepts.serialize(w)?;
        self.dicts.properties.serialize(w)?;
        self.dicts.instances.serialize(w)?;
        self.base.serialize(w)?;
        let st = self.stats();
        for v in [
            st.n_triples,
            st.n_type_triples,
            st.n_object_triples,
            st.n_datatype_triples,
            st.n_augmented_classes,
            st.n_augmented_properties,
        ] {
            w.write_u64(v as u64)?;
        }
        Ok(())
    }

    /// Saves to a file.
    pub fn save_to_file(&self, path: &Path) -> io::Result<()> {
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        self.save(&mut file)
    }

    /// Reads a store previously written by [`SuccinctEdgeStore::save`].
    /// Stored triple counts that disagree with the loaded baseline are
    /// `InvalidData`: the file is corrupt.
    pub fn load<R: io::Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a SuccinctEdge store file",
            ));
        }
        let dicts = Dictionaries {
            concepts: LiteMatDictionary::deserialize(r)?,
            properties: LiteMatDictionary::deserialize(r)?,
            instances: InstanceDictionary::deserialize(r)?,
        };
        let base = Baseline::deserialize(r)?;
        let mut f = [0usize; 6];
        for v in &mut f {
            *v = r.read_u64()? as usize;
        }
        let stats = BuildStats {
            n_triples: f[0],
            n_type_triples: f[1],
            n_object_triples: f[2],
            n_datatype_triples: f[3],
            n_augmented_classes: f[4],
            n_augmented_properties: f[5],
        };
        let layers = [
            base.len(),
            base.types.len(),
            base.objects.len(),
            base.datatypes.len(),
        ];
        if f[..4] != layers {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "stored triple counts {:?} disagree with the loaded layers {layers:?}",
                    &f[..4]
                ),
            ));
        }
        Ok(Self::from_parts(dicts, base, stats))
    }

    /// Loads from a file.
    pub fn load_from_file(path: &Path) -> io::Result<Self> {
        let mut file = io::BufReader::new(std::fs::File::open(path)?);
        Self::load(&mut file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripleSource;
    use se_ontology::Ontology;
    use se_rdf::{Graph, Term, Triple};

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

    #[test]
    fn roundtrip_preserves_answers() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.save(&mut buf).unwrap();
        let back = SuccinctEdgeStore::load(&mut buf.as_slice()).unwrap();

        assert_eq!(back.len(), store.len());
        assert_eq!(back.stats(), store.stats());
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
        path.push(format!("se-persist-test-{}.db", std::process::id()));
        store.save_to_file(&path).unwrap();
        let back = SuccinctEdgeStore::load_from_file(&path).unwrap();
        assert_eq!(back.len(), store.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_type_count_is_an_error() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.save(&mut buf).unwrap();
        // The file ends with the type count, 16 bytes per pair and six
        // stats words; keep everything before the count.
        let count_at = buf.len() - 6 * 8 - 16 * store.type_store().len() - 8;
        buf.truncate(count_at);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(SuccinctEdgeStore::load(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn forged_triple_count_is_an_error() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.save(&mut buf).unwrap();
        // `n_triples` is the first of the six trailing stats words.
        let at = buf.len() - 6 * 8;
        buf[at..at + 8].copy_from_slice(&(store.len() as u64 + 1).to_le_bytes());
        let err = SuccinctEdgeStore::load(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_garbage() {
        let garbage = b"not a store file at all";
        assert!(SuccinctEdgeStore::load(&mut garbage.as_slice()).is_err());
    }

    #[test]
    fn persisted_size_matches_accounting() {
        // The file must weigh roughly dictionary + triple sizes (plus the
        // small magic/stats overhead).
        let store = sample_store();
        let mut buf = Vec::new();
        store.save(&mut buf).unwrap();
        let accounted = store.dictionary_serialized_size() + store.triple_serialized_size();
        assert!(
            buf.len() >= accounted && buf.len() <= accounted + 256,
            "file {} vs accounted {accounted}",
            buf.len()
        );
    }
}
