//! Store persistence.
//!
//! The paper's administration model (§4) broadcasts LiteMat-encoded
//! dictionaries from a central server to the edge instances, and §7.3.2
//! persists "all the data structures existing in SuccinctEdge to disk".
//! This module implements that persistent form: one compact binary file
//! containing the three dictionaries, both SDS layers and the `rdf:type`
//! pairs. Loading rebuilds the rank/select directories and the red-black
//! trees (they are cheap derived structures; only raw data is stored).

use crate::builder::BuildStats;
use crate::datatype::DatatypeLayer;
use crate::layer::TripleLayer;
use crate::store::SuccinctEdgeStore;
use crate::typestore::RdfTypeStore;
use se_litemat::{Dictionaries, InstanceDictionary, LiteMatDictionary};
use se_sds::{ReadBin, Serialize, WriteBin};
use std::io;
use std::path::Path;

/// Magic header of the persistent format.
const MAGIC: &[u8; 8] = b"SEDGEv01";

impl SuccinctEdgeStore {
    /// Writes the store's persistent form.
    pub fn save<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        // Dictionaries.
        self.dictionaries().concepts.serialize(w)?;
        self.dictionaries().properties.serialize(w)?;
        self.dictionaries().instances.serialize(w)?;
        // Layers.
        self.object_layer().serialize(w)?;
        self.datatype_layer().serialize(w)?;
        // rdf:type pairs.
        w.write_u64(self.type_store().len() as u64)?;
        for (s, c) in self.type_store().iter() {
            w.write_u64(s)?;
            w.write_u64(c)?;
        }
        // Stats.
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
    pub fn load<R: io::Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a SuccinctEdge store file",
            ));
        }
        let concepts = LiteMatDictionary::deserialize(r)?;
        let properties = LiteMatDictionary::deserialize(r)?;
        let instances = InstanceDictionary::deserialize(r)?;
        let object_layer = TripleLayer::deserialize(r)?;
        let datatype_layer = DatatypeLayer::deserialize(r)?;
        let n_types = r.read_u64()? as usize;
        let mut type_store = RdfTypeStore::new();
        for _ in 0..n_types {
            let s = r.read_u64()?;
            let c = r.read_u64()?;
            type_store.insert(s, c);
        }
        let mut stats_fields = [0u64; 6];
        for f in &mut stats_fields {
            *f = r.read_u64()?;
        }
        let stats = BuildStats {
            n_triples: stats_fields[0] as usize,
            n_type_triples: stats_fields[1] as usize,
            n_object_triples: stats_fields[2] as usize,
            n_datatype_triples: stats_fields[3] as usize,
            n_augmented_classes: stats_fields[4] as usize,
            n_augmented_properties: stats_fields[5] as usize,
        };
        let dicts = Dictionaries {
            concepts,
            properties,
            instances,
        };
        Ok(Self::from_parts(
            dicts,
            object_layer,
            datatype_layer,
            type_store,
            stats,
        ))
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
