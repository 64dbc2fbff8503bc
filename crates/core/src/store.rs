//! The assembled SuccinctEdge store: dictionaries + the three storage
//! components, with triple-pattern evaluation in identifier space
//! (Algorithms 2–4 of the paper). LiteMat property-interval reasoning runs
//! over [`SuccinctEdgeStore::properties_in`] in [`crate::source`].

use crate::builder::{build_store, instance_key, key_to_term_arc, BuildStats};
use crate::datatype::DatatypeLayer;
use crate::error::BuildError;
use crate::layer::TripleLayer;
use crate::typestore::RdfTypeStore;
use crate::value::Value;
use se_litemat::{Dictionaries, IdInterval};
use se_ontology::Ontology;
use se_rdf::{Graph, Literal, Term};
use se_sds::{HeapSize, Serialize};

/// The SuccinctEdge RDF store (paper §4).
#[derive(Debug, Clone)]
pub struct SuccinctEdgeStore {
    dicts: Dictionaries,
    object_layer: TripleLayer,
    datatype_layer: DatatypeLayer,
    type_store: RdfTypeStore,
    stats: BuildStats,
}

impl SuccinctEdgeStore {
    /// Builds a store from an ontology and a graph — the paper's back-end
    /// construction (§7.3.1).
    pub fn build(ontology: &Ontology, graph: &Graph) -> Result<Self, BuildError> {
        build_store(ontology, graph)
    }

    pub(crate) fn from_parts(
        dicts: Dictionaries,
        object_layer: TripleLayer,
        datatype_layer: DatatypeLayer,
        type_store: RdfTypeStore,
        stats: BuildStats,
    ) -> Self {
        Self {
            dicts,
            object_layer,
            datatype_layer,
            type_store,
            stats,
        }
    }

    /// Construction statistics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Total number of stored triples.
    pub fn len(&self) -> usize {
        self.stats.n_triples
    }

    /// `true` if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dictionaries (concepts, properties, instances).
    pub fn dictionaries(&self) -> &Dictionaries {
        &self.dicts
    }

    // ---------------------------------------------------------------- encode

    /// Instance identifier of a subject/object resource term.
    pub fn instance_id(&self, term: &Term) -> Option<u64> {
        self.dicts.instances.id(&instance_key(term)?)
    }

    /// LiteMat identifier of a property IRI.
    pub fn property_id(&self, iri: &str) -> Option<u64> {
        self.dicts.properties.id(iri)
    }

    /// LiteMat identifier of a concept IRI.
    pub fn concept_id(&self, iri: &str) -> Option<u64> {
        self.dicts.concepts.id(iri)
    }

    /// Subsumption interval of a property (its whole sub-hierarchy).
    pub fn property_interval(&self, iri: &str) -> Option<IdInterval> {
        self.dicts.properties.interval(iri)
    }

    /// Subsumption interval of a concept.
    pub fn concept_interval(&self, iri: &str) -> Option<IdInterval> {
        self.dicts.concepts.interval(iri)
    }

    // ---------------------------------------------------------------- decode

    /// Decodes any [`Value`] back to an RDF term (the `extract` direction
    /// used when presenting an answer set, §4).
    pub fn value_to_term(&self, value: Value) -> Option<Term> {
        match value {
            Value::Instance(id) => self.dicts.instances.term_arc(id).map(key_to_term_arc),
            Value::Concept(id) => self.dicts.concepts.term_arc(id).map(Term::Iri),
            Value::Property(id) => self.dicts.properties.term_arc(id).map(Term::Iri),
            Value::Literal(idx) => self
                .datatype_layer
                .literal(idx)
                .map(|l| Term::Literal(l.clone())),
        }
    }

    /// The literal at flat-store position `idx`.
    pub fn literal(&self, idx: u64) -> Option<&Literal> {
        self.datatype_layer.literal(idx)
    }

    /// Join-aware equality: two values join if they are the same encoded
    /// value, or if both are literals with equal content (the flat store
    /// keeps duplicates, so equal literals may have different indices).
    pub fn values_join(&self, a: Value, b: Value) -> bool {
        if a == b {
            return true;
        }
        match (a, b) {
            (Value::Literal(x), Value::Literal(y)) => match self.datatype_layer.literal(x) {
                Some(lx) => self.datatype_layer.literal(y) == Some(lx),
                None => false,
            },
            _ => false,
        }
    }

    // ----------------------------------------------------- TP eval (no inference)

    /// `(s, p, ?o)` — paper Algorithm 3, routed to the right layer.
    pub fn objects(&self, p: u64, s: u64) -> Vec<Value> {
        let mut out: Vec<Value> = self
            .object_layer
            .objects(p, s)
            .into_iter()
            .map(Value::Instance)
            .collect();
        out.extend(
            self.datatype_layer
                .literal_indices(p, s)
                .map(Value::Literal),
        );
        out
    }

    /// `(?s, p, o)` — paper Algorithm 4.
    pub fn subjects(&self, p: u64, o: &Value) -> Vec<u64> {
        match o {
            Value::Instance(oid) => self.object_layer.subjects(p, *oid),
            Value::Literal(idx) => match self.datatype_layer.literal(*idx) {
                Some(lit) => self.datatype_layer.subjects_by_literal(p, lit),
                None => Vec::new(),
            },
            _ => Vec::new(),
        }
    }

    /// `(?s, p, o)` with a literal constant object.
    pub fn subjects_by_literal(&self, p: u64, lit: &Literal) -> Vec<u64> {
        self.datatype_layer.subjects_by_literal(p, lit)
    }

    /// `(?s, p, ?o)` — full predicate scan, `(subject, object)` pairs
    /// **sorted by subject** (ties: instances before literals).
    ///
    /// Each layer yields subject-sorted pairs; for the rare predicate that
    /// carries both resource and literal objects the two runs are merged,
    /// keeping the global subject order the merge join (§5.2) relies on.
    pub fn scan_predicate(&self, p: u64) -> Vec<(u64, Value)> {
        let inst = self.object_layer.scan_predicate(p);
        let lit = self.datatype_layer.scan_predicate(p);
        let mut out = Vec::with_capacity(inst.len() + lit.len());
        let (mut i, mut j) = (0, 0);
        while i < inst.len() || j < lit.len() {
            let take_inst = match (inst.get(i), lit.get(j)) {
                (Some(a), Some(b)) => a.0 <= b.0,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_inst {
                out.push((inst[i].0, Value::Instance(inst[i].1)));
                i += 1;
            } else {
                out.push((lit[j].0, Value::Literal(lit[j].1)));
                j += 1;
            }
        }
        out
    }

    /// `(s, p, o)` membership.
    pub fn contains(&self, p: u64, s: u64, o: &Value) -> bool {
        match o {
            Value::Instance(oid) => self.object_layer.contains(p, s, *oid),
            Value::Literal(idx) => match self.datatype_layer.literal(*idx) {
                Some(lit) => self.datatype_layer.contains(p, s, lit),
                None => false,
            },
            _ => false,
        }
    }

    /// Distinct property ids in `iv` held by either layer, ascending —
    /// the fan-out set of a LiteMat interval pattern (§5.2).
    pub fn properties_in(&self, iv: IdInterval) -> Vec<u64> {
        let obj = self.object_layer.predicate_range(iv.lower, iv.upper);
        let dt = self.datatype_layer.predicate_range(iv.lower, iv.upper);
        let mut out: Vec<u64> = obj
            .map(|k| self.object_layer.predicate_at(k))
            .chain(dt.map(|k| self.datatype_layer.predicate_at(k)))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    // ----------------------------------------------------------- rdf:type TPs

    /// `(?s, rdf:type, C)` over a concept interval: a singleton without
    /// reasoning, C's LiteMat sub-hierarchy with it.
    pub fn subjects_of_concept_interval(&self, iv: IdInterval) -> Vec<u64> {
        self.type_store.subjects_of_interval(iv)
    }

    /// `(s, rdf:type, ?c)` — concepts of a subject.
    pub fn concepts_of_subject(&self, s: u64) -> Vec<u64> {
        self.type_store.concepts_of(s).collect()
    }

    /// `(s, rdf:type, C)` membership with reasoning.
    pub fn has_type_in_interval(&self, s: u64, iv: IdInterval) -> bool {
        self.type_store.has_type_in_interval(s, iv)
    }

    // ------------------------------------------------------------- statistics

    /// Paper Algorithm 2: triples with predicate `p` (both layers).
    pub fn predicate_count(&self, p: u64) -> usize {
        self.object_layer.count_predicate(p) + self.datatype_layer.count_predicate(p)
    }

    /// `rdf:type` triples whose concept lies in the interval.
    pub fn type_count(&self, iv: IdInterval) -> usize {
        self.type_store.count_interval(iv)
    }

    // ------------------------------------------------------------------ sizes

    /// Bytes of heap memory used by the triple structures and dictionaries
    /// (the paper's Figure 11 RAM-footprint metric).
    pub fn memory_footprint(&self) -> usize {
        self.object_layer.heap_size()
            + self.datatype_layer.heap_size()
            + self.type_store.heap_size()
            + self.dictionary_heap_size()
    }

    fn dictionary_heap_size(&self) -> usize {
        // Conservative estimate: string bytes + map entry overhead.
        let inst: usize = self
            .dicts
            .instances
            .iter()
            .map(|(_, s)| 2 * s.len() + 48)
            .sum();
        let conc: usize = self
            .dicts
            .concepts
            .encoding()
            .iter()
            .map(|(t, _)| 2 * t.len() + 48)
            .sum();
        let prop: usize = self
            .dicts
            .properties
            .encoding()
            .iter()
            .map(|(t, _)| 2 * t.len() + 48)
            .sum();
        inst + conc + prop
    }

    /// On-disk size of the triple structures, dictionary excluded (the
    /// paper's Figure 10 metric).
    pub fn triple_serialized_size(&self) -> usize {
        self.object_layer.serialized_size()
            + self.datatype_layer.serialized_size()
            + 8
            + self.type_store.len() * 16
    }

    /// On-disk size of the dictionaries (the paper's Figure 9 metric).
    pub fn dictionary_serialized_size(&self) -> usize {
        self.dicts.serialized_size()
    }

    /// Direct access to the object layer.
    pub fn object_layer(&self) -> &TripleLayer {
        &self.object_layer
    }

    /// Direct access to the datatype layer.
    pub fn datatype_layer(&self) -> &DatatypeLayer {
        &self.datatype_layer
    }

    /// Direct access to the RDFType store.
    pub fn type_store(&self) -> &RdfTypeStore {
        &self.type_store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_rdf::vocab::rdf;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        let t = |s: &str, p: &str, o: Term| {
            se_rdf::Triple::new(iri(s), Term::iri(format!("http://x/{p}")), o)
        };
        g.insert(se_rdf::Triple::new(
            iri("s1"),
            Term::iri(rdf::TYPE),
            iri("C1"),
        ));
        g.insert(se_rdf::Triple::new(
            iri("s2"),
            Term::iri(rdf::TYPE),
            iri("C2"),
        ));
        g.insert(t("s1", "knows", iri("s2")));
        g.insert(t("s1", "knows", iri("s3")));
        g.insert(t("s2", "knows", iri("s3")));
        g.insert(t("s1", "age", Term::literal("42")));
        g.insert(t("s2", "age", Term::literal("37")));
        g
    }

    fn sample_ontology() -> Ontology {
        let mut o = Ontology::new();
        o.add_class("http://x/C2", "http://x/C1");
        o.add_object_property("http://x/knows");
        o.add_datatype_property("http://x/age");
        o
    }

    fn store() -> SuccinctEdgeStore {
        SuccinctEdgeStore::build(&sample_ontology(), &sample_graph()).unwrap()
    }

    #[test]
    fn build_routes_triples() {
        let st = store();
        assert_eq!(st.len(), 7);
        assert_eq!(st.stats().n_type_triples, 2);
        assert_eq!(st.stats().n_object_triples, 3);
        assert_eq!(st.stats().n_datatype_triples, 2);
        assert_eq!(st.stats().n_augmented_classes, 0);
        assert_eq!(st.stats().n_augmented_properties, 0);
    }

    #[test]
    fn objects_and_subjects() {
        let st = store();
        let knows = st.property_id("http://x/knows").unwrap();
        let s1 = st.instance_id(&iri("s1")).unwrap();
        let s2 = st.instance_id(&iri("s2")).unwrap();
        let s3 = st.instance_id(&iri("s3")).unwrap();
        let objs = st.objects(knows, s1);
        assert_eq!(objs.len(), 2);
        assert!(objs.contains(&Value::Instance(s2)));
        assert!(objs.contains(&Value::Instance(s3)));
        assert_eq!(st.subjects(knows, &Value::Instance(s3)), {
            let mut v = vec![s1, s2];
            v.sort_unstable();
            v
        });
    }

    #[test]
    fn datatype_objects() {
        let st = store();
        let age = st.property_id("http://x/age").unwrap();
        let s1 = st.instance_id(&iri("s1")).unwrap();
        let objs = st.objects(age, s1);
        assert_eq!(objs.len(), 1);
        let Term::Literal(lit) = st.value_to_term(objs[0]).unwrap() else {
            panic!("expected a literal");
        };
        assert_eq!(&*lit.value, "42");
    }

    #[test]
    fn subjects_by_literal() {
        let st = store();
        let age = st.property_id("http://x/age").unwrap();
        let s2 = st.instance_id(&iri("s2")).unwrap();
        assert_eq!(
            st.subjects_by_literal(age, &Literal::string("37")),
            vec![s2]
        );
        assert!(st
            .subjects_by_literal(age, &Literal::string("99"))
            .is_empty());
    }

    #[test]
    fn type_queries_with_reasoning() {
        let st = store();
        let s1 = st.instance_id(&iri("s1")).unwrap();
        let s2 = st.instance_id(&iri("s2")).unwrap();
        let c1 = st.concept_id("http://x/C1").unwrap();
        // No reasoning: only s1 is directly typed C1.
        assert_eq!(
            st.subjects_of_concept_interval(IdInterval::point(c1)),
            vec![s1]
        );
        // With reasoning: C2 ⊑ C1, so s2 joins.
        let iv = st.concept_interval("http://x/C1").unwrap();
        let mut expected = vec![s1, s2];
        expected.sort_unstable();
        assert_eq!(st.subjects_of_concept_interval(iv), expected);
        assert!(st.has_type_in_interval(s2, iv));
        assert!(!st.has_type_in_interval(s2, IdInterval::point(c1)));
    }

    #[test]
    fn scan_predicate() {
        let st = store();
        let knows = st.property_id("http://x/knows").unwrap();
        assert_eq!(st.scan_predicate(knows).len(), 3);
        let age = st.property_id("http://x/age").unwrap();
        assert_eq!(st.scan_predicate(age).len(), 2);
    }

    #[test]
    fn scan_predicate_mixed_objects_is_subject_sorted() {
        // A predicate carrying both resource and literal objects: the two
        // layer runs must merge into one subject-sorted list (the merge
        // join's contract), not concatenate.
        let mut g = Graph::new();
        for i in 0..6 {
            g.insert(se_rdf::Triple::new(
                iri(&format!("s{i}")),
                Term::iri("http://x/mixed"),
                if i % 2 == 0 {
                    iri("target")
                } else {
                    Term::literal(format!("v{i}"))
                },
            ));
        }
        let st = SuccinctEdgeStore::build(&Ontology::new(), &g).unwrap();
        let p = st.property_id("http://x/mixed").unwrap();
        let pairs = st.scan_predicate(p);
        assert_eq!(pairs.len(), 6);
        let subjects: Vec<u64> = pairs.iter().map(|(s, _)| *s).collect();
        let mut sorted = subjects.clone();
        sorted.sort_unstable();
        assert_eq!(subjects, sorted, "scan must be globally subject-sorted");
    }

    #[test]
    fn predicate_counts() {
        let st = store();
        let knows = st.property_id("http://x/knows").unwrap();
        let age = st.property_id("http://x/age").unwrap();
        assert_eq!(st.predicate_count(knows), 3);
        assert_eq!(st.predicate_count(age), 2);
        assert_eq!(st.predicate_count(999_999), 0);
    }

    #[test]
    fn augmentation_covers_unknown_terms() {
        // Build with an EMPTY ontology: everything is augmented.
        let st = SuccinctEdgeStore::build(&Ontology::new(), &sample_graph()).unwrap();
        assert_eq!(st.len(), 7);
        assert!(st.stats().n_augmented_classes >= 2);
        assert!(st.stats().n_augmented_properties >= 2);
        let knows = st.property_id("http://x/knows").unwrap();
        assert_eq!(st.predicate_count(knows), 3);
    }

    #[test]
    fn empty_graph() {
        let st = SuccinctEdgeStore::build(&sample_ontology(), &Graph::new()).unwrap();
        assert!(st.is_empty());
        assert!(st.memory_footprint() > 0); // dictionaries remain
    }

    #[test]
    fn duplicate_triples_deduplicated() {
        let mut g = sample_graph();
        for t in sample_graph() {
            g.insert(t);
        }
        let st = SuccinctEdgeStore::build(&sample_ontology(), &g).unwrap();
        assert_eq!(st.len(), 7);
    }

    #[test]
    fn literal_subject_rejected() {
        let mut g = Graph::new();
        // Bypass the debug assertion of Triple::new by constructing directly.
        g.insert(se_rdf::Triple {
            subject: Term::literal("bad"),
            predicate: Term::iri("http://x/p"),
            object: iri("o"),
        });
        let err = SuccinctEdgeStore::build(&Ontology::new(), &g).unwrap_err();
        assert!(matches!(err, BuildError::MalformedTriple(_)));
    }

    #[test]
    fn type_with_literal_object_rejected() {
        let mut g = Graph::new();
        g.insert(se_rdf::Triple {
            subject: iri("s"),
            predicate: Term::iri(rdf::TYPE),
            object: Term::literal("bad"),
        });
        let err = SuccinctEdgeStore::build(&Ontology::new(), &g).unwrap_err();
        assert!(matches!(err, BuildError::MalformedTypeObject(_)));
    }

    #[test]
    fn property_interval_reasoning() {
        // worksFor ⊑ memberOf: scanning memberOf's interval sees both.
        let mut o = Ontology::new();
        o.add_property("http://x/worksFor", "http://x/memberOf");
        let mut g = Graph::new();
        g.insert(se_rdf::Triple::new(
            iri("a"),
            Term::iri("http://x/memberOf"),
            iri("org1"),
        ));
        g.insert(se_rdf::Triple::new(
            iri("b"),
            Term::iri("http://x/worksFor"),
            iri("org1"),
        ));
        let st = SuccinctEdgeStore::build(&o, &g).unwrap();
        let iv = st.property_interval("http://x/memberOf").unwrap();
        let org1 = st.instance_id(&iri("org1")).unwrap();
        let subs = crate::source::subjects_in(&st, iv, &Value::Instance(org1));
        assert_eq!(subs.len(), 2);
        // Without reasoning only the direct assertion is found.
        let member_of = st.property_id("http://x/memberOf").unwrap();
        assert_eq!(st.subjects(member_of, &Value::Instance(org1)).len(), 1);
        // Counts follow the same logic.
        assert_eq!(crate::source::predicate_count_in(&st, iv), 2);
        assert_eq!(st.predicate_count(member_of), 1);
    }

    #[test]
    fn values_join_handles_duplicate_literals() {
        let mut g = Graph::new();
        g.insert(se_rdf::Triple::new(
            iri("a"),
            Term::iri("http://x/v"),
            Term::literal("3.14"),
        ));
        g.insert(se_rdf::Triple::new(
            iri("b"),
            Term::iri("http://x/v"),
            Term::literal("3.14"),
        ));
        let st = SuccinctEdgeStore::build(&Ontology::new(), &g).unwrap();
        let v = st.property_id("http://x/v").unwrap();
        let a = st.instance_id(&iri("a")).unwrap();
        let b = st.instance_id(&iri("b")).unwrap();
        let la = st.objects(v, a)[0];
        let lb = st.objects(v, b)[0];
        assert_ne!(la, lb, "flat store keeps duplicates");
        assert!(
            st.values_join(la, lb),
            "join equality sees through duplicates"
        );
    }

    #[test]
    fn sizes_are_positive_and_consistent() {
        let st = store();
        assert!(st.memory_footprint() > 0);
        assert!(st.triple_serialized_size() > 0);
        assert!(st.dictionary_serialized_size() > 0);
    }
}
