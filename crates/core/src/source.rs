//! The [`TripleSource`] trait: pattern-level access to an RDF store.
//!
//! The paper evaluates every triple pattern through a fixed menu of
//! identifier-space accesses (Algorithms 2–4 plus the LiteMat interval
//! variants of §5.2). This trait captures exactly that menu, so the query
//! executor in `se-sparql` is independent of *which* store answers it:
//!
//! * the immutable [`SuccinctEdgeStore`](crate::SuccinctEdgeStore) —
//!   wavelet trees, bitmaps and red-black trees;
//! * the streaming `ShardedHybridStore` of `se-stream` — succinct layers
//!   plus a mutable delta overlay of inserted/deleted triples.
//!
//! # Contract
//!
//! Implementations must keep the invariants the executor relies on:
//!
//! * [`scan_predicate`](TripleSource::scan_predicate) returns `(subject,
//!   object)` pairs **sorted by subject id** (PSO order) — the merge-join
//!   fast path of §5.2 merges it against a subject-sorted intermediate
//!   relation;
//! * `subjects*` results are ascending and deduplicated;
//! * [`values_join`](TripleSource::values_join) must treat two
//!   [`Value::Literal`]s with equal literal *content* as joinable even if
//!   their indices differ (the flat literal store keeps duplicates);
//! * identifier spaces are shared with the dictionaries exposed by the
//!   encode/decode methods: a `u64` returned from one method is meaningful
//!   as input to any other.
//!
//! # Thread safety
//!
//! The trait carries `Send + Sync` supertraits: sources are shared across
//! threads — `se-stream` evaluates a session's continuous queries
//! concurrently, one scoped thread per query over the shared store, and
//! `se-server` answers reads from published store snapshots on its
//! connection threads. All built-in
//! implementations are plain owned data (`Vec`s, boxed red-black trees,
//! `Arc<str>` dictionaries), so the bounds are free.

use crate::value::Value;
use se_litemat::IdInterval;
use se_rdf::{Literal, Term};

/// Pattern-level, identifier-space access to an RDF store — the interface
/// the SPARQL executor runs against.
///
/// `Send + Sync` so executors can evaluate against a shared `&S` from
/// multiple threads (scatter/gather stores, background compaction).
pub trait TripleSource: Send + Sync {
    // ---------------------------------------------------------------- encode

    /// Instance identifier of a subject/object resource term.
    fn instance_id(&self, term: &Term) -> Option<u64>;

    /// Identifier of a property IRI.
    fn property_id(&self, iri: &str) -> Option<u64>;

    /// Identifier of a concept IRI.
    fn concept_id(&self, iri: &str) -> Option<u64>;

    /// Subsumption interval of a property (its whole sub-hierarchy).
    fn property_interval(&self, iri: &str) -> Option<IdInterval>;

    /// Subsumption interval of a concept.
    fn concept_interval(&self, iri: &str) -> Option<IdInterval>;

    // ---------------------------------------------------------------- decode

    /// Decodes an encoded value back to an RDF term.
    fn value_to_term(&self, value: Value) -> Option<Term>;

    /// The literal at flat-store position `idx`.
    fn literal(&self, idx: u64) -> Option<&Literal>;

    /// Join-aware equality (literal content equality sees through
    /// duplicate flat-store entries).
    fn values_join(&self, a: Value, b: Value) -> bool {
        if a == b {
            return true;
        }
        match (a, b) {
            (Value::Literal(x), Value::Literal(y)) => match self.literal(x) {
                Some(lx) => self.literal(y) == Some(lx),
                None => false,
            },
            _ => false,
        }
    }

    // ------------------------------------------------ TP eval (no inference)

    /// `(s, p, ?o)`.
    fn objects(&self, p: u64, s: u64) -> Vec<Value>;

    /// `(?s, p, o)`.
    fn subjects(&self, p: u64, o: &Value) -> Vec<u64>;

    /// `(?s, p, o)` with a literal constant object.
    fn subjects_by_literal(&self, p: u64, lit: &Literal) -> Vec<u64>;

    /// `(?s, p, ?o)` — `(subject, object)` pairs **sorted by subject**.
    fn scan_predicate(&self, p: u64) -> Vec<(u64, Value)>;

    /// `(s, p, o)` membership.
    fn contains(&self, p: u64, s: u64, o: &Value) -> bool;

    // -------------------------------------------- TP eval (LiteMat inference)

    /// Reasoning-enabled `(s, p⊑, ?o)` over a property interval.
    fn objects_interval(&self, p_iv: IdInterval, s: u64) -> Vec<Value>;

    /// Reasoning-enabled `(?s, p⊑, o)`.
    fn subjects_interval(&self, p_iv: IdInterval, o: &Value) -> Vec<u64>;

    /// Reasoning-enabled `(?s, p⊑, lit)` with a literal constant object.
    fn subjects_by_literal_interval(&self, p_iv: IdInterval, lit: &Literal) -> Vec<u64>;

    /// Reasoning-enabled `(?s, p⊑, ?o)`.
    fn scan_interval(&self, p_iv: IdInterval) -> Vec<(u64, Value)>;

    // ----------------------------------------------------------- rdf:type TPs

    /// `(?s, rdf:type, C)` without reasoning.
    fn subjects_of_concept(&self, c: u64) -> Vec<u64>;

    /// `(?s, rdf:type, C)` with reasoning over C's sub-hierarchy.
    fn subjects_of_concept_interval(&self, iv: IdInterval) -> Vec<u64>;

    /// `(s, rdf:type, ?c)`.
    fn concepts_of_subject(&self, s: u64) -> Vec<u64>;

    /// `(s, rdf:type, C)` exact membership.
    fn has_type(&self, s: u64, c: u64) -> bool;

    /// `(s, rdf:type, C)` membership with reasoning.
    fn has_type_in_interval(&self, s: u64, iv: IdInterval) -> bool;

    /// `(?s, rdf:type, ?c)` — all `(subject, concept)` pairs.
    fn type_pairs(&self) -> Vec<(u64, u64)>;

    // ------------------------------------------------------------ statistics

    /// Total number of triples visible through this source.
    fn len(&self) -> usize;

    /// `true` if no triples are visible.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Triples with predicate `p` (the optimizer's Algorithm 2 statistic).
    fn predicate_count(&self, p: u64) -> usize;

    /// Triples whose predicate lies in the interval.
    fn predicate_interval_count(&self, iv: IdInterval) -> usize;

    /// `rdf:type` triples whose concept lies in the interval.
    fn type_count(&self, iv: IdInterval) -> usize;

    /// Total number of `rdf:type` triples.
    fn type_total(&self) -> usize;
}

impl TripleSource for crate::SuccinctEdgeStore {
    fn instance_id(&self, term: &Term) -> Option<u64> {
        Self::instance_id(self, term)
    }
    fn property_id(&self, iri: &str) -> Option<u64> {
        Self::property_id(self, iri)
    }
    fn concept_id(&self, iri: &str) -> Option<u64> {
        Self::concept_id(self, iri)
    }
    fn property_interval(&self, iri: &str) -> Option<IdInterval> {
        Self::property_interval(self, iri)
    }
    fn concept_interval(&self, iri: &str) -> Option<IdInterval> {
        Self::concept_interval(self, iri)
    }
    fn value_to_term(&self, value: Value) -> Option<Term> {
        Self::value_to_term(self, value)
    }
    fn literal(&self, idx: u64) -> Option<&Literal> {
        Self::literal(self, idx)
    }
    fn values_join(&self, a: Value, b: Value) -> bool {
        Self::values_join(self, a, b)
    }
    fn objects(&self, p: u64, s: u64) -> Vec<Value> {
        Self::objects(self, p, s)
    }
    fn subjects(&self, p: u64, o: &Value) -> Vec<u64> {
        Self::subjects(self, p, o)
    }
    fn subjects_by_literal(&self, p: u64, lit: &Literal) -> Vec<u64> {
        Self::subjects_by_literal(self, p, lit)
    }
    fn scan_predicate(&self, p: u64) -> Vec<(u64, Value)> {
        Self::scan_predicate(self, p)
    }
    fn contains(&self, p: u64, s: u64, o: &Value) -> bool {
        Self::contains(self, p, s, o)
    }
    fn objects_interval(&self, p_iv: IdInterval, s: u64) -> Vec<Value> {
        Self::objects_interval(self, p_iv, s)
    }
    fn subjects_interval(&self, p_iv: IdInterval, o: &Value) -> Vec<u64> {
        Self::subjects_interval(self, p_iv, o)
    }
    fn subjects_by_literal_interval(&self, p_iv: IdInterval, lit: &Literal) -> Vec<u64> {
        Self::subjects_by_literal_interval(self, p_iv, lit)
    }
    fn scan_interval(&self, p_iv: IdInterval) -> Vec<(u64, Value)> {
        Self::scan_interval(self, p_iv)
    }
    fn subjects_of_concept(&self, c: u64) -> Vec<u64> {
        Self::subjects_of_concept(self, c)
    }
    fn subjects_of_concept_interval(&self, iv: IdInterval) -> Vec<u64> {
        Self::subjects_of_concept_interval(self, iv)
    }
    fn concepts_of_subject(&self, s: u64) -> Vec<u64> {
        Self::concepts_of_subject(self, s)
    }
    fn has_type(&self, s: u64, c: u64) -> bool {
        Self::has_type(self, s, c)
    }
    fn has_type_in_interval(&self, s: u64, iv: IdInterval) -> bool {
        Self::has_type_in_interval(self, s, iv)
    }
    fn type_pairs(&self) -> Vec<(u64, u64)> {
        self.type_store().iter().collect()
    }
    fn len(&self) -> usize {
        Self::len(self)
    }
    fn predicate_count(&self, p: u64) -> usize {
        Self::predicate_count(self, p)
    }
    fn predicate_interval_count(&self, iv: IdInterval) -> usize {
        Self::predicate_interval_count(self, iv)
    }
    fn type_count(&self, iv: IdInterval) -> usize {
        Self::type_count(self, iv)
    }
    fn type_total(&self) -> usize {
        self.type_store().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_ontology::Ontology;
    use se_rdf::Graph;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    /// Exercises the trait through a `dyn` reference, proving object
    /// safety and that the blanket impl routes to the inherent methods.
    #[test]
    fn store_answers_through_the_trait() {
        let mut o = Ontology::new();
        o.add_class("http://x/C2", "http://x/C1");
        o.add_object_property("http://x/knows");
        o.add_datatype_property("http://x/age");
        let mut g = Graph::new();
        g.extend([
            se_rdf::Triple::new(iri("a"), Term::iri(se_rdf::vocab::rdf::TYPE), iri("C2")),
            se_rdf::Triple::new(iri("a"), iri("knows"), iri("b")),
            se_rdf::Triple::new(iri("a"), iri("age"), Term::literal("42")),
        ]);
        let store = crate::SuccinctEdgeStore::build(&o, &g).unwrap();
        let src: &dyn TripleSource = &store;

        assert_eq!(src.len(), 3);
        assert_eq!(src.type_total(), 1);
        let knows = src.property_id("http://x/knows").unwrap();
        let a = src.instance_id(&iri("a")).unwrap();
        let b = src.instance_id(&iri("b")).unwrap();
        assert_eq!(src.objects(knows, a), vec![Value::Instance(b)]);
        assert_eq!(src.subjects(knows, &Value::Instance(b)), vec![a]);
        assert_eq!(src.type_pairs().len(), 1);
        let c1 = src.concept_interval("http://x/C1").unwrap();
        assert_eq!(src.subjects_of_concept_interval(c1), vec![a]);
        assert!(src.has_type_in_interval(a, c1));
        // Literal-content join through the default method.
        let age = src.property_id("http://x/age").unwrap();
        let lit = src.objects(age, a)[0];
        assert!(src.values_join(lit, lit));
        let age_iv = src.property_interval("http://x/age").unwrap();
        assert_eq!(
            src.subjects_by_literal_interval(age_iv, &Literal::string("42")),
            vec![a]
        );
    }

    /// The trait's `Send + Sync` supertraits hold for the built-in store
    /// (compile-time check; concurrent continuous-query evaluation and
    /// server snapshot reads rely on it).
    #[test]
    fn sources_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::SuccinctEdgeStore>();
        fn assert_trait_object(src: &(dyn TripleSource + Send + Sync)) -> usize {
            src.len()
        }
        let store =
            crate::SuccinctEdgeStore::build(&se_ontology::Ontology::new(), &se_rdf::Graph::new())
                .unwrap();
        assert_eq!(assert_trait_object(&store), 0);
    }

    /// The literal/literal arm of the default `values_join` resolves each
    /// side exactly once and joins on content.
    #[test]
    fn values_join_default_literal_content() {
        let mut g = Graph::new();
        g.insert(se_rdf::Triple::new(
            iri("a"),
            iri("v"),
            Term::literal("3.14"),
        ));
        g.insert(se_rdf::Triple::new(
            iri("b"),
            iri("v"),
            Term::literal("3.14"),
        ));
        let store = crate::SuccinctEdgeStore::build(&Ontology::new(), &g).unwrap();
        let src: &dyn TripleSource = &store;
        let v = src.property_id("http://x/v").unwrap();
        let a = src.instance_id(&iri("a")).unwrap();
        let b = src.instance_id(&iri("b")).unwrap();
        let la = src.objects(v, a)[0];
        let lb = src.objects(v, b)[0];
        assert_ne!(la, lb, "flat store keeps duplicate literals");
        assert!(src.values_join(la, lb));
        assert!(!src.values_join(la, Value::Literal(999)));
        assert!(!src.values_join(Value::Literal(999), Value::Literal(998)));
    }
}
