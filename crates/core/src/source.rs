//! The [`TripleSource`] trait: pattern-level access to an RDF store.
//!
//! The paper evaluates every triple pattern through a fixed menu of
//! identifier-space accesses (Algorithms 2–4 plus the LiteMat interval
//! variants of §5.2). This trait captures that menu, so the query
//! executor in `se-sparql` is independent of *which* store answers it:
//!
//! * the immutable [`SuccinctEdgeStore`](crate::SuccinctEdgeStore) —
//!   wavelet trees, bitmaps and sorted `rdf:type` arrays;
//! * the streaming `ShardedHybridStore` of `se-stream` — succinct layers
//!   plus a mutable delta overlay of inserted/deleted triples (its
//!   epoch-pinned `StoreSnapshot` derefs to one).
//!
//! # Exact probes and the one interval rule
//!
//! A store implements only *exact* probes — one property id per call —
//! plus [`properties_in`](TripleSource::properties_in), the distinct
//! property ids it holds inside a LiteMat interval. Reasoning over a
//! property hierarchy (§5.2: "replace index_p with a continuous interval")
//! is written once, here, as free functions generic over any source:
//! [`objects_in`], [`subjects_in`], [`subjects_by_literal_in`],
//! [`scan_in`] and [`predicate_count_in`] each run the exact probe once per
//! property of the interval and combine the answers. `rdf:type` patterns
//! are the exception: the RDFType store answers a concept interval with
//! one range scan, so the trait carries the interval forms directly.
//!
//! # Contract
//!
//! Implementations must keep the invariants the executor relies on:
//!
//! * [`scan_predicate`](TripleSource::scan_predicate) returns `(subject,
//!   object)` pairs **sorted by subject id** (PSO order) — the merge-join
//!   fast path of §5.2 merges it against a subject-sorted intermediate
//!   relation. [`scan_in`] k-way merges those runs, so an interval scan is
//!   subject-sorted on every store too;
//! * `subjects*` results are ascending and deduplicated;
//! * [`properties_in`](TripleSource::properties_in) is ascending,
//!   deduplicated, and includes every property with a visible triple in
//!   the interval (it may include one whose triples are all deleted);
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
//! implementations are plain owned data (`Vec`s, boxed slices, `BTreeMap`s,
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

    // ------------------------------------------------------- exact TP probes

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

    /// Distinct property ids inside `iv` that the store holds triples
    /// for, ascending — the fan-out set of every interval pattern.
    fn properties_in(&self, iv: IdInterval) -> Vec<u64>;

    // ----------------------------------------------------------- rdf:type TPs

    /// `(?s, rdf:type, C)` over a concept interval (a singleton interval
    /// without reasoning, C's sub-hierarchy with it).
    fn subjects_of_concept_interval(&self, iv: IdInterval) -> Vec<u64>;

    /// `(s, rdf:type, ?c)`.
    fn concepts_of_subject(&self, s: u64) -> Vec<u64>;

    /// `(s, rdf:type, C)` membership over a concept interval.
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

    /// `rdf:type` triples whose concept lies in the interval
    /// ([`IdInterval::ALL`] counts them all).
    fn type_count(&self, iv: IdInterval) -> usize;
}

/// Reasoning-enabled `(s, p⊑, ?o)`: the objects of `s` under every
/// property of the interval.
pub fn objects_in<S: TripleSource + ?Sized>(store: &S, iv: IdInterval, s: u64) -> Vec<Value> {
    let props = store.properties_in(iv);
    props
        .into_iter()
        .flat_map(|p| store.objects(p, s))
        .collect()
}

/// Reasoning-enabled `(?s, p⊑, o)`, ascending and deduplicated.
pub fn subjects_in<S: TripleSource + ?Sized>(store: &S, iv: IdInterval, o: &Value) -> Vec<u64> {
    let props = store.properties_in(iv);
    sorted_union(props.into_iter().map(|p| store.subjects(p, o)))
}

/// Reasoning-enabled `(?s, p⊑, lit)` with a literal constant object.
pub fn subjects_by_literal_in<S: TripleSource + ?Sized>(
    store: &S,
    iv: IdInterval,
    lit: &Literal,
) -> Vec<u64> {
    let props = store.properties_in(iv);
    sorted_union(props.into_iter().map(|p| store.subjects_by_literal(p, lit)))
}

/// Reasoning-enabled `(?s, p⊑, ?o)`: every property's subject-sorted scan,
/// k-way merged so the whole result stays **sorted by subject**.
pub fn scan_in<S: TripleSource + ?Sized>(store: &S, iv: IdInterval) -> Vec<(u64, Value)> {
    let props = store.properties_in(iv);
    kway_merge_by_subject(props.into_iter().map(|p| store.scan_predicate(p)).collect())
}

/// Triples whose predicate lies in the interval.
pub fn predicate_count_in<S: TripleSource + ?Sized>(store: &S, iv: IdInterval) -> usize {
    let props = store.properties_in(iv);
    props.into_iter().map(|p| store.predicate_count(p)).sum()
}

fn sorted_union(runs: impl Iterator<Item = Vec<u64>>) -> Vec<u64> {
    let mut out: Vec<u64> = runs.flatten().collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// K-way merge of subject-sorted `(subject, value)` runs into one
/// subject-sorted run — a min-heap over run heads, O(n log k) (stable:
/// ties broken by run index, so a run listed first keeps its rows first).
pub fn kway_merge_by_subject(mut runs: Vec<Vec<(u64, Value)>>) -> Vec<(u64, Value)> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    runs.retain(|r| !r.is_empty());
    match runs.len() {
        0 => return Vec::new(),
        1 => return runs.pop().expect("len checked"),
        _ => {}
    }
    let total = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    // Heap key: (subject, run index) — run index both breaks ties
    // deterministically and addresses the cursor.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = runs
        .iter()
        .enumerate()
        .map(|(k, run)| Reverse((run[0].0, k)))
        .collect();
    let mut cursors = vec![0usize; runs.len()];
    while let Some(Reverse((_, k))) = heap.pop() {
        out.push(runs[k][cursors[k]]);
        cursors[k] += 1;
        if let Some(&(s, _)) = runs[k].get(cursors[k]) {
            heap.push(Reverse((s, k)));
        }
    }
    out
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
    fn properties_in(&self, iv: IdInterval) -> Vec<u64> {
        Self::properties_in(self, iv)
    }
    fn subjects_of_concept_interval(&self, iv: IdInterval) -> Vec<u64> {
        Self::subjects_of_concept_interval(self, iv)
    }
    fn concepts_of_subject(&self, s: u64) -> Vec<u64> {
        Self::concepts_of_subject(self, s)
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
    fn type_count(&self, iv: IdInterval) -> usize {
        Self::type_count(self, iv)
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
        assert_eq!(src.type_count(IdInterval::ALL), 1);
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
            subjects_by_literal_in(src, age_iv, &Literal::string("42")),
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
