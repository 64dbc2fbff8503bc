//! Epoch-pinned MVCC snapshots of the streaming store.
//!
//! [`StoreSnapshot`] is an immutable view of a [`ShardedHybridStore`]
//! frozen at one logical write epoch. Taking one shares the succinct
//! shard layers by `Arc` (O(1) per shard) and freezes the overlays,
//! dictionaries and literal table by value (O(overlay + dictionaries));
//! cloning one is an `Arc` bump (O(1)), so a server hands the same
//! snapshot to any number of reader threads. The view implements the
//! full [`TripleSource`] trait by direct delegation to the frozen store,
//! so SPARQL execution and continuous-query evaluation run against it
//! unchanged — and, being immutable, it never blocks (and is never
//! blocked by) `apply` or compaction on the live store.
//!
//! # Pin lifecycle
//!
//! Every snapshot holds a *pin* on its origin store, released when the
//! last clone drops:
//!
//! * swapped-out shard layers stay alive exactly as long as a snapshot
//!   references them — `Arc` reclamation, no epoch bookkeeping on the
//!   read path;
//! * the store's quiescence-only literal GC treats a non-zero pin count
//!   as non-quiescent, so `Value::Literal` ids decoded from a snapshot
//!   keep meaning the same content on the live store;
//! * the pin count is observable via `stats().live_pins`, making
//!   snapshot leaks visible.

use crate::shard::ShardedHybridStore;
use se_core::{TripleSource, Value};
use se_litemat::IdInterval;
use se_rdf::{Literal, Term};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct SnapshotInner {
    /// A frozen store that is never written again.
    view: ShardedHybridStore,
    epoch: u64,
    /// The origin store's pin counter; incremented on construction,
    /// decremented on drop.
    pins: Arc<AtomicUsize>,
}

impl Drop for SnapshotInner {
    fn drop(&mut self) {
        self.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

/// An immutable, cheaply-clonable view of a streaming store at one
/// epoch. See the [module docs](self) for the lifecycle.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    inner: Arc<SnapshotInner>,
}

impl StoreSnapshot {
    pub(crate) fn pin(view: ShardedHybridStore, epoch: u64, pins: Arc<AtomicUsize>) -> Self {
        pins.fetch_add(1, Ordering::AcqRel);
        Self {
            inner: Arc::new(SnapshotInner { view, epoch, pins }),
        }
    }

    /// The logical write epoch this snapshot was taken at: the number of
    /// `apply` batches the origin store had completed.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The frozen store (all delegation funnels here).
    fn view(&self) -> &ShardedHybridStore {
        &self.inner.view
    }
}

impl TripleSource for StoreSnapshot {
    fn instance_id(&self, term: &Term) -> Option<u64> {
        self.view().instance_id(term)
    }
    fn property_id(&self, iri: &str) -> Option<u64> {
        self.view().property_id(iri)
    }
    fn concept_id(&self, iri: &str) -> Option<u64> {
        self.view().concept_id(iri)
    }
    fn property_interval(&self, iri: &str) -> Option<IdInterval> {
        self.view().property_interval(iri)
    }
    fn concept_interval(&self, iri: &str) -> Option<IdInterval> {
        self.view().concept_interval(iri)
    }
    fn value_to_term(&self, value: Value) -> Option<Term> {
        self.view().value_to_term(value)
    }
    fn literal(&self, idx: u64) -> Option<&Literal> {
        self.view().literal(idx)
    }
    fn values_join(&self, a: Value, b: Value) -> bool {
        self.view().values_join(a, b)
    }
    fn objects(&self, p: u64, s: u64) -> Vec<Value> {
        self.view().objects(p, s)
    }
    fn subjects(&self, p: u64, o: &Value) -> Vec<u64> {
        self.view().subjects(p, o)
    }
    fn subjects_by_literal(&self, p: u64, lit: &Literal) -> Vec<u64> {
        self.view().subjects_by_literal(p, lit)
    }
    fn scan_predicate(&self, p: u64) -> Vec<(u64, Value)> {
        self.view().scan_predicate(p)
    }
    fn contains(&self, p: u64, s: u64, o: &Value) -> bool {
        self.view().contains(p, s, o)
    }
    fn objects_interval(&self, p_iv: IdInterval, s: u64) -> Vec<Value> {
        self.view().objects_interval(p_iv, s)
    }
    fn subjects_interval(&self, p_iv: IdInterval, o: &Value) -> Vec<u64> {
        self.view().subjects_interval(p_iv, o)
    }
    fn subjects_by_literal_interval(&self, p_iv: IdInterval, lit: &Literal) -> Vec<u64> {
        self.view().subjects_by_literal_interval(p_iv, lit)
    }
    fn scan_interval(&self, p_iv: IdInterval) -> Vec<(u64, Value)> {
        self.view().scan_interval(p_iv)
    }
    fn subjects_of_concept(&self, c: u64) -> Vec<u64> {
        self.view().subjects_of_concept(c)
    }
    fn subjects_of_concept_interval(&self, iv: IdInterval) -> Vec<u64> {
        self.view().subjects_of_concept_interval(iv)
    }
    fn concepts_of_subject(&self, s: u64) -> Vec<u64> {
        self.view().concepts_of_subject(s)
    }
    fn has_type(&self, s: u64, c: u64) -> bool {
        self.view().has_type(s, c)
    }
    fn has_type_in_interval(&self, s: u64, iv: IdInterval) -> bool {
        self.view().has_type_in_interval(s, iv)
    }
    fn type_pairs(&self) -> Vec<(u64, u64)> {
        self.view().type_pairs()
    }
    fn len(&self) -> usize {
        self.view().len()
    }
    fn is_empty(&self) -> bool {
        self.view().is_empty()
    }
    fn predicate_count(&self, p: u64) -> usize {
        self.view().predicate_count(p)
    }
    fn predicate_interval_count(&self, iv: IdInterval) -> usize {
        self.view().predicate_interval_count(iv)
    }
    fn type_count(&self, iv: IdInterval) -> usize {
        self.view().type_count(iv)
    }
    fn type_total(&self) -> usize {
        self.view().type_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompactionPolicy, ShardedHybridStore};
    use se_ontology::Ontology;
    use se_rdf::{Graph, Triple};

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://snap.example/{s}"))
    }

    fn t(s: &str, p: &str, o: Term) -> Triple {
        Triple::new(iri(s), iri(p), o)
    }

    fn ontology() -> Ontology {
        let mut o = Ontology::new();
        o.add_class("http://snap.example/C1", "");
        o.add_object_property("http://snap.example/knows");
        o.add_datatype_property("http://snap.example/age");
        o
    }

    fn batch(triples: Vec<Triple>) -> Graph {
        Graph::from_triples(triples)
    }

    /// The single-store configuration: one shard, inline compaction.
    fn single_store() -> ShardedHybridStore {
        ShardedHybridStore::build(&ontology(), &Graph::new(), 1)
            .unwrap()
            .with_background_compaction(false)
    }

    /// A snapshot keeps answering at its epoch while the live store moves
    /// on — through a write *and* a compaction that swaps the baseline.
    #[test]
    fn hybrid_snapshot_is_isolated_from_later_writes_and_compaction() {
        let mut h = single_store().with_policy(CompactionPolicy { max_overlay: 2 });
        h.apply(&batch(vec![t("a", "knows", iri("b"))]), &Graph::new())
            .unwrap();
        let snap = h.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(h.live_pins(), 1);
        // Two inserts cross max_overlay: the live store compacts and its
        // shard-layer Arc is replaced under the snapshot.
        let r = h
            .apply(
                &batch(vec![
                    t("a", "knows", iri("c")),
                    t("a", "age", Term::literal("7")),
                ]),
                &Graph::new(),
            )
            .unwrap();
        assert!(r.compacted);
        assert_eq!(h.epoch(), 2);
        assert_eq!(TripleSource::len(&h), 3);
        // The pinned view still sees exactly the epoch-1 store.
        assert_eq!(TripleSource::len(&snap), 1);
        let p = snap.property_id("http://snap.example/knows").unwrap();
        let a = snap.instance_id(&iri("a")).unwrap();
        assert_eq!(snap.objects(p, a).len(), 1);
        // Clones share the pin; dropping all of them releases it.
        let snap2 = snap.clone();
        assert_eq!(h.live_pins(), 1);
        drop(snap);
        assert_eq!(h.live_pins(), 1);
        drop(snap2);
        assert_eq!(h.live_pins(), 0);
        let stats = h.stats();
        assert_eq!(stats.snapshots, 1);
        assert_eq!(stats.epoch, 2);
    }

    /// Same isolation property across several shards, including shard
    /// compactions racing the pinned reader.
    #[test]
    fn sharded_snapshot_is_isolated_from_later_writes() {
        let mut h = ShardedHybridStore::build(&ontology(), &Graph::new(), 3)
            .unwrap()
            .with_policy(CompactionPolicy { max_overlay: 2 })
            .with_background_compaction(false);
        h.apply(
            &batch(vec![t("a", "age", Term::literal("41"))]),
            &Graph::new(),
        )
        .unwrap();
        let snap = h.snapshot();
        assert_eq!(snap.epoch(), 1);
        // Replace the literal value: delete + insert, then push the shard
        // over its compaction threshold.
        h.apply(
            &batch(vec![
                t("a", "age", Term::literal("42")),
                t("a", "knows", iri("b")),
                t("b", "knows", iri("a")),
            ]),
            &batch(vec![t("a", "age", Term::literal("41"))]),
        )
        .unwrap();
        assert!(h.stats().compactions >= 1);
        let p = snap.property_id("http://snap.example/age").unwrap();
        let a = snap.instance_id(&iri("a")).unwrap();
        // The snapshot still answers the *old* literal.
        assert_eq!(snap.subjects_by_literal(p, &Literal::string("41")), vec![a]);
        assert!(snap
            .subjects_by_literal(p, &Literal::string("42"))
            .is_empty());
        assert_eq!(TripleSource::len(&snap), 1);
        assert_eq!(TripleSource::len(&h), 3);
        drop(snap);
        assert_eq!(h.live_pins(), 0);
    }

    /// Snapshots are Send + Sync + 'static: a reader thread can own one.
    #[test]
    fn snapshot_crosses_threads() {
        let mut h = single_store();
        h.apply(&batch(vec![t("a", "knows", iri("b"))]), &Graph::new())
            .unwrap();
        let snap = h.snapshot();
        let handle = std::thread::spawn(move || TripleSource::len(&snap));
        assert_eq!(handle.join().unwrap(), 1);
        assert_eq!(h.live_pins(), 0);
    }
}
