//! Epoch-pinned MVCC snapshots of the streaming store.
//!
//! [`StoreSnapshot`] is an immutable view of a [`ShardedHybridStore`]
//! frozen at one logical write epoch. Taking one shares the succinct
//! shard layers by `Arc` (O(1) per shard) and freezes the overlays,
//! dictionaries and literal table by value (O(overlay + dictionaries));
//! cloning one is an `Arc` bump (O(1)), so a server hands the same
//! snapshot to any number of reader threads. A snapshot derefs to its
//! frozen store, so every read — [`TripleSource`] probes, SPARQL
//! execution (pass `&*snap`), continuous-query evaluation — runs against
//! it unchanged; and, being immutable, it never blocks (and is never
//! blocked by) `apply` or compaction on the live store. The snapshot
//! itself adds only the epoch and the pin below.
//!
//! [`TripleSource`]: se_core::TripleSource
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
use std::ops::Deref;
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
}

impl Deref for StoreSnapshot {
    type Target = ShardedHybridStore;

    fn deref(&self) -> &ShardedHybridStore {
        &self.inner.view
    }
}

#[cfg(test)]
mod tests {
    use crate::{CompactionPolicy, ShardedHybridStore};
    use se_core::TripleSource;
    use se_ontology::Ontology;
    use se_rdf::{Graph, Literal, Term, Triple};

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

    /// The single-store configuration: one shard.
    fn single_store() -> ShardedHybridStore {
        ShardedHybridStore::build(&ontology(), &Graph::new(), 1).unwrap()
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
        assert_eq!(TripleSource::len(&*snap), 1);
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
            .with_policy(CompactionPolicy { max_overlay: 2 });
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
        assert_eq!(TripleSource::len(&*snap), 1);
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
        let handle = std::thread::spawn(move || TripleSource::len(&*snap));
        assert_eq!(handle.join().unwrap(), 1);
        assert_eq!(h.live_pins(), 0);
    }
}
