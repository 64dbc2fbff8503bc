//! # se-stream — incremental ingestion for SuccinctEdge
//!
//! The paper's SuccinctEdge store is built once and never mutated; its
//! headline scenario — anomaly detection over water-network sensors at the
//! edge — is nevertheless *streaming*. This crate closes that gap with a
//! delta-overlay architecture in the spirit of incremental dataflow
//! systems:
//!
//! * [`DeltaStore`](delta::DeltaStore) — a mutable overlay of
//!   inserted/deleted triples in identifier space, held in red-black
//!   trees (`se-rbtree`) with PSO/POS access paths and a
//!   content-interned literal table;
//! * [`HybridStore`] — the merged query view over baseline + overlay. It
//!   implements `se-core`'s [`TripleSource`](se_core::TripleSource), so
//!   the unmodified `se-sparql` executor (merge joins, LiteMat interval
//!   reasoning, Algorithm 1 ordering) runs against live data. Terms
//!   unseen at build time go to *overflow dictionaries*
//!   ([`OVERFLOW_BASE`]);
//! * **compaction** — past a [`CompactionPolicy`] threshold the overlay
//!   is folded back: baseline + delta are materialized to a term graph
//!   and the succinct layers are rebuilt (overflow terms gain LiteMat
//!   codes via ontology augmentation);
//! * [`persist`] — delta-aware v02 persistence: baseline layer files
//!   (raw v01 `SuccinctEdgeStore` bytes, reused save to save) plus a raw
//!   overlay snapshot (tombstones, overflow dictionaries, interned
//!   literals) and a sharded manifest, so `save` is `&self`, never
//!   compacts, and shutdown/restart is O(delta) — see the byte-level
//!   format spec in the module docs;
//! * [`ContinuousQueryRegistry`] / [`StreamSession`] — SPARQL queries
//!   parsed once, re-evaluated over the hybrid view after every ingested
//!   batch: the paper's "one query per graph instance" loop without the
//!   per-instance rebuild.
//!
//! # Architecture: shard routing and background compaction
//!
//! [`ShardedHybridStore`] scales the write path across cores by
//! partitioning the triple space **by predicate** (`rdf:type` triples by
//! concept) into N `baseline + overlay` shards behind one scatter/gather
//! [`TripleSource`](se_core::TripleSource):
//!
//! ```text
//!                  apply(inserts, deletes)
//!                          │
//!              ┌───── encode + route ─────┐      global dictionaries:
//!              │   (routing table: prop   │      · instances: dense, append-only
//!              │    id → shard, concept   │      · props/concepts: one LiteMat
//!              │    id → shard; policy    │        encode, overflow ≥ 2^62
//!              │    hook for custom       │      · overlay literals: shared
//!              │    layouts)              │        content-interned table
//!              ▼                          ▼
//!        ┌─────────┐                ┌─────────┐
//!        │ shard 0 │       …        │ shard N │   one pool worker each:
//!        │ layers  │                │ layers  │   baseline probes + rbtree
//!        │ + delta │                │ + delta │   overlay insertion in parallel
//!        └────┬────┘                └────┬────┘
//!             │     scatter/gather       │
//!             └──────────┬───────────────┘
//!                        ▼
//!          predicate-bound pattern → one shard
//!          unbound / LiteMat interval → fan out, k-way merge
//! ```
//!
//! Every shard stores triples in the **same global id space** (the store
//! owns the dictionaries; shard layers are built against them without
//! re-encoding), so gathered runs join directly and the merge-join
//! ordering contracts survive sharding.
//!
//! # Architecture: the persistent shard worker runtime
//!
//! All parallel work of a sharded store runs on one [`ShardRuntime`] —
//! a fleet of **parked** worker threads (condvar-based, zero CPU while
//! idle), one per shard, spawned lazily on the first batch that needs
//! them and joined when the store drops:
//!
//! * **Job hand-off** is a depth-one SPSC slot per worker (mutex +
//!   condvar pair): the store submits one owned job, the worker wakes,
//!   runs it, parks again; the store reaps the output blocking
//!   (ingest), by polling (background rebuilds), or scoped (queries).
//!   Waking a parked worker costs microseconds — the ~100µs per-batch
//!   `thread::scope` spawn cost of the old ingest path is gone, which
//!   moves the parallel break-even down from ~1k ops to
//!   [`POOL_MIN_OPS`] ops per batch.
//! * **Pipeline stages.** `apply` is a two-stage pipeline: the caller
//!   encodes + routes operations into recycled per-shard buffers and
//!   hands off a chunk every [`PIPELINE_CHUNK`] ops, so workers drain
//!   chunk *i* (baseline probes, rbtree insertion) while the caller
//!   encodes chunk *i+1*. Jobs own everything they touch — the shard
//!   overlay and op buffers move in and move back on reap; literal ops
//!   carry their content so workers never read the shared tables the
//!   caller is still interning into.
//! * **Thread budget.** Background compaction rebuilds and parallel
//!   continuous-query evaluation run as jobs on the *same* N workers
//!   (no ad-hoc `thread::spawn`): a store never holds more than N
//!   worker threads, a worker busy rebuilding is simply skipped (its
//!   shard's ingest chunks apply inline; queries spread over the idle
//!   workers), and dropping the store parks, wakes and joins the whole
//!   fleet — zero threads outlive it. A panicking job is caught and
//!   surfaced as [`StreamError::Worker`] instead of deadlocking the
//!   pool.
//!
//! Compaction is split out of the ingest hot path: when a shard's overlay
//! crosses the [`CompactionPolicy`] threshold, its pool worker folds
//! an `Arc` snapshot of its layers + a clone of its overlay into fresh
//! layers (pure, id-stable), and a later `apply` **atomically swaps** the
//! result in, rebasing any writes that raced the rebuild via a pure
//! visibility rule. `apply` latency is therefore bounded by routing +
//! overlay insertion + swap — never by layer construction. The single
//! [`HybridStore`] exposes the same split (`plan_compaction` /
//! [`CompactionPlan::build`] / `swap_baseline`) for callers that manage
//! their own threads.

pub mod continuous;
pub mod delta;
pub mod error;
pub mod fault;
pub mod hybrid;
pub mod incremental;
pub mod persist;
pub mod runtime;
pub mod shard;
pub mod snapshot;
pub mod wal;

pub use continuous::{
    replay_record, BatchOutcome, ContinuousQuery, ContinuousQueryRegistry, ContinuousResult,
    StreamSession, StreamStats, StreamStore,
};
pub use delta::{DeltaObj, DeltaState, DeltaStore};
pub use error::StreamError;
pub use hybrid::{
    BatchDelta, CompactionPlan, CompactionPolicy, HybridStats, HybridStore, IngestReport,
    OVERFLOW_BASE,
};
pub use incremental::EvalStrategy;
pub use persist::{PersistentStore, SaveReport};
pub use runtime::ShardRuntime;
pub use shard::{
    IngestMode, ShardPolicy, ShardedHybridStore, ShardedStats, LIT_SHARD_STRIDE, MAX_SHARDS,
    PIPELINE_CHUNK, POOL_MIN_OPS,
};
pub use snapshot::StoreSnapshot;
pub use wal::{
    decode_record_payload, encode_record_payload, read_tail, SyncPolicy, WalConfig, WalHealth,
    WalRecord,
};

#[cfg(test)]
mod tests {
    use super::*;
    use se_core::{TripleSource, Value};
    use se_ontology::Ontology;
    use se_rdf::{Graph, Literal, Term, Triple};
    use se_sparql::QueryOptions;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn t(s: &str, p: &str, o: Term) -> Triple {
        Triple::new(iri(s), Term::iri(format!("http://x/{p}")), o)
    }

    fn ty(s: &str, c: &str) -> Triple {
        Triple::new(iri(s), Term::iri(se_rdf::vocab::rdf::TYPE), iri(c))
    }

    fn ontology() -> Ontology {
        let mut o = Ontology::new();
        o.add_class("http://x/C2", "http://x/C1");
        o.add_property("http://x/worksFor", "http://x/memberOf");
        o.add_object_property("http://x/knows");
        o.add_datatype_property("http://x/age");
        o
    }

    fn seed_graph() -> Graph {
        Graph::from_triples([
            ty("a", "C2"),
            ty("b", "C1"),
            t("a", "knows", iri("b")),
            t("a", "worksFor", iri("org")),
            t("b", "memberOf", iri("org")),
            t("a", "age", Term::literal("42")),
        ])
    }

    fn hybrid() -> HybridStore {
        HybridStore::build(&ontology(), &seed_graph()).unwrap()
    }

    #[test]
    fn baseline_answers_pass_through() {
        let h = hybrid();
        assert_eq!(h.len(), 6);
        let knows = h.property_id("http://x/knows").unwrap();
        let a = h.instance_id(&iri("a")).unwrap();
        let b = h.instance_id(&iri("b")).unwrap();
        assert_eq!(h.objects(knows, a), vec![Value::Instance(b)]);
        assert!(h.contains(knows, a, &Value::Instance(b)));
    }

    #[test]
    fn insert_then_query_without_rebuild() {
        let mut h = hybrid();
        assert!(h.insert_triple(&t("b", "knows", iri("a"))).unwrap());
        // Duplicate insert is a no-op.
        assert!(!h.insert_triple(&t("b", "knows", iri("a"))).unwrap());
        assert_eq!(h.len(), 7);
        let knows = h.property_id("http://x/knows").unwrap();
        let a = h.instance_id(&iri("a")).unwrap();
        let b = h.instance_id(&iri("b")).unwrap();
        assert_eq!(h.subjects(knows, &Value::Instance(a)), vec![b]);
        assert_eq!(h.scan_predicate(knows).len(), 2);
        assert_eq!(h.predicate_count(knows), 2);
    }

    #[test]
    fn delete_baseline_triple_tombstones_it() {
        let mut h = hybrid();
        assert!(h.delete_triple(&t("a", "knows", iri("b"))).unwrap());
        assert!(!h.delete_triple(&t("a", "knows", iri("b"))).unwrap());
        assert_eq!(h.len(), 5);
        let knows = h.property_id("http://x/knows").unwrap();
        let a = h.instance_id(&iri("a")).unwrap();
        assert!(h.objects(knows, a).is_empty());
        assert_eq!(h.predicate_count(knows), 0);
        // Re-insert restores visibility through the baseline copy (no
        // duplicate in scans).
        assert!(h.insert_triple(&t("a", "knows", iri("b"))).unwrap());
        assert_eq!(h.objects(knows, a).len(), 1);
        assert_eq!(h.scan_predicate(knows).len(), 1);
    }

    #[test]
    fn insert_then_delete_overlay_triple_cancels() {
        let mut h = hybrid();
        h.insert_triple(&t("c", "knows", iri("a"))).unwrap();
        assert!(h.delete_triple(&t("c", "knows", iri("a"))).unwrap());
        assert_eq!(h.len(), 6);
        let knows = h.property_id("http://x/knows").unwrap();
        let c = h.instance_id(&iri("c")).unwrap();
        assert!(h.objects(knows, c).is_empty());
    }

    #[test]
    fn overflow_terms_are_queryable() {
        let mut h = hybrid();
        // Unknown subject, property and class.
        h.insert_triple(&t("newSensor", "emits", iri("a"))).unwrap();
        h.insert_triple(&ty("newSensor", "NewKind")).unwrap();
        h.insert_triple(&t("newSensor", "reading", Term::literal("7.5")))
            .unwrap();
        let p = h.property_id("http://x/emits").unwrap();
        assert!(p >= OVERFLOW_BASE);
        let ns = h.instance_id(&iri("newSensor")).unwrap();
        let a = h.instance_id(&iri("a")).unwrap();
        assert_eq!(h.subjects(p, &Value::Instance(a)), vec![ns]);
        // Overflow property interval is a singleton.
        let iv = h.property_interval("http://x/emits").unwrap();
        assert!(iv.is_singleton());
        assert_eq!(h.objects_interval(iv, ns), vec![Value::Instance(a)]);
        // Overflow concept.
        let c = h.concept_id("http://x/NewKind").unwrap();
        assert!(c >= OVERFLOW_BASE);
        assert_eq!(h.subjects_of_concept(c), vec![ns]);
        assert!(h.has_type(ns, c));
        // Overflow literal decodes.
        let reading = h.property_id("http://x/reading").unwrap();
        let objs = h.objects(reading, ns);
        assert_eq!(objs.len(), 1);
        assert_eq!(h.value_to_term(objs[0]).unwrap(), Term::literal("7.5"));
    }

    #[test]
    fn type_queries_with_reasoning_see_overlay() {
        let mut h = hybrid();
        h.insert_triple(&ty("c", "C2")).unwrap();
        h.delete_triple(&ty("b", "C1")).unwrap();
        let iv = h.concept_interval("http://x/C1").unwrap();
        let a = h.instance_id(&iri("a")).unwrap();
        let c = h.instance_id(&iri("c")).unwrap();
        let mut expected = vec![a, c];
        expected.sort_unstable();
        assert_eq!(h.subjects_of_concept_interval(iv), expected);
        let b = h.instance_id(&iri("b")).unwrap();
        assert!(!h.has_type_in_interval(b, iv));
        assert!(h.has_type_in_interval(c, iv));
        assert_eq!(h.type_pairs().len(), 2);
    }

    #[test]
    fn property_interval_reasoning_sees_overlay() {
        let mut h = hybrid();
        h.insert_triple(&t("c", "worksFor", iri("org"))).unwrap();
        let iv = h.property_interval("http://x/memberOf").unwrap();
        let org = h.instance_id(&iri("org")).unwrap();
        let subs = h.subjects_interval(iv, &Value::Instance(org));
        assert_eq!(subs.len(), 3, "a (worksFor), b (memberOf), c (overlay)");
        assert_eq!(h.predicate_interval_count(iv), 3);
    }

    #[test]
    fn literal_tombstone_and_overlay_literals() {
        let mut h = hybrid();
        let age = h.property_id("http://x/age").unwrap();
        // Delete the baseline literal triple.
        h.delete_triple(&t("a", "age", Term::literal("42")))
            .unwrap();
        assert!(h
            .subjects_by_literal(age, &Literal::string("42"))
            .is_empty());
        // Add a fresh one for another subject.
        h.insert_triple(&t("b", "age", Term::literal("42")))
            .unwrap();
        let b = h.instance_id(&iri("b")).unwrap();
        assert_eq!(h.subjects_by_literal(age, &Literal::string("42")), vec![b]);
    }

    #[test]
    fn compaction_preserves_view_and_folds_overflow() {
        let mut h = hybrid();
        h.insert_triple(&t("newSensor", "emits", iri("a"))).unwrap();
        h.insert_triple(&ty("newSensor", "NewKind")).unwrap();
        h.delete_triple(&t("a", "knows", iri("b"))).unwrap();
        let before = h.materialize();
        h.compact().unwrap();
        assert!(h.delta().is_empty());
        assert_eq!(h.stats().compactions, 1);
        let after = h.materialize();
        let norm = |g: &Graph| {
            let mut v: Vec<String> = g.iter().map(|t| t.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&before), norm(&after));
        // Overflow terms now live in the rebuilt dictionaries.
        assert!(h.property_id("http://x/emits").unwrap() < OVERFLOW_BASE);
        assert!(h.concept_id("http://x/NewKind").unwrap() < OVERFLOW_BASE);
    }

    #[test]
    fn policy_triggers_compaction_during_apply() {
        let mut h = hybrid().with_policy(CompactionPolicy { max_overlay: 3 });
        let inserts = Graph::from_triples([
            t("c", "knows", iri("a")),
            t("d", "knows", iri("a")),
            t("e", "knows", iri("a")),
            t("f", "knows", iri("a")),
        ]);
        let report = h.apply(&inserts, &Graph::new()).unwrap();
        assert_eq!(report.inserted, 4);
        assert!(report.compacted);
        assert_eq!(h.stats().compactions, 1);
        assert_eq!(h.len(), 10);
    }

    /// The v02 directory save/load path round-trips a dirty overlay.
    #[test]
    fn persist_roundtrip_through_compaction() {
        let mut h = hybrid();
        h.insert_triple(&t("c", "knows", iri("a"))).unwrap();
        h.delete_triple(&ty("b", "C1")).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("se-stream-persist-{}.v02", std::process::id()));
        h.save(&path).unwrap();
        let back = HybridStore::load(&path, &ontology()).unwrap();
        std::fs::remove_dir_all(&path).ok();
        assert_eq!(back.len(), h.len());
        let norm = |g: &Graph| {
            let mut v: Vec<String> = g.iter().map(|t| t.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&back.materialize()), norm(&h.materialize()));
    }

    #[test]
    fn malformed_triples_rejected() {
        let mut h = hybrid();
        let bad = Triple {
            subject: Term::literal("bad"),
            predicate: Term::iri("http://x/p"),
            object: iri("o"),
        };
        assert!(matches!(
            h.insert_triple(&bad),
            Err(StreamError::Malformed(_))
        ));
        let bad_type = Triple {
            subject: iri("s"),
            predicate: Term::iri(se_rdf::vocab::rdf::TYPE),
            object: Term::literal("bad"),
        };
        assert!(matches!(
            h.insert_triple(&bad_type),
            Err(StreamError::Malformed(_))
        ));
    }

    #[test]
    fn merge_join_sees_overlay_literals_on_mixed_predicate() {
        // Baseline: p -> instance objects for 20 subjects (enough rows to
        // enable the merge-join fast path). Overlay: p -> literal objects
        // for the same subjects. The second join TP must bind BOTH kinds,
        // which requires scan_predicate to stay globally subject-sorted.
        let mut o = Ontology::new();
        o.add_object_property("http://x/p");
        o.add_object_property("http://x/q");
        let mut g = Graph::new();
        for i in 0..20 {
            g.insert(t(&format!("s{i}"), "q", iri("hub")));
            g.insert(t(&format!("s{i}"), "p", iri("target")));
        }
        let mut h = HybridStore::build(&o, &g).unwrap();
        for i in 0..20 {
            h.insert_triple(&t(&format!("s{i}"), "p", Term::literal(format!("v{i}"))))
                .unwrap();
        }
        let p = h.property_id("http://x/p").unwrap();
        let subjects: Vec<u64> = h.scan_predicate(p).iter().map(|(s, _)| *s).collect();
        let mut sorted = subjects.clone();
        sorted.sort_unstable();
        assert_eq!(subjects, sorted, "hybrid scan must stay subject-sorted");

        let q = "PREFIX e: <http://x/> SELECT ?s ?o WHERE { ?s e:q e:hub . ?s e:p ?o }";
        let with_merge = se_sparql::execute_query(&h, q, &QueryOptions::default()).unwrap();
        let without = se_sparql::execute_query(
            &h,
            q,
            &QueryOptions {
                merge_join: false,
                ..QueryOptions::default()
            },
        )
        .unwrap();
        let norm = |rs: &se_sparql::ResultSet| {
            let mut v: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(with_merge.len(), 40, "20 instance + 20 literal bindings");
        assert_eq!(norm(&with_merge), norm(&without));
    }

    #[test]
    fn noop_operations_allocate_nothing() {
        let mut h = hybrid();
        // Delete of an absent triple whose terms are all unknown.
        assert!(!h
            .delete_triple(&t("ghost", "phantom", iri("nowhere")))
            .unwrap());
        assert!(!h.delete_triple(&ty("ghost", "NoClass")).unwrap());
        assert!(!h
            .delete_triple(&t("ghost", "reading", Term::literal("404")))
            .unwrap());
        assert_eq!(h.instance_id(&iri("ghost")), None, "no instance allocated");
        assert_eq!(h.property_id("http://x/phantom"), None);
        assert_eq!(h.concept_id("http://x/NoClass"), None);
        assert_eq!(h.delta().literal_id(&Literal::string("404")), None);
        // Duplicate insert of a baseline literal triple interns nothing.
        assert!(!h
            .insert_triple(&t("a", "age", Term::literal("42")))
            .unwrap());
        assert_eq!(h.delta().literal_id(&Literal::string("42")), None);
        assert!(h.delta().is_empty());
        assert_eq!(h.len(), 6);
    }

    #[test]
    fn split_compaction_plan_build_swap_equals_inline() {
        let mut split = hybrid();
        let mut inline = hybrid();
        for h in [&mut split, &mut inline] {
            h.insert_triple(&t("newSensor", "emits", iri("a"))).unwrap();
            h.delete_triple(&t("a", "knows", iri("b"))).unwrap();
        }
        let plan = split.plan_compaction();
        assert_eq!(plan.len(), split.materialize().len());
        let rebuilt = plan.build().unwrap();
        split.swap_baseline(rebuilt).unwrap();
        inline.compact().unwrap();
        assert!(split.delta().is_empty(), "covered overlay collapses away");
        let norm = |g: &Graph| {
            let mut v: Vec<String> = g.iter().map(|t| t.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&split.materialize()), norm(&inline.materialize()));
        assert_eq!(split.stats().compactions, 1);
    }

    #[test]
    fn swap_baseline_rebases_writes_raced_between_plan_and_swap() {
        let mut h = hybrid();
        h.insert_triple(&t("c", "knows", iri("a"))).unwrap();
        let plan = h.plan_compaction();
        // Writes landing while the (simulated) worker rebuilds: a fresh
        // insert, a delete of a planned triple, and a delete of a
        // baseline triple.
        h.insert_triple(&t("d", "knows", iri("a"))).unwrap();
        h.delete_triple(&t("c", "knows", iri("a"))).unwrap();
        h.delete_triple(&t("a", "worksFor", iri("org"))).unwrap();
        let rebuilt = plan.build().unwrap();
        h.swap_baseline(rebuilt).unwrap();
        // The raced writes survive the swap.
        let knows = h.property_id("http://x/knows").unwrap();
        let a = h.instance_id(&iri("a")).unwrap();
        let d = h.instance_id(&iri("d")).unwrap();
        assert_eq!(h.subjects(knows, &Value::Instance(a)), vec![d]);
        let works = h.property_id("http://x/worksFor").unwrap();
        assert_eq!(h.predicate_count(works), 0);
        assert_eq!(h.len(), 6, "6 seed + c + d - c - worksFor = 6");
        // And the overlay holds exactly the raced writes, nothing stale:
        // d→a as an insert; tombstones for the two deletes (c→a was in
        // the plan, so its raced delete rebases to a tombstone).
        assert_eq!(h.delta().added(), 1);
        assert_eq!(h.delta().deleted(), 2);
    }

    #[test]
    fn apply_reports_batch_timings() {
        let mut h = hybrid().with_policy(CompactionPolicy { max_overlay: 2 });
        let report = h
            .apply(
                &Graph::from_triples([
                    t("c", "knows", iri("a")),
                    t("d", "knows", iri("a")),
                    t("e", "knows", iri("a")),
                ]),
                &Graph::new(),
            )
            .unwrap();
        assert!(report.compacted);
        assert!(report.ingest > std::time::Duration::ZERO);
        assert!(report.compaction > std::time::Duration::ZERO);
        assert!(h.stats().total_ingest >= report.ingest);
        assert!(h.stats().total_compaction > std::time::Duration::ZERO);
    }

    #[test]
    fn continuous_queries_run_per_batch() {
        let mut session = StreamSession::new(hybrid());
        session
            .register_query(
                "members",
                "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:memberOf e:org }",
                QueryOptions::default(),
            )
            .unwrap();
        session
            .register_query(
                "people",
                "PREFIX e: <http://x/> SELECT ?s WHERE { ?s a e:C1 }",
                QueryOptions::without_reasoning(),
            )
            .unwrap();
        assert_eq!(session.registry().len(), 2);

        let out = session
            .apply_batch(
                &Graph::from_triples([t("c", "worksFor", iri("org")), ty("c", "C1")]),
                &Graph::new(),
            )
            .unwrap();
        assert_eq!(out.report.inserted, 2);
        // Reasoning query sees worksFor ⊑ memberOf: a, b, c.
        assert_eq!(out.results[0].id, "members");
        assert_eq!(out.results[0].results.len(), 3);
        // Exact-match query sees b and c.
        assert_eq!(out.results[1].results.len(), 2);

        // A deletion batch shrinks the answers.
        let out = session
            .apply_batch(&Graph::new(), &Graph::from_triples([ty("b", "C1")]))
            .unwrap();
        assert_eq!(out.report.deleted, 1);
        assert_eq!(out.results[1].results.len(), 1);
    }
}
