//! # se-stream — incremental ingestion for SuccinctEdge
//!
//! The paper's SuccinctEdge store is built once and never mutated; its
//! headline scenario — anomaly detection over water-network sensors at the
//! edge — is nevertheless *streaming*. This crate closes that gap with a
//! delta-overlay architecture in the spirit of incremental dataflow
//! systems:
//!
//! * [`DeltaStore`] — a mutable overlay of
//!   inserted/deleted triples in identifier space, held in `BTreeMap`s
//!   with PSO/POS access paths;
//! * [`ShardedHybridStore`] — the one streaming store: succinct layers
//!   plus overlay, merged at pattern-access granularity behind `se-core`'s
//!   [`TripleSource`](se_core::TripleSource), so the unmodified
//!   `se-sparql` executor (merge joins, LiteMat interval reasoning,
//!   cardinality join ordering) runs against live data. `build(…, 1)` is the
//!   single-store configuration; more shards partition the write path.
//!   Terms unseen at build time go to *overflow dictionaries*
//!   ([`OVERFLOW_BASE`]);
//! * **compaction** — past a [`CompactionPolicy`] threshold the `apply`
//!   that crossed it folds the shard's overlay back into fresh succinct
//!   layers in the same id space, inline (overflow terms keep their ids);
//! * [`persist`] — delta-aware v02 persistence: layer files reused save
//!   to save, plus a raw overlay snapshot (tombstones, overflow
//!   dictionaries, interned literals) and a manifest, so `save` is
//!   `&self`, never compacts, and shutdown/restart is O(delta) — see the
//!   byte-level format spec in the module docs;
//! * [`ContinuousQueryRegistry`] / [`StreamSession`] — SPARQL queries
//!   parsed once; after every ingested batch each re-runs its cached
//!   plan over the live store and is diffed against its previous
//!   answers: the paper's "one query per graph instance" loop without
//!   the per-instance rebuild.
//!
//! # Architecture: shard routing and inline compaction
//!
//! [`ShardedHybridStore`] partitions the triple space **by predicate**
//! (`rdf:type` triples by concept) into N `baseline + overlay` shards —
//! each an `Arc<`[`se_core::Baseline`]`>` (the static store's three
//! structures, built by se-core's one encode pass and freeze step) plus
//! a [`DeltaStore`] — each compacted on its own, inline, behind one
//! scatter/gather [`TripleSource`](se_core::TripleSource):
//!
//! ```text
//!                  apply(inserts, deletes)
//!                          │
//!              ┌───── encode + route ─────┐      global dictionaries:
//!              │   (routing table: prop   │      · instances: dense, append-only
//!              │    id → shard, concept   │      · props/concepts: one LiteMat
//!              │    id → shard; new       │        encode, overflow ≥ 2^62
//!              │    terms round robin)    │      · overlay literals: shared
//!              │                          │        content-interned table
//!              ▼                          ▼
//!        ┌─────────┐                ┌─────────┐
//!        │ shard 0 │       …        │ shard N │   on the caller:
//!        │ layers  │                │ layers  │   baseline probes + BTreeMap
//!        │ + delta │                │ + delta │   overlay insertion
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
//! # Architecture: one thread model
//!
//! `build` freezes each shard's baseline on a scoped thread, and every
//! one is joined before `build` returns. After that the store never
//! starts a thread:
//!
//! * **Ingest on the caller.** `apply` validates the batch, encodes and
//!   routes every operation into recycled per-shard lists, then applies
//!   each shard's list (baseline probes, ordered-map overlay insertion)
//!   on the calling thread. Literal ops carry their content,
//!   so effect capture decodes them without a table lookup.
//! * **Compaction on the caller.** When a shard's overlay crosses the
//!   [`CompactionPolicy`] threshold, the same `apply` folds the shard's
//!   live triples into fresh layers (id-stable, no re-encoding),
//!   installs them and clears the overlay. A snapshot taken earlier
//!   keeps the old layers through its `Arc`.
//! * **Queries fan out with `thread::scope`.** Only a [`StreamSession`]
//!   starts threads after `build`: with more than one continuous query
//!   it evaluates them on one scoped thread each (`EvalMode::Scoped`),
//!   over the shared view; with one query or one core it evaluates them
//!   in turn on the caller.

pub mod continuous;
pub mod delta;
pub mod error;
pub mod fault;
pub mod persist;
pub mod shard;
pub mod snapshot;
pub mod wal;

pub use continuous::{
    replay_record, BatchOutcome, ContinuousQuery, ContinuousQueryRegistry, ContinuousResult,
    StreamSession, StreamStats, StreamStore,
};
pub use delta::{BatchDelta, DeltaObj, DeltaState, DeltaStore};
pub use error::StreamError;
pub use persist::SaveReport;
pub use shard::{
    CompactionPolicy, IngestReport, ShardedHybridStore, ShardedStats, LIT_SHARD_STRIDE, MAX_SHARDS,
    OVERFLOW_BASE,
};
pub use snapshot::StoreSnapshot;
pub use wal::{
    decode_record_payload, encode_record_payload, read_tail, WalConfig, WalHealth, WalRecord,
};

#[cfg(test)]
mod tests {
    use super::*;
    use se_core::source::{objects_in, predicate_count_in, subjects_in};
    use se_core::{TripleSource, Value};
    use se_litemat::IdInterval;
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

    /// The single-store configuration: one shard.
    fn single(onto: &Ontology, graph: &Graph) -> ShardedHybridStore {
        ShardedHybridStore::build(onto, graph, 1).unwrap()
    }

    fn store() -> ShardedHybridStore {
        single(&ontology(), &seed_graph())
    }

    /// Inserts one triple; `true` if it became visible.
    fn insert(h: &mut ShardedHybridStore, t: Triple) -> bool {
        h.apply(&Graph::from_triples([t]), &Graph::new())
            .unwrap()
            .inserted
            == 1
    }

    /// Deletes one triple; `true` if it stopped being visible.
    fn delete(h: &mut ShardedHybridStore, t: Triple) -> bool {
        h.apply(&Graph::new(), &Graph::from_triples([t]))
            .unwrap()
            .deleted
            == 1
    }

    fn norm(g: &Graph) -> Vec<String> {
        let mut v: Vec<String> = g.iter().map(|t| t.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn baseline_answers_pass_through() {
        let h = store();
        assert_eq!(h.len(), 6);
        let knows = h.property_id("http://x/knows").unwrap();
        let a = h.instance_id(&iri("a")).unwrap();
        let b = h.instance_id(&iri("b")).unwrap();
        assert_eq!(h.objects(knows, a), vec![Value::Instance(b)]);
        assert!(h.contains(knows, a, &Value::Instance(b)));
    }

    #[test]
    fn insert_then_query_without_rebuild() {
        let mut h = store();
        assert!(insert(&mut h, t("b", "knows", iri("a"))));
        // Duplicate insert is a no-op.
        assert!(!insert(&mut h, t("b", "knows", iri("a"))));
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
        let mut h = store();
        assert!(delete(&mut h, t("a", "knows", iri("b"))));
        assert!(!delete(&mut h, t("a", "knows", iri("b"))));
        assert_eq!(h.len(), 5);
        let knows = h.property_id("http://x/knows").unwrap();
        let a = h.instance_id(&iri("a")).unwrap();
        assert!(h.objects(knows, a).is_empty());
        assert_eq!(h.predicate_count(knows), 0);
        // Re-insert restores visibility through the baseline copy (no
        // duplicate in scans).
        assert!(insert(&mut h, t("a", "knows", iri("b"))));
        assert_eq!(h.objects(knows, a).len(), 1);
        assert_eq!(h.scan_predicate(knows).len(), 1);
    }

    #[test]
    fn insert_then_delete_overlay_triple_cancels() {
        let mut h = store();
        insert(&mut h, t("c", "knows", iri("a")));
        assert!(delete(&mut h, t("c", "knows", iri("a"))));
        assert_eq!(h.len(), 6);
        let knows = h.property_id("http://x/knows").unwrap();
        let c = h.instance_id(&iri("c")).unwrap();
        assert!(h.objects(knows, c).is_empty());
    }

    #[test]
    fn overflow_terms_are_queryable() {
        let mut h = store();
        // Unknown subject, property and class.
        insert(&mut h, t("newSensor", "emits", iri("a")));
        insert(&mut h, ty("newSensor", "NewKind"));
        insert(&mut h, t("newSensor", "reading", Term::literal("7.5")));
        let p = h.property_id("http://x/emits").unwrap();
        assert!(p >= OVERFLOW_BASE);
        let ns = h.instance_id(&iri("newSensor")).unwrap();
        let a = h.instance_id(&iri("a")).unwrap();
        assert_eq!(h.subjects(p, &Value::Instance(a)), vec![ns]);
        // Overflow property interval is a singleton.
        let iv = h.property_interval("http://x/emits").unwrap();
        assert!(iv.is_singleton());
        assert_eq!(objects_in(&h, iv, ns), vec![Value::Instance(a)]);
        // Overflow concept.
        let c = h.concept_id("http://x/NewKind").unwrap();
        assert!(c >= OVERFLOW_BASE);
        assert_eq!(
            h.subjects_of_concept_interval(IdInterval::point(c)),
            vec![ns]
        );
        assert!(h.has_type_in_interval(ns, IdInterval::point(c)));
        // Overflow literal decodes.
        let reading = h.property_id("http://x/reading").unwrap();
        let objs = h.objects(reading, ns);
        assert_eq!(objs.len(), 1);
        assert_eq!(h.value_to_term(objs[0]).unwrap(), Term::literal("7.5"));
    }

    #[test]
    fn type_queries_with_reasoning_see_overlay() {
        let mut h = store();
        insert(&mut h, ty("c", "C2"));
        delete(&mut h, ty("b", "C1"));
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
        let mut h = store();
        insert(&mut h, t("c", "worksFor", iri("org")));
        let iv = h.property_interval("http://x/memberOf").unwrap();
        let org = h.instance_id(&iri("org")).unwrap();
        let subs = subjects_in(&h, iv, &Value::Instance(org));
        assert_eq!(subs.len(), 3, "a (worksFor), b (memberOf), c (overlay)");
        assert_eq!(predicate_count_in(&h, iv), 3);
    }

    #[test]
    fn literal_tombstone_and_overlay_literals() {
        let mut h = store();
        let age = h.property_id("http://x/age").unwrap();
        // Delete the baseline literal triple.
        delete(&mut h, t("a", "age", Term::literal("42")));
        assert!(h
            .subjects_by_literal(age, &Literal::string("42"))
            .is_empty());
        // Add a fresh one for another subject.
        insert(&mut h, t("b", "age", Term::literal("42")));
        let b = h.instance_id(&iri("b")).unwrap();
        assert_eq!(h.subjects_by_literal(age, &Literal::string("42")), vec![b]);
    }

    /// Compaction folds the overlay — overflow-term triples included —
    /// into fresh layers without changing the view or any id.
    #[test]
    fn compaction_preserves_view_and_folds_overflow() {
        let mut h = store();
        insert(&mut h, t("newSensor", "emits", iri("a")));
        insert(&mut h, ty("newSensor", "NewKind"));
        delete(&mut h, t("a", "knows", iri("b")));
        let emits = h.property_id("http://x/emits").unwrap();
        let new_kind = h.concept_id("http://x/NewKind").unwrap();
        let before = norm(&h.materialize());
        h.compact_shard(0);
        assert_eq!(h.overlay_len(), 0);
        assert_eq!(h.stats().compactions, 1);
        assert_eq!(norm(&h.materialize()), before);
        // The overflow terms now live in the layers under unchanged ids.
        assert!(emits >= OVERFLOW_BASE && new_kind >= OVERFLOW_BASE);
        assert_eq!(h.property_id("http://x/emits"), Some(emits));
        let ns = h.instance_id(&iri("newSensor")).unwrap();
        let a = h.instance_id(&iri("a")).unwrap();
        assert_eq!(h.subjects(emits, &Value::Instance(a)), vec![ns]);
        assert_eq!(
            h.subjects_of_concept_interval(IdInterval::point(new_kind)),
            vec![ns]
        );
    }

    #[test]
    fn policy_triggers_compaction_during_apply() {
        let mut h = store().with_policy(CompactionPolicy { max_overlay: 3 });
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

    /// The v02 directory save/load path round-trips compacted layers plus
    /// a dirty overlay on top of them.
    #[test]
    fn persist_roundtrip_through_compaction() {
        let mut h = store();
        insert(&mut h, t("c", "knows", iri("a")));
        h.compact_shard(0);
        delete(&mut h, ty("b", "C1"));
        let mut path = std::env::temp_dir();
        path.push(format!("se-stream-persist-{}.v02", std::process::id()));
        h.save(&path).unwrap();
        let back = ShardedHybridStore::load(&path, &ontology()).unwrap();
        std::fs::remove_dir_all(&path).ok();
        assert_eq!(back.len(), h.len());
        assert_eq!(back.overlay_len(), h.overlay_len());
        assert_eq!(norm(&back.materialize()), norm(&h.materialize()));
    }

    /// A malformed triple rejects its whole batch before any mutation.
    #[test]
    fn malformed_triples_rejected() {
        let mut h = store();
        let bad = Triple {
            subject: Term::literal("bad"),
            predicate: Term::iri("http://x/p"),
            object: iri("o"),
        };
        let bad_type = Triple {
            subject: iri("s"),
            predicate: Term::iri(se_rdf::vocab::rdf::TYPE),
            object: Term::literal("bad"),
        };
        for bad in [bad, bad_type] {
            let batch = Graph::from_triples([t("c", "knows", iri("a")), bad]);
            assert!(matches!(
                h.apply(&batch, &Graph::new()),
                Err(StreamError::Malformed(_))
            ));
        }
        assert_eq!(h.len(), 6);
        assert_eq!(h.overlay_len(), 0);
        assert_eq!(h.epoch(), 0, "rejected batches do not advance the epoch");
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
        let mut h = single(&o, &g);
        let literals = Graph::from_triples(
            (0..20).map(|i| t(&format!("s{i}"), "p", Term::literal(format!("v{i}")))),
        );
        h.apply(&literals, &Graph::new()).unwrap();
        let p = h.property_id("http://x/p").unwrap();
        let subjects: Vec<u64> = h.scan_predicate(p).iter().map(|(s, _)| *s).collect();
        let mut sorted = subjects.clone();
        sorted.sort_unstable();
        assert_eq!(subjects, sorted, "merged scan must stay subject-sorted");

        let q = se_sparql::parse_query(
            "PREFIX e: <http://x/> SELECT ?s ?o WHERE { ?s e:q e:hub . ?s e:p ?o }",
        )
        .unwrap();
        let opts = QueryOptions::default();
        let plan = se_sparql::ir::compile(&q, &h, &opts, 0);
        let (_, consts) = se_sparql::ir::normalize(&q);
        let mut trace = se_sparql::PlanTrace::default();
        let rs = se_sparql::ir::execute_plan_traced(&h, &plan, &consts, &opts, &mut trace).unwrap();
        assert!(
            trace.steps[1].src == 1
                && trace.steps[1].rows_in >= se_sparql::exec::MERGE_JOIN_MIN_ROWS,
            "the e:p step must be fed enough bound rows to merge"
        );
        let mut got: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
        got.sort();
        let mut want: Vec<String> = (0..20)
            .flat_map(|i| {
                let s = iri(&format!("s{i}"));
                [iri("target"), Term::literal(format!("v{i}"))]
                    .map(|o| format!("{:?}", vec![Some(s.clone()), Some(o)]))
            })
            .collect();
        want.sort();
        assert_eq!(got, want, "20 instance + 20 literal bindings");
    }

    /// No-op operations — deletes of triples over unknown terms and a
    /// duplicate insert of a baseline literal triple — leave no
    /// dictionary entry, overlay entry or overlay literal behind.
    #[test]
    fn noop_operations_allocate_nothing() {
        let mut h = store();
        let report = h
            .apply(
                &Graph::from_triples([t("a", "age", Term::literal("42"))]),
                &Graph::from_triples([
                    t("ghost", "phantom", iri("nowhere")),
                    ty("ghost", "NoClass"),
                    t("ghost", "reading", Term::literal("404")),
                ]),
            )
            .unwrap();
        assert_eq!((report.inserted, report.deleted, report.noops), (0, 0, 4));
        assert_eq!(h.instance_id(&iri("ghost")), None, "no instance allocated");
        assert_eq!(h.property_id("http://x/phantom"), None);
        assert_eq!(h.concept_id("http://x/NoClass"), None);
        assert!(h.literals.literals.is_empty(), "no overlay literal kept");
        assert_eq!(h.overlay_len(), 0);
        assert_eq!(h.len(), 6);
    }

    #[test]
    fn apply_reports_batch_timings() {
        let mut h = store().with_policy(CompactionPolicy { max_overlay: 2 });
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
        let mut session = StreamSession::new(store());
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
