//! The ingestion subsystem's central correctness property: over a streamed
//! sequence of water-sensor batches (insertions *and* deletions), every
//! registered continuous query answers identically on
//!
//! * the streaming [`ShardedHybridStore`] (baseline + delta overlay) —
//!   as the 1-shard single store and at several shard counts — and
//! * a [`SuccinctEdgeStore`] rebuilt from scratch from the same triples,
//!
//! for every triple-pattern shape, with reasoning on and off, before and
//! after compactions triggered by the overlay-size policy.

use se_core::{SuccinctEdgeStore, TripleSource};
use se_datagen::water::{generate_stream, WaterConfig};
use se_datagen::workload::water_anomaly_query;
use se_ontology::water_ontology;
use se_rdf::{Graph, Triple};
use se_sparql::{QueryOptions, ResultSet};
use se_stream::{CompactionPolicy, ShardedHybridStore, StreamSession};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Sorted row strings: ResultSets compare as multisets (SPARQL bag
/// semantics — live store and rebuild may enumerate rows in different
/// order).
fn normalize(rs: &ResultSet) -> Vec<String> {
    let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// The single-store configuration: one shard.
fn single_store(onto: &se_ontology::Ontology) -> ShardedHybridStore {
    ShardedHybridStore::build(onto, &Graph::new(), 1).unwrap()
}

/// Queries covering every TP shape the executor distinguishes.
fn shape_queries() -> Vec<(&'static str, String, QueryOptions)> {
    let prefixes = "PREFIX sosa: <http://www.w3.org/ns/sosa/> \
                    PREFIX qudt: <http://qudt.org/schema/qudt/> ";
    let q = |text: &str| format!("{prefixes}{text}");
    vec![
        // The paper's §2 anomaly query: multi-TP BGP, FILTER, BIND,
        // LiteMat reasoning over the unit hierarchy.
        ("anomaly", water_anomaly_query(), QueryOptions::default()),
        // (?s, p, ?o) full scan.
        (
            "scan",
            q("SELECT ?s ?o WHERE { ?s sosa:observes ?o }"),
            QueryOptions::default(),
        ),
        // (s, p, ?o) bound subject.
        (
            "objects",
            q("SELECT ?o WHERE { <http://engie.example/station/1> sosa:hosts ?o }"),
            QueryOptions::default(),
        ),
        // (?s, p, o) bound object.
        (
            "subjects",
            q("SELECT ?s WHERE { ?s qudt:unit <http://qudt.org/vocab/unit/BAR> }"),
            QueryOptions::default(),
        ),
        // (s, p, o) membership gating another pattern.
        (
            "membership",
            q("SELECT ?s WHERE { \
               <http://engie.example/station/1> sosa:hosts <http://engie.example/sensor/pressure1> . \
               ?s a sosa:Sensor }"),
            QueryOptions::default(),
        ),
        // (?s, p, lit) literal constant object (typed dateTime).
        (
            "literal-const",
            q("SELECT ?o WHERE { ?o sosa:resultTime \
               \"2020-11-01T00:00:00Z\"^^<http://www.w3.org/2001/XMLSchema#dateTime> }"),
            QueryOptions::default(),
        ),
        // (?s, type, C) with reasoning: PressureOrStressUnit ⊑ PressureUnit.
        (
            "type-reasoned",
            q("SELECT ?u WHERE { ?u a qudt:PressureUnit }"),
            QueryOptions::default(),
        ),
        // Same without reasoning.
        (
            "type-exact",
            q("SELECT ?u WHERE { ?u a qudt:PressureUnit }"),
            QueryOptions::without_reasoning(),
        ),
        // (s, type, ?c) concepts of a subject.
        (
            "type-var",
            q("SELECT ?c WHERE { <http://engie.example/sensor/pressure1> a ?c }"),
            QueryOptions::default(),
        ),
        // (?s, type, ?c) full RDFType scan.
        (
            "type-scan",
            q("SELECT ?s ?c WHERE { ?s a ?c }"),
            QueryOptions::default(),
        ),
        // Join through an interval-reasoned property position is covered
        // by "anomaly"; add a star join without reasoning for contrast.
        (
            "star-plain",
            q("SELECT ?s ?r WHERE { ?s a sosa:Observation . ?s sosa:hasResult ?r }"),
            QueryOptions::without_reasoning(),
        ),
        // UNION: two groups feeding one answer multiset.
        (
            "union-groups",
            q("SELECT ?s ?o WHERE { ?s sosa:hosts ?o } UNION { ?s sosa:observes ?o }"),
            QueryOptions::default(),
        ),
        // DISTINCT: the plan's dedup step, then the bag diff.
        (
            "distinct-subjects",
            q("SELECT DISTINCT ?s WHERE { ?s sosa:observes ?o }"),
            QueryOptions::default(),
        ),
    ]
}

#[test]
fn hybrid_agrees_with_rebuild_across_stream_and_compaction() {
    let onto = water_ontology();
    let cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.3,
        seed: 97,
    };
    // 12 batches, retention window of 3 rounds → deletions from batch 3 on.
    let batches = generate_stream(&cfg, 12, 3);
    assert!(batches.len() >= 10, "acceptance requires >= 10 batches");

    // Overlay threshold sized to trigger compactions mid-stream.
    let store = single_store(&onto).with_policy(CompactionPolicy { max_overlay: 140 });
    let mut session = StreamSession::new(store);
    for (id, text, opts) in shape_queries() {
        session.register_query(id, &text, opts).unwrap();
    }

    let mut reference: BTreeSet<Triple> = BTreeSet::new();
    // Per query: the materialized multiset reconstructed purely from the
    // added/removed change streams (row string -> count).
    let mut mirror: std::collections::HashMap<String, std::collections::BTreeMap<String, i64>> =
        std::collections::HashMap::new();
    let mut compactions_seen = 0usize;
    let mut deletions_seen = 0usize;
    let mut anomaly_alerts = 0usize;
    let mut agreement_after_compaction = false;

    for (tick, batch) in batches.iter().enumerate() {
        let outcome = session.apply_batch(&batch.inserts, &batch.deletes).unwrap();

        // Maintain the independent reference: deletes, then inserts
        // (the session applies batches in the same order).
        for t in &batch.deletes {
            reference.remove(t);
        }
        for t in &batch.inserts {
            reference.insert(t.clone());
        }
        deletions_seen += outcome.report.deleted;
        if outcome.report.compacted {
            compactions_seen += 1;
        }

        // From-scratch rebuild over exactly the same triples.
        let rebuilt =
            SuccinctEdgeStore::build(&onto, &Graph::from_triples(reference.iter().cloned()))
                .unwrap();
        assert_eq!(
            session.store().len(),
            reference.len(),
            "batch {tick}: live triple count drifted"
        );

        for (cq, live_result) in session.registry().iter().zip(&outcome.results) {
            assert_eq!(cq.id, live_result.id);
            let fresh = se_sparql::exec::execute(&rebuilt, &cq.query, &cq.options).unwrap();
            assert_eq!(
                normalize(&live_result.results),
                normalize(&fresh),
                "batch {tick}: query '{}' disagrees between live store and rebuild",
                cq.id
            );
            // The reported set == one uncached evaluation over the live
            // store itself.
            let refresh =
                se_sparql::exec::execute(session.store(), &cq.query, &cq.options).unwrap();
            assert_eq!(
                normalize(&live_result.results),
                normalize(&refresh),
                "batch {tick}: query '{}' materialized set vs full re-evaluation",
                cq.id
            );
            // The added/removed change streams alone reconstruct the
            // full set (what a change-frame subscriber materializes).
            let m = mirror.entry(cq.id.clone()).or_default();
            for row in &live_result.added.rows {
                *m.entry(format!("{row:?}")).or_insert(0) += 1;
            }
            for row in &live_result.removed.rows {
                *m.entry(format!("{row:?}")).or_insert(0) -= 1;
            }
            m.retain(|_, c| *c != 0);
            let mut from_changes: Vec<String> = Vec::new();
            for (row, &c) in m.iter() {
                assert!(c > 0, "batch {tick}: '{}' over-removed {row}", cq.id);
                from_changes.extend(std::iter::repeat_n(row.clone(), c as usize));
            }
            from_changes.sort();
            assert_eq!(
                from_changes,
                normalize(&live_result.results),
                "batch {tick}: query '{}' change stream drifted from the full set",
                cq.id
            );
            if cq.id == "anomaly" {
                anomaly_alerts += live_result.results.len();
            }
        }
        if outcome.report.compacted {
            agreement_after_compaction = true;
        }
    }

    assert!(
        compactions_seen >= 1,
        "the stream must cross at least one compaction boundary"
    );
    assert!(
        agreement_after_compaction,
        "agreement checked post-compaction"
    );
    assert!(
        deletions_seen > 0,
        "the stream must exercise the deletion path"
    );
    assert!(
        anomaly_alerts > 0,
        "30% anomaly rate over 12 batches must raise alerts"
    );
    // Every query re-ran its plan on every batch.
    let stats = session.stream_stats();
    assert_eq!(stats.batches, batches.len() as u64);
    assert_eq!(
        stats.full_evals,
        (batches.len() * shape_queries().len()) as u64,
        "one evaluation per query per batch"
    );
    assert_eq!(stats.incremental_evals, 0);
}

/// The sharded acceptance property: across >= 12 batches with deletions
/// and compactions, the scatter/gather [`ShardedHybridStore`] answers all
/// thirteen query shapes (reasoning on and off) identically to the 1-shard
/// single store *and* a from-scratch rebuild — at 3 and at 4 shards, and
/// at 3 shards under a tighter compaction threshold — and again after
/// every shard is compacted at the end of the stream.
#[test]
fn sharded_agrees_with_single_store_and_rebuild() {
    let onto = water_ontology();
    let cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.3,
        seed: 97,
    };
    let batches = generate_stream(&cfg, 12, 3);
    assert!(batches.len() >= 12, "acceptance requires >= 12 batches");
    let policy = CompactionPolicy { max_overlay: 90 };

    // Store variants under test, all fed the same stream.
    let single = single_store(&onto).with_policy(policy);
    let sharded_inline = ShardedHybridStore::build(&onto, &Graph::new(), 3)
        .unwrap()
        .with_policy(policy);
    // Four shards, and three shards compacting about three times as often.
    let sharded_4 = ShardedHybridStore::build(&onto, &Graph::new(), 4)
        .unwrap()
        .with_policy(policy);
    let sharded_tight = ShardedHybridStore::build(&onto, &Graph::new(), 3)
        .unwrap()
        .with_policy(CompactionPolicy { max_overlay: 30 });

    let mut single = StreamSession::new(single);
    let mut sharded_inline = StreamSession::new(sharded_inline);
    let mut sharded_4 = StreamSession::new(sharded_4);
    let mut sharded_tight = StreamSession::new(sharded_tight);
    for (id, text, opts) in shape_queries() {
        single.register_query(id, &text, opts.clone()).unwrap();
        sharded_inline
            .register_query(id, &text, opts.clone())
            .unwrap();
        sharded_4.register_query(id, &text, opts.clone()).unwrap();
        sharded_tight.register_query(id, &text, opts).unwrap();
    }

    let mut reference: BTreeSet<Triple> = BTreeSet::new();
    let mut inline_compactions = 0usize;
    let mut deletions = 0usize;

    for (tick, batch) in batches.iter().enumerate() {
        let out_single = single.apply_batch(&batch.inserts, &batch.deletes).unwrap();
        let out_inline = sharded_inline
            .apply_batch(&batch.inserts, &batch.deletes)
            .unwrap();
        let out_4 = sharded_4
            .apply_batch(&batch.inserts, &batch.deletes)
            .unwrap();
        let out_tight = sharded_tight
            .apply_batch(&batch.inserts, &batch.deletes)
            .unwrap();

        for t in &batch.deletes {
            reference.remove(t);
        }
        for t in &batch.inserts {
            reference.insert(t.clone());
        }
        deletions += out_single.report.deleted;
        if out_inline.report.compacted {
            inline_compactions += 1;
        }
        // Effective mutation counts agree between the engines.
        assert_eq!(
            (out_single.report.inserted, out_single.report.deleted),
            (out_inline.report.inserted, out_inline.report.deleted),
            "batch {tick}: ingest accounting diverged (inline)"
        );
        assert_eq!(
            (out_single.report.inserted, out_single.report.deleted),
            (out_4.report.inserted, out_4.report.deleted),
            "batch {tick}: ingest accounting diverged (4 shards)"
        );
        assert_eq!(
            (out_single.report.inserted, out_single.report.deleted),
            (out_tight.report.inserted, out_tight.report.deleted),
            "batch {tick}: ingest accounting diverged (tight policy)"
        );
        assert_eq!(sharded_inline.store().len(), reference.len());
        assert_eq!(sharded_4.store().len(), reference.len());
        assert_eq!(sharded_tight.store().len(), reference.len());

        let rebuilt =
            SuccinctEdgeStore::build(&onto, &Graph::from_triples(reference.iter().cloned()))
                .unwrap();
        for ((((cq, rs_single), rs_inline), rs_4), rs_tight) in single
            .registry()
            .iter()
            .zip(&out_single.results)
            .zip(&out_inline.results)
            .zip(&out_4.results)
            .zip(&out_tight.results)
        {
            let fresh = se_sparql::exec::execute(&rebuilt, &cq.query, &cq.options).unwrap();
            let want = normalize(&fresh);
            assert_eq!(
                normalize(&rs_single.results),
                want,
                "batch {tick}: '{}' single vs rebuild",
                cq.id
            );
            assert_eq!(
                normalize(&rs_inline.results),
                want,
                "batch {tick}: '{}' sharded-inline vs rebuild",
                cq.id
            );
            assert_eq!(
                normalize(&rs_4.results),
                want,
                "batch {tick}: '{}' sharded-4 vs rebuild",
                cq.id
            );
            assert_eq!(
                normalize(&rs_tight.results),
                want,
                "batch {tick}: '{}' sharded-tight vs rebuild",
                cq.id
            );
            // Reported set == one uncached evaluation on the
            // tight-policy sharded engine.
            let refresh =
                se_sparql::exec::execute(sharded_tight.store(), &cq.query, &cq.options).unwrap();
            assert_eq!(
                normalize(&refresh),
                want,
                "batch {tick}: '{}' tight-policy full re-evaluation vs rebuild",
                cq.id
            );
        }
    }

    // Fold every overlay into its shard's layers and re-check agreement
    // on the compacted baselines alone.
    for session in [&mut sharded_4, &mut sharded_tight] {
        let store = session.store_mut();
        for shard in 0..store.shard_count() {
            store.compact_shard(shard);
        }
        assert_eq!(store.overlay_len(), 0);
    }
    let rebuilt =
        SuccinctEdgeStore::build(&onto, &Graph::from_triples(reference.iter().cloned())).unwrap();
    for cq in sharded_4.registry().iter().collect::<Vec<_>>() {
        let fresh = se_sparql::exec::execute(&rebuilt, &cq.query, &cq.options).unwrap();
        let got = se_sparql::exec::execute(sharded_4.store(), &cq.query, &cq.options).unwrap();
        assert_eq!(
            normalize(&got),
            normalize(&fresh),
            "post-compaction: '{}' sharded-4 vs rebuild",
            cq.id
        );
        let got = se_sparql::exec::execute(sharded_tight.store(), &cq.query, &cq.options).unwrap();
        assert_eq!(
            normalize(&got),
            normalize(&fresh),
            "post-compaction: '{}' sharded-tight vs rebuild",
            cq.id
        );
    }

    assert!(inline_compactions >= 1, "stream must cross a compaction");
    assert!(
        sharded_inline.store().stats().compactions >= 1,
        "inline sharded store must compact"
    );
    for (name, session) in [("4-shard", &sharded_4), ("tight-policy", &sharded_tight)] {
        assert!(
            session.store().stats().compactions > session.store().shard_count(),
            "{name} sharded store must compact during the stream"
        );
    }
    assert!(deletions > 0, "stream must exercise the deletion path");
}

/// The v02 acceptance property: checkpoint the 1-shard single store and a
/// 3-shard store **mid-stream**, after compactions — dirty overlays over
/// compacted layers, pending tombstones, overflow terms — resume them
/// from disk, continue the
/// same `stream_agreement` batch schedule, and require every one of the
/// thirteen query shapes (reasoning on and off) to agree with the
/// never-persisted sessions and a from-scratch rebuild, every batch.
/// The save itself must not compact.
#[test]
fn save_load_mid_stream_preserves_agreement() {
    let onto = water_ontology();
    let cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.3,
        seed: 97,
    };
    let batches = generate_stream(&cfg, 12, 3);
    let policy = CompactionPolicy { max_overlay: 90 };
    let scratch = |name: &str| -> PathBuf {
        let dir = std::env::temp_dir().join(format!("se-agree-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let single_dir = scratch("single");
    let sharded_dir = scratch("sharded");

    let single = || single_store(&onto).with_policy(policy);
    let sharded = || {
        ShardedHybridStore::build(&onto, &Graph::new(), 3)
            .unwrap()
            .with_policy(policy)
    };
    let mut live_single = StreamSession::new(single());
    let mut live_sharded = StreamSession::new(sharded());
    let mut ckpt_single = StreamSession::new(single());
    let mut ckpt_sharded = StreamSession::new(sharded());
    for (id, text, opts) in shape_queries() {
        live_single.register_query(id, &text, opts.clone()).unwrap();
        live_sharded
            .register_query(id, &text, opts.clone())
            .unwrap();
        ckpt_single.register_query(id, &text, opts.clone()).unwrap();
        ckpt_sharded.register_query(id, &text, opts).unwrap();
    }

    let mut reference: BTreeSet<Triple> = BTreeSet::new();
    let restart_at = batches.len() / 2;
    for (tick, batch) in batches.iter().enumerate() {
        if tick == restart_at {
            // Mid-stream checkpoint: both stores are dirty (the policy
            // guarantees overlay churn by now).
            let overlay = ckpt_single.store().overlay_len();
            assert!(overlay > 0, "checkpoint must capture a dirty overlay");
            let compactions = ckpt_single.store().stats().compactions;
            ckpt_single.save(&single_dir).unwrap();
            assert_eq!(
                ckpt_single.store().stats().compactions,
                compactions,
                "v02 save must not compact"
            );
            assert_eq!(ckpt_single.store().overlay_len(), overlay);
            ckpt_sharded.save(&sharded_dir).unwrap();

            // Simulated restart: drop the sessions, resume from disk.
            drop(ckpt_single);
            drop(ckpt_sharded);
            ckpt_single = StreamSession::resume(&single_dir, &onto).unwrap();
            ckpt_sharded = StreamSession::resume(&sharded_dir, &onto).unwrap();
            assert_eq!(ckpt_single.registry().len(), shape_queries().len());
            assert_eq!(ckpt_sharded.registry().len(), shape_queries().len());
            // Resume starts unseeded — the next batch re-seeds every
            // query's answers.
            assert!(ckpt_single.registry().iter().all(|q| !q.is_seeded()));
        }
        let out_ls = live_single
            .apply_batch(&batch.inserts, &batch.deletes)
            .unwrap();
        let out_lsh = live_sharded
            .apply_batch(&batch.inserts, &batch.deletes)
            .unwrap();
        let out_cs = ckpt_single
            .apply_batch(&batch.inserts, &batch.deletes)
            .unwrap();
        let out_csh = ckpt_sharded
            .apply_batch(&batch.inserts, &batch.deletes)
            .unwrap();
        for t in &batch.deletes {
            reference.remove(t);
        }
        for t in &batch.inserts {
            reference.insert(t.clone());
        }
        assert_eq!(
            (out_ls.report.inserted, out_ls.report.deleted),
            (out_cs.report.inserted, out_cs.report.deleted),
            "batch {tick}: resumed single store's accounting diverged"
        );
        assert_eq!(
            (out_lsh.report.inserted, out_lsh.report.deleted),
            (out_csh.report.inserted, out_csh.report.deleted),
            "batch {tick}: resumed sharded store's accounting diverged"
        );
        let rebuilt =
            SuccinctEdgeStore::build(&onto, &Graph::from_triples(reference.iter().cloned()))
                .unwrap();
        for (((cq, rs_live), rs_ckpt), rs_ckpt_sh) in live_single
            .registry()
            .iter()
            .zip(&out_ls.results)
            .zip(&out_cs.results)
            .zip(&out_csh.results)
        {
            let fresh = se_sparql::exec::execute(&rebuilt, &cq.query, &cq.options).unwrap();
            let want = normalize(&fresh);
            assert_eq!(
                normalize(&rs_live.results),
                want,
                "batch {tick}: '{}' live single vs rebuild",
                cq.id
            );
            assert_eq!(
                normalize(&rs_ckpt.results),
                want,
                "batch {tick}: '{}' resumed single vs rebuild",
                cq.id
            );
            assert_eq!(
                normalize(&rs_ckpt_sh.results),
                want,
                "batch {tick}: '{}' resumed sharded vs rebuild",
                cq.id
            );
            // A resumed session re-seeds on its first batch: every row
            // of the answer set is reported as added.
            if tick == restart_at {
                for rs in [rs_ckpt, rs_ckpt_sh] {
                    assert_eq!(normalize(&rs.added), want, "'{}' re-seed", cq.id);
                    assert!(rs.removed.is_empty());
                }
            }
        }
    }
    assert_eq!(
        se_core::TripleSource::len(ckpt_sharded.store()),
        reference.len()
    );
    let _ = std::fs::remove_dir_all(&single_dir);
    let _ = std::fs::remove_dir_all(&sharded_dir);
}

/// Execution through one [`se_sparql::PlanCache`] shared by every store
/// agrees with a one-shot uncached run on each store for every shape, with
/// reasoning on and off, against the live 1-shard store, the 3-shard
/// store, and a pinned MVCC snapshot — on both the cold (parse +
/// compile) and the hot (cached plan, zero parsing) path.
#[test]
fn compiled_plans_agree_with_interpreter_on_every_shape() {
    let onto = water_ontology();
    let cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.3,
        seed: 97,
    };
    let batches = generate_stream(&cfg, 8, 3);
    let mut single = single_store(&onto);
    let mut sharded = ShardedHybridStore::build(&onto, &Graph::new(), 3).unwrap();
    for batch in &batches {
        single.apply(&batch.inserts, &batch.deletes).unwrap();
        sharded.apply(&batch.inserts, &batch.deletes).unwrap();
    }
    let snapshot = sharded.snapshot();

    let shapes = shape_queries();
    assert_eq!(shapes.len(), 13, "the harness covers all 13 shapes");
    // One cache across all three stores: plans hold term-level pattern
    // templates (encoding happens at execution), so a plan compiled
    // against one store's cardinalities stays correct on another.
    let cache = se_sparql::PlanCache::new();
    let stores: [(&str, &dyn TripleSource); 3] = [
        ("single", &single),
        ("sharded", &sharded),
        ("snapshot", &*snapshot),
    ];
    // Distinct (text, options) combinations = expected text-level misses
    // ("type-reasoned"/"type-exact" share their text); every other
    // execution must be a zero-parse hit.
    let mut combos = BTreeSet::new();
    let mut runs = 0u64;
    for (store_name, store) in stores {
        for (id, text, _) in &shapes {
            for opts in [QueryOptions::default(), QueryOptions::without_reasoning()] {
                combos.insert((text.clone(), opts.reasoning));
                runs += 2;
                let want = normalize(&se_sparql::execute_query(store, text, &opts).unwrap());
                let cold = se_sparql::execute_query_cached(store, text, &opts, &cache).unwrap();
                assert_eq!(
                    normalize(&cold),
                    want,
                    "'{id}' on {store_name} (reasoning={}): cold compiled run",
                    opts.reasoning
                );
                let hot = se_sparql::execute_query_cached(store, text, &opts, &cache).unwrap();
                assert_eq!(
                    normalize(&hot),
                    want,
                    "'{id}' on {store_name} (reasoning={}): cached compiled run",
                    opts.reasoning
                );
            }
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, combos.len() as u64);
    assert_eq!(stats.hits, runs - combos.len() as u64);
    assert!(
        stats.compiles <= stats.misses,
        "shape sharing can only help"
    );
}

/// Two same-shape queries that differ only in their constants share one
/// compiled plan, and each still gets its own constant-correct answers.
#[test]
fn shared_shape_plan_binds_constants_correctly() {
    let onto = water_ontology();
    let cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.3,
        seed: 97,
    };
    let batches = generate_stream(&cfg, 6, 3);
    let mut single = single_store(&onto);
    for batch in &batches {
        single.apply(&batch.inserts, &batch.deletes).unwrap();
    }
    let q = |station: usize| {
        format!(
            "PREFIX sosa: <http://www.w3.org/ns/sosa/> \
             SELECT ?o WHERE {{ <http://engie.example/station/{station}> sosa:hosts ?o }}"
        )
    };
    let opts = QueryOptions::default();
    let cache = se_sparql::PlanCache::new();
    for station in [1, 2] {
        let text = q(station);
        let want = normalize(&se_sparql::execute_query(&single, &text, &opts).unwrap());
        assert!(!want.is_empty(), "station {station} hosts sensors");
        let got = se_sparql::execute_query_cached(&single, &text, &opts, &cache).unwrap();
        assert_eq!(normalize(&got), want, "station {station}");
    }
    // Distinct texts, one shape: both miss at the text level, but the
    // second bound its constants into the first's compiled plan.
    let stats = cache.stats();
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.compiles, 1, "one plan serves both constants");
}

#[test]
fn hybrid_matches_rebuild_pattern_accesses_directly() {
    // Below the SPARQL layer: raw TripleSource accesses agree too (guards
    // the trait contract the executor relies on — ordering aside).
    let onto = water_ontology();
    let cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.2,
        seed: 31,
    };
    let batches = generate_stream(&cfg, 6, 2);
    let mut single = single_store(&onto);
    let mut reference: BTreeSet<Triple> = BTreeSet::new();
    for batch in &batches {
        single.apply(&batch.inserts, &batch.deletes).unwrap();
        for t in &batch.deletes {
            reference.remove(t);
        }
        for t in &batch.inserts {
            reference.insert(t.clone());
        }
    }
    let rebuilt =
        SuccinctEdgeStore::build(&onto, &Graph::from_triples(reference.iter().cloned())).unwrap();

    let observes = se_rdf::vocab::sosa::OBSERVES;
    let p_single = TripleSource::property_id(&single, observes).unwrap();
    let p_rebuilt = rebuilt.property_id(observes).unwrap();
    let decode = |src: &dyn TripleSource, pairs: Vec<(u64, se_core::Value)>| -> Vec<String> {
        let mut v: Vec<String> = pairs
            .into_iter()
            .map(|(s, o)| {
                format!(
                    "{} -> {}",
                    src.value_to_term(se_core::Value::Instance(s)).unwrap(),
                    src.value_to_term(o).unwrap()
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        decode(&single, TripleSource::scan_predicate(&single, p_single)),
        decode(&rebuilt, rebuilt.scan_predicate(p_rebuilt)),
    );
    // Counts (optimizer statistics) agree as well.
    assert_eq!(
        TripleSource::predicate_count(&single, p_single),
        rebuilt.predicate_count(p_rebuilt)
    );
    assert_eq!(TripleSource::len(&single), rebuilt.len());
    assert_eq!(
        TripleSource::type_count(&single, se_litemat::IdInterval::ALL),
        rebuilt.type_store().len()
    );
}

/// The MVCC acceptance property: reader threads pin [`StoreSnapshot`]s
/// mid-ingest while the writer applies batches and triggers compactions
/// (the writer also holds a pin of its own across every apply). Every pinned
/// snapshot must answer **all thirteen query shapes** identically to a
/// from-scratch [`SuccinctEdgeStore`] built from the stream prefix at
/// the snapshot's epoch — i.e. a snapshot is exactly "the store as of
/// batch N", no matter what the live store does afterwards.
#[test]
fn pinned_snapshots_agree_with_rebuild_at_their_epoch() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::RwLock;

    let onto = water_ontology();
    let cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.3,
        seed: 53,
    };
    let batches = generate_stream(&cfg, 12, 3);

    // contents[e] = the triples visible after epoch e (e applied batches).
    let mut contents: Vec<BTreeSet<Triple>> = vec![BTreeSet::new()];
    for batch in &batches {
        let mut next = contents.last().unwrap().clone();
        for t in &batch.deletes {
            next.remove(t);
        }
        for t in &batch.inserts {
            next.insert(t.clone());
        }
        contents.push(next);
    }

    let store = ShardedHybridStore::build(&onto, &Graph::new(), 4)
        .unwrap()
        .with_policy(CompactionPolicy { max_overlay: 60 });
    let store = RwLock::new(store);
    let live_epoch = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    // Set when a snapshot verified *after* the live store had moved past
    // its epoch — the isolation case the whole mechanism exists for.
    let verified_stale = AtomicBool::new(false);
    // Set when a compaction installed new layers while a snapshot of the
    // old ones was pinned, and that snapshot then verified.
    let compacted_under_pin = AtomicBool::new(false);

    let shapes = shape_queries();
    let verify_at_epoch = |snap: &se_stream::StoreSnapshot| {
        let e = snap.epoch() as usize;
        let prefix = &contents[e];
        assert_eq!(
            TripleSource::len(&**snap),
            prefix.len(),
            "epoch {e}: snapshot triple count diverged from its prefix"
        );
        let rebuilt =
            SuccinctEdgeStore::build(&onto, &Graph::from_triples(prefix.iter().cloned())).unwrap();
        for (id, text, opts) in &shapes {
            let got = se_sparql::execute_query(&**snap, text, opts).unwrap();
            let fresh = se_sparql::execute_query(&rebuilt, text, opts).unwrap();
            assert_eq!(
                normalize(&got),
                normalize(&fresh),
                "epoch {e}: query '{id}' disagrees between pinned snapshot and rebuild"
            );
        }
    };

    std::thread::scope(|scope| {
        // Writer: applies every batch, pacing so readers pin mid-stream.
        // It pins the pre-batch state itself, so every compaction swaps
        // layers under at least one live snapshot.
        scope.spawn(|| {
            for batch in &batches {
                let held = store.read().unwrap().snapshot();
                let compacted = {
                    let mut live = store.write().unwrap();
                    let report = live.apply(&batch.inserts, &batch.deletes).unwrap();
                    assert!(live.live_pins() >= 1, "the writer's own pin is live");
                    report.compacted
                };
                live_epoch.fetch_add(1, Ordering::Release);
                if compacted {
                    verify_at_epoch(&held);
                    compacted_under_pin.store(true, Ordering::Release);
                }
                drop(held);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.store(true, Ordering::Release);
        });
        // Readers: pin under a brief read lock, then verify lock-free
        // while the writer keeps applying and compacting.
        for _ in 0..3 {
            scope.spawn(|| {
                let mut verified = 0usize;
                loop {
                    let snap = store.read().unwrap().snapshot();
                    verify_at_epoch(&snap);
                    if live_epoch.load(Ordering::Acquire) > snap.epoch() {
                        verified_stale.store(true, Ordering::Release);
                    }
                    verified += 1;
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                }
                assert!(verified > 0);
            });
        }
    });

    let store = store.into_inner().unwrap();
    let stats = store.stats();
    assert_eq!(stats.epoch, batches.len() as u64);
    assert!(
        stats.compactions >= 1,
        "the stream must cross at least one compaction while snapshots are pinned"
    );
    assert!(
        compacted_under_pin.load(Ordering::Acquire),
        "a snapshot pinned before a compaction must verify after it"
    );
    assert!(
        stats.snapshots >= 3,
        "every reader thread must have pinned at least one snapshot"
    );
    assert_eq!(stats.live_pins, 0, "all pins released");
    assert!(
        verified_stale.load(Ordering::Acquire),
        "at least one snapshot must verify after the live store moved past its epoch"
    );
    // The final snapshot equals the full replay.
    verify_at_epoch(&store.snapshot());
}
