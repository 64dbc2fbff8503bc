//! Property-based correctness of every store configuration — the static
//! SuccinctEdge store, 1- and 3-shard streaming stores and a snapshot —
//! against a naive triple-scan reference, on randomly generated graphs.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use se_core::source::{
    objects_in, predicate_count_in, scan_in, subjects_by_literal_in, subjects_in,
};
use se_core::{SuccinctEdgeStore, TripleSource, Value};
use se_litemat::IdInterval;
use se_ontology::Ontology;
use se_rdf::{Graph, Literal, Term, Triple};
use se_stream::ShardedHybridStore;

/// A small random graph over a closed vocabulary, with a two-level class
/// hierarchy and a two-level property hierarchy.
fn arb_graph() -> impl Strategy<Value = (Graph, Ontology)> {
    let triple = (0usize..12, 0usize..4, 0usize..12, 0usize..3).prop_map(|(s, p, o, kind)| {
        let subject = Term::iri(format!("http://x/i{s}"));
        match kind {
            0 => Triple::new(
                subject,
                Term::iri(se_rdf::vocab::rdf::TYPE),
                Term::iri(format!("http://x/C{}", p % 3)),
            ),
            1 => Triple::new(
                subject,
                Term::iri(format!("http://x/p{p}")),
                Term::iri(format!("http://x/i{o}")),
            ),
            _ => Triple::new(
                subject,
                Term::iri(format!("http://x/d{p}")),
                Term::Literal(Literal::integer(o as i64)),
            ),
        }
    });
    proptest::collection::vec(triple, 0..120).prop_map(|triples| {
        let mut onto = Ontology::new();
        onto.add_class("http://x/C1", "http://x/C0");
        onto.add_class("http://x/C2", "http://x/C0");
        onto.add_property("http://x/p1", "http://x/p0");
        for p in ["http://x/p0", "http://x/p2", "http://x/p3"] {
            onto.add_object_property(p);
        }
        for d in ["http://x/d0", "http://x/d1", "http://x/d2", "http://x/d3"] {
            onto.add_datatype_property(d);
        }
        let mut g = Graph::from_triples(triples);
        g.dedup();
        (g, onto)
    })
}

/// Runs `check` against every store configuration the executor answers
/// from, each holding exactly `graph`: the static store, a 1-shard and a
/// 3-shard streaming store (baseline plus overlay inserts and tombstones),
/// and a snapshot of the 3-shard store read through its deref.
fn for_each_store(
    graph: &Graph,
    onto: &Ontology,
    mut check: impl FnMut(&str, &dyn TripleSource) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    check("static", &SuccinctEdgeStore::build(onto, graph).unwrap())?;
    check("1-shard", &streamed(graph, onto, 1))?;
    let three = streamed(graph, onto, 3);
    check("3-shard", &three)?;
    let snap = three.snapshot();
    check("3-shard snapshot", &*snap)
}

/// A streaming store built on the first half of `graph` plus decoy
/// triples, then given the rest as inserts and the decoys as baseline
/// deletes in one `apply` — so its visible view is `graph`, served from
/// both layers, the overlay and tombstones. `p1` and `d1` triples never
/// enter the baseline, so each interval also has a sub-property that
/// only the overlay holds.
fn streamed(graph: &Graph, onto: &Ontology, shards: usize) -> ShardedHybridStore {
    let iri = |s: String| Term::iri(s);
    let decoys: Vec<Triple> = (0..12usize)
        .flat_map(|s| {
            let subject = iri(format!("http://x/i{s}"));
            [
                Triple::new(
                    subject.clone(),
                    iri(format!("http://x/p{}", 2 * (s % 2))),
                    iri(format!("http://x/i{}", (s + 5) % 12)),
                ),
                Triple::new(
                    subject.clone(),
                    iri(format!("http://x/d{}", [0, 2, 3][s % 3])),
                    Term::Literal(Literal::integer(s as i64 % 3)),
                ),
                Triple::new(
                    subject,
                    iri(se_rdf::vocab::rdf::TYPE.to_string()),
                    iri(format!("http://x/C{}", s % 3)),
                ),
            ]
        })
        .filter(|d| !graph.iter().any(|t| t == d))
        .collect();
    let overlay_only =
        |t: &Triple| matches!(t.predicate.as_iri(), Some("http://x/p1" | "http://x/d1"));
    let half = graph.len() / 2;
    let (mut base, mut rest) = (decoys.clone(), Vec::new());
    for (i, t) in graph.iter().enumerate() {
        if i < half && !overlay_only(t) {
            base.push(t.clone());
        } else {
            rest.push(t.clone());
        }
    }
    let mut store = ShardedHybridStore::build(onto, &Graph::from_triples(base), shards)
        .unwrap()
        .with_background_compaction(false);
    store
        .apply(&Graph::from_triples(rest), &Graph::from_triples(decoys))
        .unwrap();
    store
}

fn decode(store: &dyn TripleSource, v: Value) -> String {
    store.value_to_term(v).unwrap().to_string()
}

fn decode_set(store: &dyn TripleSource, values: &[Value]) -> Vec<String> {
    let mut out: Vec<String> = values.iter().map(|v| decode(store, *v)).collect();
    out.sort();
    out
}

fn decode_subjects(store: &dyn TripleSource, subjects: &[u64]) -> Vec<String> {
    let mut out: Vec<String> = subjects
        .iter()
        .map(|&s| decode(store, Value::Instance(s)))
        .collect();
    out.sort();
    out
}

/// `graph`'s triples with predicate in `preds`, mapped and sorted (one
/// entry per triple, so duplicates across sub-properties are kept).
fn naive(graph: &Graph, preds: &[&str], f: impl Fn(&Triple) -> Option<String>) -> Vec<String> {
    let mut v: Vec<String> = graph
        .iter()
        .filter(|t| matches!(t.predicate.as_iri(), Some(p) if preds.contains(&p)))
        .filter_map(f)
        .collect();
    v.sort();
    v
}

/// Property intervals with a sub-hierarchy: p0 ⊒ {p0, p1} (object
/// properties) and owl:topDataProperty ⊒ {d0..d3} (datatype properties).
const INTERVALS: [(&str, &[&str]); 2] = [
    ("http://x/p0", &["http://x/p0", "http://x/p1"]),
    (
        se_rdf::vocab::owl::TOP_DATA_PROPERTY,
        &["http://x/d0", "http://x/d1", "http://x/d2", "http://x/d3"],
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn objects_match_naive_scan((graph, onto) in arb_graph()) {
        for_each_store(&graph, &onto, |name, store| {
            for s in 0..12usize {
                let subject = Term::iri(format!("http://x/i{s}"));
                for p in 0..4usize {
                    for pred in [format!("http://x/p{p}"), format!("http://x/d{p}")] {
                        let expected = naive(&graph, &[pred.as_str()], |t| {
                            (t.subject == subject).then(|| t.object.to_string())
                        });
                        let got = match (store.property_id(&pred), store.instance_id(&subject)) {
                            (Some(pid), Some(sid)) => decode_set(store, &store.objects(pid, sid)),
                            _ => Vec::new(),
                        };
                        prop_assert_eq!(got, expected, "{}: objects({}, {})", name, subject, pred);
                    }
                }
            }
            Ok(())
        })?;
    }

    #[test]
    fn subjects_match_naive_scan((graph, onto) in arb_graph()) {
        for_each_store(&graph, &onto, |name, store| {
            for o in 0..12usize {
                let object = Term::iri(format!("http://x/i{o}"));
                for p in 0..4usize {
                    let pred = format!("http://x/p{p}");
                    let expected = naive(&graph, &[pred.as_str()], |t| {
                        (t.object == object).then(|| t.subject.to_string())
                    });
                    let got = match (store.property_id(&pred), store.instance_id(&object)) {
                        (Some(pid), Some(oid)) => {
                            decode_subjects(store, &store.subjects(pid, &Value::Instance(oid)))
                        }
                        _ => Vec::new(),
                    };
                    prop_assert_eq!(got, expected, "{}: subjects({}, {})", name, pred, object);
                }
            }
            Ok(())
        })?;
    }

    #[test]
    fn type_interval_equals_subclass_union((graph, onto) in arb_graph()) {
        // Reasoned subjects of C0 == subjects typed C0, C1 or C2 in the graph.
        let classes = ["http://x/C0", "http://x/C1", "http://x/C2"];
        let typed = |members: &[&str]| -> Vec<String> {
            let mut v = naive(&graph, &[se_rdf::vocab::rdf::TYPE], |t| {
                members
                    .contains(&t.object.as_iri()?)
                    .then(|| t.subject.to_string())
            });
            v.dedup();
            v
        };
        for_each_store(&graph, &onto, |name, store| {
            let iv = store.concept_interval("http://x/C0").unwrap();
            let got = decode_subjects(store, &store.subjects_of_concept_interval(iv));
            prop_assert_eq!(got, typed(&classes), "{}: C0 interval", name);
            prop_assert_eq!(
                store.type_count(iv),
                naive(&graph, &[se_rdf::vocab::rdf::TYPE], |t| Some(t.to_string())).len(),
                "{}: type_count(C0)",
                name
            );
            // Without reasoning each class is a point interval.
            for c in classes {
                let point = store.concept_id(c).map_or(Vec::new(), |cid| {
                    store.subjects_of_concept_interval(IdInterval::point(cid))
                });
                prop_assert_eq!(decode_subjects(store, &point), typed(&[c]), "{}: {}", name, c);
            }
            // Membership agrees with the listing, subject by subject.
            let members = typed(&["http://x/C1"]);
            let c1 = store.concept_interval("http://x/C1").unwrap();
            for s in 0..12usize {
                let subject = Term::iri(format!("http://x/i{s}"));
                let has = store
                    .instance_id(&subject)
                    .is_some_and(|sid| store.has_type_in_interval(sid, c1));
                prop_assert_eq!(has, members.contains(&subject.to_string()), "{}: {}", name, subject);
            }
            Ok(())
        })?;
    }

    #[test]
    fn predicate_counts_match((graph, onto) in arb_graph()) {
        for_each_store(&graph, &onto, |name, store| {
            for p in 0..4usize {
                for pred in [format!("http://x/p{p}"), format!("http://x/d{p}")] {
                    let expected = naive(&graph, &[pred.as_str()], |t| Some(t.to_string())).len();
                    let got = store
                        .property_id(&pred)
                        .map_or(0, |pid| store.predicate_count(pid));
                    prop_assert_eq!(got, expected, "{}: count({})", name, pred);
                }
            }
            // Property-interval count for p0 covers p0 and p1.
            let iv = store.property_interval("http://x/p0").unwrap();
            let expected = naive(&graph, INTERVALS[0].1, |t| Some(t.to_string())).len();
            prop_assert_eq!(predicate_count_in(store, iv), expected, "{}", name);
            Ok(())
        })?;
    }

    #[test]
    fn interval_probes_match_naive_filter((graph, onto) in arb_graph()) {
        for_each_store(&graph, &onto, |name, store| {
            for (top, members) in INTERVALS {
                let iv = store.property_interval(top).unwrap();
                prop_assert_eq!(
                    predicate_count_in(store, iv),
                    naive(&graph, members, |t| Some(t.to_string())).len(),
                    "{}: count({})",
                    name,
                    top
                );
                // (?s, p⊑, ?o): the full interval scan, subject-sorted.
                let pairs = scan_in(store, iv);
                prop_assert!(
                    pairs.windows(2).all(|w| w[0].0 <= w[1].0),
                    "{}: scan_in({}) is not subject-sorted",
                    name,
                    top
                );
                let mut got: Vec<String> = pairs
                    .iter()
                    .map(|&(s, o)| format!("{} {}", decode(store, Value::Instance(s)), decode(store, o)))
                    .collect();
                got.sort();
                let expected = naive(&graph, members, |t| Some(format!("{} {}", t.subject, t.object)));
                prop_assert_eq!(got, expected, "{}: scan_in({})", name, top);
                for i in 0..12usize {
                    let term = Term::iri(format!("http://x/i{i}"));
                    let id = store.instance_id(&term);
                    // (s, p⊑, ?o), one object per matching triple.
                    let got = id.map_or(Vec::new(), |s| decode_set(store, &objects_in(store, iv, s)));
                    let expected = naive(&graph, members, |t| {
                        (t.subject == term).then(|| t.object.to_string())
                    });
                    prop_assert_eq!(got, expected, "{}: objects_in({}, {})", name, top, term);
                    // (?s, p⊑, o).
                    let got = id.map_or(Vec::new(), |o| {
                        decode_subjects(store, &subjects_in(store, iv, &Value::Instance(o)))
                    });
                    let mut expected = naive(&graph, members, |t| {
                        (t.object == term).then(|| t.subject.to_string())
                    });
                    expected.dedup();
                    prop_assert_eq!(got, expected, "{}: subjects_in({}, {})", name, top, term);
                    // (?s, p⊑, lit) — the literal values are the integers 0..12.
                    let lit = Literal::integer(i as i64);
                    let got = decode_subjects(store, &subjects_by_literal_in(store, iv, &lit));
                    let mut expected = naive(&graph, members, |t| {
                        (t.object.as_literal() == Some(&lit)).then(|| t.subject.to_string())
                    });
                    expected.dedup();
                    prop_assert_eq!(got, expected, "{}: subjects_by_literal_in({}, {})", name, top, lit);
                }
            }
            Ok(())
        })?;
    }

    #[test]
    fn total_triples_accounted((graph, onto) in arb_graph()) {
        let store = SuccinctEdgeStore::build(&onto, &graph).unwrap();
        prop_assert_eq!(store.len(), graph.len());
        let stats = store.stats();
        prop_assert_eq!(
            stats.n_type_triples + stats.n_object_triples + stats.n_datatype_triples,
            graph.len()
        );
        for_each_store(&graph, &onto, |name, store| {
            prop_assert_eq!(store.len(), graph.len(), "{}", name);
            Ok(())
        })?;
    }
}

#[test]
fn ntriples_to_store_roundtrip() {
    // End-to-end: serialize a generated graph to N-Triples, parse it back,
    // build a store, and compare query answers.
    let graph = se_datagen::water::generate(250, 3);
    let text = se_rdf::write_ntriples(&graph);
    let reparsed = se_rdf::parse_ntriples(&text).unwrap();
    assert_eq!(graph.len(), reparsed.len());

    let onto = se_ontology::water_ontology();
    let a = SuccinctEdgeStore::build(&onto, &graph).unwrap();
    let b = SuccinctEdgeStore::build(&onto, &reparsed).unwrap();
    let q = se_datagen::workload::water_anomaly_query();
    let opts = se_sparql::QueryOptions::default();
    let ra = se_sparql::execute_query(&a, &q, &opts).unwrap();
    let rb = se_sparql::execute_query(&b, &q, &opts).unwrap();
    let norm = |rs: &se_sparql::ResultSet| {
        let mut v: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
        v.sort();
        v
    };
    assert_eq!(norm(&ra), norm(&rb));
}

#[test]
fn store_sizes_scale_with_data() {
    let onto = se_ontology::lubm_ontology();
    let mut small = se_datagen::lubm::generate(1, 1);
    small.truncate(1_000);
    let mut large = se_datagen::lubm::generate(1, 1);
    large.truncate(10_000);
    let st_small = SuccinctEdgeStore::build(&onto, &small).unwrap();
    let st_large = SuccinctEdgeStore::build(&onto, &large).unwrap();
    assert!(st_large.memory_footprint() > st_small.memory_footprint());
    assert!(st_large.triple_serialized_size() > st_small.triple_serialized_size());
    assert!(st_large.dictionary_serialized_size() > st_small.dictionary_serialized_size());
}
