//! Join-order optimization (§5.1).
//!
//! SuccinctEdge only generates *left-deep* join trees. The orderer sees
//! the query graph (one node per TP, edges between TPs sharing a
//! variable, labelled SS / SO / OO) and repeatedly appends the cheapest
//! TP connected to the prefix, ranked by:
//!
//! 1. **statistics** collected at dictionary-creation time, aggregated
//!    along the concept/property hierarchies, plus run-time counts
//!    computed directly on the SDS structures (the paper's Algorithm 2),
//!    discounted for positions the prefix already binds;
//! 2. **join shape** as the tiebreak: SS joins are preferred over SO
//!    joins (`S ⋈ S > S ⋈ O`), other join forms rank lower.

use crate::ast::{TermPattern, TriplePattern};
use crate::exec::concept_spec;
use se_core::source::predicate_count_in;
use se_core::TripleSource;
use se_litemat::IdInterval;
use se_rdf::Term;
use std::collections::HashSet;

/// How two triple patterns join (the query-graph edge label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// subject–subject (the preferred form).
    SS,
    /// subject–object in either direction.
    SO,
    /// object–object.
    OO,
    /// Any join involving a predicate position (rare, lowest priority).
    Other,
}

impl JoinType {
    fn priority(self) -> u8 {
        match self {
            JoinType::SS => 0,
            JoinType::SO => 1,
            JoinType::OO => 2,
            JoinType::Other => 3,
        }
    }
}

/// Classifies the strongest join between two TPs, if they share a variable.
pub fn join_type(a: &TriplePattern, b: &TriplePattern) -> Option<JoinType> {
    let mut best: Option<JoinType> = None;
    let mut consider = |jt: JoinType| {
        best = Some(match best {
            Some(cur) if cur.priority() <= jt.priority() => cur,
            _ => jt,
        });
    };
    let positions = |tp: &TriplePattern, var: &str| -> (bool, bool, bool) {
        (
            tp.subject.as_var() == Some(var),
            tp.predicate.as_var() == Some(var),
            tp.object.as_var() == Some(var),
        )
    };
    let mut vars: Vec<&str> = a.variables();
    vars.retain(|v| b.variables().contains(v));
    for var in vars {
        let (as_, ap, ao) = positions(a, var);
        let (bs, bp, bo) = positions(b, var);
        if as_ && bs {
            consider(JoinType::SS);
        }
        if (as_ && bo) || (ao && bs) {
            consider(JoinType::SO);
        }
        if ao && bo {
            consider(JoinType::OO);
        }
        if ap || bp {
            consider(JoinType::Other);
        }
    }
    best
}

/// Estimated result cardinality of a TP from the creation-time statistics
/// and the run-time SDS counts — predicate interval widths via
/// rank/select, per-concept type counts, overlay per-predicate counts.
/// All O(1)-ish on the store; this is also the cost model the compiled
/// cardinality-driven ordering builds on.
pub fn estimate<S: TripleSource + ?Sized>(tp: &TriplePattern, store: &S, reasoning: bool) -> usize {
    if tp.is_type_pattern() {
        match &tp.object {
            TermPattern::Term(Term::Iri(c)) => {
                concept_spec(store, c, reasoning).map_or(0, |iv| store.type_count(iv))
            }
            _ => store.type_count(IdInterval::ALL),
        }
    } else {
        match &tp.predicate {
            TermPattern::Term(Term::Iri(p)) => {
                if reasoning {
                    store
                        .property_interval(p)
                        .map_or(0, |iv| predicate_count_in(store, iv))
                } else {
                    store
                        .property_id(p)
                        .map_or(0, |id| store.predicate_count(id))
                }
            }
            _ => store.len(),
        }
    }
}

/// Cardinality-driven left-deep ordering — the one join orderer, used by
/// plan compilation and by `se-stream`'s delta joins.
///
/// Each candidate's [`estimate`] is discounted by
/// how many of its subject/object positions are already bound
/// (constants, or variables bound by the prefix) — a bound position
/// turns a scan into a per-row probe, so the discount is steep
/// (`base >> 4` per bound position). Join shape only breaks ties.
/// Connectivity still constrains candidates: a disconnected pattern is
/// chosen only when nothing connected remains (cartesian fallback).
pub fn order_patterns_by_cardinality<S: TripleSource + ?Sized>(
    patterns: &[TriplePattern],
    store: &S,
    reasoning: bool,
) -> Vec<usize> {
    let n = patterns.len();
    if n <= 1 {
        return (0..n).collect();
    }
    let base: Vec<usize> = patterns
        .iter()
        .map(|tp| estimate(tp, store, reasoning))
        .collect();
    let cost = |i: usize, bound: &HashSet<&str>| -> usize {
        let is_bound = |p: &TermPattern| match p {
            TermPattern::Term(_) => true,
            TermPattern::Var(v) => bound.contains(v.as_str()),
        };
        let mut discount = 0u32;
        if is_bound(&patterns[i].subject) {
            discount += 4;
        }
        // A type pattern's constant concept is already priced into its
        // estimate (the concept's type count) — no extra discount.
        let obj_in_estimate =
            patterns[i].is_type_pattern() && matches!(patterns[i].object, TermPattern::Term(_));
        if !obj_in_estimate && is_bound(&patterns[i].object) {
            discount += 4;
        }
        base[i] >> discount
    };

    let empty = HashSet::new();
    let start = (0..n)
        .min_by_key(|&i| (cost(i, &empty), base[i], i))
        .expect("n >= 1");
    let mut order = vec![start];
    let mut used = vec![false; n];
    used[start] = true;
    let mut bound: HashSet<&str> = patterns[start].variables().into_iter().collect();

    while order.len() < n {
        let connected: Vec<usize> = (0..n)
            .filter(|&i| {
                !used[i]
                    && order
                        .iter()
                        .any(|&j| join_type(&patterns[i], &patterns[j]).is_some())
            })
            .collect();
        let candidates: Vec<usize> = if connected.is_empty() {
            (0..n).filter(|&i| !used[i]).collect()
        } else {
            connected
        };
        let best_join = |i: usize| {
            order
                .iter()
                .filter_map(|&j| join_type(&patterns[i], &patterns[j]))
                .map(JoinType::priority)
                .min()
                .unwrap_or(4)
        };
        let next = candidates
            .into_iter()
            .min_by_key(|&i| (cost(i, &bound), best_join(i), base[i], i))
            .expect("candidates nonempty while TPs remain");
        used[next] = true;
        order.push(next);
        bound.extend(patterns[next].variables());
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use se_core::SuccinctEdgeStore;
    use se_ontology::Ontology;
    use se_rdf::{Graph, Triple};

    fn tp(q: &str) -> Vec<TriplePattern> {
        let mut parsed = parse_query(q).unwrap();
        parsed.groups.remove(0).patterns
    }

    fn toy_store() -> SuccinctEdgeStore {
        let mut o = Ontology::new();
        o.add_class("http://x/C2", "http://x/C1");
        o.add_class("http://x/C3", "http://x/C1");
        o.add_object_property("http://x/p");
        o.add_object_property("http://x/q");
        let mut g = Graph::new();
        let iri = |s: &str| Term::iri(format!("http://x/{s}"));
        // C2 is rarer than C3.
        g.insert(Triple::new(
            iri("a"),
            Term::iri(se_rdf::vocab::rdf::TYPE),
            iri("C2"),
        ));
        for i in 0..5 {
            g.insert(Triple::new(
                iri(&format!("b{i}")),
                Term::iri(se_rdf::vocab::rdf::TYPE),
                iri("C3"),
            ));
        }
        // p is rarer than q.
        g.insert(Triple::new(iri("a"), iri("p"), iri("b0")));
        for i in 0..5 {
            g.insert(Triple::new(iri(&format!("b{i}")), iri("q"), iri("a")));
        }
        SuccinctEdgeStore::build(&o, &g).unwrap()
    }

    #[test]
    fn join_type_classification() {
        let tps = tp("SELECT * WHERE { ?x <http://x/p> ?y . ?x <http://x/q> ?z . ?w <http://x/r> ?x . ?a <http://x/s> ?y }");
        assert_eq!(join_type(&tps[0], &tps[1]), Some(JoinType::SS));
        assert_eq!(join_type(&tps[0], &tps[2]), Some(JoinType::SO));
        assert_eq!(join_type(&tps[0], &tps[3]), Some(JoinType::OO));
        assert_eq!(join_type(&tps[1], &tps[3]), None);
    }

    #[test]
    fn starts_with_most_selective_type_tp() {
        let store = toy_store();
        let tps = tp("PREFIX e: <http://x/> SELECT * WHERE { ?x a e:C3 . ?x a e:C2 . ?x e:p ?z }");
        let order = order_patterns_by_cardinality(&tps, &store, false);
        // C2 (1 instance) is more selective than C3 (5 instances).
        assert_eq!(order[0], 1);
    }

    #[test]
    fn non_type_start_when_no_type_tp() {
        let store = toy_store();
        let tps = tp("PREFIX e: <http://x/> SELECT * WHERE { ?x e:p ?y . ?x e:q ?z }");
        let order = order_patterns_by_cardinality(&tps, &store, false);
        // p (1 triple) is more selective than q (5 triples).
        assert_eq!(order[0], 0);
    }

    #[test]
    fn order_is_a_permutation_and_connected() {
        let store = toy_store();
        for q in [
            "PREFIX e: <http://x/> SELECT * WHERE { ?y e:q ?z . ?x e:p ?y . ?x a e:C1 . ?w e:q ?x }",
            "PREFIX e: <http://x/> SELECT * WHERE { ?z a e:C3 . ?y e:q ?z . ?x e:p ?y . e:a e:p ?x }",
        ] {
            let tps = tp(q);
            for reasoning in [false, true] {
                let order = order_patterns_by_cardinality(&tps, &store, reasoning);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..tps.len()).collect::<Vec<_>>(), "{q}");
                // Every TP after the first joins something before it
                // (connected query).
                for (k, &i) in order.iter().enumerate().skip(1) {
                    assert!(
                        order[..k]
                            .iter()
                            .any(|&j| join_type(&tps[i], &tps[j]).is_some()),
                        "{q}: TP {i} at position {k} is not connected to the prefix"
                    );
                }
            }
        }
    }

    #[test]
    fn single_tp() {
        let store = toy_store();
        let tps = tp("PREFIX e: <http://x/> SELECT * WHERE { ?x e:p ?y }");
        assert_eq!(order_patterns_by_cardinality(&tps, &store, false), vec![0]);
    }

    #[test]
    fn cartesian_fallback() {
        let store = toy_store();
        // Two disconnected components: order must still cover everything,
        // and the connected ?x pattern runs before the cartesian jump.
        let tps = tp("PREFIX e: <http://x/> SELECT * WHERE { ?x e:p ?y . ?a e:q ?b . ?x e:q ?c }");
        let order = order_patterns_by_cardinality(&tps, &store, false);
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn cardinality_order_starts_with_selective_predicate() {
        let store = toy_store();
        // The selective predicate (p: 1 triple) is textually last and
        // shares ?x with a type TP; the narrow predicate must run first.
        let tps = tp("PREFIX e: <http://x/> SELECT * WHERE { ?x a e:C3 . ?x e:q ?y . ?x e:p ?z }");
        let by_card = order_patterns_by_cardinality(&tps, &store, false);
        assert_eq!(by_card[0], 2, "cardinality order starts with e:p");
        let mut sorted = by_card.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn cardinality_order_discounts_bound_positions() {
        let store = toy_store();
        // After e:p binds ?x, the wide e:q probe is per-row and its
        // discounted cost drops below the unbound patterns' scans.
        let tps = tp(
            "PREFIX e: <http://x/> SELECT * WHERE { ?a e:q ?b . ?x e:q ?y . ?x e:p ?z . ?y e:q ?w }",
        );
        let order = order_patterns_by_cardinality(&tps, &store, false);
        assert_eq!(order[0], 2, "starts with the narrow predicate");
        assert_eq!(order[1], 1, "SS-joined probe on bound ?x runs next");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cardinality_order_is_connected_when_possible() {
        let store = toy_store();
        let tps = tp("PREFIX e: <http://x/> SELECT * WHERE {
                ?x a e:C2 . ?x e:p ?y . ?y e:q ?z . ?z a e:C3 . ?z e:p ?w }");
        let order = order_patterns_by_cardinality(&tps, &store, false);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        for (k, &i) in order.iter().enumerate().skip(1) {
            assert!(
                order[..k]
                    .iter()
                    .any(|&j| join_type(&tps[i], &tps[j]).is_some()),
                "TP {i} at position {k} is not connected to the prefix"
            );
        }
    }

    #[test]
    fn reasoning_changes_estimates() {
        let store = toy_store();
        let tps = tp("PREFIX e: <http://x/> SELECT * WHERE { ?x a e:C1 . ?x a e:C2 }");
        // Without reasoning C1 has 0 direct instances (most selective);
        // with reasoning C1 covers C2+C3 (6) and C2 (1) wins.
        let no_reason = order_patterns_by_cardinality(&tps, &store, false);
        assert_eq!(no_reason[0], 0);
        let with_reason = order_patterns_by_cardinality(&tps, &store, true);
        assert_eq!(with_reason[0], 1);
    }
}
