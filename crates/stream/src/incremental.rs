//! Semi-naive differential evaluation for continuous queries.
//!
//! Full re-evaluation costs O(queries × store) per batch even when the
//! batch touches three triples. This module maintains each registered
//! query's answers as a **materialized multiset** (projected row →
//! signed count) and, per batch, feeds only the batch's net delta
//! through the query's join plan, so steady-state cost is O(delta), not
//! O(store).
//!
//! # The delta rule
//!
//! For a BGP `O_1 ⋈ … ⋈ O_n` the change between the pre-batch state
//! (`old`) and the post-batch state (`new`) telescopes into one term
//! per *pivot* pattern:
//!
//! ```text
//! ΔQ = Σ_k  O_1^old ⋈ … ⋈ O_{k-1}^old  ⋈  Δ_k  ⋈  O_{k+1}^new ⋈ … ⋈ O_n^new
//! ```
//!
//! where `Δ_k` is the batch's net triples routed to pattern `k`
//! (weight +1 for additions, −1 for removals). Only the *new* state is
//! queryable after `apply`, so the old-state prefix joins are computed
//! by **compensation** — join is bilinear over weighted multisets:
//!
//! ```text
//! rows ⋈ O_j^old = rows ⋈ O_j^new − rows ⋈ A_j + rows ⋈ R_j
//! ```
//!
//! with `A_j`/`R_j` the batch's added/removed triples matching pattern
//! `j`. Store joins reuse [`se_sparql::exec::eval_pattern`] — the step
//! every compiled plan runs — and the join order is the plan compiler's
//! [`order_patterns_by_cardinality`], so merge joins, LiteMat interval
//! reasoning and overflow handling behave identically; delta joins are
//! plain nested loops over the (tiny) batch.
//!
//! # Multiset semantics
//!
//! Counts track *derivations*: a projected row's count is the number of
//! ways the BGP derives it (summed over UNION groups). Applying a
//! batch's signed updates yields the per-batch `added`/`removed` rows:
//! bag semantics for plain SELECT, support semantics (count 0→positive /
//! positive→0) under DISTINCT. Counts never go negative on a correct
//! delta — the agreement suite cross-checks this against full
//! re-evaluation and from-scratch rebuilds.
//!
//! # Fallback
//!
//! Queries the delta path can't handle yet — FILTER, BIND or LIMIT —
//! are registered with [`EvalStrategy::Full`] and
//! transparently re-evaluated from scratch each batch; their multiset
//! is still maintained (by diffing successive answers) so subscribers
//! get `added`/`removed` rows and unchanged-tick suppression either
//! way. A query's strategy is chosen once at registration and visible
//! via the registry.

use crate::continuous::{ContinuousQuery, ContinuousResult};
use crate::delta::BatchDelta;
use se_core::{TripleSource, Value};
use se_rdf::{Term, Triple};
use se_sparql::ast::{GroupPattern, Query, TermPattern, TriplePattern};
use se_sparql::exec::{
    concept_spec, eval_pattern, group_var_index, predicate_spec, slot_to_term, PSpec, Row, Slot,
};
use se_sparql::optimizer::order_patterns_by_cardinality;
use se_sparql::{PlanCache, QueryError, QueryOptions, ResultSet};
use std::collections::HashMap;

/// How a registered continuous query is evaluated each batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalStrategy {
    /// Semi-naive delta evaluation over the materialized multiset:
    /// per-batch cost O(delta).
    Incremental,
    /// Full re-evaluation per batch (FILTER / BIND / LIMIT), diffed
    /// against the previous answers.
    Full,
}

/// Picks the strategy at registration time (which has already refused
/// variable predicates). Incremental requires a pure BGP (optionally
/// UNION/DISTINCT) with no LIMIT — everything `eval_pattern` can replay
/// over deltas.
pub(crate) fn choose_strategy(query: &Query) -> EvalStrategy {
    let pure_bgp = query
        .groups
        .iter()
        .all(|g| g.binds.is_empty() && g.filters.is_empty());
    if pure_bgp && query.limit.is_none() {
        EvalStrategy::Incremental
    } else {
        EvalStrategy::Full
    }
}

/// A projected output row: one optional binding per output variable.
type OutRow = Vec<Option<Term>>;

/// A query's materialized answers: projected row → signed derivation
/// count. For [`EvalStrategy::Full`] queries the counts mirror the
/// final output rows instead (so diffing still works).
#[derive(Debug, Clone, Default)]
pub(crate) struct MaterializedState {
    counts: HashMap<OutRow, i64>,
    seeded: bool,
}

impl MaterializedState {
    pub(crate) fn is_seeded(&self) -> bool {
        self.seeded
    }

    /// Applies signed row updates and reports the visible changes:
    /// bag semantics when `distinct` is off (one entry per derivation),
    /// support semantics when it is on (0→positive / positive→0 only).
    fn apply_updates(
        &mut self,
        updates: HashMap<OutRow, i64>,
        distinct: bool,
    ) -> (Vec<OutRow>, Vec<OutRow>) {
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for (row, dw) in updates {
            if dw == 0 {
                continue;
            }
            let old = self.counts.get(&row).copied().unwrap_or(0);
            let new = old + dw;
            debug_assert!(new >= 0, "materialized count went negative: {row:?}");
            if new == 0 {
                self.counts.remove(&row);
            } else {
                self.counts.insert(row.clone(), new);
            }
            if distinct {
                if old <= 0 && new > 0 {
                    added.push(row);
                } else if old > 0 && new <= 0 {
                    removed.push(row);
                }
            } else if dw > 0 {
                added.extend(std::iter::repeat_n(row, dw as usize));
            } else {
                removed.extend(std::iter::repeat_n(row, (-dw) as usize));
            }
        }
        (added, removed)
    }

    /// Replaces the whole multiset (seeding / full re-evaluation),
    /// reporting the same change sets `apply_updates` would.
    fn replace(
        &mut self,
        new_counts: HashMap<OutRow, i64>,
        distinct: bool,
    ) -> (Vec<OutRow>, Vec<OutRow>) {
        let mut updates = new_counts;
        for (row, c) in &self.counts {
            *updates.entry(row.clone()).or_insert(0) -= c;
        }
        self.seeded = true;
        self.apply_updates(updates, distinct)
    }

    /// Materializes the full answer set (count-many repetitions, or one
    /// per row under DISTINCT).
    fn full_rows(&self, distinct: bool) -> Vec<OutRow> {
        let mut rows = Vec::new();
        for (row, &c) in &self.counts {
            if c <= 0 {
                continue;
            }
            let reps = if distinct { 1 } else { c as usize };
            rows.extend(std::iter::repeat_n(row.clone(), reps));
        }
        rows
    }
}

/// One batch-delta triple, pre-encoded against the post-batch store.
/// Terms that no longer resolve (removed and then compacted away) keep
/// `None` ids and fall back to term comparison — exact for overflow
/// singletons, which are the only terms that can vanish.
struct EncTriple<'a> {
    triple: &'a Triple,
    /// +1 for an added triple, −1 for a removed one.
    weight: i64,
    s_id: Option<u64>,
    /// Property id (non-type triples only).
    p_id: Option<u64>,
    is_type: bool,
    /// Concept id of a type triple's object.
    c_id: Option<u64>,
    /// Instance id of a resource object.
    o_id: Option<u64>,
}

fn encode_delta<'a, S: TripleSource + ?Sized>(
    store: &S,
    delta: &'a BatchDelta,
) -> Vec<EncTriple<'a>> {
    let mut out = Vec::with_capacity(delta.len());
    for (list, weight) in [(&delta.added, 1i64), (&delta.removed, -1i64)] {
        for t in list {
            let is_type = t.is_type_triple();
            out.push(EncTriple {
                triple: t,
                weight,
                s_id: store.instance_id(&t.subject),
                p_id: (!is_type)
                    .then(|| t.predicate.as_iri().and_then(|p| store.property_id(p)))
                    .flatten(),
                is_type,
                c_id: is_type
                    .then(|| t.object.as_iri().and_then(|c| store.concept_id(c)))
                    .flatten(),
                o_id: t
                    .object
                    .is_resource()
                    .then(|| store.instance_id(&t.object))
                    .flatten(),
            });
        }
    }
    out
}

/// Can this delta triple match the pattern's predicate position?
/// (Subject/object agreement is checked later by [`extend_row`].)
fn routes_to<S: TripleSource + ?Sized>(
    store: &S,
    d: &EncTriple<'_>,
    tp: &TriplePattern,
    reasoning: bool,
) -> bool {
    if tp.is_type_pattern() != d.is_type {
        return false;
    }
    if d.is_type {
        // Concept agreement is part of the object position.
        return true;
    }
    let TermPattern::Term(Term::Iri(p_iri)) = &tp.predicate else {
        return false;
    };
    match (d.p_id, predicate_spec(store, p_iri, reasoning)) {
        (_, PSpec::NoMatch) => false,
        (Some(id), PSpec::Exact(p)) => id == p,
        (Some(id), PSpec::Interval(iv)) => iv.contains(id),
        // The delta property vanished from every dictionary (removed
        // overflow singleton): it can only equal the pattern's IRI
        // textually, and then the ids would have resolved — so this is
        // effectively `false`, kept as a comparison for robustness.
        (None, _) => d.triple.predicate.as_iri() == Some(p_iri.as_ref()),
    }
}

/// Binds `slot` at `col`, or checks agreement if the column is already
/// bound (`term` is the delta triple's ground term at this position).
fn bind_slot<S: TripleSource + ?Sized>(
    store: &S,
    row: &mut Row,
    col: usize,
    slot: Slot,
    term: &Term,
) -> bool {
    match &row[col] {
        None => {
            row[col] = Some(slot);
            true
        }
        Some(existing) => slot_to_term(store, existing) == *term,
    }
}

/// Extends `base` with the bindings of delta triple `d` matched against
/// pattern `tp`, or `None` if they disagree. With an all-`None` base
/// this is the pivot seeding step; with a partial row it is the
/// compensation join.
fn extend_row<S: TripleSource + ?Sized>(
    store: &S,
    base: &Row,
    d: &EncTriple<'_>,
    tp: &TriplePattern,
    vars: &HashMap<&str, usize>,
    reasoning: bool,
) -> Option<Row> {
    let mut row = base.clone();
    match &tp.subject {
        TermPattern::Term(t) => {
            if *t != d.triple.subject {
                return None;
            }
        }
        TermPattern::Var(v) => {
            let slot = match d.s_id {
                Some(id) => Slot::Enc(Value::Instance(id)),
                None => Slot::Term(d.triple.subject.clone()),
            };
            if !bind_slot(store, &mut row, vars[v.as_str()], slot, &d.triple.subject) {
                return None;
            }
        }
    }
    if d.is_type {
        match &tp.object {
            TermPattern::Term(Term::Iri(c_iri)) => {
                let iv = concept_spec(store, c_iri, reasoning)?;
                match d.c_id {
                    Some(c) => {
                        if !iv.contains(c) {
                            return None;
                        }
                    }
                    None => {
                        if d.triple.object.as_iri() != Some(c_iri.as_ref()) {
                            return None;
                        }
                    }
                }
            }
            TermPattern::Term(_) => return None,
            TermPattern::Var(v) => {
                let slot = match d.c_id {
                    Some(c) => Slot::Enc(Value::Concept(c)),
                    None => Slot::Term(d.triple.object.clone()),
                };
                if !bind_slot(store, &mut row, vars[v.as_str()], slot, &d.triple.object) {
                    return None;
                }
            }
        }
    } else {
        match &tp.object {
            TermPattern::Term(t) => {
                if *t != d.triple.object {
                    return None;
                }
            }
            TermPattern::Var(v) => {
                let slot = match d.o_id {
                    Some(id) => Slot::Enc(Value::Instance(id)),
                    None => Slot::Term(d.triple.object.clone()),
                };
                if !bind_slot(store, &mut row, vars[v.as_str()], slot, &d.triple.object) {
                    return None;
                }
            }
        }
    }
    Some(row)
}

/// A partial row with its derivation weight.
type WRow = (Row, i64);

/// `eval_pattern` over weighted rows: buckets by weight (there are at
/// most a few distinct values, usually ±1), evaluates each bucket, and
/// reattaches the weight to every produced row.
fn eval_pattern_weighted<S: TripleSource + ?Sized>(
    store: &S,
    tp: &TriplePattern,
    rows: Vec<WRow>,
    vars: &HashMap<&str, usize>,
    options: &QueryOptions,
) -> Result<Vec<WRow>, QueryError> {
    let mut buckets: HashMap<i64, Vec<Row>> = HashMap::new();
    for (r, w) in rows {
        buckets.entry(w).or_default().push(r);
    }
    let mut out = Vec::new();
    for (w, bucket) in buckets {
        out.extend(
            eval_pattern(store, tp, bucket, vars, options)?
                .into_iter()
                .map(|r| (r, w)),
        );
    }
    Ok(out)
}

/// Accumulates one group's delta contributions into `updates`
/// (projected row → signed count change).
fn group_updates<S: TripleSource + ?Sized>(
    store: &S,
    group: &GroupPattern,
    options: &QueryOptions,
    enc: &[EncTriple<'_>],
    out_vars: &[String],
    updates: &mut HashMap<Vec<Option<Term>>, i64>,
) -> Result<(), QueryError> {
    let vars = group_var_index(group);
    let n_cols = vars.len();
    let order = order_patterns_by_cardinality(&group.patterns, store, options.reasoning);
    let patterns: Vec<&TriplePattern> = order.iter().map(|&i| &group.patterns[i]).collect();
    // Route each delta triple to the patterns it can match.
    let routed: Vec<Vec<&EncTriple<'_>>> = patterns
        .iter()
        .map(|tp| {
            enc.iter()
                .filter(|d| routes_to(store, d, tp, options.reasoning))
                .collect()
        })
        .collect();
    let empty: Row = vec![None; n_cols];
    for k in 0..patterns.len() {
        // Δ_k: delta triples pivoting at pattern k, with their signs.
        let mut rows: Vec<WRow> = Vec::new();
        for d in &routed[k] {
            if let Some(row) = extend_row(store, &empty, d, patterns[k], &vars, options.reasoning) {
                rows.push((row, d.weight));
            }
        }
        // New-state suffix: patterns k+1..n against the post-batch store.
        for tp in &patterns[k + 1..] {
            if rows.is_empty() {
                break;
            }
            rows = eval_pattern_weighted(store, tp, rows, &vars, options)?;
        }
        // Old-state prefix: patterns 0..k against the pre-batch store,
        // as (new − added + removed) compensation.
        for (j, tp) in patterns[..k].iter().enumerate() {
            if rows.is_empty() {
                break;
            }
            let mut next = eval_pattern_weighted(store, tp, rows.clone(), &vars, options)?;
            for d in &routed[j] {
                // An addition inflates the new-state join relative to
                // the old state, so it is subtracted; a removal is
                // added back: sign = −weight either way.
                let sign = -d.weight;
                for (row, w) in &rows {
                    if let Some(ext) = extend_row(store, row, d, tp, &vars, options.reasoning) {
                        next.push((ext, w * sign));
                    }
                }
            }
            rows = next;
        }
        for (row, w) in rows {
            if w == 0 {
                continue;
            }
            let projected: Vec<Option<Term>> = out_vars
                .iter()
                .map(|v| {
                    vars.get(v.as_str())
                        .and_then(|&i| row[i].as_ref())
                        .map(|slot| slot_to_term(store, slot))
                })
                .collect();
            *updates.entry(projected).or_insert(0) += w;
        }
    }
    Ok(())
}

/// Builds the per-batch answer for one registered query, maintaining
/// its materialized state. `delta` is the batch's captured net change
/// (`None` forces a full evaluation — used for seeding and fallback).
/// `emit_full` controls whether the (potentially large) full answer set
/// is materialized on the incremental path. `cache` is the registry's
/// plan cache, which runs the full-evaluation paths.
pub(crate) fn evaluate_query<S: TripleSource + ?Sized>(
    q: &mut ContinuousQuery,
    store: &S,
    delta: Option<&BatchDelta>,
    emit_full: bool,
    cache: &PlanCache,
) -> Result<ContinuousResult, QueryError> {
    let out_vars = q.query.output_variables();
    let distinct = q.query.distinct;
    let incremental =
        q.strategy == EvalStrategy::Incremental && q.state.is_seeded() && delta.is_some();
    let (added, removed, results) = if incremental {
        let delta = delta.expect("checked above");
        let mut updates = HashMap::new();
        if !delta.is_empty() {
            let enc = encode_delta(store, delta);
            for group in &q.query.groups {
                group_updates(store, group, &q.options, &enc, &out_vars, &mut updates)?;
            }
        }
        let (added, removed) = q.state.apply_updates(updates, distinct);
        let rows = if emit_full {
            q.state.full_rows(distinct)
        } else {
            Vec::new()
        };
        (added, removed, rows)
    } else if q.strategy == EvalStrategy::Incremental {
        // Seeding (or a batch without a captured delta): one full
        // evaluation, with DISTINCT stripped so counts track
        // derivations; the support set is recovered from the counts.
        let mut bag = q.query.clone();
        bag.distinct = false;
        let rs = cache.execute_ast(store, &bag, &q.options)?;
        let mut counts: HashMap<Vec<Option<Term>>, i64> = HashMap::new();
        for row in rs.rows {
            *counts.entry(row).or_insert(0) += 1;
        }
        let (added, removed) = q.state.replace(counts, distinct);
        (added, removed, q.state.full_rows(distinct))
    } else {
        // Full fallback: counts mirror the final output rows so the
        // diff (and unchanged-tick detection) still works.
        let rs = cache.execute_ast(store, &q.query, &q.options)?;
        let mut counts: HashMap<Vec<Option<Term>>, i64> = HashMap::new();
        for row in &rs.rows {
            *counts.entry(row.clone()).or_insert(0) += 1;
        }
        let (added, removed) = q.state.replace(counts, false);
        (added, removed, rs.rows)
    };
    let rs = |rows: Vec<Vec<Option<Term>>>| ResultSet {
        variables: out_vars.clone(),
        rows,
    };
    Ok(ContinuousResult {
        id: q.id.clone(),
        strategy: q.strategy,
        incremental,
        added: rs(added),
        removed: rs(removed),
        results: rs(results),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_sparql::parse_query;

    fn strategy(q: &str) -> EvalStrategy {
        choose_strategy(&parse_query(q).unwrap())
    }

    #[test]
    fn strategy_selection() {
        assert_eq!(
            strategy("SELECT ?s WHERE { ?s <http://x/p> ?o }"),
            EvalStrategy::Incremental
        );
        assert_eq!(
            strategy("SELECT DISTINCT ?s WHERE { ?s a <http://x/C> . ?s <http://x/p> ?o }"),
            EvalStrategy::Incremental
        );
        assert_eq!(
            strategy("SELECT ?s WHERE { ?s <http://x/p> ?o } UNION { ?s <http://x/q> ?o }"),
            EvalStrategy::Incremental
        );
        // FILTER, BIND and LIMIT fall back.
        assert_eq!(
            strategy("SELECT ?s WHERE { ?s <http://x/p> ?o FILTER(?o > 3) }"),
            EvalStrategy::Full
        );
        assert_eq!(
            strategy("SELECT ?b WHERE { ?s <http://x/p> ?o BIND(?o AS ?b) }"),
            EvalStrategy::Full
        );
        assert_eq!(
            strategy("SELECT ?s WHERE { ?s <http://x/p> ?o } LIMIT 5"),
            EvalStrategy::Full
        );
    }

    #[test]
    fn multiset_distinct_vs_bag_changes() {
        let mut st = MaterializedState::default();
        let row = |s: &str| vec![Some(Term::iri(format!("http://x/{s}")))];
        // Two derivations of the same row under DISTINCT: one visible add.
        let (a, r) = st.apply_updates(HashMap::from([(row("a"), 2)]), true);
        assert_eq!((a.len(), r.len()), (1, 0));
        // Dropping one derivation is invisible; dropping the last removes.
        let (a, r) = st.apply_updates(HashMap::from([(row("a"), -1)]), true);
        assert_eq!((a.len(), r.len()), (0, 0));
        let (a, r) = st.apply_updates(HashMap::from([(row("a"), -1)]), true);
        assert_eq!((a.len(), r.len()), (0, 1));
        assert!(st.full_rows(true).is_empty());
        // Bag semantics report every derivation.
        let (a, _) = st.apply_updates(HashMap::from([(row("b"), 2)]), false);
        assert_eq!(a.len(), 2);
        assert_eq!(st.full_rows(false).len(), 2);
        assert_eq!(st.full_rows(true).len(), 1);
    }
}
