//! Pattern matching over the SuccinctEdge store (§5.2).
//!
//! A query runs as a compiled plan (`crate::ir`): a left-deep walk over
//! the TP order chosen at compile time, propagating variable bindings
//! from one TP to the next ("one of our joining approaches amounts to
//! propagate variable assignments from one TP to another"). This module
//! holds the per-pattern step every plan — and `se-stream`'s delta
//! evaluator — runs: [`eval_pattern`]. When the current intermediate
//! relation is joined through its subject against a fresh `(?s, p, ?o)` /
//! `(?s, p, o)` pattern, the PSO order of the layers makes both sides
//! subject-sorted and a **merge join** replaces the per-row lookups
//! (§5.2, Figure 7); otherwise index-nested-loop propagation is used.
//!
//! With reasoning enabled, constant concepts and properties evaluate
//! through their LiteMat intervals — no materialization, no UNION
//! rewriting.

use crate::ast::{GroupPattern, Query, TermPattern, TriplePattern};
use crate::error::QueryError;
use crate::expr::{Env, EvalValue};
use crate::ir;
use se_core::source::{objects_in, scan_in, subjects_by_literal_in, subjects_in};
use se_core::{TripleSource, Value};
use se_litemat::IdInterval;
use se_rdf::Term;
use std::collections::HashMap;

/// Execution options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOptions {
    /// LiteMat interval reasoning over concept/property hierarchies
    /// (§5.2). On by default — reasoning is native in SuccinctEdge.
    pub reasoning: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self { reasoning: true }
    }
}

impl QueryOptions {
    /// Options with reasoning disabled (exact concept/property matching).
    pub fn without_reasoning() -> Self {
        Self { reasoning: false }
    }
}

/// A query answer set, decoded back to RDF terms.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Projected variable names.
    pub variables: Vec<String>,
    /// One row per solution; positions align with `variables`.
    pub rows: Vec<Vec<Option<Term>>>,
}

impl ResultSet {
    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the answer set is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The values of one projected variable across all rows.
    pub fn column(&self, var: &str) -> Option<Vec<&Option<Term>>> {
        let idx = self.variables.iter().position(|v| v == var)?;
        Some(self.rows.iter().map(|r| &r[idx]).collect())
    }
}

/// A slot of the intermediate relation: an encoded store value, or a term
/// computed by BIND (or seeded from a delta triple whose term no longer
/// resolves in the store — see `se-stream::incremental`).
#[derive(Debug, Clone)]
pub enum Slot {
    Enc(Value),
    Term(Term),
}

/// One row of the intermediate relation; positions follow the group's
/// column layout (see [`group_var_index`]).
pub type Row = Vec<Option<Slot>>;

/// Executes a parsed query once, uncached: compiles it against `store`
/// and runs the plan. Callers that repeat queries hold a
/// [`PlanCache`](crate::PlanCache) instead.
pub fn execute<S: TripleSource + ?Sized>(
    store: &S,
    query: &Query,
    options: &QueryOptions,
) -> Result<ResultSet, QueryError> {
    let plan = ir::compile(query, store, options, 0);
    let (_, consts) = ir::normalize(query);
    ir::execute_plan(store, &plan, &consts, options)
}

/// Decodes one intermediate-relation slot back to an RDF term.
pub fn slot_to_term<S: TripleSource + ?Sized>(store: &S, slot: &Slot) -> Term {
    match slot {
        Slot::Enc(v) => store
            .value_to_term(*v)
            .unwrap_or_else(|| Term::literal("<dangling>")),
        Slot::Term(t) => t.clone(),
    }
}

/// The column layout of one group's intermediate relation: TP variables
/// in first-occurrence order, then BIND variables. Shared by the plan
/// compiler and `se-stream`'s incremental delta evaluator, so both build
/// rows with identical shapes.
pub fn group_var_index(group: &GroupPattern) -> HashMap<&str, usize> {
    let mut var_index: HashMap<&str, usize> = HashMap::new();
    for tp in &group.patterns {
        for v in tp.variables() {
            let next = var_index.len();
            var_index.entry(v).or_insert(next);
        }
    }
    for b in &group.binds {
        let next = var_index.len();
        var_index.entry(b.var.as_str()).or_insert(next);
    }
    var_index
}

/// Builds the expression environment of one intermediate row, for the
/// plan's BIND and FILTER steps.
pub fn row_env<'a, S: TripleSource + ?Sized>(
    store: &S,
    row: &Row,
    var_index: &HashMap<&'a str, usize>,
) -> Env<'a> {
    let mut env = Env::new();
    for (&var, &col) in var_index {
        if let Some(slot) = &row[col] {
            env.insert(var, EvalValue::Term(slot_to_term(store, slot)));
        }
    }
    env
}

/// Resolved constant/bound position of a pattern during evaluation.
enum Pos {
    /// Bound to an encoded value.
    Enc(Value),
    /// Bound to a decoded term (from BIND or a query literal constant).
    Term(Term),
    /// Unbound variable at column `usize`.
    Free(usize),
    /// A constant that does not exist in the dictionaries: no match.
    NoMatch,
}

fn resolve_subject<S: TripleSource + ?Sized>(
    store: &S,
    pat: &TermPattern,
    row: &Row,
    vars: &HashMap<&str, usize>,
) -> Pos {
    match pat {
        TermPattern::Term(t) => match store.instance_id(t) {
            Some(id) => Pos::Enc(Value::Instance(id)),
            None => Pos::NoMatch,
        },
        TermPattern::Var(v) => {
            let col = vars[v.as_str()];
            match &row[col] {
                Some(Slot::Enc(val)) => Pos::Enc(*val),
                Some(Slot::Term(t)) => Pos::Term(t.clone()),
                None => Pos::Free(col),
            }
        }
    }
}

fn resolve_object<S: TripleSource + ?Sized>(
    store: &S,
    pat: &TermPattern,
    row: &Row,
    vars: &HashMap<&str, usize>,
) -> Pos {
    match pat {
        TermPattern::Term(t) => match t {
            Term::Literal(_) => Pos::Term(t.clone()),
            other => match store.instance_id(other) {
                Some(id) => Pos::Enc(Value::Instance(id)),
                None => Pos::NoMatch,
            },
        },
        TermPattern::Var(v) => {
            let col = vars[v.as_str()];
            match &row[col] {
                Some(Slot::Enc(val)) => Pos::Enc(*val),
                Some(Slot::Term(t)) => Pos::Term(t.clone()),
                None => Pos::Free(col),
            }
        }
    }
}

/// Subject position as an instance id, if it denotes one.
fn pos_subject_id<S: TripleSource + ?Sized>(store: &S, pos: &Pos) -> Option<u64> {
    match pos {
        Pos::Enc(Value::Instance(id)) => Some(*id),
        Pos::Term(t) if t.is_resource() => store.instance_id(t),
        _ => None,
    }
}

/// How a constant predicate evaluates.
pub enum PSpec {
    /// One property id.
    Exact(u64),
    /// A LiteMat subproperty interval.
    Interval(IdInterval),
    /// The IRI resolves to nothing: the pattern matches no triple.
    NoMatch,
}

/// Resolves a constant predicate IRI: its LiteMat interval with reasoning
/// on, its exact id with reasoning off.
pub fn predicate_spec<S: TripleSource + ?Sized>(store: &S, iri: &str, reasoning: bool) -> PSpec {
    if reasoning {
        match store.property_interval(iri) {
            Some(iv) if iv.is_singleton() => PSpec::Exact(iv.lower),
            Some(iv) => PSpec::Interval(iv),
            None => PSpec::NoMatch,
        }
    } else {
        match store.property_id(iri) {
            Some(id) => PSpec::Exact(id),
            None => PSpec::NoMatch,
        }
    }
}

/// Resolves a constant concept IRI to the id interval it matches: the
/// LiteMat subclass interval with reasoning on, a singleton otherwise.
pub fn concept_spec<S: TripleSource + ?Sized>(
    store: &S,
    iri: &str,
    reasoning: bool,
) -> Option<IdInterval> {
    if reasoning {
        store.concept_interval(iri)
    } else {
        store.concept_id(iri).map(IdInterval::point)
    }
}

/// The target-fragment rule (§5.1) every pattern evaluation enforces: the
/// predicate is a constant IRI, returned here. Continuous-query
/// registration applies the same rule up front, so a query that could
/// never run is refused instead of failing every later batch.
pub fn constant_predicate(tp: &TriplePattern) -> Result<&str, QueryError> {
    match &tp.predicate {
        TermPattern::Term(Term::Iri(p)) => Ok(p),
        _ => Err(QueryError::Unsupported(
            "variable predicates are outside SuccinctEdge's target fragment (§5.1)".to_string(),
        )),
    }
}

/// Intermediate-relation size from which [`eval_pattern`] replaces
/// per-row lookups with a merge join, when the pattern allows one.
pub const MERGE_JOIN_MIN_ROWS: usize = 16;

/// Joins one triple pattern against the store, propagating the bindings
/// of `rows` (index nested loop, or a merge join when the fast-path
/// conditions of §5.2 hold). This is the pattern-matching entry point the
/// incremental evaluator reuses to extend delta-seeded partial rows.
pub fn eval_pattern<S: TripleSource + ?Sized>(
    store: &S,
    tp: &TriplePattern,
    rows: Vec<Row>,
    vars: &HashMap<&str, usize>,
    options: &QueryOptions,
) -> Result<Vec<Row>, QueryError> {
    let p_iri = constant_predicate(tp)?;
    if tp.is_type_pattern() {
        return eval_type_pattern(store, tp, rows, vars, options);
    }
    let spec = predicate_spec(store, p_iri, options.reasoning);
    if matches!(spec, PSpec::NoMatch) {
        return Ok(Vec::new());
    }

    // Merge-join fast path (§5.2): enough rows to amortize the scan,
    // subject var bound in all rows, exact predicate, free or constant
    // object.
    if rows.len() >= MERGE_JOIN_MIN_ROWS {
        if let (PSpec::Exact(p), TermPattern::Var(sv)) = (&spec, &tp.subject) {
            let s_col = vars[sv.as_str()];
            let all_bound_enc = rows
                .iter()
                .all(|r| matches!(r[s_col], Some(Slot::Enc(Value::Instance(_)))));
            if all_bound_enc {
                return Ok(merge_join_subject(store, *p, rows, s_col, &tp.object, vars));
            }
        }
    }

    // Binding propagation (index nested loop).
    let mut out = Vec::new();
    for row in rows {
        let s_pos = resolve_subject(store, &tp.subject, &row, vars);
        let o_pos = resolve_object(store, &tp.object, &row, vars);
        if matches!(s_pos, Pos::NoMatch) || matches!(o_pos, Pos::NoMatch) {
            continue;
        }
        match (&s_pos, &o_pos) {
            // (s, p, ?o)
            (Pos::Enc(_) | Pos::Term(_), Pos::Free(o_col)) => {
                let Some(s_id) = pos_subject_id(store, &s_pos) else {
                    continue;
                };
                let objects = match &spec {
                    PSpec::Exact(p) => store.objects(*p, s_id),
                    PSpec::Interval(iv) => objects_in(store, *iv, s_id),
                    PSpec::NoMatch => unreachable!(),
                };
                for o in objects {
                    let mut new_row = row.clone();
                    new_row[*o_col] = Some(Slot::Enc(o));
                    out.push(new_row);
                }
            }
            // (?s, p, o)
            (Pos::Free(s_col), Pos::Enc(_) | Pos::Term(_)) => {
                let subjects = subjects_for(store, &spec, &o_pos);
                for s in subjects {
                    let mut new_row = row.clone();
                    new_row[*s_col] = Some(Slot::Enc(Value::Instance(s)));
                    out.push(new_row);
                }
            }
            // (?s, p, ?o)
            (Pos::Free(s_col), Pos::Free(o_col)) => {
                let pairs = match &spec {
                    PSpec::Exact(p) => store.scan_predicate(*p),
                    PSpec::Interval(iv) => scan_in(store, *iv),
                    PSpec::NoMatch => unreachable!(),
                };
                let same_var = s_col == o_col;
                for (s, o) in pairs {
                    if same_var && !matches!(o, Value::Instance(oid) if oid == s) {
                        continue;
                    }
                    let mut new_row = row.clone();
                    new_row[*s_col] = Some(Slot::Enc(Value::Instance(s)));
                    new_row[*o_col] = Some(Slot::Enc(o));
                    out.push(new_row);
                }
            }
            // (s, p, o) — membership check.
            (Pos::Enc(_) | Pos::Term(_), Pos::Enc(_) | Pos::Term(_)) => {
                let Some(s_id) = pos_subject_id(store, &s_pos) else {
                    continue;
                };
                if check_membership(store, &spec, s_id, &o_pos) {
                    out.push(row);
                }
            }
            _ => {}
        }
    }
    Ok(out)
}

fn subjects_for<S: TripleSource + ?Sized>(store: &S, spec: &PSpec, o_pos: &Pos) -> Vec<u64> {
    match o_pos {
        Pos::Enc(v) => match spec {
            PSpec::Exact(p) => store.subjects(*p, v),
            PSpec::Interval(iv) => subjects_in(store, *iv, v),
            PSpec::NoMatch => Vec::new(),
        },
        Pos::Term(Term::Literal(lit)) => match spec {
            PSpec::Exact(p) => store.subjects_by_literal(*p, lit),
            PSpec::Interval(iv) => subjects_by_literal_in(store, *iv, lit),
            PSpec::NoMatch => Vec::new(),
        },
        Pos::Term(t) => match store.instance_id(t) {
            Some(id) => subjects_for(store, spec, &Pos::Enc(Value::Instance(id))),
            None => Vec::new(),
        },
        _ => Vec::new(),
    }
}

fn check_membership<S: TripleSource + ?Sized>(
    store: &S,
    spec: &PSpec,
    s_id: u64,
    o_pos: &Pos,
) -> bool {
    match o_pos {
        Pos::Enc(v) => match spec {
            PSpec::Exact(p) => store.contains(*p, s_id, v),
            PSpec::Interval(iv) => objects_in(store, *iv, s_id)
                .iter()
                .any(|x| store.values_join(*x, *v)),
            PSpec::NoMatch => false,
        },
        Pos::Term(Term::Literal(lit)) => {
            let objects = match spec {
                PSpec::Exact(p) => store.objects(*p, s_id),
                PSpec::Interval(iv) => objects_in(store, *iv, s_id),
                PSpec::NoMatch => return false,
            };
            objects.iter().any(|o| match o {
                Value::Literal(idx) => store.literal(*idx) == Some(lit),
                _ => false,
            })
        }
        Pos::Term(t) => match store.instance_id(t) {
            Some(id) => check_membership(store, spec, s_id, &Pos::Enc(Value::Instance(id))),
            None => false,
        },
        _ => false,
    }
}

/// Merge join (§5.2 Figure 7): both the intermediate relation (sorted here)
/// and the predicate's `(s, o)` pairs (PSO order) are subject-sorted.
fn merge_join_subject<S: TripleSource + ?Sized>(
    store: &S,
    p: u64,
    rows: Vec<Row>,
    s_col: usize,
    object: &TermPattern,
    vars: &HashMap<&str, usize>,
) -> Vec<Row> {
    let mut indexed: Vec<(u64, Row)> = rows
        .into_iter()
        .filter_map(|r| match r[s_col] {
            Some(Slot::Enc(Value::Instance(id))) => Some((id, r)),
            _ => None,
        })
        .collect();
    indexed.sort_by_key(|(id, _)| *id);
    let pairs = store.scan_predicate(p); // subject-sorted by construction
    let mut out = Vec::new();
    let mut j = 0usize;
    for (s_id, row) in indexed {
        // Advance to the first pair with subject >= s_id.
        while j < pairs.len() && pairs[j].0 < s_id {
            j += 1;
        }
        let mut k = j;
        while k < pairs.len() && pairs[k].0 == s_id {
            let o = pairs[k].1;
            match object {
                TermPattern::Var(ov) => {
                    let o_col = vars[ov.as_str()];
                    match &row[o_col] {
                        None => {
                            let mut new_row = row.clone();
                            new_row[o_col] = Some(Slot::Enc(o));
                            out.push(new_row);
                        }
                        Some(Slot::Enc(bound)) => {
                            if store.values_join(*bound, o) {
                                out.push(row.clone());
                            }
                        }
                        Some(Slot::Term(t)) => {
                            if store.value_to_term(o).as_ref() == Some(t) {
                                out.push(row.clone());
                            }
                        }
                    }
                }
                TermPattern::Term(t) => {
                    let matches = match (t, o) {
                        (Term::Literal(lit), Value::Literal(idx)) => {
                            store.literal(idx) == Some(lit)
                        }
                        (other, Value::Instance(oid)) => store.instance_id(other) == Some(oid),
                        _ => false,
                    };
                    if matches {
                        out.push(row.clone());
                    }
                }
            }
            k += 1;
        }
        // NOTE: do not advance j past this subject run — several rows may
        // share the same subject id.
    }
    out
}

fn eval_type_pattern<S: TripleSource + ?Sized>(
    store: &S,
    tp: &TriplePattern,
    rows: Vec<Row>,
    vars: &HashMap<&str, usize>,
    options: &QueryOptions,
) -> Result<Vec<Row>, QueryError> {
    let mut out = Vec::new();
    for row in rows {
        let s_pos = resolve_subject(store, &tp.subject, &row, vars);
        if matches!(s_pos, Pos::NoMatch) {
            continue;
        }
        // Resolve the concept position.
        enum CPos {
            Interval(IdInterval),
            Free(usize),
            NoMatch,
        }
        let c_pos = match &tp.object {
            TermPattern::Term(Term::Iri(c)) => match concept_spec(store, c, options.reasoning) {
                Some(iv) => CPos::Interval(iv),
                None => CPos::NoMatch,
            },
            TermPattern::Term(_) => CPos::NoMatch,
            TermPattern::Var(v) => {
                let col = vars[v.as_str()];
                match &row[col] {
                    Some(Slot::Enc(Value::Concept(c))) => CPos::Interval(IdInterval::point(*c)),
                    Some(Slot::Term(Term::Iri(c))) => match concept_spec(store, c, false) {
                        Some(iv) => CPos::Interval(iv),
                        None => CPos::NoMatch,
                    },
                    Some(_) => CPos::NoMatch,
                    None => CPos::Free(col),
                }
            }
        };
        if matches!(c_pos, CPos::NoMatch) {
            continue;
        }
        match (&s_pos, c_pos) {
            // (?s, type, C)
            (Pos::Free(s_col), CPos::Interval(iv)) => {
                for s in store.subjects_of_concept_interval(iv) {
                    let mut new_row = row.clone();
                    new_row[*s_col] = Some(Slot::Enc(Value::Instance(s)));
                    out.push(new_row);
                }
            }
            // (s, type, C) — membership.
            (Pos::Enc(_) | Pos::Term(_), CPos::Interval(iv)) => {
                let Some(s_id) = pos_subject_id(store, &s_pos) else {
                    continue;
                };
                if store.has_type_in_interval(s_id, iv) {
                    out.push(row);
                }
            }
            // (s, type, ?c)
            (Pos::Enc(_) | Pos::Term(_), CPos::Free(c_col)) => {
                let Some(s_id) = pos_subject_id(store, &s_pos) else {
                    continue;
                };
                for c in store.concepts_of_subject(s_id) {
                    let mut new_row = row.clone();
                    new_row[c_col] = Some(Slot::Enc(Value::Concept(c)));
                    out.push(new_row);
                }
            }
            // (?s, type, ?c) — full scan of the RDFType store.
            (Pos::Free(s_col), CPos::Free(c_col)) => {
                for (s, c) in store.type_pairs() {
                    let mut new_row = row.clone();
                    new_row[*s_col] = Some(Slot::Enc(Value::Instance(s)));
                    new_row[c_col] = Some(Slot::Enc(Value::Concept(c)));
                    out.push(new_row);
                }
            }
            (Pos::NoMatch, _) | (_, CPos::NoMatch) => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_core::SuccinctEdgeStore;
    use se_ontology::Ontology;
    use se_rdf::{Graph, Literal, Triple};

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    /// A small social-graph store with a class hierarchy and a property
    /// hierarchy, shared by most executor tests.
    fn store() -> SuccinctEdgeStore {
        let mut o = Ontology::new();
        o.add_class("http://x/Employee", "http://x/Person");
        o.add_class("http://x/Manager", "http://x/Employee");
        o.add_property("http://x/worksFor", "http://x/memberOf");
        o.add_object_property("http://x/knows");
        o.add_datatype_property("http://x/age");
        o.add_datatype_property("http://x/name");
        let mut g = Graph::new();
        let t =
            |s: &str, p: &str, o: Term| Triple::new(iri(s), Term::iri(format!("http://x/{p}")), o);
        let ty =
            |s: &str, c: &str| Triple::new(iri(s), Term::iri(se_rdf::vocab::rdf::TYPE), iri(c));
        g.extend([
            ty("alice", "Manager"),
            ty("bob", "Employee"),
            ty("carol", "Person"),
            ty("org1", "Org"),
            t("alice", "worksFor", iri("org1")),
            t("bob", "memberOf", iri("org1")),
            t("alice", "knows", iri("bob")),
            t("bob", "knows", iri("carol")),
            t("carol", "knows", iri("alice")),
            t("alice", "age", Term::Literal(Literal::integer(42))),
            t("bob", "age", Term::Literal(Literal::integer(37))),
            t("alice", "name", Term::literal("Alice")),
            t("bob", "name", Term::literal("Bob")),
            t("carol", "name", Term::literal("Carol")),
        ]);
        SuccinctEdgeStore::build(&o, &g).unwrap()
    }

    fn run(store: &SuccinctEdgeStore, q: &str, opts: &QueryOptions) -> ResultSet {
        crate::execute_query(store, q, opts).unwrap()
    }

    fn names(rs: &ResultSet, var: &str) -> Vec<String> {
        let mut out: Vec<String> = rs
            .column(var)
            .unwrap()
            .iter()
            .map(|t| match t {
                Some(t) => t.str_value().to_string(),
                None => "UNBOUND".to_string(),
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn single_tp_spo() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?o WHERE { e:alice e:knows ?o }",
            &QueryOptions::default(),
        );
        assert_eq!(names(&rs, "o"), vec!["http://x/bob"]);
    }

    #[test]
    fn single_tp_pso() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows e:alice }",
            &QueryOptions::default(),
        );
        assert_eq!(names(&rs, "s"), vec!["http://x/carol"]);
    }

    #[test]
    fn single_tp_scan() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s ?o WHERE { ?s e:knows ?o }",
            &QueryOptions::default(),
        );
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn type_without_reasoning() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s a e:Person }",
            &QueryOptions::without_reasoning(),
        );
        assert_eq!(names(&rs, "s"), vec!["http://x/carol"]);
    }

    #[test]
    fn type_with_reasoning() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s a e:Person }",
            &QueryOptions::default(),
        );
        assert_eq!(
            names(&rs, "s"),
            vec!["http://x/alice", "http://x/bob", "http://x/carol"]
        );
    }

    #[test]
    fn property_reasoning() {
        let st = store();
        // memberOf ⊒ worksFor: with reasoning both alice and bob match.
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:memberOf e:org1 }",
            &QueryOptions::default(),
        );
        assert_eq!(names(&rs, "s"), vec!["http://x/alice", "http://x/bob"]);
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:memberOf e:org1 }",
            &QueryOptions::without_reasoning(),
        );
        assert_eq!(names(&rs, "s"), vec!["http://x/bob"]);
    }

    #[test]
    fn bgp_join() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s ?n WHERE { ?s e:knows e:bob . ?s e:name ?n }",
            &QueryOptions::default(),
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(names(&rs, "n"), vec!["Alice"]);
    }

    #[test]
    fn star_join_with_type() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s ?o WHERE { ?s a e:Employee . ?s e:knows ?o }",
            &QueryOptions::default(),
        );
        // Employees (with reasoning): alice (Manager), bob. Both know someone.
        assert_eq!(names(&rs, "s"), vec!["http://x/alice", "http://x/bob"]);
    }

    #[test]
    fn filter_on_literal() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:age ?a . FILTER(?a > 40) }",
            &QueryOptions::default(),
        );
        assert_eq!(names(&rs, "s"), vec!["http://x/alice"]);
    }

    #[test]
    fn bind_and_filter() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s ?half WHERE { ?s e:age ?a . BIND(?a / 2 AS ?half) FILTER(?half > 20) }",
            &QueryOptions::default(),
        );
        assert_eq!(names(&rs, "s"), vec!["http://x/alice"]);
        assert_eq!(names(&rs, "half"), vec!["21"]);
    }

    #[test]
    fn literal_object_constant() {
        let st = store();
        let rs = run(
            &st,
            r#"PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:name "Bob" }"#,
            &QueryOptions::default(),
        );
        assert_eq!(names(&rs, "s"), vec!["http://x/bob"]);
    }

    #[test]
    fn membership_tp_keeps_or_drops_row() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:name ?n . e:alice e:knows e:bob }",
            &QueryOptions::default(),
        );
        assert_eq!(rs.len(), 3); // membership true: rows survive
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:name ?n . e:alice e:knows e:carol }",
            &QueryOptions::default(),
        );
        assert_eq!(rs.len(), 0); // membership false: all rows dropped
    }

    #[test]
    fn union_concatenates() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s a e:Manager } UNION { ?s a e:Org }",
            &QueryOptions::without_reasoning(),
        );
        assert_eq!(names(&rs, "s"), vec!["http://x/alice", "http://x/org1"]);
    }

    #[test]
    fn distinct_and_limit() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT DISTINCT ?o WHERE { ?s e:memberOf ?o }",
            &QueryOptions::default(),
        );
        assert_eq!(rs.len(), 1);
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s ?o WHERE { ?s e:knows ?o } LIMIT 2",
            &QueryOptions::default(),
        );
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn unknown_terms_yield_empty() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?o WHERE { e:nobody e:knows ?o }",
            &QueryOptions::default(),
        );
        assert!(rs.is_empty());
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:unknownProp ?o }",
            &QueryOptions::default(),
        );
        assert!(rs.is_empty());
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s a e:UnknownClass }",
            &QueryOptions::default(),
        );
        assert!(rs.is_empty());
    }

    #[test]
    fn variable_predicate_rejected() {
        let st = store();
        let err = crate::execute_query(
            &st,
            "SELECT ?p WHERE { <http://x/alice> ?p ?o }",
            &QueryOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::Unsupported(_)));
    }

    #[test]
    fn type_var_object() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT ?c WHERE { e:alice a ?c }",
            &QueryOptions::default(),
        );
        assert_eq!(names(&rs, "c"), vec!["http://x/Manager"]);
    }

    /// 20 subjects joined through `?s`: the second pattern sees ≥ 16
    /// bound rows and takes the merge-join path. Every answer is checked
    /// against a nested loop over the graph's own triples, for a free,
    /// a constant and an already-bound object.
    #[test]
    fn merge_join_equals_nested_loop() {
        let mut o = Ontology::new();
        o.add_object_property("http://x/q");
        o.add_object_property("http://x/p");
        let mut g = Graph::new();
        let t = |s: String, p: &str, o: Term| Triple::new(iri(&s), iri(p), o);
        for i in 0..20 {
            g.insert(t(format!("s{i}"), "q", iri(&format!("m{}", i % 3))));
            // Multiple p-objects per subject, none for every fifth.
            for k in 0..(i % 5) {
                g.insert(t(format!("s{i}"), "p", iri(&format!("m{k}"))));
            }
        }
        // Enough p triples that q runs first even when p's object is a
        // constant (a bound position discounts the estimate 16-fold).
        for i in 0..400 {
            g.insert(t(format!("x{i}"), "p", iri("m0")));
        }
        let st = SuccinctEdgeStore::build(&o, &g).unwrap();
        let triples = |p: &str| -> Vec<(String, String)> {
            g.iter()
                .filter(|tr| tr.predicate == iri(p))
                .map(|tr| (tr.subject.to_string(), tr.object.to_string()))
                .collect()
        };
        let (qs, ps) = (triples("q"), triples("p"));
        let sorted = |mut v: Vec<Vec<String>>| {
            v.sort();
            v
        };
        let answers = |rs: &ResultSet| {
            sorted(
                rs.rows
                    .iter()
                    .map(|r| r.iter().map(|c| c.as_ref().unwrap().to_string()).collect())
                    .collect(),
            )
        };
        let cases: [(&str, Vec<Vec<String>>); 3] = [
            (
                "SELECT ?s ?o WHERE { ?s e:q ?m . ?s e:p ?o }",
                sorted(
                    qs.iter()
                        .flat_map(|(s, _)| {
                            ps.iter()
                                .filter(move |(ps, _)| ps == s)
                                .map(move |(_, o)| vec![s.clone(), o.clone()])
                        })
                        .collect(),
                ),
            ),
            (
                "SELECT ?s WHERE { ?s e:q ?m . ?s e:p e:m1 }",
                sorted(
                    qs.iter()
                        .filter(|(s, _)| ps.contains(&(s.clone(), iri("m1").to_string())))
                        .map(|(s, _)| vec![s.clone()])
                        .collect(),
                ),
            ),
            (
                "SELECT ?s ?m WHERE { ?s e:q ?m . ?s e:p ?m }",
                sorted(
                    qs.iter()
                        .filter(|&sm| ps.contains(sm))
                        .map(|(s, m)| vec![s.clone(), m.clone()])
                        .collect(),
                ),
            ),
        ];
        let opts = QueryOptions::default();
        for (body, want) in cases {
            let q = crate::parse_query(&format!("PREFIX e: <http://x/> {body}")).unwrap();
            let plan = ir::compile(&q, &st, &opts, 0);
            let (_, consts) = ir::normalize(&q);
            let mut trace = ir::PlanTrace::default();
            let rs = ir::execute_plan_traced(&st, &plan, &consts, &opts, &mut trace).unwrap();
            assert_eq!(trace.steps[0].src, 0, "{body}: q runs first");
            assert!(
                trace.steps[1].rows_in >= MERGE_JOIN_MIN_ROWS,
                "{body}: the p step must see enough rows to merge"
            );
            assert!(!want.is_empty(), "{body}: vacuous case");
            assert_eq!(answers(&rs), want, "{body}");
        }
    }

    #[test]
    fn select_star() {
        let st = store();
        let rs = run(
            &st,
            "PREFIX e: <http://x/> SELECT * WHERE { ?s e:knows ?o }",
            &QueryOptions::default(),
        );
        assert_eq!(rs.variables, vec!["s", "o"]);
        assert_eq!(rs.len(), 3);
    }
}
