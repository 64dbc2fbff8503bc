//! Pattern matching over the SuccinctEdge store (§5.2).
//!
//! A query runs as a compiled plan (`crate::ir`): a left-deep walk over
//! the TP order chosen at compile time, propagating variable bindings
//! from one TP to the next ("one of our joining approaches amounts to
//! propagate variable assignments from one TP to another"). This module
//! holds the per-pattern step every plan runs, `eval_pattern`. A step
//! whose subject variable, or whose object variable with the subject
//! free, is bound to an instance in every row runs as one **keyed
//! join**: the rows are sorted by that key, and the step either probes
//! the store once per distinct key or scans the predicate once and
//! merges the scan against the sorted subjects (§5.2, Figure 7: PSO
//! order keeps the scan subject-sorted) or buckets it by object. The
//! choice is made per step, by cost, after Selinger et al., "Access path
//! selection in a relational database management system" (SIGMOD 1979):
//! the constants `PROBE_CALL_NS`, `PROBE_HIT_NS` and `SCAN_NS` weigh the
//! distinct keys against the predicate's triple count. Every other step
//! (a group's first, a constant subject, a literal-bound key) runs row
//! by row. [`AccessPath`] names the path a step took.
//!
//! With reasoning enabled, constant concepts and properties evaluate
//! through their LiteMat intervals — no materialization, no UNION
//! rewriting.

use crate::ast::{GroupPattern, Query, TermPattern, TriplePattern};
use crate::error::QueryError;
use crate::expr::{Env, EvalValue};
use crate::ir;
use se_core::source::{
    objects_in, predicate_count_in, scan_in, subjects_by_literal_in, subjects_in,
};
use se_core::{TripleSource, Value};
use se_litemat::IdInterval;
use se_rdf::{Literal, Term};
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
/// computed by BIND.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    Enc(Value),
    /// BIND output only: compile puts every BIND after its group's
    /// pattern steps, so pattern evaluation never reads one.
    Term(Term),
}

/// One row of the intermediate relation; positions follow the group's
/// column layout (see [`group_var_index`]).
pub(crate) type Row = Vec<Option<Slot>>;

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
pub(crate) fn slot_to_term<S: TripleSource + ?Sized>(store: &S, slot: &Slot) -> Term {
    match slot {
        Slot::Enc(v) => store
            .value_to_term(*v)
            .unwrap_or_else(|| Term::literal("<dangling>")),
        Slot::Term(t) => t.clone(),
    }
}

/// The column layout of one group's intermediate relation: TP variables
/// in first-occurrence order, then BIND variables.
pub(crate) fn group_var_index(group: &GroupPattern) -> HashMap<&str, usize> {
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
pub(crate) fn row_env<'a, S: TripleSource + ?Sized>(
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
    /// A literal constant of the query, matched by its text.
    Literal(Literal),
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
            match pattern_slot(&row[col]) {
                Some(val) => Pos::Enc(val),
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
            Term::Literal(lit) => Pos::Literal(lit.clone()),
            other => match store.instance_id(other) {
                Some(id) => Pos::Enc(Value::Instance(id)),
                None => Pos::NoMatch,
            },
        },
        TermPattern::Var(v) => {
            let col = vars[v.as_str()];
            match pattern_slot(&row[col]) {
                Some(val) => Pos::Enc(val),
                None => Pos::Free(col),
            }
        }
    }
}

/// The store value bound at a column a pattern step reads. Only BIND
/// writes `Slot::Term`, and it runs after every pattern step of its group.
fn pattern_slot(slot: &Option<Slot>) -> Option<Value> {
    match slot {
        Some(Slot::Enc(v)) => Some(*v),
        Some(Slot::Term(_)) => unreachable!("BIND runs after its group's pattern steps"),
        None => None,
    }
}

/// Subject position as an instance id, if it denotes one.
fn pos_subject_id(pos: &Pos) -> Option<u64> {
    match pos {
        Pos::Enc(Value::Instance(id)) => Some(*id),
        _ => None,
    }
}

/// How a constant predicate evaluates.
pub(crate) enum PSpec {
    /// One property id.
    Exact(u64),
    /// A LiteMat subproperty interval.
    Interval(IdInterval),
    /// The IRI resolves to nothing: the pattern matches no triple.
    NoMatch,
}

/// Resolves a constant predicate IRI: its LiteMat interval with reasoning
/// on, its exact id with reasoning off.
pub(crate) fn predicate_spec<S: TripleSource + ?Sized>(
    store: &S,
    iri: &str,
    reasoning: bool,
) -> PSpec {
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
pub(crate) fn concept_spec<S: TripleSource + ?Sized>(
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

/// Cost of one `objects` probe call, in ns: measured per predicate on the
/// repo benchmark's LUBM graph (`paper_bgp`, seed 7, a shared 2-core
/// x86-64 machine) at 2.1–2.5 µs for every predicate with at most three
/// objects per subject.
const PROBE_CALL_NS: u128 = 2_200;
/// Cost of each subject a `subjects` probe returns, in ns: the
/// benchmark's `sds.wt_range_search_ns_per_hit` (1,277 on that machine).
const PROBE_HIT_NS: u128 = 1_300;
/// Cost of one `(subject, object)` pair of a predicate scan, in ns: the
/// benchmark's `core.scan_ns_per_row` (372 on that machine).
const SCAN_NS: u128 = 400;

/// The access path a pattern step took, recorded in
/// [`StepTrace`](crate::ir::StepTrace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Row by row: no variable of the pattern is bound to an instance in
    /// every row (a group's first step, a constant subject, a key bound
    /// to a literal, `?s p ?s`, an `rdf:type` pattern).
    PerRow,
    /// Keyed join: one `objects`/`subjects` probe per distinct key.
    Probe,
    /// Keyed join: one scan of the predicate, shared by every key.
    Scan,
}

impl PSpec {
    /// `(s, p, ?o)`.
    fn objects<S: TripleSource + ?Sized>(&self, store: &S, s: u64) -> Vec<Value> {
        match self {
            PSpec::Exact(p) => store.objects(*p, s),
            PSpec::Interval(iv) => objects_in(store, *iv, s),
            PSpec::NoMatch => Vec::new(),
        }
    }

    /// `(?s, p, o)`, ascending and deduplicated.
    fn subjects<S: TripleSource + ?Sized>(&self, store: &S, o: &Value) -> Vec<u64> {
        match self {
            PSpec::Exact(p) => store.subjects(*p, o),
            PSpec::Interval(iv) => subjects_in(store, *iv, o),
            PSpec::NoMatch => Vec::new(),
        }
    }

    /// `(?s, p, ?o)`, sorted by subject.
    fn scan<S: TripleSource + ?Sized>(&self, store: &S) -> Vec<(u64, Value)> {
        match self {
            PSpec::Exact(p) => store.scan_predicate(*p),
            PSpec::Interval(iv) => scan_in(store, *iv),
            PSpec::NoMatch => Vec::new(),
        }
    }

    /// The number of triples a scan returns.
    fn count<S: TripleSource + ?Sized>(&self, store: &S) -> usize {
        match self {
            PSpec::Exact(p) => store.predicate_count(*p),
            PSpec::Interval(iv) => predicate_count_in(store, *iv),
            PSpec::NoMatch => 0,
        }
    }
}

/// Joins one triple pattern against the store, propagating the bindings
/// of `rows`, and reports the access path it took. Every compiled plan's
/// pattern steps run through it. A step whose subject variable is bound
/// to an instance in every row runs as a [`subject_join`]; one whose
/// object variable is, with the subject free, as an [`object_join`];
/// every other step row by row.
pub(crate) fn eval_pattern<S: TripleSource + ?Sized>(
    store: &S,
    tp: &TriplePattern,
    rows: Vec<Row>,
    vars: &HashMap<&str, usize>,
    options: &QueryOptions,
) -> Result<(Vec<Row>, AccessPath), QueryError> {
    let p_iri = constant_predicate(tp)?;
    if tp.is_type_pattern() {
        let out = eval_type_pattern(store, tp, rows, vars, options)?;
        return Ok((out, AccessPath::PerRow));
    }
    let spec = predicate_spec(store, p_iri, options.reasoning);
    if matches!(spec, PSpec::NoMatch) || rows.is_empty() {
        return Ok((Vec::new(), AccessPath::PerRow));
    }
    if let TermPattern::Var(sv) = &tp.subject {
        let s_col = vars[sv.as_str()];
        let test = match &tp.object {
            TermPattern::Var(ov) => ObjectTest::Column(vars[ov.as_str()]),
            TermPattern::Term(Term::Literal(lit)) => ObjectTest::Literal(lit),
            TermPattern::Term(t) => match store.instance_id(t) {
                Some(id) => ObjectTest::Instance(Value::Instance(id)),
                None => return Ok((Vec::new(), AccessPath::PerRow)),
            },
        };
        match test {
            // `?s p ?s` runs row by row.
            ObjectTest::Column(o_col) if o_col == s_col => {}
            _ if all_instances(&rows, s_col) => {
                return Ok(subject_join(store, &spec, rows, s_col, &test));
            }
            ObjectTest::Column(o_col)
                if rows.iter().all(|r| r[s_col].is_none()) && all_instances(&rows, o_col) =>
            {
                return Ok(object_join(store, &spec, rows, o_col, s_col));
            }
            _ => {}
        }
    }
    Ok((
        eval_per_row(store, tp, &spec, rows, vars),
        AccessPath::PerRow,
    ))
}

/// The instance id bound at `col`, if the row binds one there.
fn instance_at(row: &Row, col: usize) -> Option<u64> {
    match row[col] {
        Some(Slot::Enc(Value::Instance(id))) => Some(id),
        _ => None,
    }
}

fn all_instances(rows: &[Row], col: usize) -> bool {
    rows.iter().all(|r| instance_at(r, col).is_some())
}

/// The rows keyed by the instance id at `col` (bound in every row) and
/// sorted by it; rows that share a key keep their order.
fn keyed_rows(rows: Vec<Row>, col: usize) -> Vec<(u64, Row)> {
    let mut keyed: Vec<(u64, Row)> = rows
        .into_iter()
        .filter_map(|r| Some((instance_at(&r, col)?, r)))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    keyed
}

/// What a subject-keyed join keeps of each object of a row's subject.
enum ObjectTest<'a> {
    /// An object variable: each object is bound into the column when the
    /// row leaves it free; a row that binds it is kept once if some
    /// object joins its value.
    Column(usize),
    /// A constant IRI: the row is kept once if it is an object.
    Instance(Value),
    /// A constant literal, matched by its text.
    Literal(&'a Literal),
}

/// Subject-keyed join. The rows are sorted by subject, with `k` distinct
/// subjects, and the predicate holds `n` triples. Probing costs one
/// `objects` call per distinct subject, and scanning costs `n` scanned
/// pairs merged against the sorted rows (§5.2, Figure 7: the PSO layers
/// scan subject-sorted). The step scans when `k · PROBE_CALL_NS >
/// n · SCAN_NS`.
fn subject_join<S: TripleSource + ?Sized>(
    store: &S,
    spec: &PSpec,
    rows: Vec<Row>,
    s_col: usize,
    test: &ObjectTest,
) -> (Vec<Row>, AccessPath) {
    let rows = keyed_rows(rows, s_col);
    let k = rows.chunk_by(|a, b| a.0 == b.0).count() as u128;
    let scan = k * PROBE_CALL_NS > spec.count(store) as u128 * SCAN_NS;
    let path = if scan {
        AccessPath::Scan
    } else {
        AccessPath::Probe
    };
    let pairs = if scan { spec.scan(store) } else { Vec::new() };
    let mut out = Vec::new();
    let mut objects = Vec::new();
    let mut current = None;
    let mut j = 0;
    for (s, row) in rows {
        if current != Some(s) {
            current = Some(s);
            if scan {
                while j < pairs.len() && pairs[j].0 < s {
                    j += 1;
                }
                objects.clear();
                while j < pairs.len() && pairs[j].0 == s {
                    objects.push(pairs[j].1);
                    j += 1;
                }
            } else {
                objects = spec.objects(store, s);
            }
        }
        let keep = match *test {
            ObjectTest::Column(col) => match pattern_slot(&row[col]) {
                None => {
                    for &o in &objects {
                        let mut new_row = row.clone();
                        new_row[col] = Some(Slot::Enc(o));
                        out.push(new_row);
                    }
                    false
                }
                Some(bound) => objects.iter().any(|&o| store.values_join(bound, o)),
            },
            ObjectTest::Instance(v) => objects.contains(&v),
            ObjectTest::Literal(lit) => objects
                .iter()
                .any(|o| matches!(o, Value::Literal(idx) if store.literal(*idx) == Some(lit))),
        };
        if keep {
            out.push(row);
        }
    }
    (out, path)
}

/// Object-keyed join: `(?s, p, ?o)` with `?o` bound to an instance in
/// every row and `?s` free. The rows are sorted by object, with `k`
/// distinct objects. A probe's cost grows with its hits, which no O(1)
/// statistic gives, so the first object is probed, and its answer kept.
/// With `h` its hits and `n` the predicate's triples, the other objects
/// share one scan, bucketed by object, when `(k − 1) · (PROBE_CALL_NS +
/// h · PROBE_HIT_NS) > n · SCAN_NS`, and are probed otherwise.
fn object_join<S: TripleSource + ?Sized>(
    store: &S,
    spec: &PSpec,
    rows: Vec<Row>,
    o_col: usize,
    s_col: usize,
) -> (Vec<Row>, AccessPath) {
    let rows = keyed_rows(rows, o_col);
    let mut keys: Vec<u64> = rows.iter().map(|(o, _)| *o).collect();
    keys.dedup();
    let first = spec.subjects(store, &Value::Instance(keys[0]));
    let rest = keys.len() as u128 - 1;
    let scan = rest > 0
        && rest * (PROBE_CALL_NS + first.len() as u128 * PROBE_HIT_NS)
            > spec.count(store) as u128 * SCAN_NS;
    let path = if scan {
        AccessPath::Scan
    } else {
        AccessPath::Probe
    };
    let mut subjects = vec![first];
    if scan {
        subjects.resize(keys.len(), Vec::new());
        for (s, o) in spec.scan(store) {
            if let Value::Instance(id) = o {
                if let Ok(i) = keys[1..].binary_search(&id) {
                    subjects[i + 1].push(s);
                }
            }
        }
        // The scan is subject-sorted, so every bucket is ascending. An
        // interval scan repeats a pair held under two of its properties,
        // next to each other; `subjects_in` answers it once.
        for bucket in &mut subjects[1..] {
            bucket.dedup();
        }
    } else {
        subjects.extend(
            keys[1..]
                .iter()
                .map(|&o| spec.subjects(store, &Value::Instance(o))),
        );
    }
    let mut out = Vec::new();
    let mut i = 0;
    for (o, row) in rows {
        while keys[i] != o {
            i += 1;
        }
        for &s in &subjects[i] {
            let mut new_row = row.clone();
            new_row[s_col] = Some(Slot::Enc(Value::Instance(s)));
            out.push(new_row);
        }
    }
    (out, path)
}

/// Index nested loop: each row resolves the pattern's positions and
/// probes the store on its own.
fn eval_per_row<S: TripleSource + ?Sized>(
    store: &S,
    tp: &TriplePattern,
    spec: &PSpec,
    rows: Vec<Row>,
    vars: &HashMap<&str, usize>,
) -> Vec<Row> {
    let mut out = Vec::new();
    for row in rows {
        let s_pos = resolve_subject(store, &tp.subject, &row, vars);
        let o_pos = resolve_object(store, &tp.object, &row, vars);
        if matches!(s_pos, Pos::NoMatch) || matches!(o_pos, Pos::NoMatch) {
            continue;
        }
        match (&s_pos, &o_pos) {
            // (s, p, ?o)
            (Pos::Enc(_), Pos::Free(o_col)) => {
                let Some(s_id) = pos_subject_id(&s_pos) else {
                    continue;
                };
                for o in spec.objects(store, s_id) {
                    let mut new_row = row.clone();
                    new_row[*o_col] = Some(Slot::Enc(o));
                    out.push(new_row);
                }
            }
            // (?s, p, o)
            (Pos::Free(s_col), Pos::Enc(_) | Pos::Literal(_)) => {
                let subjects = subjects_for(store, spec, &o_pos);
                for s in subjects {
                    let mut new_row = row.clone();
                    new_row[*s_col] = Some(Slot::Enc(Value::Instance(s)));
                    out.push(new_row);
                }
            }
            // (?s, p, ?o)
            (Pos::Free(s_col), Pos::Free(o_col)) => {
                let same_var = s_col == o_col;
                for (s, o) in spec.scan(store) {
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
            (Pos::Enc(_), Pos::Enc(_) | Pos::Literal(_)) => {
                let Some(s_id) = pos_subject_id(&s_pos) else {
                    continue;
                };
                if check_membership(store, spec, s_id, &o_pos) {
                    out.push(row);
                }
            }
            _ => {}
        }
    }
    out
}

fn subjects_for<S: TripleSource + ?Sized>(store: &S, spec: &PSpec, o_pos: &Pos) -> Vec<u64> {
    match o_pos {
        Pos::Enc(v) => spec.subjects(store, v),
        Pos::Literal(lit) => match spec {
            PSpec::Exact(p) => store.subjects_by_literal(*p, lit),
            PSpec::Interval(iv) => subjects_by_literal_in(store, *iv, lit),
            PSpec::NoMatch => Vec::new(),
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
        Pos::Literal(lit) => spec.objects(store, s_id).iter().any(|o| match o {
            Value::Literal(idx) => store.literal(*idx) == Some(lit),
            _ => false,
        }),
        _ => false,
    }
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
                match pattern_slot(&row[col]) {
                    Some(Value::Concept(c)) => CPos::Interval(IdInterval::point(c)),
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
            (Pos::Enc(_), CPos::Interval(iv)) => {
                let Some(s_id) = pos_subject_id(&s_pos) else {
                    continue;
                };
                if store.has_type_in_interval(s_id, iv) {
                    out.push(row);
                }
            }
            // (s, type, ?c)
            (Pos::Enc(_), CPos::Free(c_col)) => {
                let Some(s_id) = pos_subject_id(&s_pos) else {
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
            // Subjects never resolve to a literal.
            (Pos::NoMatch | Pos::Literal(_), _) | (_, CPos::NoMatch) => {}
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

    /// Runs a query through a compiled plan and returns its answer rows,
    /// sorted, with the plan's trace.
    fn traced(
        st: &SuccinctEdgeStore,
        text: &str,
        opts: &QueryOptions,
    ) -> (Vec<Vec<String>>, ir::PlanTrace) {
        let q = crate::parse_query(text).unwrap();
        let plan = ir::compile(&q, st, opts, 0);
        let (_, consts) = ir::normalize(&q);
        let mut trace = ir::PlanTrace::default();
        let rs = ir::execute_plan_traced(st, &plan, &consts, opts, &mut trace).unwrap();
        let mut rows: Vec<Vec<String>> = rs
            .rows
            .iter()
            .map(|r| r.iter().map(|c| c.as_ref().unwrap().to_string()).collect())
            .collect();
        rows.sort();
        (rows, trace)
    }

    /// A pattern position of [`bgp_text`] and [`nested_loop`]: `?v` is a
    /// variable, `"v"` a plain literal, anything else an IRI under
    /// `http://x/`.
    fn position(t: &str) -> String {
        match t.strip_prefix('"') {
            Some(lit) => Term::literal(lit.trim_end_matches('"')).to_string(),
            None => iri(t).to_string(),
        }
    }

    fn bgp_text(select: &[&str], bgp: &[[&str; 3]]) -> String {
        let tps: Vec<String> = bgp
            .iter()
            .map(|tp| {
                tp.map(|t| match t.starts_with(['?', '"']) {
                    true => t.to_string(),
                    false => format!("e:{t}"),
                })
                .join(" ")
            })
            .collect();
        format!(
            "PREFIX e: <http://x/> SELECT {} WHERE {{ {} }}",
            select.join(" "),
            tps.join(" . ")
        )
    }

    /// The BGP evaluated by a nested loop over `triples`, a set: each
    /// solution extends each earlier one by every matching triple.
    fn nested_loop(
        triples: &[[String; 3]],
        select: &[&str],
        bgp: &[[&str; 3]],
    ) -> Vec<Vec<String>> {
        let mut solutions = vec![HashMap::<&str, String>::new()];
        for tp in bgp {
            let mut next = Vec::new();
            for sol in &solutions {
                for triple in triples {
                    let mut sol = sol.clone();
                    let matches = tp.iter().zip(triple).all(|(&t, value)| {
                        if !t.starts_with('?') {
                            return position(t) == *value;
                        }
                        sol.entry(t).or_insert_with(|| value.clone()) == value
                    });
                    if matches {
                        next.push(sol);
                    }
                }
            }
            solutions = next;
        }
        let mut rows: Vec<Vec<String>> = solutions
            .iter()
            .map(|sol| select.iter().map(|v| sol[v].clone()).collect())
            .collect();
        rows.sort();
        rows
    }

    /// The graph the keyed-join tests run on, with `filler` extra `p` and
    /// `r` triples that tip both joins from a scan to a probe.
    ///
    /// - `q`: every `s{i}` (i < 20) to `hub`, the even ones to `m{i % 3}`
    ///   too, every fourth one to the literal `"v{i}"` too;
    /// - `p`: `s{i}` to `m0`…`m{i % 5 - 1}`, to `"v{i}"` for every fourth
    ///   and to `hub` for every seventh; `filler` `x{j}` to `m0`;
    /// - `q2`: `a{i}` (i < 8) to `t{i % 4}`;
    /// - `r`: 30 subjects per `t{j}` (j < 4); its sub-property `rsub`
    ///   repeats five of them and adds three of its own per `t{j}`;
    ///   `filler` `z{j}` to `w{j}`.
    fn join_graph(filler: usize) -> (SuccinctEdgeStore, Graph) {
        let mut o = Ontology::new();
        o.add_property("http://x/rsub", "http://x/r");
        let mut g = Graph::new();
        let mut t = |s: String, p: &str, o: Term| g.insert(Triple::new(iri(&s), iri(p), o));
        for i in 0..20 {
            let s = format!("s{i}");
            t(s.clone(), "q", iri("hub"));
            if i % 2 == 0 {
                t(s.clone(), "q", iri(&format!("m{}", i % 3)));
            }
            for k in 0..i % 5 {
                t(s.clone(), "p", iri(&format!("m{k}")));
            }
            if i % 4 == 0 {
                t(s.clone(), "q", Term::literal(format!("v{i}")));
                t(s.clone(), "p", Term::literal(format!("v{i}")));
            }
            if i % 7 == 0 {
                t(s, "p", iri("hub"));
            }
        }
        for i in 0..8 {
            t(format!("a{i}"), "q2", iri(&format!("t{}", i % 4)));
        }
        for j in 0..4 {
            let o = iri(&format!("t{j}"));
            for i in 0..30 {
                t(format!("y{j}_{i}"), "r", o.clone());
            }
            for i in 0..5 {
                t(format!("y{j}_{i}"), "rsub", o.clone());
            }
            for i in 0..3 {
                t(format!("u{j}_{i}"), "rsub", o.clone());
            }
        }
        for j in 0..filler {
            t(format!("x{j}"), "p", iri("m0"));
            t(format!("z{j}"), "r", iri(&format!("w{j}")));
        }
        (SuccinctEdgeStore::build(&o, &g).unwrap(), g)
    }

    /// Every keyed-join path — subject- and object-keyed, each probing
    /// and scanning — answers what a nested loop over the graph's
    /// triples answers. The subject-keyed step sees a free object, a
    /// constant IRI, a constant literal and an already-bound object, on
    /// a predicate with both instance and literal objects. The
    /// object-keyed step runs with and without reasoning; with it, `r`
    /// is the interval `r ∪ rsub`, and `rsub` repeats some of `r`'s
    /// triples, which the join must answer once.
    #[test]
    fn keyed_join_paths_equal_nested_loop() {
        use AccessPath::{Probe, Scan};
        let subject_keyed: [(&[&str], &[[&str; 3]]); 4] = [
            (&["?s", "?m", "?o"], &[["?s", "q", "?m"], ["?s", "p", "?o"]]),
            (&["?s"], &[["?s", "q", "hub"], ["?s", "p", "m1"]]),
            (&["?s"], &[["?s", "q", "hub"], ["?s", "p", "\"v4\""]]),
            (&["?s", "?m"], &[["?s", "q", "?m"], ["?s", "p", "?m"]]),
        ];
        let object_keyed: (&[&str], &[[&str; 3]]) = (
            &["?a", "?t", "?s"],
            &[["?a", "q2", "?t"], ["?s", "r", "?t"]],
        );
        for (filler, path) in [(0, Scan), (400, Probe)] {
            let (st, g) = join_graph(filler);
            let triples: Vec<[String; 3]> = g
                .iter()
                .map(|t| [&t.subject, &t.predicate, &t.object].map(|x| x.to_string()))
                .collect();
            // With reasoning, an `rsub` triple is an `r` triple too.
            let mut entailed = triples.clone();
            for [s, p, o] in &triples {
                if *p == iri("rsub").to_string() {
                    entailed.push([s.clone(), iri("r").to_string(), o.clone()]);
                }
            }
            entailed.sort();
            entailed.dedup();
            let runs = subject_keyed
                .iter()
                .map(|&case| (case, &triples, QueryOptions::without_reasoning()))
                .chain([
                    (object_keyed, &triples, QueryOptions::without_reasoning()),
                    (object_keyed, &entailed, QueryOptions::default()),
                ]);
            for ((select, bgp), facts, opts) in runs {
                let text = bgp_text(select, bgp);
                let case = format!("{text}, filler {filler}, {opts:?}");
                let (got, trace) = traced(&st, &text, &opts);
                let want = nested_loop(facts, select, bgp);
                assert!(!want.is_empty(), "{case}: vacuous");
                assert_eq!(got, want, "{case}");
                let src: Vec<usize> = trace.steps.iter().map(|s| s.src).collect();
                assert_eq!(src, [0, 1], "{case}: the keyed step runs second");
                assert_eq!(trace.steps[1].path, path, "{case}");
            }
        }
    }

    /// 16 rows bound on `?s` against a predicate of 10,000 pairs probe
    /// 16 subjects instead of scanning the predicate.
    #[test]
    fn few_subject_keys_probe_a_large_predicate() {
        let mut g = Graph::new();
        for i in 0..16 {
            g.insert(Triple::new(iri(&format!("s{i}")), iri("q"), iri("hub")));
            g.insert(Triple::new(iri(&format!("s{i}")), iri("p"), iri("m")));
        }
        for j in 0..10_000 {
            g.insert(Triple::new(iri(&format!("x{j}")), iri("p"), iri("m")));
        }
        let st = SuccinctEdgeStore::build(&Ontology::new(), &g).unwrap();
        let text = "PREFIX e: <http://x/> SELECT ?s ?o WHERE { ?s e:q e:hub . ?s e:p ?o }";
        let (rows, trace) = traced(&st, text, &QueryOptions::default());
        assert_eq!(rows.len(), 16);
        assert_eq!(trace.steps[1].rows_in, 16);
        assert_eq!(trace.steps[1].path, AccessPath::Probe);
    }

    /// Three object keys that hold most of a predicate's triples share
    /// one scan of it instead of three reverse probes.
    #[test]
    fn object_keys_covering_a_predicate_scan_it() {
        let mut g = Graph::new();
        for j in 0..3 {
            let t = iri(&format!("t{j}"));
            g.insert(Triple::new(iri(&format!("a{j}")), iri("q"), t.clone()));
            for i in 0..200 {
                g.insert(Triple::new(iri(&format!("y{j}_{i}")), iri("r"), t.clone()));
            }
        }
        for j in 0..20 {
            g.insert(Triple::new(iri(&format!("z{j}")), iri("r"), iri("w")));
        }
        let st = SuccinctEdgeStore::build(&Ontology::new(), &g).unwrap();
        let text = "PREFIX e: <http://x/> SELECT ?a ?s WHERE { ?a e:q ?t . ?s e:r ?t }";
        let (rows, trace) = traced(&st, text, &QueryOptions::default());
        assert_eq!(rows.len(), 600);
        assert_eq!(trace.steps[1].rows_in, 3);
        assert_eq!(trace.steps[1].path, AccessPath::Scan);
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
