//! Compiled query IR and the shape-keyed plan cache.
//!
//! Every query runs as a [`CompiledPlan`]: the one-shot
//! [`exec::execute`](crate::exec::execute) compiles and runs a plan
//! uncached, and [`PlanCache`] keeps plans across calls. A serving
//! workload repeats a handful of query *shapes* millions of times with
//! only the constants changing. This module lowers a parsed
//! (and join-ordered) query into a [`CompiledPlan`] — a flat list of
//! [`PlanStep`]s the executor runs directly, without re-walking the AST
//! — and caches plans in a [`PlanCache`] keyed by the query's
//! *normalized shape*: constant subjects and non-`rdf:type` constant
//! objects are hollowed out into numbered slots, while predicates,
//! `rdf:type` concept objects, expressions and the SELECT/DISTINCT/LIMIT
//! clause stay structural (they change the plan, so they key it).
//!
//! Two cache levels serve the two consumers:
//!
//! - **text level** — `(query text, option bits)` maps straight to a
//!   plan plus its extracted constants, so a repeated QUERY frame skips
//!   tokenizing, parsing *and* optimizing entirely;
//! - **shape level** — the normalized shape maps to one shared
//!   [`CompiledPlan`]; queries that differ only in constants bind their
//!   own constants into the same plan.
//!
//! Join order is chosen at compile time by
//! `optimizer::order_patterns_by_cardinality`
//! from the O(1)-ish rank/select statistics the store answers
//! ([`estimate`](crate::optimizer::estimate)). Because estimates
//! drift as the store ingests, each plan records the store epoch it was
//! costed at and is lazily **re-costed** (re-ordered, not re-parsed)
//! once [`PlanCache::set_epoch`] advances past a staleness threshold.
//!
//! Pattern matching itself is delegated to `exec::eval_pattern`, one
//! call per pattern step.

use crate::ast::{Expr, Query, TermPattern, TriplePattern};
use crate::error::QueryError;
use crate::exec::{
    eval_pattern, group_var_index, row_env, slot_to_term, AccessPath, QueryOptions, ResultSet, Row,
    Slot,
};
use crate::expr::eval;
use crate::optimizer::order_patterns_by_cardinality;
use crate::parser::parse_query;
use se_core::TripleSource;
use se_rdf::Term;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One step of a compiled plan. A plan is a flat `Vec<PlanStep>`; the
/// executor walks it once, threading a working row set through pattern /
/// bind / filter steps and an emitted (projected) row set through the
/// tail steps.
#[derive(Debug, Clone)]
pub enum PlanStep {
    /// Start a UNION branch: reset the working set to one all-unbound
    /// row of `n_cols` columns. `vars[i]` names column `i`.
    BeginGroup { n_cols: usize, vars: Vec<String> },
    /// Match one triple pattern — a scan when nothing is bound yet, a
    /// keyed join (probe or scan, chosen by cost) or a per-row
    /// extension afterwards. `tp` is a
    /// template: when `s_slot`/`o_slot` is set, that position is
    /// replaced by the caller's constant before matching (the hollowed
    /// slots of the normalized shape). Predicates and `rdf:type`
    /// concepts stay in the template and resolve to their LiteMat
    /// interval / exact id (`PSpec`) against the store at run time, so
    /// one cached plan serves every store generation. `src` is the
    /// pattern's textual index (introspection).
    Pattern {
        tp: TriplePattern,
        s_slot: Option<usize>,
        o_slot: Option<usize>,
        src: usize,
    },
    /// `BIND(expr AS ?v)` into column `col` of every working row.
    Bind { col: usize, expr: Expr },
    /// `FILTER(expr)`: retain the working rows where it is truthy.
    Filter { expr: Expr },
    /// Project the working rows onto the output variables and append
    /// them to the emitted set; `cols[i]` is the source column of output
    /// variable `i` (None: not bound by this branch).
    Project { cols: Vec<Option<usize>> },
    /// `SELECT DISTINCT`: drop duplicate emitted rows.
    Distinct,
    /// `LIMIT n`: truncate the emitted rows.
    Limit { n: usize },
}

/// A query compiled to a flat step list, shareable across every query of
/// the same shape (wrap in an `Arc`; all methods take `&self`).
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    shape: String,
    /// The source AST (first query compiled for this shape) — kept so a
    /// re-cost can re-order without re-parsing. Constants in it are
    /// irrelevant: hollowed positions are overwritten at bind time and
    /// cardinality estimates never look at them.
    query: Query,
    steps: Vec<PlanStep>,
    n_slots: usize,
    out_vars: Vec<String>,
    /// Per group: the textual pattern indices in execution order.
    orders: Vec<Vec<usize>>,
    compile_epoch: u64,
}

impl CompiledPlan {
    /// The normalized shape this plan was compiled from.
    pub fn shape(&self) -> &str {
        &self.shape
    }

    /// The flat step list.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Number of constant slots a caller must bind.
    pub fn n_constants(&self) -> usize {
        self.n_slots
    }

    /// The store epoch the join order was costed at.
    pub fn compile_epoch(&self) -> u64 {
        self.compile_epoch
    }

    /// Execution order of group `group`'s patterns, as textual indices —
    /// the introspection hook the ordering regression tests assert on.
    pub fn pattern_order(&self, group: usize) -> Option<&[usize]> {
        self.orders.get(group).map(Vec::as_slice)
    }
}

/// Per-pattern-step execution record (see [`PlanTrace`]).
#[derive(Debug, Clone)]
pub struct StepTrace {
    /// Textual index of the pattern within its group.
    pub src: usize,
    /// The bound pattern that was matched.
    pub pattern: String,
    /// Working rows fed into the step.
    pub rows_in: usize,
    /// Working rows after the step.
    pub rows_out: usize,
    /// How the step reached the store.
    pub path: AccessPath,
}

/// Execution trace of one compiled run: one entry per executed pattern
/// step, in execution order. `steps_examined` totals the intermediate
/// rows fed through joins — the machine-independent "did the narrow
/// interval run first" signal the ordering tests assert on.
#[derive(Debug, Clone, Default)]
pub struct PlanTrace {
    /// One record per executed pattern step.
    pub steps: Vec<StepTrace>,
}

impl PlanTrace {
    /// Total intermediate rows examined across all pattern steps.
    pub fn steps_examined(&self) -> usize {
        self.steps.iter().map(|s| s.rows_in).sum()
    }
}

/// Whether a pattern position is hollowed into a constant slot.
/// Subjects: every constant. Objects: constants except on `rdf:type`
/// patterns, whose concept drives the plan (its interval width is the
/// cardinality estimate) and therefore stays structural.
fn hollow_slots(tp: &TriplePattern) -> (bool, bool) {
    let s = matches!(tp.subject, TermPattern::Term(_));
    let o = !tp.is_type_pattern() && matches!(tp.object, TermPattern::Term(_));
    (s, o)
}

/// Computes a query's normalized shape string and extracts its hollowed
/// constants, in slot order (groups, then patterns textually, subject
/// before object). Two queries with equal shapes bind into the same
/// cached plan.
pub fn normalize(query: &Query) -> (String, Vec<Term>) {
    let mut shape = String::new();
    let mut consts = Vec::new();
    let _ = write!(
        shape,
        "select={:?} distinct={} limit={:?}",
        query.select, query.distinct, query.limit
    );
    for group in &query.groups {
        shape.push_str("|G");
        for tp in &group.patterns {
            let (hs, ho) = hollow_slots(tp);
            shape.push('{');
            if hs {
                let _ = write!(shape, "\u{a7}{}", consts.len());
                if let TermPattern::Term(t) = &tp.subject {
                    consts.push(t.clone());
                }
            } else {
                let _ = write!(shape, "{}", tp.subject);
            }
            let _ = write!(shape, " {} ", tp.predicate);
            if ho {
                let _ = write!(shape, "\u{a7}{}", consts.len());
                if let TermPattern::Term(t) = &tp.object {
                    consts.push(t.clone());
                }
            } else {
                let _ = write!(shape, "{}", tp.object);
            }
            shape.push('}');
        }
        for b in &group.binds {
            let _ = write!(shape, "B[?{}={:?}]", b.var, b.expr);
        }
        for f in &group.filters {
            let _ = write!(shape, "F[{f:?}]");
        }
    }
    (shape, consts)
}

/// Compiles a parsed query into a flat plan: join order from the store's
/// cardinality statistics, constants hollowed into slots, epoch recorded
/// for lazy re-costing.
pub fn compile<S: TripleSource + ?Sized>(
    query: &Query,
    store: &S,
    options: &QueryOptions,
    epoch: u64,
) -> CompiledPlan {
    let (shape, _) = normalize(query);
    let out_vars = query.output_variables();
    let mut steps = Vec::new();
    let mut orders = Vec::new();
    let mut n_slots = 0usize;
    for group in &query.groups {
        // Slot numbering must mirror `normalize`: textual order, subject
        // before object.
        let mut s_slots = vec![None; group.patterns.len()];
        let mut o_slots = vec![None; group.patterns.len()];
        for (ti, tp) in group.patterns.iter().enumerate() {
            let (hs, ho) = hollow_slots(tp);
            if hs {
                s_slots[ti] = Some(n_slots);
                n_slots += 1;
            }
            if ho {
                o_slots[ti] = Some(n_slots);
                n_slots += 1;
            }
        }
        let var_index = group_var_index(group);
        let n_cols = var_index.len();
        let mut vars = vec![String::new(); n_cols];
        for (name, &i) in &var_index {
            vars[i] = (*name).to_string();
        }
        let order = order_patterns_by_cardinality(&group.patterns, store, options.reasoning);
        steps.push(PlanStep::BeginGroup { n_cols, vars });
        for &ti in &order {
            steps.push(PlanStep::Pattern {
                tp: group.patterns[ti].clone(),
                s_slot: s_slots[ti],
                o_slot: o_slots[ti],
                src: ti,
            });
        }
        orders.push(order);
        for b in &group.binds {
            steps.push(PlanStep::Bind {
                col: var_index[b.var.as_str()],
                expr: b.expr.clone(),
            });
        }
        for f in &group.filters {
            steps.push(PlanStep::Filter { expr: f.clone() });
        }
        steps.push(PlanStep::Project {
            cols: out_vars
                .iter()
                .map(|v| var_index.get(v.as_str()).copied())
                .collect(),
        });
    }
    if query.distinct {
        steps.push(PlanStep::Distinct);
    }
    if let Some(n) = query.limit {
        steps.push(PlanStep::Limit { n });
    }
    CompiledPlan {
        shape,
        query: query.clone(),
        steps,
        n_slots,
        out_vars,
        orders,
        compile_epoch: epoch,
    }
}

/// Runs a compiled plan with `consts` bound into its hollowed slots.
pub fn execute_plan<S: TripleSource + ?Sized>(
    store: &S,
    plan: &CompiledPlan,
    consts: &[Term],
    options: &QueryOptions,
) -> Result<ResultSet, QueryError> {
    execute_plan_inner(store, plan, consts, options, None)
}

/// [`execute_plan`], recording a per-step [`PlanTrace`].
pub fn execute_plan_traced<S: TripleSource + ?Sized>(
    store: &S,
    plan: &CompiledPlan,
    consts: &[Term],
    options: &QueryOptions,
    trace: &mut PlanTrace,
) -> Result<ResultSet, QueryError> {
    execute_plan_inner(store, plan, consts, options, Some(trace))
}

fn execute_plan_inner<S: TripleSource + ?Sized>(
    store: &S,
    plan: &CompiledPlan,
    consts: &[Term],
    options: &QueryOptions,
    mut trace: Option<&mut PlanTrace>,
) -> Result<ResultSet, QueryError> {
    if consts.len() != plan.n_slots {
        return Err(QueryError::Unsupported(format!(
            "plan expects {} bound constants, got {}",
            plan.n_slots,
            consts.len()
        )));
    }
    let mut emitted: Vec<Vec<Option<Term>>> = Vec::new();
    let mut work: Vec<Row> = Vec::new();
    let mut vars_map: HashMap<&str, usize> = HashMap::new();
    for step in &plan.steps {
        match step {
            PlanStep::BeginGroup { n_cols, vars } => {
                work = vec![vec![None; *n_cols]];
                vars_map = vars
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (v.as_str(), i))
                    .collect();
            }
            PlanStep::Pattern {
                tp,
                s_slot,
                o_slot,
                src,
            } => {
                // An empty working set stays empty: skip the rest of the
                // group (in particular, a later unsupported pattern is
                // then never reached).
                if work.is_empty() {
                    continue;
                }
                let bound;
                let tp_ref = if s_slot.is_some() || o_slot.is_some() {
                    let mut t = tp.clone();
                    if let Some(k) = s_slot {
                        t.subject = TermPattern::Term(consts[*k].clone());
                    }
                    if let Some(k) = o_slot {
                        t.object = TermPattern::Term(consts[*k].clone());
                    }
                    bound = t;
                    &bound
                } else {
                    tp
                };
                let rows_in = work.len();
                let (out, path) =
                    eval_pattern(store, tp_ref, std::mem::take(&mut work), &vars_map, options)?;
                work = out;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.steps.push(StepTrace {
                        src: *src,
                        pattern: tp_ref.to_string(),
                        rows_in,
                        rows_out: work.len(),
                        path,
                    });
                }
            }
            PlanStep::Bind { col, expr } => {
                for row in &mut work {
                    let env = row_env(store, row, &vars_map);
                    if let Ok(v) = eval(expr, &env) {
                        row[*col] = Some(Slot::Term(v.into_term()));
                    }
                }
            }
            PlanStep::Filter { expr } => {
                work.retain(|row| {
                    let env = row_env(store, row, &vars_map);
                    eval(expr, &env).and_then(|v| v.truthy()).unwrap_or(false)
                });
            }
            PlanStep::Project { cols } => {
                for row in work.drain(..) {
                    emitted.push(
                        cols.iter()
                            .map(|c| {
                                c.and_then(|i| row[i].as_ref())
                                    .map(|slot| slot_to_term(store, slot))
                            })
                            .collect(),
                    );
                }
            }
            PlanStep::Distinct => {
                let mut seen = HashSet::with_capacity(emitted.len());
                let keep: Vec<bool> = emitted.iter().map(|r| seen.insert(r)).collect();
                let mut keep = keep.into_iter();
                emitted.retain(|_| keep.next().unwrap_or(false));
            }
            PlanStep::Limit { n } => emitted.truncate(*n),
        }
    }
    Ok(ResultSet {
        variables: plan.out_vars.clone(),
        rows: emitted,
    })
}

// ---------------------------------------------------------------- cache

/// Sizing and staleness policy of a [`PlanCache`].
#[derive(Debug, Clone)]
pub struct PlanCacheConfig {
    /// Maximum cached plans (shape level); least-recently-used beyond.
    pub max_plans: usize,
    /// Maximum cached text entries; least-recently-used beyond.
    pub max_texts: usize,
    /// A plan whose compile epoch lags [`PlanCache::set_epoch`] by more
    /// than this many epochs is re-costed (re-ordered from fresh
    /// cardinality estimates) on its next use.
    pub recost_epochs: u64,
}

impl Default for PlanCacheConfig {
    fn default() -> Self {
        Self {
            max_plans: 256,
            max_texts: 1024,
            recost_epochs: 64,
        }
    }
}

/// Counters of a [`PlanCache`], cumulative since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Executions that reused a cached plan with zero parsing.
    pub hits: u64,
    /// Executions that had to parse (text level) or had no cached plan.
    pub misses: u64,
    /// Fresh plan compilations (excludes re-costs).
    pub compiles: u64,
    /// Entries dropped by the LRU caps (plans and texts combined).
    pub evictions: u64,
    /// Stale plans re-ordered after the epoch advanced past the
    /// staleness threshold.
    pub recosts: u64,
}

struct PlanEntry {
    plan: Arc<CompiledPlan>,
    last_used: u64,
}

struct TextEntry {
    plan: Arc<CompiledPlan>,
    consts: Arc<Vec<Term>>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    /// option bits → normalized shape → shared plan.
    plans: HashMap<u8, HashMap<String, PlanEntry>>,
    /// option bits → query text → plan + pre-extracted constants.
    texts: HashMap<u8, HashMap<String, TextEntry>>,
    tick: u64,
}

impl Inner {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

fn options_bits(options: &QueryOptions) -> u8 {
    u8::from(options.reasoning)
}

fn evict_lru<V>(buckets: &mut HashMap<u8, HashMap<String, V>>, last_used: impl Fn(&V) -> u64) {
    let last_used = &last_used;
    let victim = buckets
        .iter()
        .flat_map(|(&bits, m)| m.iter().map(move |(k, v)| (last_used(v), bits, k.clone())))
        .min();
    if let Some((_, bits, key)) = victim {
        if let Some(m) = buckets.get_mut(&bits) {
            m.remove(&key);
        }
    }
}

/// A concurrent, shape-keyed compiled-plan cache (see the module docs
/// for the two key levels and the hollowing rules). Cheap to share:
/// wrap in an `Arc` and clone across threads; all methods take `&self`.
#[derive(Default)]
pub struct PlanCache {
    config: PlanCacheConfig,
    inner: Mutex<Inner>,
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    evictions: AtomicU64,
    recosts: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl PlanCache {
    /// A cache with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache with explicit sizing/staleness policy.
    pub fn with_config(config: PlanCacheConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Publishes the store's current epoch (applied batches). Plans
    /// whose compile epoch lags by more than
    /// [`PlanCacheConfig::recost_epochs`] re-cost on their next use.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            recosts: self.recosts.load(Ordering::Relaxed),
        }
    }

    /// Executes `text`: on a text-level hit the stored plan and
    /// constants run directly — no tokenizing, no parsing, no
    /// optimizing. On a miss the text is parsed once, bound into the
    /// shape-level plan (compiling it if this shape is new), and the
    /// text entry is installed for next time.
    pub fn execute_text<S: TripleSource + ?Sized>(
        &self,
        store: &S,
        text: &str,
        options: &QueryOptions,
    ) -> Result<ResultSet, QueryError> {
        let bits = options_bits(options);
        let cached = {
            let mut inner = self.inner.lock().unwrap();
            let tick = inner.touch();
            inner
                .texts
                .get_mut(&bits)
                .and_then(|m| m.get_mut(text))
                .map(|e| {
                    e.last_used = tick;
                    (e.plan.clone(), e.consts.clone())
                })
        };
        if let Some((plan, consts)) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let plan = self.recost_if_stale(store, plan, options, bits, Some(text));
            return execute_plan(store, &plan, &consts, options);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let query = parse_query(text)?;
        let (plan, consts, _) = self.plan_for(store, &query, options, bits);
        let consts = Arc::new(consts);
        {
            let mut inner = self.inner.lock().unwrap();
            let tick = inner.touch();
            inner.texts.entry(bits).or_default().insert(
                text.to_string(),
                TextEntry {
                    plan: plan.clone(),
                    consts: consts.clone(),
                    last_used: tick,
                },
            );
            self.enforce_caps(&mut inner);
        }
        execute_plan(store, &plan, &consts, options)
    }

    /// Executes an already-parsed query through the shape-level cache —
    /// the registry path, where continuous queries hold their AST and
    /// structurally identical queries should share one seeded plan.
    pub fn execute_ast<S: TripleSource + ?Sized>(
        &self,
        store: &S,
        query: &Query,
        options: &QueryOptions,
    ) -> Result<ResultSet, QueryError> {
        let (plan, consts, hit) = self.plan_for(store, query, options, options_bits(options));
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        execute_plan(store, &plan, &consts, options)
    }

    /// Shape-level lookup-or-compile: the plan, the query's constants,
    /// and whether the plan came from the cache.
    fn plan_for<S: TripleSource + ?Sized>(
        &self,
        store: &S,
        query: &Query,
        options: &QueryOptions,
        bits: u8,
    ) -> (Arc<CompiledPlan>, Vec<Term>, bool) {
        let (shape, consts) = normalize(query);
        let cached = {
            let mut inner = self.inner.lock().unwrap();
            let tick = inner.touch();
            inner
                .plans
                .get_mut(&bits)
                .and_then(|m| m.get_mut(&shape))
                .map(|e| {
                    e.last_used = tick;
                    e.plan.clone()
                })
        };
        match cached {
            Some(plan) => (
                self.recost_if_stale(store, plan, options, bits, None),
                consts,
                true,
            ),
            None => (
                self.compile_and_insert(store, query, options, bits),
                consts,
                false,
            ),
        }
    }

    fn compile_and_insert<S: TripleSource + ?Sized>(
        &self,
        store: &S,
        query: &Query,
        options: &QueryOptions,
        bits: u8,
    ) -> Arc<CompiledPlan> {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let epoch = self.epoch.load(Ordering::Relaxed);
        let plan = Arc::new(compile(query, store, options, epoch));
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.touch();
        inner.plans.entry(bits).or_default().insert(
            plan.shape().to_string(),
            PlanEntry {
                plan: plan.clone(),
                last_used: tick,
            },
        );
        self.enforce_caps(&mut inner);
        plan
    }

    /// Re-orders a stale plan from fresh cardinality estimates and
    /// republishes it at both cache levels. The AST is retained in the
    /// plan, so a re-cost never re-parses.
    fn recost_if_stale<S: TripleSource + ?Sized>(
        &self,
        store: &S,
        plan: Arc<CompiledPlan>,
        options: &QueryOptions,
        bits: u8,
        text: Option<&str>,
    ) -> Arc<CompiledPlan> {
        let epoch = self.epoch.load(Ordering::Relaxed);
        if epoch.saturating_sub(plan.compile_epoch) <= self.config.recost_epochs {
            return plan;
        }
        self.recosts.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(compile(&plan.query, store, options, epoch));
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.touch();
        if let Some(e) = inner
            .plans
            .get_mut(&bits)
            .and_then(|m| m.get_mut(fresh.shape()))
        {
            e.plan = fresh.clone();
            e.last_used = tick;
        }
        if let Some(text) = text {
            if let Some(e) = inner.texts.get_mut(&bits).and_then(|m| m.get_mut(text)) {
                e.plan = fresh.clone();
                e.last_used = tick;
            }
        }
        fresh
    }

    fn enforce_caps(&self, inner: &mut Inner) {
        let count = |m: &HashMap<u8, HashMap<String, PlanEntry>>| {
            m.values().map(HashMap::len).sum::<usize>()
        };
        while count(&inner.plans) > self.config.max_plans {
            evict_lru(&mut inner.plans, |e: &PlanEntry| e.last_used);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        while inner.texts.values().map(HashMap::len).sum::<usize>() > self.config.max_texts {
            evict_lru(&mut inner.texts, |e: &TextEntry| e.last_used);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use se_core::SuccinctEdgeStore;
    use se_ontology::Ontology;
    use se_rdf::{Graph, Literal, Triple};

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

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

    fn norm(rs: &ResultSet) -> Vec<String> {
        let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    }

    #[test]
    fn same_shape_different_constants_share_one_plan() {
        let st = store();
        let cache = PlanCache::new();
        let opts = QueryOptions::default();
        let qa = "PREFIX e: <http://x/> SELECT ?o WHERE { e:alice e:knows ?o }";
        let qb = "PREFIX e: <http://x/> SELECT ?o WHERE { e:bob e:knows ?o }";
        let ra = cache.execute_text(&st, qa, &opts).unwrap();
        let rb = cache.execute_text(&st, qb, &opts).unwrap();
        assert_eq!(
            norm(&ra),
            norm(&execute(&st, &parse_query(qa).unwrap(), &opts).unwrap())
        );
        assert_eq!(
            norm(&rb),
            norm(&execute(&st, &parse_query(qb).unwrap(), &opts).unwrap())
        );
        assert_ne!(norm(&ra), norm(&rb), "constants must stay per-query");
        let s = cache.stats();
        assert_eq!(s.compiles, 1, "one shape, one compile");
        assert_eq!(s.misses, 2, "both texts were cold");
        // Replays hit the text level: no parsing at all.
        cache.execute_text(&st, qa, &opts).unwrap();
        cache.execute_text(&st, qb, &opts).unwrap();
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.compiles, 1);
    }

    #[test]
    fn normalization_keeps_structure_structural() {
        let q1 = parse_query(
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s a e:Person . ?s e:knows e:alice }",
        )
        .unwrap();
        let q2 = parse_query(
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s a e:Person . ?s e:knows e:bob }",
        )
        .unwrap();
        let q3 = parse_query(
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s a e:Employee . ?s e:knows e:bob }",
        )
        .unwrap();
        let (s1, c1) = normalize(&q1);
        let (s2, c2) = normalize(&q2);
        let (s3, _) = normalize(&q3);
        assert_eq!(s1, s2, "instance constants hollow out");
        assert_ne!(c1, c2);
        assert_ne!(s1, s3, "rdf:type concepts stay structural");
    }

    /// The text and AST cache paths bind constants into shared plans;
    /// both must answer exactly what a one-shot uncached run answers.
    #[test]
    fn cached_paths_agree_with_uncached_on_binds_filters_union() {
        let st = store();
        let cache = PlanCache::new();
        for opts in [QueryOptions::default(), QueryOptions::without_reasoning()] {
            for q in [
                "PREFIX e: <http://x/> SELECT ?s ?half WHERE { ?s e:age ?a . BIND(?a / 2 AS ?half) FILTER(?half > 20) }",
                "PREFIX e: <http://x/> SELECT ?s WHERE { ?s a e:Manager } UNION { ?s a e:Org }",
                "PREFIX e: <http://x/> SELECT DISTINCT ?o WHERE { ?s e:memberOf ?o }",
                r#"PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:name "Bob" }"#,
                "PREFIX e: <http://x/> SELECT * WHERE { ?s e:knows ?o }",
            ] {
                let parsed = parse_query(q).unwrap();
                let want = execute(&st, &parsed, &opts).unwrap();
                let got = cache.execute_text(&st, q, &opts).unwrap();
                assert_eq!(norm(&got), norm(&want), "query {q} diverged");
                assert_eq!(got.variables, want.variables);
                let got_ast = cache.execute_ast(&st, &parsed, &opts).unwrap();
                assert_eq!(norm(&got_ast), norm(&want), "AST path diverged on {q}");
            }
        }
    }

    #[test]
    fn trace_reports_execution_order_and_rows() {
        let st = store();
        let q = parse_query(
            "PREFIX e: <http://x/> SELECT ?s ?o WHERE { ?s a e:Employee . ?s e:knows ?o }",
        )
        .unwrap();
        let opts = QueryOptions::default();
        let plan = compile(&q, &st, &opts, 0);
        let (_, consts) = normalize(&q);
        let mut trace = PlanTrace::default();
        let rs = execute_plan_traced(&st, &plan, &consts, &opts, &mut trace).unwrap();
        assert!(!rs.is_empty());
        assert_eq!(trace.steps.len(), 2);
        assert!(trace.steps_examined() >= 2);
        let order = plan.pattern_order(0).unwrap().to_vec();
        let traced: Vec<usize> = trace.steps.iter().map(|s| s.src).collect();
        assert_eq!(order, traced);
    }

    #[test]
    fn epoch_advance_triggers_recost() {
        let st = store();
        let cache = PlanCache::with_config(PlanCacheConfig {
            recost_epochs: 4,
            ..PlanCacheConfig::default()
        });
        let opts = QueryOptions::default();
        let q = "PREFIX e: <http://x/> SELECT ?o WHERE { e:alice e:knows ?o }";
        let first = cache.execute_text(&st, q, &opts).unwrap();
        assert_eq!(cache.stats().recosts, 0);
        cache.set_epoch(100);
        let again = cache.execute_text(&st, q, &opts).unwrap();
        assert_eq!(norm(&first), norm(&again));
        let s = cache.stats();
        assert_eq!(s.recosts, 1, "stale plan re-costs once");
        // The republished plan is fresh: the next use does not re-cost.
        cache.execute_text(&st, q, &opts).unwrap();
        assert_eq!(cache.stats().recosts, 1);
    }

    #[test]
    fn lru_eviction_is_counted_and_bounded() {
        let st = store();
        let cache = PlanCache::with_config(PlanCacheConfig {
            max_plans: 2,
            max_texts: 2,
            ..PlanCacheConfig::default()
        });
        let opts = QueryOptions::default();
        for p in ["knows", "age", "name", "memberOf"] {
            let q = format!("PREFIX e: <http://x/> SELECT ?s ?o WHERE {{ ?s e:{p} ?o }}");
            cache.execute_text(&st, &q, &opts).unwrap();
        }
        let s = cache.stats();
        assert!(s.evictions >= 4, "two caps of 2 under 4 shapes evict");
        assert_eq!(s.compiles, 4);
        // Evicted entries fall back to the miss path, still correct.
        let q = "PREFIX e: <http://x/> SELECT ?s ?o WHERE { ?s e:knows ?o }";
        let rs = cache.execute_text(&st, q, &opts).unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn constant_arity_mismatch_is_an_error() {
        let st = store();
        let q =
            parse_query("PREFIX e: <http://x/> SELECT ?o WHERE { e:alice e:knows ?o }").unwrap();
        let plan = compile(&q, &st, &QueryOptions::default(), 0);
        assert_eq!(plan.n_constants(), 1);
        let err = execute_plan(&st, &plan, &[], &QueryOptions::default()).unwrap_err();
        assert!(matches!(err, QueryError::Unsupported(_)));
    }
}
