//! Continuous queries: parsed SPARQL queries registered once and
//! kept answered against the live store after every ingested batch —
//! the paper's execution model ("these queries are executed once per
//! graph instance", §1) without rebuilding the store per instance.
//! After every batch each registered query re-runs its cached plan
//! (the registry's [`PlanCache`]) over the post-batch view, and its
//! answers are diffed against the previous ones, so each result carries
//! the rows that entered and left the answer set as well as the set
//! itself.
//!
//! [`StreamSession`] is generic over any ingestible [`TripleSource`]
//! (the [`StreamStore`] seam); [`ShardedHybridStore`] — at any shard
//! count — is the store that implements it. With more than one
//! registered query (and more than one core) the session evaluates them
//! concurrently over the shared view, one scoped thread per query.

use crate::error::StreamError;
use crate::shard::{IngestReport, ShardedHybridStore};
use crate::wal::{WalHealth, WalRecord};
use se_core::TripleSource;
use se_rdf::{Graph, Term};
use se_sparql::ast::Query;
use se_sparql::error::QueryError;
use se_sparql::exec::constant_predicate;
use se_sparql::{parse_query, PlanCache, QueryOptions, ResultSet};
use std::collections::HashMap;
use std::sync::Arc;

/// An updatable [`TripleSource`]: the seam [`StreamSession`] drives.
pub trait StreamStore: TripleSource {
    /// Applies one batch (deletions first, then insertions), returning
    /// the ingest accounting.
    fn apply_batch(
        &mut self,
        inserts: &Graph,
        deletes: &Graph,
    ) -> Result<IngestReport, StreamError>;

    /// The store's current epoch: the count of successfully applied
    /// batches (plus any epoch alignment — see
    /// [`StreamStore::align_epoch`]). Replication and the plan cache's
    /// staleness clock both key off this.
    fn epoch(&self) -> u64;

    /// Forces the store's epoch to `epoch` without applying anything —
    /// the replication bootstrap: a follower that just rebuilt its state
    /// from a leader snapshot aligns to the leader's epoch so subsequent
    /// WAL records replay under the consecutive-epoch invariant. Not for
    /// general use; misaligning a store with an attached WAL corrupts
    /// its log's epoch sequence.
    fn align_epoch(&mut self, epoch: u64);

    /// Operator-visible WAL durability state.
    fn wal_health(&self) -> WalHealth;
}

impl StreamStore for ShardedHybridStore {
    fn apply_batch(
        &mut self,
        inserts: &Graph,
        deletes: &Graph,
    ) -> Result<IngestReport, StreamError> {
        self.apply(inserts, deletes)
    }

    fn epoch(&self) -> u64 {
        ShardedHybridStore::epoch(self)
    }

    fn align_epoch(&mut self, epoch: u64) {
        ShardedHybridStore::align_epoch(self, epoch);
    }

    fn wal_health(&self) -> WalHealth {
        ShardedHybridStore::wal_health(self)
    }
}

/// A projected answer row: one optional binding per output variable.
type OutRow = Vec<Option<Term>>;

/// A query's last answers as a multiset (row → count), kept so the next
/// evaluation can report what changed.
#[derive(Debug, Clone, Default)]
struct MaterializedState {
    counts: HashMap<OutRow, usize>,
    seeded: bool,
}

impl MaterializedState {
    /// Replaces the multiset with `rows` and returns the bag difference
    /// `(added, removed)`: a row appears as often as its count rose or
    /// fell. The plan's own DISTINCT step has already deduplicated a
    /// DISTINCT query's rows, so a bag diff is right for every query.
    fn replace(&mut self, rows: &[OutRow]) -> (Vec<OutRow>, Vec<OutRow>) {
        let mut counts: HashMap<OutRow, usize> = HashMap::with_capacity(rows.len());
        for row in rows {
            *counts.entry(row.clone()).or_insert(0) += 1;
        }
        let mut added = Vec::new();
        for (row, &n) in &counts {
            let old = self.counts.get(row).copied().unwrap_or(0);
            added.extend(std::iter::repeat_n(row, n.saturating_sub(old)).cloned());
        }
        let mut removed = Vec::new();
        for (row, &old) in &self.counts {
            let n = counts.get(row).copied().unwrap_or(0);
            removed.extend(std::iter::repeat_n(row, old.saturating_sub(n)).cloned());
        }
        self.counts = counts;
        self.seeded = true;
        (added, removed)
    }
}

/// One registered continuous query, with its last answers.
#[derive(Debug, Clone)]
pub struct ContinuousQuery {
    /// Caller-chosen identifier (reported with every result).
    pub id: String,
    /// The original SPARQL text — retained so a session checkpoint
    /// ([`StreamSession::save`](crate::persist)) can re-register the
    /// query verbatim after a restart.
    pub text: String,
    /// The parsed query (parsed once at registration).
    pub query: Query,
    /// Execution options (reasoning on/off).
    pub options: QueryOptions,
    /// The answers of the last evaluation (seeded by the first).
    state: MaterializedState,
}

impl ContinuousQuery {
    /// `true` once the query has been evaluated, so the next evaluation
    /// reports changes against its answers.
    pub fn is_seeded(&self) -> bool {
        self.state.seeded
    }

    /// Runs the query's cached plan over `store` and diffs the answers
    /// against the previous evaluation's.
    fn evaluate<S: TripleSource + ?Sized>(
        &mut self,
        store: &S,
        cache: &PlanCache,
    ) -> Result<ContinuousResult, QueryError> {
        let results = cache.execute_ast(store, &self.query, &self.options)?;
        let (added, removed) = self.state.replace(&results.rows);
        let changes = |rows| ResultSet {
            variables: results.variables.clone(),
            rows,
        };
        Ok(ContinuousResult {
            id: self.id.clone(),
            added: changes(added),
            removed: changes(removed),
            results,
        })
    }
}

/// The answer of one continuous query after a batch: the full set, plus
/// the changes since the query's previous evaluation.
#[derive(Debug, Clone)]
pub struct ContinuousResult {
    /// The query's registration id.
    pub id: String,
    /// Its full answer set over the post-batch view.
    pub results: ResultSet,
    /// Rows that entered the answer set this batch. On the query's
    /// first (seeding) evaluation this is the entire answer set.
    pub added: ResultSet,
    /// Rows that left the answer set this batch.
    pub removed: ResultSet,
}

impl ContinuousResult {
    /// `true` if the batch left this query's answers untouched.
    pub fn unchanged(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// How a registry evaluation round distributes its queries.
enum EvalMode {
    /// One after another on the calling thread.
    Sequential,
    /// One scoped thread per query (sequential with one query or one
    /// core).
    Scoped,
}

/// Holds parsed continuous queries and their last answers, and
/// evaluates them on demand.
#[derive(Debug, Clone, Default)]
pub struct ContinuousQueryRegistry {
    queries: Vec<ContinuousQuery>,
    /// Compiled-plan cache every evaluation runs through, so a query
    /// compiles once and each batch binds into the cached plan. A fresh
    /// cache by default; the server and replica share theirs with their
    /// QUERY path.
    plan_cache: Arc<PlanCache>,
}

impl ContinuousQueryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses and registers a query under `id`. A query outside the
    /// target fragment (a variable predicate) is refused here, with the
    /// error its evaluation would raise, rather than accepted to fail
    /// every later batch. Re-registering an id replaces the previous
    /// query and drops its answers; the next evaluation seeds afresh
    /// from the store (mid-stream registrations therefore pick up all
    /// pre-existing state).
    pub fn register(
        &mut self,
        id: impl Into<String>,
        text: &str,
        options: QueryOptions,
    ) -> Result<(), QueryError> {
        let id = id.into();
        let query = parse_query(text)?;
        for tp in query.groups.iter().flat_map(|g| &g.patterns) {
            constant_predicate(tp)?;
        }
        self.queries.retain(|q| q.id != id);
        self.queries.push(ContinuousQuery {
            id,
            text: text.to_string(),
            query,
            options,
            state: MaterializedState::default(),
        });
        Ok(())
    }

    /// Removes the query registered under `id` — and frees its last
    /// answers; returns whether it existed.
    pub fn deregister(&mut self, id: &str) -> bool {
        let before = self.queries.len();
        self.queries.retain(|q| q.id != id);
        self.queries.len() != before
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The registered queries, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &ContinuousQuery> + '_ {
        self.queries.iter()
    }

    /// Replaces the registry's plan cache with `cache` (shared with
    /// other consumers — e.g. the server's QUERY path).
    pub fn set_plan_cache(&mut self, cache: Arc<PlanCache>) {
        self.plan_cache = cache;
    }

    /// The plan cache every evaluation runs through.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// Evaluates every registered query against `source`, sequentially:
    /// each result is the query's exact answers over `source`, with the
    /// changes since its previous evaluation.
    pub fn evaluate_all<S: TripleSource + ?Sized>(
        &mut self,
        source: &S,
    ) -> Result<Vec<ContinuousResult>, QueryError> {
        self.evaluate_with(source, EvalMode::Sequential)
    }

    /// The one evaluation driver behind every public variant: runs
    /// [`ContinuousQuery::evaluate`] once per registered query; only the
    /// distribution of those calls differs per [`EvalMode`].
    fn evaluate_with<S: TripleSource + ?Sized>(
        &mut self,
        source: &S,
        mode: EvalMode,
    ) -> Result<Vec<ContinuousResult>, QueryError> {
        let cache = Arc::clone(&self.plan_cache);
        let eval = |q: &mut ContinuousQuery| q.evaluate(source, &cache);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let answers: Vec<Result<ContinuousResult, QueryError>> = match mode {
            EvalMode::Scoped if self.queries.len() > 1 && cores > 1 => {
                let eval = &eval;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = self
                        .queries
                        .iter_mut()
                        .map(|q| scope.spawn(move || eval(q)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("query worker panicked"))
                        .collect()
                })
            }
            _ => self.queries.iter_mut().map(eval).collect(),
        };
        answers.into_iter().collect()
    }
}

/// Outcome of one streamed batch: what the ingest did plus every
/// continuous-query answer over the new state.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Ingest accounting (insert/delete/no-op counts, compaction flag,
    /// and — when the store's delta capture is on — the captured net
    /// [`BatchDelta`](crate::BatchDelta)).
    pub report: IngestReport,
    /// Continuous-query answers, in registration order.
    pub results: Vec<ContinuousResult>,
}

/// Session counters: batches, continuous-query evaluations, the
/// registry plan cache and WAL health (mirrored into the server's STATS
/// reply).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Batches applied through the session.
    pub batches: u64,
    /// Always 0: every evaluation re-runs the query's plan and counts in
    /// `full_evals`. Kept because the benchmark's
    /// `stream.cq_incremental_share` still reads it.
    pub incremental_evals: u64,
    /// Continuous-query evaluations: one per registered query per batch,
    /// plus those of `catch_up`.
    pub full_evals: u64,
    /// Executions through the registry's [`PlanCache`] that reused a
    /// cached plan with zero parsing.
    pub plan_hits: u64,
    /// Plan-cache executions that parsed and/or compiled.
    pub plan_misses: u64,
    /// Fresh plan compilations (excludes re-costs).
    pub plan_compiles: u64,
    /// Plan/text entries dropped by the cache's LRU caps.
    pub plan_evictions: u64,
    /// Stale plans re-ordered after the store epoch advanced past the
    /// staleness threshold.
    pub plan_recosts: u64,
    /// 1 when the store's WAL is poisoned (a failed append rejects all
    /// later appends until a checkpoint heals it) — applied batches are
    /// no longer durable. 0 when healthy or no WAL is attached.
    pub wal_poisoned: u64,
    /// WAL appends that returned an error (initial failures and
    /// poisoned rejections alike) — climbs while degradation persists.
    pub wal_appends_failed: u64,
}

/// A streaming session: an ingestible store (a [`ShardedHybridStore`]
/// at any shard count) plus a [`ContinuousQueryRegistry`], driven batch
/// by batch.
#[derive(Debug, Clone)]
pub struct StreamSession<S: StreamStore> {
    store: S,
    registry: ContinuousQueryRegistry,
    stats: StreamStats,
    /// Set when an ingest failed after the store had applied the batch
    /// (a failed WAL append): the queries have not seen that batch yet.
    catch_up_pending: bool,
}

impl<S: StreamStore> StreamSession<S> {
    /// Wraps an existing store.
    pub fn new(store: S) -> Self {
        Self {
            store,
            registry: ContinuousQueryRegistry::new(),
            stats: StreamStats::default(),
            catch_up_pending: false,
        }
    }

    /// Parses and registers a continuous query (see
    /// [`ContinuousQueryRegistry::register`]). The next batch (or
    /// evaluation) seeds its answers with one run over the current store
    /// state.
    pub fn register_query(
        &mut self,
        id: impl Into<String>,
        text: &str,
        options: QueryOptions,
    ) -> Result<(), QueryError> {
        self.registry.register(id, text, options)
    }

    /// The underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access (manual compaction, policy changes, delta
    /// capture).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// The query registry.
    pub fn registry(&self) -> &ContinuousQueryRegistry {
        &self.registry
    }

    /// Mutable registry access (re-registering, deregistering).
    pub fn registry_mut(&mut self) -> &mut ContinuousQueryRegistry {
        &mut self.registry
    }

    /// The store and the mutable registry together — for evaluating the
    /// registry against the session's own store outside `apply_batch`.
    pub fn parts_mut(&mut self) -> (&S, &mut ContinuousQueryRegistry) {
        (&self.store, &mut self.registry)
    }

    /// Session counters (batches, evaluations, and the registry plan
    /// cache's cumulative counters).
    pub fn stream_stats(&self) -> StreamStats {
        let mut stats = self.stats;
        let ps = self.registry.plan_cache().stats();
        stats.plan_hits = ps.hits;
        stats.plan_misses = ps.misses;
        stats.plan_compiles = ps.compiles;
        stats.plan_evictions = ps.evictions;
        stats.plan_recosts = ps.recosts;
        let health = self.store.wal_health();
        stats.wal_poisoned = health.poisoned as u64;
        stats.wal_appends_failed = health.appends_failed;
        stats
    }

    /// Evaluates every query over the store and records the evaluations.
    fn evaluate(&mut self) -> Result<Vec<ContinuousResult>, QueryError> {
        // The store's epoch, not the session's batch count (a store
        // loaded from disk is already past batch 0): cached plans
        // compiled against much older cardinalities re-cost.
        self.registry.plan_cache().set_epoch(self.store.epoch());
        let results = self.registry.evaluate_with(&self.store, EvalMode::Scoped)?;
        self.catch_up_pending = false;
        self.stats.full_evals += results.len() as u64;
        Ok(results)
    }

    /// Brings every query up to date after [`StreamSession::apply_batch`]
    /// failed on a batch the store had applied anyway (a failed WAL
    /// append: readers see the batch, but it is not durable). Each
    /// answer is diffed against what its query last reported, so the
    /// missed rows show up in `added`/`removed`. `None` when no such
    /// batch is pending. Without this call the next successful batch
    /// reports them the same way.
    pub fn catch_up(&mut self) -> Result<Option<Vec<ContinuousResult>>, QueryError> {
        if !self.catch_up_pending {
            return Ok(None);
        }
        self.evaluate().map(Some)
    }

    /// Ingests one batch (deletes, then inserts), compacts if the policy
    /// demands it, and re-evaluates every registered query over the new
    /// state, reporting each query's answers and its changes since its
    /// previous evaluation. Evaluation runs on one scoped thread per
    /// query when more than one query is registered (and the machine
    /// has more than one core), on the caller otherwise.
    pub fn apply_batch(
        &mut self,
        inserts: &Graph,
        deletes: &Graph,
    ) -> Result<BatchOutcome, StreamError> {
        let before = self.store.epoch();
        let report = match self.store.apply_batch(inserts, deletes) {
            Ok(report) => report,
            Err(e) => {
                // An error after the epoch advanced (a failed WAL append)
                // leaves the batch applied but unseen by the queries.
                if self.store.epoch() != before {
                    self.catch_up_pending = true;
                }
                return Err(e);
            }
        };
        let results = self.evaluate()?;
        self.stats.batches += 1;
        Ok(BatchOutcome { report, results })
    }

    /// Replays one shipped WAL record under the consecutive-epoch
    /// invariant: the record must carry exactly `store.epoch() + 1`
    /// (anything else is a gap or a replayed duplicate — the caller
    /// re-syncs instead of guessing). The delta's removals apply before
    /// its additions, exactly like crash recovery's `replay_wal`, and
    /// every registered query evaluates as after [`Self::apply_batch`].
    pub fn replay_record(&mut self, rec: &WalRecord) -> Result<BatchOutcome, StreamError> {
        let expected = self.store.epoch() + 1;
        if rec.epoch != expected {
            return Err(StreamError::Corrupt(format!(
                "replication gap: expected epoch {expected}, record carries {}",
                rec.epoch
            )));
        }
        let inserts = Graph::from_triples(rec.delta.added.iter().cloned());
        let deletes = Graph::from_triples(rec.delta.removed.iter().cloned());
        let outcome = self.apply_batch(&inserts, &deletes)?;
        debug_assert_eq!(
            self.store.epoch(),
            rec.epoch,
            "apply advances exactly one epoch"
        );
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::BatchDelta;
    use crate::shard::CompactionPolicy;
    use se_ontology::Ontology;
    use se_rdf::{Term, Triple};

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn t(s: &str, p: &str, o: Term) -> Triple {
        Triple::new(iri(s), Term::iri(format!("http://x/{p}")), o)
    }

    fn ontology() -> Ontology {
        let mut o = Ontology::new();
        o.add_object_property("http://x/knows");
        o.add_object_property("http://x/likes");
        o
    }

    /// The single-store configuration: one shard.
    fn store_with(triples: impl IntoIterator<Item = Triple>) -> ShardedHybridStore {
        ShardedHybridStore::build(&ontology(), &Graph::from_triples(triples), 1).unwrap()
    }

    #[test]
    fn reregistering_an_id_replaces_the_query() {
        let store = store_with([t("a", "knows", iri("b")), t("a", "likes", iri("c"))]);
        let mut reg = ContinuousQueryRegistry::new();
        reg.register(
            "q",
            "PREFIX e: <http://x/> SELECT ?o WHERE { e:a e:knows ?o }",
            QueryOptions::default(),
        )
        .unwrap();
        assert_eq!(reg.evaluate_all(&store).unwrap()[0].results.len(), 1);
        // Same id, different query: the old one must be gone, position
        // and count unchanged.
        reg.register(
            "q",
            "PREFIX e: <http://x/> SELECT ?o WHERE { e:a e:likes ?o }",
            QueryOptions::default(),
        )
        .unwrap();
        assert_eq!(reg.len(), 1);
        let results = reg.evaluate_all(&store).unwrap();
        assert_eq!(results[0].id, "q");
        let row = &results[0].results.rows[0];
        assert_eq!(row[0].as_ref().unwrap(), &iri("c"));
        // The replacement re-seeded: its whole answer set is "added".
        assert_eq!(results[0].added.len(), 1);
    }

    #[test]
    fn deregister_removes_and_reports() {
        let mut reg = ContinuousQueryRegistry::new();
        reg.register(
            "one",
            "PREFIX e: <http://x/> SELECT ?o WHERE { e:a e:knows ?o }",
            QueryOptions::default(),
        )
        .unwrap();
        reg.register(
            "two",
            "PREFIX e: <http://x/> SELECT ?o WHERE { e:a e:likes ?o }",
            QueryOptions::default(),
        )
        .unwrap();
        assert!(reg.deregister("one"));
        assert!(!reg.deregister("one"), "second removal reports absence");
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        let ids: Vec<&str> = reg.iter().map(|q| q.id.as_str()).collect();
        assert_eq!(ids, vec!["two"]);
        assert!(reg.deregister("two"));
        assert!(reg.is_empty());
    }

    /// A variable predicate can never be evaluated: registration refuses
    /// it, and the batches after the refusal apply and report normally
    /// instead of failing on a query that was never going to run.
    #[test]
    fn registration_rejects_variable_predicates() {
        let mut session = StreamSession::new(store_with([t("a", "knows", iri("b"))]));
        let err = session
            .register_query(
                "vp",
                "SELECT ?s ?p WHERE { ?s ?p <http://x/b> }",
                QueryOptions::default(),
            )
            .expect_err("a variable predicate must be refused");
        assert!(err.to_string().contains("variable predicates"), "{err}");
        assert!(
            session.registry().is_empty(),
            "refused query leaves no residue"
        );
        let out = session
            .apply_batch(
                &Graph::from_triples([t("c", "knows", iri("b"))]),
                &Graph::new(),
            )
            .unwrap();
        assert_eq!(out.report.inserted, 1);
        assert_eq!(session.store().epoch(), 1);
    }

    #[test]
    fn registration_rejects_unparseable_queries() {
        let mut reg = ContinuousQueryRegistry::new();
        assert!(reg
            .register("bad", "SELECT WHERE {", QueryOptions::default())
            .is_err());
        assert!(reg.is_empty(), "failed registration leaves no residue");
    }

    /// Continuous-query answers must be identical on the batch that
    /// crosses a compaction boundary and on the batches around it — the
    /// registry never notices the baseline swap.
    #[test]
    fn results_stable_across_compaction_boundary() {
        let store = store_with([t("a", "knows", iri("hub"))])
            .with_policy(CompactionPolicy { max_overlay: 3 });
        let mut session = StreamSession::new(store);
        session
            .register_query(
                "members",
                "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows e:hub }",
                QueryOptions::default(),
            )
            .unwrap();
        let mut expected = 1usize;
        let mut crossed = false;
        for round in 0..6 {
            let inserts = Graph::from_triples([t(&format!("n{round}"), "knows", iri("hub"))]);
            let out = session.apply_batch(&inserts, &Graph::new()).unwrap();
            expected += 1;
            assert_eq!(
                out.results[0].results.len(),
                expected,
                "round {round}: answer drifted (compacted={})",
                out.report.compacted
            );
            crossed |= out.report.compacted;
            if round > 0 {
                // After the seeding batch every round reports exactly
                // the inserted row as added.
                assert_eq!(out.results[0].added.len(), 1);
                assert!(out.results[0].removed.is_empty());
            }
        }
        assert!(crossed, "the stream must cross a compaction boundary");
        let stats = session.stream_stats();
        assert_eq!(stats.batches, 6);
        assert_eq!(stats.full_evals, 6, "one evaluation per batch");
        // Evaluating again without a batch gives the same answers.
        let (store, reg) = session.parts_mut();
        let seq = reg.evaluate_all(store).unwrap();
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].results.rows.len(), expected);
    }

    /// The sharded store drives the same generic session.
    #[test]
    fn session_is_generic_over_the_sharded_store() {
        let store = ShardedHybridStore::build(
            &ontology(),
            &Graph::from_triples([t("a", "knows", iri("hub"))]),
            2,
        )
        .unwrap();
        let mut session = StreamSession::new(store);
        session
            .register_query(
                "q",
                "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows e:hub }",
                QueryOptions::default(),
            )
            .unwrap();
        let out = session
            .apply_batch(
                &Graph::from_triples([t("b", "knows", iri("hub"))]),
                &Graph::new(),
            )
            .unwrap();
        assert_eq!(out.report.inserted, 1);
        assert_eq!(out.results[0].results.len(), 2);
        // The next batch reports just its new row on the sharded engine too.
        let out = session
            .apply_batch(
                &Graph::from_triples([t("c", "knows", iri("hub"))]),
                &Graph::new(),
            )
            .unwrap();
        assert_eq!(out.results[0].added.len(), 1);
        assert_eq!(out.results[0].results.len(), 3);
    }

    /// A query registered mid-stream seeds from the store state that
    /// accumulated before registration.
    #[test]
    fn mid_stream_registration_picks_up_existing_state() {
        let mut session = StreamSession::new(store_with([t("a", "knows", iri("hub"))]));
        session
            .apply_batch(
                &Graph::from_triples([t("b", "knows", iri("hub"))]),
                &Graph::new(),
            )
            .unwrap();
        session
            .register_query(
                "late",
                "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows e:hub }",
                QueryOptions::default(),
            )
            .unwrap();
        let out = session
            .apply_batch(
                &Graph::from_triples([t("c", "knows", iri("hub"))]),
                &Graph::new(),
            )
            .unwrap();
        // Seeding run: everything reported as added — including the
        // pre-registration triples.
        assert_eq!(out.results[0].results.len(), 3);
        assert_eq!(out.results[0].added.len(), 3);
        // From here on, only changes.
        let out = session
            .apply_batch(
                &Graph::new(),
                &Graph::from_triples([t("b", "knows", iri("hub"))]),
            )
            .unwrap();
        assert_eq!(out.results[0].removed.len(), 1);
        assert_eq!(out.results[0].results.len(), 2);
    }

    /// Deregistering frees the query's answers; re-registering the
    /// same id starts unseeded and re-seeds on the next evaluation.
    #[test]
    fn reregister_after_deregister_reseeds() {
        let mut session = StreamSession::new(store_with([t("a", "knows", iri("hub"))]));
        let q = "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows e:hub }";
        session
            .register_query("q", q, QueryOptions::default())
            .unwrap();
        session
            .apply_batch(
                &Graph::from_triples([t("b", "knows", iri("hub"))]),
                &Graph::new(),
            )
            .unwrap();
        assert!(session.registry().iter().next().unwrap().is_seeded());
        assert!(session.registry_mut().deregister("q"));
        assert!(session.registry().is_empty(), "state freed with the query");
        session
            .register_query("q", q, QueryOptions::default())
            .unwrap();
        assert!(!session.registry().iter().next().unwrap().is_seeded());
        let out = session
            .apply_batch(
                &Graph::from_triples([t("c", "knows", iri("hub"))]),
                &Graph::new(),
            )
            .unwrap();
        assert_eq!(
            out.results[0].added.len(),
            3,
            "first run after re-register seeds"
        );
        assert_eq!(out.results[0].results.len(), 3);
        assert!(session.registry().iter().next().unwrap().is_seeded());
    }

    /// A batch that deletes a triple a rider in the same tick re-inserts
    /// (Restored / Cancelled overlay states) nets to no delta — and the
    /// query reports no changes.
    #[test]
    fn same_tick_delete_and_reinsert_nets_to_unchanged() {
        let mut session = StreamSession::new(store_with([t("a", "knows", iri("hub"))]));
        session.store_mut().set_delta_capture(true);
        session
            .register_query(
                "q",
                "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows e:hub }",
                QueryOptions::default(),
            )
            .unwrap();
        session.apply_batch(&Graph::new(), &Graph::new()).unwrap();
        // Restored: delete a baseline triple and re-insert it in the
        // same batch (deletes run first). Cancelled: insert a brand-new
        // triple and delete it in the same batch — net nothing.
        let both = Graph::from_triples([t("a", "knows", iri("hub"))]);
        let out = session.apply_batch(&both, &both).unwrap();
        assert!(out.results[0].unchanged());
        assert_eq!(out.results[0].results.len(), 1);
        let delta = out.report.delta.as_ref().expect("capture was on");
        assert!(delta.is_empty(), "delete+reinsert nets to zero");
        // And a genuinely new triple alongside a net-zero pair is the
        // only change reported.
        let out = session
            .apply_batch(
                &Graph::from_triples([t("a", "knows", iri("hub")), t("d", "knows", iri("hub"))]),
                &both,
            )
            .unwrap();
        assert_eq!(out.results[0].added.len(), 1);
        assert!(out.results[0].removed.is_empty());
    }

    /// FILTER queries report per-batch changes like any other query.
    #[test]
    fn full_fallback_reports_diffs() {
        let mut session = StreamSession::new(store_with([t("a", "knows", iri("hub"))]));
        session
            .register_query(
                "q",
                "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows ?o FILTER(?o = e:hub) }",
                QueryOptions::default(),
            )
            .unwrap();
        let out = session
            .apply_batch(
                &Graph::from_triples([t("b", "knows", iri("hub"))]),
                &Graph::new(),
            )
            .unwrap();
        assert_eq!(out.results[0].results.len(), 2);
        let out = session
            .apply_batch(
                &Graph::from_triples([t("c", "knows", iri("elsewhere"))]),
                &Graph::new(),
            )
            .unwrap();
        assert!(
            out.results[0].unchanged(),
            "filtered-out insert changes nothing"
        );
        let out = session
            .apply_batch(
                &Graph::new(),
                &Graph::from_triples([t("b", "knows", iri("hub"))]),
            )
            .unwrap();
        assert_eq!(out.results[0].removed.len(), 1);
        assert_eq!(
            session.stream_stats().full_evals,
            3,
            "every batch re-evaluates"
        );
    }

    /// A registry answers the same through its default plan cache as
    /// through one installed with `set_plan_cache`, and the session's
    /// stream stats surface whichever cache the registry holds.
    #[test]
    fn plan_cache_on_registry_agrees_and_is_counted() {
        let q = "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows ?o FILTER(?o = e:hub) }";
        let triples = [t("a", "knows", iri("hub")), t("b", "knows", iri("hub"))];
        let mut plain = StreamSession::new(store_with(triples.clone()));
        let mut cached = StreamSession::new(store_with(triples));
        let cache = Arc::new(PlanCache::new());
        cached.registry_mut().set_plan_cache(cache.clone());
        for session in [&mut plain, &mut cached] {
            session
                .register_query("q", q, QueryOptions::default())
                .unwrap();
        }
        for round in 0..3 {
            let inserts = Graph::from_triples([t(&format!("n{round}"), "knows", iri("hub"))]);
            let a = plain.apply_batch(&inserts, &Graph::new()).unwrap();
            let b = cached.apply_batch(&inserts, &Graph::new()).unwrap();
            let rows = |r: &BatchOutcome| {
                let mut v: Vec<String> = r.results[0]
                    .results
                    .rows
                    .iter()
                    .map(|row| format!("{row:?}"))
                    .collect();
                v.sort();
                v
            };
            assert_eq!(rows(&a), rows(&b), "round {round}");
            assert_eq!(rows(&a).len(), 3 + round, "round {round}");
        }
        // The query runs its plan every batch: one compile, then
        // shape-level hits with zero parsing — on either cache.
        for stats in [plain.stream_stats(), cached.stream_stats()] {
            assert_eq!(stats.plan_compiles, 1);
            assert_eq!(stats.plan_misses, 1);
            assert_eq!(stats.plan_hits, 2);
        }
        assert_eq!(cache.stats().hits, 2, "session mirrors the installed cache");
        assert!(!Arc::ptr_eq(plain.registry().plan_cache(), &cache));
    }

    /// Regression: embedded callers that apply batches straight to the
    /// engine (no `StreamSession`) must still advance the plan cache's
    /// staleness clock — the epoch used to be published only from
    /// `StreamSession::apply_batch`, so direct applies never re-costed.
    #[test]
    fn direct_engine_apply_publishes_plan_cache_epoch() {
        use se_sparql::{PlanCache, PlanCacheConfig};
        let config = || PlanCacheConfig {
            recost_epochs: 2,
            ..PlanCacheConfig::default()
        };
        let q = "PREFIX e: <http://x/> SELECT ?o WHERE { e:a e:knows ?o }";
        let opts = QueryOptions::default();

        for shards in [1, 2] {
            let mut store = ShardedHybridStore::build(
                &ontology(),
                &Graph::from_triples([t("a", "knows", iri("b"))]),
                shards,
            )
            .unwrap();
            let cache = Arc::new(PlanCache::with_config(config()));
            store.set_plan_cache(Arc::clone(&cache));
            cache.execute_text(&store, q, &opts).unwrap();
            assert_eq!(cache.stats().recosts, 0);
            for i in 0..3 {
                let g = Graph::from_triples([t("a", "knows", iri(&format!("n{i}")))]);
                store.apply(&g, &Graph::new()).unwrap();
            }
            cache.execute_text(&store, q, &opts).unwrap();
            assert_eq!(
                cache.stats().recosts,
                1,
                "{shards} shard(s): the plan compiled at epoch 0 re-costs after 3 direct applies"
            );
        }
    }

    /// The session's stats surface WAL durability degradation instead of
    /// letting a poisoned log fail writes silently behind read traffic.
    #[test]
    fn stream_stats_surface_wal_health() {
        let dir = std::env::temp_dir().join(format!("se-cq-walhealth-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut store = store_with([t("a", "knows", iri("b"))]);
        store
            .attach_wal(&dir, crate::wal::WalConfig::default())
            .unwrap();
        let mut session = StreamSession::new(store);
        let stats = session.stream_stats();
        assert_eq!((stats.wal_poisoned, stats.wal_appends_failed), (0, 0));

        crate::fault::arm(&dir, 0, crate::fault::FaultMode::Fail);
        let g = Graph::from_triples([t("a", "knows", iri("c"))]);
        assert!(session.apply_batch(&g, &Graph::new()).is_err());
        crate::fault::disarm(&dir);
        assert!(session.apply_batch(&g, &Graph::new()).is_err());

        let stats = session.stream_stats();
        assert_eq!(stats.wal_poisoned, 1);
        assert_eq!(stats.wal_appends_failed, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch whose WAL append fails is still applied; the queries must
    /// still report its rows, or a subscriber fed only diffs never sees
    /// them. `catch_up` reports it at once; without
    /// that call the next successful batch reports it.
    #[test]
    fn failed_wal_append_is_reported_by_the_next_evaluation() {
        let dir = std::env::temp_dir().join(format!("se-cq-walcatchup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut store = store_with([t("a", "knows", iri("b"))]);
        store
            .attach_wal(&dir, crate::wal::WalConfig::default())
            .unwrap();
        let mut session = StreamSession::new(store);
        session
            .register_query(
                "plain",
                "PREFIX e: <http://x/> SELECT ?o WHERE { e:a e:knows ?o }",
                QueryOptions::default(),
            )
            .unwrap();
        session
            .register_query(
                "filtered",
                "PREFIX e: <http://x/> SELECT ?o WHERE { e:a e:knows ?o FILTER(?o != e:b) }",
                QueryOptions::default(),
            )
            .unwrap();
        let seeded = session.apply_batch(&Graph::new(), &Graph::new()).unwrap();
        assert_eq!(seeded.results[0].results.len(), 1);
        assert!(session.catch_up().unwrap().is_none(), "nothing missed yet");

        let added = |r: &ContinuousResult| {
            let mut rows: Vec<String> = r
                .added
                .rows
                .iter()
                .map(|row| format!("{:?}", row[0]))
                .collect();
            rows.sort();
            rows
        };
        let term = |s: &str| format!("{:?}", Some(iri(s)));

        // The first failure poisons the log; the second batch is refused
        // by the poisoned log. Both stay applied.
        crate::fault::arm(&dir, 0, crate::fault::FaultMode::Fail);
        let c = Graph::from_triples([t("a", "knows", iri("c"))]);
        assert!(session.apply_batch(&c, &Graph::new()).is_err());
        crate::fault::disarm(&dir);
        let d = Graph::from_triples([t("a", "knows", iri("d"))]);
        assert!(session.apply_batch(&d, &Graph::new()).is_err());
        assert_eq!(session.store().len(), 3, "failed appends stay applied");

        // Healing the log by a checkpoint: the next batch's diffs carry
        // both missed batches for both queries.
        session.save(&dir).unwrap();
        let e = Graph::from_triples([t("a", "knows", iri("e"))]);
        let out = session.apply_batch(&e, &Graph::new()).unwrap();
        for r in &out.results {
            assert_eq!(
                added(r),
                vec![term("c"), term("d"), term("e")],
                "query {} lost a failed batch's rows",
                r.id
            );
        }

        // `catch_up` reports a missed batch without waiting for the next.
        crate::fault::arm(&dir, 0, crate::fault::FaultMode::Fail);
        let f = Graph::from_triples([t("a", "knows", iri("f"))]);
        assert!(session.apply_batch(&f, &Graph::new()).is_err());
        crate::fault::disarm(&dir);
        let caught = session.catch_up().unwrap().expect("a batch was missed");
        for r in &caught {
            assert_eq!(added(r), vec![term("f")], "query {}", r.id);
        }
        assert!(session.catch_up().unwrap().is_none());
        let (store, registry) = session.parts_mut();
        for r in registry.evaluate_all(store).unwrap() {
            assert!(r.unchanged(), "query {} is behind the store", r.id);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The diff is a bag diff: a row counts as often as it appears.
    #[test]
    fn multiset_reports_bag_changes() {
        let mut st = MaterializedState::default();
        let row = |s: &str| vec![Some(iri(s))];
        let (a, r) = st.replace(&[row("b"), row("b")]);
        assert_eq!((a.len(), r.len()), (2, 0), "both copies are added");
        let (a, r) = st.replace(&[row("b"), row("c")]);
        assert_eq!((a, r), (vec![row("c")], vec![row("b")]));
        let (a, r) = st.replace(&[]);
        assert!(a.is_empty());
        assert_eq!(r.len(), 2);
    }

    /// A LIMIT query's answers follow the store batch by batch: after
    /// every batch they equal a one-shot run over the live store, and the
    /// `added`/`removed` rows summed from the seeding batch on rebuild
    /// them.
    #[test]
    fn limit_query_follows_the_store() {
        let q = "PREFIX e: <http://x/> SELECT ?s ?o WHERE { ?s e:p ?o } LIMIT 2";
        let mut session = StreamSession::new(store_with([]));
        session
            .register_query("limit", q, QueryOptions::default())
            .unwrap();
        let g = |names: &[&str]| Graph::from_triples(names.iter().map(|n| t(n, "p", iri("o"))));
        let batches: [(&[&str], &[&str]); 6] = [
            (&["s0"], &[]),
            (&["s1", "s2", "s3"], &[]),
            (&["s4"], &["s0", "s1"]),
            (&[], &["s2", "s3", "s4"]),
            (&["s5", "s6"], &[]),
            (&["s0"], &["s5"]),
        ];
        let sorted = |rows: &[Vec<Option<Term>>]| {
            let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        let mut mirror: HashMap<String, i64> = HashMap::new();
        for (i, (ins, del)) in batches.iter().enumerate() {
            let out = session.apply_batch(&g(ins), &g(del)).unwrap();
            let got = &out.results[0];
            let want =
                se_sparql::execute_query(session.store(), q, &QueryOptions::default()).unwrap();
            assert!(want.len() <= 2, "batch {i}: LIMIT ignored");
            assert_eq!(sorted(&got.results.rows), sorted(&want.rows), "batch {i}");
            for row in sorted(&got.added.rows) {
                *mirror.entry(row).or_insert(0) += 1;
            }
            for row in sorted(&got.removed.rows) {
                *mirror.entry(row).or_insert(0) -= 1;
            }
            mirror.retain(|_, c| *c != 0);
            let mut rebuilt: Vec<String> = Vec::new();
            for (row, &c) in &mirror {
                assert!(c > 0, "batch {i}: over-removed {row}");
                rebuilt.extend(std::iter::repeat_n(row.clone(), c as usize));
            }
            rebuilt.sort();
            assert_eq!(
                rebuilt,
                sorted(&got.results.rows),
                "batch {i}: changes drifted"
            );
        }
    }

    /// `replay_record` is the follower's sole ingest path: it must apply
    /// exactly-once in order and reject anything else.
    #[test]
    fn replay_record_enforces_the_consecutive_epoch_invariant() {
        let mut session = StreamSession::new(store_with([]));
        let rec = |epoch: u64, n: u64| WalRecord {
            epoch,
            delta: BatchDelta {
                added: vec![t(&format!("s{n}"), "knows", iri("o"))],
                removed: vec![],
            },
        };
        session.replay_record(&rec(1, 1)).unwrap();
        session.replay_record(&rec(2, 2)).unwrap();
        assert_eq!(session.store().epoch(), 2);
        assert_eq!(session.store().len(), 2);
        // A gap or a replayed duplicate would silently fork history.
        assert!(session.replay_record(&rec(4, 3)).is_err());
        assert!(session.replay_record(&rec(2, 2)).is_err());
        assert_eq!(
            session.store().epoch(),
            2,
            "rejected records change nothing"
        );
        // Deletions replay too.
        let mut del = rec(3, 9);
        del.delta.removed = vec![t("s1", "knows", iri("o"))];
        let report = session.replay_record(&del).unwrap().report;
        assert_eq!((report.inserted, report.deleted), (1, 1));
        assert_eq!(session.store().epoch(), 3);
    }
}
