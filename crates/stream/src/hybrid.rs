//! The hybrid query view: an immutable [`SuccinctEdgeStore`] baseline plus
//! the mutable [`DeltaStore`] overlay, merged at **pattern-access
//! granularity** behind the [`TripleSource`] trait.
//!
//! Every access first consults the overlay: baseline answers are filtered
//! through tombstones ([`DeltaState::Deleted`]) and overlay insertions
//! ([`DeltaState::Added`]) are merged in, preserving the ordering
//! contracts of the trait (subject-sorted scans for the merge join,
//! ascending deduplicated subject lists).
//!
//! # Dictionary overflow
//!
//! Terms unseen at build time cannot be encoded by the frozen baseline
//! dictionaries. The hybrid store therefore keeps three *overflow*
//! dictionaries:
//!
//! * **instances** continue the baseline's dense id space (`base_len..`);
//! * **properties** and **concepts** receive ids above [`OVERFLOW_BASE`].
//!   They carry no LiteMat prefix code, so their subsumption interval is
//!   the singleton `[id, id+1)` — reasoning over a *new* term sees only
//!   its own assertions until the next compaction folds the term into the
//!   ontology (via the builder's augmentation step) and re-encodes it;
//! * **literals** of overlay triples live in the delta's content-interned
//!   table and surface as `Value::Literal(OVERFLOW_BASE + local)`.
//!
//! # Compaction
//!
//! When the overlay grows past [`CompactionPolicy::max_overlay`] entries,
//! [`HybridStore::compact`] materializes baseline + delta into a term
//! graph and rebuilds the succinct layers from scratch, clearing the
//! overlay. The rebuilt store persists through the unchanged
//! `SuccinctEdgeStore` format, so `save`/`load` round-trips keep working.

use crate::delta::{DeltaObj, DeltaState, DeltaStore};
use crate::error::StreamError;
use crate::persist::SaveReport;
use se_core::builder::{instance_key, key_to_term_arc};
use se_core::{SuccinctEdgeStore, TripleSource, Value};
use se_litemat::IdInterval;
use se_ontology::Ontology;
use se_rdf::{Graph, Literal, Term, Triple};
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First identifier of the overflow id space for properties, concepts and
/// overlay literals. LiteMat codes and flat-literal indices stay far below
/// this in any realistic store.
pub const OVERFLOW_BASE: u64 = 1 << 62;

/// Locks a store's WAL slot, surviving a poisoned mutex (the WAL's own
/// state is fail-stop: a panicked appender leaves it no worse than a
/// crash, which recovery is built for).
pub(crate) fn lock_wal(
    m: &std::sync::Mutex<Option<crate::wal::Wal>>,
) -> std::sync::MutexGuard<'_, Option<crate::wal::Wal>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// When to fold the overlay into the succinct baseline.
#[derive(Debug, Clone, Copy)]
pub struct CompactionPolicy {
    /// Rebuild once the overlay holds at least this many entries
    /// (inserted or tombstoned triples).
    pub max_overlay: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self { max_overlay: 4096 }
    }
}

/// The net visibility changes of one batch, in term space: what the
/// incremental continuous-query evaluator feeds through the delta rules.
///
/// "Net" means intra-batch churn cancels out — a triple deleted and
/// re-inserted by riders of the same batch (`Restored` in overlay terms)
/// appears in neither list, and a triple that was already present (or
/// already absent) contributes nothing. `added` and `removed` are
/// therefore disjoint, and replaying them against the pre-batch state
/// reproduces the post-batch state exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchDelta {
    /// Triples that became visible in this batch.
    pub added: Vec<Triple>,
    /// Triples that stopped being visible in this batch.
    pub removed: Vec<Triple>,
}

impl BatchDelta {
    /// `true` when the batch changed nothing visible.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total net changes (insertions plus removals).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Folds raw per-operation events (`+1` became visible, `-1` stopped
    /// being visible) into net lists. Per-triple nets stay in `{-1, 0, +1}`
    /// because effective operations strictly alternate visibility.
    pub(crate) fn from_events(events: Vec<(Triple, i64)>) -> Self {
        let mut net: HashMap<Triple, i64> = HashMap::with_capacity(events.len());
        for (t, w) in events {
            *net.entry(t).or_insert(0) += w;
        }
        let mut delta = BatchDelta::default();
        for (t, w) in net {
            match w.cmp(&0) {
                std::cmp::Ordering::Greater => delta.added.push(t),
                std::cmp::Ordering::Less => delta.removed.push(t),
                std::cmp::Ordering::Equal => {}
            }
        }
        delta
    }
}

/// Outcome of one [`HybridStore::apply`] batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Triples that became visible.
    pub inserted: usize,
    /// Triples that became invisible.
    pub deleted: usize,
    /// Operations with no effect (duplicate inserts, deletes of absent
    /// triples).
    pub noops: usize,
    /// `true` if this batch triggered a compaction.
    pub compacted: bool,
    /// Time spent routing + applying the overlay mutations of this batch
    /// (compaction excluded).
    pub ingest: Duration,
    /// Time this batch's `apply` call spent blocked on compaction work
    /// (inline rebuild, or the atomic swap of a finished background
    /// rebuild). Zero while a background rebuild is still running.
    pub compaction: Duration,
    /// The batch's net term-space changes, captured only when the store's
    /// delta capture is enabled (see `StreamStore::set_delta_capture`) —
    /// `None` otherwise, so plain ingest paths pay nothing for it.
    pub delta: Option<BatchDelta>,
}

/// Counters over the store's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Number of compactions performed.
    pub compactions: usize,
    /// Total triples inserted (effective, not no-ops).
    pub total_inserted: usize,
    /// Total triples deleted (effective).
    pub total_deleted: usize,
    /// Total time spent applying overlay mutations.
    pub total_ingest: Duration,
    /// Total time spent compacting (rebuild + swap; for background
    /// compaction this is worker wall time, off the ingest hot path).
    pub total_compaction: Duration,
    /// Logical write epoch: successful `apply` batches over the store's
    /// lifetime (restored across v02 save/load). Compactions do not
    /// advance it — they preserve content.
    pub epoch: u64,
    /// Snapshots taken over the store's lifetime.
    pub snapshots: usize,
    /// Snapshots currently alive, pinning resources (swapped-out
    /// baselines, overlay literals). A monotonically growing value here
    /// under a steady workload is a snapshot leak.
    pub live_pins: usize,
}

/// Overflow dictionary for properties or concepts: ids above
/// [`OVERFLOW_BASE`], no hierarchy. Shared with the sharded store, which
/// keeps one global overflow space across all shards.
#[derive(Debug, Clone, Default)]
pub(crate) struct OverflowDict {
    ids: HashMap<Arc<str>, u64>,
    terms: Vec<Arc<str>>,
}

impl OverflowDict {
    pub(crate) fn get_or_insert(&mut self, iri: &str) -> u64 {
        if let Some(&id) = self.ids.get(iri) {
            return id;
        }
        let id = OVERFLOW_BASE + self.terms.len() as u64;
        let arc: Arc<str> = Arc::from(iri);
        self.ids.insert(arc.clone(), id);
        self.terms.push(arc);
        id
    }

    pub(crate) fn id(&self, iri: &str) -> Option<u64> {
        self.ids.get(iri).copied()
    }

    pub(crate) fn term(&self, id: u64) -> Option<Arc<str>> {
        self.terms
            .get(id.checked_sub(OVERFLOW_BASE)? as usize)
            .cloned()
    }

    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.terms.clear();
    }

    /// The overflow IRIs in id order (`OVERFLOW_BASE + position`).
    pub(crate) fn terms(&self) -> &[Arc<str>] {
        &self.terms
    }
}

/// Overflow instance dictionary: continues the baseline's dense id space.
#[derive(Debug, Clone, Default)]
pub(crate) struct OverflowInstances {
    ids: HashMap<Arc<str>, u64>,
    terms: Vec<Arc<str>>,
    base_len: u64,
}

impl OverflowInstances {
    pub(crate) fn get_or_insert(&mut self, key: &str) -> u64 {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = self.base_len + self.terms.len() as u64;
        let arc: Arc<str> = Arc::from(key);
        self.ids.insert(arc.clone(), id);
        self.terms.push(arc);
        id
    }

    fn id(&self, key: &str) -> Option<u64> {
        self.ids.get(key).copied()
    }

    fn term(&self, id: u64) -> Option<Arc<str>> {
        self.terms
            .get(id.checked_sub(self.base_len)? as usize)
            .cloned()
    }

    fn reset(&mut self, base_len: u64) {
        self.ids.clear();
        self.terms.clear();
        self.base_len = base_len;
    }

    /// First overflow id (= baseline instance count at freeze time).
    pub(crate) fn base_len(&self) -> u64 {
        self.base_len
    }

    /// Rebuilds the dictionary from persisted keys, in id order.
    pub(crate) fn from_keys(base_len: u64, keys: impl Iterator<Item = String>) -> Self {
        let mut d = Self {
            base_len,
            ..Default::default()
        };
        for key in keys {
            d.get_or_insert(&key);
        }
        d
    }

    /// The overflow keys in id order (`base_len + position`).
    pub(crate) fn terms(&self) -> &[Arc<str>] {
        &self.terms
    }
}

/// A SuccinctEdge baseline with a mutable delta overlay: ingests triple
/// batches, answers every [`TripleSource`] access over the merged view,
/// and periodically compacts the overlay back into the succinct layers.
#[derive(Debug)]
pub struct HybridStore {
    /// The immutable succinct baseline, `Arc`-shared with every
    /// [`StoreSnapshot`](crate::snapshot::StoreSnapshot) pinned at the
    /// current generation: a compaction installs a fresh `Arc` and the
    /// swapped-out layers are reclaimed when the last pin drops.
    pub(crate) base: Arc<SuccinctEdgeStore>,
    ontology: Ontology,
    pub(crate) delta: DeltaStore,
    pub(crate) ovf_instances: OverflowInstances,
    pub(crate) ovf_properties: OverflowDict,
    pub(crate) ovf_concepts: OverflowDict,
    policy: CompactionPolicy,
    stats: HybridStats,
    /// Identity of the current baseline, process-unique: every build and
    /// every [`swap_baseline`](HybridStore::swap_baseline) takes a fresh
    /// number, so the persistence layer can tell "this exact baseline is
    /// already the one on disk" apart from any rebuilt sibling.
    pub(crate) generation: u64,
    /// Where (if anywhere) this baseline generation is already persisted
    /// — lets `save` skip the O(baseline) rewrite. Interior mutability
    /// because `save` takes `&self` (it is observationally side-effect
    /// free: the cache only records what `save` wrote).
    pub(crate) persist_mark: std::sync::Mutex<Option<crate::persist::BaselineMark>>,
    /// Logical write epoch: the number of successful [`apply`] batches
    /// over this store's lifetime (single-triple `insert_triple` /
    /// `delete_triple` calls outside a batch do not advance it).
    /// Persisted in the v02 manifest so epochs stay monotone across
    /// restarts. [`apply`]: HybridStore::apply
    pub(crate) epoch: u64,
    /// Live snapshot pins: shared with every [`StoreSnapshot`] taken from
    /// this store; each snapshot decrements it on drop.
    /// [`StoreSnapshot`]: crate::snapshot::StoreSnapshot
    pub(crate) pins: Arc<AtomicUsize>,
    /// Snapshots taken over the store's lifetime (observability).
    pub(crate) snapshots_taken: AtomicUsize,
    /// When `true`, [`apply`](HybridStore::apply) records the batch's net
    /// term-space changes on its report (for incremental continuous-query
    /// evaluation). Off by default: plain ingest pays nothing.
    capture_delta: bool,
    /// Write-ahead log, when attached ([`attach_wal`]): every `apply`
    /// appends its net delta before returning, making durability
    /// per-batch. Interior mutability because `save` takes `&self` and
    /// must truncate covered segments after its manifest rename.
    /// [`attach_wal`]: HybridStore::attach_wal
    pub(crate) wal: std::sync::Mutex<Option<crate::wal::Wal>>,
    /// Shared compiled-plan cache, when installed
    /// ([`set_plan_cache`](HybridStore::set_plan_cache)): every
    /// successful [`apply`](HybridStore::apply) publishes the post-batch
    /// epoch so cached plans re-cost as the store ages — embedded
    /// callers applying directly (no `StreamSession`) included.
    plan_cache: Option<Arc<se_sparql::PlanCache>>,
}

impl Clone for HybridStore {
    fn clone(&self) -> Self {
        Self {
            base: self.base.clone(),
            ontology: self.ontology.clone(),
            delta: self.delta.clone(),
            ovf_instances: self.ovf_instances.clone(),
            ovf_properties: self.ovf_properties.clone(),
            ovf_concepts: self.ovf_concepts.clone(),
            policy: self.policy,
            stats: self.stats.clone(),
            // The clone shares the baseline content, so the persisted
            // copy (if any) is just as valid for it; a later compaction
            // of either clone takes a fresh generation and diverges.
            generation: self.generation,
            persist_mark: std::sync::Mutex::new(
                self.persist_mark
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone(),
            ),
            epoch: self.epoch,
            // The clone is an independent store: snapshots of the
            // original must not pin (or be leaked into) the clone.
            pins: Arc::new(AtomicUsize::new(0)),
            snapshots_taken: AtomicUsize::new(self.snapshots_taken.load(Ordering::Relaxed)),
            capture_delta: self.capture_delta,
            // A log is an exclusive append stream over one directory: the
            // clone starts without one and attaches its own if needed.
            wal: std::sync::Mutex::new(None),
            plan_cache: self.plan_cache.clone(),
        }
    }
}

impl HybridStore {
    /// Wraps a built baseline. `ontology` is retained for compactions.
    pub fn new(base: SuccinctEdgeStore, ontology: Ontology) -> Self {
        let base_len = base.dictionaries().instances.len() as u64;
        Self {
            base: Arc::new(base),
            ontology,
            delta: DeltaStore::new(),
            ovf_instances: OverflowInstances {
                base_len,
                ..Default::default()
            },
            ovf_properties: OverflowDict::default(),
            ovf_concepts: OverflowDict::default(),
            policy: CompactionPolicy::default(),
            stats: HybridStats::default(),
            generation: crate::persist::next_generation(),
            persist_mark: std::sync::Mutex::new(None),
            epoch: 0,
            pins: Arc::new(AtomicUsize::new(0)),
            snapshots_taken: AtomicUsize::new(0),
            capture_delta: false,
            wal: std::sync::Mutex::new(None),
            plan_cache: None,
        }
    }

    /// Reassembles a store from persisted v02 parts (see
    /// [`crate::persist`]); `mark` records where this baseline generation
    /// already lives on disk so the next `save` skips rewriting it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_loaded(
        base: SuccinctEdgeStore,
        ontology: Ontology,
        delta: DeltaStore,
        ovf_instances: OverflowInstances,
        ovf_properties: OverflowDict,
        ovf_concepts: OverflowDict,
        policy: CompactionPolicy,
        generation: u64,
        epoch: u64,
        mark: Option<crate::persist::BaselineMark>,
    ) -> Self {
        Self {
            base: Arc::new(base),
            ontology,
            delta,
            ovf_instances,
            ovf_properties,
            ovf_concepts,
            policy,
            stats: HybridStats::default(),
            generation,
            persist_mark: std::sync::Mutex::new(mark),
            epoch,
            pins: Arc::new(AtomicUsize::new(0)),
            snapshots_taken: AtomicUsize::new(0),
            capture_delta: false,
            wal: std::sync::Mutex::new(None),
            plan_cache: None,
        }
    }

    /// Builds the baseline from `graph` and wraps it.
    pub fn build(ontology: &Ontology, graph: &Graph) -> Result<Self, StreamError> {
        let base = SuccinctEdgeStore::build(ontology, graph)?;
        Ok(Self::new(base, ontology.clone()))
    }

    /// Replaces the compaction policy.
    pub fn with_policy(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The current immutable baseline.
    pub fn baseline(&self) -> &SuccinctEdgeStore {
        &self.base
    }

    /// The mutable overlay.
    pub fn delta(&self) -> &DeltaStore {
        &self.delta
    }

    /// The ontology used for (re)builds.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// Lifetime counters, with the live epoch/pin gauges filled in.
    pub fn stats(&self) -> HybridStats {
        let mut s = self.stats.clone();
        s.epoch = self.epoch;
        s.snapshots = self.snapshots_taken.load(Ordering::Relaxed);
        s.live_pins = self.pins.load(Ordering::Acquire);
        s
    }

    /// The logical write epoch: successful [`apply`](HybridStore::apply)
    /// batches so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Forces the epoch to `epoch` without applying anything — the
    /// replication bootstrap (see [`crate::replay_record`]): a follower
    /// that rebuilt its state from a leader snapshot aligns to the
    /// leader's epoch before replaying shipped records. Must not be used
    /// on a store with an attached WAL (it would corrupt the log's epoch
    /// sequence).
    pub fn align_epoch(&mut self, epoch: u64) {
        debug_assert!(
            !self.wal_attached(),
            "align_epoch on a WAL-attached store corrupts the log"
        );
        self.epoch = epoch;
    }

    /// Installs a shared compiled-plan cache: every successful
    /// [`apply`](HybridStore::apply) publishes the post-batch epoch to
    /// it, so cached join orders re-cost as the store ages even when the
    /// caller applies batches directly rather than through a
    /// [`StreamSession`](crate::StreamSession).
    pub fn set_plan_cache(&mut self, cache: Arc<se_sparql::PlanCache>) {
        cache.set_epoch(self.epoch);
        self.plan_cache = Some(cache);
    }

    /// Operator-visible WAL durability state (see
    /// [`crate::wal::WalHealth`]).
    pub fn wal_health(&self) -> crate::wal::WalHealth {
        lock_wal(&self.wal)
            .as_ref()
            .map(|w| w.health())
            .unwrap_or_default()
    }

    /// The directory the attached WAL appends into, if any — replication
    /// catch-up reads the tail from here.
    pub fn wal_dir(&self) -> Option<std::path::PathBuf> {
        lock_wal(&self.wal).as_ref().map(|w| w.dir().to_path_buf())
    }

    /// Snapshots currently pinning this store's resources.
    pub fn live_pins(&self) -> usize {
        self.pins.load(Ordering::Acquire)
    }

    /// An immutable view of the store at the current epoch.
    ///
    /// The snapshot shares the succinct baseline by `Arc` (O(1)) and
    /// freezes the overlay and overflow dictionaries by value
    /// (O(overlay)), so readers on other threads answer every
    /// [`TripleSource`] access against a consistent epoch while `apply`
    /// and compaction proceed on the live store. The pin is released when
    /// the last clone of the snapshot drops; until then the swapped-out
    /// baseline generation stays alive (via the `Arc`) and the pin is
    /// visible in [`HybridStats::live_pins`].
    pub fn snapshot(&self) -> crate::snapshot::StoreSnapshot {
        self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        crate::snapshot::StoreSnapshot::from_hybrid(
            self.clone(),
            self.epoch,
            Arc::clone(&self.pins),
        )
    }

    /// The compaction policy in force.
    pub fn policy(&self) -> CompactionPolicy {
        self.policy
    }

    // ------------------------------------------------------------ id routing

    fn base_instance_count(&self) -> u64 {
        self.ovf_instances.base_len
    }

    fn is_base_instance(&self, id: u64) -> bool {
        id < self.base_instance_count()
    }

    fn term_of_instance(&self, id: u64) -> Option<Term> {
        if self.is_base_instance(id) {
            self.base
                .dictionaries()
                .instances
                .term_arc(id)
                .map(key_to_term_arc)
        } else {
            self.ovf_instances.term(id).map(key_to_term_arc)
        }
    }

    /// Resolves or allocates the hybrid instance id of a resource term.
    fn encode_instance(&mut self, term: &Term) -> Result<u64, StreamError> {
        let key = instance_key(term).ok_or_else(|| {
            StreamError::Malformed(format!("literal in resource position: {term}"))
        })?;
        if let Some(id) = self.base.dictionaries().instances.id(&key) {
            return Ok(id);
        }
        Ok(self.ovf_instances.get_or_insert(&key))
    }

    fn encode_property(&mut self, iri: &str) -> u64 {
        self.base
            .property_id(iri)
            .unwrap_or_else(|| self.ovf_properties.get_or_insert(iri))
    }

    fn encode_concept(&mut self, iri: &str) -> u64 {
        self.base
            .concept_id(iri)
            .unwrap_or_else(|| self.ovf_concepts.get_or_insert(iri))
    }

    /// The literal content behind a hybrid literal id (baseline flat-store
    /// index or overflow delta id).
    fn literal_content(&self, idx: u64) -> Option<&Literal> {
        if idx >= OVERFLOW_BASE {
            self.delta.literal(idx - OVERFLOW_BASE)
        } else {
            self.base.literal(idx)
        }
    }

    /// Delta key of a query `Value` object, if expressible (a literal
    /// unknown to the overlay has no key — and no overlay entries).
    fn delta_key_of(&self, o: &Value) -> Option<DeltaObj> {
        match o {
            Value::Instance(id) => Some(DeltaObj::Inst(*id)),
            Value::Literal(idx) => {
                let lit = self.literal_content(*idx)?;
                self.delta.literal_id(lit).map(DeltaObj::Lit)
            }
            _ => None,
        }
    }

    fn obj_to_value(&self, o: DeltaObj) -> Value {
        match o {
            DeltaObj::Inst(id) => Value::Instance(id),
            DeltaObj::Lit(local) => Value::Literal(OVERFLOW_BASE + local),
        }
    }

    /// `true` if the baseline value at `(p, s, v)` is tombstoned.
    fn tombstoned(&self, p: u64, s: u64, v: &Value) -> bool {
        match self.delta_key_of(v) {
            Some(key) => self.delta.state(p, s, key) == Some(DeltaState::Deleted),
            None => false,
        }
    }

    // -------------------------------------------------------------- ingestion

    /// Turns net-delta capture on or off: when on, every
    /// [`apply`](HybridStore::apply) report carries a [`BatchDelta`] with
    /// the batch's net term-space changes.
    pub fn set_delta_capture(&mut self, on: bool) {
        self.capture_delta = on;
    }

    /// Whether `apply` reports carry a [`BatchDelta`].
    pub fn delta_capture(&self) -> bool {
        self.capture_delta
    }

    /// Attaches a write-ahead log over `dir`: first checkpoints the
    /// store there (so the directory always holds a manifest the log's
    /// records chain onto), then every successful [`apply`] appends the
    /// batch's net delta per `config` before returning. [`load`] replays
    /// the tail past the manifest automatically; the recovered store has
    /// no log attached — call `attach_wal` again to keep appending.
    ///
    /// [`apply`]: HybridStore::apply
    /// [`load`]: HybridStore::load
    pub fn attach_wal(
        &mut self,
        dir: &Path,
        config: crate::wal::WalConfig,
    ) -> Result<SaveReport, StreamError> {
        let report = self.save(dir)?;
        let wal = crate::wal::Wal::open(dir, config)?;
        *lock_wal(&self.wal) = Some(wal);
        Ok(report)
    }

    /// Whether a write-ahead log is attached.
    pub fn wal_attached(&self) -> bool {
        lock_wal(&self.wal).is_some()
    }

    /// Fsyncs any buffered log records (a no-op without an attached log
    /// or under [`SyncPolicy::EveryBatch`](crate::wal::SyncPolicy), where
    /// every record is already durable) — the graceful-shutdown drain.
    pub fn wal_flush(&self) -> Result<(), StreamError> {
        match lock_wal(&self.wal).as_mut() {
            Some(wal) => wal.flush(),
            None => Ok(()),
        }
    }

    /// Applies one batch: deletions first, then insertions (an insert of a
    /// triple deleted in the same batch wins). Compacts afterwards if the
    /// overlay crossed the policy threshold. With a WAL attached the
    /// record is appended (and synced per policy) before `Ok` returns:
    /// an error means the batch must not be acknowledged — it is applied
    /// in memory but its durability is unknown.
    pub fn apply(&mut self, inserts: &Graph, deletes: &Graph) -> Result<IngestReport, StreamError> {
        let t0 = Instant::now();
        let wal_on = self.wal_attached();
        let mut report = IngestReport::default();
        let mut events: Option<Vec<(Triple, i64)>> = (self.capture_delta || wal_on).then(Vec::new);
        for t in deletes {
            if self.delete_triple(t)? {
                report.deleted += 1;
                if let Some(ev) = events.as_mut() {
                    ev.push((t.clone(), -1));
                }
            } else {
                report.noops += 1;
            }
        }
        for t in inserts {
            if self.insert_triple(t)? {
                report.inserted += 1;
                if let Some(ev) = events.as_mut() {
                    ev.push((t.clone(), 1));
                }
            } else {
                report.noops += 1;
            }
        }
        let delta = events.map(BatchDelta::from_events);
        report.ingest = t0.elapsed();
        self.stats.total_inserted += report.inserted;
        self.stats.total_deleted += report.deleted;
        self.stats.total_ingest += report.ingest;
        if self.delta.overlay_len() >= self.policy.max_overlay {
            let t1 = Instant::now();
            self.compact()?;
            report.compacted = true;
            report.compaction = t1.elapsed();
        }
        self.epoch += 1;
        if let Some(cache) = &self.plan_cache {
            cache.set_epoch(self.epoch);
        }
        if wal_on {
            let d = delta.as_ref().expect("wal_on forces event capture");
            if let Some(wal) = lock_wal(&self.wal).as_mut() {
                wal.append(self.epoch, d)?;
            }
        }
        // The report only carries the delta when the caller asked for
        // capture — the WAL forcing events internally stays invisible.
        report.delta = if self.capture_delta { delta } else { None };
        Ok(report)
    }

    /// Inserts one triple. Returns `true` if it became visible (`false`
    /// for duplicates).
    pub fn insert_triple(&mut self, t: &Triple) -> Result<bool, StreamError> {
        self.mutate_triple(t, true)
    }

    /// Deletes one triple. Returns `true` if it stopped being visible
    /// (`false` if it was not present).
    pub fn delete_triple(&mut self, t: &Triple) -> Result<bool, StreamError> {
        self.mutate_triple(t, false)
    }

    /// Applies one insert/delete. Ids are resolved read-only first so
    /// no-op operations (duplicate inserts, deletes of absent triples)
    /// allocate nothing in the overflow dictionaries or the literal table
    /// — otherwise a stream of no-ops referencing fresh terms would grow
    /// memory that no compaction bounds.
    fn mutate_triple(&mut self, t: &Triple, insert: bool) -> Result<bool, StreamError> {
        let Some(p_iri) = t.predicate.as_iri() else {
            return Err(StreamError::Malformed(format!("non-IRI predicate: {t}")));
        };
        if t.subject.is_literal() {
            return Err(StreamError::Malformed(format!("literal subject: {t}")));
        }
        let p_iri = p_iri.to_string();
        let s_key = instance_key(&t.subject).expect("subject validated as resource");
        let s_resolved = self
            .base
            .dictionaries()
            .instances
            .id(&s_key)
            .or_else(|| self.ovf_instances.id(&s_key));

        if t.is_type_triple() {
            let Some(c_iri) = t.object.as_iri() else {
                return Err(StreamError::Malformed(format!(
                    "rdf:type with non-IRI object: {t}"
                )));
            };
            let c_resolved = self
                .base
                .concept_id(c_iri)
                .or_else(|| self.ovf_concepts.id(c_iri));
            let (Some(s), Some(c)) = (s_resolved, c_resolved) else {
                // A term is entirely unknown: the triple cannot be present.
                if !insert {
                    return Ok(false);
                }
                let s = self.encode_instance(&t.subject)?;
                let c = self.encode_concept(c_iri);
                self.delta.set_type(s, c, DeltaState::Added);
                return Ok(true);
            };
            let base_has =
                c < OVERFLOW_BASE && self.is_base_instance(s) && self.base.has_type(s, c);
            let old = self.delta.type_state(s, c);
            return Ok(match transition(old, base_has, insert) {
                Some(new) => {
                    self.delta.set_type(s, c, new);
                    true
                }
                None => false,
            });
        }

        let p_resolved = self
            .base
            .property_id(&p_iri)
            .or_else(|| self.ovf_properties.id(&p_iri));
        match &t.object {
            Term::Literal(lit) => {
                let (Some(s), Some(p)) = (s_resolved, p_resolved) else {
                    if !insert {
                        return Ok(false);
                    }
                    let s = self.encode_instance(&t.subject)?;
                    let p = self.encode_property(&p_iri);
                    let local = self.delta.intern_literal(lit);
                    self.delta
                        .set(p, s, DeltaObj::Lit(local), DeltaState::Added);
                    return Ok(true);
                };
                let base_has = p < OVERFLOW_BASE
                    && self.is_base_instance(s)
                    && self.base.subjects_by_literal(p, lit).contains(&s);
                let old = self
                    .delta
                    .literal_id(lit)
                    .and_then(|l| self.delta.state(p, s, DeltaObj::Lit(l)));
                Ok(match transition(old, base_has, insert) {
                    Some(new) => {
                        let local = self.delta.intern_literal(lit);
                        self.delta.set(p, s, DeltaObj::Lit(local), new);
                        true
                    }
                    None => false,
                })
            }
            other => {
                let o_key = instance_key(other).expect("non-literal object is a resource");
                let o_resolved = self
                    .base
                    .dictionaries()
                    .instances
                    .id(&o_key)
                    .or_else(|| self.ovf_instances.id(&o_key));
                let (Some(s), Some(p), Some(o)) = (s_resolved, p_resolved, o_resolved) else {
                    if !insert {
                        return Ok(false);
                    }
                    let s = self.encode_instance(&t.subject)?;
                    let p = self.encode_property(&p_iri);
                    let o = self.encode_instance(other)?;
                    self.delta.set(p, s, DeltaObj::Inst(o), DeltaState::Added);
                    return Ok(true);
                };
                let base_has = p < OVERFLOW_BASE
                    && self.is_base_instance(s)
                    && self.is_base_instance(o)
                    && self.base.contains(p, s, &Value::Instance(o));
                let old = self.delta.state(p, s, DeltaObj::Inst(o));
                Ok(match transition(old, base_has, insert) {
                    Some(new) => {
                        self.delta.set(p, s, DeltaObj::Inst(o), new);
                        true
                    }
                    None => false,
                })
            }
        }
    }

    // -------------------------------------------------------------- compaction

    /// Decodes a property id (baseline or overflow) to its IRI term.
    fn property_term(&self, id: u64) -> Term {
        let iri = if id >= OVERFLOW_BASE {
            self.ovf_properties.term(id)
        } else {
            self.base.dictionaries().properties.term_arc(id)
        };
        Term::Iri(iri.expect("dictionary-complete property id"))
    }

    /// Decodes a concept id (baseline or overflow) to its IRI term.
    fn concept_term(&self, id: u64) -> Term {
        let iri = if id >= OVERFLOW_BASE {
            self.ovf_concepts.term(id)
        } else {
            self.base.dictionaries().concepts.term_arc(id)
        };
        Term::Iri(iri.expect("dictionary-complete concept id"))
    }

    /// Materializes the current hybrid view as a term-space graph
    /// (baseline minus tombstones plus overlay insertions).
    pub fn materialize(&self) -> Graph {
        let mut g = Graph::new();
        let decode_inst = |id: u64| self.term_of_instance(id).expect("dictionary-complete id");
        let prop_term = |id: u64| self.property_term(id);
        let concept_term = |id: u64| self.concept_term(id);
        let rdf_type = Term::iri(se_rdf::vocab::rdf::TYPE);

        // Baseline, minus tombstones.
        for (p, s, o) in self.base.object_layer().iter() {
            if self.delta.state(p, s, DeltaObj::Inst(o)) != Some(DeltaState::Deleted) {
                g.insert(Triple::new(decode_inst(s), prop_term(p), decode_inst(o)));
            }
        }
        for (p, s, li) in self.base.datatype_layer().iter() {
            let lit = self.base.literal(li).expect("in-range literal index");
            let dead = self
                .delta
                .literal_id(lit)
                .map(|local| self.delta.state(p, s, DeltaObj::Lit(local)))
                == Some(Some(DeltaState::Deleted));
            if !dead {
                g.insert(Triple::new(
                    decode_inst(s),
                    prop_term(p),
                    Term::Literal(lit.clone()),
                ));
            }
        }
        for (s, c) in self.base.type_store().iter() {
            if self.delta.type_state(s, c) != Some(DeltaState::Deleted) {
                g.insert(Triple::new(
                    decode_inst(s),
                    rdf_type.clone(),
                    concept_term(c),
                ));
            }
        }

        // Overlay insertions.
        for (p, s, o, st) in self.delta.iter() {
            if st == DeltaState::Added {
                let object = match o {
                    DeltaObj::Inst(id) => decode_inst(id),
                    DeltaObj::Lit(local) => {
                        Term::Literal(self.delta.literal(local).expect("interned literal").clone())
                    }
                };
                g.insert(Triple::new(decode_inst(s), prop_term(p), object));
            }
        }
        for (s, c, st) in self.delta.type_iter() {
            if st == DeltaState::Added {
                g.insert(Triple::new(
                    decode_inst(s),
                    rdf_type.clone(),
                    concept_term(c),
                ));
            }
        }
        g
    }

    /// Snapshots the hybrid view as a pure, `Send` rebuild plan. The
    /// expensive part — [`CompactionPlan::build`] — borrows nothing from
    /// the store, so a caller can run it on a worker thread while `apply`
    /// keeps ingesting, then fold the result back with
    /// [`HybridStore::swap_baseline`].
    pub fn plan_compaction(&self) -> CompactionPlan {
        CompactionPlan {
            graph: self.materialize(),
            ontology: self.ontology.clone(),
        }
    }

    /// Installs a rebuilt baseline (normally the output of
    /// [`CompactionPlan::build`]) and rebases the live overlay onto it.
    ///
    /// Every overlay entry present at plan time is covered by the rebuilt
    /// baseline and collapses to a no-op; entries recorded *after* the
    /// plan was taken (writes that raced a background rebuild) are
    /// replayed in term space, so the swap is atomic from the query
    /// perspective: the merged view before and after describes the same
    /// graph plus the raced writes.
    pub fn swap_baseline(&mut self, rebuilt: SuccinctEdgeStore) -> Result<(), StreamError> {
        let replay = self.overlay_term_ops();
        self.base = Arc::new(rebuilt);
        self.generation = crate::persist::next_generation();
        self.delta.clear();
        self.ovf_instances
            .reset(self.base.dictionaries().instances.len() as u64);
        self.ovf_properties.clear();
        self.ovf_concepts.clear();
        self.stats.compactions += 1;
        for (t, visible) in replay {
            if visible {
                self.insert_triple(&t)?;
            } else {
                self.delete_triple(&t)?;
            }
        }
        Ok(())
    }

    /// The live overlay decoded to term space, with the visibility each
    /// entry asserts (`true` = the triple must be visible).
    fn overlay_term_ops(&self) -> Vec<(Triple, bool)> {
        let decode_inst = |id: u64| self.term_of_instance(id).expect("dictionary-complete id");
        let rdf_type = Term::iri(se_rdf::vocab::rdf::TYPE);
        let mut ops = Vec::with_capacity(self.delta.overlay_len());
        for (p, s, o, st) in self.delta.iter() {
            let object = match o {
                DeltaObj::Inst(id) => decode_inst(id),
                DeltaObj::Lit(local) => {
                    Term::Literal(self.delta.literal(local).expect("interned literal").clone())
                }
            };
            ops.push((
                Triple::new(decode_inst(s), self.property_term(p), object),
                st.present(),
            ));
        }
        for (s, c, st) in self.delta.type_iter() {
            ops.push((
                Triple::new(decode_inst(s), rdf_type.clone(), self.concept_term(c)),
                st.present(),
            ));
        }
        ops
    }

    /// Rebuilds the succinct baseline from baseline + overlay and clears
    /// the overlay, inline ([`HybridStore::plan_compaction`] +
    /// [`CompactionPlan::build`] + [`HybridStore::swap_baseline`] in one
    /// blocking call). Overflow terms are folded into the dictionaries by
    /// the builder's augmentation step and become reasoning-capable.
    pub fn compact(&mut self) -> Result<(), StreamError> {
        let t0 = Instant::now();
        let rebuilt = self.plan_compaction().build()?;
        self.swap_baseline(rebuilt)?;
        self.stats.total_compaction += t0.elapsed();
        Ok(())
    }

    // -------------------------------------------------------------- persistence
    //
    // The v02 directory format — `save` is `&self`, O(delta) and never
    // compacts — lives in [`crate::persist`]. The method below is the
    // legacy v01 single-file load, kept so stores written by older builds
    // stay loadable.

    /// Loads a persisted v01 baseline file and wraps it with an empty
    /// overlay. [`HybridStore::load`](crate::persist) accepts both this
    /// format and the v02 directory layout.
    pub fn load_from_file(path: &Path, ontology: Ontology) -> Result<Self, StreamError> {
        let base = SuccinctEdgeStore::load_from_file(path)?;
        Ok(Self::new(base, ontology))
    }

    // ----------------------------------------------------- merged access parts

    /// Base + delta predicates intersecting `[lo, hi)`, ascending.
    fn merged_predicates(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut preds = BTreeSet::new();
        for idx in self.base.object_layer().predicate_range(lo, hi) {
            preds.insert(self.base.object_layer().predicate_at(idx));
        }
        for idx in self.base.datatype_layer().predicate_range(lo, hi) {
            preds.insert(self.base.datatype_layer().predicate_at(idx));
        }
        preds.extend(self.delta.predicates_in(lo, hi));
        preds.into_iter().collect()
    }

    /// Subject-sorted merge of a filtered baseline pair list with overlay
    /// additions (both inputs subject-sorted).
    fn merge_pairs(
        &self,
        base: Vec<(u64, Value)>,
        added: Vec<(u64, Value)>,
        p: u64,
    ) -> Vec<(u64, Value)> {
        let mut out = Vec::with_capacity(base.len() + added.len());
        let (mut i, mut j) = (0, 0);
        while i < base.len() || j < added.len() {
            let take_base = match (base.get(i), added.get(j)) {
                (Some(b), Some(a)) => b.0 <= a.0,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_base {
                let (s, v) = base[i];
                i += 1;
                if !self.tombstoned(p, s, &v) {
                    out.push((s, v));
                }
            } else {
                out.push(added[j]);
                j += 1;
            }
        }
        out
    }
}

/// A pure compaction snapshot: the materialized hybrid view plus the
/// ontology, detached from the store. `build` is the expensive rebuild
/// step and can run on a worker thread (the plan is `Send`); the result
/// is folded back with [`HybridStore::swap_baseline`].
#[derive(Debug, Clone)]
pub struct CompactionPlan {
    graph: Graph,
    ontology: Ontology,
}

impl CompactionPlan {
    /// Rebuilds the succinct layers from the snapshot. Pure: no access to
    /// the live store, safe to run concurrently with ingestion.
    pub fn build(&self) -> Result<SuccinctEdgeStore, StreamError> {
        Ok(SuccinctEdgeStore::build(&self.ontology, &self.graph)?)
    }

    /// Number of triples in the snapshot.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// `true` if the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }
}

/// State transition of one triple given its overlay state, baseline
/// membership and the requested operation. `None` means no-op. Shared
/// with the sharded store's ingest workers.
pub(crate) fn transition(
    old: Option<DeltaState>,
    base_has: bool,
    insert: bool,
) -> Option<DeltaState> {
    use DeltaState::*;
    if insert {
        match old {
            None if base_has => None,
            None => Some(Added),
            Some(Added) | Some(Restored) => None,
            Some(Deleted) => Some(Restored),
            Some(Cancelled) => Some(Added),
        }
    } else {
        match old {
            None if base_has => Some(Deleted),
            None => None,
            Some(Added) => Some(Cancelled),
            Some(Restored) => Some(Deleted),
            Some(Deleted) | Some(Cancelled) => None,
        }
    }
}

impl TripleSource for HybridStore {
    fn instance_id(&self, term: &Term) -> Option<u64> {
        self.base.instance_id(term).or_else(|| {
            let key = instance_key(term)?;
            self.ovf_instances.id(&key)
        })
    }

    fn property_id(&self, iri: &str) -> Option<u64> {
        self.base
            .property_id(iri)
            .or_else(|| self.ovf_properties.id(iri))
    }

    fn concept_id(&self, iri: &str) -> Option<u64> {
        self.base
            .concept_id(iri)
            .or_else(|| self.ovf_concepts.id(iri))
    }

    fn property_interval(&self, iri: &str) -> Option<IdInterval> {
        self.base.property_interval(iri).or_else(|| {
            self.ovf_properties.id(iri).map(|id| IdInterval {
                lower: id,
                upper: id + 1,
            })
        })
    }

    fn concept_interval(&self, iri: &str) -> Option<IdInterval> {
        self.base.concept_interval(iri).or_else(|| {
            self.ovf_concepts.id(iri).map(|id| IdInterval {
                lower: id,
                upper: id + 1,
            })
        })
    }

    fn value_to_term(&self, value: Value) -> Option<Term> {
        match value {
            Value::Instance(id) => self.term_of_instance(id),
            Value::Concept(id) => {
                if id >= OVERFLOW_BASE {
                    self.ovf_concepts.term(id).map(Term::Iri)
                } else {
                    self.base.value_to_term(value)
                }
            }
            Value::Property(id) => {
                if id >= OVERFLOW_BASE {
                    self.ovf_properties.term(id).map(Term::Iri)
                } else {
                    self.base.value_to_term(value)
                }
            }
            Value::Literal(idx) => self.literal_content(idx).map(|l| Term::Literal(l.clone())),
        }
    }

    fn literal(&self, idx: u64) -> Option<&Literal> {
        self.literal_content(idx)
    }

    fn objects(&self, p: u64, s: u64) -> Vec<Value> {
        let mut out = Vec::new();
        if p < OVERFLOW_BASE && self.is_base_instance(s) {
            for v in self.base.objects(p, s) {
                if !self.tombstoned(p, s, &v) {
                    out.push(v);
                }
            }
        }
        for (o, st) in self.delta.objects(p, s) {
            if st == DeltaState::Added {
                out.push(self.obj_to_value(o));
            }
        }
        out
    }

    fn subjects(&self, p: u64, o: &Value) -> Vec<u64> {
        match o {
            Value::Instance(oid) => {
                let mut out = Vec::new();
                if p < OVERFLOW_BASE && self.is_base_instance(*oid) {
                    out.extend(
                        self.base
                            .subjects(p, o)
                            .into_iter()
                            .filter(|&s| !self.tombstoned(p, s, o)),
                    );
                }
                for (s, st) in self.delta.subjects(p, DeltaObj::Inst(*oid)) {
                    if st == DeltaState::Added {
                        out.push(s);
                    }
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            Value::Literal(idx) => match self.literal_content(*idx) {
                Some(lit) => {
                    let lit = lit.clone();
                    self.subjects_by_literal(p, &lit)
                }
                None => Vec::new(),
            },
            _ => Vec::new(),
        }
    }

    fn subjects_by_literal(&self, p: u64, lit: &Literal) -> Vec<u64> {
        let mut out = Vec::new();
        let local = self.delta.literal_id(lit);
        if p < OVERFLOW_BASE {
            out.extend(
                self.base
                    .subjects_by_literal(p, lit)
                    .into_iter()
                    .filter(|&s| {
                        local.map(|l| self.delta.state(p, s, DeltaObj::Lit(l)))
                            != Some(Some(DeltaState::Deleted))
                    }),
            );
        }
        if let Some(l) = local {
            for (s, st) in self.delta.subjects(p, DeltaObj::Lit(l)) {
                if st == DeltaState::Added {
                    out.push(s);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn scan_predicate(&self, p: u64) -> Vec<(u64, Value)> {
        let (mut added_inst, mut added_lit) = (Vec::new(), Vec::new());
        for (s, o, st) in self.delta.scan(p) {
            if st == DeltaState::Added {
                match o {
                    DeltaObj::Inst(_) => added_inst.push((s, self.obj_to_value(o))),
                    DeltaObj::Lit(_) => added_lit.push((s, self.obj_to_value(o))),
                }
            }
        }
        let (base_inst, base_lit) = if p < OVERFLOW_BASE {
            (
                self.base
                    .object_layer()
                    .scan_predicate(p)
                    .into_iter()
                    .map(|(s, o)| (s, Value::Instance(o)))
                    .collect(),
                self.base
                    .datatype_layer()
                    .scan_predicate(p)
                    .into_iter()
                    .map(|(s, i)| (s, Value::Literal(i)))
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let inst = self.merge_pairs(base_inst, added_inst, p);
        let lit = self.merge_pairs(base_lit, added_lit, p);
        // Merge the instance and literal runs into one globally
        // subject-sorted list (ties: instances first) — the trait contract
        // the merge join relies on.
        let mut out = Vec::with_capacity(inst.len() + lit.len());
        let (mut i, mut j) = (0, 0);
        while i < inst.len() || j < lit.len() {
            let take_inst = match (inst.get(i), lit.get(j)) {
                (Some(a), Some(b)) => a.0 <= b.0,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_inst {
                out.push(inst[i]);
                i += 1;
            } else {
                out.push(lit[j]);
                j += 1;
            }
        }
        out
    }

    fn contains(&self, p: u64, s: u64, o: &Value) -> bool {
        if let Some(key) = self.delta_key_of(o) {
            if let Some(st) = self.delta.state(p, s, key) {
                return st.present();
            }
        }
        if p >= OVERFLOW_BASE || !self.is_base_instance(s) {
            return false;
        }
        match o {
            Value::Instance(oid) => self.is_base_instance(*oid) && self.base.contains(p, s, o),
            Value::Literal(idx) => match self.literal_content(*idx) {
                Some(lit) => self.base.subjects_by_literal(p, lit).contains(&s),
                None => false,
            },
            _ => false,
        }
    }

    fn objects_interval(&self, p_iv: IdInterval, s: u64) -> Vec<Value> {
        let mut out = Vec::new();
        for p in self.merged_predicates(p_iv.lower, p_iv.upper) {
            out.extend(self.objects(p, s));
        }
        out
    }

    fn subjects_interval(&self, p_iv: IdInterval, o: &Value) -> Vec<u64> {
        let mut out = Vec::new();
        for p in self.merged_predicates(p_iv.lower, p_iv.upper) {
            out.extend(self.subjects(p, o));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn subjects_by_literal_interval(&self, p_iv: IdInterval, lit: &Literal) -> Vec<u64> {
        let mut out = Vec::new();
        for p in self.merged_predicates(p_iv.lower, p_iv.upper) {
            out.extend(self.subjects_by_literal(p, lit));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn scan_interval(&self, p_iv: IdInterval) -> Vec<(u64, Value)> {
        let mut out = Vec::new();
        for p in self.merged_predicates(p_iv.lower, p_iv.upper) {
            out.extend(self.scan_predicate(p));
        }
        out
    }

    fn subjects_of_concept(&self, c: u64) -> Vec<u64> {
        self.subjects_of_concept_interval(IdInterval {
            lower: c,
            upper: c + 1,
        })
    }

    fn subjects_of_concept_interval(&self, iv: IdInterval) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .base
            .type_store()
            .pairs_in_interval(iv)
            .into_iter()
            .filter(|&(c, s)| self.delta.type_state(s, c) != Some(DeltaState::Deleted))
            .map(|(_, s)| s)
            .collect();
        for (_, s, st) in self.delta.type_subjects_in(iv.lower, iv.upper) {
            if st == DeltaState::Added {
                out.push(s);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn concepts_of_subject(&self, s: u64) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        if self.is_base_instance(s) {
            out.extend(
                self.base
                    .concepts_of_subject(s)
                    .into_iter()
                    .filter(|&c| self.delta.type_state(s, c) != Some(DeltaState::Deleted)),
            );
        }
        for (c, st) in self.delta.type_concepts_of(s, 0, u64::MAX) {
            if st == DeltaState::Added {
                out.push(c);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn has_type(&self, s: u64, c: u64) -> bool {
        match self.delta.type_state(s, c) {
            Some(st) => st.present(),
            None => self.is_base_instance(s) && c < OVERFLOW_BASE && self.base.has_type(s, c),
        }
    }

    fn has_type_in_interval(&self, s: u64, iv: IdInterval) -> bool {
        let overlay = self.delta.type_concepts_of(s, iv.lower, iv.upper);
        if overlay.iter().any(|&(_, st)| st.present()) {
            return true;
        }
        if !self.is_base_instance(s) {
            return false;
        }
        if overlay.iter().all(|&(_, st)| st != DeltaState::Deleted) {
            return self.base.has_type_in_interval(s, iv);
        }
        // Some base types of `s` in the interval are tombstoned: check the
        // survivors individually.
        self.base
            .concepts_of_subject(s)
            .into_iter()
            .any(|c| iv.contains(c) && self.delta.type_state(s, c) != Some(DeltaState::Deleted))
    }

    fn type_pairs(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .base
            .type_store()
            .iter()
            .filter(|&(s, c)| self.delta.type_state(s, c) != Some(DeltaState::Deleted))
            .collect();
        for (s, c, st) in self.delta.type_iter() {
            if st == DeltaState::Added {
                out.push((s, c));
            }
        }
        out.sort_unstable();
        out
    }

    fn len(&self) -> usize {
        (self.base.len() as isize + self.delta.net_triples()) as usize
    }

    fn predicate_count(&self, p: u64) -> usize {
        let base = if p < OVERFLOW_BASE {
            self.base.predicate_count(p)
        } else {
            0
        };
        let mut n = base as isize;
        for (_, _, st) in self.delta.scan(p) {
            match st {
                DeltaState::Added => n += 1,
                DeltaState::Deleted => n -= 1,
                _ => {}
            }
        }
        n.max(0) as usize
    }

    fn predicate_interval_count(&self, iv: IdInterval) -> usize {
        self.merged_predicates(iv.lower, iv.upper)
            .into_iter()
            .map(|p| self.predicate_count(p))
            .sum()
    }

    fn type_count(&self, iv: IdInterval) -> usize {
        let mut n = self.base.type_count(iv) as isize;
        for (_, _, st) in self.delta.type_subjects_in(iv.lower, iv.upper) {
            match st {
                DeltaState::Added => n += 1,
                DeltaState::Deleted => n -= 1,
                _ => {}
            }
        }
        n.max(0) as usize
    }

    fn type_total(&self) -> usize {
        let mut n = self.base.type_store().len() as isize;
        for (_, _, st) in self.delta.type_iter() {
            match st {
                DeltaState::Added => n += 1,
                DeltaState::Deleted => n -= 1,
                _ => {}
            }
        }
        n.max(0) as usize
    }
}
