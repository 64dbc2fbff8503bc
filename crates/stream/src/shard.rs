//! The streaming store: an immutable succinct baseline plus a mutable
//! overlay, partitioned by predicate into one or more shards behind the
//! [`TripleSource`] seam.
//!
//! `ShardedHybridStore::build(ontology, graph, 1)` is the single-store
//! configuration — one shard, one overlay. With N shards the triple space is partitioned
//! **by predicate** (`rdf:type` triples by concept):
//!
//! * **One global identifier space.** The store owns the dictionaries:
//!   instances get dense, append-only global ids; properties and concepts
//!   carry the LiteMat codes of one global, build-time encoding (new terms
//!   go to shared overflow dictionaries above [`OVERFLOW_BASE`]);
//!   overlay literals live in a shared content-interned table. Because
//!   every shard stores triples in this shared id space, the
//!   scatter/gather view needs **no id translation** — a subject id
//!   bound from one shard joins directly against pairs gathered from
//!   another. Baseline literal indices are
//!   shard-local and disambiguated by a fixed per-shard block of size
//!   [`LIT_SHARD_STRIDE`]; literal joins are content-based per the
//!   `TripleSource` contract, so distinct ids for equal content are sound.
//! * **Ingest on the caller.** `apply` validates the whole batch, encodes
//!   and routes every operation into recycled per-shard lists, then runs
//!   each shard's list (baseline-membership probes and ordered-map
//!   overlay insertion) on the calling thread. A malformed triple rejects
//!   the whole batch before any mutation.
//! * **Scatter/gather queries.** A predicate-bound pattern routes to
//!   exactly one shard. LiteMat property-interval patterns fan out over
//!   `properties_in` — every predicate of any shard inside the interval —
//!   through the generic interval functions of `se_core::source`, which
//!   k-way-merge the subject-sorted runs, so the merge-join contract
//!   (`scan_predicate` subject-sorted, `subjects*` ascending/deduplicated)
//!   holds across shards.
//! * **One baseline type.** A shard is an `Arc<`[`Baseline`]`>` plus its
//!   overlay. Build, compaction and the static `SuccinctEdgeStore` share
//!   se-core's encode pass and freeze step, and every probe here is the
//!   baseline's own probe plus tombstone filtering and overlay entries.
//! * **Inline compaction.** When a shard's overlay crosses
//!   [`CompactionPolicy::max_overlay`], the `apply` that crossed it folds
//!   the shard's live triples into a fresh baseline **in the same id
//!   space** (no re-encoding) on the calling thread, installs it and
//!   clears the overlay ([`compact_shard`](ShardedHybridStore::compact_shard)).
//!   The baseline is `Arc`-shared, so a snapshot taken before the fold
//!   keeps the old one.
//! * **Threads.** `build` freezes each shard's baseline on a scoped
//!   thread that is joined before it returns. After `build` the store
//!   never starts a thread: ingest, compaction and probes run on the
//!   caller. Only a [`StreamSession`](crate::StreamSession)'s
//!   continuous-query fan-out (`EvalMode::Scoped`) does.
//!
//! The price of never re-encoding: properties and concepts first seen in
//! the stream keep their overflow singleton intervals even after
//! compaction, so subsumption reasoning over a stream-born term sees only
//! its own assertions. ROADMAP item 9 — LiteMat codes with headroom, so
//! a stream-born subterm takes a free code inside its parent's interval
//! without moving any existing id — would close that gap.

use crate::delta::{BatchDelta, DeltaObj, DeltaState, DeltaStore, LiteralTable};
use crate::error::StreamError;
use se_core::baseline::{encode_partitions, Baseline, BaselineInput, PartitionKey};
use se_core::builder::{instance_key, key_to_term_arc};
use se_core::source::kway_merge_by_subject;
use se_core::{augment_ontology, BuildError, TripleSource, Value};
use se_litemat::{Dictionaries, IdInterval};
use se_ontology::Ontology;
use se_rdf::{Graph, Literal, Term, Triple};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First identifier of the overflow id space for properties, concepts and
/// overlay literals. LiteMat codes and baseline literal ids stay far below
/// this in any realistic store.
pub const OVERFLOW_BASE: u64 = 1 << 62;

/// Size of the baseline-literal id block reserved per shard. Global
/// baseline literal id = `shard * LIT_SHARD_STRIDE + local`; all blocks
/// stay far below [`OVERFLOW_BASE`] (shared overlay literals) for any
/// realistic shard count.
pub const LIT_SHARD_STRIDE: u64 = 1 << 44;

/// Hard ceiling on the shard count (keeps every literal block below
/// `OVERFLOW_BASE` with room to spare).
pub const MAX_SHARDS: usize = 1 << 16;

/// When to fold a shard's overlay into its succinct layers.
#[derive(Debug, Clone, Copy)]
pub struct CompactionPolicy {
    /// Rebuild once a shard's overlay holds at least this many entries
    /// (inserted or tombstoned triples).
    pub max_overlay: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self { max_overlay: 4096 }
    }
}

/// Outcome of one [`ShardedHybridStore::apply`] batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Triples that became visible.
    pub inserted: usize,
    /// Triples that became invisible.
    pub deleted: usize,
    /// Operations with no effect (duplicate inserts, deletes of absent
    /// triples).
    pub noops: usize,
    /// `true` if this batch compacted a shard.
    pub compacted: bool,
    /// Time spent routing + applying the overlay mutations of this batch
    /// (compaction excluded).
    pub ingest: Duration,
    /// Time this batch's `apply` call spent folding overlays into fresh
    /// layers; zero when it compacted nothing.
    pub compaction: Duration,
    /// The batch's net term-space changes, captured only when the store's
    /// delta capture is enabled (see
    /// [`ShardedHybridStore::set_delta_capture`]) — `None` otherwise, so
    /// plain ingest paths pay nothing for it.
    pub delta: Option<BatchDelta>,
}

/// Locks a store's WAL slot, surviving a poisoned mutex (the WAL's own
/// state is fail-stop: a panicked appender leaves it no worse than a
/// crash, which recovery is built for).
pub(crate) fn lock_wal(
    m: &std::sync::Mutex<Option<crate::wal::Wal>>,
) -> std::sync::MutexGuard<'_, Option<crate::wal::Wal>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Overflow dictionary for properties or concepts: ids above
/// [`OVERFLOW_BASE`], no hierarchy, one global space across all shards.
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

    /// The overflow IRIs in id order (`OVERFLOW_BASE + position`).
    pub(crate) fn terms(&self) -> &[Arc<str>] {
        &self.terms
    }
}

/// The routing table: property id → shard and concept id → shard, filled
/// from the global dictionaries at build time and extended as overflow
/// terms are interned. Terms are spread round-robin in first-seen
/// dictionary order (balanced by construction). Ids are stable for the
/// lifetime of the store (no re-encoding), so a route never changes once
/// assigned.
#[derive(Debug, Clone)]
pub(crate) struct RoutingTable {
    n: usize,
    /// Round-robin cursor: the next unrouted term goes to `next % n`.
    pub(crate) next: usize,
    pub(crate) props: HashMap<u64, usize>,
    pub(crate) concepts: HashMap<u64, usize>,
}

impl RoutingTable {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n,
            next: 0,
            props: HashMap::new(),
            concepts: HashMap::new(),
        }
    }

    fn pick(&mut self) -> usize {
        let s = self.next % self.n;
        self.next += 1;
        s
    }

    fn assign_prop(&mut self, id: u64) -> usize {
        if let Some(&s) = self.props.get(&id) {
            return s;
        }
        let s = self.pick();
        self.props.insert(id, s);
        s
    }

    fn assign_concept(&mut self, id: u64) -> usize {
        if let Some(&s) = self.concepts.get(&id) {
            return s;
        }
        let s = self.pick();
        self.concepts.insert(id, s);
        s
    }

    fn prop(&self, id: u64) -> usize {
        self.props
            .get(&id)
            .copied()
            .unwrap_or((id % self.n as u64) as usize)
    }

    fn concept(&self, id: u64) -> usize {
        self.concepts
            .get(&id)
            .copied()
            .unwrap_or((id % self.n as u64) as usize)
    }
}

/// One predicate shard: an immutable [`Baseline`] over the shard's
/// predicate/concept partition, in the **global** id space, plus the
/// mutable overlay. The baseline is `Arc`-shared, so a snapshot takes it
/// for free.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) base: Arc<Baseline>,
    pub(crate) delta: DeltaStore,
    /// Identity of this shard's current layers, process-unique: bumped on
    /// every swap so the persistence layer knows when the on-disk layer
    /// file is stale (see [`crate::persist`]).
    pub(crate) gen: u64,
}

/// Lifetime counters of a [`ShardedHybridStore`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Shard compactions performed.
    pub compactions: usize,
    /// Always 0: every compaction runs inline. Kept only because the
    /// benchmark still reports it as `stream.background_compactions`.
    pub background_compactions: usize,
    /// Total triples inserted (effective).
    pub total_inserted: usize,
    /// Total triples deleted (effective).
    pub total_deleted: usize,
    /// Total hot-path time: encode + route + overlay insertion.
    pub total_ingest: Duration,
    /// Total compaction wall time: folding overlays into fresh layers.
    pub total_compaction: Duration,
    /// Logical write epoch: successful `apply` batches over the store's
    /// lifetime (restored across v02 save/load). Compactions do not
    /// advance it — they preserve content.
    pub epoch: u64,
    /// Snapshots taken over the store's lifetime.
    pub snapshots: usize,
    /// Snapshots currently alive, pinning resources (swapped-out shard
    /// layers, the shared overlay-literal table). A monotonically
    /// growing value here under a steady workload is a snapshot leak.
    pub live_pins: usize,
}

/// Encoded object position of one routed operation.
///
/// Literal ops carry their content (one `Arc` bump): the shard baseline
/// is probed by content, and effect decoding reads it back without a
/// table lookup.
#[derive(Debug, Clone)]
enum OpObj {
    Inst(u64),
    /// Shared-table literal id plus its content.
    Lit(u64, Arc<Literal>),
}

#[derive(Debug, Clone)]
struct Op {
    p: u64,
    s: u64,
    o: OpObj,
}

#[derive(Debug, Clone, Copy)]
struct TypeOp {
    s: u64,
    c: u64,
}

/// One *effective* (visibility-changing) operation, recorded per shard
/// when delta capture is on and decoded to a term-space triple after the
/// batch. Ops already carry everything routing resolved — literal
/// content included — so gathering them costs one push per effective op
/// and no shared-state access.
#[derive(Debug, Clone)]
enum EffOp {
    /// An object/datatype op; `true` = became visible, `false` = removed.
    Obj(Op, bool),
    /// An rdf:type op with the same insert flag.
    Type(TypeOp, bool),
}

/// The routed operation lists of one shard for one batch. The buffers
/// are recycled batch to batch (cleared, never dropped), so the
/// steady-state hot path allocates nothing for routing.
#[derive(Debug, Default)]
struct ShardOps {
    del: Vec<Op>,
    ins: Vec<Op>,
    type_del: Vec<TypeOp>,
    type_ins: Vec<TypeOp>,
}

impl ShardOps {
    /// Empties the lists, keeping their capacity for reuse.
    fn clear(&mut self) {
        self.del.clear();
        self.ins.clear();
        self.type_del.clear();
        self.type_ins.clear();
    }
}

/// Per-shard ingest outcome: `(inserted, deleted, noops)`.
type OpCounts = (usize, usize, usize);

/// A predicate-sharded hybrid store: N independent baseline+overlay
/// shards in one global id space, batch ingestion, scatter/gather
/// [`TripleSource`] view, and inline per-shard compaction. See the
/// module docs for the architecture.
#[derive(Debug)]
pub struct ShardedHybridStore {
    pub(crate) dicts: Dictionaries,
    ontology: Ontology,
    pub(crate) shards: Vec<Shard>,
    pub(crate) routes: RoutingTable,
    pub(crate) ovf_properties: OverflowDict,
    pub(crate) ovf_concepts: OverflowDict,
    pub(crate) literals: LiteralTable,
    policy: CompactionPolicy,
    /// What this store already has on disk — lets `save` skip the
    /// O(baseline) parts (see [`crate::persist`]). Interior mutability
    /// because `save` takes `&self`.
    pub(crate) persist_mark: std::sync::Mutex<Option<crate::persist::ShardedMark>>,
    /// Per-shard routing destinations of the batch being applied
    /// (recycled every batch).
    staging: Vec<ShardOps>,
    stats: ShardedStats,
    /// Logical write epoch: the number of successful `apply` batches over
    /// this store's lifetime. Persisted in the v02 manifest so epochs
    /// stay monotone across restarts.
    pub(crate) epoch: u64,
    /// Live snapshot pins: shared with every
    /// [`StoreSnapshot`](crate::snapshot::StoreSnapshot) taken from this
    /// store; each snapshot decrements it on drop. [`gc_literals`]
    /// treats a non-zero count as non-quiescent.
    /// [`gc_literals`]: ShardedHybridStore::gc_literals
    pub(crate) pins: Arc<AtomicUsize>,
    /// Snapshots taken over the store's lifetime (observability).
    snapshots_taken: AtomicUsize,
    /// When `true`, `apply` gathers each shard's effective ops and
    /// reports the batch's net term-space changes (what a leader ships
    /// to its replicas). Off by default.
    capture_delta: bool,
    /// Write-ahead log, when attached
    /// ([`attach_wal`](ShardedHybridStore::attach_wal)): every `apply`
    /// appends its net delta before returning. Interior mutability
    /// because `save` takes `&self` and must truncate covered segments
    /// after its manifest rename.
    pub(crate) wal: std::sync::Mutex<Option<crate::wal::Wal>>,
    /// Shared compiled-plan cache, when installed
    /// ([`set_plan_cache`](ShardedHybridStore::set_plan_cache)): every
    /// successful `apply` publishes the post-batch epoch so cached plans
    /// re-cost as the store ages — embedded callers applying directly
    /// (no `StreamSession`) included.
    plan_cache: Option<Arc<se_sparql::PlanCache>>,
}

impl ShardedHybridStore {
    /// Builds the store from an ontology and an initial graph, partitioned
    /// into `n_shards` (predicates and concepts routed round-robin). Each
    /// shard's baseline is frozen on its own scoped thread, and every one
    /// is joined before `build` returns.
    pub fn build(ontology: &Ontology, graph: &Graph, n_shards: usize) -> Result<Self, StreamError> {
        assert!(
            (1..=MAX_SHARDS).contains(&n_shards),
            "shard count must be in 1..={MAX_SHARDS}"
        );
        // One *global* augmentation + LiteMat encoding: every shard shares
        // the same property/concept codes and the same instance id space.
        let (augmented, _, _) = augment_ontology(ontology, graph)?;
        let mut dicts = augmented.encode().map_err(BuildError::from)?;
        let mut routes = RoutingTable::new(n_shards);
        for (_, enc) in dicts.properties.encoding().iter() {
            routes.assign_prop(enc.id);
        }
        for (_, enc) in dicts.concepts.encoding().iter() {
            routes.assign_concept(enc.id);
        }

        // Encode + route every triple to its shard's input lists, then
        // freeze the per-shard baselines, one worker per shard.
        let parts = encode_partitions(&mut dicts, graph, n_shards, |key| match key {
            PartitionKey::Property(p) => routes.prop(p),
            PartitionKey::Concept(c) => routes.concept(c),
        });
        let bases: Vec<Baseline> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|part| scope.spawn(move || part.freeze()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard build worker panicked"))
                .collect()
        });

        Ok(Self {
            dicts,
            ontology: ontology.clone(),
            shards: bases
                .into_iter()
                .map(|base| Shard {
                    base: Arc::new(base),
                    delta: DeltaStore::new(),
                    gen: crate::persist::next_generation(),
                })
                .collect(),
            routes,
            ovf_properties: OverflowDict::default(),
            ovf_concepts: OverflowDict::default(),
            literals: LiteralTable::default(),
            policy: CompactionPolicy::default(),
            persist_mark: std::sync::Mutex::new(None),
            staging: (0..n_shards).map(|_| ShardOps::default()).collect(),
            stats: ShardedStats::default(),
            epoch: 0,
            pins: Arc::new(AtomicUsize::new(0)),
            snapshots_taken: AtomicUsize::new(0),
            capture_delta: false,
            wal: std::sync::Mutex::new(None),
            plan_cache: None,
        })
    }

    /// Reassembles a store from persisted v02 parts (see
    /// [`crate::persist`]): dictionaries, routing and shard layers come
    /// back exactly as saved — ids are stable, nothing re-encodes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_loaded_parts(
        dicts: Dictionaries,
        ontology: Ontology,
        shards: Vec<Shard>,
        routes: RoutingTable,
        ovf_properties: OverflowDict,
        ovf_concepts: OverflowDict,
        literals: LiteralTable,
        policy: CompactionPolicy,
        epoch: u64,
        mark: Option<crate::persist::ShardedMark>,
    ) -> Self {
        let n_shards = shards.len();
        Self {
            dicts,
            ontology,
            shards,
            routes,
            ovf_properties,
            ovf_concepts,
            literals,
            policy,
            persist_mark: std::sync::Mutex::new(mark),
            staging: (0..n_shards).map(|_| ShardOps::default()).collect(),
            stats: ShardedStats::default(),
            epoch,
            pins: Arc::new(AtomicUsize::new(0)),
            snapshots_taken: AtomicUsize::new(0),
            capture_delta: false,
            wal: std::sync::Mutex::new(None),
            plan_cache: None,
        }
    }

    /// Builds one shard from loaded parts (persistence only).
    pub(crate) fn shard_from_loaded(base: Baseline, delta: DeltaStore, gen: u64) -> Shard {
        Shard {
            base: Arc::new(base),
            delta,
            gen,
        }
    }

    /// Replaces the per-shard compaction policy.
    pub fn with_policy(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Lifetime counters, with the live epoch/pin gauges filled in.
    pub fn stats(&self) -> ShardedStats {
        let mut s = self.stats.clone();
        s.epoch = self.epoch;
        s.snapshots = self.snapshots_taken.load(Ordering::Relaxed);
        s.live_pins = self.pins.load(Ordering::Acquire);
        s
    }

    /// The logical write epoch: successful
    /// [`apply`](ShardedHybridStore::apply) batches so far.
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
    /// [`apply`](ShardedHybridStore::apply) publishes the post-batch
    /// epoch to it, so cached join orders re-cost as the store ages even
    /// when the caller applies batches directly rather than through a
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
    /// Shard layers are shared by `Arc` (O(1) per shard); the overlays,
    /// dictionaries and the shared literal table are frozen by value, so
    /// the snapshot costs O(overlay + dictionaries) to take and the
    /// resulting [`StoreSnapshot`](crate::snapshot::StoreSnapshot) is
    /// O(1) to clone. Reader threads answer every [`TripleSource`]
    /// access at a consistent epoch while `apply` and compaction
    /// proceed; while any clone of the snapshot is alive the
    /// store counts it as a pin ([`ShardedStats::live_pins`]) and the
    /// quiescence-only literal GC will not reclaim the shared literal
    /// table (ids handed out at this epoch must keep decoding to the
    /// same content on the live store).
    pub fn snapshot(&self) -> crate::snapshot::StoreSnapshot {
        self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        crate::snapshot::StoreSnapshot::pin(self.frozen_view(), self.epoch, Arc::clone(&self.pins))
    }

    /// A read-only deep-frozen clone backing [`snapshot`](Self::snapshot):
    /// `Arc`-shared shard layers, cloned overlays, no persist mark. Never
    /// written to — the snapshot wrapper exposes it read-only.
    fn frozen_view(&self) -> ShardedHybridStore {
        ShardedHybridStore {
            dicts: self.dicts.clone(),
            ontology: self.ontology.clone(),
            shards: self
                .shards
                .iter()
                .map(|s| Shard {
                    base: Arc::clone(&s.base),
                    delta: s.delta.clone(),
                    gen: s.gen,
                })
                .collect(),
            routes: self.routes.clone(),
            ovf_properties: self.ovf_properties.clone(),
            ovf_concepts: self.ovf_concepts.clone(),
            literals: self.literals.clone(),
            policy: self.policy,
            persist_mark: std::sync::Mutex::new(None),
            staging: (0..self.shards.len())
                .map(|_| ShardOps::default())
                .collect(),
            stats: ShardedStats::default(),
            epoch: self.epoch,
            pins: Arc::new(AtomicUsize::new(0)),
            snapshots_taken: AtomicUsize::new(0),
            capture_delta: false,
            wal: std::sync::Mutex::new(None),
            plan_cache: None,
        }
    }

    /// The compaction policy in force (per shard).
    pub fn policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// The ontology the store was built against.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// Total overlay entries across all shards.
    pub fn overlay_len(&self) -> usize {
        self.shards.iter().map(|s| s.delta.overlay_len()).sum()
    }

    /// Overlay entries of one shard.
    pub fn shard_overlay_len(&self, shard: usize) -> usize {
        self.shards[shard].delta.overlay_len()
    }

    // ------------------------------------------------------------- ingestion

    /// Applies one batch: deletions first, then insertions.
    ///
    /// The calling thread encodes and routes every operation into
    /// per-shard lists, then applies each shard's list to its overlay.
    /// Shards whose overlay crossed the policy threshold afterwards are
    /// compacted inline, on the calling thread.
    pub fn apply(&mut self, inserts: &Graph, deletes: &Graph) -> Result<IngestReport, StreamError> {
        // Validate the whole batch before mutating anything: a malformed
        // triple rejects the batch atomically, before routing interns a
        // single term of it.
        for t in deletes.iter().chain(inserts) {
            validate_triple(t)?;
        }
        let mut report = IngestReport::default();

        let t0 = Instant::now();
        // The staging buffers are a store field (recycled across batches)
        // but routing borrows `&mut self`: take them out for the duration
        // of the call. Every path below — including errors — flows
        // through the restore, so a malformed batch never loses the
        // buffers.
        let mut staging = std::mem::take(&mut self.staging);
        let wal_on = self.wal_attached();
        let mut effects: Option<Vec<EffOp>> = (self.capture_delta || wal_on).then(Vec::new);
        let counts =
            self.route_and_apply(inserts, deletes, &mut staging, &mut report, &mut effects);
        for ops in &mut staging {
            ops.clear();
        }
        self.staging = staging;
        let (ins, del, noop) = counts?;
        let delta = effects.map(|eff| self.decode_effects(eff));
        report.inserted += ins;
        report.deleted += del;
        report.noops += noop;
        report.ingest = t0.elapsed();
        self.stats.total_inserted += report.inserted;
        self.stats.total_deleted += report.deleted;
        self.stats.total_ingest += report.ingest;

        let t1 = Instant::now();
        for i in 0..self.shards.len() {
            if self.shards[i].delta.overlay_len() >= self.policy.max_overlay {
                self.compact_shard(i);
                report.compacted = true;
            }
        }
        if report.compacted {
            report.compaction = t1.elapsed();
        }
        self.gc_literals();
        self.epoch += 1;
        if let Some(cache) = &self.plan_cache {
            cache.set_epoch(self.epoch);
        }
        if wal_on {
            let d = delta.as_ref().expect("wal_on forces effect capture");
            if let Some(wal) = lock_wal(&self.wal).as_mut() {
                wal.append(self.epoch, d)?;
            }
        }
        // The report only carries the delta when the caller asked for
        // capture — the WAL forcing effects internally stays invisible.
        report.delta = if self.capture_delta { delta } else { None };
        Ok(report)
    }

    /// Routes the whole batch into `staging`, then applies each shard's
    /// list to its overlay.
    fn route_and_apply(
        &mut self,
        inserts: &Graph,
        deletes: &Graph,
        staging: &mut [ShardOps],
        report: &mut IngestReport,
        effects: &mut Option<Vec<EffOp>>,
    ) -> Result<OpCounts, StreamError> {
        for t in deletes {
            if !self.route_op(t, false, staging)? {
                report.noops += 1;
            }
        }
        for t in inserts {
            if !self.route_op(t, true, staging)? {
                report.noops += 1;
            }
        }
        Ok(self
            .shards
            .iter_mut()
            .zip(staging.iter())
            .map(|(shard, ops)| run_shard_ops(&shard.base, &mut shard.delta, ops, effects.as_mut()))
            .fold((0, 0, 0), add_counts))
    }

    /// Turns net-delta capture on or off: when on, every `apply` report
    /// carries a [`BatchDelta`] with the batch's net term-space changes,
    /// gathered from each shard's effective ops.
    pub fn set_delta_capture(&mut self, on: bool) {
        self.capture_delta = on;
    }

    /// Attaches a write-ahead log over `dir`: first checkpoints the
    /// store there (so the directory always holds a manifest the log's
    /// records chain onto), then every successful `apply` appends and
    /// fsyncs the batch's net delta before returning.
    /// [`load`](ShardedHybridStore::load) replays the tail past the
    /// manifest automatically; the recovered store has no log attached —
    /// call `attach_wal` again to keep appending.
    pub fn attach_wal(
        &mut self,
        dir: &Path,
        config: crate::wal::WalConfig,
    ) -> Result<crate::persist::SaveReport, StreamError> {
        let report = self.save(dir)?;
        let wal = crate::wal::Wal::open(dir, config)?;
        *lock_wal(&self.wal) = Some(wal);
        Ok(report)
    }

    /// Whether a write-ahead log is attached.
    pub fn wal_attached(&self) -> bool {
        lock_wal(&self.wal).is_some()
    }

    /// Decodes the gathered effective ops back to term space and nets
    /// them per triple. Ids are decodable by construction: inserts
    /// interned their terms while routing, deletes only routed terms that
    /// already resolved, literal ops carry their content, and per-shard
    /// compaction never re-encodes the id space.
    fn decode_effects(&self, effects: Vec<EffOp>) -> BatchDelta {
        let rdf_type = Term::iri(se_rdf::vocab::rdf::TYPE);
        let events = effects
            .into_iter()
            .map(|eff| match eff {
                EffOp::Type(op, insert) => (
                    Triple::new(
                        self.term(Value::Instance(op.s)),
                        rdf_type.clone(),
                        self.term(Value::Concept(op.c)),
                    ),
                    if insert { 1 } else { -1 },
                ),
                EffOp::Obj(op, insert) => {
                    let object = match op.o {
                        OpObj::Inst(o) => self.term(Value::Instance(o)),
                        OpObj::Lit(_, lit) => Term::Literal((*lit).clone()),
                    };
                    (
                        Triple::new(
                            self.term(Value::Instance(op.s)),
                            self.term(Value::Property(op.p)),
                            object,
                        ),
                        if insert { 1 } else { -1 },
                    )
                }
            })
            .collect();
        BatchDelta::from_events(events)
    }

    /// Drops the shared overlay-literal table when nothing can reference
    /// it: table ids live only in overlay entries (layers store literal
    /// *content*), so once every shard's overlay is empty the table is
    /// garbage. Keeps long streams from accumulating every distinct
    /// literal ever ingested. (Steady streams with always-dirty overlays
    /// still grow the table; ROADMAP item 6 retires the shared table,
    /// keeping overlay literals in the one shard's delta.)
    ///
    /// A live [`StoreSnapshot`](crate::snapshot::StoreSnapshot) counts as
    /// non-quiescent: `Value::Literal(OVERFLOW_BASE + id)` values decoded
    /// from a pinned snapshot share this table's id space, and resetting
    /// it would re-issue the same ids for different content — a value
    /// handed from snapshot to live store would silently decode to the
    /// wrong literal. Reclamation resumes once the last pin drops.
    fn gc_literals(&mut self) {
        let quiescent = self.shards.iter().all(|s| s.delta.is_empty())
            && self.pins.load(Ordering::Acquire) == 0;
        if quiescent && !self.literals.literals.is_empty() {
            self.literals = LiteralTable::default();
        }
    }

    /// Encodes one triple and routes it to its shard's operation list.
    /// Returns `false` for deletes that are provably no-ops (an involved
    /// term is unknown everywhere, so the triple cannot be visible) —
    /// such deletes allocate no dictionary or literal-table entry. `apply`
    /// already validated the batch; the re-validation here is the cheap
    /// defensive second line keeping the shape rules in one place.
    fn route_op(
        &mut self,
        t: &Triple,
        insert: bool,
        ops: &mut [ShardOps],
    ) -> Result<bool, StreamError> {
        validate_triple(t)?;
        let p_iri = t.predicate.as_iri().expect("validated predicate");
        let s_key = instance_key(&t.subject).expect("validated subject");

        if t.is_type_triple() {
            let c_iri = t.object.as_iri().expect("validated rdf:type object");
            let c_resolved = self
                .dicts
                .concepts
                .id(c_iri)
                .or_else(|| self.ovf_concepts.id(c_iri));
            let s_resolved = self.dicts.instances.id(&s_key);
            let (s, c) = if insert {
                let s = s_resolved.unwrap_or_else(|| self.dicts.instances.get_or_insert(&s_key));
                let c = c_resolved.unwrap_or_else(|| {
                    let id = self.ovf_concepts.get_or_insert(c_iri);
                    self.routes.assign_concept(id);
                    id
                });
                (s, c)
            } else {
                match (s_resolved, c_resolved) {
                    (Some(s), Some(c)) => (s, c),
                    _ => return Ok(false),
                }
            };
            let shard = self.routes.concept(c);
            let op = TypeOp { s, c };
            if insert {
                ops[shard].type_ins.push(op);
            } else {
                ops[shard].type_del.push(op);
            }
            return Ok(true);
        }

        let p_resolved = self
            .dicts
            .properties
            .id(p_iri)
            .or_else(|| self.ovf_properties.id(p_iri));
        let s_resolved = self.dicts.instances.id(&s_key);
        let (p, s) = if insert {
            let p = p_resolved.unwrap_or_else(|| {
                let id = self.ovf_properties.get_or_insert(p_iri);
                self.routes.assign_prop(id);
                id
            });
            let s = s_resolved.unwrap_or_else(|| self.dicts.instances.get_or_insert(&s_key));
            (p, s)
        } else {
            match (p_resolved, s_resolved) {
                (Some(p), Some(s)) => (p, s),
                _ => return Ok(false),
            }
        };
        let shard = self.routes.prop(p);
        let o = match &t.object {
            Term::Literal(lit) => {
                if insert {
                    let l = self.literals.intern(lit);
                    OpObj::Lit(l, self.literals.arc(l))
                } else {
                    match self.literals.id(lit) {
                        Some(l) => OpObj::Lit(l, self.literals.arc(l)),
                        // Unknown to the overlay table — deletable only if
                        // the shard's baseline holds it; intern a tombstone
                        // key just for that case.
                        None => {
                            if !self.shards[shard].base.datatypes.contains(p, s, lit) {
                                return Ok(false);
                            }
                            let l = self.literals.intern(lit);
                            OpObj::Lit(l, self.literals.arc(l))
                        }
                    }
                }
            }
            other => {
                let o_key = instance_key(other).expect("non-literal object is a resource");
                match self.dicts.instances.id(&o_key) {
                    Some(o) => OpObj::Inst(o),
                    None if insert => OpObj::Inst(self.dicts.instances.get_or_insert(&o_key)),
                    None => return Ok(false),
                }
            }
        };
        let op = Op { p, s, o };
        if insert {
            ops[shard].ins.push(op);
        } else {
            ops[shard].del.push(op);
        }
        Ok(true)
    }

    // ------------------------------------------------------------ compaction

    /// Compacts one shard inline: folds baseline + overlay into fresh
    /// layers (same id space — no re-encoding), installs them and clears
    /// the overlay.
    pub fn compact_shard(&mut self, shard: usize) {
        let t0 = Instant::now();
        let s = &mut self.shards[shard];
        let built = live_triples(&s.base, &s.delta, &self.literals).freeze();
        s.base = Arc::new(built);
        s.delta = DeltaStore::new();
        s.gen = crate::persist::next_generation();
        self.stats.compactions += 1;
        self.stats.total_compaction += t0.elapsed();
    }

    // -------------------------------------------------------- decode helpers

    fn literal_content(&self, idx: u64) -> Option<&Literal> {
        if idx >= OVERFLOW_BASE {
            self.literals.get(idx - OVERFLOW_BASE)
        } else {
            let shard = (idx / LIT_SHARD_STRIDE) as usize;
            self.shards
                .get(shard)?
                .base
                .datatypes
                .literal(idx % LIT_SHARD_STRIDE)
        }
    }

    /// Decodes an id the store itself stored or routed — dictionary-
    /// complete by construction (inserts intern their terms, and per-shard
    /// compaction never re-encodes the id space).
    fn term(&self, value: Value) -> Term {
        self.value_to_term(value).expect("dictionary-complete id")
    }

    /// Delta key of a query `Value` object, if expressible.
    fn delta_key_of(&self, o: &Value) -> Option<DeltaObj> {
        match o {
            Value::Instance(id) => Some(DeltaObj::Inst(*id)),
            Value::Literal(idx) => {
                let lit = self.literal_content(*idx)?;
                self.literals.id(lit).map(DeltaObj::Lit)
            }
            _ => None,
        }
    }

    fn tombstoned(&self, shard: usize, p: u64, s: u64, v: &Value) -> bool {
        match self.delta_key_of(v) {
            Some(key) => self.shards[shard].delta.state(p, s, key) == Some(DeltaState::Deleted),
            None => false,
        }
    }

    fn obj_to_value(o: DeltaObj) -> Value {
        match o {
            DeltaObj::Inst(id) => Value::Instance(id),
            DeltaObj::Lit(l) => Value::Literal(OVERFLOW_BASE + l),
        }
    }

    /// A baseline subject run for `(?s, p, key)` minus the overlay's
    /// tombstones, plus its `Added` entries; ascending and deduplicated.
    fn live_subjects(
        &self,
        shard: usize,
        p: u64,
        key: Option<DeltaObj>,
        mut out: Vec<u64>,
    ) -> Vec<u64> {
        if let Some(key) = key {
            let delta = &self.shards[shard].delta;
            out.retain(|&s| delta.state(p, s, key) != Some(DeltaState::Deleted));
            out.extend(
                delta
                    .subjects(p, key)
                    .into_iter()
                    .filter(|&(_, st)| st == DeltaState::Added)
                    .map(|(s, _)| s),
            );
            out.sort_unstable();
            out.dedup();
        }
        out
    }

    /// Materializes the full merged view as a term-space graph (baseline
    /// minus tombstones plus overlay insertions, across all shards).
    pub fn materialize(&self) -> Graph {
        let rdf_type = Term::iri(se_rdf::vocab::rdf::TYPE);
        let mut g = Graph::new();
        for shard in &self.shards {
            let live = live_triples(&shard.base, &shard.delta, &self.literals);
            for (p, s, o) in live.objects {
                g.insert(Triple::new(
                    self.term(Value::Instance(s)),
                    self.term(Value::Property(p)),
                    self.term(Value::Instance(o)),
                ));
            }
            for (p, s, lit) in live.datatypes {
                g.insert(Triple::new(
                    self.term(Value::Instance(s)),
                    self.term(Value::Property(p)),
                    Term::Literal(lit),
                ));
            }
            for (s, c) in live.types {
                g.insert(Triple::new(
                    self.term(Value::Instance(s)),
                    rdf_type.clone(),
                    self.term(Value::Concept(c)),
                ));
            }
        }
        g
    }
}

/// Sums two per-shard outcome triples.
fn add_counts(a: OpCounts, b: OpCounts) -> OpCounts {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2)
}

/// The store's shape rules — the single source of truth: `apply` checks
/// the whole batch up front so a malformed triple rejects it without
/// side effects, and `build`/`route_op` re-call this per triple instead
/// of duplicating the checks.
fn validate_triple(t: &Triple) -> Result<(), StreamError> {
    if t.predicate.as_iri().is_none() {
        return Err(StreamError::Malformed(format!("non-IRI predicate: {t}")));
    }
    if instance_key(&t.subject).is_none() {
        return Err(StreamError::Malformed(format!("literal subject: {t}")));
    }
    if t.is_type_triple() && t.object.as_iri().is_none() {
        return Err(StreamError::Malformed(format!(
            "rdf:type with non-IRI object: {t}"
        )));
    }
    Ok(())
}

/// Applies one shard's routed operations against its baseline + overlay.
fn run_shard_ops(
    base: &Baseline,
    delta: &mut DeltaStore,
    ops: &ShardOps,
    mut effects: Option<&mut Vec<EffOp>>,
) -> OpCounts {
    let (mut ins, mut del, mut noop) = (0, 0, 0);
    let mut bump = |hit: bool, insert: bool| {
        if hit && insert {
            ins += 1;
        } else if hit {
            del += 1;
        } else {
            noop += 1;
        }
    };
    for op in &ops.type_del {
        let hit = apply_type_op(base, delta, op, false);
        if hit {
            if let Some(eff) = effects.as_deref_mut() {
                eff.push(EffOp::Type(*op, false));
            }
        }
        bump(hit, false);
    }
    for op in &ops.del {
        let hit = apply_op(base, delta, op, false);
        if hit {
            if let Some(eff) = effects.as_deref_mut() {
                eff.push(EffOp::Obj(op.clone(), false));
            }
        }
        bump(hit, false);
    }
    for op in &ops.type_ins {
        let hit = apply_type_op(base, delta, op, true);
        if hit {
            if let Some(eff) = effects.as_deref_mut() {
                eff.push(EffOp::Type(*op, true));
            }
        }
        bump(hit, true);
    }
    for op in &ops.ins {
        let hit = apply_op(base, delta, op, true);
        if hit {
            if let Some(eff) = effects.as_deref_mut() {
                eff.push(EffOp::Obj(op.clone(), true));
            }
        }
        bump(hit, true);
    }
    (ins, del, noop)
}

/// State transition of one triple given its overlay state, baseline
/// membership and the requested operation. `None` means no-op.
fn transition(old: Option<DeltaState>, base_has: bool, insert: bool) -> Option<DeltaState> {
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

fn apply_op(base: &Baseline, delta: &mut DeltaStore, op: &Op, insert: bool) -> bool {
    let (key, base_has) = match &op.o {
        OpObj::Inst(o) => (DeltaObj::Inst(*o), base.objects.contains(op.p, op.s, *o)),
        OpObj::Lit(l, lit) => (
            DeltaObj::Lit(*l),
            base.datatypes.contains(op.p, op.s, lit.as_ref()),
        ),
    };
    match transition(delta.state(op.p, op.s, key), base_has, insert) {
        Some(st) => {
            delta.set(op.p, op.s, key, st);
            true
        }
        None => false,
    }
}

fn apply_type_op(base: &Baseline, delta: &mut DeltaStore, op: &TypeOp, insert: bool) -> bool {
    let base_has = base.types.has_type(op.s, op.c);
    match transition(delta.type_state(op.s, op.c), base_has, insert) {
        Some(st) => {
            delta.set_type(op.s, op.c, st);
            true
        }
        None => false,
    }
}

/// The one walk over a shard's live triples — baseline minus tombstones,
/// plus `Added` overlay entries — as encoded input lists, in the shard's
/// id space. Compaction freezes it into fresh layers; `materialize`
/// decodes it.
fn live_triples(base: &Baseline, delta: &DeltaStore, literals: &LiteralTable) -> BaselineInput {
    let mut input = BaselineInput::default();
    for (p, s, o) in base.objects.iter() {
        if delta.state(p, s, DeltaObj::Inst(o)) != Some(DeltaState::Deleted) {
            input.objects.push((p, s, o));
        }
    }
    for (p, s, li) in base.datatypes.iter() {
        let lit = base.datatypes.literal(li).expect("in-range literal");
        let dead = literals
            .id(lit)
            .map(|l| delta.state(p, s, DeltaObj::Lit(l)))
            == Some(Some(DeltaState::Deleted));
        if !dead {
            input.datatypes.push((p, s, lit.clone()));
        }
    }
    for (s, c) in base.types.iter() {
        if delta.type_state(s, c) != Some(DeltaState::Deleted) {
            input.types.push((s, c));
        }
    }
    for (p, s, o, st) in delta.iter() {
        if st == DeltaState::Added {
            match o {
                DeltaObj::Inst(oid) => input.objects.push((p, s, oid)),
                DeltaObj::Lit(l) => {
                    input
                        .datatypes
                        .push((p, s, literals.get(l).expect("interned").clone()))
                }
            }
        }
    }
    for (s, c, st) in delta.type_iter() {
        if st == DeltaState::Added {
            input.types.push((s, c));
        }
    }
    input
}

impl TripleSource for ShardedHybridStore {
    fn instance_id(&self, term: &Term) -> Option<u64> {
        self.dicts.instances.id(&instance_key(term)?)
    }

    fn property_id(&self, iri: &str) -> Option<u64> {
        self.dicts
            .properties
            .id(iri)
            .or_else(|| self.ovf_properties.id(iri))
    }

    fn concept_id(&self, iri: &str) -> Option<u64> {
        self.dicts
            .concepts
            .id(iri)
            .or_else(|| self.ovf_concepts.id(iri))
    }

    fn property_interval(&self, iri: &str) -> Option<IdInterval> {
        self.dicts
            .properties
            .interval(iri)
            .or_else(|| self.ovf_properties.id(iri).map(IdInterval::point))
    }

    fn concept_interval(&self, iri: &str) -> Option<IdInterval> {
        self.dicts
            .concepts
            .interval(iri)
            .or_else(|| self.ovf_concepts.id(iri).map(IdInterval::point))
    }

    fn value_to_term(&self, value: Value) -> Option<Term> {
        match value {
            Value::Instance(id) => self.dicts.instances.term_arc(id).map(key_to_term_arc),
            Value::Concept(id) if id >= OVERFLOW_BASE => self.ovf_concepts.term(id).map(Term::Iri),
            Value::Concept(id) => self.dicts.concepts.term_arc(id).map(Term::Iri),
            Value::Property(id) if id >= OVERFLOW_BASE => {
                self.ovf_properties.term(id).map(Term::Iri)
            }
            Value::Property(id) => self.dicts.properties.term_arc(id).map(Term::Iri),
            Value::Literal(idx) => self.literal_content(idx).map(|l| Term::Literal(l.clone())),
        }
    }

    fn literal(&self, idx: u64) -> Option<&Literal> {
        self.literal_content(idx)
    }

    fn objects(&self, p: u64, s: u64) -> Vec<Value> {
        let i = self.routes.prop(p);
        let shard = &self.shards[i];
        let mut out = shard.base.objects(p, s, i as u64 * LIT_SHARD_STRIDE);
        out.retain(|v| !self.tombstoned(i, p, s, v));
        for (o, st) in shard.delta.objects(p, s) {
            if st == DeltaState::Added {
                out.push(Self::obj_to_value(o));
            }
        }
        out
    }

    fn subjects(&self, p: u64, o: &Value) -> Vec<u64> {
        let i = self.routes.prop(p);
        let base = self.shards[i]
            .base
            .subjects(p, o, |idx| self.literal_content(idx));
        self.live_subjects(i, p, self.delta_key_of(o), base)
    }

    fn subjects_by_literal(&self, p: u64, lit: &Literal) -> Vec<u64> {
        let i = self.routes.prop(p);
        let base = self.shards[i].base.datatypes.subjects_by_literal(p, lit);
        self.live_subjects(i, p, self.literals.id(lit).map(DeltaObj::Lit), base)
    }

    fn scan_predicate(&self, p: u64) -> Vec<(u64, Value)> {
        let i = self.routes.prop(p);
        let shard = &self.shards[i];
        let mut base = shard.base.scan_predicate(p, i as u64 * LIT_SHARD_STRIDE);
        base.retain(|(s, v)| !self.tombstoned(i, p, *s, v));
        let added = shard
            .delta
            .scan(p)
            .into_iter()
            .filter(|&(_, _, st)| st == DeltaState::Added)
            .map(|(s, o, _)| (s, Self::obj_to_value(o)))
            .collect();
        kway_merge_by_subject(vec![base, added])
    }

    fn contains(&self, p: u64, s: u64, o: &Value) -> bool {
        let shard = &self.shards[self.routes.prop(p)];
        match self
            .delta_key_of(o)
            .and_then(|key| shard.delta.state(p, s, key))
        {
            Some(st) => st.present(),
            None => shard
                .base
                .contains(p, s, o, |idx| self.literal_content(idx)),
        }
    }

    fn properties_in(&self, iv: IdInterval) -> Vec<u64> {
        let mut preds = BTreeSet::new();
        for shard in &self.shards {
            preds.extend(shard.base.properties_in(iv));
            preds.extend(shard.delta.predicates_in(iv.lower, iv.upper));
        }
        preds.into_iter().collect()
    }

    fn subjects_of_concept_interval(&self, iv: IdInterval) -> Vec<u64> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .base
                    .types
                    .pairs_in_interval(iv)
                    .iter()
                    .filter(|&&(c, s)| shard.delta.type_state(s, c) != Some(DeltaState::Deleted))
                    .map(|&(_, s)| s),
            );
            for (_, s, st) in shard.delta.type_subjects_in(iv.lower, iv.upper) {
                if st == DeltaState::Added {
                    out.push(s);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn concepts_of_subject(&self, s: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .base
                    .types
                    .concepts_of(s)
                    .filter(|&c| shard.delta.type_state(s, c) != Some(DeltaState::Deleted)),
            );
            for (c, st) in shard.delta.type_concepts_of(s, 0, u64::MAX) {
                if st == DeltaState::Added {
                    out.push(c);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn has_type_in_interval(&self, s: u64, iv: IdInterval) -> bool {
        for shard in &self.shards {
            let overlay = shard.delta.type_concepts_of(s, iv.lower, iv.upper);
            if overlay.iter().any(|&(_, st)| st.present()) {
                return true;
            }
            let hit = if overlay.iter().all(|&(_, st)| st != DeltaState::Deleted) {
                shard.base.types.has_type_in_interval(s, iv)
            } else {
                // Some base types of `s` in the interval are tombstoned:
                // check the survivors individually.
                shard.base.types.concepts_of(s).any(|c| {
                    iv.contains(c) && shard.delta.type_state(s, c) != Some(DeltaState::Deleted)
                })
            };
            if hit {
                return true;
            }
        }
        false
    }

    fn type_pairs(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .base
                    .types
                    .iter()
                    .filter(|&(s, c)| shard.delta.type_state(s, c) != Some(DeltaState::Deleted)),
            );
            for (s, c, st) in shard.delta.type_iter() {
                if st == DeltaState::Added {
                    out.push((s, c));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| (s.base.len() as isize + s.delta.net_triples()) as usize)
            .sum()
    }

    fn predicate_count(&self, p: u64) -> usize {
        let shard = &self.shards[self.routes.prop(p)];
        let mut n = shard.base.predicate_count(p) as isize;
        for (_, _, st) in shard.delta.scan(p) {
            match st {
                DeltaState::Added => n += 1,
                DeltaState::Deleted => n -= 1,
                _ => {}
            }
        }
        n.max(0) as usize
    }

    fn type_count(&self, iv: IdInterval) -> usize {
        let mut n = 0isize;
        for shard in &self.shards {
            n += shard.base.types.count_interval(iv) as isize;
            for (_, _, st) in shard.delta.type_subjects_in(iv.lower, iv.upper) {
                match st {
                    DeltaState::Added => n += 1,
                    DeltaState::Deleted => n -= 1,
                    _ => {}
                }
            }
        }
        n.max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_core::source::{objects_in, predicate_count_in, scan_in, subjects_in};
    use se_sparql::QueryOptions;
    use std::collections::BTreeSet;

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

    fn sharded(n: usize) -> ShardedHybridStore {
        ShardedHybridStore::build(&ontology(), &seed_graph(), n).unwrap()
    }

    /// The single-store configuration: one shard.
    fn single() -> ShardedHybridStore {
        sharded(1)
    }

    fn norm(g: &Graph) -> Vec<String> {
        let mut v: Vec<String> = g.iter().map(|t| t.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn baseline_queries_route_across_shards() {
        for n in [1, 2, 3, 5] {
            let h = sharded(n);
            assert_eq!(h.shard_count(), n);
            assert_eq!(h.len(), 6);
            assert_eq!(h.type_count(IdInterval::ALL), 2);
            let knows = h.property_id("http://x/knows").unwrap();
            let a = h.instance_id(&iri("a")).unwrap();
            let b = h.instance_id(&iri("b")).unwrap();
            assert_eq!(h.objects(knows, a), vec![Value::Instance(b)]);
            assert_eq!(h.subjects(knows, &Value::Instance(b)), vec![a]);
            assert!(h.contains(knows, a, &Value::Instance(b)));
            assert_eq!(h.predicate_count(knows), 1);
            // Property-interval reasoning across routed predicates.
            let iv = h.property_interval("http://x/memberOf").unwrap();
            let org = h.instance_id(&iri("org")).unwrap();
            assert_eq!(subjects_in(&h, iv, &Value::Instance(org)).len(), 2);
            assert_eq!(predicate_count_in(&h, iv), 2);
            // Concept-interval reasoning across shards.
            let c1 = h.concept_interval("http://x/C1").unwrap();
            assert_eq!(h.subjects_of_concept_interval(c1).len(), 2);
            assert!(h.has_type_in_interval(a, c1));
            // Literal lookups route through the shard's literal block.
            let age = h.property_id("http://x/age").unwrap();
            let objs = h.objects(age, a);
            assert_eq!(objs.len(), 1);
            assert_eq!(h.value_to_term(objs[0]).unwrap(), Term::literal("42"));
            assert_eq!(h.subjects_by_literal(age, &Literal::string("42")), vec![a]);
        }
    }

    /// The central parity property at unit scale: a 4-shard store and the
    /// 1-shard single store fed the same batches answer identically.
    #[test]
    fn parallel_apply_matches_single_hybrid() {
        let mut sh = sharded(4);
        let mut single = single();
        let batches: Vec<(Graph, Graph)> = vec![
            (
                Graph::from_triples([
                    t("c", "knows", iri("a")),
                    t("c", "worksFor", iri("org")),
                    ty("c", "C2"),
                    t("c", "age", Term::literal("7")),
                ]),
                Graph::new(),
            ),
            (
                Graph::from_triples([t("d", "memberOf", iri("org2")), ty("org2", "C1")]),
                Graph::from_triples([t("a", "knows", iri("b")), ty("b", "C1")]),
            ),
            (
                // Re-insert a tombstoned triple; delete an overlay one.
                Graph::from_triples([t("a", "knows", iri("b"))]),
                Graph::from_triples([t("c", "knows", iri("a")), t("c", "age", Term::literal("7"))]),
            ),
        ];
        for (ins, del) in &batches {
            let rs = sh.apply(ins, del).unwrap();
            let rh = single.apply(ins, del).unwrap();
            assert_eq!((rs.inserted, rs.deleted), (rh.inserted, rh.deleted));
            assert_eq!(norm(&sh.materialize()), norm(&single.materialize()));
            assert_eq!(TripleSource::len(&sh), TripleSource::len(&single));
        }
        // SPARQL answers agree too.
        let q = "PREFIX e: <http://x/> SELECT ?s ?o WHERE { ?s e:memberOf ?o }";
        let a = se_sparql::execute_query(&sh, q, &QueryOptions::default()).unwrap();
        let b = se_sparql::execute_query(&single, q, &QueryOptions::default()).unwrap();
        let sort = |rs: &se_sparql::ResultSet| {
            let mut v: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(sort(&a), sort(&b));
    }

    #[test]
    fn overflow_terms_are_queryable_and_survive_compaction() {
        let mut h = sharded(3);
        h.apply(
            &Graph::from_triples([
                t("newSensor", "emits", iri("a")),
                ty("newSensor", "NewKind"),
                t("newSensor", "reading", Term::literal("7.5")),
            ]),
            &Graph::new(),
        )
        .unwrap();
        let p = h.property_id("http://x/emits").unwrap();
        assert!(p >= OVERFLOW_BASE);
        let ns = h.instance_id(&iri("newSensor")).unwrap();
        let a = h.instance_id(&iri("a")).unwrap();
        assert_eq!(h.subjects(p, &Value::Instance(a)), vec![ns]);
        let iv = h.property_interval("http://x/emits").unwrap();
        assert!(iv.is_singleton());
        assert_eq!(objects_in(&h, iv, ns), vec![Value::Instance(a)]);
        let c = h.concept_id("http://x/NewKind").unwrap();
        assert!(c >= OVERFLOW_BASE);
        assert_eq!(
            h.subjects_of_concept_interval(IdInterval::point(c)),
            vec![ns]
        );
        assert!(h.has_type_in_interval(ns, IdInterval::point(c)));
        let before = norm(&h.materialize());
        // Folding overflow-id triples into the layers must preserve the
        // view and keep the terms queryable (ids are stable, no
        // re-encode; the interval stays a singleton).
        for i in 0..h.shard_count() {
            h.compact_shard(i);
        }
        assert_eq!(h.overlay_len(), 0);
        assert_eq!(norm(&h.materialize()), before);
        assert_eq!(h.property_id("http://x/emits"), Some(p));
        assert_eq!(h.subjects(p, &Value::Instance(a)), vec![ns]);
        assert_eq!(
            h.subjects_of_concept_interval(IdInterval::point(c)),
            vec![ns]
        );
        let reading = h.property_id("http://x/reading").unwrap();
        let objs = h.objects(reading, ns);
        assert_eq!(objs.len(), 1);
        assert_eq!(h.value_to_term(objs[0]).unwrap(), Term::literal("7.5"));
    }

    #[test]
    fn inline_compaction_triggered_by_policy() {
        let mut h = sharded(2).with_policy(CompactionPolicy { max_overlay: 2 });
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
        assert_eq!(report.inserted, 3);
        assert!(report.compacted);
        assert!(h.stats().compactions >= 1);
        assert_eq!(h.len(), 9);
        let knows = h.property_id("http://x/knows").unwrap();
        assert_eq!(h.predicate_count(knows), 4);
    }

    /// A stream of inserts and deletes under a tight threshold compacts
    /// inline between batches and ends on exactly the reference set.
    #[test]
    fn inline_compaction_with_interleaved_writes_matches_reference() {
        let mut h = sharded(2).with_policy(CompactionPolicy { max_overlay: 4 });
        let mut reference: BTreeSet<Triple> = seed_graph().iter().cloned().collect();
        let step = |h: &mut ShardedHybridStore,
                    reference: &mut BTreeSet<Triple>,
                    ins: Vec<Triple>,
                    del: Vec<Triple>| {
            for t in &del {
                reference.remove(t);
            }
            for t in &ins {
                reference.insert(t.clone());
            }
            h.apply(&Graph::from_triples(ins), &Graph::from_triples(del))
                .unwrap();
        };
        // Push several batches so compactions land between the writes.
        for round in 0..12 {
            let ins = (0..4)
                .map(|k| t(&format!("s{round}_{k}"), "knows", iri("hub")))
                .chain([ty(&format!("s{round}_0"), "C2")])
                .collect();
            let del = if round >= 2 {
                vec![
                    t(&format!("s{}_{}", round - 2, 0), "knows", iri("hub")),
                    ty(&format!("s{}_{}", round - 2, 0), "C2"),
                ]
            } else {
                Vec::new()
            };
            step(&mut h, &mut reference, ins, del);
        }
        assert!(h.stats().compactions >= 1, "stream must cross a compaction");
        let expected: Vec<String> = {
            let mut v: Vec<String> = reference.iter().map(|t| t.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&h.materialize()), expected);
        assert_eq!(h.len(), reference.len());
    }

    #[test]
    fn scans_stay_subject_sorted_across_layers_and_overlay() {
        let mut o = Ontology::new();
        o.add_object_property("http://x/p");
        let mut g = Graph::new();
        for i in 0..20 {
            g.insert(t(&format!("s{i:02}"), "p", iri("target")));
        }
        let mut h = ShardedHybridStore::build(&o, &g, 3).unwrap();
        for i in 0..20 {
            h.apply(
                &Graph::from_triples([t(&format!("s{i:02}"), "p", Term::literal(format!("v{i}")))]),
                &Graph::new(),
            )
            .unwrap();
        }
        let p = h.property_id("http://x/p").unwrap();
        let pairs = h.scan_predicate(p);
        assert_eq!(pairs.len(), 40);
        let subjects: Vec<u64> = pairs.iter().map(|(s, _)| *s).collect();
        let mut sorted = subjects.clone();
        sorted.sort_unstable();
        assert_eq!(subjects, sorted, "scan_predicate must stay subject-sorted");
        // Interval fan-out k-way merges the runs subject-sorted too.
        let iv = h.property_interval("http://x/p").unwrap();
        let pairs = scan_in(&h, iv);
        let subjects: Vec<u64> = pairs.iter().map(|(s, _)| *s).collect();
        let mut sorted = subjects.clone();
        sorted.sort_unstable();
        assert_eq!(subjects, sorted, "scan_in gather must merge sorted");
    }

    #[test]
    fn noop_deletes_allocate_nothing() {
        let mut h = sharded(2);
        let report = h
            .apply(
                &Graph::new(),
                &Graph::from_triples([
                    t("ghost", "phantom", iri("nowhere")),
                    ty("ghost", "NoClass"),
                    t("ghost", "reading", Term::literal("404")),
                ]),
            )
            .unwrap();
        assert_eq!(report.deleted, 0);
        assert_eq!(report.noops, 3);
        assert_eq!(h.instance_id(&iri("ghost")), None);
        assert_eq!(h.property_id("http://x/phantom"), None);
        assert_eq!(h.concept_id("http://x/NoClass"), None);
        assert_eq!(h.literals.id(&Literal::string("404")), None);
        assert_eq!(h.overlay_len(), 0);
    }

    /// A literal the baseline holds under one subject is not deletable
    /// under another, and delete → re-insert → compact → save/load keeps
    /// every literal probe consistent.
    #[test]
    fn baseline_literal_membership_is_per_subject() {
        for n in [1, 4] {
            let mut h = sharded(n);
            let age = h.property_id("http://x/age").unwrap();
            let a = h.instance_id(&iri("a")).unwrap();
            let b = h.instance_id(&iri("b")).unwrap();
            let v42 = Literal::string("42");
            let age_of = |s: &str| t(s, "age", Term::literal("42"));
            // (contains(a), contains(b), objects(a) as terms, subjects).
            let probe = |h: &ShardedHybridStore| {
                let objs: Vec<Term> = h
                    .objects(age, a)
                    .into_iter()
                    .map(|v| h.value_to_term(v).unwrap())
                    .collect();
                let value = h.objects(age, a).first().copied();
                let has = |s| value.is_some_and(|v| h.contains(age, s, &v));
                (has(a), has(b), objs, h.subjects_by_literal(age, &v42))
            };
            let held = (true, false, vec![Term::literal("42")], vec![a]);
            assert_eq!(probe(&h), held, "{n} shards");

            // 1. "42" is in the baseline, but under a, not b.
            let noop = Graph::from_triples([age_of("b")]);
            let report = h.apply(&Graph::new(), &noop).unwrap();
            assert_eq!((report.deleted, report.noops), (0, 1), "{n} shards");
            assert_eq!(h.literals.id(&v42), None, "{n} shards");
            assert_eq!(h.overlay_len(), 0, "{n} shards");
            assert_eq!(probe(&h), held, "{n} shards");

            // 2. Deleting it under a hides it from every probe.
            let v = h.objects(age, a)[0];
            let report = h.apply(&Graph::new(), &Graph::from_triples([age_of("a")]));
            assert_eq!(report.unwrap().deleted, 1, "{n} shards");
            assert!(!h.contains(age, a, &v), "{n} shards");
            assert_eq!(probe(&h), (false, false, vec![], vec![]), "{n} shards");

            // 3. Re-inserting it makes it visible again.
            let report = h.apply(&Graph::from_triples([age_of("a")]), &Graph::new());
            assert_eq!(report.unwrap().inserted, 1, "{n} shards");
            assert!(h.contains(age, a, &v), "{n} shards");
            assert_eq!(probe(&h), held, "{n} shards");

            // 4. Compaction and a save/load round trip change no answer.
            for i in 0..h.shard_count() {
                h.compact_shard(i);
            }
            assert_eq!(h.overlay_len(), 0, "{n} shards");
            assert_eq!(probe(&h), held, "{n} shards");
            let dir = std::env::temp_dir().join(format!(
                "se-shard-literal-membership-{n}-{}",
                std::process::id()
            ));
            h.save(&dir).unwrap();
            let back = ShardedHybridStore::load(&dir, &ontology()).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(probe(&back), held, "{n} shards");
        }
    }

    #[test]
    fn malformed_triples_rejected() {
        let mut h = sharded(2);
        let bad = Triple {
            subject: Term::literal("bad"),
            predicate: Term::iri("http://x/p"),
            object: iri("o"),
        };
        assert!(matches!(
            h.apply(&Graph::from_triples([bad]), &Graph::new()),
            Err(StreamError::Malformed(_))
        ));
        let bad_type = Triple {
            subject: iri("s"),
            predicate: Term::iri(se_rdf::vocab::rdf::TYPE),
            object: Term::literal("bad"),
        };
        assert!(matches!(
            h.apply(&Graph::from_triples([bad_type]), &Graph::new()),
            Err(StreamError::Malformed(_))
        ));
    }

    /// The shared overlay-literal table is dropped once every overlay is
    /// empty (and queries still answer from the folded layers).
    #[test]
    fn literal_table_garbage_collected_when_quiescent() {
        let mut h = sharded(2);
        h.apply(
            &Graph::from_triples([t("x", "note", Term::literal("hello"))]),
            &Graph::new(),
        )
        .unwrap();
        assert!(h.literals.id(&Literal::string("hello")).is_some());
        for i in 0..h.shard_count() {
            h.compact_shard(i);
        }
        // compact_shard alone does not GC (callers may batch them); the
        // next apply does.
        h.apply(&Graph::new(), &Graph::new()).unwrap();
        assert!(h.literals.literals.is_empty(), "table reclaimed");
        let note = h.property_id("http://x/note").unwrap();
        let x = h.instance_id(&iri("x")).unwrap();
        let objs = h.objects(note, x);
        assert_eq!(objs.len(), 1, "content lives on in the layers");
        assert_eq!(h.value_to_term(objs[0]).unwrap(), Term::literal("hello"));
    }

    /// Regression: a live snapshot pins the shared literal table. The
    /// quiescence GC resets the table and re-issues ids from zero, so
    /// clearing it under a snapshot would make the snapshot's overlay
    /// literal ids silently decode to *different* content interned later
    /// by the live store. A pinned snapshot must block the GC; dropping
    /// it re-enables reclamation.
    #[test]
    fn literal_gc_blocked_by_pinned_snapshot() {
        let mut h = sharded(2);
        h.apply(
            &Graph::from_triples([t("x", "note", Term::literal("hello"))]),
            &Graph::new(),
        )
        .unwrap();
        let snap = h.snapshot();
        for i in 0..h.shard_count() {
            h.compact_shard(i);
        }
        // Same sequence that reclaims the table in the quiescent test —
        // but the snapshot holds a pin, so the table must survive.
        h.apply(&Graph::new(), &Graph::new()).unwrap();
        assert!(
            h.literals.id(&Literal::string("hello")).is_some(),
            "pinned snapshot keeps the shared literal table alive"
        );
        // The snapshot still resolves its overlay literal.
        let note = snap.property_id("http://x/note").unwrap();
        let x = snap.instance_id(&iri("x")).unwrap();
        let objs = snap.objects(note, x);
        assert_eq!(objs.len(), 1);
        assert_eq!(snap.value_to_term(objs[0]).unwrap(), Term::literal("hello"));
        // Once the last pin drops, the next apply reclaims as before.
        drop(snap);
        h.apply(&Graph::new(), &Graph::new()).unwrap();
        assert!(
            h.literals.literals.is_empty(),
            "table reclaimed after unpin"
        );
    }

    #[test]
    fn sharded_store_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedHybridStore>();
    }

    /// Small batches (2–4 ops) under a tight compaction threshold: a
    /// 4-shard store compacting inline and the 1-shard single store end
    /// up identical.
    #[test]
    fn inline_compaction_small_batches_match_single() {
        let mut sharded = sharded(4).with_policy(CompactionPolicy { max_overlay: 6 });
        let mut single = single();
        for round in 0..10 {
            let ins = Graph::from_triples([
                t(&format!("s{round}"), "knows", iri("hub")),
                ty(&format!("s{round}"), "C2"),
                t(
                    &format!("s{round}"),
                    "age",
                    Term::literal(format!("{round}")),
                ),
            ]);
            let del = if round >= 3 {
                Graph::from_triples([t(&format!("s{}", round - 3), "knows", iri("hub"))])
            } else {
                Graph::new()
            };
            let rh = sharded.apply(&ins, &del).unwrap();
            let rs = single.apply(&ins, &del).unwrap();
            assert_eq!((rh.inserted, rh.deleted), (rs.inserted, rs.deleted));
        }
        assert!(sharded.stats().compactions >= 1);
        assert_eq!(sharded.stats().background_compactions, 0);
        assert_eq!(norm(&sharded.materialize()), norm(&single.materialize()));
    }
}
