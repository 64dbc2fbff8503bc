//! The streaming store: an immutable succinct baseline plus a mutable
//! overlay, partitioned by predicate into one or more shards behind the
//! [`TripleSource`] seam.
//!
//! `ShardedHybridStore::build(ontology, graph, 1)` is the single-store
//! configuration — one shard, one overlay; with inline compaction it
//! never starts a thread. With N shards the triple space is partitioned
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
//! * **Off-hot-path compaction.** Per-shard compaction is split into a
//!   pure rebuild against a snapshot (the shard's immutable base layers
//!   are `Arc`-shared; the rebuild folds the overlay into fresh layers
//!   **in the same id space** — no re-encoding) and an atomic
//!   [`swap`](ShardedHybridStore::flush_compactions): the live overlay is
//!   rebased onto the new layers by a pure visibility rule, so writes that
//!   raced the rebuild survive. Each background rebuild is one spawned
//!   thread, at most one per shard; a later `apply` swaps it in once it
//!   has finished, and dropping the store joins any still running. With
//!   background compaction enabled, `apply` tail latency is bounded by
//!   routing + overlay insertion + swap (each O(overlay)), never by layer
//!   construction.
//!
//! The price of never re-encoding: properties and concepts first seen in
//! the stream keep their overflow singleton intervals even after
//! compaction, so subsumption reasoning over a stream-born term sees only
//! its own assertions. ROADMAP item 5 — LiteMat codes with headroom, so
//! a stream-born subterm takes a free code inside its parent's interval
//! without moving any existing id — would close that gap.

use crate::delta::{BatchDelta, DeltaObj, DeltaState, DeltaStore, LiteralTable};
use crate::error::StreamError;
use se_core::builder::{instance_key, key_to_term_arc};
use se_core::datatype::DatatypeLayer;
use se_core::layer::TripleLayer;
use se_core::source::kway_merge_by_subject;
use se_core::typestore::RdfTypeStore;
use se_core::{augment_ontology, BuildError, TripleSource, Value};
use se_litemat::{Dictionaries, IdInterval};
use se_ontology::Ontology;
use se_rdf::{Graph, Literal, Term, Triple};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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
    /// `true` if this batch compacted a shard (inline, or by swapping in
    /// a finished background rebuild).
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

/// The literal content one shard rebuild needs: exactly the ids its
/// overlay references (baseline literal content lives in the layers).
/// Built in O(overlay) on the hot path — never a clone of the full shared
/// table — and moved into the rebuild thread.
#[derive(Debug, Clone, Default)]
struct LitSnapshot {
    by_id: HashMap<u64, Arc<Literal>>,
    by_content: HashMap<Arc<Literal>, u64>,
}

impl LitSnapshot {
    fn for_delta(delta: &DeltaStore, table: &LiteralTable) -> Self {
        let mut snap = Self::default();
        for (_, _, o, _) in delta.iter() {
            if let DeltaObj::Lit(l) = o {
                if !snap.by_id.contains_key(&l) {
                    let lit = table.arc(l);
                    snap.by_content.insert(Arc::clone(&lit), l);
                    snap.by_id.insert(l, lit);
                }
            }
        }
        snap
    }

    fn id(&self, lit: &Literal) -> Option<u64> {
        self.by_content.get(lit).copied()
    }

    fn get(&self, id: u64) -> Option<&Literal> {
        self.by_id.get(&id).map(Arc::as_ref)
    }
}

/// The immutable baseline of one shard: succinct layers over the shard's
/// predicate/concept partition, in the **global** id space. `Arc`-shared
/// so a background compaction snapshots it for free.
#[derive(Debug)]
pub(crate) struct ShardBase {
    pub(crate) objects: TripleLayer,
    pub(crate) datatypes: DatatypeLayer,
    pub(crate) types: RdfTypeStore,
}

impl ShardBase {
    fn len(&self) -> usize {
        self.objects.len() + self.datatypes.len() + self.types.len()
    }
}

/// Sorted, deduplicated per-shard triple lists awaiting layer construction.
#[derive(Debug, Default)]
struct ShardInput {
    objects: Vec<(u64, u64, u64)>,
    datatypes: Vec<(u64, u64, Literal)>,
    types: Vec<(u64, u64)>,
}

impl ShardInput {
    fn build(mut self) -> ShardBase {
        self.objects.sort_unstable();
        self.objects.dedup();
        self.datatypes
            .sort_unstable_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
        self.datatypes.dedup();
        ShardBase {
            objects: TripleLayer::build(&self.objects),
            datatypes: DatatypeLayer::build(&self.datatypes),
            types: RdfTypeStore::from_pairs(self.types),
        }
    }
}

/// A background rebuild in flight on its own thread: the thread folds a
/// snapshot of the shard into fresh layers and hands the snapshot overlay
/// back (the swap rebases the live overlay against it without probing any
/// layer) along with its wall time.
#[derive(Debug)]
struct PendingRebuild {
    handle: JoinHandle<RebuildJobOut>,
    /// Set when an inline `compact_shard` superseded this rebuild: its
    /// output is discarded on join instead of swapped in — a running
    /// thread cannot be cancelled, but a stale result must never clobber
    /// fresher layers.
    stale: bool,
}

/// One predicate shard: immutable layers plus the mutable overlay.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) base: Arc<ShardBase>,
    pub(crate) delta: DeltaStore,
    pending: Option<PendingRebuild>,
    /// Identity of this shard's current layers, process-unique: bumped on
    /// every swap so the persistence layer knows when the on-disk layer
    /// file is stale (see [`crate::persist`]).
    pub(crate) gen: u64,
}

/// Lifetime counters of a [`ShardedHybridStore`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Shard compactions performed (inline + background).
    pub compactions: usize,
    /// Of those, how many ran on a background thread.
    pub background_compactions: usize,
    /// Total triples inserted (effective).
    pub total_inserted: usize,
    /// Total triples deleted (effective).
    pub total_deleted: usize,
    /// Total hot-path time: encode + route + overlay insertion.
    pub total_ingest: Duration,
    /// Total layer-rebuild wall time (rebuild-thread time for background
    /// runs — off the hot path).
    pub total_compaction: Duration,
    /// Total hot-path time spent atomically swapping rebuilt layers in
    /// and rebasing the live overlay.
    pub total_swap: Duration,
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

/// What a rebuild thread returns on join: fresh layers, the snapshot
/// overlay the swap rebases against, and the build wall time.
type RebuildJobOut = (ShardBase, DeltaStore, Duration);

/// A predicate-sharded hybrid store: N independent baseline+overlay
/// shards in one global id space, batch ingestion, scatter/gather
/// [`TripleSource`] view, and per-shard compaction that can run on
/// background threads. See the module docs for the architecture.
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
    background: bool,
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
    /// reports the batch's net term-space changes (for incremental
    /// continuous-query evaluation). Off by default.
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
    /// into `n_shards` (predicates and concepts routed round-robin). Shard
    /// bases are constructed in parallel, one worker per shard.
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

        // Encode + route every triple to its shard's input list.
        let mut parts: Vec<ShardInput> = (0..n_shards).map(|_| ShardInput::default()).collect();
        for t in graph {
            validate_triple(t)?;
            let p_iri = t.predicate.as_iri().expect("validated predicate");
            let s_key = instance_key(&t.subject).expect("validated subject");
            let s = dicts.instances.get_or_insert(&s_key);
            dicts.instances.record_occurrence(s);
            if t.is_type_triple() {
                let c_iri = t.object.as_iri().expect("validated rdf:type object");
                let c = dicts
                    .concepts
                    .id(c_iri)
                    .expect("augmentation covers all data classes");
                dicts.concepts.record_occurrence(c);
                parts[routes.concept(c)].types.push((s, c));
            } else {
                let p = dicts
                    .properties
                    .id(p_iri)
                    .expect("augmentation covers all data properties");
                dicts.properties.record_occurrence(p);
                let shard = routes.prop(p);
                match &t.object {
                    Term::Literal(lit) => parts[shard].datatypes.push((p, s, lit.clone())),
                    other => {
                        let o_key = instance_key(other).expect("resource object");
                        let o = dicts.instances.get_or_insert(&o_key);
                        dicts.instances.record_occurrence(o);
                        parts[shard].objects.push((p, s, o));
                    }
                }
            }
        }

        // Freeze the per-shard layers, one worker per shard.
        let bases: Vec<ShardBase> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|part| scope.spawn(move || part.build()))
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
                    pending: None,
                    gen: crate::persist::next_generation(),
                })
                .collect(),
            routes,
            ovf_properties: OverflowDict::default(),
            ovf_concepts: OverflowDict::default(),
            literals: LiteralTable::default(),
            policy: CompactionPolicy::default(),
            background: true,
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
            background: true,
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
    pub(crate) fn shard_from_loaded(base: ShardBase, delta: DeltaStore, gen: u64) -> Shard {
        Shard {
            base: Arc::new(base),
            delta,
            pending: None,
            gen,
        }
    }

    /// Replaces the per-shard compaction policy.
    pub fn with_policy(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Chooses where compactions run: `true` (default) rebuilds on a
    /// spawned thread and swaps atomically on a later `apply`;
    /// `false` rebuilds inline, inside the `apply` that crossed the
    /// threshold.
    pub fn with_background_compaction(mut self, background: bool) -> Self {
        self.background = background;
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
    /// access at a consistent epoch while `apply` and background
    /// compaction proceed; while any clone of the snapshot is alive the
    /// store counts it as a pin ([`ShardedStats::live_pins`]) and the
    /// quiescence-only literal GC will not reclaim the shared literal
    /// table (ids handed out at this epoch must keep decoding to the
    /// same content on the live store).
    pub fn snapshot(&self) -> crate::snapshot::StoreSnapshot {
        self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        crate::snapshot::StoreSnapshot::pin(self.frozen_view(), self.epoch, Arc::clone(&self.pins))
    }

    /// A read-only deep-frozen clone backing [`snapshot`](Self::snapshot):
    /// `Arc`-shared shard layers, cloned overlays (pending rebuilds are
    /// irrelevant to a frozen view and dropped), no persist mark. Never
    /// written to — background compaction is off and the snapshot
    /// wrapper exposes it read-only.
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
                    pending: None,
                    gen: s.gen,
                })
                .collect(),
            routes: self.routes.clone(),
            ovf_properties: self.ovf_properties.clone(),
            ovf_concepts: self.ovf_concepts.clone(),
            literals: self.literals.clone(),
            policy: self.policy,
            background: false,
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

    /// Number of background rebuilds currently in flight.
    pub fn pending_compactions(&self) -> usize {
        self.shards.iter().filter(|s| s.pending.is_some()).count()
    }

    // ------------------------------------------------------------- ingestion

    /// Applies one batch: deletions first, then insertions.
    ///
    /// The calling thread encodes and routes every operation into
    /// per-shard lists, then applies each shard's list to its overlay.
    /// Shards whose overlay crossed the policy threshold afterwards are
    /// compacted — on a spawned rebuild thread when background compaction
    /// is on (finished rebuilds from earlier batches are swapped in at
    /// the start of the call), inline otherwise.
    pub fn apply(&mut self, inserts: &Graph, deletes: &Graph) -> Result<IngestReport, StreamError> {
        // Validate the whole batch before mutating anything: a malformed
        // triple rejects the batch atomically, before routing interns a
        // single term of it.
        for t in deletes.iter().chain(inserts) {
            validate_triple(t)?;
        }
        let mut report = IngestReport::default();
        let (swap_time, swapped) = self.swap_in_rebuilds(false);
        report.compacted = swapped > 0;

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

        let mut compaction_time = swap_time;
        for i in 0..self.shards.len() {
            let shard = &self.shards[i];
            if shard.delta.overlay_len() >= self.policy.max_overlay
                && shard.pending.is_none()
                && !(self.background && self.start_shard_compaction(i))
            {
                let t1 = Instant::now();
                self.compact_shard(i);
                compaction_time += t1.elapsed();
                report.compacted = true;
            }
        }
        report.compaction = compaction_time;
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
        let decode_inst = |id: u64| {
            key_to_term_arc(
                self.dicts
                    .instances
                    .term_arc(id)
                    .expect("dictionary-complete instance id"),
            )
        };
        let prop_term = |id: u64| -> Term {
            let iri = if id >= OVERFLOW_BASE {
                self.ovf_properties.term(id)
            } else {
                self.dicts.properties.term_arc(id)
            };
            Term::Iri(iri.expect("dictionary-complete property id"))
        };
        let concept_term = |id: u64| -> Term {
            let iri = if id >= OVERFLOW_BASE {
                self.ovf_concepts.term(id)
            } else {
                self.dicts.concepts.term_arc(id)
            };
            Term::Iri(iri.expect("dictionary-complete concept id"))
        };
        let rdf_type = Term::iri(se_rdf::vocab::rdf::TYPE);
        let events = effects
            .into_iter()
            .map(|eff| match eff {
                EffOp::Type(op, insert) => (
                    Triple::new(decode_inst(op.s), rdf_type.clone(), concept_term(op.c)),
                    if insert { 1 } else { -1 },
                ),
                EffOp::Obj(op, insert) => {
                    let object = match op.o {
                        OpObj::Inst(o) => decode_inst(o),
                        OpObj::Lit(_, lit) => Term::Literal((*lit).clone()),
                    };
                    (
                        Triple::new(decode_inst(op.s), prop_term(op.p), object),
                        if insert { 1 } else { -1 },
                    )
                }
            })
            .collect();
        BatchDelta::from_events(events)
    }

    /// Drops the shared overlay-literal table when nothing can reference
    /// it: table ids live only in overlay entries (layers store literal
    /// *content*) and in snapshots owned by in-flight rebuilds, so once
    /// every shard's overlay is empty and no rebuild is pending the
    /// table is garbage. Keeps long streams from accumulating every
    /// distinct literal ever ingested. (Steady streams with always-dirty
    /// overlays still grow the table; ROADMAP item 2 retires the shared
    /// table, keeping overlay literals in the one shard's delta.)
    ///
    /// A live [`StoreSnapshot`](crate::snapshot::StoreSnapshot) counts as
    /// non-quiescent: `Value::Literal(OVERFLOW_BASE + id)` values decoded
    /// from a pinned snapshot share this table's id space, and resetting
    /// it would re-issue the same ids for different content — a value
    /// handed from snapshot to live store would silently decode to the
    /// wrong literal. Reclamation resumes once the last pin drops.
    fn gc_literals(&mut self) {
        let quiescent = self
            .shards
            .iter()
            .all(|s| s.delta.is_empty() && s.pending.is_none())
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

    /// Compacts one shard inline: fold baseline + overlay into fresh
    /// layers (same id space — no re-encoding) and swap them in.
    pub fn compact_shard(&mut self, shard: usize) {
        // A background rebuild may be in flight against an older snapshot;
        // its result is superseded by this inline fold. A running thread
        // cannot be cancelled, so mark it stale — the join discards its
        // output instead of swapping stale layers over the fresh ones
        // (which would drop every write that landed in between).
        if let Some(pending) = &mut self.shards[shard].pending {
            pending.stale = true;
        }
        let t0 = Instant::now();
        let built = {
            let s = &self.shards[shard];
            let lits = LitSnapshot::for_delta(&s.delta, &self.literals);
            rebuild_shard(&s.base, &s.delta, &lits)
        };
        self.stats.total_compaction += t0.elapsed();
        // Inline: the snapshot IS the live overlay, so the rebase is a
        // plain clear.
        self.swap_shard_base(shard, built, None);
    }

    /// Starts a background rebuild of one shard on its own thread, against
    /// an O(1) snapshot of its layers plus a clone of its overlay (both
    /// O(overlay), bounded by the compaction threshold — never O(store)).
    /// Returns `false`, with nothing started, if the OS refuses the
    /// thread; the caller then compacts inline.
    fn start_shard_compaction(&mut self, shard: usize) -> bool {
        let base = Arc::clone(&self.shards[shard].base);
        let delta = self.shards[shard].delta.clone();
        let lits = LitSnapshot::for_delta(&delta, &self.literals);
        let spawned = std::thread::Builder::new()
            .name(format!("se-compact-{shard}"))
            .spawn(move || {
                let t0 = Instant::now();
                let built = rebuild_shard(&base, &delta, &lits);
                (built, delta, t0.elapsed())
            });
        match spawned {
            Ok(handle) => {
                self.shards[shard].pending = Some(PendingRebuild {
                    handle,
                    stale: false,
                });
                true
            }
            Err(_) => false,
        }
    }

    /// Joins one shard's rebuild thread and swaps the fresh layers in
    /// (rebasing the live overlay), or discards a result a later inline
    /// compaction already superseded. Returns the hot-path swap time, or
    /// `None` for a discarded result.
    fn consume_rebuild(&mut self, shard: usize) -> Option<Duration> {
        let pending = self.shards[shard].pending.take().expect("pending rebuild");
        let joined = pending.handle.join();
        if pending.stale {
            // Superseded by an inline fold: the result is dead by design —
            // account nothing, swap nothing, and ignore even a panicked
            // rebuild.
            return None;
        }
        // `rebuild_shard` is pure id-space folding; a panic there is a bug.
        let (built, snapshot, build_time) = joined.expect("compaction thread panicked");
        self.stats.total_compaction += build_time;
        self.stats.background_compactions += 1;
        let t0 = Instant::now();
        self.swap_shard_base(shard, built, Some(&snapshot));
        Some(t0.elapsed())
    }

    /// Swaps in the background rebuilds that have finished — or, with
    /// `wait`, every one in flight, blocking on those still running.
    /// Returns `(hot-path swap time, shards swapped)`.
    fn swap_in_rebuilds(&mut self, wait: bool) -> (Duration, usize) {
        let mut spent = Duration::ZERO;
        let mut swapped = 0;
        for i in 0..self.shards.len() {
            let ready = self.shards[i]
                .pending
                .as_ref()
                .is_some_and(|p| wait || p.handle.is_finished());
            if ready {
                if let Some(t) = self.consume_rebuild(i) {
                    spent += t;
                    swapped += 1;
                }
            }
        }
        (spent, swapped)
    }

    /// Blocks until every in-flight background rebuild has been swapped
    /// in. Returns the number of shards swapped.
    pub fn flush_compactions(&mut self) -> usize {
        let (_, swapped) = self.swap_in_rebuilds(true);
        self.gc_literals();
        swapped
    }

    /// Installs rebuilt layers and rebases the live overlay onto them —
    /// atomically from the query perspective, and **without probing a
    /// single layer**:
    ///
    /// * an entry whose state is unchanged since the snapshot is covered
    ///   by the rebuild and collapses away;
    /// * for an entry that changed (a write raced the rebuild), the new
    ///   layers' membership is *derivable*: if the snapshot held the
    ///   triple, membership is the snapshot state's visibility; if not,
    ///   it is the old-baseline membership, which every [`DeltaState`]
    ///   encodes by construction (`Added`/`Cancelled` ⇔ absent,
    ///   `Deleted`/`Restored` ⇔ present). The entry then survives as
    ///   `Added` iff it asserts visibility the new layers lack, `Deleted`
    ///   iff it asserts invisibility they contradict.
    ///
    /// `snapshot: None` means the snapshot is the live overlay itself
    /// (inline compaction): everything collapses. Ids never change, so
    /// the whole rebase is O(overlay · log overlay) id-space work.
    fn swap_shard_base(
        &mut self,
        shard: usize,
        new_base: ShardBase,
        snapshot: Option<&DeltaStore>,
    ) {
        let t0 = Instant::now();
        let s = &mut self.shards[shard];
        let old_delta = std::mem::take(&mut s.delta);
        s.base = Arc::new(new_base);
        s.gen = crate::persist::next_generation();
        if let Some(snap) = snapshot {
            for (p, subj, o, st) in old_delta.iter() {
                let new_has = match snap.state(p, subj, o) {
                    Some(st0) => st0.present(),
                    None => matches!(st, DeltaState::Deleted | DeltaState::Restored),
                };
                match (st.present(), new_has) {
                    (true, false) => s.delta.set(p, subj, o, DeltaState::Added),
                    (false, true) => s.delta.set(p, subj, o, DeltaState::Deleted),
                    _ => {}
                }
            }
            for (subj, c, st) in old_delta.type_iter() {
                let new_has = match snap.type_state(subj, c) {
                    Some(st0) => st0.present(),
                    None => matches!(st, DeltaState::Deleted | DeltaState::Restored),
                };
                match (st.present(), new_has) {
                    (true, false) => s.delta.set_type(subj, c, DeltaState::Added),
                    (false, true) => s.delta.set_type(subj, c, DeltaState::Deleted),
                    _ => {}
                }
            }
        }
        self.stats.compactions += 1;
        self.stats.total_swap += t0.elapsed();
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

    /// Subject-sorted merge of a tombstone-filtered baseline run with the
    /// overlay's additions for one predicate of one shard.
    fn merge_pairs(
        &self,
        shard: usize,
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
                if !self.tombstoned(shard, p, s, &v) {
                    out.push((s, v));
                }
            } else {
                out.push(added[j]);
                j += 1;
            }
        }
        out
    }

    /// Materializes the full merged view as a term-space graph (baseline
    /// minus tombstones plus overlay insertions, across all shards).
    pub fn materialize(&self) -> Graph {
        let decode_inst = |id: u64| {
            key_to_term_arc(
                self.dicts
                    .instances
                    .term_arc(id)
                    .expect("dictionary-complete instance id"),
            )
        };
        let prop_term = |id: u64| -> Term {
            let iri = if id >= OVERFLOW_BASE {
                self.ovf_properties.term(id)
            } else {
                self.dicts.properties.term_arc(id)
            };
            Term::Iri(iri.expect("dictionary-complete property id"))
        };
        let concept_term = |id: u64| -> Term {
            let iri = if id >= OVERFLOW_BASE {
                self.ovf_concepts.term(id)
            } else {
                self.dicts.concepts.term_arc(id)
            };
            Term::Iri(iri.expect("dictionary-complete concept id"))
        };
        let rdf_type = Term::iri(se_rdf::vocab::rdf::TYPE);
        let mut g = Graph::new();
        for shard in &self.shards {
            for (p, s, o) in shard.base.objects.iter() {
                if shard.delta.state(p, s, DeltaObj::Inst(o)) != Some(DeltaState::Deleted) {
                    g.insert(Triple::new(decode_inst(s), prop_term(p), decode_inst(o)));
                }
            }
            for (p, s, li) in shard.base.datatypes.iter() {
                let lit = shard.base.datatypes.literal(li).expect("in-range literal");
                let dead = self
                    .literals
                    .id(lit)
                    .map(|l| shard.delta.state(p, s, DeltaObj::Lit(l)))
                    == Some(Some(DeltaState::Deleted));
                if !dead {
                    g.insert(Triple::new(
                        decode_inst(s),
                        prop_term(p),
                        Term::Literal(lit.clone()),
                    ));
                }
            }
            for (s, c) in shard.base.types.iter() {
                if shard.delta.type_state(s, c) != Some(DeltaState::Deleted) {
                    g.insert(Triple::new(
                        decode_inst(s),
                        rdf_type.clone(),
                        concept_term(c),
                    ));
                }
            }
            for (p, s, o, st) in shard.delta.iter() {
                if st == DeltaState::Added {
                    let object = match o {
                        DeltaObj::Inst(id) => decode_inst(id),
                        DeltaObj::Lit(l) => {
                            Term::Literal(self.literals.get(l).expect("interned").clone())
                        }
                    };
                    g.insert(Triple::new(decode_inst(s), prop_term(p), object));
                }
            }
            for (s, c, st) in shard.delta.type_iter() {
                if st == DeltaState::Added {
                    g.insert(Triple::new(
                        decode_inst(s),
                        rdf_type.clone(),
                        concept_term(c),
                    ));
                }
            }
        }
        g
    }
}

impl Drop for ShardedHybridStore {
    /// Joins every rebuild thread still in flight: no thread outlives the
    /// store.
    fn drop(&mut self) {
        for shard in &mut self.shards {
            if let Some(pending) = shard.pending.take() {
                let _ = pending.handle.join();
            }
        }
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
    base: &ShardBase,
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

fn apply_op(base: &ShardBase, delta: &mut DeltaStore, op: &Op, insert: bool) -> bool {
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

fn apply_type_op(base: &ShardBase, delta: &mut DeltaStore, op: &TypeOp, insert: bool) -> bool {
    let base_has = base.types.has_type(op.s, op.c);
    match transition(delta.type_state(op.s, op.c), base_has, insert) {
        Some(st) => {
            delta.set_type(op.s, op.c, st);
            true
        }
        None => false,
    }
}

/// Folds one shard's overlay into fresh layers — pure, id-space-stable,
/// safe to run on a background thread against a snapshot.
fn rebuild_shard(base: &ShardBase, delta: &DeltaStore, literals: &LitSnapshot) -> ShardBase {
    let mut input = ShardInput::default();
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
    input.build()
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
            Value::Concept(id) => {
                if id >= OVERFLOW_BASE {
                    self.ovf_concepts.term(id).map(Term::Iri)
                } else {
                    self.dicts.concepts.term_arc(id).map(Term::Iri)
                }
            }
            Value::Property(id) => {
                if id >= OVERFLOW_BASE {
                    self.ovf_properties.term(id).map(Term::Iri)
                } else {
                    self.dicts.properties.term_arc(id).map(Term::Iri)
                }
            }
            Value::Literal(idx) => self.literal_content(idx).map(|l| Term::Literal(l.clone())),
        }
    }

    fn literal(&self, idx: u64) -> Option<&Literal> {
        self.literal_content(idx)
    }

    fn objects(&self, p: u64, s: u64) -> Vec<Value> {
        let i = self.routes.prop(p);
        let shard = &self.shards[i];
        let mut out = Vec::new();
        for o in shard.base.objects.objects(p, s) {
            let v = Value::Instance(o);
            if !self.tombstoned(i, p, s, &v) {
                out.push(v);
            }
        }
        for li in shard.base.datatypes.literal_indices(p, s) {
            let v = Value::Literal(i as u64 * LIT_SHARD_STRIDE + li);
            if !self.tombstoned(i, p, s, &v) {
                out.push(v);
            }
        }
        for (o, st) in shard.delta.objects(p, s) {
            if st == DeltaState::Added {
                out.push(Self::obj_to_value(o));
            }
        }
        out
    }

    fn subjects(&self, p: u64, o: &Value) -> Vec<u64> {
        let i = self.routes.prop(p);
        let shard = &self.shards[i];
        match o {
            Value::Instance(oid) => {
                let mut out: Vec<u64> = shard
                    .base
                    .objects
                    .subjects(p, *oid)
                    .into_iter()
                    .filter(|&s| {
                        shard.delta.state(p, s, DeltaObj::Inst(*oid)) != Some(DeltaState::Deleted)
                    })
                    .collect();
                for (s, st) in shard.delta.subjects(p, DeltaObj::Inst(*oid)) {
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
        let i = self.routes.prop(p);
        let shard = &self.shards[i];
        let local = self.literals.id(lit);
        let mut out: Vec<u64> = shard
            .base
            .datatypes
            .subjects_by_literal(p, lit)
            .into_iter()
            .filter(|&s| {
                local.map(|l| shard.delta.state(p, s, DeltaObj::Lit(l)))
                    != Some(Some(DeltaState::Deleted))
            })
            .collect();
        if let Some(l) = local {
            for (s, st) in shard.delta.subjects(p, DeltaObj::Lit(l)) {
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
        let i = self.routes.prop(p);
        let shard = &self.shards[i];
        let (mut added_inst, mut added_lit) = (Vec::new(), Vec::new());
        for (s, o, st) in shard.delta.scan(p) {
            if st == DeltaState::Added {
                match o {
                    DeltaObj::Inst(_) => added_inst.push((s, Self::obj_to_value(o))),
                    DeltaObj::Lit(_) => added_lit.push((s, Self::obj_to_value(o))),
                }
            }
        }
        let base_inst: Vec<(u64, Value)> = shard
            .base
            .objects
            .scan_predicate(p)
            .into_iter()
            .map(|(s, o)| (s, Value::Instance(o)))
            .collect();
        let base_lit: Vec<(u64, Value)> = shard
            .base
            .datatypes
            .scan_predicate(p)
            .into_iter()
            .map(|(s, li)| (s, Value::Literal(i as u64 * LIT_SHARD_STRIDE + li)))
            .collect();
        let inst = self.merge_pairs(i, base_inst, added_inst, p);
        let lit = self.merge_pairs(i, base_lit, added_lit, p);
        kway_merge_by_subject(vec![inst, lit])
    }

    fn contains(&self, p: u64, s: u64, o: &Value) -> bool {
        let i = self.routes.prop(p);
        let shard = &self.shards[i];
        if let Some(key) = self.delta_key_of(o) {
            if let Some(st) = shard.delta.state(p, s, key) {
                return st.present();
            }
        }
        match o {
            Value::Instance(oid) => shard.base.objects.contains(p, s, *oid),
            Value::Literal(idx) => match self.literal_content(*idx) {
                Some(lit) => shard.base.datatypes.contains(p, s, lit),
                None => false,
            },
            _ => false,
        }
    }

    fn properties_in(&self, iv: IdInterval) -> Vec<u64> {
        let mut preds = BTreeSet::new();
        for shard in &self.shards {
            for idx in shard.base.objects.predicate_range(iv.lower, iv.upper) {
                preds.insert(shard.base.objects.predicate_at(idx));
            }
            for idx in shard.base.datatypes.predicate_range(iv.lower, iv.upper) {
                preds.insert(shard.base.datatypes.predicate_at(idx));
            }
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
        let base = shard.base.objects.count_predicate(p) + shard.base.datatypes.count_predicate(p);
        let mut n = base as isize;
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

    /// The single-store configuration: one shard, inline compaction.
    fn single() -> ShardedHybridStore {
        sharded(1).with_background_compaction(false)
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
        let mut sh = sharded(4).with_background_compaction(false);
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
        let mut h = sharded(3).with_background_compaction(false);
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
        let mut h = sharded(2)
            .with_background_compaction(false)
            .with_policy(CompactionPolicy { max_overlay: 2 });
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

    #[test]
    fn background_compaction_with_raced_writes() {
        let mut h = sharded(2)
            .with_background_compaction(true)
            .with_policy(CompactionPolicy { max_overlay: 4 });
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
        // Push several batches so rebuilds start while writes keep racing.
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
        h.flush_compactions();
        assert!(
            h.stats().background_compactions >= 1,
            "stream must exercise the background path"
        );
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
            let mut h = sharded(n).with_background_compaction(false);
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

    /// Regression: an inline `compact_shard` must invalidate any
    /// in-flight background rebuild — otherwise a later poll would swap
    /// stale layers over the fresh ones and silently drop the writes
    /// that landed in between. A running thread cannot be cancelled, so
    /// the rebuild is marked stale and its output discarded on join.
    #[test]
    fn inline_compact_discards_stale_background_rebuild() {
        let mut h = sharded(1)
            .with_background_compaction(true)
            .with_policy(CompactionPolicy { max_overlay: 2 });
        // Crosses the threshold: a background rebuild starts against a
        // snapshot that lacks everything after this batch.
        h.apply(
            &Graph::from_triples([t("c", "knows", iri("a")), t("d", "knows", iri("a"))]),
            &Graph::new(),
        )
        .unwrap();
        assert_eq!(h.pending_compactions(), 1);
        // Newer write, then an inline compact folding it in. (Whether the
        // in-flight rebuild got swapped during the apply or marked stale
        // by the fold is a race; either way no write may be lost.)
        h.apply(
            &Graph::from_triples([t("e", "knows", iri("a"))]),
            &Graph::new(),
        )
        .unwrap();
        h.compact_shard(0);
        // Subsequent applies must never resurrect a stale snapshot.
        h.apply(
            &Graph::from_triples([t("f", "knows", iri("a"))]),
            &Graph::new(),
        )
        .unwrap();
        h.flush_compactions();
        assert_eq!(h.pending_compactions(), 0, "stale rebuild reaped");
        let knows = h.property_id("http://x/knows").unwrap();
        let a = h.instance_id(&iri("a")).unwrap();
        let mut subs = h.subjects(knows, &Value::Instance(a));
        subs.sort_unstable();
        let expect: Vec<u64> = ["c", "d", "e", "f"]
            .iter()
            .map(|s| h.instance_id(&iri(s)).unwrap())
            .collect();
        let mut expect = expect;
        expect.sort_unstable();
        assert_eq!(subs, expect, "no write lost across the race");
    }

    /// The shared overlay-literal table is dropped once every overlay is
    /// empty and no rebuild is pending (and queries still answer from
    /// the folded layers).
    #[test]
    fn literal_table_garbage_collected_when_quiescent() {
        let mut h = sharded(2).with_background_compaction(false);
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
        let mut h = sharded(2).with_background_compaction(false);
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
    /// 4-shard store compacting on background threads, one compacting
    /// inline and the 1-shard single store end up identical.
    #[test]
    fn background_compaction_small_batches_match_inline_and_single() {
        let mut background = sharded(4)
            .with_background_compaction(true)
            .with_policy(CompactionPolicy { max_overlay: 6 });
        let mut inline = sharded(4)
            .with_background_compaction(false)
            .with_policy(CompactionPolicy { max_overlay: 6 });
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
            let rb = background.apply(&ins, &del).unwrap();
            let ri = inline.apply(&ins, &del).unwrap();
            let rs = single.apply(&ins, &del).unwrap();
            assert_eq!((rb.inserted, rb.deleted), (ri.inserted, ri.deleted));
            assert_eq!((rb.inserted, rb.deleted), (rs.inserted, rs.deleted));
        }
        background.flush_compactions();
        inline.flush_compactions();
        assert_eq!(background.pending_compactions(), 0);
        assert!(background.stats().background_compactions >= 1);
        assert!(inline.stats().compactions >= 1);
        assert_eq!(inline.stats().background_compactions, 0);
        assert_eq!(norm(&background.materialize()), norm(&inline.materialize()));
        assert_eq!(norm(&background.materialize()), norm(&single.materialize()));
    }

    /// Dropping a store while a rebuild thread is still running joins
    /// it: once `drop` returns, the thread has released its snapshot of
    /// the shard's layers.
    #[test]
    fn dropping_store_joins_inflight_rebuild() {
        let mut o = Ontology::new();
        o.add_object_property("http://x/p");
        // A baseline large enough that the rebuild is still running when
        // the store drops.
        let g = Graph::from_triples(
            (0..20_000).map(|i| t(&format!("s{i}"), "p", iri(&format!("o{}", i % 97)))),
        );
        let mut h = ShardedHybridStore::build(&o, &g, 1)
            .unwrap()
            .with_policy(CompactionPolicy { max_overlay: 2 });
        h.apply(
            &Graph::from_triples([t("x", "p", iri("o1")), t("y", "p", iri("o2"))]),
            &Graph::new(),
        )
        .unwrap();
        assert_eq!(h.pending_compactions(), 1);
        let layers = Arc::downgrade(&h.shards[0].base);
        drop(h);
        assert!(
            layers.upgrade().is_none(),
            "the rebuild thread was joined and released the layers"
        );
    }
}
