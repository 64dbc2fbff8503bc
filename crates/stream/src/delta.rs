//! The mutable delta overlay: inserted/deleted triples in identifier
//! space, held in ordered maps (`BTreeMap`) until compaction folds them
//! into the succinct baseline.
//!
//! Every triple is keyed in **PSO** and **POS** order (mirroring the
//! baseline's single logical PSO index), `rdf:type` triples in the two
//! RDFType access paths `(concept, subject)` and `(subject, concept)`.
//! The map *value* is a [`DeltaState`] recording how the triple relates
//! to the immutable baseline. Entries are never removed — state
//! transitions overwrite in place, so [`DeltaStore::overlay_len`], the
//! compaction trigger, counts every triple the overlay has touched:
//!
//! | state      | in baseline? | visible in hybrid view? |
//! |------------|--------------|-------------------------|
//! | `Added`    | no           | yes                     |
//! | `Deleted`  | yes          | no (tombstone)          |
//! | `Restored` | yes          | yes (tombstone undone)  |
//! | `Cancelled`| no           | no (insert undone)      |
//!
//! The [`ShardedHybridStore`](crate::ShardedHybridStore) performs the
//! transitions (it knows baseline membership); the `DeltaStore` enforces
//! none of it and simply stores what it is told.
//!
//! Literal objects are keyed by their id in the store's content-interned
//! `LiteralTable` — one table shared by every shard's overlay — and
//! surface to the query layer offset by [`crate::OVERFLOW_BASE`].

use se_rdf::{Literal, Triple};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The net visibility changes of one batch, in term space: what the
/// write-ahead log records and a leader ships to its replicas.
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

/// How a delta entry relates to the immutable baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaState {
    /// Not in the baseline; present in the hybrid view.
    Added,
    /// In the baseline; tombstoned out of the hybrid view.
    Deleted,
    /// In the baseline; a tombstone was cancelled by a re-insert.
    Restored,
    /// Not in the baseline; an overlay insert was cancelled by a delete.
    Cancelled,
}

impl DeltaState {
    /// `true` if the triple is visible in the hybrid view.
    pub fn present(self) -> bool {
        matches!(self, DeltaState::Added | DeltaState::Restored)
    }
}

/// Object position of a delta triple: an instance id or an interned
/// overlay-literal id. Instances order before literals, matching the
/// "object layer before datatype layer" convention of the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeltaObj {
    /// Instance identifier (shared id space with the baseline).
    Inst(u64),
    /// Overlay-literal id (index into the store's `LiteralTable`).
    Lit(u64),
}

/// Content-interned table of overlay literals, shared by every shard;
/// ids surface as `Value::Literal(OVERFLOW_BASE + id)`. Entries are
/// `Arc`-shared so a routed op can carry its literal's content for one
/// refcount bump, not a deep clone.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiteralTable {
    pub(crate) literals: Vec<Arc<Literal>>,
    ids: HashMap<Arc<Literal>, u64>,
}

impl LiteralTable {
    pub(crate) fn intern(&mut self, lit: &Literal) -> u64 {
        if let Some(&id) = self.ids.get(lit) {
            return id;
        }
        let id = self.literals.len() as u64;
        let arc = Arc::new(lit.clone());
        self.literals.push(Arc::clone(&arc));
        self.ids.insert(arc, id);
        id
    }

    pub(crate) fn id(&self, lit: &Literal) -> Option<u64> {
        self.ids.get(lit).copied()
    }

    pub(crate) fn get(&self, id: u64) -> Option<&Literal> {
        self.literals.get(id as usize).map(Arc::as_ref)
    }

    /// The shared content of an interned id (for shipping with an op).
    pub(crate) fn arc(&self, id: u64) -> Arc<Literal> {
        Arc::clone(&self.literals[id as usize])
    }
}

/// The greatest [`DeltaObj`]: the inclusive end of a `(p, s)` object run.
const MAX_OBJ: DeltaObj = DeltaObj::Lit(u64::MAX);

/// The mutable overlay of inserted/deleted triples, in identifier space.
#[derive(Debug, Clone, Default)]
pub struct DeltaStore {
    /// Non-type triples, `(p, s, o)` order.
    pso: BTreeMap<(u64, u64, DeltaObj), DeltaState>,
    /// Non-type triples, `(p, o, s)` order.
    pos: BTreeMap<(u64, DeltaObj, u64), DeltaState>,
    /// `rdf:type` triples, `(concept, subject)` order.
    type_cs: BTreeMap<(u64, u64), DeltaState>,
    /// `rdf:type` triples, `(subject, concept)` order.
    type_sc: BTreeMap<(u64, u64), DeltaState>,
    /// Number of entries currently in [`DeltaState::Added`].
    n_added: usize,
    /// Number of entries currently in [`DeltaState::Deleted`].
    n_deleted: usize,
}

impl DeltaStore {
    /// An empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of overlay entries (any state) — the compaction trigger
    /// metric: it measures overlay memory, not net triple count.
    pub fn overlay_len(&self) -> usize {
        self.pso.len() + self.type_cs.len()
    }

    /// Net effect on the triple count: `added - deleted`.
    pub fn net_triples(&self) -> isize {
        self.n_added as isize - self.n_deleted as isize
    }

    /// Entries in [`DeltaState::Added`].
    pub fn added(&self) -> usize {
        self.n_added
    }

    /// Entries in [`DeltaState::Deleted`].
    pub fn deleted(&self) -> usize {
        self.n_deleted
    }

    /// `true` if the overlay holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.overlay_len() == 0
    }

    // ---------------------------------------------------------- transitions

    fn bump(&mut self, old: Option<DeltaState>, new: DeltaState) {
        match old {
            Some(DeltaState::Added) => self.n_added -= 1,
            Some(DeltaState::Deleted) => self.n_deleted -= 1,
            _ => {}
        }
        match new {
            DeltaState::Added => self.n_added += 1,
            DeltaState::Deleted => self.n_deleted += 1,
            _ => {}
        }
    }

    /// Sets the state of a non-type triple.
    pub fn set(&mut self, p: u64, s: u64, o: DeltaObj, state: DeltaState) {
        let old = self.pso.insert((p, s, o), state);
        self.pos.insert((p, o, s), state);
        self.bump(old, state);
    }

    /// Sets the state of an `rdf:type` triple.
    pub fn set_type(&mut self, s: u64, c: u64, state: DeltaState) {
        let old = self.type_cs.insert((c, s), state);
        self.type_sc.insert((s, c), state);
        self.bump(old, state);
    }

    /// Current state of a non-type triple, if the overlay has an entry.
    pub fn state(&self, p: u64, s: u64, o: DeltaObj) -> Option<DeltaState> {
        self.pso.get(&(p, s, o)).copied()
    }

    /// Current state of an `rdf:type` triple.
    pub fn type_state(&self, s: u64, c: u64) -> Option<DeltaState> {
        self.type_sc.get(&(s, c)).copied()
    }

    // --------------------------------------------------------------- access

    /// Overlay entries for `(p, s, ?o)`, in object order.
    pub fn objects(&self, p: u64, s: u64) -> Vec<(DeltaObj, DeltaState)> {
        self.pso
            .range((p, s, DeltaObj::Inst(0))..=(p, s, MAX_OBJ))
            .map(|(&(_, _, o), &st)| (o, st))
            .collect()
    }

    /// Overlay entries for `(?s, p, o)`, in subject order.
    pub fn subjects(&self, p: u64, o: DeltaObj) -> Vec<(u64, DeltaState)> {
        self.pos
            .range((p, o, 0)..=(p, o, u64::MAX))
            .map(|(&(_, _, s), &st)| (s, st))
            .collect()
    }

    /// Overlay entries for `(?s, p, ?o)`, in `(s, o)` order.
    pub fn scan(&self, p: u64) -> Vec<(u64, DeltaObj, DeltaState)> {
        self.pso
            .range((p, 0, DeltaObj::Inst(0))..=(p, u64::MAX, MAX_OBJ))
            .map(|(&(_, s, o), &st)| (s, o, st))
            .collect()
    }

    /// Distinct predicates with overlay entries in `[lo, hi)`, ascending;
    /// empty when `lo >= hi`. Seeks from one predicate to the next: one
    /// range lookup per distinct predicate, however many entries each has.
    pub fn predicates_in(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut from = lo;
        while from < hi {
            let next = self
                .pso
                .range((from, 0, DeltaObj::Inst(0))..(hi, 0, DeltaObj::Inst(0)))
                .next();
            let Some((&(p, _, _), _)) = next else { break };
            out.push(p);
            from = p + 1;
        }
        out
    }

    /// All non-type overlay entries, in `(p, s, o)` order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, DeltaObj, DeltaState)> + '_ {
        self.pso.iter().map(|(&(p, s, o), &st)| (p, s, o, st))
    }

    /// Overlay entries for `(?s, rdf:type, c)` with `c ∈ [lo, hi)`, in
    /// `(concept, subject)` order; empty when `lo >= hi`.
    pub fn type_subjects_in(&self, lo: u64, hi: u64) -> Vec<(u64, u64, DeltaState)> {
        if lo >= hi {
            return Vec::new();
        }
        self.type_cs
            .range((lo, 0)..(hi, 0))
            .map(|(&(c, s), &st)| (c, s, st))
            .collect()
    }

    /// Overlay entries for `(s, rdf:type, ?c)` with `c ∈ [lo, hi)`, in
    /// concept order; empty when `lo >= hi`.
    pub fn type_concepts_of(&self, s: u64, lo: u64, hi: u64) -> Vec<(u64, DeltaState)> {
        if lo >= hi {
            return Vec::new();
        }
        self.type_sc
            .range((s, lo)..(s, hi))
            .map(|(&(_, c), &st)| (c, st))
            .collect()
    }

    /// All `rdf:type` overlay entries, in `(subject, concept)` order.
    pub fn type_iter(&self) -> impl Iterator<Item = (u64, u64, DeltaState)> + '_ {
        self.type_sc.iter().map(|(&(s, c), &st)| (s, c, st))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The predicate seek agrees with collecting every entry of the
    /// interval and deduplicating, on a random overlay holding all four
    /// states, over random, empty and inverted intervals.
    #[test]
    fn predicates_in_matches_naive_collect() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let states = [
            DeltaState::Added,
            DeltaState::Deleted,
            DeltaState::Restored,
            DeltaState::Cancelled,
        ];
        let mut d = DeltaStore::new();
        for _ in 0..2000 {
            let o = if next(2) == 0 {
                DeltaObj::Inst(next(50))
            } else {
                DeltaObj::Lit(next(50))
            };
            d.set(next(64), next(40), o, states[next(4) as usize]);
        }
        let naive = |lo: u64, hi: u64| -> Vec<u64> {
            let mut ps: Vec<u64> = d
                .iter()
                .map(|(p, ..)| p)
                .filter(|p| (lo..hi).contains(p))
                .collect();
            ps.dedup();
            ps
        };
        for _ in 0..500 {
            let (lo, hi) = (next(70), next(70));
            assert_eq!(d.predicates_in(lo, hi), naive(lo, hi), "[{lo}, {hi})");
        }
        for (lo, hi) in [(0, 0), (10, 10), (30, 5), (0, u64::MAX), (63, 64)] {
            assert_eq!(d.predicates_in(lo, hi), naive(lo, hi), "[{lo}, {hi})");
        }
    }

    #[test]
    fn transitions_update_counters() {
        let mut d = DeltaStore::new();
        d.set(1, 2, DeltaObj::Inst(3), DeltaState::Added);
        assert_eq!((d.added(), d.deleted()), (1, 0));
        d.set(1, 2, DeltaObj::Inst(3), DeltaState::Cancelled);
        assert_eq!((d.added(), d.deleted()), (0, 0));
        d.set_type(9, 8, DeltaState::Deleted);
        assert_eq!((d.added(), d.deleted()), (0, 1));
        d.set_type(9, 8, DeltaState::Restored);
        assert_eq!((d.added(), d.deleted()), (0, 0));
        assert_eq!(d.overlay_len(), 2);
        assert_eq!(d.net_triples(), 0);
    }

    #[test]
    fn pso_and_pos_agree() {
        let mut d = DeltaStore::new();
        d.set(1, 5, DeltaObj::Inst(7), DeltaState::Added);
        d.set(1, 6, DeltaObj::Inst(7), DeltaState::Added);
        d.set(1, 5, DeltaObj::Inst(8), DeltaState::Deleted);
        d.set(2, 5, DeltaObj::Inst(7), DeltaState::Added);
        assert_eq!(
            d.objects(1, 5),
            vec![
                (DeltaObj::Inst(7), DeltaState::Added),
                (DeltaObj::Inst(8), DeltaState::Deleted)
            ]
        );
        assert_eq!(
            d.subjects(1, DeltaObj::Inst(7)),
            vec![(5, DeltaState::Added), (6, DeltaState::Added)]
        );
        assert_eq!(d.scan(1).len(), 3);
        assert_eq!(d.predicates_in(0, 10), vec![1, 2]);
        assert_eq!(d.predicates_in(2, 10), vec![2]);
    }

    #[test]
    fn literal_interning_deduplicates() {
        let mut table = LiteralTable::default();
        let a = table.intern(&Literal::string("x"));
        let b = table.intern(&Literal::string("x"));
        let c = table.intern(&Literal::string("y"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(table.get(a), Some(&Literal::string("x")));
        assert_eq!(*table.arc(c), Literal::string("y"));
        assert_eq!(table.id(&Literal::string("y")), Some(c));
        assert_eq!(table.get(99), None);
    }

    #[test]
    fn instances_order_before_literals() {
        let mut d = DeltaStore::new();
        let l = 0;
        d.set(1, 5, DeltaObj::Lit(l), DeltaState::Added);
        d.set(1, 5, DeltaObj::Inst(9), DeltaState::Added);
        let objs: Vec<DeltaObj> = d.objects(1, 5).into_iter().map(|(o, _)| o).collect();
        assert_eq!(objs, vec![DeltaObj::Inst(9), DeltaObj::Lit(l)]);
    }

    #[test]
    fn type_access_paths() {
        let mut d = DeltaStore::new();
        d.set_type(10, 3, DeltaState::Added);
        d.set_type(11, 3, DeltaState::Added);
        d.set_type(10, 4, DeltaState::Deleted);
        assert_eq!(
            d.type_subjects_in(3, 4),
            vec![(3, 10, DeltaState::Added), (3, 11, DeltaState::Added)]
        );
        assert_eq!(
            d.type_concepts_of(10, 0, u64::MAX),
            vec![(3, DeltaState::Added), (4, DeltaState::Deleted)]
        );
        assert_eq!(d.type_state(10, 4), Some(DeltaState::Deleted));
        assert_eq!(d.type_state(12, 4), None);
    }

    #[test]
    fn empty_and_inverted_ranges_are_empty() {
        let mut d = DeltaStore::new();
        d.set(1, 5, DeltaObj::Inst(7), DeltaState::Added);
        d.set(3, 5, DeltaObj::Inst(7), DeltaState::Added);
        d.set_type(10, 3, DeltaState::Added);
        d.set_type(10, 5, DeltaState::Added);
        for (lo, hi) in [(3, 3), (4, 2), (u64::MAX, 0)] {
            assert_eq!(d.predicates_in(lo, hi), Vec::<u64>::new());
            assert_eq!(d.type_subjects_in(lo, hi), Vec::new());
            assert_eq!(d.type_concepts_of(10, lo, hi), Vec::new());
        }
    }

    #[test]
    fn objects_of_the_largest_subject() {
        let mut d = DeltaStore::new();
        d.set(1, u64::MAX, DeltaObj::Inst(7), DeltaState::Added);
        d.set(1, u64::MAX, DeltaObj::Lit(u64::MAX), DeltaState::Deleted);
        d.set(1, 4, DeltaObj::Inst(8), DeltaState::Added);
        d.set(2, 0, DeltaObj::Inst(9), DeltaState::Added);
        assert_eq!(
            d.objects(1, u64::MAX),
            vec![
                (DeltaObj::Inst(7), DeltaState::Added),
                (DeltaObj::Lit(u64::MAX), DeltaState::Deleted)
            ]
        );
        assert_eq!(d.scan(1).len(), 3);
    }
}
