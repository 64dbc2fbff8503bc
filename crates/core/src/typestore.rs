//! The RDFType store (paper §4).
//!
//! "Triples containing a rdf:type property are stored in the RDFType store
//! layout. [...] We simply store them in a red-black tree in order to
//! maintain the search complexity to O(log(n)) while being fast when we
//! insert rdf:type triples during database construction."
//!
//! Two red-black trees provide the two access paths the optimizer relies on
//! (§5.1: "the latter access path (SO/OS on rdf:type) is more efficient
//! than the one based on the SDS structures"):
//!
//! * `(concept, subject)` — subjects of a concept, and, because LiteMat
//!   sub-hierarchies are identifier intervals, subjects of a concept *and
//!   all its sub-concepts* with one range scan;
//! * `(subject, concept)` — concepts of a subject.

use se_litemat::IdInterval;
use se_rbtree::RbTree;
use std::ops::Bound::{Excluded, Included};

/// Red-black-tree storage for `rdf:type` triples.
#[derive(Debug, Clone, Default)]
pub struct RdfTypeStore {
    /// (concept id, subject id) — the CS access path.
    by_concept: RbTree<(u64, u64), ()>,
    /// (subject id, concept id) — the SC access path.
    by_subject: RbTree<(u64, u64), ()>,
}

impl RdfTypeStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an `rdf:type` triple.
    pub fn insert(&mut self, subject: u64, concept: u64) {
        self.by_concept.insert((concept, subject), ());
        self.by_subject.insert((subject, concept), ());
    }

    /// Number of distinct `rdf:type` triples.
    pub fn len(&self) -> usize {
        self.by_concept.len()
    }

    /// `true` if no triples are stored.
    pub fn is_empty(&self) -> bool {
        self.by_concept.is_empty()
    }

    /// Subjects typed by any concept in the LiteMat `interval` (the
    /// reasoning-enabled variant), ascending and deduplicated.
    pub fn subjects_of_interval(&self, interval: IdInterval) -> Vec<u64> {
        let mut subjects: Vec<u64> = self
            .by_concept
            .range(
                Included(&(interval.lower, 0)),
                Excluded(&(interval.upper, 0)),
            )
            .map(|((_, s), ())| *s)
            .collect();
        subjects.sort_unstable();
        subjects.dedup();
        subjects
    }

    /// Concepts of `subject`, ascending.
    pub fn concepts_of(&self, subject: u64) -> Vec<u64> {
        self.by_subject
            .range(Included(&(subject, 0)), Excluded(&(subject + 1, 0)))
            .map(|((_, c), ())| *c)
            .collect()
    }

    /// `true` if `subject` is typed exactly `concept`.
    pub fn has_type(&self, subject: u64, concept: u64) -> bool {
        self.by_subject.contains_key(&(subject, concept))
    }

    /// `true` if `subject` has any type inside `interval` (reasoning-aware
    /// membership — the check a bound `?x rdf:type C` TP performs).
    pub fn has_type_in_interval(&self, subject: u64, interval: IdInterval) -> bool {
        self.by_subject
            .range(
                Included(&(subject, interval.lower)),
                Excluded(&(subject, interval.upper)),
            )
            .next()
            .is_some()
    }

    /// Number of `rdf:type` triples whose concept lies in `interval` —
    /// the optimizer's selectivity statistic for type patterns. Constant
    /// time over [`IdInterval::ALL`] (`?s rdf:type ?c`), a range walk
    /// otherwise.
    pub fn count_interval(&self, interval: IdInterval) -> usize {
        if interval == IdInterval::ALL {
            return self.len();
        }
        self.by_concept
            .range(
                Included(&(interval.lower, 0)),
                Excluded(&(interval.upper, 0)),
            )
            .count()
    }

    /// `(concept, subject)` pairs whose concept lies in `interval`, in
    /// `(concept, subject)` order — the raw pairs behind
    /// [`RdfTypeStore::subjects_of_interval`], needed by overlay stores
    /// that must tombstone individual pairs before deduplication.
    pub fn pairs_in_interval(&self, interval: IdInterval) -> Vec<(u64, u64)> {
        self.by_concept
            .range(
                Included(&(interval.lower, 0)),
                Excluded(&(interval.upper, 0)),
            )
            .map(|(&(c, s), ())| (c, s))
            .collect()
    }

    /// Iterates over `(subject, concept)` pairs in subject order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.by_subject.iter().map(|(&(s, c), ())| (s, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RdfTypeStore {
        let mut st = RdfTypeStore::new();
        // Concept ids mimic a LiteMat layout: B=24 covers [24,28) with
        // C=25, D=26 as sub-concepts; A=20 is unrelated.
        st.insert(1, 20);
        st.insert(2, 24);
        st.insert(3, 25);
        st.insert(4, 26);
        st.insert(5, 25);
        st
    }

    #[test]
    fn exact_subjects() {
        let st = sample();
        assert_eq!(st.subjects_of_interval(IdInterval::point(25)), vec![3, 5]);
        assert_eq!(st.subjects_of_interval(IdInterval::point(24)), vec![2]);
        assert_eq!(
            st.subjects_of_interval(IdInterval::point(99)),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn interval_subjects_cover_sub_concepts() {
        let st = sample();
        let b = IdInterval {
            lower: 24,
            upper: 28,
        };
        assert_eq!(st.subjects_of_interval(b), vec![2, 3, 4, 5]);
        let a = IdInterval {
            lower: 20,
            upper: 24,
        };
        assert_eq!(st.subjects_of_interval(a), vec![1]);
    }

    #[test]
    fn interval_subjects_dedup() {
        let mut st = sample();
        st.insert(3, 26); // subject 3 typed with two concepts in [24,28)
        let b = IdInterval {
            lower: 24,
            upper: 28,
        };
        assert_eq!(st.subjects_of_interval(b), vec![2, 3, 4, 5]);
    }

    #[test]
    fn concepts_of_subject() {
        let mut st = sample();
        st.insert(1, 25);
        assert_eq!(st.concepts_of(1), vec![20, 25]);
        assert_eq!(st.concepts_of(2), vec![24]);
        assert_eq!(st.concepts_of(99), Vec::<u64>::new());
    }

    #[test]
    fn membership_checks() {
        let st = sample();
        assert!(st.has_type(3, 25));
        assert!(!st.has_type(3, 24));
        let b = IdInterval {
            lower: 24,
            upper: 28,
        };
        assert!(st.has_type_in_interval(3, b));
        assert!(st.has_type_in_interval(2, b));
        assert!(!st.has_type_in_interval(1, b));
    }

    #[test]
    fn counting() {
        let st = sample();
        assert_eq!(
            st.count_interval(IdInterval {
                lower: 24,
                upper: 28
            }),
            4
        );
        assert_eq!(
            st.count_interval(IdInterval {
                lower: 0,
                upper: 100
            }),
            5
        );
        assert_eq!(
            st.count_interval(IdInterval {
                lower: 30,
                upper: 40
            }),
            0
        );
        assert_eq!(st.count_interval(IdInterval::ALL), 5);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut st = RdfTypeStore::new();
        st.insert(1, 20);
        st.insert(1, 20);
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn iter_in_subject_order() {
        let st = sample();
        let pairs: Vec<(u64, u64)> = st.iter().collect();
        assert_eq!(pairs, vec![(1, 20), (2, 24), (3, 25), (4, 26), (5, 25)]);
    }
}
