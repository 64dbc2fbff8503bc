//! The RDFType store (paper §4).
//!
//! "Triples containing a rdf:type property are stored in the RDFType store
//! layout. [...] We simply store them in a red-black tree in order to
//! maintain the search complexity to O(log(n)) while being fast when we
//! insert rdf:type triples during database construction."
//!
//! This store departs from the paper's tree: nothing inserts into it after
//! construction, and every build path already holds the pairs sorted and
//! deduplicated, so two immutable sorted arrays give the same O(log n)
//! search with no insert phase, no per-node pointers, and a range count
//! that is two binary searches instead of a walk. The two arrays are the
//! two access paths the optimizer relies on (§5.1: "the latter access path
//! (SO/OS on rdf:type) is more efficient than the one based on the SDS
//! structures"):
//!
//! * `(concept, subject)` — subjects of a concept, and, because LiteMat
//!   sub-hierarchies are identifier intervals, subjects of a concept *and
//!   all its sub-concepts* as one contiguous run;
//! * `(subject, concept)` — concepts of a subject.
//!
//! Every probe is a pair of `partition_point` bounds, and an empty or
//! inverted interval (`lower >= upper`) yields an empty run.

use se_litemat::IdInterval;

/// Sorted-array storage for `rdf:type` triples.
#[derive(Debug, Clone, Default)]
pub struct RdfTypeStore {
    /// (concept id, subject id), ascending — the CS access path.
    by_concept: Box<[(u64, u64)]>,
    /// (subject id, concept id), ascending — the SC access path.
    by_subject: Box<[(u64, u64)]>,
}

impl RdfTypeStore {
    /// Builds the store from `(subject, concept)` pairs in any order;
    /// duplicates are dropped.
    pub fn from_pairs(mut pairs: Vec<(u64, u64)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        let mut by_concept: Vec<(u64, u64)> = pairs.iter().map(|&(s, c)| (c, s)).collect();
        by_concept.sort_unstable();
        Self {
            by_concept: by_concept.into_boxed_slice(),
            by_subject: pairs.into_boxed_slice(),
        }
    }

    /// Number of distinct `rdf:type` triples.
    pub fn len(&self) -> usize {
        self.by_subject.len()
    }

    /// `true` if no triples are stored.
    pub fn is_empty(&self) -> bool {
        self.by_subject.is_empty()
    }

    /// Heap bytes of the two arrays.
    pub fn heap_size(&self) -> usize {
        2 * self.len() * std::mem::size_of::<(u64, u64)>()
    }

    /// Subjects typed by any concept in the LiteMat `interval` (the
    /// reasoning-enabled variant), ascending and deduplicated.
    pub fn subjects_of_interval(&self, interval: IdInterval) -> Vec<u64> {
        let mut subjects: Vec<u64> = self
            .pairs_in_interval(interval)
            .iter()
            .map(|&(_, s)| s)
            .collect();
        subjects.sort_unstable();
        subjects.dedup();
        subjects
    }

    /// Concepts of `subject`, ascending.
    pub fn concepts_of(&self, subject: u64) -> impl Iterator<Item = u64> + '_ {
        self.subject_run(subject).iter().map(|&(_, c)| c)
    }

    /// `true` if `subject` is typed exactly `concept`.
    pub fn has_type(&self, subject: u64, concept: u64) -> bool {
        self.by_subject.binary_search(&(subject, concept)).is_ok()
    }

    /// `true` if `subject` has any type inside `interval` (reasoning-aware
    /// membership — the check a bound `?x rdf:type C` TP performs).
    pub fn has_type_in_interval(&self, subject: u64, interval: IdInterval) -> bool {
        let run = self.subject_run(subject);
        let i = run.partition_point(|&(_, c)| c < interval.lower);
        run.get(i).is_some_and(|&(_, c)| c < interval.upper)
    }

    /// Number of `rdf:type` triples whose concept lies in `interval` —
    /// the optimizer's selectivity statistic for type patterns. Two binary
    /// searches on any interval.
    pub fn count_interval(&self, interval: IdInterval) -> usize {
        self.pairs_in_interval(interval).len()
    }

    /// `(concept, subject)` pairs whose concept lies in `interval`, in
    /// `(concept, subject)` order — the raw pairs behind
    /// [`RdfTypeStore::subjects_of_interval`], needed by overlay stores
    /// that must tombstone individual pairs before deduplication.
    pub fn pairs_in_interval(&self, interval: IdInterval) -> &[(u64, u64)] {
        let cs = &self.by_concept;
        let begin = cs.partition_point(|&(c, _)| c < interval.lower);
        let len = cs[begin..].partition_point(|&(c, _)| c < interval.upper);
        &cs[begin..begin + len]
    }

    /// Iterates over `(subject, concept)` pairs in subject order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.by_subject.iter().copied()
    }

    /// The `(subject, concept)` run of `subject`.
    fn subject_run(&self, subject: u64) -> &[(u64, u64)] {
        let sc = &self.by_subject;
        let begin = sc.partition_point(|&(s, _)| s < subject);
        let len = sc[begin..].partition_point(|&(s, _)| s == subject);
        &sc[begin..begin + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Concept ids mimic a LiteMat layout: B=24 covers [24,28) with C=25,
    /// D=26 as sub-concepts; A=20 is unrelated.
    const SAMPLE: [(u64, u64); 5] = [(1, 20), (2, 24), (3, 25), (4, 26), (5, 25)];

    fn sample() -> RdfTypeStore {
        RdfTypeStore::from_pairs(SAMPLE.to_vec())
    }

    fn with(extra: (u64, u64)) -> RdfTypeStore {
        let mut pairs = SAMPLE.to_vec();
        pairs.push(extra);
        RdfTypeStore::from_pairs(pairs)
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
        let st = with((3, 26)); // subject 3 typed with two concepts in [24,28)
        let b = IdInterval {
            lower: 24,
            upper: 28,
        };
        assert_eq!(st.subjects_of_interval(b), vec![2, 3, 4, 5]);
    }

    #[test]
    fn concepts_of_subject() {
        let st = with((1, 25));
        assert_eq!(st.concepts_of(1).collect::<Vec<_>>(), vec![20, 25]);
        assert_eq!(st.concepts_of(2).collect::<Vec<_>>(), vec![24]);
        assert_eq!(st.concepts_of(99).count(), 0);
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
        assert_eq!(
            st.count_interval(IdInterval {
                lower: 0,
                upper: u64::MAX - 1
            }),
            5
        );
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let st = RdfTypeStore::from_pairs(vec![(1, 20), (1, 20)]);
        assert_eq!(st.len(), 1);
        assert_eq!(st.heap_size(), 2 * 16);
    }

    #[test]
    fn iter_in_subject_order() {
        let st = RdfTypeStore::from_pairs(SAMPLE.iter().rev().copied().collect());
        let pairs: Vec<(u64, u64)> = st.iter().collect();
        assert_eq!(pairs, SAMPLE.to_vec());
    }

    #[test]
    fn empty_and_inverted_intervals_are_empty() {
        let st = with((u64::MAX, 25));
        for iv in [
            IdInterval {
                lower: 25,
                upper: 25,
            },
            IdInterval {
                lower: 26,
                upper: 24,
            },
            IdInterval {
                lower: u64::MAX,
                upper: 0,
            },
        ] {
            assert_eq!(st.subjects_of_interval(iv), Vec::<u64>::new());
            assert!(st.pairs_in_interval(iv).is_empty());
            assert_eq!(st.count_interval(iv), 0);
            assert!(!st.has_type_in_interval(3, iv));
            assert!(!st.has_type_in_interval(u64::MAX, iv));
        }
        assert_eq!(st.concepts_of(u64::MAX).collect::<Vec<_>>(), vec![25]);
        assert!(RdfTypeStore::default()
            .pairs_in_interval(IdInterval::ALL)
            .is_empty());
    }
}
