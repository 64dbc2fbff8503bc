//! The object-triple SDS layer — the paper's Figure 5(b).
//!
//! Triples `(p, s, o)` with resource objects, sorted ascending by
//! `(p, s, o)`, are the shared predicate/subject index
//! (`PsIndex`: `WT_p`, `BM_ps`, `WT_s`, `BM_so`) plus one more wavelet
//! tree:
//!
//! ```text
//! WT_o : the object of each triple
//! ```
//!
//! The index maps a predicate or a `(p, s)` pair to a run of `WT_o`
//! positions by rank/select arithmetic (paper Algorithm 2). Because both
//! `WT_s` runs and `WT_o` runs are sorted, `range_search` prunes lookups
//! and merge joins become possible downstream (§5.2).
//!
//! The serialized form is the triple count, the index, then `WT_o`;
//! decoding rejects a count or a `WT_o` length that differs from the
//! index's.

use crate::index::PsIndex;
use se_sds::{HeapSize, Serialize, WaveletTree};
use std::io;

/// The five-structure SDS layer over one sorted `(p, s, o)` triple set.
#[derive(Debug, Clone)]
pub struct TripleLayer {
    index: PsIndex,
    wt_o: WaveletTree,
}

impl TripleLayer {
    /// Builds the layer from triples that MUST be sorted ascending by
    /// `(p, s, o)` and deduplicated.
    ///
    /// # Panics
    /// Panics (debug builds) if the input is not sorted/deduplicated.
    pub fn build(triples: &[(u64, u64, u64)]) -> Self {
        debug_assert!(
            triples.windows(2).all(|w| w[0] < w[1]),
            "TripleLayer input must be sorted and deduplicated"
        );
        let objects: Vec<u64> = triples.iter().map(|t| t.2).collect();
        Self {
            index: PsIndex::build(triples.iter().map(|&(p, s, _)| (p, s))),
            wt_o: WaveletTree::new(&objects),
        }
    }

    /// The predicate/subject index.
    pub(crate) fn index(&self) -> &PsIndex {
        &self.index
    }

    /// Number of triples stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.wt_o.len()
    }

    /// `true` if the layer holds no triples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.wt_o.is_empty()
    }

    /// Paper Algorithm 3: `(s, p, ?o)` — objects of a subject/predicate
    /// pair. Two `WT_s` ranks and a select locate the subject inside the
    /// predicate's (sorted) subject run; the `BM_so` bounds then delimit
    /// its object run.
    pub fn objects(&self, p: u64, s: u64) -> Vec<u64> {
        match self.index.pair(p, s) {
            Some(index_s) => self
                .index
                .pair_run(index_s)
                .map(|pos| self.wt_o.access(pos))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Paper Algorithm 4: `(?s, p, o)` — subjects connecting to `o` through
    /// `p`. The object run of the whole predicate is scanned with
    /// `WT_o.range_search`; `BM_so.rank` maps each hit back to its `(p,s)`
    /// pair, whose subject `WT_s.access` yields.
    pub fn subjects(&self, p: u64, o: u64) -> Vec<u64> {
        let index = &self.index;
        let run = index.predicate_run(p);
        if run.is_empty() {
            return Vec::new();
        }
        self.wt_o
            .range_search(run.start, run.end, o)
            .into_iter()
            .map(|pos| index.subject(index.pair_of(pos)))
            .collect()
    }

    /// `(?s, p, ?o)`: every `(subject, object)` pair of predicate `p`, in
    /// `(s, o)` order.
    pub fn scan_predicate(&self, p: u64) -> Vec<(u64, u64)> {
        self.index
            .scan(p)
            .map(|(s, pos)| (s, self.wt_o.access(pos)))
            .collect()
    }

    /// `(s, p, o)` membership test.
    pub fn contains(&self, p: u64, s: u64, o: u64) -> bool {
        self.index.pair(p, s).is_some_and(|index_s| {
            let run = self.index.pair_run(index_s);
            self.wt_o.count_range(run.start, run.end, o) > 0
        })
    }

    /// Iterates over all `(p, s, o)` triples in sorted order (test/debug
    /// helper; decodes through the wavelet trees).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.index
            .iter()
            .map(|(p, s, pos)| (p, s, self.wt_o.access(pos)))
    }
}

impl HeapSize for TripleLayer {
    fn heap_size(&self) -> usize {
        self.index.heap_size() + self.wt_o.heap_size()
    }
}

impl Serialize for TripleLayer {
    fn serialize<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        use se_sds::WriteBin;
        w.write_u64(self.len() as u64)?;
        self.index.serialize(w)?;
        self.wt_o.serialize(w)
    }

    fn deserialize<R: io::Read>(r: &mut R) -> io::Result<Self> {
        use se_sds::ReadBin;
        let n_triples = r.read_u64()?;
        let index = PsIndex::deserialize(r)?;
        let wt_o = WaveletTree::deserialize(r)?;
        index.check_column("the stored triple count", n_triples)?;
        index.check_column("the WT_o length", wt_o.len() as u64)?;
        Ok(Self { index, wt_o })
    }

    fn serialized_size(&self) -> usize {
        8 + self.index.serialized_size() + self.wt_o.serialized_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The triple set of the paper's Figure 5(a):
    /// p1 → {s1:{o1,o2}, s2:{o1}, s4:{o3}}, p2 → {s3:{o2}}.
    /// Ids: p1=1, p2=2, s1=1, s2=2, s3=3, s4=4, o1=1, o2=2, o3=3.
    fn figure5() -> Vec<(u64, u64, u64)> {
        vec![(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 4, 3), (2, 3, 2)]
    }

    #[test]
    fn figure5_structure() {
        let layer = TripleLayer::build(&figure5());
        assert_eq!(layer.len(), 5);
        assert_eq!(layer.index.predicate_range(0, u64::MAX), 0..2);
        // The PS bitmap of the paper starts with 100 (p1 has 3 subjects)
        // followed by 1 (p2's first subject).
        assert_eq!(layer.index.subject_run(0), 0..3);
        assert_eq!(layer.index.subject_run(1), 3..4);
    }

    #[test]
    fn figure5_objects() {
        let layer = TripleLayer::build(&figure5());
        assert_eq!(layer.objects(1, 1), vec![1, 2]);
        assert_eq!(layer.objects(1, 2), vec![1]);
        assert_eq!(layer.objects(1, 4), vec![3]);
        assert_eq!(layer.objects(2, 3), vec![2]);
        assert_eq!(layer.objects(1, 3), Vec::<u64>::new());
        assert_eq!(layer.objects(9, 1), Vec::<u64>::new());
    }

    #[test]
    fn figure5_subjects() {
        let layer = TripleLayer::build(&figure5());
        // The paper's §5.2 example: (?s, p1, o1) yields {s1, s2}.
        assert_eq!(layer.subjects(1, 1), vec![1, 2]);
        assert_eq!(layer.subjects(1, 2), vec![1]);
        assert_eq!(layer.subjects(1, 3), vec![4]);
        assert_eq!(layer.subjects(2, 2), vec![3]);
        assert_eq!(layer.subjects(2, 1), Vec::<u64>::new());
    }

    #[test]
    fn figure5_count_predicate() {
        let layer = TripleLayer::build(&figure5());
        assert_eq!(layer.index.count_predicate(1), 4);
        assert_eq!(layer.index.count_predicate(2), 1);
        assert_eq!(layer.index.count_predicate(3), 0);
    }

    #[test]
    fn scan_predicate_in_order() {
        let layer = TripleLayer::build(&figure5());
        assert_eq!(
            layer.scan_predicate(1),
            vec![(1, 1), (1, 2), (2, 1), (4, 3)]
        );
        assert_eq!(layer.scan_predicate(2), vec![(3, 2)]);
    }

    #[test]
    fn contains_membership() {
        let layer = TripleLayer::build(&figure5());
        assert!(layer.contains(1, 1, 2));
        assert!(!layer.contains(1, 1, 3));
        assert!(!layer.contains(2, 1, 1));
    }

    #[test]
    fn iter_roundtrips() {
        let triples = figure5();
        let layer = TripleLayer::build(&triples);
        assert_eq!(layer.iter().collect::<Vec<_>>(), triples);
    }

    #[test]
    fn empty_layer() {
        let layer = TripleLayer::build(&[]);
        assert!(layer.is_empty());
        assert_eq!(layer.objects(1, 1), Vec::<u64>::new());
        assert_eq!(layer.subjects(1, 1), Vec::<u64>::new());
        assert_eq!(layer.index.count_predicate(1), 0);
        assert_eq!(layer.iter().count(), 0);
    }

    #[test]
    fn single_triple() {
        let layer = TripleLayer::build(&[(7, 3, 9)]);
        assert_eq!(layer.objects(7, 3), vec![9]);
        assert_eq!(layer.subjects(7, 9), vec![3]);
        assert_eq!(layer.index.count_predicate(7), 1);
    }

    #[test]
    fn predicate_range_is_contiguous() {
        let triples: Vec<(u64, u64, u64)> = vec![(10, 1, 1), (12, 1, 1), (14, 1, 1), (20, 1, 1)];
        let layer = TripleLayer::build(&triples);
        assert_eq!(layer.index.predicate_range(10, 15), 0..3);
        assert_eq!(layer.index.predicate_range(11, 15), 1..3);
        assert_eq!(layer.index.predicate_range(0, 100), 0..4);
        assert_eq!(layer.index.predicate_range(15, 20), 3..3);
        assert_eq!(layer.index.predicate_range(21, 99), 4..4);
        assert!(layer.index.predicate_range(12, 12).is_empty());
        assert!(layer.index.predicate_range(15, 11).is_empty());
        assert!(layer.index.predicate_range(u64::MAX, 0).is_empty());
        let back = TripleLayer::from_bytes(&layer.to_bytes()).unwrap();
        assert_eq!(back.index.predicate_range(11, 15), 1..3);
        assert_eq!(back.index.predicate_at(3), 20);
    }

    #[test]
    fn serialization_roundtrip() {
        let layer = TripleLayer::build(&figure5());
        let buf = layer.to_bytes();
        assert_eq!(buf.len(), layer.serialized_size());
        let back = TripleLayer::from_bytes(&buf).unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), figure5());
    }

    /// The stored triple count is checked against the index: a forged
    /// count is `InvalidData`, not a layer whose `len()` lies.
    #[test]
    fn forged_triple_count_is_an_error() {
        let layer = TripleLayer::build(&[(1, 1, 1), (1, 2, 1)]);
        let mut bytes = layer.to_bytes();
        bytes[..8].copy_from_slice(&7u64.to_le_bytes());
        let err = TripleLayer::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A `WT_o` with fewer objects than `BM_so` indexes is `InvalidData`,
    /// even when the stored count agrees with it.
    #[test]
    fn short_object_column_is_an_error() {
        let layer = TripleLayer::build(&figure5());
        let short = TripleLayer::build(&figure5()[..2]);
        let mut bytes = 2u64.to_le_bytes().to_vec();
        bytes.extend(layer.index.to_bytes());
        bytes.extend(short.wt_o.to_bytes());
        let err = TripleLayer::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        fn arb_triples() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
            proptest::collection::btree_set((0u64..20, 0u64..30, 0u64..30), 0..200)
                .prop_map(|set: BTreeSet<_>| set.into_iter().collect())
        }

        proptest! {
            #[test]
            fn matches_naive_scan(triples in arb_triples()) {
                let layer = TripleLayer::build(&triples);
                prop_assert_eq!(layer.len(), triples.len());
                // objects / subjects / counts agree with a scan.
                for p in 0..20u64 {
                    let expected: usize = triples.iter().filter(|t| t.0 == p).count();
                    prop_assert_eq!(layer.index.count_predicate(p), expected);
                    for s in 0..30u64 {
                        let want: Vec<u64> = triples
                            .iter()
                            .filter(|t| t.0 == p && t.1 == s)
                            .map(|t| t.2)
                            .collect();
                        prop_assert_eq!(layer.objects(p, s), want);
                    }
                    for o in 0..30u64 {
                        let want: Vec<u64> = triples
                            .iter()
                            .filter(|t| t.0 == p && t.2 == o)
                            .map(|t| t.1)
                            .collect();
                        prop_assert_eq!(layer.subjects(p, o), want);
                    }
                }
                prop_assert_eq!(layer.iter().collect::<Vec<_>>(), triples);
            }
        }
    }
}
