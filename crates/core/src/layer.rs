//! The object-triple SDS layer — the paper's Figure 5(b).
//!
//! Triples `(p, s, o)` with resource objects, sorted ascending by
//! `(p, s, o)`, are decomposed into five succinct structures:
//!
//! ```text
//! WT_p : the distinct predicates, ascending           (one entry per predicate)
//! BM_ps: one bit per distinct (p,s) pair; '1' marks the first pair of a predicate
//! WT_s : the subject of each distinct (p,s) pair
//! BM_so: one bit per triple; '1' marks the first triple of a (p,s) pair
//! WT_o : the object of each triple
//! ```
//!
//! Navigation is pure rank/select arithmetic. The subject run of the `k`-th
//! predicate is `[BM_ps.select1(k+1), BM_ps.select1(k+2))` (paper Algorithm
//! 2 lines 3–4), and the object run of the `i`-th `(p,s)` pair is
//! `[BM_so.select1(i+1), BM_so.select1(i+2))`. Because both `WT_s` runs and
//! `WT_o` runs are sorted, `range_search` prunes lookups and merge joins
//! become possible downstream (§5.2).

use se_sds::{HeapSize, RsBitVec, Serialize, WaveletTree};
use std::io;
use std::ops::Range;

/// Positions in the ascending `preds` of the ids in `[lo, hi)`: a
/// contiguous index run — the "continuous interval corresponding to a
/// LiteMat interval" of §5.2. Empty when `lo >= hi`.
pub(crate) fn predicate_range(preds: &[u64], lo: u64, hi: u64) -> Range<usize> {
    let begin = preds.partition_point(|&p| p < lo);
    begin..begin + preds[begin..].partition_point(|&p| p < hi)
}

/// Every symbol of `wt`, in order: a layer's ≈20 distinct predicates,
/// decoded once so interval lookups need no wavelet-tree access.
pub(crate) fn decode_predicates(wt: &WaveletTree) -> Box<[u64]> {
    (0..wt.len()).map(|k| wt.access(k)).collect()
}

/// The five-structure SDS layer over one sorted `(p, s, o)` triple set.
#[derive(Debug, Clone)]
pub struct TripleLayer {
    wt_p: WaveletTree,
    /// `WT_p` decoded (derived; not serialized).
    preds: Box<[u64]>,
    bm_ps: RsBitVec,
    wt_s: WaveletTree,
    bm_so: RsBitVec,
    wt_o: WaveletTree,
    n_triples: usize,
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
        let mut preds = Vec::new();
        let mut ps_bits = Vec::new();
        let mut subjects = Vec::new();
        let mut so_bits = Vec::with_capacity(triples.len());
        let mut objects = Vec::with_capacity(triples.len());
        let mut last_p: Option<u64> = None;
        let mut last_ps: Option<(u64, u64)> = None;
        for &(p, s, o) in triples {
            let new_pair = last_ps != Some((p, s));
            if new_pair {
                let new_pred = last_p != Some(p);
                if new_pred {
                    preds.push(p);
                    last_p = Some(p);
                }
                ps_bits.push(new_pred);
                subjects.push(s);
                last_ps = Some((p, s));
            }
            so_bits.push(new_pair);
            objects.push(o);
        }
        Self {
            wt_p: WaveletTree::new(&preds),
            preds: preds.into_boxed_slice(),
            bm_ps: RsBitVec::from_bits(ps_bits),
            wt_s: WaveletTree::new(&subjects),
            bm_so: RsBitVec::from_bits(so_bits),
            wt_o: WaveletTree::new(&objects),
            n_triples: triples.len(),
        }
    }

    /// Number of triples stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_triples
    }

    /// `true` if the layer holds no triples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_triples == 0
    }

    /// Number of distinct predicates.
    #[inline]
    pub fn predicate_count(&self) -> usize {
        self.wt_p.len()
    }

    /// Position of predicate `p` in `WT_p`, i.e. the paper's
    /// `index_p ← wt_p.select(1, id_p)`.
    pub fn predicate_index(&self, p: u64) -> Option<usize> {
        self.wt_p.select(1, p)
    }

    /// The `k`-th distinct predicate (ascending order).
    pub fn predicate_at(&self, k: usize) -> u64 {
        self.preds[k]
    }

    /// Positions in `WT_p` of all predicates with identifier in
    /// `[lo, hi)`, a contiguous index run because `WT_p` is ascending.
    pub fn predicate_range(&self, lo: u64, hi: u64) -> Range<usize> {
        predicate_range(&self.preds, lo, hi)
    }

    /// The subject-run bounds (positions in `WT_s`) of the predicate at
    /// `index_p` — paper Algorithm 2 lines 3–4, with the end-of-structure
    /// case (`select` past the last one) resolved to the layer length.
    pub fn subject_bounds(&self, index_p: usize) -> (usize, usize) {
        let begin = self
            .bm_ps
            .select1(index_p + 1)
            .expect("predicate index within bounds");
        let end = self
            .bm_ps
            .select1(index_p + 2)
            .unwrap_or_else(|| self.wt_s.len());
        (begin, end)
    }

    /// The object-run bounds (positions in `WT_o`) of the `(p, s)` pair at
    /// `index_s`.
    pub fn object_bounds(&self, index_s: usize) -> (usize, usize) {
        let begin = self
            .bm_so
            .select1(index_s + 1)
            .expect("pair index within bounds");
        let end = self
            .bm_so
            .select1(index_s + 2)
            .unwrap_or_else(|| self.wt_o.len());
        (begin, end)
    }

    /// Paper Algorithm 2: number of triples whose predicate is `p`,
    /// computed purely with select operations on the bitmaps.
    pub fn count_predicate(&self, p: u64) -> usize {
        let Some(index_p) = self.predicate_index(p) else {
            return 0;
        };
        let (s_begin, s_end) = self.subject_bounds(index_p);
        let o_begin = self
            .bm_so
            .select1(s_begin + 1)
            .expect("pair start within bounds");
        let o_end = self
            .bm_so
            .select1(s_end + 1)
            .unwrap_or_else(|| self.wt_o.len());
        o_end - o_begin
    }

    /// Paper Algorithm 3: `(s, p, ?o)` — objects of a subject/predicate
    /// pair. `WT_s.range_search` locates the subject inside the
    /// predicate's (sorted) subject run; the `BM_so` bounds then delimit
    /// its object run.
    pub fn objects(&self, p: u64, s: u64) -> Vec<u64> {
        let Some(index_p) = self.predicate_index(p) else {
            return Vec::new();
        };
        let (s_begin, s_end) = self.subject_bounds(index_p);
        let mut res = Vec::new();
        for index_s in self.wt_s.range_search(s_begin, s_end, s) {
            let (o_begin, o_end) = self.object_bounds(index_s);
            for index_o in o_begin..o_end {
                res.push(self.wt_o.access(index_o));
            }
        }
        res
    }

    /// Paper Algorithm 4: `(?s, p, o)` — subjects connecting to `o` through
    /// `p`. The object run of the whole predicate is scanned with
    /// `WT_o.range_search`; `BM_so.rank` maps each hit back to its `(p,s)`
    /// pair, whose subject `WT_s.access` yields.
    pub fn subjects(&self, p: u64, o: u64) -> Vec<u64> {
        let Some(index_p) = self.predicate_index(p) else {
            return Vec::new();
        };
        let (s_begin, s_end) = self.subject_bounds(index_p);
        let o_begin = self
            .bm_so
            .select1(s_begin + 1)
            .expect("pair start within bounds");
        let o_end = self
            .bm_so
            .select1(s_end + 1)
            .unwrap_or_else(|| self.wt_o.len());
        let mut res = Vec::new();
        for index_o in self.wt_o.range_search(o_begin, o_end, o) {
            let index_s = self.bm_so.rank1(index_o + 1) - 1;
            res.push(self.wt_s.access(index_s));
        }
        res
    }

    /// `(?s, p, ?o)`: every `(subject, object)` pair of predicate `p`, in
    /// `(s, o)` order.
    pub fn scan_predicate(&self, p: u64) -> Vec<(u64, u64)> {
        let Some(index_p) = self.predicate_index(p) else {
            return Vec::new();
        };
        self.scan_predicate_index(index_p)
    }

    /// Like [`TripleLayer::scan_predicate`] but addressed by `WT_p`
    /// position (used for LiteMat predicate intervals).
    pub fn scan_predicate_index(&self, index_p: usize) -> Vec<(u64, u64)> {
        let (s_begin, s_end) = self.subject_bounds(index_p);
        let mut res = Vec::new();
        for index_s in s_begin..s_end {
            let s = self.wt_s.access(index_s);
            let (o_begin, o_end) = self.object_bounds(index_s);
            for index_o in o_begin..o_end {
                res.push((s, self.wt_o.access(index_o)));
            }
        }
        res
    }

    /// `(s, p, o)` membership test.
    pub fn contains(&self, p: u64, s: u64, o: u64) -> bool {
        let Some(index_p) = self.predicate_index(p) else {
            return false;
        };
        let (s_begin, s_end) = self.subject_bounds(index_p);
        for index_s in self.wt_s.range_search(s_begin, s_end, s) {
            let (o_begin, o_end) = self.object_bounds(index_s);
            if self.wt_o.count_range(o_begin, o_end, o) > 0 {
                return true;
            }
        }
        false
    }

    /// Iterates over all `(p, s, o)` triples in sorted order (test/debug
    /// helper; decodes through the wavelet trees).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        (0..self.wt_p.len()).flat_map(move |index_p| {
            let p = self.preds[index_p];
            let (s_begin, s_end) = self.subject_bounds(index_p);
            (s_begin..s_end).flat_map(move |index_s| {
                let s = self.wt_s.access(index_s);
                let (o_begin, o_end) = self.object_bounds(index_s);
                (o_begin..o_end).map(move |index_o| (p, s, self.wt_o.access(index_o)))
            })
        })
    }
}

impl HeapSize for TripleLayer {
    fn heap_size(&self) -> usize {
        self.wt_p.heap_size()
            + std::mem::size_of_val(&*self.preds)
            + self.bm_ps.heap_size()
            + self.wt_s.heap_size()
            + self.bm_so.heap_size()
            + self.wt_o.heap_size()
    }
}

impl Serialize for TripleLayer {
    fn serialize<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        use se_sds::WriteBin;
        w.write_u64(self.n_triples as u64)?;
        self.wt_p.serialize(w)?;
        self.bm_ps.serialize(w)?;
        self.wt_s.serialize(w)?;
        self.bm_so.serialize(w)?;
        self.wt_o.serialize(w)
    }

    fn deserialize<R: io::Read>(r: &mut R) -> io::Result<Self> {
        use se_sds::ReadBin;
        let n_triples = r.read_u64()? as usize;
        let wt_p = WaveletTree::deserialize(r)?;
        Ok(Self {
            n_triples,
            preds: decode_predicates(&wt_p),
            wt_p,
            bm_ps: RsBitVec::deserialize(r)?,
            wt_s: WaveletTree::deserialize(r)?,
            bm_so: RsBitVec::deserialize(r)?,
            wt_o: WaveletTree::deserialize(r)?,
        })
    }

    fn serialized_size(&self) -> usize {
        8 + self.wt_p.serialized_size()
            + self.bm_ps.serialized_size()
            + self.wt_s.serialized_size()
            + self.bm_so.serialized_size()
            + self.wt_o.serialized_size()
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
        assert_eq!(layer.predicate_count(), 2);
        // The PS bitmap of the paper starts with 100 (p1 has 3 subjects)
        // followed by 1 (p2's first subject).
        assert_eq!(layer.subject_bounds(0), (0, 3));
        assert_eq!(layer.subject_bounds(1), (3, 4));
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
        assert_eq!(layer.count_predicate(1), 4);
        assert_eq!(layer.count_predicate(2), 1);
        assert_eq!(layer.count_predicate(3), 0);
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
        assert_eq!(layer.count_predicate(1), 0);
        assert_eq!(layer.iter().count(), 0);
    }

    #[test]
    fn single_triple() {
        let layer = TripleLayer::build(&[(7, 3, 9)]);
        assert_eq!(layer.objects(7, 3), vec![9]);
        assert_eq!(layer.subjects(7, 9), vec![3]);
        assert_eq!(layer.count_predicate(7), 1);
    }

    #[test]
    fn predicate_range_is_contiguous() {
        let triples: Vec<(u64, u64, u64)> = vec![(10, 1, 1), (12, 1, 1), (14, 1, 1), (20, 1, 1)];
        let layer = TripleLayer::build(&triples);
        assert_eq!(layer.predicate_range(10, 15), 0..3);
        assert_eq!(layer.predicate_range(11, 15), 1..3);
        assert_eq!(layer.predicate_range(0, 100), 0..4);
        assert_eq!(layer.predicate_range(15, 20), 3..3);
        assert_eq!(layer.predicate_range(21, 99), 4..4);
        assert!(layer.predicate_range(12, 12).is_empty());
        assert!(layer.predicate_range(15, 11).is_empty());
        assert!(layer.predicate_range(u64::MAX, 0).is_empty());
        let back = TripleLayer::from_bytes(&layer.to_bytes()).unwrap();
        assert_eq!(back.predicate_range(11, 15), 1..3);
        assert_eq!(back.predicate_at(3), 20);
    }

    #[test]
    fn serialization_roundtrip() {
        let layer = TripleLayer::build(&figure5());
        let buf = layer.to_bytes();
        assert_eq!(buf.len(), layer.serialized_size());
        let back = TripleLayer::from_bytes(&buf).unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), figure5());
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
                    prop_assert_eq!(layer.count_predicate(p), expected);
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
