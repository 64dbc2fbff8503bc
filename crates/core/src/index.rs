//! The predicate/subject index shared by both triple layers (paper §4,
//! Figure 5(b)).
//!
//! Triples sorted ascending by `(p, s)` are addressed through four
//! succinct structures:
//!
//! ```text
//! WT_p : the distinct predicates, ascending           (one entry per predicate)
//! BM_ps: one bit per distinct (p,s) pair; '1' marks the first pair of a predicate
//! WT_s : the subject of each distinct (p,s) pair
//! BM_so: one bit per triple; '1' marks the first triple of a (p,s) pair
//! ```
//!
//! The object column itself belongs to the layer: `WT_o` for the object
//! layer ([`crate::layer::TripleLayer`]), the flat literal store for the
//! datatype layer ([`crate::datatype::DatatypeLayer`]). The index speaks
//! in *column positions*: the `i`-th triple's object sits at position `i`
//! of the layer's column.
//!
//! Navigation is pure rank/select arithmetic. The subject run of the
//! `k`-th predicate is `[BM_ps.select1(k+1), BM_ps.select1(k+2))` (paper
//! Algorithm 2 lines 3–4), and the column run of the `i`-th `(p, s)` pair
//! is `[BM_so.select1(i+1), BM_so.select1(i+2))`; a `select` past the
//! last one resolves to the bitmap's length.

use se_sds::{HeapSize, RsBitVec, Serialize, WaveletTree};
use std::io;
use std::ops::Range;

/// `WT_p`, `BM_ps`, `WT_s` and `BM_so` over one sorted triple set.
#[derive(Debug, Clone)]
pub(crate) struct PsIndex {
    wt_p: WaveletTree,
    /// `WT_p` decoded: a layer's ≈20 distinct predicates, so interval
    /// lookups need no wavelet-tree access (derived; not serialized).
    preds: Box<[u64]>,
    bm_ps: RsBitVec,
    wt_s: WaveletTree,
    bm_so: RsBitVec,
}

impl PsIndex {
    /// Builds the index over the `(p, s)` keys of a triple set, one key
    /// per triple, in ascending order (equal keys repeat).
    pub fn build(keys: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let keys = keys.into_iter();
        let mut preds = Vec::new();
        let mut ps_bits = Vec::new();
        let mut subjects = Vec::new();
        let mut so_bits = Vec::with_capacity(keys.size_hint().0);
        let mut last: Option<(u64, u64)> = None;
        for (p, s) in keys {
            let new_pair = last != Some((p, s));
            if new_pair {
                let new_pred = last.map(|l| l.0) != Some(p);
                if new_pred {
                    preds.push(p);
                }
                ps_bits.push(new_pred);
                subjects.push(s);
                last = Some((p, s));
            }
            so_bits.push(new_pair);
        }
        Self {
            wt_p: WaveletTree::new(&preds),
            preds: preds.into_boxed_slice(),
            bm_ps: RsBitVec::from_bits(ps_bits),
            wt_s: WaveletTree::new(&subjects),
            bm_so: RsBitVec::from_bits(so_bits),
        }
    }

    /// Number of triples indexed: the length of the layer's column.
    pub fn len(&self) -> usize {
        self.bm_so.len()
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

    /// Positions in `WT_p` of the predicates with identifier in `[lo,
    /// hi)`: a contiguous index run — the "continuous interval
    /// corresponding to a LiteMat interval" of §5.2. Empty when `lo >= hi`.
    pub fn predicate_range(&self, lo: u64, hi: u64) -> Range<usize> {
        let begin = self.preds.partition_point(|&p| p < lo);
        begin..begin + self.preds[begin..].partition_point(|&p| p < hi)
    }

    /// The subject run (positions in `WT_s`) of the predicate at `index_p`.
    pub fn subject_run(&self, index_p: usize) -> Range<usize> {
        ones_run(&self.bm_ps, index_p)
    }

    /// The column run of the `(p, s)` pair at `WT_s` position `index_s`.
    pub fn pair_run(&self, index_s: usize) -> Range<usize> {
        ones_run(&self.bm_so, index_s)
    }

    /// The column run of every triple of predicate `p`; empty if `p` is
    /// absent.
    pub fn predicate_run(&self, p: u64) -> Range<usize> {
        let Some(index_p) = self.predicate_index(p) else {
            return 0..0;
        };
        let subjects = self.subject_run(index_p);
        let begin = self
            .bm_so
            .select1(subjects.start + 1)
            .expect("pair start within bounds");
        begin..self.bm_so.select1(subjects.end + 1).unwrap_or(self.len())
    }

    /// Paper Algorithm 2: number of triples whose predicate is `p`,
    /// computed purely with select operations on the bitmaps.
    pub fn count_predicate(&self, p: u64) -> usize {
        self.predicate_run(p).len()
    }

    /// `WT_s` position of the `(p, s)` pair. Subjects are distinct within
    /// a predicate's run, so there is at most one: two wavelet-tree ranks
    /// and a select, no scan and no allocation.
    pub fn pair(&self, p: u64, s: u64) -> Option<usize> {
        let subjects = self.subject_run(self.predicate_index(p)?);
        let before = self.wt_s.rank(subjects.start, s);
        if self.wt_s.rank(subjects.end, s) == before {
            return None;
        }
        self.wt_s.select(before + 1, s)
    }

    /// The `WT_s` position of the pair holding column position `pos`.
    pub fn pair_of(&self, pos: usize) -> usize {
        self.bm_so.rank1(pos + 1) - 1
    }

    /// The subject of the pair at `WT_s` position `index_s`.
    pub fn subject(&self, index_s: usize) -> u64 {
        self.wt_s.access(index_s)
    }

    /// `(subject, column position)` of every triple of predicate `p`, in
    /// `(s, position)` order; empty if `p` is absent.
    pub fn scan(&self, p: u64) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.predicate_index(p)
            .into_iter()
            .flat_map(move |index_p| self.scan_at(index_p))
    }

    fn scan_at(&self, index_p: usize) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.subject_run(index_p).flat_map(move |index_s| {
            let s = self.subject(index_s);
            self.pair_run(index_s).map(move |pos| (s, pos))
        })
    }

    /// `(p, s, column position)` of every triple, in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, usize)> + '_ {
        self.preds
            .iter()
            .enumerate()
            .flat_map(move |(index_p, &p)| self.scan_at(index_p).map(move |(s, pos)| (p, s, pos)))
    }

    /// `InvalidData` unless the layer's object column holds exactly one
    /// entry per indexed triple; `what` names the column in the error.
    pub fn check_column(&self, what: &str, len: u64) -> io::Result<()> {
        if len == self.len() as u64 {
            return Ok(());
        }
        Err(invalid(format!(
            "{what} is {len}, but BM_so indexes {} triples",
            self.len()
        )))
    }
}

/// The run of positions from the `k`-th one of `bm` up to the next one
/// (or the end of `bm`).
fn ones_run(bm: &RsBitVec, k: usize) -> Range<usize> {
    let begin = bm.select1(k + 1).expect("run index within bounds");
    begin..bm.select1(k + 2).unwrap_or(bm.len())
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl HeapSize for PsIndex {
    fn heap_size(&self) -> usize {
        self.wt_p.heap_size()
            + std::mem::size_of_val(&*self.preds)
            + self.bm_ps.heap_size()
            + self.wt_s.heap_size()
            + self.bm_so.heap_size()
    }
}

/// The four structures in `WT_p`, `BM_ps`, `WT_s`, `BM_so` order. Decoding
/// checks that they describe one index, so no probe can run off a
/// structure's end: every bitmap run starts at a one, `BM_ps` has one
/// bit per subject and one one per predicate, `BM_so` one one per
/// subject, and the predicates ascend.
impl Serialize for PsIndex {
    fn serialize<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        self.wt_p.serialize(w)?;
        self.bm_ps.serialize(w)?;
        self.wt_s.serialize(w)?;
        self.bm_so.serialize(w)
    }

    fn deserialize<R: io::Read>(r: &mut R) -> io::Result<Self> {
        let wt_p = WaveletTree::deserialize(r)?;
        let bm_ps = RsBitVec::deserialize(r)?;
        let wt_s = WaveletTree::deserialize(r)?;
        let bm_so = RsBitVec::deserialize(r)?;
        let counts = [
            ("BM_ps length", bm_ps.len(), "WT_s length", wt_s.len()),
            ("BM_ps ones", bm_ps.count_ones(), "WT_p length", wt_p.len()),
            ("BM_so ones", bm_so.count_ones(), "WT_s length", wt_s.len()),
        ];
        for (a, x, b, y) in counts {
            if x != y {
                return Err(invalid(format!("{a} {x} differs from {b} {y}")));
            }
        }
        for (name, bm) in [("BM_ps", &bm_ps), ("BM_so", &bm_so)] {
            if !bm.is_empty() && !bm.get(0) {
                return Err(invalid(format!("{name} does not start with a one")));
            }
        }
        let preds: Box<[u64]> = wt_p.iter().collect();
        if preds.windows(2).any(|w| w[0] >= w[1]) {
            return Err(invalid("WT_p is not strictly ascending".into()));
        }
        Ok(Self {
            wt_p,
            preds,
            bm_ps,
            wt_s,
            bm_so,
        })
    }

    fn serialized_size(&self) -> usize {
        self.wt_p.serialized_size()
            + self.bm_ps.serialized_size()
            + self.wt_s.serialized_size()
            + self.bm_so.serialized_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// p1 → {s1, s2:{two triples}}, p2 → {s3}: `BM_ps` 101, `BM_so` 1101.
    fn sample() -> PsIndex {
        PsIndex::build([(1, 1), (1, 2), (1, 2), (2, 3)])
    }

    #[test]
    fn runs_and_pair_lookup() {
        let index = sample();
        assert_eq!(index.len(), 4);
        assert_eq!(index.subject_run(0), 0..2);
        assert_eq!(index.pair_run(1), 1..3);
        assert_eq!(index.predicate_run(1), 0..3);
        assert_eq!(index.predicate_run(2), 3..4);
        assert!(index.predicate_run(3).is_empty());
        assert_eq!(index.pair(1, 2), Some(1));
        assert_eq!(index.pair(2, 3), Some(2));
        assert_eq!(index.pair(2, 1), None);
        assert_eq!(index.pair(9, 1), None);
        assert_eq!(index.pair_of(2), 1);
        assert_eq!(index.scan(1).collect::<Vec<_>>(), [(1, 0), (2, 1), (2, 2)]);
        assert_eq!(index.iter().count(), 4);
    }

    /// Each structural invariant, broken alone in an otherwise
    /// well-formed index, is `InvalidData` at decode.
    #[test]
    fn inconsistent_structures_are_errors() {
        let good = sample();
        assert!(PsIndex::from_bytes(&good.to_bytes()).is_ok());
        let bits = |b: &[u8]| RsBitVec::from_bits(b.iter().map(|&x| x == 1));
        let broken = [
            // BM_ps one bit short of WT_s.
            PsIndex {
                bm_ps: bits(&[1, 0]),
                ..good.clone()
            },
            // Three predicates in WT_p, two ones in BM_ps.
            PsIndex {
                wt_p: WaveletTree::new(&[1, 2, 3]),
                ..good.clone()
            },
            // Four ones in BM_so, three subjects.
            PsIndex {
                bm_so: bits(&[1, 1, 1, 1]),
                ..good.clone()
            },
            // BM_ps does not start a run at position 0.
            PsIndex {
                bm_ps: bits(&[0, 1, 1]),
                ..good.clone()
            },
            // BM_so does not start a run at position 0.
            PsIndex {
                bm_so: bits(&[0, 1, 1, 1]),
                ..good.clone()
            },
            // WT_p descends.
            PsIndex {
                wt_p: WaveletTree::new(&[2, 1]),
                ..good.clone()
            },
        ];
        for (case, index) in broken.iter().enumerate() {
            let err = PsIndex::from_bytes(&index.to_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "case {case}");
        }
    }
}
