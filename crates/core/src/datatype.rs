//! The datatype-triple store (paper §4).
//!
//! Triples whose object is a literal get their own predicate/subject SDS
//! layers — the shared `PsIndex` the object layer also uses — but their
//! objects live in a *flat literal store* instead of `WT_o`: "we prefer to
//! store the values as they have been sent by sensors, possibly with some
//! redundancy, in order to prevent a complex and costly individual
//! dictionary management." A literal is addressed by its position in the
//! store, which — because triples are sorted `(p, s)` and literals appended
//! in triple order — coincides with the triple's column position in the
//! index.
//!
//! The serialized form is the index, then the literal count and the
//! literals; decoding rejects a count that differs from the index's.

use crate::index::PsIndex;
use se_rdf::Literal;
use se_sds::{HeapSize, Serialize};
use std::io;
use std::ops::Range;

/// SDS predicate/subject layers over literal-object triples plus the flat
/// literal store.
#[derive(Debug, Clone)]
pub struct DatatypeLayer {
    index: PsIndex,
    literals: Vec<Literal>,
}

impl DatatypeLayer {
    /// Builds from triples sorted ascending by `(p, s)` (ties in literal
    /// order are fine but not required); `triples[i].2` becomes literal
    /// index `i`.
    pub fn build(triples: &[(u64, u64, Literal)]) -> Self {
        debug_assert!(
            triples
                .windows(2)
                .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)),
            "DatatypeLayer input must be sorted by (p, s)"
        );
        Self {
            index: PsIndex::build(triples.iter().map(|(p, s, _)| (*p, *s))),
            literals: triples.iter().map(|t| t.2.clone()).collect(),
        }
    }

    /// The predicate/subject index.
    pub(crate) fn index(&self) -> &PsIndex {
        &self.index
    }

    /// Number of datatype triples.
    #[inline]
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// `true` if no datatype triples are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// The literal at store position `idx`.
    #[inline]
    pub fn literal(&self, idx: u64) -> Option<&Literal> {
        self.literals.get(idx as usize)
    }

    /// `(s, p, ?o)`: literal-store indices of the objects of `(p, s)` —
    /// one contiguous run, empty if the pair is absent.
    pub fn literal_indices(&self, p: u64, s: u64) -> Range<u64> {
        match self.index.pair(p, s) {
            Some(index_s) => {
                let run = self.index.pair_run(index_s);
                run.start as u64..run.end as u64
            }
            None => 0..0,
        }
    }

    /// `(s, p, o)` membership for a literal object: a lookup of `s` in
    /// `p`'s subject run, then a comparison against that pair's literal
    /// slice only. Does not allocate.
    pub fn contains(&self, p: u64, s: u64, o: &Literal) -> bool {
        self.index
            .pair(p, s)
            .is_some_and(|index_s| self.literals[self.index.pair_run(index_s)].contains(o))
    }

    /// `(?s, p, o)` with a literal object: subjects, ascending, whose
    /// `(p, s)` object run contains a literal equal to `o`. The flat store
    /// has no index on literal values (§4), so this scans the predicate's
    /// literal slice once and maps each match back to its pair.
    pub fn subjects_by_literal(&self, p: u64, o: &Literal) -> Vec<u64> {
        let index = &self.index;
        let run = index.predicate_run(p);
        let mut res = Vec::new();
        let mut last_pair = None;
        for (i, l) in self.literals[run.clone()].iter().enumerate() {
            if l != o {
                continue;
            }
            let index_s = index.pair_of(run.start + i);
            if last_pair != Some(index_s) {
                last_pair = Some(index_s);
                res.push(index.subject(index_s));
            }
        }
        res
    }

    /// `(?s, p, ?o)`: every `(subject, literal index)` pair of predicate
    /// `p`, in `(s, store-order)` order.
    pub fn scan_predicate(&self, p: u64) -> Vec<(u64, u64)> {
        self.index.scan(p).map(|(s, i)| (s, i as u64)).collect()
    }

    /// Iterates `(p, s, literal index)` in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.index.iter().map(|(p, s, i)| (p, s, i as u64))
    }
}

impl HeapSize for DatatypeLayer {
    fn heap_size(&self) -> usize {
        self.index.heap_size()
            + self.literals.capacity() * std::mem::size_of::<Literal>()
            + self
                .literals
                .iter()
                .map(|l| {
                    l.value.len()
                        + l.datatype.as_ref().map_or(0, |d| d.len())
                        + l.language.as_ref().map_or(0, |d| d.len())
                })
                .sum::<usize>()
    }
}

impl Serialize for DatatypeLayer {
    fn serialize<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        use se_sds::WriteBin;
        self.index.serialize(w)?;
        w.write_u64(self.literals.len() as u64)?;
        for lit in &self.literals {
            w.write_str(&lit.value)?;
            match (&lit.datatype, &lit.language) {
                (Some(dt), _) => {
                    w.write_u8(1)?;
                    w.write_str(dt)?;
                }
                (None, Some(lang)) => {
                    w.write_u8(2)?;
                    w.write_str(lang)?;
                }
                (None, None) => w.write_u8(0)?,
            }
        }
        Ok(())
    }

    fn deserialize<R: io::Read>(r: &mut R) -> io::Result<Self> {
        use se_sds::ReadBin;
        let index = PsIndex::deserialize(r)?;
        let n = r.read_u64()?;
        index.check_column("the literal count", n)?;
        let mut literals = Vec::with_capacity(se_sds::capped(n));
        for _ in 0..n {
            let value = r.read_str()?;
            let lit = match r.read_u8()? {
                1 => Literal::typed(value, r.read_str()?),
                2 => Literal::lang(value, r.read_str()?),
                0 => Literal::string(value),
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad literal tag {other}"),
                    ))
                }
            };
            literals.push(lit);
        }
        Ok(Self { index, literals })
    }

    fn serialized_size(&self) -> usize {
        let lits: usize = self
            .literals
            .iter()
            .map(|l| {
                8 + l.value.len()
                    + 1
                    + match (&l.datatype, &l.language) {
                        (Some(dt), _) => 8 + dt.len(),
                        (None, Some(lang)) => 8 + lang.len(),
                        (None, None) => 0,
                    }
            })
            .sum();
        self.index.serialized_size() + 8 + lits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripleSource;

    /// A hostile literal count must fail on the missing literals, not
    /// abort on an up-front reservation.
    #[test]
    fn hostile_literal_count_is_an_error() {
        let mut bytes = DatatypeLayer::build(&[]).to_bytes();
        let count_at = bytes.len() - 8;
        bytes.truncate(count_at);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(DatatypeLayer::from_bytes(&bytes).is_err());
    }

    /// A literal store shorter than `BM_so` is `InvalidData` at decode,
    /// not an out-of-range slice in a later `contains`.
    #[test]
    fn literal_count_mismatch_is_an_error() {
        let three = DatatypeLayer::build(&sample()[..3]);
        let one = DatatypeLayer::build(&sample()[..1]);
        let mut bytes = three.index.to_bytes();
        bytes.extend_from_slice(&one.to_bytes()[one.index.serialized_size()..]);
        let err = DatatypeLayer::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn lit(v: &str) -> Literal {
        Literal::string(v)
    }

    fn sample() -> Vec<(u64, u64, Literal)> {
        vec![
            (1, 1, lit("a")),
            (1, 1, lit("b")),
            (1, 2, lit("a")),
            (2, 1, lit("x")),
            (2, 3, lit("y")),
        ]
    }

    #[test]
    fn literal_indices_match_positions() {
        let layer = DatatypeLayer::build(&sample());
        assert_eq!(layer.len(), 5);
        assert_eq!(layer.literal_indices(1, 1), 0..2);
        assert_eq!(layer.literal_indices(1, 2), 2..3);
        assert_eq!(layer.literal_indices(2, 1), 3..4);
        assert_eq!(layer.literal_indices(2, 3), 4..5);
        assert!(layer.literal_indices(1, 9).is_empty());
        assert!(layer.literal_indices(9, 1).is_empty());
        assert_eq!(layer.literal(0), Some(&lit("a")));
        assert_eq!(layer.literal(4), Some(&lit("y")));
        assert_eq!(layer.literal(5), None);
    }

    #[test]
    fn subjects_by_literal() {
        let layer = DatatypeLayer::build(&sample());
        assert_eq!(layer.subjects_by_literal(1, &lit("a")), vec![1, 2]);
        assert_eq!(layer.subjects_by_literal(1, &lit("b")), vec![1]);
        assert_eq!(layer.subjects_by_literal(2, &lit("y")), vec![3]);
        assert_eq!(layer.subjects_by_literal(1, &lit("zzz")), Vec::<u64>::new());
    }

    #[test]
    fn typed_literals_distinguished() {
        let triples = vec![
            (1, 1, Literal::typed("1", "http://x/int")),
            (1, 2, Literal::string("1")),
        ];
        let layer = DatatypeLayer::build(&triples);
        assert_eq!(
            layer.subjects_by_literal(1, &Literal::typed("1", "http://x/int")),
            vec![1]
        );
        assert_eq!(layer.subjects_by_literal(1, &Literal::string("1")), vec![2]);
    }

    #[test]
    fn scan_predicate() {
        let layer = DatatypeLayer::build(&sample());
        assert_eq!(layer.scan_predicate(1), vec![(1, 0), (1, 1), (2, 2)]);
        assert_eq!(layer.scan_predicate(2), vec![(1, 3), (3, 4)]);
    }

    #[test]
    fn count_predicate() {
        let layer = DatatypeLayer::build(&sample());
        assert_eq!(layer.index.count_predicate(1), 3);
        assert_eq!(layer.index.count_predicate(2), 2);
        assert_eq!(layer.index.count_predicate(3), 0);
    }

    #[test]
    fn redundant_literals_are_kept() {
        // The flat store keeps duplicates — that is the design trade-off of §4.
        let triples = vec![
            (1, 1, lit("3.14")),
            (1, 2, lit("3.14")),
            (1, 3, lit("3.14")),
        ];
        let layer = DatatypeLayer::build(&triples);
        assert_eq!(layer.len(), 3);
        assert_eq!(layer.subjects_by_literal(1, &lit("3.14")), vec![1, 2, 3]);
    }

    #[test]
    fn predicate_range_is_contiguous() {
        let triples: Vec<(u64, u64, Literal)> = [10, 12, 14, 20]
            .into_iter()
            .map(|p| (p, 1, lit("v")))
            .collect();
        let layer = DatatypeLayer::build(&triples);
        assert_eq!(layer.index.predicate_range(10, 15), 0..3);
        assert_eq!(layer.index.predicate_range(11, 15), 1..3);
        assert_eq!(layer.index.predicate_range(0, 100), 0..4);
        assert_eq!(layer.index.predicate_range(15, 20), 3..3);
        assert_eq!(layer.index.predicate_range(21, 99), 4..4);
        assert!(layer.index.predicate_range(12, 12).is_empty());
        assert!(layer.index.predicate_range(15, 11).is_empty());
        assert!(layer.index.predicate_range(u64::MAX, 0).is_empty());
        let back = DatatypeLayer::from_bytes(&layer.to_bytes()).unwrap();
        assert_eq!(back.index.predicate_range(11, 15), 1..3);
        assert_eq!(back.index.predicate_at(3), 20);
    }

    #[test]
    fn empty_layer() {
        let layer = DatatypeLayer::build(&[]);
        assert!(layer.is_empty());
        assert!(layer.literal_indices(1, 1).is_empty());
        assert!(!layer.contains(1, 1, &lit("a")));
        assert_eq!(layer.subjects_by_literal(1, &lit("a")), Vec::<u64>::new());
        assert_eq!(layer.iter().count(), 0);
    }

    #[test]
    fn iter_roundtrips() {
        let layer = DatatypeLayer::build(&sample());
        let triples: Vec<(u64, u64, u64)> =
            vec![(1, 1, 0), (1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 3, 4)];
        assert_eq!(layer.iter().collect::<Vec<_>>(), triples);
    }

    #[test]
    fn serialization_roundtrip() {
        let triples = vec![
            (1, 1, Literal::string("plain")),
            (
                1,
                2,
                Literal::typed("3.5", "http://www.w3.org/2001/XMLSchema#double"),
            ),
            (2, 1, Literal::lang("bonjour", "fr")),
        ];
        let layer = DatatypeLayer::build(&triples);
        let buf = layer.to_bytes();
        assert_eq!(buf.len(), layer.serialized_size());
        let back = DatatypeLayer::from_bytes(&buf).unwrap();
        assert_eq!(back.literal(0), Some(&Literal::string("plain")));
        assert_eq!(back.literal(2), Some(&Literal::lang("bonjour", "fr")));
        assert_eq!(back.literal_indices(1, 2), 1..2);
    }

    mod proptests {
        use super::*;
        use crate::{SuccinctEdgeStore, Value};
        use proptest::prelude::*;
        use se_rdf::{Graph, Term, Triple};
        use std::collections::BTreeSet;

        /// Literals drawn from a small pool so that one value recurs under
        /// many subjects and pairs carry several literals; the pool holds
        /// equal lexical forms that differ only in datatype or language.
        fn pool_literal(k: u64) -> Literal {
            match k {
                0 => Literal::string("1"),
                1 => Literal::typed("1", "http://www.w3.org/2001/XMLSchema#int"),
                2 => Literal::typed("1", "http://www.w3.org/2001/XMLSchema#double"),
                3 => Literal::lang("1", "en"),
                4 => Literal::lang("1", "fr"),
                5 => Literal::string("v"),
                n => Literal::string(format!("x{n}")),
            }
        }

        const POOL: u64 = 9;
        const PREDS: u64 = 6;
        const SUBJS: u64 = 12;

        fn arb_triples() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
            // Predicates and subjects 0..4 / 0..9 are generated; the probes
            // below also ask for absent ones up to PREDS / SUBJS.
            proptest::collection::btree_set((0u64..4, 0u64..9, 0u64..POOL), 0..120)
                .prop_map(|set: BTreeSet<_>| set.into_iter().collect())
        }

        fn naive_contains(triples: &[(u64, u64, u64)], p: u64, s: u64, o: &Literal) -> bool {
            triples
                .iter()
                .any(|&(tp, ts, k)| tp == p && ts == s && &pool_literal(k) == o)
        }

        fn naive_subjects(triples: &[(u64, u64, u64)], p: u64, o: &Literal) -> Vec<u64> {
            let subs: BTreeSet<u64> = triples
                .iter()
                .filter(|&&(tp, _, k)| tp == p && &pool_literal(k) == o)
                .map(|t| t.1)
                .collect();
            subs.into_iter().collect()
        }

        proptest! {
            #[test]
            fn literal_probes_match_naive_filter(triples in arb_triples()) {
                let input: Vec<(u64, u64, Literal)> = triples
                    .iter()
                    .map(|&(p, s, k)| (p, s, pool_literal(k)))
                    .collect();
                let layer = DatatypeLayer::build(&input);
                for p in 0..PREDS {
                    for k in 0..POOL + 1 {
                        let o = pool_literal(k);
                        prop_assert_eq!(
                            layer.subjects_by_literal(p, &o),
                            naive_subjects(&triples, p, &o)
                        );
                        for s in 0..SUBJS {
                            prop_assert_eq!(
                                layer.contains(p, s, &o),
                                naive_contains(&triples, p, s, &o)
                            );
                        }
                    }
                    for s in 0..SUBJS {
                        let want: Vec<&Literal> = input
                            .iter()
                            .filter(|t| t.0 == p && t.1 == s)
                            .map(|t| &t.2)
                            .collect();
                        let got: Vec<&Literal> = layer
                            .literal_indices(p, s)
                            .map(|i| layer.literal(i).unwrap())
                            .collect();
                        prop_assert_eq!(got, want);
                    }
                }
            }

            #[test]
            fn store_contains_matches_naive_filter(triples in arb_triples()) {
                let iri = |kind: &str, n: u64| Term::iri(format!("http://x/{kind}{n}"));
                let mut graph = Graph::new();
                for &(p, s, k) in &triples {
                    graph.insert(Triple::new(
                        iri("s", s),
                        iri("p", p),
                        Term::Literal(pool_literal(k)),
                    ));
                }
                let store =
                    SuccinctEdgeStore::build(&se_ontology::Ontology::new(), &graph).unwrap();
                // Every literal the store holds, addressed by its position.
                let layer = store.datatype_layer();
                let held: Vec<(u64, &Literal)> = (0..layer.len() as u64)
                    .map(|i| (i, layer.literal(i).unwrap()))
                    .collect();
                for p in 0..PREDS {
                    let Some(pid) = store.property_id(&format!("http://x/p{p}")) else {
                        prop_assert!(triples.iter().all(|t| t.0 != p));
                        continue;
                    };
                    for s in 0..SUBJS {
                        let Some(sid) = store.instance_id(&iri("s", s)) else {
                            continue;
                        };
                        for (idx, lit) in &held {
                            prop_assert_eq!(
                                store.contains(pid, sid, &Value::Literal(*idx)),
                                naive_contains(&triples, p, s, lit)
                            );
                        }
                    }
                }
            }
        }
    }
}
