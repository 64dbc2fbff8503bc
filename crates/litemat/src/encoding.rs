//! The LiteMat prefix-code encoder (paper §3.2, Figure 2).
//!
//! Given a term hierarchy (a forest of `child ⊑ parent` edges anchored at a
//! virtual root such as `owl:Thing`), the encoder assigns:
//!
//! 1. local identifier `1` to the root;
//! 2. to the `n` direct children of a term, local identifiers `1..=n` on
//!    `⌈log₂(n+1)⌉` bits, appended to the parent's encoding (top-down);
//! 3. a *normalization* step pads every encoding with trailing zero bits so
//!    all identifiers share the same binary length `L`.
//!
//! The paper's Figure 2 example — `A ⊑ Thing`, `B ⊑ Thing`, `C ⊑ B`,
//! `D ⊑ B` — yields `Thing=10000₂=16`, `A=10100₂=20`, `B=11000₂=24`,
//! `C=11001₂=25`, `D=11010₂=26`, and the interval of `B` is `[24, 28)`,
//! covering exactly `{B, C, D}`.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// The contiguous identifier interval `[lower, upper)` of a term and all its
/// direct and indirect sub-terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdInterval {
    /// Inclusive lower bound — the term's own identifier.
    pub lower: u64,
    /// Exclusive upper bound.
    pub upper: u64,
}

impl IdInterval {
    /// Every identifier: the interval of "any term at all".
    pub const ALL: IdInterval = IdInterval {
        lower: 0,
        upper: u64::MAX,
    };

    /// The singleton interval `[id, id + 1)`: one term, no sub-terms.
    #[inline]
    pub fn point(id: u64) -> Self {
        Self {
            lower: id,
            upper: id + 1,
        }
    }

    /// `true` if `id` denotes the term itself or one of its sub-terms.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        self.lower <= id && id < self.upper
    }

    /// `true` if the interval covers a single identifier (a leaf term).
    #[inline]
    pub fn is_singleton(&self) -> bool {
        self.upper == self.lower + 1
    }

    /// Number of identifiers covered.
    #[inline]
    pub fn len(&self) -> u64 {
        self.upper - self.lower
    }

    /// `true` if the interval is empty (never produced by the encoder).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.upper <= self.lower
    }
}

impl fmt::Display for IdInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lower, self.upper)
    }
}

/// Errors raised while encoding a hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodingError {
    /// The hierarchy contains a cycle through the named term.
    Cycle(String),
    /// The encoding would exceed 64 bits.
    TooDeep { total_bits: u32 },
    /// A term was given two different parents (LiteMat's base scheme encodes
    /// single-inheritance hierarchies; multiple inheritance is LiteMat++,
    /// listed as future work in the paper).
    MultipleParents { term: String },
}

impl fmt::Display for EncodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodingError::Cycle(t) => write!(f, "hierarchy cycle through {t}"),
            EncodingError::TooDeep { total_bits } => {
                write!(f, "LiteMat encoding needs {total_bits} bits (max 64)")
            }
            EncodingError::MultipleParents { term } => {
                write!(
                    f,
                    "term {term} has multiple parents (single inheritance required)"
                )
            }
        }
    }
}

impl std::error::Error for EncodingError {}

/// Per-term metadata stored in the LiteMat dictionaries (paper Figure 2(b)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermEncoding {
    /// The normalized integer identifier.
    pub id: u64,
    /// Binary length *before* normalization (prefix + local bits). The paper
    /// calls this the "local length"; it is what the interval computation
    /// needs.
    pub local_len: u32,
}

/// A complete LiteMat encoding of one term hierarchy.
#[derive(Debug, Clone, Default)]
pub struct LiteMatEncoding {
    /// term → (id, local length)
    by_term: HashMap<Arc<str>, TermEncoding>,
    /// id → term (ids are sparse in `[0, 2^L)`).
    by_id: BTreeMap<u64, Arc<str>>,
    /// Normalized length `L` in bits.
    total_len: u32,
    root: Option<Arc<str>>,
}

impl LiteMatEncoding {
    /// Encodes a hierarchy given as `(child, parent)` edges plus the root
    /// term. Terms reachable from the root are encoded; the root itself
    /// receives local identifier `1`.
    ///
    /// Terms appearing only as parents are encoded too. Orphan terms (no
    /// parent edge and not the root) are attached directly under the root,
    /// which mirrors how LiteMat anchors unclassified concepts at
    /// `owl:Thing`.
    pub fn encode(
        root: &str,
        edges: &[(String, String)],
        extra_terms: &[String],
    ) -> Result<Self, EncodingError> {
        // child -> parent, detecting multiple inheritance.
        let mut parent_of: HashMap<&str, &str> = HashMap::new();
        for (child, parent) in edges {
            if child == parent {
                continue; // reflexive axioms are trivially satisfied
            }
            if let Some(existing) = parent_of.get(child.as_str()) {
                if *existing != parent.as_str() {
                    return Err(EncodingError::MultipleParents {
                        term: child.clone(),
                    });
                }
            } else {
                parent_of.insert(child, parent);
            }
        }
        // children lists in deterministic (sorted) order.
        let mut children: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut all_terms: Vec<&str> = Vec::new();
        for (child, parent) in parent_of.iter() {
            children.entry(parent).or_default().push(child);
            all_terms.push(child);
            all_terms.push(parent);
        }
        for t in extra_terms {
            all_terms.push(t);
        }
        all_terms.push(root);
        all_terms.sort_unstable();
        all_terms.dedup();
        for list in children.values_mut() {
            list.sort_unstable();
        }
        // Attach orphans (terms without a parent chain reaching the root).
        for &term in &all_terms {
            if term != root && !parent_of.contains_key(term) {
                children.entry(root).or_default().push(term);
            }
        }
        for list in children.values_mut() {
            list.sort_unstable();
            list.dedup();
        }

        // Depth-first top-down assignment of prefix codes. Codes are tracked
        // as (bits, length) pairs until the final normalization.
        struct Frame<'s> {
            term: &'s str,
            code: u64,
            len: u32,
        }
        let mut stack = vec![Frame {
            term: root,
            code: 1,
            len: 1,
        }];
        let mut raw: Vec<(&str, u64, u32)> = Vec::with_capacity(all_terms.len());
        let mut visited: HashMap<&str, ()> = HashMap::new();
        while let Some(frame) = stack.pop() {
            if visited.insert(frame.term, ()).is_some() {
                return Err(EncodingError::Cycle(frame.term.to_string()));
            }
            raw.push((frame.term, frame.code, frame.len));
            if let Some(kids) = children.get(frame.term) {
                let n = kids.len() as u64;
                let local_bits = 64 - n.leading_zeros(); // ⌈log₂(n+1)⌉
                for (i, &kid) in kids.iter().enumerate() {
                    let local_id = i as u64 + 1;
                    let len = frame.len + local_bits;
                    if len > 64 {
                        return Err(EncodingError::TooDeep { total_bits: len });
                    }
                    stack.push(Frame {
                        term: kid,
                        code: (frame.code << local_bits) | local_id,
                        len,
                    });
                }
            }
        }
        if visited.len() != all_terms.len() {
            // Some term was never reached from the root: only possible with
            // a cycle detached from the root.
            let missing = all_terms
                .iter()
                .find(|t| !visited.contains_key(**t))
                .expect("count mismatch implies a missing term");
            return Err(EncodingError::Cycle(missing.to_string()));
        }

        // Normalization: pad right with zeros to the maximum length.
        let total_len = raw.iter().map(|&(_, _, len)| len).max().unwrap_or(1);
        let mut by_term = HashMap::with_capacity(raw.len());
        let mut by_id = BTreeMap::new();
        for (term, code, len) in raw {
            let id = code << (total_len - len);
            let term: Arc<str> = Arc::from(term);
            by_term.insert(term.clone(), TermEncoding { id, local_len: len });
            by_id.insert(id, term);
        }
        Ok(Self {
            by_term,
            by_id,
            total_len,
            root: Some(Arc::from(root)),
        })
    }

    /// Reconstructs an encoding from persisted `(term, id, local_len)`
    /// entries (the inverse of the dictionary serialization). The root is
    /// recovered as the entry with local length 1.
    pub fn from_entries(total_len: u32, entries: Vec<(String, u64, u32)>) -> Self {
        let mut by_term = HashMap::with_capacity(entries.len());
        let mut by_id = BTreeMap::new();
        let mut root = None;
        for (term, id, local_len) in entries {
            let term: Arc<str> = Arc::from(term.as_str());
            if local_len == 1 {
                root = Some(term.clone());
            }
            by_term.insert(term.clone(), TermEncoding { id, local_len });
            by_id.insert(id, term);
        }
        Self {
            by_term,
            by_id,
            total_len,
            root,
        }
    }

    /// Normalized identifier length `L` in bits.
    pub fn total_len(&self) -> u32 {
        self.total_len
    }

    /// The root term, if the encoding is non-empty.
    pub fn root(&self) -> Option<&str> {
        self.root.as_deref()
    }

    /// Number of encoded terms.
    pub fn len(&self) -> usize {
        self.by_term.len()
    }

    /// `true` if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.by_term.is_empty()
    }

    /// The encoding metadata of `term`.
    pub fn get(&self, term: &str) -> Option<&TermEncoding> {
        self.by_term.get(term)
    }

    /// The identifier of `term`.
    pub fn id(&self, term: &str) -> Option<u64> {
        self.by_term.get(term).map(|e| e.id)
    }

    /// The term owning identifier `id`.
    pub fn term(&self, id: u64) -> Option<&str> {
        self.by_id.get(&id).map(|t| &**t)
    }

    /// Like [`LiteMatEncoding::term`] but returns the shared `Arc`, so
    /// callers can build RDF terms without copying the string.
    pub fn term_arc(&self, id: u64) -> Option<std::sync::Arc<str>> {
        self.by_id.get(&id).cloned()
    }

    /// The subsumption interval of `term` — the paper's
    /// `[lowerBound, upperBound)` computed "using two bit-shift operations
    /// and an addition".
    pub fn interval(&self, term: &str) -> Option<IdInterval> {
        let enc = self.by_term.get(term)?;
        Some(self.interval_of(enc))
    }

    /// Interval from raw metadata (no lookup).
    #[inline]
    pub fn interval_of(&self, enc: &TermEncoding) -> IdInterval {
        let span_bits = self.total_len - enc.local_len;
        IdInterval {
            lower: enc.id,
            upper: enc.id + (1u64 << span_bits),
        }
    }

    /// `true` if `sub` is `sup` or a direct/indirect sub-term of `sup`.
    pub fn is_subsumed_by(&self, sub: &str, sup: &str) -> bool {
        match (self.id(sub), self.interval(sup)) {
            (Some(id), Some(iv)) => iv.contains(id),
            _ => false,
        }
    }

    /// All encoded terms whose identifier falls in `interval`, i.e. the
    /// sub-hierarchy — used by the baselines' UNION rewriting (§7.3.5).
    pub fn terms_in_interval(&self, interval: IdInterval) -> Vec<&str> {
        self.by_id
            .range(interval.lower..interval.upper)
            .map(|(_, t)| &**t)
            .collect()
    }

    /// Iterates over `(term, encoding)` pairs in identifier order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TermEncoding)> + '_ {
        self.by_id
            .values()
            .map(move |t| (&**t, self.by_term.get(t).expect("index consistency")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 hierarchy.
    fn figure2() -> LiteMatEncoding {
        let edges = vec![
            ("A".to_string(), "Thing".to_string()),
            ("B".to_string(), "Thing".to_string()),
            ("C".to_string(), "B".to_string()),
            ("D".to_string(), "B".to_string()),
        ];
        LiteMatEncoding::encode("Thing", &edges, &[]).unwrap()
    }

    #[test]
    fn paper_figure_2_ids() {
        let enc = figure2();
        assert_eq!(enc.total_len(), 5);
        assert_eq!(enc.id("Thing"), Some(16)); // 10000
        assert_eq!(enc.id("A"), Some(20)); //       10100
        assert_eq!(enc.id("B"), Some(24)); //       11000
        assert_eq!(enc.id("C"), Some(25)); //       11001
        assert_eq!(enc.id("D"), Some(26)); //       11010
    }

    #[test]
    fn paper_figure_2_local_lengths() {
        let enc = figure2();
        assert_eq!(enc.get("Thing").unwrap().local_len, 1);
        assert_eq!(enc.get("A").unwrap().local_len, 3);
        assert_eq!(enc.get("B").unwrap().local_len, 3);
        assert_eq!(enc.get("C").unwrap().local_len, 5);
        assert_eq!(enc.get("D").unwrap().local_len, 5);
    }

    #[test]
    fn paper_figure_2_intervals() {
        let enc = figure2();
        let thing = enc.interval("Thing").unwrap();
        assert_eq!((thing.lower, thing.upper), (16, 32));
        let b = enc.interval("B").unwrap();
        assert_eq!((b.lower, b.upper), (24, 28));
        assert!(b.contains(enc.id("C").unwrap()));
        assert!(b.contains(enc.id("D").unwrap()));
        assert!(!b.contains(enc.id("A").unwrap()));
        let c = enc.interval("C").unwrap();
        assert!(c.is_singleton());
        assert_eq!(IdInterval::point(25), c);
        assert!(IdInterval::ALL.contains(thing.lower) && IdInterval::ALL.contains(c.lower));
    }

    #[test]
    fn subsumption_checks() {
        let enc = figure2();
        assert!(enc.is_subsumed_by("C", "B"));
        assert!(enc.is_subsumed_by("C", "Thing"));
        assert!(enc.is_subsumed_by("B", "B"));
        assert!(!enc.is_subsumed_by("B", "C"));
        assert!(!enc.is_subsumed_by("A", "B"));
        assert!(!enc.is_subsumed_by("nonexistent", "B"));
    }

    #[test]
    fn terms_in_interval_is_sub_hierarchy() {
        let enc = figure2();
        let b = enc.interval("B").unwrap();
        let mut terms = enc.terms_in_interval(b);
        terms.sort_unstable();
        assert_eq!(terms, vec!["B", "C", "D"]);
    }

    #[test]
    fn id_term_roundtrip() {
        let enc = figure2();
        for term in ["Thing", "A", "B", "C", "D"] {
            let id = enc.id(term).unwrap();
            assert_eq!(enc.term(id), Some(term));
        }
        assert_eq!(enc.term(999), None);
    }

    #[test]
    fn orphans_attach_to_root() {
        let enc =
            LiteMatEncoding::encode("Thing", &[("A".into(), "Thing".into())], &["Orphan".into()])
                .unwrap();
        assert!(enc.is_subsumed_by("Orphan", "Thing"));
        assert!(!enc.is_subsumed_by("Orphan", "A"));
    }

    #[test]
    fn root_only() {
        let enc = LiteMatEncoding::encode("Thing", &[], &[]).unwrap();
        assert_eq!(enc.len(), 1);
        assert_eq!(enc.total_len(), 1);
        assert_eq!(enc.id("Thing"), Some(1));
        let iv = enc.interval("Thing").unwrap();
        assert!(iv.is_singleton());
    }

    #[test]
    fn single_child_uses_one_bit() {
        let enc = LiteMatEncoding::encode("R", &[("A".into(), "R".into())], &[]).unwrap();
        // R = 1, A = 11; normalized: R = 10 (2), A = 11 (3).
        assert_eq!(enc.total_len(), 2);
        assert_eq!(enc.id("R"), Some(2));
        assert_eq!(enc.id("A"), Some(3));
    }

    #[test]
    fn three_children_use_two_bits() {
        let edges: Vec<(String, String)> = ["A", "B", "C"]
            .iter()
            .map(|c| (c.to_string(), "R".to_string()))
            .collect();
        let enc = LiteMatEncoding::encode("R", &edges, &[]).unwrap();
        assert_eq!(enc.total_len(), 3);
        // R=100=4, A=101=5, B=110=6, C=111=7.
        assert_eq!(enc.id("R"), Some(4));
        assert_eq!(enc.id("A"), Some(5));
        assert_eq!(enc.id("B"), Some(6));
        assert_eq!(enc.id("C"), Some(7));
    }

    #[test]
    fn four_children_use_three_bits() {
        let edges: Vec<(String, String)> = ["A", "B", "C", "D"]
            .iter()
            .map(|c| (c.to_string(), "R".to_string()))
            .collect();
        let enc = LiteMatEncoding::encode("R", &edges, &[]).unwrap();
        assert_eq!(enc.total_len(), 4);
        assert_eq!(enc.id("A"), Some(0b1001));
        assert_eq!(enc.id("D"), Some(0b1100));
    }

    #[test]
    fn cycle_detection() {
        let edges = vec![
            ("A".to_string(), "B".to_string()),
            ("B".to_string(), "A".to_string()),
        ];
        let err = LiteMatEncoding::encode("Thing", &edges, &[]).unwrap_err();
        assert!(matches!(err, EncodingError::Cycle(_)));
    }

    #[test]
    fn self_loop_is_ignored() {
        let edges = vec![
            ("A".to_string(), "A".to_string()),
            ("A".to_string(), "Thing".to_string()),
        ];
        let enc = LiteMatEncoding::encode("Thing", &edges, &[]).unwrap();
        assert!(enc.is_subsumed_by("A", "Thing"));
    }

    #[test]
    fn multiple_parents_rejected() {
        let edges = vec![
            ("A".to_string(), "B".to_string()),
            ("A".to_string(), "C".to_string()),
            ("B".to_string(), "Thing".to_string()),
            ("C".to_string(), "Thing".to_string()),
        ];
        let err = LiteMatEncoding::encode("Thing", &edges, &[]).unwrap_err();
        assert_eq!(
            err,
            EncodingError::MultipleParents {
                term: "A".to_string()
            }
        );
    }

    #[test]
    fn duplicate_edges_are_fine() {
        let edges = vec![
            ("A".to_string(), "Thing".to_string()),
            ("A".to_string(), "Thing".to_string()),
        ];
        let enc = LiteMatEncoding::encode("Thing", &edges, &[]).unwrap();
        assert_eq!(enc.len(), 2);
    }

    #[test]
    fn deep_chain() {
        // A chain of 50 terms: each level adds 1 bit, total 51 bits — fits.
        let mut edges = Vec::new();
        for i in 1..50 {
            edges.push((format!("T{i}"), format!("T{}", i - 1)));
        }
        let enc = LiteMatEncoding::encode("T0", &edges, &[]).unwrap();
        assert!(enc.is_subsumed_by("T49", "T0"));
        assert!(enc.is_subsumed_by("T49", "T25"));
        assert!(!enc.is_subsumed_by("T25", "T49"));
    }

    #[test]
    fn too_deep_rejected() {
        let mut edges = Vec::new();
        for i in 1..80 {
            edges.push((format!("T{i}"), format!("T{}", i - 1)));
        }
        let err = LiteMatEncoding::encode("T0", &edges, &[]).unwrap_err();
        assert!(matches!(err, EncodingError::TooDeep { .. }));
    }

    #[test]
    fn intervals_nest_or_are_disjoint() {
        let enc = figure2();
        let intervals: Vec<IdInterval> = ["Thing", "A", "B", "C", "D"]
            .iter()
            .map(|t| enc.interval(t).unwrap())
            .collect();
        for a in &intervals {
            for b in &intervals {
                let nested = (a.lower >= b.lower && a.upper <= b.upper)
                    || (b.lower >= a.lower && b.upper <= a.upper);
                let disjoint = a.upper <= b.lower || b.upper <= a.lower;
                assert!(nested || disjoint, "{a} vs {b}");
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Random single-inheritance forests: term i's parent is a random
        /// term j < i (or the root).
        fn arb_edges(n: usize) -> impl Strategy<Value = Vec<(String, String)>> {
            proptest::collection::vec(0usize..n.max(1), 1..n).prop_map(|parents| {
                parents
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        let child = format!("T{}", i + 1);
                        let parent = if p > i {
                            "R".to_string()
                        } else {
                            format!("T{p}")
                        };
                        (child, parent)
                    })
                    .collect()
            })
        }

        fn ancestors(edges: &[(String, String)], term: &str) -> Vec<String> {
            let parent: std::collections::HashMap<&str, &str> = edges
                .iter()
                .map(|(c, p)| (c.as_str(), p.as_str()))
                .collect();
            let mut out = vec![term.to_string()];
            let mut cur = term;
            while let Some(&p) = parent.get(cur) {
                out.push(p.to_string());
                cur = p;
            }
            if out.last().map(String::as_str) != Some("R") {
                out.push("R".to_string());
            }
            out
        }

        proptest! {
            #[test]
            fn interval_containment_equals_transitive_subsumption(
                edges in arb_edges(40)
            ) {
                // T0's parent may be "R" already; attach all orphans to R.
                let enc = LiteMatEncoding::encode("R", &edges, &["T0".to_string()]);
                prop_assume!(enc.is_ok());
                let enc = enc.unwrap();
                let terms: Vec<String> = (0..=edges.len())
                    .map(|i| format!("T{i}"))
                    .chain(["R".to_string()])
                    .collect();
                for sub in &terms {
                    prop_assume!(enc.id(sub).is_some());
                    let ancs = ancestors(&edges, sub);
                    for sup in &terms {
                        let expected = ancs.contains(sup) || sub == sup;
                        prop_assert_eq!(
                            enc.is_subsumed_by(sub, sup),
                            expected,
                            "sub={} sup={}", sub, sup
                        );
                    }
                }
            }

            #[test]
            fn ids_are_unique(edges in arb_edges(40)) {
                let enc = LiteMatEncoding::encode("R", &edges, &[]);
                prop_assume!(enc.is_ok());
                let enc = enc.unwrap();
                let mut seen = std::collections::HashSet::new();
                for (_, e) in enc.iter() {
                    prop_assert!(seen.insert(e.id), "duplicate id {}", e.id);
                }
            }
        }
    }
}
