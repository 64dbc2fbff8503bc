//! The paper's three storage structures over one set of triples (§4):
//! the object layer, the datatype layer and the RDFType store, built,
//! probed and (in [`crate::persist`]) serialized in one place.
//!
//! Both stores are built on [`Baseline`]: the static
//! [`SuccinctEdgeStore`](crate::SuccinctEdgeStore) is dictionaries plus
//! one baseline, and each shard of `se-stream`'s streaming store is an
//! `Arc<Baseline>` plus its mutable overlay. Construction is two steps
//! every build path shares:
//!
//! 1. **encode** ([`encode_partitions`]) — one pass over the graph that
//!    interns instances, records occurrence statistics and appends each
//!    triple to the input lists of the partition a caller-supplied route
//!    picks (the static store has one partition);
//! 2. **freeze** ([`BaselineInput::freeze`]) — sort, deduplicate and
//!    build the three structures.
//!
//! The probes answer exact (one property id) patterns across both
//! layers. Literal objects surface as `Value::Literal(lit_base + i)`,
//! `i` the position in this baseline's flat literal store; `lit_base` is
//! the caller's id block (0 for the static store).

use crate::builder::instance_key;
use crate::datatype::DatatypeLayer;
use crate::layer::TripleLayer;
use crate::typestore::RdfTypeStore;
use crate::value::Value;
use se_litemat::{Dictionaries, IdInterval};
use se_rdf::{Graph, Literal, Term};

/// What places a triple in a partition: its property id, or for an
/// `rdf:type` triple its concept id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKey {
    /// A non-type triple's property id.
    Property(u64),
    /// An `rdf:type` triple's concept id.
    Concept(u64),
}

/// Encoded triples of one partition awaiting [`BaselineInput::freeze`],
/// in any order, duplicates allowed.
#[derive(Debug, Default)]
pub struct BaselineInput {
    /// Object-property triples `(p, s, o)`.
    pub objects: Vec<(u64, u64, u64)>,
    /// Datatype-property triples `(p, s, literal)`.
    pub datatypes: Vec<(u64, u64, Literal)>,
    /// `rdf:type` pairs `(subject, concept)`.
    pub types: Vec<(u64, u64)>,
}

impl BaselineInput {
    /// The freeze step: sorts and deduplicates each list and builds the
    /// three structures.
    pub fn freeze(mut self) -> Baseline {
        self.objects.sort_unstable();
        self.objects.dedup();
        self.datatypes
            .sort_unstable_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
        self.datatypes.dedup();
        Baseline {
            objects: TripleLayer::build(&self.objects),
            datatypes: DatatypeLayer::build(&self.datatypes),
            types: RdfTypeStore::from_pairs(self.types),
        }
    }
}

/// The encode pass: translates every triple of `graph` to identifier
/// space against `dicts` (interning instances, recording occurrences) and
/// appends it to the input lists of partition `route(key)` of `n`.
///
/// `dicts` must encode an ontology augmented with `graph`
/// ([`crate::augment_ontology`]), which also validates every triple's
/// shape.
pub fn encode_partitions(
    dicts: &mut Dictionaries,
    graph: &Graph,
    n: usize,
    route: impl Fn(PartitionKey) -> usize,
) -> Vec<BaselineInput> {
    let mut parts: Vec<BaselineInput> = (0..n).map(|_| BaselineInput::default()).collect();
    for t in graph {
        let p_iri = t.predicate.as_iri().expect("validated by augmentation");
        let s_key = instance_key(&t.subject).expect("validated by augmentation");
        let s = dicts.instances.get_or_insert(&s_key);
        dicts.instances.record_occurrence(s);
        if t.is_type_triple() {
            let class = t.object.as_iri().expect("validated by augmentation");
            let c = dicts
                .concepts
                .id(class)
                .expect("augmentation covers all data classes");
            dicts.concepts.record_occurrence(c);
            parts[route(PartitionKey::Concept(c))].types.push((s, c));
            continue;
        }
        let p = dicts
            .properties
            .id(p_iri)
            .expect("augmentation covers all data properties");
        dicts.properties.record_occurrence(p);
        let part = &mut parts[route(PartitionKey::Property(p))];
        match &t.object {
            Term::Literal(lit) => part.datatypes.push((p, s, lit.clone())),
            other => {
                let o_key = instance_key(other).expect("resource object");
                let o = dicts.instances.get_or_insert(&o_key);
                dicts.instances.record_occurrence(o);
                part.objects.push((p, s, o));
            }
        }
    }
    parts
}

/// The three structures of paper §4 over one set of triples.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Triples whose object is a resource.
    pub objects: TripleLayer,
    /// Triples whose object is a literal.
    pub datatypes: DatatypeLayer,
    /// `rdf:type` triples.
    pub types: RdfTypeStore,
}

impl Baseline {
    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.objects.len() + self.datatypes.len() + self.types.len()
    }

    /// `true` if no triples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(s, p, ?o)` — paper Algorithm 3 over both layers: instance
    /// objects first, then literal objects.
    pub fn objects(&self, p: u64, s: u64, lit_base: u64) -> Vec<Value> {
        let mut out: Vec<Value> = self
            .objects
            .objects(p, s)
            .into_iter()
            .map(Value::Instance)
            .collect();
        out.extend(
            self.datatypes
                .literal_indices(p, s)
                .map(|i| Value::Literal(lit_base + i)),
        );
        out
    }

    /// `(?s, p, o)` — paper Algorithm 4, ascending. `literal` resolves a
    /// literal object's id to its content (literal objects match by
    /// content, so the id may belong to any store block).
    pub fn subjects<'l>(
        &self,
        p: u64,
        o: &Value,
        literal: impl FnOnce(u64) -> Option<&'l Literal>,
    ) -> Vec<u64> {
        match o {
            Value::Instance(oid) => self.objects.subjects(p, *oid),
            Value::Literal(idx) => literal(*idx)
                .map(|lit| self.datatypes.subjects_by_literal(p, lit))
                .unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// `(?s, p, ?o)` — full predicate scan, `(subject, object)` pairs
    /// **sorted by subject** (ties: instances before literals).
    ///
    /// Each layer yields subject-sorted pairs; for the rare predicate that
    /// carries both resource and literal objects the two runs are merged,
    /// keeping the global subject order the merge join (§5.2) relies on.
    pub fn scan_predicate(&self, p: u64, lit_base: u64) -> Vec<(u64, Value)> {
        let inst = self.objects.scan_predicate(p);
        let lit = self.datatypes.scan_predicate(p);
        let mut out = Vec::with_capacity(inst.len() + lit.len());
        let (mut i, mut j) = (0, 0);
        while i < inst.len() || j < lit.len() {
            let take_inst = match (inst.get(i), lit.get(j)) {
                (Some(a), Some(b)) => a.0 <= b.0,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_inst {
                out.push((inst[i].0, Value::Instance(inst[i].1)));
                i += 1;
            } else {
                out.push((lit[j].0, Value::Literal(lit_base + lit[j].1)));
                j += 1;
            }
        }
        out
    }

    /// `(s, p, o)` membership; `literal` resolves as for
    /// [`subjects`](Self::subjects).
    pub fn contains<'l>(
        &self,
        p: u64,
        s: u64,
        o: &Value,
        literal: impl FnOnce(u64) -> Option<&'l Literal>,
    ) -> bool {
        match o {
            Value::Instance(oid) => self.objects.contains(p, s, *oid),
            Value::Literal(idx) => {
                literal(*idx).is_some_and(|lit| self.datatypes.contains(p, s, lit))
            }
            _ => false,
        }
    }

    /// Distinct property ids in `iv` held by either layer, ascending —
    /// the fan-out set of a LiteMat interval pattern (§5.2).
    pub fn properties_in(&self, iv: IdInterval) -> Vec<u64> {
        let (obj, dt) = (self.objects.index(), self.datatypes.index());
        let mut out: Vec<u64> = obj
            .predicate_range(iv.lower, iv.upper)
            .map(|k| obj.predicate_at(k))
            .chain(
                dt.predicate_range(iv.lower, iv.upper)
                    .map(|k| dt.predicate_at(k)),
            )
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Paper Algorithm 2: triples with predicate `p` (both layers).
    pub fn predicate_count(&self, p: u64) -> usize {
        self.objects.index().count_predicate(p) + self.datatypes.index().count_predicate(p)
    }
}
