//! Store construction (the paper's "back-end construction", §7.3.1).
//!
//! Building a SuccinctEdge store from an RDF graph proceeds in four steps:
//!
//! 1. **Ontology augmentation** — classes and properties that occur in the
//!    data but not in the ontology are attached under the hierarchy roots,
//!    so every term is LiteMat-encodable (the paper assumes stable, complete
//!    ontologies prepared on the administration server; augmentation makes
//!    the implementation robust to drift without changing the semantics of
//!    declared terms).
//! 2. **Dictionary encoding** — LiteMat runs over both hierarchies;
//!    instances receive dense identifiers in first-seen order.
//! 3. **Triple encoding + statistics** — every triple is translated to
//!    identifier space; dictionaries record occurrence counts (the
//!    creation-time statistics of §5.1).
//! 4. **Layer construction** — object triples are sorted `(p, s, o)` and
//!    frozen into the SDS layers; datatype triples into their layer;
//!    `rdf:type` pairs become the RDFType store's two sorted arrays.
//!
//! Steps 3 and 4 are [`crate::baseline`]'s encode pass and freeze step,
//! shared with the streaming store's shards.

use crate::baseline::encode_partitions;
use crate::error::BuildError;
use crate::store::SuccinctEdgeStore;
use se_litemat::Dictionaries;
use se_ontology::Ontology;
use se_rdf::{Graph, Term};
use std::collections::BTreeSet;

/// Construction statistics reported by [`SuccinctEdgeStore::build`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Total triples ingested (after deduplication).
    pub n_triples: usize,
    /// `rdf:type` triples routed to the RDFType store.
    pub n_type_triples: usize,
    /// Object-property triples in the SDS layers.
    pub n_object_triples: usize,
    /// Datatype-property triples in the flat-literal layer.
    pub n_datatype_triples: usize,
    /// Classes added to the ontology because they only occur in the data.
    pub n_augmented_classes: usize,
    /// Properties added to the ontology because they only occur in the data.
    pub n_augmented_properties: usize,
}

/// Key under which a subject/object resource is stored in the instance
/// dictionary. Blank nodes are prefixed to avoid colliding with IRIs.
/// Public so overlay stores (`se-stream`) encode terms identically.
pub fn instance_key(term: &Term) -> Option<String> {
    match term {
        Term::Iri(iri) => Some(iri.to_string()),
        Term::Blank(label) => Some(format!("_:{label}")),
        Term::Literal(_) => None,
    }
}

/// Decodes an instance-dictionary key back into a [`Term`]; IRIs reuse the
/// dictionary's shared `Arc` without copying.
pub fn key_to_term_arc(key: std::sync::Arc<str>) -> Term {
    match key.strip_prefix("_:") {
        Some(label) => Term::blank(label.to_string()),
        None => Term::Iri(key),
    }
}

/// Step 1 of store construction, exposed for stores that manage their own
/// partitioning (the sharded store of `se-stream` encodes one *global*
/// dictionary set and builds per-shard baselines against it): returns the
/// ontology augmented with every class/property that occurs in `graph` but
/// not in `ontology`, plus the counts of augmented classes and properties.
pub fn augment_ontology(
    ontology: &Ontology,
    graph: &Graph,
) -> Result<(Ontology, usize, usize), BuildError> {
    let mut onto = ontology.clone();
    let known_classes: BTreeSet<&str> = onto
        .class_edges
        .iter()
        .flat_map(|(a, b)| [a.as_str(), b.as_str()])
        .chain(onto.extra_classes.iter().map(String::as_str))
        .chain([se_rdf::vocab::owl::THING])
        .collect();
    let known_props: BTreeSet<&str> = onto
        .property_edges
        .iter()
        .flat_map(|(a, b)| [a.as_str(), b.as_str()])
        .chain(onto.extra_object_properties.iter().map(String::as_str))
        .chain(onto.extra_datatype_properties.iter().map(String::as_str))
        .collect();
    let mut new_classes = BTreeSet::new();
    let mut new_obj_props = BTreeSet::new();
    let mut new_data_props = BTreeSet::new();
    for t in graph {
        let Some(p) = t.predicate.as_iri() else {
            return Err(BuildError::MalformedTriple(t.to_string()));
        };
        if t.subject.is_literal() {
            return Err(BuildError::MalformedTriple(t.to_string()));
        }
        if t.is_type_triple() {
            let Some(class) = t.object.as_iri() else {
                return Err(BuildError::MalformedTypeObject(t.to_string()));
            };
            if !known_classes.contains(class) {
                new_classes.insert(class.to_string());
            }
        } else if !known_props.contains(p) {
            if t.object.is_literal() {
                new_data_props.insert(p.to_string());
            } else {
                new_obj_props.insert(p.to_string());
            }
        }
    }
    // A predicate seen with both literal and resource objects is registered
    // as an object property (the datatype layer does not need hierarchy
    // placement to store its triples).
    for p in new_obj_props.iter() {
        new_data_props.remove(p);
    }
    let stats_aug_classes = new_classes.len();
    let stats_aug_props = new_obj_props.len() + new_data_props.len();
    onto.extra_classes.extend(new_classes);
    onto.extra_object_properties.extend(new_obj_props);
    onto.extra_datatype_properties.extend(new_data_props);
    Ok((onto, stats_aug_classes, stats_aug_props))
}

pub(crate) fn build_store(
    ontology: &Ontology,
    graph: &Graph,
) -> Result<SuccinctEdgeStore, BuildError> {
    let (onto, n_augmented_classes, n_augmented_properties) = augment_ontology(ontology, graph)?;
    let mut dicts: Dictionaries = onto.encode()?;
    let input = encode_partitions(&mut dicts, graph, 1, |_| 0)
        .pop()
        .expect("one partition");
    let base = input.freeze();
    let stats = BuildStats {
        n_triples: base.len(),
        n_type_triples: base.types.len(),
        n_object_triples: base.objects.len(),
        n_datatype_triples: base.datatypes.len(),
        n_augmented_classes,
        n_augmented_properties,
    };
    Ok(SuccinctEdgeStore::from_parts(dicts, base, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_key_distinguishes_blank_from_iri() {
        assert_eq!(
            instance_key(&Term::iri("http://x/a")).as_deref(),
            Some("http://x/a")
        );
        assert_eq!(instance_key(&Term::blank("b0")).as_deref(), Some("_:b0"));
        assert_eq!(instance_key(&Term::literal("v")), None);
    }

    #[test]
    fn key_roundtrip() {
        assert_eq!(
            key_to_term_arc("http://x/a".into()),
            Term::iri("http://x/a")
        );
        assert_eq!(key_to_term_arc("_:b0".into()), Term::blank("b0"));
    }
}
