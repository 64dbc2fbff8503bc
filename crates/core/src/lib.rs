//! # se-core — the SuccinctEdge RDF store
//!
//! The paper's primary contribution (§4–§5): a compact, decompression-free,
//! self-index, in-memory RDF store. One logical PSO index, laid out as three
//! storage components:
//!
//! * the **object-triple store** ([`layer::TripleLayer`]): triples whose
//!   object is a resource, sorted `(P, S, O)` and represented as wavelet
//!   trees (`WT_p`, `WT_s`, `WT_o`) linked by two bitmaps (`BM_ps`,
//!   `BM_so`) — the structure of the paper's Figure 5(b);
//! * the **datatype-triple store** ([`datatype::DatatypeLayer`]): triples
//!   whose object is a literal; same predicate/subject layers, objects in a
//!   flat literal store ("we prefer to store the values as they have been
//!   sent by sensors, possibly with some redundancy" §4);
//! * the **RDFType store** ([`typestore::RdfTypeStore`]): `rdf:type`
//!   triples in two sorted arrays keyed `(concept, subject)` and
//!   `(subject, concept)`.
//!
//! Triple patterns are evaluated *without decompressing anything* by
//! translating them into `access` / `rank` / `select` / `range_search`
//! operations (the paper's Algorithms 2, 3 and 4, implemented in
//! [`store::SuccinctEdgeStore`]). RDFS reasoning arrives for free: a LiteMat
//! identifier interval replaces a single identifier and the same SDS
//! navigation answers the inferred pattern.

pub mod builder;
pub mod datatype;
pub mod error;
pub mod layer;
pub mod persist;
pub mod source;
pub mod store;
pub mod typestore;
pub mod value;

pub use builder::{augment_ontology, BuildStats};
pub use error::BuildError;
pub use source::TripleSource;
pub use store::SuccinctEdgeStore;
pub use value::Value;
