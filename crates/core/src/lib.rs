//! # se-core — the SuccinctEdge RDF store
//!
//! The paper's primary contribution (§4–§5): a compact, decompression-free,
//! self-index, in-memory RDF store. One logical PSO index, laid out as three
//! storage components:
//!
//! * the **object-triple store** ([`layer::TripleLayer`]): triples whose
//!   object is a resource, sorted `(P, S, O)` — the structure of the
//!   paper's Figure 5(b): the predicate/subject index (`PsIndex`:
//!   wavelet trees `WT_p`, `WT_s` linked by bitmaps `BM_ps`, `BM_so`)
//!   plus the object wavelet tree `WT_o`;
//! * the **datatype-triple store** ([`datatype::DatatypeLayer`]): triples
//!   whose object is a literal; the same predicate/subject index type,
//!   objects in a flat literal store ("we prefer to store the values as
//!   they have been sent by sensors, possibly with some redundancy" §4);
//! * the **RDFType store** ([`typestore::RdfTypeStore`]): `rdf:type`
//!   triples in two sorted arrays keyed `(concept, subject)` and
//!   `(subject, concept)`.
//!
//! The three components form one [`baseline::Baseline`], built, probed
//! and serialized in one place: the static [`store::SuccinctEdgeStore`]
//! is dictionaries plus one baseline, and each shard of `se-stream`'s
//! streaming store is a baseline plus its overlay. A baseline has one
//! on-disk format, the checksummed v02 layer file of [`persist`], which
//! `se-stream` writes next to the dictionaries in its store directory.
//!
//! Triple patterns are evaluated *without decompressing anything* by
//! translating them into `access` / `rank` / `select` / `range_search`
//! operations (the paper's Algorithms 2, 3 and 4, implemented by
//! [`baseline::Baseline`]'s probes). RDFS reasoning arrives for free: a LiteMat
//! identifier interval replaces a single identifier and the same SDS
//! navigation answers the inferred pattern.

pub mod baseline;
pub mod builder;
pub mod datatype;
pub mod error;
mod index;
pub mod layer;
pub mod persist;
pub mod source;
pub mod store;
pub mod typestore;
pub mod value;

pub use baseline::Baseline;
pub use builder::{augment_ontology, BuildStats};
pub use error::BuildError;
pub use source::TripleSource;
pub use store::SuccinctEdgeStore;
pub use value::Value;
