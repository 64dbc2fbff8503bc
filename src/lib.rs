//! # succinct-edge — a reproduction of SuccinctEdge (EDBT 2021)
//!
//! A compact, decompression-free, self-index RDF store for the edge, with
//! native RDFS reasoning via LiteMat identifier intervals — plus an
//! incremental ingestion subsystem that keeps the store live under
//! streaming sensor data.
//!
//! ## Module map
//!
//! | re-export | crate | contents |
//! |-----------|-------|----------|
//! | [`rdf`] | `se-rdf` | terms, triples, graphs, N-Triples/Turtle parsing |
//! | [`sds`] | `se-sds` | bit vectors, rank/select, wavelet trees (the SDS substrate) |
//! | [`litemat`] | `se-litemat` | LiteMat prefix encoding, dictionaries, id intervals |
//! | [`ontology`] | `se-ontology` | ρdf ontologies; LUBM and water ontologies |
//! | [`store`] | `se-core` | the SuccinctEdge store (layers, RDFType store, persistence) and the [`store::TripleSource`] access trait |
//! | [`sparql`] | `se-sparql` | SPARQL subset parser, cardinality join orderer, compiled-plan executor and plan cache |
//! | [`stream`] | `se-stream` | incremental ingestion: delta overlay, merged live view, compaction, continuous queries |
//! | [`baselines`] | `se-baselines` | multi-index memory store, disk B+tree store, UNION rewriting |
//! | [`datagen`] | `se-datagen` | LUBM & water-network generators, streaming batches, the 26-query workload |
//!
//! ## Entry points
//!
//! * Build once, query: [`store::SuccinctEdgeStore::build`] +
//!   [`sparql::execute_query`].
//! * Stream: [`stream::ShardedHybridStore::build`]`(…, 1)` →
//!   [`stream::StreamSession::apply_batch`] with registered continuous
//!   queries, each re-run through its cached plan after every batch and
//!   diffed against its previous answers; the overlay compacts back into
//!   the succinct layers automatically (see [`stream::CompactionPolicy`]).
//! * Partition the write path: a shard count above 1 partitions by
//!   predicate into shards behind the same session API, each compacted
//!   on its own (see `se-stream`'s architecture docs).
//! * Reproduce the paper's tables: `cargo run --release -p se-bench --bin
//!   tables`; examples under `examples/` cover the §2 anomaly scenario in
//!   both rebuild-per-instance and streaming form.

pub use se_baselines as baselines;
pub use se_core as store;
pub use se_datagen as datagen;
pub use se_litemat as litemat;
pub use se_ontology as ontology;
pub use se_rdf as rdf;
pub use se_sds as sds;
pub use se_server as server;
pub use se_sparql as sparql;
pub use se_stream as stream;
