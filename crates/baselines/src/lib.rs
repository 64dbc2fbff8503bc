//! # se-baselines — the comparison systems of the paper's evaluation (§7)
//!
//! The paper benchmarks SuccinctEdge against four JVM systems. What the
//! comparisons actually measure is *structural*: number of indexes
//! (memory footprint), disk- vs memory-residency (latency), and UNION
//! rewriting vs native intervals (reasoning cost). This crate rebuilds
//! those structures natively so the relative shapes are reproducible:
//!
//! * [`memory::MultiIndexStore`] — an in-memory triple store with three
//!   BTree indexes (SPO, POS, OSP) over a full term dictionary: the
//!   analogue of RDF4J's Memory Store / Jena-InMem;
//! * [`disk::DiskStore`] — a page-based, buffer-pool-managed store with
//!   three on-disk B+trees: the analogue of Jena TDB2 / RDF4Led
//!   (disk-resident, multiple indexes);
//! * [`rewrite`] — the UNION query rewriting the paper applies manually to
//!   give the baselines reasoning support (§7.3.5): every constant concept
//!   or property with a sub-hierarchy expands the query into the union of
//!   all substitution combinations;
//! * [`exec`] — a shared BGP executor for the baselines, reusing the
//!   se-sparql parser, AST and expression evaluator.

pub mod btree;
pub mod dict;
pub mod disk;
pub mod exec;
pub mod memory;
pub mod pager;
pub mod rewrite;

pub use disk::DiskStore;
pub use memory::MultiIndexStore;
pub use rewrite::rewrite_with_ontology;
