//! Intentionally empty.
//!
//! The RDFType store keeps its pairs in sorted arrays and the streaming
//! overlay uses `std::collections::BTreeMap`, so no code path uses a
//! hand-written ordered map any more. The package survives only because
//! the benchmark's committed lockfile still names it as a dependency of
//! `se-core` and `se-stream`; it goes with the next lockfile refresh.
