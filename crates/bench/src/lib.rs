//! # se-bench — shared harness code for the paper's experiments
//!
//! Dataset preparation, system-under-test wrappers and timing helpers for
//! the `tables` binary that regenerates every table and figure of §7.
//! Regression benchmarking lives in the top-level `benchmark/` crate.

use se_baselines::{DiskStore, MultiIndexStore};
use se_core::SuccinctEdgeStore;
use se_datagen::{lubm, water};
use se_ontology::{lubm_ontology, water_ontology, Ontology};
use se_rdf::Graph;
use se_sparql::{QueryOptions, ResultSet};
use std::time::{Duration, Instant};

/// Buffer-pool frames given to the disk baseline (a small, edge-like cache).
pub const DISK_POOL_PAGES: usize = 256;

/// The five systems of the paper's §7 comparison matrix, mapped onto the
/// three architectures this reproduction implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// SuccinctEdge (this paper).
    SuccinctEdge,
    /// In-memory multi-index baseline (RDF4J / Jena-InMem analogue).
    MemoryBaseline,
    /// Disk-based baseline (Jena TDB2 / RDF4Led analogue).
    DiskBaseline,
}

impl System {
    /// Display name used in the generated tables.
    pub fn name(self) -> &'static str {
        match self {
            System::SuccinctEdge => "SuccinctEdge",
            System::MemoryBaseline => "MultiIndex (RDF4J/Jena-InMem analogue)",
            System::DiskBaseline => "DiskStore (JenaTDB/RDF4Led analogue)",
        }
    }

    /// All systems.
    pub fn all() -> [System; 3] {
        [
            System::SuccinctEdge,
            System::MemoryBaseline,
            System::DiskBaseline,
        ]
    }
}

/// The paper's datasets: water 250/500 plus LUBM subsets.
pub struct Datasets {
    /// `(label, graph)` in the paper's size order.
    pub graphs: Vec<(String, Graph)>,
    /// The full LUBM graph (queries run against this one).
    pub lubm_full: Graph,
}

/// Generates all eight datasets of §7.2.
pub fn paper_datasets() -> Datasets {
    let lubm_full = lubm::generate(1, 42);
    let mut graphs = vec![
        ("250".to_string(), water::generate(250, 7)),
        ("500".to_string(), water::generate(500, 7)),
    ];
    for &n in &[1_000usize, 5_000, 10_000, 25_000, 50_000] {
        let mut g = lubm_full.clone();
        g.truncate(n);
        graphs.push((format_size(n), g));
    }
    graphs.push(("100K".to_string(), lubm_full.clone()));
    Datasets { graphs, lubm_full }
}

fn format_size(n: usize) -> String {
    if n >= 1_000 {
        format!("{}K", n / 1_000)
    } else {
        n.to_string()
    }
}

/// The ontology matching a dataset label.
pub fn ontology_for(label: &str) -> Ontology {
    if label == "250" || label == "500" {
        water_ontology()
    } else {
        lubm_ontology()
    }
}

/// One built instance of a system under test.
pub enum BuiltSystem {
    SuccinctEdge(Box<SuccinctEdgeStore>),
    Memory(Box<MultiIndexStore>),
    Disk(Box<DiskStore>),
}

impl BuiltSystem {
    /// Builds `system` over `graph` (with `ontology` where applicable).
    pub fn build(system: System, ontology: &Ontology, graph: &Graph) -> Self {
        match system {
            System::SuccinctEdge => BuiltSystem::SuccinctEdge(Box::new(
                SuccinctEdgeStore::build(ontology, graph).expect("valid input graph"),
            )),
            System::MemoryBaseline => BuiltSystem::Memory(Box::new(MultiIndexStore::build(graph))),
            System::DiskBaseline => BuiltSystem::Disk(Box::new(
                DiskStore::build_temp(graph, DISK_POOL_PAGES).expect("temp file writable"),
            )),
        }
    }

    /// Runs a query. For reasoning queries, SuccinctEdge uses LiteMat
    /// intervals natively while the baselines execute the UNION rewriting
    /// (`rewritten`), mirroring §7.3.5.
    pub fn run(&self, text: &str, reasoning: bool, dicts: &se_litemat::Dictionaries) -> ResultSet {
        match self {
            BuiltSystem::SuccinctEdge(st) => {
                let opts = if reasoning {
                    QueryOptions::default()
                } else {
                    QueryOptions::without_reasoning()
                };
                se_sparql::execute_query(st.as_ref(), text, &opts).expect("workload query executes")
            }
            BuiltSystem::Memory(st) => {
                let q = prepared_query(text, reasoning, dicts);
                st.query(&q).expect("workload query executes")
            }
            BuiltSystem::Disk(st) => {
                let q = prepared_query(text, reasoning, dicts);
                st.query(&q).expect("workload query executes")
            }
        }
    }

    /// Cleans up disk artifacts.
    pub fn destroy(self) {
        if let BuiltSystem::Disk(st) = self {
            let _ = st.destroy();
        }
    }
}

/// Parses `text` and, for reasoning queries, applies the UNION rewriting.
pub fn prepared_query(
    text: &str,
    reasoning: bool,
    dicts: &se_litemat::Dictionaries,
) -> se_sparql::Query {
    let q = se_sparql::parse_query(text).expect("workload query parses");
    if reasoning {
        se_baselines::rewrite_with_ontology(&q, dicts)
            .expect("rewriting within branch cap")
            .0
    } else {
        q
    }
}

/// Median wall-clock duration of `runs` executions of `f`.
pub fn median_time<R>(runs: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let r = f();
            let dt = t0.elapsed();
            std::hint::black_box(r);
            dt
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Formats a duration in fractional milliseconds.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1_000.0)
}

/// Formats a byte count in KiB.
pub fn fmt_kib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_have_paper_sizes() {
        let ds = paper_datasets();
        let labels: Vec<&str> = ds.graphs.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            vec!["250", "500", "1K", "5K", "10K", "25K", "50K", "100K"]
        );
        assert_eq!(ds.graphs[0].1.len(), 250);
        assert_eq!(ds.graphs[2].1.len(), 1_000);
        assert!(ds.lubm_full.len() > 90_000);
    }

    #[test]
    fn all_systems_build_on_small_data() {
        let g = se_datagen::water::generate(250, 7);
        let onto = ontology_for("250");
        for sys in System::all() {
            let built = BuiltSystem::build(sys, &onto, &g);
            built.destroy();
        }
    }

    #[test]
    fn median_time_runs() {
        let d = median_time(5, || 1 + 1);
        assert!(d < Duration::from_secs(1));
    }
}
