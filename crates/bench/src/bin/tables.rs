//! Regenerates every table and figure of the paper's evaluation (§7.3) and
//! writes the results to `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p se-bench --release --bin tables            # everything
//! cargo run -p se-bench --release --bin tables -- --fast  # smaller medians
//! ```
//!
//! Experiments:
//!   Fig 8  — back-end construction time vs dataset size
//!   Fig 9  — dictionary size (persisted)
//!   Fig 10 — triple-storage size without dictionary (persisted)
//!   Fig 11 — RAM footprint of the in-memory systems
//!   Tab 1  — S,P,?o single-TP latency (S1–S5)
//!   Tab 2  — ?s,P,O single-TP latency (S6–S10)
//!   Fig 12 — ?s,P,?o single-TP latency (S11–S15)
//!   Fig 13 — multi-TP BGP latency (M1–M5)
//!   Fig 14 — RDFS-reasoning latency (R1–R6)
//!   Tab 3  — workload summary

use se_baselines::{DiskStore, MultiIndexStore};
use se_bench::{
    fmt_kib, fmt_ms, median_time, ontology_for, paper_datasets, prepared_query, BuiltSystem,
    System, DISK_POOL_PAGES,
};
use se_core::SuccinctEdgeStore;
use se_datagen::workload;
use se_ontology::lubm_ontology;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let query_runs = if fast { 3 } else { 7 };
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# EXPERIMENTS — paper vs measured\n\n\
         Reproduction of every table and figure of *Knowledge Graph Management on the\n\
         Edge* (EDBT 2021), §7. Absolute numbers differ from the paper (host machine\n\
         vs Raspberry Pi 3B+, reimplemented baselines vs JVM systems); the **shapes**\n\
         — who wins, by what factor, where crossovers fall — are the reproduction\n\
         target. Regenerate with `cargo run -p se-bench --release --bin tables`.\n"
    );

    eprintln!("generating datasets…");
    let ds = paper_datasets();

    construction_and_sizes(&mut report, &ds, fast);
    query_experiments(&mut report, &ds, query_runs);
    table3(&mut report, &ds);

    let path = std::path::Path::new("EXPERIMENTS.md");
    std::fs::write(path, &report).expect("EXPERIMENTS.md writable");
    eprintln!("wrote {}", path.display());
    println!("{report}");
}

// ---------------------------------------------------------------- Figs 8-11

fn construction_and_sizes(report: &mut String, ds: &se_bench::Datasets, fast: bool) {
    eprintln!("Figure 8–11: construction and sizes…");
    let mut fig8: Vec<Vec<String>> = Vec::new();
    let mut fig9: Vec<Vec<String>> = Vec::new();
    let mut fig10: Vec<Vec<String>> = Vec::new();
    let mut fig11: Vec<Vec<String>> = Vec::new();
    for (label, graph) in &ds.graphs {
        eprintln!("  dataset {label} ({} triples)", graph.len());
        let onto = ontology_for(label);
        let runs = if fast || graph.len() >= 50_000 { 1 } else { 3 };

        let t_se = median_time(runs, || {
            SuccinctEdgeStore::build(&onto, graph).expect("builds")
        });
        let t_mem = median_time(runs, || MultiIndexStore::build(graph));
        let t_disk = median_time(runs, || {
            let st = DiskStore::build_temp(graph, DISK_POOL_PAGES).expect("builds");
            st.destroy().expect("cleanup");
        });
        fig8.push(vec![
            label.clone(),
            fmt_ms(t_se),
            fmt_ms(t_mem),
            fmt_ms(t_disk),
        ]);

        let se = SuccinctEdgeStore::build(&onto, graph).expect("builds");
        let mem = MultiIndexStore::build(graph);
        let disk = DiskStore::build_temp(graph, DISK_POOL_PAGES).expect("builds");
        fig9.push(vec![
            label.clone(),
            fmt_kib(se.dictionary_serialized_size()),
            fmt_kib(mem.dictionary().serialized_size()),
            fmt_kib(disk.dictionary().serialized_size()),
        ]);
        fig10.push(vec![
            label.clone(),
            fmt_kib(se.triple_serialized_size()),
            fmt_kib(mem.triple_serialized_size()),
            fmt_kib(disk.triple_serialized_size()),
        ]);
        fig11.push(vec![
            label.clone(),
            fmt_kib(se.memory_footprint()),
            fmt_kib(mem.memory_footprint()),
        ]);
        disk.destroy().expect("cleanup");
    }
    push_table(
        report,
        "Figure 8 — back-end construction time (ms)",
        &["dataset", "SuccinctEdge", "MultiIndex(mem)", "DiskStore"],
        &fig8,
        "Paper shape: SuccinctEdge shows no advantage below ~1K triples but wins \
         increasingly as datasets grow (disk baselines pay per-page writes).",
    );
    push_table(
        report,
        "Figure 9 — dictionary size persisted to disk (KiB)",
        &["dataset", "SuccinctEdge", "MultiIndex(mem)", "DiskStore"],
        &fig9,
        "Paper shape: SuccinctEdge's dictionary is the smallest (about half of \
         RDF4Led's) because literals never enter the instance dictionary; the \
         baselines' full node tables are the largest.",
    );
    push_table(
        report,
        "Figure 10 — triple storage size without dictionary (KiB)",
        &["dataset", "SuccinctEdge", "MultiIndex(mem)", "DiskStore"],
        &fig10,
        "Paper shape: the SDS single index is much smaller than any multi-index \
         layout (3 permutations) and than page-granular disk storage.",
    );
    push_table(
        report,
        "Figure 11 — RAM footprint of the in-memory systems (KiB)",
        &["dataset", "SuccinctEdge", "MultiIndex(mem)"],
        &fig11,
        "Paper shape: the gap widens with data size — \"as the amount of data \
         grows, SuccinctEdge gradually shows its strength in saving memory space\".",
    );
}

// ------------------------------------------------------- Tables 1-2, Figs 12-14

fn query_experiments(report: &mut String, ds: &se_bench::Datasets, runs: usize) {
    eprintln!("query experiments on LUBM 100K…");
    let graph = &ds.lubm_full;
    let onto = lubm_ontology();
    let dicts = onto.encode().expect("encodes");
    eprintln!("  building systems…");
    let se = BuiltSystem::build(System::SuccinctEdge, &onto, graph);
    let mem = BuiltSystem::build(System::MemoryBaseline, &onto, graph);
    let disk = BuiltSystem::build(System::DiskBaseline, &onto, graph);
    let systems: [(&BuiltSystem, &str); 3] = [
        (&se, "SuccinctEdge"),
        (&mem, "MultiIndex(mem)"),
        (&disk, "DiskStore"),
    ];

    let groups: [(&str, &str, Vec<workload::WorkloadQuery>, &str); 5] = [
        (
            "Table 1 — single S,P,?o triple pattern (ms)",
            "S1–S5",
            workload::spo_queries(graph),
            "Paper shape: SuccinctEdge wins at every selectivity, up to an order of \
             magnitude on the most selective queries; the in-memory multi-index \
             closes in only on the largest answer sets.",
        ),
        (
            "Table 2 — single ?s,P,O triple pattern (ms)",
            "S6–S10",
            workload::po_queries(graph),
            "Paper shape: same trend as Table 1; the PSO layout makes ?s,P,O \
             slightly costlier than S,P,?o for SuccinctEdge, as §5.1 predicts.",
        ),
        (
            "Figure 12 — single ?s,P,?o triple pattern (ms)",
            "S11–S15",
            workload::p_queries(),
            "Paper shape: SuccinctEdge outperforms the disk systems everywhere and \
             the in-memory systems up to large answer sets, where they converge.",
        ),
        (
            "Figure 13 — multiple triple patterns / joins (ms)",
            "M1–M5",
            workload::m_queries(graph),
            "Paper shape: SuccinctEdge and the best baseline trade wins; the disk \
             store always loses. A single-index system staying level with \
             multi-index systems is the paper's bar for success here.",
        ),
        (
            "Figure 14 — queries with RDFS reasoning (ms)",
            "R1–R6",
            workload::r_queries(graph),
            "Paper shape: the more entailments, the bigger SuccinctEdge's lead — \
             LiteMat intervals vs the baselines' UNION rewriting (whose branch \
             count is listed). RDF4Led has no UNION support at all (no column).",
        ),
    ];

    for (title, ids, queries, note) in groups {
        eprintln!("  {ids}…");
        let mut rows = Vec::new();
        for wq in &queries {
            let mut row = vec![wq.id.clone()];
            let mut cardinality = 0usize;
            for (sys, _) in &systems {
                let t = median_time(runs, || sys.run(&wq.text, wq.reasoning, &dicts));
                let rs = sys.run(&wq.text, wq.reasoning, &dicts);
                cardinality = rs.len();
                row.push(fmt_ms(t));
            }
            let branches = if wq.reasoning {
                let (_, n) = se_baselines::rewrite_with_ontology(
                    &se_sparql::parse_query(&wq.text).expect("parses"),
                    &dicts,
                )
                .expect("rewrites");
                n.to_string()
            } else {
                "-".to_string()
            };
            row.insert(1, cardinality.to_string());
            row.push(branches);
            rows.push(row);
        }
        push_table(
            report,
            title,
            &[
                "query",
                "answers",
                "SuccinctEdge",
                "MultiIndex(mem)",
                "DiskStore",
                "UNION branches",
            ],
            &rows,
            note,
        );
    }

    // Cross-system agreement check, reported for transparency.
    eprintln!("  verifying answer-set agreement…");
    let mut agreed = 0usize;
    let mut total = 0usize;
    for wq in workload::full_workload(graph) {
        total += 1;
        let a = normalize(&se.run(&wq.text, wq.reasoning, &dicts));
        let b = normalize(&mem.run(&wq.text, wq.reasoning, &dicts));
        if a == b {
            agreed += 1;
        } else {
            eprintln!("    MISMATCH on {} ({} vs {})", wq.id, a.len(), b.len());
        }
    }
    let _ = writeln!(
        report,
        "\nAnswer-set agreement between SuccinctEdge (LiteMat) and the multi-index \
         baseline (UNION rewriting): **{agreed}/{total}** workload queries.\n"
    );

    disk.destroy();
    se.destroy();
    mem.destroy();
    let _ = prepared_query; // referenced for docs
}

fn normalize(rs: &se_sparql::ResultSet) -> Vec<String> {
    let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

// ------------------------------------------------------------------- Table 3

fn table3(report: &mut String, ds: &se_bench::Datasets) {
    let graph = &ds.lubm_full;
    let mut rows = Vec::new();
    for wq in workload::full_workload(graph) {
        let q = se_sparql::parse_query(&wq.text).expect("parses");
        let group = &q.groups[0];
        let n_tp = group.patterns.len();
        let mut joins = 0usize;
        let mut join_types = std::collections::BTreeSet::new();
        for i in 0..n_tp {
            for j in i + 1..n_tp {
                if let Some(jt) =
                    se_sparql::optimizer::join_type(&group.patterns[i], &group.patterns[j])
                {
                    joins += 1;
                    join_types.insert(format!("{jt:?}"));
                }
            }
        }
        rows.push(vec![
            wq.id.clone(),
            n_tp.to_string(),
            joins.to_string(),
            if join_types.is_empty() {
                "-".to_string()
            } else {
                join_types.into_iter().collect::<Vec<_>>().join(",")
            },
            if wq.reasoning { "Co/Pr" } else { "-" }.to_string(),
            wq.paper_cardinality
                .map_or("-".to_string(), |c| c.to_string()),
        ]);
    }
    push_table(
        report,
        "Table 3 — query summary",
        &[
            "query",
            "TPs",
            "joins",
            "join types",
            "reasoning",
            "paper cardinality",
        ],
        &rows,
        "Static summary of the reconstructed workload (paper Table 3). Join counts \
         are pairwise shared-variable edges of the query graph.",
    );
}

// -------------------------------------------------------------------- output

fn push_table(report: &mut String, title: &str, header: &[&str], rows: &[Vec<String>], note: &str) {
    let t0 = Instant::now();
    let _ = writeln!(report, "\n## {title}\n");
    let _ = writeln!(report, "| {} |", header.join(" | "));
    let _ = writeln!(
        report,
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(report, "| {} |", row.join(" | "));
    }
    let _ = writeln!(report, "\n{note}\n");
    let _ = t0;
}
