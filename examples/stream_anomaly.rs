//! The paper's §2 anomaly scenario, streaming edition.
//!
//! `water_anomaly.rs` follows the paper's execution model: one fresh
//! SuccinctEdge store per graph instance, the continuous query runs once
//! per instance. This example runs the same pipeline through `se-stream`
//! twice:
//!
//! 1. the single-store configuration — a long-lived 1-shard
//!    [`ShardedHybridStore`] — and
//! 2. three predicate shards, each compacted on its own — behind the
//!    same [`StreamSession`] API.
//!
//! Both compact inline, inside the batch that crosses the threshold.
//! Both ingest the same measurement batches (with a sliding retention
//! window deleting expired observations), evaluate the same registered
//! anomaly query per batch, and must raise identical alerts; each run
//! reports its apply-latency tail.
//!
//! A third run demonstrates **v02 recovery**: the sharded session is
//! killed mid-stream (checkpointed with the O(delta) `save` — no
//! compaction — and dropped), resumed from the sharded manifest, and must
//! raise the *identical alert sequence* as the uninterrupted run.
//!
//! ```text
//! cargo run --example stream_anomaly
//! ```

use succinct_edge::datagen::water::{generate_stream, StreamBatch, WaterConfig};
use succinct_edge::datagen::workload::water_anomaly_query;
use succinct_edge::ontology::water_ontology;
use succinct_edge::rdf::Graph;
use succinct_edge::sparql::QueryOptions;
use succinct_edge::store::TripleSource;
use succinct_edge::stream::{CompactionPolicy, ShardedHybridStore, StreamSession, StreamStore};

/// Registers the §2 anomaly query on a session.
fn register<S: StreamStore>(session: &mut StreamSession<S>) {
    session
        .register_query(
            "water-anomaly",
            &water_anomaly_query(),
            QueryOptions::default(),
        )
        .expect("workload query parses");
}

/// Streams `batches` through one engine, printing a per-batch line
/// (`extra` appends engine-specific columns) and each alert. `tick0`
/// offsets the printed batch numbers for resumed runs. Returns the
/// per-batch alert rows (sorted — the comparable alert sequence) and the
/// per-batch apply latencies in milliseconds.
fn drive<S: StreamStore>(
    label: &str,
    session: &mut StreamSession<S>,
    batches: &[StreamBatch],
    tick0: usize,
    extra: impl Fn(&S) -> String,
) -> (Vec<Vec<String>>, Vec<f64>) {
    let mut alert_rows = Vec::with_capacity(batches.len());
    let mut latencies_ms = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        let tick = tick0 + i;
        let t0 = std::time::Instant::now();
        let outcome = session
            .apply_batch(&batch.inserts, &batch.deletes)
            .expect("batch applies");
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        latencies_ms.push(dt);
        let alerts = &outcome.results[0].results;
        println!(
            "{label} batch {tick:2}: +{:<3} -{:<3} | store {:5} triples{} | {dt:>8.3} ms | {} alert(s){}",
            outcome.report.inserted,
            outcome.report.deleted,
            session.store().len(),
            extra(session.store()),
            alerts.len(),
            if outcome.report.compacted { "  [compacted]" } else { "" },
        );
        for row in &alerts.rows {
            let station = row[0].as_ref().map_or("?", |t| t.str_value());
            let value = row[3].as_ref().map_or("?", |t| t.str_value());
            println!("    ALERT station={station} rawValue={value}");
        }
        let mut rows: Vec<String> = alerts.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        alert_rows.push(rows);
    }
    (alert_rows, latencies_ms)
}

fn p99(latencies: &[f64]) -> f64 {
    let mut v = latencies.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[((v.len() - 1) as f64 * 0.99).round() as usize]
}

fn main() {
    let onto = water_ontology();
    let cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.25,
        seed: 42,
    };
    let batches = generate_stream(&cfg, 20, 4);
    let policy = CompactionPolicy { max_overlay: 160 };
    println!(
        "continuous query registered once:\n{}\n",
        water_anomaly_query()
    );

    // ---- engine 1: one shard ------------------------------------------------
    let store = ShardedHybridStore::build(&onto, &Graph::new(), 1)
        .expect("empty baseline builds")
        .with_policy(policy);
    let mut single = StreamSession::new(store);
    register(&mut single);
    let (rows_single, lat_single) = drive("single ", &mut single, &batches, 0, |_| String::new());
    let alerts_single: usize = rows_single.iter().map(Vec::len).sum();
    let len_single = single.store().len();

    // ---- engine 2: three shards ---------------------------------------------
    println!();
    let build_sharded = || {
        ShardedHybridStore::build(&onto, &Graph::new(), 3)
            .expect("empty sharded baseline builds")
            .with_policy(policy)
    };
    let sharded_extra = |s: &ShardedHybridStore| format!(" | overlay {:3}", s.overlay_len());
    let mut session = StreamSession::new(build_sharded());
    register(&mut session);
    let (rows_sharded, lat_sharded) = drive("sharded", &mut session, &batches, 0, sharded_extra);
    let alerts_sharded: usize = rows_sharded.iter().map(Vec::len).sum();
    let len_sharded = session.store().len();

    // ---- engine 3: kill mid-stream, recover from the v02 manifest ----------
    println!();
    let ckpt = std::env::temp_dir().join(format!("se-anomaly-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let restart_at = batches.len() / 2;
    let mut doomed = StreamSession::new(build_sharded());
    register(&mut doomed);
    let (rows_before, _) = drive(
        "recover",
        &mut doomed,
        &batches[..restart_at],
        0,
        sharded_extra,
    );
    let dirty_overlay = doomed.store().overlay_len();
    let report = doomed.save(&ckpt).expect("checkpoint writes");
    println!(
        "recover checkpoint @ batch {restart_at}: overlay {dirty_overlay} entries captured raw \
         (no compaction), {} baseline file(s) + {} delta bytes written",
        report.baseline_files_written, report.delta_bytes,
    );
    drop(doomed); // the "kill": in-memory state is gone
    let reloaded = ShardedHybridStore::load(&ckpt, &onto).expect("manifest loads");
    let mut recovered = StreamSession::resume_with_store(&ckpt, reloaded).expect("session resumes");
    println!(
        "recover restart: {} triples, {} continuous query re-registered from session.v02",
        recovered.store().len(),
        recovered.registry().len(),
    );
    let (rows_after, _) = drive(
        "recover",
        &mut recovered,
        &batches[restart_at..],
        restart_at,
        sharded_extra,
    );
    let rows_recovered: Vec<Vec<String>> = rows_before.into_iter().chain(rows_after).collect();
    assert_eq!(
        rows_recovered, rows_sharded,
        "the recovered session must raise the identical alert sequence"
    );
    let len_recovered = recovered.store().len();
    let _ = std::fs::remove_dir_all(&ckpt);

    let stats = session.store().stats();
    println!(
        "\nsingle : {alerts_single} alerts | {len_single} triples | p99 apply {:.3} ms",
        p99(&lat_single)
    );
    println!(
        "sharded: {alerts_sharded} alerts | {len_sharded} triples | p99 apply {:.3} ms | {} compactions across {} shards",
        p99(&lat_sharded),
        stats.compactions,
        session.store().shard_count(),
    );
    println!(
        "recover: killed after batch {restart_at}, resumed from the sharded \
         manifest — identical alert sequence, {len_recovered} triples"
    );
    assert_eq!(
        alerts_single, alerts_sharded,
        "engines must agree on alerts"
    );
    assert_eq!(len_single, len_sharded, "engines must agree on the store");
    assert_eq!(
        len_single, len_recovered,
        "recovery must agree on the store"
    );
    println!(
        "note: both configurations raise identical alerts — the sliding window \
         retires old observations, both differently-annotated stations keep \
         being caught by the single reasoning-enabled query (§2), and a \
         mid-stream kill + v02 reload reproduces the alert stream exactly."
    );
}
