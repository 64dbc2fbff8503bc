//! `stream_ingest`: in-process, one closed-loop thread calling
//! `StreamSession::<ShardedHybridStore>::apply_batch` back to back on a
//! sliding-window water stream, WAL attached, four continuous queries
//! registered. All time is overlay apply, WAL append/fsync, compaction
//! and continuous-query evaluation; no socket and no one-shot query path.
//! The single-thread baseline that `served_stream` is compared against.

use crate::inputs::{continuous_bgps, digest_batches, water_stream, Oracle, WaterStream};
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use crate::{median_setup, Measured, Metrics, RunArgs, RunResult, Scratch};
use se_datagen::workload::water_anomaly_query;
use se_datagen::StreamBatch;
use se_ontology::water_ontology;
use se_sparql::QueryOptions;
use se_stream::{ShardedHybridStore, StreamSession, WalConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// 14 stations: 28 observations per round, ≈ 224 inserts and 196
/// deletes per batch. A 16-round window keeps ≈ 3 K triples live.
pub const STATIONS: usize = 14;
pub const RETAIN: usize = 16;
/// The se-server binary's default.
pub const SHARDS: usize = 4;
pub const WARMUP_BATCHES: usize = 40;
/// Generated batches are the run's largest input (≈ 140 KB each); the
/// measured phase ends at this many or at `--seconds`, whichever comes
/// first. At today's ≈ 25 ms per batch ten seconds use about 400.
pub const MAX_BATCHES: usize = 1000;

pub type Session = StreamSession<ShardedHybridStore>;

/// A 4-shard store with the default `CompactionPolicy` and background
/// compaction (the se-server binary's defaults), over the full window.
pub fn build_store(stream: &WaterStream) -> ShardedHybridStore {
    ShardedHybridStore::build(&water_ontology(), &stream.baseline, SHARDS)
        .expect("water baseline is valid")
}

/// `WalConfig::default()` is `SyncPolicy::EveryBatch`: an ack is an
/// fsynced record. Fixed here and stated in BENCHMARK.json.
pub fn attach_wal(store: &mut ShardedHybridStore, dir: &Path) {
    store
        .attach_wal(dir, WalConfig::default())
        .expect("scratch directory is writable");
}

pub struct Setup {
    pub stream: WaterStream,
    pub session: Session,
    pub wal_dir: PathBuf,
}

pub fn setup(seed: u64, wal_dir: PathBuf) -> Setup {
    let stream = water_stream(seed, STATIONS, RETAIN, WARMUP_BATCHES + MAX_BATCHES);
    let mut store = build_store(&stream);
    attach_wal(&mut store, &wal_dir);
    let mut session = StreamSession::new(store);
    session
        .register_query("anomaly", &water_anomaly_query(), QueryOptions::default())
        .expect("anomaly query parses");
    for (id, text) in continuous_bgps() {
        session
            .register_query(id, &text, QueryOptions::default())
            .expect("continuous query parses");
    }
    Setup {
        stream,
        session,
        wal_dir,
    }
}

/// What the engine reported about the measured batches.
#[derive(Default)]
struct Reports {
    compacted: u64,
    stall_us: Vec<f64>,
}

fn apply(session: &mut Session, b: &StreamBatch, m: &mut Measured, r: &mut Reports) {
    let t = Instant::now();
    let outcome = session.apply_batch(&b.inserts, &b.deletes);
    m.lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    match outcome {
        Ok(o) => {
            if o.report.compacted {
                r.compacted += 1;
                r.stall_us.push(o.report.compaction.as_secs_f64() * 1e6);
            }
        }
        Err(_) => m.failed += 1,
    }
}

/// Applies `batches` back to back until `seconds` have passed; returns
/// how many were applied.
fn measure(session: &mut Session, batches: &[StreamBatch], seconds: f64) -> (Measured, Reports) {
    let mut m = Measured::default();
    let mut r = Reports::default();
    let start = Instant::now();
    for b in batches {
        apply(session, b, &mut m, &mut r);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    m.wall_s = start.elapsed().as_secs_f64();
    (m, r)
}

/// The end-of-run oracle checks: the live store's content, and the
/// content of a store reopened from disk (manifest + WAL replay), must
/// both equal a naive set replay of every batch applied. Returns
/// `(checks failed, recover_ms)`.
fn check_against_oracle(s: &Setup, applied: usize) -> (u64, f64) {
    let mut oracle = Oracle::from_graph(&s.stream.baseline);
    for b in &s.stream.batches[..applied] {
        oracle.apply(b);
    }
    let live_ok = oracle.agrees_with(&s.session.store().materialize());
    let t = Instant::now();
    let reopened = ShardedHybridStore::load(&s.wal_dir, &water_ontology());
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let reopened_ok = reopened.is_ok_and(|st| oracle.agrees_with(&st.materialize()));
    (u64::from(!live_ok) + u64::from(!reopened_ok), recover_ms)
}

fn warm_up(s: &mut Setup) -> u64 {
    let mut m = Measured::default();
    for b in &s.stream.batches[..WARMUP_BATCHES] {
        apply(&mut s.session, b, &mut m, &mut Reports::default());
    }
    m.failed
}

pub fn run(args: RunArgs) -> RunResult {
    let scratch = Scratch::new();
    let (mut s, setup_s) = median_setup(|i| setup(args.seed, scratch.dir(&format!("wal-{i}"))));
    let mut digest = Digest::default();
    digest.graph(&s.stream.baseline);
    digest_batches(&mut digest, &s.stream.batches);
    let mut failed = warm_up(&mut s);

    if args.trace {
        return traced(args, s, failed, digest.value(), &scratch);
    }
    let (m, _) = measure(
        &mut s.session,
        &s.stream.batches[WARMUP_BATCHES..],
        args.seconds,
    );
    let (bad_checks, _) = check_against_oracle(&s, WARMUP_BATCHES + m.lat_us.len());
    failed += m.failed + bad_checks;
    RunResult {
        attempted: WARMUP_BATCHES as u64 + m.attempted() + 2,
        failed,
        metrics: m.end_to_end(setup_s, stats::median(&m.lat_us)),
        input_digest: digest.value(),
    }
}

fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The traced pass. A quarter-length plain pass gives the untraced
/// median; then the same batches go, in lockstep, to three stores that
/// differ by one layer each — bare `ShardedHybridStore::apply`, the same
/// with a WAL, and the full session with WAL and continuous queries —
/// so that subtracting neighbours isolates each layer and the three
/// parts sum to the session's ack latency by construction.
fn traced(
    args: RunArgs,
    mut plain: Setup,
    mut failed: u64,
    digest: u64,
    scratch: &Scratch,
) -> RunResult {
    let quarter = args.seconds / 4.0;
    let (plain_m, _) = measure(
        &mut plain.session,
        &plain.stream.batches[WARMUP_BATCHES..],
        quarter,
    );
    failed += plain_m.failed;
    drop(plain);

    let mut s = setup(args.seed, scratch.dir("wal-traced"));
    let mut bare = build_store(&s.stream);
    let mut logged = build_store(&s.stream);
    attach_wal(&mut logged, &scratch.dir("wal-ladder"));
    failed += warm_up(&mut s);
    for b in &s.stream.batches[..WARMUP_BATCHES] {
        failed += u64::from(bare.apply(&b.inserts, &b.deletes).is_err());
        failed += u64::from(logged.apply(&b.inserts, &b.deletes).is_err());
    }

    let stats0 = s.session.store().stats();
    let cq0 = s.session.stream_stats();
    let mut tracer = Tracer::new(Instant::now());
    let mut m = Measured::default();
    let mut r = Reports::default();
    let start = Instant::now();
    for (i, b) in s.stream.batches[WARMUP_BATCHES..].iter().enumerate() {
        let op = i as u64;
        let root = tracer.enter("batch", op);
        let id = tracer.enter("stream.bare_apply", op);
        failed += u64::from(bare.apply(&b.inserts, &b.deletes).is_err());
        tracer.exit(id);
        let id = tracer.enter("stream.wal_apply", op);
        failed += u64::from(logged.apply(&b.inserts, &b.deletes).is_err());
        tracer.exit(id);
        let id = tracer.enter("stream.apply_batch", op);
        apply(&mut s.session, b, &mut m, &mut r);
        tracer.exit(id);
        tracer.exit(root);
        if i % 8 == 0 {
            let id = tracer.enter("stream.snapshot", op);
            std::hint::black_box(s.session.store().snapshot());
            tracer.exit(id);
        }
        // The ladder does about twice the work per batch; give it the
        // time for as many batches as the plain quarter pass saw.
        if start.elapsed().as_secs_f64() >= 2.0 * quarter {
            break;
        }
    }
    m.wall_s = start.elapsed().as_secs_f64();
    let batches = m.attempted();
    let stats1 = s.session.store().stats();
    let cq1 = s.session.stream_stats();
    let applied = WARMUP_BATCHES + m.lat_us.len();
    let wal_bytes = dir_bytes(&s.wal_dir, "wal-");
    let acked_ops = (stats1.total_inserted + stats1.total_deleted) as f64;
    let (bad_checks, recover_ms) = check_against_oracle(&s, applied);
    let t = Instant::now();
    let id = tracer.enter("stream.checkpoint", 0);
    failed += u64::from(s.session.store().save(&s.wal_dir).is_err());
    tracer.exit(id);
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    failed += m.failed + bad_checks;

    let p50 = |name: &str| stats::median(&tracer.durations_us(name));
    let (bare_us, logged_us, full_us) = (
        p50("stream.bare_apply"),
        p50("stream.wal_apply"),
        p50("stream.apply_batch"),
    );
    let evals = (cq1.incremental_evals - cq0.incremental_evals) + (cq1.full_evals - cq0.full_evals);
    let snapshots = tracer.durations_us("stream.snapshot");
    let metrics = Metrics::from([
        (
            "trace_overhead_share",
            (full_us / stats::median(&plain_m.lat_us) - 1.0, batches),
        ),
        ("stream.overlay_apply_us", (bare_us, batches)),
        ("stream.wal_append_us", (logged_us - bare_us, batches)),
        ("stream.cq_eval_us", (full_us - logged_us, batches)),
        ("stream.ladder_sum_us", (full_us, batches)),
        (
            "stream.compaction_share",
            (r.compacted as f64 / batches as f64, batches),
        ),
        (
            "stream.compaction_stall_us",
            (
                r.stall_us.iter().sum::<f64>() / r.stall_us.len().max(1) as f64,
                r.compacted,
            ),
        ),
        (
            "stream.compactions",
            ((stats1.compactions - stats0.compactions) as f64, batches),
        ),
        (
            "stream.background_compactions",
            (
                (stats1.background_compactions - stats0.background_compactions) as f64,
                batches,
            ),
        ),
        (
            "stream.cq_incremental_share",
            (
                (cq1.incremental_evals - cq0.incremental_evals) as f64 / evals.max(1) as f64,
                evals,
            ),
        ),
        (
            "stream.wal_bytes_per_triple",
            (wal_bytes as f64 / acked_ops.max(1.0), acked_ops as u64),
        ),
        ("stream.checkpoint_ms", (checkpoint_ms, 1)),
        ("stream.recover_ms", (recover_ms, applied as u64)),
        (
            "stream.snapshot_us",
            (stats::median(&snapshots), snapshots.len() as u64),
        ),
    ]);
    tracer.save("stream_ingest");
    RunResult {
        attempted: 2 * WARMUP_BATCHES as u64 + plain_m.attempted() + batches + 2,
        failed,
        metrics,
        input_digest: digest,
    }
}
