//! `served_stream`: `se-server` over loopback with a WAL attached.
//! Connection A is one closed-loop writer (`Client::ingest`, one stream
//! batch per request: a gateway waiting for its durable ack); connection
//! B is subscribed to the §2 anomaly query and only reads pushes. The
//! batches are `stream_ingest`'s, so the same write layers are reached
//! through queue → group-commit tick → snapshot publish → push
//! encode/write, which separates what the server adds from what the
//! store costs.

use crate::inputs::{digest_batches, water_stream, Oracle, WaterStream};
use crate::served_read::Served;
use crate::stats::{self, Digest};
use crate::stream_ingest::{
    attach_wal, build_store, MAX_BATCHES, RETAIN, STATIONS, WARMUP_BATCHES,
};
use crate::trace::{self, Tracer};
use crate::{median_setup, Measured, Metrics, RunArgs, RunResult, Scratch};
use se_datagen::workload::water_anomaly_query;
use se_datagen::StreamBatch;
use se_server::Client;
use se_sparql::QueryOptions;
use se_stream::StreamSession;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SUBSCRIPTION: &str = "anomaly";
/// Served warm-up is shorter than `stream_ingest`'s: every batch waits
/// out the tick and the wire on top of the apply.
const SERVED_WARMUP: usize = WARMUP_BATCHES / 4;

/// The workload's two connections.
struct Clients {
    writer: Client,
    subscriber: Client,
}

struct Setup {
    stream: WaterStream,
    clients: Clients,
    // After the clients: they hang up before the server stops.
    _served: Served,
}

/// Store build, WAL attach, server start, and the subscription seeded:
/// the first batch is ingested and its initial full push received.
fn setup(seed: u64, wal_dir: PathBuf) -> Setup {
    let stream = water_stream(seed, STATIONS, RETAIN, WARMUP_BATCHES + MAX_BATCHES);
    let mut store = build_store(&stream);
    attach_wal(&mut store, &wal_dir);
    let served = Served::start(store);
    let mut writer = Client::connect(served.addr).expect("server accepts");
    let mut subscriber = Client::connect(served.addr).expect("server accepts");
    subscriber
        .subscribe(
            SUBSCRIPTION,
            &water_anomaly_query(),
            &QueryOptions::default(),
        )
        .expect("anomaly query registers");
    let first = &stream.batches[0];
    writer
        .ingest(&first.inserts, &first.deletes)
        .expect("first batch acks");
    let initial = subscriber.next_push().expect("initial push arrives");
    assert!(
        initial.initial,
        "a subscription's first push is its full frame"
    );
    Setup {
        stream,
        clients: Clients { writer, subscriber },
        _served: served,
    }
}

/// One acked batch as the writer saw it.
struct Acked {
    sent: Instant,
    acked: Instant,
    epoch: u64,
    coalesced: u32,
}

/// What both connections saw of a run of batches.
struct Observed {
    m: Measured,
    acks: Vec<Acked>,
    /// `(epoch, when its push was received)`.
    pushes: Vec<(u64, Instant)>,
}

/// The writer ingests `batches` closed-loop for `seconds` while the
/// subscriber reads pushes until the writer is done and the line is
/// quiet. `next_epoch` is the epoch the first ack must carry.
fn measure(
    clients: &mut Clients,
    batches: &[StreamBatch],
    seconds: f64,
    next_epoch: u64,
    tracer: Option<&mut Tracer>,
) -> Observed {
    let origin = Instant::now();
    let done = AtomicBool::new(false);
    let tracing = tracer.is_some();
    let Clients { writer, subscriber } = clients;
    let (mut m, acks, writer_trace, pushes, push_trace, push_errors) =
        std::thread::scope(|scope| {
            let done = &done;
            let write = scope.spawn(move || {
                let mut m = Measured::default();
                let mut acks = Vec::new();
                let mut tr = tracing.then(|| Tracer::new(origin));
                let start = Instant::now();
                for (i, b) in batches.iter().enumerate() {
                    let op = next_epoch + i as u64;
                    let root = trace::enter(&mut tr, "ingest", op);
                    let call = trace::enter(&mut tr, "client.ingest", op);
                    let sent = Instant::now();
                    let ack = writer.ingest(&b.inserts, &b.deletes);
                    let acked = Instant::now();
                    trace::exit(&mut tr, call);
                    m.lat_us.push((acked - sent).as_secs_f64() * 1e6);
                    match ack {
                        Ok(a) => {
                            acks.push(Acked {
                                sent,
                                acked,
                                epoch: a.epoch,
                                coalesced: a.coalesced,
                            });
                        }
                        Err(_) => m.failed += 1,
                    }
                    trace::exit(&mut tr, root);
                    if start.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                }
                m.wall_s = start.elapsed().as_secs_f64();
                done.store(true, Ordering::Release);
                (m, acks, tr)
            });
            let read = scope.spawn(move || {
                let mut pushes = Vec::new();
                let mut errors = 0u64;
                let mut tr = tracing.then(|| Tracer::new(origin));
                subscriber.set_read_timeout(Some(Duration::from_millis(250)));
                loop {
                    let waiting_since = Instant::now();
                    match subscriber.next_push() {
                        Ok(p) => {
                            let at = Instant::now();
                            if let Some(tr) = tr.as_mut() {
                                tr.record("push", p.epoch, waiting_since, at);
                            }
                            pushes.push((p.epoch, at));
                        }
                        // Quiet for a whole timeout after the last ack:
                        // nothing is in flight any more.
                        Err(e) if Client::is_timeout(&e) => {
                            if done.load(Ordering::Acquire) {
                                break;
                            }
                        }
                        Err(_) => {
                            errors += 1;
                            break;
                        }
                    }
                }
                subscriber.set_read_timeout(None);
                (pushes, tr, errors)
            });
            let (m, acks, writer_trace) = write.join().expect("writer thread");
            let (pushes, push_trace, push_errors) = read.join().expect("subscriber thread");
            (m, acks, writer_trace, pushes, push_trace, push_errors)
        });
    m.failed += push_errors;
    if let Some(dst) = tracer {
        dst.absorb(writer_trace.expect("tracing"));
        dst.absorb(push_trace.expect("tracing"));
        dst.link_by_op("push", "ingest");
    }
    Observed { m, acks, pushes }
}

/// The in-process twin: the same store, the same query, the same
/// batches, no server. It says which epochs change the anomaly answer
/// (each must have produced exactly one push) and, with a WAL of its
/// own, what an ack costs before the server adds anything.
struct TwinRun {
    /// Epochs after whose batch the anomaly answer differed.
    changed_epochs: Vec<u64>,
    ack_us: Vec<f64>,
    triples: usize,
}

fn twin_run(stream: &WaterStream, applied: usize, wal_dir: Option<&Path>) -> TwinRun {
    let mut store = build_store(stream);
    if let Some(dir) = wal_dir {
        attach_wal(&mut store, dir);
    }
    let mut session = StreamSession::new(store);
    session
        .register_query(
            SUBSCRIPTION,
            &water_anomaly_query(),
            QueryOptions::default(),
        )
        .expect("anomaly query parses");
    let mut oracle = Oracle::from_graph(&stream.baseline);
    let mut changed_epochs = Vec::new();
    let mut ack_us = Vec::new();
    for (i, b) in stream.batches[..applied].iter().enumerate() {
        let t = Instant::now();
        let outcome = session
            .apply_batch(&b.inserts, &b.deletes)
            .expect("stream batch is valid");
        ack_us.push(t.elapsed().as_secs_f64() * 1e6);
        // Batch 0 seeds the subscription (its push is the initial frame).
        if i > 0 && !outcome.results[0].unchanged() {
            changed_epochs.push(i as u64 + 1);
        }
        oracle.apply(b);
    }
    TwinRun {
        changed_epochs,
        ack_us,
        triples: oracle.0.len(),
    }
}

/// Epochs must be consecutive, every answer-changing epoch must have
/// produced exactly one push and no other epoch any, and the server's
/// final triple count must equal the oracle's. Returns violations.
fn check(clients: &mut Clients, seen: &[&Observed], twin: &TwinRun) -> u64 {
    let mut bad = 0u64;
    let mut epoch = 1; // the setup's seeding batch
    let mut pushes: BTreeMap<u64, u64> = BTreeMap::new();
    for o in seen {
        for a in &o.acks {
            epoch += 1;
            bad += u64::from(a.epoch != epoch);
        }
        for (e, _) in &o.pushes {
            *pushes.entry(*e).or_default() += 1;
        }
    }
    for e in &twin.changed_epochs {
        bad += u64::from(pushes.remove(e) != Some(1));
    }
    bad += pushes.len() as u64;
    let triples = clients.writer.stats().map(|st| st.triples);
    bad + u64::from(!triples.is_ok_and(|t| t == twin.triples as u64))
}

pub fn run(args: RunArgs) -> RunResult {
    let scratch = Scratch::new();
    let (s, setup_s) = median_setup(|i| setup(args.seed, scratch.dir(&format!("wal-{i}"))));
    let Setup {
        stream,
        mut clients,
        _served,
    } = s;
    let mut digest = Digest::default();
    digest.graph(&stream.baseline);
    digest_batches(&mut digest, &stream.batches);
    let batches = &stream.batches;

    let warm = measure(&mut clients, &batches[1..=SERVED_WARMUP], f64::MAX, 2, None);
    let mut next = 1 + SERVED_WARMUP;
    let mut failed = warm.m.failed;
    let mut attempted = 1 + warm.m.attempted();

    let metrics = if args.trace {
        let quarter = args.seconds / 4.0;
        let plain = measure(
            &mut clients,
            &batches[next..],
            quarter,
            next as u64 + 1,
            None,
        );
        next += plain.acks.len();
        let mut tracer = Tracer::new(Instant::now());
        let traced = measure(
            &mut clients,
            &batches[next..],
            quarter,
            next as u64 + 1,
            Some(&mut tracer),
        );
        next += traced.acks.len();
        let twin = twin_run(&stream, next, Some(&scratch.dir("wal-twin")));
        failed += plain.m.failed
            + traced.m.failed
            + check(&mut clients, &[&warm, &plain, &traced], &twin);
        attempted += plain.m.attempted() + traced.m.attempted() + 1;
        let mut metrics = layer_metrics(&traced, &twin);
        metrics.insert(
            "trace_overhead_share",
            (
                stats::median(&traced.m.lat_us) / stats::median(&plain.m.lat_us) - 1.0,
                traced.m.attempted(),
            ),
        );
        tracer.save("served_stream");
        metrics
    } else {
        let o = measure(
            &mut clients,
            &batches[next..],
            args.seconds,
            next as u64 + 1,
            None,
        );
        next += o.acks.len();
        let twin = twin_run(&stream, next, None);
        failed += o.m.failed + check(&mut clients, &[&warm, &o], &twin);
        attempted += o.m.attempted() + 1;
        o.m.end_to_end(setup_s, stats::median(&o.m.lat_us))
    };
    RunResult {
        attempted,
        failed,
        metrics,
        input_digest: digest.value(),
    }
}

/// A pass in which no batch changed the anomaly answer has no pushes.
fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

fn layer_metrics(o: &Observed, twin: &TwinRun) -> Metrics {
    let n = o.acks.len() as u64;
    let ack_p50 = stats::median(&o.m.lat_us);
    // The twin's acks for the very batches the traced pass sent.
    let first = (o.acks[0].epoch - 1) as usize;
    let twin_acks = &twin.ack_us[first..first + o.acks.len()];
    let twin_p50 = stats::median(twin_acks);

    let by_epoch: BTreeMap<u64, &Acked> = o.acks.iter().map(|a| (a.epoch, a)).collect();
    let (mut lag, mut after_ack) = (Vec::new(), Vec::new());
    for (epoch, at) in &o.pushes {
        if let Some(a) = by_epoch.get(epoch) {
            lag.push((*at - a.sent).as_secs_f64() * 1e6);
            // Negative when the push overtakes the ack on the wire.
            let d = if *at >= a.acked {
                (*at - a.acked).as_secs_f64()
            } else {
                -(a.acked - *at).as_secs_f64()
            };
            after_ack.push(d * 1e6);
        }
    }
    let pushes = lag.len() as u64;
    let ticks = (o.acks[o.acks.len() - 1].epoch - o.acks[0].epoch + 1) as f64;
    Metrics::from([
        ("server.ack_twin_us", (twin_p50, n)),
        ("server.tick_wait_us", (ack_p50 - twin_p50, n)),
        (
            "server.coalesced_per_tick",
            (
                o.acks.iter().map(|a| f64::from(a.coalesced)).sum::<f64>() / n as f64,
                n,
            ),
        ),
        ("server.ticks_per_s", (ticks / o.m.wall_s, n)),
        ("server.push_lag_us", (median_or_zero(&lag), pushes)),
        (
            "server.push_after_ack_us",
            (median_or_zero(&after_ack), pushes),
        ),
        ("server.pushes_per_batch", (pushes as f64 / n as f64, n)),
    ])
}
