//! `served_read`: `se-server` over loopback, two closed-loop `Client`
//! connections, no writes, WAL off. The store is a ≈ 50 K-triple water
//! baseline plus 16 uncompacted stream batches, so every read crosses
//! the merged baseline + overlay view. Nearly all time is socket → frame
//! decode → plan-cache lookup → frame encode; the write side is idle.
//! This is where the Nagle stall on accepted sockets shows, and where a
//! write-side layout change that taxes merged reads would show.

use crate::inputs::{digest_batches, read_mix, water_stream, ReadMix, WaterStream};
use crate::stats::{self, Digest};
use crate::stream_ingest::build_store;
use crate::trace::{self, Tracer};
use crate::{median_setup, sorted_rows, Measured, Metrics, RunArgs, RunResult, WARMUP_S};
use se_core::SuccinctEdgeStore;
use se_ontology::water_ontology;
use se_server::{protocol, Client, PreparedQuery, Server, ServerConfig, ServerStats};
use se_sparql::{execute_query_cached, PlanCache, QueryOptions, ResultSet};
use se_stream::ShardedHybridStore;
use std::net::SocketAddr;
use std::time::Instant;

/// 16 stations × a 224-round window ≈ 50 K live triples.
const STATIONS: usize = 16;
const RETAIN: usize = 224;
/// Applied after the build and left in the overlay: ≈ 7 K entries over
/// four shards, under the default 4096-per-shard compaction threshold.
const OVERLAY_BATCHES: usize = 16;
const CLIENTS: usize = 2;

/// A running in-process server; dropping it sends SHUTDOWN and joins
/// the server's threads.
pub struct Served {
    server: Option<Server>,
    pub addr: SocketAddr,
}

impl Served {
    /// `Server::start(.., "127.0.0.1:0", ServerConfig::default())`: an
    /// ephemeral port and the binary's 2 ms group-commit tick.
    pub fn start(store: ShardedHybridStore) -> Self {
        let server = Server::start(store, "127.0.0.1:0", ServerConfig::default())
            .expect("loopback port available");
        Self {
            addr: server.addr(),
            server: Some(server),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.shutdown();
        }
        if let Some(server) = self.server.take() {
            server.join();
        }
    }
}

fn dirty_store(stream: &WaterStream) -> ShardedHybridStore {
    let mut store = build_store(stream);
    for b in &stream.batches {
        store
            .apply(&b.inserts, &b.deletes)
            .expect("stream batch is valid");
    }
    if store.overlay_len() == 0 || store.stats().compactions > 0 {
        eprintln!("benchmark: served_read overlay was compacted; reads no longer cross it");
    }
    store
}

struct Setup {
    stream: WaterStream,
    mix: ReadMix,
    prepared: Vec<PreparedQuery>,
    clients: Vec<Client>,
    /// Each client's position in the schedule. It persists across the
    /// warm-up and the measured passes, so a pass continues where the
    /// last one stopped and a cold text stays unseen until its slot.
    cursors: Vec<usize>,
    // Declared after the clients: they hang up before the server stops.
    _served: Served,
}

fn setup(seed: u64) -> Setup {
    let stream = water_stream(seed, STATIONS, RETAIN, OVERLAY_BATCHES);
    let served = Served::start(dirty_store(&stream));
    let mix = read_mix(seed, &stream, STATIONS);
    let opts = QueryOptions::default();
    let prepared = mix
        .texts
        .iter()
        .map(|t| Client::prepare(t, &opts).expect("query text encodes"))
        .collect();
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(served.addr).expect("server accepts"))
        .collect();
    // Half a pass apart: the two clients never issue the same cold text
    // within one pass over the schedule.
    let cursors = (0..CLIENTS)
        .map(|k| k * mix.schedule.len() / CLIENTS)
        .collect();
    Setup {
        stream,
        mix,
        prepared,
        clients,
        cursors,
        _served: served,
    }
}

/// An identically seeded local store: the oracle for every distinct
/// text, and the in-process comparator of the traced pass.
struct Twin {
    store: ShardedHybridStore,
    cache: PlanCache,
    answers: Vec<ResultSet>,
    expected: Vec<Vec<String>>,
}

fn twin(s: &Setup) -> Twin {
    let store = dirty_store(&s.stream);
    let cache = PlanCache::new();
    let opts = QueryOptions::default();
    let answers: Vec<ResultSet> = s
        .mix
        .texts
        .iter()
        .map(|t| execute_query_cached(&store, t, &opts, &cache).expect("mix query executes"))
        .collect();
    let expected = answers.iter().map(sorted_rows).collect();
    Twin {
        store,
        cache,
        answers,
        expected,
    }
}

/// Both clients walk the schedule closed-loop for `seconds`, each from
/// its cursor. Each answer is compared row for row with the twin's,
/// after its latency is taken.
fn measure(s: &mut Setup, twin: &Twin, seconds: f64, tracer: Option<&mut Tracer>) -> Measured {
    let origin = Instant::now();
    let (schedule, prepared) = (&s.mix.schedule, &s.prepared);
    let tracing = tracer.is_some();
    let parts: Vec<(Measured, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .zip(s.cursors.iter_mut())
            .enumerate()
            .map(|(k, (client, at))| {
                scope.spawn(move || {
                    let mut m = Measured::default();
                    let mut tr = tracing.then(|| Tracer::new(origin));
                    let start = Instant::now();
                    while start.elapsed().as_secs_f64() < seconds {
                        let text = schedule[*at % schedule.len()];
                        *at += 1;
                        let op = (*at * CLIENTS + k) as u64;
                        let root = trace::enter(&mut tr, "query", op);
                        let call = trace::enter(&mut tr, "client.query_prepared", op);
                        let t = Instant::now();
                        let rows = client.query_prepared(&prepared[text]);
                        m.lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                        trace::exit(&mut tr, call);
                        match rows {
                            Ok(rows) if sorted_rows(&rows.results) == twin.expected[text] => {}
                            _ => m.failed += 1,
                        }
                        trace::exit(&mut tr, root);
                    }
                    m.wall_s = start.elapsed().as_secs_f64();
                    (m, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Measured::default();
    let mut tracer = tracer;
    for (m, tr) in parts {
        all.lat_us.extend(m.lat_us);
        all.failed += m.failed;
        all.wall_s = all.wall_s.max(m.wall_s);
        if let (Some(dst), Some(tr)) = (tracer.as_deref_mut(), tr) {
            dst.absorb(tr);
        }
    }
    all
}

pub fn run(args: RunArgs) -> RunResult {
    let (mut s, setup_s) = median_setup(|_| setup(args.seed));
    let mut digest = Digest::default();
    digest.graph(&s.stream.baseline);
    digest_batches(&mut digest, &s.stream.batches);
    for &i in &s.mix.schedule {
        digest.text(&s.mix.texts[i]);
    }
    let twin = twin(&s);
    let warm = measure(&mut s, &twin, WARMUP_S, None);
    let mut failed = warm.failed;
    let mut attempted = warm.attempted();

    let metrics = if args.trace {
        let quarter = args.seconds / 4.0;
        let plain = measure(&mut s, &twin, quarter, None);
        let stats0 = s.clients[0].stats().expect("STATS answers");
        let mut tracer = Tracer::new(Instant::now());
        let traced = measure(&mut s, &twin, quarter, Some(&mut tracer));
        let stats1 = s.clients[0].stats().expect("STATS answers");
        failed += plain.failed + traced.failed;
        attempted += plain.attempted() + traced.attempted();
        // Root span minus the wire call: the row-for-row oracle check.
        println!(
            "# harness self time per query: p50_us={:.2}",
            stats::median(&tracer.self_times_us("query"))
        );
        let mut metrics = layer_metrics(&mut s, &twin, &mut tracer, stats0, stats1);
        metrics.insert(
            "trace_overhead_share",
            (
                stats::median(&traced.lat_us) / stats::median(&plain.lat_us) - 1.0,
                traced.attempted(),
            ),
        );
        tracer.save("served_read");
        metrics
    } else {
        let m = measure(&mut s, &twin, args.seconds, None);
        failed += m.failed;
        attempted += m.attempted();
        m.end_to_end(setup_s, stats::median(&m.lat_us))
    };
    RunResult {
        attempted,
        failed,
        metrics,
        input_digest: digest.value(),
    }
}

/// How many schedule slots the in-process comparators replay: the same
/// mix the wire saw, so their medians weigh texts the same way.
const TWIN_SLOTS: usize = 1000;

fn layer_metrics(
    s: &mut Setup,
    twin: &Twin,
    tracer: &mut Tracer,
    stats0: ServerStats,
    stats1: ServerStats,
) -> Metrics {
    let wire = tracer.durations_us("client.query_prepared");
    let query_p50 = stats::median(&wire);
    let opts = QueryOptions::default();

    // The same requests with no server in between.
    let (mut exec, mut encode, mut decode) = (Vec::new(), Vec::new(), Vec::new());
    for &text in s.mix.schedule.iter().take(TWIN_SLOTS) {
        let id = tracer.enter("twin.execute_text", 0);
        let t = Instant::now();
        let rs = execute_query_cached(&twin.store, &s.mix.texts[text], &opts, &twin.cache);
        exec.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.exit(id);
        std::hint::black_box(rs.is_ok());

        // The reply as the server frames it (epoch, then the rows) and as
        // the client reads it back, on in-memory buffers.
        let id = tracer.enter("codec.encode", 0);
        let t = Instant::now();
        let mut payload = Vec::new();
        let mut frame = Vec::new();
        se_sds::WriteBin::write_u64(&mut payload, 0)
            .and_then(|()| protocol::write_result_set(&mut payload, &twin.answers[text]))
            .and_then(|()| protocol::write_frame(&mut frame, protocol::resp::ROWS, &payload))
            .expect("in-memory write");
        encode.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.exit(id);

        let id = tracer.enter("codec.decode", 0);
        let t = Instant::now();
        let (_, body) = protocol::read_frame(&mut frame.as_slice()).expect("own frame");
        let mut r = &body[8..];
        std::hint::black_box(protocol::read_result_set(&mut r).expect("own rows"));
        decode.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.exit(id);
    }
    let (exec_us, encode_us, decode_us) = (
        stats::median(&exec),
        stats::median(&encode),
        stats::median(&decode),
    );
    let dispatch = query_p50 - exec_us - encode_us - decode_us;

    // A request that does no query work: the floor under every reply.
    let rtt: Vec<f64> = (0..50)
        .map(|_| {
            let id = tracer.enter("client.stats", 0);
            let t = Instant::now();
            let _ = s.clients[0].stats();
            let us = t.elapsed().as_secs_f64() * 1e6;
            tracer.exit(id);
            us
        })
        .collect();

    // The hot texts on the dirty sharded store against a
    // SuccinctEdgeStore of the same triples: what the merged
    // baseline + overlay view costs a read.
    let flat = SuccinctEdgeStore::build(&water_ontology(), &twin.store.materialize())
        .expect("materialized graph is valid");
    let flat_cache = PlanCache::new();
    let median_of = |f: &dyn Fn() -> bool| {
        let v: Vec<f64> = (0..15)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        stats::median(&v)
    };
    let ratios: Vec<f64> = s.mix.texts[..s.mix.hot]
        .iter()
        .map(|text| {
            let dirty =
                median_of(&|| execute_query_cached(&twin.store, text, &opts, &twin.cache).is_ok());
            let clean =
                median_of(&|| execute_query_cached(&flat, text, &opts, &flat_cache).is_ok());
            dirty / clean
        })
        .collect();

    let n = wire.len() as u64;
    let hits = stats1.plan_hits - stats0.plan_hits;
    let misses = stats1.plan_misses - stats0.plan_misses;
    let compiles = stats1.plan_compiles - stats0.plan_compiles;
    Metrics::from([
        (
            "server.rtt_floor_us",
            (stats::median(&rtt), rtt.len() as u64),
        ),
        ("server.exec_twin_us", (exec_us, exec.len() as u64)),
        ("server.encode_rows_us", (encode_us, encode.len() as u64)),
        ("server.decode_rows_us", (decode_us, decode.len() as u64)),
        ("server.wire_dispatch_us", (dispatch, n)),
        ("server.wire_share", (dispatch / query_p50, n)),
        (
            "server.text_hit_ratio",
            (hits as f64 / (hits + misses).max(1) as f64, hits + misses),
        ),
        (
            "server.plan_hit_ratio",
            ((misses - compiles) as f64 / misses.max(1) as f64, misses),
        ),
        (
            "stream.overlay_read_amp",
            (stats::geomean(&ratios), ratios.len() as u64),
        ),
    ])
}
