//! End-to-end server round trip: concurrent clients ingesting, point
//! querying and subscribing over TCP, checked against a single-threaded
//! replay on a local store.

use se_datagen::water::{generate_stream, WaterConfig};
use se_datagen::workload::water_anomaly_query;
use se_ontology::water_ontology;
use se_rdf::{Graph, Term, Triple};
use se_sds::WriteBin;
use se_server::protocol as proto;
use se_server::server::SINK_WRITE_TIMEOUT;
use se_server::{Client, Server, ServerConfig};
use se_sparql::{QueryOptions, ResultSet};
use se_stream::fault::{self, FaultMode};
use se_stream::{ShardedHybridStore, StreamSession, WalConfig};
use std::io::Read;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("se-server-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn normalize(rs: &ResultSet) -> Vec<String> {
    let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

fn iri(s: String) -> Term {
    Term::iri(s)
}

/// Client `k`'s disjoint partition: `n` triples over its own predicate,
/// so concurrent ingest commutes and the final state is replay-equal.
fn partition_batch(k: usize, batch: usize, per_batch: usize) -> Graph {
    Graph::from_triples((0..per_batch).map(|j| {
        let i = batch * per_batch + j;
        Triple::new(
            iri(format!("http://x/s{k}_{i}")),
            iri(format!("http://x/p{k}")),
            iri(format!("http://x/o{k}_{i}")),
        )
    }))
}

fn partition_query(k: usize) -> String {
    format!("SELECT ?s ?o WHERE {{ ?s <http://x/p{k}> ?o }}")
}

const WRITERS: usize = 4;
const BATCHES_PER_WRITER: usize = 6;
const PER_BATCH: usize = 5;

#[test]
fn concurrent_clients_agree_with_single_threaded_replay() {
    let ontology = water_ontology();
    let store = ShardedHybridStore::build(&ontology, &Graph::new(), 4).unwrap();
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();
    let opts = QueryOptions::default();

    // ---- Phase A: 4 writers ingest disjoint partitions concurrently,
    // while a reader hammers point queries against snapshots.
    let reader = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let opts = QueryOptions::default();
        let mut last_epoch = 0;
        let mut last_rows = 0;
        for _ in 0..60 {
            let rows = c.query(&partition_query(0), &opts).unwrap();
            // Snapshots are immutable and published in apply order:
            // epochs and (insert-only) row counts never move backwards.
            assert!(rows.epoch >= last_epoch, "epoch went backwards");
            assert!(rows.results.len() >= last_rows, "rows went backwards");
            last_epoch = rows.epoch;
            last_rows = rows.results.len();
        }
    });
    let writers: Vec<_> = (0..WRITERS)
        .map(|k| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut acks = Vec::new();
                for b in 0..BATCHES_PER_WRITER {
                    let ack = c
                        .ingest(&partition_batch(k, b, PER_BATCH), &Graph::new())
                        .unwrap();
                    assert!(ack.coalesced >= 1);
                    acks.push(ack);
                }
                // Acks are issued post-apply: this client's epochs are
                // strictly increasing even under coalescing.
                assert!(acks.windows(2).all(|w| w[1].epoch > w[0].epoch));
                c
            })
        })
        .collect();
    let mut clients: Vec<Client> = writers.into_iter().map(|w| w.join().unwrap()).collect();
    reader.join().unwrap();

    // Replay the same data single-threaded; every partition query must
    // agree (concurrent group commit changed batching, not content).
    let mut replay =
        StreamSession::new(ShardedHybridStore::build(&ontology, &Graph::new(), 4).unwrap());
    for k in 0..WRITERS {
        for b in 0..BATCHES_PER_WRITER {
            replay
                .apply_batch(&partition_batch(k, b, PER_BATCH), &Graph::new())
                .unwrap();
        }
    }
    for (k, c) in clients.iter_mut().enumerate() {
        let got = c.query(&partition_query(k), &opts).unwrap();
        assert_eq!(got.results.len(), BATCHES_PER_WRITER * PER_BATCH);
        let want = se_sparql::execute_query(replay.store(), &partition_query(k), &opts).unwrap();
        assert_eq!(normalize(&got.results), normalize(&want));
    }

    // ---- Phase B: one client holds two subscriptions — the anomaly
    // query (FILTER + BIND) and a bare pattern scan — while another
    // streams the water batches. One batch per ack-gated request means
    // one tick per batch. The server pushes each full set once, then
    // only per-tick changes, and skips unchanged ticks entirely; the
    // client's reconstructed view must match the replay's full
    // evaluation anyway.
    let scan_query = "SELECT ?s ?o WHERE { ?s <http://www.w3.org/ns/sosa/observes> ?o }";
    let mut sub = Client::connect(addr).unwrap();
    sub.subscribe("alerts", &water_anomaly_query(), &opts)
        .unwrap();
    sub.subscribe("scan", scan_query, &opts).unwrap();
    replay
        .register_query("alerts", &water_anomaly_query(), opts.clone())
        .unwrap();
    replay
        .register_query("scan", scan_query, opts.clone())
        .unwrap();

    let cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.4,
        seed: 11,
    };
    let stream = generate_stream(&cfg, 8, 3);
    let feeder = &mut clients[0];
    let mut saw_alert = false;
    let mut saw_changes = false;
    let mut primed = std::collections::HashSet::new();
    for batch in &stream {
        let ack = feeder.ingest(&batch.inserts, &batch.deletes).unwrap();
        let outcome = replay.apply_batch(&batch.inserts, &batch.deletes).unwrap();
        // The server walks results in registration order and pushes a
        // frame only for the initial set or a changed tick.
        for want in &outcome.results {
            let first = primed.insert(want.id.clone());
            if !first && want.unchanged() {
                continue;
            }
            let push = sub.next_push().unwrap();
            assert_eq!(push.id, want.id);
            assert_eq!(push.epoch, ack.epoch);
            assert_eq!(push.initial, first, "frame kind diverged at {}", ack.epoch);
            assert_eq!(
                normalize(&push.results),
                normalize(&want.results),
                "{} push at epoch {} diverged from the replay",
                push.id,
                push.epoch
            );
            if !first {
                assert_eq!(normalize(&push.added), normalize(&want.added));
                assert_eq!(normalize(&push.removed), normalize(&want.removed));
                saw_changes |= !push.added.is_empty() || !push.removed.is_empty();
            }
            if want.id == "alerts" {
                saw_alert |= !push.results.rows.is_empty();
            }
        }
    }
    assert!(saw_alert, "the stream produced no anomaly to compare");
    assert!(saw_changes, "no post-priming push carried a change");

    // ---- Phase C: stats reflect the session; shutdown stops the server.
    let stats = sub.stats().unwrap();
    assert_eq!(stats.subscriptions, 2);
    // Phase A's 24 requests ran as anywhere between 6 ticks (maximal
    // coalescing: each writer's requests are ack-gated, so at least
    // BATCHES_PER_WRITER ticks) and 24 (none); phase B added exactly one
    // tick per water batch.
    let phase_b = stream.len() as u64;
    assert!(stats.epoch >= BATCHES_PER_WRITER as u64 + phase_b);
    assert!(stats.epoch <= (WRITERS * BATCHES_PER_WRITER) as u64 + phase_b);
    assert!(stats.triples > 0);
    // Both subscriptions evaluate once per tick, and the replay session
    // counted the identical work.
    assert_eq!(stats.full_evals, 2 * phase_b);
    assert_eq!(stats.full_evals, replay.stream_stats().full_evals);
    sub.shutdown().unwrap();
    server.join();
}

#[test]
fn malformed_and_unknown_requests_leave_the_connection_usable() {
    let store = ShardedHybridStore::build(&water_ontology(), &Graph::new(), 2).unwrap();
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();
    let mut c = Client::connect(addr).unwrap();

    // A bad query surfaces as a server error, not a hangup.
    let err = c.query("SELECT WHERE garbage", &QueryOptions::default());
    assert!(err.is_err());

    // The connection still works afterwards.
    let ack = c
        .ingest(
            &Graph::from_triples([Triple::new(
                Term::iri("http://x/s"),
                Term::iri("http://x/p"),
                Term::iri("http://x/o"),
            )]),
            &Graph::new(),
        )
        .unwrap();
    assert_eq!(ack.inserted, 1);
    let rows = c
        .query(
            "SELECT ?o WHERE { <http://x/s> <http://x/p> ?o }",
            &QueryOptions::default(),
        )
        .unwrap();
    assert_eq!(rows.results.len(), 1);
    assert!(rows.epoch >= 1);

    c.shutdown().unwrap();
    server.join();
}

/// A subscription the executor could never evaluate (a variable
/// predicate) is refused with ERR, and it leaves nothing behind that
/// would turn later ingest acks into errors.
#[test]
fn subscribe_outside_the_fragment_is_refused_and_ingest_still_acks() {
    let store = ShardedHybridStore::build(&water_ontology(), &Graph::new(), 2).unwrap();
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let refused = c.subscribe(
        "vp",
        "SELECT ?s ?p WHERE { ?s ?p <http://x/o> }",
        &QueryOptions::default(),
    );
    assert!(
        refused.is_err(),
        "variable-predicate SUBSCRIBE must get ERR"
    );
    let ack = c
        .ingest(&partition_batch(0, 0, PER_BATCH), &Graph::new())
        .unwrap();
    assert_eq!(ack.inserted, PER_BATCH as u64);
    c.shutdown().unwrap();
    server.join();
}

/// A subscriber that never reads must not freeze the writer: once its
/// socket buffers are full, the push to it fails after
/// `SINK_WRITE_TIMEOUT`, its subscription is retired, and another
/// client's ingest acks keep arriving within a bounded wait.
#[test]
fn stalled_subscriber_does_not_block_other_clients_acks() {
    let store = ShardedHybridStore::build(&water_ontology(), &Graph::new(), 2).unwrap();
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    // Subscribes, then never reads again.
    let mut stalled = Client::connect(server.addr()).unwrap();
    stalled
        .subscribe(
            "blobs",
            "SELECT ?s ?o WHERE { ?s <http://x/blob> ?o }",
            &QueryOptions::default(),
        )
        .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    // A whole frame shares one write deadline, so the writer is free
    // again within one timeout of the stall.
    c.set_read_timeout(Some(2 * SINK_WRITE_TIMEOUT));
    // One tick whose answer (16 MiB) is far more than the loopback socket
    // buffers hold. Its ack is sent before the push starts.
    let blob = "x".repeat(128 << 10);
    let big = Graph::from_triples((0..128).map(|i| {
        Triple::new(
            iri(format!("http://x/s{i}")),
            iri("http://x/blob".to_string()),
            Term::literal(format!("{i}{blob}")),
        )
    }));
    assert_eq!(c.ingest(&big, &Graph::new()).unwrap().inserted, 128);
    // The writer is now pushing the whole answer to the stalled
    // subscriber; the next acks must still arrive.
    for batch in 0..3 {
        let ack = c
            .ingest(&partition_batch(0, batch, PER_BATCH), &Graph::new())
            .expect("ingest acks keep arriving while a subscriber stalls");
        assert_eq!(ack.inserted, PER_BATCH as u64);
    }
    assert_eq!(
        c.stats().unwrap().subscriptions,
        0,
        "stalled subscription retired"
    );
    c.shutdown().unwrap();
    server.join();
    drop(stalled);
}

/// Hands out at most `chunk` bytes per read and pauses before each: a
/// peer on a slow link that keeps taking data.
struct Trickle<'a> {
    inner: &'a TcpStream,
    chunk: usize,
    pause: Duration,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::thread::sleep(self.pause);
        let n = buf.len().min(self.chunk);
        (&mut &*self.inner).read(&mut buf[..n])
    }
}

/// Only the writer's per-tick frames share one write deadline. A reply
/// that a slow but steady reader takes well over `SINK_WRITE_TIMEOUT`
/// to drain still arrives whole: its writes fail only when the peer
/// stops taking data.
#[test]
fn slow_steady_reader_receives_a_large_reply_whole() {
    let store = ShardedHybridStore::build(&water_ontology(), &Graph::new(), 2).unwrap();
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    // 16 MiB of answers, far more than the loopback socket buffers hold.
    let blob = "x".repeat(128 << 10);
    let big = Graph::from_triples((0..128).map(|i| {
        Triple::new(
            iri(format!("http://x/s{i}")),
            iri("http://x/blob".to_string()),
            Term::literal(format!("{i}{blob}")),
        )
    }));
    assert_eq!(c.ingest(&big, &Graph::new()).unwrap().inserted, 128);

    let raw = TcpStream::connect(server.addr()).unwrap();
    let mut request = Vec::new();
    request
        .write_str("SELECT ?s ?o WHERE { ?s <http://x/blob> ?o }")
        .unwrap();
    proto::write_options(&mut request, &QueryOptions::default()).unwrap();
    proto::write_frame(&mut &raw, proto::req::QUERY, &request).unwrap();
    // 64 KiB per 25 ms: about 2.5 MiB/s, so draining the reply takes
    // about twice `SINK_WRITE_TIMEOUT`.
    let started = Instant::now();
    let mut slow = Trickle {
        inner: &raw,
        chunk: 64 << 10,
        pause: Duration::from_millis(25),
    };
    let (kind, body) = proto::read_frame(&mut slow).expect("the whole reply arrives");
    assert!(started.elapsed() > SINK_WRITE_TIMEOUT, "the read was slow");
    assert_eq!(kind, proto::resp::ROWS);
    let rows = proto::read_result_set(&mut &body[8..]).unwrap();
    assert_eq!(rows.len(), 128);
    c.shutdown().unwrap();
    server.join();
}

/// With a WAL attached (every record fsynced before `apply` returns), an
/// ingest ack *is* a durability receipt: after `SHUTDOWN` (or a crash — the
/// crash matrix in `tests/crash_recovery.rs` covers that side), a
/// restarted store recovers exactly the acked epoch, and a new server
/// over it serves the same data.
#[test]
fn server_restart_recovers_every_acked_batch() {
    let dir = scratch("restart");
    let ontology = water_ontology();
    let mut store = ShardedHybridStore::build(&ontology, &Graph::new(), 2).unwrap();
    store.attach_wal(&dir, WalConfig::default()).unwrap();
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();

    // An idle subscriber: a never-matching query gets its empty initial
    // frame on the first tick and then no traffic at all, so its
    // connection thread sits in a frame read. Shutdown must still
    // complete promptly and close this connection (the bounded-poll
    // loop in the server).
    let mut idle = Client::connect(addr).unwrap();
    idle.subscribe(
        "quiet",
        "SELECT ?s ?o WHERE { ?s <http://x/never> ?o }",
        &QueryOptions::default(),
    )
    .unwrap();

    let mut c = Client::connect(addr).unwrap();
    let mut last_acked = 0;
    for b in 0..5 {
        let ack = c
            .ingest(&partition_batch(0, b, PER_BATCH), &Graph::new())
            .unwrap();
        last_acked = ack.epoch;
    }
    let initial = idle.next_push().unwrap();
    assert!(initial.initial && initial.results.rows.is_empty());
    c.shutdown().unwrap();
    server.join();

    // The idle subscriber observes the shutdown as a closed connection
    // — within its read timeout, not as a hang or a timeout error.
    idle.set_read_timeout(Some(Duration::from_secs(10)));
    let err = idle.next_push().unwrap_err();
    assert!(
        !Client::is_timeout(&err),
        "idle connection was not closed by shutdown: {err}"
    );

    // Restart: manifest + WAL replay lands exactly on the acked epoch.
    let recovered = ShardedHybridStore::load(&dir, &ontology).unwrap();
    assert_eq!(recovered.epoch(), last_acked);

    let server = Server::start(recovered, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let rows = c
        .query(&partition_query(0), &QueryOptions::default())
        .unwrap();
    assert_eq!(rows.results.len(), 5 * PER_BATCH);
    // And the recovered server keeps taking (and logging) new batches.
    let ack = c
        .ingest(&partition_batch(0, 5, PER_BATCH), &Graph::new())
        .unwrap();
    assert_eq!(ack.epoch, last_acked + 1);
    c.shutdown().unwrap();
    server.join();
    cleanup(&dir);
}

/// Group commit without a timer: writes that queue while the writer
/// applies and fsyncs one tick form the next. Eight writers released by
/// one barrier make their first writes queue behind one apply, so some
/// tick must coalesce; every tick is one consecutive epoch, acked only
/// once durable.
#[test]
fn concurrent_writers_group_commit_without_a_timer() {
    const WRITERS: usize = 8;
    const BATCHES: usize = 20;
    const PER_BATCH: usize = 2;
    let dir = scratch("group-commit");
    let ontology = water_ontology();
    let mut store = ShardedHybridStore::build(&ontology, &Graph::new(), 4).unwrap();
    store.attach_wal(&dir, WalConfig::default()).unwrap();
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();

    let start = std::sync::Arc::new(std::sync::Barrier::new(WRITERS));
    let writers: Vec<_> = (0..WRITERS)
        .map(|k| {
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                start.wait();
                (0..BATCHES)
                    .map(|b| {
                        c.ingest(&partition_batch(k, b, PER_BATCH), &Graph::new())
                            .unwrap()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let acks: Vec<_> = writers
        .into_iter()
        .flat_map(|w| w.join().unwrap())
        .collect();

    assert!(
        acks.iter().any(|a| a.coalesced > 1),
        "no tick coalesced two writes"
    );
    // Every tick is exactly one epoch, with no empty or skipped commit,
    // and each tick's riders all carry its one aggregate ack.
    let mut ticks = std::collections::BTreeMap::new();
    for a in &acks {
        ticks.entry(a.epoch).or_insert_with(Vec::new).push(a);
    }
    let last = *ticks.keys().last().unwrap();
    assert!(ticks.keys().copied().eq(1..=last), "epochs skip: {ticks:?}");
    for (epoch, riders) in &ticks {
        assert_eq!(riders.len(), riders[0].coalesced as usize, "epoch {epoch}");
        assert!(riders.iter().all(|a| *a == riders[0]), "epoch {epoch}");
        assert_eq!(riders[0].inserted as usize, riders.len() * PER_BATCH);
    }

    let mut c = Client::connect(addr).unwrap();
    c.shutdown().unwrap();
    server.join();
    // Every acked tick is on disk.
    let recovered = ShardedHybridStore::load(&dir, &ontology).unwrap();
    assert_eq!(recovered.epoch(), last);
    assert_eq!(
        se_core::TripleSource::len(&recovered),
        WRITERS * BATCHES * PER_BATCH
    );
    cleanup(&dir);
}

/// The server QUERY hot path performs zero SPARQL parsing on a plan-
/// cache hit — counter-verified: repeated (prepared) queries bump only
/// `plan_hits`, a same-shape query with different constants compiles
/// nothing new, and the counters travel the wire through STATS.
#[test]
fn repeated_queries_hit_the_plan_cache_with_zero_parsing() {
    let store = ShardedHybridStore::build(&water_ontology(), &Graph::new(), 2).unwrap();
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    for k in 0..2 {
        c.ingest(&partition_batch(k, 0, PER_BATCH), &Graph::new())
            .unwrap();
    }
    let opts = QueryOptions::default();
    let baseline = c.stats().unwrap();
    assert_eq!(baseline.plan_hits, 0, "no queries ran yet");
    assert_eq!(baseline.plan_misses, 0);

    // First execution: one text-level miss, one compile. The prepared
    // frame is encoded once and reused byte-identically after that.
    let prepared = Client::prepare(&partition_query(0), &opts).unwrap();
    let first = c.query_prepared(&prepared).unwrap();
    assert_eq!(first.results.len(), PER_BATCH);
    for _ in 0..5 {
        let again = c.query_prepared(&prepared).unwrap();
        assert_eq!(normalize(&again.results), normalize(&first.results));
    }
    let stats = c.stats().unwrap();
    assert_eq!(stats.plan_misses, 1, "only the cold run parsed");
    assert_eq!(stats.plan_hits, 5, "every repeat was a zero-parse hit");
    assert_eq!(stats.plan_compiles, 1);

    // Two queries differing only in a constant subject share one shape:
    // each misses at the text level (parsed once), but only the first
    // compiles — the second binds its constant into the cached plan,
    // and each still gets its own answer.
    let point = |i: usize| format!("SELECT ?o WHERE {{ <http://x/s0_{i}> <http://x/p0> ?o }}");
    let r0 = c.query(&point(0), &opts).unwrap();
    let r1 = c.query(&point(1), &opts).unwrap();
    assert_eq!((r0.results.len(), r1.results.len()), (1, 1));
    assert_ne!(
        normalize(&r0.results),
        normalize(&r1.results),
        "shared plan must bind each query's own constant"
    );
    let stats = c.stats().unwrap();
    assert_eq!(stats.plan_misses, 3);
    assert_eq!(stats.plan_compiles, 2, "shape shared, one compile for both");
    assert_eq!(stats.plan_evictions, 0);
    assert_eq!(stats.plan_recosts, 0);
    c.shutdown().unwrap();
    server.join();
}

/// The client's opt-in read timeout: waiting for a push that never
/// comes fails with a typed, retryable timeout instead of blocking
/// forever — and the connection stays fully usable afterwards.
#[test]
fn client_read_timeout_is_typed_and_retryable() {
    let store = ShardedHybridStore::build(&water_ontology(), &Graph::new(), 2).unwrap();
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.subscribe(
        "quiet",
        "SELECT ?s ?o WHERE { ?s <http://x/never> ?o }",
        &QueryOptions::default(),
    )
    .unwrap();
    // One tick to flush the subscription's (empty) initial frame.
    c.ingest(
        &Graph::from_triples([Triple::new(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::iri("http://x/o"),
        )]),
        &Graph::new(),
    )
    .unwrap();
    let _initial = c.next_push().unwrap();

    // No further pushes are coming: the bounded wait times out with an
    // error the caller can identify and act on.
    c.set_read_timeout(Some(Duration::from_millis(50)));
    let err = c.next_push().unwrap_err();
    assert!(Client::is_timeout(&err), "expected a timeout, got: {err}");

    // Nothing of the next frame was consumed: the same connection still
    // serves requests (and their replies are not misframed).
    let rows = c
        .query(
            "SELECT ?s WHERE { ?s <http://x/p> ?s }",
            &QueryOptions::default(),
        )
        .unwrap();
    assert_eq!(rows.results.len(), 0);
    c.shutdown().unwrap();
    server.join();
}

/// A tick whose WAL append fails is still applied and published to
/// readers; a primed subscriber, fed only changes, must get its rows in
/// that tick's push, both while the log is first failing and while the
/// poisoned log refuses every later tick.
#[test]
fn failed_wal_append_still_reaches_primed_subscribers() {
    let dir = scratch("walpush");
    let mut store = ShardedHybridStore::build(&water_ontology(), &Graph::new(), 1).unwrap();
    store.attach_wal(&dir, WalConfig::default()).unwrap();
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut writer = Client::connect(server.addr()).unwrap();
    let mut sub = Client::connect(server.addr()).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(10)));
    let opts = QueryOptions::default();
    // One plain and one FILTER subscription.
    sub.subscribe("plain", "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }", &opts)
        .unwrap();
    sub.subscribe(
        "filtered",
        "SELECT ?s ?o WHERE { ?s <http://x/p> ?o FILTER(?o != <http://x/o0>) }",
        &opts,
    )
    .unwrap();
    let triple = |i: usize| {
        Triple::new(
            iri(format!("http://x/s{i}")),
            Term::iri("http://x/p"),
            iri(format!("http://x/o{i}")),
        )
    };
    let row = |i: usize| format!("{:?}", [Some(triple(i).subject), Some(triple(i).object)]);

    writer
        .ingest(&Graph::from_triples([triple(0)]), &Graph::new())
        .unwrap();
    for id in ["plain", "filtered"] {
        let push = sub.next_push().unwrap();
        assert_eq!((push.id.as_str(), push.initial), (id, true));
    }

    // Batch 1 fails its append and poisons the log; batch 2 is refused
    // by the poisoned log. Both are applied and must be pushed.
    for i in 1..=2 {
        if i == 1 {
            fault::arm(&dir, 0, FaultMode::Fail);
        }
        let refused = writer.ingest(&Graph::from_triples([triple(i)]), &Graph::new());
        fault::disarm(&dir);
        assert!(refused.is_err(), "a failed append must not be acked");
        for id in ["plain", "filtered"] {
            let push = sub.next_push().unwrap();
            assert_eq!(push.id, id);
            assert!(!push.initial);
            assert_eq!(push.epoch, 1 + i as u64);
            assert_eq!(normalize(&push.added), vec![row(i)], "{id} at batch {i}");
            assert!(push.removed.rows.is_empty());
        }
    }
    let stats = writer.stats().unwrap();
    assert_eq!((stats.epoch, stats.wal_poisoned), (3, 1));
    let read = writer
        .query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }", &opts)
        .unwrap();
    assert_eq!(read.results.len(), 3, "readers see the failed batches");

    writer.shutdown().unwrap();
    server.join();
    cleanup(&dir);
}
