//! The §2 anomaly scenario served over TCP: one `se-server`, many
//! concurrent clients.
//!
//! The server owns a sharded streaming store; around it:
//!
//! * a **subscriber** registers the paper's anomaly query and receives
//!   its full answer set once, then only per-tick changes — ticks that
//!   leave the answers untouched push nothing, and the client folds the
//!   change frames back into the full set;
//! * a **feeder** streams the water measurement batches (with the
//!   sliding retention window deleting expired observations);
//! * four **concurrent writers** ingest disjoint side-channel readings
//!   at the same time, exercising group-commit coalescing;
//! * a **reader** runs point queries against epoch-pinned snapshots
//!   while all of the above is in flight — never blocked by ingest.
//!
//! The pushed alert sequence must equal the one produced by a local
//! single-threaded [`StreamSession`] replay of the same batches, and the
//! run asserts it.
//!
//! ```text
//! cargo run --example stream_server
//! ```
//!
//! Two extra modes drive the durability story end to end (the CI
//! crash-recovery job runs them back to back):
//!
//! ```text
//! cargo run --example stream_server -- --crash <dir> <batches>
//! cargo run --example stream_server -- --recover <dir> <batches>
//! ```
//!
//! `--crash` serves a WAL-attached store, ingests `<batches>` ack-gated
//! batches over TCP and then kills the process without any shutdown —
//! no writer drain, no checkpoint, destructors skipped. `--recover`
//! reopens the directory the way a restarted server would, asserts the
//! recovered epoch equals every acked batch, re-serves the data and
//! shuts down gracefully.

use succinct_edge::datagen::water::{generate_stream, WaterConfig};
use succinct_edge::datagen::workload::water_anomaly_query;
use succinct_edge::ontology::water_ontology;
use succinct_edge::rdf::{Graph, Term, Triple};
use succinct_edge::server::{Client, Server, ServerConfig};
use succinct_edge::sparql::{QueryOptions, ResultSet};
use succinct_edge::stream::{ShardedHybridStore, StreamSession, WalConfig};

/// Sorted row strings: result sets compare as multisets.
fn normalize(rs: &ResultSet) -> Vec<String> {
    let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Writer `k`'s side-channel batch: disjoint per-writer IRIs, so the
/// concurrent ingest commutes with the water stream.
fn side_batch(k: usize, round: usize) -> Graph {
    Graph::from_triples((0..4).map(|j| {
        Triple::new(
            Term::iri(format!("http://side.example/meter{k}_{}", round * 4 + j)),
            Term::iri(format!("http://side.example/feed{k}")),
            Term::literal(format!("{}", round * 4 + j)),
        )
    }))
}

/// Batch `i` of the crash workload: three distinct readings, so epoch
/// `e` implies exactly `3 * e` rows under the crash feed.
fn crash_batch(i: u64) -> Graph {
    Graph::from_triples((0..3).map(|j| {
        Triple::new(
            Term::iri(format!("http://crash.example/s{i}_{j}")),
            Term::iri("http://crash.example/feed"),
            Term::literal(format!("{}", i * 3 + j)),
        )
    }))
}

const CRASH_QUERY: &str = "SELECT ?s ?v WHERE { ?s <http://crash.example/feed> ?v }";

/// `--crash`: ingest `batches` ack-gated batches into a WAL-attached
/// server, then die without any shutdown path running.
fn crash_mode(dir: &std::path::Path, batches: u64) -> ! {
    let _ = std::fs::remove_dir_all(dir);
    let mut store =
        ShardedHybridStore::build(&water_ontology(), &Graph::new(), 2).expect("store builds");
    store
        .attach_wal(dir, WalConfig::default())
        .expect("wal attaches");
    let server =
        Server::start(store, "127.0.0.1:0", ServerConfig::default()).expect("server binds");
    let mut c = Client::connect(server.addr()).expect("client connects");
    let mut acked = 0;
    for i in 0..batches {
        acked = c.ingest(&crash_batch(i), &Graph::new()).expect("ack").epoch;
    }
    println!("crash: {acked} batch(es) acked, dying without shutdown");
    // The whole point: no shutdown request, no writer drain, no save —
    // destructors don't run. Every ack above must still be on disk.
    std::process::exit(0);
}

/// `--recover`: reopen the crashed directory, assert nothing acked was
/// lost, and serve the recovered store.
fn recover_mode(dir: &std::path::Path, batches: u64) {
    let store = ShardedHybridStore::load(dir, &water_ontology()).expect("recovery loads");
    assert_eq!(
        store.epoch(),
        batches,
        "recovered epoch must equal the acked batches"
    );
    let server =
        Server::start(store, "127.0.0.1:0", ServerConfig::default()).expect("server binds");
    let mut c = Client::connect(server.addr()).expect("client connects");
    let rows = c
        .query(CRASH_QUERY, &QueryOptions::default())
        .expect("query runs");
    assert_eq!(
        rows.results.len() as u64,
        3 * batches,
        "recovered rows must cover every acked batch"
    );
    let ack = c
        .ingest(&crash_batch(batches), &Graph::new())
        .expect("recovered server takes new batches");
    assert_eq!(ack.epoch, batches + 1);
    c.shutdown().expect("shutdown acked");
    server.join();
    println!(
        "recover: epoch {batches} with {} row(s) — no acked batch lost",
        rows.results.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let [_, mode, dir, batches] = args.as_slice() {
        let dir = std::path::PathBuf::from(dir);
        let batches: u64 = batches.parse().expect("batch count parses");
        match mode.as_str() {
            "--crash" => crash_mode(&dir, batches),
            "--recover" => return recover_mode(&dir, batches),
            other => panic!("unknown mode {other}; use --crash or --recover"),
        }
    }

    let onto = water_ontology();
    let cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.25,
        seed: 42,
    };
    let batches = generate_stream(&cfg, 20, 4);
    let opts = QueryOptions::default();

    let store = ShardedHybridStore::build(&onto, &Graph::new(), 4).expect("store builds");
    let server =
        Server::start(store, "127.0.0.1:0", ServerConfig::default()).expect("server binds");
    let addr = server.addr();
    println!("server listening on {addr}");

    // Subscriber: the anomaly query's answers arrive as pushes.
    let mut sub = Client::connect(addr).expect("subscriber connects");
    sub.subscribe("water-anomaly", &water_anomaly_query(), &opts)
        .expect("subscription registers");

    // Feeder + local replay (the expected alert sequence).
    let mut feeder = Client::connect(addr).expect("feeder connects");
    let mut replay = StreamSession::new(
        ShardedHybridStore::build(&onto, &Graph::new(), 4).expect("replay store builds"),
    );
    replay
        .register_query("water-anomaly", &water_anomaly_query(), opts.clone())
        .expect("replay query registers");

    // Water batch 0 runs before the side writers spawn: its tick is the
    // server's first, so the subscription's initial full frame lands
    // here deterministically.
    let mut stream_iter = batches.iter().enumerate();
    let mut total_alerts = 0usize;
    {
        let (tick, batch) = stream_iter.next().expect("stream is non-empty");
        let ack = feeder
            .ingest(&batch.inserts, &batch.deletes)
            .expect("water batch applies");
        let expected = replay
            .apply_batch(&batch.inserts, &batch.deletes)
            .expect("replay applies");
        let push = sub.next_push().expect("initial push arrives");
        assert!(push.initial, "the first push must be the full frame");
        assert_eq!(push.id, "water-anomaly");
        assert_eq!(push.epoch, ack.epoch);
        assert_eq!(
            normalize(&push.results),
            normalize(&expected.results[0].results),
            "batch {tick}: pushed alerts diverge from the single-threaded replay"
        );
        total_alerts += push.results.rows.len();
        println!(
            "batch {tick:2}: epoch {:3} | +{:<3} -{:<3} | {} alert(s) (initial full frame)",
            ack.epoch,
            ack.inserted,
            ack.deleted,
            push.results.rows.len()
        );
    }

    // Concurrent writers + a snapshot reader, racing the feeder below.
    let side = std::thread::spawn(move || {
        let writers: Vec<_> = (0..4)
            .map(|k| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("writer connects");
                    let mut coalesced_max = 0;
                    for round in 0..10 {
                        let ack = c
                            .ingest(&side_batch(k, round), &Graph::new())
                            .expect("side batch applies");
                        coalesced_max = coalesced_max.max(ack.coalesced);
                    }
                    coalesced_max
                })
            })
            .collect();
        let reader = std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("reader connects");
            let q = "SELECT ?s ?v WHERE { ?s <http://side.example/feed0> ?v }";
            let mut last = (0, 0);
            for _ in 0..40 {
                let rows = c.query(q, &QueryOptions::default()).expect("query runs");
                let now = (rows.epoch, rows.results.len());
                assert!(now >= last, "snapshot reads moved backwards");
                last = now;
            }
            last
        });
        let coalesced = writers
            .into_iter()
            .map(|w| w.join().expect("writer thread"))
            .max()
            .unwrap_or(0);
        let (epoch, rows) = reader.join().expect("reader thread");
        (coalesced, epoch, rows)
    });

    // Feeder: the remaining water batches, one group-commit tick each.
    // The server now pushes only *changes* — the side writers' ticks
    // never touch the anomaly answers, so they produce no pushes at
    // all, and a water tick pushes exactly when the replay says the
    // alert set changed.
    for (tick, batch) in stream_iter {
        let ack = feeder
            .ingest(&batch.inserts, &batch.deletes)
            .expect("water batch applies");
        let expected = replay
            .apply_batch(&batch.inserts, &batch.deletes)
            .expect("replay applies");
        let want = &expected.results[0];
        total_alerts += want.results.len();
        if want.unchanged() {
            println!(
                "batch {tick:2}: epoch {:3} | +{:<3} -{:<3} | unchanged (no push)",
                ack.epoch, ack.inserted, ack.deleted,
            );
            continue;
        }
        let push = sub.next_push().expect("push arrives");
        assert!(!push.initial, "only the first push carries the full set");
        assert_eq!(push.id, "water-anomaly");
        assert_eq!(push.epoch, ack.epoch, "the water tick's push was skipped");
        // The client folded the change frame into its materialized
        // view; it must equal the replay's full evaluation.
        assert_eq!(
            normalize(&push.results),
            normalize(&want.results),
            "batch {tick}: pushed alerts diverge from the single-threaded replay"
        );
        println!(
            "batch {tick:2}: epoch {:3} | +{:<3} -{:<3} | {} alert(s) (+{} −{})",
            ack.epoch,
            ack.inserted,
            ack.deleted,
            push.results.rows.len(),
            push.added.rows.len(),
            push.removed.rows.len(),
        );
    }
    assert!(total_alerts > 0, "the stream must raise alerts");

    let (coalesced_max, reader_epoch, side_rows) = side.join().expect("side threads");
    println!(
        "side channel: up to {coalesced_max} write(s) coalesced per tick; \
         reader finished at epoch {reader_epoch} seeing {side_rows} side rows"
    );

    let stats = sub.stats().expect("stats answer");
    println!(
        "server: epoch {} | {} triples | {} snapshot(s) taken, {} pinned | {} compaction(s)",
        stats.epoch, stats.triples, stats.snapshots, stats.live_pins, stats.compactions
    );
    assert_eq!(stats.subscriptions, 1);

    sub.shutdown().expect("shutdown acked");
    server.join();
    println!(
        "alert sequences agree across {} batches — server stopped",
        batches.len()
    );
}
