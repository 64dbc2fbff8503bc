//! Replication agreement: a follower replaying the leader's WAL feed
//! answers every triple-pattern shape identically to the leader, to a
//! local single-threaded replay of the same batches, and to a
//! from-scratch rebuild — at the same epoch, across deletions,
//! compactions, a leader checkpoint that truncates WAL history (forcing
//! the snapshot bootstrap path), a forced feed drop/re-sync, and a
//! leader whose log a failed append poisoned.

use se_datagen::water::{generate_stream, WaterConfig};
use se_datagen::workload::water_anomaly_query;
use se_ontology::water_ontology;
use se_rdf::{Graph, Term, Triple};
use se_server::{Client, Replica, ReplicaConfig, Server, ServerConfig};
use se_sparql::{QueryOptions, ResultSet};
use se_stream::fault::{self, FaultMode};
use se_stream::{CompactionPolicy, ShardedHybridStore, StreamSession, StreamStore, WalConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("se-repl-{}-{name}", std::process::id()));
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

/// Queries covering every TP shape the executor distinguishes — the
/// same 13 shapes `tests/stream_agreement.rs` holds the engines to.
fn shape_queries() -> Vec<(&'static str, String, QueryOptions)> {
    let prefixes = "PREFIX sosa: <http://www.w3.org/ns/sosa/> \
                    PREFIX qudt: <http://qudt.org/schema/qudt/> ";
    let q = |text: &str| format!("{prefixes}{text}");
    vec![
        ("anomaly", water_anomaly_query(), QueryOptions::default()),
        (
            "scan",
            q("SELECT ?s ?o WHERE { ?s sosa:observes ?o }"),
            QueryOptions::default(),
        ),
        (
            "objects",
            q("SELECT ?o WHERE { <http://engie.example/station/1> sosa:hosts ?o }"),
            QueryOptions::default(),
        ),
        (
            "subjects",
            q("SELECT ?s WHERE { ?s qudt:unit <http://qudt.org/vocab/unit/BAR> }"),
            QueryOptions::default(),
        ),
        (
            "membership",
            q("SELECT ?s WHERE { \
               <http://engie.example/station/1> sosa:hosts <http://engie.example/sensor/pressure1> . \
               ?s a sosa:Sensor }"),
            QueryOptions::default(),
        ),
        (
            "literal-const",
            q("SELECT ?o WHERE { ?o sosa:resultTime \
               \"2020-11-01T00:00:00Z\"^^<http://www.w3.org/2001/XMLSchema#dateTime> }"),
            QueryOptions::default(),
        ),
        (
            "type-reasoned",
            q("SELECT ?u WHERE { ?u a qudt:PressureUnit }"),
            QueryOptions::default(),
        ),
        (
            "type-exact",
            q("SELECT ?u WHERE { ?u a qudt:PressureUnit }"),
            QueryOptions::without_reasoning(),
        ),
        (
            "type-var",
            q("SELECT ?c WHERE { <http://engie.example/sensor/pressure1> a ?c }"),
            QueryOptions::default(),
        ),
        (
            "type-scan",
            q("SELECT ?s ?c WHERE { ?s a ?c }"),
            QueryOptions::default(),
        ),
        (
            "star-plain",
            q("SELECT ?s ?r WHERE { ?s a sosa:Observation . ?s sosa:hasResult ?r }"),
            QueryOptions::without_reasoning(),
        ),
        (
            "union-groups",
            q("SELECT ?s ?o WHERE { ?s sosa:hosts ?o } UNION { ?s sosa:observes ?o }"),
            QueryOptions::default(),
        ),
        (
            "distinct-subjects",
            q("SELECT DISTINCT ?s WHERE { ?s sosa:observes ?o }"),
            QueryOptions::default(),
        ),
    ]
}

/// Polls both nodes until the follower has replayed up to the leader's
/// epoch. Returns the common epoch.
fn wait_caught_up(leader: &mut Client, follower: &mut Client) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let l = leader.stats().unwrap().epoch;
        let f = follower.stats().unwrap().epoch;
        if l == f {
            return l;
        }
        assert!(
            Instant::now() < deadline,
            "follower stuck at epoch {f}, leader at {l}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Every shape answers identically on leader, follower, the local
/// replay session, and a from-scratch rebuild — all pinned to `epoch`.
fn assert_shapes_agree(
    leader: &mut Client,
    follower: &mut Client,
    replay: &StreamSession<ShardedHybridStore>,
    epoch: u64,
    phase: &str,
) {
    let rebuilt =
        ShardedHybridStore::build(&water_ontology(), &replay.store().materialize(), 2).unwrap();
    for (id, text, opts) in shape_queries() {
        let l = leader.query(&text, &opts).unwrap();
        let f = follower.query(&text, &opts).unwrap();
        assert_eq!(l.epoch, epoch, "{phase}: leader '{id}' answered off-epoch");
        assert_eq!(
            f.epoch, epoch,
            "{phase}: follower '{id}' answered off-epoch"
        );
        let want = normalize(&l.results);
        assert_eq!(
            normalize(&f.results),
            want,
            "{phase}: query '{id}' disagrees between leader and follower"
        );
        let local = se_sparql::execute_query(replay.store(), &text, &opts).unwrap();
        assert_eq!(
            normalize(&local),
            want,
            "{phase}: query '{id}' disagrees between leader and local replay"
        );
        let fresh = se_sparql::execute_query(&rebuilt, &text, &opts).unwrap();
        assert_eq!(
            normalize(&fresh),
            want,
            "{phase}: query '{id}' disagrees between follower and rebuild"
        );
    }
}

#[test]
fn replica_agrees_across_checkpoint_compaction_and_resync() {
    let dir = scratch("agree");
    let onto = water_ontology();
    let cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.3,
        seed: 97,
    };
    // Retention window 3 → deletions ride along from batch 3 on.
    let batches = generate_stream(&cfg, 12, 3);
    // Overlay threshold sized to trigger compactions mid-stream.
    let policy = CompactionPolicy { max_overlay: 90 };

    let mut store = ShardedHybridStore::build(&onto, &Graph::new(), 3)
        .unwrap()
        .with_policy(policy);
    // Local ground truth: the same batches through an ordinary session.
    let mut replay = StreamSession::new(
        ShardedHybridStore::build(&onto, &Graph::new(), 2)
            .unwrap()
            .with_policy(policy),
    );

    // Epochs 1..=3 land before the WAL attaches; `attach_wal` then
    // checkpoints the store, so the log never covers them. A follower
    // starting from epoch 0 therefore CANNOT be served records and must
    // take the snapshot bootstrap path.
    for batch in &batches[..3] {
        store.apply_batch(&batch.inserts, &batch.deletes).unwrap();
        replay.apply_batch(&batch.inserts, &batch.deletes).unwrap();
    }
    store.attach_wal(&dir, WalConfig::default()).unwrap();

    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let replica = Replica::start(
        water_ontology(),
        server.addr(),
        "127.0.0.1:0",
        ReplicaConfig {
            shards: 2,
            reconnect: Duration::from_millis(50),
        },
    )
    .unwrap();

    let mut leader = Client::connect(server.addr()).unwrap();
    let mut follower = Client::connect(replica.addr()).unwrap();

    // A live subscription ON THE FOLLOWER: replicas push continuous
    // answers exactly like the leader does.
    let mut sub = Client::connect(replica.addr()).unwrap();
    sub.subscribe(
        "scan",
        "PREFIX sosa: <http://www.w3.org/ns/sosa/> SELECT ?s ?o WHERE { ?s sosa:observes ?o }",
        &QueryOptions::default(),
    )
    .unwrap();

    // Phase A — stream through the snapshot-bootstrapped follower.
    let mut deleted = 0u64;
    for batch in &batches[3..8] {
        deleted += leader
            .ingest(&batch.inserts, &batch.deletes)
            .unwrap()
            .deleted;
        replay.apply_batch(&batch.inserts, &batch.deletes).unwrap();
    }
    let epoch = wait_caught_up(&mut leader, &mut follower);
    assert_eq!(epoch, 8, "3 direct + 5 streamed batches");
    assert_shapes_agree(&mut leader, &mut follower, &replay, epoch, "post-bootstrap");

    // The follower's subscriber got its seed frame from replayed ticks.
    let first = sub.next_push().unwrap();
    assert!(first.initial, "first push is the full answer set");

    // Phase B — force a feed drop; the follower must re-sync (now via
    // WAL records: the log covers its epoch) and keep agreeing.
    replica.force_resync();
    for batch in &batches[8..] {
        deleted += leader
            .ingest(&batch.inserts, &batch.deletes)
            .unwrap()
            .deleted;
        replay.apply_batch(&batch.inserts, &batch.deletes).unwrap();
    }
    let epoch = wait_caught_up(&mut leader, &mut follower);
    assert_eq!(epoch, 12);
    assert_shapes_agree(&mut leader, &mut follower, &replay, epoch, "post-resync");
    assert!(deleted > 0, "the stream must exercise deletions");

    // The scenario really covered compaction, bootstrap and re-sync.
    let ls = leader.stats().unwrap();
    assert!(ls.compactions > 0, "the stream must trigger compactions");
    assert!(ls.replicas >= 1, "the feed must be attached");
    assert_eq!(
        ls.repl_snapshots_served, 1,
        "exactly the initial attach needed a snapshot bootstrap"
    );
    assert!(
        ls.repl_records_shipped >= 9,
        "5 + 4 live ticks plus the re-sync catch-up records"
    );
    let fs = follower.stats().unwrap();
    assert!(fs.repl_resyncs >= 1, "the forced drop must be counted");
    assert_eq!(fs.triples, ls.triples);

    sub.shutdown().unwrap();
    replica.join();
    leader.shutdown().unwrap();
    server.join();
    cleanup(&dir);
}

/// With the WAL attached from epoch 0, a late-joining follower is
/// caught up purely from records — no snapshot bootstrap — and a
/// replica refuses ingest instead of forking history.
#[test]
fn follower_catches_up_from_wal_records_and_stays_read_only() {
    let dir = scratch("records");
    let onto = water_ontology();
    let mut store = ShardedHybridStore::build(&onto, &Graph::new(), 2).unwrap();
    store.attach_wal(&dir, WalConfig::default()).unwrap();
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut leader = Client::connect(server.addr()).unwrap();

    let triple = |i: usize| {
        Triple::new(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/p"),
            Term::iri(format!("http://x/o{i}")),
        )
    };
    for i in 0..5 {
        leader
            .ingest(&Graph::from_triples([triple(i)]), &Graph::new())
            .unwrap();
    }

    let replica = Replica::start(
        water_ontology(),
        server.addr(),
        "127.0.0.1:0",
        ReplicaConfig {
            shards: 2,
            reconnect: Duration::from_millis(50),
        },
    )
    .unwrap();
    let mut follower = Client::connect(replica.addr()).unwrap();
    let epoch = wait_caught_up(&mut leader, &mut follower);
    assert_eq!(epoch, 5);

    // Live shipping after catch-up.
    for i in 5..7 {
        leader
            .ingest(&Graph::from_triples([triple(i)]), &Graph::new())
            .unwrap();
    }
    let epoch = wait_caught_up(&mut leader, &mut follower);
    assert_eq!(epoch, 7);
    let rows = follower
        .query(
            "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }",
            &QueryOptions::default(),
        )
        .unwrap();
    assert_eq!(rows.results.len(), 7);
    assert_eq!(rows.epoch, 7);

    // Pure record catch-up: the WAL covered epoch 0 onwards.
    let ls = leader.stats().unwrap();
    assert_eq!(ls.repl_snapshots_served, 0);
    assert!(ls.repl_records_shipped >= 7);

    // Writes belong on the leader.
    let err = follower
        .ingest(&Graph::from_triples([triple(99)]), &Graph::new())
        .unwrap_err();
    assert!(
        err.to_string().contains("read-only"),
        "unexpected refusal: {err}"
    );
    // The refusal leaves the connection usable.
    assert_eq!(follower.stats().unwrap().epoch, 7);

    follower.shutdown().unwrap();
    replica.join();
    leader.shutdown().unwrap();
    server.join();
    cleanup(&dir);
}

/// A poisoned leader log never serves a catch-up tail. Here the failed
/// fsync comes after the record was written in full, so the tail on disk
/// still reaches the leader's epoch; the leader must bootstrap the late
/// follower from a snapshot anyway, since a poisoned log makes no
/// durability promise.
#[test]
fn poisoned_leader_log_bootstraps_followers_from_a_snapshot() {
    let dir = scratch("poisoned");
    let onto = water_ontology();
    let cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.3,
        seed: 41,
    };
    let batches = generate_stream(&cfg, 4, 3);
    let mut store = ShardedHybridStore::build(&onto, &Graph::new(), 2).unwrap();
    store.attach_wal(&dir, WalConfig::default()).unwrap();
    let mut replay =
        StreamSession::new(ShardedHybridStore::build(&onto, &Graph::new(), 2).unwrap());
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut leader = Client::connect(server.addr()).unwrap();

    for batch in &batches[..3] {
        leader.ingest(&batch.inserts, &batch.deletes).unwrap();
        replay.apply_batch(&batch.inserts, &batch.deletes).unwrap();
    }
    // The last batch's record append succeeds (operation 0 under the
    // directory) and its fsync fails (operation 1): the batch is applied
    // in memory, the ack is an error and the log is poisoned.
    let last = &batches[3];
    fault::arm(&dir, 1, FaultMode::Fail);
    let refused = leader.ingest(&last.inserts, &last.deletes);
    fault::disarm(&dir);
    assert!(refused.is_err(), "a failed fsync must not be acked");
    replay.apply_batch(&last.inserts, &last.deletes).unwrap();
    let before = leader.stats().unwrap();
    assert_eq!(before.wal_poisoned, 1);
    assert_eq!(before.epoch, 4);

    // A follower from epoch 0 attaches to the poisoned leader.
    let replica = Replica::start(
        water_ontology(),
        server.addr(),
        "127.0.0.1:0",
        ReplicaConfig {
            shards: 2,
            reconnect: Duration::from_millis(50),
        },
    )
    .unwrap();
    let mut follower = Client::connect(replica.addr()).unwrap();
    let epoch = wait_caught_up(&mut leader, &mut follower);
    assert_eq!(epoch, 4);
    assert_shapes_agree(&mut leader, &mut follower, &replay, epoch, "poisoned");
    let after = leader.stats().unwrap();
    assert_eq!(
        after.repl_snapshots_served,
        before.repl_snapshots_served + 1,
        "a poisoned log must serve a snapshot, never a tail"
    );

    follower.shutdown().unwrap();
    replica.join();
    leader.shutdown().unwrap();
    server.join();
    cleanup(&dir);
}
