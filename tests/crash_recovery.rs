//! The WAL crash matrix: kill the persistence I/O at **every** single
//! operation of a scripted workload — in both "torn write" and "died
//! just before" flavors, for the 1-shard single store and a 2-shard
//! store — and assert that recovery always lands on a prefix-consistent
//! store:
//!
//! * no acknowledged batch is ever lost (`recovered >= last acked`);
//! * at most the one in-flight batch is in question
//!   (`recovered <= last acked + 1` — the shim persists completed
//!   appends even when the fsync after them dies, so a crash between
//!   append and ack can legitimately recover one epoch *past* the ack);
//! * the recovered store's query answers equal a from-scratch rebuild
//!   replayed to the recovered epoch;
//! * a failed load is only acceptable when the crash predates the very
//!   first manifest rename — before anything was ever acknowledged.
//!
//! The workload interleaves checkpoints (`save`) with appends, so the
//! matrix also covers crashes mid-manifest-rename, mid-checkpoint
//! truncation, and mid-segment-rotation — and proves a checkpoint never
//! truncates a WAL segment the surviving manifest still depends on
//! (recovery's gap check would fail the load).

use se_core::TripleSource;
use se_ontology::Ontology;
use se_rdf::{Graph, Term, Triple};
use se_sparql::QueryOptions;
use se_stream::fault::{self, FaultMode};
use se_stream::persist::SHARD_MANIFEST;
use se_stream::{wal, ShardedHybridStore, StreamError, WalConfig};
use std::path::{Path, PathBuf};

fn iri(s: &str) -> Term {
    Term::iri(format!("http://x/{s}"))
}

fn t(s: &str, p: &str, o: Term) -> Triple {
    Triple::new(iri(s), Term::iri(format!("http://x/{p}")), o)
}

fn ty(s: &str, c: &str) -> Triple {
    Triple::new(iri(s), Term::iri(se_rdf::vocab::rdf::TYPE), iri(c))
}

fn ontology() -> Ontology {
    let mut o = Ontology::new();
    o.add_class("http://x/C2", "http://x/C1");
    o.add_property("http://x/worksFor", "http://x/memberOf");
    o.add_object_property("http://x/knows");
    o.add_datatype_property("http://x/age");
    o
}

fn seed_graph() -> Graph {
    Graph::from_triples([
        ty("a", "C2"),
        ty("b", "C1"),
        t("a", "knows", iri("b")),
        t("a", "worksFor", iri("org")),
        t("b", "memberOf", iri("org")),
        t("a", "age", Term::literal("42")),
    ])
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("se-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Batches applied one per epoch. Every batch changes the probe
/// answers, so a store recovered to the wrong epoch cannot pass the
/// answer comparison by accident; from epoch 2 on each batch also
/// deletes, so WAL records carry both sides.
const N_BATCHES: usize = 6;
/// Mid-workload checkpoints: after these batches the workload saves,
/// exercising manifest renames and WAL truncation under fire.
const SAVE_AFTER: [usize; 2] = [2, 4];

fn batch(i: usize) -> (Graph, Graph) {
    if i == 0 {
        let inserts = Graph::from_triples([
            t("c", "knows", iri("a")),
            ty("c", "C2"),
            t("newSensor", "emits", iri("a")),
            ty("newSensor", "NewKind"),
            t("newSensor", "reading", Term::literal("7.5")),
            t("c", "age", Term::literal("7")),
        ]);
        let deletes = Graph::from_triples([t("a", "knows", iri("b")), ty("b", "C1")]);
        return (inserts, deletes);
    }
    let inserts = Graph::from_triples([
        t(&format!("w{i}"), "knows", iri("hub")),
        ty(&format!("w{i}"), "NewKind"),
        t(&format!("w{i}"), "reading", Term::literal("7.5")),
    ]);
    let deletes = if i >= 2 {
        Graph::from_triples([t(&format!("w{}", i - 1), "knows", iri("hub"))])
    } else {
        Graph::new()
    };
    (inserts, deletes)
}

/// Queries probing tombstones, overlay inserts, overflow reasoning and
/// overlay literals — their answers change on every batch.
fn probe_queries() -> Vec<(String, QueryOptions)> {
    let q = |text: &str| format!("PREFIX e: <http://x/> {text}");
    vec![
        (
            q("SELECT ?s ?o WHERE { ?s e:knows ?o }"),
            QueryOptions::default(),
        ),
        (
            q("SELECT ?s WHERE { ?s e:memberOf e:org }"),
            QueryOptions::default(),
        ),
        (q("SELECT ?s WHERE { ?s a e:C1 }"), QueryOptions::default()),
        (
            q("SELECT ?s WHERE { ?s e:reading \"7.5\" }"),
            QueryOptions::default(),
        ),
        (
            q("SELECT ?s WHERE { ?s a e:NewKind }"),
            QueryOptions::default(),
        ),
    ]
}

fn answers<S: TripleSource>(store: &S) -> Vec<Vec<String>> {
    probe_queries()
        .iter()
        .map(|(text, opts)| {
            let rs = se_sparql::execute_query(store, text, opts).unwrap();
            let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        })
        .collect()
}

/// Small segments so the workload rotates several times (every record
/// is fsynced, so an `Ok` apply is an acknowledged-durable batch).
fn wal_config() -> WalConfig {
    WalConfig { segment_bytes: 256 }
}

/// A freshly built store over the seed graph with `shards` shards.
fn fresh(shards: usize) -> ShardedHybridStore {
    ShardedHybridStore::build(&ontology(), &seed_graph(), shards).unwrap()
}

fn restore(dir: &Path) -> Result<ShardedHybridStore, StreamError> {
    ShardedHybridStore::load(dir, &ontology())
}

/// Runs the scripted workload over `dir`, stopping at the first failed
/// apply (the injected crash) and returning the last acked epoch.
/// Checkpoint failures don't stop the script: a real writer keeps
/// appending after a failed background save (until the dead scope makes
/// its next apply fail too).
fn workload(shards: usize, dir: &Path) -> u64 {
    let mut store = fresh(shards);
    if store.attach_wal(dir, wal_config()).is_err() {
        return 0;
    }
    let mut acked = store.epoch();
    for i in 0..N_BATCHES {
        let (ins, del) = batch(i);
        if store.apply(&ins, &del).is_err() {
            return acked;
        }
        acked = store.epoch();
        if SAVE_AFTER.contains(&i) {
            let _ = store.save(dir);
        }
    }
    acked
}

/// Expected probe answers at every epoch 0..=N_BATCHES, from a
/// from-scratch rebuild that never touches disk.
fn expected_answers(shards: usize) -> Vec<Vec<Vec<String>>> {
    let mut store = fresh(shards);
    let mut per_epoch = vec![answers(&store)];
    for i in 0..N_BATCHES {
        let (ins, del) = batch(i);
        store.apply(&ins, &del).unwrap();
        per_epoch.push(answers(&store));
    }
    // Every batch must move the answers, or the epoch comparison below
    // could pass vacuously.
    for w in per_epoch.windows(2) {
        assert_ne!(w[0], w[1], "probe answers must change every epoch");
    }
    per_epoch
}

fn crash_matrix(shards: usize, mode: FaultMode) {
    let expected = expected_answers(shards);
    let tag = format!("{shards}-shard");

    // Count the workload's I/O operations with a trigger that never
    // fires, then kill each one in turn.
    let count_dir = scratch(&format!("{tag}-count-{mode:?}"));
    fault::arm(&count_dir, u64::MAX, FaultMode::Crash);
    let full = workload(shards, &count_dir);
    let total_ops = fault::disarm(&count_dir);
    cleanup(&count_dir);
    assert_eq!(full, N_BATCHES as u64, "un-faulted workload must finish");
    assert!(total_ops > 20, "workload too small to be a matrix");

    for nth in 0..total_ops {
        let dir = scratch(&format!("{tag}-{mode:?}-{nth}"));
        fault::arm(&dir, nth, mode);
        let acked = workload(shards, &dir);
        fault::disarm(&dir);

        match restore(&dir) {
            Ok(back) => {
                let recovered = back.epoch();
                assert!(
                    recovered >= acked,
                    "{tag} op {nth} {mode:?}: acked epoch {acked} lost, recovered {recovered}"
                );
                assert!(
                    recovered <= acked + 1,
                    "{tag} op {nth} {mode:?}: recovered {recovered} past the in-flight batch \
                     (acked {acked})"
                );
                assert_eq!(
                    answers(&back),
                    expected[recovered as usize],
                    "{tag} op {nth} {mode:?}: recovered epoch {recovered} does not match a \
                     from-scratch rebuild"
                );
            }
            Err(e) => {
                // Only a crash before the first manifest rename leaves
                // nothing to load — and by then nothing was acked.
                assert_eq!(
                    acked, 0,
                    "{tag} op {nth} {mode:?}: load failed ({e}) after epoch {acked} was acked"
                );
                assert!(
                    !dir.join(SHARD_MANIFEST).exists(),
                    "{tag} op {nth} {mode:?}: manifest present but load failed: {e}"
                );
            }
        }
        cleanup(&dir);
    }
}

/// The single-store configuration: one shard, one overlay.
#[test]
fn hybrid_survives_a_crash_at_every_io_operation() {
    crash_matrix(1, FaultMode::Crash);
}

/// The single-store configuration: one shard, one overlay.
#[test]
fn hybrid_survives_a_torn_write_at_every_io_operation() {
    crash_matrix(1, FaultMode::ShortWrite);
}

#[test]
fn sharded_survives_a_crash_at_every_io_operation() {
    crash_matrix(2, FaultMode::Crash);
}

#[test]
fn sharded_survives_a_torn_write_at_every_io_operation() {
    crash_matrix(2, FaultMode::ShortWrite);
}

/// Satellite: checkpoints racing the append stream. With segments small
/// enough to rotate every record or two and a save after every batch,
/// truncation constantly runs right behind the writing edge — and no
/// checkpoint may ever remove a segment the manifest still needs (the
/// gap check in recovery would refuse the load).
#[test]
fn interleaved_checkpoints_never_truncate_needed_segments() {
    let dir = scratch("interleave");
    let mut store = fresh(1);
    store
        .attach_wal(
            &dir,
            WalConfig {
                segment_bytes: 1, // rotate on every append
            },
        )
        .unwrap();
    for i in 0..N_BATCHES {
        let (ins, del) = batch(i);
        store.apply(&ins, &del).unwrap();
        if i % 2 == 1 {
            store.save(&dir).unwrap();
        }
        // Every intermediate state must load: manifest + surviving
        // segments always cover a consecutive prefix.
        let back = restore(&dir).unwrap();
        assert_eq!(back.epoch(), store.epoch(), "after batch {i}");
        assert_eq!(answers(&back), answers(&store), "after batch {i}");
    }
    cleanup(&dir);
}

/// A transiently failing append poisons the attached WAL: the store
/// keeps answering queries but refuses to take batches it cannot make
/// durable, and a restart (or a successful save) recovers cleanly.
#[test]
fn transient_append_failure_refuses_later_batches_until_recovery() {
    let dir = scratch("transient");
    let mut store = fresh(1);
    store.attach_wal(&dir, wal_config()).unwrap();
    let (ins, del) = batch(0);
    store.apply(&ins, &del).unwrap();

    // One transient I/O failure on the next disk touch.
    fault::arm(&dir, 0, FaultMode::Fail);
    let (ins, del) = batch(1);
    assert!(store.apply(&ins, &del).is_err());
    fault::disarm(&dir);

    // The log's tail is suspect: further batches are refused rather
    // than appended behind a possibly-torn record.
    let (ins2, del2) = batch(2);
    assert!(store.apply(&ins2, &del2).is_err());

    // A restart replays only the durable prefix — epoch 1, the batch
    // that was acked.
    let back = restore(&dir).unwrap();
    assert_eq!(back.epoch(), 1);

    // And a successful save on the live store heals the log in place.
    store.save(&dir).unwrap();
    let (ins3, del3) = batch(3);
    store.apply(&ins3, &del3).unwrap();
    let back = restore(&dir).unwrap();
    assert_eq!(back.epoch(), store.epoch());
    assert_eq!(answers(&back), answers(&store));
    cleanup(&dir);
}

/// Regression for the hostile-length class: a syntactically valid WAL
/// record whose triple counts claim astronomical sizes must fail with a
/// clean `Corrupt`, not abort the process on a giant pre-allocation.
#[test]
fn hostile_wal_record_lengths_error_instead_of_allocating() {
    use se_sds::{write_container_header, write_section, WriteBin};
    let dir = scratch("hostile");
    std::fs::create_dir_all(&dir).unwrap();
    let mut seg = Vec::new();
    write_container_header(&mut seg, wal::WAL_MAGIC, wal::WAL_VERSION).unwrap();
    let mut payload = Vec::new();
    payload.write_u64(1).unwrap(); // epoch
    payload.write_u64(u64::MAX / 2).unwrap(); // "added" count: ~8 EB
    write_section(&mut seg, b"WREC", &payload).unwrap();
    std::fs::write(dir.join("wal-1.seg"), &seg).unwrap();
    // The checksum is valid, so this is not a torn tail — it is a
    // well-formed frame with hostile content.
    assert!(matches!(
        wal::recover(&dir, 0),
        Err(StreamError::Corrupt(_))
    ));
    cleanup(&dir);
}
