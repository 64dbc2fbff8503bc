//! The v02 delta-aware persistence contract, for the 1-shard single store
//! and multi-shard stores:
//!
//! * `save` is `&self`, performs **no compaction**, and writes the raw
//!   overlay (added triples, tombstones with full `DeltaState` semantics,
//!   overflow dictionaries, interned literals);
//! * a steady-state save rewrites nothing baseline-sized — only the
//!   O(delta) manifest/overlay files;
//! * `load` restores the merged view bit-identically, ids stable;
//! * every corruption class — truncation, bad magic, versions from the
//!   future, checksum mismatch, dangling manifest references — surfaces
//!   as a clean `StreamError`, never a panic;
//! * a plain file is refused: a store is a directory;
//! * stores saved with the retired hashed or custom routing load with
//!   every route kept;
//! * a checkpointed `StreamSession` resumes its continuous queries.

use se_core::{SuccinctEdgeStore, TripleSource};
use se_ontology::Ontology;
use se_rdf::{Graph, Term, Triple};
use se_sparql::QueryOptions;
use se_stream::persist::SHARD_MANIFEST;
use se_stream::{CompactionPolicy, ShardedHybridStore, StreamError, StreamSession, OVERFLOW_BASE};
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

/// The single-store configuration: one shard.
fn single_store() -> ShardedHybridStore {
    ShardedHybridStore::build(&ontology(), &seed_graph(), 1).unwrap()
}

/// Dirties a store through its generic batch entry point: baseline
/// tombstones, overlay inserts, overflow terms and overlay literals.
fn dirty_batch() -> (Graph, Graph) {
    let inserts = Graph::from_triples([
        t("c", "knows", iri("a")),
        ty("c", "C2"),
        t("newSensor", "emits", iri("a")),
        ty("newSensor", "NewKind"),
        t("newSensor", "reading", Term::literal("7.5")),
        t("c", "age", Term::literal("7")),
    ]);
    let deletes = Graph::from_triples([t("a", "knows", iri("b")), ty("b", "C1")]);
    (inserts, deletes)
}

fn norm(g: &Graph) -> Vec<String> {
    let mut v: Vec<String> = g.iter().map(|t| t.to_string()).collect();
    v.sort();
    v
}

/// Fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("se-v02-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Queries probing tombstones, overlay inserts, overflow reasoning and
/// overlay literals — evaluated identically pre- and post-restart.
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
            q("SELECT ?s WHERE { ?s a e:C1 }"),
            QueryOptions::without_reasoning(),
        ),
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

// ------------------------------------------------------------ round trips

#[test]
fn hybrid_v02_roundtrip_preserves_dirty_view_without_compacting() {
    let dir = scratch("hybrid-rt");
    let mut h = single_store();
    let (ins, del) = dirty_batch();
    h.apply(&ins, &del).unwrap();
    let overlay_before = h.overlay_len();
    assert!(overlay_before > 0, "the store must be dirty");

    let compactions_before = h.stats().compactions;
    let report = h.save(&dir).unwrap();
    // &self save: no compaction, overlay untouched, snapshot captured it.
    assert_eq!(h.stats().compactions, compactions_before);
    assert_eq!(h.overlay_len(), overlay_before);
    assert_eq!(report.overlay_entries, overlay_before);
    assert_eq!(
        report.baseline_files_written, 2,
        "first save writes the layer file and the dictionary file"
    );

    let back = ShardedHybridStore::load(&dir, &ontology()).unwrap();
    assert_eq!(back.shard_count(), 1);
    assert_eq!(TripleSource::len(&back), TripleSource::len(&h));
    assert_eq!(norm(&back.materialize()), norm(&h.materialize()));
    assert_eq!(answers(&back), answers(&h));
    // Ids survive: overflow terms keep their overflow ids.
    assert_eq!(
        back.property_id("http://x/emits"),
        h.property_id("http://x/emits")
    );
    assert!(back.property_id("http://x/emits").unwrap() >= OVERFLOW_BASE);
    // Tombstone still masks the baseline triple.
    let knows = back.property_id("http://x/knows").unwrap();
    let a = back.instance_id(&iri("a")).unwrap();
    assert!(back.objects(knows, a).is_empty());

    // Both continue identically after the restart.
    let mut live = h;
    let mut back = back;
    let post = Graph::from_triples([t("d", "knows", iri("a")), t("a", "knows", iri("b"))]);
    live.apply(&post, &Graph::new()).unwrap();
    back.apply(&post, &Graph::new()).unwrap();
    assert_eq!(norm(&back.materialize()), norm(&live.materialize()));
    assert_eq!(answers(&back), answers(&live));
    cleanup(&dir);
}

#[test]
fn hybrid_steady_state_save_skips_the_baseline() {
    let dir = scratch("hybrid-steady");
    let mut h = single_store();
    let (ins, del) = dirty_batch();
    h.apply(&ins, &del).unwrap();
    let first = h.save(&dir).unwrap();
    assert_eq!(first.baseline_files_written, 2, "layers + dictionaries");

    // More overlay, same baseline: O(delta) save.
    h.apply(
        &Graph::from_triples([t("d", "knows", iri("a"))]),
        &Graph::new(),
    )
    .unwrap();
    let second = h.save(&dir).unwrap();
    assert_eq!(second.baseline_files_written, 0, "baseline reused");
    assert!(second.delta_bytes > 0);

    // A compaction swaps the layers: the next save rewrites them (the
    // frozen dictionaries never change).
    h.compact_shard(0);
    let third = h.save(&dir).unwrap();
    assert_eq!(third.baseline_files_written, 1, "new generation written");

    // The reloaded store still matches.
    let back = ShardedHybridStore::load(&dir, &ontology()).unwrap();
    assert_eq!(norm(&back.materialize()), norm(&h.materialize()));

    // And a load→save cycle is steady-state too (nothing re-serialized).
    let re = back.save(&dir).unwrap();
    assert_eq!(re.baseline_files_written, 0, "loaded mark reused");
    cleanup(&dir);
}

/// A 3-shard store that compacted inline mid-stream round-trips through
/// a v02 save/load and keeps agreeing with the live store batch for
/// batch.
#[test]
fn sharded_v02_roundtrip_after_inline_compactions() {
    let dir = scratch("sharded-rt");
    let mut h = ShardedHybridStore::build(&ontology(), &seed_graph(), 3)
        .unwrap()
        .with_policy(CompactionPolicy { max_overlay: 4 });
    let (ins, del) = dirty_batch();
    h.apply(&ins, &del).unwrap();
    for round in 0..6 {
        h.apply(
            &Graph::from_triples([
                t(&format!("s{round}"), "knows", iri("hub")),
                t(
                    &format!("s{round}"),
                    "age",
                    Term::literal(format!("{round}")),
                ),
            ]),
            &Graph::new(),
        )
        .unwrap();
    }
    // Save compacted layers plus the overlay written since: the snapshot
    // is the current layers + overlay, consistent by construction.
    let compactions_before = h.stats().compactions;
    assert!(compactions_before >= 1, "the stream must compact a shard");
    let report = h.save(&dir).unwrap();
    assert_eq!(
        h.stats().compactions,
        compactions_before,
        "save never compacts"
    );
    assert!(
        report.baseline_files_written > 0,
        "first save writes layers"
    );

    let back = ShardedHybridStore::load(&dir, &ontology()).unwrap();
    assert_eq!(back.shard_count(), 3);
    assert_eq!(TripleSource::len(&back), TripleSource::len(&h));
    assert_eq!(norm(&back.materialize()), norm(&h.materialize()));
    assert_eq!(answers(&back), answers(&h));
    // Ids stable — no re-encode on load.
    for term in ["knows", "memberOf", "emits", "reading"] {
        let iri = format!("http://x/{term}");
        assert_eq!(back.property_id(&iri), h.property_id(&iri), "{term}");
    }
    assert_eq!(back.instance_id(&iri("s3")), h.instance_id(&iri("s3")));

    // Live and reloaded stores keep agreeing batch for batch.
    let mut live = h;
    let mut back = back;
    for round in 0..4 {
        let ins = Graph::from_triples([
            t(&format!("p{round}"), "knows", iri("hub")),
            ty(&format!("p{round}"), "NewKind"),
        ]);
        let del = Graph::from_triples([t(&format!("s{round}"), "knows", iri("hub"))]);
        let rl = live.apply(&ins, &del).unwrap();
        let rb = back.apply(&ins, &del).unwrap();
        assert_eq!((rl.inserted, rl.deleted), (rb.inserted, rb.deleted));
    }
    assert_eq!(norm(&back.materialize()), norm(&live.materialize()));
    assert_eq!(answers(&back), answers(&live));
    cleanup(&dir);
}

#[test]
fn sharded_steady_state_save_is_o_delta() {
    let dir = scratch("sharded-steady");
    let mut h = ShardedHybridStore::build(&ontology(), &seed_graph(), 3).unwrap();
    h.apply(
        &Graph::from_triples([t("c", "knows", iri("a"))]),
        &Graph::new(),
    )
    .unwrap();
    let first = h.save(&dir).unwrap();
    assert_eq!(
        first.baseline_files_written,
        4, // 3 shard layer files + the frozen dictionary file
        "first save writes every baseline-side file"
    );

    // Dirty the overlay only: nothing baseline-sized is rewritten.
    h.apply(
        &Graph::from_triples([t("d", "knows", iri("a"))]),
        &Graph::new(),
    )
    .unwrap();
    let second = h.save(&dir).unwrap();
    assert_eq!(second.baseline_files_written, 0, "steady state is O(delta)");

    // Compact one shard: exactly that shard's layer file is rewritten.
    for shard in 0..h.shard_count() {
        if h.shard_overlay_len(shard) > 0 {
            h.compact_shard(shard);
        }
    }
    let third = h.save(&dir).unwrap();
    assert!(
        third.baseline_files_written >= 1 && third.baseline_files_written < 4,
        "only compacted shards rewrite their layers (got {})",
        third.baseline_files_written
    );

    let back = ShardedHybridStore::load(&dir, &ontology()).unwrap();
    assert_eq!(norm(&back.materialize()), norm(&h.materialize()));
    let re = back.save(&dir).unwrap();
    assert_eq!(re.baseline_files_written, 0, "load→save reuses everything");
    cleanup(&dir);
}

/// Regression: overlay/layer file names must be unique per *directory*,
/// not per process — a restarted process whose generation counters start
/// over must never overwrite the files the on-disk manifest references
/// (that would break crash atomicity: old manifest + new bytes).
#[test]
fn resave_after_restart_never_overwrites_referenced_files() {
    let dir = scratch("restart-names");
    let mut h = ShardedHybridStore::build(&ontology(), &seed_graph(), 3).unwrap();
    let (ins, del) = dirty_batch();
    h.apply(&ins, &del).unwrap();
    h.save(&dir).unwrap();
    let overlays = |d: &Path| -> std::collections::BTreeSet<String> {
        std::fs::read_dir(d)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".overlay"))
            .collect()
    };
    let referenced = overlays(&dir);
    // "Restart": a fresh process image loads the manifest and saves again.
    let back = ShardedHybridStore::load(&dir, &ontology()).unwrap();
    back.save(&dir).unwrap();
    let after = overlays(&dir);
    assert!(
        referenced.is_disjoint(&after),
        "resave minted fresh names ({referenced:?} vs {after:?}) — never \
         an in-place overwrite of referenced snapshot files"
    );
    // And the directory is still a consistent, loadable snapshot.
    let again = ShardedHybridStore::load(&dir, &ontology()).unwrap();
    assert_eq!(norm(&again.materialize()), norm(&back.materialize()));
    cleanup(&dir);
}

// ------------------------------------------------ legacy routing tags

/// A 4-shard store saved by an earlier build whose manifest carries the
/// retired routing tag `tag`: `"hash_iri"` (FNV-1a of the IRI modulo the
/// shard count) or `"custom"` (a caller closure sending every term to
/// shard 0). Each holds [`seed_graph`] after one batch that tombstoned a
/// baseline triple and inserted an overflow property, an overflow
/// concept and an overlay literal.
fn legacy_fixture(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/legacy_routing")
        .join(tag)
}

/// The shard the retired rule `tag` routed `iri` to.
fn legacy_route(tag: &str, iri: &str) -> usize {
    match tag {
        "hash_iri" => (se_sds::checksum64(iri.as_bytes()) % 4) as usize,
        _ => 0,
    }
}

/// The graph both legacy fixtures hold.
fn legacy_saved_graph() -> Graph {
    Graph::from_triples([
        ty("a", "C2"),
        ty("b", "C1"),
        t("a", "worksFor", iri("org")),
        t("b", "memberOf", iri("org")),
        t("a", "age", Term::literal("42")),
        t("c", "knows", iri("a")),
        t("x", "freshProp", iri("a")),
        ty("c", "NewKind"),
        t("c", "age", Term::literal("7")),
    ])
}

/// Routing is round robin only, but manifests tagged by the retired
/// routing rules still load: every route they assigned is kept, terms
/// first seen after the restart continue round robin, and the next save
/// round-trips.
#[test]
fn legacy_routing_tags_load_and_keep_routes() {
    for tag in ["hash_iri", "custom"] {
        let mut back = ShardedHybridStore::load(&legacy_fixture(tag), &ontology()).unwrap();
        assert_eq!(back.shard_count(), 4, "{tag}");
        assert_eq!(
            norm(&back.materialize()),
            norm(&legacy_saved_graph()),
            "{tag}"
        );
        // The ids the saving store reported before it saved.
        assert_eq!(back.property_id("http://x/worksFor"), Some(15), "{tag}");
        assert_eq!(
            back.property_id("http://x/freshProp"),
            Some(OVERFLOW_BASE),
            "{tag}"
        );

        // Fresh inserts land on the shard each property was routed to
        // before the save, and are queryable; a new property is too.
        for p in ["knows", "freshProp"] {
            let shard = legacy_route(tag, &format!("http://x/{p}"));
            let before = back.shard_overlay_len(shard);
            back.apply(&Graph::from_triples([t("z", p, iri("a"))]), &Graph::new())
                .unwrap();
            assert_eq!(
                back.shard_overlay_len(shard),
                before + 1,
                "{tag}: {p} kept its route"
            );
        }
        back.apply(
            &Graph::from_triples([t("z", "newerProp", iri("b"))]),
            &Graph::new(),
        )
        .unwrap();
        for (p, expected) in [("knows", 2), ("freshProp", 2), ("newerProp", 1)] {
            let q = format!("PREFIX e: <http://x/> SELECT ?s ?o WHERE {{ ?s e:{p} ?o }}");
            let rs = se_sparql::execute_query(&back, &q, &QueryOptions::default()).unwrap();
            assert_eq!(rs.rows.len(), expected, "{tag}: {p}");
        }

        // Save -> load round trip (the save writes the round-robin tag).
        let dir = scratch(&format!("legacy-{tag}"));
        back.save(&dir).unwrap();
        let again = ShardedHybridStore::load(&dir, &ontology()).unwrap();
        assert_eq!(
            norm(&again.materialize()),
            norm(&back.materialize()),
            "{tag}"
        );
        for p in ["worksFor", "freshProp", "newerProp"] {
            let p = format!("http://x/{p}");
            assert_eq!(again.property_id(&p), back.property_id(&p), "{tag}: {p}");
        }
        cleanup(&dir);
    }
}

// ------------------------------------------------------- plain files

/// A store is a directory: the streaming loader refuses a plain file
/// cleanly instead of misreading it.
#[test]
fn plain_file_is_not_a_store_directory() {
    let dir = scratch("plain-file");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.bin");
    let original = SuccinctEdgeStore::build(&ontology(), &seed_graph()).unwrap();
    let layers = se_core::Baseline {
        objects: original.object_layer().clone(),
        datatypes: original.datatype_layer().clone(),
        types: original.type_store().clone(),
    };
    std::fs::write(&path, layers.to_layer_file()).unwrap();
    assert!(ShardedHybridStore::load(&path, &ontology()).is_err());
    cleanup(&dir);
}

// ---------------------------------------------------- corruption handling

/// Saves a dirty store with `shards` shards into a fresh directory.
fn saved(name: &str, shards: usize) -> PathBuf {
    let dir = scratch(name);
    let mut h = ShardedHybridStore::build(&ontology(), &seed_graph(), shards).unwrap();
    let (ins, del) = dirty_batch();
    h.apply(&ins, &del).unwrap();
    h.save(&dir).unwrap();
    dir
}

fn load(dir: &Path) -> Result<ShardedHybridStore, StreamError> {
    ShardedHybridStore::load(dir, &ontology())
}

/// Deletes every file in `dir` whose name ends with `suffix`.
fn remove_files_ending(dir: &Path, suffix: &str) {
    for entry in std::fs::read_dir(dir).unwrap().filter_map(|e| e.ok()) {
        if entry.file_name().to_string_lossy().ends_with(suffix) {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }
}

/// The first file in `dir` whose name ends with `suffix`.
fn file_ending(dir: &Path, suffix: &str) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(suffix))
        .unwrap_or_else(|| panic!("no *{suffix} file"))
        .path()
}

fn clobber(path: &Path, offset: usize, byte: u8) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[offset] = byte;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn truncated_manifests_error_cleanly() {
    for (name, shards) in [("trunc-1", 1), ("trunc-3", 3)] {
        let dir = saved(name, shards);
        let path = dir.join(SHARD_MANIFEST);
        let full = std::fs::read(&path).unwrap();
        // Cut at several depths: inside the header, inside a section
        // header, inside a payload.
        for cut in [4, 14, full.len() - 5] {
            std::fs::write(&path, &full[..cut]).unwrap();
            match load(&dir).err() {
                Some(StreamError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
        cleanup(&dir);
    }
}

#[test]
fn bad_magic_errors_cleanly() {
    // The manifest, and a layer file it references.
    for (name, file) in [("magic-m", SHARD_MANIFEST), ("magic-l", ".layers")] {
        let dir = saved(name, 1);
        let path = file_ending(&dir, file);
        clobber(&path, 0, b'X');
        assert!(matches!(
            load(&dir),
            Err(StreamError::Corrupt(msg)) if msg.contains("magic")
        ));
        cleanup(&dir);
    }
}

#[test]
fn future_versions_are_rejected_with_the_version_error() {
    // The version u32 sits right after the 8-byte magic — in the
    // manifest and in every file it references.
    for (name, file) in [("ver-m", SHARD_MANIFEST), ("ver-o", ".overlay")] {
        let dir = saved(name, 3);
        let path = file_ending(&dir, file);
        clobber(&path, 8, 99);
        assert!(matches!(
            load(&dir),
            Err(StreamError::UnsupportedVersion {
                found: 99,
                max_supported: 2
            })
        ));
        cleanup(&dir);
    }
}

#[test]
fn overlay_checksum_mismatch_errors_cleanly() {
    // The manifest, and a shard's overlay file.
    for (name, file) in [("sum-m", SHARD_MANIFEST), ("sum-o", ".overlay")] {
        let dir = saved(name, 3);
        let path = file_ending(&dir, file);
        let len = std::fs::read(&path).unwrap().len();
        // Flip one bit inside the last section's payload (the trailing 8
        // bytes are its checksum; 9 bytes back is payload).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[len - 9] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        match load(&dir).err() {
            Some(StreamError::Corrupt(msg)) => {
                assert!(msg.contains("checksum"), "got: {msg}")
            }
            other => panic!("expected Corrupt(checksum), got {other:?}"),
        }
        cleanup(&dir);
    }
}

#[test]
fn baseline_corruption_is_detected() {
    // Baseline-side files — the frozen dictionaries and the shard layers
    // — carry their own checksummed sections. Flip a byte deep inside.
    for (name, shards, suffix) in [("base-d", 1, ".bin"), ("base-l", 3, ".layers")] {
        let dir = saved(name, shards);
        let path = file_ending(&dir, suffix);
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        clobber(&path, len / 2, 0xAB);
        assert!(
            matches!(load(&dir), Err(StreamError::Corrupt(_))),
            "corrupt *{suffix} must not load"
        );
        cleanup(&dir);
    }
}

#[test]
fn dangling_manifest_references_error_cleanly() {
    for (name, shards, suffix) in [("dangle-l", 1, ".layers"), ("dangle-o", 3, ".overlay")] {
        let dir = saved(name, shards);
        remove_files_ending(&dir, suffix);
        assert!(
            matches!(
                load(&dir),
                Err(StreamError::Corrupt(msg)) if msg.contains("missing")
            ),
            "missing *{suffix} must not load"
        );
        cleanup(&dir);
    }
}

// ------------------------------------------------------- session recovery

#[test]
fn session_checkpoint_resumes_continuous_queries() {
    let dir = scratch("session");
    let mut session = StreamSession::new(single_store());
    session
        .register_query(
            "members",
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:memberOf e:org }",
            QueryOptions::default(),
        )
        .unwrap();
    session
        .register_query(
            "people",
            "PREFIX e: <http://x/> SELECT ?s WHERE { ?s a e:C1 }",
            QueryOptions::without_reasoning(),
        )
        .unwrap();
    let live = session
        .apply_batch(
            &Graph::from_triples([t("c", "worksFor", iri("org")), ty("c", "C1")]),
            &Graph::new(),
        )
        .unwrap();

    session.save(&dir).unwrap();
    drop(session);

    let mut resumed = StreamSession::resume(&dir, &ontology()).unwrap();
    assert_eq!(resumed.registry().len(), 2, "queries re-registered");
    // The resumed session answers the next batch exactly as the live one
    // would have (empty batch → same post-state answers).
    let replay = resumed.apply_batch(&Graph::new(), &Graph::new()).unwrap();
    for (a, b) in live.results.iter().zip(&replay.results) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.results.len(), b.results.len(), "query '{}'", a.id);
    }
    // Options survived: "people" still runs without reasoning.
    let people = resumed
        .registry()
        .iter()
        .find(|q| q.id == "people")
        .unwrap();
    assert!(!people.options.reasoning);
    cleanup(&dir);
}

/// Checkpoints from before the optimizer switches were retired stored
/// `reasoning, optimize, merge_join` per query. The last two bytes are
/// now reserved: any value resumes, and only `reasoning` is kept.
#[test]
fn session_checkpoint_with_old_option_bytes_resumes() {
    use se_sds::{write_container_header, write_section, WriteBin};
    let dir = scratch("session-old-options");
    single_store().save(&dir).unwrap();
    let queries = [
        (
            "members",
            "SELECT ?s WHERE { ?s e:memberOf e:org }",
            [1, 0, 1],
        ),
        ("people", "SELECT ?s WHERE { ?s a e:C1 }", [0, 1, 0]),
    ];
    let mut qrys = Vec::new();
    qrys.write_u64(queries.len() as u64).unwrap();
    for (id, body, bytes) in queries {
        qrys.write_str(id).unwrap();
        qrys.write_str(&format!("PREFIX e: <http://x/> {body}"))
            .unwrap();
        for b in bytes {
            qrys.write_u8(b).unwrap();
        }
    }
    let mut file = Vec::new();
    write_container_header(&mut file, b"SESSNv02", se_stream::persist::FORMAT_VERSION).unwrap();
    write_section(&mut file, b"QRYS", &qrys).unwrap();
    std::fs::write(dir.join(se_stream::persist::SESSION_FILE), &file).unwrap();

    let mut resumed = StreamSession::resume(&dir, &ontology()).unwrap();
    let reasoning: Vec<(String, bool)> = resumed
        .registry()
        .iter()
        .map(|q| (q.id.clone(), q.options.reasoning))
        .collect();
    assert_eq!(
        reasoning,
        [("members".to_string(), true), ("people".to_string(), false)]
    );
    let out = resumed.apply_batch(&Graph::new(), &Graph::new()).unwrap();
    let fresh = StreamSession::new(single_store());
    let want: Vec<usize> = [QueryOptions::default(), QueryOptions::without_reasoning()]
        .iter()
        .zip(queries)
        .map(|(opts, (_, body, _))| {
            se_sparql::execute_query(
                fresh.store(),
                &format!("PREFIX e: <http://x/> {body}"),
                opts,
            )
            .unwrap()
            .len()
        })
        .collect();
    let got: Vec<usize> = out.results.iter().map(|r| r.results.len()).collect();
    assert_eq!(got, want);
    cleanup(&dir);
}
