//! Persistence at system scale, on the one on-disk format (the v02 store
//! directory): a saved-and-reloaded store must answer the whole workload
//! exactly like the original (the paper's administration model ships
//! pre-encoded stores/dictionaries to edge devices, §4), the paper's
//! Figure 9/10 size accounting must equal the bytes a save writes, and
//! layer files must re-encode byte for byte.

use se_core::{Baseline, SuccinctEdgeStore, TripleSource};
use se_datagen::{lubm, workload};
use se_ontology::lubm_ontology;
use se_sds::read_section_from;
use se_sparql::{execute_query, QueryOptions, ResultSet};
use se_stream::ShardedHybridStore;
use std::path::{Path, PathBuf};

fn normalize(rs: &ResultSet) -> Vec<String> {
    let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("se-persist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The files of `dir` whose names start with `prefix` and end with
/// `suffix`, sorted by name.
fn files(dir: &Path, prefix: &str, suffix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with(prefix) && name.ends_with(suffix)
        })
        .collect();
    out.sort();
    out
}

/// `(tag, payload length)` of every section of a v02 container file.
fn sections(path: &Path) -> Vec<(String, usize)> {
    let bytes = std::fs::read(path).unwrap();
    let mut rest = &bytes[12..];
    let mut out = Vec::new();
    while !rest.is_empty() {
        let (tag, payload, used) = read_section_from(rest).unwrap();
        out.push((String::from_utf8_lossy(&tag).into_owned(), payload.len()));
        rest = &rest[used..];
    }
    out
}

#[test]
fn saved_store_answers_the_workload_identically() {
    let mut graph = lubm::generate(1, 42);
    graph.truncate(5_000);
    let onto = lubm_ontology();
    let original = SuccinctEdgeStore::build(&onto, &graph).unwrap();

    let dir = scratch("workload");
    ShardedHybridStore::build(&onto, &graph, 1)
        .unwrap()
        .save(&dir)
        .unwrap();
    let reloaded = ShardedHybridStore::load(&dir, &onto).unwrap();
    assert_eq!(reloaded.len(), original.len());

    for wq in workload::full_workload(&graph) {
        let opts = if wq.reasoning {
            QueryOptions::default()
        } else {
            QueryOptions::without_reasoning()
        };
        let a = execute_query(&original, &wq.text, &opts).unwrap();
        let b = execute_query(&reloaded, &wq.text, &opts).unwrap();
        assert_eq!(normalize(&a), normalize(&b), "query {}", wq.id);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persisted_file_size_matches_figures_9_and_10_accounting() {
    // The on-disk experiments (Figures 9/10) report the serialized sizes;
    // a clean 1-shard save must write exactly those payload bytes.
    let graph = se_datagen::water::generate(500, 7);
    let onto = se_ontology::water_ontology();
    let store = SuccinctEdgeStore::build(&onto, &graph).unwrap();
    let dir = scratch("sizes");
    ShardedHybridStore::build(&onto, &graph, 1)
        .unwrap()
        .save(&dir)
        .unwrap();

    let payload = |prefix: &str, suffix: &str, want: &[&str]| -> usize {
        let found = files(&dir, prefix, suffix);
        assert_eq!(found.len(), 1, "{prefix}*{suffix}");
        let secs = sections(&found[0]);
        let tags: Vec<&str> = secs.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(tags, want);
        secs.iter().map(|(_, n)| n).sum()
    };
    let triples = payload("shard-0-", ".layers", &["OBJL", "DATL", "TYPS"]);
    let dicts =
        payload("dicts-", ".bin", &["CONC", "PROP"]) + payload("instances-", ".seg", &["INST"]);
    assert_eq!(triples, store.triple_serialized_size());
    assert_eq!(dicts, store.dictionary_serialized_size());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The layer format is pinned: every committed legacy-routing layer file
/// and a freshly built water baseline decode and re-encode to the same
/// bytes.
#[test]
fn layer_files_reencode_byte_identically() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy_routing");
    let mut checked = 0;
    for routing in std::fs::read_dir(&fixtures).unwrap() {
        for path in files(&routing.unwrap().path(), "shard-", ".layers") {
            let bytes = std::fs::read(&path).unwrap();
            let base = Baseline::from_layer_file(&bytes).unwrap();
            assert_eq!(base.to_layer_file(), bytes, "{}", path.display());
            checked += 1;
        }
    }
    assert_eq!(checked, 8, "two routings of four shards each");

    let graph = se_datagen::water::generate(500, 7);
    let store = SuccinctEdgeStore::build(&se_ontology::water_ontology(), &graph).unwrap();
    let fresh = Baseline {
        objects: store.object_layer().clone(),
        datatypes: store.datatype_layer().clone(),
        types: store.type_store().clone(),
    }
    .to_layer_file();
    assert_eq!(
        Baseline::from_layer_file(&fresh).unwrap().to_layer_file(),
        fresh
    );
}
