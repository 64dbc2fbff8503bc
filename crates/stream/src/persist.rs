//! Delta-aware v02 persistence: overlay snapshots + a store manifest,
//! making shutdown/restart O(delta) instead of O(rebuild).
//!
//! The retired v01 save collapsed the paper's baseline/overlay split at
//! shutdown: it **compacted** (a full succinct rebuild) and dumped the
//! result, so saving a dirty store cost as much as rebuilding it. v01
//! files stay loadable as static stores
//! (`SuccinctEdgeStore::load_from_file`); v02 keeps the split on disk:
//!
//! * the immutable **shard layers** and the frozen LiteMat dictionaries
//!   are written once per compaction generation and *reused* by every
//!   later save (the store remembers what it already wrote — a
//!   steady-state save never re-serializes them);
//! * the mutable **overlay** — added triples, deletion tombstones with
//!   full [`DeltaState`] semantics, overflow dictionaries and the
//!   interned overlay-literal table — is snapshotted raw on every save,
//!   in O(delta);
//! * a small **manifest**, atomically replaced (write + rename), ties a
//!   consistent set of files together. A crash mid-save leaves the old
//!   manifest pointing at the old files.
//!
//! `save` therefore takes `&self`, performs **no compaction**, and costs
//! O(delta) once the layer files exist. `load` rebuilds the store with
//! every identifier stable — no re-encoding — so continuous queries
//! resume over the reloaded store bit-identically
//! ([`StreamSession::resume`]).
//!
//! # Container framing
//!
//! Every v02 file is an `se-sds` container (see `se_sds::serialize`):
//! an 8-byte magic + little-endian `u32` format version, then
//! checksummed sections `[tag:4][len:u64][payload][fnv1a:u64]`. Bad
//! magic, versions from the future, truncation and bit rot each surface
//! as a distinct, clean [`StreamError`] — never a panic. All integers
//! are little-endian; strings are length-prefixed UTF-8 (`write_str`).
//!
//! # Directory layout (one store per directory)
//!
//! ```text
//! dicts-g<seq>.bin         magic "SESHDv02": sections CONC, PROP — the
//!                          frozen global LiteMat dictionaries (written
//!                          once; the store never re-encodes)
//! instances-<a>-<b>.seg    magic "SESHIv02": section INST — instance
//!                          dictionary entries [a, b): (key str,
//!                          count u64)…  Append-only segments: each save
//!                          writes only the ids interned since the last
//!                          one, keeping save O(delta)
//! shard-<i>-g<seq>.layers  magic "SESHLv02": sections OBJL (TripleLayer
//!                          bytes), DATL (DatatypeLayer bytes), TYPS
//!                          (count + (s,c) pairs) — the shard's
//!                          `se_core::Baseline`, written and read by
//!                          se-core's persist module; rewritten only
//!                          after shard <i> compacted
//! shard-<i>-s<seq>.overlay magic "SESHOv02": section DELT — shard <i>'s
//!                          raw overlay (entries only; literal ids point
//!                          into the shared LITS table)
//! ```
//!
//! Every `<seq>` is **directory-unique** (strictly greater than any
//! number appearing in any existing file name — see `next_file_seq`),
//! even across process restarts, so a save can never overwrite a file
//! the on-disk manifest still references: the previous snapshot stays
//! loadable until the new manifest is atomically renamed into place,
//! after which unreferenced files are garbage-collected.
//!
//! ```text
//! store.manifest           magic "SESHMv02", version 2, sections:
//!   META  shard count (u64), routing tag (str: "round_robin"; the
//!         legacy "hash_iri" and "custom" still load), round-robin
//!         cursor (u64),
//!         LIT_SHARD_STRIDE (u64), instance dictionary length (u64),
//!         dictionary file name (str), compaction max_overlay (u64)
//!   ISEG  instance segments: count, then (file str, from u64, to u64)…
//!   ROUT  routing table: property assignments (count + (id, shard)…,
//!         sorted by id), then concept assignments, same shape
//!   OVFP  overflow properties: count (u64), IRIs (str…) — ids are
//!         `OVERFLOW_BASE + position`
//!   OVFC  overflow concepts, same shape
//!   LITS  shared overlay-literal table: count + literals (id = position)
//!   SHRD  per shard: layer file (str), shard gen (u64), overlay file
//!         (str)
//! session.v02              magic "SESSNv02", section QRYS: registered
//!                          continuous queries — count, then (id str,
//!                          SPARQL text str, reasoning u8, two
//!                          reserved u8: written 1, ignored on read)…
//!                          Written by
//!                          [`StreamSession::save`], replayed by resume
//! ```
//!
//! # Overlay encoding (`DELT` entries)
//!
//! ```text
//! [n_triples: u64] then per entry:
//!   [p: u64][s: u64][obj tag: u8 (0 = instance, 1 = literal)]
//!   [obj id: u64][state: u8]
//! [n_types: u64] then per entry: [s: u64][c: u64][state: u8]
//! ```
//!
//! `state` is the full [`DeltaState`]: 0 = Added, 1 = Deleted
//! (tombstone), 2 = Restored, 3 = Cancelled — the baseline-relative
//! semantics survive the round trip exactly, so a tombstone over a
//! baseline triple keeps masking it after restart and a cancelled insert
//! stays invisible.
//!
//! # Literal encoding
//!
//! `[value: str][flags: u8 (bit 0 = datatype, bit 1 = language)]`
//! followed by the optional datatype and language strings.
//!
//! # What is *not* persisted
//!
//! Runtime configuration (an attached WAL, the plan cache) and lifetime
//! statistics are not state of the data: loaders restore defaults.
//!
//! Routing is round robin only. Manifests tagged "hash_iri" or "custom"
//! (written by earlier builds with hashed or caller-supplied routing)
//! still load: every already-assigned route is in `ROUT` and is kept
//! verbatim, and terms first seen after the restart continue round
//! robin from the persisted cursor. The next save writes "round_robin".
//!
//! # Follow-ons (see ROADMAP)
//!
//! Incremental overlay checkpointing (append deltas between saves
//! instead of rewriting the overlay snapshot) and per-batch group
//! commit on top of the ingest path.

use crate::continuous::StreamSession;
use crate::delta::{DeltaObj, DeltaState, DeltaStore};
use crate::error::StreamError;
use crate::shard::{CompactionPolicy, OverflowDict, ShardedHybridStore, LIT_SHARD_STRIDE};
use se_core::Baseline;
use se_litemat::{Dictionaries, InstanceDictionary, LiteMatDictionary};
use se_ontology::Ontology;
use se_rdf::{Graph, Literal};
use se_sds::{
    capped, expect_section, read_container_header, write_container_header, write_section, ReadBin,
    WriteBin,
};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::MutexGuard;

/// Highest format version this build reads and the version it writes.
pub const FORMAT_VERSION: u32 = 2;

/// Root manifest file name of a persisted [`ShardedHybridStore`] directory.
pub const SHARD_MANIFEST: &str = "store.manifest";
/// Session checkpoint file name ([`StreamSession::save`]).
pub const SESSION_FILE: &str = "session.v02";

const SHARD_MANIFEST_MAGIC: &[u8; 8] = b"SESHMv02";
const OVERLAY_MAGIC: &[u8; 8] = b"SESHOv02";
const DICTS_MAGIC: &[u8; 8] = b"SESHDv02";
const SEG_MAGIC: &[u8; 8] = b"SESHIv02";
const SESSION_MAGIC: &[u8; 8] = b"SESSNv02";
/// The META routing tag every save writes (see the module docs).
const ROUTING_TAG: &str = "round_robin";

/// Allocates a process-unique generation number. Generations identify a
/// particular immutable shard-layer incarnation: every build, load and
/// compaction swap takes a fresh one, so two stores can never claim each
/// other's on-disk layer files.
pub(crate) fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// What one [`ShardedHybridStore::save`] did — the observable shape of
/// the O(delta) contract: in the steady state `baseline_files_written`
/// is 0 and only `delta_bytes` scale with the overlay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SaveReport {
    /// Baseline-side files (layers, frozen dictionaries) (re)written by
    /// this save — 0 when nothing compacted since the previous save.
    pub baseline_files_written: usize,
    /// Bytes of baseline-side files written.
    pub baseline_bytes: u64,
    /// Bytes written unconditionally each save: manifest, overlay
    /// snapshots and new dictionary segments — the O(delta) part.
    pub delta_bytes: u64,
    /// Overlay entries captured in this snapshot.
    pub overlay_entries: usize,
}

/// One persisted instance-dictionary segment (ids `[from, to)`).
#[derive(Debug, Clone)]
pub(crate) struct SegmentRef {
    pub(crate) file: String,
    pub(crate) from: u64,
    pub(crate) to: u64,
}

/// One shard's persisted layer file.
#[derive(Debug, Clone)]
pub(crate) struct ShardFileMark {
    pub(crate) gen: u64,
    pub(crate) file: String,
}

/// What a [`ShardedHybridStore`] already has on disk in one directory.
#[derive(Debug, Clone)]
pub(crate) struct ShardedMark {
    pub(crate) dir: PathBuf,
    pub(crate) dicts_file: String,
    pub(crate) segments: Vec<SegmentRef>,
    pub(crate) instances_persisted: u64,
    pub(crate) shard_files: Vec<ShardFileMark>,
}

// --------------------------------------------------------------- plumbing

fn lock<'a, T>(m: &'a std::sync::Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Writes `bytes` to `path` via a temp file + rename, so readers only
/// ever see complete files. Both steps run through the fault-injection
/// shim ([`crate::fault`]) — in production a transparent pass-through.
fn write_file_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    crate::fault::write_file(&tmp, bytes)?;
    crate::fault::rename(&tmp, path)
}

/// Smallest number strictly greater than every digit run appearing in
/// any file name in `dir`. Names minted with it can never collide with
/// a file an on-disk manifest references — even one written by an
/// earlier process whose in-memory counters restarted — so overwriting
/// a still-referenced snapshot file before the new manifest lands is
/// impossible by construction.
pub(crate) fn next_file_seq(dir: &Path) -> io::Result<u64> {
    let mut max = 0u64;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            let mut run: Option<u64> = None;
            for ch in name.chars() {
                if let Some(d) = ch.to_digit(10) {
                    run = Some(
                        run.unwrap_or(0)
                            .saturating_mul(10)
                            .saturating_add(u64::from(d)),
                    );
                } else if let Some(v) = run.take() {
                    max = max.max(v);
                }
            }
            if let Some(v) = run {
                max = max.max(v);
            }
        }
    }
    Ok(max.saturating_add(1))
}

/// Removes every regular file in `dir` whose name matches `stale`.
fn remove_matching(dir: &Path, stale: impl Fn(&str) -> bool) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if stale(name) {
                let _ = crate::fault::remove_file(&entry.path());
            }
        }
    }
    Ok(())
}

/// Wraps a within-section parse failure as structured corruption.
fn corrupt<E: std::fmt::Display>(section: &str) -> impl Fn(E) -> StreamError + '_ {
    move |e| StreamError::Corrupt(format!("section {section}: {e}"))
}

/// Reads a file a manifest points at; a missing file is a dangling
/// manifest reference, i.e. corruption, not plain I/O.
fn read_referenced(dir: &Path, file: &str) -> Result<Vec<u8>, StreamError> {
    std::fs::read(dir.join(file)).map_err(|e| {
        if e.kind() == io::ErrorKind::NotFound {
            StreamError::Corrupt(format!("manifest references missing file '{file}'"))
        } else {
            StreamError::Io(e)
        }
    })
}

fn invalid<T>(msg: impl Into<String>) -> io::Result<T> {
    Err(io::Error::new(io::ErrorKind::InvalidData, msg.into()))
}

// ------------------------------------------------------ literal encoding

pub(crate) fn write_literal(w: &mut Vec<u8>, lit: &Literal) -> io::Result<()> {
    w.write_str(&lit.value)?;
    let flags = u8::from(lit.datatype.is_some()) | (u8::from(lit.language.is_some()) << 1);
    w.write_u8(flags)?;
    if let Some(dt) = &lit.datatype {
        w.write_str(dt)?;
    }
    if let Some(lang) = &lit.language {
        w.write_str(lang)?;
    }
    Ok(())
}

pub(crate) fn read_literal(r: &mut &[u8]) -> io::Result<Literal> {
    let value = r.read_str()?;
    let flags = r.read_u8()?;
    if flags > 3 {
        return invalid(format!("unknown literal flags {flags:#x}"));
    }
    let datatype = if flags & 1 != 0 {
        Some(r.read_str()?)
    } else {
        None
    };
    let language = if flags & 2 != 0 {
        Some(r.read_str()?)
    } else {
        None
    };
    Ok(Literal {
        value: value.into(),
        datatype: datatype.map(Into::into),
        language: language.map(Into::into),
    })
}

// ------------------------------------------------------ overlay encoding

fn state_to_u8(st: DeltaState) -> u8 {
    match st {
        DeltaState::Added => 0,
        DeltaState::Deleted => 1,
        DeltaState::Restored => 2,
        DeltaState::Cancelled => 3,
    }
}

fn state_from_u8(b: u8) -> io::Result<DeltaState> {
    Ok(match b {
        0 => DeltaState::Added,
        1 => DeltaState::Deleted,
        2 => DeltaState::Restored,
        3 => DeltaState::Cancelled,
        other => return invalid(format!("unknown delta state {other}")),
    })
}

/// Serializes the delta *entries* (literal ids point into the store's
/// shared literal table, persisted separately as `LITS`).
fn write_delta_entries(w: &mut Vec<u8>, d: &DeltaStore) -> io::Result<()> {
    let entries: Vec<_> = d.iter().collect();
    w.write_u64(entries.len() as u64)?;
    for (p, s, o, st) in entries {
        w.write_u64(p)?;
        w.write_u64(s)?;
        match o {
            DeltaObj::Inst(id) => {
                w.write_u8(0)?;
                w.write_u64(id)?;
            }
            DeltaObj::Lit(id) => {
                w.write_u8(1)?;
                w.write_u64(id)?;
            }
        }
        w.write_u8(state_to_u8(st))?;
    }
    let types: Vec<_> = d.type_iter().collect();
    w.write_u64(types.len() as u64)?;
    for (s, c, st) in types {
        w.write_u64(s)?;
        w.write_u64(c)?;
        w.write_u8(state_to_u8(st))?;
    }
    Ok(())
}

/// Replays persisted delta entries into `d`.
fn read_delta_entries(r: &mut &[u8], d: &mut DeltaStore) -> io::Result<()> {
    let n = r.read_u64()?;
    for _ in 0..n {
        let p = r.read_u64()?;
        let s = r.read_u64()?;
        let o = match r.read_u8()? {
            0 => DeltaObj::Inst(r.read_u64()?),
            1 => DeltaObj::Lit(r.read_u64()?),
            other => return invalid(format!("unknown delta object tag {other}")),
        };
        let st = state_from_u8(r.read_u8()?)?;
        d.set(p, s, o, st);
    }
    let n = r.read_u64()?;
    for _ in 0..n {
        let s = r.read_u64()?;
        let c = r.read_u64()?;
        let st = state_from_u8(r.read_u8()?)?;
        d.set_type(s, c, st);
    }
    Ok(())
}

// ------------------------------------------- overflow dictionary encoding

fn ovf_dict_bytes(terms: &[std::sync::Arc<str>]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.write_u64(terms.len() as u64)
        .expect("serializing to Vec cannot fail");
    for t in terms {
        buf.write_str(t).expect("serializing to Vec cannot fail");
    }
    buf
}

fn ovf_dict_from_bytes(mut r: &[u8]) -> io::Result<OverflowDict> {
    let mut d = OverflowDict::default();
    let n = r.read_u64()?;
    for _ in 0..n {
        let iri = r.read_str()?;
        d.get_or_insert(&iri);
    }
    Ok(d)
}

// ------------------------------------------------------ store file encoding

/// One shard's overlay file: raw delta entries (shared-table literal ids).
fn overlay_file_bytes(delta: &DeltaStore) -> Vec<u8> {
    let mut buf = Vec::new();
    write_container_header(&mut buf, OVERLAY_MAGIC, FORMAT_VERSION)
        .expect("serializing to Vec cannot fail");
    let mut payload = Vec::new();
    write_delta_entries(&mut payload, delta).expect("serializing to Vec cannot fail");
    write_section(&mut buf, b"DELT", &payload).expect("serializing to Vec cannot fail");
    buf
}

fn overlay_file_parse(bytes: &[u8]) -> Result<DeltaStore, StreamError> {
    let mut r = bytes;
    read_container_header(&mut r, OVERLAY_MAGIC, FORMAT_VERSION)?;
    let payload = expect_section(&mut r, b"DELT")?;
    let mut d = DeltaStore::new();
    read_delta_entries(&mut payload.as_slice(), &mut d).map_err(corrupt("DELT"))?;
    Ok(d)
}

/// The frozen global LiteMat dictionaries (written once per store).
fn dicts_file_bytes(dicts: &Dictionaries) -> Vec<u8> {
    let mut buf = Vec::new();
    write_container_header(&mut buf, DICTS_MAGIC, FORMAT_VERSION)
        .expect("serializing to Vec cannot fail");
    let mut conc = Vec::new();
    dicts
        .concepts
        .serialize(&mut conc)
        .expect("serializing to Vec cannot fail");
    write_section(&mut buf, b"CONC", &conc).expect("serializing to Vec cannot fail");
    let mut prop = Vec::new();
    dicts
        .properties
        .serialize(&mut prop)
        .expect("serializing to Vec cannot fail");
    write_section(&mut buf, b"PROP", &prop).expect("serializing to Vec cannot fail");
    buf
}

fn dicts_file_parse(bytes: &[u8]) -> Result<(LiteMatDictionary, LiteMatDictionary), StreamError> {
    let mut r = bytes;
    read_container_header(&mut r, DICTS_MAGIC, FORMAT_VERSION)?;
    let concepts = LiteMatDictionary::deserialize(&mut expect_section(&mut r, b"CONC")?.as_slice())
        .map_err(corrupt("CONC"))?;
    let properties =
        LiteMatDictionary::deserialize(&mut expect_section(&mut r, b"PROP")?.as_slice())
            .map_err(corrupt("PROP"))?;
    Ok((concepts, properties))
}

/// One append-only instance-dictionary segment covering ids `[from, to)`.
fn instance_segment_bytes(dict: &InstanceDictionary, from: u64, to: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    write_container_header(&mut buf, SEG_MAGIC, FORMAT_VERSION)
        .expect("serializing to Vec cannot fail");
    let mut payload = Vec::new();
    payload
        .write_u64(to - from)
        .expect("serializing to Vec cannot fail");
    for id in from..to {
        payload
            .write_str(dict.term(id).expect("id below dictionary length"))
            .expect("serializing to Vec cannot fail");
        payload
            .write_u64(dict.count(id))
            .expect("serializing to Vec cannot fail");
    }
    write_section(&mut buf, b"INST", &payload).expect("serializing to Vec cannot fail");
    buf
}

/// Replays one segment into `dict`, which must currently end exactly at
/// the segment's `from` (denseness check happens at the call site).
fn instance_segment_replay(bytes: &[u8], dict: &mut InstanceDictionary) -> Result<(), StreamError> {
    let mut r = bytes;
    read_container_header(&mut r, SEG_MAGIC, FORMAT_VERSION)?;
    let payload = expect_section(&mut r, b"INST")?;
    let mut p = payload.as_slice();
    (|| -> io::Result<()> {
        let n = p.read_u64()?;
        for _ in 0..n {
            let term = p.read_str()?;
            let count = p.read_u64()?;
            let before = dict.len() as u64;
            let id = dict.get_or_insert(&term);
            if id != before {
                return invalid(format!("duplicate instance key '{term}' across segments"));
            }
            dict.set_count(id, count);
        }
        Ok(())
    })()
    .map_err(corrupt("INST"))
}

fn routing_bytes(assignments: &HashMap<u64, usize>) -> Vec<u8> {
    let mut entries: Vec<(u64, usize)> = assignments.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable();
    let mut buf = Vec::new();
    buf.write_u64(entries.len() as u64)
        .expect("serializing to Vec cannot fail");
    for (id, shard) in entries {
        buf.write_u64(id).expect("serializing to Vec cannot fail");
        buf.write_u64(shard as u64)
            .expect("serializing to Vec cannot fail");
    }
    buf
}

fn routing_from_bytes(r: &mut &[u8], n_shards: usize) -> io::Result<HashMap<u64, usize>> {
    let n = r.read_u64()?;
    let mut map = HashMap::with_capacity(capped(n));
    for _ in 0..n {
        let id = r.read_u64()?;
        let shard = r.read_u64()? as usize;
        if shard >= n_shards {
            return invalid(format!("route to shard {shard} of {n_shards}"));
        }
        map.insert(id, shard);
    }
    Ok(map)
}

// ------------------------------------------------------------- save/load

impl ShardedHybridStore {
    /// Writes the v02 manifest snapshot into `dir` — `&self`, no
    /// compaction (the snapshot captures the current layers + overlay,
    /// which is a consistent view by construction). Layer files, the frozen
    /// dictionary file and instance-dictionary history are written only
    /// when they changed; shards are serialized one after another on the
    /// calling thread, a layer file only for a shard that compacted since
    /// the last save. One store per directory.
    pub fn save(&self, dir: &Path) -> Result<SaveReport, StreamError> {
        std::fs::create_dir_all(dir)?;
        let mut report = SaveReport {
            overlay_entries: self.overlay_len(),
            ..SaveReport::default()
        };
        let mut guard = lock(&self.persist_mark);
        let prev = guard.as_ref().filter(|m| m.dir == dir).cloned();
        // Directory-unique sequence for every file minted by this save:
        // names can never collide with anything an on-disk manifest
        // (possibly from an earlier process) still references, so no
        // referenced file is overwritten before the new manifest lands.
        let save_seq = next_file_seq(dir)?;

        // 1. Frozen LiteMat dictionaries: write-once per directory. The
        //    prior mark's file name stays authoritative (the dictionaries
        //    never change after build), so a load→save cycle does not
        //    rewrite them — or the instance history below.
        let (dicts_file, have_dicts) = match &prev {
            Some(m) if dir.join(&m.dicts_file).is_file() => (m.dicts_file.clone(), true),
            _ => (format!("dicts-g{save_seq}.bin"), false),
        };
        if !have_dicts {
            let bytes = dicts_file_bytes(&self.dicts);
            write_file_atomic(&dir.join(&dicts_file), &bytes)?;
            report.baseline_files_written += 1;
            report.baseline_bytes += bytes.len() as u64;
        }

        // 2. Instance dictionary: append only the ids interned since the
        //    last save to this directory.
        let inst_len = self.dicts.instances.len() as u64;
        let (mut segments, persisted) = match (&prev, have_dicts) {
            (Some(m), true) => (m.segments.clone(), m.instances_persisted),
            _ => (Vec::new(), 0),
        };
        if inst_len > persisted {
            let file = format!("instances-{persisted}-{inst_len}.seg");
            let bytes = instance_segment_bytes(&self.dicts.instances, persisted, inst_len);
            write_file_atomic(&dir.join(&file), &bytes)?;
            report.delta_bytes += bytes.len() as u64;
            segments.push(SegmentRef {
                file,
                from: persisted,
                to: inst_len,
            });
        }

        // 3. Per-shard layer + overlay files. Layer files only for shards
        //    whose generation changed.
        let n = self.shards.len();
        let prev_shards: Vec<Option<ShardFileMark>> = match &prev {
            Some(m) if m.shard_files.len() == n => {
                m.shard_files.iter().cloned().map(Some).collect()
            }
            _ => vec![None; n],
        };
        let mut shard_files = Vec::with_capacity(n);
        let mut overlay_files = Vec::with_capacity(n);
        for (i, (shard, prev_mark)) in self.shards.iter().zip(prev_shards).enumerate() {
            let mark = match prev_mark {
                Some(m) if m.gen == shard.gen && dir.join(&m.file).is_file() => m,
                _ => {
                    let bytes = shard.base.to_layer_file();
                    let file = format!("shard-{i}-g{save_seq}.layers");
                    write_file_atomic(&dir.join(&file), &bytes)?;
                    report.baseline_files_written += 1;
                    report.baseline_bytes += bytes.len() as u64;
                    ShardFileMark {
                        gen: shard.gen,
                        file,
                    }
                }
            };
            let overlay = overlay_file_bytes(&shard.delta);
            let ov_file = format!("shard-{i}-s{save_seq}.overlay");
            write_file_atomic(&dir.join(&ov_file), &overlay)?;
            report.delta_bytes += overlay.len() as u64;
            shard_files.push(mark);
            overlay_files.push(ov_file);
        }

        // 4. Root manifest, atomically replaced last: a crash anywhere
        //    above leaves the previous manifest + its files intact.
        let mut buf = Vec::new();
        write_container_header(&mut buf, SHARD_MANIFEST_MAGIC, FORMAT_VERSION)?;
        let mut meta = Vec::new();
        meta.write_u64(n as u64)?;
        meta.write_str(ROUTING_TAG)?;
        meta.write_u64(self.routes.next as u64)?;
        meta.write_u64(LIT_SHARD_STRIDE)?;
        meta.write_u64(inst_len)?;
        meta.write_str(&dicts_file)?;
        meta.write_u64(self.policy().max_overlay as u64)?;
        meta.write_u64(self.epoch)?;
        write_section(&mut buf, b"META", &meta)?;
        let mut iseg = Vec::new();
        iseg.write_u64(segments.len() as u64)?;
        for seg in &segments {
            iseg.write_str(&seg.file)?;
            iseg.write_u64(seg.from)?;
            iseg.write_u64(seg.to)?;
        }
        write_section(&mut buf, b"ISEG", &iseg)?;
        let mut rout = routing_bytes(&self.routes.props);
        rout.append(&mut routing_bytes(&self.routes.concepts));
        write_section(&mut buf, b"ROUT", &rout)?;
        write_section(
            &mut buf,
            b"OVFP",
            &ovf_dict_bytes(self.ovf_properties.terms()),
        )?;
        write_section(
            &mut buf,
            b"OVFC",
            &ovf_dict_bytes(self.ovf_concepts.terms()),
        )?;
        let mut lits = Vec::new();
        lits.write_u64(self.literals.literals.len() as u64)?;
        for lit in &self.literals.literals {
            write_literal(&mut lits, lit)?;
        }
        write_section(&mut buf, b"LITS", &lits)?;
        let mut shrd = Vec::new();
        for (mark, ov) in shard_files.iter().zip(&overlay_files) {
            shrd.write_str(&mark.file)?;
            shrd.write_u64(mark.gen)?;
            shrd.write_str(ov)?;
        }
        write_section(&mut buf, b"SHRD", &shrd)?;
        write_file_atomic(&dir.join(SHARD_MANIFEST), &buf)?;
        report.delta_bytes += buf.len() as u64;

        // 5. Garbage: files the new manifest no longer references.
        for (i, (mark, ov)) in shard_files.iter().zip(&overlay_files).enumerate() {
            let layer_prefix = format!("shard-{i}-g");
            let overlay_prefix = format!("shard-{i}-s");
            remove_matching(dir, |name| {
                (name.starts_with(&layer_prefix) && name.ends_with(".layers") && name != mark.file)
                    || (name.starts_with(&overlay_prefix)
                        && name.ends_with(".overlay")
                        && name != ov)
            })?;
        }
        let keep: std::collections::HashSet<&str> =
            segments.iter().map(|s| s.file.as_str()).collect();
        remove_matching(dir, |name| {
            name.starts_with("instances-") && name.ends_with(".seg") && !keep.contains(name)
        })?;
        remove_matching(dir, |name| {
            name.starts_with("dicts-g") && name.ends_with(".bin") && name != dicts_file
        })?;
        // WAL maintenance, also only after the rename: the new manifest
        // covers every record up to `self.epoch`.
        if let Some(wal) = lock(&self.wal).as_mut() {
            if wal.dir() == dir {
                wal.checkpoint(self.epoch)?;
            }
        }

        *guard = Some(ShardedMark {
            dir: dir.to_path_buf(),
            dicts_file,
            segments,
            instances_persisted: inst_len,
            shard_files,
        });
        Ok(report)
    }

    /// Loads a persisted store. Every persisted route survives verbatim;
    /// terms first routed after the restart continue round robin from the
    /// persisted cursor, also for manifests carrying a legacy routing tag
    /// (see the module docs).
    pub fn load(dir: &Path, ontology: &Ontology) -> Result<Self, StreamError> {
        let manifest = std::fs::read(dir.join(SHARD_MANIFEST))?;
        let mut r = manifest.as_slice();
        read_container_header(&mut r, SHARD_MANIFEST_MAGIC, FORMAT_VERSION)?;

        let meta = expect_section(&mut r, b"META")?;
        let mut m = meta.as_slice();
        let (n_shards, tag, rr_next, stride, inst_len, dicts_file, max_overlay, epoch) =
            (|| -> io::Result<_> {
                let n = m.read_u64()? as usize;
                let tag = m.read_str()?;
                let next = m.read_u64()? as usize;
                let stride = m.read_u64()?;
                let inst_len = m.read_u64()?;
                let dicts_file = m.read_str()?;
                let max_overlay = m.read_u64()? as usize;
                // Epoch was appended to META later; manifests written
                // before it restart the epoch counter at zero.
                let epoch = if m.is_empty() { 0 } else { m.read_u64()? };
                Ok((
                    n,
                    tag,
                    next,
                    stride,
                    inst_len,
                    dicts_file,
                    max_overlay,
                    epoch,
                ))
            })()
            .map_err(corrupt("META"))?;
        if n_shards == 0 {
            return Err(StreamError::Corrupt("manifest declares zero shards".into()));
        }
        // n_shards drives `with_capacity` pre-allocations below: an
        // untrusted huge count is corruption, not a request for a million
        // shards.
        if n_shards > crate::shard::MAX_SHARDS {
            return Err(StreamError::Corrupt(format!(
                "manifest declares {n_shards} shards (this build caps at {})",
                crate::shard::MAX_SHARDS
            )));
        }
        if stride != LIT_SHARD_STRIDE {
            return Err(StreamError::Corrupt(format!(
                "literal shard stride {stride:#x} differs from this build's {LIT_SHARD_STRIDE:#x}"
            )));
        }
        if !matches!(tag.as_str(), ROUTING_TAG | "hash_iri" | "custom") {
            return Err(StreamError::Corrupt(format!(
                "unknown routing policy tag '{tag}'"
            )));
        }

        let iseg = expect_section(&mut r, b"ISEG")?;
        let mut s = iseg.as_slice();
        let segments = (|| -> io::Result<Vec<SegmentRef>> {
            let n = s.read_u64()?;
            let mut segs = Vec::with_capacity(capped(n));
            for _ in 0..n {
                segs.push(SegmentRef {
                    file: s.read_str()?,
                    from: s.read_u64()?,
                    to: s.read_u64()?,
                });
            }
            Ok(segs)
        })()
        .map_err(corrupt("ISEG"))?;

        let rout = expect_section(&mut r, b"ROUT")?;
        let mut rt = rout.as_slice();
        let props = routing_from_bytes(&mut rt, n_shards).map_err(corrupt("ROUT"))?;
        let concepts = routing_from_bytes(&mut rt, n_shards).map_err(corrupt("ROUT"))?;
        let ovf_properties =
            ovf_dict_from_bytes(&expect_section(&mut r, b"OVFP")?).map_err(corrupt("OVFP"))?;
        let ovf_concepts =
            ovf_dict_from_bytes(&expect_section(&mut r, b"OVFC")?).map_err(corrupt("OVFC"))?;

        let lits = expect_section(&mut r, b"LITS")?;
        let mut l = lits.as_slice();
        let literals = (|| -> io::Result<crate::delta::LiteralTable> {
            let n = l.read_u64()?;
            let mut table = crate::delta::LiteralTable::default();
            for i in 0..n {
                let lit = read_literal(&mut l)?;
                if table.intern(&lit) != i {
                    return invalid("duplicate literal in persisted table");
                }
            }
            Ok(table)
        })()
        .map_err(corrupt("LITS"))?;

        let shrd = expect_section(&mut r, b"SHRD")?;
        let mut sh = shrd.as_slice();
        let shard_refs = (|| -> io::Result<Vec<(String, u64, String)>> {
            let mut refs = Vec::with_capacity(n_shards);
            for _ in 0..n_shards {
                refs.push((sh.read_str()?, sh.read_u64()?, sh.read_str()?));
            }
            Ok(refs)
        })()
        .map_err(corrupt("SHRD"))?;

        // Rebuild the dictionaries: frozen LiteMat codes + the instance
        // history replayed in order (ids are positions — stable).
        let (concepts_dict, properties_dict) =
            dicts_file_parse(&read_referenced(dir, &dicts_file)?)?;
        let mut instances = InstanceDictionary::new();
        for seg in &segments {
            if seg.from != instances.len() as u64 {
                return Err(StreamError::Corrupt(format!(
                    "instance segment '{}' starts at {} but the dictionary has {} entries",
                    seg.file,
                    seg.from,
                    instances.len()
                )));
            }
            instance_segment_replay(&read_referenced(dir, &seg.file)?, &mut instances)?;
            if instances.len() as u64 != seg.to {
                return Err(StreamError::Corrupt(format!(
                    "instance segment '{}' ends at {} entries, expected {}",
                    seg.file,
                    instances.len(),
                    seg.to
                )));
            }
        }
        if instances.len() as u64 != inst_len {
            return Err(StreamError::Corrupt(format!(
                "instance dictionary has {} entries after replay, manifest declares {inst_len}",
                instances.len()
            )));
        }
        let dicts = Dictionaries {
            concepts: concepts_dict,
            properties: properties_dict,
            instances,
        };

        let mut routes = crate::shard::RoutingTable::new(n_shards);
        routes.next = rr_next;
        routes.props = props;
        routes.concepts = concepts;

        let mut shards = Vec::with_capacity(n_shards);
        let mut shard_marks = Vec::with_capacity(n_shards);
        for (layer_file, _gen_at_save, overlay_file) in &shard_refs {
            let base = Baseline::from_layer_file(&read_referenced(dir, layer_file)?)?;
            let delta = overlay_file_parse(&read_referenced(dir, overlay_file)?)?;
            let gen = next_generation();
            shards.push(ShardedHybridStore::shard_from_loaded(base, delta, gen));
            shard_marks.push(ShardFileMark {
                gen,
                file: layer_file.clone(),
            });
        }

        let mark = ShardedMark {
            dir: dir.to_path_buf(),
            dicts_file,
            segments,
            instances_persisted: inst_len,
            shard_files: shard_marks,
        };
        let mut store = ShardedHybridStore::from_loaded_parts(
            dicts,
            ontology.clone(),
            shards,
            routes,
            ovf_properties,
            ovf_concepts,
            literals,
            CompactionPolicy { max_overlay },
            epoch,
            Some(mark),
        );
        // Replay the WAL tail past the manifest: each record is one batch
        // whose net delta replays through the ordinary `apply`, so the
        // epoch advances exactly to the last record's (`wal::recover`
        // verified the records are consecutive). No WAL is attached yet,
        // so replaying does not re-append.
        for rec in crate::wal::recover(dir, epoch)? {
            store.apply(
                &Graph::from_triples(rec.delta.added),
                &Graph::from_triples(rec.delta.removed),
            )?;
        }
        Ok(store)
    }
}

// --------------------------------------------------------------- session

impl StreamSession<ShardedHybridStore> {
    /// Checkpoints the whole session: the store's v02 snapshot plus the
    /// registered continuous queries (`session.v02`), so a restarted
    /// process resumes the same queries over the same state.
    pub fn save(&self, dir: &Path) -> Result<SaveReport, StreamError> {
        let report = self.store().save(dir)?;
        let mut buf = Vec::new();
        write_container_header(&mut buf, SESSION_MAGIC, FORMAT_VERSION)?;
        let mut qrys = Vec::new();
        qrys.write_u64(self.registry().len() as u64)?;
        for q in self.registry().iter() {
            qrys.write_str(&q.id)?;
            qrys.write_str(&q.text)?;
            qrys.write_u8(u8::from(q.options.reasoning))?;
            // Two reserved bytes, once the retired optimizer switches.
            qrys.write_u8(1)?;
            qrys.write_u8(1)?;
        }
        write_section(&mut buf, b"QRYS", &qrys)?;
        write_file_atomic(&dir.join(SESSION_FILE), &buf)?;
        Ok(report)
    }

    /// Restores a checkpointed session: loads the store, then re-parses
    /// and re-registers every persisted continuous query, so the next
    /// [`apply_batch`](StreamSession::apply_batch) evaluates them against
    /// the reloaded state exactly as the pre-restart session would have.
    pub fn resume(dir: &Path, ontology: &Ontology) -> Result<Self, StreamError> {
        let store = ShardedHybridStore::load(dir, ontology)?;
        Self::resume_with_store(dir, store)
    }

    /// Like [`StreamSession::resume`], but over a store the caller
    /// already loaded with [`ShardedHybridStore::load`] and configured
    /// (say, its compaction policy).
    pub fn resume_with_store(dir: &Path, store: ShardedHybridStore) -> Result<Self, StreamError> {
        let bytes = std::fs::read(dir.join(SESSION_FILE))?;
        let mut r = bytes.as_slice();
        read_container_header(&mut r, SESSION_MAGIC, FORMAT_VERSION)?;
        let qrys = expect_section(&mut r, b"QRYS")?;
        let mut q = qrys.as_slice();
        let queries = (|| -> io::Result<Vec<(String, String, se_sparql::QueryOptions)>> {
            let n = q.read_u64()?;
            let mut out = Vec::with_capacity(capped(n));
            for _ in 0..n {
                let id = q.read_str()?;
                let text = q.read_str()?;
                let options = se_sparql::QueryOptions {
                    reasoning: q.read_u8()? != 0,
                };
                q.read_u8()?;
                q.read_u8()?;
                out.push((id, text, options));
            }
            Ok(out)
        })()
        .map_err(corrupt("QRYS"))?;
        let mut session = StreamSession::new(store);
        for (id, text, options) in queries {
            session.register_query(&id, &text, options).map_err(|e| {
                StreamError::Corrupt(format!("persisted query '{id}' is no longer accepted: {e}"))
            })?;
        }
        Ok(session)
    }
}
