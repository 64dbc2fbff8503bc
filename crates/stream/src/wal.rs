//! Write-ahead overlay log: per-batch durability between v02 snapshots.
//!
//! v02 persistence (see [`crate::persist`]) made `save` O(delta), but
//! durability stayed checkpoint-granular — every batch applied since the
//! last `save` died with the process. The WAL closes that gap: once
//! attached (`ShardedHybridStore::attach_wal`), every successful `apply`
//! appends one *record* — the batch's net [`BatchDelta`] plus the
//! post-apply epoch — to a segmented, checksummed log in the same
//! directory as the snapshot, and recovery becomes *last manifest +
//! replay tail*.
//!
//! # On-disk format
//!
//! A segment file `wal-<seq>.seg` is a standard v02 container:
//!
//! ```text
//! [magic "SEWALSEG"][version: u32 LE]          (12-byte header)
//! [section "WREC"]*                            (one per batch)
//! ```
//!
//! each `WREC` section framed and FNV-checksummed exactly like every
//! other v02 section ([`se_sds::write_section`]), with payload:
//!
//! ```text
//! epoch: u64                                   (epoch *after* the batch)
//! added count: u64, then triples               (term space)
//! removed count: u64, then triples
//! term := tag u8 (0 iri | 1 blank | 2 literal) + strings
//! ```
//!
//! Segment sequence numbers come from the same collision-free counter as
//! every other persistence file ([`crate::persist`]'s `next_file_seq`),
//! so a segment can never collide with a snapshot file.
//!
//! # Fsync, rotation, truncation
//!
//! Every record is fsynced before `append` returns, so an `Ok` from
//! `apply` means the batch is on disk — what the server's group-commit
//! ack relies on. A segment is sealed once it exceeds
//! [`WalConfig::segment_bytes`] (and at every checkpoint); `save`
//! truncates sealed segments whose records are all covered by the
//! manifest it just wrote — the active segment is never truncated.
//!
//! # Recovery and the torn-tail rule
//!
//! [`recover`] scans the segments in sequence order and returns the
//! records with epochs past the manifest's, verifying they are
//! *consecutive* from `manifest_epoch + 1` (a gap means a segment the
//! manifest depends on was lost — corruption, not recoverable). Damage
//! is classified by position:
//!
//! * a truncated frame, or a checksum mismatch on the **physically
//!   final** frame of the **last** segment, is a *torn tail* — the crash
//!   interrupted the last append. The file is truncated at the last
//!   complete record and recovery succeeds with the prefix;
//! * anything else — a bad frame *before* the tail, damage in an
//!   earlier segment, a foreign section tag — is corruption and fails
//!   with [`StreamError::Corrupt`]: silently dropping acknowledged
//!   records would be worse than refusing to load.

use crate::delta::BatchDelta;
use crate::error::StreamError;
use crate::fault;
use crate::persist::{next_file_seq, read_literal, write_literal};
use se_rdf::{Term, Triple};
use se_sds::{
    read_section_from, write_container_header, write_section, ContainerError, ReadBin, WriteBin,
};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL segment file.
pub const WAL_MAGIC: &[u8; 8] = b"SEWALSEG";
/// Current segment format version.
pub const WAL_VERSION: u32 = 1;
/// Section tag of one appended batch record.
const REC_TAG: &[u8; 4] = b"WREC";

/// Tuning knobs for an attached WAL.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Seal the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 4 << 20,
        }
    }
}

/// One recovered batch record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The store epoch after this batch was applied.
    pub epoch: u64,
    /// The batch's net visibility changes.
    pub delta: BatchDelta,
}

/// Operator-visible durability state of a store's WAL (surfaced through
/// `StreamStats` and the server STATS payload): whether a log is
/// attached, whether it is poisoned (a failed append rejects all later
/// appends until a checkpoint heals it), and how many appends have
/// failed since attach — including rejections by an already-poisoned
/// log, so the counter keeps climbing while degradation persists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalHealth {
    /// A WAL is attached to the store.
    pub attached: bool,
    /// The log rejects appends until a successful checkpoint.
    pub poisoned: bool,
    /// Appends that returned an error (initial failures and poisoned
    /// rejections alike).
    pub appends_failed: u64,
}

#[derive(Debug)]
struct ActiveSegment {
    file: fs::File,
    path: PathBuf,
    bytes: u64,
    /// Epoch of the last record appended, `None` while empty.
    last: Option<u64>,
}

#[derive(Debug)]
struct SealedSegment {
    path: PathBuf,
    last: Option<u64>,
}

/// An open, appendable write-ahead log over one store directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    active: Option<ActiveSegment>,
    sealed: Vec<SealedSegment>,
    /// Set when an append fails: the active segment's tail is in an
    /// unknown state, so writing more records after it would turn the
    /// torn tail into damage-before-the-tail — which recovery rightly
    /// refuses to load. A poisoned log rejects every append until a
    /// successful checkpoint (whose manifest covers every applied
    /// batch, including the ones the broken tail missed) discards the
    /// segments and heals it.
    poisoned: bool,
    /// Appends that returned an error since attach (see [`WalHealth`]).
    appends_failed: u64,
}

impl Wal {
    /// Opens a fresh WAL over `dir`. The caller must have just written a
    /// manifest covering the store's current epoch (that is what
    /// `attach_wal` does), so any segment already present holds only
    /// covered records and is removed. Appending starts a new segment
    /// lazily on the first record.
    pub(crate) fn open(dir: &Path, config: WalConfig) -> Result<Self, StreamError> {
        for path in segment_paths(dir)? {
            fault::remove_file(&path)?;
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            config,
            active: None,
            sealed: Vec::new(),
            poisoned: false,
            appends_failed: 0,
        })
    }

    /// The directory this WAL lives in (`save` only maintains the WAL
    /// when checkpointing into the same directory).
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The attached configuration.
    pub fn config(&self) -> WalConfig {
        self.config
    }

    /// Appends one batch record and fsyncs it. Any failure
    /// poisons the log (see [`Wal::poisoned`]); the batch stays applied
    /// in memory but is *not* durable, so the caller must surface the
    /// error instead of acking.
    pub(crate) fn append(&mut self, epoch: u64, delta: &BatchDelta) -> Result<(), StreamError> {
        if self.poisoned {
            self.appends_failed += 1;
            return Err(poisoned_error());
        }
        let result = self.try_append(epoch, delta);
        if result.is_err() {
            self.poisoned = true;
            self.appends_failed += 1;
        }
        result
    }

    /// Operator-visible durability state (see [`WalHealth`]).
    pub fn health(&self) -> WalHealth {
        WalHealth {
            attached: true,
            poisoned: self.poisoned,
            appends_failed: self.appends_failed,
        }
    }

    fn try_append(&mut self, epoch: u64, delta: &BatchDelta) -> Result<(), StreamError> {
        let frame = encode_record(epoch, delta);
        let needs_new = self
            .active
            .as_ref()
            .is_none_or(|a| a.bytes >= self.config.segment_bytes);
        if needs_new {
            self.rotate()?;
        }
        let a = self.active.as_mut().expect("rotate installs a segment");
        fault::append(&mut a.file, &a.path, &frame)?;
        a.bytes += frame.len() as u64;
        a.last = Some(epoch);
        fault::sync(&a.file, &a.path)?;
        Ok(())
    }

    /// Seals the current segment (if any) and starts a fresh one.
    fn rotate(&mut self) -> Result<(), StreamError> {
        self.seal_active()?;
        let seq = next_file_seq(&self.dir)?;
        let path = self.dir.join(format!("wal-{seq}.seg"));
        let mut file = fs::File::create(&path)?;
        let mut header = Vec::with_capacity(12);
        write_container_header(&mut header, WAL_MAGIC, WAL_VERSION)
            .expect("writing to Vec cannot fail");
        fault::append(&mut file, &path, &header)?;
        self.active = Some(ActiveSegment {
            file,
            path,
            bytes: header.len() as u64,
            last: None,
        });
        Ok(())
    }

    /// Fsyncs and closes the active segment, moving it to the sealed
    /// list; the next append starts a new segment.
    fn seal_active(&mut self) -> Result<(), StreamError> {
        if let Some(a) = self.active.take() {
            fault::sync(&a.file, &a.path)?;
            self.sealed.push(SealedSegment {
                path: a.path,
                last: a.last,
            });
        }
        Ok(())
    }

    /// Checkpoint maintenance, called by `save` *after* its manifest
    /// rename landed: seals the active segment, then removes every
    /// sealed segment whose records are all covered by the manifest.
    /// A sealed segment holding records past `manifest_epoch` is kept —
    /// a checkpoint can never truncate records it does not cover.
    ///
    /// `save` passes the store's current epoch, so on a poisoned log the
    /// manifest covers every applied batch — including the ones the
    /// broken tail missed — and the whole log can be discarded, healing
    /// the poison.
    pub(crate) fn checkpoint(&mut self, manifest_epoch: u64) -> Result<(), StreamError> {
        if self.poisoned {
            if let Some(a) = self.active.take() {
                // The file's tail is garbage the manifest supersedes:
                // drop it without the usual seal-time fsync.
                drop(a.file);
                fault::remove_file(&a.path)?;
            }
            while let Some(seg) = self.sealed.last() {
                fault::remove_file(&seg.path)?;
                self.sealed.pop();
            }
            self.poisoned = false;
            return Ok(());
        }
        self.seal_active()?;
        let mut keep = Vec::new();
        for seg in self.sealed.drain(..) {
            if seg.last.is_none_or(|l| l <= manifest_epoch) {
                fault::remove_file(&seg.path)?;
            } else {
                keep.push(seg);
            }
        }
        self.sealed = keep;
        Ok(())
    }
}

fn poisoned_error() -> StreamError {
    StreamError::Io(io::Error::other(
        "write-ahead log poisoned by an earlier append failure; \
         a successful save (or a restart) recovers it",
    ))
}

/// The directory's WAL segment files, sorted by sequence number.
fn segment_paths(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut segs: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(seq) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".seg"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                segs.push((seq, entry.path()));
            }
        }
    }
    segs.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(segs.into_iter().map(|(_, p)| p).collect())
}

/// Replays the log over `dir`: returns the records past `manifest_epoch`
/// in apply order, verified consecutive from `manifest_epoch + 1`.
/// Applies the torn-tail rule (see the module docs), physically
/// truncating a torn last segment at its last complete record.
pub fn recover(dir: &Path, manifest_epoch: u64) -> Result<Vec<WalRecord>, StreamError> {
    let paths = segment_paths(dir)?;
    let mut records = Vec::new();
    let mut expected = manifest_epoch + 1;
    let n = paths.len();
    'segments: for (i, path) in paths.iter().enumerate() {
        let is_last = i + 1 == n;
        let buf = fs::read(path)?;
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        // Header. A partial header in the last segment means the crash
        // hit segment creation: nothing durable in it, drop the file.
        if buf.len() < 12 {
            if is_last {
                fault::remove_file(path)?;
                break 'segments;
            }
            return Err(StreamError::Corrupt(format!(
                "wal segment {name} truncated before the tail"
            )));
        }
        if &buf[..8] != WAL_MAGIC {
            return Err(StreamError::Corrupt(format!(
                "wal segment {name} has bad magic"
            )));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version == 0 || version > WAL_VERSION {
            return Err(StreamError::UnsupportedVersion {
                found: version,
                max_supported: WAL_VERSION,
            });
        }
        let mut pos = 12usize;
        while pos < buf.len() {
            let torn = |pos: usize| -> Result<bool, StreamError> {
                if !is_last {
                    return Err(StreamError::Corrupt(format!(
                        "wal segment {name} damaged before the tail"
                    )));
                }
                // Torn tail: drop the interrupted bytes, keep the prefix.
                if pos <= 12 {
                    fault::remove_file(path)?;
                } else {
                    let f = fs::OpenOptions::new().write(true).open(path)?;
                    f.set_len(pos as u64)?;
                    f.sync_all()?;
                }
                Ok(true)
            };
            let (tag, payload, used) = match read_section_from(&buf[pos..]) {
                Ok(parts) => parts,
                Err(ContainerError::Truncated { .. }) => {
                    torn(pos)?;
                    break 'segments;
                }
                Err(ContainerError::Checksum { .. }) => {
                    // The frame is complete on disk; only the physically
                    // final frame of the last segment can be a torn
                    // append — an earlier mismatch is bit rot.
                    let len = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap());
                    let end = pos as u64 + 20 + len;
                    if is_last && end == buf.len() as u64 {
                        torn(pos)?;
                        break 'segments;
                    }
                    return Err(StreamError::Corrupt(format!(
                        "wal segment {name} record checksum mismatch before the tail"
                    )));
                }
                Err(other) => return Err(other.into()),
            };
            if &tag != REC_TAG {
                return Err(StreamError::Corrupt(format!(
                    "wal segment {name} holds foreign section '{}'",
                    String::from_utf8_lossy(&tag)
                )));
            }
            let rec = decode_record(payload)
                .map_err(|e| StreamError::Corrupt(format!("wal record in {name}: {e}")))?;
            if rec.epoch > manifest_epoch {
                if rec.epoch != expected {
                    return Err(StreamError::Corrupt(format!(
                        "wal gap: expected epoch {expected}, found {} in {name} \
                         (a covering segment was lost)",
                        rec.epoch
                    )));
                }
                expected += 1;
                records.push(rec);
            }
            pos += used;
        }
    }
    Ok(records)
}

/// Read-only tail scan for replication catch-up: returns the records
/// with epochs past `from_epoch`, verified consecutive from
/// `from_epoch + 1` — **without** the physical truncation side effects
/// of [`recover`], so it is safe to run against a live store's WAL
/// directory (the appender must be quiescent while the scan runs; the
/// server calls this from the writer thread between ticks, which is
/// exactly that).
///
/// Returns `Ok(None)` whenever the log cannot serve the request — no
/// segments, the requested epoch was checkpointed away (the first
/// uncovered record is past `from_epoch + 1`), a gap, damage, or a torn
/// tail cutting the run short. The caller falls back to shipping a full
/// snapshot; a read-side problem here never needs to be fatal.
pub fn read_tail(dir: &Path, from_epoch: u64) -> Result<Option<Vec<WalRecord>>, StreamError> {
    let paths = segment_paths(dir)?;
    let mut records = Vec::new();
    let mut expected = from_epoch + 1;
    for path in &paths {
        let buf = fs::read(path)?;
        if buf.len() < 12 || &buf[..8] != WAL_MAGIC {
            return Ok(None);
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version == 0 || version > WAL_VERSION {
            return Ok(None);
        }
        let mut pos = 12usize;
        while pos < buf.len() {
            let (tag, payload, used) = match read_section_from(&buf[pos..]) {
                Ok(parts) => parts,
                Err(_) => return Ok(None),
            };
            if &tag != REC_TAG {
                return Ok(None);
            }
            let Ok(rec) = decode_record(payload) else {
                return Ok(None);
            };
            if rec.epoch > from_epoch {
                if rec.epoch != expected {
                    return Ok(None);
                }
                expected += 1;
                records.push(rec);
            }
            pos += used;
        }
    }
    Ok(Some(records))
}

// ------------------------------------------------------- record codec

/// Encodes one term: a tag byte (0 IRI, 1 blank node, 2 literal), then
/// its strings; a literal carries a flags byte (bit 0 datatype, bit 1
/// language) before the optional datatype and language strings. The WAL,
/// the replication feed and se-server's wire codecs all share it.
pub fn write_term(w: &mut Vec<u8>, term: &Term) {
    // Writes to a Vec cannot fail.
    match term {
        Term::Iri(iri) => {
            w.write_u8(0).unwrap();
            w.write_str(iri).unwrap();
        }
        Term::Blank(label) => {
            w.write_u8(1).unwrap();
            w.write_str(label).unwrap();
        }
        Term::Literal(lit) => {
            w.write_u8(2).unwrap();
            write_literal(w, lit).unwrap();
        }
    }
}

/// Decodes a term written by [`write_term`]. An unknown tag or literal
/// flags above `0b11` are `InvalidData`; a string length beyond the input
/// is a clean error, never an up-front allocation.
pub fn read_term(r: &mut &[u8]) -> io::Result<Term> {
    match r.read_u8()? {
        0 => Ok(Term::Iri(r.read_str()?.into())),
        1 => Ok(Term::Blank(r.read_str()?.into())),
        2 => Ok(Term::Literal(read_literal(r)?)),
        tag => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown term tag {tag:#x}"),
        )),
    }
}

fn write_triples(w: &mut Vec<u8>, triples: &[Triple]) {
    w.write_u64(triples.len() as u64).unwrap();
    for t in triples {
        write_term(w, &t.subject);
        write_term(w, &t.predicate);
        write_term(w, &t.object);
    }
}

fn read_triples(r: &mut &[u8]) -> io::Result<Vec<Triple>> {
    let n = r.read_u64()?;
    let mut triples = Vec::with_capacity(se_sds::capped(n));
    for _ in 0..n {
        let subject = read_term(r)?;
        let predicate = read_term(r)?;
        let object = read_term(r)?;
        triples.push(Triple {
            subject,
            predicate,
            object,
        });
    }
    Ok(triples)
}

/// Encodes one record's payload — the exact bytes a `WREC` section
/// carries on disk, reused verbatim as the replication wire format
/// (se-server's `REPL_RECORD` frames), so leader and follower share one
/// codec with the crash-recovery path.
pub fn encode_record_payload(epoch: u64, delta: &BatchDelta) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + 32 * delta.len());
    payload.write_u64(epoch).unwrap();
    write_triples(&mut payload, &delta.added);
    write_triples(&mut payload, &delta.removed);
    payload
}

/// Decodes a record payload produced by [`encode_record_payload`] (or
/// lifted out of a `WREC` section). The input is untrusted wire data:
/// pre-allocations are capped and trailing bytes are an error.
pub fn decode_record_payload(payload: &[u8]) -> io::Result<WalRecord> {
    decode_record(payload)
}

fn encode_record(epoch: u64, delta: &BatchDelta) -> Vec<u8> {
    let payload = encode_record_payload(epoch, delta);
    let mut frame = Vec::with_capacity(payload.len() + 20);
    write_section(&mut frame, REC_TAG, &payload).expect("writing to Vec cannot fail");
    frame
}

fn decode_record(mut payload: &[u8]) -> io::Result<WalRecord> {
    let epoch = payload.read_u64()?;
    let added = read_triples(&mut payload)?;
    let removed = read_triples(&mut payload)?;
    if !payload.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} trailing bytes after record", payload.len()),
        ));
    }
    Ok(WalRecord {
        epoch,
        delta: BatchDelta { added, removed },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("se-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn delta(n: u64) -> BatchDelta {
        BatchDelta {
            added: vec![Triple::new(
                iri(&format!("s{n}")),
                iri("p"),
                Term::literal(format!("v{n}")),
            )],
            removed: vec![],
        }
    }

    #[test]
    fn record_roundtrip_covers_all_term_shapes() {
        let d = BatchDelta {
            added: vec![Triple::new(
                Term::blank("b0"),
                iri("p"),
                Term::Literal(se_rdf::Literal::lang("hej", "sv")),
            )],
            removed: vec![Triple::new(
                iri("s"),
                iri("q"),
                Term::Literal(se_rdf::Literal::typed("1", "http://x/int")),
            )],
        };
        let frame = encode_record(7, &d);
        let (tag, payload, used) = read_section_from(&frame).unwrap();
        assert_eq!((&tag, used), (REC_TAG, frame.len()));
        let rec = decode_record(payload).unwrap();
        assert_eq!(rec, WalRecord { epoch: 7, delta: d });
    }

    #[test]
    fn append_recover_roundtrip_with_rotation() {
        let dir = scratch("roundtrip");
        let mut wal = Wal::open(
            &dir,
            WalConfig {
                // Tiny segments: every append rotates.
                segment_bytes: 1,
            },
        )
        .unwrap();
        for epoch in 1..=5 {
            wal.append(epoch, &delta(epoch)).unwrap();
        }
        assert!(segment_paths(&dir).unwrap().len() >= 5);
        let recs = recover(&dir, 0).unwrap();
        assert_eq!(recs.len(), 5);
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(rec.epoch, i as u64 + 1);
            assert_eq!(rec.delta, delta(rec.epoch));
        }
        // A manifest at epoch 3 skips the covered prefix.
        let recs = recover(&dir, 3).unwrap();
        assert_eq!(recs.iter().map(|r| r.epoch).collect::<Vec<_>>(), [4, 5]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_only_covered_segments() {
        let dir = scratch("truncate");
        let mut wal = Wal::open(&dir, WalConfig { segment_bytes: 1 }).unwrap();
        for epoch in 1..=4 {
            wal.append(epoch, &delta(epoch)).unwrap();
        }
        wal.checkpoint(2).unwrap();
        // Segments holding epochs 3 and 4 survive; 1 and 2 are gone.
        let recs = recover(&dir, 2).unwrap();
        assert_eq!(recs.iter().map(|r| r.epoch).collect::<Vec<_>>(), [3, 4]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_but_earlier_damage_is_corrupt() {
        let dir = scratch("torn");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        for epoch in 1..=3 {
            wal.append(epoch, &delta(epoch)).unwrap();
        }
        drop(wal);
        let seg = segment_paths(&dir).unwrap().pop().unwrap();
        let full = fs::read(&seg).unwrap();

        // Cut mid-way through the last record: recovery keeps the prefix.
        fs::write(&seg, &full[..full.len() - 7]).unwrap();
        let recs = recover(&dir, 0).unwrap();
        assert_eq!(recs.iter().map(|r| r.epoch).collect::<Vec<_>>(), [1, 2]);
        // And the truncation is physical: a second recovery agrees.
        assert_eq!(recover(&dir, 0).unwrap().len(), 2);

        // Flip a bit in the *first* record of the restored file: that is
        // damage before the tail.
        fs::write(&seg, &full).unwrap();
        let mut rotted = full.clone();
        rotted[30] ^= 0x10;
        fs::write(&seg, &rotted).unwrap();
        assert!(matches!(recover(&dir, 0), Err(StreamError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gap_past_the_manifest_is_corrupt() {
        let dir = scratch("gap");
        let mut wal = Wal::open(&dir, WalConfig { segment_bytes: 1 }).unwrap();
        for epoch in 1..=3 {
            wal.append(epoch, &delta(epoch)).unwrap();
        }
        drop(wal);
        // Lose the middle segment: epoch 2 vanishes.
        let seg2 = segment_paths(&dir).unwrap().remove(1);
        fs::remove_file(seg2).unwrap();
        assert!(matches!(recover(&dir, 0), Err(StreamError::Corrupt(_))));
        // But a manifest already covering the gap recovers fine.
        assert_eq!(
            recover(&dir, 2)
                .unwrap()
                .iter()
                .map(|r| r.epoch)
                .collect::<Vec<_>>(),
            [3]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_poisons_until_a_checkpoint_heals() {
        let dir = scratch("poison");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append(1, &delta(1)).unwrap();

        // Make the next disk touch fail transiently: the append errors
        // and the log refuses further writes — a half-written tail must
        // not get more records behind it.
        fault::arm(&dir, 0, fault::FaultMode::Fail);
        assert!(wal.append(2, &delta(2)).is_err());
        fault::disarm(&dir);
        assert!(
            wal.append(3, &delta(3)).is_err(),
            "poisoned log rejects appends"
        );

        // A checkpoint covering the current epoch discards the log
        // wholesale and heals it.
        wal.checkpoint(3).unwrap();
        wal.append(4, &delta(4)).unwrap();
        assert_eq!(
            recover(&dir, 3)
                .unwrap()
                .iter()
                .map(|r| r.epoch)
                .collect::<Vec<_>>(),
            [4]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_counts_failed_and_refused_appends() {
        let dir = scratch("health");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(
            wal.health(),
            WalHealth {
                attached: true,
                poisoned: false,
                appends_failed: 0
            }
        );
        wal.append(1, &delta(1)).unwrap();
        fault::arm(&dir, 0, fault::FaultMode::Fail);
        assert!(wal.append(2, &delta(2)).is_err());
        fault::disarm(&dir);
        // Refusals while poisoned count too: operators watching the
        // counter see write loss accumulating, not a single blip.
        assert!(wal.append(3, &delta(3)).is_err());
        let h = wal.health();
        assert!(h.attached && h.poisoned);
        assert_eq!(h.appends_failed, 2);
        // Healing resets the poison flag; the failure history stays.
        wal.checkpoint(3).unwrap();
        wal.append(4, &delta(4)).unwrap();
        let h = wal.health();
        assert!(!h.poisoned);
        assert_eq!(h.appends_failed, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_tail_serves_covering_records_without_truncating() {
        let dir = scratch("tail");
        let mut wal = Wal::open(
            &dir,
            WalConfig {
                segment_bytes: 1, // force one segment per record
            },
        )
        .unwrap();
        for epoch in 1..=5 {
            wal.append(epoch, &delta(epoch)).unwrap();
        }

        let tail = read_tail(&dir, 2).unwrap().unwrap();
        assert_eq!(tail.iter().map(|r| r.epoch).collect::<Vec<_>>(), [3, 4, 5]);
        // A caught-up follower needs nothing; that is still a covered
        // request, distinct from an uncoverable one.
        assert_eq!(read_tail(&dir, 5).unwrap().unwrap().len(), 0);

        // Torn tail: the scan reports "cannot serve" (the snapshot path
        // takes over) and must NOT truncate — the live appender owns the
        // file, and `recover` after a real crash still sees the tear.
        let seg = segment_paths(&dir).unwrap().pop().unwrap();
        let full = fs::read(&seg).unwrap();
        fs::write(&seg, &full[..full.len() - 3]).unwrap();
        assert!(read_tail(&dir, 2).unwrap().is_none());
        assert_eq!(fs::read(&seg).unwrap().len(), full.len() - 3);

        // A gap (middle segment gone) is equally unservable.
        fs::write(&seg, &full).unwrap();
        let seg3 = segment_paths(&dir).unwrap().remove(2);
        fs::remove_file(&seg3).unwrap();
        assert!(read_tail(&dir, 2).unwrap().is_none());
        // ... but epochs wholly past the gap still are servable.
        assert_eq!(
            read_tail(&dir, 3)
                .unwrap()
                .unwrap()
                .iter()
                .map(|r| r.epoch)
                .collect::<Vec<_>>(),
            [4, 5]
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
