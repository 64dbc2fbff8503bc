//! The wire protocol: length-prefixed frames over TCP, with binary
//! codecs for RDF terms, graphs and SPARQL result sets built on the
//! [`se_sds`] little-endian primitives.
//!
//! A frame is `[len: u32 LE][kind: u8][payload: len-1 bytes]` — `len`
//! counts the kind byte plus the payload, so an empty-payload frame has
//! `len == 1`. Request kinds occupy `0x01..=0x7F`, response kinds
//! `0x80..=0xFF`; see [`req`] and [`resp`]. The full frame and payload
//! layouts are documented in `docs/server.md`.

use se_rdf::{Graph, Triple};
use se_sds::{ReadBin, WriteBin};
use se_sparql::{QueryOptions, ResultSet};
use se_stream::wal::{read_term, write_term};
use std::io::{self, Read, Write};

/// Upper bound on a frame's declared length: a malformed or hostile
/// length prefix fails fast instead of provoking a giant allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// Request frame kinds (client → server).
pub mod req {
    /// Payload: inserts [`Graph`](super::Graph) + deletes
    /// [`Graph`](super::Graph). The server may coalesce the request with
    /// other clients' writes into one group-commit tick; the ack reports
    /// the whole tick.
    pub const INGEST: u8 = 0x01;
    /// Payload: query text `str` + [`QueryOptions`](super::QueryOptions)
    /// byte. Executed against the latest published snapshot — never
    /// blocks on the writer.
    pub const QUERY: u8 = 0x02;
    /// Payload: subscription id `str` + query text `str` + options byte.
    /// After every subsequent batch the server pushes this query's
    /// answer set to the subscribing connection.
    pub const SUBSCRIBE: u8 = 0x03;
    /// Empty payload; answered with [`resp::STATS`](super::resp::STATS).
    pub const STATS: u8 = 0x04;
    /// Empty payload; stops the server after acking with
    /// [`resp::OK`](super::resp::OK).
    pub const SHUTDOWN: u8 = 0x05;
    /// Payload: `from_epoch: u64` — the follower's current epoch.
    /// Catch-up: the server replies with either one
    /// [`resp::REPL_RECORD`](super::resp::REPL_RECORD) per batch in
    /// `(from_epoch, leader_epoch]` (when its WAL tail still covers
    /// them) or one [`resp::REPL_SNAPSHOT`](super::resp::REPL_SNAPSHOT)
    /// at the leader's epoch; afterwards the connection receives one
    /// `REPL_RECORD` per group-commit tick, live. The connection becomes
    /// a dedicated replication feed — the client must not send further
    /// requests on it.
    pub const REPLICATE: u8 = 0x06;
}

/// Response frame kinds (server → client).
pub mod resp {
    /// Group-commit ack, one [`IngestAck`](super::IngestAck): epoch
    /// `u64`, inserted `u64`, deleted `u64`, noops `u64`, coalesced
    /// requests `u32`, compacted `u8`. Counts are aggregates over the
    /// *whole batch* the request rode in.
    pub const INGEST: u8 = 0x80;
    /// Point-query answer: snapshot epoch `u64` +
    /// [`ResultSet`](super::ResultSet).
    pub const ROWS: u8 = 0x81;
    /// Continuous-query push: subscription id `str`, epoch `u64`, then a
    /// payload-kind byte — [`PUSH_FULL`](super::PUSH_FULL) followed by
    /// one [`ResultSet`](super::ResultSet) (the whole answer set; a
    /// subscription's first push), or
    /// [`PUSH_CHANGES`](super::PUSH_CHANGES) followed by two
    /// `ResultSet`s (rows added, rows removed this tick). Ticks that
    /// leave a query's answers untouched push nothing at all. Arrives
    /// interleaved with request replies; clients must queue it (see
    /// [`Client`](crate::client::Client)).
    pub const PUSH: u8 = 0x82;
    /// Stats, one [`ServerStats`](super::ServerStats): its 18 counters,
    /// each a `u64`, in field order.
    pub const STATS: u8 = 0x83;
    /// Bare success (subscribe / shutdown ack). Empty payload.
    pub const OK: u8 = 0x84;
    /// Replication bootstrap: epoch `u64` + full [`Graph`](super::Graph).
    /// Sent when the leader's WAL tail no longer covers the follower's
    /// epoch; the follower rebuilds its store from the graph and aligns
    /// to the carried epoch before consuming further records.
    pub const REPL_SNAPSHOT: u8 = 0x85;
    /// One group-commit tick's WAL record: epoch `u64` + added triples +
    /// removed triples, in the [`se_stream::encode_record_payload`]
    /// layout. Epochs arrive strictly consecutive; a follower seeing a
    /// gap must drop the connection and re-sync.
    pub const REPL_RECORD: u8 = 0x86;
    /// Failure: message `str`. The connection stays usable.
    pub const ERR: u8 = 0xFF;
}

/// [`resp::PUSH`] payload kind: one [`ResultSet`] holding the whole
/// answer set. Sent once per subscription, on its first evaluation.
pub const PUSH_FULL: u8 = 0;
/// [`resp::PUSH`] payload kind: two [`ResultSet`]s — rows added, then
/// rows removed this tick. Sent for every later tick that changed the
/// answer set.
pub const PUSH_CHANGES: u8 = 1;

// ------------------------------------------------------------- framing

/// Writes one frame and flushes the stream.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len() + 1)
        .ok()
        .filter(|l| *l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame payload too large"))?;
    w.write_u32(len)?;
    w.write_u8(kind)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Err(UnexpectedEof)` on a cleanly closed peer.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<(u8, Vec<u8>)> {
    let len = r.read_u32()?;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    let kind = r.read_u8()?;
    // The declared length is untrusted until the bytes actually arrive:
    // cap the pre-allocation and read through `take`, so a 12-byte
    // hostile prelude cannot commit MAX_FRAME of memory per connection.
    let want = (len - 1) as usize;
    let mut payload = Vec::with_capacity(want.min(1 << 16));
    r.take(want as u64).read_to_end(&mut payload)?;
    if payload.len() != want {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "frame truncated: declared {want} payload bytes, got {}",
                payload.len()
            ),
        ));
    }
    Ok((kind, payload))
}

// ------------------------------------------------------------- codecs
//
// Terms use se-stream's codec (`se_stream::wal::{write_term, read_term}`),
// so a triple is the same bytes in a WAL record, a replication frame and
// an INGEST payload.

/// Encodes a graph: triple count, then subject/predicate/object terms.
pub fn write_graph(w: &mut Vec<u8>, graph: &Graph) -> io::Result<()> {
    w.write_u64(graph.len() as u64)?;
    for t in graph.iter() {
        write_term(w, &t.subject);
        write_term(w, &t.predicate);
        write_term(w, &t.object);
    }
    Ok(())
}

/// Decodes a graph written by [`write_graph`]. Malformed triples (a
/// literal subject, say) surface as `InvalidData`, not a panic.
pub fn read_graph(r: &mut &[u8]) -> io::Result<Graph> {
    let n = r.read_u64()?;
    if n > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "graph triple count exceeds the frame bound",
        ));
    }
    // The count is untrusted: cap the pre-allocation and let push grow
    // the vec if a (frame-bounded) payload really carries more.
    let mut triples = Vec::with_capacity(se_sds::capped(n));
    for _ in 0..n {
        let subject = read_term(r)?;
        let predicate = read_term(r)?;
        let object = read_term(r)?;
        if !subject.is_resource() || predicate.as_iri().is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed triple: subject must be a resource, predicate an IRI",
            ));
        }
        triples.push(Triple {
            subject,
            predicate,
            object,
        });
    }
    Ok(Graph::from_triples(triples))
}

const OPT_REASONING: u8 = 0b001;

/// Encodes query options as one flags byte. Bits 1–2 are reserved (once
/// the retired optimizer switches) and written as zero.
pub fn write_options<W: Write>(w: &mut W, o: &QueryOptions) -> io::Result<()> {
    w.write_u8(if o.reasoning { OPT_REASONING } else { 0 })
}

/// Decodes the options byte; reserved bits are ignored.
pub fn read_options<R: Read>(r: &mut R) -> io::Result<QueryOptions> {
    let flags = r.read_u8()?;
    Ok(QueryOptions {
        reasoning: flags & OPT_REASONING != 0,
    })
}

/// Encodes a result set: variables, then rows of optional terms.
pub fn write_result_set(w: &mut Vec<u8>, rs: &ResultSet) -> io::Result<()> {
    w.write_u32(rs.variables.len() as u32)?;
    for v in &rs.variables {
        w.write_str(v)?;
    }
    w.write_u64(rs.rows.len() as u64)?;
    for row in &rs.rows {
        for cell in row {
            match cell {
                Some(term) => {
                    w.write_u8(1)?;
                    write_term(w, term);
                }
                None => w.write_u8(0)?,
            }
        }
    }
    Ok(())
}

/// Decodes a result set written by [`write_result_set`].
pub fn read_result_set(r: &mut &[u8]) -> io::Result<ResultSet> {
    let nvars = r.read_u32()? as usize;
    let mut variables = Vec::with_capacity(nvars.min(1024));
    for _ in 0..nvars {
        variables.push(r.read_str()?);
    }
    let nrows = r.read_u64()?;
    let mut rows = Vec::new();
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(nvars.min(1024));
        for _ in 0..nvars {
            row.push(match r.read_u8()? {
                0 => None,
                _ => Some(read_term(r)?),
            });
        }
        rows.push(row);
    }
    Ok(ResultSet { variables, rows })
}

// ------------------------------------------------------------- replies

/// The [`resp::INGEST`] reply: aggregate accounting for the whole
/// group-commit batch the request rode in (every coalesced request
/// receives the same numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAck {
    /// Store epoch after the batch's apply.
    pub epoch: u64,
    /// Effective insertions across the batch.
    pub inserted: u64,
    /// Effective deletions across the batch.
    pub deleted: u64,
    /// No-op operations across the batch.
    pub noops: u64,
    /// Ingest requests coalesced into the batch (≥ 1, includes ours).
    pub coalesced: u32,
    /// Whether the apply triggered a compaction.
    pub compacted: bool,
}

impl IngestAck {
    /// The reply payload, in the layout [`resp::INGEST`] documents.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(37);
        for v in [self.epoch, self.inserted, self.deleted, self.noops] {
            w.extend_from_slice(&v.to_le_bytes());
        }
        w.extend_from_slice(&self.coalesced.to_le_bytes());
        w.push(u8::from(self.compacted));
        w
    }

    /// Decodes a payload written by [`IngestAck::encode`].
    pub fn decode(mut r: &[u8]) -> io::Result<Self> {
        Ok(Self {
            epoch: r.read_u64()?,
            inserted: r.read_u64()?,
            deleted: r.read_u64()?,
            noops: r.read_u64()?,
            coalesced: r.read_u32()?,
            compacted: r.read_u8()? != 0,
        })
    }
}

/// The [`resp::STATS`] reply: the server's counters, read by the thread
/// that owns the store (the leader's writer or a replica's feed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Store epoch (group-commit batches applied).
    pub epoch: u64,
    /// Triples visible in the live store.
    pub triples: u64,
    /// Snapshots currently pinning store resources.
    pub live_pins: u64,
    /// Snapshots taken over the store's lifetime.
    pub snapshots: u64,
    /// Shard compactions performed.
    pub compactions: u64,
    /// Active continuous-query subscriptions.
    pub subscriptions: u64,
    /// Continuous-query evaluations: one per subscription per batch.
    pub full_evals: u64,
    /// Plan-cache executions (QUERY frames and continuous-query
    /// evaluations) that reused a cached plan with zero SPARQL parsing.
    pub plan_hits: u64,
    /// Plan-cache executions that parsed and/or compiled.
    pub plan_misses: u64,
    /// Fresh plan compilations (excludes re-costs).
    pub plan_compiles: u64,
    /// Plan/text entries dropped by the cache's LRU caps.
    pub plan_evictions: u64,
    /// Stale plans re-ordered after the store epoch advanced past the
    /// staleness threshold.
    pub plan_recosts: u64,
    /// 1 if the WAL refused appends after an earlier failure (the store
    /// serves reads but acks no writes until a checkpoint heals it).
    pub wal_poisoned: u64,
    /// WAL append attempts that failed (including those refused while
    /// poisoned).
    pub wal_appends_failed: u64,
    /// Replication feeds currently attached (leader only).
    pub replicas: u64,
    /// WAL records shipped to replication feeds, catch-up + live.
    pub repl_records_shipped: u64,
    /// Full-snapshot bootstraps served to lagging followers.
    pub repl_snapshots_served: u64,
    /// Feed drops this node recovered from by re-syncing (replica only).
    pub repl_resyncs: u64,
}

impl ServerStats {
    /// The reply payload: every counter as a `u64`, in field order.
    pub fn encode(&self) -> Vec<u8> {
        let s = self;
        [
            s.epoch,
            s.triples,
            s.live_pins,
            s.snapshots,
            s.compactions,
            s.subscriptions,
            s.full_evals,
            s.plan_hits,
            s.plan_misses,
            s.plan_compiles,
            s.plan_evictions,
            s.plan_recosts,
            s.wal_poisoned,
            s.wal_appends_failed,
            s.replicas,
            s.repl_records_shipped,
            s.repl_snapshots_served,
            s.repl_resyncs,
        ]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
    }

    /// Decodes a payload written by [`ServerStats::encode`].
    pub fn decode(mut r: &[u8]) -> io::Result<Self> {
        // Struct-literal fields evaluate in the order written: field order.
        let mut next = || r.read_u64();
        Ok(Self {
            epoch: next()?,
            triples: next()?,
            live_pins: next()?,
            snapshots: next()?,
            compactions: next()?,
            subscriptions: next()?,
            full_evals: next()?,
            plan_hits: next()?,
            plan_misses: next()?,
            plan_compiles: next()?,
            plan_evictions: next()?,
            plan_recosts: next()?,
            wal_poisoned: next()?,
            wal_appends_failed: next()?,
            replicas: next()?,
            repl_records_shipped: next()?,
            repl_snapshots_served: next()?,
            repl_resyncs: next()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_rdf::{Literal, Term};

    #[test]
    fn reserved_option_bits_are_ignored() {
        let decode = |flags: u8| read_options(&mut [flags].as_slice()).unwrap();
        assert_eq!(decode(0b110), decode(0b000));
        assert_eq!(decode(0b110), QueryOptions::without_reasoning());
        assert_eq!(decode(0b111), QueryOptions::default());
        let mut buf = Vec::new();
        write_options(&mut buf, &QueryOptions::default()).unwrap();
        assert_eq!(buf, [OPT_REASONING]);
    }

    /// Every term shape crosses the wire unchanged as a result-set cell.
    #[test]
    fn term_codec_round_trips_every_variant() {
        let terms = [
            Term::iri("http://x/a"),
            Term::blank("b0"),
            Term::literal("plain"),
            Term::Literal(Literal::typed(
                "3",
                "http://www.w3.org/2001/XMLSchema#integer",
            )),
            Term::Literal(Literal::lang("bonjour", "fr")),
        ];
        let rs = ResultSet {
            variables: vec!["t".into()],
            rows: terms.iter().map(|t| vec![Some(t.clone())]).collect(),
        };
        let mut buf = Vec::new();
        write_result_set(&mut buf, &rs).unwrap();
        let back = read_result_set(&mut buf.as_slice()).unwrap();
        let got: Vec<Term> = back
            .rows
            .into_iter()
            .map(|r| r[0].clone().unwrap())
            .collect();
        assert_eq!(got, terms);
    }

    #[test]
    fn graph_codec_rejects_malformed_triples() {
        let mut buf = Vec::new();
        buf.write_u64(1).unwrap();
        write_term(&mut buf, &Term::literal("bad-subject"));
        write_term(&mut buf, &Term::iri("http://x/p"));
        write_term(&mut buf, &Term::iri("http://x/o"));
        assert!(read_graph(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn reply_codecs_round_trip_and_reject_truncation() {
        let ack = IngestAck {
            epoch: 7,
            inserted: 3,
            deleted: 1,
            noops: 2,
            coalesced: 5,
            compacted: true,
        };
        let bytes = ack.encode();
        assert_eq!(bytes.len(), 4 * 8 + 4 + 1);
        assert_eq!(IngestAck::decode(&bytes).unwrap(), ack);
        assert!(IngestAck::decode(&bytes[..bytes.len() - 1]).is_err());

        let mut stats = ServerStats::decode(&[0; 18 * 8]).unwrap();
        stats.epoch = 1;
        stats.plan_hits = 8;
        stats.repl_resyncs = 18;
        let bytes = stats.encode();
        assert_eq!(bytes.len(), 18 * 8);
        assert_eq!(bytes[..8], 1u64.to_le_bytes());
        assert_eq!(bytes[7 * 8..8 * 8], 8u64.to_le_bytes());
        assert_eq!(ServerStats::decode(&bytes).unwrap(), stats);
        assert!(ServerStats::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn result_set_codec_round_trips_unbound_cells() {
        let rs = ResultSet {
            variables: vec!["s".into(), "o".into()],
            rows: vec![
                vec![Some(Term::iri("http://x/a")), None],
                vec![None, Some(Term::literal("42"))],
            ],
        };
        let mut buf = Vec::new();
        write_result_set(&mut buf, &rs).unwrap();
        let back = read_result_set(&mut buf.as_slice()).unwrap();
        assert_eq!(back.variables, rs.variables);
        assert_eq!(format!("{:?}", back.rows), format!("{:?}", rs.rows));
    }

    /// A hostile declared length (string or triple count) far beyond the
    /// actual payload must come back as a clean error — not an up-front
    /// allocation of that size aborting the process (the server parses
    /// every payload with these codecs).
    #[test]
    fn hostile_declared_lengths_error_instead_of_allocating() {
        // A graph whose one IRI subject claims ~8 EB of content.
        let mut buf = Vec::new();
        buf.write_u64(1).unwrap();
        buf.write_u8(0).unwrap(); // IRI tag
        buf.write_u64(u64::MAX / 2).unwrap();
        buf.extend_from_slice(b"short");
        assert!(read_graph(&mut buf.as_slice()).is_err());

        // A literal object whose flags set a bit beyond datatype (0b01)
        // and language (0b10).
        let mut buf = Vec::new();
        buf.write_u64(1).unwrap();
        write_term(&mut buf, &Term::iri("http://x/s"));
        write_term(&mut buf, &Term::iri("http://x/p"));
        buf.write_u8(2).unwrap(); // literal tag
        buf.write_str("v").unwrap();
        buf.write_u8(0b100).unwrap();
        let err = read_graph(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A graph claiming the maximum in-bound triple count with a
        // near-empty body: the capacity cap keeps the pre-allocation
        // small and the first missing term ends the parse cleanly.
        let mut buf = Vec::new();
        buf.write_u64(MAX_FRAME as u64).unwrap();
        assert!(read_graph(&mut buf.as_slice()).is_err());

        // A result set claiming u32::MAX variables backed by nothing.
        let mut buf = Vec::new();
        buf.write_u32(u32::MAX).unwrap();
        assert!(read_result_set(&mut buf.as_slice()).is_err());
    }

    /// A frame whose length prefix declares (just under) MAX_FRAME but
    /// whose body is a handful of bytes must error out without first
    /// committing the declared size: 12 hostile bytes used to cost the
    /// server a 64 MiB zeroed allocation per connection.
    #[test]
    fn hostile_frame_length_errors_without_allocating() {
        let mut buf = Vec::new();
        buf.write_u32(MAX_FRAME).unwrap();
        buf.write_u8(req::QUERY).unwrap();
        buf.extend_from_slice(b"tiny");
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            err.to_string().contains("truncated"),
            "want the truncation diagnostic, got: {err}"
        );
    }

    #[test]
    fn frame_round_trip_and_length_guard() {
        let mut buf = Vec::new();
        write_frame(&mut buf, req::QUERY, b"payload").unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(kind, req::QUERY);
        assert_eq!(payload, b"payload");

        let mut bad = Vec::new();
        bad.write_u32(MAX_FRAME + 1).unwrap();
        bad.write_u8(req::QUERY).unwrap();
        assert!(read_frame(&mut bad.as_slice()).is_err());
    }
}
