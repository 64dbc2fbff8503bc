//! The wire protocol: length-prefixed frames over TCP, with binary
//! codecs for RDF terms, graphs and SPARQL result sets built on the
//! [`se_sds`] little-endian primitives.
//!
//! A frame is `[len: u32 LE][kind: u8][payload: len-1 bytes]` — `len`
//! counts the kind byte plus the payload, so an empty-payload frame has
//! `len == 1`. Request kinds occupy `0x01..=0x7F`, response kinds
//! `0x80..=0xFF`; see [`req`] and [`resp`]. The full frame and payload
//! layouts are documented in `docs/server.md`.

use se_rdf::{Graph, Literal, Term, Triple};
use se_sds::{ReadBin, WriteBin};
use se_sparql::{QueryOptions, ResultSet};
use std::io::{self, Read, Write};

/// Upper bound on a frame's declared length: a malformed or hostile
/// length prefix fails fast instead of provoking a giant allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// Request frame kinds (client → server).
pub mod req {
    /// Payload: inserts [`Graph`] + deletes [`Graph`]. The server may
    /// coalesce the request with other clients' writes into one
    /// group-commit tick; the ack reports the whole tick.
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
    /// Group-commit ack: epoch `u64`, inserted `u64`, deleted `u64`,
    /// noops `u64`, coalesced requests `u32`, compacted `u8`. Counts are
    /// aggregates over the *whole tick* the request rode in.
    pub const INGEST: u8 = 0x80;
    /// Point-query answer: snapshot epoch `u64` + [`ResultSet`].
    pub const ROWS: u8 = 0x81;
    /// Continuous-query push: subscription id `str`, epoch `u64`, then a
    /// payload-kind byte — [`PUSH_FULL`](super::PUSH_FULL) followed by
    /// one [`ResultSet`] (the whole answer set; a subscription's first
    /// push), or [`PUSH_CHANGES`](super::PUSH_CHANGES) followed by two
    /// `ResultSet`s (rows added, rows removed this tick). Ticks that
    /// leave a query's answers untouched push nothing at all. Arrives
    /// interleaved with request replies; clients must queue it (see
    /// [`Client`](crate::client::Client)).
    pub const PUSH: u8 = 0x82;
    /// Stats: epoch `u64`, triples `u64`, live pins `u64`, snapshots
    /// `u64`, compactions `u64`, subscriptions `u64`, incremental evals
    /// `u64`, full evals `u64`, delta triples added `u64`, delta
    /// triples removed `u64`, plan-cache hits `u64`, plan-cache misses
    /// `u64`, plan compiles `u64`, plan evictions `u64`, plan re-costs
    /// `u64`, WAL poisoned `u64`, WAL appends failed `u64`, replicas
    /// `u64`, replication records shipped `u64`, replication snapshots
    /// served `u64`, replication re-syncs `u64`.
    pub const STATS: u8 = 0x83;
    /// Bare success (subscribe / shutdown ack). Empty payload.
    pub const OK: u8 = 0x84;
    /// Replication bootstrap: epoch `u64` + full [`Graph`]. Sent when
    /// the leader's WAL tail no longer covers the follower's epoch; the
    /// follower rebuilds its store from the graph and aligns to the
    /// carried epoch before consuming further records.
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

const TERM_IRI: u8 = 0;
const TERM_BLANK: u8 = 1;
const TERM_LITERAL: u8 = 2;

const LIT_DATATYPE: u8 = 0b01;
const LIT_LANGUAGE: u8 = 0b10;

/// Encodes a term: tag byte, then the tag-specific fields.
pub fn write_term<W: Write>(w: &mut W, term: &Term) -> io::Result<()> {
    match term {
        Term::Iri(iri) => {
            w.write_u8(TERM_IRI)?;
            w.write_str(iri)
        }
        Term::Blank(label) => {
            w.write_u8(TERM_BLANK)?;
            w.write_str(label)
        }
        Term::Literal(lit) => {
            w.write_u8(TERM_LITERAL)?;
            w.write_str(&lit.value)?;
            let flags = lit.datatype.as_ref().map_or(0, |_| LIT_DATATYPE)
                | lit.language.as_ref().map_or(0, |_| LIT_LANGUAGE);
            w.write_u8(flags)?;
            if let Some(dt) = &lit.datatype {
                w.write_str(dt)?;
            }
            if let Some(lang) = &lit.language {
                w.write_str(lang)?;
            }
            Ok(())
        }
    }
}

/// Decodes a term written by [`write_term`].
pub fn read_term<R: Read>(r: &mut R) -> io::Result<Term> {
    match r.read_u8()? {
        TERM_IRI => Ok(Term::iri(r.read_str()?)),
        TERM_BLANK => Ok(Term::blank(r.read_str()?)),
        TERM_LITERAL => {
            let value = r.read_str()?;
            let flags = r.read_u8()?;
            let datatype = if flags & LIT_DATATYPE != 0 {
                Some(r.read_str()?)
            } else {
                None
            };
            let language = if flags & LIT_LANGUAGE != 0 {
                Some(r.read_str()?)
            } else {
                None
            };
            Ok(Term::Literal(Literal {
                value: value.into(),
                datatype: datatype.map(Into::into),
                language: language.map(Into::into),
            }))
        }
        tag => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown term tag {tag}"),
        )),
    }
}

/// Encodes a graph: triple count, then subject/predicate/object terms.
pub fn write_graph<W: Write>(w: &mut W, graph: &Graph) -> io::Result<()> {
    w.write_u64(graph.len() as u64)?;
    for t in graph.iter() {
        write_term(w, &t.subject)?;
        write_term(w, &t.predicate)?;
        write_term(w, &t.object)?;
    }
    Ok(())
}

/// Decodes a graph written by [`write_graph`]. Malformed triples (a
/// literal subject, say) surface as `InvalidData`, not a panic.
pub fn read_graph<R: Read>(r: &mut R) -> io::Result<Graph> {
    let n = r.read_u64()?;
    if n > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "graph triple count exceeds the frame bound",
        ));
    }
    // The count is untrusted: cap the pre-allocation and let push grow
    // the vec if a (frame-bounded) payload really carries more.
    let mut triples = Vec::with_capacity((n as usize).min(1 << 16));
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
pub fn write_result_set<W: Write>(w: &mut W, rs: &ResultSet) -> io::Result<()> {
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
                    write_term(w, term)?;
                }
                None => w.write_u8(0)?,
            }
        }
    }
    Ok(())
}

/// Decodes a result set written by [`write_result_set`].
pub fn read_result_set<R: Read>(r: &mut R) -> io::Result<ResultSet> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        for term in &terms {
            let mut buf = Vec::new();
            write_term(&mut buf, term).unwrap();
            let back = read_term(&mut buf.as_slice()).unwrap();
            assert_eq!(&back, term);
        }
    }

    #[test]
    fn graph_codec_rejects_malformed_triples() {
        let mut buf = Vec::new();
        buf.write_u64(1).unwrap();
        write_term(&mut buf, &Term::literal("bad-subject")).unwrap();
        write_term(&mut buf, &Term::iri("http://x/p")).unwrap();
        write_term(&mut buf, &Term::iri("http://x/o")).unwrap();
        assert!(read_graph(&mut buf.as_slice()).is_err());
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
        // An IRI term whose string claims ~8 EB of content.
        let mut buf = vec![TERM_IRI];
        buf.write_u64(u64::MAX / 2).unwrap();
        buf.extend_from_slice(b"short");
        assert!(read_term(&mut buf.as_slice()).is_err());

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
