//! A blocking client for the se-server wire protocol, used by tests,
//! examples and benches.
//!
//! Subscription pushes arrive on the same stream as request replies, so
//! a push observed while waiting for a reply is queued and surfaced
//! later through [`Client::next_push`].

use crate::protocol::{self as proto, read_frame, write_frame, IngestAck, ServerStats};
use se_rdf::Graph;
use se_sds::{ReadBin, WriteBin};
use se_sparql::{QueryOptions, ResultSet};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The inner error of every timeout the client reports: a configured
/// [`Client::set_read_timeout`] elapsed before a frame arrived. The
/// connection is still synchronized (nothing of the next frame was
/// consumed), so the same call can simply be retried. Test with
/// [`Client::is_timeout`] rather than matching [`io::ErrorKind`] — the
/// kind of a timeout differs across platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadTimedOut;

impl fmt::Display for ReadTimedOut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "read timed out before a frame arrived")
    }
}

impl std::error::Error for ReadTimedOut {}

/// A point-query answer, stamped with the snapshot epoch it saw.
#[derive(Debug, Clone)]
pub struct Rows {
    /// Epoch of the snapshot the query executed against.
    pub epoch: u64,
    /// The answer set.
    pub results: ResultSet,
}

/// One pushed continuous-query answer.
///
/// The wire carries either a full frame (a subscription's first push)
/// or a changes frame (added/removed rows for one tick); the client
/// folds change frames into a per-subscription materialized view, so
/// every `Push` exposes **both** the tick's changes and the full
/// answer set they produce.
#[derive(Debug, Clone)]
pub struct Push {
    /// The subscription id the answer belongs to.
    pub id: String,
    /// Store epoch after the batch that produced it.
    pub epoch: u64,
    /// Whether this was the subscription's initial full frame.
    pub initial: bool,
    /// Rows that entered the answer set this tick (the whole set on the
    /// initial frame).
    pub added: ResultSet,
    /// Rows that left the answer set this tick.
    pub removed: ResultSet,
    /// The full answer set over the post-batch state, reconstructed
    /// from the change stream.
    pub results: ResultSet,
}

/// The client-side materialized view of one subscription: row → count
/// (derivations under bag semantics, 0/1 under DISTINCT).
#[derive(Debug, Default)]
struct View {
    variables: Vec<String>,
    counts: HashMap<Vec<Option<se_rdf::Term>>, i64>,
}

impl View {
    fn materialize(&self) -> ResultSet {
        let mut rows = Vec::new();
        for (row, &c) in &self.counts {
            for _ in 0..c.max(0) {
                rows.push(row.clone());
            }
        }
        ResultSet {
            variables: self.variables.clone(),
            rows,
        }
    }
}

/// A pre-encoded QUERY request payload (text + options), built once by
/// [`Client::prepare`] and reusable across calls — and across clients:
/// it holds no connection state.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    payload: Vec<u8>,
}

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    pending_pushes: VecDeque<Push>,
    views: HashMap<String, View>,
    read_timeout: Option<Duration>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            pending_pushes: VecDeque::new(),
            views: HashMap::new(),
            read_timeout: None,
        })
    }

    /// Bounds how long any read ([`Client::next_push`] and every
    /// request's reply wait) blocks before failing with a retryable
    /// timeout — `None` (the default) blocks forever. On a timeout the
    /// error satisfies [`Client::is_timeout`] and the connection stays
    /// synchronized: the wait only *peeks* at the socket, so no frame is
    /// ever half-read, and the caller can retry the same call.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
    }

    /// Whether `e` is this client's read timeout — i.e. retrying the
    /// call that returned it is safe and meaningful.
    pub fn is_timeout(e: &io::Error) -> bool {
        e.get_ref().is_some_and(|inner| inner.is::<ReadTimedOut>())
    }

    /// Blocks until at least one byte of the next frame is available (or
    /// the configured timeout elapses) without consuming anything, then
    /// clears the socket timeout so the frame itself is read whole.
    fn wait_for_frame(&mut self) -> io::Result<()> {
        let Some(limit) = self.read_timeout else {
            return Ok(());
        };
        self.stream.set_read_timeout(Some(limit))?;
        let mut probe = [0u8; 1];
        let ready = match self.stream.peek(&mut probe) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(_) => Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Err(io::Error::new(io::ErrorKind::TimedOut, ReadTimedOut))
            }
            Err(e) => Err(e),
        };
        self.stream.set_read_timeout(None)?;
        ready
    }

    /// Sends one write batch; blocks until the server has applied it —
    /// together with any other writes queued behind the writer's previous
    /// apply — evaluated every continuous query, fsynced the WAL record
    /// (when a WAL is attached) and acked.
    pub fn ingest(&mut self, inserts: &Graph, deletes: &Graph) -> io::Result<IngestAck> {
        let mut payload = Vec::new();
        proto::write_graph(&mut payload, inserts)?;
        proto::write_graph(&mut payload, deletes)?;
        let (kind, body) = self.request(proto::req::INGEST, &payload)?;
        expect(kind, proto::resp::INGEST, &body)?;
        IngestAck::decode(&body)
    }

    /// Executes a point query against the server's latest snapshot.
    pub fn query(&mut self, text: &str, options: &QueryOptions) -> io::Result<Rows> {
        let prepared = Self::prepare(text, options)?;
        self.query_prepared(&prepared)
    }

    /// Encodes a query request frame once, for repeated execution via
    /// [`Client::query_prepared`]. Hot callers that re-issue the same
    /// query skip re-encoding the text and options per call — and the
    /// identical bytes keep the server's plan cache on its text-level
    /// (zero-parse) fast path. No protocol change: the wire frame is
    /// byte-identical to [`Client::query`]'s.
    pub fn prepare(text: &str, options: &QueryOptions) -> io::Result<PreparedQuery> {
        let mut payload = Vec::new();
        payload.write_str(text)?;
        proto::write_options(&mut payload, options)?;
        Ok(PreparedQuery { payload })
    }

    /// Executes a query prepared with [`Client::prepare`]: writes the
    /// pre-encoded frame verbatim.
    pub fn query_prepared(&mut self, prepared: &PreparedQuery) -> io::Result<Rows> {
        let (kind, body) = self.request(proto::req::QUERY, &prepared.payload)?;
        expect(kind, proto::resp::ROWS, &body)?;
        let mut r = body.as_slice();
        Ok(Rows {
            epoch: r.read_u64()?,
            results: proto::read_result_set(&mut r)?,
        })
    }

    /// Registers a continuous query under `id`. The server pushes the
    /// full answer set once, then only per-tick changes — and nothing
    /// on ticks that leave the answers untouched (see
    /// [`Client::next_push`]).
    pub fn subscribe(&mut self, id: &str, text: &str, options: &QueryOptions) -> io::Result<()> {
        let mut payload = Vec::new();
        payload.write_str(id)?;
        payload.write_str(text)?;
        proto::write_options(&mut payload, options)?;
        let (kind, body) = self.request(proto::req::SUBSCRIBE, &payload)?;
        expect(kind, proto::resp::OK, &body)
    }

    /// Returns the next continuous-query push, blocking until one
    /// arrives. Pushes queued while waiting for request replies are
    /// drained first, in arrival order.
    pub fn next_push(&mut self) -> io::Result<Push> {
        if let Some(push) = self.pending_pushes.pop_front() {
            return Ok(push);
        }
        self.wait_for_frame()?;
        let (kind, body) = read_frame(&mut self.stream)?;
        if kind == proto::resp::PUSH {
            return self.parse_push(&body);
        }
        // A non-push frame here means the caller interleaved requests
        // and pushes incorrectly; surface it as data.
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected a push frame, got kind {kind:#04x}"),
        ))
    }

    /// Fetches the server's counters.
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        let (kind, body) = self.request(proto::req::STATS, &[])?;
        expect(kind, proto::resp::STATS, &body)?;
        ServerStats::decode(&body)
    }

    /// Asks the server to stop; returns once the ack arrives.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let (kind, body) = self.request(proto::req::SHUTDOWN, &[])?;
        expect(kind, proto::resp::OK, &body)
    }

    /// Writes one request frame and reads until its reply, queueing any
    /// pushes that arrive in between.
    fn request(&mut self, kind: u8, payload: &[u8]) -> io::Result<(u8, Vec<u8>)> {
        write_frame(&mut self.stream, kind, payload)?;
        loop {
            self.wait_for_frame()?;
            let (kind, body) = read_frame(&mut self.stream)?;
            if kind == proto::resp::PUSH {
                let push = self.parse_push(&body)?;
                self.pending_pushes.push_back(push);
                continue;
            }
            return Ok((kind, body));
        }
    }

    /// Decodes a push frame and folds it into the subscription's
    /// materialized view.
    fn parse_push(&mut self, body: &[u8]) -> io::Result<Push> {
        let mut r = body;
        let id = r.read_str()?;
        let epoch = r.read_u64()?;
        match r.read_u8()? {
            proto::PUSH_FULL => {
                let results = proto::read_result_set(&mut r)?;
                let mut view = View {
                    variables: results.variables.clone(),
                    counts: HashMap::new(),
                };
                for row in &results.rows {
                    *view.counts.entry(row.clone()).or_insert(0) += 1;
                }
                self.views.insert(id.clone(), view);
                Ok(Push {
                    id,
                    epoch,
                    initial: true,
                    added: results.clone(),
                    removed: ResultSet {
                        variables: results.variables.clone(),
                        rows: Vec::new(),
                    },
                    results,
                })
            }
            proto::PUSH_CHANGES => {
                let added = proto::read_result_set(&mut r)?;
                let removed = proto::read_result_set(&mut r)?;
                let view = self.views.get_mut(&id).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("changes frame for unprimed subscription {id:?}"),
                    )
                })?;
                for row in &added.rows {
                    *view.counts.entry(row.clone()).or_insert(0) += 1;
                }
                for row in &removed.rows {
                    let n = view.counts.entry(row.clone()).or_insert(0);
                    *n -= 1;
                    if *n <= 0 {
                        let neg = *n < 0;
                        view.counts.remove(row);
                        if neg {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("subscription {id:?} removed a row it never held"),
                            ));
                        }
                    }
                }
                let results = self.views[&id].materialize();
                Ok(Push {
                    id,
                    epoch,
                    initial: false,
                    added,
                    removed,
                    results,
                })
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown push payload kind {other:#04x}"),
            )),
        }
    }
}

/// Maps an `ERR` frame to `io::Error` and checks the reply kind.
fn expect(kind: u8, want: u8, body: &[u8]) -> io::Result<()> {
    if kind == want {
        return Ok(());
    }
    if kind == proto::resp::ERR {
        let mut r = body;
        let msg = r
            .read_str()
            .unwrap_or_else(|_| "malformed error frame".into());
        return Err(io::Error::other(format!("server: {msg}")));
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected reply kind {want:#04x}, got {kind:#04x}"),
    ))
}
