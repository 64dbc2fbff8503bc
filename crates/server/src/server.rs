//! The stream server: one writer thread owning the store, any number of
//! connection threads serving clients over the snapshot slot.
//!
//! # Architecture
//!
//! ```text
//!  client conns ──frames──▶ connection threads
//!       │                        │        ╲
//!       │   INGEST/SUBSCRIBE     │ QUERY   ╲ (clone)
//!       ▼                        ▼          ▼
//!   mpsc::Sender<Cmd> ───▶ writer thread   snapshot slot
//!                          (group commit)  Arc<Mutex<StoreSnapshot>>
//!                          owns the store ──publishes──▲
//! ```
//!
//! * **Writer thread** — sole owner of the
//!   [`StreamSession<ShardedHybridStore>`]. It drains the command channel
//!   with a group-commit tick: the first `INGEST` opens a window of
//!   [`ServerConfig::tick`]; every write arriving inside the window is
//!   coalesced (all deletes, then all inserts) into **one**
//!   [`apply`](se_stream::ShardedHybridStore::apply). After the apply it
//!   publishes a fresh [`StoreSnapshot`], acks every coalesced request
//!   with the tick's aggregate report, and pushes each continuous-query
//!   answer to its subscriber.
//! * **Connection threads** — one per client. Point queries clone the
//!   published snapshot (an `Arc` bump) and execute on the connection
//!   thread: readers never enter the writer's queue and are never blocked
//!   by ingest or compaction. Responses and pushes to one client are
//!   serialized through a shared sink lock.

use crate::protocol::{self as proto, read_frame, write_frame};
use se_sparql::{PlanCache, QueryOptions};
use se_stream::{ShardedHybridStore, StoreSnapshot, StreamSession};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A client's write half, shared between its connection thread
/// (request replies) and the writer thread (subscription pushes).
pub(crate) type ClientSink = Arc<Mutex<TcpStream>>;

/// How often an idle connection thread wakes to check the stop flag.
/// Bounded so `SHUTDOWN` never hangs on a quiet subscriber whose
/// connection thread would otherwise block in a read forever.
pub(crate) const CONN_POLL: Duration = Duration::from_millis(50);

/// One active subscription as the writer sees it.
pub(crate) struct Sub {
    pub(crate) sink: ClientSink,
    /// Whether the subscriber has received its initial full frame.
    /// Until then every tick pushes the whole answer set; afterwards
    /// only changed ticks push, and they push just the changes.
    pub(crate) primed: bool,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Group-commit window: how long the writer keeps coalescing after
    /// the first write of a tick before applying. Zero degenerates to
    /// one apply per request.
    pub tick: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(2),
        }
    }
}

/// Aggregate ack for one group-commit tick (every coalesced request
/// receives the same numbers).
#[derive(Debug, Clone, Copy)]
pub struct TickReport {
    /// Store epoch after the tick's apply.
    pub epoch: u64,
    /// Effective insertions across the whole tick.
    pub inserted: u64,
    /// Effective deletions across the whole tick.
    pub deleted: u64,
    /// No-op operations across the whole tick.
    pub noops: u64,
    /// Ingest requests coalesced into this tick.
    pub coalesced: u32,
    /// Whether the apply triggered a compaction.
    pub compacted: bool,
}

/// Commands the connection threads hand to the writer (and, on a
/// [`Replica`](crate::replica::Replica), to the feed thread).
pub(crate) enum Cmd {
    Ingest {
        inserts: se_rdf::Graph,
        deletes: se_rdf::Graph,
        done: mpsc::Sender<Result<TickReport, String>>,
    },
    Subscribe {
        id: String,
        text: String,
        options: QueryOptions,
        sink: ClientSink,
        done: mpsc::Sender<Result<(), String>>,
    },
    Stats {
        done: mpsc::Sender<StatsReport>,
    },
    Replicate {
        from_epoch: u64,
        sink: ClientSink,
        done: mpsc::Sender<Result<(), String>>,
    },
    Shutdown,
}

/// Replication-side counters, kept by whichever thread owns the store
/// (the leader's writer, or a replica's feed thread).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReplCounters {
    /// Attached replication feeds (always 0 on a replica).
    pub(crate) replicas: u64,
    /// WAL records shipped to feeds, catch-up and live combined.
    pub(crate) records_shipped: u64,
    /// Full-snapshot bootstraps served because the WAL tail no longer
    /// covered a follower's epoch.
    pub(crate) snapshots_served: u64,
    /// Times this node, as a follower, dropped its feed and re-synced
    /// (always 0 on a leader).
    pub(crate) resyncs: u64,
}

/// Snapshot of the server's counters, answered by the writer thread.
#[derive(Debug, Clone, Copy)]
pub struct StatsReport {
    /// Store epoch (group-commit ticks applied).
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
    /// Continuous-query evaluations served by the delta path.
    pub incremental_evals: u64,
    /// Continuous-query full (re-)evaluations: seeding, fallback
    /// queries, and batches without a captured delta.
    pub full_evals: u64,
    /// Net triples added across all captured batch deltas.
    pub delta_added: u64,
    /// Net triples removed across all captured batch deltas.
    pub delta_removed: u64,
    /// Plan-cache executions (QUERY frames and continuous-query full
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

/// A running server: its bound address plus the threads to join.
pub struct Server {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `store`. The store moves into the writer thread; all
    /// further access goes through client connections.
    pub fn start(
        store: ShardedHybridStore,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let slot = Arc::new(Mutex::new(store.snapshot()));
        let (tx, rx) = mpsc::channel::<Cmd>();
        let stop = Arc::new(AtomicBool::new(false));
        // One compiled-plan cache for the whole server: QUERY frames on
        // every connection thread and continuous-query (re)seeding on
        // the writer share its shape-level plans, so a repeated query
        // text executes with zero parsing wherever it arrives.
        let plan_cache = Arc::new(PlanCache::new());

        let writer = {
            let slot = Arc::clone(&slot);
            let cache = Arc::clone(&plan_cache);
            thread::Builder::new()
                .name("se-server-writer".into())
                .spawn(move || {
                    let mut session = StreamSession::new(store);
                    session.registry_mut().set_plan_cache(cache);
                    writer_loop(session, rx, slot, config.tick)
                })?
        };

        let accept = spawn_acceptor("se-server", listener, tx, slot, stop, plan_cache)?;

        Ok(Server {
            addr: local,
            accept: Some(accept),
            writer: Some(writer),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to stop (a client sent `SHUTDOWN`).
    pub fn join(mut self) {
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
    }
}

// --------------------------------------------------------------- writer

/// An ingest rider waiting in the tick window: inserts, deletes, ack.
type PendingIngest = (
    se_rdf::Graph,
    se_rdf::Graph,
    mpsc::Sender<Result<TickReport, String>>,
);

fn writer_loop(
    mut session: StreamSession<ShardedHybridStore>,
    rx: mpsc::Receiver<Cmd>,
    slot: Arc<Mutex<StoreSnapshot>>,
    tick: Duration,
) {
    // Active subscriptions: registry id → sink + primed flag.
    let mut subs: HashMap<String, Sub> = HashMap::new();
    // Attached replication feeds: every tick's WAL record goes to each.
    let mut replicas: Vec<ClientSink> = Vec::new();
    let mut repl = ReplCounters::default();
    // Initial frames always come from a seeding (or fallback) evaluation,
    // which carries the full answer set regardless of this flag — so the
    // steady-state delta path never has to materialize full sets.
    session.registry_mut().set_emit_full(false);
    loop {
        let Ok(first) = rx.recv() else { break };
        let mut pending: Vec<PendingIngest> = Vec::new();
        match dispatch(first, &mut session, &mut subs, &mut replicas, &mut repl) {
            Next::Shutdown => break,
            Next::Handled => continue,
            Next::Ingest(rider) => pending.push(rider),
        }

        // Group-commit window: coalesce every write that arrives within
        // `tick` of the first one. Non-write commands are handled inline
        // so a stats probe can't extend the window.
        let mut shutdown = false;
        let deadline = Instant::now() + tick;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(cmd) => match dispatch(cmd, &mut session, &mut subs, &mut replicas, &mut repl) {
                    Next::Ingest(rider) => pending.push(rider),
                    Next::Handled => {}
                    Next::Shutdown => {
                        shutdown = true;
                        break;
                    }
                },
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    shutdown = true;
                    break;
                }
            }
        }

        // One apply for the whole tick: all deletes, then all inserts.
        let coalesced = pending.len() as u32;
        let mut inserts = se_rdf::Graph::new();
        let mut deletes = se_rdf::Graph::new();
        for (ins, del, _) in &pending {
            for t in del.iter() {
                deletes.insert(t.clone());
            }
            for t in ins.iter() {
                inserts.insert(t.clone());
            }
        }
        let epoch_before = session.store().epoch();
        match session.apply_batch(&inserts, &deletes) {
            Ok(outcome) => {
                let snap = session.store().snapshot();
                let report = TickReport {
                    epoch: snap.epoch(),
                    inserted: outcome.report.inserted as u64,
                    deleted: outcome.report.deleted as u64,
                    noops: outcome.report.noops as u64,
                    coalesced,
                    compacted: outcome.report.compacted,
                };
                *slot.lock().expect("snapshot slot poisoned") = snap;
                for (_, _, done) in &pending {
                    let _ = done.send(Ok(report));
                }
                push_results(&mut session, &mut subs, outcome.results, report.epoch);
                // Ship this tick's WAL record to every attached feed.
                // Even an all-noop tick ships: the epoch advanced, and a
                // follower's consecutive-epoch invariant needs the gap
                // filled. A dead feed is dropped; when the last one goes
                // the forced delta capture is released.
                if !replicas.is_empty() {
                    let delta = outcome.report.delta.unwrap_or_default();
                    let payload = se_stream::encode_record_payload(report.epoch, &delta);
                    replicas.retain(|sink| {
                        let mut sink = sink.lock().expect("replica sink poisoned");
                        write_frame(&mut *sink, proto::resp::REPL_RECORD, &payload).is_ok()
                    });
                    repl.records_shipped += replicas.len() as u64;
                    if replicas.is_empty() {
                        session.set_force_delta_capture(false);
                    }
                }
            }
            Err(e) => {
                // A rejected batch fails this tick only: every rider
                // learns what happened and the writer carries on. A
                // failed WAL append leaves the batch applied (just not
                // durable) and the epoch advanced: publish that state,
                // so reads agree with what a follower bootstraps from.
                // Subscribers follow the same state: push its changes.
                let epoch = session.store().epoch();
                if epoch != epoch_before {
                    *slot.lock().expect("snapshot slot poisoned") = session.store().snapshot();
                    if let Ok(Some(results)) = session.catch_up() {
                        push_results(&mut session, &mut subs, results, epoch);
                    }
                }
                let msg = e.to_string();
                for (_, _, done) in &pending {
                    let _ = done.send(Err(msg.clone()));
                }
            }
        }
        if shutdown {
            break;
        }
    }
}

/// What the writer does after one command.
enum Next {
    /// A write joins the current tick.
    Ingest(PendingIngest),
    /// Answered on the spot.
    Handled,
    /// Stop after the current tick.
    Shutdown,
}

/// The writer's one handler per command: writes are returned for the
/// group-commit tick, everything else is answered immediately.
fn dispatch(
    cmd: Cmd,
    session: &mut StreamSession<ShardedHybridStore>,
    subs: &mut HashMap<String, Sub>,
    replicas: &mut Vec<ClientSink>,
    repl: &mut ReplCounters,
) -> Next {
    match cmd {
        Cmd::Shutdown => return Next::Shutdown,
        Cmd::Ingest {
            inserts,
            deletes,
            done,
        } => return Next::Ingest((inserts, deletes, done)),
        Cmd::Subscribe {
            id,
            text,
            options,
            sink,
            done,
        } => subscribe(session, subs, id, text, options, sink, done),
        Cmd::Stats { done } => {
            repl.replicas = replicas.len() as u64;
            let _ = done.send(stats(session, subs.len(), *repl));
        }
        Cmd::Replicate {
            from_epoch,
            sink,
            done,
        } => attach_replica(session, replicas, repl, from_epoch, sink, done),
    }
    Next::Handled
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn subscribe(
    session: &mut StreamSession<ShardedHybridStore>,
    subs: &mut HashMap<String, Sub>,
    id: String,
    text: String,
    options: QueryOptions,
    sink: ClientSink,
    done: mpsc::Sender<Result<(), String>>,
) {
    match session.register_query(id.clone(), &text, options) {
        Ok(()) => {
            // Re-subscribing an id replaces the query, so the sink must
            // be re-primed with a fresh full frame.
            subs.insert(
                id,
                Sub {
                    sink,
                    primed: false,
                },
            );
            let _ = done.send(Ok(()));
        }
        Err(e) => {
            let _ = done.send(Err(e.to_string()));
        }
    }
}

/// Catches a follower up to the current epoch — WAL-tail records when
/// the log still covers `(from_epoch, current]`, a full snapshot
/// otherwise — then registers its sink for live per-tick records.
fn attach_replica(
    session: &mut StreamSession<ShardedHybridStore>,
    replicas: &mut Vec<ClientSink>,
    repl: &mut ReplCounters,
    from_epoch: u64,
    sink: ClientSink,
    done: mpsc::Sender<Result<(), String>>,
) {
    let current = session.store().epoch();
    if from_epoch > current {
        let _ = done.send(Err(format!(
            "follower epoch {from_epoch} is ahead of leader epoch {current}"
        )));
        return;
    }
    if from_epoch < current {
        // Prefer shipping records: a follower replays them in O(delta)
        // instead of rebuilding from scratch. Every acked record is
        // already fsynced, but a poisoned log may lack batches this store
        // applied, so it never serves a tail. The writer thread is the
        // sole appender and it is parked here, so the read-only scan
        // cannot race an in-flight append.
        let store = session.store();
        let tail = (!store.wal_health().poisoned)
            .then(|| store.wal_dir())
            .flatten()
            .and_then(|dir| se_stream::read_tail(&dir, from_epoch).ok().flatten())
            .filter(|recs| recs.last().map(|r| r.epoch) == Some(current));
        let sent = match tail {
            Some(records) => {
                repl.records_shipped += records.len() as u64;
                records.iter().try_for_each(|rec| {
                    let payload = se_stream::encode_record_payload(rec.epoch, &rec.delta);
                    reply(&sink, proto::resp::REPL_RECORD, &payload)
                })
            }
            None => {
                repl.snapshots_served += 1;
                let graph = session.store().materialize();
                let mut payload = Vec::new();
                se_sds::WriteBin::write_u64(&mut payload, current)
                    .and_then(|()| proto::write_graph(&mut payload, &graph))
                    .and_then(|()| reply(&sink, proto::resp::REPL_SNAPSHOT, &payload))
            }
        };
        if sent.is_err() {
            let _ = done.send(Err("replication feed write failed during catch-up".into()));
            return;
        }
    }
    replicas.push(sink);
    session.set_force_delta_capture(true);
    let _ = done.send(Ok(()));
}

/// Pushes each continuous answer to its subscriber: the whole set once
/// (the initial frame), then only the per-tick changes — and nothing at
/// all on ticks that left the answer set untouched. A dead sink retires
/// the subscription. Shared by the leader's writer and a replica's feed
/// thread.
pub(crate) fn push_results(
    session: &mut StreamSession<ShardedHybridStore>,
    subs: &mut HashMap<String, Sub>,
    results: Vec<se_stream::ContinuousResult>,
    epoch: u64,
) {
    for result in results {
        let Some(sub) = subs.get_mut(&result.id) else {
            continue;
        };
        if sub.primed && result.unchanged() {
            continue;
        }
        let mut payload = Vec::new();
        let encoded = se_sds::WriteBin::write_str(&mut payload, &result.id)
            .and_then(|()| se_sds::WriteBin::write_u64(&mut payload, epoch))
            .and_then(|()| {
                if sub.primed {
                    se_sds::WriteBin::write_u8(&mut payload, proto::PUSH_CHANGES)?;
                    proto::write_result_set(&mut payload, &result.added)?;
                    proto::write_result_set(&mut payload, &result.removed)
                } else {
                    se_sds::WriteBin::write_u8(&mut payload, proto::PUSH_FULL)?;
                    proto::write_result_set(&mut payload, &result.results)
                }
            })
            .is_ok();
        let ok = encoded && {
            let mut sink = sub.sink.lock().expect("client sink poisoned");
            write_frame(&mut *sink, proto::resp::PUSH, &payload).is_ok()
        };
        if ok {
            sub.primed = true;
        } else {
            subs.remove(&result.id);
            session.registry_mut().deregister(&result.id);
        }
    }
}

pub(crate) fn stats(
    session: &StreamSession<ShardedHybridStore>,
    subscriptions: usize,
    repl: ReplCounters,
) -> StatsReport {
    let s = session.store().stats();
    let cq = session.stream_stats();
    StatsReport {
        epoch: s.epoch,
        triples: se_core::TripleSource::len(session.store()) as u64,
        live_pins: s.live_pins as u64,
        snapshots: s.snapshots as u64,
        compactions: s.compactions as u64,
        subscriptions: subscriptions as u64,
        incremental_evals: cq.incremental_evals,
        full_evals: cq.full_evals,
        delta_added: cq.delta_added,
        delta_removed: cq.delta_removed,
        plan_hits: cq.plan_hits,
        plan_misses: cq.plan_misses,
        plan_compiles: cq.plan_compiles,
        plan_evictions: cq.plan_evictions,
        plan_recosts: cq.plan_recosts,
        wal_poisoned: cq.wal_poisoned,
        wal_appends_failed: cq.wal_appends_failed,
        replicas: repl.replicas,
        repl_records_shipped: repl.records_shipped,
        repl_snapshots_served: repl.snapshots_served,
        repl_resyncs: repl.resyncs,
    }
}

// ---------------------------------------------------------- connections

/// Starts the accept thread `{role}-accept`: every connection on
/// `listener` is served by [`serve_connection`] on its own detached
/// thread `{role}-conn` (it exits when its client hangs up or the
/// writer goes away), until `stop` is set. The leader and a replica
/// accept through this one loop.
pub(crate) fn spawn_acceptor(
    role: &str,
    listener: TcpListener,
    tx: mpsc::Sender<Cmd>,
    slot: Arc<Mutex<StoreSnapshot>>,
    stop: Arc<AtomicBool>,
    plan_cache: Arc<PlanCache>,
) -> io::Result<JoinHandle<()>> {
    let addr = listener.local_addr()?;
    let conn_name = format!("{role}-conn");
    thread::Builder::new()
        .name(format!("{role}-accept"))
        .spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let tx = tx.clone();
                let slot = Arc::clone(&slot);
                let stop = Arc::clone(&stop);
                let cache = Arc::clone(&plan_cache);
                let _ = thread::Builder::new()
                    .name(conn_name.clone())
                    .spawn(move || {
                        let _ = serve_connection(stream, tx, slot, stop, cache, addr);
                    });
            }
        })
}

pub(crate) fn serve_connection(
    stream: TcpStream,
    tx: mpsc::Sender<Cmd>,
    slot: Arc<Mutex<StoreSnapshot>>,
    stop: Arc<AtomicBool>,
    plan_cache: Arc<PlanCache>,
    server_addr: SocketAddr,
) -> io::Result<()> {
    let mut reader = stream.try_clone()?;
    let sink: ClientSink = Arc::new(Mutex::new(stream));
    loop {
        // Wait for the next frame with a bounded peek so the thread can
        // observe the stop flag between frames. The peek consumes
        // nothing; once a byte is visible the timeout is cleared and the
        // frame is read blocking, so a frame can never be torn in half
        // by the poll interval.
        reader.set_read_timeout(Some(CONN_POLL))?;
        let mut probe = [0u8; 1];
        match reader.peek(&mut probe) {
            Ok(0) => return Ok(()), // client hung up
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(());
                }
                continue;
            }
            Err(_) => return Ok(()),
        }
        reader.set_read_timeout(None)?;
        let (kind, payload) = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(_) => return Ok(()), // client hung up
        };
        let mut p = payload.as_slice();
        match kind {
            proto::req::INGEST => {
                let parsed = (|| -> io::Result<_> {
                    let inserts = proto::read_graph(&mut p)?;
                    let deletes = proto::read_graph(&mut p)?;
                    Ok((inserts, deletes))
                })();
                match parsed {
                    Ok((inserts, deletes)) => {
                        let (done, ack) = mpsc::channel();
                        let sent = tx
                            .send(Cmd::Ingest {
                                inserts,
                                deletes,
                                done,
                            })
                            .is_ok();
                        match (sent, sent.then(|| ack.recv()).and_then(Result::ok)) {
                            (true, Some(Ok(r))) => {
                                let mut out = Vec::new();
                                se_sds::WriteBin::write_u64(&mut out, r.epoch)?;
                                se_sds::WriteBin::write_u64(&mut out, r.inserted)?;
                                se_sds::WriteBin::write_u64(&mut out, r.deleted)?;
                                se_sds::WriteBin::write_u64(&mut out, r.noops)?;
                                se_sds::WriteBin::write_u32(&mut out, r.coalesced)?;
                                se_sds::WriteBin::write_u8(&mut out, r.compacted as u8)?;
                                reply(&sink, proto::resp::INGEST, &out)?;
                            }
                            (true, Some(Err(msg))) => reply_err(&sink, &msg)?,
                            _ => reply_err(&sink, "server is shutting down")?,
                        }
                    }
                    Err(e) => reply_err(&sink, &e.to_string())?,
                }
            }
            proto::req::QUERY => {
                let parsed = (|| -> io::Result<_> {
                    let text = se_sds::ReadBin::read_str(&mut p)?;
                    let options = proto::read_options(&mut p)?;
                    Ok((text, options))
                })();
                match parsed {
                    Ok((text, options)) => {
                        // Clone the latest snapshot (an Arc bump) and
                        // evaluate here — the writer is never involved.
                        // The shared plan cache makes a repeated query
                        // text a pure bind-and-execute: no parsing, no
                        // optimizing on the hot path.
                        let snap = slot.lock().expect("snapshot slot poisoned").clone();
                        match plan_cache.execute_text(&*snap, &text, &options) {
                            Ok(rows) => {
                                let mut out = Vec::new();
                                se_sds::WriteBin::write_u64(&mut out, snap.epoch())?;
                                proto::write_result_set(&mut out, &rows)?;
                                reply(&sink, proto::resp::ROWS, &out)?;
                            }
                            Err(e) => reply_err(&sink, &e.to_string())?,
                        }
                    }
                    Err(e) => reply_err(&sink, &e.to_string())?,
                }
            }
            proto::req::SUBSCRIBE => {
                let parsed = (|| -> io::Result<_> {
                    let id = se_sds::ReadBin::read_str(&mut p)?;
                    let text = se_sds::ReadBin::read_str(&mut p)?;
                    let options = proto::read_options(&mut p)?;
                    Ok((id, text, options))
                })();
                match parsed {
                    Ok((id, text, options)) => {
                        let (done, ack) = mpsc::channel();
                        let sent = tx
                            .send(Cmd::Subscribe {
                                id,
                                text,
                                options,
                                sink: Arc::clone(&sink),
                                done,
                            })
                            .is_ok();
                        match (sent, sent.then(|| ack.recv()).and_then(Result::ok)) {
                            (true, Some(Ok(()))) => reply(&sink, proto::resp::OK, &[])?,
                            (true, Some(Err(msg))) => reply_err(&sink, &msg)?,
                            _ => reply_err(&sink, "server is shutting down")?,
                        }
                    }
                    Err(e) => reply_err(&sink, &e.to_string())?,
                }
            }
            proto::req::STATS => {
                let (done, ack) = mpsc::channel();
                let sent = tx.send(Cmd::Stats { done }).is_ok();
                match (sent, sent.then(|| ack.recv()).and_then(Result::ok)) {
                    (true, Some(s)) => {
                        let mut out = Vec::new();
                        se_sds::WriteBin::write_u64(&mut out, s.epoch)?;
                        se_sds::WriteBin::write_u64(&mut out, s.triples)?;
                        se_sds::WriteBin::write_u64(&mut out, s.live_pins)?;
                        se_sds::WriteBin::write_u64(&mut out, s.snapshots)?;
                        se_sds::WriteBin::write_u64(&mut out, s.compactions)?;
                        se_sds::WriteBin::write_u64(&mut out, s.subscriptions)?;
                        se_sds::WriteBin::write_u64(&mut out, s.incremental_evals)?;
                        se_sds::WriteBin::write_u64(&mut out, s.full_evals)?;
                        se_sds::WriteBin::write_u64(&mut out, s.delta_added)?;
                        se_sds::WriteBin::write_u64(&mut out, s.delta_removed)?;
                        se_sds::WriteBin::write_u64(&mut out, s.plan_hits)?;
                        se_sds::WriteBin::write_u64(&mut out, s.plan_misses)?;
                        se_sds::WriteBin::write_u64(&mut out, s.plan_compiles)?;
                        se_sds::WriteBin::write_u64(&mut out, s.plan_evictions)?;
                        se_sds::WriteBin::write_u64(&mut out, s.plan_recosts)?;
                        se_sds::WriteBin::write_u64(&mut out, s.wal_poisoned)?;
                        se_sds::WriteBin::write_u64(&mut out, s.wal_appends_failed)?;
                        se_sds::WriteBin::write_u64(&mut out, s.replicas)?;
                        se_sds::WriteBin::write_u64(&mut out, s.repl_records_shipped)?;
                        se_sds::WriteBin::write_u64(&mut out, s.repl_snapshots_served)?;
                        se_sds::WriteBin::write_u64(&mut out, s.repl_resyncs)?;
                        reply(&sink, proto::resp::STATS, &out)?;
                    }
                    _ => reply_err(&sink, "server is shutting down")?,
                }
            }
            proto::req::REPLICATE => {
                match se_sds::ReadBin::read_u64(&mut p) {
                    Ok(from_epoch) => {
                        let (done, ack) = mpsc::channel();
                        let sent = tx
                            .send(Cmd::Replicate {
                                from_epoch,
                                sink: Arc::clone(&sink),
                                done,
                            })
                            .is_ok();
                        // On success the catch-up frames (and every later
                        // live record) already flow from the writer; the
                        // connection is a feed now, and the client sends
                        // nothing further. Only failures get a reply.
                        match (sent, sent.then(|| ack.recv()).and_then(Result::ok)) {
                            (true, Some(Ok(()))) => {}
                            (true, Some(Err(msg))) => reply_err(&sink, &msg)?,
                            _ => reply_err(&sink, "server is shutting down")?,
                        }
                    }
                    Err(e) => reply_err(&sink, &e.to_string())?,
                }
            }
            proto::req::SHUTDOWN => {
                stop.store(true, Ordering::Release);
                let _ = tx.send(Cmd::Shutdown);
                // Wake the accept loop so it observes the stop flag.
                let _ = TcpStream::connect(server_addr);
                reply(&sink, proto::resp::OK, &[])?;
                return Ok(());
            }
            other => reply_err(&sink, &format!("unknown request kind {other:#04x}"))?,
        }
    }
}

pub(crate) fn reply(sink: &ClientSink, kind: u8, payload: &[u8]) -> io::Result<()> {
    let mut sink = sink.lock().expect("client sink poisoned");
    write_frame(&mut *sink, kind, payload)
}

pub(crate) fn reply_err(sink: &ClientSink, msg: &str) -> io::Result<()> {
    let mut payload = Vec::new();
    se_sds::WriteBin::write_str(&mut payload, msg)?;
    reply(sink, proto::resp::ERR, &payload)
}
