//! WAL-shipping read replicas: a follower process that replays the
//! leader's per-tick WAL records into its own store and serves QUERY /
//! SUBSCRIBE / STATS traffic from its published snapshot.
//!
//! # Architecture
//!
//! ```text
//!   leader se-server ──REPL_RECORD per tick──▶ feed thread
//!        ▲                                      │ replay + publish
//!        │ REPLICATE <from_epoch>               ▼
//!        └────────────(re-sync)──────── snapshot slot ◀── conn threads
//!                                                          QUERY/SUBSCRIBE
//! ```
//!
//! One **feed thread** owns the replica's
//! [`StreamSession<ShardedHybridStore>`] — the exact counterpart of the
//! leader's writer thread, with the leader's record stream in place of
//! client ingest. It connects to the leader, sends
//! [`req::REPLICATE`](crate::protocol::req::REPLICATE) carrying its
//! current epoch, and then replays whatever comes back:
//!
//! * [`resp::REPL_RECORD`](crate::protocol::resp::REPL_RECORD) — one
//!   group-commit tick's net delta. Records must arrive with strictly
//!   consecutive epochs; after each replay the feed publishes a fresh
//!   snapshot and pushes continuous-query changes to subscribers, so a
//!   replica-side SUBSCRIBE behaves exactly like one on the leader.
//! * [`resp::REPL_SNAPSHOT`](crate::protocol::resp::REPL_SNAPSHOT) — a
//!   full-state bootstrap, sent when the leader's WAL tail no longer
//!   covers the follower's epoch. The feed rebuilds its store from the
//!   graph, aligns to the carried epoch, and re-registers every live
//!   subscription (their next frames are full sets again).
//!
//! Any gap, decode failure, or disconnect drops the feed and re-syncs
//! from scratch: reconnect, `REPLICATE <current epoch>`, and let the
//! leader pick records or snapshot. Client connections to the replica
//! survive re-syncs — only the staleness of their reads varies.
//!
//! Ingest requests are refused (`read-only replica`); writes belong on
//! the leader. The replica keeps no WAL of its own: after a crash it
//! restarts empty and bootstraps over the wire.

use crate::protocol::{self as proto, read_frame, write_frame};
use crate::server::{
    push_results, spawn_acceptor, stats, subscribe, Cmd, ReplCounters, Sub, CONN_POLL,
};
use se_ontology::Ontology;
use se_rdf::Graph;
use se_sparql::{PlanCache, QueryOptions};
use se_stream::{ShardedHybridStore, StoreSnapshot, StreamSession, MAX_SHARDS};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Replica tuning knobs.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Shard count for the replica's own store. Need not match the
    /// leader's — replication ships term-space triples, not shard state.
    pub shards: usize,
    /// Pause between re-sync attempts after a disconnect or gap.
    pub reconnect: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            reconnect: Duration::from_millis(200),
        }
    }
}

/// A running replica: its bound address plus the threads to join.
pub struct Replica {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    feed: Option<JoinHandle<()>>,
    resync_req: Arc<AtomicBool>,
}

impl Replica {
    /// Binds `addr` (port 0 for ephemeral) and starts following
    /// `leader`. The store is built empty from `ontology` and caught up
    /// over the wire; clients may connect immediately and will read the
    /// replica's current (possibly stale) snapshot.
    pub fn start(
        ontology: Ontology,
        leader: impl ToSocketAddrs,
        addr: impl ToSocketAddrs,
        config: ReplicaConfig,
    ) -> io::Result<Replica> {
        let leader = leader
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "leader address empty"))?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let store = build_store(&ontology, &Graph::new(), config.shards)?;
        let slot = Arc::new(Mutex::new(store.snapshot()));
        let (tx, rx) = mpsc::channel::<Cmd>();
        let stop = Arc::new(AtomicBool::new(false));
        let resync_req = Arc::new(AtomicBool::new(false));
        let plan_cache = Arc::new(PlanCache::new());

        let feed = {
            let slot = Arc::clone(&slot);
            let cache = Arc::clone(&plan_cache);
            let stop = Arc::clone(&stop);
            let resync_req = Arc::clone(&resync_req);
            thread::Builder::new()
                .name("se-replica-feed".into())
                .spawn(move || {
                    feed_loop(
                        FeedState::new(store, ontology, config, cache),
                        leader,
                        rx,
                        slot,
                        stop,
                        resync_req,
                    )
                })?
        };

        let accept = spawn_acceptor("se-replica", listener, tx, slot, stop, plan_cache)?;

        Ok(Replica {
            addr: local,
            accept: Some(accept),
            feed: Some(feed),
            resync_req,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drops the current replication feed and re-syncs from the leader —
    /// an operational control for failover drills and for recovering a
    /// follower suspected of divergence without restarting the process.
    /// Read traffic keeps flowing from the published snapshot throughout.
    pub fn force_resync(&self) {
        self.resync_req.store(true, Ordering::Release);
    }

    /// Waits for the replica to stop (a client sent `SHUTDOWN`).
    pub fn join(mut self) {
        if let Some(f) = self.feed.take() {
            let _ = f.join();
        }
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
    }
}

fn build_store(ontology: &Ontology, data: &Graph, shards: usize) -> io::Result<ShardedHybridStore> {
    if !(1..=MAX_SHARDS).contains(&shards) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("shard count {shards} outside 1..={MAX_SHARDS}"),
        ));
    }
    ShardedHybridStore::build(ontology, data, shards)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Everything the feed thread owns: the session, the live subscription
/// sinks, and the query texts needed to re-register them after a
/// snapshot bootstrap replaces the store.
struct FeedState {
    session: StreamSession<ShardedHybridStore>,
    subs: HashMap<String, Sub>,
    /// id → (query text, options): survives store rebuilds.
    specs: HashMap<String, (String, QueryOptions)>,
    ontology: Ontology,
    config: ReplicaConfig,
    cache: Arc<PlanCache>,
    repl: ReplCounters,
}

impl FeedState {
    fn new(
        store: ShardedHybridStore,
        ontology: Ontology,
        config: ReplicaConfig,
        cache: Arc<PlanCache>,
    ) -> Self {
        let mut session = StreamSession::new(store);
        session.registry_mut().set_plan_cache(Arc::clone(&cache));
        Self {
            session,
            subs: HashMap::new(),
            specs: HashMap::new(),
            ontology,
            config,
            cache,
            repl: ReplCounters::default(),
        }
    }

    /// Replaces the store (snapshot bootstrap, or reset after the leader
    /// lost history) and re-registers every live subscription. Each
    /// subscriber's next push is a full frame again: its change chain
    /// broke with the old store.
    fn install_store(&mut self, store: ShardedHybridStore) {
        let mut session = StreamSession::new(store);
        session
            .registry_mut()
            .set_plan_cache(Arc::clone(&self.cache));
        self.session = session;
        let specs: Vec<_> = self
            .specs
            .iter()
            .map(|(id, (text, options))| (id.clone(), text.clone(), options.clone()))
            .collect();
        for (id, text, options) in specs {
            if self
                .session
                .register_query(id.clone(), &text, options)
                .is_err()
            {
                // The text registered once; a parse failure now means the
                // spec is stale garbage — drop the subscription.
                self.specs.remove(&id);
                self.subs.remove(&id);
                continue;
            }
            if let Some(sub) = self.subs.get_mut(&id) {
                sub.primed = false;
            }
        }
    }
}

/// Commands drained between leader frames. `true` means shutdown.
fn drain_cmds(state: &mut FeedState, rx: &mpsc::Receiver<Cmd>) -> bool {
    loop {
        match rx.try_recv() {
            Ok(Cmd::Ingest { done, .. }) => {
                let _ = done.send(Err("read-only replica: ingest on the leader".into()));
            }
            Ok(Cmd::Subscribe {
                id,
                text,
                options,
                sink,
                done,
            }) => {
                state
                    .specs
                    .insert(id.clone(), (text.clone(), options.clone()));
                subscribe(
                    &mut state.session,
                    &mut state.subs,
                    id,
                    text,
                    options,
                    sink,
                    done,
                );
            }
            Ok(Cmd::Stats { done }) => {
                let _ = done.send(stats(&state.session, state.subs.len(), state.repl));
            }
            Ok(Cmd::Replicate { done, .. }) => {
                let _ = done.send(Err("replicas do not serve replication feeds".into()));
            }
            Ok(Cmd::Shutdown) | Err(TryRecvError::Disconnected) => return true,
            Err(TryRecvError::Empty) => return false,
        }
    }
}

fn feed_loop(
    mut state: FeedState,
    leader: SocketAddr,
    rx: mpsc::Receiver<Cmd>,
    slot: Arc<Mutex<StoreSnapshot>>,
    stop: Arc<AtomicBool>,
    resync_req: Arc<AtomicBool>,
) {
    let mut first_attach = true;
    'resync: loop {
        if drain_cmds(&mut state, &rx) || stop.load(Ordering::Acquire) {
            return;
        }
        if !first_attach {
            state.repl.resyncs += 1;
            thread::sleep(state.config.reconnect);
        }
        first_attach = false;
        let Ok(mut feed) = TcpStream::connect(leader) else {
            continue 'resync;
        };
        let mut payload = Vec::new();
        let handshake = se_sds::WriteBin::write_u64(&mut payload, state.session.store().epoch())
            .and_then(|()| write_frame(&mut feed, proto::req::REPLICATE, &payload));
        if handshake.is_err() || feed.set_read_timeout(Some(CONN_POLL)).is_err() {
            continue 'resync;
        }

        loop {
            if drain_cmds(&mut state, &rx) || stop.load(Ordering::Acquire) {
                return;
            }
            if resync_req.swap(false, Ordering::AcqRel) {
                continue 'resync;
            }
            // Same bounded-peek pattern as the server's connection
            // threads: observe shutdown between frames, never tear one.
            let mut probe = [0u8; 1];
            match feed.peek(&mut probe) {
                Ok(0) => continue 'resync, // leader hung up
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(_) => continue 'resync,
            }
            if feed.set_read_timeout(None).is_err() {
                continue 'resync;
            }
            let Ok((kind, payload)) = read_frame(&mut feed) else {
                continue 'resync;
            };
            if feed.set_read_timeout(Some(CONN_POLL)).is_err() {
                continue 'resync;
            }
            match kind {
                proto::resp::REPL_RECORD => {
                    let Ok(rec) = se_stream::decode_record_payload(&payload) else {
                        continue 'resync;
                    };
                    let expected = state.session.store().epoch() + 1;
                    if rec.epoch != expected {
                        // A gap means this feed skipped history — replaying
                        // would silently diverge. Re-sync instead.
                        continue 'resync;
                    }
                    let inserts = Graph::from_triples(rec.delta.added.iter().cloned());
                    let deletes = Graph::from_triples(rec.delta.removed.iter().cloned());
                    let Ok(outcome) = state.session.apply_batch(&inserts, &deletes) else {
                        continue 'resync;
                    };
                    let epoch = state.session.store().epoch();
                    *slot.lock().expect("snapshot slot poisoned") =
                        state.session.store().snapshot();
                    push_results(&mut state.session, &mut state.subs, outcome.results, epoch);
                }
                proto::resp::REPL_SNAPSHOT => {
                    let mut p = payload.as_slice();
                    let decoded = se_sds::ReadBin::read_u64(&mut p)
                        .and_then(|epoch| proto::read_graph(&mut p).map(|g| (epoch, g)));
                    let Ok((epoch, graph)) = decoded else {
                        continue 'resync;
                    };
                    let Ok(mut store) = build_store(&state.ontology, &graph, state.config.shards)
                    else {
                        continue 'resync;
                    };
                    store.align_epoch(epoch);
                    state.install_store(store);
                    *slot.lock().expect("snapshot slot poisoned") =
                        state.session.store().snapshot();
                }
                proto::resp::ERR => {
                    // The leader refused the handshake — it restarted with
                    // less history than we hold. Reset to empty and
                    // bootstrap over the wire like a fresh follower.
                    let Ok(store) =
                        build_store(&state.ontology, &Graph::new(), state.config.shards)
                    else {
                        continue 'resync;
                    };
                    state.install_store(store);
                    *slot.lock().expect("snapshot slot poisoned") =
                        state.session.store().snapshot();
                    continue 'resync;
                }
                _ => continue 'resync,
            }
        }
    }
}
