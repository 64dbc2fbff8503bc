//! # se-server — a multi-client stream server over SuccinctEdge
//!
//! A thin session-multiplexing front end over the sharded streaming
//! engine, in the spirit of declarative-dataflow's `src/server` split:
//! one writer thread owns a [`ShardedHybridStore`](se_stream) and any
//! number of TCP clients ingest, query and subscribe concurrently.
//!
//! Three design points carry the whole crate:
//!
//! * **Epoch-pinned snapshot reads.** Point queries never queue behind
//!   the writer: each connection clones the latest published
//!   [`StoreSnapshot`](se_stream::StoreSnapshot) (an `Arc` bump) and
//!   executes SPARQL on its own thread at a consistent epoch, while
//!   `apply` and compaction proceed on the live store.
//! * **Group-commit ingest.** Writes that queue while the writer
//!   applies, evaluates and fsyncs are coalesced into its next `apply` —
//!   no timer, the apply itself is the window — amortizing
//!   encode/route/query re-evaluation and the fsync across clients;
//!   every rider is acked with the batch's aggregate report.
//! * **Continuous-query subscriptions.** Registered queries re-evaluate
//!   once per tick (not per client) and their answers are pushed to the
//!   subscribing connections.
//!
//! The binary lives in `src/bin/se-server.rs`; the wire protocol is
//! specified in `docs/server.md` and implemented in [`protocol`]. The
//! whole crate is `std`-only — no new dependencies.

pub mod client;
pub mod ontology_text;
pub mod protocol;
pub mod replica;
pub mod server;

pub use client::{Client, PreparedQuery, Push, ReadTimedOut, Rows};
pub use protocol::{IngestAck, ServerStats};
pub use replica::{Replica, ReplicaConfig};
pub use server::{Server, ServerConfig};
