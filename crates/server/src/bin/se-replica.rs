//! The se-replica binary: follows a leader se-server over its
//! replication feed and serves read traffic (QUERY / SUBSCRIBE / STATS)
//! from its own store.
//!
//! ```text
//! se-replica --leader HOST:PORT [--addr HOST:PORT] [--shards N]
//!            [--reconnect-ms MS] [--ontology FILE]
//! ```
//!
//! The ontology file uses the same line format as se-server (see
//! `--help` there); leader and replica must be started with the same
//! ontology, since replication ships asserted triples and each side
//! derives its own inferences. Ingest requests are refused — writes
//! belong on the leader.

use se_server::ontology_text::load_ontology;
use se_server::{Replica, ReplicaConfig};
use se_stream::MAX_SHARDS;
use std::time::Duration;

fn main() {
    let mut leader: Option<String> = None;
    let mut addr = "127.0.0.1:7879".to_string();
    let mut shards = 4usize;
    let mut reconnect_ms = 200u64;
    let mut ontology_file: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--leader" => leader = Some(value("--leader")),
            "--addr" => addr = value("--addr"),
            "--shards" => {
                shards = parse_if(&value("--shards"), "--shards", |n| {
                    (1..=MAX_SHARDS).contains(n)
                })
            }
            "--reconnect-ms" => reconnect_ms = parse(&value("--reconnect-ms"), "--reconnect-ms"),
            "--ontology" => ontology_file = Some(value("--ontology")),
            "--help" | "-h" => {
                println!(
                    "usage: se-replica --leader HOST:PORT [--addr HOST:PORT] [--shards N] \
                     [--reconnect-ms MS] [--ontology FILE]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let Some(leader) = leader else {
        eprintln!("--leader is required (try --help)");
        std::process::exit(2);
    };
    let ontology = match load_ontology(ontology_file.as_deref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let config = ReplicaConfig {
        shards,
        reconnect: Duration::from_millis(reconnect_ms),
    };
    let replica = match Replica::start(ontology, leader.as_str(), addr.as_str(), config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("failed to start the replica on {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "se-replica listening on {} (following {}, {} shards)",
        replica.addr(),
        leader,
        shards
    );
    replica.join();
    println!("se-replica stopped");
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    parse_if(s, flag, |_| true)
}

/// Parses a flag value that must also satisfy `ok`; anything else exits
/// with status 2 and the same message as an unparseable value.
fn parse_if<T: std::str::FromStr>(s: &str, flag: &str, ok: impl Fn(&T) -> bool) -> T {
    match s.parse() {
        Ok(v) if ok(&v) => v,
        _ => {
            eprintln!("invalid value '{s}' for {flag}");
            std::process::exit(2);
        }
    }
}
