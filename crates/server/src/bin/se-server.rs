//! The se-server binary: binds a TCP address and serves a sharded
//! streaming store to any number of clients.
//!
//! ```text
//! se-server [--addr HOST:PORT] [--shards N] [--ontology FILE]
//! ```
//!
//! Writes group-commit without a timer: whatever queues while the
//! writer applies and fsyncs one batch is coalesced into the next.
//!
//! The ontology file is a plain line format (offline — no RDF parser
//! dependency): one declaration per line, `#` comments allowed.
//!
//! ```text
//! class    <iri> [<super-iri>]
//! property <iri> [<super-iri>]
//! oprop    <iri>        # object property
//! dprop    <iri>        # datatype property
//! domain   <prop> <class>
//! range    <prop> <class>
//! ```
//!
//! Without `--ontology` the server starts on the built-in water-network
//! demo ontology, matching `examples/stream_server.rs`.

use se_rdf::Graph;
use se_server::ontology_text::load_ontology;
use se_server::{Server, ServerConfig};
use se_stream::{ShardedHybridStore, MAX_SHARDS};

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut shards = 4usize;
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
            "--addr" => addr = value("--addr"),
            "--shards" => {
                shards = parse_if(&value("--shards"), "--shards", |n| {
                    (1..=MAX_SHARDS).contains(n)
                })
            }
            "--ontology" => ontology_file = Some(value("--ontology")),
            "--help" | "-h" => {
                println!("usage: se-server [--addr HOST:PORT] [--shards N] [--ontology FILE]");
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let ontology = match load_ontology(ontology_file.as_deref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let store = match ShardedHybridStore::build(&ontology, &Graph::new(), shards) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to build the store: {e}");
            std::process::exit(1);
        }
    };

    let server = match Server::start(store, addr.as_str(), ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "se-server listening on {} ({} shards, group commit without a timer)",
        server.addr(),
        shards
    );
    server.join();
    println!("se-server stopped");
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
