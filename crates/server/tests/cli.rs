//! Command-line validation of the server binaries: a shard count outside
//! `1..=MAX_SHARDS` is a bad flag value (exit status 2 with the usual
//! "invalid value" message), never a panic inside the store builder.

use se_ontology::water_ontology;
use se_server::{Replica, ReplicaConfig};
use se_stream::MAX_SHARDS;
use std::process::Command;

fn assert_rejected(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(
        stderr.contains("invalid value") && stderr.contains("--shards"),
        "{args:?}: stderr {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
}

#[test]
fn out_of_range_shard_counts_exit_2_without_panicking() {
    let too_many = (MAX_SHARDS + 1).to_string();
    for shards in ["0", too_many.as_str()] {
        assert_rejected(env!("CARGO_BIN_EXE_se-server"), &["--shards", shards]);
        assert_rejected(
            env!("CARGO_BIN_EXE_se-replica"),
            &["--leader", "127.0.0.1:1", "--shards", shards],
        );
    }
}

#[test]
fn replica_rejects_a_zero_shard_config_as_invalid_input() {
    let config = ReplicaConfig {
        shards: 0,
        ..ReplicaConfig::default()
    };
    let err = match Replica::start(water_ontology(), "127.0.0.1:1", "127.0.0.1:0", config) {
        Ok(_) => panic!("a zero-shard replica must not start"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}
