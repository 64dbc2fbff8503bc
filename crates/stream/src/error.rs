//! Error type of the ingestion subsystem.

use se_core::BuildError;
use se_sds::ContainerError;
use se_sparql::error::QueryError;
use std::fmt;
use std::io;

/// Anything that can go wrong while ingesting, compacting or persisting.
#[derive(Debug)]
pub enum StreamError {
    /// A triple violating the store's shape rules (literal subject,
    /// non-IRI predicate, `rdf:type` with a literal object).
    Malformed(String),
    /// Rebuilding the succinct baseline failed.
    Build(BuildError),
    /// Persistence I/O failed.
    Io(io::Error),
    /// A continuous query failed to execute.
    Query(QueryError),
    /// A persisted store failed structural validation: bad magic, a
    /// truncated or checksum-mismatching section, a dangling manifest
    /// reference, internally inconsistent metadata, or write-ahead-log
    /// damage *before* the torn tail (a bad record that is not the
    /// interrupted final append, or an epoch gap between the manifest
    /// and the log). The on-disk state is left untouched; nothing is
    /// partially loaded.
    Corrupt(String),
    /// A persisted store was written by a newer format version than this
    /// build reads.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Highest version this build supports.
        max_supported: u32,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Malformed(msg) => write!(f, "malformed triple: {msg}"),
            StreamError::Build(e) => write!(f, "compaction rebuild failed: {e}"),
            StreamError::Io(e) => write!(f, "persistence I/O failed: {e}"),
            StreamError::Query(e) => write!(f, "continuous query failed: {e}"),
            StreamError::Corrupt(msg) => write!(f, "persisted store corrupt: {msg}"),
            StreamError::UnsupportedVersion {
                found,
                max_supported,
            } => write!(
                f,
                "persisted store has format version {found}, but this build reads up to {max_supported}"
            ),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Build(e) => Some(e),
            StreamError::Io(e) => Some(e),
            StreamError::Query(e) => Some(e),
            StreamError::Malformed(_)
            | StreamError::Corrupt(_)
            | StreamError::UnsupportedVersion { .. } => None,
        }
    }
}

impl From<ContainerError> for StreamError {
    fn from(e: ContainerError) -> Self {
        match e {
            // EOF inside the fixed header is truncation, and an
            // InvalidData report (e.g. a wrong or reordered section tag)
            // is structural damage — both are corruption of the file,
            // not a plumbing failure a caller should retry.
            ContainerError::Io(io)
                if matches!(
                    io.kind(),
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                ) =>
            {
                StreamError::Corrupt(match io.kind() {
                    io::ErrorKind::UnexpectedEof => "file truncated".into(),
                    _ => io.to_string(),
                })
            }
            ContainerError::Io(io) => StreamError::Io(io),
            ContainerError::UnsupportedVersion {
                found,
                max_supported,
            } => StreamError::UnsupportedVersion {
                found,
                max_supported,
            },
            other => StreamError::Corrupt(other.to_string()),
        }
    }
}

impl From<BuildError> for StreamError {
    fn from(e: BuildError) -> Self {
        StreamError::Build(e)
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<QueryError> for StreamError {
    fn from(e: QueryError) -> Self {
        StreamError::Query(e)
    }
}
