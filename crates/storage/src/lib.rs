//! # cr-storage — durability for the relational tier
//!
//! CourseRank's tables live in memory (`cr-relation`); this crate makes
//! them survive a crash. Three pieces:
//!
//! * **Write-ahead log** ([`wal`]): every successful mutation — row DML
//!   *and* DDL — is appended as a length-prefixed, CRC32-checksummed
//!   frame before the caller sees success. Group commit and an fsync
//!   policy ([`FsyncPolicy`]) trade durability for throughput.
//! * **Snapshots** ([`snapshot`]): each checkpoint writes, atomically,
//!   either a full base image or a delta holding only the row chunks
//!   changed since the previous checkpoint, carrying each table's
//!   mutation counter and the WAL position captured *before* the cut was
//!   pinned. The WAL rotates at each checkpoint so old files can be
//!   pruned.
//! * **Recovery** ([`store`]): merge the newest decodable chain (base
//!   plus deltas), replay the WAL from the position it names, truncate at
//!   the first torn or corrupt frame. The result is always a *prefix* of
//!   the logical mutation history — never a torn mix.
//!
//! All I/O goes through the [`backend::StorageBackend`] trait, so the
//! same recovery code runs against the real filesystem
//! ([`backend::FsBackend`]) and against deterministic fault injection
//! ([`backend::FaultyBackend`]: short writes, bit flips, crash at byte
//! N) in tests.
//!
//! ## Wiring
//!
//! [`store::Storage::open`] recovers state and returns a
//! [`cr_relation::Database`] whose catalog has the storage engine
//! installed as its [`cr_relation::MutationObserver`] — from then on
//! every mutation is logged transparently. `courserank`'s
//! `CourseRankDb::open` builds on this.
//!
//! Zero external dependencies beyond the workspace's own crates.

#![forbid(unsafe_code)]

pub mod backend;
pub mod crc32;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use backend::{FaultyBackend, FsBackend, MemBackend, StorageBackend};
pub use store::{RecoveryReport, Storage, StorageConfig};
pub use wal::{FsyncPolicy, WalConfig, WalRecord};

use cr_relation::RelError;

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A fault-injection backend hit its crash point; every subsequent
    /// operation on that backend fails with this.
    Crashed,
    /// On-disk bytes failed validation (bad magic, CRC mismatch,
    /// undecodable payload). Recovery treats this as "end of log";
    /// explicit reads surface it.
    Corrupt(String),
    /// The relational tier rejected a replayed operation in a way that
    /// cannot be an idempotent-overlap artifact.
    Rel(RelError),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage io: {e}"),
            StorageError::Crashed => write!(f, "storage backend crashed (fault injection)"),
            StorageError::Corrupt(what) => write!(f, "corrupt storage: {what}"),
            StorageError::Rel(e) => write!(f, "storage replay: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Rel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<RelError> for StorageError {
    fn from(e: RelError) -> Self {
        StorageError::Rel(e)
    }
}

/// Crate-wide result alias.
pub type StorageResult<T> = Result<T, StorageError>;
