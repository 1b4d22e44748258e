//! Per-connection session accounting.
//!
//! A session is born at handshake, dies at disconnect, and accumulates
//! request/error/shed counters along the way. The registry backs the
//! `cr_stat_sessions` system table and the `server.sessions.active`
//! gauge — the live view an operator queries through plain SQL.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use cr_relation::plan::flow::Principal;
use parking_lot::Mutex;

/// A row of session state (cloned out for telemetry snapshots).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    pub id: u64,
    /// Transport peer ("pipe" for in-process connections).
    pub peer: String,
    /// Client-announced name from the handshake, cut to
    /// [`CLIENT_NAME_CAP`] bytes.
    pub client: String,
    /// The clearance this session's queries are disclosure-checked
    /// against (protocol v3 handshake).
    pub principal: Principal,
    /// Unix seconds at handshake.
    pub started_unix: u64,
    pub requests: u64,
    pub errors: u64,
    pub shed: u64,
    /// Kind of the most recent request ("search", "vote", ...).
    pub last_request: String,
    /// Server write sequence of this session's most recent successful
    /// write (0 = never wrote). Drives read-your-writes: a read from
    /// this session refuses any cached view older than this.
    pub last_write_seq: u64,
}

/// The longest handshake client name a session keeps, in bytes. A
/// longer name is cut at the last char boundary at or below it, so a
/// peer cannot hold megabytes of server memory for a session's life.
pub const CLIENT_NAME_CAP: usize = 256;

/// The server-wide session table.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    next_id: AtomicU64,
    sessions: Mutex<HashMap<u64, SessionInfo>>,
}

impl SessionRegistry {
    pub fn new() -> Arc<Self> {
        Arc::new(SessionRegistry {
            next_id: AtomicU64::new(1),
            sessions: Mutex::new(HashMap::new()),
        })
    }

    /// Open a session at handshake time; returns its id. The client
    /// name is kept up to [`CLIENT_NAME_CAP`] bytes.
    pub fn open(&self, peer: &str, client: &str, principal: Principal) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let started_unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        self.sessions.lock().insert(
            id,
            SessionInfo {
                id,
                peer: peer.to_owned(),
                client: client[..client.floor_char_boundary(CLIENT_NAME_CAP)].to_owned(),
                principal,
                started_unix,
                requests: 0,
                errors: 0,
                shed: 0,
                last_request: "hello".to_owned(),
                last_write_seq: 0,
            },
        );
        id
    }

    /// Drop a session at disconnect.
    pub fn close(&self, id: u64) {
        self.sessions.lock().remove(&id);
    }

    /// Record one request outcome against a session.
    pub fn record(&self, id: u64, kind: &str, error: bool, shed: bool) {
        let mut sessions = self.sessions.lock();
        if let Some(s) = sessions.get_mut(&id) {
            s.requests += 1;
            if error {
                s.errors += 1;
            }
            if shed {
                s.shed += 1;
            }
            s.last_request = kind.to_owned();
        }
    }

    /// Note a successful write: `seq` is the server-wide write sequence
    /// it was assigned. Read dispatch consults this for session
    /// causality (read-your-writes) against the shared view cache.
    pub fn note_write(&self, id: u64, seq: u64) {
        if let Some(s) = self.sessions.lock().get_mut(&id) {
            s.last_write_seq = s.last_write_seq.max(seq);
        }
    }

    /// The session's most recent write sequence (0 if unknown session
    /// or it never wrote).
    pub fn last_write_seq(&self, id: u64) -> u64 {
        self.sessions
            .lock()
            .get(&id)
            .map_or(0, |s| s.last_write_seq)
    }

    /// The session's clearance ([`Principal::Staff`] for an unknown id:
    /// internal callers — harness dispatch without a handshake — keep
    /// the pre-principal behavior).
    pub fn principal(&self, id: u64) -> Principal {
        self.sessions
            .lock()
            .get(&id)
            .map_or(Principal::Staff, |s| s.principal.clone())
    }

    pub fn active(&self) -> usize {
        self.sessions.lock().len()
    }

    /// All live sessions, ordered by id (stable telemetry rows).
    pub fn snapshot(&self) -> Vec<SessionInfo> {
        let mut rows: Vec<_> = self.sessions.lock().values().cloned().collect();
        rows.sort_by_key(|s| s.id);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_counters() {
        let reg = SessionRegistry::new();
        let a = reg.open("pipe", "test-a", Principal::Staff);
        let b = reg.open("127.0.0.1:9", "test-b", Principal::Student(Some(7)));
        assert_ne!(a, b);
        assert_eq!(reg.active(), 2);
        assert_eq!(reg.principal(a), Principal::Staff);
        assert_eq!(reg.principal(b), Principal::Student(Some(7)));
        // Unknown ids fall back to staff (internal dispatch paths).
        assert_eq!(reg.principal(999), Principal::Staff);

        reg.record(a, "search", false, false);
        reg.record(a, "vote", true, false);
        reg.record(a, "search", false, true);
        let snap = reg.snapshot();
        let sa = snap.iter().find(|s| s.id == a).unwrap();
        assert_eq!(sa.requests, 3);
        assert_eq!(sa.errors, 1);
        assert_eq!(sa.shed, 1);
        assert_eq!(sa.last_request, "search");
        assert_eq!(sa.client, "test-a");

        reg.note_write(a, 7);
        reg.note_write(a, 3); // stale seq never regresses the high-water mark
        assert_eq!(reg.last_write_seq(a), 7);
        assert_eq!(reg.last_write_seq(b), 0);

        reg.close(a);
        assert_eq!(reg.active(), 1);
        // Recording against a closed session is a no-op, not a panic.
        reg.record(a, "ping", false, false);
        assert_eq!(reg.active(), 1);
    }
}
