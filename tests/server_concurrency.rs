//! cr-server under concurrency: snapshot isolation, admission shedding,
//! and crash-recovery-then-serve (PR8 acceptance tests).
//!
//! The consistency scheme: a writer inserts a `CommentVotes` row
//! *before* its matching `Comments` row, so
//! `count(CommentVotes) >= count(Comments)` holds at every
//! whole-request boundary. Readers probe both counts in the hazardous
//! order (votes first); only a torn, non-snapshot read can ever observe
//! `comments > votes`.

#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cr_server::protocol::{Request, RequestClass, Response};
use cr_server::server::{Server, ServerConfig};
use cr_server::{AdmissionConfig, Client};

const STORM_VOTER: i64 = 9_000_000;
const STORM_BASE: i64 = 6_000_000;

fn tiny_server(cfg: ServerConfig) -> Arc<Server> {
    let (db, _) = cr_datagen::generate(&cr_datagen::ScaleConfig::tiny()).unwrap();
    let app = courserank::CourseRank::assemble(db).unwrap();
    Server::new(app, cfg).unwrap()
}

/// Top votes up so the global invariant holds before the storm starts
/// (datagen seeds comments but not one vote per comment).
fn seed_invariant(server: &Server) {
    let db = server.app().db();
    let comments = db.count("Comments").unwrap();
    let votes = db.count("CommentVotes").unwrap();
    for i in 0..(comments - votes).max(0) {
        db.database()
            .insert(
                "CommentVotes",
                cr_relation::row::row![STORM_BASE - 1 - i, STORM_VOTER, true],
            )
            .unwrap();
    }
}

#[test]
fn concurrent_readers_observe_only_consistent_snapshots() {
    // Tight staleness so reader probes actually see the storm advance
    // (the point is fresh-but-consistent, not frozen).
    let server = tiny_server(ServerConfig {
        snapshot_max_staleness: Duration::from_millis(1),
        ..Default::default()
    });
    seed_invariant(&server);

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let session =
                server
                    .sessions()
                    .open("test", "storm", cr_relation::plan::Principal::Staff);
            let mut n = 0i64;
            while !stop.load(Ordering::Relaxed) {
                let resp = server.dispatch(
                    session,
                    &Request::Vote {
                        comment: STORM_BASE + n,
                        voter: STORM_VOTER,
                        helpful: true,
                    },
                );
                assert!(matches!(resp, Response::Written), "{resp:?}");
                let resp = server.dispatch(
                    session,
                    &Request::AddComment {
                        student: 1,
                        course: 1 + (n % 40),
                        year: 2009,
                        term: "Win".to_owned(),
                        text: "storm".to_owned(),
                        rating: 4.0,
                    },
                );
                assert!(matches!(resp, Response::CommentAdded { .. }), "{resp:?}");
                n += 1;
            }
            server.sessions().close(session);
        });

        let readers: Vec<_> = (0..3)
            .map(|r| {
                let server = &server;
                s.spawn(move || {
                    let session = server.sessions().open(
                        "test",
                        &format!("reader-{r}"),
                        cr_relation::plan::Principal::Staff,
                    );
                    let mut last_versions: Vec<u64> = Vec::new();
                    let mut grew = false;
                    for i in 0..300 {
                        // Pace the loop across many staleness windows
                        // (and let the storm run): back-to-back probes
                        // would all land on one published cut.
                        if i % 10 == 0 {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        // Hazardous order: votes before comments.
                        let req = Request::Counts {
                            tables: vec!["CommentVotes".to_owned(), "Comments".to_owned()],
                        };
                        match server.dispatch(session, &req) {
                            Response::CountsResult { counts, versions } => {
                                assert!(
                                    counts[0] >= counts[1],
                                    "torn read: votes={} < comments={}",
                                    counts[0],
                                    counts[1]
                                );
                                if !last_versions.is_empty() {
                                    assert!(
                                        versions
                                            .iter()
                                            .zip(&last_versions)
                                            .all(|(now, before)| now >= before),
                                        "snapshot went backwards: {versions:?} < {last_versions:?}"
                                    );
                                    grew |= versions != last_versions;
                                }
                                last_versions = versions;
                            }
                            other => panic!("unexpected: {other:?}"),
                        }
                    }
                    server.sessions().close(session);
                    grew
                })
            })
            .collect();
        let any_advanced = readers.into_iter().any(|h| h.join().unwrap());
        stop.store(true, Ordering::Relaxed);
        // Readers were not staring at one frozen cut the whole time: the
        // storm's republished snapshots were actually observed.
        assert!(any_advanced, "no reader ever saw a newer snapshot");
    });
}

#[test]
fn admission_sheds_deterministically_when_saturated() {
    let server = tiny_server(ServerConfig {
        admission: AdmissionConfig {
            max_in_flight: [1, 1, 1],
            max_queue: 0,
            queue_timeout: Duration::from_millis(10),
        },
        ..Default::default()
    });
    let session = server
        .sessions()
        .open("test", "shed", cr_relation::plan::Principal::Staff);

    // Occupy the single read slot directly; with a zero-length queue the
    // next read must shed without touching the engine.
    let permit = server.admission().admit(RequestClass::Read).unwrap();
    match server.dispatch(session, &Request::Ping) {
        Response::Overloaded {
            class,
            in_flight,
            queued,
        } => {
            assert_eq!(class, RequestClass::Read);
            assert_eq!(in_flight, 1);
            assert_eq!(queued, 0);
        }
        other => panic!("expected shed, got {other:?}"),
    }
    // Write capacity is budgeted independently: reads shedding does not
    // block a write.
    let resp = server.dispatch(
        session,
        &Request::Vote {
            comment: 1,
            voter: STORM_VOTER,
            helpful: true,
        },
    );
    assert!(matches!(resp, Response::Written), "{resp:?}");

    // Freeing the slot restores service, and the shed was accounted.
    drop(permit);
    assert!(matches!(
        server.dispatch(session, &Request::Ping),
        Response::Pong
    ));
    let info = server
        .sessions()
        .snapshot()
        .into_iter()
        .find(|s| s.id == session)
        .unwrap();
    assert_eq!(info.shed, 1);
    server.sessions().close(session);
}

#[test]
fn crash_recovery_then_serve_round_trip() {
    let backend = cr_storage::MemBackend::new();
    let cfg = cr_storage::StorageConfig::default();

    // Generation 1: durable server takes a write, then "crashes" (drop
    // with no checkpoint — the WAL is all that survives).
    let comment_id = {
        let (app, report) =
            courserank::CourseRank::open_with_backend(Arc::new(backend.clone()), cfg).unwrap();
        assert_eq!(report.replayed_records, 0, "fresh store");
        let server = Server::new(app, ServerConfig::default()).unwrap();
        let session = server
            .sessions()
            .open("test", "gen1", cr_relation::plan::Principal::Staff);
        let resp = server.dispatch(
            session,
            &Request::AddComment {
                student: 7,
                course: 7,
                year: 2009,
                term: "Spr".to_owned(),
                text: "survives the crash".to_owned(),
                rating: 5.0,
            },
        );
        match resp {
            Response::CommentAdded { id } => id,
            other => panic!("unexpected: {other:?}"),
        }
    };

    // Generation 2: recover from the same backend and serve over the
    // in-process transport; the write is visible through the protocol.
    let (app, report) =
        courserank::CourseRank::open_with_backend(Arc::new(backend.clone()), cfg).unwrap();
    assert!(report.replayed_records > 0, "WAL replay expected");
    let server = Server::new(app, ServerConfig::default()).unwrap();
    let local = serve_pipe(&server);
    let mut client = Client::handshake(local, "gen2").unwrap();
    match client
        .sql(&format!(
            "SELECT Text FROM Comments WHERE CommentID = {comment_id}"
        ))
        .unwrap()
    {
        Response::Rows { rows, .. } => {
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0][0], cr_relation::Value::text("survives the crash"));
        }
        other => panic!("unexpected: {other:?}"),
    }
    // The recovered id allocator keeps minting fresh ids (no collision
    // with the replayed comment).
    match client
        .add_comment(8, 8, 2009, "Spr", "post-recovery write", 3.0)
        .unwrap()
    {
        Response::CommentAdded { id } => assert!(id > comment_id),
        other => panic!("unexpected: {other:?}"),
    }
    // An admin checkpoint through the protocol compacts the store.
    match client.call(&Request::Checkpoint).unwrap() {
        Response::Checkpointed { seq } => assert!(seq.is_some()),
        other => panic!("unexpected: {other:?}"),
    }
    client.goodbye().unwrap();

    // Generation 3: recovery now starts from that snapshot, and both
    // comments are still served.
    let (app, report) = courserank::CourseRank::open_with_backend(Arc::new(backend), cfg).unwrap();
    assert!(
        report.snapshot_seq.is_some(),
        "checkpoint snapshot expected"
    );
    let server = Server::new(app, ServerConfig::default()).unwrap();
    let session = server
        .sessions()
        .open("test", "gen3", cr_relation::plan::Principal::Staff);
    match server.dispatch(
        session,
        &Request::SqlRead {
            query: "SELECT COUNT(*) AS n FROM Comments WHERE CommentID >= 1".to_owned(),
        },
    ) {
        Response::Rows { rows, .. } => {
            assert_eq!(rows[0][0], cr_relation::Value::Int(2));
        }
        other => panic!("unexpected: {other:?}"),
    }
    server.sessions().close(session);
}

/// Spawn a connection handler thread for one pipe endpoint; returns the
/// client end. (The handler thread exits when the client hangs up.)
fn serve_pipe(server: &Arc<Server>) -> cr_server::transport::PipeConn {
    let (local, remote) = cr_server::transport::pipe();
    let server = Arc::clone(server);
    std::thread::spawn(move || server.handle_conn(remote));
    local
}
