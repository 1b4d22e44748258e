//! Principal-aware disclosure enforcement through the live server path
//! (PR10 acceptance): the same SQL frame is denied or served purely by
//! the principal announced in the v3 handshake.
//!
//! Each check runs over the in-process pipe transport — real framing,
//! real handshake, real snapshot dispatch — so the flow analysis is
//! exercised exactly where production queries cross it.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use cr_server::client::{self, Client};
use cr_server::protocol::{ErrorCode, Response};
use cr_server::server::{Server, ServerConfig};
use cr_server::transport;

fn tiny_server() -> Arc<Server> {
    let (db, _) = cr_datagen::generate(&cr_datagen::ScaleConfig::tiny()).unwrap();
    let app = courserank::CourseRank::assemble(db).unwrap();
    Server::new(app, ServerConfig::default()).unwrap()
}

/// Open a principal-scoped client against `server` over a fresh pipe.
fn connect(server: &Arc<Server>, name: &str, principal: &str) -> Client<transport::PipeConn> {
    let (local, remote) = transport::pipe();
    let srv = Arc::clone(server);
    std::thread::spawn(move || srv.handle_conn(remote));
    Client::handshake_as(local, name, principal).unwrap()
}

fn deny_message(resp: &Response) -> String {
    match resp {
        Response::Error { code, message } => {
            assert_eq!(*code, ErrorCode::PolicyDenied, "{message}");
            message.clone()
        }
        other => panic!("expected PolicyDenied, got {other:?}"),
    }
}

#[test]
fn student_grade_scan_denied_staff_succeeds() {
    let server = tiny_server();
    let query = "SELECT SuID, Grade FROM Enrollments";

    // The acceptance criterion: a grade-data scan from a student session
    // is rejected with P001 through the live server path...
    let mut student = connect(&server, "e2e-student", "student:2");
    let resp = student.sql(query).unwrap();
    assert!(client::is_policy_denied(&resp), "{resp:?}");
    let msg = deny_message(&resp);
    assert!(msg.contains("P001"), "expected P001 in: {msg}");
    assert!(msg.contains("student:2"), "principal named in: {msg}");

    // ...while the same query from staff succeeds.
    let mut staff = connect(&server, "e2e-staff", "staff");
    match staff.sql(query).unwrap() {
        Response::Rows { rows, .. } => assert!(!rows.is_empty()),
        other => panic!("unexpected: {other:?}"),
    }

    student.goodbye().unwrap();
    staff.goodbye().unwrap();
}

#[test]
fn student_reads_own_grades_but_not_others() {
    let server = tiny_server();
    let mut student = connect(&server, "self-access", "student:2");

    // Self-access declassifies: the per-user Grade column is visible
    // when the plan provably filters to the session's own rows.
    match student
        .sql("SELECT Grade FROM Enrollments WHERE SuID = 2")
        .unwrap()
    {
        Response::Rows { columns, .. } => assert_eq!(columns, vec!["Grade".to_owned()]),
        other => panic!("unexpected: {other:?}"),
    }

    // A different student's rows stay sealed for this principal.
    let resp = student
        .sql("SELECT Grade FROM Enrollments WHERE SuID = 3")
        .unwrap();
    assert!(client::is_policy_denied(&resp), "{resp:?}");

    student.goodbye().unwrap();
}

#[test]
fn restricted_telemetry_sealed_from_non_staff() {
    let server = tiny_server();

    // Slow-query capture carries raw SQL text (Restricted): students
    // and faculty are turned away at the scan, staff reads it fine.
    let query = "SELECT label FROM cr_stat_slow_queries";
    for principal in ["student:2", "faculty"] {
        let mut c = connect(&server, "telemetry-probe", principal);
        let resp = c.sql(query).unwrap();
        assert!(client::is_policy_denied(&resp), "{principal}: {resp:?}");
        assert!(deny_message(&resp).contains("P005"));
        c.goodbye().unwrap();
    }
    let mut staff = connect(&server, "telemetry-staff", "staff");
    assert!(matches!(staff.sql(query).unwrap(), Response::Rows { .. }));

    // Aggregate counters are community-visible: a student may read them.
    let mut student = connect(&server, "counter-probe", "student:2");
    assert!(matches!(
        student.sql("SELECT name FROM cr_stat_counters").unwrap(),
        Response::Rows { .. }
    ));
    // But the server's who-is-connected table is operator-only.
    let resp = student.sql("SELECT Client FROM cr_stat_sessions").unwrap();
    assert!(client::is_policy_denied(&resp), "{resp:?}");

    student.goodbye().unwrap();
    staff.goodbye().unwrap();
}

#[test]
fn public_and_community_reads_flow_for_everyone() {
    let server = tiny_server();

    // Public catalog data serves even an anonymous session...
    let mut anon = connect(&server, "anon", "anonymous");
    match anon
        .sql("SELECT Title FROM Courses WHERE CourseID = 1")
        .unwrap()
    {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        other => panic!("unexpected: {other:?}"),
    }
    // ...but community content (comments) needs a signed-in principal.
    let resp = anon.sql("SELECT Text FROM Comments").unwrap();
    assert!(client::is_policy_denied(&resp), "{resp:?}");

    let mut student = connect(&server, "community", "student:5");
    assert!(matches!(
        student.sql("SELECT Text FROM Comments").unwrap(),
        Response::Rows { .. }
    ));

    anon.goodbye().unwrap();
    student.goodbye().unwrap();
}

#[test]
fn k_aggregation_declassifies_grades_over_the_wire() {
    let server = tiny_server();
    let mut student = connect(&server, "agg", "student:2");

    // Grade distributions above the k-threshold are community-visible
    // (the paper's aggregation rule), even though raw grades are not.
    let agg = "SELECT Grade, COUNT(DISTINCT SuID) AS n FROM Enrollments \
               GROUP BY Grade HAVING COUNT(DISTINCT SuID) >= 5";
    match student.sql(agg).unwrap() {
        Response::Rows { columns, .. } => {
            assert_eq!(columns, vec!["Grade".to_owned(), "n".to_owned()]);
        }
        other => panic!("unexpected: {other:?}"),
    }

    // Below the threshold the same shape is refused (P003).
    let small = "SELECT Grade, COUNT(DISTINCT SuID) AS n FROM Enrollments \
                 GROUP BY Grade HAVING COUNT(DISTINCT SuID) >= 2";
    let resp = student.sql(small).unwrap();
    assert!(client::is_policy_denied(&resp), "{resp:?}");
    assert!(deny_message(&resp).contains("P003"));

    student.goodbye().unwrap();
}

/// Grade-similarity recommendations run on the request's read view like
/// every other read: the derived GradePoints relation is materialized at
/// assemble and kept current by the enrollment write path, so a miss
/// only reads — before a write to Enrollments and after one.
#[test]
fn grade_basis_recommendations_are_served_from_read_views() {
    use cr_server::protocol::Request;

    let server = tiny_server();
    let mut student = connect(&server, "grades", "student:2");
    let recommend = |c: &mut Client<transport::PipeConn>, who: i64| match c
        .recommend_with_basis(who, 5, "grades")
        .unwrap()
    {
        Response::Recommendations { recs } => recs,
        other => panic!("grades basis must be served, got {other:?}"),
    };
    // Misses for several students: none may write through its view.
    let before: Vec<_> = (1..=8).map(|who| recommend(&mut student, who)).collect();
    assert!(before.iter().any(|recs| !recs.is_empty()), "{before:?}");

    let enrolled = student
        .call(&Request::Enroll {
            student: 2,
            course: 1,
            year: 2030,
            term: "Aut".into(),
            planned: true,
        })
        .unwrap();
    assert!(matches!(enrolled, Response::Written), "{enrolled:?}");

    // The write dropped every cached entry (Enrollments is a whole-table
    // dependency): these recompute, again on a read view. A planned
    // enrollment carries no grade, so the answers stand.
    let after: Vec<_> = (1..=8).map(|who| recommend(&mut student, who)).collect();
    assert_eq!(after, before);

    // The derived relation carries its source's labels: grade points are
    // grades, sealed from other students exactly like Enrollments.Grade.
    let others = "SELECT SuID, CourseID, Points FROM GradePoints WHERE SuID = 3";
    let resp = student.sql(others).unwrap();
    assert!(client::is_policy_denied(&resp), "{resp:?}");
    let resp = student.sql("SELECT SuID, Points FROM GradePoints").unwrap();
    assert!(deny_message(&resp).contains("P001"), "{resp:?}");
    // Which courses someone was graded in is plan data, gated like
    // Enrollments.CourseID.
    let resp = student
        .sql("SELECT CourseID FROM GradePoints WHERE SuID = 3")
        .unwrap();
    assert!(deny_message(&resp).contains("P004"), "{resp:?}");
    assert!(matches!(
        student
            .sql("SELECT Points FROM GradePoints WHERE SuID = 2")
            .unwrap(),
        Response::Rows { .. }
    ));
    let mut staff = connect(&server, "grades-staff", "staff");
    assert!(matches!(staff.sql(others).unwrap(), Response::Rows { .. }));

    student.goodbye().unwrap();
    staff.goodbye().unwrap();
}

#[test]
fn unknown_principal_rejected_at_handshake() {
    let server = tiny_server();
    let (local, remote) = transport::pipe();
    let srv = Arc::clone(&server);
    std::thread::spawn(move || srv.handle_conn(remote));
    let err = match Client::handshake_as(local, "bad", "wizard") {
        Err(e) => e,
        Ok(_) => panic!("handshake with unknown principal succeeded"),
    };
    assert!(err.to_string().contains("BadRequest"), "{err}");
    assert_eq!(server.sessions().active(), 0);
}

fn bad_request(resp: &Response) {
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "{resp:?}"
    );
}

#[test]
fn sql_read_runs_exactly_one_statement() {
    let server = tiny_server();
    let mut student = connect(&server, "scripted", "student:2");

    // The grade scan alone is denied...
    let grades = "SELECT SuID, Grade FROM Enrollments";
    assert!(client::is_policy_denied(&student.sql(grades).unwrap()));
    // ...and so is a script that hides it behind a public SELECT: no
    // text of several statements reaches execution.
    for script in [
        format!("SELECT CourseID FROM Courses; {grades}"),
        format!("{grades}; SELECT CourseID FROM Courses"),
        "DELETE FROM Comments; DELETE FROM Comments".to_owned(),
    ] {
        bad_request(&student.sql(&script).unwrap());
    }
    bad_request(&student.sql(" ; ").unwrap());

    // A single mutating statement still meets the snapshot's read-only
    // guard, and a lone gated SELECT still serves.
    let resp = student.sql("DELETE FROM Comments").unwrap();
    assert!(client::is_read_only_error(&resp), "{resp:?}");
    assert!(matches!(
        student.sql("SELECT CourseID FROM Courses;").unwrap(),
        Response::Rows { .. }
    ));
    student.goodbye().unwrap();
}

#[test]
fn sql_depth_bound_session_survives_a_deep_text() {
    let server = tiny_server();
    let mut student = connect(&server, "deep", "student:2");
    let depth = 20_000;
    let deep = format!(
        "SELECT {}CourseID{} FROM Courses",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    match student.sql(&deep).unwrap() {
        Response::Error { message, .. } => assert!(message.contains("nested deeper"), "{message}"),
        other => panic!("expected an error, got {other:?}"),
    }
    assert!(matches!(
        student.sql("SELECT CourseID FROM Courses").unwrap(),
        Response::Rows { .. }
    ));
    student.goodbye().unwrap();
}

/// A ~4 MiB `Hello` whose client name is one string gets its reply
/// within a bound, since a frame decodes in one pass: one long string
/// from a peer that has not yet authenticated cannot hold a session
/// thread. The session it opens then serves a query.
#[test]
fn hello_time_bound_a_4_mib_client_is_answered_then_served() {
    let server = tiny_server();
    let name = "é 😀 \"long\" client\n".repeat((4 << 20) / 24);
    let start = Instant::now();
    let mut student = connect(&server, &name, "student:2");
    let took = start.elapsed();
    assert!(took < Duration::from_secs(5), "handshake took {took:?}");
    match student
        .sql("SELECT Title FROM Courses WHERE CourseID = 1")
        .unwrap()
    {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        other => panic!("unexpected: {other:?}"),
    }
    student.goodbye().unwrap();
}

#[test]
fn a_4_mib_client_name_is_kept_to_the_cap() {
    use cr_server::session::CLIENT_NAME_CAP;
    let server = tiny_server();
    // 4-byte chars after one ASCII byte: the cap falls inside a char.
    let name = format!("x{}", "😀".repeat(1 << 20));
    let mut student = connect(&server, &name, "student:2");
    match student
        .sql("SELECT Title FROM Courses WHERE CourseID = 1")
        .unwrap()
    {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        other => panic!("unexpected: {other:?}"),
    }
    let mut staff = connect(&server, "cap-staff", "staff");
    let Response::Rows { rows, .. } = staff.sql("SELECT Client FROM cr_stat_sessions").unwrap()
    else {
        panic!("cr_stat_sessions is not rows");
    };
    let kept: Vec<String> = rows
        .iter()
        .filter_map(|r| match &r[0] {
            cr_relation::Value::Text(c) if c.starts_with('x') => Some(c.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(kept.len(), 1, "one capped session row");
    let client = &kept[0];
    assert!(
        client.len() <= CLIENT_NAME_CAP,
        "{} bytes kept",
        client.len()
    );
    assert!(
        client.len() > CLIENT_NAME_CAP - 4,
        "{} bytes kept",
        client.len()
    );
    assert!(name.starts_with(client.as_str()));
    student.goodbye().unwrap();
    staff.goodbye().unwrap();
}
