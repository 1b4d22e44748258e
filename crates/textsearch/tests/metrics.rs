//! Search metrics. `cr_obs` counters are process-global, so this test has
//! its own binary: no other test can run a search between its two
//! snapshots and bump the counters it compares exactly.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use cr_relation::Database;
use cr_textsearch::entity::{build_index, EntitySpec};
use cr_textsearch::SearchEngine;

fn setup() -> SearchEngine {
    let db = Database::new();
    db.execute_sql("CREATE TABLE Courses (CourseID INT PRIMARY KEY, Title TEXT, Description TEXT)")
        .unwrap();
    db.execute_sql("CREATE TABLE Comments (CommentID INT PRIMARY KEY, CourseID INT, Text TEXT)")
        .unwrap();
    let courses = [
        (
            1,
            "American History",
            "political history of the united states",
        ),
        (
            2,
            "Latin American Studies",
            "culture politics of latin america",
        ),
        (3, "African American Literature", "novels and poetry"),
        (4, "Databases", "storage and queries"),
        (5, "American Politics", "government institutions elections"),
    ];
    for (id, t, d) in courses {
        db.execute_sql(&format!("INSERT INTO Courses VALUES ({id}, '{t}', '{d}')"))
            .unwrap();
    }
    db.execute_sql(
        "INSERT INTO Comments VALUES (10, 4, 'american style grading easy'), (11, 3, 'moving african american voices')",
    )
    .unwrap();
    let corpus = build_index(&db.catalog(), &EntitySpec::course_default()).unwrap();
    SearchEngine::new(corpus)
}

#[test]
fn search_records_metrics_when_enabled() {
    let e = setup();
    cr_obs::enable();
    let snap_before = cr_obs::Registry::global().snapshot();
    let before_q = snap_before.counter("textsearch.queries").unwrap_or(0);
    let before_l = snap_before
        .counter("textsearch.postings_lookups")
        .unwrap_or(0);
    let (r, _cloud) = e.search_with_cloud("american politics", 10);
    assert_eq!(r.total, 2);
    let snap = cr_obs::Registry::global().snapshot();
    assert_eq!(snap.counter("textsearch.queries"), Some(before_q + 1));
    // Two query terms → two postings lookups.
    assert_eq!(
        snap.counter("textsearch.postings_lookups"),
        Some(before_l + 2)
    );
    assert!(snap.histogram("textsearch.query_ns").unwrap().count >= 1);
    assert!(snap.histogram("textsearch.cloud_ns").unwrap().count >= 1);
    // Candidate set (docs matching "american") is 5, filtered to 2.
    assert!(snap.histogram("textsearch.candidate_set").unwrap().max >= 5);
}
