//! End-to-end observability: EXPLAIN ANALYZE agrees with actual results,
//! and one pass through the assembled system leaves nonzero counters for
//! every instrumented layer.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use courserank::services::recs::RecOptions;
use courserank::CourseRank;
use cr_datagen::ScaleConfig;
use cr_flexrecs::compile_and_run;
use cr_relation::row::row;
use cr_relation::Database;

fn ratings_db() -> Database {
    let db = Database::new();
    db.execute_sql("CREATE TABLE students (id INT PRIMARY KEY, name TEXT)")
        .unwrap();
    db.execute_sql("CREATE TABLE ratings (id INT PRIMARY KEY, student INT, score FLOAT)")
        .unwrap();
    let mut students = Vec::new();
    let mut ratings = Vec::new();
    for i in 0..200i64 {
        students.push(row![i, format!("s{i}")]);
    }
    for i in 0..1_000i64 {
        ratings.push(row![i, i % 200, ((i % 9) + 1) as f64 / 2.0]);
    }
    db.insert_many("students", students).unwrap();
    db.insert_many("ratings", ratings).unwrap();
    db
}

#[test]
fn explain_analyze_row_counts_match_result_set() {
    let db = ratings_db();
    let sql = "SELECT s.name, AVG(r.score) AS avg_score FROM students s \
               JOIN ratings r ON s.id = r.student \
               WHERE r.score >= 2.0 GROUP BY s.name ORDER BY avg_score DESC LIMIT 25";
    let (rs, profile) = db.explain_analyze_sql(sql).unwrap();
    assert_eq!(rs.rows.len(), 25);
    // The root operator's row count is the result-set cardinality.
    assert_eq!(profile.rows_out, rs.rows.len());
    // The plain path returns the same rows.
    assert_eq!(db.query_sql(sql).unwrap().rows, rs.rows);
    // The tree contains the join with both scans beneath it.
    let join = profile.find("HashJoin").expect("hash join in plan");
    assert_eq!(join.children.len(), 2);
    let rendered = profile.render();
    assert!(rendered.contains("rows="), "{rendered}");
    assert!(rendered.contains("access="), "{rendered}");
}

#[test]
fn one_pass_through_the_system_populates_every_layer() {
    cr_obs::install();
    let (db, _stats) = cr_datagen::generate(&ScaleConfig::scaled(0.02)).unwrap();
    let app = CourseRank::assemble(db).unwrap();

    let (_hits, _results, _cloud) = app.search().search_with_cloud("history", None, 10).unwrap();
    let opts = RecOptions {
        min_common: 1,
        ..RecOptions::default()
    };
    let _recs = app.recs().recommend_courses(1, &opts).unwrap();
    let _report = app.planner().report(1).unwrap();

    let wf = app.recs().course_workflow(1, &opts);
    let run = compile_and_run(&wf, &app.db().catalog()).unwrap();
    assert!(!run.step_timings.is_empty());
    let labels: Vec<&str> = run.step_timings.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, ["Lower", "Optimize", "Execute"]);

    let snap = app.metrics_snapshot();
    // Service layer.
    assert!(snap.counter("courserank.search.requests").unwrap_or(0) >= 1);
    assert!(snap.counter("courserank.recs.requests").unwrap_or(0) >= 1);
    assert!(snap.counter("courserank.planner.requests").unwrap_or(0) >= 1);
    // Substrates underneath.
    assert!(snap.counter("textsearch.queries").unwrap_or(0) >= 1);
    assert!(snap.counter("flexrecs.compiled_runs").unwrap_or(0) >= 1);
    assert!(snap.counter("relation.queries").unwrap_or(0) >= 1);
    assert!(snap
        .histogram("courserank.search.request_ns")
        .is_some_and(|h| h.count >= 1));
    // Renders are well-formed.
    let prom = snap.to_prometheus();
    assert!(prom.contains("courserank_search_requests"));
    assert!(prom.contains("quantile=\"0.99\""));
    assert!(snap.to_json().starts_with('{'));
}

/// A Ratings-basis recommendation scores only the students who share
/// enough rated courses with the student: EXPLAIN ANALYZE's inner
/// Recommend reads `targets=postings:<scored>/<input>`, `<scored>` is
/// fewer than `Students` holds, and the `relation.rec.scored` counter
/// counts at least those targets.
#[test]
fn ratings_rec_scores_fewer_targets_than_students() {
    cr_obs::install();
    let (db, _stats) = cr_datagen::generate(&ScaleConfig::tiny()).unwrap();
    let app = CourseRank::assemble(db).unwrap();
    let rows = |sql: &str| app.db().database().query_sql(sql).unwrap().rows;
    let students = rows("SELECT SuID FROM Students");
    // The most active rater, so the run has neighbours to score.
    let student = rows(
        "SELECT SuID, COUNT(*) AS n FROM Comments WHERE Rating IS NOT NULL \
         GROUP BY SuID ORDER BY n DESC, SuID LIMIT 1",
    )[0][0]
        .as_int()
        .unwrap();
    let wf = app.recs().course_workflow(student, &RecOptions::default());
    let rendered = app.recs().explain_analyze_workflow(&wf).unwrap();
    let (scored, input) = rendered
        .split_whitespace()
        .find_map(|w| w.trim_end_matches(']').strip_prefix("targets=postings:"))
        .and_then(|t| t.split_once('/'))
        .map(|(s, n)| (s.parse::<usize>().unwrap(), n.parse::<usize>().unwrap()))
        .unwrap_or_else(|| panic!("no postings Recommend:\n{rendered}"));
    assert_eq!(input, students.len() - 1, "{rendered}");
    assert!(0 < scored && scored < students.len(), "{rendered}");

    let counter = cr_obs::Registry::global().counter("relation.rec.scored");
    let before = counter.get();
    compile_and_run(&wf, &app.db().catalog()).unwrap();
    assert!(counter.get() - before >= scored as u64);
}
