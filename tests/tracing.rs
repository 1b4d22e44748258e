//! PR6 — flight recorder end-to-end: hierarchical span trees under the
//! query span, slow-query capture into `cr_stat_slow_queries`,
//! a golden Chrome trace-event export, and a proptest that every
//! telemetry system table stays lint-clean and panic-free through the
//! standard plan path.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use cr_obs::trace::{self, SpanId, SpanRecord, TraceId};
use cr_relation::row::row;
use cr_relation::telemetry::SYSTEM_TABLES;
use cr_relation::Database;
use proptest::prelude::*;

/// The tracing state (gate, recorder, slow log, manual clock, id
/// counters) is process-wide; serialize every test that touches it.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Reset all process-wide tracing state to a known-clean baseline.
fn reset_tracing() {
    trace::disable();
    trace::set_slow_query_threshold(None);
    trace::recorder().clear();
    trace::clear_slow_queries();
    trace::reset_ids();
}

fn ratings_db() -> Database {
    let db = Database::new();
    db.execute_sql("CREATE TABLE ratings (id INT PRIMARY KEY, student INT, score FLOAT)")
        .unwrap();
    let mut rows = Vec::with_capacity(120);
    for i in 0..120i64 {
        rows.push(row![i, i % 40, ((i % 9) + 1) as f64 / 2.0]);
    }
    db.insert_many("ratings", rows).unwrap();
    db
}

fn find<'a>(records: &'a [SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
    records.iter().filter(|r| r.name == name).collect()
}

#[test]
fn operator_spans_nest_under_the_query_span() {
    let _g = guard();
    reset_tracing();
    trace::enable();

    let db = ratings_db();
    db.query_sql("SELECT * FROM ratings WHERE score >= 1.0")
        .unwrap();
    trace::disable();

    let records = trace::recorder().snapshot();
    let roots = find(&records, "relation.query");
    assert_eq!(roots.len(), 1, "one root per query: {records:#?}");
    let root = roots[0];
    assert!(root.parent.is_none(), "query span is the trace root");
    assert!(
        root.attrs.iter().any(|(k, _)| *k == "fingerprint"),
        "root carries the plan fingerprint: {:?}",
        root.attrs
    );

    // Operator spans nest root → Project → Scan (the WHERE is pushed
    // into the scan, SELECT * leaves a Project on top).
    let project = find(&records, "Project")[0];
    let scan = find(&records, "Scan ratings")[0];
    assert_eq!(project.parent, Some(root.span), "Project nests under root");
    assert_eq!(scan.parent, Some(project.span), "Scan nests under Project");
    assert_eq!(scan.trace, root.trace, "one trace end to end");
    // Spans nest in time as well as by id.
    assert!(scan.start_ns >= project.start_ns);
    assert!(scan.start_ns + scan.dur_ns <= project.start_ns + project.dur_ns + 1);
}

/// An Extend over a bare related scan is served by the table's nest
/// image: its span says whether the image was built or found cached, the
/// related scan keeps its own span under it, and the two outcomes are
/// counted where `cr_stat_counters` can see them.
#[test]
fn extend_spans_report_the_nest_image() {
    use cr_flexrecs::{compile::compile_and_run, Node, Workflow};

    let _g = guard();
    reset_tracing();
    cr_obs::install();
    let db = ratings_db();
    cr_relation::register_system_tables(&db.catalog()).unwrap();
    db.execute_sql("CREATE TABLE students (student INT PRIMARY KEY)")
        .unwrap();
    db.execute_sql("INSERT INTO students VALUES (1), (2), (3)")
        .unwrap();
    let wf = Workflow::new(
        "nest",
        Node::Extend {
            input: Box::new(Node::Source {
                table: "students".into(),
            }),
            related_table: "ratings".into(),
            fk_column: "student".into(),
            local_key: "student".into(),
            key_column: "id".into(),
            rating_column: Some("score".into()),
            as_name: "rated".into(),
        },
    );
    let counter = |name: &str| -> i64 {
        let rs = db
            .query_sql(&format!(
                "SELECT value FROM cr_stat_counters WHERE name = '{name}'"
            ))
            .unwrap();
        // Absent until the executor first records a metric.
        rs.scalar().map_or(0, |v| v.as_int().unwrap())
    };
    let (builds, hits) = (
        counter("relation.nest.builds"),
        counter("relation.nest.hits"),
    );

    trace::enable();
    compile_and_run(&wf, &db.catalog()).unwrap();
    compile_and_run(&wf, &db.catalog()).unwrap();
    trace::disable();

    let records = trace::recorder().snapshot();
    let detail = |r: &SpanRecord| -> String {
        let attr = r.attrs.iter().find(|(k, _)| *k == "detail");
        attr.map(|(_, v)| v.clone()).unwrap_or_default()
    };
    let extends = find(&records, "Extend");
    let outcomes: Vec<bool> = extends
        .iter()
        .map(|e| detail(e).ends_with("nest=cached"))
        .collect();
    assert_eq!(outcomes, [false, true], "built once, then served");
    assert!(detail(extends[0]).ends_with("nest=built"));
    for ext in extends {
        let related: Vec<_> = find(&records, "Scan ratings")
            .into_iter()
            .filter(|s| s.parent == Some(ext.span))
            .collect();
        assert_eq!(related.len(), 1, "the related scan keeps its span");
        assert_eq!(detail(related[0]), "access=NestImage");
    }
    assert_eq!(counter("relation.nest.builds"), builds + 1);
    assert_eq!(counter("relation.nest.hits"), hits + 1);
}

#[test]
fn slow_queries_land_in_the_system_table_with_fingerprint() {
    let _g = guard();
    reset_tracing();
    // Threshold zero: everything is slow. Tracing itself stays off —
    // slow capture must work standalone.
    trace::set_slow_query_threshold(Some(Duration::ZERO));

    let db = ratings_db();
    cr_relation::register_system_tables(&db.catalog()).unwrap();
    let sql = "SELECT student, COUNT(*) AS n FROM ratings GROUP BY student";
    db.query_sql(sql).unwrap();
    trace::set_slow_query_threshold(None);

    let slow = trace::slow_queries();
    assert!(!slow.is_empty(), "threshold 0 must capture the query");
    let q = slow.last().unwrap();
    assert_eq!(q.label, "relation.query");
    assert_ne!(q.fingerprint, 0, "fingerprint identifies the plan shape");
    assert_eq!(q.threshold_ns, 0);
    assert!(
        q.tree.contains("rows=") && q.tree.contains("Scan ratings"),
        "capture holds the full EXPLAIN ANALYZE tree: {}",
        q.tree
    );

    // The same capture is queryable through the standard SQL path.
    let rs = db
        .query_sql("SELECT fingerprint, label, plan FROM cr_stat_slow_queries")
        .unwrap();
    assert!(!rs.rows.is_empty());
    let want = format!("{:016x}", q.fingerprint);
    let hit = rs.rows.iter().any(|r| {
        r[0] == cr_relation::value::Value::text(&want)
            && format!("{:?}", r[2]).contains("Scan ratings")
    });
    assert!(
        hit,
        "fingerprint {want} must appear in cr_stat_slow_queries"
    );
}

#[test]
fn fast_queries_stay_out_of_the_slow_log() {
    let _g = guard();
    reset_tracing();
    trace::set_slow_query_threshold(Some(Duration::from_secs(3600)));

    let db = ratings_db();
    db.query_sql("SELECT * FROM ratings").unwrap();
    trace::set_slow_query_threshold(None);

    assert!(
        trace::slow_queries().is_empty(),
        "an hour-long threshold must capture nothing"
    );
}

#[test]
fn manual_clock_makes_span_timings_deterministic() {
    let _g = guard();
    reset_tracing();
    trace::set_manual_clock(true);
    trace::enable();

    {
        let mut root = trace::TraceSpan::root("request");
        trace::advance_manual_clock(1_000);
        {
            let mut child = trace::TraceSpan::child("stage");
            child.attr("k", "v");
            trace::advance_manual_clock(2_500);
            child.finish();
        }
        trace::advance_manual_clock(500);
        root.event("done");
        root.finish();
    }
    trace::disable();
    trace::set_manual_clock(false);

    let records = trace::recorder().snapshot();
    let child = find(&records, "stage")[0];
    let root = find(&records, "request")[0];
    assert_eq!((child.start_ns, child.dur_ns), (1_000, 2_500));
    assert_eq!((root.start_ns, root.dur_ns), (0, 4_000));
    assert_eq!(child.trace, root.trace);
    assert_eq!(child.parent, Some(root.span));
    assert_eq!(root.events, vec![(4_000, "done".to_owned())]);
}

/// Golden export over hand-built records: byte-exact, independent of
/// thread ordinals and clocks.
#[test]
fn chrome_export_matches_golden() {
    let records = vec![
        SpanRecord {
            seq: 0,
            trace: TraceId(1),
            span: SpanId(1),
            parent: None,
            name: "courserank.recs.request".to_owned(),
            thread: 1,
            start_ns: 0,
            dur_ns: 5_250,
            attrs: vec![],
            events: vec![(4_000, "cache \"miss\"".to_owned())],
        },
        SpanRecord {
            seq: 1,
            trace: TraceId(1),
            span: SpanId(2),
            parent: Some(SpanId(1)),
            name: "Scan ratings".to_owned(),
            thread: 2,
            start_ns: 1_500,
            dur_ns: 3_001,
            attrs: vec![
                ("rows_out", "42".to_owned()),
                ("detail", "access=SeqScan".to_owned()),
            ],
            events: vec![],
        },
    ];
    let golden = concat!(
        "{\"traceEvents\":[",
        "{\"name\":\"courserank.recs.request\",\"cat\":\"cr\",\"ph\":\"X\",",
        "\"ts\":0.000,\"dur\":5.250,\"pid\":1,\"tid\":1,",
        "\"args\":{\"trace_id\":1,\"span_id\":1,",
        "\"event.0\":\"@4.000 cache \\\"miss\\\"\"}},",
        "{\"name\":\"Scan ratings\",\"cat\":\"cr\",\"ph\":\"X\",",
        "\"ts\":1.500,\"dur\":3.001,\"pid\":1,\"tid\":2,",
        "\"args\":{\"trace_id\":1,\"span_id\":2,\"parent_id\":1,",
        "\"rows_out\":\"42\",\"detail\":\"access=SeqScan\"}}",
        "]}"
    );
    assert_eq!(trace::export_chrome_trace(&records), golden);
}

#[test]
fn system_tables_reject_writes_through_sql() {
    let _g = guard();
    reset_tracing();
    let db = ratings_db();
    cr_relation::register_system_tables(&db.catalog()).unwrap();

    let err = db
        .execute_sql("INSERT INTO cr_stat_counters VALUES ('x', 'counter', 1)")
        .unwrap_err();
    assert!(
        err.to_string().contains("read-only"),
        "write to a system table must name the reason: {err}"
    );
    let err = db.execute_sql("DROP TABLE cr_stat_traces").unwrap_err();
    assert!(
        err.to_string().contains("cannot be dropped"),
        "dropping a system table must fail: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every system table, under arbitrary recorder/slow-log state and
    /// query shape, plans through the standard path with zero validator
    /// errors, EXPLAIN ANALYZEs, and executes without panicking.
    #[test]
    fn system_table_scans_are_lint_clean_and_total(
        table_idx in 0..SYSTEM_TABLES.len(),
        limit in proptest::option::of(0usize..40),
        count in any::<bool>(),
        spans in 0usize..20,
        slow in 0usize..4,
    ) {
        let _g = guard();
        reset_tracing();

        // Arbitrary telemetry state for the providers to materialize.
        trace::enable();
        for i in 0..spans {
            let mut s = trace::TraceSpan::root("prop.span");
            s.attr("i", i.to_string());
        }
        trace::disable();
        for i in 0..slow {
            trace::capture_slow_query("prop", i as u64 + 1, 1_000, "Scan t".to_owned());
        }

        let db = ratings_db();
        cr_relation::register_system_tables(&db.catalog()).unwrap();
        let table = SYSTEM_TABLES[table_idx];
        let select = if count { "COUNT(*) AS n".to_owned() } else { "*".to_owned() };
        let tail = limit.map(|n| format!(" LIMIT {n}")).unwrap_or_default();
        let sql = format!("SELECT {select} FROM {table}{tail}");

        // Lint-clean: binder + validator report no E-coded diagnostics.
        let plan = cr_relation::sql::plan_query(&sql, &db.catalog()).unwrap();
        let report = db.validate_plan(&plan);
        prop_assert!(
            !report.has_errors(),
            "{sql}: {:?}",
            report.first_error()
        );

        // EXPLAIN ANALYZE and plain execution both succeed.
        let (rs, profile) = db.explain_analyze_sql(&sql).unwrap();
        prop_assert_eq!(profile.rows_out, rs.rows.len());
        let rerun = db.query_sql(&sql).unwrap();
        if count {
            // One aggregate row, unless LIMIT 0 cut it.
            let want = if limit == Some(0) { 0 } else { 1 };
            prop_assert_eq!(rerun.rows.len(), want);
        }
    }
}
