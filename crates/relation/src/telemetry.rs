//! The `cr_stat_*` telemetry system tables.
//!
//! Each table is a [`ScanProvider`] over `cr-obs` state — the metrics
//! registry, the trace flight recorder, and the slow-request log — so
//! observability is queryable through the exact plan path it observes
//! ("dogfooding the IR"): `SELECT name, p95 FROM cr_stat_histograms
//! ORDER BY p95 DESC LIMIT 5` goes through the binder, validator,
//! optimizer, and executor like any user query, EXPLAIN included.
//!
//! | table                  | one row per                                  |
//! |------------------------|----------------------------------------------|
//! | `cr_stat_counters`     | counter or gauge                             |
//! | `cr_stat_histograms`   | histogram (count/sum/min/max/mean/p50/95/99) |
//! | `cr_stat_traces`       | span in the flight recorder                  |
//! | `cr_stat_slow_queries` | captured slow request                        |
//! | `cr_stat_storage`      | `storage.*` metric (histograms expanded)     |
//!
//! Application layers add their own `cr_stat_*` tables on the same
//! catalog: `cr-core` registers `cr_stat_cache`, one row per live cache
//! entry with its dependency footprint and survival counters.
//!
//! Values are snapshots at scan time; the catalog reports an
//! always-fresh version for them, so nothing downstream caches
//! telemetry. Register the set with [`register_system_tables`].

use std::sync::Arc;

use cr_obs::trace;
use cr_obs::Registry;

use crate::catalog::Catalog;
use crate::error::RelResult;
use crate::plan::flow::{Sensitivity, TablePolicy};
use crate::provider::ScanProvider;
use crate::row::Row;
use crate::schema::{Column, DataType, Schema};
use crate::value::Value;

/// Saturate a `u64` metric into the engine's `i64` column type.
fn int(v: u64) -> Value {
    Value::Int(v.min(i64::MAX as u64) as i64)
}

fn schema(table: &str, columns: Vec<Column>) -> Schema {
    Schema::qualified(table, columns)
}

/// `cr_stat_counters(name, kind, value)` — every counter and gauge.
struct CountersProvider;

impl ScanProvider for CountersProvider {
    fn schema(&self) -> Schema {
        schema(
            "cr_stat_counters",
            vec![
                Column::not_null("name", DataType::Text),
                Column::not_null("kind", DataType::Text),
                Column::not_null("value", DataType::Int),
            ],
        )
    }

    fn rows(&self) -> RelResult<Vec<Row>> {
        let snap = Registry::global().snapshot();
        let mut rows = Vec::with_capacity(snap.counters.len() + snap.gauges.len());
        for (name, v) in &snap.counters {
            rows.push(vec![
                Value::text(name.clone()),
                Value::text("counter"),
                int(*v),
            ]);
        }
        for (name, v) in &snap.gauges {
            rows.push(vec![
                Value::text(name.clone()),
                Value::text("gauge"),
                Value::Int(*v),
            ]);
        }
        Ok(rows)
    }
}

/// `cr_stat_histograms(name, count, sum, min, max, mean, p50, p95, p99)`.
struct HistogramsProvider;

impl ScanProvider for HistogramsProvider {
    fn schema(&self) -> Schema {
        schema(
            "cr_stat_histograms",
            vec![
                Column::not_null("name", DataType::Text),
                Column::not_null("count", DataType::Int),
                Column::not_null("sum", DataType::Int),
                Column::not_null("min", DataType::Int),
                Column::not_null("max", DataType::Int),
                Column::not_null("mean", DataType::Float),
                Column::not_null("p50", DataType::Int),
                Column::not_null("p95", DataType::Int),
                Column::not_null("p99", DataType::Int),
            ],
        )
    }

    fn rows(&self) -> RelResult<Vec<Row>> {
        let snap = Registry::global().snapshot();
        Ok(snap
            .histograms
            .iter()
            .map(|h| {
                let min = if h.count == 0 { 0 } else { h.min };
                vec![
                    Value::text(h.name.clone()),
                    int(h.count),
                    int(h.sum),
                    int(min),
                    int(h.max),
                    Value::float(h.mean),
                    int(h.p50),
                    int(h.p95),
                    int(h.p99),
                ]
            })
            .collect())
    }
}

/// `cr_stat_traces(trace_id, span_id, parent_id, name, thread,
/// start_ns, duration_ns, attrs)` — the flight recorder, oldest first.
struct TracesProvider;

impl ScanProvider for TracesProvider {
    fn schema(&self) -> Schema {
        schema(
            "cr_stat_traces",
            vec![
                Column::not_null("trace_id", DataType::Int),
                Column::not_null("span_id", DataType::Int),
                Column::new("parent_id", DataType::Int),
                Column::not_null("name", DataType::Text),
                Column::not_null("thread", DataType::Int),
                Column::not_null("start_ns", DataType::Int),
                Column::not_null("duration_ns", DataType::Int),
                Column::not_null("attrs", DataType::Text),
            ],
        )
    }

    fn rows(&self) -> RelResult<Vec<Row>> {
        Ok(trace::recorder()
            .snapshot()
            .into_iter()
            .map(|r| {
                let mut attrs = String::new();
                for (i, (k, v)) in r.attrs.iter().enumerate() {
                    if i > 0 {
                        attrs.push(' ');
                    }
                    attrs.push_str(k);
                    attrs.push('=');
                    attrs.push_str(v);
                }
                vec![
                    int(r.trace.0),
                    int(r.span.0),
                    r.parent.map_or(Value::Null, |p| int(p.0)),
                    Value::text(r.name),
                    Value::Int(i64::from(r.thread)),
                    int(r.start_ns),
                    int(r.dur_ns),
                    Value::Text(attrs),
                ]
            })
            .collect())
    }
}

/// `cr_stat_slow_queries(seq, trace_id, fingerprint, label, total_ns,
/// threshold_ns, plan)` — the slow-request log. `fingerprint` is the
/// plan fingerprint as zero-padded hex; `plan` is the full EXPLAIN
/// ANALYZE tree at capture time.
struct SlowQueriesProvider;

impl ScanProvider for SlowQueriesProvider {
    fn schema(&self) -> Schema {
        schema(
            "cr_stat_slow_queries",
            vec![
                Column::not_null("seq", DataType::Int),
                Column::new("trace_id", DataType::Int),
                Column::not_null("fingerprint", DataType::Text),
                Column::not_null("label", DataType::Text),
                Column::not_null("total_ns", DataType::Int),
                Column::not_null("threshold_ns", DataType::Int),
                Column::not_null("plan", DataType::Text),
            ],
        )
    }

    fn rows(&self) -> RelResult<Vec<Row>> {
        Ok(trace::slow_queries()
            .into_iter()
            .map(|q| {
                vec![
                    int(q.seq),
                    q.trace.map_or(Value::Null, |t| int(t.0)),
                    Value::Text(format!("{:016x}", q.fingerprint)),
                    Value::text(q.label),
                    int(q.total_ns),
                    int(q.threshold_ns),
                    Value::Text(q.tree),
                ]
            })
            .collect())
    }
}

/// `cr_stat_storage(name, stat, value)` — every `storage.*` metric.
/// Counters and gauges contribute a `value` row; histograms are
/// expanded into `count`/`p50`/`p95`/`p99` rows so WAL fsync tails are
/// one `WHERE stat = 'p99'` away.
struct StorageProvider;

impl ScanProvider for StorageProvider {
    fn schema(&self) -> Schema {
        schema(
            "cr_stat_storage",
            vec![
                Column::not_null("name", DataType::Text),
                Column::not_null("stat", DataType::Text),
                Column::not_null("value", DataType::Int),
            ],
        )
    }

    fn rows(&self) -> RelResult<Vec<Row>> {
        const PREFIX: &str = "storage.";
        let snap = Registry::global().snapshot();
        let mut rows = Vec::new();
        for (name, v) in snap.counters.iter().filter(|(n, _)| n.starts_with(PREFIX)) {
            rows.push(vec![
                Value::text(name.clone()),
                Value::text("value"),
                int(*v),
            ]);
        }
        for (name, v) in snap.gauges.iter().filter(|(n, _)| n.starts_with(PREFIX)) {
            rows.push(vec![
                Value::text(name.clone()),
                Value::text("value"),
                Value::Int(*v),
            ]);
        }
        for h in snap
            .histograms
            .iter()
            .filter(|h| h.name.starts_with(PREFIX))
        {
            for (stat, v) in [
                ("count", h.count),
                ("p50", h.p50),
                ("p95", h.p95),
                ("p99", h.p99),
            ] {
                rows.push(vec![Value::text(h.name.clone()), Value::text(stat), int(v)]);
            }
        }
        Ok(rows)
    }
}

/// The full system-table set, in registration order.
pub const SYSTEM_TABLES: &[&str] = &[
    "cr_stat_counters",
    "cr_stat_histograms",
    "cr_stat_traces",
    "cr_stat_slow_queries",
    "cr_stat_storage",
];

/// Register every `cr_stat_*` table on `catalog`. Idempotent: tables
/// already present (another component registered first) are skipped.
pub fn register_system_tables(catalog: &Catalog) -> RelResult<()> {
    let providers: [(&str, Arc<dyn ScanProvider>); 5] = [
        ("cr_stat_counters", Arc::new(CountersProvider)),
        ("cr_stat_histograms", Arc::new(HistogramsProvider)),
        ("cr_stat_traces", Arc::new(TracesProvider)),
        ("cr_stat_slow_queries", Arc::new(SlowQueriesProvider)),
        ("cr_stat_storage", Arc::new(StorageProvider)),
    ];
    for (name, provider) in providers {
        if catalog.has_table(name) {
            continue;
        }
        catalog.register_scan_provider(name, provider)?;
    }
    // Sensitivity labels apply even when another component registered the
    // provider first: traces and the slow-query log embed query text and
    // plan trees, so they are operator-only; aggregate counters/histograms
    // are community-visible.
    for (table, label) in [
        ("cr_stat_counters", Sensitivity::Community),
        ("cr_stat_histograms", Sensitivity::Community),
        ("cr_stat_traces", Sensitivity::Restricted),
        ("cr_stat_slow_queries", Sensitivity::Restricted),
        ("cr_stat_storage", Sensitivity::Community),
    ] {
        catalog.set_table_policy(table, TablePolicy::new(label));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;

    fn db_with_system_tables() -> Database {
        let db = Database::new();
        register_system_tables(&db.catalog()).expect("registration");
        db
    }

    #[test]
    fn registration_is_idempotent() {
        let db = db_with_system_tables();
        register_system_tables(&db.catalog()).expect("second registration");
        for t in SYSTEM_TABLES {
            assert!(db.catalog().has_table(t), "{t} missing");
        }
        assert!(db.catalog().table_names().is_empty());
    }

    #[test]
    fn counters_flow_through_sql() {
        let db = db_with_system_tables();
        cr_obs::Registry::global()
            .counter("telemetry.test.pings")
            .add(7);
        let rs = db
            .query_sql(
                "SELECT value FROM cr_stat_counters \
                 WHERE name = 'telemetry.test.pings' AND kind = 'counter'",
            )
            .expect("query");
        assert_eq!(rs.scalar(), Some(&Value::Int(7)));
    }

    #[test]
    fn every_system_table_selects_cleanly() {
        let db = db_with_system_tables();
        for t in SYSTEM_TABLES {
            let rs = db
                .query_sql(&format!("SELECT COUNT(*) AS n FROM {t}"))
                .unwrap_or_else(|e| panic!("SELECT over {t}: {e}"));
            assert_eq!(rs.rows.len(), 1, "{t}");
        }
    }

    #[test]
    fn telemetry_tables_are_labeled() {
        use crate::plan::flow::{check_disclosure, Principal, P_RESTRICTED_SOURCE};

        let db = db_with_system_tables();
        let catalog = db.catalog();
        let plan = crate::sql::plan_query("SELECT label FROM cr_stat_slow_queries", &catalog)
            .expect("plan");
        let student = check_disclosure(&plan, &catalog, &Principal::Student(Some(1)));
        assert!(student.has_code(P_RESTRICTED_SOURCE), "{student}");
        let faculty = check_disclosure(&plan, &catalog, &Principal::Faculty);
        assert!(faculty.has_errors(), "{faculty}");
        let staff = check_disclosure(&plan, &catalog, &Principal::Staff);
        assert!(staff.is_empty(), "{staff}");

        // Aggregate counters are community-visible but not anonymous.
        let counters = crate::sql::plan_query("SELECT name, value FROM cr_stat_counters", &catalog)
            .expect("plan");
        assert!(check_disclosure(&counters, &catalog, &Principal::Student(Some(1))).is_empty());
        assert!(check_disclosure(&counters, &catalog, &Principal::Anonymous).has_errors());
    }

    #[test]
    fn histograms_expose_quantiles() {
        let db = db_with_system_tables();
        let h = cr_obs::Registry::global().histogram("telemetry.test.lat_ns");
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let rs = db
            .query_sql(
                "SELECT count, p50 FROM cr_stat_histograms \
                 WHERE name = 'telemetry.test.lat_ns'",
            )
            .expect("query");
        assert_eq!(rs.rows.len(), 1);
        assert!(matches!(rs.rows[0][0], Value::Int(n) if n >= 3));
    }
}
