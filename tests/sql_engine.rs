//! Cross-crate SQL conformance: the engine subset FlexRecs compiles onto,
//! exercised through the public `Database` API with property tests.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use cr_relation::exec::{execute, oracle};
use cr_relation::{Database, RelError, RelResult, ResultSet, Value};
use proptest::prelude::*;

fn db_with_data(values: &[(i64, i64)]) -> Database {
    let db = Database::new();
    db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for (id, v) in values {
        db.execute_sql(&format!("INSERT INTO t VALUES ({id}, {v})"))
            .unwrap();
    }
    db
}

/// `sql` planned once, then run on the row-at-a-time oracle and on the
/// batched walker, with the walker's name.
fn on_both_walkers(db: &Database, sql: &str) -> [(&'static str, RelResult<ResultSet>); 2] {
    let catalog = db.catalog();
    let plan = cr_relation::sql::plan_query(sql, &catalog);
    let run =
        |walk: fn(&_, &_) -> RelResult<ResultSet>| plan.clone().and_then(|p| walk(&p, &catalog));
    [("oracle", run(oracle::execute)), ("batched", run(execute))]
}

#[test]
fn three_way_join_with_aggregation() {
    let db = Database::new();
    db.execute_sql("CREATE TABLE s (sid INT PRIMARY KEY, name TEXT)")
        .unwrap();
    db.execute_sql("CREATE TABLE c (cid INT PRIMARY KEY, dep TEXT)")
        .unwrap();
    db.execute_sql("CREATE TABLE r (sid INT, cid INT, score FLOAT, PRIMARY KEY (sid, cid))")
        .unwrap();
    db.execute_sql("INSERT INTO s VALUES (1,'a'),(2,'b'),(3,'c')")
        .unwrap();
    db.execute_sql("INSERT INTO c VALUES (10,'CS'),(11,'CS'),(12,'HIST')")
        .unwrap();
    db.execute_sql("INSERT INTO r VALUES (1,10,4.0),(1,11,5.0),(2,10,3.0),(3,12,2.0),(2,12,4.0)")
        .unwrap();
    let rs = db
        .query_sql(
            "SELECT c.dep, COUNT(*) AS n, AVG(r.score) AS avg_score \
             FROM r JOIN c ON r.cid = c.cid JOIN s ON r.sid = s.sid \
             GROUP BY c.dep ORDER BY c.dep",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][0], Value::text("CS"));
    assert_eq!(rs.rows[0][1], Value::Int(3));
    assert_eq!(rs.rows[0][2], Value::Float(4.0));
    assert_eq!(rs.rows[1][2], Value::Float(3.0));
}

#[test]
fn aggregate_inside_scalar_function() {
    // The FlexRecs inverse-Euclidean compilation relies on this shape.
    let db = db_with_data(&[(1, 4), (2, 9), (3, 12)]);
    let rs = db
        .query_sql("SELECT SQRT(SUM(v)) AS s, 1.0 / (1.0 + SQRT(SUM(v))) AS inv FROM t")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Float(5.0));
    assert!((rs.rows[0][1].as_float().unwrap() - 1.0 / 6.0).abs() < 1e-12);
}

#[test]
fn having_with_rich_predicates() {
    let db = db_with_data(&[(1, 10), (2, 10), (3, 20), (4, 20), (5, 20), (6, 30)]);
    let rs = db
        .query_sql(
            "SELECT v, COUNT(*) AS n FROM t GROUP BY v \
             HAVING COUNT(*) BETWEEN 2 AND 3 ORDER BY v",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn like_in_is_null_combinations() {
    let db = Database::new();
    db.execute_sql("CREATE TABLE c (id INT PRIMARY KEY, title TEXT, dep TEXT)")
        .unwrap();
    db.execute_sql(
        "INSERT INTO c VALUES (1,'Intro to Java','CS'),(2,'Java Workshop','CS'),\
         (3,'Medieval Art',NULL),(4,'Art of Java',NULL)",
    )
    .unwrap();
    let rs = db
        .query_sql("SELECT id FROM c WHERE title LIKE '%java%' AND dep IS NOT NULL ORDER BY id")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    let rs = db
        .query_sql("SELECT id FROM c WHERE dep IS NULL AND title NOT LIKE '%java%'")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(3));
    let rs = db
        .query_sql("SELECT id FROM c WHERE id IN (1, 3, 99) ORDER BY id")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn update_delete_roundtrip_preserves_indexes() {
    let db = db_with_data(&[(1, 1), (2, 2), (3, 3), (4, 4)]);
    db.execute_sql("CREATE INDEX by_v ON t (v)").unwrap();
    db.execute_sql("UPDATE t SET v = v * 10 WHERE id >= 3")
        .unwrap();
    let rs = db.query_sql("SELECT id FROM t WHERE v = 30").unwrap();
    assert_eq!(rs.rows.len(), 1);
    db.execute_sql("DELETE FROM t WHERE v > 25").unwrap();
    let rs = db.query_sql("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    // The index agrees with the data after update+delete.
    let rs = db.query_sql("SELECT id FROM t WHERE v = 2").unwrap();
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn update_cannot_take_a_unique_index_key_from_another_row() {
    let db = Database::new();
    db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, u INT)")
        .unwrap();
    db.execute_sql("CREATE UNIQUE INDEX ui ON t (u)").unwrap();
    db.execute_sql("INSERT INTO t VALUES (1, 10), (2, 20)")
        .unwrap();
    let all = "SELECT id, u FROM t ORDER BY id";
    let before = db.query_sql(all).unwrap().rows;
    assert!(matches!(
        db.execute_sql("UPDATE t SET u = 10 WHERE id = 2"),
        Err(RelError::DuplicateKey(_))
    ));
    assert_eq!(db.query_sql(all).unwrap().rows, before, "table unchanged");
    // Row 2 still holds 20, so 20 is still taken.
    assert!(matches!(
        db.execute_sql("INSERT INTO t VALUES (4, 20)"),
        Err(RelError::DuplicateKey(_))
    ));
    // A row may keep its own key, and take a free one.
    db.execute_sql("UPDATE t SET u = 10 WHERE id = 1").unwrap();
    db.execute_sql("UPDATE t SET u = 30 WHERE id = 2").unwrap();
    db.execute_sql("INSERT INTO t VALUES (4, 20)").unwrap();
    let rs = db.query_sql("SELECT id FROM t WHERE u = 30").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
}

/// A multi-row UPDATE is all or nothing. One whose second row takes a
/// third row's key fails, and leaves every row as it was, in memory and
/// in the log recovery replays. Keys the earlier rows of a statement
/// vacate are free to the later ones.
#[test]
fn update_that_fails_on_a_later_row_changes_and_logs_nothing() {
    use cr_storage::{MemBackend, Storage, StorageConfig};
    let backend = MemBackend::new();
    let open = || {
        Storage::open(
            std::sync::Arc::new(backend.clone()),
            StorageConfig::default(),
        )
    };
    let ids = |db: &Database| -> Vec<Value> {
        let rs = db.query_sql("SELECT id FROM t ORDER BY id").unwrap();
        rs.rows.into_iter().map(|r| r[0].clone()).collect()
    };
    {
        let (_storage, db, _) = open().unwrap();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        db.execute_sql("INSERT INTO t VALUES (1, 0), (2, 0), (13, 0)")
            .unwrap();
        assert!(matches!(
            db.execute_sql("UPDATE t SET id = id + 11 WHERE id < 10"),
            Err(RelError::DuplicateKey(_))
        ));
        assert_eq!(ids(&db), [1, 2, 13].map(Value::Int));
    }
    let (_storage, db, _) = open().unwrap();
    assert_eq!(ids(&db), [1, 2, 13].map(Value::Int), "after recovery");
    db.execute_sql("UPDATE t SET id = id - 1").unwrap();
    assert_eq!(ids(&db), [0, 1, 12].map(Value::Int));
}

/// A multi-row INSERT whose later row takes a key, one held before the
/// statement or one an earlier row of it takes, inserts none of its rows,
/// in the table or in the log recovery replays.
#[test]
fn insert_that_fails_on_a_later_row_changes_and_logs_nothing() {
    use cr_storage::{MemBackend, Storage, StorageConfig};
    let backend = MemBackend::new();
    let open = || {
        Storage::open(
            std::sync::Arc::new(backend.clone()),
            StorageConfig::default(),
        )
    };
    let ids = |db: &Database| -> Vec<Value> {
        let rs = db.query_sql("SELECT id FROM t ORDER BY id").unwrap();
        rs.rows.into_iter().map(|r| r[0].clone()).collect()
    };
    {
        let (_storage, db, _) = open().unwrap();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        db.execute_sql("INSERT INTO t VALUES (2, 0)").unwrap();
        assert!(matches!(
            db.execute_sql("INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)"),
            Err(RelError::DuplicateKey(_))
        ));
        assert_eq!(ids(&db), [Value::Int(2)]);
    }
    let (_storage, db, _) = open().unwrap();
    assert_eq!(ids(&db), [Value::Int(2)], "after recovery");
    assert!(matches!(
        db.execute_sql("INSERT INTO t VALUES (5, 0), (5, 1)"),
        Err(RelError::DuplicateKey(_))
    ));
    assert_eq!(ids(&db), [Value::Int(2)]);
}

#[test]
fn explain_statement_returns_plan_text() {
    let db = db_with_data(&[(1, 1), (2, 2)]);
    let rs = db
        .execute_sql("EXPLAIN SELECT v FROM t WHERE id = 1 ORDER BY v")
        .unwrap();
    let plan: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    let text = plan.join("\n");
    assert!(text.contains("Scan t"), "{text}");
    assert!(text.contains("filter="), "{text}");
    assert!(text.contains("Sort"), "{text}");
}

#[test]
fn explain_plan_shows_pushdown() {
    let db = db_with_data(&[(1, 1)]);
    let plan = cr_relation::sql::plan_query("SELECT v FROM t WHERE id = 1", &db.catalog()).unwrap();
    let text = plan.explain();
    // The filter sank into the scan (the executor serves it via the PK).
    assert!(text.contains("Scan t"), "{text}");
    assert!(text.contains("filter="), "{text}");
}

/// EXPLAIN of UPDATE and DELETE names the target table and the access
/// path that finds the rows: the vote replacement's full-key DELETE is a
/// primary-key lookup, a per-comment one an index equality.
#[test]
fn explain_dml_shows_the_access_path() {
    let db = Database::new();
    db.execute_sql(
        "CREATE TABLE CommentVotes (CommentID INT, VoterID INT, Helpful BOOL NOT NULL, \
         PRIMARY KEY (CommentID, VoterID))",
    )
    .unwrap();
    db.execute_sql("CREATE INDEX votes_by_comment ON CommentVotes (CommentID)")
        .unwrap();
    let explain = |sql: &str| -> Vec<String> {
        let rs = db.execute_sql(&format!("EXPLAIN {sql}")).unwrap();
        rs.rows.iter().map(|r| r[0].to_string()).collect()
    };
    assert_eq!(
        explain("DELETE FROM CommentVotes WHERE CommentID = 5 AND VoterID = 7"),
        ["Delete CommentVotes via PkLookup[5,7]"]
    );
    assert_eq!(
        explain("DELETE FROM commentvotes WHERE VoterID = 7 AND CommentID = -5"),
        ["Delete CommentVotes via PkLookup[-5,7]"]
    );
    assert_eq!(
        explain("UPDATE CommentVotes SET Helpful = FALSE WHERE CommentID = 5"),
        ["Update CommentVotes via IndexEq(votes_by_comment)[5]"]
    );
    assert_eq!(
        explain("DELETE FROM CommentVotes WHERE VoterID = 7"),
        ["Delete CommentVotes via SeqScan"]
    );
}

/// A uniform draw below `n` from a SplitMix64 stream, so a failing case
/// replays from its seed.
fn below(state: &mut u64, n: u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % n
}

/// Insert a random row with primary key `(a, b)`, `a` in -4..=4; `v`, `w`
/// and the DATE `d` (given as days, an INT) are NULL one time in eleven,
/// five and eleven.
fn insert_dml_row(db: &Database, rng: &mut u64, b: u64) {
    let mut null_or = |n: u64| match below(rng, n + 1) {
        0 => "NULL".to_owned(),
        x => (x - 1).to_string(),
    };
    let (v, w, d) = (null_or(10), null_or(4), null_or(10));
    let a = below(rng, 9) as i64 - 4;
    let s = ["x", "yx", "z"][below(rng, 3) as usize];
    db.execute_sql(&format!(
        "INSERT INTO t VALUES ({a}, {b}, {v}, {w}, '{s}', {d})"
    ))
    .unwrap();
}

/// UPDATE and DELETE change exactly the rows the row oracle's full scan
/// selects, whichever access path finds them. A seeded stream of
/// statements runs over a table with a composite primary key, a hash
/// index on the NULL-able `w`, B-tree indexes on the NULL-able `v` and on
/// the NULL-able DATE `d` (which the WHERE compares with INT literals, as
/// the row rules allow) and tombstones. Before each statement the oracle runs `SELECT` with the
/// same WHERE — and, for an UPDATE, the SET expressions in place of the
/// columns they assign — which predicts the `affected` count and the
/// table the statement leaves.
#[test]
fn dml_changes_the_rows_the_row_oracle_selects() {
    let mut paths_seen = std::collections::BTreeSet::new();
    for seed in 0..48u64 {
        let rng = &mut { seed };
        let db = Database::new();
        db.execute_sql(
            "CREATE TABLE t (a INT, b INT, v INT, w INT, s TEXT, d DATE, PRIMARY KEY (a, b))",
        )
        .unwrap();
        db.execute_sql("CREATE INDEX by_w ON t (w)").unwrap();
        db.execute_sql("CREATE INDEX by_v ON t (v) USING BTREE")
            .unwrap();
        db.execute_sql("CREATE INDEX by_d ON t (d) USING BTREE")
            .unwrap();
        let mut next_b = 0;
        while next_b < 40 {
            next_b += 1;
            insert_dml_row(&db, rng, next_b);
        }
        // Tombstones before the stream starts.
        db.execute_sql("DELETE FROM t WHERE s = 'z' AND w = 1")
            .unwrap();
        for step in 0..40 {
            let x = below(rng, 9) as i64 - 4;
            let y = below(rng, next_b + 2);
            let (k, lo, hi) = (below(rng, 4), below(rng, 11), below(rng, 11));
            let filter = match below(rng, 13) {
                0 => format!("a = {x} AND b = {y}"),
                1 => format!("a = {x}"),
                2 => "w = NULL".to_owned(),
                3 => format!("a = -{} AND b = {y}", x.abs()),
                4 => format!("a = {x}.0 AND b = {y}"),
                5 => format!("v > {lo} AND v < {hi}"),
                6 => "v > 5 AND v < 3".to_owned(),
                7 => format!("v >= {lo} AND s LIKE '%x%'"),
                8 => format!("w = {k} AND v <= {hi}"),
                9 => format!("d = {lo}"),
                10 => format!("d >= {lo} AND d < {hi}"),
                11 => format!("{hi} >= d AND s = 'x'"),
                _ => format!("b = {y} OR v IS NULL"),
            };
            let sql_for = |select: &str| format!("{select} FROM t WHERE {filter}");
            let oracle_rows = |sql: &str| {
                let catalog = db.catalog();
                let plan = cr_relation::sql::plan_query(sql, &catalog).unwrap();
                let mut rows = oracle::execute(&plan, &catalog).unwrap().rows;
                rows.sort();
                rows
            };
            let before = oracle_rows("SELECT * FROM t");
            let matched = oracle_rows(&sql_for("SELECT *"));
            let key = |r: &Vec<Value>| (r[0].clone(), r[1].clone());
            let matched_keys: std::collections::HashSet<_> = matched.iter().map(key).collect();
            let mut want: Vec<Vec<Value>> = before
                .into_iter()
                .filter(|r| !matched_keys.contains(&key(r)))
                .collect();
            let statement = match below(rng, 3) {
                0 => format!("DELETE FROM t WHERE {filter}"),
                1 => {
                    want.extend(oracle_rows(&sql_for("SELECT a, b, v + 1, w, s, d")));
                    format!("UPDATE t SET v = v + 1 WHERE {filter}")
                }
                _ => {
                    want.extend(oracle_rows(&sql_for(&format!(
                        "SELECT a, b, v, {k}, 'u', d"
                    ))));
                    format!("UPDATE t SET w = {k}, s = 'u' WHERE {filter}")
                }
            };
            let explained = db.execute_sql(&format!("EXPLAIN {statement}")).unwrap();
            let path = explained.rows[0][0].to_string();
            paths_seen.insert(
                path.split(" via ")
                    .nth(1)
                    .unwrap()
                    .split('[')
                    .next()
                    .unwrap()
                    .to_owned(),
            );
            let rs = db.execute_sql(&statement).unwrap();
            let at = format!("seed {seed}, step {step}: {statement} ({path})");
            assert_eq!(rs.scalar(), Some(&Value::Int(matched.len() as i64)), "{at}");
            want.sort();
            assert_eq!(oracle_rows("SELECT * FROM t"), want, "{at}");
            if below(rng, 4) == 0 {
                next_b += 1;
                insert_dml_row(&db, rng, next_b);
            }
        }
    }
    assert_eq!(
        paths_seen.into_iter().collect::<Vec<_>>(),
        [
            "IndexEq(by_d)",
            "IndexEq(by_w)",
            "IndexRange(by_d)",
            "IndexRange(by_v)",
            "PkLookup",
            "SeqScan"
        ]
    );
}

/// An ORDER BY key that is neither an output column's name nor an
/// ordinal — an expression, even one the SELECT list computes too — sorts
/// the projection's input; under aggregation it is an error.
#[test]
fn order_by_expression_outside_the_select_list() {
    let db = db_with_data(&[(1, 20), (2, 10), (3, 30)]);
    for sql in [
        "SELECT id FROM t ORDER BY v * -1",
        "SELECT v * -1 AS d, id FROM t ORDER BY v * -1",
    ] {
        let plan = cr_relation::sql::plan_query(sql, &db.catalog()).unwrap();
        let text = plan.explain();
        let ops: Vec<&str> = text
            .lines()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(ops, ["Project", "Sort", "Scan"], "{sql}");
        let ids: Vec<Value> = db
            .query_sql(sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| r.last().unwrap().clone())
            .collect();
        assert_eq!(ids, [Value::Int(3), Value::Int(1), Value::Int(2)], "{sql}");
    }
    for sql in [
        "SELECT v, COUNT(*) AS n FROM t GROUP BY v ORDER BY v + 1",
        "SELECT v, COUNT(*) AS n FROM t GROUP BY v ORDER BY COUNT(*)",
    ] {
        let err = db.query_sql(sql).unwrap_err().to_string();
        assert!(
            err.contains("must appear in the SELECT list under aggregation"),
            "{sql}: {err}"
        );
    }
}

/// SUM over Int inputs is exact i64 arithmetic (wrapping, like scalar
/// `+`), not an f64 accumulator; a Float input makes the sum a Float.
#[test]
fn int_sum_is_exact_past_f64_precision() {
    let db = db_with_data(&[(1, 9007199254740992), (2, 1)]);
    for (_, rs) in on_both_walkers(&db, "SELECT SUM(v) AS s FROM t") {
        assert_eq!(rs.unwrap().scalar(), Some(&Value::Int(9007199254740993)));
    }
    let sql = "SELECT SUM(v + v - v) AS s, SUM(v * 0.5) AS f FROM t";
    for (_, rs) in on_both_walkers(&db, sql) {
        let rs = rs.unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(9007199254740993));
        assert_eq!(rs.rows[0][1], Value::Float(4503599627370496.5));
    }
}

/// Int arithmetic follows one rule: overflow wraps, like `+`, `-`, `*`
/// and `SUM`. `i64::MIN / -1`, `i64::MIN % -1`, `-i64::MIN` and
/// `ABS(i64::MIN)` are values, not panics, on both walkers and through
/// constant folding (the literal operands); a zero divisor stays an error.
#[test]
fn int_overflow_wraps_on_every_operator() {
    let db = db_with_data(&[(1, -9223372036854775807)]);
    let min = Value::Int(i64::MIN);
    let wrapped = vec![min.clone(), Value::Int(0), min.clone(), min.clone()];
    for operand in ["(v - 1)", "(-9223372036854775807 - 1)"] {
        let sql = format!(
            "SELECT {operand} / -1 AS d, {operand} % -1 AS m, -{operand} AS n, \
             ABS({operand}) AS a FROM t"
        );
        for (walker, rs) in on_both_walkers(&db, &sql) {
            assert_eq!(rs.unwrap().rows, vec![wrapped.clone()], "{sql} on {walker}");
        }
    }
    for sql in [
        "SELECT v / 0 FROM t",
        "SELECT v % 0 FROM t",
        "SELECT 1 / 0 FROM t",
        "SELECT 1 % 0 FROM t",
    ] {
        for (walker, rs) in on_both_walkers(&db, sql) {
            assert!(rs.is_err(), "{sql} on {walker}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SQL aggregates agree with a Rust-side reference computation.
    #[test]
    fn aggregates_match_reference(values in proptest::collection::vec(-1000i64..1000, 1..60)) {
        let data: Vec<(i64, i64)> = values.iter().enumerate().map(|(i, &v)| (i as i64, v)).collect();
        let db = db_with_data(&data);
        let rs = db.query_sql("SELECT COUNT(*) AS c, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS a FROM t").unwrap();
        let row = &rs.rows[0];
        prop_assert_eq!(row[0].as_int().unwrap(), values.len() as i64);
        prop_assert_eq!(row[1].as_int().unwrap(), values.iter().sum::<i64>());
        prop_assert_eq!(row[2].as_int().unwrap(), *values.iter().min().unwrap());
        prop_assert_eq!(row[3].as_int().unwrap(), *values.iter().max().unwrap());
        let avg = values.iter().sum::<i64>() as f64 / values.len() as f64;
        prop_assert!((row[4].as_float().unwrap() - avg).abs() < 1e-9);
    }

    /// WHERE filtering matches Rust-side filtering for arbitrary
    /// comparison thresholds.
    #[test]
    fn where_matches_reference(
        values in proptest::collection::vec(-100i64..100, 0..60),
        threshold in -100i64..100
    ) {
        let data: Vec<(i64, i64)> = values.iter().enumerate().map(|(i, &v)| (i as i64, v)).collect();
        let db = db_with_data(&data);
        let rs = db.query_sql(&format!("SELECT COUNT(*) AS n FROM t WHERE v >= {threshold}")).unwrap();
        let expected = values.iter().filter(|&&v| v >= threshold).count() as i64;
        prop_assert_eq!(rs.scalar().unwrap().as_int().unwrap(), expected);
    }

    /// ORDER BY produces a totally ordered result.
    #[test]
    fn order_by_sorts(values in proptest::collection::vec(-100i64..100, 0..60)) {
        let data: Vec<(i64, i64)> = values.iter().enumerate().map(|(i, &v)| (i as i64, v)).collect();
        let db = db_with_data(&data);
        let rs = db.query_sql("SELECT v FROM t ORDER BY v DESC").unwrap();
        let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut expected = values.clone();
        expected.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(got, expected);
    }

    /// Every probe an index can serve returns what a full scan returns:
    /// on a table with no index, a hash index and a B-tree index on `v`.
    /// Range bounds are drawn independently, so inverted (`v > 5 AND
    /// v < 2`) and equal-excluded (`v > 3 AND v < 3`) intervals occur.
    #[test]
    fn index_equals_scan(
        values in proptest::collection::vec(0i64..20, 1..80),
        p in 0i64..20,
        a in 0i64..20,
        b in 0i64..20,
        k in 0i64..90,
    ) {
        let data: Vec<(i64, i64)> = values.iter().enumerate().map(|(i, &v)| (i as i64, v)).collect();
        let without = db_with_data(&data);
        let hash = db_with_data(&data);
        hash.execute_sql("CREATE INDEX by_v ON t (v)").unwrap();
        let btree = db_with_data(&data);
        btree.execute_sql("CREATE INDEX by_v ON t (v) USING BTREE").unwrap();
        for probe in [
            format!("v = {p}"),
            format!("v = {p}.0"),
            "v = NULL".to_owned(),
            format!("v > {a} AND v < {b}"),
            format!("v >= {a} AND v <= {b}"),
            format!("v > {a} AND v > {b}"),
            format!("id = {k}"),
            format!("id = {k}.0"),
        ] {
            let q = format!("SELECT id FROM t WHERE {probe} ORDER BY id");
            let want = without.query_sql(&q).unwrap().rows;
            prop_assert_eq!(&hash.query_sql(&q).unwrap().rows, &want, "hash: {}", q);
            prop_assert_eq!(&btree.query_sql(&q).unwrap().rows, &want, "btree: {}", q);
        }
    }
}
