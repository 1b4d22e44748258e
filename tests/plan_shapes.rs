//! Plan-shape golden: every SQL statement of the SQL suites
//! (`sql_engine`, `batch_differential`), crbench's point and analytic
//! statements at fixed literals, every built-in FlexRecs template and
//! `Recommender::course_workflow` for each similarity basis bind to the
//! same plans. Each entry records a 64-bit FNV-1a hash of the `{:?}` of
//! the bound (or lowered) plan and of the optimized plan, and the
//! diagnostic codes the validator's analysis (of both plans) and the
//! information-flow gate (for a student) report.
//!
//! A change to a front end, the plan builder or the optimizer that moves
//! any of these shows up here as the entry that moved. The golden is
//! `tests/golden/plan_shapes.txt`; on a mismatch the assertion prints the
//! whole current table, ready to replace it once the change is meant.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use courserank::services::recs::{RecOptions, SimilarityBasis};
use courserank::CourseRank;
use cr_datagen::ScaleConfig;
use cr_flexrecs::templates::{self, SchemaMap};
use cr_flexrecs::Workflow;
use cr_relation::plan::flow::{self, Principal};
use cr_relation::plan::{optimizer, validate};
use cr_relation::sql::ast::Statement;
use cr_relation::{Catalog, Database, LogicalPlan, RelResult};

const GOLDEN: &str = include_str!("golden/plan_shapes.txt");

/// 64-bit FNV-1a: stable across processes and toolchains, unlike the
/// std hasher.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn codes(report: &validate::ValidationReport) -> String {
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    if codes.is_empty() {
        "-".to_owned()
    } else {
        codes.join(",")
    }
}

/// One golden line: `<bound> <optimized> <analysis codes> <flow codes>
/// <entry>`, or the error a front end returned.
fn line(entry: &str, bound: RelResult<LogicalPlan>, catalog: &Catalog) -> String {
    let entry = entry.split_whitespace().collect::<Vec<_>>().join(" ");
    let bound = match bound {
        Ok(plan) => plan,
        Err(e) => return format!("error {e} | {entry}"),
    };
    let optimized = optimizer::optimize(bound.clone());
    format!(
        "{:016x} {:016x} {} {} {} | {entry}",
        fnv1a(&format!("{bound:?}")),
        fnv1a(&format!("{optimized:?}")),
        codes(&validate::analyze(&bound, Some(catalog))),
        codes(&validate::analyze(&optimized, Some(catalog))),
        codes(&flow::check_disclosure(
            &optimized,
            catalog,
            &Principal::Student(Some(1))
        )),
    )
}

fn bind(sql: &str, catalog: &Catalog) -> RelResult<LogicalPlan> {
    match cr_relation::sql::parse(sql)?.as_slice() {
        [Statement::Select(q)] => cr_relation::sql::binder::bind_select(q, catalog),
        other => panic!("expected one SELECT in {sql}, got {other:?}"),
    }
}

fn sql_lines(out: &mut Vec<String>, fixture: &str, ddl: &[&str], statements: &[String]) {
    let db = Database::new();
    for d in ddl {
        db.execute_sql(d).unwrap();
    }
    let catalog = db.catalog();
    for sql in statements {
        out.push(line(
            &format!("{fixture}: {sql}"),
            bind(sql, &catalog),
            &catalog,
        ));
    }
}

fn owned(statements: &[&str]) -> Vec<String> {
    statements.iter().map(|s| (*s).to_owned()).collect()
}

/// `sql_engine`'s statements, the proptest ones at fixed literals.
fn sql_engine(out: &mut Vec<String>) {
    let t = ["CREATE TABLE t (id INT PRIMARY KEY, v INT)"];
    let mut statements = owned(&[
        "SELECT SQRT(SUM(v)) AS s, 1.0 / (1.0 + SQRT(SUM(v))) AS inv FROM t",
        "SELECT v, COUNT(*) AS n FROM t GROUP BY v HAVING COUNT(*) BETWEEN 2 AND 3 ORDER BY v",
        "SELECT id FROM t WHERE v = 30",
        "SELECT COUNT(*) AS n FROM t",
        "SELECT id FROM t WHERE v = 2",
        "SELECT v FROM t WHERE id = 1 ORDER BY v",
        "SELECT v FROM t WHERE id = 1",
        "SELECT SUM(v) AS s FROM t",
        "SELECT SUM(v + v - v) AS s, SUM(v * 0.5) AS f FROM t",
        "SELECT v / 0 FROM t",
        "SELECT v % 0 FROM t",
        "SELECT 1 / 0 FROM t",
        "SELECT 1 % 0 FROM t",
        "SELECT COUNT(*) AS c, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS a FROM t",
        "SELECT COUNT(*) AS n FROM t WHERE v >= 7",
        "SELECT v FROM t ORDER BY v DESC",
    ]);
    for operand in ["(v - 1)", "(-9223372036854775807 - 1)"] {
        statements.push(format!(
            "SELECT {operand} / -1 AS d, {operand} % -1 AS m, -{operand} AS n, \
             ABS({operand}) AS a FROM t"
        ));
    }
    for probe in [
        "v = 3",
        "v = 3.0",
        "v = NULL",
        "v > 2 AND v < 9",
        "v >= 2 AND v <= 9",
        "v > 2 AND v > 9",
        "id = 5",
        "id = 5.0",
    ] {
        statements.push(format!("SELECT id FROM t WHERE {probe} ORDER BY id"));
    }
    sql_lines(out, "sql_engine t", &t, &statements);
    sql_lines(
        out,
        "sql_engine t/u",
        &["CREATE TABLE t (id INT PRIMARY KEY, u INT)"],
        &owned(&[
            "SELECT id, u FROM t ORDER BY id",
            "SELECT id FROM t WHERE u = 30",
        ]),
    );
    sql_lines(
        out,
        "sql_engine s/c/r",
        &[
            "CREATE TABLE s (sid INT PRIMARY KEY, name TEXT)",
            "CREATE TABLE c (cid INT PRIMARY KEY, dep TEXT)",
            "CREATE TABLE r (sid INT, cid INT, score FLOAT, PRIMARY KEY (sid, cid))",
        ],
        &owned(&["SELECT c.dep, COUNT(*) AS n, AVG(r.score) AS avg_score \
             FROM r JOIN c ON r.cid = c.cid JOIN s ON r.sid = s.sid \
             GROUP BY c.dep ORDER BY c.dep"]),
    );
    sql_lines(
        out,
        "sql_engine c",
        &["CREATE TABLE c (id INT PRIMARY KEY, title TEXT, dep TEXT)"],
        &owned(&[
            "SELECT id FROM c WHERE title LIKE '%java%' AND dep IS NOT NULL ORDER BY id",
            "SELECT id FROM c WHERE dep IS NULL AND title NOT LIKE '%java%'",
            "SELECT id FROM c WHERE id IN (1, 3, 99) ORDER BY id",
        ]),
    );
}

/// `batch_differential`'s three SQL corpora and its inline statements.
fn batch_differential(out: &mut Vec<String>) {
    sql_lines(
        out,
        "batch_differential T1/T2",
        &[
            "CREATE TABLE T1 (Id INT PRIMARY KEY, G INT, V INT, S TEXT)",
            "CREATE TABLE T2 (Id INT PRIMARY KEY, K INT, W INT)",
        ],
        &owned(&[
            "SELECT * FROM T1",
            "SELECT Id, V + G * 2, -V, ABS(V), ROUND(V / 3.0, 1) FROM T1",
            "SELECT COALESCE(G, -1), G IS NULL, NOT (V > 0) FROM T1",
            "SELECT LOWER(S), UPPER(S), LENGTH(S), SUBSTR(S, 2, 3), CONCAT(S, '-', G) FROM T1",
            "SELECT Id FROM T1 WHERE S LIKE '%a%' OR G IN (1, 2, NULL) AND V BETWEEN -5 AND 5",
            "SELECT Id FROM T1 WHERE G IS NULL OR (G >= 2 AND NOT (V < 0))",
            "SELECT T1.Id, T1.V, T2.W FROM T1 JOIN T2 ON T1.G = T2.K",
            "SELECT T1.Id, T2.Id FROM T1 LEFT JOIN T2 ON T1.G = T2.K WHERE T1.V <> 1",
            "SELECT G, COUNT(*) AS n, SUM(V) AS s, MIN(V) AS lo, MAX(V) AS hi, AVG(V) AS m \
             FROM T1 GROUP BY G HAVING COUNT(*) >= 1",
            "SELECT Id, V FROM T1 ORDER BY V DESC, Id LIMIT 5",
            "SELECT Id, V FROM T1 WHERE V > -100 ORDER BY G, Id LIMIT 4 OFFSET 2",
            "SELECT G, SUM(V + 9007199254740992) AS big FROM T1 GROUP BY G",
        ]),
    );
    sql_lines(
        out,
        "batch_differential A/B",
        &[
            "CREATE TABLE A (Id INT PRIMARY KEY, K INT, F FLOAT, S TEXT, P INT, Pad TEXT)",
            "CREATE TABLE B (Id INT PRIMARY KEY, K INT, F FLOAT, S TEXT, W INT, Pad TEXT)",
        ],
        &owned(&[
            "SELECT A.Id, B.Id FROM A JOIN B ON A.K = B.F",
            "SELECT A.Id, B.Id, A.F, B.F FROM A JOIN B ON A.F = B.F",
            "SELECT F, COUNT(*) AS n, SUM(P) AS s FROM A GROUP BY F",
            "SELECT K, COUNT(*) AS n, MIN(S) AS lo FROM A GROUP BY K",
            "SELECT A.Id, B.W FROM A JOIN B ON A.K = B.K AND A.S = B.S",
            "SELECT K, S, COUNT(*) AS n, MAX(P) AS hi FROM A GROUP BY K, S",
            "SELECT A.S, COUNT(*) AS n, AVG(B.F) AS f FROM A JOIN B ON A.S = B.S GROUP BY A.S",
            "SELECT A.Id, B.W FROM A LEFT JOIN B ON A.K = B.K",
            "SELECT A.Id, B.W FROM A LEFT JOIN B ON A.K = B.K AND B.W > 0",
            "SELECT x.Id, y.P FROM A x JOIN A y ON x.K = y.K WHERE x.Id < y.Id",
            "SELECT K FROM A WHERE P > 0 UNION ALL SELECT F FROM B WHERE W < 0",
            "SELECT COUNT(*) AS n FROM A JOIN B ON A.K = B.K",
            "SELECT COUNT(*) AS n FROM A",
            "SELECT COUNT(*) AS n FROM A WHERE P > 0",
            "SELECT DISTINCT S FROM B",
            "SELECT B.S, COUNT(*) AS n, SUM(c.P) AS total FROM A JOIN B ON A.K = B.K \
             JOIN A c ON c.F = B.F WHERE A.P > -3 AND B.W < 4 GROUP BY B.S ORDER BY n DESC, S",
            "SELECT F FROM A",
            "SELECT COUNT(*) AS n FROM A JOIN B ON A.K = B.F",
        ]),
    );
    sql_lines(
        out,
        "batch_differential U/V",
        &[
            "CREATE TABLE U (Id INT PRIMARY KEY, X FLOAT, T TEXT, N INT)",
            "CREATE TABLE V (Id INT PRIMARY KEY, T TEXT, D TEXT, M INT)",
        ],
        &owned(&[
            "SELECT Id, X FROM U ORDER BY X",
            "SELECT Id, X FROM U ORDER BY X DESC",
            "SELECT Id, T FROM U ORDER BY T",
            "SELECT Id, T FROM U ORDER BY T DESC",
            "SELECT Id, N FROM U ORDER BY N DESC",
            "SELECT Id, N FROM U ORDER BY N",
            "SELECT Id, T, X, N FROM U ORDER BY T DESC, X, N DESC",
            "SELECT Id, X, T FROM U ORDER BY X DESC, T LIMIT 9 OFFSET 1",
            "SELECT T, COUNT(*) AS n, COUNT(X) AS c, MIN(T) AS lo, MAX(T) AS hi, \
             SUM(X) AS s, AVG(X) AS a, MIN(X) AS xl, MAX(X) AS xh FROM U GROUP BY T",
            "SELECT N, MIN(T) AS lo, MAX(T) AS hi, SUM(N) AS s, AVG(N) AS a, COUNT(T) AS c \
             FROM U GROUP BY N ORDER BY N",
            "SELECT X, COUNT(*) AS n, SUM(DISTINCT N) AS d FROM U GROUP BY X",
            "SELECT COUNT(*) AS n, SUM(X) AS s, MIN(T) AS lo, MAX(X) AS hi FROM U WHERE N > 100",
            "SELECT N FROM U UNION ALL SELECT M FROM V",
            "SELECT X FROM U UNION ALL SELECT X FROM U WHERE N > 0",
            "SELECT T FROM U WHERE N < 0 UNION ALL SELECT T FROM U",
            "SELECT T FROM U UNION ALL SELECT D FROM V",
            "SELECT Id, X * 2, LOWER(T), T + '!', N + 1, X > 0, T = '' FROM U",
            "SELECT Id, -X, UPPER(T), N * N FROM U WHERE N <> 1",
            "SELECT Id, N % N, 7 % N, 7 / N FROM U",
            "SELECT Id FROM U WHERE X > NULL",
            "SELECT Id, X = NULL, X < 0.0, X >= -0.0, NULL <> X FROM U",
            "SELECT Id FROM U WHERE X = 0.0",
            "SELECT Id FROM U WHERE X BETWEEN -0.0 AND 2.5 OR X IN (-1.5, 3)",
            "SELECT Id FROM U WHERE NOT (X < 1) AND X IS NOT NULL",
            "SELECT Id FROM U WHERE T = '' OR T LIKE '%ü%' OR T IN ('abc', NULL)",
            "SELECT Id FROM U WHERE N BETWEEN -1 AND 3 AND T > 'a'",
            "SELECT U.Id, V.D FROM U JOIN V ON U.T = V.T",
            "SELECT U.Id, V.D, V.T FROM U LEFT JOIN V ON U.T = V.T",
            "SELECT V.D, COUNT(*) AS n, MAX(U.X) AS x FROM U JOIN V ON U.T = V.T \
             GROUP BY V.D ORDER BY n DESC, D",
            "SELECT X, T FROM U",
            "SELECT COUNT(*) AS n FROM U",
        ]),
    );
}

/// crbench's point lookups (key 7), their per-key oracle statements, and
/// its analytic statements at two fixed literal pairs, over the campus.
fn crbench_statements() -> Vec<String> {
    let mut statements = vec![
        "SELECT Title, Units FROM Courses WHERE CourseID = 7".to_owned(),
        "SELECT Name, Class FROM Students WHERE SuID = 7".to_owned(),
        "SELECT CourseID, Rating FROM Comments WHERE CommentID = 7".to_owned(),
        "SELECT CommentID, Rating FROM Comments WHERE CourseID = 7".to_owned(),
        "SELECT Year, Term, InstructorID FROM Offerings WHERE CourseID = 7".to_owned(),
        "SELECT PrereqID FROM Prerequisites WHERE CourseID = 7".to_owned(),
    ];
    for (key, table) in [
        ("CourseID", "Courses"),
        ("SuID", "Students"),
        ("CommentID", "Comments"),
        ("CourseID", "Comments"),
        ("CourseID", "Offerings"),
        ("CourseID", "Prerequisites"),
    ] {
        statements.push(format!(
            "SELECT {key}, COUNT(*) AS n FROM {table} GROUP BY {key}"
        ));
    }
    for (a, b) in [(0i64, 0i64), (5, 7)] {
        statements.push(format!(
            "SELECT c.DepID, COUNT(*) AS n, AVG(m.Rating) AS r FROM Comments m \
             JOIN Courses c ON c.CourseID = m.CourseID \
             WHERE m.Rating >= {} AND c.Units >= {} GROUP BY c.DepID ORDER BY n DESC",
            1 + a % 4,
            1 + b % 3
        ));
        statements.push(format!(
            "SELECT e.CourseID, COUNT(*) AS n FROM Enrollments e \
             JOIN Courses c ON c.CourseID = e.CourseID \
             WHERE e.Year = {} AND c.Units >= {} GROUP BY e.CourseID ORDER BY n DESC LIMIT 20",
            2006 + a % 3,
            1 + b % 3
        ));
        statements.push(format!(
            "SELECT c.DepID, COUNT(*) AS n, SUM(c.Units) AS u FROM Enrollments e \
             JOIN Courses c ON c.CourseID = e.CourseID \
             WHERE e.Year = {} AND c.Units >= {} GROUP BY c.DepID ORDER BY u DESC",
            2006 + a % 3,
            1 + b % 5
        ));
    }
    statements
}

/// Every built-in template and `course_workflow` for each basis (both
/// weightings), lowered over the campus.
fn workflows(app: &CourseRank) -> Vec<Workflow> {
    let map = SchemaMap::default();
    let mut wfs = vec![
        templates::related_courses(&map, "Introduction to Programming", None, 10),
        templates::user_cf(&map, 444, 10, 20, 2, true),
        templates::user_cf(&map, 444, 10, 20, 2, false),
        templates::user_cf_weighted(&map, 444, 10, 20, 2),
        templates::similar_students_by_courses(&map, 444, 10),
        templates::item_item_cf(&map, 1, 10),
        templates::item_item_cf_ratings(&map, 1, 10),
        templates::major_recommendation(&map, 444, 10, 5),
    ];
    for basis in [
        SimilarityBasis::Ratings,
        SimilarityBasis::CoursesTaken,
        SimilarityBasis::Grades,
    ] {
        for weighted in [false, true] {
            let opts = RecOptions {
                basis,
                weighted,
                ..RecOptions::default()
            };
            wfs.push(app.recs().course_workflow(444, &opts));
        }
    }
    wfs
}

fn campus(out: &mut Vec<String>) {
    let (db, _) = cr_datagen::generate(&ScaleConfig::tiny()).unwrap();
    let app = CourseRank::assemble(db).unwrap();
    let catalog = app.db().catalog();
    let mut statements = crbench_statements();
    statements.push(templates::quarter_recommendation_sql(
        &SchemaMap::default(),
        1,
    ));
    for sql in &statements {
        out.push(line(
            &format!("campus: {sql}"),
            bind(sql, &catalog),
            &catalog,
        ));
    }
    for (i, wf) in workflows(&app).iter().enumerate() {
        let lowered = cr_flexrecs::compile::compile(wf, &catalog);
        out.push(line(
            &format!("workflow #{i} {}", wf.name),
            lowered,
            &catalog,
        ));
    }
}

#[test]
fn bound_and_optimized_plans_match_the_golden() {
    let mut lines = Vec::new();
    sql_engine(&mut lines);
    batch_differential(&mut lines);
    campus(&mut lines);
    let got = lines.join("\n");
    assert_eq!(
        got.trim(),
        GOLDEN.trim(),
        "plan shapes drifted; the current table is:\n{got}\n"
    );
}
