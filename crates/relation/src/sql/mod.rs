//! SQL front end.
//!
//! FlexRecs workflows compile "into a sequence of SQL calls, which are
//! executed by a conventional DBMS" (paper §3.2) — this module is that
//! target. The subset covers everything the compiled workflows and the
//! CourseRank services emit:
//!
//! * `CREATE TABLE` / `DROP TABLE` / `CREATE [UNIQUE] INDEX`
//! * `INSERT INTO ... VALUES`
//! * `SELECT [DISTINCT] ... FROM ... [JOIN|LEFT JOIN ... ON ...]*`
//!   `[WHERE] [GROUP BY] [HAVING] [ORDER BY] [LIMIT [OFFSET]]`
//!   `[UNION ALL ...]`
//! * `UPDATE ... SET ... [WHERE]`, `DELETE FROM ... [WHERE]`
//!
//! Pipeline: [`lexer`] → [`parser`] → [`binder`] (AST → [`LogicalPlan`]) →
//! optimizer → executor.

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod parser;

use crate::catalog::Catalog;
use crate::error::{RelError, RelResult};
use crate::exec::ResultSet;
use crate::plan::{optimizer, LogicalPlan};
use crate::schema::{Column, DataType, Schema};
use crate::value::Value;

/// Parse a SQL string into statements.
pub fn parse(text: &str) -> RelResult<Vec<ast::Statement>> {
    let tokens = lexer::lex(text)?;
    parser::Parser::new(tokens).parse_statements()
}

/// Parse a single SELECT into an (optimized) logical plan.
pub fn plan_query(text: &str, catalog: &Catalog) -> RelResult<LogicalPlan> {
    let stmts = parse(text)?;
    match stmts.as_slice() {
        [ast::Statement::Select(q)] => {
            let plan = binder::bind_select(q, catalog)?;
            Ok(optimizer::optimize(plan))
        }
        _ => Err(RelError::Invalid(
            "expected exactly one SELECT statement".into(),
        )),
    }
}

/// `text` as a SQL string literal: quoted, every `'` doubled, so that it
/// reads back as exactly `text` and cannot end the literal early.
pub fn text_literal(text: &str) -> String {
    format!("'{}'", text.replace('\'', "''"))
}

/// Execute one or more statements; returns the last statement's result.
pub fn execute(text: &str, catalog: &Catalog) -> RelResult<ResultSet> {
    let stmts = parse(text)?;
    if stmts.is_empty() {
        return Err(RelError::Invalid("empty statement".into()));
    }
    let mut last = None;
    for stmt in &stmts {
        last = Some(binder::execute_statement(stmt, catalog)?);
    }
    Ok(last.expect("non-empty statements"))
}

/// Execute a query (SELECT only).
pub fn query(text: &str, catalog: &Catalog) -> RelResult<ResultSet> {
    crate::exec::execute(&plan_query(text, catalog)?, catalog)
}

/// Build the one-row "N rows affected" result used by DML statements.
pub(crate) fn affected(n: usize) -> ResultSet {
    ResultSet {
        schema: Schema::new(vec![Column::new("affected", DataType::Int)]),
        rows: vec![vec![Value::Int(n as i64)]],
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use crate::{Database, RelError, Row};

    /// Every SQL statement of the plan-shape golden: the SQL suites'
    /// statements and crbench's, one per line after the entry's fixture.
    const CORPUS: &str = include_str!("../../../../tests/golden/plan_shapes.txt");

    /// One catalog every corpus statement binds against: the suites'
    /// fixture tables merged (same-named ones take the union of their
    /// columns) and the campus tables with the columns the statements
    /// read.
    const TABLES: &[&str] = &[
        "CREATE TABLE t (id INT PRIMARY KEY, v INT, u INT)",
        "CREATE TABLE s (sid INT PRIMARY KEY, name TEXT)",
        "CREATE TABLE c (id INT PRIMARY KEY, cid INT, title TEXT, dep TEXT)",
        "CREATE TABLE r (sid INT, cid INT, score FLOAT, PRIMARY KEY (sid, cid))",
        "CREATE TABLE T1 (Id INT PRIMARY KEY, G INT, V INT, S TEXT)",
        "CREATE TABLE T2 (Id INT PRIMARY KEY, K INT, W INT)",
        "CREATE TABLE A (Id INT PRIMARY KEY, K INT, F FLOAT, S TEXT, P INT, Pad TEXT)",
        "CREATE TABLE B (Id INT PRIMARY KEY, K INT, F FLOAT, S TEXT, W INT, Pad TEXT)",
        "CREATE TABLE U (Id INT PRIMARY KEY, X FLOAT, T TEXT, N INT)",
        "CREATE TABLE V (Id INT PRIMARY KEY, T TEXT, D TEXT, M INT)",
        "CREATE TABLE Courses (CourseID INT PRIMARY KEY, DepID INT, Title TEXT, Units INT)",
        "CREATE TABLE Students (SuID INT PRIMARY KEY, Name TEXT, Class TEXT)",
        "CREATE TABLE Comments (CommentID INT PRIMARY KEY, CourseID INT, Rating INT, \
         Year INT, Term TEXT)",
        "CREATE TABLE Offerings (OfferingID INT PRIMARY KEY, CourseID INT, Year INT, \
         Term TEXT, InstructorID INT)",
        "CREATE TABLE Prerequisites (CourseID INT, PrereqID INT, PRIMARY KEY (CourseID, PrereqID))",
        "CREATE TABLE Enrollments (SuID INT, CourseID INT, Year INT, PRIMARY KEY (SuID, CourseID))",
    ];

    fn statements() -> Vec<&'static str> {
        CORPUS
            .lines()
            .filter_map(|line| line.split_once(" | ")?.1.split_once(": "))
            .map(|(_, sql)| sql)
            .collect()
    }

    #[test]
    fn text_literal_reads_back_as_its_text() {
        let db = Database::new();
        for text in [
            "",
            "O'Brien",
            "''",
            "NOPE' OR c.DepID <> '",
            "a\\b %_",
            "Ünïcødé '✓'",
        ] {
            let sql = format!("SELECT {} AS t", super::text_literal(text));
            let rs = db.query_sql(&sql).unwrap();
            assert_eq!(rs.rows, vec![vec![crate::Value::text(text)]], "{sql}");
        }
    }

    /// SplitMix64: a seeded stream, so a failing case replays from its
    /// printed seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    fn below(state: &mut u64, n: usize) -> usize {
        (next(state) % n as u64) as usize
    }

    /// `sql` mutated one of four ways: bits flipped (the bytes read back
    /// lossily as UTF-8), cut short, a stretch duplicated in place, or a
    /// run of another statement's tokens spliced in between two of its
    /// own.
    fn mutate(sql: &str, corpus: &[&str], rng: &mut u64) -> String {
        let mut bytes = sql.as_bytes().to_vec();
        match below(rng, 4) {
            0 => {
                for _ in 0..=below(rng, 4) {
                    let i = below(rng, bytes.len());
                    bytes[i] ^= 1 << below(rng, 8);
                }
            }
            1 => bytes.truncate(below(rng, bytes.len())),
            2 => {
                let i = below(rng, bytes.len());
                let j = i + below(rng, bytes.len() - i + 1);
                let dup = bytes[i..j].to_vec();
                bytes.splice(j..j, dup);
            }
            _ => {
                let mut tokens: Vec<&str> = sql.split_whitespace().collect();
                let donor: Vec<&str> = corpus[below(rng, corpus.len())]
                    .split_whitespace()
                    .collect();
                let from = below(rng, donor.len());
                let to = from + below(rng, donor.len() - from + 1);
                let at = below(rng, tokens.len() + 1);
                tokens.splice(at..at, donor[from..to].iter().copied());
                return tokens.join(" ");
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Seeded byte-level mutations of every corpus statement plan to a
    /// plan or an error, never a panic, within 50 ms plus 1 µs per byte.
    #[test]
    fn mutated_statements_time_bound_plan_without_panic() {
        let db = Database::new();
        for ddl in TABLES {
            db.execute_sql(ddl).unwrap();
        }
        let catalog = db.catalog();
        let corpus = statements();
        assert!(corpus.len() >= 100, "{} statements", corpus.len());
        for sql in &corpus {
            super::plan_query(sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        for seed in 0..320u64 {
            let rng = &mut { seed };
            for (i, sql) in corpus.iter().enumerate() {
                let text = mutate(sql, &corpus, rng);
                let start = Instant::now();
                let planned =
                    std::panic::catch_unwind(|| super::plan_query(&text, &catalog).map(drop));
                let took = start.elapsed();
                assert!(
                    planned.is_ok(),
                    "seed {seed}, statement {i}: planning panicked on {text:?}"
                );
                let bound = Duration::from_millis(50) + Duration::from_micros(text.len() as u64);
                assert!(
                    took < bound,
                    "seed {seed}, statement {i}: {} bytes took {took:?}",
                    text.len()
                );
            }
        }
    }

    /// The execution fuzz's fixture: a keyed table with a B-tree and a
    /// hash index, a vote table keyed like `CommentVotes`, a few rows
    /// each, one of them deleted.
    const DML_FIXTURE: &[&str] = &[
        "CREATE TABLE t (id INT PRIMARY KEY, v INT, u INT)",
        "CREATE INDEX t_v ON t (v) USING BTREE",
        "CREATE INDEX t_u ON t (u)",
        "INSERT INTO t VALUES (1, 1, 10), (2, 4, NULL), (3, 9, 10), (4, NULL, 20), (5, 6, 30)",
        "DELETE FROM t WHERE id = 4",
        "CREATE TABLE CommentVotes (CommentID INT, VoterID INT, Helpful BOOL NOT NULL, \
         PRIMARY KEY (CommentID, VoterID))",
        "CREATE INDEX votes_by_comment ON CommentVotes (CommentID)",
        "INSERT INTO CommentVotes VALUES (5, 7, TRUE), (5, 8, FALSE), (2, 1, TRUE), (2, 3, TRUE)",
    ];

    /// INSERT, UPDATE and DELETE seeds over [`DML_FIXTURE`]: keyed,
    /// indexed, ranged and residual shapes; multi-row INSERTs, one by
    /// column list, one into the composite `CommentVotes` key; and
    /// [`NULL_HELPFUL`].
    const DML_SEEDS: &[&str] = &[
        "DELETE FROM CommentVotes WHERE CommentID = 5 AND VoterID = 7",
        "UPDATE CommentVotes SET Helpful = NOT Helpful WHERE CommentID = 2 AND VoterID > 1",
        "UPDATE t SET v = v * 2, u = NULL WHERE id = -3 + 6",
        "UPDATE t SET u = u + 1 WHERE v >= 2 AND v < 8 AND u IS NOT NULL",
        "DELETE FROM t WHERE v > 5 AND v < 3 OR id = 1.0",
        "DELETE FROM t WHERE u IN (10, 30) AND v = NULL",
        "INSERT INTO t VALUES (6, 2, 10), (4, NULL, 40), (7, 8, NULL)",
        "INSERT INTO t (u, id) VALUES (50, 8), (NULL, -1)",
        "INSERT INTO CommentVotes VALUES (5, 9, FALSE), (2, 7, TRUE)",
        NULL_HELPFUL,
    ];

    /// The one seed that fails: its last row puts NULL into `Helpful
    /// BOOL NOT NULL`, after a row that would insert.
    const NULL_HELPFUL: &str =
        "INSERT INTO CommentVotes (VoterID, CommentID, Helpful) VALUES (4, 2, TRUE), (9, 5, NULL)";

    /// Seeded byte-level mutations of INSERT, UPDATE and DELETE
    /// statements, each executed against a fresh [`DML_FIXTURE`]
    /// database, end in a result or an error, never a panic, within 50 ms
    /// plus 1 µs per byte; at least one in twenty still executes. A
    /// single statement that fails, [`NULL_HELPFUL`] among them, leaves
    /// every fixture table's rows as they were.
    #[test]
    fn mutated_dml_time_bound_execute_without_panic() {
        let rows = |db: &Database| -> Vec<Vec<Row>> {
            ["t", "CommentVotes"]
                .map(|t| db.query_sql(&format!("SELECT * FROM {t}")).unwrap().rows)
                .into()
        };
        for sql in DML_SEEDS {
            let db = Database::new();
            for ddl in DML_FIXTURE {
                db.execute_sql(ddl).unwrap();
            }
            let before = rows(&db);
            match db.execute_sql(sql) {
                Err(RelError::NullViolation(_)) if *sql == NULL_HELPFUL => {
                    assert_eq!(rows(&db), before, "{sql} failed but changed rows");
                }
                result => {
                    result.unwrap_or_else(|e| panic!("{sql}: {e}"));
                }
            }
        }
        let mut executed = 0;
        for seed in 0..160u64 {
            let rng = &mut { seed };
            for (i, sql) in DML_SEEDS.iter().enumerate() {
                let text = mutate(sql, DML_SEEDS, rng);
                let db = Database::new();
                for ddl in DML_FIXTURE {
                    db.execute_sql(ddl).unwrap();
                }
                let before = rows(&db);
                let start = Instant::now();
                let ran = std::panic::catch_unwind(|| db.execute_sql(&text).map(drop));
                let took = start.elapsed();
                let Ok(result) = ran else {
                    panic!("seed {seed}, statement {i}: execution panicked on {text:?}");
                };
                executed += usize::from(result.is_ok());
                if result.is_err() && super::parse(&text).is_ok_and(|s| s.len() == 1) {
                    assert_eq!(
                        rows(&db),
                        before,
                        "seed {seed}, statement {i}: {text:?} failed but changed rows"
                    );
                }
                let bound = Duration::from_millis(50) + Duration::from_micros(text.len() as u64);
                assert!(
                    took < bound,
                    "seed {seed}, statement {i}: {} bytes took {took:?}",
                    text.len()
                );
            }
        }
        assert!(
            executed * 20 >= 160 * DML_SEEDS.len(),
            "{executed} executed"
        );
    }
}
