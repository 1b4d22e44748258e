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
