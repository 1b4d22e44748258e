//! # cr-relation — an in-memory relational engine
//!
//! This crate is the "conventional DBMS" substrate that the CIDR 2009 paper
//! *Social Systems: Can We Do More Than Just Poke Friends?* assumes:
//! FlexRecs workflows are "compiled into a sequence of SQL calls, which are
//! executed by a conventional DBMS" (§3.2), and Data Clouds search "different
//! fields and relations in CourseRank's database" (§3.1).
//!
//! The engine provides:
//!
//! * a dynamically-typed [`value::Value`] model with [`schema::Schema`]s,
//! * row-oriented [`table::Table`] storage with primary keys and
//!   secondary hash / B-tree [`index`]es,
//! * an [`expr`]ession AST and evaluator,
//! * a [`plan`] layer: logical plans, a builder, and an optimizer
//!   (predicate pushdown, required-column scan narrowing, constant
//!   folding, index selection),
//! * a vectorized [`exec`]ution engine (seq/index scan, filter, project,
//!   nested-loop and hash joins and hash aggregation keyed on the
//!   columns themselves, sort, limit, union,
//!   and the FlexRecs extend/recommend operators) running
//!   batch-at-a-time over [`batch`] columns with selection vectors and
//!   taking EXPLAIN ANALYZE profiling as a type parameter rather than a
//!   second code path; the serial row-at-a-time reference executor,
//!   [`exec::oracle`], is called by name from tests as the differential
//!   oracle and selected by nothing,
//! * a [`sql`] front end (lexer → parser → binder) for the subset needed by
//!   the paper's workloads: `CREATE TABLE`, `INSERT`, `SELECT` with joins /
//!   `WHERE` / `GROUP BY` / `HAVING` / `ORDER BY` / `LIMIT`, `UPDATE`,
//!   `DELETE`.
//!
//! The engine is single-process and in-memory; concurrency is
//! reader-writer at the catalog level ([`parking_lot::RwLock`]), which is
//! sufficient for the read-mostly social-site workloads the paper describes.
//!
//! ```
//! use cr_relation::{Database, value::Value};
//!
//! let db = Database::new();
//! db.execute_sql("CREATE TABLE courses (id INT PRIMARY KEY, title TEXT, units INT)").unwrap();
//! db.execute_sql("INSERT INTO courses VALUES (1, 'Intro to Programming', 5)").unwrap();
//! db.execute_sql("INSERT INTO courses VALUES (2, 'Compilers', 4)").unwrap();
//! let rows = db.query_sql("SELECT title FROM courses WHERE units >= 5").unwrap();
//! assert_eq!(rows.rows.len(), 1);
//! assert_eq!(rows.rows[0][0], Value::text("Intro to Programming"));
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod catalog;
pub mod codec;
pub mod error;
pub mod exec;
pub mod expr;
pub mod index;
mod keys;
pub mod mutation;
pub mod nest;
pub mod plan;
pub mod profile;
pub mod provider;
pub mod row;
pub mod schema;
pub mod similarity;
pub mod sql;
pub mod table;
pub mod telemetry;
pub mod value;

pub use batch::{Batch, Column as BatchColumn, ColumnBuilder, EvalCol};
pub use catalog::{Catalog, CatalogSnapshot, Database};
pub use error::{RelError, RelResult};
pub use exec::{
    execute, execute_instrumented, execute_instrumented_with, execute_with, AccessPath,
    ExecOptions, ResultSet,
};
pub use expr::Expr;
pub use mutation::{CompositeObserver, Mutation, MutationObserver};
pub use plan::{LogicalPlan, PlanBuilder, Principal, Sensitivity, TablePolicy};
pub use profile::OpProfile;
pub use provider::ScanProvider;
pub use row::Row;
pub use schema::{Column, DataType, Schema};
pub use similarity::{RatingsSim, SetSim, TextSim};
pub use telemetry::register_system_tables;
pub use value::Value;
