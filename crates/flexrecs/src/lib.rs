//! # cr-flexrecs — declarative recommendation workflows
//!
//! Implements FlexRecs from §3.2 of *Social Systems: Can We Do More Than
//! Just Poke Friends?* (CIDR 2009):
//!
//! > "At the heart of FlexRecs lies a special **recommend operator**, which
//! > takes as input a set of tuples and ranks them by comparing them to
//! > another set of tuples. The operator may call upon functions in a
//! > library that implement common tasks for recommendations, such as
//! > computing the Jaccard or Pearson similarity of two sets of objects.
//! > The operator may be combined with other recommend operators and
//! > traditional relational operators […] The engine executes a workflow by
//! > 'compiling' it into a sequence of SQL calls, which are executed by a
//! > conventional DBMS."
//!
//! Workflows run on the relational engine's own types: a workflow's
//! output is a [`cr_relation::ResultSet`] of [`cr_relation::Row`]s under a
//! [`cr_relation::Schema`]. The **extend** operator (ε in Figure 5b) nests
//! related tuples "irrespective of the database schema" as a
//! [`cr_relation::Value::Set`] or [`cr_relation::Value::Ratings`] cell,
//! typed [`cr_relation::DataType::Set`] / `Ratings`.
//!
//! * [`similarity`] — the function library (Jaccard, Dice, overlap,
//!   cosine, Pearson, inverse Euclidean, text similarity);
//! * [`workflow`] — the operator DAG (source, select, project, join,
//!   extend, recommend, limit, union), its output schema
//!   ([`workflow::infer_schema`]), the one name rule ([`resolve`]), the
//!   `(key, score)` reading of a result ([`ranking`]) and a
//!   Figure-5-style textual rendering;
//! * [`compile`] — lowering onto the engine's [`LogicalPlan`] IR, then the
//!   shared optimizer and executor: the production path;
//! * [`exec`] — the direct interpreter, kept as the reference semantics
//!   every compiled run is differential-tested against;
//! * [`mod@lint`] — static checks of a workflow's compiled plan;
//! * [`templates`] — the paper's two Figure 5 workflows plus the
//!   course/major/quarter recommenders §3.2 describes CourseRank shipping.
//!
//! [`LogicalPlan`]: cr_relation::plan::LogicalPlan

#![forbid(unsafe_code)]

pub mod compile;
pub mod exec;
pub mod lint;
pub mod templates;
pub mod workflow;

/// The similarity function library now lives in `cr_relation` (the plan's
/// Recommend operator calls it directly); re-exported here so workflow
/// authors keep one import root.
pub use cr_relation::similarity;

pub use compile::{compile_and_run, CompiledRun, StepTiming};
pub use exec::execute;
pub use lint::{lint, lint_for, LintReport};
pub use similarity::{RatingsSim, SetSim, TextSim};
pub use workflow::{
    ranking, resolve, CmpOp, Node, RecAgg, RecMethod, RecommendSpec, WfPredicate, Workflow,
};
