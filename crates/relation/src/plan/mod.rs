//! Logical query plans.
//!
//! A [`LogicalPlan`] is a tree of relational operators with **bound**
//! expressions (positional column references). Every node is built by the
//! [`PlanBuilder`] — which the SQL binder, the FlexRecs compiler and the
//! typed reads all stack their operators through — then rewritten by the
//! [`optimizer`] and executed by [`crate::exec`].
//!
//! Every pass walks the tree through three structural methods on the node:
//! [`LogicalPlan::children`] (at most two `(edge label, &child)` pairs, the
//! labels diagnostic paths spell), [`LogicalPlan::map_children`] and
//! [`LogicalPlan::map_exprs`] (owned rebuilds). A pass names an operator
//! only where that operator means something to it — the validator's
//! checks, the flow transfer, the required-column rule, the executors —
//! so a new operator is a compile error at exactly those places (see
//! `scripts/plan_variant_sites.sh`) and is otherwise visited for free.

mod builder;
pub mod deps;
pub mod flow;
mod logical;
pub mod optimizer;
pub mod rec;
pub mod validate;

pub use builder::{infer_expr_type, PlanBuilder};
pub use deps::{ColumnSet, KeySet, PlanDeps, TableDeps};
pub use flow::{
    check_disclosure, flow_code_table, gate_decision, ColumnPolicy, ColumnRole, FlowPolicy,
    GateDecision, Principal, Sensitivity, TablePolicy,
};
pub use logical::{AggExpr, AggFn, JoinKind, LogicalPlan, SortKey};
pub use rec::{RecAggPlan, RecMethod, RecSpec};
pub use validate::{analyze, Diagnostic, Severity, ValidationReport};
