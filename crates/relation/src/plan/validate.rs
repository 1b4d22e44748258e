//! Static analysis over [`LogicalPlan`]s: a validator/typechecker plus
//! dataflow analyses.
//!
//! Nothing in the IR's construction enforces that a plan is well-formed —
//! a buggy optimizer rule or a miscompiled workflow would otherwise only
//! surface as a wrong result or a runtime panic. This module checks the
//! structural and type invariants every executable plan must satisfy and
//! reports violations as machine-readable [`Diagnostic`]s (code, severity,
//! operator path), so they can be surfaced by the workflow linter, by
//! `crlint`, and by the optimizer's debug-build soundness harness.
//!
//! Three entry points:
//!
//! * [`validate`] — invariant errors only, no catalog access (what the
//!   optimizer harness runs after every rewrite rule, and what workflow
//!   compilation runs after lowering — lowering resolves tables itself,
//!   so the catalog cross-checks cannot add information there);
//! * [`validate_against`] — also cross-checks scans against the live
//!   catalog (projection indices, scan filters bound to the full table
//!   schema, unknown tables);
//! * [`analyze`] — validation plus dataflow warnings: contradictory and
//!   always-true filters, dead operators, unused extends, cartesian
//!   joins, unbounded recommends.
//!
//! The checks are *local*: each operator's stored schema is compared
//! against its children's stored schemas by reference, so a full pass is a
//! single tree walk with no schema construction — cheap enough to run
//! unconditionally after lowering (< 5% of compile time).

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::catalog::Catalog;
use crate::expr::{BinOp, Expr};
use crate::schema::{DataType, Schema};
use crate::value::Value;

use super::builder::infer_expr_type;
use super::logical::LogicalPlan;
use super::rec::{RecAggPlan, RecMethod};

// ---------------------------------------------------------------------------
// Diagnostic codes
// ---------------------------------------------------------------------------

/// Column reference out of range for the operator's input width.
pub const E_COL_RANGE: &str = "E001";
/// Expression contains an unbound (named) column reference.
pub const E_UNBOUND_NAME: &str = "E002";
/// Predicate or join condition is not boolean-typed.
pub const E_PRED_TYPE: &str = "E003";
/// Operator's stored output schema has the wrong arity.
pub const E_SCHEMA_ARITY: &str = "E004";
/// Operator's stored output schema disagrees with its inputs on a type.
pub const E_SCHEMA_TYPE: &str = "E005";
/// Join condition references a nested (Set/Ratings) column.
pub const E_JOIN_KEY_NESTED: &str = "E006";
/// Extend's related input does not have the required arity (2, or 3 with
/// ratings).
pub const E_EXTEND_ARITY: &str = "E007";
/// Extend key/fk/rating column is not scalar-typed.
pub const E_EXTEND_KEY_TYPE: &str = "E008";
/// Extend's appended output column is malformed (wrong name or type).
pub const E_EXTEND_OUTPUT: &str = "E009";
/// Recommend spec column out of range.
pub const E_REC_RANGE: &str = "E010";
/// Recommend method/aggregate type discipline violated.
pub const E_REC_TYPES: &str = "E011";
/// Recommend's appended score column is malformed (wrong name or type).
pub const E_REC_OUTPUT: &str = "E012";
/// Union branches have incompatible schemas.
pub const E_UNION_MISMATCH: &str = "E013";
/// Scan projection index out of range for the table schema.
pub const E_SCAN_PROJECTION: &str = "E014";
/// Values row arity disagrees with the stored schema.
pub const E_VALUES_ARITY: &str = "E015";
/// Scan references a table the catalog does not know.
pub const E_UNKNOWN_TABLE: &str = "E016";

/// Filter predicate can never be true (contradiction).
pub const W_CONTRADICTION: &str = "W101";
/// Filter predicate is always true (redundant operator).
pub const W_ALWAYS_TRUE: &str = "W102";
/// Operator can never produce rows (e.g. LIMIT 0).
pub const W_DEAD_OPERATOR: &str = "W103";
/// Extend's nested column is never consumed above it (dead work).
pub const W_UNUSED_EXTEND: &str = "W104";
/// Join condition does not relate the two sides (cartesian product).
pub const W_CARTESIAN_JOIN: &str = "W105";
/// Recommend has no top-k bound (unbounded output).
pub const W_UNBOUNDED_REC: &str = "W106";

/// The full diagnostic code table: `(code, short description)`. Rendered by
/// `crlint --codes` and mirrored in DESIGN.md §10.
pub fn code_table() -> &'static [(&'static str, &'static str)] {
    &[
        (E_COL_RANGE, "column reference out of range"),
        (E_UNBOUND_NAME, "unbound named column in bound plan"),
        (E_PRED_TYPE, "predicate/join condition not boolean"),
        (E_SCHEMA_ARITY, "stored output schema has wrong arity"),
        (E_SCHEMA_TYPE, "stored output schema type mismatch"),
        (E_JOIN_KEY_NESTED, "join condition uses nested column"),
        (E_EXTEND_ARITY, "extend related input wrong arity"),
        (E_EXTEND_KEY_TYPE, "extend key/fk column not scalar"),
        (E_EXTEND_OUTPUT, "extend appended column malformed"),
        (E_REC_RANGE, "recommend spec column out of range"),
        (E_REC_TYPES, "recommend method type discipline violated"),
        (E_REC_OUTPUT, "recommend score column malformed"),
        (E_UNION_MISMATCH, "union branch schemas incompatible"),
        (E_SCAN_PROJECTION, "scan projection index out of range"),
        (E_VALUES_ARITY, "values row arity mismatch"),
        (E_UNKNOWN_TABLE, "scan references unknown table"),
        (W_CONTRADICTION, "filter predicate can never be true"),
        (W_ALWAYS_TRUE, "filter predicate is always true"),
        (W_DEAD_OPERATOR, "operator can never produce rows"),
        (W_UNUSED_EXTEND, "extend's nested column never consumed"),
        (W_CARTESIAN_JOIN, "join condition relates only one side"),
        (W_UNBOUNDED_REC, "recommend has no top-k bound"),
    ]
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One validator finding: a stable code, a severity, the root-to-operator
/// path (`Recommend.target.Filter`), and a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub code: &'static str,
    pub severity: Severity,
    pub path: String,
    pub message: String,
}

impl Diagnostic {
    pub fn error(code: &'static str, path: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            path: path.into(),
            message: message.into(),
        }
    }

    pub fn warning(
        code: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            path: path.into(),
            message: message.into(),
        }
    }

    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} at {}: {}",
            self.code, self.severity, self.path, self.message
        )
    }
}

/// All diagnostics from one validation/analysis pass.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    pub diagnostics: Vec<Diagnostic>,
}

impl ValidationReport {
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_error)
    }

    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_error())
    }

    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.is_error())
    }

    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.errors().next()
    }

    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True if a given code was reported.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "plan is valid");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct VMetrics {
    runs: Arc<cr_obs::Counter>,
    errors: Arc<cr_obs::Counter>,
    warnings: Arc<cr_obs::Counter>,
}

fn vmetrics() -> &'static VMetrics {
    static M: OnceLock<VMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cr_obs::Registry::global();
        VMetrics {
            runs: r.counter("plan.validate.runs"),
            errors: r.counter("plan.validate.errors"),
            warnings: r.counter("plan.validate.warnings"),
        }
    })
}

fn record(report: &ValidationReport) {
    if !cr_obs::enabled() {
        return;
    }
    let m = vmetrics();
    m.runs.inc();
    if !report.diagnostics.is_empty() {
        m.errors.add(report.errors().count() as u64);
        m.warnings.add(report.warnings().count() as u64);
    }
}

/// The type a declared output column must have to hold `e`, or `None` for
/// a bare NULL literal, which fits a column of any type (constant folding
/// turns `NOT NULL` or `LENGTH(NULL)` into one), as it fits a predicate.
fn declarable_type(e: &Expr, schema: &Schema) -> Option<DataType> {
    (!matches!(e, Expr::Literal(Value::Null))).then(|| infer_expr_type(e, schema))
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Check every structural and type invariant the executor relies on,
/// without catalog access (scan internals that need the full table schema
/// are skipped). Errors only.
pub fn validate(plan: &LogicalPlan) -> ValidationReport {
    check(plan, None, false)
}

/// [`validate`] plus catalog-backed scan checks: unknown tables, projection
/// indices against the full table schema, and scan filters (which bind
/// against the *full* schema, not the projected output).
pub fn validate_against(plan: &LogicalPlan, catalog: &Catalog) -> ValidationReport {
    check(plan, Some(catalog), false)
}

/// Full analysis: validation errors plus dataflow warnings (contradictory
/// and always-true filters, dead operators, unused extends, cartesian
/// joins, unbounded recommends).
pub fn analyze(plan: &LogicalPlan, catalog: Option<&Catalog>) -> ValidationReport {
    check(plan, catalog, true)
}

/// The one body of the three entry points: `warn` adds the dataflow
/// warnings.
fn check(plan: &LogicalPlan, catalog: Option<&Catalog>, warn: bool) -> ValidationReport {
    let mut c = Checker {
        catalog,
        warn,
        diags: Vec::new(),
        stack: vec![plan.op_name()],
        scratch: Vec::new(),
    };
    c.visit(plan);
    // The unused-extend analysis needs top-down required-column sets, so it
    // runs as its own pass (only sensible on structurally valid plans).
    if warn && !c.diags.iter().any(Diagnostic::is_error) {
        observe(plan, None, &mut c.stack, &mut c.diags);
    }
    let report = ValidationReport {
        diagnostics: c.diags,
    };
    record(&report);
    report
}

fn is_nested(dt: DataType) -> bool {
    matches!(dt, DataType::Set | DataType::Ratings)
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

struct Checker<'a> {
    catalog: Option<&'a Catalog>,
    warn: bool,
    diags: Vec<Diagnostic>,
    /// Root-to-current-operator path segments (op names and edge labels,
    /// all `'static`). Rendered into a `String` only when a diagnostic
    /// actually fires, so the clean-plan hot path never allocates paths.
    stack: Vec<&'static str>,
    /// Reused column-index buffer for the checks that need a full list.
    scratch: Vec<usize>,
}

impl Checker<'_> {
    fn error(&mut self, code: &'static str, message: String) {
        let path = self.stack.join(".");
        self.diags.push(Diagnostic::error(code, path, message));
    }

    fn warning(&mut self, code: &'static str, message: String) {
        if self.warn {
            let path = self.stack.join(".");
            self.diags.push(Diagnostic::warning(code, path, message));
        }
    }

    /// Output columns `offset..` of `schema` pass `input` through, so
    /// their types must agree.
    fn check_passthrough(&mut self, op: &str, schema: &Schema, offset: usize, input: &Schema) {
        for (i, col) in input.columns().iter().enumerate() {
            let out = schema.column(offset + i).data_type;
            if out != col.data_type {
                self.error(
                    E_SCHEMA_TYPE,
                    format!(
                        "{op} passthrough column {} is {} but the input column is {}",
                        offset + i,
                        out.sql_name(),
                        col.data_type.sql_name()
                    ),
                );
            }
        }
    }

    /// Bounds + boundness check. Returns true when the expression is safe
    /// to run type inference on.
    fn check_expr(&mut self, e: &Expr, schema: &Schema, what: &str) -> bool {
        let (max_col, unbound) = e.binding_profile();
        if unbound {
            self.error(
                E_UNBOUND_NAME,
                format!("{what} contains an unbound column name: {e}"),
            );
            return false;
        }
        if let Some(bad) = max_col.filter(|&c| c >= schema.len()) {
            self.error(
                E_COL_RANGE,
                format!(
                    "{what} references column #{bad} but the input has only {} columns",
                    schema.len()
                ),
            );
            return false;
        }
        true
    }

    /// [`Checker::check_expr`] plus the boolean-type requirement for
    /// predicates and join conditions. A bare NULL literal is accepted
    /// (evaluates to no-match).
    fn check_predicate(&mut self, e: &Expr, schema: &Schema, what: &str) {
        if !self.check_expr(e, schema, what) {
            return;
        }
        if matches!(e, Expr::Literal(Value::Null)) {
            return;
        }
        let dt = infer_expr_type(e, schema);
        if dt != DataType::Bool {
            self.error(
                E_PRED_TYPE,
                format!("{what} has type {} (expected Bool): {e}", dt.sql_name()),
            );
        }
    }

    /// Contradiction / tautology warnings for a (bound, in-range) filter
    /// predicate.
    fn warn_predicate(&mut self, e: &Expr) {
        if !self.warn {
            return;
        }
        match e.fold() {
            Expr::Literal(Value::Bool(false)) | Expr::Literal(Value::Null) => {
                self.warning(
                    W_CONTRADICTION,
                    format!("predicate folds to FALSE — the operator produces no rows: {e}"),
                );
                return;
            }
            Expr::Literal(Value::Bool(true)) => {
                self.warning(
                    W_ALWAYS_TRUE,
                    format!("predicate folds to TRUE — the filter is redundant: {e}"),
                );
                return;
            }
            _ => {}
        }
        self.warn_eq_contradiction(&e.split_conjunction());
    }

    /// `x = a AND x = b` with distinct literals can never hold. The
    /// conjuncts may come from one predicate or a stack of filters.
    fn warn_eq_contradiction(&mut self, conjuncts: &[Expr]) {
        let mut eqs: Vec<(usize, Value)> = Vec::new();
        for part in conjuncts {
            if let Expr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } = part
            {
                match (&**left, &**right) {
                    (Expr::Column(i), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(i))
                        if !v.is_null() =>
                    {
                        eqs.push((*i, v.clone()))
                    }
                    _ => {}
                }
            }
        }
        for (i, (col, v)) in eqs.iter().enumerate() {
            if eqs[..i].iter().any(|(c2, v2)| c2 == col && v2 != v) {
                self.warning(
                    W_CONTRADICTION,
                    format!("conjunction requires column #{col} to equal two distinct values"),
                );
                return;
            }
        }
    }

    /// Check `plan`'s inputs, then the operator against them.
    fn visit(&mut self, plan: &LogicalPlan) {
        for (edge, child) in plan.children().into_iter().flatten() {
            let depth = self.stack.len();
            self.stack.extend(edge);
            self.stack.push(child.op_name());
            self.visit(child);
            self.stack.truncate(depth);
        }
        match plan {
            LogicalPlan::Scan {
                table,
                projection,
                filter,
                schema,
                ..
            } => {
                if let Some(p) = projection {
                    if p.len() != schema.len() {
                        self.error(
                            E_SCHEMA_ARITY,
                            format!(
                                "scan projects {} columns but its schema has {}",
                                p.len(),
                                schema.len()
                            ),
                        );
                    }
                }
                match self.catalog {
                    // Borrow the full table schema in place — cloning it per
                    // scan would dominate validation time.
                    Some(cat) => {
                        let known = cat.with_table(table, |t| {
                            let full = t.schema();
                            if let Some(p) = projection {
                                for &i in p {
                                    if i >= full.len() {
                                        self.error(
                                            E_SCAN_PROJECTION,
                                            format!(
                                            "projection index {i} out of range for table {table} \
                                             ({} columns)",
                                            full.len()
                                        ),
                                        );
                                    }
                                }
                                if p.len() == schema.len() {
                                    for (out_i, &src_i) in p.iter().enumerate() {
                                        if src_i < full.len()
                                            && full.column(src_i).data_type
                                                != schema.column(out_i).data_type
                                        {
                                            self.error(
                                                E_SCHEMA_TYPE,
                                                format!(
                                                    "scan output column {out_i} is {} but table \
                                                 column {src_i} is {}",
                                                    schema.column(out_i).data_type.sql_name(),
                                                    full.column(src_i).data_type.sql_name()
                                                ),
                                            );
                                        }
                                    }
                                }
                            } else if full.len() != schema.len() {
                                self.error(
                                    E_SCHEMA_ARITY,
                                    format!(
                                        "unprojected scan schema has {} columns but table {table} \
                                     has {}",
                                        schema.len(),
                                        full.len()
                                    ),
                                );
                            }
                            // Scan filters bind against the FULL table schema.
                            if let Some(f) = filter {
                                self.check_predicate(f, full, "scan filter");
                                self.warn_predicate(f);
                            }
                        });
                        if known.is_err() {
                            self.error(E_UNKNOWN_TABLE, format!("unknown table {table}"));
                        }
                    }
                    None => {
                        // Without a catalog the full schema is only known
                        // when there is no projection (output == full).
                        if projection.is_none() {
                            if let Some(f) = filter {
                                self.check_predicate(f, schema, "scan filter");
                                self.warn_predicate(f);
                            }
                        }
                    }
                }
            }

            LogicalPlan::Filter { input, predicate } => {
                self.check_predicate(predicate, input.schema(), "filter predicate");
                self.warn_predicate(predicate);
                // A contradiction may span a *stack* of filters (workflow
                // lowering emits one Filter per Select step); check the
                // combined conjunction from the outermost filter only.
                if self.warn && matches!(**input, LogicalPlan::Filter { .. }) {
                    let mut conjuncts = predicate.split_conjunction();
                    let mut cur: &LogicalPlan = input;
                    while let LogicalPlan::Filter { input, predicate } = cur {
                        conjuncts.extend(predicate.split_conjunction());
                        cur = input;
                    }
                    self.warn_eq_contradiction(&conjuncts);
                }
            }

            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                if schema.len() != exprs.len() {
                    self.error(
                        E_SCHEMA_ARITY,
                        format!(
                            "projection has {} expressions but its schema has {} columns",
                            exprs.len(),
                            schema.len()
                        ),
                    );
                    return;
                }
                for (i, (e, name)) in exprs.iter().enumerate() {
                    if !self.check_expr(e, input.schema(), "projection expression") {
                        continue;
                    }
                    let Some(dt) = declarable_type(e, input.schema()) else {
                        continue;
                    };
                    if schema.column(i).data_type != dt {
                        self.error(
                            E_SCHEMA_TYPE,
                            format!(
                                "projection column {i} ({name}) declared {} but expression {e} \
                                 has type {}",
                                schema.column(i).data_type.sql_name(),
                                dt.sql_name()
                            ),
                        );
                    }
                }
            }

            LogicalPlan::Join {
                left,
                right,
                on,
                schema,
                ..
            } => {
                let lw = left.schema().len();
                let rw = right.schema().len();
                if schema.len() != lw + rw {
                    self.error(
                        E_SCHEMA_ARITY,
                        format!(
                            "join schema has {} columns but its sides have {lw} + {rw}",
                            schema.len()
                        ),
                    );
                    return;
                }
                self.check_passthrough("join", schema, 0, left.schema());
                self.check_passthrough("join", schema, lw, right.schema());
                self.check_predicate(on, schema, "join condition");
                // Joins are rare enough per plan that the column list is
                // collected into a reused scratch buffer, not a fresh Vec.
                let mut cols = std::mem::take(&mut self.scratch);
                cols.clear();
                on.referenced_columns(&mut cols);
                for &c in &cols {
                    if c < schema.len() && is_nested(schema.column(c).data_type) {
                        self.error(
                            E_JOIN_KEY_NESTED,
                            format!(
                                "join condition references nested column #{c} ({}); join keys \
                                 must be scalar",
                                schema.column(c).name
                            ),
                        );
                    }
                }
                if lw > 0 && rw > 0 {
                    let touches_left = cols.iter().any(|&c| c < lw);
                    let touches_right = cols.iter().any(|&c| c >= lw);
                    if !(touches_left && touches_right) {
                        self.warning(
                            W_CARTESIAN_JOIN,
                            "join condition does not relate the two sides (cartesian product)"
                                .to_owned(),
                        );
                    }
                }
                self.scratch = cols;
            }

            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                schema,
            } => {
                let is = input.schema();
                let mut ok = Vec::with_capacity(group_by.len() + aggs.len());
                for e in group_by {
                    ok.push(self.check_expr(e, is, "group-by expression"));
                }
                for a in aggs {
                    ok.push(self.check_expr(&a.arg, is, "aggregate argument"));
                }
                if schema.len() != group_by.len() + aggs.len() {
                    self.error(
                        E_SCHEMA_ARITY,
                        format!(
                            "aggregate schema has {} columns but produces {} groups + {} \
                             aggregates",
                            schema.len(),
                            group_by.len(),
                            aggs.len()
                        ),
                    );
                    return;
                }
                for (i, e) in group_by.iter().enumerate() {
                    if !ok[i] {
                        continue;
                    }
                    let Some(dt) = declarable_type(e, is) else {
                        continue;
                    };
                    if schema.column(i).data_type != dt {
                        self.error(
                            E_SCHEMA_TYPE,
                            format!(
                                "group key {i} declared {} but expression has type {}",
                                schema.column(i).data_type.sql_name(),
                                dt.sql_name()
                            ),
                        );
                    }
                }
                for (j, a) in aggs.iter().enumerate() {
                    if !ok[group_by.len() + j] {
                        continue;
                    }
                    let Some(dt) = declarable_type(&a.arg, is).map(|t| a.func.output_type(t))
                    else {
                        continue;
                    };
                    let col = schema.column(group_by.len() + j);
                    if col.data_type != dt {
                        self.error(
                            E_SCHEMA_TYPE,
                            format!(
                                "aggregate {} declared {} but computes {}",
                                a.name,
                                col.data_type.sql_name(),
                                dt.sql_name()
                            ),
                        );
                    }
                }
            }

            LogicalPlan::Sort { input, keys } => {
                for k in keys {
                    self.check_expr(&k.expr, input.schema(), "sort key");
                }
            }

            LogicalPlan::Limit { limit, .. } => {
                if *limit == Some(0) {
                    self.warning(W_DEAD_OPERATOR, "LIMIT 0 can never produce rows".to_owned());
                }
            }

            LogicalPlan::Values { schema, rows } => {
                for (ri, row) in rows.iter().enumerate() {
                    if row.len() != schema.len() {
                        self.error(
                            E_VALUES_ARITY,
                            format!(
                                "row {ri} has {} values but the schema has {} columns",
                                row.len(),
                                schema.len()
                            ),
                        );
                        break;
                    }
                }
            }

            LogicalPlan::Union { left, right } => {
                let ls = left.schema();
                let rs = right.schema();
                if ls.len() != rs.len() {
                    self.error(
                        E_UNION_MISMATCH,
                        format!("union sides have {} vs {} columns", ls.len(), rs.len()),
                    );
                    return;
                }
                for i in 0..ls.len() {
                    let (lt, rt) = (ls.column(i).data_type, rs.column(i).data_type);
                    let numeric = |t| matches!(t, DataType::Int | DataType::Float);
                    if lt != rt && !(numeric(lt) && numeric(rt)) {
                        self.error(
                            E_UNION_MISMATCH,
                            format!(
                                "union column {i} is {} on the left but {} on the right",
                                lt.sql_name(),
                                rt.sql_name()
                            ),
                        );
                    }
                }
            }

            LogicalPlan::Extend {
                input,
                related,
                key_col,
                rating,
                as_name,
                schema,
            } => {
                let is = input.schema();
                let rel = related.schema();
                let expected = if *rating { 3 } else { 2 };
                if rel.len() != expected {
                    self.error(
                        E_EXTEND_ARITY,
                        format!(
                            "related input must have {expected} columns ([fk, key{}]), got {}",
                            if *rating { ", rating" } else { "" },
                            rel.len()
                        ),
                    );
                } else {
                    let labels: &[&str] = if *rating {
                        &["foreign-key", "key", "rating"]
                    } else {
                        &["foreign-key", "key"]
                    };
                    for (i, label) in labels.iter().enumerate() {
                        if is_nested(rel.column(i).data_type) {
                            self.error(
                                E_EXTEND_KEY_TYPE,
                                format!(
                                    "related {label} column ({}) is nested ({}); must be scalar",
                                    rel.column(i).name,
                                    rel.column(i).data_type.sql_name()
                                ),
                            );
                        }
                    }
                }
                if *key_col >= is.len() {
                    self.error(
                        E_COL_RANGE,
                        format!(
                            "extend key column #{key_col} out of range (input has {} columns)",
                            is.len()
                        ),
                    );
                } else if is_nested(is.column(*key_col).data_type) {
                    self.error(
                        E_EXTEND_KEY_TYPE,
                        format!(
                            "extend key column #{key_col} ({}) is nested; must be scalar",
                            is.column(*key_col).name
                        ),
                    );
                }
                if schema.len() != is.len() + 1 {
                    self.error(
                        E_SCHEMA_ARITY,
                        format!(
                            "extend schema has {} columns, expected input ({}) + 1",
                            schema.len(),
                            is.len()
                        ),
                    );
                    return;
                }
                self.check_passthrough("extend", schema, 0, is);
                let want = if *rating {
                    DataType::Ratings
                } else {
                    DataType::Set
                };
                let appended = schema.column(is.len());
                if appended.data_type != want || appended.name != *as_name {
                    self.error(
                        E_EXTEND_OUTPUT,
                        format!(
                            "appended column must be {} {}, got {} {}",
                            as_name,
                            want.sql_name(),
                            appended.name,
                            appended.data_type.sql_name()
                        ),
                    );
                }
            }

            LogicalPlan::Recommend {
                target,
                comparator,
                spec,
                schema,
            } => {
                let ts = target.schema();
                let cs = comparator.schema();
                let mut in_range = true;
                let check_range = |this: &mut Self, col: usize, side: &Schema, what: &str| {
                    if col >= side.len() {
                        this.error(
                            E_REC_RANGE,
                            format!("{what} column #{col} out of range ({} columns)", side.len()),
                        );
                        false
                    } else {
                        true
                    }
                };
                in_range &= check_range(self, spec.target_col, ts, "target");
                in_range &= check_range(self, spec.comparator_col, cs, "comparator");
                if let RecAggPlan::WeightedAvg { weight_col } = spec.agg {
                    in_range &= check_range(self, weight_col, cs, "weight");
                }
                if let Some((t, c)) = spec.exclude_seen {
                    in_range &= check_range(self, t, ts, "exclude-seen target");
                    in_range &= check_range(self, c, cs, "exclude-seen comparator");
                }
                if in_range {
                    self.check_rec_types(spec, ts, cs);
                }
                if schema.len() != ts.len() + 1 {
                    self.error(
                        E_SCHEMA_ARITY,
                        format!(
                            "recommend schema has {} columns, expected target ({}) + 1",
                            schema.len(),
                            ts.len()
                        ),
                    );
                    return;
                }
                self.check_passthrough("recommend", schema, 0, ts);
                let score = schema.column(ts.len());
                if score.data_type != DataType::Float || score.name != spec.score_name {
                    self.error(
                        E_REC_OUTPUT,
                        format!(
                            "appended score column must be {} FLOAT, got {} {}",
                            spec.score_name,
                            score.name,
                            score.data_type.sql_name()
                        ),
                    );
                }
                if spec.k.is_none() && !spec.unbounded_ok {
                    self.warning(
                        W_UNBOUNDED_REC,
                        "recommend has no top-k bound; it scores and returns every target row"
                            .to_owned(),
                    );
                }
            }
        }
    }

    /// The recommend operator's type discipline, mirrored from the
    /// workflow layer's `infer_schema` rules onto plan [`DataType`]s. The
    /// workflow layer cannot distinguish scalar types, so "scalar" here
    /// means "not Set/Ratings".
    fn check_rec_types(&mut self, spec: &super::rec::RecSpec, ts: &Schema, cs: &Schema) {
        let t = ts.column(spec.target_col).data_type;
        let c = cs.column(spec.comparator_col).data_type;
        let bad = |this: &mut Self, msg: String| this.error(E_REC_TYPES, msg);
        match &spec.method {
            RecMethod::Text(_) => {
                if is_nested(t) || is_nested(c) {
                    bad(
                        self,
                        format!(
                            "text similarity needs scalar columns, got {} ~ {}",
                            t.sql_name(),
                            c.sql_name()
                        ),
                    );
                }
            }
            RecMethod::Set(_) => {
                if t != DataType::Set || c != DataType::Set {
                    bad(
                        self,
                        format!(
                            "set similarity needs SET columns, got {} ~ {}",
                            t.sql_name(),
                            c.sql_name()
                        ),
                    );
                }
            }
            RecMethod::Ratings { .. } => {
                if t != DataType::Ratings || c != DataType::Ratings {
                    bad(
                        self,
                        format!(
                            "ratings similarity needs RATINGS columns, got {} ~ {}",
                            t.sql_name(),
                            c.sql_name()
                        ),
                    );
                }
            }
            RecMethod::RatingLookup => {
                if is_nested(t) {
                    bad(
                        self,
                        format!(
                            "rating lookup needs a scalar target key, got {}",
                            t.sql_name()
                        ),
                    );
                }
                if c != DataType::Ratings {
                    bad(
                        self,
                        format!(
                            "rating lookup needs a RATINGS comparator column, got {}",
                            c.sql_name()
                        ),
                    );
                }
            }
        }
        if let RecAggPlan::WeightedAvg { weight_col } = spec.agg {
            let w = cs.column(weight_col).data_type;
            if is_nested(w) {
                bad(
                    self,
                    format!(
                        "weighted-average weight column must be scalar, got {}",
                        w.sql_name()
                    ),
                );
            }
        }
        if let Some((te, ce)) = spec.exclude_seen {
            let tt = ts.column(te).data_type;
            let ct = cs.column(ce).data_type;
            if is_nested(tt) {
                bad(
                    self,
                    format!(
                        "exclude-seen target column must be scalar, got {}",
                        tt.sql_name()
                    ),
                );
            }
            if !is_nested(ct) {
                bad(
                    self,
                    format!(
                        "exclude-seen comparator column must be SET or RATINGS, got {}",
                        ct.sql_name()
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dataflow: required columns (unused-extend detection, scan narrowing)
// ---------------------------------------------------------------------------

/// A set of column positions, ascending without duplicates; `None` means
/// "every column".
pub(crate) type Required = Option<Vec<usize>>;

/// The required-column rule, one operator at a time: given the columns of
/// `plan`'s output its parent reads (`None` = all of them — the root's
/// columns all go to the user), the columns of each child `plan` reads,
/// in [`LogicalPlan::children`] order.
///
/// The unused-extend warning ([`W_UNUSED_EXTEND`]) and the optimizer's
/// scan narrowing (`optimizer::narrow`) both walk the plan top-down with
/// this one function. The rewrite asks every Project for its whole output
/// (a Project's schema stays as built), so it drops an Extend the warning
/// calls dead only when nothing in between must keep the nested column's
/// position: a Project (`Project[id]` over `Project[id, nested]` over an
/// Extend warns but keeps the Extend), or a Union whose other side cannot
/// narrow.
pub(crate) fn child_reads(plan: &LogicalPlan, required: Option<&[usize]>) -> Vec<Required> {
    /// `cols` plus the columns `exprs` read, as a set.
    fn with<'e>(mut cols: Vec<usize>, exprs: impl IntoIterator<Item = &'e Expr>) -> Vec<usize> {
        for e in exprs {
            e.referenced_columns(&mut cols);
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }
    // The parent's set plus what the operator itself reads; "all" stays all.
    let plus = |own: &[&Expr]| required.map(|req| with(req.to_vec(), own.iter().copied()));
    // The parent's set restricted to the columns a child passes through
    // unchanged (the first `width` outputs), plus the operator's own reads.
    let passthrough = |width: usize, own: &[usize]| {
        let mut cols: Vec<usize> = match required {
            Some(req) => req[..req.partition_point(|&c| c < width)].to_vec(),
            None => (0..width).collect(),
        };
        cols.extend(own);
        Some(with(cols, []))
    };
    match plan {
        LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => Vec::new(),
        LogicalPlan::Filter { predicate, .. } => vec![plus(&[predicate])],
        LogicalPlan::Sort { keys, .. } => {
            vec![plus(&keys.iter().map(|k| &k.expr).collect::<Vec<_>>())]
        }
        LogicalPlan::Limit { .. } => vec![required.map(<[usize]>::to_vec)],
        LogicalPlan::Union { .. } => vec![required.map(<[usize]>::to_vec); 2],
        LogicalPlan::Project { exprs, .. } => vec![Some(with(
            Vec::new(),
            exprs
                .iter()
                .enumerate()
                .filter(|(i, _)| required.is_none_or(|req| req.binary_search(i).is_ok()))
                .map(|(_, (e, _))| e),
        ))],
        // Group keys shape the output even when unused upstream, and every
        // aggregate argument is read.
        LogicalPlan::Aggregate { group_by, aggs, .. } => vec![Some(with(
            Vec::new(),
            group_by.iter().chain(aggs.iter().map(|a| &a.arg)),
        ))],
        LogicalPlan::Join { left, on, .. } => match required {
            Some(req) => {
                let lw = left.schema().len();
                let cols = with(req.to_vec(), [on]);
                let (l, r) = cols.split_at(cols.partition_point(|&c| c < lw));
                vec![Some(l.to_vec()), Some(r.iter().map(|c| c - lw).collect())]
            }
            None => vec![None, None],
        },
        // The related side's [fk, key(, rating)] columns are all read.
        LogicalPlan::Extend { input, key_col, .. } => {
            vec![passthrough(input.schema().len(), &[*key_col]), None]
        }
        LogicalPlan::Recommend { target, spec, .. } => {
            let mut own = vec![spec.target_col];
            own.extend(spec.exclude_seen.map(|(t, _)| t));
            let mut creq = vec![spec.comparator_col];
            if let RecAggPlan::WeightedAvg { weight_col } = spec.agg {
                creq.push(weight_col);
            }
            creq.extend(spec.exclude_seen.map(|(_, c)| c));
            vec![
                passthrough(target.schema().len(), &own),
                Some(with(creq, [])),
            ]
        }
    }
}

/// Top-down required-column walk ([`child_reads`]). Fires
/// [`W_UNUSED_EXTEND`] when an extend's appended nested column is never
/// consumed above it.
fn observe(
    plan: &LogicalPlan,
    required: Option<&[usize]>,
    stack: &mut Vec<&'static str>,
    diags: &mut Vec<Diagnostic>,
) {
    if let LogicalPlan::Extend { input, as_name, .. } = plan {
        if required.is_some_and(|req| req.binary_search(&input.schema().len()).is_err()) {
            diags.push(Diagnostic::warning(
                W_UNUSED_EXTEND,
                stack.join("."),
                format!(
                    "nested column {as_name} is never consumed above this extend \
                     (dead nest-map work)"
                ),
            ));
        }
    }
    let kids = plan.children().into_iter().flatten();
    for ((edge, child), req) in kids.zip(child_reads(plan, required)) {
        let depth = stack.len();
        stack.extend(edge);
        stack.push(child.op_name());
        observe(child, req.as_deref(), stack, diags);
        stack.truncate(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::{JoinKind, PlanBuilder};
    use crate::row::row;
    use crate::schema::Column;

    fn setup() -> Catalog {
        let c = Catalog::new();
        c.create_table(
            "students",
            Schema::qualified(
                "students",
                vec![
                    Column::not_null("id", DataType::Int),
                    Column::new("name", DataType::Text),
                ],
            ),
            vec![0],
        )
        .unwrap();
        c.create_table(
            "ratings",
            Schema::qualified(
                "ratings",
                vec![
                    Column::not_null("sid", DataType::Int),
                    Column::new("course", DataType::Int),
                    Column::new("score", DataType::Float),
                ],
            ),
            vec![0],
        )
        .unwrap();
        c
    }

    fn extended(c: &Catalog) -> PlanBuilder {
        let related = PlanBuilder::scan(c, "ratings")
            .unwrap()
            .select_columns(&["sid", "course"])
            .unwrap();
        PlanBuilder::scan(c, "students")
            .unwrap()
            .extend(related, "id", false, "courses")
            .unwrap()
    }

    #[test]
    fn valid_plans_validate_clean() {
        let c = setup();
        let plan = PlanBuilder::scan(&c, "students")
            .unwrap()
            .filter(Expr::col("id").gt(Expr::lit(3i64)))
            .unwrap()
            .project(vec![(Expr::col("name"), "name")])
            .unwrap()
            .build();
        let report = validate_against(&plan, &c);
        assert!(report.is_empty(), "{report}");
        let ext = extended(&c).build();
        assert!(validate(&ext).is_empty());
    }

    #[test]
    fn out_of_range_column_flagged() {
        let c = setup();
        let scan = PlanBuilder::scan(&c, "students").unwrap().build();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: Expr::col_idx(9).eq(Expr::lit(1i64)),
        };
        let report = validate(&plan);
        assert!(report.has_code(E_COL_RANGE), "{report}");
        assert_eq!(report.first_error().unwrap().path, "Filter");
    }

    #[test]
    fn unbound_name_flagged() {
        let c = setup();
        let scan = PlanBuilder::scan(&c, "students").unwrap().build();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: Expr::col("nope").eq(Expr::lit(1i64)),
        };
        assert!(validate(&plan).has_code(E_UNBOUND_NAME));
    }

    #[test]
    fn non_boolean_predicate_flagged() {
        let c = setup();
        let scan = PlanBuilder::scan(&c, "students").unwrap().build();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: Expr::col_idx(0),
        };
        assert!(validate(&plan).has_code(E_PRED_TYPE));
    }

    #[test]
    fn nested_join_key_flagged() {
        let c = setup();
        let left = extended(&c).build();
        let right = PlanBuilder::scan(&c, "students").unwrap().build();
        let schema = left.schema().join(right.schema());
        // Column #2 is the nested `courses` set.
        let plan = LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind: JoinKind::Inner,
            on: Expr::col_idx(2).eq(Expr::col_idx(3)),
            schema,
        };
        assert!(validate(&plan).has_code(E_JOIN_KEY_NESTED));
    }

    #[test]
    fn contradictory_and_always_true_filters_warned() {
        let c = setup();
        let contradiction = PlanBuilder::scan(&c, "students")
            .unwrap()
            .filter(
                Expr::col("id")
                    .eq(Expr::lit(1i64))
                    .and(Expr::col("id").eq(Expr::lit(2i64))),
            )
            .unwrap()
            .build();
        let report = analyze(&contradiction, Some(&c));
        assert!(report.has_code(W_CONTRADICTION), "{report}");
        assert!(!report.has_errors());

        let tautology = PlanBuilder::scan(&c, "students")
            .unwrap()
            .filter(Expr::lit(1i64).eq(Expr::lit(1i64)))
            .unwrap()
            .build();
        assert!(analyze(&tautology, Some(&c)).has_code(W_ALWAYS_TRUE));
    }

    #[test]
    fn cartesian_join_and_limit_zero_warned() {
        let c = setup();
        let left = PlanBuilder::scan(&c, "students").unwrap();
        let right = PlanBuilder::scan(&c, "ratings").unwrap();
        let plan = left
            .join(right, JoinKind::Inner, Expr::lit(true))
            .unwrap()
            .limit(0)
            .build();
        let report = analyze(&plan, Some(&c));
        assert!(report.has_code(W_CARTESIAN_JOIN), "{report}");
        assert!(report.has_code(W_DEAD_OPERATOR), "{report}");
    }

    #[test]
    fn unused_extend_warned_only_when_projected_away() {
        let c = setup();
        // Root returns the nested column → no warning.
        let used = extended(&c).build();
        assert!(!analyze(&used, Some(&c)).has_code(W_UNUSED_EXTEND));
        // A projection above drops it → dead nest-map work.
        let dropped = extended(&c)
            .project(vec![(Expr::col("name"), "name")])
            .unwrap()
            .build();
        let report = analyze(&dropped, Some(&c));
        assert!(report.has_code(W_UNUSED_EXTEND), "{report}");
    }

    #[test]
    fn unknown_table_flagged_with_catalog() {
        let c = setup();
        let plan = LogicalPlan::Scan {
            table: "nope".into(),
            alias: None,
            projection: None,
            filter: None,
            schema: Schema::default(),
        };
        assert!(validate_against(&plan, &c).has_code(E_UNKNOWN_TABLE));
        // Without a catalog the table cannot be checked.
        assert!(validate(&plan).is_empty());
    }

    #[test]
    fn values_arity_flagged() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let plan = LogicalPlan::Values {
            schema,
            rows: vec![row![1i64, 2i64]],
        };
        assert!(validate(&plan).has_code(E_VALUES_ARITY));
    }

    #[test]
    fn report_renders_one_line_per_diagnostic() {
        let c = setup();
        let scan = PlanBuilder::scan(&c, "students").unwrap().build();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: Expr::col_idx(9),
        };
        let report = validate(&plan);
        let text = report.to_string();
        assert!(text.contains("E001"), "{text}");
        assert!(text.contains("at Filter"), "{text}");
    }
}
