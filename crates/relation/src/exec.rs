//! Physical execution.
//!
//! Two plan walkers share this module and the operator implementations
//! below them:
//!
//! * `run_batched` — the **vectorized executor** (`batch_size > 0`, the
//!   default, and the only path production callers use): operators
//!   exchange columnar [`Batch`]es. Scans hand out the table's cached
//!   columnar image ([`Table::columnar`], `Arc`-shared, rebuilt only after
//!   a mutation), pushed-down filters set the batch's *selection vector*
//!   instead of copying rows, and projections evaluate expression kernels
//!   ([`Expr::eval_batch`]) only over selected slots — so a
//!   scan→filter→project chain is one fused pass with no per-row
//!   dispatch. Kernels read typed slices and write typed cells; a
//!   `Value` is built only at the result boundary and for `Generic`
//!   data. Hash joins and hash aggregation group rows by hashing and
//!   comparing their key columns where they are stored (dense group ids,
//!   no `Vec<Value>` key per row), aggregates accumulate from typed
//!   slices with `AggState`'s rules, sorts compare typed key columns in
//!   place, and sort and limit permute/truncate the selection vector.
//!   `Extend` probes the related
//!   table's version-keyed nest image ([`Table::nested`]) when its
//!   related side is a bare projected scan, and `Recommend` scores off
//!   the columns, gathering only the rows it returns.
//!
//! * `run` — the **row executor** (`batch_size == 0`): the original
//!   serial pipeline of `Vec<Row>` operators, kept as the differential
//!   oracle that `tests/batch_differential.rs` compares the batched path
//!   against.
//!
//! Both produce byte-identical results, and both are generic over
//! `Profile`: `()` records nothing, [`OpProfile`] builds the EXPLAIN
//! ANALYZE tree, the trace spans and the per-operator histograms — so
//! profiling is a type parameter of a walker, not a second copy of it.
//!
//! Scans pick an **access path** at runtime: if the pushed-down
//! predicate contains an equality (or range) conjunct on the primary key
//! or an indexed column, the matching index serves the lookup and only
//! the residual predicate is evaluated per row. This is what makes
//! FlexRecs' compiled per-user queries cheap on paper-scale data.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::ops::Bound;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use cr_obs::trace::TraceSpan;

use crate::batch::{
    Acc, Batch, Cells, Column as BatchColumn, ColumnBuilder, ColumnData, EvalCol, Vals, NULL_SLOT,
};
use crate::catalog::Catalog;
use crate::error::{RelError, RelResult};
use crate::expr::{BinOp, Expr};
use crate::keys::{Key, KeyTable};
use crate::nest::NestMap;
use crate::plan::{AggExpr, AggFn, JoinKind, LogicalPlan, RecAggPlan, RecMethod, RecSpec, SortKey};
use crate::profile::OpProfile;
use crate::row::Row;
use crate::schema::Schema;
use crate::similarity::{dense_keys, Common, Probe, RatingsSim, SetSim};
use crate::table::Table;
use crate::value::Value;

// ---------------------------------------------------------------------
// Metrics (handles resolved once; recording is relaxed atomics only)
// ---------------------------------------------------------------------

struct RelMetrics {
    queries: Arc<cr_obs::Counter>,
    query_ns: Arc<cr_obs::Histogram>,
    rows_out: Arc<cr_obs::Counter>,
    scan_seq: Arc<cr_obs::Counter>,
    scan_pk: Arc<cr_obs::Counter>,
    scan_index_eq: Arc<cr_obs::Counter>,
    scan_index_range: Arc<cr_obs::Counter>,
    /// Extend nest maps built (from a related batch or as a fresh
    /// [`Table::nested`] image) vs. served from a table's cached image.
    nest_builds: Arc<cr_obs::Counter>,
    nest_hits: Arc<cr_obs::Counter>,
    /// Per-operator-kind latency histograms (`relation.op.<kind>_ns`),
    /// indexed by [`LogicalPlan::op_index`] and pre-resolved so the
    /// profiled executor never takes the registry lock per node — it
    /// already measured the elapsed time, recording is one atomic bump.
    op_ns: [Arc<cr_obs::Histogram>; LogicalPlan::OP_NAMES.len()],
}

fn metrics() -> &'static RelMetrics {
    static M: OnceLock<RelMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cr_obs::Registry::global();
        RelMetrics {
            queries: r.counter("relation.queries"),
            query_ns: r.histogram("relation.query_ns"),
            rows_out: r.counter("relation.rows_out"),
            scan_seq: r.counter("relation.scan.seq_scan"),
            scan_pk: r.counter("relation.scan.pk_lookup"),
            scan_index_eq: r.counter("relation.scan.index_eq"),
            scan_index_range: r.counter("relation.scan.index_range"),
            nest_builds: r.counter("relation.nest.builds"),
            nest_hits: r.counter("relation.nest.hits"),
            op_ns: LogicalPlan::OP_NAMES
                .map(|op| r.histogram(&format!("relation.op.{}_ns", op.to_ascii_lowercase()))),
        }
    })
}

// ---------------------------------------------------------------------
// Execution options
// ---------------------------------------------------------------------

/// The one knob of physical execution: which walker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Rows per expression-kernel invocation on the vectorized executor
    /// (the default path). `0` selects the row-at-a-time executor, the
    /// differential oracle; tests vary the size to land chunk boundaries
    /// mid-table.
    pub batch_size: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { batch_size: 1024 }
    }
}

/// A fully materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Empty result with a schema.
    pub fn empty(schema: Schema) -> Self {
        ResultSet {
            schema,
            rows: Vec::new(),
        }
    }

    /// Column index by (unqualified) name.
    pub fn column_index(&self, name: &str) -> RelResult<usize> {
        self.schema.index_of(name)
    }

    /// Iterate a single column's values.
    pub fn column_values(&self, name: &str) -> RelResult<Vec<&Value>> {
        let i = self.column_index(name)?;
        Ok(self.rows.iter().map(|r| &r[i]).collect())
    }

    /// First row, first column — for scalar queries (`SELECT COUNT(*) ...`).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }

    /// Render as an aligned text table (used by the example binaries to
    /// reproduce the paper's screenshots in terminal form).
    pub fn to_text_table(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = v.to_string();
                        if s.len() > widths[i] {
                            widths[i] = s.len();
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        let sep = |out: &mut String| {
            for w in &widths {
                let _ = write!(out, "+-{}-", "-".repeat(*w));
            }
            out.push_str("+\n");
        };
        sep(&mut out);
        for (i, h) in headers.iter().enumerate() {
            let _ = write!(out, "| {h:<width$} ", width = widths[i]);
        }
        out.push_str("|\n");
        sep(&mut out);
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                let _ = write!(out, "| {c:<width$} ", width = widths[i]);
            }
            out.push_str("|\n");
        }
        sep(&mut out);
        out
    }
}

/// Execute a logical plan against a catalog, materializing the result.
///
/// When metrics collection is on ([`cr_obs::enabled`]) this records the
/// query counter and latency histogram; otherwise the only overhead over
/// raw execution is one relaxed atomic load.
pub fn execute(plan: &LogicalPlan, catalog: &Catalog) -> RelResult<ResultSet> {
    execute_with(plan, catalog, &ExecOptions::default())
}

/// [`execute`] with explicit [`ExecOptions`]. Results are row-for-row
/// identical regardless of the options.
pub fn execute_with(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> RelResult<ResultSet> {
    // Tracing and slow-query capture need per-node spans and the EXPLAIN
    // ANALYZE tree, so run with the recording profile when either is
    // armed. Both checks are one relaxed load.
    if cr_obs::trace::enabled() || cr_obs::trace::slow_query_threshold_ns().is_some() {
        return Ok(execute_as::<OpProfile>(plan, catalog, opts)?.0);
    }
    Ok(execute_as::<()>(plan, catalog, opts)?.0)
}

/// Execute a plan with per-operator profiling: every physical operator is
/// wrapped with rows-out/elapsed accounting and the access path it chose,
/// yielding an `EXPLAIN ANALYZE`-style [`OpProfile`] tree next to the
/// normal [`ResultSet`]. Profiling cost is per plan *node* (one clock
/// read each), not per row, so it stays within a few percent of
/// [`execute`].
pub fn execute_instrumented(
    plan: &LogicalPlan,
    catalog: &Catalog,
) -> RelResult<(ResultSet, OpProfile)> {
    execute_instrumented_with(plan, catalog, &ExecOptions::default())
}

/// [`execute_instrumented`] with explicit [`ExecOptions`].
pub fn execute_instrumented_with(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> RelResult<(ResultSet, OpProfile)> {
    execute_as::<OpProfile>(plan, catalog, opts)
}

/// The one body behind every `execute*` entry point: open the
/// `relation.query` span (timed into `relation.query_ns`), pick the
/// walker, materialize rows, record the query metrics, close the
/// query-level profile (span attributes and slow-query capture).
fn execute_as<P: Profile>(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> RelResult<(ResultSet, P)> {
    let mut span = TraceSpan::child("relation.query").timed(&metrics().query_ns);
    let (rows, profile) = if opts.batch_size > 0 {
        let (batch, profile) = run_batched::<P>(plan, catalog, opts.batch_size)?;
        (batch.to_rows(), profile)
    } else {
        let (rows, profile) = run::<P>(plan, catalog)?;
        (rows.into_owned(), profile)
    };
    if cr_obs::enabled() {
        let m = metrics();
        m.queries.inc();
        m.rows_out.add(rows.len() as u64);
    }
    profile.close_query(&mut span, plan, rows.len());
    let result = ResultSet {
        schema: plan.schema().clone(),
        rows,
    };
    Ok((result, profile))
}

// ---------------------------------------------------------------------
// Profiling hooks
// ---------------------------------------------------------------------

/// An operator's name and detail strings, as EXPLAIN ANALYZE prints them.
type OpLabel = (String, Vec<String>);

/// What a walker records about the plan nodes it executes.
///
/// `()` records nothing: every hook is empty, label closures are never
/// called and no clock is read, so `run_batched::<()>` is the plain
/// executor. [`OpProfile`] times each node, names its trace span and
/// feeds the `relation.op.*_ns` histograms.
trait Profile: Sized {
    /// State opened before a node's inputs run.
    type Open;
    /// What [`Profile::label`] keeps of a node's [`OpLabel`].
    type Label;

    fn open() -> Self::Open;

    /// Build a node's label — `f` runs only if this profile keeps it.
    fn label(f: impl FnOnce() -> OpLabel) -> Self::Label;

    /// Finish one node, after its operator ran.
    fn close(
        open: Self::Open,
        label: Self::Label,
        plan: &LogicalPlan,
        rows_out: usize,
        children: Vec<Self>,
    ) -> Self;

    /// Finish the query whose root node is `self`; `span` is its
    /// `relation.query` span.
    fn close_query(&self, span: &mut TraceSpan<'_>, plan: &LogicalPlan, rows_out: usize);
}

impl Profile for () {
    type Open = ();
    type Label = ();

    fn open() {}

    fn label(_: impl FnOnce() -> OpLabel) {}

    fn close(_: (), _: (), _: &LogicalPlan, _: usize, _: Vec<()>) {}

    fn close_query(&self, _: &mut TraceSpan<'_>, _: &LogicalPlan, _: usize) {}
}

impl Profile for OpProfile {
    /// The span is opened before the node's inputs run so child operators
    /// nest under it in the trace; operator spans open as `"op"` and are
    /// renamed on close, once the operator (e.g. hash vs nested-loop
    /// join) is known.
    type Open = (TraceSpan<'static>, Instant);
    type Label = OpLabel;

    fn open() -> Self::Open {
        (TraceSpan::child("op"), Instant::now())
    }

    fn label(f: impl FnOnce() -> OpLabel) -> OpLabel {
        f()
    }

    fn close(
        (mut span, t0): Self::Open,
        (op, detail): OpLabel,
        plan: &LogicalPlan,
        rows_out: usize,
        children: Vec<OpProfile>,
    ) -> OpProfile {
        let elapsed = t0.elapsed();
        if cr_obs::enabled() {
            // Pre-resolved per-kind histogram: elapsed is already measured,
            // recording is one atomic bump (no Span, no registry lock).
            metrics().op_ns[plan.op_index()].record_duration(elapsed);
        }
        if span.is_recording() {
            span.set_name(&op);
            span.attr("rows_out", rows_out.to_string());
            if !detail.is_empty() {
                span.attr("detail", detail.join(" "));
            }
        }
        OpProfile {
            op,
            detail,
            rows_out,
            elapsed,
            children,
        }
    }

    /// Stamp the `relation.query` span and capture the request into the
    /// flight recorder's slow-query log (plan fingerprint plus the full
    /// EXPLAIN ANALYZE tree) if the root operator's time exceeds the
    /// configured threshold.
    fn close_query(&self, span: &mut TraceSpan<'_>, plan: &LogicalPlan, rows_out: usize) {
        let elapsed_ns = self.elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let fingerprint = plan.fingerprint();
        if span.is_recording() {
            span.attr("rows_out", rows_out.to_string());
            span.attr("fingerprint", format!("{fingerprint:016x}"));
        }
        if let Some(threshold) = cr_obs::trace::slow_query_threshold_ns() {
            if elapsed_ns >= threshold {
                cr_obs::trace::capture_slow_query(
                    "relation.query",
                    fingerprint,
                    elapsed_ns,
                    self.render(),
                );
            }
        }
    }
}

fn scan_label(
    table: &str,
    alias: &Option<String>,
    path: &AccessPath,
    filter: &Option<Expr>,
) -> OpLabel {
    let mut detail = vec![format!("access={path}")];
    if let Some(f) = filter {
        detail.push(format!("filter={f}"));
    }
    (scan_op(table, alias), detail)
}

fn scan_op(table: &str, alias: &Option<String>) -> String {
    match alias {
        Some(a) if a != table => format!("Scan {table} AS {a}"),
        _ => format!("Scan {table}"),
    }
}

fn join_label(kind: JoinKind, info: &JoinInfo) -> OpLabel {
    let mut detail = vec![format!("kind={kind:?}")];
    if info.hash {
        detail.push(format!("keys={}", info.keys));
        detail.push("build=right".to_owned());
        ("HashJoin".to_owned(), detail)
    } else {
        ("NestedLoopJoin".to_owned(), detail)
    }
}

/// Label for an operator EXPLAIN ANALYZE names as the plan does.
fn plan_label(plan: &LogicalPlan, detail: Vec<String>) -> OpLabel {
    (plan.op_name().to_owned(), detail)
}

fn aggregate_detail(group_by: &[Expr], aggs: &[AggExpr]) -> Vec<String> {
    vec![
        format!("group_by={}", group_by.len()),
        format!("aggs={}", aggs.len()),
    ]
}

fn limit_detail(limit: Option<usize>, offset: usize) -> Vec<String> {
    let mut detail = Vec::new();
    if let Some(n) = limit {
        detail.push(format!("limit={n}"));
    }
    if offset > 0 {
        detail.push(format!("offset={offset}"));
    }
    detail
}

fn extend_detail(rating: bool, key_col: usize, as_name: &str) -> Vec<String> {
    vec![
        format!("kind={}", if rating { "ratings" } else { "set" }),
        format!("key=#{key_col}"),
        format!("as={as_name}"),
    ]
}

fn recommend_detail(spec: &RecSpec) -> Vec<String> {
    let mut detail = vec![
        format!("method={}", spec.method.name()),
        format!("agg={}", spec.agg),
    ];
    if let Some(k) = spec.k {
        detail.push(format!("top={k}"));
    }
    if spec.exclude_seen.is_some() {
        detail.push("exclude_seen".to_owned());
    }
    detail
}

/// The row-at-a-time walker (the differential oracle). Returns `Cow` so
/// `LogicalPlan::Values` lends its literal rows instead of cloning them
/// on every run — copies happen only when an ancestor operator actually
/// consumes owned rows.
fn run<'p, P: Profile>(plan: &'p LogicalPlan, catalog: &Catalog) -> RelResult<(Cow<'p, [Row]>, P)> {
    let open = P::open();
    let (rows, label, children) = match plan {
        LogicalPlan::Scan {
            table,
            alias,
            projection,
            filter,
            ..
        } => {
            let (rows, path) =
                catalog.with_table(table, |t| scan_table(t, projection, filter))??;
            let label = P::label(|| scan_label(table, alias, &path, filter));
            (Cow::Owned(rows), label, Vec::new())
        }

        LogicalPlan::Filter { input, predicate } => {
            let (rows, child) = run::<P>(input, catalog)?;
            let rows = filter_rows(rows.into_owned(), predicate)?;
            let label = P::label(|| plan_label(plan, vec![format!("predicate={predicate}")]));
            (Cow::Owned(rows), label, vec![child])
        }

        LogicalPlan::Project { input, exprs, .. } => {
            let (rows, child) = run::<P>(input, catalog)?;
            let rows = project_rows(rows.into_owned(), exprs)?;
            let label = P::label(|| plan_label(plan, vec![format!("exprs={}", exprs.len())]));
            (Cow::Owned(rows), label, vec![child])
        }

        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => {
            let (left_rows, lchild) = run::<P>(left, catalog)?;
            let (right_rows, rchild) = run::<P>(right, catalog)?;
            let (rows, info) = join_rows(
                left_rows.into_owned(),
                right_rows.into_owned(),
                left.schema().len(),
                right.schema().len(),
                *kind,
                on,
            )?;
            let label = P::label(|| join_label(*kind, &info));
            (Cow::Owned(rows), label, vec![lchild, rchild])
        }

        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let (rows, child) = run::<P>(input, catalog)?;
            let out = aggregate_rows(&rows, group_by, aggs)?;
            let label = P::label(|| plan_label(plan, aggregate_detail(group_by, aggs)));
            (Cow::Owned(out), label, vec![child])
        }

        LogicalPlan::Sort { input, keys } => {
            let (rows, child) = run::<P>(input, catalog)?;
            let rows = sort_rows(rows.into_owned(), keys)?;
            let label = P::label(|| plan_label(plan, vec![format!("keys={}", keys.len())]));
            (Cow::Owned(rows), label, vec![child])
        }

        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let (rows, child) = run::<P>(input, catalog)?;
            let rows = limit_rows(rows.into_owned(), *limit, *offset);
            let label = P::label(|| plan_label(plan, limit_detail(*limit, *offset)));
            (Cow::Owned(rows), label, vec![child])
        }

        LogicalPlan::Values { rows, .. } => {
            let label = P::label(|| plan_label(plan, Vec::new()));
            (Cow::Borrowed(rows.as_slice()), label, Vec::new())
        }

        LogicalPlan::Union { left, right } => {
            let (rows, lchild) = run::<P>(left, catalog)?;
            let (right_rows, rchild) = run::<P>(right, catalog)?;
            let mut rows = rows.into_owned();
            match right_rows {
                Cow::Owned(mut r) => rows.append(&mut r),
                Cow::Borrowed(r) => rows.extend_from_slice(r),
            }
            let label = P::label(|| plan_label(plan, Vec::new()));
            (Cow::Owned(rows), label, vec![lchild, rchild])
        }

        LogicalPlan::Extend {
            input,
            related,
            key_col,
            rating,
            as_name,
            ..
        } => {
            let (input_rows, ichild) = run::<P>(input, catalog)?;
            let (related_rows, rchild) = run::<P>(related, catalog)?;
            let rows = extend_rows(input_rows.into_owned(), &related_rows, *key_col, *rating)?;
            let label = P::label(|| plan_label(plan, extend_detail(*rating, *key_col, as_name)));
            (Cow::Owned(rows), label, vec![ichild, rchild])
        }

        LogicalPlan::Recommend {
            target,
            comparator,
            spec,
            ..
        } => {
            let (target_rows, tchild) = run::<P>(target, catalog)?;
            let (comparator_rows, cchild) = run::<P>(comparator, catalog)?;
            let rows = recommend_rows(target_rows.into_owned(), &comparator_rows, spec)?;
            let label = P::label(|| plan_label(plan, recommend_detail(spec)));
            (Cow::Owned(rows), label, vec![tchild, cchild])
        }
    };
    let profile = P::close(open, label, plan, rows.len(), children);
    Ok((rows, profile))
}

// ---------------------------------------------------------------------
// Row-level operator implementations
// ---------------------------------------------------------------------

fn filter_rows(rows: Vec<Row>, predicate: &Expr) -> RelResult<Vec<Row>> {
    let mut out = Vec::with_capacity(rows.len() / 2);
    for r in rows {
        if predicate.eval_predicate(&r)? {
            out.push(r);
        }
    }
    Ok(out)
}

fn project_rows(rows: Vec<Row>, exprs: &[(Expr, String)]) -> RelResult<Vec<Row>> {
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        let mut projected = Vec::with_capacity(exprs.len());
        for (e, _) in exprs {
            projected.push(e.eval(&r)?);
        }
        out.push(projected);
    }
    Ok(out)
}

fn limit_rows(rows: Vec<Row>, limit: Option<usize>, offset: usize) -> Vec<Row> {
    let it = rows.into_iter().skip(offset);
    match limit {
        Some(n) => it.take(n).collect(),
        None => it.collect(),
    }
}

// ---------------------------------------------------------------------
// FlexRecs operators: Extend (ε) and Recommend (▷)
// ---------------------------------------------------------------------

/// Treat a value as a scalar for the FlexRecs operators: nested
/// Set/Ratings values are not scalars; everything else (including NULL)
/// is. Mirrors the workflow layer's `Datum::as_scalar`.
fn as_rec_scalar(v: &Value) -> Option<&Value> {
    if v.is_nested() {
        None
    } else {
        Some(v)
    }
}

/// [`NestMap::build`] over materialized rows (`[fk, key]` for Set,
/// `[fk, key, rating]` for Ratings).
fn build_nest_map(related_rows: &[Row], rating: bool) -> RelResult<NestMap> {
    NestMap::build(
        related_rows.iter().map(|row| {
            (
                row[0].clone(),
                row[1].clone(),
                if rating { Some(row[2].clone()) } else { None },
            )
        }),
        rating,
    )
}

/// The nested attribute an extend key maps to (empty when unmatched).
fn nest_probe(map: &NestMap, key: &Value) -> RelResult<Value> {
    let key =
        as_rec_scalar(key).ok_or_else(|| RelError::Invalid("extend key not scalar".into()))?;
    Ok(map.probe(key))
}

fn extend_rows(
    input_rows: Vec<Row>,
    related_rows: &[Row],
    key_col: usize,
    rating: bool,
) -> RelResult<Vec<Row>> {
    let map = build_nest_map(related_rows, rating)?;
    let mut out = Vec::with_capacity(input_rows.len());
    for mut row in input_rows {
        let nested = nest_probe(&map, &row[key_col])?;
        row.push(nested);
        out.push(row);
    }
    Ok(out)
}

/// One target's scores against the comparators, accumulated in
/// comparator order. Both executors fold through this, so a target's
/// final score is the same float on either path.
#[derive(Debug, Clone, Copy)]
struct ScoreAcc {
    sum: f64,
    weight: f64,
    n: usize,
    max: f64,
}

impl ScoreAcc {
    const EMPTY: ScoreAcc = ScoreAcc {
        sum: 0.0,
        weight: 0.0,
        n: 0,
        max: f64::NEG_INFINITY,
    };

    fn add(&mut self, score: f64, weight: f64) {
        self.sum += score * weight;
        self.weight += weight;
        self.n += 1;
        self.max = self.max.max(score);
    }

    /// The aggregate score; `None` when no comparator matched or the
    /// score is ≤ 0.
    fn finish(&self, agg: &RecAggPlan) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let score = match agg {
            RecAggPlan::Avg => self.sum / self.n as f64,
            RecAggPlan::Sum => self.sum,
            RecAggPlan::Max => self.max,
            RecAggPlan::WeightedAvg { .. } => {
                if self.weight <= 0.0 {
                    return None;
                }
                self.sum / self.weight
            }
        };
        if score <= 0.0 {
            return None;
        }
        Some(score)
    }
}

/// A comparator's weight under `WeightedAvg` (its upstream score cell).
fn rec_weight(cell: &Value) -> f64 {
    match as_rec_scalar(cell) {
        Some(Value::Float(f)) => *f,
        Some(Value::Int(n)) => *n as f64,
        _ => 0.0,
    }
}

/// Library similarity of one target cell to one comparator cell; `None`
/// when a cell has the wrong shape for the method. `RatingLookup` is not
/// a pairwise similarity — each executor resolves it through its own
/// lookup structure.
fn pair_score(method: &RecMethod, t: &Value, c: &Value) -> Option<f64> {
    match method {
        RecMethod::Text(sim) => match (as_rec_scalar(t), as_rec_scalar(c)) {
            (Some(Value::Text(a)), Some(Value::Text(b))) => Some(sim.score(a, b)),
            _ => None,
        },
        RecMethod::Set(sim) => match (t.as_set(), c.as_set()) {
            (Some(a), Some(b)) => Some(sim.score(a, b)),
            _ => None,
        },
        RecMethod::Ratings { sim, min_common } => match (t.as_ratings(), c.as_ratings()) {
            (Some(a), Some(b)) => Some(sim.score(a, b, *min_common)),
            _ => None,
        },
        RecMethod::RatingLookup => None,
    }
}

/// Add the keys a nested cell carries to the `exclude_seen` set.
fn extend_seen<'a>(seen: &mut HashSet<&'a Value>, cell: &'a Value) {
    match cell {
        Value::Set(items) => seen.extend(items.iter()),
        Value::Ratings(r) => seen.extend(r.iter().map(|(k, _)| k)),
        _ => {}
    }
}

/// One comparator's key → rating map (`RatingLookup`); a duplicated key
/// keeps its last rating.
fn rating_lookup(cell: &Value) -> HashMap<&Value, f64> {
    cell.as_ratings()
        .map(|r| r.iter().map(|(k, v)| (k, *v)).collect())
        .unwrap_or_default()
}

/// Precomputed per-run state for the row recommend operator: the
/// exclusion key set and (for `RatingLookup`) one key → rating map per
/// comparator.
struct RecContext<'a> {
    seen: HashSet<&'a Value>,
    lookup: Vec<HashMap<&'a Value, f64>>,
}

fn build_rec_context<'a>(comparator_rows: &'a [Row], spec: &RecSpec) -> RecContext<'a> {
    let mut seen: HashSet<&Value> = HashSet::new();
    if let Some((_, c_idx)) = spec.exclude_seen {
        for c in comparator_rows {
            extend_seen(&mut seen, &c[c_idx]);
        }
    }
    let lookup = if matches!(spec.method, RecMethod::RatingLookup) {
        comparator_rows
            .iter()
            .map(|c| rating_lookup(&c[spec.comparator_col]))
            .collect()
    } else {
        Vec::new()
    };
    RecContext { seen, lookup }
}

/// Score one target row against every comparator row. Returns `None` when
/// the target is excluded, matched no comparator, or scored ≤ 0.
fn score_target(
    mut t: Row,
    comparator_rows: &[Row],
    spec: &RecSpec,
    ctx: &RecContext<'_>,
) -> Option<(f64, Row)> {
    if let Some((t_idx, _)) = spec.exclude_seen {
        if let Some(v) = as_rec_scalar(&t[t_idx]) {
            if ctx.seen.contains(v) {
                return None;
            }
        }
    }
    let mut acc = ScoreAcc::EMPTY;
    for (i, c) in comparator_rows.iter().enumerate() {
        let score = match &spec.method {
            RecMethod::RatingLookup => {
                as_rec_scalar(&t[spec.target_col]).and_then(|key| ctx.lookup[i].get(key).copied())
            }
            method => pair_score(method, &t[spec.target_col], &c[spec.comparator_col]),
        };
        if let Some(s) = score {
            let weight = match spec.agg {
                RecAggPlan::WeightedAvg { weight_col } => rec_weight(&c[weight_col]),
                _ => 1.0,
            };
            acc.add(s, weight);
        }
    }
    let final_score = acc.finish(&spec.agg)?;
    t.push(Value::float(final_score));
    Some((final_score, t))
}

/// Order of two scored targets: score descending, ties broken by the
/// first column when both are scalar (`first_cols`, consulted only on a
/// tie). Callers sort stably, so input order settles what remains.
fn rec_order<'a>(
    (a, b): (f64, f64),
    first_cols: impl FnOnce() -> (Option<Cow<'a, Value>>, Option<Cow<'a, Value>>),
) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    b.partial_cmp(&a).unwrap_or(Ordering::Equal).then_with(|| {
        let (x, y) = first_cols();
        match (
            x.as_deref().and_then(as_rec_scalar),
            y.as_deref().and_then(as_rec_scalar),
        ) {
            (Some(x), Some(y)) => x.total_cmp(y),
            _ => Ordering::Equal,
        }
    })
}

/// Sort scored targets ([`rec_order`]) and apply top-k.
fn finish_recommend(mut scored: Vec<(f64, Row)>, spec: &RecSpec) -> Vec<Row> {
    fn first(row: &Row) -> Option<Cow<'_, Value>> {
        row.first().map(Cow::Borrowed)
    }
    scored.sort_by(|a, b| rec_order((a.0, b.0), || (first(&a.1), first(&b.1))));
    if let Some(k) = spec.k {
        scored.truncate(k);
    }
    scored.into_iter().map(|(_, r)| r).collect()
}

fn recommend_rows(
    target_rows: Vec<Row>,
    comparator_rows: &[Row],
    spec: &RecSpec,
) -> RelResult<Vec<Row>> {
    let ctx = build_rec_context(comparator_rows, spec);
    let mut scored = Vec::new();
    for t in target_rows {
        if let Some(s) = score_target(t, comparator_rows, spec, &ctx) {
            scored.push(s);
        }
    }
    Ok(finish_recommend(scored, spec))
}

// ---------------------------------------------------------------------
// Scan + access-path selection
// ---------------------------------------------------------------------

/// How a scan will fetch rows.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    SeqScan,
    /// Primary-key point lookup with the given key.
    PkLookup(Vec<Value>),
    /// Secondary-index equality lookup: (index name, key).
    IndexEq(String, Vec<Value>),
    /// Secondary B-tree index range scan on its leading column.
    IndexRange {
        index: String,
        lower: Bound<Value>,
        upper: Bound<Value>,
    },
}

impl fmt::Display for AccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn key(vals: &[Value]) -> String {
            vals.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        }
        fn bound(b: &Bound<Value>, open: &str, close: &str) -> String {
            match b {
                Bound::Included(v) => format!("{open}={v}"),
                Bound::Excluded(v) => format!("{open}{v}"),
                Bound::Unbounded => close.to_owned(),
            }
        }
        match self {
            AccessPath::SeqScan => write!(f, "SeqScan"),
            AccessPath::PkLookup(k) => write!(f, "PkLookup[{}]", key(k)),
            AccessPath::IndexEq(name, k) => write!(f, "IndexEq({name})[{}]", key(k)),
            AccessPath::IndexRange {
                index,
                lower,
                upper,
            } => write!(
                f,
                "IndexRange({index})[{}..{}]",
                bound(lower, ">", ""),
                bound(upper, "<", "")
            ),
        }
    }
}

/// Decide the access path for a scan's pushed-down filter. Public so that
/// benches and tests can assert index usage (ablation A3 in DESIGN.md).
pub fn choose_access_path(table: &Table, filter: &Option<Expr>) -> AccessPath {
    let Some(filter) = filter else {
        return AccessPath::SeqScan;
    };
    let conjuncts = filter.split_conjunction();

    // 1. Full primary-key equality?
    let pk = table.pk_columns();
    if !pk.is_empty() {
        let mut key: Vec<Option<Value>> = vec![None; pk.len()];
        for c in &conjuncts {
            if let Some((col, v)) = as_col_eq_literal(c) {
                if let Some(pos) = pk.iter().position(|&p| p == col) {
                    key[pos] = Some(v);
                }
            }
        }
        if key.iter().all(Option::is_some) {
            return AccessPath::PkLookup(key.into_iter().map(Option::unwrap).collect());
        }
    }

    // 2. Single-column secondary index equality?
    for c in &conjuncts {
        if let Some((col, v)) = as_col_eq_literal(c) {
            if let Some(idx) = table.index_on_column(col) {
                if idx.columns.len() == 1 {
                    return AccessPath::IndexEq(idx.name.clone(), vec![v]);
                }
            }
        }
    }

    // 3. Range on a B-tree index's leading column?
    let mut range: HashMap<usize, (Bound<Value>, Bound<Value>)> = HashMap::new();
    for c in &conjuncts {
        if let Some((col, op, v)) = as_col_cmp_literal(c) {
            let entry = range
                .entry(col)
                .or_insert((Bound::Unbounded, Bound::Unbounded));
            match op {
                BinOp::Gt => entry.0 = Bound::Excluded(v),
                BinOp::GtEq => entry.0 = Bound::Included(v),
                BinOp::Lt => entry.1 = Bound::Excluded(v),
                BinOp::LtEq => entry.1 = Bound::Included(v),
                _ => {}
            }
        }
    }
    for (col, (lo, hi)) in range {
        if matches!((&lo, &hi), (Bound::Unbounded, Bound::Unbounded)) {
            continue;
        }
        if let Some(idx) = table.index_on_column(col) {
            if idx.kind() == crate::index::IndexKind::BTree && idx.columns.len() == 1 {
                return AccessPath::IndexRange {
                    index: idx.name.clone(),
                    lower: lo,
                    upper: hi,
                };
            }
        }
    }

    AccessPath::SeqScan
}

fn as_col_eq_literal(e: &Expr) -> Option<(usize, Value)> {
    if let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = e
    {
        match (&**left, &**right) {
            (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) => {
                return Some((*c, v.clone()))
            }
            _ => {}
        }
    }
    None
}

fn as_col_cmp_literal(e: &Expr) -> Option<(usize, BinOp, Value)> {
    if let Expr::Binary { op, left, right } = e {
        if !op.is_comparison() {
            return None;
        }
        match (&**left, &**right) {
            (Expr::Column(c), Expr::Literal(v)) => return Some((*c, *op, v.clone())),
            (Expr::Literal(v), Expr::Column(c)) => {
                // Flip the comparison: v < col  ≡  col > v.
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::LtEq => BinOp::GtEq,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::GtEq => BinOp::LtEq,
                    other => *other,
                };
                return Some((*c, flipped, v.clone()));
            }
            _ => {}
        }
    }
    None
}

/// Scan a table, returning the matching rows and the access path that
/// served them (surfaced in EXPLAIN ANALYZE output).
fn scan_table(
    table: &Table,
    projection: &Option<Vec<usize>>,
    filter: &Option<Expr>,
) -> RelResult<(Vec<Row>, AccessPath)> {
    let path = choose_access_path(table, filter);
    if cr_obs::enabled() {
        let m = metrics();
        match &path {
            AccessPath::SeqScan => m.scan_seq.inc(),
            AccessPath::PkLookup(_) => m.scan_pk.inc(),
            AccessPath::IndexEq(..) => m.scan_index_eq.inc(),
            AccessPath::IndexRange { .. } => m.scan_index_range.inc(),
        }
    }
    let project = |r: &Row| -> Row {
        match projection {
            None => r.clone(),
            Some(cols) => cols.iter().map(|&i| r[i].clone()).collect(),
        }
    };
    let passes = |r: &Row| -> RelResult<bool> {
        match filter {
            Some(f) => f.eval_predicate(r),
            None => Ok(true),
        }
    };
    let mut out = Vec::new();
    match &path {
        AccessPath::SeqScan => {
            for (_, r) in table.scan() {
                if passes(r)? {
                    out.push(project(r));
                }
            }
        }
        AccessPath::PkLookup(key) => {
            if let Some(r) = table.get_by_pk(key) {
                if passes(r)? {
                    out.push(project(r));
                }
            }
        }
        AccessPath::IndexEq(name, key) => {
            let idx = table
                .index(name)
                .ok_or_else(|| RelError::UnknownIndex(name.clone()))?;
            if let Some(rids) = idx.get(key) {
                for &rid in rids {
                    if let Some(r) = table.get(rid) {
                        if passes(r)? {
                            out.push(project(r));
                        }
                    }
                }
            }
        }
        AccessPath::IndexRange {
            index,
            lower,
            upper,
        } => {
            let idx = table
                .index(index)
                .ok_or_else(|| RelError::UnknownIndex(index.clone()))?;
            let lo_key = match &lower {
                Bound::Included(v) => Bound::Included(vec![v.clone()]),
                Bound::Excluded(v) => Bound::Excluded(vec![v.clone()]),
                Bound::Unbounded => Bound::Unbounded,
            };
            let hi_key = match &upper {
                Bound::Included(v) => Bound::Included(vec![v.clone()]),
                Bound::Excluded(v) => Bound::Excluded(vec![v.clone()]),
                Bound::Unbounded => Bound::Unbounded,
            };
            let lo_ref = match &lo_key {
                Bound::Included(k) => Bound::Included(k),
                Bound::Excluded(k) => Bound::Excluded(k),
                Bound::Unbounded => Bound::Unbounded,
            };
            let hi_ref = match &hi_key {
                Bound::Included(k) => Bound::Included(k),
                Bound::Excluded(k) => Bound::Excluded(k),
                Bound::Unbounded => Bound::Unbounded,
            };
            for rid in idx.range(lo_ref, hi_ref) {
                if let Some(r) = table.get(rid) {
                    if passes(r)? {
                        out.push(project(r));
                    }
                }
            }
        }
    }
    Ok((out, path))
}

// ---------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------

/// Extract equi-join keys from a join predicate bound over the concatenated
/// schema: conjuncts of the form `left_col = right_col`. Returns
/// `(left_keys, right_keys_relative, residual)`.
fn extract_equi_keys(on: &Expr, left_width: usize) -> (Vec<usize>, Vec<usize>, Vec<Expr>) {
    let mut lk = Vec::new();
    let mut rk = Vec::new();
    let mut residual = Vec::new();
    for c in on.split_conjunction() {
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = &c
        {
            if let (Expr::Column(a), Expr::Column(b)) = (&**left, &**right) {
                let (a, b) = (*a, *b);
                if a < left_width && b >= left_width {
                    lk.push(a);
                    rk.push(b - left_width);
                    continue;
                }
                if b < left_width && a >= left_width {
                    lk.push(b);
                    rk.push(a - left_width);
                    continue;
                }
            }
        }
        residual.push(c);
    }
    (lk, rk, residual)
}

/// Which algorithm a join used (EXPLAIN ANALYZE annotation).
struct JoinInfo {
    hash: bool,
    keys: usize,
}

fn join_rows(
    left_rows: Vec<Row>,
    right_rows: Vec<Row>,
    left_width: usize,
    right_width: usize,
    kind: JoinKind,
    on: &Expr,
) -> RelResult<(Vec<Row>, JoinInfo)> {
    let (lk, rk, residual) = extract_equi_keys(on, left_width);
    let residual = if residual.is_empty() {
        None
    } else {
        Some(Expr::conjoin(residual))
    };

    let mut out = Vec::new();
    if lk.is_empty() {
        // Nested-loop join on the full predicate.
        for l in &left_rows {
            let mut matched = false;
            for r in &right_rows {
                let mut combined = Vec::with_capacity(left_width + right_width);
                combined.extend_from_slice(l);
                combined.extend_from_slice(r);
                if on.eval_predicate(&combined)? {
                    matched = true;
                    out.push(combined);
                }
            }
            if !matched && kind == JoinKind::LeftOuter {
                let mut combined = Vec::with_capacity(left_width + right_width);
                combined.extend_from_slice(l);
                combined.extend(std::iter::repeat_n(Value::Null, right_width));
                out.push(combined);
            }
        }
    } else {
        // Hash join: build on the right, probe from the left.
        let mut build: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(right_rows.len());
        for (i, r) in right_rows.iter().enumerate() {
            let key: Vec<Value> = rk.iter().map(|&k| r[k].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue; // NULL keys never join
            }
            build.entry(key).or_default().push(i);
        }
        for l in &left_rows {
            let key: Vec<Value> = lk.iter().map(|&k| l[k].clone()).collect();
            let mut matched = false;
            if !key.iter().any(Value::is_null) {
                if let Some(idxs) = build.get(&key) {
                    for &i in idxs {
                        let mut combined = Vec::with_capacity(left_width + right_width);
                        combined.extend_from_slice(l);
                        combined.extend_from_slice(&right_rows[i]);
                        let ok = match &residual {
                            Some(p) => p.eval_predicate(&combined)?,
                            None => true,
                        };
                        if ok {
                            matched = true;
                            out.push(combined);
                        }
                    }
                }
            }
            if !matched && kind == JoinKind::LeftOuter {
                let mut combined = Vec::with_capacity(left_width + right_width);
                combined.extend_from_slice(l);
                combined.extend(std::iter::repeat_n(Value::Null, right_width));
                out.push(combined);
            }
        }
    }
    Ok((
        out,
        JoinInfo {
            hash: !lk.is_empty(),
            keys: lk.len(),
        },
    ))
}

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    /// Int inputs accumulate exactly in `int`, wrapping like scalar `+`;
    /// the first non-Int input moves the total into `float` for good.
    Sum {
        int: i64,
        float: Option<f64>,
        any: bool,
    },
    Avg {
        total: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    /// DISTINCT wrapper: collected values, finished by the inner fn.
    Distinct(Vec<Value>, AggFn),
}

impl AggState {
    fn new(a: &AggExpr) -> AggState {
        if a.distinct {
            return AggState::Distinct(Vec::new(), a.func);
        }
        match a.func {
            AggFn::Count | AggFn::CountStar => AggState::Count(0),
            AggFn::Sum => AggState::Sum {
                int: 0,
                float: None,
                any: false,
            },
            AggFn::Avg => AggState::Avg { total: 0.0, n: 0 },
            AggFn::Min => AggState::Min(None),
            AggFn::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: Value, is_star: bool) -> RelResult<()> {
        match self {
            AggState::Count(n) => {
                if is_star || !v.is_null() {
                    *n += 1;
                }
            }
            AggState::Sum { int, float, any } => {
                if !v.is_null() {
                    match (&v, float.as_mut()) {
                        (Value::Int(n), None) => *int = int.wrapping_add(*n),
                        (_, Some(f)) => *f += v.as_float()?,
                        (_, None) => *float = Some(*int as f64 + v.as_float()?),
                    }
                    *any = true;
                }
            }
            AggState::Avg { total, n } => {
                if !v.is_null() {
                    *total += v.as_float()?;
                    *n += 1;
                }
            }
            AggState::Min(cur) => {
                if !v.is_null() && cur.as_ref().is_none_or(|c| v < *c) {
                    *cur = Some(v);
                }
            }
            AggState::Max(cur) => {
                if !v.is_null() && cur.as_ref().is_none_or(|c| v > *c) {
                    *cur = Some(v);
                }
            }
            AggState::Distinct(vals, _) => {
                if is_star || !v.is_null() {
                    vals.push(v);
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> RelResult<Value> {
        Ok(match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum { any: false, .. } => Value::Null,
            AggState::Sum {
                float: Some(total), ..
            } => Value::float(total),
            AggState::Sum { int, .. } => Value::Int(int),
            AggState::Avg { total, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::float(total / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::Distinct(mut vals, func) => {
                vals.sort();
                vals.dedup();
                let mut inner = AggState::new(&AggExpr {
                    func,
                    arg: Expr::lit(0i64),
                    distinct: false,
                    name: String::new(),
                });
                for v in vals {
                    inner.update(v, false)?;
                }
                inner.finish()?
            }
        })
    }
}

fn aggregate_rows(rows: &[Row], group_by: &[Expr], aggs: &[AggExpr]) -> RelResult<Vec<Row>> {
    let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    // Preserve first-seen group order for deterministic output.
    let mut order: Vec<Vec<Value>> = Vec::new();
    for r in rows {
        let mut key = Vec::with_capacity(group_by.len());
        for g in group_by {
            key.push(g.eval(r)?);
        }
        let states = match groups.get_mut(&key) {
            Some(s) => s,
            None => {
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| aggs.iter().map(AggState::new).collect())
            }
        };
        for (state, a) in states.iter_mut().zip(aggs) {
            let is_star = a.func == AggFn::CountStar;
            let v = if is_star {
                Value::Int(1)
            } else {
                a.arg.eval(r)?
            };
            state.update(v, is_star)?;
        }
    }
    // Global aggregate over empty input still yields one row.
    if groups.is_empty() && group_by.is_empty() {
        let row = aggs
            .iter()
            .map(|a| AggState::new(a).finish())
            .collect::<RelResult<Row>>()?;
        return Ok(vec![row]);
    }
    let mut out = Vec::with_capacity(groups.len());
    for key in order {
        let states = groups.remove(&key).expect("group recorded in order");
        let mut row = key;
        for s in states {
            row.push(s.finish()?);
        }
        out.push(row);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------

fn sort_rows(mut rows: Vec<Row>, keys: &[SortKey]) -> RelResult<Vec<Row>> {
    // Pre-compute key tuples so expression evaluation happens O(n), not
    // O(n log n); then sort indices and gather.
    let mut keyed: Vec<(Vec<Value>, usize)> = Vec::with_capacity(rows.len());
    for (i, r) in rows.iter().enumerate() {
        let mut k = Vec::with_capacity(keys.len());
        for sk in keys {
            k.push(sk.expr.eval(r)?);
        }
        keyed.push((k, i));
    }
    keyed.sort_by(|(a, ai), (b, bi)| {
        for (i, sk) in keys.iter().enumerate() {
            let ord = a[i].total_cmp(&b[i]);
            let ord = if sk.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        ai.cmp(bi) // stable tiebreak
    });
    let mut out = Vec::with_capacity(rows.len());
    for (_, i) in keyed {
        out.push(std::mem::take(&mut rows[i]));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Vectorized (batch-at-a-time) operators
//
// Operators exchange `Batch`es: `Arc`-shared typed columns plus a
// selection vector. Filters narrow the selection instead of copying
// rows; projections run `Expr::eval_batch` kernels over the selected
// slots only. Row materialization happens once, at the `ResultSet`
// boundary. Results are byte-identical to the row executor above (the
// differential oracle) — `tests/batch_differential.rs` holds the line.
// ---------------------------------------------------------------------

/// Evaluate `predicate` over the batch's live rows in `batch_size`-row
/// chunks; returns the surviving *view* positions plus the chunk count.
/// SQL WHERE semantics: NULL and false both drop the row, a non-boolean
/// result is a type error (exactly [`Expr::eval_predicate`]).
fn filter_selection(
    batch: &Batch,
    predicate: &Expr,
    batch_size: usize,
) -> RelResult<(Vec<u32>, usize)> {
    let parts = batch.slots().chunks(batch_size);
    let mut keep = Vec::new();
    let mut base = 0u32;
    for part in &parts {
        let ec = predicate.eval_batch(batch.columns(), *part)?;
        keep_true(&ec, part.len(), base, &mut keep)?;
        base += part.len() as u32;
    }
    Ok((keep, parts.len()))
}

/// Push `base + k` for each of the `n` predicate results that is TRUE,
/// read straight from Bool cells and validity. Other storage is the
/// `Generic` fallback: NULLs drop, any other value is the row path's
/// type error.
fn keep_true(ec: &EvalCol, n: usize, base: u32, keep: &mut Vec<u32>) -> RelResult<()> {
    let v = ec.vals();
    let Some(cells) = v.bools() else {
        for k in 0..n {
            match v.value_at(k) {
                Value::Bool(true) => keep.push(base + k as u32),
                Value::Bool(false) | Value::Null => {}
                other => {
                    return Err(RelError::TypeMismatch {
                        expected: "Bool".into(),
                        found: other.type_name().into(),
                    })
                }
            }
        }
        return Ok(());
    };
    let at = |k: usize| base + k as u32;
    match cells {
        Acc::Dense {
            data,
            validity: None,
        } => keep.extend((0..n).filter(|&k| data[k]).map(at)),
        Acc::Dense {
            data,
            validity: Some(valid),
        } => keep.extend((0..n).filter(|&k| data[k] && valid[k]).map(at)),
        Acc::Const(Some(true)) => keep.extend((0..n).map(at)),
        cells => keep.extend((0..n).filter(|&k| cells.get(k) == Some(true)).map(at)),
    }
    Ok(())
}

/// Evaluate the projection kernels over the selected slots, producing a
/// dense batch; chunks concatenate typed. A projection that only picks
/// columns evaluates nothing: it shares the input column `Arc`s and keeps
/// the selection vector.
fn project_batched(
    batch: &Batch,
    exprs: &[(Expr, String)],
    batch_size: usize,
) -> RelResult<(Batch, usize)> {
    let cols = batch.columns();
    let chunk = batch_size.max(1);
    let batches = batch.len().div_ceil(chunk);
    let picks: Option<Vec<Arc<BatchColumn>>> = exprs
        .iter()
        .map(|(e, _)| match e {
            Expr::Column(i) => cols.get(*i).cloned(),
            _ => None,
        })
        .collect();
    if let Some(picked) = picks {
        return Ok((batch.with_columns(picked), batches));
    }
    let slots = batch.slots();
    let mut out: Vec<Arc<BatchColumn>> = Vec::with_capacity(exprs.len());
    for (e, _) in exprs {
        if let Expr::Column(i) = e {
            if *i < cols.len() && !batch.has_selection() {
                out.push(Arc::clone(&cols[*i]));
                continue;
            }
        }
        let mut parts = slots
            .chunks(chunk)
            .into_iter()
            .map(|part| Ok(e.eval_batch(cols, part)?.into_column(part.len())))
            .collect::<RelResult<Vec<_>>>()?;
        out.push(Arc::new(match parts.len() {
            1 => parts.pop().expect("one part"),
            _ => BatchColumn::concat(&parts),
        }));
    }
    Ok((Batch::new(out, slots.len()), batches))
}

/// Batched scan. Sequential scans serve the table's cached columnar image
/// ([`Table::columnar`]) and fuse the pushed-down filter (selection
/// vector) and projection (column picking) into it without copying a
/// single row. Index-served paths touch few rows, so they reuse the row
/// machinery and transpose.
fn scan_batched(
    t: &Table,
    projection: &Option<Vec<usize>>,
    filter: &Option<Expr>,
    batch_size: usize,
) -> RelResult<(Batch, AccessPath, usize)> {
    let path = choose_access_path(t, filter);
    if matches!(path, AccessPath::SeqScan) {
        if cr_obs::enabled() {
            metrics().scan_seq.inc();
        }
        let cols = t.columnar();
        let mut batch = Batch::new((*cols).clone(), t.len());
        let mut batches = 1;
        if let Some(f) = filter {
            let (keep, nb) = filter_selection(&batch, f, batch_size)?;
            batches = nb;
            batch = batch.select(keep);
        }
        if let Some(idx) = projection {
            let projected = idx.iter().map(|&i| Arc::clone(batch.column(i))).collect();
            batch = batch.with_columns(projected);
        }
        Ok((batch, path, batches))
    } else {
        let (rows, path) = scan_table(t, projection, filter)?;
        let width = projection
            .as_ref()
            .map_or(t.schema().columns().len(), Vec::len);
        Ok((Batch::from_rows(&rows, width), path, 1))
    }
}

/// Column `c` of `batch` over its live rows, read in place.
fn live_column(batch: &Batch, c: usize) -> Vals<'_> {
    Vals::View {
        col: batch.column(c),
        slots: batch.slots(),
    }
}

/// An expression's values over a batch's live rows: a plain column is
/// read in place through the selection, anything else is evaluated once
/// into `slot`, which the view borrows.
fn operand<'a>(batch: &'a Batch, e: &Expr, slot: &'a mut Option<EvalCol>) -> RelResult<Vals<'a>> {
    if let Expr::Column(i) = e {
        if *i < batch.width() {
            return Ok(live_column(batch, *i));
        }
    }
    Ok(slot
        .insert(e.eval_batch(batch.columns(), batch.slots())?)
        .vals())
}

/// Batched hash join: group the right rows by key ([`KeyTable`] over the
/// key columns, hashed and compared in place), probe the left view in
/// order, then gather both sides' output columns by match index (typed
/// gathers; LEFT OUTER's NULL extension gathers `NULL_SLOT`).
/// Non-equi predicates use the row nested-loop join and transpose.
fn join_batched(
    left: &Batch,
    right: &Batch,
    kind: JoinKind,
    on: &Expr,
) -> RelResult<(Batch, JoinInfo)> {
    let (left_width, right_width) = (left.width(), right.width());
    let (lk, rk, residual) = extract_equi_keys(on, left_width);
    if lk.is_empty() {
        let (rows, info) = join_rows(
            left.to_rows(),
            right.to_rows(),
            left_width,
            right_width,
            kind,
            on,
        )?;
        return Ok((Batch::from_rows(&rows, left_width + right_width), info));
    }
    let residual = if residual.is_empty() {
        None
    } else {
        Some(Expr::conjoin(residual))
    };
    // Build: each right row's group, then the groups' rows laid out
    // contiguously in input order (`rows[start[g]..start[g + 1]]`).
    let rkey = Key::new(rk.iter().map(|&c| live_column(right, c)), right.len());
    let rhash = rkey.hashes();
    let mut table = KeyTable::default();
    let mut group = vec![u32::MAX; right.len()];
    for (j, g) in group.iter_mut().enumerate() {
        if !rkey.has_null(j) {
            // NULL keys never join.
            *g = table.find_or_insert(rhash[j], j, |f| rkey.eq(f, &rkey, j));
        }
    }
    let mut start = vec![0usize; table.len() + 1];
    for &g in group.iter().filter(|&&g| g != u32::MAX) {
        start[g as usize + 1] += 1;
    }
    for g in 0..table.len() {
        start[g + 1] += start[g];
    }
    let mut rows = vec![0u32; start[table.len()]];
    let mut fill = start.clone();
    for (j, &g) in group.iter().enumerate().filter(|(_, &g)| g != u32::MAX) {
        rows[fill[g as usize]] = j as u32;
        fill[g as usize] += 1;
    }
    let lkey = Key::new(lk.iter().map(|&c| live_column(left, c)), left.len());
    let mut pairs: Vec<(u32, Option<u32>)> = Vec::new();
    for (j, h) in lkey.hashes().into_iter().enumerate() {
        let mut matched = false;
        let hit = match lkey.has_null(j) {
            true => None,
            false => table.find(h, |f| rkey.eq(f, &lkey, j)),
        };
        let matches = hit.map_or(&[][..], |g| &rows[start[g as usize]..start[g as usize + 1]]);
        for &i in matches {
            let ok = match &residual {
                Some(p) => {
                    let mut combined = left.row(j);
                    combined.extend(right.row(i as usize));
                    p.eval_predicate(&combined)?
                }
                None => true,
            };
            if ok {
                matched = true;
                pairs.push((j as u32, Some(i)));
            }
        }
        if !matched && kind == JoinKind::LeftOuter {
            pairs.push((j as u32, None));
        }
    }
    let lidx: Vec<u32> = pairs
        .iter()
        .map(|&(j, _)| left.base_index(j as usize) as u32)
        .collect();
    let mut out: Vec<Arc<BatchColumn>> = Vec::with_capacity(left_width + right_width);
    for c in 0..left_width {
        out.push(Arc::new(left.column(c).gather(&lidx)));
    }
    let ridx: Vec<u32> = pairs
        .iter()
        .map(|&(_, r)| r.map_or(NULL_SLOT, |i| right.base_index(i as usize) as u32))
        .collect();
    for c in 0..right_width {
        out.push(Arc::new(right.column(c).gather(&ridx)));
    }
    Ok((
        Batch::new(out, pairs.len()),
        JoinInfo {
            hash: true,
            keys: lk.len(),
        },
    ))
}

/// Batched aggregation: group keys and aggregate arguments are read in
/// place (plain columns through the selection, other expressions as
/// kernels), and rows get dense group ids from a [`KeyTable`] over the key
/// columns (first-seen order). Each group's key is a typed gather of its
/// first row. `COUNT`, and `SUM`/`AVG`/`MIN`/`MAX` over Int and Float
/// (`MIN`/`MAX` over Text too), accumulate from typed cells with
/// [`AggState`]'s rules; `DISTINCT` and other arguments feed `AggState`
/// itself, row by row.
fn aggregate_batched(batch: &Batch, group_by: &[Expr], aggs: &[AggExpr]) -> RelResult<Batch> {
    let n = batch.len();
    let mut gslots: Vec<Option<EvalCol>> = group_by.iter().map(|_| None).collect();
    let mut aslots: Vec<Option<EvalCol>> = aggs.iter().map(|_| None).collect();
    let gvals = group_by
        .iter()
        .zip(&mut gslots)
        .map(|(g, slot)| operand(batch, g, slot))
        .collect::<RelResult<Vec<_>>>()?;
    let avals = aggs
        .iter()
        .zip(&mut aslots)
        .map(|(a, slot)| match a.func {
            AggFn::CountStar => Ok(None), // the argument is never evaluated
            _ => operand(batch, &a.arg, slot).map(Some),
        })
        .collect::<RelResult<Vec<_>>>()?;
    let key = Key::new(gvals.iter().copied(), n);
    let mut table = KeyTable::default();
    let gids: Vec<u32> = key
        .hashes()
        .into_iter()
        .enumerate()
        .map(|(j, h)| table.find_or_insert(h, j, |f| key.eq(f, &key, j)))
        .collect();
    // A global aggregate over empty input still yields one row.
    let groups = if group_by.is_empty() && n == 0 {
        1
    } else {
        table.len()
    };
    let mut out: Vec<Option<BatchColumn>> = aggs
        .iter()
        .zip(&avals)
        .map(|(a, v)| typed_aggregate(a, *v, &gids, groups))
        .collect();
    let rest: Vec<usize> = (0..aggs.len()).filter(|&i| out[i].is_none()).collect();
    if !rest.is_empty() {
        let mut states: Vec<AggState> = (0..groups)
            .flat_map(|_| rest.iter().map(|&i| AggState::new(&aggs[i])))
            .collect();
        for (j, &g) in gids.iter().enumerate() {
            let group_states = &mut states[g as usize * rest.len()..][..rest.len()];
            for (state, &i) in group_states.iter_mut().zip(&rest) {
                let v = match avals[i] {
                    None => Value::Int(1),
                    Some(v) => v.value_at(j),
                };
                state.update(v, aggs[i].func == AggFn::CountStar)?;
            }
        }
        let mut built: Vec<ColumnBuilder> = rest
            .iter()
            .map(|_| ColumnBuilder::with_capacity(groups))
            .collect();
        for (k, state) in states.into_iter().enumerate() {
            built[k % rest.len()].push(state.finish()?);
        }
        for (&i, b) in rest.iter().zip(built) {
            out[i] = Some(b.finish());
        }
    }
    let cols = gvals
        .iter()
        .map(|v| v.gather(table.firsts()))
        .chain(
            out.into_iter()
                .map(|c| c.expect("every aggregate has a column")),
        )
        .map(Arc::new)
        .collect();
    Ok(Batch::new(cols, groups))
}

/// One aggregate over typed cells, per group: `None` when its argument
/// needs [`AggState`] (`DISTINCT`, `Generic` or other storage).
fn typed_aggregate(
    a: &AggExpr,
    v: Option<Vals<'_>>,
    gids: &[u32],
    groups: usize,
) -> Option<BatchColumn> {
    if a.distinct {
        return None;
    }
    let counts = |counted: &dyn Fn(usize) -> bool| {
        let mut c = vec![0i64; groups];
        for (j, &g) in gids.iter().enumerate() {
            c[g as usize] += counted(j) as i64;
        }
        BatchColumn::ints(Some((c, None)), groups)
    };
    let v = match (a.func, v) {
        (AggFn::CountStar, _) => return Some(counts(&|_| true)),
        (_, None) => return None,
        (_, Some(v)) => v,
    };
    match a.func {
        AggFn::Count => {
            let nulls = v.nulls(gids.len());
            Some(counts(&|j| !nulls[j]))
        }
        AggFn::Sum => {
            let mut any = vec![false; groups];
            if let Some(cells) = v.ints() {
                // Wrapping, like scalar `+`.
                let mut sum = vec![0i64; groups];
                for (j, &g) in gids.iter().enumerate() {
                    if let Some(x) = cells.get(j) {
                        sum[g as usize] = sum[g as usize].wrapping_add(x);
                        any[g as usize] = true;
                    }
                }
                return Some(BatchColumn::ints(Some((sum, Some(any))), groups));
            }
            let cells = v.floats()?;
            let mut sum = vec![0.0f64; groups];
            for (j, &g) in gids.iter().enumerate() {
                if let Some(x) = cells.get(j) {
                    sum[g as usize] += x;
                    any[g as usize] = true;
                }
            }
            Some(BatchColumn::floats(Some((sum, Some(any))), groups))
        }
        AggFn::Avg => {
            let cells = v.nums()?;
            let mut total = vec![0.0f64; groups];
            let mut count = vec![0i64; groups];
            for (j, &g) in gids.iter().enumerate() {
                if let Some(x) = cells.get(j) {
                    total[g as usize] += x;
                    count[g as usize] += 1;
                }
            }
            let avg = total
                .iter()
                .zip(&count)
                .map(|(t, &c)| t / c as f64)
                .collect();
            let valid = count.iter().map(|&c| c > 0).collect();
            Some(BatchColumn::floats(Some((avg, Some(valid))), groups))
        }
        AggFn::Min | AggFn::Max => {
            let max = a.func == AggFn::Max;
            let mut best = vec![NULL_SLOT; groups];
            if let Some(cells) = v.ints() {
                extreme(&mut best, gids, cells, max);
            } else if let Some(cells) = v.floats() {
                extreme(&mut best, gids, cells, max);
            } else {
                extreme(&mut best, gids, v.texts()?, max);
            }
            Some(v.gather(&best))
        }
        AggFn::CountStar => unreachable!("counted above"),
    }
}

/// Each group's first row holding its least (`max`: greatest) cell, as
/// `AggState`'s `v < cur` (`v > cur`) keeps it.
fn extreme<C: Cells>(best: &mut [u32], gids: &[u32], cells: Acc<'_, C>, max: bool)
where
    C::Item: PartialOrd,
{
    for (j, &g) in gids.iter().enumerate() {
        let Some(x) = cells.get(j) else { continue };
        let b = &mut best[g as usize];
        let better = match (*b != NULL_SLOT).then(|| cells.get(*b as usize)).flatten() {
            None => true,
            Some(cur) if max => x > cur,
            Some(cur) => x < cur,
        };
        if better {
            *b = j as u32;
        }
    }
}

/// Batched sort: key expressions evaluate as kernels into dense typed
/// columns, compared in place per storage type (`Value::total_cmp` only
/// for `Generic`), ties broken by position; then only the selection
/// vector is permuted — column data never moves.
fn sort_batched(batch: Batch, keys: &[SortKey]) -> RelResult<Batch> {
    let n = batch.len();
    let kcols: Vec<EvalCol> = keys
        .iter()
        .map(|sk| sk.expr.eval_batch(batch.columns(), batch.slots()))
        .collect::<RelResult<Vec<_>>>()?;
    // A constant key orders nothing.
    let order: Vec<SortCol<'_>> = kcols
        .iter()
        .zip(keys)
        .filter_map(|(k, sk)| match k {
            EvalCol::Col(c) => Some(SortCol {
                data: c.data(),
                validity: c.validity(),
                desc: sk.desc,
            }),
            EvalCol::Const(_) => None,
        })
        .collect();
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.sort_unstable_by(|&a, &b| {
        let (i, j) = (a as usize, b as usize);
        order
            .iter()
            .map(|k| k.cmp(i, j))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    });
    Ok(batch.select(idx))
}

/// One sort key: a dense column, compared in place.
struct SortCol<'a> {
    data: &'a ColumnData,
    validity: Option<&'a [bool]>,
    desc: bool,
}

impl SortCol<'_> {
    /// `Value::total_cmp` of slots `a` and `b` (NULL first), reversed
    /// when descending.
    #[inline]
    fn cmp(&self, a: usize, b: usize) -> Ordering {
        let ord = match self.validity {
            Some(v) if !(v[a] && v[b]) => v[a].cmp(&v[b]),
            _ => match self.data {
                ColumnData::Int(d) => d[a].cmp(&d[b]),
                ColumnData::Float(d) => d[a].partial_cmp(&d[b]).unwrap_or(Ordering::Equal),
                ColumnData::Bool(d) => d[a].cmp(&d[b]),
                ColumnData::Text(t) => t.get(a).cmp(t.get(b)),
                ColumnData::Generic(d) => d[a].total_cmp(&d[b]),
            },
        };
        if self.desc {
            ord.reverse()
        } else {
            ord
        }
    }
}

/// Batched limit/offset: a selection-vector slice; no data moves.
fn limit_batched(batch: Batch, limit: Option<usize>, offset: usize) -> Batch {
    let n = batch.len();
    let start = offset.min(n);
    let end = match limit {
        Some(l) => start.saturating_add(l).min(n),
        None => n,
    };
    if start == 0 && end == n {
        return batch;
    }
    batch.select((start as u32..end as u32).collect())
}

/// Concatenate two batches (UNION ALL), a typed append per column.
fn union_batched(left: &Batch, right: &Batch) -> Batch {
    let cols = (0..left.width())
        .map(|c| {
            let (l, r) = (left.dense_column(c), right.dense_column(c));
            Arc::new(BatchColumn::concat([l.as_ref(), r.as_ref()]))
        })
        .collect();
    Batch::new(cols, left.len() + right.len())
}

/// The Extend nest map built straight from a related batch's columns
/// (`[fk, key(, rating)]`) — the general path, for a related side that
/// is more than a bare projected scan.
fn nest_from_batch(related: &Batch, rating: bool) -> RelResult<NestMap> {
    NestMap::build(
        (0..related.len()).map(|j| {
            (
                related.value(0, j),
                related.value(1, j),
                rating.then(|| related.value(2, j)),
            )
        }),
        rating,
    )
}

/// Batched Extend probe: append one nested column. The input keeps its
/// selection vector — no input column is copied, unselected slots of the
/// new column stay NULL.
fn extend_batched(input: Batch, nest: &NestMap, key_col: usize) -> RelResult<Batch> {
    let keys = input.column(key_col);
    let mut nested = vec![Value::Null; input.base_rows()];
    for j in 0..input.len() {
        let base = input.base_index(j);
        nested[base] = nest_probe(nest, &cell(keys, base))?;
    }
    let mut cols = input.columns().to_vec();
    cols.push(Arc::new(BatchColumn::from_generic(nested)));
    Ok(input.with_columns(cols))
}

/// Borrow a column cell where the storage holds `Value`s (nested rec
/// data always does), reconstruct it otherwise.
fn cell(col: &BatchColumn, i: usize) -> Cow<'_, Value> {
    col.value_ref(i)
        .map_or_else(|| Cow::Owned(col.value(i)), Cow::Borrowed)
}

/// How targets are scored against one comparator cell: through the cell's
/// [`Probe`] when it gets one (`Set`/`Ratings` methods, dense Int keys),
/// by [`pair_score`] otherwise.
enum CellScorer<'a> {
    Set(SetSim, Probe<'a, Value>),
    Ratings(RatingsSim, usize, Probe<'a, (Value, f64)>),
    Pairwise(&'a RecMethod, &'a Value),
}

impl<'a> CellScorer<'a> {
    fn new(method: &'a RecMethod, c: &'a Value) -> Self {
        let probed = match method {
            RecMethod::Set(sim) => c
                .as_set()
                .and_then(Probe::set)
                .map(|p| CellScorer::Set(*sim, p)),
            RecMethod::Ratings { sim, min_common } => c
                .as_ratings()
                .and_then(Probe::ratings)
                .map(|p| CellScorer::Ratings(*sim, *min_common, p)),
            RecMethod::Text(_) | RecMethod::RatingLookup => None,
        };
        probed.unwrap_or(CellScorer::Pairwise(method, c))
    }

    /// [`pair_score`] of target cell `t` against this comparator cell;
    /// `scratch` is reused from target to target.
    fn score(&self, t: &Value, scratch: &mut Common) -> Option<f64> {
        match self {
            CellScorer::Set(sim, p) => Some(sim.score_probe(t.as_set()?, p)),
            CellScorer::Ratings(sim, min_common, p) => {
                Some(sim.score_probe(t.as_ratings()?, p, *min_common, scratch))
            }
            CellScorer::Pairwise(method, c) => pair_score(method, t, c),
        }
    }
}

/// EXPLAIN ANALYZE's `probe=dense:N,hashed:M` for a `Set`/`Ratings`
/// Recommend: how many comparator cells get a [`Probe`] and how many are
/// scored pairwise (merge or hash); `None` for other methods.
fn probe_detail(spec: &RecSpec, comparator: &Batch) -> Option<String> {
    let ratings = match spec.method {
        RecMethod::Set(_) => false,
        RecMethod::Ratings { .. } => true,
        RecMethod::Text(_) | RecMethod::RatingLookup => return None,
    };
    let col = comparator.column(spec.comparator_col);
    let (mut dense, mut pairwise) = (0, 0);
    for i in 0..comparator.len() {
        let c = cell(col, comparator.base_index(i));
        let probed = if ratings {
            c.as_ratings().map(|r| dense_keys(r.iter().map(|(k, _)| k)))
        } else {
            c.as_set().map(|s| dense_keys(s.iter()))
        };
        match probed {
            Some(true) => dense += 1,
            Some(false) => pairwise += 1,
            None => {}
        }
    }
    Some(format!("probe=dense:{dense},hashed:{pairwise}"))
}

/// Batched Recommend: scores straight off the columns and materializes
/// only the rows it returns. The comparators are walked in input order,
/// each scoring every live target through its [`CellScorer`] into that
/// target's row-path [`ScoreAcc`] — so each target folds its scores in
/// comparator order, and only one comparator's probe is alive at a time —
/// and the ranking is the row path's [`rec_order`], so the result is the
/// row executor's bit for bit.
fn recommend_batched(target: &Batch, comparator: &Batch, spec: &RecSpec) -> Batch {
    let col_cells = |c: usize| -> Vec<Cow<'_, Value>> {
        let col = comparator.column(c);
        (0..comparator.len())
            .map(|i| cell(col, comparator.base_index(i)))
            .collect()
    };
    let ccells = col_cells(spec.comparator_col);
    // Every similarity of an empty (or non-nested) comparator cell is 0
    // or undefined, and a target that only scores 0 is dropped.
    let nothing_to_match = |c: &Cow<'_, Value>| match c.as_ref() {
        Value::Set(items) => items.is_empty(),
        Value::Ratings(r) => r.is_empty(),
        _ => true,
    };
    if !matches!(spec.method, RecMethod::Text(_)) && ccells.iter().all(nothing_to_match) {
        return Batch::empty(target.width() + 1);
    }
    let weights: Vec<f64> = match spec.agg {
        RecAggPlan::WeightedAvg { weight_col } => col_cells(weight_col)
            .iter()
            .map(|w| rec_weight(w))
            .collect(),
        _ => vec![1.0; ccells.len()],
    };
    let seen_cells = spec.exclude_seen.map(|(_, c_idx)| col_cells(c_idx));
    let mut seen: HashSet<&Value> = HashSet::new();
    for c in seen_cells.iter().flatten() {
        extend_seen(&mut seen, c);
    }
    // RatingLookup: fold every comparator's ratings into one accumulator
    // per key, comparator by comparator — a key's accumulator sees the
    // scores a per-target walk over the comparators would hand it, in the
    // same order — then each target is a single probe.
    let mut per_key: HashMap<&Value, ScoreAcc> = HashMap::new();
    if matches!(spec.method, RecMethod::RatingLookup) {
        for (c, &w) in ccells.iter().zip(&weights) {
            for (key, rating) in rating_lookup(c) {
                per_key.entry(key).or_insert(ScoreAcc::EMPTY).add(rating, w);
            }
        }
    }

    let tcol = target.column(spec.target_col);
    // (live row, target cell) of every target not excluded as seen.
    let live: Vec<(u32, Cow<'_, Value>)> = (0..target.len())
        .filter_map(|j| {
            let base = target.base_index(j);
            if let Some((t_idx, _)) = spec.exclude_seen {
                let v = cell(target.column(t_idx), base);
                if as_rec_scalar(&v).is_some_and(|v| seen.contains(v)) {
                    return None;
                }
            }
            Some((j as u32, cell(tcol, base)))
        })
        .collect();
    let accs: Vec<ScoreAcc> = match &spec.method {
        RecMethod::RatingLookup => live
            .iter()
            .map(|(_, t)| {
                as_rec_scalar(t)
                    .and_then(|key| per_key.get(key).copied())
                    .unwrap_or(ScoreAcc::EMPTY)
            })
            .collect(),
        method => {
            let mut accs = vec![ScoreAcc::EMPTY; live.len()];
            let mut scratch = Common::default();
            for (c, &w) in ccells.iter().zip(&weights) {
                let scorer = CellScorer::new(method, c);
                for ((_, t), acc) in live.iter().zip(&mut accs) {
                    if let Some(s) = scorer.score(t, &mut scratch) {
                        acc.add(s, w);
                    }
                }
            }
            accs
        }
    };
    // (score, live row) of every target that scored.
    let mut scored: Vec<(f64, u32)> = live
        .iter()
        .zip(&accs)
        .filter_map(|(&(j, _), acc)| Some((acc.finish(&spec.agg)?, j)))
        .collect();

    // The row path's stable sort, spelled as a total order (input order
    // last) so the top k can be selected before anything is sorted.
    let first = |j: u32| {
        let col = target.columns().first()?;
        Some(cell(col, target.base_index(j as usize)))
    };
    let order = |a: &(f64, u32), b: &(f64, u32)| {
        rec_order((a.0, b.0), || (first(a.1), first(b.1))).then(a.1.cmp(&b.1))
    };
    if let Some(k) = spec.k.filter(|&k| k < scored.len()) {
        if k > 0 {
            scored.select_nth_unstable_by(k, order);
        }
        scored.truncate(k);
    }
    scored.sort_unstable_by(order);
    let idx: Vec<u32> = scored
        .iter()
        .map(|&(_, j)| target.base_index(j as usize) as u32)
        .collect();
    let mut cols: Vec<Arc<BatchColumn>> = target
        .columns()
        .iter()
        .map(|c| Arc::new(c.gather(&idx)))
        .collect();
    let mut scores = ColumnBuilder::with_capacity(scored.len());
    for &(score, _) in &scored {
        scores.push(Value::float(score));
    }
    cols.push(Arc::new(scores.finish()));
    Batch::new(cols, scored.len())
}

/// Extend's physical choice, like SeqScan vs. index access for a scan:
/// when `related` is a bare projected scan — `[fk, key(, rating)]`, no
/// filter, what every workflow template lowers to — the nest map is the
/// table's version-keyed image ([`Table::nested`]) instead of a rebuild
/// from the scanned rows; the flag says whether the image was cached.
/// The scan still gets its profile node (one per plan node). `None` for
/// any other related side: the caller builds from its batch.
fn nest_image<P: Profile>(
    related: &LogicalPlan,
    rating: bool,
    catalog: &Catalog,
) -> Option<RelResult<(Arc<NestMap>, bool, P)>> {
    let LogicalPlan::Scan {
        table,
        alias,
        projection: Some(cols),
        filter: None,
        ..
    } = related
    else {
        return None;
    };
    let (fk, key, rating_col) = match (cols.as_slice(), rating) {
        (&[fk, key], false) => (fk, key, None),
        (&[fk, key, r], true) => (fk, key, Some(r)),
        _ => return None,
    };
    let served = catalog.with_table(table, |t| {
        let open = P::open();
        let label = P::label(|| (scan_op(table, alias), vec!["access=NestImage".to_owned()]));
        let scan = P::close(open, label, related, t.len(), Vec::new());
        let (nest, cached) = t.nested(fk, key, rating_col)?;
        Ok((nest, cached, scan))
    });
    Some(served.and_then(|r| r))
}

/// The vectorized walker (the default execution path). Labels keep the
/// row walker's operator names and fields, plus `batches=`/`selected=`.
fn run_batched<P: Profile>(
    plan: &LogicalPlan,
    catalog: &Catalog,
    batch_size: usize,
) -> RelResult<(Batch, P)> {
    let open = P::open();
    let (batch, label, children) = match plan {
        LogicalPlan::Scan {
            table,
            alias,
            projection,
            filter,
            ..
        } => {
            let (batch, path, batches) = catalog
                .with_table(table, |t| scan_batched(t, projection, filter, batch_size))??;
            let label = P::label(|| {
                let (op, mut detail) = scan_label(table, alias, &path, filter);
                detail.push(format!("batches={batches}"));
                detail.push(format!("selected={}", batch.len()));
                (op, detail)
            });
            (batch, label, Vec::new())
        }

        LogicalPlan::Filter { input, predicate } => {
            let (batch, child) = run_batched::<P>(input, catalog, batch_size)?;
            let (keep, batches) = filter_selection(&batch, predicate, batch_size)?;
            let batch = batch.select(keep);
            let label = P::label(|| {
                let detail = vec![
                    format!("predicate={predicate}"),
                    format!("batches={batches}"),
                    format!("selected={}", batch.len()),
                ];
                plan_label(plan, detail)
            });
            (batch, label, vec![child])
        }

        LogicalPlan::Project { input, exprs, .. } => {
            let (batch, child) = run_batched::<P>(input, catalog, batch_size)?;
            let (batch, batches) = project_batched(&batch, exprs, batch_size)?;
            let label = P::label(|| {
                let detail = vec![
                    format!("exprs={}", exprs.len()),
                    format!("batches={batches}"),
                ];
                plan_label(plan, detail)
            });
            (batch, label, vec![child])
        }

        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => {
            let (l, lchild) = run_batched::<P>(left, catalog, batch_size)?;
            let (r, rchild) = run_batched::<P>(right, catalog, batch_size)?;
            let (batch, info) = join_batched(&l, &r, *kind, on)?;
            let label = P::label(|| join_label(*kind, &info));
            (batch, label, vec![lchild, rchild])
        }

        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let (batch, child) = run_batched::<P>(input, catalog, batch_size)?;
            let out = aggregate_batched(&batch, group_by, aggs)?;
            let label = P::label(|| plan_label(plan, aggregate_detail(group_by, aggs)));
            (out, label, vec![child])
        }

        LogicalPlan::Sort { input, keys } => {
            let (batch, child) = run_batched::<P>(input, catalog, batch_size)?;
            let batch = sort_batched(batch, keys)?;
            let label = P::label(|| plan_label(plan, vec![format!("keys={}", keys.len())]));
            (batch, label, vec![child])
        }

        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let (batch, child) = run_batched::<P>(input, catalog, batch_size)?;
            let batch = limit_batched(batch, *limit, *offset);
            let label = P::label(|| plan_label(plan, limit_detail(*limit, *offset)));
            (batch, label, vec![child])
        }

        LogicalPlan::Values { rows, .. } => {
            let batch = Batch::from_rows(rows, plan.schema().len());
            let label = P::label(|| plan_label(plan, Vec::new()));
            (batch, label, Vec::new())
        }

        LogicalPlan::Union { left, right } => {
            let (l, lchild) = run_batched::<P>(left, catalog, batch_size)?;
            let (r, rchild) = run_batched::<P>(right, catalog, batch_size)?;
            let label = P::label(|| plan_label(plan, Vec::new()));
            (union_batched(&l, &r), label, vec![lchild, rchild])
        }

        LogicalPlan::Extend {
            input,
            related,
            key_col,
            rating,
            as_name,
            ..
        } => {
            let (i, ichild) = run_batched::<P>(input, catalog, batch_size)?;
            let (nest, cached, rchild) = match nest_image::<P>(related, *rating, catalog) {
                Some(served) => served?,
                None => {
                    let (r, rchild) = run_batched::<P>(related, catalog, batch_size)?;
                    (Arc::new(nest_from_batch(&r, *rating)?), false, rchild)
                }
            };
            if cr_obs::enabled() {
                let m = metrics();
                if cached { &m.nest_hits } else { &m.nest_builds }.inc();
            }
            let batch = extend_batched(i, &nest, *key_col)?;
            let label = P::label(|| {
                let mut detail = extend_detail(*rating, *key_col, as_name);
                detail.push(format!("nest={}", if cached { "cached" } else { "built" }));
                plan_label(plan, detail)
            });
            (batch, label, vec![ichild, rchild])
        }

        LogicalPlan::Recommend {
            target,
            comparator,
            spec,
            ..
        } => {
            let (t, tchild) = run_batched::<P>(target, catalog, batch_size)?;
            let (c, cchild) = run_batched::<P>(comparator, catalog, batch_size)?;
            let batch = recommend_batched(&t, &c, spec);
            let label = P::label(|| {
                let mut detail = recommend_detail(spec);
                detail.extend(probe_detail(spec, &c));
                plan_label(plan, detail)
            });
            (batch, label, vec![tchild, cchild])
        }
    };
    let profile = P::close(open, label, plan, batch.len(), children);
    Ok((batch, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::plan::PlanBuilder;
    use crate::schema::DataType;

    fn db() -> Database {
        let db = Database::new();
        db.execute_sql(
            "CREATE TABLE courses (id INT PRIMARY KEY, dep TEXT, units INT, rating FLOAT)",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO courses VALUES \
             (1,'CS',5,4.5),(2,'CS',3,3.0),(3,'HIST',4,4.0),(4,'HIST',4,NULL),(5,'MATH',3,2.5)",
        )
        .unwrap();
        db.execute_sql("CREATE TABLE comments (cid INT PRIMARY KEY, course_id INT, text TEXT)")
            .unwrap();
        db.execute_sql("INSERT INTO comments VALUES (10,1,'great'),(11,1,'hard'),(12,3,'fun')")
            .unwrap();
        db
    }

    #[test]
    fn seq_scan_all() {
        let db = db();
        let rs = db.query_sql("SELECT * FROM courses").unwrap();
        assert_eq!(rs.rows.len(), 5);
        assert_eq!(rs.schema.len(), 4);
    }

    #[test]
    fn pk_lookup_path_chosen() {
        let db = db();
        db.catalog()
            .with_table("courses", |t| {
                let filter = Some(Expr::col_idx(0).eq(Expr::lit(3i64)));
                assert_eq!(
                    choose_access_path(t, &filter),
                    AccessPath::PkLookup(vec![Value::Int(3)])
                );
            })
            .unwrap();
    }

    #[test]
    fn secondary_index_path_chosen_and_correct() {
        let db = db();
        db.create_index("courses", "by_dep", &["dep"], false)
            .unwrap();
        db.catalog()
            .with_table("courses", |t| {
                let filter = Some(Expr::col_idx(1).eq(Expr::lit("CS")));
                assert_eq!(
                    choose_access_path(t, &filter),
                    AccessPath::IndexEq("by_dep".into(), vec![Value::text("CS")])
                );
            })
            .unwrap();
        let rs = db
            .query_sql("SELECT id FROM courses WHERE dep = 'CS'")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn btree_range_path() {
        let db = db();
        db.create_btree_index("courses", "by_units", &["units"], false)
            .unwrap();
        let rs = db
            .query_sql("SELECT id FROM courses WHERE units >= 4 AND units <= 5")
            .unwrap();
        let mut ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        ids.sort();
        assert_eq!(ids, vec![1, 3, 4]);
        db.catalog()
            .with_table("courses", |t| {
                let filter = Some(
                    Expr::col_idx(2)
                        .gt_eq(Expr::lit(4i64))
                        .and(Expr::col_idx(2).lt_eq(Expr::lit(5i64))),
                );
                assert!(matches!(
                    choose_access_path(t, &filter),
                    AccessPath::IndexRange { .. }
                ));
            })
            .unwrap();
    }

    #[test]
    fn hash_join_inner() {
        let db = db();
        let rs = db
            .query_sql(
                "SELECT courses.id, comments.text FROM courses \
                 JOIN comments ON courses.id = comments.course_id",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn left_outer_join_extends_with_nulls() {
        let db = db();
        let rs = db
            .query_sql(
                "SELECT courses.id, comments.text FROM courses \
                 LEFT JOIN comments ON courses.id = comments.course_id \
                 ORDER BY courses.id",
            )
            .unwrap();
        // 1 has two comments, 3 has one, 2/4/5 null-extended: 6 rows.
        assert_eq!(rs.rows.len(), 6);
        let null_rows = rs.rows.iter().filter(|r| r[1].is_null()).count();
        assert_eq!(null_rows, 3);
    }

    #[test]
    fn nested_loop_for_non_equi_join() {
        let db = db();
        let rs = db
            .query_sql("SELECT a.id, b.id FROM courses a JOIN courses b ON a.units < b.units")
            .unwrap();
        // pairs with strictly smaller units: units are [5,3,4,4,3]
        // 3<4 (2 with id3), 3<4(id4), 3<5; two rows with units 3 → 2*3=6, 4<5 ×2 → 8
        assert_eq!(rs.rows.len(), 8);
    }

    #[test]
    fn aggregate_groups_and_nulls() {
        let db = db();
        let rs = db
            .query_sql(
                "SELECT dep, COUNT(*) AS n, AVG(rating) AS avg_r, SUM(units) AS su \
                 FROM courses GROUP BY dep ORDER BY dep",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        // CS: n=2, avg=(4.5+3)/2=3.75
        assert_eq!(rs.rows[0][0], Value::text("CS"));
        assert_eq!(rs.rows[0][1], Value::Int(2));
        assert_eq!(rs.rows[0][2], Value::Float(3.75));
        // HIST: one NULL rating → avg over non-null only = 4.0
        assert_eq!(rs.rows[1][2], Value::Float(4.0));
    }

    #[test]
    fn count_ignores_null_countstar_does_not() {
        let db = db();
        let rs = db
            .query_sql("SELECT COUNT(rating) AS c, COUNT(*) AS cs FROM courses")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(4));
        assert_eq!(rs.rows[0][1], Value::Int(5));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let db = db();
        let rs = db
            .query_sql("SELECT COUNT(*) AS c, MAX(units) AS m FROM courses WHERE id > 999")
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert!(rs.rows[0][1].is_null());
    }

    #[test]
    fn distinct_count() {
        let db = db();
        let rs = db
            .query_sql("SELECT COUNT(DISTINCT dep) AS d FROM courses")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn sort_asc_desc_with_nulls_first() {
        let db = db();
        let rs = db
            .query_sql("SELECT id, rating FROM courses ORDER BY rating DESC, id")
            .unwrap();
        // DESC: NULL sorts first ascending → last descending? Our total
        // order puts NULL lowest, so DESC puts it last.
        let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![1, 3, 2, 5, 4]);
    }

    #[test]
    fn limit_offset() {
        let db = db();
        let rs = db
            .query_sql("SELECT id FROM courses ORDER BY id LIMIT 2 OFFSET 1")
            .unwrap();
        let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn union_appends() {
        let db = db();
        let rs = db
            .query_sql(
                "SELECT id FROM courses WHERE dep = 'CS' \
                 UNION ALL SELECT id FROM courses WHERE dep = 'MATH'",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn result_set_helpers() {
        let db = db();
        let rs = db.query_sql("SELECT COUNT(*) AS n FROM courses").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(5)));
        let table = rs.to_text_table();
        assert!(table.contains("| n "));
        assert!(table.contains("| 5 "));
    }

    #[test]
    fn programmatic_plan_matches_sql() {
        let db = db();
        let plan = PlanBuilder::scan(&db.catalog(), "courses")
            .unwrap()
            .filter(Expr::col("units").gt_eq(Expr::lit(4i64)))
            .unwrap()
            .select_columns(&["id"])
            .unwrap()
            .sort_by("id", false)
            .unwrap()
            .build();
        let a = db.run_plan(&plan).unwrap();
        let b = db
            .query_sql("SELECT id FROM courses WHERE units >= 4 ORDER BY id")
            .unwrap();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn instrumented_matches_plain_and_annotates() {
        let db = db();
        let sql = "SELECT courses.id, comments.text FROM courses \
                   JOIN comments ON courses.id = comments.course_id \
                   WHERE courses.units >= 3 ORDER BY courses.id";
        let plain = db.query_sql(sql).unwrap();
        let (rs, profile) = db.explain_analyze_sql(sql).unwrap();
        assert_eq!(rs.rows, plain.rows);
        // Root operator's row count equals the result set's.
        assert_eq!(profile.rows_out, rs.rows.len());
        // The join and both scans are in the tree, scans annotated with
        // their access path.
        let join = profile.find("HashJoin").expect("join profiled");
        assert_eq!(join.children.len(), 2);
        let scan = profile.find("Scan courses").expect("scan profiled");
        assert!(scan.detail.iter().any(|d| d.starts_with("access=")));
        let text = profile.render();
        assert!(text.contains("rows="));
        assert!(text.contains("time="));
    }

    #[test]
    fn instrumented_reports_pk_lookup_access_path() {
        let db = db();
        let (rs, profile) = db
            .explain_analyze_sql("SELECT id FROM courses WHERE id = 3")
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        let scan = profile.find("Scan courses").expect("scan profiled");
        assert!(
            scan.detail.iter().any(|d| d.contains("PkLookup")),
            "detail: {:?}",
            scan.detail
        );
    }

    #[test]
    fn join_null_keys_never_match() {
        let db = Database::new();
        db.execute_sql("CREATE TABLE a (x INT)").unwrap();
        db.execute_sql("CREATE TABLE b (y INT)").unwrap();
        db.execute_sql("INSERT INTO a VALUES (NULL),(1),(2),(NULL),(2)")
            .unwrap();
        db.execute_sql("INSERT INTO b VALUES (NULL),(1),(2),(2)")
            .unwrap();
        // 1 matches once, each of the two 2s matches twice; NULL-keyed
        // left rows never match but LEFT JOIN still null-extends them.
        for (sql, want) in [
            ("SELECT * FROM a JOIN b ON a.x = b.y", 5),
            ("SELECT * FROM a LEFT JOIN b ON a.x = b.y", 7),
        ] {
            let rs = db.query_sql(sql).unwrap();
            assert_eq!(rs.rows.len(), want, "sql={sql}");
            let oracle = db
                .query_sql_with(sql, &ExecOptions { batch_size: 0 })
                .unwrap();
            assert_eq!(rs, oracle, "sql={sql}");
        }
    }

    #[test]
    fn database_default_options_apply() {
        let db = db().with_exec_options(ExecOptions { batch_size: 0 });
        assert_eq!(db.exec_options().batch_size, 0);
        let rs = db.query_sql("SELECT * FROM courses").unwrap();
        assert_eq!(rs.rows.len(), 5);
        let batched = Database::clone(&db)
            .with_exec_options(ExecOptions::default())
            .query_sql("SELECT * FROM courses")
            .unwrap();
        assert_eq!(rs, batched);
    }

    /// Fixture for the FlexRecs operators: students and the courses they
    /// took, with ratings (one NULL, one duplicate enrollment).
    fn nest_db() -> Database {
        let db = Database::new();
        db.execute_sql("CREATE TABLE students (sid INT PRIMARY KEY, name TEXT)")
            .unwrap();
        db.execute_sql("INSERT INTO students VALUES (1,'ann'),(2,'bob'),(3,'cat')")
            .unwrap();
        db.execute_sql(
            "CREATE TABLE taken (tid INT PRIMARY KEY, sid INT, course INT, rating FLOAT)",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO taken VALUES \
             (1,1,101,5.0),(2,1,102,3.0),(3,2,101,4.0),(4,2,103,2.0),\
             (5,3,102,NULL),(6,1,101,3.0)",
        )
        .unwrap();
        db
    }

    /// ε(students) the way the workflow compiler lowers it: the related
    /// side is a bare projected scan `[fk, key(, rating)]`.
    fn extend_students(db: &Database, rating: bool) -> crate::plan::LogicalPlan {
        let taken = db.catalog().table_schema("taken").unwrap();
        let cols: Vec<usize> = ["sid", "course", "rating"][..2 + usize::from(rating)]
            .iter()
            .map(|c| taken.index_of(c).unwrap())
            .collect();
        let related = PlanBuilder::from_plan(LogicalPlan::Scan {
            table: "taken".into(),
            alias: None,
            schema: LogicalPlan::scan_output_schema(&taken, &Some(cols.clone())),
            projection: Some(cols),
            filter: None,
        });
        PlanBuilder::scan(&db.catalog(), "students")
            .unwrap()
            .extend(related, "sid", rating, "courses")
            .unwrap()
            .build()
    }

    #[test]
    fn extend_set_nests_sorted_deduped() {
        let db = nest_db();
        let rs = db.run_plan(&extend_students(&db, false)).unwrap();
        assert_eq!(rs.schema.column(2).name, "courses");
        assert_eq!(rs.schema.column(2).data_type, DataType::Set);
        // ann took 101 twice + 102 → deduped sorted {101, 102}.
        assert_eq!(
            rs.rows[0][2],
            Value::Set(vec![Value::Int(101), Value::Int(102)].into())
        );
        assert_eq!(
            rs.rows[1][2],
            Value::Set(vec![Value::Int(101), Value::Int(103)].into())
        );
        // cat's only enrollment has NULL rating but the course id exists.
        assert_eq!(rs.rows[2][2], Value::Set(vec![Value::Int(102)].into()));
    }

    #[test]
    fn extend_ratings_averages_and_skips_nulls() {
        let db = nest_db();
        let rs = db.run_plan(&extend_students(&db, true)).unwrap();
        assert_eq!(rs.schema.column(2).data_type, DataType::Ratings);
        // ann rated 101 twice (5.0, 3.0) → avg 4.0.
        assert_eq!(
            rs.rows[0][2],
            Value::Ratings(vec![(Value::Int(101), 4.0), (Value::Int(102), 3.0)].into())
        );
        // cat's single enrollment has a NULL rating → empty ratings.
        assert_eq!(rs.rows[2][2], Value::Ratings(Arc::new([])));
    }

    #[test]
    fn recommend_set_similarity_ranks_peers() {
        let db = nest_db();
        let targets = PlanBuilder::from_plan(extend_students(&db, false));
        let comparators = PlanBuilder::from_plan(extend_students(&db, false))
            .filter(Expr::col("name").eq(Expr::lit("ann")))
            .unwrap();
        let spec = RecSpec {
            target_col: 2,
            comparator_col: 2,
            method: RecMethod::Set(crate::similarity::SetSim::Jaccard),
            agg: RecAggPlan::Max,
            k: None,
            unbounded_ok: false,
            score_name: "score".into(),
            exclude_seen: None,
        };
        let plan = targets.recommend(comparators, spec).unwrap().build();
        let rs = db.run_plan(&plan).unwrap();
        assert_eq!(rs.schema.column(3).name, "score");
        // ann vs ann: jaccard 1.0; bob {101,103} vs {101,102}: 1/3;
        // cat {102}: 1/2. Sorted descending: ann, cat, bob.
        let names: Vec<&str> = rs.rows.iter().map(|r| r[1].as_text().unwrap()).collect();
        assert_eq!(names, vec!["ann", "cat", "bob"]);
        assert_eq!(rs.rows[0][3], Value::Float(1.0));
    }

    #[test]
    fn recommend_rating_lookup_with_exclude_seen() {
        let db = nest_db();
        // Targets: the courses themselves; comparators: ann's ratings row.
        let targets = PlanBuilder::scan(&db.catalog(), "taken")
            .unwrap()
            .select_columns(&["course"])
            .unwrap();
        let ann = PlanBuilder::from_plan(extend_students(&db, true))
            .filter(Expr::col("name").eq(Expr::lit("ann")))
            .unwrap();
        let spec = RecSpec {
            target_col: 0,
            comparator_col: 2,
            method: RecMethod::RatingLookup,
            agg: RecAggPlan::Avg,
            k: Some(10),
            unbounded_ok: false,
            score_name: "score".into(),
            exclude_seen: None,
        };
        let rs = db
            .run_plan(&targets.recommend(ann, spec).unwrap().build())
            .unwrap();
        // Courses ann rated: 101→4.0, 102→3.0; 103 has no lookup → dropped.
        // Every `taken` row for 101/102 scores; 101 appears 3×, 102 2×.
        assert_eq!(rs.rows.len(), 5);
        assert_eq!(rs.rows[0][0], Value::Int(101));
        assert_eq!(rs.rows[0][1], Value::Float(4.0));
        // exclude_seen against ann's ratings drops 101 and 102 entirely.
        let targets2 = PlanBuilder::scan(&db.catalog(), "taken")
            .unwrap()
            .select_columns(&["course"])
            .unwrap();
        let ann2 = PlanBuilder::from_plan(extend_students(&db, true))
            .filter(Expr::col("name").eq(Expr::lit("ann")))
            .unwrap();
        let spec2 = RecSpec {
            target_col: 0,
            comparator_col: 2,
            method: RecMethod::RatingLookup,
            agg: RecAggPlan::Avg,
            k: None,
            unbounded_ok: false,
            score_name: "score".into(),
            exclude_seen: Some((0, 2)),
        };
        let rs2 = db
            .run_plan(&targets2.recommend(ann2, spec2).unwrap().build())
            .unwrap();
        assert!(rs2.rows.is_empty(), "all rated courses excluded: {rs2:?}");
    }

    #[test]
    fn recommend_weighted_avg_and_nonpositive_dropped() {
        let db = nest_db();
        // Score students against each other by ratings similarity, weighting
        // by sid (a stand-in for an upstream score column).
        let targets = PlanBuilder::from_plan(extend_students(&db, true));
        let comparators = PlanBuilder::from_plan(extend_students(&db, true));
        let spec = RecSpec {
            target_col: 2,
            comparator_col: 2,
            method: RecMethod::Ratings {
                sim: crate::similarity::RatingsSim::InverseEuclidean,
                min_common: 1,
            },
            agg: RecAggPlan::WeightedAvg { weight_col: 0 },
            k: None,
            unbounded_ok: false,
            score_name: "s".into(),
            exclude_seen: None,
        };
        let rs = db
            .run_plan(&targets.recommend(comparators, spec).unwrap().build())
            .unwrap();
        // cat has an empty ratings attr: inverse-euclidean with no common
        // keys scores 0 against everyone → dropped (score <= 0).
        assert!(rs.rows.iter().all(|r| r[1] != Value::text("cat")));
        assert!(!rs.rows.is_empty());
        for r in &rs.rows {
            assert!(r[3].as_float().unwrap() > 0.0);
        }
    }

    #[test]
    fn extend_key_must_be_scalar() {
        let db = nest_db();
        // Extending on the nested column itself errors.
        let base = PlanBuilder::from_plan(extend_students(&db, false));
        let related = PlanBuilder::scan(&db.catalog(), "taken")
            .unwrap()
            .select_columns(&["sid", "course"])
            .unwrap();
        let plan = base
            .extend(related, "courses", false, "again")
            .unwrap()
            .build();
        let err = db.run_plan(&plan).unwrap_err();
        assert!(err.to_string().contains("not scalar"), "{err}");
    }

    #[test]
    fn extend_recommend_profiled_render() {
        let db = nest_db();
        let targets = PlanBuilder::from_plan(extend_students(&db, true));
        let comparators = PlanBuilder::from_plan(extend_students(&db, true));
        let spec = RecSpec {
            target_col: 2,
            comparator_col: 2,
            method: RecMethod::Ratings {
                sim: crate::similarity::RatingsSim::Pearson,
                min_common: 2,
            },
            agg: RecAggPlan::Max,
            k: Some(3),
            unbounded_ok: false,
            score_name: "score".into(),
            exclude_seen: None,
        };
        let plan = targets.recommend(comparators, spec).unwrap().build();
        let (rs, profile) = db.run_plan_instrumented(&plan).unwrap();
        assert_eq!(profile.rows_out, rs.rows.len());
        let rec = profile.find("Recommend").expect("recommend profiled");
        assert_eq!(rec.children.len(), 2);
        assert!(
            rec.detail.iter().any(|d| d.contains("ratings:pearson")),
            "detail: {:?}",
            rec.detail
        );
        assert!(rec.detail.iter().any(|d| d == "top=3"), "{:?}", rec.detail);
        let ext = profile.find("Extend").expect("extend profiled");
        assert!(
            ext.detail.iter().any(|d| d == "kind=ratings"),
            "detail: {:?}",
            ext.detail
        );
        // One profile node per plan node: the related scan is still there,
        // reported as served by the table's nest image...
        assert_eq!(profile.operator_count(), plan.explain().lines().count());
        assert_eq!(ext.children.len(), 2);
        assert_eq!(ext.children[1].op, "Scan taken");
        assert_eq!(ext.children[1].detail, ["access=NestImage"]);
        // ...which the target-side Extend built and the comparator-side
        // one (and any later run at this table version) found cached.
        let nest_of = |p: &OpProfile| -> Vec<String> {
            p.children[..2]
                .iter()
                .map(|e| e.detail.last().cloned().unwrap_or_default())
                .collect()
        };
        assert_eq!(nest_of(rec), ["nest=built", "nest=cached"]);
        let (_, again) = db.run_plan_instrumented(&plan).unwrap();
        let rec = again.find("Recommend").expect("recommend profiled");
        assert_eq!(nest_of(rec), ["nest=cached", "nest=cached"]);
        assert!(again.render().contains("nest=cached"));
        // The comparator side is every student: one probe per cell, all
        // dense (Int course ids a few apart).
        let comparator_cells = rec.children[1].rows_out;
        assert!(comparator_cells > 0);
        assert!(
            rec.detail
                .contains(&format!("probe=dense:{comparator_cells},hashed:0")),
            "{:?}",
            rec.detail
        );
    }

    /// A related side that is more than a bare projected scan builds its
    /// nest from the scanned batch — same rows out, never a cached image,
    /// never a stale one after the related table changes. An insert into
    /// the related table patches the image, any other write drops it.
    #[test]
    fn extend_general_path_and_invalidation() {
        let db = nest_db();
        let bare = extend_students(&db, true);
        let filtered = {
            let related = PlanBuilder::scan(&db.catalog(), "taken")
                .unwrap()
                .filter(Expr::col("tid").gt_eq(Expr::lit(0i64)))
                .unwrap()
                .select_columns(&["sid", "course", "rating"])
                .unwrap();
            PlanBuilder::scan(&db.catalog(), "students")
                .unwrap()
                .extend(related, "sid", true, "courses")
                .unwrap()
                .build()
        };
        let nest_detail = |plan: &LogicalPlan| {
            let (rs, profile) = db.run_plan_instrumented(plan).unwrap();
            let ext = profile.find("Extend").expect("extend profiled").clone();
            let executed = crate::plan::optimizer::optimize(plan.clone());
            assert_eq!(profile.operator_count(), executed.explain().lines().count());
            (rs.rows, ext.detail.last().cloned().unwrap_or_default())
        };
        let (rows, first) = nest_detail(&bare);
        assert_eq!(first, "nest=built");
        assert_eq!(nest_detail(&bare), (rows.clone(), "nest=cached".to_owned()));
        // The always-true filter changes the path, not the answer.
        assert_eq!(
            nest_detail(&filtered),
            (rows.clone(), "nest=built".to_owned())
        );
        assert_eq!(nest_detail(&filtered).1, "nest=built");
        // An insert into the related table patches the image...
        db.execute_sql("INSERT INTO taken VALUES (7, 3, 103, 1.0)")
            .unwrap();
        let (after, patched) = nest_detail(&bare);
        assert_eq!(patched, "nest=cached");
        assert_eq!(
            after[2][2],
            Value::Ratings(vec![(Value::Int(103), 1.0)].into())
        );
        assert_eq!(nest_detail(&filtered).0, after);
        let oracle = db
            .run_plan_with(&bare, &ExecOptions { batch_size: 0 })
            .unwrap();
        assert_eq!(oracle.rows, after);
        // ...and a delete retires it.
        db.execute_sql("DELETE FROM taken WHERE tid = 7").unwrap();
        let (after, rebuilt) = nest_detail(&bare);
        assert_eq!(rebuilt, "nest=built");
        assert_eq!(after[2][2], Value::Ratings(Arc::new([])));
        assert_eq!(nest_detail(&filtered).0, after);
    }
}
