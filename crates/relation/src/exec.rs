//! Physical execution.
//!
//! One walker executes plans, the **vectorized executor** `run_batched`:
//! operators exchange columnar [`Batch`]es. Scans hand out the table's
//! cached columnar image ([`Table::columnar`], `Arc`-shared, rebuilt only
//! after a mutation), pushed-down filters set the batch's *selection
//! vector* instead of copying rows, and projections evaluate expression
//! kernels ([`Expr::eval_batch`]) only over selected slots — so a
//! scan→filter→project chain is one fused pass with no per-row dispatch.
//! Kernels read typed slices and write typed cells; a `Value` is built
//! only at the result boundary and for `Generic` data. Hash joins and
//! hash aggregation give rows dense group ids through `keys::KeyIds`: a
//! one-column key with a dense domain indexes an array by Int value or
//! memoes each Text arena entry's group, and other keys are hashed and
//! compared where they are stored (no `Vec<Value>` key per row).
//! Aggregates accumulate from typed slices with `AggState`'s rules, sorts
//! compare typed key columns in place (a sort under a `Limit` keeps only
//! the rows the limit can return, by a bounded selection), and sort and
//! limit permute/truncate the selection vector. `Extend` probes the related
//! table's version-keyed nest image ([`Table::nested`]) when its related
//! side is a bare projected scan, and `Recommend` scores off the columns,
//! gathering only the rows it returns.
//!
//! The walker is generic over `Profile`: `()` records nothing,
//! [`OpProfile`] builds the EXPLAIN ANALYZE tree, the trace spans and the
//! per-operator histograms — so profiling is a type parameter of the
//! walker, not a second copy of it.
//!
//! [`oracle`] holds the row-at-a-time reference executor, a serial
//! pipeline of `Vec<Row>` operators that tests call by name as ground
//! truth; no option and no entry point here selects it.
//!
//! Scans pick an **access path** at runtime: if the pushed-down
//! predicate contains an equality (or range) conjunct on the primary key
//! or an indexed column, the matching index serves the lookup and the
//! predicate is evaluated only on the rows it fetches. This is what makes
//! FlexRecs' compiled per-user queries cheap on paper-scale data. UPDATE
//! and DELETE find their rows the same way, through `matching_rows`.

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
use crate::keys::{IdPath, Key, KeyIds, NO_GROUP};
use crate::nest::NestMap;
use crate::plan::{AggExpr, AggFn, JoinKind, LogicalPlan, RecAggPlan, RecMethod, RecSpec, SortKey};
use crate::profile::OpProfile;
use crate::row::{Row, RowId};
use crate::schema::{DataType, Schema};
use crate::similarity::{
    dense_keys, dense_span, strictly_ascending, Common, Probe, RatingsSim, SetSim, DENSE_SPAN,
};
use crate::table::Table;
use crate::value::Value;

pub mod oracle;

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
    /// Target rows a Recommend scored: all of its target input, or only
    /// the candidates its postings path kept.
    rec_scored: Arc<cr_obs::Counter>,
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
            rec_scored: r.counter("relation.rec.scored"),
            op_ns: LogicalPlan::OP_NAMES
                .map(|op| r.histogram(&format!("relation.op.{}_ns", op.to_ascii_lowercase()))),
        }
    })
}

// ---------------------------------------------------------------------
// Execution options
// ---------------------------------------------------------------------

/// The one knob of physical execution: how large a batch is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Rows per expression-kernel invocation; `0` runs as `1`. Results
    /// do not depend on it — tests vary it to land chunk boundaries
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
/// `relation.query` span (timed into `relation.query_ns`), run the
/// walker, materialize rows, record the query metrics, close the
/// query-level profile (span attributes and slow-query capture).
fn execute_as<P: Profile>(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> RelResult<(ResultSet, P)> {
    let mut span = TraceSpan::child("relation.query").timed(&metrics().query_ns);
    let (batch, profile) = run_batched::<P>(plan, catalog, opts.batch_size.max(1))?;
    let rows = batch.to_rows();
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
    match info.ids {
        Some(ids) => {
            detail.push(format!("keys={}", info.keys));
            detail.push("build=right".to_owned());
            detail.push(format!("ids={ids}"));
            ("HashJoin".to_owned(), detail)
        }
        None => ("NestedLoopJoin".to_owned(), detail),
    }
}

/// Label for an operator EXPLAIN ANALYZE names as the plan does.
fn plan_label(plan: &LogicalPlan, detail: Vec<String>) -> OpLabel {
    (plan.op_name().to_owned(), detail)
}

fn aggregate_detail(group_by: &[Expr], aggs: &[AggExpr], ids: IdPath) -> Vec<String> {
    vec![
        format!("group_by={}", group_by.len()),
        format!("aggs={}", aggs.len()),
        format!("ids={ids}"),
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

// ---------------------------------------------------------------------
// FlexRecs operators: Extend (ε) and Recommend (▷)
// ---------------------------------------------------------------------

/// Treat a value as a scalar for the FlexRecs operators: nested
/// Set/Ratings values are not scalars; everything else (including NULL)
/// is. The FlexRecs interpreter (`cr_flexrecs::exec`) applies the same
/// rule to the same `Value`s.
fn as_rec_scalar(v: &Value) -> Option<&Value> {
    if v.is_nested() {
        None
    } else {
        Some(v)
    }
}

/// The nested attribute an extend key maps to (empty when unmatched).
fn nest_probe(map: &NestMap, key: &Value) -> RelResult<Value> {
    let key =
        as_rec_scalar(key).ok_or_else(|| RelError::Invalid("extend key not scalar".into()))?;
    Ok(map.probe(key))
}

/// One target's scores against the comparators, accumulated in
/// comparator order. The walker and the [`oracle`] both fold through
/// this, so a target's final score is the same float on either.
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

    /// The aggregate score; `None` when no comparator matched, or when
    /// the score (or a `WeightedAvg` weight sum) is not positive — NaN
    /// included, which an infinite weight makes of 0 × ∞ or ∞ / ∞.
    fn finish(&self, agg: &RecAggPlan) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let score = match agg {
            RecAggPlan::Avg => self.sum / self.n as f64,
            RecAggPlan::Sum => self.sum,
            RecAggPlan::Max => self.max,
            RecAggPlan::WeightedAvg { .. } if self.weight > 0.0 => self.sum / self.weight,
            RecAggPlan::WeightedAvg { .. } => return None,
        };
        (score > 0.0).then_some(score)
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

/// `RatingLookup`'s per-key accumulators: every comparator's ratings
/// folded into one [`ScoreAcc`] per key, comparator by comparator — a
/// key's accumulator sees the scores a per-target walk over the
/// comparators would hand it, in the same order — so each target is a
/// single lookup.
fn key_accs<'a>(cells: &'a [Cow<'a, Value>], weights: &[f64]) -> HashMap<&'a Value, ScoreAcc> {
    let mut per_key: HashMap<&Value, ScoreAcc> = HashMap::new();
    for (c, &w) in cells.iter().zip(weights) {
        for (key, rating) in rating_lookup(c) {
            per_key.entry(key).or_insert(ScoreAcc::EMPTY).add(rating, w);
        }
    }
    per_key
}

/// [`key_accs`] over an array instead of a hash map: a slot per key of
/// the span (`key − lo`), as a [`Probe`] indexes a comparator cell.
struct DenseKeyAccs {
    lo: i64,
    /// 1 + the key's position in `accs`, 0 for a key no comparator holds.
    slots: Vec<u32>,
    accs: Vec<ScoreAcc>,
}

impl DenseKeyAccs {
    /// The dense form of [`key_accs`], when every comparator key is Int,
    /// they span at most [`DENSE_SPAN`], and every
    /// cell is strictly ascending — so each cell adds each key once, as
    /// its [`rating_lookup`] map would.
    fn build(cells: &[Cow<'_, Value>], weights: &[f64]) -> Option<Self> {
        let ratings = || cells.iter().filter_map(|c| c.as_ratings());
        if !ratings().all(|r| strictly_ascending(r, |e| &e.0)) {
            return None;
        }
        let (lo, n) = dense_span(ratings().flat_map(|r| r.iter().map(|(k, _)| k)))?;
        let mut slots = vec![0u32; n];
        let mut accs = Vec::new();
        for (c, &w) in cells.iter().zip(weights) {
            for (k, rating) in c.as_ratings().unwrap_or_default() {
                let Value::Int(k) = *k else { continue };
                let slot = &mut slots[k.wrapping_sub(lo) as usize];
                if *slot == 0 {
                    accs.push(ScoreAcc::EMPTY);
                    *slot = accs.len() as u32;
                }
                accs[*slot as usize - 1].add(*rating, w);
            }
        }
        Some(DenseKeyAccs { lo, slots, accs })
    }

    /// Key `k`'s accumulator, empty when no comparator holds it.
    fn get(&self, k: i64) -> ScoreAcc {
        k.checked_sub(self.lo)
            .and_then(|i| self.slots.get(usize::try_from(i).ok()?))
            .and_then(|&slot| self.accs.get((slot as usize).checked_sub(1)?))
            .copied()
            .unwrap_or(ScoreAcc::EMPTY)
    }
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
            if let Some((col, BinOp::Eq, v)) = as_col_cmp_literal(table, c) {
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
        if let Some((col, BinOp::Eq, v)) = as_col_cmp_literal(table, c) {
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
        if let Some((col, op, v)) = as_col_cmp_literal(table, c) {
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

/// `col <op> literal`, either way round, with the literal as the key an
/// index on `col` holds for it. The row rules read an INT literal against
/// a DATE column as a DATE (`binary_scalar`), so the key is converted the
/// same way; an INT column against a DATE literal compares as a wrapped
/// DATE, which no key on the column expresses, so no index serves it.
fn as_col_cmp_literal(t: &Table, e: &Expr) -> Option<(usize, BinOp, Value)> {
    let Expr::Binary { op, left, right } = e else {
        return None;
    };
    let (col, op, v) = match (&**left, &**right) {
        (Expr::Column(c), Expr::Literal(v)) => (*c, *op, v),
        // Flip the comparison: v < col  ≡  col > v.
        (Expr::Literal(v), Expr::Column(c)) => match op {
            BinOp::Lt => (*c, BinOp::Gt, v),
            BinOp::LtEq => (*c, BinOp::GtEq, v),
            BinOp::Gt => (*c, BinOp::Lt, v),
            BinOp::GtEq => (*c, BinOp::LtEq, v),
            other => (*c, *other, v),
        },
        _ => return None,
    };
    let key = match (t.schema().column(col).data_type, v) {
        (DataType::Date, &Value::Int(i)) => Value::Date(i as i32),
        (DataType::Int, Value::Date(_)) => return None,
        _ => v.clone(),
    };
    op.is_comparison().then_some((col, op, key))
}

/// The rows `path` fetches, with their ids, before the filter runs.
fn index_fetch<'t>(
    t: &'t Table,
    path: &AccessPath,
) -> RelResult<impl Iterator<Item = (RowId, &'t Row)> + 't> {
    let index = |name: &str| {
        t.index(name)
            .ok_or_else(|| RelError::UnknownIndex(name.to_owned()))
    };
    let rids: Box<dyn Iterator<Item = RowId> + 't> = match path {
        AccessPath::SeqScan => Box::new(t.scan().map(|(rid, _)| rid)),
        AccessPath::PkLookup(key) => Box::new(t.rowid_by_pk(key).into_iter()),
        AccessPath::IndexEq(name, key) => {
            Box::new(index(name)?.get(key).into_iter().flatten().copied())
        }
        AccessPath::IndexRange {
            index: name,
            lower,
            upper,
        } => {
            let lo = lower.as_ref().map(|v| vec![v.clone()]);
            let hi = upper.as_ref().map(|v| vec![v.clone()]);
            Box::new(index(name)?.range(lo.as_ref(), hi.as_ref()))
        }
    };
    Ok(rids.filter_map(move |rid| t.get(rid).map(|row| (rid, row))))
}

/// The live rows of `t` that satisfy `filter`, fetched through `path`
/// (from [`choose_access_path`]), with their ids, in the order the path
/// fetches them (row-id order for a `SeqScan`). The whole filter is
/// checked on every fetched row: that keeps an index equality on a NULL
/// literal, and rows the index over-fetches, out of the result — and a
/// row the path skips is never evaluated. A `SeqScan` walks the row
/// slots, not the columnar image, which a write lock holder would
/// otherwise rebuild after every write.
pub(crate) fn matching_rows<'t>(
    t: &'t Table,
    path: &AccessPath,
    filter: &Option<Expr>,
) -> RelResult<Vec<(RowId, &'t Row)>> {
    let mut rows = Vec::new();
    for (rid, row) in index_fetch(t, path)? {
        if filter
            .as_ref()
            .map_or(Ok(true), |f| f.eval_predicate(row))?
        {
            rows.push((rid, row));
        }
    }
    Ok(rows)
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

/// Which algorithm a join used (EXPLAIN ANALYZE annotation): a hash join
/// on `keys` columns gives its group ids' path, a nested loop none.
struct JoinInfo {
    keys: usize,
    ids: Option<IdPath>,
}

fn join_rows(
    left_rows: Vec<Row>,
    right_rows: Vec<Row>,
    left_width: usize,
    right_width: usize,
    kind: JoinKind,
    on: &Expr,
) -> RelResult<Vec<Row>> {
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
    Ok(out)
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

// ---------------------------------------------------------------------
// Vectorized (batch-at-a-time) operators
//
// Operators exchange `Batch`es: `Arc`-shared typed columns plus a
// selection vector. Filters narrow the selection instead of copying
// rows; projections run `Expr::eval_batch` kernels over the selected
// slots only. Row materialization happens once, at the `ResultSet`
// boundary. Results are byte-identical to the row-at-a-time reference
// executor ([`oracle`]) — `tests/batch_differential.rs` holds the line.
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
    let batches = batch.len().div_ceil(batch_size);
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
            .chunks(batch_size)
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
/// single row. Index-served paths touch few rows, so they take their
/// rows from [`matching_rows`], project them and transpose.
fn scan_batched(
    t: &Table,
    projection: &Option<Vec<usize>>,
    filter: &Option<Expr>,
    batch_size: usize,
) -> RelResult<(Batch, AccessPath, usize)> {
    let path = choose_access_path(t, filter);
    if cr_obs::enabled() {
        let m = metrics();
        match &path {
            AccessPath::SeqScan => m.scan_seq.inc(),
            AccessPath::PkLookup(_) => m.scan_pk.inc(),
            AccessPath::IndexEq(..) => m.scan_index_eq.inc(),
            AccessPath::IndexRange { .. } => m.scan_index_range.inc(),
        }
    }
    if path == AccessPath::SeqScan {
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
        return Ok((batch, path, batches));
    }
    let rows: Vec<Row> = matching_rows(t, &path, filter)?
        .into_iter()
        .map(|(_, r)| match projection {
            None => r.clone(),
            Some(cols) => cols.iter().map(|&i| r[i].clone()).collect(),
        })
        .collect();
    let width = projection
        .as_ref()
        .map_or(t.schema().columns().len(), Vec::len);
    Ok((Batch::from_rows(&rows, width), path, 1))
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

/// Batched hash join: group the right rows by key ([`KeyIds`]: a dense
/// array or arena-entry memo for a one-column key with a dense domain,
/// else the [`KeyTable`](crate::keys::KeyTable) over the key columns,
/// hashed and compared in place), probe the left view in order, then
/// gather both sides' output columns by match index (typed gathers; LEFT
/// OUTER's NULL extension gathers `NULL_SLOT`). Non-equi predicates use
/// the row nested-loop join and transpose.
fn join_batched(
    left: &Batch,
    right: &Batch,
    kind: JoinKind,
    on: &Expr,
) -> RelResult<(Batch, JoinInfo)> {
    let (left_width, right_width) = (left.width(), right.width());
    let (lk, rk, residual) = extract_equi_keys(on, left_width);
    if lk.is_empty() {
        let rows = join_rows(
            left.to_rows(),
            right.to_rows(),
            left_width,
            right_width,
            kind,
            on,
        )?;
        let info = JoinInfo { keys: 0, ids: None };
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
    let lkey = Key::new(lk.iter().map(|&c| live_column(left, c)), left.len());
    // NULL keys never join: their rows get `NO_GROUP`.
    let build = KeyIds::build(&rkey, &lkey);
    let groups = build.len();
    let mut start = vec![0usize; groups + 1];
    for &g in build.ids().iter().filter(|&&g| g != NO_GROUP) {
        start[g as usize + 1] += 1;
    }
    for g in 0..groups {
        start[g + 1] += start[g];
    }
    let mut rows = vec![0u32; start[groups]];
    let mut fill = start.clone();
    for (j, &g) in build
        .ids()
        .iter()
        .enumerate()
        .filter(|(_, &g)| g != NO_GROUP)
    {
        rows[fill[g as usize]] = j as u32;
        fill[g as usize] += 1;
    }
    let mut pairs: Vec<(u32, Option<u32>)> = Vec::new();
    for (j, g) in build.probe(&lkey).into_iter().enumerate() {
        let mut matched = false;
        let matches = match g {
            NO_GROUP => &[][..],
            g => &rows[start[g as usize]..start[g as usize + 1]],
        };
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
            keys: lk.len(),
            ids: Some(build.path()),
        },
    ))
}

/// Batched aggregation: group keys and aggregate arguments are read in
/// place (plain columns through the selection, other expressions as
/// kernels), and rows get dense group ids from [`KeyIds`] over the key
/// columns (first-seen order). Each group's key is a typed gather of its
/// first row. `COUNT`, and `SUM`/`AVG`/`MIN`/`MAX` over Int and Float
/// (`MIN`/`MAX` over Text too), accumulate from typed cells with
/// [`AggState`]'s rules; `DISTINCT` and other arguments feed `AggState`
/// itself, row by row.
fn aggregate_batched(
    batch: &Batch,
    group_by: &[Expr],
    aggs: &[AggExpr],
) -> RelResult<(Batch, IdPath)> {
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
    let ids = KeyIds::group(&key);
    let gids = ids.ids();
    // A global aggregate over empty input still yields one row.
    let groups = if group_by.is_empty() && n == 0 {
        1
    } else {
        ids.len()
    };
    let mut out: Vec<Option<BatchColumn>> = aggs
        .iter()
        .zip(&avals)
        .map(|(a, v)| typed_aggregate(a, *v, gids, groups))
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
        .map(|v| v.gather(ids.firsts()))
        .chain(
            out.into_iter()
                .map(|c| c.expect("every aggregate has a column")),
        )
        .map(Arc::new)
        .collect();
    Ok((Batch::new(cols, groups), ids.path()))
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
/// vector is permuted — column data never moves. With `top`, only the
/// first `top` rows of that order are kept: a bounded selection under the
/// same total order, then a sort of those rows alone, so they are the
/// full sort's first `top` rows exactly.
fn sort_batched(batch: Batch, keys: &[SortKey], top: Option<usize>) -> RelResult<Batch> {
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
    let cmp = |&a: &u32, &b: &u32| {
        let (i, j) = (a as usize, b as usize);
        order
            .iter()
            .map(|k| k.cmp(i, j))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    };
    let mut idx: Vec<u32> = (0..n as u32).collect();
    match top {
        Some(0) => idx.clear(),
        Some(k) if k < n => {
            idx.select_nth_unstable_by(k - 1, cmp);
            idx.truncate(k);
        }
        _ => {}
    }
    idx.sort_unstable_by(cmp);
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
        RecMethod::RatingLookup => {
            // An Int key reads the dense array when there is one; any
            // other key, today's hash map, built on first need.
            let dense = DenseKeyAccs::build(&ccells, &weights);
            let mut hashed = None;
            live.iter()
                .map(|(_, t)| match (as_rec_scalar(t), &dense) {
                    (Some(Value::Int(k)), Some(dense)) => dense.get(*k),
                    (Some(key), _) => hashed
                        .get_or_insert_with(|| key_accs(&ccells, &weights))
                        .get(key)
                        .copied()
                        .unwrap_or(ScoreAcc::EMPTY),
                    (None, _) => ScoreAcc::EMPTY,
                })
                .collect()
        }
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
/// when the related side is a bare projected scan — `[fk, key(, rating)]`,
/// no filter, what every workflow template lowers to — the nest map is
/// the table's version-keyed image ([`Table::nested`]) instead of a
/// rebuild from the scanned rows.
struct NestScan<'p> {
    plan: &'p LogicalPlan,
    table: &'p str,
    alias: &'p Option<String>,
    fk: usize,
    key: usize,
    rating: Option<usize>,
}

impl<'p> NestScan<'p> {
    /// `None` for any other related side: the caller builds from its
    /// batch.
    fn of(related: &'p LogicalPlan, rating: bool) -> Option<Self> {
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
        let (fk, key, rating) = match (cols.as_slice(), rating) {
            (&[fk, key], false) => (fk, key, None),
            (&[fk, key, r], true) => (fk, key, Some(r)),
            _ => return None,
        };
        Some(NestScan {
            plan: related,
            table,
            alias,
            fk,
            key,
            rating,
        })
    }

    fn serve<P: Profile>(&self, catalog: &Catalog, reverse: bool) -> RelResult<Served<P>> {
        catalog.with_table(self.table, |t| {
            let open = P::open();
            let label = P::label(|| {
                let op = scan_op(self.table, self.alias);
                (op, vec!["access=NestImage".to_owned()])
            });
            let scan = P::close(open, label, self.plan, t.len(), Vec::new());
            let (nest, cached) = t.nested(self.fk, self.key, self.rating)?;
            let reverse = match reverse {
                true => Some(t.nested(self.key, self.fk, None)?.0),
                false => None,
            };
            Ok((nest, reverse, cached, scan))
        })?
    }
}

/// What [`NestScan::serve`] returns: the image; with `reverse`, the
/// reverse image — `key` → `Value::Set` of `fk`, the same
/// [`Table::nested`] with the columns swapped — taken from the same pin
/// of the table, so both describe one version; whether the image was
/// cached; and the scan's profile node (one per plan node).
type Served<P> = (Arc<NestMap>, Option<Arc<NestMap>>, bool, P);

/// Count an Extend's nest map as served from a cached image or built.
fn count_nest(cached: bool) {
    if cr_obs::enabled() {
        let m = metrics();
        if cached { &m.nest_hits } else { &m.nest_builds }.inc();
    }
}

fn extend_label(
    plan: &LogicalPlan,
    rating: bool,
    key_col: usize,
    as_name: &str,
    cached: bool,
) -> OpLabel {
    let mut detail = extend_detail(rating, key_col, as_name);
    detail.push(format!("nest={}", if cached { "cached" } else { "built" }));
    plan_label(plan, detail)
}

/// The fewest keys a target cell must share with a comparator cell to
/// score above 0, for the methods proven (by `similarity`'s tests) to
/// score exactly 0 below it; `None` for any other method.
fn shared_key_floor(method: &RecMethod) -> Option<usize> {
    match method {
        RecMethod::Set(SetSim::Jaccard | SetSim::Dice | SetSim::Overlap | SetSim::Cosine) => {
            Some(1)
        }
        RecMethod::Ratings {
            sim: RatingsSim::InverseEuclidean | RatingsSim::Pearson | RatingsSim::Cosine,
            min_common,
        } => Some((*min_common).max(1)),
        _ => None,
    }
}

/// Recommend's physical choice: a target that may be scored by postings.
/// It is an Extend whose related side a [`NestScan`] serves, in the nest
/// mode the method reads, on a key column declared INT, whose nested
/// column is the one scored by a method [`shared_key_floor`] lists.
struct PostingsTarget<'p> {
    extend: &'p LogicalPlan,
    input: &'p LogicalPlan,
    scan: NestScan<'p>,
    key_col: usize,
    rating: bool,
    as_name: &'p str,
    /// [`shared_key_floor`] of the method.
    floor: usize,
}

impl<'p> PostingsTarget<'p> {
    fn of(target: &'p LogicalPlan, spec: &RecSpec, catalog: &Catalog) -> Option<Self> {
        let LogicalPlan::Extend {
            input,
            related,
            key_col,
            rating,
            as_name,
            ..
        } = target
        else {
            return None;
        };
        let floor = shared_key_floor(&spec.method)?;
        let ratings_method = matches!(spec.method, RecMethod::Ratings { .. });
        if *rating != ratings_method || spec.target_col != input.schema().len() {
            return None;
        }
        let scan = NestScan::of(related, *rating)?;
        let int_key = catalog
            .with_table_schema(scan.table, |s| {
                s.column(scan.key).data_type == DataType::Int
            })
            .ok()?;
        int_key.then_some(PostingsTarget {
            extend: target,
            input,
            scan,
            key_col: *key_col,
            rating: *rating,
            as_name,
            floor,
        })
    }

    /// Run the Extend up to its nest probe: its input, then the forward
    /// and reverse images, and close its profile node (reporting its input
    /// rows). The probe waits for the comparator ([`Deferred::extend`]).
    fn run<P: Profile>(&self, catalog: &Catalog, batch_size: usize) -> RelResult<(Deferred, P)> {
        let open = P::open();
        let (input, ichild) = run_batched::<P>(self.input, catalog, batch_size)?;
        let (nest, reverse, cached, rchild) = self.scan.serve::<P>(catalog, true)?;
        count_nest(cached);
        let label =
            P::label(|| extend_label(self.extend, self.rating, self.key_col, self.as_name, cached));
        let profile = P::close(open, label, self.extend, input.len(), vec![ichild, rchild]);
        let deferred = Deferred {
            input,
            key_col: self.key_col,
            nest,
            reverse,
            floor: self.floor,
        };
        Ok((deferred, profile))
    }
}

/// A [`PostingsTarget`] Extend's input and images, waiting for the
/// comparator.
struct Deferred {
    input: Batch,
    key_col: usize,
    nest: Arc<NestMap>,
    reverse: Option<Arc<NestMap>>,
    floor: usize,
}

impl Deferred {
    /// The Extend's output over the candidate rows only, when
    /// [`Deferred::candidates`] finds them, else over every input row;
    /// with the number of input rows and whether only candidates were
    /// kept. A row that is not a candidate shares fewer than `floor` keys
    /// with every comparator cell, so every similarity of it is exactly
    /// 0 and Recommend would drop it: the answer is the same.
    fn extend(self, comparator: &Batch, spec: &RecSpec) -> RelResult<(Batch, usize, bool)> {
        let input_rows = self.input.len();
        let keep = self.candidates(comparator, spec);
        let fused = keep.is_some();
        let input = match keep {
            Some(keep) => self.input.select(keep),
            None => self.input,
        };
        Ok((
            extend_batched(input, &self.nest, self.key_col)?,
            input_rows,
            fused,
        ))
    }

    /// The positions of the input rows whose key shares at least `floor`
    /// keys with the comparator cells (a count summed over all of them,
    /// so a superset of those that share `floor` with one), in input
    /// order. Rows with a key that is not Int are kept as well, which is
    /// always safe: a kept row is scored as in the full walk. `None` — score
    /// every row — unless every comparator cell has the method's shape and
    /// passes [`dense_keys`], and the postings' foreign keys are Int (or
    /// NULL) within [`DENSE_SPAN`].
    fn candidates(&self, comparator: &Batch, spec: &RecSpec) -> Option<Vec<u32>> {
        let col = comparator.column(spec.comparator_col);
        let cells: Vec<Cow<'_, Value>> = (0..comparator.len())
            .map(|i| cell(col, comparator.base_index(i)))
            .collect();
        let ratings = matches!(spec.method, RecMethod::Ratings { .. });
        let mut keys: Vec<&Value> = Vec::new();
        for c in &cells {
            let start = keys.len();
            match (ratings, c.as_ref()) {
                (false, Value::Set(s)) => keys.extend(s.iter()),
                (true, Value::Ratings(r)) => keys.extend(r.iter().map(|(k, _)| k)),
                _ => return None,
            }
            if !dense_keys(keys[start..].iter().copied()) {
                return None;
            }
        }
        let reverse = self.reverse.as_deref()?;
        let postings: Vec<&[Value]> = keys
            .iter()
            .filter_map(|k| reverse.get(k).and_then(Value::as_set))
            .collect();
        // NULL foreign keys match no target; any other non-Int one could
        // equal an Int key, so it leaves the set to the full walk.
        let fks = || postings.iter().flat_map(|p| p.iter());
        let mut bounds: Option<(i64, i64)> = None;
        for fk in fks() {
            match *fk {
                Value::Int(k) => {
                    bounds = Some(bounds.map_or((k, k), |(lo, hi)| (lo.min(k), hi.max(k))));
                }
                Value::Null => {}
                _ => return None,
            }
        }
        let (lo, hi) = bounds.unwrap_or((0, 0));
        if hi.abs_diff(lo) >= DENSE_SPAN {
            return None;
        }
        let mut counts = vec![0u32; hi.abs_diff(lo) as usize + 1];
        for fk in fks() {
            if let Value::Int(k) = *fk {
                counts[k.wrapping_sub(lo) as usize] += 1;
            }
        }
        let floor = self.floor as u32;
        let candidate = |k: i64| {
            k.checked_sub(lo)
                .and_then(|i| counts.get(usize::try_from(i).ok()?))
                .is_some_and(|&n| n >= floor)
        };
        let (n, col) = (self.input.len(), self.input.column(self.key_col));
        let vals = Vals::View {
            col,
            slots: self.input.slots(),
        };
        let keep: Vec<u32> = match vals.ints() {
            Some(ints) => (0..n)
                .filter(|&j| ints.get(j).is_none_or(candidate))
                .map(|j| j as u32)
                .collect(),
            None => (0..n)
                .filter(|&j| match cell(col, self.input.base_index(j)).as_ref() {
                    Value::Int(k) => candidate(*k),
                    _ => true,
                })
                .map(|j| j as u32)
                .collect(),
        };
        Some(keep)
    }
}

/// The vectorized walker (the one execution path). Labels name each
/// node's operator and fields, plus `batches=`/`selected=`.
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
            let (out, ids) = aggregate_batched(&batch, group_by, aggs)?;
            let label = P::label(|| plan_label(plan, aggregate_detail(group_by, aggs, ids)));
            (out, label, vec![child])
        }

        LogicalPlan::Sort { input, keys } => {
            let (batch, child) = run_batched::<P>(input, catalog, batch_size)?;
            let batch = sort_batched(batch, keys, None)?;
            let label = P::label(|| plan_label(plan, vec![format!("keys={}", keys.len())]));
            (batch, label, vec![child])
        }

        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let (batch, child) = match (&**input, limit) {
                // Top-N: the sort keeps only the rows the limit can return.
                (LogicalPlan::Sort { input: rows, keys }, Some(limit)) => {
                    let open = P::open();
                    let top = offset.saturating_add(*limit);
                    let (batch, child) = run_batched::<P>(rows, catalog, batch_size)?;
                    let batch = sort_batched(batch, keys, Some(top))?;
                    let label = P::label(|| {
                        let detail = vec![format!("keys={}", keys.len()), format!("top={top}")];
                        plan_label(input, detail)
                    });
                    let sorted = P::close(open, label, input, batch.len(), vec![child]);
                    (batch, sorted)
                }
                // Any other input (or no limit) runs as itself, whatever
                // its variant; the limit then slices what it returns.
                _ => run_batched::<P>(input, catalog, batch_size)?,
            };
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
            let (nest, cached, rchild) = match NestScan::of(related, *rating) {
                Some(scan) => {
                    let (nest, _, cached, rchild) = scan.serve::<P>(catalog, false)?;
                    (nest, cached, rchild)
                }
                None => {
                    let (r, rchild) = run_batched::<P>(related, catalog, batch_size)?;
                    (Arc::new(nest_from_batch(&r, *rating)?), false, rchild)
                }
            };
            count_nest(cached);
            let batch = extend_batched(i, &nest, *key_col)?;
            let label = P::label(|| extend_label(plan, *rating, *key_col, as_name, cached));
            (batch, label, vec![ichild, rchild])
        }

        LogicalPlan::Recommend {
            target,
            comparator,
            spec,
            ..
        } => {
            // The target side runs first either way; a postings target
            // defers its Extend's nest probe until the comparator is known.
            let (t, c, children, input_rows, fused) =
                match PostingsTarget::of(target, spec, catalog) {
                    Some(postings) => {
                        let (deferred, tchild) = postings.run::<P>(catalog, batch_size)?;
                        let (c, cchild) = run_batched::<P>(comparator, catalog, batch_size)?;
                        let (t, input_rows, fused) = deferred.extend(&c, spec)?;
                        (t, c, vec![tchild, cchild], input_rows, fused)
                    }
                    None => {
                        let (t, tchild) = run_batched::<P>(target, catalog, batch_size)?;
                        let (c, cchild) = run_batched::<P>(comparator, catalog, batch_size)?;
                        let input_rows = t.len();
                        (t, c, vec![tchild, cchild], input_rows, false)
                    }
                };
            if cr_obs::enabled() {
                metrics().rec_scored.add(t.len() as u64);
            }
            let batch = recommend_batched(&t, &c, spec);
            let label = P::label(|| {
                let mut detail = recommend_detail(spec);
                detail.extend(probe_detail(spec, &c));
                detail.push(match fused {
                    true => format!("targets=postings:{}/{input_rows}", t.len()),
                    false => format!("targets=all:{input_rows}"),
                });
                plan_label(plan, detail)
            });
            (batch, label, children)
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

    /// The row rules read an INT literal against a DATE column as a DATE,
    /// so an index on the column is probed with the DATE key; an INT
    /// column against a DATE literal compares as a wrapped DATE, which no
    /// key on the column expresses, so it is a sequential scan.
    #[test]
    fn date_keys_compare_as_the_row_rules_do() {
        let db = Database::new();
        db.execute_sql("CREATE TABLE e (id INT PRIMARY KEY, d DATE)")
            .unwrap();
        db.execute_sql("CREATE INDEX e_d ON e (d) USING BTREE")
            .unwrap();
        db.execute_sql("INSERT INTO e VALUES (1, 100), (2, 200), (3, NULL)")
            .unwrap();
        db.catalog()
            .with_table("e", |t| {
                let d = || Expr::col_idx(1);
                let path = |f: Expr| choose_access_path(t, &Some(f));
                assert_eq!(
                    path(Expr::lit(100i64).eq(d())),
                    AccessPath::IndexEq("e_d".into(), vec![Value::Date(100)])
                );
                assert_eq!(
                    path(d().lt_eq(Expr::lit(150i64))),
                    AccessPath::IndexRange {
                        index: "e_d".into(),
                        lower: Bound::Unbounded,
                        upper: Bound::Included(Value::Date(150)),
                    }
                );
                let id_is_date = Expr::col_idx(0).eq(Expr::lit(Value::Date(1)));
                assert_eq!(path(id_is_date), AccessPath::SeqScan);
            })
            .unwrap();
        let ids = |sql: &str| db.query_sql(sql).unwrap().rows;
        assert_eq!(ids("SELECT id FROM e WHERE d = 100"), [[Value::Int(1)]]);
        assert_eq!(ids("SELECT id FROM e WHERE d <= 150"), [[Value::Int(1)]]);
        assert_eq!(
            db.execute_sql("DELETE FROM e WHERE d = 100")
                .unwrap()
                .scalar(),
            Some(&Value::Int(1))
        );
        assert_eq!(ids("SELECT id FROM e WHERE d < 300"), [[Value::Int(2)]]);
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
            let plan = crate::sql::plan_query(sql, &db.catalog()).unwrap();
            let rs = execute(&plan, &db.catalog()).unwrap();
            assert_eq!(rs.rows.len(), want, "sql={sql}");
            assert_eq!(
                rs,
                oracle::execute(&plan, &db.catalog()).unwrap(),
                "sql={sql}"
            );
        }
    }

    /// A batch size of 0 is not a second walker: it runs batched, as 1.
    #[test]
    fn zero_batch_size_runs_batched() {
        let db = db();
        let sql = "SELECT dep, COUNT(*) AS n FROM courses WHERE units > 3 GROUP BY dep";
        let plan = crate::sql::plan_query(sql, &db.catalog()).unwrap();
        let zero = execute_with(&plan, &db.catalog(), &ExecOptions { batch_size: 0 }).unwrap();
        assert_eq!(zero, execute(&plan, &db.catalog()).unwrap());
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
        let related = PlanBuilder::scan_columns(&db.catalog(), "taken", cols).unwrap();
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

    /// A target that shares no key with any comparator adds only `0.0`
    /// scores, and every aggregate drops it — the other half of what the
    /// postings path rests on. An infinite weight makes the score NaN
    /// (0 × ∞), which drops too.
    #[test]
    fn score_acc_of_zero_scores_finishes_none() {
        let aggs = [
            RecAggPlan::Max,
            RecAggPlan::Avg,
            RecAggPlan::Sum,
            RecAggPlan::WeightedAvg { weight_col: 0 },
        ];
        let weights: [&[f64]; 6] = [
            &[1.0],
            &[0.0],
            &[-2.0],
            &[0.5, 0.25],
            &[3.0, -3.0],
            &[-1.0, 0.0, 4.0],
        ];
        for agg in &aggs {
            for ws in weights {
                let mut acc = ScoreAcc::EMPTY;
                for &w in ws {
                    acc.add(0.0, w);
                }
                assert_eq!(acc.finish(agg), None, "{agg} {ws:?}");
            }
        }
        let mut acc = ScoreAcc::EMPTY;
        acc.add(0.0, f64::INFINITY);
        assert_eq!(acc.finish(&aggs[3]), None);
    }

    /// The proven list: each set and ratings similarity, with the number
    /// of shared keys below which it scores 0; nothing else.
    #[test]
    fn shared_key_floor_lists_the_proven_methods() {
        use crate::similarity::TextSim;
        for sim in [
            SetSim::Jaccard,
            SetSim::Dice,
            SetSim::Overlap,
            SetSim::Cosine,
        ] {
            assert_eq!(shared_key_floor(&RecMethod::Set(sim)), Some(1));
        }
        for sim in [
            RatingsSim::InverseEuclidean,
            RatingsSim::Pearson,
            RatingsSim::Cosine,
        ] {
            for (min_common, floor) in [(0, 1), (1, 1), (2, 2), (5, 5)] {
                let method = RecMethod::Ratings { sim, min_common };
                assert_eq!(shared_key_floor(&method), Some(floor));
            }
        }
        assert_eq!(
            shared_key_floor(&RecMethod::Text(TextSim::WordJaccard)),
            None
        );
        assert_eq!(shared_key_floor(&RecMethod::RatingLookup), None);
    }

    /// `RatingLookup` reads Int target keys from the dense array and any
    /// other key from the hash map, where a Float key equals an Int one:
    /// both agree with the row oracle.
    #[test]
    fn rating_lookup_dense_and_hashed_keys_agree_with_oracle() {
        let db = nest_db();
        db.execute_sql("CREATE TABLE picks (pid INT PRIMARY KEY, i INT, f FLOAT)")
            .unwrap();
        db.execute_sql(
            "INSERT INTO picks VALUES (1,101,101.0),(2,102,102.5),(3,103,103.0),\
             (4,NULL,NULL),(5,-7,102.0)",
        )
        .unwrap();
        for (col, agg) in [(1, RecAggPlan::Avg), (2, RecAggPlan::Sum)] {
            let targets = PlanBuilder::scan(&db.catalog(), "picks").unwrap();
            let spec = RecSpec {
                target_col: col,
                comparator_col: 2,
                method: RecMethod::RatingLookup,
                agg,
                k: None,
                unbounded_ok: false,
                score_name: "score".into(),
                exclude_seen: None,
            };
            let comparators = PlanBuilder::from_plan(extend_students(&db, true));
            let plan = targets.recommend(comparators, spec).unwrap().build();
            let rs = db.run_plan(&plan).unwrap();
            assert_eq!(rs, oracle::execute(&plan, &db.catalog()).unwrap(), "#{col}");
            assert_eq!(rs.rows.len(), 3, "#{col}: {rs:?}");
        }
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
        let oracle = oracle::execute(&bare, &db.catalog()).unwrap();
        assert_eq!(oracle.rows, after);
        // ...and a delete retires it.
        db.execute_sql("DELETE FROM taken WHERE tid = 7").unwrap();
        let (after, rebuilt) = nest_detail(&bare);
        assert_eq!(rebuilt, "nest=built");
        assert_eq!(after[2][2], Value::Ratings(Arc::new([])));
        assert_eq!(nest_detail(&filtered).0, after);
    }
}
