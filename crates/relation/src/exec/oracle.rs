//! The row-at-a-time reference executor.
//!
//! [`execute`] walks a plan as a serial pipeline of `Vec<Row>` operators:
//! the semantics the vectorized walker in [`super`] must reproduce
//! byte for byte. `tests/batch_differential.rs` and the engine's own
//! tests call it by name as their ground truth; nothing in the shipped
//! query path does.
//!
//! It is deliberately independent of what it checks: scans read every
//! live row ([`Table::scan`]), evaluate the pushed-down filter and then
//! project — no access-path choice, no index — so an index-path bug shows
//! up as a differential failure instead of on both sides. It records no
//! metric, opens no trace span and builds no EXPLAIN ANALYZE tree.
//!
//! Helpers both walkers need (the join, `AggState`, the Recommend score
//! fold and ranking, the Extend probe) stay in [`super`], so a rule
//! such as "NULL keys never join" or "ties break by the first column" is
//! written once.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use super::{
    as_rec_scalar, extend_seen, join_rows, nest_probe, pair_score, rating_lookup, rec_order,
    rec_weight, AggState, ResultSet, ScoreAcc,
};
use crate::catalog::Catalog;
use crate::error::RelResult;
use crate::expr::Expr;
use crate::nest::NestMap;
use crate::plan::{AggExpr, AggFn, LogicalPlan, RecAggPlan, RecMethod, RecSpec, SortKey};
use crate::row::Row;
use crate::table::Table;
use crate::value::Value;

/// Execute `plan` on the row-at-a-time reference walker. The plan runs
/// as given (no optimization); the result carries the plan's schema.
pub fn execute(plan: &LogicalPlan, catalog: &Catalog) -> RelResult<ResultSet> {
    Ok(ResultSet {
        schema: plan.schema().clone(),
        rows: run(plan, catalog)?,
    })
}

fn run(plan: &LogicalPlan, catalog: &Catalog) -> RelResult<Vec<Row>> {
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            filter,
            ..
        } => catalog.with_table(table, |t| scan_rows(t, projection, filter))?,

        LogicalPlan::Filter { input, predicate } => filter_rows(run(input, catalog)?, predicate),

        LogicalPlan::Project { input, exprs, .. } => project_rows(run(input, catalog)?, exprs),

        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => join_rows(
            run(left, catalog)?,
            run(right, catalog)?,
            left.schema().len(),
            right.schema().len(),
            *kind,
            on,
        ),

        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => aggregate_rows(&run(input, catalog)?, group_by, aggs),

        LogicalPlan::Sort { input, keys } => sort_rows(run(input, catalog)?, keys),

        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => Ok(limit_rows(run(input, catalog)?, *limit, *offset)),

        LogicalPlan::Values { rows, .. } => Ok(rows.clone()),

        LogicalPlan::Union { left, right } => {
            let mut rows = run(left, catalog)?;
            rows.append(&mut run(right, catalog)?);
            Ok(rows)
        }

        LogicalPlan::Extend {
            input,
            related,
            key_col,
            rating,
            ..
        } => extend_rows(
            run(input, catalog)?,
            &run(related, catalog)?,
            *key_col,
            *rating,
        ),

        LogicalPlan::Recommend {
            target,
            comparator,
            spec,
            ..
        } => Ok(recommend_rows(
            run(target, catalog)?,
            &run(comparator, catalog)?,
            spec,
        )),
    }
}

/// Every live row that passes the pushed-down filter, projected.
fn scan_rows(
    table: &Table,
    projection: &Option<Vec<usize>>,
    filter: &Option<Expr>,
) -> RelResult<Vec<Row>> {
    let mut out = Vec::new();
    for (_, r) in table.scan() {
        if let Some(f) = filter {
            if !f.eval_predicate(r)? {
                continue;
            }
        }
        out.push(match projection {
            None => r.clone(),
            Some(cols) => cols.iter().map(|&i| r[i].clone()).collect(),
        });
    }
    Ok(out)
}

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

/// Precomputed per-run state for the recommend operator: the exclusion
/// key set and (for `RatingLookup`) one key → rating map per comparator.
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

/// Sort scored targets ([`rec_order`], stably) and apply top-k.
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

fn recommend_rows(target_rows: Vec<Row>, comparator_rows: &[Row], spec: &RecSpec) -> Vec<Row> {
    let ctx = build_rec_context(comparator_rows, spec);
    let scored = target_rows
        .into_iter()
        .filter_map(|t| score_target(t, comparator_rows, spec, &ctx))
        .collect();
    finish_recommend(scored, spec)
}

// ---------------------------------------------------------------------
// Aggregation and sort
// ---------------------------------------------------------------------

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
