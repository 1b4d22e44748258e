//! Binder: SQL AST → logical plans, and statement execution.

use crate::catalog::Catalog;
use crate::error::{RelError, RelResult};
use crate::exec::{self, AccessPath, ResultSet};
use crate::expr::{BinOp, Expr, ScalarFn};
use crate::plan::{optimizer, AggExpr, AggFn, JoinKind, LogicalPlan, PlanBuilder};
use crate::schema::{Column, Schema};
use crate::table::{Table, Write};
use crate::value::Value;

use super::affected;
use super::ast::*;

/// Execute a single statement.
pub fn execute_statement(stmt: &Statement, catalog: &Catalog) -> RelResult<ResultSet> {
    match stmt {
        Statement::CreateTable(ct) => exec_create_table(ct, catalog),
        Statement::DropTable { name } => {
            catalog.drop_table(name)?;
            Ok(affected(0))
        }
        Statement::CreateIndex(ci) => exec_create_index(ci, catalog),
        Statement::Insert(ins) => exec_insert(ins, catalog),
        Statement::Select(q) => {
            let plan = bind_select(q, catalog)?;
            let plan = optimizer::optimize(plan);
            exec::execute(&plan, catalog)
        }
        Statement::Update(u) => exec_update(u, catalog),
        Statement::Delete(d) => exec_delete(d, catalog),
        Statement::Explain(inner) => exec_explain(inner, catalog),
    }
}

fn exec_explain(stmt: &Statement, catalog: &Catalog) -> RelResult<ResultSet> {
    let text = match stmt {
        Statement::Select(q) => {
            let plan = bind_select(q, catalog)?;
            optimizer::optimize(plan).explain()
        }
        // `Delete CommentVotes via PkLookup[5,7]`: the target table and
        // the access path that finds the rows the statement changes.
        Statement::Update(Update { table, filter, .. })
        | Statement::Delete(Delete { table, filter }) => {
            let verb = if matches!(stmt, Statement::Update(_)) {
                "Update"
            } else {
                "Delete"
            };
            catalog.with_table(table, |t| -> RelResult<String> {
                let (_, path) = dml_target(t, filter.as_ref())?;
                Ok(format!("{verb} {} via {path}\n", t.name()))
            })??
        }
        other => format!("{other:#?}\n"),
    };
    let rows = text.lines().map(|l| vec![Value::text(l)]).collect();
    Ok(ResultSet {
        schema: Schema::new(vec![Column::new("plan", crate::schema::DataType::Text)]),
        rows,
    })
}

fn exec_create_table(ct: &CreateTable, catalog: &Catalog) -> RelResult<ResultSet> {
    let mut columns = Vec::with_capacity(ct.columns.len());
    let mut pk: Vec<usize> = Vec::new();
    for (i, c) in ct.columns.iter().enumerate() {
        columns.push(Column {
            name: c.name.clone(),
            data_type: c.data_type,
            nullable: !c.not_null,
        });
        if c.primary_key {
            pk.push(i);
        }
    }
    if !ct.primary_key.is_empty() {
        if !pk.is_empty() {
            return Err(RelError::Invalid(
                "both column-level and table-level PRIMARY KEY given".into(),
            ));
        }
        for name in &ct.primary_key {
            let i = ct
                .columns
                .iter()
                .position(|c| c.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| RelError::UnknownColumn(name.clone()))?;
            columns[i].nullable = false;
            pk.push(i);
        }
    }
    let schema = Schema::qualified(&ct.name, columns);
    catalog.create_table(&ct.name, schema, pk)?;
    Ok(affected(0))
}

fn exec_create_index(ci: &CreateIndex, catalog: &Catalog) -> RelResult<ResultSet> {
    catalog.with_table_mut(&ci.table, |t| {
        let positions = ci
            .columns
            .iter()
            .map(|c| t.schema().index_of(c))
            .collect::<RelResult<Vec<_>>>()?;
        let kind = if ci.btree {
            crate::index::IndexKind::BTree
        } else {
            crate::index::IndexKind::Hash
        };
        t.create_index(&ci.name, positions, kind, ci.unique)
    })??;
    Ok(affected(0))
}

fn exec_insert(ins: &Insert, catalog: &Catalog) -> RelResult<ResultSet> {
    let schema = catalog.table_schema(&ins.table)?;
    // Map provided columns to positions (or identity if none given).
    let positions: Vec<usize> = if ins.columns.is_empty() {
        (0..schema.len()).collect()
    } else {
        ins.columns
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<RelResult<Vec<_>>>()?
    };
    let empty_row: Vec<Value> = Vec::new();
    let mut rows = Vec::with_capacity(ins.rows.len());
    for tuple in &ins.rows {
        if tuple.len() != positions.len() {
            return Err(RelError::Arity {
                expected: positions.len(),
                found: tuple.len(),
            });
        }
        let mut row = vec![Value::Null; schema.len()];
        for (value_expr, &pos) in tuple.iter().zip(&positions) {
            let e = convert_scalar(value_expr)?;
            if !e.is_constant() {
                return Err(RelError::Invalid(
                    "INSERT values must be constant expressions".into(),
                ));
            }
            row[pos] = e.eval(&empty_row)?;
        }
        rows.push(Write::Insert(row));
    }
    let n = rows.len();
    catalog.with_table_mut(&ins.table, |t| t.apply(rows))??;
    Ok(affected(n))
}

/// A DML statement's WHERE bound over `t` and folded, as the optimizer
/// folds a scan's pushed filter (so `id = -3` is a key equality), with
/// the access path that finds its rows.
fn dml_target(t: &Table, filter: Option<&SqlExpr>) -> RelResult<(Option<Expr>, AccessPath)> {
    let filter = match filter {
        Some(f) => Some(convert_scalar(f)?.bind(t.schema())?.fold()),
        None => None,
    };
    let path = exec::choose_access_path(t, &filter);
    Ok((filter, path))
}

fn exec_update(u: &Update, catalog: &Catalog) -> RelResult<ResultSet> {
    let n = catalog.with_table_mut(&u.table, |t| -> RelResult<usize> {
        let (filter, path) = dml_target(t, u.filter.as_ref())?;
        let schema = t.schema();
        let assignments: Vec<(usize, Expr)> = u
            .assignments
            .iter()
            .map(|(col, e)| Ok((schema.index_of(col)?, convert_scalar(e)?.bind(schema)?)))
            .collect::<RelResult<_>>()?;
        let mut rows = exec::matching_rows(t, &path, &filter)?;
        // In row-id order, as a full scan meets them: the order decides
        // which conflict a failing statement reports.
        rows.sort_unstable_by_key(|&(rid, _)| rid);
        let updates = rows
            .into_iter()
            .map(|(rid, row)| {
                let mut new_row = row.clone();
                for (pos, e) in &assignments {
                    new_row[*pos] = e.eval(row)?;
                }
                Ok(Write::Update(rid, new_row))
            })
            .collect::<RelResult<Vec<_>>>()?;
        let n = updates.len();
        t.apply(updates)?;
        Ok(n)
    })??;
    Ok(affected(n))
}

fn exec_delete(d: &Delete, catalog: &Catalog) -> RelResult<ResultSet> {
    let n = catalog.with_table_mut(&d.table, |t| -> RelResult<usize> {
        let (filter, path) = dml_target(t, d.filter.as_ref())?;
        let mut victims: Vec<_> = exec::matching_rows(t, &path, &filter)?
            .into_iter()
            .map(|(rid, _)| rid)
            .collect();
        victims.sort_unstable(); // logged in row-id order, as a full scan would
        let n = victims.len();
        t.apply(victims.into_iter().map(Write::Delete).collect())?;
        Ok(n)
    })??;
    Ok(affected(n))
}

// ---------------------------------------------------------------------
// SELECT binding
// ---------------------------------------------------------------------

/// Bind a SELECT into a logical plan. The binder scopes names, expands
/// wildcards, rewrites aggregates and places ORDER BY and DISTINCT; every
/// node, and so every output schema, comes from [`PlanBuilder`].
pub fn bind_select(q: &Select, catalog: &Catalog) -> RelResult<LogicalPlan> {
    let mut plan = bind_single_select(q, catalog)?;
    if let Some(next) = &q.union {
        plan = plan.union(PlanBuilder::from_plan(bind_select(next, catalog)?))?;
    }
    Ok(plan.build())
}

fn bind_single_select(q: &Select, catalog: &Catalog) -> RelResult<PlanBuilder> {
    // 1. FROM
    let mut plan = match &q.from {
        None => PlanBuilder::values(Schema::default(), vec![Vec::new()])?,
        Some(from) => {
            let scan = |t: &TableRef| PlanBuilder::scan_as(catalog, &t.table, t.alias.as_deref());
            let mut p = scan(&from.base)?;
            for j in &from.joins {
                let kind = if j.left_outer {
                    JoinKind::LeftOuter
                } else {
                    JoinKind::Inner
                };
                // `convert_scalar` rejects an aggregate in the condition.
                p = p.join(scan(&j.table)?, kind, convert_scalar(&j.on)?)?;
            }
            p
        }
    };

    // 2. WHERE
    if let Some(f) = &q.filter {
        plan_guard_no_agg(f, "WHERE")?;
        plan = plan.filter(convert_scalar(f)?)?;
    }

    // 3. Expand select items.
    let input_schema = plan.schema();
    let mut items: Vec<(SqlExpr, String)> = Vec::new();
    for (i, item) in q.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for (ci, col) in input_schema.columns().iter().enumerate() {
                    items.push((
                        SqlExpr::Column {
                            qualifier: input_schema.qualifier(ci).map(str::to_owned),
                            name: col.name.clone(),
                        },
                        col.name.clone(),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(qual) => {
                let mut any = false;
                for (ci, col) in input_schema.columns().iter().enumerate() {
                    if input_schema
                        .qualifier(ci)
                        .is_some_and(|cq| cq.eq_ignore_ascii_case(qual))
                    {
                        items.push((
                            SqlExpr::Column {
                                qualifier: Some(qual.clone()),
                                name: col.name.clone(),
                            },
                            col.name.clone(),
                        ));
                        any = true;
                    }
                }
                if !any {
                    return Err(RelError::UnknownTable(qual.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| default_name(expr, i));
                items.push((expr.clone(), name));
            }
        }
    }

    let has_agg = !q.group_by.is_empty()
        || items.iter().any(|(e, _)| e.contains_aggregate())
        || q.having.as_ref().is_some_and(|h| h.contains_aggregate());

    // 4. Aggregation pipeline: the projection's expressions, over the
    //    aggregate's output or (unbound) over the input.
    let project_exprs = if has_agg {
        let (agg, exprs) = bind_aggregate_pipeline(q, plan, &items)?;
        plan = agg;
        exprs
    } else {
        if q.having.is_some() {
            return Err(RelError::Invalid("HAVING without aggregation".into()));
        }
        items
            .iter()
            .map(|(e, _)| convert_scalar(e))
            .collect::<RelResult<Vec<_>>>()?
    };

    // 5. ORDER BY placement: prefer the projected output (aliases and
    //    ordinals visible); without aggregation, fall back to sorting the
    //    projection's input.
    let names: Vec<&str> = items.iter().map(|(_, name)| name.as_str()).collect();
    let mut sort_after = Vec::with_capacity(q.order_by.len());
    for o in &q.order_by {
        match bind_order_key_output(&o.expr, &names) {
            Some(key) => sort_after.push((key, o.desc)),
            None if has_agg => {
                return Err(RelError::Invalid(format!(
                    "ORDER BY expression {:?} must appear in the SELECT list under aggregation",
                    o.expr
                )))
            }
            None => {
                let keys = q
                    .order_by
                    .iter()
                    .map(|o| Ok((convert_scalar(&o.expr)?, o.desc)))
                    .collect::<RelResult<Vec<_>>>()?;
                plan = plan.sort(keys)?;
                sort_after.clear();
                break;
            }
        }
    }
    plan = plan.project(project_exprs.into_iter().zip(names).collect())?;
    if !sort_after.is_empty() {
        plan = plan.sort(sort_after)?;
    }

    // 6. DISTINCT — group on all output columns.
    if q.distinct {
        let group_by = (0..plan.schema().len()).map(Expr::Column).collect();
        plan = plan.aggregate(group_by, Vec::new())?;
    }

    // 7. LIMIT/OFFSET.
    if q.limit.is_some() || q.offset.is_some() {
        plan = plan.limit_offset(q.limit, q.offset.unwrap_or(0));
    }
    Ok(plan)
}

/// Bind an ORDER BY key to a column of the projected output, whose
/// column names are `names`: either a bare name matching exactly one
/// output column, or an output ordinal (`ORDER BY 2`).
fn bind_order_key_output(e: &SqlExpr, names: &[&str]) -> Option<Expr> {
    match e {
        // Output columns have no qualifiers; a qualified reference like
        // `q.QuestionID` still resolves by bare name when unambiguous.
        SqlExpr::Column { name, .. } => {
            let mut hits = (0..names.len()).filter(|&i| names[i].eq_ignore_ascii_case(name));
            match (hits.next(), hits.next()) {
                (Some(i), None) => Some(Expr::Column(i)),
                _ => None,
            }
        }
        SqlExpr::Literal(Value::Int(n)) if *n >= 1 && (*n as usize) <= names.len() => {
            Some(Expr::Column(*n as usize - 1))
        }
        _ => None,
    }
}

fn plan_guard_no_agg(e: &SqlExpr, clause: &str) -> RelResult<()> {
    if e.contains_aggregate() {
        Err(RelError::Invalid(format!(
            "aggregate functions are not allowed in {clause}"
        )))
    } else {
        Ok(())
    }
}

fn default_name(e: &SqlExpr, i: usize) -> String {
    match e {
        SqlExpr::Column { name, .. } => name.clone(),
        SqlExpr::Func { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col_{i}"),
    }
}

/// Stack the Aggregate node (and HAVING's filter) on `input`, and return
/// the projection's expressions rewritten over the aggregate's output:
/// aggregate calls and group keys become positional references.
fn bind_aggregate_pipeline(
    q: &Select,
    input: PlanBuilder,
    items: &[(SqlExpr, String)],
) -> RelResult<(PlanBuilder, Vec<Expr>)> {
    let input_schema = input.schema();
    // Bind group-by expressions.
    let mut group_bound: Vec<Expr> = Vec::with_capacity(q.group_by.len());
    for g in &q.group_by {
        plan_guard_no_agg(g, "GROUP BY")?;
        group_bound.push(convert_scalar(g)?.bind(input_schema)?);
    }

    // Collect distinct aggregate calls across SELECT items + HAVING +
    // ORDER BY (order keys may be aggregates not in the select list).
    let mut agg_calls: Vec<(AggFn, Expr, bool)> = Vec::new();
    let mut collect =
        |e: &SqlExpr| -> RelResult<()> { collect_aggregates(e, input_schema, &mut agg_calls) };
    for (e, _) in items {
        collect(e)?;
    }
    if let Some(h) = &q.having {
        collect(h)?;
    }
    for o in &q.order_by {
        if o.expr.contains_aggregate() {
            collect(&o.expr)?;
        }
    }

    // HAVING and the projection, rewritten over the aggregate output.
    let rewrite = |e: &SqlExpr| rewrite_over_aggregate(e, input_schema, &group_bound, &agg_calls);
    let having = q.having.as_ref().map(rewrite).transpose()?;
    let exprs = items
        .iter()
        .map(|(e, _)| rewrite(e))
        .collect::<RelResult<Vec<_>>>()?;

    let aggs = agg_calls
        .into_iter()
        .enumerate()
        .map(|(i, (func, arg, distinct))| AggExpr {
            func,
            arg,
            distinct,
            name: format!("agg_{i}"),
        })
        .collect();
    let mut plan = input.aggregate(group_bound, aggs)?;
    if let Some(predicate) = having {
        plan = plan.filter(predicate)?;
    }
    Ok((plan, exprs))
}

/// Record every aggregate call in `e` (deduplicated).
fn collect_aggregates(
    e: &SqlExpr,
    input_schema: &Schema,
    out: &mut Vec<(AggFn, Expr, bool)>,
) -> RelResult<()> {
    match e {
        SqlExpr::Func {
            name,
            args,
            distinct,
            star,
        } if is_aggregate_name(name) => {
            let func = agg_fn(name, *star)?;
            let arg = if *star {
                Expr::lit(1i64)
            } else {
                if args.len() != 1 {
                    return Err(RelError::Invalid(format!(
                        "{name} expects exactly one argument"
                    )));
                }
                if args[0].contains_aggregate() {
                    return Err(RelError::Invalid("nested aggregates".into()));
                }
                convert_scalar(&args[0])?.bind(input_schema)?
            };
            if !out
                .iter()
                .any(|(f, a, d)| *f == func && *a == arg && *d == *distinct)
            {
                out.push((func, arg, *distinct));
            }
            Ok(())
        }
        SqlExpr::Binary { left, right, .. } => {
            collect_aggregates(left, input_schema, out)?;
            collect_aggregates(right, input_schema, out)
        }
        SqlExpr::Not(x) | SqlExpr::Neg(x) => collect_aggregates(x, input_schema, out),
        SqlExpr::IsNull { expr, .. } => collect_aggregates(expr, input_schema, out),
        SqlExpr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, input_schema, out)?;
            collect_aggregates(pattern, input_schema, out)
        }
        SqlExpr::InList { expr, list, .. } => {
            collect_aggregates(expr, input_schema, out)?;
            for x in list {
                collect_aggregates(x, input_schema, out)?;
            }
            Ok(())
        }
        SqlExpr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates(expr, input_schema, out)?;
            collect_aggregates(low, input_schema, out)?;
            collect_aggregates(high, input_schema, out)
        }
        SqlExpr::Func { args, .. } => {
            for a in args {
                collect_aggregates(a, input_schema, out)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn agg_fn(name: &str, star: bool) -> RelResult<AggFn> {
    Ok(match name.to_ascii_uppercase().as_str() {
        "COUNT" => {
            if star {
                AggFn::CountStar
            } else {
                AggFn::Count
            }
        }
        "SUM" => AggFn::Sum,
        "AVG" => AggFn::Avg,
        "MIN" => AggFn::Min,
        "MAX" => AggFn::Max,
        other => return Err(RelError::Invalid(format!("unknown aggregate {other}"))),
    })
}

/// Rewrite an expression over the Aggregate node's output: aggregate calls
/// become positional refs past the group keys; group-key-identical
/// subexpressions become their group position; remaining bare columns are
/// an error ("must appear in GROUP BY").
fn rewrite_over_aggregate(
    e: &SqlExpr,
    input_schema: &Schema,
    group_bound: &[Expr],
    agg_calls: &[(AggFn, Expr, bool)],
) -> RelResult<Expr> {
    // Aggregate call?
    if let SqlExpr::Func {
        name,
        args,
        distinct,
        star,
    } = e
    {
        if is_aggregate_name(name) {
            let func = agg_fn(name, *star)?;
            let arg = if *star {
                Expr::lit(1i64)
            } else {
                convert_scalar(&args[0])?.bind(input_schema)?
            };
            let idx = agg_calls
                .iter()
                .position(|(f, a, d)| *f == func && *a == arg && *d == *distinct)
                .ok_or_else(|| RelError::Invalid("aggregate not collected".into()))?;
            return Ok(Expr::Column(group_bound.len() + idx));
        }
    }
    // Group-key-identical subtree?
    if let Ok(converted) = convert_scalar(e) {
        if let Ok(bound) = converted.bind(input_schema) {
            if let Some(idx) = group_bound.iter().position(|g| *g == bound) {
                return Ok(Expr::Column(idx));
            }
            // Constant expressions pass through unchanged.
            if bound.is_constant() {
                return Ok(bound);
            }
        }
    }
    // Recurse structurally.
    match e {
        SqlExpr::Binary { op, left, right } => Ok(Expr::Binary {
            op: convert_binop(*op),
            left: Box::new(rewrite_over_aggregate(
                left,
                input_schema,
                group_bound,
                agg_calls,
            )?),
            right: Box::new(rewrite_over_aggregate(
                right,
                input_schema,
                group_bound,
                agg_calls,
            )?),
        }),
        SqlExpr::Not(x) => Ok(Expr::Not(Box::new(rewrite_over_aggregate(
            x,
            input_schema,
            group_bound,
            agg_calls,
        )?))),
        SqlExpr::Neg(x) => Ok(Expr::Neg(Box::new(rewrite_over_aggregate(
            x,
            input_schema,
            group_bound,
            agg_calls,
        )?))),
        SqlExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
            expr: Box::new(rewrite_over_aggregate(
                expr,
                input_schema,
                group_bound,
                agg_calls,
            )?),
            negated: *negated,
        }),
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => Ok(Expr::Like {
            expr: Box::new(rewrite_over_aggregate(
                expr,
                input_schema,
                group_bound,
                agg_calls,
            )?),
            pattern: Box::new(rewrite_over_aggregate(
                pattern,
                input_schema,
                group_bound,
                agg_calls,
            )?),
            negated: *negated,
        }),
        SqlExpr::Func { name, args, .. } => {
            let func = ScalarFn::by_name(name)
                .ok_or_else(|| RelError::Invalid(format!("unknown function {name}")))?;
            Ok(Expr::Func {
                func,
                args: args
                    .iter()
                    .map(|a| rewrite_over_aggregate(a, input_schema, group_bound, agg_calls))
                    .collect::<RelResult<_>>()?,
            })
        }
        SqlExpr::Between {
            expr,
            low,
            high,
            negated,
        } => Ok(Expr::Between {
            expr: Box::new(rewrite_over_aggregate(
                expr,
                input_schema,
                group_bound,
                agg_calls,
            )?),
            low: Box::new(rewrite_over_aggregate(
                low,
                input_schema,
                group_bound,
                agg_calls,
            )?),
            high: Box::new(rewrite_over_aggregate(
                high,
                input_schema,
                group_bound,
                agg_calls,
            )?),
            negated: *negated,
        }),
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => Ok(Expr::InList {
            expr: Box::new(rewrite_over_aggregate(
                expr,
                input_schema,
                group_bound,
                agg_calls,
            )?),
            list: list
                .iter()
                .map(|e| rewrite_over_aggregate(e, input_schema, group_bound, agg_calls))
                .collect::<RelResult<_>>()?,
            negated: *negated,
        }),
        SqlExpr::Column { qualifier, name } => Err(RelError::Invalid(format!(
            "column {}{name} must appear in GROUP BY or inside an aggregate",
            qualifier
                .as_deref()
                .map(|q| format!("{q}."))
                .unwrap_or_default()
        ))),
        SqlExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
    }
}

// ---------------------------------------------------------------------
// SqlExpr → Expr (scalar contexts; aggregates are an error here)
// ---------------------------------------------------------------------

fn convert_binop(op: SqlBinOp) -> BinOp {
    match op {
        SqlBinOp::Add => BinOp::Add,
        SqlBinOp::Sub => BinOp::Sub,
        SqlBinOp::Mul => BinOp::Mul,
        SqlBinOp::Div => BinOp::Div,
        SqlBinOp::Mod => BinOp::Mod,
        SqlBinOp::Eq => BinOp::Eq,
        SqlBinOp::NotEq => BinOp::NotEq,
        SqlBinOp::Lt => BinOp::Lt,
        SqlBinOp::LtEq => BinOp::LtEq,
        SqlBinOp::Gt => BinOp::Gt,
        SqlBinOp::GtEq => BinOp::GtEq,
        SqlBinOp::And => BinOp::And,
        SqlBinOp::Or => BinOp::Or,
    }
}

/// Convert a scalar SQL expression to an engine expression (unbound).
pub fn convert_scalar(e: &SqlExpr) -> RelResult<Expr> {
    Ok(match e {
        SqlExpr::Literal(v) => Expr::Literal(v.clone()),
        SqlExpr::Column { qualifier, name } => Expr::ColumnName {
            qualifier: qualifier.clone(),
            name: name.clone(),
        },
        SqlExpr::Binary { op, left, right } => Expr::Binary {
            op: convert_binop(*op),
            left: Box::new(convert_scalar(left)?),
            right: Box::new(convert_scalar(right)?),
        },
        SqlExpr::Not(x) => Expr::Not(Box::new(convert_scalar(x)?)),
        SqlExpr::Neg(x) => Expr::Neg(Box::new(convert_scalar(x)?)),
        SqlExpr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(convert_scalar(expr)?),
            negated: *negated,
        },
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(convert_scalar(expr)?),
            pattern: Box::new(convert_scalar(pattern)?),
            negated: *negated,
        },
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(convert_scalar(expr)?),
            list: list.iter().map(convert_scalar).collect::<RelResult<_>>()?,
            negated: *negated,
        },
        SqlExpr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(convert_scalar(expr)?),
            low: Box::new(convert_scalar(low)?),
            high: Box::new(convert_scalar(high)?),
            negated: *negated,
        },
        SqlExpr::Func { name, args, .. } => {
            if is_aggregate_name(name) {
                return Err(RelError::Invalid(format!(
                    "aggregate {name} not allowed in scalar context"
                )));
            }
            let func = ScalarFn::by_name(name)
                .ok_or_else(|| RelError::Invalid(format!("unknown function {name}")))?;
            Expr::Func {
                func,
                args: args.iter().map(convert_scalar).collect::<RelResult<_>>()?,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;

    fn db() -> Database {
        let db = Database::new();
        db.execute_sql(
            "CREATE TABLE students (suid INT PRIMARY KEY, name TEXT, class TEXT, gpa FLOAT)",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO students VALUES \
             (1,'Sally','2009',3.9),(2,'Bob','2009',3.2),(3,'Ann','2010',3.5),(4,'Tim','2010',2.8)",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_without_from() {
        let db = Database::new();
        let rs = db.query_sql("SELECT 1 + 2 AS x, 'hi' AS y").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(3), Value::text("hi")]]);
        assert_eq!(rs.schema.column(0).name, "x");
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let db = db();
        let rs = db.query_sql("SELECT * FROM students").unwrap();
        assert_eq!(rs.schema.len(), 4);
        let rs = db
            .query_sql("SELECT s.* FROM students s WHERE s.gpa > 3.4")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn group_by_with_having_and_order() {
        let db = db();
        let rs = db
            .query_sql(
                "SELECT class, COUNT(*) AS n, AVG(gpa) AS g FROM students \
                 GROUP BY class HAVING COUNT(*) >= 2 ORDER BY class",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::text("2009"));
        assert_eq!(rs.rows[0][1], Value::Int(2));
        assert!((rs.rows[0][2].as_float().unwrap() - 3.55).abs() < 1e-9);
    }

    #[test]
    fn aggregate_arith_in_select() {
        let db = db();
        let rs = db
            .query_sql("SELECT MAX(gpa) - MIN(gpa) AS spread FROM students")
            .unwrap();
        assert!((rs.rows[0][0].as_float().unwrap() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn group_key_expression_in_projection() {
        let db = db();
        let rs = db
            .query_sql(
                "SELECT UPPER(class) AS k, COUNT(*) AS n FROM students GROUP BY UPPER(class) ORDER BY k",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn ungrouped_column_is_error() {
        let db = db();
        let err = db
            .query_sql("SELECT name, COUNT(*) FROM students GROUP BY class")
            .unwrap_err();
        assert!(matches!(err, RelError::Invalid(_)));
    }

    #[test]
    fn order_by_ordinal_and_alias() {
        let db = db();
        let rs = db
            .query_sql("SELECT name AS n, gpa FROM students ORDER BY 2 DESC LIMIT 1")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::text("Sally"));
        let rs = db
            .query_sql("SELECT name AS n, gpa FROM students ORDER BY n LIMIT 1")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::text("Ann"));
    }

    #[test]
    fn order_by_non_projected_column() {
        let db = db();
        let rs = db
            .query_sql("SELECT name FROM students ORDER BY gpa DESC")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::text("Sally"));
        assert_eq!(rs.rows[3][0], Value::text("Tim"));
    }

    #[test]
    fn distinct_dedups() {
        let db = db();
        let rs = db.query_sql("SELECT DISTINCT class FROM students").unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn update_statement() {
        let db = db();
        let rs = db
            .execute_sql("UPDATE students SET gpa = gpa + 0.1 WHERE class = '2009'")
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(2)));
        let rs = db
            .query_sql("SELECT gpa FROM students WHERE suid = 1")
            .unwrap();
        assert!((rs.rows[0][0].as_float().unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn delete_statement() {
        let db = db();
        let rs = db
            .execute_sql("DELETE FROM students WHERE gpa < 3.0")
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(1)));
        assert_eq!(db.catalog().table_len("students").unwrap(), 3);
    }

    #[test]
    fn insert_with_explicit_columns_fills_nulls() {
        let db = db();
        db.execute_sql("INSERT INTO students (suid, name) VALUES (9, 'Zed')")
            .unwrap();
        let rs = db
            .query_sql("SELECT gpa FROM students WHERE suid = 9")
            .unwrap();
        assert!(rs.rows[0][0].is_null());
    }

    #[test]
    fn insert_non_constant_rejected() {
        let db = db();
        assert!(db
            .execute_sql("INSERT INTO students VALUES (10, name, 'x', 1.0)")
            .is_err());
    }

    #[test]
    fn having_without_group_on_global_aggregate() {
        let db = db();
        let rs = db
            .query_sql("SELECT COUNT(*) AS n FROM students HAVING COUNT(*) > 100")
            .unwrap();
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn aggregates_in_where_rejected() {
        let db = db();
        assert!(db
            .query_sql("SELECT * FROM students WHERE COUNT(*) > 1")
            .is_err());
    }

    #[test]
    fn union_all_concatenates() {
        let db = db();
        let rs = db
            .query_sql(
                "SELECT name FROM students WHERE class = '2009' \
                 UNION ALL SELECT name FROM students WHERE class = '2010'",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn multi_statement_execute_returns_last() {
        let db = Database::new();
        let rs = db
            .execute_sql(
                "CREATE TABLE t (x INT); INSERT INTO t VALUES (1),(2); SELECT COUNT(*) AS n FROM t",
            )
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    }
}
