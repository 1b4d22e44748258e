//! Logical plan nodes.

use std::fmt;

use crate::expr::Expr;
use crate::row::Row;
use crate::schema::{Column, DataType, Schema};

use super::rec::RecSpec;

/// Join kinds supported by the engine. `Inner` covers the FlexRecs compile
/// target; `LeftOuter` is needed by CourseRank's requirement audit ("show
/// each requirement, matched courses or NULL").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    Count,
    /// COUNT(*) — counts rows regardless of NULLs.
    CountStar,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFn {
    pub fn sql(&self) -> &'static str {
        match self {
            AggFn::Count | AggFn::CountStar => "COUNT",
            AggFn::Sum => "SUM",
            AggFn::Avg => "AVG",
            AggFn::Min => "MIN",
            AggFn::Max => "MAX",
        }
    }

    /// Output type given the input type.
    pub fn output_type(&self, input: DataType) -> DataType {
        match self {
            AggFn::Count | AggFn::CountStar => DataType::Int,
            AggFn::Avg => DataType::Float,
            AggFn::Sum => match input {
                DataType::Int => DataType::Int,
                _ => DataType::Float,
            },
            AggFn::Min | AggFn::Max => input,
        }
    }
}

/// One aggregate in an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFn,
    /// Argument expression; ignored for `CountStar`.
    pub arg: Expr,
    pub distinct: bool,
    /// Output column name.
    pub name: String,
}

/// A sort key: expression plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: Expr,
    pub desc: bool,
}

/// The logical plan tree. All contained expressions are bound (positional)
/// against the node's **input** schema; `schema` is the node's output.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a named table. `filter` holds pushed-down predicates (bound
    /// against the full table schema); `projection` selects column
    /// positions to emit (None = all).
    Scan {
        table: String,
        alias: Option<String>,
        projection: Option<Vec<usize>>,
        filter: Option<Expr>,
        schema: Schema,
    },
    /// Filter rows by a predicate.
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    /// Compute output expressions.
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<(Expr, String)>,
        schema: Schema,
    },
    /// Join two inputs on a predicate over the concatenated schema.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        kind: JoinKind,
        on: Expr,
        schema: Schema,
    },
    /// Group-by + aggregates. Output columns: group keys then aggregates.
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<Expr>,
        aggs: Vec<AggExpr>,
        schema: Schema,
    },
    /// Sort by keys.
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    /// Limit/offset.
    Limit {
        input: Box<LogicalPlan>,
        limit: Option<usize>,
        offset: usize,
    },
    /// Literal rows.
    Values { schema: Schema, rows: Vec<Row> },
    /// Bag union (schemas must be arity/type compatible).
    Union {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
    },
    /// The FlexRecs ε operator: nest related tuples as a set/ratings
    /// attribute appended to each input row. `related` produces rows of
    /// shape `[fk, key]` (→ Set of keys) or `[fk, key, rating]` (→ Ratings
    /// key → avg rating); for each input row, related rows whose `fk`
    /// equals the input's `key_col` value are collected. Keeping the
    /// related side a sub-plan lets the optimizer prune and push filters
    /// into its scan like any other input.
    Extend {
        input: Box<LogicalPlan>,
        related: Box<LogicalPlan>,
        /// Column of `input` the related `fk` matches.
        key_col: usize,
        /// True → Ratings attribute, false → Set attribute.
        rating: bool,
        /// Name of the appended column.
        as_name: String,
        schema: Schema,
    },
    /// The FlexRecs ▷ operator: score each target row against all
    /// comparator rows via a similarity method, blend the per-comparator
    /// scores, drop non-positive scores, sort descending, and optionally
    /// keep the top k. Appends the score as a Float column.
    Recommend {
        target: Box<LogicalPlan>,
        comparator: Box<LogicalPlan>,
        spec: RecSpec,
        schema: Schema,
    },
}

impl LogicalPlan {
    /// Output schema of this node.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. } => schema,
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { schema, .. } => schema,
            LogicalPlan::Join { schema, .. } => schema,
            LogicalPlan::Aggregate { schema, .. } => schema,
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Values { schema, .. } => schema,
            LogicalPlan::Union { left, .. } => left.schema(),
            LogicalPlan::Extend { schema, .. } => schema,
            LogicalPlan::Recommend { schema, .. } => schema,
        }
    }

    /// The operator's name as diagnostics and EXPLAIN ANALYZE spell it.
    pub fn op_name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Join { .. } => "Join",
            LogicalPlan::Aggregate { .. } => "Aggregate",
            LogicalPlan::Sort { .. } => "Sort",
            LogicalPlan::Limit { .. } => "Limit",
            LogicalPlan::Values { .. } => "Values",
            LogicalPlan::Union { .. } => "Union",
            LogicalPlan::Extend { .. } => "Extend",
            LogicalPlan::Recommend { .. } => "Recommend",
        }
    }

    /// Effective scan schema after projection (helper used by exec).
    pub fn scan_output_schema(full: &Schema, projection: &Option<Vec<usize>>) -> Schema {
        match projection {
            None => full.clone(),
            Some(cols) => {
                let mut s = Schema::default();
                for &i in cols {
                    s.push(
                        Column {
                            name: full.column(i).name.clone(),
                            data_type: full.column(i).data_type,
                            nullable: full.column(i).nullable,
                        },
                        full.qualifier(i).map(str::to_owned),
                    );
                }
                s
            }
        }
    }

    /// Stable-within-a-process fingerprint of the plan's structure, used as
    /// a cache key (combined with table versions) by result caches. Two
    /// structurally identical plans fingerprint identically.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{self:?}").hash(&mut h);
        h.finish()
    }

    /// Pretty indented EXPLAIN-style rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        use fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan {
                table,
                alias,
                projection,
                filter,
                ..
            } => {
                let _ = write!(out, "{pad}Scan {table}");
                if let Some(a) = alias {
                    let _ = write!(out, " AS {a}");
                }
                if let Some(p) = projection {
                    let _ = write!(out, " cols={p:?}");
                }
                if let Some(f) = filter {
                    let _ = write!(out, " filter={f}");
                }
                out.push('\n');
            }
            LogicalPlan::Filter { input, predicate } => {
                let _ = writeln!(out, "{pad}Filter {predicate}");
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                let _ = writeln!(out, "{pad}Project {}", cols.join(", "));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                ..
            } => {
                let _ = writeln!(out, "{pad}{kind:?}Join on {on}");
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                ..
            } => {
                let g: Vec<String> = group_by.iter().map(ToString::to_string).collect();
                let a: Vec<String> = aggs
                    .iter()
                    .map(|a| format!("{}({}) AS {}", a.func.sql(), a.arg, a.name))
                    .collect();
                let _ = writeln!(
                    out,
                    "{pad}Aggregate group=[{}] aggs=[{}]",
                    g.join(", "),
                    a.join(", ")
                );
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Sort { input, keys } => {
                let k: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{}{}", k.expr, if k.desc { " DESC" } else { "" }))
                    .collect();
                let _ = writeln!(out, "{pad}Sort {}", k.join(", "));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Limit {
                input,
                limit,
                offset,
            } => {
                let _ = writeln!(out, "{pad}Limit limit={limit:?} offset={offset}");
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Values { rows, .. } => {
                let _ = writeln!(out, "{pad}Values ({} rows)", rows.len());
            }
            LogicalPlan::Union { left, right } => {
                let _ = writeln!(out, "{pad}Union");
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            LogicalPlan::Extend {
                input,
                related,
                key_col,
                rating,
                as_name,
                ..
            } => {
                let kind = if *rating { "ratings" } else { "set" };
                let _ = writeln!(out, "{pad}Extend {kind} AS {as_name} key=#{key_col}");
                input.explain_into(depth + 1, out);
                related.explain_into(depth + 1, out);
            }
            LogicalPlan::Recommend {
                target,
                comparator,
                spec,
                ..
            } => {
                let _ = writeln!(out, "{pad}Recommend {}", spec.describe());
                target.explain_into(depth + 1, out);
                comparator.explain_into(depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    #[test]
    fn agg_output_types() {
        assert_eq!(AggFn::Count.output_type(DataType::Text), DataType::Int);
        assert_eq!(AggFn::Avg.output_type(DataType::Int), DataType::Float);
        assert_eq!(AggFn::Sum.output_type(DataType::Int), DataType::Int);
        assert_eq!(AggFn::Sum.output_type(DataType::Float), DataType::Float);
        assert_eq!(AggFn::Min.output_type(DataType::Text), DataType::Text);
    }

    #[test]
    fn scan_output_schema_projects() {
        let full = Schema::qualified(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Text),
                Column::new("c", DataType::Float),
            ],
        );
        let s = LogicalPlan::scan_output_schema(&full, &Some(vec![2, 0]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.column(0).name, "c");
        assert_eq!(s.column(1).name, "a");
        assert_eq!(s.qualifier(0), Some("t"));
    }

    #[test]
    fn explain_renders_tree() {
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(LogicalPlan::Scan {
                    table: "t".into(),
                    alias: None,
                    projection: None,
                    filter: None,
                    schema: schema.clone(),
                }),
                predicate: Expr::col_idx(0).gt(Expr::lit(1i64)),
            }),
            limit: Some(10),
            offset: 0,
        };
        let text = plan.explain();
        assert!(text.contains("Limit"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Scan t"));
        // Indentation increases with depth.
        assert!(text.lines().nth(2).unwrap().starts_with("    "));
    }
}
