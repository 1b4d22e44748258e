//! Logical plan nodes.

use std::fmt;

use crate::expr::Expr;
use crate::row::Row;
use crate::schema::{DataType, Schema};
use crate::value::Value;

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

/// One input edge of a plan node: the label a diagnostic path gives the
/// edge (`None` for a node's main input) and the child behind it.
pub(crate) type Child<'p> = (Option<&'static str>, &'p LogicalPlan);

impl LogicalPlan {
    /// Every operator's name, in variant order: [`LogicalPlan::op_index`]
    /// indexes it.
    pub(crate) const OP_NAMES: [&'static str; 11] = [
        "Scan",
        "Filter",
        "Project",
        "Join",
        "Aggregate",
        "Sort",
        "Limit",
        "Values",
        "Union",
        "Extend",
        "Recommend",
    ];

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

    /// The operator's position in [`LogicalPlan::OP_NAMES`], for tables
    /// kept per operator kind.
    pub(crate) fn op_index(&self) -> usize {
        match self {
            LogicalPlan::Scan { .. } => 0,
            LogicalPlan::Filter { .. } => 1,
            LogicalPlan::Project { .. } => 2,
            LogicalPlan::Join { .. } => 3,
            LogicalPlan::Aggregate { .. } => 4,
            LogicalPlan::Sort { .. } => 5,
            LogicalPlan::Limit { .. } => 6,
            LogicalPlan::Values { .. } => 7,
            LogicalPlan::Union { .. } => 8,
            LogicalPlan::Extend { .. } => 9,
            LogicalPlan::Recommend { .. } => 10,
        }
    }

    /// The operator's name as diagnostics and EXPLAIN ANALYZE spell it.
    pub fn op_name(&self) -> &'static str {
        Self::OP_NAMES[self.op_index()]
    }

    /// The node's inputs with their path labels, in evaluation order:
    /// input; left, right; input, related; target, comparator. Absent
    /// inputs are `None`, so a pass iterates
    /// `children().into_iter().flatten()` without allocating.
    // Inlined across modules: the validator and flow gate call it once
    // per node on every request, and a call per node cost them measurably.
    #[inline]
    pub fn children(&self) -> [Option<Child<'_>>; 2] {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => [None, None],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => [Some((None, input)), None],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Union { left, right } => {
                [Some((Some("left"), left)), Some((Some("right"), right))]
            }
            LogicalPlan::Extend { input, related, .. } => {
                [Some((None, input)), Some((Some("related"), related))]
            }
            LogicalPlan::Recommend {
                target, comparator, ..
            } => [
                Some((Some("target"), target)),
                Some((Some("comparator"), comparator)),
            ],
        }
    }

    /// Rebuild the node with `f` applied to each input, in
    /// [`LogicalPlan::children`] order. Not recursive: a pass recurses by
    /// calling itself from `f`.
    pub fn map_children(mut self, mut f: impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        let mut map = |child: &mut Box<LogicalPlan>| {
            // An empty Values allocates nothing; it holds the slot while
            // `f` owns the child.
            let empty = LogicalPlan::Values {
                schema: Schema::default(),
                rows: Vec::new(),
            };
            **child = f(std::mem::replace(&mut **child, empty));
        };
        match &mut self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => {}
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => map(input),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Union { left, right } => {
                map(left);
                map(right);
            }
            LogicalPlan::Extend { input, related, .. } => {
                map(input);
                map(related);
            }
            LogicalPlan::Recommend {
                target, comparator, ..
            } => {
                map(target);
                map(comparator);
            }
        }
        self
    }

    /// Rebuild the node with `f` applied to every expression it carries:
    /// the scan filter, the filter predicate, the projections, the join
    /// condition, the group keys and aggregate arguments, the sort keys.
    /// Not recursive, like [`LogicalPlan::map_children`].
    pub fn map_exprs(mut self, mut f: impl FnMut(Expr) -> Expr) -> LogicalPlan {
        let mut map = |e: &mut Expr| *e = f(std::mem::replace(e, Expr::Literal(Value::Null)));
        match &mut self {
            LogicalPlan::Scan { filter, .. } => filter.iter_mut().for_each(map),
            LogicalPlan::Filter { predicate, .. } => map(predicate),
            LogicalPlan::Project { exprs, .. } => exprs.iter_mut().for_each(|(e, _)| map(e)),
            LogicalPlan::Join { on, .. } => map(on),
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                group_by.iter_mut().for_each(&mut map);
                aggs.iter_mut().for_each(|a| map(&mut a.arg));
            }
            LogicalPlan::Sort { keys, .. } => keys.iter_mut().for_each(|k| map(&mut k.expr)),
            LogicalPlan::Limit { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::Union { .. }
            | LogicalPlan::Extend { .. }
            | LogicalPlan::Recommend { .. } => {}
        }
        self
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
        out.push_str(&"  ".repeat(depth));
        let _ = match self {
            LogicalPlan::Scan {
                table,
                alias,
                projection,
                filter,
                ..
            } => {
                let _ = write!(out, "Scan {table}");
                if let Some(a) = alias {
                    let _ = write!(out, " AS {a}");
                }
                if let Some(p) = projection {
                    let _ = write!(out, " cols={p:?}");
                }
                match filter {
                    Some(f) => writeln!(out, " filter={f}"),
                    None => writeln!(out),
                }
            }
            LogicalPlan::Filter { predicate, .. } => writeln!(out, "Filter {predicate}"),
            LogicalPlan::Project { exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                writeln!(out, "Project {}", cols.join(", "))
            }
            LogicalPlan::Join { kind, on, .. } => writeln!(out, "{kind:?}Join on {on}"),
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let g: Vec<String> = group_by.iter().map(ToString::to_string).collect();
                let a: Vec<String> = aggs
                    .iter()
                    .map(|a| format!("{}({}) AS {}", a.func.sql(), a.arg, a.name))
                    .collect();
                writeln!(
                    out,
                    "Aggregate group=[{}] aggs=[{}]",
                    g.join(", "),
                    a.join(", ")
                )
            }
            LogicalPlan::Sort { keys, .. } => {
                let k: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{}{}", k.expr, if k.desc { " DESC" } else { "" }))
                    .collect();
                writeln!(out, "Sort {}", k.join(", "))
            }
            LogicalPlan::Limit { limit, offset, .. } => {
                writeln!(out, "Limit limit={limit:?} offset={offset}")
            }
            LogicalPlan::Values { rows, .. } => writeln!(out, "Values ({} rows)", rows.len()),
            LogicalPlan::Union { .. } => writeln!(out, "Union"),
            LogicalPlan::Extend {
                key_col,
                rating,
                as_name,
                ..
            } => {
                let kind = if *rating { "ratings" } else { "set" };
                writeln!(out, "Extend {kind} AS {as_name} key=#{key_col}")
            }
            LogicalPlan::Recommend { spec, .. } => writeln!(out, "Recommend {}", spec.describe()),
        };
        for (_, child) in self.children().into_iter().flatten() {
            child.explain_into(depth + 1, out);
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
