//! Fluent logical-plan builder.
//!
//! The one place plan nodes are built from their inputs: the SQL binder,
//! the FlexRecs compiler and `CourseRankDb`'s typed reads all stack their
//! operators here, so each node's output schema is derived, and its shape
//! checked (union and Values arity, extend width, column positions), once.
//! Expressions may use *named* column references; each is bound against
//! the evolving schema as its operator is stacked. The validator
//! re-checks the result, and the optimizer rewrites it in place.
//!
//! ```
//! use cr_relation::{Database, PlanBuilder, Expr};
//! use cr_relation::plan::{AggExpr, AggFn};
//!
//! let db = Database::new();
//! db.execute_sql("CREATE TABLE c (id INT PRIMARY KEY, dep TEXT, units INT)").unwrap();
//! db.execute_sql("INSERT INTO c VALUES (1,'CS',5),(2,'CS',3),(3,'HIST',4)").unwrap();
//!
//! let plan = PlanBuilder::scan(&db.catalog(), "c").unwrap()
//!     .filter(Expr::col("units").gt_eq(Expr::lit(3i64))).unwrap()
//!     .aggregate(vec![Expr::col("dep")], vec![
//!         AggExpr { func: AggFn::CountStar, arg: Expr::lit(1i64), distinct: false, name: "n".into() },
//!     ]).unwrap()
//!     .sort_by("n", true).unwrap()
//!     .build();
//! let rs = db.run_plan(&plan).unwrap();
//! assert_eq!(rs.rows.len(), 2);
//! ```

use crate::catalog::Catalog;
use crate::error::{RelError, RelResult};
use crate::expr::Expr;
use crate::row::Row;
use crate::schema::{Column, DataType, Schema};

#[cfg_attr(not(test), allow(unused_imports))]
use super::logical::AggFn;
use super::logical::{AggExpr, JoinKind, LogicalPlan, SortKey};
use super::rec::{RecAggPlan, RecSpec};

/// Fluent builder over [`LogicalPlan`].
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    plan: LogicalPlan,
}

impl PlanBuilder {
    /// Start from a table scan.
    pub fn scan(catalog: &Catalog, table: &str) -> RelResult<Self> {
        Self::scan_as(catalog, table, None)
    }

    /// Start from a table scan whose columns are qualified by `alias`
    /// (SQL's `FROM t AS a`, and any self-join).
    pub fn scan_as(catalog: &Catalog, table: &str, alias: Option<&str>) -> RelResult<Self> {
        let schema = catalog.table_schema(table)?;
        let schema = match alias {
            Some(a) => schema.with_qualifier(a),
            None => schema,
        };
        Ok(PlanBuilder {
            plan: LogicalPlan::Scan {
                table: table.to_owned(),
                alias: alias.map(str::to_owned),
                projection: None,
                filter: None,
                schema,
            },
        })
    }

    /// Start from a scan that emits only the columns of `table` at
    /// `columns`, in that order (the related side of an extend).
    pub fn scan_columns(catalog: &Catalog, table: &str, columns: Vec<usize>) -> RelResult<Self> {
        let full = catalog.table_schema(table)?;
        if let Some(c) = columns.iter().find(|&&c| c >= full.len()) {
            return Err(RelError::Invalid(format!(
                "scan column #{c} out of range for {table} (width {})",
                full.len()
            )));
        }
        Ok(PlanBuilder {
            plan: LogicalPlan::Scan {
                table: table.to_owned(),
                alias: None,
                schema: full.pick(&columns),
                projection: Some(columns),
                filter: None,
            },
        })
    }

    /// Start from literal rows.
    pub fn values(schema: Schema, rows: Vec<Row>) -> RelResult<Self> {
        for r in &rows {
            if r.len() != schema.len() {
                return Err(RelError::Arity {
                    expected: schema.len(),
                    found: r.len(),
                });
            }
        }
        Ok(PlanBuilder {
            plan: LogicalPlan::Values { schema, rows },
        })
    }

    /// Wrap an existing plan.
    pub fn from_plan(plan: LogicalPlan) -> Self {
        PlanBuilder { plan }
    }

    /// Current output schema.
    pub fn schema(&self) -> &Schema {
        self.plan.schema()
    }

    /// Add a filter; `predicate` may use column names.
    pub fn filter(self, predicate: Expr) -> RelResult<Self> {
        let bound = predicate.bind(self.plan.schema())?;
        Ok(PlanBuilder {
            plan: LogicalPlan::Filter {
                input: Box::new(self.plan),
                predicate: bound,
            },
        })
    }

    /// Project named expressions. Output column types are inferred
    /// best-effort (column refs keep their type; everything else defaults
    /// by shape).
    pub fn project(self, exprs: Vec<(Expr, &str)>) -> RelResult<Self> {
        let input_schema = self.plan.schema().clone();
        let mut bound = Vec::with_capacity(exprs.len());
        let mut schema = Schema::default();
        for (e, name) in exprs {
            let be = e.bind(&input_schema)?;
            let dt = infer_expr_type(&be, &input_schema);
            schema.push(Column::new(name, dt), None);
            bound.push((be, name.to_owned()));
        }
        Ok(PlanBuilder {
            plan: LogicalPlan::Project {
                input: Box::new(self.plan),
                exprs: bound,
                schema,
            },
        })
    }

    /// Keep the named columns, each under the name it is asked by. A name
    /// may be qualified (`e.SuID`); see [`PlanBuilder::select_positions`]
    /// for what the output keeps.
    pub fn select_columns(self, names: &[&str]) -> RelResult<Self> {
        let columns = names
            .iter()
            .map(|name| resolve_name(self.plan.schema(), name))
            .collect::<RelResult<Vec<_>>>()?;
        self.select_positions(&columns)
    }

    /// Keep the input columns at the given positions, each under its
    /// given name: type and nullability pass through, qualifiers are
    /// dropped (the output is a new relation).
    pub fn select_positions(self, columns: &[(usize, &str)]) -> RelResult<Self> {
        let input = self.plan.schema();
        let mut exprs = Vec::with_capacity(columns.len());
        let mut schema = Schema::default();
        for &(i, name) in columns {
            if i >= input.len() {
                return Err(RelError::Invalid(format!(
                    "projected column #{i} out of range (width {})",
                    input.len()
                )));
            }
            let col = input.column(i);
            schema.push(
                Column {
                    name: name.to_owned(),
                    data_type: col.data_type,
                    nullable: col.nullable,
                },
                None,
            );
            exprs.push((Expr::Column(i), name.to_owned()));
        }
        Ok(PlanBuilder {
            plan: LogicalPlan::Project {
                input: Box::new(self.plan),
                exprs,
                schema,
            },
        })
    }

    /// Join with another plan. `on` may reference columns from both sides
    /// by (qualified) name; it is bound against the concatenated schema.
    pub fn join(self, right: PlanBuilder, kind: JoinKind, on: Expr) -> RelResult<Self> {
        let schema = self.plan.schema().join(right.plan.schema());
        let bound = on.bind(&schema)?;
        Ok(PlanBuilder {
            plan: LogicalPlan::Join {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
                kind,
                on: bound,
                schema,
            },
        })
    }

    /// Convenience equi-join on `left_col = right_col`.
    pub fn join_on(
        self,
        right: PlanBuilder,
        kind: JoinKind,
        left_col: &str,
        right_col: &str,
    ) -> RelResult<Self> {
        let on = Expr::col(left_col).eq(Expr::col(right_col));
        self.join(right, kind, on)
    }

    /// Group-by + aggregates. Group expressions and aggregate arguments may
    /// use names. Output schema: group columns (named after their source
    /// where possible) followed by aggregate outputs.
    pub fn aggregate(self, group_by: Vec<Expr>, aggs: Vec<AggExpr>) -> RelResult<Self> {
        let input_schema = self.plan.schema().clone();
        let mut schema = Schema::default();
        let mut bound_groups = Vec::with_capacity(group_by.len());
        for (i, g) in group_by.into_iter().enumerate() {
            let bg = g.bind(&input_schema)?;
            let (name, dt, qual) = match &bg {
                Expr::Column(idx) => (
                    input_schema.column(*idx).name.clone(),
                    input_schema.column(*idx).data_type,
                    input_schema.qualifier(*idx).map(str::to_owned),
                ),
                other => (
                    format!("group_{i}"),
                    infer_expr_type(other, &input_schema),
                    None,
                ),
            };
            schema.push(Column::new(name, dt), qual);
            bound_groups.push(bg);
        }
        let mut bound_aggs = Vec::with_capacity(aggs.len());
        for a in aggs {
            let arg = a.arg.bind(&input_schema)?;
            let in_dt = infer_expr_type(&arg, &input_schema);
            schema.push(Column::new(&a.name, a.func.output_type(in_dt)), None);
            bound_aggs.push(AggExpr {
                func: a.func,
                arg,
                distinct: a.distinct,
                name: a.name,
            });
        }
        Ok(PlanBuilder {
            plan: LogicalPlan::Aggregate {
                input: Box::new(self.plan),
                group_by: bound_groups,
                aggs: bound_aggs,
                schema,
            },
        })
    }

    /// Sort by expressions.
    pub fn sort(self, keys: Vec<(Expr, bool)>) -> RelResult<Self> {
        let schema = self.plan.schema().clone();
        let keys = keys
            .into_iter()
            .map(|(e, desc)| {
                Ok(SortKey {
                    expr: e.bind(&schema)?,
                    desc,
                })
            })
            .collect::<RelResult<Vec<_>>>()?;
        Ok(PlanBuilder {
            plan: LogicalPlan::Sort {
                input: Box::new(self.plan),
                keys,
            },
        })
    }

    /// Sort by a single named column.
    pub fn sort_by(self, column: &str, desc: bool) -> RelResult<Self> {
        self.sort(vec![(Expr::col(column), desc)])
    }

    /// Limit (and optionally offset).
    pub fn limit(self, limit: usize) -> Self {
        PlanBuilder {
            plan: LogicalPlan::Limit {
                input: Box::new(self.plan),
                limit: Some(limit),
                offset: 0,
            },
        }
    }

    /// Limit with offset.
    pub fn limit_offset(self, limit: Option<usize>, offset: usize) -> Self {
        PlanBuilder {
            plan: LogicalPlan::Limit {
                input: Box::new(self.plan),
                limit,
                offset,
            },
        }
    }

    /// The FlexRecs ε operator: append a set/ratings attribute built from
    /// `related`, whose rows must be `[fk, key]` (`rating = false`) or
    /// `[fk, key, rating]` (`rating = true`). `key_col` names the input
    /// column the related `fk` matches.
    pub fn extend(
        self,
        related: PlanBuilder,
        key_col: &str,
        rating: bool,
        as_name: &str,
    ) -> RelResult<Self> {
        let (key_idx, _) = resolve_name(self.plan.schema(), key_col)?;
        self.extend_at(related, key_idx, rating, as_name)
    }

    /// [`PlanBuilder::extend`] with the key column given by position.
    pub fn extend_at(
        self,
        related: PlanBuilder,
        key_col: usize,
        rating: bool,
        as_name: &str,
    ) -> RelResult<Self> {
        let width = self.plan.schema().len();
        if key_col >= width {
            return Err(RelError::Invalid(format!(
                "extend key column #{key_col} out of range (width {width})"
            )));
        }
        let want = if rating { 3 } else { 2 };
        if related.plan.schema().len() != want {
            return Err(RelError::Invalid(format!(
                "extend related side must have {want} columns (fk, key{}), got {}",
                if rating { ", rating" } else { "" },
                related.plan.schema().len()
            )));
        }
        let mut schema = self.plan.schema().clone();
        let dt = if rating {
            DataType::Ratings
        } else {
            DataType::Set
        };
        schema.push(Column::new(as_name, dt), None);
        Ok(PlanBuilder {
            plan: LogicalPlan::Extend {
                input: Box::new(self.plan),
                related: Box::new(related.plan),
                key_col,
                rating,
                as_name: as_name.to_owned(),
                schema,
            },
        })
    }

    /// The FlexRecs ▷ operator: score this plan's rows (the targets)
    /// against `comparator`'s rows and append a Float score column. The
    /// spec's column positions must already be resolved against the two
    /// input schemas.
    pub fn recommend(self, comparator: PlanBuilder, spec: RecSpec) -> RelResult<Self> {
        let t_len = self.plan.schema().len();
        let c_len = comparator.plan.schema().len();
        let check = |col: usize, len: usize, what: &str| {
            if col >= len {
                Err(RelError::Invalid(format!(
                    "recommend {what} column #{col} out of range (width {len})"
                )))
            } else {
                Ok(())
            }
        };
        check(spec.target_col, t_len, "target")?;
        check(spec.comparator_col, c_len, "comparator")?;
        if let RecAggPlan::WeightedAvg { weight_col } = spec.agg {
            check(weight_col, c_len, "weight")?;
        }
        if let Some((t, c)) = spec.exclude_seen {
            check(t, t_len, "exclude_seen target")?;
            check(c, c_len, "exclude_seen comparator")?;
        }
        let mut schema = self.plan.schema().clone();
        schema.push(Column::new(&spec.score_name, DataType::Float), None);
        Ok(PlanBuilder {
            plan: LogicalPlan::Recommend {
                target: Box::new(self.plan),
                comparator: Box::new(comparator.plan),
                spec,
                schema,
            },
        })
    }

    /// Bag union with a compatible plan.
    pub fn union(self, other: PlanBuilder) -> RelResult<Self> {
        let l = self.plan.schema();
        let r = other.plan.schema();
        if l.len() != r.len() {
            return Err(RelError::Invalid(format!(
                "UNION arity mismatch: {} vs {}",
                l.len(),
                r.len()
            )));
        }
        Ok(PlanBuilder {
            plan: LogicalPlan::Union {
                left: Box::new(self.plan),
                right: Box::new(other.plan),
            },
        })
    }

    /// Finish, returning the plan.
    pub fn build(self) -> LogicalPlan {
        self.plan
    }
}

/// Resolve a possibly qualified column name (`e.SuID`) against `schema`:
/// its position and its bare name.
fn resolve_name<'n>(schema: &Schema, name: &'n str) -> RelResult<(usize, &'n str)> {
    let (q, n) = match name.split_once('.') {
        Some((q, n)) => (Some(q), n),
        None => (None, name),
    };
    Ok((schema.resolve(q, n)?, n))
}

/// Best-effort static type inference for projected expressions.
pub fn infer_expr_type(e: &Expr, schema: &Schema) -> DataType {
    use crate::expr::{BinOp, ScalarFn};
    match e {
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Text),
        Expr::Column(i) => schema.column(*i).data_type,
        Expr::ColumnName { .. } => DataType::Text,
        Expr::Binary { op, left, right } => {
            if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                DataType::Bool
            } else {
                let l = infer_expr_type(left, schema);
                let r = infer_expr_type(right, schema);
                if l == DataType::Text || r == DataType::Text {
                    DataType::Text
                } else if l == DataType::Float || r == DataType::Float {
                    DataType::Float
                } else {
                    l
                }
            }
        }
        Expr::Not(_)
        | Expr::IsNull { .. }
        | Expr::Like { .. }
        | Expr::InList { .. }
        | Expr::Between { .. } => DataType::Bool,
        Expr::Neg(inner) => infer_expr_type(inner, schema),
        Expr::Func { func, args } => match func {
            ScalarFn::Lower | ScalarFn::Upper | ScalarFn::Concat | ScalarFn::Substr => {
                DataType::Text
            }
            ScalarFn::Length => DataType::Int,
            ScalarFn::Round | ScalarFn::Sqrt | ScalarFn::Pow | ScalarFn::Ln | ScalarFn::Exp => {
                DataType::Float
            }
            ScalarFn::Abs | ScalarFn::Coalesce => args
                .first()
                .map(|a| infer_expr_type(a, schema))
                .unwrap_or(DataType::Float),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::row::row;
    use crate::schema::{Column, DataType};

    fn setup() -> Catalog {
        let catalog = Catalog::new();
        catalog
            .create_table(
                "courses",
                Schema::qualified(
                    "courses",
                    vec![
                        Column::not_null("id", DataType::Int),
                        Column::new("dep", DataType::Text),
                        Column::new("units", DataType::Int),
                    ],
                ),
                vec![0],
            )
            .unwrap();
        catalog
            .with_table_mut("courses", |t| {
                t.insert(row![1i64, "CS", 5i64])?;
                t.insert(row![2i64, "CS", 3i64])?;
                t.insert(row![3i64, "HIST", 4i64])
            })
            .unwrap()
            .unwrap();
        catalog
    }

    #[test]
    fn scan_filter_project_shapes_schema() {
        let c = setup();
        let b = PlanBuilder::scan(&c, "courses")
            .unwrap()
            .filter(Expr::col("units").gt(Expr::lit(3i64)))
            .unwrap()
            .project(vec![(Expr::col("dep"), "department")])
            .unwrap();
        assert_eq!(b.schema().len(), 1);
        assert_eq!(b.schema().column(0).name, "department");
        assert_eq!(b.schema().column(0).data_type, DataType::Text);
    }

    #[test]
    fn unknown_table_errors() {
        let c = setup();
        assert!(matches!(
            PlanBuilder::scan(&c, "nope"),
            Err(RelError::UnknownTable(_))
        ));
    }

    #[test]
    fn unknown_column_in_filter_errors() {
        let c = setup();
        let r = PlanBuilder::scan(&c, "courses")
            .unwrap()
            .filter(Expr::col("nope").eq(Expr::lit(1i64)));
        assert!(matches!(r, Err(RelError::UnknownColumn(_))));
    }

    #[test]
    fn self_join_via_alias() {
        let c = setup();
        let left = PlanBuilder::scan_as(&c, "courses", Some("a")).unwrap();
        let right = PlanBuilder::scan_as(&c, "courses", Some("b")).unwrap();
        let joined = left
            .join(
                right,
                JoinKind::Inner,
                Expr::col("a.dep").eq(Expr::col("b.dep")),
            )
            .unwrap();
        assert_eq!(joined.schema().len(), 6);
    }

    #[test]
    fn aggregate_schema_names_groups() {
        let c = setup();
        let b = PlanBuilder::scan(&c, "courses")
            .unwrap()
            .aggregate(
                vec![Expr::col("dep")],
                vec![
                    AggExpr {
                        func: AggFn::Sum,
                        arg: Expr::col("units"),
                        distinct: false,
                        name: "total_units".into(),
                    },
                    AggExpr {
                        func: AggFn::Avg,
                        arg: Expr::col("units"),
                        distinct: false,
                        name: "avg_units".into(),
                    },
                ],
            )
            .unwrap();
        let s = b.schema();
        assert_eq!(s.column(0).name, "dep");
        assert_eq!(s.column(1).name, "total_units");
        assert_eq!(s.column(1).data_type, DataType::Int);
        assert_eq!(s.column(2).data_type, DataType::Float);
    }

    #[test]
    fn union_arity_checked() {
        let c = setup();
        let a = PlanBuilder::scan(&c, "courses").unwrap();
        let b = PlanBuilder::scan(&c, "courses")
            .unwrap()
            .select_columns(&["id"])
            .unwrap();
        assert!(a.union(b).is_err());
    }

    #[test]
    fn values_arity_checked() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        assert!(PlanBuilder::values(schema, vec![row![1i64, 2i64]]).is_err());
    }

    #[test]
    fn select_columns_passes_columns_through_unqualified() {
        let c = setup();
        let b = PlanBuilder::scan(&c, "courses")
            .unwrap()
            .select_columns(&["courses.ID", "dep"])
            .unwrap();
        assert_eq!(b.schema().column(0), &Column::not_null("ID", DataType::Int));
        assert_eq!(b.schema().column(1), &Column::new("dep", DataType::Text));
        assert_eq!(b.schema().qualifier(0), None);
        assert!(b.select_positions(&[(2, "x")]).is_err());
    }

    #[test]
    fn positional_shapes_are_checked() {
        let c = setup();
        assert!(PlanBuilder::scan_columns(&c, "courses", vec![2, 3]).is_err());
        let related = PlanBuilder::scan_columns(&c, "courses", vec![2, 0]).unwrap();
        assert_eq!(related.schema().column(0).name, "units");
        assert_eq!(related.schema().qualifier(1), Some("courses"));
        let base = || PlanBuilder::scan(&c, "courses").unwrap();
        assert!(base().extend_at(related.clone(), 3, false, "s").is_err());
        let extended = base().extend_at(related, 0, false, "s").unwrap();
        assert_eq!(extended.schema().column(3).data_type, DataType::Set);
    }
}
