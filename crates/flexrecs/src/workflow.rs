//! The workflow algebra.
//!
//! A workflow is a tree of operators over set-valued tuples. The two
//! workflows of Figure 5 look like this in our algebra (see
//! [`crate::templates`] for the runnable versions):
//!
//! ```text
//! (a)  Recommend[title ~ title, WordJaccard]
//!        target:     σ(Year=2008)(Courses)
//!        comparator: σ(Title='Introduction to Programming')(Courses)
//!
//! (b)  Recommend[rating lookup, avg]               ← upper triangle
//!        target:     Courses
//!        comparator: Limit k (
//!          Recommend[ratings ~ ratings, InverseEuclidean]   ← lower
//!            target:     ε_ratings(Students)     ← extend
//!            comparator: σ(SuID=444) ε_ratings(Students)
//!        )
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;

use cr_relation::{Catalog, Column, DataType, RelError, RelResult, ResultSet, Schema, Value};

/// Comparison operators for workflow predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    pub fn sql(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::NotEq => "<>",
            CmpOp::Lt => "<",
            CmpOp::LtEq => "<=",
            CmpOp::Gt => ">",
            CmpOp::GtEq => ">=",
        }
    }

    pub fn eval(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::NotEq => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::LtEq => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::GtEq => ord != Less,
        }
    }
}

/// Predicates over scalar workflow attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WfPredicate {
    Cmp {
        column: String,
        op: CmpOp,
        value: Value,
    },
    And(Vec<WfPredicate>),
    Or(Vec<WfPredicate>),
}

impl WfPredicate {
    pub fn eq(column: &str, value: impl Into<Value>) -> Self {
        WfPredicate::Cmp {
            column: column.to_owned(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    pub fn cmp(column: &str, op: CmpOp, value: impl Into<Value>) -> Self {
        WfPredicate::Cmp {
            column: column.to_owned(),
            op,
            value: value.into(),
        }
    }

    /// Columns referenced (for validation).
    pub fn columns(&self, out: &mut Vec<String>) {
        match self {
            WfPredicate::Cmp { column, .. } => out.push(column.clone()),
            WfPredicate::And(ps) | WfPredicate::Or(ps) => {
                for p in ps {
                    p.columns(out);
                }
            }
        }
    }
}

impl fmt::Display for WfPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WfPredicate::Cmp { column, op, value } => match value {
                Value::Text(s) => write!(f, "{column} {} '{s}'", op.sql()),
                other => write!(f, "{column} {} {other}", op.sql()),
            },
            WfPredicate::And(ps) => {
                let parts: Vec<String> = ps.iter().map(ToString::to_string).collect();
                write!(f, "({})", parts.join(" AND "))
            }
            WfPredicate::Or(ps) => {
                let parts: Vec<String> = ps.iter().map(ToString::to_string).collect();
                write!(f, "({})", parts.join(" OR "))
            }
        }
    }
}

/// How the recommend operator scores a target tuple against one comparator
/// tuple. This is the plan layer's [`cr_relation::plan::RecMethod`] —
/// workflows share the type with the plan's `Recommend` operator so
/// compilation carries the method through unchanged.
pub use cr_relation::plan::RecMethod;

/// How per-comparator scores combine into the target's final score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RecAgg {
    /// Average of non-missing per-comparator scores.
    Avg,
    Sum,
    Max,
    /// Weighted average, weights drawn from a comparator scalar attribute
    /// (typically the similarity score produced by a lower recommend
    /// operator — classic weighted CF).
    WeightedAvg {
        weight_attr: String,
    },
}

impl fmt::Display for RecAgg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecAgg::Avg => write!(f, "avg"),
            RecAgg::Sum => write!(f, "sum"),
            RecAgg::Max => write!(f, "max"),
            RecAgg::WeightedAvg { weight_attr } => write!(f, "wavg[{weight_attr}]"),
        }
    }
}

/// Full parameterization of a recommend operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendSpec {
    /// Attribute of the target tuples to compare (or the key attribute
    /// for [`RecMethod::RatingLookup`]).
    pub target_attr: String,
    /// Attribute of the comparator tuples.
    pub comparator_attr: String,
    pub method: RecMethod,
    pub agg: RecAgg,
    /// Keep only the top-k scored targets (None = all with score > 0).
    pub k: Option<usize>,
    /// Acknowledge an unbounded output (see
    /// [`RecommendSpec::expect_unbounded`]); suppresses lint W106.
    pub unbounded_ok: bool,
    /// Name of the appended score column.
    pub score_name: String,
    /// Drop targets whose key equals a comparator key attribute value
    /// (e.g. don't recommend courses the student already took). Pair of
    /// (target_attr, comparator set attr).
    pub exclude_seen: Option<(String, String)>,
}

impl RecommendSpec {
    pub fn new(target_attr: &str, comparator_attr: &str, method: RecMethod) -> Self {
        RecommendSpec {
            target_attr: target_attr.to_owned(),
            comparator_attr: comparator_attr.to_owned(),
            method,
            agg: RecAgg::Max,
            k: None,
            unbounded_ok: false,
            score_name: "score".to_owned(),
            exclude_seen: None,
        }
    }

    pub fn with_agg(mut self, agg: RecAgg) -> Self {
        self.agg = agg;
        self
    }

    pub fn top_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Vouch that an unbounded recommend (no [`RecommendSpec::top_k`]) is
    /// intentional — the consumer aggregates or truncates the scored rows
    /// downstream (e.g. the department rollup over per-course scores).
    /// Suppresses the linter's W106 warning for this operator only.
    pub fn expect_unbounded(mut self) -> Self {
        self.unbounded_ok = true;
        self
    }

    pub fn score_as(mut self, name: &str) -> Self {
        self.score_name = name.to_owned();
        self
    }

    pub fn excluding_seen(mut self, target_attr: &str, comparator_set_attr: &str) -> Self {
        self.exclude_seen = Some((target_attr.to_owned(), comparator_set_attr.to_owned()));
        self
    }
}

/// A workflow node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Scan a relation; all columns become scalar attributes.
    Source { table: String },
    /// Filter.
    Select {
        input: Box<Node>,
        predicate: WfPredicate,
    },
    /// Keep named attributes.
    Project {
        input: Box<Node>,
        columns: Vec<String>,
    },
    /// Equi-join on scalar attributes.
    Join {
        left: Box<Node>,
        right: Box<Node>,
        left_col: String,
        right_col: String,
    },
    /// The ε operator: nest related tuples as a set/ratings attribute.
    /// For each input tuple, rows of `related_table` with
    /// `related_table.fk_column == tuple[local_key]` are collected; if
    /// `rating_column` is given the result is a Ratings attribute of
    /// (related key, rating), otherwise a Set of the related key values.
    Extend {
        input: Box<Node>,
        related_table: String,
        fk_column: String,
        local_key: String,
        key_column: String,
        rating_column: Option<String>,
        as_name: String,
    },
    /// The recommend operator (▷ in Figure 5).
    Recommend {
        target: Box<Node>,
        comparator: Box<Node>,
        spec: RecommendSpec,
    },
    /// Keep the first k tuples.
    Limit { input: Box<Node>, k: usize },
    /// Bag union.
    Union { left: Box<Node>, right: Box<Node> },
}

/// A workflow: a root node plus a human-readable name (shown by the
/// CourseRank admin interface the paper describes — "this tool lets the
/// administrator quickly define recommendation strategies").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workflow {
    pub name: String,
    pub root: Node,
}

impl Workflow {
    pub fn new(name: &str, root: Node) -> Self {
        Workflow {
            name: name.to_owned(),
            root,
        }
    }

    /// Render the workflow tree (Figure 5 in ASCII).
    pub fn explain(&self) -> String {
        let mut out = format!("workflow: {}\n", self.name);
        explain_node(&self.root, 1, &mut out);
        out
    }

    /// Statically check this workflow against a catalog: compile it onto
    /// the plan IR and run the plan validator plus dataflow analyses.
    /// Infallible — see [`crate::lint::lint`].
    pub fn lint(&self, catalog: &Catalog) -> crate::lint::LintReport {
        crate::lint::lint(self, catalog)
    }

    /// [`Workflow::lint`] for an explicit principal (disclosure is checked
    /// against that principal's clearance instead of the template student).
    pub fn lint_for(
        &self,
        catalog: &Catalog,
        principal: &cr_relation::plan::flow::Principal,
    ) -> crate::lint::LintReport {
        crate::lint::lint_for(self, catalog, principal)
    }
}

fn explain_node(node: &Node, depth: usize, out: &mut String) {
    use std::fmt::Write;
    let pad = "  ".repeat(depth);
    match node {
        Node::Source { table } => {
            let _ = writeln!(out, "{pad}Source {table}");
        }
        Node::Select { input, predicate } => {
            let _ = writeln!(out, "{pad}Select σ[{predicate}]");
            explain_node(input, depth + 1, out);
        }
        Node::Project { input, columns } => {
            let _ = writeln!(out, "{pad}Project π[{}]", columns.join(", "));
            explain_node(input, depth + 1, out);
        }
        Node::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let _ = writeln!(out, "{pad}Join ⋈[{left_col} = {right_col}]");
            explain_node(left, depth + 1, out);
            explain_node(right, depth + 1, out);
        }
        Node::Extend {
            input,
            related_table,
            as_name,
            rating_column,
            ..
        } => {
            let kind = if rating_column.is_some() {
                "ratings"
            } else {
                "set"
            };
            let _ = writeln!(
                out,
                "{pad}Extend ε[{as_name} := {kind} from {related_table}]"
            );
            explain_node(input, depth + 1, out);
        }
        Node::Recommend {
            target,
            comparator,
            spec,
        } => {
            let k = spec.k.map(|k| format!(", top {k}")).unwrap_or_default();
            let _ = writeln!(
                out,
                "{pad}Recommend ▷[{} ~ {}, {}, agg={}{}]",
                spec.target_attr,
                spec.comparator_attr,
                spec.method.name(),
                spec.agg,
                k
            );
            let _ = writeln!(out, "{pad}  target:");
            explain_node(target, depth + 2, out);
            let _ = writeln!(out, "{pad}  comparator:");
            explain_node(comparator, depth + 2, out);
        }
        Node::Limit { input, k } => {
            let _ = writeln!(out, "{pad}Limit {k}");
            explain_node(input, depth + 1, out);
        }
        Node::Union { left, right } => {
            let _ = writeln!(out, "{pad}Union ∪");
            explain_node(left, depth + 1, out);
            explain_node(right, depth + 1, out);
        }
    }
}

/// Index of the column `name` in `schema`: the first case-insensitive
/// match, qualifiers ignored. This is FlexRecs' one name rule, used by
/// lowering, [`infer_schema`], the interpreter and [`ranking`].
/// Unlike [`Schema::index_of`] it never rejects a duplicate name: a join
/// of two tables on `UId` resolves `UId` to the left column.
pub fn resolve(schema: &Schema, name: &str) -> RelResult<usize> {
    schema
        .columns()
        .iter()
        .position(|c| c.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| RelError::UnknownColumn(name.to_owned()))
}

/// Extract `(key, score)` pairs from a workflow result given the key and
/// score column names — the shape recommendation consumers want. Scores
/// may be Int or Float.
pub fn ranking(result: &ResultSet, key: &str, score: &str) -> RelResult<Vec<(Value, f64)>> {
    let ki = resolve(&result.schema, key)?;
    let si = resolve(&result.schema, score)?;
    let mut out = Vec::with_capacity(result.rows.len());
    for row in &result.rows {
        if row[ki].is_nested() {
            return Err(RelError::Invalid("key column not scalar".into()));
        }
        let s = match &row[si] {
            Value::Float(f) => *f,
            Value::Int(i) => *i as f64,
            other => {
                return Err(RelError::Invalid(format!(
                    "score column not numeric: {other}"
                )))
            }
        };
        out.push((row[ki].clone(), s));
    }
    Ok(out)
}

/// A column type FlexRecs treats as a scalar: anything but `Set`/`Ratings`.
fn scalar(ty: DataType) -> bool {
    !matches!(ty, DataType::Set | DataType::Ratings)
}

/// Compute the output schema of a node against a database, validating
/// attribute references along the way. The rules are lowering's, derived
/// independently so the interpreter stays an oracle for the plan's
/// schema too.
pub fn infer_schema(node: &Node, catalog: &Catalog) -> RelResult<Schema> {
    match node {
        Node::Source { table } => catalog.table_schema(table),
        Node::Select { input, predicate } => {
            let s = infer_schema(input, catalog)?;
            let mut cols = Vec::new();
            predicate.columns(&mut cols);
            for c in cols {
                if !scalar(s.column(resolve(&s, &c)?).data_type) {
                    return Err(RelError::Invalid(format!(
                        "predicate column {c} is not scalar"
                    )));
                }
            }
            Ok(s)
        }
        Node::Project { input, columns } => {
            let s = infer_schema(input, catalog)?;
            let mut out = Schema::default();
            for c in columns {
                let col = s.column(resolve(&s, c)?);
                out.push(
                    Column {
                        name: c.clone(),
                        ..col.clone()
                    },
                    None,
                );
            }
            Ok(out)
        }
        Node::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let ls = infer_schema(left, catalog)?;
            let rs = infer_schema(right, catalog)?;
            resolve(&ls, left_col)?;
            resolve(&rs, right_col)?;
            Ok(ls.join(&rs))
        }
        Node::Extend {
            input,
            related_table,
            fk_column,
            local_key,
            key_column,
            rating_column,
            as_name,
        } => {
            let mut s = infer_schema(input, catalog)?;
            resolve(&s, local_key)?;
            let rel = catalog.table_schema(related_table)?;
            resolve(&rel, fk_column)?;
            resolve(&rel, key_column)?;
            let ty = match rating_column {
                Some(rc) => {
                    resolve(&rel, rc)?;
                    DataType::Ratings
                }
                None => DataType::Set,
            };
            s.push(Column::new(as_name, ty), None);
            Ok(s)
        }
        Node::Recommend {
            target,
            comparator,
            spec,
        } => {
            let ts = infer_schema(target, catalog)?;
            let cs = infer_schema(comparator, catalog)?;
            let t_ty = ts.column(resolve(&ts, &spec.target_attr)?).data_type;
            let c_ty = cs.column(resolve(&cs, &spec.comparator_attr)?).data_type;
            // Type discipline per method.
            let ok = match &spec.method {
                RecMethod::Text(_) => scalar(t_ty) && scalar(c_ty),
                RecMethod::Set(_) => t_ty == DataType::Set && c_ty == DataType::Set,
                RecMethod::Ratings { .. } => t_ty == DataType::Ratings && c_ty == DataType::Ratings,
                RecMethod::RatingLookup => scalar(t_ty) && c_ty == DataType::Ratings,
            };
            if !ok {
                return Err(RelError::Invalid(format!(
                    "recommend method {} incompatible with attribute types {t_ty:?}/{c_ty:?}",
                    spec.method.name()
                )));
            }
            if let RecAgg::WeightedAvg { weight_attr } = &spec.agg {
                if !scalar(cs.column(resolve(&cs, weight_attr)?).data_type) {
                    return Err(RelError::Invalid(format!(
                        "weight attribute {weight_attr} is not scalar"
                    )));
                }
            }
            if let Some((t_attr, c_attr)) = &spec.exclude_seen {
                resolve(&ts, t_attr)?;
                if scalar(cs.column(resolve(&cs, c_attr)?).data_type) {
                    return Err(RelError::Invalid(format!(
                        "exclude_seen comparator attribute {c_attr} must be set/ratings"
                    )));
                }
            }
            let mut out = ts;
            out.push(Column::new(&spec.score_name, DataType::Float), None);
            Ok(out)
        }
        Node::Limit { input, .. } => infer_schema(input, catalog),
        Node::Union { left, right } => {
            let ls = infer_schema(left, catalog)?;
            let rs = infer_schema(right, catalog)?;
            if ls.len() != rs.len() {
                return Err(RelError::Invalid(format!(
                    "union arity mismatch: {} vs {}",
                    ls.len(),
                    rs.len()
                )));
            }
            Ok(ls)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::{RatingsSim, TextSim};
    use cr_relation::Database;

    fn db() -> Database {
        let db = Database::new();
        db.execute_sql("CREATE TABLE Courses (CourseID INT PRIMARY KEY, Title TEXT, Year INT)")
            .unwrap();
        db.execute_sql("CREATE TABLE Students (SuID INT PRIMARY KEY, Name TEXT)")
            .unwrap();
        db.execute_sql(
            "CREATE TABLE Comments (SuID INT, CourseID INT, Rating FLOAT, PRIMARY KEY (SuID, CourseID))",
        )
        .unwrap();
        db
    }

    fn students_with_ratings() -> Node {
        Node::Extend {
            input: Box::new(Node::Source {
                table: "Students".into(),
            }),
            related_table: "Comments".into(),
            fk_column: "SuID".into(),
            local_key: "SuID".into(),
            key_column: "CourseID".into(),
            rating_column: Some("Rating".into()),
            as_name: "ratings".into(),
        }
    }

    #[test]
    fn resolve_takes_the_first_case_insensitive_match() {
        let users = Schema::qualified(
            "Users",
            vec![
                Column::new("UId", DataType::Int),
                Column::new("Name", DataType::Text),
            ],
        );
        let ratings = Schema::qualified("Ratings", vec![Column::new("UId", DataType::Int)]);
        let joined = users.join(&ratings);
        assert_eq!(resolve(&joined, "name").unwrap(), 1);
        assert_eq!(resolve(&joined, "NAME").unwrap(), 1);
        // A duplicate name resolves to its first column, never ambiguous.
        assert_eq!(resolve(&joined, "uid").unwrap(), 0);
        assert_eq!(
            resolve(&joined, "nope"),
            Err(RelError::UnknownColumn("nope".into()))
        );
    }

    #[test]
    fn source_schema() {
        let db = db();
        let s = infer_schema(
            &Node::Source {
                table: "Courses".into(),
            },
            &db.catalog(),
        )
        .unwrap();
        assert_eq!(s, db.catalog().table_schema("Courses").unwrap());
    }

    #[test]
    fn extend_adds_ratings_attr() {
        let db = db();
        let s = infer_schema(&students_with_ratings(), &db.catalog()).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.column(2), &Column::new("ratings", DataType::Ratings));
    }

    #[test]
    fn recommend_type_checking() {
        let db = db();
        // ratings ~ ratings with inverse Euclidean: OK.
        let ok = Node::Recommend {
            target: Box::new(students_with_ratings()),
            comparator: Box::new(students_with_ratings()),
            spec: RecommendSpec::new(
                "ratings",
                "ratings",
                RecMethod::Ratings {
                    sim: RatingsSim::InverseEuclidean,
                    min_common: 1,
                },
            ),
        };
        let s = infer_schema(&ok, &db.catalog()).unwrap();
        assert_eq!(s.column(3), &Column::new("score", DataType::Float));

        // text similarity on a ratings attribute: rejected.
        let bad = Node::Recommend {
            target: Box::new(students_with_ratings()),
            comparator: Box::new(students_with_ratings()),
            spec: RecommendSpec::new("ratings", "ratings", RecMethod::Text(TextSim::WordJaccard)),
        };
        assert!(infer_schema(&bad, &db.catalog()).is_err());
    }

    #[test]
    fn unknown_column_in_predicate_rejected() {
        let db = db();
        let n = Node::Select {
            input: Box::new(Node::Source {
                table: "Courses".into(),
            }),
            predicate: WfPredicate::eq("Nope", 1i64),
        };
        assert!(infer_schema(&n, &db.catalog()).is_err());
    }

    #[test]
    fn weighted_avg_requires_scalar_weight() {
        let db = db();
        let n = Node::Recommend {
            target: Box::new(Node::Source {
                table: "Courses".into(),
            }),
            comparator: Box::new(students_with_ratings()),
            spec: RecommendSpec::new("CourseID", "ratings", RecMethod::RatingLookup).with_agg(
                RecAgg::WeightedAvg {
                    weight_attr: "ratings".into(), // not scalar!
                },
            ),
        };
        assert!(infer_schema(&n, &db.catalog()).is_err());
        let ok = Node::Recommend {
            target: Box::new(Node::Source {
                table: "Courses".into(),
            }),
            comparator: Box::new(students_with_ratings()),
            spec: RecommendSpec::new("CourseID", "ratings", RecMethod::RatingLookup).with_agg(
                RecAgg::WeightedAvg {
                    weight_attr: "SuID".into(),
                },
            ),
        };
        assert!(infer_schema(&ok, &db.catalog()).is_ok());
    }

    #[test]
    fn explain_renders_figure5_shape() {
        let wf = Workflow::new(
            "cf",
            Node::Recommend {
                target: Box::new(Node::Source {
                    table: "Courses".into(),
                }),
                comparator: Box::new(Node::Limit {
                    input: Box::new(Node::Recommend {
                        target: Box::new(students_with_ratings()),
                        comparator: Box::new(Node::Select {
                            input: Box::new(students_with_ratings()),
                            predicate: WfPredicate::eq("SuID", 444i64),
                        }),
                        spec: RecommendSpec::new(
                            "ratings",
                            "ratings",
                            RecMethod::Ratings {
                                sim: RatingsSim::InverseEuclidean,
                                min_common: 1,
                            },
                        ),
                    }),
                    k: 10,
                }),
                spec: RecommendSpec::new("CourseID", "ratings", RecMethod::RatingLookup)
                    .with_agg(RecAgg::Avg),
            },
        );
        let text = wf.explain();
        assert!(text.contains("Recommend ▷"));
        assert!(text.contains("inverse_euclidean"));
        assert!(text.contains("Extend ε"));
        assert!(text.contains("SuID = 444"));
        // Two recommend operators, like Figure 5(b).
        assert_eq!(text.matches("Recommend ▷").count(), 2);
    }
}
