//! Scalar expressions: AST, binding, evaluation, constant folding.
//!
//! Expressions appear in `WHERE`/`HAVING` predicates, projections, and join
//! conditions. An expression starts life *unbound* (column references by
//! name) and is [`Expr::bind`]-ed against a [`Schema`] to produce a form
//! with positional references that evaluates without name lookups — the
//! hot path runs on `&[Value]` with zero hashing.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::batch::{zip_cells, zip_nums, Column, ColumnBuilder, EvalCol, Slots, TypedCells, Vals};
use crate::error::{RelError, RelResult};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinOp {
    pub fn sql(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }

    /// True for comparison operators (result is Bool).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFn {
    Lower,
    Upper,
    Length,
    Abs,
    Round,
    Coalesce,
    /// `CONCAT(a, b, ...)` — string concatenation, NULLs become "".
    Concat,
    /// `SUBSTR(s, start, len)` — 1-based start as in SQL.
    Substr,
    /// Square root (NULL for negative input).
    Sqrt,
    /// `POW(base, exponent)`.
    Pow,
    /// Natural logarithm (NULL for non-positive input).
    Ln,
    /// `EXP(x)`.
    Exp,
}

impl ScalarFn {
    pub fn by_name(name: &str) -> Option<ScalarFn> {
        match name.to_ascii_uppercase().as_str() {
            "LOWER" => Some(ScalarFn::Lower),
            "UPPER" => Some(ScalarFn::Upper),
            "LENGTH" => Some(ScalarFn::Length),
            "ABS" => Some(ScalarFn::Abs),
            "ROUND" => Some(ScalarFn::Round),
            "COALESCE" => Some(ScalarFn::Coalesce),
            "CONCAT" => Some(ScalarFn::Concat),
            "SUBSTR" => Some(ScalarFn::Substr),
            "SQRT" => Some(ScalarFn::Sqrt),
            "POW" | "POWER" => Some(ScalarFn::Pow),
            "LN" => Some(ScalarFn::Ln),
            "EXP" => Some(ScalarFn::Exp),
            _ => None,
        }
    }

    pub fn sql(&self) -> &'static str {
        match self {
            ScalarFn::Lower => "LOWER",
            ScalarFn::Upper => "UPPER",
            ScalarFn::Length => "LENGTH",
            ScalarFn::Abs => "ABS",
            ScalarFn::Round => "ROUND",
            ScalarFn::Coalesce => "COALESCE",
            ScalarFn::Concat => "CONCAT",
            ScalarFn::Substr => "SUBSTR",
            ScalarFn::Sqrt => "SQRT",
            ScalarFn::Pow => "POW",
            ScalarFn::Ln => "LN",
            ScalarFn::Exp => "EXP",
        }
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// An unresolved column reference (`qualifier.name` or `name`).
    ColumnName {
        qualifier: Option<String>,
        name: String,
    },
    /// A resolved column reference (position in the input row).
    Column(usize),
    /// Binary operation.
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Logical NOT.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr LIKE pattern` (with `%` and `_` wildcards), case-insensitive
    /// (CourseRank-style search is case-insensitive throughout).
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// `expr IN (list)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// Scalar function call.
    Func { func: ScalarFn, args: Vec<Expr> },
}

impl Expr {
    // ------------------------------------------------------------------
    // Constructors (builder-style, used heavily by plan builders and
    // FlexRecs compilation).
    // ------------------------------------------------------------------

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn col(name: impl Into<String>) -> Expr {
        let name = name.into();
        match name.split_once('.') {
            Some((q, n)) => Expr::ColumnName {
                qualifier: Some(q.to_owned()),
                name: n.to_owned(),
            },
            None => Expr::ColumnName {
                qualifier: None,
                name,
            },
        }
    }

    pub fn col_idx(i: usize) -> Expr {
        Expr::Column(i)
    }

    pub fn binary(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(rhs),
        }
    }

    pub fn eq(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Eq, rhs)
    }
    pub fn not_eq(self, rhs: Expr) -> Expr {
        self.binary(BinOp::NotEq, rhs)
    }
    pub fn lt(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Lt, rhs)
    }
    pub fn lt_eq(self, rhs: Expr) -> Expr {
        self.binary(BinOp::LtEq, rhs)
    }
    pub fn gt(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Gt, rhs)
    }
    pub fn gt_eq(self, rhs: Expr) -> Expr {
        self.binary(BinOp::GtEq, rhs)
    }
    pub fn and(self, rhs: Expr) -> Expr {
        self.binary(BinOp::And, rhs)
    }
    pub fn or(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Or, rhs)
    }
    // Builder names deliberately mirror SQL arithmetic; they are not the
    // std::ops traits (those would force Expr: Sized bounds awkwardly in
    // builder chains and break the uniform `.and()/.eq()` style).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Add, rhs)
    }
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Sub, rhs)
    }
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Mul, rhs)
    }
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Div, rhs)
    }

    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: Box::new(Expr::lit(pattern.into())),
            negated: false,
        }
    }

    pub fn is_null(self) -> Expr {
        Expr::IsNull {
            expr: Box::new(self),
            negated: false,
        }
    }

    pub fn in_list(self, list: Vec<Expr>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
            negated: false,
        }
    }

    // ------------------------------------------------------------------
    // Binding & analysis
    // ------------------------------------------------------------------

    /// Resolve every [`Expr::ColumnName`] against `schema`, producing an
    /// expression with positional [`Expr::Column`] references.
    pub fn bind(&self, schema: &Schema) -> RelResult<Expr> {
        Ok(match self {
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::ColumnName { qualifier, name } => {
                Expr::Column(schema.resolve(qualifier.as_deref(), name)?)
            }
            Expr::Column(i) => {
                if *i >= schema.len() {
                    return Err(RelError::Invalid(format!(
                        "column index {i} out of range for schema of {} columns",
                        schema.len()
                    )));
                }
                Expr::Column(*i)
            }
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.bind(schema)?),
                right: Box::new(right.bind(schema)?),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.bind(schema)?)),
            Expr::Neg(e) => Expr::Neg(Box::new(e.bind(schema)?)),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.bind(schema)?),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.bind(schema)?),
                pattern: Box::new(pattern.bind(schema)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.bind(schema)?),
                list: list
                    .iter()
                    .map(|e| e.bind(schema))
                    .collect::<RelResult<_>>()?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.bind(schema)?),
                low: Box::new(low.bind(schema)?),
                high: Box::new(high.bind(schema)?),
                negated: *negated,
            },
            Expr::Func { func, args } => Expr::Func {
                func: *func,
                args: args
                    .iter()
                    .map(|e| e.bind(schema))
                    .collect::<RelResult<_>>()?,
            },
        })
    }

    /// Collect the positional columns this (bound) expression reads.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Literal(_) => {}
            Expr::ColumnName { .. } => {}
            Expr::Column(i) => out.push(*i),
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.referenced_columns(out),
            Expr::IsNull { expr, .. } => expr.referenced_columns(out),
            Expr::Like { expr, pattern, .. } => {
                expr.referenced_columns(out);
                pattern.referenced_columns(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.referenced_columns(out);
                for e in list {
                    e.referenced_columns(out);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.referenced_columns(out);
                low.referenced_columns(out);
                high.referenced_columns(out);
            }
            Expr::Func { args, .. } => {
                for e in args {
                    e.referenced_columns(out);
                }
            }
        }
    }

    /// One-pass binding profile: the highest positional column referenced
    /// (if any) and whether any unbound [`Expr::ColumnName`] remains. The
    /// plan validator runs this on every expression of every plan, so it
    /// must not allocate.
    pub fn binding_profile(&self) -> (Option<usize>, bool) {
        fn walk(e: &Expr, max: &mut Option<usize>, unbound: &mut bool) {
            match e {
                Expr::Literal(_) => {}
                Expr::ColumnName { .. } => *unbound = true,
                Expr::Column(i) => {
                    if max.is_none_or(|m| *i > m) {
                        *max = Some(*i);
                    }
                }
                Expr::Binary { left, right, .. } => {
                    walk(left, max, unbound);
                    walk(right, max, unbound);
                }
                Expr::Not(e) | Expr::Neg(e) => walk(e, max, unbound),
                Expr::IsNull { expr, .. } => walk(expr, max, unbound),
                Expr::Like { expr, pattern, .. } => {
                    walk(expr, max, unbound);
                    walk(pattern, max, unbound);
                }
                Expr::InList { expr, list, .. } => {
                    walk(expr, max, unbound);
                    for e in list {
                        walk(e, max, unbound);
                    }
                }
                Expr::Between {
                    expr, low, high, ..
                } => {
                    walk(expr, max, unbound);
                    walk(low, max, unbound);
                    walk(high, max, unbound);
                }
                Expr::Func { args, .. } => {
                    for e in args {
                        walk(e, max, unbound);
                    }
                }
            }
        }
        let mut max = None;
        let mut unbound = false;
        walk(self, &mut max, &mut unbound);
        (max, unbound)
    }

    /// True if the expression contains no column references (constant).
    pub fn is_constant(&self) -> bool {
        let mut cols = Vec::new();
        self.referenced_columns(&mut cols);
        cols.is_empty() && !self.has_unbound_names()
    }

    /// True if any [`Expr::ColumnName`] remains — i.e. the expression has
    /// not been fully bound to column positions.
    pub fn has_unbound_names(&self) -> bool {
        match self {
            Expr::ColumnName { .. } => true,
            Expr::Literal(_) | Expr::Column(_) => false,
            Expr::Binary { left, right, .. } => {
                left.has_unbound_names() || right.has_unbound_names()
            }
            Expr::Not(e) | Expr::Neg(e) => e.has_unbound_names(),
            Expr::IsNull { expr, .. } => expr.has_unbound_names(),
            Expr::Like { expr, pattern, .. } => {
                expr.has_unbound_names() || pattern.has_unbound_names()
            }
            Expr::InList { expr, list, .. } => {
                expr.has_unbound_names() || list.iter().any(Expr::has_unbound_names)
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.has_unbound_names() || low.has_unbound_names() || high.has_unbound_names(),
            Expr::Func { args, .. } => args.iter().any(Expr::has_unbound_names),
        }
    }

    /// Rewrite positional references through `f`.
    pub fn map_columns(&self, f: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::ColumnName { qualifier, name } => Expr::ColumnName {
                qualifier: qualifier.clone(),
                name: name.clone(),
            },
            Expr::Column(i) => Expr::Column(f(*i)),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.map_columns(f)),
                right: Box::new(right.map_columns(f)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.map_columns(f))),
            Expr::Neg(e) => Expr::Neg(Box::new(e.map_columns(f))),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.map_columns(f)),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.map_columns(f)),
                pattern: Box::new(pattern.map_columns(f)),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.map_columns(f)),
                list: list.iter().map(|e| e.map_columns(f)).collect(),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.map_columns(f)),
                low: Box::new(low.map_columns(f)),
                high: Box::new(high.map_columns(f)),
                negated: *negated,
            },
            Expr::Func { func, args } => Expr::Func {
                func: *func,
                args: args.iter().map(|e| e.map_columns(f)).collect(),
            },
        }
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Evaluate against a row. Unbound names are an error.
    pub fn eval(&self, row: &Row) -> RelResult<Value> {
        self.eval_in(row)
    }

    /// The row rules, over a row or one slot of batch columns.
    fn eval_in(&self, row: &impl RowView) -> RelResult<Value> {
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(i) => row
                .cell(*i)
                .ok_or_else(|| RelError::Invalid(format!("row too short for column index {i}"))),
            Expr::ColumnName { qualifier, name } => Err(RelError::Invalid(format!(
                "unbound column reference {}{name} at eval time",
                qualifier
                    .as_deref()
                    .map(|q| format!("{q}."))
                    .unwrap_or_default()
            ))),
            Expr::Binary { op, left, right } => {
                let l = left.eval_in(row)?;
                // Short-circuit logical operators (also gives NULL-tolerant
                // AND/OR).
                match (op, &l) {
                    (BinOp::And, Value::Bool(false)) => Ok(l),
                    (BinOp::Or, Value::Bool(true)) => Ok(l),
                    _ => binary_scalar(*op, l, right.eval_in(row)?),
                }
            }
            Expr::Not(e) => match e.eval_in(row)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Bool(!v.as_bool()?)),
            },
            Expr::Neg(e) => match e.eval_in(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                Value::Float(f) => Ok(Value::float(-f)),
                v => Err(RelError::TypeMismatch {
                    expected: "numeric".into(),
                    found: v.type_name().into(),
                }),
            },
            Expr::IsNull { expr, negated } => {
                let is_null = expr.eval_in(row)?.is_null();
                Ok(Value::Bool(is_null != *negated))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval_in(row)?;
                let p = pattern.eval_in(row)?;
                if v.is_null() || p.is_null() {
                    return Ok(Value::Null);
                }
                let matched = like_match(v.as_text()?, p.as_text()?);
                Ok(Value::Bool(matched != *negated))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_in(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut found = false;
                for item in list {
                    if item.eval_in(row)?.sql_eq(&v) {
                        found = true;
                        break;
                    }
                }
                Ok(Value::Bool(found != *negated))
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval_in(row)?;
                let lo = low.eval_in(row)?;
                let hi = high.eval_in(row)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let within =
                    lo.total_cmp(&v) != Ordering::Greater && v.total_cmp(&hi) != Ordering::Greater;
                Ok(Value::Bool(within != *negated))
            }
            Expr::Func { func, args } => eval_func(*func, args, row),
        }
    }

    /// Evaluate as a predicate: NULL collapses to false (SQL WHERE
    /// semantics).
    pub fn eval_predicate(&self, row: &Row) -> RelResult<bool> {
        match self.eval(row)? {
            Value::Null => Ok(false),
            Value::Bool(b) => Ok(b),
            other => Err(RelError::TypeMismatch {
                expected: "Bool".into(),
                found: other.type_name().into(),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Vectorized evaluation
    // ------------------------------------------------------------------

    /// Evaluate vector-at-a-time: `cols` are the input columns and `sel`
    /// names the base slots to evaluate, in output order. Returns a dense
    /// column with one slot per selected row, or a broadcast constant,
    /// equal slot for slot to [`Expr::eval`] on each selected row.
    ///
    /// Typed kernels exist only for the node kinds the workloads evaluate
    /// in batches: column reads and literals, the six comparisons (one
    /// kernel, Bool cells plus validity from typed slices), `AND`/`OR`
    /// (one masked-lazy kernel: the right operand is evaluated only over
    /// the slots whose left side does not short-circuit, so `a <> 0 AND
    /// b / a > 1` never divides by zero) and `IS NULL`. Every other node
    /// runs [`Expr::eval`]'s own rules slot by slot over a row view of
    /// the columns, so its laziness and errors are the row evaluator's.
    pub fn eval_batch(&self, cols: &[Arc<Column>], sel: Slots<'_>) -> RelResult<EvalCol> {
        if sel.is_empty() {
            // Zero rows: nothing to evaluate, and nothing may error.
            return Ok(EvalCol::Col(Column::empty()));
        }
        match self {
            Expr::Literal(v) => Ok(EvalCol::Const(v.clone())),
            Expr::Column(i) if *i < cols.len() => Ok(EvalCol::Col(cols[*i].take(sel))),
            Expr::Binary { op, left, right } if op.is_comparison() => {
                compare_batch(*op, left, right, cols, sel)
            }
            Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                left,
                right,
            } => logic_batch(*op, left, right, cols, sel),
            Expr::IsNull { expr, negated } => {
                let o = operand(expr, cols, sel)?;
                if let Operand::Const(c) = &o {
                    return Ok(EvalCol::Const(Value::Bool(c.is_null() != *negated)));
                }
                let n = sel.len();
                let nulls = o.vals(cols, sel).nulls(n);
                let data = nulls.into_iter().map(|null| null != *negated).collect();
                Ok(EvalCol::Col(Column::bools(Some((data, None)), n)))
            }
            _ => per_cell(sel.len(), |j| {
                self.eval_in(&SlotRow {
                    cols,
                    slot: sel.get(j),
                })
            }),
        }
    }

    /// Constant-fold: evaluate constant subtrees down to literals through
    /// [`Expr::eval_batch`] over a one-slot batch with no columns (the
    /// risinglight approach: build a one-element array, apply the kernel,
    /// take element 0), so folding runs exactly the code the executor
    /// runs. A subtree whose evaluation errors stays unfolded, so the
    /// error surfaces at execution time.
    pub fn fold(&self) -> Expr {
        let f = Expr::fold;
        let folded = match self {
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(f(left)),
                right: Box::new(f(right)),
            },
            Expr::Not(e) => Expr::Not(Box::new(f(e))),
            Expr::Neg(e) => Expr::Neg(Box::new(f(e))),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(f(expr)),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(f(expr)),
                pattern: Box::new(f(pattern)),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(f(expr)),
                list: list.iter().map(f).collect(),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(f(expr)),
                low: Box::new(f(low)),
                high: Box::new(f(high)),
                negated: *negated,
            },
            Expr::Func { func, args } => Expr::Func {
                func: *func,
                args: args.iter().map(f).collect(),
            },
            other => other.clone(),
        };
        if folded.is_constant() {
            if let Ok(ec) = folded.eval_batch(&[], Slots::all(1)) {
                return Expr::Literal(ec.value_at(0));
            }
        }
        folded
    }

    /// Split a conjunctive predicate into its AND-ed parts.
    pub fn split_conjunction(&self) -> Vec<Expr> {
        match self {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut parts = left.split_conjunction();
                parts.extend(right.split_conjunction());
                parts
            }
            other => vec![other.clone()],
        }
    }

    /// Reassemble a conjunction from parts. Empty input folds to TRUE.
    pub fn conjoin(parts: Vec<Expr>) -> Expr {
        parts
            .into_iter()
            .reduce(|a, b| a.and(b))
            .unwrap_or_else(|| Expr::lit(true))
    }
}

/// What the row rules read column `i` from: a row, or one slot of batch
/// columns.
trait RowView {
    fn cell(&self, i: usize) -> Option<Value>;
}

impl RowView for Row {
    fn cell(&self, i: usize) -> Option<Value> {
        self.get(i).cloned()
    }
}

/// Slot `slot` of `cols`, read as a row.
struct SlotRow<'a> {
    cols: &'a [Arc<Column>],
    slot: usize,
}

impl RowView for SlotRow<'_> {
    fn cell(&self, i: usize) -> Option<Value> {
        self.cols.get(i).map(|c| c.value(self.slot))
    }
}

/// Resolve a comparison operator against an ordering: one bit per
/// accepted ordering (Less, Equal, Greater), so a kernel's inner loop has
/// no branch on the operator.
#[inline]
fn cmp_accepts(op: BinOp) -> impl Fn(Ordering) -> bool + Copy {
    let accepts: u8 = match op {
        BinOp::Eq => 0b010,
        BinOp::NotEq => 0b101,
        BinOp::Lt => 0b001,
        BinOp::LtEq => 0b011,
        BinOp::Gt => 0b100,
        BinOp::GtEq => 0b110,
        _ => unreachable!(),
    };
    move |ord| (accepts >> (ord as i8 + 1)) & 1 == 1
}

/// Apply a binary operator to two *evaluated* values: the semantic core
/// of the row rules, which the comparison and `AND`/`OR` kernels also
/// call for the cells they cannot read typed. Short-circuiting is the
/// caller's job; `And`/`Or` here are the non-short-circuit combine.
fn binary_scalar(op: BinOp, l: Value, r: Value) -> RelResult<Value> {
    if matches!(op, BinOp::And | BinOp::Or) {
        return match (l, r) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (a, b) => {
                let (a, b) = (a.as_bool()?, b.as_bool()?);
                Ok(Value::Bool(match op {
                    BinOp::And => a && b,
                    _ => a || b,
                }))
            }
        };
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        // DATE columns compare against integer literals (days since
        // epoch) — coerce so `WHERE Date = 100` behaves as expected.
        let (l, r) = match (&l, &r) {
            (Value::Date(_), Value::Int(i)) => (l.clone(), Value::Date(*i as i32)),
            (Value::Int(i), Value::Date(_)) => (Value::Date(*i as i32), r.clone()),
            _ => (l, r),
        };
        return Ok(Value::Bool(cmp_accepts(op)(l.total_cmp(&r))));
    }
    // Arithmetic. Text + Text concatenates (convenience used by FlexRecs'
    // compiled SQL when labelling results). Int × Int is SQL-style: a
    // quotient that is not exact is a Float, as ratings averages must
    // be, and overflow wraps (two's complement) like `SUM`: `i64::MIN /
    // -1` is `i64::MIN` and `i64::MIN % -1` is 0. Anything else computes
    // in floats, where a NaN result is NULL ([`Value::float`]). Only a
    // zero divisor is an error.
    let by_zero = |what: &str| Err(RelError::Arithmetic(format!("{what} by zero")));
    match (&l, &r) {
        (Value::Text(a), Value::Text(b)) if op == BinOp::Add => Ok(Value::Text(format!("{a}{b}"))),
        (&Value::Int(a), &Value::Int(b)) => Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(b)),
            BinOp::Div if b == 0 => return by_zero("division"),
            BinOp::Div if a.wrapping_rem(b) == 0 => Value::Int(a.wrapping_div(b)),
            BinOp::Div => Value::float(a as f64 / b as f64),
            _ if b == 0 => return by_zero("modulo"),
            _ => Value::Int(a.wrapping_rem(b)),
        }),
        _ => {
            let (a, b) = (l.as_float()?, r.as_float()?);
            Ok(Value::float(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div if b == 0.0 => return by_zero("division"),
                BinOp::Div => a / b,
                _ if b == 0.0 => return by_zero("modulo"),
                _ => a % b,
            }))
        }
    }
}

/// A kernel operand: a view of an input column through the selection, a
/// dense computed column, or a broadcast constant. Leaf column references
/// stay views so kernels read table storage directly instead of gathering
/// first.
enum Operand {
    ColRef(usize),
    Owned(Column),
    Const(Value),
}

impl Operand {
    fn vals<'a>(&'a self, cols: &'a [Arc<Column>], sel: Slots<'a>) -> Vals<'a> {
        match self {
            Operand::ColRef(i) => Vals::View {
                col: &cols[*i],
                slots: sel,
            },
            Operand::Owned(c) => c.vals(),
            Operand::Const(v) => Vals::Const { v },
        }
    }
}

fn operand(e: &Expr, cols: &[Arc<Column>], sel: Slots<'_>) -> RelResult<Operand> {
    match e {
        Expr::Literal(v) => Ok(Operand::Const(v.clone())),
        Expr::Column(i) if *i < cols.len() => Ok(Operand::ColRef(*i)),
        _ => match e.eval_batch(cols, sel)? {
            EvalCol::Col(c) => Ok(Operand::Owned(c)),
            EvalCol::Const(v) => Ok(Operand::Const(v)),
        },
    }
}

/// One scalar result per position, through a builder.
fn per_cell(n: usize, f: impl Fn(usize) -> RelResult<Value>) -> RelResult<EvalCol> {
    let mut out = ColumnBuilder::with_capacity(n);
    for j in 0..n {
        out.push(f(j)?);
    }
    Ok(EvalCol::Col(out.finish()))
}

/// `Value::total_cmp` on two floats.
#[inline]
fn float_cmp(x: f64, y: f64) -> Ordering {
    x.partial_cmp(&y).unwrap_or(Ordering::Equal)
}

/// `accept(l.total_cmp(r))` per position, NULL where either side is:
/// `Some` when both sides are Int/Float, Text or Bool cells (the inner
/// `None`: every position is NULL), `None` for the per-cell fallback.
fn compare_vals(
    n: usize,
    l: Vals<'_>,
    r: Vals<'_>,
    accept: impl Fn(Ordering) -> bool,
) -> Option<Option<TypedCells<bool>>> {
    if let (Some(a), Some(b)) = (l.ints(), r.ints()) {
        return Some(zip_cells(n, a, b, |x, y| accept(x.cmp(&y))));
    }
    if let (Some(a), Some(b)) = (l.nums(), r.nums()) {
        return Some(zip_nums(n, a, b, |x, y| accept(float_cmp(x, y))));
    }
    if let (Some(a), Some(b)) = (l.texts(), r.texts()) {
        return Some(zip_cells(n, a, b, |x, y| accept(x.cmp(y))));
    }
    if let (Some(a), Some(b)) = (l.bools(), r.bools()) {
        return Some(zip_cells(n, a, b, |x, y| accept(x.cmp(&y))));
    }
    None
}

/// The comparison kernel: typed cells through [`compare_vals`];
/// `Generic` storage and operands of different types compare cell by
/// cell through [`binary_scalar`].
fn compare_batch(
    op: BinOp,
    left: &Expr,
    right: &Expr,
    cols: &[Arc<Column>],
    sel: Slots<'_>,
) -> RelResult<EvalCol> {
    let n = sel.len();
    let lo = operand(left, cols, sel)?;
    let ro = operand(right, cols, sel)?;
    if let (Operand::Const(a), Operand::Const(b)) = (&lo, &ro) {
        return binary_scalar(op, a.clone(), b.clone()).map(EvalCol::Const);
    }
    let (l, r) = (lo.vals(cols, sel), ro.vals(cols, sel));
    match compare_vals(n, l, r, cmp_accepts(op)) {
        Some(cells) => Ok(EvalCol::Col(Column::bools(cells, n))),
        None => per_cell(n, |j| binary_scalar(op, l.value_at(j), r.value_at(j))),
    }
}

/// The `AND`/`OR` kernel, masked-lazy: the right operand is evaluated
/// only over the slots whose left side does not short-circuit.
fn logic_batch(
    op: BinOp,
    left: &Expr,
    right: &Expr,
    cols: &[Arc<Column>],
    sel: Slots<'_>,
) -> RelResult<EvalCol> {
    let n = sel.len();
    // The left-side value that short-circuits this operator.
    let sc = matches!(op, BinOp::Or);
    let l = left.eval_batch(cols, sel)?;
    let lc = match l {
        EvalCol::Const(lv) if lv == Value::Bool(sc) => return Ok(EvalCol::Const(lv)),
        EvalCol::Const(lv) => {
            return match right.eval_batch(cols, sel)? {
                EvalCol::Const(rv) => binary_scalar(op, lv, rv).map(EvalCol::Const),
                // NULL combined with anything is NULL; the non-short-
                // circuiting Bool leaves the right side's Bool cells as
                // they are.
                EvalCol::Col(_) if lv.is_null() => Ok(EvalCol::Col(Column::nulls(n))),
                EvalCol::Col(rc) if rc.vals().bools().is_some() && lv.as_bool().is_ok() => {
                    Ok(EvalCol::Col(rc))
                }
                EvalCol::Col(rc) => per_cell(n, |j| binary_scalar(op, lv.clone(), rc.value(j))),
            };
        }
        EvalCol::Col(lc) => lc,
    };
    // Rows where the left side does not short-circuit still need the right
    // side — evaluate it only over that sub-selection, preserving the row
    // evaluator's lazy error semantics.
    let lb = lc.vals().bools();
    let pending: Vec<u32> = (0..n as u32)
        .filter(|&j| match lb {
            Some(a) => a.get(j as usize) != Some(sc),
            None => lc.value(j as usize) != Value::Bool(sc),
        })
        .collect();
    if pending.is_empty() {
        return Ok(EvalCol::Const(Value::Bool(sc)));
    }
    let sub: Vec<u32> = pending
        .iter()
        .map(|&j| sel.get(j as usize) as u32)
        .collect();
    let r = right.eval_batch(cols, Slots::List(&sub))?;
    if let (Some(a), Some(b)) = (lb, r.vals().bools()) {
        // A pending row is NULL when its left side is; otherwise the
        // non-short-circuiting Bool leaves the right side's cell.
        let mut data = vec![sc; n];
        let mut validity = vec![true; n];
        for (k, &j) in pending.iter().enumerate() {
            let j = j as usize;
            match (a.get(j), b.get(k)) {
                (Some(_), Some(x)) => data[j] = x,
                _ => validity[j] = false,
            }
        }
        return Ok(EvalCol::Col(Column::bools(Some((data, Some(validity))), n)));
    }
    let mut out = ColumnBuilder::with_capacity(n);
    let mut k = 0usize;
    for j in 0..n {
        if pending.get(k) == Some(&(j as u32)) {
            out.push(binary_scalar(op, lc.value(j), r.value_at(k))?);
            k += 1;
        } else {
            out.push(Value::Bool(sc));
        }
    }
    Ok(EvalCol::Col(out.finish()))
}

fn eval_func(func: ScalarFn, args: &[Expr], row: &impl RowView) -> RelResult<Value> {
    let arity_err = |expected: usize| {
        Err(RelError::Invalid(format!(
            "{} expects {expected} argument(s), got {}",
            func.sql(),
            args.len()
        )))
    };
    match func {
        ScalarFn::Lower | ScalarFn::Upper | ScalarFn::Length => {
            if args.len() != 1 {
                return arity_err(1);
            }
            let v = args[0].eval_in(row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let s = v.as_text()?;
            Ok(match func {
                ScalarFn::Lower => Value::Text(s.to_lowercase()),
                ScalarFn::Upper => Value::Text(s.to_uppercase()),
                _ => Value::Int(s.chars().count() as i64),
            })
        }
        ScalarFn::Abs => {
            if args.len() != 1 {
                return arity_err(1);
            }
            match args[0].eval_in(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                Value::Float(f) => Ok(Value::float(f.abs())),
                v => Err(RelError::TypeMismatch {
                    expected: "numeric".into(),
                    found: v.type_name().into(),
                }),
            }
        }
        ScalarFn::Round => {
            if args.is_empty() || args.len() > 2 {
                return arity_err(1);
            }
            let v = args[0].eval_in(row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let digits = match args.get(1) {
                Some(d) => d.eval_in(row)?.as_int()?,
                None => 0,
            };
            let scale = 10f64.powi(digits as i32);
            Ok(Value::float((v.as_float()? * scale).round() / scale))
        }
        ScalarFn::Coalesce => {
            for a in args {
                let v = a.eval_in(row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        ScalarFn::Concat => {
            let mut s = String::new();
            for a in args {
                let v = a.eval_in(row)?;
                if !v.is_null() {
                    s.push_str(&v.to_string());
                }
            }
            Ok(Value::Text(s))
        }
        ScalarFn::Sqrt | ScalarFn::Ln | ScalarFn::Exp => {
            if args.len() != 1 {
                return arity_err(1);
            }
            let v = args[0].eval_in(row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let f = v.as_float()?;
            Ok(match func {
                ScalarFn::Sqrt if f < 0.0 => Value::Null,
                ScalarFn::Sqrt => Value::float(f.sqrt()),
                ScalarFn::Ln if f <= 0.0 => Value::Null,
                ScalarFn::Ln => Value::float(f.ln()),
                _ => Value::float(f.exp()),
            })
        }
        ScalarFn::Pow => {
            if args.len() != 2 {
                return arity_err(2);
            }
            let a = args[0].eval_in(row)?;
            let b = args[1].eval_in(row)?;
            if a.is_null() || b.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::float(a.as_float()?.powf(b.as_float()?)))
        }
        ScalarFn::Substr => {
            if args.len() != 3 {
                return arity_err(3);
            }
            let v = args[0].eval_in(row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            // 1-based SQL start.
            let s = v.as_text()?;
            let start = args[1].eval_in(row)?.as_int()?.max(1) as usize - 1;
            let len = args[2].eval_in(row)?.as_int()?.max(0) as usize;
            Ok(Value::Text(s.chars().skip(start).take(len).collect()))
        }
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (any one char),
/// case-insensitive. Iterative two-pointer algorithm (no recursion, no
/// allocation beyond the lowercased text and pattern).
pub fn like_match(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.to_lowercase().chars().collect();
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    let (mut ti, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_t = ti;
            pi += 1;
        } else if star_p != usize::MAX {
            star_t += 1;
            ti = star_t;
            pi = star_p + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(Value::Text(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::ColumnName { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Column(i) => write!(f, "#{i}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {} {right})", op.sql()),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Func { func, args } => {
                write!(f, "{}(", func.sql())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Text),
            Column::new("c", DataType::Float),
        ])
    }

    fn row() -> Row {
        vec![
            Value::Int(10),
            Value::text("Greek Science"),
            Value::Float(2.5),
        ]
    }

    #[test]
    fn bind_and_eval_column() {
        let e = Expr::col("b").bind(&schema()).unwrap();
        assert_eq!(e.eval(&row()).unwrap(), Value::text("Greek Science"));
    }

    #[test]
    fn arithmetic() {
        let e = Expr::col("a").add(Expr::lit(5i64)).bind(&schema()).unwrap();
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(15));
        let e = Expr::col("a").div(Expr::lit(4i64)).bind(&schema()).unwrap();
        assert_eq!(e.eval(&row()).unwrap(), Value::Float(2.5));
        let e = Expr::col("a").div(Expr::lit(0i64)).bind(&schema()).unwrap();
        assert!(matches!(e.eval(&row()), Err(RelError::Arithmetic(_))));
    }

    #[test]
    fn comparisons_and_null_semantics() {
        let e = Expr::col("a").gt(Expr::lit(5i64)).bind(&schema()).unwrap();
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
        let e = Expr::lit(Value::Null).eq(Expr::lit(1i64));
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&row()).unwrap()); // NULL → false in WHERE
    }

    #[test]
    fn short_circuit_and() {
        // (false AND error) must not error.
        let e = Expr::lit(false).and(Expr::lit(1i64).div(Expr::lit(0i64)).eq(Expr::lit(1i64)));
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(false));
        let e = Expr::lit(true).or(Expr::lit(1i64).div(Expr::lit(0i64)).eq(Expr::lit(1i64)));
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("American Studies", "%american%"));
        assert!(like_match("American Studies", "american%"));
        assert!(!like_match("Latin American", "american%"));
        assert!(like_match("CS106A", "CS1_6A"));
        assert!(like_match("", "%"));
        assert!(!like_match("x", ""));
        assert!(like_match("abc", "abc"));
        assert!(like_match("abcdef", "a%c%f"));
        assert!(!like_match("abcdef", "a%c%g"));
    }

    #[test]
    fn in_and_between() {
        let e = Expr::col("a")
            .in_list(vec![Expr::lit(1i64), Expr::lit(10i64)])
            .bind(&schema())
            .unwrap();
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));

        let e = Expr::Between {
            expr: Box::new(Expr::col("c")),
            low: Box::new(Expr::lit(2.0f64)),
            high: Box::new(Expr::lit(3.0f64)),
            negated: false,
        }
        .bind(&schema())
        .unwrap();
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn scalar_functions() {
        let r = row();
        let e = Expr::Func {
            func: ScalarFn::Lower,
            args: vec![Expr::col_idx(1)],
        };
        assert_eq!(e.eval(&r).unwrap(), Value::text("greek science"));
        let e = Expr::Func {
            func: ScalarFn::Length,
            args: vec![Expr::col_idx(1)],
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Int(13));
        let e = Expr::Func {
            func: ScalarFn::Coalesce,
            args: vec![Expr::lit(Value::Null), Expr::lit(7i64)],
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Int(7));
        let e = Expr::Func {
            func: ScalarFn::Substr,
            args: vec![Expr::col_idx(1), Expr::lit(7i64), Expr::lit(7i64)],
        };
        assert_eq!(e.eval(&r).unwrap(), Value::text("Science"));
        let e = Expr::Func {
            func: ScalarFn::Round,
            args: vec![Expr::lit(2.567f64), Expr::lit(1i64)],
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Float(2.6));
    }

    #[test]
    fn constant_folding() {
        let cases = vec![
            (
                Expr::lit(2i64).add(Expr::lit(3i64)).mul(Expr::lit(4i64)),
                Expr::lit(20i64),
            ),
            // Non-constant parts survive.
            (
                Expr::col_idx(0).add(Expr::lit(2i64).add(Expr::lit(3i64))),
                Expr::col_idx(0).add(Expr::lit(5i64)),
            ),
            (
                Expr::lit(1i64).gt(Expr::lit(2i64)).or(Expr::lit(true)),
                Expr::lit(true),
            ),
            (
                Expr::Func {
                    func: ScalarFn::Round,
                    args: vec![Expr::lit(2.567f64), Expr::lit(1i64)],
                },
                Expr::lit(2.6f64),
            ),
            // Errors must survive folding for runtime reporting, not panic.
            (
                Expr::lit(1i64).div(Expr::lit(0i64)),
                Expr::lit(1i64).div(Expr::lit(0i64)),
            ),
        ];
        for (e, want) in cases {
            assert_eq!(e.fold(), want, "fold of {e}");
        }
    }

    #[test]
    fn batch_kernels_match_row_eval() {
        use crate::batch::Batch;
        // Mixed NULLs, negatives, and empty strings across typed columns:
        // col0 Int, col1 Text, col2 Float.
        let rows: Vec<Row> = vec![
            vec![
                Value::Int(3),
                Value::text("Greek Science"),
                Value::Float(2.5),
            ],
            vec![Value::Null, Value::text(""), Value::Float(-1.25)],
            vec![Value::Int(-7), Value::Null, Value::Null],
            vec![Value::Int(0), Value::text("abc"), Value::Float(9.0)],
        ];
        let exprs: Vec<Expr> = vec![
            Expr::col_idx(0).add(Expr::lit(2i64)).mul(Expr::col_idx(0)),
            Expr::col_idx(2).sub(Expr::lit(0.5f64)),
            Expr::col_idx(0).gt(Expr::lit(1i64)),
            Expr::col_idx(1).eq(Expr::lit("abc")),
            Expr::col_idx(0)
                .gt(Expr::lit(0i64))
                .and(Expr::col_idx(2).lt(Expr::lit(5.0f64))),
            Expr::col_idx(0)
                .lt(Expr::lit(0i64))
                .or(Expr::col_idx(1).eq(Expr::lit(""))),
            Expr::Not(Box::new(Expr::col_idx(0).gt_eq(Expr::lit(0i64)))),
            Expr::Neg(Box::new(Expr::col_idx(2))),
            Expr::IsNull {
                expr: Box::new(Expr::col_idx(1)),
                negated: false,
            },
            Expr::col_idx(1).like("%c%"),
            Expr::InList {
                expr: Box::new(Expr::col_idx(0)),
                list: vec![Expr::lit(3i64), Expr::lit(0i64), Expr::lit(Value::Null)],
                negated: false,
            },
            Expr::Between {
                expr: Box::new(Expr::col_idx(2)),
                low: Box::new(Expr::lit(-2.0f64)),
                high: Box::new(Expr::lit(3.0f64)),
                negated: false,
            },
            Expr::Func {
                func: ScalarFn::Lower,
                args: vec![Expr::col_idx(1)],
            },
            Expr::Func {
                func: ScalarFn::Coalesce,
                args: vec![Expr::col_idx(0), Expr::col_idx(2), Expr::lit(99i64)],
            },
            Expr::Func {
                func: ScalarFn::Round,
                args: vec![Expr::col_idx(2), Expr::lit(1i64)],
            },
            Expr::Func {
                func: ScalarFn::Substr,
                args: vec![Expr::col_idx(1), Expr::lit(2i64), Expr::lit(4i64)],
            },
            Expr::Func {
                func: ScalarFn::Concat,
                args: vec![Expr::col_idx(1), Expr::lit("-"), Expr::col_idx(0)],
            },
            Expr::Func {
                func: ScalarFn::Abs,
                args: vec![Expr::col_idx(0)],
            },
        ];
        let b = Batch::from_rows(&rows, 3);
        for e in &exprs {
            let ec = e.eval_batch(b.columns(), Slots::all(rows.len())).unwrap();
            for (j, r) in rows.iter().enumerate() {
                assert_eq!(ec.value_at(j), e.eval(r).unwrap(), "expr {e} row {j}");
            }
            // A run that starts past slot 0 reads its own slots.
            let run = Slots::Run { start: 1, len: 2 };
            let ec = e.eval_batch(b.columns(), run).unwrap();
            for (k, r) in rows[1..3].iter().enumerate() {
                assert_eq!(ec.value_at(k), e.eval(r).unwrap(), "expr {e} run {k}");
            }
        }
        // A sub-selection evaluates only the selected slots, in order.
        let sub: Vec<u32> = vec![3, 0];
        for e in &exprs {
            let ec = e.eval_batch(b.columns(), Slots::List(&sub)).unwrap();
            for (k, &j) in sub.iter().enumerate() {
                assert_eq!(
                    ec.value_at(k),
                    e.eval(&rows[j as usize]).unwrap(),
                    "expr {e} slot {j}"
                );
            }
        }
    }

    #[test]
    fn batch_division_errors_like_row_eval() {
        use crate::batch::Batch;
        let rows: Vec<Row> = vec![
            vec![Value::Float(2.5), Value::Int(0)],
            vec![Value::Null, Value::Null],
            vec![Value::Float(1.0), Value::Int(3)],
        ];
        let b = Batch::from_rows(&rows, 2);
        let float_divisor = || Expr::col_idx(0).sub(Expr::lit(2.5f64));
        let exprs = [
            Expr::lit(1.0f64).div(float_divisor()),
            Expr::lit(1i64).binary(BinOp::Mod, float_divisor()),
            Expr::lit(7i64).binary(BinOp::Mod, Expr::col_idx(1)),
            Expr::lit(7i64).div(Expr::col_idx(1)),
        ];
        for e in exprs {
            let row_err = e.eval(&rows[0]).unwrap_err();
            let batch_err = e.eval_batch(b.columns(), Slots::all(3)).unwrap_err();
            assert_eq!(format!("{row_err:?}"), format!("{batch_err:?}"), "{e}");
            // A NULL divisor is NULL, not an error, through a selection and
            // through a plain run alike.
            for slots in [Slots::List(&[1, 2]), Slots::Run { start: 1, len: 2 }] {
                let ec = e.eval_batch(b.columns(), slots).unwrap();
                assert_eq!(ec.value_at(0), Value::Null, "{e}");
                assert_eq!(ec.value_at(1), e.eval(&rows[2]).unwrap(), "{e}");
            }
        }
    }

    /// SplitMix64: a seeded stream, so a failing case replays from its
    /// printed seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    /// Columns of the random batches: Int, Float, Text, Bool, mixed
    /// (`Generic` storage) and LIKE patterns (Text).
    const WIDTH: usize = 6;

    fn random_cell(rng: &mut Rng, c: usize) -> Value {
        if rng.below(5) == 0 {
            return Value::Null;
        }
        match c {
            0 => Value::Int(rng.pick(&[0, 1, -1, 2, 7, -3, i64::MAX, i64::MIN])),
            1 => Value::Float(rng.pick(&[0.0, -0.0, 0.5, -2.5, 3.0, 1e300])),
            2 => Value::text(rng.pick(&["", "a", "Ab", "abc", "é", "2"])),
            3 => Value::Bool(rng.below(2) == 0),
            4 => match rng.below(5) {
                4 => Value::Date(rng.pick(&[0, 2, 7])),
                c => random_cell(rng, c),
            },
            _ => Value::text(rng.pick(&["%", "a%", "_b%", "%C", "", "A_", "é"])),
        }
    }

    fn random_leaf(rng: &mut Rng) -> Expr {
        let c = rng.below(WIDTH);
        match rng.below(2) {
            0 => Expr::col_idx(c),
            _ => Expr::Literal(random_cell(rng, c)),
        }
    }

    /// A tree of the kinds with a kernel (comparisons, `AND`/`OR`, `IS
    /// NULL`) over random subtrees, so kernels are reached from the
    /// root, as a filter reaches them.
    fn kernel_expr(rng: &mut Rng, depth: usize) -> Expr {
        use BinOp::*;
        if depth == 0 {
            return random_leaf(rng);
        }
        let sub = |rng: &mut Rng| Box::new(kernel_expr(rng, depth - 1));
        match rng.below(4) {
            0 => Expr::IsNull {
                expr: Box::new(random_expr(rng, depth - 1)),
                negated: rng.below(2) == 0,
            },
            1 => Expr::Binary {
                op: rng.pick(&[And, Or]),
                left: sub(rng),
                right: sub(rng),
            },
            _ => Expr::Binary {
                op: rng.pick(&[Eq, NotEq, Lt, LtEq, Gt, GtEq]),
                left: Box::new(random_expr(rng, depth - 1)),
                right: Box::new(random_expr(rng, depth - 1)),
            },
        }
    }

    /// A random tree over every node kind: every operator and function
    /// (and a wrong arity now and then), LIKE over column and constant
    /// patterns, IN over column items, and divisors that are often zero.
    fn random_expr(rng: &mut Rng, depth: usize) -> Expr {
        if depth == 0 || rng.below(4) == 0 {
            return random_leaf(rng);
        }
        let d = depth - 1;
        let negated = rng.below(2) == 0;
        let boxed = |rng: &mut Rng| Box::new(random_expr(rng, d));
        match rng.below(10) {
            0..=2 => {
                use BinOp::*;
                let op = rng.pick(&[
                    Add, Sub, Mul, Div, Mod, Eq, NotEq, Lt, LtEq, Gt, GtEq, And, Or,
                ]);
                Expr::Binary {
                    op,
                    left: boxed(rng),
                    right: boxed(rng),
                }
            }
            3 => Expr::Not(boxed(rng)),
            4 => Expr::Neg(boxed(rng)),
            5 => Expr::IsNull {
                expr: boxed(rng),
                negated,
            },
            6 => Expr::Like {
                expr: boxed(rng),
                pattern: boxed(rng),
                negated,
            },
            7 => Expr::InList {
                expr: boxed(rng),
                list: (0..rng.below(4)).map(|_| random_expr(rng, d)).collect(),
                negated,
            },
            8 => Expr::Between {
                expr: boxed(rng),
                low: boxed(rng),
                high: boxed(rng),
                negated,
            },
            _ => {
                use ScalarFn::*;
                let func = rng.pick(&[
                    Lower, Upper, Length, Abs, Round, Coalesce, Concat, Substr, Sqrt, Pow, Ln, Exp,
                ]);
                let arity = match func {
                    _ if rng.below(10) == 0 => rng.below(4),
                    Round => 1 + rng.below(2),
                    Coalesce | Concat => rng.below(4),
                    Pow => 2,
                    Substr => 3,
                    _ => 1,
                };
                Expr::Func {
                    func,
                    args: (0..arity).map(|_| random_expr(rng, d)).collect(),
                }
            }
        }
    }

    /// The batched evaluator agrees with the row evaluator on random
    /// trees over random columns with NULLs: over a whole batch, a run
    /// that starts past slot 0 and a list of slots (out of order, with
    /// repeats), each selected slot's value is the row's, and the batch
    /// errors exactly when some selected row does. The release CI step
    /// runs this too, where integer overflow wraps instead of panicking.
    #[test]
    fn eval_differential() {
        use crate::batch::Batch;
        let (mut compared, mut errored) = (0usize, 0usize);
        for seed in 0..10_000u64 {
            let mut rng = Rng(seed);
            let n = 1 + rng.below(9);
            let rows: Vec<Row> = (0..n)
                .map(|_| (0..WIDTH).map(|c| random_cell(&mut rng, c)).collect())
                .collect();
            let b = Batch::from_rows(&rows, WIDTH);
            let e = match rng.below(2) {
                0 => kernel_expr(&mut rng, 3),
                _ => random_expr(&mut rng, 4),
            };
            let start = rng.below(n);
            let len = 1 + rng.below(n - start);
            let list: Vec<u32> = (0..1 + rng.below(2 * n))
                .map(|_| rng.below(n) as u32)
                .collect();
            for sel in [Slots::all(n), Slots::Run { start, len }, Slots::List(&list)] {
                let want: Vec<RelResult<Value>> =
                    (0..sel.len()).map(|j| e.eval(&rows[sel.get(j)])).collect();
                match e.eval_batch(b.columns(), sel) {
                    Ok(ec) => {
                        for (j, w) in want.iter().enumerate() {
                            let slot = sel.get(j);
                            match w {
                                Ok(w) => assert_eq!(
                                    format!("{:?}", ec.value_at(j)),
                                    format!("{w:?}"),
                                    "seed {seed}: {e} at slot {slot}"
                                ),
                                Err(err) => panic!(
                                    "seed {seed}: {e} is a value in the batch, \
                                     but slot {slot} errors: {err}"
                                ),
                            }
                        }
                        compared += 1;
                    }
                    Err(err) => {
                        assert!(
                            want.iter().any(Result::is_err),
                            "seed {seed}: {e} errors in the batch ({err}), but no selected row does"
                        );
                        errored += 1;
                    }
                }
            }
        }
        // Both outcomes are common, or the corpus shows little.
        assert!(
            compared > 10_000 && errored > 10_000,
            "{compared} compared, {errored} errored"
        );
    }

    #[test]
    fn split_and_conjoin_roundtrip() {
        let e = Expr::col_idx(0)
            .gt(Expr::lit(1i64))
            .and(Expr::col_idx(1).eq(Expr::lit("x")))
            .and(Expr::col_idx(2).lt(Expr::lit(3i64)));
        let parts = e.split_conjunction();
        assert_eq!(parts.len(), 3);
        let again = Expr::conjoin(parts);
        // Semantics preserved (evaluate on a sample row).
        let r: Row = vec![Value::Int(2), Value::text("x"), Value::Int(1)];
        assert_eq!(
            e.eval_predicate(&r).unwrap(),
            again.eval_predicate(&r).unwrap()
        );
    }

    #[test]
    fn display_roundtrips_readably() {
        let e = Expr::col("a")
            .gt_eq(Expr::lit(5i64))
            .and(Expr::col("b").like("%x%"));
        assert_eq!(e.to_string(), "((a >= 5) AND (b LIKE '%x%'))");
    }

    #[test]
    fn unbound_eval_is_error() {
        assert!(Expr::col("nope").eval(&row()).is_err());
    }

    proptest! {
        #[test]
        fn fold_preserves_semantics(a in -100i64..100, b in -100i64..100, c in -100i64..100) {
            let e = Expr::lit(a).add(Expr::lit(b)).mul(Expr::lit(c));
            let folded = e.fold();
            let empty: Row = Vec::new();
            prop_assert_eq!(e.eval(&empty).unwrap(), folded.eval(&empty).unwrap());
        }

        #[test]
        fn like_self_match(s in "[a-z ]{0,20}") {
            prop_assert!(like_match(&s, &s));
            prop_assert!(like_match(&s, "%"));
            let mut p = String::from("%");
            p.push_str(&s);
            p.push('%');
            prop_assert!(like_match(&s, &p));
        }

        #[test]
        fn comparison_totality(a in -50i64..50, b in -50i64..50) {
            let r: Row = Vec::new();
            let lt = Expr::lit(a).lt(Expr::lit(b)).eval(&r).unwrap().as_bool().unwrap();
            let eq = Expr::lit(a).eq(Expr::lit(b)).eval(&r).unwrap().as_bool().unwrap();
            let gt = Expr::lit(a).gt(Expr::lit(b)).eval(&r).unwrap().as_bool().unwrap();
            prop_assert_eq!(1, lt as u8 + eq as u8 + gt as u8);
        }
    }
}
