//! Scalar expressions: AST, binding, evaluation, constant folding.
//!
//! Expressions appear in `WHERE`/`HAVING` predicates, projections, and join
//! conditions. An expression starts life *unbound* (column references by
//! name) and is [`Expr::bind`]-ed against a [`Schema`] to produce a form
//! with positional references that evaluates without name lookups — the
//! hot path runs on `&[Value]` with zero hashing.

use std::fmt;
use std::sync::Arc;

use crate::batch::{self, ColumnBuilder, EvalCol, Vals};
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

    /// Shift every positional column reference by `delta` (used when an
    /// expression written against a join's right input is evaluated against
    /// the concatenated join row).
    pub fn shift_columns(&self, delta: usize) -> Expr {
        self.map_columns(&|i| i + delta)
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
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| RelError::Invalid(format!("row too short for column index {i}"))),
            Expr::ColumnName { qualifier, name } => Err(RelError::Invalid(format!(
                "unbound column reference {}{name} at eval time",
                qualifier
                    .as_deref()
                    .map(|q| format!("{q}."))
                    .unwrap_or_default()
            ))),
            Expr::Binary { op, left, right } => eval_binary(*op, left, right, row),
            Expr::Not(e) => not_scalar(e.eval(row)?),
            Expr::Neg(e) => neg_scalar(e.eval(row)?),
            Expr::IsNull { expr, negated } => {
                let is_null = expr.eval(row)?.is_null();
                Ok(Value::Bool(is_null != *negated))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(row)?;
                let p = pattern.eval(row)?;
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
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut found = false;
                for item in list {
                    if item.eval(row)?.sql_eq(&v) {
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
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let within = lo.total_cmp(&v) != std::cmp::Ordering::Greater
                    && v.total_cmp(&hi) != std::cmp::Ordering::Greater;
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
    /// column with one slot per selected row, or a broadcast constant.
    ///
    /// Semantics mirror [`Expr::eval`] row-for-row: typed fast-path
    /// kernels are exact specializations of the scalar rules, and every
    /// other case funnels through the same scalar cores
    /// (`binary_scalar` & friends) the row evaluator uses. `AND`/`OR`/
    /// `COALESCE` (and `ROUND`/`SUBSTR` extra arguments) keep their lazy
    /// semantics by evaluating the deferred operand only over the
    /// sub-selection of rows where the row evaluator would have reached
    /// it — `a <> 0 AND b / a > 1` never divides by zero on either path.
    pub fn eval_batch(&self, cols: &[Arc<batch::Column>], sel: &[u32]) -> RelResult<EvalCol> {
        if sel.is_empty() {
            // Zero rows: nothing to evaluate, and nothing may error.
            return Ok(EvalCol::Col(batch::Column::empty()));
        }
        let n = sel.len();
        match self {
            Expr::Literal(v) => Ok(EvalCol::Const(v.clone())),
            Expr::Column(i) => match cols.get(*i) {
                Some(c) => Ok(EvalCol::Col(c.gather(sel))),
                None => Err(RelError::Invalid(format!(
                    "row too short for column index {i}"
                ))),
            },
            Expr::ColumnName { qualifier, name } => Err(RelError::Invalid(format!(
                "unbound column reference {}{name} at eval time",
                qualifier
                    .as_deref()
                    .map(|q| format!("{q}."))
                    .unwrap_or_default()
            ))),
            Expr::Binary { op, left, right } => eval_binary_batch(*op, left, right, cols, sel),
            Expr::Not(e) => {
                let o = operand(e, cols, sel)?;
                if let Operand::Const(c) = &o {
                    return not_scalar(c.clone()).map(EvalCol::Const);
                }
                let v = o.vals(cols, sel);
                let mut out = ColumnBuilder::with_capacity(n);
                for j in 0..n {
                    out.push(not_scalar(v.value_at(j))?);
                }
                Ok(EvalCol::Col(out.finish()))
            }
            Expr::Neg(e) => {
                let o = operand(e, cols, sel)?;
                if let Operand::Const(c) = &o {
                    return neg_scalar(c.clone()).map(EvalCol::Const);
                }
                let v = o.vals(cols, sel);
                let mut out = ColumnBuilder::with_capacity(n);
                for j in 0..n {
                    out.push(neg_scalar(v.value_at(j))?);
                }
                Ok(EvalCol::Col(out.finish()))
            }
            Expr::IsNull { expr, negated } => {
                let o = operand(expr, cols, sel)?;
                if let Operand::Const(c) = &o {
                    return Ok(EvalCol::Const(Value::Bool(c.is_null() != *negated)));
                }
                let v = o.vals(cols, sel);
                let mut out = ColumnBuilder::with_capacity(n);
                for j in 0..n {
                    out.push(Value::Bool(v.null_at(j) != *negated));
                }
                Ok(EvalCol::Col(out.finish()))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let eo = operand(expr, cols, sel)?;
                let po = operand(pattern, cols, sel)?;
                let ev = eo.vals(cols, sel);
                let pv = po.vals(cols, sel);
                let mut out = ColumnBuilder::with_capacity(n);
                if let (Some(a), Some(b)) = (ev.texts(), pv.texts()) {
                    for j in 0..n {
                        out.push(match (a.get(j), b.get(j)) {
                            (Some(s), Some(p)) => Value::Bool(like_match(s, p) != *negated),
                            _ => Value::Null,
                        });
                    }
                } else {
                    for j in 0..n {
                        let v = ev.value_at(j);
                        let p = pv.value_at(j);
                        out.push(if v.is_null() || p.is_null() {
                            Value::Null
                        } else {
                            Value::Bool(like_match(v.as_text()?, p.as_text()?) != *negated)
                        });
                    }
                }
                Ok(EvalCol::Col(out.finish()))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let eo = operand(expr, cols, sel)?;
                let items: Vec<Operand> = list
                    .iter()
                    .map(|e| operand(e, cols, sel))
                    .collect::<RelResult<_>>()?;
                let ev = eo.vals(cols, sel);
                let mut out = ColumnBuilder::with_capacity(n);
                for j in 0..n {
                    let v = ev.value_at(j);
                    if v.is_null() {
                        out.push(Value::Null);
                        continue;
                    }
                    let mut found = false;
                    for it in &items {
                        let iv = it.vals(cols, sel);
                        let eq = match iv.ref_at(j) {
                            Some(rv) => rv.sql_eq(&v),
                            None => iv.value_at(j).sql_eq(&v),
                        };
                        if eq {
                            found = true;
                            break;
                        }
                    }
                    out.push(Value::Bool(found != *negated));
                }
                Ok(EvalCol::Col(out.finish()))
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let vo = operand(expr, cols, sel)?;
                let lo_o = operand(low, cols, sel)?;
                let hi_o = operand(high, cols, sel)?;
                let vv = vo.vals(cols, sel);
                let lv = lo_o.vals(cols, sel);
                let hv = hi_o.vals(cols, sel);
                let mut out = ColumnBuilder::with_capacity(n);
                for j in 0..n {
                    let v = vv.value_at(j);
                    let lo = lv.value_at(j);
                    let hi = hv.value_at(j);
                    out.push(if v.is_null() || lo.is_null() || hi.is_null() {
                        Value::Null
                    } else {
                        let within = lo.total_cmp(&v) != std::cmp::Ordering::Greater
                            && v.total_cmp(&hi) != std::cmp::Ordering::Greater;
                        Value::Bool(within != *negated)
                    });
                }
                Ok(EvalCol::Col(out.finish()))
            }
            Expr::Func { func, args } => eval_func_batch(*func, args, cols, sel),
        }
    }

    /// Constant-fold: evaluate constant subtrees down to literals (via the
    /// row evaluator).
    pub fn fold(&self) -> Expr {
        self.fold_with(false)
    }

    /// Constant-fold by running constant subtrees through the vectorized
    /// kernel path ([`Expr::eval_batch`] over a single-slot batch) — the
    /// optimizer uses this so that folding exercises exactly the code the
    /// executor will run (the risinglight approach: build a one-element
    /// array, apply the kernel, take element 0).
    pub fn fold_kernel(&self) -> Expr {
        self.fold_with(true)
    }

    fn fold_with(&self, kernel: bool) -> Expr {
        let f = |e: &Expr| e.fold_with(kernel);
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
            let v = if kernel {
                folded.eval_const_kernel()
            } else {
                folded.eval(&Vec::new()).ok()
            };
            if let Some(v) = v {
                return Expr::Literal(v);
            }
        }
        folded
    }

    /// Evaluate a constant expression through the kernel path: a one-slot
    /// batch with no columns, result taken from slot 0. `None` if
    /// evaluation errors (the fold keeps the expression unfolded so the
    /// error surfaces at execution time, same as [`Expr::fold`]).
    fn eval_const_kernel(&self) -> Option<Value> {
        match self.eval_batch(&[], &[0]) {
            Ok(ec) => Some(ec.value_at(0)),
            Err(_) => None,
        }
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

fn eval_binary(op: BinOp, left: &Expr, right: &Expr, row: &Row) -> RelResult<Value> {
    // Short-circuit logical operators (also gives NULL-tolerant AND/OR).
    if matches!(op, BinOp::And | BinOp::Or) {
        let l = left.eval(row)?;
        return match (op, &l) {
            (BinOp::And, Value::Bool(false)) => Ok(Value::Bool(false)),
            (BinOp::Or, Value::Bool(true)) => Ok(Value::Bool(true)),
            _ => binary_scalar(op, l, right.eval(row)?),
        };
    }
    binary_scalar(op, left.eval(row)?, right.eval(row)?)
}

/// Resolve a comparison operator against an ordering.
#[inline]
fn cmp_result(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::NotEq => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::LtEq => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::GtEq => ord != Less,
        _ => unreachable!(),
    }
}

/// Logical NOT on an evaluated value (NULL propagates).
pub(crate) fn not_scalar(v: Value) -> RelResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        v => Ok(Value::Bool(!v.as_bool()?)),
    }
}

/// Arithmetic negation on an evaluated value (NULL propagates).
pub(crate) fn neg_scalar(v: Value) -> RelResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int(i) => Ok(Value::Int(-i)),
        Value::Float(f) => Ok(Value::float(-f)),
        v => Err(RelError::TypeMismatch {
            expected: "numeric".into(),
            found: v.type_name().into(),
        }),
    }
}

/// Apply a binary operator to two *evaluated* values. This is the single
/// semantic core shared by the row evaluator and the vectorized kernels'
/// generic fallback — both paths produce byte-identical results by
/// construction. Short-circuiting is the caller's job; `And`/`Or` here are
/// the non-short-circuit combine.
pub(crate) fn binary_scalar(op: BinOp, l: Value, r: Value) -> RelResult<Value> {
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
        return Ok(Value::Bool(cmp_result(op, l.total_cmp(&r))));
    }
    // Arithmetic. Text + Text concatenates (convenience used by FlexRecs'
    // compiled SQL when labelling results).
    match (&l, &r) {
        (Value::Text(a), Value::Text(b)) if op == BinOp::Add => {
            let mut s = String::with_capacity(a.len() + b.len());
            s.push_str(a);
            s.push_str(b);
            Ok(Value::Text(s))
        }
        (Value::Int(a), Value::Int(b)) => int_arith(op, *a, *b),
        _ => float_arith(op, l.as_float()?, r.as_float()?),
    }
}

/// Integer arithmetic kernel (shared by the row evaluator and the
/// vectorized `Int × Int` fast path). SQL-style: integer division yields a
/// float when not exact, matching how ratings averages must behave.
#[inline]
fn int_arith(op: BinOp, a: i64, b: i64) -> RelResult<Value> {
    Ok(match op {
        BinOp::Add => Value::Int(a.wrapping_add(b)),
        BinOp::Sub => Value::Int(a.wrapping_sub(b)),
        BinOp::Mul => Value::Int(a.wrapping_mul(b)),
        BinOp::Div => {
            if b == 0 {
                return Err(RelError::Arithmetic("division by zero".into()));
            }
            if a % b == 0 {
                Value::Int(a / b)
            } else {
                Value::float(a as f64 / b as f64)
            }
        }
        BinOp::Mod => {
            if b == 0 {
                return Err(RelError::Arithmetic("modulo by zero".into()));
            }
            Value::Int(a % b)
        }
        _ => unreachable!(),
    })
}

/// Float arithmetic kernel (shared by the row evaluator's coercing arm and
/// the vectorized numeric fast path). NaN results become NULL via
/// [`Value::float`].
#[inline]
fn float_arith(op: BinOp, a: f64, b: f64) -> RelResult<Value> {
    Ok(match op {
        BinOp::Add => Value::float(a + b),
        BinOp::Sub => Value::float(a - b),
        BinOp::Mul => Value::float(a * b),
        BinOp::Div => {
            if b == 0.0 {
                return Err(RelError::Arithmetic("division by zero".into()));
            }
            Value::float(a / b)
        }
        BinOp::Mod => {
            if b == 0.0 {
                return Err(RelError::Arithmetic("modulo by zero".into()));
            }
            Value::float(a % b)
        }
        _ => unreachable!(),
    })
}

/// A kernel operand: a view of an input column through the selection, a
/// dense computed column, or a broadcast constant. Leaf column references
/// stay views so comparison/arithmetic kernels read table storage directly
/// instead of gathering first.
enum Operand {
    ColRef(usize),
    Owned(batch::Column),
    Const(Value),
}

impl Operand {
    fn vals<'a>(&'a self, cols: &'a [Arc<batch::Column>], sel: &'a [u32]) -> Vals<'a> {
        match self {
            Operand::ColRef(i) => Vals::View {
                col: &cols[*i],
                sel: Some(sel),
            },
            Operand::Owned(c) => Vals::View { col: c, sel: None },
            Operand::Const(v) => Vals::Const { v },
        }
    }
}

fn operand(e: &Expr, cols: &[Arc<batch::Column>], sel: &[u32]) -> RelResult<Operand> {
    match e {
        Expr::Literal(v) => Ok(Operand::Const(v.clone())),
        Expr::Column(i) if *i < cols.len() => Ok(Operand::ColRef(*i)),
        _ => match e.eval_batch(cols, sel)? {
            EvalCol::Col(c) => Ok(Operand::Owned(c)),
            EvalCol::Const(v) => Ok(Operand::Const(v)),
        },
    }
}

fn eval_binary_batch(
    op: BinOp,
    left: &Expr,
    right: &Expr,
    cols: &[Arc<batch::Column>],
    sel: &[u32],
) -> RelResult<EvalCol> {
    if matches!(op, BinOp::And | BinOp::Or) {
        return eval_logic_batch(op, left, right, cols, sel);
    }
    let n = sel.len();
    let lo = operand(left, cols, sel)?;
    let ro = operand(right, cols, sel)?;
    if let (Operand::Const(a), Operand::Const(b)) = (&lo, &ro) {
        return binary_scalar(op, a.clone(), b.clone()).map(EvalCol::Const);
    }
    let l = lo.vals(cols, sel);
    let r = ro.vals(cols, sel);
    let mut out = ColumnBuilder::with_capacity(n);
    if op.is_comparison() {
        if let (Some(a), Some(b)) = (l.ints(), r.ints()) {
            for j in 0..n {
                out.push(match (a.get(j), b.get(j)) {
                    (Some(x), Some(y)) => Value::Bool(cmp_result(op, x.cmp(&y))),
                    _ => Value::Null,
                });
            }
        } else if let (Some(a), Some(b)) = (l.nums(), r.nums()) {
            for j in 0..n {
                out.push(match (a.get(j), b.get(j)) {
                    (Some(x), Some(y)) => Value::Bool(cmp_result(
                        op,
                        x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
                    )),
                    _ => Value::Null,
                });
            }
        } else if let (Some(a), Some(b)) = (l.texts(), r.texts()) {
            for j in 0..n {
                out.push(match (a.get(j), b.get(j)) {
                    (Some(x), Some(y)) => Value::Bool(cmp_result(op, x.cmp(y))),
                    _ => Value::Null,
                });
            }
        } else {
            for j in 0..n {
                out.push(binary_scalar(op, l.value_at(j), r.value_at(j))?);
            }
        }
        return Ok(EvalCol::Col(out.finish()));
    }
    // Arithmetic kernels.
    if let (Some(a), Some(b)) = (l.ints(), r.ints()) {
        for j in 0..n {
            out.push(match (a.get(j), b.get(j)) {
                (Some(x), Some(y)) => int_arith(op, x, y)?,
                _ => Value::Null,
            });
        }
        return Ok(EvalCol::Col(out.finish()));
    }
    if let (Some(a), Some(b)) = (l.nums(), r.nums()) {
        for j in 0..n {
            out.push(match (a.get(j), b.get(j)) {
                (Some(x), Some(y)) => float_arith(op, x, y)?,
                _ => Value::Null,
            });
        }
        return Ok(EvalCol::Col(out.finish()));
    }
    if op == BinOp::Add {
        if let (Some(a), Some(b)) = (l.texts(), r.texts()) {
            for j in 0..n {
                out.push(match (a.get(j), b.get(j)) {
                    (Some(x), Some(y)) => {
                        let mut s = String::with_capacity(x.len() + y.len());
                        s.push_str(x);
                        s.push_str(y);
                        Value::Text(s)
                    }
                    _ => Value::Null,
                });
            }
            return Ok(EvalCol::Col(out.finish()));
        }
    }
    for j in 0..n {
        out.push(binary_scalar(op, l.value_at(j), r.value_at(j))?);
    }
    Ok(EvalCol::Col(out.finish()))
}

fn eval_logic_batch(
    op: BinOp,
    left: &Expr,
    right: &Expr,
    cols: &[Arc<batch::Column>],
    sel: &[u32],
) -> RelResult<EvalCol> {
    let n = sel.len();
    // The left-side value that short-circuits this operator.
    let sc = matches!(op, BinOp::Or);
    let l = left.eval_batch(cols, sel)?;
    if let EvalCol::Const(lv) = &l {
        if *lv == Value::Bool(sc) {
            return Ok(EvalCol::Const(Value::Bool(sc)));
        }
        let lv = lv.clone();
        return match right.eval_batch(cols, sel)? {
            EvalCol::Const(rv) => binary_scalar(op, lv, rv).map(EvalCol::Const),
            EvalCol::Col(rc) => {
                let mut out = ColumnBuilder::with_capacity(n);
                for j in 0..n {
                    out.push(binary_scalar(op, lv.clone(), rc.value(j))?);
                }
                Ok(EvalCol::Col(out.finish()))
            }
        };
    }
    let EvalCol::Col(lc) = l else { unreachable!() };
    // Rows where the left side does not short-circuit still need the right
    // side — evaluate it only over that sub-selection, preserving the row
    // evaluator's lazy error semantics.
    let mut sub_sel = Vec::new();
    for (j, &slot) in sel.iter().enumerate().take(n) {
        if lc.value(j) != Value::Bool(sc) {
            sub_sel.push(slot);
        }
    }
    if sub_sel.is_empty() {
        return Ok(EvalCol::Const(Value::Bool(sc)));
    }
    let r = right.eval_batch(cols, &sub_sel)?;
    let mut out = ColumnBuilder::with_capacity(n);
    let mut k = 0usize;
    for j in 0..n {
        let lv = lc.value(j);
        if lv == Value::Bool(sc) {
            out.push(Value::Bool(sc));
        } else {
            out.push(binary_scalar(op, lv, r.value_at(k))?);
            k += 1;
        }
    }
    Ok(EvalCol::Col(out.finish()))
}

fn eval_func_batch(
    func: ScalarFn,
    args: &[Expr],
    cols: &[Arc<batch::Column>],
    sel: &[u32],
) -> RelResult<EvalCol> {
    let n = sel.len();
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
            let o = operand(&args[0], cols, sel)?;
            let v = o.vals(cols, sel);
            let mut out = ColumnBuilder::with_capacity(n);
            if let Some(a) = v.texts() {
                for j in 0..n {
                    out.push(match a.get(j) {
                        Some(s) => text_case_scalar(func, s),
                        None => Value::Null,
                    });
                }
            } else {
                for j in 0..n {
                    let v = v.value_at(j);
                    out.push(if v.is_null() {
                        Value::Null
                    } else {
                        text_case_scalar(func, v.as_text()?)
                    });
                }
            }
            Ok(EvalCol::Col(out.finish()))
        }
        ScalarFn::Abs => {
            if args.len() != 1 {
                return arity_err(1);
            }
            let o = operand(&args[0], cols, sel)?;
            let v = o.vals(cols, sel);
            let mut out = ColumnBuilder::with_capacity(n);
            for j in 0..n {
                out.push(abs_scalar(v.value_at(j))?);
            }
            Ok(EvalCol::Col(out.finish()))
        }
        ScalarFn::Round => {
            if args.is_empty() || args.len() > 2 {
                return arity_err(1);
            }
            let v0 = args[0].eval_batch(cols, sel)?;
            // The digits argument is only evaluated for rows whose value
            // is non-NULL, mirroring the row evaluator's laziness.
            let mut sub_sel = Vec::with_capacity(n);
            for (j, &slot) in sel.iter().enumerate().take(n) {
                if !v0.is_null_at(j) {
                    sub_sel.push(slot);
                }
            }
            let digits = match args.get(1) {
                Some(d) => Some(d.eval_batch(cols, &sub_sel)?),
                None => None,
            };
            let mut out = ColumnBuilder::with_capacity(n);
            let mut k = 0usize;
            for j in 0..n {
                let v = v0.value_at(j);
                if v.is_null() {
                    out.push(Value::Null);
                    continue;
                }
                let d = match &digits {
                    Some(dc) => dc.value_at(k).as_int()?,
                    None => 0,
                };
                k += 1;
                out.push(round_scalar(&v, d)?);
            }
            Ok(EvalCol::Col(out.finish()))
        }
        ScalarFn::Coalesce => {
            // Lazy cascade: each argument is evaluated only over the rows
            // still NULL after the previous ones.
            let mut out: Vec<Option<Value>> = vec![None; n];
            let mut pending: Vec<u32> = (0..n as u32).collect();
            for a in args {
                if pending.is_empty() {
                    break;
                }
                let base: Vec<u32> = pending.iter().map(|&p| sel[p as usize]).collect();
                let ec = a.eval_batch(cols, &base)?;
                let mut still = Vec::new();
                for (k, &p) in pending.iter().enumerate() {
                    let v = ec.value_at(k);
                    if v.is_null() {
                        still.push(p);
                    } else {
                        out[p as usize] = Some(v);
                    }
                }
                pending = still;
            }
            let mut b = ColumnBuilder::with_capacity(n);
            for v in out {
                b.push(v.unwrap_or(Value::Null));
            }
            Ok(EvalCol::Col(b.finish()))
        }
        ScalarFn::Concat => {
            let items: Vec<Operand> = args
                .iter()
                .map(|e| operand(e, cols, sel))
                .collect::<RelResult<_>>()?;
            let mut out = ColumnBuilder::with_capacity(n);
            for j in 0..n {
                let mut s = String::new();
                for it in &items {
                    let v = it.vals(cols, sel).value_at(j);
                    if !v.is_null() {
                        s.push_str(&v.to_string());
                    }
                }
                out.push(Value::Text(s));
            }
            Ok(EvalCol::Col(out.finish()))
        }
        ScalarFn::Sqrt | ScalarFn::Ln | ScalarFn::Exp => {
            if args.len() != 1 {
                return arity_err(1);
            }
            let o = operand(&args[0], cols, sel)?;
            let v = o.vals(cols, sel);
            let mut out = ColumnBuilder::with_capacity(n);
            for j in 0..n {
                let v = v.value_at(j);
                out.push(if v.is_null() {
                    Value::Null
                } else {
                    math1_scalar(func, &v)?
                });
            }
            Ok(EvalCol::Col(out.finish()))
        }
        ScalarFn::Pow => {
            if args.len() != 2 {
                return arity_err(2);
            }
            let ao = operand(&args[0], cols, sel)?;
            let bo = operand(&args[1], cols, sel)?;
            let av = ao.vals(cols, sel);
            let bv = bo.vals(cols, sel);
            let mut out = ColumnBuilder::with_capacity(n);
            for j in 0..n {
                let a = av.value_at(j);
                let b = bv.value_at(j);
                out.push(if a.is_null() || b.is_null() {
                    Value::Null
                } else {
                    pow_scalar(&a, &b)?
                });
            }
            Ok(EvalCol::Col(out.finish()))
        }
        ScalarFn::Substr => {
            if args.len() != 3 {
                return arity_err(3);
            }
            let v0 = args[0].eval_batch(cols, sel)?;
            let mut sub_sel = Vec::with_capacity(n);
            for (j, &slot) in sel.iter().enumerate().take(n) {
                if !v0.is_null_at(j) {
                    sub_sel.push(slot);
                }
            }
            let starts = args[1].eval_batch(cols, &sub_sel)?;
            let lens = args[2].eval_batch(cols, &sub_sel)?;
            let mut out = ColumnBuilder::with_capacity(n);
            let mut k = 0usize;
            for j in 0..n {
                let v = v0.value_at(j);
                if v.is_null() {
                    out.push(Value::Null);
                    continue;
                }
                let s = v.as_text()?;
                let start = starts.value_at(k).as_int()?;
                let len = lens.value_at(k).as_int()?;
                k += 1;
                out.push(substr_scalar(s, start, len));
            }
            Ok(EvalCol::Col(out.finish()))
        }
    }
}

fn eval_func(func: ScalarFn, args: &[Expr], row: &Row) -> RelResult<Value> {
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
            let v = args[0].eval(row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            Ok(text_case_scalar(func, v.as_text()?))
        }
        ScalarFn::Abs => {
            if args.len() != 1 {
                return arity_err(1);
            }
            abs_scalar(args[0].eval(row)?)
        }
        ScalarFn::Round => {
            if args.is_empty() || args.len() > 2 {
                return arity_err(1);
            }
            let v = args[0].eval(row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let digits = if args.len() == 2 {
                args[1].eval(row)?.as_int()?
            } else {
                0
            };
            round_scalar(&v, digits)
        }
        ScalarFn::Coalesce => {
            for a in args {
                let v = a.eval(row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        ScalarFn::Concat => {
            let mut s = String::new();
            for a in args {
                let v = a.eval(row)?;
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
            let v = args[0].eval(row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            math1_scalar(func, &v)
        }
        ScalarFn::Pow => {
            if args.len() != 2 {
                return arity_err(2);
            }
            let a = args[0].eval(row)?;
            let b = args[1].eval(row)?;
            if a.is_null() || b.is_null() {
                return Ok(Value::Null);
            }
            pow_scalar(&a, &b)
        }
        ScalarFn::Substr => {
            if args.len() != 3 {
                return arity_err(3);
            }
            let v = args[0].eval(row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let s = v.as_text()?;
            let start = args[1].eval(row)?.as_int()?;
            let len = args[2].eval(row)?.as_int()?;
            Ok(substr_scalar(s, start, len))
        }
    }
}

/// `LOWER`/`UPPER`/`LENGTH` on a non-NULL text value.
fn text_case_scalar(func: ScalarFn, s: &str) -> Value {
    match func {
        ScalarFn::Lower => Value::Text(s.to_lowercase()),
        ScalarFn::Upper => Value::Text(s.to_uppercase()),
        _ => Value::Int(s.chars().count() as i64),
    }
}

/// `ABS` on an evaluated value (NULL propagates).
fn abs_scalar(v: Value) -> RelResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int(i) => Ok(Value::Int(i.abs())),
        Value::Float(f) => Ok(Value::float(f.abs())),
        v => Err(RelError::TypeMismatch {
            expected: "numeric".into(),
            found: v.type_name().into(),
        }),
    }
}

/// `ROUND` on a non-NULL value.
fn round_scalar(v: &Value, digits: i64) -> RelResult<Value> {
    let f = v.as_float()?;
    let scale = 10f64.powi(digits as i32);
    Ok(Value::float((f * scale).round() / scale))
}

/// `SQRT`/`LN`/`EXP` on a non-NULL value.
fn math1_scalar(func: ScalarFn, v: &Value) -> RelResult<Value> {
    let f = v.as_float()?;
    Ok(match func {
        ScalarFn::Sqrt => {
            if f < 0.0 {
                Value::Null
            } else {
                Value::float(f.sqrt())
            }
        }
        ScalarFn::Ln => {
            if f <= 0.0 {
                Value::Null
            } else {
                Value::float(f.ln())
            }
        }
        _ => Value::float(f.exp()),
    })
}

/// `POW` on two non-NULL values.
fn pow_scalar(a: &Value, b: &Value) -> RelResult<Value> {
    Ok(Value::float(a.as_float()?.powf(b.as_float()?)))
}

/// `SUBSTR` on a non-NULL text value (1-based SQL start).
fn substr_scalar(s: &str, start: i64, len: i64) -> Value {
    let start = start.max(1) as usize - 1;
    let len = len.max(0) as usize;
    Value::Text(s.chars().skip(start).take(len).collect())
}

/// SQL LIKE matching with `%` (any run) and `_` (any one char),
/// case-insensitive. Iterative two-pointer algorithm (no recursion, no
/// allocation beyond the lowercase buffers).
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
        let e = Expr::lit(2i64).add(Expr::lit(3i64)).mul(Expr::lit(4i64));
        assert_eq!(e.fold(), Expr::Literal(Value::Int(20)));
        // Non-constant parts survive.
        let e = Expr::col_idx(0).add(Expr::lit(2i64).add(Expr::lit(3i64)));
        let folded = e.fold();
        match folded {
            Expr::Binary { right, .. } => assert_eq!(*right, Expr::Literal(Value::Int(5))),
            other => panic!("unexpected fold result {other:?}"),
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
        let sel: Vec<u32> = (0..rows.len() as u32).collect();
        for e in &exprs {
            let ec = e.eval_batch(b.columns(), &sel).unwrap();
            for (j, r) in rows.iter().enumerate() {
                assert_eq!(ec.value_at(j), e.eval(r).unwrap(), "expr {e} row {j}");
            }
        }
        // A sub-selection evaluates only the selected slots, in order.
        let sub: Vec<u32> = vec![3, 0];
        for e in &exprs {
            let ec = e.eval_batch(b.columns(), &sub).unwrap();
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
    fn fold_kernel_matches_fold() {
        let exprs = vec![
            Expr::lit(2i64).add(Expr::lit(3i64)).mul(Expr::lit(4i64)),
            Expr::col_idx(0).add(Expr::lit(2i64).add(Expr::lit(3i64))),
            Expr::lit(1i64).gt(Expr::lit(2i64)).or(Expr::lit(true)),
            Expr::Func {
                func: ScalarFn::Round,
                args: vec![Expr::lit(2.567f64), Expr::lit(1i64)],
            },
            // Errors must survive folding for runtime reporting, not panic.
            Expr::lit(1i64).div(Expr::lit(0i64)),
        ];
        for e in exprs {
            assert_eq!(e.fold(), e.fold_kernel(), "kernel fold diverged on {e}");
        }
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
