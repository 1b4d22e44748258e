//! Columnar batches: typed value vectors, validity bitmaps, selection
//! vectors.
//!
//! The vectorized executor (PR 7) represents intermediate results as a
//! [`Batch`] — a set of equal-length [`Column`]s plus an optional
//! *selection vector* naming the slots that are logically present. Filters
//! narrow the selection instead of copying survivors; projections that
//! merely pick columns clone an `Arc`, not data. Values are materialized
//! only at pipeline breakers (hash build, sort gather, final result).
//!
//! A [`Column`] stores values in a type-specialized vector ([`ColumnData`])
//! when the column is homogeneous (`Int`/`Float`/`Bool`/`Text` per
//! [`crate::schema::DataType`]), with a validity bitmap marking NULL slots.
//! Heterogeneous or nested data (`Date`, `Set`, `Ratings`, mixed numerics)
//! degrades to a `Generic` vector of [`Value`]s with NULLs inline — the
//! representation is an optimization, never a semantic: `Column::value(i)`
//! reconstructs exactly the `Value` that was pushed.

use std::borrow::Cow;
use std::sync::Arc;

use crate::row::Row;
use crate::schema::DataType;
use crate::value::Value;

/// Type-specialized value storage for one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Text(Vec<String>),
    /// Fallback for nested, mixed-type, or date data: plain values with
    /// NULLs inline (no separate validity bitmap).
    Generic(Vec<Value>),
}

/// One column of a [`Batch`]: typed storage plus an optional validity
/// bitmap (`true` = valid). `Generic` storage never carries a bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Option<Vec<bool>>,
}

impl Column {
    /// An empty (zero-length) column.
    pub fn empty() -> Column {
        Column {
            data: ColumnData::Generic(Vec::new()),
            validity: None,
        }
    }

    /// Build a column from owned values.
    pub fn from_values(values: Vec<Value>) -> Column {
        let mut b = ColumnBuilder::with_capacity(values.len());
        for v in values {
            b.push(v);
        }
        b.finish()
    }

    /// A column over plain values, NULLs inline (what nested rec data
    /// and mixed-type columns use).
    pub fn from_generic(values: Vec<Value>) -> Column {
        Column {
            data: ColumnData::Generic(values),
            validity: None,
        }
    }

    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Text(v) => v.len(),
            ColumnData::Generic(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Is slot `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        if let Some(v) = &self.validity {
            return !v[i];
        }
        match &self.data {
            ColumnData::Generic(v) => v[i].is_null(),
            _ => false,
        }
    }

    /// Reconstruct the value at slot `i` (clones Text/nested payloads).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if let Some(v) = &self.validity {
            if !v[i] {
                return Value::Null;
            }
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Text(v) => Value::Text(v[i].clone()),
            ColumnData::Generic(v) => v[i].clone(),
        }
    }

    /// Borrow the value at slot `i` without cloning — only possible for
    /// `Generic` storage (nested rec data lives there). Used by the
    /// batch Recommend path to score `Set`/`Ratings` targets in place.
    #[inline]
    pub fn value_ref(&self, i: usize) -> Option<&Value> {
        match &self.data {
            ColumnData::Generic(v) => Some(&v[i]),
            _ => None,
        }
    }

    /// A dense copy of the slots named by `idx`, preserving typed storage.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let gathered_validity = |validity: &Option<Vec<bool>>| {
            validity
                .as_ref()
                .map(|v| idx.iter().map(|&i| v[i as usize]).collect::<Vec<_>>())
                .filter(|v: &Vec<bool>| v.iter().any(|ok| !ok))
        };
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => ColumnData::Float(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Text(v) => {
                ColumnData::Text(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
            ColumnData::Generic(v) => {
                ColumnData::Generic(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        Column {
            validity: gathered_validity(&self.validity),
            data,
        }
    }

    /// Clone out all values as a plain `Vec<Value>`.
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }
}

/// Incremental [`Column`] builder. Starts type-undecided, specializes on
/// the first non-NULL value, and degrades to `Generic` storage the moment
/// a value of another type (or a nested/date value) arrives.
#[derive(Debug)]
pub struct ColumnBuilder {
    data: Option<ColumnData>,
    validity: Option<Vec<bool>>,
    /// NULLs seen before the storage type was decided.
    pending_nulls: usize,
}

impl ColumnBuilder {
    pub fn new() -> ColumnBuilder {
        ColumnBuilder::with_capacity(0)
    }

    pub fn with_capacity(_cap: usize) -> ColumnBuilder {
        ColumnBuilder {
            data: None,
            validity: None,
            pending_nulls: 0,
        }
    }

    /// Pre-commit to the storage for a schema type (used when building
    /// table columns, where the type is known up front).
    pub fn for_type(ty: DataType, cap: usize) -> ColumnBuilder {
        let data = match ty {
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            DataType::Text => ColumnData::Text(Vec::with_capacity(cap)),
            DataType::Date | DataType::Set | DataType::Ratings => {
                ColumnData::Generic(Vec::with_capacity(cap))
            }
        };
        ColumnBuilder {
            data: Some(data),
            validity: None,
            pending_nulls: 0,
        }
    }

    fn len(&self) -> usize {
        match &self.data {
            None => self.pending_nulls,
            Some(ColumnData::Int(v)) => v.len(),
            Some(ColumnData::Float(v)) => v.len(),
            Some(ColumnData::Bool(v)) => v.len(),
            Some(ColumnData::Text(v)) => v.len(),
            Some(ColumnData::Generic(v)) => v.len(),
        }
    }

    /// Convert current typed storage to `Generic`, preserving every slot.
    fn degrade(&mut self) {
        let n = self.len();
        let snapshot = Column {
            data: self
                .data
                .take()
                .unwrap_or_else(|| ColumnData::Generic(vec![Value::Null; self.pending_nulls])),
            validity: self.validity.take(),
        };
        let mut generic = Vec::with_capacity(n);
        for i in 0..snapshot.len() {
            generic.push(snapshot.value(i));
        }
        generic.resize(n, Value::Null);
        self.data = Some(ColumnData::Generic(generic));
        self.pending_nulls = 0;
    }

    fn push_null(&mut self) {
        match &mut self.data {
            None => self.pending_nulls += 1,
            Some(ColumnData::Generic(v)) => v.push(Value::Null),
            Some(typed) => {
                let n = match typed {
                    ColumnData::Int(v) => {
                        v.push(0);
                        v.len()
                    }
                    ColumnData::Float(v) => {
                        v.push(0.0);
                        v.len()
                    }
                    ColumnData::Bool(v) => {
                        v.push(false);
                        v.len()
                    }
                    ColumnData::Text(v) => {
                        v.push(String::new());
                        v.len()
                    }
                    ColumnData::Generic(_) => unreachable!("generic handled above"),
                };
                self.validity
                    .get_or_insert_with(|| vec![true; n - 1])
                    .push(false);
            }
        }
    }

    /// Append a value. NULLs go to the validity bitmap (typed storage) or
    /// inline (generic storage).
    pub fn push(&mut self, v: Value) {
        if v.is_null() {
            return self.push_null();
        }
        // Decide storage on the first non-NULL value.
        if self.data.is_none() {
            let nulls = self.pending_nulls;
            self.pending_nulls = 0;
            let (data, validity) = match &v {
                Value::Int(_) => (ColumnData::Int(Vec::new()), true),
                Value::Float(_) => (ColumnData::Float(Vec::new()), true),
                Value::Bool(_) => (ColumnData::Bool(Vec::new()), true),
                Value::Text(_) => (ColumnData::Text(Vec::new()), true),
                _ => (ColumnData::Generic(Vec::new()), false),
            };
            self.data = Some(data);
            if nulls > 0 {
                if validity {
                    self.validity = Some(vec![false; nulls]);
                    match self.data.as_mut() {
                        Some(ColumnData::Int(d)) => d.resize(nulls, 0),
                        Some(ColumnData::Float(d)) => d.resize(nulls, 0.0),
                        Some(ColumnData::Bool(d)) => d.resize(nulls, false),
                        Some(ColumnData::Text(d)) => d.resize(nulls, String::new()),
                        _ => {}
                    }
                } else if let Some(ColumnData::Generic(d)) = self.data.as_mut() {
                    d.resize(nulls, Value::Null);
                }
            }
        }
        let rejected = match (self.data.as_mut(), v) {
            (Some(ColumnData::Int(d)), Value::Int(i)) => {
                d.push(i);
                None
            }
            (Some(ColumnData::Float(d)), Value::Float(f)) => {
                d.push(f);
                None
            }
            (Some(ColumnData::Bool(d)), Value::Bool(b)) => {
                d.push(b);
                None
            }
            (Some(ColumnData::Text(d)), Value::Text(s)) => {
                d.push(s);
                None
            }
            (Some(ColumnData::Generic(d)), v) => {
                d.push(v);
                return;
            }
            (_, v) => Some(v),
        };
        match rejected {
            None => {
                if let Some(val) = &mut self.validity {
                    val.push(true);
                }
            }
            Some(v) => {
                // Type mismatch: degrade and retry (generic accepts anything).
                self.degrade();
                if let Some(ColumnData::Generic(d)) = self.data.as_mut() {
                    d.push(v);
                }
            }
        }
    }

    pub fn finish(mut self) -> Column {
        if self.data.is_none() {
            // All NULLs (or empty).
            return Column {
                data: ColumnData::Generic(vec![Value::Null; self.pending_nulls]),
                validity: None,
            };
        }
        let validity = self.validity.take().filter(|v| v.iter().any(|ok| !ok));
        Column {
            data: self.data.take().unwrap_or(ColumnData::Generic(Vec::new())),
            validity,
        }
    }
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        ColumnBuilder::new()
    }
}

/// A batch: equal-length columns plus an optional selection vector naming
/// the live slots (in output order). Columns are `Arc`-shared so that
/// column-picking projections and repeated scans are zero-copy.
#[derive(Debug, Clone)]
pub struct Batch {
    columns: Vec<Arc<Column>>,
    /// Slot indices (into the columns) that are logically present, in
    /// order. `None` means all of `0..base_rows`.
    sel: Option<Vec<u32>>,
    base_rows: usize,
}

impl Batch {
    /// A batch over `columns`, all of which must have length `base_rows`.
    pub fn new(columns: Vec<Arc<Column>>, base_rows: usize) -> Batch {
        debug_assert!(columns.iter().all(|c| c.len() == base_rows));
        Batch {
            columns,
            sel: None,
            base_rows,
        }
    }

    /// An empty batch with `width` empty columns.
    pub fn empty(width: usize) -> Batch {
        Batch::new((0..width).map(|_| Arc::new(Column::empty())).collect(), 0)
    }

    /// Transpose rows into columns.
    pub fn from_rows(rows: &[Row], width: usize) -> Batch {
        let mut builders: Vec<ColumnBuilder> = (0..width)
            .map(|_| ColumnBuilder::with_capacity(rows.len()))
            .collect();
        for r in rows {
            for (c, b) in builders.iter_mut().enumerate() {
                b.push(r.get(c).cloned().unwrap_or(Value::Null));
            }
        }
        Batch::new(
            builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
            rows.len(),
        )
    }

    /// Number of live (selected) rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.base_rows,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Slots in every column (live rows plus unselected ones).
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    pub fn column(&self, c: usize) -> &Arc<Column> {
        &self.columns[c]
    }

    /// Does this batch carry a selection vector (i.e. live rows are a
    /// subset of the underlying slots)?
    pub fn has_selection(&self) -> bool {
        self.sel.is_some()
    }

    /// The selection vector; `None` when every slot is live, in order.
    pub fn live(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// The base-slot indices of the live rows, in output order.
    pub fn selection(&self) -> Cow<'_, [u32]> {
        match &self.sel {
            Some(s) => Cow::Borrowed(s),
            None => Cow::Owned((0..self.base_rows as u32).collect()),
        }
    }

    /// Narrow to the view positions in `keep` (indices into the *current*
    /// live rows, in output order). Composes with an existing selection.
    pub fn select(mut self, keep: Vec<u32>) -> Batch {
        self.sel = Some(match self.sel.take() {
            Some(old) => keep.into_iter().map(|j| old[j as usize]).collect(),
            None => keep,
        });
        self
    }

    /// Replace the columns (e.g. after a projection), keeping the
    /// selection state.
    pub fn with_columns(&self, columns: Vec<Arc<Column>>) -> Batch {
        Batch {
            columns,
            sel: self.sel.clone(),
            base_rows: self.base_rows,
        }
    }

    /// The value of column `c` at live row `j`.
    #[inline]
    pub fn value(&self, c: usize, j: usize) -> Value {
        self.columns[c].value(self.base_index(j))
    }

    /// Resolve live row `j` to its base slot.
    #[inline]
    pub fn base_index(&self, j: usize) -> usize {
        match &self.sel {
            Some(s) => s[j] as usize,
            None => j,
        }
    }

    /// Materialize live row `j` as a [`Row`].
    pub fn row(&self, j: usize) -> Row {
        let i = self.base_index(j);
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Materialize all live rows.
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len()).map(|j| self.row(j)).collect()
    }
}

/// The result of evaluating an expression over a batch selection: either a
/// dense column (one slot per selected row) or a single constant that
/// logically broadcasts.
#[derive(Debug)]
pub enum EvalCol {
    Col(Column),
    Const(Value),
}

impl EvalCol {
    /// The value for selected row `j`.
    #[inline]
    pub fn value_at(&self, j: usize) -> Value {
        match self {
            EvalCol::Col(c) => c.value(j),
            EvalCol::Const(v) => v.clone(),
        }
    }

    /// Is the value for selected row `j` NULL?
    #[inline]
    pub fn is_null_at(&self, j: usize) -> bool {
        match self {
            EvalCol::Col(c) => c.is_null(j),
            EvalCol::Const(v) => v.is_null(),
        }
    }

    /// Force into a dense column of length `n` (broadcasting a constant).
    pub fn into_column(self, n: usize) -> Column {
        match self {
            EvalCol::Col(c) => c,
            EvalCol::Const(v) => {
                let mut b = ColumnBuilder::with_capacity(n);
                for _ in 0..n {
                    b.push(v.clone());
                }
                b.finish()
            }
        }
    }
}

// ----------------------------------------------------------------------
// Element accessors used by the vectorized kernels in `expr`.
// ----------------------------------------------------------------------

/// A uniform elementwise view over a kernel operand: a column viewed
/// through a selection, a dense computed column, or a broadcast constant.
#[derive(Clone, Copy)]
pub(crate) enum Vals<'a> {
    View {
        col: &'a Column,
        /// `None` = dense (identity selection).
        sel: Option<&'a [u32]>,
    },
    Const {
        v: &'a Value,
    },
}

impl<'a> Vals<'a> {
    #[inline]
    fn base(&self, j: usize) -> usize {
        match self {
            Vals::View { sel: Some(s), .. } => s[j] as usize,
            _ => j,
        }
    }

    /// Clone out the value at logical position `j`.
    #[inline]
    pub(crate) fn value_at(&self, j: usize) -> Value {
        match self {
            Vals::View { col, .. } => col.value(self.base(j)),
            Vals::Const { v, .. } => (*v).clone(),
        }
    }

    #[inline]
    pub(crate) fn null_at(&self, j: usize) -> bool {
        match self {
            Vals::View { col, .. } => col.is_null(self.base(j)),
            Vals::Const { v, .. } => v.is_null(),
        }
    }

    /// Borrow the value at position `j` when the underlying storage holds
    /// whole `Value`s (generic column or constant).
    #[inline]
    pub(crate) fn ref_at(&self, j: usize) -> Option<&Value> {
        match self {
            Vals::View { col, .. } => col.value_ref(self.base(j)),
            Vals::Const { v, .. } => Some(v),
        }
    }

    /// Integer accessor: `Some` iff every value is `Int` or NULL.
    pub(crate) fn ints(&self) -> Option<IntsAcc<'a>> {
        match self {
            Vals::View { col, sel } => match &col.data {
                ColumnData::Int(data) => Some(IntsAcc::Slice {
                    data,
                    validity: col.validity.as_deref(),
                    sel: *sel,
                }),
                _ => None,
            },
            Vals::Const {
                v: Value::Int(i), ..
            } => Some(IntsAcc::Const(Some(*i))),
            Vals::Const { v: Value::Null, .. } => Some(IntsAcc::Const(None)),
            _ => None,
        }
    }

    /// Numeric accessor (`Int` or `Float` storage, as `f64`).
    pub(crate) fn nums(&self) -> Option<NumsAcc<'a>> {
        match self {
            Vals::View { col, sel } => match &col.data {
                ColumnData::Int(data) => Some(NumsAcc::IntSlice {
                    data,
                    validity: col.validity.as_deref(),
                    sel: *sel,
                }),
                ColumnData::Float(data) => Some(NumsAcc::FloatSlice {
                    data,
                    validity: col.validity.as_deref(),
                    sel: *sel,
                }),
                _ => None,
            },
            Vals::Const {
                v: Value::Int(i), ..
            } => Some(NumsAcc::Const(Some(*i as f64))),
            Vals::Const {
                v: Value::Float(f), ..
            } => Some(NumsAcc::Const(Some(*f))),
            Vals::Const { v: Value::Null, .. } => Some(NumsAcc::Const(None)),
            _ => None,
        }
    }

    /// Text accessor: `Some` iff every value is `Text` or NULL.
    pub(crate) fn texts(&self) -> Option<TextsAcc<'a>> {
        match self {
            Vals::View { col, sel } => match &col.data {
                ColumnData::Text(data) => Some(TextsAcc::Slice {
                    data,
                    validity: col.validity.as_deref(),
                    sel: *sel,
                }),
                _ => None,
            },
            Vals::Const {
                v: Value::Text(s), ..
            } => Some(TextsAcc::Const(Some(s))),
            Vals::Const { v: Value::Null, .. } => Some(TextsAcc::Const(None)),
            _ => None,
        }
    }
}

#[inline]
fn resolve(sel: Option<&[u32]>, j: usize) -> usize {
    match sel {
        Some(s) => s[j] as usize,
        None => j,
    }
}

#[inline]
fn valid(validity: Option<&[bool]>, i: usize) -> bool {
    validity.map(|v| v[i]).unwrap_or(true)
}

#[derive(Clone, Copy)]
pub(crate) enum IntsAcc<'a> {
    Slice {
        data: &'a [i64],
        validity: Option<&'a [bool]>,
        sel: Option<&'a [u32]>,
    },
    Const(Option<i64>),
}

impl IntsAcc<'_> {
    #[inline]
    pub(crate) fn get(&self, j: usize) -> Option<i64> {
        match self {
            IntsAcc::Const(v) => *v,
            IntsAcc::Slice {
                data,
                validity,
                sel,
            } => {
                let i = resolve(*sel, j);
                valid(*validity, i).then(|| data[i])
            }
        }
    }
}

#[derive(Clone, Copy)]
pub(crate) enum NumsAcc<'a> {
    IntSlice {
        data: &'a [i64],
        validity: Option<&'a [bool]>,
        sel: Option<&'a [u32]>,
    },
    FloatSlice {
        data: &'a [f64],
        validity: Option<&'a [bool]>,
        sel: Option<&'a [u32]>,
    },
    Const(Option<f64>),
}

impl NumsAcc<'_> {
    #[inline]
    pub(crate) fn get(&self, j: usize) -> Option<f64> {
        match self {
            NumsAcc::Const(v) => *v,
            NumsAcc::IntSlice {
                data,
                validity,
                sel,
            } => {
                let i = resolve(*sel, j);
                valid(*validity, i).then(|| data[i] as f64)
            }
            NumsAcc::FloatSlice {
                data,
                validity,
                sel,
            } => {
                let i = resolve(*sel, j);
                valid(*validity, i).then(|| data[i])
            }
        }
    }
}

#[derive(Clone, Copy)]
pub(crate) enum TextsAcc<'a> {
    Slice {
        data: &'a [String],
        validity: Option<&'a [bool]>,
        sel: Option<&'a [u32]>,
    },
    Const(Option<&'a str>),
}

impl<'a> TextsAcc<'a> {
    #[inline]
    pub(crate) fn get(&self, j: usize) -> Option<&str> {
        match self {
            TextsAcc::Const(v) => *v,
            TextsAcc::Slice {
                data,
                validity,
                sel,
            } => {
                let i = resolve(*sel, j);
                valid(*validity, i).then(|| data[i].as_str())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_specializes_and_roundtrips() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(3)];
        let c = Column::from_values(vals.clone());
        assert!(matches!(c.data, ColumnData::Int(_)));
        assert_eq!(c.to_values(), vals);
        assert!(c.is_null(1));
    }

    #[test]
    fn builder_degrades_on_mixed_types() {
        let vals = vec![Value::Int(1), Value::Float(2.5), Value::Null];
        let c = Column::from_values(vals.clone());
        assert!(matches!(c.data, ColumnData::Generic(_)));
        assert_eq!(c.to_values(), vals);
    }

    #[test]
    fn builder_handles_leading_nulls() {
        let vals = vec![Value::Null, Value::Null, Value::text("x")];
        let c = Column::from_values(vals.clone());
        assert!(matches!(c.data, ColumnData::Text(_)));
        assert_eq!(c.to_values(), vals);

        let all_null = vec![Value::Null; 3];
        let c = Column::from_values(all_null.clone());
        assert_eq!(c.to_values(), all_null);
    }

    #[test]
    fn gather_preserves_values_and_validity() {
        let c = Column::from_values(vec![
            Value::Int(10),
            Value::Null,
            Value::Int(30),
            Value::Int(40),
        ]);
        let g = c.gather(&[3, 1, 0]);
        assert_eq!(
            g.to_values(),
            vec![Value::Int(40), Value::Null, Value::Int(10)]
        );
    }

    #[test]
    fn batch_selection_composes() {
        let rows: Vec<Row> = (0..10).map(|i| vec![Value::Int(i)]).collect();
        let b = Batch::from_rows(&rows, 1);
        // Keep even slots, then keep positions 1 and 3 of those (slots 2, 6).
        let b = b.select(vec![0, 2, 4, 6, 8]).select(vec![1, 3]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.value(0, 0), Value::Int(2));
        assert_eq!(b.value(0, 1), Value::Int(6));
        assert!(b.has_selection());
        assert_eq!(b.to_rows(), vec![vec![Value::Int(2)], vec![Value::Int(6)]]);
    }

    #[test]
    fn from_rows_to_rows_roundtrip() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::text("a"), Value::Null],
            vec![Value::Int(2), Value::Null, Value::Float(0.5)],
        ];
        let b = Batch::from_rows(&rows, 3);
        assert_eq!(b.to_rows(), rows);
    }
}
