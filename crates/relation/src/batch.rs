//! Columnar batches: typed slices, validity, selection vectors.
//!
//! The vectorized executor represents intermediate results as a
//! [`Batch`] — a set of equal-length [`Column`]s plus an optional
//! *selection vector* naming the slots that are logically present. Filters
//! narrow the selection instead of copying survivors; projections that
//! merely pick columns clone an `Arc`, not data.
//!
//! A [`Column`] stores its cells in a type-specialized vector
//! ([`ColumnData`]) when the column is homogeneous (`Int`/`Float`/`Bool`/
//! `Text`), with a validity vector marking NULL slots. Text cells are `u32`
//! positions into a shared, append-only string arena ([`TextData`]), so a
//! gather, a selection or a concatenation over one arena copies positions,
//! never strings. Heterogeneous or nested data (`Date`, `Set`, `Ratings`,
//! mixed numerics) degrades to a `Generic` vector of [`Value`]s with NULLs
//! inline.
//!
//! Kernels read typed slices (`Acc` over `Cells`); a [`Value`] is built
//! only at the output boundary ([`Column::value`], [`Batch::to_rows`]) and
//! for `Generic` data. The representation is an optimization, never a
//! semantic: `Column::value(i)` reconstructs exactly the `Value` that was
//! pushed.

use std::borrow::Cow;
use std::sync::Arc;

use crate::row::Row;
use crate::schema::DataType;
use crate::value::Value;

/// The base slots a kernel evaluates, in output order.
#[derive(Debug, Clone, Copy)]
pub enum Slots<'a> {
    /// `start..start + len`: a batch with no selection vector, or a chunk
    /// of one.
    Run { start: usize, len: usize },
    /// Explicit slot indices.
    List(&'a [u32]),
}

impl<'a> From<&'a [u32]> for Slots<'a> {
    fn from(s: &'a [u32]) -> Slots<'a> {
        Slots::List(s)
    }
}

impl<'a> Slots<'a> {
    /// All of `0..n`.
    pub fn all(n: usize) -> Slots<'a> {
        Slots::Run { start: 0, len: n }
    }

    pub fn len(&self) -> usize {
        match self {
            Slots::Run { len, .. } => *len,
            Slots::List(s) => s.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The base slot of position `j`.
    #[inline]
    pub fn get(&self, j: usize) -> usize {
        match self {
            Slots::Run { start, .. } => start + j,
            Slots::List(s) => s[j] as usize,
        }
    }

    /// Consecutive pieces of at most `size` positions.
    pub fn chunks(&self, size: usize) -> Vec<Slots<'a>> {
        let size = size.max(1);
        match *self {
            Slots::Run { start, len } => (0..len)
                .step_by(size)
                .map(|off| Slots::Run {
                    start: start + off,
                    len: size.min(len - off),
                })
                .collect(),
            Slots::List(s) => s.chunks(size).map(Slots::List).collect(),
        }
    }
}

/// A shared, append-only string arena: entry `k` is
/// `buf[offsets[k]..offsets[k + 1]]`. Entry 0 is always `""`, the cell
/// every NULL slot points at. A default arena allocates nothing until
/// its first push (or until a column takes it).
#[derive(Debug, Default)]
struct Arena {
    buf: String,
    offsets: Vec<u32>,
}

impl Arena {
    /// Entry 0, `""`, in place.
    fn started(mut self) -> Arena {
        if self.offsets.is_empty() {
            self.offsets = vec![0, 0];
        }
        self
    }

    #[inline]
    fn get(&self, k: u32) -> &str {
        let k = k as usize;
        &self.buf[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    fn push(&mut self, s: &str) -> u32 {
        if s.is_empty() {
            return 0;
        }
        if self.offsets.is_empty() {
            self.offsets = vec![0, 0];
        }
        self.buf.push_str(s);
        let end = u32::try_from(self.buf.len()).expect("text arena exceeds 4 GiB");
        self.offsets.push(end);
        (self.offsets.len() - 2) as u32
    }
}

/// Text cells: positions into a shared string arena.
#[derive(Debug, Clone)]
pub struct TextData {
    arena: Arc<Arena>,
    pos: Vec<u32>,
}

impl TextData {
    fn new(arena: Arena, pos: Vec<u32>) -> TextData {
        TextData {
            arena: Arc::new(arena.started()),
            pos,
        }
    }

    pub fn len(&self) -> usize {
        self.pos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// The text at slot `i` (`""` for a NULL slot).
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        self.arena.get(self.pos[i])
    }

    pub(crate) fn cells(&self) -> TextCells<'_> {
        TextCells {
            arena: &self.arena,
            pos: &self.pos,
        }
    }

    /// The slots `idx` names (`u32::MAX` = a NULL slot), over the same arena.
    fn gather(&self, idx: &[u32]) -> TextData {
        TextData {
            arena: Arc::clone(&self.arena),
            pos: idx
                .iter()
                .map(|&i| {
                    if i == NULL_SLOT {
                        0
                    } else {
                        self.pos[i as usize]
                    }
                })
                .collect(),
        }
    }

    fn slice(&self, start: usize, len: usize) -> TextData {
        TextData {
            arena: Arc::clone(&self.arena),
            pos: self.pos[start..start + len].to_vec(),
        }
    }
}

impl PartialEq for TextData {
    fn eq(&self, other: &TextData) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.get(i) == other.get(i))
    }
}

/// Type-specialized value storage for one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Text(TextData),
    /// Fallback for nested, mixed-type, or date data: plain values with
    /// NULLs inline (no separate validity).
    Generic(Vec<Value>),
}

/// A gather index that names no slot: the gathered cell is NULL.
pub const NULL_SLOT: u32 = u32::MAX;

/// One column of a [`Batch`]: typed storage plus optional validity
/// (`true` = valid). `Generic` storage never carries validity, and
/// validity that marks no slot NULL is dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Option<Vec<bool>>,
}

impl Column {
    fn new(data: ColumnData, validity: Option<Vec<bool>>) -> Column {
        let validity = match data {
            ColumnData::Generic(_) => None,
            _ => validity.filter(|v| v.contains(&false)),
        };
        Column { data, validity }
    }

    /// An empty (zero-length) column.
    pub fn empty() -> Column {
        Column::nulls(0)
    }

    /// `n` NULLs (what a builder that saw only NULLs produces).
    pub fn nulls(n: usize) -> Column {
        Column::from_generic(vec![Value::Null; n])
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

    /// A Bool column from a kernel's result: cells, validity, or `None`
    /// when every cell is NULL.
    pub(crate) fn bools(cells: Option<TypedCells<bool>>, n: usize) -> Column {
        match cells {
            Some((data, validity)) => Column::new(ColumnData::Bool(data), validity),
            None => Column::nulls(n),
        }
    }

    /// An Int column from a kernel's result (see [`Column::bools`]).
    pub(crate) fn ints(cells: Option<TypedCells<i64>>, n: usize) -> Column {
        match cells {
            Some((data, validity)) => Column::new(ColumnData::Int(data), validity),
            None => Column::nulls(n),
        }
    }

    /// A Float column of `Value::float` results (see [`Column::bools`]):
    /// a NaN cell is NULL.
    pub(crate) fn floats(cells: Option<TypedCells<f64>>, n: usize) -> Column {
        let Some((data, validity)) = cells else {
            return Column::nulls(n);
        };
        let validity = if data.iter().any(|f| f.is_nan()) {
            let mut v = validity.unwrap_or_else(|| vec![true; data.len()]);
            for (ok, f) in v.iter_mut().zip(&data) {
                *ok &= !f.is_nan();
            }
            Some(v)
        } else {
            validity
        };
        Column::new(ColumnData::Float(data), validity)
    }

    /// `v` repeated `n` times, in the storage a builder would pick.
    pub fn repeat(v: &Value, n: usize) -> Column {
        let data = match v {
            Value::Null => return Column::nulls(n),
            Value::Int(i) => ColumnData::Int(vec![*i; n]),
            Value::Float(f) => ColumnData::Float(vec![*f; n]),
            Value::Bool(b) => ColumnData::Bool(vec![*b; n]),
            Value::Text(s) => {
                let mut arena = Arena::default();
                let p = arena.push(s);
                ColumnData::Text(TextData::new(arena, vec![p; n]))
            }
            other => ColumnData::Generic(vec![other.clone(); n]),
        };
        Column::new(data, None)
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

    /// The validity of typed storage (`None`: no slot is NULL).
    pub fn validity(&self) -> Option<&[bool]> {
        self.validity.as_deref()
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

    /// Reconstruct the value at slot `i` (allocates Text, clones nested
    /// payloads).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Text(t) => Value::Text(t.get(i).to_owned()),
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

    /// Does every slot hold NULL, in `Generic` storage? (A builder's
    /// pending NULLs: such a column takes any other column's storage.)
    fn is_null_run(&self) -> bool {
        matches!(&self.data, ColumnData::Generic(v) if v.iter().all(Value::is_null))
    }

    /// A dense copy of the slots named by `idx`, preserving typed storage
    /// (Text copies positions and shares the arena). [`NULL_SLOT`] gathers
    /// a NULL.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let pick = |i: u32| (i != NULL_SLOT).then_some(i as usize);
        let validity = (self.validity.is_some() || idx.contains(&NULL_SLOT)).then(|| {
            idx.iter()
                .map(|&i| pick(i).is_some_and(|i| !self.is_null(i)))
                .collect()
        });
        fn typed<T: Copy + Default>(v: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter()
                .map(|&i| {
                    if i == NULL_SLOT {
                        T::default()
                    } else {
                        v[i as usize]
                    }
                })
                .collect()
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(typed(v, idx)),
            ColumnData::Float(v) => ColumnData::Float(typed(v, idx)),
            ColumnData::Bool(v) => ColumnData::Bool(typed(v, idx)),
            ColumnData::Text(t) => ColumnData::Text(t.gather(idx)),
            ColumnData::Generic(v) => ColumnData::Generic(
                idx.iter()
                    .map(|&i| pick(i).map_or(Value::Null, |i| v[i].clone()))
                    .collect(),
            ),
        };
        Column::new(data, validity)
    }

    /// A dense copy of `slots`.
    pub fn take(&self, slots: Slots<'_>) -> Column {
        match slots {
            Slots::List(idx) => self.gather(idx),
            Slots::Run { start, len } => {
                let r = start..start + len;
                let data = match &self.data {
                    ColumnData::Int(v) => ColumnData::Int(v[r.clone()].to_vec()),
                    ColumnData::Float(v) => ColumnData::Float(v[r.clone()].to_vec()),
                    ColumnData::Bool(v) => ColumnData::Bool(v[r.clone()].to_vec()),
                    ColumnData::Text(t) => ColumnData::Text(t.slice(start, len)),
                    ColumnData::Generic(v) => ColumnData::Generic(v[r.clone()].to_vec()),
                };
                Column::new(data, self.validity.as_ref().map(|v| v[r].to_vec()))
            }
        }
    }

    /// Concatenate columns, in order. Parts of one storage type append
    /// typed (Text parts over one arena copy positions; others copy their
    /// cells' bytes into a new arena); NULL-only parts take that type;
    /// mixed types fall back to `Generic`, as a builder fed the same
    /// values would.
    pub fn concat<'c>(parts: impl IntoIterator<Item = &'c Column>) -> Column {
        let parts: Vec<&Column> = parts.into_iter().collect();
        let n = parts.iter().map(|c| c.len()).sum();
        let mut typed = parts.iter().filter(|c| !c.is_null_run());
        let Some(first) = typed.next() else {
            return Column::nulls(n);
        };
        let kind = std::mem::discriminant(&first.data);
        if matches!(first.data, ColumnData::Generic(_))
            || typed.any(|c| std::mem::discriminant(&c.data) != kind)
        {
            return Column::from_generic(parts.iter().flat_map(|c| c.to_values()).collect());
        }
        let validity = parts
            .iter()
            .any(|c| c.validity.is_some() || c.is_null_run())
            .then(|| {
                let mut v = Vec::with_capacity(n);
                for c in &parts {
                    v.extend((0..c.len()).map(|i| !c.is_null(i)));
                }
                v
            });
        fn cat<T: Copy + Default>(
            parts: &[&Column],
            n: usize,
            slice: impl Fn(&ColumnData) -> Option<&[T]>,
        ) -> Vec<T> {
            let mut out = Vec::with_capacity(n);
            for c in parts {
                match slice(&c.data) {
                    Some(s) => out.extend_from_slice(s),
                    None => out.resize(out.len() + c.len(), T::default()),
                }
            }
            out
        }
        let data = match &first.data {
            ColumnData::Int(_) => ColumnData::Int(cat(&parts, n, |d| match d {
                ColumnData::Int(v) => Some(v),
                _ => None,
            })),
            ColumnData::Float(_) => ColumnData::Float(cat(&parts, n, |d| match d {
                ColumnData::Float(v) => Some(v),
                _ => None,
            })),
            ColumnData::Bool(_) => ColumnData::Bool(cat(&parts, n, |d| match d {
                ColumnData::Bool(v) => Some(v),
                _ => None,
            })),
            ColumnData::Text(t) => ColumnData::Text(concat_text(&t.arena, &parts, n)),
            ColumnData::Generic(_) => unreachable!("generic parts fall back above"),
        };
        Column::new(data, validity)
    }

    /// Clone out all values as a plain `Vec<Value>`.
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    /// A kernel's view of every slot.
    pub(crate) fn vals(&self) -> Vals<'_> {
        Vals::View {
            col: self,
            slots: Slots::all(self.len()),
        }
    }
}

/// Text parts (and NULL-only parts) appended: positions alone when every
/// text part shares `arena`, else each cell's bytes into a new arena.
fn concat_text(arena: &Arc<Arena>, parts: &[&Column], n: usize) -> TextData {
    let texts = || {
        parts.iter().map(|c| match &c.data {
            ColumnData::Text(t) => Some(t),
            _ => None,
        })
    };
    if texts().all(|t| t.is_some_and(|t| Arc::ptr_eq(&t.arena, arena))) {
        let mut pos = Vec::with_capacity(n);
        for t in texts().flatten() {
            pos.extend_from_slice(&t.pos);
        }
        return TextData {
            arena: Arc::clone(arena),
            pos,
        };
    }
    let mut out = Arena::default();
    let mut pos = Vec::with_capacity(n);
    for (t, c) in texts().zip(parts) {
        match t {
            Some(t) => pos.extend((0..t.len()).map(|i| out.push(t.get(i)))),
            None => pos.resize(pos.len() + c.len(), 0),
        }
    }
    TextData::new(out, pos)
}

/// A builder's storage: [`ColumnData`] with Text's arena still owned by
/// the builder, so it can grow; it becomes shared when the column is built.
#[derive(Debug)]
enum Building {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Text { arena: Arena, pos: Vec<u32> },
    Generic(Vec<Value>),
}

impl Building {
    fn len(&self) -> usize {
        match self {
            Building::Int(v) => v.len(),
            Building::Float(v) => v.len(),
            Building::Bool(v) => v.len(),
            Building::Text { pos, .. } => pos.len(),
            Building::Generic(v) => v.len(),
        }
    }

    fn into_data(self) -> ColumnData {
        match self {
            Building::Int(v) => ColumnData::Int(v),
            Building::Float(v) => ColumnData::Float(v),
            Building::Bool(v) => ColumnData::Bool(v),
            Building::Text { arena, pos } => ColumnData::Text(TextData::new(arena, pos)),
            Building::Generic(v) => ColumnData::Generic(v),
        }
    }
}

/// Incremental [`Column`] builder. Starts type-undecided, specializes on
/// the first non-NULL value, and degrades to `Generic` storage the moment
/// a value of another type (or a nested/date value) arrives.
#[derive(Debug)]
pub struct ColumnBuilder {
    data: Option<Building>,
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
            DataType::Int => Building::Int(Vec::with_capacity(cap)),
            DataType::Float => Building::Float(Vec::with_capacity(cap)),
            DataType::Bool => Building::Bool(Vec::with_capacity(cap)),
            DataType::Text => Building::Text {
                arena: Arena::default(),
                pos: Vec::with_capacity(cap),
            },
            DataType::Date | DataType::Set | DataType::Ratings => {
                Building::Generic(Vec::with_capacity(cap))
            }
        };
        ColumnBuilder {
            data: Some(data),
            validity: None,
            pending_nulls: 0,
        }
    }

    /// Convert current typed storage to `Generic`, preserving every slot.
    fn degrade(&mut self) {
        let n = self.data.as_ref().map_or(self.pending_nulls, Building::len);
        let snapshot = Column {
            data: self.data.take().map_or_else(
                || ColumnData::Generic(vec![Value::Null; self.pending_nulls]),
                Building::into_data,
            ),
            validity: self.validity.take(),
        };
        let mut generic = snapshot.to_values();
        generic.resize(n, Value::Null);
        self.data = Some(Building::Generic(generic));
        self.pending_nulls = 0;
    }

    fn push_null(&mut self) {
        let n = match &mut self.data {
            None => {
                self.pending_nulls += 1;
                return;
            }
            Some(Building::Generic(v)) => {
                v.push(Value::Null);
                return;
            }
            Some(Building::Int(v)) => {
                v.push(0);
                v.len()
            }
            Some(Building::Float(v)) => {
                v.push(0.0);
                v.len()
            }
            Some(Building::Bool(v)) => {
                v.push(false);
                v.len()
            }
            Some(Building::Text { pos, .. }) => {
                pos.push(0);
                pos.len()
            }
        };
        self.validity
            .get_or_insert_with(|| vec![true; n - 1])
            .push(false);
    }

    /// Decide the storage on the first non-NULL value `v`.
    fn decide(&mut self, v: &Value) {
        let nulls = std::mem::take(&mut self.pending_nulls);
        let data = match v {
            Value::Int(_) => Building::Int(vec![0; nulls]),
            Value::Float(_) => Building::Float(vec![0.0; nulls]),
            Value::Bool(_) => Building::Bool(vec![false; nulls]),
            Value::Text(_) => Building::Text {
                arena: Arena::default(),
                pos: vec![0; nulls],
            },
            _ => Building::Generic(vec![Value::Null; nulls]),
        };
        if nulls > 0 && !matches!(data, Building::Generic(_)) {
            self.validity = Some(vec![false; nulls]);
        }
        self.data = Some(data);
    }

    /// Append a typed cell; `false` when `v` does not fit the storage.
    #[inline]
    fn push_typed(&mut self, v: &Value) -> bool {
        let fits = match (self.data.as_mut(), v) {
            (Some(Building::Int(d)), Value::Int(i)) => {
                d.push(*i);
                true
            }
            (Some(Building::Float(d)), Value::Float(f)) => {
                d.push(*f);
                true
            }
            (Some(Building::Bool(d)), Value::Bool(b)) => {
                d.push(*b);
                true
            }
            (Some(Building::Text { arena, pos }), Value::Text(s)) => {
                pos.push(arena.push(s));
                true
            }
            _ => false,
        };
        if fits {
            if let Some(val) = &mut self.validity {
                val.push(true);
            }
        }
        fits
    }

    /// Append a value. NULLs go to the validity vector (typed storage) or
    /// inline (generic storage).
    pub fn push(&mut self, v: Value) {
        if v.is_null() {
            return self.push_null();
        }
        if self.data.is_none() {
            self.decide(&v);
        }
        if self.push_typed(&v) {
            return;
        }
        if !matches!(self.data, Some(Building::Generic(_))) {
            // Type mismatch: degrade (generic accepts anything).
            self.degrade();
        }
        if let Some(Building::Generic(d)) = self.data.as_mut() {
            d.push(v);
        }
    }

    /// Append a borrowed value: typed storage copies the cell (Text its
    /// bytes into the arena), so only `Generic` storage clones.
    pub fn push_ref(&mut self, v: &Value) {
        if !v.is_null() && self.push_typed(v) {
            return;
        }
        self.push(v.clone());
    }

    pub fn finish(self) -> Column {
        match self.data {
            // All NULLs (or empty).
            None => Column::nulls(self.pending_nulls),
            Some(data) => Column::new(data.into_data(), self.validity),
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
                b.push_ref(r.get(c).unwrap_or(&Value::Null));
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

    /// The base slots of the live rows, in output order.
    pub fn slots(&self) -> Slots<'_> {
        match &self.sel {
            Some(s) => Slots::List(s),
            None => Slots::all(self.base_rows),
        }
    }

    /// Column `c` over the live rows, densely: the column itself when
    /// every slot is live.
    pub fn dense_column(&self, c: usize) -> Cow<'_, Column> {
        match &self.sel {
            Some(s) => Cow::Owned(self.columns[c].gather(s)),
            None => Cow::Borrowed(&self.columns[c]),
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

    /// Force into a dense column of length `n` (broadcasting a constant).
    pub fn into_column(self, n: usize) -> Column {
        match self {
            EvalCol::Col(c) => c,
            EvalCol::Const(v) => Column::repeat(&v, n),
        }
    }

    /// A view of the values (a dense column, or the constant).
    pub(crate) fn vals(&self) -> Vals<'_> {
        match self {
            EvalCol::Col(col) => col.vals(),
            EvalCol::Const(v) => Vals::Const { v },
        }
    }
}

// ----------------------------------------------------------------------
// Typed accessors: what the kernels in `expr`, `keys` and `exec` read.
// ----------------------------------------------------------------------

/// Typed cells and their validity (`None`: no cell is NULL), as a kernel
/// writes them.
pub(crate) type TypedCells<T> = (Vec<T>, Option<Vec<bool>>);

/// Cell storage a kernel indexes: a typed slice, or text positions into
/// an arena.
pub(crate) trait Cells: Copy {
    type Item: Copy;
    fn cell(self, i: usize) -> Self::Item;
    fn slice(self, start: usize, len: usize) -> Self;
    /// `f` over the first `n` cells.
    fn map<T>(self, n: usize, f: impl Fn(Self::Item) -> T) -> Vec<T> {
        (0..n).map(|i| f(self.cell(i))).collect()
    }
}

impl<T: Copy> Cells for &[T] {
    type Item = T;

    #[inline]
    fn cell(self, i: usize) -> T {
        self[i]
    }

    fn slice(self, start: usize, len: usize) -> Self {
        &self[start..start + len]
    }

    fn map<U>(self, n: usize, f: impl Fn(T) -> U) -> Vec<U> {
        self[..n].iter().map(|&x| f(x)).collect()
    }
}

/// Text cells read in place: a cell is a `&str` into the arena.
#[derive(Clone, Copy)]
pub(crate) struct TextCells<'a> {
    arena: &'a Arena,
    pos: &'a [u32],
}

impl<'a> Cells for TextCells<'a> {
    type Item = &'a str;

    #[inline]
    fn cell(self, i: usize) -> &'a str {
        self.arena.get(self.pos[i])
    }

    fn slice(self, start: usize, len: usize) -> Self {
        TextCells {
            arena: self.arena,
            pos: &self.pos[start..start + len],
        }
    }
}

impl<'a> Acc<'a, TextCells<'a>> {
    /// The arena entry ids behind these cells, and the arena's entry
    /// count (every id is below it): equal ids hold equal texts, though
    /// two ids may hold the same text too. `None` for a constant.
    pub(crate) fn entries(self) -> Option<(Acc<'a, &'a [u32]>, usize)> {
        let count = |t: TextCells<'_>| t.arena.offsets.len().saturating_sub(1);
        match self {
            Acc::Dense { data, validity } => Some((
                Acc::Dense {
                    data: data.pos,
                    validity,
                },
                count(data),
            )),
            Acc::Sparse {
                data,
                validity,
                sel,
            } => Some((
                Acc::Sparse {
                    data: data.pos,
                    validity,
                    sel,
                },
                count(data),
            )),
            Acc::Const(_) => None,
        }
    }
}

/// A kernel operand's cells of one type, position by position: a dense
/// run of a column, the column through a selection, or a constant.
#[derive(Clone, Copy)]
pub(crate) enum Acc<'a, C: Cells> {
    /// Position `j` is cell `j` of `data`.
    Dense {
        data: C,
        validity: Option<&'a [bool]>,
    },
    /// Position `j` is cell `sel[j]` of `data`.
    Sparse {
        data: C,
        validity: Option<&'a [bool]>,
        sel: &'a [u32],
    },
    Const(Option<C::Item>),
}

#[inline]
fn valid(validity: Option<&[bool]>, i: usize) -> bool {
    validity.is_none_or(|v| v[i])
}

impl<'a, C: Cells> Acc<'a, C> {
    fn over(data: C, validity: Option<&'a [bool]>, slots: Slots<'a>) -> Acc<'a, C> {
        match slots {
            Slots::Run { start, len } => Acc::Dense {
                data: data.slice(start, len),
                validity: validity.map(|v| &v[start..start + len]),
            },
            Slots::List(sel) => Acc::Sparse {
                data,
                validity,
                sel,
            },
        }
    }

    /// The cell at position `j`, `None` when NULL.
    #[inline]
    pub(crate) fn get(&self, j: usize) -> Option<C::Item> {
        match *self {
            Acc::Dense { data, validity } => valid(validity, j).then(|| data.cell(j)),
            Acc::Sparse {
                data,
                validity,
                sel,
            } => {
                let i = sel[j] as usize;
                valid(validity, i).then(|| data.cell(i))
            }
            Acc::Const(v) => v,
        }
    }
}

/// `f` over `n` positions of `a` and `b` together: NULL where either is.
/// `None` when every position is NULL.
pub(crate) fn zip_cells<A: Cells, B: Cells, T: Default>(
    n: usize,
    a: Acc<'_, A>,
    b: Acc<'_, B>,
    f: impl Fn(A::Item, B::Item) -> T,
) -> Option<TypedCells<T>> {
    match (a, b) {
        (Acc::Const(None), _) | (_, Acc::Const(None)) => None,
        (Acc::Dense { data, validity }, Acc::Const(Some(y))) => {
            Some((data.map(n, |x| f(x, y)), validity.map(<[bool]>::to_vec)))
        }
        (Acc::Const(Some(x)), Acc::Dense { data, validity }) => {
            Some((data.map(n, |y| f(x, y)), validity.map(<[bool]>::to_vec)))
        }
        (
            Acc::Dense {
                data: x,
                validity: vx,
            },
            Acc::Dense {
                data: y,
                validity: vy,
            },
        ) => {
            let data = (0..n).map(|j| f(x.cell(j), y.cell(j))).collect();
            let validity = match (vx, vy) {
                (None, None) => None,
                (Some(v), None) | (None, Some(v)) => Some(v[..n].to_vec()),
                (Some(v), Some(w)) => Some(v[..n].iter().zip(w).map(|(a, b)| *a && *b).collect()),
            };
            Some((data, validity))
        }
        _ => Some(unzip_cells(n, |j| Some(f(a.get(j)?, b.get(j)?)))),
    }
}

/// Cells and validity from a per-position `Option`.
fn unzip_cells<T: Default>(n: usize, cell: impl Fn(usize) -> Option<T>) -> TypedCells<T> {
    let mut data = Vec::with_capacity(n);
    let mut validity = Vec::with_capacity(n);
    for j in 0..n {
        let c = cell(j);
        validity.push(c.is_some());
        data.push(c.unwrap_or_default());
    }
    (data, Some(validity))
}

/// A numeric operand: Int or Float cells.
#[derive(Clone, Copy)]
pub(crate) enum Num<'a> {
    Int(Acc<'a, &'a [i64]>),
    Float(Acc<'a, &'a [f64]>),
}

impl Num<'_> {
    /// The value at position `j` as `f64`.
    #[inline]
    pub(crate) fn get(&self, j: usize) -> Option<f64> {
        match self {
            Num::Int(a) => a.get(j).map(|i| i as f64),
            Num::Float(a) => a.get(j),
        }
    }
}

/// `f` over two numeric operands' cells as `f64` (see [`zip_cells`]).
pub(crate) fn zip_nums<T: Default>(
    n: usize,
    a: Num<'_>,
    b: Num<'_>,
    f: impl Fn(f64, f64) -> T,
) -> Option<TypedCells<T>> {
    match (a, b) {
        (Num::Int(a), Num::Int(b)) => zip_cells(n, a, b, |x, y| f(x as f64, y as f64)),
        (Num::Int(a), Num::Float(b)) => zip_cells(n, a, b, |x, y| f(x as f64, y)),
        (Num::Float(a), Num::Int(b)) => zip_cells(n, a, b, |x, y| f(x, y as f64)),
        (Num::Float(a), Num::Float(b)) => zip_cells(n, a, b, f),
    }
}

/// A uniform elementwise view over a kernel operand: a column viewed
/// through slots (a dense computed column is all of its slots), or a
/// broadcast constant.
#[derive(Clone, Copy)]
pub(crate) enum Vals<'a> {
    View { col: &'a Column, slots: Slots<'a> },
    Const { v: &'a Value },
}

impl<'a> Vals<'a> {
    #[inline]
    fn base(&self, j: usize) -> usize {
        match self {
            Vals::View { slots, .. } => slots.get(j),
            Vals::Const { .. } => j,
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

    /// Is each of the first `n` positions NULL? Read from validity (or
    /// inline NULLs); no value is built.
    pub(crate) fn nulls(&self, n: usize) -> Vec<bool> {
        match *self {
            Vals::Const { v } => vec![v.is_null(); n],
            Vals::View { col, slots } => match (&col.data, &col.validity) {
                (ColumnData::Generic(g), _) => (0..n).map(|j| g[slots.get(j)].is_null()).collect(),
                (_, None) => vec![false; n],
                (_, Some(v)) => match slots {
                    Slots::Run { start, .. } => v[start..start + n].iter().map(|ok| !ok).collect(),
                    Slots::List(s) => s[..n].iter().map(|&i| !v[i as usize]).collect(),
                },
            },
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

    /// A dense column of positions `idx` ([`NULL_SLOT`] = NULL).
    pub(crate) fn gather(&self, idx: &[u32]) -> Column {
        match self {
            Vals::View { col, slots } => {
                let base: Vec<u32> = idx
                    .iter()
                    .map(|&j| match j {
                        NULL_SLOT => NULL_SLOT,
                        j => slots.get(j as usize) as u32,
                    })
                    .collect();
                col.gather(&base)
            }
            Vals::Const { v } if !idx.contains(&NULL_SLOT) => Column::repeat(v, idx.len()),
            Vals::Const { v } => Column::from_values(
                idx.iter()
                    .map(|&j| {
                        if j == NULL_SLOT {
                            Value::Null
                        } else {
                            (*v).clone()
                        }
                    })
                    .collect(),
            ),
        }
    }

    /// A typed accessor over `data` (this view's column storage) or the
    /// constant, when `konst` accepts it.
    #[inline]
    fn typed<C: Cells>(
        &self,
        data: impl FnOnce(&'a ColumnData) -> Option<C>,
        konst: impl FnOnce(&'a Value) -> Option<C::Item>,
    ) -> Option<Acc<'a, C>> {
        match *self {
            Vals::View { col, slots } => {
                data(&col.data).map(|d| Acc::over(d, col.validity.as_deref(), slots))
            }
            Vals::Const { v: Value::Null } => Some(Acc::Const(None)),
            Vals::Const { v } => konst(v).map(|x| Acc::Const(Some(x))),
        }
    }

    /// Int cells: `Some` iff every value is `Int` or NULL.
    pub(crate) fn ints(&self) -> Option<Acc<'a, &'a [i64]>> {
        self.typed(
            |d| match d {
                ColumnData::Int(v) => Some(&v[..]),
                _ => None,
            },
            |v| match v {
                Value::Int(i) => Some(*i),
                _ => None,
            },
        )
    }

    /// Float cells: `Some` iff every value is `Float` or NULL.
    pub(crate) fn floats(&self) -> Option<Acc<'a, &'a [f64]>> {
        self.typed(
            |d| match d {
                ColumnData::Float(v) => Some(&v[..]),
                _ => None,
            },
            |v| match v {
                Value::Float(f) => Some(*f),
                _ => None,
            },
        )
    }

    /// Bool cells: `Some` iff every value is `Bool` or NULL.
    pub(crate) fn bools(&self) -> Option<Acc<'a, &'a [bool]>> {
        self.typed(
            |d| match d {
                ColumnData::Bool(v) => Some(&v[..]),
                _ => None,
            },
            |v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            },
        )
    }

    /// Text cells: `Some` iff every value is `Text` or NULL.
    pub(crate) fn texts(&self) -> Option<Acc<'a, TextCells<'a>>> {
        self.typed(
            |d| match d {
                ColumnData::Text(t) => Some(t.cells()),
                _ => None,
            },
            |v| match v {
                Value::Text(s) => Some(s.as_str()),
                _ => None,
            },
        )
    }

    /// Numeric cells (`Int` or `Float` storage).
    pub(crate) fn nums(&self) -> Option<Num<'a>> {
        self.ints()
            .map(Num::Int)
            .or_else(|| self.floats().map(Num::Float))
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
        let g = c.gather(&[3, 1, 0, NULL_SLOT]);
        assert_eq!(
            g.to_values(),
            vec![Value::Int(40), Value::Null, Value::Int(10), Value::Null]
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

    fn texts() -> Vec<Value> {
        ["", "héllo", "日本語", "", "a", "héllo"]
            .iter()
            .map(|s| Value::text(*s))
            .chain([Value::Null])
            .collect()
    }

    #[test]
    fn arena_cells_roundtrip_through_value() {
        let vals = texts();
        let c = Column::from_values(vals.clone());
        assert!(matches!(c.data, ColumnData::Text(_)));
        assert_eq!(c.to_values(), vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&c.value(i), v, "slot {i}");
            assert_eq!(c.is_null(i), v.is_null());
        }
        let mut b = ColumnBuilder::for_type(DataType::Text, 0);
        vals.iter().for_each(|v| b.push_ref(v));
        assert_eq!(b.finish(), c);
        assert_eq!(
            Column::repeat(&Value::text("ü"), 2).to_values(),
            vec![Value::text("ü"); 2]
        );
    }

    #[test]
    fn gather_of_gather_is_one_gather_over_the_same_arena() {
        let c = Column::from_values(texts());
        let (a, b) = ([6u32, 2, 1, 0, 5, 4], [5u32, 0, NULL_SLOT, 3]);
        let twice = c.gather(&a).gather(&b);
        let once: Vec<u32> = b
            .iter()
            .map(|&j| if j == NULL_SLOT { j } else { a[j as usize] })
            .collect();
        assert_eq!(twice, c.gather(&once));
        assert_eq!(twice.to_values(), c.gather(&once).to_values());
        let (ColumnData::Text(x), ColumnData::Text(y)) = (&c.data, &twice.data) else {
            panic!("text storage");
        };
        assert!(Arc::ptr_eq(&x.arena, &y.arena));
    }

    #[test]
    fn concat_after_select_keeps_types_and_values() {
        let rows: Vec<Row> = texts()
            .into_iter()
            .enumerate()
            .map(|(i, t)| vec![Value::Int(i as i64), t, Value::Float(i as f64 / 2.0)])
            .collect();
        let b = Batch::from_rows(&rows, 3);
        let (l, r) = (b.clone().select(vec![5, 0, 6]), b.select(vec![1, 3]));
        for c in 0..3 {
            let (x, y) = (l.dense_column(c), r.dense_column(c));
            let cat = Column::concat([x.as_ref(), y.as_ref()]);
            assert_eq!(
                std::mem::discriminant(&cat.data),
                std::mem::discriminant(&x.data)
            );
            let want: Vec<Value> = x.to_values().into_iter().chain(y.to_values()).collect();
            assert_eq!(cat.to_values(), want, "column {c}");
        }
        // Different arenas, NULL-only and mixed parts.
        let a = Column::from_values(vec![Value::text("x"), Value::Null]);
        let nulls = Column::nulls(2);
        let z = Column::from_values(vec![Value::text("ÿ")]);
        let cat = Column::concat([&a, &nulls, &z]);
        assert!(matches!(cat.data, ColumnData::Text(_)));
        let want = [
            Value::text("x"),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::text("ÿ"),
        ];
        assert_eq!(cat.to_values(), want);
        let mixed = Column::concat([&a, &Column::from_values(vec![Value::Int(1)])]);
        assert!(matches!(mixed.data, ColumnData::Generic(_)));
        assert_eq!(
            mixed.to_values(),
            vec![Value::text("x"), Value::Null, Value::Int(1)]
        );
    }

    fn any_cell() -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        prop_oneof![
            Just(Value::Null),
            (-3i64..3).prop_map(Value::Int),
            prop_oneof![Just(-0.0), Just(0.0), Just(1.5)].prop_map(Value::Float),
            any::<bool>().prop_map(Value::Bool),
            prop_oneof![Just(""), Just("é"), Just("ab")].prop_map(Value::text),
        ]
    }

    /// One type per column, or NULLs, or mixed.
    fn any_column() -> impl proptest::strategy::Strategy<Value = Vec<Value>> {
        use proptest::prelude::*;
        (
            any_cell(),
            proptest::collection::vec((any::<bool>(), any_cell()), 0..12),
        )
            .prop_map(|(first, cells)| {
                cells
                    .into_iter()
                    .map(|(same, v)| match (same, &first) {
                        (true, f) if !v.is_null() => f.clone(),
                        _ => v,
                    })
                    .collect()
            })
    }

    fn debug(values: &[Value]) -> String {
        format!("{values:?}")
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(512))]

        /// Storage is an optimization: building, gathering and
        /// concatenating columns gives back exactly the values (−0.0
        /// included) a plain `Vec<Value>` would hold.
        #[test]
        fn columns_hold_exactly_their_values(
            a in any_column(),
            b in any_column(),
            picks in proptest::collection::vec(0usize..16, 0..12),
        ) {
            let (x, y) = (Column::from_values(a.clone()), Column::from_values(b.clone()));
            proptest::prop_assert_eq!(debug(&x.to_values()), debug(&a));
            let joined: Vec<Value> = a.iter().chain(&b).cloned().collect();
            proptest::prop_assert_eq!(debug(&Column::concat([&x, &y]).to_values()), debug(&joined));
            let idx: Vec<u32> = picks
                .iter()
                .map(|&p| if p < a.len() { p as u32 } else { NULL_SLOT })
                .collect();
            let want: Vec<Value> = idx
                .iter()
                .map(|&i| if i == NULL_SLOT { Value::Null } else { a[i as usize].clone() })
                .collect();
            proptest::prop_assert_eq!(debug(&x.gather(&idx).to_values()), debug(&want));
        }
    }
}
