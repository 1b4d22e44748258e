//! Hash keys over columns: what the batched hash join and hash aggregate
//! group rows by.
//!
//! A key is one or more columns of a [`Batch`](crate::batch::Batch) (or
//! of evaluated group-by kernels), read where they are stored. Hashes are
//! computed a column at a time from typed storage into one `u64` per row
//! (Text hashes its bytes where the arena holds them), and two rows are
//! compared slot by slot in place — no `Value` is built per cell, no key
//! is cloned into a map.
//!
//! The semantics are exactly [`Value`]'s: equal keys are `sql_eq`
//! column-wise (Int 3 equals Float 3.0, −0.0 equals 0.0, NULL equals NULL
//! — callers that must not match NULLs test [`Key::has_null`] first), and
//! the hash of a cell depends only on the value it holds, never on the
//! storage it came from, so an Int column and a Generic column holding
//! the same numbers hash alike.
//!
//! [`KeyTable`] hands out dense group ids in first-seen order; callers
//! index plain `Vec`s with them. [`values_hash`] hashes a key held as
//! values the same way; the sharded index maps pick a key's shard by it.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use crate::batch::{Acc, Cells, TextCells, Vals};
use crate::value::Value;

/// FxHash's multiplier: `mix` is one rotate, xor and multiply.
const K: u64 = 0x517c_c1b7_2722_0a95;
/// The hash of a NULL cell.
const NULL_HASH: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(K)
}

/// Int and Float cells hash by numeric value (as `Value`'s `Hash` does),
/// with −0.0 folded onto 0.0.
#[inline]
fn num_hash(f: f64) -> u64 {
    if f == 0.0 { 0.0f64 } else { f }.to_bits()
}

#[inline]
fn text_hash(s: &str) -> u64 {
    let mut h = FxHasher(0);
    h.write(s.as_bytes());
    h.0
}

/// The hash of one cell, whatever column storage held it.
fn cell_hash(v: &Value) -> u64 {
    match v {
        Value::Null => NULL_HASH,
        Value::Int(i) => num_hash(*i as f64),
        Value::Float(f) => num_hash(*f),
        Value::Text(s) => text_hash(s),
        other => {
            let mut h = FxHasher(0);
            other.hash(&mut h);
            h.0
        }
    }
}

/// The hash of a key held as values: the same number [`Key::hashes`]
/// gives a row holding these cells.
pub(crate) fn values_hash<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    values.into_iter().fold(0, |h, v| mix(h, cell_hash(v)))
}

/// An avalanche of `h` (murmur3's finalizer), so that any slice of its
/// bits is usable: single Int keys hash to their float bits, which vary
/// only high.
#[inline]
pub(crate) fn avalanche(h: u64) -> u64 {
    let mut x = h ^ (h >> 33);
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// A word-at-a-time multiplicative hasher (FxHash's shape) for the cells
/// that fall back to `Value`'s own `Hash`.
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.0 = mix(self.0, u64::from_le_bytes(word));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.0 = mix(mix(self.0, u64::from_le_bytes(tail)), bytes.len() as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix(self.0, x);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One key column, classified once by storage so the per-row hash and
/// comparison read a typed slice.
#[derive(Clone, Copy)]
enum Typed<'a> {
    Int(Acc<'a, &'a [i64]>),
    Float(Acc<'a, &'a [f64]>),
    Text(Acc<'a, TextCells<'a>>),
    /// Bool, Date, nested or mixed storage: compared as `Value`s.
    Any,
}

#[derive(Clone, Copy)]
struct KeyCol<'a> {
    vals: Vals<'a>,
    typed: Typed<'a>,
}

/// Mix each position's cell hash (`NULL_HASH` for NULL) into `hashes`.
fn hash_cells<C: Cells>(a: Acc<'_, C>, hashes: &mut [u64], hash: impl Fn(C::Item) -> u64) {
    match a {
        Acc::Dense {
            data,
            validity: None,
        } => {
            for (j, h) in hashes.iter_mut().enumerate() {
                *h = mix(*h, hash(data.cell(j)));
            }
        }
        _ => {
            for (j, h) in hashes.iter_mut().enumerate() {
                *h = mix(*h, a.get(j).map_or(NULL_HASH, &hash));
            }
        }
    }
}

impl<'a> KeyCol<'a> {
    fn new(vals: Vals<'a>) -> KeyCol<'a> {
        let typed = if let Some(a) = vals.ints() {
            Typed::Int(a)
        } else if let Some(a) = vals.texts() {
            Typed::Text(a)
        } else if let Some(a) = vals.floats() {
            Typed::Float(a)
        } else {
            Typed::Any
        };
        KeyCol { vals, typed }
    }

    fn hash_into(&self, hashes: &mut [u64]) {
        match self.typed {
            Typed::Int(a) => hash_cells(a, hashes, |i| num_hash(i as f64)),
            Typed::Float(a) => hash_cells(a, hashes, num_hash),
            Typed::Text(a) => hash_cells(a, hashes, text_hash),
            Typed::Any => {
                for (j, h) in hashes.iter_mut().enumerate() {
                    let cell = match self.vals.ref_at(j) {
                        Some(v) => cell_hash(v),
                        None => cell_hash(&self.vals.value_at(j)),
                    };
                    *h = mix(*h, cell);
                }
            }
        }
    }

    /// `Value::sql_eq` of row `j` here and row `k` of `other`.
    #[inline]
    fn eq(&self, j: usize, other: &KeyCol<'_>, k: usize) -> bool {
        match (self.typed, other.typed) {
            (Typed::Int(a), Typed::Int(b)) => a.get(j) == b.get(k),
            (Typed::Text(a), Typed::Text(b)) => a.get(j) == b.get(k),
            (Typed::Float(a), Typed::Float(b)) => match (a.get(j), b.get(k)) {
                // `Value::total_cmp` on floats: incomparable counts as equal.
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal).is_eq(),
                (x, y) => x.is_none() && y.is_none(),
            },
            _ => match (self.vals.ref_at(j), other.vals.ref_at(k)) {
                (Some(x), Some(y)) => x.sql_eq(y),
                _ => self.vals.value_at(j).sql_eq(&other.vals.value_at(k)),
            },
        }
    }
}

/// The key columns of one input, over its live rows.
pub(crate) struct Key<'a> {
    cols: Vec<KeyCol<'a>>,
    rows: usize,
}

impl<'a> Key<'a> {
    /// A key over `rows` live rows of `cols` (each a column view or a
    /// broadcast constant). No columns: every row has the same key.
    pub(crate) fn new(cols: impl IntoIterator<Item = Vals<'a>>, rows: usize) -> Key<'a> {
        Key {
            cols: cols.into_iter().map(KeyCol::new).collect(),
            rows,
        }
    }

    /// One hash per live row, combined a column at a time.
    pub(crate) fn hashes(&self) -> Vec<u64> {
        let mut hashes = vec![0u64; self.rows];
        for c in &self.cols {
            c.hash_into(&mut hashes);
        }
        hashes
    }

    /// Is any key column of row `j` NULL?
    #[inline]
    pub(crate) fn has_null(&self, j: usize) -> bool {
        self.cols.iter().any(|c| c.vals.null_at(j))
    }

    /// Do row `j` here and row `k` of `other` hold equal keys?
    #[inline]
    pub(crate) fn eq(&self, j: usize, other: &Key<'_>, k: usize) -> bool {
        self.cols
            .iter()
            .zip(&other.cols)
            .all(|(a, b)| a.eq(j, b, k))
    }
}

/// Dense ids for distinct keys, in first-seen order: open addressing over
/// group ids, each group remembering its hash and first row. The caller
/// supplies equality against a group's first row, so the table never
/// holds a key itself.
pub(crate) struct KeyTable {
    /// Group id + 1 per slot; 0 is empty. Length is a power of two.
    slots: Vec<u32>,
    hashes: Vec<u64>,
    firsts: Vec<u32>,
}

impl Default for KeyTable {
    fn default() -> Self {
        KeyTable {
            slots: vec![0; 16],
            hashes: Vec::new(),
            firsts: Vec::new(),
        }
    }
}

impl KeyTable {
    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.firsts.len()
    }

    /// The first row of each group, by group id.
    pub(crate) fn firsts(&self) -> &[u32] {
        &self.firsts
    }

    /// The slot a hash probes first: the low bits of an avalanche of `h`.
    #[inline]
    fn home(&self, h: u64) -> usize {
        (avalanche(h) as usize) & (self.slots.len() - 1)
    }

    /// The id of the group with hash `h` whose first row `same` accepts.
    #[inline]
    pub(crate) fn find(&self, h: u64, same: impl Fn(usize) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(h);
        loop {
            let g = self.slots[i].checked_sub(1)?;
            let gi = g as usize;
            if self.hashes[gi] == h && same(self.firsts[gi] as usize) {
                return Some(g);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of row `row`'s group (hash `h`), opening a new group with
    /// `row` as its first row when `same` accepts none.
    #[inline]
    pub(crate) fn find_or_insert(
        &mut self,
        h: u64,
        row: usize,
        same: impl Fn(usize) -> bool,
    ) -> u32 {
        if let Some(g) = self.find(h, same) {
            return g;
        }
        let g = self.firsts.len() as u32;
        self.hashes.push(h);
        self.firsts.push(row as u32);
        if self.firsts.len() * 2 > self.slots.len() {
            self.grow();
        } else {
            self.place(g);
        }
        g
    }

    /// Put group `g` in the first empty slot of its probe sequence.
    fn place(&mut self, g: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(self.hashes[g as usize]);
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = g + 1;
    }

    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        for g in 0..self.firsts.len() as u32 {
            self.place(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Column, Slots};
    use proptest::prelude::*;

    fn view(c: &Column) -> Vals<'_> {
        Vals::View {
            col: c,
            slots: Slots::all(c.len()),
        }
    }

    /// Group `values` (one key column) through a `KeyTable`; returns the
    /// group id per row.
    fn group(col: &Column, n: usize) -> Vec<u32> {
        let key = Key::new([view(col)], n);
        let hashes = key.hashes();
        let mut table = KeyTable::default();
        (0..n)
            .map(|j| table.find_or_insert(hashes[j], j, |f| key.eq(f, &key, j)))
            .collect()
    }

    #[test]
    fn numeric_keys_follow_sql_eq() {
        // Int 3 and Float 3.0 meet across typed storages; -0.0 meets 0.0.
        let ints = Column::from_values(vec![Value::Int(3), Value::Int(0), Value::Null]);
        let floats = Column::from_values(vec![Value::Float(3.0), Value::Float(-0.0), Value::Null]);
        let (a, b) = (Key::new([view(&ints)], 3), Key::new([view(&floats)], 3));
        assert_eq!(a.hashes(), b.hashes());
        for j in 0..3 {
            assert!(a.eq(j, &b, j), "row {j}");
        }
        assert!(a.has_null(2) && !a.has_null(0));
        assert!(!a.eq(0, &b, 1));
    }

    #[test]
    fn groups_are_dense_in_first_seen_order() {
        let col = Column::from_values(
            ["b", "a", "b", "c", "a"]
                .iter()
                .map(|s| Value::text(*s))
                .collect(),
        );
        assert_eq!(group(&col, 5), vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn text_keys_hash_like_their_values() {
        let texts = ["", "a", "héllo", "日本語", "a"];
        let col = Column::from_values(texts.iter().map(|s| Value::text(*s)).collect());
        let want: Vec<u64> = texts
            .iter()
            .map(|s| values_hash(&[Value::text(*s)]))
            .collect();
        assert_eq!(Key::new([view(&col)], texts.len()).hashes(), want);
        // Through a selection, and after a gather (which shares the arena).
        let sel = [2u32, 1];
        let through = Vals::View {
            col: &col,
            slots: Slots::List(&sel),
        };
        assert_eq!(Key::new([through], 2).hashes(), vec![want[2], want[1]]);
        let picked = col.gather(&sel);
        assert_eq!(
            Key::new([view(&picked)], 2).hashes(),
            vec![want[2], want[1]]
        );
    }

    fn any_key() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-4i64..4).prop_map(Value::Int),
            (-4i64..4).prop_map(|i| Value::Float(i as f64 / 2.0)),
            Just(Value::Float(-0.0)),
            "[ab]{0,9}".prop_map(Value::Text),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    proptest! {
        /// Grouping through the table (typed or Generic storage, any
        /// number of rows, growth included) equals grouping by
        /// `Value::sql_eq` in first-seen order.
        #[test]
        fn table_groups_like_value_equality(values in proptest::collection::vec(any_key(), 0..200)) {
            let col = Column::from_values(values.clone());
            let mut firsts: Vec<&Value> = Vec::new();
            let want: Vec<u32> = values
                .iter()
                .map(|v| match firsts.iter().position(|f| f.sql_eq(v)) {
                    Some(g) => g as u32,
                    None => {
                        firsts.push(v);
                        (firsts.len() - 1) as u32
                    }
                })
                .collect();
            prop_assert_eq!(group(&col, values.len()), want);
        }

        /// Equal cells hash alike whatever storage holds them.
        #[test]
        fn equal_cells_hash_alike(a in any_key(), b in any_key()) {
            if a.sql_eq(&b) {
                prop_assert_eq!(cell_hash(&a), cell_hash(&b));
                let typed = Column::from_values(vec![a.clone()]);
                let generic = Column::from_generic(vec![b.clone()]);
                let (x, y) = (Key::new([view(&typed)], 1), Key::new([view(&generic)], 1));
                prop_assert_eq!(x.hashes(), y.hashes());
                prop_assert!(x.eq(0, &y, 0));
            }
        }
    }
}
