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
//! index plain `Vec`s with them. [`KeyIds`] is its dense front end, which
//! the hash join and hash aggregate call: a one-column key whose domain
//! is dense skips hashing every row — Int keys index an array by value,
//! Text keys hash each distinct arena entry once. [`values_hash`] hashes
//! a key held as values the same way; the sharded index maps pick a
//! key's shard by it.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::batch::{Acc, Cells, TextCells, Vals};
use crate::similarity::DENSE_SPAN;
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

/// `f(j, cell)` for the first `n` positions of `a`: one storage match
/// for the run, not one per cell.
#[inline]
fn each<C: Cells>(a: Acc<'_, C>, n: usize, mut f: impl FnMut(usize, Option<C::Item>)) {
    match a {
        Acc::Dense {
            data,
            validity: None,
        } => (0..n).for_each(|j| f(j, Some(data.cell(j)))),
        _ => (0..n).for_each(|j| f(j, a.get(j))),
    }
}

/// Mix each position's cell hash (`NULL_HASH` for NULL) into `hashes`.
fn hash_cells<C: Cells>(a: Acc<'_, C>, hashes: &mut [u64], hash: impl Fn(C::Item) -> u64) {
    each(a, hashes.len(), |j, cell| {
        hashes[j] = mix(hashes[j], cell.map_or(NULL_HASH, &hash))
    });
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

/// The group a row has when it has none: a NULL join key, or a probe
/// row whose key no build row holds.
pub(crate) const NO_GROUP: u32 = u32::MAX;

/// The most array slots a dense key domain may take per row it keys
/// (and never more than [`DENSE_SPAN`] in all), so that a few rows whose
/// keys lie far apart fall back to hashing rather than fill a large,
/// mostly empty array. Measured in release mode on a 2-vCPU host as
/// operator self time (median of 31 EXPLAIN ANALYZE runs of a group-by
/// and of a join, uniform random Int keys, 64 to 4,096 rows): the array
/// beat hashing by 1.4–4.1× at up to 64 slots per row, by 1.0–1.3× at
/// 256, and lost (0.5–0.7×) at 1,024 — DESIGN.md, "Dense key domains and
/// top-N".
const SLOTS_PER_ROW: u64 = 64;

/// Does a domain of `span` slots pay for itself over `rows` rows?
fn dense_enough(span: u64, rows: usize) -> bool {
    span <= DENSE_SPAN.min((rows as u64).saturating_mul(SLOTS_PER_ROW))
}

/// How a key's group ids were assigned, as EXPLAIN ANALYZE prints it
/// (`ids=dense:<span>`, `ids=entries:<n>`, `ids=hashed`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum IdPath {
    /// One Int column, by value: an array of `span` slots over `key − lo`.
    Dense(usize),
    /// One Text column, by arena entry: each distinct entry of an arena
    /// of `n` entries is hashed once, its group memoed.
    Entries(usize),
    /// Every row hashed and compared through the [`KeyTable`].
    Hashed,
}

impl fmt::Display for IdPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdPath::Dense(span) => write!(f, "dense:{span}"),
            IdPath::Entries(n) => write!(f, "entries:{n}"),
            IdPath::Hashed => f.write_str("hashed"),
        }
    }
}

/// The key's only column, when it has exactly one.
fn single<'k, 'a>(key: &'k Key<'a>) -> Option<&'k KeyCol<'a>> {
    match key.cols.as_slice() {
        [c] => Some(c),
        _ => None,
    }
}

/// The least and greatest non-NULL cells, when any.
fn int_range(a: Acc<'_, &[i64]>, n: usize) -> Option<(i64, i64)> {
    let mut range: Option<(i64, i64)> = None;
    each(a, n, |_, v| {
        if let Some(v) = v {
            range = Some(range.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))));
        }
    });
    range
}

/// How the ids were assigned, and what a probe needs of it.
enum Domain {
    /// Slot `key − lo` holds its group id + 1 (0: no group); `firsts`
    /// is each group's first row.
    Span {
        lo: i64,
        hi: i64,
        slots: Vec<u32>,
        firsts: Vec<u32>,
    },
    /// Groups live in the table; `n` is the memoed arena's entry count.
    Entries(usize),
    Hashed,
}

/// Dense group ids for the rows of one key, in first-seen order — the
/// one place the hash join's build and probe and the hash aggregate get
/// them. A one-column key with a dense domain takes a short cut past
/// hashing every row: Int keys index an array by value when their span
/// is dense enough for the rows, and Text keys hash and compare each
/// distinct arena entry once (a gathered column keeps its source's
/// entries) and memo its group. Multi-column keys, Float and other
/// storage go through the [`KeyTable`]. The ids are those the table
/// alone would give: NULL keys group as one key (or never join), and Int
/// 3 meets Float 3.0 through the table.
pub(crate) struct KeyIds<'k, 'a> {
    key: &'k Key<'a>,
    domain: Domain,
    table: KeyTable,
    ids: Vec<u32>,
}

impl<'k, 'a> KeyIds<'k, 'a> {
    /// Group ids for every row of `key`, NULL keys one group among the
    /// others: what an aggregate groups by.
    pub(crate) fn group(key: &'k Key<'a>) -> Self {
        let span = single(key).and_then(|c| match c.typed {
            Typed::Int(a) => Some(a),
            _ => None,
        });
        Self::assign(key, span, true)
    }

    /// Group ids for the build rows of a join (`key`), to be probed with
    /// `probe`'s rows: NULL keys get [`NO_GROUP`]. An Int array is used
    /// only when the probe key is one Int column too, since it is probed
    /// by value.
    pub(crate) fn build(key: &'k Key<'a>, probe: &Key<'_>) -> Self {
        let span = match (single(key).map(|c| c.typed), single(probe).map(|c| c.typed)) {
            (Some(Typed::Int(a)), Some(Typed::Int(_))) => Some(a),
            _ => None,
        };
        Self::assign(key, span, false)
    }

    fn assign(key: &'k Key<'a>, ints: Option<Acc<'a, &'a [i64]>>, null_groups: bool) -> Self {
        let n = key.rows;
        let mut ids = Vec::with_capacity(n);
        let mut table = KeyTable::default();
        // The group of the NULL key, opened at its first row.
        let mut null = NO_GROUP;
        if let Some((a, (lo, hi))) = ints.and_then(|a| Some((a, int_range(a, n)?))) {
            let span = hi.abs_diff(lo).saturating_add(1);
            if dense_enough(span, n) {
                let mut slots = vec![0u32; span as usize];
                let mut firsts = Vec::new();
                each(a, n, |j, v| {
                    ids.push(match v {
                        Some(v) => {
                            // lo <= v <= hi: the offset is exact and in range.
                            let s = &mut slots[v.wrapping_sub(lo) as u64 as usize];
                            if *s == 0 {
                                firsts.push(j as u32);
                                *s = firsts.len() as u32;
                            }
                            *s - 1
                        }
                        None if null_groups => {
                            if null == NO_GROUP {
                                null = firsts.len() as u32;
                                firsts.push(j as u32);
                            }
                            null
                        }
                        None => NO_GROUP,
                    })
                });
                return KeyIds {
                    key,
                    domain: Domain::Span {
                        lo,
                        hi,
                        slots,
                        firsts,
                    },
                    table,
                    ids,
                };
            }
        }
        let texts = single(key).and_then(|c| match c.typed {
            Typed::Text(t) => Some(t),
            _ => None,
        });
        if let Some((t, (ents, count))) = texts.and_then(|t| Some((t, t.entries()?))) {
            if dense_enough(count as u64, n) {
                // Each entry's group id + 1; 0 until the entry is first met.
                // Groups are hashed as `Key::hashes` hashes a one-column
                // key, so a hashed probe finds them too.
                let mut memo = vec![0u32; count];
                each(ents, n, |j, e| {
                    let same = |f: usize| key.eq(f, key, j);
                    ids.push(match e {
                        Some(e) => {
                            let m = &mut memo[e as usize];
                            if *m == 0 {
                                let s = t.get(j).expect("an entry is a valid cell");
                                *m = table.find_or_insert(mix(0, text_hash(s)), j, same) + 1;
                            }
                            *m - 1
                        }
                        None if null_groups => {
                            if null == NO_GROUP {
                                null = table.find_or_insert(mix(0, NULL_HASH), j, same);
                            }
                            null
                        }
                        None => NO_GROUP,
                    })
                });
                return KeyIds {
                    key,
                    domain: Domain::Entries(count),
                    table,
                    ids,
                };
            }
        }
        for (j, h) in key.hashes().into_iter().enumerate() {
            ids.push(if !null_groups && key.has_null(j) {
                NO_GROUP
            } else {
                table.find_or_insert(h, j, |f| key.eq(f, key, j))
            });
        }
        KeyIds {
            key,
            domain: Domain::Hashed,
            table,
            ids,
        }
    }

    /// Each row's group id.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The first row of each group, by group id.
    pub(crate) fn firsts(&self) -> &[u32] {
        match &self.domain {
            Domain::Span { firsts, .. } => firsts,
            _ => self.table.firsts(),
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.firsts().len()
    }

    pub(crate) fn path(&self) -> IdPath {
        match &self.domain {
            Domain::Span { slots, .. } => IdPath::Dense(slots.len()),
            Domain::Entries(n) => IdPath::Entries(*n),
            Domain::Hashed => IdPath::Hashed,
        }
    }

    /// The group each row of `probe` finds here, [`NO_GROUP`] when its
    /// key is NULL or no group holds it. A Text probe column memoes its
    /// own arena's entries as the build did.
    pub(crate) fn probe(&self, probe: &Key<'_>) -> Vec<u32> {
        let n = probe.rows;
        let mut out = Vec::with_capacity(n);
        let col = single(probe).map(|c| c.typed);
        match (&self.domain, col) {
            (Domain::Span { lo, hi, slots, .. }, Some(Typed::Int(a))) => each(a, n, |_, v| {
                out.push(match v {
                    Some(v) if *lo <= v && v <= *hi => {
                        slots[v.wrapping_sub(*lo) as u64 as usize].wrapping_sub(1)
                    }
                    _ => NO_GROUP,
                })
            }),
            (Domain::Span { .. }, _) => unreachable!("an Int array is built only for an Int probe"),
            (Domain::Entries(_), Some(Typed::Text(t)))
                if t.entries()
                    .is_some_and(|(_, count)| dense_enough(count as u64, n)) =>
            {
                let (ents, count) = t.entries().expect("tested above");
                // Each entry's match + 1 (`NO_GROUP` wraps to 0); `UNSEEN`
                // until the entry is first met.
                const UNSEEN: u32 = u32::MAX;
                let mut memo = vec![UNSEEN; count];
                each(ents, n, |j, e| {
                    out.push(match e {
                        Some(e) => {
                            let m = &mut memo[e as usize];
                            if *m == UNSEEN {
                                let s = t.get(j).expect("an entry is a valid cell");
                                let hit = self
                                    .table
                                    .find(mix(0, text_hash(s)), |f| self.key.eq(f, probe, j));
                                *m = hit.unwrap_or(NO_GROUP).wrapping_add(1);
                            }
                            m.wrapping_sub(1)
                        }
                        None => NO_GROUP,
                    })
                })
            }
            _ => {
                for (j, h) in probe.hashes().into_iter().enumerate() {
                    out.push(match probe.has_null(j) {
                        true => NO_GROUP,
                        false => self
                            .table
                            .find(h, |f| self.key.eq(f, probe, j))
                            .unwrap_or(NO_GROUP),
                    });
                }
            }
        }
        out
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

        /// `KeyIds` gives the table's ids whichever path it takes — one
        /// Int column, narrow (an array) or wide (hashed), or one Text
        /// column gathered so that entries repeat and two entries hold
        /// the same text — NULLs included, and a probe with the build's
        /// own rows finds each row's group (none for NULL).
        #[test]
        fn key_ids_are_the_tables_ids(
            ints in proptest::collection::vec(proptest::option::of(-3i64..3), 0..120),
            wide in any::<bool>(),
            picks in proptest::collection::vec(0u32..12, 0..120),
        ) {
            let scale = if wide { 1_000_003 } else { 1 };
            let ints = Column::from_values(
                ints.iter().map(|k| k.map_or(Value::Null, |k| Value::Int(k * scale))).collect(),
            );
            let texts = Column::from_values(
                (0..12)
                    .map(|i| match i % 5 {
                        4 => Value::Null,
                        _ => Value::text(["a", "b", "a", ""][i % 4]),
                    })
                    .collect(),
            )
            .gather(&picks);
            for col in [&ints, &texts] {
                let key = Key::new([view(col)], col.len());
                prop_assert_eq!(KeyIds::group(&key).ids(), &group(col, col.len())[..]);
                let build = KeyIds::build(&key, &key);
                let own: Vec<u32> = (0..col.len())
                    .map(|j| if col.is_null(j) { NO_GROUP } else { build.ids()[j] })
                    .collect();
                prop_assert_eq!(build.ids(), &own[..]);
                prop_assert_eq!(build.probe(&key), own);
            }
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
