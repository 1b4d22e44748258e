//! Row-oriented table storage, copy-on-write by the chunk.
//!
//! A [`Table`] owns its rows — a slot array indexed by [`RowId`], where
//! `None` is a tombstone left by DELETE so that row ids keep their
//! meaning — a primary-key map, and any number of secondary [`Index`]es
//! which are maintained eagerly on every mutation.
//!
//! ## Copy-on-write
//!
//! The catalog shares one `Arc<Table>` image between the live catalog and
//! every snapshot that pins it; a write to a shared image first clones it
//! (`Arc::make_mut`, see [`crate::catalog`]). That clone is cheap because
//! every part of a table that grows with its rows is itself `Arc`-shared:
//!
//! * the slot array is cut into chunks of `CHUNK_ROWS` (128) slots, row
//!   `rid` in chunk `rid / CHUNK_ROWS`;
//! * the primary-key map and every hash index are `ShardMap`s, fixed
//!   arrays of `Arc`'d shards picked by key hash (see [`crate::index`];
//!   B-tree indexes are one `Arc`'d map).
//!
//! So cloning a table copies O(#chunks + #shards) pointers, and a
//! mutation then copies only the chunk it touches and, in each map, the
//! shard its key lands in — and only while a clone still shares them; an
//! unshared chunk or shard is written in place. Every clone keeps exactly
//! the state it was taken at.
//!
//! ## Derived images
//!
//! The columnar image ([`Table::columnar`]) and the nest images
//! ([`Table::nested`]) are `Arc`s stamped with [`Table::version`] and
//! built on first use. The columnar image is rebuilt after any mutation.
//! A nest image survives inserts: each inserted row is folded into every
//! nest image stamped at the pre-insert version, which is restamped, so
//! the image is patched, not rebuilt. A nest image is itself sharded
//! copy-on-write (see [`crate::nest`]), so a patch made while a snapshot
//! pins the image copies one shard of it. A delete, an update or a WAL
//! replay drops the nest images, and the next use rebuilds them.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::batch::{Column as BatchColumn, ColumnBuilder};
use crate::error::{RelError, RelResult};
use crate::index::{Index, IndexKey, IndexKind, ShardMap};
use crate::keys::{values_hash, KeyTable};
use crate::mutation::{Mutation, MutationObserver, ObserverSlot};
use crate::nest::NestMap;
use crate::row::{Row, RowId};
use crate::schema::Schema;
use crate::value::Value;

/// A derived image of a table's live rows, keyed by the mutation
/// [`Table::version`] it was built at. Built lazily on first use and
/// reused until the next mutation. Cloning a table copies the current
/// snapshot (cheap — the images are `Arc`-shared and immutable) into a
/// fresh cell, so clones that later diverge can never see each other's
/// rebuilds.
#[derive(Debug)]
struct Versioned<T>(Mutex<Option<(u64, T)>>);

impl<T> Default for Versioned<T> {
    fn default() -> Self {
        Versioned(Mutex::new(None))
    }
}

impl<T: Clone> Clone for Versioned<T> {
    fn clone(&self) -> Self {
        Versioned(Mutex::new(self.0.lock().clone()))
    }
}

/// The columnar image batched scans serve (see [`Table::columnar`]).
type ColumnarImage = Arc<Vec<Arc<BatchColumn>>>;

/// The nest images current at one version, by `(fk, key, rating)` column
/// positions (see [`Table::nested`]). A table is nested by one or two
/// column triples in practice, so a scan of a short vector.
type NestImages = Vec<((usize, usize, Option<usize>), Arc<NestMap>)>;

/// Nest-image maintenance counters: images built cold, patched by an
/// insert, and dropped by any other write.
struct NestCounters {
    built: Arc<cr_obs::Counter>,
    patched: Arc<cr_obs::Counter>,
    dropped: Arc<cr_obs::Counter>,
}

fn nest_counters() -> &'static NestCounters {
    static C: OnceLock<NestCounters> = OnceLock::new();
    C.get_or_init(|| {
        let r = cr_obs::Registry::global();
        NestCounters {
            built: r.counter("relation.nest.built"),
            patched: r.counter("relation.nest.patched"),
            dropped: r.counter("relation.nest.dropped"),
        }
    })
}

/// Slots per row chunk (module docs: copy-on-write). A power of two, so a
/// row id splits into chunk and offset by shift and mask.
pub const CHUNK_ROWS: usize = 128;

/// One chunk of the slot array: always [`CHUNK_ROWS`] slots, those past
/// the table's slot count `None`.
pub type Chunk = [Option<Row>; CHUNK_ROWS];

/// The slot array, index == `RowId.0`, cut into `Arc`'d [`Chunk`]s. A
/// fixed-size chunk makes a row lookup two loads and one bounds check.
#[derive(Debug, Clone, Default)]
struct Slots {
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

impl Slots {
    #[inline]
    fn get(&self, slot: usize) -> Option<&Row> {
        self.chunks.get(slot / CHUNK_ROWS)?[slot % CHUNK_ROWS].as_ref()
    }

    /// Put `row` in `slot` (below `len`), returning what was there.
    /// Unshares the slot's chunk, so callers that may be making no change
    /// check [`Slots::get`] first.
    fn replace(&mut self, slot: usize, row: Option<Row>) -> Option<Row> {
        let chunk = Arc::make_mut(&mut self.chunks[slot / CHUNK_ROWS]);
        std::mem::replace(&mut chunk[slot % CHUNK_ROWS], row)
    }

    fn push(&mut self, row: Option<Row>) {
        if self.len.is_multiple_of(CHUNK_ROWS) {
            self.chunks.push(Arc::new(std::array::from_fn(|_| None)));
        }
        if row.is_some() {
            self.replace(self.len, row);
        }
        self.len += 1;
    }

    /// Live rows with their ids, in row-id order.
    fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> + '_ {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|r| (RowId(i as u64), r)))
    }
}

/// One row write of a statement (see [`Table::apply`]).
pub(crate) enum Write {
    /// A new row, at the next row id.
    Insert(Row),
    /// The live row at the id, replaced by the row.
    Update(RowId, Row),
    /// The live row at the id, removed.
    Delete(RowId),
}

/// An in-memory table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Slot array; tombstoned slots are `None`.
    rows: Slots,
    /// Live-row count (excludes tombstones).
    live: usize,
    /// Positions of the primary-key columns (may be empty: no PK).
    pk_columns: Vec<usize>,
    /// PK value → RowId.
    pk_index: ShardMap<RowId>,
    /// Secondary indexes by name.
    indexes: Vec<Index>,
    /// Monotonic mutation counter: bumped on every successful insert,
    /// delete, or update. Result caches (e.g. the courserank `RecCache`)
    /// snapshot dependency versions and stay valid until any bump.
    version: u64,
    /// Optional durability hook; notified after each successful mutation.
    observer: ObserverSlot,
    /// Lazily built columnar image for batched scans.
    columnar: Versioned<ColumnarImage>,
    /// Lazily built nest images for the FlexRecs extend operator.
    nests: Versioned<NestImages>,
}

impl Table {
    /// Create an empty table. `pk_columns` are positions into `schema`.
    pub fn new(name: impl Into<String>, schema: Schema, pk_columns: Vec<usize>) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Slots::default(),
            live: 0,
            pk_columns,
            pk_index: ShardMap::default(),
            indexes: Vec::new(),
            version: 0,
            observer: ObserverSlot::default(),
            columnar: Versioned::default(),
            nests: Versioned::default(),
        }
    }

    /// Rebuild a table from recovered state: the raw slot array (with
    /// `None` tombstones preserved so row ids keep their meaning) and the
    /// mutation counter as of the snapshot. The primary-key index is
    /// rebuilt here; secondary indexes are re-created (and backfilled) by
    /// the caller via [`Table::create_index`]. Rows are trusted — they
    /// were validated when first inserted and are CRC-protected on disk.
    pub fn restore(
        name: impl Into<String>,
        schema: Schema,
        pk_columns: Vec<usize>,
        slots: Vec<Option<Row>>,
        version: u64,
    ) -> Self {
        let mut table = Table::new(name, schema, pk_columns);
        table.version = version;
        for (i, slot) in slots.into_iter().enumerate() {
            if let Some(row) = &slot {
                table.live += 1;
                if let Some(key) = table.pk_key(row) {
                    table.pk_index.insert(key, RowId(i as u64));
                }
            }
            table.rows.push(slot);
        }
        table
    }

    /// Attach (or detach) the durability observer. Set by the catalog so
    /// every handle to this table shares it.
    pub(crate) fn set_observer(&mut self, observer: Option<Arc<dyn MutationObserver>>) {
        self.observer = ObserverSlot(observer);
    }

    #[inline]
    fn emit(&self, mutation: &Mutation<'_>) {
        if let Some(obs) = self.observer.get() {
            obs.on_mutation(&self.name, &self.schema, mutation);
        }
    }

    /// Monotonic mutation counter (see the field docs).
    pub fn version(&self) -> u64 {
        self.version
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Live row count.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Primary-key column positions.
    pub fn pk_columns(&self) -> &[usize] {
        &self.pk_columns
    }

    fn pk_key(&self, row: &Row) -> Option<IndexKey> {
        if self.pk_columns.is_empty() {
            None
        } else {
            Some(self.pk_columns.iter().map(|&i| row[i].clone()).collect())
        }
    }

    /// Put `new_row`, or a tombstone, in slot `rid` (below the slot
    /// count) and move the PK and index entries whose keys change: an
    /// insert's keys move from no row, a delete's to no row, and an
    /// unchanged key keeps its place in its bucket. Returns the row that
    /// was there; the caller patches or drops the nest images.
    fn write_row(&mut self, rid: RowId, new_row: Option<Row>) -> Option<Row> {
        let old_row = self.rows.replace(rid.0 as usize, new_row);
        let new_row = self.rows.get(rid.0 as usize);
        let pk = |row: Option<&Row>| row.and_then(|r| self.pk_key(r));
        let (old_key, new_key) = (pk(old_row.as_ref()), pk(new_row));
        if old_key != new_key {
            if let Some(key) = old_key {
                self.pk_index.remove(&key);
            }
            if let Some(key) = new_key {
                self.pk_index.insert(key, rid);
            }
        }
        for idx in &mut self.indexes {
            let old_key = old_row.as_ref().map(|r| idx.key_of(r));
            let new_key = new_row.map(|r| idx.key_of(r));
            if old_key != new_key {
                if let Some(key) = old_key {
                    idx.remove(&key, rid);
                }
                if let Some(key) = new_key {
                    idx.insert(key, rid);
                }
            }
        }
        self.live = self.live + usize::from(new_row.is_some()) - usize::from(old_row.is_some());
        self.version += 1;
        old_row
    }

    /// Drop every nest image (module docs: derived images); the next
    /// [`Table::nested`] call rebuilds it.
    fn drop_nests(&mut self) {
        if let Some((_, images)) = self.nests.0.get_mut().take() {
            if cr_obs::enabled() {
                nest_counters().dropped.add(images.len() as u64);
            }
        }
    }

    /// Fold the row just inserted at `rid` into every nest image current
    /// before the insert, and stamp them with the new version (module
    /// docs: derived images). Images that were already stale, and any a
    /// patch fails on, are dropped.
    fn patch_nests(&mut self, rid: RowId) {
        let slot = self.nests.0.get_mut();
        let Some((version, images)) = slot else {
            return;
        };
        let row = self.rows.get(rid.0 as usize).expect("just inserted");
        let before = images.len();
        if *version + 1 == self.version {
            images.retain_mut(|(cols, image)| {
                let (fk, key, rating) = *cols;
                let triple = (
                    row[fk].clone(),
                    row[key].clone(),
                    rating.map(|c| row[c].clone()),
                );
                Arc::make_mut(image).patch(triple).is_ok()
            });
        } else {
            images.clear();
        }
        if cr_obs::enabled() {
            let c = nest_counters();
            c.patched.add(images.len() as u64);
            c.dropped.add((before - images.len()) as u64);
        }
        *version = self.version;
    }

    /// Insert a row (validated and coerced against the schema).
    /// Returns the new row's id.
    pub fn insert(&mut self, row: Row) -> RelResult<RowId> {
        let rid = RowId(self.rows.len as u64);
        self.apply(vec![Write::Insert(row)]).map(|()| rid)
    }

    /// Fetch a row by id (None if tombstoned or out of range).
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.rows.get(rid.0 as usize)
    }

    /// Look up by primary key.
    pub fn get_by_pk(&self, key: &IndexKey) -> Option<&Row> {
        self.pk_index.get(key).and_then(|&rid| self.get(rid))
    }

    /// RowId for a primary key.
    pub fn rowid_by_pk(&self, key: &IndexKey) -> Option<RowId> {
        self.pk_index.get(key).copied()
    }

    /// Delete by row id. Returns true if a live row was removed.
    pub fn delete(&mut self, rid: RowId) -> bool {
        self.apply(vec![Write::Delete(rid)]).is_ok()
    }

    /// Replace the row at `rid` with `new_row` (validated). Indexes are
    /// updated. Every check (the row is live, its primary key holds no
    /// NULL, and neither it nor any unique index key is taken by another
    /// row) runs before the write, so an error leaves the table as it was.
    pub fn update(&mut self, rid: RowId, new_row: Row) -> RelResult<()> {
        self.apply(vec![Write::Update(rid, new_row)])
    }

    /// Apply a statement's row writes in list order, all or nothing; each
    /// row id is written at most once. Every check a write makes — an
    /// updated or deleted row is live, a new image is valid, its primary
    /// key holds no NULL, and neither its primary key nor any unique
    /// index key is held by another row once the writes before it are
    /// applied — runs before the first write. So an error is the one the
    /// writes applied one by one would meet first, and it changes and
    /// logs nothing.
    pub(crate) fn apply(&mut self, mut writes: Vec<Write>) -> RelResult<()> {
        self.check(&mut writes)?;
        for write in writes {
            let (rid, new_row) = match write {
                Write::Insert(row) => {
                    self.rows.push(None);
                    (RowId(self.rows.len as u64 - 1), Some(row))
                }
                Write::Update(rid, row) => (rid, Some(row)),
                Write::Delete(rid) => (rid, None),
            };
            let old_row = self.write_row(rid, new_row);
            if old_row.is_none() {
                self.patch_nests(rid);
            } else {
                self.drop_nests();
            }
            if self.observer.get().is_some() {
                let version = self.version;
                self.emit(&match (old_row.as_ref(), self.get(rid)) {
                    (None, Some(row)) => Mutation::Insert { rid, row, version },
                    (Some(old_row), Some(row)) => Mutation::Update {
                        rid,
                        row,
                        old_row,
                        version,
                    },
                    (Some(row), None) => Mutation::Delete { rid, row, version },
                    (None, None) => unreachable!("a checked write has a row"),
                });
            }
        }
        Ok(())
    }

    /// [`Table::apply`]'s checks, writing nothing but each new image,
    /// validated in place. Each write's keys are checked against the key
    /// moves of the writes before it, replayed over the primary key and
    /// each unique index, each of which maps a key to at most one row: an
    /// insert moves its keys from no row, a delete to no row.
    fn check(&self, writes: &mut [Write]) -> RelResult<()> {
        // The primary key (`None`), then each unique index.
        let unique = self.indexes.iter().filter(|i| i.unique);
        let constraints = std::iter::once(None).chain(unique.map(Some));
        // Per constraint: each key a checked write moved from or to, read
        // in place (see `Table::image`), and the row now holding it. No
        // write reads the last one's moves, so a one-row write records none.
        let mut moved: Vec<(KeyTable, Vec<Option<RowId>>)> = Vec::new();
        let mut next_rid = RowId(self.rows.len as u64);
        for i in 0..writes.len() {
            if let Write::Insert(row) | Write::Update(_, row) = &mut writes[i] {
                *row = self.schema.validate_row(std::mem::take(row))?;
            }
            let writes = &*writes;
            let (rid, old_row, new_row) = match &writes[i] {
                Write::Insert(row) => {
                    next_rid.0 += 1;
                    (RowId(next_rid.0 - 1), None, Some(row))
                }
                Write::Update(rid, row) => (*rid, Some(self.live_row(*rid)?), Some(row)),
                Write::Delete(rid) => (*rid, Some(self.live_row(*rid)?), None),
            };
            for (c, index) in constraints.clone().enumerate() {
                let cols = index.map_or(&self.pk_columns, |idx| &idx.columns);
                if cols.is_empty() {
                    continue; // no primary key
                }
                let hash = |row: &Row| values_hash(cols.iter().map(|&k| &row[k]));
                let same = |a: &Row, b: &Row| cols.iter().all(|&k| a[k] == b[k]);
                if let Some(row) = new_row {
                    if index.is_none() && cols.iter().any(|&k| row[k].is_null()) {
                        return Err(RelError::NullViolation("primary key".into()));
                    }
                    let key: Cow<[Value]> = match cols.as_slice() {
                        [k] => Cow::Borrowed(std::slice::from_ref(&row[*k])),
                        _ => cols.iter().map(|&k| row[k].clone()).collect(),
                    };
                    let holder = moved.get(c).and_then(|(keys, holders)| {
                        keys.find(hash(row), |s| same(self.image(writes, s), row))
                            .map(|g| holders[g as usize])
                    });
                    let taken = match (holder, index) {
                        (Some(holder), _) => holder.is_some_and(|r| r != rid),
                        (None, None) => self.pk_index.get(&key).is_some_and(|&r| r != rid),
                        (None, Some(idx)) => idx.conflicts_except(&key, Some(rid)),
                    };
                    if taken {
                        let key: Vec<String> = key.iter().map(ToString::to_string).collect();
                        return Err(RelError::DuplicateKey(match index {
                            None => format!("{}({})", self.name, key.join(",")),
                            Some(idx) => format!("{}:{}", self.name, idx.name),
                        }));
                    }
                }
                if i + 1 == writes.len() || old_row.zip(new_row).is_some_and(|(o, n)| same(o, n)) {
                    continue;
                }
                if moved.is_empty() {
                    moved.resize_with(constraints.clone().count(), Default::default);
                }
                let (keys, holders) = &mut moved[c];
                for (row, s, holder) in [(old_row, 2 * i + 1, None), (new_row, 2 * i, Some(rid))] {
                    let Some(row) = row else { continue };
                    let g = keys.find_or_insert(hash(row), s, |s| same(self.image(writes, s), row));
                    holders.resize(keys.len(), None);
                    holders[g as usize] = holder;
                }
            }
        }
        Ok(())
    }

    /// The live row at `rid`, or an error naming it.
    fn live_row(&self, rid: RowId) -> RelResult<&Row> {
        self.get(rid)
            .ok_or_else(|| RelError::Invalid(format!("no row {rid:?} in {}", self.name)))
    }

    /// The image [`Table::check`] reads a moved key in: for `s = 2j`
    /// write `j`'s new row, for `s = 2j + 1` the row it replaces.
    fn image<'a>(&'a self, writes: &'a [Write], s: usize) -> &'a Row {
        match &writes[s / 2] {
            Write::Insert(row) | Write::Update(_, row) if s.is_multiple_of(2) => row,
            Write::Update(rid, _) | Write::Delete(rid) => self.get(*rid).expect("checked live"),
            Write::Insert(_) => unreachable!("an insert replaces no row"),
        }
    }

    // ------------------------------------------------------------------
    // WAL replay
    //
    // The `replay_*` methods re-apply logged mutations during crash
    // recovery. They differ from the public mutators in three ways: the
    // row id is dictated by the log instead of assigned, rows are trusted
    // (validated at original insert time, CRC-checked on read), and no
    // observer events are emitted (recovery must not re-log itself).
    // Replaying a mutation that the starting snapshot already reflects is
    // a no-op, which makes replay safe when a checkpoint raced a writer.
    // ------------------------------------------------------------------

    /// Re-apply a logged insert at its original row id, extending the
    /// slot array with tombstones if the id is past the end (possible
    /// when a checkpoint raced a writer and part of the tail is already
    /// reflected by the snapshot).
    pub fn replay_insert(&mut self, rid: RowId, row: Row) -> RelResult<()> {
        let slot = rid.0 as usize;
        while self.rows.len <= slot {
            self.rows.push(None);
        }
        if self.rows.get(slot).is_some() {
            return Ok(()); // already reflected by the snapshot
        }
        self.write_row(rid, Some(row));
        self.drop_nests();
        Ok(())
    }

    /// Re-apply a logged update (replace the row image at `rid`).
    pub fn replay_update(&mut self, rid: RowId, new_row: Row) -> RelResult<()> {
        self.live_row(rid)?;
        self.write_row(rid, Some(new_row));
        self.drop_nests();
        Ok(())
    }

    /// Re-apply a logged delete (no-op if the slot is already empty).
    pub fn replay_delete(&mut self, rid: RowId) {
        if self.get(rid).is_some() {
            self.write_row(rid, None);
            self.drop_nests();
        }
    }

    /// Iterate live rows with their ids, in row-id order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> + '_ {
        self.rows.iter()
    }

    /// Number of physical slots (live rows + tombstones).
    pub fn slot_count(&self) -> usize {
        self.rows.len
    }

    /// The slot array as its `Arc`'d chunks, read-only: chunk `i` holds
    /// slots `i * CHUNK_ROWS ..`, and there are
    /// `slot_count().div_ceil(CHUNK_ROWS)` of them. Every slot write
    /// goes through `Arc::make_mut`, so a chunk someone else still holds
    /// is copied before it is written: a held chunk never changes, and a
    /// chunk `Arc::ptr_eq` to one held since an earlier cut has the same
    /// slots as it did then.
    pub fn chunks(&self) -> &[Arc<Chunk>] {
        &self.rows.chunks
    }

    /// Create a secondary index over `columns` and backfill it.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        columns: Vec<usize>,
        kind: IndexKind,
        unique: bool,
    ) -> RelResult<()> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(RelError::IndexExists(name));
        }
        let mut idx = Index::new(name, columns, kind, unique);
        for (rid, row) in self.rows.iter() {
            let key = idx.key_of(row);
            if idx.conflicts_except(&key, None) {
                return Err(RelError::DuplicateKey(format!(
                    "{}:{} (backfill)",
                    self.name, idx.name
                )));
            }
            idx.insert(key, rid);
        }
        self.emit(&Mutation::CreateIndex {
            name: &idx.name,
            columns: &idx.columns,
            kind: idx.kind(),
            unique: idx.unique,
        });
        self.indexes.push(idx);
        Ok(())
    }

    /// Find an index by name.
    pub fn index(&self, name: &str) -> Option<&Index> {
        self.indexes.iter().find(|i| i.name == name)
    }

    /// All secondary indexes.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Find an index whose leading key column is `column` (optimizer hook).
    pub fn index_on_column(&self, column: usize) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|i| i.columns.first() == Some(&column))
    }

    /// Collect all live rows (cloned). Convenience for small tables/tests.
    pub fn all_rows(&self) -> Vec<Row> {
        self.scan().map(|(_, r)| r.clone()).collect()
    }

    /// Columnar image of the live rows in [`Table::scan`] order, one
    /// [`BatchColumn`] per schema column. Built on first call after a
    /// mutation and cached against [`Table::version`], so steady-state
    /// read traffic pays a pointer clone. Concurrent first calls may both
    /// build; the result is identical either way.
    pub fn columnar(&self) -> ColumnarImage {
        if let Some((v, cols)) = &*self.columnar.0.lock() {
            if *v == self.version {
                return Arc::clone(cols);
            }
        }
        let mut builders: Vec<ColumnBuilder> = self
            .schema
            .columns()
            .iter()
            .map(|c| ColumnBuilder::for_type(c.data_type, self.live))
            .collect();
        for (_, row) in self.scan() {
            for (b, v) in builders.iter_mut().zip(row.iter()) {
                b.push_ref(v);
            }
        }
        let cols: ColumnarImage =
            Arc::new(builders.into_iter().map(|b| Arc::new(b.finish())).collect());
        *self.columnar.0.lock() = Some((self.version, Arc::clone(&cols)));
        cols
    }

    /// Nested image of the live rows for the FlexRecs extend operator:
    /// `fk_col` value → `Value::Set` of `key_col` values, or — with a
    /// `rating_col` — `Value::Ratings` of per-key rating averages (see
    /// [`NestMap`], fed in [`Table::scan`] order). Built on first call,
    /// cached against [`Table::version`] and `Arc`-shared into clones. An
    /// insert patches the cached image in place of dropping it, and any
    /// other mutation drops it (module docs: derived images); either way
    /// the image equals a cold build at the current version. Concurrent
    /// first calls may both build, the result is identical either way. The
    /// flag is `true` when the image came from the cache, patched or not.
    pub fn nested(
        &self,
        fk_col: usize,
        key_col: usize,
        rating_col: Option<usize>,
    ) -> RelResult<(Arc<NestMap>, bool)> {
        let key = (fk_col, key_col, rating_col);
        let cached = |slot: &Option<(u64, NestImages)>| match slot {
            Some((v, images)) if *v == self.version => images
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, image)| Arc::clone(image)),
            _ => None,
        };
        if let Some(image) = cached(&self.nests.0.lock()) {
            return Ok((image, true));
        }
        let width = self.schema.len();
        if let Some(&c) = [fk_col, key_col]
            .iter()
            .chain(rating_col.iter())
            .find(|&&c| c >= width)
        {
            return Err(RelError::Invalid(format!(
                "no column #{c} in {} to nest by",
                self.name
            )));
        }
        let built = Arc::new(NestMap::build(
            self.scan().map(|(_, r)| {
                (
                    r[fk_col].clone(),
                    r[key_col].clone(),
                    rating_col.map(|c| r[c].clone()),
                )
            }),
            rating_col.is_some(),
        )?);
        if cr_obs::enabled() {
            nest_counters().built.inc();
        }
        let mut slot = self.nests.0.lock();
        if let Some(raced) = cached(&slot) {
            return Ok((raced, false));
        }
        match &mut *slot {
            Some((v, images)) if *v == self.version => images.push((key, Arc::clone(&built))),
            _ => *slot = Some((self.version, vec![(key, Arc::clone(&built))])),
        }
        Ok((built, false))
    }

    /// Every part of this table that grows with its rows, as labelled
    /// pointers in a fixed order: row chunks, primary-key shards, each
    /// index's parts, then each cached nest image's shards. The
    /// destructuring is exhaustive on purpose: a field added later does
    /// not compile here until it is listed, either among the parts or as
    /// cheap to clone, so nothing that copies O(table) can slip into
    /// `Table::clone` unseen by the structural-sharing test.
    #[cfg(test)]
    pub(crate) fn cow_parts(&self) -> Vec<(String, *const ())> {
        let Table {
            // O(1) or O(schema) to clone.
            name: _,
            schema: _,
            live: _,
            pk_columns: _,
            version: _,
            observer: _,
            // An immutable `Arc`'d image: a clone copies the pointer.
            columnar: _,
            rows,
            pk_index,
            indexes,
            nests,
        } = self;
        let chunks = rows
            .chunks
            .iter()
            .map(|c| ("rows".to_owned(), Arc::as_ptr(c).cast::<()>()));
        let pk = pk_index
            .shard_ptrs()
            .into_iter()
            .map(|p| ("pk".to_owned(), p));
        let idx = indexes.iter().flat_map(|i| {
            i.cow_parts()
                .into_iter()
                .map(move |p| (format!("index {}", i.name), p))
        });
        let images = nests
            .0
            .lock()
            .iter()
            .flat_map(|(_, images)| images)
            .flat_map(|(cols, image)| {
                image
                    .shard_ptrs()
                    .into_iter()
                    .map(move |p| (format!("nest {cols:?}"), p))
            })
            .collect::<Vec<_>>();
        chunks.chain(pk).chain(idx).chain(images).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::ops::Bound;

    use crate::row::row;
    use crate::schema::{Column, DataType};
    use proptest::prelude::*;

    fn courses() -> Table {
        let schema = Schema::qualified(
            "courses",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("title", DataType::Text),
                Column::new("units", DataType::Int),
            ],
        );
        Table::new("courses", schema, vec![0])
    }

    #[test]
    fn insert_and_get() {
        let mut t = courses();
        let rid = t.insert(row![1i64, "Intro", 5i64]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(rid).unwrap()[1], Value::text("Intro"));
        assert_eq!(t.get_by_pk(&vec![Value::Int(1)]).unwrap()[2], Value::Int(5));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = courses();
        t.insert(row![1i64, "A", 3i64]).unwrap();
        let err = t.insert(row![1i64, "B", 4i64]).unwrap_err();
        assert!(matches!(err, RelError::DuplicateKey(_)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn null_pk_rejected() {
        let mut t = courses();
        // id is NOT NULL so validate_row catches it first.
        assert!(t
            .insert(vec![Value::Null, Value::Null, Value::Null])
            .is_err());
    }

    /// The NULL-key rule holds for updates as for inserts, on a table
    /// whose schema lets the key column hold NULL.
    #[test]
    fn update_to_a_null_primary_key_is_rejected() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("v", DataType::Int),
        ]);
        let mut t = Table::new("t", schema, vec![0]);
        assert!(matches!(
            t.insert(row![Value::Null, 0i64]),
            Err(RelError::NullViolation(_))
        ));
        let rid = t.insert(row![1i64, 0i64]).unwrap();
        let version = t.version();
        assert!(matches!(
            t.update(rid, row![Value::Null, 0i64]),
            Err(RelError::NullViolation(_))
        ));
        assert_eq!(t.get(rid), Some(&row![1i64, 0i64]));
        assert_eq!(t.version(), version);
        assert_eq!(t.rowid_by_pk(&vec![Value::Int(1)]), Some(rid));
    }

    #[test]
    fn delete_leaves_tombstone_and_updates_indexes() {
        let mut t = courses();
        t.create_index("by_units", vec![2], IndexKind::Hash, false)
            .unwrap();
        let r1 = t.insert(row![1i64, "A", 3i64]).unwrap();
        let r2 = t.insert(row![2i64, "B", 3i64]).unwrap();
        assert!(t.delete(r1));
        assert!(!t.delete(r1)); // second delete is a no-op
        assert_eq!(t.len(), 1);
        assert!(t.get(r1).is_none());
        assert!(t.get(r2).is_some());
        let idx = t.index("by_units").unwrap();
        assert_eq!(idx.get(&vec![Value::Int(3)]).unwrap(), &[r2]);
        // PK is freed for reuse.
        t.insert(row![1i64, "A2", 4i64]).unwrap();
    }

    #[test]
    fn update_moves_index_entries() {
        let mut t = courses();
        t.create_index("by_units", vec![2], IndexKind::BTree, false)
            .unwrap();
        let rid = t.insert(row![1i64, "A", 3i64]).unwrap();
        t.update(rid, row![1i64, "A", 4i64]).unwrap();
        let idx = t.index("by_units").unwrap();
        assert!(idx.get(&vec![Value::Int(3)]).is_none());
        assert_eq!(idx.get(&vec![Value::Int(4)]).unwrap(), &[rid]);
    }

    #[test]
    fn update_pk_conflict_rejected() {
        let mut t = courses();
        let r1 = t.insert(row![1i64, "A", 3i64]).unwrap();
        t.insert(row![2i64, "B", 3i64]).unwrap();
        assert!(matches!(
            t.update(r1, row![2i64, "A", 3i64]),
            Err(RelError::DuplicateKey(_))
        ));
    }

    #[test]
    fn backfilled_index_sees_existing_rows() {
        let mut t = courses();
        t.insert(row![1i64, "A", 3i64]).unwrap();
        t.insert(row![2i64, "B", 4i64]).unwrap();
        t.create_index("by_units", vec![2], IndexKind::Hash, false)
            .unwrap();
        assert_eq!(t.index("by_units").unwrap().entries(), 2);
    }

    #[test]
    fn unique_secondary_index_enforced() {
        let mut t = courses();
        t.create_index("uniq_title", vec![1], IndexKind::Hash, true)
            .unwrap();
        t.insert(row![1i64, "A", 3i64]).unwrap();
        assert!(matches!(
            t.insert(row![2i64, "A", 4i64]),
            Err(RelError::DuplicateKey(_))
        ));
    }

    #[test]
    fn update_rejects_a_unique_key_held_by_another_row() {
        let mut t = courses();
        t.create_index("uniq_units", vec![2], IndexKind::Hash, true)
            .unwrap();
        let r1 = t.insert(row![1i64, "A", 10i64]).unwrap();
        let r2 = t.insert(row![2i64, "B", 20i64]).unwrap();
        let version = t.version();
        assert!(matches!(
            t.update(r2, row![2i64, "B", 10i64]),
            Err(RelError::DuplicateKey(_))
        ));
        // Rejected before anything moved: row, index and version intact.
        assert_eq!(t.version(), version);
        assert_eq!(t.get(r2).unwrap()[2], Value::Int(20));
        let idx = t.index("uniq_units").unwrap();
        assert_eq!(idx.get(&vec![Value::Int(10)]).unwrap(), &[r1]);
        assert_eq!(idx.get(&vec![Value::Int(20)]).unwrap(), &[r2]);
        assert!(matches!(
            t.insert(row![4i64, "D", 20i64]),
            Err(RelError::DuplicateKey(_))
        ));
        // A row keeps its own key, and may move to a free one.
        t.update(r1, row![1i64, "A2", 10i64]).unwrap();
        t.update(r2, row![2i64, "B", 30i64]).unwrap();
        assert_eq!(
            t.index("uniq_units").unwrap().get(&vec![Value::Int(30)]),
            Some(&[r2][..])
        );
    }

    #[test]
    fn a_write_after_a_clone_copies_one_chunk_and_one_shard_per_map() {
        let mut t = courses();
        t.create_index("by_units", vec![2], IndexKind::Hash, false)
            .unwrap();
        t.create_index("by_title", vec![1], IndexKind::Hash, true)
            .unwrap();
        let n = 3 * CHUNK_ROWS as i64 + 7;
        for id in 0..n {
            t.insert(row![id, format!("t{id}"), id % 5]).unwrap();
        }
        // Labels of the parts that differ between two tables, counted.
        let moved = |a: &Table, b: &Table| {
            let (a, b) = (a.cow_parts(), b.cow_parts());
            assert_eq!(a.len(), b.len());
            let mut moved: Vec<(String, usize)> = Vec::new();
            for ((label, p), (_, q)) in a.iter().zip(&b) {
                if p != q {
                    match moved.iter_mut().find(|(l, _)| l == label) {
                        Some((_, k)) => *k += 1,
                        None => moved.push((label.clone(), 1)),
                    }
                }
            }
            moved
        };
        let each_once = |rows: bool| {
            let mut want = vec![
                ("pk".to_owned(), 1),
                ("index by_units".to_owned(), 1),
                ("index by_title".to_owned(), 1),
            ];
            if rows {
                want.insert(0, ("rows".to_owned(), 1));
            }
            want
        };

        let first = t.clone();
        assert!(moved(&t, &first).is_empty(), "a clone shares everything");
        t.insert(row![n, "new", 3i64]).unwrap();
        assert_eq!(moved(&t, &first), each_once(true));
        let (tp, fp) = (t.cow_parts(), first.cow_parts());
        let last_chunk = tp.iter().filter(|(l, _)| l == "rows").count() - 1;
        assert_ne!(tp[last_chunk].1, fp[last_chunk].1, "the tail chunk moved");

        // A delete in the middle copies that chunk and one shard per map.
        let middle = RowId(CHUNK_ROWS as u64 + 3);
        let second = t.clone();
        assert!(t.delete(middle));
        assert_eq!(moved(&t, &second), each_once(true));
        assert_ne!(t.cow_parts()[1].1, second.cow_parts()[1].1, "chunk 1 moved");

        // Once unshared, a chunk takes later writes in place.
        let chunk_1 = t.cow_parts()[1].1;
        assert!(t.delete(RowId(CHUNK_ROWS as u64 + 4)));
        t.update(
            RowId(CHUNK_ROWS as u64 + 5),
            row![CHUNK_ROWS as i64 + 5, "t", 4i64],
        )
        .unwrap();
        assert_eq!(t.cow_parts()[1].1, chunk_1);

        // A rejected or no-op write leaves every shared part shared.
        let third = t.clone();
        assert!(!t.delete(middle));
        assert!(t.insert(row![0i64, "dup", 1i64]).is_err());
        assert!(t.update(RowId(0), row![1i64, "t0", 0i64]).is_err());
        assert!(moved(&t, &third).is_empty());

        // An insert under a pinned nest image copies one shard of it, and
        // the pinned image stays what it was.
        let pinned = [
            t.nested(2, 0, None).unwrap().0,
            t.nested(2, 0, Some(2)).unwrap().0,
        ];
        let fourth = t.clone();
        assert!(moved(&t, &fourth).is_empty());
        t.insert(row![n + 1, "newer", 4i64]).unwrap();
        let mut want = each_once(true);
        want.push(("nest (2, 0, None)".to_owned(), 1));
        want.push(("nest (2, 0, Some(2))".to_owned(), 1));
        assert_eq!(moved(&t, &fourth), want);
        assert!(Arc::ptr_eq(
            &fourth.nested(2, 0, None).unwrap().0,
            &pinned[0]
        ));
        assert!(Arc::ptr_eq(
            &fourth.nested(2, 0, Some(2)).unwrap().0,
            &pinned[1]
        ));
        let units_4 = t.nested(2, 0, None).unwrap().0;
        assert_eq!(
            units_4
                .get(&Value::Int(4))
                .unwrap()
                .as_set()
                .unwrap()
                .last(),
            Some(&Value::Int(n + 1))
        );

        // Each clone still shows the state it was taken at.
        assert!(first.get_by_pk(&vec![Value::Int(n)]).is_none());
        assert_eq!(first.slot_count() as i64, n);
        assert_eq!(
            second.get(middle).unwrap()[1],
            Value::text(format!("t{}", middle.0))
        );
        assert!(t.get(middle).is_none());
    }

    #[test]
    fn version_bumps_on_mutations_only() {
        let mut t = courses();
        assert_eq!(t.version(), 0);
        let r1 = t.insert(row![1i64, "A", 3i64]).unwrap();
        assert_eq!(t.version(), 1);
        t.insert(row![1i64, "B", 4i64]).unwrap_err(); // duplicate PK: no bump
        assert_eq!(t.version(), 1);
        t.update(r1, row![1i64, "A", 4i64]).unwrap();
        assert_eq!(t.version(), 2);
        assert!(t.delete(r1));
        assert_eq!(t.version(), 3);
        assert!(!t.delete(r1)); // tombstoned already: no bump
        assert_eq!(t.version(), 3);
        t.scan().count(); // reads never bump
        assert_eq!(t.version(), 3);
    }

    #[test]
    fn columnar_cache_tracks_version_and_survives_clone() {
        let mut t = courses();
        t.insert(row![1i64, "A", 3i64]).unwrap();
        t.insert(row![2i64, "B", 4i64]).unwrap();
        let c1 = t.columnar();
        assert_eq!(c1.len(), 3); // one column per schema column
        assert_eq!(c1[0].value(1), Value::Int(2));
        // Cached: same Arc while the version is unchanged.
        assert!(Arc::ptr_eq(&t.columnar(), &c1));
        // Clones keep the warm snapshot but get their own cell.
        let mut u = t.clone();
        assert!(Arc::ptr_eq(&u.columnar(), &c1));
        u.insert(row![3i64, "C", 5i64]).unwrap();
        assert_eq!(u.columnar()[0].value(2), Value::Int(3));
        assert!(Arc::ptr_eq(&t.columnar(), &c1)); // original unaffected
                                                  // Mutation invalidates: deleted row disappears from the image.
        t.delete(RowId(0));
        let c2 = t.columnar();
        assert_eq!(c2[0].value(0), Value::Int(2));
        assert_eq!(c2[1].value(0), Value::text("B"));
    }

    /// `(id, fk, key, score)` rows nested by `fk`: keys repeat under one
    /// foreign key, scores are tenths (non-dyadic, so a sum depends on its
    /// order), and both `fk` and `score` are sometimes NULL.
    fn rated() -> Table {
        let schema = Schema::qualified(
            "rated",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("fk", DataType::Int),
                Column::new("key", DataType::Int),
                Column::new("score", DataType::Float),
            ],
        );
        Table::new("rated", schema, vec![0])
    }

    /// A `rated` row from small draws: `fk` 4 and `score` 0 are NULL.
    fn rated_row(id: i64, fk: i64, key: i64, score: i64) -> Row {
        let fk = if fk == 4 { Value::Null } else { Value::Int(fk) };
        let score = if score == 0 {
            Value::Null
        } else {
            Value::float(score as f64 / 10.0)
        };
        vec![Value::Int(id), fk, Value::Int(key), score]
    }

    /// `(fk, key, rating)` column positions of a nest image.
    type Cols = (usize, usize, Option<usize>);

    /// The images of a `rated` table: Set mode, Ratings mode, and the
    /// reverse image Recommend's postings path reads (key → fks).
    const IMAGES: [Cols; 3] = [(1, 2, None), (1, 2, Some(3)), (2, 1, None)];

    /// A cold nest build over the table's live rows (the oracle for
    /// [`Table::nested`]).
    fn cold_nest(t: &Table, (fk, key, rating): Cols) -> NestMap {
        NestMap::build(
            t.scan()
                .map(|(_, r)| (r[fk].clone(), r[key].clone(), rating.map(|c| r[c].clone()))),
            rating.is_some(),
        )
        .unwrap()
    }

    /// A nest map's content by foreign key, every rating as its bits.
    fn bits(map: &NestMap) -> Vec<(Value, Vec<(Value, u64)>)> {
        let mut out: Vec<_> = map
            .iter()
            .map(|(fk, nested)| {
                let pairs = match nested {
                    Value::Set(s) => s.iter().map(|k| (k.clone(), 0)).collect(),
                    Value::Ratings(r) => r.iter().map(|(k, x)| (k.clone(), x.to_bits())).collect(),
                    other => panic!("not nested: {other}"),
                };
                (fk.clone(), pairs)
            })
            .collect();
        out.sort();
        out
    }

    /// The last images a test saw, with the version it saw them at.
    type Seen = [Option<(u64, Arc<NestMap>)>; IMAGES.len()];

    /// Each image equals a cold build bit for bit. It is the same `Arc` as
    /// the one seen before exactly when the version has not moved since,
    /// and it is served from the cache unless a write other than an insert
    /// came in between: an insert patches the image it finds current.
    fn check_nested(t: &Table, seen: &mut Seen, inserted: bool) {
        for (cols, previous) in IMAGES.into_iter().zip(seen.iter_mut()) {
            let (image, cached) = t.nested(cols.0, cols.1, cols.2).unwrap();
            let cold = cold_nest(t, cols);
            assert_eq!(bits(&image), bits(&cold), "{cols:?}");
            assert_eq!(*image, cold, "{cols:?}: sums and counts");
            if let Some((version, old)) = previous {
                let same = *version == t.version();
                assert_eq!(Arc::ptr_eq(old, &image), same);
                assert_eq!(cached, same || (inserted && *version + 1 == t.version()));
            }
            assert!(
                t.nested(cols.0, cols.1, cols.2).unwrap().1,
                "second call is served"
            );
            *previous = Some((t.version(), image));
        }
    }

    #[test]
    fn nested_rejects_columns_outside_the_schema() {
        let t = courses();
        assert!(t.nested(0, 3, None).is_err());
        assert!(t.nested(0, 1, Some(7)).is_err());
    }

    #[test]
    fn a_patch_that_fails_drops_the_image() {
        let mut t = courses();
        // Ratings over a text column: empty while every rating is NULL...
        t.insert(vec![Value::Int(1), Value::Null, Value::Int(3)])
            .unwrap();
        assert!(t.nested(2, 0, Some(1)).unwrap().0.is_empty());
        // ...and not numeric once one is not: the patch fails, the image
        // goes, and the next use reports the error a cold build does.
        t.insert(row![2i64, "B", 3i64]).unwrap();
        assert!(t.nests.0.lock().as_ref().unwrap().1.is_empty());
        assert!(t.nested(2, 0, Some(1)).is_err());
    }

    proptest! {
        /// The nest images track the table through any insert / update /
        /// delete sequence; a clone whose writes diverge and every pinned
        /// clone keep images equal to a cold build at their own version.
        #[test]
        fn nest_cache_tracks_version_and_survives_clone(
            ops in proptest::collection::vec((0u8..8, 0i64..5, 0i64..4, 0i64..30), 1..60),
            fork_at in 0usize..60,
        ) {
            let mut t = rated();
            let mut fork: Option<(Table, Seen)> = None;
            let mut pins: Vec<(Table, Vec<Arc<NestMap>>)> = Vec::new();
            let mut seen: Seen = Default::default();
            let mut next_id = 0i64;
            for (i, (op, fk, key, score)) in ops.into_iter().enumerate() {
                if i == fork_at {
                    // The clone starts from the warm images...
                    let u = t.clone();
                    for ((fk, key, r), s) in IMAGES.into_iter().zip(&seen) {
                        if let Some((_, image)) = s {
                            prop_assert!(Arc::ptr_eq(&u.nested(fk, key, r).unwrap().0, image));
                        }
                    }
                    fork = Some((u, seen.clone()));
                }
                let victim = t.scan().nth((key * 5 + score) as usize % 7).map(|(rid, _)| rid);
                let inserted = match (op, victim) {
                    (0, Some(rid)) => {
                        t.delete(rid);
                        false
                    }
                    (1, Some(rid)) => {
                        let id = t.get(rid).unwrap()[0].as_int().unwrap();
                        t.update(rid, rated_row(id, fk, key, score)).unwrap();
                        false
                    }
                    // Reads (and misses) leave the version alone.
                    (2, _) => false,
                    (3, _) => {
                        let images = IMAGES.map(|(fk, key, r)| t.nested(fk, key, r).unwrap().0);
                        pins.push((t.clone(), images.to_vec()));
                        false
                    }
                    _ => {
                        next_id += 1;
                        t.insert(rated_row(next_id, fk, key, score)).unwrap();
                        true
                    }
                };
                check_nested(&t, &mut seen, inserted);
                // ...and diverges on its own writes without disturbing,
                // or being disturbed by, the original.
                if let Some((u, u_seen)) = &mut fork {
                    let write = i % 2 == 0;
                    if write {
                        next_id += 1;
                        u.insert(rated_row(next_id, fk, key, score)).unwrap();
                    }
                    check_nested(u, u_seen, write);
                }
                // A pinned clone keeps the images it was pinned with.
                for (pin, images) in &pins {
                    for (cols, pinned) in IMAGES.into_iter().zip(images) {
                        let (image, cached) = pin.nested(cols.0, cols.1, cols.2).unwrap();
                        prop_assert!(cached && Arc::ptr_eq(&image, pinned));
                        prop_assert_eq!(bits(&image), bits(&cold_nest(pin, cols)));
                    }
                }
            }
        }

        /// Index contents always agree with a full scan, under arbitrary
        /// insert/delete interleavings.
        #[test]
        fn index_scan_consistency(ops in proptest::collection::vec((0i64..50, any::<bool>()), 1..100)) {
            let mut t = courses();
            t.create_index("by_units", vec![2], IndexKind::Hash, false).unwrap();
            let mut next_id = 0i64;
            for (units, is_insert) in ops {
                if is_insert {
                    next_id += 1;
                    t.insert(row![next_id, "t", units]).unwrap();
                } else {
                    let rid = t.scan().next().map(|(rid, _)| rid);
                    if let Some(rid) = rid {
                        t.delete(rid);
                    }
                }
            }
            // For every live row, the index on units must contain its rid.
            let idx = t.index("by_units").unwrap();
            let mut via_index = 0usize;
            for (rid, r) in t.scan() {
                let key = vec![r[2].clone()];
                let ids = idx.get(&key).unwrap_or(&[]);
                prop_assert!(ids.contains(&rid));
                via_index += 1;
            }
            prop_assert_eq!(via_index, t.len());
            prop_assert_eq!(idx.entries(), t.len());
        }
    }

    /// The model the chunked table is checked against: the plain slot
    /// array and primary-key map the table's chunks and shards stand for.
    #[derive(Clone, Default)]
    struct Model {
        slots: Vec<Option<Row>>,
        pk: HashMap<i64, RowId>,
    }

    impl Model {
        fn live(&self) -> impl Iterator<Item = (RowId, &Row)> + '_ {
            self.slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|r| (RowId(i as u64), r)))
        }

        fn id(row: &Row) -> i64 {
            row[0].as_int().unwrap()
        }

        /// Is `title` held by a live row other than `except`?
        fn title_taken(&self, title: &Value, except: Option<RowId>) -> bool {
            self.live()
                .any(|(rid, r)| r[1] == *title && Some(rid) != except)
        }

        fn put(&mut self, rid: RowId, row: Option<Row>) {
            let slot = rid.0 as usize;
            if self.slots.len() <= slot {
                self.slots.resize(slot + 1, None);
            }
            if let Some(old) = self.slots[slot].take() {
                self.pk.remove(&Self::id(&old));
            }
            if let Some(new) = &row {
                self.pk.insert(Self::id(new), rid);
            }
            self.slots[slot] = row;
        }
    }

    /// `courses` with a unique hash index on title, a hash index on units
    /// and a B-tree on units.
    fn indexed_courses() -> Table {
        let mut t = courses();
        add_indexes(&mut t);
        t
    }

    fn add_indexes(t: &mut Table) {
        t.create_index("by_title", vec![1], IndexKind::Hash, true)
            .unwrap();
        t.create_index("by_units", vec![2], IndexKind::Hash, false)
            .unwrap();
        t.create_index("units_tree", vec![2], IndexKind::BTree, false)
            .unwrap();
    }

    const UNITS: i64 = 7;

    fn sorted(mut rids: Vec<RowId>) -> Vec<RowId> {
        rids.sort();
        rids
    }

    /// Everything a reader can observe of `t` equals the model.
    fn check_model(t: &Table, m: &Model) {
        let want: Vec<(RowId, &Row)> = m.live().collect();
        assert_eq!(t.slot_count(), m.slots.len());
        assert_eq!(t.len(), want.len());
        assert_eq!(t.scan().collect::<Vec<_>>(), want, "scan, in row-id order");
        for (i, slot) in m.slots.iter().enumerate() {
            assert_eq!(t.get(RowId(i as u64)), slot.as_ref());
        }
        assert!(t.get(RowId(m.slots.len() as u64)).is_none());
        for (&id, &rid) in &m.pk {
            assert_eq!(t.rowid_by_pk(&vec![Value::Int(id)]), Some(rid));
        }
        assert!(t.get_by_pk(&vec![Value::Int(-1)]).is_none());
        let (by_title, by_units, tree) = (
            t.index("by_title").unwrap(),
            t.index("by_units").unwrap(),
            t.index("units_tree").unwrap(),
        );
        for (rid, r) in &want {
            assert_eq!(by_title.get(&vec![r[1].clone()]), Some(&[*rid][..]));
        }
        for units in 0..UNITS {
            let key = vec![Value::Int(units)];
            let rids: Vec<RowId> = want
                .iter()
                .filter(|(_, r)| r[2] == Value::Int(units))
                .map(|(rid, _)| *rid)
                .collect();
            assert_eq!(sorted(by_units.get(&key).unwrap_or(&[]).to_vec()), rids);
            assert_eq!(sorted(tree.get(&key).unwrap_or(&[]).to_vec()), rids);
        }
        let (lo, hi) = (vec![Value::Int(2)], vec![Value::Int(5)]);
        let in_range: Vec<RowId> = want
            .iter()
            .filter(|(_, r)| (Value::Int(2)..Value::Int(5)).contains(&r[2]))
            .map(|(rid, _)| *rid)
            .collect();
        let got = tree
            .range(Bound::Included(&lo), Bound::Excluded(&hi))
            .collect();
        assert_eq!(sorted(got), in_range);
        for idx in t.indexes() {
            assert_eq!(idx.entries(), want.len(), "{}", idx.name);
        }
        assert_eq!(by_title.distinct_keys(), want.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The chunked, sharded table behaves as a plain slot array plus
        /// maps under insert / update / delete / replay, across chunk
        /// boundaries, tombstones and replays past the end; every clone
        /// keeps exactly the state it was taken at while the original
        /// moves on; and the live table equals a rebuild of its slots.
        #[test]
        fn chunked_table_matches_the_slot_array_model(
            ops in proptest::collection::vec((0u8..8, 0usize..4096, 0i64..4096), 40..120),
        ) {
            let mut t = indexed_courses();
            let mut m = Model::default();
            let mut clones: Vec<(Table, Model)> = Vec::new();
            let mut next_id = 0i64;
            let mut fresh = |units: i64| {
                next_id += 1;
                row![next_id, format!("t{next_id}"), units % UNITS]
            };
            // Open with two full chunks, so every run crosses at least
            // two chunk boundaries before the random operations start.
            for i in 0..2 * CHUNK_ROWS as i64 + 1 {
                let r = fresh(i);
                let rid = t.insert(r.clone()).unwrap();
                m.put(rid, Some(r));
            }
            for (op, pick, b) in ops {
                let slots = m.slots.len();
                let rid = RowId((pick % slots) as u64);
                let live = m.slots[rid.0 as usize].clone();
                match op {
                    // A burst of inserts.
                    0 | 1 => {
                        for units in 0..=b % 40 {
                            let r = fresh(units);
                            let got = t.insert(r.clone()).unwrap();
                            prop_assert_eq!(got, RowId(m.slots.len() as u64));
                            m.put(got, Some(r));
                        }
                    }
                    // Update: maybe to a taken id or title, which must be
                    // rejected with the table unchanged.
                    2 => {
                        let Some(old) = live else {
                            prop_assert!(t.update(rid, row![1i64, "x", 0i64]).is_err());
                            continue;
                        };
                        let id = if b % 3 == 0 { b % 64 + 1 } else { Model::id(&old) };
                        let title = Value::text(format!("t{}", b % 97));
                        let new = vec![Value::Int(id), title.clone(), Value::Int(b % UNITS)];
                        let pk_taken = id != Model::id(&old) && m.pk.contains_key(&id);
                        let expect_err = pk_taken || m.title_taken(&title, Some(rid));
                        let got = t.update(rid, new.clone());
                        prop_assert_eq!(got.is_err(), expect_err);
                        if expect_err {
                            prop_assert!(matches!(got, Err(RelError::DuplicateKey(_))));
                        } else {
                            m.put(rid, Some(new));
                        }
                    }
                    // Delete (tombstones; out of range and dead are no-ops).
                    3 => {
                        let rid = RowId((pick % (slots + 2)) as u64);
                        let was_live = m.slots.get(rid.0 as usize).is_some_and(Option::is_some);
                        prop_assert_eq!(t.delete(rid), was_live);
                        if was_live {
                            m.put(rid, None);
                        }
                    }
                    // Replay an insert, often past the end.
                    4 => {
                        let rid = if b % 2 == 0 { RowId((slots + pick % 700) as u64) } else { rid };
                        let r = fresh(b);
                        t.replay_insert(rid, r.clone()).unwrap();
                        if m.slots.get(rid.0 as usize).is_none_or(Option::is_none) {
                            m.put(rid, Some(r));
                        }
                    }
                    5 => {
                        let r = fresh(b);
                        let got = t.replay_update(rid, r.clone());
                        prop_assert_eq!(got.is_ok(), live.is_some());
                        if live.is_some() {
                            m.put(rid, Some(r));
                        }
                    }
                    6 => {
                        t.replay_delete(rid);
                        m.put(rid, None);
                    }
                    _ => clones.push((t.clone(), m.clone())),
                }
            }
            check_model(&t, &m);
            for (clone, model) in &clones {
                check_model(clone, model);
            }
            let slots = (0..t.slot_count()).map(|i| t.get(RowId(i as u64)).cloned()).collect();
            let mut rebuilt = Table::restore("courses", t.schema().clone(), vec![0], slots, t.version());
            add_indexes(&mut rebuilt);
            check_model(&rebuilt, &m);
            prop_assert_eq!(rebuilt.version(), t.version());
        }
    }
}
