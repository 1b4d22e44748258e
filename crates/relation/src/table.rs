//! Row-oriented table storage.
//!
//! A [`Table`] owns its rows (a `Vec<Option<Row>>` slot array — `None` is a
//! tombstone left by DELETE), a primary-key index, and any number of
//! secondary [`Index`]es which are maintained eagerly on every mutation.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::batch::{Column as BatchColumn, ColumnBuilder};
use crate::error::{RelError, RelResult};
use crate::index::{Index, IndexKey, IndexKind};
use crate::mutation::{Mutation, MutationObserver, ObserverSlot};
use crate::nest::{build_nest_map_core, NestMap};
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

/// The nest images built at one version, by `(fk, key, rating)` column
/// positions (see [`Table::nested`]). A table is nested by one or two
/// column triples in practice, so a scan of a short vector.
type NestImages = Vec<((usize, usize, Option<usize>), Arc<NestMap>)>;

/// An in-memory table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Slot array; index == RowId.0. Tombstoned slots are `None`.
    rows: Vec<Option<Row>>,
    /// Live-row count (excludes tombstones).
    live: usize,
    /// Positions of the primary-key columns (may be empty: no PK).
    pk_columns: Vec<usize>,
    /// PK value → RowId.
    pk_index: HashMap<IndexKey, RowId>,
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
            rows: Vec::new(),
            live: 0,
            pk_columns,
            pk_index: HashMap::new(),
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
        let mut table = Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            live: 0,
            pk_columns,
            pk_index: HashMap::new(),
            indexes: Vec::new(),
            version,
            observer: ObserverSlot::default(),
            columnar: Versioned::default(),
            nests: Versioned::default(),
        };
        for (i, slot) in slots.iter().enumerate() {
            if let Some(row) = slot {
                table.live += 1;
                if let Some(key) = table.pk_key(row) {
                    table.pk_index.insert(key, RowId(i as u64));
                }
            }
        }
        table.rows = slots;
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

    /// Insert a row (validated and coerced against the schema).
    /// Returns the new row's id.
    pub fn insert(&mut self, row: Row) -> RelResult<RowId> {
        let row = self.schema.validate_row(row)?;
        if let Some(key) = self.pk_key(&row) {
            if key.iter().any(Value::is_null) {
                return Err(RelError::NullViolation("primary key".into()));
            }
            if self.pk_index.contains_key(&key) {
                return Err(RelError::DuplicateKey(format!(
                    "{}({})",
                    self.name,
                    key.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                )));
            }
        }
        for idx in &self.indexes {
            if idx.unique {
                let key = idx.key_of(&row);
                if idx.would_conflict(&key) {
                    return Err(RelError::DuplicateKey(format!(
                        "{}:{}",
                        self.name, idx.name
                    )));
                }
            }
        }
        let rid = RowId(self.rows.len() as u64);
        if let Some(key) = self.pk_key(&row) {
            self.pk_index.insert(key, rid);
        }
        for idx in &mut self.indexes {
            let key = idx.key_of(&row);
            idx.insert(key, rid);
        }
        self.rows.push(Some(row));
        self.live += 1;
        self.version += 1;
        if self.observer.get().is_some() {
            let row = self.rows[rid.0 as usize].as_ref().expect("just inserted");
            self.emit(&Mutation::Insert {
                rid,
                row,
                version: self.version,
            });
        }
        Ok(rid)
    }

    /// Fetch a row by id (None if tombstoned or out of range).
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.rows.get(rid.0 as usize).and_then(Option::as_ref)
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
        let slot = match self.rows.get_mut(rid.0 as usize) {
            Some(s) => s,
            None => return false,
        };
        let Some(row) = slot.take() else {
            return false;
        };
        if let Some(key) = self.pk_key(&row) {
            self.pk_index.remove(&key);
        }
        for idx in &mut self.indexes {
            let key = idx.key_of(&row);
            idx.remove(&key, rid);
        }
        self.live -= 1;
        self.version += 1;
        self.emit(&Mutation::Delete {
            rid,
            row: &row,
            version: self.version,
        });
        true
    }

    /// Replace the row at `rid` with `new_row` (validated). Indexes are
    /// updated. Errors restore nothing — callers treat errors as aborts on
    /// a single-row basis (the engine has no multi-statement transactions).
    pub fn update(&mut self, rid: RowId, new_row: Row) -> RelResult<()> {
        let new_row = self.schema.validate_row(new_row)?;
        let old_row = self
            .get(rid)
            .cloned()
            .ok_or_else(|| RelError::Invalid(format!("no row {rid:?} in {}", self.name)))?;
        // PK change: check uniqueness against *other* rows.
        if let (Some(old_key), Some(new_key)) = (self.pk_key(&old_row), self.pk_key(&new_row)) {
            if old_key != new_key {
                if self.pk_index.contains_key(&new_key) {
                    return Err(RelError::DuplicateKey(self.name.clone()));
                }
                self.pk_index.remove(&old_key);
                self.pk_index.insert(new_key, rid);
            }
        }
        for idx in &mut self.indexes {
            let old_key = idx.key_of(&old_row);
            let new_key = idx.key_of(&new_row);
            if old_key != new_key {
                idx.remove(&old_key, rid);
                idx.insert(new_key, rid);
            }
        }
        self.rows[rid.0 as usize] = Some(new_row);
        self.version += 1;
        if self.observer.get().is_some() {
            let row = self.rows[rid.0 as usize].as_ref().expect("just updated");
            self.emit(&Mutation::Update {
                rid,
                row,
                old_row: &old_row,
                version: self.version,
            });
        }
        Ok(())
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
        if slot >= self.rows.len() {
            self.rows.resize(slot + 1, None);
        }
        if self.rows[slot].is_some() {
            return Ok(()); // already reflected by the snapshot
        }
        if let Some(key) = self.pk_key(&row) {
            self.pk_index.insert(key, rid);
        }
        for idx in &mut self.indexes {
            let key = idx.key_of(&row);
            idx.insert(key, rid);
        }
        self.rows[slot] = Some(row);
        self.live += 1;
        self.version += 1;
        Ok(())
    }

    /// Re-apply a logged update (replace the row image at `rid`).
    pub fn replay_update(&mut self, rid: RowId, new_row: Row) -> RelResult<()> {
        let Some(old_row) = self.get(rid).cloned() else {
            return Err(RelError::Invalid(format!(
                "replay: no row {rid:?} in {}",
                self.name
            )));
        };
        if let (Some(old_key), Some(new_key)) = (self.pk_key(&old_row), self.pk_key(&new_row)) {
            if old_key != new_key {
                self.pk_index.remove(&old_key);
                self.pk_index.insert(new_key, rid);
            }
        }
        for idx in &mut self.indexes {
            let old_key = idx.key_of(&old_row);
            let new_key = idx.key_of(&new_row);
            if old_key != new_key {
                idx.remove(&old_key, rid);
                idx.insert(new_key, rid);
            }
        }
        self.rows[rid.0 as usize] = Some(new_row);
        self.version += 1;
        Ok(())
    }

    /// Re-apply a logged delete (no-op if the slot is already empty).
    pub fn replay_delete(&mut self, rid: RowId) {
        let Some(slot) = self.rows.get_mut(rid.0 as usize) else {
            return;
        };
        let Some(row) = slot.take() else {
            return;
        };
        if let Some(key) = self.pk_key(&row) {
            self.pk_index.remove(&key);
        }
        for idx in &mut self.indexes {
            let key = idx.key_of(&row);
            idx.remove(&key, rid);
        }
        self.live -= 1;
        self.version += 1;
    }

    /// Iterate live rows with their ids.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|r| (RowId(i as u64), r)))
    }

    /// Number of physical slots (live rows + tombstones).
    pub fn slot_count(&self) -> usize {
        self.rows.len()
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
        for (rid, row) in self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (RowId(i as u64), r)))
        {
            let key = idx.key_of(row);
            if idx.would_conflict(&key) {
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
                b.push(v.clone());
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
    /// [`build_nest_map_core`], fed in [`Table::scan`] order). Same life
    /// cycle as [`Table::columnar`]: built on first call after a mutation,
    /// cached against [`Table::version`], `Arc`-shared into clones;
    /// concurrent first calls may both build, the result is identical
    /// either way. The flag is `true` when the image came from the cache.
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
        let built = Arc::new(build_nest_map_core(
            self.scan().map(|(_, r)| {
                (
                    r[fk_col].clone(),
                    r[key_col].clone(),
                    rating_col.map(|c| r[c].clone()),
                )
            }),
            rating_col.is_some(),
        )?);
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
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// A fresh nest build over the table's live rows (the oracle for
    /// [`Table::nested`]).
    fn fresh_nest(t: &Table, rating: bool) -> NestMap {
        build_nest_map_core(
            t.scan()
                .map(|(_, r)| (r[2].clone(), r[0].clone(), rating.then(|| r[2].clone()))),
            rating,
        )
        .unwrap()
    }

    /// The last image a test saw, with the version it saw it at.
    type Seen = Option<(u64, Arc<NestMap>)>;

    /// `nested` equals a fresh build and is the same `Arc` as `previous`
    /// exactly when the version has not moved since.
    fn check_nested(t: &Table, previous: &mut Seen) {
        let (image, cached) = t.nested(2, 0, None).unwrap();
        assert_eq!(*image, fresh_nest(t, false));
        assert_eq!(*t.nested(2, 0, Some(2)).unwrap().0, fresh_nest(t, true));
        if let Some((version, old)) = previous {
            assert_eq!(Arc::ptr_eq(old, &image), *version == t.version());
            assert_eq!(cached, *version == t.version());
        }
        assert!(t.nested(2, 0, None).unwrap().1, "second call is served");
        *previous = Some((t.version(), image));
    }

    #[test]
    fn nested_rejects_columns_outside_the_schema() {
        let t = courses();
        assert!(t.nested(0, 3, None).is_err());
        assert!(t.nested(0, 1, Some(7)).is_err());
    }

    proptest! {
        /// The nest image tracks the table through any insert / update /
        /// delete sequence, and through a clone whose writes diverge.
        #[test]
        fn nest_cache_tracks_version_and_survives_clone(
            ops in proptest::collection::vec((0u8..4, 0i64..6, 0usize..8), 1..40),
            fork_at in 0usize..40,
        ) {
            let mut t = courses();
            let mut fork: Option<(Table, Seen)> = None;
            let mut seen: Seen = None;
            let mut next_id = 0i64;
            for (i, (op, units, pick)) in ops.into_iter().enumerate() {
                if i == fork_at {
                    // The clone starts from the warm image...
                    let u = t.clone();
                    if let Some((_, image)) = &seen {
                        prop_assert!(Arc::ptr_eq(&u.nested(2, 0, None).unwrap().0, image));
                    }
                    fork = Some((u, seen.clone()));
                }
                let victim = t.scan().nth(pick).map(|(rid, _)| rid);
                match (op, victim) {
                    (0, Some(rid)) => {
                        t.delete(rid);
                    }
                    (1, Some(rid)) => {
                        let id = t.get(rid).unwrap()[0].clone();
                        t.update(rid, vec![id, Value::text("u"), Value::Int(units)]).unwrap();
                    }
                    // Reads (and misses) leave the version alone.
                    (2, _) => {}
                    _ => {
                        next_id += 1;
                        t.insert(row![next_id, "t", units]).unwrap();
                    }
                }
                check_nested(&t, &mut seen);
                // ...and diverges on its own writes without disturbing,
                // or being disturbed by, the original.
                if let Some((u, u_seen)) = &mut fork {
                    if i % 2 == 0 {
                        next_id += 1;
                        u.insert(row![next_id, "fork", units]).unwrap();
                    }
                    check_nested(u, u_seen);
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
}
