//! Secondary indexes, and the sharded copy-on-write map behind them.
//!
//! Two physical forms are provided:
//!
//! * [`IndexKind::Hash`] — equality lookups (`WHERE course_id = ?`), the
//!   workhorse for FlexRecs' compiled joins;
//! * [`IndexKind::BTree`] — equality plus range scans (`WHERE year >= 2008`),
//!   used by the planner/requirements services for term-range queries.
//!
//! Both map a (possibly composite) key — a `Vec<Value>` over the indexed
//! columns — to the set of matching [`RowId`]s. Indexes are maintained
//! eagerly by [`crate::table::Table`] on insert/update/delete.
//!
//! ## Copy-on-write
//!
//! A table image is shared by the live catalog and every snapshot that
//! pins it, so a write made while a pin is live must leave the pinned
//! image as it was (see [`crate::table`]). The unit a write copies is a
//! shard: a `ShardMap` — every table's primary-key map and every hash
//! index — is a fixed array of 256 `Arc`'d hash maps, a key's shard
//! picked by its hash. Cloning one copies the shard pointers; a mutation
//! copies only the shard its key lands in, and only while a clone still
//! shares it.
//! The B-tree form is one `Arc`'d map, copied whole by the first write
//! after a clone: nothing in production creates one (CourseRank's
//! indexes are all hash), so it is not sharded.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use crate::keys::{avalanche, values_hash};
use crate::row::{Row, RowId};
use crate::value::Value;

/// Composite index key.
pub type IndexKey = Vec<Value>;

/// log2 of the number of shards in a [`ShardMap`].
const SHARD_BITS: u32 = 8;
const SHARDS: usize = 1 << SHARD_BITS;

/// A hash map from [`IndexKey`] split by key hash into [`SHARDS`]
/// `Arc`'d shards (module docs: copy-on-write). Cloning is `SHARDS`
/// pointer copies; [`ShardMap::insert`] and friends unshare only the
/// shard their key lands in, and a lookup or a removal of an absent key
/// unshares nothing.
#[derive(Debug, Clone)]
pub(crate) struct ShardMap<V> {
    shards: Box<[Arc<HashMap<IndexKey, V>>; SHARDS]>,
}

impl<V> Default for ShardMap<V> {
    fn default() -> Self {
        // Every shard starts as the same empty map; the first write to a
        // shard gives it its own.
        let empty = Arc::new(HashMap::new());
        ShardMap {
            shards: Box::new(std::array::from_fn(|_| Arc::clone(&empty))),
        }
    }
}

impl<V: Clone> ShardMap<V> {
    /// The shard `key` lands in: the top bits of its avalanched hash.
    #[inline]
    fn shard_of(key: &[Value]) -> usize {
        (avalanche(values_hash(key)) >> (64 - SHARD_BITS)) as usize
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    pub(crate) fn get(&self, key: &[Value]) -> Option<&V> {
        self.shards[Self::shard_of(key)].get(key)
    }

    pub(crate) fn insert(&mut self, key: IndexKey, value: V) -> Option<V> {
        Arc::make_mut(&mut self.shards[Self::shard_of(&key)]).insert(key, value)
    }

    /// The value at `key`, a default one inserted first if absent.
    pub(crate) fn get_or_default(&mut self, key: IndexKey) -> &mut V
    where
        V: Default,
    {
        Arc::make_mut(&mut self.shards[Self::shard_of(&key)])
            .entry(key)
            .or_default()
    }

    pub(crate) fn get_mut(&mut self, key: &[Value]) -> Option<&mut V> {
        let shard = &mut self.shards[Self::shard_of(key)];
        if !shard.contains_key(key) {
            return None;
        }
        Arc::make_mut(shard).get_mut(key)
    }

    pub(crate) fn remove(&mut self, key: &[Value]) -> Option<V> {
        let shard = &mut self.shards[Self::shard_of(key)];
        if !shard.contains_key(key) {
            return None;
        }
        Arc::make_mut(shard).remove(key)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.shards.iter().flat_map(|s| s.values())
    }

    /// Every entry, shard by shard (no particular order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&IndexKey, &V)> {
        self.shards.iter().flat_map(|s| s.iter())
    }

    /// The shard pointers, in shard order (structural-sharing tests).
    #[cfg(test)]
    pub(crate) fn shard_ptrs(&self) -> Vec<*const ()> {
        self.shards
            .iter()
            .map(|s| Arc::as_ptr(s).cast::<()>())
            .collect()
    }
}

/// Which physical structure backs an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    Hash,
    BTree,
}

/// A secondary index over one or more columns of a table.
#[derive(Debug, Clone)]
pub struct Index {
    pub name: String,
    /// Column positions (in the owning table's schema) forming the key.
    pub columns: Vec<usize>,
    pub unique: bool,
    storage: IndexStorage,
}

#[derive(Debug, Clone)]
enum IndexStorage {
    Hash(ShardMap<Vec<RowId>>),
    /// One `Arc`'d map, copied whole by the first write after a clone
    /// (module docs: copy-on-write).
    BTree(Arc<BTreeMap<IndexKey, Vec<RowId>>>),
}

/// Drop `rid` from a key's bucket; true when the bucket is left empty.
fn remove_rid(ids: &mut Vec<RowId>, rid: RowId) -> bool {
    ids.retain(|&r| r != rid);
    ids.is_empty()
}

impl Index {
    pub fn new(
        name: impl Into<String>,
        columns: Vec<usize>,
        kind: IndexKind,
        unique: bool,
    ) -> Self {
        let storage = match kind {
            IndexKind::Hash => IndexStorage::Hash(ShardMap::default()),
            IndexKind::BTree => IndexStorage::BTree(Arc::default()),
        };
        Index {
            name: name.into(),
            columns,
            unique,
            storage,
        }
    }

    pub fn kind(&self) -> IndexKind {
        match self.storage {
            IndexStorage::Hash(_) => IndexKind::Hash,
            IndexStorage::BTree(_) => IndexKind::BTree,
        }
    }

    /// Extract this index's key from a full row.
    pub fn key_of(&self, row: &Row) -> IndexKey {
        self.columns.iter().map(|&i| row[i].clone()).collect()
    }

    /// True if `key` is taken under a unique constraint by a row other
    /// than `except` (a row being updated does not conflict with itself).
    pub(crate) fn conflicts_except(&self, key: &[Value], except: Option<RowId>) -> bool {
        self.unique
            && self
                .lookup(key)
                .is_some_and(|ids| ids.iter().any(|&r| Some(r) != except))
    }

    /// Insert an entry.
    pub fn insert(&mut self, key: IndexKey, rid: RowId) {
        match &mut self.storage {
            IndexStorage::Hash(m) => m.get_or_default(key).push(rid),
            IndexStorage::BTree(m) => Arc::make_mut(m).entry(key).or_default().push(rid),
        }
    }

    /// Remove an entry (no-op if absent).
    pub fn remove(&mut self, key: &IndexKey, rid: RowId) {
        match &mut self.storage {
            IndexStorage::Hash(m) => {
                if m.get_mut(key).is_some_and(|ids| remove_rid(ids, rid)) {
                    m.remove(key);
                }
            }
            IndexStorage::BTree(m) => {
                if !m.contains_key(key) {
                    return;
                }
                let m = Arc::make_mut(m);
                if m.get_mut(key).is_some_and(|ids| remove_rid(ids, rid)) {
                    m.remove(key);
                }
            }
        }
    }

    /// Equality lookup.
    pub fn get(&self, key: &IndexKey) -> Option<&[RowId]> {
        self.lookup(key)
    }

    fn lookup(&self, key: &[Value]) -> Option<&[RowId]> {
        match &self.storage {
            IndexStorage::Hash(m) => m.get(key).map(|v| v.as_slice()),
            IndexStorage::BTree(m) => m.get(key).map(|v| v.as_slice()),
        }
    }

    /// Range scan (BTree only; yields nothing for hash indexes, nor for
    /// an empty interval such as `> 5 AND < 2` or `> 3 AND < 3`).
    ///
    /// Returns a lazy [`RangeIds`] iterator over the matching row ids, so
    /// the executor's access path streams ids straight off the tree
    /// instead of allocating a fresh `Vec<RowId>` per lookup.
    pub fn range<'a>(&'a self, lower: Bound<&IndexKey>, upper: Bound<&IndexKey>) -> RangeIds<'a> {
        // `BTreeMap::range` panics on these instead of yielding nothing.
        let empty = match (lower, upper) {
            (Bound::Included(lo), Bound::Included(hi)) => lo > hi,
            (
                Bound::Included(lo) | Bound::Excluded(lo),
                Bound::Included(hi) | Bound::Excluded(hi),
            ) => lo >= hi,
            _ => false,
        };
        let buckets = match &self.storage {
            IndexStorage::BTree(m) if !empty => Some(m.range::<IndexKey, _>((lower, upper))),
            _ => None,
        };
        RangeIds {
            buckets,
            bucket: [].iter(),
        }
    }

    /// Number of distinct keys (used by the optimizer's selectivity guess).
    pub fn distinct_keys(&self) -> usize {
        match &self.storage {
            IndexStorage::Hash(m) => m.len(),
            IndexStorage::BTree(m) => m.len(),
        }
    }

    /// Total entries across all keys.
    pub fn entries(&self) -> usize {
        match &self.storage {
            IndexStorage::Hash(m) => m.values().map(Vec::len).sum(),
            IndexStorage::BTree(m) => m.values().map(Vec::len).sum(),
        }
    }

    /// The `Arc`'d parts of the storage, in a fixed order
    /// (structural-sharing tests).
    #[cfg(test)]
    pub(crate) fn cow_parts(&self) -> Vec<*const ()> {
        match &self.storage {
            IndexStorage::Hash(m) => m.shard_ptrs(),
            IndexStorage::BTree(m) => vec![Arc::as_ptr(m).cast::<()>()],
        }
    }
}

/// Lazy row-id stream produced by [`Index::range`]: walks the BTree's
/// key buckets in key order, yielding each bucket's ids in insertion
/// order. `buckets` is `None` for hash indexes (always empty).
pub struct RangeIds<'a> {
    buckets: Option<std::collections::btree_map::Range<'a, IndexKey, Vec<RowId>>>,
    bucket: std::slice::Iter<'a, RowId>,
}

impl<'a> Iterator for RangeIds<'a> {
    type Item = RowId;

    fn next(&mut self) -> Option<RowId> {
        loop {
            if let Some(&rid) = self.bucket.next() {
                return Some(rid);
            }
            let (_, ids) = self.buckets.as_mut()?.next()?;
            self.bucket = ids.iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: i64) -> IndexKey {
        vec![Value::Int(v)]
    }

    #[test]
    fn hash_index_insert_get_remove() {
        let mut idx = Index::new("i", vec![0], IndexKind::Hash, false);
        idx.insert(key(1), RowId(10));
        idx.insert(key(1), RowId(11));
        idx.insert(key(2), RowId(12));
        assert_eq!(idx.get(&key(1)).unwrap(), &[RowId(10), RowId(11)]);
        assert_eq!(idx.entries(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        idx.remove(&key(1), RowId(10));
        assert_eq!(idx.get(&key(1)).unwrap(), &[RowId(11)]);
        idx.remove(&key(1), RowId(11));
        assert!(idx.get(&key(1)).is_none());
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn btree_range_scan() {
        let mut idx = Index::new("i", vec![0], IndexKind::BTree, false);
        for v in 0..10 {
            idx.insert(key(v), RowId(v as u64));
        }
        let got: Vec<RowId> = idx
            .range(Bound::Included(&key(3)), Bound::Excluded(&key(7)))
            .collect();
        assert_eq!(got, vec![RowId(3), RowId(4), RowId(5), RowId(6)]);
        // Empty intervals (inverted, or equal with a bound excluded)
        // yield nothing rather than panic.
        let (two, three) = (key(2), key(3));
        for (lower, upper) in [
            (Bound::Excluded(&three), Bound::Excluded(&two)),
            (Bound::Included(&three), Bound::Included(&two)),
            (Bound::Excluded(&three), Bound::Excluded(&three)),
            (Bound::Excluded(&three), Bound::Included(&three)),
            (Bound::Included(&three), Bound::Excluded(&three)),
        ] {
            assert_eq!(idx.range(lower, upper).next(), None);
        }
        let point: Vec<RowId> = idx
            .range(Bound::Included(&three), Bound::Included(&three))
            .collect();
        assert_eq!(point, vec![RowId(3)]);
    }

    #[test]
    fn btree_range_streams_multi_id_buckets() {
        let mut idx = Index::new("i", vec![0], IndexKind::BTree, false);
        idx.insert(key(1), RowId(10));
        idx.insert(key(1), RowId(11));
        idx.insert(key(2), RowId(12));
        let got: Vec<RowId> = idx.range(Bound::Unbounded, Bound::Unbounded).collect();
        assert_eq!(got, vec![RowId(10), RowId(11), RowId(12)]);
    }

    #[test]
    fn hash_range_is_empty() {
        let mut idx = Index::new("i", vec![0], IndexKind::Hash, false);
        idx.insert(key(1), RowId(1));
        assert!(idx
            .range(Bound::Unbounded, Bound::Unbounded)
            .next()
            .is_none());
    }

    #[test]
    fn unique_conflict_detection() {
        let mut idx = Index::new("u", vec![0], IndexKind::Hash, true);
        idx.insert(key(1), RowId(1));
        assert!(idx.conflicts_except(&key(1), None));
        assert!(!idx.conflicts_except(&key(2), None));
        // A row never conflicts with its own entry.
        assert!(!idx.conflicts_except(&key(1), Some(RowId(1))));
        assert!(idx.conflicts_except(&key(1), Some(RowId(2))));
    }

    #[test]
    fn composite_keys() {
        let mut idx = Index::new("c", vec![0, 2], IndexKind::BTree, false);
        let row: Row = vec![Value::Int(1), Value::text("x"), Value::Int(2008)];
        let k = idx.key_of(&row);
        assert_eq!(k, vec![Value::Int(1), Value::Int(2008)]);
        idx.insert(k.clone(), RowId(5));
        assert_eq!(idx.get(&k).unwrap(), &[RowId(5)]);
    }

    #[test]
    fn equal_keys_of_different_types_share_a_shard() {
        // Int 3 and Float 3.0 are one key (`Value`'s equality), so they
        // must land in the same shard to find each other.
        let mut idx = Index::new("i", vec![0], IndexKind::Hash, false);
        idx.insert(vec![Value::Int(3)], RowId(1));
        assert_eq!(idx.get(&vec![Value::Float(3.0)]).unwrap(), &[RowId(1)]);
    }

    #[test]
    fn a_write_after_a_clone_copies_one_shard() {
        let mut m: ShardMap<RowId> = ShardMap::default();
        for v in 0..1000 {
            m.insert(key(v), RowId(v as u64));
        }
        let pinned = m.clone();
        assert_eq!(m.shard_ptrs(), pinned.shard_ptrs());
        m.insert(key(5000), RowId(5000));
        let moved = |a: &ShardMap<RowId>, b: &ShardMap<RowId>| {
            a.shard_ptrs()
                .iter()
                .zip(b.shard_ptrs())
                .filter(|(x, y)| **x != *y)
                .count()
        };
        assert_eq!(moved(&m, &pinned), 1);
        // Reads and removals of absent keys unshare nothing.
        let before = m.clone();
        assert!(m.remove(&key(-1)).is_none());
        assert!(m.get_mut(&key(-1)).is_none());
        assert_eq!(moved(&m, &before), 0);
        assert_eq!((m.len(), pinned.len()), (1001, 1000));
        assert!(pinned.get(&key(5000)).is_none());
    }
}
