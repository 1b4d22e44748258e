//! The nest image behind the FlexRecs ε-extend operator.
//!
//! A [`NestMap`] maps each foreign key to its nested attribute: the
//! `Value::Set` of related keys, or the `Value::Ratings` of per-key rating
//! averages. One fold builds every one of them: the row executor (the
//! differential oracle), the batched executor's general path,
//! [`Table::nested`]'s cold build, and the patch [`Table::insert`] applies
//! to a cached image all feed related rows, one at a time and in scan
//! order, through the same per-key accumulation. So the float
//! accumulation order of duplicate-key averages — and therefore every
//! nested value — is identical wherever the map was built or patched.
//!
//! ## Copy-on-write
//!
//! A table's cached image is shared by the live table and every snapshot
//! that pins it (see [`crate::table`]). Its entries live in a `ShardMap`,
//! the `Arc`'d hash shards of [`crate::index`], and every nested payload
//! is itself an `Arc`'d slice. So cloning an image copies shard pointers,
//! a patch copies the one shard its foreign key lands in (and only while
//! a clone still shares it), and a probe or a copied shard entry clones a
//! pointer, never the nested values.
//!
//! [`Table::nested`]: crate::table::Table::nested
//! [`Table::insert`]: crate::table::Table::insert

use std::collections::HashMap;
use std::slice;
use std::sync::Arc;

use crate::error::RelResult;
use crate::index::ShardMap;
use crate::value::Value;

/// One foreign key's related rows, folded: its keys strictly ascending,
/// each with the sum and count of its ratings (unused in Set mode).
type Acc = Vec<(Value, f64, usize)>;

/// Fold one related `(key, rating)` into a foreign key's accumulator:
/// the one step every build and every patch takes. A key already present
/// keeps its first spelling and, in Ratings mode, adds the rating to its
/// sum; a new key is inserted in order.
fn fold(acc: &mut Acc, key: Value, rating: Option<f64>) {
    let at = match acc.binary_search_by(|(k, _, _)| k.total_cmp(&key)) {
        Ok(at) => at,
        Err(at) => {
            acc.insert(at, (key, 0.0, 0));
            at
        }
    };
    if let Some(r) = rating {
        let (_, sum, n) = &mut acc[at];
        *sum += r;
        *n += 1;
    }
}

/// A related triple as the fold takes it, or `None` for one it skips: a
/// NULL foreign key, or — in Ratings mode — a NULL rating.
fn admit(
    (fk, key, rating): (Value, Value, Option<Value>),
    ratings_mode: bool,
) -> RelResult<Option<(Value, Value, Option<f64>)>> {
    if fk.is_null() {
        return Ok(None);
    }
    if !ratings_mode {
        return Ok(Some((fk, key, None)));
    }
    match rating.unwrap_or(Value::Null) {
        Value::Null => Ok(None),
        rv => Ok(Some((fk, key, Some(rv.as_float()?)))),
    }
}

/// One foreign key's entry in a [`NestMap`].
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    /// The nested attribute a probe returns.
    nested: Value,
    /// Ratings mode: each key's `(sum, count)`, aligned with the keys of
    /// `nested` — what a patch folds the next rating into.
    sums: Option<Arc<[(f64, usize)]>>,
}

impl Entry {
    fn freeze(acc: Acc, ratings_mode: bool) -> Entry {
        if !ratings_mode {
            let keys: Vec<Value> = acc.into_iter().map(|(k, _, _)| k).collect();
            return Entry {
                nested: Value::Set(keys.into()),
                sums: None,
            };
        }
        let sums = acc.iter().map(|&(_, sum, n)| (sum, n)).collect();
        let averaged: Vec<(Value, f64)> = acc
            .into_iter()
            .map(|(k, sum, n)| (k, sum / n as f64))
            .collect();
        Entry {
            nested: Value::Ratings(averaged.into()),
            sums: Some(sums),
        }
    }

    fn thaw(&self) -> Acc {
        match (&self.nested, &self.sums) {
            (Value::Ratings(r), Some(sums)) => r
                .iter()
                .zip(sums.iter())
                .map(|((k, _), &(sum, n))| (k.clone(), sum, n))
                .collect(),
            (nested, _) => nested
                .as_set()
                .unwrap_or_default()
                .iter()
                .map(|k| (k.clone(), 0.0, 0))
                .collect(),
        }
    }
}

/// Foreign key → nested attribute (`Value::Set` or `Value::Ratings`),
/// copy-on-write by the shard (module docs).
///
/// Invariant the similarity library's merge path relies on: set elements
/// and ratings keys are **strictly ascending** (sorted, deduplicated).
#[derive(Debug, Clone)]
pub struct NestMap {
    ratings_mode: bool,
    entries: ShardMap<Entry>,
    /// What a probe of a foreign key with no related rows returns: the
    /// empty nested value, shared so a miss clones a pointer.
    empty: Value,
}

impl NestMap {
    fn new(ratings_mode: bool) -> NestMap {
        NestMap {
            ratings_mode,
            entries: ShardMap::default(),
            empty: if ratings_mode {
                Value::Ratings(Arc::new([]))
            } else {
                Value::Set(Arc::new([]))
            },
        }
    }

    /// Build the map from related-side triples `(fk, key, rating)` —
    /// `rating` is `None` in Set mode — folded in input order. Set
    /// elements come out sorted and deduplicated, ratings averaged per key
    /// and sorted by key. NULL foreign keys (and, in Ratings mode, NULL
    /// ratings) are skipped.
    pub(crate) fn build(
        related: impl Iterator<Item = (Value, Value, Option<Value>)>,
        ratings_mode: bool,
    ) -> RelResult<NestMap> {
        let mut accs: HashMap<Value, Acc> = HashMap::new();
        for triple in related {
            if let Some((fk, key, r)) = admit(triple, ratings_mode)? {
                fold(accs.entry(fk).or_default(), key, r);
            }
        }
        let mut map = NestMap::new(ratings_mode);
        for (fk, acc) in accs {
            map.entries
                .insert(vec![fk], Entry::freeze(acc, ratings_mode));
        }
        Ok(map)
    }

    /// Fold one more related triple in, as [`NestMap::build`] would have
    /// had it come last. A table insert takes the highest row id, so its
    /// row is last in scan order and the patched map equals a cold build
    /// over the grown table, bit for bit. Copies one shard while a clone
    /// shares it. An error (a rating that is not numeric) leaves the map
    /// as it was.
    pub(crate) fn patch(&mut self, triple: (Value, Value, Option<Value>)) -> RelResult<()> {
        let Some((fk, key, r)) = admit(triple, self.ratings_mode)? else {
            return Ok(());
        };
        let fk = vec![fk];
        let mut acc = self.entries.get(&fk).map(Entry::thaw).unwrap_or_default();
        fold(&mut acc, key, r);
        self.entries
            .insert(fk, Entry::freeze(acc, self.ratings_mode));
        Ok(())
    }

    /// The nested attribute of `fk`, if it has related rows.
    pub fn get(&self, fk: &Value) -> Option<&Value> {
        self.entries.get(slice::from_ref(fk)).map(|e| &e.nested)
    }

    /// The nested attribute of `fk`, empty when it has no related rows.
    /// A pointer copy either way.
    pub fn probe(&self, fk: &Value) -> Value {
        self.get(fk).unwrap_or(&self.empty).clone()
    }

    /// Number of foreign keys with related rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every `(fk, nested)` pair, in no particular order (tests).
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Value, &Value)> {
        self.entries.iter().map(|(fk, e)| (&fk[0], &e.nested))
    }

    /// The shard pointers, in shard order (structural-sharing tests).
    #[cfg(test)]
    pub(crate) fn shard_ptrs(&self) -> Vec<*const ()> {
        self.entries.shard_ptrs()
    }
}

/// Equal when both map the same foreign keys to equal nested values and,
/// in Ratings mode, equal per-key sums and counts.
impl PartialEq for NestMap {
    fn eq(&self, other: &NestMap) -> bool {
        self.ratings_mode == other.ratings_mode
            && self.len() == other.len()
            && self
                .entries
                .iter()
                .all(|(fk, e)| other.entries.get(fk) == Some(e))
    }
}
