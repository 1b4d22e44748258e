//! The nest builder behind the FlexRecs ε-extend operator.
//!
//! One definition, three callers: the row executor (the differential
//! oracle), the batched executor's general path, and [`Table::nested`],
//! which caches the result per table version. All three consume the
//! related rows in scan order, so the float accumulation order of
//! duplicate-key rating averages — and therefore every nested value — is
//! identical wherever the map was built.
//!
//! [`Table::nested`]: crate::table::Table::nested

use std::collections::HashMap;

use crate::error::RelResult;
use crate::value::Value;

/// Foreign key → nested attribute (`Value::Set` or `Value::Ratings`).
///
/// Invariant the similarity library's merge path relies on: set elements
/// and ratings keys are **strictly ascending** (sorted, deduplicated).
pub type NestMap = HashMap<Value, Value>;

/// Build the fk → nested-attribute map from an iterator of related-side
/// triples `(fk, key, rating)` — `rating` is `None` in Set mode. Related
/// entries are consumed in input order; set elements are sorted and
/// deduplicated, ratings averaged per key and sorted by key. NULL
/// foreign keys (and, in Ratings mode, NULL ratings) are skipped.
pub(crate) fn build_nest_map_core(
    related: impl Iterator<Item = (Value, Value, Option<Value>)>,
    rating: bool,
) -> RelResult<NestMap> {
    let mut map = NestMap::new();
    if rating {
        let mut acc: HashMap<Value, HashMap<Value, (f64, usize)>> = HashMap::new();
        for (fk, key, rv) in related {
            let rv = rv.unwrap_or(Value::Null);
            if fk.is_null() || rv.is_null() {
                continue;
            }
            let r = rv.as_float()?;
            let e = acc.entry(fk).or_default().entry(key).or_insert((0.0, 0));
            e.0 += r;
            e.1 += 1;
        }
        for (fk, per_key) in acc {
            let mut v: Vec<(Value, f64)> = per_key
                .into_iter()
                .map(|(k, (sum, n))| (k, sum / n as f64))
                .collect();
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
            map.insert(fk, Value::Ratings(v));
        }
    } else {
        let mut acc: HashMap<Value, Vec<Value>> = HashMap::new();
        for (fk, key, _) in related {
            if fk.is_null() {
                continue;
            }
            acc.entry(fk).or_default().push(key);
        }
        for (fk, mut v) in acc {
            v.sort();
            v.dedup();
            map.insert(fk, Value::Set(v));
        }
    }
    Ok(map)
}
