//! Versioned result cache with delta-driven (incremental) maintenance.
//!
//! Recommendations are expensive (workflow execution over several joins)
//! but their inputs change rarely relative to how often students reload
//! the page. The cache keys an entry by the full request (strategy,
//! student, parameters) and tags it with one [`DepSpec`] per base table
//! the computation reads, stamped with the table *version* it was
//! computed against. [`cr_relation::table::Table`] bumps a monotonic
//! counter on every insert/update/delete, and lookups serve an entry only
//! while every dependency is still at its stamped version — conservative,
//! never stale.
//!
//! ## Push-advance maintenance
//!
//! Version stamps alone throw away far too much under a write storm: a
//! comment by student A invalidates student B's recommendations even
//! though B's plan never reads A's rows. So the cache *subscribes* to
//! the catalog's mutation stream ([`VersionedCache::subscribe`] fans the
//! cache in next to the storage engine's WAL observer) and reacts to
//! each delta **while the table's write lock is still held**:
//!
//! * **Spared** — the delta provably cannot change the entry (it touches
//!   columns outside the dependency's column set, or rows outside its
//!   key set): the stamp is advanced to the new version and the entry
//!   keeps serving hits.
//! * **Delta-applied** — the delta intersects, but the value is
//!   incrementally maintainable (see [`VersionedCache::set_delta_fn`]):
//!   the new value is derived from the old value plus the one-row delta,
//!   and the stamp advances. The differential proptest in
//!   `tests/cache_incremental.rs` (and the `oracle-checks` assert in the
//!   recommender) keep delta-maintained values byte-identical to a cold
//!   recompute.
//! * **Dropped** — anything else (unanalyzable delta, stamp more than
//!   one version behind, DDL on a dependency) falls back to full
//!   recompute on the next lookup.
//!
//! The advance is sound only from the immediately preceding version:
//! a stamp at `v-1` seeing the mutation that produced `v` has, by
//! induction, seen every earlier delta. A stamp further behind means the
//! entry predates the subscription (or raced it) and is dropped.
//!
//! ## Locking
//!
//! Observers run on the writer's thread holding the table cell's write
//! lock, so nothing here may call back into the catalog (a second cache
//! lock holder doing the reverse order would deadlock). Lookups capture
//! dependency versions from the catalog *before* taking the cache lock,
//! and delta functions must be pure over `(old value, event)`.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, OnceLock, Weak};

use cr_relation::mutation::Mutation;
use cr_relation::plan::deps::{ColumnSet, PlanDeps};
use cr_relation::row::Row;
use cr_relation::schema::Schema;
use cr_relation::{Catalog, MutationObserver, RelResult, Value};
use parking_lot::Mutex;

struct CacheMetrics {
    hits: Arc<cr_obs::Counter>,
    misses: Arc<cr_obs::Counter>,
    invalidations: Arc<cr_obs::Counter>,
    spared: Arc<cr_obs::Counter>,
    delta_applied: Arc<cr_obs::Counter>,
    evictions: Arc<cr_obs::Counter>,
}

fn metrics() -> &'static CacheMetrics {
    static M: OnceLock<CacheMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cr_obs::Registry::global();
        CacheMetrics {
            hits: r.counter("courserank.reccache.hits"),
            misses: r.counter("courserank.reccache.misses"),
            invalidations: r.counter("courserank.reccache.invalidations"),
            spared: r.counter("courserank.reccache.spared"),
            delta_applied: r.counter("courserank.reccache.delta_applied"),
            evictions: r.counter("courserank.reccache.evictions"),
        }
    })
}

/// What a cached value depends on within one base table. Produced by
/// hand or from the plan-level extractor ([`DepSpec::from_plan_deps`]).
/// `None` fields mean "everything" — the conservative default.
#[derive(Debug, Clone, PartialEq)]
pub struct DepSpec {
    /// Lowercase table name.
    pub table: String,
    /// Columns the value reads, lowercase (`None` = all).
    pub columns: Option<BTreeSet<String>>,
    /// Row gate: the value only consults rows whose `column` value is in
    /// the set (`None` = all rows).
    pub key: Option<(String, BTreeSet<Value>)>,
}

impl DepSpec {
    /// Whole-table dependency (any write invalidates).
    pub fn table(name: &str) -> DepSpec {
        DepSpec {
            table: name.to_ascii_lowercase(),
            columns: None,
            key: None,
        }
    }

    /// Restrict to named columns.
    pub fn with_columns<I: IntoIterator<Item = S>, S: AsRef<str>>(mut self, cols: I) -> DepSpec {
        self.columns = Some(
            cols.into_iter()
                .map(|c| c.as_ref().to_ascii_lowercase())
                .collect(),
        );
        self
    }

    /// Restrict to rows whose `column` is in `values`.
    pub fn with_key<I: IntoIterator<Item = Value>>(mut self, column: &str, values: I) -> DepSpec {
        self.key = Some((column.to_ascii_lowercase(), values.into_iter().collect()));
        self
    }

    /// Lower a plan-level dependency footprint (from
    /// [`cr_relation::plan::deps::extract_in`]) into cache dep specs.
    pub fn from_plan_deps(deps: &PlanDeps) -> Vec<DepSpec> {
        deps.tables
            .iter()
            .map(|(table, td)| DepSpec {
                table: table.clone(),
                columns: match &td.columns {
                    ColumnSet::All => None,
                    ColumnSet::Named(named) => Some(named.clone()),
                },
                key: td
                    .key
                    .as_ref()
                    .map(|k| (k.column.clone(), k.values.clone())),
            })
            .collect()
    }

    /// Merge specs so each table appears once, unioning footprints: the
    /// merged spec must cover every input, so columns widen to `None`
    /// unless both sides name columns, and a key gate survives only when
    /// both sides gate on the same column (values union).
    pub fn merge(specs: Vec<DepSpec>) -> Vec<DepSpec> {
        let mut by_table: BTreeMap<String, DepSpec> = BTreeMap::new();
        for spec in specs {
            match by_table.entry(spec.table.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(spec);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let cur = e.get_mut();
                    cur.columns = match (cur.columns.take(), spec.columns) {
                        (Some(mut a), Some(b)) => {
                            a.extend(b);
                            Some(a)
                        }
                        _ => None,
                    };
                    cur.key = match (cur.key.take(), spec.key) {
                        (Some((ca, mut va)), Some((cb, vb))) if ca == cb => {
                            va.extend(vb);
                            Some((ca, va))
                        }
                        _ => None,
                    };
                }
            }
        }
        by_table.into_values().collect()
    }

    /// Does a one-row delta described by `event` possibly affect a value
    /// with this dependency? `false` is a proof of disjointness; `true`
    /// is the conservative answer.
    fn intersects(&self, event: &MutationEvent<'_>) -> bool {
        // Column test: only an UPDATE leaves the row set unchanged, so
        // only there can "the changed columns miss my column set" spare
        // the entry. Inserts/deletes change aggregates over any column.
        if let (Some(cols), MutationKind::Update) = (&self.columns, event.kind) {
            if let (Some(old), Some(new)) = (event.old_row, event.row) {
                let changed_hits = old
                    .iter()
                    .zip(new.iter())
                    .enumerate()
                    .filter(|(_, (o, n))| o != n)
                    .any(|(i, _)| {
                        event
                            .schema
                            .columns()
                            .get(i)
                            .is_none_or(|c| cols.contains(&c.name.to_ascii_lowercase()))
                    });
                if !changed_hits {
                    return false;
                }
            }
        }
        // Key test: the delta misses if no touched row image has its key
        // column inside the gate. Updates test both images (a row can
        // move into or out of the gated set).
        if let Some((column, values)) = &self.key {
            let Some(pos) = event
                .schema
                .columns()
                .iter()
                .position(|c| c.name.eq_ignore_ascii_case(column))
            else {
                return true; // cannot resolve the column: stay conservative
            };
            // A missing image (no old row on insert, no new row on
            // delete) contributes no key value; a present image with the
            // column unreadable stays conservative.
            let in_gate = |row: Option<&Row>| {
                row.is_some_and(|r| r.get(pos).is_none_or(|v| values.contains(v)))
            };
            if !in_gate(event.row) && !in_gate(event.old_row) {
                return false;
            }
        }
        true
    }
}

/// What happened to a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    Insert,
    Update,
    Delete,
}

/// A one-row delta as seen by the cache observer and delta functions.
#[derive(Debug)]
pub struct MutationEvent<'a> {
    /// Table name as emitted by the catalog (original casing).
    pub table: &'a str,
    pub schema: &'a Schema,
    pub kind: MutationKind,
    /// Post-image (insert/update).
    pub row: Option<&'a Row>,
    /// Pre-image (update/delete).
    pub old_row: Option<&'a Row>,
    /// Table version *after* this mutation.
    pub version: u64,
}

/// Incremental maintenance hook: given the entry key, the current value,
/// and a one-row delta that intersects the value's dependency set,
/// return the maintained value — or `None` to fall back to dropping the
/// entry. Must be pure over its arguments (it runs under both the
/// table's write lock and the cache lock; calling into the catalog here
/// deadlocks).
pub type DeltaFn<V> = Arc<dyn Fn(&str, &V, &MutationEvent<'_>) -> Option<V> + Send + Sync>;

struct Entry<V> {
    /// Dependency specs with the table version each is current at.
    deps: Vec<(DepSpec, u64)>,
    value: V,
    /// Insertion sequence for FIFO eviction.
    seq: u64,
    /// Per-entry survival stats (reported via `cr_stat_cache`).
    spared: u64,
    delta_applied: u64,
}

struct Store<V> {
    entries: HashMap<String, Entry<V>>,
    /// FIFO order: `(seq, key)` at insertion. Stale pairs (entry since
    /// removed or replaced) are skipped at pop time and compacted when
    /// the queue outgrows the live set.
    order: VecDeque<(u64, String)>,
    next_seq: u64,
}

impl<V> Default for Store<V> {
    fn default() -> Self {
        Store {
            entries: HashMap::new(),
            order: VecDeque::new(),
            next_seq: 0,
        }
    }
}

/// A keyed cache whose entries are validated against base-table versions
/// on every lookup and maintained against the mutation stream between
/// lookups. Share it via `Arc`; subscribe it to a catalog with
/// [`VersionedCache::subscribe`].
pub struct VersionedCache<V> {
    store: Mutex<Store<V>>,
    /// At capacity the oldest entries are evicted first (FIFO), one per
    /// insertion — not a wholesale clear.
    capacity: usize,
    delta: Mutex<Option<DeltaFn<V>>>,
}

impl<V> Default for VersionedCache<V> {
    fn default() -> Self {
        Self::with_capacity(4096)
    }
}

impl<V> VersionedCache<V> {
    pub fn with_capacity(capacity: usize) -> Self {
        VersionedCache {
            store: Mutex::new(Store::default()),
            capacity: capacity.max(1),
            delta: Mutex::new(None),
        }
    }

    /// Install the incremental-maintenance hook (see [`DeltaFn`]).
    pub fn set_delta_fn(&self, f: DeltaFn<V>) {
        *self.delta.lock() = Some(f);
    }

    /// Number of live entries (test/diagnostic hook).
    pub fn len(&self) -> usize {
        self.store.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-entry stats snapshot: `(key, dep count, keyed dep count,
    /// spared, delta_applied)` rows for `cr_stat_cache`.
    pub fn entry_stats(&self) -> Vec<(String, usize, usize, u64, u64)> {
        let store = self.store.lock();
        let mut rows: Vec<_> = store
            .entries
            .iter()
            .map(|(k, e)| {
                (
                    k.clone(),
                    e.deps.len(),
                    e.deps.iter().filter(|(d, _)| d.key.is_some()).count(),
                    e.spared,
                    e.delta_applied,
                )
            })
            .collect();
        rows.sort();
        rows
    }
}

impl<V> std::fmt::Debug for VersionedCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<V: Clone> VersionedCache<V> {
    /// Look up `key`; recompute via `f` when absent or when any
    /// dependency table's version moved since the entry was stamped.
    /// Dependencies are whole-table ([`DepSpec::table`]); a missing
    /// table counts as version 0 (it springs to life at version ≥ 1 on
    /// its first insert, which invalidates).
    pub fn get_or_compute(
        &self,
        catalog: &Catalog,
        key: &str,
        deps: &[&str],
        f: impl FnOnce() -> RelResult<V>,
    ) -> RelResult<V> {
        self.get_or_compute_refined(catalog, key, deps, || {
            Ok((f()?, deps.iter().map(|d| DepSpec::table(d)).collect()))
        })
    }

    /// [`VersionedCache::get_or_compute`] with refined dependencies: the
    /// compute returns `(value, dep specs)` where every spec's table is
    /// one of `tables` (the superset whose versions are captured before
    /// the compute runs — so a writer racing the computation leaves the
    /// entry stamped with the pre-write version, and the next lookup
    /// recomputes rather than serving stale data).
    pub fn get_or_compute_refined(
        &self,
        catalog: &Catalog,
        key: &str,
        tables: &[&str],
        f: impl FnOnce() -> RelResult<(V, Vec<DepSpec>)>,
    ) -> RelResult<V> {
        // Versions before the lock (and before the compute): the cache
        // lock is never held across a catalog call (see module docs).
        let versions: HashMap<String, u64> = tables
            .iter()
            .map(|d| {
                (
                    d.to_ascii_lowercase(),
                    catalog.table_version(d).unwrap_or(0),
                )
            })
            .collect();
        let recording = cr_obs::enabled();
        {
            let mut store = self.store.lock();
            let valid = match store.entries.get(key) {
                Some(e) => e
                    .deps
                    .iter()
                    .all(|(spec, stamped)| versions.get(&spec.table) == Some(stamped)),
                None => false,
            };
            match store.entries.get(key) {
                Some(e) if valid => {
                    if recording {
                        metrics().hits.inc();
                    }
                    return Ok(e.value.clone());
                }
                Some(_) => {
                    store.entries.remove(key);
                    if recording {
                        metrics().invalidations.inc();
                    }
                }
                None => {}
            }
        }
        // Compute outside the lock: concurrent misses may duplicate work
        // but never block each other.
        let (value, specs) = f()?;
        if recording {
            metrics().misses.inc();
        }
        let deps: Vec<(DepSpec, u64)> = specs
            .into_iter()
            .map(|spec| {
                let v = versions.get(&spec.table).copied();
                debug_assert!(
                    v.is_some(),
                    "dep spec names table {:?} outside the declared set",
                    spec.table
                );
                // An undeclared table stamps as 0 and (once the table has
                // any rows) can never validate: recompute, never stale.
                (spec, v.unwrap_or(0))
            })
            .collect();
        let mut store = self.store.lock();
        while store.entries.len() >= self.capacity {
            let Some((seq, old_key)) = store.order.pop_front() else {
                break;
            };
            if store.entries.get(&old_key).is_some_and(|e| e.seq == seq) {
                store.entries.remove(&old_key);
                if recording {
                    metrics().evictions.inc();
                }
            }
        }
        let seq = store.next_seq;
        store.next_seq += 1;
        store.order.push_back((seq, key.to_owned()));
        if store.order.len() > store.entries.len() * 2 + 64 {
            let entries = &store.entries;
            let live: Vec<(u64, String)> = store
                .order
                .iter()
                .filter(|(s, k)| entries.get(k).is_some_and(|e| e.seq == *s) || *s == seq)
                .cloned()
                .collect();
            store.order = live.into();
        }
        store.entries.insert(
            key.to_owned(),
            Entry {
                deps,
                value: value.clone(),
                seq,
                spared: 0,
                delta_applied: 0,
            },
        );
        Ok(value)
    }
}

impl<V: Clone + Send + Sync + 'static> VersionedCache<V> {
    /// Fan this cache into the catalog's mutation stream (alongside any
    /// existing observer, e.g. the storage engine's WAL logger). The
    /// observer holds only a weak reference; dropping the cache
    /// deactivates it.
    pub fn subscribe(cache: &Arc<VersionedCache<V>>, catalog: &Catalog) {
        catalog.add_observer(Arc::new(CacheObserver {
            cache: Arc::downgrade(cache),
        }));
    }

    /// React to a one-row delta on `table`: advance, delta-apply, or
    /// drop every dependent entry (see module docs for the protocol).
    fn apply_event(&self, event: &MutationEvent<'_>) {
        let recording = cr_obs::enabled();
        let delta = self.delta.lock().clone();
        let table = event.table.to_ascii_lowercase();
        let mut store = self.store.lock();
        let mut dropped = 0u64;
        let m = recording.then(metrics);
        store.entries.retain(|key, entry| {
            let Some(pos) = entry.deps.iter().position(|(d, _)| d.table == table) else {
                return true; // independent of this table
            };
            let stamped = entry.deps[pos].1;
            if stamped + 1 != event.version {
                // The entry missed an earlier delta (pre-subscription or
                // raced): only recompute is sound.
                dropped += 1;
                return false;
            }
            if !entry.deps[pos].0.intersects(event) {
                entry.deps[pos].1 = event.version;
                entry.spared += 1;
                if let Some(m) = m {
                    m.spared.inc();
                }
                return true;
            }
            if let Some(delta) = &delta {
                if let Some(next) = delta(key, &entry.value, event) {
                    entry.value = next;
                    entry.deps[pos].1 = event.version;
                    entry.delta_applied += 1;
                    if let Some(m) = m {
                        m.delta_applied.inc();
                    }
                    return true;
                }
            }
            dropped += 1;
            false
        });
        if let Some(m) = m {
            m.invalidations.add(dropped);
        }
    }

    /// DDL on a dependency table: versions restart on re-creation, so
    /// stamps from the old incarnation must not survive.
    fn drop_dependents(&self, table: &str) {
        let table = table.to_ascii_lowercase();
        let recording = cr_obs::enabled();
        let mut store = self.store.lock();
        let mut dropped = 0u64;
        store.entries.retain(|_, entry| {
            let dependent = entry.deps.iter().any(|(d, _)| d.table == table);
            if dependent {
                dropped += 1;
            }
            !dependent
        });
        if recording && dropped > 0 {
            metrics().invalidations.add(dropped);
        }
    }
}

/// The catalog-side subscriber: translates raw [`Mutation`]s into
/// [`MutationEvent`]s and forwards them to the (weakly held) cache.
struct CacheObserver<V> {
    cache: Weak<VersionedCache<V>>,
}

impl<V: Clone + Send + Sync + 'static> MutationObserver for CacheObserver<V> {
    fn on_mutation(&self, table: &str, schema: &Schema, mutation: &Mutation<'_>) {
        let Some(cache) = self.cache.upgrade() else {
            return;
        };
        let event = match mutation {
            Mutation::Insert { row, version, .. } => MutationEvent {
                table,
                schema,
                kind: MutationKind::Insert,
                row: Some(row),
                old_row: None,
                version: *version,
            },
            Mutation::Update {
                row,
                old_row,
                version,
                ..
            } => MutationEvent {
                table,
                schema,
                kind: MutationKind::Update,
                row: Some(row),
                old_row: Some(old_row),
                version: *version,
            },
            Mutation::Delete { row, version, .. } => MutationEvent {
                table,
                schema,
                kind: MutationKind::Delete,
                row: None,
                old_row: Some(row),
                version: *version,
            },
            // Index DDL changes no rows and no versions.
            Mutation::CreateIndex { .. } => return,
        };
        cache.apply_event(&event);
    }

    fn on_create_table(&self, name: &str, _schema: &Schema, _pk_columns: &[usize]) {
        if let Some(cache) = self.cache.upgrade() {
            cache.drop_dependents(name);
        }
    }

    fn on_drop_table(&self, name: &str) {
        if let Some(cache) = self.cache.upgrade() {
            cache.drop_dependents(name);
        }
    }
}

// ---------------------------------------------------------------------
// Named-cache registry (for the `cr_stat_cache` system table)
// ---------------------------------------------------------------------

/// `(key, dep count, keyed dep count, spared, delta_applied)` rows.
pub type EntryStats = Vec<(String, usize, usize, u64, u64)>;

/// Anything that can report per-entry survival stats.
pub trait CacheStats: Send + Sync {
    /// One [`EntryStats`] row per live entry.
    fn entry_stats(&self) -> EntryStats;
}

impl<V: Send + Sync> CacheStats for VersionedCache<V> {
    fn entry_stats(&self) -> EntryStats {
        VersionedCache::entry_stats(self)
    }
}

type Registry = Mutex<Vec<(String, Weak<dyn CacheStats>)>>;

fn registry() -> &'static Registry {
    static R: OnceLock<Registry> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register a cache under `name` for `cr_stat_cache` reporting. The
/// registry holds weak references; dropped caches vanish from reports.
pub fn register_cache(name: &str, cache: Weak<dyn CacheStats>) {
    let mut reg = registry().lock();
    reg.retain(|(n, c)| n != name && c.strong_count() > 0);
    reg.push((name.to_owned(), cache));
}

/// Snapshot every registered cache: `(cache name, entry stats)`.
pub fn registered_cache_stats() -> Vec<(String, EntryStats)> {
    registry()
        .lock()
        .iter()
        .filter_map(|(name, weak)| Some((name.clone(), weak.upgrade()?.entry_stats())))
        .collect()
}

/// `cr_stat_cache(cache, entry, deps, keyed_deps, spared, delta_applied)`
/// — one row per live cached entry across every registered cache, so the
/// survival behaviour of the delta-driven caches is queryable in SQL:
/// `SELECT cache, SUM(spared) FROM cr_stat_cache GROUP BY cache`.
///
/// Registered by `CourseRankDb` *before* the generic
/// `cr_relation::telemetry` set (registration skips existing names), so
/// the app's richer per-entry view wins over the counters-only fallback.
pub struct CacheStatsProvider;

impl cr_relation::ScanProvider for CacheStatsProvider {
    fn schema(&self) -> Schema {
        use cr_relation::{Column, DataType};
        Schema::qualified(
            "cr_stat_cache",
            vec![
                Column::not_null("cache", DataType::Text),
                Column::not_null("entry", DataType::Text),
                Column::not_null("deps", DataType::Int),
                Column::not_null("keyed_deps", DataType::Int),
                Column::not_null("spared", DataType::Int),
                Column::not_null("delta_applied", DataType::Int),
            ],
        )
    }

    fn rows(&self) -> RelResult<Vec<Row>> {
        let sat = |v: u64| Value::Int(i64::try_from(v).unwrap_or(i64::MAX));
        let mut rows = Vec::new();
        for (cache, entries) in registered_cache_stats() {
            for (entry, deps, keyed, spared, delta) in entries {
                rows.push(vec![
                    Value::text(cache.clone()),
                    Value::text(entry),
                    Value::Int(deps as i64),
                    Value::Int(keyed as i64),
                    sat(spared),
                    sat(delta),
                ]);
            }
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_relation::Database;

    fn db_with_table() -> Database {
        let db = Database::new();
        db.execute_sql("CREATE TABLE T (Id INT PRIMARY KEY, X INT)")
            .unwrap();
        db.execute_sql("INSERT INTO T VALUES (1, 10)").unwrap();
        db
    }

    #[test]
    fn serves_cached_value_until_dependency_mutates() {
        let db = db_with_table();
        let cache: VersionedCache<i64> = VersionedCache::default();
        let mut computes = 0;
        for _ in 0..3 {
            let v = cache
                .get_or_compute(&db.catalog(), "k", &["T"], || {
                    computes += 1;
                    Ok(42)
                })
                .unwrap();
            assert_eq!(v, 42);
        }
        assert_eq!(computes, 1, "second and third lookups must hit");

        db.execute_sql("UPDATE T SET X = 11 WHERE Id = 1").unwrap();
        cache
            .get_or_compute(&db.catalog(), "k", &["T"], || {
                computes += 1;
                Ok(43)
            })
            .unwrap();
        assert_eq!(computes, 2, "mutation must invalidate");
        assert_eq!(
            cache
                .get_or_compute(&db.catalog(), "k", &["T"], || {
                    computes += 1;
                    Ok(0)
                })
                .unwrap(),
            43
        );
        assert_eq!(computes, 2);
    }

    #[test]
    fn missing_table_versions_as_zero_and_invalidates_on_creation() {
        let db = db_with_table();
        let cache: VersionedCache<i64> = VersionedCache::default();
        cache
            .get_or_compute(&db.catalog(), "k", &["Ghost"], || Ok(1))
            .unwrap();
        // Still absent → still version 0 → hit.
        let v = cache
            .get_or_compute(&db.catalog(), "k", &["Ghost"], || Ok(2))
            .unwrap();
        assert_eq!(v, 1);
        db.execute_sql("CREATE TABLE Ghost (Id INT PRIMARY KEY)")
            .unwrap();
        db.execute_sql("INSERT INTO Ghost VALUES (7)").unwrap();
        let v = cache
            .get_or_compute(&db.catalog(), "k", &["Ghost"], || Ok(3))
            .unwrap();
        assert_eq!(v, 3, "first insert moves the version off 0");
    }

    #[test]
    fn compute_errors_are_not_cached() {
        let db = db_with_table();
        let cache: VersionedCache<i64> = VersionedCache::default();
        let r = cache.get_or_compute(&db.catalog(), "k", &["T"], || {
            Err(cr_relation::RelError::Invalid("boom".into()))
        });
        assert!(r.is_err());
        assert!(cache.is_empty());
        let v = cache
            .get_or_compute(&db.catalog(), "k", &["T"], || Ok(5))
            .unwrap();
        assert_eq!(v, 5);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let db = db_with_table();
        let cache: VersionedCache<i64> = VersionedCache::default();
        cache
            .get_or_compute(&db.catalog(), "a", &["T"], || Ok(1))
            .unwrap();
        cache
            .get_or_compute(&db.catalog(), "b", &["T"], || Ok(2))
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache
                .get_or_compute(&db.catalog(), "a", &["T"], || Ok(9))
                .unwrap(),
            1
        );
    }

    #[test]
    fn capacity_evicts_oldest_first_not_everything() {
        let db = db_with_table();
        let cache: VersionedCache<i64> = VersionedCache::with_capacity(3);
        for (i, key) in ["a", "b", "c"].iter().enumerate() {
            cache
                .get_or_compute(&db.catalog(), key, &["T"], || Ok(i as i64))
                .unwrap();
        }
        assert_eq!(cache.len(), 3);
        cache
            .get_or_compute(&db.catalog(), "d", &["T"], || Ok(3))
            .unwrap();
        assert_eq!(cache.len(), 3, "one in, one out");
        // "a" (oldest) was evicted; "b".."d" survive as hits.
        let mut recomputed = Vec::new();
        for key in ["b", "c", "d"] {
            cache
                .get_or_compute(&db.catalog(), key, &["T"], || {
                    recomputed.push(key);
                    Ok(9)
                })
                .unwrap();
        }
        assert!(recomputed.is_empty(), "{recomputed:?} were evicted early");
        cache
            .get_or_compute(&db.catalog(), "a", &["T"], || {
                recomputed.push("a");
                Ok(9)
            })
            .unwrap();
        assert_eq!(recomputed, vec!["a"]);
    }

    #[test]
    fn subscribed_entries_survive_disjoint_writes() {
        let db = db_with_table();
        db.execute_sql("CREATE TABLE U (Id INT PRIMARY KEY, Y INT)")
            .unwrap();
        let cache: Arc<VersionedCache<i64>> = Arc::new(VersionedCache::default());
        VersionedCache::subscribe(&cache, &db.catalog());
        let computes = std::cell::Cell::new(0usize);
        let lookup = |key: &str, gate: i64| {
            cache
                .get_or_compute_refined(&db.catalog(), key, &["T"], || {
                    computes.set(computes.get() + 1);
                    Ok((
                        gate,
                        vec![DepSpec::table("T").with_key("Id", [Value::Int(gate)])],
                    ))
                })
                .unwrap()
        };
        lookup("one", 1);
        // A write to a row outside the entry's key gate: spared.
        db.execute_sql("INSERT INTO T VALUES (2, 20)").unwrap();
        lookup("one", 1);
        assert_eq!(
            computes.get(),
            1,
            "insert of Id=2 must not evict the Id=1 entry"
        );
        // A write inside the gate: dropped, recompute.
        db.execute_sql("UPDATE T SET X = 12 WHERE Id = 1").unwrap();
        lookup("one", 1);
        assert_eq!(computes.get(), 2);
        // Writes to unrelated tables never touch the entry.
        db.execute_sql("INSERT INTO U VALUES (1, 1)").unwrap();
        lookup("one", 1);
        assert_eq!(computes.get(), 2);
    }

    #[test]
    fn column_refined_update_spares() {
        let db = db_with_table();
        db.execute_sql("CREATE TABLE W (Id INT PRIMARY KEY, A INT, B INT)")
            .unwrap();
        db.execute_sql("INSERT INTO W VALUES (1, 1, 1)").unwrap();
        let cache: Arc<VersionedCache<i64>> = Arc::new(VersionedCache::default());
        VersionedCache::subscribe(&cache, &db.catalog());
        let computes = std::cell::Cell::new(0usize);
        let lookup = || {
            cache
                .get_or_compute_refined(&db.catalog(), "k", &["W"], || {
                    computes.set(computes.get() + 1);
                    Ok((7, vec![DepSpec::table("W").with_columns(["a"])]))
                })
                .unwrap()
        };
        lookup();
        db.execute_sql("UPDATE W SET B = 9 WHERE Id = 1").unwrap();
        lookup();
        assert_eq!(
            computes.get(),
            1,
            "update to column B must spare an A-only dep"
        );
        db.execute_sql("UPDATE W SET A = 9 WHERE Id = 1").unwrap();
        lookup();
        assert_eq!(computes.get(), 2, "update to column A must invalidate");
    }

    #[test]
    fn delta_fn_maintains_value() {
        let db = db_with_table();
        let cache: Arc<VersionedCache<i64>> = Arc::new(VersionedCache::default());
        VersionedCache::subscribe(&cache, &db.catalog());
        // Value = sum of X over T, maintained under inserts.
        cache.set_delta_fn(Arc::new(|_key, value, event| match event.kind {
            MutationKind::Insert => {
                let x = event.row?.get(1)?.as_int().ok()?;
                Some(*value + x)
            }
            _ => None,
        }));
        let computes = std::cell::Cell::new(0usize);
        let lookup = || {
            cache
                .get_or_compute_refined(&db.catalog(), "sum", &["T"], || {
                    computes.set(computes.get() + 1);
                    let rs = db.query_sql("SELECT X FROM T")?;
                    Ok((
                        rs.rows.iter().filter_map(|r| r[0].as_int().ok()).sum(),
                        vec![DepSpec::table("T")],
                    ))
                })
                .unwrap()
        };
        assert_eq!(lookup(), 10);
        db.execute_sql("INSERT INTO T VALUES (2, 5)").unwrap();
        assert_eq!(lookup(), 15, "insert delta-applies");
        assert_eq!(
            computes.get(),
            1,
            "no recompute after a delta-applied insert"
        );
        // An update is not delta-maintainable here: entry drops.
        db.execute_sql("UPDATE T SET X = 0 WHERE Id = 1").unwrap();
        assert_eq!(lookup(), 5);
        assert_eq!(computes.get(), 2);
    }

    #[test]
    fn drop_table_drops_dependents() {
        let db = db_with_table();
        let cache: Arc<VersionedCache<i64>> = Arc::new(VersionedCache::default());
        VersionedCache::subscribe(&cache, &db.catalog());
        cache
            .get_or_compute(&db.catalog(), "k", &["T"], || Ok(1))
            .unwrap();
        assert_eq!(cache.len(), 1);
        db.execute_sql("DROP TABLE T").unwrap();
        assert_eq!(cache.len(), 0, "DDL must drop dependent entries");
    }

    #[test]
    fn registry_reports_per_entry_stats() {
        let db = db_with_table();
        let cache: Arc<VersionedCache<i64>> = Arc::new(VersionedCache::default());
        VersionedCache::subscribe(&cache, &db.catalog());
        let as_stats: Arc<dyn CacheStats> = cache.clone();
        register_cache("test-cache", Arc::downgrade(&as_stats));
        cache
            .get_or_compute_refined(&db.catalog(), "k", &["T"], || {
                Ok((1, vec![DepSpec::table("T").with_key("Id", [Value::Int(1)])]))
            })
            .unwrap();
        db.execute_sql("INSERT INTO T VALUES (2, 20)").unwrap();
        let stats = registered_cache_stats();
        let (_, rows) = stats
            .iter()
            .find(|(name, _)| name == "test-cache")
            .expect("registered");
        let row = rows.iter().find(|r| r.0 == "k").expect("entry row");
        assert_eq!(row.1, 1, "one dep");
        assert_eq!(row.2, 1, "one keyed dep");
        assert_eq!(row.3, 1, "spared once by the disjoint insert");
    }
}
