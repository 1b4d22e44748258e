//! The catalog and the [`Database`] facade.
//!
//! The [`Catalog`] is a multi-version store: every table lives in a cell
//! holding an immutable `Arc<Table>` image. Readers *pin* the current
//! image (a pointer clone under a momentary lock) and then execute with
//! **no lock held at all**, so CourseRank's read-mostly workload
//! (searches, recommendations, planner reads) never blocks — and is
//! never blocked by — comment and enrollment writes. Writers mutate
//! copy-on-write via [`Arc::make_mut`]: while no reader pins the image
//! the mutation is applied in place (the common, allocation-free case);
//! while a snapshot is live the first write clones the table and later
//! readers see the new image, earlier pins keep the old one. That clone
//! copies pointers, not rows: a [`Table`] keeps its rows in `Arc`'d
//! chunks and its primary-key map and hash indexes in `Arc`'d shards, so
//! the write copies only the one chunk and the one shard per map it
//! touches (see [`crate::table`]), and dropping the old image frees only
//! those.
//!
//! [`Catalog::snapshot`] extends per-table pinning to the whole catalog:
//! it briefly excludes writers (the `publish` lock), pins every table at
//! once, and hands back a frozen [`CatalogSnapshot`] — a read-only
//! catalog whose tables can never change underneath a request. Mutation
//! ordering vs. snapshot publication: observers (the WAL) are notified
//! under the table's cell lock, inside the writer's shared `publish`
//! hold, so any state a snapshot can observe is already a prefix of the
//! write-ahead log.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{RelError, RelResult};
use crate::exec::{self, ResultSet};
use crate::index::IndexKind;
use crate::mutation::{CompositeObserver, MutationObserver, ObserverSlot};
use crate::plan::flow::{FlowPolicy, Principal, TablePolicy};
use crate::plan::{self, optimizer, LogicalPlan};
use crate::provider::ScanProvider;
use crate::row::{Row, RowId};
use crate::schema::Schema;
use crate::sql;
use crate::table::{Table, Write};

/// A table cell: the current immutable image, swapped (or mutated in
/// place when unshared) under the cell's write lock.
type TableCell = Arc<RwLock<Arc<Table>>>;

/// Generation-stamped flow caches (see [`Catalog::flow_gen`]): each entry
/// records the schema generation it was built under.
type FlowTemplateCache = BTreeMap<String, (u64, Arc<plan::flow::ScanTemplate>)>;
type FlowDecisionCache = BTreeMap<String, (u64, Arc<plan::ValidationReport>)>;

/// The set of tables. Cloning a `Catalog` is cheap (it is an `Arc` inside);
/// clones see the same data.
#[derive(Clone, Default)]
pub struct Catalog {
    inner: Arc<RwLock<BTreeMap<String, TableCell>>>,
    /// Durability hook, shared by all clones; propagated to every table
    /// (existing and future) by [`Catalog::add_observer`].
    observer: Arc<RwLock<ObserverSlot>>,
    /// Virtual tables ([`ScanProvider`]s) by lowercase name. Read-only,
    /// never persisted, resolved after base tables.
    providers: Arc<RwLock<BTreeMap<String, Arc<dyn ScanProvider>>>>,
    /// Monotone counter handed out as the "version" of every virtual
    /// table scan, so result caches treat telemetry as always-stale.
    virtual_tick: Arc<AtomicU64>,
    /// Publication lock. Writers hold it *shared* across each mutation
    /// (distinct tables still commit concurrently); [`Catalog::snapshot`]
    /// holds it *exclusive* for the instant it pins every table, so a
    /// snapshot is an atomic cut between whole mutations, never inside
    /// one.
    publish: Arc<RwLock<()>>,
    /// Information-flow policy: per-table sensitivity labels (see
    /// [`crate::plan::flow`]). Shared by all clones and by snapshots, so
    /// frozen read views enforce the same labels as the live catalog.
    flow: Arc<RwLock<FlowPolicy>>,
    /// Memoized per-table scan templates for the flow checker (resolved
    /// labels per column), each stamped with the [`Catalog::flow_gen`]
    /// it was built under. Cleared whenever a policy changes; a stamp
    /// mismatch is a miss, so sharing the cache across clones and
    /// snapshots is safe even across DDL.
    flow_cache: Arc<RwLock<FlowTemplateCache>>,
    /// Memoized disclosure decisions for the SQL read path, keyed by
    /// `principal\x1fquery` and stamped like [`Catalog::flow_cache`].
    /// Decisions depend only on schema + policy (never data), so the
    /// stamp plus the policy-change clear is a sound invalidation.
    flow_decisions: Arc<RwLock<FlowDecisionCache>>,
    /// Schema-identity generation: bumped by create/drop/install/
    /// register-provider, i.e. any event that can change which schema a
    /// table name resolves to. Flow caches are stamped with it.
    flow_gen: Arc<AtomicU64>,
    /// Snapshots pin the generation at the cut: their pinned schemas
    /// never change, so entries stamped at the cut stay valid for them
    /// even while the live catalog moves on. (Policy is deliberately
    /// *not* pinned — label changes clear the shared caches, so frozen
    /// views enforce the live policy, matching `flow` being shared.)
    flow_gen_pin: Option<u64>,
    /// Frozen handles ([`Catalog::snapshot`]) reject every mutation.
    frozen: bool,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("tables", &self.table_names())
            .field("virtual", &self.virtual_table_names())
            .finish()
    }
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// True for the frozen handle inside a [`CatalogSnapshot`]: reads
    /// serve the pinned images forever, every mutation is rejected.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    fn reject_frozen(&self) -> RelResult<()> {
        if self.frozen {
            Err(RelError::Invalid(
                "catalog snapshot is read-only".to_owned(),
            ))
        } else {
            Ok(())
        }
    }

    /// Attach a [`MutationObserver`] to every current and future table,
    /// alongside any already attached one (fan-out via
    /// [`CompositeObserver`], earlier observers notified first). Table
    /// DDL (create/drop/index) and every successful row mutation are
    /// reported to it. `Storage::open` attaches its WAL writer to the
    /// freshly recovered catalog before services subscribe caches, so
    /// durability always sees a mutation before any cache reacts.
    pub fn add_observer(&self, observer: Arc<dyn MutationObserver>) {
        let composed: Arc<dyn MutationObserver> = {
            let mut slot = self.observer.write();
            let composed: Arc<dyn MutationObserver> = match slot.get() {
                Some(existing) => {
                    Arc::new(CompositeObserver::new(vec![Arc::clone(existing), observer]))
                }
                None => observer,
            };
            *slot = ObserverSlot(Some(Arc::clone(&composed)));
            composed
        };
        self.propagate_observer(composed);
    }

    fn propagate_observer(&self, observer: Arc<dyn MutationObserver>) {
        let _commit = self.publish.read();
        for cell in self.inner.read().values() {
            let mut image = cell.write();
            Arc::make_mut(&mut image).set_observer(Some(observer.clone()));
        }
    }

    /// Create a table. `pk_columns` are positions into `schema`.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        pk_columns: Vec<usize>,
    ) -> RelResult<()> {
        self.reject_frozen()?;
        let key = name.to_ascii_lowercase();
        if self.providers.read().contains_key(&key) {
            return Err(RelError::TableExists(name.to_owned()));
        }
        let _commit = self.publish.read();
        let mut tables = self.inner.write();
        if tables.contains_key(&key) {
            return Err(RelError::TableExists(name.to_owned()));
        }
        let mut table = Table::new(name, schema.clone(), pk_columns.clone());
        let observer = self.observer.read().get().cloned();
        if let Some(obs) = &observer {
            table.set_observer(Some(obs.clone()));
        }
        tables.insert(key, Arc::new(RwLock::new(Arc::new(table))));
        drop(tables);
        self.bump_flow_gen();
        if let Some(obs) = observer {
            obs.on_create_table(name, &schema, &pk_columns);
        }
        Ok(())
    }

    /// Install a fully-built table (crash recovery: snapshots restore
    /// tables wholesale). No DDL event is emitted and no observer is
    /// attached — the recovery driver attaches it once replay finishes.
    pub fn install_table(&self, table: Table) -> RelResult<()> {
        self.reject_frozen()?;
        let _commit = self.publish.read();
        let mut tables = self.inner.write();
        let key = table.name().to_ascii_lowercase();
        if tables.contains_key(&key) {
            return Err(RelError::TableExists(table.name().to_owned()));
        }
        tables.insert(key, Arc::new(RwLock::new(Arc::new(table))));
        self.bump_flow_gen();
        Ok(())
    }

    /// Register a virtual table: a [`ScanProvider`] whose rows are
    /// computed at scan time. Reads resolve it like a base table (the
    /// standard plan path applies); writes and DROP are rejected, and
    /// it never appears in [`Catalog::table_names`], so persistence
    /// layers never try to snapshot it.
    pub fn register_scan_provider(
        &self,
        name: &str,
        provider: Arc<dyn ScanProvider>,
    ) -> RelResult<()> {
        let key = name.to_ascii_lowercase();
        if self.inner.read().contains_key(&key) {
            return Err(RelError::TableExists(name.to_owned()));
        }
        let mut providers = self.providers.write();
        if providers.contains_key(&key) {
            return Err(RelError::TableExists(name.to_owned()));
        }
        providers.insert(key, provider);
        drop(providers);
        self.bump_flow_gen();
        Ok(())
    }

    fn provider(&self, name: &str) -> Option<Arc<dyn ScanProvider>> {
        let providers = self.providers.read();
        if providers.is_empty() {
            return None; // common case: no virtual tables registered
        }
        providers.get(&name.to_ascii_lowercase()).cloned()
    }

    /// Materialize a provider's current rows as a transient read-only
    /// [`Table`] (no observer, no secondary indexes). The version is a
    /// fresh [`Catalog::virtual_tick`] so dependent caches always see
    /// a change.
    fn materialize(&self, name: &str, provider: &dyn ScanProvider) -> RelResult<Table> {
        let rows = provider.rows()?;
        let slots = rows.into_iter().map(Some).collect();
        let version = self.virtual_tick.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(Table::restore(
            name,
            provider.schema(),
            vec![],
            slots,
            version,
        ))
    }

    /// Drop a table.
    pub fn drop_table(&self, name: &str) -> RelResult<()> {
        self.reject_frozen()?;
        if self.provider(name).is_some() {
            return Err(RelError::Invalid(format!(
                "system table {name} cannot be dropped"
            )));
        }
        let _commit = self.publish.read();
        let mut tables = self.inner.write();
        let removed = tables.remove(&name.to_ascii_lowercase());
        drop(tables);
        match removed {
            Some(_) => {
                self.bump_flow_gen();
                if let Some(obs) = self.observer.read().get() {
                    obs.on_drop_table(name);
                }
                Ok(())
            }
            None => Err(RelError::UnknownTable(name.to_owned())),
        }
    }

    fn handle(&self, name: &str) -> RelResult<TableCell> {
        let tables = self.inner.read();
        // Table resolution sits on hot paths (execution, plan validation);
        // lowercase the lookup key on the stack instead of allocating a
        // String per call when the name fits.
        let mut buf = [0u8; 64];
        let found = if name.is_ascii() && name.len() <= buf.len() {
            let key = &mut buf[..name.len()];
            key.copy_from_slice(name.as_bytes());
            key.make_ascii_lowercase();
            std::str::from_utf8(key).ok().and_then(|k| tables.get(k))
        } else {
            tables.get(&name.to_ascii_lowercase())
        };
        found
            .cloned()
            .ok_or_else(|| RelError::UnknownTable(name.to_owned()))
    }

    /// Pin the current immutable image of a base table. The cell lock is
    /// held only for the pointer clone; the returned image can never
    /// change (writers copy-on-write), so callers read without blocking
    /// writers and without any torn state *within* the table.
    pub fn pin_table(&self, name: &str) -> RelResult<Arc<Table>> {
        self.handle(name).map(|cell| Arc::clone(&cell.read()))
    }

    /// Run a closure with read access to a table. The closure executes
    /// against a pinned immutable image — no lock is held while it runs.
    /// A virtual table is materialized from its provider for the
    /// duration of the call.
    pub fn with_table<R>(&self, name: &str, f: impl FnOnce(&Table) -> R) -> RelResult<R> {
        match self.pin_table(name) {
            Ok(image) => Ok(f(&image)),
            Err(unknown) => match self.provider(name) {
                Some(p) => Ok(f(&self.materialize(name, p.as_ref())?)),
                None => Err(unknown),
            },
        }
    }

    /// Run a closure with write access to a table. The mutation is
    /// copy-on-write: in place while the image is unshared (no live
    /// snapshot pins it), against a private clone otherwise — one that
    /// shares every row chunk and index shard the closure does not
    /// write — and pinned readers keep the pre-write image either way.
    /// Virtual tables are read-only and reject this; so do frozen
    /// snapshot handles.
    pub fn with_table_mut<R>(&self, name: &str, f: impl FnOnce(&mut Table) -> R) -> RelResult<R> {
        self.reject_frozen()?;
        match self.handle(name) {
            Ok(cell) => {
                // Shared hold on `publish`: concurrent writers on other
                // tables proceed, but a snapshot (exclusive hold) can
                // never cut between this mutation's WAL emission (inside
                // `f`, under the cell lock) and its publication here.
                let _commit = self.publish.read();
                let mut image = cell.write();
                Ok(f(Arc::make_mut(&mut image)))
            }
            Err(unknown) => match self.provider(name) {
                Some(_) => Err(RelError::Invalid(format!(
                    "system table {name} is read-only"
                ))),
                None => Err(unknown),
            },
        }
    }

    /// Pin every base table at one instant and return a frozen, fully
    /// read-only view of the catalog. Writers are excluded only while
    /// the pointers are cloned (O(#tables), no data is copied); requests
    /// then execute against the snapshot with no locks and observe a
    /// single consistent cut across all tables, regardless of how many
    /// mutations land meanwhile.
    pub fn snapshot(&self) -> CatalogSnapshot {
        let mut pinned = BTreeMap::new();
        let mut versions = BTreeMap::new();
        {
            // Exclusive vs. writers' shared holds: no mutation is
            // mid-flight while the cut is taken.
            let _cut = self.publish.write();
            for (name, cell) in self.inner.read().iter() {
                let image = Arc::clone(&cell.read());
                versions.insert(name.clone(), image.version());
                pinned.insert(name.clone(), Arc::new(RwLock::new(image)));
            }
        }
        let catalog = Catalog {
            inner: Arc::new(RwLock::new(pinned)),
            // Snapshot tables are never mutated, so no observer: even if
            // one were attached later it could never fire.
            observer: Arc::new(RwLock::new(ObserverSlot::default())),
            // Virtual tables stay live: telemetry is explicitly
            // point-in-time-of-scan, never part of the data cut.
            providers: Arc::clone(&self.providers),
            virtual_tick: Arc::clone(&self.virtual_tick),
            publish: Arc::new(RwLock::new(())),
            // Labels travel with the data: a frozen read view enforces
            // exactly the live catalog's flow policy. The flow caches
            // travel too; the snapshot pins the generation at the cut,
            // so entries stamped now stay valid for its frozen schemas.
            flow: Arc::clone(&self.flow),
            flow_cache: Arc::clone(&self.flow_cache),
            flow_decisions: Arc::clone(&self.flow_decisions),
            flow_gen: Arc::clone(&self.flow_gen),
            flow_gen_pin: Some(self.flow_gen_now()),
            frozen: true,
        };
        CatalogSnapshot {
            catalog,
            versions: Arc::new(versions),
        }
    }

    /// Schema of a table (cloned). Virtual tables answer from their
    /// provider without materializing any rows (binders and validators
    /// call this on every scan).
    pub fn table_schema(&self, name: &str) -> RelResult<Schema> {
        match self.handle(name) {
            Ok(cell) => Ok(cell.read().schema().clone()),
            Err(unknown) => match self.provider(name) {
                Some(p) => Ok(p.schema()),
                None => Err(unknown),
            },
        }
    }

    /// Live row count.
    pub fn table_len(&self, name: &str) -> RelResult<usize> {
        self.with_table(name, Table::len)
    }

    /// Monotonic mutation counter for a table (see [`Table::version`]).
    /// Result caches snapshot these per dependency and treat any change
    /// as an invalidation. Virtual tables answer with a fresh tick on
    /// every call — telemetry is never cacheable.
    pub fn table_version(&self, name: &str) -> RelResult<u64> {
        match self.handle(name) {
            Ok(cell) => Ok(cell.read().version()),
            Err(unknown) => match self.provider(name) {
                Some(_) => Ok(self.virtual_tick.fetch_add(1, Ordering::Relaxed) + 1),
                None => Err(unknown),
            },
        }
    }

    /// True if a table (base or virtual) exists.
    pub fn has_table(&self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        self.inner.read().contains_key(&key) || self.providers.read().contains_key(&key)
    }

    /// All **base** table names, sorted. Virtual tables are deliberately
    /// excluded: persistence (snapshots) iterates this list, and
    /// telemetry must never be written to disk as data.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.read().keys().cloned().collect()
    }

    /// All virtual (scan-provider) table names, sorted.
    pub fn virtual_table_names(&self) -> Vec<String> {
        self.providers.read().keys().cloned().collect()
    }

    // ------------------------------------------------------------------
    // Information-flow policy (see `plan::flow`)
    // ------------------------------------------------------------------

    /// Register (or replace) a table's sensitivity-label policy. Tables
    /// without a policy are `Public`. Shared by clones and snapshots.
    pub fn set_table_policy(&self, table: &str, policy: TablePolicy) {
        self.flow.write().set_table(table, policy);
        self.flow_cache.write().clear();
        self.flow_decisions.write().clear();
    }

    /// The flow policy of one table, if registered.
    pub fn table_policy(&self, table: &str) -> Option<TablePolicy> {
        self.flow.read().table(table).cloned()
    }

    /// The current flow-cache generation: the snapshot pin when frozen,
    /// the live counter otherwise. Builders must capture it *before*
    /// reading the schema they build from, so a concurrent DDL leaves
    /// their entry stamped stale (a miss), never stale-but-fresh.
    pub(crate) fn flow_gen_now(&self) -> u64 {
        self.flow_gen_pin
            .unwrap_or_else(|| self.flow_gen.load(Ordering::Relaxed))
    }

    fn bump_flow_gen(&self) {
        self.flow_gen.fetch_add(1, Ordering::Relaxed);
    }

    /// Cached flow scan template for `table`, if stamped at the current
    /// generation (anything else is a miss and will be rebuilt).
    pub(crate) fn flow_template(&self, table: &str) -> Option<Arc<plan::flow::ScanTemplate>> {
        let gen = self.flow_gen_now();
        let cache = self.flow_cache.read();
        // Same stack-lowercasing trick as `handle`: this sits on the
        // per-query disclosure-check path.
        let mut buf = [0u8; 64];
        let hit = if table.is_ascii() && table.len() <= buf.len() {
            let key = &mut buf[..table.len()];
            key.copy_from_slice(table.as_bytes());
            key.make_ascii_lowercase();
            std::str::from_utf8(key).ok().and_then(|k| cache.get(k))
        } else {
            cache.get(&table.to_ascii_lowercase())
        };
        match hit {
            Some((g, t)) if *g == gen => Some(Arc::clone(t)),
            _ => None,
        }
    }

    /// Memoize a flow scan template (key already lowercased) built under
    /// generation `gen` (captured before the schema read).
    pub(crate) fn store_flow_template(
        &self,
        key: String,
        gen: u64,
        t: Arc<plan::flow::ScanTemplate>,
    ) {
        self.flow_cache.write().insert(key, (gen, t));
    }

    /// Cached disclosure decision for `(principal, sql)`, if stamped at
    /// the current generation.
    pub(crate) fn flow_decision(&self, gen: u64, key: &str) -> Option<Arc<plan::ValidationReport>> {
        match self.flow_decisions.read().get(key) {
            Some((g, r)) if *g == gen => Some(Arc::clone(r)),
            _ => None,
        }
    }

    /// Memoize a disclosure decision. The map is bounded: a pathological
    /// stream of distinct query texts clears it rather than growing it.
    pub(crate) fn store_flow_decision(
        &self,
        key: String,
        gen: u64,
        report: Arc<plan::ValidationReport>,
    ) {
        let mut map = self.flow_decisions.write();
        if map.len() >= 1024 {
            map.clear();
        }
        map.insert(key, (gen, report));
    }

    /// Run a closure against a table's schema without cloning it (base
    /// tables; provider schemas are still built on demand).
    pub fn with_table_schema<R>(&self, name: &str, f: impl FnOnce(&Schema) -> R) -> RelResult<R> {
        match self.handle(name) {
            Ok(cell) => {
                let image = cell.read();
                Ok(f(image.schema()))
            }
            Err(unknown) => match self.provider(name) {
                Some(p) => Ok(f(&p.schema())),
                None => Err(unknown),
            },
        }
    }
}

/// A pinned, immutable, cross-table-consistent view of a [`Catalog`].
///
/// Produced by [`Catalog::snapshot`]. The inner catalog handle answers
/// every read API (`with_table`, plans, SQL) from the pinned images and
/// rejects every mutation; [`CatalogSnapshot::versions`] is the version
/// vector at the cut, which is exactly what version-keyed result caches
/// use as their dependency stamp — a value computed against this
/// snapshot may be cached under these versions.
#[derive(Clone)]
pub struct CatalogSnapshot {
    catalog: Catalog,
    versions: Arc<BTreeMap<String, u64>>,
}

impl std::fmt::Debug for CatalogSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CatalogSnapshot")
            .field("versions", &self.versions)
            .finish()
    }
}

impl CatalogSnapshot {
    /// The frozen catalog handle (cheap clone; read-only).
    pub fn catalog(&self) -> Catalog {
        self.catalog.clone()
    }

    /// Per-table mutation-counter versions at the instant of the cut.
    pub fn versions(&self) -> &BTreeMap<String, u64> {
        &self.versions
    }

    /// Version of one table at the cut (`None` if it did not exist).
    pub fn version_of(&self, table: &str) -> Option<u64> {
        self.versions.get(&table.to_ascii_lowercase()).copied()
    }

    /// A [`Database`] facade over the snapshot: the full read path (SQL,
    /// plans, EXPLAIN) works; DML and DDL return an error.
    pub fn database(&self) -> Database {
        Database::from_catalog(self.catalog())
    }
}

/// The database facade: a catalog plus the SQL and plan entry points.
///
/// ```
/// use cr_relation::Database;
/// let db = Database::new();
/// db.execute_sql("CREATE TABLE t (x INT)").unwrap();
/// db.execute_sql("INSERT INTO t VALUES (1),(2),(3)").unwrap();
/// let n = db.query_sql("SELECT COUNT(*) AS n FROM t").unwrap();
/// assert_eq!(n.scalar().unwrap().as_int().unwrap(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Database {
    catalog: Catalog,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an existing catalog (crash recovery hands back a catalog
    /// rebuilt from snapshot + WAL; this puts the SQL/plan facade on it).
    pub fn from_catalog(catalog: Catalog) -> Self {
        Database { catalog }
    }

    /// The execution options every entry point on this handle runs with:
    /// always [`exec::ExecOptions::default`].
    pub fn exec_options(&self) -> exec::ExecOptions {
        exec::ExecOptions::default()
    }

    /// The underlying catalog (cheap clone; shares data).
    pub fn catalog(&self) -> Catalog {
        self.catalog.clone()
    }

    /// Pin a cross-table-consistent snapshot and wrap it in a read-only
    /// `Database`. See [`Catalog::snapshot`].
    pub fn snapshot(&self) -> (Database, CatalogSnapshot) {
        let snap = self.catalog.snapshot();
        (snap.database(), snap)
    }

    /// True if this handle wraps a frozen [`CatalogSnapshot`].
    pub fn is_snapshot(&self) -> bool {
        self.catalog.is_frozen()
    }

    /// Execute any SQL statement. For queries, returns the result set; for
    /// DDL/DML, returns a result set with an `affected` count column.
    pub fn execute_sql(&self, text: &str) -> RelResult<ResultSet> {
        sql::execute(text, &self.catalog)
    }

    /// Execute a SQL query (errors if the statement is not a SELECT).
    pub fn query_sql(&self, text: &str) -> RelResult<ResultSet> {
        sql::query(text, &self.catalog)
    }

    /// Statically check a plan against this database's catalog: structural
    /// and type invariants plus dataflow warnings (contradictory filters,
    /// unused extends, cartesian joins, …). Never executes anything.
    pub fn validate_plan(&self, plan: &LogicalPlan) -> plan::ValidationReport {
        plan::analyze(plan, Some(&self.catalog))
    }

    /// Statically prove (or refute) that the plan's output may be shown to
    /// `principal` under the catalog's sensitivity labels. An empty report
    /// is the proof; violations carry stable P-codes. Never executes
    /// anything. See [`plan::flow::check_disclosure`].
    pub fn check_disclosure(
        &self,
        plan: &LogicalPlan,
        principal: &Principal,
    ) -> plan::ValidationReport {
        plan::flow::check_disclosure(plan, &self.catalog, principal)
    }

    /// Run a logical plan (optimizing first).
    pub fn run_plan(&self, plan: &LogicalPlan) -> RelResult<ResultSet> {
        let optimized = optimizer::optimize(plan.clone());
        exec::execute(&optimized, &self.catalog)
    }

    /// Run a logical plan (optimizing first) with per-operator profiling.
    pub fn run_plan_instrumented(
        &self,
        plan: &LogicalPlan,
    ) -> RelResult<(ResultSet, crate::profile::OpProfile)> {
        let optimized = optimizer::optimize(plan.clone());
        exec::execute_instrumented(&optimized, &self.catalog)
    }

    /// `EXPLAIN ANALYZE` for a SQL query: executes it with per-operator
    /// profiling and returns the result set plus the annotated plan tree
    /// (rows, elapsed time, access paths, join algorithms per node).
    pub fn explain_analyze_sql(
        &self,
        text: &str,
    ) -> RelResult<(ResultSet, crate::profile::OpProfile)> {
        let plan = sql::plan_query(text, &self.catalog)?;
        exec::execute_instrumented(&plan, &self.catalog)
    }

    /// Run a logical plan exactly as given (for optimizer A/B tests).
    pub fn run_plan_unoptimized(&self, plan: &LogicalPlan) -> RelResult<ResultSet> {
        exec::execute(plan, &self.catalog)
    }

    /// Insert a row programmatically.
    pub fn insert(&self, table: &str, row: Row) -> RelResult<RowId> {
        self.catalog.with_table_mut(table, |t| t.insert(row))?
    }

    /// Insert many rows programmatically (single write lock), all or
    /// nothing: every row is checked before the first is inserted.
    pub fn insert_many(&self, table: &str, rows: Vec<Row>) -> RelResult<usize> {
        let n = rows.len();
        let writes = rows.into_iter().map(Write::Insert).collect();
        self.catalog.with_table_mut(table, |t| t.apply(writes))??;
        Ok(n)
    }

    /// Create a hash index.
    pub fn create_index(
        &self,
        table: &str,
        index_name: &str,
        columns: &[&str],
        unique: bool,
    ) -> RelResult<()> {
        self.create_index_kind(table, index_name, columns, IndexKind::Hash, unique)
    }

    /// Create a B-tree index (supports range scans).
    pub fn create_btree_index(
        &self,
        table: &str,
        index_name: &str,
        columns: &[&str],
        unique: bool,
    ) -> RelResult<()> {
        self.create_index_kind(table, index_name, columns, IndexKind::BTree, unique)
    }

    fn create_index_kind(
        &self,
        table: &str,
        index_name: &str,
        columns: &[&str],
        kind: IndexKind,
        unique: bool,
    ) -> RelResult<()> {
        self.catalog.with_table_mut(table, |t| {
            let positions = columns
                .iter()
                .map(|c| t.schema().index_of(c))
                .collect::<RelResult<Vec<_>>>()?;
            t.create_index(index_name, positions, kind, unique)
        })?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::row;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    #[test]
    fn create_and_drop() {
        let c = Catalog::new();
        let s = Schema::new(vec![Column::new("x", DataType::Int)]);
        c.create_table("t", s.clone(), vec![]).unwrap();
        assert!(c.has_table("t"));
        assert!(c.has_table("T")); // case-insensitive
        assert!(matches!(
            c.create_table("T", s, vec![]),
            Err(RelError::TableExists(_))
        ));
        c.drop_table("t").unwrap();
        assert!(!c.has_table("t"));
        assert!(matches!(c.drop_table("t"), Err(RelError::UnknownTable(_))));
    }

    #[test]
    fn clones_share_state() {
        let c = Catalog::new();
        c.create_table(
            "t",
            Schema::new(vec![Column::new("x", DataType::Int)]),
            vec![],
        )
        .unwrap();
        let c2 = c.clone();
        c2.with_table_mut("t", |t| t.insert(row![1i64]).unwrap())
            .unwrap();
        assert_eq!(c.table_len("t").unwrap(), 1);
    }

    /// A batch whose last row takes an existing key inserts none of it.
    #[test]
    fn insert_many_is_all_or_nothing() {
        let db = Database::new();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        db.insert("t", row![2i64, 0i64]).unwrap();
        let catalog = db.catalog();
        let (len, version) = (catalog.table_len("t"), catalog.table_version("t"));
        assert!(matches!(
            db.insert_many(
                "t",
                vec![row![1i64, 0i64], row![3i64, 0i64], row![2i64, 1i64]]
            ),
            Err(RelError::DuplicateKey(_))
        ));
        assert_eq!(catalog.table_len("t"), len);
        assert_eq!(catalog.table_version("t"), version);
    }

    #[test]
    fn database_insert_and_delete_where() {
        let db = Database::new();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        db.insert_many(
            "t",
            vec![row![1i64, 10i64], row![2i64, 20i64], row![3i64, 30i64]],
        )
        .unwrap();
        let rs = db.execute_sql("DELETE FROM t WHERE v >= 20").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(2)));
        let rs = db.query_sql("SELECT COUNT(*) AS n FROM t").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn concurrent_readers() {
        use std::thread;
        let db = Database::new();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY)")
            .unwrap();
        for i in 0..100 {
            db.insert("t", row![i as i64]).unwrap();
        }
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let db = db.clone();
                thread::spawn(move || {
                    let rs = db.query_sql("SELECT COUNT(*) AS n FROM t").unwrap();
                    rs.scalar().unwrap().as_int().unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 100);
        }
    }

    #[test]
    fn snapshot_pins_state_and_rejects_writes() {
        let db = Database::new();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        db.insert("t", row![1i64, 10i64]).unwrap();
        let snap = db.catalog().snapshot();
        assert_eq!(snap.version_of("t"), Some(1));
        assert!(snap.catalog().is_frozen());

        // Live catalog moves on; the snapshot does not.
        db.insert("t", row![2i64, 20i64]).unwrap();
        db.execute_sql("UPDATE t SET v = 99 WHERE id = 1").unwrap();
        assert_eq!(db.catalog().table_len("t").unwrap(), 2);
        assert_eq!(snap.catalog().table_len("t").unwrap(), 1);
        let rs = snap
            .database()
            .query_sql("SELECT v FROM t WHERE id = 1")
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(10)));
        assert_eq!(snap.catalog().table_version("t").unwrap(), 1);

        // Every mutation path is rejected on the frozen handle.
        let sdb = snap.database();
        assert!(sdb.is_snapshot());
        assert!(sdb.insert("t", row![3i64, 30i64]).is_err());
        assert!(sdb.execute_sql("INSERT INTO t VALUES (3, 30)").is_err());
        assert!(sdb.execute_sql("DELETE FROM t").is_err());
        assert!(sdb.execute_sql("CREATE TABLE u (x INT)").is_err());
        assert!(snap.catalog().drop_table("t").is_err());
        // ... and the live data is untouched by the attempts.
        assert_eq!(db.catalog().table_len("t").unwrap(), 2);
    }

    #[test]
    fn snapshot_is_a_consistent_cut_across_tables() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::thread;
        let db = Database::new();
        db.execute_sql("CREATE TABLE a (id INT PRIMARY KEY)")
            .unwrap();
        db.execute_sql("CREATE TABLE b (id INT PRIMARY KEY)")
            .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let written = Arc::new(AtomicBool::new(false));
        // Writer invariant: a row lands in `b` strictly before its twin
        // lands in `a`, so in any atomic cut len(b) >= len(a).
        let writer = {
            let db = db.clone();
            let stop = Arc::clone(&stop);
            let written = Arc::clone(&written);
            thread::spawn(move || {
                let mut i = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    db.insert("b", row![i]).unwrap();
                    db.insert("a", row![i]).unwrap();
                    i += 1;
                    written.store(true, Ordering::Relaxed);
                }
            })
        };
        // At least 200 cuts, and keep cutting until the writer has run
        // under them — on a busy host the first 200 can finish before the
        // writer thread is first scheduled.
        let mut cuts = 0;
        while cuts < 200 || !written.load(Ordering::Relaxed) {
            let snap = db.catalog().snapshot();
            let a = snap.catalog().table_len("a").unwrap();
            // Deliberately read the tables in the hazardous order.
            let b = snap.catalog().table_len("b").unwrap();
            assert!(b >= a, "torn snapshot: len(a)={a} > len(b)={b}");
            cuts += 1;
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn pinned_readers_keep_their_image_while_writers_proceed() {
        let c = Catalog::new();
        c.create_table(
            "t",
            Schema::new(vec![Column::new("x", DataType::Int)]),
            vec![],
        )
        .unwrap();
        c.with_table_mut("t", |t| t.insert(row![1i64]).unwrap())
            .unwrap();
        let pinned = c.pin_table("t").unwrap();
        assert_eq!(pinned.len(), 1);
        // COW: the write happens against a private clone because the pin
        // shares the image; the pin is unaffected.
        c.with_table_mut("t", |t| t.insert(row![2i64]).unwrap())
            .unwrap();
        assert_eq!(pinned.len(), 1);
        assert_eq!(pinned.version(), 1);
        assert_eq!(c.table_len("t").unwrap(), 2);
        assert_eq!(c.table_version("t").unwrap(), 2);
        // With the pin dropped, writes go back to mutating in place.
        drop(pinned);
        c.with_table_mut("t", |t| t.insert(row![3i64]).unwrap())
            .unwrap();
        assert_eq!(c.table_len("t").unwrap(), 3);
    }

    #[test]
    fn concurrent_writers_distinct_tables() {
        use std::thread;
        let db = Database::new();
        db.execute_sql("CREATE TABLE a (id INT PRIMARY KEY)")
            .unwrap();
        db.execute_sql("CREATE TABLE b (id INT PRIMARY KEY)")
            .unwrap();
        let mut handles = Vec::new();
        for (table, base) in [("a", 0i64), ("b", 1000i64)] {
            let db = db.clone();
            handles.push(thread::spawn(move || {
                for i in 0..200 {
                    db.insert(table, row![base + i]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.catalog().table_len("a").unwrap(), 200);
        assert_eq!(db.catalog().table_len("b").unwrap(), 200);
    }
}
