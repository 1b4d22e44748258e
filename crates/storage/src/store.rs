//! The storage engine: recovery on open, WAL logging of live mutations,
//! checkpointing, and pruning.
//!
//! ## Recovery algorithm
//!
//! 1. Pick the newest snapshot that decodes cleanly (corrupt ones are
//!    skipped, falling back to older snapshots, then to "no snapshot").
//! 2. Restore its tables into a fresh catalog.
//! 3. Replay WAL files starting at the `(seq, offset)` the snapshot
//!    names (or `wal-00000000.log` offset 0 with no snapshot), walking
//!    consecutive files until one is missing or torn.
//! 4. On a torn/corrupt frame: truncate that file to its valid prefix
//!    and delete every later WAL file. The surviving log is a prefix of
//!    the logical mutation history.
//!
//! Replay is idempotent — records at positions between the snapshot's
//! captured offset and the moment its table images were encoded may
//! already be reflected in those images, so `replay_*` treat
//! "already applied" (occupied slot, missing row, existing table/index)
//! as a skip, not an error. Corruption is detected by CRC at the frame
//! level, *before* a record is ever interpreted.
//!
//! ## Locking
//!
//! Mutations reach `Storage::log` while holding their table's write
//! lock, and `log` takes the WAL mutex — so per-table WAL order equals
//! apply order. The WAL mutex is never held while acquiring table
//! locks: [`Storage::checkpoint`] captures the WAL position, releases
//! the mutex, and only then reads tables. No lock-order cycle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use cr_relation::mutation::{Mutation, MutationObserver};
use cr_relation::row::RowId;
use cr_relation::schema::Schema;
use cr_relation::{Catalog, Database, RelError};

use crate::backend::StorageBackend;
use crate::snapshot::{
    self, encode_snapshot, parse_snapshot_seq, peek_wal_position, snapshot_file_name,
};
use crate::wal::{parse_wal_seq, scan, wal_file_name, Wal, WalConfig, WalRecord};
use crate::{StorageError, StorageResult};

/// Storage engine tuning.
#[derive(Debug, Clone, Copy)]
pub struct StorageConfig {
    pub wal: WalConfig,
    /// Snapshots retained after a checkpoint (older ones and the WAL
    /// files only they reference are deleted). Keeping ≥2 means a
    /// corrupt latest snapshot still leaves a recovery path.
    pub snapshots_to_keep: usize,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            wal: WalConfig::default(),
            snapshots_to_keep: 2,
        }
    }
}

/// What recovery found and did. Returned by [`Storage::open`] and
/// mirrored into `storage.replay.*` / `storage.recovery.*` metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence of the snapshot restored, if any.
    pub snapshot_seq: Option<u64>,
    /// Snapshots that failed validation and were skipped.
    pub corrupt_snapshots_skipped: u64,
    /// WAL records applied during replay.
    pub replayed_records: u64,
    /// WAL bytes walked during replay.
    pub replayed_bytes: u64,
    /// Records recognized as already reflected by the snapshot
    /// (checkpoint-overlap artifacts) and skipped.
    pub skipped_records: u64,
    /// Bytes cut from the torn/corrupt WAL tail, if any.
    pub truncated_bytes: u64,
}

struct StoreMetrics {
    recovery_runs: Arc<cr_obs::Counter>,
    recovery_ns: Arc<cr_obs::Histogram>,
    replay_records: Arc<cr_obs::Counter>,
    replay_bytes: Arc<cr_obs::Counter>,
    replay_skipped: Arc<cr_obs::Counter>,
    replay_truncated_bytes: Arc<cr_obs::Counter>,
    snapshot_writes: Arc<cr_obs::Counter>,
    snapshot_bytes: Arc<cr_obs::Counter>,
    snapshot_ns: Arc<cr_obs::Histogram>,
    errors: Arc<cr_obs::Counter>,
}

impl StoreMetrics {
    fn new() -> Self {
        let reg = cr_obs::Registry::global();
        StoreMetrics {
            recovery_runs: reg.counter("storage.recovery.runs"),
            recovery_ns: reg.histogram("storage.recovery.ns"),
            replay_records: reg.counter("storage.replay.records"),
            replay_bytes: reg.counter("storage.replay.bytes"),
            replay_skipped: reg.counter("storage.replay.skipped"),
            replay_truncated_bytes: reg.counter("storage.replay.truncated_bytes"),
            snapshot_writes: reg.counter("storage.snapshot.writes"),
            snapshot_bytes: reg.counter("storage.snapshot.bytes"),
            snapshot_ns: reg.histogram("storage.snapshot.ns"),
            errors: reg.counter("storage.errors"),
        }
    }
}

/// The durability engine. Created by [`Storage::open`]; installed as the
/// catalog's [`MutationObserver`] so logging is transparent to callers.
pub struct Storage {
    backend: Arc<dyn StorageBackend>,
    cfg: StorageConfig,
    catalog: Catalog,
    wal: Mutex<Wal>,
    /// Serializes checkpoints (the WAL mutex alone can't: it is released
    /// between position capture and rotation).
    checkpoint_lock: Mutex<()>,
    next_snapshot_seq: AtomicU64,
    /// First WAL-append failure, kept so callers can notice that
    /// durability silently degraded (the observer hook is infallible).
    last_error: Mutex<Option<String>>,
    metrics: StoreMetrics,
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (seq, offset) = self.wal_position();
        f.debug_struct("Storage")
            .field("wal_seq", &seq)
            .field("wal_offset", &offset)
            .field("last_error", &*self.last_error.lock())
            .finish_non_exhaustive()
    }
}

impl Storage {
    /// Recover state from `backend` and return the engine, a
    /// [`Database`] over the recovered catalog (observer installed —
    /// every mutation from here on is WAL-logged), and what recovery
    /// found.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        cfg: StorageConfig,
    ) -> StorageResult<(Arc<Storage>, Database, RecoveryReport)> {
        let metrics = StoreMetrics::new();
        let mut span = cr_obs::trace::TraceSpan::child("storage.recover");
        let observing = cr_obs::enabled();
        let t0 = observing.then(Instant::now);
        let mut report = RecoveryReport::default();

        let files = backend.list()?;
        let catalog = Catalog::new();

        // 1–2. Newest decodable snapshot.
        let mut snapshot_seqs: Vec<u64> =
            files.iter().filter_map(|f| parse_snapshot_seq(f)).collect();
        snapshot_seqs.sort_unstable();
        let max_snapshot_seq = snapshot_seqs.last().copied();
        let mut restored: Option<(u64, u64, u64)> = None; // (snap_seq, wal_seq, wal_offset)
        for &seq in snapshot_seqs.iter().rev() {
            let Some(data) = backend.read(&snapshot_file_name(seq))? else {
                continue;
            };
            match snapshot::decode_snapshot(&data) {
                Ok(snap) => {
                    for table in snap.tables {
                        catalog.install_table(table)?;
                    }
                    restored = Some((seq, snap.wal_seq, snap.wal_offset));
                    break;
                }
                Err(_) => report.corrupt_snapshots_skipped += 1,
            }
        }
        report.snapshot_seq = restored.map(|(s, _, _)| s);

        // 3–4. Replay the WAL chain.
        let (start_seq, start_offset) = match restored {
            Some((_, wal_seq, wal_offset)) => (wal_seq, wal_offset),
            None => {
                let first = files.iter().filter_map(|f| parse_wal_seq(f)).min();
                (first.unwrap_or(0), 0)
            }
        };
        let mut seq = start_seq;
        let mut offset = start_offset;
        let (resume_seq, resume_offset) = loop {
            let file = wal_file_name(seq);
            let Some(data) = backend.read(&file)? else {
                if offset > 0 {
                    // The snapshot names a flushed position in this file;
                    // its absence means external tampering, and replaying
                    // anything further could apply records out of order.
                    return Err(StorageError::Corrupt(format!(
                        "{file} referenced by snapshot is missing"
                    )));
                }
                break (seq, 0);
            };
            if (offset as usize) > data.len() {
                return Err(StorageError::Corrupt(format!(
                    "{file} shorter ({}) than snapshot wal offset ({offset})",
                    data.len()
                )));
            }
            let scanned = scan(&data, offset as usize);
            report.replayed_bytes += scanned.valid_len - offset;
            for rec in scanned.records {
                if apply_record(&catalog, rec)? {
                    report.replayed_records += 1;
                } else {
                    report.skipped_records += 1;
                }
            }
            if scanned.torn {
                report.truncated_bytes += data.len() as u64 - scanned.valid_len;
                backend.truncate(&file, scanned.valid_len)?;
                // Everything past the torn frame is beyond the crash
                // point; later files (if any) would replay out of order.
                for f in &files {
                    if parse_wal_seq(f).is_some_and(|s| s > seq) {
                        report.truncated_bytes += backend.read(f)?.map_or(0, |d| d.len() as u64);
                        backend.remove(f)?;
                    }
                }
                break (seq, scanned.valid_len);
            }
            seq += 1;
            offset = 0;
        };

        if observing {
            metrics.recovery_runs.inc();
            metrics.replay_records.add(report.replayed_records);
            metrics.replay_bytes.add(report.replayed_bytes);
            metrics.replay_skipped.add(report.skipped_records);
            metrics.replay_truncated_bytes.add(report.truncated_bytes);
            if let Some(t0) = t0 {
                metrics.recovery_ns.record_duration(t0.elapsed());
            }
        }
        if span.is_recording() {
            span.attr("snapshot_seq", format!("{:?}", report.snapshot_seq));
            span.attr("replayed_records", report.replayed_records.to_string());
            span.attr("replayed_bytes", report.replayed_bytes.to_string());
            span.attr("truncated_bytes", report.truncated_bytes.to_string());
        }
        span.finish();

        let wal = Wal::new(backend.clone(), resume_seq, resume_offset, cfg.wal);
        let storage = Arc::new(Storage {
            backend,
            cfg,
            catalog: catalog.clone(),
            wal: Mutex::new(wal),
            checkpoint_lock: Mutex::new(()),
            next_snapshot_seq: AtomicU64::new(max_snapshot_seq.map_or(0, |s| s + 1)),
            last_error: Mutex::new(None),
            metrics,
        });
        catalog.set_observer(storage.clone());
        Ok((storage, Database::from_catalog(catalog), report))
    }

    /// The recovered catalog (shares data with the returned [`Database`]).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// `(wal file seq, byte offset)` of the current log end.
    pub fn wal_position(&self) -> (u64, u64) {
        self.wal.lock().position()
    }

    /// Flush buffered WAL frames (a no-op under `FsyncPolicy::Always`
    /// with `group_commit = 1`). Call before planned shutdown when using
    /// batched policies.
    pub fn flush(&self) -> StorageResult<()> {
        self.wal.lock().flush()
    }

    /// First WAL-append failure since open, if any. The mutation hook
    /// cannot fail, so errors park here; a caller that sees one should
    /// treat the store as no longer durable.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Write a snapshot, rotate the WAL, prune old snapshots and the WAL
    /// files only they referenced. Returns the new snapshot's sequence.
    pub fn checkpoint(&self) -> StorageResult<u64> {
        let _guard = self.checkpoint_lock.lock();
        let mut span = cr_obs::trace::TraceSpan::child("storage.checkpoint");
        let observing = cr_obs::enabled();
        let t0 = observing.then(Instant::now);
        // Capture a flushed position, then RELEASE the wal mutex before
        // touching table locks (see module docs on lock order).
        let (wal_seq, wal_offset) = {
            let mut wal = self.wal.lock();
            wal.flush()?;
            wal.position()
        };
        let data = encode_snapshot(&self.catalog, wal_seq, wal_offset);
        let snap_seq = self.next_snapshot_seq.fetch_add(1, Ordering::Relaxed);
        self.backend
            .write_atomic(&snapshot_file_name(snap_seq), &data)?;
        self.wal.lock().rotate()?;
        self.prune()?;
        if observing {
            self.metrics.snapshot_writes.inc();
            self.metrics.snapshot_bytes.add(data.len() as u64);
            if let Some(t0) = t0 {
                self.metrics.snapshot_ns.record_duration(t0.elapsed());
            }
        }
        if span.is_recording() {
            span.attr("snapshot_seq", snap_seq.to_string());
            span.attr("bytes", data.len().to_string());
        }
        Ok(snap_seq)
    }

    /// Delete snapshots beyond the retention count, then WAL files older
    /// than the oldest position any kept snapshot (or the live writer)
    /// still needs.
    fn prune(&self) -> StorageResult<()> {
        let files = self.backend.list()?;
        let mut snapshot_seqs: Vec<u64> =
            files.iter().filter_map(|f| parse_snapshot_seq(f)).collect();
        snapshot_seqs.sort_unstable();
        let keep = self.cfg.snapshots_to_keep.max(1);
        let cut = snapshot_seqs.len().saturating_sub(keep);
        let (drop_seqs, keep_seqs) = snapshot_seqs.split_at(cut);
        for &seq in drop_seqs {
            self.backend.remove(&snapshot_file_name(seq))?;
        }
        // A WAL file is needed from the oldest kept snapshot's position
        // onward; the live writer's file is always needed.
        let mut min_needed = self.wal.lock().position().0;
        for &seq in keep_seqs {
            if let Some(data) = self.backend.read(&snapshot_file_name(seq))? {
                if let Ok((wal_seq, _)) = peek_wal_position(&data) {
                    min_needed = min_needed.min(wal_seq);
                }
            }
        }
        for f in &files {
            if parse_wal_seq(f).is_some_and(|s| s < min_needed) {
                self.backend.remove(f)?;
            }
        }
        Ok(())
    }

    /// Append one record, parking any failure in `last_error` (the
    /// observer hook is infallible by design — see [`MutationObserver`]).
    fn log(&self, rec: WalRecord) {
        if let Err(e) = self.wal.lock().append(&rec) {
            if cr_obs::enabled() {
                self.metrics.errors.inc();
            }
            let mut slot = self.last_error.lock();
            if slot.is_none() {
                *slot = Some(e.to_string());
            }
        }
    }
}

impl MutationObserver for Storage {
    fn on_mutation(&self, table: &str, _schema: &Schema, mutation: &Mutation<'_>) {
        let rec = match mutation {
            Mutation::Insert { rid, row, .. } => WalRecord::Insert {
                table: table.to_owned(),
                rid: rid.0,
                row: (*row).clone(),
            },
            Mutation::Update {
                rid, row, old_row, ..
            } => WalRecord::Update {
                table: table.to_owned(),
                rid: rid.0,
                row: (*row).clone(),
                old: Some((*old_row).clone()),
            },
            Mutation::Delete { rid, row, .. } => WalRecord::Delete {
                table: table.to_owned(),
                rid: rid.0,
                old: Some((*row).clone()),
            },
            Mutation::CreateIndex {
                name,
                columns,
                kind,
                unique,
            } => WalRecord::CreateIndex {
                table: table.to_owned(),
                name: (*name).to_owned(),
                columns: columns.to_vec(),
                kind: *kind,
                unique: *unique,
            },
        };
        self.log(rec);
    }

    fn on_create_table(&self, name: &str, schema: &Schema, pk_columns: &[usize]) {
        self.log(WalRecord::CreateTable {
            table: name.to_owned(),
            schema: schema.clone(),
            pk_columns: pk_columns.to_vec(),
        });
    }

    fn on_drop_table(&self, name: &str) {
        self.log(WalRecord::DropTable {
            table: name.to_owned(),
        });
    }
}

/// Apply one replayed record. `Ok(true)` = applied, `Ok(false)` =
/// recognized as already reflected (checkpoint overlap) and skipped.
/// Only failures that overlap cannot explain propagate.
fn apply_record(catalog: &Catalog, rec: WalRecord) -> StorageResult<bool> {
    match rec {
        WalRecord::CreateTable {
            table,
            schema,
            pk_columns,
        } => match catalog.create_table(&table, schema, pk_columns) {
            Ok(()) => Ok(true),
            Err(RelError::TableExists(_)) => Ok(false),
            Err(e) => Err(e.into()),
        },
        WalRecord::DropTable { table } => match catalog.drop_table(&table) {
            Ok(()) => Ok(true),
            Err(RelError::UnknownTable(_)) => Ok(false),
            Err(e) => Err(e.into()),
        },
        WalRecord::CreateIndex {
            table,
            name,
            columns,
            kind,
            unique,
        } => match catalog.with_table_mut(&table, |t| t.create_index(&name, columns, kind, unique))
        {
            Ok(Ok(())) => Ok(true),
            Ok(Err(RelError::IndexExists(_) | RelError::DuplicateKey(_))) => Ok(false),
            Ok(Err(e)) => Err(e.into()),
            // Table dropped later in the overlap window.
            Err(RelError::UnknownTable(_)) => Ok(false),
            Err(e) => Err(e.into()),
        },
        WalRecord::Insert { table, rid, row } => {
            apply_dml(catalog, &table, |t| t.replay_insert(RowId(rid), row))
        }
        WalRecord::Update {
            table, rid, row, ..
        } => apply_dml(catalog, &table, |t| t.replay_update(RowId(rid), row)),
        WalRecord::Delete { table, rid, .. } => apply_dml(catalog, &table, |t| {
            t.replay_delete(RowId(rid));
            Ok(())
        }),
    }
}

fn apply_dml(
    catalog: &Catalog,
    table: &str,
    f: impl FnOnce(&mut cr_relation::table::Table) -> cr_relation::RelResult<()>,
) -> StorageResult<bool> {
    match catalog.with_table_mut(table, f) {
        Ok(Ok(())) => Ok(true),
        // "No such row" during replay means the record's effect (and its
        // undoing) is already inside the snapshot image: overlap skip.
        Ok(Err(RelError::Invalid(_))) => Ok(false),
        Ok(Err(e)) => Err(e.into()),
        // DML on a table dropped before the snapshot encoded: the drop
        // record follows later in this same WAL tail.
        Err(RelError::UnknownTable(_)) => Ok(false),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultyBackend, MemBackend};
    use crate::wal::FsyncPolicy;
    use cr_relation::row::row;
    use cr_relation::Value;

    fn open_mem(backend: &MemBackend) -> (Arc<Storage>, Database, RecoveryReport) {
        Storage::open(Arc::new(backend.clone()), StorageConfig::default()).unwrap()
    }

    fn seed_schema(db: &Database) {
        db.execute_sql("CREATE TABLE courses (id INT PRIMARY KEY, title TEXT)")
            .unwrap();
        db.create_btree_index("courses", "by_title", &["title"], false)
            .unwrap();
    }

    fn titles(db: &Database) -> Vec<String> {
        db.query_sql("SELECT title FROM courses ORDER BY id")
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].to_string())
            .collect()
    }

    #[test]
    fn fresh_store_recovers_from_wal_only() {
        let backend = MemBackend::new();
        {
            let (_st, db, report) = open_mem(&backend);
            assert_eq!(report, RecoveryReport::default());
            seed_schema(&db);
            db.insert("courses", row![1i64, "Databases"]).unwrap();
            db.insert("courses", row![2i64, "Compilers"]).unwrap();
        }
        // "Restart": recover from the same bytes, no snapshot ever taken.
        let (_st, db, report) = open_mem(&backend);
        assert_eq!(report.snapshot_seq, None);
        assert!(report.replayed_records >= 4); // DDL + index + 2 inserts
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(titles(&db), vec!["Databases", "Compilers"]);
        assert!(db
            .catalog()
            .with_table("courses", |t| t.index("by_title").is_some())
            .unwrap());
    }

    #[test]
    fn snapshot_plus_tail_replay() {
        let backend = MemBackend::new();
        {
            let (st, db, _) = open_mem(&backend);
            seed_schema(&db);
            db.insert("courses", row![1i64, "Databases"]).unwrap();
            st.checkpoint().unwrap();
            db.insert("courses", row![2i64, "Compilers"]).unwrap(); // tail
        }
        let (_st, db, report) = open_mem(&backend);
        assert_eq!(report.snapshot_seq, Some(0));
        assert_eq!(report.replayed_records, 1); // just the tail insert
        assert_eq!(titles(&db), vec!["Databases", "Compilers"]);
    }

    #[test]
    fn versions_survive_restart() {
        let backend = MemBackend::new();
        let v_before;
        {
            let (st, db, _) = open_mem(&backend);
            seed_schema(&db);
            db.insert("courses", row![1i64, "A"]).unwrap();
            st.checkpoint().unwrap();
            db.insert("courses", row![2i64, "B"]).unwrap();
            v_before = db.catalog().table_version("courses").unwrap();
        }
        let (_st, db, _) = open_mem(&backend);
        assert_eq!(db.catalog().table_version("courses").unwrap(), v_before);
    }

    #[test]
    fn torn_wal_tail_truncates_to_prefix() {
        // Let everything through until the budget runs out mid-append:
        // the surviving bytes hold a torn final frame.
        let seed = MemBackend::new();
        {
            let (_st, db, _) = open_mem(&seed);
            seed_schema(&db);
        }
        let budget = seed.total_bytes() + 37; // a frame and a bit
        let faulty = Arc::new(FaultyBackend::with_initial(seed.dump(), budget));
        let (st, db, _) = Storage::open(faulty.clone(), StorageConfig::default()).unwrap();
        // In-memory inserts keep succeeding — durability degrades
        // silently (by design; the observer hook is infallible) and the
        // WAL holds only the prefix that fit before the crash point.
        for i in 0..100i64 {
            db.insert("courses", row![i, format!("c{i}")]).unwrap();
        }
        assert!(faulty.crashed(), "fault never fired");
        assert!(st.last_error().is_some());

        let (_st, db, report) = open_mem(&faulty.surviving());
        let n = db
            .query_sql("SELECT COUNT(*) AS n FROM courses")
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        // Exact prefix: every fully-durable insert, nothing torn.
        assert!(n < 100);
        assert!(report.truncated_bytes > 0, "tail was torn");
        for id in 0..n {
            let got = db
                .query_sql(&format!("SELECT title FROM courses WHERE id = {id}"))
                .unwrap();
            assert_eq!(got.rows.len(), 1, "row {id} missing from prefix");
        }
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older() {
        let backend = MemBackend::new();
        {
            let (st, db, _) = open_mem(&backend);
            seed_schema(&db);
            db.insert("courses", row![1i64, "A"]).unwrap();
            st.checkpoint().unwrap(); // snapshot 0
            db.insert("courses", row![2i64, "B"]).unwrap();
            st.checkpoint().unwrap(); // snapshot 1
        }
        backend.corrupt(&snapshot_file_name(1), 40, 0xff);
        let (_st, db, report) = open_mem(&backend);
        assert_eq!(report.snapshot_seq, Some(0));
        assert_eq!(report.corrupt_snapshots_skipped, 1);
        // Snapshot 0 + replay of the wal tail reconstructs row 2 anyway.
        assert_eq!(titles(&db), vec!["A", "B"]);
    }

    #[test]
    fn checkpoint_prunes_old_files() {
        let backend = MemBackend::new();
        let (st, db, _) = open_mem(&backend);
        seed_schema(&db);
        for i in 0..5i64 {
            db.insert("courses", row![i, "x"]).unwrap();
            st.checkpoint().unwrap();
        }
        let files = backend.list().unwrap();
        let snaps = files
            .iter()
            .filter(|f| parse_snapshot_seq(f).is_some())
            .count();
        assert_eq!(snaps, 2, "retention keeps 2 snapshots: {files:?}");
        let oldest_kept = files.iter().filter_map(|f| parse_snapshot_seq(f)).min();
        assert_eq!(oldest_kept, Some(3));
        // WAL files older than snapshot 3's position are gone.
        let min_wal = files.iter().filter_map(|f| parse_wal_seq(f)).min();
        assert!(min_wal >= Some(3), "stale wal files remain: {files:?}");
        drop(db);
    }

    #[test]
    fn group_commit_batch_loses_only_buffered_tail() {
        let backend = MemBackend::new();
        let cfg = StorageConfig {
            wal: WalConfig {
                fsync: FsyncPolicy::Batch,
                group_commit: 4,
            },
            ..StorageConfig::default()
        };
        {
            let (st, db, _) = Storage::open(Arc::new(backend.clone()), cfg).unwrap();
            seed_schema(&db);
            for i in 0..10i64 {
                db.insert("courses", row![i, "x"]).unwrap();
            }
            // 12 records total (2 DDL + 10 inserts): 3 groups of 4
            // flushed, nothing buffered... insert 11th to leave a tail.
            db.insert("courses", row![10i64, "buffered"]).unwrap();
            drop(st); // simulate crash: buffered frame never flushed
        }
        let (_st, db, _) = open_mem(&backend);
        let n = db
            .query_sql("SELECT COUNT(*) AS n FROM courses")
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(n, 10, "only the unflushed group-commit tail is lost");
    }

    #[test]
    fn update_and_delete_replay() {
        let backend = MemBackend::new();
        {
            let (_st, db, _) = open_mem(&backend);
            seed_schema(&db);
            db.insert("courses", row![1i64, "Old"]).unwrap();
            db.insert("courses", row![2i64, "Gone"]).unwrap();
            db.execute_sql("UPDATE courses SET title = 'New' WHERE id = 1")
                .unwrap();
            db.execute_sql("DELETE FROM courses WHERE id = 2").unwrap();
        }
        let (_st, db, _) = open_mem(&backend);
        assert_eq!(titles(&db), vec!["New"]);
        // Secondary index reflects the update, not the original.
        let by_title = db
            .query_sql("SELECT id FROM courses WHERE title = 'New'")
            .unwrap();
        assert_eq!(by_title.rows.len(), 1);
    }

    #[test]
    fn wal_failure_parks_sticky_error() {
        let faulty = Arc::new(FaultyBackend::crash_after_bytes(60));
        let (st, db, _) = Storage::open(faulty, StorageConfig::default()).unwrap();
        assert!(st.last_error().is_none());
        seed_schema(&db); // DDL records blow the 60-byte budget
        for i in 0..3i64 {
            let _ = db.insert("courses", row![i, "x"]);
        }
        assert!(st.last_error().is_some(), "append failure not recorded");
    }

    #[test]
    fn dropped_then_recreated_table_converges() {
        let backend = MemBackend::new();
        {
            let (_st, db, _) = open_mem(&backend);
            db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY)")
                .unwrap();
            db.insert("t", row![1i64]).unwrap();
            db.execute_sql("DROP TABLE t").unwrap();
            db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
                .unwrap();
            db.insert("t", row![7i64, Value::text("second life")])
                .unwrap();
        }
        let (_st, db, _) = open_mem(&backend);
        let rs = db.query_sql("SELECT id, v FROM t").unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(7));
    }
}
