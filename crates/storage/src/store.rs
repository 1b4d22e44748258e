//! The storage engine: recovery on open, WAL logging of live mutations,
//! checkpointing, and pruning.
//!
//! ## Recovery algorithm
//!
//! 1. Read every link file (base snapshot or delta, see [`snapshot`]) and
//!    check its magic, CRC and header.
//! 2. Try recovery points newest first: a point's chain (its base, then
//!    each delta in order) is merged at the slot level and its tables
//!    and indexes built once, at the end. A point whose chain is
//!    incomplete, or any link of which fails to decode or merge, is
//!    skipped for the next older one, then for "no snapshot". With no
//!    point, link files on disk and the first WAL file gone, the writes
//!    the links held are unrecoverable: `open` fails with
//!    [`StorageError::Corrupt`] and deletes nothing.
//! 3. Install the tables and remember their chunks (the *manifest*), so
//!    the first checkpoint after the restart is a delta, not a base.
//! 4. Replay WAL files starting at the `(seq, offset)` the point names
//!    (or `wal-00000000.log` offset 0 with no point), walking consecutive
//!    files until one is missing or torn.
//! 5. On a torn/corrupt frame: truncate that file to its valid prefix
//!    and delete every later WAL file. The surviving log is a prefix of
//!    the logical mutation history.
//!
//! Replay is idempotent — records at positions between the point's
//! captured offset and the moment its cut was pinned may already be
//! reflected in its images, so `replay_*` treat "already applied"
//! (occupied slot, missing row, existing table/index) as a skip, not an
//! error. Corruption is detected by CRC at the frame level, *before* a
//! record is ever interpreted.
//!
//! ## Checkpoints and retention
//!
//! A checkpoint writes a delta over the newest link, holding the chunks
//! that are not `Arc::ptr_eq` to the manifest's, or a base when there is
//! no link to build on or the chain's deltas add up to more than a fixed
//! share of its base (`COMPACT_AT_PERCENT`, not a setting). The manifest
//! moves to the new cut only once the file is durable, so a failed
//! checkpoint leaves the next delta covering everything since the last
//! durable link. A checkpoint with nothing new — no WAL record since
//! the newest link, the same tables, no dirty chunk — writes no file and
//! returns that link's sequence.
//!
//! `SNAPSHOTS_TO_KEEP` counts independent recovery points: the newest
//! link over each of that many bases is kept with
//! every link its chain needs, so no two kept points share a file, and
//! the WAL from the oldest kept point's position. Until that many bases
//! exist no WAL file is deleted, and replay from the first one stands in
//! for a missing point. Pruning works from the list of links built at
//! open and extended by each checkpoint; it reads no file.
//!
//! ## Locking
//!
//! Mutations reach `Storage::log` while holding their table's write
//! lock, and `log` takes the WAL mutex — so per-table WAL order equals
//! apply order. The WAL mutex is never held while acquiring table
//! locks: [`Storage::checkpoint`] captures the WAL position, releases
//! the mutex, and only then reads tables. No lock-order cycle.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;

use cr_relation::mutation::{Mutation, MutationObserver};
use cr_relation::row::RowId;
use cr_relation::schema::Schema;
use cr_relation::table::Table;
use cr_relation::{Catalog, Database, RelError};

use crate::backend::StorageBackend;
use crate::snapshot::{self, parse_link_name, Cut, DeltaLink, LinkFile, LinkInfo, Manifest};
use crate::wal::{parse_wal_seq, scan, wal_file_name, Wal, WalConfig, WalRecord};
use crate::{StorageError, StorageResult};

/// A checkpoint writes a base instead of a delta once the deltas of the
/// current chain add up to more than this share of its base, in percent.
/// Merging a link costs recovery about what decoding as many base bytes
/// does, so a chain at the limit recovers within a few percent of a base
/// of the same tables (DESIGN §7 has the measurement).
const COMPACT_AT_PERCENT: u64 = 10;

/// Independent recovery points retained after a checkpoint: the newest
/// link over each of this many bases, each with every link file its
/// chain needs (older files and the WAL files only they reference are
/// deleted). Keeping two means one corrupt file, base or delta, still
/// leaves a recovery path.
const SNAPSHOTS_TO_KEEP: usize = 2;

/// Storage engine tuning.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageConfig {
    pub wal: WalConfig,
}

/// What recovery found and did. Returned by [`Storage::open`] and
/// mirrored into `storage.replay.*` / `storage.recovery.*` metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence of the recovery point restored (a base or a delta), if
    /// any.
    pub snapshot_seq: Option<u64>,
    /// Recovery points that failed validation and were skipped.
    pub corrupt_snapshots_skipped: u64,
    /// Deltas merged over the restored point's base.
    pub deltas_applied: u64,
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

/// What checkpoints know about the files on disk. Held under its mutex
/// for a whole checkpoint, which also serializes checkpoints (the WAL
/// mutex alone can't: it is released between position capture and
/// rotation).
struct Disk {
    /// Link files that hold or support a recovery point, by seq.
    links: BTreeMap<u64, LinkInfo>,
    /// The newest durable link and the chunks of the cut it holds.
    tip: Option<(u64, Manifest)>,
    /// The WAL position right after the tip's checkpoint rotated the log,
    /// when no record was appended while it ran: while the log is still
    /// there, nothing has been logged since the tip.
    quiet_at: Option<(u64, u64)>,
    next_seq: u64,
    /// Link files found at open that hold no recovery point; the next
    /// prune deletes them.
    stale: Vec<String>,
    /// Lowest WAL file seq that may still exist.
    wal_floor: u64,
}

impl Disk {
    /// The link the next checkpoint writes a delta over, and the chunks
    /// to compare against; `None` when a base is due instead.
    fn delta_over(&self) -> Option<(DeltaLink, &Manifest)> {
        let (tip, manifest) = self.tip.as_ref()?;
        let chain = snapshot::chain(&self.links, *tip)?;
        let (&base, deltas) = chain.split_last()?;
        let delta_bytes: u64 = deltas.iter().map(|s| self.links[s].bytes).sum();
        if delta_bytes * 100 > self.links[&base].bytes * COMPACT_AT_PERCENT {
            return None;
        }
        let link = DeltaLink {
            base_seq: base,
            prev_seq: *tip,
        };
        Some((link, manifest))
    }

    /// The tip's seq when a checkpoint of `cut` at WAL position `wal_at`
    /// would hold nothing new: no record logged since the tip, the same
    /// persisted tables, and no chunk dirty against its manifest.
    fn unchanged_tip(&self, wal_at: (u64, u64), cut: &Cut) -> Option<u64> {
        let (tip, manifest) = self.tip.as_ref()?;
        (self.quiet_at == Some(wal_at) && cut.holds(manifest)).then_some(*tip)
    }
}

/// The durability engine. Created by [`Storage::open`]; installed as the
/// catalog's [`MutationObserver`] so logging is transparent to callers.
pub struct Storage {
    backend: Arc<dyn StorageBackend>,
    catalog: Catalog,
    wal: Mutex<Wal>,
    disk: Mutex<Disk>,
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

/// Merge the chain of recovery point `seq` and build its tables. Returns
/// them with the number of deltas merged.
fn recover_point(
    files: &BTreeMap<u64, LinkFile>,
    infos: &BTreeMap<u64, LinkInfo>,
    seq: u64,
) -> StorageResult<(Vec<Table>, u64)> {
    let chain = snapshot::chain(infos, seq)
        .ok_or_else(|| StorageError::Corrupt(format!("link {seq} has no complete chain")))?;
    let (base, deltas) = chain.split_last().expect("a chain holds its base");
    let mut image = files[base].decode_base()?;
    for delta in deltas.iter().rev() {
        files[delta].apply_delta(&mut image)?;
    }
    Ok((image.build()?, deltas.len() as u64))
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
        let mut span =
            cr_obs::trace::TraceSpan::child("storage.recover").timed(&metrics.recovery_ns);
        let mut report = RecoveryReport::default();

        let files = backend.list()?;
        let catalog = Catalog::new();

        // 1. Every link file whose magic, CRC and header check out.
        let mut link_files = BTreeMap::new();
        let mut stale = Vec::new();
        let mut unreadable = Vec::new();
        let mut next_seq = 0;
        for name in &files {
            let Some((seq, delta)) = parse_link_name(name) else {
                continue;
            };
            next_seq = next_seq.max(seq + 1);
            let Some(data) = backend.read(name)? else {
                continue;
            };
            match LinkFile::check(seq, delta, data) {
                Ok(file) if !link_files.contains_key(&seq) => {
                    link_files.insert(seq, file);
                }
                _ => {
                    stale.push(name.clone());
                    unreadable.push(seq);
                }
            }
        }
        let infos: BTreeMap<u64, LinkInfo> =
            link_files.iter().map(|(&seq, f)| (seq, f.info)).collect();

        // 2–3. Newest recovery point whose chain merges.
        let mut tip = None;
        for &seq in infos.keys().rev() {
            match recover_point(&link_files, &infos, seq) {
                Ok((tables, deltas)) => {
                    for table in tables {
                        catalog.install_table(table)?;
                    }
                    report.snapshot_seq = Some(seq);
                    report.deltas_applied = deltas;
                    // Before replay, so replayed writes count as changed.
                    tip = Some((seq, Cut::pin(&catalog).manifest()));
                    break;
                }
                Err(_) => report.corrupt_snapshots_skipped += 1,
            }
        }
        drop(link_files);
        let restored = tip.as_ref().map(|(seq, _)| *seq);
        let first_wal = files.iter().filter_map(|f| parse_wal_seq(f)).min();
        if restored.is_none() && next_seq > 0 && first_wal != Some(0) {
            // Without the first WAL file the log may not hold the writes
            // the links did: replaying what is left onto nothing would
            // lose them, and the next prune would delete the links.
            return Err(StorageError::Corrupt(
                "no recovery point decodes and the WAL before them was pruned".into(),
            ));
        }
        // Links newer than the restored point failed; older ones stay
        // as fallback points until retention drops them.
        report.corrupt_snapshots_skipped += unreadable
            .iter()
            .filter(|&&seq| restored.is_none_or(|r| seq > r))
            .count() as u64;
        let mut links = BTreeMap::new();
        for (seq, info) in infos {
            if restored.is_some_and(|r| seq <= r) {
                links.insert(seq, info);
            } else {
                stale.push(info.file_name());
            }
        }

        // 4–5. Replay the WAL chain.
        let (start_seq, start_offset) = match restored {
            Some(seq) => (links[&seq].wal_seq, links[&seq].wal_offset),
            None => (first_wal.unwrap_or(0), 0),
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

        if cr_obs::enabled() {
            metrics.recovery_runs.inc();
            metrics.replay_records.add(report.replayed_records);
            metrics.replay_bytes.add(report.replayed_bytes);
            metrics.replay_skipped.add(report.skipped_records);
            metrics.replay_truncated_bytes.add(report.truncated_bytes);
        }
        if span.is_recording() {
            span.attr("snapshot_seq", format!("{:?}", report.snapshot_seq));
            span.attr("deltas_applied", report.deltas_applied.to_string());
            span.attr("replayed_records", report.replayed_records.to_string());
            span.attr("replayed_bytes", report.replayed_bytes.to_string());
            span.attr("truncated_bytes", report.truncated_bytes.to_string());
        }
        span.finish();

        let wal_floor = first_wal.unwrap_or(resume_seq);
        let wal = Wal::new(backend.clone(), resume_seq, resume_offset, cfg.wal);
        let storage = Arc::new(Storage {
            backend,
            catalog: catalog.clone(),
            wal: Mutex::new(wal),
            disk: Mutex::new(Disk {
                links,
                tip,
                quiet_at: None,
                next_seq,
                stale,
                wal_floor,
            }),
            last_error: Mutex::new(None),
            metrics,
        });
        // First observer of the fresh catalog: the WAL sees each mutation
        // before any cache subscribed later.
        catalog.add_observer(storage.clone());
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

    /// Write a recovery point — a delta over the newest link, or a base
    /// (module docs: checkpoints) — rotate the WAL, and prune the links
    /// and WAL files retention no longer needs. Returns the new link's
    /// sequence. When nothing changed since the newest link, writes
    /// nothing and returns that link's sequence.
    pub fn checkpoint(&self) -> StorageResult<u64> {
        let mut disk = self.disk.lock();
        let mut span =
            cr_obs::trace::TraceSpan::child("storage.checkpoint").timed(&self.metrics.snapshot_ns);
        // Capture a flushed position, then RELEASE the wal mutex before
        // touching table locks (see module docs on lock order).
        let (wal_seq, wal_offset) = {
            let mut wal = self.wal.lock();
            wal.flush()?;
            wal.position()
        };
        let cut = Cut::pin(&self.catalog);
        if let Some(tip) = disk.unchanged_tip((wal_seq, wal_offset), &cut) {
            if span.is_recording() {
                span.attr("snapshot_seq", tip.to_string());
                span.attr("kind", "unchanged");
            }
            return Ok(tip);
        }
        disk.quiet_at = None;
        let seq = disk.next_seq;
        disk.next_seq += 1;
        let (data, link, dirty) = match disk.delta_over() {
            Some((link, since)) => {
                let (data, dirty) = cut.encode_delta(since, link, wal_seq, wal_offset);
                (data, Some(link), dirty)
            }
            None => (
                cut.encode_base(wal_seq, wal_offset),
                None,
                cut.total_chunks(),
            ),
        };
        let info = LinkInfo {
            seq,
            base_seq: link.map_or(seq, |l| l.base_seq),
            prev_seq: link.map(|l| l.prev_seq),
            wal_seq,
            wal_offset,
            bytes: data.len() as u64,
        };
        self.backend.write_atomic(&info.file_name(), &data)?;
        // Durable: from now on deltas are taken against this cut.
        disk.links.insert(seq, info);
        disk.tip = Some((seq, cut.manifest()));
        let total = cut.total_chunks();
        drop(cut); // unpin the tables; the manifest holds only chunks
        let quiet_at = {
            let mut wal = self.wal.lock();
            let before = wal.position();
            wal.rotate()?;
            (before == (wal_seq, wal_offset)).then(|| wal.position())
        };
        disk.quiet_at = quiet_at;
        self.prune(&mut disk)?;
        if cr_obs::enabled() {
            self.metrics.snapshot_writes.inc();
            self.metrics.snapshot_bytes.add(data.len() as u64);
        }
        if span.is_recording() {
            span.attr("snapshot_seq", seq.to_string());
            span.attr("kind", if link.is_some() { "delta" } else { "base" });
            span.attr("bytes", data.len().to_string());
            span.attr("dirty_chunks", dirty.to_string());
            span.attr("total_chunks", total.to_string());
        }
        Ok(seq)
    }

    /// Keep the newest `SNAPSHOTS_TO_KEEP` independent recovery points —
    /// the newest link of each of that many bases, so no two points share
    /// a file — and every link their chains need; delete the other links
    /// and the stale files found at open. The WAL is kept from the oldest
    /// kept point's position; until that many bases exist, one unreadable
    /// base could leave no point at all, so no WAL file is deleted and
    /// replay from the first one still rebuilds every write. The live
    /// writer's file is always kept.
    fn prune(&self, disk: &mut Disk) -> StorageResult<()> {
        let mut bases = BTreeSet::new();
        let mut keep = BTreeSet::new();
        let mut min_wal = self.wal.lock().position().0;
        for link in disk.links.values().rev() {
            if bases.len() == SNAPSHOTS_TO_KEEP {
                break;
            }
            if bases.contains(&link.base_seq) {
                continue;
            }
            if let Some(chain) = snapshot::chain(&disk.links, link.seq) {
                bases.insert(link.base_seq);
                min_wal = min_wal.min(link.wal_seq);
                keep.extend(chain);
            }
        }
        if bases.len() < SNAPSHOTS_TO_KEEP {
            min_wal = disk.wal_floor;
        }
        for name in &disk.stale {
            self.backend.remove(name)?;
        }
        disk.stale.clear();
        let drop: Vec<LinkInfo> = disk
            .links
            .values()
            .filter(|l| !keep.contains(&l.seq))
            .copied()
            .collect();
        for link in drop {
            self.backend.remove(&link.file_name())?;
            disk.links.remove(&link.seq);
        }
        while disk.wal_floor < min_wal {
            self.backend.remove(&wal_file_name(disk.wal_floor))?;
            disk.wal_floor += 1;
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
            Mutation::Update { rid, row, .. } => WalRecord::Update {
                table: table.to_owned(),
                rid: rid.0,
                row: (*row).clone(),
            },
            Mutation::Delete { rid, .. } => WalRecord::Delete {
                table: table.to_owned(),
                rid: rid.0,
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
        WalRecord::Update { table, rid, row } => {
            apply_dml(catalog, &table, |t| t.replay_update(RowId(rid), row))
        }
        WalRecord::Delete { table, rid } => apply_dml(catalog, &table, |t| {
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
    use crate::backend::{FaultyBackend, MemBackend, RecordingBackend};
    use crate::snapshot::{delta_file_name, snapshot_file_name};
    use crate::wal::FsyncPolicy;
    use cr_relation::row::row;
    use cr_relation::Value;
    use std::sync::atomic::Ordering;

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

    /// Every link file on `backend`, checked, by seq.
    fn link_files(backend: &MemBackend) -> BTreeMap<u64, LinkFile> {
        let mut files = BTreeMap::new();
        for name in backend.list().unwrap() {
            if let Some((seq, delta)) = parse_link_name(&name) {
                let data = backend.read(&name).unwrap().unwrap();
                files.insert(seq, LinkFile::check(seq, delta, data).unwrap());
            }
        }
        files
    }

    /// The seqs of every file named like a link, readable or not.
    fn link_files_unchecked(backend: &MemBackend) -> Vec<u64> {
        let mut seqs: Vec<u64> = backend
            .list()
            .unwrap()
            .iter()
            .filter_map(|name| parse_link_name(name).map(|(seq, _)| seq))
            .collect();
        seqs.sort_unstable();
        seqs
    }

    /// The tables recovery point `seq` holds, without any WAL replay,
    /// re-encoded as a base.
    fn point_as_base(backend: &MemBackend, seq: u64) -> Vec<u8> {
        let files = link_files(backend);
        let infos = files.iter().map(|(&s, f)| (s, f.info)).collect();
        let (tables, _) = recover_point(&files, &infos, seq).unwrap();
        let restored = Catalog::new();
        for t in tables {
            restored.install_table(t).unwrap();
        }
        Cut::pin(&restored).encode_base(0, 0)
    }

    fn insert_range(db: &Database, ids: std::ops::Range<i64>) {
        for i in ids {
            db.insert("courses", row![i, format!("course {i}")])
                .unwrap();
        }
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older() {
        let backend = MemBackend::new();
        {
            let (st, db, _) = open_mem(&backend);
            seed_schema(&db);
            insert_range(&db, 0..1);
            assert_eq!(st.checkpoint().unwrap(), 0); // base
            insert_range(&db, 1..200); // a delta bigger than the base
            assert_eq!(st.checkpoint().unwrap(), 1);
            insert_range(&db, 200..201);
            assert_eq!(st.checkpoint().unwrap(), 2); // compacted: a base
        }
        assert!(backend.read(&snapshot_file_name(2)).unwrap().is_some());
        backend.corrupt(&snapshot_file_name(2), 40, 0xff);
        let (_st, db, report) = open_mem(&backend);
        assert_eq!(report.snapshot_seq, Some(1));
        assert_eq!(report.deltas_applied, 1);
        assert_eq!(report.corrupt_snapshots_skipped, 1);
        // Point 1 + replay of the wal tail reconstructs row 200 anyway.
        assert_eq!(titles(&db).len(), 201);
    }

    #[test]
    fn corrupt_newest_delta_loses_no_acknowledged_write() {
        let backend = MemBackend::new();
        {
            let (st, db, _) = open_mem(&backend);
            seed_schema(&db);
            insert_range(&db, 0..3000);
            assert_eq!(st.checkpoint().unwrap(), 0);
            db.execute_sql("UPDATE courses SET title = 'moved' WHERE id = 3")
                .unwrap();
            insert_range(&db, 3000..3010);
            assert_eq!(st.checkpoint().unwrap(), 1);
            db.execute_sql("DELETE FROM courses WHERE id = 200")
                .unwrap();
            insert_range(&db, 3010..3020);
            assert_eq!(st.checkpoint().unwrap(), 2);
            insert_range(&db, 3020..3030); // WAL tail only
        }
        assert!(backend.read(&delta_file_name(2)).unwrap().is_some());
        let len = backend.read(&delta_file_name(2)).unwrap().unwrap().len();
        backend.corrupt(&delta_file_name(2), len / 2, 0x08);
        let (_st, db, report) = open_mem(&backend);
        assert_eq!(report.snapshot_seq, Some(1));
        assert_eq!(report.deltas_applied, 1);
        assert_eq!(report.corrupt_snapshots_skipped, 1);
        let got = titles(&db);
        assert_eq!(got.len(), 3029);
        assert_eq!(got[3], "moved");
        assert!(!got.contains(&"course 200".to_owned()));
        assert_eq!(got.last().map(String::as_str), Some("course 3029"));
    }

    #[test]
    fn first_checkpoint_after_a_restart_is_a_delta() {
        let backend = MemBackend::new();
        {
            let (st, db, _) = open_mem(&backend);
            seed_schema(&db);
            insert_range(&db, 0..300);
            st.checkpoint().unwrap(); // base 0
            insert_range(&db, 300..310);
        }
        let (st, db, report) = open_mem(&backend);
        assert_eq!(report.snapshot_seq, Some(0));
        assert_eq!(report.replayed_records, 10);
        assert_eq!(st.checkpoint().unwrap(), 1);
        let delta = &link_files(&backend)[&1];
        assert_eq!(
            delta.info.prev_seq,
            Some(0),
            "a delta over the restored base"
        );
        // The replayed tail is in it: the chain alone holds every row.
        assert_eq!(
            point_as_base(&backend, 1),
            Cut::pin(&db.catalog()).encode_base(0, 0)
        );
    }

    #[test]
    fn failed_checkpoint_leaves_the_next_delta_covering_it() {
        let backend = Arc::new(RecordingBackend::default());
        let (st, db, _) = Storage::open(backend.clone(), StorageConfig::default()).unwrap();
        seed_schema(&db);
        insert_range(&db, 0..300);
        assert_eq!(st.checkpoint().unwrap(), 0);
        // A change to chunk 0 whose checkpoint never reaches disk...
        db.execute_sql("UPDATE courses SET title = 'lost?' WHERE id = 1")
            .unwrap();
        backend.fail_atomic.store(true, Ordering::Relaxed);
        assert!(st.checkpoint().is_err());
        backend.fail_atomic.store(false, Ordering::Relaxed);
        // ...is carried by the next delta, with a later one to chunk 2.
        insert_range(&db, 300..301);
        let seq = st.checkpoint().unwrap();
        let delta = &link_files(&backend.inner)[&seq];
        assert_eq!(delta.info.prev_seq, Some(0));
        assert_eq!(
            point_as_base(&backend.inner, seq),
            Cut::pin(&db.catalog()).encode_base(0, 0)
        );
    }

    /// After every checkpoint, the link files on disk are exactly the
    /// chains of the newest link of each of the newest two bases, and the
    /// WAL starts at the older of those points' positions — or, while
    /// only one base exists, at the first file.
    #[test]
    fn checkpoint_keeps_two_independent_points() {
        let backend = MemBackend::new();
        let (st, db, _) = open_mem(&backend);
        seed_schema(&db);
        let mut kinds = BTreeSet::new();
        for round in 0..12i64 {
            insert_range(&db, round * 40..round * 40 + 40);
            let seq = st.checkpoint().unwrap();
            let files = link_files(&backend);
            kinds.insert(files[&seq].info.is_delta());
            let infos: BTreeMap<u64, LinkInfo> = files.iter().map(|(&s, f)| (s, f.info)).collect();
            let mut points: Vec<u64> = Vec::new();
            for (&s, info) in infos.iter().rev() {
                if points.iter().all(|p| infos[p].base_seq != info.base_seq) {
                    points.push(s);
                }
            }
            assert_eq!(points[0], seq);
            assert!(points.len() <= 2, "round {round}: a third base remains");
            let needed: BTreeSet<u64> = points
                .iter()
                .flat_map(|&p| snapshot::chain(&infos, p).unwrap())
                .collect();
            let on_disk: BTreeSet<u64> = infos.keys().copied().collect();
            assert_eq!(on_disk, needed, "round {round}: stale links remain");
            let min_wal = backend
                .list()
                .unwrap()
                .iter()
                .filter_map(|f| parse_wal_seq(f))
                .min();
            let expected = match points[..] {
                [_, _] => points.iter().map(|p| infos[p].wal_seq).min(),
                _ => Some(0),
            };
            assert_eq!(min_wal, expected, "round {round}");
            assert_eq!(
                point_as_base(&backend, seq),
                Cut::pin(&db.catalog()).encode_base(0, 0)
            );
        }
        assert_eq!(
            kinds.len(),
            2,
            "both deltas and compacted bases were written"
        );
    }

    /// A checkpoint with nothing new since the newest link writes no file
    /// and returns that link's seq; a write in between makes the next one
    /// a delta again. A reopen recovers the same state.
    #[test]
    fn an_empty_checkpoint_writes_nothing() {
        let backend = MemBackend::new();
        let files = |b: &MemBackend| -> Vec<(String, Vec<u8>)> {
            let names = b.list().unwrap();
            names
                .into_iter()
                .map(|n| {
                    let data = b.read(&n).unwrap().unwrap();
                    (n, data)
                })
                .collect()
        };
        let want = {
            let (st, db, _) = open_mem(&backend);
            seed_schema(&db);
            insert_range(&db, 0..50);
            let seq = st.checkpoint().unwrap();
            let before = files(&backend);
            assert_eq!(st.checkpoint().unwrap(), seq);
            assert_eq!(
                files(&backend),
                before,
                "an empty checkpoint touched a file"
            );
            assert_eq!(link_files(&backend).len(), 1);
            insert_range(&db, 50..51);
            let next = st.checkpoint().unwrap();
            assert!(next > seq);
            assert!(link_files(&backend)[&next].info.is_delta());
            assert_eq!(st.checkpoint().unwrap(), next);
            Cut::pin(&db.catalog()).encode_base(0, 0)
        };
        let (_, db, _) = open_mem(&backend);
        assert_eq!(Cut::pin(&db.catalog()).encode_base(0, 0), want);
        assert_eq!(titles(&db).len(), 51);
    }

    #[test]
    fn a_corrupt_base_under_a_delta_tip_loses_no_acknowledged_write() {
        // One chain: nothing of the WAL has been pruned, so replay from
        // its first file rebuilds every write.
        let backend = MemBackend::new();
        {
            let (st, db, _) = open_mem(&backend);
            seed_schema(&db);
            insert_range(&db, 0..3000);
            assert_eq!(st.checkpoint().unwrap(), 0);
            insert_range(&db, 3000..3010);
            assert_eq!(st.checkpoint().unwrap(), 1);
            insert_range(&db, 3010..3020);
            assert_eq!(st.checkpoint().unwrap(), 2);
            insert_range(&db, 3020..3030);
        }
        assert!(link_files(&backend)[&2].info.is_delta());
        backend.corrupt(&snapshot_file_name(0), 40, 0xff);
        let (_st, db, report) = open_mem(&backend);
        assert_eq!(report.snapshot_seq, None);
        assert_eq!(report.corrupt_snapshots_skipped, 3);
        assert_eq!(titles(&db).len(), 3030);

        // Two chains: the newest point of the older one takes over, and
        // the store goes on from it.
        let backend = MemBackend::new();
        {
            let (st, db, _) = open_mem(&backend);
            seed_schema(&db);
            insert_range(&db, 0..1);
            assert_eq!(st.checkpoint().unwrap(), 0); // base
            insert_range(&db, 1..200);
            assert_eq!(st.checkpoint().unwrap(), 1);
            insert_range(&db, 200..201);
            assert_eq!(st.checkpoint().unwrap(), 2); // compacted: a base
            insert_range(&db, 201..210);
            assert_eq!(st.checkpoint().unwrap(), 3);
            insert_range(&db, 210..220); // WAL tail only
        }
        assert!(link_files(&backend)[&3].info.is_delta());
        backend.corrupt(&snapshot_file_name(2), 40, 0xff);
        let (st, db, report) = open_mem(&backend);
        assert_eq!(report.snapshot_seq, Some(1));
        assert_eq!(report.deltas_applied, 1);
        assert_eq!(report.corrupt_snapshots_skipped, 2);
        let got = titles(&db);
        assert_eq!(got.len(), 220);
        assert_eq!(got.last().map(String::as_str), Some("course 219"));
        insert_range(&db, 220..221);
        assert_eq!(st.checkpoint().unwrap(), 4);
        drop((st, db));
        let (_st, db, report) = open_mem(&backend);
        assert_eq!(report.snapshot_seq, Some(4));
        assert_eq!(titles(&db).len(), 221);
    }

    #[test]
    fn no_decodable_point_over_a_pruned_wal_is_corrupt() {
        let backend = MemBackend::new();
        {
            let (st, db, _) = open_mem(&backend);
            seed_schema(&db);
            insert_range(&db, 0..1);
            st.checkpoint().unwrap(); // base 0
            insert_range(&db, 1..200);
            st.checkpoint().unwrap(); // delta 1
            insert_range(&db, 200..201);
            st.checkpoint().unwrap(); // base 2
        }
        assert!(backend.read(&wal_file_name(0)).unwrap().is_none());
        backend.corrupt(&snapshot_file_name(0), 40, 0xff);
        backend.corrupt(&snapshot_file_name(2), 40, 0xff);
        let open = Storage::open(Arc::new(backend.clone()), StorageConfig::default());
        assert!(matches!(open, Err(StorageError::Corrupt(_))));
        // Nothing was deleted: the files are still there to salvage.
        assert_eq!(link_files_unchecked(&backend), [0, 1, 2]);
    }

    #[test]
    fn derived_tables_are_neither_logged_nor_snapshotted() {
        let backend = MemBackend::new();
        {
            let (st, db, _) = open_mem(&backend);
            seed_schema(&db);
            insert_range(&db, 0..3);
            let mut derived = Table::new(
                "Derived",
                db.catalog().table_schema("courses").unwrap(),
                vec![],
            );
            derived.mark_derived();
            db.catalog().install_table(derived).unwrap();
            // A new observer reaches every table again; a derived one
            // takes none.
            struct Ignore;
            impl MutationObserver for Ignore {
                fn on_mutation(&self, _: &str, _: &Schema, _: &Mutation<'_>) {}
            }
            db.catalog().add_observer(Arc::new(Ignore));
            db.insert("Derived", row![1i64, "x"]).unwrap();
            st.checkpoint().unwrap();
            db.insert("Derived", row![2i64, "y"]).unwrap(); // WAL tail
            insert_range(&db, 3..4);
        }
        let (_st, db, report) = open_mem(&backend);
        assert!(!db.catalog().has_table("Derived"));
        assert_eq!(
            report.skipped_records, 0,
            "no derived record reached the WAL"
        );
        assert_eq!(titles(&db).len(), 4);
    }

    #[test]
    fn a_parent_format_store_recovers_and_continues_with_deltas() {
        // Two bases and their WAL, as a store written before deltas
        // existed leaves them.
        let backend = MemBackend::new();
        {
            let (st, db, _) = open_mem(&backend);
            seed_schema(&db);
            insert_range(&db, 0..5);
            st.flush().unwrap();
            let (seq, offset) = st.wal_position();
            let base = Cut::pin(&db.catalog()).encode_base(seq, offset);
            backend.write_atomic(&snapshot_file_name(0), &base).unwrap();
            st.wal.lock().rotate().unwrap();
            insert_range(&db, 5..8);
            let (seq, offset) = st.wal_position();
            let base = Cut::pin(&db.catalog()).encode_base(seq, offset);
            backend.write_atomic(&snapshot_file_name(1), &base).unwrap();
            st.wal.lock().rotate().unwrap();
            insert_range(&db, 8..9);
        }
        let (st, db, report) = open_mem(&backend);
        assert_eq!(report.snapshot_seq, Some(1));
        assert_eq!(report.replayed_records, 1);
        assert_eq!(titles(&db).len(), 9);
        assert_eq!(st.checkpoint().unwrap(), 2);
        let files = link_files(&backend);
        assert_eq!(files[&2].info.prev_seq, Some(1));
        assert!(
            files.contains_key(&0),
            "the older base stays as the independent fallback"
        );
    }

    #[test]
    fn group_commit_batch_loses_only_buffered_tail() {
        let backend = MemBackend::new();
        let cfg = StorageConfig {
            wal: WalConfig {
                fsync: FsyncPolicy::Batch,
                group_commit: 4,
            },
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
