//! The write-ahead log: record codec, framing, writer, and scanner.
//!
//! ## Frame format
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]
//! ```
//!
//! Payloads are [`WalRecord`]s in the compact binary codec from
//! [`cr_relation::codec`]. A reader walks frames until the first torn or
//! corrupt one — short header, short payload, implausible length, CRC
//! mismatch, or undecodable payload — and reports the valid prefix
//! length so recovery can truncate the tail.
//!
//! ## Writer
//!
//! [`Wal::append`] encodes into an in-process buffer; [`WalConfig`]
//! controls **group commit** (how many records ride one backend write)
//! and the **fsync policy** (see [`FsyncPolicy`] for the durability/
//! throughput trade-off each point buys). WAL files are named
//! `wal-<seq>.log`; [`Wal::rotate`] starts a fresh file after each
//! snapshot so old files can be pruned.

use std::sync::Arc;

use cr_relation::codec;
use cr_relation::index::IndexKind;
use cr_relation::row::Row;
use cr_relation::schema::{Column, DataType, Schema};

use crate::backend::StorageBackend;
use crate::crc32::crc32;
use crate::{StorageError, StorageResult};

/// Bytes of frame header (length + CRC).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single frame payload; anything larger in a length
/// prefix is treated as corruption, not an allocation request.
const MAX_PAYLOAD: u64 = 1 << 30;

/// `wal-<seq>.log`.
pub fn wal_file_name(seq: u64) -> String {
    format!("wal-{seq:08}.log")
}

/// Parse a `wal-<seq>.log` name back to its sequence number.
pub fn parse_wal_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

const OP_INSERT: u8 = 1;
const OP_UPDATE: u8 = 2;
const OP_DELETE: u8 = 3;
const OP_CREATE_TABLE: u8 = 4;
const OP_CREATE_INDEX: u8 = 5;
const OP_DROP_TABLE: u8 = 6;
// Updates and deletes as logs once wrote them: the redo fields of tags
// 2/3, then the pre-mutation row image, which nothing read. They still
// decode; the image is read past.
const OP_UPDATE_V2: u8 = 7;
const OP_DELETE_V2: u8 = 8;

/// One logical WAL record: redo only. Row-bearing records carry the image
/// replay writes (none for a delete); DDL is logged too so a store that
/// never reached its first snapshot still recovers (the schema itself
/// replays). Caches are rebuilt from the recovered tables, so no record
/// carries a pre-mutation image.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    Insert {
        table: String,
        rid: u64,
        row: Row,
    },
    Update {
        table: String,
        rid: u64,
        row: Row,
    },
    Delete {
        table: String,
        rid: u64,
    },
    CreateTable {
        table: String,
        schema: Schema,
        pk_columns: Vec<usize>,
    },
    CreateIndex {
        table: String,
        name: String,
        columns: Vec<usize>,
        kind: IndexKind,
        unique: bool,
    },
    DropTable {
        table: String,
    },
}

fn corrupt(what: impl Into<String>) -> StorageError {
    StorageError::Corrupt(what.into())
}

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Date => 4,
        DataType::Set => 5,
        DataType::Ratings => 6,
    }
}

fn dtype_from_tag(tag: u8) -> StorageResult<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Date,
        5 => DataType::Set,
        6 => DataType::Ratings,
        other => return Err(corrupt(format!("bad datatype tag {other}"))),
    })
}

fn kind_tag(kind: IndexKind) -> u8 {
    match kind {
        IndexKind::Hash => 0,
        IndexKind::BTree => 1,
    }
}

fn kind_from_tag(tag: u8) -> StorageResult<IndexKind> {
    Ok(match tag {
        0 => IndexKind::Hash,
        1 => IndexKind::BTree,
        other => return Err(corrupt(format!("bad index kind tag {other}"))),
    })
}

/// Encode a schema: column count, then per column name/type/nullability
/// and an optional qualifier.
pub(crate) fn write_schema(schema: &Schema, out: &mut Vec<u8>) {
    codec::write_u64(schema.len() as u64, out);
    for (i, col) in schema.columns().iter().enumerate() {
        codec::write_str(&col.name, out);
        out.push(dtype_tag(col.data_type));
        out.push(col.nullable as u8);
        match schema.qualifier(i) {
            Some(q) => {
                out.push(1);
                codec::write_str(q, out);
            }
            None => out.push(0),
        }
    }
}

pub(crate) fn read_schema(buf: &[u8], pos: &mut usize) -> StorageResult<Schema> {
    let n = codec::read_u64(buf, pos)? as usize;
    if n > buf.len().saturating_sub(*pos) {
        return Err(corrupt("schema column count exceeds buffer"));
    }
    let mut schema = Schema::default();
    for _ in 0..n {
        let name = codec::read_str(buf, pos)?;
        let dt = dtype_from_tag(read_byte(buf, pos)?)?;
        let nullable = read_byte(buf, pos)? != 0;
        let qualifier = if read_byte(buf, pos)? != 0 {
            Some(codec::read_str(buf, pos)?)
        } else {
            None
        };
        let column = if nullable {
            Column::new(name, dt)
        } else {
            Column::not_null(name, dt)
        };
        schema.push(column, qualifier);
    }
    Ok(schema)
}

fn read_byte(buf: &[u8], pos: &mut usize) -> StorageResult<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| corrupt("record truncated (byte)"))?;
    *pos += 1;
    Ok(b)
}

fn write_usizes(xs: &[usize], out: &mut Vec<u8>) {
    codec::write_u64(xs.len() as u64, out);
    for &x in xs {
        codec::write_u64(x as u64, out);
    }
}

fn read_usizes(buf: &[u8], pos: &mut usize) -> StorageResult<Vec<usize>> {
    let n = codec::read_u64(buf, pos)? as usize;
    if n > buf.len().saturating_sub(*pos) {
        return Err(corrupt("position list exceeds buffer"));
    }
    (0..n)
        .map(|_| Ok(codec::read_u64(buf, pos)? as usize))
        .collect()
}

/// Encode a record payload (no frame header).
pub fn encode_record(rec: &WalRecord, out: &mut Vec<u8>) {
    match rec {
        WalRecord::Insert { table, rid, row } | WalRecord::Update { table, rid, row } => {
            out.push(match rec {
                WalRecord::Insert { .. } => OP_INSERT,
                _ => OP_UPDATE,
            });
            codec::write_str(table, out);
            codec::write_u64(*rid, out);
            codec::write_row(row, out);
        }
        WalRecord::Delete { table, rid } => {
            out.push(OP_DELETE);
            codec::write_str(table, out);
            codec::write_u64(*rid, out);
        }
        WalRecord::CreateTable {
            table,
            schema,
            pk_columns,
        } => {
            out.push(OP_CREATE_TABLE);
            codec::write_str(table, out);
            write_schema(schema, out);
            write_usizes(pk_columns, out);
        }
        WalRecord::CreateIndex {
            table,
            name,
            columns,
            kind,
            unique,
        } => {
            out.push(OP_CREATE_INDEX);
            codec::write_str(table, out);
            codec::write_str(name, out);
            write_usizes(columns, out);
            out.push(kind_tag(*kind));
            out.push(*unique as u8);
        }
        WalRecord::DropTable { table } => {
            out.push(OP_DROP_TABLE);
            codec::write_str(table, out);
        }
    }
}

/// Decode one record payload. The whole payload must be consumed.
pub fn decode_record(buf: &[u8]) -> StorageResult<WalRecord> {
    let pos = &mut 0usize;
    let op = read_byte(buf, pos)?;
    let rec = match op {
        OP_INSERT | OP_UPDATE | OP_UPDATE_V2 => {
            let table = codec::read_str(buf, pos)?;
            let rid = codec::read_u64(buf, pos)?;
            let row = codec::read_row(buf, pos)?;
            if op == OP_UPDATE_V2 {
                codec::read_row(buf, pos)?;
            }
            match op {
                OP_INSERT => WalRecord::Insert { table, rid, row },
                _ => WalRecord::Update { table, rid, row },
            }
        }
        OP_DELETE | OP_DELETE_V2 => {
            let table = codec::read_str(buf, pos)?;
            let rid = codec::read_u64(buf, pos)?;
            if op == OP_DELETE_V2 {
                codec::read_row(buf, pos)?;
            }
            WalRecord::Delete { table, rid }
        }
        OP_CREATE_TABLE => {
            let table = codec::read_str(buf, pos)?;
            let schema = read_schema(buf, pos)?;
            let pk_columns = read_usizes(buf, pos)?;
            WalRecord::CreateTable {
                table,
                schema,
                pk_columns,
            }
        }
        OP_CREATE_INDEX => {
            let table = codec::read_str(buf, pos)?;
            let name = codec::read_str(buf, pos)?;
            let columns = read_usizes(buf, pos)?;
            let kind = kind_from_tag(read_byte(buf, pos)?)?;
            let unique = read_byte(buf, pos)? != 0;
            WalRecord::CreateIndex {
                table,
                name,
                columns,
                kind,
                unique,
            }
        }
        OP_DROP_TABLE => WalRecord::DropTable {
            table: codec::read_str(buf, pos)?,
        },
        other => return Err(corrupt(format!("unknown wal op {other}"))),
    };
    if *pos != buf.len() {
        return Err(corrupt("trailing bytes in wal payload"));
    }
    Ok(rec)
}

// ---------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------

/// Result of scanning one WAL file from an offset.
pub struct WalScan {
    /// Decoded records, in log order.
    pub records: Vec<WalRecord>,
    /// Byte offset of the end of the last valid frame (absolute within
    /// the scanned buffer). Recovery truncates the file to this.
    pub valid_len: u64,
    /// True if invalid bytes followed the valid prefix.
    pub torn: bool,
}

/// Walk frames in `data` starting at `start`, stopping at the first
/// torn or corrupt frame. Never panics on arbitrary bytes.
pub fn scan(data: &[u8], start: usize) -> WalScan {
    let mut pos = start.min(data.len());
    let mut records = Vec::new();
    loop {
        if pos == data.len() {
            return WalScan {
                records,
                valid_len: pos as u64,
                torn: false,
            };
        }
        let Some(valid) = try_frame(data, pos) else {
            return WalScan {
                records,
                valid_len: pos as u64,
                torn: true,
            };
        };
        let (rec, next) = valid;
        records.push(rec);
        pos = next;
    }
}

/// Try to decode the frame at `pos`; `None` on any corruption.
fn try_frame(data: &[u8], pos: usize) -> Option<(WalRecord, usize)> {
    let header = data.get(pos..pos + FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4-byte slice")) as u64;
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4-byte slice"));
    if len > MAX_PAYLOAD {
        return None;
    }
    let body_start = pos + FRAME_HEADER;
    let body_end = body_start.checked_add(len as usize)?;
    let payload = data.get(body_start..body_end)?;
    if crc32(payload) != crc {
        return None;
    }
    let rec = decode_record(payload).ok()?;
    Some((rec, body_end))
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// When WAL bytes reach stable storage.
///
/// Frames reach the backend a group of N records at a time
/// ([`WalConfig::group_commit`]); up to N−1 buffered records are lost on
/// a crash (none at the default N = 1).
///
/// | policy   | fsync                 | loss window on crash beyond the buffer |
/// |----------|-----------------------|----------------------------------------|
/// | `Always` | every flushed group   | none                                   |
/// | `Never`  | left to the OS        | OS page-cache contents                 |
///
/// Both preserve the recovery invariant — the surviving WAL is always a
/// *prefix* of the logical log — they only move how much tail can be
/// lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    Always,
    Never,
}

/// Writer tuning: fsync policy and group-commit size.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    pub fsync: FsyncPolicy,
    /// Records buffered per backend write (group commit). `1` writes
    /// through on every append.
    pub group_commit: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync: FsyncPolicy::Always,
            group_commit: 1,
        }
    }
}

struct WalMetrics {
    appends: Arc<cr_obs::Counter>,
    bytes: Arc<cr_obs::Counter>,
    flushes: Arc<cr_obs::Counter>,
    fsyncs: Arc<cr_obs::Counter>,
    fsync_ns: Arc<cr_obs::Histogram>,
    rotations: Arc<cr_obs::Counter>,
}

impl WalMetrics {
    fn new() -> Self {
        let reg = cr_obs::Registry::global();
        WalMetrics {
            appends: reg.counter("storage.wal.appends"),
            bytes: reg.counter("storage.wal.bytes"),
            flushes: reg.counter("storage.wal.flushes"),
            fsyncs: reg.counter("storage.wal.fsyncs"),
            fsync_ns: reg.histogram("storage.wal.fsync_ns"),
            rotations: reg.counter("storage.wal.rotations"),
        }
    }
}

/// The WAL writer. Single-threaded by construction — `cr-storage` keeps
/// it behind a mutex; mutations already serialize on table locks.
pub struct Wal {
    backend: Arc<dyn StorageBackend>,
    seq: u64,
    /// Bytes of the current file already handed to the backend.
    offset: u64,
    /// Whether the current file's directory entry is known durable. A
    /// file created by `append` survives a power cut only after a
    /// directory sync; a failed one is retried at the next syncing flush.
    dir_synced: bool,
    buf: Vec<u8>,
    buffered: usize,
    cfg: WalConfig,
    metrics: WalMetrics,
}

impl Wal {
    /// Resume (or start) writing `wal-<seq>.log` at `offset`.
    pub fn new(backend: Arc<dyn StorageBackend>, seq: u64, offset: u64, cfg: WalConfig) -> Self {
        Wal {
            backend,
            seq,
            offset,
            dir_synced: false,
            buf: Vec::new(),
            buffered: 0,
            cfg,
            metrics: WalMetrics::new(),
        }
    }

    /// `(file seq, offset)` of the durable+buffered log end. Only a
    /// position taken right after [`Wal::flush`] is guaranteed on the
    /// backend; checkpoints flush first.
    pub fn position(&self) -> (u64, u64) {
        (self.seq, self.offset + self.buf.len() as u64)
    }

    /// Frame and buffer one record; flushes per config.
    pub fn append(&mut self, rec: &WalRecord) -> StorageResult<()> {
        let _span = cr_obs::trace::TraceSpan::child("storage.wal.append");
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0u8; FRAME_HEADER]);
        encode_record(rec, &mut self.buf);
        let payload_len = self.buf.len() - start - FRAME_HEADER;
        let crc = crc32(&self.buf[start + FRAME_HEADER..]);
        self.buf[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        self.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        self.buffered += 1;
        if cr_obs::enabled() {
            self.metrics.appends.inc();
        }
        if self.buffered >= self.cfg.group_commit.max(1) {
            self.flush()?;
        }
        Ok(())
    }

    /// Write buffered frames to the backend and fsync per policy.
    pub fn flush(&mut self) -> StorageResult<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut span = cr_obs::trace::TraceSpan::child("storage.wal.flush");
        let file = wal_file_name(self.seq);
        let len = self.buf.len() as u64;
        if span.is_recording() {
            span.attr("bytes", len.to_string());
            span.attr("records", self.buffered.to_string());
        }
        self.backend.append(&file, &self.buf)?;
        // Only clear after a fully-successful append; on error the
        // backend may hold a torn prefix and the caller sees the error.
        self.buf.clear();
        self.buffered = 0;
        self.offset += len;
        if cr_obs::enabled() {
            self.metrics.flushes.inc();
            self.metrics.bytes.add(len);
        }
        if self.cfg.fsync != FsyncPolicy::Never {
            let _fsync_span =
                cr_obs::trace::TraceSpan::child("storage.wal.fsync").timed(&self.metrics.fsync_ns);
            self.backend.sync(&file)?;
            if !self.dir_synced {
                self.backend.sync_dir()?;
                self.dir_synced = true;
            }
            if cr_obs::enabled() {
                self.metrics.fsyncs.inc();
            }
        }
        Ok(())
    }

    /// Flush, then switch to a fresh `wal-<seq+1>.log`. Called after a
    /// snapshot so files older than the snapshot horizon can be pruned.
    pub fn rotate(&mut self) -> StorageResult<u64> {
        self.flush()?;
        self.seq += 1;
        self.offset = 0;
        self.dir_synced = false;
        if cr_obs::enabled() {
            self.metrics.rotations.inc();
        }
        Ok(self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemBackend, RecordingBackend};
    use cr_relation::Value;
    use std::sync::atomic::Ordering;

    fn sample_records() -> Vec<WalRecord> {
        let schema = Schema::qualified(
            "t",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
        );
        vec![
            WalRecord::CreateTable {
                table: "T".into(),
                schema,
                pk_columns: vec![0],
            },
            WalRecord::CreateIndex {
                table: "T".into(),
                name: "by_name".into(),
                columns: vec![1],
                kind: IndexKind::BTree,
                unique: false,
            },
            WalRecord::Insert {
                table: "T".into(),
                rid: 0,
                row: vec![Value::Int(1), Value::text("ann")],
            },
            WalRecord::Update {
                table: "T".into(),
                rid: 0,
                row: vec![Value::Int(1), Value::text("ann b.")],
            },
            WalRecord::Delete {
                table: "T".into(),
                rid: 0,
            },
            WalRecord::DropTable { table: "T".into() },
        ]
    }

    /// Updates and deletes encode with tags 2/3 and their redo fields
    /// only: table, rid, and for an update the new row.
    #[test]
    fn update_and_delete_encode_redo_fields_only() {
        let mut upd = vec![OP_UPDATE];
        codec::write_str("T", &mut upd);
        codec::write_u64(7, &mut upd);
        codec::write_row(&[Value::Int(9)], &mut upd);
        let mut del = vec![OP_DELETE];
        codec::write_str("T", &mut del);
        codec::write_u64(7, &mut del);
        for (rec, bytes) in [
            (
                WalRecord::Update {
                    table: "T".into(),
                    rid: 7,
                    row: vec![Value::Int(9)],
                },
                upd,
            ),
            (
                WalRecord::Delete {
                    table: "T".into(),
                    rid: 7,
                },
                del,
            ),
        ] {
            let mut encoded = Vec::new();
            encode_record(&rec, &mut encoded);
            assert_eq!(encoded, bytes);
            assert_eq!(decode_record(&bytes).unwrap(), rec);
        }
    }

    /// A v2 UPDATE and a v2 DELETE (tags 7 and 8) as the encoder that
    /// wrote pre-images emitted them: the redo fields, then the image.
    const V2_UPDATE_HEX: &str = "0708436f6d6d656e7473ac0204030805036e65770204000000000000e0bf04030505066f6c6420c3a900040000000000000440";
    const V2_DELETE_HEX: &str = "0805566f746573f0a20404030505066f6c6420c3a900040000000000000440";

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(text: &str) -> Vec<u8> {
        (0..text.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Logs written with pre-images still recover: a v2 payload decodes
    /// to the redo record, and that record now encodes as the v2 bytes
    /// with tag 2/3 and without the image.
    #[test]
    fn v2_golden_payloads_decode_to_redo_records() {
        let update = WalRecord::Update {
            table: "Comments".into(),
            rid: 300,
            row: vec![
                Value::Int(4),
                Value::text("new"),
                Value::Bool(true),
                Value::Float(-0.5),
            ],
        };
        let delete = WalRecord::Delete {
            table: "Votes".into(),
            rid: 70_000,
        };
        let mut image = Vec::new();
        codec::write_row(
            &[
                Value::Int(-3),
                Value::text("old é"),
                Value::Null,
                Value::Float(2.5),
            ],
            &mut image,
        );
        for (rec, golden, v2_tag) in [
            (update, V2_UPDATE_HEX, OP_UPDATE_V2),
            (delete, V2_DELETE_HEX, OP_DELETE_V2),
        ] {
            assert_eq!(decode_record(&unhex(golden)).unwrap(), rec);
            let mut v2 = Vec::new();
            encode_record(&rec, &mut v2);
            assert!(v2.len() < golden.len() / 2, "no image is written");
            v2[0] = v2_tag;
            v2.extend_from_slice(&image);
            assert_eq!(hex(&v2), golden);
        }
    }

    #[test]
    fn records_roundtrip() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            encode_record(&rec, &mut buf);
            assert_eq!(decode_record(&buf).unwrap(), rec);
        }
    }

    fn write_all(records: &[WalRecord], cfg: WalConfig) -> (MemBackend, Vec<u8>) {
        let backend = MemBackend::new();
        let mut wal = Wal::new(Arc::new(backend.clone()), 0, 0, cfg);
        for rec in records {
            wal.append(rec).unwrap();
        }
        wal.flush().unwrap();
        let data = backend.read(&wal_file_name(0)).unwrap().unwrap();
        (backend, data)
    }

    #[test]
    fn scan_reads_back_everything() {
        let records = sample_records();
        let (_, data) = write_all(&records, WalConfig::default());
        let scan = scan(&data, 0);
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, data.len() as u64);
        assert_eq!(scan.records, records);
    }

    #[test]
    fn group_commit_buffers_until_batch() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(
            Arc::new(backend.clone()),
            0,
            0,
            WalConfig {
                fsync: FsyncPolicy::Always,
                group_commit: 3,
            },
        );
        let rec = WalRecord::Delete {
            table: "T".into(),
            rid: 9,
        };
        wal.append(&rec).unwrap();
        wal.append(&rec).unwrap();
        assert_eq!(backend.read(&wal_file_name(0)).unwrap(), None, "buffered");
        wal.append(&rec).unwrap(); // third record completes the group
        let data = backend.read(&wal_file_name(0)).unwrap().unwrap();
        assert_eq!(scan(&data, 0).records.len(), 3);
    }

    #[test]
    fn every_truncation_point_yields_a_record_prefix() {
        let records = sample_records();
        let (_, data) = write_all(&records, WalConfig::default());
        for cut in 0..data.len() {
            let scan_result = scan(&data[..cut], 0);
            assert!(
                scan_result.records.len() <= records.len(),
                "cut={cut}: more records than written"
            );
            assert_eq!(
                scan_result.records,
                records[..scan_result.records.len()],
                "cut={cut}: not a prefix"
            );
            assert!(
                scan_result.valid_len <= cut as u64,
                "cut={cut}: valid_len beyond data"
            );
        }
    }

    #[test]
    fn bit_flips_are_caught_everywhere() {
        let records = sample_records();
        let (_, data) = write_all(&records, WalConfig::default());
        // Flip one bit at every byte: scan must never panic and never
        // return a record sequence that is not a prefix.
        for i in 0..data.len() {
            let mut bad = data.clone();
            bad[i] ^= 0x40;
            let scan_result = scan(&bad, 0);
            let n = scan_result.records.len();
            // All records before the flipped frame must survive intact.
            if n > 0 && scan_result.records[..n] != records[..n] {
                // A flip inside a row value can decode to a different
                // valid value only if the CRC also matched — impossible.
                panic!("flip at {i} produced non-prefix records");
            }
        }
    }

    #[test]
    fn a_new_wal_file_syncs_its_directory_entry_once() {
        let backend = Arc::new(RecordingBackend::default());
        let mut wal = Wal::new(backend.clone(), 0, 0, WalConfig::default());
        let rec = WalRecord::Delete {
            table: "T".into(),
            rid: 1,
        };
        let (w0, w1) = (wal_file_name(0), wal_file_name(1));
        wal.append(&rec).unwrap();
        assert_eq!(
            backend.take_calls(),
            [
                format!("append {w0}"),
                format!("sync {w0}"),
                "sync_dir".into()
            ]
        );
        wal.append(&rec).unwrap();
        assert_eq!(
            backend.take_calls(),
            [format!("append {w0}"), format!("sync {w0}")]
        );
        wal.rotate().unwrap();
        wal.append(&rec).unwrap();
        assert_eq!(
            backend.take_calls(),
            [
                format!("append {w1}"),
                format!("sync {w1}"),
                "sync_dir".into()
            ]
        );

        // A failed directory sync fails the append that needed it, and
        // the next append into that file tries it again.
        backend.fail_dir_sync.store(true, Ordering::Relaxed);
        wal.rotate().unwrap();
        assert!(matches!(wal.append(&rec), Err(StorageError::Io(_))));
        backend.fail_dir_sync.store(false, Ordering::Relaxed);
        let w2 = wal_file_name(2);
        backend.take_calls();
        wal.append(&rec).unwrap();
        assert_eq!(
            backend.take_calls(),
            [
                format!("append {w2}"),
                format!("sync {w2}"),
                "sync_dir".into()
            ]
        );
        wal.append(&rec).unwrap();
        assert_eq!(
            backend.take_calls(),
            [format!("append {w2}"), format!("sync {w2}")]
        );
    }

    #[test]
    fn rotation_moves_to_next_file() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(Arc::new(backend.clone()), 0, 0, WalConfig::default());
        let rec = WalRecord::Delete {
            table: "T".into(),
            rid: 1,
        };
        wal.append(&rec).unwrap();
        assert_eq!(wal.rotate().unwrap(), 1);
        wal.append(&rec).unwrap();
        wal.flush().unwrap();
        assert!(backend.read(&wal_file_name(0)).unwrap().is_some());
        assert!(backend.read(&wal_file_name(1)).unwrap().is_some());
        assert_eq!(parse_wal_seq("wal-00000001.log"), Some(1));
        assert_eq!(parse_wal_seq("snapshot-00000001.snap"), None);
    }
}
