//! Snapshots: full table images plus the WAL position they cover.
//!
//! ## File format
//!
//! ```text
//! [magic "CRSNAP1\0": 8][crc32(body): u32 LE][body]
//! body := wal_seq wal_offset ntables table*
//! table := name version pk_columns schema indexes slot_count nlive (rid row)*
//! ```
//!
//! All integers are LEB128 varints; strings, schemas and rows use
//! [`cr_relation::codec`] / the WAL's schema helpers. Tables are written
//! in sorted-name order so identical states produce identical bytes.
//!
//! Live rows are stored as `(rid, row)` pairs alongside the total slot
//! count, so tombstone gaps — and therefore row ids — survive a restart.
//! Each table's mutation counter ([`Table::version`]) is stored too;
//! result caches keyed on versions stay correct across recovery.
//!
//! The `(wal_seq, wal_offset)` header is captured **before** table
//! encoding begins. Mutations that land during encoding may or may not
//! appear in the images, but they all sit at WAL positions at or after
//! the header, so replay revisits them; replay is idempotent, so the
//! double-apply is harmless. Snapshot files are written via
//! `write_atomic` (tmp + rename): a crash mid-snapshot leaves the
//! previous snapshot intact.

use cr_relation::codec;
use cr_relation::row::Row;
use cr_relation::table::Table;
use cr_relation::Catalog;

use crate::crc32::crc32;
use crate::wal::{read_schema, write_schema};
use crate::{StorageError, StorageResult};

/// Leading bytes of every snapshot file.
pub const MAGIC: &[u8; 8] = b"CRSNAP1\0";

/// `snapshot-<seq>.snap`.
pub fn snapshot_file_name(seq: u64) -> String {
    format!("snapshot-{seq:08}.snap")
}

/// Parse a `snapshot-<seq>.snap` name back to its sequence number.
pub fn parse_snapshot_seq(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

fn corrupt(what: impl Into<String>) -> StorageError {
    StorageError::Corrupt(what.into())
}

/// A decoded snapshot: the WAL position replay must start from, and the
/// restored tables (with secondary indexes rebuilt).
pub struct Snapshot {
    pub wal_seq: u64,
    pub wal_offset: u64,
    pub tables: Vec<Table>,
}

/// Encode the catalog's full state. `wal_seq`/`wal_offset` must be a
/// flushed WAL position captured before this call starts reading tables.
pub fn encode_snapshot(catalog: &Catalog, wal_seq: u64, wal_offset: u64) -> Vec<u8> {
    let mut body = Vec::new();
    codec::write_u64(wal_seq, &mut body);
    codec::write_u64(wal_offset, &mut body);
    // Pin one atomic cut across every table (MVCC snapshot): the encoded
    // image can never be torn across tables by a racing writer. The cut
    // is taken *after* the WAL position above was captured, so anything
    // the image reflects beyond that position sits in the WAL tail and
    // replays as a no-op — recovered state is always a WAL prefix.
    let pinned = catalog.snapshot().catalog();
    let names = pinned.table_names(); // sorted (BTreeMap keys)
    codec::write_u64(names.len() as u64, &mut body);
    for name in &names {
        let _ = pinned.with_table(name, |t| encode_table(t, &mut body));
    }
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn encode_table(t: &Table, out: &mut Vec<u8>) {
    codec::write_str(t.name(), out);
    codec::write_u64(t.version(), out);
    codec::write_u64(t.pk_columns().len() as u64, out);
    for &c in t.pk_columns() {
        codec::write_u64(c as u64, out);
    }
    write_schema(t.schema(), out);
    codec::write_u64(t.indexes().len() as u64, out);
    for idx in t.indexes() {
        codec::write_str(&idx.name, out);
        codec::write_u64(idx.columns.len() as u64, out);
        for &c in &idx.columns {
            codec::write_u64(c as u64, out);
        }
        out.push(match idx.kind() {
            cr_relation::index::IndexKind::Hash => 0,
            cr_relation::index::IndexKind::BTree => 1,
        });
        out.push(idx.unique as u8);
    }
    codec::write_u64(t.slot_count() as u64, out);
    codec::write_u64(t.len() as u64, out);
    for (rid, row) in t.scan() {
        codec::write_u64(rid.0, out);
        codec::write_row(row, out);
    }
}

/// Validate magic + CRC and return the body slice.
fn checked_body(data: &[u8]) -> StorageResult<&[u8]> {
    if data.len() < MAGIC.len() + 4 {
        return Err(corrupt("snapshot shorter than header"));
    }
    if &data[..MAGIC.len()] != MAGIC {
        return Err(corrupt("bad snapshot magic"));
    }
    let crc = u32::from_le_bytes(data[8..12].try_into().expect("4-byte slice"));
    let body = &data[12..];
    if crc32(body) != crc {
        return Err(corrupt("snapshot crc mismatch"));
    }
    Ok(body)
}

/// Decode a snapshot file. Any structural problem is [`StorageError::Corrupt`];
/// recovery reacts by falling back to the previous snapshot.
pub fn decode_snapshot(data: &[u8]) -> StorageResult<Snapshot> {
    let body = checked_body(data)?;
    let pos = &mut 0usize;
    let wal_seq = codec::read_u64(body, pos)?;
    let wal_offset = codec::read_u64(body, pos)?;
    let ntables = codec::read_u64(body, pos)? as usize;
    if ntables > body.len().saturating_sub(*pos) {
        return Err(corrupt("snapshot table count exceeds buffer"));
    }
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        tables.push(decode_table(body, pos)?);
    }
    if *pos != body.len() {
        return Err(corrupt("trailing bytes in snapshot body"));
    }
    Ok(Snapshot {
        wal_seq,
        wal_offset,
        tables,
    })
}

fn decode_table(body: &[u8], pos: &mut usize) -> StorageResult<Table> {
    let name = codec::read_str(body, pos)?;
    let version = codec::read_u64(body, pos)?;
    let npk = codec::read_u64(body, pos)? as usize;
    if npk > body.len().saturating_sub(*pos) {
        return Err(corrupt("snapshot pk count exceeds buffer"));
    }
    let pk_columns = (0..npk)
        .map(|_| Ok(codec::read_u64(body, pos)? as usize))
        .collect::<StorageResult<Vec<_>>>()?;
    let schema = read_schema(body, pos)?;
    let nidx = codec::read_u64(body, pos)? as usize;
    if nidx > body.len().saturating_sub(*pos) {
        return Err(corrupt("snapshot index count exceeds buffer"));
    }
    let mut index_defs = Vec::with_capacity(nidx);
    for _ in 0..nidx {
        let iname = codec::read_str(body, pos)?;
        let ncols = codec::read_u64(body, pos)? as usize;
        if ncols > body.len().saturating_sub(*pos) {
            return Err(corrupt("snapshot index column count exceeds buffer"));
        }
        let columns = (0..ncols)
            .map(|_| Ok(codec::read_u64(body, pos)? as usize))
            .collect::<StorageResult<Vec<_>>>()?;
        let kind = match read_u8(body, pos)? {
            0 => cr_relation::index::IndexKind::Hash,
            1 => cr_relation::index::IndexKind::BTree,
            other => return Err(corrupt(format!("bad snapshot index kind {other}"))),
        };
        let unique = read_u8(body, pos)? != 0;
        index_defs.push((iname, columns, kind, unique));
    }
    let slot_count = codec::read_u64(body, pos)? as usize;
    let nlive = codec::read_u64(body, pos)? as usize;
    if nlive > body.len().saturating_sub(*pos) || nlive > slot_count {
        return Err(corrupt("snapshot live count implausible"));
    }
    // slot_count is CRC-protected but still bound it against the body:
    // each live row costs ≥2 bytes, and tombstones can't outnumber the
    // mutations a plausible log could hold.
    if slot_count > (1usize << 40) {
        return Err(corrupt("snapshot slot count implausible"));
    }
    let mut slots: Vec<Option<Row>> = vec![None; slot_count];
    for _ in 0..nlive {
        let rid = codec::read_u64(body, pos)? as usize;
        let row = codec::read_row(body, pos)?;
        let slot = slots
            .get_mut(rid)
            .ok_or_else(|| corrupt("snapshot rid out of range"))?;
        if slot.is_some() {
            return Err(corrupt("duplicate rid in snapshot"));
        }
        if row.len() != schema.len() {
            return Err(corrupt("snapshot row arity mismatch"));
        }
        *slot = Some(row);
    }
    let mut table = Table::restore(name, schema, pk_columns, slots, version);
    for (iname, columns, kind, unique) in index_defs {
        table.create_index(iname, columns, kind, unique)?;
    }
    Ok(table)
}

fn read_u8(body: &[u8], pos: &mut usize) -> StorageResult<u8> {
    let b = *body
        .get(*pos)
        .ok_or_else(|| corrupt("snapshot truncated"))?;
    *pos += 1;
    Ok(b)
}

/// Read just the WAL position a snapshot covers (for WAL pruning),
/// validating magic + CRC first.
pub fn peek_wal_position(data: &[u8]) -> StorageResult<(u64, u64)> {
    let body = checked_body(data)?;
    let pos = &mut 0usize;
    let wal_seq = codec::read_u64(body, pos)?;
    let wal_offset = codec::read_u64(body, pos)?;
    Ok((wal_seq, wal_offset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_relation::row::{row, RowId};
    use cr_relation::schema::{Column, DataType, Schema};
    use cr_relation::Value;

    fn populated_catalog() -> Catalog {
        let c = Catalog::new();
        let schema = Schema::qualified(
            "courses",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("title", DataType::Text),
                Column::new("units", DataType::Float),
            ],
        );
        c.create_table("Courses", schema, vec![0]).unwrap();
        c.with_table_mut("courses", |t| {
            t.insert(row![1i64, "Databases", 4.0f64]).unwrap();
            t.insert(row![2i64, "Compilers", 3.0f64]).unwrap();
            let rid = t.insert(row![3i64, "Dropped", 1.0f64]).unwrap();
            t.delete(rid); // leave a tombstone gap
            t.insert(row![4i64, Value::Null, 2.0f64]).unwrap();
            t.create_index(
                "by_title",
                vec![1],
                cr_relation::index::IndexKind::BTree,
                false,
            )
            .unwrap();
        })
        .unwrap();
        c
    }

    #[test]
    fn roundtrip_preserves_rids_versions_and_indexes() {
        let c = populated_catalog();
        let before_version = c.table_version("courses").unwrap();
        let data = encode_snapshot(&c, 7, 4242);
        let snap = decode_snapshot(&data).unwrap();
        assert_eq!((snap.wal_seq, snap.wal_offset), (7, 4242));
        assert_eq!(snap.tables.len(), 1);
        let t = &snap.tables[0];
        assert_eq!(t.name(), "Courses");
        assert_eq!(t.version(), before_version);
        assert_eq!(t.len(), 3);
        assert_eq!(t.slot_count(), 4); // tombstone preserved
        assert_eq!(t.pk_columns(), &[0]);
        let idx = t.index("by_title").expect("index rebuilt");
        assert_eq!(idx.columns, vec![1]);
        assert!(!idx.unique);
        // Row ids survive: slot 3 holds id=4.
        assert_eq!(
            t.get(RowId(3)).unwrap()[0],
            Value::Int(4),
            "rid mapping preserved"
        );
        assert!(t.get(RowId(2)).is_none(), "tombstone preserved");
    }

    /// A table with a composite primary key, a hash and a B-tree index,
    /// and tombstones both inside the slot array and at its end.
    fn golden_catalog() -> Catalog {
        let c = Catalog::new();
        let schema = Schema::qualified(
            "offerings",
            vec![
                Column::not_null("dept", DataType::Text),
                Column::not_null("num", DataType::Int),
                Column::new("title", DataType::Text),
                Column::new("units", DataType::Float),
            ],
        );
        c.create_table("Offerings", schema, vec![0, 1]).unwrap();
        c.with_table_mut("offerings", |t| {
            use cr_relation::index::IndexKind;
            t.create_index("by_title", vec![2], IndexKind::Hash, false)
                .unwrap();
            t.create_index("by_units", vec![3], IndexKind::BTree, false)
                .unwrap();
            let rows = [
                row!["CS", 145i64, "Databases", 4.0f64],
                row!["CS", 143i64, "Compilers", 3.0f64],
                row!["EE", 108i64, "Digital Systems", 4.0f64],
                row!["CS", 999i64, "Dropped", 1.0f64],
                row!["MATH", 51i64, Value::Null, 5.0f64],
                row!["CS", 998i64, "Dropped too", 2.0f64],
            ];
            let rids: Vec<RowId> = rows.into_iter().map(|r| t.insert(r).unwrap()).collect();
            t.delete(rids[3]);
            t.delete(rids[5]);
            t.update(rids[1], row!["CS", 143i64, "Compilers", 4.0f64])
                .unwrap();
        })
        .unwrap();
        c
    }

    /// The snapshot encoding of [`golden_catalog`], byte for byte. A
    /// change to how tables store rows or indexes must not move a byte
    /// of what reaches disk.
    const GOLDEN_SNAPSHOT_HEX: &str = concat!(
        "4352534e4150310056ebd210034d01094f66666572696e677309020001040464",
        "657074030001096f66666572696e6773036e756d010001096f66666572696e67",
        "73057469746c65030101096f66666572696e677305756e697473020101096f66",
        "666572696e6773020862795f7469746c65010200000862795f756e6974730103",
        "0100060400040502435303a20205094461746162617365730400000000000010",
        "40010405024353039e020509436f6d70696c6572730400000000000010400204",
        "0502454503d801050f4469676974616c2053797374656d730400000000000010",
        "40040405044d415448036600040000000000001440",
    );

    #[test]
    fn golden_encoding_is_unchanged() {
        let hex: String = encode_snapshot(&golden_catalog(), 3, 77)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, GOLDEN_SNAPSHOT_HEX);
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = encode_snapshot(&populated_catalog(), 1, 2);
        let b = encode_snapshot(&populated_catalog(), 1, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let data = encode_snapshot(&populated_catalog(), 0, 0);
        // Truncations.
        for cut in 0..data.len() {
            assert!(
                decode_snapshot(&data[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // Single-bit flips anywhere must be rejected (magic, crc, body).
        for i in 0..data.len() {
            let mut bad = data.clone();
            bad[i] ^= 0x10;
            assert!(decode_snapshot(&bad).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn peek_matches_full_decode() {
        let data = encode_snapshot(&populated_catalog(), 9, 1234);
        assert_eq!(peek_wal_position(&data).unwrap(), (9, 1234));
    }

    #[test]
    fn file_names_roundtrip() {
        assert_eq!(snapshot_file_name(3), "snapshot-00000003.snap");
        assert_eq!(parse_snapshot_seq("snapshot-00000003.snap"), Some(3));
        assert_eq!(parse_snapshot_seq("wal-00000003.log"), None);
    }
}
