//! Snapshots: the table images recovery starts from, plus the WAL
//! position they cover.
//!
//! ## Recovery points and chains
//!
//! A checkpoint writes one *link*: either a **base**, every persisted
//! table in full, or a **delta**, only the 128-slot row chunks
//! ([`cr_relation::table::CHUNK_ROWS`]) that changed since the previous
//! link. A delta names its base and the link it was written over, so the
//! links from a base up to any later delta form a *chain*, and every
//! link is a recovery point: its chain merged in order gives the tables
//! at that link's cut. Links share one sequence: `snapshot-<seq>.snap`
//! for a base, `snapshot-<seq>.delta` for a delta.
//!
//! ## Base format
//!
//! ```text
//! [magic "CRSNAP1\0": 8][crc32(body): u32 LE][body]
//! body  := wal_seq wal_offset ntables (header (rid row)*)*
//! header := name version pk_columns schema indexes slot_count nlive
//! ```
//!
//! ## Delta format
//!
//! ```text
//! [magic "CRDELT1\0": 8][crc32(body): u32 LE][body]
//! body  := base_seq prev_seq wal_seq wal_offset ntables (header ndirty chunk*)*
//! chunk := index nrows (rid row)*
//! ```
//!
//! A delta carries every persisted table's header, so a table missing
//! from it was dropped, and its slot count and live count. A chunk that
//! is not listed is taken from the previous link; a listed chunk replaces
//! it whole (its rows are the chunk's live slots). A new table, or one
//! replaced whole, has no chunk in common with the previous link, so all
//! of its chunks are listed: deltas need no DDL cases. Which chunks
//! changed is an `Arc::ptr_eq` test against the chunks of the previous
//! link's cut ([`Manifest`]): a chunk that anyone holds is copied before
//! it is written (see [`Table::chunks`]).
//!
//! All integers are LEB128 varints; strings, schemas and rows use
//! [`cr_relation::codec`] / the WAL's schema helpers. Tables are written
//! in sorted-name order and chunks in index order, so identical states
//! produce identical bytes.
//!
//! Live rows are stored as `(rid, row)` pairs alongside the total slot
//! count, so tombstone gaps — and therefore row ids — survive a restart.
//! Each table's mutation counter ([`Table::version`]) is stored too;
//! result caches keyed on versions stay correct across recovery.
//!
//! The `(wal_seq, wal_offset)` header is captured **before** the cut is
//! pinned. Mutations that land meanwhile may or may not appear in the
//! images, but they all sit at WAL positions at or after the header, so
//! replay revisits them; replay is idempotent, so the double-apply is
//! harmless. Link files are written via `write_atomic` (tmp + rename): a
//! crash mid-checkpoint leaves the previous links intact.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use cr_relation::codec;
use cr_relation::index::IndexKind;
use cr_relation::row::Row;
use cr_relation::schema::Schema;
use cr_relation::table::{Chunk, Table, CHUNK_ROWS};
use cr_relation::Catalog;

use crate::crc32::crc32;
use crate::wal::{read_schema, write_schema};
use crate::{StorageError, StorageResult};

/// Leading bytes of every base snapshot file.
pub const MAGIC: &[u8; 8] = b"CRSNAP1\0";

/// Leading bytes of every delta file.
pub const DELTA_MAGIC: &[u8; 8] = b"CRDELT1\0";

/// `snapshot-<seq>.snap`.
pub fn snapshot_file_name(seq: u64) -> String {
    format!("snapshot-{seq:08}.snap")
}

/// `snapshot-<seq>.delta`.
pub fn delta_file_name(seq: u64) -> String {
    format!("snapshot-{seq:08}.delta")
}

/// Parse a `snapshot-<seq>.snap` name back to its sequence number.
pub fn parse_snapshot_seq(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Parse a link file name: its sequence number, and whether it is a
/// delta (`.delta`) rather than a base (`.snap`).
pub fn parse_link_name(name: &str) -> Option<(u64, bool)> {
    if let Some(seq) = parse_snapshot_seq(name) {
        return Some((seq, false));
    }
    let seq = name
        .strip_prefix("snapshot-")?
        .strip_suffix(".delta")?
        .parse()
        .ok()?;
    Some((seq, true))
}

fn corrupt(what: impl Into<String>) -> StorageError {
    StorageError::Corrupt(what.into())
}

/// What a link file's header says: enough to resolve chains and decide
/// retention without decoding a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkInfo {
    pub seq: u64,
    /// The base this link's chain starts from (`seq` itself for a base).
    pub base_seq: u64,
    /// The link a delta was written over; `None` for a base.
    pub prev_seq: Option<u64>,
    /// WAL position replay resumes from when recovering this link.
    pub wal_seq: u64,
    pub wal_offset: u64,
    /// File size.
    pub bytes: u64,
}

impl LinkInfo {
    pub fn is_delta(&self) -> bool {
        self.prev_seq.is_some()
    }

    pub fn file_name(&self) -> String {
        if self.is_delta() {
            delta_file_name(self.seq)
        } else {
            snapshot_file_name(self.seq)
        }
    }
}

/// The chain a recovery point needs, newest link first and ending at its
/// base, or `None` if a link is missing from `links` or names an
/// impossible predecessor (not older, or of another base).
pub fn chain(links: &BTreeMap<u64, LinkInfo>, seq: u64) -> Option<Vec<u64>> {
    let mut out = vec![seq];
    let mut link = links.get(&seq)?;
    while let Some(prev) = link.prev_seq {
        let next = links.get(&prev)?;
        if prev >= link.seq || next.base_seq != link.base_seq {
            return None;
        }
        out.push(prev);
        link = next;
    }
    (link.seq == link.base_seq).then_some(out)
}

/// Where a delta sits in its chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaLink {
    pub base_seq: u64,
    pub prev_seq: u64,
}

/// The chunks of every table of one cut, by table name: what the next
/// delta is taken against. Holding the `Arc`s keeps them unchanged
/// ([`Table::chunks`]), so pointer equality with them is a sound "not
/// written since" test.
#[derive(Debug, Clone, Default)]
pub struct Manifest(HashMap<String, Vec<Arc<Chunk>>>);

/// The tables of one pinned catalog cut, in name order: what a
/// checkpoint encodes.
pub struct Cut(Vec<Arc<Table>>);

impl Cut {
    /// Pin one atomic cut across every table (MVCC snapshot): the encoded
    /// image can never be torn across tables by a racing writer.
    pub fn pin(catalog: &Catalog) -> Cut {
        let pinned = catalog.snapshot().catalog();
        Cut(pinned
            .table_names() // sorted (BTreeMap keys)
            .iter()
            .filter_map(|name| pinned.pin_table(name).ok())
            .collect())
    }

    /// Chunks across every table of the cut.
    pub fn total_chunks(&self) -> usize {
        self.0.iter().map(|t| t.chunks().len()).sum()
    }

    /// This cut's chunks, for the next delta to be taken against.
    pub fn manifest(&self) -> Manifest {
        Manifest(
            self.0
                .iter()
                .map(|t| (t.name().to_owned(), t.chunks().to_vec()))
                .collect(),
        )
    }

    /// Does this cut hold exactly `manifest`'s tables, chunk for chunk?
    pub fn holds(&self, manifest: &Manifest) -> bool {
        self.0.len() == manifest.0.len()
            && self.0.iter().all(|t| {
                manifest.0.get(t.name()).is_some_and(|chunks| {
                    chunks.len() == t.chunks().len()
                        && chunks
                            .iter()
                            .zip(t.chunks())
                            .all(|(a, b)| Arc::ptr_eq(a, b))
                })
            })
    }

    /// Encode the cut as a base. `wal_seq`/`wal_offset` must be a flushed
    /// WAL position captured before the cut was pinned.
    pub fn encode_base(&self, wal_seq: u64, wal_offset: u64) -> Vec<u8> {
        framed(MAGIC, |body| {
            codec::write_u64(wal_seq, body);
            codec::write_u64(wal_offset, body);
            codec::write_u64(self.0.len() as u64, body);
            for t in &self.0 {
                encode_header(t, body);
                for (rid, row) in t.scan() {
                    codec::write_u64(rid.0, body);
                    codec::write_row(row, body);
                }
            }
        })
    }

    /// Encode the cut as a delta over the link `since` was taken from:
    /// every table's header, and each chunk not `Arc::ptr_eq` to the
    /// chunk at its index in `since`. Returns the bytes and the number of
    /// chunks written.
    pub fn encode_delta(
        &self,
        since: &Manifest,
        link: DeltaLink,
        wal_seq: u64,
        wal_offset: u64,
    ) -> (Vec<u8>, usize) {
        let mut written = 0;
        let data = framed(DELTA_MAGIC, |body| {
            codec::write_u64(link.base_seq, body);
            codec::write_u64(link.prev_seq, body);
            codec::write_u64(wal_seq, body);
            codec::write_u64(wal_offset, body);
            codec::write_u64(self.0.len() as u64, body);
            for t in &self.0 {
                encode_header(t, body);
                let old = since.0.get(t.name()).map_or(&[][..], Vec::as_slice);
                let dirty: Vec<usize> = (0..t.chunks().len())
                    .filter(|&i| !old.get(i).is_some_and(|o| Arc::ptr_eq(o, &t.chunks()[i])))
                    .collect();
                codec::write_u64(dirty.len() as u64, body);
                for i in dirty {
                    let live: Vec<(usize, &Row)> = t.chunks()[i]
                        .iter()
                        .enumerate()
                        .filter_map(|(j, slot)| slot.as_ref().map(|r| (i * CHUNK_ROWS + j, r)))
                        .collect();
                    codec::write_u64(i as u64, body);
                    codec::write_u64(live.len() as u64, body);
                    for (rid, row) in live {
                        codec::write_u64(rid as u64, body);
                        codec::write_row(row, body);
                    }
                    written += 1;
                }
            }
        });
        (data, written)
    }
}

/// `[magic][crc32(body) LE][body]`, the body written in place after the
/// header (no second copy of it).
fn framed(magic: &[u8; 8], write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&[0; 4]);
    write_body(&mut out);
    let crc = crc32(&out[magic.len() + 4..]);
    out[magic.len()..magic.len() + 4].copy_from_slice(&crc.to_le_bytes());
    out
}

fn encode_header(t: &Table, out: &mut Vec<u8>) {
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
            IndexKind::Hash => 0,
            IndexKind::BTree => 1,
        });
        out.push(idx.unique as u8);
    }
    codec::write_u64(t.slot_count() as u64, out);
    codec::write_u64(t.len() as u64, out);
}

/// Validate magic + CRC and return the body slice.
fn checked_body<'a>(data: &'a [u8], magic: &[u8; 8]) -> StorageResult<&'a [u8]> {
    if data.len() < magic.len() + 4 {
        return Err(corrupt("snapshot shorter than header"));
    }
    if &data[..magic.len()] != magic {
        return Err(corrupt("bad snapshot magic"));
    }
    let crc = u32::from_le_bytes(data[8..12].try_into().expect("4-byte slice"));
    let body = &data[12..];
    if crc32(body) != crc {
        return Err(corrupt("snapshot crc mismatch"));
    }
    Ok(body)
}

/// A link file whose magic and CRC checked out, with its header read.
/// Decoding its tables later needs no second CRC pass.
pub struct LinkFile {
    pub info: LinkInfo,
    data: Vec<u8>,
}

impl LinkFile {
    /// Check a link file read from disk (`delta` as its name says) and
    /// read its header.
    pub fn check(seq: u64, delta: bool, data: Vec<u8>) -> StorageResult<LinkFile> {
        let body = checked_body(&data, if delta { DELTA_MAGIC } else { MAGIC })?;
        let pos = &mut 0usize;
        let (base_seq, prev_seq) = if delta {
            let base = codec::read_u64(body, pos)?;
            let prev = codec::read_u64(body, pos)?;
            (base, Some(prev))
        } else {
            (seq, None)
        };
        let info = LinkInfo {
            seq,
            base_seq,
            prev_seq,
            wal_seq: codec::read_u64(body, pos)?,
            wal_offset: codec::read_u64(body, pos)?,
            bytes: data.len() as u64,
        };
        Ok(LinkFile { info, data })
    }

    fn body(&self) -> &[u8] {
        &self.data[MAGIC.len() + 4..]
    }

    /// Decode a base's tables (not yet built: see [`Image::build`]).
    pub fn decode_base(&self) -> StorageResult<Image> {
        if self.info.is_delta() {
            return Err(corrupt("a delta is not a base"));
        }
        let body = self.body();
        let pos = &mut 0usize;
        codec::read_u64(body, pos)?; // wal_seq, in `info`
        codec::read_u64(body, pos)?; // wal_offset
        let ntables = read_count(body, pos, "snapshot table count")?;
        let mut tables = Vec::with_capacity(ntables);
        for _ in 0..ntables {
            let header = decode_header(body, pos)?;
            // Each live row costs at least two bytes.
            if header.live > body.len().saturating_sub(*pos) {
                return Err(corrupt("snapshot live count exceeds buffer"));
            }
            let mut slots: Vec<Option<Row>> = vec![None; header.slot_count];
            for _ in 0..header.live {
                let rid = codec::read_u64(body, pos)? as usize;
                let row = codec::read_row(body, pos)?;
                put_row(&mut slots, &header.schema, rid, row)?;
            }
            tables.push(TableImage { header, slots });
        }
        if *pos != body.len() {
            return Err(corrupt("trailing bytes in snapshot body"));
        }
        Ok(Image { tables })
    }

    /// Merge this delta into `image`, the tables at its previous link.
    /// Listed chunks replace the previous link's whole; the rest carry
    /// over. A chunk index at or past the table's chunk count, or a chunk
    /// the previous link cannot supply (past its slot array, or of a
    /// table it did not have) that the delta does not list, is
    /// [`StorageError::Corrupt`].
    pub fn apply_delta(&self, image: &mut Image) -> StorageResult<()> {
        if !self.info.is_delta() {
            return Err(corrupt("a base is not a delta"));
        }
        let body = self.body();
        let pos = &mut 0usize;
        for _ in 0..4 {
            codec::read_u64(body, pos)?; // base, prev, wal position: in `info`
        }
        let mut prev: HashMap<String, Vec<Option<Row>>> = std::mem::take(&mut image.tables)
            .into_iter()
            .map(|t| (t.header.name, t.slots))
            .collect();
        let ntables = read_count(body, pos, "delta table count")?;
        for _ in 0..ntables {
            let header = decode_header(body, pos)?;
            let mut slots = prev.remove(&header.name).unwrap_or_default();
            let supplied = slots.len().div_ceil(CHUNK_ROWS);
            let nchunks = header.slot_count.div_ceil(CHUNK_ROWS);
            slots.resize(header.slot_count, None);
            // Chunks `[supplied, nchunks)` exist only in this delta.
            let mut must_list = supplied.min(nchunks);
            let mut last = None;
            for _ in 0..read_count(body, pos, "delta chunk count")? {
                let index = codec::read_u64(body, pos)? as usize;
                if index >= nchunks {
                    return Err(corrupt("delta chunk index past the table"));
                }
                if last.is_some_and(|l| l >= index) {
                    return Err(corrupt("delta chunks out of order"));
                }
                last = Some(index);
                if index >= supplied {
                    if index != must_list {
                        return Err(corrupt(
                            "delta lacks a chunk its previous link cannot supply",
                        ));
                    }
                    must_list += 1;
                }
                let span = index * CHUNK_ROWS..((index + 1) * CHUNK_ROWS).min(header.slot_count);
                slots[span.clone()].fill(None);
                let nrows = read_count(body, pos, "delta chunk row count")?;
                if nrows > span.len() {
                    return Err(corrupt("delta chunk holds more rows than slots"));
                }
                for _ in 0..nrows {
                    let rid = codec::read_u64(body, pos)? as usize;
                    if !span.contains(&rid) {
                        return Err(corrupt("delta rid outside its chunk"));
                    }
                    let row = codec::read_row(body, pos)?;
                    put_row(&mut slots, &header.schema, rid, row)?;
                }
            }
            if must_list != nchunks {
                return Err(corrupt(
                    "delta lacks a chunk its previous link cannot supply",
                ));
            }
            image.tables.push(TableImage { header, slots });
        }
        if *pos != body.len() {
            return Err(corrupt("trailing bytes in delta body"));
        }
        Ok(())
    }
}

/// A recovery point's tables at the slot level: merged link by link,
/// then built into [`Table`]s once.
pub struct Image {
    tables: Vec<TableImage>,
}

struct TableImage {
    header: TableHeader,
    slots: Vec<Option<Row>>,
}

struct TableHeader {
    name: String,
    version: u64,
    pk_columns: Vec<usize>,
    schema: Schema,
    indexes: Vec<(String, Vec<usize>, IndexKind, bool)>,
    slot_count: usize,
    live: usize,
}

impl Image {
    /// Build every table and its indexes. A live count that disagrees
    /// with the table's header is [`StorageError::Corrupt`].
    pub fn build(self) -> StorageResult<Vec<Table>> {
        self.tables
            .into_iter()
            .map(|TableImage { header, slots }| {
                let h = header;
                let mut table = Table::restore(h.name, h.schema, h.pk_columns, slots, h.version);
                if table.len() != h.live {
                    return Err(corrupt("snapshot live count disagrees with its rows"));
                }
                for (name, columns, kind, unique) in h.indexes {
                    table.create_index(name, columns, kind, unique)?;
                }
                Ok(table)
            })
            .collect()
    }
}

/// Read a count that each counted item spends at least one byte on, so
/// it cannot exceed what is left of `body`.
fn read_count(body: &[u8], pos: &mut usize, what: &str) -> StorageResult<usize> {
    let n = codec::read_u64(body, pos)? as usize;
    if n > body.len().saturating_sub(*pos) {
        return Err(corrupt(format!("{what} exceeds buffer")));
    }
    Ok(n)
}

fn decode_header(body: &[u8], pos: &mut usize) -> StorageResult<TableHeader> {
    let name = codec::read_str(body, pos)?;
    let version = codec::read_u64(body, pos)?;
    let npk = read_count(body, pos, "snapshot pk count")?;
    let pk_columns = (0..npk)
        .map(|_| Ok(codec::read_u64(body, pos)? as usize))
        .collect::<StorageResult<Vec<_>>>()?;
    let schema = read_schema(body, pos)?;
    let nidx = read_count(body, pos, "snapshot index count")?;
    let mut indexes = Vec::with_capacity(nidx);
    for _ in 0..nidx {
        let iname = codec::read_str(body, pos)?;
        let ncols = read_count(body, pos, "snapshot index column count")?;
        let columns = (0..ncols)
            .map(|_| Ok(codec::read_u64(body, pos)? as usize))
            .collect::<StorageResult<Vec<_>>>()?;
        let kind = match read_u8(body, pos)? {
            0 => IndexKind::Hash,
            1 => IndexKind::BTree,
            other => return Err(corrupt(format!("bad snapshot index kind {other}"))),
        };
        let unique = read_u8(body, pos)? != 0;
        indexes.push((iname, columns, kind, unique));
    }
    let slot_count = codec::read_u64(body, pos)? as usize;
    let live = codec::read_u64(body, pos)? as usize;
    // slot_count is CRC-protected but still bound it: tombstones can't
    // outnumber the mutations a plausible log could hold.
    if live > slot_count || slot_count > (1usize << 40) {
        return Err(corrupt("snapshot slot or live count implausible"));
    }
    Ok(TableHeader {
        name,
        version,
        pk_columns,
        schema,
        indexes,
        slot_count,
        live,
    })
}

/// Put a decoded row in its (empty, in-range) slot.
fn put_row(slots: &mut [Option<Row>], schema: &Schema, rid: usize, row: Row) -> StorageResult<()> {
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
    Ok(())
}

fn read_u8(body: &[u8], pos: &mut usize) -> StorageResult<u8> {
    let b = *body
        .get(*pos)
        .ok_or_else(|| corrupt("snapshot truncated"))?;
    *pos += 1;
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_relation::row::{row, RowId};
    use cr_relation::schema::{Column, DataType};
    use cr_relation::Value;

    /// The catalog's state as a base.
    fn encode_snapshot(catalog: &Catalog, wal_seq: u64, wal_offset: u64) -> Vec<u8> {
        Cut::pin(catalog).encode_base(wal_seq, wal_offset)
    }

    /// Check a base file and build its tables.
    fn decode_base(data: &[u8]) -> StorageResult<(LinkInfo, Vec<Table>)> {
        let file = LinkFile::check(0, false, data.to_vec())?;
        Ok((file.info, file.decode_base()?.build()?))
    }

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
        let (info, tables) = decode_base(&data).unwrap();
        assert_eq!((info.wal_seq, info.wal_offset), (7, 4242));
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
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
                decode_base(&data[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // Single-bit flips anywhere must be rejected (magic, crc, body).
        for i in 0..data.len() {
            let mut bad = data.clone();
            bad[i] ^= 0x10;
            assert!(decode_base(&bad).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn link_headers_match_what_was_written() {
        let data = encode_snapshot(&populated_catalog(), 9, 1234);
        let len = data.len() as u64;
        let base = LinkFile::check(4, false, data).unwrap();
        assert_eq!(
            base.info,
            LinkInfo {
                seq: 4,
                base_seq: 4,
                prev_seq: None,
                wal_seq: 9,
                wal_offset: 1234,
                bytes: len,
            }
        );
        let c = populated_catalog();
        let since = Cut::pin(&c).manifest();
        let link = DeltaLink {
            base_seq: 4,
            prev_seq: 6,
        };
        let (data, dirty) = Cut::pin(&c).encode_delta(&since, link, 10, 99);
        assert_eq!(dirty, 0, "nothing written since the manifest");
        let delta = LinkFile::check(7, true, data).unwrap();
        assert_eq!((delta.info.base_seq, delta.info.prev_seq), (4, Some(6)));
        assert_eq!((delta.info.wal_seq, delta.info.wal_offset), (10, 99));
        assert_eq!(delta.info.file_name(), "snapshot-00000007.delta");
    }

    #[test]
    fn file_names_roundtrip() {
        assert_eq!(snapshot_file_name(3), "snapshot-00000003.snap");
        assert_eq!(parse_snapshot_seq("snapshot-00000003.snap"), Some(3));
        assert_eq!(parse_snapshot_seq("wal-00000003.log"), None);
        assert_eq!(delta_file_name(3), "snapshot-00000003.delta");
        assert_eq!(parse_link_name("snapshot-00000003.delta"), Some((3, true)));
        assert_eq!(parse_link_name("snapshot-00000003.snap"), Some((3, false)));
        assert_eq!(parse_link_name("snapshot-00000003.delta.tmp"), None);
        assert_eq!(parse_link_name("wal-00000003.log"), None);
    }

    // -----------------------------------------------------------------
    // Deltas
    // -----------------------------------------------------------------

    fn int_table(c: &Catalog, name: &str) {
        let schema = Schema::qualified(
            name,
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("v", DataType::Text),
            ],
        );
        c.create_table(name, schema, vec![0]).unwrap();
        c.with_table_mut(name, |t| {
            t.create_index("by_v", vec![1], cr_relation::index::IndexKind::Hash, false)
                .unwrap()
        })
        .unwrap();
    }

    fn fill(c: &Catalog, name: &str, ids: std::ops::Range<i64>) {
        c.with_table_mut(name, |t| {
            for i in ids {
                t.insert(row![i, format!("v{i}")]).unwrap();
            }
        })
        .unwrap();
    }

    /// Recover `base` + `deltas` (oldest first) and re-encode the result
    /// as a base at the last link's WAL position.
    fn merged_as_base(base: Vec<u8>, deltas: &[Vec<u8>]) -> Vec<u8> {
        let mut image = LinkFile::check(0, false, base)
            .unwrap()
            .decode_base()
            .unwrap();
        let mut wal = (0, 0);
        for (i, d) in deltas.iter().enumerate() {
            let file = LinkFile::check(i as u64 + 1, true, d.clone()).unwrap();
            file.apply_delta(&mut image).unwrap();
            wal = (file.info.wal_seq, file.info.wal_offset);
        }
        let restored = Catalog::new();
        for t in image.build().unwrap() {
            restored.install_table(t).unwrap();
        }
        encode_snapshot(&restored, wal.0, wal.1)
    }

    /// Every kind of change a delta must carry: inserts into the tail
    /// chunk and into fresh chunks, an update and a delete in old chunks,
    /// a table created, one dropped and one replaced whole.
    #[test]
    fn chain_merged_equals_a_base_of_the_last_cut() {
        let c = Catalog::new();
        int_table(&c, "Keep");
        int_table(&c, "Gone");
        int_table(&c, "Swap");
        fill(&c, "Keep", 0..300);
        fill(&c, "Gone", 0..5);
        fill(&c, "Swap", 0..140);
        let cut = Cut::pin(&c);
        let base = cut.encode_base(1, 10);
        let mut manifest = cut.manifest();
        let mut deltas = Vec::new();
        for round in 0..3i64 {
            c.with_table_mut("Keep", |t| {
                let rid = t.rowid_by_pk(&vec![Value::Int(round)]).unwrap();
                t.update(rid, row![round, "changed"]).unwrap();
                let rid = t.rowid_by_pk(&vec![Value::Int(200 + round)]).unwrap();
                assert!(t.delete(rid));
            })
            .unwrap();
            fill(&c, "Keep", 1000 + 100 * round..1000 + 100 * round + 90);
            match round {
                0 => {
                    c.drop_table("Gone").unwrap();
                    int_table(&c, "Fresh");
                    fill(&c, "Fresh", 0..3);
                }
                1 => {
                    c.with_table_mut("Swap", |t| {
                        let mut fresh = Table::new("Swap", t.schema().clone(), vec![0]);
                        fresh.insert(row![7i64, "replaced"]).unwrap();
                        *t = fresh;
                    })
                    .unwrap();
                }
                _ => {}
            }
            let cut = Cut::pin(&c);
            let link = DeltaLink {
                base_seq: 0,
                prev_seq: round as u64,
            };
            let (delta, dirty) = cut.encode_delta(&manifest, link, 2 + round as u64, 5);
            assert!(
                dirty < cut.total_chunks(),
                "round {round}: every chunk dirty"
            );
            deltas.push(delta);
            manifest = cut.manifest();
            assert_eq!(
                merged_as_base(base.clone(), &deltas),
                cut.encode_base(2 + round as u64, 5),
                "round {round}"
            );
        }
    }

    #[test]
    fn an_untouched_cut_writes_no_chunk_and_a_write_dirties_one() {
        let c = Catalog::new();
        int_table(&c, "T");
        fill(&c, "T", 0..1000);
        let cut = Cut::pin(&c);
        let manifest = cut.manifest();
        let link = DeltaLink {
            base_seq: 0,
            prev_seq: 0,
        };
        assert_eq!(cut.encode_delta(&manifest, link, 0, 0).1, 0);
        drop(cut);
        c.with_table_mut("T", |t| {
            let rid = t.rowid_by_pk(&vec![Value::Int(500)]).unwrap();
            t.update(rid, row![500i64, "x"]).unwrap();
        })
        .unwrap();
        assert_eq!(Cut::pin(&c).encode_delta(&manifest, link, 0, 0).1, 1);
    }

    /// The delta encoding of the golden catalog after one more insert,
    /// one update and one delete, over the golden catalog's own cut.
    const GOLDEN_DELTA_HEX: &str = concat!(
        "435244454c5431003f406de00305045801094f66666572696e67730c02000104",
        "0464657074030001096f66666572696e6773036e756d010001096f6666657269",
        "6e6773057469746c65030101096f66666572696e677305756e69747302010109",
        "6f66666572696e6773020862795f7469746c65010200000862795f756e697473",
        "01030100070401000400040502435303a2020509446174616261736573040000",
        "000000001440010405024353039e020509436f6d70696c657273040000000000",
        "001040040405044d41544803660004000000000000144006040502435303a602",
        "050b44617461204d696e696e67040000000000000840",
    );

    #[test]
    fn golden_delta_encoding_is_unchanged() {
        let c = golden_catalog();
        let since = Cut::pin(&c).manifest();
        c.with_table_mut("offerings", |t| {
            t.insert(row!["CS", 147i64, "Data Mining", 3.0f64]).unwrap();
            t.update(RowId(0), row!["CS", 145i64, "Databases", 5.0f64])
                .unwrap();
            t.delete(RowId(2));
        })
        .unwrap();
        let link = DeltaLink {
            base_seq: 3,
            prev_seq: 5,
        };
        let (data, dirty) = Cut::pin(&c).encode_delta(&since, link, 4, 88);
        assert_eq!(dirty, 1);
        let hex: String = data.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_DELTA_HEX);
    }

    #[test]
    fn delta_corruption_is_detected_not_panicked() {
        let c = populated_catalog();
        let link = DeltaLink {
            base_seq: 0,
            prev_seq: 0,
        };
        let (data, _) = Cut::pin(&c).encode_delta(&Manifest::default(), link, 0, 0);
        for cut in 0..data.len() {
            assert!(LinkFile::check(1, true, data[..cut].to_vec()).is_err());
        }
        for i in 0..data.len() {
            let mut bad = data.clone();
            bad[i] ^= 0x10;
            assert!(
                LinkFile::check(1, true, bad).is_err(),
                "flip at {i} accepted"
            );
        }
        // The right bytes under the wrong kind of name.
        assert!(LinkFile::check(1, false, data).is_err());
    }

    /// Frame a hand-made delta body over one table header.
    fn hand_delta(c: &Catalog, chunks: &[u64]) -> LinkFile {
        let mut body = Vec::new();
        for x in [0, 0, 0, 0, 1] {
            codec::write_u64(x, &mut body); // base, prev, wal position, one table
        }
        c.with_table("courses", |t| encode_header(t, &mut body))
            .unwrap();
        codec::write_u64(chunks.len() as u64, &mut body);
        for &i in chunks {
            codec::write_u64(i, &mut body);
            codec::write_u64(0, &mut body); // no live rows
        }
        LinkFile::check(1, true, framed(DELTA_MAGIC, |b| b.extend(body))).unwrap()
    }

    #[test]
    fn a_delta_that_cannot_be_merged_is_corrupt() {
        let c = populated_catalog(); // one table, one chunk
        let base = || {
            LinkFile::check(0, false, encode_snapshot(&c, 0, 0))
                .unwrap()
                .decode_base()
                .unwrap()
        };
        let empty = || Image { tables: Vec::new() };
        let is_corrupt = |r: StorageResult<()>| matches!(r, Err(StorageError::Corrupt(_)));
        // Chunk index at or past the table's chunk count.
        assert!(is_corrupt(hand_delta(&c, &[1]).apply_delta(&mut base())));
        // Listed twice, or out of order.
        assert!(is_corrupt(hand_delta(&c, &[0, 0]).apply_delta(&mut base())));
        // A table the previous link did not have, its chunk not listed.
        assert!(is_corrupt(hand_delta(&c, &[]).apply_delta(&mut empty())));
        // The same delta with the chunk listed merges (rows now empty, so
        // the live count in the header no longer matches).
        let mut image = empty();
        hand_delta(&c, &[0]).apply_delta(&mut image).unwrap();
        assert!(matches!(image.build(), Err(StorageError::Corrupt(_))));
        // The previous link supplies the chunk: not listing it is fine.
        let mut image = base();
        hand_delta(&c, &[]).apply_delta(&mut image).unwrap();
        assert_eq!(image.build().unwrap()[0].len(), 3);
    }
}
