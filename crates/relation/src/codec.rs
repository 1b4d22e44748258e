//! Compact binary codec for [`Value`]s and rows.
//!
//! This is the wire format the `cr-storage` write-ahead log and snapshots
//! are built on: one tag byte per value, LEB128 varints for integers
//! (zigzag for signed), little-endian IEEE-754 bits for floats, and
//! length-prefixed UTF-8 for text. The format is self-describing per
//! value (no schema needed to decode) and deliberately tiny: a typical
//! CourseRank comment row encodes to a few dozen bytes.
//!
//! Decoding is defensive — every read is bounds-checked and malformed
//! input yields [`RelError::Invalid`], never a panic — because the WAL
//! recovery path feeds it bytes that may have been torn mid-write.

use crate::error::{RelError, RelResult};
use crate::row::Row;
use crate::value::Value;

/// Value tags. `Bool` gets two tags so a boolean costs one byte total.
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_TEXT: u8 = 5;
const TAG_DATE: u8 = 6;
const TAG_SET: u8 = 7;
const TAG_RATINGS: u8 = 8;

fn corrupt(what: &str) -> RelError {
    RelError::Invalid(format!("codec: {what}"))
}

/// Append a LEB128 varint.
pub fn write_u64(mut x: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint, advancing `pos`.
pub fn read_u64(buf: &[u8], pos: &mut usize) -> RelResult<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or_else(|| corrupt("varint truncated"))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(corrupt("varint overflow"));
        }
        x |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
        if shift > 63 {
            return Err(corrupt("varint too long"));
        }
    }
}

/// Zigzag-encode a signed integer and append it as a varint.
pub fn write_i64(x: i64, out: &mut Vec<u8>) {
    write_u64(((x << 1) ^ (x >> 63)) as u64, out);
}

/// Read a zigzag varint.
pub fn read_i64(buf: &[u8], pos: &mut usize) -> RelResult<i64> {
    let z = read_u64(buf, pos)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

/// Append a length-prefixed UTF-8 string.
pub fn write_str(s: &str, out: &mut Vec<u8>) {
    write_u64(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn read_str(buf: &[u8], pos: &mut usize) -> RelResult<String> {
    let len = read_u64(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| corrupt("string truncated"))?;
    let s = std::str::from_utf8(&buf[*pos..end]).map_err(|_| corrupt("string not UTF-8"))?;
    *pos = end;
    Ok(s.to_owned())
}

/// Append one value.
pub fn write_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            write_i64(*i, out);
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            write_str(s, out);
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            write_i64(i64::from(*d), out);
        }
        Value::Set(s) => {
            out.push(TAG_SET);
            write_u64(s.len() as u64, out);
            for v in s.iter() {
                write_value(v, out);
            }
        }
        Value::Ratings(r) => {
            out.push(TAG_RATINGS);
            write_u64(r.len() as u64, out);
            for (k, rating) in r.iter() {
                write_value(k, out);
                out.extend_from_slice(&rating.to_bits().to_le_bytes());
            }
        }
    }
}

/// Read one value. A decoded NaN float normalizes to NULL, matching
/// [`Value::float`]'s construction invariant.
pub fn read_value(buf: &[u8], pos: &mut usize) -> RelResult<Value> {
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| corrupt("value tag truncated"))?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(read_i64(buf, pos)?)),
        TAG_FLOAT => {
            let end = *pos + 8;
            if end > buf.len() {
                return Err(corrupt("float truncated"));
            }
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&buf[*pos..end]);
            *pos = end;
            Ok(Value::float(f64::from_bits(u64::from_le_bytes(bytes))))
        }
        TAG_TEXT => Ok(Value::Text(read_str(buf, pos)?)),
        TAG_DATE => {
            let d = read_i64(buf, pos)?;
            i32::try_from(d)
                .map(Value::Date)
                .map_err(|_| corrupt("date out of range"))
        }
        TAG_SET => {
            let n = read_u64(buf, pos)? as usize;
            if n > buf.len().saturating_sub(*pos) {
                return Err(corrupt("set length exceeds buffer"));
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(read_value(buf, pos)?);
            }
            Ok(Value::Set(items.into()))
        }
        TAG_RATINGS => {
            let n = read_u64(buf, pos)? as usize;
            if n > buf.len().saturating_sub(*pos) {
                return Err(corrupt("ratings length exceeds buffer"));
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let k = read_value(buf, pos)?;
                let end = pos
                    .checked_add(8)
                    .filter(|&e| e <= buf.len())
                    .ok_or_else(|| corrupt("rating truncated"))?;
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&buf[*pos..end]);
                *pos = end;
                items.push((k, f64::from_bits(u64::from_le_bytes(bytes))));
            }
            Ok(Value::Ratings(items.into()))
        }
        other => Err(corrupt(&format!("unknown value tag {other}"))),
    }
}

/// Append a row: column count then each value.
pub fn write_row(row: &[Value], out: &mut Vec<u8>) {
    write_u64(row.len() as u64, out);
    for v in row {
        write_value(v, out);
    }
}

/// Read a row written by [`write_row`].
pub fn read_row(buf: &[u8], pos: &mut usize) -> RelResult<Row> {
    let n = read_u64(buf, pos)? as usize;
    if n > buf.len().saturating_sub(*pos) {
        // Each value takes at least one byte; an arity larger than the
        // remaining buffer is corrupt, not a huge allocation request.
        return Err(corrupt("row arity exceeds buffer"));
    }
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(read_value(buf, pos)?);
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(v: &Value) -> Value {
        let mut buf = Vec::new();
        write_value(v, &mut buf);
        let mut pos = 0;
        let back = read_value(&buf, &mut pos).unwrap();
        assert_eq!(
            pos,
            buf.len(),
            "decoder must consume exactly what was written"
        );
        back
    }

    #[test]
    fn known_values_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(-2.5),
            Value::Float(f64::MAX),
            Value::text(""),
            Value::text("CS 106A: Programming Methodology — introduction"),
            Value::Date(0),
            Value::Date(i32::MIN),
            Value::Date(i32::MAX),
        ] {
            let back = roundtrip(&v);
            // Strict structural equality, not sql_eq (Int(3) != Float(3.0)).
            assert_eq!(format!("{v:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn booleans_and_null_cost_one_byte() {
        for v in [Value::Null, Value::Bool(true), Value::Bool(false)] {
            let mut buf = Vec::new();
            write_value(&v, &mut buf);
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn small_ints_are_compact() {
        let mut buf = Vec::new();
        write_value(&Value::Int(42), &mut buf);
        assert_eq!(buf.len(), 2); // tag + one varint byte
    }

    #[test]
    fn nan_float_decodes_to_null() {
        let mut buf = vec![super::TAG_FLOAT];
        buf.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let mut pos = 0;
        assert!(read_value(&buf, &mut pos).unwrap().is_null());
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let mut buf = Vec::new();
        write_value(&Value::text("hello world"), &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(read_value(&buf[..cut], &mut pos).is_err(), "cut={cut}");
        }
        let mut pos = 0;
        assert!(read_value(&[7u8], &mut pos).is_err(), "unknown tag");
        let mut pos = 0;
        assert!(
            read_u64(&[0x80, 0x80], &mut pos).is_err(),
            "unterminated varint"
        );
    }

    #[test]
    fn row_roundtrip_and_bogus_arity() {
        let row = vec![Value::Int(1), Value::text("x"), Value::Null];
        let mut buf = Vec::new();
        write_row(&row, &mut buf);
        let mut pos = 0;
        assert_eq!(read_row(&buf, &mut pos).unwrap(), row);

        // A wildly large arity prefix must be rejected up front.
        let mut bogus = Vec::new();
        write_u64(u64::MAX, &mut bogus);
        let mut pos = 0;
        assert!(read_row(&bogus, &mut pos).is_err());
    }

    fn any_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1e300f64..1e300).prop_map(Value::Float),
            "[a-zA-Z0-9 ,.;:!?'\"-]{0,40}".prop_map(Value::Text),
            any::<i32>().prop_map(Value::Date),
        ]
    }

    proptest! {
        /// The WAL codec's core contract: every value round-trips exactly
        /// (same variant, same bits) through encode/decode.
        #[test]
        fn value_roundtrip(v in any_value()) {
            let back = roundtrip(&v);
            prop_assert_eq!(format!("{:?}", v), format!("{:?}", back));
        }

        #[test]
        fn row_roundtrip(row in proptest::collection::vec(any_value(), 0..12)) {
            let mut buf = Vec::new();
            write_row(&row, &mut buf);
            let mut pos = 0;
            let back = read_row(&buf, &mut pos).unwrap();
            prop_assert_eq!(pos, buf.len());
            prop_assert_eq!(format!("{:?}", row), format!("{:?}", back));
        }

        #[test]
        fn varint_roundtrip(x in any::<u64>()) {
            let mut buf = Vec::new();
            write_u64(x, &mut buf);
            let mut pos = 0;
            prop_assert_eq!(read_u64(&buf, &mut pos).unwrap(), x);
            prop_assert_eq!(pos, buf.len());
        }

        #[test]
        fn zigzag_roundtrip(x in any::<i64>()) {
            let mut buf = Vec::new();
            write_i64(x, &mut buf);
            let mut pos = 0;
            prop_assert_eq!(read_i64(&buf, &mut pos).unwrap(), x);
        }

        /// Concatenated values decode back in order — the property the
        /// record formats (rows, WAL frames) rely on.
        #[test]
        fn concatenation_decodes_in_order(vs in proptest::collection::vec(any_value(), 0..8)) {
            let mut buf = Vec::new();
            for v in &vs {
                write_value(v, &mut buf);
            }
            let mut pos = 0;
            for v in &vs {
                let back = read_value(&buf, &mut pos).unwrap();
                prop_assert_eq!(format!("{:?}", v), format!("{:?}", back));
            }
            prop_assert_eq!(pos, buf.len());
        }
    }
}
