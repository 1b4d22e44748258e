//! Dynamically typed values.
//!
//! Every cell in the engine is a [`Value`]. The type lattice is small —
//! `Null < Bool < Int < Float < Text < Date < Set < Ratings` — matching
//! what CourseRank's schema (§3.2 of the paper) needs: ids, titles, free
//! text, ratings, units, GPAs, terms and dates. The two nested types,
//! [`Value::Set`] and [`Value::Ratings`], exist for the FlexRecs *extend*
//! operator (§3.2), which views the related tuples of a row — e.g. the
//! courses a student took, or the ratings they gave — as one set-valued
//! attribute so the *recommend* operator can compare rows by similarity.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{RelError, RelResult};
use crate::schema::DataType;

/// A single dynamically-typed cell value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL. Compares equal to itself for grouping/ordering purposes
    /// (engine-internal semantics; predicate evaluation treats comparisons
    /// with NULL as false, as in three-valued logic collapsed to two).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalized to NULL on construction via
    /// [`Value::float`].
    Float(f64),
    /// UTF-8 string.
    Text(String),
    /// A calendar date stored as days since the (proleptic) epoch
    /// 1970-01-01. Date arithmetic in the social-site layer works on this.
    Date(i32),
    /// A set of scalar values, produced by the FlexRecs `Extend` operator
    /// (e.g. the set of CourseIDs a student has taken). Stored sorted and
    /// deduplicated by the producer. The payload is shared: cloning a set
    /// (an Extend probe, a copied nest-image shard) copies a pointer.
    Set(Arc<[Value]>),
    /// A key → rating map, produced by `Extend ... with rating` (e.g.
    /// CourseID → the rating a student gave). Stored sorted by key;
    /// shared like [`Value::Set`].
    Ratings(Arc<[(Value, f64)]>),
}

impl Value {
    /// Construct a text value from anything string-like.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Construct a float value; NaN becomes NULL so that ordering and
    /// hashing stay total.
    pub fn float(f: f64) -> Self {
        if f.is_nan() {
            Value::Null
        } else {
            Value::Float(f)
        }
    }

    /// The engine type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
            Value::Set(_) => Some(DataType::Set),
            Value::Ratings(_) => Some(DataType::Ratings),
        }
    }

    /// True if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an `i64`, coercing Bool; errors otherwise.
    pub fn as_int(&self) -> RelResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(RelError::TypeMismatch {
                expected: "Int".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Extract an `f64`, coercing Int; errors otherwise.
    pub fn as_float(&self) -> RelResult<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(RelError::TypeMismatch {
                expected: "Float".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Extract a `&str`; errors for non-text.
    pub fn as_text(&self) -> RelResult<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(RelError::TypeMismatch {
                expected: "Text".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Extract a bool; errors for non-bool.
    pub fn as_bool(&self) -> RelResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(RelError::TypeMismatch {
                expected: "Bool".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Borrow the elements of a `Set` value, or `None` for anything else.
    pub fn as_set(&self) -> Option<&[Value]> {
        match self {
            Value::Set(s) => Some(&s[..]),
            _ => None,
        }
    }

    /// Borrow the `(key, rating)` pairs of a `Ratings` value, or `None`.
    pub fn as_ratings(&self) -> Option<&[(Value, f64)]> {
        match self {
            Value::Ratings(r) => Some(&r[..]),
            _ => None,
        }
    }

    /// True for the nested (`Set`/`Ratings`) types; scalar comparison and
    /// arithmetic reject these.
    pub fn is_nested(&self) -> bool {
        matches!(self, Value::Set(_) | Value::Ratings(_))
    }

    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Bool(_) => "Bool",
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Text(_) => "Text",
            Value::Date(_) => "Date",
            Value::Set(_) => "Set",
            Value::Ratings(_) => "Ratings",
        }
    }

    /// Attempt to coerce this value to `target`. Lossless numeric widening
    /// (Int → Float) and text parsing are supported; anything else is a
    /// [`RelError::TypeMismatch`]. NULL coerces to any type.
    pub fn coerce_to(&self, target: DataType) -> RelResult<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        match (self, target) {
            (v, t) if v.data_type() == Some(t) => Ok(v.clone()),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
            (Value::Float(f), DataType::Int) if f.fract() == 0.0 => Ok(Value::Int(*f as i64)),
            (Value::Int(i), DataType::Bool) => Ok(Value::Bool(*i != 0)),
            (Value::Bool(b), DataType::Int) => Ok(Value::Int(*b as i64)),
            (Value::Int(d), DataType::Date) => {
                Ok(Value::Date(i32::try_from(*d).map_err(|_| {
                    RelError::Arithmetic("date out of range".into())
                })?))
            }
            (Value::Date(d), DataType::Int) => Ok(Value::Int(*d as i64)),
            (Value::Text(s), DataType::Int) => {
                s.trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| RelError::TypeMismatch {
                        expected: "Int".into(),
                        found: format!("Text({s:?})"),
                    })
            }
            (Value::Text(s), DataType::Float) => {
                s.trim()
                    .parse::<f64>()
                    .map(Value::float)
                    .map_err(|_| RelError::TypeMismatch {
                        expected: "Float".into(),
                        found: format!("Text({s:?})"),
                    })
            }
            (v, t) => Err(RelError::TypeMismatch {
                expected: format!("{t:?}"),
                found: v.type_name().into(),
            }),
        }
    }

    /// Total ordering used by ORDER BY, B-tree indexes, and grouping.
    ///
    /// NULL sorts first; cross numeric types (Int/Float) compare by
    /// numeric value; other cross-type pairs compare by a fixed type rank
    /// so the ordering stays total (needed for sort stability).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Text(a), Text(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Set(a), Set(b)) => {
                // Lexicographic elementwise; shorter set sorts first on a tie.
                for (x, y) in a.iter().zip(b.iter()) {
                    let o = x.total_cmp(y);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Ratings(a), Ratings(b)) => {
                // Lexicographic by key, then by rating.
                for ((xk, xr), (yk, yr)) in a.iter().zip(b.iter()) {
                    let o = xk
                        .total_cmp(yk)
                        .then_with(|| xr.partial_cmp(yr).unwrap_or(Ordering::Equal));
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // same rank: numerics compare by value
            Value::Text(_) => 3,
            Value::Date(_) => 4,
            Value::Set(_) => 5,
            Value::Ratings(_) => 6,
        }
    }

    /// SQL equality used by joins and grouping: NULL equals NULL here
    /// (group semantics); Int and Float compare numerically.
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.sql_eq(other)
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Ids are Ints: keep the merge loops over nested keys (and sorts
        // of id columns) out of the general, recursive comparison.
        if let (Value::Int(a), Value::Int(b)) = (self, other) {
            return a.cmp(b);
        }
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float must hash identically when numerically equal,
            // because sql_eq treats them as equal (hash/eq consistency).
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                // normalize -0.0 to 0.0 so they hash together
                let f = if *f == 0.0 { 0.0 } else { *f };
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
            Value::Set(s) => {
                5u8.hash(state);
                s.len().hash(state);
                for v in s.iter() {
                    v.hash(state);
                }
            }
            Value::Ratings(r) => {
                6u8.hash(state);
                r.len().hash(state);
                for (k, rating) in r.iter() {
                    k.hash(state);
                    // normalize -0.0 to 0.0, same as Float above
                    let f = if *rating == 0.0 { 0.0 } else { *rating };
                    f.to_bits().hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Text(s) => write!(f, "{s}"),
            Value::Date(d) => {
                let (y, m, day) = days_to_ymd(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Ratings(r) => {
                write!(f, "{{")?;
                for (i, (k, v)) in r.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}:{v:.1}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

/// Convert a `(year, month, day)` triple to days since 1970-01-01
/// (proleptic Gregorian). Used for the `Date` value type.
pub fn ymd_to_days(y: i32, m: u32, d: u32) -> i32 {
    // Howard Hinnant's algorithm (days_from_civil).
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64; // [0, 399]
    let mp = ((m + 9) % 12) as i64; // [0, 11]
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    (era as i64 * 146_097 + doe - 719_468) as i32
}

/// Inverse of [`ymd_to_days`].
pub fn days_to_ymd(z: i32) -> (i32, u32, u32) {
    let z = z as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + (m <= 2) as i64) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn nan_becomes_null() {
        assert!(Value::float(f64::NAN).is_null());
        assert_eq!(Value::float(1.5), Value::Float(1.5));
    }

    #[test]
    fn cross_numeric_equality_and_hash_agree() {
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn null_sorts_first() {
        let mut v = [Value::Int(2), Value::Null, Value::Int(1)];
        v.sort();
        assert_eq!(v, [Value::Null, Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::text("42").coerce_to(DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Float(4.0).coerce_to(DataType::Int).unwrap(),
            Value::Int(4)
        );
        assert!(Value::Float(4.5).coerce_to(DataType::Int).is_err());
        assert!(Value::text("abc").coerce_to(DataType::Int).is_err());
        assert_eq!(Value::Null.coerce_to(DataType::Text).unwrap(), Value::Null);
    }

    #[test]
    fn date_roundtrip_known_values() {
        assert_eq!(ymd_to_days(1970, 1, 1), 0);
        assert_eq!(ymd_to_days(1970, 1, 2), 1);
        assert_eq!(ymd_to_days(2000, 3, 1), 11017);
        assert_eq!(days_to_ymd(0), (1970, 1, 1));
        // Paper timeframe: CourseRank launched ~Sept 2007, CIDR Jan 2009.
        let d = ymd_to_days(2009, 1, 4);
        assert_eq!(days_to_ymd(d), (2009, 1, 4));
    }

    #[test]
    fn date_display() {
        let v = Value::Date(ymd_to_days(2008, 9, 15));
        assert_eq!(v.to_string(), "2008-09-15");
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Float(3.0).to_string(), "3.0");
        assert_eq!(Value::text("hi").to_string(), "hi");
        assert_eq!(Value::Bool(true).to_string(), "true");
        let set = Value::Set(vec![Value::Int(1), Value::Int(2)].into());
        assert_eq!(set.to_string(), "{1, 2}");
        let ratings = Value::Ratings(vec![(Value::Int(1), 4.0)].into());
        assert_eq!(ratings.to_string(), "{1:4.0}");
    }

    #[test]
    fn nested_accessors() {
        let scalar = Value::Int(1);
        assert!(!scalar.is_nested());
        assert!(scalar.as_set().is_none() && scalar.as_ratings().is_none());
        let set = Value::Set(vec![Value::Int(1), Value::Int(2)].into());
        assert!(set.is_nested());
        assert_eq!(set.as_set().map(<[Value]>::len), Some(2));
        assert!(set.as_ratings().is_none());
        let ratings = Value::Ratings(vec![(Value::Int(1), 4.0), (Value::Int(2), 3.5)].into());
        assert!(ratings.is_nested());
        assert_eq!(ratings.as_ratings().unwrap()[1], (Value::Int(2), 3.5));
        assert!(ratings.as_set().is_none());
    }

    #[test]
    fn accessor_errors_name_types() {
        let e = Value::text("x").as_int().unwrap_err();
        assert_eq!(
            e,
            RelError::TypeMismatch {
                expected: "Int".into(),
                found: "Text".into()
            }
        );
    }

    proptest! {
        #[test]
        fn date_roundtrip(y in -1000i32..3000, m in 1u32..=12, d in 1u32..=28) {
            let days = ymd_to_days(y, m, d);
            prop_assert_eq!(days_to_ymd(days), (y, m, d));
        }

        #[test]
        fn total_order_is_antisymmetric(a in any_value(), b in any_value()) {
            let ab = a.total_cmp(&b);
            let ba = b.total_cmp(&a);
            prop_assert_eq!(ab, ba.reverse());
        }

        #[test]
        fn total_order_is_transitive(a in any_value(), b in any_value(), c in any_value()) {
            let mut v = [a, b, c];
            // sort() panics (in debug) or misbehaves if Ord is inconsistent;
            // sorting then checking pairwise order exercises transitivity.
            v.sort();
            prop_assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2]);
        }

        #[test]
        fn eq_implies_same_hash(a in any_value(), b in any_value()) {
            if a == b {
                prop_assert_eq!(hash_of(&a), hash_of(&b));
            }
        }

        #[test]
        fn int_float_coercion_roundtrip(i in -1_000_000i64..1_000_000) {
            let f = Value::Int(i).coerce_to(DataType::Float).unwrap();
            let back = f.coerce_to(DataType::Int).unwrap();
            prop_assert_eq!(back, Value::Int(i));
        }
    }

    fn any_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1e12f64..1e12).prop_map(Value::float),
            "[a-z]{0,8}".prop_map(Value::Text),
            any::<i32>().prop_map(Value::Date),
        ]
    }
}
