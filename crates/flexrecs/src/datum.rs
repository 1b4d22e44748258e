//! Set-valued tuples.
//!
//! The paper's **extend** operator "allows the recommend operator to view
//! the set of ratings for each student as another attribute of the
//! student irrespective of the database schema". Relational rows hold only
//! scalars, so FlexRecs executes over its own tuple type whose attributes
//! may be scalars, sets of values, or rating maps (key → numeric rating).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use cr_relation::Value;

/// The type of a workflow attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WfType {
    Scalar,
    /// Set of values (e.g. the set of CourseIDs a student has taken).
    Set,
    /// Map key → rating (e.g. CourseID → rating the student gave).
    Ratings,
}

/// A workflow attribute value. Nested payloads are shared slices, the
/// same as [`Value::Set`] and [`Value::Ratings`], so a plan's nested cell
/// becomes a datum without a copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Datum {
    Scalar(Value),
    Set(Arc<[Value]>),
    Ratings(Arc<[(Value, f64)]>),
}

impl Datum {
    pub fn wf_type(&self) -> WfType {
        match self {
            Datum::Scalar(_) => WfType::Scalar,
            Datum::Set(_) => WfType::Set,
            Datum::Ratings(_) => WfType::Ratings,
        }
    }

    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            Datum::Scalar(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_set(&self) -> Option<&[Value]> {
        match self {
            Datum::Set(s) => Some(&s[..]),
            _ => None,
        }
    }

    pub fn as_ratings(&self) -> Option<&[(Value, f64)]> {
        match self {
            Datum::Ratings(r) => Some(&r[..]),
            _ => None,
        }
    }

    /// Ratings as a map for similarity computation.
    pub fn ratings_map(&self) -> Option<HashMap<&Value, f64>> {
        self.as_ratings()
            .map(|r| r.iter().map(|(k, v)| (k, *v)).collect())
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Scalar(v) => write!(f, "{v}"),
            Datum::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Datum::Ratings(r) => {
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

/// A workflow tuple: named attributes in schema order.
pub type Tuple = Vec<Datum>;

/// A workflow schema: attribute names and types.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WfSchema {
    pub columns: Vec<(String, WfType)>,
}

impl WfSchema {
    pub fn scalar(names: &[&str]) -> Self {
        WfSchema {
            columns: names
                .iter()
                .map(|n| ((*n).to_owned(), WfType::Scalar))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by name (case-insensitive, as in the SQL layer).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(name))
    }

    pub fn push(&mut self, name: impl Into<String>, ty: WfType) {
        self.columns.push((name.into(), ty));
    }

    /// Concatenate (join output).
    pub fn join(&self, other: &WfSchema) -> WfSchema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        WfSchema { columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datum_accessors() {
        let s = Datum::Scalar(Value::Int(1));
        assert_eq!(s.as_scalar(), Some(&Value::Int(1)));
        assert!(s.as_set().is_none());
        assert_eq!(s.wf_type(), WfType::Scalar);

        let set = Datum::Set(vec![Value::Int(1), Value::Int(2)].into());
        assert_eq!(set.as_set().unwrap().len(), 2);

        let r = Datum::Ratings(vec![(Value::Int(1), 4.0), (Value::Int(2), 3.5)].into());
        let map = r.ratings_map().unwrap();
        assert_eq!(map[&Value::Int(1)], 4.0);
    }

    #[test]
    fn schema_lookup_case_insensitive() {
        let s = WfSchema::scalar(&["CourseID", "Title"]);
        assert_eq!(s.index_of("courseid"), Some(0));
        assert_eq!(s.index_of("TITLE"), Some(1));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn schema_join_concatenates() {
        let mut a = WfSchema::scalar(&["x"]);
        a.push("ratings", WfType::Ratings);
        let b = WfSchema::scalar(&["y"]);
        let j = a.join(&b);
        assert_eq!(j.len(), 3);
        assert_eq!(j.columns[1].1, WfType::Ratings);
    }

    #[test]
    fn datum_display() {
        assert_eq!(Datum::Scalar(Value::text("x")).to_string(), "x");
        assert_eq!(
            Datum::Set(vec![Value::Int(1), Value::Int(2)].into()).to_string(),
            "{1, 2}"
        );
        assert_eq!(
            Datum::Ratings(vec![(Value::Int(1), 4.0)].into()).to_string(),
            "{1:4.0}"
        );
    }
}
