//! Schemas: column definitions and name resolution.

use serde::{Deserialize, Serialize};

use crate::error::{RelError, RelResult};
use crate::value::Value;

/// The engine's column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Text,
    Date,
    /// Set of scalar values (FlexRecs `Extend` output). Not creatable from
    /// SQL DDL; exists only in plan-synthesized schemas.
    Set,
    /// Key → rating map (FlexRecs `Extend ... with rating` output). Not
    /// creatable from SQL DDL; exists only in plan-synthesized schemas.
    Ratings,
}

impl DataType {
    /// SQL keyword for this type (used by `CREATE TABLE` round-tripping).
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Date => "DATE",
            DataType::Set => "SET",
            DataType::Ratings => "RATINGS",
        }
    }
}

/// A column: name, type, nullability.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl Column {
    /// A nullable column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    /// A NOT NULL column.
    pub fn not_null(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }
}

/// An ordered list of columns, optionally qualified by a table alias.
///
/// Qualifiers matter during joins: `Courses.id` and `Comments.id` must stay
/// distinguishable. Resolution follows SQL rules: an unqualified name is an
/// error if it matches columns under two different qualifiers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Schema {
    columns: Vec<Column>,
    /// Per-column qualifier (table name or alias); parallel to `columns`.
    qualifiers: Vec<Option<String>>,
}

impl Schema {
    /// Build a schema with no qualifiers.
    pub fn new(columns: Vec<Column>) -> Self {
        let n = columns.len();
        Schema {
            columns,
            qualifiers: vec![None; n],
        }
    }

    /// Build a schema whose columns are all qualified by `qualifier`.
    pub fn qualified(qualifier: impl Into<String>, columns: Vec<Column>) -> Self {
        let q = qualifier.into();
        let n = columns.len();
        Schema {
            columns,
            qualifiers: vec![Some(q); n],
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at position `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Qualifier of column `i`, if any.
    pub fn qualifier(&self, i: usize) -> Option<&str> {
        self.qualifiers[i].as_deref()
    }

    /// Re-qualify every column (e.g. applying a table alias).
    pub fn with_qualifier(mut self, qualifier: impl Into<String>) -> Self {
        let q = qualifier.into();
        for slot in &mut self.qualifiers {
            *slot = Some(q.clone());
        }
        self
    }

    /// Append a column (used by planners when synthesizing outputs).
    pub fn push(&mut self, column: Column, qualifier: Option<String>) {
        self.columns.push(column);
        self.qualifiers.push(qualifier);
    }

    /// The columns at `positions`, in that order, qualifiers kept (a
    /// projected scan's or a narrowed node's output).
    pub fn pick(&self, positions: &[usize]) -> Schema {
        Schema {
            columns: positions.iter().map(|&i| self.columns[i].clone()).collect(),
            qualifiers: positions
                .iter()
                .map(|&i| self.qualifiers[i].clone())
                .collect(),
        }
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, right: &Schema) -> Schema {
        let mut columns = Vec::with_capacity(self.len() + right.len());
        let mut qualifiers = Vec::with_capacity(self.len() + right.len());
        columns.extend_from_slice(&self.columns);
        columns.extend_from_slice(&right.columns);
        qualifiers.extend_from_slice(&self.qualifiers);
        qualifiers.extend_from_slice(&right.qualifiers);
        Schema {
            columns,
            qualifiers,
        }
    }

    /// Resolve a possibly-qualified column name to its index.
    ///
    /// `qualifier = None` matches any qualifier but errors if ambiguous.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> RelResult<usize> {
        let mut found: Option<usize> = None;
        for (i, col) in self.columns.iter().enumerate() {
            if !col.name.eq_ignore_ascii_case(name) {
                continue;
            }
            match qualifier {
                Some(q) => {
                    if self.qualifiers[i]
                        .as_deref()
                        .is_some_and(|cq| cq.eq_ignore_ascii_case(q))
                    {
                        return Ok(i);
                    }
                }
                None => {
                    if found.is_some() {
                        return Err(RelError::AmbiguousColumn(name.to_owned()));
                    }
                    found = Some(i);
                }
            }
        }
        found.ok_or_else(|| match qualifier {
            Some(q) => RelError::UnknownColumn(format!("{q}.{name}")),
            None => RelError::UnknownColumn(name.to_owned()),
        })
    }

    /// Index of an unqualified column name (convenience for table schemas).
    pub fn index_of(&self, name: &str) -> RelResult<usize> {
        self.resolve(None, name)
    }

    /// Validate a row against this schema: arity, types (with coercion),
    /// nullability. Returns the (possibly coerced) row.
    pub fn validate_row(&self, row: Vec<Value>) -> RelResult<Vec<Value>> {
        if row.len() != self.len() {
            return Err(RelError::Arity {
                expected: self.len(),
                found: row.len(),
            });
        }
        let mut out = Vec::with_capacity(row.len());
        for (value, col) in row.into_iter().zip(&self.columns) {
            if value.is_null() {
                if !col.nullable {
                    return Err(RelError::NullViolation(col.name.clone()));
                }
                out.push(Value::Null);
            } else {
                out.push(value.coerce_to(col.data_type)?);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::qualified(
            "courses",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("title", DataType::Text),
                Column::new("units", DataType::Int),
            ],
        )
    }

    #[test]
    fn resolve_unqualified() {
        let s = sample();
        assert_eq!(s.index_of("title").unwrap(), 1);
        assert_eq!(s.index_of("TITLE").unwrap(), 1); // case-insensitive
        assert!(matches!(
            s.index_of("nope"),
            Err(RelError::UnknownColumn(_))
        ));
    }

    #[test]
    fn resolve_qualified() {
        let s = sample();
        assert_eq!(s.resolve(Some("courses"), "id").unwrap(), 0);
        assert!(matches!(
            s.resolve(Some("students"), "id"),
            Err(RelError::UnknownColumn(_))
        ));
    }

    #[test]
    fn pick_keeps_columns_and_qualifiers() {
        let s = sample().pick(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.column(1), sample().column(0));
        assert_eq!(s.qualifier(0), Some("courses"));
    }

    #[test]
    fn join_detects_ambiguity() {
        let left = sample();
        let right = Schema::qualified(
            "comments",
            vec![
                Column::not_null("id", DataType::Int),
                Column::new("text", DataType::Text),
            ],
        );
        let joined = left.join(&right);
        assert_eq!(joined.len(), 5);
        assert!(matches!(
            joined.index_of("id"),
            Err(RelError::AmbiguousColumn(_))
        ));
        assert_eq!(joined.resolve(Some("comments"), "id").unwrap(), 3);
        assert_eq!(joined.resolve(Some("courses"), "id").unwrap(), 0);
        // Unambiguous unqualified names still resolve.
        assert_eq!(joined.index_of("text").unwrap(), 4);
    }

    #[test]
    fn validate_row_coerces_and_checks() {
        let s = sample();
        let row = s
            .validate_row(vec![Value::Int(1), Value::text("DB"), Value::text("4")])
            .unwrap();
        assert_eq!(row[2], Value::Int(4));

        assert!(matches!(
            s.validate_row(vec![Value::Null, Value::Null, Value::Null]),
            Err(RelError::NullViolation(_))
        ));
        assert!(matches!(
            s.validate_row(vec![Value::Int(1)]),
            Err(RelError::Arity { .. })
        ));
    }

    #[test]
    fn with_qualifier_applies_alias() {
        let s = sample().with_qualifier("c");
        assert_eq!(s.resolve(Some("c"), "title").unwrap(), 1);
        assert!(s.resolve(Some("courses"), "title").is_err());
    }
}
