//! Entity assembly: documents that span multiple relations.
//!
//! §3.1: "How do we effectively define and search over search entities that
//! span multiple relations rather than over tuples as in traditional
//! database querying? For instance, we may want to define a course entity
//! to include not just its title and description, but all the comments made
//! by students about the course […]".
//!
//! An [`EntitySpec`] declares how to build such an entity from a
//! [`cr_relation`] database: a base table plus any number of weighted text
//! fields, each drawn either from a base-table column or from a related
//! table via a foreign key (one join hop — comments, instructor names,
//! textbook titles). [`build_index`] materializes the corpus.

use std::collections::HashMap;

use cr_relation::{Catalog, RelResult, Value};

use crate::analysis::Analyzer;
use crate::index::{DocId, FieldSpec, InvertedIndex};

/// Where a field's text comes from.
#[derive(Debug, Clone)]
pub enum FieldSource {
    /// A column of the base table.
    Column { column: String, weight: f64 },
    /// All values of `text_column` in rows of `table` whose `fk_column`
    /// equals the entity id, concatenated.
    Related {
        table: String,
        fk_column: String,
        text_column: String,
        weight: f64,
    },
}

impl FieldSource {
    fn weight(&self) -> f64 {
        match self {
            FieldSource::Column { weight, .. } => *weight,
            FieldSource::Related { weight, .. } => *weight,
        }
    }
}

/// Declarative description of a search entity.
#[derive(Debug, Clone)]
pub struct EntitySpec {
    /// Human name ("course").
    pub name: String,
    /// Base relation; one entity per row.
    pub base_table: String,
    /// Column of the base table holding the entity id.
    pub id_column: String,
    /// Named, weighted fields.
    pub fields: Vec<(String, FieldSource)>,
}

impl EntitySpec {
    /// The course entity used throughout CourseRank: title (weight 4),
    /// description (2), comments (1) — optionally more via [`EntitySpec::with_field`].
    pub fn course_default() -> Self {
        EntitySpec {
            name: "course".into(),
            base_table: "Courses".into(),
            id_column: "CourseID".into(),
            fields: vec![
                (
                    "title".into(),
                    FieldSource::Column {
                        column: "Title".into(),
                        weight: 4.0,
                    },
                ),
                (
                    "description".into(),
                    FieldSource::Column {
                        column: "Description".into(),
                        weight: 2.0,
                    },
                ),
                (
                    "comments".into(),
                    FieldSource::Related {
                        table: "Comments".into(),
                        fk_column: "CourseID".into(),
                        text_column: "Text".into(),
                        weight: 1.0,
                    },
                ),
            ],
        }
    }

    /// Add a field.
    pub fn with_field(mut self, name: &str, source: FieldSource) -> Self {
        self.fields.push((name.to_owned(), source));
        self
    }

    fn field_specs(&self) -> Vec<FieldSpec> {
        self.fields
            .iter()
            .map(|(name, src)| FieldSpec {
                name: name.clone(),
                weight: src.weight(),
            })
            .collect()
    }
}

/// The built corpus: the index plus each document's entity id. Once
/// [`build_index`] returns it nothing can change it: its fields are
/// private and its methods take `&self`.
#[derive(Debug)]
pub struct EntityCorpus {
    index: InvertedIndex,
    /// doc id (dense) → entity id value.
    doc_to_id: Vec<Value>,
}

impl EntityCorpus {
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The entity id of a document. Panics on a doc id the corpus did not
    /// assign.
    pub fn entity_id(&self, doc: DocId) -> &Value {
        &self.doc_to_id[doc.0 as usize]
    }
}

/// Gather, per entity id, the text of every field.
struct EntityTexts {
    ids: Vec<Value>,
    /// Parallel to `ids`: per field, the text.
    texts: Vec<Vec<String>>,
}

fn gather_texts(catalog: &Catalog, spec: &EntitySpec) -> RelResult<EntityTexts> {
    // Pre-aggregate related-table text keyed by fk value.
    let mut related_maps: Vec<Option<HashMap<Value, String>>> =
        Vec::with_capacity(spec.fields.len());
    for (_, src) in &spec.fields {
        match src {
            FieldSource::Column { .. } => related_maps.push(None),
            FieldSource::Related {
                table,
                fk_column,
                text_column,
                ..
            } => {
                let map =
                    catalog.with_table(table, |t| -> RelResult<HashMap<Value, String>> {
                        let fk = t.schema().index_of(fk_column)?;
                        let tx = t.schema().index_of(text_column)?;
                        let mut m: HashMap<Value, String> = HashMap::with_capacity(t.len());
                        for (_, row) in t.scan() {
                            if row[fk].is_null() || row[tx].is_null() {
                                continue;
                            }
                            let text = match &row[tx] {
                                Value::Text(s) => s.as_str(),
                                _ => continue,
                            };
                            let slot = m.entry(row[fk].clone()).or_default();
                            if !slot.is_empty() {
                                slot.push(' ');
                            }
                            slot.push_str(text);
                        }
                        Ok(m)
                    })??;
                related_maps.push(Some(map));
            }
        }
    }

    catalog.with_table(&spec.base_table, |t| -> RelResult<EntityTexts> {
        let id_idx = t.schema().index_of(&spec.id_column)?;
        let col_idx: Vec<Option<usize>> = spec
            .fields
            .iter()
            .map(|(_, src)| match src {
                FieldSource::Column { column, .. } => t.schema().index_of(column).map(Some),
                FieldSource::Related { .. } => Ok(None),
            })
            .collect::<RelResult<_>>()?;
        let mut ids = Vec::with_capacity(t.len());
        let mut texts = Vec::with_capacity(t.len());
        for (_, row) in t.scan() {
            let id = row[id_idx].clone();
            let mut per_field = Vec::with_capacity(spec.fields.len());
            for (fi, (_, _src)) in spec.fields.iter().enumerate() {
                let text = match (&col_idx[fi], &related_maps[fi]) {
                    (Some(ci), _) => match &row[*ci] {
                        Value::Text(s) => s.clone(),
                        Value::Null => String::new(),
                        other => other.to_string(),
                    },
                    (None, Some(map)) => map.get(&id).cloned().unwrap_or_default(),
                    (None, None) => unreachable!("field is either column or related"),
                };
                per_field.push(text);
            }
            ids.push(id);
            texts.push(per_field);
        }
        Ok(EntityTexts { ids, texts })
    })?
}

/// Build the corpus.
pub fn build_index(catalog: &Catalog, spec: &EntitySpec) -> RelResult<EntityCorpus> {
    let gathered = gather_texts(catalog, spec)?;
    let mut index = InvertedIndex::new(Analyzer::new(), spec.field_specs());
    for per_field in &gathered.texts {
        let field_texts: Vec<(crate::index::FieldId, &str)> = per_field
            .iter()
            .enumerate()
            .map(|(fi, s)| (crate::index::FieldId(fi as u16), s.as_str()))
            .collect();
        index.add_document(&field_texts);
    }
    Ok(EntityCorpus {
        index,
        doc_to_id: gathered.ids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_relation::Database;

    fn setup() -> Database {
        let db = Database::new();
        db.execute_sql(
            "CREATE TABLE Courses (CourseID INT PRIMARY KEY, Title TEXT, Description TEXT)",
        )
        .unwrap();
        db.execute_sql(
            "CREATE TABLE Comments (CommentID INT PRIMARY KEY, CourseID INT, Text TEXT)",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO Courses VALUES \
             (1, 'American History', 'survey of american political history'), \
             (2, 'Databases', 'relational systems and query processing'), \
             (3, 'Latin American Studies', 'culture and politics of latin america')",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO Comments VALUES \
             (10, 1, 'loved the american revolution unit'), \
             (11, 2, 'great coverage of sql'), \
             (12, 3, 'deep dive into latin american politics')",
        )
        .unwrap();
        db
    }

    fn spec() -> EntitySpec {
        EntitySpec::course_default()
    }

    #[test]
    fn build_spans_relations() {
        let db = setup();
        let corpus = build_index(&db.catalog(), &spec()).unwrap();
        assert_eq!(corpus.index.num_docs(), 3);
        // "sql" only occurs in a comment; the databases course must match.
        assert_eq!(corpus.index.doc_freq("sql"), 1);
        let doc = corpus.index.postings("sql")[0].doc;
        assert_eq!(corpus.entity_id(doc), &Value::Int(2));
        // Comment text merged with title/description for entity 1.
        let d1 = DocId(0);
        assert_eq!(corpus.entity_id(d1), &Value::Int(1));
        let entry = corpus.index.doc(d1).unwrap();
        for term in ["revolution", "american"] {
            let id = corpus.index.term_id(term).unwrap();
            assert!(entry.term_freqs.iter().any(|(t, _)| *t == id), "{term}");
        }
    }
}
