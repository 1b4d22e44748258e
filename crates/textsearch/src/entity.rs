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

use cr_relation::{Catalog, RelError, RelResult, Value};

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

/// The built corpus: the index plus the doc ↔ entity-id mappings.
#[derive(Debug, Clone)]
pub struct EntityCorpus {
    pub index: InvertedIndex,
    /// doc id (dense) → entity id value.
    pub doc_to_id: Vec<Value>,
    /// entity id → doc id.
    pub id_to_doc: HashMap<Value, DocId>,
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
    let mut doc_to_id = Vec::with_capacity(gathered.ids.len());
    let mut id_to_doc = HashMap::with_capacity(gathered.ids.len());
    for (id, per_field) in gathered.ids.into_iter().zip(gathered.texts) {
        let field_texts: Vec<(crate::index::FieldId, &str)> = per_field
            .iter()
            .enumerate()
            .map(|(fi, s)| (crate::index::FieldId(fi as u16), s.as_str()))
            .collect();
        let doc = index.add_document(&field_texts);
        id_to_doc.insert(id.clone(), doc);
        doc_to_id.push(id);
    }
    Ok(EntityCorpus {
        index,
        doc_to_id,
        id_to_doc,
    })
}

/// Rebuild a single entity's document in the corpus (after, e.g., a new
/// comment arrives for a course): remove + re-add, updating the mappings.
pub fn reindex_entity(
    corpus: &mut EntityCorpus,
    catalog: &Catalog,
    spec: &EntitySpec,
    entity_id: &Value,
) -> RelResult<bool> {
    let Some(&old_doc) = corpus.id_to_doc.get(entity_id) else {
        return Ok(false);
    };
    // Gather this one entity's texts.
    let mut per_field: Vec<String> = Vec::with_capacity(spec.fields.len());
    let base_row =
        catalog.with_table(&spec.base_table, |t| -> RelResult<Option<Vec<Value>>> {
            let id_idx = t.schema().index_of(&spec.id_column)?;
            for (_, row) in t.scan() {
                if row[id_idx] == *entity_id {
                    return Ok(Some(row.clone()));
                }
            }
            Ok(None)
        })??;
    let Some(base_row) = base_row else {
        // Entity deleted from the base table: remove from index.
        corpus.index.remove_document(old_doc);
        corpus.id_to_doc.remove(entity_id);
        return Ok(true);
    };
    for (_, src) in &spec.fields {
        match src {
            FieldSource::Column { column, .. } => {
                let ci =
                    catalog.with_table(&spec.base_table, |t| t.schema().index_of(column))??;
                per_field.push(match &base_row[ci] {
                    Value::Text(s) => s.clone(),
                    Value::Null => String::new(),
                    other => other.to_string(),
                });
            }
            FieldSource::Related {
                table,
                fk_column,
                text_column,
                ..
            } => {
                let text = catalog.with_table(table, |t| -> RelResult<String> {
                    let fk = t.schema().index_of(fk_column)?;
                    let tx = t.schema().index_of(text_column)?;
                    let mut s = String::new();
                    for (_, row) in t.scan() {
                        if row[fk] == *entity_id {
                            if let Value::Text(txt) = &row[tx] {
                                if !s.is_empty() {
                                    s.push(' ');
                                }
                                s.push_str(txt);
                            }
                        }
                    }
                    Ok(s)
                })??;
                per_field.push(text);
            }
        }
    }
    corpus.index.remove_document(old_doc);
    let field_texts: Vec<(crate::index::FieldId, &str)> = per_field
        .iter()
        .enumerate()
        .map(|(fi, s)| (crate::index::FieldId(fi as u16), s.as_str()))
        .collect();
    let new_doc = corpus.index.add_document(&field_texts);
    corpus.id_to_doc.insert(entity_id.clone(), new_doc);
    if new_doc.0 as usize >= corpus.doc_to_id.len() {
        corpus.doc_to_id.push(entity_id.clone());
    } else {
        corpus.doc_to_id[new_doc.0 as usize] = entity_id.clone();
    }
    Ok(true)
}

/// Validation error helper.
pub fn spec_error(msg: &str) -> RelError {
    RelError::Invalid(msg.to_owned())
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
        let doc = corpus.id_to_doc[&Value::Int(2)];
        assert_eq!(corpus.index.postings("sql")[0].doc, doc);
        // Comment text merged with title/description for entity 1.
        let d1 = corpus.id_to_doc[&Value::Int(1)];
        let entry = corpus.index.doc(d1).unwrap();
        for term in ["revolution", "american"] {
            let id = corpus.index.term_id(term).unwrap();
            assert!(entry.term_freqs.iter().any(|(t, _)| *t == id), "{term}");
        }
    }

    #[test]
    fn reindex_picks_up_new_comment() {
        let db = setup();
        let mut corpus = build_index(&db.catalog(), &spec()).unwrap();
        assert_eq!(corpus.index.doc_freq("compiler"), 0);
        db.execute_sql("INSERT INTO Comments VALUES (13, 2, 'better than the compilers class')")
            .unwrap();
        reindex_entity(&mut corpus, &db.catalog(), &spec(), &Value::Int(2)).unwrap();
        assert_eq!(corpus.index.doc_freq("compiler"), 1);
        assert_eq!(corpus.index.num_docs(), 3);
        // Mapping updated to the fresh doc id.
        let d = corpus.id_to_doc[&Value::Int(2)];
        assert!(corpus.index.is_live(d));
        assert_eq!(corpus.doc_to_id[d.0 as usize], Value::Int(2));
    }

    #[test]
    fn reindex_unknown_entity_is_noop() {
        let db = setup();
        let mut corpus = build_index(&db.catalog(), &spec()).unwrap();
        assert!(!reindex_entity(&mut corpus, &db.catalog(), &spec(), &Value::Int(99)).unwrap());
    }

    #[test]
    fn reindex_deleted_entity_removes_doc() {
        let db = setup();
        let mut corpus = build_index(&db.catalog(), &spec()).unwrap();
        db.execute_sql("DELETE FROM Courses WHERE CourseID = 2")
            .unwrap();
        assert!(reindex_entity(&mut corpus, &db.catalog(), &spec(), &Value::Int(2)).unwrap());
        assert_eq!(corpus.index.num_docs(), 2);
        assert_eq!(corpus.index.doc_freq("sql"), 0);
    }
}
