//! Equivalence property for search: the top-k pruned search is an
//! *optimization*, not an approximation. For any generated corpus and
//! query, `search_topk` must return the same hits (docs, scores, order)
//! as the exhaustive `search`.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use cr_relation::Database;
use cr_textsearch::engine::SearchEngine;
use cr_textsearch::entity::{build_index, EntitySpec};
use proptest::prelude::*;

/// Random corpus from a small vocabulary so queries actually hit.
const WORDS: &[&str] = &[
    "american",
    "history",
    "politics",
    "database",
    "systems",
    "latin",
    "culture",
    "novels",
    "storage",
    "elections",
];

fn build_engine(docs: &[Vec<usize>]) -> SearchEngine {
    let db = Database::new();
    db.execute_sql("CREATE TABLE Courses (CourseID INT PRIMARY KEY, Title TEXT, Description TEXT)")
        .unwrap();
    db.execute_sql("CREATE TABLE Comments (CommentID INT PRIMARY KEY, CourseID INT, Text TEXT)")
        .unwrap();
    for (i, words) in docs.iter().enumerate() {
        let mid = words.len() / 2;
        let title: Vec<&str> = words[..mid]
            .iter()
            .map(|&w| WORDS[w % WORDS.len()])
            .collect();
        let desc: Vec<&str> = words[mid..]
            .iter()
            .map(|&w| WORDS[w % WORDS.len()])
            .collect();
        db.execute_sql(&format!(
            "INSERT INTO Courses VALUES ({i}, '{}', '{}')",
            title.join(" "),
            desc.join(" ")
        ))
        .unwrap();
    }
    let corpus = build_index(&db.catalog(), &EntitySpec::course_default()).unwrap();
    SearchEngine::new(corpus)
}

fn assert_hits_identical(a: &cr_textsearch::SearchResults, b: &cr_textsearch::SearchResults) {
    assert_eq!(a.total, b.total);
    assert_eq!(a.hits.len(), b.hits.len());
    for (x, y) in a.hits.iter().zip(&b.hits) {
        assert_eq!(x.doc, y.doc);
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "score mismatch on {:?}: {} vs {}",
            x.doc,
            x.score,
            y.score
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn topk_matches_exhaustive_on_random_corpora(
        docs in proptest::collection::vec(
            proptest::collection::vec(0usize..10, 2..10), 1..40),
        query in proptest::collection::vec(0usize..10, 1..4),
        k in 0usize..12,
    ) {
        let engine = build_engine(&docs);
        let text: Vec<&str> = query.iter().map(|&w| WORDS[w]).collect();
        let q = engine.parse_query(&text.join(" "));
        let exhaustive = engine.search(&q, k);
        let topk = engine.search_topk(&q, k);
        assert_hits_identical(&exhaustive, &topk);
    }
}
