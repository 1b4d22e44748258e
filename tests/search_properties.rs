//! Properties of search over random corpora: a word repeated in the
//! query changes nothing, and `k` only cuts the hit list — the match
//! count and the full match list the cloud aggregates do not depend on
//! it. (Reordering a query is not asserted to change nothing: term order
//! sets the order of the float additions in a doc's score.)

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

fn assert_same_results(a: &cr_textsearch::SearchResults, b: &cr_textsearch::SearchResults) {
    assert_eq!(a.query.terms, b.query.terms);
    assert_eq!(a.total, b.total);
    assert_eq!(a.matched_docs, b.matched_docs);
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

/// More hits than any generated corpus has docs.
const ALL: usize = 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn repeated_query_word_changes_nothing(
        docs in proptest::collection::vec(
            proptest::collection::vec(0usize..10, 2..10), 1..40),
        query in proptest::collection::vec(0usize..10, 1..4),
        repeat in 0usize..4,
        k in 0usize..12,
    ) {
        let engine = build_engine(&docs);
        let mut words: Vec<&str> = query.iter().map(|&w| WORDS[w]).collect();
        let once = engine.search(&engine.parse_query(&words.join(" ")), k);
        words.push(words[repeat % words.len()]);
        let twice = engine.search(&engine.parse_query(&words.join(" ")), k);
        assert_same_results(&once, &twice);
    }

    #[test]
    fn k_only_truncates_the_hit_list(
        docs in proptest::collection::vec(
            proptest::collection::vec(0usize..10, 2..10), 1..40),
        query in proptest::collection::vec(0usize..10, 1..4),
        k in 0usize..12,
    ) {
        let engine = build_engine(&docs);
        let text: Vec<&str> = query.iter().map(|&w| WORDS[w]).collect();
        let q = engine.parse_query(&text.join(" "));
        let all = engine.search(&q, ALL);
        let top = engine.search(&q, k);
        prop_assert_eq!(all.hits.len(), all.total);
        prop_assert_eq!(top.total, all.total);
        prop_assert_eq!(&top.matched_docs, &all.matched_docs);
        let mut prefix = all.clone();
        prefix.hits.truncate(k);
        assert_same_results(&top, &prefix);
        for w in all.hits.windows(2) {
            prop_assert!(
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].doc < w[1].doc),
                "hits out of order: {:?} before {:?}",
                w[0],
                w[1]
            );
        }
    }
}
