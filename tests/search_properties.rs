//! Properties of search over random corpora: a word repeated in the
//! query changes nothing, `k` only cuts the hit list — the match count
//! and the full match list the cloud aggregates do not depend on it —
//! and a cloud served from CourseCloud's cache is the cold cloud.
//! (Reordering a query is not asserted to change nothing: term order
//! sets the order of the float additions in a doc's score.)

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use courserank::db::{Course, CourseRankDb};
use courserank::CourseRank;
use cr_relation::Database;
use cr_textsearch::engine::SearchEngine;
use cr_textsearch::entity::{build_index, EntitySpec};
use cr_textsearch::{CloudConfig, DataCloud};
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

/// A doc's words split into (title, description).
fn title_and_description(words: &[usize]) -> (String, String) {
    let text = |ws: &[usize]| {
        ws.iter()
            .map(|&w| WORDS[w % WORDS.len()])
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mid = words.len() / 2;
    (text(&words[..mid]), text(&words[mid..]))
}

fn build_engine(docs: &[Vec<usize>]) -> SearchEngine {
    let db = Database::new();
    db.execute_sql("CREATE TABLE Courses (CourseID INT PRIMARY KEY, Title TEXT, Description TEXT)")
        .unwrap();
    db.execute_sql("CREATE TABLE Comments (CommentID INT PRIMARY KEY, CourseID INT, Text TEXT)")
        .unwrap();
    for (i, words) in docs.iter().enumerate() {
        let (title, desc) = title_and_description(words);
        db.execute_sql(&format!(
            "INSERT INTO Courses VALUES ({i}, '{title}', '{desc}')"
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

/// The same random corpus as a CourseRank campus.
fn build_app(docs: &[Vec<usize>]) -> CourseRank {
    let db = CourseRankDb::new();
    db.insert_department("CS", "Computer Science", "Engineering")
        .unwrap();
    for (i, words) in docs.iter().enumerate() {
        let (title, description) = title_and_description(words);
        db.insert_course(&Course {
            id: i as i64,
            dep: "CS".into(),
            title,
            description,
            units: 3,
            url: String::new(),
        })
        .unwrap();
    }
    CourseRank::assemble(db).unwrap()
}

/// Field for field, scores compared by their bits.
fn assert_same_cloud(got: &DataCloud, want: &DataCloud) {
    assert_eq!(got.docs_aggregated, want.docs_aggregated);
    assert_eq!(got.terms.len(), want.terms.len());
    for (g, w) in got.terms.iter().zip(&want.terms) {
        assert_eq!(
            (
                &g.term,
                &g.display,
                g.result_doc_freq,
                g.result_tf,
                g.bucket
            ),
            (
                &w.term,
                &w.display,
                w.result_doc_freq,
                w.result_tf,
                w.bucket
            )
        );
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{}", g.term);
    }
}

/// Search on `app` and check the served cloud against a cold one.
fn check_cloud(app: &CourseRank, query: &str, refine: Option<&str>) -> DataCloud {
    let search = app.search();
    let (_, results, cloud) = search.search_with_cloud(query, refine, 10).unwrap();
    assert_same_cloud(
        &cloud,
        &search.engine().cloud(&results, &CloudConfig::default()),
    );
    cloud
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

    /// The cloud `search_with_cloud` serves equals `engine.cloud` with
    /// the default config, cold and warm, on the live handle and on a
    /// read view (rebinds share the cloud cache), for queries and for
    /// refinements by one of their cloud terms.
    #[test]
    fn cached_cloud_equals_cold_cloud(
        docs in proptest::collection::vec(
            proptest::collection::vec(0usize..10, 2..10), 1..40),
        queries in proptest::collection::vec(
            (proptest::collection::vec(0usize..10, 1..3),
             proptest::option::of(0usize..30),
             any::<bool>()),
            1..6),
    ) {
        let app = build_app(&docs);
        let (view, _) = app.read_view();
        for (query, refine, view_first) in &queries {
            let text: Vec<&str> = query.iter().map(|&w| WORDS[w]).collect();
            let text = text.join(" ");
            let handles = if *view_first { [&view, &app] } else { [&app, &view] };
            let mut cloud = DataCloud::default();
            for _ in 0..2 {
                for handle in handles {
                    cloud = check_cloud(handle, &text, None);
                }
            }
            let Some(pick) = refine else { continue };
            if cloud.terms.is_empty() {
                continue;
            }
            let term = cloud.terms[pick % cloud.terms.len()].term.clone();
            for _ in 0..2 {
                for handle in handles {
                    check_cloud(handle, &text, Some(&term));
                }
            }
        }
    }
}
