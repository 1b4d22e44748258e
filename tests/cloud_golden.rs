//! Golden data clouds.
//!
//! A fixed query set over a deterministic generated campus, its
//! refinements, and the same queries again after a comment write: every
//! cloud term's `(term, display, result_tf, result_doc_freq,
//! score.to_bits(), bucket)` is pinned in `tests/golden/clouds.txt`.
//! Indexing, aggregation, scoring and cache maintenance may change how
//! they compute a cloud, but not a single bit of what it says.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use std::fmt::Write as _;

use courserank::db::Comment;
use courserank::model::{Quarter, Term};
use courserank::services::search::CourseCloud;
use cr_datagen::ScaleConfig;
use cr_textsearch::DataCloud;

const GOLDEN: &str = include_str!("golden/clouds.txt");

const QUERIES: [&str; 6] = [
    "theory",
    "systems",
    "history",
    "american",
    "programming",
    "design",
];

fn render(out: &mut String, label: &str, total: usize, cloud: &DataCloud) {
    writeln!(out, "{label}|total={total}|docs={}", cloud.docs_aggregated).unwrap();
    for t in &cloud.terms {
        writeln!(
            out,
            "{label}|{}|{}|{}|{}|{:016x}|{}",
            t.term,
            t.display,
            t.result_tf,
            t.result_doc_freq,
            t.score.to_bits(),
            t.bucket
        )
        .unwrap();
    }
}

/// Every cloud of the scenario, one line per term.
fn clouds() -> String {
    let (db, _) = cr_datagen::generate(&ScaleConfig::scaled(0.05)).unwrap();
    let mut search = CourseCloud::build(db.clone()).unwrap();
    let mut out = String::new();
    let mut written = None;
    for q in QUERIES {
        let (hits, r, cold) = search.search_with_cloud(q, None, 10).unwrap();
        render(&mut out, q, r.total, &cold);
        // A repeat is served from the cached aggregates.
        let (_, _, warm) = search.search_with_cloud(q, None, 10).unwrap();
        assert_eq!(cold.terms, warm.terms, "cache hit differs for {q:?}");
        if let Some(first) = cold.terms.first() {
            let (_, r, refined) = search.search_with_cloud(q, Some(&first.term), 10).unwrap();
            render(&mut out, &format!("{q}+{}", first.term), r.total, &refined);
        }
        if q == "history" {
            written = hits.first().map(|h| h.course);
        }
    }

    // A comment on a member of the "history" result set: cached entries
    // that contain the course absorb the delta, the rest are spared.
    let course = written.unwrap();
    let student = db
        .database()
        .query_sql("SELECT MIN(SuID) FROM Students")
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    db.insert_comment(&Comment {
        id: 9_000_000,
        student,
        course,
        quarter: Quarter::new(2009, Term::Spring),
        text: "ancient history of american design theory and systems programming".into(),
        rating: 4.0,
        date: 0,
    })
    .unwrap();
    assert!(search.reindex_course(course).unwrap());
    for q in QUERIES {
        let (_, r, cloud) = search.search_with_cloud(q, None, 10).unwrap();
        render(&mut out, &format!("after-write {q}"), r.total, &cloud);
    }
    out
}

#[test]
fn clouds_match_golden() {
    let got = clouds();
    for (i, (g, want)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, want, "first difference at golden line {}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "cloud line count differs from the golden file"
    );
}
