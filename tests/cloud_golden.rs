//! Golden data clouds.
//!
//! A fixed query set over a deterministic generated campus and its
//! refinements: every cloud term's `(term, display, result_tf,
//! result_doc_freq, score.to_bits(), bucket)` is pinned in
//! `tests/golden/clouds.txt`. Indexing, aggregation, scoring and the
//! cloud cache may change how they compute a cloud, but not a single bit
//! of what it says.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use std::fmt::Write as _;

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
    let search = CourseCloud::build(db).unwrap();
    let mut out = String::new();
    for q in QUERIES {
        let (_, r, cold) = search.search_with_cloud(q, None, 10).unwrap();
        render(&mut out, q, r.total, &cold);
        // A repeat is served from the cloud cache.
        let (_, _, warm) = search.search_with_cloud(q, None, 10).unwrap();
        assert_eq!(cold.terms, warm.terms, "cache hit differs for {q:?}");
        if let Some(first) = cold.terms.first() {
            let (_, r, refined) = search.search_with_cloud(q, Some(&first.term), 10).unwrap();
            render(&mut out, &format!("{q}+{}", first.term), r.total, &refined);
        }
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
