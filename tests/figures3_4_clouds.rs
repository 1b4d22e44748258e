//! E2/E3 — Figures 3 and 4: data-cloud search and refinement.
//!
//! Figure 3: searching "American" returns 1160 of 18,605 courses (~6%)
//! with a cloud of related concepts ("Latin American", "Indians",
//! "politics"). Figure 4: clicking "African American" narrows to 123
//! (~9.4× reduction). We reproduce the *shape* on a 10%-scale synthetic
//! corpus: a broad term hits a few percent to a quarter of the corpus, the
//! cloud proposes related theme terms (not the query itself, not
//! background noise), and cloud-term refinement narrows results by an
//! order of magnitude.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use courserank::CourseRank;
use cr_datagen::ScaleConfig;

fn app() -> CourseRank {
    let (db, _) = cr_datagen::generate(&ScaleConfig::scaled(0.1)).unwrap();
    CourseRank::assemble(db).unwrap()
}

#[test]
fn figure3_broad_search_with_cloud() {
    let app = app();
    let (hits, results, cloud) = app
        .search()
        .search_with_cloud("american", None, 10)
        .unwrap();
    let corpus = app.db().count("Courses").unwrap() as usize;

    // A broad bridge term hits a noticeable but minority slice.
    assert!(results.total > 20, "too few matches: {}", results.total);
    assert!(
        results.total < corpus / 2,
        "matches {}/{corpus} — not selective enough",
        results.total
    );
    assert_eq!(hits.len(), 10);

    // The cloud is non-trivial and does not echo the query.
    assert!(cloud.terms.len() >= 10, "{:?}", cloud.term_strings());
    assert!(!cloud.term_strings().contains(&"american"));
    // It surfaces theme-related refinements the paper shows (politics,
    // culture, history, latin …).
    let terms = cloud.term_strings().join(" ");
    let related = ["politic", "culture", "history", "latin", "race", "identity"];
    let found = related.iter().filter(|w| terms.contains(**w)).count();
    assert!(found >= 3, "expected related concepts in cloud: {terms}");
}

#[test]
fn figure4_refinement_narrows_by_an_order_of_magnitude() {
    let app = app();
    let (_, broad, cloud) = app
        .search()
        .search_with_cloud("american", None, 10)
        .unwrap();
    // Pick the paper's kind of refinement: a bigram if present, else the
    // top term.
    let refine = cloud
        .terms
        .iter()
        .find(|t| t.term.contains(' '))
        .or_else(|| cloud.terms.first())
        .map(|t| t.term.clone())
        .expect("cloud has terms");
    let (_, narrow, cloud2) = app
        .search()
        .search_with_cloud("american", Some(&refine), 10)
        .unwrap();
    assert!(narrow.total > 0, "refinement {refine:?} must keep results");
    assert!(
        narrow.total * 3 <= broad.total,
        "refinement should narrow ≥3x: {} -> {} via {refine:?}",
        broad.total,
        narrow.total
    );
    // "The cloud is updated accordingly to reflect the new, refined,
    // results."
    assert_ne!(cloud.term_strings(), cloud2.term_strings());
}

#[test]
fn every_cloud_term_is_a_valid_refinement() {
    let app = app();
    let (_, broad, cloud) = app.search().search_with_cloud("history", None, 10).unwrap();
    assert!(broad.total > 0);
    for t in cloud.terms.iter().take(10) {
        let (_, narrowed, _) = app
            .search()
            .search_with_cloud("history", Some(&t.term), 10)
            .unwrap();
        assert!(
            narrowed.total > 0,
            "cloud term {:?} produced zero results",
            t.term
        );
        assert!(narrowed.total <= broad.total);
    }
}

#[test]
fn search_reaches_comment_only_matches() {
    // §3.1: "if there are comments that mention 'American', the respective
    // courses will appear (in some position) in the results". Insert a
    // sentinel comment with a unique word on an unrelated course.
    let (db, _) = cr_datagen::generate(&ScaleConfig::tiny()).unwrap();
    db.insert_comment(&courserank::db::Comment {
        id: 999_999,
        student: 1,
        course: 42,
        quarter: courserank::model::Quarter::new(2008, courserank::model::Term::Autumn),
        text: "mentions zanzibar exactly once".into(),
        rating: 4.0,
        date: 0,
    })
    .unwrap();
    let app = CourseRank::assemble(db).unwrap();
    let (hits, results) = app.search().search("zanzibar", 10).unwrap();
    assert_eq!(results.total, 1);
    assert_eq!(hits[0].course, 42);
}

#[test]
fn clouds_display_surface_forms_not_stems() {
    let app = app();
    let (_, _, cloud) = app
        .search()
        .search_with_cloud("american", None, 10)
        .unwrap();
    for t in &cloud.terms {
        // display forms come from real tokens, so a stem like "politic"
        // must be shown as an actual word ("politics").
        if t.term == "politic" {
            assert_eq!(t.display, "politics");
        }
        assert!(!t.display.is_empty());
    }
}
