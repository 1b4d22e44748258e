//! E4/E5/A2 — Figure 5: the two FlexRecs workflows, plus plan-pipeline vs
//! interpreter equivalence.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use std::collections::HashMap;

use courserank::services::recs::{RecOptions, Recommender};
use cr_datagen::ScaleConfig;
use cr_flexrecs::compile::{compile_and_run, explain_sql};
use cr_flexrecs::templates::{self, SchemaMap};
use cr_relation::Value;

fn campus() -> courserank::db::CourseRankDb {
    let (db, _) = cr_datagen::generate(&ScaleConfig::tiny()).unwrap();
    db
}

#[test]
fn figure5a_related_courses_ranks_by_title_similarity() {
    let db = campus();
    let course = db.course(1).unwrap().unwrap();
    let wf = templates::related_courses(&SchemaMap::default(), &course.title, None, 10);
    let result = cr_flexrecs::execute(&wf, &db.catalog()).unwrap();
    let ranking = cr_flexrecs::ranking(&result, "CourseID", "score").unwrap();
    assert!(
        !ranking.is_empty(),
        "no related courses for {:?}",
        course.title
    );
    // The course itself is excluded by the target filter.
    assert!(ranking.iter().all(|(id, _)| *id != Value::Int(1)));
    // Scores descend and every recommended title shares a word.
    for w in ranking.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
    let target_words: Vec<String> = course
        .title
        .to_lowercase()
        .split_whitespace()
        .map(str::to_owned)
        .collect();
    let top = db.course(ranking[0].0.as_int().unwrap()).unwrap().unwrap();
    assert!(
        top.title
            .to_lowercase()
            .split_whitespace()
            .any(|w| target_words.iter().any(|t| t == w)),
        "top related {:?} shares no word with {:?}",
        top.title,
        course.title
    );
}

#[test]
fn figure5b_cf_structure_and_execution() {
    let db = campus();
    let wf = templates::user_cf(&SchemaMap::default(), 1, 10, 10, 1, false);
    // The explain output shows the Figure 5(b) structure: two recommend
    // operators, an extend (ε), and the target-student selection.
    let text = wf.explain();
    assert_eq!(text.matches("Recommend ▷").count(), 2, "{text}");
    assert!(text.contains("Extend ε"), "{text}");
    assert!(text.contains("inverse_euclidean"), "{text}");
    assert!(text.contains("rating_lookup"), "{text}");

    let result = cr_flexrecs::execute(&wf, &db.catalog()).unwrap();
    let ranking = cr_flexrecs::ranking(&result, "CourseID", "score").unwrap();
    assert!(!ranking.is_empty());
    // Ratings live in [1, 5]; the aggregated scores must too.
    for (_, s) in &ranking {
        assert!((1.0..=5.0).contains(s), "score {s} out of rating range");
    }
}

#[test]
fn a2_plan_pipeline_equals_interpreter() {
    let db = campus();
    for student in [1i64, 5, 17] {
        let wf = templates::user_cf(&SchemaMap::default(), student, 10, 50, 2, false);
        let direct = cr_flexrecs::execute(&wf, &db.catalog()).unwrap();
        let compiled = compile_and_run(&wf, &db.catalog()).unwrap();
        let d: HashMap<Value, f64> = cr_flexrecs::ranking(&direct, "CourseID", "score")
            .unwrap()
            .into_iter()
            .collect();
        let c: HashMap<Value, f64> = cr_flexrecs::ranking(&compiled.result, "CourseID", "score")
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(d.len(), c.len(), "student {student}");
        for (k, v) in &d {
            assert!(
                (c[k] - v).abs() < 1e-9,
                "student {student}, course {k}: {v} vs {}",
                c[k]
            );
        }
        // Byte-identical, not just score-equal.
        assert_eq!(compiled.result, direct, "student {student}");
    }
}

#[test]
fn compiled_plan_shows_the_unified_model() {
    let db = campus();
    let wf = templates::user_cf(&SchemaMap::default(), 1, 5, 10, 2, false);
    // The workflow compiles onto the engine's one query IR: the explain
    // output is the optimized LogicalPlan the SQL front-end also targets.
    let lines = explain_sql(&wf, &db.catalog()).unwrap();
    let all = lines.join("\n");
    assert_eq!(all.matches("Recommend").count(), 2, "{all}");
    assert!(all.contains("Extend"), "{all}");
    assert!(all.contains("Scan"), "{all}");
    // The optimizer ran: the target-student selection was pushed into the
    // scans, so no bare Filter node survives above them.
    assert!(all.contains("filter="), "{all}");
    // And the compiled run reports its phase timings.
    let run = compile_and_run(&wf, &db.catalog()).unwrap();
    let labels: Vec<&str> = run.step_timings.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, ["Lower", "Optimize", "Execute"]);
}

#[test]
fn recommender_facade_personalization_options() {
    let db = campus();
    let rec = Recommender::new(db.clone());
    let base = RecOptions {
        min_common: 1,
        ..RecOptions::default()
    };
    let plain = rec.recommend_courses(1, &base).unwrap();
    let weighted = rec
        .recommend_courses(
            1,
            &RecOptions {
                weighted: true,
                ..base.clone()
            },
        )
        .unwrap();
    assert!(!plain.is_empty());
    assert!(!weighted.is_empty());
    // exclude_taken really excludes.
    let taken: Vec<i64> = db
        .enrollments_of(1)
        .unwrap()
        .into_iter()
        .filter(|e| e.status == courserank::db::EnrollStatus::Taken)
        .map(|e| e.course)
        .collect();
    for r in &plain {
        assert!(
            !taken.contains(&r.course),
            "recommended already-taken {}",
            r.course
        );
    }
}

#[test]
fn item_item_cf_finds_co_rated_courses() {
    let db = campus();
    // Most popular course has the most raters → its item-item neighbors
    // must be non-empty.
    let rs = db
        .database()
        .query_sql(
            "SELECT CourseID, COUNT(*) AS n FROM Comments GROUP BY CourseID ORDER BY n DESC LIMIT 1",
        )
        .unwrap();
    let popular = rs.rows[0][0].as_int().unwrap();
    let wf = templates::item_item_cf(&SchemaMap::default(), popular, 5);
    let result = cr_flexrecs::execute(&wf, &db.catalog()).unwrap();
    let ranking = cr_flexrecs::ranking(&result, "CourseID", "score").unwrap();
    assert!(!ranking.is_empty());
    assert!(ranking.iter().all(|(id, _)| *id != Value::Int(popular)));
}

#[test]
fn item_item_cf_ratings_agrees_across_paths() {
    let db = campus();
    let rs = db
        .database()
        .query_sql(
            "SELECT CourseID, COUNT(*) AS n FROM Comments GROUP BY CourseID ORDER BY n DESC LIMIT 1",
        )
        .unwrap();
    let popular = rs.rows[0][0].as_int().unwrap();
    let wf = templates::item_item_cf_ratings(&SchemaMap::default(), popular, 5);
    let direct = cr_flexrecs::execute(&wf, &db.catalog()).unwrap();
    let compiled = compile_and_run(&wf, &db.catalog()).unwrap();
    assert_eq!(compiled.result, direct);
    let ranking = cr_flexrecs::ranking(&compiled.result, "CourseID", "score").unwrap();
    assert!(ranking.iter().all(|(id, _)| *id != Value::Int(popular)));
}
