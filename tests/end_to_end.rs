//! A full user journey across the assembled system — the story §2 of the
//! paper tells, as one test: a student logs in, searches with clouds,
//! reads a course page, gets recommendations, plans a quarter, audits
//! requirements, asks a question, answers arrive, votes and points flow.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use courserank::auth::Role;
use courserank::db::{Comment, EnrollStatus, Enrollment};
use courserank::model::{Quarter, Term};
use courserank::services::forum::Question;
use courserank::services::incentives::PointEvent;
use courserank::services::recs::RecOptions;
use courserank::CourseRank;
use cr_datagen::ScaleConfig;

#[test]
fn student_journey() {
    let (db, _) = cr_datagen::generate(&ScaleConfig::tiny()).unwrap();
    let app = CourseRank::assemble(db).unwrap();

    // 1. Log in (closed community: user ids come from the directory).
    let session = app.auth().login("user1").unwrap();
    let me = session.user;

    // 2. Search with a cloud and refine.
    let (hits, results, cloud) = app.search().search_with_cloud("theory", None, 10).unwrap();
    assert!(results.total > 0);
    assert!(!hits.is_empty());
    if let Some(term) = cloud.terms.first() {
        let (_, refined, _) = app
            .search()
            .search_with_cloud("theory", Some(&term.term), 10)
            .unwrap();
        assert!(refined.total <= results.total);
    }

    // 3. Open the top course's page.
    let course = hits[0].course;
    let page = app.course_page(course).unwrap();
    assert!(page.contains("==="));

    // 4. Get recommendations, plan the top one for next quarter.
    let recs = app
        .recs()
        .recommend_courses(
            me,
            &RecOptions {
                min_common: 1,
                ..RecOptions::default()
            },
        )
        .unwrap();
    assert!(!recs.is_empty());
    let to_plan = recs[0].course;
    app.db()
        .insert_enrollment(&Enrollment {
            student: me,
            course: to_plan,
            quarter: Quarter::new(2009, Term::Autumn),
            grade: None,
            status: EnrollStatus::Planned,
        })
        .unwrap();

    // 5. The planner reflects the new plan.
    let report = app.planner().report(me).unwrap();
    assert!(report.quarters.iter().any(|q| q.courses.contains(&to_plan)));

    // 6. Requirements audit runs.
    let audit = app.requirements().audit(1, me).unwrap();
    assert!((0.0..=1.0).contains(&audit.progress));

    // 7. Ask a question; it routes to experienced students; one answers;
    //    the answer is marked best; points flow.
    let q = Question {
        id: 500_000,
        asker: Some(me),
        course: Some(course),
        dep: None,
        text: "is the midterm open book?".into(),
        seeded: false,
    };
    app.forum().ask(&q).unwrap();
    let routed = app.forum().route(&q).unwrap();
    assert!(!routed.is_empty());
    assert!(routed.iter().all(|r| r.student != me));
    let answerer = routed[0].student;
    app.forum()
        .answer(600_000, 500_000, answerer, "yes, one cheat sheet")
        .unwrap();
    app.forum().mark_best(600_000).unwrap();
    let pts = app
        .incentives()
        .award(answerer, PointEvent::BestAnswer, 100)
        .unwrap();
    assert_eq!(pts, 10);

    // 8. The student writes a comment. Search indexes comments at
    //    assembly only, so it becomes searchable in the next assembly.
    app.db()
        .insert_comment(&Comment {
            id: 700_000,
            student: me,
            course,
            quarter: Quarter::new(2008, Term::Autumn),
            text: "the xylophone demo was unforgettable".into(),
            rating: 5.0,
            date: 0,
        })
        .unwrap();
    let (hits, _) = app.search().search("xylophone", 5).unwrap();
    assert!(hits.is_empty());
    let app2 = CourseRank::assemble(app.db().clone()).unwrap();
    let (hits2, _) = app2.search().search("xylophone", 5).unwrap();
    assert_eq!(hits2.len(), 1);
    assert_eq!(hits2[0].course, course);

    // 9. Another student votes the comment helpful; it climbs the
    //    ranking.
    app.comments().vote(700_000, 2, true).unwrap();
    let ranked = app.comments().ranked_for_course(course).unwrap();
    assert_eq!(ranked[0].id, 700_000);
}

#[test]
fn staff_journey_defines_program_students_audit_it() {
    let (db, _) = cr_datagen::generate(&ScaleConfig::tiny()).unwrap();
    let app = CourseRank::assemble(db).unwrap();
    app.auth()
        .register(800_000, "registrar", Role::Staff, "The Registrar")
        .unwrap();
    let staff = app.auth().login("registrar").unwrap();
    app.auth()
        .authorize(
            staff.token,
            courserank::auth::Capability::DefineRequirements,
        )
        .unwrap();

    // Staff define a new interdisciplinary program.
    use courserank::services::requirements::Requirement;
    app.requirements()
        .define_program(
            9_000,
            "CS",
            "CS+History joint",
            &Requirement::AllOf(vec![
                Requirement::UnitsInDept {
                    units: 8,
                    dep: "CS".into(),
                },
                Requirement::UnitsInDept {
                    units: 8,
                    dep: "HIST".into(),
                },
            ]),
        )
        .unwrap();

    // Every active student can now audit against it.
    for student in [1i64, 2, 3] {
        let audit = app.requirements().audit(9_000, student).unwrap();
        assert_eq!(audit.children.len(), 2);
    }
}
