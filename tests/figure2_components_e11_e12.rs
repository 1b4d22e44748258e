//! E11/E12 — Figure 1 (course page, planner grid) and Figure 2 (system
//! architecture): every component exercised end-to-end through the facade.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use courserank::auth::{Capability, Role};
use courserank::services::recs::RecOptions;
use courserank::CourseRank;
use cr_datagen::ScaleConfig;

fn app() -> CourseRank {
    let (db, _) = cr_datagen::generate(&ScaleConfig::tiny()).unwrap();
    CourseRank::assemble(db).unwrap()
}

#[test]
fn e12_every_figure2_component_works_through_the_facade() {
    let app = app();

    // auth — closed community login.
    let session = app.auth().login("user1").unwrap();
    assert!(app
        .auth()
        .authorize(session.token, Capability::PlanCourses)
        .is_ok());

    // search + clouds.
    let (_, results, cloud) = app.search().search_with_cloud("theory", None, 5).unwrap();
    assert!(results.total > 0);
    assert!(!cloud.terms.is_empty());

    // recommendations.
    let recs = app
        .recs()
        .recommend_courses(
            1,
            &RecOptions {
                min_common: 1,
                ..RecOptions::default()
            },
        )
        .unwrap();
    assert!(!recs.is_empty());

    // planner.
    let report = app.planner().report(1).unwrap();
    assert!(!report.quarters.is_empty());

    // requirement tracker (program 1 exists per department generator).
    let audit = app.requirements().audit(1, 1).unwrap();
    assert!(audit.progress >= 0.0 && audit.progress <= 1.0);

    // grades.
    let rs = app
        .db()
        .database()
        .query_sql("SELECT CourseID FROM OfficialGradeDist LIMIT 1")
        .unwrap();
    let course = rs.rows[0][0].as_int().unwrap();
    assert!(app.grades().official(course, 2008).unwrap().total() > 0);

    // comments.
    let rs = app
        .db()
        .database()
        .query_sql(
            "SELECT CourseID, COUNT(*) AS n FROM Comments GROUP BY CourseID ORDER BY n DESC LIMIT 1",
        )
        .unwrap();
    let commented = rs.rows[0][0].as_int().unwrap();
    assert!(!app
        .comments()
        .ranked_for_course(commented)
        .unwrap()
        .is_empty());

    // forum (seeded by the generator).
    assert!(!app.forum().unanswered().unwrap().is_empty());

    // incentives.
    assert_eq!(
        app.incentives()
            .award(
                1,
                courserank::services::incentives::PointEvent::DailyLogin,
                1
            )
            .unwrap(),
        1
    );

    // privacy.
    assert!(app.privacy().check_class_size(100).is_ok());

    // faculty tools: an instructor annotates + compares their course.
    let rs = app
        .db()
        .database()
        .query_sql("SELECT CourseID, InstructorID FROM Offerings LIMIT 1")
        .unwrap();
    let (fc, fi) = (
        rs.rows[0][0].as_int().unwrap(),
        rs.rows[0][1].as_int().unwrap(),
    );
    app.faculty()
        .annotate(900_001, fi, fc, "syllabus updated", None)
        .unwrap();
    assert_eq!(app.faculty().notes(fc).unwrap().len(), 1);
    let cmp = app.faculty().compare(fc).unwrap();
    assert!(cmp.num_comments >= 0);

    // strategy registry: admin defines, student selects personalized.
    use courserank::services::strategies::STUDENT_PLACEHOLDER;
    let template = cr_flexrecs::templates::user_cf(
        &cr_flexrecs::templates::SchemaMap::default(),
        STUDENT_PLACEHOLDER,
        10,
        10,
        1,
        false,
    );
    app.strategies()
        .define("cf-default", "ratings-similar students", &template)
        .unwrap();
    let personalized = app.strategies().select("cf-default", 1).unwrap();
    assert!(personalized.explain().contains("SuID = 1"));

    // volunteer textbook reporting (the §2.2 bookstore anecdote).
    use courserank::services::textbooks::ReportOutcome;
    let outcome = app
        .textbooks()
        .report(1, "Synthetic Methods, 3rd ed.", 2, 500)
        .unwrap();
    assert!(matches!(outcome, ReportOutcome::Accepted { .. }));
    assert_eq!(app.textbooks().for_course(1).unwrap().len(), 1);

    // The component inventory names all thirteen.
    assert_eq!(CourseRank::components().len(), 13);
}

#[test]
fn e11_course_page_renders_figure1_left() {
    let app = app();
    // A course with comments and an official distribution gives the full
    // Figure 1 descriptor page.
    let rs = app
        .db()
        .database()
        .query_sql(
            "SELECT c.CourseID FROM Comments c JOIN OfficialGradeDist o \
             ON c.CourseID = o.CourseID LIMIT 1",
        )
        .unwrap();
    let course = rs.rows[0][0].as_int().unwrap();
    let page = app.course_page(course).unwrap();
    assert!(page.contains("==="), "{page}");
    assert!(page.contains("average student rating"), "{page}");
    assert!(page.contains("grade distribution"), "{page}");
}

#[test]
fn e11_planner_grid_renders_figure1_right() {
    let app = app();
    let report = app.planner().report(1).unwrap();
    let grid = app.planner().render(&report).unwrap();
    assert!(grid.contains("Four-year plan"));
    assert!(grid.contains("cumulative GPA"));
    // Quarters render chronologically.
    let positions: Vec<usize> = report
        .quarters
        .iter()
        .map(|q| grid.find(&q.quarter.to_string()).unwrap())
        .collect();
    for w in positions.windows(2) {
        assert!(w[0] < w[1]);
    }
}

#[test]
fn constituency_isolation_is_enforced_at_the_facade() {
    let app = app();
    app.auth()
        .register(990_001, "prof", Role::Faculty, "A Professor")
        .unwrap();
    let faculty = app.auth().login("prof").unwrap();
    // Faculty cannot plan courses or define requirements.
    assert!(app
        .auth()
        .authorize(faculty.token, Capability::PlanCourses)
        .is_err());
    assert!(app
        .auth()
        .authorize(faculty.token, Capability::DefineRequirements)
        .is_err());
    // But can compare their own courses.
    assert!(app
        .auth()
        .authorize(faculty.token, Capability::CompareOwnCourses)
        .is_ok());
}
