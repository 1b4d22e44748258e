//! E6 — Table 1: "Comparing CourseRank to Social Sites to Classical
//! Systems".
//!
//! Table 1 is qualitative; its CourseRank column claims a specific
//! capability profile. These tests assert each claim *behaviourally*
//! against the built system:
//!
//! | Table 1 row (CourseRank column)      | Asserted by                      |
//! |--------------------------------------|----------------------------------|
//! | data: centrally stored               | one catalog owns every relation  |
//! | data: user contributed + official    | Comments + OfficialGradeDist     |
//! | data: both structured & unstructured | typed columns + free-text search |
//! | access: closed community             | unknown logins rejected          |
//! | users: authorized, real ids          | session carries directory id     |
//! | users: community-shaped interests    | majors skew enrollment           |

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use courserank::auth::Role;
use courserank::CourseRank;
use cr_datagen::ScaleConfig;

fn app() -> CourseRank {
    let (db, _) = cr_datagen::generate(&ScaleConfig::tiny()).unwrap();
    CourseRank::assemble(db).unwrap()
}

#[test]
fn data_centrally_stored() {
    let app = app();
    // Every relation of the system lives in one catalog.
    let names = app.db().catalog().table_names();
    assert!(names.len() >= 17, "{names:?}");
    for t in ["courses", "comments", "students", "officialgradedist"] {
        assert!(names.contains(&t.to_string()));
    }
}

#[test]
fn data_user_contributed_plus_official() {
    let app = app();
    // User-contributed: comments/ratings. Official: registrar grade
    // distributions. Both present and both queryable through the same
    // engine — the "hybrid system" property of §2.1.
    assert!(app.db().count("Comments").unwrap() > 0);
    assert!(app.db().count("OfficialGradeDist").unwrap() > 0);
    let joined = app
        .db()
        .database()
        .query_sql(
            "SELECT COUNT(*) AS n FROM Comments c \
             JOIN OfficialGradeDist o ON c.CourseID = o.CourseID",
        )
        .unwrap();
    assert!(joined.scalar().unwrap().as_int().unwrap() > 0);
}

#[test]
fn data_structured_and_unstructured() {
    let app = app();
    // Structured: SQL over typed columns.
    let rs = app
        .db()
        .database()
        .query_sql("SELECT AVG(Units) AS u FROM Courses")
        .unwrap();
    assert!(rs.scalar().unwrap().as_float().unwrap() > 0.0);
    // Unstructured: full-text search over the same entities.
    let (_, results) = app.search().search("history", 5).unwrap();
    assert!(results.total > 0);
}

#[test]
fn access_closed_community_authorized_real_ids() {
    let app = app();
    // Anyone not in the directory is rejected (vs. the open Web's
    // "anyone" and social sites' "fake and multiple ids").
    assert!(app.auth().login("anonymous_coward").is_err());
    // Directory users carry their real (registrar) id through the session.
    let session = app.auth().login("user1").unwrap();
    assert_eq!(session.user, 1);
    assert_eq!(session.role, Role::Student);
}

#[test]
fn three_constituencies_not_one_user_type() {
    // "In CourseRank, there are three very distinct types of users" — with
    // different capabilities, unlike single-user-type social sites.
    use courserank::auth::Capability::*;
    assert!(Role::Student.can(PlanCourses) && !Role::Faculty.can(PlanCourses));
    assert!(Role::Faculty.can(CompareOwnCourses) && !Role::Student.can(CompareOwnCourses));
    assert!(Role::Staff.can(DefineRequirements) && !Role::Student.can(DefineRequirements));
}

#[test]
fn community_shaped_interests() {
    let app = app();
    // Majors shape enrollment: a student's taken courses skew toward
    // their major department well beyond the uniform share.
    let rs = app
        .db()
        .database()
        .query_sql(
            "SELECT COUNT(*) AS n FROM Enrollments e \
             JOIN Students s ON e.SuID = s.SuID \
             JOIN Courses c ON e.CourseID = c.CourseID \
             WHERE s.Major = c.DepID",
        )
        .unwrap();
    let in_major = rs.scalar().unwrap().as_int().unwrap() as f64;
    let total = app.db().count("Enrollments").unwrap() as f64;
    let departments = app.db().count("Departments").unwrap() as f64;
    let uniform_share = 1.0 / departments;
    assert!(
        in_major / total > 1.5 * uniform_share,
        "in-major share {:.2} vs uniform {:.2}",
        in_major / total,
        uniform_share
    );
}

#[test]
fn research_lots_of_challenges_row() {
    // Table 1's last row is cheeky ("lots of challenges") — the honest
    // behavioural reading is that the system exposes the §3 research
    // features: data clouds and declarative recommendations.
    let app = app();
    let (_, results, cloud) = app.search().search_with_cloud("theory", None, 5).unwrap();
    assert!(results.total > 0);
    assert!(!cloud.terms.is_empty());
    let wf = app
        .recs()
        .course_workflow(1, &courserank::services::recs::RecOptions::default());
    assert!(wf.explain().contains("Recommend"));
}
