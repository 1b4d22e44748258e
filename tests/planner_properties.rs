//! Property tests on the planner: whatever courses autoplace manages to
//! place, the resulting plan is always valid — no prerequisite violations,
//! no time conflicts, no overloaded quarters.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use courserank::db::{Course, CourseRankDb, EnrollStatus, Enrollment, Offering};
use courserank::model::{CourseId, Days, Quarter, Term};
use courserank::services::planner::{Planner, MAX_UNITS};
use proptest::prelude::*;

/// Build a campus from a compact random description: `n` courses, a
/// prerequisite edge i→j for selected pairs (j < i to stay acyclic), and
/// per-course offering slots.
#[allow(clippy::needless_range_loop)]
fn build_campus(
    n: usize,
    prereq_pairs: &[(usize, usize)],
    slots: &[(u8, u8)], // (term index 0..3, hour slot 0..6) per course
) -> CourseRankDb {
    let db = CourseRankDb::new();
    db.insert_department("CS", "CS", "Engineering").unwrap();
    let terms = [Term::Autumn, Term::Winter, Term::Spring];
    for i in 0..n {
        let id = i as CourseId + 1;
        db.insert_course(&Course {
            id,
            dep: "CS".into(),
            title: format!("Course {id}"),
            description: String::new(),
            units: 3 + (i as i64 % 3),
            url: String::new(),
        })
        .unwrap();
        let (term_i, hour) = slots[i];
        // Offer the course that term every year 2008-2011, plus Autumn as
        // a fallback so chains are schedulable.
        let mut oid = (i as i64) * 100;
        for year in 2008..=2011 {
            for term in [terms[term_i as usize % 3], Term::Autumn] {
                oid += 1;
                let start = 480 + 60 * hour as i64;
                let _ = db.insert_offering(&Offering {
                    id: oid,
                    course: id,
                    quarter: Quarter::new(year, term),
                    instructor: 1,
                    days: if i % 2 == 0 { Days::MWF } else { Days::TTH },
                    start_min: start,
                    end_min: start + 50,
                });
            }
        }
    }
    for &(a, b) in prereq_pairs {
        if a < n && b < a {
            let _ = db.insert_prerequisite(a as CourseId + 1, b as CourseId + 1);
        }
    }
    db.insert_student(&courserank::db::Student {
        id: 1,
        name: "P".into(),
        class: "2012".into(),
        major: Some("CS".into()),
        gpa: None,
        share_plans: true,
    })
    .unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn autoplaced_plans_are_always_valid(
        n in 3usize..10,
        edges in proptest::collection::vec((1usize..10, 0usize..9), 0..8),
        slots in proptest::collection::vec((0u8..3, 0u8..6), 10),
    ) {
        let db = build_campus(n, &edges, &slots);
        let planner = Planner::new(db.clone());
        let all: Vec<CourseId> = (1..=n as CourseId).collect();
        let (placed, _unplaced) = planner
            .autoplace(1, &all, Quarter::new(2008, Term::Autumn), 12)
            .unwrap();
        for e in &placed {
            db.insert_enrollment(e).unwrap();
        }
        let report = planner.report(1).unwrap();
        prop_assert!(
            report.prereq_violations.is_empty(),
            "violations: {:?}",
            report.prereq_violations
        );
        prop_assert!(report.conflicts.is_empty(), "conflicts: {:?}", report.conflicts);
        for q in &report.quarters {
            prop_assert!(q.units <= MAX_UNITS, "overloaded quarter {:?}", q);
        }
    }

    /// Conflict detection is symmetric and irreflexive.
    #[test]
    fn conflicts_are_symmetric(
        slots in proptest::collection::vec((0u8..3, 0u8..4), 6),
    ) {
        let db = build_campus(6, &[], &slots);
        let planner = Planner::new(db);
        let all: Vec<CourseId> = (1..=6).collect();
        let conflicts = planner
            .conflicts_in_quarter(Quarter::new(2008, Term::Autumn), &all)
            .unwrap();
        for c in &conflicts {
            prop_assert!(c.course_a < c.course_b, "normalized ordering: {c:?}");
            // Re-running with the pair reversed finds the same conflict.
            let again = planner
                .conflicts_in_quarter(Quarter::new(2008, Term::Autumn), &[c.course_b, c.course_a])
                .unwrap();
            prop_assert!(again.iter().any(|x| x.course_a == c.course_a && x.course_b == c.course_b));
        }
    }

    /// GPA is bounded by the grade scale and invariant to enrollment order.
    #[test]
    fn report_gpa_bounded(grades in proptest::collection::vec(0usize..12, 1..8)) {
        let db = build_campus(8, &[], &[(0,0),(1,1),(2,2),(0,3),(1,4),(2,5),(0,1),(1,2)]);
        use courserank::model::Grade;
        for (i, g) in grades.iter().enumerate() {
            let _ = db.insert_enrollment(&Enrollment {
                student: 1,
                course: (i % 8) as CourseId + 1,
                quarter: Quarter::new(2008 + (i / 8) as i32, Term::Autumn),
                grade: Some(Grade::LETTER_GRADES[*g]),
                status: EnrollStatus::Taken,
            });
        }
        let planner = Planner::new(db);
        let report = planner.report(1).unwrap();
        if let Some(gpa) = report.cumulative_gpa {
            prop_assert!((0.0..=4.3).contains(&gpa), "gpa {gpa}");
        }
    }
}
