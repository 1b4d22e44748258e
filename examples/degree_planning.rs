//! The Planner and Requirement Tracker (Figure 1, right panel): build a
//! four-year plan with conflict detection, GPA computation, prerequisite
//! ordering, automatic placement, and a program audit.
//!
//! ```sh
//! cargo run --example degree_planning
//! ```

use courserank::db::{Course, CourseRankDb, EnrollStatus, Enrollment, Offering, Student};
use courserank::model::{Days, Grade, Quarter, Term};
use courserank::services::planner::Planner;
use courserank::services::requirements::{Requirement, RequirementTracker};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = CourseRankDb::new();
    db.insert_department("CS", "Computer Science", "Engineering")?;

    // A small CS core with a prerequisite chain and real meeting times.
    let courses = [
        (101, "Programming Methodology", 5, "MWF", 540, 590),
        (102, "Programming Abstractions", 5, "MWF", 600, 650),
        (103, "Computer Organization", 5, "TTh", 540, 650),
        (110, "Operating Systems Principles", 4, "MWF", 560, 640), // overlaps 101/102 windows
        (161, "Algorithms", 4, "TTh", 660, 770),
        (221, "Artificial Intelligence", 4, "MWF", 660, 710),
    ];
    let mut oid = 0;
    for (id, title, units, days, start, end) in courses {
        db.insert_course(&Course {
            id,
            dep: "CS".into(),
            title: title.into(),
            description: String::new(),
            units,
            url: String::new(),
        })?;
        // Offer every course every quarter of 2008–2010 at fixed times.
        for year in 2008..=2010 {
            for term in [Term::Autumn, Term::Winter, Term::Spring] {
                oid += 1;
                db.insert_offering(&Offering {
                    id: oid,
                    course: id,
                    quarter: Quarter::new(year, term),
                    instructor: 1,
                    days: Days::parse(days),
                    start_min: start,
                    end_min: end,
                })?;
            }
        }
    }
    db.insert_prerequisite(102, 101)?;
    db.insert_prerequisite(103, 102)?;
    db.insert_prerequisite(110, 103)?;
    db.insert_prerequisite(161, 102)?;
    db.insert_prerequisite(221, 161)?;

    db.insert_student(&Student {
        id: 7,
        name: "Filip".into(),
        class: "2012".into(),
        major: Some("CS".into()),
        gpa: None,
        share_plans: true,
    })?;
    // Already taken: 101 with an A-.
    db.insert_enrollment(&Enrollment {
        student: 7,
        course: 101,
        quarter: Quarter::new(2008, Term::Autumn),
        grade: Some(Grade::AMinus),
        status: EnrollStatus::Taken,
    })?;

    let planner = Planner::new(db.clone());

    // Autoplace the rest of the core, respecting the prerequisite chain,
    // unit loads, offerings, and time conflicts.
    println!("== automatic four-year planning ==\n");
    let (placed, unplaced) = planner.autoplace(
        7,
        &[221, 161, 110, 103, 102],
        Quarter::new(2009, Term::Winter),
        9,
    )?;
    for e in &placed {
        db.insert_enrollment(e)?;
    }
    println!(
        "placed {} courses automatically; {} impossible: {:?}\n",
        placed.len(),
        unplaced.len(),
        unplaced
    );

    let report = planner.report(7)?;
    println!("{}", planner.render(&report)?);

    // What-if: cram 110 into the same quarter as 103 → violations appear.
    println!("== what-if: schedule CS110 alongside its prerequisite ==\n");
    let mut what_if = db.enrollments_of(7)?;
    // Move 110 into 103's quarter.
    let q103 = what_if
        .iter()
        .find(|e| e.course == 103)
        .map(|e| e.quarter)
        .ok_or("103 not planned")?;
    for e in &mut what_if {
        if e.course == 110 {
            e.quarter = q103;
        }
    }
    let report = planner.report_for(7, &what_if)?;
    for v in &report.prereq_violations {
        println!(
            "  ⚠ CS{} in {} needs CS{} strictly earlier",
            v.course, v.quarter, v.prereq
        );
    }
    for c in &report.conflicts {
        println!(
            "  ⚠ time conflict in {}: CS{} × CS{}",
            c.quarter, c.course_a, c.course_b
        );
    }

    // Requirement tracking.
    println!("\n== requirement tracker ==\n");
    let tracker = RequirementTracker::new(db);
    tracker.define_program(
        1,
        "CS",
        "BS Computer Science (core)",
        &Requirement::AllOf(vec![
            Requirement::Course(101),
            Requirement::Course(102),
            Requirement::AnyOf(vec![Requirement::Course(110), Requirement::Course(103)]),
            Requirement::CountFrom {
                n: 1,
                from: vec![161, 221],
            },
            Requirement::UnitsInDept {
                units: 18,
                dep: "CS".into(),
            },
        ]),
    )?;
    let audit = tracker.audit(1, 7)?;
    println!("{}", RequirementTracker::render(&audit));
    println!(
        "(planned courses don't count until taken — overall met: {})",
        audit.met
    );
    Ok(())
}
