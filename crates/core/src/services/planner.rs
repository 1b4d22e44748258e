//! The Planner (Figure 1, right): quarterly schedules, time-conflict
//! detection, GPA computation, and the four-year plan.
//!
//! §2.1: "a tool for planning an academic program (Planner) that checks
//! for schedule conflicts and computes grade point averages". §2.2 calls
//! it "an extremely useful feature […] sticky": once a student enters
//! courses and grades they keep returning, and "since it shows to its
//! owner grade averages per quarter, and missing requirements for
//! graduation, there is little reason to lie about courses taken".

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use cr_relation::RelResult;

use crate::cache::VersionedCache;
use crate::db::{CourseRankDb, EnrollStatus, Enrollment, Offering};
use crate::model::{CourseId, Grade, Quarter, StudentId};
use crate::obs::SvcMetrics;

fn metrics() -> &'static SvcMetrics {
    static M: OnceLock<SvcMetrics> = OnceLock::new();
    M.get_or_init(|| SvcMetrics::new("planner"))
}

/// The lightest full-time quarter (Stanford: 12–20 units). A report
/// warns on a quarter below it.
pub const MIN_UNITS: i64 = 12;
/// The heaviest full-time quarter. A report warns on a quarter above it,
/// and autoplace fills no quarter past it.
pub const MAX_UNITS: i64 = 20;

/// Base tables a plan report reads (the student's enrollments, course
/// units/titles, offering schedules, and prerequisite edges).
const PLAN_DEPS: &[&str] = &["Enrollments", "Courses", "Offerings", "Prerequisites"];

/// A detected schedule conflict between two offerings in the same quarter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    pub quarter: Quarter,
    pub course_a: CourseId,
    pub course_b: CourseId,
}

/// A prerequisite violation: `course` is planned/taken before (or in the
/// same quarter as) its prerequisite `prereq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrereqViolation {
    pub course: CourseId,
    pub prereq: CourseId,
    /// Quarter the dependent course is scheduled in.
    pub quarter: Quarter,
}

/// Per-quarter summary in a plan report.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarterSummary {
    pub quarter: Quarter,
    pub courses: Vec<CourseId>,
    pub units: i64,
    /// GPA over graded courses of this quarter (None if no letter grades).
    pub gpa: Option<f64>,
}

/// The full plan report the planner page renders.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    pub student: StudentId,
    pub quarters: Vec<QuarterSummary>,
    pub cumulative_gpa: Option<f64>,
    pub total_units: i64,
    pub conflicts: Vec<Conflict>,
    pub prereq_violations: Vec<PrereqViolation>,
    /// Quarters whose unit load is outside [`MIN_UNITS`, `MAX_UNITS`].
    pub load_warnings: Vec<(Quarter, i64)>,
}

/// The planner service.
#[derive(Debug, Clone)]
pub struct Planner {
    db: CourseRankDb,
    /// Versioned cache of saved-plan reports; shared across clones.
    /// What-if reports ([`Planner::report_for`]) take arbitrary
    /// enrollment lists and bypass it.
    report_cache: Arc<VersionedCache<PlanReport>>,
}

impl Planner {
    pub fn new(db: CourseRankDb) -> Self {
        Planner {
            db,
            report_cache: Arc::new(VersionedCache::default()),
        }
    }

    /// The same service over another database handle (snapshot read
    /// views). The report cache is *shared*: its keys are table-version
    /// vectors, so an entry computed at a snapshot's versions is exactly
    /// what a live request at those versions would compute.
    pub(crate) fn rebind(&self, db: CourseRankDb) -> Self {
        Planner {
            db,
            report_cache: Arc::clone(&self.report_cache),
        }
    }

    /// Build the plan report for a student from their enrollments
    /// (taken + planned).
    pub fn report(&self, student: StudentId) -> RelResult<PlanReport> {
        metrics().observe(|| {
            let key = format!("plan|{student}");
            self.report_cache
                .get_or_compute(&self.db.catalog(), &key, PLAN_DEPS, || {
                    let enrollments = self.db.enrollments_of(student)?;
                    self.report_for_inner(student, &enrollments)
                })
        })
    }

    /// Build a report from an explicit enrollment list (what-if planning:
    /// the student drags a course into a quarter before saving).
    pub fn report_for(
        &self,
        student: StudentId,
        enrollments: &[Enrollment],
    ) -> RelResult<PlanReport> {
        metrics().observe(|| self.report_for_inner(student, enrollments))
    }

    fn report_for_inner(
        &self,
        student: StudentId,
        enrollments: &[Enrollment],
    ) -> RelResult<PlanReport> {
        // Group by quarter.
        let mut by_quarter: BTreeMap<Quarter, Vec<&Enrollment>> = BTreeMap::new();
        for e in enrollments {
            by_quarter.entry(e.quarter).or_default().push(e);
        }

        let mut quarters = Vec::with_capacity(by_quarter.len());
        let mut cumulative: Vec<(Grade, i64)> = Vec::new();
        let mut total_units = 0i64;
        let mut load_warnings = Vec::new();
        let mut conflicts = Vec::new();

        for (quarter, list) in &by_quarter {
            let mut units = 0i64;
            let mut graded: Vec<(Grade, i64)> = Vec::new();
            let mut courses = Vec::with_capacity(list.len());
            for e in list {
                let course_units = self.db.course(e.course)?.map(|c| c.units).unwrap_or(0);
                units += course_units;
                courses.push(e.course);
                if let Some(g) = e.grade {
                    graded.push((g, course_units));
                    cumulative.push((g, course_units));
                }
            }
            total_units += units;
            if !(MIN_UNITS..=MAX_UNITS).contains(&units) {
                load_warnings.push((*quarter, units));
            }
            conflicts.extend(self.conflicts_in_quarter(*quarter, &courses)?);
            quarters.push(QuarterSummary {
                quarter: *quarter,
                courses,
                units,
                gpa: Grade::gpa(&graded),
            });
        }

        let prereq_violations = self.prereq_violations(enrollments)?;
        Ok(PlanReport {
            student,
            quarters,
            cumulative_gpa: Grade::gpa(&cumulative),
            total_units,
            conflicts,
            prereq_violations,
            load_warnings,
        })
    }

    /// Time conflicts among the offerings of `courses` in `quarter`.
    /// Two offerings conflict when they share a weekday and their time
    /// intervals overlap.
    pub fn conflicts_in_quarter(
        &self,
        quarter: Quarter,
        courses: &[CourseId],
    ) -> RelResult<Vec<Conflict>> {
        let mut offerings: Vec<Offering> = Vec::new();
        for &c in courses {
            offerings.extend(
                self.db
                    .offerings_of(c)?
                    .into_iter()
                    .filter(|o| o.quarter == quarter),
            );
        }
        let mut out = Vec::new();
        for i in 0..offerings.len() {
            for j in i + 1..offerings.len() {
                let (a, b) = (&offerings[i], &offerings[j]);
                if a.course == b.course {
                    continue;
                }
                if a.days.overlaps(b.days) && a.start_min < b.end_min && b.start_min < a.end_min {
                    out.push(Conflict {
                        quarter,
                        course_a: a.course.min(b.course),
                        course_b: a.course.max(b.course),
                    });
                }
            }
        }
        out.sort_by_key(|c| (c.course_a, c.course_b));
        out.dedup();
        Ok(out)
    }

    /// Prerequisite-order validation across the whole plan: every
    /// prerequisite of a scheduled course must be completed in an earlier
    /// quarter.
    pub fn prereq_violations(&self, enrollments: &[Enrollment]) -> RelResult<Vec<PrereqViolation>> {
        let mut scheduled: HashMap<CourseId, Quarter> = HashMap::new();
        for e in enrollments {
            let q = scheduled.entry(e.course).or_insert(e.quarter);
            if e.quarter < *q {
                *q = e.quarter;
            }
        }
        let mut out = Vec::new();
        for (&course, &quarter) in &scheduled {
            for prereq in self.db.prerequisites_of(course)? {
                match scheduled.get(&prereq) {
                    Some(pq) if *pq < quarter => {}
                    _ => out.push(PrereqViolation {
                        course,
                        prereq,
                        quarter,
                    }),
                }
            }
        }
        out.sort_by_key(|v| (v.course, v.prereq));
        Ok(out)
    }

    /// Greedy four-year plan completion: given the student's existing
    /// enrollments and a list of must-take courses, place each remaining
    /// course into the earliest quarter (from `start`, spanning
    /// `num_quarters`) where (a) its prerequisites are already placed
    /// earlier, (b) the unit load stays within limits, and (c) no time
    /// conflict arises with courses already placed in that quarter.
    /// Returns the additional enrollments. Courses that cannot be placed
    /// are reported in the second element.
    pub fn autoplace(
        &self,
        student: StudentId,
        must_take: &[CourseId],
        start: Quarter,
        num_quarters: usize,
    ) -> RelResult<(Vec<Enrollment>, Vec<CourseId>)> {
        let existing = self.db.enrollments_of(student)?;
        let mut placed: HashMap<CourseId, Quarter> =
            existing.iter().map(|e| (e.course, e.quarter)).collect();
        let mut per_quarter_units: HashMap<Quarter, i64> = HashMap::new();
        let mut per_quarter_courses: HashMap<Quarter, Vec<CourseId>> = HashMap::new();
        for e in &existing {
            let u = self.db.course(e.course)?.map(|c| c.units).unwrap_or(0);
            *per_quarter_units.entry(e.quarter).or_insert(0) += u;
            per_quarter_courses
                .entry(e.quarter)
                .or_default()
                .push(e.course);
        }

        // The candidate quarters, chronological.
        let mut quarters = Vec::with_capacity(num_quarters);
        let mut q = start;
        for _ in 0..num_quarters {
            quarters.push(q);
            q = q.next();
        }

        let todo: Vec<CourseId> = must_take
            .iter()
            .copied()
            .filter(|c| !placed.contains_key(c))
            .collect();
        let mut new_enrollments = Vec::new();
        let mut unplaced = Vec::new();
        // Iterate until fixpoint so that chains (101 → 102 → 103) place in
        // successive rounds independent of input order.
        let mut remaining: Vec<CourseId> = todo;
        loop {
            let mut progressed = false;
            let mut still_remaining = Vec::new();
            for course in remaining {
                let units = self.db.course(course)?.map(|c| c.units).unwrap_or(0);
                let prereqs = self.db.prerequisites_of(course)?;
                let mut placed_at = None;
                for &quarter in &quarters {
                    // (a) prereqs placed strictly earlier
                    if !prereqs
                        .iter()
                        .all(|p| placed.get(p).is_some_and(|pq| *pq < quarter))
                    {
                        continue;
                    }
                    // (b) load
                    let load = per_quarter_units.get(&quarter).copied().unwrap_or(0);
                    if load + units > MAX_UNITS {
                        continue;
                    }
                    // (c) offered this quarter, without conflicts
                    let offered = self
                        .db
                        .offerings_of(course)?
                        .iter()
                        .any(|o| o.quarter == quarter);
                    if !offered {
                        continue;
                    }
                    let mut probe = per_quarter_courses
                        .get(&quarter)
                        .cloned()
                        .unwrap_or_default();
                    probe.push(course);
                    if !self.conflicts_in_quarter(quarter, &probe)?.is_empty() {
                        continue;
                    }
                    placed_at = Some(quarter);
                    break;
                }
                match placed_at {
                    Some(quarter) => {
                        placed.insert(course, quarter);
                        *per_quarter_units.entry(quarter).or_insert(0) += units;
                        per_quarter_courses.entry(quarter).or_default().push(course);
                        new_enrollments.push(Enrollment {
                            student,
                            course,
                            quarter,
                            grade: None,
                            status: EnrollStatus::Planned,
                        });
                        progressed = true;
                    }
                    None => still_remaining.push(course),
                }
            }
            if still_remaining.is_empty() {
                break;
            }
            if !progressed {
                unplaced = still_remaining;
                break;
            }
            remaining = still_remaining;
        }
        new_enrollments.sort_by_key(|e| (e.quarter, e.course));
        Ok((new_enrollments, unplaced))
    }

    /// Render a plan as the terminal version of the Figure 1 planner grid.
    pub fn render(&self, report: &PlanReport) -> RelResult<String> {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "Four-year plan for student {}", report.student);
        for q in &report.quarters {
            let gpa = q
                .gpa
                .map(|g| format!("{g:.2}"))
                .unwrap_or_else(|| "—".into());
            let _ = writeln!(out, "  {} ({} units, GPA {gpa})", q.quarter, q.units);
            for &c in &q.courses {
                let title = self
                    .db
                    .course(c)?
                    .map(|c| c.title)
                    .unwrap_or_else(|| "?".into());
                let _ = writeln!(out, "    [{c}] {title}");
            }
        }
        let cum = report
            .cumulative_gpa
            .map(|g| format!("{g:.2}"))
            .unwrap_or_else(|| "—".into());
        let _ = writeln!(
            out,
            "  cumulative GPA {cum}, total units {}",
            report.total_units
        );
        for c in &report.conflicts {
            let _ = writeln!(
                out,
                "  ⚠ conflict in {}: {} × {}",
                c.quarter, c.course_a, c.course_b
            );
        }
        for v in &report.prereq_violations {
            let _ = writeln!(
                out,
                "  ⚠ {} scheduled {} without prerequisite {}",
                v.course, v.quarter, v.prereq
            );
        }
        Ok(out)
    }

    /// Distinct courses already taken (for requirement audits / recs).
    pub fn courses_taken(&self, student: StudentId) -> RelResult<HashSet<CourseId>> {
        Ok(self
            .db
            .enrollments_of(student)?
            .into_iter()
            .filter(|e| e.status == EnrollStatus::Taken)
            .map(|e| e.course)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::test_fixtures::small_campus;
    use crate::model::Term;

    fn planner() -> Planner {
        Planner::new(small_campus())
    }

    #[test]
    fn report_groups_by_quarter_chronologically() {
        let p = planner();
        let r = p.report(444).unwrap();
        assert_eq!(r.quarters.len(), 2);
        assert_eq!(r.quarters[0].quarter, Quarter::new(2008, Term::Autumn));
        assert_eq!(r.quarters[1].quarter, Quarter::new(2009, Term::Winter));
        // Autumn 2008: 101 (5u, A) + 202 (3u, B+) → GPA (20 + 9.9)/8
        let aut = &r.quarters[0];
        assert_eq!(aut.units, 8);
        assert!((aut.gpa.unwrap() - (4.0 * 5.0 + 3.3 * 3.0) / 8.0).abs() < 1e-9);
        // Planned course contributes units but no grade.
        assert_eq!(r.quarters[1].gpa, None);
        assert_eq!(r.total_units, 13);
    }

    #[test]
    fn cumulative_gpa_spans_quarters() {
        let p = planner();
        let r = p.report(444).unwrap();
        let expected = (4.0 * 5.0 + 3.3 * 3.0) / 8.0;
        assert!((r.cumulative_gpa.unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn detects_time_conflicts() {
        let p = planner();
        // 101 (MWF 540-650) and 201 (MWF 560-670) overlap in Aut 2008.
        let conflicts = p
            .conflicts_in_quarter(Quarter::new(2008, Term::Autumn), &[101, 201, 202])
            .unwrap();
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].course_a, 101);
        assert_eq!(conflicts[0].course_b, 201);
        // 202 is TTh — no conflict with MWF courses.
    }

    #[test]
    fn no_conflict_when_days_disjoint() {
        let p = planner();
        let conflicts = p
            .conflicts_in_quarter(Quarter::new(2008, Term::Autumn), &[101, 202])
            .unwrap();
        assert!(conflicts.is_empty());
    }

    #[test]
    fn prereq_order_enforced() {
        let p = planner();
        // Sally took 101 in Aut 2008, plans 102 in Win 2009: OK.
        let r = p.report(444).unwrap();
        assert!(r.prereq_violations.is_empty());

        // A plan taking 103 (requires 102) in the same quarter as 102 is a
        // violation (same-quarter is not "before").
        let bad = vec![
            Enrollment {
                student: 9,
                course: 102,
                quarter: Quarter::new(2009, Term::Winter),
                grade: None,
                status: EnrollStatus::Planned,
            },
            Enrollment {
                student: 9,
                course: 103,
                quarter: Quarter::new(2009, Term::Winter),
                grade: None,
                status: EnrollStatus::Planned,
            },
        ];
        let v = p.prereq_violations(&bad).unwrap();
        // 102 requires 101 (absent) and 103 requires 102 (same quarter).
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|x| x.course == 103 && x.prereq == 102));
        assert!(v.iter().any(|x| x.course == 102 && x.prereq == 101));
    }

    #[test]
    fn load_warnings_flag_light_and_heavy_quarters() {
        let p = planner();
        let r = p.report(444).unwrap();
        // Both of Sally's quarters are under 12 units.
        assert_eq!(r.load_warnings.len(), 2);
    }

    #[test]
    fn autoplace_respects_prereq_chain() {
        let p = Planner::new(small_campus());
        // Tim has taken 101 only; ask for 102 then 103 (chain).
        let (placed, unplaced) = p
            .autoplace(4, &[103, 102], Quarter::new(2009, Term::Winter), 6)
            .unwrap();
        assert!(unplaced.is_empty(), "unplaced: {unplaced:?}");
        assert_eq!(placed.len(), 2);
        let q102 = placed.iter().find(|e| e.course == 102).unwrap().quarter;
        let q103 = placed.iter().find(|e| e.course == 103).unwrap().quarter;
        assert!(q102 < q103, "{q102:?} must precede {q103:?}");
    }

    #[test]
    fn autoplace_reports_impossible_courses() {
        let db = small_campus();
        let p = Planner::new(db);
        // Course 999 doesn't exist / has no offerings.
        let (placed, unplaced) = p
            .autoplace(4, &[999], Quarter::new(2009, Term::Winter), 4)
            .unwrap();
        assert!(placed.is_empty());
        assert_eq!(unplaced, vec![999]);
    }

    #[test]
    fn render_plan_text() {
        let p = planner();
        let r = p.report(444).unwrap();
        let text = p.render(&r).unwrap();
        assert!(text.contains("Aut 2008"));
        assert!(text.contains("Introduction to Programming"));
        assert!(text.contains("cumulative GPA"));
    }

    #[test]
    fn courses_taken_excludes_planned() {
        let p = planner();
        let taken = p.courses_taken(444).unwrap();
        assert!(taken.contains(&101));
        assert!(!taken.contains(&102)); // planned only
    }
}
