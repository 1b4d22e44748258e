//! Grade distributions: self-reported vs. official.
//!
//! §2.2 ("It's the Data, Stupid"): "students have always known what the
//! 'easy courses' are, and now with CourseRank they were able to see the
//! distribution of the self-reported grades. […] we now display the
//! official distribution only for engineering courses. […] Incidentally,
//! the official Engineering grade distributions seem to be very close to
//! the corresponding self-reported ones, validating our claim that
//! students are entering valid data."
//!
//! Experiment E7 reproduces that comparison: [`total_variation`] between
//! the two distributions on synthetic data with a realistic self-report
//! bias stays small.

use std::collections::BTreeMap;

use cr_relation::RelResult;

use crate::db::CourseRankDb;
use crate::model::{CourseId, Grade};
use crate::services::privacy::{Privacy, Withheld};

/// The registrar's counts for one course and year: every course page
/// reads them, through the `official_by_course` index.
fn official_sql(course: CourseId, year: i32) -> String {
    format!(
        "SELECT Grade, Count FROM OfficialGradeDist WHERE CourseID = {course} AND Year = {year}"
    )
}

/// A grade distribution: counts per letter grade.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GradeDistribution {
    pub counts: BTreeMap<Grade, i64>,
}

impl GradeDistribution {
    pub fn total(&self) -> i64 {
        self.counts.values().sum()
    }

    /// Normalized probabilities over the letter grades (0 for absent).
    pub fn probabilities(&self) -> Vec<(Grade, f64)> {
        let total = self.total();
        Grade::LETTER_GRADES
            .iter()
            .map(|g| {
                let c = self.counts.get(g).copied().unwrap_or(0);
                (
                    *g,
                    if total == 0 {
                        0.0
                    } else {
                        c as f64 / total as f64
                    },
                )
            })
            .collect()
    }

    /// Mean grade points.
    pub fn mean_points(&self) -> Option<f64> {
        let mut points = 0.0;
        let mut n = 0i64;
        for (g, c) in &self.counts {
            if let Some(p) = g.points() {
                points += p * *c as f64;
                n += c;
            }
        }
        (n > 0).then(|| points / n as f64)
    }

    /// ASCII histogram (the Figure 1 grade chart, terminal edition).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let total = self.total().max(1);
        let mut out = String::new();
        for g in Grade::LETTER_GRADES {
            let c = self.counts.get(&g).copied().unwrap_or(0);
            if c == 0 {
                continue;
            }
            let bar = "#".repeat(((c * 40) / total).max(1) as usize);
            let _ = writeln!(out, "{:<2} {:>5} {}", g.letter(), c, bar);
        }
        out
    }
}

/// Total-variation distance between two distributions: ½ Σ |p − q|,
/// in [0, 1]. Small values mean the self-reported data matches official.
pub fn total_variation(a: &GradeDistribution, b: &GradeDistribution) -> f64 {
    let pa = a.probabilities();
    let pb = b.probabilities();
    0.5 * pa
        .iter()
        .zip(&pb)
        .map(|((_, p), (_, q))| (p - q).abs())
        .sum::<f64>()
}

/// The grades service. Every read path consults [`Privacy`].
#[derive(Debug, Clone)]
pub struct Grades {
    db: CourseRankDb,
    privacy: Privacy,
}

impl Grades {
    pub fn new(db: CourseRankDb, privacy: Privacy) -> Self {
        Grades { db, privacy }
    }

    /// The same service over another database handle (snapshot read
    /// views); the embedded privacy service is rebound too so its
    /// class-size checks read the same cut.
    pub(crate) fn rebind(&self, db: CourseRankDb) -> Self {
        Grades {
            privacy: self.privacy.rebind(db.clone()),
            db,
        }
    }

    /// Self-reported distribution from students' entered grades
    /// (taken enrollments with letter grades).
    pub fn self_reported(&self, course: CourseId) -> RelResult<GradeDistribution> {
        let rs = self.db.database().query_sql(&format!(
            "SELECT Grade, COUNT(*) AS n FROM Enrollments \
             WHERE CourseID = {course} AND Status = 'taken' AND Grade IS NOT NULL \
             GROUP BY Grade"
        ))?;
        let mut counts = BTreeMap::new();
        for r in &rs.rows {
            if let (Ok(g), Ok(n)) = (r[0].as_text(), r[1].as_int()) {
                if let Some(grade) = Grade::parse(g) {
                    *counts.entry(grade).or_insert(0) += n;
                }
            }
        }
        Ok(GradeDistribution { counts })
    }

    /// Official distribution for a course/year from the registrar data.
    pub fn official(&self, course: CourseId, year: i32) -> RelResult<GradeDistribution> {
        let rs = self.db.database().query_sql(&official_sql(course, year))?;
        let mut counts = BTreeMap::new();
        for r in &rs.rows {
            if let (Ok(g), Ok(n)) = (r[0].as_text(), r[1].as_int()) {
                if let Some(grade) = Grade::parse(g) {
                    *counts.entry(grade).or_insert(0) += n;
                }
            }
        }
        Ok(GradeDistribution { counts })
    }

    /// The distribution a student actually sees for a course: the official
    /// one when the school discloses it and the class is big enough,
    /// otherwise the self-reported one (if big enough), otherwise nothing.
    pub fn visible_distribution(
        &self,
        course: CourseId,
        year: i32,
    ) -> RelResult<Result<(GradeDistribution, &'static str), Withheld>> {
        if self.privacy.check_official_disclosure(course)?.is_ok() {
            let official = self.official(course, year)?;
            if official.total() > 0 {
                return Ok(match self.privacy.check_class_size(official.total()) {
                    Ok(()) => Ok((official, "official")),
                    Err(w) => Err(w),
                });
            }
        }
        let self_rep = self.self_reported(course)?;
        Ok(match self.privacy.check_class_size(self_rep.total()) {
            Ok(()) => Ok((self_rep, "self-reported")),
            Err(w) => Err(w),
        })
    }

    /// E7: compare self-reported vs official for a course. Returns
    /// (tv-distance, self_n, official_n).
    pub fn self_vs_official(
        &self,
        course: CourseId,
        year: i32,
    ) -> RelResult<Option<(f64, i64, i64)>> {
        let s = self.self_reported(course)?;
        let o = self.official(course, year)?;
        if s.total() == 0 || o.total() == 0 {
            return Ok(None);
        }
        Ok(Some((total_variation(&s, &o), s.total(), o.total())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::test_fixtures::small_campus;
    use crate::db::{EnrollStatus, Enrollment};
    use crate::model::{Quarter, Term};

    fn grades_over(db: CourseRankDb) -> Grades {
        Grades::new(db.clone(), Privacy::new(db))
    }

    fn grades() -> Grades {
        grades_over(small_campus())
    }

    /// Enter new students (ids from 1001), `n` per `(grade, n)`, each
    /// with that grade in `course`, taken in Autumn 2008.
    fn add_graded(db: &CourseRankDb, course: CourseId, graded: &[(Grade, usize)]) {
        let mut suid = 1000;
        for &(grade, n) in graded {
            for _ in 0..n {
                suid += 1;
                db.insert_student(&crate::db::Student {
                    id: suid,
                    name: format!("s{suid}"),
                    class: "2011".into(),
                    major: None,
                    gpa: None,
                    share_plans: true,
                })
                .unwrap();
                db.insert_enrollment(&Enrollment {
                    student: suid,
                    course,
                    quarter: Quarter::new(2008, Term::Autumn),
                    grade: Some(grade),
                    status: EnrollStatus::Taken,
                })
                .unwrap();
            }
        }
    }

    #[test]
    fn self_reported_counts() {
        let g = grades();
        let d = g.self_reported(101).unwrap();
        // Fixture: A (Sally), A- (Bob), B (Tim).
        assert_eq!(d.total(), 3);
        assert_eq!(d.counts[&Grade::A], 1);
        assert_eq!(d.counts[&Grade::AMinus], 1);
        assert_eq!(d.counts[&Grade::B], 1);
    }

    #[test]
    fn official_counts() {
        let g = grades();
        let d = g.official(101, 2008).unwrap();
        assert_eq!(d.total(), 80);
        assert_eq!(d.counts[&Grade::A], 40);
    }

    #[test]
    fn official_counts_are_fetched_through_the_course_index() {
        let g = grades();
        let (rs, profile) =
            g.db.database()
                .explain_analyze_sql(&official_sql(101, 2008))
                .unwrap();
        assert!(!rs.rows.is_empty());
        let scan = profile.find("Scan OfficialGradeDist").unwrap();
        assert!(
            scan.detail
                .iter()
                .any(|d| d.starts_with("access=IndexEq(official_by_course)")),
            "{}",
            profile.render()
        );
    }

    #[test]
    fn mean_points_and_probabilities() {
        let g = grades();
        let d = g.official(101, 2008).unwrap();
        // (40·4.0 + 30·3.0 + 10·2.0)/80 = 3.375
        assert!((d.mean_points().unwrap() - 3.375).abs() < 1e-9);
        let probs = d.probabilities();
        let pa = probs.iter().find(|(g, _)| *g == Grade::A).unwrap().1;
        assert!((pa - 0.5).abs() < 1e-9);
    }

    #[test]
    fn visible_prefers_official_for_disclosing_school() {
        let g = grades();
        let (d, source) = g.visible_distribution(101, 2008).unwrap().unwrap();
        assert_eq!(source, "official");
        assert_eq!(d.total(), 80);
    }

    #[test]
    fn visible_falls_back_to_self_reported() {
        let db = small_campus();
        // 201 is Humanities (no official disclosure); Ann graded it A,
        // and four more students make the class big enough to show.
        add_graded(&db, 201, &[(Grade::B, 4)]);
        let g = grades_over(db);
        let (d, source) = g.visible_distribution(201, 2008).unwrap().unwrap();
        assert_eq!(source, "self-reported");
        assert_eq!(d.total(), 5);
    }

    #[test]
    fn small_class_suppressed() {
        let g = grades();
        // 201 has one self-reported grade < 5.
        let r = g.visible_distribution(201, 2008).unwrap();
        assert!(matches!(r, Err(Withheld::ClassTooSmall { .. })));
    }

    #[test]
    fn total_variation_properties() {
        let mut a = GradeDistribution::default();
        a.counts.insert(Grade::A, 50);
        a.counts.insert(Grade::B, 50);
        assert_eq!(total_variation(&a, &a), 0.0);
        let mut b = GradeDistribution::default();
        b.counts.insert(Grade::C, 100);
        assert!((total_variation(&a, &b) - 1.0).abs() < 1e-9);
        // Symmetry.
        assert_eq!(total_variation(&a, &b), total_variation(&b, &a));
    }

    #[test]
    fn self_vs_official_close_when_reports_are_honest() {
        let db = small_campus();
        // Make the self-reported distribution mirror the official one:
        // enrollments proportional to the official counts (scaled down
        // 10×: 4 A, 3 B, 1 C).
        add_graded(&db, 103, &[(Grade::A, 4), (Grade::B, 3), (Grade::C, 1)]);
        for (grade, n) in [(Grade::A, 40), (Grade::B, 30), (Grade::C, 10)] {
            db.insert_official_grade(103, 2008, grade, n).unwrap();
        }
        let g = grades_over(db);
        let (tv, sn, on) = g.self_vs_official(103, 2008).unwrap().unwrap();
        assert_eq!(sn, 8);
        assert_eq!(on, 80);
        assert!(tv < 0.08, "tv = {tv}");
    }

    #[test]
    fn render_histogram() {
        let g = grades();
        let d = g.official(101, 2008).unwrap();
        let text = d.render();
        assert!(text.contains("A "));
        assert!(text.contains('#'));
    }
}
