//! Faculty features (§2.2, "Interaction for Constituents").
//!
//! "We also offer special features for faculty members to enter
//! information on their courses, such as updates to the official course
//! description and pointers to other useful materials", and faculty "may
//! want to check comments on their courses and compare against other
//! courses" / "can see how their class compares to other classes".

use cr_relation::row::row;
use cr_relation::sql::text_literal;
use cr_relation::{RelError, RelResult, Value};

use crate::db::CourseRankDb;
use crate::model::CourseId;

/// How a course compares against its department and the whole catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct CourseComparison {
    pub course: CourseId,
    pub rating: Option<f64>,
    pub dept_avg_rating: Option<f64>,
    pub campus_avg_rating: Option<f64>,
    /// Percentile of this course's average rating within its department
    /// (0–100; None when unrated).
    pub dept_percentile: Option<f64>,
    pub num_ratings: i64,
    pub num_comments: i64,
}

/// A faculty note attached to a course.
#[derive(Debug, Clone, PartialEq)]
pub struct FacultyNote {
    pub id: i64,
    pub course: CourseId,
    pub instructor: i64,
    pub text: String,
    pub url: Option<String>,
}

/// The faculty service.
#[derive(Debug, Clone)]
pub struct Faculty {
    db: CourseRankDb,
}

impl Faculty {
    pub fn new(db: CourseRankDb) -> Self {
        Faculty { db }
    }

    /// The same service over another database handle (snapshot read views).
    pub(crate) fn rebind(&self, db: CourseRankDb) -> Self {
        Faculty { db }
    }

    /// True if `instructor` teaches (an offering of) `course` — the
    /// ownership check behind "their own courses".
    pub fn teaches(&self, instructor: i64, course: CourseId) -> RelResult<bool> {
        let rs = self.db.database().query_sql(&format!(
            "SELECT COUNT(*) AS n FROM Offerings \
             WHERE CourseID = {course} AND InstructorID = {instructor}"
        ))?;
        Ok(rs.scalar().and_then(|v| v.as_int().ok()).unwrap_or(0) > 0)
    }

    /// Attach a note ("updates to the official course description and
    /// pointers to other useful materials"). Only the course's instructor
    /// may annotate.
    pub fn annotate(
        &self,
        note_id: i64,
        instructor: i64,
        course: CourseId,
        text: &str,
        url: Option<&str>,
    ) -> RelResult<()> {
        if !self.teaches(instructor, course)? {
            return Err(RelError::Invalid(format!(
                "instructor {instructor} does not teach course {course}"
            )));
        }
        self.db
            .database()
            .insert(
                "FacultyNotes",
                row![
                    note_id,
                    course,
                    instructor,
                    text,
                    Value::from(url.map(str::to_owned))
                ],
            )
            .map(|_| ())
    }

    /// Notes on a course (shown on the course page under the official
    /// description).
    pub fn notes(&self, course: CourseId) -> RelResult<Vec<FacultyNote>> {
        let rs = self.db.database().query_sql(&format!(
            "SELECT NoteID, InstructorID, Text, Url FROM FacultyNotes \
             WHERE CourseID = {course} ORDER BY NoteID"
        ))?;
        Ok(rs
            .rows
            .iter()
            .map(|r| FacultyNote {
                id: r[0].as_int().unwrap_or(0),
                course,
                instructor: r[1].as_int().unwrap_or(0),
                text: r[2].as_text().unwrap_or("").to_owned(),
                url: r[3].as_text().ok().map(str::to_owned),
            })
            .collect())
    }

    /// "How does my class compare?" — rating vs department and campus
    /// averages, plus the department percentile.
    pub fn compare(&self, course: CourseId) -> RelResult<CourseComparison> {
        let dep = self
            .db
            .course(course)?
            .ok_or_else(|| RelError::Invalid(format!("no course {course}")))?
            .dep;

        let stats = self.db.database().query_sql(&format!(
            "SELECT AVG(Rating) AS r, COUNT(Rating) AS nr, COUNT(*) AS nc \
             FROM Comments WHERE CourseID = {course}"
        ))?;
        let row = &stats.rows[0];
        let rating = row[0].as_float().ok();
        let num_ratings = row[1].as_int().unwrap_or(0);
        let num_comments = row[2].as_int().unwrap_or(0);

        let dept_avgs = self.db.database().query_sql(&format!(
            "SELECT cm.CourseID, AVG(cm.Rating) AS r FROM Comments cm \
             JOIN Courses c ON cm.CourseID = c.CourseID \
             WHERE c.DepID = {} AND cm.Rating IS NOT NULL \
             GROUP BY cm.CourseID",
            text_literal(&dep)
        ))?;
        let mut dept_ratings: Vec<f64> = dept_avgs
            .rows
            .iter()
            .filter_map(|r| r[1].as_float().ok())
            .collect();
        dept_ratings.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let dept_avg_rating = if dept_ratings.is_empty() {
            None
        } else {
            Some(dept_ratings.iter().sum::<f64>() / dept_ratings.len() as f64)
        };
        let dept_percentile = match (rating, dept_ratings.len()) {
            (Some(r), n) if n > 0 => {
                let below = dept_ratings.iter().filter(|&&x| x < r).count();
                Some(100.0 * below as f64 / n as f64)
            }
            _ => None,
        };

        let campus = self
            .db
            .database()
            .query_sql("SELECT AVG(Rating) AS r FROM Comments")?;
        let campus_avg_rating = campus.rows[0][0].as_float().ok();

        Ok(CourseComparison {
            course,
            rating,
            dept_avg_rating,
            campus_avg_rating,
            dept_percentile,
            num_ratings,
            num_comments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::test_fixtures::small_campus;

    #[test]
    fn ownership_check() {
        let f = Faculty::new(small_campus());
        // Instructor 1 teaches the CS courses (fixture), 2 teaches HIST.
        assert!(f.teaches(1, 101).unwrap());
        assert!(!f.teaches(2, 101).unwrap());
    }

    #[test]
    fn annotate_requires_ownership() {
        let f = Faculty::new(small_campus());
        assert!(f.annotate(1, 2, 101, "see my lecture notes", None).is_err());
        f.annotate(1, 1, 101, "see my lecture notes", Some("https://x"))
            .unwrap();
        let notes = f.notes(101).unwrap();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].url.as_deref(), Some("https://x"));
        assert!(f.notes(102).unwrap().is_empty());
    }

    #[test]
    fn comparison_percentile() {
        let f = Faculty::new(small_campus());
        // CS dept: 101 avg = 4.0 (5,4,3); 202 is HIST. Only CS course with
        // ratings is 101 → percentile 0 (nothing below it), dept avg 4.0.
        let cmp = f.compare(101).unwrap();
        assert!((cmp.rating.unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(cmp.num_ratings, 3);
        assert_eq!(cmp.dept_percentile, Some(0.0));
        assert!((cmp.dept_avg_rating.unwrap() - 4.0).abs() < 1e-9);
        // Campus average over all 5 comments: (5+4+3+4.5+4)/5 = 4.1
        assert!((cmp.campus_avg_rating.unwrap() - 4.1).abs() < 1e-9);
    }

    #[test]
    fn comparison_unrated_course() {
        let f = Faculty::new(small_campus());
        let cmp = f.compare(103).unwrap();
        assert_eq!(cmp.rating, None);
        assert_eq!(cmp.num_ratings, 0);
        assert_eq!(cmp.dept_percentile, None);
    }

    #[test]
    fn unknown_course_errors() {
        let f = Faculty::new(small_campus());
        assert!(f.compare(99999).is_err());
    }
}
