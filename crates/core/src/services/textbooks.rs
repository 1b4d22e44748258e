//! Volunteer textbook reporting.
//!
//! §2.2 ("It's the Data, Stupid"): "our own Stanford Bookstore did not want
//! to release the list of textbooks associated with each class […] Instead
//! we had to implement a system for volunteers to report textbooks to
//! CourseRank, which is working very well."
//!
//! Volunteers report a textbook for a course; duplicate titles for the same
//! course are merged into confirmations rather than inserted twice; each
//! accepted report earns incentive points (with the usual daily caps).

use cr_relation::sql::text_literal;
use cr_relation::{RelResult, Value};

use crate::db::CourseRankDb;
use crate::model::{CourseId, StudentId};
use crate::services::incentives::{Incentives, PointEvent};

/// A textbook listing with its confirmation count.
#[derive(Debug, Clone, PartialEq)]
pub struct TextbookListing {
    pub id: i64,
    pub course: CourseId,
    pub title: String,
    pub first_reporter: Option<StudentId>,
    pub confirmations: i64,
}

/// Outcome of a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportOutcome {
    /// New textbook accepted; points granted (0 if capped).
    Accepted { points: i64 },
    /// Same title already listed for this course; counted as a
    /// confirmation, no points (anti-gaming: re-reports are free).
    Confirmed,
}

/// The textbook-reporting service.
#[derive(Debug, Clone)]
pub struct Textbooks {
    db: CourseRankDb,
    incentives: Incentives,
}

impl Textbooks {
    /// Create the service sharing an existing incentives ledger (entry-id
    /// allocation must be shared process-wide — see [`Incentives`]).
    pub fn new(db: CourseRankDb, incentives: Incentives) -> Self {
        Textbooks { db, incentives }
    }

    /// Standalone construction for tests/tools that own the only ledger.
    pub fn standalone(db: CourseRankDb) -> Self {
        let incentives = Incentives::new(db.clone());
        Textbooks { db, incentives }
    }

    /// The same service over another database handle (snapshot read
    /// views); the embedded incentives ledger keeps its shared entry-id
    /// allocator.
    pub(crate) fn rebind(&self, db: CourseRankDb) -> Self {
        Textbooks {
            incentives: self.incentives.rebind(db.clone()),
            db,
        }
    }

    /// Report a textbook for a course on `day` (days since epoch, for the
    /// incentive cap).
    pub fn report(
        &self,
        course: CourseId,
        title: &str,
        reporter: StudentId,
        day: i32,
    ) -> RelResult<ReportOutcome> {
        let normalized = title.trim();
        // Same title (case-insensitive) already listed?
        let existing = self.db.database().query_sql(&format!(
            "SELECT TextbookID FROM Textbooks \
             WHERE CourseID = {course} AND LOWER(Title) = LOWER({})",
            text_literal(normalized)
        ))?;
        if let Some(row) = existing.rows.first() {
            let id = row[0].as_int()?;
            self.confirm(id, reporter)?;
            return Ok(ReportOutcome::Confirmed);
        }
        let next_id = self.next_id()?;
        self.db
            .insert_textbook(next_id, course, normalized, Some(reporter))?;
        let points = self
            .incentives
            .award(reporter, PointEvent::ReportedTextbook, day)?;
        Ok(ReportOutcome::Accepted { points })
    }

    fn next_id(&self) -> RelResult<i64> {
        let rs = self
            .db
            .database()
            .query_sql("SELECT COALESCE(MAX(TextbookID), 0) AS m FROM Textbooks")?;
        Ok(rs.scalar().and_then(|v| v.as_int().ok()).unwrap_or(0) + 1)
    }

    fn confirm(&self, textbook: i64, reporter: StudentId) -> RelResult<()> {
        // Confirmations ride on CommentVotes semantics: one per reporter.
        // We store them as votes keyed by a synthetic comment id space
        // (negative ids) to avoid a new relation.
        let key = -textbook;
        self.db.database().execute_sql(&format!(
            "DELETE FROM CommentVotes WHERE CommentID = {key} AND VoterID = {reporter}"
        ))?;
        self.db
            .database()
            .insert("CommentVotes", cr_relation::row::row![key, reporter, true])
            .map(|_| ())
    }

    /// Textbooks listed for a course, most-confirmed first.
    pub fn for_course(&self, course: CourseId) -> RelResult<Vec<TextbookListing>> {
        let rs = self.db.database().query_sql(&format!(
            "SELECT TextbookID, Title, ReportedBy FROM Textbooks WHERE CourseID = {course}"
        ))?;
        let mut out = Vec::with_capacity(rs.rows.len());
        for r in &rs.rows {
            let id = r[0].as_int()?;
            let confirmations = self
                .db
                .database()
                .query_sql(&format!(
                    "SELECT COUNT(*) AS n FROM CommentVotes WHERE CommentID = {}",
                    -id
                ))?
                .scalar()
                .and_then(|v| v.as_int().ok())
                .unwrap_or(0);
            out.push(TextbookListing {
                id,
                course,
                title: r[1].as_text().unwrap_or("").to_owned(),
                first_reporter: match &r[2] {
                    Value::Int(s) => Some(*s),
                    _ => None,
                },
                confirmations,
            });
        }
        out.sort_by(|a, b| {
            b.confirmations
                .cmp(&a.confirmations)
                .then_with(|| a.id.cmp(&b.id))
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::test_fixtures::small_campus;

    fn service() -> Textbooks {
        Textbooks::standalone(small_campus())
    }

    #[test]
    fn first_report_accepted_with_points() {
        let t = service();
        let outcome = t.report(103, "Operating System Concepts", 444, 10).unwrap();
        assert_eq!(outcome, ReportOutcome::Accepted { points: 3 });
        let listed = t.for_course(103).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].title, "Operating System Concepts");
        assert_eq!(listed[0].first_reporter, Some(444));
    }

    #[test]
    fn duplicate_title_becomes_confirmation() {
        let t = service();
        t.report(103, "Operating System Concepts", 444, 10).unwrap();
        let outcome = t
            .report(103, "  operating system concepts ", 2, 10)
            .unwrap();
        assert_eq!(outcome, ReportOutcome::Confirmed);
        let listed = t.for_course(103).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].confirmations, 1);
        // Re-confirming by the same reporter doesn't double-count.
        t.report(103, "Operating System Concepts", 2, 11).unwrap();
        assert_eq!(t.for_course(103).unwrap()[0].confirmations, 1);
    }

    #[test]
    fn confirmations_drive_ranking() {
        let t = service();
        t.report(101, "The Art of Computer Programming", 444, 1)
            .unwrap();
        t.report(101, "Learning Java", 2, 1).unwrap();
        for voter in [3, 4, 5] {
            t.report(101, "learning java", voter, 2).unwrap();
        }
        let listed = t.for_course(101).unwrap();
        assert_eq!(listed[0].title, "Learning Java");
        assert_eq!(listed[0].confirmations, 3);
    }

    #[test]
    fn reporting_spam_capped_by_incentives() {
        let t = service();
        let mut points = 0;
        for i in 0..10 {
            if let ReportOutcome::Accepted { points: p } =
                t.report(101, &format!("Book {i}"), 7, 100).unwrap()
            {
                points += p;
            }
        }
        // Daily cap: 5 rewarded reports × 3 points.
        assert_eq!(points, 15);
        // All ten listings still exist (data is welcome, points are not).
        assert_eq!(t.for_course(101).unwrap().len(), 10);
    }

    #[test]
    fn distinct_courses_distinct_listings() {
        let t = service();
        t.report(101, "Same Book", 444, 1).unwrap();
        let outcome = t.report(102, "Same Book", 444, 1).unwrap();
        assert!(matches!(outcome, ReportOutcome::Accepted { .. }));
        assert_eq!(t.for_course(101).unwrap().len(), 1);
        assert_eq!(t.for_course(102).unwrap().len(), 1);
    }
}
