//! The Q&A forum with seeding and question routing.
//!
//! §2.2: "Our Question and Answer forum has little traffic because there
//! are no incentives to visit […] we plan to seed the forum with
//! 'frequently asked questions' developed in conjunction with department
//! managers […] Questions will be automatically routed to people who are
//! likely to be able to answer them."
//!
//! Routing scores a candidate answerer by (a) topical fit — whether they
//! took the course the question is about, or courses in its department —
//! and (b) karma from the incentive ledger (proven helpfulness).
//! Experiment E9 measures routing accuracy on synthetic ground truth.

use std::sync::OnceLock;

use cr_relation::row::row;
use cr_relation::sql::text_literal;
use cr_relation::{RelResult, Value};

use crate::db::CourseRankDb;
use crate::model::{CourseId, StudentId};
use crate::obs::SvcMetrics;

fn metrics() -> &'static SvcMetrics {
    static M: OnceLock<SvcMetrics> = OnceLock::new();
    M.get_or_init(|| SvcMetrics::new("forum"))
}

/// A question as posted (or seeded).
#[derive(Debug, Clone, PartialEq)]
pub struct Question {
    pub id: i64,
    pub asker: Option<StudentId>,
    /// Course the question is about (if any).
    pub course: Option<CourseId>,
    /// Department the question is about (if any) — "what is a good
    /// introductory class in department X for non-majors?".
    pub dep: Option<String>,
    pub text: String,
    pub seeded: bool,
}

/// A routing candidate with a score.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedTo {
    pub student: StudentId,
    pub score: f64,
}

/// Routing weights.
#[derive(Debug, Clone, Copy)]
pub struct RoutingConfig {
    /// Weight for having taken the exact course.
    pub took_course: f64,
    /// Weight per course taken in the question's department (capped).
    pub dept_course: f64,
    /// Cap on department-course contributions.
    pub dept_cap: f64,
    /// Weight per karma point (from the Points ledger).
    pub karma: f64,
    /// How many candidates a question is routed to.
    pub fanout: usize,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig {
            took_course: 10.0,
            dept_course: 2.0,
            dept_cap: 8.0,
            karma: 0.1,
            fanout: 3,
        }
    }
}

/// The forum service.
#[derive(Debug, Clone)]
pub struct Forum {
    db: CourseRankDb,
    config: RoutingConfig,
}

impl Forum {
    pub fn new(db: CourseRankDb) -> Self {
        Forum {
            db,
            config: RoutingConfig::default(),
        }
    }

    /// The same service (same routing config) over another database
    /// handle (snapshot read views).
    pub(crate) fn rebind(&self, db: CourseRankDb) -> Self {
        Forum {
            db,
            config: self.config,
        }
    }

    pub fn with_config(mut self, config: RoutingConfig) -> Self {
        self.config = config;
        self
    }

    /// Post a question.
    pub fn ask(&self, q: &Question) -> RelResult<()> {
        metrics().observe(|| {
            self.db
                .database()
                .insert(
                    "Questions",
                    row![
                        q.id,
                        Value::from(q.asker),
                        Value::from(q.course),
                        Value::from(q.dep.clone()),
                        q.text.as_str(),
                        Value::Null,
                        q.seeded
                    ],
                )
                .map(|_| ())
        })
    }

    /// Seed the forum with department-manager FAQs (§2.2's plan). Returns
    /// the number of questions seeded.
    pub fn seed_faqs(&self, dep: &str, faqs: &[&str]) -> RelResult<usize> {
        let base = self.db.count("Questions")? + 1;
        for (i, text) in faqs.iter().enumerate() {
            self.ask(&Question {
                id: base + i as i64,
                asker: None,
                course: None,
                dep: Some(dep.to_owned()),
                text: (*text).to_owned(),
                seeded: true,
            })?;
        }
        Ok(faqs.len())
    }

    /// Answer a question.
    pub fn answer(
        &self,
        answer_id: i64,
        question: i64,
        student: StudentId,
        text: &str,
    ) -> RelResult<()> {
        metrics().observe(|| {
            self.db
                .database()
                .insert(
                    "Answers",
                    row![answer_id, question, student, text, Value::Null, false],
                )
                .map(|_| ())
        })
    }

    /// Mark an answer as best (asker's choice — feeds incentives).
    pub fn mark_best(&self, answer_id: i64) -> RelResult<()> {
        self.db.database().execute_sql(&format!(
            "UPDATE Answers SET Best = TRUE WHERE AnswerID = {answer_id}"
        ))?;
        Ok(())
    }

    /// Route a question to likely answerers.
    pub fn route(&self, q: &Question) -> RelResult<Vec<RoutedTo>> {
        metrics().observe(|| self.route_inner(q))
    }

    fn route_inner(&self, q: &Question) -> RelResult<Vec<RoutedTo>> {
        // Candidate pool: everyone with at least one taken enrollment.
        let rs = self
            .db
            .database()
            .query_sql("SELECT DISTINCT SuID FROM Enrollments WHERE Status = 'taken'")?;
        let mut out = Vec::new();
        for r in &rs.rows {
            let student = r[0].as_int()?;
            if q.asker == Some(student) {
                continue; // don't route to the asker
            }
            let mut score = 0.0;
            if let Some(course) = q.course {
                let took = self
                    .db
                    .database()
                    .query_sql(&format!(
                        "SELECT COUNT(*) AS n FROM Enrollments \
                         WHERE SuID = {student} AND CourseID = {course} AND Status = 'taken'"
                    ))?
                    .scalar()
                    .and_then(|v| v.as_int().ok())
                    .unwrap_or(0);
                if took > 0 {
                    score += self.config.took_course;
                }
            }
            let dep = match (&q.dep, q.course) {
                (Some(d), _) => Some(d.clone()),
                (None, Some(c)) => self.db.course(c)?.map(|c| c.dep),
                (None, None) => None,
            };
            if let Some(dep) = dep {
                let n = self
                    .db
                    .database()
                    .query_sql(&format!(
                        "SELECT COUNT(*) AS n FROM Enrollments e JOIN Courses c \
                         ON e.CourseID = c.CourseID \
                         WHERE e.SuID = {student} AND e.Status = 'taken' AND c.DepID = {}",
                        text_literal(&dep)
                    ))?
                    .scalar()
                    .and_then(|v| v.as_int().ok())
                    .unwrap_or(0);
                score += (n as f64 * self.config.dept_course).min(self.config.dept_cap);
            }
            let karma = self
                .db
                .database()
                .query_sql(&format!(
                    "SELECT COALESCE(SUM(Points), 0) AS p FROM Points WHERE UserID = {student}"
                ))?
                .scalar()
                .and_then(|v| v.as_float().ok())
                .unwrap_or(0.0);
            score += karma * self.config.karma;
            if score > 0.0 {
                out.push(RoutedTo { student, score });
            }
        }
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.student.cmp(&b.student))
        });
        out.truncate(self.config.fanout);
        Ok(out)
    }

    /// Unanswered questions (the seeding motivation: "if there are few
    /// questions or answers, why would people […] go looking?").
    pub fn unanswered(&self) -> RelResult<Vec<i64>> {
        let rs = self.db.database().query_sql(
            "SELECT q.QuestionID, COUNT(a.AnswerID) AS n FROM Questions q \
             LEFT JOIN Answers a ON q.QuestionID = a.QuestionID \
             GROUP BY q.QuestionID HAVING COUNT(a.AnswerID) = 0 ORDER BY q.QuestionID",
        )?;
        Ok(rs.rows.iter().filter_map(|r| r[0].as_int().ok()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::test_fixtures::small_campus;

    fn forum() -> Forum {
        Forum::new(small_campus())
    }

    #[test]
    fn ask_and_answer_roundtrip() {
        let f = forum();
        f.ask(&Question {
            id: 1,
            asker: Some(4),
            course: Some(101),
            dep: None,
            text: "is 101 ok without prior coding?".into(),
            seeded: false,
        })
        .unwrap();
        f.answer(1, 1, 444, "yes, it starts from zero").unwrap();
        f.mark_best(1).unwrap();
        assert!(f.unanswered().unwrap().is_empty());
    }

    /// A department id reaches the routing query as one text value: a
    /// quote neither breaks the statement nor widens the match.
    #[test]
    fn department_ids_route_as_text() {
        let f = forum();
        let route = |dep: &str| {
            f.route(&Question {
                id: 1,
                asker: None,
                course: None,
                dep: Some(dep.to_owned()),
                text: "who teaches this?".into(),
                seeded: false,
            })
        };
        assert!(route("O'Brien").is_ok());
        assert_eq!(
            route("NOPE' OR c.DepID <> '").unwrap(),
            route("NOPE").unwrap()
        );
    }

    #[test]
    fn seeding_adds_faqs() {
        let f = forum();
        let n = f
            .seed_faqs(
                "CS",
                &[
                    "who do I see to have my program approved?",
                    "what is a good introductory class in CS for non-majors?",
                ],
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(f.unanswered().unwrap().len(), 2);
    }

    #[test]
    fn routing_prefers_course_takers() {
        let f = forum();
        let q = Question {
            id: 10,
            asker: None,
            course: Some(101),
            dep: None,
            text: "how heavy is the workload?".into(),
            seeded: false,
        };
        let routed = f.route(&q).unwrap();
        assert!(!routed.is_empty());
        // 101 takers: Sally (444), Bob (2), Tim (4). Ann (3) never took it.
        let ids: Vec<i64> = routed.iter().map(|r| r.student).collect();
        assert!(ids.contains(&444));
        assert!(!ids.contains(&3), "{ids:?}");
    }

    #[test]
    fn routing_excludes_asker() {
        let f = forum();
        let q = Question {
            id: 11,
            asker: Some(444),
            course: Some(101),
            dep: None,
            text: "x".into(),
            seeded: false,
        };
        let routed = f.route(&q).unwrap();
        assert!(routed.iter().all(|r| r.student != 444));
    }

    #[test]
    fn department_questions_route_by_dept_experience() {
        let f = forum();
        let q = Question {
            id: 12,
            asker: None,
            course: None,
            dep: Some("HIST".into()),
            text: "good intro HIST class for non-majors?".into(),
            seeded: true,
        };
        let routed = f.route(&q).unwrap();
        // Ann (201) and Sally (202) took HIST courses.
        let ids: Vec<i64> = routed.iter().map(|r| r.student).collect();
        assert!(ids.contains(&3), "{ids:?}");
        assert!(ids.contains(&444), "{ids:?}");
        assert!(!ids.contains(&2), "Bob took no HIST: {ids:?}");
    }

    #[test]
    fn karma_breaks_ties() {
        let db = small_campus();
        // Give Bob karma.
        db.database()
            .execute_sql("INSERT INTO Points VALUES (1, 2, 'best_answer', 50, NULL)")
            .unwrap();
        let f = Forum::new(db);
        let q = Question {
            id: 13,
            asker: None,
            course: Some(101),
            dep: None,
            text: "x".into(),
            seeded: false,
        };
        let routed = f.route(&q).unwrap();
        // Sally/Bob/Tim all took 101 (score 10 + dept); Bob's karma wins.
        assert_eq!(routed[0].student, 2);
    }

    #[test]
    fn fanout_limits_candidates() {
        let f = Forum::new(small_campus()).with_config(RoutingConfig {
            fanout: 1,
            ..RoutingConfig::default()
        });
        let q = Question {
            id: 14,
            asker: None,
            course: Some(101),
            dep: None,
            text: "x".into(),
            seeded: false,
        };
        assert_eq!(f.route(&q).unwrap().len(), 1);
    }
}
