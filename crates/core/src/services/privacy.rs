//! Privacy policy.
//!
//! §2.2, "Privacy can be 'shared'":
//!
//! * plan visibility — "we allowed students to see who is planning to take
//!   a class (one can opt out of sharing)";
//! * small-class suppression — "we do not show distributions for classes
//!   with very few students, since that may disclose information about
//!   individual students";
//! * grade-distribution disclosure is negotiated per school — "we now
//!   display the official distribution only for engineering courses".

use cr_relation::plan::flow::{self, GateDecision, Principal};
use cr_relation::RelResult;

use crate::auth::Role;
use crate::db::CourseRankDb;
use crate::model::{CourseId, StudentId, UserId};

/// The one school that agreed to official-distribution disclosure (the
/// paper: "we now display the official distribution only for engineering
/// courses").
const OFFICIAL_DISCLOSURE_SCHOOL: &str = "Engineering";

/// Why a piece of data is being withheld.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Withheld {
    /// The class is too small for a distribution.
    ClassTooSmall { size: i64, threshold: i64 },
    /// The course's school has not agreed to official disclosure.
    SchoolNotDisclosing { school: String },
    /// The student opted out of plan sharing.
    OptedOut,
    /// The viewer's role may not see this.
    RoleForbidden,
}

/// The privacy service.
#[derive(Debug, Clone)]
pub struct Privacy {
    db: CourseRankDb,
}

impl Privacy {
    pub fn new(db: CourseRankDb) -> Self {
        Privacy { db }
    }

    /// The same service over another database handle (snapshot read
    /// views).
    pub(crate) fn rebind(&self, db: CourseRankDb) -> Self {
        Privacy { db }
    }

    /// May a distribution over `n` students be shown at all? The
    /// threshold is the flow analysis's [`flow::K`], so this runtime check
    /// and the static disclosure analysis (`cr_relation::plan::flow`)
    /// enforce the same number by construction.
    pub fn check_class_size(&self, n: i64) -> Result<(), Withheld> {
        if n < flow::K {
            Err(Withheld::ClassTooSmall {
                size: n,
                threshold: flow::K,
            })
        } else {
            Ok(())
        }
    }

    /// May the *official* distribution for this course be shown? Requires
    /// the course's school to have opted in (the Engineering anecdote).
    pub fn check_official_disclosure(&self, course: CourseId) -> RelResult<Result<(), Withheld>> {
        let school = self.school_of(course)?;
        Ok(if school == OFFICIAL_DISCLOSURE_SCHOOL {
            Ok(())
        } else {
            Err(Withheld::SchoolNotDisclosing { school })
        })
    }

    fn school_of(&self, course: CourseId) -> RelResult<String> {
        let rs = self.db.database().query_sql(&format!(
            "SELECT d.School FROM Courses c JOIN Departments d ON c.DepID = d.DepID \
             WHERE c.CourseID = {course}"
        ))?;
        Ok(rs
            .rows
            .first()
            .and_then(|r| r[0].as_text().ok())
            .unwrap_or("")
            .to_owned())
    }

    /// May `viewer` see `owner`'s course plans? Owners always see their
    /// own; students see each other's *if* the owner shares; staff
    /// (advisors) see everything; faculty see nothing student-specific.
    ///
    /// The decision is the flow analysis's opt-out gate rule
    /// ([`flow::gate_decision`]) evaluated row-by-row: the same matrix
    /// the static checker proves over plans, applied to live data.
    pub fn can_view_plans(
        &self,
        viewer: UserId,
        viewer_role: Role,
        owner: StudentId,
    ) -> RelResult<Result<(), Withheld>> {
        if viewer == owner {
            return Ok(Ok(()));
        }
        let principal = match viewer_role {
            Role::Student => Principal::Student(Some(viewer)),
            Role::Faculty => Principal::Faculty,
            Role::Staff => Principal::Staff,
            Role::Admin => Principal::Admin,
        };
        let gate_open = self
            .db
            .student(owner)?
            .map(|s| s.share_plans)
            .unwrap_or(false);
        Ok(match flow::gate_decision(&principal, owner, gate_open) {
            GateDecision::Allow => Ok(()),
            GateDecision::DeniedOptOut => Err(Withheld::OptedOut),
            GateDecision::DeniedRole => Err(Withheld::RoleForbidden),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::test_fixtures::small_campus;

    #[test]
    fn class_size_threshold() {
        let p = Privacy::new(small_campus());
        assert!(p.check_class_size(4).is_err());
        assert!(p.check_class_size(5).is_ok());
        assert_eq!(
            p.check_class_size(2),
            Err(Withheld::ClassTooSmall {
                size: 2,
                threshold: 5
            })
        );
    }

    #[test]
    fn official_disclosure_by_school() {
        let p = Privacy::new(small_campus());
        // 101 is CS → Engineering school → disclosed.
        assert!(p.check_official_disclosure(101).unwrap().is_ok());
        // 201 is HIST → Humanities → withheld.
        match p.check_official_disclosure(201).unwrap() {
            Err(Withheld::SchoolNotDisclosing { school }) => {
                assert_eq!(school, "Humanities")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plan_visibility_matrix() {
        let p = Privacy::new(small_campus());
        // Owner always sees own plans.
        assert!(p.can_view_plans(3, Role::Student, 3).unwrap().is_ok());
        // Sally shares → Bob can see.
        assert!(p.can_view_plans(2, Role::Student, 444).unwrap().is_ok());
        // Ann opted out → Bob cannot.
        assert_eq!(
            p.can_view_plans(2, Role::Student, 3).unwrap(),
            Err(Withheld::OptedOut)
        );
        // Staff (advisors) see everything.
        assert!(p.can_view_plans(99, Role::Staff, 3).unwrap().is_ok());
        // Faculty see nothing student-specific.
        assert_eq!(
            p.can_view_plans(98, Role::Faculty, 444).unwrap(),
            Err(Withheld::RoleForbidden)
        );
    }
}
