//! The recommendation-strategy registry.
//!
//! §2.1: FlexRecs "lets the administrator quickly define recommendation
//! strategies that can be then selected (and personalized) by a student
//! who needs recommendations." Strategies are whole workflows, persisted
//! as JSON in the `RecStrategies` relation like any other site data, and
//! instantiated per-student at selection time by rewriting the workflow's
//! student-id placeholder.

use cr_flexrecs::workflow::{Node, WfPredicate, Workflow};
use cr_relation::row::row;
use cr_relation::sql::text_literal;
use cr_relation::{RelError, RelResult, ResultSet, Value};

use crate::db::CourseRankDb;
use crate::model::StudentId;

/// The student-id placeholder admins use when authoring a strategy; it is
/// substituted at selection time.
pub const STUDENT_PLACEHOLDER: i64 = -1;

/// A stored strategy's listing entry.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyInfo {
    pub name: String,
    pub description: String,
}

/// The registry service.
#[derive(Debug, Clone)]
pub struct Strategies {
    db: CourseRankDb,
}

impl Strategies {
    pub fn new(db: CourseRankDb) -> Self {
        Strategies { db }
    }

    /// The same service over another database handle (snapshot read views).
    pub(crate) fn rebind(&self, db: CourseRankDb) -> Self {
        Strategies { db }
    }

    /// Persist a strategy (admin interface). The workflow may reference
    /// [`STUDENT_PLACEHOLDER`] wherever the target student's id belongs.
    pub fn define(&self, name: &str, description: &str, workflow: &Workflow) -> RelResult<()> {
        // Lint at definition time — a strategy that cannot compile onto
        // the plan IR must never reach the picker. Warnings are allowed
        // (admins can inspect them via [`Strategies::lint`]).
        let report = workflow.lint(&self.db.catalog());
        if let Some(first) = report.errors().next() {
            return Err(RelError::Invalid(format!(
                "strategy `{name}` failed lint: {first}"
            )));
        }
        let json = serde_json::to_string(workflow)
            .map_err(|e| RelError::Invalid(format!("strategy serialization: {e}")))?;
        // Upsert: replace an existing definition of the same name.
        self.db.database().execute_sql(&format!(
            "DELETE FROM RecStrategies WHERE Name = {}",
            text_literal(name)
        ))?;
        self.db
            .database()
            .insert("RecStrategies", row![name, description, json.as_str()])
            .map(|_| ())
    }

    /// List available strategies (what the student's picker shows).
    pub fn list(&self) -> RelResult<Vec<StrategyInfo>> {
        let rs = self
            .db
            .database()
            .query_sql("SELECT Name, Description FROM RecStrategies ORDER BY Name")?;
        Ok(rs
            .rows
            .iter()
            .map(|r| StrategyInfo {
                name: r[0].as_text().unwrap_or("").to_owned(),
                description: r[1].as_text().unwrap_or("").to_owned(),
            })
            .collect())
    }

    /// Load a stored strategy verbatim (with the placeholder intact).
    pub fn load(&self, name: &str) -> RelResult<Workflow> {
        let rs = self.db.database().query_sql(&format!(
            "SELECT Json FROM RecStrategies WHERE Name = {}",
            text_literal(name)
        ))?;
        let json = rs
            .rows
            .first()
            .and_then(|r| r[0].as_text().ok())
            .ok_or_else(|| RelError::Invalid(format!("no strategy {name}")))?;
        serde_json::from_str(json)
            .map_err(|e| RelError::Invalid(format!("strategy deserialization: {e}")))
    }

    /// Select a strategy for a student: load and substitute the student-id
    /// placeholder ("personalized by a student").
    pub fn select(&self, name: &str, student: StudentId) -> RelResult<Workflow> {
        let wf = self.load(name)?;
        Ok(Workflow {
            name: format!("{}@{student}", wf.name),
            root: substitute_student(wf.root, student),
        })
    }

    /// Select a strategy and execute it for a student on the unified
    /// plan pipeline (compile → optimize → shared executor).
    pub fn run(&self, name: &str, student: StudentId) -> RelResult<ResultSet> {
        let wf = self.select(name, student)?;
        Ok(cr_flexrecs::compile::compile_and_run(&wf, &self.db.catalog())?.result)
    }

    /// The optimized plan a stored strategy executes as for a student,
    /// followed by one `-- lint:` line per linter warning.
    pub fn explain(&self, name: &str, student: StudentId) -> RelResult<Vec<String>> {
        let wf = self.select(name, student)?;
        let mut lines = cr_flexrecs::compile::explain_sql(&wf, &self.db.catalog())?;
        let report = wf.lint(&self.db.catalog());
        lines.extend(report.warnings().map(|d| format!("-- lint: {d}")));
        Ok(lines)
    }

    /// Lint a stored strategy as it would run for a student.
    pub fn lint(&self, name: &str, student: StudentId) -> RelResult<cr_flexrecs::LintReport> {
        let wf = self.select(name, student)?;
        Ok(wf.lint(&self.db.catalog()))
    }

    /// Lint a stored strategy as it would run for a student, checking
    /// disclosure against an explicit principal (`crlint --principal`).
    pub fn lint_as(
        &self,
        name: &str,
        student: StudentId,
        principal: &cr_relation::plan::flow::Principal,
    ) -> RelResult<cr_flexrecs::LintReport> {
        let wf = self.select(name, student)?;
        Ok(wf.lint_for(&self.db.catalog(), principal))
    }

    /// Remove a strategy.
    pub fn remove(&self, name: &str) -> RelResult<bool> {
        let rs = self.db.database().execute_sql(&format!(
            "DELETE FROM RecStrategies WHERE Name = {}",
            text_literal(name)
        ))?;
        Ok(rs.scalar().and_then(|v| v.as_int().ok()).unwrap_or(0) > 0)
    }
}

/// Replace every predicate literal equal to [`STUDENT_PLACEHOLDER`] with
/// the concrete student id.
fn substitute_student(node: Node, student: StudentId) -> Node {
    match node {
        Node::Select { input, predicate } => Node::Select {
            input: Box::new(substitute_student(*input, student)),
            predicate: substitute_predicate(predicate, student),
        },
        Node::Project { input, columns } => Node::Project {
            input: Box::new(substitute_student(*input, student)),
            columns,
        },
        Node::Join {
            left,
            right,
            left_col,
            right_col,
        } => Node::Join {
            left: Box::new(substitute_student(*left, student)),
            right: Box::new(substitute_student(*right, student)),
            left_col,
            right_col,
        },
        Node::Extend {
            input,
            related_table,
            fk_column,
            local_key,
            key_column,
            rating_column,
            as_name,
        } => Node::Extend {
            input: Box::new(substitute_student(*input, student)),
            related_table,
            fk_column,
            local_key,
            key_column,
            rating_column,
            as_name,
        },
        Node::Recommend {
            target,
            comparator,
            spec,
        } => Node::Recommend {
            target: Box::new(substitute_student(*target, student)),
            comparator: Box::new(substitute_student(*comparator, student)),
            spec,
        },
        Node::Limit { input, k } => Node::Limit {
            input: Box::new(substitute_student(*input, student)),
            k,
        },
        Node::Union { left, right } => Node::Union {
            left: Box::new(substitute_student(*left, student)),
            right: Box::new(substitute_student(*right, student)),
        },
        leaf @ Node::Source { .. } => leaf,
    }
}

fn substitute_predicate(p: WfPredicate, student: StudentId) -> WfPredicate {
    match p {
        WfPredicate::Cmp { column, op, value } => {
            let value = if value == Value::Int(STUDENT_PLACEHOLDER) {
                Value::Int(student)
            } else {
                value
            };
            WfPredicate::Cmp { column, op, value }
        }
        WfPredicate::And(ps) => WfPredicate::And(
            ps.into_iter()
                .map(|p| substitute_predicate(p, student))
                .collect(),
        ),
        WfPredicate::Or(ps) => WfPredicate::Or(
            ps.into_iter()
                .map(|p| substitute_predicate(p, student))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::test_fixtures::small_campus;
    use cr_flexrecs::templates::{self, SchemaMap};

    fn registry() -> Strategies {
        Strategies::new(small_campus())
    }

    fn cf_template() -> Workflow {
        templates::user_cf(&SchemaMap::default(), STUDENT_PLACEHOLDER, 10, 10, 1, false)
    }

    #[test]
    fn define_list_load_roundtrip() {
        let reg = registry();
        let wf = cf_template();
        reg.define("cf-default", "ratings-similar students", &wf)
            .unwrap();
        reg.define(
            "related",
            "title similarity",
            &templates::related_courses(
                &SchemaMap::default(),
                "Introduction to Programming",
                None,
                5,
            ),
        )
        .unwrap();
        let list = reg.list().unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].name, "cf-default");
        let loaded = reg.load("cf-default").unwrap();
        assert_eq!(loaded, wf);
    }

    #[test]
    fn redefine_replaces() {
        let reg = registry();
        reg.define("x", "v1", &cf_template()).unwrap();
        reg.define("x", "v2", &cf_template()).unwrap();
        let list = reg.list().unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].description, "v2");
    }

    #[test]
    fn select_substitutes_student_and_executes() {
        let reg = registry();
        reg.define("cf-default", "", &cf_template()).unwrap();
        let wf = reg.select("cf-default", 444).unwrap();
        // The placeholder is gone from the explain output.
        let text = wf.explain();
        assert!(!text.contains("-1"), "{text}");
        assert!(text.contains("444"), "{text}");
        // And the personalized workflow actually runs — on the plan
        // pipeline, agreeing with the reference interpreter.
        let db = small_campus();
        let reg2 = Strategies::new(db.clone());
        reg2.define("cf-default", "", &cf_template()).unwrap();
        let result = reg2.run("cf-default", 444).unwrap();
        let wf = reg2.select("cf-default", 444).unwrap();
        let oracle = cr_flexrecs::execute(&wf, &db.catalog()).unwrap();
        assert_eq!(result, oracle);
        // The stored strategy's plan renders with the workflow operators.
        let lines = reg2.explain("cf-default", 444).unwrap();
        assert!(
            lines
                .iter()
                .any(|l| l.trim_start().starts_with("Recommend")),
            "{lines:?}"
        );
    }

    #[test]
    fn unknown_strategy_errors_and_remove_works() {
        let reg = registry();
        assert!(reg.load("nope").is_err());
        reg.define("temp", "", &cf_template()).unwrap();
        assert!(reg.remove("temp").unwrap());
        assert!(!reg.remove("temp").unwrap());
        assert!(reg.load("temp").is_err());
    }

    #[test]
    fn strategy_names_with_quotes_are_safe() {
        let reg = registry();
        reg.define("o'brien", "quoted", &cf_template()).unwrap();
        assert_eq!(reg.list().unwrap().len(), 1);
        assert!(reg.load("o'brien").is_ok());
    }

    #[test]
    fn define_rejects_uncompilable_workflow() {
        let reg = registry();
        let bad = Workflow::new(
            "bad",
            Node::Source {
                table: "NoSuchTable".into(),
            },
        );
        let err = reg.define("bad", "", &bad).unwrap_err();
        assert!(err.to_string().contains("failed lint"), "{err}");
        assert!(reg.list().unwrap().is_empty());
    }

    #[test]
    fn builtin_templates_are_policy_clean_at_define_time() {
        // Define-time lint now includes the disclosure check for the
        // template student; every built-in template must pass it against
        // the real labeled CourseRank catalog.
        let reg = registry();
        let m = SchemaMap::default();
        for (name, wf) in [
            (
                "related",
                templates::related_courses(&m, "Systems", None, 5),
            ),
            (
                "cf",
                templates::user_cf(&m, STUDENT_PLACEHOLDER, 10, 10, 1, false),
            ),
            (
                "cf-weighted",
                templates::user_cf_weighted(&m, STUDENT_PLACEHOLDER, 10, 10, 1),
            ),
            (
                "similar",
                templates::similar_students_by_courses(&m, STUDENT_PLACEHOLDER, 5),
            ),
            ("item-item", templates::item_item_cf(&m, 1, 5)),
            (
                "item-item-ratings",
                templates::item_item_cf_ratings(&m, 1, 5),
            ),
            (
                "majors",
                templates::major_recommendation(&m, STUDENT_PLACEHOLDER, 10, 1),
            ),
        ] {
            reg.define(name, "", &wf)
                .unwrap_or_else(|e| panic!("template {name} rejected at define time: {e}"));
        }
    }

    #[test]
    fn define_rejects_policy_violating_workflow() {
        // A workflow projecting another student's GPA must be rejected:
        // Students.GPA is per-user and a student principal runs it.
        let reg = registry();
        let leak = Workflow::new(
            "gpa-leak",
            Node::Project {
                input: Box::new(Node::Source {
                    table: "Students".into(),
                }),
                columns: vec!["SuID".into(), "GPA".into()],
            },
        );
        let err = reg.define("gpa-leak", "", &leak).unwrap_err();
        assert!(err.to_string().contains("P001"), "{err}");
        assert!(reg.list().unwrap().is_empty());
    }

    #[test]
    fn lint_reports_warnings_and_explain_carries_them() {
        let reg = registry();
        // major_recommendation's upper recommend is unbounded on purpose
        // and vouches for it via expect_unbounded(), so it lints fully
        // clean: no errors, and no W106 either.
        let wf = templates::major_recommendation(&SchemaMap::default(), STUDENT_PLACEHOLDER, 10, 1);
        reg.define("majors", "", &wf).unwrap();
        let report = reg.lint("majors", 444).unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(!report.has_code("W106"), "{report}");

        // Strip the acknowledgment and the same workflow warns again:
        // an unbounded recommend nobody vouched for is still suspect.
        let mut noisy =
            templates::major_recommendation(&SchemaMap::default(), STUDENT_PLACEHOLDER, 10, 1);
        match &mut noisy.root {
            Node::Recommend { spec, .. } => spec.unbounded_ok = false,
            other => panic!("expected Recommend root, got {other:?}"),
        }
        reg.define("majors-noisy", "", &noisy).unwrap();
        let report = reg.lint("majors-noisy", 444).unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.has_code("W106"), "{report}");
        let lines = reg.explain("majors-noisy", 444).unwrap();
        assert!(
            lines.iter().any(|l| l.starts_with("-- lint: W106")),
            "{lines:?}"
        );
    }
}
