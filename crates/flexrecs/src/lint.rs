//! The workflow linter: static analysis for FlexRecs workflows.
//!
//! The paper's pitch for declarative workflows is that they are *checkable*
//! artifacts — "site managers can define recommendations declaratively" —
//! which only pays off if a bad workflow is caught at definition time, not
//! as a wrong result at serving time. `lint` compiles a workflow onto the
//! unified [`LogicalPlan`](cr_relation::LogicalPlan) IR and runs the plan validator plus the dataflow
//! analyses over the result, surfacing everything as coded diagnostics:
//!
//! * `E…` — the workflow cannot run (failed to compile, or lowering
//!   produced an ill-formed plan);
//! * `W…` — the workflow runs but is suspicious (contradictory filter,
//!   unbounded recommend, extend whose nested column is never used, …).
//!
//! Linting never fails and never panics: a workflow that cannot even be
//! compiled yields an [`E_COMPILE`] diagnostic instead of an error.

use std::fmt;

use cr_relation::catalog::Catalog;
use cr_relation::plan::flow::{self, Principal};
use cr_relation::plan::validate::{self, Diagnostic};

use crate::compile::compile;
use crate::workflow::Workflow;

/// The workflow failed to compile onto the plan IR (unknown table or
/// attribute, recommend type mismatch, …).
pub const E_COMPILE: &str = "E100";

/// Result of linting one workflow.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Name of the linted workflow.
    pub workflow: String,
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// No errors (warnings are allowed — a clean workflow may still warn).
    pub fn is_clean(&self) -> bool {
        !self.diagnostics.iter().any(Diagnostic::is_error)
    }

    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_error())
    }

    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.is_error())
    }

    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// One rendered line per diagnostic: `W106 warning at Recommend: …`.
    pub fn lines(&self) -> Vec<String> {
        self.diagnostics.iter().map(Diagnostic::to_string).collect()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "{}: clean", self.workflow);
        }
        writeln!(
            f,
            "{}: {} error(s), {} warning(s)",
            self.workflow,
            self.errors().count(),
            self.warnings().count()
        )?;
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Lint a workflow against a catalog. Infallible: compile failures become
/// an [`E_COMPILE`] diagnostic, not an error.
///
/// Disclosure is checked for the *template student* ([`Principal::Student`]
/// `(None)`): workflows are defined once and then selected by arbitrary
/// student sessions, so define-time lint must prove the plan safe for the
/// least-privileged principal that will run it. Use [`lint_for`] to lint
/// for a different principal (e.g. a staff-only reporting workflow).
pub fn lint(workflow: &Workflow, catalog: &Catalog) -> LintReport {
    lint_for(workflow, catalog, &Principal::Student(None))
}

/// [`lint`] for an explicit principal: structural analysis plus
/// [`flow::check_disclosure`] against `principal`'s clearance.
pub fn lint_for(workflow: &Workflow, catalog: &Catalog, principal: &Principal) -> LintReport {
    let diagnostics = match compile(workflow, catalog) {
        // Analyze the *unoptimized* lowered plan: operator paths then map
        // 1:1 onto the workflow the author wrote, and warnings the
        // optimizer would mask (e.g. a contradictory filter folded away)
        // still surface.
        Ok(plan) => {
            let mut diags = validate::analyze(&plan, Some(catalog)).diagnostics;
            diags.extend(flow::check_disclosure(&plan, catalog, principal).diagnostics);
            diags
        }
        Err(e) => vec![Diagnostic::error(
            E_COMPILE,
            "workflow",
            format!("workflow failed to compile: {e}"),
        )],
    };
    LintReport {
        workflow: workflow.name.clone(),
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates;
    use crate::workflow::{CmpOp, Node, WfPredicate};
    use cr_relation::catalog::Database;

    fn campus() -> Database {
        let db = Database::new();
        for stmt in [
            "CREATE TABLE Courses (CourseID INT PRIMARY KEY, Title TEXT, Year INT)",
            "CREATE TABLE Students (SuID INT PRIMARY KEY, Name TEXT)",
            "CREATE TABLE Comments (SuID INT, CourseID INT, Rating FLOAT, \
             PRIMARY KEY (SuID, CourseID))",
            "INSERT INTO Courses VALUES (1, 'Intro Programming', 2008), (2, 'Systems', 2008)",
            "INSERT INTO Students VALUES (1, 'Ada'), (2, 'Grace')",
            "INSERT INTO Comments VALUES (1, 1, 5.0), (2, 1, 4.0), (2, 2, 3.0)",
        ] {
            db.execute_sql(stmt).unwrap();
        }
        db
    }

    #[test]
    fn valid_template_lints_clean() {
        let db = campus();
        let wf = templates::user_cf(&templates::SchemaMap::default(), 1, 5, 5, 1, true);
        let report = lint(&wf, &db.catalog());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn uncompilable_workflow_yields_e100_not_panic() {
        let db = campus();
        let wf = Workflow::new(
            "broken",
            Node::Source {
                table: "NoSuchTable".into(),
            },
        );
        let report = lint(&wf, &db.catalog());
        assert!(!report.is_clean());
        assert!(report.has_code(E_COMPILE), "{report}");
    }

    #[test]
    fn contradictory_select_warns() {
        let db = campus();
        let wf = Workflow::new(
            "contradiction",
            Node::Select {
                input: Box::new(Node::Select {
                    input: Box::new(Node::Source {
                        table: "Students".into(),
                    }),
                    predicate: WfPredicate::cmp("SuID", CmpOp::Eq, 1i64),
                }),
                predicate: WfPredicate::cmp("SuID", CmpOp::Eq, 2i64),
            },
        );
        let report = lint(&wf, &db.catalog());
        assert!(report.is_clean(), "contradiction is a warning: {report}");
        assert!(
            report.has_code(cr_relation::plan::validate::W_CONTRADICTION),
            "{report}"
        );
    }

    #[test]
    fn workflow_lint_method_delegates() {
        let db = campus();
        let wf = templates::related_courses(&templates::SchemaMap::default(), "Systems", None, 5);
        let report = wf.lint(&db.catalog());
        assert!(report.is_clean(), "{report}");
    }
}
