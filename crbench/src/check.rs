//! Reply checks: every reply of every run is compared with what the
//! generated tables say it must be. A reply that is an error, a shed,
//! the wrong variant, or that disagrees with the oracle is a failed
//! request. Slow is not failed.

use std::collections::HashMap;

use cr_relation::Database;
use cr_server::protocol::Response;

use crate::setup::Oracle;
use crate::stream::{Op, PointSql};

/// What one client remembers between its requests.
#[derive(Default)]
pub struct ClientState {
    /// Comment ids the server acknowledged to this client, in order.
    pub acked: Vec<i64>,
    /// Table versions of the last `Counts` reply: they never go back.
    last_versions: Vec<u64>,
    /// Rows of each analytic statement, computed once per text straight
    /// on the live database (these workloads never write).
    analytic_rows: HashMap<String, usize>,
}

impl ClientState {
    pub fn last_comment(&self) -> Option<i64> {
        self.acked.last().copied()
    }
}

fn unexpected(resp: &Response) -> String {
    let mut text = format!("{resp:?}");
    text.truncate(200);
    format!("unexpected reply {text}")
}

/// Check one reply. `writes` says whether the workload mutates tables,
/// which turns the exact row counts of written tables into lower bounds.
/// `query` is the SQL text sent (analytic statements only) and `live`
/// the database the oracle for it is computed on.
pub fn check(
    op: &Op,
    resp: &Response,
    state: &mut ClientState,
    oracle: &Oracle,
    writes: bool,
    query: Option<&str>,
    live: &Database,
) -> Result<(), String> {
    let agree = |what: &str, got: i64, want: i64, lower_bound: bool| {
        if got == want || (lower_bound && got > want) {
            Ok(())
        } else {
            Err(format!("{what}: got {got}, expected {want}"))
        }
    };
    match (op, resp) {
        (Op::Page { .. }, Response::Page { text }) if text.starts_with("===") => Ok(()),
        (Op::Search { .. }, Response::SearchResults { hits, .. })
            if !hits.is_empty() && hits.len() <= 10 =>
        {
            Ok(())
        }
        (Op::Recommend { .. }, Response::Recommendations { recs }) if recs.len() <= 5 => Ok(()),
        (
            Op::Plan { student },
            Response::PlanSummary {
                quarters,
                total_units,
                ..
            },
        ) => {
            let (want_quarters, want_units) = oracle.plan.get(student).copied().unwrap_or((0, 0));
            agree("plan quarters", *quarters as i64, want_quarters, writes)?;
            agree("plan units", *total_units, want_units, writes)
        }
        (Op::Counts, Response::CountsResult { counts, versions }) if counts.len() == 2 => {
            if versions
                .iter()
                .zip(&state.last_versions)
                .any(|(now, before)| now < before)
            {
                return Err(format!(
                    "versions went back: {versions:?} after {:?}",
                    state.last_versions
                ));
            }
            state.last_versions.clone_from(versions);
            agree("votes", counts[0], oracle.votes, writes)?;
            // Read-your-writes: at least this client's own comments.
            let own = state.acked.len() as i64;
            agree("comments", counts[1], oracle.comments + own, writes)
        }
        (Op::Point { sql, key }, Response::Rows { rows, .. }) => {
            let want = oracle.point_rows[sql].get(key).copied().unwrap_or(0);
            let grows = writes && *sql == PointSql::CommentsOfCourse;
            agree("point rows", rows.len() as i64, want, grows)
        }
        (Op::Analytic { .. }, Response::Rows { rows, .. }) => {
            let query = query.ok_or("analytic check needs its text")?;
            let want = match state.analytic_rows.get(query) {
                Some(n) => *n,
                None => {
                    let n = live.query_sql(query).map_err(|e| e.to_string())?.rows.len();
                    state.analytic_rows.insert(query.to_owned(), n);
                    n
                }
            };
            agree("analytic rows", rows.len() as i64, want as i64, false)
        }
        // The session that was acknowledged a comment must see it.
        (Op::ReadBack, Response::Rows { rows, .. }) => {
            agree("read-back rows", rows.len() as i64, 1, false)
        }
        (Op::AddComment { .. }, Response::CommentAdded { id }) => {
            if *id < oracle.first_new_comment
                || state.last_comment().is_some_and(|last| *id <= last)
            {
                return Err(format!("comment id {id} is not fresh"));
            }
            state.acked.push(*id);
            Ok(())
        }
        (Op::Vote { .. } | Op::Enroll { .. }, Response::Written) => Ok(()),
        (Op::Checkpoint, Response::Checkpointed { seq: Some(_) }) => Ok(()),
        (_, other) => Err(unexpected(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_server::protocol::{ErrorCode, RequestClass};

    fn oracle() -> Oracle {
        let mut point_rows: HashMap<PointSql, HashMap<i64, i64>> = HashMap::new();
        for sql in PointSql::ALL {
            point_rows.insert(sql, HashMap::from([(7, 3)]));
        }
        Oracle {
            point_rows,
            plan: HashMap::from([(5, (4, 40))]),
            comments: 100,
            votes: 10,
            first_new_comment: 101,
        }
    }

    fn run(op: &Op, resp: &Response, state: &mut ClientState, writes: bool) -> Result<(), String> {
        check(op, resp, state, &oracle(), writes, None, &Database::new())
    }

    fn rows(n: usize) -> Response {
        Response::Rows {
            columns: vec!["x".to_owned()],
            rows: vec![vec![cr_relation::Value::Int(1)]; n],
        }
    }

    #[test]
    fn errors_sheds_and_wrong_variants_fail() {
        let mut st = ClientState::default();
        let op = Op::Page { course: 1 };
        let err = Response::Error {
            code: ErrorCode::Internal,
            message: "boom".to_owned(),
        };
        let shed = Response::Overloaded {
            class: RequestClass::Read,
            in_flight: 1,
            queued: 1,
        };
        assert!(run(&op, &err, &mut st, false).is_err());
        assert!(run(&op, &shed, &mut st, false).is_err());
        assert!(run(&op, &Response::Pong, &mut st, false).is_err());
        let missing = Response::Page {
            text: "course 1 not found\n".to_owned(),
        };
        assert!(run(&op, &missing, &mut st, false).is_err());
        let page = Response::Page {
            text: "=== CS — Java".to_owned(),
        };
        assert!(run(&op, &page, &mut st, false).is_ok());
    }

    #[test]
    fn row_counts_are_exact_unless_the_table_is_written() {
        let mut st = ClientState::default();
        let op = Op::Point {
            sql: PointSql::CommentsOfCourse,
            key: 7,
        };
        assert!(run(&op, &rows(3), &mut st, false).is_ok());
        assert!(run(&op, &rows(4), &mut st, false).is_err());
        assert!(run(&op, &rows(4), &mut st, true).is_ok());
        assert!(run(&op, &rows(2), &mut st, true).is_err());
        let absent = Op::Point {
            sql: PointSql::CourseByPk,
            key: 8,
        };
        assert!(run(&absent, &rows(0), &mut st, true).is_ok());
        assert!(run(&absent, &rows(1), &mut st, true).is_err());
    }

    #[test]
    fn counts_enforce_monotone_versions_and_own_writes() {
        let mut st = ClientState::default();
        let counts = |comments, versions: [u64; 2]| Response::CountsResult {
            counts: vec![10, comments],
            versions: versions.to_vec(),
        };
        assert!(run(&Op::Counts, &counts(100, [5, 5]), &mut st, true).is_ok());
        assert!(run(&Op::Counts, &counts(100, [5, 4]), &mut st, true).is_err());
        let add = Op::AddComment {
            student: 1,
            course: 1,
            term: "Aut",
            rating: 4.0,
        };
        assert!(run(&add, &Response::CommentAdded { id: 100 }, &mut st, true).is_err());
        assert!(run(&add, &Response::CommentAdded { id: 101 }, &mut st, true).is_ok());
        assert!(run(&add, &Response::CommentAdded { id: 101 }, &mut st, true).is_err());
        assert_eq!(st.last_comment(), Some(101));
        // One own comment acknowledged: 100 rows is now a stale read.
        assert!(run(&Op::Counts, &counts(100, [5, 5]), &mut st, true).is_err());
        assert!(run(&Op::Counts, &counts(103, [5, 6]), &mut st, true).is_ok());
        assert!(run(&Op::ReadBack, &rows(1), &mut st, true).is_ok());
        assert!(run(&Op::ReadBack, &rows(0), &mut st, true).is_err());
    }

    #[test]
    fn plans_match_the_enrollment_tables() {
        let mut st = ClientState::default();
        let plan = |quarters, total_units| Response::PlanSummary {
            quarters,
            conflicts: 0,
            prereq_violations: 0,
            total_units,
        };
        let op = Op::Plan { student: 5 };
        assert!(run(&op, &plan(4, 40), &mut st, false).is_ok());
        assert!(run(&op, &plan(5, 43), &mut st, false).is_err());
        assert!(run(&op, &plan(5, 43), &mut st, true).is_ok());
        assert!(run(&op, &plan(3, 40), &mut st, true).is_err());
    }
}
