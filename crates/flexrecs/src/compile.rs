//! Workflow → logical-plan compilation.
//!
//! §3.2: "The engine executes a workflow by 'compiling' it into a sequence
//! of SQL calls, which are executed by a conventional DBMS." Our engine
//! *is* the DBMS, so compilation targets its query IR directly: every
//! workflow operator lowers to a [`LogicalPlan`] node — relational
//! operators to scans/filters/projections/joins, the ε extend and ▷
//! recommend operators to the plan's first-class `Extend`/`Recommend`
//! nodes — and the whole plan then flows through the same optimizer and
//! executor as SQL queries. A run returns the executor's [`ResultSet`]
//! as it is: one IR, one optimizer, one executor, one data model.
//!
//! The direct interpreter in [`crate::exec`] survives as the reference
//! semantics; `tests/flexrecs_plan_equivalence.rs` property-tests that the
//! compiled plan returns an identical `ResultSet`, schema included.
//!
//! Lowering is purely structural. Every node is stacked through
//! [`PlanBuilder`], which derives each output schema and checks each
//! shape; what the compiler adds is FlexRecs' own:
//!
//! * names resolve by [`resolve`]: first case-insensitive match — the
//!   interpreter's rule too — and reach the builder as positions;
//! * predicates lower to two-valued expressions
//!   (`col IS NOT NULL AND col op lit`) so NULL comparisons behave as
//!   `false` inside `OR`, exactly like the interpreter;
//! * the extend operator's related table becomes a projected scan
//!   `[fk, key(, rating)]`, so the optimizer can treat it like any other
//!   input;
//! * a join on a set or ratings attribute is an error, not a plan.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cr_relation::plan::{optimizer, JoinKind, LogicalPlan, RecAggPlan, RecSpec};
use cr_relation::{Catalog, DataType, Expr, PlanBuilder, RelError, RelResult, ResultSet, Schema};

use crate::workflow::{infer_schema, resolve, CmpOp, Node, RecAgg, WfPredicate, Workflow};

struct FrMetrics {
    compiled_runs: Arc<cr_obs::Counter>,
    run_ns: Arc<cr_obs::Histogram>,
    step_ns: Arc<cr_obs::Histogram>,
}

fn metrics() -> &'static FrMetrics {
    static M: OnceLock<FrMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cr_obs::Registry::global();
        FrMetrics {
            compiled_runs: r.counter("flexrecs.compiled_runs"),
            run_ns: r.histogram("flexrecs.run_ns"),
            step_ns: r.histogram("flexrecs.step_ns"),
        }
    })
}

/// One timed phase of a compiled run, in execution order — what lets a
/// recommendation's latency be broken down step by step.
#[derive(Debug, Clone)]
pub struct StepTiming {
    /// Phase name: `"Lower"`, `"Optimize"`, or `"Execute"`.
    pub label: String,
    /// Rows the phase produced (0 for the plan-only phases).
    pub rows: usize,
    pub elapsed: Duration,
}

/// Result of a compiled run.
#[derive(Debug, Clone)]
pub struct CompiledRun {
    /// The executor's result, carrying the plan's output schema.
    pub result: ResultSet,
    /// The optimized plan that was executed.
    pub plan: LogicalPlan,
    /// Wall-clock timing per phase (lower — when this run lowered —,
    /// optimize, execute).
    pub step_timings: Vec<StepTiming>,
}

impl CompiledRun {
    /// Render the phase-by-phase timing breakdown as an aligned table.
    pub fn timing_breakdown(&self) -> String {
        use cr_relation::profile::fmt_duration;
        use std::fmt::Write as _;
        let mut out = String::from("step               rows       time\n");
        let mut total = Duration::ZERO;
        for s in &self.step_timings {
            total += s.elapsed;
            let _ = writeln!(
                out,
                "{:<18} {:<10} {}",
                s.label,
                s.rows,
                fmt_duration(s.elapsed)
            );
        }
        let _ = writeln!(out, "{:<18} {:<10} {}", "total", "", fmt_duration(total));
        out
    }
}

/// Compile a workflow to an (unoptimized) logical plan, validating it
/// first. Feed the result through the shared optimizer before execution —
/// [`compile_and_run`] does both.
pub fn compile(workflow: &Workflow, catalog: &Catalog) -> RelResult<LogicalPlan> {
    // Full workflow validation (attribute existence, recommend type
    // discipline) before lowering, so errors carry workflow-level names.
    infer_schema(&workflow.root, catalog)?;
    let plan = lower(&workflow.root, catalog)?.build();
    // The plan validator re-checks the lowered output (single tree walk,
    // well under the 5% compile budget): any error here is a lowering bug,
    // not a user mistake — surface it before it becomes a wrong answer.
    // Catalog-backed scan checks are skipped on this hot path: lowering
    // itself just resolved every table against the same catalog, so they
    // cannot fail here. The lint entry points run the full catalog-backed
    // analysis.
    let report = cr_relation::plan::validate::validate(&plan);
    if let Some(first) = report.first_error() {
        return Err(RelError::Invalid(format!(
            "internal: lowering produced an invalid plan for workflow `{}`: {first}",
            workflow.name
        )));
    }
    Ok(plan)
}

/// Compile and run a workflow on the plan pipeline: [`compile`] timed as
/// the "Lower" step, then [`run_compiled`].
pub fn compile_and_run(workflow: &Workflow, catalog: &Catalog) -> RelResult<CompiledRun> {
    let t0 = Instant::now();
    let plan = {
        let _stage = cr_obs::trace::TraceSpan::child("flexrecs.lower");
        compile(workflow, catalog)?
    };
    let lowered = t0.elapsed();
    let mut run = run_compiled(workflow, plan, catalog)?;
    run.step_timings.insert(0, step("Lower", 0, lowered));
    Ok(run)
}

/// Optimize and run `plan`, which [`compile`] lowered from `workflow`, as
/// the timed steps "Optimize" and "Execute". A caller that needed the
/// unoptimized plan first (to key a cache by its fingerprint) lowers
/// once this way.
pub fn run_compiled(
    workflow: &Workflow,
    plan: LogicalPlan,
    catalog: &Catalog,
) -> RelResult<CompiledRun> {
    let mut run_span = cr_obs::trace::TraceSpan::child("flexrecs.run").timed(&metrics().run_ns);
    if run_span.is_recording() {
        run_span.attr("workflow", workflow.name.to_string());
    }

    let t0 = Instant::now();
    let plan = {
        let _stage = cr_obs::trace::TraceSpan::child("flexrecs.optimize");
        optimizer::optimize(plan)
    };
    let optimized = step("Optimize", 0, t0.elapsed());

    let t0 = Instant::now();
    let result = {
        let _stage = cr_obs::trace::TraceSpan::child("flexrecs.execute");
        cr_relation::exec::execute(&plan, catalog)?
    };
    let executed = step("Execute", result.rows.len(), t0.elapsed());

    if cr_obs::enabled() {
        metrics().compiled_runs.inc();
    }
    Ok(CompiledRun {
        result,
        plan,
        step_timings: vec![optimized, executed],
    })
}

/// One [`StepTiming`], recorded into `flexrecs.step_ns` when metrics are on.
fn step(label: &str, rows: usize, elapsed: Duration) -> StepTiming {
    if cr_obs::enabled() {
        metrics().step_ns.record_duration(elapsed);
    }
    StepTiming {
        label: label.to_owned(),
        rows,
        elapsed,
    }
}

/// Pretty-print the optimized plan a workflow compiles to, one operator
/// per line (indented children). Historically this returned the compiled
/// SQL step list; it now renders the plan the unified pipeline executes.
pub fn explain_sql(workflow: &Workflow, catalog: &Catalog) -> RelResult<Vec<String>> {
    let plan = optimizer::optimize(compile(workflow, catalog)?);
    Ok(plan.explain().lines().map(str::to_owned).collect())
}

fn lower(node: &Node, catalog: &Catalog) -> RelResult<PlanBuilder> {
    match node {
        Node::Source { table } => PlanBuilder::scan(catalog, table),

        Node::Select { input, predicate } => {
            let input = lower(input, catalog)?;
            let predicate = lower_predicate(predicate, input.schema())?;
            input.filter(predicate)
        }

        Node::Project { input, columns } => {
            let input = lower(input, catalog)?;
            let columns = columns
                .iter()
                .map(|c| Ok((resolve(input.schema(), c)?, c.as_str())))
                .collect::<RelResult<Vec<_>>>()?;
            input.select_positions(&columns)
        }

        Node::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let l = lower(left, catalog)?;
            let r = lower(right, catalog)?;
            let li = resolve(l.schema(), left_col)?;
            let ri = resolve(r.schema(), right_col)?;
            for (schema, idx, name) in [(l.schema(), li, left_col), (r.schema(), ri, right_col)] {
                if matches!(
                    schema.column(idx).data_type,
                    DataType::Set | DataType::Ratings
                ) {
                    return Err(RelError::Invalid(format!(
                        "join column {name} is not scalar"
                    )));
                }
            }
            let on = Expr::col_idx(li).eq(Expr::col_idx(l.schema().len() + ri));
            l.join(r, JoinKind::Inner, on)
        }

        Node::Extend {
            input,
            related_table,
            fk_column,
            local_key,
            key_column,
            rating_column,
            as_name,
        } => {
            let input = lower(input, catalog)?;
            let key_col = resolve(input.schema(), local_key)?;
            let rel_schema = catalog.table_schema(related_table)?;
            let mut proj = vec![
                resolve(&rel_schema, fk_column)?,
                resolve(&rel_schema, key_column)?,
            ];
            if let Some(rc) = rating_column {
                proj.push(resolve(&rel_schema, rc)?);
            }
            let related = PlanBuilder::scan_columns(catalog, related_table, proj)?;
            input.extend_at(related, key_col, rating_column.is_some(), as_name)
        }

        Node::Recommend {
            target,
            comparator,
            spec,
        } => {
            let t = lower(target, catalog)?;
            let c = lower(comparator, catalog)?;
            let target_col = resolve(t.schema(), &spec.target_attr)?;
            let comparator_col = resolve(c.schema(), &spec.comparator_attr)?;
            let agg = match &spec.agg {
                RecAgg::Avg => RecAggPlan::Avg,
                RecAgg::Sum => RecAggPlan::Sum,
                RecAgg::Max => RecAggPlan::Max,
                RecAgg::WeightedAvg { weight_attr } => RecAggPlan::WeightedAvg {
                    weight_col: resolve(c.schema(), weight_attr)?,
                },
            };
            let exclude_seen = match &spec.exclude_seen {
                Some((ta, ca)) => Some((resolve(t.schema(), ta)?, resolve(c.schema(), ca)?)),
                None => None,
            };
            let plan_spec = RecSpec {
                target_col,
                comparator_col,
                method: spec.method.clone(),
                agg,
                k: spec.k,
                unbounded_ok: spec.unbounded_ok,
                score_name: spec.score_name.clone(),
                exclude_seen,
            };
            t.recommend(c, plan_spec)
        }

        Node::Limit { input, k } => Ok(lower(input, catalog)?.limit(*k)),

        Node::Union { left, right } => lower(left, catalog)?.union(lower(right, catalog)?),
    }
}

/// Lower a workflow predicate to a **two-valued** expression. The
/// interpreter treats a NULL comparison as plain `false` (so `NULL > 3 OR
/// x = 1` can still pass); SQL three-valued logic would yield NULL. Guard
/// every comparison with `IS NOT NULL` so both paths agree.
fn lower_predicate(p: &WfPredicate, schema: &Schema) -> RelResult<Expr> {
    Ok(match p {
        WfPredicate::Cmp { column, op, value } => {
            let i = resolve(schema, column)?;
            if value.is_null() {
                // The interpreter's NULL-literal comparison is always false.
                return Ok(Expr::lit(false));
            }
            let cmp = {
                let col = Expr::col_idx(i);
                let lit = Expr::lit(value.clone());
                match op {
                    CmpOp::Eq => col.eq(lit),
                    CmpOp::NotEq => col.not_eq(lit),
                    CmpOp::Lt => col.lt(lit),
                    CmpOp::LtEq => col.lt_eq(lit),
                    CmpOp::Gt => col.gt(lit),
                    CmpOp::GtEq => col.gt_eq(lit),
                }
            };
            Expr::IsNull {
                expr: Box::new(Expr::col_idx(i)),
                negated: true,
            }
            .and(cmp)
        }
        WfPredicate::And(ps) => {
            let parts = ps
                .iter()
                .map(|p| lower_predicate(p, schema))
                .collect::<RelResult<Vec<_>>>()?;
            Expr::conjoin(parts)
        }
        WfPredicate::Or(ps) => {
            let parts = ps
                .iter()
                .map(|p| lower_predicate(p, schema))
                .collect::<RelResult<Vec<_>>>()?;
            parts
                .into_iter()
                .reduce(|a, b| a.or(b))
                .unwrap_or_else(|| Expr::lit(false))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::similarity::{RatingsSim, TextSim};
    use crate::workflow::{RecMethod, RecommendSpec};
    use cr_relation::{Database, Value};
    use std::collections::HashMap;

    fn db() -> Database {
        let db = Database::new();
        db.execute_sql("CREATE TABLE Courses (CourseID INT PRIMARY KEY, Title TEXT, Year INT)")
            .unwrap();
        db.execute_sql("CREATE TABLE Students (SuID INT PRIMARY KEY, Name TEXT)")
            .unwrap();
        db.execute_sql(
            "CREATE TABLE Comments (SuID INT, CourseID INT, Rating FLOAT, PRIMARY KEY (SuID, CourseID))",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO Courses VALUES \
             (1, 'Introduction to Programming', 2008), \
             (2, 'Programming Abstractions', 2008), \
             (3, 'Medieval History', 2008), \
             (5, 'Operating Systems', 2008)",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO Students VALUES (444, 'Sally'), (2, 'Bob'), (3, 'Ann'), (4, 'Tim')",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO Comments VALUES \
             (444, 1, 5.0), (444, 3, 2.0), \
             (2, 1, 5.0), (2, 3, 2.0), (2, 2, 4.5), \
             (3, 1, 1.0), (3, 3, 5.0), (3, 5, 1.5), \
             (4, 1, 4.5), (4, 3, 2.5), (4, 5, 5.0)",
        )
        .unwrap();
        db
    }

    fn extend_students() -> Node {
        Node::Extend {
            input: Box::new(Node::Source {
                table: "Students".into(),
            }),
            related_table: "Comments".into(),
            fk_column: "SuID".into(),
            local_key: "SuID".into(),
            key_column: "CourseID".into(),
            rating_column: Some("Rating".into()),
            as_name: "ratings".into(),
        }
    }

    fn cf_workflow() -> Workflow {
        let lower = Node::Recommend {
            target: Box::new(Node::Select {
                input: Box::new(extend_students()),
                predicate: WfPredicate::cmp("SuID", CmpOp::NotEq, 444i64),
            }),
            comparator: Box::new(Node::Select {
                input: Box::new(extend_students()),
                predicate: WfPredicate::eq("SuID", 444i64),
            }),
            spec: RecommendSpec::new(
                "ratings",
                "ratings",
                RecMethod::Ratings {
                    sim: RatingsSim::InverseEuclidean,
                    min_common: 2,
                },
            )
            .top_k(2)
            .score_as("sim"),
        };
        Workflow::new(
            "cf",
            Node::Recommend {
                target: Box::new(Node::Source {
                    table: "Courses".into(),
                }),
                comparator: Box::new(lower),
                spec: RecommendSpec::new("CourseID", "ratings", RecMethod::RatingLookup)
                    .with_agg(RecAgg::Avg),
            },
        )
    }

    #[test]
    fn cf_workflow_lowers_to_plan() {
        let db = db();
        let plan = compile(&cf_workflow(), &db.catalog()).unwrap();
        let text = plan.explain();
        // Two Recommend operators (Figure 5b) and two ratings extends.
        assert_eq!(text.matches("Recommend").count(), 2, "{text}");
        assert_eq!(text.matches("Extend ratings").count(), 2, "{text}");
        assert!(text.contains("rating_lookup"), "{text}");
        assert!(text.contains("inverse_euclidean"), "{text}");
    }

    #[test]
    fn compiled_matches_interpreter_for_cf() {
        let db = db();
        let wf = cf_workflow();
        let direct = exec::execute(&wf, &db.catalog()).unwrap();
        let compiled = compile_and_run(&wf, &db.catalog()).unwrap();
        assert_eq!(compiled.result, direct);
    }

    #[test]
    fn cf_scores_are_correct() {
        let db = db();
        let run = compile_and_run(&cf_workflow(), &db.catalog()).unwrap();
        let m: HashMap<Value, f64> = crate::ranking(&run.result, "CourseID", "score")
            .unwrap()
            .into_iter()
            .collect();
        // Similar students = Bob (identical on 1,3) and Tim.
        // Course 1: Bob 5.0, Tim 4.5 → 4.75.
        assert!((m[&Value::Int(1)] - 4.75).abs() < 1e-9, "{m:?}");
        assert!((m[&Value::Int(5)] - 5.0).abs() < 1e-9, "{m:?}");
    }

    #[test]
    fn step_timings_cover_all_phases() {
        let db = db();
        let run = compile_and_run(&cf_workflow(), &db.catalog()).unwrap();
        let labels: Vec<&str> = run.step_timings.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["Lower", "Optimize", "Execute"]);
        assert_eq!(run.step_timings[2].rows, run.result.rows.len());
        let breakdown = run.timing_breakdown();
        assert!(breakdown.contains("Execute"));
        assert!(breakdown.contains("total"));
    }

    #[test]
    fn fingerprint_is_stable_and_structural() {
        let db = db();
        let a = compile_and_run(&cf_workflow(), &db.catalog()).unwrap();
        let b = compile_and_run(&cf_workflow(), &db.catalog()).unwrap();
        assert_eq!(a.plan.fingerprint(), b.plan.fingerprint());
        // A different workflow fingerprints differently.
        let other = Workflow::new(
            "src",
            Node::Source {
                table: "Courses".into(),
            },
        );
        let c = compile_and_run(&other, &db.catalog()).unwrap();
        assert_ne!(a.plan.fingerprint(), c.plan.fingerprint());
    }

    #[test]
    fn explain_sql_renders_plan_lines() {
        let db = db();
        let lines = explain_sql(&cf_workflow(), &db.catalog()).unwrap();
        assert!(lines
            .iter()
            .any(|l| l.trim_start().starts_with("Recommend")));
        assert!(lines.iter().any(|l| l.trim_start().starts_with("Scan")));
        // Children are indented below their parents.
        assert!(lines[1].starts_with("  "), "{lines:?}");
    }

    #[test]
    fn exclude_seen_compiles_and_matches() {
        let db = db();
        let mut wf = cf_workflow();
        if let Node::Recommend { spec, .. } = &mut wf.root {
            spec.exclude_seen = Some(("CourseID".into(), "ratings".into()));
        }
        let direct = exec::execute(&wf, &db.catalog()).unwrap();
        let compiled = compile_and_run(&wf, &db.catalog()).unwrap();
        assert_eq!(compiled.result, direct);
    }

    #[test]
    fn null_comparison_in_or_matches_interpreter() {
        let db = db();
        db.execute_sql("CREATE TABLE n (id INT PRIMARY KEY, x INT)")
            .unwrap();
        db.execute_sql("INSERT INTO n VALUES (1, NULL), (2, 7), (3, 0)")
            .unwrap();
        // x > 5 is NULL-false for id=1, but id < 2 rescues it through OR.
        let wf = Workflow::new(
            "nulls",
            Node::Select {
                input: Box::new(Node::Source { table: "n".into() }),
                predicate: WfPredicate::Or(vec![
                    WfPredicate::cmp("x", CmpOp::Gt, 5i64),
                    WfPredicate::cmp("id", CmpOp::Lt, 2i64),
                ]),
            },
        );
        let direct = exec::execute(&wf, &db.catalog()).unwrap();
        let compiled = compile_and_run(&wf, &db.catalog()).unwrap();
        assert_eq!(compiled.result, direct);
        assert_eq!(compiled.result.rows.len(), 2); // ids 1 and 2
    }

    #[test]
    fn join_on_nested_column_rejected() {
        let db = db();
        let wf = Workflow::new(
            "bad",
            Node::Join {
                left: Box::new(extend_students()),
                right: Box::new(extend_students()),
                left_col: "ratings".into(),
                right_col: "SuID".into(),
            },
        );
        let err = compile(&wf, &db.catalog()).unwrap_err();
        assert!(err.to_string().contains("not scalar"), "{err}");
    }

    #[test]
    fn relational_only_workflow_matches_interpreter() {
        let db = db();
        let wf = Workflow::new(
            "rel",
            Node::Limit {
                input: Box::new(Node::Join {
                    left: Box::new(Node::Source {
                        table: "Comments".into(),
                    }),
                    right: Box::new(Node::Source {
                        table: "Courses".into(),
                    }),
                    left_col: "CourseID".into(),
                    right_col: "CourseID".into(),
                }),
                k: 5,
            },
        );
        let direct = exec::execute(&wf, &db.catalog()).unwrap();
        let compiled = compile_and_run(&wf, &db.catalog()).unwrap();
        assert_eq!(compiled.result, direct);
        assert_eq!(compiled.result.rows.len(), 5);
    }

    #[test]
    fn union_and_projection_match_interpreter() {
        let db = db();
        let wf = Workflow::new(
            "u",
            Node::Project {
                input: Box::new(Node::Union {
                    left: Box::new(Node::Source {
                        table: "Courses".into(),
                    }),
                    right: Box::new(Node::Source {
                        table: "Courses".into(),
                    }),
                }),
                columns: vec!["Title".into()],
            },
        );
        let direct = exec::execute(&wf, &db.catalog()).unwrap();
        let compiled = compile_and_run(&wf, &db.catalog()).unwrap();
        assert_eq!(compiled.result, direct);
        assert_eq!(compiled.result.rows.len(), 8);
    }

    #[test]
    fn text_similarity_matches_interpreter() {
        let db = db();
        let wf = Workflow::new(
            "related",
            Node::Recommend {
                target: Box::new(Node::Select {
                    input: Box::new(Node::Source {
                        table: "Courses".into(),
                    }),
                    predicate: WfPredicate::cmp("CourseID", CmpOp::NotEq, 1i64),
                }),
                comparator: Box::new(Node::Select {
                    input: Box::new(Node::Source {
                        table: "Courses".into(),
                    }),
                    predicate: WfPredicate::eq("CourseID", 1i64),
                }),
                spec: RecommendSpec::new("Title", "Title", RecMethod::Text(TextSim::WordJaccard))
                    .top_k(3),
            },
        );
        let direct = exec::execute(&wf, &db.catalog()).unwrap();
        let compiled = compile_and_run(&wf, &db.catalog()).unwrap();
        assert_eq!(compiled.result, direct);
        let ranking = crate::ranking(&compiled.result, "CourseID", "score").unwrap();
        assert_eq!(ranking[0].0, Value::Int(2));
    }
}
