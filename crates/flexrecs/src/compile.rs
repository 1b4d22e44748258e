//! Workflow → logical-plan compilation.
//!
//! §3.2: "The engine executes a workflow by 'compiling' it into a sequence
//! of SQL calls, which are executed by a conventional DBMS." Our engine
//! *is* the DBMS, so compilation targets its query IR directly: every
//! workflow operator lowers to a [`LogicalPlan`] node — relational
//! operators to scans/filters/projections/joins, the ε extend and ▷
//! recommend operators to the plan's first-class `Extend`/`Recommend`
//! nodes — and the whole plan then flows through the same optimizer and
//! (parallel) executor as SQL queries. One IR, one optimizer, one
//! executor.
//!
//! The direct interpreter in [`crate::exec`] survives as the reference
//! semantics; `tests/flexrecs_plan_equivalence.rs` property-tests that the
//! compiled plan returns byte-identical results.
//!
//! Lowering is purely structural:
//!
//! * names resolve positionally, first case-insensitive match — the same
//!   rule as the interpreter's `WfSchema::index_of`;
//! * predicates lower to two-valued expressions
//!   (`col IS NOT NULL AND col op lit`) so NULL comparisons behave as
//!   `false` inside `OR`, exactly like the interpreter;
//! * the extend operator's related table becomes a projected sub-plan
//!   `[fk, key(, rating)]`, so the optimizer can treat it like any other
//!   input.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cr_relation::plan::{optimizer, JoinKind, LogicalPlan, RecAggPlan, RecSpec};
use cr_relation::{
    Catalog, Column, DataType, ExecOptions, Expr, RelError, RelResult, Schema, Value,
};

use crate::datum::{Datum, WfSchema};
use crate::exec::RecResult;
use crate::workflow::{infer_schema, CmpOp, Node, RecAgg, WfPredicate, Workflow};

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
    pub result: RecResult,
    /// The optimized plan that was executed.
    pub plan: LogicalPlan,
    /// Fingerprint of the optimized plan (cache key material).
    pub fingerprint: u64,
    /// Wall-clock timing per phase (lower, optimize, execute).
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
    let plan = lower(&workflow.root, catalog)?;
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

/// Compile and run a workflow on the plan pipeline with default execution
/// options.
pub fn compile_and_run(workflow: &Workflow, catalog: &Catalog) -> RelResult<CompiledRun> {
    compile_and_run_with(workflow, catalog, &ExecOptions::default())
}

/// [`compile_and_run`] with explicit execution options.
pub fn compile_and_run_with(
    workflow: &Workflow,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> RelResult<CompiledRun> {
    run_phases(workflow, catalog, opts, || {
        let out_schema = infer_schema(&workflow.root, catalog)?;
        Ok((out_schema, lower(&workflow.root, catalog)?))
    })
}

/// Optimize and run `plan`, which [`compile`] lowered from `workflow`:
/// [`compile_and_run_with`] for a caller that needed the unoptimized plan
/// first (to key a cache by its fingerprint), so the workflow is lowered
/// once. Its "Lower" step only infers the output schema.
pub fn run_compiled(
    workflow: &Workflow,
    plan: LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> RelResult<CompiledRun> {
    run_phases(workflow, catalog, opts, || {
        Ok((infer_schema(&workflow.root, catalog)?, plan))
    })
}

/// The timed phases of a compiled run: `lower` (the workflow's output
/// schema and unoptimized plan), optimize, execute.
fn run_phases(
    workflow: &Workflow,
    catalog: &Catalog,
    opts: &ExecOptions,
    lower: impl FnOnce() -> RelResult<(WfSchema, LogicalPlan)>,
) -> RelResult<CompiledRun> {
    let mut run_span = cr_obs::trace::TraceSpan::child("flexrecs.run");
    if run_span.is_recording() {
        run_span.attr("workflow", workflow.name.to_string());
    }
    let started = Instant::now();
    let mut steps = Vec::with_capacity(3);
    let mut phase = |label: &str, rows: usize, elapsed: Duration| {
        if cr_obs::enabled() {
            metrics().step_ns.record_duration(elapsed);
        }
        steps.push(StepTiming {
            label: label.to_owned(),
            rows,
            elapsed,
        });
    };

    let t0 = Instant::now();
    let (out_schema, plan) = {
        let _stage = cr_obs::trace::TraceSpan::child("flexrecs.lower");
        lower()?
    };
    phase("Lower", 0, t0.elapsed());

    let t0 = Instant::now();
    let plan = {
        let _stage = cr_obs::trace::TraceSpan::child("flexrecs.optimize");
        optimizer::optimize(plan)
    };
    phase("Optimize", 0, t0.elapsed());

    let t0 = Instant::now();
    let rs = {
        let _stage = cr_obs::trace::TraceSpan::child("flexrecs.execute");
        cr_relation::exec::execute_with(&plan, catalog, opts)?
    };
    phase("Execute", rs.rows.len(), t0.elapsed());

    let tuples = rs
        .rows
        .into_iter()
        .map(|r| r.into_iter().map(value_to_datum).collect())
        .collect();
    if cr_obs::enabled() {
        let m = metrics();
        m.compiled_runs.inc();
        m.run_ns.record_duration(started.elapsed());
    }
    let fingerprint = plan.fingerprint();
    Ok(CompiledRun {
        result: RecResult {
            schema: out_schema,
            tuples,
        },
        plan,
        fingerprint,
        step_timings: steps,
    })
}

/// Pretty-print the optimized plan a workflow compiles to, one operator
/// per line (indented children). Historically this returned the compiled
/// SQL step list; it now renders the plan the unified pipeline executes.
pub fn explain_sql(workflow: &Workflow, catalog: &Catalog) -> RelResult<Vec<String>> {
    let plan = optimizer::optimize(compile(workflow, catalog)?);
    Ok(plan.explain().lines().map(str::to_owned).collect())
}

fn value_to_datum(v: Value) -> Datum {
    match v {
        Value::Set(items) => Datum::Set(items),
        Value::Ratings(r) => Datum::Ratings(r),
        other => Datum::Scalar(other),
    }
}

/// Positional name resolution: first case-insensitive match, qualifiers
/// ignored — the workflow layer's `WfSchema::index_of` rule (NOT the SQL
/// binder's ambiguity-rejecting `Schema::resolve`).
fn resolve(schema: &Schema, name: &str) -> RelResult<usize> {
    (0..schema.len())
        .find(|&i| schema.column(i).name.eq_ignore_ascii_case(name))
        .ok_or_else(|| RelError::UnknownColumn(name.to_owned()))
}

fn lower(node: &Node, catalog: &Catalog) -> RelResult<LogicalPlan> {
    match node {
        Node::Source { table } => {
            let schema = catalog.table_schema(table)?;
            Ok(LogicalPlan::Scan {
                table: table.clone(),
                alias: None,
                projection: None,
                filter: None,
                schema,
            })
        }

        Node::Select { input, predicate } => {
            let input = lower(input, catalog)?;
            let predicate = lower_predicate(predicate, input.schema())?;
            Ok(LogicalPlan::Filter {
                input: Box::new(input),
                predicate,
            })
        }

        Node::Project { input, columns } => {
            let input = lower(input, catalog)?;
            let mut exprs = Vec::with_capacity(columns.len());
            let mut schema = Schema::default();
            for c in columns {
                let i = resolve(input.schema(), c)?;
                let col = input.schema().column(i);
                schema.push(
                    Column {
                        name: c.clone(),
                        data_type: col.data_type,
                        nullable: col.nullable,
                    },
                    None,
                );
                exprs.push((Expr::col_idx(i), c.clone()));
            }
            Ok(LogicalPlan::Project {
                input: Box::new(input),
                exprs,
                schema,
            })
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
            let left_w = l.schema().len();
            let schema = l.schema().join(r.schema());
            Ok(LogicalPlan::Join {
                left: Box::new(l),
                right: Box::new(r),
                kind: JoinKind::Inner,
                on: Expr::col_idx(li).eq(Expr::col_idx(left_w + ri)),
                schema,
            })
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
                rel_schema.index_of(fk_column)?,
                rel_schema.index_of(key_column)?,
            ];
            let rating = rating_column.is_some();
            if let Some(rc) = rating_column {
                proj.push(rel_schema.index_of(rc)?);
            }
            let related_out = LogicalPlan::scan_output_schema(&rel_schema, &Some(proj.clone()));
            let related = LogicalPlan::Scan {
                table: related_table.clone(),
                alias: None,
                projection: Some(proj),
                filter: None,
                schema: related_out,
            };
            let mut schema = input.schema().clone();
            schema.push(
                Column::new(
                    as_name,
                    if rating {
                        DataType::Ratings
                    } else {
                        DataType::Set
                    },
                ),
                None,
            );
            Ok(LogicalPlan::Extend {
                input: Box::new(input),
                related: Box::new(related),
                key_col,
                rating,
                as_name: as_name.clone(),
                schema,
            })
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
            let mut schema = t.schema().clone();
            schema.push(Column::new(&spec.score_name, DataType::Float), None);
            Ok(LogicalPlan::Recommend {
                target: Box::new(t),
                comparator: Box::new(c),
                spec: plan_spec,
                schema,
            })
        }

        Node::Limit { input, k } => Ok(LogicalPlan::Limit {
            input: Box::new(lower(input, catalog)?),
            limit: Some(*k),
            offset: 0,
        }),

        Node::Union { left, right } => Ok(LogicalPlan::Union {
            left: Box::new(lower(left, catalog)?),
            right: Box::new(lower(right, catalog)?),
        }),
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
    use cr_relation::Database;
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
        let m: HashMap<Value, f64> = run
            .result
            .ranking("CourseID", "score")
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
        assert_eq!(run.step_timings[2].rows, run.result.tuples.len());
        let breakdown = run.timing_breakdown();
        assert!(breakdown.contains("Execute"));
        assert!(breakdown.contains("total"));
    }

    #[test]
    fn fingerprint_is_stable_and_structural() {
        let db = db();
        let a = compile_and_run(&cf_workflow(), &db.catalog()).unwrap();
        let b = compile_and_run(&cf_workflow(), &db.catalog()).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        // A different workflow fingerprints differently.
        let other = Workflow::new(
            "src",
            Node::Source {
                table: "Courses".into(),
            },
        );
        let c = compile_and_run(&other, &db.catalog()).unwrap();
        assert_ne!(a.fingerprint, c.fingerprint);
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
        assert_eq!(compiled.result.tuples.len(), 2); // ids 1 and 2
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
        assert_eq!(compiled.result.tuples.len(), 5);
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
        assert_eq!(compiled.result.tuples.len(), 8);
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
        let ranking = compiled.result.ranking("CourseID", "score").unwrap();
        assert_eq!(ranking[0].0, Value::Int(2));
    }
}
