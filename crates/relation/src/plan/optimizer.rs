//! Logical-plan rewrites.
//!
//! Three classic passes, each one walk of the plan, in this order. Each
//! walks through [`LogicalPlan::map_children`] and
//! [`LogicalPlan::map_exprs`], so an operator is visited without the pass
//! naming it unless the pass treats it specially:
//!
//! 1. **Constant folding** — every expression every operator carries is
//!    folded (one line: nothing here names an operator).
//! 2. **Predicate pushdown** — filters sink through filters, joins,
//!    Extend and Recommend (one conjunct router for all three) and merge
//!    into scans, where the executor can serve them from an index.
//! 3. **Required columns** — one top-down walk pushes the set of columns
//!    each operator's parent reads through Filter, Project, Join (keys
//!    and residual), Aggregate (group keys and arguments), Sort, Limit and
//!    Union into every `Scan.projection`, remapping each parent's
//!    expressions on the way back up. A join then gathers only the
//!    columns above it read — `Courses.Description` is never cloned to
//!    count enrollments — and a dead `Extend` disappears. The per-operator
//!    rule is `child_reads`, the same function the unused-extend
//!    warning (W104) walks with. Extend and Recommend inputs keep every
//!    column, and the root schema never changes.

use crate::expr::Expr;

use super::logical::{JoinKind, LogicalPlan};
use super::rec::RecSpec;
use super::validate::child_reads;

/// A named rewrite rule: a whole-plan transformation.
type Rule = (&'static str, fn(LogicalPlan) -> LogicalPlan);

/// The rewrite rules, in application order. Naming each rule lets the
/// debug-build soundness harness attribute a violation to the rule that
/// introduced it.
const RULES: &[Rule] = &[
    ("fold_constants", fold_constants),
    ("push_down_predicates", push_down_predicates),
    ("prune_columns", prune_columns),
];

/// Optimize a plan. Idempotent.
///
/// In debug builds, the plan validator and a root-schema equality check run
/// after *every* rule; a rule that produces an ill-formed plan or changes
/// the output schema panics with the rule's name, the diagnostics, and the
/// offending plan — so optimizer bugs surface at the rewrite that caused
/// them instead of as wrong results downstream.
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    #[cfg(debug_assertions)]
    let schema_before = plan.schema().clone();
    // A plan that is invalid on entry is not an optimizer bug — skip the
    // harness and let downstream validation or execution report it.
    #[cfg(debug_assertions)]
    let input_valid = !super::validate::validate(&plan).has_errors();
    let mut plan = plan;
    for (_name, rule) in RULES {
        plan = rule(plan);
        #[cfg(debug_assertions)]
        if input_valid {
            assert_rule_sound(_name, &plan, &schema_before);
        }
    }
    plan
}

/// Debug-build soundness check: every rewrite must keep the plan valid and
/// preserve the root output schema.
#[cfg(debug_assertions)]
fn assert_rule_sound(rule: &str, plan: &LogicalPlan, schema_before: &crate::schema::Schema) {
    let report = super::validate::validate(plan);
    if report.has_errors() {
        panic!(
            "optimizer rule `{rule}` produced an invalid plan:\n{report}\nplan:\n{}",
            plan.explain()
        );
    }
    if plan.schema() != schema_before {
        panic!(
            "optimizer rule `{rule}` changed the root output schema:\nbefore: {schema_before:?}\nafter:  {:?}\nplan:\n{}",
            plan.schema(),
            plan.explain()
        );
    }
}

/// Fold constant subexpressions everywhere.
///
/// Folding runs through the batched evaluator ([`Expr::fold`]): a
/// literal-only subtree is evaluated as a one-row batch, so the optimizer
/// exercises exactly the code the executor will run, and the validator's
/// W101/W102 checks fold with the same function.
fn fold_constants(plan: LogicalPlan) -> LogicalPlan {
    plan.map_children(fold_constants).map_exprs(|e| e.fold())
}

/// Push filters down as far as they can go, bottom-up.
fn push_down_predicates(plan: LogicalPlan) -> LogicalPlan {
    let plan = plan.map_children(push_down_predicates);
    if let LogicalPlan::Filter { input, predicate } = plan {
        push_filter(*input, predicate)
    } else {
        plan
    }
}

fn push_filter(input: LogicalPlan, predicate: Expr) -> LogicalPlan {
    match input {
        // Filter ∘ Filter → merge conjunctions and retry.
        LogicalPlan::Filter {
            input: inner,
            predicate: inner_pred,
        } => push_filter(*inner, inner_pred.and(predicate)),

        // Filter ∘ Scan → merge into scan filter. The scan's own filter is
        // bound against the *full* table schema; a filter above the scan is
        // bound against the scan's (possibly projected) output. Only merge
        // when no projection intervenes; otherwise keep the filter node.
        LogicalPlan::Scan {
            table,
            alias,
            projection: None,
            filter,
            schema,
        } => LogicalPlan::Scan {
            table,
            alias,
            projection: None,
            filter: Some(match filter {
                Some(f) => f.and(predicate),
                None => predicate,
            }),
            schema,
        },

        // Filter ∘ Join → route conjuncts that reference only one side.
        // For LEFT OUTER joins, pushing a predicate to the right side
        // changes semantics (it would filter before the null-extension);
        // pushing left is always safe.
        LogicalPlan::Join { ref left, kind, .. } => {
            let lw = left.schema().len();
            sink_conjuncts(input, predicate, |cols| {
                if cols.iter().all(|&c| c < lw) {
                    Some((0, 0))
                } else if cols.iter().all(|&c| c >= lw) && kind == JoinKind::Inner {
                    Some((1, lw))
                } else {
                    None
                }
            })
        }

        // Filter ∘ Extend / Recommend → conjuncts that don't touch the
        // appended column (always the last: the nested set, the score)
        // filter the same rows before or after the operator, so they sink
        // into the first input. For Recommend only without a top-k: with
        // one, filtering before scoring changes *which* rows make the cut,
        // not just which survive the filter.
        LogicalPlan::Extend { ref schema, .. }
        | LogicalPlan::Recommend {
            ref schema,
            spec: RecSpec { k: None, .. },
            ..
        } => {
            let width = schema.len() - 1;
            sink_conjuncts(input, predicate, |cols| {
                cols.iter().all(|&c| c < width).then_some((0, 0))
            })
        }

        // Anything else, a new operator included: leave the filter in
        // place. Safe for every variant — a filter left where it is
        // filters the same rows; it only forgoes an earlier cut.
        other => LogicalPlan::Filter {
            input: Box::new(other),
            predicate,
        },
    }
}

/// Split `predicate` into conjuncts and sink each one `route` sends to a
/// child of `node` — `Some((child, offset))`, the child's position in
/// [`LogicalPlan::children`] and how far its columns sit from the
/// node's — into that child, rebased. The rest stay in a filter above.
fn sink_conjuncts(
    node: LogicalPlan,
    predicate: Expr,
    route: impl Fn(&[usize]) -> Option<(usize, usize)>,
) -> LogicalPlan {
    let mut below: [Vec<Expr>; 2] = Default::default();
    let mut keep = Vec::new();
    for part in predicate.split_conjunction() {
        let mut cols = Vec::new();
        part.referenced_columns(&mut cols);
        match route(&cols) {
            Some((child, offset)) => below[child].push(part.map_columns(&|c| c - offset)),
            None => keep.push(part),
        }
    }
    let mut below = below.into_iter();
    let node = node.map_children(|child| match below.next() {
        Some(parts) if !parts.is_empty() => push_filter(child, Expr::conjoin(parts)),
        _ => child,
    });
    if keep.is_empty() {
        node
    } else {
        LogicalPlan::Filter {
            input: Box::new(node),
            predicate: Expr::conjoin(keep),
        }
    }
}

/// Narrow every scan to the columns the operators above it read.
fn prune_columns(plan: LogicalPlan) -> LogicalPlan {
    narrow(plan, None).0
}

/// The old output positions a rewritten node still produces, ascending;
/// `None` when it still produces every column in place.
type Kept = Option<Vec<usize>>;

/// Rewrite `plan` so that it produces (at least) the `required` positions
/// of its output — `None` meaning all of them — and report which it kept
/// so the caller can remap its own expressions.
///
/// The requirements come from the one required-column rule
/// ([`child_reads`]); each node's expressions are remapped through
/// [`LogicalPlan::map_exprs`]. Only row-preserving operators whose output
/// is the concatenation or pass-through of their inputs' (Scan, Filter,
/// Join, Sort, Limit, Union) narrow their output; Project and Aggregate
/// keep theirs and narrow below; Extend and Recommend keep every column of
/// their inputs (the nest-image fast path and the score ranking read
/// whole rows), except that an Extend whose nested column nobody reads is
/// dropped outright — its nest-map build is dead work.
fn narrow(plan: LogicalPlan, required: Option<&[usize]>) -> (LogicalPlan, Kept) {
    // A set naming every column (or one out of range: an invalid plan,
    // left for validation to report) asks for nothing to be dropped.
    let width = plan.schema().len();
    let required = required.filter(|r| r.len() < width && r.last().is_none_or(|&c| c < width));
    // Project and Aggregate keep their output, so they read for all of it.
    let keeps_output = matches!(
        plan,
        LogicalPlan::Project { .. } | LogicalPlan::Aggregate { .. }
    );
    let mut reads = child_reads(&plan, if keeps_output { None } else { required }).into_iter();
    let mut next = || reads.next().flatten();
    match plan {
        // A projection its schema disagrees with is invalid: leave it.
        LogicalPlan::Scan {
            table,
            alias,
            projection,
            filter,
            schema,
        } if required.is_some() && projection.as_ref().is_none_or(|p| p.len() == schema.len()) => {
            let kept = required.unwrap_or_default().to_vec();
            // The filter stays bound to the full table schema.
            let projection = kept
                .iter()
                .map(|&i| projection.as_ref().map_or(i, |p| p[i]))
                .collect();
            let scan = LogicalPlan::Scan {
                table,
                alias,
                projection: Some(projection),
                filter,
                schema: schema.pick(&kept),
            };
            (scan, Some(kept))
        }

        // One input: narrow it and remap the node's expressions onto what
        // it kept. Filter, Sort and Limit then pass the kept positions up.
        node @ (LogicalPlan::Filter { .. }
        | LogicalPlan::Project { .. }
        | LogicalPlan::Aggregate { .. }
        | LogicalPlan::Sort { .. }
        | LogicalPlan::Limit { .. }) => {
            let mut kept = None;
            let node = node.map_children(|input| {
                let (input, k) = narrow(input, next().as_deref());
                kept = k;
                input
            });
            let node = node.map_exprs(|e| remap(e, &kept));
            (node, if keeps_output { None } else { kept })
        }

        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            schema,
        } => {
            let (lw, rw) = (left.schema().len(), right.schema().len());
            // A join whose stored schema is not its sides' is invalid:
            // narrow nothing at this level and leave it for validation.
            let (lreq, rreq) = match schema.len() == lw + rw {
                true => (next(), next()),
                false => (None, None),
            };
            let (left, lkept) = narrow(*left, lreq.as_deref());
            let (right, rkept) = narrow(*right, rreq.as_deref());
            if lkept.is_none() && rkept.is_none() {
                let join = LogicalPlan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    kind,
                    on,
                    schema,
                };
                return (join, None);
            }
            let kept: Vec<usize> = positions(lkept, lw)
                .into_iter()
                .chain(positions(rkept, rw).into_iter().map(|c| c + lw))
                .collect();
            let join = LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on: remap(on, &Some(kept.clone())),
                schema: schema.pick(&kept),
            };
            (join, Some(kept))
        }

        // Both sides must keep the same positions. Each keeps at least what
        // it is asked for, so asking both for the union of what they kept
        // converges (at worst on "everything").
        LogicalPlan::Union { left, right } if required.is_some() => {
            let mut want = required.map(<[usize]>::to_vec);
            loop {
                let (l, lkept) = narrow((*left).clone(), want.as_deref());
                let (r, rkept) = narrow((*right).clone(), want.as_deref());
                if lkept == rkept {
                    let union = LogicalPlan::Union {
                        left: Box::new(l),
                        right: Box::new(r),
                    };
                    return (union, lkept);
                }
                want = lkept.zip(rkept).map(|(mut a, b)| {
                    a.extend(b);
                    a.sort_unstable();
                    a.dedup();
                    a
                });
            }
        }

        // Nobody reads the nested column (always the last): the Extend
        // only appends it, so its input serves the same columns.
        LogicalPlan::Extend { input, .. }
            if required.is_some_and(|req| req.binary_search(&input.schema().len()).is_err()) =>
        {
            narrow(*input, required)
        }

        // Every input keeps every column (the nest-image fast path and the
        // score ranking read whole rows; a Union asked for all of its
        // output needs all of both sides), narrowed only below.
        node @ (LogicalPlan::Scan { .. }
        | LogicalPlan::Union { .. }
        | LogicalPlan::Extend { .. }
        | LogicalPlan::Recommend { .. }
        | LogicalPlan::Values { .. }) => (node.map_children(|c| narrow(c, None).0), None),
    }
}

/// Every position a node of `width` columns kept.
fn positions(kept: Kept, width: usize) -> Vec<usize> {
    kept.unwrap_or_else(|| (0..width).collect())
}

/// Rebind `e` from a child's old output positions to the ones it kept.
/// Every column `e` reads was required of the child, so it was kept; a
/// reference out of range (an invalid plan) stays out of range.
fn remap(e: Expr, kept: &Kept) -> Expr {
    match kept {
        None => e,
        Some(kept) => e.map_columns(&|c| kept.binary_search(&c).unwrap_or(c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::plan::PlanBuilder;
    use crate::row::row;
    use crate::schema::{Column, DataType, Schema};

    fn setup() -> Catalog {
        let c = Catalog::new();
        c.create_table(
            "t",
            Schema::qualified(
                "t",
                vec![
                    Column::not_null("id", DataType::Int),
                    Column::new("dep", DataType::Text),
                    Column::new("units", DataType::Int),
                ],
            ),
            vec![0],
        )
        .unwrap();
        c.create_table(
            "u",
            Schema::qualified(
                "u",
                vec![
                    Column::not_null("id", DataType::Int),
                    Column::new("t_id", DataType::Int),
                ],
            ),
            vec![0],
        )
        .unwrap();
        c.with_table_mut("t", |t| {
            t.insert(row![1i64, "CS", 5i64])?;
            t.insert(row![2i64, "HIST", 3i64])
        })
        .unwrap()
        .unwrap();
        c
    }

    #[test]
    fn constant_folding_runs_through_kernels() {
        // The rule folds via Expr::fold (one-row batch evaluation);
        // optimize() runs it under the debug-build soundness harness, so
        // a kernel-vs-row folding divergence would panic here.
        let c = setup();
        let plan = PlanBuilder::scan(&c, "t")
            .unwrap()
            .filter(
                Expr::col("units").gt(Expr::lit(1i64).add(Expr::lit(2i64).mul(Expr::lit(2i64)))),
            )
            .unwrap()
            .project(vec![(Expr::lit(10i64).add(Expr::lit(32i64)), "x")])
            .unwrap()
            .build();
        let opt = optimize(plan);
        let rendered = opt.explain();
        assert!(
            rendered.contains('5') && !rendered.contains('*'),
            "filter literals must fold to 5:\n{rendered}"
        );
        assert!(
            rendered.contains("42"),
            "projection must fold to 42:\n{rendered}"
        );
    }

    #[test]
    fn constant_folding_reaches_every_expression() {
        // One foldable constant in every expression a plan node carries:
        // scan filter, filter predicate, projection, join condition, group
        // key, aggregate argument, sort key. None may survive.
        use crate::plan::{AggExpr, AggFn};
        let c = setup();
        let two = || Expr::lit(1i64).add(Expr::lit(1i64));
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            alias: None,
            projection: None,
            filter: Some(Expr::col_idx(0).gt(two())),
            schema: c.table_schema("t").unwrap(),
        };
        let plan = PlanBuilder::from_plan(scan)
            .join(
                PlanBuilder::scan(&c, "u").unwrap(),
                JoinKind::Inner,
                Expr::col("t.id").add(two()).eq(Expr::col("u.t_id")),
            )
            .unwrap()
            .filter(Expr::col("t.units").lt(two()))
            .unwrap()
            .project(vec![
                (Expr::col("t.dep"), "dep"),
                (Expr::col("t.units").mul(two()), "u2"),
            ])
            .unwrap()
            .aggregate(
                vec![Expr::col_idx(1).add(two())],
                vec![AggExpr {
                    func: AggFn::Sum,
                    arg: Expr::col_idx(1).mul(two()),
                    distinct: false,
                    name: "s".into(),
                }],
            )
            .unwrap()
            .sort(vec![(Expr::col_idx(1).add(two()), true)])
            .unwrap()
            .build();
        let before = plan.explain();
        assert_eq!(before.matches("(1 + 1)").count(), 7, "{before}");
        let text = optimize(plan).explain();
        assert!(!text.contains("(1 + 1)"), "{text}");
        assert_eq!(text.matches(" 2)").count(), 7, "{text}");
    }

    #[test]
    fn filter_merges_into_scan() {
        let c = setup();
        let plan = PlanBuilder::scan(&c, "t")
            .unwrap()
            .filter(Expr::col("units").gt(Expr::lit(3i64)))
            .unwrap()
            .build();
        let opt = optimize(plan);
        match opt {
            LogicalPlan::Scan { filter, .. } => assert!(filter.is_some()),
            other => panic!("expected Scan, got {}", other.explain()),
        }
    }

    #[test]
    fn stacked_filters_merge() {
        let c = setup();
        let plan = PlanBuilder::scan(&c, "t")
            .unwrap()
            .filter(Expr::col("units").gt(Expr::lit(3i64)))
            .unwrap()
            .filter(Expr::col("dep").eq(Expr::lit("CS")))
            .unwrap()
            .build();
        let opt = optimize(plan);
        match &opt {
            LogicalPlan::Scan {
                filter: Some(f), ..
            } => {
                assert_eq!(f.split_conjunction().len(), 2);
            }
            other => panic!("expected Scan with merged filter, got {}", other.explain()),
        }
    }

    #[test]
    fn filter_splits_across_join() {
        let c = setup();
        let left = PlanBuilder::scan(&c, "t").unwrap();
        let right = PlanBuilder::scan(&c, "u").unwrap();
        let plan = left
            .join(
                right,
                JoinKind::Inner,
                Expr::col("t.id").eq(Expr::col("u.t_id")),
            )
            .unwrap()
            .filter(
                Expr::col("t.units")
                    .gt(Expr::lit(3i64))
                    .and(Expr::col("u.id").lt(Expr::lit(100i64))),
            )
            .unwrap()
            .build();
        let opt = optimize(plan);
        // Both conjuncts should have sunk into the scans.
        match &opt {
            LogicalPlan::Join { left, right, .. } => {
                assert!(matches!(
                    **left,
                    LogicalPlan::Scan {
                        filter: Some(_),
                        ..
                    }
                ));
                assert!(matches!(
                    **right,
                    LogicalPlan::Scan {
                        filter: Some(_),
                        ..
                    }
                ));
            }
            other => panic!("expected Join at root, got {}", other.explain()),
        }
    }

    #[test]
    fn left_outer_does_not_push_right() {
        let c = setup();
        let left = PlanBuilder::scan(&c, "t").unwrap();
        let right = PlanBuilder::scan(&c, "u").unwrap();
        let plan = left
            .join(
                right,
                JoinKind::LeftOuter,
                Expr::col("t.id").eq(Expr::col("u.t_id")),
            )
            .unwrap()
            .filter(Expr::col("u.id").lt(Expr::lit(100i64)))
            .unwrap()
            .build();
        let opt = optimize(plan);
        // Right-side predicate must stay above the join.
        assert!(matches!(opt, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn projection_prunes_scan() {
        let c = setup();
        let plan = PlanBuilder::scan(&c, "t")
            .unwrap()
            .project(vec![(Expr::col("dep"), "dep")])
            .unwrap()
            .build();
        let opt = optimize(plan);
        match &opt {
            LogicalPlan::Project { input, .. } => match &**input {
                LogicalPlan::Scan {
                    projection: Some(p),
                    ..
                } => assert_eq!(p, &vec![1]),
                other => panic!("expected pruned Scan, got {}", other.explain()),
            },
            other => panic!("expected Project, got {}", other.explain()),
        }
    }

    /// The CourseRank tables the analytics statements read, column for
    /// column.
    fn campus() -> crate::catalog::Database {
        let db = crate::catalog::Database::new();
        for ddl in [
            "CREATE TABLE Courses (CourseID INT PRIMARY KEY, DepID TEXT NOT NULL, \
             Title TEXT NOT NULL, Description TEXT, Units INT NOT NULL, Url TEXT)",
            "CREATE TABLE Enrollments (SuID INT, CourseID INT, Year INT, Term TEXT, Grade TEXT, \
             Status TEXT NOT NULL, PRIMARY KEY (SuID, CourseID, Year, Term))",
            "CREATE TABLE Comments (CommentID INT PRIMARY KEY, SuID INT NOT NULL, \
             CourseID INT NOT NULL, Year INT, Term TEXT, Text TEXT, Rating FLOAT, Date DATE)",
        ] {
            db.execute_sql(ddl).unwrap();
        }
        db
    }

    fn scan_lines(sql: &str, db: &crate::catalog::Database) -> Vec<String> {
        crate::sql::plan_query(sql, &db.catalog())
            .unwrap()
            .explain()
            .lines()
            .filter(|l| l.trim_start().starts_with("Scan"))
            .map(|l| l.trim().to_owned())
            .collect()
    }

    /// The three join + group-by statements of the benchmark's analytics
    /// mix.
    const ANALYTICS: [&str; 3] = [
        "SELECT c.DepID, COUNT(*) AS n, AVG(m.Rating) AS r FROM Comments m \
         JOIN Courses c ON c.CourseID = m.CourseID \
         WHERE m.Rating >= 2 AND c.Units >= 3 GROUP BY c.DepID ORDER BY n DESC",
        "SELECT e.CourseID, COUNT(*) AS n FROM Enrollments e \
         JOIN Courses c ON c.CourseID = e.CourseID \
         WHERE e.Year = 2007 AND c.Units >= 2 GROUP BY e.CourseID ORDER BY n DESC LIMIT 20",
        "SELECT c.DepID, COUNT(*) AS n, SUM(c.Units) AS u FROM Enrollments e \
         JOIN Courses c ON c.CourseID = e.CourseID \
         WHERE e.Year = 2008 AND c.Units >= 4 GROUP BY c.DepID ORDER BY u DESC",
    ];

    #[test]
    fn analytics_statements_scan_only_what_they_read() {
        // Each scan under the join reads its join key and what the
        // aggregate reads, nothing else; pushed filters stay bound to the
        // full table.
        let db = campus();
        let want = [
            [
                "Scan Comments AS m cols=[2, 6] filter=(#6 >= 2)",
                "Scan Courses AS c cols=[0, 1] filter=(#4 >= 3)",
            ],
            [
                "Scan Enrollments AS e cols=[1] filter=(#2 = 2007)",
                "Scan Courses AS c cols=[0] filter=(#4 >= 2)",
            ],
            [
                "Scan Enrollments AS e cols=[1] filter=(#2 = 2008)",
                "Scan Courses AS c cols=[0, 1, 4] filter=(#4 >= 4)",
            ],
        ];
        for (sql, want) in ANALYTICS.iter().zip(want) {
            assert_eq!(scan_lines(sql, &db), want, "{sql}");
        }
    }

    #[test]
    fn analytics_statements_take_the_dense_key_paths() {
        // Over a small campus, each join and group-by of the analytics
        // statements assigns group ids through its dense domain: the Int
        // CourseID by value, the Text DepID by arena entry. The sort under
        // LIMIT is a top-N. A fall back to hashing shows here.
        let db = campus();
        let courses: Vec<String> = (1..=40)
            .map(|i| format!("({i}, 'D{}', 'T{i}', NULL, {}, NULL)", i % 4, 1 + i % 5))
            .collect();
        let enrollments: Vec<String> = (0..300)
            .map(|i| {
                format!(
                    "({i}, {}, {}, 'Aut', 'A', 'taken')",
                    1 + i % 40,
                    2006 + i % 3
                )
            })
            .collect();
        let comments: Vec<String> = (0..120)
            .map(|i| {
                format!(
                    "({i}, {i}, {}, 2007, 'Aut', 'c', {}, NULL)",
                    1 + i % 40,
                    i % 5
                )
            })
            .collect();
        for (table, rows) in [
            ("Courses", courses),
            ("Enrollments", enrollments),
            ("Comments", comments),
        ] {
            db.execute_sql(&format!("INSERT INTO {table} VALUES {}", rows.join(", ")))
                .unwrap();
        }
        let want: [&[(&str, &str)]; 3] = [
            &[("HashJoin", "ids=dense:"), ("Aggregate", "ids=entries:")],
            &[
                ("HashJoin", "ids=dense:"),
                ("Aggregate", "ids=dense:"),
                ("Sort", "top=20"),
            ],
            &[("HashJoin", "ids=dense:"), ("Aggregate", "ids=entries:")],
        ];
        for (sql, want) in ANALYTICS.iter().zip(want) {
            let (rs, profile) = db.explain_analyze_sql(sql).unwrap();
            assert!(!rs.rows.is_empty(), "{sql}");
            for (op, detail) in want {
                let node = profile.find(op).unwrap();
                assert!(
                    node.detail.iter().any(|d| d.starts_with(detail)),
                    "{op} lacks {detail}:\n{}",
                    profile.render()
                );
            }
        }
    }

    #[test]
    fn narrowing_reaches_through_filters_sorts_limits_and_unions() {
        let c = setup();
        // A residual filter above a join keeps its columns; the union's
        // sides narrow to the same positions; `units` is read only by the
        // filter, `dep` by nobody.
        let left = PlanBuilder::scan(&c, "t").unwrap();
        let right = PlanBuilder::scan(&c, "u").unwrap();
        let joined = left
            .join(
                right,
                JoinKind::Inner,
                Expr::col("t.id").eq(Expr::col("u.t_id")),
            )
            .unwrap()
            .filter(Expr::col("t.units").gt(Expr::col("u.id")))
            .unwrap();
        let plan = joined
            .sort_by("u.id", false)
            .unwrap()
            .limit(5)
            .project(vec![(Expr::col("u.id"), "uid")])
            .unwrap()
            .build();
        let opt = optimize(plan.clone());
        let text = opt.explain();
        assert!(text.contains("Scan t cols=[0, 2]\n"), "{text}");
        assert!(text.contains("Scan u\n"), "{text}");
        let union = PlanBuilder::scan(&c, "t")
            .unwrap()
            .union(
                PlanBuilder::scan(&c, "t")
                    .unwrap()
                    .filter(Expr::col("units").gt(Expr::lit(3i64)))
                    .unwrap(),
            )
            .unwrap()
            .project(vec![(Expr::col_idx(1), "dep")])
            .unwrap()
            .build();
        let text = optimize(union).explain();
        assert_eq!(text.matches("cols=[1]").count(), 2, "{text}");
    }

    #[test]
    fn narrowing_composes_with_an_existing_projection() {
        let c = setup();
        let full = c.table_schema("t").unwrap();
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            alias: None,
            schema: full.pick(&[2, 0, 1]),
            projection: Some(vec![2, 0, 1]),
            filter: None,
        };
        let plan = PlanBuilder::from_plan(scan)
            .project(vec![(Expr::col_idx(2), "dep"), (Expr::col_idx(0), "units")])
            .unwrap()
            .build();
        match optimize(plan) {
            LogicalPlan::Project { input, exprs, .. } => {
                assert!(matches!(
                    &*input,
                    LogicalPlan::Scan { projection: Some(p), .. } if p == &vec![2, 1]
                ));
                assert_eq!(exprs[0].0, Expr::col_idx(1));
                assert_eq!(exprs[1].0, Expr::col_idx(0));
            }
            other => panic!("expected Project, got {}", other.explain()),
        }
    }

    fn extend_setup() -> Catalog {
        let c = setup();
        c.create_table(
            "taken",
            Schema::qualified(
                "taken",
                vec![
                    Column::not_null("sid", DataType::Int),
                    Column::new("course", DataType::Int),
                ],
            ),
            vec![0],
        )
        .unwrap();
        c
    }

    fn extended(c: &Catalog) -> PlanBuilder {
        let related = PlanBuilder::scan(c, "taken").unwrap();
        PlanBuilder::scan(c, "t")
            .unwrap()
            .extend(related, "id", false, "nested")
            .unwrap()
    }

    #[test]
    fn filter_pushes_through_extend() {
        let c = extend_setup();
        let plan = extended(&c)
            .filter(Expr::col("units").gt(Expr::lit(3i64)))
            .unwrap()
            .build();
        let opt = optimize(plan);
        // The predicate only touches input columns → sinks into the input
        // scan; the Extend floats to the root.
        match &opt {
            LogicalPlan::Extend { input, .. } => assert!(matches!(
                **input,
                LogicalPlan::Scan {
                    filter: Some(_),
                    ..
                }
            )),
            other => panic!("expected Extend at root, got {}", other.explain()),
        }
    }

    #[test]
    fn filter_on_nested_column_stays_above_extend() {
        let c = extend_setup();
        // Column #3 is the appended nested attribute.
        let plan = extended(&c)
            .filter(Expr::col_idx(3).eq(Expr::col_idx(3)))
            .unwrap()
            .build();
        let opt = optimize(plan);
        assert!(
            matches!(opt, LogicalPlan::Filter { .. }),
            "got {}",
            opt.explain()
        );
    }

    #[test]
    fn filter_pushes_through_recommend_without_topk() {
        use crate::plan::{RecAggPlan, RecMethod, RecSpec};
        use crate::similarity::SetSim;
        let c = extend_setup();
        let mk_spec = |k| RecSpec {
            target_col: 3,
            comparator_col: 3,
            method: RecMethod::Set(SetSim::Jaccard),
            agg: RecAggPlan::Max,
            k,
            unbounded_ok: false,
            score_name: "score".into(),
            exclude_seen: None,
        };
        let plan = extended(&c)
            .recommend(extended(&c), mk_spec(None))
            .unwrap()
            .filter(Expr::col("units").gt(Expr::lit(3i64)))
            .unwrap()
            .build();
        match optimize(plan) {
            LogicalPlan::Recommend { target, .. } => assert!(
                matches!(*target, LogicalPlan::Extend { .. }),
                "target-only filter should have sunk below Recommend"
            ),
            other => panic!("expected Recommend at root, got {}", other.explain()),
        }
        // With top-k, pre-filtering would change which rows make the cut:
        // the filter must stay above.
        let plan = extended(&c)
            .recommend(extended(&c), mk_spec(Some(5)))
            .unwrap()
            .filter(Expr::col("units").gt(Expr::lit(3i64)))
            .unwrap()
            .build();
        let opt = optimize(plan);
        assert!(
            matches!(opt, LogicalPlan::Filter { .. }),
            "got {}",
            opt.explain()
        );
    }

    #[test]
    fn dead_extend_eliminated_under_projection() {
        let c = extend_setup();
        let plan = extended(&c)
            .project(vec![(Expr::col("id"), "id"), (Expr::col("dep"), "dep")])
            .unwrap()
            .build();
        let opt = optimize(plan);
        // No projection expression reads the nested column → the Extend
        // (and its nest-map build) disappears entirely.
        fn has_extend(p: &LogicalPlan) -> bool {
            matches!(p, LogicalPlan::Extend { .. })
                || p.children()
                    .into_iter()
                    .flatten()
                    .any(|(_, c)| has_extend(c))
        }
        assert!(!has_extend(&opt), "got {}", opt.explain());
        // But a projection that does read it keeps the Extend.
        let plan = extended(&c)
            .project(vec![(Expr::col("nested"), "nested")])
            .unwrap()
            .build();
        let opt = optimize(plan);
        assert!(has_extend(&opt), "got {}", opt.explain());
    }

    #[test]
    fn unused_extend_warning_and_rewrite_share_the_rule_below_projects() {
        use crate::plan::validate::{analyze, W_UNUSED_EXTEND};
        let c = extend_setup();
        let warned = |p: &LogicalPlan| analyze(p, Some(&c)).has_code(W_UNUSED_EXTEND);
        let kept = |p: LogicalPlan| optimize(p).explain().contains("Extend");
        // Every operator between the Project and the Extend passes the
        // required set through: warned ⇔ dropped.
        let direct = extended(&c)
            .filter(Expr::col("units").gt(Expr::lit(1i64)))
            .unwrap()
            .sort_by("id", false)
            .unwrap()
            .project(vec![(Expr::col("id"), "id")])
            .unwrap()
            .build();
        assert!(warned(&direct) && !kept(direct));
        let read = extended(&c)
            .project(vec![(Expr::col("nested"), "n")])
            .unwrap()
            .build();
        assert!(!warned(&read) && kept(read));
        // A Project keeps its whole output, so one that still carries the
        // nested column keeps the Extend the warning calls dead above it.
        let stacked = extended(&c)
            .project(vec![(Expr::col("id"), "id"), (Expr::col("nested"), "n")])
            .unwrap()
            .project(vec![(Expr::col("id"), "id")])
            .unwrap()
            .build();
        assert!(warned(&stacked) && kept(stacked));
    }

    #[test]
    fn extend_inputs_keep_every_column() {
        // Only `id` and the nested column are read above, but the Extend's
        // input scan stays whole (the nest-image path and the recommend
        // ranking read whole rows). A Limit between the Extend and the
        // Project that drops the nested column still kills the Extend, and
        // its input then narrows like any other.
        let c = extend_setup();
        let plan = extended(&c)
            .project(vec![(Expr::col("id"), "id"), (Expr::col("nested"), "n")])
            .unwrap()
            .build();
        let text = optimize(plan).explain();
        assert!(
            text.contains("Scan t\n") && text.contains("Extend"),
            "{text}"
        );
        let plan = extended(&c)
            .limit(2)
            .project(vec![(Expr::col("dep"), "dep")])
            .unwrap()
            .build();
        let text = optimize(plan).explain();
        assert!(!text.contains("Extend"), "{text}");
        assert!(text.contains("Scan t cols=[1]\n"), "{text}");
    }

    #[test]
    fn optimizer_recurses_into_extend_subtrees() {
        let c = extend_setup();
        // A filter stacked inside the related side must still merge into
        // its scan (regression guard: map_children must recurse into
        // Extend/Recommend children, not treat them as leaves).
        let related = PlanBuilder::scan(&c, "taken")
            .unwrap()
            .filter(Expr::col("course").gt(Expr::lit(0i64)))
            .unwrap();
        let plan = PlanBuilder::scan(&c, "t")
            .unwrap()
            .extend(related, "id", false, "nested")
            .unwrap()
            .build();
        match optimize(plan) {
            LogicalPlan::Extend { related, .. } => assert!(
                matches!(
                    *related,
                    LogicalPlan::Scan {
                        filter: Some(_),
                        ..
                    }
                ),
                "related-side filter should merge into its scan"
            ),
            other => panic!("expected Extend, got {}", other.explain()),
        }
    }

    #[test]
    fn optimize_preserves_results() {
        use crate::catalog::Database;
        let db = Database::new();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, dep TEXT, units INT)")
            .unwrap();
        for i in 0..50 {
            db.execute_sql(&format!(
                "INSERT INTO t VALUES ({i}, '{}', {})",
                if i % 2 == 0 { "CS" } else { "HIST" },
                i % 6
            ))
            .unwrap();
        }
        let plan = PlanBuilder::scan(&db.catalog(), "t")
            .unwrap()
            .filter(Expr::col("units").gt(Expr::lit(2i64)))
            .unwrap()
            .project(vec![(Expr::col("id"), "id"), (Expr::col("units"), "units")])
            .unwrap()
            .build();
        let raw = db.run_plan_unoptimized(&plan).unwrap();
        let opt = db.run_plan(&plan).unwrap();
        let mut a = raw.rows.clone();
        let mut b = opt.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "produced an invalid plan")]
    fn soundness_harness_catches_invalid_plans() {
        // Simulate a rule that emitted an ill-formed plan (predicate
        // references a column that does not exist); the post-rule check
        // must trip and name the rule.
        let c = setup();
        let scan = PlanBuilder::scan(&c, "t").unwrap().build();
        let schema = scan.schema().clone();
        let bad = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: Expr::col_idx(99).eq(Expr::lit(1i64)),
        };
        assert_rule_sound("buggy_rule", &bad, &schema);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "changed the root output schema")]
    fn soundness_harness_catches_schema_drift() {
        let c = setup();
        let narrowed = PlanBuilder::scan(&c, "t")
            .unwrap()
            .select_columns(&["id"])
            .unwrap()
            .build();
        let wide = PlanBuilder::scan(&c, "t").unwrap().build();
        assert_rule_sound("buggy_rule", &narrowed, wide.schema());
    }

    /// Folding a typed expression to a bare NULL (`NOT NULL`,
    /// `LENGTH(NULL)`) keeps the plan valid: a NULL fits the declared
    /// column of any type, so the debug-build soundness check holds.
    #[test]
    fn expressions_folding_to_null_keep_the_plan_valid() {
        let db = crate::Database::new();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        db.execute_sql("INSERT INTO t VALUES (1, 2)").unwrap();
        for sql in [
            "SELECT NOT NULL, LENGTH(NULL), ROUND(NULL) FROM t",
            "SELECT NOT NULL AS k, MIN(NOT NULL) AS m, SUM(LENGTH(NULL)) AS s FROM t \
             GROUP BY NOT NULL",
        ] {
            let plan = crate::sql::plan_query(sql, &db.catalog()).unwrap();
            let report = super::super::validate::validate(&plan);
            assert!(!report.has_errors(), "{sql}: {report}");
            let rs = db.query_sql(sql).unwrap();
            assert!(
                rs.rows[0].iter().all(crate::Value::is_null),
                "{sql}: {:?}",
                rs.rows
            );
        }
    }

    #[test]
    fn invalid_input_plans_pass_through_without_panicking() {
        // optimize() must not panic on a plan that was already invalid —
        // that is the caller's bug, reported downstream, not a rule's.
        let c = setup();
        let scan = PlanBuilder::scan(&c, "t").unwrap().build();
        let bad = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: Expr::col_idx(99).eq(Expr::lit(1i64)),
        };
        let _ = optimize(bad);
    }
}
