//! PR7 differential testing: the vectorized (batch-at-a-time) executor is
//! an *optimization*, not an approximation. For any generated database,
//! query, or FlexRecs workflow, the batched pipeline must return
//! byte-identical results to the row-at-a-time reference executor
//! (`exec::oracle::execute`, called by name) — at every batch size, and
//! whether or not the run is profiled.
//!
//! Predicates and data are NULL-heavy on purpose: three-valued logic,
//! null join keys, null ratings, and null function arguments are where a
//! vectorized evaluator with validity bitmaps most easily diverges from a
//! row interpreter.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use cr_flexrecs::compile::compile;
use cr_flexrecs::{CmpOp, Node, RecAgg, RecMethod, RecommendSpec, WfPredicate, Workflow};
use cr_relation::plan::optimizer;
use cr_relation::{
    execute_instrumented_with, execute_with, Catalog, Database, ExecOptions, LogicalPlan,
    RatingsSim, RelResult, ResultSet, SetSim, TextSim, Value,
};
use proptest::prelude::*;

/// The batch sizes under test: degenerate (1 row per kernel call), odd
/// (chunk boundaries land mid-table), and the default.
const BATCH_SIZES: &[usize] = &[1, 7, 1024];

fn batched(b: usize) -> ExecOptions {
    ExecOptions { batch_size: b }
}

/// `plan` on the row-at-a-time reference executor: the ground truth.
fn oracle(plan: &LogicalPlan, catalog: &Catalog) -> RelResult<ResultSet> {
    cr_relation::exec::oracle::execute(plan, catalog)
}

/// Every walker: the row oracle (`None`), then the batched walker at
/// each batch size.
const ALL_WALKERS: &[Option<usize>] = &[None, Some(1), Some(7), Some(1024)];

/// `plan` on one of [`ALL_WALKERS`].
fn run_on(walker: Option<usize>, plan: &LogicalPlan, catalog: &Catalog) -> RelResult<ResultSet> {
    match walker {
        None => oracle(plan, catalog),
        Some(b) => execute_with(plan, catalog, &batched(b)),
    }
}

/// `wf` lowered and optimized: the plan `compile_and_run` executes.
fn workflow_plan(wf: &Workflow, catalog: &Catalog) -> LogicalPlan {
    optimizer::optimize(compile(wf, catalog).unwrap())
}

// ---------------------------------------------------------------------
// SQL: expression kernels, scans, joins, aggregation
// ---------------------------------------------------------------------

const STRINGS: &[&str] = &["alpha", "Beta", "GAMMA ray", "", "delta delta", "Epsilon"];

/// Two tables with NULL-able columns (0 becomes NULL), a text column for
/// the string kernels, and tombstones so scans straddle deleted slots.
fn build_db(rows1: &[(i64, i64, usize)], rows2: &[(i64, i64)]) -> Database {
    let db = Database::new();
    db.execute_sql("CREATE TABLE T1 (Id INT PRIMARY KEY, G INT, V INT, S TEXT)")
        .unwrap();
    db.execute_sql("CREATE TABLE T2 (Id INT PRIMARY KEY, K INT, W INT)")
        .unwrap();
    let null_or = |x: i64| {
        if x == 0 {
            "NULL".to_owned()
        } else {
            x.to_string()
        }
    };
    for (i, &(g, v, s)) in rows1.iter().enumerate() {
        db.execute_sql(&format!(
            "INSERT INTO T1 VALUES ({i}, {}, {v}, '{}')",
            null_or(g),
            STRINGS[s % STRINGS.len()]
        ))
        .unwrap();
    }
    for (i, &(k, w)) in rows2.iter().enumerate() {
        db.execute_sql(&format!("INSERT INTO T2 VALUES ({i}, {}, {w})", null_or(k)))
            .unwrap();
    }
    db.execute_sql("DELETE FROM T1 WHERE V = 3").unwrap();
    db
}

/// Queries chosen to hit every kernel family: comparison, arithmetic,
/// logic with NULLs, LIKE / IN / BETWEEN / IS NULL, string and math
/// scalar functions, joins (equi and outer), aggregation, sort + limit.
const QUERIES: &[&str] = &[
    "SELECT * FROM T1",
    "SELECT Id, V + G * 2, -V, ABS(V), ROUND(V / 3.0, 1) FROM T1",
    "SELECT COALESCE(G, -1), G IS NULL, NOT (V > 0) FROM T1",
    "SELECT LOWER(S), UPPER(S), LENGTH(S), SUBSTR(S, 2, 3), CONCAT(S, '-', G) FROM T1",
    "SELECT Id FROM T1 WHERE S LIKE '%a%' OR G IN (1, 2, NULL) AND V BETWEEN -5 AND 5",
    "SELECT Id FROM T1 WHERE G IS NULL OR (G >= 2 AND NOT (V < 0))",
    "SELECT T1.Id, T1.V, T2.W FROM T1 JOIN T2 ON T1.G = T2.K",
    "SELECT T1.Id, T2.Id FROM T1 LEFT JOIN T2 ON T1.G = T2.K WHERE T1.V <> 1",
    "SELECT G, COUNT(*) AS n, SUM(V) AS s, MIN(V) AS lo, MAX(V) AS hi, AVG(V) AS m \
     FROM T1 GROUP BY G HAVING COUNT(*) >= 1",
    "SELECT Id, V FROM T1 ORDER BY V DESC, Id LIMIT 5",
    "SELECT Id, V FROM T1 WHERE V > -100 ORDER BY G, Id LIMIT 4 OFFSET 2",
    // Int sums past 2^53, where an f64 accumulator would round.
    "SELECT G, SUM(V + 9007199254740992) AS big FROM T1 GROUP BY G",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_sql_matches_row_oracle(
        rows1 in proptest::collection::vec((0i64..6, -20i64..20, 0usize..6), 0..120),
        rows2 in proptest::collection::vec((0i64..6, -20i64..20), 0..80),
    ) {
        let db = build_db(&rows1, &rows2);
        let catalog = db.catalog();
        for q in QUERIES {
            assert_optimize_stable(&bind(q, &db));
            let plan = cr_relation::sql::plan_query(q, &catalog).unwrap();
            let row = oracle(&plan, &catalog).unwrap();
            for &b in BATCH_SIZES {
                let vec = execute_with(&plan, &catalog, &batched(b)).unwrap();
                prop_assert_eq!(&row, &vec, "batch_size={} diverged on {}", b, q);
            }
        }
    }

    /// Profiling is an observer: at every batch size the instrumented run
    /// returns the plain run's result, and its profile tree mirrors the
    /// plan node for node. (The oracle is unprofiled by design.)
    #[test]
    fn profiled_runs_match_plain_runs(
        rows1 in proptest::collection::vec((0i64..6, -20i64..20, 0usize..6), 0..120),
        rows2 in proptest::collection::vec((0i64..6, -20i64..20), 0..80),
    ) {
        let db = build_db(&rows1, &rows2);
        let catalog = db.catalog();
        for q in QUERIES {
            let plan = cr_relation::sql::plan_query(q, &catalog).unwrap();
            // `explain` prints one line per plan node.
            let plan_nodes = plan.explain().lines().count();
            for &b in BATCH_SIZES {
                let plain = execute_with(&plan, &catalog, &batched(b)).unwrap();
                let (rs, profile) = execute_instrumented_with(&plan, &catalog, &batched(b)).unwrap();
                prop_assert_eq!(&rs, &plain, "batch_size={} profiled run diverged on {}", b, q);
                prop_assert_eq!(profile.rows_out, rs.rows.len(), "batch_size={} on {}", b, q);
                prop_assert_eq!(
                    profile.operator_count(), plan_nodes,
                    "batch_size={} on {}\n{}", b, q, profile.render()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hash keys and narrowed scans: joins and group-bys keyed on columns
// ---------------------------------------------------------------------

const FLOATS: &[&str] = &["NULL", "-0.0", "0.0", "1.0", "1.5", "3.0"];
const KEY_TEXTS: &[&str] = &["NULL", "'x'", "'y'", "''", "'x y'"];

/// Two tables whose key columns meet across types: Int `K` against Float
/// `F` (3 = 3.0), −0.0 next to 0.0, NULL Int/Float/Text keys, and a wide
/// `Pad` column no query reads — the column the narrowed scans drop.
fn build_key_db(a: &[(i64, usize, usize, i64)], b: &[(i64, usize, usize, i64)]) -> Database {
    let db = Database::new();
    for (table, rows, v) in [("A", a, "P"), ("B", b, "W")] {
        db.execute_sql(&format!(
            "CREATE TABLE {table} (Id INT PRIMARY KEY, K INT, F FLOAT, S TEXT, {v} INT, Pad TEXT)"
        ))
        .unwrap();
        for (i, &(k, f, s, n)) in rows.iter().enumerate() {
            let k = if k == 0 {
                "NULL".to_owned()
            } else {
                k.to_string()
            };
            db.execute_sql(&format!(
                "INSERT INTO {table} VALUES ({i}, {k}, {}, {}, {n}, 'padding {i}')",
                FLOATS[f % FLOATS.len()],
                KEY_TEXTS[s % KEY_TEXTS.len()]
            ))
            .unwrap();
        }
    }
    db
}

/// Join and group keys of every shape the key hashing distinguishes,
/// over scans the optimizer narrows.
const KEY_QUERIES: &[&str] = &[
    // Int keys meet Float keys numerically.
    "SELECT A.Id, B.Id FROM A JOIN B ON A.K = B.F",
    // −0.0 joins and groups with 0.0; NULL Float keys never join.
    "SELECT A.Id, B.Id, A.F, B.F FROM A JOIN B ON A.F = B.F",
    "SELECT F, COUNT(*) AS n, SUM(P) AS s FROM A GROUP BY F",
    // NULL group keys form one group.
    "SELECT K, COUNT(*) AS n, MIN(S) AS lo FROM A GROUP BY K",
    // Two-column join and group keys, Text included.
    "SELECT A.Id, B.W FROM A JOIN B ON A.K = B.K AND A.S = B.S",
    "SELECT K, S, COUNT(*) AS n, MAX(P) AS hi FROM A GROUP BY K, S",
    "SELECT A.S, COUNT(*) AS n, AVG(B.F) AS f FROM A JOIN B ON A.S = B.S GROUP BY A.S",
    // LEFT OUTER with the right side narrowed to its key and one column.
    "SELECT A.Id, B.W FROM A LEFT JOIN B ON A.K = B.K",
    "SELECT A.Id, B.W FROM A LEFT JOIN B ON A.K = B.K AND B.W > 0",
    // Aliased self-join; the residual sits above the join.
    "SELECT x.Id, y.P FROM A x JOIN A y ON x.K = y.K WHERE x.Id < y.Id",
    // UNION ALL of narrowed sides.
    "SELECT K FROM A WHERE P > 0 UNION ALL SELECT F FROM B WHERE W < 0",
    // COUNT(*) over a join: each side needs only its key.
    "SELECT COUNT(*) AS n FROM A JOIN B ON A.K = B.K",
    // Zero-column scans.
    "SELECT COUNT(*) AS n FROM A",
    "SELECT COUNT(*) AS n FROM A WHERE P > 0",
    "SELECT DISTINCT S FROM B",
    // A three-way join with pushed filters and a group key from the middle.
    "SELECT B.S, COUNT(*) AS n, SUM(c.P) AS total FROM A JOIN B ON A.K = B.K \
     JOIN A c ON c.F = B.F WHERE A.P > -3 AND B.W < 4 GROUP BY B.S ORDER BY n DESC, S",
];

/// Plans SQL cannot spell: a Union of whole scans (narrowed to the same
/// positions on both sides) and a key column that is Int on one side and
/// Float on the other, which the batched union stores as Generic values.
fn key_plans(db: &Database) -> Vec<cr_relation::LogicalPlan> {
    use cr_relation::plan::{AggExpr, AggFn, JoinKind};
    use cr_relation::{Expr, PlanBuilder};
    let c = db.catalog();
    let scan = |t: &str| PlanBuilder::scan(&c, t).unwrap();
    let count = || AggExpr {
        func: AggFn::CountStar,
        arg: Expr::lit(1i64),
        distinct: false,
        name: "n".into(),
    };
    let mixed = || {
        scan("A")
            .select_columns(&["K"])
            .unwrap()
            .union(scan("B").select_columns(&["F"]).unwrap())
            .unwrap()
    };
    vec![
        scan("A")
            .union(scan("B"))
            .unwrap()
            .aggregate(vec![Expr::col_idx(1)], vec![count()])
            .unwrap()
            .build(),
        mixed()
            .aggregate(vec![Expr::col_idx(0)], vec![count()])
            .unwrap()
            .build(),
        scan("B")
            .join(
                mixed(),
                JoinKind::Inner,
                Expr::col_idx(1).eq(Expr::col_idx(6)),
            )
            .unwrap()
            .select_columns(&["Id"])
            .unwrap()
            .build(),
    ]
}

/// Bind a SELECT without optimizing it: the unnarrowed plan the row
/// oracle runs as ground truth.
fn bind(sql: &str, db: &Database) -> cr_relation::LogicalPlan {
    match cr_relation::sql::parse(sql).unwrap().as_slice() {
        [cr_relation::sql::ast::Statement::Select(q)] => {
            cr_relation::sql::binder::bind_select(q, &db.catalog()).unwrap()
        }
        other => panic!("expected one SELECT, got {other:?}"),
    }
}

/// `optimize` is idempotent and keeps the root schema.
fn assert_optimize_stable(plan: &cr_relation::LogicalPlan) -> cr_relation::LogicalPlan {
    use cr_relation::plan::optimizer::optimize;
    let once = optimize(plan.clone());
    assert_eq!(
        once.schema(),
        plan.schema(),
        "root schema\n{}",
        once.explain()
    );
    assert_eq!(
        optimize(once.clone()),
        once,
        "not idempotent\n{}",
        once.explain()
    );
    once
}

/// Every node of `plan` survives `map_children` and `map_exprs` with the
/// identity unchanged, `map_children` visits the inputs `children()`
/// lists, and `children()` reaches exactly the nodes `explain()` prints,
/// one line each. Returns the node count.
fn assert_traversal_identities(plan: &cr_relation::LogicalPlan) -> usize {
    assert_eq!(&plan.clone().map_exprs(|e| e), plan);
    let mut mapped = 0;
    let rebuilt = plan.clone().map_children(|c| {
        mapped += 1;
        c
    });
    assert_eq!(&rebuilt, plan);
    let children: Vec<_> = plan.children().into_iter().flatten().collect();
    assert_eq!(children.len(), mapped, "{}", plan.explain());
    let nodes = 1 + children
        .iter()
        .map(|(_, child)| assert_traversal_identities(child))
        .sum::<usize>();
    assert_eq!(nodes, plan.explain().lines().count(), "{}", plan.explain());
    nodes
}

/// The analyses see the same plan before and after `optimize`: the
/// validator's codes and paths, the analyzer's codes (and paths, when a
/// corpus's filters do not merge into scans below a warning), and the
/// dependency footprint's tables and keys agree; the footprint's columns
/// only narrow.
fn assert_analyses_agree(bound: &cr_relation::LogicalPlan, db: &Database, analyze_paths: bool) {
    use cr_relation::plan::deps::{extract_in, ColumnSet};
    use cr_relation::plan::validate::{analyze, validate, validate_against, ValidationReport};
    let c = db.catalog();
    let optimized = cr_relation::plan::optimizer::optimize(bound.clone());
    assert_traversal_identities(bound);
    assert_traversal_identities(&optimized);
    let diags = |r: ValidationReport, paths: bool| {
        let mut d: Vec<String> = r
            .diagnostics
            .iter()
            .map(|d| match paths {
                true => format!("{} at {}", d.code, d.path),
                false => d.code.to_owned(),
            })
            .collect();
        d.sort();
        d
    };
    let text = optimized.explain();
    for (p, o) in [
        (validate(bound), validate(&optimized)),
        (
            validate_against(bound, &c),
            validate_against(&optimized, &c),
        ),
    ] {
        assert_eq!(diags(p, true), diags(o, true), "{text}");
    }
    assert_eq!(
        diags(analyze(bound, Some(&c)), analyze_paths),
        diags(analyze(&optimized, Some(&c)), analyze_paths),
        "{text}"
    );
    let (before, after) = (
        extract_in(bound, Some(&c)),
        extract_in(&optimized, Some(&c)),
    );
    assert_eq!(before.table_names(), after.table_names(), "{text}");
    for (table, dep) in &after.tables {
        let was = &before.tables[table];
        assert_eq!(dep.key, was.key, "{table}: {text}");
        match (&dep.columns, &was.columns) {
            (_, ColumnSet::All) => {}
            (ColumnSet::Named(now), ColumnSet::Named(then)) => {
                assert!(now.is_subset(then), "{table}: {text}")
            }
            (ColumnSet::All, ColumnSet::Named(_)) => panic!("{table} widened: {text}"),
        }
    }
}

#[test]
fn plan_traversals_and_analyses_agree_on_sql_corpora() {
    let db = build_db(&[(1, 2, 0)], &[(1, 3)]);
    for q in QUERIES {
        assert_analyses_agree(&bind(q, &db), &db, true);
    }
    let kdb = build_key_db(&[(1, 0, 1, 2)], &[(1, 0, 1, 2)]);
    for q in KEY_QUERIES {
        assert_analyses_agree(&bind(q, &kdb), &kdb, true);
    }
    for plan in key_plans(&kdb) {
        assert_analyses_agree(&plan, &kdb, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The unoptimized plan on the row oracle is ground truth; the
    /// optimized (narrowed) plan on every walker must print the same rows
    /// — `Debug`, so −0.0 and 0.0 stay apart — in the same order.
    #[test]
    fn keyed_joins_over_narrowed_scans_match_row_oracle(
        a in proptest::collection::vec((0i64..5, 0usize..6, 0usize..5, -4i64..4), 0..60),
        b in proptest::collection::vec((0i64..5, 0usize..6, 0usize..5, -4i64..4), 0..40),
    ) {
        let db = build_key_db(&a, &b);
        let catalog = db.catalog();
        let plans = KEY_QUERIES.iter().map(|q| bind(q, &db)).chain(key_plans(&db));
        for plan in plans {
            let want = format!("{:?}", oracle(&plan, &catalog).unwrap().rows);
            let optimized = assert_optimize_stable(&plan);
            for &w in ALL_WALKERS {
                let got = run_on(w, &optimized, &catalog).unwrap();
                prop_assert_eq!(
                    &format!("{:?}", got.rows), &want,
                    "walker={:?} diverged on\n{}", w, optimized.explain()
                );
            }
        }
    }
}

#[test]
fn key_corpus_has_the_shapes_it_claims() {
    // Int 3 / Float 3.0, −0.0 / 0.0 and NULL keys all present, and the
    // key queries' scans really are narrowed (one to zero columns).
    let rows: Vec<(i64, usize, usize, i64)> = (0..12)
        .map(|i| (i % 4, i as usize, i as usize, i))
        .collect();
    let db = build_key_db(&rows, &rows);
    let floats = format!("{:?}", db.query_sql("SELECT F FROM A").unwrap().rows);
    assert!(
        floats.contains("Float(-0.0)") && floats.contains("Float(0.0)"),
        "{floats}"
    );
    let plans: Vec<String> = KEY_QUERIES
        .iter()
        .map(|q| {
            cr_relation::sql::plan_query(q, &db.catalog())
                .unwrap()
                .explain()
        })
        .collect();
    let scans = plans
        .iter()
        .flat_map(|p| p.lines())
        .filter(|l| l.contains("Scan"));
    assert!(scans.clone().all(|l| l.contains("cols=")), "{plans:#?}");
    assert!(plans.iter().any(|p| p.contains("cols=[]")), "{plans:#?}");
    let joined = db
        .query_sql("SELECT COUNT(*) AS n FROM A JOIN B ON A.K = B.F")
        .unwrap();
    assert_ne!(joined.scalar(), Some(&Value::Int(0)));
}

// ---------------------------------------------------------------------
// FlexRecs workflows: Extend and every Recommend method
// ---------------------------------------------------------------------

const NAMES: &[&str] = &[
    "intro to databases",
    "advanced databases",
    "american history",
    "history of art",
    "systems programming",
    "intro to programming",
];

/// Users (nullable Age), fixed Items, and a ratings relation whose UIds
/// may dangle and whose scores may be NULL.
fn build_social_db(users: &[i64], ratings: &[(i64, i64, i64)]) -> Database {
    let db = Database::new();
    db.execute_sql("CREATE TABLE Users (UId INT PRIMARY KEY, Name TEXT, Age INT)")
        .unwrap();
    db.execute_sql("CREATE TABLE Items (IId INT PRIMARY KEY, Label TEXT)")
        .unwrap();
    db.execute_sql("CREATE TABLE Ratings (RId INT PRIMARY KEY, UId INT, IId INT, Score INT)")
        .unwrap();
    let null_or = |x: i64| {
        if x == 0 {
            "NULL".to_owned()
        } else {
            x.to_string()
        }
    };
    for (i, &age) in users.iter().enumerate() {
        db.execute_sql(&format!(
            "INSERT INTO Users VALUES ({i}, '{}', {})",
            NAMES[i % NAMES.len()],
            null_or(age)
        ))
        .unwrap();
    }
    for (i, name) in NAMES.iter().enumerate() {
        db.execute_sql(&format!("INSERT INTO Items VALUES ({i}, '{name}')"))
            .unwrap();
    }
    for (i, &(uid, iid, score)) in ratings.iter().enumerate() {
        db.execute_sql(&format!(
            "INSERT INTO Ratings VALUES ({i}, {}, {iid}, {})",
            null_or(uid),
            null_or(score)
        ))
        .unwrap();
    }
    db
}

fn src(table: &str) -> Node {
    Node::Source {
        table: table.to_owned(),
    }
}

fn maybe_select(input: Node, pred: Option<WfPredicate>) -> Node {
    match pred {
        Some(predicate) => Node::Select {
            input: Box::new(input),
            predicate,
        },
        None => input,
    }
}

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::NotEq),
        Just(CmpOp::Lt),
        Just(CmpOp::LtEq),
        Just(CmpOp::Gt),
        Just(CmpOp::GtEq),
    ]
}

/// A predicate over the given scalar columns, with NULL literals mixed in
/// to exercise the two-valued null-safe lowering, and And/Or nesting.
fn arb_pred(columns: &'static [&'static str]) -> impl Strategy<Value = WfPredicate> {
    let leaf = (
        proptest::sample::select(columns),
        arb_op(),
        (-4i64..10).prop_map(|v| if v < -2 { Value::Null } else { Value::Int(v) }),
    )
        .prop_map(|(c, op, v)| WfPredicate::cmp(c, op, v));
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..3).prop_map(WfPredicate::And),
            proptest::collection::vec(inner, 0..3).prop_map(WfPredicate::Or),
        ]
    })
}

fn arb_users() -> impl Strategy<Value = Node> {
    proptest::option::of(arb_pred(&["UId", "Age"])).prop_map(|p| maybe_select(src("Users"), p))
}

/// ε(Users): each user extended with the items they rated — a Set
/// attribute, or a Ratings attribute when `rating` is set.
fn arb_extended(rating: bool) -> impl Strategy<Value = Node> {
    arb_users().prop_map(move |input| Node::Extend {
        input: Box::new(input),
        related_table: "Ratings".to_owned(),
        fk_column: "UId".to_owned(),
        local_key: "UId".to_owned(),
        key_column: "IId".to_owned(),
        rating_column: rating.then(|| "Score".to_owned()),
        as_name: "R".to_owned(),
    })
}

fn arb_scalar_agg() -> impl Strategy<Value = RecAgg> {
    prop_oneof![
        Just(RecAgg::Avg),
        Just(RecAgg::Sum),
        Just(RecAgg::Max),
        Just(RecAgg::WeightedAvg {
            weight_attr: "Age".to_owned(),
        }),
    ]
}

fn finish_spec(spec: RecommendSpec, agg: RecAgg, k: Option<usize>, excl: bool) -> RecommendSpec {
    let spec = spec.with_agg(agg);
    match k {
        Some(k) => spec.top_k(k),
        None => spec,
    }
    .pipe_excl(excl)
}

/// Small helper so the strategy maps stay readable.
trait SpecExt {
    fn pipe_excl(self, excl: bool) -> RecommendSpec;
}
impl SpecExt for RecommendSpec {
    fn pipe_excl(self, excl: bool) -> RecommendSpec {
        if excl {
            self.excluding_seen("UId", "R")
        } else {
            self
        }
    }
}

/// Relational shapes (project / join / union / limit) plus recommends over
/// every method family: set similarity, ratings similarity, rating lookup,
/// and text similarity.
fn arb_workflow() -> impl Strategy<Value = Workflow> {
    let project = (
        arb_users(),
        proptest::sample::subsequence(vec!["UId", "Name", "Age"], 1..=3),
    )
        .prop_map(|(input, cols)| Node::Project {
            input: Box::new(input),
            columns: cols.into_iter().map(str::to_owned).collect(),
        });
    let join = (
        arb_users(),
        proptest::option::of(arb_pred(&["IId", "Score"])),
    )
        .prop_map(|(left, rpred)| Node::Join {
            left: Box::new(left),
            right: Box::new(maybe_select(src("Ratings"), rpred)),
            left_col: "UId".to_owned(),
            right_col: "UId".to_owned(),
        });
    let union = (arb_users(), arb_users()).prop_map(|(left, right)| Node::Union {
        left: Box::new(left),
        right: Box::new(right),
    });
    let knobs = || {
        (
            arb_scalar_agg(),
            proptest::option::of(1usize..6),
            any::<bool>(),
        )
    };
    let set_rec = (
        arb_extended(false),
        arb_extended(false),
        prop_oneof![
            Just(SetSim::Jaccard),
            Just(SetSim::Dice),
            Just(SetSim::Overlap),
            Just(SetSim::Cosine),
        ],
        knobs(),
    )
        .prop_map(
            |(target, comparator, sim, (agg, k, excl))| Node::Recommend {
                target: Box::new(target),
                comparator: Box::new(comparator),
                spec: finish_spec(
                    RecommendSpec::new("R", "R", RecMethod::Set(sim)),
                    agg,
                    k,
                    excl,
                ),
            },
        );
    let ratings_rec = (
        arb_extended(true),
        arb_extended(true),
        prop_oneof![
            Just(RatingsSim::InverseEuclidean),
            Just(RatingsSim::Pearson),
            Just(RatingsSim::Cosine),
        ],
        1usize..3,
        knobs(),
    )
        .prop_map(
            |(target, comparator, sim, min_common, (agg, k, excl))| Node::Recommend {
                target: Box::new(target),
                comparator: Box::new(comparator),
                spec: finish_spec(
                    RecommendSpec::new("R", "R", RecMethod::Ratings { sim, min_common }),
                    agg,
                    k,
                    excl,
                ),
            },
        );
    let lookup_rec = (
        proptest::option::of(arb_pred(&["IId"])),
        arb_extended(true),
        knobs(),
    )
        .prop_map(|(tpred, comparator, (agg, k, _))| Node::Recommend {
            target: Box::new(maybe_select(src("Items"), tpred)),
            comparator: Box::new(comparator),
            spec: finish_spec(
                RecommendSpec::new("IId", "R", RecMethod::RatingLookup),
                agg,
                k,
                false,
            ),
        });
    let text_rec = (
        arb_users(),
        arb_users(),
        prop_oneof![
            Just(TextSim::WordJaccard),
            Just(TextSim::TrigramJaccard),
            Just(TextSim::Levenshtein),
        ],
        knobs(),
    )
        .prop_map(|(target, comparator, sim, (agg, k, _))| Node::Recommend {
            target: Box::new(target),
            comparator: Box::new(comparator),
            spec: finish_spec(
                RecommendSpec::new("Name", "Name", RecMethod::Text(sim)),
                agg,
                k,
                false,
            ),
        });
    prop_oneof![
        project,
        join,
        union,
        set_rec,
        ratings_rec,
        lookup_rec,
        text_rec
    ]
    .prop_map(|root| Workflow::new("prop", root))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batched_workflows_match_row_oracle(
        users in proptest::collection::vec(0i64..7, 0..14),
        ratings in proptest::collection::vec((0i64..18, 0i64..6, 0i64..6), 0..40),
        wf in arb_workflow(),
    ) {
        let db = build_social_db(&users, &ratings);
        let catalog = db.catalog();
        let plan = compile(&wf, &catalog);
        if let Ok(plan) = &plan {
            assert_optimize_stable(plan);
            // Workflow selections merge into their scans, which moves a
            // filter warning's path from the Filter to the Scan.
            assert_analyses_agree(plan, &db, false);
        }
        // A plan the compiler rejects is the same error on every walker.
        let plan = plan.map(optimizer::optimize);
        let run = |walk: &dyn Fn(&LogicalPlan) -> RelResult<ResultSet>| {
            plan.as_ref().map_err(Clone::clone).and_then(walk)
        };
        let row = run(&|p| oracle(p, &catalog));
        for &b in BATCH_SIZES {
            let vec = run(&|p| execute_with(p, &catalog, &batched(b)));
            match (&row, &vec) {
                (Ok(r), Ok(v)) => prop_assert_eq!(
                    r, v,
                    "batch_size={} diverged\n{}", b, wf.explain()
                ),
                // Both executors must agree on rejection too.
                (Err(_), Err(_)) => {}
                _ => prop_assert!(
                    false,
                    "one path errored at batch_size={}: row {:?}, batched {:?}\n{}",
                    b,
                    row.as_ref().err(),
                    vec.as_ref().err(),
                    wf.explain()
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// The shapes the batched Extend/Recommend special-case
// ---------------------------------------------------------------------

fn extended(users: Node, rating: bool) -> Node {
    Node::Extend {
        input: Box::new(users),
        related_table: "Ratings".to_owned(),
        fk_column: "UId".to_owned(),
        local_key: "UId".to_owned(),
        key_column: "IId".to_owned(),
        rating_column: rating.then(|| "Score".to_owned()),
        as_name: "R".to_owned(),
    }
}

fn user(uid: i64) -> Node {
    maybe_select(src("Users"), Some(WfPredicate::eq("UId", uid)))
}

/// Workflows over one fixed campus, each aimed at a branch the batched
/// executor takes and the row oracle does not: a comparator whose nest
/// is empty (no rating, or only NULL-keyed ones), score ties cut by
/// `top_k` (first column, then input order), duplicate `(fk, key)`
/// ratings averaged in row order, rating lookups folded per key.
fn nest_shape_workflows() -> Vec<Workflow> {
    let recommend = |target: Node, comparator: Node, spec: RecommendSpec| Node::Recommend {
        target: Box::new(target),
        comparator: Box::new(comparator),
        spec,
    };
    // Age first: its duplicates leave ties to the input order.
    let by_age = |rating: bool| Node::Project {
        input: Box::new(extended(src("Users"), rating)),
        columns: vec!["Age".to_owned(), "UId".to_owned(), "R".to_owned()],
    };
    let set = |sim| RecommendSpec::new("R", "R", RecMethod::Set(sim));
    let ratings =
        |sim, min_common| RecommendSpec::new("R", "R", RecMethod::Ratings { sim, min_common });
    let lookup = || RecommendSpec::new("IId", "R", RecMethod::RatingLookup);
    let mut roots = vec![
        // User 0 has no ratings: the comparator nest is empty.
        recommend(
            extended(src("Users"), false),
            extended(user(0), false),
            set(SetSim::Jaccard),
        ),
        recommend(
            extended(src("Users"), true),
            extended(user(0), true),
            ratings(RatingsSim::Pearson, 1),
        ),
        recommend(
            src("Items"),
            extended(user(0), true),
            lookup().with_agg(RecAgg::Sum),
        ),
        // Users 1–4 rated the same items: every score ties.
        recommend(
            by_age(false),
            extended(user(1), false),
            set(SetSim::Jaccard).top_k(2),
        ),
        recommend(
            by_age(false),
            extended(user(1), false),
            set(SetSim::Cosine).top_k(3),
        ),
        recommend(
            extended(src("Users"), false),
            extended(user(2), false),
            set(SetSim::Dice).top_k(1),
        ),
        // Duplicate (user, item) ratings average before they compare.
        recommend(
            by_age(true),
            extended(user(1), true),
            ratings(RatingsSim::InverseEuclidean, 1).top_k(3),
        ),
        recommend(
            extended(src("Users"), true),
            extended(src("Users"), true),
            ratings(RatingsSim::Cosine, 2),
        ),
        // Every user is a comparator: per-key folds across all of them.
        recommend(
            src("Items"),
            extended(src("Users"), true),
            lookup().top_k(2),
        ),
        recommend(
            src("Items"),
            extended(src("Users"), true),
            lookup().with_agg(RecAgg::WeightedAvg {
                weight_attr: "Age".to_owned(),
            }),
        ),
    ];
    roots.push(recommend(
        src("Items"),
        recommend(
            maybe_select(
                extended(src("Users"), true),
                Some(WfPredicate::cmp("UId", CmpOp::NotEq, 1i64)),
            ),
            extended(user(1), true),
            // Hides user 2: the id is one of user 1's rated item ids.
            ratings(RatingsSim::InverseEuclidean, 1)
                .top_k(2)
                .score_as("sim")
                .excluding_seen("UId", "R"),
        ),
        lookup(),
    ));
    roots
        .into_iter()
        .map(|root| Workflow::new("nest-shape", root))
        .collect()
}

/// Give every bare related scan an always-true filter: Extend then has
/// to build its nest from the scanned batch instead of taking the
/// table's image — the general path, next to the cached one.
fn with_related_filter(plan: cr_relation::LogicalPlan) -> cr_relation::LogicalPlan {
    use cr_relation::{Expr, LogicalPlan};
    let mut plan = plan.map_children(with_related_filter);
    if let LogicalPlan::Extend { related, .. } = &mut plan {
        if let LogicalPlan::Scan {
            filter: filter @ None,
            ..
        } = &mut **related
        {
            *filter = Some(Expr::col_idx(0).gt_eq(Expr::lit(0i64)));
        }
    }
    plan
}

#[test]
fn nest_image_shapes_match_row_oracle() {
    // Users 1–4 share items {1, 2} (user 1 rated item 2 twice), user 5
    // stands apart, user 0 has no ratings — UId 0 inserts as NULL, so
    // those rows carry a NULL foreign key.
    let users = [3, 1, 1, 2, 2, 5];
    let mut ratings = vec![(0, 1, 5), (0, 3, 2), (5, 4, 3), (5, 1, 0), (9, 2, 4)];
    for uid in 1..=4 {
        ratings.extend([(uid, 1, 4), (uid, 2, uid + 1)]);
    }
    ratings.push((1, 2, 5));
    let db = build_social_db(&users, &ratings);
    let catalog = db.catalog();
    let check = |label: &str| {
        let mut results = Vec::new();
        for wf in nest_shape_workflows() {
            let plan = workflow_plan(&wf, &catalog);
            let row = oracle(&plan, &catalog).unwrap();
            let general = with_related_filter(plan.clone());
            assert_ne!(general, plan, "no related scan to filter\n{}", wf.explain());
            for &b in BATCH_SIZES {
                // Cached image, batch-built nest and row oracle agree.
                let cached = execute_with(&plan, &catalog, &batched(b)).unwrap();
                assert_eq!(row, cached, "{label}: batch_size={b}\n{}", wf.explain());
                let built = execute_with(&general, &catalog, &batched(b)).unwrap();
                assert_eq!(cached, built, "{label}: batch_size={b}\n{}", wf.explain());
                assert_eq!(built, oracle(&general, &catalog).unwrap());
            }
            results.push(row);
        }
        results
    };
    let before = check("cold and warm images");
    assert!(
        before[..3].iter().all(|r| r.rows.is_empty()),
        "empty nests match nothing"
    );
    let sizes: Vec<usize> = before.iter().map(|r| r.rows.len()).collect();
    assert!(sizes[3..].iter().all(|&n| n > 0), "{sizes:?}");
    // The insert patches every image built above; the delete retires them.
    db.execute_sql("INSERT INTO Ratings VALUES (900, 5, 2, 1)")
        .unwrap();
    db.execute_sql("DELETE FROM Ratings WHERE UId = 3 AND IId = 1")
        .unwrap();
    let after = check("after mutating Ratings");
    assert_ne!(before, after, "the mutation must show");
}

/// Every nest-shape workflow over `catalog` three ways — the table's nest
/// image, a nest built from a filtered related scan, and the row oracle —
/// asserted equal at every batch size; returns the oracle's results.
fn nest_paths_agree(catalog: &Catalog, label: &str) -> Vec<ResultSet> {
    let mut results = Vec::new();
    for wf in nest_shape_workflows() {
        let plan = workflow_plan(&wf, catalog);
        let row = oracle(&plan, catalog).unwrap();
        let general = with_related_filter(plan.clone());
        let want = oracle(&general, catalog).unwrap();
        for &b in BATCH_SIZES {
            let image = execute_with(&plan, catalog, &batched(b)).unwrap();
            let built = execute_with(&general, catalog, &batched(b)).unwrap();
            assert_eq!(
                image,
                want,
                "{label}: image, batch_size={b}\n{}",
                wf.explain()
            );
            assert_eq!(
                built,
                want,
                "{label}: built, batch_size={b}\n{}",
                wf.explain()
            );
        }
        results.push(row);
    }
    results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Inserts patch the cached nest images while updates and deletes
    /// drop them, interleaved with snapshot pins. After every write the
    /// live catalog, and every pin taken so far, agree three ways (image,
    /// batch-built nest, row oracle), and each pin still answers what it
    /// answered when it was taken.
    #[test]
    fn nest_images_at_snapshot_pins_match_row_oracle(
        ops in proptest::collection::vec((0u8..6, 0i64..7, 1i64..6, 0i64..6), 1..16),
    ) {
        let db = build_social_db(&[3, 1, 1, 2, 2, 5], &[(1, 1, 4), (1, 2, 2), (2, 1, 4), (5, 3, 1)]);
        let null_or = |x: i64| if x == 0 { "NULL".to_owned() } else { x.to_string() };
        let mut pins = Vec::new();
        let mut next_rid = 100;
        // Warm the images, so the first insert has something to patch.
        nest_paths_agree(&db.catalog(), "cold");
        for (op, uid, iid, score) in ops {
            let target = format!("UId = {uid} AND IId = {iid}");
            match op {
                0 => {
                    db.execute_sql(&format!("DELETE FROM Ratings WHERE {target}")).unwrap();
                }
                1 => {
                    let sql = format!("UPDATE Ratings SET Score = {} WHERE {target}", null_or(score));
                    db.execute_sql(&sql).unwrap();
                }
                2 => {
                    let (view, snap) = db.snapshot();
                    let answers = nest_paths_agree(&view.catalog(), "pin");
                    pins.push((view, snap, answers));
                }
                _ => {
                    next_rid += 1;
                    let sql = format!(
                        "INSERT INTO Ratings VALUES ({next_rid}, {}, {iid}, {})",
                        null_or(uid),
                        null_or(score)
                    );
                    db.execute_sql(&sql).unwrap();
                }
            }
            nest_paths_agree(&db.catalog(), "live");
            for (view, _, answers) in &pins {
                prop_assert_eq!(&nest_paths_agree(&view.catalog(), "pinned"), answers);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Typed kernels: float and text columns, sorts, aggregates, concatenation
// ---------------------------------------------------------------------

const TYPED_FLOATS: &[&str] = &["NULL", "-0.0", "0.0", "2.5", "0.0", "-1.5", "2.5"];
const TYPED_TEXTS: &[&str] = &[
    "NULL",
    "''",
    "'ünï cødé'",
    "'日本'",
    "'abc'",
    "'abc'",
    "'Zed'",
];

/// `U` holds a nullable FLOAT (−0.0 beside 0.0, repeats), a nullable TEXT
/// (`''`, non-ASCII, repeats) and a nullable INT, with tombstones; `V` is
/// a text-keyed build side with a text column to gather.
fn build_typed_db(u: &[(usize, usize, i64)], v: &[(usize, usize, i64)]) -> Database {
    let db = Database::new();
    db.execute_sql("CREATE TABLE U (Id INT PRIMARY KEY, X FLOAT, T TEXT, N INT)")
        .unwrap();
    db.execute_sql("CREATE TABLE V (Id INT PRIMARY KEY, T TEXT, D TEXT, M INT)")
        .unwrap();
    let int = |x: i64| {
        if x == 0 {
            "NULL".to_owned()
        } else {
            x.to_string()
        }
    };
    for (i, &(x, t, n)) in u.iter().enumerate() {
        db.execute_sql(&format!(
            "INSERT INTO U VALUES ({i}, {}, {}, {})",
            TYPED_FLOATS[x % TYPED_FLOATS.len()],
            TYPED_TEXTS[t % TYPED_TEXTS.len()],
            int(n)
        ))
        .unwrap();
    }
    for (i, &(t, d, m)) in v.iter().enumerate() {
        db.execute_sql(&format!(
            "INSERT INTO V VALUES ({i}, {}, {}, {})",
            TYPED_TEXTS[t % TYPED_TEXTS.len()],
            TYPED_TEXTS[d % TYPED_TEXTS.len()],
            int(m)
        ))
        .unwrap();
    }
    db.execute_sql("DELETE FROM U WHERE N = 2").unwrap();
    db.execute_sql("DELETE FROM V WHERE M = -2").unwrap();
    db
}

const TYPED_QUERIES: &[&str] = &[
    // Sorts on one typed key: ties keep input order, NULL sorts first
    // (last descending), −0.0 ties with 0.0.
    "SELECT Id, X FROM U ORDER BY X",
    "SELECT Id, X FROM U ORDER BY X DESC",
    "SELECT Id, T FROM U ORDER BY T",
    "SELECT Id, T FROM U ORDER BY T DESC",
    "SELECT Id, N FROM U ORDER BY N DESC",
    "SELECT Id, N FROM U ORDER BY N",
    // Mixed-direction multi-key orders with ties.
    "SELECT Id, T, X, N FROM U ORDER BY T DESC, X, N DESC",
    "SELECT Id, X, T FROM U ORDER BY X DESC, T LIMIT 9 OFFSET 1",
    // Text group keys (a NULL group included) with text MIN/MAX and
    // float SUM/AVG.
    "SELECT T, COUNT(*) AS n, COUNT(X) AS c, MIN(T) AS lo, MAX(T) AS hi, \
     SUM(X) AS s, AVG(X) AS a, MIN(X) AS xl, MAX(X) AS xh FROM U GROUP BY T",
    "SELECT N, MIN(T) AS lo, MAX(T) AS hi, SUM(N) AS s, AVG(N) AS a, COUNT(T) AS c \
     FROM U GROUP BY N ORDER BY N",
    "SELECT X, COUNT(*) AS n, SUM(DISTINCT N) AS d FROM U GROUP BY X",
    "SELECT COUNT(*) AS n, SUM(X) AS s, MIN(T) AS lo, MAX(X) AS hi FROM U WHERE N > 100",
    // UNION ALL of Int, Float and Text columns (one arena or two).
    "SELECT N FROM U UNION ALL SELECT M FROM V",
    "SELECT X FROM U UNION ALL SELECT X FROM U WHERE N > 0",
    "SELECT T FROM U WHERE N < 0 UNION ALL SELECT T FROM U",
    "SELECT T FROM U UNION ALL SELECT D FROM V",
    // Computed projections over more rows than the batch: chunks
    // concatenate typed.
    "SELECT Id, X * 2, LOWER(T), T + '!', N + 1, X > 0, T = '' FROM U",
    "SELECT Id, -X, UPPER(T), N * N FROM U WHERE N <> 1",
    // Int `%` and `/` over a nullable divisor with no selection: a NULL
    // divisor is NULL, never a division by zero.
    "SELECT Id, N % N, 7 % N, 7 / N FROM U",
    // Float comparisons, NULL operands included.
    "SELECT Id FROM U WHERE X > NULL",
    "SELECT Id, X = NULL, X < 0.0, X >= -0.0, NULL <> X FROM U",
    "SELECT Id FROM U WHERE X = 0.0",
    "SELECT Id FROM U WHERE X BETWEEN -0.0 AND 2.5 OR X IN (-1.5, 3)",
    "SELECT Id FROM U WHERE NOT (X < 1) AND X IS NOT NULL",
    "SELECT Id FROM U WHERE T = '' OR T LIKE '%ü%' OR T IN ('abc', NULL)",
    "SELECT Id FROM U WHERE N BETWEEN -1 AND 3 AND T > 'a'",
    // A join on text keys that gathers a text column from the build side.
    "SELECT U.Id, V.D FROM U JOIN V ON U.T = V.T",
    "SELECT U.Id, V.D, V.T FROM U LEFT JOIN V ON U.T = V.T",
    "SELECT V.D, COUNT(*) AS n, MAX(U.X) AS x FROM U JOIN V ON U.T = V.T GROUP BY V.D ORDER BY n DESC, D",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The unoptimized plan on the row oracle is ground truth; every
    /// walker prints the same rows (`Debug`: −0.0 stays −0.0).
    #[test]
    fn typed_kernels_match_row_oracle(
        u in proptest::collection::vec((0usize..7, 0usize..7, -3i64..4), 0..60),
        v in proptest::collection::vec((0usize..7, 0usize..7, -3i64..4), 0..30),
    ) {
        let db = build_typed_db(&u, &v);
        let catalog = db.catalog();
        for q in TYPED_QUERIES {
            let plan = bind(q, &db);
            let want = format!("{:?}", oracle(&plan, &catalog).unwrap().rows);
            let optimized = assert_optimize_stable(&plan);
            for &w in ALL_WALKERS {
                let got = run_on(w, &optimized, &catalog).unwrap();
                prop_assert_eq!(&format!("{:?}", got.rows), &want, "walker={:?} diverged on {}", w, q);
            }
        }
    }
}

#[test]
fn typed_corpus_has_the_shapes_it_claims() {
    let rows: Vec<(usize, usize, i64)> = (0..14).map(|i| (i, i, i as i64 % 4 - 1)).collect();
    let db = build_typed_db(&rows, &rows);
    let got = format!("{:?}", db.query_sql("SELECT X, T FROM U").unwrap().rows);
    for shape in [
        "Float(-0.0)",
        "Float(0.0)",
        "Text(\"\")",
        "ünï cødé",
        "Null",
    ] {
        assert!(got.contains(shape), "{shape} missing from {got}");
    }
    // Tombstones: N = 2 rows were deleted.
    let n = db.query_sql("SELECT COUNT(*) AS n FROM U").unwrap().rows[0][0].clone();
    assert_eq!(n, Value::Int(11));
}

/// A WHERE whose result is not Bool is the same type error on both
/// walkers, whatever storage the result has.
#[test]
fn non_bool_where_fails_alike_on_both_walkers() {
    use cr_relation::{Expr, PlanBuilder};
    let rows: Vec<(usize, usize, i64)> = (0..10).map(|i| (i, i, i as i64 % 4 - 1)).collect();
    let db = build_typed_db(&rows, &rows);
    let catalog = db.catalog();
    let preds = [
        Expr::col("N"),
        Expr::col("X").add(Expr::lit(1.0f64)),
        Expr::col("T"),
        Expr::Func {
            func: cr_relation::expr::ScalarFn::Coalesce,
            args: vec![Expr::col("N"), Expr::col("T")],
        },
    ];
    for p in preds {
        let plan = PlanBuilder::scan(&catalog, "U")
            .unwrap()
            .filter(p.clone())
            .unwrap()
            .build();
        let row = oracle(&plan, &catalog).unwrap_err();
        assert!(
            matches!(row, cr_relation::RelError::TypeMismatch { .. }),
            "{p}: {row:?}"
        );
        for &b in BATCH_SIZES {
            let vec = execute_with(&plan, &catalog, &batched(b)).unwrap_err();
            assert_eq!(
                std::mem::discriminant(&vec),
                std::mem::discriminant(&row),
                "batch_size={b} on {p}: {vec:?} vs {row:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Recommend over the keys its probes special-case
// ---------------------------------------------------------------------

/// The rated-item key columns the corpus extends by, and how each
/// comparator cell over it is scored: `Neg` holds negative ids (a dense
/// probe), `Sparse` ids 70,001 apart — any two of them span more than the
/// dense bound of 65,536 — and `Txt` Text keys (both pairwise, counted as
/// `hashed`).
const PROBE_KEYS: &[(&str, &str)] = &[("Neg", "dense"), ("Sparse", "hashed"), ("Txt", "hashed")];

/// Six users (user 0 rates nothing unless a rating names it) and ratings
/// whose item `i` is keyed three ways: `Neg` = −i − 1, `Sparse` =
/// 70,001·i − 200,000 and `Txt` = `'k{i}'`. Score 0 is NULL.
fn build_probe_db(ratings: &[(i64, i64, i64)]) -> Database {
    let db = Database::new();
    db.execute_sql("CREATE TABLE Users (UId INT PRIMARY KEY, Name TEXT, Age INT)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE Rated (RId INT PRIMARY KEY, UId INT, Neg INT, Sparse INT, Txt TEXT, Score INT)",
    )
    .unwrap();
    for uid in 0..6 {
        db.execute_sql(&format!(
            "INSERT INTO Users VALUES ({uid}, '{}', {})",
            NAMES[uid as usize],
            uid + 1
        ))
        .unwrap();
    }
    for (rid, &(uid, item, score)) in ratings.iter().enumerate() {
        let score = if score == 0 {
            "NULL".to_owned()
        } else {
            score.to_string()
        };
        db.execute_sql(&format!(
            "INSERT INTO Rated VALUES ({rid}, {uid}, {}, {}, 'k{item}', {score})",
            -item - 1,
            70_001 * item - 200_000
        ))
        .unwrap();
    }
    db
}

/// Users extended by what they rated, keyed by `key`.
fn rated_by(users: Node, key: &str, rating: bool) -> Node {
    Node::Extend {
        input: Box::new(users),
        related_table: "Rated".to_owned(),
        fk_column: "UId".to_owned(),
        local_key: "UId".to_owned(),
        key_column: key.to_owned(),
        rating_column: rating.then(|| "Score".to_owned()),
        as_name: "R".to_owned(),
    }
}

/// Set and Ratings recommends over one key column: every similarity, a
/// single comparator (user 0's cell is empty unless rated) and every user
/// as comparators, ranked top-k or in full. Each comes with its number of
/// comparator cells.
fn probe_workflows(key: &str, comparator: i64) -> Vec<(usize, Workflow)> {
    let recommend = |rating: bool, one: bool, spec: RecommendSpec| {
        let comparators = if one { user(comparator) } else { src("Users") };
        let root = Node::Recommend {
            target: Box::new(rated_by(src("Users"), key, rating)),
            comparator: Box::new(rated_by(comparators, key, rating)),
            spec,
        };
        (if one { 1 } else { 6 }, Workflow::new("probe-keys", root))
    };
    let mut wfs = Vec::new();
    for (i, sim) in [
        SetSim::Jaccard,
        SetSim::Dice,
        SetSim::Overlap,
        SetSim::Cosine,
    ]
    .into_iter()
    .enumerate()
    {
        let spec = RecommendSpec::new("R", "R", RecMethod::Set(sim));
        let spec = if i % 2 == 0 {
            spec.top_k(3)
        } else {
            spec.with_agg(RecAgg::Sum)
        };
        wfs.push(recommend(false, i < 2, spec));
    }
    for sim in [
        RatingsSim::InverseEuclidean,
        RatingsSim::Pearson,
        RatingsSim::Cosine,
    ] {
        for (min_common, one) in [(0, true), (1, false), (2, true), (5, false)] {
            let spec = RecommendSpec::new("R", "R", RecMethod::Ratings { sim, min_common })
                .with_agg(RecAgg::WeightedAvg {
                    weight_attr: "Age".to_owned(),
                });
            wfs.push(recommend(true, one, spec));
        }
    }
    wfs
}

/// Run `wf` on every walker, profiled and plain: each returns the row
/// oracle's rows bit for bit (`Debug` keeps every float's bits apart).
/// Returns the oracle's rows and the batched walker's Recommend detail.
fn run_probe_workflow(wf: &Workflow, catalog: &Catalog) -> (String, Vec<String>) {
    let plan = compile(wf, catalog).unwrap();
    let want = format!("{:?}", oracle(&plan, catalog).unwrap().rows);
    let mut detail = Vec::new();
    for &w in ALL_WALKERS {
        let plain = run_on(w, &plan, catalog).unwrap();
        assert_eq!(
            format!("{:?}", plain.rows),
            want,
            "walker={w:?}\n{}",
            wf.explain()
        );
        // The oracle is unprofiled by design.
        let Some(b) = w else { continue };
        let (profiled, profile) = execute_instrumented_with(&plan, catalog, &batched(b)).unwrap();
        assert_eq!(
            profiled,
            plain,
            "profiled, batch_size={b}\n{}",
            wf.explain()
        );
        detail = profile.find("Recommend").unwrap().detail.clone();
    }
    (want, detail)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recommend scores through one probe per comparator cell on the
    /// batched walker and pairwise on the row walker; over negative,
    /// sparse, Text and empty keys the two agree bit for bit.
    #[test]
    fn recommend_probes_match_row_oracle(
        ratings in proptest::collection::vec((0i64..6, 0i64..8, 0i64..6), 0..40),
        comparator in 0i64..6,
    ) {
        let db = build_probe_db(&ratings);
        let catalog = db.catalog();
        for (key, _) in PROBE_KEYS {
            for (_, wf) in probe_workflows(key, comparator) {
                run_probe_workflow(&wf, &catalog);
            }
        }
    }
}

#[test]
fn probe_corpus_has_the_shapes_it_claims() {
    // Users 1–5 each rate items 0..=3 and their own item 3 + uid; user 0
    // rates nothing, so its cell is empty — a dense probe, vacuously.
    let mut ratings = Vec::new();
    for uid in 1..6 {
        for item in 0..4 {
            ratings.push((uid, item, (uid + item) % 5 + 1));
        }
        ratings.push((uid, 3 + uid, 2));
    }
    let db = build_probe_db(&ratings);
    let catalog = db.catalog();
    for &(key, kind) in PROBE_KEYS {
        let mut scored = 0;
        for comparator in [1, 0] {
            for (cells, wf) in probe_workflows(key, comparator) {
                let (rows, detail) = run_probe_workflow(&wf, &catalog);
                scored += usize::from(rows != "[]");
                let empty = usize::from(cells > 1 || comparator == 0);
                let dense = if kind == "dense" { cells } else { empty };
                let want = format!("probe=dense:{dense},hashed:{}", cells - dense);
                assert!(
                    detail.contains(&want),
                    "{key}: {detail:?}\n{}",
                    wf.explain()
                );
            }
        }
        assert!(scored > 0, "{key}: nothing scored");
    }
}

// ---------------------------------------------------------------------
// Recommend by postings: only the targets that share a key are scored
// ---------------------------------------------------------------------

/// `Marks` rates items for users 1–9; users 6 and 10 rate nothing. Item
/// `i` is also `Tag` `'ki'` (a TEXT key column), and one of user 8's rows
/// has a NULL `IId`. `Age` (a weight) is 0 for user 2 and negative for
/// user 3. `Wt` (a FLOAT weight) is `Age`, but +∞ for user 5.
fn build_postings_db() -> Database {
    let db = Database::new();
    db.execute_sql("CREATE TABLE Users (UId INT PRIMARY KEY, Name TEXT, Age INT, Wt FLOAT)")
        .unwrap();
    db.execute_sql("CREATE TABLE Items (IId INT PRIMARY KEY, Label TEXT)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE Marks (MId INT PRIMARY KEY, UId INT, IId INT, Tag TEXT, Score INT)",
    )
    .unwrap();
    let ages = [3, 0, -1, 2, 5, 1, 4, 2, 6, 1];
    for (uid, age) in (1i64..).zip(ages) {
        let wt = if uid == 5 { f64::INFINITY } else { age as f64 };
        let user = vec![
            Value::Int(uid),
            Value::from(format!("u{uid}")),
            Value::Int(age),
            Value::from(wt),
        ];
        db.insert("Users", user).unwrap();
    }
    for iid in 1..=8 {
        db.execute_sql(&format!("INSERT INTO Items VALUES ({iid}, 'i{iid}')"))
            .unwrap();
    }
    // (user, item, score): user 7 rates as user 1 does, user 9 as user 2.
    let marks = [
        (1, 1, 5),
        (1, 2, 4),
        (1, 3, 3),
        (2, 1, 4),
        (2, 2, 4),
        (3, 2, 3),
        (3, 3, 2),
        (3, 4, 5),
        (4, 5, 1),
        (4, 6, 2),
        (5, 1, 5),
        (7, 1, 5),
        (7, 2, 4),
        (7, 3, 3),
        (8, 3, 2),
        (8, 0, 4),
        (8, 7, 1),
        (9, 1, 4),
        (9, 2, 4),
    ];
    for (mid, (uid, iid, score)) in marks.into_iter().enumerate() {
        let (iid, tag) = match iid {
            0 => ("NULL".to_owned(), "NULL".to_owned()),
            i => (i.to_string(), format!("'k{i}'")),
        };
        db.execute_sql(&format!(
            "INSERT INTO Marks VALUES ({mid}, {uid}, {iid}, {tag}, {score})"
        ))
        .unwrap();
    }
    db
}

/// Users extended by their `Marks`, keyed by `key`.
fn marked(users: Node, key: &str, rating: bool) -> Node {
    Node::Extend {
        input: Box::new(users),
        related_table: "Marks".to_owned(),
        fk_column: "UId".to_owned(),
        local_key: "UId".to_owned(),
        key_column: key.to_owned(),
        rating_column: rating.then(|| "Score".to_owned()),
        as_name: "R".to_owned(),
    }
}

fn users_where(pred: WfPredicate) -> Node {
    maybe_select(src("Users"), Some(pred))
}

/// Each edge case of the postings path, with whether the plan's first
/// Set/Ratings Recommend scores by postings (`true`) or takes the full
/// walk.
fn postings_workflows() -> Vec<(&'static str, bool, Workflow)> {
    let rec = |target: Node, comparator: Node, spec: RecommendSpec| Node::Recommend {
        target: Box::new(target),
        comparator: Box::new(comparator),
        spec,
    };
    let set = |sim| RecommendSpec::new("R", "R", RecMethod::Set(sim));
    let ratings =
        |sim, min_common| RecommendSpec::new("R", "R", RecMethod::Ratings { sim, min_common });
    let weighted = || RecAgg::WeightedAvg {
        weight_attr: "Age".to_owned(),
    };
    let all = || src("Users");
    let one = |uid: i64| users_where(WfPredicate::eq("UId", uid));
    let some = |uids: Vec<i64>| {
        users_where(WfPredicate::Or(
            uids.into_iter()
                .map(|u| WfPredicate::eq("UId", u))
                .collect(),
        ))
    };
    let cases = vec![
        (
            "a comparator that shares no key",
            true,
            rec(
                marked(
                    users_where(WfPredicate::cmp("UId", CmpOp::NotEq, 4i64)),
                    "IId",
                    false,
                ),
                marked(one(4), "IId", false),
                set(SetSim::Jaccard),
            ),
        ),
        (
            "an empty comparator cell",
            true,
            rec(
                marked(all(), "IId", true),
                marked(one(6), "IId", true),
                ratings(RatingsSim::Pearson, 1),
            ),
        ),
        (
            "no comparator row",
            true,
            rec(
                marked(all(), "IId", false),
                marked(one(99), "IId", false),
                set(SetSim::Dice),
            ),
        ),
        (
            "min_common above the overlap",
            true,
            rec(
                marked(all(), "IId", true),
                marked(one(1), "IId", true),
                ratings(RatingsSim::InverseEuclidean, 3),
            ),
        ),
        (
            "min_common above every overlap",
            true,
            rec(
                marked(all(), "IId", true),
                marked(one(1), "IId", true),
                ratings(RatingsSim::Cosine, 4),
            ),
        ),
        (
            "a target filter that drops candidates",
            true,
            rec(
                marked(
                    users_where(WfPredicate::cmp("Age", CmpOp::Gt, 2i64)),
                    "IId",
                    false,
                ),
                marked(one(1), "IId", false),
                set(SetSim::Overlap),
            ),
        ),
        (
            "ties at the top-k boundary",
            true,
            rec(
                marked(all(), "IId", false),
                marked(one(1), "IId", false),
                set(SetSim::Jaccard).top_k(3),
            ),
        ),
        (
            "several comparators under Avg, some scoring 0",
            true,
            rec(
                marked(all(), "IId", false),
                marked(some(vec![1, 4, 6]), "IId", false),
                set(SetSim::Cosine).with_agg(RecAgg::Avg),
            ),
        ),
        (
            "several comparators under WeightedAvg, zero and negative weights",
            true,
            rec(
                marked(all(), "IId", true),
                marked(some(vec![2, 3, 4, 5]), "IId", true),
                ratings(RatingsSim::InverseEuclidean, 1).with_agg(weighted()),
            ),
        ),
        (
            "several comparators under Sum",
            true,
            rec(
                marked(all(), "IId", true),
                marked(some(vec![1, 3, 5]), "IId", true),
                ratings(RatingsSim::Pearson, 2).with_agg(RecAgg::Sum),
            ),
        ),
        (
            "exclude_seen",
            true,
            rec(
                marked(all(), "IId", true),
                marked(one(1), "IId", true),
                ratings(RatingsSim::InverseEuclidean, 1)
                    .top_k(4)
                    .excluding_seen("UId", "R"),
            ),
        ),
        (
            // user_cf's shape: the upper operator reads the lower one's
            // ratings, which the postings path must still nest.
            "the nested column read above the Recommend",
            true,
            rec(
                src("Items"),
                rec(
                    marked(
                        users_where(WfPredicate::cmp("UId", CmpOp::NotEq, 1i64)),
                        "IId",
                        true,
                    ),
                    marked(one(1), "IId", true),
                    ratings(RatingsSim::InverseEuclidean, 1)
                        .top_k(3)
                        .score_as("sim"),
                ),
                RecommendSpec::new("IId", "R", RecMethod::RatingLookup).with_agg(weighted()),
            ),
        ),
        (
            "a TEXT key column",
            false,
            rec(
                marked(all(), "Tag", false),
                marked(one(1), "Tag", false),
                set(SetSim::Jaccard),
            ),
        ),
        (
            "a NULL key in the comparator",
            false,
            rec(
                marked(all(), "IId", false),
                marked(one(8), "IId", false),
                set(SetSim::Jaccard),
            ),
        ),
        (
            "a NULL key only among the targets",
            true,
            rec(
                marked(all(), "IId", false),
                marked(one(3), "IId", false),
                set(SetSim::Jaccard),
            ),
        ),
        (
            "a text similarity",
            false,
            rec(
                all(),
                one(1),
                RecommendSpec::new("Name", "Name", RecMethod::Text(TextSim::WordJaccard)),
            ),
        ),
        (
            // 0 × ∞ and ∞ / ∞ are NaN: every target drops, none is
            // emitted with a NULL score.
            "an infinite comparator weight",
            true,
            rec(
                marked(all(), "IId", true),
                marked(some(vec![1, 5]), "IId", true),
                ratings(RatingsSim::InverseEuclidean, 1).with_agg(RecAgg::WeightedAvg {
                    weight_attr: "Wt".to_owned(),
                }),
            ),
        ),
    ];
    cases
        .into_iter()
        .map(|(label, fused, root)| (label, fused, Workflow::new("postings", root)))
        .collect()
}

/// Every `targets=` detail of a profile, depth first.
fn targets_details(p: &cr_relation::OpProfile, out: &mut Vec<String>) {
    out.extend(
        p.detail
            .iter()
            .filter(|d| d.starts_with("targets="))
            .cloned(),
    );
    for c in &p.children {
        targets_details(c, out);
    }
}

/// Each postings workflow on every walker, plain and profiled, equals the
/// row oracle bit for bit, and its first Set/Ratings Recommend takes the
/// path the case names. Returns the oracle's rows.
fn postings_paths_agree(catalog: &Catalog, when: &str) -> Vec<String> {
    let mut answers = Vec::new();
    for (label, fused, wf) in postings_workflows() {
        let plan = workflow_plan(&wf, catalog);
        let want = format!("{:?}", oracle(&plan, catalog).unwrap().rows);
        for &b in BATCH_SIZES {
            let plain = execute_with(&plan, catalog, &batched(b)).unwrap();
            assert_eq!(
                format!("{:?}", plain.rows),
                want,
                "{when}, {label}: batch_size={b}"
            );
            let (profiled, profile) =
                execute_instrumented_with(&plan, catalog, &batched(b)).unwrap();
            assert_eq!(profiled, plain, "{when}, {label}: profiled, batch_size={b}");
            let mut targets = Vec::new();
            targets_details(&profile, &mut targets);
            // The last is the innermost Recommend: the Set/Ratings one.
            let path = targets.last().unwrap();
            assert_eq!(
                path.starts_with("targets=postings:"),
                fused,
                "{when}, {label}: {targets:?}\n{}",
                profile.render()
            );
        }
        answers.push(want);
    }
    answers
}

#[test]
fn postings_edge_cases_match_row_oracle() {
    let db = build_postings_db();
    let before = postings_paths_agree(&db.catalog(), "cold");
    assert_eq!(postings_paths_agree(&db.catalog(), "warm"), before);
    // The fixture has the shapes it claims: no-key and empty comparators
    // score nothing; the overlap, tie and multi-comparator cases do.
    let empty: Vec<bool> = before.iter().map(|rows| rows == "[]").collect();
    assert_eq!(
        empty,
        [
            true, true, true, false, true, false, false, false, false, false, false, false, false,
            false, false, false, true
        ],
        "{before:#?}"
    );
    // A delete drops the images (forward and reverse); an insert patches
    // them. Both paths still answer as the oracle does.
    db.execute_sql("DELETE FROM Marks WHERE UId = 7 AND IId = 2")
        .unwrap();
    let deleted = postings_paths_agree(&db.catalog(), "after a delete");
    assert_ne!(deleted, before, "the delete must show");
    db.execute_sql("INSERT INTO Marks VALUES (100, 4, 1, 'k1', 3)")
        .unwrap();
    let inserted = postings_paths_agree(&db.catalog(), "after an insert");
    assert_ne!(inserted, deleted, "the insert must show");
}
