//! A1 — differential testing for the unified IR: arbitrary FlexRecs
//! workflows, compiled onto the `LogicalPlan` pipeline, must return
//! byte-identical results to the reference interpreter.
//!
//! The generated fixtures deliberately carry **no secondary indexes**:
//! pushed-down scan filters then always execute as sequential scans in
//! slot order, the same order the interpreter's `Source` produces, so any
//! divergence is a semantics bug rather than an access-path ordering
//! artifact.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use cr_flexrecs::compile::compile_and_run;
use cr_flexrecs::{execute, CmpOp, Node, RecAgg, RecMethod, RecommendSpec, WfPredicate, Workflow};
use cr_relation::{Database, RatingsSim, SetSim, TextSim, Value};
use proptest::prelude::*;

const NAMES: &[&str] = &[
    "intro to databases",
    "advanced databases",
    "american history",
    "history of art",
    "systems programming",
    "intro to programming",
];

/// Users (nullable Age, tombstones at Age = 6), fixed Items, and a ratings
/// relation whose UIds may dangle and whose scores may be NULL. No
/// secondary indexes — see the module comment.
fn build_db(users: &[i64], ratings: &[(i64, i64, i64)]) -> Database {
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
    // Tombstones so scans straddle deleted slots.
    db.execute_sql("DELETE FROM Users WHERE Age = 6").unwrap();
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
        // Values below the data range become NULL literals, exercising the
        // two-valued null-safe lowering.
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

/// Users, optionally filtered on its scalar columns.
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
        // Age is nullable: NULL weights must count as 0 on both paths.
        Just(RecAgg::WeightedAvg {
            weight_attr: "Age".to_owned(),
        }),
    ]
}

fn finish_spec(
    spec: RecommendSpec,
    agg: RecAgg,
    k: Option<usize>,
    exclude: Option<(&str, &str)>,
) -> RecommendSpec {
    let spec = spec.with_agg(agg);
    let spec = match k {
        Some(k) => spec.top_k(k),
        None => spec,
    };
    match exclude {
        Some((t, c)) => spec.excluding_seen(t, c),
        None => spec,
    }
}

/// Purely relational shapes: project / join / union / limit over the flat
/// tables.
fn arb_relational() -> impl Strategy<Value = Node> {
    let project = (
        arb_users(),
        proptest::sample::subsequence(vec!["UId", "Name", "Age"], 1..=3),
    )
        .prop_map(|(input, cols)| Node::Project {
            input: Box::new(input),
            columns: cols.into_iter().map(str::to_owned).collect(),
        });
    // The join duplicates the UId column name; predicates above it must
    // resolve to the first match identically on both paths.
    let join = (
        arb_users(),
        proptest::option::of(arb_pred(&["IId", "Score"])),
        proptest::option::of(arb_pred(&["UId", "Age", "Score"])),
    )
        .prop_map(|(left, rpred, above)| {
            let joined = Node::Join {
                left: Box::new(left),
                right: Box::new(maybe_select(src("Ratings"), rpred)),
                left_col: "UId".to_owned(),
                right_col: "UId".to_owned(),
            };
            maybe_select(joined, above)
        });
    let union = (arb_users(), arb_users()).prop_map(|(left, right)| Node::Union {
        left: Box::new(left),
        right: Box::new(right),
    });
    (
        prop_oneof![project, join, union],
        proptest::option::of(0usize..8),
    )
        .prop_map(|(input, limit)| match limit {
            Some(k) => Node::Limit {
                input: Box::new(input),
                k,
            },
            None => input,
        })
}

/// Recommend over nested attributes: user-to-user by item sets or rating
/// vectors, or item scores looked up in similar users' ratings.
fn arb_recommend() -> impl Strategy<Value = Node> {
    let set_sim = prop_oneof![
        Just(SetSim::Jaccard),
        Just(SetSim::Dice),
        Just(SetSim::Overlap),
        Just(SetSim::Cosine),
    ];
    let ratings_sim = prop_oneof![
        Just(RatingsSim::InverseEuclidean),
        Just(RatingsSim::Pearson),
        Just(RatingsSim::Cosine),
    ];
    let text_sim = prop_oneof![
        Just(TextSim::WordJaccard),
        Just(TextSim::TrigramJaccard),
        Just(TextSim::Levenshtein),
    ];
    let knobs = || {
        (
            arb_scalar_agg(),
            proptest::option::of(1usize..6),
            any::<bool>(),
        )
    };
    let set_rec = (arb_extended(false), arb_extended(false), set_sim, knobs()).prop_map(
        |(target, comparator, sim, (agg, k, excl))| Node::Recommend {
            target: Box::new(target),
            comparator: Box::new(comparator),
            spec: finish_spec(
                RecommendSpec::new("R", "R", RecMethod::Set(sim)),
                agg,
                k,
                excl.then_some(("UId", "R")),
            ),
        },
    );
    let ratings_rec = (
        arb_extended(true),
        arb_extended(true),
        ratings_sim,
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
                    excl.then_some(("UId", "R")),
                ),
            },
        );
    let lookup_rec = (
        proptest::option::of(arb_pred(&["IId"])),
        arb_extended(true),
        knobs(),
    )
        .prop_map(|(tpred, comparator, (agg, k, excl))| Node::Recommend {
            target: Box::new(maybe_select(src("Items"), tpred)),
            comparator: Box::new(comparator),
            spec: finish_spec(
                RecommendSpec::new("IId", "R", RecMethod::RatingLookup),
                agg,
                k,
                excl.then_some(("IId", "R")),
            ),
        });
    let text_rec = (arb_users(), arb_users(), text_sim, knobs()).prop_map(
        |(target, comparator, sim, (agg, k, _))| Node::Recommend {
            target: Box::new(target),
            comparator: Box::new(comparator),
            spec: finish_spec(
                RecommendSpec::new("Name", "Name", RecMethod::Text(sim)),
                agg,
                k,
                None,
            ),
        },
    );
    prop_oneof![set_rec, ratings_rec, lookup_rec, text_rec]
}

/// Figure 5(b)'s nested shape with random knobs: a lower ratings-similarity
/// recommend feeding an upper rating-lookup recommend, optionally weighted
/// by the lower score.
fn arb_nested_cf() -> impl Strategy<Value = Node> {
    (
        proptest::option::of(arb_pred(&["UId", "Age"])),
        prop_oneof![
            Just(RatingsSim::InverseEuclidean),
            Just(RatingsSim::Pearson),
            Just(RatingsSim::Cosine),
        ],
        1usize..3,
        1usize..5,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(cpred, sim, min_common, k, weighted, excl)| {
            let lower = Node::Recommend {
                target: Box::new(Node::Extend {
                    input: Box::new(src("Users")),
                    related_table: "Ratings".to_owned(),
                    fk_column: "UId".to_owned(),
                    local_key: "UId".to_owned(),
                    key_column: "IId".to_owned(),
                    rating_column: Some("Score".to_owned()),
                    as_name: "R".to_owned(),
                }),
                comparator: Box::new(maybe_select(
                    Node::Extend {
                        input: Box::new(src("Users")),
                        related_table: "Ratings".to_owned(),
                        fk_column: "UId".to_owned(),
                        local_key: "UId".to_owned(),
                        key_column: "IId".to_owned(),
                        rating_column: Some("Score".to_owned()),
                        as_name: "R".to_owned(),
                    },
                    cpred,
                )),
                spec: RecommendSpec::new("R", "R", RecMethod::Ratings { sim, min_common })
                    .top_k(k)
                    .score_as("sim"),
            };
            let agg = if weighted {
                RecAgg::WeightedAvg {
                    weight_attr: "sim".to_owned(),
                }
            } else {
                RecAgg::Avg
            };
            Node::Recommend {
                target: Box::new(src("Items")),
                comparator: Box::new(lower),
                spec: finish_spec(
                    RecommendSpec::new("IId", "R", RecMethod::RatingLookup),
                    agg,
                    Some(3),
                    excl.then_some(("IId", "R")),
                ),
            }
        })
}

fn arb_workflow() -> impl Strategy<Value = Workflow> {
    prop_oneof![arb_relational(), arb_recommend(), arb_nested_cf()]
        .prop_map(|root| Workflow::new("prop", root))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core property: compile → optimize → shared executor produces
    /// byte-identical output to the reference interpreter.
    #[test]
    fn plan_matches_interpreter(
        users in proptest::collection::vec(0i64..7, 0..16),
        ratings in proptest::collection::vec((0i64..20, 0i64..6, 0i64..6), 0..48),
        wf in arb_workflow(),
    ) {
        let db = build_db(&users, &ratings);
        let catalog = db.catalog();
        let direct = execute(&wf, &catalog);
        let serial = compile_and_run(&wf, &catalog);
        match (&direct, &serial) {
            (Ok(d), Ok(s)) => prop_assert_eq!(d, &s.result, "divergence\n{}", wf.explain()),
            // Both paths must agree on rejection too.
            (Err(_), Err(_)) => {}
            _ => prop_assert!(
                false,
                "one path errored: interpreter {:?}, plan {:?}\n{}",
                direct.as_ref().err(),
                serial.as_ref().err(),
                wf.explain()
            ),
        }
    }

    /// Linting is total: every random workflow either lints clean (no
    /// errors) and compiles, or yields a structured E-coded diagnostic —
    /// never a panic. Lint verdict and compile outcome must agree.
    #[test]
    fn lint_is_total_and_agrees_with_compile(
        users in proptest::collection::vec(0i64..7, 0..16),
        ratings in proptest::collection::vec((0i64..20, 0i64..6, 0i64..6), 0..48),
        wf in arb_workflow(),
    ) {
        let db = build_db(&users, &ratings);
        let catalog = db.catalog();
        let report = wf.lint(&catalog);
        let compiled = cr_flexrecs::compile::compile(&wf, &catalog);
        match (report.is_clean(), &compiled) {
            (true, Ok(_)) | (false, Err(_)) => {}
            (clean, _) => prop_assert!(
                false,
                "lint ({}) and compile ({:?}) disagree\n{report}\n{}",
                if clean { "clean" } else { "errors" },
                compiled.as_ref().err(),
                wf.explain()
            ),
        }
        for d in &report.diagnostics {
            prop_assert!(
                d.code.starts_with('E') || d.code.starts_with('W'),
                "malformed diagnostic code {:?}", d.code
            );
        }
    }
}

/// Every built-in strategy template lints clean (warnings allowed, no
/// errors) against a representative campus schema.
#[test]
fn builtin_templates_lint_clean() {
    use cr_flexrecs::templates::{self, SchemaMap};
    let db = {
        let d = cr_relation::Database::new();
        d.execute_sql(
            "CREATE TABLE Courses (CourseID INT PRIMARY KEY, Title TEXT, DepID INT, Year INT)",
        )
        .unwrap();
        d.execute_sql("CREATE TABLE Students (SuID INT PRIMARY KEY, Name TEXT)")
            .unwrap();
        d.execute_sql(
            "CREATE TABLE Comments (SuID INT, CourseID INT, Rating FLOAT, \
             PRIMARY KEY (SuID, CourseID))",
        )
        .unwrap();
        d
    };
    let m = SchemaMap::default();
    let wfs = vec![
        templates::related_courses(&m, "Databases", None, 5),
        templates::user_cf(&m, 1, 5, 5, 1, true),
        templates::user_cf_weighted(&m, 1, 5, 5, 1),
        templates::similar_students_by_courses(&m, 1, 5),
        templates::item_item_cf(&m, 1, 5),
        templates::item_item_cf_ratings(&m, 1, 5),
        templates::major_recommendation(&m, 1, 5, 1),
    ];
    for wf in wfs {
        let report = wf.lint(&db.catalog());
        assert!(report.is_clean(), "{report}");
    }
}

/// The plan path rejects joins on nested attributes (the interpreter's
/// silent-skip is the one intentional divergence, surfaced as an error).
#[test]
fn join_on_nested_attribute_is_rejected_not_miscompiled() {
    let db = build_db(&[1, 2, 3], &[(1, 1, 3), (2, 2, 4)]);
    let wf = Workflow::new(
        "bad-join",
        Node::Join {
            left: Box::new(Node::Extend {
                input: Box::new(src("Users")),
                related_table: "Ratings".to_owned(),
                fk_column: "UId".to_owned(),
                local_key: "UId".to_owned(),
                key_column: "IId".to_owned(),
                rating_column: None,
                as_name: "R".to_owned(),
            }),
            right: Box::new(src("Items")),
            left_col: "R".to_owned(),
            right_col: "IId".to_owned(),
        },
    );
    assert!(compile_and_run(&wf, &db.catalog()).is_err());
}

/// The shapes the plan path serves from a table's cached nest image and
/// ranks straight off columns, pinned against the interpreter on a fixed
/// campus: an empty comparator nest, NULL foreign keys, duplicate
/// `(user, item)` ratings, score ties cut by `top_k` (first column, then
/// input order), per-key rating lookups — and again after the related
/// table changes, when a stale image would show.
#[test]
fn nest_image_shapes_match_interpreter() {
    let extended = |users: Node, rating: bool| Node::Extend {
        input: Box::new(users),
        related_table: "Ratings".to_owned(),
        fk_column: "UId".to_owned(),
        local_key: "UId".to_owned(),
        key_column: "IId".to_owned(),
        rating_column: rating.then(|| "Score".to_owned()),
        as_name: "R".to_owned(),
    };
    let user = |uid: i64| maybe_select(src("Users"), Some(WfPredicate::eq("UId", uid)));
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
    let ratings = |sim| RecommendSpec::new("R", "R", RecMethod::Ratings { sim, min_common: 1 });
    let lookup = || RecommendSpec::new("IId", "R", RecMethod::RatingLookup);
    let workflows = || -> Vec<Workflow> {
        vec![
            // User 0's nest is empty: UId 0 inserts as a NULL foreign key.
            recommend(
                extended(src("Users"), false),
                extended(user(0), false),
                set(SetSim::Jaccard),
            ),
            recommend(src("Items"), extended(user(0), true), lookup()),
            // Users 1–4 rated the same items: every score ties.
            recommend(
                by_age(false),
                extended(user(1), false),
                set(SetSim::Jaccard).top_k(2),
            ),
            recommend(
                extended(src("Users"), false),
                extended(user(2), false),
                set(SetSim::Overlap).top_k(1),
            ),
            // User 1 rated item 2 twice: the average is what compares.
            recommend(
                by_age(true),
                extended(user(1), true),
                ratings(RatingsSim::InverseEuclidean).top_k(3),
            ),
            recommend(
                extended(src("Users"), true),
                extended(src("Users"), true),
                ratings(RatingsSim::Pearson),
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
        ]
        .into_iter()
        .map(|root| Workflow::new("nest-shape", root))
        .collect()
    };
    let users = [3, 1, 1, 2, 2, 5];
    let mut rated = vec![(0, 1, 5), (0, 3, 2), (5, 4, 3), (5, 1, 0), (9, 2, 4)];
    for uid in 1..=4 {
        rated.extend([(uid, 1, 4), (uid, 2, uid + 1)]);
    }
    rated.push((1, 2, 5));
    let db = build_db(&users, &rated);
    let catalog = db.catalog();
    let check = || -> Vec<_> {
        workflows()
            .iter()
            .map(|wf| {
                let direct = execute(wf, &catalog).unwrap();
                // Twice: once building the image, once served from it.
                for _ in 0..2 {
                    let run = compile_and_run(wf, &catalog).unwrap();
                    assert_eq!(direct, run.result, "divergence\n{}", wf.explain());
                }
                direct
            })
            .collect()
    };
    let before = check();
    assert!(before[..2].iter().all(|r| r.rows.is_empty()));
    assert!(before[2..].iter().all(|r| !r.rows.is_empty()));
    db.execute_sql("INSERT INTO Ratings VALUES (900, 5, 2, 1)")
        .unwrap();
    db.execute_sql("DELETE FROM Ratings WHERE UId = 3 AND IId = 1")
        .unwrap();
    assert_ne!(before, check(), "the mutation must show");
}

/// A projection spelled in a different case from the table (`uid`,
/// `NAME`) over the join that duplicates `UId`: both paths resolve `uid`
/// to the left (Users) column, report the requested spellings, and return
/// equal `ResultSet`s, schema included.
#[test]
fn case_mismatched_projection_over_duplicate_join_matches_interpreter() {
    let db = build_db(&[1, 2, 3], &[(1, 1, 3), (2, 2, 4), (2, 3, 5), (7, 1, 1)]);
    let wf = Workflow::new(
        "case-project",
        Node::Project {
            input: Box::new(Node::Join {
                left: Box::new(src("Users")),
                right: Box::new(src("Ratings")),
                left_col: "UId".to_owned(),
                right_col: "UId".to_owned(),
            }),
            columns: vec!["uid".to_owned(), "NAME".to_owned(), "score".to_owned()],
        },
    );
    let catalog = db.catalog();
    let direct = execute(&wf, &catalog).unwrap();
    let compiled = compile_and_run(&wf, &catalog).unwrap();
    assert_eq!(direct, compiled.result);
    let names: Vec<&str> = direct
        .schema
        .columns()
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(names, ["uid", "NAME", "score"]);
    // UId is the Users primary key: the left column, NOT NULL.
    assert!(!direct.schema.column(0).nullable);
    assert_eq!(direct.rows.len(), 3);
}
