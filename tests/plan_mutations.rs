//! Plan-mutation corpus: systematically corrupt well-formed plans (derived
//! from the golden strategy templates of `plan_snapshots.rs` plus
//! hand-built ones) and assert the validator flags every corruption with
//! the *right* diagnostic code. This is the validator's own test of
//! coverage: a corruption that slips through here would reach the executor
//! as a wrong answer or a panic.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use cr_datagen::ScaleConfig;
use cr_flexrecs::templates::{self, SchemaMap};
use cr_relation::plan::validate::{self, ValidationReport};
use cr_relation::plan::{JoinKind, LogicalPlan, RecMethod, RecSpec};
use cr_relation::schema::{Column, DataType, Schema};
use cr_relation::value::Value;
use cr_relation::{Database, Expr, PlanBuilder};

fn campus() -> Database {
    let (db, _) = cr_datagen::generate(&ScaleConfig::tiny()).unwrap();
    db.database().clone()
}

/// Compile a strategy template to its (unoptimized, known-valid) plan.
fn user_cf_plan(db: &Database) -> LogicalPlan {
    let wf = templates::user_cf(&SchemaMap::default(), 444, 10, 20, 2, true);
    cr_flexrecs::compile::compile(&wf, &db.catalog()).unwrap()
}

/// Drop the last column from a schema.
fn drop_last(schema: &Schema) -> Schema {
    let mut cols = schema.columns().to_vec();
    cols.pop();
    Schema::new(cols)
}

/// Retype one column of a schema.
fn retype(schema: &Schema, i: usize, dt: DataType) -> Schema {
    let mut cols = schema.columns().to_vec();
    cols[i].data_type = dt;
    Schema::new(cols)
}

fn assert_flags(report: &ValidationReport, code: &str) {
    assert!(report.has_code(code), "expected {code}, got: {report}");
}

#[test]
fn baseline_template_plan_is_valid() {
    let db = campus();
    let plan = user_cf_plan(&db);
    let report = validate::validate_against(&plan, &db.catalog());
    assert!(report.is_empty(), "{report}");
}

// --- E001: column reference out of range ----------------------------------

#[test]
fn mutation_filter_column_out_of_range() {
    let db = campus();
    let scan = PlanBuilder::scan(&db.catalog(), "Students")
        .unwrap()
        .build();
    let bad = LogicalPlan::Filter {
        input: Box::new(scan),
        predicate: Expr::col_idx(99).eq(Expr::lit(1i64)),
    };
    assert_flags(&validate::validate(&bad), "E001");
}

#[test]
fn mutation_extend_key_out_of_range() {
    let db = campus();
    let plan = user_cf_plan(&db);
    // The comparator side of the outer Recommend is the inner Recommend,
    // whose target is the ε-Extend — point its key at a ghost column.
    let bad = map_first_extend(plan, |mut e| {
        if let LogicalPlan::Extend { key_col, .. } = &mut e {
            *key_col = 99;
        }
        e
    });
    assert_flags(&validate::validate(&bad), "E001");
}

// --- E002: unbound column name --------------------------------------------

#[test]
fn mutation_unbound_name_in_predicate() {
    let db = campus();
    let scan = PlanBuilder::scan(&db.catalog(), "Students")
        .unwrap()
        .build();
    let bad = LogicalPlan::Filter {
        input: Box::new(scan),
        predicate: Expr::col("no_such_column").eq(Expr::lit(1i64)),
    };
    assert_flags(&validate::validate(&bad), "E002");
}

// --- E003: retyped predicate ----------------------------------------------

#[test]
fn mutation_nonboolean_predicate() {
    let db = campus();
    let scan = PlanBuilder::scan(&db.catalog(), "Students")
        .unwrap()
        .build();
    // A bare Int column where a boolean belongs.
    let bad = LogicalPlan::Filter {
        input: Box::new(scan),
        predicate: Expr::col_idx(0),
    };
    assert_flags(&validate::validate(&bad), "E003");
}

// --- E004: schema arity drift ---------------------------------------------

#[test]
fn mutation_dropped_output_column() {
    let db = campus();
    let plan = user_cf_plan(&db);
    let bad = match plan {
        LogicalPlan::Recommend {
            target,
            comparator,
            spec,
            schema,
        } => LogicalPlan::Recommend {
            target,
            comparator,
            spec,
            schema: drop_last(&schema),
        },
        other => panic!("expected Recommend root, got {}", other.explain()),
    };
    assert_flags(&validate::validate(&bad), "E004");
}

// --- E005: schema type drift ----------------------------------------------

#[test]
fn mutation_retyped_join_output() {
    let db = campus();
    let c = db.catalog();
    let left = PlanBuilder::scan(&c, "Students").unwrap();
    let right = PlanBuilder::scan(&c, "Courses").unwrap();
    let plan = left
        .join_on(right, JoinKind::Inner, "Students.SuID", "Courses.CourseID")
        .unwrap()
        .build();
    let bad = match plan {
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            schema,
        } => LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            schema: retype(&schema, 0, DataType::Text),
        },
        other => panic!("expected Join, got {}", other.explain()),
    };
    assert_flags(&validate::validate(&bad), "E005");
}

// --- E006: join key swapped onto a nested column --------------------------

#[test]
fn mutation_join_on_nested_column() {
    let db = campus();
    let plan = user_cf_plan(&db);
    // Steal the valid ε-Extend from the template plan and join its output
    // (which ends in a Ratings column) against a plain scan, keyed on the
    // nested column.
    let ext = extract_first_extend(&plan).expect("template plan contains an Extend");
    let nested_idx = ext.schema().len() - 1;
    let right = PlanBuilder::scan(&db.catalog(), "Courses").unwrap().build();
    let schema = ext.schema().join(right.schema());
    let bad = LogicalPlan::Join {
        left: Box::new(ext.clone()),
        right: Box::new(right),
        kind: JoinKind::Inner,
        on: Expr::col_idx(nested_idx).eq(Expr::col_idx(nested_idx + 1)),
        schema,
    };
    assert_flags(&validate::validate(&bad), "E006");
}

// --- E007: orphaned Extend (related side wrong arity) ---------------------

#[test]
fn mutation_extend_related_arity() {
    let db = campus();
    let plan = user_cf_plan(&db);
    let bad = map_first_extend(plan, |mut e| {
        if let LogicalPlan::Extend { related, .. } = &mut e {
            // Narrow the related side to a single column.
            let narrowed = match (**related).clone() {
                LogicalPlan::Scan {
                    table,
                    alias,
                    projection: Some(p),
                    filter,
                    schema,
                } => LogicalPlan::Scan {
                    table,
                    alias,
                    projection: Some(p[..1].to_vec()),
                    filter,
                    schema: Schema::new(schema.columns()[..1].to_vec()),
                },
                other => panic!("expected projected Scan, got {}", other.explain()),
            };
            **related = narrowed;
        }
        e
    });
    assert_flags(&validate::validate(&bad), "E007");
}

// --- E008: extend key not scalar ------------------------------------------

#[test]
fn mutation_extend_key_nested() {
    let db = campus();
    let plan = user_cf_plan(&db);
    let ext = extract_first_extend(&plan).expect("template plan contains an Extend");
    let nested_idx = ext.schema().len() - 1;
    // Extend the already-extended input again, keyed on its nested column.
    let mut schema = ext.schema().clone();
    schema = {
        let mut cols = schema.columns().to_vec();
        cols.push(Column::new("again", DataType::Ratings));
        Schema::new(cols)
    };
    let related = extract_first_related(&plan).expect("template plan contains a related side");
    let bad = LogicalPlan::Extend {
        input: Box::new(ext.clone()),
        related: Box::new(related),
        key_col: nested_idx,
        rating: true,
        as_name: "again".into(),
        schema,
    };
    assert_flags(&validate::validate(&bad), "E008");
}

// --- E009: extend output column retyped -----------------------------------

#[test]
fn mutation_extend_output_retyped() {
    let db = campus();
    let plan = user_cf_plan(&db);
    let bad = map_first_extend(plan, |mut e| {
        if let LogicalPlan::Extend { schema, .. } = &mut e {
            *schema = retype(schema, schema.len() - 1, DataType::Int);
        }
        e
    });
    assert_flags(&validate::validate(&bad), "E009");
}

// --- E010: recommend spec column out of range -----------------------------

#[test]
fn mutation_recommend_spec_out_of_range() {
    let db = campus();
    let plan = user_cf_plan(&db);
    let bad = match plan {
        LogicalPlan::Recommend {
            target,
            comparator,
            mut spec,
            schema,
        } => {
            spec.target_col = 42;
            LogicalPlan::Recommend {
                target,
                comparator,
                spec,
                schema,
            }
        }
        other => panic!("expected Recommend root, got {}", other.explain()),
    };
    assert_flags(&validate::validate(&bad), "E010");
}

// --- E011: recommend method type discipline -------------------------------

#[test]
fn mutation_recommend_method_swapped() {
    let db = campus();
    let plan = user_cf_plan(&db);
    // The inner recommend compares Ratings ~ Ratings; force a Set method.
    let bad = map_first_inner_recommend(plan, |mut spec: RecSpec| {
        spec.method = RecMethod::Set(cr_relation::similarity::SetSim::Jaccard);
        spec
    });
    assert_flags(&validate::validate(&bad), "E011");
}

// --- E012: recommend score column corrupted -------------------------------

#[test]
fn mutation_recommend_score_retyped() {
    let db = campus();
    let plan = user_cf_plan(&db);
    let bad = match plan {
        LogicalPlan::Recommend {
            target,
            comparator,
            spec,
            schema,
        } => {
            let last = schema.len() - 1;
            LogicalPlan::Recommend {
                target,
                comparator,
                spec,
                schema: retype(&schema, last, DataType::Int),
            }
        }
        other => panic!("expected Recommend root, got {}", other.explain()),
    };
    assert_flags(&validate::validate(&bad), "E012");
}

// --- E013: union arms drift apart -----------------------------------------

#[test]
fn mutation_union_mismatch() {
    let db = campus();
    let c = db.catalog();
    let left = PlanBuilder::scan(&c, "Students").unwrap().build();
    let right = PlanBuilder::scan(&c, "Courses").unwrap().build();
    let bad = LogicalPlan::Union {
        left: Box::new(left),
        right: Box::new(right),
    };
    assert_flags(&validate::validate(&bad), "E013");
}

// --- E014: scan projection out of range (catalog mode) --------------------

#[test]
fn mutation_scan_projection_out_of_range() {
    let db = campus();
    let c = db.catalog();
    let full = c.table_schema("Students").unwrap();
    let bad = LogicalPlan::Scan {
        table: "Students".into(),
        alias: None,
        projection: Some(vec![0, 99]),
        filter: None,
        schema: Schema::new(vec![
            full.columns()[0].clone(),
            Column::new("ghost", DataType::Int),
        ]),
    };
    assert_flags(&validate::validate_against(&bad, &c), "E014");
}

// --- E015: values row arity -----------------------------------------------

#[test]
fn mutation_values_row_arity() {
    let bad = LogicalPlan::Values {
        schema: Schema::new(vec![Column::new("x", DataType::Int)]),
        rows: vec![vec![Value::Int(1), Value::Int(2)]],
    };
    assert_flags(&validate::validate(&bad), "E015");
}

// --- E016: unknown table (catalog mode) -----------------------------------

#[test]
fn mutation_scan_unknown_table() {
    let db = campus();
    let bad = LogicalPlan::Scan {
        table: "NoSuchTable".into(),
        alias: None,
        projection: None,
        filter: None,
        schema: Schema::default(),
    };
    assert_flags(&validate::validate_against(&bad, &db.catalog()), "E016");
}

// --- corruption coverage --------------------------------------------------

#[test]
fn corpus_covers_at_least_ten_distinct_codes() {
    // Every distinct code exercised above; keep this list in sync so the
    // acceptance bar (>= 10 distinct seeded corruptions) stays visible.
    let covered = [
        "E001", "E002", "E003", "E004", "E005", "E006", "E007", "E008", "E009", "E010", "E011",
        "E012", "E013", "E014", "E015", "E016",
    ];
    assert!(covered.len() >= 10);
    let table: Vec<&str> = validate::code_table().iter().map(|(c, _)| *c).collect();
    for code in covered {
        assert!(table.contains(&code), "{code} missing from code_table()");
    }
}

// --- PR10: policy-violation corpus (P-codes from the flow analysis) --------
//
// Same spirit as the structural mutations above, but for *disclosure*:
// each plan is well-formed, yet leaks labeled data for the given
// principal. Every stable P-code must be produced by at least one plan
// here, including the implicit-flow case and the k-threshold boundary.

mod policy {
    use super::*;
    use cr_relation::plan::flow::{self, Principal};

    fn flow_check(db: &Database, sql: &str, p: &Principal) -> ValidationReport {
        let plan = cr_relation::sql::plan_query(sql, &db.catalog()).unwrap();
        flow::check_disclosure(&plan, &db.catalog(), p)
    }

    fn student() -> Principal {
        Principal::Student(Some(2))
    }

    #[test]
    fn p001_direct_grade_scan() {
        let db = campus();
        let r = flow_check(&db, "SELECT SuID, Grade FROM Enrollments", &student());
        assert_flags(&r, "P001");
        // Same plan, full clearance: clean.
        let r = flow_check(
            &db,
            "SELECT SuID, Grade FROM Enrollments",
            &Principal::Staff,
        );
        assert!(r.is_empty(), "{r}");
    }

    #[test]
    fn p001_handbuilt_gpa_projection() {
        // Not via SQL: a hand-built Project exposing the per-user GPA.
        let db = campus();
        let plan = PlanBuilder::scan(&db.catalog(), "Students")
            .unwrap()
            .select_columns(&["Name", "GPA"])
            .unwrap()
            .build();
        let r = flow::check_disclosure(&plan, &db.catalog(), &student());
        assert_flags(&r, "P001");
    }

    #[test]
    fn p002_implicit_flow_via_grade_predicate() {
        // Output is only community data, but *which rows* depends on a
        // per-user grade — the implicit-flow case.
        let db = campus();
        let r = flow_check(
            &db,
            "SELECT SuID FROM Enrollments WHERE Grade = 'A'",
            &student(),
        );
        assert_flags(&r, "P002");
        assert!(
            !r.has_code("P001"),
            "direct and implicit must not blur: {r}"
        );
    }

    #[test]
    fn p003_k_threshold_boundary() {
        let db = campus();
        let having = |k: i64| {
            format!(
                "SELECT Grade, COUNT(DISTINCT SuID) AS n FROM Enrollments \
                 GROUP BY Grade HAVING COUNT(DISTINCT SuID) >= {k}"
            )
        };
        // Below k=5: denied.
        let below = flow_check(&db, &having(4), &student());
        assert_flags(&below, "P003");
        // At the threshold: the guard proves group size; clean.
        let at = flow_check(&db, &having(5), &student());
        assert!(at.is_empty(), "{at}");
        // Above: clean a fortiori.
        let above = flow_check(&db, &having(6), &student());
        assert!(above.is_empty(), "{above}");
        // No guard at all: denied.
        let none = flow_check(
            &db,
            "SELECT Grade, COUNT(DISTINCT SuID) AS n FROM Enrollments GROUP BY Grade",
            &student(),
        );
        assert_flags(&none, "P003");
    }

    #[test]
    fn p004_optout_gate_bypass() {
        let db = campus();
        let bypass = "SELECT e.SuID, e.CourseID FROM Enrollments e WHERE e.Status = 'planned'";
        let r = flow_check(&db, bypass, &student());
        assert_flags(&r, "P004");
        // Guarding on the sharing gate declassifies for students...
        let gated = "SELECT e.SuID, e.CourseID FROM Enrollments e \
                     JOIN Students s ON e.SuID = s.SuID \
                     WHERE s.SharePlans = TRUE AND e.Status = 'planned'";
        let r = flow_check(&db, gated, &student());
        assert!(!r.has_errors(), "{r}");
        // ...but never for faculty (the paper's role matrix).
        let r = flow_check(&db, gated, &Principal::Faculty);
        assert_flags(&r, "P004");
    }

    #[test]
    fn p005_restricted_telemetry_scan() {
        let db = campus();
        for table in ["cr_stat_slow_queries", "cr_stat_traces"] {
            let sql = format!("SELECT * FROM {table}");
            let r = flow_check(&db, &sql, &student());
            assert_flags(&r, "P005");
            let r = flow_check(&db, &sql, &Principal::Staff);
            assert!(r.is_empty(), "{table}: {r}");
        }
    }

    #[test]
    fn p101_weak_guard_warns_without_denying() {
        // COUNT(*) bounds rows, not distinct owners — enough to
        // declassify, weak enough to warn about.
        let db = campus();
        let r = flow_check(
            &db,
            "SELECT Grade, COUNT(*) AS n FROM Enrollments \
             GROUP BY Grade HAVING COUNT(*) >= 5",
            &student(),
        );
        assert!(!r.has_errors(), "{r}");
        assert_flags(&r, "P101");
    }

    #[test]
    fn self_access_is_clean() {
        let db = campus();
        let r = flow_check(
            &db,
            "SELECT CourseID, Grade FROM Enrollments WHERE SuID = 2",
            &student(),
        );
        assert!(r.is_empty(), "{r}");
        // The same rows under someone else's id: denied.
        let r = flow_check(
            &db,
            "SELECT CourseID, Grade FROM Enrollments WHERE SuID = 3",
            &student(),
        );
        assert!(r.has_errors(), "{r}");
    }

    #[test]
    fn corpus_covers_every_p_code() {
        // Every code the analysis can emit is exercised by a test above;
        // keep this list in sync with `flow::flow_code_table`.
        let covered = ["P001", "P002", "P003", "P004", "P005", "P101"];
        let table: Vec<&str> = flow::flow_code_table().iter().map(|(c, _)| *c).collect();
        assert_eq!(covered.len(), table.len());
        for code in covered {
            assert!(table.contains(&code), "{code} missing from flow_code_table");
        }
    }
}

// --- helpers ---------------------------------------------------------------

/// Apply `f` to the first Extend node found (preorder), rebuilding the
/// tree.
fn map_first_extend(plan: LogicalPlan, f: impl FnOnce(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    fn go<F: FnOnce(LogicalPlan) -> LogicalPlan>(
        plan: LogicalPlan,
        f: &mut Option<F>,
    ) -> LogicalPlan {
        match f.take_if(|_| matches!(plan, LogicalPlan::Extend { .. })) {
            Some(f) => f(plan),
            None if f.is_some() => plan.map_children(|c| go(c, f)),
            None => plan,
        }
    }
    go(plan, &mut Some(f))
}

/// Find the first Extend node (preorder).
fn extract_first_extend(plan: &LogicalPlan) -> Option<LogicalPlan> {
    if matches!(plan, LogicalPlan::Extend { .. }) {
        return Some(plan.clone());
    }
    plan.children()
        .into_iter()
        .flatten()
        .find_map(|(_, child)| extract_first_extend(child))
}

/// Find the related side of the first Extend node.
fn extract_first_related(plan: &LogicalPlan) -> Option<LogicalPlan> {
    match extract_first_extend(plan)? {
        LogicalPlan::Extend { related, .. } => Some(*related),
        _ => None,
    }
}

/// Apply `f` to the spec of the first *nested* Recommend (the comparator
/// side of the root).
fn map_first_inner_recommend(plan: LogicalPlan, f: impl Fn(RecSpec) -> RecSpec) -> LogicalPlan {
    match plan {
        LogicalPlan::Recommend {
            target,
            comparator,
            spec,
            schema,
        } => {
            let comparator = match *comparator {
                LogicalPlan::Recommend {
                    target: t2,
                    comparator: c2,
                    spec: s2,
                    schema: sch2,
                } => LogicalPlan::Recommend {
                    target: t2,
                    comparator: c2,
                    spec: f(s2),
                    schema: sch2,
                },
                other => panic!("expected nested Recommend, got {}", other.explain()),
            };
            LogicalPlan::Recommend {
                target,
                comparator: Box::new(comparator),
                spec,
                schema,
            }
        }
        other => panic!("expected Recommend root, got {}", other.explain()),
    }
}
