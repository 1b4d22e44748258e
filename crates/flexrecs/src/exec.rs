//! Direct workflow executor.
//!
//! Evaluates a workflow tree straight against the relational engine's
//! tables — the reference semantics that the compiled plan path
//! ([`crate::compile`]) is equivalence-tested against, whole
//! [`ResultSet`]s (schema included) compared.

use std::collections::HashMap;

use cr_relation::{Catalog, RelError, RelResult, ResultSet, Row, Schema, Value};

use crate::workflow::{
    infer_schema, resolve, Node, RecAgg, RecMethod, RecommendSpec, WfPredicate, Workflow,
};

/// Execute a workflow directly.
pub fn execute(workflow: &Workflow, catalog: &Catalog) -> RelResult<ResultSet> {
    let schema = infer_schema(&workflow.root, catalog)?;
    let rows = eval(&workflow.root, catalog)?;
    Ok(ResultSet { schema, rows })
}

/// A cell as the FlexRecs operators see a scalar: nested `Set`/`Ratings`
/// values are not scalars; everything else (including NULL) is.
fn as_scalar(v: &Value) -> Option<&Value> {
    (!v.is_nested()).then_some(v)
}

pub(crate) fn eval(node: &Node, catalog: &Catalog) -> RelResult<Vec<Row>> {
    match node {
        Node::Source { table } => {
            catalog.with_table(table, |t| t.scan().map(|(_, row)| row.to_vec()).collect())
        }

        Node::Select { input, predicate } => {
            let schema = infer_schema(input, catalog)?;
            let tuples = eval(input, catalog)?;
            let mut out = Vec::with_capacity(tuples.len() / 2);
            for t in tuples {
                if eval_predicate(predicate, &schema, &t)? {
                    out.push(t);
                }
            }
            Ok(out)
        }

        Node::Project { input, columns } => {
            let schema = infer_schema(input, catalog)?;
            let idx: Vec<usize> = columns
                .iter()
                .map(|c| resolve(&schema, c))
                .collect::<RelResult<_>>()?;
            let tuples = eval(input, catalog)?;
            Ok(tuples
                .into_iter()
                .map(|t| idx.iter().map(|&i| t[i].clone()).collect())
                .collect())
        }

        Node::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let ls = infer_schema(left, catalog)?;
            let rs = infer_schema(right, catalog)?;
            let li = resolve(&ls, left_col)?;
            let ri = resolve(&rs, right_col)?;
            let lt = eval(left, catalog)?;
            let rt = eval(right, catalog)?;
            // Build on the right.
            let mut build: HashMap<&Value, Vec<usize>> = HashMap::with_capacity(rt.len());
            for (i, t) in rt.iter().enumerate() {
                if let Some(v) = as_scalar(&t[ri]) {
                    if !v.is_null() {
                        build.entry(v).or_default().push(i);
                    }
                }
            }
            let mut out = Vec::new();
            for l in &lt {
                let Some(v) = as_scalar(&l[li]) else { continue };
                if let Some(matches) = build.get(v) {
                    for &m in matches {
                        let mut combined = l.clone();
                        combined.extend(rt[m].iter().cloned());
                        out.push(combined);
                    }
                }
            }
            Ok(out)
        }

        Node::Extend {
            input,
            related_table,
            fk_column,
            local_key,
            key_column,
            rating_column,
            ..
        } => {
            let schema = infer_schema(input, catalog)?;
            let key_idx = resolve(&schema, local_key)?;
            // Pre-aggregate the related table by fk.
            enum Agg {
                Sets(HashMap<Value, Vec<Value>>),
                Ratings(HashMap<Value, Vec<(Value, f64)>>),
            }
            // Set semantics: one entry per related key. Duplicate keys
            // (a student commenting twice on a course) collapse — sets
            // dedup, ratings average — so the direct executor and the SQL
            // compiler (which pre-aggregates with GROUP BY) agree.
            let agg = catalog.with_table(related_table, |t| -> RelResult<Agg> {
                let fk = resolve(t.schema(), fk_column)?;
                let key = resolve(t.schema(), key_column)?;
                match rating_column {
                    None => {
                        let mut m: HashMap<Value, Vec<Value>> = HashMap::new();
                        for (_, row) in t.scan() {
                            if row[fk].is_null() {
                                continue;
                            }
                            m.entry(row[fk].clone()).or_default().push(row[key].clone());
                        }
                        for v in m.values_mut() {
                            v.sort();
                            v.dedup();
                        }
                        Ok(Agg::Sets(m))
                    }
                    Some(rc) => {
                        let ri = resolve(t.schema(), rc)?;
                        let mut sums: HashMap<Value, HashMap<Value, (f64, u32)>> = HashMap::new();
                        for (_, row) in t.scan() {
                            if row[fk].is_null() || row[ri].is_null() {
                                continue;
                            }
                            let rating = row[ri].as_float()?;
                            let slot = sums
                                .entry(row[fk].clone())
                                .or_default()
                                .entry(row[key].clone())
                                .or_insert((0.0, 0));
                            slot.0 += rating;
                            slot.1 += 1;
                        }
                        let mut m: HashMap<Value, Vec<(Value, f64)>> =
                            HashMap::with_capacity(sums.len());
                        for (fk_val, per_key) in sums {
                            let mut v: Vec<(Value, f64)> = per_key
                                .into_iter()
                                .map(|(k, (sum, n))| (k, sum / n as f64))
                                .collect();
                            v.sort_by(|a, b| a.0.total_cmp(&b.0));
                            m.insert(fk_val, v);
                        }
                        Ok(Agg::Ratings(m))
                    }
                }
            })??;
            let tuples = eval(input, catalog)?;
            let mut out = Vec::with_capacity(tuples.len());
            for mut t in tuples {
                let key = as_scalar(&t[key_idx])
                    .ok_or_else(|| RelError::Invalid("extend key not scalar".into()))?;
                let nest = match &agg {
                    Agg::Sets(m) => Value::Set(m.get(key).map_or(&[][..], Vec::as_slice).into()),
                    Agg::Ratings(m) => {
                        Value::Ratings(m.get(key).map_or(&[][..], Vec::as_slice).into())
                    }
                };
                t.push(nest);
                out.push(t);
            }
            Ok(out)
        }

        Node::Recommend {
            target,
            comparator,
            spec,
        } => {
            let ts = infer_schema(target, catalog)?;
            let cs = infer_schema(comparator, catalog)?;
            let targets = eval(target, catalog)?;
            let comparators = eval(comparator, catalog)?;
            recommend(&ts, targets, &cs, &comparators, spec)
        }

        Node::Limit { input, k } => {
            let mut tuples = eval(input, catalog)?;
            tuples.truncate(*k);
            Ok(tuples)
        }

        Node::Union { left, right } => {
            let mut l = eval(left, catalog)?;
            l.extend(eval(right, catalog)?);
            Ok(l)
        }
    }
}

fn eval_predicate(p: &WfPredicate, schema: &Schema, t: &Row) -> RelResult<bool> {
    match p {
        WfPredicate::Cmp { column, op, value } => {
            let v = as_scalar(&t[resolve(schema, column)?])
                .ok_or_else(|| RelError::Invalid(format!("column {column} not scalar")))?;
            if v.is_null() || value.is_null() {
                return Ok(false);
            }
            // DATE attributes compare against integer literals (days since
            // epoch), same coercion as the relational engine's expressions.
            let (a, b) = match (v, value) {
                (Value::Date(_), Value::Int(i)) => (v.clone(), Value::Date(*i as i32)),
                (Value::Int(i), Value::Date(_)) => (Value::Date(*i as i32), value.clone()),
                _ => (v.clone(), value.clone()),
            };
            Ok(op.eval(a.total_cmp(&b)))
        }
        WfPredicate::And(ps) => {
            for p in ps {
                if !eval_predicate(p, schema, t)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        WfPredicate::Or(ps) => {
            for p in ps {
                if eval_predicate(p, schema, t)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
    }
}

/// The recommend operator: score every target tuple against the comparator
/// set, aggregate, filter, rank, truncate.
pub(crate) fn recommend(
    target_schema: &Schema,
    targets: Vec<Row>,
    comparator_schema: &Schema,
    comparators: &[Row],
    spec: &RecommendSpec,
) -> RelResult<Vec<Row>> {
    let t_idx = resolve(target_schema, &spec.target_attr)?;
    let c_idx = resolve(comparator_schema, &spec.comparator_attr)?;
    let weight_idx = match &spec.agg {
        RecAgg::WeightedAvg { weight_attr } => Some(resolve(comparator_schema, weight_attr)?),
        _ => None,
    };
    let exclude = match &spec.exclude_seen {
        Some((t_attr, c_attr)) => {
            let ti = resolve(target_schema, t_attr)?;
            let ci = resolve(comparator_schema, c_attr)?;
            // Gather the union of seen keys across comparators.
            let mut seen: std::collections::HashSet<Value> = std::collections::HashSet::new();
            for c in comparators {
                match &c[ci] {
                    Value::Set(s) => seen.extend(s.iter().cloned()),
                    Value::Ratings(r) => seen.extend(r.iter().map(|(k, _)| k.clone())),
                    _ => {}
                }
            }
            Some((ti, seen))
        }
        None => None,
    };

    // Pre-extract per-comparator rating maps for the lookup method.
    let lookup_maps: Option<Vec<HashMap<&Value, f64>>> = match spec.method {
        RecMethod::RatingLookup => Some(
            comparators
                .iter()
                .map(|c| {
                    c[c_idx]
                        .as_ratings()
                        .map(|r| r.iter().map(|(k, v)| (k, *v)).collect())
                        .unwrap_or_default()
                })
                .collect(),
        ),
        _ => None,
    };

    let mut scored: Vec<(f64, Row)> = Vec::with_capacity(targets.len());
    for mut t in targets {
        if let Some((ti, seen)) = &exclude {
            if let Some(v) = as_scalar(&t[*ti]) {
                if seen.contains(v) {
                    continue;
                }
            }
        }
        // Per-comparator scores (None = undefined, skipped by Avg).
        let mut acc_sum = 0.0f64;
        let mut acc_weight = 0.0f64;
        let mut acc_n = 0usize;
        let mut acc_max = f64::NEG_INFINITY;
        for (i, c) in comparators.iter().enumerate() {
            let score: Option<f64> = match &spec.method {
                RecMethod::Text(sim) => match (&t[t_idx], &c[c_idx]) {
                    (Value::Text(a), Value::Text(b)) => Some(sim.score(a, b)),
                    _ => None,
                },
                RecMethod::Set(sim) => match (t[t_idx].as_set(), c[c_idx].as_set()) {
                    (Some(a), Some(b)) => Some(sim.score(a, b)),
                    _ => None,
                },
                RecMethod::Ratings { sim, min_common } => {
                    match (t[t_idx].as_ratings(), c[c_idx].as_ratings()) {
                        (Some(a), Some(b)) => Some(sim.score(a, b, *min_common)),
                        _ => None,
                    }
                }
                RecMethod::RatingLookup => {
                    let maps = lookup_maps.as_ref().expect("built for lookup");
                    as_scalar(&t[t_idx]).and_then(|key| maps[i].get(key).copied())
                }
            };
            if let Some(s) = score {
                let w = match weight_idx {
                    Some(wi) => match &c[wi] {
                        Value::Float(f) => *f,
                        Value::Int(n) => *n as f64,
                        _ => 0.0,
                    },
                    None => 1.0,
                };
                acc_sum += s * w;
                acc_weight += w;
                acc_n += 1;
                acc_max = acc_max.max(s);
            }
        }
        if acc_n == 0 {
            continue;
        }
        let final_score = match &spec.agg {
            RecAgg::Avg => acc_sum / acc_n as f64,
            RecAgg::Sum => acc_sum,
            RecAgg::Max => acc_max,
            RecAgg::WeightedAvg { .. } if acc_weight > 0.0 => acc_sum / acc_weight,
            RecAgg::WeightedAvg { .. } => continue,
        };
        // NaN (an infinite weight's 0 × ∞) drops like a score ≤ 0.
        if final_score.is_nan() || final_score <= 0.0 {
            continue;
        }
        t.push(Value::float(final_score));
        scored.push((final_score, t));
    }
    // Deterministic order: score descending, then the first scalar
    // attribute ascending (usually the entity id). The SQL compiler emits
    // the same ORDER BY so both execution paths agree even at top-k tie
    // boundaries.
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                let ka = a.1.first().and_then(as_scalar);
                let kb = b.1.first().and_then(as_scalar);
                match (ka, kb) {
                    (Some(x), Some(y)) => x.total_cmp(y),
                    _ => std::cmp::Ordering::Equal,
                }
            })
    });
    if let Some(k) = spec.k {
        scored.truncate(k);
    }
    Ok(scored.into_iter().map(|(_, t)| t).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::{RatingsSim, TextSim};
    use crate::workflow::{ranking, CmpOp};
    use cr_relation::Database;

    /// A small CourseRank-shaped database (the paper's §3.2 schema:
    /// Courses / Students / Comments with ratings).
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
             (4, 'Advanced Programming Topics', 2007), \
             (5, 'Operating Systems', 2008)",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO Students VALUES (444, 'Sally'), (2, 'Bob'), (3, 'Ann'), (4, 'Tim')",
        )
        .unwrap();
        // Sally(444) and Bob(2) rate alike; Ann(3) is opposite; Tim(4)
        // rates course 5 highly and resembles Sally.
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

    #[test]
    fn figure_5a_related_courses() {
        let db = db();
        let wf = Workflow::new(
            "related",
            Node::Recommend {
                target: Box::new(Node::Select {
                    input: Box::new(Node::Source {
                        table: "Courses".into(),
                    }),
                    predicate: WfPredicate::And(vec![
                        WfPredicate::eq("Year", 2008i64),
                        WfPredicate::cmp("CourseID", CmpOp::NotEq, 1i64),
                    ]),
                }),
                comparator: Box::new(Node::Select {
                    input: Box::new(Node::Source {
                        table: "Courses".into(),
                    }),
                    predicate: WfPredicate::eq("Title", "Introduction to Programming"),
                }),
                spec: RecommendSpec::new("Title", "Title", RecMethod::Text(TextSim::WordJaccard))
                    .top_k(3),
            },
        );
        let r = execute(&wf, &db.catalog()).unwrap();
        // 'Programming Abstractions' shares a word; medieval history gets
        // score 0 and is filtered; 2007 course excluded by the select.
        let ranking = ranking(&r, "CourseID", "score").unwrap();
        assert_eq!(ranking[0].0, Value::Int(2));
        assert!(ranking.iter().all(|(id, _)| *id != Value::Int(3)));
        assert!(ranking.iter().all(|(id, _)| *id != Value::Int(4)));
    }

    #[test]
    fn figure_5b_collaborative_filtering() {
        let db = db();
        // Lower recommend: students similar to 444 by inverse Euclidean.
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
        // Upper recommend: rank courses by avg rating of similar students,
        // excluding what 444 already took? Figure 5(b) doesn't exclude;
        // we test both paths elsewhere.
        let upper = Node::Recommend {
            target: Box::new(Node::Source {
                table: "Courses".into(),
            }),
            comparator: Box::new(lower),
            spec: RecommendSpec::new("CourseID", "ratings", RecMethod::RatingLookup)
                .with_agg(RecAgg::Avg)
                .top_k(5),
        };
        let wf = Workflow::new("cf", upper);
        let r = execute(&wf, &db.catalog()).unwrap();
        let ranking = ranking(&r, "CourseID", "score").unwrap();
        // Similar students = Bob (identical on courses 1,3) and Tim.
        let score_by_id: HashMap<Value, f64> = ranking.iter().cloned().collect();
        // Course 1: Bob 5.0, Tim 4.5 → 4.75.
        assert!((score_by_id[&Value::Int(1)] - 4.75).abs() < 1e-9);
        // Course 5: only Tim rated it (5.0) among the similar set.
        assert!((score_by_id[&Value::Int(5)] - 5.0).abs() < 1e-9);
        // Course 3 (both rated it low) must rank below course 1.
        assert!(score_by_id[&Value::Int(3)] < score_by_id[&Value::Int(1)]);
        // Ranking is score-descending.
        for w in ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn exclude_seen_filters_taken_courses() {
        let db = db();
        let lower = Node::Select {
            input: Box::new(extend_students()),
            predicate: WfPredicate::eq("SuID", 444i64),
        };
        let upper = Node::Recommend {
            target: Box::new(Node::Source {
                table: "Courses".into(),
            }),
            comparator: Box::new(Node::Recommend {
                target: Box::new(Node::Select {
                    input: Box::new(extend_students()),
                    predicate: WfPredicate::cmp("SuID", CmpOp::NotEq, 444i64),
                }),
                comparator: Box::new(lower),
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
            }),
            spec: RecommendSpec::new("CourseID", "ratings", RecMethod::RatingLookup)
                .with_agg(RecAgg::Avg)
                .excluding_seen("CourseID", "ratings"),
        };
        // exclude_seen here removes courses any *similar student* took —
        // the novelty-only variant.
        let r = execute(&Workflow::new("novel", upper), &db.catalog()).unwrap();
        let ranking = ranking(&r, "CourseID", "score").unwrap();
        // Bob and Tim took courses 1,2,3,5 between them → nothing new.
        assert!(ranking.is_empty());
    }

    #[test]
    fn weighted_avg_uses_similarity_weights() {
        let db = db();
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
            .score_as("sim"),
        };
        let upper = Node::Recommend {
            target: Box::new(Node::Source {
                table: "Courses".into(),
            }),
            comparator: Box::new(lower),
            spec: RecommendSpec::new("CourseID", "ratings", RecMethod::RatingLookup).with_agg(
                RecAgg::WeightedAvg {
                    weight_attr: "sim".into(),
                },
            ),
        };
        let r = execute(&Workflow::new("wcf", upper), &db.catalog()).unwrap();
        let ranking = ranking(&r, "CourseID", "score").unwrap();
        assert!(!ranking.is_empty());
        // Bob (sim 1.0) rates course 1 at 5.0; Ann (low sim) at 1.0; Tim in
        // between. The weighted average must stay close to Bob's rating.
        let m: HashMap<Value, f64> = ranking.iter().cloned().collect();
        assert!(m[&Value::Int(1)] > 4.0, "{m:?}");
    }

    #[test]
    fn join_and_project() {
        let db = db();
        let wf = Workflow::new(
            "join",
            Node::Project {
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
                // Ambiguity note: projection picks the first "CourseID".
                columns: vec!["SuID".into(), "Title".into(), "Rating".into()],
            },
        );
        let r = execute(&wf, &db.catalog()).unwrap();
        assert_eq!(r.rows.len(), 11);
        assert_eq!(r.schema.len(), 3);
    }

    #[test]
    fn set_extend_and_set_similarity() {
        let db = db();
        // Extend students with the *set* of courses they commented on.
        let extended = Node::Extend {
            input: Box::new(Node::Source {
                table: "Students".into(),
            }),
            related_table: "Comments".into(),
            fk_column: "SuID".into(),
            local_key: "SuID".into(),
            key_column: "CourseID".into(),
            rating_column: None,
            as_name: "courses".into(),
        };
        let wf = Workflow::new(
            "set_sim",
            Node::Recommend {
                target: Box::new(Node::Select {
                    input: Box::new(extended.clone()),
                    predicate: WfPredicate::cmp("SuID", CmpOp::NotEq, 444i64),
                }),
                comparator: Box::new(Node::Select {
                    input: Box::new(extended),
                    predicate: WfPredicate::eq("SuID", 444i64),
                }),
                spec: RecommendSpec::new(
                    "courses",
                    "courses",
                    RecMethod::Set(crate::similarity::SetSim::Jaccard),
                ),
            },
        );
        let r = execute(&wf, &db.catalog()).unwrap();
        let ranking = ranking(&r, "SuID", "score").unwrap();
        // Bob shares {1,3} of his {1,2,3} with Sally's {1,3}: J = 2/3.
        assert_eq!(ranking[0].0, Value::Int(2));
        assert!((ranking[0].1 - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn limit_and_union() {
        let db = db();
        let wf = Workflow::new(
            "lu",
            Node::Limit {
                input: Box::new(Node::Union {
                    left: Box::new(Node::Source {
                        table: "Courses".into(),
                    }),
                    right: Box::new(Node::Source {
                        table: "Courses".into(),
                    }),
                }),
                k: 7,
            },
        );
        let r = execute(&wf, &db.catalog()).unwrap();
        assert_eq!(r.rows.len(), 7);
    }

    #[test]
    fn result_table_renders() {
        let db = db();
        let wf = Workflow::new(
            "t",
            Node::Source {
                table: "Courses".into(),
            },
        );
        let r = execute(&wf, &db.catalog()).unwrap();
        let text = r.to_text_table();
        assert!(text.contains("Title"));
        assert!(text.contains("Introduction to Programming"));
    }

    #[test]
    fn ranking_errors_on_missing_columns() {
        let db = db();
        let wf = Workflow::new(
            "t",
            Node::Source {
                table: "Courses".into(),
            },
        );
        let r = execute(&wf, &db.catalog()).unwrap();
        assert!(ranking(&r, "Nope", "score").is_err());
    }
}
