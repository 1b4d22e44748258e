//! Canonical workflow templates.
//!
//! §3.2 describes the strategies CourseRank exposes: "one can ask for
//! recommended courses, or recommended majors (for students that have not
//! declared a major), or recommended quarters in which to take a given
//! course and choose different options on how recommendations will be
//! generated (e.g., based on what 'similar' students have done or the
//! grades they have taken)". These builders produce those workflows over
//! the paper's schema:
//!
//! ```text
//! Courses(CourseID, DepID, Title, Description, Units, Url)
//! Students(SuID, Name, Class, GPA)
//! Comments(SuID, CourseID, Year, Term, Text, Rating, Date)
//! ```
//!
//! (The concrete CourseRank database in `courserank::db` uses exactly
//! these relations, plus Enrollments for grades.)

use crate::similarity::{RatingsSim, SetSim, TextSim};
use crate::workflow::{CmpOp, Node, RecAgg, RecMethod, RecommendSpec, WfPredicate, Workflow};

/// Table/column names the templates are written against; override to remap
/// onto a different schema (the corporate-social-site example does this).
#[derive(Debug, Clone)]
pub struct SchemaMap {
    pub courses: String,
    pub course_id: String,
    pub course_title: String,
    pub course_dep: String,
    pub students: String,
    pub student_id: String,
    pub ratings_table: String,
    pub rating_student: String,
    pub rating_course: String,
    pub rating_value: String,
    pub rating_year: String,
    pub rating_term: String,
}

impl Default for SchemaMap {
    fn default() -> Self {
        SchemaMap {
            courses: "Courses".into(),
            course_id: "CourseID".into(),
            course_title: "Title".into(),
            course_dep: "DepID".into(),
            students: "Students".into(),
            student_id: "SuID".into(),
            ratings_table: "Comments".into(),
            rating_student: "SuID".into(),
            rating_course: "CourseID".into(),
            rating_value: "Rating".into(),
            rating_year: "Year".into(),
            rating_term: "Term".into(),
        }
    }
}

impl SchemaMap {
    fn students_with_ratings(&self) -> Node {
        Node::Extend {
            input: Box::new(Node::Source {
                table: self.students.clone(),
            }),
            related_table: self.ratings_table.clone(),
            fk_column: self.rating_student.clone(),
            local_key: self.student_id.clone(),
            key_column: self.rating_course.clone(),
            rating_column: Some(self.rating_value.clone()),
            as_name: "ratings".into(),
        }
    }

    fn students_with_course_sets(&self) -> Node {
        Node::Extend {
            input: Box::new(Node::Source {
                table: self.students.clone(),
            }),
            related_table: self.ratings_table.clone(),
            fk_column: self.rating_student.clone(),
            local_key: self.student_id.clone(),
            key_column: self.rating_course.clone(),
            rating_column: None,
            as_name: "courses".into(),
        }
    }
}

/// Figure 5(a): courses (optionally restricted to `year`) whose titles are
/// similar to the course titled `title`.
pub fn related_courses(map: &SchemaMap, title: &str, year: Option<i64>, k: usize) -> Workflow {
    let target: Node = match year {
        Some(y) => Node::Select {
            input: Box::new(Node::Source {
                table: map.courses.clone(),
            }),
            predicate: WfPredicate::And(vec![
                WfPredicate::cmp(&map.course_title, CmpOp::NotEq, title),
                // Courses offered in year y — in the CourseRank schema the
                // offering year lives on Offerings; over the simplified
                // paper schema we accept a Year column on Courses.
                WfPredicate::eq("Year", y),
            ]),
        },
        None => Node::Select {
            input: Box::new(Node::Source {
                table: map.courses.clone(),
            }),
            predicate: WfPredicate::cmp(&map.course_title, CmpOp::NotEq, title),
        },
    };
    Workflow::new(
        "related-courses",
        Node::Recommend {
            target: Box::new(target),
            comparator: Box::new(Node::Select {
                input: Box::new(Node::Source {
                    table: map.courses.clone(),
                }),
                predicate: WfPredicate::eq(&map.course_title, title),
            }),
            spec: RecommendSpec::new(
                &map.course_title,
                &map.course_title,
                RecMethod::Text(TextSim::WordJaccard),
            )
            .top_k(k),
        },
    )
}

/// Figure 5(b): classic user-based collaborative filtering. Find the
/// `k_students` students most similar to `student_id` by inverse Euclidean
/// distance of their ratings, then score courses by those students'
/// average rating. `exclude_taken` drops courses the target student
/// already rated.
pub fn user_cf(
    map: &SchemaMap,
    student_id: i64,
    k_students: usize,
    k_courses: usize,
    min_common: usize,
    exclude_taken: bool,
) -> Workflow {
    let lower = Node::Recommend {
        target: Box::new(Node::Select {
            input: Box::new(map.students_with_ratings()),
            predicate: WfPredicate::cmp(&map.student_id, CmpOp::NotEq, student_id),
        }),
        comparator: Box::new(Node::Select {
            input: Box::new(map.students_with_ratings()),
            predicate: WfPredicate::eq(&map.student_id, student_id),
        }),
        spec: RecommendSpec::new(
            "ratings",
            "ratings",
            RecMethod::Ratings {
                sim: RatingsSim::InverseEuclidean,
                min_common,
            },
        )
        .top_k(k_students)
        .score_as("sim"),
    };
    // `exclude_taken` (hide what the target student already rated) is not
    // expressible inside a single recommend operator — the comparator set
    // holds the *similar* students, not the target. The application layer
    // filters seen courses post-hoc (courserank::services::recs); callers
    // that want the operator-level variant use `excluding_seen`.
    let _ = exclude_taken;
    let spec = RecommendSpec::new(&map.course_id, "ratings", RecMethod::RatingLookup)
        .with_agg(RecAgg::Avg)
        .top_k(k_courses);
    Workflow::new(
        "user-cf",
        Node::Recommend {
            target: Box::new(Node::Source {
                table: map.courses.clone(),
            }),
            comparator: Box::new(lower),
            spec,
        },
    )
}

/// Weighted user-based CF: like [`user_cf`] but weighting each similar
/// student's ratings by their similarity score (the `sim` output of the
/// lower operator feeds the upper operator's weighted average).
pub fn user_cf_weighted(
    map: &SchemaMap,
    student_id: i64,
    k_students: usize,
    k_courses: usize,
    min_common: usize,
) -> Workflow {
    let lower = Node::Recommend {
        target: Box::new(Node::Select {
            input: Box::new(map.students_with_ratings()),
            predicate: WfPredicate::cmp(&map.student_id, CmpOp::NotEq, student_id),
        }),
        comparator: Box::new(Node::Select {
            input: Box::new(map.students_with_ratings()),
            predicate: WfPredicate::eq(&map.student_id, student_id),
        }),
        spec: RecommendSpec::new(
            "ratings",
            "ratings",
            RecMethod::Ratings {
                sim: RatingsSim::InverseEuclidean,
                min_common,
            },
        )
        .top_k(k_students)
        .score_as("sim"),
    };
    Workflow::new(
        "user-cf-weighted",
        Node::Recommend {
            target: Box::new(Node::Source {
                table: map.courses.clone(),
            }),
            comparator: Box::new(lower),
            spec: RecommendSpec::new(&map.course_id, "ratings", RecMethod::RatingLookup)
                .with_agg(RecAgg::WeightedAvg {
                    weight_attr: "sim".into(),
                })
                .top_k(k_courses),
        },
    )
}

/// "People with similar *transcripts*": student similarity by Jaccard on
/// each student's course set — the "based on what similar students have
/// done" option, independent of rating values. The course set comes from
/// the map's activity table (CourseRank remaps it onto Enrollments here,
/// so the sets really are courses taken; under the default map they are
/// the courses a student has commented on).
pub fn similar_students_by_courses(map: &SchemaMap, student_id: i64, k: usize) -> Workflow {
    Workflow::new(
        "similar-students",
        // Only the id and the similarity score leave the workflow: the
        // ranked students' other attributes (notably GPA, which is
        // per-user) stay inside, so the template passes disclosure lint
        // for a student principal.
        Node::Project {
            input: Box::new(Node::Recommend {
                target: Box::new(Node::Select {
                    input: Box::new(map.students_with_course_sets()),
                    predicate: WfPredicate::cmp(&map.student_id, CmpOp::NotEq, student_id),
                }),
                comparator: Box::new(Node::Select {
                    input: Box::new(map.students_with_course_sets()),
                    predicate: WfPredicate::eq(&map.student_id, student_id),
                }),
                spec: RecommendSpec::new("courses", "courses", RecMethod::Set(SetSim::Jaccard))
                    .top_k(k)
                    .score_as("sim"),
            }),
            columns: vec![map.student_id.clone(), "sim".into()],
        },
    )
}

/// Item-item CF: courses whose rater sets overlap the given course's rater
/// set ("students who liked this also took…").
pub fn item_item_cf(map: &SchemaMap, course_id: i64, k: usize) -> Workflow {
    let courses_with_raters = |pred: WfPredicate| Node::Select {
        input: Box::new(Node::Extend {
            input: Box::new(Node::Source {
                table: map.courses.clone(),
            }),
            related_table: map.ratings_table.clone(),
            fk_column: map.rating_course.clone(),
            local_key: map.course_id.clone(),
            key_column: map.rating_student.clone(),
            rating_column: None,
            as_name: "raters".into(),
        }),
        predicate: pred,
    };
    Workflow::new(
        "item-item-cf",
        Node::Recommend {
            target: Box::new(courses_with_raters(WfPredicate::cmp(
                &map.course_id,
                CmpOp::NotEq,
                course_id,
            ))),
            comparator: Box::new(courses_with_raters(WfPredicate::eq(
                &map.course_id,
                course_id,
            ))),
            spec: RecommendSpec::new("raters", "raters", RecMethod::Set(SetSim::Cosine))
                .top_k(k)
                .score_as("score"),
        },
    )
}

/// Ratings-weighted item-item CF (Ray & Sharma's item-based scheme): each
/// course carries its *rating vector* keyed by student, and similarity is
/// computed over co-raters' actual rating values (cosine), not mere
/// co-occurrence. Distinguishes "everyone took both" from "everyone who
/// liked one liked the other" — the set-based [`item_item_cf`] can't tell
/// these apart. `min_common` guards against spurious similarity from tiny
/// overlap.
pub fn item_item_cf_ratings(map: &SchemaMap, course_id: i64, k: usize) -> Workflow {
    let courses_with_ratings = |pred: WfPredicate| Node::Select {
        input: Box::new(Node::Extend {
            input: Box::new(Node::Source {
                table: map.courses.clone(),
            }),
            related_table: map.ratings_table.clone(),
            fk_column: map.rating_course.clone(),
            local_key: map.course_id.clone(),
            key_column: map.rating_student.clone(),
            rating_column: Some(map.rating_value.clone()),
            as_name: "ratings".into(),
        }),
        predicate: pred,
    };
    Workflow::new(
        "item-item-cf-ratings",
        Node::Recommend {
            target: Box::new(courses_with_ratings(WfPredicate::cmp(
                &map.course_id,
                CmpOp::NotEq,
                course_id,
            ))),
            comparator: Box::new(courses_with_ratings(WfPredicate::eq(
                &map.course_id,
                course_id,
            ))),
            spec: RecommendSpec::new(
                "ratings",
                "ratings",
                RecMethod::Ratings {
                    sim: RatingsSim::Cosine,
                    min_common: 2,
                },
            )
            .top_k(k)
            .score_as("score"),
        },
    )
}

/// Recommend a quarter in which to take `course_id`: rank `(Year, Term)`
/// combinations by the average rating students gave the course when taking
/// it then. Expressed as pure relational algebra + recommend-free
/// aggregation — built directly as SQL by the caller in courserank; here
/// we provide the workflow used for explain/demo purposes.
pub fn quarter_recommendation_sql(map: &SchemaMap, course_id: i64) -> String {
    format!(
        "SELECT {y} AS year, {t} AS term, AVG({r}) AS score, COUNT(*) AS n \
         FROM {tbl} WHERE {c} = {course_id} AND {r} IS NOT NULL GROUP BY {y}, {t} \
         ORDER BY score DESC",
        y = map.rating_year,
        t = map.rating_term,
        r = map.rating_value,
        tbl = map.ratings_table,
        c = map.rating_course,
    )
}

/// Recommend a major: rank departments by the average rating the target
/// student's similar students gave to courses in each department. Combines
/// the CF comparator with a join onto the course→department mapping.
pub fn major_recommendation(
    map: &SchemaMap,
    student_id: i64,
    k_students: usize,
    min_common: usize,
) -> Workflow {
    let lower = Node::Recommend {
        target: Box::new(Node::Select {
            input: Box::new(map.students_with_ratings()),
            predicate: WfPredicate::cmp(&map.student_id, CmpOp::NotEq, student_id),
        }),
        comparator: Box::new(Node::Select {
            input: Box::new(map.students_with_ratings()),
            predicate: WfPredicate::eq(&map.student_id, student_id),
        }),
        spec: RecommendSpec::new(
            "ratings",
            "ratings",
            RecMethod::Ratings {
                sim: RatingsSim::InverseEuclidean,
                min_common,
            },
        )
        .top_k(k_students)
        .score_as("sim"),
    };
    // Targets: departments, i.e. distinct DepID values carried on courses.
    // We rank *courses* and let the application roll scores up to
    // departments; the workflow keeps DepID in the output for that.
    Workflow::new(
        "major-recommendation",
        Node::Recommend {
            target: Box::new(Node::Project {
                input: Box::new(Node::Source {
                    table: map.courses.clone(),
                }),
                columns: vec![map.course_id.clone(), map.course_dep.clone()],
            }),
            comparator: Box::new(lower),
            // Unbounded on purpose: every course must keep its score so
            // the application can average them per department; truncating
            // here would bias the rollup.
            spec: RecommendSpec::new(&map.course_id, "ratings", RecMethod::RatingLookup)
                .with_agg(RecAgg::Avg)
                .expect_unbounded(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::workflow::ranking;
    use cr_relation::{Database, Value};

    fn db() -> Database {
        let db = Database::new();
        db.execute_sql(
            "CREATE TABLE Courses (CourseID INT PRIMARY KEY, DepID TEXT, Title TEXT, Year INT)",
        )
        .unwrap();
        db.execute_sql("CREATE TABLE Students (SuID INT PRIMARY KEY, Name TEXT)")
            .unwrap();
        db.execute_sql(
            "CREATE TABLE Comments (SuID INT, CourseID INT, Year INT, Term TEXT, Rating FLOAT, PRIMARY KEY (SuID, CourseID))",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO Courses VALUES \
             (1, 'CS', 'Introduction to Programming', 2008), \
             (2, 'CS', 'Programming Abstractions', 2008), \
             (3, 'HIST', 'Medieval History', 2008), \
             (5, 'CS', 'Operating Systems', 2008)",
        )
        .unwrap();
        db.execute_sql("INSERT INTO Students VALUES (444,'Sally'),(2,'Bob'),(3,'Ann'),(4,'Tim')")
            .unwrap();
        db.execute_sql(
            "INSERT INTO Comments VALUES \
             (444, 1, 2008, 'Aut', 5.0), (444, 3, 2008, 'Win', 2.0), \
             (2, 1, 2008, 'Aut', 5.0), (2, 3, 2008, 'Win', 2.0), (2, 2, 2008, 'Spr', 4.5), \
             (3, 1, 2007, 'Aut', 1.0), (3, 3, 2008, 'Win', 5.0), (3, 5, 2008, 'Spr', 1.5), \
             (4, 1, 2008, 'Aut', 4.5), (4, 3, 2008, 'Win', 2.5), (4, 5, 2008, 'Spr', 5.0)",
        )
        .unwrap();
        db
    }

    #[test]
    fn related_courses_template() {
        let db = db();
        let wf = related_courses(
            &SchemaMap::default(),
            "Introduction to Programming",
            Some(2008),
            5,
        );
        let r = execute(&wf, &db.catalog()).unwrap();
        let ranking = ranking(&r, "CourseID", "score").unwrap();
        assert_eq!(ranking[0].0, Value::Int(2));
    }

    #[test]
    fn user_cf_template() {
        let db = db();
        let wf = user_cf(&SchemaMap::default(), 444, 2, 10, 2, false);
        let r = execute(&wf, &db.catalog()).unwrap();
        let ranking = ranking(&r, "CourseID", "score").unwrap();
        assert!(!ranking.is_empty());
        // Similar students (Bob, Tim) both rated course 1 highly.
        let m: std::collections::HashMap<Value, f64> = ranking.into_iter().collect();
        assert!(m[&Value::Int(1)] > 4.5);
    }

    #[test]
    fn weighted_cf_template() {
        let db = db();
        let wf = user_cf_weighted(&SchemaMap::default(), 444, 3, 10, 2);
        let r = execute(&wf, &db.catalog()).unwrap();
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn similar_students_template() {
        let db = db();
        let wf = similar_students_by_courses(&SchemaMap::default(), 444, 3);
        let r = execute(&wf, &db.catalog()).unwrap();
        let ranking = ranking(&r, "SuID", "sim").unwrap();
        // Tim {1,3,5} vs Sally {1,3}: J=2/3; Bob {1,2,3}: J=2/3; Ann {1,3,5}: J=2/3.
        assert_eq!(ranking.len(), 3);
    }

    #[test]
    fn item_item_template() {
        let db = db();
        let wf = item_item_cf(&SchemaMap::default(), 1, 5);
        let r = execute(&wf, &db.catalog()).unwrap();
        let ranking = ranking(&r, "CourseID", "score").unwrap();
        // Course 3 shares all four raters with course 1.
        assert_eq!(ranking[0].0, Value::Int(3));
    }

    #[test]
    fn item_item_ratings_template() {
        let db = db();
        let wf = item_item_cf_ratings(&SchemaMap::default(), 1, 5);
        let direct = execute(&wf, &db.catalog()).unwrap();
        let ranking = ranking(&direct, "CourseID", "score").unwrap();
        // Courses 1 and 3 share four raters but with *anti-correlated*
        // ratings for Ann (1.0 vs 5.0); cosine still ranks 3 first on this
        // tiny corpus, but the score is strictly below the set-based 1.0.
        assert!(!ranking.is_empty());
        assert!(ranking.iter().all(|(_, s)| *s > 0.0 && *s <= 1.0 + 1e-9));
        // And the plan path agrees byte-for-byte.
        let compiled = crate::compile::compile_and_run(&wf, &db.catalog()).unwrap();
        assert_eq!(compiled.result, direct);
    }

    #[test]
    fn quarter_recommendation_runs_as_sql() {
        let db = db();
        let sql = quarter_recommendation_sql(&SchemaMap::default(), 1);
        let rs = db.query_sql(&sql).unwrap();
        assert!(!rs.rows.is_empty());
        // 2008 Aut has ratings (5.0, 5.0, 4.5); 2007 Aut has 1.0.
        assert_eq!(rs.rows[0][0], Value::Int(2008));
        assert_eq!(rs.rows.last().unwrap()[0], Value::Int(2007));
    }

    #[test]
    fn major_recommendation_template() {
        let db = db();
        let wf = major_recommendation(&SchemaMap::default(), 444, 2, 2);
        let r = execute(&wf, &db.catalog()).unwrap();
        // Output keeps DepID for application-level rollup.
        assert!(crate::resolve(&r.schema, "DepID").is_ok());
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn all_templates_explain() {
        let m = SchemaMap::default();
        for wf in [
            related_courses(&m, "X", None, 5),
            user_cf(&m, 1, 5, 10, 2, false),
            user_cf_weighted(&m, 1, 5, 10, 2),
            similar_students_by_courses(&m, 1, 5),
            item_item_cf(&m, 1, 5),
            item_item_cf_ratings(&m, 1, 5),
            major_recommendation(&m, 1, 5, 2),
        ] {
            let text = wf.explain();
            assert!(text.contains("Recommend"), "{text}");
        }
    }
}
