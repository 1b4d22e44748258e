//! "Beyond CourseRank: The Corporate Social Site" (§2.2).
//!
//! The paper argues the lessons generalize: "we envision a corporate
//! social site where employees and customers can interact and share
//! experiences and resources. A corporate site shares many features with
//! CourseRank: the need to service a varied constituency, restricted
//! access, having the control of the site."
//!
//! This example rebuilds the stack over a *corporate* schema —
//! trainings / employees / reviews — reusing the same substrates: the
//! relational engine, entity search with data clouds, and FlexRecs
//! workflows via a remapped [`SchemaMap`].
//!
//! ```sh
//! cargo run --example corporate_social
//! ```

use cr_flexrecs::templates::{self, SchemaMap};
use cr_relation::Database;
use cr_textsearch::engine::SearchEngine;
use cr_textsearch::entity::{build_index, EntitySpec, FieldSource};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- A corporate database: trainings, employees, reviews ----------
    let db = Database::new();
    db.execute_sql(
        "CREATE TABLE Trainings (TrainingID INT PRIMARY KEY, Team TEXT, Title TEXT, Abstract TEXT)",
    )?;
    db.execute_sql("CREATE TABLE Employees (EmpID INT PRIMARY KEY, Name TEXT, Org TEXT)")?;
    db.execute_sql(
        "CREATE TABLE Reviews (ReviewID INT PRIMARY KEY, EmpID INT, TrainingID INT, \
         Text TEXT, Rating FLOAT)",
    )?;

    let trainings = [
        (
            1,
            "ENG",
            "Incident Response Fundamentals",
            "oncall paging runbooks postmortems escalation",
        ),
        (
            2,
            "ENG",
            "Advanced Incident Command",
            "major incident coordination communication escalation",
        ),
        (
            3,
            "ENG",
            "Rust for Services",
            "ownership borrowing async services deployment",
        ),
        (
            4,
            "SALES",
            "Enterprise Negotiation",
            "contracts pricing objections closing renewal",
        ),
        (
            5,
            "SALES",
            "Customer Discovery",
            "interviews pain points qualification pipeline",
        ),
        (
            6,
            "HR",
            "Interviewing Without Bias",
            "structured interviews rubrics calibration fairness",
        ),
        (
            7,
            "ENG",
            "Observability in Practice",
            "metrics traces logs dashboards alerting oncall",
        ),
    ];
    for (id, team, title, abs) in trainings {
        db.execute_sql(&format!(
            "INSERT INTO Trainings VALUES ({id}, '{team}', '{title}', '{abs}')"
        ))?;
    }
    let employees = [
        (100, "Ada", "ENG"),
        (101, "Grace", "ENG"),
        (102, "Edsger", "ENG"),
        (103, "Barbara", "SALES"),
    ];
    for (id, name, org) in employees {
        db.execute_sql(&format!(
            "INSERT INTO Employees VALUES ({id}, '{name}', '{org}')"
        ))?;
    }
    let reviews = [
        (
            1,
            100,
            1,
            "the paging and alerting walkthrough saved my first oncall week",
            5.0,
        ),
        (2, 100, 3, "finally understood borrowing", 4.5),
        (3, 101, 1, "escalation tree was gold", 5.0),
        (
            4,
            101,
            7,
            "dashboards section is excellent for oncall escalation",
            4.5,
        ),
        (5, 101, 2, "great follow-up to the fundamentals", 4.0),
        (6, 102, 1, "good but long", 3.5),
        (7, 102, 4, "surprisingly useful for vendor calls", 4.0),
        (8, 103, 4, "closed two renewals with these techniques", 5.0),
        (
            9,
            103,
            5,
            "the qualification checklist alone is worth it",
            4.5,
        ),
    ];
    for (id, emp, tr, text, rating) in reviews {
        db.execute_sql(&format!(
            "INSERT INTO Reviews VALUES ({id}, {emp}, {tr}, '{text}', {rating})"
        ))?;
    }

    // ---- Entity search + data cloud over trainings ---------------------
    let spec = EntitySpec {
        name: "training".into(),
        base_table: "Trainings".into(),
        id_column: "TrainingID".into(),
        fields: vec![
            (
                "title".into(),
                FieldSource::Column {
                    column: "Title".into(),
                    weight: 4.0,
                },
            ),
            (
                "abstract".into(),
                FieldSource::Column {
                    column: "Abstract".into(),
                    weight: 2.0,
                },
            ),
            (
                "reviews".into(),
                FieldSource::Related {
                    table: "Reviews".into(),
                    fk_column: "TrainingID".into(),
                    text_column: "Text".into(),
                    weight: 1.0,
                },
            ),
        ],
    };
    let corpus = build_index(&db.catalog(), &spec)?;
    let engine = SearchEngine::new(corpus);
    let (results, cloud) = engine.search_with_cloud("oncall", 10);
    println!(
        "== corporate search: \"oncall\" → {} trainings ==",
        results.total
    );
    for h in &results.hits {
        println!("  training {} (score {:.2})", h.entity_id, h.score);
    }
    println!("cloud:");
    for t in cloud.terms.iter().take(6) {
        println!("  {:<16} {}", t.display, "█".repeat(t.bucket as usize));
    }

    // ---- FlexRecs over the corporate schema ----------------------------
    // Remap the workflow templates onto Trainings/Employees/Reviews — the
    // whole recommendation engine carries over unchanged.
    let map = SchemaMap {
        courses: "Trainings".into(),
        course_id: "TrainingID".into(),
        course_title: "Title".into(),
        course_dep: "Team".into(),
        students: "Employees".into(),
        student_id: "EmpID".into(),
        ratings_table: "Reviews".into(),
        rating_student: "EmpID".into(),
        rating_course: "TrainingID".into(),
        rating_value: "Rating".into(),
        rating_year: "ReviewID".into(), // unused here
        rating_term: "ReviewID".into(),
    };
    let wf = templates::user_cf(&map, 100, 3, 5, 1, false);
    println!("\n== FlexRecs on the corporate schema: trainings for Ada ==");
    println!("{}", wf.explain());
    let result = cr_flexrecs::execute(&wf, &db.catalog())?;
    for (id, score) in cr_flexrecs::ranking(&result, "TrainingID", "score")? {
        let title = db
            .query_sql(&format!(
                "SELECT Title FROM Trainings WHERE TrainingID = {id}"
            ))?
            .scalar()
            .map(ToString::to_string)
            .unwrap_or_default();
        println!("  {score:.2}  {title}");
    }

    let wf = templates::related_courses(&map, "Incident Response Fundamentals", None, 3);
    let result = cr_flexrecs::execute(&wf, &db.catalog())?;
    println!("\ntrainings related to \"Incident Response Fundamentals\":");
    for (id, score) in cr_flexrecs::ranking(&result, "TrainingID", "score")? {
        println!("  {score:.2}  training {id}");
    }
    Ok(())
}
