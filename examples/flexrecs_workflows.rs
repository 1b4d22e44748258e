//! Reproduces Figure 5 of the paper: the two FlexRecs workflows —
//! (a) related courses by title similarity, (b) two stacked recommend
//! operators doing user-based collaborative filtering — plus the logical
//! plan the engine actually runs (the workflow is "just a query": it
//! compiles onto the same IR, optimizer, and executor as SQL, §3.2).
//!
//! ```sh
//! cargo run --release --example flexrecs_workflows
//! ```

use courserank::services::recs::{RecOptions, SimilarityBasis};
use courserank::CourseRank;
use cr_datagen::ScaleConfig;
use cr_flexrecs::compile::{compile_and_run, explain_sql};
use cr_flexrecs::templates::{self, SchemaMap};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (db, stats) = cr_datagen::generate(&ScaleConfig::scaled(0.05))?;
    println!("corpus: {}\n", stats.summary());
    let catalog = db.catalog();
    let app = CourseRank::assemble(db.clone())?;
    let map = SchemaMap::default();

    // Pick a reference course and an active student from the generated
    // population.
    let course = app.db().course(1)?.ok_or("course 1 missing")?;
    let student = 1i64;

    // ---- Figure 5(a): related-course workflow -------------------------
    let wf_a = templates::related_courses(&map, &course.title, None, 5);
    println!("=== Figure 5(a): related courses ===");
    println!("{}", wf_a.explain());
    let result = cr_flexrecs::execute(&wf_a, &catalog)?;
    println!("courses with titles similar to {:?}:", course.title);
    for (id, score) in cr_flexrecs::ranking(&result, "CourseID", "score")? {
        let title = app
            .db()
            .course(id.as_int()?)?
            .map(|c| c.title)
            .unwrap_or_default();
        println!("  {score:.3}  {title}");
    }

    // ---- Figure 5(b): collaborative-filtering workflow ----------------
    let wf_b = templates::user_cf(&map, student, 15, 8, 2, false);
    println!("\n=== Figure 5(b): collaborative filtering ===");
    println!("{}", wf_b.explain());

    // Direct execution:
    let direct = cr_flexrecs::execute(&wf_b, &catalog)?;
    println!("direct executor: {} scored courses", direct.rows.len());

    // Plan execution — the workflow lowered onto the unified IR.
    let compiled = compile_and_run(&wf_b, &catalog)?;
    println!(
        "plan executor: {} scored courses (plan fingerprint {:016x})",
        compiled.result.rows.len(),
        compiled.plan.fingerprint(),
    );
    println!("\noptimized plan:");
    for line in explain_sql(&wf_b, &catalog)? {
        println!("  {line}");
    }
    println!("\nphase timings:\n{}", compiled.timing_breakdown());

    // ---- The personalization options of §3.2 --------------------------
    println!("\n=== personalization options ===");
    for (label, opts) in [
        ("ratings-similar students (Fig 5b)", RecOptions::default()),
        (
            "weighted by similarity",
            RecOptions {
                weighted: true,
                ..RecOptions::default()
            },
        ),
        (
            "transcript-similar students",
            RecOptions {
                basis: SimilarityBasis::CoursesTaken,
                min_common: 1,
                ..RecOptions::default()
            },
        ),
        (
            "grade-similar students (\"the grades they have taken\")",
            RecOptions {
                basis: SimilarityBasis::Grades,
                min_common: 1,
                ..RecOptions::default()
            },
        ),
    ] {
        let recs = app.recs().recommend_courses(student, &opts)?;
        println!("{label}:");
        for r in recs.iter().take(3) {
            println!("  {:.2}  {}", r.score, r.title);
        }
    }

    // ---- Majors and quarters ------------------------------------------
    let majors = app
        .recs()
        .recommend_major(student, &RecOptions::default())?;
    println!("\nrecommended majors for student {student}:");
    for (dep, score) in majors.iter().take(5) {
        println!("  {score:.2}  {dep}");
    }
    let quarters = app.recs().recommend_quarter(1)?;
    println!("\nbest historical quarters for course 1:");
    for (year, term, score, n) in quarters.iter().take(4) {
        println!("  {year} {term}: avg rating {score:.2} over {n} ratings");
    }
    Ok(())
}
