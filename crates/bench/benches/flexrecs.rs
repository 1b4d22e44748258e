//! E4/E5/A2 — Figure 5 workflows: related-courses and collaborative
//! filtering, direct interpreter vs the unified LogicalPlan pipeline.

// Benches are measurement harnesses, not library code: aborting on a
// broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use cr_bench::fixtures::{campus, observe};
use cr_flexrecs::compile::{compile, compile_and_run};
use cr_flexrecs::templates::{self, SchemaMap};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_flexrecs(c: &mut Criterion) {
    let (db, stats) = campus(0.1);
    observe("E4/E5", &format!("corpus: {}", stats.summary()));
    let catalog = db.catalog();
    let map = SchemaMap::default();

    // ---- E4: Figure 5(a) ----------------------------------------------
    let title = db.course(1).unwrap().unwrap().title;
    let wf_a = templates::related_courses(&map, &title, None, 10);
    let result = cr_flexrecs::execute(&wf_a, &catalog).unwrap();
    observe(
        "E4",
        &format!(
            "related_courses({title:?}) -> {} scored courses, top score {:.2}",
            result.rows.len(),
            cr_flexrecs::ranking(&result, "CourseID", "score")
                .unwrap()
                .first()
                .map(|(_, s)| *s)
                .unwrap_or(0.0)
        ),
    );

    let mut group = c.benchmark_group("flexrecs");
    group.sample_size(10);

    group.bench_function("fig5a_related_courses_interpreter", |b| {
        b.iter(|| cr_flexrecs::execute(std::hint::black_box(&wf_a), &catalog).unwrap())
    });

    group.bench_function("fig5a_related_courses_plan", |b| {
        b.iter(|| compile_and_run(std::hint::black_box(&wf_a), &catalog).unwrap())
    });

    // ---- E5/A2: Figure 5(b) --------------------------------------------
    let wf_b = templates::user_cf(&map, 1, 20, 10, 2, false);
    let direct = cr_flexrecs::execute(&wf_b, &catalog).unwrap();
    let compiled = compile_and_run(&wf_b, &catalog).unwrap();
    assert_eq!(direct, compiled.result, "plan/interpreter divergence");
    observe(
        "E5",
        &format!(
            "user_cf(student 1): {} courses; plan = interpreter; plan:\n{}",
            direct.rows.len(),
            compiled.plan.explain()
        ),
    );

    // Lowering + optimization alone (no execution).
    group.bench_function("fig5b_user_cf_compile", |b| {
        b.iter(|| {
            let plan = compile(std::hint::black_box(&wf_b), &catalog).unwrap();
            cr_relation::plan::optimizer::optimize(plan)
        })
    });

    group.bench_function("fig5b_user_cf_interpreter", |b| {
        b.iter(|| cr_flexrecs::execute(std::hint::black_box(&wf_b), &catalog).unwrap())
    });

    group.bench_function("fig5b_user_cf_plan", |b| {
        b.iter(|| compile_and_run(std::hint::black_box(&wf_b), &catalog).unwrap())
    });

    let wf_w = templates::user_cf_weighted(&map, 1, 20, 10, 2);
    group.bench_function("user_cf_weighted_plan", |b| {
        b.iter(|| compile_and_run(std::hint::black_box(&wf_w), &catalog).unwrap())
    });

    let wf_i = templates::item_item_cf(&map, 1, 10);
    group.bench_function("item_item_cf_plan", |b| {
        b.iter(|| compile_and_run(std::hint::black_box(&wf_i), &catalog).unwrap())
    });

    let wf_r = templates::item_item_cf_ratings(&map, 1, 10);
    group.bench_function("item_item_cf_ratings_interpreter", |b| {
        b.iter(|| cr_flexrecs::execute(std::hint::black_box(&wf_r), &catalog).unwrap())
    });
    group.bench_function("item_item_cf_ratings_plan", |b| {
        b.iter(|| compile_and_run(std::hint::black_box(&wf_r), &catalog).unwrap())
    });

    let sql = templates::quarter_recommendation_sql(&map, 1);
    group.bench_function("quarter_recommendation_sql", |b| {
        b.iter(|| db.database().query_sql(std::hint::black_box(&sql)).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_flexrecs);
criterion_main!(benches);
