//! A4 — search scaling: index build and query latency as the corpus
//! grows toward the paper's 18,605 courses.

// Benches are measurement harnesses, not library code: aborting on a
// broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use cr_bench::fixtures::{campus, observe};
use cr_textsearch::entity::build_index;
use cr_textsearch::SearchEngine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_search_scaling(c: &mut Criterion) {
    let spec = courserank::services::search::course_entity_spec();

    let mut group = c.benchmark_group("search_scaling");
    group.sample_size(10);

    for fraction in [0.05f64, 0.1, 0.25] {
        let (db, stats) = campus(fraction);
        let catalog = db.catalog();
        observe("A4", &format!("scale {fraction}: {}", stats.summary()));

        group.bench_with_input(
            BenchmarkId::new("index_build_sequential", stats.courses),
            &catalog,
            |b, cat| b.iter(|| build_index(cat, &spec).unwrap()),
        );

        let corpus = build_index(&catalog, &spec).unwrap();
        observe(
            "A4",
            &format!(
                "scale {fraction}: vocabulary {} terms over {} docs",
                corpus.index.vocabulary_size(),
                corpus.index.num_docs()
            ),
        );
        let engine = SearchEngine::new(corpus);
        let broad = engine.parse_query("american");
        let narrow = engine.parse_query("quantum mechanics");
        group.bench_with_input(
            BenchmarkId::new("query_broad", stats.courses),
            &engine,
            |b, e| b.iter(|| e.search(std::hint::black_box(&broad), 10)),
        );
        group.bench_with_input(
            BenchmarkId::new("query_conjunctive", stats.courses),
            &engine,
            |b, e| b.iter(|| e.search(std::hint::black_box(&narrow), 10)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_search_scaling);
criterion_main!(benches);
