//! PR4/PR7 — workflow execution: the reference interpreter vs the
//! compiled `LogicalPlan` pipeline, per built-in strategy. Results are
//! asserted byte-identical before timing, so the numbers compare
//! equivalent work. Prints `[PR4] scenario=… median_ns=…` lines
//! (interpreter vs plan) and `[PR7] …` lines (vectorized default vs the
//! `batch_size: 0` row oracle). CHANGES.md keeps the medians first taken
//! with them; on the benchmark, crbench's `flexrecs.run.*_us` per-layer
//! metrics (`--trace 1`) time the same plans.

// Benches are measurement harnesses, not library code: aborting on a
// broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use std::time::Instant;

use cr_bench::fixtures::campus;
use cr_flexrecs::compile::{compile_and_run, compile_and_run_with};
use cr_flexrecs::templates::{self, SchemaMap};
use cr_relation::ExecOptions;

fn median_ns(iters: usize, mut f: impl FnMut()) -> u128 {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos());
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 1 } else { 9 };

    let (db, stats) = campus(if smoke { 0.02 } else { 0.1 });
    println!("[PR4] corpus {}", stats.summary());
    let catalog = db.catalog();
    let map = SchemaMap::default();
    let workflows = [
        ("user_cf", templates::user_cf(&map, 1, 10, 20, 2, true)),
        (
            "user_cf_weighted",
            templates::user_cf_weighted(&map, 1, 10, 20, 2),
        ),
        (
            "item_item_cf_ratings",
            templates::item_item_cf_ratings(&map, 1, 10),
        ),
    ];

    // The row-at-a-time oracle: the pre-PR7 execution path.
    let row = ExecOptions { batch_size: 0 };

    for (name, wf) in &workflows {
        let direct = cr_flexrecs::execute(wf, &catalog).unwrap();
        let compiled = compile_and_run(wf, &catalog).unwrap();
        assert_eq!(
            compiled.result, direct,
            "{name}: plan and interpreter must agree before timing"
        );
        let row_run = compile_and_run_with(wf, &catalog, &row).unwrap();
        assert_eq!(
            compiled.result, row_run.result,
            "{name}: batched and row executors must agree before timing"
        );

        let interp_ns = median_ns(iters, || {
            std::hint::black_box(cr_flexrecs::execute(std::hint::black_box(wf), &catalog).unwrap());
        });
        println!("[PR4] scenario=workflow_exec_{name}_interpreter median_ns={interp_ns}");

        // compile_and_run uses default options: the vectorized executor.
        let batch_ns = median_ns(iters, || {
            std::hint::black_box(compile_and_run(std::hint::black_box(wf), &catalog).unwrap());
        });
        println!("[PR4] scenario=workflow_exec_{name}_plan median_ns={batch_ns}");

        let row_ns = median_ns(iters, || {
            std::hint::black_box(
                compile_and_run_with(std::hint::black_box(wf), &catalog, &row).unwrap(),
            );
        });
        println!("[PR7] scenario=workflow_exec_{name}_interpreter median_ns={interp_ns}");
        println!("[PR7] scenario=workflow_exec_{name}_plan_batch median_ns={batch_ns}");
        println!("[PR7] scenario=workflow_exec_{name}_plan_row median_ns={row_ns}");
    }
}
