//! `crbench repeat`: run every workload several times, each run a fresh
//! process with its own seed as the driver does it, and show how far
//! the end-to-end metrics move between runs of one commit.

use std::process::Command;

use crbench::cli::Args;
use crbench::manifest::END_TO_END;
use crbench::setup::{err, BenchResult};
use crbench::stats::quartiles;
use crbench::stream::Workload;

/// `{"name": {"value": V, ...}, ...}` pairs out of a result line. The
/// line is our own output, so a scan for the two keys is enough.
pub fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(start) = line.find("\"metrics\": {") else {
        return out;
    };
    let mut rest = &line[start + "\"metrics\": {".len()..];
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let Some(end) = after.find('"') else { break };
        let name = &after[..end];
        let Some(v) = after.find("\"value\": ") else {
            break;
        };
        let number = &after[v + "\"value\": ".len()..];
        let stop = number.find([',', '}']).unwrap_or(number.len());
        if let Ok(value) = number[..stop].trim().parse() {
            out.push((name.to_owned(), value));
        }
        let Some(close) = number.find('}') else { break };
        rest = &number[close + 1..];
    }
    out
}

fn run_child(workload: Workload, seed: u64, seconds: f64) -> BenchResult<String> {
    let exe = std::env::current_exe().map_err(err("current_exe"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(err("spawn run"))?;
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Ok(stdout.lines().last().unwrap_or_default().to_owned())
}

/// Run each workload `runs` times with seeds `seed, seed+1, …`; print
/// min / median / max, the quartile spread and the full range per
/// `workload/metric`. `Ok(false)` when a quartile spread exceeds the
/// metric's bound: the rule the driver accepts or refuses the benchmark
/// by, `setup_s` exempt as there.
pub fn repeat(args: &Args) -> BenchResult<bool> {
    let mut within = true;
    println!(
        "| workload/metric | unit | min | median | max | IQR/median | (max-min)/median | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for &workload in &args.workloads {
        // Every run prints the same metrics in the same order.
        let mut values: Vec<(String, Vec<f64>)> = Vec::new();
        for i in 0..args.runs {
            let seed = args.seed + i as u64;
            let line = run_child(workload, seed, args.seconds)?;
            eprintln!("# {} seed {seed}: {line}", workload.name());
            for (at, (name, value)) in parse_metrics(&line).into_iter().enumerate() {
                if values.len() <= at {
                    values.push((name, Vec::new()));
                }
                values[at].1.push(value);
            }
        }
        for (name, v) in &values {
            let (Some((q1, q2, q3)), Some(metric)) =
                (quartiles(v), END_TO_END.iter().find(|m| m.name == name))
            else {
                continue;
            };
            let (min, max) = v
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                    (lo.min(*x), hi.max(*x))
                });
            let (iqr, range) = ((q3 - q1) / q2, (max - min) / q2);
            if iqr > metric.bound && name != "setup_s" {
                within = false;
            }
            println!(
                "| {}/{name} | {} | {min:.4} | {q2:.4} | {max:.4} | {iqr:.4} | {range:.4} | {} |",
                workload.name(),
                metric.unit,
                metric.bound,
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 1.25, "unit": "s"}, "ops_per_s": {"value": 45869.75, "unit": "1/s"}, "server.wire.ping_us": {"value": 3e-2, "unit": "us"}}}"#;
        assert_eq!(
            parse_metrics(line),
            vec![
                ("setup_s".to_owned(), 1.25),
                ("ops_per_s".to_owned(), 45869.75),
                ("server.wire.ping_us".to_owned(), 0.03)
            ]
        );
        assert!(parse_metrics("no result here").is_empty());
    }
}
