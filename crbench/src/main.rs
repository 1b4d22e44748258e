//! `crbench` — the repository's end-to-end benchmark: one workload per
//! process against an in-process cr-server, tracing off. The per-layer
//! waterfall is the `crbench-layers` bin; `run.sh` picks between them by
//! `--trace`. See README.md.

mod repeat;
mod run;

use std::process::ExitCode;

use crbench::cli::{parse_args, RunConfig, USAGE};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        eprintln!("crbench measures end to end; `--trace 1` is the crbench-layers bin (run.sh)");
        return ExitCode::from(2);
    }
    match args.command.as_deref() {
        None => {}
        Some("repeat") => {
            return match repeat::repeat(&args) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => {
                    eprintln!("crbench: a spread exceeds its bound");
                    ExitCode::FAILURE
                }
                Err(msg) => {
                    eprintln!("crbench: {msg}");
                    ExitCode::FAILURE
                }
            };
        }
        Some(other) => {
            eprintln!("unknown command {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    // A wrong reply is a failed request and a failed run; the result
    // line is printed first so the failure can be read.
    let mut failed = 0;
    for &workload in &args.workloads {
        match run::run(&RunConfig::new(workload, &args)) {
            Ok(report) => {
                report.print(workload);
                failed += report.failed;
            }
            Err(msg) => {
                eprintln!("crbench: {}: {msg}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
