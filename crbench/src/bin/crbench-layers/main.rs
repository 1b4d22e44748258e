//! `crbench-layers` — the traced run: one client replays a workload's
//! stream while the harness records spans around calls into each
//! layer's public functions, prints every per-layer metric, writes the
//! spans as JSON lines beside the executable, and fails when a budget
//! is broken. A bin of its own, so that a refactor of an inner API it
//! calls cannot stop the end-to-end `crbench` compiling.

mod layers;

use std::process::ExitCode;

use crbench::cli::{parse_args, RunConfig};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) if a.command.is_none() => a,
        Ok(_) => {
            eprintln!("crbench-layers takes no command");
            return ExitCode::from(2);
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut pass = true;
    for &workload in &args.workloads {
        match layers::run_traced(&RunConfig::new(workload, &args)) {
            Ok((report, broken)) => {
                report.print(workload);
                for gate in &broken {
                    eprintln!("# GATE: {gate}");
                }
                pass &= report.failed == 0 && broken.is_empty();
            }
            Err(msg) => {
                eprintln!("crbench-layers: {}: {msg}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
