//! The command line both bins take, and the result they print.

use cr_datagen::ScaleConfig;

use crate::manifest::RUN_SECONDS;
use crate::stream::{Workload, DEFAULT_SEED};

pub const USAGE: &str = "usage: crbench [repeat] \
[--workload browse_day|sql_point|analytics_recs|write_storm_durable|all] \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--runs N]";

pub struct Args {
    /// `repeat`, or none: run the workload(s) once.
    pub command: Option<String>,
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub runs: usize,
}

pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        runs: 10,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.next_if(|a| !a.starts_with("--")) {
        args.command = Some(first.clone());
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} requires a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w = Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
                    args.workloads = vec![w];
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--smoke" => args.smoke = true,
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// How a run is sized.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// The window the operation counts are sized for (see
    /// [`Workload::rounds`]).
    pub seconds: f64,
    pub scale: ScaleConfig,
    pub clients: u64,
}

impl RunConfig {
    pub fn new(workload: Workload, args: &Args) -> Self {
        RunConfig {
            workload,
            seed: args.seed,
            // A smoke run is every workload on the tiny campus with 1%
            // of the usual counts: it proves the harness, not the system.
            seconds: if args.smoke {
                args.seconds / 100.0
            } else {
                args.seconds
            },
            scale: if args.smoke {
                ScaleConfig::tiny()
            } else {
                ScaleConfig::scaled(0.25)
            },
            clients: std::thread::available_parallelism().map_or(2, |n| n.get() as u64),
        }
    }
}

/// Everything a run reports.
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub notes: Vec<String>,
}

impl Report {
    /// Notes to standard error, every metric by name with its unit to
    /// standard output, and the result line the driver reads last.
    pub fn print(&self, workload: Workload) {
        for note in &self.notes {
            eprintln!("# {note}");
        }
        if let Some(why) = &self.first_failure {
            eprintln!("# FIRST FAILURE: {why}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{}/{name} {value} {unit}", workload.name());
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
