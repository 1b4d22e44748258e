//! The end-to-end half of the benchmark's declaration: which metrics a
//! run reports, their units, directions and regression bounds. The
//! tests hold `BENCHMARK.json` at the repository root to these tables
//! (the per-layer half is checked in the `crbench-layers` bin).

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The window one run is sized for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// What a user of the site or its operator sees. Bounds come from the
/// ten-seed repeat table in README.md.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Workload;

    const DECLARED: &str = include_str!("../../BENCHMARK.json");

    /// The text of one top-level key's value, up to the next key.
    fn section(key: &str) -> &'static str {
        let from = DECLARED
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let rest = &DECLARED[from..];
        rest.find("],\n").map_or(rest, |end| &rest[..end])
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let end_to_end = section("end_to_end");
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(end_to_end.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(end_to_end.matches("\"name\"").count(), END_TO_END.len());
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));

        let workloads = section("workloads");
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why());
            assert!(workloads.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(workloads.matches("\"name\"").count(), Workload::ALL.len());
        assert!(DECLARED.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        assert!(DECLARED.len() < 64 * 1024);
    }
}
