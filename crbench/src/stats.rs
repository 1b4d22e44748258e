//! Small statistics the harness reports with: percentiles, medians,
//! latency bands per request kind, and the `VmHWM` reader.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted floats (mean of the two middle values when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method) — what the driver's spread check uses.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

/// Peak resident set of a process in kB, from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MB.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// One request kind's slice of the latency distribution of its class:
/// kinds sorted cheapest to dearest occupy `[lo, hi)` percentage points.
#[derive(Debug, Clone, PartialEq)]
pub struct Band {
    pub kind: String,
    pub lo: f64,
    pub hi: f64,
    pub median_ms: f64,
}

/// Lay the kinds of one class end to end, cheapest first, each as wide
/// as its share of the class's requests.
pub fn bands(kinds: &[(String, u64, f64)]) -> Vec<Band> {
    let total: u64 = kinds.iter().map(|k| k.1).sum();
    let mut sorted: Vec<_> = kinds.iter().filter(|k| k.1 > 0).collect();
    sorted.sort_by(|a, b| a.2.total_cmp(&b.2));
    let mut lo = 0.0;
    sorted
        .into_iter()
        .map(|(kind, count, median_ms)| {
            let hi = lo + 100.0 * *count as f64 / total as f64;
            let band = Band {
                kind: kind.clone(),
                lo,
                hi,
                median_ms: *median_ms,
            };
            lo = hi;
            band
        })
        .collect()
}

/// The band percentile `pct` falls in and how many percentage points
/// it lies inside that band (distance to the nearer edge that borders
/// another kind; the outer edges 0 and 100 border nothing).
pub fn band_margin(bands: &[Band], pct: f64) -> Option<(&Band, f64)> {
    let band = bands.iter().find(|b| pct >= b.lo && pct < b.hi)?;
    let below = if band.lo > 0.0 {
        pct - band.lo
    } else {
        f64::INFINITY
    };
    let above = if band.hi < 100.0 - 1e-9 {
        band.hi - pct
    } else {
        f64::INFINITY
    };
    Some((band, below.min(above)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.90), Some(90));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.9), Some(7));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), Some(2));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
    }

    #[test]
    fn vm_hwm_parser() {
        let status = "Name:\tcrbench\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tmany kB\n"), None);
    }

    #[test]
    fn band_calculator() {
        let kinds = vec![
            ("search".to_owned(), 30, 9.0),
            ("page".to_owned(), 40, 1.0),
            ("counts".to_owned(), 30, 0.05),
        ];
        let b = bands(&kinds);
        assert_eq!(
            b.iter().map(|b| b.kind.as_str()).collect::<Vec<_>>(),
            ["counts", "page", "search"]
        );
        assert_eq!((b[1].lo, b[1].hi), (30.0, 70.0));
        // p50 sits 20 points inside "page", p90 10 points inside
        // "search" (whose upper edge is the end of the distribution).
        let (band, margin) = band_margin(&b, 50.0).unwrap();
        assert_eq!((band.kind.as_str(), margin), ("page", 20.0));
        let (band, margin) = band_margin(&b, 90.0).unwrap();
        assert_eq!((band.kind.as_str(), margin), ("search", 20.0));
        // A percentile 2 points from a boundary is flagged as such.
        let (band, margin) = band_margin(&b, 68.0).unwrap();
        assert_eq!(band.kind, "page");
        assert!(margin < 5.0);
    }
}
