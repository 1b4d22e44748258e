//! The process-wide metrics registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are resolved by name
//! once — that takes a short `RwLock` on the name map — and are pure
//! atomics afterwards. Hot paths hold resolved handles (usually in a
//! `OnceLock`'d struct) so steady-state recording never locks.
//!
//! Collection is off by default: [`enabled()`] is a single relaxed
//! atomic load, and every instrumentation site in the workspace checks
//! it before doing non-trivial work (clock reads, allocation). Call
//! [`enable()`] (or [`install()`]) to turn recording on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::histogram::Histogram;
use crate::snapshot::MetricsSnapshot;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is metrics collection on? One relaxed load — safe on any hot path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on and return the global registry.
pub fn install() -> &'static Registry {
    ENABLED.store(true, Ordering::Relaxed);
    Registry::global()
}

/// Turn collection on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn collection off. A guard armed while collection was on (see
/// [`crate::TraceSpan::timed`]) still records when it closes; nothing
/// opened afterwards records until [`enable()`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A signed instantaneous value (queue depths, live sessions, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Named metric store. Usually used through [`Registry::global`].
#[derive(Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
}

fn get_or_insert<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(v) = map.read().expect("metrics map").get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().expect("metrics map");
    Arc::clone(w.entry(name.to_owned()).or_default())
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Resolve (or create) a counter handle. Locks the name map; resolve
    /// once and cache the `Arc` on hot paths.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Point-in-time snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .read()
            .expect("metrics map")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, i64)> = self
            .gauges
            .read()
            .expect("metrics map")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        gauges.sort();
        let mut histograms: Vec<_> = self
            .histograms
            .read()
            .expect("metrics map")
            .iter()
            .map(|(k, v)| v.snapshot(k))
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Zero all metrics (tests and benches; races with live recorders
    /// are benign but make the next snapshot approximate).
    pub fn reset(&self) {
        for c in self.counters.read().expect("metrics map").values() {
            c.reset();
        }
        for g in self.gauges.read().expect("metrics map").values() {
            g.set(0);
        }
        for h in self.histograms.read().expect("metrics map").values() {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
    }

    #[test]
    fn snapshot_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b").inc();
        r.counter("a").add(5);
        r.gauge("g").set(-2);
        r.histogram("h").record(10);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("a".into(), 5), ("b".into(), 1)]);
        assert_eq!(s.gauges, vec![("g".into(), -2)]);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].count, 1);
    }

    #[test]
    fn enable_disable_flag() {
        let _g = crate::gate_lock();
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
    }
}
