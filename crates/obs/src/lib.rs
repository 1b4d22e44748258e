//! `cr-obs` — zero-dependency observability for the social-systems
//! workspace.
//!
//! Four pieces:
//!
//! * a process-wide **metrics registry** ([`Registry`]) of named
//!   [`Counter`]s, [`Gauge`]s, and log-linear latency [`Histogram`]s,
//!   all recorded with relaxed atomics (no locks on hot paths — the
//!   registry lock is only taken when a handle is first resolved);
//! * one **timed-section guard** ([`TraceSpan`]) that feeds a histogram
//!   when metrics are on and the flight recorder when tracing is on,
//!   from one clock reading at each end, and compiles down to "two
//!   relaxed loads, then nothing" when both are off;
//! * **snapshot rendering** ([`MetricsSnapshot`]) as hand-rolled JSON,
//!   Prometheus text exposition, or a human-readable table;
//! * a **flight recorder** ([`trace`]) of hierarchical trace spans in
//!   a lock-free bounded ring, with a Chrome trace-event exporter and
//!   a slow-request log — individually gated, also off by default.
//!
//! Collection is **off by default**. Call [`install`] (or [`enable`])
//! once at startup; every instrumentation site in the workspace guards
//! on [`enabled`] before touching the clock or allocating.
//!
//! ```
//! let registry = cr_obs::install();
//! let work_ns = registry.histogram("demo.work_ns");
//! {
//!     let _span = cr_obs::TraceSpan::child("demo.work").timed(&work_ns);
//!     registry.counter("demo.requests").inc();
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("demo.requests"), Some(1));
//! assert!(snap.histogram("demo.work_ns").unwrap().count >= 1);
//! ```

#![forbid(unsafe_code)]

pub mod histogram;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot, QUANTILE_RELATIVE_ERROR};
pub use registry::{disable, enable, enabled, install, Counter, Gauge, Registry};
pub use snapshot::MetricsSnapshot;
pub use trace::{FlightRecorder, SlowQuery, SpanId, SpanRecord, TraceId, TraceSpan};

/// Serialises the unit tests that flip a process-wide gate (metrics or
/// trace), so no test sees another's setting mid-run.
#[cfg(test)]
pub(crate) fn gate_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
