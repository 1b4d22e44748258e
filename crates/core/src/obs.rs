//! Per-service instrumentation helpers.
//!
//! Every user-facing service (CourseCloud, Recommender, Planner, Forum)
//! owns one [`SvcMetrics`]: a request counter, an error counter, and a
//! request-latency histogram in the process-wide [`cr_obs`] registry —
//! all pre-resolved handles, so steady-state recording never takes the
//! registry lock. When tracing is on, each request additionally opens a
//! **root trace span** named `courserank.<service>.request`; everything
//! below (FlexRecs stages, plan operators, WAL flushes)
//! parents under it, giving one trace per service request. Both ride
//! on one [`cr_obs::TraceSpan`] guard: when observability is disabled
//! the wrapper costs three relaxed atomic loads and never reads the
//! clock.

use std::sync::Arc;

use cr_relation::RelResult;

/// Request/error counters plus a latency histogram for one service.
pub(crate) struct SvcMetrics {
    pub requests: Arc<cr_obs::Counter>,
    pub errors: Arc<cr_obs::Counter>,
    pub latency: Arc<cr_obs::Histogram>,
    /// Root-span name, built once so the per-request tracing path does
    /// no formatting.
    span_name: String,
}

impl SvcMetrics {
    /// Resolve the three handles for `courserank.<service>.*`.
    pub fn new(service: &str) -> Self {
        let reg = cr_obs::Registry::global();
        SvcMetrics {
            requests: reg.counter(&format!("courserank.{service}.requests")),
            errors: reg.counter(&format!("courserank.{service}.errors")),
            latency: reg.histogram(&format!("courserank.{service}.request_ns")),
            span_name: format!("courserank.{service}.request"),
        }
    }

    /// Run a request, bumping the counters and recording latency; under
    /// tracing, the whole request becomes one root span.
    pub fn observe<T>(&self, f: impl FnOnce() -> RelResult<T>) -> RelResult<T> {
        let mut span = cr_obs::trace::TraceSpan::root(&self.span_name).timed(&self.latency);
        let out = f();
        if out.is_err() {
            span.attr("error", "true");
        }
        if cr_obs::enabled() {
            self.requests.inc();
            if out.is_err() {
                self.errors.inc();
            }
        }
        out
    }
}
