//! Per-service instrumentation helpers.
//!
//! Every user-facing service (CourseCloud, Recommender, Planner, Forum)
//! owns one [`SvcMetrics`]: a request counter, an error counter, and a
//! request-latency histogram in the process-wide [`cr_obs`] registry —
//! all pre-resolved handles, so steady-state recording never takes the
//! registry lock. When tracing is on, each request additionally opens a
//! **root trace span** named `courserank.<service>.request`; everything
//! below (FlexRecs stages, plan operators, WAL flushes)
//! parents under it, giving one trace per service request. When
//! observability is disabled the wrapper costs two relaxed atomic loads
//! and never reads the clock.

use std::sync::Arc;
use std::time::Instant;

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
        let mut span = if cr_obs::trace::enabled() {
            cr_obs::trace::TraceSpan::root(&self.span_name)
        } else {
            cr_obs::trace::TraceSpan::noop()
        };
        if !cr_obs::enabled() {
            if span.is_recording() {
                let out = f();
                if out.is_err() {
                    span.attr("error", "true");
                }
                return out;
            }
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.requests.inc();
        self.latency.record_duration(start.elapsed());
        if out.is_err() {
            self.errors.inc();
            if span.is_recording() {
                span.attr("error", "true");
            }
        }
        out
    }
}
