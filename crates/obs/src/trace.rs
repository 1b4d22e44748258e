//! Hierarchical tracing into an always-on flight recorder, and the
//! workspace's one timed-section guard.
//!
//! A [`TraceSpan`] times a section into up to two sinks, each behind
//! its own gate:
//!
//! * the **ring** (trace gate, [`enabled`]): an individual
//!   [`SpanRecord`] — trace id, span id, parent link, key-value
//!   attributes and point events — lands in a process-wide bounded
//!   ring buffer (the [`FlightRecorder`]). The ring is lock-free on the
//!   happy path: a writer reserves a slot with one `fetch_add` and takes
//!   a per-slot `try_lock`; if the slot is contended the record is
//!   dropped and a counter bumped, so recording never blocks an
//!   executor thread;
//! * a **histogram** (metrics gate, [`crate::enabled`]), attached with
//!   [`TraceSpan::timed`]: the section's duration is aggregated into it.
//!
//! Both gates are **off by default**. With both off a guard costs two
//! relaxed loads — no clock read, no allocation. With either on, both
//! sinks share one trace-clock reading at open and one at close. The
//! metrics-only guard reads the clock and nothing else: no allocation,
//! no span stack. Parenting is implicit through a thread-local span
//! stack that only ring-recording spans join.
//!
//! Two exporters ship with the recorder:
//!
//! * [`export_chrome_trace`] renders records as Chrome trace-event
//!   JSON (load in Perfetto / `chrome://tracing`);
//! * a slow-request log ([`capture_slow_query`], [`slow_queries`])
//!   keeps the plan fingerprint and full EXPLAIN ANALYZE tree of any
//!   request over [`set_slow_query_threshold`].
//!
//! ```
//! cr_obs::trace::enable();
//! {
//!     let mut root = cr_obs::trace::TraceSpan::root("request");
//!     root.attr("user", "alice");
//!     let _child = cr_obs::trace::TraceSpan::child("scan");
//! }
//! let spans = cr_obs::trace::recorder().snapshot();
//! assert!(spans.iter().any(|s| s.name == "scan" && s.parent.is_some()));
//! cr_obs::trace::disable();
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::histogram::Histogram;

// ---------------------------------------------------------------------------
// Gate
// ---------------------------------------------------------------------------

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Is tracing on? One relaxed load — safe on any hot path.
#[inline]
pub fn enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on.
pub fn enable() {
    TRACE_ENABLED.store(true, Ordering::Relaxed);
}

/// Turn span recording off. In-flight spans still record on drop.
pub fn disable() {
    TRACE_ENABLED.store(false, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Ids and clock
// ---------------------------------------------------------------------------

/// Identifies one causally-linked tree of spans (one request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies one span within the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// A live span's coordinates, as kept on the thread-local span stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SpanContext {
    trace: TraceId,
    span: SpanId,
}

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

fn next_trace_id() -> TraceId {
    TraceId(NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
}

fn next_span_id() -> SpanId {
    SpanId(NEXT_SPAN.fetch_add(1, Ordering::Relaxed))
}

/// Reset the trace/span id counters to 1 (deterministic tests only;
/// racing with live spans makes ids collide).
pub fn reset_ids() {
    NEXT_TRACE.store(1, Ordering::Relaxed);
    NEXT_SPAN.store(1, Ordering::Relaxed);
}

static MANUAL_MODE: AtomicBool = AtomicBool::new(false);
static MANUAL_NOW: AtomicU64 = AtomicU64::new(0);

/// Switch the trace clock between wall time and a manual counter that
/// only moves via [`advance_manual_clock`] (deterministic tests).
/// Entering manual mode resets the manual clock to zero.
pub fn set_manual_clock(on: bool) {
    MANUAL_NOW.store(0, Ordering::Relaxed);
    MANUAL_MODE.store(on, Ordering::Relaxed);
}

/// Advance the manual trace clock by `ns` (no-op in wall-clock mode).
pub fn advance_manual_clock(ns: u64) {
    MANUAL_NOW.fetch_add(ns, Ordering::Relaxed);
}

/// Nanoseconds on the trace clock: wall time since the first call, or
/// the manual counter when [`set_manual_clock`] is on.
pub fn now_ns() -> u64 {
    if MANUAL_MODE.load(Ordering::Relaxed) {
        return MANUAL_NOW.load(Ordering::Relaxed);
    }
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_ORDINAL: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
}

fn thread_ordinal() -> u32 {
    THREAD_ORDINAL.with(|t| *t)
}

/// The innermost ring-recording span on this thread, if any.
fn current_context() -> Option<SpanContext> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

// ---------------------------------------------------------------------------
// Records and the ring
// ---------------------------------------------------------------------------

/// One finished span as stored in the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Monotone sequence number (ring position; survives wraparound).
    pub seq: u64,
    pub trace: TraceId,
    pub span: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    /// Small per-process thread ordinal (not the OS tid).
    pub thread: u32,
    /// Start on the trace clock ([`now_ns`]).
    pub start_ns: u64,
    pub dur_ns: u64,
    pub attrs: Vec<(&'static str, String)>,
    /// `(timestamp_ns, message)` point events inside the span.
    pub events: Vec<(u64, String)>,
}

/// Default ring capacity: 8192 spans ≈ the last few hundred requests
/// at ~20 spans each, in ~2 MiB.
pub const DEFAULT_CAPACITY: usize = 8192;

/// A bounded ring of the most recent [`SpanRecord`]s. Writers reserve
/// a slot with one `fetch_add` then `try_lock` only that slot; a
/// contended slot drops the record (counted) rather than blocking.
pub struct FlightRecorder {
    slots: Box<[Mutex<Option<SpanRecord>>]>,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` spans (min 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let n = capacity.max(1);
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || Mutex::new(None));
        FlightRecorder {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans ever recorded (including ones since overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Spans lost to slot contention (writer met a locked slot).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Store a finished span. Lock-free slot reservation; never blocks.
    pub fn record(&self, mut rec: SpanRecord) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut guard) => {
                rec.seq = seq;
                *guard = Some(rec);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The retained spans, oldest first. Takes each slot lock briefly;
    /// meant for exporters and system tables, not hot paths.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|slot| {
                slot.lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .clone()
            })
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Empty the ring and zero the counters (tests, `crtrace --fresh`).
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            *slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = None;
        }
        self.head.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// The process-wide flight recorder ([`DEFAULT_CAPACITY`] slots).
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_CAPACITY))
}

// ---------------------------------------------------------------------------
// TraceSpan
// ---------------------------------------------------------------------------

/// The ring sink's state: everything a [`SpanRecord`] needs but the
/// timing.
struct LiveSpan {
    ctx: SpanContext,
    parent: Option<SpanId>,
    name: String,
    attrs: Vec<(&'static str, String)>,
    events: Vec<(u64, String)>,
}

/// An in-flight timed section. On drop it records a [`SpanRecord`] into
/// the global [`recorder`] if tracing was on at open, and its duration
/// into the histogram attached with [`TraceSpan::timed`] if metrics
/// were on; inert (no clock, no allocation) when neither was.
#[must_use = "a trace span records when dropped; binding it to _ drops immediately"]
pub struct TraceSpan<'h> {
    /// Trace-clock reading at open, shared by both sinks; meaningful
    /// only while one of them is armed.
    start_ns: u64,
    /// The ring sink, armed when tracing was on at open.
    live: Option<LiveSpan>,
    /// The histogram sink, armed by [`TraceSpan::timed`].
    hist: Option<&'h Histogram>,
}

impl<'h> TraceSpan<'h> {
    fn inert() -> Self {
        TraceSpan {
            start_ns: 0,
            live: None,
            hist: None,
        }
    }

    fn start(trace: TraceId, parent: Option<SpanId>, name: &str) -> Self {
        let ctx = SpanContext {
            trace,
            span: next_span_id(),
        };
        SPAN_STACK.with(|s| s.borrow_mut().push(ctx));
        TraceSpan {
            start_ns: now_ns(),
            live: Some(LiveSpan {
                ctx,
                parent,
                name: name.to_owned(),
                attrs: Vec::new(),
                events: Vec::new(),
            }),
            hist: None,
        }
    }

    /// Open a root span: a fresh trace with no parent.
    pub fn root(name: &str) -> Self {
        if !enabled() {
            return TraceSpan::inert();
        }
        TraceSpan::start(next_trace_id(), None, name)
    }

    /// Open a child of the innermost live span on this thread, or a
    /// fresh root when the stack is empty.
    pub fn child(name: &str) -> Self {
        if !enabled() {
            return TraceSpan::inert();
        }
        match current_context() {
            Some(parent) => TraceSpan::start(parent.trace, Some(parent.span), name),
            None => TraceSpan::start(next_trace_id(), None, name),
        }
    }

    /// Also record the section's duration into `hist` when metrics
    /// collection ([`crate::enabled`]) is on. Chain it onto the
    /// constructor: the duration runs from the span's opening clock
    /// reading, or from here when tracing is off.
    pub fn timed(mut self, hist: &'h Histogram) -> Self {
        if crate::registry::enabled() {
            if self.live.is_none() {
                self.start_ns = now_ns();
            }
            self.hist = Some(hist);
        }
        self
    }

    /// Is this span recording into the ring (so attributes and events
    /// are kept)?
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }

    #[cfg(test)]
    fn context(&self) -> Option<SpanContext> {
        self.live.as_ref().map(|l| l.ctx)
    }

    /// Rename the span — for sites where the precise operator name is
    /// only known after work started.
    pub fn set_name(&mut self, name: &str) {
        if let Some(l) = self.live.as_mut() {
            l.name.clear();
            l.name.push_str(name);
        }
    }

    /// Attach a key-value attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(l) = self.live.as_mut() {
            l.attrs.push((key, value.into()));
        }
    }

    /// Record a timestamped point event inside the span.
    pub fn event(&mut self, message: impl Into<String>) {
        if let Some(l) = self.live.as_mut() {
            l.events.push((now_ns(), message.into()));
        }
    }

    /// Elapsed trace-clock nanoseconds so far, if either sink is armed.
    pub fn elapsed_ns(&self) -> Option<u64> {
        (self.live.is_some() || self.hist.is_some()).then(|| now_ns().saturating_sub(self.start_ns))
    }

    /// Finish explicitly (equivalent to dropping).
    pub fn finish(self) {}
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        let live = self.live.take();
        if live.is_none() && self.hist.is_none() {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        if let Some(hist) = self.hist {
            hist.record(dur_ns);
        }
        let Some(live) = live else {
            return;
        };
        // Spans are scope guards, so per-thread lifetimes are LIFO;
        // still, only pop if the top really is us (a mem::forget'd
        // child must not make us pop someone else's frame).
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&live.ctx) {
                stack.pop();
            }
        });
        recorder().record(SpanRecord {
            seq: 0, // assigned by the ring
            trace: live.ctx.trace,
            span: live.ctx.span,
            parent: live.parent,
            name: live.name,
            thread: thread_ordinal(),
            start_ns: self.start_ns,
            dur_ns,
            attrs: live.attrs,
            events: live.events,
        });
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Nanoseconds as the microsecond float Chrome expects, exact to 1ns.
fn ns_to_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Render span records as Chrome trace-event JSON (complete "X"
/// events) — loadable in Perfetto or `chrome://tracing`. Trace, span,
/// and parent ids plus attributes ride along in `args`.
pub fn export_chrome_trace(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 160 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        json_escape(&r.name, &mut out);
        out.push_str("\",\"cat\":\"cr\",\"ph\":\"X\",\"ts\":");
        out.push_str(&ns_to_us(r.start_ns));
        out.push_str(",\"dur\":");
        out.push_str(&ns_to_us(r.dur_ns));
        out.push_str(&format!(",\"pid\":1,\"tid\":{}", r.thread));
        out.push_str(&format!(
            ",\"args\":{{\"trace_id\":{},\"span_id\":{}",
            r.trace.0, r.span.0
        ));
        if let Some(parent) = r.parent {
            out.push_str(&format!(",\"parent_id\":{}", parent.0));
        }
        for (k, v) in &r.attrs {
            out.push_str(",\"");
            json_escape(k, &mut out);
            out.push_str("\":\"");
            json_escape(v, &mut out);
            out.push('"');
        }
        for (j, (ts, msg)) in r.events.iter().enumerate() {
            out.push_str(&format!(",\"event.{j}\":\""));
            json_escape(&format!("@{} {}", ns_to_us(*ts), msg), &mut out);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Slow-request log
// ---------------------------------------------------------------------------

/// A captured slow request: who it was, how slow, and the full
/// EXPLAIN ANALYZE tree that explains why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// Monotone capture sequence (later = more recent).
    pub seq: u64,
    /// The trace the request ran under, if tracing was on.
    pub trace: Option<TraceId>,
    /// The logical plan fingerprint ([`u64`], shape-stable).
    pub fingerprint: u64,
    /// Human label for the entry point (e.g. `relation.query`).
    pub label: String,
    pub total_ns: u64,
    /// The threshold in force when this was captured.
    pub threshold_ns: u64,
    /// Rendered operator tree with timings (EXPLAIN ANALYZE).
    pub tree: String,
}

/// Keep the most recent 128 slow requests.
const SLOW_LOG_CAPACITY: usize = 128;

// u64::MAX means "no threshold": nothing is captured.
static SLOW_THRESHOLD_NS: AtomicU64 = AtomicU64::new(u64::MAX);
static SLOW_SEQ: AtomicU64 = AtomicU64::new(0);

fn slow_log() -> &'static Mutex<VecDeque<SlowQuery>> {
    static LOG: OnceLock<Mutex<VecDeque<SlowQuery>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)))
}

/// Capture requests slower than `threshold` (`None` turns capture
/// off). `Some(Duration::ZERO)` captures everything — handy in tests.
pub fn set_slow_query_threshold(threshold: Option<Duration>) {
    let ns = threshold.map_or(u64::MAX, |d| {
        d.as_nanos().min((u64::MAX - 1) as u128) as u64
    });
    SLOW_THRESHOLD_NS.store(ns, Ordering::Relaxed);
}

/// The active capture threshold in nanoseconds, if capture is on.
/// One relaxed load — callers check this before rendering any tree.
#[inline]
pub fn slow_query_threshold_ns() -> Option<u64> {
    match SLOW_THRESHOLD_NS.load(Ordering::Relaxed) {
        u64::MAX => None,
        ns => Some(ns),
    }
}

/// Append a slow-request entry (callers have already checked the
/// threshold and rendered `tree`). Oldest entries fall off past the
/// log capacity.
pub fn capture_slow_query(label: &str, fingerprint: u64, total_ns: u64, tree: String) {
    let Some(threshold_ns) = slow_query_threshold_ns() else {
        return;
    };
    let entry = SlowQuery {
        seq: SLOW_SEQ.fetch_add(1, Ordering::Relaxed),
        trace: current_context().map(|c| c.trace),
        fingerprint,
        label: label.to_owned(),
        total_ns,
        threshold_ns,
        tree,
    };
    let mut log = slow_log()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if log.len() == SLOW_LOG_CAPACITY {
        log.pop_front();
    }
    log.push_back(entry);
}

/// The retained slow requests, oldest first.
pub fn slow_queries() -> Vec<SlowQuery> {
    slow_log()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .iter()
        .cloned()
        .collect()
}

/// Empty the slow-request log (tests, `crtrace --fresh`).
pub fn clear_slow_queries() {
    slow_log()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate_lock as guard;

    fn stack_depth() -> usize {
        SPAN_STACK.with(|s| s.borrow().len())
    }

    /// Set both gates, run a 500 ns section on the manual clock under a
    /// `timed` child span, and report what each sink saw: histogram
    /// count and sum, ring records added, the guard's `elapsed_ns`, and
    /// the span-stack depth inside the section.
    fn run_section(metrics: bool, tracing: bool) -> (u64, u64, u64, Option<u64>, usize) {
        if metrics {
            crate::registry::enable();
        } else {
            crate::registry::disable();
        }
        if tracing {
            enable();
        } else {
            disable();
        }
        set_manual_clock(true);
        let hist = Histogram::new();
        let before = recorder().recorded();
        let (elapsed, depth) = {
            let span = TraceSpan::child("gates").timed(&hist);
            advance_manual_clock(500);
            (span.elapsed_ns(), stack_depth())
        };
        let added = recorder().recorded() - before;
        set_manual_clock(false);
        disable();
        crate::registry::disable();
        (hist.count(), hist.sum(), added, elapsed, depth)
    }

    #[test]
    fn both_gates_off_is_inert() {
        let _g = guard();
        assert_eq!(run_section(false, false), (0, 0, 0, None, 0));
    }

    #[test]
    fn metrics_only_feeds_the_histogram_and_leaves_the_stack_alone() {
        let _g = guard();
        assert_eq!(run_section(true, false), (1, 500, 0, Some(500), 0));
    }

    #[test]
    fn trace_only_feeds_the_ring() {
        let _g = guard();
        assert_eq!(run_section(false, true), (0, 0, 1, Some(500), 1));
    }

    #[test]
    fn both_gates_feed_both_sinks_from_one_clock() {
        let _g = guard();
        enable();
        crate::registry::enable();
        set_manual_clock(true);
        let hist = Histogram::new();
        let ctx = {
            let span = TraceSpan::root("both").timed(&hist);
            advance_manual_clock(750);
            span.context().expect("recording")
        };
        set_manual_clock(false);
        disable();
        crate::registry::disable();
        let spans = recorder().snapshot();
        let rec = spans.iter().find(|r| r.span == ctx.span).expect("recorded");
        assert_eq!(rec.dur_ns, 750);
        assert_eq!((hist.count(), hist.sum()), (1, 750));
        assert_eq!(stack_depth(), 0);
    }

    #[test]
    fn nesting_links_parent_and_trace() {
        let _g = guard();
        enable();
        let root_ctx;
        {
            let root = TraceSpan::root("outer");
            root_ctx = root.context().expect("recording");
            {
                let inner = TraceSpan::child("inner");
                let ictx = inner.context().expect("recording");
                assert_eq!(ictx.trace, root_ctx.trace);
            }
            // Stack popped: a new child hangs off the root again.
            assert_eq!(current_context(), Some(root_ctx));
        }
        assert_eq!(current_context(), None);
        let spans = recorder().snapshot();
        let inner = spans
            .iter()
            .find(|s| s.trace == root_ctx.trace && s.name == "inner")
            .expect("inner recorded");
        assert_eq!(inner.parent, Some(root_ctx.span));
        let outer = spans
            .iter()
            .find(|s| s.trace == root_ctx.trace && s.name == "outer")
            .expect("outer recorded");
        assert_eq!(outer.parent, None);
        disable();
    }

    #[test]
    fn ring_wraps_and_keeps_latest() {
        let ring = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            ring.record(SpanRecord {
                seq: 0,
                trace: TraceId(1),
                span: SpanId(i + 1),
                parent: None,
                name: format!("s{i}"),
                thread: 1,
                start_ns: i,
                dur_ns: 1,
                attrs: Vec::new(),
                events: Vec::new(),
            });
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 0);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            spans.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        ring.clear();
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.recorded(), 0);
    }

    #[test]
    fn manual_clock_drives_durations() {
        let _g = guard();
        enable();
        set_manual_clock(true);
        let ctx;
        {
            let mut s = TraceSpan::root("timed");
            ctx = s.context().expect("recording");
            advance_manual_clock(250);
            s.event("halfway");
            advance_manual_clock(250);
        }
        set_manual_clock(false);
        let spans = recorder().snapshot();
        let rec = spans.iter().find(|r| r.span == ctx.span).expect("recorded");
        assert_eq!(rec.dur_ns, 500);
        assert_eq!(rec.events, vec![(250, "halfway".to_owned())]);
        disable();
    }

    #[test]
    fn chrome_export_escapes_and_links() {
        let records = vec![SpanRecord {
            seq: 0,
            trace: TraceId(7),
            span: SpanId(9),
            parent: Some(SpanId(8)),
            name: "say \"hi\"".to_owned(),
            thread: 3,
            start_ns: 1500,
            dur_ns: 2001,
            attrs: vec![("rows", "10".to_owned())],
            events: Vec::new(),
        }];
        let json = export_chrome_trace(&records);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"say \\\"hi\\\"\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.001"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"trace_id\":7,\"span_id\":9,\"parent_id\":8"));
        assert!(json.contains("\"rows\":\"10\""));
    }

    #[test]
    fn slow_log_threshold_and_capacity() {
        let _g = guard();
        clear_slow_queries();
        set_slow_query_threshold(None);
        capture_slow_query("off", 1, 100, "tree".to_owned());
        assert!(slow_queries().is_empty());
        set_slow_query_threshold(Some(Duration::ZERO));
        for i in 0..(SLOW_LOG_CAPACITY + 3) {
            capture_slow_query("q", i as u64, 100, String::new());
        }
        let entries = slow_queries();
        assert_eq!(entries.len(), SLOW_LOG_CAPACITY);
        assert_eq!(entries.last().expect("non-empty").fingerprint, 130);
        set_slow_query_threshold(None);
        clear_slow_queries();
    }
}
