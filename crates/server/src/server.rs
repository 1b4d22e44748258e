//! The server proper: handshake, request loop, dispatch.
//!
//! One [`Server`] owns one assembled [`CourseRank`] and is shared
//! (`Arc`) by every session thread — the `Send + Sync` audit in
//! cr-core's `app.rs` is what makes this legal without `unsafe`.
//!
//! Scheduling per request (DESIGN.md §13):
//!
//! 1. classify ([`Request::class`]),
//! 2. admit through the bounded [`Admission`] controller (or answer
//!    [`Response::Overloaded`] without touching the engine),
//! 3. **reads**: execute against a pinned snapshot read view
//!    ([`CourseRank::read_view`]) — concurrent writers copy-on-write,
//!    the view never blocks them and never sees a torn cut; **writes**:
//!    execute against the live app, ordered by the WAL exactly as in
//!    the embedded library;
//! 4. record session counters, server metrics, and a trace span.
//!
//! ## Snapshot publication rules
//!
//! Reads do not each take a private cut. All concurrent readers share
//! one cached view, republished when either
//!
//! * the cut is older than [`ServerConfig::snapshot_max_staleness`]
//!   (bounded staleness for cross-session visibility), or
//! * the reading session has itself written since the cut was taken
//!   (read-your-writes: sessions always observe their own mutations).
//!
//! Sharing matters under write load: while a cut pins a table, the next
//! writer touching it copies what it writes into — one row chunk and one
//! shard per index map (cr-relation's `table` module docs) — and the
//! cut's last reference frees the superseded pieces. With per-request
//! cuts the copy rate is the *read* rate; with a shared cut it is bounded
//! by the republish rate, so a write storm cannot ruin readers (and vice
//! versa). The superseded cut is dropped after the view lock is released,
//! so no reader waits on that free. Every request still sees one atomic
//! cut across all tables — publication only decides *which* cut.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use courserank::db::{Comment, EnrollStatus, Enrollment};
use courserank::model::{Quarter, Term};
use courserank::CourseRank;
use cr_relation::plan::flow::{check_disclosure_sql, Principal};
use cr_relation::{RelError, RelResult};

use crate::admission::{Admission, AdmissionConfig};
use crate::protocol::{
    error_response, read_frame, write_frame, CloudTermDto, ErrorCode, HitDto, RecDto, Request,
    RequestClass, Response, PROTOCOL_VERSION,
};
use crate::session::SessionRegistry;
use crate::stats::register_server_tables;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Announced in the handshake and in `cr_stat_sessions` peers.
    pub name: String,
    pub admission: AdmissionConfig,
    /// How stale the shared read view may get before a read republishes
    /// it (see the module docs' snapshot publication rules). Zero means
    /// every read takes a fresh cut. Read-your-writes holds regardless.
    pub snapshot_max_staleness: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            name: "cr-server".to_owned(),
            admission: AdmissionConfig::default(),
            snapshot_max_staleness: Duration::from_millis(8),
        }
    }
}

/// One published cut: the rebound app + its version vector, shared by
/// every read admitted while it is fresh.
struct CachedView {
    view: CourseRank,
    cut: cr_relation::CatalogSnapshot,
    taken: Instant,
    /// Server write sequence already visible in this cut (at-least).
    as_of_seq: u64,
}

struct ServerMetrics {
    requests: Arc<cr_obs::Counter>,
    errors: Arc<cr_obs::Counter>,
    shed: Arc<cr_obs::Counter>,
    sessions_active: Arc<cr_obs::Gauge>,
    latency: [Arc<cr_obs::Histogram>; 3],
    /// Shared read view republished (vs served from cache).
    republished: Arc<cr_obs::Counter>,
    /// SQL reads that went through the disclosure check.
    flow_checked: Arc<cr_obs::Counter>,
    /// SQL reads the disclosure check denied (PolicyDenied on the wire).
    flow_denied: Arc<cr_obs::Counter>,
    /// Writes folded into one republication — the delta batch a cut
    /// absorbs. Large values mean a write storm was amortized into a
    /// single copy-on-write wave instead of one per read.
    republish_batch: Arc<cr_obs::Histogram>,
}

impl ServerMetrics {
    fn new() -> Self {
        let reg = cr_obs::Registry::global();
        ServerMetrics {
            requests: reg.counter("server.requests"),
            errors: reg.counter("server.errors"),
            shed: reg.counter("server.shed"),
            sessions_active: reg.gauge("server.sessions.active"),
            latency: [
                reg.histogram("server.read.request_ns"),
                reg.histogram("server.write.request_ns"),
                reg.histogram("server.admin.request_ns"),
            ],
            republished: reg.counter("server.snapshot.republished"),
            flow_checked: reg.counter("plan.flow.checked"),
            flow_denied: reg.counter("plan.flow.denied"),
            republish_batch: reg.histogram("server.snapshot.delta_batch"),
        }
    }
}

/// The assembled server. Construct with [`Server::new`], then either
/// [`Server::serve_tcp`] or [`Server::handle_conn`] (in-process).
pub struct Server {
    app: CourseRank,
    cfg: ServerConfig,
    admission: Arc<Admission>,
    sessions: Arc<SessionRegistry>,
    metrics: ServerMetrics,
    /// Comment-id allocator, seeded from MAX(CommentID) at startup.
    next_comment: AtomicI64,
    /// Bumped once per successful write; pairs with
    /// `SessionRegistry::note_write` for read-your-writes.
    write_seq: AtomicU64,
    /// The currently published read view (None until the first read).
    view_cache: parking_lot::Mutex<Option<Arc<CachedView>>>,
}

impl Server {
    /// Wrap an assembled app. Registers `cr_stat_sessions` /
    /// `cr_stat_admission` in the app's catalog (so they are queryable
    /// through any SQL path, including snapshot views).
    pub fn new(app: CourseRank, cfg: ServerConfig) -> RelResult<Arc<Self>> {
        let admission = Admission::new(cfg.admission.clone());
        let sessions = SessionRegistry::new();
        register_server_tables(
            &app.db().catalog(),
            Arc::clone(&sessions),
            Arc::clone(&admission),
        )?;
        let max_comment = app
            .db()
            .database()
            .query_sql("SELECT MAX(CommentID) AS m FROM Comments")?
            .rows
            .first()
            .and_then(|r| r.first().and_then(|v| v.as_int().ok()))
            .unwrap_or(0);
        Ok(Arc::new(Server {
            app,
            cfg,
            admission,
            sessions,
            metrics: ServerMetrics::new(),
            next_comment: AtomicI64::new(max_comment + 1),
            write_seq: AtomicU64::new(0),
            view_cache: parking_lot::Mutex::new(None),
        }))
    }

    pub fn app(&self) -> &CourseRank {
        &self.app
    }

    pub fn admission(&self) -> &Arc<Admission> {
        &self.admission
    }

    pub fn sessions(&self) -> &Arc<SessionRegistry> {
        &self.sessions
    }

    // -----------------------------------------------------------------
    // Transports
    // -----------------------------------------------------------------

    /// Bind `addr` and serve until the returned handle is shut down.
    /// Each connection gets its own thread; admission control is what
    /// bounds concurrent work, not the thread count.
    pub fn serve_tcp(self: &Arc<Self>, addr: &str) -> std::io::Result<TcpHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let server = Arc::clone(self);
        let accept_loop = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        let _ = stream.set_nodelay(true);
                        let server = Arc::clone(&server);
                        conns.push(std::thread::spawn(move || {
                            server.handle_conn_peer(stream, &peer.to_string());
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(TcpHandle {
            local_addr,
            stop,
            accept_loop: Some(accept_loop),
        })
    }

    /// Serve one in-process connection on the calling thread until the
    /// peer says `Goodbye` or hangs up. Tests and `--smoke` use this
    /// with [`crate::transport::pipe`].
    pub fn handle_conn(&self, conn: impl Read + Write) {
        self.handle_conn_peer(conn, "pipe");
    }

    fn handle_conn_peer(&self, mut conn: impl Read + Write, peer: &str) {
        // Handshake first; anything else on a virgin connection is a
        // protocol error and the connection is dropped.
        let session = match read_frame::<_, Request>(&mut conn) {
            Ok(Some(Request::Hello {
                protocol_version,
                client,
                principal,
            })) => {
                if protocol_version != PROTOCOL_VERSION {
                    let _ = write_frame(
                        &mut conn,
                        &Response::Error {
                            code: ErrorCode::VersionMismatch,
                            message: format!(
                                "server speaks protocol {PROTOCOL_VERSION}, client sent {protocol_version}"
                            ),
                        },
                    );
                    return;
                }
                let Some(principal) = Principal::parse(&principal) else {
                    let _ = write_frame(
                        &mut conn,
                        &Response::Error {
                            code: ErrorCode::BadRequest,
                            message: format!(
                                "unknown principal {principal:?} \
                                 (anonymous|student|student:<id>|faculty|staff|admin)"
                            ),
                        },
                    );
                    return;
                };
                let id = self.sessions.open(peer, &client, principal);
                self.metrics
                    .sessions_active
                    .set(self.sessions.active() as i64);
                let ack = Response::HelloAck {
                    protocol_version: PROTOCOL_VERSION,
                    server: self.cfg.name.clone(),
                    session: id,
                };
                if write_frame(&mut conn, &ack).is_err() {
                    self.sessions.close(id);
                    self.metrics
                        .sessions_active
                        .set(self.sessions.active() as i64);
                    return;
                }
                id
            }
            Ok(Some(_)) => {
                let _ = write_frame(
                    &mut conn,
                    &Response::Error {
                        code: ErrorCode::BadRequest,
                        message: "first frame must be Hello".to_owned(),
                    },
                );
                return;
            }
            _ => return,
        };

        // Request/response alternation until Goodbye or disconnect
        // (clean or torn — read errors just end the session).
        while let Ok(Some(req)) = read_frame::<_, Request>(&mut conn) {
            let bye = matches!(req, Request::Goodbye);
            let resp = self.dispatch(session, &req);
            if write_frame(&mut conn, &resp).is_err() || bye {
                break;
            }
        }
        self.sessions.close(session);
        self.metrics
            .sessions_active
            .set(self.sessions.active() as i64);
    }

    // -----------------------------------------------------------------
    // Dispatch
    // -----------------------------------------------------------------

    /// Admit, execute, account. Public so harnesses can drive the full
    /// scheduling path without a transport.
    pub fn dispatch(&self, session: u64, req: &Request) -> Response {
        let class = req.class();
        let permit = match self.admission.admit(class) {
            Ok(p) => p,
            Err(shed) => {
                if cr_obs::enabled() {
                    self.metrics.shed.inc();
                }
                self.sessions.record(session, req.kind(), false, true);
                return Response::Overloaded {
                    class: shed.class,
                    in_flight: shed.in_flight,
                    queued: shed.queued,
                };
            }
        };
        let mut span = cr_obs::trace::TraceSpan::root("server.request")
            .timed(&self.metrics.latency[class.index()]);
        if span.is_recording() {
            span.attr("kind", req.kind());
            span.attr("class", class.name());
        }
        let resp = self.execute(session, req);
        let is_err = matches!(resp, Response::Error { .. });
        if is_err {
            span.attr("error", "true");
        }
        if cr_obs::enabled() {
            self.metrics.requests.inc();
            if is_err {
                self.metrics.errors.inc();
            }
        }
        self.sessions.record(session, req.kind(), is_err, false);
        drop(span);
        drop(permit);
        resp
    }

    /// Fetch the published view, republishing first if the cache is
    /// missing, older than the staleness bound, or predates `session`'s
    /// own latest write (module docs: snapshot publication rules).
    fn pinned_view(&self, session: u64) -> Arc<CachedView> {
        let needed_seq = self.sessions.last_write_seq(session);
        let mut cache = self.view_cache.lock();
        if let Some(cached) = &*cache {
            if cached.as_of_seq >= needed_seq
                && cached.taken.elapsed() <= self.cfg.snapshot_max_staleness
            {
                return Arc::clone(cached);
            }
        }
        // Load the sequence *before* cutting: the cut then includes at
        // least everything up to that sequence, never less.
        let as_of_seq = self.write_seq.load(Ordering::Acquire);
        if cr_obs::enabled() {
            self.metrics.republished.inc();
            let folded = as_of_seq.saturating_sub(cache.as_ref().map_or(0, |c| c.as_of_seq));
            self.metrics.republish_batch.record(folded);
        }
        let (view, cut) = self.app.read_view();
        let fresh = Arc::new(CachedView {
            view,
            cut,
            taken: Instant::now(),
            as_of_seq,
        });
        let superseded = cache.replace(Arc::clone(&fresh));
        // Free the old cut only after releasing the lock: when this was its
        // last reference, dropping it frees every chunk and shard written
        // since, and concurrent readers must not queue behind that.
        drop(cache);
        drop(superseded);
        fresh
    }

    fn execute(&self, session: u64, req: &Request) -> Response {
        match req.class() {
            RequestClass::Read => {
                // One atomic cut per request: every table the request
                // touches comes from the same snapshot.
                let pinned = self.pinned_view(session);
                let principal = self.sessions.principal(session);
                self.execute_read(&pinned.view, &pinned.cut, &principal, req)
            }
            RequestClass::Write => {
                let resp = self.execute_write(req);
                if !matches!(resp, Response::Error { .. }) {
                    // Publish the write for session causality: this
                    // session's next read refuses any older cut.
                    let seq = self.write_seq.fetch_add(1, Ordering::AcqRel) + 1;
                    self.sessions.note_write(session, seq);
                }
                resp
            }
            RequestClass::Admin => self.execute_admin(req),
        }
    }

    fn execute_read(
        &self,
        view: &CourseRank,
        cut: &cr_relation::CatalogSnapshot,
        principal: &Principal,
        req: &Request,
    ) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Hello { .. } => Response::Error {
                code: ErrorCode::BadRequest,
                message: "session already established".to_owned(),
            },
            Request::Goodbye => Response::Bye,
            Request::Search {
                query,
                refine,
                limit,
            } => {
                let k = (*limit).clamp(1, 100) as usize;
                match view.search().search_with_cloud(query, refine.as_deref(), k) {
                    Ok((hits, results, cloud)) => Response::SearchResults {
                        hits: hits
                            .into_iter()
                            .map(|h| HitDto {
                                course: h.course,
                                title: h.title,
                                dep: h.dep,
                                score: h.score,
                                snippet: h.snippet,
                            })
                            .collect(),
                        total: results.total as u64,
                        cloud: cloud
                            .terms
                            .into_iter()
                            .map(|t| CloudTermDto {
                                term: t.term,
                                display: t.display,
                                score: t.score,
                            })
                            .collect(),
                    },
                    Err(e) => error_response(&e),
                }
            }
            Request::CoursePage { course } => match view.course_page(*course) {
                Ok(text) => Response::Page { text },
                Err(e) => error_response(&e),
            },
            Request::Recommend {
                student,
                limit,
                basis,
            } => {
                use courserank::services::recs::SimilarityBasis;
                let basis = match basis.as_deref() {
                    None | Some("ratings") => SimilarityBasis::Ratings,
                    Some("taken") => SimilarityBasis::CoursesTaken,
                    Some("grades") => SimilarityBasis::Grades,
                    Some(other) => {
                        return Response::Error {
                            code: ErrorCode::BadRequest,
                            message: format!("unknown basis {other:?} (ratings|taken|grades)"),
                        }
                    }
                };
                let opts = courserank::services::recs::RecOptions {
                    basis,
                    k_courses: (*limit).clamp(1, 100) as usize,
                    ..Default::default()
                };
                match view.recs().recommend_courses(*student, &opts) {
                    Ok(recs) => Response::Recommendations {
                        recs: recs
                            .into_iter()
                            .map(|r| RecDto {
                                course: r.course,
                                title: r.title,
                                score: r.score,
                            })
                            .collect(),
                    },
                    Err(e) => error_response(&e),
                }
            }
            Request::PlanReport { student } => match view.planner().report(*student) {
                Ok(report) => Response::PlanSummary {
                    quarters: report.quarters.len() as u64,
                    conflicts: report.conflicts.len() as u64,
                    prereq_violations: report.prereq_violations.len() as u64,
                    total_units: report.total_units,
                },
                Err(e) => error_response(&e),
            },
            Request::Counts { tables } => {
                // Hazardous order on purpose: the caller chooses the
                // read order; the snapshot guarantees consistency.
                let mut counts = Vec::with_capacity(tables.len());
                let mut versions = Vec::with_capacity(tables.len());
                for t in tables {
                    match view.db().count(t) {
                        Ok(n) => counts.push(n),
                        Err(e) => return error_response(&e),
                    }
                    versions.push(cut.version_of(t).unwrap_or(0));
                }
                Response::CountsResult { counts, versions }
            }
            // `execute_sql` (not `query_sql`): read-only enforcement is
            // the snapshot's frozen-catalog guard, not statement-kind
            // parsing — DML fails with the typed ReadOnly error.
            Request::SqlRead { query } => {
                // Disclosure check before execution: if the query plans
                // as a SELECT, its information flow must clear this
                // session's principal. Any other single statement (DML,
                // DDL) falls through — the snapshot's read-only guard
                // rejects it with its own typed error. A text of several
                // statements is refused: `execute_sql` would run them
                // all, and none of them was gated. The decision is
                // memoized per (principal, text) on the catalog, so
                // repeated queries pay one map lookup, not a plan + flow
                // walk.
                let catalog = view.db().catalog();
                if let Some(report) = check_disclosure_sql(query, &catalog, principal) {
                    self.metrics.flow_checked.inc();
                    if report.has_errors() {
                        self.metrics.flow_denied.inc();
                        let first = report
                            .first_error()
                            .map_or_else(|| "policy violation".to_owned(), ToString::to_string);
                        return Response::Error {
                            code: ErrorCode::PolicyDenied,
                            message: format!("disclosure check failed for {principal}: {first}"),
                        };
                    }
                } else {
                    let message = match cr_relation::sql::parse(query) {
                        Ok(stmts) if stmts.len() == 1 => None,
                        Ok(_) => Some("a SQL read takes exactly one statement".to_owned()),
                        Err(e) => Some(e.to_string()),
                    };
                    if let Some(message) = message {
                        return Response::Error {
                            code: ErrorCode::BadRequest,
                            message,
                        };
                    }
                }
                match view.db().database().execute_sql(query) {
                    Ok(rs) => Response::Rows {
                        columns: rs.schema.columns().iter().map(|c| c.name.clone()).collect(),
                        rows: rs.rows,
                    },
                    Err(e) => error_response(&e),
                }
            }
            other => Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("{} is not a read request", other.kind()),
            },
        }
    }

    fn execute_write(&self, req: &Request) -> Response {
        match req {
            Request::AddComment {
                student,
                course,
                year,
                term,
                text,
                rating,
            } => {
                let Some(term) = Term::parse(term) else {
                    return Response::Error {
                        code: ErrorCode::BadRequest,
                        message: format!("unknown term {term:?}"),
                    };
                };
                // Allocate ids atomically; retry on a duplicate key in
                // case rows were inserted out-of-band (e.g. datagen
                // after server start).
                for _ in 0..8 {
                    let id = self.next_comment.fetch_add(1, Ordering::Relaxed);
                    match self.app.db().insert_comment(&Comment {
                        id,
                        student: *student,
                        course: *course,
                        quarter: Quarter::new(*year as i32, term),
                        text: text.clone(),
                        rating: *rating,
                        date: 0,
                    }) {
                        Ok(()) => return Response::CommentAdded { id },
                        Err(RelError::DuplicateKey(_)) => continue,
                        Err(e) => return error_response(&e),
                    }
                }
                Response::Error {
                    code: ErrorCode::Internal,
                    message: "comment id allocation kept colliding".to_owned(),
                }
            }
            Request::Vote {
                comment,
                voter,
                helpful,
            } => match self.app.comments().vote(*comment, *voter, *helpful) {
                Ok(()) => Response::Written,
                Err(e) => error_response(&e),
            },
            Request::Enroll {
                student,
                course,
                year,
                term,
                planned,
            } => {
                let Some(term) = Term::parse(term) else {
                    return Response::Error {
                        code: ErrorCode::BadRequest,
                        message: format!("unknown term {term:?}"),
                    };
                };
                let e = Enrollment {
                    student: *student,
                    course: *course,
                    quarter: Quarter::new(*year as i32, term),
                    grade: None,
                    status: if *planned {
                        EnrollStatus::Planned
                    } else {
                        EnrollStatus::Taken
                    },
                };
                match self.app.db().insert_enrollment(&e) {
                    Ok(()) => Response::Written,
                    Err(e) => error_response(&e),
                }
            }
            other => Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("{} is not a write request", other.kind()),
            },
        }
    }

    fn execute_admin(&self, req: &Request) -> Response {
        match req {
            Request::Checkpoint => match self.app.checkpoint() {
                Ok(seq) => Response::Checkpointed { seq },
                Err(e) => Response::Error {
                    code: ErrorCode::Internal,
                    message: e.to_string(),
                },
            },
            Request::Metrics => Response::MetricsJson {
                json: self.app.metrics_snapshot().to_json(),
            },
            other => Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("{} is not an admin request", other.kind()),
            },
        }
    }
}

/// Handle to a running TCP listener. Dropping it shuts the server down
/// and joins every connection thread.
pub struct TcpHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_loop: Option<JoinHandle<()>>,
}

impl TcpHandle {
    /// The bound address (useful with `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, then wait for in-flight connections to finish.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_loop.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_loop.take() {
            let _ = h.join();
        }
    }
}
