//! The traced run: one client replays the workload's
//! stream and the harness records spans around calls into each layer's
//! public functions — from outside; nothing in the product crates is
//! instrumented for it.
//!
//! Two phases share the `--seconds` budget:
//!
//! 1. **Traced replay.** Each request is encoded and decoded on a
//!    `Vec` (codec spans), dispatched through [`Server::dispatch`]
//!    (dispatch span), and then taken apart: the same input is run
//!    stage by stage against a *twin* — a second in-memory CourseRank
//!    that receives exactly the same reads and writes, so its caches
//!    are in the state the server's were in. Stage spans are children
//!    of the request's `stages` span. cr-obs collection is on, and the
//!    registry is read before and after for the count metrics.
//! 2. **Plain replay.** The same client continues the stream over the
//!    pipe with collection switched on and off in alternating blocks:
//!    the per-kind latency difference is the collection overhead, and
//!    the plain rate is what the traced decomposition is compared to.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use courserank::db::{Comment, EnrollStatus, Enrollment};
use courserank::model::{Quarter, Term};
use courserank::services::recs::{RecOptions, SimilarityBasis};
use courserank::CourseRank;
use cr_obs::{MetricsSnapshot, Registry};
use cr_relation::plan::flow::check_disclosure_sql;
use cr_relation::plan::{optimizer, Principal};
use cr_relation::sql::{self, ast::Statement, binder};
use cr_relation::{exec, row::row};
use cr_server::client::Client;
use cr_server::protocol::{read_frame, write_frame, Request, RequestClass, Response};
use cr_server::{transport, Server};
use cr_storage::wal::{Wal, WalConfig, WalRecord};
use cr_storage::{FsBackend, FsyncPolicy};
use cr_textsearch::CloudConfig;

use crbench::check::{check, ClientState};
use crbench::cli::{Report, RunConfig};
use crbench::setup::{
    campus_facts, crash_check, err, serve, BenchResult, Oracle, ScratchDir, Served,
};
use crbench::stats::percentile;
use crbench::stream::{request, Op, OpGen, Workload};

/// Every per-layer metric: name, unit, better. A layer that a workload
/// never enters reports 0 there (textsearch on the SQL workloads, the
/// WAL outside `write_storm_durable`).
pub const PER_LAYER: [(&str, &str, &str); 66] = [
    ("server.wire.ping_us", "us", "lower"),
    ("server.codec.req_us", "us", "lower"),
    ("server.codec.resp_us", "us", "lower"),
    ("server.codec.resp_bytes", "B", "lower"),
    ("server.admission.admit_us", "us", "lower"),
    ("server.snapshot.pin_us", "us", "lower"),
    ("server.snapshot.republished_per_kop", "count", "lower"),
    ("server.snapshot.delta_batch_p50", "count", "higher"),
    ("server.dispatch.self_us", "us", "lower"),
    ("server.shed", "count", "lower"),
    ("server.errors", "count", "lower"),
    ("server.read.p99_ms", "ms", "lower"),
    ("server.write.p50_ms", "ms", "lower"),
    ("server.write.p90_ms", "ms", "lower"),
    ("server.write.p99_ms", "ms", "lower"),
    ("server.plain.ops_per_s", "1/s", "higher"),
    ("relation.sql.parse_us", "us", "lower"),
    ("relation.sql.bind_us", "us", "lower"),
    ("relation.plan.validate_us", "us", "lower"),
    ("relation.plan.flow_us", "us", "lower"),
    ("relation.plan.flow_memo_us", "us", "lower"),
    ("relation.plan.optimize_us", "us", "lower"),
    ("relation.exec.point_us", "us", "lower"),
    ("relation.exec.join_agg_us", "us", "lower"),
    ("relation.exec.rows_out_per_op", "count", "lower"),
    ("relation.exec.dispatch_share", "ratio", "lower"),
    ("relation.scan.seq_share", "ratio", "lower"),
    ("relation.op.scan_share", "ratio", "lower"),
    ("relation.op.join_share", "ratio", "lower"),
    ("relation.op.aggregate_share", "ratio", "lower"),
    ("relation.op.sort_share", "ratio", "lower"),
    ("relation.catalog.snapshot_us", "us", "lower"),
    ("relation.insert_us", "us", "lower"),
    ("flexrecs.compile_us", "us", "lower"),
    ("flexrecs.run.ratings_us", "us", "lower"),
    ("flexrecs.run.taken_us", "us", "lower"),
    ("flexrecs.run.grades_us", "us", "lower"),
    ("textsearch.query_us", "us", "lower"),
    ("textsearch.cloud_us", "us", "lower"),
    ("textsearch.hits_per_query", "count", "lower"),
    ("core.search.us", "us", "lower"),
    ("core.page.us", "us", "lower"),
    ("core.planner.us", "us", "lower"),
    ("core.recs.miss_us", "us", "lower"),
    ("core.recs.hit_us", "us", "lower"),
    ("core.comments.insert_us", "us", "lower"),
    ("core.reccache.hit_rate", "ratio", "higher"),
    ("core.cloudcache.hit_rate", "ratio", "higher"),
    ("core.reccache.spared_share", "ratio", "higher"),
    ("core.reccache.evictions", "count", "lower"),
    ("storage.wal.append_us", "us", "lower"),
    ("storage.wal.fsync_us_p50", "us", "lower"),
    ("storage.wal.bytes_per_write", "B", "lower"),
    ("storage.wal.fsyncs_per_write", "count", "lower"),
    ("storage.checkpoint.ms", "ms", "lower"),
    ("storage.snapshot.bytes", "B", "lower"),
    ("storage.recover.ms", "ms", "lower"),
    ("storage.recover.replayed_records", "count", "lower"),
    ("storage.space.amplification", "ratio", "lower"),
    ("datagen.generate_s", "s", "lower"),
    ("core.assemble_s", "s", "lower"),
    ("obs.collect.overhead_share", "ratio", "lower"),
    ("trace.reconcile.sql_ratio", "ratio", "lower"),
    ("trace.reconcile.search_ratio", "ratio", "lower"),
    ("trace.reconcile.rec_ratio", "ratio", "lower"),
    ("trace.vs_plain.ops_ratio", "ratio", "higher"),
];

/// The reconciliation gate: a kind's stage spans must add up to within
/// this band of its dispatch spans.
pub const RECONCILE_BAND: (f64, f64) = (0.8, 1.2);
/// ROADMAP aim 4: collection may cost at most this share of throughput.
pub const COLLECT_BUDGET: f64 = 0.05;
/// Requests per collection-on / collection-off block of the plain phase.
const BLOCK: u64 = 4;
/// Every this-many-th recommendation miss is also compiled and run
/// through FlexRecs on its own (the replay costs as much as the miss).
const FLEXRECS_SAMPLE: u64 = 4;
const NO_PARENT: u32 = u32::MAX;
/// Most requests the traced phase takes apart: 20,000 give every median
/// thousands of samples and keep the span file in the tens of megabytes
/// on `sql_point`, whose requests take microseconds.
const MAX_TRACED: u64 = 20_000;
/// One client sends far fewer requests than the end-to-end run, so the
/// traced stream checkpoints more often: each phase then sees at least
/// one checkpoint and the slow writes that follow it.
const TRACED_CHECKPOINT_EVERY: u64 = 100;

/// One recorded span. `parent` is an index into the span list.
struct Span {
    name: &'static str,
    req: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans in memory; written out only when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and anything left open inside it); its length.
    fn end(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        end_ns - self.spans[id as usize].start_ns
    }

    /// Close a span whose name depended on how the call went.
    fn end_as(&mut self, id: u32, name: &'static str) -> u64 {
        self.spans[id as usize].name = name;
        self.end(id)
    }

    /// A leaf span around one call.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    fn durations(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            by_name
                .entry(s.name)
                .or_default()
                .push(s.end_ns - s.start_ns);
        }
        for v in by_name.values_mut() {
            v.sort_unstable();
        }
        by_name
    }

    fn write_json_lines(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Stage time against dispatch time for one kind of request.
#[derive(Default)]
struct Reconcile {
    stages_ns: u64,
    dispatch_ns: u64,
}

impl Reconcile {
    fn add(&mut self, stages: u64, dispatch: u64) {
        self.stages_ns += stages;
        self.dispatch_ns += dispatch;
    }

    /// 0 when the workload has no request of the kind.
    fn ratio(&self) -> f64 {
        if self.dispatch_ns == 0 {
            0.0
        } else {
            self.stages_ns as f64 / self.dispatch_ns as f64
        }
    }
}

/// Everything the traced replay accumulates besides spans.
#[derive(Default)]
struct Replay {
    sql: Reconcile,
    search: Reconcile,
    rec: Reconcile,
    /// Dispatch minus modelled stages, per request with a model.
    dispatch_self_ns: Vec<u64>,
    exec_ns: u64,
    resp_bytes: Vec<u64>,
    rows_out: Vec<u64>,
    hits: Vec<u64>,
    rec_misses_seen: u64,
    /// Recommendations where twin and server disagreed on hit vs miss.
    mirror_mismatches: u64,
    requests: u64,
    /// Wall time of codec + dispatch spans: what a plain client would
    /// have waited, minus the wire.
    served_ns: u64,
    wal_records: u64,
    ops: OperatorTimes,
}

/// Self time per operator family over the profiled analytic statements.
#[derive(Default)]
struct OperatorTimes {
    total_ns: u64,
    scan_ns: u64,
    join_ns: u64,
    aggregate_ns: u64,
    sort_ns: u64,
}

impl OperatorTimes {
    fn add(&mut self, node: &cr_relation::OpProfile) {
        let own = node.self_time().as_nanos() as u64;
        if node.op.starts_with("Scan") {
            self.scan_ns += own;
        } else if node.op.contains("Join") {
            self.join_ns += own;
        } else if node.op.contains("Aggregate") {
            self.aggregate_ns += own;
        } else if node.op.starts_with("Sort") || node.op.starts_with("TopK") {
            self.sort_ns += own;
        }
        for child in &node.children {
            self.add(child);
        }
    }
}

/// The twin and its helpers: where stage replays run.
struct Twin {
    app: CourseRank,
    principal: Principal,
    /// Statement texts the server's flow-decision memo holds, mirrored:
    /// the memo clears itself when it reaches 1,024 texts.
    memo_texts: HashSet<String>,
    /// Scratch WAL (no fsync) for the append span; durable runs only.
    wal: Option<(Wal, ScratchDir)>,
    grades_ready: bool,
    /// The published cut, mirroring the server's cached read view.
    view: Option<CourseRank>,
    /// Registry counter read around a call to tell a computed
    /// recommendation from a cached one.
    rec_misses: Arc<cr_obs::Counter>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn median_us(d: &BTreeMap<&'static str, Vec<u64>>, name: &str) -> f64 {
    d.get(name).and_then(|v| percentile(v, 0.5)).map_or(0.0, us)
}

impl Twin {
    fn new(cfg: &RunConfig) -> BenchResult<Self> {
        let (db, _) = cr_datagen::generate(&cfg.scale).map_err(err("generate twin"))?;
        let app = CourseRank::assemble(db).map_err(err("assemble twin"))?;
        // Reading the campus facts searches every term once: do to the
        // twin what set-up did to the server, so both start equally warm.
        campus_facts(&app)?;
        let wal = if cfg.workload.durable() {
            let dir = ScratchDir::new("wal")?;
            let backend = Arc::new(FsBackend::open(dir.path()).map_err(err("scratch wal"))?);
            let wal = Wal::new(
                backend,
                0,
                0,
                WalConfig {
                    fsync: FsyncPolicy::Never,
                    group_commit: 1,
                },
            );
            Some((wal, dir))
        } else {
            None
        };
        // The grades basis cannot run on a read view (it rebuilds its
        // derived table on a miss), so no workload sends it; its
        // FlexRecs plan is still timed, on the live twin.
        let grades_ready =
            cfg.workload == Workload::AnalyticsRecs && app.recs().ensure_grade_points().is_ok();
        Ok(Twin {
            app,
            principal: Principal::parse(&cfg.workload.principal(0))
                .ok_or("unparseable principal")?,
            memo_texts: HashSet::new(),
            wal,
            grades_ready,
            view: None,
            rec_misses: Registry::global().counter("courserank.reccache.misses"),
        })
    }

    /// Whether the server's memo will miss on `text`, and remember it.
    fn memo_miss(&mut self, text: &str) -> bool {
        if self.memo_texts.contains(text) {
            return false;
        }
        if self.memo_texts.len() >= 1024 {
            self.memo_texts.clear();
        }
        self.memo_texts.insert(text.to_owned());
        true
    }

    fn wal_append(
        &mut self,
        tr: &mut Tracer,
        replay: &mut Replay,
        table: &str,
        row: &[cr_relation::Value],
    ) {
        if let Some((wal, _)) = &mut self.wal {
            let rec = WalRecord::Insert {
                table: table.to_owned(),
                rid: replay.wal_records,
                row: row.to_vec(),
            };
            replay.wal_records += 1;
            let _ = tr.time("storage.wal.append", || wal.append(&rec));
        }
    }
}

/// Take one SQL read apart on `view`. Returns the modelled stage time
/// of the server's path for it and the execution time.
fn sql_stages(
    tr: &mut Tracer,
    twin: &mut Twin,
    view: &CourseRank,
    op: &Op,
    text: &str,
    replay: &mut Replay,
) -> BenchResult<(u64, u64)> {
    let db = view.db().database();
    let catalog = view.db().catalog();
    let (stmts, parse) = tr.time("relation.sql.parse", || sql::parse(text));
    let stmts = stmts.map_err(err("parse"))?;
    let [Statement::Select(select)] = stmts.as_slice() else {
        return Err(format!("not a single SELECT: {text}"));
    };
    let (bound, bind) = tr.time("relation.sql.bind", || {
        binder::bind_select(select, &catalog)
    });
    let bound = bound.map_err(err("bind"))?;
    let _ = tr.time("relation.plan.validate", || {
        cr_relation::plan::analyze(&bound, Some(&catalog))
    });
    let (plan, optimize) = tr.time("relation.plan.optimize", || optimizer::optimize(bound));
    let (_, flow) = tr.time("relation.plan.flow", || {
        db.check_disclosure(&plan, &twin.principal)
    });
    // The memoized gate on a text it has seen: store, then time the hit.
    let _ = check_disclosure_sql(text, &catalog, &twin.principal);
    let (_, memo) = tr.time("relation.plan.flow_memo", || {
        check_disclosure_sql(text, &catalog, &twin.principal)
    });
    let exec_name = if matches!(op, Op::Analytic { .. }) {
        "relation.exec.join_agg"
    } else {
        "relation.exec.point"
    };
    let opts = db.exec_options();
    let (rows, run) = tr.time(exec_name, || exec::execute_with(&plan, &catalog, &opts));
    replay
        .rows_out
        .push(rows.map_err(err("execute"))?.rows.len() as u64);
    if matches!(op, Op::Analytic { .. }) {
        // Once more with per-operator profiling, for the operator shares.
        let (profiled, _) = tr.time("relation.exec.profiled", || {
            exec::execute_instrumented_with(&plan, &catalog, &opts)
        });
        let (_, profile) = profiled.map_err(err("profiled execute"))?;
        replay.ops.total_ns += profile.elapsed.as_nanos() as u64;
        replay.ops.add(&profile);
    }
    // The server plans a fresh text twice (once for the disclosure
    // check, once to execute); a memoized text once.
    let compile = parse + bind + optimize;
    let modelled = if twin.memo_miss(text) {
        2 * compile + flow + run
    } else {
        memo + compile + run
    };
    Ok((modelled, run))
}

fn rec_options(basis: SimilarityBasis) -> RecOptions {
    // What the server builds for `Recommend { limit: 5, .. }`.
    RecOptions {
        basis,
        k_courses: 5,
        ..RecOptions::default()
    }
}

/// What the server's dispatch of one request did, as seen from outside.
struct Dispatched<'a> {
    resp: &'a Response,
    ns: u64,
    /// The registry says the shared read view was republished.
    republished: bool,
    /// The registry says a recommendation was computed, not served
    /// from the cache.
    rec_missed: bool,
}

/// Replay one request's stages on the twin.
fn stages(
    tr: &mut Tracer,
    twin: &mut Twin,
    server: &Server,
    op: &Op,
    req: &Request,
    dispatched: &Dispatched,
    replay: &mut Replay,
) -> BenchResult<()> {
    let &Dispatched {
        resp,
        ns: dispatch_ns,
        republished,
        rec_missed: server_missed,
    } = dispatched;
    let stages = tr.begin("stages");
    let class = req.class();
    let (_, admit) = tr.time("server.admission.admit", || {
        drop(server.admission().admit(class))
    });
    let _ = tr.time("relation.catalog.snapshot", || {
        twin.app.db().database().snapshot()
    });
    // The twin publishes a new cut exactly when the server did, and
    // keeps it until the next one: its writers then copy-on-write as
    // the server's do, and replacing the cut frees the old table
    // images inside the span, as it does inside the server's read.
    let mut pin = 0;
    if republished || twin.view.is_none() {
        let app = &twin.app;
        let held = &mut twin.view;
        (_, pin) = tr.time("server.snapshot.pin", || {
            let (fresh, _cut) = app.read_view();
            drop(held.replace(fresh));
        });
    }
    let view = twin.view.clone().ok_or("twin has no view")?;
    let overhead = admit + pin;
    let mut modelled = None;
    match (op, req) {
        (_, Request::SqlRead { query }) => {
            let (stage_ns, run) = sql_stages(tr, twin, &view, op, query, replay)?;
            replay.sql.add(overhead + stage_ns, dispatch_ns);
            replay.exec_ns += run;
            modelled = Some(overhead + stage_ns);
        }
        (_, Request::Search { query, refine, .. }) => {
            let (found, whole) = tr.time("core.search", || {
                view.search()
                    .search_with_cloud(query, refine.as_deref(), 10)
            });
            found.map_err(err("search"))?;
            let engine = view.search().engine();
            let (results, _) = tr.time("textsearch.query", || {
                let mut q = engine.parse_query(query);
                if let Some(term) = refine {
                    q = q.refine(term);
                }
                engine.search(&q, 10)
            });
            replay.hits.push(results.total as u64);
            let _ = tr.time("textsearch.cloud", || {
                engine.cloud(&results, &CloudConfig::default())
            });
            replay.search.add(overhead + whole, dispatch_ns);
            modelled = Some(overhead + whole);
        }
        (Op::Recommend { student, basis }, _) => {
            let basis = if basis.is_some() {
                SimilarityBasis::CoursesTaken
            } else {
                SimilarityBasis::Ratings
            };
            let opts = rec_options(basis);
            let misses_before = twin.rec_misses.get();
            let id = tr.begin("core.recs");
            view.recs()
                .recommend_courses(*student, &opts)
                .map_err(err("recommend"))?;
            let missed = twin.rec_misses.get() > misses_before;
            let whole = tr.end_as(
                id,
                if missed {
                    "core.recs.miss"
                } else {
                    "core.recs.hit"
                },
            );
            if missed != server_missed {
                replay.mirror_mismatches += 1;
            }
            replay.rec.add(overhead + whole, dispatch_ns);
            modelled = Some(overhead + whole);
            if missed {
                replay.rec_misses_seen += 1;
                if replay.rec_misses_seen % FLEXRECS_SAMPLE == 1 {
                    flexrecs_stages(tr, twin, &view, *student, basis)?;
                }
            }
        }
        (Op::Page { course }, _) => {
            let (page, _) = tr.time("core.page", || view.course_page(*course));
            page.map_err(err("page"))?;
        }
        (Op::Plan { student }, _) => {
            let (plan, _) = tr.time("core.planner", || view.planner().report(*student));
            plan.map_err(err("plan"))?;
        }
        (
            Op::AddComment {
                student,
                course,
                term,
                rating,
            },
            Request::AddComment { year, text, .. },
        ) => {
            // Mirror the write under the id the server allocated.
            if let Response::CommentAdded { id } = resp {
                let comment = Comment {
                    id: *id,
                    student: *student,
                    course: *course,
                    quarter: Quarter::new(*year as i32, Term::parse(term).ok_or("term")?),
                    text: text.clone(),
                    rating: *rating,
                    date: 0,
                };
                let (done, _) = tr.time("core.comments.insert", || {
                    twin.app.db().insert_comment(&comment)
                });
                done.map_err(err("twin comment"))?;
                let logged = row![
                    *id,
                    *student,
                    *course,
                    *year,
                    *term,
                    text.as_str(),
                    *rating,
                    0i64
                ];
                twin.wal_append(tr, replay, "Comments", &logged);
            }
        }
        (
            Op::Vote {
                comment,
                voter,
                helpful,
            },
            _,
        ) => {
            let logged = row![*comment, *voter, *helpful];
            let (done, _) = tr.time("relation.insert", || {
                twin.app
                    .db()
                    .database()
                    .insert("CommentVotes", logged.clone())
            });
            done.map_err(err("twin vote"))?;
            twin.wal_append(tr, replay, "CommentVotes", &logged);
        }
        (
            Op::Enroll {
                student,
                course,
                term,
            },
            Request::Enroll { year, .. },
        ) => {
            let enrollment = Enrollment {
                student: *student,
                course: *course,
                quarter: Quarter::new(*year as i32, Term::parse(term).ok_or("term")?),
                grade: None,
                status: EnrollStatus::Planned,
            };
            let (done, _) = tr.time("core.enroll.insert", || {
                twin.app.db().insert_enrollment(&enrollment)
            });
            done.map_err(err("twin enroll"))?;
        }
        _ => {} // Counts, Checkpoint: nothing below dispatch to take apart
    }
    if let Some(m) = modelled {
        replay.dispatch_self_ns.push(dispatch_ns.saturating_sub(m));
    }
    tr.end(stages);
    Ok(())
}

/// Compile and run the FlexRecs workflow behind one recommendation.
fn flexrecs_stages(
    tr: &mut Tracer,
    twin: &Twin,
    view: &CourseRank,
    student: i64,
    basis: SimilarityBasis,
) -> BenchResult<()> {
    let run_name = match basis {
        SimilarityBasis::Ratings => "flexrecs.run.ratings",
        SimilarityBasis::CoursesTaken => "flexrecs.run.taken",
        SimilarityBasis::Grades => "flexrecs.run.grades",
    };
    // Grades run on the live twin: a view cannot hold their table.
    let app = if basis == SimilarityBasis::Grades {
        &twin.app
    } else {
        view
    };
    let workflow = app.recs().course_workflow(student, &rec_options(basis));
    let catalog = app.db().catalog();
    let (plan, _) = tr.time("flexrecs.compile", || {
        cr_flexrecs::compile::compile(&workflow, &catalog)
    });
    let plan = plan.map_err(err("flexrecs compile"))?;
    let (ran, _) = tr.time(run_name, || app.db().database().run_plan(&plan));
    ran.map_err(err("flexrecs run"))?;
    if basis == SimilarityBasis::Ratings && twin.grades_ready {
        flexrecs_stages(tr, twin, view, student, SimilarityBasis::Grades)?;
    }
    Ok(())
}

/// Latencies of the plain phase, split by collection state and kind.
#[derive(Default)]
struct Plain {
    on: HashMap<&'static str, Vec<u64>>,
    off: HashMap<&'static str, Vec<u64>>,
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
    ping_ns: Vec<u64>,
    /// Requests and wall time of the collection-on blocks.
    on_ops: u64,
    on_wall_ns: u64,
}

impl Plain {
    /// `1 − rate(on) ÷ rate(off)` and the standard error of that
    /// figure. Each kind's cost is taken as its median, so one slow
    /// request cannot decide it; the error of a median is estimated
    /// from the kind's quartile distance (`1.2533 σ/√n`, `σ ≈ IQR/1.349`),
    /// so a kind with few samples or two modes widens the error instead
    /// of moving the gate. The per-kind vectors must be sorted.
    fn overhead_share(&self) -> (f64, f64) {
        let (mut t_on, mut t_off, mut var) = (0.0, 0.0, 0.0);
        for (kind, on) in &self.on {
            let Some(off) = self.off.get(kind) else {
                continue;
            };
            let n = (on.len() + off.len()) as f64;
            for (side, total) in [(on, &mut t_on), (off, &mut t_off)] {
                let at = |p: f64| percentile(side, p).unwrap_or(0) as f64;
                *total += n * at(0.5);
                let se = 0.929 * (at(0.75) - at(0.25)) / (side.len() as f64).sqrt();
                var += (n * se).powi(2);
            }
        }
        if t_on > 0.0 {
            (1.0 - t_off / t_on, var.sqrt() / t_on)
        } else {
            (0.0, 0.0)
        }
    }
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    after.counter(name).unwrap_or(0) as f64 - before.counter(name).unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Bytes of the newest snapshot file in a store directory.
fn snapshot_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().contains("snap"))
                .filter_map(|e| {
                    let meta = e.metadata().ok()?;
                    Some((meta.modified().ok()?, meta.len()))
                })
                .max()
                .map_or(0, |(_, len)| len)
        })
        .unwrap_or(0)
}

/// Where a traced run leaves its spans: beside the executable, inside
/// the build output, one file per workload.
fn spans_path(workload: Workload) -> BenchResult<PathBuf> {
    let exe = std::env::current_exe().map_err(err("current_exe"))?;
    let dir = exe.parent().unwrap_or(Path::new("."));
    Ok(dir.join(format!("crbench-spans-{}.jsonl", workload.name())))
}

/// The traced run: the report, and the budgets it found broken.
pub fn run_traced(cfg: &RunConfig) -> BenchResult<(Report, Vec<String>)> {
    let Served { server, dir, times } = serve(cfg.workload, &cfg.scale)?;
    let campus = campus_facts(server.app())?;
    let oracle = Oracle::build(server.app(), &campus)?;
    let mut twin = Twin::new(cfg)?;
    let live = server.app().db().database();
    let writes = cfg.workload.writes();
    let mut notes = vec![format!(
        "{}: traced run, 1 client, seed {}; spans recorded from outside the product crates",
        cfg.workload.name(),
        cfg.seed
    )];

    // One generator, one client state: the plain phase continues the
    // stream where the traced phase stopped. The stream is client 0's
    // of a `cfg.clients`-client run, the one the end-to-end run sends.
    let mut gen = OpGen::new(cfg.workload, cfg.seed, 0, TRACED_CHECKPOINT_EVERY, &campus);
    let mut state = ClientState::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_failure: Option<String> = None;
    let mut judge = |op: &Op, req: &Request, resp: &Response, state: &mut ClientState| -> bool {
        attempted += 1;
        let query = match req {
            Request::SqlRead { query } => Some(query.as_str()),
            _ => None,
        };
        match check(op, resp, state, &oracle, writes, query, live) {
            Ok(()) => true,
            Err(why) => {
                failed += 1;
                first_failure.get_or_insert_with(|| format!("{}: {why}", op.kind()));
                false
            }
        }
    };

    // ---- Phase 1: traced replay, collection on ----------------------
    let registry = cr_obs::install();
    // Read around single calls: did this dispatch republish the read
    // view, did it compute a recommendation?
    let republished = registry.counter("server.snapshot.republished");
    let rec_misses = Arc::clone(&twin.rec_misses);
    let before = Registry::global().snapshot();
    let session = server.sessions().open(
        "crbench",
        "crbench-traced",
        Principal::parse(&cfg.workload.principal(0)).ok_or("unparseable principal")?,
    );
    let mut tr = Tracer::new();
    let mut replay = Replay::default();
    let mut frame = Vec::new();
    let traced_for = Duration::from_secs_f64(cfg.seconds * 0.6);
    let phase = Instant::now();
    while phase.elapsed() < traced_for && replay.requests < MAX_TRACED {
        let op = gen.next_op(&campus);
        let req = request(&op, &campus, state.last_comment());
        tr.req = replay.requests as u32;
        replay.requests += 1;
        let root = tr.begin("request");
        let (decoded, req_codec) = tr.time("server.codec.req", || {
            frame.clear();
            write_frame(&mut frame, &req)?;
            read_frame::<_, Request>(&mut frame.as_slice())
        });
        decoded.map_err(err("request codec"))?;
        let republished_before = republished.get();
        let misses_before = rec_misses.get();
        let dispatch_span = if op == Op::Checkpoint {
            "storage.checkpoint"
        } else {
            "server.dispatch"
        };
        let (resp, dispatch_ns) = tr.time(dispatch_span, || server.dispatch(session, &req));
        let dispatched = Dispatched {
            resp: &resp,
            ns: dispatch_ns,
            republished: republished.get() > republished_before,
            rec_missed: rec_misses.get() > misses_before,
        };
        let (decoded, resp_codec) = tr.time("server.codec.resp", || {
            frame.clear();
            write_frame(&mut frame, &resp)?;
            read_frame::<_, Response>(&mut frame.as_slice())
        });
        decoded.map_err(err("response codec"))?;
        replay.resp_bytes.push(frame.len() as u64);
        replay.served_ns += req_codec + dispatch_ns + resp_codec;
        if judge(&op, &req, &resp, &mut state) {
            stages(
                &mut tr,
                &mut twin,
                &server,
                &op,
                &req,
                &dispatched,
                &mut replay,
            )?;
        }
        tr.end(root);
    }
    server.sessions().close(session);
    let after = Registry::global().snapshot();
    let snapshot_file_bytes = dir.as_ref().map_or(0, |d| snapshot_bytes(d.path()));
    let store_bytes = dir.as_ref().map_or(0, ScratchDir::bytes);

    // ---- Phase 2: plain replay over the pipe, collection on/off -----
    let (local, remote) = transport::pipe();
    let serving = std::thread::spawn({
        let server = Arc::clone(&server);
        move || server.handle_conn(remote)
    });
    let mut client = Client::handshake_as(local, "crbench-plain", &cfg.workload.principal(0))
        .map_err(err("handshake"))?;
    let mut plain = Plain::default();
    cr_obs::disable();
    for _ in 0..2_000 {
        let t = Instant::now();
        client.ping().map_err(err("ping"))?;
        plain.ping_ns.push(t.elapsed().as_nanos() as u64);
    }
    // The plain phase gets what the traced one left of the window.
    let plain_for = Duration::from_secs_f64(cfg.seconds).saturating_sub(phase.elapsed());
    let phase = Instant::now();
    let mut sent = 0u64;
    while phase.elapsed() < plain_for {
        let collecting = (sent / BLOCK).is_multiple_of(2);
        if collecting {
            cr_obs::enable();
        } else {
            cr_obs::disable();
        }
        sent += 1;
        let op = gen.next_op(&campus);
        let req = request(&op, &campus, state.last_comment());
        let t = Instant::now();
        let resp = client.call(&req).map_err(err("call"))?;
        let ns = t.elapsed().as_nanos() as u64;
        judge(&op, &req, &resp, &mut state);
        let side = if collecting {
            plain.on_ops += 1;
            plain.on_wall_ns += ns;
            &mut plain.on
        } else {
            &mut plain.off
        };
        // A cached recommendation and a computed one are two kinds here:
        // three orders of magnitude apart, they would make one median
        // jump between the modes.
        let kind = match op {
            Op::Recommend { .. } if ns < 1_000_000 => "rec_cached",
            _ => op.kind(),
        };
        side.entry(kind).or_default().push(ns);
        match req.class() {
            RequestClass::Read => plain.read_ns.push(ns),
            RequestClass::Write => plain.write_ns.push(ns),
            RequestClass::Admin => {}
        }
    }
    cr_obs::disable();
    client.goodbye().map_err(err("goodbye"))?;
    serving
        .join()
        .map_err(|_| "server connection thread panicked".to_owned())?;

    // ---- Durable: crash, reopen, count what recovery did -------------
    let (mut recover_ms, mut replayed) = (0.0, 0.0);
    if let Some(dir) = dir {
        drop(server);
        let crash = crash_check(&dir, &state.acked)?;
        recover_ms = crash.recover_s * 1e3;
        replayed = crash.replayed_records as f64;
        attempted += 1;
        if crash.lost > 0 {
            failed += 1;
            first_failure.get_or_insert_with(|| {
                format!("{} acknowledged comments lost after reopen", crash.lost)
            });
        }
        notes.push(crash.note);
    }

    // ---- Metrics -------------------------------------------------------
    let d = tr.durations();
    for v in [
        &mut plain.read_ns,
        &mut plain.write_ns,
        &mut plain.ping_ns,
        &mut replay.resp_bytes,
        &mut replay.dispatch_self_ns,
    ] {
        v.sort_unstable();
    }
    for v in plain.on.values_mut().chain(plain.off.values_mut()) {
        v.sort_unstable();
    }
    let (collect_overhead, collect_error) = plain.overhead_share();
    // Percentiles of the (now sorted) vectors.
    let pct_ms = |v: &[u64], p: f64| percentile(v, p).map_or(0.0, |ns| ns as f64 / 1e6);
    let median_of = |v: &[u64]| percentile(v, 0.5).unwrap_or(0) as f64;
    let mean_of = |v: &[u64]| ratio(v.iter().sum::<u64>() as f64, v.len() as f64);
    let delta = |name: &str| counter_delta(&before, &after, name);
    let op_share = |ns: u64| ratio(ns as f64, replay.ops.total_ns as f64);
    let scans = delta("relation.scan.seq_scan")
        + delta("relation.scan.pk_lookup")
        + delta("relation.scan.index_eq")
        + delta("relation.scan.index_range");
    let rec_lookups = delta("courserank.reccache.hits") + delta("courserank.reccache.misses");
    let cloud_lookups = delta("courserank.cloudcache.hits") + delta("courserank.cloudcache.misses");
    let rec_touched = delta("courserank.reccache.spared")
        + delta("courserank.reccache.delta_applied")
        + delta("courserank.reccache.invalidations");
    let wal_appends = delta("storage.wal.appends");
    let ping_us = us(percentile(&plain.ping_ns, 0.5).unwrap_or(0));
    // What a plain client would have seen for the traced requests:
    // codec + dispatch + one wire round trip each.
    let traced_equiv_ops = ratio(
        replay.requests as f64,
        (replay.served_ns as f64 + replay.requests as f64 * ping_us * 1e3) / 1e9,
    );
    let plain_on_ops = ratio(plain.on_ops as f64, plain.on_wall_ns as f64 / 1e9);
    let plain_ops = ratio(
        (plain.read_ns.len() + plain.write_ns.len()) as f64,
        (plain.read_ns.iter().sum::<u64>() + plain.write_ns.iter().sum::<u64>()) as f64 / 1e9,
    );

    let values: Vec<(&str, f64)> = vec![
        ("server.wire.ping_us", ping_us),
        ("server.codec.req_us", median_us(&d, "server.codec.req")),
        ("server.codec.resp_us", median_us(&d, "server.codec.resp")),
        ("server.codec.resp_bytes", median_of(&replay.resp_bytes)),
        (
            "server.admission.admit_us",
            median_us(&d, "server.admission.admit"),
        ),
        (
            "server.snapshot.pin_us",
            median_us(&d, "server.snapshot.pin"),
        ),
        (
            "server.snapshot.republished_per_kop",
            1000.0 * ratio(delta("server.snapshot.republished"), replay.requests as f64),
        ),
        (
            "server.snapshot.delta_batch_p50",
            after
                .histogram("server.snapshot.delta_batch")
                .map_or(0.0, |h| h.p50 as f64),
        ),
        (
            "server.dispatch.self_us",
            us(median_of(&replay.dispatch_self_ns) as u64),
        ),
        ("server.shed", delta("server.shed")),
        ("server.errors", delta("server.errors")),
        ("server.read.p99_ms", pct_ms(&plain.read_ns, 0.99)),
        ("server.write.p50_ms", pct_ms(&plain.write_ns, 0.5)),
        ("server.write.p90_ms", pct_ms(&plain.write_ns, 0.9)),
        ("server.write.p99_ms", pct_ms(&plain.write_ns, 0.99)),
        ("server.plain.ops_per_s", plain_ops),
        ("relation.sql.parse_us", median_us(&d, "relation.sql.parse")),
        ("relation.sql.bind_us", median_us(&d, "relation.sql.bind")),
        (
            "relation.plan.validate_us",
            median_us(&d, "relation.plan.validate"),
        ),
        ("relation.plan.flow_us", median_us(&d, "relation.plan.flow")),
        (
            "relation.plan.flow_memo_us",
            median_us(&d, "relation.plan.flow_memo"),
        ),
        (
            "relation.plan.optimize_us",
            median_us(&d, "relation.plan.optimize"),
        ),
        (
            "relation.exec.point_us",
            median_us(&d, "relation.exec.point"),
        ),
        (
            "relation.exec.join_agg_us",
            median_us(&d, "relation.exec.join_agg"),
        ),
        ("relation.exec.rows_out_per_op", mean_of(&replay.rows_out)),
        (
            "relation.exec.dispatch_share",
            ratio(replay.exec_ns as f64, replay.sql.dispatch_ns as f64),
        ),
        (
            "relation.scan.seq_share",
            ratio(delta("relation.scan.seq_scan"), scans),
        ),
        ("relation.op.scan_share", op_share(replay.ops.scan_ns)),
        ("relation.op.join_share", op_share(replay.ops.join_ns)),
        (
            "relation.op.aggregate_share",
            op_share(replay.ops.aggregate_ns),
        ),
        ("relation.op.sort_share", op_share(replay.ops.sort_ns)),
        (
            "relation.catalog.snapshot_us",
            median_us(&d, "relation.catalog.snapshot"),
        ),
        ("relation.insert_us", median_us(&d, "relation.insert")),
        ("flexrecs.compile_us", median_us(&d, "flexrecs.compile")),
        (
            "flexrecs.run.ratings_us",
            median_us(&d, "flexrecs.run.ratings"),
        ),
        ("flexrecs.run.taken_us", median_us(&d, "flexrecs.run.taken")),
        (
            "flexrecs.run.grades_us",
            median_us(&d, "flexrecs.run.grades"),
        ),
        ("textsearch.query_us", median_us(&d, "textsearch.query")),
        ("textsearch.cloud_us", median_us(&d, "textsearch.cloud")),
        ("textsearch.hits_per_query", mean_of(&replay.hits)),
        ("core.search.us", median_us(&d, "core.search")),
        ("core.page.us", median_us(&d, "core.page")),
        ("core.planner.us", median_us(&d, "core.planner")),
        ("core.recs.miss_us", median_us(&d, "core.recs.miss")),
        ("core.recs.hit_us", median_us(&d, "core.recs.hit")),
        (
            "core.comments.insert_us",
            median_us(&d, "core.comments.insert"),
        ),
        (
            "core.reccache.hit_rate",
            ratio(delta("courserank.reccache.hits"), rec_lookups),
        ),
        (
            "core.cloudcache.hit_rate",
            ratio(delta("courserank.cloudcache.hits"), cloud_lookups),
        ),
        (
            "core.reccache.spared_share",
            ratio(delta("courserank.reccache.spared"), rec_touched),
        ),
        (
            "core.reccache.evictions",
            delta("courserank.reccache.evictions"),
        ),
        ("storage.wal.append_us", median_us(&d, "storage.wal.append")),
        (
            "storage.wal.fsync_us_p50",
            after
                .histogram("storage.wal.fsync_ns")
                .map_or(0.0, |h| us(h.p50)),
        ),
        (
            "storage.wal.bytes_per_write",
            ratio(delta("storage.wal.bytes"), wal_appends),
        ),
        (
            "storage.wal.fsyncs_per_write",
            ratio(delta("storage.wal.fsyncs"), wal_appends),
        ),
        (
            "storage.checkpoint.ms",
            median_us(&d, "storage.checkpoint") / 1e3,
        ),
        ("storage.snapshot.bytes", snapshot_file_bytes as f64),
        ("storage.recover.ms", recover_ms),
        ("storage.recover.replayed_records", replayed),
        (
            "storage.space.amplification",
            ratio(store_bytes as f64, snapshot_file_bytes as f64),
        ),
        ("datagen.generate_s", times.generate_s),
        ("core.assemble_s", times.assemble_s),
        ("obs.collect.overhead_share", collect_overhead),
        ("trace.reconcile.sql_ratio", replay.sql.ratio()),
        ("trace.reconcile.search_ratio", replay.search.ratio()),
        ("trace.reconcile.rec_ratio", replay.rec.ratio()),
        (
            "trace.vs_plain.ops_ratio",
            ratio(traced_equiv_ops, plain_on_ops),
        ),
    ];

    notes.push(format!(
        "{} requests traced in {} spans; {} plain requests ({} collecting)",
        replay.requests,
        tr.spans.len(),
        sent,
        plain.on_ops
    ));
    notes.push(format!(
        "tracing overhead: codec + dispatch + wire of the traced requests give {traced_equiv_ops:.1} ops/s \
         against {plain_on_ops:.1} ops/s of the plain client with collection on"
    ));
    let mut kinds: Vec<_> = plain.off.keys().copied().collect();
    kinds.sort_unstable();
    let per_kind: Vec<String> = kinds
        .iter()
        .map(|k| {
            let med = |side: &HashMap<&'static str, Vec<u64>>| {
                side.get(k).map_or(0.0, |v| median_of(v) / 1e6)
            };
            format!("{k} {:.3}/{:.3}", med(&plain.off), med(&plain.on))
        })
        .collect();
    notes.push(format!(
        "plain client, median ms per kind with collection off/on: {}",
        per_kind.join(", ")
    ));
    if replay.mirror_mismatches > 0 {
        notes.push(format!(
            "twin and server disagreed on hit vs miss for {} recommendations",
            replay.mirror_mismatches
        ));
    }
    // A kind is held to the reconciliation band where it carries at
    // least a tenth of the dispatch time: a 0.1 ms statement between
    // 10 ms searches is dispatched on cold caches and replayed on warm
    // ones, and its ratio says more about the caches than the model.
    let dispatched_ns = d
        .get("server.dispatch")
        .map_or(0, |v| v.iter().sum::<u64>());
    let mut gate_failures = Vec::new();
    for (name, kind) in [
        ("sql", &replay.sql),
        ("search", &replay.search),
        ("rec", &replay.rec),
    ] {
        let (r, share) = (
            kind.ratio(),
            ratio(kind.dispatch_ns as f64, dispatched_ns as f64),
        );
        if share >= 0.1 && !(RECONCILE_BAND.0..=RECONCILE_BAND.1).contains(&r) {
            gate_failures.push(format!(
                "trace.reconcile.{name}_ratio {r:.3} outside {}–{} ({:.0}% of dispatch time)",
                RECONCILE_BAND.0,
                RECONCILE_BAND.1,
                100.0 * share
            ));
        }
    }
    notes.push(format!(
        "collection overhead {collect_overhead:.4} ± {collect_error:.4} (standard error) of throughput"
    ));
    // Over budget by more than the measurement can be wrong.
    if collect_overhead - 2.0 * collect_error > COLLECT_BUDGET {
        gate_failures.push(format!(
            "obs.collect.overhead_share {collect_overhead:.3} ± {collect_error:.3} over the \
             {COLLECT_BUDGET} budget"
        ));
    }
    let path = spans_path(cfg.workload)?;
    tr.write_json_lines(&path).map_err(err("write spans"))?;
    notes.push(format!(
        "{} spans written to {}",
        tr.spans.len(),
        path.display()
    ));

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            (*name, value, *unit)
        })
        .collect();
    let report = Report {
        metrics,
        attempted,
        failed,
        first_failure,
        notes,
    };
    Ok((report, gate_failures))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_report_their_parents() {
        let mut tr = Tracer::new();
        tr.req = 7;
        let root = tr.begin("request");
        let (x, inner) = tr.time("leaf", || 41 + 1);
        assert_eq!(x, 42);
        let renamed = tr.begin("core.recs");
        tr.end_as(renamed, "core.recs.hit");
        let whole = tr.end(root);
        assert!(whole >= inner);
        let names: Vec<_> = tr.spans.iter().map(|s| (s.name, s.parent, s.req)).collect();
        assert_eq!(
            names,
            vec![
                ("request", NO_PARENT, 7),
                ("leaf", 0, 7),
                ("core.recs.hit", 0, 7)
            ]
        );
        assert!(tr.open.is_empty());
        assert_eq!(tr.durations()["leaf"].len(), 1);
    }

    #[test]
    fn reconcile_ratio_and_overhead_share() {
        let mut r = Reconcile::default();
        assert_eq!(r.ratio(), 0.0);
        r.add(90, 100);
        r.add(110, 100);
        assert_eq!(r.ratio(), 1.0);

        let mut p = Plain::default();
        p.on.insert("page", vec![105, 105, 105]);
        p.off.insert("page", vec![100, 100, 100]);
        p.on.insert("only_on", vec![1_000_000]);
        let (share, error) = p.overhead_share();
        assert!((share - (1.0 - 100.0 / 105.0)).abs() < 1e-9, "{share}");
        assert_eq!(error, 0.0);
        // Two modes in one kind: the figure is worthless and says so.
        p.on.insert("rec", vec![100, 100, 30_000, 30_000, 30_000]);
        p.off.insert("rec", vec![100, 100, 100, 30_000, 30_000]);
        let (share, error) = p.overhead_share();
        assert!(share > 0.9 && error > 0.3, "{share} ± {error}");
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let declared = include_str!("../../../../BENCHMARK.json");
        let per_layer = &declared[declared.find("\"per_layer\"").expect("per_layer")..];
        let mut names = HashSet::new();
        for (name, unit, better) in PER_LAYER {
            assert!(names.insert(name), "{name} twice");
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }
}
