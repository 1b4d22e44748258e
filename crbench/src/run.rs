//! The end-to-end run: closed-loop clients over the in-process pipe,
//! tracing off, every reply checked.
//!
//! A run is a **fixed number of requests** per client, not a time
//! window: `--seconds` picks the count (see [`Workload::rounds`]), so
//! two runs with one seed send the identical sequence and do the
//! identical work. Every reported figure is taken over **all** measured
//! requests — throughput is requests over wall time, the percentiles
//! are those of the pooled `Client::call` times — so a cost that falls
//! on a few requests only (a checkpoint, the table copy after it, an
//! fsync stall) still moves the gated numbers.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cr_server::client::Client;
use cr_server::protocol::{Request, RequestClass};
use cr_server::{transport, Server};

use crbench::check::{check, ClientState};
use crbench::cli::{Report, RunConfig};
use crbench::setup::{
    campus_facts, crash_check, err, serve, BenchResult, Oracle, Served, SetupTimes,
};
use crbench::stats::{band_margin, bands, median, percentile, rss_peak_mb, Band};
use crbench::stream::{request, stream_hash, Campus, Op, OpGen, CHECKPOINT_EVERY};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests of each client's stream that the printed hash covers.
const HASH_PREFIX: usize = 1_000;
/// A client that has not finished its count after this many times the
/// sized window stops at the next round boundary, so a run on a program
/// several times slower still ends inside the driver's time limit.
const OVERRUN: f64 = 4.0;
/// A recommendation answered faster than this came from the cache (a
/// computed one costs 10 ms and more, a cached one 0.05 ms).
const REC_HIT_BELOW_NS: u64 = 1_000_000;

/// One measured request, as the client thread saw it.
struct Sample {
    kind: &'static str,
    class: RequestClass,
    ns: u64,
}

impl Sample {
    fn is_rec(&self) -> bool {
        self.kind.starts_with("rec_")
    }

    fn is_cached_rec(&self) -> bool {
        self.is_rec() && self.ns < REC_HIT_BELOW_NS
    }
}

/// What one client measured, between the barrier and its last request.
#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    /// Just before the first and just after the last measured request.
    began: Option<Instant>,
    ended: Option<Instant>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    acked: Vec<i64>,
    /// Stopped early by [`OVERRUN`].
    cut_short: bool,
}

/// One connection and its stream: derive request *i*, send it, wait for
/// the reply, check it.
struct Loop<'a> {
    client: Client<transport::PipeConn>,
    gen: OpGen,
    state: ClientState,
    cfg: &'a RunConfig,
    campus: &'a Campus,
    oracle: &'a Oracle,
    server: &'a Server,
    out: ClientRun,
}

impl Loop<'_> {
    /// Send `rounds` whole rounds; keep the samples when `measure`.
    fn rounds(&mut self, rounds: u64, measure: bool, give_up: Instant) -> BenchResult<()> {
        let live = self.server.app().db().database();
        let writes = self.cfg.workload.writes();
        let round_len = self.cfg.workload.round_len();
        for _ in 0..rounds {
            if Instant::now() >= give_up {
                self.out.cut_short = true;
                break;
            }
            // Checkpoints ride on top of the round: they fill no slot.
            let mut slots = 0;
            while slots < round_len {
                let op = self.gen.next_op(self.campus);
                if op != Op::Checkpoint {
                    slots += 1;
                }
                let req = request(&op, self.campus, self.state.last_comment());
                let sent = Instant::now();
                let resp = self.client.call(&req).map_err(err("call"))?;
                let ns = sent.elapsed().as_nanos() as u64;
                self.out.attempted += 1;
                let query = match &req {
                    Request::SqlRead { query } => Some(query.as_str()),
                    _ => None,
                };
                let checked = check(
                    &op,
                    &resp,
                    &mut self.state,
                    self.oracle,
                    writes,
                    query,
                    live,
                );
                if let Err(why) = checked {
                    self.out.failed += 1;
                    self.out
                        .first_failure
                        .get_or_insert_with(|| format!("{}: {why}", op.kind()));
                }
                if measure {
                    self.out.samples.push(Sample {
                        kind: op.kind(),
                        class: req.class(),
                        ns,
                    });
                }
            }
        }
        Ok(())
    }
}

/// The closed loop of one client: warm-up rounds (same stream, executed
/// and discarded), a barrier so every client starts measuring at once,
/// then the measured rounds.
fn client_loop(
    server: &Arc<Server>,
    cfg: &RunConfig,
    client_id: u64,
    campus: &Campus,
    oracle: &Oracle,
    start_line: &Barrier,
) -> BenchResult<ClientRun> {
    let (local, remote) = transport::pipe();
    let serving = std::thread::spawn({
        let server = Arc::clone(server);
        move || server.handle_conn(remote)
    });
    let handshake = Client::handshake_as(
        local,
        &format!("crbench-{client_id}"),
        &cfg.workload.principal(client_id),
    )
    .map_err(err("handshake"));
    let client = match handshake {
        Ok(client) => client,
        Err(e) => {
            start_line.wait(); // the other clients must not wait for this one
            return Err(e);
        }
    };
    let checkpoint_every = CHECKPOINT_EVERY / cfg.clients.max(1);
    let mut run = Loop {
        client,
        gen: OpGen::new(cfg.workload, cfg.seed, client_id, checkpoint_every, campus),
        state: ClientState::default(),
        cfg,
        campus,
        oracle,
        server,
        out: ClientRun::default(),
    };
    let (warm_up, measured) = cfg.workload.rounds(cfg.seconds);
    let give_up = Instant::now() + Duration::from_secs_f64((cfg.seconds * OVERRUN).max(10.0));
    let warmed = run.rounds(warm_up, false, give_up);
    start_line.wait();
    warmed?;
    run.out.began = Some(Instant::now());
    run.rounds(measured, true, give_up)?;
    run.out.ended = Some(Instant::now());

    let mut out = run.out;
    if let Some(why) = &mut out.first_failure {
        *why = format!("client {client_id} {why}");
    }
    out.acked = run.state.acked;
    run.client.goodbye().map_err(err("goodbye"))?;
    serving
        .join()
        .map_err(|_| "server connection thread panicked".to_owned())?;
    Ok(out)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Per-kind counts and medians of one class, as latency bands.
fn class_bands<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<Band> {
    let mut by_kind: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in samples {
        // A cached recommendation is three orders of magnitude from a
        // computed one: two kinds, as far as latency goes.
        let kind = if s.is_cached_rec() {
            "rec_cached"
        } else {
            s.kind
        };
        by_kind.entry(kind).or_default().push(s.ns);
    }
    let kinds: Vec<(String, u64, f64)> = by_kind
        .into_iter()
        .map(|(kind, ns)| {
            let ns = sorted(ns);
            let p50 = percentile(&ns, 0.5).map_or(0.0, ms);
            (kind.to_owned(), ns.len() as u64, p50)
        })
        .collect();
    bands(&kinds)
}

fn describe_bands(class: &str, all: &[Band], notes: &mut Vec<String>) {
    let list: Vec<String> = all
        .iter()
        .map(|b| {
            format!(
                "{} {:.1}–{:.1}% ({:.3} ms)",
                b.kind, b.lo, b.hi, b.median_ms
            )
        })
        .collect();
    notes.push(format!("{class} kind bands: {}", list.join(", ")));
    for pct in [50.0, 90.0] {
        if let Some((band, margin)) = band_margin(all, pct) {
            let flag = if margin < 5.0 {
                "  ** under 5 points **"
            } else {
                ""
            };
            notes.push(format!(
                "{class} p{pct:.0} lies in {} with {margin:.1} points to the nearest other kind{flag}",
                band.kind
            ));
        }
    }
}

/// Several set-ups back to back; the last one is served. `setup_s` is
/// their median, so one slow page-cache miss does not move it.
fn repeated_setup(cfg: &RunConfig) -> BenchResult<(Served, f64, SetupTimes)> {
    let mut totals = Vec::with_capacity(SETUPS);
    let mut served = None;
    for _ in 0..SETUPS {
        drop(served.take()); // free the previous campus before building the next
        let s = serve(cfg.workload, &cfg.scale)?;
        totals.push(s.times.total_s);
        served = Some(s);
    }
    let served = served.ok_or("no set-up ran")?;
    let setup_s = median(&totals).ok_or("no set-up ran")?;
    let last = served.times.clone();
    Ok((served, setup_s, last))
}

/// Run one workload end to end and report every end-to-end metric.
pub fn run(cfg: &RunConfig) -> BenchResult<Report> {
    let (served, setup_s, last) = repeated_setup(cfg)?;
    let campus = campus_facts(served.server.app())?;
    let oracle = Oracle::build(served.server.app(), &campus)?;
    let round_len = cfg.workload.round_len();
    let (warm_up, measured_rounds) = cfg.workload.rounds(cfg.seconds);
    let mut notes = vec![
        format!(
            "{}: {} clients (closed loop), seed {}, {} courses, {} students, {} comments, \
             {} search terms; per client {warm_up} warm-up + {measured_rounds} measured rounds \
             of {round_len} requests",
            cfg.workload.name(),
            cfg.clients,
            cfg.seed,
            campus.courses.len(),
            campus.students.len(),
            campus.comments.len(),
            campus.terms.len()
        ),
        format!(
            "request stream hash (first {HASH_PREFIX} per client): {:016x}",
            stream_hash(cfg.workload, cfg.seed, cfg.clients, HASH_PREFIX, &campus)
        ),
        format!(
            "set-up (last of {SETUPS}): generate {:.3} s, load {:.3} s, checkpoint {:.3} s, \
             recover {:.3} s, assemble {:.3} s, server {:.3} s",
            last.generate_s,
            last.load_s,
            last.checkpoint_s,
            last.recover_s,
            last.assemble_s,
            last.server_s
        ),
    ];
    if cfg.workload.durable() {
        notes.push("durable store: FsBackend, StorageConfig::default() (fsync Always)".to_owned());
    }

    let start_line = Barrier::new(cfg.clients as usize);
    let runs: Vec<BenchResult<ClientRun>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let (server, campus, oracle, line) =
                    (&served.server, &campus, &oracle, &start_line);
                s.spawn(move || client_loop(server, cfg, c, campus, oracle, line))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let runs: Vec<ClientRun> = runs.into_iter().collect::<BenchResult<_>>()?;

    let mut attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = runs.iter().map(|r| r.failed).sum();
    let mut first_failure = runs.iter().find_map(|r| r.first_failure.clone());
    if runs.iter().any(|r| r.cut_short) {
        notes.push(format!(
            "** cut short: a client needed more than {OVERRUN} times the sized window **"
        ));
    }

    // The measured window: from the first client past the barrier to
    // the last client's last reply.
    let first = runs.iter().filter_map(|r| r.began).min();
    let last = runs.iter().filter_map(|r| r.ended).max();
    let (first, last) = first.zip(last).ok_or("no client measured")?;
    let wall_s = (last - first).as_secs_f64();
    let all = || runs.iter().flat_map(|r| &r.samples);
    let measured = all().count();
    if measured == 0 {
        return Err("no request was measured".to_owned());
    }
    let ops_per_s = measured as f64 / wall_s;

    let pooled =
        |class: RequestClass| sorted(all().filter(|s| s.class == class).map(|s| s.ns).collect());
    let reads = pooled(RequestClass::Read);
    let read_p50_ms = percentile(&reads, 0.5).map(ms).ok_or("no read measured")?;
    let read_p90_ms = percentile(&reads, 0.9).map(ms).ok_or("no read measured")?;
    notes.push(format!(
        "{attempted} requests attempted, {measured} measured in {wall_s:.3} s, {failed} failed"
    ));
    let pct = |v: &[u64], p: f64| percentile(v, p).map_or(0.0, ms);
    notes.push(format!(
        "reads: {} samples ({} beyond p90), p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms",
        reads.len(),
        reads.len() / 10,
        read_p50_ms,
        read_p90_ms,
        pct(&reads, 0.99)
    ));
    describe_bands(
        "read",
        &class_bands(all().filter(|s| s.class == RequestClass::Read)),
        &mut notes,
    );
    let recs = || all().filter(|s| s.is_rec());
    if recs().next().is_some() {
        let hits = recs().filter(|s| s.is_cached_rec()).count();
        notes.push(format!(
            "recommendations: {} of {} served from the cache ({:.1}%)",
            hits,
            recs().count(),
            100.0 * hits as f64 / recs().count() as f64
        ));
    }
    let written = pooled(RequestClass::Write);
    if !written.is_empty() {
        notes.push(format!(
            "writes (information only): {} samples, p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms",
            written.len(),
            pct(&written, 0.5),
            pct(&written, 0.9),
            pct(&written, 0.99)
        ));
        describe_bands(
            "write",
            &class_bands(all().filter(|s| s.class == RequestClass::Write)),
            &mut notes,
        );
    }
    let admin = pooled(RequestClass::Admin);
    if !admin.is_empty() {
        notes.push(format!(
            "checkpoints (information only): {} in the window, median {:.1} ms",
            admin.len(),
            pct(&admin, 0.5)
        ));
    }

    let Served { server, dir, .. } = served;
    if let Some(dir) = dir {
        // A crash: the server goes away with no checkpoint.
        drop(server);
        let acked: Vec<i64> = runs.iter().flat_map(|r| r.acked.iter().copied()).collect();
        let crash = crash_check(&dir, &acked)?;
        notes.push(crash.note);
        attempted += 1;
        if crash.lost > 0 {
            failed += 1;
            first_failure.get_or_insert_with(|| {
                format!("{} acknowledged comments lost after reopen", crash.lost)
            });
        }
    }

    let metrics = vec![
        ("setup_s", setup_s, "s"),
        ("ops_per_s", ops_per_s, "1/s"),
        ("read_p50_ms", read_p50_ms, "ms"),
        ("read_p90_ms", read_p90_ms, "ms"),
        (
            "rss_peak_mb",
            rss_peak_mb().ok_or("cannot read VmHWM")?,
            "MB",
        ),
    ];
    Ok(Report {
        metrics,
        attempted,
        failed,
        first_failure,
        notes,
    })
}
