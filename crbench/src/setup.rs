//! Set-up: generate the campus, assemble CourseRank (through a durable
//! store for `write_storm_durable`), start the server, and read off the
//! facts the request generators and the reply checks need.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use courserank::{CourseRank, CourseRankDb};
use cr_datagen::ScaleConfig;
use cr_relation::Database;
use cr_server::{AdmissionConfig, Server, ServerConfig};
use cr_storage::{FsBackend, FsyncPolicy, StorageConfig, WalConfig};

use crate::stream::{Campus, PointSql, Workload};

pub type BenchResult<T> = Result<T, String>;

/// Turn any displayable error into the harness's string error.
pub fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Search terms tried in order; the first twelve with hits are used.
const TERM_CANDIDATES: [&str; 24] = [
    "theory",
    "systems",
    "history",
    "analysis",
    "design",
    "american",
    "programming",
    "biology",
    "advanced",
    "research",
    "topics",
    "language",
    "culture",
    "methods",
    "seminar",
    "software",
    "literature",
    "algorithms",
    "government",
    "painting",
    "music",
    "art",
    "politics",
    "introduction",
];
const SEARCH_TERMS: usize = 12;

/// A directory under the build output that is removed on drop. Sits
/// beside the executable so a run never writes outside its checkout.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> BenchResult<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let exe = std::env::current_exe().map_err(err("current_exe"))?;
        let root = exe.parent().unwrap_or(Path::new("."));
        let dir = root.join(format!(
            "crbench-data-{}-{}-{label}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(err("create scratch dir"))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Total bytes of the regular files directly inside.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where one set-up spent its time, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    /// Durable only: bulk load into the store + checkpoint.
    pub load_s: f64,
    pub checkpoint_s: f64,
    /// Durable only: reopen from snapshot + WAL.
    pub recover_s: f64,
    pub assemble_s: f64,
    pub server_s: f64,
    pub total_s: f64,
}

/// A served campus, ready for clients.
pub struct Served {
    pub server: Arc<Server>,
    /// The durable store's directory (`write_storm_durable`).
    pub dir: Option<ScratchDir>,
    pub times: SetupTimes,
}

/// The server configuration every run uses: defaults, except admission
/// limits wide enough that nothing is shed (shedding has its own tests).
pub fn server_config() -> ServerConfig {
    ServerConfig {
        admission: AdmissionConfig {
            max_in_flight: [64, 8, 4],
            max_queue: 1024,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Copy every base table of `from` into the durable store at `dir`
/// without fsyncs, checkpoint, and close it: what a site restored from
/// a dump looks like on disk.
fn load_durable(from: &CourseRankDb, dir: &Path, times: &mut SetupTimes) -> BenchResult<()> {
    let t = Instant::now();
    let cfg = StorageConfig {
        wal: WalConfig {
            fsync: FsyncPolicy::Never,
            group_commit: 1024,
        },
        ..StorageConfig::default()
    };
    let backend = Arc::new(FsBackend::open(dir).map_err(err("open store"))?);
    let (durable, _) = CourseRankDb::open_with_backend(backend, cfg).map_err(err("open store"))?;
    let source = from.catalog();
    for table in source.table_names() {
        let rows = source
            .with_table(&table, |t| t.all_rows())
            .map_err(err("read table"))?;
        if !rows.is_empty() {
            durable
                .database()
                .insert_many(&table, rows)
                .map_err(err("bulk load"))?;
        }
    }
    times.load_s = secs(t);
    let t = Instant::now();
    durable.checkpoint().map_err(err("checkpoint"))?;
    times.checkpoint_s = secs(t);
    Ok(())
}

/// One full set-up. Everything a freshly started `crserve` would do
/// before its first request is inside `times.total_s`.
pub fn serve(workload: Workload, scale: &ScaleConfig) -> BenchResult<Served> {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let (generated, _) = cr_datagen::generate(scale).map_err(err("generate"))?;
    times.generate_s = secs(start);

    let (db, dir) = if workload.durable() {
        let dir = ScratchDir::new("store")?;
        load_durable(&generated, dir.path(), &mut times)?;
        drop(generated);
        let t = Instant::now();
        let (db, _) = CourseRankDb::open(dir.path()).map_err(err("recover"))?;
        times.recover_s = secs(t);
        (db, Some(dir))
    } else {
        (generated, None)
    };

    let t = Instant::now();
    let app = CourseRank::assemble(db).map_err(err("assemble"))?;
    times.assemble_s = secs(t);
    let t = Instant::now();
    let server = Server::new(app, server_config()).map_err(err("server"))?;
    times.server_s = secs(t);
    times.total_s = secs(start);
    Ok(Served { server, dir, times })
}

/// What reopening a crashed store found.
pub struct CrashCheck {
    pub recover_s: f64,
    pub replayed_records: u64,
    /// Acknowledged comment ids that are not readable any more.
    pub lost: u64,
    /// One line for the run's log.
    pub note: String,
}

/// The end of every durable run. The caller has dropped the server
/// without a checkpoint; the store is recovered from its files alone
/// (the recovery `CourseRank::open` starts with) and every comment id
/// the server acknowledged must be readable.
pub fn crash_check(dir: &ScratchDir, acked: &[i64]) -> BenchResult<CrashCheck> {
    let t = Instant::now();
    let (db, report) = CourseRankDb::open(dir.path()).map_err(err("reopen"))?;
    let recover_s = secs(t);
    let stored: std::collections::HashSet<i64> = match acked.iter().min() {
        Some(first) => int_column(
            db.database(),
            &format!("SELECT CommentID FROM Comments WHERE CommentID >= {first}"),
        )?
        .into_iter()
        .collect(),
        None => Default::default(),
    };
    let lost = acked.iter().filter(|id| !stored.contains(id)).count() as u64;
    Ok(CrashCheck {
        recover_s,
        replayed_records: report.replayed_records,
        lost,
        note: format!(
            "kill-and-reopen: {} acknowledged comments, {lost} lost; recovered in {recover_s:.3} s \
             replaying {} WAL records",
            acked.len(),
            report.replayed_records
        ),
    })
}

fn int_column(db: &Database, sql: &str) -> BenchResult<Vec<i64>> {
    let rs = db.query_sql(sql).map_err(err(sql))?;
    rs.rows
        .iter()
        .map(|r| r[0].as_int().map_err(err(sql)))
        .collect()
}

/// `key → n` from a two-column `(key, n)` statement.
fn int_map(db: &Database, sql: &str) -> BenchResult<HashMap<i64, i64>> {
    let rs = db.query_sql(sql).map_err(err(sql))?;
    rs.rows
        .iter()
        .map(|r| {
            Ok((
                r[0].as_int().map_err(err(sql))?,
                r[1].as_int().map_err(err(sql))?,
            ))
        })
        .collect()
}

/// What the generators draw from: ids and search terms with hits.
pub fn campus_facts(app: &CourseRank) -> BenchResult<Campus> {
    let db = app.db().database();
    let mut terms = Vec::new();
    for query in TERM_CANDIDATES {
        if terms.len() == SEARCH_TERMS {
            break;
        }
        let (hits, _, cloud) = app
            .search()
            .search_with_cloud(query, None, 10)
            .map_err(err("search"))?;
        if hits.is_empty() {
            continue;
        }
        // The first cloud term that narrows the result without emptying it.
        for t in &cloud.terms {
            let (refined, _, _) = app
                .search()
                .search_with_cloud(query, Some(&t.term), 10)
                .map_err(err("search"))?;
            if !refined.is_empty() {
                terms.push((query.to_owned(), t.term.clone()));
                break;
            }
        }
    }
    if terms.len() < SEARCH_TERMS.min(4) {
        return Err(format!("only {} search terms have hits", terms.len()));
    }
    Ok(Campus {
        courses: int_column(db, "SELECT CourseID FROM Courses ORDER BY CourseID")?,
        students: int_column(db, "SELECT SuID FROM Students ORDER BY SuID")?,
        comments: int_column(db, "SELECT CommentID FROM Comments ORDER BY CommentID")?,
        terms,
    })
}

/// Expected replies, computed from the generated tables before any
/// request is sent.
pub struct Oracle {
    /// Rows each point lookup returns, by key (absent = 0 rows).
    pub point_rows: HashMap<PointSql, HashMap<i64, i64>>,
    /// Per student: distinct quarters and total units of the plan.
    pub plan: HashMap<i64, (i64, i64)>,
    pub comments: i64,
    pub votes: i64,
    /// Ids the server hands out start here.
    pub first_new_comment: i64,
}

impl Oracle {
    pub fn build(app: &CourseRank, campus: &Campus) -> BenchResult<Self> {
        let db = app.db().database();
        let mut point_rows = HashMap::new();
        for sql in PointSql::ALL {
            point_rows.insert(sql, int_map(db, sql.oracle_sql())?);
        }
        let rs = db
            .query_sql(
                "SELECT e.SuID, e.Year, e.Term, c.Units FROM Enrollments e \
                 JOIN Courses c ON c.CourseID = e.CourseID",
            )
            .map_err(err("plan oracle"))?;
        let mut quarters: HashMap<i64, std::collections::HashSet<(i64, String)>> = HashMap::new();
        let mut plan: HashMap<i64, (i64, i64)> = HashMap::new();
        for r in &rs.rows {
            let student = r[0].as_int().map_err(err("plan oracle"))?;
            let year = r[1].as_int().map_err(err("plan oracle"))?;
            let term = r[2].as_text().map_err(err("plan oracle"))?.to_owned();
            quarters.entry(student).or_default().insert((year, term));
            plan.entry(student).or_default().1 += r[3].as_int().map_err(err("plan oracle"))?;
        }
        for (student, q) in quarters {
            plan.entry(student).or_default().0 = q.len() as i64;
        }
        Ok(Oracle {
            point_rows,
            plan,
            comments: campus.comments.len() as i64,
            votes: app.db().count("CommentVotes").map_err(err("count"))?,
            first_new_comment: campus.comments.iter().max().map_or(1, |m| m + 1),
        })
    }
}
