//! The request streams: four workloads, each a deterministic function
//! of `(seed, client, index)`.
//!
//! A client's generator holds only an RNG and a little bookkeeping, so
//! request *i* is produced just before it is sent — there is no
//! pre-built request list to inflate the resident set.

use std::collections::HashSet;

use cr_server::protocol::Request;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 20_090_104;

/// Voter ids minted by the harness start here, clear of every student.
const VOTER_BASE: i64 = 10_000_000;
/// Year of the enrollments the harness adds; datagen stops before it.
const ENROLL_YEAR: i64 = 2010;
const TERMS: [&str; 4] = ["Aut", "Win", "Spr", "Sum"];

/// SplitMix64: tiny, fast, and owned by the benchmark so a change to
/// the repository's `rand` stand-in cannot change the request streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, client: u64) -> Self {
        let mut rng = Rng(seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64(); // decorrelate neighbouring seeds
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Zipf(s) popularity over ranks `0..n`: rank 0 is the hot item.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|p| *p < u)
            .min(self.cdf.len().saturating_sub(1))
    }
}

/// The four traffic mixes. Names are the `--workload` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BrowseDay,
    SqlPoint,
    AnalyticsRecs,
    WriteStormDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BrowseDay,
        Workload::SqlPoint,
        Workload::AnalyticsRecs,
        Workload::WriteStormDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseDay => "browse_day",
            Workload::SqlPoint => "sql_point",
            Workload::AnalyticsRecs => "analytics_recs",
            Workload::WriteStormDurable => "write_storm_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BrowseDay => {
                "the paper's day: Zipf pages, searches with clouds, plans, recs the cache serves \
                 (a third are hits), 10% comment and vote writes; textsearch and the core \
                 services and caches do the work"
            }
            Workload::SqlPoint => {
                "fresh-literal PK/index lookups as a student: server codec, transport, admission, \
                 snapshot pin and relation parse/bind/flow/optimize dominate; execution is negligible"
            }
            Workload::AnalyticsRecs => {
                "join+group-by SQL and uncached FlexRecs for uniform students: relation::exec and \
                 flexrecs dominate, caches and wire cost almost nothing; the mirror of sql_point"
            }
            Workload::WriteStormDurable => {
                "fsync-always durable store, 50% writes each followed by a read of what it \
                 touched, a checkpoint per 500 requests: storage WAL, cache invalidation and \
                 copy-on-write cuts do the work"
            }
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::WriteStormDurable
    }

    /// Whether the mix mutates tables: exact row counts of written
    /// tables then become lower bounds in the reply checks.
    pub fn writes(self) -> bool {
        matches!(self, Workload::BrowseDay | Workload::WriteStormDurable)
    }

    /// The principal each client's session opens as.
    pub fn principal(self, client: u64) -> String {
        match self {
            // Students are disclosure-checked for real; staff sessions
            // skip the flow walk.
            Workload::SqlPoint => format!("student:{}", 1 + client),
            _ => "staff".to_owned(),
        }
    }
}

/// Single-table lookups of `sql_point`, keyed by one literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointSql {
    CourseByPk,
    StudentByPk,
    CommentByPk,
    CommentsOfCourse,
    OfferingsOfCourse,
    PrereqsOfCourse,
}

impl PointSql {
    pub const ALL: [PointSql; 6] = [
        PointSql::CourseByPk,
        PointSql::StudentByPk,
        PointSql::CommentByPk,
        PointSql::CommentsOfCourse,
        PointSql::OfferingsOfCourse,
        PointSql::PrereqsOfCourse,
    ];

    pub fn text(self, key: i64) -> String {
        match self {
            PointSql::CourseByPk => {
                format!("SELECT Title, Units FROM Courses WHERE CourseID = {key}")
            }
            PointSql::StudentByPk => {
                format!("SELECT Name, Class FROM Students WHERE SuID = {key}")
            }
            PointSql::CommentByPk => {
                format!("SELECT CourseID, Rating FROM Comments WHERE CommentID = {key}")
            }
            PointSql::CommentsOfCourse => {
                format!("SELECT CommentID, Rating FROM Comments WHERE CourseID = {key}")
            }
            PointSql::OfferingsOfCourse => {
                format!("SELECT Year, Term, InstructorID FROM Offerings WHERE CourseID = {key}")
            }
            PointSql::PrereqsOfCourse => {
                format!("SELECT PrereqID FROM Prerequisites WHERE CourseID = {key}")
            }
        }
    }

    /// The statement that gives, per key, the rows the lookup returns.
    pub fn oracle_sql(self) -> &'static str {
        match self {
            PointSql::CourseByPk => "SELECT CourseID, COUNT(*) AS n FROM Courses GROUP BY CourseID",
            PointSql::StudentByPk => "SELECT SuID, COUNT(*) AS n FROM Students GROUP BY SuID",
            PointSql::CommentByPk => {
                "SELECT CommentID, COUNT(*) AS n FROM Comments GROUP BY CommentID"
            }
            PointSql::CommentsOfCourse => {
                "SELECT CourseID, COUNT(*) AS n FROM Comments GROUP BY CourseID"
            }
            PointSql::OfferingsOfCourse => {
                "SELECT CourseID, COUNT(*) AS n FROM Offerings GROUP BY CourseID"
            }
            PointSql::PrereqsOfCourse => {
                "SELECT CourseID, COUNT(*) AS n FROM Prerequisites GROUP BY CourseID"
            }
        }
    }

    fn kind(self) -> &'static str {
        match self {
            PointSql::CourseByPk | PointSql::StudentByPk | PointSql::CommentByPk => "sql_pk",
            PointSql::CommentsOfCourse
            | PointSql::OfferingsOfCourse
            | PointSql::PrereqsOfCourse => "sql_index",
        }
    }
}

/// Join + group-by + order statements of `analytics_recs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalyticSql {
    RatingsByDep,
    EnrollmentsByCourse,
    UnitsByDep,
}

impl AnalyticSql {
    pub fn text(self, a: i64, b: i64) -> String {
        match self {
            AnalyticSql::RatingsByDep => format!(
                "SELECT c.DepID, COUNT(*) AS n, AVG(m.Rating) AS r FROM Comments m \
                 JOIN Courses c ON c.CourseID = m.CourseID \
                 WHERE m.Rating >= {} AND c.Units >= {} GROUP BY c.DepID ORDER BY n DESC",
                1 + a % 4,
                1 + b % 3
            ),
            AnalyticSql::EnrollmentsByCourse => format!(
                "SELECT e.CourseID, COUNT(*) AS n FROM Enrollments e \
                 JOIN Courses c ON c.CourseID = e.CourseID \
                 WHERE e.Year = {} AND c.Units >= {} GROUP BY e.CourseID ORDER BY n DESC LIMIT 20",
                2006 + a % 3,
                1 + b % 3
            ),
            AnalyticSql::UnitsByDep => format!(
                "SELECT c.DepID, COUNT(*) AS n, SUM(c.Units) AS u FROM Enrollments e \
                 JOIN Courses c ON c.CourseID = e.CourseID \
                 WHERE e.Year = {} AND c.Units >= {} GROUP BY c.DepID ORDER BY u DESC",
                2006 + a % 3,
                1 + b % 5
            ),
        }
    }

    fn kind(self) -> &'static str {
        match self {
            AnalyticSql::RatingsByDep => "sql_ratings_by_dep",
            AnalyticSql::EnrollmentsByCourse => "sql_enroll_by_course",
            AnalyticSql::UnitsByDep => "sql_units_by_dep",
        }
    }
}

/// One operation of a stream, before it becomes a wire request. Ids
/// that only a reply can supply (`ReadBack`) are filled in by the
/// client that sends it.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Page {
        course: i64,
    },
    Search {
        term: usize,
        refine: bool,
    },
    Recommend {
        student: i64,
        basis: Option<&'static str>,
    },
    Plan {
        student: i64,
    },
    Counts,
    Point {
        sql: PointSql,
        key: i64,
    },
    Analytic {
        sql: AnalyticSql,
        a: i64,
        b: i64,
    },
    /// Read the comment this client last had acknowledged.
    ReadBack,
    AddComment {
        student: i64,
        course: i64,
        term: &'static str,
        rating: f64,
    },
    Vote {
        comment: i64,
        voter: i64,
        helpful: bool,
    },
    Enroll {
        student: i64,
        course: i64,
        term: &'static str,
    },
    Checkpoint,
}

impl Op {
    /// Kind label: the unit of the latency bands and per-kind medians.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Page { .. } => "page",
            Op::Search { refine: false, .. } => "search",
            Op::Search { refine: true, .. } => "search_refined",
            Op::Recommend { basis: None, .. } => "rec_ratings",
            Op::Recommend { .. } => "rec_taken",
            Op::Plan { .. } => "plan",
            Op::Counts => "counts",
            Op::Point { sql, .. } => sql.kind(),
            Op::Analytic { sql, .. } => sql.kind(),
            Op::ReadBack => "read_back",
            Op::AddComment { .. } => "add_comment",
            Op::Vote { .. } => "vote",
            Op::Enroll { .. } => "enroll",
            Op::Checkpoint => "checkpoint",
        }
    }
}

/// What a generator needs to know about the generated campus.
#[derive(Debug, Clone)]
pub struct Campus {
    pub courses: Vec<i64>,
    pub students: Vec<i64>,
    /// Comment ids present after set-up (the generated ones).
    pub comments: Vec<i64>,
    /// Search terms with hits, each with a cloud term that refines it
    /// to a non-empty result.
    pub terms: Vec<(String, String)>,
}

/// One position of a round: which kind of operation goes there. The
/// parameters (which course, which student) are drawn when it is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Page,
    Search { refine: bool },
    Recommend { taken: bool },
    Plan,
    Counts,
    Point(PointSql),
    Analytic(AnalyticSql),
    ReadBack,
    AddComment,
    Vote,
    Enroll,
}

impl Slot {
    fn is_write(&self) -> bool {
        matches!(self, Slot::AddComment | Slot::Vote | Slot::Enroll)
    }
}

impl Workload {
    /// The composition of one round: how many operations of each kind.
    /// A client's stream is round after round of exactly this multiset
    /// in a freshly shuffled order, so every round is the same amount
    /// of work by kind and round times can be compared and their median
    /// taken. The shares are the workload's traffic mix.
    fn round(self) -> Vec<(Slot, usize)> {
        use Slot::*;
        match self {
            // 36% pages, 28% searches (8 refined), 6% recs, 5% plans,
            // 15% counts + short SQL, 10% writes. This is the workload
            // on which the recommendation cache is used, so its mix is
            // what that cache survives: recs ask by courses taken (the
            // delta-maintained basis; every comment drops all entries
            // of the default basis) and no request enrolls (every
            // enrollment drops all entries of both bases).
            // `write_storm_durable` has both. Computed recs are then
            // under 5% of the reads, so the p90 lies inside the
            // searches' band and not on its upper edge.
            Workload::BrowseDay => vec![
                (Page, 36),
                (Search { refine: false }, 20),
                (Search { refine: true }, 8),
                (Recommend { taken: true }, 6),
                (Plan, 5),
                (Counts, 5),
                (Point(PointSql::CourseByPk), 5),
                (ReadBack, 5),
                (AddComment, 6),
                (Vote, 4),
            ],
            // 60% primary-key lookups, 40% index lookups.
            Workload::SqlPoint => vec![
                (Point(PointSql::CourseByPk), 20),
                (Point(PointSql::StudentByPk), 20),
                (Point(PointSql::CommentByPk), 20),
                (Point(PointSql::CommentsOfCourse), 15),
                (Point(PointSql::OfferingsOfCourse), 15),
                (Point(PointSql::PrereqsOfCourse), 10),
            ],
            // 50% analytic SQL, 50% recommendations over two bases.
            Workload::AnalyticsRecs => vec![
                (Analytic(AnalyticSql::RatingsByDep), 4),
                (Analytic(AnalyticSql::EnrollmentsByCourse), 4),
                (Analytic(AnalyticSql::UnitsByDep), 4),
                (Recommend { taken: false }, 6),
                (Recommend { taken: true }, 6),
            ],
            // 50% writes, each followed by one read of what it touched
            // (`next_op` alternates them). Every read therefore comes
            // right after a write of its own session and republishes
            // the read view: were the order free, about half the reads
            // would, and the median read would sit on the cliff between
            // the two populations.
            Workload::WriteStormDurable => vec![
                (AddComment, 12),
                (Vote, 4),
                (Enroll, 4),
                (Page, 10),
                (Recommend { taken: false }, 3),
                (Recommend { taken: true }, 1),
                (Counts, 3),
                (ReadBack, 3),
            ],
        }
    }

    /// Operations in one round.
    pub fn round_len(self) -> usize {
        self.round().iter().map(|(_, n)| n).sum()
    }

    /// Rounds each client completes per second on this commit with two
    /// clients on two cores when the host is at its slowest (it is up to
    /// a third faster at other times), measured once and frozen: a run
    /// is sized in operations, `--seconds` only picks how many, and the
    /// window then takes `--seconds` or less.
    fn rounds_per_second(self) -> f64 {
        match self {
            Workload::BrowseDay => 1.0,
            Workload::SqlPoint => 175.0,
            Workload::AnalyticsRecs => 1.8,
            Workload::WriteStormDurable => 0.9,
        }
    }

    /// `(warm-up, measured)` rounds per client of a run sized for a
    /// window of `seconds`. The warm-up is a tenth of the measured count.
    /// The count is fixed, so two runs with one seed send the identical
    /// request sequence, and a faster program shows as a shorter run.
    pub fn rounds(self, seconds: f64) -> (u64, u64) {
        let measured = (self.rounds_per_second() * seconds).round().max(1.0) as u64;
        (measured.div_ceil(10), measured)
    }
}

/// Write-storm checkpoints: one per this many operations of the run, so
/// a run sized for 20 s sees three and the table copies that follow
/// each.
pub const CHECKPOINT_EVERY: u64 = 500;

/// A client's request generator.
pub struct OpGen {
    workload: Workload,
    client: u64,
    rng: Rng,
    index: u64,
    /// The current round, shuffled; `pos` is the next slot to send.
    slots: Vec<Slot>,
    pos: usize,
    course_zipf: Zipf,
    student_zipf: Zipf,
    /// `(student, course)` pairs this client already enrolled: the
    /// table's key must not repeat, so a repeat draws again.
    enrolled: HashSet<(i64, i64)>,
    /// What this client's latest write touched; the write storm reads
    /// exactly that back.
    touched: (i64, i64),
    checkpoint_every: u64,
}

impl OpGen {
    /// `checkpoint_every`: on the durable workload, client 0 sends a
    /// `Checkpoint` after every this-many of its own operations.
    pub fn new(
        workload: Workload,
        seed: u64,
        client: u64,
        checkpoint_every: u64,
        campus: &Campus,
    ) -> Self {
        let slots: Vec<Slot> = workload
            .round()
            .into_iter()
            .flat_map(|(slot, n)| std::iter::repeat_n(slot, n))
            .collect();
        OpGen {
            workload,
            client,
            rng: Rng::new(seed, client),
            index: 0,
            pos: slots.len(),
            slots,
            course_zipf: Zipf::new(campus.courses.len(), 1.0),
            student_zipf: Zipf::new(campus.students.len(), 1.0),
            enrolled: HashSet::new(),
            touched: (campus.students[0], campus.courses[0]),
            checkpoint_every: checkpoint_every.max(1),
        }
    }

    /// True when the next operation starts a new round.
    pub fn at_round_start(&self) -> bool {
        self.pos == self.slots.len()
    }

    /// The next operation of this client's stream.
    pub fn next_op(&mut self, campus: &Campus) -> Op {
        self.index += 1;
        let checkpoint_due = self.index.is_multiple_of(self.checkpoint_every);
        if self.workload.durable() && self.client == 0 && checkpoint_due {
            return Op::Checkpoint;
        }
        if self.at_round_start() {
            // Fisher–Yates: same multiset, new order.
            for i in (1..self.slots.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.slots.swap(i, j);
            }
            if self.workload.durable() {
                // Write, read, write, read: both halves keep the order
                // the shuffle gave them.
                let (writes, reads): (Vec<Slot>, Vec<Slot>) =
                    self.slots.iter().partition(|s| s.is_write());
                self.slots = writes
                    .into_iter()
                    .zip(reads)
                    .flat_map(|(w, r)| [w, r])
                    .collect();
            }
            self.pos = 0;
        }
        let slot = self.slots[self.pos];
        self.pos += 1;
        self.fill(slot, campus)
    }

    /// Draw the parameters of one slot.
    fn fill(&mut self, slot: Slot, campus: &Campus) -> Op {
        // Browsing follows popularity; the SQL and analytics workloads
        // draw keys uniformly so statement texts and rec-cache keys are
        // as fresh as the tables allow; the write storm reads back what
        // it just wrote.
        let zipf = matches!(
            self.workload,
            Workload::BrowseDay | Workload::WriteStormDurable
        );
        let (student, course) = if zipf {
            (
                campus.students[self.student_zipf.sample(&mut self.rng)],
                campus.courses[self.course_zipf.sample(&mut self.rng)],
            )
        } else {
            (
                *self.rng.pick(&campus.students),
                *self.rng.pick(&campus.courses),
            )
        };
        let read_back = self.workload == Workload::WriteStormDurable;
        let (read_student, read_course) = if read_back {
            self.touched
        } else {
            (student, course)
        };
        match slot {
            Slot::Page => Op::Page {
                course: read_course,
            },
            Slot::Search { refine } => Op::Search {
                term: self.rng.below(campus.terms.len() as u64) as usize,
                refine,
            },
            Slot::Recommend { taken } => Op::Recommend {
                student: read_student,
                basis: taken.then_some("taken"),
            },
            Slot::Plan => Op::Plan { student },
            Slot::Counts => Op::Counts,
            Slot::Point(sql) => Op::Point {
                sql,
                key: match sql {
                    PointSql::StudentByPk => student,
                    PointSql::CommentByPk => *self.rng.pick(&campus.comments),
                    _ => course,
                },
            },
            Slot::Analytic(sql) => Op::Analytic {
                sql,
                a: self.rng.below(60) as i64,
                b: self.rng.below(60) as i64,
            },
            Slot::ReadBack => Op::ReadBack,
            Slot::AddComment => {
                self.touched = (student, course);
                Op::AddComment {
                    student,
                    course,
                    term: TERMS[self.rng.below(TERMS.len() as u64) as usize],
                    rating: 1.0 + self.rng.below(9) as f64 / 2.0,
                }
            }
            Slot::Vote => Op::Vote {
                comment: *self.rng.pick(&campus.comments),
                // A fresh voter per vote: (comment, voter) never repeats.
                voter: VOTER_BASE + ((self.client as i64) << 32) + self.index as i64,
                helpful: self.rng.below(4) > 0,
            },
            Slot::Enroll => {
                let (mut student, mut course) = (student, course);
                while !self.enrolled.insert((student, course)) {
                    student = *self.rng.pick(&campus.students);
                    course = *self.rng.pick(&campus.courses);
                }
                self.touched = (student, course);
                Op::Enroll {
                    student,
                    course,
                    // One term per client: clients cannot collide.
                    term: TERMS[self.client as usize % TERMS.len()],
                }
            }
        }
    }
}

/// Tables the `Counts` probe reads, votes first: the hazardous order a
/// torn read would show up in.
pub const COUNT_TABLES: [&str; 2] = ["CommentVotes", "Comments"];

/// The wire request of an operation. `last_comment` is the id this
/// client last had acknowledged (`ReadBack` falls back to a generated
/// comment before the first acknowledgement).
pub fn request(op: &Op, campus: &Campus, last_comment: Option<i64>) -> Request {
    match op {
        Op::Page { course } => Request::CoursePage { course: *course },
        Op::Search { term, refine } => {
            let (query, refined) = &campus.terms[*term];
            Request::Search {
                query: query.clone(),
                refine: refine.then(|| refined.clone()),
                limit: 10,
            }
        }
        Op::Recommend { student, basis } => Request::Recommend {
            student: *student,
            limit: 5,
            basis: basis.map(str::to_owned),
        },
        Op::Plan { student } => Request::PlanReport { student: *student },
        Op::Counts => Request::Counts {
            tables: COUNT_TABLES.iter().map(|t| (*t).to_owned()).collect(),
        },
        Op::Point { sql, key } => Request::SqlRead {
            query: sql.text(*key),
        },
        Op::Analytic { sql, a, b } => Request::SqlRead {
            query: sql.text(*a, *b),
        },
        Op::ReadBack => Request::SqlRead {
            query: PointSql::CommentByPk.text(last_comment.unwrap_or(campus.comments[0])),
        },
        Op::AddComment {
            student,
            course,
            term,
            rating,
        } => Request::AddComment {
            student: *student,
            course: *course,
            year: 2009,
            term: (*term).to_owned(),
            text: "measured comment: lectures were clear, problem sets long".to_owned(),
            rating: *rating,
        },
        Op::Vote {
            comment,
            voter,
            helpful,
        } => Request::Vote {
            comment: *comment,
            voter: *voter,
            helpful: *helpful,
        },
        Op::Enroll {
            student,
            course,
            term,
        } => Request::Enroll {
            student: *student,
            course: *course,
            year: ENROLL_YEAR,
            term: (*term).to_owned(),
            planned: true,
        },
        Op::Checkpoint => Request::Checkpoint,
    }
}

/// FNV-1a over the debug form of the first `n` operations of each of
/// `clients` streams: equal seeds give equal hashes, whatever the run
/// length, so two runs can be shown to have sent the same requests.
pub fn stream_hash(workload: Workload, seed: u64, clients: u64, n: usize, campus: &Campus) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for client in 0..clients {
        let mut gen = OpGen::new(workload, seed, client, CHECKPOINT_EVERY / clients, campus);
        for _ in 0..n {
            let op = gen.next_op(campus);
            for byte in format!("{:?}", request(&op, campus, None)).bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campus() -> Campus {
        Campus {
            courses: (1..=200).collect(),
            students: (1..=300).collect(),
            comments: (1..=500).collect(),
            terms: (0..12)
                .map(|i| (format!("term{i}"), format!("refine{i}")))
                .collect(),
        }
    }

    #[test]
    fn rng_is_deterministic_and_bounded() {
        let (mut a, mut b) = (Rng::new(7, 0), Rng::new(7, 0));
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
            assert!(a.below(13) < 13);
            b.below(13);
            let u = a.unit();
            b.unit();
            assert!((0.0..1.0).contains(&u));
        }
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(7, 1).next_u64());
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(8, 0).next_u64());
    }

    #[test]
    fn zipf_is_seed_deterministic_and_skewed() {
        let z = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed, 0);
            (0..5000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let draws = draw(1);
        assert!(draws.iter().all(|r| *r < 1000));
        let hot = draws.iter().filter(|r| **r == 0).count();
        let cold = draws.iter().filter(|r| **r == 500).count();
        // H(1000) ≈ 7.49: rank 0 gets ~13% of draws, rank 500 ~0.03%.
        assert!((500..900).contains(&hot), "hot={hot}");
        assert!(cold < 20, "cold={cold}");
    }

    #[test]
    fn streams_repeat_for_equal_seeds_and_differ_otherwise() {
        let campus = campus();
        for w in Workload::ALL {
            let requests = |seed, client| {
                let mut gen = OpGen::new(w, seed, client, 500, &campus);
                (0..2000)
                    .map(|_| format!("{:?}", request(&gen.next_op(&campus), &campus, Some(9))))
                    .collect::<Vec<_>>()
                    .join("\n")
                    .into_bytes()
            };
            assert_eq!(requests(5, 0), requests(5, 0), "{w:?}");
            assert_ne!(requests(5, 0), requests(6, 0), "{w:?}");
            assert_ne!(requests(5, 0), requests(5, 1), "{w:?}");
            assert_eq!(
                stream_hash(w, 5, 2, 500, &campus),
                stream_hash(w, 5, 2, 500, &campus)
            );
            assert_ne!(
                stream_hash(w, 5, 2, 500, &campus),
                stream_hash(w, 6, 2, 500, &campus)
            );
        }
    }

    #[test]
    fn writes_never_repeat_a_key() {
        let campus = campus();
        for w in [Workload::BrowseDay, Workload::WriteStormDurable] {
            let mut votes = HashSet::new();
            let mut enrollments = HashSet::new();
            for client in 0..2 {
                let mut gen = OpGen::new(w, 3, client, 500, &campus);
                for _ in 0..20_000 {
                    match gen.next_op(&campus) {
                        Op::Vote { comment, voter, .. } => assert!(votes.insert((comment, voter))),
                        Op::Enroll {
                            student,
                            course,
                            term,
                        } => assert!(enrollments.insert((student, course, term))),
                        _ => {}
                    }
                }
            }
            assert!(!votes.is_empty());
            assert_eq!(enrollments.is_empty(), w == Workload::BrowseDay);
        }
    }

    #[test]
    fn every_round_is_the_same_multiset_in_a_new_order() {
        let campus = campus();
        for w in Workload::ALL {
            let mut gen = OpGen::new(w, 11, 1, 500, &campus);
            let mut rounds: Vec<Vec<&'static str>> = Vec::new();
            for _ in 0..30 {
                assert!(gen.at_round_start());
                let round: Vec<_> = (0..w.round_len())
                    .map(|_| gen.next_op(&campus).kind())
                    .collect();
                rounds.push(round);
            }
            let sorted = |r: &Vec<&'static str>| {
                let mut r = r.clone();
                r.sort_unstable();
                r
            };
            assert!(
                rounds.iter().all(|r| sorted(r) == sorted(&rounds[0])),
                "{w:?}"
            );
            assert!(
                rounds.iter().any(|r| *r != rounds[0]),
                "{w:?} never reshuffles"
            );
        }
    }

    #[test]
    fn mixes_have_the_documented_shares() {
        let campus = campus();
        let share = |w: Workload, kinds: &[&str]| {
            let mut gen = OpGen::new(w, 11, 1, 500, &campus);
            let n = w.round_len();
            let hits = (0..n)
                .filter(|_| kinds.contains(&gen.next_op(&campus).kind()))
                .count();
            100.0 * hits as f64 / n as f64
        };
        assert_eq!(share(Workload::BrowseDay, &["page"]), 36.0);
        assert_eq!(
            share(Workload::BrowseDay, &["search", "search_refined"]),
            28.0
        );
        assert_eq!(share(Workload::BrowseDay, &["search_refined"]), 8.0);
        assert_eq!(share(Workload::BrowseDay, &["add_comment", "vote"]), 10.0);
        assert_eq!(
            share(Workload::AnalyticsRecs, &["rec_ratings", "rec_taken"]),
            50.0
        );
        assert_eq!(
            share(
                Workload::WriteStormDurable,
                &["add_comment", "vote", "enroll"]
            ),
            50.0
        );
        assert_eq!(share(Workload::SqlPoint, &["sql_index"]), 40.0);
    }

    #[test]
    fn write_storm_alternates_writes_and_reads() {
        let campus = campus();
        let mut gen = OpGen::new(Workload::WriteStormDurable, 9, 1, 500, &campus);
        for i in 0..400 {
            let op = gen.next_op(&campus);
            let write = matches!(
                op,
                Op::AddComment { .. } | Op::Vote { .. } | Op::Enroll { .. }
            );
            assert_eq!(write, i % 2 == 0, "operation {i} is {op:?}");
        }
    }

    #[test]
    fn checkpoints_come_from_client_zero_only() {
        let campus = campus();
        let count = |client| {
            let mut gen = OpGen::new(Workload::WriteStormDurable, 1, client, 500, &campus);
            (0..3000)
                .filter(|_| gen.next_op(&campus) == Op::Checkpoint)
                .count()
        };
        assert_eq!(count(0), 6);
        for w in Workload::ALL {
            assert_eq!(w.rounds(0.001), (1, 1));
            let (warm_up, measured) = w.rounds(20.0);
            assert!(measured >= 18 && warm_up == measured.div_ceil(10), "{w:?}");
        }
        assert_eq!(count(1), 0);
    }
}
