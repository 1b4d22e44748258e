//! The CourseRank relational schema and typed accessors.
//!
//! §3.2 gives the core of the schema:
//!
//! ```text
//! Courses(CourseID, DepID, Title, Description, Units, Url)
//! Students(SuID, Name, Class, GPA)
//! Comments(SuID, CourseID, Year, Term, Text, Rating, Date)
//! ```
//!
//! §2.1's "rich data" adds the rest: departments, offerings with times and
//! instructors, prerequisites ("courses […] have to be taken in a certain
//! order"), volunteer-reported textbooks (the bookstore anecdote), official
//! grade distributions (the Engineering-school anecdote), programs with
//! requirements (Requirement Tracker), questions/answers (the Q&A forum),
//! helpfulness votes ("rank the accuracy of each others' comments"), and
//! the incentive-point ledger.

use std::path::Path;
use std::sync::Arc;

use cr_relation::plan::{JoinKind, PlanBuilder, TablePolicy};
use cr_relation::row::row;
use cr_relation::{Database, Expr, RelError, RelResult, Value};
use cr_storage::{
    FsBackend, RecoveryReport, Storage, StorageBackend, StorageConfig, StorageError, StorageResult,
};

use crate::model::{CourseId, Days, Grade, Quarter, StudentId, Term, UserId};

/// Enrollment status: taken (possibly with a grade) or planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnrollStatus {
    Taken,
    Planned,
}

impl EnrollStatus {
    pub fn code(&self) -> &'static str {
        match self {
            EnrollStatus::Taken => "taken",
            EnrollStatus::Planned => "planned",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "taken" => Some(EnrollStatus::Taken),
            "planned" => Some(EnrollStatus::Planned),
            _ => None,
        }
    }
}

/// A course row.
#[derive(Debug, Clone, PartialEq)]
pub struct Course {
    pub id: CourseId,
    pub dep: String,
    pub title: String,
    pub description: String,
    pub units: i64,
    pub url: String,
}

/// A student row.
#[derive(Debug, Clone, PartialEq)]
pub struct Student {
    pub id: StudentId,
    pub name: String,
    /// Graduating class, e.g. "2011".
    pub class: String,
    pub major: Option<String>,
    pub gpa: Option<f64>,
    /// Plan-sharing opt-out (§2.2 "one can opt out of sharing").
    pub share_plans: bool,
}

/// An enrollment (taken or planned).
#[derive(Debug, Clone, PartialEq)]
pub struct Enrollment {
    pub student: StudentId,
    pub course: CourseId,
    pub quarter: Quarter,
    pub grade: Option<Grade>,
    pub status: EnrollStatus,
}

/// A course offering in a specific quarter with meeting times.
#[derive(Debug, Clone, PartialEq)]
pub struct Offering {
    pub id: i64,
    pub course: CourseId,
    pub quarter: Quarter,
    pub instructor: i64,
    pub days: Days,
    /// Minutes from midnight.
    pub start_min: i64,
    pub end_min: i64,
}

/// A student comment with a rating.
#[derive(Debug, Clone, PartialEq)]
pub struct Comment {
    pub id: i64,
    pub student: StudentId,
    pub course: CourseId,
    pub quarter: Quarter,
    pub text: String,
    pub rating: f64,
    /// Days since epoch.
    pub date: i32,
}

/// The CourseRank database: schema + typed mutators/accessors over the
/// relational engine. Cloning shares the underlying data.
///
/// Two flavors: [`CourseRankDb::new`] is purely in-memory (tests,
/// benchmarks, `cr-datagen` loads); [`CourseRankDb::open`] is durable —
/// state recovers from snapshot + WAL and every subsequent mutation is
/// write-ahead logged via `cr-storage`.
#[derive(Debug, Clone)]
pub struct CourseRankDb {
    db: Database,
    /// Present on durable databases; `None` for in-memory ones.
    storage: Option<Arc<Storage>>,
}

/// DDL for every relation, in dependency order.
pub const SCHEMA_SQL: &[&str] = &[
    "CREATE TABLE Departments (DepID TEXT PRIMARY KEY, Name TEXT NOT NULL, School TEXT)",
    "CREATE TABLE Courses (CourseID INT PRIMARY KEY, DepID TEXT NOT NULL, Title TEXT NOT NULL, \
     Description TEXT, Units INT NOT NULL, Url TEXT)",
    "CREATE TABLE Prerequisites (CourseID INT, PrereqID INT, PRIMARY KEY (CourseID, PrereqID))",
    "CREATE TABLE Instructors (InstructorID INT PRIMARY KEY, Name TEXT NOT NULL, DepID TEXT)",
    "CREATE TABLE Offerings (OfferingID INT PRIMARY KEY, CourseID INT NOT NULL, Year INT NOT NULL, \
     Term TEXT NOT NULL, InstructorID INT, Days TEXT, StartMin INT, EndMin INT)",
    "CREATE TABLE Textbooks (TextbookID INT PRIMARY KEY, CourseID INT NOT NULL, Title TEXT NOT NULL, \
     ReportedBy INT)",
    "CREATE TABLE Students (SuID INT PRIMARY KEY, Name TEXT NOT NULL, Class TEXT, Major TEXT, \
     GPA FLOAT, SharePlans BOOL NOT NULL)",
    "CREATE TABLE Users (UserID INT PRIMARY KEY, Username TEXT NOT NULL, Role TEXT NOT NULL, \
     DisplayName TEXT)",
    "CREATE TABLE Enrollments (SuID INT, CourseID INT, Year INT, Term TEXT, Grade TEXT, \
     Status TEXT NOT NULL, Points FLOAT, PRIMARY KEY (SuID, CourseID, Year, Term))",
    "CREATE TABLE Comments (CommentID INT PRIMARY KEY, SuID INT NOT NULL, CourseID INT NOT NULL, \
     Year INT, Term TEXT, Text TEXT, Rating FLOAT, Date DATE)",
    "CREATE TABLE CommentVotes (CommentID INT, VoterID INT, Helpful BOOL NOT NULL, \
     PRIMARY KEY (CommentID, VoterID))",
    "CREATE TABLE OfficialGradeDist (CourseID INT, Year INT, Grade TEXT, Count INT NOT NULL, \
     PRIMARY KEY (CourseID, Year, Grade))",
    "CREATE TABLE Programs (ProgramID INT PRIMARY KEY, DepID TEXT NOT NULL, Name TEXT NOT NULL)",
    "CREATE TABLE Requirements (ReqID INT PRIMARY KEY, ProgramID INT NOT NULL, ParentID INT, \
     Kind TEXT NOT NULL, Param INT, CourseID INT, DepID TEXT, Label TEXT)",
    "CREATE TABLE Questions (QuestionID INT PRIMARY KEY, SuID INT, CourseID INT, DepID TEXT, \
     Text TEXT NOT NULL, Date DATE, Seeded BOOL NOT NULL)",
    "CREATE TABLE Answers (AnswerID INT PRIMARY KEY, QuestionID INT NOT NULL, SuID INT NOT NULL, \
     Text TEXT NOT NULL, Date DATE, Best BOOL NOT NULL)",
    "CREATE TABLE Points (EntryID INT PRIMARY KEY, UserID INT NOT NULL, Reason TEXT NOT NULL, \
     Points INT NOT NULL, Date DATE)",
    "CREATE TABLE FacultyNotes (NoteID INT PRIMARY KEY, CourseID INT NOT NULL, \
     InstructorID INT NOT NULL, Text TEXT NOT NULL, Url TEXT)",
    "CREATE TABLE RecStrategies (Name TEXT PRIMARY KEY, Description TEXT, Json TEXT NOT NULL)",
];

/// Secondary indexes for the hot access paths.
const INDEX_SQL: &[&str] = &[
    "CREATE INDEX comments_by_course ON Comments (CourseID)",
    "CREATE INDEX comments_by_student ON Comments (SuID)",
    "CREATE INDEX enrollments_by_student ON Enrollments (SuID)",
    "CREATE INDEX enrollments_by_course ON Enrollments (CourseID)",
    "CREATE INDEX offerings_by_course ON Offerings (CourseID)",
    "CREATE INDEX courses_by_dep ON Courses (DepID)",
    "CREATE INDEX prereq_by_course ON Prerequisites (CourseID)",
    "CREATE INDEX votes_by_comment ON CommentVotes (CommentID)",
    "CREATE INDEX answers_by_question ON Answers (QuestionID)",
    "CREATE INDEX requirements_by_program ON Requirements (ProgramID)",
    "CREATE INDEX textbooks_by_course ON Textbooks (CourseID)",
    "CREATE INDEX points_by_user ON Points (UserID)",
    "CREATE INDEX questions_by_dep ON Questions (DepID)",
    "CREATE INDEX notes_by_course ON FacultyNotes (CourseID)",
    "CREATE INDEX official_by_course ON OfficialGradeDist (CourseID)",
];

/// Register the sensitivity labels that make the paper's §2.2 policies
/// checkable by `cr_relation::plan::flow`:
///
/// * catalog data (courses, departments, offerings, …) is `Public`;
/// * campus contributions (comments, Q&A, incentive points) are
///   `Community`, with the authoring student as the owner column
///   (contributions are signed, so the id itself is community-visible);
/// * `Students.GPA`, `Enrollments.Grade` and the grade points beside it,
///   `Enrollments.Points`, are `PerUser` — grade data reaches other
///   students only through k-guarded aggregates;
/// * plan rows (`Enrollments` course/term columns) are *gated* by
///   `Students.SharePlans`, the paper's opt-out sharing switch.
///
/// Tables created later (tests, ad-hoc DDL) default to `Public`.
pub fn apply_flow_policies(db: &Database) {
    use cr_relation::plan::flow::Sensitivity::{Community, PerUser, Public};

    let catalog = db.catalog();
    for table in [
        "Departments",
        "Courses",
        "Prerequisites",
        "Instructors",
        "Offerings",
        "Textbooks",
        "Programs",
        "Requirements",
        "FacultyNotes",
    ] {
        catalog.set_table_policy(table, TablePolicy::new(Public));
    }
    catalog.set_table_policy(
        "Students",
        TablePolicy::new(Community)
            .owner("SuID", Community)
            .column("GPA", PerUser)
            .gate("SharePlans", Community),
    );
    catalog.set_table_policy(
        "Enrollments",
        TablePolicy::new(Community)
            .owner("SuID", Community)
            .column("Grade", PerUser)
            .column("Points", PerUser)
            .gated("CourseID")
            .gated("Year")
            .gated("Term")
            .gated("Status"),
    );
    catalog.set_table_policy(
        "Comments",
        TablePolicy::new(Community).owner("SuID", Community),
    );
    catalog.set_table_policy(
        "Questions",
        TablePolicy::new(Community).owner("SuID", Community),
    );
    catalog.set_table_policy(
        "Answers",
        TablePolicy::new(Community).owner("SuID", Community),
    );
    catalog.set_table_policy(
        "Points",
        TablePolicy::new(Community).owner("UserID", Community),
    );
    for table in [
        "Users",
        "CommentVotes",
        "OfficialGradeDist",
        "RecStrategies",
    ] {
        catalog.set_table_policy(table, TablePolicy::new(Community));
    }
    // Per-entry cache statistics (see `register_stat_tables`): aggregate
    // counters, community-visible like relation's `cr_stat_counters`.
    catalog.set_table_policy("cr_stat_cache", TablePolicy::new(Community));
}

/// Register the virtual `cr_stat_*` tables: core's per-entry
/// `cr_stat_cache` and relation's system tables. `table_names()` (and
/// thus snapshots) never sees them, so telemetry is queryable but never
/// persisted. Idempotent, like [`cr_relation::register_system_tables`].
fn register_stat_tables(db: &Database) -> RelResult<()> {
    let catalog = db.catalog();
    if !catalog.has_table("cr_stat_cache") {
        catalog
            .register_scan_provider("cr_stat_cache", Arc::new(crate::cache::CacheStatsProvider))?;
    }
    cr_relation::telemetry::register_system_tables(&catalog)
}

impl Default for CourseRankDb {
    fn default() -> Self {
        Self::new()
    }
}

impl CourseRankDb {
    /// Create an empty CourseRank database with the full schema.
    pub fn new() -> Self {
        let db = Database::new();
        for ddl in SCHEMA_SQL {
            db.execute_sql(ddl).expect("schema DDL is valid");
        }
        for ddl in INDEX_SQL {
            db.execute_sql(ddl).expect("index DDL is valid");
        }
        register_stat_tables(&db).expect("system tables never collide with the app schema");
        apply_flow_policies(&db);
        CourseRankDb { db, storage: None }
    }

    /// Open (or create) a durable CourseRank database in `dir`. State is
    /// recovered from the latest snapshot plus the WAL tail; from then
    /// on every mutation is write-ahead logged before the caller sees
    /// success. The report says what recovery found.
    pub fn open(dir: impl AsRef<Path>) -> StorageResult<(Self, RecoveryReport)> {
        Self::open_with_backend(Arc::new(FsBackend::open(dir)?), StorageConfig::default())
    }

    /// [`CourseRankDb::open`] over any [`StorageBackend`] (tests use the
    /// in-memory and fault-injecting ones) with explicit tuning.
    pub fn open_with_backend(
        backend: Arc<dyn StorageBackend>,
        cfg: StorageConfig,
    ) -> StorageResult<(Self, RecoveryReport)> {
        let (storage, db, report) = Storage::open(backend, cfg)?;
        // Bring the schema up to date. On a fresh store this logs the
        // full DDL to the WAL (so a pre-first-snapshot crash still
        // recovers); after recovery it only fills gaps — e.g. a crash
        // that tore the log mid-bootstrap — and existing objects are
        // left untouched.
        for ddl in SCHEMA_SQL.iter().chain(INDEX_SQL) {
            match db.execute_sql(ddl) {
                Ok(_) | Err(RelError::TableExists(_) | RelError::IndexExists(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Grade points live on the enrollment row; a store written before
        // they did is not migrated.
        if db
            .catalog()
            .with_table("Enrollments", |t| t.schema().index_of("Points").is_err())?
        {
            return Err(StorageError::Corrupt(
                "Enrollments has no Points column: the store predates it".into(),
            ));
        }
        register_stat_tables(&db)?;
        apply_flow_policies(&db);
        Ok((
            CourseRankDb {
                db,
                storage: Some(storage),
            },
            report,
        ))
    }

    /// The storage engine behind a durable database (`None` in-memory).
    pub fn storage(&self) -> Option<&Arc<Storage>> {
        self.storage.as_ref()
    }

    /// Pin a read-only snapshot: an atomic cut across every table (see
    /// [`cr_relation::Catalog::snapshot`]). The returned handle shares the
    /// pinned table images by `Arc` — zero data copy — and proceeds
    /// concurrently with writers on the live database, which copy-on-write
    /// their tables instead of blocking. Every mutation through the
    /// returned handle fails with "catalog snapshot is read-only", and it
    /// carries no storage handle (checkpointing stays with the live db).
    pub fn snapshot(&self) -> (CourseRankDb, cr_relation::CatalogSnapshot) {
        let (db, cut) = self.db.snapshot();
        (CourseRankDb { db, storage: None }, cut)
    }

    /// True for handles produced by [`CourseRankDb::snapshot`].
    pub fn is_snapshot(&self) -> bool {
        self.db.is_snapshot()
    }

    /// Write a snapshot and rotate/prune the WAL. Returns the snapshot
    /// sequence, or `None` for an in-memory database.
    pub fn checkpoint(&self) -> StorageResult<Option<u64>> {
        match &self.storage {
            Some(s) => s.checkpoint().map(Some),
            None => Ok(None),
        }
    }

    /// The underlying engine (for SQL, plans, FlexRecs, search indexing).
    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn catalog(&self) -> cr_relation::Catalog {
        self.db.catalog()
    }

    // ------------------------------------------------------------------
    // Inserts
    // ------------------------------------------------------------------

    pub fn insert_department(&self, id: &str, name: &str, school: &str) -> RelResult<()> {
        self.db
            .insert("Departments", row![id, name, school])
            .map(|_| ())
    }

    pub fn insert_course(&self, c: &Course) -> RelResult<()> {
        self.db
            .insert(
                "Courses",
                row![
                    c.id,
                    c.dep.as_str(),
                    c.title.as_str(),
                    c.description.as_str(),
                    c.units,
                    c.url.as_str()
                ],
            )
            .map(|_| ())
    }

    pub fn insert_prerequisite(&self, course: CourseId, prereq: CourseId) -> RelResult<()> {
        self.db
            .insert("Prerequisites", row![course, prereq])
            .map(|_| ())
    }

    pub fn insert_instructor(&self, id: i64, name: &str, dep: &str) -> RelResult<()> {
        self.db
            .insert("Instructors", row![id, name, dep])
            .map(|_| ())
    }

    pub fn insert_offering(&self, o: &Offering) -> RelResult<()> {
        self.db
            .insert(
                "Offerings",
                row![
                    o.id,
                    o.course,
                    o.quarter.year as i64,
                    o.quarter.term.code(),
                    o.instructor,
                    o.days.encode().as_str(),
                    o.start_min,
                    o.end_min
                ],
            )
            .map(|_| ())
    }

    pub fn insert_textbook(
        &self,
        id: i64,
        course: CourseId,
        title: &str,
        reported_by: Option<StudentId>,
    ) -> RelResult<()> {
        self.db
            .insert(
                "Textbooks",
                row![id, course, title, Value::from(reported_by)],
            )
            .map(|_| ())
    }

    pub fn insert_student(&self, s: &Student) -> RelResult<()> {
        self.db
            .insert(
                "Students",
                row![
                    s.id,
                    s.name.as_str(),
                    s.class.as_str(),
                    Value::from(s.major.clone()),
                    Value::from(s.gpa),
                    s.share_plans
                ],
            )
            .map(|_| ())
    }

    pub fn insert_user(
        &self,
        id: UserId,
        username: &str,
        role: &str,
        display: &str,
    ) -> RelResult<()> {
        self.db
            .insert("Users", row![id, username, role, display])
            .map(|_| ())
    }

    /// Insert an enrollment, with its grade points in the same row: the
    /// points of a taken course's letter grade, NULL for a planned or
    /// ungraded one.
    pub fn insert_enrollment(&self, e: &Enrollment) -> RelResult<()> {
        self.db
            .insert(
                "Enrollments",
                row![
                    e.student,
                    e.course,
                    e.quarter.year as i64,
                    e.quarter.term.code(),
                    Value::from(e.grade.map(|g| g.letter().to_owned())),
                    e.status.code(),
                    Value::from(graded(e.status, e.grade))
                ],
            )
            .map(|_| ())
    }

    pub fn insert_comment(&self, c: &Comment) -> RelResult<()> {
        self.db
            .insert(
                "Comments",
                row![
                    c.id,
                    c.student,
                    c.course,
                    c.quarter.year as i64,
                    c.quarter.term.code(),
                    c.text.as_str(),
                    c.rating,
                    Value::Date(c.date)
                ],
            )
            .map(|_| ())
    }

    pub fn insert_official_grade(
        &self,
        course: CourseId,
        year: i32,
        grade: Grade,
        count: i64,
    ) -> RelResult<()> {
        self.db
            .insert(
                "OfficialGradeDist",
                row![course, year as i64, grade.letter(), count],
            )
            .map(|_| ())
    }

    // ------------------------------------------------------------------
    // Typed reads
    // ------------------------------------------------------------------

    pub fn course(&self, id: CourseId) -> RelResult<Option<Course>> {
        self.catalog().with_table("Courses", |t| {
            t.get_by_pk(&vec![Value::Int(id)]).map(|r| Course {
                id,
                dep: text(&r[1]),
                title: text(&r[2]),
                description: text(&r[3]),
                units: r[4].as_int().unwrap_or(0),
                url: text(&r[5]),
            })
        })
    }

    pub fn student(&self, id: StudentId) -> RelResult<Option<Student>> {
        self.catalog().with_table("Students", |t| {
            t.get_by_pk(&vec![Value::Int(id)]).map(|r| Student {
                id,
                name: text(&r[1]),
                class: text(&r[2]),
                major: opt_text(&r[3]),
                gpa: r[4].as_float().ok(),
                share_plans: r[5].as_bool().unwrap_or(false),
            })
        })
    }

    /// All enrollments for a student (taken and planned), via the
    /// secondary index. Built as a [`LogicalPlan`] directly — the typed
    /// readers share the SQL front-end's optimizer and executor without
    /// re-parsing a statement per call.
    ///
    /// [`LogicalPlan`]: cr_relation::plan::LogicalPlan
    pub fn enrollments_of(&self, student: StudentId) -> RelResult<Vec<Enrollment>> {
        let plan = PlanBuilder::scan(&self.catalog(), "Enrollments")?
            .filter(Expr::col("SuID").eq(Expr::lit(student)))?
            .select_columns(&["CourseID", "Year", "Term", "Grade", "Status"])?
            .build();
        let rs = self.db.run_plan(&plan)?;
        Ok(rs
            .rows
            .iter()
            .filter_map(|r| {
                Some(Enrollment {
                    student,
                    course: r[0].as_int().ok()?,
                    quarter: Quarter::new(
                        r[1].as_int().ok()? as i32,
                        Term::parse(r[2].as_text().ok()?)?,
                    ),
                    grade: r[3].as_text().ok().and_then(Grade::parse),
                    status: EnrollStatus::parse(r[4].as_text().ok()?)?,
                })
            })
            .collect())
    }

    /// Offerings of a course.
    pub fn offerings_of(&self, course: CourseId) -> RelResult<Vec<Offering>> {
        let plan = PlanBuilder::scan(&self.catalog(), "Offerings")?
            .filter(Expr::col("CourseID").eq(Expr::lit(course)))?
            .select_columns(&[
                "OfferingID",
                "Year",
                "Term",
                "InstructorID",
                "Days",
                "StartMin",
                "EndMin",
            ])?
            .build();
        let rs = self.db.run_plan(&plan)?;
        Ok(rs
            .rows
            .iter()
            .filter_map(|r| {
                Some(Offering {
                    id: r[0].as_int().ok()?,
                    course,
                    quarter: Quarter::new(
                        r[1].as_int().ok()? as i32,
                        Term::parse(r[2].as_text().ok()?)?,
                    ),
                    instructor: r[3].as_int().unwrap_or(0),
                    days: Days::parse(r[4].as_text().unwrap_or("")),
                    start_min: r[5].as_int().unwrap_or(0),
                    end_min: r[6].as_int().unwrap_or(0),
                })
            })
            .collect())
    }

    /// Direct prerequisites of a course.
    pub fn prerequisites_of(&self, course: CourseId) -> RelResult<Vec<CourseId>> {
        let plan = PlanBuilder::scan(&self.catalog(), "Prerequisites")?
            .filter(Expr::col("CourseID").eq(Expr::lit(course)))?
            .select_columns(&["PrereqID"])?
            .build();
        let rs = self.db.run_plan(&plan)?;
        Ok(rs.rows.iter().filter_map(|r| r[0].as_int().ok()).collect())
    }

    /// Students who plan to take a course and share their plans (§2.2 "we
    /// allowed students to see who is planning to take a class").
    pub fn planned_by(&self, course: CourseId) -> RelResult<Vec<StudentId>> {
        let catalog = self.catalog();
        let plan = PlanBuilder::scan_as(&catalog, "Enrollments", Some("e"))?
            .filter(
                Expr::col("CourseID")
                    .eq(Expr::lit(course))
                    .and(Expr::col("Status").eq(Expr::lit("planned"))),
            )?
            .join_on(
                PlanBuilder::scan_as(&catalog, "Students", Some("s"))?,
                JoinKind::Inner,
                "e.SuID",
                "s.SuID",
            )?
            .filter(Expr::col("SharePlans").eq(Expr::lit(true)))?
            .select_columns(&["e.SuID"])?
            .build();
        let rs = self.db.run_plan(&plan)?;
        Ok(rs.rows.iter().filter_map(|r| r[0].as_int().ok()).collect())
    }

    /// Scalar convenience: COUNT(*) of a table.
    pub fn count(&self, table: &str) -> RelResult<i64> {
        self.catalog().with_table(table, |t| t.len() as i64)
    }
}

/// The grade points an enrollment carries in `Enrollments.Points`: it
/// must be taken, with a grade that has points (CR/NC has none).
fn graded(status: EnrollStatus, grade: Option<Grade>) -> Option<f64> {
    match status {
        EnrollStatus::Taken => grade?.points(),
        EnrollStatus::Planned => None,
    }
}

fn text(v: &Value) -> String {
    match v {
        Value::Text(s) => s.clone(),
        Value::Null => String::new(),
        other => other.to_string(),
    }
}

fn opt_text(v: &Value) -> Option<String> {
    match v {
        Value::Text(s) => Some(s.clone()),
        _ => None,
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    use super::*;

    /// A small but complete campus used by the service tests: two
    /// departments, five courses with prerequisites and offerings, four
    /// students with enrollments, comments, official grades.
    pub fn small_campus() -> CourseRankDb {
        let db = CourseRankDb::new();
        db.insert_department("CS", "Computer Science", "Engineering")
            .unwrap();
        db.insert_department("HIST", "History", "Humanities")
            .unwrap();

        let courses = [
            (
                101,
                "CS",
                "Introduction to Programming",
                "java basics for everyone",
                5,
            ),
            (
                102,
                "CS",
                "Programming Abstractions",
                "data structures in c++",
                5,
            ),
            (
                103,
                "CS",
                "Operating Systems",
                "processes threads storage",
                4,
            ),
            (201, "HIST", "Medieval Europe", "knights and castles", 4),
            (
                202,
                "HIST",
                "History of Science",
                "famous greek scientists and more",
                3,
            ),
        ];
        for (id, dep, title, desc, units) in courses {
            db.insert_course(&Course {
                id,
                dep: dep.into(),
                title: title.into(),
                description: desc.into(),
                units,
                url: format!("https://courses.example/{id}"),
            })
            .unwrap();
        }
        db.insert_prerequisite(102, 101).unwrap();
        db.insert_prerequisite(103, 102).unwrap();

        db.insert_instructor(1, "Prof. Knuth", "CS").unwrap();
        db.insert_instructor(2, "Prof. Bloch", "HIST").unwrap();

        let mut oid = 0;
        #[allow(clippy::explicit_counter_loop)]
        for (course, year, term, days, start, end) in [
            (101, 2008, Term::Autumn, "MWF", 540, 650),
            (102, 2009, Term::Winter, "MWF", 540, 650),
            (103, 2009, Term::Spring, "TTh", 600, 710),
            (201, 2008, Term::Autumn, "MWF", 560, 670), // overlaps 101
            (202, 2008, Term::Autumn, "TTh", 540, 650),
        ] {
            oid += 1;
            db.insert_offering(&Offering {
                id: oid,
                course,
                quarter: Quarter::new(year, term),
                instructor: if course < 200 { 1 } else { 2 },
                days: Days::parse(days),
                start_min: start,
                end_min: end,
            })
            .unwrap();
        }

        for (id, name, class, major, share) in [
            (444, "Sally", "2011", Some("CS"), true),
            (2, "Bob", "2011", Some("CS"), true),
            (3, "Ann", "2010", Some("HIST"), false),
            (4, "Tim", "2012", None, true),
        ] {
            db.insert_student(&Student {
                id,
                name: name.into(),
                class: class.into(),
                major: major.map(str::to_owned),
                gpa: None,
                share_plans: share,
            })
            .unwrap();
        }

        for (student, course, year, term, grade, status) in [
            (
                444,
                101,
                2008,
                Term::Autumn,
                Some(Grade::A),
                EnrollStatus::Taken,
            ),
            (
                444,
                202,
                2008,
                Term::Autumn,
                Some(Grade::BPlus),
                EnrollStatus::Taken,
            ),
            (444, 102, 2009, Term::Winter, None, EnrollStatus::Planned),
            (
                2,
                101,
                2008,
                Term::Autumn,
                Some(Grade::AMinus),
                EnrollStatus::Taken,
            ),
            (2, 102, 2009, Term::Winter, None, EnrollStatus::Planned),
            (
                3,
                201,
                2008,
                Term::Autumn,
                Some(Grade::A),
                EnrollStatus::Taken,
            ),
            (
                4,
                101,
                2008,
                Term::Autumn,
                Some(Grade::B),
                EnrollStatus::Taken,
            ),
        ] {
            db.insert_enrollment(&Enrollment {
                student,
                course,
                quarter: Quarter::new(year, term),
                grade,
                status,
            })
            .unwrap();
        }

        let comments = [
            (1, 444, 101, "great intro loved the java assignments", 5.0),
            (2, 2, 101, "solid but the midterm was hard", 4.0),
            (3, 4, 101, "too fast for beginners", 3.0),
            (4, 3, 201, "castles every week amazing", 4.5),
            (5, 444, 202, "greek scientists were surprisingly fun", 4.0),
        ];
        for (id, student, course, text, rating) in comments {
            db.insert_comment(&Comment {
                id,
                student,
                course,
                quarter: Quarter::new(2008, Term::Autumn),
                text: text.into(),
                rating,
                date: cr_relation::value::ymd_to_days(2008, 12, 1),
            })
            .unwrap();
        }

        // Official grades for 101 (Engineering-school disclosure).
        for (grade, count) in [(Grade::A, 40), (Grade::B, 30), (Grade::C, 10)] {
            db.insert_official_grade(101, 2008, grade, count).unwrap();
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::small_campus;
    use super::*;

    #[test]
    fn schema_creates_all_tables() {
        let db = CourseRankDb::new();
        let names = db.catalog().table_names();
        for t in [
            "departments",
            "courses",
            "prerequisites",
            "instructors",
            "offerings",
            "textbooks",
            "students",
            "users",
            "enrollments",
            "comments",
            "commentvotes",
            "officialgradedist",
            "programs",
            "requirements",
            "questions",
            "answers",
            "points",
            "facultynotes",
            "recstrategies",
        ] {
            assert!(names.contains(&t.to_string()), "missing table {t}");
        }
    }

    #[test]
    fn cr_stat_cache_reports_per_entry_survival() {
        struct Fixed;
        impl crate::cache::CacheStats for Fixed {
            fn entry_stats(&self) -> Vec<(String, usize, usize, u64, u64)> {
                vec![("k1".into(), 2, 1, 7, 3)]
            }
        }
        let db = small_campus();
        let fixed: std::sync::Arc<dyn crate::cache::CacheStats> = std::sync::Arc::new(Fixed);
        crate::cache::register_cache("test.dbstat", std::sync::Arc::downgrade(&fixed));
        let rs = db
            .database()
            .query_sql(
                "SELECT entry, deps, keyed_deps, spared, delta_applied \
                 FROM cr_stat_cache WHERE cache = 'test.dbstat'",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        let expect = [
            cr_relation::Value::text("k1"),
            cr_relation::Value::Int(2),
            cr_relation::Value::Int(1),
            cr_relation::Value::Int(7),
            cr_relation::Value::Int(3),
        ];
        assert_eq!(rs.rows[0], expect);

        // Core labels its own table: community-visible, so a student's
        // session may select it (an anonymous one may not).
        use cr_relation::plan::flow::{check_disclosure, Principal, Sensitivity};
        let catalog = db.database().catalog();
        let policy = catalog.table_policy("cr_stat_cache").expect("labeled");
        assert_eq!(policy.default_label, Sensitivity::Community);
        let plan = cr_relation::sql::plan_query("SELECT cache, entry FROM cr_stat_cache", &catalog)
            .unwrap();
        let student = check_disclosure(&plan, &catalog, &Principal::Student(Some(444)));
        assert!(student.is_empty(), "{student}");
        assert!(check_disclosure(&plan, &catalog, &Principal::Anonymous).has_errors());
    }

    #[test]
    fn course_roundtrip() {
        let db = small_campus();
        let c = db.course(101).unwrap().unwrap();
        assert_eq!(c.title, "Introduction to Programming");
        assert_eq!(c.units, 5);
        assert!(db.course(999).unwrap().is_none());
    }

    #[test]
    fn student_roundtrip() {
        let db = small_campus();
        let s = db.student(444).unwrap().unwrap();
        assert_eq!(s.name, "Sally");
        assert_eq!(s.major.as_deref(), Some("CS"));
        assert!(s.share_plans);
        let ann = db.student(3).unwrap().unwrap();
        assert!(!ann.share_plans);
    }

    #[test]
    fn enrollments_typed_read() {
        let db = small_campus();
        let es = db.enrollments_of(444).unwrap();
        assert_eq!(es.len(), 3);
        let taken: Vec<_> = es
            .iter()
            .filter(|e| e.status == EnrollStatus::Taken)
            .collect();
        assert_eq!(taken.len(), 2);
        assert!(taken.iter().any(|e| e.grade == Some(Grade::A)));
    }

    #[test]
    fn offerings_and_prereqs() {
        let db = small_campus();
        let of = db.offerings_of(101).unwrap();
        assert_eq!(of.len(), 1);
        assert_eq!(of[0].quarter, Quarter::new(2008, Term::Autumn));
        assert_eq!(of[0].days, Days::MWF);
        assert_eq!(db.prerequisites_of(102).unwrap(), vec![101]);
        assert!(db.prerequisites_of(101).unwrap().is_empty());
    }

    #[test]
    fn planned_by_respects_opt_out() {
        let db = small_campus();
        // Sally and Bob both plan 102 and share; Ann shares nothing.
        let mut who = db.planned_by(102).unwrap();
        who.sort();
        assert_eq!(who, vec![2, 444]);
        // Ann opts out: add a plan for her, it must not appear.
        db.insert_enrollment(&Enrollment {
            student: 3,
            course: 102,
            quarter: Quarter::new(2009, Term::Winter),
            grade: None,
            status: EnrollStatus::Planned,
        })
        .unwrap();
        let who = db.planned_by(102).unwrap();
        assert!(!who.contains(&3));
    }

    #[test]
    fn duplicate_enrollment_rejected() {
        let db = small_campus();
        let dup = Enrollment {
            student: 444,
            course: 101,
            quarter: Quarter::new(2008, Term::Autumn),
            grade: Some(Grade::A),
            status: EnrollStatus::Taken,
        };
        assert!(db.insert_enrollment(&dup).is_err());
    }

    #[test]
    fn durable_open_bootstraps_recovers_and_checkpoints() {
        let backend = cr_storage::MemBackend::new();
        let cfg = StorageConfig::default();
        {
            let (db, report) =
                CourseRankDb::open_with_backend(Arc::new(backend.clone()), cfg).unwrap();
            assert_eq!(report, RecoveryReport::default(), "fresh store");
            db.insert_department("CS", "Computer Science", "Engineering")
                .unwrap();
            db.insert_course(&Course {
                id: 101,
                dep: "CS".into(),
                title: "Intro".into(),
                description: "basics".into(),
                units: 5,
                url: String::new(),
            })
            .unwrap();
        }
        // Crash-restart before any snapshot: WAL-only recovery.
        let (db, report) = CourseRankDb::open_with_backend(Arc::new(backend.clone()), cfg).unwrap();
        assert!(report.replayed_records > 0);
        assert_eq!(db.course(101).unwrap().unwrap().title, "Intro");
        assert_eq!(db.count("Departments").unwrap(), 1);
        let snap_seq = db.checkpoint().unwrap();
        assert_eq!(snap_seq, Some(0));
        drop(db);
        // Restart again: snapshot restore, nothing to replay.
        let (db, report) = CourseRankDb::open_with_backend(Arc::new(backend.clone()), cfg).unwrap();
        assert_eq!(report.snapshot_seq, Some(0));
        assert_eq!(report.replayed_records, 0);
        assert_eq!(db.course(101).unwrap().unwrap().units, 5);
        // In-memory databases report no storage.
        assert!(CourseRankDb::new().storage().is_none());
        assert_eq!(CourseRankDb::new().checkpoint().unwrap(), None);
    }

    #[test]
    fn counts_match_paper_shape() {
        let db = small_campus();
        assert_eq!(db.count("Courses").unwrap(), 5);
        assert_eq!(db.count("Comments").unwrap(), 5);
        assert_eq!(db.count("Students").unwrap(), 4);
    }
}
