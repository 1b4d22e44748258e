//! Crash-recovery properties.
//!
//! The durability contract: for **any** mutation sequence and **any**
//! crash point (measured in persisted bytes, so crashes land mid-frame,
//! mid-snapshot, mid-anything), the recovered state equals the state
//! after some *prefix* of the applied mutations — never a torn mix, and
//! never an invented row. On top of the raw engine property, the
//! CourseRank end-to-end test checks that a recovered instance is
//! indistinguishable from a fresh assemble over the same prefix: tables
//! (including physical row ids), search hits, and recommendations all
//! match, and `storage.replay.*` metrics land in `metrics_snapshot()`.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use courserank::db::{Comment, Course, CourseRankDb, Student};
use courserank::model::{Quarter, Term};
use courserank::CourseRank;
use cr_relation::row::{Row, RowId};
use cr_storage::snapshot::Cut;
use cr_storage::{FaultyBackend, MemBackend, Storage, StorageConfig};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Engine-level property: arbitrary ops × arbitrary crash byte
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    /// Update the value of the n-th live key (modulo), if any.
    Update(usize, i64),
    /// Delete the n-th live key (modulo), if any.
    Delete(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..50, -100i64..100).prop_map(|(k, v)| Op::Insert(k, v)),
        (0usize..8, -100i64..100).prop_map(|(n, v)| Op::Update(n, v)),
        (0usize..8).prop_map(Op::Delete),
    ]
}

/// Table contents as `(rid, id, v)` triples — physical row ids included
/// so a "prefix" must match byte-for-byte, not just set-wise. `None`
/// means the table does not exist (crash before its DDL survived).
type TableState = Option<Vec<(u64, i64, i64)>>;

fn observe(db: &cr_relation::Database) -> TableState {
    if !db.catalog().has_table("t") {
        return None;
    }
    Some(
        db.catalog()
            .with_table("t", |t| {
                t.scan()
                    .map(|(rid, r)| (rid.0, r[0].as_int().unwrap(), r[1].as_int().unwrap()))
                    .collect()
            })
            .unwrap(),
    )
}

/// Where in an op sequence the run checkpoints and restarts.
#[derive(Debug, Clone)]
struct Schedule {
    /// Checkpoint after these ops (positions past the end never fire).
    checkpoints: Vec<usize>,
    /// Drop the store and reopen it from its files after this op, so
    /// later checkpoints write deltas over a recovered chain.
    reopen_at: usize,
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    (proptest::collection::vec(0usize..50, 0..5), 0usize..50).prop_map(
        |(checkpoints, reopen_at)| Schedule {
            checkpoints,
            reopen_at,
        },
    )
}

/// Run the op sequence against a durable database, checkpointing and
/// reopening per `schedule`. Records the observable state after the DDL
/// and after every op. Mutation failures (duplicate keys, …),
/// checkpoint failures (crash mid-snapshot) and a failed reopen (crash
/// before it) are allowed — the state timeline simply doesn't advance
/// for them. Returns the timeline and the live store, if still open.
fn run_ops(
    backend: Arc<dyn cr_storage::StorageBackend>,
    ops: &[Op],
    schedule: &Schedule,
) -> (
    Vec<TableState>,
    Option<(Arc<Storage>, cr_relation::Database)>,
) {
    let mut states = vec![None]; // before any DDL
    let Ok((mut storage, mut db, _)) = Storage::open(backend.clone(), StorageConfig::default())
    else {
        return (states, None);
    };
    if db
        .execute_sql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .is_err()
    {
        return (states, None);
    }
    states.push(observe(&db));
    let mut keys: Vec<i64> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                if db
                    .execute_sql(&format!("INSERT INTO t VALUES ({k}, {v})"))
                    .is_ok()
                {
                    keys.push(*k);
                }
            }
            Op::Update(n, v) => {
                if let Some(k) = pick(&keys, *n) {
                    let _ = db.execute_sql(&format!("UPDATE t SET v = {v} WHERE id = {k}"));
                }
            }
            Op::Delete(n) => {
                if let Some(k) = pick(&keys, *n) {
                    let _ = db.execute_sql(&format!("DELETE FROM t WHERE id = {k}"));
                    keys.retain(|x| x != &k);
                }
            }
        }
        states.push(observe(&db));
        for _ in schedule.checkpoints.iter().filter(|&&c| c == i) {
            let _ = storage.checkpoint();
        }
        if i == schedule.reopen_at {
            drop((storage, db));
            match Storage::open(backend.clone(), StorageConfig::default()) {
                Ok((s, d, _)) => (storage, db) = (s, d),
                Err(_) => return (states, None),
            }
        }
    }
    (states, Some((storage, db)))
}

fn pick(keys: &[i64], n: usize) -> Option<i64> {
    if keys.is_empty() {
        None
    } else {
        Some(keys[n % keys.len()])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Crash bytes land anywhere: inside WAL frames, inside a base or a
    /// delta, between links, in a delta written over a chain recovered
    /// by the mid-run reopen, and during compaction into a new base.
    #[test]
    fn any_crash_point_recovers_a_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        schedule in schedule_strategy(),
        cut_points in proptest::collection::vec(0.0f64..1.0, 4),
    ) {
        // Baseline: same ops, no fault. Timeline of every prefix state.
        let baseline = MemBackend::new();
        let (states, _) = run_ops(Arc::new(baseline.clone()), &ops, &schedule);
        let total = baseline.total_bytes();

        // Sanity: full recovery lands on the final state.
        let (_, recovered_db, _) =
            Storage::open(Arc::new(baseline.clone()), StorageConfig::default()).unwrap();
        prop_assert_eq!(&observe(&recovered_db), states.last().unwrap());

        for cut in cut_points {
            let budget = (cut * total as f64) as u64;
            // Deterministic re-run: identical byte stream, cut short.
            let faulty = Arc::new(FaultyBackend::crash_after_bytes(budget));
            run_ops(faulty.clone(), &ops, &schedule);
            let (_, db, report) =
                Storage::open(Arc::new(faulty.surviving()), StorageConfig::default()).unwrap();
            let got = observe(&db);
            prop_assert!(
                states.contains(&got),
                "crash at byte {budget}/{total}: recovered state {got:?} \
                 is not any prefix state (report {report:?})"
            );
        }
    }

    /// The chain oracle: recovering base + deltas, with no WAL tail to
    /// replay, and re-encoding the result as a base gives the bytes of a
    /// base of the live cut at the last checkpoint.
    #[test]
    fn recovered_chain_equals_a_base_of_the_last_cut(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        schedule in schedule_strategy(),
    ) {
        let backend = MemBackend::new();
        let (_, live) = run_ops(Arc::new(backend.clone()), &ops, &schedule);
        let (storage, db) = live.unwrap();
        storage.checkpoint().unwrap();
        let expected = Cut::pin(&db.catalog()).encode_base(0, 0);
        let (_, recovered, report) =
            Storage::open(Arc::new(backend.clone()), StorageConfig::default()).unwrap();
        prop_assert_eq!(report.replayed_records, 0);
        prop_assert_eq!(Cut::pin(&recovered.catalog()).encode_base(0, 0), expected);
    }
}

// ---------------------------------------------------------------------
// CourseRank end-to-end: populate → crash mid-WAL → recover → compare
// ---------------------------------------------------------------------

/// The post-checkpoint mutation tail, in WAL order.
#[derive(Debug, Clone)]
enum CampusOp {
    Course(Course),
    Comment(Comment),
}

fn base_campus(db: &CourseRankDb) {
    db.insert_department("CS", "Computer Science", "Engineering")
        .unwrap();
    for (id, name) in [(1, "Sally"), (2, "Bob")] {
        db.insert_student(&Student {
            id,
            name: name.into(),
            class: "2011".into(),
            major: Some("CS".into()),
            gpa: None,
            share_plans: true,
        })
        .unwrap();
    }
}

fn tail_ops() -> Vec<CampusOp> {
    let mut ops = Vec::new();
    let topics = [
        "databases",
        "compilers",
        "graphics",
        "networks",
        "security",
        "robotics",
    ];
    for (i, topic) in topics.iter().enumerate() {
        let id = 101 + i as i64;
        ops.push(CampusOp::Course(Course {
            id,
            dep: "CS".into(),
            title: format!("Introduction to {topic}"),
            description: format!("all about {topic} and more {topic}"),
            units: 3 + (i as i64 % 3),
            url: format!("https://courses.example/{id}"),
        }));
        ops.push(CampusOp::Comment(Comment {
            id: 1 + i as i64,
            student: 1 + (i as i64 % 2),
            course: id,
            quarter: Quarter::new(2008, Term::Autumn),
            text: format!("loved the {topic} assignments"),
            rating: 3.0 + (i as f64 % 2.0),
            date: cr_relation::value::ymd_to_days(2008, 12, 1),
        }));
    }
    ops
}

fn apply(db: &CourseRankDb, op: &CampusOp) {
    match op {
        CampusOp::Course(c) => db.insert_course(c).unwrap(),
        CampusOp::Comment(c) => db.insert_comment(c).unwrap(),
    }
}

fn table_rows(db: &CourseRankDb, table: &str) -> Vec<(RowId, Row)> {
    db.catalog()
        .with_table(table, |t| {
            t.scan().map(|(rid, r)| (rid, r.clone())).collect()
        })
        .unwrap()
}

/// Populate a durable campus: base data, checkpoint, then the op tail.
/// Returns bytes persisted at the checkpoint boundary.
fn populate(backend: Arc<dyn cr_storage::StorageBackend>, probe: &MemBackend) -> u64 {
    let (db, _) = CourseRankDb::open_with_backend(backend, StorageConfig::default()).unwrap();
    base_campus(&db);
    let _ = db.checkpoint();
    let boundary = probe.total_bytes();
    for op in tail_ops() {
        apply(&db, &op);
    }
    boundary
}

#[test]
fn courserank_crash_recovery_end_to_end() {
    cr_obs::install();

    // Baseline run, fully durable.
    let baseline = MemBackend::new();
    let boundary = populate(Arc::new(baseline.clone()), &baseline);
    let total = baseline.total_bytes();
    assert!(total > boundary);
    let ops = tail_ops();

    // Crash at arbitrary byte offsets inside the post-checkpoint WAL
    // tail (the proptest above covers offsets inside the base + snapshot).
    for cut in [0.0, 0.21, 0.5, 0.77, 0.93, 1.0] {
        let budget = boundary + ((total - boundary) as f64 * cut) as u64;
        let faulty = Arc::new(FaultyBackend::crash_after_bytes(budget));
        {
            // Re-runs are deterministic, so the faulty run persists
            // exactly the baseline's first `budget` bytes.
            let (db, _) =
                CourseRankDb::open_with_backend(faulty.clone(), StorageConfig::default()).unwrap();
            base_campus(&db);
            let _ = db.checkpoint();
            for op in &ops {
                apply(&db, op);
            }
        }

        // Recover, then find which prefix of the op tail survived.
        let (recovered, report) =
            CourseRankDb::open_with_backend(Arc::new(faulty.surviving()), StorageConfig::default())
                .unwrap();
        let n_courses = recovered.count("Courses").unwrap() as usize;
        let n_comments = recovered.count("Comments").unwrap() as usize;
        let k = n_courses + n_comments;
        assert!(k <= ops.len(), "recovered more ops than were applied");
        if cut == 1.0 {
            assert_eq!(k, ops.len(), "nothing may be lost without a crash");
        }

        // Rebuild the expected state: fresh in-memory db + the same
        // prefix. Tables must match physically (row ids included).
        let expected = CourseRankDb::new();
        base_campus(&expected);
        for op in &ops[..k] {
            apply(&expected, op);
        }
        for table in ["Courses", "Comments", "Students", "Departments"] {
            assert_eq!(
                table_rows(&recovered, table),
                table_rows(&expected, table),
                "cut={cut}: {table} diverges from the pre-crash prefix"
            );
        }

        // The prefix property itself: op k is exactly the first op whose
        // effect is absent, so prefix rows already matched above; spot
        // check that nothing beyond k leaked in.
        assert_eq!(report.snapshot_seq, Some(0), "checkpointed base restores");

        // Search and recommendations over the recovered instance are
        // identical to a fresh assemble over the same state.
        let app_recovered = CourseRank::assemble(recovered).unwrap();
        let app_expected = CourseRank::assemble(expected).unwrap();
        for query in ["databases", "robotics", "introduction"] {
            let (hits_r, _) = app_recovered.search().search(query, 10).unwrap();
            let (hits_e, _) = app_expected.search().search(query, 10).unwrap();
            assert_eq!(hits_r, hits_e, "cut={cut}: search({query}) diverges");
        }
        {
            use courserank::services::recs::RecOptions;
            let recs_r = app_recovered
                .recs()
                .recommend_courses(1, &RecOptions::default())
                .unwrap();
            let recs_e = app_expected
                .recs()
                .recommend_courses(1, &RecOptions::default())
                .unwrap();
            assert_eq!(recs_r, recs_e, "cut={cut}: recommendations diverge");
        }

        // Replay observability: the storage metrics made it into the
        // app-level snapshot.
        let snap = app_recovered.metrics_snapshot();
        assert!(
            snap.counter("storage.recovery.runs").unwrap_or(0) >= 1,
            "storage.recovery.runs missing from metrics_snapshot()"
        );
        assert!(
            snap.counter("storage.replay.records").is_some(),
            "storage.replay.records missing from metrics_snapshot()"
        );
        assert!(
            snap.counter("storage.wal.appends").unwrap_or(0) >= 1,
            "storage.wal.appends missing from metrics_snapshot()"
        );
    }
}

#[test]
fn bit_rot_in_wal_tail_is_cut_not_applied() {
    // Flip one bit in the WAL tail: recovery must drop the damaged
    // frame and everything after it, keeping the clean prefix.
    let backend = MemBackend::new();
    let (db, _) =
        CourseRankDb::open_with_backend(Arc::new(backend.clone()), StorageConfig::default())
            .unwrap();
    base_campus(&db);
    let ops = tail_ops();
    for op in &ops {
        apply(&db, op);
    }
    drop(db);
    // Corrupt a byte ~70% into the single WAL file.
    let dump = backend.dump();
    let (wal_name, wal_bytes) = dump
        .iter()
        .find(|(name, _)| name.starts_with("wal-"))
        .expect("wal file exists");
    backend.corrupt(wal_name, wal_bytes.len() * 7 / 10, 0x20);

    let (recovered, report) =
        CourseRankDb::open_with_backend(Arc::new(backend.clone()), StorageConfig::default())
            .unwrap();
    assert!(report.truncated_bytes > 0, "corruption must truncate");
    let k = (recovered.count("Courses").unwrap() + recovered.count("Comments").unwrap()) as usize;
    assert!(k < ops.len(), "damaged tail cannot fully survive");
    let expected = CourseRankDb::new();
    base_campus(&expected);
    for op in &ops[..k] {
        apply(&expected, op);
    }
    assert_eq!(
        table_rows(&recovered, "Courses"),
        table_rows(&expected, "Courses")
    );
    assert_eq!(
        table_rows(&recovered, "Comments"),
        table_rows(&expected, "Comments")
    );
}

/// Grade points are written with the enrollment row, so grades-basis
/// recommendations served just before a crash are served unchanged after
/// recovery — whether the enrollments were recovered from the WAL alone
/// or from a checkpoint plus the WAL — with no rebuild step in between.
#[test]
fn grades_recommendations_survive_a_crash_unchanged() {
    use courserank::db::{EnrollStatus, Enrollment};
    use courserank::model::Grade;
    use courserank::services::recs::{RecOptions, SimilarityBasis};

    let opts = RecOptions {
        basis: SimilarityBasis::Grades,
        min_common: 1,
        exclude_taken: false,
        ..RecOptions::default()
    };
    let grades = [Grade::A, Grade::BPlus, Grade::B, Grade::C, Grade::AMinus];
    for checkpoint in [false, true] {
        let backend = MemBackend::new();
        let open = || {
            CourseRank::open_with_backend(Arc::new(backend.clone()), StorageConfig::default())
                .unwrap()
                .0
        };
        let served = {
            let app = open();
            let db = app.db();
            base_campus(db);
            for id in 3..=6 {
                db.insert_student(&Student {
                    id,
                    name: format!("s{id}"),
                    class: "2011".into(),
                    major: Some("CS".into()),
                    gpa: None,
                    share_plans: true,
                })
                .unwrap();
            }
            for op in tail_ops() {
                apply(db, &op);
            }
            for student in 1..=6i64 {
                if checkpoint && student == 4 {
                    db.checkpoint().unwrap();
                }
                for course in 101..=106i64 {
                    let pick = (student * 7 + course * 3) as usize;
                    let status = if pick.is_multiple_of(5) {
                        EnrollStatus::Planned
                    } else {
                        EnrollStatus::Taken
                    };
                    db.insert_enrollment(&Enrollment {
                        student,
                        course,
                        quarter: Quarter::new(2008, Term::Autumn),
                        grade: Some(grades[pick % grades.len()]),
                        status,
                    })
                    .unwrap();
                }
            }
            let served: Vec<_> = (1..=6)
                .map(|s| app.recs().recommend_courses(s, &opts).unwrap())
                .collect();
            assert!(served.iter().any(|recs| !recs.is_empty()), "{served:?}");
            served
            // Dropped without a shutdown: the crash.
        };
        let app = open();
        let recovered: Vec<_> = (1..=6)
            .map(|s| app.recs().recommend_courses(s, &opts).unwrap())
            .collect();
        assert_eq!(recovered, served, "checkpoint={checkpoint}");
    }
}

/// A store written before grade points moved onto the enrollment row has
/// an `Enrollments` without `Points`. Nothing migrates it: opening it
/// fails, and the error names the missing column.
#[test]
fn a_store_without_enrollment_points_fails_to_open() {
    let backend = MemBackend::new();
    {
        let (_st, db, _) =
            Storage::open(Arc::new(backend.clone()), StorageConfig::default()).unwrap();
        db.execute_sql(
            "CREATE TABLE Enrollments (SuID INT, CourseID INT, Year INT, Term TEXT, \
             Grade TEXT, Status TEXT NOT NULL, PRIMARY KEY (SuID, CourseID, Year, Term))",
        )
        .unwrap();
        db.execute_sql("INSERT INTO Enrollments VALUES (1, 101, 2008, 'Aut', 'A', 'taken')")
            .unwrap();
    }
    let err = match CourseRankDb::open_with_backend(Arc::new(backend), StorageConfig::default()) {
        Ok(_) => panic!("a store without Enrollments.Points opened"),
        Err(e) => e.to_string(),
    };
    assert!(
        err.contains("Enrollments") && err.contains("Points"),
        "{err}"
    );
}
