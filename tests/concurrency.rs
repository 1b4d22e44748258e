//! Concurrency: CourseRank's workload is read-mostly (searches,
//! recommendations, planner reads) with comment/enrollment writes mixed
//! in. The catalog takes per-table reader-writer locks; these tests drive
//! the assembled system from many threads at once.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread;

use courserank::db::Comment;
use courserank::model::{Quarter, Term};
use courserank::services::recs::RecOptions;
use courserank::CourseRank;
use cr_datagen::ScaleConfig;

#[test]
fn concurrent_reads_and_writes() {
    let (db, _) = cr_datagen::generate(&ScaleConfig::tiny()).unwrap();
    let app = CourseRank::assemble(db).unwrap();
    let next_comment_id = Arc::new(AtomicI64::new(1_000_000));

    let mut handles = Vec::new();

    // 4 reader threads: search + cloud + recommendations + planner.
    for t in 0..4 {
        let app = app.clone();
        handles.push(thread::spawn(move || {
            for i in 0..20 {
                let query = ["theory", "history", "data", "politics"][(t + i) % 4];
                let (_, results, _) = app.search().search_with_cloud(query, None, 5).unwrap();
                assert!(results.total < 10_000);
                let _ = app
                    .recs()
                    .recommend_courses(
                        (t as i64 % 20) + 1,
                        &RecOptions {
                            min_common: 1,
                            ..RecOptions::default()
                        },
                    )
                    .unwrap();
                let _ = app.planner().report((t as i64 % 20) + 1).unwrap();
            }
        }));
    }

    // 2 writer threads: comments + votes.
    for t in 0..2 {
        let app = app.clone();
        let ids = Arc::clone(&next_comment_id);
        handles.push(thread::spawn(move || {
            for i in 0..30 {
                let id = ids.fetch_add(1, Ordering::Relaxed);
                app.db()
                    .insert_comment(&Comment {
                        id,
                        student: (t as i64) + 1,
                        course: (i as i64 % 50) + 1,
                        quarter: Quarter::new(2008, Term::Autumn),
                        text: format!("concurrent comment {id}"),
                        rating: 4.0,
                        date: 0,
                    })
                    .unwrap();
                app.comments().vote(id, 99, true).unwrap();
            }
        }));
    }

    for h in handles {
        h.join().expect("no thread panicked");
    }

    // All writes landed.
    let n = next_comment_id.load(Ordering::Relaxed) - 1_000_000;
    let rs = app
        .db()
        .database()
        .query_sql("SELECT COUNT(*) AS n FROM Comments WHERE CommentID >= 1000000")
        .unwrap();
    assert_eq!(rs.scalar().unwrap().as_int().unwrap(), n);
}

#[test]
fn concurrent_incentive_awards_stay_consistent() {
    let (db, _) = cr_datagen::generate(&ScaleConfig::tiny()).unwrap();
    let app = CourseRank::assemble(db).unwrap();
    let mut handles = Vec::new();
    // Many threads race to award daily logins for distinct users — each
    // (user, day) must grant exactly once-per-day semantics per user.
    for user in 0..8i64 {
        let app = app.clone();
        handles.push(thread::spawn(move || {
            let mut granted = 0;
            for day in 0..10 {
                granted += app
                    .incentives()
                    .award(
                        7_000 + user,
                        courserank::services::incentives::PointEvent::DailyLogin,
                        day,
                    )
                    .unwrap();
            }
            granted
        }));
    }
    let mut total = 0;
    for h in handles {
        total += h.join().unwrap();
    }
    assert_eq!(total, 8 * 10);
    for user in 0..8i64 {
        assert_eq!(app.incentives().score(7_000 + user).unwrap(), 10);
    }
}
