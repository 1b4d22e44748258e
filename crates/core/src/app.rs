//! The CourseRank application facade — Figure 2 in code.
//!
//! Wires every component over one shared database: search/CourseCloud,
//! FlexRecs recommendations, the planner, the requirement tracker, grades,
//! comments, the Q&A forum, incentives, privacy, and authentication.

use std::sync::Arc;

use cr_relation::RelResult;
use cr_storage::{RecoveryReport, StorageResult};

use crate::auth::Auth;
use crate::db::CourseRankDb;
use crate::model::CourseId;
use crate::services::comments::Comments;
use crate::services::faculty::Faculty;
use crate::services::forum::Forum;
use crate::services::grades::Grades;
use crate::services::incentives::Incentives;
use crate::services::planner::Planner;
use crate::services::privacy::Privacy;
use crate::services::recs::Recommender;
use crate::services::requirements::RequirementTracker;
use crate::services::search::CourseCloud;
use crate::services::strategies::Strategies;
use crate::services::textbooks::Textbooks;

/// The assembled system.
#[derive(Clone)]
pub struct CourseRank {
    db: CourseRankDb,
    auth: Arc<Auth>,
    search: Arc<CourseCloud>,
    recs: Recommender,
    planner: Planner,
    requirements: RequirementTracker,
    grades: Grades,
    comments: Comments,
    faculty: Faculty,
    forum: Forum,
    incentives: Arc<Incentives>,
    privacy: Privacy,
    strategies: Strategies,
    textbooks: Textbooks,
}

impl CourseRank {
    /// Assemble the system over a populated database, building the search
    /// index (serially: DESIGN.md §8 says why there is no parallel build).
    pub fn assemble(db: CourseRankDb) -> RelResult<Self> {
        let privacy = Privacy::new(db.clone());
        let incentives = Incentives::new(db.clone());
        let app = CourseRank {
            auth: Arc::new(Auth::new(db.clone())),
            search: Arc::new(CourseCloud::build(db.clone())?),
            recs: Recommender::new(db.clone()),
            planner: Planner::new(db.clone()),
            requirements: RequirementTracker::new(db.clone()),
            grades: Grades::new(db.clone(), privacy.clone()),
            comments: Comments::new(db.clone()),
            faculty: Faculty::new(db.clone()),
            forum: Forum::new(db.clone()),
            incentives: Arc::new(incentives.clone()),
            privacy,
            strategies: Strategies::new(db.clone()),
            textbooks: Textbooks::new(db.clone(), incentives),
            db,
        };
        // Derived relations are materialized here, on the writer side and
        // after every service has subscribed its observers (a rebuilt
        // table carries none): requests run on read views, which can only
        // read them.
        app.recs.ensure_grade_points()?;
        Ok(app)
    }

    /// Open (or create) a durable CourseRank instance in `dir`: recover
    /// the relational state from snapshot + WAL via `cr-storage`, then
    /// assemble — the text-search index and every derived cache are
    /// rebuilt from the recovered tables, so they are exactly what a
    /// fresh [`CourseRank::assemble`] over that state would produce.
    pub fn open(dir: impl AsRef<std::path::Path>) -> StorageResult<(Self, RecoveryReport)> {
        let (db, report) = CourseRankDb::open(dir)?;
        Ok((Self::assemble(db)?, report))
    }

    /// [`CourseRank::open`] over any storage backend (tests inject
    /// in-memory and faulty ones) with explicit storage tuning.
    pub fn open_with_backend(
        backend: std::sync::Arc<dyn cr_storage::StorageBackend>,
        cfg: cr_storage::StorageConfig,
    ) -> StorageResult<(Self, RecoveryReport)> {
        let (db, report) = CourseRankDb::open_with_backend(backend, cfg)?;
        Ok((Self::assemble(db)?, report))
    }

    /// Snapshot + WAL rotation (no-op `None` for in-memory instances).
    pub fn checkpoint(&self) -> StorageResult<Option<u64>> {
        self.db.checkpoint()
    }

    /// Pin a snapshot-bound view of the whole application: one atomic
    /// catalog cut ([`CourseRankDb::snapshot`]) with every service rebound
    /// over it. Reads through the view proceed concurrently with writers
    /// on the live instance — no torn multi-table reads, no blocking —
    /// and any mutation through it fails with "catalog snapshot is
    /// read-only". This is what cr-server takes per read request.
    ///
    /// Shared with the live instance: the auth session store (logins stay
    /// valid across views), the incentives entry-id allocator, the search
    /// index (`Arc`; built once at assembly and never changed) with its
    /// cloud cache, and the versioned rec/planner caches — cache keys are table-version
    /// vectors, so snapshot hits are exactly what a live request at those
    /// versions would compute. The returned [`CatalogSnapshot`] exposes
    /// the pinned version vector for cache stamps and assertions.
    ///
    /// [`CatalogSnapshot`]: cr_relation::CatalogSnapshot
    pub fn read_view(&self) -> (CourseRank, cr_relation::CatalogSnapshot) {
        let (db, cut) = self.db.snapshot();
        let privacy = self.privacy.rebind(db.clone());
        (
            CourseRank {
                auth: Arc::clone(&self.auth),
                search: Arc::new(self.search.rebind(db.clone())),
                recs: self.recs.rebind(db.clone()),
                planner: self.planner.rebind(db.clone()),
                requirements: self.requirements.rebind(db.clone()),
                grades: self.grades.rebind(db.clone()),
                comments: self.comments.rebind(db.clone()),
                faculty: self.faculty.rebind(db.clone()),
                forum: self.forum.rebind(db.clone()),
                incentives: Arc::new(self.incentives.rebind(db.clone())),
                privacy,
                strategies: self.strategies.rebind(db.clone()),
                textbooks: self.textbooks.rebind(db.clone()),
                db,
            },
            cut,
        )
    }

    /// True for handles produced by [`CourseRank::read_view`].
    pub fn is_read_view(&self) -> bool {
        self.db.is_snapshot()
    }

    pub fn db(&self) -> &CourseRankDb {
        &self.db
    }
    pub fn auth(&self) -> &Auth {
        &self.auth
    }
    pub fn search(&self) -> &CourseCloud {
        &self.search
    }
    pub fn recs(&self) -> &Recommender {
        &self.recs
    }
    pub fn planner(&self) -> &Planner {
        &self.planner
    }
    pub fn requirements(&self) -> &RequirementTracker {
        &self.requirements
    }
    pub fn grades(&self) -> &Grades {
        &self.grades
    }
    pub fn comments(&self) -> &Comments {
        &self.comments
    }
    pub fn faculty(&self) -> &Faculty {
        &self.faculty
    }
    pub fn forum(&self) -> &Forum {
        &self.forum
    }
    pub fn incentives(&self) -> &Incentives {
        &self.incentives
    }
    pub fn privacy(&self) -> &Privacy {
        &self.privacy
    }
    pub fn strategies(&self) -> &Strategies {
        &self.strategies
    }
    pub fn textbooks(&self) -> &Textbooks {
        &self.textbooks
    }

    /// The Figure 2 component inventory — used by the architecture smoke
    /// test (E12) and the README.
    pub fn components() -> &'static [&'static str] {
        &[
            "auth (closed community, 3 constituencies)",
            "search + CourseCloud (data clouds)",
            "FlexRecs recommendations",
            "planner (conflicts, GPA, four-year plan)",
            "requirement tracker",
            "grades (official + self-reported)",
            "comments (helpfulness ranking)",
            "faculty tools (annotations, course comparison)",
            "Q&A forum (seeding + routing)",
            "incentives (points, anti-gaming caps)",
            "privacy (opt-out, k-threshold)",
            "strategy registry (admin-defined FlexRecs workflows)",
            "volunteer textbook reporting",
        ]
    }

    /// A snapshot of every process-wide metric: per-service request/error
    /// counters and latency histograms, plus the substrate metrics
    /// (`relation.*`, `textsearch.*`, `flexrecs.*`, `storage.*`). JSON via
    /// [`cr_obs::MetricsSnapshot::to_json`]; requires
    /// [`cr_obs::install`] (or `enable`) to have been called, otherwise
    /// all counters stay zero.
    pub fn metrics_snapshot(&self) -> cr_obs::MetricsSnapshot {
        cr_obs::Registry::global().snapshot()
    }

    /// The snapshot rendered in Prometheus text exposition format (what a
    /// `/metrics` endpoint would serve).
    pub fn metrics_prometheus(&self) -> String {
        self.metrics_snapshot().to_prometheus()
    }

    /// Render a course descriptor page (Figure 1, left) as text.
    pub fn course_page(&self, course: CourseId) -> RelResult<String> {
        use std::fmt::Write;
        let mut out = String::new();
        let Some(c) = self.db.course(course)? else {
            return Ok(format!("course {course} not found\n"));
        };
        let _ = writeln!(out, "=== {} — {} ({} units)", c.dep, c.title, c.units);
        let _ = writeln!(out, "{}", c.description);
        if let Some(avg) = self.comments.average_rating(course)? {
            let _ = writeln!(out, "average student rating: {avg:.1} / 5");
        }
        match self.grades.visible_distribution(course, 2008)? {
            Ok((dist, source)) => {
                let _ = writeln!(out, "grade distribution ({source}):");
                out.push_str(&dist.render());
            }
            Err(w) => {
                let _ = writeln!(out, "grade distribution withheld: {w:?}");
            }
        }
        let ranked = self.comments.ranked_for_course(course)?;
        if !ranked.is_empty() {
            let _ = writeln!(out, "top comments:");
            for r in ranked.iter().take(3) {
                let _ = writeln!(
                    out,
                    "  ({:.1}★, +{}/-{}) {}",
                    r.rating, r.helpful, r.unhelpful, r.text
                );
            }
        }
        let planned = self.db.planned_by(course)?;
        if !planned.is_empty() {
            let _ = writeln!(out, "{} students planning to take this", planned.len());
        }
        Ok(out)
    }
}

// Compile-time proof that the assembled handle crosses threads: cr-server
// shares one `CourseRank` across every session thread with no `unsafe`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CourseRank>();
    assert_send_sync::<CourseRankDb>();
    assert_send_sync::<cr_relation::Catalog>();
    assert_send_sync::<cr_relation::CatalogSnapshot>();
    assert_send_sync::<cr_relation::Database>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::test_fixtures::small_campus;

    #[test]
    fn assemble_over_fixture() {
        let app = CourseRank::assemble(small_campus()).unwrap();
        // Every component reachable and functional.
        let (hits, _) = app.search().search("programming", 10).unwrap();
        assert!(!hits.is_empty());
        let report = app.planner().report(444).unwrap();
        assert_eq!(report.quarters.len(), 2);
        assert!(app.comments().average_rating(101).unwrap().is_some());
    }

    #[test]
    fn components_list_matches_figure_2() {
        let comps = CourseRank::components();
        assert_eq!(comps.len(), 13);
        assert!(comps.iter().any(|c| c.contains("CourseCloud")));
        assert!(comps.iter().any(|c| c.contains("FlexRecs")));
    }

    #[test]
    fn metrics_snapshot_counts_service_requests() {
        cr_obs::install();
        let app = CourseRank::assemble(small_campus()).unwrap();
        let before = app
            .metrics_snapshot()
            .counter("courserank.search.requests")
            .unwrap_or(0);
        app.search().search("programming", 10).unwrap();
        app.planner().report(444).unwrap();
        let snap = app.metrics_snapshot();
        assert_eq!(snap.counter("courserank.search.requests"), Some(before + 1));
        assert!(snap.counter("courserank.planner.requests").unwrap_or(0) >= 1);
        assert!(snap
            .histogram("courserank.search.request_ns")
            .is_some_and(|h| h.count >= 1));
        let prom = app.metrics_prometheus();
        assert!(prom.contains("courserank_search_requests"));
        let json = snap.to_json();
        assert!(json.contains("\"courserank.planner.requests\""));
    }

    #[test]
    fn plan_validate_counters_in_snapshot() {
        cr_obs::install();
        let app = CourseRank::assemble(small_campus()).unwrap();
        let reg = app.strategies();
        let wf = cr_flexrecs::templates::user_cf(
            &cr_flexrecs::templates::SchemaMap::default(),
            crate::services::strategies::STUDENT_PLACEHOLDER,
            10,
            10,
            1,
            false,
        );
        let before = app
            .metrics_snapshot()
            .counter("plan.validate.runs")
            .unwrap_or(0);
        reg.define("cf", "", &wf).unwrap();
        reg.lint("cf", 444).unwrap();
        let snap = app.metrics_snapshot();
        assert!(
            snap.counter("plan.validate.runs").unwrap_or(0) > before,
            "validation cost must be observable in the metrics snapshot"
        );
    }

    #[test]
    fn cache_metrics_in_snapshot() {
        use crate::services::recs::RecOptions;

        cr_obs::install();
        let app = CourseRank::assemble(small_campus()).unwrap();
        let before = app.metrics_snapshot();
        let b_hits = before.counter("courserank.reccache.hits").unwrap_or(0);
        let b_misses = before.counter("courserank.reccache.misses").unwrap_or(0);

        // Miss then hit on the same recommendation request.
        let opts = RecOptions::default();
        let a = app.recs().recommend_courses(444, &opts).unwrap();
        let b = app.recs().recommend_courses(444, &opts).unwrap();
        assert_eq!(a, b, "cached result must match the computed one");

        let snap = app.metrics_snapshot();
        assert!(
            snap.counter("courserank.reccache.misses").unwrap_or(0) > b_misses,
            "first request must miss"
        );
        assert!(
            snap.counter("courserank.reccache.hits").unwrap_or(0) > b_hits,
            "second request must hit"
        );
    }

    #[test]
    fn read_view_pins_state_and_rejects_writes() {
        use crate::db::Comment;
        use crate::model::{Quarter, Term};

        let app = CourseRank::assemble(small_campus()).unwrap();
        assert!(!app.is_read_view());
        let (view, cut) = app.read_view();
        assert!(view.is_read_view());
        assert_eq!(cut.version_of("Comments"), Some(5));

        // Live writer proceeds; the view keeps its cut.
        app.db()
            .insert_comment(&Comment {
                id: 99,
                student: 2,
                course: 103,
                quarter: Quarter::new(2009, Term::Spring),
                text: "late-breaking".into(),
                rating: 4.0,
                date: 0,
            })
            .unwrap();
        assert_eq!(app.db().count("Comments").unwrap(), 6);
        assert_eq!(view.db().count("Comments").unwrap(), 5);

        // Every service reads the pinned cut.
        assert_eq!(view.comments().ranked_for_course(103).unwrap().len(), 0);
        let (hits, _) = view.search().search("programming", 10).unwrap();
        assert!(!hits.is_empty());
        assert!(view.course_page(101).unwrap().contains("Introduction"));

        // Mutations through the view fail loudly.
        let err = view
            .db()
            .insert_department("EE", "Electrical Engineering", "Engineering")
            .unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
    }

    #[test]
    fn course_page_renders() {
        let app = CourseRank::assemble(small_campus()).unwrap();
        let page = app.course_page(101).unwrap();
        assert!(page.contains("Introduction to Programming"));
        assert!(page.contains("average student rating"));
        assert!(page.contains("grade distribution"));
        let missing = app.course_page(424242).unwrap();
        assert!(missing.contains("not found"));
    }
}
