//! The FlexRecs facade: personalized recommendation strategies.
//!
//! §3.2: "we are implementing an interface where one can ask for
//! recommended courses, or recommended majors […], or recommended quarters
//! in which to take a given course and choose different options on how
//! recommendations will be generated (e.g., based on what 'similar'
//! students have done or the grades they have taken)."
//!
//! The admin defines strategies (workflow templates); the student picks
//! one and sets options. Every workflow executes on the unified
//! [`LogicalPlan`] pipeline — compiled, optimized, and run by the same
//! engine as SQL queries. Under the `oracle-checks` feature (and in this
//! crate's own tests) every run is cross-checked against the reference
//! interpreter in `cr_flexrecs::exec`.
//!
//! [`LogicalPlan`]: cr_relation::plan::LogicalPlan

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::{Arc, OnceLock};

use cr_flexrecs::compile::{compile, compile_and_run, run_compiled};
use cr_flexrecs::templates::{self, SchemaMap};
use cr_flexrecs::{ranking, resolve, Workflow};
use cr_relation::plan::deps::{self, PlanDeps, TableDeps};
use cr_relation::plan::LogicalPlan;
use cr_relation::{Mutation, RelError, RelResult, ResultSet, Schema, Value};

use crate::cache::{register_cache, CacheStats, VersionedCache};
use crate::db::{CourseRankDb, EnrollStatus};
use crate::model::{CourseId, StudentId};
use crate::obs::SvcMetrics;

fn metrics() -> &'static SvcMetrics {
    static M: OnceLock<SvcMetrics> = OnceLock::new();
    M.get_or_init(|| SvcMetrics::new("recs"))
}

/// Base tables course/related recommendations read.
const REC_DEPS: &[&str] = &["Comments", "Enrollments", "Courses", "Students"];

/// Major recommendations additionally join through Departments.
const MAJOR_DEPS: &[&str] = &[
    "Comments",
    "Enrollments",
    "Courses",
    "Students",
    "Departments",
];

/// How the student wants similarity computed (§3.2's "different options":
/// "based on what 'similar' students have done or the grades they have
/// taken").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimilarityBasis {
    /// Students with similar ratings (Figure 5b).
    #[default]
    Ratings,
    /// Students with similar transcripts (set overlap of courses taken).
    CoursesTaken,
    /// Students with similar *grades*: "a student may want to base her
    /// recommendations on people with similar grades, as opposed to with
    /// similar tastes" (§3).
    Grades,
}

/// Options a student can set on the recommendation page.
#[derive(Debug, Clone)]
pub struct RecOptions {
    pub basis: SimilarityBasis,
    /// Neighborhood size.
    pub k_students: usize,
    /// How many recommendations to return.
    pub k_courses: usize,
    /// Minimum ratings in common before two students count as similar.
    pub min_common: usize,
    /// Weight neighbors by similarity (vs. plain average).
    pub weighted: bool,
    /// Hide courses the student already took.
    pub exclude_taken: bool,
}

impl Default for RecOptions {
    fn default() -> Self {
        RecOptions {
            basis: SimilarityBasis::Ratings,
            k_students: 20,
            k_courses: 10,
            min_common: 2,
            weighted: false,
            exclude_taken: true,
        }
    }
}

/// A course recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct CourseRec {
    pub course: CourseId,
    pub title: String,
    pub score: f64,
}

/// Materialized state behind one transcript-similarity (CoursesTaken)
/// recommendation: everything [`CtState::ranked`] needs to re-rank
/// without touching the catalog, so a one-comment delta can be folded in
/// by the cache observer while the writer still holds the table lock.
/// Titles are not state: the few that are returned are read when served.
///
/// The per-course sums are folded over Comments in row-id order; a
/// delta-applied insert appends to that fold (row ids are assigned
/// monotonically and never reused), so maintained aggregates are
/// bit-identical to a cold recompute.
#[derive(Debug, Clone, PartialEq)]
struct CtState {
    /// Transcript-similar students (the aggregate's key gate).
    neighbors: BTreeSet<StudentId>,
    /// Per course: (rating sum, rating count) over neighbor comments.
    agg: BTreeMap<CourseId, (f64, u64)>,
    /// Courses the requesting student already took.
    taken: BTreeSet<CourseId>,
    k_courses: usize,
    exclude_taken: bool,
}

impl CtState {
    /// Rank from the aggregates: mean rating descending, course id as
    /// the total tie-break.
    fn ranked(&self) -> Vec<(CourseId, f64)> {
        let mut ranked: Vec<(CourseId, f64)> = self
            .agg
            .iter()
            .filter(|(_, (_, n))| *n > 0)
            .map(|(c, (sum, n))| (*c, sum / *n as f64))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        if self.exclude_taken {
            ranked.retain(|(course, _)| !self.taken.contains(course));
        }
        ranked.truncate(self.k_courses);
        ranked
    }

    /// The dependency footprint of this state. The Comments dependency
    /// is the load-bearing one: keyed to the neighbor set and to the
    /// three columns the aggregate reads, it lets the observer spare the
    /// entry for every comment by a non-neighbor — the common case in a
    /// write storm.
    fn footprint(&self) -> PlanDeps {
        PlanDeps::from_iter([
            (
                "Comments",
                TableDeps::all()
                    .with_columns(["suid", "courseid", "rating"])
                    .with_key("SuID", self.neighbors.iter().map(|s| Value::Int(*s))),
            ),
            // Neighbor similarity reads every transcript; the taken set
            // reads the student's own. Whole-table is the sound cover.
            ("Enrollments", TableDeps::all()),
            ("Students", TableDeps::all()),
        ])
    }
}

/// `Rating` as the aggregate reads it: float or int accepted, NULL (and
/// anything else) contributes nothing. One helper shared by the cold
/// fold and the delta fold so the two can never disagree.
fn rating_of(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// The incremental-maintenance hook for [`CtState`]: fold a single
/// neighbor comment INSERT into the aggregates. Anything else (updates,
/// deletes, other tables) returns `None` → the entry drops and the next
/// lookup recomputes. Pure over its inputs — it runs under the table
/// write lock and must not call back into the catalog.
fn ct_delta(
    state: &Arc<CtState>,
    table: &str,
    schema: &Schema,
    mutation: &Mutation<'_>,
) -> Option<Arc<CtState>> {
    let Mutation::Insert { row, .. } = mutation else {
        return None;
    };
    if !table.eq_ignore_ascii_case("Comments") {
        return None;
    }
    let col = |name: &str| resolve(schema, name).ok();
    let suid = row.get(col("SuID")?)?.as_int().ok()?;
    if !state.neighbors.contains(&suid) {
        // The key gate normally spares these before the delta fn runs;
        // answering conservatively keeps the hook correct on its own.
        return None;
    }
    let course = row.get(col("CourseID")?)?.as_int().ok()?;
    let mut next = (**state).clone();
    if let Some(r) = rating_of(row.get(col("Rating")?)?) {
        let slot = next.agg.entry(course).or_insert((0.0, 0));
        slot.0 += r;
        slot.1 += 1;
    }
    Some(Arc::new(next))
}

/// The recommendation service.
#[derive(Debug, Clone)]
pub struct Recommender {
    db: CourseRankDb,
    map: SchemaMap,
    /// Versioned cache for course/related recommendations; shared across
    /// clones. See [`crate::cache`] for the invalidation rule.
    course_cache: Arc<VersionedCache<Vec<CourseRec>>>,
    major_cache: Arc<VersionedCache<Vec<(String, f64)>>>,
    /// Transcript-similarity recommendations keep their full aggregate
    /// state cached so the mutation observer can delta-maintain it.
    ct_cache: Arc<VersionedCache<Arc<CtState>>>,
}

impl Recommender {
    pub fn new(db: CourseRankDb) -> Self {
        let course_cache: Arc<VersionedCache<Vec<CourseRec>>> = Arc::new(VersionedCache::default());
        let major_cache: Arc<VersionedCache<Vec<(String, f64)>>> =
            Arc::new(VersionedCache::default());
        let ct_cache: Arc<VersionedCache<Arc<CtState>>> = Arc::new(VersionedCache::default());
        ct_cache.set_delta_fn(Arc::new(|_key, state, table, schema, mutation| {
            ct_delta(state, table, schema, mutation)
        }));
        // Fan every cache into the catalog's mutation stream (next to
        // the WAL observer on durable databases) so deltas advance or
        // drop entries eagerly instead of rotting until lookup.
        let catalog = db.catalog();
        VersionedCache::subscribe(&course_cache, &catalog);
        VersionedCache::subscribe(&major_cache, &catalog);
        VersionedCache::subscribe(&ct_cache, &catalog);
        for (name, stats) in [
            (
                "recs.courses",
                Arc::clone(&course_cache) as Arc<dyn CacheStats>,
            ),
            (
                "recs.majors",
                Arc::clone(&major_cache) as Arc<dyn CacheStats>,
            ),
            (
                "recs.courses_taken",
                Arc::clone(&ct_cache) as Arc<dyn CacheStats>,
            ),
        ] {
            register_cache(name, Arc::downgrade(&stats));
        }
        Recommender {
            db,
            map: SchemaMap::default(),
            course_cache,
            major_cache,
            ct_cache,
        }
    }

    /// The same service over another database handle (snapshot read
    /// views). All versioned caches are *shared* with the live service:
    /// entries are stamped with table versions, so a snapshot request
    /// hits the same entry a live request at those versions would, and
    /// entries warmed by snapshots serve later live traffic.
    pub(crate) fn rebind(&self, db: CourseRankDb) -> Self {
        Recommender {
            db,
            map: self.map.clone(),
            course_cache: Arc::clone(&self.course_cache),
            major_cache: Arc::clone(&self.major_cache),
            ct_cache: Arc::clone(&self.ct_cache),
        }
    }

    /// Per-entry survival stats of the transcript-similarity cache —
    /// `(key, deps, keyed deps, spared, delta_applied)` rows, the same
    /// shape `cr_stat_cache` reports. Lets harnesses assert maintenance
    /// behavior (spared vs delta vs dropped) without reaching into
    /// private cache state.
    pub fn ct_entry_stats(&self) -> Vec<(String, usize, usize, u64, u64)> {
        self.ct_cache.entry_stats()
    }

    /// The workflow a set of options denotes (visible to the admin UI —
    /// `workflow.explain()` renders Figure 5).
    pub fn course_workflow(&self, student: StudentId, opts: &RecOptions) -> Workflow {
        match (opts.basis, opts.weighted) {
            (SimilarityBasis::Ratings, false) => templates::user_cf(
                &self.map,
                student,
                opts.k_students,
                // Over-fetch so post-hoc exclude_taken still leaves k.
                opts.k_courses * 2 + 16,
                opts.min_common,
                false,
            ),
            (SimilarityBasis::Ratings, true) => templates::user_cf_weighted(
                &self.map,
                student,
                opts.k_students,
                opts.k_courses * 2 + 16,
                opts.min_common,
            ),
            (SimilarityBasis::CoursesTaken, _) => {
                // Transcript-similarity neighborhood, then rating lookup.
                templates::similar_students_by_courses(
                    &self.transcript_map(),
                    student,
                    opts.k_students,
                )
            }
            (SimilarityBasis::Grades, weighted) => {
                // Same Figure 5(b) shape over the grade points on the
                // enrollment rows: similarity by grade vectors, courses
                // scored by the similar students' grade points.
                let map = self.grade_map();
                if weighted {
                    templates::user_cf_weighted(
                        &map,
                        student,
                        opts.k_students,
                        opts.k_courses * 2 + 16,
                        opts.min_common,
                    )
                } else {
                    templates::user_cf(
                        &map,
                        student,
                        opts.k_students,
                        opts.k_courses * 2 + 16,
                        opts.min_common,
                        false,
                    )
                }
            }
        }
    }

    /// The schema map pointing the transcript-similarity template at
    /// Enrollments: "similar transcripts" means set overlap of courses
    /// *enrolled in*, not courses rated. This is also what makes the CT
    /// cache's key-gated Comments dependency sound — the neighbor set is
    /// a function of Enrollments and Students only, so no comment can
    /// ever move a student into or out of a cached neighborhood.
    fn transcript_map(&self) -> SchemaMap {
        SchemaMap {
            ratings_table: "Enrollments".into(),
            ..self.map.clone()
        }
    }

    /// The schema map pointing the CF templates at the grade points on
    /// the enrollment rows. Planned and ungraded enrollments carry NULL
    /// points, which the nest skips; a retaken course's points average,
    /// as a student's repeated ratings do.
    fn grade_map(&self) -> SchemaMap {
        SchemaMap {
            ratings_table: "Enrollments".into(),
            rating_value: "Points".into(),
            ..self.map.clone()
        }
    }

    /// The number of enrollments that carry grade points: the rows the
    /// grades basis reads. There is nothing to build — the points are
    /// written with the enrollment row. Kept because the benchmark's
    /// layers harness calls it; it goes with the next benchmark change.
    pub fn ensure_grade_points(&self) -> RelResult<usize> {
        self.db.catalog().with_table("Enrollments", |t| {
            let points = t.schema().index_of("Points")?;
            Ok(t.scan().filter(|(_, r)| !r[points].is_null()).count())
        })?
    }

    /// Recommend courses for a student. Results are cached by the compiled
    /// plan's fingerprint (which captures the strategy, student, and every
    /// workflow-level option) plus the post-processing knobs. Entries carry
    /// a refined dependency footprint (tables → columns → key ranges)
    /// extracted from the optimized plan, so only mutations that actually
    /// intersect the computation invalidate them; the transcript-similarity
    /// basis additionally delta-maintains its aggregate state in place.
    /// The workflow is compiled once per request and, on a miss, optimized
    /// once: the key, the run and the footprint all come from that plan.
    pub fn recommend_courses(
        &self,
        student: StudentId,
        opts: &RecOptions,
    ) -> RelResult<Vec<CourseRec>> {
        metrics().observe(|| {
            if opts.basis == SimilarityBasis::CoursesTaken {
                return self.recommend_courses_ct(student, opts);
            }
            let wf = self.course_workflow(student, opts);
            let catalog = self.db.catalog();
            let plan = compile(&wf, &catalog)?;
            let key = format!(
                "courses|{:016x}|{}|{}",
                plan.fingerprint(),
                opts.k_courses,
                opts.exclude_taken
            );
            self.course_cache
                .get_or_compute_refined(&catalog, &key, REC_DEPS, || {
                    let run = run_compiled(&wf, plan, &catalog)?;
                    let footprint = self.course_footprint(&run.plan, opts);
                    let result = self.cross_checked(&wf, run.result)?;
                    Ok((self.rank_courses(student, opts, result)?, footprint))
                })
        })
    }

    /// Transcript-similarity (CoursesTaken) recommendations, served from
    /// the delta-maintained [`CtState`] cache. Under `oracle-checks` (and
    /// in tests) every served state is re-derived cold and asserted
    /// identical — the differential proof that incremental maintenance
    /// never drifts.
    fn recommend_courses_ct(
        &self,
        student: StudentId,
        opts: &RecOptions,
    ) -> RelResult<Vec<CourseRec>> {
        let key = format!(
            "ct|{student}|{}|{}|{}",
            opts.k_students, opts.k_courses, opts.exclude_taken
        );
        let state =
            self.ct_cache
                .get_or_compute_refined(&self.db.catalog(), &key, REC_DEPS, || {
                    let state = self.compute_ct_state(student, opts)?;
                    let footprint = state.footprint();
                    Ok((Arc::new(state), footprint))
                })?;
        #[cfg(any(test, feature = "oracle-checks"))]
        {
            let cold = self.compute_ct_state(student, opts)?;
            assert_eq!(
                *state, cold,
                "delta-maintained CT state diverged from cold recompute"
            );
        }
        self.db.catalog().with_table("Courses", |t| {
            let title = t.schema().index_of("Title")?;
            Ok(state
                .ranked()
                .into_iter()
                .map(|(course, score)| CourseRec {
                    course,
                    title: t
                        .get_by_pk(&vec![Value::Int(course)])
                        .and_then(|r| r[title].as_text().ok())
                        .unwrap_or_default()
                        .to_owned(),
                    score,
                })
                .collect())
        })?
    }

    /// Cold (full) computation of the transcript-similarity state: the
    /// neighbor set from the workflow engine, then one fold over Comments
    /// in row order. The delta path appends to that fold (new rows get
    /// the next row id), so the two stay bit-identical.
    fn compute_ct_state(&self, student: StudentId, opts: &RecOptions) -> RelResult<CtState> {
        let wf = templates::similar_students_by_courses(
            &self.transcript_map(),
            student,
            opts.k_students,
        );
        let neighbors: BTreeSet<StudentId> = ranking(&self.run_workflow(&wf)?, "SuID", "sim")?
            .into_iter()
            .map(|(v, _)| v.as_int())
            .collect::<RelResult<_>>()?;
        let agg = self.neighbor_ratings(&neighbors)?;
        let taken: BTreeSet<CourseId> = if opts.exclude_taken {
            self.db
                .enrollments_of(student)?
                .into_iter()
                .filter(|e| e.status == EnrollStatus::Taken)
                .map(|e| e.course)
                .collect()
        } else {
            BTreeSet::new()
        };
        Ok(CtState {
            neighbors,
            agg,
            taken,
            k_courses: opts.k_courses,
            exclude_taken: opts.exclude_taken,
        })
    }

    /// Per course, the (rating sum, rating count) over the neighbors'
    /// comments. Only their rows are read (`comments_by_student`), but in
    /// row-id order — the order a fold over the whole table visits them,
    /// and the order [`ct_delta`] appends in — so the sums are the same
    /// floats either way.
    fn neighbor_ratings(
        &self,
        neighbors: &BTreeSet<StudentId>,
    ) -> RelResult<BTreeMap<CourseId, (f64, u64)>> {
        self.db.catalog().with_table("Comments", |t| {
            let index = t
                .index("comments_by_student")
                .ok_or_else(|| RelError::UnknownIndex("comments_by_student".into()))?;
            let (course, rating) = (
                t.schema().index_of("CourseID")?,
                t.schema().index_of("Rating")?,
            );
            let mut rids: Vec<_> = neighbors
                .iter()
                .filter_map(|s| index.get(&vec![Value::Int(*s)]))
                .flatten()
                .copied()
                .collect();
            rids.sort_unstable();
            let mut agg: BTreeMap<CourseId, (f64, u64)> = BTreeMap::new();
            for r in rids.into_iter().filter_map(|rid| t.get(rid)) {
                let Ok(course) = r[course].as_int() else {
                    continue;
                };
                if let Some(rating) = rating_of(&r[rating]) {
                    let slot = agg.entry(course).or_insert((0.0, 0));
                    slot.0 += rating;
                    slot.1 += 1;
                }
            }
            Ok(agg)
        })?
    }

    /// The refined dependency footprint of a Ratings/Grades request: the
    /// optimized plan's extracted deps unioned with what the
    /// post-processing reads outside the plan.
    fn course_footprint(&self, plan: &LogicalPlan, opts: &RecOptions) -> PlanDeps {
        let mut footprint = deps::extract_in(plan, Some(&self.db.catalog()));
        // Titles for the result page.
        footprint.add(
            "Courses",
            TableDeps::all().with_columns(["courseid", "title"]),
        );
        if opts.exclude_taken {
            footprint.add("Enrollments", TableDeps::all());
        }
        footprint
    }

    /// The post-processing of a course-recommendation run: drop taken
    /// courses if asked, keep the top `k_courses`, read their titles.
    /// The cache key names these knobs next to the plan's fingerprint,
    /// so two option sets that lower to the same plan share one entry.
    fn rank_courses(
        &self,
        student: StudentId,
        opts: &RecOptions,
        result: ResultSet,
    ) -> RelResult<Vec<CourseRec>> {
        let ranked = ranking(&result, "CourseID", "score")?;

        let taken: HashSet<CourseId> = if opts.exclude_taken {
            self.db
                .enrollments_of(student)?
                .into_iter()
                .filter(|e| e.status == EnrollStatus::Taken)
                .map(|e| e.course)
                .collect()
        } else {
            HashSet::new()
        };

        let mut out = Vec::with_capacity(opts.k_courses);
        for (id, score) in ranked {
            let course = id.as_int()?;
            if taken.contains(&course) {
                continue;
            }
            let title = self.db.course(course)?.map(|c| c.title).unwrap_or_default();
            out.push(CourseRec {
                course,
                title,
                score,
            });
            if out.len() >= opts.k_courses {
                break;
            }
        }
        Ok(out)
    }

    /// Figure 5(a): courses related to a given course by title.
    pub fn related_courses(&self, course: CourseId, k: usize) -> RelResult<Vec<CourseRec>> {
        metrics().observe(|| {
            let key = format!("related|{course}|{k}");
            self.course_cache
                .get_or_compute_refined(&self.db.catalog(), &key, REC_DEPS, || {
                    let recs = self.related_courses_inner(course, k)?;
                    // The whole computation (title match + result page)
                    // reads only Courses.
                    Ok((recs, PlanDeps::from_iter([("Courses", TableDeps::all())])))
                })
        })
    }

    fn related_courses_inner(&self, course: CourseId, k: usize) -> RelResult<Vec<CourseRec>> {
        let c = self
            .db
            .course(course)?
            .ok_or_else(|| RelError::Invalid(format!("no course {course}")))?;
        let wf = templates::related_courses(&self.map, &c.title, None, k);
        ranking(&self.run_workflow(&wf)?, "CourseID", "score")?
            .into_iter()
            .map(|(id, score)| {
                let course = id.as_int()?;
                Ok(CourseRec {
                    course,
                    title: self.db.course(course)?.map(|c| c.title).unwrap_or_default(),
                    score,
                })
            })
            .collect()
    }

    /// Recommend a major: departments ranked by how the student's
    /// neighborhood rates that department's courses.
    pub fn recommend_major(
        &self,
        student: StudentId,
        opts: &RecOptions,
    ) -> RelResult<Vec<(String, f64)>> {
        metrics().observe(|| {
            let key = format!("major|{student}|{}|{}", opts.k_students, opts.min_common);
            self.major_cache
                .get_or_compute(&self.db.catalog(), &key, MAJOR_DEPS, || {
                    self.recommend_major_inner(student, opts)
                })
        })
    }

    fn recommend_major_inner(
        &self,
        student: StudentId,
        opts: &RecOptions,
    ) -> RelResult<Vec<(String, f64)>> {
        let wf =
            templates::major_recommendation(&self.map, student, opts.k_students, opts.min_common);
        let result = self.run_workflow(&wf)?;
        let dep_idx = resolve(&result.schema, "DepID")?;
        let score_idx = resolve(&result.schema, "score")?;
        // Folded by DepID so the stable sort below leaves tied
        // departments in DepID order, the same on every call.
        let mut per_dep: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for row in &result.rows {
            let dep = match &row[dep_idx] {
                Value::Text(d) => d.clone(),
                _ => continue,
            };
            let score = match &row[score_idx] {
                Value::Float(f) => *f,
                Value::Int(i) => *i as f64,
                _ => continue,
            };
            let slot = per_dep.entry(dep).or_insert((0.0, 0));
            slot.0 += score;
            slot.1 += 1;
        }
        let mut out: Vec<(String, f64)> = per_dep
            .into_iter()
            .map(|(dep, (sum, n))| (dep, sum / n as f64))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        Ok(out)
    }

    /// Recommend a quarter for a course (ratings by term, historical).
    pub fn recommend_quarter(&self, course: CourseId) -> RelResult<Vec<(i64, String, f64, i64)>> {
        metrics().observe(|| self.recommend_quarter_inner(course))
    }

    fn recommend_quarter_inner(&self, course: CourseId) -> RelResult<Vec<(i64, String, f64, i64)>> {
        let sql = templates::quarter_recommendation_sql(&self.map, course);
        let rs = self.db.database().query_sql(&sql)?;
        Ok(rs
            .rows
            .iter()
            .filter_map(|r| {
                Some((
                    r[0].as_int().ok()?,
                    r[1].as_text().ok()?.to_owned(),
                    r[2].as_float().ok()?,
                    r[3].as_int().ok()?,
                ))
            })
            .collect())
    }

    /// Execute a workflow on the unified plan pipeline. With the
    /// `oracle-checks` feature (or under `cfg(test)`), the reference
    /// interpreter also runs and the outputs are asserted identical —
    /// the interpreter's only remaining role is as that differential
    /// oracle; production builds never pay for the second run.
    fn run_workflow(&self, wf: &Workflow) -> RelResult<ResultSet> {
        let run = compile_and_run(wf, &self.db.catalog())?;
        self.cross_checked(wf, run.result)
    }

    /// A plan run's result, asserted equal to the reference interpreter's
    /// under `oracle-checks` (see [`Recommender::run_workflow`]).
    fn cross_checked(&self, wf: &Workflow, result: ResultSet) -> RelResult<ResultSet> {
        #[cfg(any(test, feature = "oracle-checks"))]
        {
            let oracle = cr_flexrecs::execute(wf, &self.db.catalog())?;
            assert_eq!(
                result, oracle,
                "plan/interpreter divergence for workflow {}",
                wf.name
            );
        }
        #[cfg(not(any(test, feature = "oracle-checks")))]
        let _ = wf;
        Ok(result)
    }

    /// The optimized plan a workflow executes as, one operator per line —
    /// the admin UI's "what will this strategy do" view.
    pub fn explain_workflow(&self, wf: &Workflow) -> RelResult<Vec<String>> {
        cr_flexrecs::compile::explain_sql(wf, &self.db.catalog())
    }

    /// `EXPLAIN ANALYZE` for a workflow: executes it with per-operator
    /// profiling and renders the same annotated tree (rows, elapsed time,
    /// access paths) the SQL front-end produces — one renderer for both
    /// query languages.
    pub fn explain_analyze_workflow(&self, wf: &Workflow) -> RelResult<String> {
        let plan = compile(wf, &self.db.catalog())?;
        let (_, profile) = self.db.database().run_plan_instrumented(&plan)?;
        Ok(profile.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::test_fixtures::small_campus;
    use crate::db::Comment;
    use crate::model::{Quarter, Term};

    /// Extend the fixture with enough ratings for CF to act.
    fn campus_with_ratings() -> CourseRankDb {
        let db = small_campus();
        // Bob rates like Sally and also loves 102 and 103.
        let more = [
            (2, 202, 4.0),
            (2, 102, 5.0),
            (2, 103, 4.5),
            (4, 202, 2.0),
            (4, 103, 3.0),
        ];
        for (id, (student, course, rating)) in (101i64..).zip(more) {
            db.insert_comment(&Comment {
                id,
                student,
                course,
                quarter: Quarter::new(2008, Term::Autumn),
                text: "rated".into(),
                rating,
                date: 0,
            })
            .unwrap();
        }
        db
    }

    #[test]
    fn cf_recommends_unseen_courses() {
        let db = campus_with_ratings();
        let r = Recommender::new(db);
        let recs = r.recommend_courses(444, &RecOptions::default()).unwrap();
        assert!(!recs.is_empty());
        // Sally took 101 and 202 — they must not appear.
        assert!(recs.iter().all(|x| x.course != 101 && x.course != 202));
        // Bob (her twin) loves 102 → it should be recommended.
        assert!(recs.iter().any(|x| x.course == 102), "{recs:?}");
    }

    #[test]
    fn exclude_taken_toggle() {
        let db = campus_with_ratings();
        let r = Recommender::new(db);
        let opts = RecOptions {
            exclude_taken: false,
            ..RecOptions::default()
        };
        let recs = r.recommend_courses(444, &opts).unwrap();
        assert!(recs.iter().any(|x| x.course == 101));
    }

    #[test]
    fn plan_path_matches_interpreter_oracle() {
        let db = campus_with_ratings();
        let r = Recommender::new(db.clone());
        let wf = r.course_workflow(444, &RecOptions::default());
        let oracle = cr_flexrecs::execute(&wf, &db.catalog()).unwrap();
        let plan = cr_flexrecs::compile::compile_and_run(&wf, &db.catalog()).unwrap();
        assert_eq!(plan.result, oracle);
    }

    #[test]
    fn explain_analyze_uses_the_sql_renderer() {
        let db = campus_with_ratings();
        let r = Recommender::new(db.clone());
        let wf = r.course_workflow(444, &RecOptions::default());
        let rendered = r.explain_analyze_workflow(&wf).unwrap();
        // Same annotated tree shape as SQL EXPLAIN ANALYZE...
        assert!(rendered.contains("rows="), "{rendered}");
        assert!(rendered.contains("time="), "{rendered}");
        // ...including the workflow-specific operators.
        assert!(rendered.contains("Recommend"), "{rendered}");
        assert!(rendered.contains("Extend"), "{rendered}");
        let (_, sql_profile) = db
            .database()
            .explain_analyze_sql("SELECT * FROM Students")
            .unwrap();
        assert!(sql_profile.render().contains("rows="));
        // And the plan view is available to the admin UI.
        let lines = r.explain_workflow(&wf).unwrap();
        assert!(lines
            .iter()
            .any(|l| l.trim_start().starts_with("Recommend")));
    }

    #[test]
    fn transcript_basis_works() {
        let db = campus_with_ratings();
        let r = Recommender::new(db);
        let opts = RecOptions {
            basis: SimilarityBasis::CoursesTaken,
            min_common: 1,
            ..RecOptions::default()
        };
        let recs = r.recommend_courses(444, &opts).unwrap();
        assert!(!recs.is_empty());
    }

    /// The write-storm story end to end: a comment outside the neighbor
    /// set leaves the CT entry untouched (spared), a neighbor's comment
    /// is folded in place (delta-applied), and the oracle assert inside
    /// `recommend_courses_ct` checks every served state against a cold
    /// recompute.
    #[test]
    fn ct_cache_spares_disjoint_comments_and_delta_applies_neighbor_ones() {
        let db = campus_with_ratings();
        let r = Recommender::new(db.clone());
        let opts = RecOptions {
            basis: SimilarityBasis::CoursesTaken,
            min_common: 1,
            ..RecOptions::default()
        };
        let first = r.recommend_courses(444, &opts).unwrap();
        assert!(!first.is_empty());
        let comment = |id, student, course, rating| Comment {
            id,
            student,
            course,
            quarter: Quarter::new(2008, Term::Autumn),
            text: "storm".into(),
            rating,
            date: 0,
        };
        // Sally is not her own neighbor: her comment misses the key gate.
        db.insert_comment(&comment(900, 444, 101, 5.0)).unwrap();
        assert_eq!(r.recommend_courses(444, &opts).unwrap(), first);
        let stats = r.ct_cache.entry_stats();
        assert_eq!(stats.len(), 1, "{stats:?}");
        assert!(stats[0].3 >= 1, "expected a spared delta: {stats:?}");
        // Bob is a neighbor: his rating is folded into the cached state.
        db.insert_comment(&comment(901, 2, 103, 1.0)).unwrap();
        let after = r.recommend_courses(444, &opts).unwrap();
        let stats = r.ct_cache.entry_stats();
        assert!(stats[0].4 >= 1, "expected an applied delta: {stats:?}");
        // 103's mean dropped ((4.5 + 3.0 + 1.0) / 3 vs (4.5 + 3.0) / 2).
        let score_of = |recs: &[CourseRec]| {
            recs.iter()
                .find(|x| x.course == 103)
                .map(|x| x.score)
                .unwrap()
        };
        assert!(score_of(&after) < score_of(&first), "{after:?}");
    }

    #[test]
    fn grade_basis_builds_derived_relation_and_recommends() {
        let db = campus_with_ratings();
        let r = Recommender::new(db.clone());
        let n = r.ensure_grade_points().unwrap();
        assert!(n > 0);
        let rows_of_4 = || {
            db.catalog()
                .with_table("Enrollments", |t| t.all_rows())
                .unwrap()
                .into_iter()
                .filter(|row| row[0] == Value::Int(4))
                .collect::<Vec<_>>()
        };
        let before = rows_of_4();
        let enroll = |course, year, grade, status| {
            db.insert_enrollment(&crate::db::Enrollment {
                student: 4,
                course,
                quarter: Quarter::new(year, Term::Winter),
                grade,
                status,
            })
            .unwrap();
        };
        enroll(102, 2031, Some(crate::model::Grade::B), EnrollStatus::Taken);
        enroll(102, 2032, Some(crate::model::Grade::A), EnrollStatus::Taken);
        enroll(
            103,
            2031,
            Some(crate::model::Grade::A),
            EnrollStatus::Planned,
        );
        enroll(202, 2031, None, EnrollStatus::Taken);
        // A rejected enrollment (same course and term as the ungraded
        // one) writes no row.
        let rejected = db.insert_enrollment(&crate::db::Enrollment {
            student: 4,
            course: 202,
            quarter: Quarter::new(2031, Term::Winter),
            grade: Some(crate::model::Grade::A),
            status: EnrollStatus::Taken,
        });
        assert!(rejected.is_err());
        // Each row carries its own points: a retake too; planned and
        // ungraded rows carry NULL.
        let added: Vec<(Value, Value, Value)> = rows_of_4()
            .into_iter()
            .filter(|row| !before.contains(row))
            .map(|row| (row[1].clone(), row[2].clone(), row[6].clone()))
            .collect();
        let (int, pts) = (Value::Int, Value::from);
        assert_eq!(
            added,
            [
                (int(102), int(2031), pts(3.0)),
                (int(102), int(2032), pts(4.0)),
                (int(103), int(2031), Value::Null),
                (int(202), int(2031), Value::Null),
            ]
        );
        assert_eq!(r.ensure_grade_points().unwrap(), n + 2);
        let opts = RecOptions {
            basis: SimilarityBasis::Grades,
            min_common: 1,
            // The fixture's grade overlap is tiny (everyone's graded
            // courses are Sally's too), so keep taken courses visible.
            exclude_taken: false,
            ..RecOptions::default()
        };
        let recs = r.recommend_courses(444, &opts).unwrap();
        // Sally (A in 101) resembles Bob (A-) and Tim (B) via course 101;
        // their graded courses surface, scored by grade points.
        assert!(!recs.is_empty(), "{recs:?}");
        assert!(recs.iter().any(|x| x.course == 101), "{recs:?}");
        // Scores are grade points (0..=4.3).
        for rec in &recs {
            assert!((0.0..=4.3).contains(&rec.score), "{rec:?}");
        }
    }

    #[test]
    fn related_courses_by_title() {
        let db = small_campus();
        let r = Recommender::new(db);
        let recs = r.related_courses(101, 5).unwrap();
        // "Programming Abstractions" shares "Programming".
        assert!(recs.iter().any(|x| x.course == 102), "{recs:?}");
        assert!(r.related_courses(999, 5).is_err());
    }

    #[test]
    fn major_recommendation_ranks_departments() {
        let db = campus_with_ratings();
        let r = Recommender::new(db);
        let majors = r.recommend_major(444, &RecOptions::default()).unwrap();
        assert!(!majors.is_empty());
        // Bob (Sally's twin) loves CS courses → CS should lead.
        assert_eq!(majors[0].0, "CS", "{majors:?}");
    }

    /// Departments whose courses score exactly alike come back in DepID
    /// order on every cold call, not in a hash map's per-instance order.
    #[test]
    fn major_ties_break_by_dep_id() {
        use crate::db::{Course, Student};
        let db = CourseRankDb::new();
        for dep in ["BIO", "ZOO", "ART", "MED", "LAW"] {
            db.insert_department(dep, dep, "Sciences").unwrap();
        }
        for (id, dep) in [
            (10, "BIO"),
            (20, "ZOO"),
            (30, "ART"),
            (40, "MED"),
            (50, "LAW"),
        ] {
            db.insert_course(&Course {
                id,
                dep: dep.into(),
                title: format!("Course {id}"),
                description: String::new(),
                units: 3,
                url: String::new(),
            })
            .unwrap();
        }
        for id in [1, 2] {
            db.insert_student(&Student {
                id,
                name: format!("s{id}"),
                class: "2011".into(),
                major: None,
                gpa: None,
                share_plans: true,
            })
            .unwrap();
        }
        // Student 2 agrees with student 1 on course 10 and rates every
        // other department's one course 4.0: four departments tie.
        let ratings = [(1, 10, 5.0), (2, 10, 5.0), (2, 20, 4.0), (2, 30, 4.0)];
        let ratings = ratings.into_iter().chain([(2, 40, 4.0), (2, 50, 4.0)]);
        for (id, (student, course, rating)) in (1i64..).zip(ratings) {
            db.insert_comment(&Comment {
                id,
                student,
                course,
                quarter: Quarter::new(2008, Term::Autumn),
                text: "rated".into(),
                rating,
                date: 0,
            })
            .unwrap();
        }
        let opts = RecOptions {
            min_common: 1,
            ..RecOptions::default()
        };
        let want: Vec<(String, f64)> = [("BIO", 5.0), ("ART", 4.0), ("LAW", 4.0)]
            .into_iter()
            .chain([("MED", 4.0), ("ZOO", 4.0)])
            .map(|(d, s)| (d.to_owned(), s))
            .collect();
        for _ in 0..24 {
            // A fresh recommender each time: every call is a cold miss.
            let majors = Recommender::new(db.clone())
                .recommend_major(1, &opts)
                .unwrap();
            assert_eq!(majors, want);
        }
    }

    #[test]
    fn quarter_recommendation() {
        let db = campus_with_ratings();
        let r = Recommender::new(db);
        let q = r.recommend_quarter(101).unwrap();
        assert!(!q.is_empty());
        // All fixture ratings for 101 are in Aut 2008.
        assert_eq!(q[0].0, 2008);
        assert_eq!(q[0].1, "Aut");
    }

    #[test]
    fn workflow_explain_shows_strategy() {
        let db = small_campus();
        let r = Recommender::new(db);
        let wf = r.course_workflow(444, &RecOptions::default());
        let text = wf.explain();
        assert!(text.contains("inverse_euclidean"));
        assert!(text.contains("rating_lookup"));
    }
}
