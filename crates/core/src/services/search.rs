//! CourseCloud: the search + data-cloud component (Figures 3 and 4).
//!
//! Wraps [`cr_textsearch`] with the CourseRank entity definition: a course
//! entity spans `Courses` (title, description), `Comments` (student text),
//! and `Textbooks` (volunteer-reported titles), with title weighted
//! highest — the §3.1 ranking answer.

use cr_relation::{RelResult, Value};
use cr_textsearch::cloud::{aggregate_cloud, cloud_from_agg, CloudAgg, CloudConfig};
use cr_textsearch::engine::{SearchEngine, SearchResults};
use cr_textsearch::entity::{build_index, reindex_entity, EntitySpec, FieldSource};
use cr_textsearch::{DataCloud, TermId};

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::cache::{register_cache, CacheStats};
use crate::db::CourseRankDb;
use crate::model::CourseId;
use crate::obs::SvcMetrics;

fn metrics() -> &'static SvcMetrics {
    static M: OnceLock<SvcMetrics> = OnceLock::new();
    M.get_or_init(|| SvcMetrics::new("search"))
}

struct CloudCacheMetrics {
    hits: Arc<cr_obs::Counter>,
    misses: Arc<cr_obs::Counter>,
    invalidations: Arc<cr_obs::Counter>,
    spared: Arc<cr_obs::Counter>,
    delta_applied: Arc<cr_obs::Counter>,
}

fn cloud_metrics() -> &'static CloudCacheMetrics {
    static M: OnceLock<CloudCacheMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cr_obs::Registry::global();
        CloudCacheMetrics {
            hits: r.counter("courserank.cloudcache.hits"),
            misses: r.counter("courserank.cloudcache.misses"),
            invalidations: r.counter("courserank.cloudcache.invalidations"),
            spared: r.counter("courserank.cloudcache.spared"),
            delta_applied: r.counter("courserank.cloudcache.delta_applied"),
        }
    })
}

/// Bound on cached cloud aggregates (FIFO beyond this).
const CLOUD_CACHE_CAPACITY: usize = 256;

#[derive(Debug)]
struct CloudEntry {
    /// Entity ids of the result docs the aggregates cover, in result
    /// order. Doc ids are NOT stored — reindexing reassigns them; entity
    /// ids are the stable identity.
    ids: Vec<Value>,
    /// Shared so a hit hands out a pointer, not a copy of the aggregates.
    agg: Arc<CloudAgg>,
    /// Corpus generation the aggregates are current at (see
    /// [`CourseCloud::reindex_course`]).
    generation: u64,
    spared: u64,
    delta_applied: u64,
}

/// Cache of data-cloud term aggregates, incrementally maintained across
/// [`CourseCloud::reindex_course`] calls. Unlike [`crate::cache::VersionedCache`]
/// its validity authority is not the catalog version vector but the
/// search corpus: an entry serves when its *generation* matches the
/// handle's corpus generation and the fresh (cheap) search returned the
/// same result entities its aggregates cover. Scoring always reruns
/// against current corpus statistics — only the O(docs × terms)
/// aggregation is cached.
#[derive(Debug, Default)]
struct CloudCache {
    entries: Mutex<(HashMap<String, CloudEntry>, VecDeque<String>)>,
}

impl CloudCache {
    fn lookup(&self, key: &str, generation: u64, ids: &[Value]) -> Option<Arc<CloudAgg>> {
        let guard = self.entries.lock();
        let entry = guard.0.get(key)?;
        (entry.generation == generation && entry.ids == ids).then(|| Arc::clone(&entry.agg))
    }

    fn insert(&self, key: String, ids: Vec<Value>, agg: Arc<CloudAgg>, generation: u64) {
        let mut guard = self.entries.lock();
        let (map, order) = &mut *guard;
        if map
            .insert(
                key.clone(),
                CloudEntry {
                    ids,
                    agg,
                    generation,
                    spared: 0,
                    delta_applied: 0,
                },
            )
            .is_none()
        {
            order.push_back(key);
        }
        while map.len() > CLOUD_CACHE_CAPACITY {
            match order.pop_front() {
                Some(oldest) => {
                    map.remove(&oldest);
                }
                None => break,
            }
        }
    }

    /// Fold one entity's reindex into every entry: entries whose result
    /// set does not contain the entity advance for free (spared), member
    /// entries absorb the term-frequency diff (delta-applied), anything
    /// unmaintainable — stale generation, a vanished document, an
    /// inconsistent shift — drops. Returns (spared, applied, dropped).
    fn maintain(
        &self,
        entity: &Value,
        gen_from: u64,
        gen_to: u64,
        old_tf: Option<&[(TermId, u32)]>,
        new_tf: Option<&[(TermId, u32)]>,
    ) -> (u64, u64, u64) {
        let mut guard = self.entries.lock();
        let (map, order) = &mut *guard;
        let (mut spared, mut applied, mut dropped) = (0u64, 0u64, 0u64);
        map.retain(|_, entry| {
            if entry.generation != gen_from {
                dropped += 1;
                return false;
            }
            if !entry.ids.contains(entity) {
                entry.generation = gen_to;
                entry.spared += 1;
                spared += 1;
                return true;
            }
            if let (Some(old), Some(new)) = (old_tf, new_tf) {
                if Arc::make_mut(&mut entry.agg).apply_reindex_delta(old, new) {
                    entry.generation = gen_to;
                    entry.delta_applied += 1;
                    applied += 1;
                    return true;
                }
            }
            dropped += 1;
            false
        });
        order.retain(|k| map.contains_key(k));
        (spared, applied, dropped)
    }
}

impl CacheStats for CloudCache {
    /// (key, docs covered, docs covered, spared, delta_applied) — the
    /// "deps" of a cloud entry are the result documents it aggregates.
    fn entry_stats(&self) -> Vec<(String, usize, usize, u64, u64)> {
        let guard = self.entries.lock();
        let mut out: Vec<_> = guard
            .0
            .iter()
            .map(|(k, e)| {
                (
                    k.clone(),
                    e.ids.len(),
                    e.ids.len(),
                    e.spared,
                    e.delta_applied,
                )
            })
            .collect();
        out.sort();
        out
    }
}

/// The CourseRank course-entity definition.
pub fn course_entity_spec() -> EntitySpec {
    EntitySpec {
        name: "course".into(),
        base_table: "Courses".into(),
        id_column: "CourseID".into(),
        fields: vec![
            (
                "title".into(),
                FieldSource::Column {
                    column: "Title".into(),
                    weight: 4.0,
                },
            ),
            (
                "description".into(),
                FieldSource::Column {
                    column: "Description".into(),
                    weight: 2.0,
                },
            ),
            (
                "comments".into(),
                FieldSource::Related {
                    table: "Comments".into(),
                    fk_column: "CourseID".into(),
                    text_column: "Text".into(),
                    weight: 1.0,
                },
            ),
            (
                "textbooks".into(),
                FieldSource::Related {
                    table: "Textbooks".into(),
                    fk_column: "CourseID".into(),
                    text_column: "Title".into(),
                    weight: 1.5,
                },
            ),
        ],
    }
}

/// A search hit enriched with course data (what the Figure 3 result list
/// shows).
#[derive(Debug, Clone, PartialEq)]
pub struct CourseHit {
    pub course: CourseId,
    pub title: String,
    pub dep: String,
    pub score: f64,
    /// Matching fragment of the description, hits marked with `[...]`.
    pub snippet: Option<String>,
}

/// The CourseCloud service.
#[derive(Debug, Clone)]
pub struct CourseCloud {
    db: CourseRankDb,
    /// The built index, `Arc`-shared so snapshot read views pin the same
    /// immutable corpus; [`CourseCloud::reindex_course`] copies-on-write
    /// when a pin is live (`Arc::make_mut`), so pinned readers keep the
    /// corpus that matches their catalog cut.
    engine: Arc<SearchEngine>,
    spec: EntitySpec,
    /// Cached cloud aggregates, shared across rebinds so snapshot views
    /// warm the same cache (their generation pins which entries serve).
    cloud_cache: Arc<CloudCache>,
    /// Monotonic corpus version of THIS handle. Bumped by
    /// [`CourseCloud::reindex_course`]; cache entries only serve when
    /// their generation matches.
    generation: u64,
}

impl CourseCloud {
    /// Build the index single-threaded.
    pub fn build(db: CourseRankDb) -> RelResult<Self> {
        let spec = course_entity_spec();
        let corpus = build_index(&db.catalog(), &spec)?;
        Ok(Self::assemble(db, SearchEngine::new(corpus), spec))
    }

    fn assemble(db: CourseRankDb, engine: SearchEngine, spec: EntitySpec) -> Self {
        let cloud_cache = Arc::new(CloudCache::default());
        let as_stats: Arc<dyn CacheStats> = cloud_cache.clone();
        register_cache("search.cloud", Arc::downgrade(&as_stats));
        CourseCloud {
            db,
            engine: Arc::new(engine),
            spec,
            cloud_cache,
            generation: 0,
        }
    }

    /// The same service (sharing the built index) over another database
    /// handle — snapshot read views search the pinned corpus and enrich
    /// hits from the pinned tables.
    pub(crate) fn rebind(&self, db: CourseRankDb) -> Self {
        CourseCloud {
            db,
            engine: Arc::clone(&self.engine),
            spec: self.spec.clone(),
            cloud_cache: Arc::clone(&self.cloud_cache),
            generation: self.generation,
        }
    }

    pub fn engine(&self) -> &SearchEngine {
        &self.engine
    }

    /// Search and return enriched hits plus the raw results (for cloud
    /// computation and counts).
    pub fn search(&self, query: &str, k: usize) -> RelResult<(Vec<CourseHit>, SearchResults)> {
        metrics().observe(|| {
            let q = self.engine.parse_query(query);
            let results = self.engine.search(&q, k);
            let hits = self.enrich(&results)?;
            Ok((hits, results))
        })
    }

    fn enrich(&self, results: &SearchResults) -> RelResult<Vec<CourseHit>> {
        let analyzer = self.engine.corpus().index.analyzer();
        let mut hits = Vec::with_capacity(results.hits.len());
        for h in &results.hits {
            let course = h.entity_id.as_int()?;
            let c = self.db.course(course)?;
            let snippet = c.as_ref().and_then(|c| {
                cr_textsearch::highlight::snippet(
                    &c.description,
                    &results.query.terms,
                    analyzer,
                    12,
                )
                .map(|s| s.render())
            });
            hits.push(CourseHit {
                course,
                title: c.as_ref().map(|c| c.title.clone()).unwrap_or_default(),
                dep: c.map(|c| c.dep).unwrap_or_default(),
                score: h.score,
                snippet,
            });
        }
        Ok(hits)
    }

    /// The cloud for a result set, served from incrementally maintained
    /// aggregates when possible.
    pub fn cloud(&self, results: &SearchResults) -> DataCloud {
        self.cloud_cached(results)
    }

    fn cloud_cached(&self, results: &SearchResults) -> DataCloud {
        let docs = &results.matched_docs;
        if docs.is_empty() {
            return self.engine.cloud(results, &CloudConfig::default());
        }
        let corpus = self.engine.corpus();
        let ids: Vec<Value> = docs
            .iter()
            .map(|d| corpus.doc_to_id[d.0 as usize].clone())
            .collect();
        let key = results.query.terms.join("\u{1f}");
        if let Some(agg) = self.cloud_cache.lookup(&key, self.generation, &ids) {
            if cr_obs::enabled() {
                cloud_metrics().hits.add(1);
            }
            // Differential oracle: maintained aggregates must be exactly
            // what a cold aggregation produces.
            #[cfg(any(test, feature = "oracle-checks"))]
            {
                let cold = aggregate_cloud(&corpus.index, docs);
                assert_eq!(
                    cold, *agg,
                    "cloud cache divergence for query {:?}",
                    results.query.terms
                );
            }
            return cloud_from_agg(
                &corpus.index,
                &agg,
                &results.query.terms,
                &CloudConfig::default(),
            );
        }
        if cr_obs::enabled() {
            cloud_metrics().misses.add(1);
        }
        let agg = Arc::new(aggregate_cloud(&corpus.index, docs));
        let cloud = cloud_from_agg(
            &corpus.index,
            &agg,
            &results.query.terms,
            &CloudConfig::default(),
        );
        self.cloud_cache.insert(key, ids, agg, self.generation);
        cloud
    }

    /// The Figure 3 → Figure 4 loop in one call: search, compute the
    /// cloud, optionally refined by a previously clicked cloud term.
    pub fn search_with_cloud(
        &self,
        query: &str,
        refine_term: Option<&str>,
        k: usize,
    ) -> RelResult<(Vec<CourseHit>, SearchResults, DataCloud)> {
        metrics().observe(|| {
            let mut q = self.engine.parse_query(query);
            if let Some(t) = refine_term {
                q = q.refine(t);
            }
            let results = self.engine.search(&q, k);
            let cloud = self.cloud_cached(&results);
            let hits = self.enrich(&results)?;
            Ok((hits, results, cloud))
        })
    }

    /// Reindex one course after new user content (a fresh comment).
    /// Copy-on-write: if a snapshot read view shares the engine, it keeps
    /// the old corpus and only this handle sees the new one.
    ///
    /// Cached cloud aggregates are incrementally maintained across the
    /// reindex: entries whose result set does not include the course are
    /// spared (they advance to the new generation untouched), member
    /// entries absorb the term-frequency delta, and anything
    /// unmaintainable is dropped.
    pub fn reindex_course(&mut self, course: CourseId) -> RelResult<bool> {
        let entity = Value::Int(course);
        let term_freqs_of = |corpus: &cr_textsearch::entity::EntityCorpus| {
            corpus
                .id_to_doc
                .get(&entity)
                .and_then(|d| corpus.index.doc(*d))
                .map(|e| e.term_freqs.clone())
        };
        let engine = Arc::make_mut(&mut self.engine);
        let old_tf = term_freqs_of(engine.corpus());
        let changed = reindex_entity(engine.corpus_mut(), &self.db.catalog(), &self.spec, &entity)?;
        if !changed {
            return Ok(false);
        }
        let gen_from = self.generation;
        self.generation += 1;
        let new_tf = term_freqs_of(engine.corpus());
        let (spared, applied, dropped) = self.cloud_cache.maintain(
            &entity,
            gen_from,
            self.generation,
            old_tf.as_deref(),
            new_tf.as_deref(),
        );
        if cr_obs::enabled() {
            let m = cloud_metrics();
            m.spared.add(spared);
            m.delta_applied.add(applied);
            m.invalidations.add(dropped);
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::test_fixtures::small_campus;
    use crate::db::Comment;
    use crate::model::{Quarter, Term};

    fn cloud() -> CourseCloud {
        CourseCloud::build(small_campus()).unwrap()
    }

    #[test]
    fn search_spans_relations() {
        let c = cloud();
        // "java" appears only in 101's description.
        let (hits, results) = c.search("java", 10).unwrap();
        assert_eq!(results.total, 1);
        assert_eq!(hits[0].course, 101);
        // "castles" appears in 201's description AND a comment.
        let (hits, _) = c.search("castles", 10).unwrap();
        assert_eq!(hits[0].course, 201);
    }

    #[test]
    fn snippets_highlight_description_matches() {
        let c = cloud();
        let (hits, _) = c.search("java", 10).unwrap();
        let snip = hits[0].snippet.as_deref().unwrap();
        assert!(snip.contains("[java]"), "{snip}");
    }

    #[test]
    fn serendipity_greek_science() {
        // The paper's example: searching "greek" finds History of Science
        // even though its title never says Greek.
        let c = cloud();
        let (hits, _) = c.search("greek", 10).unwrap();
        assert!(hits.iter().any(|h| h.course == 202), "{hits:?}");
    }

    #[test]
    fn refinement_narrows() {
        let c = cloud();
        let (_, broad, _) = c.search_with_cloud("programming", None, 10).unwrap();
        let (_, narrow, _) = c
            .search_with_cloud("programming", Some("java"), 10)
            .unwrap();
        assert!(narrow.total <= broad.total);
        assert_eq!(narrow.total, 1);
    }

    #[test]
    fn reindex_picks_up_new_comment() {
        let mut c = cloud();
        let (_, r) = c.search("quantum", 10).unwrap();
        assert_eq!(r.total, 0);
        c.db.insert_comment(&Comment {
            id: 99,
            student: 444,
            course: 103,
            quarter: Quarter::new(2009, Term::Spring),
            text: "surprise quantum computing lectures at the end".into(),
            rating: 5.0,
            date: 0,
        })
        .unwrap();
        assert!(c.reindex_course(103).unwrap());
        let (hits, r) = c.search("quantum", 10).unwrap();
        assert_eq!(r.total, 1);
        assert_eq!(hits[0].course, 103);
    }

    #[test]
    fn cloud_cache_spares_nonmember_reindex_and_deltas_member() {
        let mut c = cloud();
        // Warm the cache: "castles" matches only course 201.
        let (_, r, _) = c.search_with_cloud("castles", None, 10).unwrap();
        assert_eq!(r.total, 1);
        assert_eq!(c.cloud_cache.entry_stats().len(), 1);

        // Write storm on a course OUTSIDE the result set: the cached
        // aggregates advance untouched.
        c.db.insert_comment(&Comment {
            id: 97,
            student: 444,
            course: 103,
            quarter: Quarter::new(2009, Term::Spring),
            text: "kernel hacking until sunrise".into(),
            rating: 4.0,
            date: 0,
        })
        .unwrap();
        assert!(c.reindex_course(103).unwrap());
        let stats = c.cloud_cache.entry_stats();
        assert!(stats[0].3 >= 1, "expected spared entry: {stats:?}");
        // Warm hit; the in-test oracle inside cloud_cached asserts the
        // served aggregates match a cold aggregation bit for bit.
        let (_, r, _) = c.search_with_cloud("castles", None, 10).unwrap();
        assert_eq!(r.total, 1);

        // A comment ON the member course: the entry absorbs the
        // term-frequency delta instead of dropping.
        c.db.insert_comment(&Comment {
            id: 98,
            student: 2,
            course: 201,
            quarter: Quarter::new(2009, Term::Spring),
            text: "the castles lectures cover cathedrals too".into(),
            rating: 5.0,
            date: 0,
        })
        .unwrap();
        assert!(c.reindex_course(201).unwrap());
        let stats = c.cloud_cache.entry_stats();
        assert!(stats[0].4 >= 1, "expected delta-applied entry: {stats:?}");
        // Served-from-delta cloud still passes the oracle.
        let (_, r, cloud) = c.search_with_cloud("castles", None, 10).unwrap();
        assert_eq!(r.total, 1);
        assert!(cloud.docs_aggregated >= 1);
    }

    #[test]
    fn textbook_titles_searchable() {
        let db = small_campus();
        db.insert_textbook(
            1,
            103,
            "Operating System Concepts (Dinosaur Book)",
            Some(444),
        )
        .unwrap();
        let c = CourseCloud::build(db).unwrap();
        let (hits, _) = c.search("dinosaur", 10).unwrap();
        assert_eq!(hits[0].course, 103);
    }
}
