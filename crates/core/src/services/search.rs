//! CourseCloud: the search + data-cloud component (Figures 3 and 4).
//!
//! Wraps [`cr_textsearch`] with the CourseRank entity definition: a course
//! entity spans `Courses` (title, description), `Comments` (student text),
//! and `Textbooks` (volunteer-reported titles), with title weighted
//! highest — the §3.1 ranking answer.

use cr_relation::RelResult;
use cr_textsearch::cloud::{compute_cloud, CloudConfig};
use cr_textsearch::engine::{SearchEngine, SearchResults};
use cr_textsearch::entity::{build_index, EntitySpec, FieldSource};
use cr_textsearch::DataCloud;

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

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
}

fn cloud_metrics() -> &'static CloudCacheMetrics {
    static M: OnceLock<CloudCacheMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cr_obs::Registry::global();
        CloudCacheMetrics {
            hits: r.counter("courserank.cloudcache.hits"),
            misses: r.counter("courserank.cloudcache.misses"),
        }
    })
}

/// Bound on cached clouds (FIFO beyond this).
const CLOUD_CACHE_CAPACITY: usize = 256;

/// Finished data clouds by query terms. The corpus never changes once
/// built and the cloud's rules are fixed (`cr_textsearch::cloud`), so a
/// query's terms fix its result set and its cloud: an entry never goes
/// stale, and a hit is a lookup.
#[derive(Debug, Default)]
struct CloudCache {
    entries: Mutex<CloudEntries>,
}

/// Clouds by key, and the keys in insertion order (FIFO eviction).
type CloudEntries = (HashMap<String, Arc<DataCloud>>, VecDeque<String>);

impl CloudCache {
    fn lookup(&self, key: &str) -> Option<Arc<DataCloud>> {
        self.entries.lock().0.get(key).cloned()
    }

    fn insert(&self, key: String, cloud: Arc<DataCloud>) {
        let mut guard = self.entries.lock();
        let (map, order) = &mut *guard;
        if map.insert(key.clone(), cloud).is_none() {
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
    /// The built index, `Arc`-shared so snapshot read views search the
    /// same corpus. It is built once, from the tables as they stand at
    /// [`CourseCloud::build`]: later comments are not indexed.
    engine: Arc<SearchEngine>,
    /// Cached clouds, shared across rebinds so snapshot views warm the
    /// same cache.
    cloud_cache: Arc<CloudCache>,
}

impl CourseCloud {
    /// Build the index single-threaded.
    pub fn build(db: CourseRankDb) -> RelResult<Self> {
        let corpus = build_index(&db.catalog(), &course_entity_spec())?;
        Ok(CourseCloud {
            db,
            engine: Arc::new(SearchEngine::new(corpus)),
            cloud_cache: Arc::default(),
        })
    }

    /// The same service (sharing the built index) over another database
    /// handle — snapshot read views search the shared corpus and enrich
    /// hits from the pinned tables.
    pub(crate) fn rebind(&self, db: CourseRankDb) -> Self {
        CourseCloud {
            db,
            engine: Arc::clone(&self.engine),
            cloud_cache: Arc::clone(&self.cloud_cache),
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
        let analyzer = self.engine.corpus().index().analyzer();
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

    /// The cloud for a result set, served from the cloud cache when the
    /// same query terms were seen before.
    pub fn cloud(&self, results: &SearchResults) -> DataCloud {
        self.cloud_cached(results)
    }

    fn cloud_cached(&self, results: &SearchResults) -> DataCloud {
        if results.matched_docs.is_empty() {
            return self.engine.cloud(results, &CloudConfig::default());
        }
        let key = results.query.terms.join("\u{1f}");
        if let Some(cloud) = self.cloud_cache.lookup(&key) {
            if cr_obs::enabled() {
                cloud_metrics().hits.add(1);
            }
            // Differential oracle: a cached cloud must be exactly what a
            // cold computation produces.
            #[cfg(any(test, feature = "oracle-checks"))]
            assert_eq!(
                *cloud,
                self.compute(results),
                "cloud cache divergence for query {:?}",
                results.query.terms
            );
            return DataCloud::clone(&cloud);
        }
        if cr_obs::enabled() {
            cloud_metrics().misses.add(1);
        }
        let cloud = self.compute(results);
        self.cloud_cache.insert(key, Arc::new(cloud.clone()));
        cloud
    }

    /// A cold cloud, without the engine's `textsearch.cloud` metrics.
    fn compute(&self, results: &SearchResults) -> DataCloud {
        compute_cloud(
            self.engine.corpus().index(),
            &results.matched_docs,
            &results.query.terms,
        )
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::test_fixtures::small_campus;

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
    fn repeat_query_is_served_from_the_cloud_cache() {
        let c = cloud();
        let (_, _, cold) = c.search_with_cloud("castles", None, 10).unwrap();
        assert_eq!(c.cloud_cache.entries.lock().0.len(), 1);
        // The in-test oracle inside cloud_cached asserts the hit equals a
        // cold cloud.
        let (_, _, warm) = c.search_with_cloud("castles", None, 10).unwrap();
        assert_eq!(warm, cold);
        assert_eq!(c.cloud_cache.entries.lock().0.len(), 1);
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
