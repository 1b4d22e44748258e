//! The search engine: the query → results → cloud → refine loop of
//! Figures 3 and 4.
//!
//! Queries are conjunctive (every term must match — that is what makes a
//! cloud click *narrow* the result set, 1160 → 123 in the paper), terms
//! are analyzed with the same analyzer as the index, and quoted phrases
//! ("latin american") map to bigram terms.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use cr_obs::trace::TraceSpan;

use cr_relation::Value;

use crate::cloud::{compute_cloud, CloudConfig, DataCloud};
use crate::entity::EntityCorpus;
use crate::index::DocId;
use crate::score::{bm25f_term_score, idf};

// Handles resolved once; recording is relaxed atomics. Counters gate on
// `cr_obs::enabled()` and latencies ride a `TraceSpan` guard, so with
// both gates off a query costs a few relaxed loads and no clock read.
struct TsMetrics {
    queries: Arc<cr_obs::Counter>,
    query_ns: Arc<cr_obs::Histogram>,
    postings_lookups: Arc<cr_obs::Counter>,
    candidate_set: Arc<cr_obs::Histogram>,
    clouds: Arc<cr_obs::Counter>,
    cloud_ns: Arc<cr_obs::Histogram>,
}

fn metrics() -> &'static TsMetrics {
    static M: OnceLock<TsMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cr_obs::Registry::global();
        TsMetrics {
            queries: r.counter("textsearch.queries"),
            query_ns: r.histogram("textsearch.query_ns"),
            postings_lookups: r.counter("textsearch.postings_lookups"),
            candidate_set: r.histogram("textsearch.candidate_set"),
            clouds: r.counter("textsearch.clouds"),
            cloud_ns: r.histogram("textsearch.cloud_ns"),
        }
    })
}

/// Per-query execution stats collected during [`SearchEngine::search`].
#[derive(Debug, Default, Clone, Copy)]
struct SearchStats {
    /// `index.postings(term)` lookups performed.
    postings_lookups: u64,
    /// Docs that matched the first term (the candidate set the remaining
    /// conjuncts filter down).
    candidates: u64,
}

fn record_query_metrics(stats: &SearchStats) {
    if !cr_obs::enabled() {
        return;
    }
    let m = metrics();
    m.queries.inc();
    m.postings_lookups.add(stats.postings_lookups);
    m.candidate_set.record(stats.candidates);
}

/// A parsed query: analyzed terms (unigrams or bigram phrases).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Query {
    pub terms: Vec<String>,
}

impl Query {
    /// Parse query text. Supports bare words and double-quoted phrases;
    /// a two-word phrase becomes one bigram term. A cloud term chosen for
    /// refinement can be passed verbatim ("latin american" contains a
    /// space and is treated as a phrase).
    pub fn parse(text: &str, analyzer: &crate::analysis::Analyzer) -> Query {
        let mut terms = Vec::new();
        let mut rest = text;
        while let Some(start) = rest.find('"') {
            let before = &rest[..start];
            push_words(before, analyzer, &mut terms);
            match rest[start + 1..].find('"') {
                Some(len) => {
                    let phrase = &rest[start + 1..start + 1 + len];
                    push_phrase(phrase, analyzer, &mut terms);
                    rest = &rest[start + 1 + len + 1..];
                }
                None => {
                    rest = &rest[start + 1..];
                }
            }
        }
        push_words(rest, analyzer, &mut terms);
        // Keep each term's first occurrence, as `refine` does: a repeated
        // term would add its score twice and key the cloud cache apart.
        let mut unique: Vec<String> = Vec::with_capacity(terms.len());
        for term in terms {
            if !unique.contains(&term) {
                unique.push(term);
            }
        }
        Query { terms: unique }
    }

    /// Append a refinement term (from a cloud click).
    pub fn refine(&self, cloud_term: &str) -> Query {
        let mut q = self.clone();
        if !q.terms.iter().any(|t| t == cloud_term) {
            q.terms.push(cloud_term.to_owned());
        }
        q
    }
}

fn push_words(text: &str, analyzer: &crate::analysis::Analyzer, out: &mut Vec<String>) {
    for token in text.split_whitespace() {
        // A pre-analyzed multi-word term arrives whole only via
        // Query::refine; free text splits into unigrams here.
        out.extend(analyzer.terms(token));
    }
}

fn push_phrase(phrase: &str, analyzer: &crate::analysis::Analyzer, out: &mut Vec<String>) {
    let words = analyzer.terms(phrase);
    match words.len() {
        0 => {}
        1 => out.push(words.into_iter().next().expect("len checked")),
        _ => {
            // Multi-word phrases decompose into consecutive bigram terms.
            for pair in words.windows(2) {
                out.push(format!("{} {}", pair[0], pair[1]));
            }
        }
    }
}

/// One search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    pub doc: DocId,
    pub entity_id: Value,
    pub score: f64,
}

/// Results of a search: total match count, top-k hits, and the full
/// matched doc list (score-ordered) that cloud computation aggregates.
#[derive(Debug, Clone, Default)]
pub struct SearchResults {
    pub query: Query,
    pub total: usize,
    pub hits: Vec<SearchHit>,
    pub matched_docs: Vec<DocId>,
}

/// The engine: a built [`EntityCorpus`], scored with BM25F.
#[derive(Debug)]
pub struct SearchEngine {
    corpus: EntityCorpus,
}

impl SearchEngine {
    pub fn new(corpus: EntityCorpus) -> Self {
        SearchEngine { corpus }
    }

    pub fn corpus(&self) -> &EntityCorpus {
        &self.corpus
    }

    /// Parse text into a query with the corpus analyzer.
    pub fn parse_query(&self, text: &str) -> Query {
        Query::parse(text, self.corpus.index().analyzer())
    }

    /// Run a search: conjunctive over the query terms, BM25F-scored,
    /// returning the top `k` hits and the full match list. Records
    /// per-query metrics (index lookups, candidate-set size, latency)
    /// when metrics collection is enabled, and a `textsearch.query`
    /// span when tracing is.
    pub fn search(&self, query: &Query, k: usize) -> SearchResults {
        let _span = TraceSpan::child("textsearch.query").timed(&metrics().query_ns);
        let mut stats = SearchStats::default();
        let results = self.search_inner(query, k, &mut stats);
        record_query_metrics(&stats);
        results
    }

    /// Score one term's postings: the per-doc BM25F contributions in
    /// posting (ascending doc) order, one per document containing it.
    fn score_term(&self, term: &str) -> Vec<(DocId, f64)> {
        let index = self.corpus.index();
        let postings = index.postings(term);
        let term_idf = idf(index.num_docs(), postings.len());
        postings
            .iter()
            .map(|p| (p.doc, bm25f_term_score(index, p, term_idf)))
            .collect()
    }

    fn search_inner(&self, query: &Query, k: usize, stats: &mut SearchStats) -> SearchResults {
        if query.terms.is_empty() {
            return SearchResults {
                query: query.clone(),
                ..SearchResults::default()
            };
        }
        // Per-term scored postings, term by term with an early exit on a
        // term no document contains.
        let mut per_term = Vec::with_capacity(query.terms.len());
        for term in &query.terms {
            stats.postings_lookups += 1;
            let scored = self.score_term(term);
            if scored.is_empty() {
                return SearchResults {
                    query: query.clone(),
                    ..SearchResults::default()
                };
            }
            per_term.push(scored);
        }
        // Accumulate per-doc scores in term order — float-add order is
        // identical to a single interleaved pass; docs must match every
        // term.
        let mut acc: HashMap<DocId, (f64, usize)> = HashMap::new();
        for (ti, scored) in per_term.iter().enumerate() {
            for &(doc, s) in scored {
                match acc.get_mut(&doc) {
                    Some(slot) if slot.1 == ti => {
                        slot.0 += s;
                        slot.1 = ti + 1;
                    }
                    None if ti == 0 => {
                        acc.insert(doc, (s, 1));
                    }
                    _ => {} // missed an earlier term → cannot match all
                }
            }
        }
        // Everything that matched the first term stays in `acc` (entries
        // that missed a later term keep a stale seen-count), so its size
        // is the candidate set the conjunction filtered.
        stats.candidates = acc.len() as u64;
        let need = query.terms.len();
        let mut matched: Vec<(DocId, f64)> = acc
            .into_iter()
            .filter(|(_, (_, seen))| *seen == need)
            .map(|(d, (s, _))| (d, s))
            .collect();
        matched.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        let total = matched.len();
        let hits = matched
            .iter()
            .take(k)
            .map(|&(doc, score)| SearchHit {
                doc,
                entity_id: self.corpus.entity_id(doc).clone(),
                score,
            })
            .collect();
        SearchResults {
            query: query.clone(),
            total,
            hits,
            matched_docs: matched.into_iter().map(|(d, _)| d).collect(),
        }
    }

    /// Compute the data cloud for a result set (excluding the query's own
    /// terms, per Figure 3). Cloud aggregation time is recorded in the
    /// `textsearch.cloud_ns` histogram when metrics collection is enabled,
    /// and as a `textsearch.cloud` span when tracing is. The cloud's
    /// rules are fixed; [`CloudConfig`] carries no settings.
    pub fn cloud(&self, results: &SearchResults, _config: &CloudConfig) -> DataCloud {
        let _span = TraceSpan::child("textsearch.cloud").timed(&metrics().cloud_ns);
        if cr_obs::enabled() {
            metrics().clouds.inc();
        }
        compute_cloud(
            self.corpus.index(),
            &results.matched_docs,
            &results.query.terms,
        )
    }

    /// The full search-then-cloud step used by the examples.
    pub fn search_with_cloud(&self, text: &str, k: usize) -> (SearchResults, DataCloud) {
        let q = self.parse_query(text);
        let results = self.search(&q, k);
        let cloud = self.cloud(&results, &CloudConfig::default());
        (results, cloud)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::entity::{build_index, EntitySpec};
    use cr_relation::Database;

    fn setup() -> SearchEngine {
        let db = Database::new();
        db.execute_sql(
            "CREATE TABLE Courses (CourseID INT PRIMARY KEY, Title TEXT, Description TEXT)",
        )
        .unwrap();
        db.execute_sql(
            "CREATE TABLE Comments (CommentID INT PRIMARY KEY, CourseID INT, Text TEXT)",
        )
        .unwrap();
        let courses = [
            (
                1,
                "American History",
                "political history of the united states",
            ),
            (
                2,
                "Latin American Studies",
                "culture politics of latin america",
            ),
            (3, "African American Literature", "novels and poetry"),
            (4, "Databases", "storage and queries"),
            (5, "American Politics", "government institutions elections"),
        ];
        for (id, t, d) in courses {
            db.execute_sql(&format!("INSERT INTO Courses VALUES ({id}, '{t}', '{d}')"))
                .unwrap();
        }
        db.execute_sql(
            "INSERT INTO Comments VALUES (10, 4, 'american style grading easy'), (11, 3, 'moving african american voices')",
        )
        .unwrap();
        let corpus = build_index(&db.catalog(), &EntitySpec::course_default()).unwrap();
        SearchEngine::new(corpus)
    }

    #[test]
    fn query_parse_words_and_phrases() {
        let a = Analyzer::new();
        let q = Query::parse("american \"latin american\" history", &a);
        assert_eq!(q.terms, vec!["american", "latin american", "history"]);
        // A repeated term is kept once, where it first occurs.
        let q = Query::parse("american politics american \"american politics\"", &a);
        assert_eq!(q.terms, vec!["american", "politic", "american politic"]);
    }

    #[test]
    fn query_parse_long_phrase_becomes_bigrams() {
        let a = Analyzer::new();
        let q = Query::parse("\"modern latin american\"", &a);
        assert_eq!(q.terms, vec!["modern latin", "latin american"]);
    }

    #[test]
    fn broad_search_matches_across_relations() {
        let e = setup();
        let q = e.parse_query("american");
        let r = e.search(&q, 10);
        // Courses 1,2,3,5 via title, 4 via a comment.
        assert_eq!(r.total, 5);
    }

    #[test]
    fn refinement_narrows_results() {
        let e = setup();
        let q = e.parse_query("american");
        let broad = e.search(&q, 10);
        let refined = e.search(&q.refine("african american"), 10);
        assert_eq!(refined.total, 1);
        assert!(refined.total < broad.total);
        assert_eq!(refined.hits[0].entity_id, Value::Int(3));
    }

    #[test]
    fn title_match_ranks_first() {
        let e = setup();
        let r = e.search(&e.parse_query("american"), 10);
        // Doc 4 matches only via comment; it must rank last.
        assert_eq!(
            r.hits.last().unwrap().entity_id,
            Value::Int(4),
            "comment-only hit should rank below title hits"
        );
    }

    #[test]
    fn nonexistent_term_empty() {
        let e = setup();
        let r = e.search(&e.parse_query("zorblatt"), 10);
        assert_eq!(r.total, 0);
        assert!(r.hits.is_empty());
    }

    #[test]
    fn empty_query_empty_results() {
        let e = setup();
        let r = e.search(&e.parse_query("  the of and "), 10);
        assert_eq!(r.total, 0);
    }

    #[test]
    fn conjunctive_semantics() {
        let e = setup();
        let r = e.search(&e.parse_query("american politics"), 10);
        // "politic" appears in courses 2 and 5 (and 1's description says
        // "political" → stems to "political"? no: "political" stems via
        // -ly? no. It stays "political".) So match = {2, 5}.
        assert_eq!(r.total, 2);
    }

    #[test]
    fn cloud_excludes_query_and_suggests_refinements() {
        let e = setup();
        let (r, cloud) = e.search_with_cloud("american", 10);
        assert_eq!(r.total, 5);
        let terms = cloud.term_strings();
        assert!(!terms.contains(&"american"));
        assert!(
            terms
                .iter()
                .any(|t| t.contains("politic") || t.contains("history")),
            "{terms:?}"
        );
    }

    #[test]
    fn search_with_k_truncates_hits_not_total() {
        let e = setup();
        let r = e.search(&e.parse_query("american"), 2);
        assert_eq!(r.hits.len(), 2);
        assert_eq!(r.total, 5);
        assert_eq!(r.matched_docs.len(), 5);
    }

    #[test]
    fn scores_are_descending() {
        let e = setup();
        let r = e.search(&e.parse_query("american"), 10);
        for w in r.hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
