//! Data clouds (§3.1).
//!
//! "The data cloud contains the most significant or representative terms
//! within the currently found set of entities. The terms are aggregated
//! over all parts that make a course entity […] How do we find and rank
//! terms in the results of a search and how can we dynamically and
//! efficiently compute their data cloud?"
//!
//! This module answers with two scorers:
//!
//! * Dunning's log-likelihood ratio, comparing each term's frequency
//!   inside the result set against the rest of the corpus; it surfaces
//!   terms *characteristic of the result set*, not merely frequent ones;
//! * aggregate tf × idf, the fallback when nothing in the result set is
//!   over-represented.
//!
//! Both are exact over the whole result set, and the "efficiently" half
//! of the question is answered by working on the index's interned
//! [`TermId`]s: aggregation adds each result document's forward vector
//! into arrays indexed by id, scoring reads the per-id corpus statistics,
//! and strings are built only for the terms the cloud returns.

use crate::index::{DocId, InvertedIndex, TermId};
use crate::score::idf;

/// How many terms the cloud shows. CourseRank's UI shows a few dozen.
const MAX_TERMS: usize = 30;
/// Minimum number of result documents a term must appear in.
const MIN_DOC_FREQ: usize = 2;
/// Minimum cohesion for a bigram to enter the cloud:
/// corpus_tf(bigram) / min(corpus_tf(w1), corpus_tf(w2)). Random
/// adjacencies ("hour american") score near zero; real phrases
/// ("latin american") score high.
const BIGRAM_COHESION: f64 = 0.03;
/// Score multiplier for (cohesive) bigrams: multi-word cloud terms are
/// the paper's best refinements ("African American") and deserve
/// prominence over their constituent unigrams.
const BIGRAM_BOOST: f64 = 2.0;
/// Bigram slots the cloud guarantees (when cohesive bigrams exist),
/// displacing the lowest-scored unigrams: Figure 3's cloud always shows
/// phrases ("Latin American", "African American").
const MIN_BIGRAMS: usize = 4;

/// Which statistic ranks cloud terms.
#[derive(Debug, Clone, Copy)]
enum TermScorer {
    /// Dunning log-likelihood ratio vs. the background corpus.
    LogLikelihood,
    /// Σ tf in results × idf in corpus.
    TfIdf,
}

/// The cloud's settings, which are fixed: it carries no values. It
/// exists only so that `SearchEngine::cloud(&results,
/// &CloudConfig::default())` keeps compiling for callers built against
/// that signature, such as the `crbench` benchmark harness.
#[derive(Debug, Default)]
pub struct CloudConfig {}

/// One term in the cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudTerm {
    /// The index term (stemmed) — what refinement queries use.
    pub term: String,
    /// The display form ("politics" for the stem "politic").
    pub display: String,
    pub score: f64,
    /// In how many result documents the term occurs.
    pub result_doc_freq: usize,
    /// Total occurrences within the result set.
    pub result_tf: u64,
    /// Display size bucket 1..=5 (tag-cloud font size).
    pub bucket: u8,
}

/// A computed data cloud.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataCloud {
    pub terms: Vec<CloudTerm>,
    /// How many result documents were aggregated.
    pub docs_aggregated: usize,
}

impl DataCloud {
    /// Render the cloud as text, size indicated by repetition of `*`
    /// markers — the terminal stand-in for font size in Figure 3.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.terms {
            out.push_str(&format!(
                "{:<28} {}\n",
                t.display,
                "█".repeat(t.bucket as usize)
            ));
        }
        out
    }

    /// Term list (for refinement pickers).
    pub fn term_strings(&self) -> Vec<&str> {
        self.terms.iter().map(|t| t.term.as_str()).collect()
    }
}

/// Compute a data cloud over `results` (doc ids ordered by search score).
///
/// `exclude_terms` removes the query's own terms — a cloud for the query
/// "american" should suggest *refinements*, not echo "american" back.
///
/// Scoring falls back to TF-IDF on a degenerate LLR outcome (the result
/// set ≈ the whole corpus, so nothing is *over*represented and the cloud
/// comes out empty): TF-IDF still ranks the set's frequent-but-rare
/// terms, and aggregation is scorer-independent, so the fallback reuses
/// the aggregates.
pub fn compute_cloud(
    index: &InvertedIndex,
    results: &[DocId],
    exclude_terms: &[String],
) -> DataCloud {
    let agg = aggregate(index, results);
    let excluded: Vec<TermId> = exclude_terms
        .iter()
        .filter_map(|t| index.term_id(t))
        .collect();
    let cloud = score_cloud(index, &agg, &excluded, TermScorer::LogLikelihood);
    if cloud.terms.is_empty() && agg.docs_aggregated > 0 {
        return score_cloud(index, &agg, &excluded, TermScorer::TfIdf);
    }
    cloud
}

/// Term aggregates over a result set: everything cloud scoring needs
/// besides the corpus statistics.
struct CloudAgg {
    /// `(term, tf across result docs, number of result docs containing
    /// it)`, strictly ascending by term id.
    terms: Vec<(TermId, u64, usize)>,
    /// Σ tf — total tokens (incl. bigrams) across the aggregated docs.
    token_total: u64,
    /// How many documents were aggregated.
    docs_aggregated: usize,
}

/// The aggregation half of [`compute_cloud`]: each result document's
/// forward vector adds into arrays indexed by term id.
fn aggregate(index: &InvertedIndex, results: &[DocId]) -> CloudAgg {
    let vocabulary = index.vocabulary_size();
    let mut tf = vec![0u64; vocabulary];
    let mut df = vec![0usize; vocabulary];
    let mut token_total: u64 = 0;
    for entry in results.iter().filter_map(|&d| index.doc(d)) {
        for &(id, n) in &entry.term_freqs {
            tf[id.0 as usize] += n as u64;
            df[id.0 as usize] += 1;
            token_total += n as u64;
        }
    }
    let terms = df
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d > 0)
        .map(|(i, &d)| (TermId(i as u32), tf[i], d))
        .collect();
    CloudAgg {
        terms,
        token_total,
        docs_aggregated: results.len(),
    }
}

/// A term that passed the cloud's filters, before strings are built.
#[derive(Debug, Clone, Copy)]
struct Scored {
    id: TermId,
    score: f64,
    tf: u64,
    df: usize,
    /// A bigram's parts (`None` for a unigram).
    parts: Option<(TermId, TermId)>,
}

/// The scoring half of [`compute_cloud`]: rank the aggregates against the
/// corpus statistics.
fn score_cloud(
    index: &InvertedIndex,
    agg: &CloudAgg,
    excluded: &[TermId],
    scorer: TermScorer,
) -> DataCloud {
    if agg.docs_aggregated == 0 {
        return DataCloud::default();
    }
    let corpus_docs = index.num_docs().max(1);
    let corpus_token_total = (index.corpus_tokens() as f64).max(agg.token_total as f64 + 1.0);

    let mut scored: Vec<Scored> = Vec::with_capacity(agg.terms.len() / 4);
    for &(id, tf, df) in &agg.terms {
        if df < MIN_DOC_FREQ {
            continue;
        }
        let stats = index.term_stats(id);
        let echoes_query = excluded.contains(&id)
            || stats
                .parts
                .is_some_and(|(w1, w2)| excluded.contains(&w1) && excluded.contains(&w2));
        if echoes_query {
            continue;
        }
        let mut score = match scorer {
            TermScorer::TfIdf => tf as f64 * idf(corpus_docs, stats.doc_freq as usize),
            TermScorer::LogLikelihood => {
                // Exact 2×2 contingency: term occurrences inside vs
                // outside the result set.
                let k1 = tf as f64;
                let n1 = agg.token_total as f64;
                let k2 = (stats.corpus_tf as f64 - k1).max(0.0) + 0.5;
                let n2 = (corpus_token_total - n1).max(1.0);
                log_likelihood_ratio(k1, n1, k2, n2)
            }
        };
        if let Some((w1, w2)) = stats.parts {
            let pair_tf = stats.corpus_tf as f64;
            let min_part = index
                .term_stats(w1)
                .corpus_tf
                .min(index.term_stats(w2).corpus_tf)
                .max(1) as f64;
            if pair_tf / min_part < BIGRAM_COHESION {
                continue; // incidental adjacency, not a phrase
            }
            score *= BIGRAM_BOOST;
        }
        if score <= 0.0 {
            continue;
        }
        scored.push(Scored {
            id,
            score,
            tf,
            df,
            parts: stats.parts,
        });
    }

    // Ties break on the term text, not the id, so the order does not
    // depend on which term the index happened to see first.
    scored.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| index.term_text(a.id).cmp(index.term_text(b.id)))
    });

    collapse_subterms(index, &mut scored);
    // Reserve slots for the best bigrams before truncating.
    if scored.len() > MAX_TERMS {
        let in_window = scored[..MAX_TERMS]
            .iter()
            .filter(|t| t.parts.is_some())
            .count();
        if in_window < MIN_BIGRAMS {
            let mut promote: Vec<Scored> = scored[MAX_TERMS..]
                .iter()
                .filter(|t| t.parts.is_some())
                .take(MIN_BIGRAMS - in_window)
                .copied()
                .collect();
            if !promote.is_empty() {
                // Drop the lowest-scored unigrams from the window.
                let mut kept = Vec::with_capacity(MAX_TERMS);
                let mut unigrams_to_drop = promote.len();
                for t in scored[..MAX_TERMS].iter().rev() {
                    if unigrams_to_drop > 0 && t.parts.is_none() {
                        unigrams_to_drop -= 1;
                    } else {
                        kept.push(*t);
                    }
                }
                kept.reverse();
                kept.append(&mut promote);
                kept.sort_by(|a, b| {
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                scored = kept;
            }
        }
    }
    scored.truncate(MAX_TERMS);
    let mut terms: Vec<CloudTerm> = scored
        .iter()
        .map(|t| CloudTerm {
            term: index.term_text(t.id).to_owned(),
            display: index.term_surface(t.id).to_owned(),
            score: t.score,
            result_doc_freq: t.df,
            result_tf: t.tf,
            bucket: 1,
        })
        .collect();
    assign_buckets(&mut terms);
    DataCloud {
        terms,
        docs_aggregated: agg.docs_aggregated,
    }
}

/// Dunning's G² statistic for a 2×2 contingency of term occurrence inside
/// vs. outside the result set.
pub fn log_likelihood_ratio(k1: f64, n1: f64, k2: f64, n2: f64) -> f64 {
    if k1 <= 0.0 || n1 <= 0.0 || n2 <= 0.0 {
        return 0.0;
    }
    let p1 = k1 / n1;
    let p2 = k2 / n2;
    let p = (k1 + k2) / (n1 + n2);
    let ll = |k: f64, q: f64| {
        if k <= 0.0 || q <= 0.0 {
            0.0
        } else {
            k * q.ln()
        }
    };
    let num = ll(k1, p1) + ll(n1 - k1, 1.0 - p1) + ll(k2, p2) + ll(n2 - k2, 1.0 - p2);
    let den = ll(k1, p) + ll(n1 - k1, 1.0 - p) + ll(k2, p) + ll(n2 - k2, 1.0 - p);
    let g2 = 2.0 * (num - den);
    // One-sided: only overrepresentation in the result set counts.
    if p1 > p2 {
        g2.max(0.0)
    } else {
        0.0
    }
}

/// Suppress a unigram when a retained higher-scoring bigram contains it
/// and accounts for most (≥80%) of its occurrences.
fn collapse_subterms(index: &InvertedIndex, scored: &mut Vec<Scored>) {
    if !scored.iter().any(|t| t.parts.is_some()) {
        return;
    }
    // Position of each scored unigram, by term id.
    let mut rank = vec![usize::MAX; index.vocabulary_size()];
    for (i, t) in scored.iter().enumerate() {
        if t.parts.is_none() {
            rank[t.id.0 as usize] = i;
        }
    }
    let mut dead = vec![false; scored.len()];
    for (brank, bigram) in scored.iter().enumerate() {
        let Some((w1, w2)) = bigram.parts else {
            continue;
        };
        for part in [w1, w2] {
            let pi = rank[part.0 as usize];
            if pi != usize::MAX && brank < pi && bigram.tf as f64 >= 0.8 * scored[pi].tf as f64 {
                dead[pi] = true;
            }
        }
    }
    let mut i = 0;
    scored.retain(|_| {
        let keep = !dead[i];
        i += 1;
        keep
    });
}

/// Map scores to display buckets 1..=5 on a log scale.
fn assign_buckets(terms: &mut [CloudTerm]) {
    if terms.is_empty() {
        return;
    }
    let max = terms.iter().map(|t| t.score).fold(f64::MIN, f64::max);
    let min = terms.iter().map(|t| t.score).fold(f64::MAX, f64::min);
    let span = (max.ln() - min.ln()).max(1e-9);
    for t in terms {
        let rel = (t.score.ln() - min.ln()) / span;
        t.bucket = 1 + (rel * 4.0).round() as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::index::FieldSpec;

    fn build_corpus() -> (InvertedIndex, Vec<DocId>) {
        let mut ix = InvertedIndex::new(
            Analyzer::new(),
            vec![FieldSpec {
                name: "body".into(),
                weight: 1.0,
            }],
        );
        let b = ix.field_id("body").unwrap();
        let mut american = Vec::new();
        // 10 "american" docs that also discuss politics.
        for i in 0..10 {
            let text = format!("american politics and government debate {i} federal policy");
            american.push(ix.add_document(&[(b, text.as_str())]));
        }
        // 40 background docs about databases.
        for i in 0..40 {
            let text = format!("database systems storage query optimization {i}");
            ix.add_document(&[(b, text.as_str())]);
        }
        (ix, american)
    }

    #[test]
    fn cloud_surfaces_result_characteristic_terms() {
        let (ix, results) = build_corpus();
        let cloud = compute_cloud(&ix, &results, &["american".into()]);
        let terms = cloud.term_strings();
        assert!(
            terms.iter().any(|t| t.contains("politic")),
            "expected politics in cloud, got {terms:?}"
        );
        // Background-corpus terms must not appear.
        assert!(!terms.iter().any(|t| t.contains("database")), "{terms:?}");
        // The query term itself is excluded.
        assert!(!terms.contains(&"american"), "{terms:?}");
    }

    #[test]
    fn excluded_bigrams_containing_query_terms() {
        let (ix, results) = build_corpus();
        let cloud = compute_cloud(&ix, &results, &["american".into(), "politic".into()]);
        assert!(!cloud.term_strings().contains(&"american politic"));
    }

    #[test]
    fn empty_results_empty_cloud() {
        let (ix, _) = build_corpus();
        let cloud = compute_cloud(&ix, &[], &[]);
        assert!(cloud.terms.is_empty());
        assert_eq!(cloud.docs_aggregated, 0);
    }

    #[test]
    fn buckets_span_one_to_five() {
        let (ix, results) = build_corpus();
        let cloud = compute_cloud(&ix, &results, &[]);
        assert!(!cloud.terms.is_empty());
        assert!(cloud.terms.iter().all(|t| (1..=5).contains(&t.bucket)));
        // Highest-scored term gets the largest bucket present.
        let max_bucket = cloud.terms.iter().map(|t| t.bucket).max().unwrap();
        assert_eq!(cloud.terms[0].bucket, max_bucket);
    }

    #[test]
    fn llr_properties() {
        // Overrepresented term scores positive.
        assert!(log_likelihood_ratio(10.0, 100.0, 10.0, 10_000.0) > 0.0);
        // Underrepresented term clamps to zero.
        assert_eq!(log_likelihood_ratio(1.0, 1000.0, 500.0, 1000.0), 0.0);
        // Equal rates ≈ 0.
        assert!(log_likelihood_ratio(10.0, 100.0, 100.0, 1000.0) < 1e-9);
        // Degenerate inputs are safe.
        assert_eq!(log_likelihood_ratio(0.0, 0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn tfidf_ranks_a_result_set_nothing_in_which_is_overrepresented() {
        let (ix, _) = build_corpus();
        let everything: Vec<DocId> = (0..ix.num_docs() as u32).map(DocId).collect();
        let agg = aggregate(&ix, &everything);
        let llr = score_cloud(&ix, &agg, &[], TermScorer::LogLikelihood);
        assert!(llr.terms.is_empty(), "{:?}", llr.term_strings());
        let cloud = compute_cloud(&ix, &everything, &[]);
        assert!(!cloud.terms.is_empty());
        assert_eq!(cloud, score_cloud(&ix, &agg, &[], TermScorer::TfIdf));
    }

    #[test]
    fn render_shows_bars() {
        let (ix, results) = build_corpus();
        let cloud = compute_cloud(&ix, &results, &[]);
        let text = cloud.render();
        assert!(text.contains('█'));
    }
}
