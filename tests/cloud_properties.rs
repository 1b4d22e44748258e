//! Exactness properties for data clouds over interned term ids.
//!
//! The index interns every unigram and bigram to a [`TermId`]; clouds
//! aggregate and score over ids and build strings only for the terms they
//! return. None of that may change a cloud. On random small-vocabulary
//! corpora (with bigrams, stopword gaps and shared stems):
//!
//! * `compute_cloud` equals a string-keyed reference — the aggregation
//!   and scoring clouds used before term ids, kept here as test-only
//!   code — bit for bit;
//! * every term's `doc_freq` equals its postings, its `corpus_tf` the sum
//!   over the forward vectors, and every forward vector is strictly
//!   ascending.

// Test code: panicking on a broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use std::collections::HashMap;

use cr_textsearch::cloud::{compute_cloud, log_likelihood_ratio, CloudTerm, DataCloud};
use cr_textsearch::index::{DocId, FieldId, FieldSpec, InvertedIndex, TermId};
use cr_textsearch::score::idf;
use cr_textsearch::Analyzer;
use proptest::prelude::*;

/// Shared stems ("system"/"systems") exercise display surfaces; stopwords
/// ("the", "of") break bigrams; phrases repeat bigrams. There are enough
/// words that some clouds pass the 30-term cutoff.
const WORDS: &[&str] = &[
    "american",
    "history",
    "histories",
    "politics",
    "latin",
    "culture",
    "the",
    "of",
    "systems",
    "system",
    "storage",
    "elections",
    "latin american",
    "african american",
    "data systems",
    "music",
    "theory",
    "music theory",
    "poetry",
    "novels",
    "law",
    "economics",
    "ethics",
    "queries",
    "chemistry",
    "biology",
    "physics",
    "design",
    "art",
    "film",
    "writing",
    "seminar",
    "research",
    "language",
    "religion",
    "media",
];

/// Title and body word indexes of one document.
type DocWords = (Vec<usize>, Vec<usize>);

fn words(ws: &[usize]) -> String {
    ws.iter()
        .map(|&w| WORDS[w % WORDS.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

fn new_index() -> InvertedIndex {
    InvertedIndex::new(
        Analyzer::new(),
        vec![
            FieldSpec {
                name: "title".into(),
                weight: 3.0,
            },
            FieldSpec {
                name: "body".into(),
                weight: 1.0,
            },
        ],
    )
}

fn add(ix: &mut InvertedIndex, doc: &DocWords) -> DocId {
    let (title, body) = (words(&doc.0), words(&doc.1));
    ix.add_document(&[(FieldId(0), title.as_str()), (FieldId(1), body.as_str())])
}

/// Query terms to exclude: the analyzed words, plus their first bigram.
fn exclusions(ix: &InvertedIndex, ws: &[usize]) -> Vec<String> {
    let mut terms = ix.analyzer().terms(&words(ws));
    if terms.len() >= 2 {
        terms.push(format!("{} {}", terms[0], terms[1]));
    }
    terms
}

/// The string-keyed reference: the aggregation and scoring clouds used
/// before term ids, reading the index only through `&str` accessors.
mod reference {
    use super::*;

    /// The cloud's fixed rules, restated.
    const MAX_TERMS: usize = 30;
    const MIN_DOC_FREQ: usize = 2;
    const BIGRAM_COHESION: f64 = 0.03;
    const BIGRAM_BOOST: f64 = 2.0;
    const MIN_BIGRAMS: usize = 4;

    #[derive(Clone, Copy)]
    enum Scorer {
        LogLikelihood,
        TfIdf,
    }

    /// The document frequency the string-keyed scorer read: a term's
    /// postings.
    pub fn postings(index: &InvertedIndex, term: &str) -> usize {
        index.postings(term).len()
    }

    pub fn cloud(index: &InvertedIndex, results: &[DocId], exclude_terms: &[String]) -> DataCloud {
        if results.is_empty() {
            return DataCloud::default();
        }
        let mut agg: HashMap<String, (u64, usize)> = HashMap::new();
        let mut token_total = 0u64;
        for &d in results {
            if let Some(entry) = index.doc(d) {
                for &(id, tf) in &entry.term_freqs {
                    let slot = agg.entry(index.term_text(id).to_owned()).or_insert((0, 0));
                    slot.0 += tf as u64;
                    slot.1 += 1;
                    token_total += tf as u64;
                }
            }
        }
        let score = |scorer| {
            score(
                index,
                &agg,
                token_total,
                results.len(),
                exclude_terms,
                scorer,
            )
        };
        let cloud = score(Scorer::LogLikelihood);
        if cloud.terms.is_empty() {
            return score(Scorer::TfIdf);
        }
        cloud
    }

    fn score(
        index: &InvertedIndex,
        agg: &HashMap<String, (u64, usize)>,
        result_token_total: u64,
        docs_aggregated: usize,
        exclude_terms: &[String],
        scorer: Scorer,
    ) -> DataCloud {
        let corpus_docs = index.num_docs().max(1);
        let corpus_token_total =
            (index.corpus_tokens() as f64).max(result_token_total as f64 + 1.0);
        let excluded: Vec<&str> = exclude_terms.iter().map(String::as_str).collect();
        let mut scored: Vec<CloudTerm> = Vec::new();
        for (term, &(tf, df)) in agg {
            let term = term.as_str();
            if df < MIN_DOC_FREQ {
                continue;
            }
            if excluded.contains(&term) || term.split(' ').all(|part| excluded.contains(&part)) {
                continue;
            }
            let mut score = match scorer {
                Scorer::TfIdf => tf as f64 * idf(corpus_docs, postings(index, term)),
                Scorer::LogLikelihood => {
                    let k1 = tf as f64;
                    let n1 = result_token_total as f64;
                    let k2 = (index.corpus_tf(term) as f64 - k1).max(0.0) + 0.5;
                    let n2 = (corpus_token_total - n1).max(1.0);
                    log_likelihood_ratio(k1, n1, k2, n2)
                }
            };
            if let Some((w1, w2)) = term.split_once(' ') {
                let pair_tf = index.corpus_tf(term) as f64;
                let min_part = index.corpus_tf(w1).min(index.corpus_tf(w2)).max(1) as f64;
                if pair_tf / min_part < BIGRAM_COHESION {
                    continue;
                }
                score *= BIGRAM_BOOST;
            }
            if score <= 0.0 {
                continue;
            }
            scored.push(CloudTerm {
                term: term.to_owned(),
                display: index.display_form(term).to_owned(),
                score,
                result_doc_freq: df,
                result_tf: tf,
                bucket: 1,
            });
        }
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.term.cmp(&b.term))
        });
        collapse_subterms(&mut scored);
        if scored.len() > MAX_TERMS {
            let in_window = scored[..MAX_TERMS]
                .iter()
                .filter(|t| t.term.contains(' '))
                .count();
            if in_window < MIN_BIGRAMS {
                let mut promote: Vec<CloudTerm> = scored[MAX_TERMS..]
                    .iter()
                    .filter(|t| t.term.contains(' '))
                    .take(MIN_BIGRAMS - in_window)
                    .cloned()
                    .collect();
                if !promote.is_empty() {
                    let mut kept = Vec::new();
                    let mut unigrams_to_drop = promote.len();
                    for t in scored[..MAX_TERMS].iter().rev() {
                        if unigrams_to_drop > 0 && !t.term.contains(' ') {
                            unigrams_to_drop -= 1;
                        } else {
                            kept.push(t.clone());
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
        assign_buckets(&mut scored);
        DataCloud {
            terms: scored,
            docs_aggregated,
        }
    }

    fn collapse_subterms(scored: &mut Vec<CloudTerm>) {
        let bigrams: Vec<(String, u64)> = scored
            .iter()
            .filter(|t| t.term.contains(' '))
            .map(|t| (t.term.clone(), t.result_tf))
            .collect();
        let rank: HashMap<String, usize> = scored
            .iter()
            .enumerate()
            .map(|(i, t)| (t.term.clone(), i))
            .collect();
        let mut dead = vec![false; scored.len()];
        for (bigram, btf) in &bigrams {
            let brank = rank[bigram];
            for part in bigram.split(' ') {
                if let Some(&pi) = rank.get(part) {
                    if brank < pi && *btf as f64 >= 0.8 * scored[pi].result_tf as f64 {
                        dead[pi] = true;
                    }
                }
            }
        }
        let mut i = 0;
        scored.retain(|_| {
            i += 1;
            !dead[i - 1]
        });
    }

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
}

fn assert_same_cloud(got: &DataCloud, want: &DataCloud) {
    assert_eq!(got.docs_aggregated, want.docs_aggregated);
    let line = |t: &CloudTerm| {
        (
            t.term.clone(),
            t.display.clone(),
            t.result_tf,
            t.result_doc_freq,
            t.score.to_bits(),
            t.bucket,
        )
    };
    let got: Vec<_> = got.terms.iter().map(line).collect();
    let want: Vec<_> = want.terms.iter().map(line).collect();
    assert_eq!(got, want);
}

/// The term statistics agree with a recount from the forward vectors and
/// postings, and every forward vector is strictly ascending.
fn assert_index_consistent(ix: &InvertedIndex) {
    let mut corpus_tf = vec![0u64; ix.vocabulary_size()];
    for d in 0..ix.num_docs() {
        let tf = &ix.doc(DocId(d as u32)).unwrap().term_freqs;
        assert!(tf.windows(2).all(|w| w[0].0 < w[1].0), "{tf:?}");
        for &(id, n) in tf {
            corpus_tf[id.0 as usize] += n as u64;
        }
    }
    for (i, &tf) in corpus_tf.iter().enumerate() {
        let id = TermId(i as u32);
        let term = ix.term_text(id);
        assert_eq!(ix.term_id(term), Some(id));
        assert_eq!(ix.doc_freq(term), reference::postings(ix, term), "{term}");
        assert_eq!(ix.corpus_tf(term), tf, "{term}");
    }
    assert_eq!(ix.corpus_tokens(), corpus_tf.iter().sum::<u64>());
}

fn doc_words() -> impl Strategy<Value = DocWords> {
    (
        proptest::collection::vec(0usize..WORDS.len(), 0..5),
        proptest::collection::vec(0usize..WORDS.len(), 0..24),
    )
}

/// `n` distinct made-up words with `prefix`: no stem, stopword or
/// bigram joins two of them.
fn made_up(prefix: &str, n: u8) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "{prefix}{}{}",
                char::from(b'b' + i / 8),
                char::from(b'b' + i % 8)
            )
        })
        .collect()
}

/// Forty terms only the result set holds outrank its one phrase, which
/// the background uses nearly as often: the cloud keeps its size and
/// promotes the phrase past the cutoff, as the reference does.
#[test]
fn phrase_promoted_past_the_cutoff_equals_reference() {
    let mut ix = new_index();
    let topical = made_up("zk", 40).join(" the ");
    let filler = made_up("zm", 50).join(" the ");
    let results: Vec<DocId> = (0..10)
        .map(|_| {
            let body = format!("{topical} the latin american");
            ix.add_document(&[(FieldId(0), ""), (FieldId(1), body.as_str())])
        })
        .collect();
    for _ in 0..40 {
        let body = format!("latin american the {filler}");
        ix.add_document(&[(FieldId(0), ""), (FieldId(1), body.as_str())]);
    }
    let cloud = compute_cloud(&ix, &results, &[]);
    assert_eq!(cloud.terms.len(), 30);
    assert!(
        cloud.term_strings().contains(&"latin american"),
        "{:?}",
        cloud.term_strings()
    );
    assert_same_cloud(&cloud, &reference::cloud(&ix, &results, &[]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The id-based cloud equals the string-keyed reference bit for bit.
    #[test]
    fn cloud_equals_string_keyed_reference(
        docs in proptest::collection::vec((doc_words(), any::<bool>()), 1..40),
        exclude in proptest::collection::vec(0usize..WORDS.len(), 0..3),
    ) {
        let mut ix = new_index();
        let results: Vec<DocId> = docs
            .iter()
            .map(|(d, member)| (add(&mut ix, d), *member))
            .filter(|(_, member)| *member)
            .map(|(doc, _)| doc)
            .collect();
        assert_index_consistent(&ix);
        let exclude = exclusions(&ix, &exclude);
        assert_same_cloud(
            &compute_cloud(&ix, &results, &exclude),
            &reference::cloud(&ix, &results, &exclude),
        );
    }
}
