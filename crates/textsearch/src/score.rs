//! BM25F-style scoring.
//!
//! Answers the paper's §3.1 ranking question — a query term in the title
//! must outrank the same term buried in comments — by folding per-field
//! term frequencies through field weights before the BM25 saturation.

use crate::index::{InvertedIndex, Posting};

/// BM25 term-frequency saturation. 1.2 with [`B`] = 0.75 are the
/// standard Robertson settings and work well on short catalog text.
pub const K1: f64 = 1.2;

/// BM25 length normalization (see [`K1`]).
pub const B: f64 = 0.75;

/// Inverse document frequency with the usual +0.5 smoothing; never
/// negative.
pub fn idf(num_docs: usize, doc_freq: usize) -> f64 {
    if doc_freq == 0 || num_docs == 0 {
        return 0.0;
    }
    let n = num_docs as f64;
    let df = doc_freq as f64;
    ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
}

/// Score one posting for one term.
///
/// `weighted_tf = Σ_f weight_f × tf_{f}` — the BM25F "field fusion" — then
/// standard BM25 saturation with weighted-length normalization.
pub fn bm25f_term_score(index: &InvertedIndex, posting: &Posting, term_idf: f64) -> f64 {
    let mut wtf = 0.0;
    for (fi, tf) in posting.field_tf.iter().enumerate() {
        if *tf > 0 {
            wtf += index.fields()[fi].weight * *tf as f64;
        }
    }
    let doc = match index.doc(posting.doc) {
        Some(d) => d,
        None => return 0.0,
    };
    let avg = index.avg_weighted_len().max(1e-9);
    let norm = K1 * (1.0 - B + B * doc.weighted_len / avg);
    term_idf * (wtf * (K1 + 1.0)) / (wtf + norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::index::FieldSpec;

    fn index() -> InvertedIndex {
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

    #[test]
    fn idf_monotone_in_rarity() {
        assert!(idf(1000, 1) > idf(1000, 10));
        assert!(idf(1000, 10) > idf(1000, 500));
        assert!(idf(1000, 1000) >= 0.0);
        assert_eq!(idf(1000, 0), 0.0);
    }

    #[test]
    fn title_hit_outranks_body_hit() {
        let mut ix = index();
        let t = ix.field_id("title").unwrap();
        let b = ix.field_id("body").unwrap();
        // Two docs of identical length profile; "java" in title vs body.
        ix.add_document(&[(t, "java programming"), (b, "hard but rewarding")]);
        ix.add_document(&[(t, "software engineering"), (b, "java rewarding stuff")]);
        let ps = ix.postings("java");
        assert_eq!(ps.len(), 2);
        let term_idf = idf(ix.num_docs(), 2);
        let s0 = bm25f_term_score(&ix, &ps[0], term_idf);
        let s1 = bm25f_term_score(&ix, &ps[1], term_idf);
        assert!(
            s0 > s1,
            "title hit must outrank comment hit (paper §3.1): {s0} vs {s1}"
        );
    }

    #[test]
    fn repeated_term_saturates() {
        let mut ix = index();
        let b = ix.field_id("body").unwrap();
        ix.add_document(&[(b, "java")]);
        ix.add_document(&[(b, "java java java java java java java java")]);
        // pad corpus so idf > 0
        ix.add_document(&[(b, "other words entirely")]);
        let ps = ix.postings("java");
        let term_idf = idf(ix.num_docs(), 2);
        let s1 = bm25f_term_score(&ix, &ps[0], term_idf);
        let s8 = bm25f_term_score(&ix, &ps[1], term_idf);
        assert!(s8 > s1);
        // Saturation: 8× the tf must be well under 8× the score.
        assert!(s8 < 4.0 * s1);
    }
}
