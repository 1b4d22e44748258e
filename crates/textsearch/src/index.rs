//! The inverted + forward index.
//!
//! Documents are *entities* with multiple weighted fields. The index keeps:
//!
//! * a **term dictionary**: every unigram and bigram interned to a dense
//!   [`TermId`], with per-id corpus statistics (corpus tf, document
//!   frequency), the display surface, and a bigram's two unigram parts;
//! * **postings**: term id → list of (doc, per-field term frequency) —
//!   drives retrieval;
//! * **forward vectors**: doc → `(term id, tf)` ascending by id, including
//!   **bigrams** — drives data-cloud aggregation (§3.1's "terms are
//!   aggregated over all parts that make a course entity");
//! * corpus statistics (total/average field lengths, total tokens) —
//!   drive BM25F and the cloud's log-likelihood scorer.
//!
//! Documents are only ever added, so every doc id and posting is live.
//! An [`crate::entity::EntityCorpus`] owns its index and hands out only
//! `&InvertedIndex`: once built, a search corpus never changes.

use std::collections::HashMap;

use crate::analysis::{Analyzer, Token};

/// Document identifier (dense, assigned by the index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

/// Term identifier: a dense index into the term dictionary (unigrams and
/// bigrams alike), assigned in first-seen order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// Field identifier (position in the index's field table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldId(pub u16);

/// A field definition: name and search weight.
#[derive(Debug, Clone)]
pub struct FieldSpec {
    pub name: String,
    /// BM25F weight — a term hit in a weight-3 title counts like three
    /// hits in a weight-1 comment body.
    pub weight: f64,
}

/// One posting: a document and its per-field term frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct Posting {
    pub doc: DocId,
    /// Parallel to the index's field table; tf in each field.
    pub field_tf: Vec<u32>,
}

/// Per-document data retained for scoring and clouds.
#[derive(Debug, Clone, Default)]
pub struct DocEntry {
    /// Weighted length (Σ field_weight × field token count).
    pub weighted_len: f64,
    /// The forward vector: `(term, tf across all fields)`, unweighted,
    /// **including bigrams**, strictly ascending by term id.
    pub term_freqs: Vec<(TermId, u32)>,
}

/// Corpus statistics of one dictionary term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermStats {
    /// Exact corpus term frequency — the denominator of the cloud's
    /// log-likelihood contingency table.
    pub corpus_tf: u64,
    /// Number of documents containing the term.
    pub doc_freq: u32,
    /// A bigram's two unigram parts (`None` for a unigram).
    pub parts: Option<(TermId, TermId)>,
}

/// The index.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    analyzer: Analyzer,
    fields: Vec<FieldSpec>,
    /// Term text (stem, or "stem stem" for a bigram) → id.
    term_ids: HashMap<String, TermId>,
    /// A bigram's (first part, second part) → id.
    bigram_ids: HashMap<(TermId, TermId), TermId>,
    /// Per id: the term text.
    texts: Vec<String>,
    /// Per id: the surface of the term's first indexed occurrence. Clouds
    /// display surfaces ("politics"), not stems ("politic").
    surfaces: Vec<String>,
    /// Per id: corpus statistics.
    stats: Vec<TermStats>,
    /// Per id: postings in ascending doc order.
    postings: Vec<Vec<Posting>>,
    docs: Vec<DocEntry>,
    total_weighted_len: f64,
    /// Σ corpus_tf — total tokens (incl. bigrams).
    corpus_tokens: u64,
}

impl InvertedIndex {
    /// Create an index with the given fields.
    pub fn new(analyzer: Analyzer, fields: Vec<FieldSpec>) -> Self {
        InvertedIndex {
            analyzer,
            fields,
            term_ids: HashMap::new(),
            bigram_ids: HashMap::new(),
            texts: Vec::new(),
            surfaces: Vec::new(),
            stats: Vec::new(),
            postings: Vec::new(),
            docs: Vec::new(),
            total_weighted_len: 0.0,
            corpus_tokens: 0,
        }
    }

    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    pub fn fields(&self) -> &[FieldSpec] {
        &self.fields
    }

    /// Field id by name.
    pub fn field_id(&self, name: &str) -> Option<FieldId> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .map(|i| FieldId(i as u16))
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Average weighted document length (BM25 normalization).
    pub fn avg_weighted_len(&self) -> f64 {
        if self.docs.is_empty() {
            0.0
        } else {
            self.total_weighted_len / self.docs.len() as f64
        }
    }

    /// The id of an indexed term (unigram stem or "stem stem" bigram).
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.term_ids.get(term).copied()
    }

    /// A term's text. Panics on an id this index did not assign.
    pub fn term_text(&self, id: TermId) -> &str {
        &self.texts[id.0 as usize]
    }

    /// A term's display surface (see [`InvertedIndex::display_form`]).
    pub fn term_surface(&self, id: TermId) -> &str {
        &self.surfaces[id.0 as usize]
    }

    /// A term's corpus statistics.
    pub fn term_stats(&self, id: TermId) -> &TermStats {
        &self.stats[id.0 as usize]
    }

    /// Document frequency of a term.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.term_id(term)
            .map_or(0, |id| self.term_stats(id).doc_freq as usize)
    }

    /// A term's postings, ascending by doc.
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.term_id(term)
            .map_or(&[], |id| self.postings[id.0 as usize].as_slice())
    }

    /// Per-document entry (None for an id this index did not assign).
    pub fn doc(&self, doc: DocId) -> Option<&DocEntry> {
        self.docs.get(doc.0 as usize)
    }

    /// Size of the term dictionary: every distinct unigram and bigram ever
    /// indexed. Term ids are `0..vocabulary_size()`.
    pub fn vocabulary_size(&self) -> usize {
        self.texts.len()
    }

    /// Add a document given `(field, text)` pairs; unknown fields are an
    /// indexing bug and panic (the entity layer controls both sides).
    /// Returns the new doc id.
    pub fn add_document(&mut self, field_texts: &[(FieldId, &str)]) -> DocId {
        let doc = DocId(self.docs.len() as u32);
        let nfields = self.fields.len();
        let mut weighted_len = 0.0;
        // Every term occurrence as (term, field); sorted, each run of one
        // term is its posting and its forward-vector entry.
        let mut hits: Vec<(TermId, u16)> = Vec::new();
        for &(field, text) in field_texts {
            let fi = field.0 as usize;
            assert!(fi < nfields, "unknown field {field:?}");
            let tokens = self.analyzer.tokenize(text);
            weighted_len += self.fields[fi].weight * tokens.len() as f64;
            let mut prev: Option<(TermId, &Token)> = None;
            for tok in &tokens {
                let id = self.intern(&tok.term, &tok.surface);
                hits.push((id, field.0));
                if let Some((prev_id, p)) = prev {
                    if p.position + 1 == tok.position {
                        hits.push((self.intern_bigram(prev_id, p, id, tok), field.0));
                    }
                }
                prev = Some((id, tok));
            }
        }
        hits.sort_unstable();
        let mut term_freqs = Vec::new();
        for run in hits.chunk_by(|a, b| a.0 == b.0) {
            let id = run[0].0;
            let mut field_tf = vec![0u32; nfields];
            for &(_, f) in run {
                field_tf[f as usize] += 1;
            }
            let tf = run.len() as u32;
            self.postings[id.0 as usize].push(Posting { doc, field_tf });
            let stats = &mut self.stats[id.0 as usize];
            stats.corpus_tf += tf as u64;
            stats.doc_freq += 1;
            self.corpus_tokens += tf as u64;
            term_freqs.push((id, tf));
        }
        self.total_weighted_len += weighted_len;
        self.docs.push(DocEntry {
            weighted_len,
            term_freqs,
        });
        doc
    }

    /// The id of a unigram, interning it on first sight.
    fn intern(&mut self, term: &str, surface: &str) -> TermId {
        match self.term_ids.get(term) {
            Some(&id) => id,
            None => self.push_term(term.to_owned(), surface.to_owned(), None),
        }
    }

    /// The id of the bigram `a b`, interning it on first sight.
    fn intern_bigram(&mut self, a: TermId, a_tok: &Token, b: TermId, b_tok: &Token) -> TermId {
        if let Some(&id) = self.bigram_ids.get(&(a, b)) {
            return id;
        }
        let text = format!("{} {}", a_tok.term, b_tok.term);
        let surface = format!("{} {}", a_tok.surface, b_tok.surface);
        let id = self.push_term(text, surface, Some((a, b)));
        self.bigram_ids.insert((a, b), id);
        id
    }

    fn push_term(
        &mut self,
        text: String,
        surface: String,
        parts: Option<(TermId, TermId)>,
    ) -> TermId {
        let id = TermId(self.texts.len() as u32);
        self.term_ids.insert(text.clone(), id);
        self.texts.push(text);
        self.surfaces.push(surface);
        self.stats.push(TermStats {
            corpus_tf: 0,
            doc_freq: 0,
            parts,
        });
        self.postings.push(Vec::new());
        id
    }

    /// Exact corpus term frequency (incl. bigrams).
    pub fn corpus_tf(&self, term: &str) -> u64 {
        self.term_id(term)
            .map_or(0, |id| self.term_stats(id).corpus_tf)
    }

    /// Total tokens across the corpus (incl. bigrams).
    pub fn corpus_tokens(&self) -> u64 {
        self.corpus_tokens
    }

    /// The display (surface) form for a term: the original word of the
    /// term's **first** indexed occurrence ("politic" → "politics"), kept
    /// for good even when another surface of the same stem later occurs
    /// more often. Falls back to the term itself.
    pub fn display_form<'a>(&'a self, term: &'a str) -> &'a str {
        self.term_id(term).map_or(term, |id| self.term_surface(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields() -> Vec<FieldSpec> {
        vec![
            FieldSpec {
                name: "title".into(),
                weight: 3.0,
            },
            FieldSpec {
                name: "body".into(),
                weight: 1.0,
            },
        ]
    }

    fn index() -> InvertedIndex {
        InvertedIndex::new(Analyzer::new(), fields())
    }

    #[test]
    fn add_and_lookup() {
        let mut ix = index();
        let t = ix.field_id("title").unwrap();
        let b = ix.field_id("body").unwrap();
        let d0 = ix.add_document(&[(t, "Latin American History"), (b, "covers latin america")]);
        let d1 = ix.add_document(&[(t, "Intro to Databases"), (b, "sql and storage")]);
        assert_eq!(ix.num_docs(), 2);
        assert_eq!(ix.doc_freq("latin"), 1);
        assert_eq!(ix.doc_freq("american"), 1); // stemmed "america" ≠ "american"? both map via stem
        let ps = ix.postings("databas");
        // "Databases" stems to "database"
        assert!(ps.is_empty());
        let ps = ix.postings("database");
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].doc, d1);
        // title tf recorded in field 0
        let ps = ix.postings("latin");
        assert_eq!(ps[0].doc, d0);
        assert_eq!(ps[0].field_tf, vec![1, 1]);
    }

    #[test]
    fn bigrams_indexed() {
        let mut ix = index();
        let t = ix.field_id("title").unwrap();
        ix.add_document(&[(t, "Latin American Politics")]);
        assert_eq!(ix.doc_freq("latin american"), 1);
        assert_eq!(ix.doc_freq("american politic"), 1);
        // No bigram across a stopword gap:
        let mut ix2 = index();
        let t2 = ix2.field_id("title").unwrap();
        ix2.add_document(&[(t2, "history of science")]);
        assert_eq!(ix2.doc_freq("history science"), 0);
    }

    #[test]
    fn term_ids_are_interned_once() {
        let mut ix = index();
        let t = ix.field_id("title").unwrap();
        ix.add_document(&[(t, "alpha beta")]);
        let alpha = ix.term_id("alpha").unwrap();
        let pair = ix.term_id("alpha beta").unwrap();
        assert_eq!(
            ix.term_stats(pair).parts,
            Some((alpha, ix.term_id("beta").unwrap()))
        );
        ix.add_document(&[(t, "gamma alpha beta")]);
        assert_eq!(ix.term_id("alpha"), Some(alpha));
        assert_eq!(ix.term_id("alpha beta"), Some(pair));
        assert_eq!(ix.doc_freq("alpha beta"), 2);
        assert_eq!(ix.vocabulary_size(), 5); // alpha, beta, alpha beta, gamma, gamma alpha
    }

    #[test]
    fn display_form_is_the_first_surface_seen() {
        let mut ix = index();
        let b = ix.field_id("body").unwrap();
        ix.add_document(&[(b, "politic")]);
        ix.add_document(&[(b, "politics politics politics")]);
        assert_eq!(ix.display_form("politic"), "politic");
    }

    #[test]
    fn weighted_length_accounting() {
        let mut ix = index();
        let t = ix.field_id("title").unwrap();
        let b = ix.field_id("body").unwrap();
        // 2 title tokens * 3.0 + 3 body tokens * 1.0 = 9.0
        ix.add_document(&[(t, "greek science"), (b, "famous greek scientists")]);
        assert!((ix.avg_weighted_len() - 9.0).abs() < 1e-9);
        ix.add_document(&[(b, "one")]);
        assert!((ix.avg_weighted_len() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn term_freqs_power_clouds() {
        let mut ix = index();
        let b = ix.field_id("body").unwrap();
        let d = ix.add_document(&[(b, "politics politics war")]);
        let entry = ix.doc(d).unwrap();
        let tf = |term: &str| {
            let id = ix.term_id(term).unwrap();
            entry
                .term_freqs
                .iter()
                .find(|(t, _)| *t == id)
                .map(|(_, n)| *n)
        };
        assert_eq!(tf("politic"), Some(2));
        assert_eq!(tf("war"), Some(1));
        assert_eq!(tf("politic politic"), Some(1));
        assert!(entry.term_freqs.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
