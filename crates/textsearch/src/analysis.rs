//! Text analysis: tokenization, stopwords, light stemming.
//!
//! CourseRank's corpus is short English text (titles, catalog descriptions,
//! student comments). The analyzer lowercases, splits on non-alphanumeric
//! boundaries, drops stopwords, and applies a conservative suffix stemmer
//! so that "programming" / "programs" / "program" collide — enough for
//! clouds and search without a full Porter implementation's edge cases.

/// English stopwords — the usual suspects plus a few course-catalog words
/// that would otherwise dominate every cloud ("course", "students").
pub const STOPWORDS: &[&str] = &[
    // Sorted — the analyzer binary-searches this list. Includes catalog
    // noise words ("course", "students") that would otherwise dominate
    // every cloud.
    "a",
    "also",
    "an",
    "and",
    "are",
    "as",
    "at",
    "be",
    "been",
    "but",
    "by",
    "class",
    "classes",
    "course",
    "courses",
    "for",
    "from",
    "had",
    "has",
    "have",
    "he",
    "her",
    "his",
    "i",
    "if",
    "in",
    "into",
    "introduction",
    "is",
    "it",
    "its",
    "lecture",
    "lectures",
    "may",
    "more",
    "most",
    "no",
    "not",
    "of",
    "on",
    "or",
    "our",
    "prerequisite",
    "prerequisites",
    "professor",
    "quarter",
    "really",
    "she",
    "so",
    "some",
    "student",
    "students",
    "studies",
    "study",
    "such",
    "take",
    "taken",
    "taking",
    "than",
    "that",
    "the",
    "their",
    "them",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "to",
    "topic",
    "topics",
    "unit",
    "units",
    "up",
    "very",
    "was",
    "we",
    "were",
    "what",
    "when",
    "which",
    "who",
    "will",
    "with",
    "would",
    "you",
    "your",
];

/// A produced token: the (possibly stemmed) term, the lowercase surface
/// form it came from (clouds display surfaces, not stems), and its
/// position in the field's token stream (used for adjacency/bigram
/// detection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub term: String,
    pub surface: String,
    pub position: u32,
}

/// Tokens shorter than this many bytes, before or after stemming, are
/// dropped.
const MIN_LEN: usize = 2;

/// The analyzer: lowercases, drops stopwords and one-byte tokens, and
/// stems what is left.
#[derive(Debug, Clone, Default)]
pub struct Analyzer;

impl Analyzer {
    pub fn new() -> Self {
        Analyzer
    }

    /// Tokenize a text into terms with positions.
    ///
    /// Positions count *all* word boundaries (including dropped stopwords),
    /// so bigrams never bridge a stopword gap incorrectly: in
    /// "history of science", `history` and `science` are positions 0 and 2
    /// and therefore not adjacent.
    pub fn tokenize(&self, text: &str) -> Vec<Token> {
        let mut out = Vec::new();
        let mut position = 0u32;
        for raw in text.split(|c: char| !c.is_alphanumeric()) {
            if raw.is_empty() {
                continue;
            }
            let lower = raw.to_lowercase();
            let pos = position;
            position += 1;
            if lower.len() < MIN_LEN {
                continue;
            }
            if STOPWORDS.binary_search(&lower.as_str()).is_ok() {
                continue;
            }
            let term = stem(&lower);
            if term.len() < MIN_LEN {
                continue;
            }
            out.push(Token {
                term,
                surface: lower,
                position: pos,
            });
        }
        out
    }

    /// Tokenize into bare terms (no positions). Convenience for queries.
    pub fn terms(&self, text: &str) -> Vec<String> {
        self.tokenize(text).into_iter().map(|t| t.term).collect()
    }
}

/// A conservative English suffix stemmer.
///
/// Handles plural `-s`/`-es`/`-ies`, `-ing`, `-ed`, and `-ly`, with guards
/// against over-stemming short words. Deliberately *not* full Porter: the
/// cloud should display readable terms, and aggressive stemming mangles
/// subject words ("politics" must not become "polit").
pub fn stem(word: &str) -> String {
    let w = word;
    // Protect short words and words ending in 'ss' ("classics"→... no,
    // "classics" ends 's' not 'ss'; "less", "class" keep their form).
    if w.len() <= 3 {
        return w.to_owned();
    }
    if let Some(base) = w.strip_suffix("ies") {
        if base.len() >= 2 {
            return format!("{base}y"); // histories → history? "histor"+"ies" → "history" ✓
        }
    }
    if let Some(base) = w.strip_suffix("sses") {
        return format!("{base}ss");
    }
    if let Some(base) = w.strip_suffix("es") {
        // matches "classes"→"class", "boxes"→"box"; guard "species"
        if base.ends_with("ss")
            || base.ends_with('x')
            || base.ends_with("ch")
            || base.ends_with("sh")
        {
            return base.to_owned();
        }
    }
    if w.ends_with("ss") || w.ends_with("us") || w.ends_with("is") {
        return w.to_owned();
    }
    if let Some(base) = w.strip_suffix('s') {
        return base.to_owned();
    }
    if let Some(base) = w.strip_suffix("ing") {
        if base.len() >= 4 {
            return undouble(base);
        }
    }
    if let Some(base) = w.strip_suffix("ed") {
        if base.len() >= 4 {
            return undouble(base);
        }
    }
    if let Some(base) = w.strip_suffix("ly") {
        if base.len() >= 4 {
            return base.to_owned();
        }
    }
    w.to_owned()
}

/// Undo consonant doubling left by suffix stripping ("programming" →
/// "programm" → "program").
fn undouble(base: &str) -> String {
    let bytes = base.as_bytes();
    if bytes.len() >= 2
        && bytes[bytes.len() - 1] == bytes[bytes.len() - 2]
        && !matches!(bytes[bytes.len() - 1], b'l' | b's' | b'e')
    {
        base[..base.len() - 1].to_owned()
    } else {
        base.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stopword_list_is_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS, "STOPWORDS must stay sorted");
    }

    #[test]
    fn tokenize_basic() {
        let a = Analyzer::new();
        let terms = a.terms("The History of Science: famous Greek scientists!");
        assert_eq!(
            terms,
            vec!["history", "science", "famous", "greek", "scientist"]
        );
    }

    #[test]
    fn positions_preserve_stopword_gaps() {
        let a = Analyzer::new();
        let toks = a.tokenize("history of science");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].position, 0);
        assert_eq!(toks[1].position, 2); // gap from dropped "of"
    }

    #[test]
    fn stemming_collapses_variants() {
        assert_eq!(stem("programming"), "program");
        assert_eq!(stem("programs"), "program");
        assert_eq!(stem("program"), "program");
        assert_eq!(stem("histories"), "history");
        assert_eq!(stem("classes"), "class");
        assert_eq!(stem("databases"), "database");
    }

    #[test]
    fn stemming_guards() {
        assert_eq!(stem("class"), "class"); // 'ss' keeps
        assert_eq!(stem("its"), "its"); // short
        assert_eq!(stem("bus"), "bus");
        assert_eq!(stem("analysis"), "analysis"); // '-is' keeps
        assert_eq!(stem("campus"), "campus"); // '-us' keeps
    }

    #[test]
    fn course_codes_tokenize() {
        let a = Analyzer::new();
        let terms = a.terms("CS106A meets MWF");
        assert!(terms.contains(&"cs106a".to_string()));
    }

    #[test]
    fn unicode_safe() {
        let a = Analyzer::new();
        let terms = a.terms("café Économie 中文课程");
        assert!(terms.contains(&"café".to_string()));
    }

    proptest! {
        #[test]
        fn tokenize_never_panics(s in ".*") {
            let a = Analyzer::new();
            let _ = a.tokenize(&s);
        }

        #[test]
        fn stem_is_idempotent(w in "[a-z]{2,12}") {
            let once = stem(&w);
            // Idempotence may not hold exactly for every English suffix
            // chain, but a second application must never panic and must
            // not grow the word.
            let twice = stem(&once);
            prop_assert!(twice.len() <= once.len() + 1);
        }

        #[test]
        fn tokens_are_lowercase(s in "[A-Za-z ]{0,40}") {
            let a = Analyzer::new();
            for t in a.tokenize(&s) {
                prop_assert_eq!(t.term.clone(), t.term.to_lowercase());
            }
        }

        #[test]
        fn positions_strictly_increase(s in "[a-z ]{0,60}") {
            let a = Analyzer::new();
            let toks = a.tokenize(&s);
            for pair in toks.windows(2) {
                prop_assert!(pair[0].position < pair[1].position);
            }
        }
    }
}
