//! # cr-textsearch — entity search and Data Clouds
//!
//! Implements §3.1 of *Social Systems: Can We Do More Than Just Poke
//! Friends?* (CIDR 2009): keyword search over **entities that span multiple
//! relations**, and **data clouds** — the most significant terms in the
//! current result set, used for iterative refinement.
//!
//! Components:
//!
//! * [`analysis`] — tokenizer, stopwords, a light stemmer;
//! * [`index`] — a term dictionary of interned ids, an inverted index
//!   with per-field postings (title, description, comments, ... with
//!   different weights) plus per-document forward vectors of
//!   `(term id, tf)` (the cloud's raw material);
//! * [`score`] — BM25F-style ranking, answering the paper's question "if we
//!   search for *Java*, should a course that mentions Java in its title
//!   score the same as one that mentions it in student comments?" (no — the
//!   title field carries a higher weight);
//! * [`entity`] — assembles *entity documents* from several relations of a
//!   [`cr_relation`] database (a course entity includes its title,
//!   description, instructor names and every student comment);
//! * [`cloud`] — data-cloud term scoring (log-likelihood ratio against the
//!   background corpus, or TF-IDF), unigrams + bigrams ("Latin American"),
//!   exact over the whole result set;
//! * [`engine`] — the search-refine loop of Figures 3 and 4.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod cloud;
pub mod engine;
pub mod entity;
pub mod highlight;
pub mod index;
pub mod score;

pub use analysis::Analyzer;
pub use cloud::{CloudConfig, CloudTerm, DataCloud};
pub use engine::{SearchEngine, SearchHit, SearchResults};
pub use entity::{EntitySpec, FieldSource};
pub use highlight::{snippet, Snippet};
pub use index::{DocId, FieldId, InvertedIndex, TermId};
