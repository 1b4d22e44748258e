//! The similarity-function library.
//!
//! §3.2: "The operator may call upon functions in a library that implement
//! common tasks for recommendations, such as computing the Jaccard or
//! Pearson similarity of two sets of objects." Figure 5(b) computes
//! student similarity "by taking the inverse Euclidean distance of their
//! ratings"; Figure 5(a) compares course titles.
//!
//! All functions return values in a comparable range: set and text
//! similarities are in [0, 1]; Pearson is in [-1, 1]; inverse Euclidean is
//! in (0, 1] via 1/(1+d).

use serde::{Deserialize, Serialize};
use std::collections::HashSet;

use crate::value::Value;

/// Set similarities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SetSim {
    #[default]
    Jaccard,
    Dice,
    /// Overlap coefficient: |A∩B| / min(|A|,|B|).
    Overlap,
    /// Cosine over binary membership vectors: |A∩B| / √(|A|·|B|).
    Cosine,
}

/// Are the keys strictly ascending (sorted, no duplicates)? What the
/// extend operator's nest guarantees, and what makes a merge walk see
/// exactly the pairs a hash intersection would.
fn strictly_ascending<T>(items: &[T], key: impl Fn(&T) -> &Value) -> bool {
    items.windows(2).all(|w| key(&w[0]) < key(&w[1]))
}

/// Walk two strictly ascending key sequences in step, calling `hit` with
/// the positions of every shared key, in `a` order.
fn merge_common<A, B>(
    a: &[A],
    b: &[B],
    key_a: impl Fn(&A) -> &Value,
    key_b: impl Fn(&B) -> &Value,
    mut hit: impl FnMut(usize, usize),
) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match key_a(&a[i]).cmp(key_b(&b[j])) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                hit(i, j);
                i += 1;
                j += 1;
            }
        }
    }
}

/// `(|A∩B|, |A|, |B|)` over distinct elements, by hashing — for any
/// input, including unsorted and duplicated ones.
fn set_counts_hashed(a: &[Value], b: &[Value]) -> (usize, usize, usize) {
    let sa: HashSet<&Value> = a.iter().collect();
    let sb: HashSet<&Value> = b.iter().collect();
    (sa.intersection(&sb).count(), sa.len(), sb.len())
}

/// [`set_counts_hashed`], by sorted merge when both inputs are strictly
/// ascending: nothing is hashed or allocated per pair.
fn set_counts(a: &[Value], b: &[Value]) -> (usize, usize, usize) {
    if !(strictly_ascending(a, |v| v) && strictly_ascending(b, |v| v)) {
        return set_counts_hashed(a, b);
    }
    let mut inter = 0;
    merge_common(a, b, |v| v, |v| v, |_, _| inter += 1);
    (inter, a.len(), b.len())
}

/// The ratings two vectors give their shared keys, paired up in `a`
/// order, by hashing `b` (a duplicated `b` key keeps its last rating).
fn common_ratings_hashed(a: &[(Value, f64)], b: &[(Value, f64)]) -> (Vec<f64>, Vec<f64>) {
    let bm: std::collections::HashMap<&Value, f64> = b.iter().map(|(k, v)| (k, *v)).collect();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for (k, va) in a {
        if let Some(vb) = bm.get(k) {
            xs.push(*va);
            ys.push(*vb);
        }
    }
    (xs, ys)
}

/// [`common_ratings_hashed`], by sorted merge when both inputs are
/// strictly ascending by key — same pairs in the same order, so every
/// similarity over them is the same float.
fn common_ratings(a: &[(Value, f64)], b: &[(Value, f64)]) -> (Vec<f64>, Vec<f64>) {
    if !(strictly_ascending(a, |e| &e.0) && strictly_ascending(b, |e| &e.0)) {
        return common_ratings_hashed(a, b);
    }
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    merge_common(
        a,
        b,
        |e| &e.0,
        |e| &e.0,
        |i, j| {
            xs.push(a[i].1);
            ys.push(b[j].1);
        },
    );
    (xs, ys)
}

/// The widest key span (`max − min + 1`) an all-Int comparator cell gets a
/// dense probe for: an 8 KiB bitmap, plus 512 KiB of rating slots in
/// `Ratings` mode; any other cell is scored pairwise. Scoring 3,500
/// targets of 20 keys against one cell takes 0.12–0.22 ms through the
/// probe at any span up to this one and 1.2–1.6 ms by the pairwise merge;
/// building the probe costs under 1 µs for a set and 13 µs for ratings at
/// this span.
pub(crate) const DENSE_SPAN: u64 = 1 << 16;

/// The paired ratings of the shared keys, as [`RatingsSim`] scores them.
pub(crate) type Common = (Vec<f64>, Vec<f64>);

/// One comparator cell — a `Set`'s keys (`E = Value`) or a `Ratings`
/// vector (`E = (Value, f64)`) — whose keys are all Int and span at most
/// [`DENSE_SPAN`], indexed once as a bitmap over `key − lo` (plus a rating
/// slot per id in `Ratings` mode), so that every target cell scored
/// against it walks its own keys and looks each one up: no merge, and no
/// hashing, per pair. Scores through a probe are the pairwise
/// [`SetSim::score`]/[`RatingsSim::score`] floats bit for bit.
pub(crate) struct Probe<'a, E> {
    /// The comparator cell, for the pairs the lookups cannot serve.
    cell: &'a [E],
    /// |C| over distinct keys.
    distinct: usize,
    lo: i64,
    bits: Vec<u64>,
    slots: Vec<f64>,
}

/// `(min, max − min + 1)` of keys that are all Int and span at most
/// [`DENSE_SPAN`] — `(0, 0)` for none — or `None` otherwise.
fn dense_span<'a>(keys: impl Iterator<Item = &'a Value>) -> Option<(i64, usize)> {
    let mut range = None;
    for k in keys {
        let Value::Int(k) = *k else { return None };
        range = Some(range.map_or((k, k), |(lo, hi): (i64, i64)| (lo.min(k), hi.max(k))));
    }
    match range {
        None => Some((0, 0)),
        Some((lo, hi)) if hi.abs_diff(lo) < DENSE_SPAN => Some((lo, hi.abs_diff(lo) as usize + 1)),
        Some(_) => None,
    }
}

/// Do these comparator keys get a [`Probe`]?
pub(crate) fn dense_keys<'a>(keys: impl Iterator<Item = &'a Value>) -> bool {
    dense_span(keys).is_some()
}

impl<'a, E> Probe<'a, E> {
    /// Index `entries` (the cell's keys, with their ratings in `Ratings`
    /// mode) if they are dense; a repeated key keeps its last rating, as
    /// [`common_ratings_hashed`]'s map does.
    fn build(
        cell: &'a [E],
        entries: impl Iterator<Item = (&'a Value, f64)> + Clone,
        ratings: bool,
    ) -> Option<Self> {
        let (lo, n) = dense_span(entries.clone().map(|(k, _)| k))?;
        let mut bits = vec![0u64; n.div_ceil(64)];
        let mut slots = vec![0.0; if ratings { n } else { 0 }];
        let mut distinct = 0;
        for (k, v) in entries {
            let Value::Int(k) = *k else { continue };
            let i = k.wrapping_sub(lo) as usize;
            let (word, bit) = (&mut bits[i / 64], 1u64 << (i % 64));
            distinct += usize::from(*word & bit == 0);
            *word |= bit;
            if ratings {
                slots[i] = v;
            }
        }
        Some(Probe {
            cell,
            distinct,
            lo,
            bits,
            slots,
        })
    }

    /// The slot of key `k`, if the cell holds it.
    #[inline]
    fn slot(&self, k: i64) -> Option<usize> {
        let i = usize::try_from(k.checked_sub(self.lo)?).ok()?;
        let word = *self.bits.get(i / 64)?;
        (word & (1 << (i % 64)) != 0).then_some(i)
    }
}

impl<'a> Probe<'a, Value> {
    /// The probe of a `Set` cell, if its keys are dense.
    pub(crate) fn set(keys: &'a [Value]) -> Option<Self> {
        Self::build(keys, keys.iter().map(|k| (k, 0.0)), false)
    }

    /// [`set_counts`] of `t` against the comparator cell. The walk checks
    /// that `t` is strictly ascending and all Int as it goes; a target
    /// that is not is counted by [`set_counts_hashed`], whose
    /// distinct-element counts the merge and this walk both reproduce for
    /// ascending input.
    fn set_counts(&self, t: &[Value]) -> (usize, usize, usize) {
        let mut prev = None;
        let walked = t.iter().try_fold(0, |inter, v| {
            let Value::Int(k) = *v else { return None };
            if prev.is_some_and(|p| p >= k) {
                return None;
            }
            prev = Some(k);
            Some(inter + usize::from(self.slot(k).is_some()))
        });
        match walked {
            Some(inter) => (inter, t.len(), self.distinct),
            None => set_counts_hashed(t, self.cell),
        }
    }
}

impl<'a> Probe<'a, (Value, f64)> {
    /// The probe of a `Ratings` cell, if its keys are dense.
    pub(crate) fn ratings(ratings: &'a [(Value, f64)]) -> Option<Self> {
        Self::build(ratings, ratings.iter().map(|(k, v)| (k, *v)), true)
    }

    /// [`common_ratings_hashed`] of `t` against the comparator cell, into
    /// `out`: the probe holds each key's last rating and the walk goes in
    /// `t` order, so these are that function's pairs in its order, for
    /// any `t`.
    fn common_ratings(&self, t: &[(Value, f64)], out: &mut Common) {
        let (xs, ys) = out;
        xs.clear();
        ys.clear();
        for (k, x) in t {
            let Value::Int(k) = *k else {
                // A Float key can equal an Int one: hash the pair.
                *out = common_ratings_hashed(t, self.cell);
                return;
            };
            if let Some(i) = self.slot(k) {
                xs.push(*x);
                ys.push(self.slots[i]);
            }
        }
    }
}

impl SetSim {
    pub fn score(&self, a: &[Value], b: &[Value]) -> f64 {
        self.score_counts(set_counts(a, b))
    }

    /// [`SetSim::score`] of `t` against the probe's comparator cell.
    pub(crate) fn score_probe(&self, t: &[Value], probe: &Probe<'_, Value>) -> f64 {
        self.score_counts(probe.set_counts(t))
    }

    /// The similarity from `(|A∩B|, |A|, |B|)`.
    fn score_counts(&self, (inter, la, lb): (usize, usize, usize)) -> f64 {
        if la == 0 && lb == 0 {
            return 0.0;
        }
        let (inter, la, lb) = (inter as f64, la as f64, lb as f64);
        match self {
            SetSim::Jaccard => {
                let union = la + lb - inter;
                if union == 0.0 {
                    0.0
                } else {
                    inter / union
                }
            }
            SetSim::Dice => {
                if la + lb == 0.0 {
                    0.0
                } else {
                    2.0 * inter / (la + lb)
                }
            }
            SetSim::Overlap => {
                let m = la.min(lb);
                if m == 0.0 {
                    0.0
                } else {
                    inter / m
                }
            }
            SetSim::Cosine => {
                let d = (la * lb).sqrt();
                if d == 0.0 {
                    0.0
                } else {
                    inter / d
                }
            }
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            SetSim::Jaccard => "jaccard",
            SetSim::Dice => "dice",
            SetSim::Overlap => "overlap",
            SetSim::Cosine => "cosine",
        }
    }
}

/// Rating-vector similarities over the keys two vectors share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RatingsSim {
    /// 1 / (1 + ‖a − b‖₂) over common keys — Figure 5(b)'s choice.
    #[default]
    InverseEuclidean,
    /// Pearson correlation over common keys.
    Pearson,
    /// Cosine of the two rating vectors over common keys.
    Cosine,
}

impl RatingsSim {
    /// `min_common`: below this many shared keys the similarity is 0
    /// (a single shared rating says nothing; CF folklore uses 2–5).
    pub fn score(&self, a: &[(Value, f64)], b: &[(Value, f64)], min_common: usize) -> f64 {
        self.score_common(&common_ratings(a, b), min_common)
    }

    /// [`RatingsSim::score`] of `t` against the probe's comparator cell;
    /// `scratch` holds the shared keys' ratings, reused from pair to pair.
    pub(crate) fn score_probe(
        &self,
        t: &[(Value, f64)],
        probe: &Probe<'_, (Value, f64)>,
        min_common: usize,
        scratch: &mut Common,
    ) -> f64 {
        probe.common_ratings(t, scratch);
        self.score_common(scratch, min_common)
    }

    /// The similarity from the paired ratings of the shared keys.
    fn score_common(&self, (xs, ys): &(Vec<f64>, Vec<f64>), min_common: usize) -> f64 {
        let n = xs.len();
        if n < min_common.max(1) {
            return 0.0;
        }
        match self {
            RatingsSim::InverseEuclidean => {
                let d2: f64 = xs.iter().zip(ys).map(|(x, y)| (x - y) * (x - y)).sum();
                1.0 / (1.0 + d2.sqrt())
            }
            RatingsSim::Pearson => {
                let nf = n as f64;
                let mx = xs.iter().sum::<f64>() / nf;
                let my = ys.iter().sum::<f64>() / nf;
                let mut cov = 0.0;
                let mut vx = 0.0;
                let mut vy = 0.0;
                for (x, y) in xs.iter().zip(ys) {
                    cov += (x - mx) * (y - my);
                    vx += (x - mx) * (x - mx);
                    vy += (y - my) * (y - my);
                }
                if vx == 0.0 || vy == 0.0 {
                    0.0
                } else {
                    cov / (vx.sqrt() * vy.sqrt())
                }
            }
            RatingsSim::Cosine => {
                let dot: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
                let na: f64 = xs.iter().map(|x| x * x).sum::<f64>().sqrt();
                let nb: f64 = ys.iter().map(|y| y * y).sum::<f64>().sqrt();
                if na == 0.0 || nb == 0.0 {
                    0.0
                } else {
                    dot / (na * nb)
                }
            }
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            RatingsSim::InverseEuclidean => "inverse_euclidean",
            RatingsSim::Pearson => "pearson",
            RatingsSim::Cosine => "cosine",
        }
    }
}

/// Text similarities — Figure 5(a) finds "courses with titles similar to
/// the indicated course".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TextSim {
    /// Jaccard over lowercase word sets.
    #[default]
    WordJaccard,
    /// Jaccard over character trigrams (catches morphology:
    /// "programming" ~ "programs").
    TrigramJaccard,
    /// 1 − normalized Levenshtein distance.
    Levenshtein,
}

impl TextSim {
    pub fn score(&self, a: &str, b: &str) -> f64 {
        match self {
            TextSim::WordJaccard => {
                let sa: HashSet<String> = a
                    .to_lowercase()
                    .split_whitespace()
                    .map(str::to_owned)
                    .collect();
                let sb: HashSet<String> = b
                    .to_lowercase()
                    .split_whitespace()
                    .map(str::to_owned)
                    .collect();
                if sa.is_empty() && sb.is_empty() {
                    return 0.0;
                }
                let inter = sa.intersection(&sb).count() as f64;
                let union = (sa.len() + sb.len()) as f64 - inter;
                if union == 0.0 {
                    0.0
                } else {
                    inter / union
                }
            }
            TextSim::TrigramJaccard => {
                let ta = trigrams(&a.to_lowercase());
                let tb = trigrams(&b.to_lowercase());
                if ta.is_empty() && tb.is_empty() {
                    return 0.0;
                }
                let inter = ta.intersection(&tb).count() as f64;
                let union = (ta.len() + tb.len()) as f64 - inter;
                if union == 0.0 {
                    0.0
                } else {
                    inter / union
                }
            }
            TextSim::Levenshtein => {
                let la = a.chars().count();
                let lb = b.chars().count();
                if la == 0 && lb == 0 {
                    return 1.0;
                }
                let d = levenshtein(a, b) as f64;
                1.0 - d / la.max(lb) as f64
            }
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            TextSim::WordJaccard => "word_jaccard",
            TextSim::TrigramJaccard => "trigram_jaccard",
            TextSim::Levenshtein => "levenshtein",
        }
    }
}

fn trigrams(s: &str) -> HashSet<[char; 3]> {
    let padded: Vec<char> = std::iter::once(' ')
        .chain(s.chars())
        .chain(std::iter::once(' '))
        .collect();
    padded.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
}

/// Classic DP Levenshtein with a rolling row (O(min) memory).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vals(v: &[i64]) -> Vec<Value> {
        v.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(
            SetSim::Jaccard.score(&vals(&[1, 2, 3]), &vals(&[2, 3, 4])),
            0.5
        );
        assert_eq!(SetSim::Jaccard.score(&vals(&[1]), &vals(&[1])), 1.0);
        assert_eq!(SetSim::Jaccard.score(&vals(&[1]), &vals(&[2])), 0.0);
        assert_eq!(SetSim::Jaccard.score(&[], &[]), 0.0);
    }

    #[test]
    fn dice_overlap_cosine() {
        let a = vals(&[1, 2, 3]);
        let b = vals(&[2, 3, 4, 5]);
        // inter=2, |a|=3, |b|=4
        assert!((SetSim::Dice.score(&a, &b) - 4.0 / 7.0).abs() < 1e-12);
        assert!((SetSim::Overlap.score(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert!((SetSim::Cosine.score(&a, &b) - 2.0 / 12f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn inverse_euclidean_identical_is_one() {
        let a = vec![(Value::Int(1), 4.0), (Value::Int(2), 3.0)];
        assert_eq!(RatingsSim::InverseEuclidean.score(&a, &a, 1), 1.0);
    }

    #[test]
    fn inverse_euclidean_decreases_with_distance() {
        let a = vec![(Value::Int(1), 4.0), (Value::Int(2), 3.0)];
        let near = vec![(Value::Int(1), 4.5), (Value::Int(2), 3.0)];
        let far = vec![(Value::Int(1), 1.0), (Value::Int(2), 5.0)];
        let s_near = RatingsSim::InverseEuclidean.score(&a, &near, 1);
        let s_far = RatingsSim::InverseEuclidean.score(&a, &far, 1);
        assert!(s_near > s_far);
        assert!(s_near < 1.0);
        assert!(s_far > 0.0);
    }

    #[test]
    fn min_common_gate() {
        let a = vec![(Value::Int(1), 4.0)];
        let b = vec![(Value::Int(1), 4.0)];
        assert_eq!(RatingsSim::InverseEuclidean.score(&a, &b, 2), 0.0);
        assert_eq!(RatingsSim::InverseEuclidean.score(&a, &b, 1), 1.0);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let a = vec![
            (Value::Int(1), 1.0),
            (Value::Int(2), 2.0),
            (Value::Int(3), 3.0),
        ];
        let b = vec![
            (Value::Int(1), 2.0),
            (Value::Int(2), 4.0),
            (Value::Int(3), 6.0),
        ];
        assert!((RatingsSim::Pearson.score(&a, &b, 2) - 1.0).abs() < 1e-12);
        let inv = vec![
            (Value::Int(1), 3.0),
            (Value::Int(2), 2.0),
            (Value::Int(3), 1.0),
        ];
        assert!((RatingsSim::Pearson.score(&a, &inv, 2) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_vector_is_zero() {
        let a = vec![(Value::Int(1), 3.0), (Value::Int(2), 3.0)];
        let b = vec![(Value::Int(1), 1.0), (Value::Int(2), 5.0)];
        assert_eq!(RatingsSim::Pearson.score(&a, &b, 2), 0.0);
    }

    #[test]
    fn no_common_keys_zero() {
        let a = vec![(Value::Int(1), 4.0)];
        let b = vec![(Value::Int(2), 4.0)];
        for sim in [
            RatingsSim::InverseEuclidean,
            RatingsSim::Pearson,
            RatingsSim::Cosine,
        ] {
            assert_eq!(sim.score(&a, &b, 1), 0.0, "{}", sim.name());
        }
    }

    #[test]
    fn text_similarity_fig5a() {
        // "Introduction to Programming" vs related titles.
        let target = "Introduction to Programming";
        let close = "Programming Methodology";
        let far = "Medieval Art History";
        for sim in [TextSim::WordJaccard, TextSim::TrigramJaccard] {
            let sc = sim.score(target, close);
            let sf = sim.score(target, far);
            assert!(sc > sf, "{}: {sc} vs {sf}", sim.name());
        }
        assert_eq!(TextSim::WordJaccard.score(target, target), 1.0);
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert!((TextSim::Levenshtein.score("abc", "abd") - 2.0 / 3.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn set_sims_bounded_and_symmetric(
            a in proptest::collection::vec(0i64..20, 0..15),
            b in proptest::collection::vec(0i64..20, 0..15)
        ) {
            let (va, vb) = (vals(&a), vals(&b));
            for sim in [SetSim::Jaccard, SetSim::Dice, SetSim::Overlap, SetSim::Cosine] {
                let s = sim.score(&va, &vb);
                prop_assert!((0.0..=1.0).contains(&s), "{} out of range: {s}", sim.name());
                prop_assert!((s - sim.score(&vb, &va)).abs() < 1e-12);
            }
        }

        #[test]
        fn set_sim_identity(a in proptest::collection::vec(0i64..20, 1..15)) {
            let va = vals(&a);
            for sim in [SetSim::Jaccard, SetSim::Dice, SetSim::Overlap, SetSim::Cosine] {
                prop_assert!((sim.score(&va, &va) - 1.0).abs() < 1e-12);
            }
        }

        #[test]
        fn ratings_sims_bounded(
            a in proptest::collection::vec((0i64..10, 1.0f64..5.0), 0..10),
            b in proptest::collection::vec((0i64..10, 1.0f64..5.0), 0..10)
        ) {
            let ra: Vec<(Value, f64)> = a.iter().map(|(k, v)| (Value::Int(*k), *v)).collect();
            let rb: Vec<(Value, f64)> = b.iter().map(|(k, v)| (Value::Int(*k), *v)).collect();
            let ie = RatingsSim::InverseEuclidean.score(&ra, &rb, 1);
            prop_assert!((0.0..=1.0).contains(&ie));
            let p = RatingsSim::Pearson.score(&ra, &rb, 1);
            prop_assert!((-1.0 - 1e9_f64.recip()..=1.0 + 1e9_f64.recip()).contains(&p));
        }

        /// The sorted-merge path is an optimization of the hash path, not
        /// an approximation: on any input — unsorted, duplicated, empty,
        /// or strictly ascending (which `score` serves by merge) — every
        /// similarity is the hash path's float, bit for bit.
        #[test]
        fn merge_path_equals_hash_path(
            a in proptest::collection::vec((0i64..12, 1.0f64..5.0), 0..12),
            b in proptest::collection::vec((0i64..12, 1.0f64..5.0), 0..12),
            ascending in any::<bool>(),
        ) {
            let nest = |v: &[(i64, f64)]| -> Vec<(Value, f64)> {
                let mut r: Vec<(Value, f64)> = v.iter().map(|(k, x)| (Value::Int(*k), *x)).collect();
                if ascending {
                    // What the extend operator hands over.
                    r.sort_by(|x, y| x.0.cmp(&y.0));
                    r.dedup_by(|x, y| x.0 == y.0);
                }
                r
            };
            let (ra, rb) = (nest(&a), nest(&b));
            let keys = |r: &[(Value, f64)]| -> Vec<Value> { r.iter().map(|(k, _)| k.clone()).collect() };
            let (sa, sb) = (keys(&ra), keys(&rb));
            for sim in [SetSim::Jaccard, SetSim::Dice, SetSim::Overlap, SetSim::Cosine] {
                let hashed = sim.score_counts(set_counts_hashed(&sa, &sb));
                prop_assert_eq!(sim.score(&sa, &sb).to_bits(), hashed.to_bits(), "{}", sim.name());
            }
            for sim in [RatingsSim::InverseEuclidean, RatingsSim::Pearson, RatingsSim::Cosine] {
                for min_common in [0, 1, 2, 5] {
                    let hashed = sim.score_common(&common_ratings_hashed(&ra, &rb), min_common);
                    prop_assert_eq!(
                        sim.score(&ra, &rb, min_common).to_bits(), hashed.to_bits(),
                        "{} min_common={}", sim.name(), min_common
                    );
                }
            }
            if ascending {
                // The merge really ran, and found the hash path's pairs.
                prop_assert!(strictly_ascending(&ra, |e| &e.0) && strictly_ascending(&rb, |e| &e.0));
                prop_assert_eq!(common_ratings(&ra, &rb), common_ratings_hashed(&ra, &rb));
                prop_assert_eq!(set_counts(&sa, &sb), set_counts_hashed(&sa, &sb));
            }
        }

        #[test]
        fn levenshtein_triangle_inequality(
            a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}"
        ) {
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn text_sims_bounded(a in "[a-z ]{0,20}", b in "[a-z ]{0,20}") {
            for sim in [TextSim::WordJaccard, TextSim::TrigramJaccard, TextSim::Levenshtein] {
                let s = sim.score(&a, &b);
                prop_assert!((0.0..=1.0).contains(&s), "{}: {s}", sim.name());
            }
        }
    }

    /// How far a comparator cell's keys stretch: within a few ids, to a
    /// span of exactly [`DENSE_SPAN`], one past it, or across the whole
    /// `i64` range (`-6..=i64::MAX` plus `i64::MIN`) or half of it
    /// (`i64::MIN..=7`).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Stretch {
        Narrow,
        AtBound,
        PastBound,
        FullRange,
        HalfRange,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A probe is an optimization of the pairwise scores, not an
        /// approximation: a comparator cell gets one exactly when its keys
        /// are Int and span at most `DENSE_SPAN`, and then every set and
        /// ratings similarity of a target against it is the pairwise
        /// `score`'s float, bit for bit — for sorted or unsorted,
        /// duplicated, empty, negative, Text and far-apart keys, and a
        /// target with a Float key.
        #[test]
        fn probe_equals_pairwise(
            t in proptest::collection::vec((-6i64..8, 1.0f64..5.0), 0..14),
            c in proptest::collection::vec((-6i64..8, 1.0f64..5.0), 0..14),
            t_base in prop_oneof![Just(0i64), Just(-40), Just(1 << 40), Just(i64::MIN + 9)],
            stretch in prop_oneof![
                Just(Stretch::Narrow),
                Just(Stretch::AtBound),
                Just(Stretch::PastBound),
                Just(Stretch::FullRange),
                Just(Stretch::HalfRange),
            ],
            text in any::<bool>(),
            float_key in any::<bool>(),
            t_sorted in any::<bool>(),
            c_sorted in any::<bool>(),
        ) {
            let key = |k: i64| if text { Value::Text(format!("k{k}")) } else { Value::Int(k) };
            let cell = |v: &[(i64, f64)], base: i64, sorted: bool| -> Vec<(Value, f64)> {
                let mut r: Vec<(Value, f64)> =
                    v.iter().map(|&(k, x)| (key(base.wrapping_add(k)), x)).collect();
                if sorted {
                    // What the extend operator hands over.
                    r.sort_by(|x, y| x.0.cmp(&y.0));
                    r.dedup_by(|x, y| x.0 == y.0);
                }
                r
            };
            let mut rc = cell(&c, 0, c_sorted);
            let mut rt = cell(&t, t_base, t_sorted);
            let (low, far) = match stretch {
                Stretch::Narrow => (None, None),
                Stretch::AtBound => (Some(-6), Some(DENSE_SPAN as i64 - 7)),
                Stretch::PastBound => (Some(-6), Some(DENSE_SPAN as i64 - 6)),
                Stretch::FullRange => (Some(i64::MIN), Some(i64::MAX)),
                Stretch::HalfRange => (Some(i64::MIN), Some(7)),
            };
            if let (Some(low), Some(far)) = (low, far) {
                // The cell now spans at least low..=far; the target shares
                // both ends.
                rc.push((key(low), 2.0));
                rc.push((key(far), 4.5));
                rt.push((key(far), 1.5));
                rt.push((key(low), 3.0));
                for (r, sorted) in [(&mut rc, c_sorted), (&mut rt, t_sorted)] {
                    if sorted {
                        r.sort_by(|x, y| x.0.cmp(&y.0));
                        r.dedup_by(|x, y| x.0 == y.0);
                    }
                }
            }
            if float_key && !text {
                if let Some(first) = rt.first_mut() {
                    if let Value::Int(k) = first.0 {
                        first.0 = Value::Float(k as f64);
                    }
                }
            }
            let keys = |r: &[(Value, f64)]| -> Vec<Value> { r.iter().map(|(k, _)| k.clone()).collect() };
            let (st, sc) = (keys(&rt), keys(&rc));

            // An empty cell's keys are all Int, vacuously.
            let dense = (!text || sc.is_empty()) && matches!(stretch, Stretch::Narrow | Stretch::AtBound);
            let (set_probe, ratings_probe) = (Probe::set(&sc), Probe::ratings(&rc));
            prop_assert_eq!(set_probe.is_some(), dense);
            prop_assert_eq!(ratings_probe.is_some(), dense);
            prop_assert_eq!(dense_keys(sc.iter()), dense);

            if let Some(probe) = &set_probe {
                for sim in [SetSim::Jaccard, SetSim::Dice, SetSim::Overlap, SetSim::Cosine] {
                    prop_assert_eq!(
                        sim.score_probe(&st, probe).to_bits(), sim.score(&st, &sc).to_bits(),
                        "{}", sim.name()
                    );
                }
            }
            if let Some(probe) = &ratings_probe {
                let mut scratch = Common::default();
                for sim in [RatingsSim::InverseEuclidean, RatingsSim::Pearson, RatingsSim::Cosine] {
                    for min_common in [0, 1, 2, 5] {
                        prop_assert_eq!(
                            sim.score_probe(&rt, probe, min_common, &mut scratch).to_bits(),
                            sim.score(&rt, &rc, min_common).to_bits(),
                            "{} min_common={}", sim.name(), min_common
                        );
                    }
                }
                // The walk finds the hash path's pairs in its order.
                probe.common_ratings(&rt, &mut scratch);
                prop_assert_eq!(&scratch, &common_ratings_hashed(&rt, &rc));
            }
        }
    }
}
