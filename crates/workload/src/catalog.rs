//! The server's item catalog.
//!
//! A [`Catalog`] holds the `D` items of the server database, sorted by
//! popularity rank: item 0 is the most requested. The hybrid scheduler's
//! cutoff `K` splits this ordering — `0..K` is the push set, `K..D` the pull
//! set — so the popularity-weighted aggregates the paper's analysis needs
//! (`Catalog::weighted_length`, [`Catalog::mass`]) are prefix/suffix sums
//! over the same ordering.

use serde::{Deserialize, Serialize};

use hybridcast_sim::dist::Discrete;

use crate::lengths::LengthModel;
use crate::popularity::PopularityModel;
use rand::Rng;

/// Identifier of a catalog item: its popularity rank, zero-indexed.
/// The paper's "item i" (1-indexed) is `ItemId(i-1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ItemId(pub u32);

impl ItemId {
    /// Zero-based index into the catalog.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The paper's 1-indexed rank.
    #[inline]
    pub fn rank(self) -> u32 {
        self.0 + 1
    }
}

impl std::fmt::Display for ItemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item#{}", self.rank())
    }
}

/// One data item: its popularity rank, transmission length and access
/// probability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Item {
    /// Rank id (0 = most popular).
    pub id: ItemId,
    /// Transmission length in broadcast units.
    pub length: u32,
    /// Access probability `P_i` (all items sum to 1).
    pub prob: f64,
}

/// The full database of `D` items, popularity-sorted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    items: Vec<Item>,
    /// Prefix sums of `prob` (`cum[i] = Σ_{j<i} P_j`, length D+1).
    cum_prob: Vec<f64>,
    /// Prefix sums of `prob * length` (length D+1).
    cum_weighted_len: Vec<f64>,
}

impl Catalog {
    /// Builds a catalog of `d` items from a popularity law and a length law.
    /// `rng` drives length sampling only (popularity is deterministic).
    pub fn build<R: Rng + ?Sized>(
        d: usize,
        popularity: &PopularityModel,
        lengths: &LengthModel,
        rng: &mut R,
    ) -> Self {
        let probs = popularity.probabilities(d);
        let lens = lengths.generate(d, rng);
        Self::from_parts(probs, lens)
    }

    /// Builds directly from per-item probabilities and lengths.
    ///
    /// # Panics
    /// Panics if the vectors disagree in length, are empty, if probabilities
    /// do not sum to ≈1 or are not sorted non-increasing, or if any length
    /// is zero.
    pub fn from_parts(probs: Vec<f64>, lengths: Vec<u32>) -> Self {
        assert!(!probs.is_empty(), "catalog must contain at least one item");
        assert_eq!(
            probs.len(),
            lengths.len(),
            "probability and length vectors must agree"
        );
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "probabilities must sum to 1 (got {total})"
        );
        for w in probs.windows(2) {
            assert!(
                w[0] >= w[1],
                "probabilities must be sorted non-increasing (popularity rank order)"
            );
        }
        assert!(lengths.iter().all(|&l| l >= 1), "lengths must be ≥ 1");

        let items: Vec<Item> = probs
            .iter()
            .zip(&lengths)
            .enumerate()
            .map(|(i, (&p, &l))| Item {
                id: ItemId(i as u32),
                length: l,
                prob: p,
            })
            .collect();
        let mut cum_prob = Vec::with_capacity(items.len() + 1);
        let mut cum_weighted_len = Vec::with_capacity(items.len() + 1);
        cum_prob.push(0.0);
        cum_weighted_len.push(0.0);
        for it in &items {
            cum_prob.push(cum_prob.last().expect("non-empty") + it.prob);
            cum_weighted_len
                .push(cum_weighted_len.last().expect("non-empty") + it.prob * it.length as f64);
        }
        Catalog {
            items,
            cum_prob,
            cum_weighted_len,
        }
    }

    /// Number of items `D`.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the catalog is empty (unreachable by construction).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The item at rank `id`.
    #[inline]
    pub fn item(&self, id: ItemId) -> &Item {
        &self.items[id.index()]
    }

    /// Transmission length of item `id`, in broadcast units.
    #[inline]
    pub fn length(&self, id: ItemId) -> u32 {
        self.items[id.index()].length
    }

    /// Access probability `P_i` of item `id`.
    #[inline]
    pub fn prob(&self, id: ItemId) -> f64 {
        self.items[id.index()].prob
    }

    /// All items in rank order.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Total access probability of ranks `range` —
    /// e.g. `mass(k..d)` is the pull-set request share `Σ_{i>K} P_i`.
    pub fn mass(&self, range: std::ops::Range<usize>) -> f64 {
        assert!(range.end <= self.items.len());
        self.cum_prob[range.end] - self.cum_prob[range.start]
    }

    /// Popularity-weighted total length `Σ_{i∈range} P_i · L_i` — the
    /// paper's `μ₁` (over `0..K`) and `μ₂` (over `K..D`) quantities (§5.1).
    pub(crate) fn weighted_length(&self, range: std::ops::Range<usize>) -> f64 {
        assert!(range.end <= self.items.len());
        self.cum_weighted_len[range.end] - self.cum_weighted_len[range.start]
    }

    /// Mean length of the items in `range`, *conditioned on a request
    /// falling in that range* (popularity-weighted).
    pub fn conditional_mean_length(&self, range: std::ops::Range<usize>) -> Option<f64> {
        let mass = self.mass(range.clone());
        if mass <= 0.0 {
            return None;
        }
        Some(self.weighted_length(range) / mass)
    }

    /// An O(1) sampler over items by access probability.
    pub fn sampler(&self) -> Discrete {
        let probs: Vec<f64> = self.items.iter().map(|it| it.prob).collect();
        Discrete::new(&probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_sim::rng::Xoshiro256;

    fn small_catalog() -> Catalog {
        // probs sorted desc summing to 1, lengths arbitrary
        Catalog::from_parts(vec![0.5, 0.3, 0.2], vec![2, 1, 4])
    }

    #[test]
    fn ranks_and_lookup() {
        let c = small_catalog();
        assert_eq!(c.len(), 3);
        assert_eq!(c.length(ItemId(0)), 2);
        assert_eq!(c.prob(ItemId(2)), 0.2);
        assert_eq!(ItemId(0).rank(), 1);
        assert_eq!(format!("{}", ItemId(2)), "item#3");
    }

    #[test]
    fn mass_prefix_suffix_partition() {
        let c = small_catalog();
        let k = 1;
        let push = c.mass(0..k);
        let pull = c.mass(k..3);
        assert!((push + pull - 1.0).abs() < 1e-12);
        assert!((push - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_length_matches_hand_calc() {
        let c = small_catalog();
        // μ over all: 0.5*2 + 0.3*1 + 0.2*4 = 2.1
        assert!((c.weighted_length(0..3) - 2.1).abs() < 1e-12);
        // push prefix K=2: 0.5*2 + 0.3*1 = 1.3
        assert!((c.weighted_length(0..2) - 1.3).abs() < 1e-12);
    }

    #[test]
    fn conditional_mean_length() {
        let c = small_catalog();
        // over pull set {item2,item3} with probs .3/.2: (0.3*1+0.2*4)/0.5 = 2.2
        let m = c.conditional_mean_length(1..3).unwrap();
        assert!((m - 2.2).abs() < 1e-12);
        assert_eq!(c.conditional_mean_length(1..1), None);
    }

    #[test]
    fn build_from_models_is_deterministic_per_seed() {
        let mut r1 = Xoshiro256::new(5);
        let mut r2 = Xoshiro256::new(5);
        let pop = PopularityModel::zipf(0.6);
        let len = LengthModel::paper_default();
        let c1 = Catalog::build(100, &pop, &len, &mut r1);
        let c2 = Catalog::build(100, &pop, &len, &mut r2);
        assert_eq!(c1, c2);
        assert_eq!(c1.len(), 100);
        assert!((c1.mass(0..100) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampler_respects_popularity() {
        let c = small_catalog();
        let s = c.sampler();
        let mut rng = Xoshiro256::new(9);
        let mut counts = [0u64; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[s.sample(&mut rng)] += 1;
        }
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - 0.5).abs() < 0.01, "item0 freq {f0}");
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_probs_rejected() {
        let _ = Catalog::from_parts(vec![0.2, 0.5, 0.3], vec![1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn unnormalized_probs_rejected() {
        let _ = Catalog::from_parts(vec![0.5, 0.3], vec![1, 1]);
    }

    #[test]
    fn serde_round_trip() {
        let c = small_catalog();
        let js = serde_json::to_string(&c).unwrap();
        let back: Catalog = serde_json::from_str(&js).unwrap();
        assert_eq!(back, c);
    }
}
