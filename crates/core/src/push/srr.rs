//! Online square-root rule (Hameed & Vaidya, WINET '99).
//!
//! The optimal cyclic schedule for minimizing mean access time spaces item
//! `i`'s replicas `s_i ∝ √(l_i / p_i)` apart — equivalently broadcasts it
//! with frequency `∝ √(p_i / l_i)`. The standard online realization picks,
//! at each slot starting at time `t`, the item maximizing
//!
//! ```text
//! G_i = (t − last_i)² · p_i / l_i
//! ```
//!
//! where `last_i` is the item's previous broadcast instant. Items the rule
//! has neglected grow quadratically in urgency, which reproduces the
//! square-root spacing in steady state.

use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::{Catalog, ItemId};

use crate::push::PushScheduler;

/// Online square-root-rule scheduler.
#[derive(Debug, Clone)]
pub(crate) struct SquareRootRule {
    /// The scheduled items, in priority order.
    items: Vec<ItemId>,
    /// `p_i / l_i` per push item.
    urgency_weight: Vec<f64>,
    /// Last broadcast instant per push item.
    last: Vec<f64>,
    /// Initial `last` values (staggered so the first cycle is a clean
    /// rank-order sweep rather than a pile of exact ties).
    initial_last: Vec<f64>,
}

impl SquareRootRule {
    /// Builds the rule over the push prefix `0..k` of `catalog`.
    pub fn new(catalog: &Catalog, k: usize) -> Self {
        Self::over_items(catalog, (0..k as u32).map(ItemId).collect())
    }

    /// Builds the rule over an arbitrary item list (hottest first).
    pub(crate) fn over_items(catalog: &Catalog, items: Vec<ItemId>) -> Self {
        let k = items.len();
        let urgency_weight: Vec<f64> = items
            .iter()
            .map(|&id| catalog.prob(id) / catalog.length(id) as f64)
            .collect();
        // Stagger initial history: slot i "was last broadcast" at −(k−i)·ε,
        // so at t = 0 the hottest item has the oldest history and wins
        // first, then the next, ...
        let initial_last: Vec<f64> = (0..k).map(|i| -((k - i) as f64) * 1e-6).collect();
        SquareRootRule {
            items,
            urgency_weight,
            last: initial_last.clone(),
            initial_last,
        }
    }
}

impl PushScheduler for SquareRootRule {
    fn name(&self) -> &'static str {
        "square-root"
    }

    fn push_set_size(&self) -> usize {
        self.urgency_weight.len()
    }

    fn next(&mut self, now: SimTime) -> Option<ItemId> {
        if self.urgency_weight.is_empty() {
            return None;
        }
        let t = now.as_f64();
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, (&w, &l)) in self.urgency_weight.iter().zip(&self.last).enumerate() {
            let gap = t - l;
            let score = gap * gap * w;
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        self.last[best] = t;
        Some(self.items[best])
    }

    fn reset(&mut self) {
        self.last.clone_from(&self.initial_last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push::empirical_frequencies;
    use hybridcast_sim::rng::{streams, RngFactory};
    use hybridcast_workload::lengths::LengthModel;
    use hybridcast_workload::popularity::PopularityModel;

    fn catalog(theta: f64) -> Catalog {
        let f = RngFactory::new(23);
        let mut rng = f.stream(streams::LENGTHS);
        Catalog::build(
            16,
            &PopularityModel::zipf(theta),
            &LengthModel::Fixed { length: 1 },
            &mut rng,
        )
    }

    #[test]
    fn covers_all_items_eventually() {
        let cat = catalog(1.0);
        let mut s = SquareRootRule::new(&cat, 10);
        let freqs = empirical_frequencies(&mut s, 10, 5000);
        assert!(freqs.iter().all(|&f| f > 0.0), "starved item: {freqs:?}");
    }

    #[test]
    fn frequencies_track_sqrt_of_popularity() {
        let cat = catalog(1.4);
        let k = 10;
        let mut s = SquareRootRule::new(&cat, k);
        let freqs = empirical_frequencies(&mut s, k, 50_000);
        // expected frequency ∝ √(p_i / l_i); lengths are 1 here
        let targets: Vec<f64> = (0..k).map(|i| cat.prob(ItemId(i as u32)).sqrt()).collect();
        let norm: f64 = targets.iter().sum();
        for i in 0..k {
            let want = targets[i] / norm;
            let got = freqs[i];
            assert!(
                (got - want).abs() < 0.25 * want + 0.01,
                "item {i}: got {got:.4}, sqrt-rule predicts {want:.4}"
            );
        }
    }

    #[test]
    fn uniform_popularity_degenerates_to_even_rotation() {
        let cat = catalog(0.0);
        let k = 8;
        let mut s = SquareRootRule::new(&cat, k);
        let freqs = empirical_frequencies(&mut s, k, 8000);
        for &f in &freqs {
            assert!((f - 1.0 / k as f64).abs() < 0.01, "{freqs:?}");
        }
    }

    #[test]
    fn reset_restores_initial_order() {
        let cat = catalog(1.0);
        let mut s = SquareRootRule::new(&cat, 5);
        let first = s.next(SimTime::ZERO);
        for t in 1..10 {
            s.next(SimTime::new(t as f64));
        }
        s.reset();
        assert_eq!(s.next(SimTime::ZERO), first);
    }

    #[test]
    fn first_pick_is_most_popular() {
        let cat = catalog(1.0);
        let mut s = SquareRootRule::new(&cat, 5);
        assert_eq!(s.next(SimTime::ZERO), Some(ItemId(0)));
    }
}
