//! Eq. 19 — the expected access time of the hybrid system, and the
//! per-class delay model behind the paper's Figure 7.
//!
//! The paper combines a push term and a pull term:
//!
//! ```text
//! E[T] = (1/2μ₁)·Σ_{i≤K} L_i·P_i  +  E[W_pull]·Σ_{i>K} P_i      (Eq. 19)
//! ```
//!
//! Two caveats force interpretation choices (both documented in DESIGN.md):
//!
//! 1. §5.1 *defines* `μ₁ = Σ_{i≤K} P_i·L_i`, which makes the first term
//!    identically `½`. The model uses a *physical* form instead — the
//!    flat-cycle expected completion wait `½·Σ_{j<K} L_j + E[L | push]`.
//! 2. The pull term's `E[W_pull]` comes from Cobham's request-level queue
//!    (§4.2.2). At the paper's own parameters (λ′ = 5 requests per
//!    broadcast unit) that queue is deeply saturated — yet the real system
//!    stays bounded, because a pull transmission serves *all* pending
//!    requests for an item at once. We therefore provide:
//!    * the literal request-level Cobham model
//!      ([`HybridDelayModel::request_level_waits`], `None` when saturated),
//!      valid at light load, and
//!    * an **item-rotation fixed point** for the batch-service regime
//!      ([`HybridDelayModel::rotation_wait`]): with `W` the time an item
//!      stays queued, item `i` completes one queue cycle every
//!      `1/λ_i + W` time units, and the server retires one item per
//!      `T_slot = E[push slot] + E[pull item]` — so `W` solves
//!      `Σ_{i>K} 1/(1/λ_i + W) = 1/T_slot`. Requests arriving while the
//!      item is queued wait `W/2` on average, giving the per-request wait
//!      in closed form. Per-class differentiation reuses Cobham's *ratios*
//!      on top of the rotation aggregate.

use serde::{Deserialize, Serialize};

use hybridcast_workload::catalog::Catalog;
use hybridcast_workload::classes::ClassSet;

use crate::cobham::CobhamQueue;

/// Analytic model of the hybrid scheduler at one cutoff `K`.
#[derive(Debug, Clone)]
pub struct HybridDelayModel {
    /// Per-item access probabilities (rank order).
    probs: Vec<f64>,
    /// Per-item lengths.
    lengths: Vec<u32>,
    /// Class priority weights, highest first.
    class_priorities: Vec<f64>,
    /// Class population shares.
    class_shares: Vec<f64>,
    /// Aggregate request rate λ′.
    lambda: f64,
    /// The cutoff `K`.
    k: usize,
    /// Importance blend α of the scheduler being modeled (0 = pure
    /// priority, 1 = priority-blind stretch). Controls how strongly the
    /// Cobham class ratios differentiate the per-class pull waits.
    alpha: f64,
    /// `None` models the paper's interleaved single channel; `Some(n)`
    /// models a split layout: a dedicated broadcast channel plus `n`
    /// parallel pull channels.
    pull_channels: Option<u32>,
}

/// Per-class analytic delays at one cutoff.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelDelays {
    /// The cutoff these delays are for.
    pub k: usize,
    /// Expected access time per class (broadcast units), highest-priority
    /// class first.
    pub per_class: Vec<f64>,
    /// Aggregate expected access time (request-share weighted).
    pub overall: f64,
    /// `Σ_c q_c · E[T_c]`.
    pub total_prioritized_cost: f64,
    /// The push-side component common to all classes.
    pub push_wait: f64,
    /// Per-class pull wait (before mass weighting).
    pub pull_wait_per_class: Vec<f64>,
}

impl HybridDelayModel {
    /// Builds the model from a catalog snapshot.
    ///
    /// # Panics
    /// Panics if `k > catalog.len()` or `lambda` is not positive.
    pub fn new(catalog: &Catalog, classes: &ClassSet, lambda: f64, k: usize) -> Self {
        assert!(k <= catalog.len(), "cutoff {k} exceeds catalog");
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "lambda must be positive"
        );
        HybridDelayModel {
            probs: catalog.items().iter().map(|it| it.prob).collect(),
            lengths: catalog.items().iter().map(|it| it.length).collect(),
            class_priorities: classes.iter().map(|(_, c)| c.priority).collect(),
            class_shares: classes.iter().map(|(_, c)| c.population_share).collect(),
            lambda,
            k,
            alpha: 0.0,
            pull_channels: None,
        }
    }

    /// Builds the model directly from per-item request probabilities and
    /// lengths, indexed in catalog rank order. Unlike [`Catalog`], the
    /// probabilities need not be sorted — this is the entry point for the
    /// adaptive cutoff controller, which feeds *measured* (noisy) item
    /// popularity estimates.
    ///
    /// # Panics
    /// Panics on length mismatch, invalid probabilities, or `k` out of
    /// range.
    pub fn from_parts(
        probs: Vec<f64>,
        lengths: Vec<u32>,
        classes: &ClassSet,
        lambda: f64,
        k: usize,
    ) -> Self {
        assert_eq!(probs.len(), lengths.len(), "probs/lengths must align");
        assert!(k <= probs.len(), "cutoff {k} exceeds item count");
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "lambda must be positive"
        );
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "probabilities must sum to 1 (got {total})"
        );
        HybridDelayModel {
            probs,
            lengths,
            class_priorities: classes.iter().map(|(_, c)| c.priority).collect(),
            class_shares: classes.iter().map(|(_, c)| c.population_share).collect(),
            lambda,
            k,
            alpha: 0.0,
            pull_channels: None,
        }
    }

    /// Models a split downlink (dedicated broadcast channel + `n` parallel
    /// pull channels) instead of the paper's interleaved single channel.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn with_split_channels(mut self, n: u32) -> Self {
        assert!(n >= 1, "split layout needs at least one pull channel");
        self.pull_channels = Some(n);
        self
    }

    /// Sets the importance blend α of the modeled scheduler (default 0,
    /// i.e. full priority differentiation). At α = 1 the per-class pull
    /// waits collapse onto the aggregate, matching a priority-blind
    /// stretch scheduler.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must lie in [0, 1]");
        self.alpha = alpha;
        self
    }

    /// The cutoff `K`.
    pub fn cutoff(&self) -> usize {
        self.k
    }

    /// `Σ_{i≤K} P_i` — probability a request hits the push set.
    pub(crate) fn push_mass(&self) -> f64 {
        self.probs[..self.k].iter().sum()
    }

    /// `Σ_{i>K} P_i` — probability a request hits the pull set.
    pub fn pull_mass(&self) -> f64 {
        self.probs[self.k..].iter().sum()
    }

    /// The paper's `μ₁ = Σ_{i≤K} P_i·L_i` (a popularity-weighted length).
    pub(crate) fn mu1_paper(&self) -> f64 {
        self.probs[..self.k]
            .iter()
            .zip(&self.lengths[..self.k])
            .map(|(&p, &l)| p * l as f64)
            .sum()
    }

    /// The paper's `μ₂ = Σ_{i>K} P_i·L_i`.
    pub(crate) fn mu2_paper(&self) -> f64 {
        self.probs[self.k..]
            .iter()
            .zip(&self.lengths[self.k..])
            .map(|(&p, &l)| p * l as f64)
            .sum()
    }

    /// Flat broadcast cycle length `Σ_{j<K} L_j`.
    pub(crate) fn cycle_length(&self) -> f64 {
        self.lengths[..self.k].iter().map(|&l| l as f64).sum()
    }

    /// Mean push slot length (unweighted — every item appears once per
    /// cycle under flat scheduling).
    pub(crate) fn mean_push_slot(&self) -> f64 {
        if self.k == 0 {
            0.0
        } else {
            self.cycle_length() / self.k as f64
        }
    }

    /// Mean pull item length conditioned on a request falling in the pull
    /// set.
    pub fn mean_pull_length(&self) -> f64 {
        let mass = self.pull_mass();
        if mass <= 0.0 {
            0.0
        } else {
            self.mu2_paper() / mass
        }
    }

    /// Rate (items per broadcast unit) at which the server performs pull
    /// transmissions: capped by the one-pull-per-push alternation when the
    /// rotation is saturated, by the queue-entry formation rate otherwise.
    pub fn pull_service_rate(&self) -> f64 {
        let slot = self.slot_time();
        if slot == 0.0 {
            return 0.0;
        }
        let cap = self.pull_capacity();
        if self.rotation_wait() > 0.0 {
            cap
        } else {
            // light load: each queue entry is roughly one request
            (self.lambda * self.pull_mass()).min(cap)
        }
    }

    /// Wall-clock duration of one full broadcast cycle, accounting for the
    /// pull transmissions interleaved into it: while the `K` push items
    /// take `Σ L_j` of air time, the server also serves `ν·T_c` pull items,
    /// so `T_c = cycle / (1 − ν·E[L_pull item])`.
    pub(crate) fn effective_cycle_time(&self) -> f64 {
        let cycle = self.cycle_length();
        if self.k == 0 {
            return 0.0;
        }
        if self.pull_channels.is_some() {
            // dedicated broadcast channel: nothing stretches the cycle
            return cycle;
        }
        let pull_air = self.pull_service_rate() * self.mean_pull_length();
        if pull_air >= 1.0 {
            // degenerate: should not happen (ν is capped), but stay finite
            return cycle * 2.0;
        }
        cycle / (1.0 - pull_air)
    }

    /// The physical flat-schedule wait: a uniformly-phased client waits
    /// half the (pull-stretched) cycle, then receives its item:
    /// `½·T_c + E[L_i | i ≤ K]` (probability-weighted item length).
    pub(crate) fn push_wait_physical(&self) -> f64 {
        if self.k == 0 {
            return 0.0;
        }
        let mass = self.push_mass();
        let cond_len = if mass > 0.0 {
            self.mu1_paper() / mass
        } else {
            0.0
        };
        0.5 * self.effective_cycle_time() + cond_len
    }

    /// Per-item request rates of the pull set: `λ_i = λ′·P_i`, `i > K`.
    fn pull_item_rates(&self) -> impl Iterator<Item = f64> + '_ {
        self.probs[self.k..].iter().map(move |&p| self.lambda * p)
    }

    /// Time the downlink spends per pull service: one pull item plus (when
    /// the push set is non-empty and the layout is interleaved) the
    /// interleaved push slot.
    pub fn slot_time(&self) -> f64 {
        let pull_len = self.mean_pull_length();
        if pull_len == 0.0 {
            return 0.0;
        }
        match self.pull_channels {
            None => pull_len + self.mean_push_slot(),
            Some(_) => pull_len,
        }
    }

    /// Pull service capacity in items per broadcast unit across all pull
    /// channels.
    pub(crate) fn pull_capacity(&self) -> f64 {
        let slot = self.slot_time();
        if slot == 0.0 {
            return 0.0;
        }
        match self.pull_channels {
            None => 1.0 / slot,
            Some(n) => n as f64 / slot,
        }
    }

    /// The literal §4.2.2 request-level Cobham waits per class, or `None`
    /// when that queue is saturated (which it is at the paper's default
    /// load — see the module docs).
    pub fn request_level_waits(&self) -> Option<Vec<f64>> {
        let slot = self.slot_time();
        if slot == 0.0 {
            return Some(vec![0.0; self.class_shares.len()]);
        }
        // Split layouts are approximated as one fast server (an M/M/c
        // queue bounded below by its M/M/1 speed-up equivalent).
        let mu = self.pull_capacity();
        let lam_pull = self.lambda * self.pull_mass();
        let lambdas: Vec<f64> = self
            .class_shares
            .iter()
            .map(|&s| (lam_pull * s).max(1e-12))
            .collect();
        let q = CobhamQueue::with_common_service(&lambdas, mu);
        let mut out = Vec::with_capacity(lambdas.len());
        for i in 0..lambdas.len() {
            out.push(q.class_sojourn(i)?);
        }
        Some(out)
    }

    /// Solves the item-rotation fixed point for `W`, the mean time a pull
    /// item stays queued before being transmitted. Returns 0 when the pull
    /// set is empty or the load is light enough that the queue drains.
    pub fn rotation_wait(&self) -> f64 {
        let slot = self.slot_time();
        if slot == 0.0 || self.k == self.probs.len() {
            return 0.0;
        }
        let capacity = self.pull_capacity(); // item services per broadcast unit
        let demand_at = |w: f64| -> f64 {
            self.pull_item_rates()
                .map(|li| 1.0 / (1.0 / li + w))
                .sum::<f64>()
        };
        if demand_at(0.0) <= capacity {
            // Even with instant service the item-formation rate fits: the
            // rotation backlog is zero (the residual wait is the in-service
            // slot, added by the caller).
            return 0.0;
        }
        // demand(w) is decreasing in w; bisect for demand(w) = capacity.
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        while demand_at(hi) > capacity {
            hi *= 2.0;
            if hi > 1e9 {
                break;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if demand_at(mid) > capacity {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Mean *per-request* pull wait implied by the rotation fixed point:
    /// an item stays queued `W`; its first request waits `W`, later
    /// requests (arriving Poisson during the window) wait `W/2` on average,
    /// and every request then rides the item's own transmission.
    pub(crate) fn rotation_request_wait(&self) -> f64 {
        let w = self.rotation_wait();
        let lam_pull = self.lambda * self.pull_mass();
        if lam_pull <= 0.0 {
            return 0.0;
        }
        let mut weighted = 0.0;
        for li in self.pull_item_rates() {
            let batch = 1.0 + li * w;
            let wait_sum = w + li * w * w / 2.0;
            weighted += li * (wait_sum / batch);
        }
        let mean_wait = weighted / lam_pull;
        // half a slot of residual service plus the item's transmission
        mean_wait + 0.5 * self.slot_time() + self.mean_pull_length()
    }

    /// Per-class pull waits: the rotation aggregate redistributed by
    /// Cobham's priority ratios (premium items are extracted from the
    /// rotation first under low α).
    pub(crate) fn per_class_pull_wait(&self) -> Vec<f64> {
        let n = self.class_shares.len();
        if self.pull_mass() <= 0.0 {
            return vec![0.0; n];
        }
        // Light load: the request-level model is valid — use it directly.
        if let Some(waits) = self.request_level_waits() {
            if self.rotation_wait() == 0.0 {
                return waits;
            }
        }
        let aggregate = self.rotation_request_wait();
        // Shape factors from Cobham at a capped utilization.
        let u = 0.9;
        let lambdas: Vec<f64> = self
            .class_shares
            .iter()
            .map(|&s| (u * s).max(1e-12))
            .collect();
        let q = CobhamQueue::with_common_service(&lambdas, 1.0);
        let waits: Vec<f64> = (0..n)
            .map(|i| q.class_wait(i).expect("u < 1 keeps every class stable"))
            .collect();
        let mean: f64 = self
            .class_shares
            .iter()
            .zip(&waits)
            .map(|(&s, &w)| s * w)
            .sum();
        // Blend the full-priority Cobham ratio toward 1 as α grows: at
        // α = 1 the scheduler ignores priority and every class sees the
        // aggregate wait. The share-weighted mean of the blended factors
        // stays 1, so the aggregate is preserved for every α.
        waits
            .iter()
            .map(|&w| aggregate * (self.alpha + (1.0 - self.alpha) * w / mean))
            .collect()
    }

    /// Full per-class access-time model (physical push term + per-class
    /// pull term, each weighted by its request mass).
    pub fn delays(&self) -> ModelDelays {
        let push_wait = self.push_wait_physical();
        let pmass = self.push_mass();
        let lmass = self.pull_mass();
        let pull = self.per_class_pull_wait();
        let per_class: Vec<f64> = pull
            .iter()
            .map(|&wc| pmass * push_wait + lmass * wc)
            .collect();
        let overall: f64 = self
            .class_shares
            .iter()
            .zip(&per_class)
            .map(|(&s, &d)| s * d)
            .sum();
        let total_prioritized_cost = self
            .class_priorities
            .iter()
            .zip(&per_class)
            .map(|(&q, &d)| q * d)
            .sum();
        ModelDelays {
            k: self.k,
            per_class,
            overall,
            total_prioritized_cost,
            push_wait,
            pull_wait_per_class: pull,
        }
    }

    /// Scans `ks` and returns `(K*, cost at K*)` minimizing the total
    /// prioritized cost.
    pub fn optimal_cutoff(
        catalog: &Catalog,
        classes: &ClassSet,
        lambda: f64,
        ks: impl IntoIterator<Item = usize>,
    ) -> (usize, f64) {
        ks.into_iter()
            .map(|k| {
                let m = HybridDelayModel::new(catalog, classes, lambda, k);
                (k, m.delays().total_prioritized_cost)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are finite"))
            .expect("non-empty cutoff grid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_sim::rng::{streams, RngFactory};
    use hybridcast_workload::lengths::LengthModel;
    use hybridcast_workload::popularity::PopularityModel;

    fn catalog(theta: f64) -> Catalog {
        let f = RngFactory::new(55);
        let mut rng = f.stream(streams::LENGTHS);
        Catalog::build(
            100,
            &PopularityModel::zipf(theta),
            &LengthModel::paper_default(),
            &mut rng,
        )
    }

    fn model(theta: f64, lambda: f64, k: usize) -> HybridDelayModel {
        HybridDelayModel::new(&catalog(theta), &ClassSet::paper_default(), lambda, k)
    }

    #[test]
    fn masses_partition() {
        let m = model(0.6, 5.0, 40);
        assert!((m.push_mass() + m.pull_mass() - 1.0).abs() < 1e-9);
        assert_eq!(model(0.6, 5.0, 0).push_mass(), 0.0);
        assert!((model(0.6, 5.0, 100).push_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn physical_push_wait_grows_with_k() {
        let w20 = model(0.6, 5.0, 20).push_wait_physical();
        let w80 = model(0.6, 5.0, 80).push_wait_physical();
        assert!(w80 > w20 * 2.0, "w20={w20}, w80={w80}");
        // at least half the raw cycle (pull interleaving only stretches
        // it), and at most half the fully-alternating cycle plus an item
        let m = model(0.6, 5.0, 40);
        let lo = 0.5 * m.cycle_length();
        let hi = 0.5 * m.cycle_length() * (1.0 + m.mean_pull_length() / m.mean_push_slot()) + 6.0;
        let w = m.push_wait_physical();
        assert!(w >= lo && w <= hi, "w={w}, expected in [{lo}, {hi}]");
    }

    #[test]
    fn rotation_wait_zero_at_light_load() {
        // λ′ = 0.01: item-formation demand ≪ capacity.
        let m = model(0.6, 0.01, 40);
        assert_eq!(m.rotation_wait(), 0.0);
    }

    #[test]
    fn rotation_wait_positive_and_increasing_with_pull_set() {
        let w_small_pull = model(0.6, 5.0, 80).rotation_wait();
        let w_large_pull = model(0.6, 5.0, 20).rotation_wait();
        assert!(w_small_pull > 0.0);
        assert!(
            w_large_pull > w_small_pull,
            "more pull items should rotate slower: K=20 → {w_large_pull}, K=80 → {w_small_pull}"
        );
    }

    #[test]
    fn rotation_fixed_point_satisfies_capacity() {
        let m = model(0.6, 5.0, 40);
        let w = m.rotation_wait();
        assert!(w > 0.0);
        let demand: f64 = m.probs[40..]
            .iter()
            .map(|&p| {
                let li = 5.0 * p;
                1.0 / (1.0 / li + w)
            })
            .sum();
        let capacity = 1.0 / m.slot_time();
        assert!(
            (demand - capacity).abs() / capacity < 1e-6,
            "demand {demand} vs capacity {capacity}"
        );
    }

    #[test]
    fn per_class_waits_are_ordered() {
        let m = model(0.6, 5.0, 40);
        let w = m.per_class_pull_wait();
        assert_eq!(w.len(), 3);
        assert!(w[0] < w[1] && w[1] < w[2], "waits {w:?}");
    }

    #[test]
    fn delays_combine_masses() {
        let m = model(0.6, 5.0, 40);
        let d = m.delays();
        assert_eq!(d.per_class.len(), 3);
        assert!(d.per_class[0] < d.per_class[2]);
        // overall lies inside the class range
        assert!(d.overall >= d.per_class[0] && d.overall <= d.per_class[2]);
        // cost uses the 3::2::1 weights
        let manual: f64 = [3.0, 2.0, 1.0]
            .iter()
            .zip(&d.per_class)
            .map(|(&q, &t)| q * t)
            .sum();
        assert!((d.total_prioritized_cost - manual).abs() < 1e-9);
    }

    #[test]
    fn request_level_model_saturates_at_paper_load() {
        let m = model(0.6, 5.0, 40);
        assert_eq!(m.request_level_waits(), None);
        // ... but works at light load
        let light = model(0.6, 0.05, 40);
        let w = light.request_level_waits().unwrap();
        assert!(w[0] < w[2]);
    }

    #[test]
    fn optimal_cutoff_is_interior_under_paper_defaults() {
        let cat = catalog(0.6);
        let classes = ClassSet::paper_default();
        let (k_star, cost) =
            HybridDelayModel::optimal_cutoff(&cat, &classes, 5.0, (10..=90).step_by(10));
        assert!(cost > 0.0);
        assert!(
            (10..=90).contains(&k_star),
            "optimal K {k_star} out of range"
        );
        // cost at the optimum beats the extremes of the grid
        let at = |k: usize| {
            HybridDelayModel::new(&cat, &classes, 5.0, k)
                .delays()
                .total_prioritized_cost
        };
        assert!(at(k_star) <= at(10) && at(k_star) <= at(90));
    }

    #[test]
    fn higher_skew_reduces_pull_pressure_at_fixed_k() {
        // More skew concentrates mass in the push prefix, so the pull
        // rotation relaxes.
        let mild = model(0.2, 5.0, 50).rotation_wait();
        let steep = model(1.4, 5.0, 50).rotation_wait();
        assert!(steep < mild, "θ=1.4 {steep} vs θ=0.2 {mild}");
    }

    #[test]
    fn split_layout_relaxes_the_rotation() {
        let inter = model(0.6, 5.0, 40);
        let split2 = model(0.6, 5.0, 40).with_split_channels(2);
        assert!(split2.pull_capacity() > 2.0 * inter.pull_capacity());
        assert!(split2.rotation_wait() < inter.rotation_wait());
        // dedicated broadcast channel: push wait is the bare half-cycle
        let split_push = split2.push_wait_physical();
        let inter_push = inter.push_wait_physical();
        assert!(split_push < inter_push);
        assert!(
            (split_push - (0.5 * split2.cycle_length() + split2.mu1_paper() / split2.push_mass()))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn split_model_tracks_split_simulation_shape() {
        // more pull channels → strictly lower modeled delay at fixed K
        let d1 = model(0.6, 5.0, 40).with_split_channels(1).delays().overall;
        let d2 = model(0.6, 5.0, 40).with_split_channels(2).delays().overall;
        let d4 = model(0.6, 5.0, 40).with_split_channels(4).delays().overall;
        assert!(d1 > d2 && d2 > d4, "{d1} {d2} {d4}");
        // and below the interleaved model
        let di = model(0.6, 5.0, 40).delays().overall;
        assert!(d1 < di);
    }

    #[test]
    fn pure_pull_has_no_push_component() {
        let m = model(0.6, 5.0, 0);
        let d = m.delays();
        assert_eq!(d.push_wait, 0.0);
        assert!(d.per_class.iter().all(|&x| x > 0.0));
    }
}
