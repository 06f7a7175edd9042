//! Per-class bandwidth partitioning and request blocking.
//!
//! Section 3 of the paper: "The bandwidth required by the data item is
//! assumed to follow Poisson's distribution. If the required bandwidth of
//! the data item is \[more\] than the bandwidth available for the
//! corresponding service class, then the data item and the corresponding
//! requests are lost."
//!
//! [`BandwidthManager`] implements that admission test. Capacity is carved
//! into per-class partitions by the [`ClassSet`]'s bandwidth shares; a pull
//! transmission draws a Poisson bandwidth demand, charges it to the
//! *dominant* (highest-priority) class among the item's requesters, holds it
//! for the transmission's duration, and releases it on completion. A demand
//! that exceeds the class's remaining capacity blocks — the item and all its
//! pending requests are dropped.
//!
//! Three policies:
//! * [`BandwidthPolicy::Unlimited`] — no admission test (the delay-only
//!   experiments, Figures 3–7);
//! * [`BandwidthPolicy::PerClass`] — the paper's per-class partitions
//!   (the blocking experiment);
//! * [`BandwidthPolicy::Shared`] — one pool, no differentiation (ablation
//!   baseline).

use serde::{Deserialize, Serialize};

use hybridcast_sim::dist::PoissonCount;
use hybridcast_sim::ensure;
use hybridcast_sim::rng::Xoshiro256;
use hybridcast_workload::classes::{ClassId, ClassSet};

/// How downlink bandwidth is shared among service classes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum BandwidthPolicy {
    /// No admission control: every transmission is admitted.
    Unlimited,
    /// Capacity split into per-class partitions by bandwidth share.
    PerClass,
    /// One shared pool of the total capacity.
    Shared,
}

/// Serializable bandwidth model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthConfig {
    /// The sharing policy.
    pub policy: BandwidthPolicy,
    /// Total downlink capacity in bandwidth units.
    pub total_capacity: f64,
    /// Mean of the per-transmission Poisson demand (≥ 1; a demand of at
    /// least 1 unit is always drawn).
    pub mean_demand: f64,
}

impl Default for BandwidthConfig {
    /// Delay experiments run without admission control.
    fn default() -> Self {
        BandwidthConfig {
            policy: BandwidthPolicy::Unlimited,
            total_capacity: 20.0,
            mean_demand: 2.0,
        }
    }
}

impl BandwidthConfig {
    /// What [`BandwidthManager::new`] requires, as a typed error.
    pub fn validate(&self) -> Result<(), String> {
        ensure(
            self.total_capacity > 0.0 && self.total_capacity.is_finite(),
            format_args!(
                "total capacity must be positive (got {})",
                self.total_capacity
            ),
        )?;
        ensure(
            self.mean_demand >= 1.0 && self.mean_demand.is_finite(),
            format_args!("mean demand must be at least 1 (got {})", self.mean_demand),
        )
    }

    /// The paper's blocking setup: per-class partitions.
    pub fn per_class(total_capacity: f64, mean_demand: f64) -> Self {
        BandwidthConfig {
            policy: BandwidthPolicy::PerClass,
            total_capacity,
            mean_demand,
        }
    }
}

/// A granted bandwidth reservation; return it via
/// [`BandwidthManager::release`] when the transmission completes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "grants hold capacity until released"]
pub struct Grant {
    class: ClassId,
    amount: f64,
}

impl Grant {
    /// The class whose partition this grant draws from.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// Reserved bandwidth units.
    pub fn amount(&self) -> f64 {
        self.amount
    }
}

/// Admission controller for pull transmissions.
#[derive(Debug, Clone)]
pub struct BandwidthManager {
    policy: BandwidthPolicy,
    /// Capacity per class (PerClass) or a single pool replicated (Shared).
    capacity: Vec<f64>,
    in_use: Vec<f64>,
    demand: Option<PoissonCount>,
    fixed_demand: f64,
    rng: Xoshiro256,
    attempts: Vec<u64>,
    blocked: Vec<u64>,
}

impl BandwidthManager {
    /// Builds the manager for `classes` under `config`, drawing demands
    /// from `rng`.
    ///
    /// # Panics
    /// Panics if `total_capacity` is not positive or `mean_demand < 1`.
    pub fn new(config: &BandwidthConfig, classes: &ClassSet, rng: Xoshiro256) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let n = classes.len();
        let capacity = match config.policy {
            BandwidthPolicy::PerClass => classes
                .ids()
                .map(|id| classes.bandwidth_share(id) * config.total_capacity)
                .collect(),
            BandwidthPolicy::Shared | BandwidthPolicy::Unlimited => {
                vec![config.total_capacity; n]
            }
        };
        // Demand = 1 + Poisson(mean − 1), so every transmission needs at
        // least one unit and the mean is exactly `mean_demand`.
        let excess = config.mean_demand - 1.0;
        let demand = (excess > 1e-12).then(|| PoissonCount::new(excess));
        BandwidthManager {
            policy: config.policy,
            capacity,
            in_use: vec![0.0; n],
            demand,
            fixed_demand: 1.0,
            rng,
            attempts: vec![0; n],
            blocked: vec![0; n],
        }
    }

    fn draw_demand(&mut self) -> f64 {
        match &self.demand {
            Some(d) => self.fixed_demand + d.sample(&mut self.rng) as f64,
            None => self.fixed_demand,
        }
    }

    /// Attempts to admit a pull transmission charged to `class`.
    /// `Some(grant)` reserves the drawn demand; `None` means blocked.
    pub fn try_admit(&mut self, class: ClassId) -> Option<Grant> {
        let i = class.index();
        self.attempts[i] += 1;
        let amount = self.draw_demand();
        match self.policy {
            BandwidthPolicy::Unlimited => Some(Grant { class, amount: 0.0 }),
            BandwidthPolicy::PerClass => {
                if self.in_use[i] + amount <= self.capacity[i] + 1e-12 {
                    self.in_use[i] += amount;
                    Some(Grant { class, amount })
                } else {
                    self.blocked[i] += 1;
                    None
                }
            }
            BandwidthPolicy::Shared => {
                let total_used: f64 = self.in_use.iter().sum();
                if total_used + amount <= self.capacity[0] + 1e-12 {
                    self.in_use[i] += amount;
                    Some(Grant { class, amount })
                } else {
                    self.blocked[i] += 1;
                    None
                }
            }
        }
    }

    /// Returns a grant's capacity to its partition.
    pub fn release(&mut self, grant: Grant) {
        let i = grant.class.index();
        self.in_use[i] -= grant.amount;
        debug_assert!(
            self.in_use[i] > -1e-9,
            "released more bandwidth than was reserved for {}",
            grant.class
        );
        if self.in_use[i] < 0.0 {
            self.in_use[i] = 0.0;
        }
    }

    /// Admission attempts charged to `class` so far.
    pub fn attempts(&self, class: ClassId) -> u64 {
        self.attempts[class.index()]
    }

    /// Blocked attempts charged to `class` so far.
    pub fn blocked(&self, class: ClassId) -> u64 {
        self.blocked[class.index()]
    }

    /// Empirical blocking probability of `class` (`None` before any
    /// attempt).
    pub fn blocking_probability(&self, class: ClassId) -> Option<f64> {
        let a = self.attempts[class.index()];
        (a > 0).then(|| self.blocked[class.index()] as f64 / a as f64)
    }

    /// Bandwidth currently reserved by `class`.
    pub fn in_use(&self, class: ClassId) -> f64 {
        self.in_use[class.index()]
    }

    /// Partition capacity of `class`.
    pub fn capacity(&self, class: ClassId) -> f64 {
        self.capacity[class.index()]
    }

    /// Repartitions the per-class capacities to `shares` (normalized
    /// internally), keeping the total pool unchanged. Only meaningful
    /// under [`BandwidthPolicy::PerClass`]; a no-op otherwise.
    /// Outstanding grants keep their reservations — a shrunken partition
    /// may transiently sit above its new capacity until they drain.
    pub(crate) fn set_shares(&mut self, shares: &[f64]) {
        if !matches!(self.policy, BandwidthPolicy::PerClass) {
            return;
        }
        assert_eq!(shares.len(), self.capacity.len(), "one share per class");
        assert!(
            shares.iter().all(|s| s.is_finite() && *s >= 0.0),
            "shares must be finite and non-negative"
        );
        let norm: f64 = shares.iter().sum();
        assert!(norm > 0.0, "shares must not all be zero");
        let total: f64 = self.capacity.iter().sum();
        for (cap, &s) in self.capacity.iter_mut().zip(shares) {
            *cap = s / norm * total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(policy: BandwidthPolicy, total: f64, mean: f64) -> BandwidthManager {
        let classes = ClassSet::paper_default();
        let cfg = BandwidthConfig {
            policy,
            total_capacity: total,
            mean_demand: mean,
        };
        BandwidthManager::new(&cfg, &classes, Xoshiro256::new(9))
    }

    #[test]
    fn unlimited_never_blocks() {
        let mut m = manager(BandwidthPolicy::Unlimited, 1.0, 5.0);
        for _ in 0..1000 {
            let g = m.try_admit(ClassId(0)).expect("unlimited admits all");
            assert_eq!(g.amount(), 0.0);
        }
        assert_eq!(m.blocked(ClassId(0)), 0);
        assert_eq!(m.attempts(ClassId(0)), 1000);
    }

    #[test]
    fn per_class_partitions_follow_shares() {
        let m = manager(BandwidthPolicy::PerClass, 12.0, 1.0);
        // paper default bandwidth shares: 1/2, 1/3, 1/6
        assert!((m.capacity(ClassId(0)) - 6.0).abs() < 1e-9);
        assert!((m.capacity(ClassId(1)) - 4.0).abs() < 1e-9);
        assert!((m.capacity(ClassId(2)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_demand_fills_partition_then_blocks() {
        // mean_demand = 1 → deterministic unit demands
        let mut m = manager(BandwidthPolicy::PerClass, 12.0, 1.0);
        // class C partition = 2 units
        assert!(m.try_admit(ClassId(2)).is_some());
        assert!(m.try_admit(ClassId(2)).is_some());
        assert!(m.try_admit(ClassId(2)).is_none(), "partition exhausted");
        assert_eq!(m.blocked(ClassId(2)), 1);
        // class A partition unaffected
        assert!(m.try_admit(ClassId(0)).is_some());
    }

    #[test]
    fn release_restores_capacity() {
        let mut m = manager(BandwidthPolicy::PerClass, 12.0, 1.0);
        let g1 = m.try_admit(ClassId(2)).unwrap();
        let _g2 = m.try_admit(ClassId(2)).unwrap();
        assert!(m.try_admit(ClassId(2)).is_none());
        m.release(g1);
        assert!(m.try_admit(ClassId(2)).is_some());
    }

    #[test]
    fn shared_pool_ignores_class_shares() {
        let mut m = manager(BandwidthPolicy::Shared, 3.0, 1.0);
        assert!(m.try_admit(ClassId(2)).is_some());
        assert!(m.try_admit(ClassId(2)).is_some());
        assert!(m.try_admit(ClassId(2)).is_some());
        // pool of 3 exhausted — even class A is refused
        assert!(m.try_admit(ClassId(0)).is_none());
    }

    #[test]
    fn poisson_demand_has_requested_mean() {
        let mut m = manager(BandwidthPolicy::Unlimited, 1.0, 3.0);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += m.draw_demand();
        }
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean demand {mean}");
    }

    #[test]
    fn demand_is_at_least_one() {
        let mut m = manager(BandwidthPolicy::Unlimited, 1.0, 1.5);
        for _ in 0..10_000 {
            assert!(m.draw_demand() >= 1.0);
        }
    }

    #[test]
    fn blocking_probability_accounting() {
        let mut m = manager(BandwidthPolicy::PerClass, 12.0, 1.0);
        assert_eq!(m.blocking_probability(ClassId(2)), None);
        let _g1 = m.try_admit(ClassId(2)).unwrap();
        let _g2 = m.try_admit(ClassId(2)).unwrap();
        let _ = m.try_admit(ClassId(2));
        let _ = m.try_admit(ClassId(2));
        assert_eq!(m.blocking_probability(ClassId(2)), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "mean demand")]
    fn sub_unit_mean_demand_rejected() {
        let _ = manager(BandwidthPolicy::Unlimited, 1.0, 0.5);
    }

    #[test]
    fn zero_bandwidth_class_always_blocks() {
        let classes = ClassSet::paper_default().with_bandwidth_shares(&[1.0, 0.0, 0.0]);
        let cfg = BandwidthConfig::per_class(10.0, 1.0);
        let mut m = BandwidthManager::new(&cfg, &classes, Xoshiro256::new(1));
        assert!(m.try_admit(ClassId(1)).is_none());
        assert_eq!(m.blocking_probability(ClassId(1)), Some(1.0));
    }
}
