//! Push-side (broadcast) schedulers.
//!
//! The paper pushes the `K` most popular items with a **flat round-robin**
//! schedule ([`flat::FlatRoundRobin`]). Two classic alternatives are
//! implemented for the ABL-PUSH ablation:
//!
//! * [`bdisk::BroadcastDisks`] — Acharya et al., SIGMOD '95: popularity
//!   tiers spin at different speeds;
//! * `srr::SquareRootRule` — Hameed & Vaidya, WINET '99: items appear
//!   with frequency ∝ `√(p_i / l_i)`, realized online by a greedy rule.
//!
//! A push scheduler only decides the *order* of broadcast slots; the hybrid
//! server attaches transmission durations from the catalog.

pub mod bdisk;
pub mod flat;
pub mod srr;

use serde::{Deserialize, Serialize};

use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::{Catalog, ItemId};

/// A cyclic broadcast scheduler over the push set (items `0..K`).
pub trait PushScheduler: std::fmt::Debug + Send {
    /// Short identifier for reports.
    fn name(&self) -> &'static str;

    /// Number of items in the push set (`K`).
    fn push_set_size(&self) -> usize;

    /// The item to broadcast in the next slot, or `None` when `K == 0`
    /// (pure-pull operation). `now` is the slot's start time — only the
    /// online square-root rule uses it.
    fn next(&mut self, now: SimTime) -> Option<ItemId>;

    /// Returns the scheduler to its initial state.
    fn reset(&mut self);
}

/// Serializable push-scheduler selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum PushKind {
    /// Flat round-robin (the paper's choice).
    Flat,
    /// Broadcast disks with the given number of popularity tiers.
    BroadcastDisks {
        /// Number of disks (≥ 1); relative spin speeds are `n, n−1, …, 1`.
        num_disks: usize,
    },
    /// Online square-root rule.
    SquareRoot,
}

impl PushKind {
    /// Instantiates the scheduler for the push prefix `0..k` of `catalog`.
    pub fn build(&self, catalog: &Catalog, k: usize) -> Box<dyn PushScheduler> {
        assert!(
            k <= catalog.len(),
            "cutoff {k} exceeds catalog size {}",
            catalog.len()
        );
        match *self {
            PushKind::Flat => Box::new(flat::FlatRoundRobin::new(k)),
            PushKind::BroadcastDisks { num_disks } => {
                Box::new(bdisk::BroadcastDisks::new(catalog, k, num_disks))
            }
            PushKind::SquareRoot => Box::new(srr::SquareRootRule::new(catalog, k)),
        }
    }

    /// Instantiates the scheduler over an arbitrary item list (hottest
    /// first) — used by the re-ranking adaptive controller, where the push
    /// set is no longer a rank prefix.
    pub(crate) fn build_over(
        &self,
        catalog: &Catalog,
        items: Vec<ItemId>,
    ) -> Box<dyn PushScheduler> {
        for it in &items {
            assert!(
                it.index() < catalog.len(),
                "{it} outside catalog of {} items",
                catalog.len()
            );
        }
        match *self {
            PushKind::Flat => Box::new(flat::FlatRoundRobin::over_items(items)),
            PushKind::BroadcastDisks { num_disks } => {
                Box::new(bdisk::BroadcastDisks::over_items(items, num_disks))
            }
            PushKind::SquareRoot => Box::new(srr::SquareRootRule::over_items(catalog, items)),
        }
    }
}

/// Measures the empirical broadcast frequency of each push item over
/// `slots` scheduler invocations — shared helper for scheduler tests.
#[cfg(test)]
pub(crate) fn empirical_frequencies(
    sched: &mut dyn PushScheduler,
    k: usize,
    slots: usize,
) -> Vec<f64> {
    let mut counts = vec![0usize; k];
    let mut now = SimTime::ZERO;
    for s in 0..slots {
        if let Some(item) = sched.next(now) {
            counts[item.index()] += 1;
        }
        now = SimTime::new((s + 1) as f64);
    }
    counts.iter().map(|&c| c as f64 / slots as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_sim::rng::{streams, RngFactory};
    use hybridcast_workload::lengths::LengthModel;
    use hybridcast_workload::popularity::PopularityModel;

    fn catalog() -> Catalog {
        let f = RngFactory::new(3);
        let mut rng = f.stream(streams::LENGTHS);
        Catalog::build(
            20,
            &PopularityModel::zipf(1.0),
            &LengthModel::paper_default(),
            &mut rng,
        )
    }

    #[test]
    fn kinds_build_with_matching_names() {
        let cat = catalog();
        assert_eq!(PushKind::Flat.build(&cat, 10).name(), "flat");
        assert_eq!(
            PushKind::BroadcastDisks { num_disks: 3 }
                .build(&cat, 10)
                .name(),
            "broadcast-disks"
        );
        assert_eq!(PushKind::SquareRoot.build(&cat, 10).name(), "square-root");
    }

    #[test]
    fn zero_cutoff_yields_no_slots() {
        let cat = catalog();
        for kind in [
            PushKind::Flat,
            PushKind::BroadcastDisks { num_disks: 2 },
            PushKind::SquareRoot,
        ] {
            let mut s = kind.build(&cat, 0);
            assert_eq!(s.next(SimTime::ZERO), None, "{:?}", kind);
            assert_eq!(s.push_set_size(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_cutoff_rejected() {
        let cat = catalog();
        let _ = PushKind::Flat.build(&cat, 21);
    }

    #[test]
    fn serde_round_trip() {
        let k = PushKind::BroadcastDisks { num_disks: 3 };
        let js = serde_json::to_string(&k).unwrap();
        let back: PushKind = serde_json::from_str(&js).unwrap();
        assert_eq!(back, k);
    }
}
