//! Sharded multi-channel scheduling: the catalog partitioned across `C`
//! self-contained hybrid sub-schedulers.
//!
//! The paper assumes a single downlink. To scale past one scheduler
//! thread, [`build_shards`] splits the catalog by an item→channel map
//! ([`ChannelPlan`]) and builds one full [`HybridScheduler`] — own push
//! set, pull queue, cutoff `K_c`, and `1/C` bandwidth partition — per
//! channel. Requests route to the owning shard; each channel's
//! transmission timeline is driven independently by its host (the
//! simulation driver, or one daemon core per channel).
//!
//! The assignment objective is the Kenyon–Schabanel–Young cost
//! `Σ_c L_c²/2` with `L_c = Σ_{i∈c} √(pᵢ·lᵢ)` (see
//! [`hybridcast_analysis::ksy`]): minimizing total expected push wait
//! over a partition is exactly balancing the channel loads `L_c`.
//! [`AssignmentStrategy::PatternAware`] seeds greedily
//! (longest-processing-time over the weights) and then applies
//! local-search moves until no single-item move lowers the cost — the
//! cross-channel optimizer. `Range` and `Hash` are the naive baselines
//! it is judged against, and `(Σᵢwᵢ)²/2C` is the offline lower bound.
//!
//! With one tuner, a client listening to channel `c` cannot hear a push
//! on channel `c'`; the simulation driver charges such clients one
//! missed broadcast period (the conflict model) and reports the
//! conflict rate.

use hybridcast_analysis::ksy;
pub use hybridcast_analysis::ksy::PlanPrice;
use hybridcast_sim::ensure;
use hybridcast_sim::rng::RngFactory;
use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::{Catalog, ItemId};
use hybridcast_workload::classes::ClassSet;

use crate::config::{AssignmentStrategy, HybridConfig};
use crate::hybrid::HybridScheduler;
use crate::pull::PullPolicy;

/// Local-search passes over the whole catalog before the optimizer
/// settles (each pass is O(D·C); convergence is almost always ≤ 3).
const OPTIMIZER_MAX_PASSES: usize = 32;

/// An item→channel assignment plus its KSY accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelPlan {
    channels: u32,
    strategy: AssignmentStrategy,
    /// Channel index per item, indexed by `ItemId::index()`.
    channel_of: Vec<u8>,
    /// KSY weight `√(pᵢ·lᵢ)` per item.
    weights: Vec<f64>,
    /// Per-channel load `L_c`.
    loads: Vec<f64>,
}

impl ChannelPlan {
    /// The channel counts [`build`](Self::build) accepts, as a typed
    /// error.
    pub fn validate_channels(channels: u32) -> Result<(), String> {
        ensure(
            (1..=256).contains(&channels),
            format_args!("sharded channel count must be in 1..=256, got {channels}"),
        )
    }

    /// Builds the plan for `catalog` over `channels` channels.
    ///
    /// # Panics
    /// Panics if `channels` is 0 or exceeds 256 (the per-item channel
    /// index is a `u8`).
    pub fn build(catalog: &Catalog, channels: u32, strategy: AssignmentStrategy) -> Self {
        Self::validate_channels(channels).unwrap_or_else(|e| panic!("{e}"));
        let n = catalog.len();
        let weights: Vec<f64> = (0..n as u32)
            .map(|i| {
                let id = ItemId(i);
                ksy::ksy_weight(catalog.prob(id), catalog.length(id) as f64)
            })
            .collect();
        let c = channels as usize;
        let channel_of: Vec<u8> = match strategy {
            AssignmentStrategy::Range => (0..n).map(|i| (i * c / n.max(1)) as u8).collect(),
            AssignmentStrategy::Hash => (0..n).map(|i| (i % c) as u8).collect(),
            AssignmentStrategy::PatternAware => pattern_aware(&weights, c),
        };
        let loads = ksy::channel_loads(&weights, &channel_of, channels);
        ChannelPlan {
            channels,
            strategy,
            channel_of,
            weights,
            loads,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// The strategy that produced this plan.
    pub fn strategy(&self) -> AssignmentStrategy {
        self.strategy
    }

    /// The channel carrying `item`.
    #[inline]
    pub fn channel_of(&self, item: ItemId) -> u32 {
        self.channel_of[item.index()] as u32
    }

    /// The full assignment, one channel index per item.
    pub fn assignment(&self) -> &[u8] {
        &self.channel_of
    }

    /// Per-channel KSY loads `L_c`.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// This plan's KSY cost `Σ_c L_c²/2`.
    pub fn cost(&self) -> f64 {
        ksy::partition_cost(&self.loads)
    }

    /// The balanced-partition lower bound `(Σᵢwᵢ)²/2C` — what a perfect
    /// assignment of these items to these channels could achieve.
    pub fn lower_bound(&self) -> f64 {
        ksy::partition_lower_bound(&self.weights, self.channels)
    }

    /// Relative gap of this plan's cost above the lower bound
    /// (`None` on a zero-weight catalog).
    pub fn gap(&self) -> Option<f64> {
        ksy::gap_to_lower_bound(self.cost(), self.lower_bound())
    }

    /// The full KSY pricing of this plan in one value (what a what-if
    /// report quotes per candidate).
    pub fn price(&self) -> ksy::PlanPrice {
        ksy::price_partition(&self.weights, &self.channel_of, self.channels)
    }
}

/// Greedy LPT seeding plus local-search moves on the KSY objective.
///
/// Moving item `i` (weight `w`) from channel `a` to `b` changes
/// `Σ L²` by `(L_a−w)² + (L_b+w)² − L_a² − L_b² = 2w·(L_b − L_a + w)`,
/// so the move improves iff `L_a − w > L_b` — always move toward the
/// strictly lighter channel, ties broken toward the lower index for
/// determinism.
fn pattern_aware(weights: &[f64], channels: usize) -> Vec<u8> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    // Heaviest first; equal weights keep id order (sort is stable).
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));

    let mut loads = vec![0.0f64; channels];
    let mut assign = vec![0u8; weights.len()];
    for &i in &order {
        let lightest = argmin(&loads);
        assign[i] = lightest as u8;
        loads[lightest] += weights[i];
    }

    for _ in 0..OPTIMIZER_MAX_PASSES {
        let mut moved = false;
        for &i in &order {
            let from = assign[i] as usize;
            let w = weights[i];
            let to = argmin(&loads);
            if to != from && loads[from] - w > loads[to] + 1e-12 {
                loads[from] -= w;
                loads[to] += w;
                assign[i] = to as u8;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    assign
}

fn argmin(loads: &[f64]) -> usize {
    let mut best = 0;
    for (i, &l) in loads.iter().enumerate().skip(1) {
        if l < loads[best] {
            best = i;
        }
    }
    best
}

/// The scheduler shards of `config.channels`, in shard order, plus the
/// plan that routes items to them — the one construction path of the
/// simulator's and the daemon's schedulers.
///
/// [`Sharded`](crate::config::ChannelLayout::Sharded) spreads the
/// catalog over its `C` channels; the other layouts build one shard that
/// owns every item. Each shard gets `1/C` of the admission capacity, the
/// slice of the push prefix `0..K` its channel owns, and (past the first)
/// an independent replication of the RNG factory. At `C = 1` that is
/// exactly [`HybridScheduler::new`]: every push schedule built over the
/// prefix `0..K` is the one built for cutoff `K`. `policy` replaces the
/// pull policy `config.pull` builds; a boxed policy can't be distributed
/// across shards.
///
/// # Panics
/// Panics if `config.cutoff > catalog.len()` (same contract as
/// [`HybridScheduler::new`]), or if `policy` is set on a layout with more
/// than one shard.
pub fn build_shards(
    catalog: &Catalog,
    classes: &ClassSet,
    config: &HybridConfig,
    factory: &RngFactory,
    mut policy: Option<Box<dyn PullPolicy>>,
) -> (Vec<HybridScheduler>, ChannelPlan) {
    assert!(
        config.cutoff <= catalog.len(),
        "cutoff {} exceeds catalog size {}",
        config.cutoff,
        catalog.len()
    );
    let channels = config.channels.shard_count();
    assert!(
        policy.is_none() || channels == 1,
        "a custom pull policy requires a single channel"
    );
    let plan = ChannelPlan::build(catalog, channels, config.channels.assignment());
    let mut shard_config = config.clone();
    shard_config.cutoff = 0;
    shard_config.bandwidth.total_capacity = config.bandwidth.total_capacity / channels as f64;
    // Each channel's slice of the global push prefix 0..K, in id order.
    let mut push_slices = vec![Vec::new(); channels as usize];
    for item in (0..config.cutoff as u32).map(ItemId) {
        push_slices[plan.channel_of(item) as usize].push(item);
    }
    let shards = (0..channels)
        .zip(&push_slices)
        .map(|(c, push_items)| {
            let shard_factory = if c == 0 {
                *factory
            } else {
                factory.replication(c as u64)
            };
            let policy = policy.take().unwrap_or_else(|| config.pull.build());
            let mut shard = HybridScheduler::with_policy(
                catalog.clone(),
                classes.clone(),
                &shard_config,
                &shard_factory,
                policy,
            );
            shard.set_push_set(push_items, SimTime::ZERO);
            shard
        })
        .collect();
    (shards, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChannelLayout;
    use crate::hybrid::Disposition;
    use crate::metrics::TxKind;
    use hybridcast_workload::classes::ClassId;
    use hybridcast_workload::lengths::LengthModel;
    use hybridcast_workload::popularity::PopularityModel;
    use hybridcast_workload::requests::Request;

    fn catalog(n: usize) -> Catalog {
        let factory = RngFactory::new(4);
        let mut rng = factory.stream(hybridcast_sim::rng::streams::LENGTHS);
        Catalog::build(
            n,
            &PopularityModel::zipf(1.0),
            &LengthModel::Uniform { min: 1, max: 4 },
            &mut rng,
        )
    }

    fn req(t: f64, item: u32, class: u8) -> Request {
        Request {
            arrival: SimTime::new(t),
            item: ItemId(item),
            class: ClassId(class),
        }
    }

    fn sharded(
        channels: u32,
        assignment: AssignmentStrategy,
        cutoff: usize,
    ) -> (Vec<HybridScheduler>, ChannelPlan) {
        let mut cfg = HybridConfig::paper(cutoff, 0.5);
        cfg.channels = ChannelLayout::Sharded {
            channels,
            assignment,
        };
        build_shards(
            &catalog(20),
            &ClassSet::paper_default(),
            &cfg,
            &RngFactory::new(4),
            None,
        )
    }

    #[test]
    fn every_item_is_assigned_exactly_one_channel() {
        for strategy in [
            AssignmentStrategy::Range,
            AssignmentStrategy::Hash,
            AssignmentStrategy::PatternAware,
        ] {
            let plan = ChannelPlan::build(&catalog(20), 4, strategy);
            assert_eq!(plan.assignment().len(), 20);
            assert!(plan.assignment().iter().all(|&c| c < 4));
            for c in 0..4 {
                assert!(
                    plan.assignment().contains(&c),
                    "{strategy:?} leaves channel {c} empty"
                );
            }
        }
    }

    #[test]
    fn pattern_aware_beats_the_naive_baselines_on_zipf() {
        let cat = catalog(100);
        let range = ChannelPlan::build(&cat, 4, AssignmentStrategy::Range);
        let hash = ChannelPlan::build(&cat, 4, AssignmentStrategy::Hash);
        let smart = ChannelPlan::build(&cat, 4, AssignmentStrategy::PatternAware);
        assert!(
            smart.cost() <= range.cost() + 1e-12 && smart.cost() <= hash.cost() + 1e-12,
            "pattern-aware {:.4} vs range {:.4} / hash {:.4}",
            smart.cost(),
            range.cost(),
            hash.cost()
        );
        // On a Zipf catalog the range baseline piles the whole head onto
        // channel 0 — pattern-aware must do strictly better than that.
        assert!(smart.cost() < range.cost());
        // And it should land near the balanced lower bound.
        assert!(smart.gap().unwrap() < 0.05, "gap {:?}", smart.gap());
    }

    #[test]
    fn optimizer_never_worsens_greedy_and_is_deterministic() {
        let cat = catalog(50);
        let a = ChannelPlan::build(&cat, 3, AssignmentStrategy::PatternAware);
        let b = ChannelPlan::build(&cat, 3, AssignmentStrategy::PatternAware);
        assert_eq!(a, b, "plan construction must be deterministic");
        assert!(a.cost() >= a.lower_bound() - 1e-12);
    }

    #[test]
    fn single_channel_plan_is_trivial_and_cost_matches_ksy() {
        let cat = catalog(20);
        let plan = ChannelPlan::build(&cat, 1, AssignmentStrategy::PatternAware);
        assert!(plan.assignment().iter().all(|&c| c == 0));
        assert!((plan.cost() - plan.lower_bound()).abs() < 1e-12);
        assert_eq!(plan.gap(), Some(0.0));
    }

    #[test]
    fn requests_route_to_the_owning_shard() {
        let (mut shards, plan) = sharded(4, AssignmentStrategy::Hash, 0);
        for item in 0..20u32 {
            let channel = plan.channel_of(ItemId(item));
            assert_eq!(channel, item % 4, "hash assignment routes by id mod C");
            let shard = &mut shards[channel as usize];
            assert_eq!(shard.on_request(&req(1.0, item, 0)), Disposition::Queued);
            assert_eq!(shard.queue().get(ItemId(item)).map(|e| e.count()), Some(1));
        }
        let queued = |f: fn(&HybridScheduler) -> usize| shards.iter().map(f).sum::<usize>();
        assert_eq!(queued(|s| s.queue().total_requests()), 20);
        assert_eq!(queued(|s| s.queue().len()), 20);
    }

    #[test]
    fn shard_push_sets_slice_the_global_prefix() {
        let (shards, plan) = sharded(4, AssignmentStrategy::PatternAware, 8);
        let mut push_total = 0;
        for (c, shard) in (0..).zip(&shards) {
            for item in 0..20u32 {
                let id = ItemId(item);
                let owned = plan.channel_of(id) == c;
                let in_prefix = (item as usize) < 8;
                assert_eq!(
                    shard.is_push_item(id),
                    owned && in_prefix,
                    "channel {c} item {item}"
                );
            }
            push_total += shard.cutoff();
        }
        assert_eq!(push_total, 8, "the shards partition the push prefix");
    }

    #[test]
    fn channels_run_independent_timelines() {
        let (mut shards, plan) = sharded(2, AssignmentStrategy::Hash, 4);
        // Channel 1 owns odd items; queue a pull request for item 5.
        assert_eq!(plan.channel_of(ItemId(5)), 1);
        shards[1].on_request(&req(0.5, 5, 0));
        let (tx0, _) = shards[0].next_transmission(SimTime::new(1.0));
        let tx0 = tx0.expect("channel 0 has a push set");
        assert_eq!(tx0.kind, TxKind::Push);
        let (tx1, _) = shards[1].next_transmission(SimTime::new(1.0));
        let tx1 = tx1.expect("channel 1 has work");
        assert_eq!(tx1.kind, TxKind::Push, "push slot comes first");
        shards[0].complete_transmission(tx0);
        shards[1].complete_transmission(tx1);
        let (tx1b, _) = shards[1].next_transmission(SimTime::new(3.0));
        let tx1b = tx1b.expect("pull slot after the push");
        assert_eq!(tx1b.kind, TxKind::Pull);
        assert_eq!(tx1b.item, ItemId(5));
        let batch = shards[1].complete_transmission(tx1b).expect("served batch");
        assert_eq!(batch.count(), 1);
    }

    #[test]
    fn one_channel_sharded_matches_the_plain_scheduler_step_for_step() {
        let cfg = {
            let mut c = HybridConfig::paper(5, 0.5);
            c.channels = ChannelLayout::Sharded {
                channels: 1,
                assignment: AssignmentStrategy::PatternAware,
            };
            c
        };
        let plain_cfg = HybridConfig::paper(5, 0.5);
        let factory = RngFactory::new(77);
        let classes = ClassSet::paper_default;
        let (mut shards, plan) = build_shards(&catalog(20), &classes(), &cfg, &factory, None);
        assert_eq!(shards.len(), 1);
        assert!(plan.assignment().iter().all(|&c| c == 0));
        let sharded = &mut shards[0];
        let mut plain = HybridScheduler::new(catalog(20), classes(), &plain_cfg, &factory);
        for item in [7u32, 9, 12, 7, 19] {
            let d1 = sharded.on_request(&req(0.1, item, item as u8 % 3));
            let d2 = plain.on_request(&req(0.1, item, item as u8 % 3));
            assert_eq!(d1, d2);
        }
        let mut t = 0.0;
        for _ in 0..40 {
            let (a, da) = sharded.next_transmission(SimTime::new(t));
            let (b, db) = plain.next_transmission(SimTime::new(t));
            assert_eq!(da.len(), db.len());
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!((a.item, a.kind, a.duration), (b.item, b.kind, b.duration));
                    t = a.completes_at().as_f64();
                    let sa = sharded.complete_transmission(a);
                    let sb = plain.complete_transmission(b);
                    assert_eq!(sa.map(|e| e.count()), sb.map(|e| e.count()));
                }
                (None, None) => t += 1.0,
                (a, b) => panic!("divergence: {a:?} vs {b:?}"),
            }
        }
    }
}
