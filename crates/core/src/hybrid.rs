//! The hybrid push/pull scheduler — Figure 1 of the paper.
//!
//! ```text
//! divide the clients among different service-classes;
//! while true do
//!     consider the access/requests arriving;
//!     ignore the requests for push items;
//!     append the requests for pull items in the pull-queue;
//!     take out an item from the push part and broadcast it;
//!     if the pull-queue is not empty then
//!         extract the item having maximum importance-factor (γ_i);
//!         clear the number of pending requests for that item;
//!         free/track the required bandwidth;
//! ```
//!
//! [`HybridScheduler`] is that loop as a passive state machine: the
//! simulation driver feeds it requests ([`HybridScheduler::on_request`])
//! and asks for the next slot ([`HybridScheduler::next_transmission`]);
//! the scheduler alternates push and pull slots, applies the pull policy
//! and the bandwidth admission test, and hands back [`Transmission`]s plus
//! any [`PendingItem`]s dropped by admission control.

use hybridcast_sim::stats::TimeWeighted;
use hybridcast_sim::time::{SimDuration, SimTime};
use hybridcast_workload::catalog::{Catalog, ItemId};
use hybridcast_workload::classes::ClassSet;
use hybridcast_workload::requests::Request;

use crate::bandwidth::{BandwidthManager, Grant};
use crate::config::HybridConfig;
use crate::metrics::TxKind;
use crate::pull::{IndexContext, PullContext, PullPolicy};
use crate::push::{PushKind, PushScheduler};
use crate::queue::{PendingItem, PullQueue};

use hybridcast_sim::rng::{streams, RngFactory};

/// What happened to an incoming request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The item is in the push set; the request is ignored (the item will
    /// come around on the broadcast).
    PushIgnored,
    /// The request joined the pull queue.
    Queued,
}

/// One scheduled downlink transmission.
#[derive(Debug)]
pub struct Transmission {
    /// The item on the air.
    pub item: ItemId,
    /// Push broadcast or pull service.
    pub kind: TxKind,
    /// Slot start time.
    pub start: SimTime,
    /// Transmission time (= item length in broadcast units).
    pub duration: SimDuration,
    /// For pull slots: the batch of requests this transmission satisfies.
    pub served: Option<PendingItem>,
    /// For pull slots under admission control: the held bandwidth.
    pub grant: Option<Grant>,
}

impl Transmission {
    /// Completion instant of this transmission.
    pub fn completes_at(&self) -> SimTime {
        self.start + self.duration
    }
}

/// The hybrid push/pull server.
pub struct HybridScheduler {
    catalog: Catalog,
    classes: ClassSet,
    cutoff: usize,
    /// Push-set membership per item (the paper's prefix `0..K` by default;
    /// arbitrary under the re-ranking controller).
    push_member: Vec<bool>,
    push_kind: PushKind,
    push: Box<dyn PushScheduler>,
    policy: Box<dyn PullPolicy>,
    /// Cached `policy.score_is_local()`: when set, every insert publishes
    /// the entry's fresh score to the queue's heap index and pull slots
    /// select in O(log n) instead of scanning.
    indexed: bool,
    queue: PullQueue,
    bandwidth: BandwidthManager,
    /// Pull slots granted per push slot (Fig. 1: one).
    pull_per_push: u32,
    /// Remaining pull slots before the next mandatory push slot.
    pull_credits: u32,
    /// Online E[L_pull] estimate (time-average of distinct queued items),
    /// consumed by Eq. 6 policies.
    queue_avg: TimeWeighted,
}

impl std::fmt::Debug for HybridScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridScheduler")
            .field("cutoff", &self.cutoff)
            .field("push", &self.push.name())
            .field("pull", &self.policy.name())
            .field("queued_items", &self.queue.len())
            .finish()
    }
}

impl HybridScheduler {
    /// Builds the server. The bandwidth manager's demand stream derives
    /// from `factory` so runs are reproducible.
    ///
    /// # Panics
    /// Panics if `config.cutoff > catalog.len()`.
    pub fn new(
        catalog: Catalog,
        classes: ClassSet,
        config: &HybridConfig,
        factory: &RngFactory,
    ) -> Self {
        let policy = config.pull.build();
        Self::with_policy(catalog, classes, config, factory, policy)
    }

    /// Like [`HybridScheduler::new`] but with a caller-supplied pull policy
    /// instead of one built from `config.pull` — for custom policies and for
    /// tests that need to inject a misbehaving one.
    ///
    /// # Panics
    /// Panics if `config.cutoff > catalog.len()`.
    pub(crate) fn with_policy(
        catalog: Catalog,
        classes: ClassSet,
        config: &HybridConfig,
        factory: &RngFactory,
        policy: Box<dyn PullPolicy>,
    ) -> Self {
        assert!(
            config.cutoff <= catalog.len(),
            "cutoff {} exceeds catalog size {}",
            config.cutoff,
            catalog.len()
        );
        let push = config.push.build(&catalog, config.cutoff);
        let bandwidth = BandwidthManager::new(
            &config.bandwidth,
            &classes,
            factory.stream(streams::BANDWIDTH),
        );
        let num_items = catalog.len();
        let push_member: Vec<bool> = (0..num_items).map(|i| i < config.cutoff).collect();
        let indexed = policy.score_is_local();
        HybridScheduler {
            catalog,
            classes,
            cutoff: config.cutoff,
            push_member,
            push_kind: config.push,
            push,
            policy,
            indexed,
            queue: PullQueue::new(num_items),
            bandwidth,
            pull_per_push: config.pull_per_push,
            pull_credits: 0,
            queue_avg: TimeWeighted::new(SimTime::ZERO, 0.0),
        }
    }

    /// Replaces the push set with an arbitrary item list (hottest first) —
    /// the "dynamically computes the data access probabilities" extension:
    /// a re-ranking controller pushes the *estimated* top items, which need
    /// not be a rank prefix. Returns the queued entries whose items just
    /// joined the push set.
    ///
    /// # Panics
    /// Panics if `items` contains duplicates or out-of-range ids.
    pub(crate) fn set_push_set(&mut self, items: &[ItemId], now: SimTime) -> Vec<PendingItem> {
        let mut member = vec![false; self.catalog.len()];
        for it in items {
            assert!(
                it.index() < self.catalog.len(),
                "{it} outside catalog of {} items",
                self.catalog.len()
            );
            assert!(!member[it.index()], "duplicate {it} in push set");
            member[it.index()] = true;
        }
        self.cutoff = items.len();
        self.push_member = member;
        self.push = self.push_kind.build_over(&self.catalog, items.to_vec());
        self.pull_credits = 0;
        let push_member = &self.push_member;
        let moved = self.queue.drain_matching(|it| push_member[it.index()]);
        self.queue_avg.set(now, self.queue.len() as f64);
        moved
    }

    /// Current push-set membership, one flag per catalog item.
    pub(crate) fn push_membership(&self) -> &[bool] {
        &self.push_member
    }

    /// The cutoff point `K`.
    pub fn cutoff(&self) -> usize {
        self.cutoff
    }

    /// `true` if `item` belongs to the push set.
    #[inline]
    pub(crate) fn is_push_item(&self, item: ItemId) -> bool {
        self.push_member[item.index()]
    }

    /// The item database.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The service classes.
    pub fn classes(&self) -> &ClassSet {
        &self.classes
    }

    /// The pull queue (read-only).
    pub fn queue(&self) -> &PullQueue {
        &self.queue
    }

    /// The bandwidth manager (read-only).
    pub fn bandwidth(&self) -> &BandwidthManager {
        &self.bandwidth
    }

    /// Repartitions per-class bandwidth to `shares` (see
    /// [`BandwidthManager::set_shares`]) — the online controller's
    /// rebalance mode steers capacity toward measured demand this way.
    pub(crate) fn rebalance_bandwidth(&mut self, shares: &[f64]) {
        self.bandwidth.set_shares(shares);
    }

    /// Feeds one incoming request to the server.
    pub fn on_request(&mut self, req: &Request) -> Disposition {
        if self.is_push_item(req.item) {
            // Fig. 1: "ignore the requests for push item".
            Disposition::PushIgnored
        } else {
            let q = self.classes.priority(req.class);
            self.queue.insert(req, q);
            self.reindex(req.item);
            self.queue_avg.set(req.arrival, self.queue.len() as f64);
            Disposition::Queued
        }
    }

    /// Publishes `item`'s fresh score to the queue's heap index. Eq. 1
    /// structure: a request changes the score of the one item it targets,
    /// so moving that item's one heap record, O(log n), keeps the whole
    /// index current.
    fn reindex(&mut self, item: ItemId) {
        if !self.indexed {
            return;
        }
        let ictx = IndexContext {
            catalog: &self.catalog,
            classes: &self.classes,
        };
        let entry = self.queue.get(item).expect("item was just inserted");
        let Some(score) = self.policy.rescore(entry, &ictx) else {
            // The policy advertised `score_is_local` but kept the default
            // `rescore`: degrade permanently to the scan rather than panic.
            self.indexed = false;
            return;
        };
        self.queue.reindex(item, score);
    }

    /// Re-inserts a former broadcast waiter into the pull queue after a
    /// cutoff move evicted its item from the push set. The request keeps
    /// its original arrival time (its wait so far still counts); the
    /// queue-length average is stamped at `now`.
    pub(crate) fn requeue_waiter(&mut self, req: &Request, now: SimTime) {
        debug_assert!(
            !self.is_push_item(req.item),
            "requeue target must be a pull item"
        );
        let q = self.classes.priority(req.class);
        self.queue.insert(req, q);
        self.reindex(req.item);
        self.queue_avg.set(now, self.queue.len() as f64);
    }

    /// Decides the next downlink slot starting at `now`.
    ///
    /// Returns the transmission (or `None` when there is nothing to send —
    /// only possible with `K = 0` and an empty queue) together with every
    /// queued item dropped by the bandwidth admission test while looking
    /// for an admissible one.
    pub fn next_transmission(&mut self, now: SimTime) -> (Option<Transmission>, Vec<PendingItem>) {
        let mut dropped = Vec::new();

        // Pull slot: granted after a push slot (or always, when K = 0).
        if (self.pull_credits > 0 || self.cutoff == 0) && !self.queue.is_empty() {
            self.pull_credits = self.pull_credits.saturating_sub(1);
            if let Some(tx) = self.try_pull(now, &mut dropped) {
                return (Some(tx), dropped);
            }
            // Whole queue was dropped by admission control — fall through
            // to a push slot.
        }

        // Push slot.
        if let Some(item) = self.push.next(now) {
            self.pull_credits = self.pull_per_push;
            let duration = SimDuration::new(self.catalog.length(item) as f64);
            return (
                Some(Transmission {
                    item,
                    kind: TxKind::Push,
                    start: now,
                    duration,
                    served: None,
                    grant: None,
                }),
                dropped,
            );
        }

        // K = 0 and nothing admissible: the server idles until the next
        // arrival.
        (None, dropped)
    }

    fn try_pull(&mut self, now: SimTime, dropped: &mut Vec<PendingItem>) -> Option<Transmission> {
        loop {
            let ctx = PullContext {
                catalog: &self.catalog,
                classes: &self.classes,
                now,
                mean_queue_len: self.mean_queue_len(now),
            };
            let selected = if self.indexed && self.policy.index_usable(&ctx) {
                self.queue.select_max_indexed()?
            } else {
                let policy = &self.policy;
                self.queue.select_max(|e| policy.score(e, &ctx))?
            };
            let entry = self.queue.remove(selected);
            self.queue_avg.set(now, self.queue.len() as f64);
            let Some(dominant) = entry.dominant_class() else {
                // A queued entry always has requesters; defensively drop
                // rather than panic if the invariant is ever violated.
                debug_assert!(false, "selected entry has no requesters");
                dropped.push(entry);
                continue;
            };
            match self.bandwidth.try_admit(dominant) {
                Some(grant) => {
                    let duration = SimDuration::new(self.catalog.length(selected) as f64);
                    return Some(Transmission {
                        item: selected,
                        kind: TxKind::Pull,
                        start: now,
                        duration,
                        served: Some(entry),
                        grant: Some(grant),
                    });
                }
                None => {
                    // §3: "the data item and the corresponding requests are
                    // lost" — record and try the next-best item.
                    dropped.push(entry);
                }
            }
        }
    }

    /// Split-layout dispatch: the next slot of the dedicated broadcast
    /// channel (`None` when the push set is empty).
    pub(crate) fn next_push_transmission(&mut self, now: SimTime) -> Option<Transmission> {
        let item = self.push.next(now)?;
        let duration = SimDuration::new(self.catalog.length(item) as f64);
        Some(Transmission {
            item,
            kind: TxKind::Push,
            start: now,
            duration,
            served: None,
            grant: None,
        })
    }

    /// Split-layout dispatch: the next transmission of one dedicated pull
    /// channel (`None` when the queue is empty or fully blocked), together
    /// with any entries dropped by admission control.
    pub(crate) fn next_pull_transmission(
        &mut self,
        now: SimTime,
    ) -> (Option<Transmission>, Vec<PendingItem>) {
        let mut dropped = Vec::new();
        let tx = self.try_pull(now, &mut dropped);
        (tx, dropped)
    }

    /// Completes `tx`: releases its bandwidth grant (if any) and returns
    /// the served batch for delay attribution.
    pub fn complete_transmission(&mut self, tx: Transmission) -> Option<PendingItem> {
        if let Some(grant) = tx.grant {
            self.bandwidth.release(grant);
        }
        tx.served
    }

    /// Returns a fully-attributed batch's buffers to the queue's entry
    /// pool so later inserts reuse them instead of allocating.
    pub fn recycle(&mut self, entry: PendingItem) {
        self.queue.recycle(entry);
    }

    /// The online time-averaged pull-queue length estimate at `now`.
    pub fn mean_queue_len(&self, now: SimTime) -> f64 {
        // `None` only at now = 0, before any time has passed: E[L] is then
        // the queue's initial length, 0.
        self.queue_avg.time_average(now).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_workload::catalog::ItemId;
    use hybridcast_workload::classes::ClassId;
    use hybridcast_workload::lengths::LengthModel;
    use hybridcast_workload::popularity::PopularityModel;

    fn catalog() -> Catalog {
        let factory = RngFactory::new(4);
        let mut rng = factory.stream(streams::LENGTHS);
        Catalog::build(
            10,
            &PopularityModel::zipf(1.0),
            &LengthModel::Fixed { length: 2 },
            &mut rng,
        )
    }

    fn scheduler(cutoff: usize, alpha: f64) -> HybridScheduler {
        let cfg = HybridConfig::paper(cutoff, alpha);
        HybridScheduler::new(
            catalog(),
            ClassSet::paper_default(),
            &cfg,
            &RngFactory::new(4),
        )
    }

    fn req(t: f64, item: u32, class: u8) -> Request {
        Request {
            arrival: SimTime::new(t),
            item: ItemId(item),
            class: ClassId(class),
        }
    }

    #[test]
    fn push_requests_are_ignored() {
        let mut s = scheduler(5, 0.5);
        assert_eq!(s.on_request(&req(1.0, 2, 0)), Disposition::PushIgnored);
        assert_eq!(s.on_request(&req(1.0, 7, 0)), Disposition::Queued);
        assert_eq!(s.queue().len(), 1);
    }

    #[test]
    fn alternates_push_and_pull() {
        let mut s = scheduler(5, 0.5);
        s.on_request(&req(0.5, 7, 0));
        s.on_request(&req(0.6, 8, 1));
        let (tx1, d1) = s.next_transmission(SimTime::new(1.0));
        assert_eq!(tx1.as_ref().unwrap().kind, TxKind::Push);
        assert!(d1.is_empty());
        let (tx2, _) = s.next_transmission(SimTime::new(3.0));
        assert_eq!(tx2.as_ref().unwrap().kind, TxKind::Pull);
        let (tx3, _) = s.next_transmission(SimTime::new(5.0));
        assert_eq!(tx3.as_ref().unwrap().kind, TxKind::Push);
        s.complete_transmission(tx1.unwrap());
        s.complete_transmission(tx2.unwrap());
        s.complete_transmission(tx3.unwrap());
    }

    #[test]
    fn empty_queue_gives_back_to_back_pushes() {
        let mut s = scheduler(5, 0.5);
        for i in 0..4 {
            let (tx, _) = s.next_transmission(SimTime::new(i as f64 * 2.0));
            assert_eq!(tx.unwrap().kind, TxKind::Push);
        }
    }

    #[test]
    fn pure_pull_mode_serves_queue_and_idles() {
        let mut s = scheduler(0, 0.5);
        let (none, _) = s.next_transmission(SimTime::ZERO);
        assert!(none.is_none(), "idle with nothing queued");
        s.on_request(&req(1.0, 3, 0));
        let (tx, _) = s.next_transmission(SimTime::new(1.0));
        let tx = tx.unwrap();
        assert_eq!(tx.kind, TxKind::Pull);
        assert_eq!(tx.item, ItemId(3));
        let batch = s.complete_transmission(tx).unwrap();
        assert_eq!(batch.count(), 1);
    }

    #[test]
    fn pure_push_mode_never_pulls() {
        let mut s = scheduler(10, 0.5);
        // every request is a push request
        assert_eq!(s.on_request(&req(1.0, 9, 0)), Disposition::PushIgnored);
        for i in 0..20 {
            let (tx, _) = s.next_transmission(SimTime::new(i as f64 * 2.0));
            assert_eq!(tx.unwrap().kind, TxKind::Push);
        }
    }

    #[test]
    fn pull_serves_whole_batch() {
        let mut s = scheduler(5, 0.5);
        s.on_request(&req(0.1, 7, 0));
        s.on_request(&req(0.2, 7, 2));
        s.on_request(&req(0.3, 7, 1));
        let (push, _) = s.next_transmission(SimTime::new(1.0));
        s.complete_transmission(push.unwrap());
        let (pull, _) = s.next_transmission(SimTime::new(3.0));
        let pull = pull.unwrap();
        assert_eq!(pull.item, ItemId(7));
        let batch = s.complete_transmission(pull).unwrap();
        assert_eq!(batch.count(), 3);
        assert!(s.queue().is_empty());
    }

    #[test]
    fn transmission_duration_is_item_length() {
        let mut s = scheduler(5, 0.5);
        let (tx, _) = s.next_transmission(SimTime::new(1.0));
        let tx = tx.unwrap();
        assert_eq!(tx.duration, SimDuration::new(2.0)); // Fixed length 2
        assert_eq!(tx.completes_at(), SimTime::new(3.0));
    }

    #[test]
    fn zero_bandwidth_drops_queued_items() {
        use crate::bandwidth::{BandwidthConfig, BandwidthPolicy};
        let mut cfg = HybridConfig::paper(5, 0.5);
        cfg.bandwidth = BandwidthConfig {
            policy: BandwidthPolicy::PerClass,
            total_capacity: 10.0,
            mean_demand: 1.0,
        };
        let classes = ClassSet::paper_default().with_bandwidth_shares(&[1.0, 0.0, 0.0]);
        let mut s = HybridScheduler::new(catalog(), classes, &cfg, &RngFactory::new(4));
        // class-C request: its partition has zero capacity
        s.on_request(&req(0.5, 7, 2));
        let (push, _) = s.next_transmission(SimTime::new(1.0));
        s.complete_transmission(push.unwrap());
        let (tx, dropped) = s.next_transmission(SimTime::new(3.0));
        // the pull candidate was dropped, so the slot became a push slot
        assert_eq!(tx.unwrap().kind, TxKind::Push);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].item, ItemId(7));
        assert!(s.queue().is_empty());
    }

    #[test]
    fn importance_policy_prefers_premium_batch_at_low_alpha() {
        let mut s = scheduler(5, 0.0); // pure priority
        s.on_request(&req(0.1, 7, 2)); // Q = 1
        s.on_request(&req(0.2, 8, 0)); // Q = 3
        let (push, _) = s.next_transmission(SimTime::new(1.0));
        s.complete_transmission(push.unwrap());
        let (pull, _) = s.next_transmission(SimTime::new(3.0));
        assert_eq!(pull.unwrap().item, ItemId(8));
    }

    #[test]
    fn queue_average_tracks_occupancy() {
        let mut s = scheduler(5, 0.5);
        assert_eq!(s.mean_queue_len(SimTime::new(1.0)), 0.0);
        s.on_request(&req(2.0, 7, 0));
        // queue held 0 items for 2u, then 1 item for 2u → avg 0.5
        let avg = s.mean_queue_len(SimTime::new(4.0));
        assert!((avg - 0.5).abs() < 1e-12, "avg {avg}");
    }

    /// MRF by `score`, but claims an index without overriding `rescore` —
    /// exactly the misadvertising bug the `Option` signature defends
    /// against (the old default panicked with `unimplemented!` here).
    #[derive(Debug)]
    struct MisadvertisingMrf;

    impl PullPolicy for MisadvertisingMrf {
        fn name(&self) -> &'static str {
            "misadvertising-mrf"
        }

        fn score(&self, entry: &PendingItem, _ctx: &PullContext<'_>) -> f64 {
            entry.count() as f64
        }

        fn score_is_local(&self) -> bool {
            true
        }
    }

    #[test]
    fn misadvertised_index_degrades_to_the_scan_instead_of_panicking() {
        let cfg = HybridConfig::paper(5, 0.5);
        let mut s = HybridScheduler::with_policy(
            catalog(),
            ClassSet::paper_default(),
            &cfg,
            &RngFactory::new(4),
            Box::new(MisadvertisingMrf),
        );
        // Each insert triggers a reindex attempt; with the old panicking
        // default the first one aborted the run.
        s.on_request(&req(0.1, 7, 0));
        s.on_request(&req(0.2, 8, 1));
        s.on_request(&req(0.3, 8, 2));
        let (push, _) = s.next_transmission(SimTime::new(1.0));
        s.complete_transmission(push.unwrap());
        // Selection fell back to the scan and still follows the score: item
        // 8 holds two pending requests vs. one on item 7.
        let (pull, _) = s.next_transmission(SimTime::new(3.0));
        assert_eq!(pull.unwrap().item, ItemId(8));
    }
}
