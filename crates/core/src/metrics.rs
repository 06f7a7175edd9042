//! Per-class QoS metrics and the serializable simulation report.
//!
//! The paper evaluates three quantities per service class (§5):
//!
//! * **delay** — mean access time in broadcast units, from request arrival
//!   to the completion of the item's transmission (push or pull);
//! * **blocking** — the fraction of pull requests dropped by the bandwidth
//!   admission test;
//! * **prioritized cost** — `q_c × E[delay_c]` (§4.2.2), summed over
//!   classes to give the objective the cutoff optimizer minimizes.
//!
//! [`MetricsCollector`] accumulates these online; [`SimReport`] is the
//! serializable snapshot the experiment harness consumes. Each class's
//! delay tail (p50/p95/p99) comes from one fixed-memory
//! [`Histogram`], within relative 2⁻⁷
//! of the exact order statistic, and is `None` when the class served
//! nothing.

use serde::{Deserialize, Serialize};

use hybridcast_sim::quantile::Histogram;
use hybridcast_sim::stats::{SummaryStats, TimeWeighted, Welford};
use hybridcast_sim::time::SimTime;
use hybridcast_workload::classes::{ClassId, ClassSet};

/// Whether a transmission came from the push broadcast or the pull queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxKind {
    /// Cyclic broadcast of a push-set item.
    Push,
    /// On-demand transmission of a pull-set item.
    Pull,
}

/// Online per-class accumulators.
#[derive(Debug, Clone)]
struct ClassAccum {
    delay: Welford,
    push_delay: Welford,
    pull_delay: Welford,
    delay_quantiles: Histogram,
    generated: u64,
    served: u64,
    blocked: u64,
}

impl ClassAccum {
    fn new() -> Self {
        ClassAccum {
            delay: Welford::new(),
            push_delay: Welford::new(),
            pull_delay: Welford::new(),
            delay_quantiles: Histogram::default(),
            generated: 0,
            served: 0,
            blocked: 0,
        }
    }
}

/// Collects per-class and system-wide metrics during a simulation run.
///
/// All *sampled* quantities (delays, counts) ignore requests that arrived
/// before `warmup`; the time-weighted queue averages cover the whole run.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    warmup: SimTime,
    per_class: Vec<ClassAccum>,
    queue_items: TimeWeighted,
    queue_requests: TimeWeighted,
    push_transmissions: u64,
    pull_transmissions: u64,
    blocked_items: u64,
    uplink_lost: Vec<u64>,
    uplink_delivered: Vec<u64>,
    uplink_latency: Vec<Welford>,
}

impl MetricsCollector {
    /// A collector for `num_classes` classes discarding samples that
    /// arrived before `warmup`.
    pub fn new(num_classes: usize, warmup: SimTime) -> Self {
        MetricsCollector {
            warmup,
            per_class: (0..num_classes).map(|_| ClassAccum::new()).collect(),
            queue_items: TimeWeighted::new(SimTime::ZERO, 0.0),
            queue_requests: TimeWeighted::new(SimTime::ZERO, 0.0),
            push_transmissions: 0,
            pull_transmissions: 0,
            blocked_items: 0,
            uplink_lost: vec![0; num_classes],
            uplink_delivered: vec![0; num_classes],
            uplink_latency: vec![Welford::new(); num_classes],
        }
    }

    /// `true` when `arrival` falls inside the measured window.
    #[inline]
    fn measured(&self, arrival: SimTime) -> bool {
        arrival >= self.warmup
    }

    /// A request of `class` arrived at `arrival`.
    pub fn on_request(&mut self, class: ClassId, arrival: SimTime) {
        if self.measured(arrival) {
            self.per_class[class.index()].generated += 1;
        }
    }

    /// A request that arrived at `arrival` was satisfied at `completed`.
    pub fn record_served(
        &mut self,
        class: ClassId,
        kind: TxKind,
        arrival: SimTime,
        completed: SimTime,
    ) {
        if !self.measured(arrival) {
            return;
        }
        let delay = (completed - arrival).as_f64();
        let acc = &mut self.per_class[class.index()];
        acc.delay.push(delay);
        acc.delay_quantiles.record(delay);
        match kind {
            TxKind::Push => acc.push_delay.push(delay),
            TxKind::Pull => acc.pull_delay.push(delay),
        }
        acc.served += 1;
    }

    /// A pending request (arrived at `arrival`) was dropped by admission
    /// control.
    pub fn record_blocked(&mut self, class: ClassId, arrival: SimTime) {
        if self.measured(arrival) {
            self.per_class[class.index()].blocked += 1;
        }
    }

    /// Bulk form of [`MetricsCollector::record_blocked`] fed from a
    /// dropped entry's per-class aggregates: `counts[c]` requests of class
    /// `c` were dropped, the oldest having arrived at `first_arrival`.
    ///
    /// Returns `false` without recording when `first_arrival` precedes the
    /// warmup boundary — then the batch may straddle it and the caller
    /// must fall back to per-request attribution. In steady state this
    /// replaces the O(requesters) walk with an O(classes) update.
    pub fn record_blocked_batch(&mut self, counts: &[usize], first_arrival: SimTime) -> bool {
        if !self.measured(first_arrival) {
            return false;
        }
        for (acc, &n) in self.per_class.iter_mut().zip(counts) {
            acc.blocked += n as u64;
        }
        true
    }

    /// A whole queued item (with all its requests) was dropped.
    pub fn record_blocked_item(&mut self) {
        self.blocked_items += 1;
    }

    /// A pull request of `class` was lost on the contended uplink. Losses
    /// are channel statistics, not delay samples, so they are counted over
    /// the whole run (no warmup gating) — matching the run-wide
    /// [`SimReport::uplink_lost`] totals.
    pub fn record_uplink_lost(&mut self, class: ClassId) {
        self.uplink_lost[class.index()] += 1;
    }

    /// A pull request of `class` cleared the contended uplink after
    /// `latency` broadcast units. Like losses, deliveries are channel
    /// statistics counted over the whole run (no warmup gating).
    pub fn record_uplink_delivered(&mut self, class: ClassId, latency: f64) {
        self.uplink_delivered[class.index()] += 1;
        self.uplink_latency[class.index()].push(latency);
    }

    /// The pull queue now holds `items` distinct items / `requests` pending
    /// requests.
    pub fn queue_changed(&mut self, now: SimTime, items: usize, requests: usize) {
        self.queue_items.set(now, items as f64);
        self.queue_requests.set(now, requests as f64);
    }

    /// A transmission of `kind` started.
    pub fn on_transmission(&mut self, kind: TxKind) {
        match kind {
            TxKind::Push => self.push_transmissions += 1,
            TxKind::Pull => self.pull_transmissions += 1,
        }
    }

    /// Produces the final serializable report.
    pub fn report(&self, classes: &ClassSet, end: SimTime) -> SimReport {
        let per_class: Vec<ClassReport> = classes
            .iter()
            .map(|(id, c)| {
                let acc = &self.per_class[id.index()];
                let mean_delay = acc.delay.mean();
                let denom = acc.served + acc.blocked;
                ClassReport {
                    name: c.name.clone(),
                    priority: c.priority,
                    generated: acc.generated,
                    served: acc.served,
                    blocked: acc.blocked,
                    blocking_probability: if denom > 0 {
                        acc.blocked as f64 / denom as f64
                    } else {
                        0.0
                    },
                    delay: acc.delay.summary(),
                    delay_p50: acc.delay_quantiles.quantile(0.5),
                    delay_p95: acc.delay_quantiles.quantile(0.95),
                    delay_p99: acc.delay_quantiles.quantile(0.99),
                    push_delay: acc.push_delay.summary(),
                    pull_delay: acc.pull_delay.summary(),
                    prioritized_cost: c.priority * mean_delay,
                    uplink_lost: self.uplink_lost[id.index()],
                    uplink_delivered: self.uplink_delivered[id.index()],
                    uplink_latency: self.uplink_latency[id.index()].summary(),
                }
            })
            .collect();

        let mut overall = Welford::new();
        for acc in &self.per_class {
            overall.merge(&acc.delay);
        }
        let total_cost = per_class.iter().map(|c| c.prioritized_cost).sum();
        SimReport {
            per_class,
            overall_delay: overall.summary(),
            total_prioritized_cost: total_cost,
            // `Simulation::validate` holds horizon > warmup ≥ 0, so `end` > 0
            // and both averages exist.
            mean_queue_items: self.queue_items.time_average(end).unwrap_or(0.0),
            mean_queue_requests: self.queue_requests.time_average(end).unwrap_or(0.0),
            peak_queue_requests: self.queue_requests.peak(),
            push_transmissions: self.push_transmissions,
            pull_transmissions: self.pull_transmissions,
            blocked_items: self.blocked_items,
            uplink_lost: self.uplink_lost.clone(),
            uplink_delivered: self.uplink_delivered.clone(),
            channels: 1,
            conflicts: 0,
            conflict_rate: 0.0,
            end_time: end.as_f64(),
        }
    }
}

/// Final per-class figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassReport {
    /// Class name ("Class-A", ...).
    pub name: String,
    /// Priority weight `q_c`.
    pub priority: f64,
    /// Requests generated in the measured window.
    pub generated: u64,
    /// Requests satisfied.
    pub served: u64,
    /// Requests dropped by admission control.
    pub blocked: u64,
    /// `blocked / (served + blocked)`.
    pub blocking_probability: f64,
    /// Access-time statistics (push + pull combined), broadcast units.
    pub delay: SummaryStats,
    /// Median access time, within relative 2⁻⁷ of the exact order
    /// statistic (`sim::quantile`); `None` when the class served nothing.
    pub delay_p50: Option<f64>,
    /// 95th-percentile access time (same bound; `None` when nothing served).
    pub delay_p95: Option<f64>,
    /// 99th-percentile access time (same bound; `None` when nothing served).
    pub delay_p99: Option<f64>,
    /// Access-time statistics for push-satisfied requests.
    pub push_delay: SummaryStats,
    /// Access-time statistics for pull-satisfied requests.
    pub pull_delay: SummaryStats,
    /// `q_c × E[delay_c]` (§4.2.2).
    pub prioritized_cost: f64,
    /// Requests of this class lost on the contended uplink over the whole
    /// run (0 when the back-channel model is disabled).
    #[serde(default)]
    pub uplink_lost: u64,
    /// Requests of this class that cleared the contended uplink over the
    /// whole run (0 when the back-channel model is disabled).
    #[serde(default)]
    pub uplink_delivered: u64,
    /// Uplink latency statistics for this class's delivered requests
    /// (empty when the back-channel model is disabled).
    #[serde(default)]
    pub uplink_latency: SummaryStats,
}

/// Final system-wide figures for one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Per-class reports, highest priority first.
    pub per_class: Vec<ClassReport>,
    /// Access-time statistics over all classes.
    pub overall_delay: SummaryStats,
    /// `Σ_c q_c × E[delay_c]` — the cutoff optimizer's objective.
    pub total_prioritized_cost: f64,
    /// Time-averaged number of distinct items in the pull queue
    /// (`E[L_pull]`).
    pub mean_queue_items: f64,
    /// Time-averaged number of pending pull requests.
    pub mean_queue_requests: f64,
    /// Peak pending pull requests.
    pub peak_queue_requests: f64,
    /// Number of push transmissions performed.
    pub push_transmissions: u64,
    /// Number of pull transmissions performed.
    pub pull_transmissions: u64,
    /// Number of queued items dropped whole by admission control.
    pub blocked_items: u64,
    /// Pull requests lost on the contended uplink, per class (all zeros
    /// when the back-channel model is disabled).
    #[serde(default)]
    pub uplink_lost: Vec<u64>,
    /// Pull requests that cleared the contended uplink, per class (empty
    /// when the back-channel model is disabled or for older reports).
    #[serde(default)]
    pub uplink_delivered: Vec<u64>,
    /// Broadcast channels driven by this run (1 for the single-scheduler
    /// layouts; the shard count under `ChannelLayout::Sharded`).
    #[serde(default = "default_channels")]
    pub channels: u32,
    /// Single-tuner conflicts: times a parked push listener missed a
    /// satisfying broadcast because its tuner sat on another channel
    /// (always 0 with one channel). Counted over the whole run.
    #[serde(default)]
    pub conflicts: u64,
    /// `conflicts / (conflicts + push-served)` over the whole run — the
    /// fraction of push deliveries that cost an extra broadcast period to
    /// a mistuned client. 0 with one channel.
    #[serde(default)]
    pub conflict_rate: f64,
    /// Simulated end time (broadcast units).
    pub end_time: f64,
}

fn default_channels() -> u32 {
    1
}

impl SimReport {
    /// The report row for `class`.
    pub fn class(&self, class: ClassId) -> &ClassReport {
        &self.per_class[class.index()]
    }

    /// Mean access delay of `class` in broadcast units.
    pub fn mean_delay(&self, class: ClassId) -> f64 {
        self.per_class[class.index()].delay.mean
    }

    /// Requests satisfied across all classes.
    pub fn total_served(&self) -> u64 {
        self.per_class.iter().map(|c| c.served).sum()
    }

    /// Requests blocked across all classes.
    pub fn total_blocked(&self) -> u64 {
        self.per_class.iter().map(|c| c.blocked).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> SimTime {
        SimTime::new(x)
    }

    #[test]
    fn delays_attributed_per_class_and_kind() {
        let classes = ClassSet::paper_default();
        let mut m = MetricsCollector::new(3, SimTime::ZERO);
        m.on_request(ClassId(0), t(1.0));
        m.record_served(ClassId(0), TxKind::Push, t(1.0), t(4.0));
        m.on_request(ClassId(2), t(2.0));
        m.record_served(ClassId(2), TxKind::Pull, t(2.0), t(10.0));
        let r = m.report(&classes, t(10.0));
        assert_eq!(r.mean_delay(ClassId(0)), 3.0);
        assert_eq!(r.mean_delay(ClassId(2)), 8.0);
        assert_eq!(r.class(ClassId(0)).push_delay.count, 1);
        assert_eq!(r.class(ClassId(0)).pull_delay.count, 0);
        assert_eq!(r.class(ClassId(2)).pull_delay.count, 1);
    }

    #[test]
    fn warmup_discards_early_samples() {
        let classes = ClassSet::paper_default();
        let mut m = MetricsCollector::new(3, t(100.0));
        m.on_request(ClassId(0), t(50.0));
        m.record_served(ClassId(0), TxKind::Push, t(50.0), t(60.0));
        m.record_blocked(ClassId(0), t(50.0));
        let r = m.report(&classes, t(200.0));
        assert_eq!(r.class(ClassId(0)).generated, 0);
        assert_eq!(r.class(ClassId(0)).served, 0);
        assert_eq!(r.class(ClassId(0)).blocked, 0);
        // post-warmup sample counts
        let mut m2 = MetricsCollector::new(3, t(100.0));
        m2.on_request(ClassId(0), t(150.0));
        m2.record_served(ClassId(0), TxKind::Push, t(150.0), t(160.0));
        let r2 = m2.report(&classes, t(200.0));
        assert_eq!(r2.class(ClassId(0)).served, 1);
    }

    #[test]
    fn prioritized_cost_is_weighted_delay() {
        let classes = ClassSet::paper_default();
        let mut m = MetricsCollector::new(3, SimTime::ZERO);
        m.record_served(ClassId(0), TxKind::Pull, t(0.0), t(5.0)); // delay 5, q=3
        m.record_served(ClassId(2), TxKind::Pull, t(0.0), t(40.0)); // delay 40, q=1
        let r = m.report(&classes, t(40.0));
        assert!((r.class(ClassId(0)).prioritized_cost - 15.0).abs() < 1e-12);
        assert!((r.class(ClassId(2)).prioritized_cost - 40.0).abs() < 1e-12);
        assert!((r.total_prioritized_cost - 55.0).abs() < 1e-12);
    }

    #[test]
    fn blocking_probability_from_counts() {
        let classes = ClassSet::paper_default();
        let mut m = MetricsCollector::new(3, SimTime::ZERO);
        m.record_served(ClassId(1), TxKind::Pull, t(0.0), t(1.0));
        m.record_blocked(ClassId(1), t(0.5));
        m.record_blocked(ClassId(1), t(0.6));
        let r = m.report(&classes, t(10.0));
        assert!((r.class(ClassId(1)).blocking_probability - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.total_blocked(), 2);
    }

    #[test]
    fn queue_time_averages() {
        let classes = ClassSet::paper_default();
        let mut m = MetricsCollector::new(3, SimTime::ZERO);
        m.queue_changed(t(0.0), 0, 0);
        m.queue_changed(t(5.0), 2, 6); // 0 items for 5u, then 2 items for 5u
        let r = m.report(&classes, t(10.0));
        assert!((r.mean_queue_items - 1.0).abs() < 1e-12);
        assert!((r.mean_queue_requests - 3.0).abs() < 1e-12);
        assert_eq!(r.peak_queue_requests, 6.0);
    }

    #[test]
    fn transmission_counters() {
        let classes = ClassSet::paper_default();
        let mut m = MetricsCollector::new(3, SimTime::ZERO);
        m.on_transmission(TxKind::Push);
        m.on_transmission(TxKind::Push);
        m.on_transmission(TxKind::Pull);
        let r = m.report(&classes, t(1.0));
        assert_eq!(r.push_transmissions, 2);
        assert_eq!(r.pull_transmissions, 1);
    }

    #[test]
    fn tail_percentiles_are_ordered() {
        let classes = ClassSet::paper_default();
        let mut m = MetricsCollector::new(3, SimTime::ZERO);
        // a spread of delays: 1..=1000
        for i in 1..=1000 {
            m.record_served(ClassId(0), TxKind::Pull, t(0.0), t(i as f64));
        }
        let r = m.report(&classes, t(1000.0));
        let c = r.class(ClassId(0));
        // 500 sits on a bucket edge (width 2 in [256, 512)); the exact p95
        // and p99, 950 and 990, report the edges below them (width 4)
        assert_eq!(c.delay_p50, Some(500.0));
        assert_eq!(c.delay_p95, Some(948.0));
        assert_eq!(c.delay_p99, Some(988.0));
        assert_eq!(r.class(ClassId(1)).delay_p50, None, "served nothing");
    }

    #[test]
    fn overall_delay_merges_classes() {
        let classes = ClassSet::paper_default();
        let mut m = MetricsCollector::new(3, SimTime::ZERO);
        m.record_served(ClassId(0), TxKind::Push, t(0.0), t(2.0));
        m.record_served(ClassId(2), TxKind::Push, t(0.0), t(6.0));
        let r = m.report(&classes, t(6.0));
        assert_eq!(r.overall_delay.count, 2);
        assert!((r.overall_delay.mean - 4.0).abs() < 1e-12);
    }

    #[test]
    fn uplink_deliveries_and_latency_surface_per_class() {
        let classes = ClassSet::paper_default();
        let mut m = MetricsCollector::new(3, t(100.0));
        // Channel statistics ignore warmup: these land before t = 100.
        m.record_uplink_delivered(ClassId(0), 0.1);
        m.record_uplink_delivered(ClassId(0), 0.3);
        m.record_uplink_delivered(ClassId(2), 0.5);
        m.record_uplink_lost(ClassId(1));
        let r = m.report(&classes, t(200.0));
        assert_eq!(r.class(ClassId(0)).uplink_delivered, 2);
        assert_eq!(r.class(ClassId(1)).uplink_delivered, 0);
        assert_eq!(r.class(ClassId(2)).uplink_delivered, 1);
        assert!((r.class(ClassId(0)).uplink_latency.mean - 0.2).abs() < 1e-12);
        assert_eq!(r.class(ClassId(0)).uplink_latency.count, 2);
        assert_eq!(r.uplink_delivered, vec![2, 0, 1]);
        assert_eq!(r.class(ClassId(1)).uplink_lost, 1);
    }

    #[test]
    fn report_serde_round_trip() {
        let classes = ClassSet::paper_default();
        let mut m = MetricsCollector::new(3, SimTime::ZERO);
        m.record_served(ClassId(0), TxKind::Pull, t(0.0), t(3.0));
        let r = m.report(&classes, t(5.0));
        let js = serde_json::to_string(&r).unwrap();
        let back: SimReport = serde_json::from_str(&js).unwrap();
        assert_eq!(back, r);
    }
}
