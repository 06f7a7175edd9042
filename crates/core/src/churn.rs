//! Client churn — the paper's motivating metric, made measurable.
//!
//! Section 1: "As the dissatisfaction crosses the tolerance limit, the
//! clients might switch the service provider. … The more important the
//! client is, the more adverse is the corresponding effect of churning."
//! The paper never simulates churn; this module closes that loop.
//!
//! Model: a finite [`ClientPool`] generates the demand. Every satisfied
//! request updates the requesting client's exponential moving average of
//! access delay; a blocked request counts as a penalized sample. Once a
//! client has seen at least `grace_samples` requests and its EMA exceeds
//! its class's `tolerance`, it **departs** — and generates no further
//! demand (the Poisson stream is thinned by attribution: requests drawn
//! for a fully-churned class are lost demand).
//!
//! The model is optional state on the simulation driver
//! ([`Simulation::churn`](crate::sim_driver::Simulation)), like the
//! adaptive controller and the uplink, so a churn run is an ordinary run:
//! contended uplink, nonstationary scenarios, uplink/surge/departure
//! faults, the horizon census and the queue audit all apply. It needs a
//! static cutoff and the paper's one interleaved channel
//! (`Simulation::validate` says so).
//!
//! The headline output is the **priority-weighted retention**
//! `Σ_c q_c·alive_c / Σ_c q_c·total_c` — a revenue proxy that makes the
//! paper's "reducing their churn-rate \[increases\] profit of the service
//! providers" claim quantitative.

use serde::{Deserialize, Serialize};

use hybridcast_sim::ensure;
use hybridcast_sim::rng::{RngFactory, Xoshiro256};
use hybridcast_sim::time::SimTime;
use hybridcast_telemetry::{emit, Sink, TelemetryEvent};
use hybridcast_workload::catalog::ItemId;
use hybridcast_workload::classes::{ClassId, ClassSet};
use hybridcast_workload::clients::{ClientId, ClientPool};
use hybridcast_workload::scenario::Scenario;

use crate::metrics::{SimReport, TxKind};
use crate::queue::PendingItem;
use crate::sim_driver::SimRun;

/// RNG stream id for client attribution (disjoint from
/// `hybridcast_sim::rng::streams`).
const CLIENT_STREAM: u64 = 6;

/// Parameters of the churn model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Total subscribers across all classes (split by population share).
    pub total_clients: usize,
    /// Per-class EMA-delay tolerance, highest-priority class first.
    /// Premium clients are typically the least tolerant.
    pub tolerance: Vec<f64>,
    /// EMA smoothing weight of the newest delay sample.
    pub ema_alpha: f64,
    /// Minimum satisfied requests before a client may churn.
    pub grace_samples: u64,
    /// A blocked request counts as a delay sample of
    /// `blocked_penalty × tolerance` (dissatisfaction shock).
    pub blocked_penalty: f64,
    /// Whether broadcast (push) delays also feed the dissatisfaction EMA.
    /// Default `false`: the cyclic schedule is predictable, so perceived
    /// service quality is driven by on-demand (pull) waits and blocking.
    #[serde(default)]
    pub observe_push: bool,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            total_clients: 110,
            tolerance: vec![130.0, 150.0, 180.0],
            ema_alpha: 0.05,
            grace_samples: 20,
            blocked_penalty: 2.0,
            observe_push: false,
        }
    }
}

impl ChurnConfig {
    /// The config's own preconditions, for a scenario with `num_classes`
    /// service classes.
    pub(crate) fn validate(&self, num_classes: usize) -> Result<(), String> {
        let given = self.tolerance.len();
        ensure(
            given == num_classes,
            format_args!("need one tolerance per class ({given} given, {num_classes} classes)"),
        )?;
        ensure(
            self.ema_alpha > 0.0 && self.ema_alpha <= 1.0,
            "ema_alpha must lie in (0, 1]",
        )?;
        ensure(self.blocked_penalty >= 1.0, "penalty must be ≥ 1")
    }
}

/// Result of a churn run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// The usual QoS report (over satisfied requests).
    pub report: SimReport,
    /// Fraction of each class that churned by the horizon.
    pub churn_per_class: Vec<f64>,
    /// Alive subscribers per class at the horizon.
    pub alive_per_class: Vec<usize>,
    /// `Σ_c q_c·alive_c / Σ_c q_c·total_c` — the revenue proxy.
    pub weighted_retention: f64,
    /// Total departures.
    pub departures: u64,
    /// Requests lost because their class had fully churned.
    pub lost_demand: u64,
}

/// What the churn model adds to a run's outcome; [`ChurnReport`] is this
/// next to the run's [`SimReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// Fraction of each class that churned by the horizon.
    pub churn_per_class: Vec<f64>,
    /// Alive subscribers per class at the horizon.
    pub alive_per_class: Vec<usize>,
    /// `Σ_c q_c·alive_c / Σ_c q_c·total_c`.
    pub weighted_retention: f64,
    /// Total departures.
    pub departures: u64,
    /// Requests lost because their class had fully churned.
    pub lost_demand: u64,
}

impl From<SimRun> for ChurnReport {
    /// # Panics
    /// Panics if the run had no churn model attached.
    fn from(run: SimRun) -> Self {
        let churn = run.churn.expect("the run had no churn model attached");
        ChurnReport {
            report: run.report,
            churn_per_class: churn.churn_per_class,
            alive_per_class: churn.alive_per_class,
            weighted_retention: churn.weighted_retention,
            departures: churn.departures,
            lost_demand: churn.lost_demand,
        }
    }
}

/// The client id carried by requests of a run without the churn model.
pub(crate) const NO_CLIENT: ClientId = ClientId(u32::MAX);

/// The churn model's per-run state: optional state on the simulation
/// driver, like the adaptive controller and the uplink. The driver tells
/// it which client each request belongs to and what happened to the
/// request; it keeps the pool, the dissatisfaction EMAs and the tallies.
pub(crate) struct ChurnState {
    cfg: ChurnConfig,
    pool: ClientPool,
    rng: Xoshiro256,
    /// Client ids of queued pull requests, per item, in insertion order
    /// (parallel to the queue entry's `requesters`).
    pull_clients: Vec<Vec<ClientId>>,
    /// Clients of the pull batch on the air (one channel ⇒ at most one
    /// batch). Moved here at dispatch — the queue entry is removed at
    /// selection, so requests arriving mid-transmission start a fresh
    /// per-item list.
    in_flight: Vec<ClientId>,
    departures: u64,
    lost_demand: u64,
}

impl ChurnState {
    pub(crate) fn new(cfg: &ChurnConfig, scenario: &Scenario, factory: &RngFactory) -> Self {
        ChurnState {
            cfg: cfg.clone(),
            pool: ClientPool::new(&scenario.classes, cfg.total_clients),
            rng: factory.stream(CLIENT_STREAM),
            pull_clients: vec![Vec::new(); scenario.catalog.len()],
            in_flight: Vec::new(),
            departures: 0,
            lost_demand: 0,
        }
    }

    /// Attributes a drawn request to a living subscriber of its class. A
    /// fully-churned class generates nothing: the draw is lost demand and
    /// never becomes an arrival.
    pub(crate) fn attribute(&mut self, class: ClassId) -> Option<ClientId> {
        let client = self.pool.sample_alive(class, &mut self.rng);
        if client.is_none() {
            self.lost_demand += 1;
        }
        client
    }

    /// `client`'s request for `item` entered the pull queue.
    pub(crate) fn queued(&mut self, item: ItemId, client: ClientId) {
        self.pull_clients[item.index()].push(client);
    }

    /// A pull transmission of `item` serving `batch` requests went on air.
    pub(crate) fn on_air(&mut self, item: ItemId, batch: usize) {
        self.in_flight = std::mem::take(&mut self.pull_clients[item.index()]);
        debug_assert_eq!(self.in_flight.len(), batch);
    }

    /// The client behind the `i`-th request of the batch on the air.
    pub(crate) fn in_flight(&self, i: usize) -> ClientId {
        self.in_flight[i]
    }

    /// `client` was served after `delay`. Broadcast waits feed the EMA only
    /// with `observe_push` on.
    pub(crate) fn served<S: Sink>(
        &mut self,
        sink: &mut S,
        now: SimTime,
        kind: TxKind,
        client: ClientId,
        class: ClassId,
        delay: f64,
    ) {
        if kind == TxKind::Pull || self.cfg.observe_push {
            self.sample(sink, now, client, class, delay);
        }
    }

    /// Admission control dropped `entry`: every requester takes the
    /// blocked-request penalty sample.
    pub(crate) fn blocked<S: Sink>(&mut self, sink: &mut S, now: SimTime, entry: &PendingItem) {
        let clients = std::mem::take(&mut self.pull_clients[entry.item.index()]);
        debug_assert_eq!(clients.len(), entry.requesters.len());
        for (&(_, class), client) in entry.requesters.iter().zip(clients) {
            let penalty = self.cfg.blocked_penalty * self.cfg.tolerance[class.index()];
            self.sample(sink, now, client, class, penalty);
        }
    }

    fn sample<S: Sink>(
        &mut self,
        sink: &mut S,
        now: SimTime,
        client: ClientId,
        class: ClassId,
        delay: f64,
    ) {
        let ema = self.pool.record_delay(client, delay, self.cfg.ema_alpha);
        let c = self.pool.client(client);
        if !c.departed
            && c.samples >= self.cfg.grace_samples
            && ema > self.cfg.tolerance[class.index()]
        {
            self.pool.depart(client);
            self.departures += 1;
            emit(sink, || TelemetryEvent::ChurnEvent {
                time: now,
                class,
                client: client.0,
            });
        }
    }

    pub(crate) fn outcome(self, classes: &ClassSet) -> ChurnOutcome {
        let churn_per_class = classes.ids().map(|c| self.pool.churn_rate(c)).collect();
        let alive_per_class: Vec<usize> =
            classes.ids().map(|c| self.pool.alive_in_class(c)).collect();
        let (mut num, mut den) = (0.0, 0.0);
        for (id, class) in classes.iter() {
            num += class.priority * alive_per_class[id.index()] as f64;
            den += class.priority * self.pool.total_in_class(id) as f64;
        }
        ChurnOutcome {
            churn_per_class,
            alive_per_class,
            weighted_retention: num / den,
            departures: self.departures,
            lost_demand: self.lost_demand,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HybridConfig;
    use crate::sim_driver::{SimParams, Simulation};
    use hybridcast_telemetry::NullSink;
    use hybridcast_workload::scenario::ScenarioConfig;

    fn run(alpha: f64, tolerance: Vec<f64>) -> ChurnReport {
        run_at(alpha, tolerance, 6_000.0)
    }

    fn run_at(alpha: f64, tolerance: Vec<f64>, horizon: f64) -> ChurnReport {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let cfg = HybridConfig::paper(40, alpha);
        let churn = ChurnConfig {
            tolerance,
            ..ChurnConfig::default()
        };
        let params = SimParams {
            horizon,
            warmup: 0.0,
            replication: 0,
        };
        Simulation {
            churn: Some(&churn),
            ..Simulation::new(&scenario, &cfg, &params)
        }
        .run(&mut NullSink)
        .into()
    }

    #[test]
    fn generous_tolerances_mean_no_churn() {
        let r = run(0.25, vec![1e6, 1e6, 1e6]);
        assert_eq!(r.departures, 0);
        assert_eq!(r.weighted_retention, 1.0);
        assert!(r.churn_per_class.iter().all(|&x| x == 0.0));
        assert_eq!(r.lost_demand, 0);
    }

    #[test]
    fn impossible_tolerances_churn_everyone() {
        let r = run(0.25, vec![0.1, 0.1, 0.1]);
        // grace still applies, but every sample exceeds the tolerance
        assert!(
            r.weighted_retention < 0.05,
            "retention {}",
            r.weighted_retention
        );
        assert!(r.lost_demand > 0, "dead classes must stop generating");
    }

    #[test]
    fn priority_scheduling_protects_premium_subscribers() {
        // Tolerances sit between the per-class delays achieved at α = 0,
        // so the scheduler's differentiation decides who stays.
        let tol = vec![130.0, 150.0, 180.0];
        let with_priority = run_at(0.0, tol.clone(), 10_000.0);
        let without = run_at(1.0, tol, 10_000.0);
        assert!(
            with_priority.churn_per_class[0] < without.churn_per_class[0],
            "A churn: α=0 {:.2} vs α=1 {:.2}",
            with_priority.churn_per_class[0],
            without.churn_per_class[0]
        );
        assert!(
            with_priority.weighted_retention > without.weighted_retention,
            "retention: α=0 {:.3} vs α=1 {:.3}",
            with_priority.weighted_retention,
            without.weighted_retention
        );
    }

    #[test]
    fn report_is_consistent() {
        let r = run(0.5, vec![90.0, 105.0, 130.0]);
        assert_eq!(r.churn_per_class.len(), 3);
        let total_alive: usize = r.alive_per_class.iter().sum();
        assert_eq!(
            total_alive as u64 + r.departures,
            110,
            "alive + departed must equal the population"
        );
        assert!((0.0..=1.0).contains(&r.weighted_retention));
    }

    #[test]
    fn deterministic() {
        let a = run(0.5, vec![90.0, 105.0, 130.0]);
        let b = run(0.5, vec![90.0, 105.0, 130.0]);
        assert_eq!(a, b);
    }

    /// What the churn driver of old could not check: with the model riding
    /// on the one event loop, the horizon census and the queue audit cover
    /// churn runs too. Lost demand is never an arrival, so the books close
    /// without it.
    #[test]
    fn books_close_at_the_horizon_and_the_queue_audit_is_empty() {
        use crate::bandwidth::BandwidthConfig;
        use crate::sim_driver::FaultSpec;
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        // Starved admission control: requests get blocked, the penalty
        // samples drive whole classes out, and their demand is lost.
        let cfg = HybridConfig {
            bandwidth: BandwidthConfig::per_class(3.0, 3.0),
            ..HybridConfig::paper(40, 0.5)
        };
        let churn = ChurnConfig {
            tolerance: vec![90.0, 105.0, 130.0],
            ..ChurnConfig::default()
        };
        let params = SimParams {
            horizon: 3_000.0,
            warmup: 0.0,
            replication: 0,
        };
        let faults = [FaultSpec::MassDeparture {
            time: 200.0,
            fraction: 0.5,
        }];
        let out = Simulation {
            churn: Some(&churn),
            faults: &faults,
            audit_queue: true,
            ..Simulation::new(&scenario, &cfg, &params)
        }
        .run(&mut NullSink);
        assert!(out.queue_audit.is_empty(), "{:?}", out.queue_audit);
        assert!(out.report.total_blocked() > 0);
        assert!(out.census.departed.iter().sum::<u64>() > 0);
        assert!(out.churn.as_ref().unwrap().lost_demand > 0);
        for (c, pc) in out.report.per_class.iter().enumerate() {
            assert_eq!(
                pc.generated,
                pc.served + pc.blocked + out.census.per_class(c),
                "class {c}: arrivals vs served + blocked + pending + departed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one tolerance per class")]
    fn tolerance_arity_checked() {
        let _ = run(0.5, vec![90.0]);
    }
}
