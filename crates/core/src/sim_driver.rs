//! The end-to-end event-driven simulation (§5 of the paper).
//!
//! Wires a [`Scenario`] (catalog + classes + Poisson request stream) to
//! the [`HybridScheduler`] shards of a channel layout on top of the
//! `hybridcast-sim` engine and measures per-class QoS:
//!
//! * **arrival events** feed the scheduler; requests for push items park in
//!   a per-item waiting room, requests for pull items join the pull queue;
//! * the server is always transmitting (push slots alternate with pull
//!   slots per Fig. 1); each transmission occupies the downlink for the
//!   item's length in broadcast units;
//! * when a **push** transmission completes, every waiter that arrived
//!   before the transmission *started* is satisfied (a client that tunes in
//!   mid-transmission must wait for the next cycle);
//! * when a **pull** transmission completes, the batch of requests captured
//!   at selection time is satisfied;
//! * items dropped by bandwidth admission count as blocked for every
//!   pending requester.
//!
//! Delay = request arrival → completion of the satisfying transmission,
//! i.e. the paper's *access time*.
//!
//! [`Simulation`] is the one way in and one `Driver` handles the one
//! `Engine<Event>`: adaptive cutoff, uplink and churn are `Option` state on
//! it. [`simulate`] and [`simulate_telemetry`] are shorthands for the plain
//! run.

use serde::{Deserialize, Serialize};

use hybridcast_sim::engine::Engine;
use hybridcast_sim::ensure;
use hybridcast_sim::time::{SimDuration, SimTime};
use hybridcast_workload::classes::ClassId;
use hybridcast_workload::requests::RequestSource;
use hybridcast_workload::scenario::Scenario;

use crate::adaptive::{ControllerConfig, CutoffController};
use crate::churn::{ChurnConfig, ChurnOutcome, ChurnState, NO_CLIENT};
use crate::config::{HybridConfig, Role};
use crate::experiment::rank;
use crate::hybrid::{HybridScheduler, Transmission};
use crate::metrics::{MetricsCollector, SimReport, TxKind};
use crate::pull::PullPolicy;
use crate::sharded::{build_shards, ChannelPlan};
use crate::transmitters::{self, Transmitters};
use crate::uplink::{UplinkChannel, UplinkOutcome, UPLINK_STREAM};
use hybridcast_analysis::hybrid_model::HybridDelayModel;
use hybridcast_telemetry::{
    emit, FeedbackWindow, NullSink, ServiceKind, Sink, TelemetryConfig, TelemetryEvent, TimeSeries,
    WindowRecorder,
};
use hybridcast_workload::catalog::ItemId;
use hybridcast_workload::clients::ClientId;
use hybridcast_workload::requests::Request;
use hybridcast_workload::requests::{SurgeSource, SurgeWindow};

/// Run-length parameters of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimParams {
    /// Simulated horizon in broadcast units.
    pub horizon: f64,
    /// Samples from requests arriving before this instant are discarded.
    pub warmup: f64,
    /// Replication index (selects an independent random-stream family).
    pub replication: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            horizon: 20_000.0,
            warmup: 2_000.0,
            replication: 0,
        }
    }
}

impl SimParams {
    /// Short runs for tests and smoke benches.
    pub fn quick() -> Self {
        SimParams {
            horizon: 4_000.0,
            warmup: 500.0,
            replication: 0,
        }
    }

    /// Returns a copy with the given replication index.
    pub fn with_replication(&self, r: u64) -> Self {
        SimParams {
            replication: r,
            ..*self
        }
    }
}

#[derive(Debug)]
enum Event {
    /// The next request (already staged in the generator) arrives. Always
    /// in the engine's staged slot, never on its heap.
    Arrival,
    /// A pull request finishes crossing the contended uplink and reaches
    /// the server (the `Request` keeps its original arrival time; the
    /// client is [`NO_CLIENT`] without the churn model).
    Deliver(Request, ClientId),
    /// The transmission in `Driver::on_air[slot]` finishes. The
    /// transmission, batch included, stays in the slot, so every heap move
    /// copies a small record.
    Complete(u32),
    /// Periodic cutoff re-optimization (adaptive mode only).
    Retune,
    /// An injected fault fires (testing harness only).
    Fault(FaultAction),
}

/// One mid-run perturbation injected by the simulation-testing harness
/// (see [`Simulation::faults`]). Faults model environmental stress — the
/// scheduler is expected to keep every accounting invariant and degrade
/// gracefully, never panic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "fault", rename_all = "snake_case")]
pub enum FaultSpec {
    /// The back-channel success probability drops to `success_prob` over
    /// `[start, start + duration)`, then reverts (a collision storm).
    /// Ignored when the run has no uplink model.
    UplinkBurst {
        /// Burst start, broadcast units.
        start: f64,
        /// Burst length, broadcast units.
        duration: f64,
        /// Degraded per-attempt success probability, in `(0, 1]`.
        success_prob: f64,
    },
    /// The aggregate arrival rate is multiplied by `factor` over
    /// `[start, start + duration)` — `> 1` is a flash crowd, `< 1` is
    /// mass client churn thinning the demand.
    ArrivalSurge {
        /// Window start, broadcast units.
        start: f64,
        /// Window length, broadcast units.
        duration: f64,
        /// Rate multiplier, positive and finite.
        factor: f64,
    },
    /// At `time`, `fraction` of every item's parked broadcast listeners
    /// walk away (oldest first); they are never served and show up in the
    /// census as departed.
    MassDeparture {
        /// Departure instant, broadcast units.
        time: f64,
        /// Fraction of waiters leaving, in `[0, 1]`.
        fraction: f64,
    },
    /// At `time`, the cutoff is forced to `k` (clamped to the catalog
    /// size), exercising the migration path outside the adaptive
    /// controller's control loop.
    ForceCutoff {
        /// Move instant, broadcast units.
        time: f64,
        /// Forced cutoff.
        k: usize,
    },
}

impl FaultSpec {
    fn validate(&self) -> Result<(), String> {
        let instant = |t: f64, what| ensure(t.is_finite() && t >= 0.0, what);
        let span = |d: f64, what| ensure(d.is_finite() && d > 0.0, what);
        match *self {
            FaultSpec::UplinkBurst {
                start,
                duration,
                success_prob,
            } => {
                instant(start, "uplink burst start must be ≥ 0")?;
                span(duration, "uplink burst duration must be positive")?;
                ensure(
                    success_prob > 0.0 && success_prob <= 1.0,
                    "degraded success probability must lie in (0, 1]",
                )
            }
            FaultSpec::ArrivalSurge {
                start,
                duration,
                factor,
            } => {
                instant(start, "surge start must be ≥ 0")?;
                span(duration, "surge duration must be positive")?;
                span(factor, "surge factor must be positive and finite")
            }
            FaultSpec::MassDeparture { time, fraction } => {
                instant(time, "departure time must be ≥ 0")?;
                ensure(
                    (0.0..=1.0).contains(&fraction),
                    "departure fraction must lie in [0, 1]",
                )
            }
            FaultSpec::ForceCutoff { time, .. } => instant(time, "cutoff-force time must be ≥ 0"),
        }
    }
}

/// The driver-side action a [`FaultSpec`] expands to (surges act on the
/// request source instead and never reach the event loop).
#[derive(Debug, Clone, Copy, PartialEq)]
enum FaultAction {
    SetUplink(f64),
    RestoreUplink,
    MassDeparture(f64),
    ForceCutoff(usize),
}

/// Per-class head-count of every request the system still holds at the
/// horizon, split by where it is parked. Together with the served /
/// blocked / uplink-lost tallies this closes the conservation identity
///
/// `arrivals = served + blocked + uplink_lost + pending + departed`
///
/// exactly (no "± in-flight slack"), which is what the testkit's
/// conservation oracle checks. All vectors are indexed by class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingCensus {
    /// Requests waiting in the pull queue.
    pub queued: Vec<u64>,
    /// Clients parked in a push item's waiting room.
    pub waiting_push: Vec<u64>,
    /// Requests still crossing the contended uplink.
    pub uplink_in_flight: Vec<u64>,
    /// Requests captured by a transmission still on the air.
    pub in_service: Vec<u64>,
    /// Listeners removed by an injected [`FaultSpec::MassDeparture`].
    pub departed: Vec<u64>,
    /// The channel-side marginal of the same census: total still-held
    /// (or departed) requests per broadcast channel. One entry outside
    /// the sharded layout; empty in pre-sharding serialized data.
    #[serde(default)]
    pub per_channel: Vec<u64>,
}

impl PendingCensus {
    fn new(classes: usize, channels: usize) -> Self {
        PendingCensus {
            queued: vec![0; classes],
            waiting_push: vec![0; classes],
            uplink_in_flight: vec![0; classes],
            in_service: vec![0; classes],
            departed: vec![0; classes],
            per_channel: vec![0; channels],
        }
    }

    /// Requests of class `c` the system still holds (or dropped via
    /// departure faults) at the horizon.
    pub fn per_class(&self, c: usize) -> u64 {
        self.queued[c]
            + self.waiting_push[c]
            + self.uplink_in_flight[c]
            + self.in_service[c]
            + self.departed[c]
    }

    /// Total outstanding requests across all classes.
    pub fn total(&self) -> u64 {
        (0..self.queued.len()).map(|c| self.per_class(c)).sum()
    }
}

/// Everything one [`Simulation::run`] produces: the ordinary report plus
/// the horizon census, the retune ledger and the queue shadow-recount
/// audit trail. [`AdaptiveReport`] and [`crate::churn::ChurnReport`] are
/// the serialized slices of it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    /// The standard per-class/system report.
    pub report: SimReport,
    /// Where every still-pending request was parked at the horizon.
    pub census: PendingCensus,
    /// Cutoff moves (adaptive runs only).
    pub retunes: Vec<RetuneRecord>,
    /// The cutoff in force at the horizon.
    pub final_k: usize,
    /// Discrepancies found by [`crate::queue::PullQueue::verify_shadow`]
    /// at audit points (fault applications, retunes, horizon). Empty on a
    /// healthy run, and always empty without [`Simulation::audit_queue`].
    pub queue_audit: Vec<String>,
    /// Who left (churn runs only).
    pub churn: Option<ChurnOutcome>,
}

/// Configuration of the paper's periodic cutoff re-optimization ("the
/// algorithm is executed for different cutoff-points and obtains the
/// optimal cutoff-point", §3), run *inside* a single simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Re-optimization period in broadcast units.
    pub period: f64,
    /// Candidate cutoffs evaluated at each retune.
    pub candidate_ks: Vec<usize>,
    /// Laplace smoothing added to each item's request count before the
    /// popularity estimate is formed.
    pub smoothing: f64,
    /// When `true`, the controller also *re-ranks*: the push set becomes
    /// the top-K items by estimated popularity instead of the static rank
    /// prefix — the abstract's "dynamically computes the data access
    /// probabilities". Essential under popularity drift.
    #[serde(default)]
    pub rerank: bool,
    /// When set, the *measured-feedback* controller
    /// (`adaptive::CutoffController`) replaces the model-argmin
    /// retune: `K` moves by hysteresis-banded hill climbing on the
    /// windowed prioritized cost instead of by re-solving the analytic
    /// model. `None` (the default, and what every pre-existing config
    /// deserializes to) keeps the original open-loop path bit-identical.
    /// Skipped when absent so pre-existing configs re-serialize to the
    /// same canonical JSON.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub controller: Option<ControllerConfig>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            period: 2_000.0,
            candidate_ks: (10..=90).step_by(10).collect(),
            smoothing: 0.5,
            rerank: false,
            controller: None,
        }
    }
}

/// One executed cutoff move.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetuneRecord {
    /// When the retune fired.
    pub time: f64,
    /// Cutoff before.
    pub from_k: usize,
    /// Cutoff after (may equal `from_k` when the incumbent stays optimal).
    pub to_k: usize,
    /// The arrival rate estimated over the last window.
    pub estimated_lambda: f64,
    /// Measured prioritized cost the decision was taken on
    /// (measured-feedback controller only; the model-argmin path records
    /// `None`).
    #[serde(default)]
    pub measured_cost: Option<f64>,
    /// Arrivals in the window the decision was taken on.
    #[serde(default)]
    pub window_arrivals: u64,
    /// The controller's SLO rescue path fired (a starved class forced the
    /// cutoff upward, overriding the hill climb).
    #[serde(default)]
    pub slo_rescue: bool,
    /// The decision held the incumbent cutoff (inside the hysteresis
    /// band, idle window, or clamped at the band edge).
    #[serde(default)]
    pub held: bool,
}

/// Result of an adaptive run: the usual report plus the cutoff trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveReport {
    /// Standard per-class/system report over the whole run.
    pub report: SimReport,
    /// Every retune decision, in time order.
    pub retunes: Vec<RetuneRecord>,
    /// The cutoff in force at the horizon.
    pub final_k: usize,
}

impl From<SimRun> for AdaptiveReport {
    fn from(run: SimRun) -> Self {
        AdaptiveReport {
            report: run.report,
            retunes: run.retunes,
            final_k: run.final_k,
        }
    }
}

struct AdaptiveState {
    config: AdaptiveConfig,
    /// Importance blend of the configured pull policy (feeds the model).
    alpha: f64,
    window_counts: Vec<u64>,
    retunes: Vec<RetuneRecord>,
    /// Present when `config.controller` is set: the measured-feedback
    /// control loop and its per-window measurement seam.
    controller: Option<CutoffController>,
    feedback: FeedbackWindow,
}

/// One client parked in a push item's waiting room.
#[derive(Debug, Clone, Copy)]
struct PushWaiter {
    arrival: SimTime,
    /// [`NO_CLIENT`] without the churn model.
    client: ClientId,
    class: ClassId,
    /// Sharded layout, single-tuner clients: the client's tuner was on
    /// another channel when it arrived, so it misses the first broadcast
    /// of its item (one conflict) before being servable. Always `false`
    /// outside the sharded layout.
    mistuned: bool,
}

// One waiter per parked request: the client id rides in what was padding.
const _: () = assert!(std::mem::size_of::<PushWaiter>() == 16);
// Events carry no transmission: a heap entry is 40 bytes, not ~150.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

struct Driver<'s, S: Sink> {
    /// One scheduler per shard, in shard order (see [`build_shards`]).
    shards: Vec<HybridScheduler>,
    /// The item→shard map.
    plan: ChannelPlan,
    /// The transmitter plan: slot `i` airs for `roles[i]`.
    roles: Vec<Role>,
    metrics: MetricsCollector,
    gen: Box<dyn RequestSource>,
    /// Per push-item waiting room of listening clients.
    push_waiters: Vec<Vec<PushWaiter>>,
    /// What each transmitter has on the air; `None` is an idle
    /// transmitter. A slot is `Some` exactly while its `Event::Complete`
    /// is pending.
    on_air: Vec<Option<Transmission>>,
    /// Present when running with periodic cutoff re-optimization.
    adaptive: Option<AdaptiveState>,
    /// Present when the back-channel contention model is enabled.
    uplink: Option<UplinkChannel>,
    /// Present when the finite-population churn model is attached.
    churn: Option<ChurnState>,
    /// Scratch buffer for per-class counts of dropped entries.
    class_counts_buf: Vec<usize>,
    /// The configured uplink success probability, restored when an
    /// injected loss burst ends.
    base_uplink_prob: Option<f64>,
    /// Per-class listeners removed by injected mass-departure faults.
    departed: Vec<u64>,
    /// The same departures, tallied per channel (for the per-channel
    /// conservation identity).
    departed_by_channel: Vec<u64>,
    /// Deterministic single-tuner model: the channel an arriving client's
    /// tuner sits on cycles through `0..C`.
    tuner_counter: u64,
    /// Broadcasts missed by mistuned listeners (whole run, no warmup
    /// gating — a channel statistic like uplink losses).
    conflicts: u64,
    /// Push deliveries over the whole run (the conflict-rate denominator).
    push_served_raw: u64,
    /// Shadow-recount discrepancies collected at audit points.
    audit: Vec<String>,
    /// When `true`, the pull queue's aggregates are shadow-recounted at
    /// every fault application, retune, and at the horizon.
    audit_queue: bool,
    /// Telemetry destination; `NullSink` monomorphizes every guarded
    /// emission away.
    sink: &'s mut S,
}

impl<S: Sink> Driver<'_, S> {
    fn record_queue(&mut self, now: SimTime) {
        let items: usize = self.shards.iter().map(|s| s.queue().len()).sum();
        let requests: usize = self.shards.iter().map(|s| s.queue().total_requests()).sum();
        self.metrics.queue_changed(now, items, requests);
        emit(self.sink, || TelemetryEvent::QueueGauge {
            time: now,
            items: items as u32,
            requests: requests as u32,
        });
    }

    fn record_dropped(
        &mut self,
        dropped: Vec<crate::queue::PendingItem>,
        now: SimTime,
        shard: u32,
    ) {
        if dropped.is_empty() {
            return;
        }
        self.class_counts_buf
            .resize(self.shards[0].classes().len(), 0);
        for entry in dropped {
            self.metrics.record_blocked_item();
            entry.class_counts(&mut self.class_counts_buf);
            if !self
                .metrics
                .record_blocked_batch(&self.class_counts_buf, entry.first_arrival)
            {
                // The batch straddles the warmup boundary: attribute each
                // request individually.
                for &(arrival, class) in &entry.requesters {
                    self.metrics.record_blocked(class, arrival);
                }
            }
            if self.sink.enabled() {
                // Drops are rare; one event per rejected request is fine.
                for &(_, class) in &entry.requesters {
                    self.sink.record(&TelemetryEvent::RequestBlocked {
                        time: now,
                        item: entry.item,
                        class,
                    });
                }
            }
            if let Some(churn) = &mut self.churn {
                churn.blocked(self.sink, now, &entry);
            }
            self.shards[shard as usize].recycle(entry);
        }
    }

    /// `true` if `item` belongs to its owning shard's push set.
    fn is_push_item(&self, item: ItemId) -> bool {
        self.shards[self.plan.channel_of(item) as usize].is_push_item(item)
    }

    /// One request enters the system: a broadcast listener parks in its
    /// item's waiting room, a pull request crosses the uplink (when one is
    /// modeled) and joins the queue.
    fn admit(&mut self, eng: &mut Engine<Event>, now: SimTime, req: Request, client: ClientId) {
        if let Some(state) = &mut self.adaptive {
            state.window_counts[req.item.index()] += 1;
            state.feedback.note_arrival(req.class.index());
        }
        self.metrics.on_request(req.class, req.arrival);
        emit(self.sink, || TelemetryEvent::RequestArrival {
            time: now,
            item: req.item,
            class: req.class,
        });
        if self.is_push_item(req.item) {
            // Push requests never need the uplink: the client just
            // keeps listening and catches the cyclic broadcast.
            // Single-tuner model: the client's tuner cycles
            // deterministically over the channels; landing off the
            // item's home channel costs one missed broadcast (a
            // conflict). Degenerates to "never mistuned" at C = 1.
            let home = self.plan.channel_of(req.item);
            let tuned = (self.tuner_counter % self.plan.channels() as u64) as u32;
            self.tuner_counter += 1;
            self.push_waiters[req.item.index()].push(PushWaiter {
                arrival: req.arrival,
                client,
                class: req.class,
                mistuned: tuned != home,
            });
            self.kick(eng, now, home);
            return;
        }
        match &mut self.uplink {
            Some(channel) => match channel.transmit() {
                UplinkOutcome::Delivered(latency) => {
                    self.metrics
                        .record_uplink_delivered(req.class, latency.as_f64());
                    emit(self.sink, || TelemetryEvent::UplinkDelivered {
                        time: now,
                        item: req.item,
                        class: req.class,
                        latency,
                    });
                    eng.schedule_in(latency, Event::Deliver(req, client));
                }
                UplinkOutcome::Lost => {
                    self.metrics.record_uplink_lost(req.class);
                    emit(self.sink, || TelemetryEvent::UplinkLoss {
                        time: now,
                        item: req.item,
                        class: req.class,
                    });
                }
            },
            None => self.deliver(eng, now, &req, client),
        }
    }

    /// Books one satisfied request: the adaptive window, the metrics, the
    /// telemetry stream and (under churn) the client's dissatisfaction.
    fn served(
        &mut self,
        now: SimTime,
        item: ItemId,
        kind: TxKind,
        arrival: SimTime,
        class: ClassId,
        client: ClientId,
    ) {
        let delay = (now - arrival).as_f64();
        if let Some(state) = &mut self.adaptive {
            state.feedback.note_served(class.index(), delay);
        }
        self.metrics.record_served(class, kind, arrival, now);
        emit(self.sink, || TelemetryEvent::RequestServed {
            time: now,
            item,
            class,
            kind: match kind {
                TxKind::Push => ServiceKind::Push,
                TxKind::Pull => ServiceKind::Pull,
            },
            arrival,
        });
        if let Some(churn) = &mut self.churn {
            churn.served(self.sink, now, kind, client, class, delay);
        }
    }

    fn handle(&mut self, eng: &mut Engine<Event>, ev: Event) {
        let now = eng.now();
        match ev {
            Event::Arrival => {
                let req = self.gen.next_request();
                debug_assert_eq!(req.arrival, now);
                // Under churn the draw belongs to a living subscriber of
                // its class, or (fully-churned class) to nobody.
                let client = match &mut self.churn {
                    Some(churn) => churn.attribute(req.class),
                    None => Some(NO_CLIENT),
                };
                if let Some(client) = client {
                    self.admit(eng, now, req, client);
                }
                if let Some(t) = self.gen.peek() {
                    eng.stage_at(t, Event::Arrival);
                }
            }
            Event::Deliver(req, client) => {
                // The cutoff may have moved while the request was in
                // flight; a now-push item just parks as a listener. (By
                // delivery time the client has already looked up its
                // item's home channel, so no tuner conflict here.)
                if self.is_push_item(req.item) {
                    self.push_waiters[req.item.index()].push(PushWaiter {
                        arrival: req.arrival,
                        client,
                        class: req.class,
                        mistuned: false,
                    });
                } else {
                    self.deliver(eng, now, &req, client);
                }
            }
            Event::Complete(slot) => {
                let slot = slot as usize;
                let tx = self.on_air[slot]
                    .take()
                    .expect("a pending completion's slot holds its transmission");
                let shard = self.roles[slot].shard() as usize;
                let (kind, start, item, duration) = (tx.kind, tx.start, tx.item, tx.duration);
                match kind {
                    TxKind::Push => {
                        emit(self.sink, || TelemetryEvent::PushTx {
                            time: now,
                            item,
                            duration,
                        });
                        // satisfy waiters who arrived before the slot began
                        let mut waiters = std::mem::take(&mut self.push_waiters[item.index()]);
                        let parked = waiters.len();
                        let mut conflicts = 0;
                        waiters.retain_mut(|w| {
                            if w.arrival > start {
                                return true;
                            }
                            if w.mistuned {
                                // The tuner was elsewhere: this broadcast
                                // is missed, the next one is catchable.
                                conflicts += 1;
                                w.mistuned = false;
                                return true;
                            }
                            self.served(now, item, TxKind::Push, w.arrival, w.class, w.client);
                            false
                        });
                        self.conflicts += conflicts;
                        self.push_served_raw += (parked - waiters.len()) as u64;
                        self.push_waiters[item.index()] = waiters;
                    }
                    TxKind::Pull => {
                        if let Some(batch) = self.shards[shard].complete_transmission(tx) {
                            for (i, &(arrival, class)) in batch.requesters.iter().enumerate() {
                                let client = match &self.churn {
                                    Some(churn) => churn.in_flight(i),
                                    None => NO_CLIENT,
                                };
                                self.served(now, item, TxKind::Pull, arrival, class, client);
                            }
                            emit(self.sink, || TelemetryEvent::PullTx {
                                time: now,
                                item,
                                duration,
                                requests: batch.count() as u32,
                                class: batch.dominant_class().unwrap_or(ClassId(0)),
                            });
                            self.shards[shard].recycle(batch);
                        }
                    }
                }
                self.completed(eng, now, slot);
            }
            Event::Retune => self.retune(eng, now),
            Event::Fault(action) => self.apply_fault(eng, now, action),
        }
    }

    /// Executes one injected fault, then audits the queue aggregates.
    fn apply_fault(&mut self, eng: &mut Engine<Event>, now: SimTime, action: FaultAction) {
        match action {
            FaultAction::SetUplink(p) => {
                if let Some(channel) = &mut self.uplink {
                    channel.set_success_prob(p);
                }
            }
            FaultAction::RestoreUplink => {
                if let (Some(channel), Some(base)) = (&mut self.uplink, self.base_uplink_prob) {
                    channel.set_success_prob(base);
                }
            }
            FaultAction::MassDeparture(fraction) => {
                // Oldest listeners leave first (they have waited longest).
                for (idx, waiters) in self.push_waiters.iter_mut().enumerate() {
                    let leaving = (waiters.len() as f64 * fraction).floor() as usize;
                    if leaving == 0 {
                        continue;
                    }
                    let channel = self.plan.channel_of(ItemId(idx as u32));
                    for w in waiters.drain(..leaving) {
                        self.departed[w.class.index()] += 1;
                        self.departed_by_channel[channel as usize] += 1;
                    }
                }
            }
            FaultAction::ForceCutoff(k) => {
                let k = k.min(self.shards[0].catalog().len());
                let target: Vec<ItemId> = (0..k).map(|i| ItemId(i as u32)).collect();
                self.apply_push_target(eng, &target, now);
                self.kick(eng, now, 0);
            }
        }
        self.audit_now(now);
    }

    /// Shadow-recounts the pull queue's aggregates when auditing is on,
    /// appending any discrepancy to the audit trail.
    fn audit_now(&mut self, now: SimTime) {
        if !self.audit_queue {
            return;
        }
        for (channel, shard) in self.shards.iter().enumerate() {
            let findings = shard.queue().verify_shadow(|c| shard.classes().priority(c));
            self.audit.extend(
                findings
                    .into_iter()
                    .map(|m| format!("t={:.3} ch={channel}: {m}", now.as_f64())),
            );
        }
    }

    /// Hands a (delivered) pull request to the scheduler. The request may
    /// carry an arrival time in the past (uplink latency), so the queue
    /// statistics are stamped at `now`.
    fn deliver(&mut self, eng: &mut Engine<Event>, now: SimTime, req: &Request, client: ClientId) {
        debug_assert!(!self.is_push_item(req.item));
        let shard = self.plan.channel_of(req.item);
        self.shards[shard as usize].requeue_waiter(req, now);
        if let Some(churn) = &mut self.churn {
            churn.queued(req.item, client);
        }
        self.record_queue(now);
        self.kick(eng, now, shard);
    }

    /// Executes one periodic re-optimization (and arms the next): seal the
    /// window, decide the cutoff, migrate server state across the boundary. The
    /// decision comes from the measured-feedback [`CutoffController`] when
    /// one is configured, otherwise from the analytic model's argmin over
    /// the candidate grid on the window's popularity and load estimates;
    /// everything around it — push-set order, ledger, window reset,
    /// migration, audit — is the same either way. Cutoff moves run on one
    /// shard ([`Simulation::validate`]).
    fn retune(&mut self, eng: &mut Engine<Event>, now: SimTime) {
        let from_k = self.shards[0].cutoff();
        let Some(state) = &mut self.adaptive else {
            return;
        };
        eng.schedule_in(SimDuration::new(state.config.period), Event::Retune);
        let counts = &state.window_counts;
        let total: u64 = counts.iter().sum();
        // Push-set order: the static rank order, or (re-ranking mode) the
        // items by windowed popularity, ties to the lower rank.
        let mut order: Vec<usize> = (0..counts.len()).collect();
        if state.config.rerank {
            order.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b)));
        }
        let snapshot = state.feedback.take();
        let (record, shares) = match &mut state.controller {
            Some(controller) => {
                let decision = controller.decide(from_k, snapshot, counts.len());
                let record = RetuneRecord {
                    time: now.as_f64(),
                    from_k,
                    to_k: decision.target_k,
                    estimated_lambda: decision.window_arrivals as f64 / state.config.period,
                    measured_cost: decision.measured_cost,
                    window_arrivals: decision.window_arrivals,
                    slo_rescue: decision.slo_rescue,
                    held: decision.held,
                };
                (record, decision.shares)
            }
            None => {
                if total == 0 {
                    return; // nothing observed; keep the incumbent cutoff
                }
                let smoothing = state.config.smoothing;
                let smoothed_total = total as f64 + smoothing * counts.len() as f64;
                let probs: Vec<f64> = order
                    .iter()
                    .map(|&i| (counts[i] as f64 + smoothing) / smoothed_total)
                    .collect();
                let catalog = self.shards[0].catalog().items();
                let lengths: Vec<u32> = order.iter().map(|&i| catalog[i].length).collect();
                let lambda_est = total as f64 / state.config.period;
                let ks = &state.config.candidate_ks;
                let costs: Vec<f64> = ks
                    .iter()
                    .map(|&k| {
                        HybridDelayModel::from_parts(
                            probs.clone(),
                            lengths.clone(),
                            self.shards[0].classes(),
                            lambda_est,
                            k,
                        )
                        .with_alpha(state.alpha)
                        .delays()
                        .total_prioritized_cost
                    })
                    .collect();
                let best_k = ks[rank(&costs)[0]];
                let record = RetuneRecord {
                    time: now.as_f64(),
                    from_k,
                    to_k: best_k,
                    estimated_lambda: lambda_est,
                    measured_cost: None,
                    window_arrivals: total,
                    slo_rescue: false,
                    held: best_k == from_k,
                };
                (record, None)
            }
        };
        state.retunes.push(record);
        state.window_counts.fill(0);
        let target: Vec<ItemId> = order[..record.to_k]
            .iter()
            .map(|&i| ItemId(i as u32))
            .collect();
        self.apply_push_target(eng, &target, now);
        if let Some(shares) = &shares {
            self.shards[0].rebalance_bandwidth(shares);
        }
        self.audit_now(now);
    }

    /// Moves the push set to exactly `target` and migrates server state
    /// across the new boundary (shared by the adaptive controller and the
    /// fault injector's forced cutoff). No-op when the set is unchanged.
    fn apply_push_target(&mut self, eng: &mut Engine<Event>, target: &[ItemId], now: SimTime) {
        let from_k = self.shards[0].cutoff();
        let was_member: Vec<bool> = self.shards[0].push_membership().to_vec();
        let unchanged = target.len() == from_k && target.iter().all(|it| was_member[it.index()]);
        if unchanged {
            return;
        }
        emit(self.sink, || TelemetryEvent::CutoffChange {
            time: now,
            from_k: from_k as u32,
            to_k: target.len() as u32,
        });
        // Apply the move and migrate state across the boundary.
        let moved_to_push = self.shards[0].set_push_set(target, now);
        for entry in moved_to_push {
            // These items are broadcast now; their requesters wait for the
            // next cycle like any other push listener.
            self.push_waiters[entry.item.index()].extend(entry.requesters.iter().map(
                |&(arrival, class)| PushWaiter {
                    arrival,
                    client: NO_CLIENT,
                    class,
                    mistuned: false,
                },
            ));
        }
        // Items that left the push set: convert parked listeners into pull
        // requests, preserving their original arrival times.
        let now_member: Vec<bool> = self.shards[0].push_membership().to_vec();
        for idx in 0..now_member.len() {
            if was_member[idx] && !now_member[idx] {
                let waiters = std::mem::take(&mut self.push_waiters[idx]);
                for w in waiters {
                    let req = Request {
                        arrival: w.arrival,
                        item: ItemId(idx as u32),
                        class: w.class,
                    };
                    self.shards[0].requeue_waiter(&req, now);
                }
            }
        }
        self.record_queue(now);
        self.push_set_moved(eng, now);
    }
}

impl<S: Sink> Transmitters<Engine<Event>> for Driver<'_, S> {
    fn roles(&self) -> &[Role] {
        &self.roles
    }

    fn idle(&self, slot: usize) -> bool {
        self.on_air[slot].is_none()
    }

    fn demand(&self, shard: u32) -> (bool, bool) {
        (!self.shards[shard as usize].queue().is_empty(), true)
    }

    fn air(&mut self, eng: &mut Engine<Event>, now: SimTime, slot: usize, role: Role) -> bool {
        let (tx, dropped) = transmitters::next(role, &mut self.shards[role.shard() as usize], now);
        if role.pulls() {
            self.record_dropped(dropped, now, role.shard());
            self.record_queue(now);
        }
        let Some(tx) = tx else {
            return false;
        };
        if let (Some(churn), Some(batch)) = (&mut self.churn, &tx.served) {
            churn.on_air(tx.item, batch.count());
        }
        self.metrics.on_transmission(tx.kind);
        eng.schedule_at(tx.completes_at(), Event::Complete(slot as u32));
        self.on_air[slot] = Some(tx);
        true
    }
}

/// One simulator run, fully described: the workload, the scheduler, the
/// run length, and the optional machinery layered on the one event loop.
/// Build it with [`Simulation::new`] and struct-update syntax, then
/// [`run`](Simulation::run) it:
///
/// ```
/// # use hybridcast_core::prelude::*;
/// # use hybridcast_workload::scenario::ScenarioConfig;
/// let scenario = ScenarioConfig::icpp2005(0.6).build();
/// let hybrid = HybridConfig::paper(40, 0.5);
/// let adaptive = AdaptiveConfig::default();
/// let run = Simulation {
///     adaptive: Some(&adaptive),
///     ..Simulation::new(&scenario, &hybrid, &SimParams::quick())
/// }
/// .run(&mut NullSink);
/// assert_eq!(run.report.per_class.len(), 3);
/// ```
pub struct Simulation<'a> {
    /// Workload: catalog, classes, arrival process, seed.
    pub scenario: &'a Scenario,
    /// Scheduler: cutoff, policies, bandwidth, uplink, layout.
    pub hybrid: &'a HybridConfig,
    /// Run length and replication index.
    pub params: &'a SimParams,
    /// The request stream, when it is not the scenario's own for
    /// `params.replication` — e.g. a recorded
    /// [`hybridcast_workload::requests::ReplaySource`] trace.
    pub source: Option<Box<dyn RequestSource>>,
    /// Periodic cutoff re-optimization: every `period` broadcast units the
    /// server re-decides `K` (model argmin, or the measured-feedback
    /// controller when `controller` is set) and migrates queued requests
    /// and broadcast waiters across the boundary.
    pub adaptive: Option<&'a AdaptiveConfig>,
    /// Injected faults, applied on top of whichever mode runs.
    pub faults: &'a [FaultSpec],
    /// Pull-policy override (the testkit plants "mutant" policies the
    /// invariant oracles must catch); single channel only.
    pub policy: Option<Box<dyn PullPolicy>>,
    /// Shadow-recount the pull queue's aggregates at every fault
    /// application, retune, and at the horizon ([`SimRun::queue_audit`]).
    pub audit_queue: bool,
    /// The finite-population churn model ([`crate::churn`]): requests
    /// belong to subscribers who leave once dissatisfied. One interleaved
    /// channel, no cutoff moves.
    pub churn: Option<&'a ChurnConfig>,
}

impl<'a> Simulation<'a> {
    /// The plain static run of `hybrid` over `scenario`.
    pub fn new(scenario: &'a Scenario, hybrid: &'a HybridConfig, params: &'a SimParams) -> Self {
        Simulation {
            scenario,
            hybrid,
            params,
            source: None,
            adaptive: None,
            faults: &[],
            policy: None,
            audit_queue: false,
            churn: None,
        }
    }

    /// Every precondition of [`run`](Simulation::run), as a typed error
    /// instead of a mid-run panic. Front ends taking configs from outside
    /// the program call this first.
    pub fn validate(&self) -> Result<(), String> {
        self.hybrid.validate()?;
        let SimParams {
            horizon, warmup, ..
        } = *self.params;
        ensure(
            horizon > warmup,
            format_args!("horizon {horizon} must exceed warmup {warmup}"),
        )?;
        ensure(
            warmup >= 0.0,
            format_args!("warmup {warmup} must be non-negative"),
        )?;
        let (cutoff, catalog_len) = (self.hybrid.cutoff, self.scenario.catalog.len());
        ensure(
            cutoff <= catalog_len,
            format_args!("cutoff {cutoff} exceeds catalog size {catalog_len}"),
        )?;
        let cutoff_faults = self
            .faults
            .iter()
            .any(|f| matches!(f, FaultSpec::ForceCutoff { .. }));
        if let Some(adaptive) = self.adaptive {
            ensure(adaptive.period > 0.0, "retune period must be positive")?;
            ensure(
                !adaptive.candidate_ks.is_empty(),
                "need at least one candidate cutoff",
            )?;
            // The controller path never reads the candidate grid.
            let k = adaptive.candidate_ks.iter().max().copied().unwrap_or(0);
            ensure(
                adaptive.controller.is_some() || k <= catalog_len,
                format_args!("candidate cutoff {k} exceeds catalog size {catalog_len}"),
            )?;
        }
        for fault in self.faults {
            fault.validate()?;
        }
        if self.hybrid.channels.shard_count() > 1 {
            ensure(
                self.adaptive.is_none(),
                "adaptive cutoff control requires a single channel",
            )?;
            ensure(
                !cutoff_faults,
                "forced cutoff moves require a single channel",
            )?;
            ensure(
                self.policy.is_none(),
                "a custom pull policy requires a single channel",
            )?;
        }
        if let Some(churn) = self.churn {
            churn.validate(self.scenario.classes.len())?;
            ensure(
                self.hybrid.channels.transmitters().len() == 1,
                "the churn model runs on the paper's single interleaved channel",
            )?;
            ensure(
                self.adaptive.is_none() && !cutoff_faults,
                "the churn model requires a static cutoff",
            )?;
        }
        Ok(())
    }

    /// Runs the simulation to `params.horizon`, delivering telemetry to
    /// `sink`. With `&mut NullSink` this compiles to exactly the
    /// uninstrumented run; recording is purely observational either way
    /// (bit-identical reports, property-tested).
    ///
    /// # Panics
    /// Panics with [`validate`](Simulation::validate)'s message when a
    /// precondition does not hold.
    pub fn run<S: Sink>(self, sink: &mut S) -> SimRun {
        if let Err(what) = self.validate() {
            panic!("{what}");
        }
        let (scenario, hybrid, params) = (self.scenario, self.hybrid, self.params);
        let (adaptive, faults) = (self.adaptive, self.faults);
        let source = self
            .source
            .unwrap_or_else(|| scenario.request_source_replication(params.replication));
        // Arrival surges act on the request stream itself: wrap the source
        // once with every surge window instead of touching the event loop.
        let surge_windows: Vec<SurgeWindow> = faults
            .iter()
            .filter_map(|f| match *f {
                FaultSpec::ArrivalSurge {
                    start,
                    duration,
                    factor,
                } => Some(SurgeWindow {
                    start,
                    end: start + duration,
                    factor,
                }),
                _ => None,
            })
            .collect();
        let source: Box<dyn RequestSource> = if surge_windows.is_empty() {
            source
        } else {
            Box::new(SurgeSource::new(source, surge_windows))
        };
        let factory = scenario.factory.replication(params.replication);
        let (shards, plan) = build_shards(
            &scenario.catalog,
            &scenario.classes,
            hybrid,
            &factory,
            self.policy,
        );
        let shard_count = shards.len();
        let roles = hybrid.channels.transmitters();
        let num_items = scenario.catalog.len();
        let num_classes = scenario.classes.len();
        let mut driver = Driver {
            shards,
            plan,
            metrics: MetricsCollector::new(num_classes, SimTime::new(params.warmup)),
            gen: source,
            push_waiters: vec![Vec::new(); num_items],
            on_air: roles.iter().map(|_| None).collect(),
            roles,
            adaptive: adaptive.map(|cfg| AdaptiveState {
                controller: cfg.controller.as_ref().map(|ctrl| {
                    let weights: Vec<f64> = scenario
                        .classes
                        .ids()
                        .map(|id| scenario.classes.priority(id))
                        .collect();
                    CutoffController::new(ctrl.clone(), weights, cfg.period)
                }),
                feedback: FeedbackWindow::new(num_classes),
                config: cfg.clone(),
                alpha: hybrid.pull.blend_alpha(),
                window_counts: vec![0; num_items],
                retunes: Vec::new(),
            }),
            uplink: hybrid
                .uplink
                .map(|cfg| UplinkChannel::new(cfg, factory.stream(UPLINK_STREAM))),
            churn: self
                .churn
                .map(|cfg| ChurnState::new(cfg, scenario, &factory)),
            class_counts_buf: Vec::new(),
            base_uplink_prob: hybrid.uplink.map(|cfg| cfg.success_prob),
            departed: vec![0; num_classes],
            departed_by_channel: vec![0; shard_count],
            tuner_counter: 0,
            conflicts: 0,
            push_served_raw: 0,
            audit: Vec::new(),
            audit_queue: self.audit_queue,
            sink,
        };

        let mut engine: Engine<Event> = Engine::new();
        if let Some(t) = driver.gen.peek() {
            engine.stage_at(t, Event::Arrival);
        }
        if let Some(adaptive) = adaptive {
            engine.schedule_at(SimTime::new(adaptive.period), Event::Retune);
        }
        for fault in faults {
            match *fault {
                FaultSpec::UplinkBurst {
                    start,
                    duration,
                    success_prob,
                } => {
                    engine.schedule_at(
                        SimTime::new(start),
                        Event::Fault(FaultAction::SetUplink(success_prob)),
                    );
                    engine.schedule_at(
                        SimTime::new(start + duration),
                        Event::Fault(FaultAction::RestoreUplink),
                    );
                }
                FaultSpec::ArrivalSurge { .. } => {} // folded into the source above
                FaultSpec::MassDeparture { time, fraction } => {
                    engine.schedule_at(
                        SimTime::new(time),
                        Event::Fault(FaultAction::MassDeparture(fraction)),
                    );
                }
                FaultSpec::ForceCutoff { time, k } => {
                    engine.schedule_at(
                        SimTime::new(time),
                        Event::Fault(FaultAction::ForceCutoff(k)),
                    );
                }
            }
        }
        // `Hybrid` and `Push` transmitters start at once; in pure-pull mode
        // they wait for the first request, as `Pull` transmitters always do.
        driver.boot(&mut engine);

        let horizon = SimTime::new(params.horizon);
        engine.run_until(horizon, |eng, ev| driver.handle(eng, ev));
        driver.audit_now(horizon);

        // Horizon census: park every still-outstanding request somewhere so
        // the conservation identity closes exactly (see [`PendingCensus`]),
        // with a per-channel marginal so it also closes channel by channel.
        let mut census = PendingCensus::new(num_classes, shard_count);
        for (_, ev) in engine.drain_pending() {
            if let Event::Deliver(req, _) = ev {
                census.uplink_in_flight[req.class.index()] += 1;
                census.per_channel[driver.plan.channel_of(req.item) as usize] += 1;
            }
        }
        for (role, tx) in driver.roles.iter().zip(&driver.on_air) {
            if let Some(batch) = tx.as_ref().and_then(|tx| tx.served.as_ref()) {
                for &(_, class) in &batch.requesters {
                    census.in_service[class.index()] += 1;
                    census.per_channel[role.shard() as usize] += 1;
                }
            }
        }
        for (idx, waiters) in driver.push_waiters.iter().enumerate() {
            let channel = driver.plan.channel_of(ItemId(idx as u32));
            for w in waiters {
                census.waiting_push[w.class.index()] += 1;
                census.per_channel[channel as usize] += 1;
            }
        }
        for (channel, shard) in driver.shards.iter().enumerate() {
            for entry in shard.queue().iter() {
                for &(_, class) in &entry.requesters {
                    census.queued[class.index()] += 1;
                    census.per_channel[channel] += 1;
                }
            }
        }
        census.departed = driver.departed.clone();
        for (channel, &n) in driver.departed_by_channel.iter().enumerate() {
            census.per_channel[channel] += n;
        }

        let mut report = driver.metrics.report(&scenario.classes, horizon);
        report.channels = shard_count as u32;
        report.conflicts = driver.conflicts;
        report.conflict_rate = if driver.conflicts > 0 {
            driver.conflicts as f64 / (driver.conflicts + driver.push_served_raw) as f64
        } else {
            0.0
        };
        SimRun {
            report,
            census,
            retunes: driver.adaptive.map(|s| s.retunes).unwrap_or_default(),
            final_k: driver.shards.iter().map(HybridScheduler::cutoff).sum(),
            queue_audit: driver.audit,
            churn: driver.churn.map(|c| c.outcome(&scenario.classes)),
        }
    }
}

/// Shorthand for the plain static run: [`Simulation::new`] run without
/// telemetry, returning just the report.
pub fn simulate(scenario: &Scenario, hybrid: &HybridConfig, params: &SimParams) -> SimReport {
    Simulation::new(scenario, hybrid, params)
        .run(&mut NullSink)
        .report
}

/// [`simulate`] with the windowed recorder attached: the report together
/// with the per-class QoS [`TimeSeries`].
pub fn simulate_telemetry(
    scenario: &Scenario,
    hybrid: &HybridConfig,
    params: &SimParams,
    telemetry: TelemetryConfig,
) -> (SimReport, TimeSeries) {
    let mut recorder = WindowRecorder::new(
        telemetry,
        &scenario.classes,
        &scenario.catalog,
        hybrid.cutoff,
    );
    let report = Simulation::new(scenario, hybrid, params)
        .run(&mut recorder)
        .report;
    let series = recorder.finish(SimTime::new(params.horizon));
    (report, series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChannelLayout;
    use hybridcast_workload::requests::ReplaySource;
    use hybridcast_workload::scenario::ScenarioConfig;

    fn run(k: usize, alpha: f64) -> SimReport {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let cfg = HybridConfig::paper(k, alpha);
        simulate(&scenario, &cfg, &SimParams::quick())
    }

    fn adaptive_run(
        scenario: &Scenario,
        hybrid: &HybridConfig,
        params: &SimParams,
        adaptive: &AdaptiveConfig,
    ) -> AdaptiveReport {
        Simulation {
            adaptive: Some(adaptive),
            ..Simulation::new(scenario, hybrid, params)
        }
        .run(&mut NullSink)
        .into()
    }

    fn replayed_run(
        scenario: &Scenario,
        hybrid: &HybridConfig,
        params: &SimParams,
        trace: Vec<Request>,
    ) -> SimReport {
        Simulation {
            source: Some(Box::new(ReplaySource::new(trace))),
            ..Simulation::new(scenario, hybrid, params)
        }
        .run(&mut NullSink)
        .report
    }

    #[test]
    fn produces_samples_for_all_classes() {
        let r = run(40, 0.5);
        for c in &r.per_class {
            assert!(c.served > 500, "{}: served {}", c.name, c.served);
            assert!(c.delay.mean > 0.0);
        }
        assert!(r.push_transmissions > 0);
        assert!(r.pull_transmissions > 0);
    }

    #[test]
    fn deterministic_per_seed_and_replication() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let cfg = HybridConfig::paper(40, 0.5);
        let a = simulate(&scenario, &cfg, &SimParams::quick());
        let b = simulate(&scenario, &cfg, &SimParams::quick());
        assert_eq!(a, b);
        let c = simulate(&scenario, &cfg, &SimParams::quick().with_replication(1));
        assert_ne!(a, c);
    }

    #[test]
    fn priority_blend_orders_pull_delays() {
        // α = 0 (pure priority): Class-A pull delay must be the smallest.
        let r = run(40, 0.0);
        let a = r.per_class[0].pull_delay.mean;
        let b = r.per_class[1].pull_delay.mean;
        let c = r.per_class[2].pull_delay.mean;
        assert!(a < b, "A {a} vs B {b}");
        assert!(b < c, "B {b} vs C {c}");
    }

    #[test]
    fn alpha_one_is_priority_blind() {
        // α = 1 (pure stretch): per-class pull delays should be within
        // noise of each other.
        let r = run(40, 1.0);
        let a = r.per_class[0].pull_delay.mean;
        let c = r.per_class[2].pull_delay.mean;
        let rel = (a - c).abs() / c;
        assert!(rel < 0.25, "A {a} vs C {c} differ by {:.0}%", rel * 100.0);
    }

    #[test]
    fn pure_push_serves_everything_by_broadcast() {
        let r = run(100, 0.5);
        assert_eq!(r.pull_transmissions, 0);
        assert!(r.push_transmissions > 0);
        for c in &r.per_class {
            assert_eq!(c.pull_delay.count, 0);
            assert!(c.served > 0);
        }
    }

    #[test]
    fn pure_pull_serves_everything_on_demand() {
        let r = run(0, 0.5);
        assert_eq!(r.push_transmissions, 0);
        assert!(r.pull_transmissions > 0);
        for c in &r.per_class {
            assert_eq!(c.push_delay.count, 0);
        }
    }

    #[test]
    fn push_delay_scales_with_cycle_length() {
        // For a flat schedule the push-side wait grows with K.
        let small = run(20, 0.5);
        let large = run(80, 0.5);
        let pd = |r: &SimReport| {
            r.per_class
                .iter()
                .map(|c| c.push_delay.mean * c.push_delay.count as f64)
                .sum::<f64>()
                / r.per_class
                    .iter()
                    .map(|c| c.push_delay.count as f64)
                    .sum::<f64>()
        };
        assert!(pd(&large) > pd(&small) * 1.5);
    }

    #[test]
    fn conservation_served_plus_blocked_bounded_by_generated() {
        let r = run(40, 0.5);
        for c in &r.per_class {
            // some requests are still in flight at the horizon
            assert!(c.served + c.blocked <= c.generated + 1000);
        }
        assert_eq!(r.total_blocked(), 0, "no admission control configured");
    }

    #[test]
    fn blocking_occurs_with_tight_bandwidth() {
        use crate::bandwidth::BandwidthConfig;
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let mut cfg = HybridConfig::paper(40, 0.5);
        // Tiny pool with large demands: most pull items are dropped.
        cfg.bandwidth = BandwidthConfig::per_class(3.0, 3.0);
        let r = simulate(&scenario, &cfg, &SimParams::quick());
        assert!(r.total_blocked() > 0);
        assert!(r.blocked_items > 0);
    }

    #[test]
    fn adaptive_run_retunes_toward_the_static_optimum() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        // Start from a deliberately bad cutoff; the controller should walk
        // toward the model-optimal region and stay there.
        let cfg = HybridConfig::paper(5, 0.25);
        let adaptive = AdaptiveConfig {
            period: 500.0,
            candidate_ks: (10..=90).step_by(10).collect(),
            smoothing: 0.5,
            rerank: false,
            controller: None,
        };
        let out = adaptive_run(&scenario, &cfg, &SimParams::quick(), &adaptive);
        assert!(!out.retunes.is_empty(), "controller must fire");
        assert_ne!(out.final_k, 5, "bad initial cutoff must be abandoned");
        // the trajectory settles: the last two decisions agree
        let n = out.retunes.len();
        if n >= 2 {
            assert_eq!(out.retunes[n - 1].to_k, out.retunes[n - 2].to_k);
        }
        // conservation still holds
        for c in &out.report.per_class {
            assert!(c.served <= c.generated + 1_000);
        }
    }

    #[test]
    fn adaptive_migrates_waiters_without_losing_requests() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let cfg = HybridConfig::paper(90, 0.25); // will shrink K → waiters requeued
        let adaptive = AdaptiveConfig {
            period: 300.0,
            candidate_ks: vec![20, 40, 60],
            smoothing: 0.5,
            rerank: false,
            controller: None,
        };
        let out = adaptive_run(&scenario, &cfg, &SimParams::quick(), &adaptive);
        assert!(out.final_k <= 60);
        let served = out.report.total_served();
        assert!(served > 1_000, "served only {served}");
        // the adaptive run must not be catastrophically worse than the
        // static optimum among its candidates
        let static_best = [20usize, 40, 60]
            .iter()
            .map(|&k| {
                simulate(&scenario, &cfg.with_cutoff(k), &SimParams::quick()).total_prioritized_cost
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            out.report.total_prioritized_cost < static_best * 1.6,
            "adaptive {:.1} vs static best {static_best:.1}",
            out.report.total_prioritized_cost
        );
    }

    #[test]
    fn rerank_controller_tracks_popularity_drift() {
        use hybridcast_workload::requests::DriftConfig;
        // The hot set rotates by 10 ranks every 1000 bu: a static push
        // prefix goes stale, and the K-only controller cannot fix the
        // *membership* of the push set — only the re-ranking one can.
        let scenario = ScenarioConfig {
            drift: Some(DriftConfig {
                period: 1_000.0,
                shift: 10,
            }),
            ..ScenarioConfig::icpp2005(1.0)
        }
        .build();
        let cfg = HybridConfig::paper(40, 0.25);
        let params = SimParams {
            horizon: 12_000.0,
            warmup: 1_500.0,
            replication: 0,
        };
        let static_run = simulate(&scenario, &cfg, &params);
        let base = AdaptiveConfig {
            period: 400.0,
            candidate_ks: (10..=90).step_by(10).collect(),
            smoothing: 0.5,
            rerank: false,
            controller: None,
        };
        let k_only = adaptive_run(&scenario, &cfg, &params, &base);
        let rerank_run = adaptive_run(
            &scenario,
            &cfg,
            &params,
            &AdaptiveConfig {
                rerank: true,
                ..base
            },
        );
        let rr = rerank_run.report.total_prioritized_cost;
        assert!(
            rr < static_run.total_prioritized_cost,
            "rerank {rr:.1} should beat stale static {:.1}",
            static_run.total_prioritized_cost
        );
        assert!(
            rr < k_only.report.total_prioritized_cost,
            "rerank {rr:.1} should beat K-only {:.1} under drift",
            k_only.report.total_prioritized_cost
        );
        assert!(!rerank_run.retunes.is_empty());
    }

    #[test]
    fn measured_controller_climbs_out_of_a_bad_cutoff() {
        use crate::adaptive::ControllerConfig;
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        // Start from a deliberately bad cutoff with the measured-feedback
        // controller in charge (no model, no candidate grid).
        let cfg = HybridConfig::paper(5, 0.25);
        let adaptive = AdaptiveConfig {
            period: 250.0,
            controller: Some(ControllerConfig {
                step: 10,
                ..ControllerConfig::default()
            }),
            ..AdaptiveConfig::default()
        };
        let out = adaptive_run(&scenario, &cfg, &SimParams::quick(), &adaptive);
        assert!(out.retunes.len() >= 10, "one decision per window");
        assert!(
            out.final_k > 5,
            "controller must leave the bad cutoff (final K = {})",
            out.final_k
        );
        // every busy window carries the measured cost it was decided on
        for r in &out.retunes {
            if r.window_arrivals > 0 {
                assert!(r.measured_cost.is_some(), "busy window without cost");
                let lambda = r.window_arrivals as f64 / 250.0;
                assert!((r.estimated_lambda - lambda).abs() < 1e-9);
            }
            assert!(
                r.to_k.abs_diff(r.from_k) <= 10,
                "move larger than one step: {} -> {}",
                r.from_k,
                r.to_k
            );
        }
        // ...and the run must beat the static start it abandoned
        let static_start = simulate(&scenario, &cfg, &SimParams::quick());
        assert!(
            out.report.total_prioritized_cost < static_start.total_prioritized_cost,
            "controller {:.1} vs static start {:.1}",
            out.report.total_prioritized_cost,
            static_start.total_prioritized_cost
        );
    }

    #[test]
    fn measured_controller_respects_the_configured_band() {
        use crate::adaptive::ControllerConfig;
        let scenario = ScenarioConfig::icpp2005(1.0).build();
        let cfg = HybridConfig::paper(30, 0.25);
        let adaptive = AdaptiveConfig {
            period: 200.0,
            controller: Some(ControllerConfig {
                step: 5,
                k_min: 20,
                k_max: 45,
                ..ControllerConfig::default()
            }),
            ..AdaptiveConfig::default()
        };
        let out = adaptive_run(&scenario, &cfg, &SimParams::quick(), &adaptive);
        for r in &out.retunes {
            assert!(
                (20..=45).contains(&r.to_k),
                "t={}: K={} outside [20, 45]",
                r.time,
                r.to_k
            );
        }
        assert!((20..=45).contains(&out.final_k));
    }

    #[test]
    fn rerank_without_drift_is_not_worse_than_prefix() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let cfg = HybridConfig::paper(40, 0.25);
        let params = SimParams::quick();
        let adaptive_prefix = AdaptiveConfig {
            period: 500.0,
            candidate_ks: (10..=90).step_by(10).collect(),
            smoothing: 0.5,
            rerank: false,
            controller: None,
        };
        let adaptive_rerank = AdaptiveConfig {
            rerank: true,
            ..adaptive_prefix.clone()
        };
        let a = adaptive_run(&scenario, &cfg, &params, &adaptive_prefix);
        let b = adaptive_run(&scenario, &cfg, &params, &adaptive_rerank);
        // Without drift the estimated ranking ≈ the true ranking, so the
        // two controllers land in the same cost neighbourhood.
        let ratio = b.report.total_prioritized_cost / a.report.total_prioritized_cost;
        assert!(
            (0.8..1.25).contains(&ratio),
            "rerank {:.1} vs prefix {:.1}",
            b.report.total_prioritized_cost,
            a.report.total_prioritized_cost
        );
    }

    #[test]
    fn pull_burst_discipline_speeds_up_the_pull_side() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let one = HybridConfig::paper(40, 0.5);
        let burst = HybridConfig {
            pull_per_push: 3,
            ..one.clone()
        };
        let r1 = simulate(&scenario, &one, &SimParams::quick());
        let r3 = simulate(&scenario, &burst, &SimParams::quick());
        let pull_mean = |r: &SimReport| {
            r.per_class
                .iter()
                .map(|c| c.pull_delay.mean * c.pull_delay.count as f64)
                .sum::<f64>()
                / r.per_class
                    .iter()
                    .map(|c| c.pull_delay.count as f64)
                    .sum::<f64>()
        };
        assert!(
            pull_mean(&r3) < pull_mean(&r1),
            "burst {:.1} should beat alternation {:.1}",
            pull_mean(&r3),
            pull_mean(&r1)
        );
        // ...at the cost of slower push cycles
        let push_mean = |r: &SimReport| {
            r.per_class
                .iter()
                .map(|c| c.push_delay.mean * c.push_delay.count as f64)
                .sum::<f64>()
                / r.per_class
                    .iter()
                    .map(|c| c.push_delay.count as f64)
                    .sum::<f64>()
        };
        assert!(push_mean(&r3) > push_mean(&r1));
    }

    #[test]
    fn uplink_contention_loses_and_delays_pull_requests() {
        use crate::uplink::UplinkConfig;
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let clean = HybridConfig::paper(40, 0.5);
        let lossy = HybridConfig {
            uplink: Some(UplinkConfig {
                slot_time: 1.0,
                success_prob: 0.5,
                max_attempts: 2,
                backoff_slots: 3.0,
            }),
            ..clean.clone()
        };
        let r_clean = simulate(&scenario, &clean, &SimParams::quick());
        let r_lossy = simulate(&scenario, &lossy, &SimParams::quick());
        // 25% of pull requests never reach the server
        let lost: u64 = r_lossy.uplink_lost.iter().sum();
        assert!(lost > 500, "uplink losses {lost}");
        assert!(r_clean.uplink_lost.iter().sum::<u64>() == 0);
        // fewer pull requests served under loss
        let pulls = |r: &SimReport| -> u64 { r.per_class.iter().map(|c| c.pull_delay.count).sum() };
        assert!(pulls(&r_lossy) < pulls(&r_clean));
        // push side is untouched by the uplink
        assert!(r_lossy.push_transmissions > 0);
    }

    #[test]
    fn perfect_uplink_changes_nothing_but_latency() {
        use crate::uplink::UplinkConfig;
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let clean = HybridConfig::paper(40, 0.5);
        let perfect = HybridConfig {
            uplink: Some(UplinkConfig {
                slot_time: 0.01,
                success_prob: 1.0,
                max_attempts: 1,
                backoff_slots: 0.0,
            }),
            ..clean.clone()
        };
        let r_perf = simulate(&scenario, &perfect, &SimParams::quick());
        assert_eq!(r_perf.uplink_lost.iter().sum::<u64>(), 0);
        let r_clean = simulate(&scenario, &clean, &SimParams::quick());
        // near-identical service counts (tiny latency only shifts edges)
        let served_ratio = r_perf.total_served() as f64 / r_clean.total_served() as f64;
        assert!((served_ratio - 1.0).abs() < 0.02, "ratio {served_ratio}");
    }

    #[test]
    fn split_layout_parallelizes_the_pull_side() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let interleaved = HybridConfig::paper(40, 0.25);
        let split = |n: u32| HybridConfig {
            channels: ChannelLayout::Split { pull_channels: n },
            ..interleaved.clone()
        };
        let params = SimParams::quick();
        let base = simulate(&scenario, &interleaved, &params);
        let s1 = simulate(&scenario, &split(1), &params);
        let s4 = simulate(&scenario, &split(4), &params);
        let pull_mean = |r: &SimReport| {
            r.per_class
                .iter()
                .map(|c| c.pull_delay.mean * c.pull_delay.count as f64)
                .sum::<f64>()
                / r.per_class
                    .iter()
                    .map(|c| c.pull_delay.count as f64)
                    .sum::<f64>()
        };
        // A dedicated pull channel beats sharing one channel with the
        // broadcast, and more pull channels beat one.
        assert!(
            pull_mean(&s1) < pull_mean(&base),
            "split(1) {:.1} vs interleaved {:.1}",
            pull_mean(&s1),
            pull_mean(&base)
        );
        assert!(
            pull_mean(&s4) < pull_mean(&s1),
            "split(4) {:.1} vs split(1) {:.1}",
            pull_mean(&s4),
            pull_mean(&s1)
        );
        // the dedicated broadcast channel also shortens push waits (no
        // interleaved pull slots stretching the cycle)
        let push_mean = |r: &SimReport| {
            r.per_class
                .iter()
                .map(|c| c.push_delay.mean * c.push_delay.count as f64)
                .sum::<f64>()
                / r.per_class
                    .iter()
                    .map(|c| c.push_delay.count as f64)
                    .sum::<f64>()
        };
        assert!(push_mean(&s1) < push_mean(&base));
    }

    #[test]
    fn split_layout_conserves_requests() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let cfg = HybridConfig {
            channels: ChannelLayout::Split { pull_channels: 3 },
            ..HybridConfig::paper(40, 0.5)
        };
        let r = simulate(&scenario, &cfg, &SimParams::quick());
        for c in &r.per_class {
            assert!(c.served <= c.generated);
        }
        assert!(r.pull_transmissions > 0);
        assert!(r.push_transmissions > 0);
        // deterministic
        let r2 = simulate(&scenario, &cfg, &SimParams::quick());
        assert_eq!(r, r2);
    }

    /// A split-layout run that starts pure pull (K = 0, so the broadcast
    /// channel has nothing to send at boot) and then gains a push set.
    fn split_from_pure_pull(adaptive: Option<&AdaptiveConfig>, faults: &[FaultSpec]) -> SimRun {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let cfg = HybridConfig {
            channels: ChannelLayout::Split { pull_channels: 1 },
            ..HybridConfig::paper(0, 0.25)
        };
        Simulation {
            adaptive,
            faults,
            ..Simulation::new(&scenario, &cfg, &SimParams::quick())
        }
        .run(&mut NullSink)
    }

    /// The broadcast channel went on the air after the push set grew, and
    /// its listeners did not pile up.
    fn assert_broadcasting(out: &SimRun) {
        let generated: u64 = out.report.per_class.iter().map(|c| c.generated).sum();
        let parked: u64 = out.census.waiting_push.iter().sum();
        assert!(out.final_k > 0);
        assert!(out.report.push_transmissions > 0, "no push slot aired");
        assert!(
            parked * 100 < generated,
            "{parked} listeners parked at the horizon of {generated} requests"
        );
    }

    #[test]
    fn split_broadcast_channel_starts_after_a_forced_cutoff() {
        let out = split_from_pure_pull(None, &[FaultSpec::ForceCutoff { time: 100.0, k: 20 }]);
        assert_broadcasting(&out);
    }

    #[test]
    fn split_broadcast_channel_starts_after_a_retune() {
        let adaptive = AdaptiveConfig {
            period: 500.0,
            candidate_ks: vec![20, 40, 60],
            ..AdaptiveConfig::default()
        };
        let out = split_from_pure_pull(Some(&adaptive), &[]);
        assert!(out.retunes.iter().any(|r| r.from_k == 0 && r.to_k > 0));
        assert_broadcasting(&out);
    }

    #[test]
    fn trace_replay_reproduces_the_live_run_exactly() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let cfg = HybridConfig::paper(40, 0.5);
        let params = SimParams::quick();
        let live = simulate(&scenario, &cfg, &params);
        // record the same stream the live run consumed
        let mut gen = hybridcast_workload::requests::RequestGenerator::new(
            &scenario.catalog,
            &scenario.classes,
            scenario.arrival_rate,
            &scenario.factory.replication(params.replication),
        );
        let trace = gen.take_until(SimTime::new(params.horizon));
        let replayed = replayed_run(&scenario, &cfg, &params, trace);
        assert_eq!(replayed, live);
    }

    #[test]
    fn finite_trace_drains_and_server_idles_gracefully() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        // pure pull so the server can actually go idle after the trace ends
        let cfg = HybridConfig::paper(0, 0.5);
        let mut gen = scenario.request_stream();
        let trace = gen.take_until(SimTime::new(500.0));
        let n = trace.len() as u64;
        let params = SimParams {
            horizon: 5_000.0,
            warmup: 0.0,
            replication: 0,
        };
        let r = replayed_run(&scenario, &cfg, &params, trace);
        // every traced request is eventually served (no new demand arrives)
        assert_eq!(r.total_served(), n);
    }

    #[test]
    fn validate_names_the_broken_precondition() {
        let scenario = ScenarioConfig {
            num_items: 50,
            ..ScenarioConfig::icpp2005(0.6)
        }
        .build();
        let cfg = HybridConfig::paper(20, 0.5);
        let params = SimParams::quick();
        let base = || Simulation::new(&scenario, &cfg, &params);
        assert_eq!(base().validate(), Ok(()));

        // The starter grid reaches K = 90 on a 50-item catalog: the model
        // path would panic at the first retune, 2 000 units in.
        let grid = AdaptiveConfig::default();
        let err = Simulation {
            adaptive: Some(&grid),
            ..base()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, "candidate cutoff 90 exceeds catalog size 50");
        // ...while the controller path never reads the grid.
        let controlled = AdaptiveConfig {
            controller: Some(ControllerConfig::default()),
            ..AdaptiveConfig::default()
        };
        let armed = Simulation {
            adaptive: Some(&controlled),
            ..base()
        };
        assert_eq!(armed.validate(), Ok(()));

        let late = SimParams {
            warmup: params.horizon,
            ..params
        };
        let err = Simulation::new(&scenario, &cfg, &late)
            .validate()
            .unwrap_err();
        assert_eq!(err, "horizon 4000 must exceed warmup 4000");
        let early = SimParams {
            warmup: -1.0,
            ..params
        };
        let err = Simulation::new(&scenario, &cfg, &early)
            .validate()
            .unwrap_err();
        assert_eq!(err, "warmup -1 must be non-negative");

        let deep = HybridConfig::paper(51, 0.5);
        let err = Simulation::new(&scenario, &deep, &params)
            .validate()
            .unwrap_err();
        assert_eq!(err, "cutoff 51 exceeds catalog size 50");

        let faults = [FaultSpec::ForceCutoff { time: -1.0, k: 3 }];
        let err = Simulation {
            faults: &faults,
            ..base()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, "cutoff-force time must be ≥ 0");

        // Churn keeps the cutoff where it is.
        let churn = ChurnConfig::default();
        let err = Simulation {
            churn: Some(&churn),
            adaptive: Some(&controlled),
            ..base()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, "the churn model requires a static cutoff");
    }

    #[test]
    #[should_panic(expected = "horizon 100 must exceed warmup 500")]
    fn run_panics_with_the_validation_message() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let params = SimParams {
            horizon: 100.0,
            ..SimParams::quick()
        };
        simulate(&scenario, &HybridConfig::paper(40, 0.5), &params);
    }

    fn harness(cfg: &HybridConfig, params: &SimParams, faults: &[FaultSpec]) -> SimRun {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        Simulation {
            faults,
            audit_queue: true,
            ..Simulation::new(&scenario, cfg, params)
        }
        .run(&mut NullSink)
    }

    fn no_warmup() -> SimParams {
        SimParams {
            horizon: 3_000.0,
            warmup: 0.0,
            replication: 0,
        }
    }

    /// Per-class books must balance exactly:
    /// generated = served + blocked + uplink_lost + still-pending.
    fn assert_conserved(out: &SimRun) {
        for (c, pc) in out.report.per_class.iter().enumerate() {
            let lost = out.report.uplink_lost[c];
            assert_eq!(
                pc.generated,
                pc.served + pc.blocked + lost + out.census.per_class(c),
                "class {c}: {} generated vs {} served + {} blocked + {lost} lost \
                 + {} pending",
                pc.generated,
                pc.served,
                pc.blocked,
                out.census.per_class(c)
            );
        }
    }

    #[test]
    fn harness_census_closes_the_conservation_identity() {
        use crate::uplink::UplinkConfig;
        let cfg = HybridConfig {
            uplink: Some(UplinkConfig {
                slot_time: 1.0,
                success_prob: 0.5,
                max_attempts: 2,
                backoff_slots: 3.0,
            }),
            ..HybridConfig::paper(40, 0.5)
        };
        let out = harness(&cfg, &no_warmup(), &[]);
        assert_conserved(&out);
        assert!(out.census.total() > 0, "someone must still be waiting");
        assert!(
            out.queue_audit.is_empty(),
            "healthy run flagged: {:?}",
            out.queue_audit
        );
    }

    #[test]
    fn uplink_burst_fault_degrades_then_recovers() {
        use crate::uplink::UplinkConfig;
        let cfg = HybridConfig {
            uplink: Some(UplinkConfig {
                slot_time: 0.1,
                success_prob: 0.95,
                max_attempts: 1,
                backoff_slots: 0.0,
            }),
            ..HybridConfig::paper(40, 0.5)
        };
        let calm = harness(&cfg, &no_warmup(), &[]);
        let burst = harness(
            &cfg,
            &no_warmup(),
            &[FaultSpec::UplinkBurst {
                start: 500.0,
                duration: 1_000.0,
                success_prob: 0.05,
            }],
        );
        let lost = |r: &SimRun| r.report.uplink_lost.iter().sum::<u64>();
        assert!(
            lost(&burst) > lost(&calm) * 2,
            "burst {} vs calm {}",
            lost(&burst),
            lost(&calm)
        );
        assert_conserved(&burst);
    }

    #[test]
    fn forced_cutoff_fault_moves_the_push_set() {
        let cfg = HybridConfig::paper(40, 0.5);
        let out = harness(
            &cfg,
            &no_warmup(),
            &[FaultSpec::ForceCutoff {
                time: 1_000.0,
                k: 10,
            }],
        );
        assert_eq!(out.final_k, 10);
        assert_conserved(&out);
        assert!(out.queue_audit.is_empty(), "{:?}", out.queue_audit);
    }

    #[test]
    fn mass_departure_fault_removes_waiters_without_losing_the_books() {
        let cfg = HybridConfig::paper(60, 0.5);
        let out = harness(
            &cfg,
            &no_warmup(),
            &[FaultSpec::MassDeparture {
                time: 1_500.0,
                fraction: 1.0,
            }],
        );
        let departed: u64 = out.census.departed.iter().sum();
        assert!(departed > 0, "someone must have been parked at t=1500");
        assert_conserved(&out);
    }

    #[test]
    fn arrival_surge_fault_multiplies_demand_inside_the_window() {
        let cfg = HybridConfig::paper(40, 0.5);
        let calm = harness(&cfg, &no_warmup(), &[]);
        let surged = harness(
            &cfg,
            &no_warmup(),
            &[FaultSpec::ArrivalSurge {
                start: 500.0,
                duration: 1_000.0,
                factor: 3.0,
            }],
        );
        let gen = |r: &SimRun| r.report.per_class.iter().map(|c| c.generated).sum::<u64>();
        assert!(
            gen(&surged) as f64 > gen(&calm) as f64 * 1.3,
            "surged {} vs calm {}",
            gen(&surged),
            gen(&calm)
        );
        assert_conserved(&surged);
    }

    #[test]
    fn harness_runs_are_deterministic() {
        let cfg = HybridConfig::paper(40, 0.5);
        let faults = [
            FaultSpec::UplinkBurst {
                start: 400.0,
                duration: 300.0,
                success_prob: 0.2,
            },
            FaultSpec::ForceCutoff { time: 900.0, k: 70 },
        ];
        let a = harness(&cfg, &no_warmup(), &faults);
        let b = harness(&cfg, &no_warmup(), &faults);
        assert_eq!(a, b);
    }

    #[test]
    fn replicated_runs_differ_but_agree_statistically() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let cfg = HybridConfig::paper(40, 0.5);
        let reports: Vec<SimReport> = (0..3)
            .map(|i| simulate(&scenario, &cfg, &SimParams::quick().with_replication(i)))
            .collect();
        assert_eq!(reports.len(), 3);
        let means: Vec<f64> = reports.iter().map(|r| r.overall_delay.mean).collect();
        assert_ne!(means[0], means[1]);
        let avg = means.iter().sum::<f64>() / 3.0;
        for m in &means {
            assert!(
                (m - avg).abs() / avg < 0.3,
                "replication spread too wide: {means:?}"
            );
        }
    }

    fn sharded(channels: u32, assignment: crate::config::AssignmentStrategy) -> HybridConfig {
        HybridConfig {
            channels: ChannelLayout::Sharded {
                channels,
                assignment,
            },
            ..HybridConfig::paper(40, 0.5)
        }
    }

    #[test]
    fn one_channel_sharded_run_is_bit_identical_to_interleaved() {
        use crate::config::AssignmentStrategy;
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let base = simulate(
            &scenario,
            &HybridConfig::paper(40, 0.5),
            &SimParams::quick(),
        );
        for strategy in [
            AssignmentStrategy::Range,
            AssignmentStrategy::Hash,
            AssignmentStrategy::PatternAware,
        ] {
            let r = simulate(&scenario, &sharded(1, strategy), &SimParams::quick());
            assert_eq!(
                r, base,
                "C = 1 must replay the plain scheduler ({strategy:?})"
            );
        }
    }

    #[test]
    fn one_channel_sharded_churn_run_is_bit_identical_to_interleaved() {
        use crate::config::AssignmentStrategy;
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let params = SimParams::quick();
        // Tolerances tight enough that subscribers do leave.
        let churn = ChurnConfig {
            tolerance: vec![20.0, 30.0, 40.0],
            ..ChurnConfig::default()
        };
        let churn_run = |cfg: &HybridConfig| {
            Simulation {
                churn: Some(&churn),
                ..Simulation::new(&scenario, cfg, &params)
            }
            .run(&mut NullSink)
        };
        let base = churn_run(&HybridConfig::paper(40, 0.5));
        assert!(base.churn.as_ref().is_some_and(|c| c.departures > 0));
        for strategy in [
            AssignmentStrategy::Range,
            AssignmentStrategy::Hash,
            AssignmentStrategy::PatternAware,
        ] {
            assert!(
                churn_run(&sharded(1, strategy)) == base,
                "a churn run on C = 1 must replay the interleaved one ({strategy:?})"
            );
        }
    }

    #[test]
    fn sharded_run_conserves_per_class_and_per_channel() {
        use crate::config::AssignmentStrategy;
        for channels in [2u32, 4] {
            let cfg = sharded(channels, AssignmentStrategy::PatternAware);
            let out = harness(&cfg, &no_warmup(), &[]);
            assert_conserved(&out);
            assert_eq!(out.report.channels, channels);
            assert_eq!(out.census.per_channel.len(), channels as usize);
            // The channel marginal must re-count the exact same pending
            // population the class marginal does.
            assert_eq!(
                out.census.per_channel.iter().sum::<u64>(),
                out.census.total(),
                "C = {channels}: channel census {:?} disagrees with class census",
                out.census.per_channel
            );
            assert!(
                out.queue_audit.is_empty(),
                "C = {channels}: healthy run flagged: {:?}",
                out.queue_audit
            );
        }
    }

    #[test]
    fn sharded_runs_are_deterministic_and_serve_on_every_channel() {
        use crate::config::AssignmentStrategy;
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let cfg = sharded(4, AssignmentStrategy::PatternAware);
        let a = simulate(&scenario, &cfg, &SimParams::quick());
        let b = simulate(&scenario, &cfg, &SimParams::quick());
        assert_eq!(a, b);
        assert!(a.push_transmissions > 0);
        assert!(a.pull_transmissions > 0);
        for c in &a.per_class {
            assert!(c.served > 0, "{} starved under sharding", c.name);
        }
    }

    #[test]
    fn single_tuner_conflicts_appear_only_with_multiple_channels() {
        use crate::config::AssignmentStrategy;
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let one = simulate(
            &scenario,
            &sharded(1, AssignmentStrategy::PatternAware),
            &SimParams::quick(),
        );
        assert_eq!(one.conflicts, 0, "a single channel cannot be mistuned");
        assert_eq!(one.conflict_rate, 0.0);
        let four = simulate(
            &scenario,
            &sharded(4, AssignmentStrategy::PatternAware),
            &SimParams::quick(),
        );
        assert!(
            four.conflicts > 0,
            "single-tuner clients must miss some off-home broadcasts at C = 4"
        );
        assert!(
            four.conflict_rate > 0.0 && four.conflict_rate < 1.0,
            "conflict rate {} out of range",
            four.conflict_rate
        );
    }

    #[test]
    fn mass_departure_keeps_the_sharded_books_balanced() {
        use crate::config::AssignmentStrategy;
        let cfg = sharded(2, AssignmentStrategy::PatternAware);
        let out = harness(
            &cfg,
            &no_warmup(),
            &[FaultSpec::MassDeparture {
                time: 1_500.0,
                fraction: 1.0,
            }],
        );
        let departed: u64 = out.census.departed.iter().sum();
        assert!(departed > 0, "someone must have been parked at t=1500");
        assert_conserved(&out);
        assert_eq!(
            out.census.per_channel.iter().sum::<u64>(),
            out.census.total(),
            "departures must stay attributed to their home channel"
        );
    }
}
