//! Deterministic trace replay.
//!
//! Two replay targets, both pure functions of `(config, trace)`:
//!
//! * **Simulator replay** ([`replay_simulator`]): the trace becomes a
//!   [`ReplaySource`] driving `simulate_with_source` — the recorded
//!   arrivals replace the Poisson generator, everything else (scheduler,
//!   bandwidth, uplink, metrics) is the standard simulator.
//! * **Daemon replay** ([`replay_daemon`]): re-executes the daemon's
//!   scheduling discipline — per-channel cores, deadline timeouts, the
//!   contended uplink with the daemon's per-channel RNG lanes, push-waiter
//!   and pull-batch bookkeeping — in *virtual time*. Arrivals happen at
//!   their recorded stamps, transmissions complete exactly at
//!   `start + duration`, and deadlines fire exactly when due, so the books
//!   are a deterministic function of the trace: replaying the same trace
//!   twice is bit-identical (CI asserts this). The wall-clock run itself
//!   is *not* the determinism baseline — its tick times depend on OS
//!   scheduling — which is precisely why the trace, not the run, is the
//!   reproducible artifact.
//!
//! Determinism argument for the daemon replay: each channel's records are
//! replayed in recorded order, which is the order the daemon's core
//! ingested them — so the uplink RNG (stream `7 + channel`, same lane as
//! the daemon) sees the identical draw sequence, and every heap is keyed
//! by `(time, id)` with ids assigned in that same ingest order. No wall
//! clock, no thread interleaving, no iteration over unordered maps: the
//! only `HashMap` (pull waiters) is drained via the scheduler's own
//! item-keyed batches, never iterated.

use std::collections::{BinaryHeap, HashMap};

use serde::Serialize;

use hybridcast_core::config::HybridConfig;
use hybridcast_core::hybrid::{Disposition, HybridScheduler, Transmission};
use hybridcast_core::metrics::SimReport;
use hybridcast_core::metrics::TxKind;
use hybridcast_core::sharded::{ChannelPlan, ShardedScheduler};
use hybridcast_core::sim_driver::{simulate_with_source, SimParams};
use hybridcast_core::uplink::{UplinkChannel, UplinkOutcome};
use hybridcast_sim::time::{SimDuration, SimTime};
use hybridcast_workload::catalog::ItemId;
use hybridcast_workload::classes::ClassId;
use hybridcast_workload::requests::{ReplaySource, Request};
use hybridcast_workload::scenario::Scenario;

use crate::trace::{Trace, TraceRecord};

/// The uplink RNG stream id — must match the daemon's and the simulator's
/// lane so a replay draws the same loss/latency sequence.
const UPLINK_STREAM: u64 = 7;

/// After the last recorded arrival, a channel may air at most
/// `catalog × this + live × 2` further transmissions before the remainder
/// is shed — a deterministic stand-in for the daemon's wall-clock drain
/// budget (only reachable when deadline-less requests can never be served,
/// e.g. a pull request under `pull_per_push = 0`).
const DRAIN_CYCLES: usize = 8;

/// Per-class replay books.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassBook {
    /// Class name.
    pub name: String,
    /// Records ingested.
    pub accepted: u64,
    /// Served off the broadcast schedule.
    pub served_push: u64,
    /// Served by pull transmissions.
    pub served_pull: u64,
    /// Shed (admission drops + end-of-trace drain).
    pub shed: u64,
    /// Deadline expiries.
    pub timed_out: u64,
    /// Uplink losses.
    pub uplink_lost: u64,
    /// Mean served wait in broadcast units (`None` when nothing served).
    pub wait_mean_units: Option<f64>,
}

/// Per-channel replay books.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChannelBook {
    /// Channel index.
    pub channel: u32,
    /// Records ingested by this channel.
    pub accepted: u64,
    /// Served off the broadcast schedule.
    pub served_push: u64,
    /// Served by pull transmissions.
    pub served_pull: u64,
    /// Shed (admission drops + end-of-trace drain).
    pub shed: u64,
    /// Deadline expiries.
    pub timed_out: u64,
    /// Uplink losses.
    pub uplink_lost: u64,
    /// Push transmissions aired.
    pub push_tx: u64,
    /// Pull transmissions aired.
    pub pull_tx: u64,
    /// `accepted == served + shed + timed_out + uplink_lost`.
    pub conservation_ok: bool,
}

/// The replayed run's complete accounting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReplayBooks {
    /// Records replayed.
    pub records: u64,
    /// Channels replayed.
    pub channels: u32,
    /// Global conservation (and every channel's).
    pub conservation_ok: bool,
    /// Sum over channels.
    pub accepted: u64,
    /// Served off the broadcast schedule.
    pub served_push: u64,
    /// Served by pull transmissions.
    pub served_pull: u64,
    /// Shed.
    pub shed: u64,
    /// Deadline expiries.
    pub timed_out: u64,
    /// Uplink losses.
    pub uplink_lost: u64,
    /// Records whose recorded channel differs from the replay plan's
    /// routing (always 0 when replaying under the recording config; counts
    /// every record landing on a new channel under an override).
    pub rerouted: u64,
    /// Records whose item id exceeded the replay catalog and was folded
    /// back in via `item % catalog_len` (override replays only).
    pub remapped_items: u64,
    /// Records whose class byte exceeded the replay class table and was
    /// clamped to the last (lowest-priority) class (override replays only).
    pub remapped_classes: u64,
    /// Per-channel books, channel order.
    pub per_channel: Vec<ChannelBook>,
    /// Per-class books, class order.
    pub per_class: Vec<ClassBook>,
}

/// Re-mapping statistics for replaying `trace` under a (possibly
/// overridden) config: every record is mapped into the replay catalog
/// (`item % catalog_len` when out of range) and class table (clamped to
/// the last, lowest-priority class when out of range), then routed to
/// `plan.channel_of(item)` — the same routing the daemon applies at
/// ingest — rather than trusting the recorded bytes, which may reference
/// items, classes or channels the override no longer has.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RouteStats {
    /// Records routed to a different channel than recorded.
    pub rerouted: u64,
    /// Records with `item >= catalog_len`, folded back via modulo.
    pub remapped_items: u64,
    /// Records with `class >= num_classes`, clamped to the last class.
    pub remapped_classes: u64,
}

/// Maps one recorded request into `scenario`'s id spaces — the one place
/// a trace's item and class bytes are validated before either replay mode
/// indexes with them: `item` folds into `0..catalog_len`, `class` clamps
/// to the last (lowest-priority) class; both are counted in `stats`.
fn map_record(rec: &TraceRecord, scenario: &Scenario, stats: &mut RouteStats) -> TraceRecord {
    let mut r = *rec;
    let catalog_len = scenario.catalog.len() as u32;
    if catalog_len > 0 && r.item >= catalog_len {
        r.item %= catalog_len;
        stats.remapped_items += 1;
    }
    let last_class = scenario.classes.len().saturating_sub(1) as u8;
    if r.class > last_class {
        r.class = last_class;
        stats.remapped_classes += 1;
    }
    r
}

/// [`map_record`], then `channel` re-derived from `plan`.
fn route_record(
    rec: &TraceRecord,
    scenario: &Scenario,
    plan: &ChannelPlan,
    stats: &mut RouteStats,
) -> TraceRecord {
    let mut r = map_record(rec, scenario, stats);
    let channel = plan.channel_of(ItemId(r.item));
    if channel != r.channel as u32 {
        stats.rerouted += 1;
    }
    r.channel = channel as u8;
    r
}

/// Classifies the *structural* mismatches between a trace header and the
/// replay config — the ones under which replayed books are not comparable
/// to the recording and a what-if answer would be silently garbage:
///
/// * catalog size (`num_items`) differs — item ids reinterpreted;
/// * service-class count differs — class ids and priorities reinterpreted;
/// * channel count differs — the plan re-routes every record;
/// * `unit_millis` differs while the trace carries deadlines — every
///   recorded wall-ms budget converts to a different number of broadcast
///   units, so timeouts fire at different virtual times.
///
/// A non-empty return must be a hard error unless the caller explicitly
/// opted in (`--allow-mismatch` / the what-if override seam). A plain
/// `config_hash` mismatch with an empty return (e.g. a changed pull
/// policy) stays a warning: the books remain well-defined, just different.
pub fn structural_mismatches(
    trace: &Trace,
    num_items: u32,
    num_classes: u8,
    channels: u32,
    unit_millis: f64,
) -> Vec<String> {
    let meta = &trace.meta;
    let mut out = Vec::new();
    if meta.num_items != num_items {
        out.push(format!(
            "catalog size: trace recorded num_items={}, replay config has {} — item ids would be reinterpreted",
            meta.num_items, num_items
        ));
    }
    if meta.num_classes != num_classes {
        out.push(format!(
            "service classes: trace recorded num_classes={}, replay config has {} — class ids and priorities would be reinterpreted",
            meta.num_classes, num_classes
        ));
    }
    if meta.channels != channels {
        out.push(format!(
            "channel count: trace recorded channels={}, replay config has {} — every record re-routes through the new plan",
            meta.channels, channels
        ));
    }
    if (unit_millis - meta.unit_millis).abs() > f64::EPSILON
        && trace.records.iter().any(|r| r.deadline_ms > 0)
    {
        out.push(format!(
            "unit_millis: trace recorded {} ms/unit, replay uses {} — recorded deadline budgets convert to a different number of broadcast units",
            meta.unit_millis, unit_millis
        ));
    }
    out
}

/// Replays the trace through the simulator: recorded arrivals in global
/// arrival order as the request source. The caller picks `params` (use
/// [`sim_params_for`] for a horizon covering the whole trace).
pub fn replay_simulator(
    scenario: &Scenario,
    hybrid: &HybridConfig,
    params: &SimParams,
    trace: &Trace,
) -> SimReport {
    simulate_with_source(
        scenario,
        hybrid,
        params,
        Box::new(ReplaySource::new(replay_requests(scenario, trace))),
    )
}

/// The trace's requests in global arrival order, mapped into `scenario`'s
/// catalog and class table (out-of-range items fold back via
/// `item % catalog_len`, out-of-range classes clamp to the last class) —
/// the request stream sim-mode replay and the what-if harness drive. The
/// simulator routes items through its own channel plan, so the recorded
/// channel byte is irrelevant here.
pub fn replay_requests(scenario: &Scenario, trace: &Trace) -> Vec<Request> {
    let mut stats = RouteStats::default();
    trace
        .sorted_by_arrival()
        .into_iter()
        .map(|rec| {
            let r = map_record(&rec, scenario, &mut stats);
            Request {
                arrival: SimTime::new(r.arrival),
                item: ItemId(r.item),
                class: ClassId(r.class),
            }
        })
        .collect()
}

/// Computes the [`RouteStats`] replaying `trace` under `plan` would
/// incur, without running the replay — the what-if report's per-point
/// re-route accounting.
pub fn route_stats(trace: &Trace, scenario: &Scenario, plan: &ChannelPlan) -> RouteStats {
    let mut stats = RouteStats::default();
    for rec in &trace.records {
        route_record(rec, scenario, plan, &mut stats);
    }
    stats
}

/// Simulator params whose horizon comfortably covers every recorded
/// arrival (no warmup: a replay analyzes the whole incident).
pub fn sim_params_for(trace: &Trace) -> SimParams {
    let last = trace
        .records
        .iter()
        .map(|r| r.arrival)
        .fold(0.0f64, f64::max);
    SimParams {
        horizon: (last * 1.25 + 2_000.0).max(4_000.0),
        warmup: 0.0,
        replication: 0,
    }
}

/// Replays the trace through the daemon's scheduling discipline in virtual
/// time (see the module docs for the determinism argument). `unit_millis`
/// converts record deadlines (wall ms) into broadcast units and should be
/// the recording's `meta.unit_millis`.
pub fn replay_daemon(
    scenario: &Scenario,
    hybrid: &HybridConfig,
    unit_millis: f64,
    trace: &Trace,
) -> ReplayBooks {
    let sharded = ShardedScheduler::new(
        scenario.catalog.clone(),
        scenario.classes.clone(),
        hybrid,
        &scenario.factory,
    );
    let (schedulers, plan) = sharded.into_parts();
    let class_names: Vec<String> = scenario
        .classes
        .iter()
        .map(|(_, c)| c.name.clone())
        .collect();
    // Route every record through *this* config's plan rather than the
    // recorded channel byte: identical when replaying under the recording
    // config (the daemon routed by plan too), and the well-defined
    // re-route when an override changed the channel count or catalog.
    let mut stats = RouteStats::default();
    let mut grouped: Vec<Vec<TraceRecord>> = vec![Vec::new(); schedulers.len()];
    for rec in &trace.records {
        let routed = route_record(rec, scenario, &plan, &mut stats);
        grouped[routed.channel as usize].push(routed);
    }
    let mut per_channel = Vec::new();
    let mut per_class: Vec<ClassAcc> = class_names.iter().map(|_| ClassAcc::default()).collect();
    for (c, scheduler) in schedulers.into_iter().enumerate() {
        let uplink = hybrid.uplink.map(|cfg| {
            UplinkChannel::new(
                cfg,
                scenario.factory.stream(UPLINK_STREAM + c as u64),
                class_names.len(),
            )
        });
        let mut core = MiniCore::new(
            scheduler,
            uplink,
            unit_millis,
            class_names.len(),
            scenario.catalog.len(),
        );
        core.replay(&grouped[c]);
        per_channel.push(core.channel_book(c as u32));
        for (dst, src) in per_class.iter_mut().zip(&core.per_class) {
            dst.merge(src);
        }
    }
    let mut books = ReplayBooks {
        records: trace.records.len() as u64,
        channels: per_channel.len() as u32,
        conservation_ok: true,
        accepted: 0,
        served_push: 0,
        served_pull: 0,
        shed: 0,
        timed_out: 0,
        uplink_lost: 0,
        rerouted: stats.rerouted,
        remapped_items: stats.remapped_items,
        remapped_classes: stats.remapped_classes,
        per_channel,
        per_class: per_class
            .iter()
            .zip(&class_names)
            .map(|(a, name)| a.book(name))
            .collect(),
    };
    for ch in &books.per_channel {
        books.accepted += ch.accepted;
        books.served_push += ch.served_push;
        books.served_pull += ch.served_pull;
        books.shed += ch.shed;
        books.timed_out += ch.timed_out;
        books.uplink_lost += ch.uplink_lost;
        books.conservation_ok &= ch.conservation_ok;
    }
    books.conservation_ok &= books.accepted
        == books.served_push + books.served_pull + books.shed + books.timed_out + books.uplink_lost;
    books
}

#[derive(Default, Clone)]
struct ClassAcc {
    accepted: u64,
    served_push: u64,
    served_pull: u64,
    shed: u64,
    timed_out: u64,
    uplink_lost: u64,
    wait_sum: f64,
}

impl ClassAcc {
    fn merge(&mut self, other: &ClassAcc) {
        self.accepted += other.accepted;
        self.served_push += other.served_push;
        self.served_pull += other.served_pull;
        self.shed += other.shed;
        self.timed_out += other.timed_out;
        self.uplink_lost += other.uplink_lost;
        self.wait_sum += other.wait_sum;
    }

    fn book(&self, name: &str) -> ClassBook {
        let served = self.served_push + self.served_pull;
        ClassBook {
            name: name.to_string(),
            accepted: self.accepted,
            served_push: self.served_push,
            served_pull: self.served_pull,
            shed: self.shed,
            timed_out: self.timed_out,
            uplink_lost: self.uplink_lost,
            wait_mean_units: (served > 0).then(|| self.wait_sum / served as f64),
        }
    }
}

struct LiveReq {
    item: ItemId,
    class: ClassId,
    ingest: SimTime,
}

struct Inflight {
    tx: Transmission,
    batch: Vec<u64>,
}

/// One channel's virtual-time core: the daemon's `Core` minus sockets,
/// wall clock, and telemetry.
struct MiniCore {
    scheduler: HybridScheduler,
    uplink: Option<UplinkChannel>,
    unit_millis: f64,
    catalog_len: usize,
    live: HashMap<u64, LiveReq>,
    next_id: u64,
    push_waiters: Vec<(u64, SimTime)>,
    pull_waiters: HashMap<ItemId, Vec<u64>>,
    timeouts: BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
    deliveries: BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
    inflight: Option<Inflight>,
    /// Monotone virtual-time cursor (the daemon's ingest stamps can trail
    /// already-processed events; the same clamp keeps scheduler time
    /// non-decreasing here).
    cursor: SimTime,
    accepted: u64,
    shed: u64,
    timed_out: u64,
    uplink_lost: u64,
    served_push: u64,
    served_pull: u64,
    push_tx: u64,
    pull_tx: u64,
    per_class: Vec<ClassAcc>,
}

impl MiniCore {
    fn new(
        scheduler: HybridScheduler,
        uplink: Option<UplinkChannel>,
        unit_millis: f64,
        num_classes: usize,
        catalog_len: usize,
    ) -> MiniCore {
        MiniCore {
            scheduler,
            uplink,
            unit_millis,
            catalog_len,
            live: HashMap::new(),
            next_id: 0,
            push_waiters: Vec::new(),
            pull_waiters: HashMap::new(),
            timeouts: BinaryHeap::new(),
            deliveries: BinaryHeap::new(),
            inflight: None,
            cursor: SimTime::ZERO,
            accepted: 0,
            shed: 0,
            timed_out: 0,
            uplink_lost: 0,
            served_push: 0,
            served_pull: 0,
            push_tx: 0,
            pull_tx: 0,
            per_class: (0..num_classes).map(|_| ClassAcc::default()).collect(),
        }
    }

    fn replay(&mut self, records: &[crate::trace::TraceRecord]) {
        for rec in records {
            let t = SimTime::new(rec.arrival);
            self.advance_to(t);
            self.ingest(rec);
            self.maybe_dispatch(self.cursor);
        }
        // End of trace: keep the schedule running until every live request
        // resolves, bounded deterministically (see DRAIN_CYCLES).
        let mut budget = self.live.len() * 2 + self.catalog_len * DRAIN_CYCLES + 64;
        while !self.live.is_empty() && budget > 0 {
            let Some(te) = self.next_event() else { break };
            self.step(te);
            self.maybe_dispatch(self.cursor);
            budget -= 1;
        }
        // Whatever is left could never be served under this config: shed
        // it, exactly like the daemon's drain-budget expiry.
        let leftovers: Vec<u64> = {
            let mut ids: Vec<u64> = self.live.keys().copied().collect();
            ids.sort_unstable();
            ids
        };
        for id in leftovers {
            if let Some(req) = self.live.remove(&id) {
                self.shed += 1;
                self.per_class[req.class.index()].shed += 1;
            }
        }
        self.push_waiters.clear();
        self.pull_waiters.clear();
    }

    fn tick(&mut self, t: SimTime) -> SimTime {
        if t > self.cursor {
            self.cursor = t;
        }
        self.cursor
    }

    fn next_event(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = self.inflight.as_ref().map(|i| i.tx.completes_at());
        if let Some(std::cmp::Reverse((due, _))) = self.timeouts.peek() {
            next = Some(next.map_or(*due, |w| w.min(*due)));
        }
        if let Some(std::cmp::Reverse((due, _))) = self.deliveries.peek() {
            next = Some(next.map_or(*due, |w| w.min(*due)));
        }
        next
    }

    fn advance_to(&mut self, t: SimTime) {
        while let Some(te) = self.next_event() {
            if te > t {
                break;
            }
            self.step(te);
            self.maybe_dispatch(self.cursor);
        }
    }

    /// Fires everything due at `te` in the daemon's per-tick order:
    /// deliveries, timeouts, completion.
    fn step(&mut self, te: SimTime) {
        self.tick(te);
        self.fire_deliveries(te);
        self.fire_timeouts(te);
        self.maybe_complete(te);
    }

    fn ingest(&mut self, rec: &crate::trace::TraceRecord) {
        self.accepted += 1;
        self.per_class[rec.class as usize].accepted += 1;
        let ingest = SimTime::new(rec.arrival);
        let id = self.next_id;
        self.next_id += 1;
        if rec.deadline_ms > 0 {
            let due = ingest + SimDuration::new(rec.deadline_ms as f64 / self.unit_millis);
            self.timeouts.push(std::cmp::Reverse((due, id)));
        }
        self.live.insert(
            id,
            LiveReq {
                item: ItemId(rec.item),
                class: ClassId(rec.class),
                ingest,
            },
        );
        match &mut self.uplink {
            Some(up) => match up.transmit(ClassId(rec.class)) {
                UplinkOutcome::Lost => {
                    let req = self.live.remove(&id).expect("just inserted");
                    self.uplink_lost += 1;
                    self.per_class[req.class.index()].uplink_lost += 1;
                }
                UplinkOutcome::Delivered(latency) => {
                    self.deliveries
                        .push(std::cmp::Reverse((ingest + latency, id)));
                }
            },
            None => self.route(id, ingest),
        }
    }

    fn route(&mut self, id: u64, arrival: SimTime) {
        let arrival = self.tick(arrival);
        let req = &self.live[&id];
        let (item, class) = (req.item, req.class);
        match self.scheduler.on_request(&Request {
            arrival,
            item,
            class,
        }) {
            Disposition::PushIgnored => self.push_waiters.push((id, arrival)),
            Disposition::Queued => self.pull_waiters.entry(item).or_default().push(id),
        }
    }

    fn fire_deliveries(&mut self, now: SimTime) {
        while let Some(std::cmp::Reverse((due, id))) = self.deliveries.peek().copied() {
            if due > now {
                break;
            }
            self.deliveries.pop();
            if !self.live.contains_key(&id) {
                continue; // timed out while on the uplink
            }
            self.route(id, due);
        }
    }

    fn fire_timeouts(&mut self, now: SimTime) {
        while let Some(std::cmp::Reverse((due, id))) = self.timeouts.peek().copied() {
            if due > now {
                break;
            }
            self.timeouts.pop();
            let Some(req) = self.live.remove(&id) else {
                continue;
            };
            self.timed_out += 1;
            self.per_class[req.class.index()].timed_out += 1;
        }
    }

    fn maybe_dispatch(&mut self, now: SimTime) {
        if self.inflight.is_some() {
            return;
        }
        let demand = !self.scheduler.queue().is_empty() || !self.push_waiters.is_empty();
        if !demand {
            return;
        }
        let (tx, dropped) = self.scheduler.next_transmission(now);
        for entry in dropped {
            let ids = self.pull_waiters.remove(&entry.item).unwrap_or_default();
            for id in ids {
                if let Some(req) = self.live.remove(&id) {
                    self.shed += 1;
                    self.per_class[req.class.index()].shed += 1;
                }
            }
            self.scheduler.recycle(entry);
        }
        if let Some(tx) = tx {
            let batch = if tx.kind == TxKind::Pull {
                self.pull_waiters.remove(&tx.item).unwrap_or_default()
            } else {
                Vec::new()
            };
            self.inflight = Some(Inflight { tx, batch });
        }
    }

    fn maybe_complete(&mut self, now: SimTime) {
        let done = match &self.inflight {
            Some(inf) => now.reached(inf.tx.completes_at()),
            None => return,
        };
        if !done {
            return;
        }
        let inf = self.inflight.take().expect("checked above");
        let at = inf.tx.completes_at();
        let (item, kind, start) = (inf.tx.item, inf.tx.kind, inf.tx.start);
        let entry = self.scheduler.complete_transmission(inf.tx);
        match kind {
            TxKind::Push => {
                self.push_tx += 1;
                let waiters = std::mem::take(&mut self.push_waiters);
                for (id, arrival) in waiters {
                    let satisfied = match self.live.get(&id) {
                        Some(req) => req.item == item && arrival <= start,
                        None => continue,
                    };
                    if satisfied {
                        self.serve_one(id, at, TxKind::Push);
                    } else {
                        self.push_waiters.push((id, arrival));
                    }
                }
            }
            TxKind::Pull => {
                self.pull_tx += 1;
                let entry = entry.expect("pull transmissions carry their batch");
                for id in inf.batch {
                    if self.live.contains_key(&id) {
                        self.serve_one(id, at, TxKind::Pull);
                    }
                }
                self.scheduler.recycle(entry);
            }
        }
    }

    fn serve_one(&mut self, id: u64, at: SimTime, kind: TxKind) {
        let Some(req) = self.live.remove(&id) else {
            return;
        };
        let wait = at.since(req.ingest).as_f64();
        let acc = &mut self.per_class[req.class.index()];
        match kind {
            TxKind::Push => {
                self.served_push += 1;
                acc.served_push += 1;
            }
            TxKind::Pull => {
                self.served_pull += 1;
                acc.served_pull += 1;
            }
        }
        acc.wait_sum += wait;
    }

    fn channel_book(&self, channel: u32) -> ChannelBook {
        let answered =
            self.served_push + self.served_pull + self.shed + self.timed_out + self.uplink_lost;
        ChannelBook {
            channel,
            accepted: self.accepted,
            served_push: self.served_push,
            served_pull: self.served_pull,
            shed: self.shed,
            timed_out: self.timed_out,
            uplink_lost: self.uplink_lost,
            push_tx: self.push_tx,
            pull_tx: self.pull_tx,
            conservation_ok: answered == self.accepted && self.live.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceMeta, TraceRecord, VERSION};
    use hybridcast_workload::scenario::ScenarioConfig;

    fn scenario() -> Scenario {
        ScenarioConfig::icpp2005(0.6).with_seed(7).build()
    }

    fn synthetic_trace(channels: u32, n: u64) -> Trace {
        let scenario = scenario();
        let records = (0..n)
            .map(|i| {
                let item = (i * 13 % scenario.catalog.len() as u64) as u32;
                TraceRecord {
                    arrival: i as f64 * 0.37,
                    item,
                    class: (i % 3) as u8,
                    channel: (item % channels) as u8,
                    deadline_ms: if i % 4 == 0 { 0 } else { 400 },
                }
            })
            .collect();
        Trace {
            meta: TraceMeta {
                version: VERSION,
                config_hash: 0,
                channels,
                plan_digest: 0,
                unit_millis: 1.0,
                num_items: scenario.catalog.len() as u32,
                num_classes: 3,
                default_deadline_ms: 0,
            },
            records,
        }
    }

    #[test]
    fn daemon_replay_is_deterministic_and_conserving() {
        let scenario = scenario();
        let hybrid = HybridConfig::default();
        let trace = synthetic_trace(1, 500);
        let a = replay_daemon(&scenario, &hybrid, 1.0, &trace);
        let b = replay_daemon(&scenario, &hybrid, 1.0, &trace);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "bit-identical books across replays"
        );
        assert!(a.conservation_ok, "{a:?}");
        assert_eq!(a.accepted, 500);
        assert!(a.served_push + a.served_pull > 0);
    }

    #[test]
    fn simulator_replay_is_deterministic() {
        let scenario = scenario();
        let hybrid = HybridConfig::default();
        let trace = synthetic_trace(1, 300);
        let params = sim_params_for(&trace);
        let a = replay_simulator(&scenario, &hybrid, &params, &trace);
        let b = replay_simulator(&scenario, &hybrid, &params, &trace);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        let generated: u64 = a.per_class.iter().map(|c| c.generated).sum();
        assert_eq!(generated, 300);
    }

    #[test]
    fn replay_under_recording_config_reroutes_nothing() {
        let scenario = scenario();
        let hybrid = HybridConfig::default();
        let trace = synthetic_trace(1, 200);
        let books = replay_daemon(&scenario, &hybrid, 1.0, &trace);
        assert_eq!(books.rerouted, 0);
        assert_eq!(books.remapped_items, 0);
        assert_eq!(books.remapped_classes, 0);
    }

    #[test]
    fn channel_override_reroutes_records_through_the_new_plan() {
        let scenario = scenario();
        // Trace recorded under 2 channels, replayed under the default
        // single-channel config: every record stamped channel 1 must
        // re-route to channel 0 instead of being dropped.
        let trace = synthetic_trace(2, 300);
        let stamped_off_zero = trace.records.iter().filter(|r| r.channel != 0).count() as u64;
        assert!(stamped_off_zero > 0, "test trace uses both channels");
        let books = replay_daemon(&scenario, &HybridConfig::default(), 1.0, &trace);
        assert_eq!(books.channels, 1);
        assert_eq!(books.rerouted, stamped_off_zero);
        assert_eq!(books.accepted, 300, "no record silently dropped");
        assert!(books.conservation_ok, "{books:?}");
    }

    #[test]
    fn out_of_catalog_items_are_folded_back_in() {
        let scenario = scenario();
        let n = scenario.catalog.len() as u32;
        let mut trace = synthetic_trace(1, 100);
        trace.meta.num_items = n + 50;
        for (i, rec) in trace.records.iter_mut().enumerate() {
            if i % 5 == 0 {
                rec.item = n + (i as u32 % 50);
            }
        }
        let books = replay_daemon(&scenario, &HybridConfig::default(), 1.0, &trace);
        assert_eq!(books.remapped_items, 20);
        assert_eq!(
            books.accepted, 100,
            "remapped records are replayed, not shed"
        );
        assert!(books.conservation_ok, "{books:?}");

        let params = sim_params_for(&trace);
        let report = replay_simulator(&scenario, &HybridConfig::default(), &params, &trace);
        let generated: u64 = report.per_class.iter().map(|c| c.generated).sum();
        assert_eq!(generated, 100, "sim replay ingests every remapped record");
    }

    /// A well-formed trace recorded under 5 classes, replayed under the
    /// 3-class scenario: class bytes 3 and 4 must clamp, not index.
    fn five_class_trace() -> Trace {
        let mut trace = synthetic_trace(1, 120);
        trace.meta.num_classes = 5;
        for (i, rec) in trace.records.iter_mut().enumerate() {
            rec.class = (i % 5) as u8;
        }
        trace
    }

    #[test]
    fn out_of_range_class_is_clamped_in_daemon_mode() {
        let books = replay_daemon(
            &scenario(),
            &HybridConfig::default(),
            1.0,
            &five_class_trace(),
        );
        assert_eq!(books.remapped_classes, 48, "classes 3 and 4 of every 5");
        assert_eq!(books.accepted, 120, "clamped records are replayed");
        assert_eq!(books.per_class[2].accepted, 24 + 48, "folded onto Class-C");
        assert!(books.conservation_ok, "{books:?}");
    }

    #[test]
    fn out_of_range_class_is_clamped_in_sim_mode() {
        let trace = five_class_trace();
        let params = sim_params_for(&trace);
        let report = replay_simulator(&scenario(), &HybridConfig::default(), &params, &trace);
        let generated: Vec<u64> = report.per_class.iter().map(|c| c.generated).collect();
        assert_eq!(generated, vec![24, 24, 24 + 48]);
    }

    #[test]
    fn structural_mismatch_classifier_flags_each_axis() {
        let trace = synthetic_trace(1, 50);
        let m = &trace.meta;
        // Matching config: clean.
        assert!(structural_mismatches(
            &trace,
            m.num_items,
            m.num_classes,
            m.channels,
            m.unit_millis
        )
        .is_empty());
        let items = structural_mismatches(&trace, m.num_items + 1, m.num_classes, 1, 1.0);
        assert_eq!(items.len(), 1, "{items:?}");
        assert!(items[0].contains("catalog size"));
        let classes = structural_mismatches(&trace, m.num_items, m.num_classes + 1, 1, 1.0);
        assert!(classes[0].contains("service classes"));
        let channels = structural_mismatches(&trace, m.num_items, m.num_classes, 4, 1.0);
        assert!(channels[0].contains("channel count"));
        // The synthetic trace carries deadlines, so a unit_millis change
        // is structural…
        let units = structural_mismatches(&trace, m.num_items, m.num_classes, 1, 2.0);
        assert!(units[0].contains("unit_millis"), "{units:?}");
        // …but not on a deadline-free trace.
        let mut free = trace.clone();
        for rec in &mut free.records {
            rec.deadline_ms = 0;
        }
        assert!(structural_mismatches(&free, m.num_items, m.num_classes, 1, 2.0).is_empty());
    }

    #[test]
    fn uplink_losses_are_reproduced_deterministically() {
        let scenario = scenario();
        let hybrid = HybridConfig {
            uplink: Some(hybridcast_core::uplink::UplinkConfig {
                slot_time: 0.1,
                success_prob: 0.7,
                max_attempts: 2,
                backoff_slots: 1.0,
            }),
            ..HybridConfig::default()
        };
        let trace = synthetic_trace(1, 400);
        let a = replay_daemon(&scenario, &hybrid, 1.0, &trace);
        let b = replay_daemon(&scenario, &hybrid, 1.0, &trace);
        assert_eq!(a.uplink_lost, b.uplink_lost);
        assert!(a.uplink_lost > 0, "p=0.7^2 losses expected over 400 reqs");
        assert!(a.conservation_ok);
    }
}
