//! Deterministic trace replay.
//!
//! Two replay targets, both pure functions of `(config, trace)`:
//!
//! * **Simulator replay** ([`replay_simulator`]): the trace becomes a
//!   [`ReplaySource`] set as [`Simulation::source`] — the recorded
//!   arrivals replace the Poisson generator, everything else (scheduler,
//!   bandwidth, uplink, metrics) is the standard simulator.
//! * **Daemon replay** ([`replay_daemon`]): drives the daemon's own
//!   per-channel state machine —
//!   [`ChannelCore`], the type `hybridcastd` runs — in *virtual time*:
//!   arrivals happen at their recorded stamps and every due event
//!   (delivery, deadline, completion) fires exactly when due. The books
//!   are a deterministic function of the trace: replaying the same trace
//!   twice is bit-identical (CI asserts this). They can still differ from
//!   the live run's, for one reason only: the daemon reports wall-clock
//!   tick *times* that depend on OS scheduling, so its events fire a
//!   little late. The state machine cannot differ — it is the same code —
//!   which is why the trace, not the run, is the reproducible artifact.
//!
//! Determinism argument for the daemon replay: each channel's records are
//! replayed in recorded order, which is the order the daemon's core
//! ingested them — so the uplink RNG (`UPLINK_STREAM + channel`, assigned
//! by the shared `channel_cores` constructor) sees the identical draw
//! sequence, and the core's heaps are keyed by `(time, id)` with ids
//! assigned in that same ingest order. The driver below reads no clock and
//! spawns no thread, and the core holds no unordered map: waiters sit in
//! per-item lists in filing order and leave with their item's
//! transmission, and the final shed sorts by id first.

use serde::Serialize;

use hybridcast_core::channel::{channel_cores, Books, ChannelCore, ChannelCounters};
use hybridcast_core::config::HybridConfig;
use hybridcast_core::metrics::SimReport;
use hybridcast_core::sharded::ChannelPlan;
use hybridcast_core::sim_driver::{SimParams, Simulation};
use hybridcast_sim::time::{SimDuration, SimTime};
use hybridcast_telemetry::NullSink;
use hybridcast_workload::catalog::ItemId;
use hybridcast_workload::classes::ClassId;
use hybridcast_workload::requests::{ReplaySource, Request};
use hybridcast_workload::scenario::Scenario;

use crate::trace::{Trace, TraceRecord};

/// After the last recorded arrival, a channel may take at most
/// `catalog × this + live × 2 + 64` further steps to its next due instant
/// before the remainder is shed — a deterministic stand-in for the
/// daemon's wall-clock drain budget. Each step fires at least one event
/// that is due: an uplink delivery, a live request's deadline or a
/// transmission's completion. Only reachable when deadline-less requests
/// can never be served, e.g. a pull request under `pull_per_push = 0`.
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
    pub per_channel: Vec<ChannelCounters>,
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
    Simulation {
        source: Some(Box::new(ReplaySource::new(replay_requests(
            scenario, trace,
        )))),
        ..Simulation::new(scenario, hybrid, params)
    }
    .run(&mut NullSink)
    .report
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
pub(crate) fn route_stats(trace: &Trace, scenario: &Scenario, plan: &ChannelPlan) -> RouteStats {
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
    let (cores, plan) = channel_cores(scenario, hybrid, || NullSink);
    // Route every record through *this* config's plan rather than the
    // recorded channel byte: identical when replaying under the recording
    // config (the daemon routed by plan too), and the well-defined
    // re-route when an override changed the channel count or catalog.
    // Each record goes straight to its channel's core, which fires every
    // event due by its arrival exactly when due and then ingests it: each
    // core sees its own records in recorded order, and the cores share
    // nothing, so interleaving them changes no core's books.
    let mut stats = RouteStats::default();
    let mut lanes: Vec<_> = cores.into_iter().map(|c| (c, SimTime::ZERO)).collect();
    for rec in &trace.records {
        let rec = route_record(rec, scenario, &plan, &mut stats);
        let (core, now) = &mut lanes[rec.channel as usize];
        let t = SimTime::new(rec.arrival);
        while let Some(due) = core.next_due().filter(|&due| due <= t) {
            fire(core, due);
        }
        let deadline = (rec.deadline_ms > 0)
            .then(|| t + SimDuration::new(rec.deadline_ms as f64 / unit_millis));
        let (item, class) = (ItemId(rec.item), ClassId(rec.class));
        core.ingest((), item, class, t, deadline, |_| {});
        core.dispatch(t, |_| {});
        *now = (*now).max(t);
    }
    let mut per_channel = Vec::new();
    let mut total = Books::new(scenario.classes.len());
    for (c, (mut core, mut now)) in lanes.into_iter().enumerate() {
        // End of trace: keep the schedule running until every live request
        // resolves, bounded deterministically (see DRAIN_CYCLES); what is
        // left could never be served under this config and is shed,
        // exactly like the daemon's drain-budget expiry.
        let mut budget = core.live() * 2 + scenario.catalog.len() * DRAIN_CYCLES + 64;
        while core.live() > 0 && budget > 0 {
            let Some(due) = core.next_due() else { break };
            fire(&mut core, due);
            now = now.max(due);
            budget -= 1;
        }
        core.shed_remaining(now, |_| {});
        per_channel.push(core.books().counters(c as u32, core.live() == 0));
        total += core.books();
    }
    ReplayBooks {
        records: trace.records.len() as u64,
        channels: per_channel.len() as u32,
        conservation_ok: total.total.conserves() && per_channel.iter().all(|ch| ch.conservation_ok),
        accepted: total.total.accepted,
        served_push: total.total.served_push,
        served_pull: total.total.served_pull,
        shed: total.total.shed,
        timed_out: total.total.timed_out,
        uplink_lost: total.total.uplink_lost,
        rerouted: stats.rerouted,
        remapped_items: stats.remapped_items,
        remapped_classes: stats.remapped_classes,
        per_channel,
        per_class: total
            .per_class
            .iter()
            .zip(scenario.classes.iter())
            .map(|(class, (_, spec))| ClassBook {
                name: spec.name.clone(),
                accepted: class.tally.accepted,
                served_push: class.tally.served_push,
                served_pull: class.tally.served_pull,
                shed: class.tally.shed,
                timed_out: class.tally.timed_out,
                uplink_lost: class.tally.uplink_lost,
                wait_mean_units: (class.tally.served() > 0)
                    .then(|| class.wait_sum / class.tally.served() as f64),
            })
            .collect(),
    }
}

/// Fires what is due at `due`, then offers the downlink. Nobody reads
/// the resolutions — the books are the output.
fn fire(core: &mut ChannelCore<(), NullSink>, due: SimTime) {
    core.advance(due, |_| {}, |_| {});
    core.dispatch(due, |_| {});
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

    /// A trace out of arrival order (several cores' records interleaved)
    /// gives the stream of the same records in order.
    #[test]
    fn replay_requests_come_in_arrival_order_either_way() {
        let sorted = synthetic_trace(1, 60);
        let mut shuffled = sorted.clone();
        shuffled.records.swap(3, 40);
        shuffled.records.swap(17, 18);
        assert!(!shuffled.records.is_sorted_by(|a, b| a.arrival <= b.arrival));
        let stream = replay_requests(&scenario(), &sorted);
        assert_eq!(replay_requests(&scenario(), &shuffled), stream);
        assert!(stream.is_sorted_by(|a, b| a.arrival <= b.arrival));
    }

    #[test]
    #[should_panic(expected = "finite stamps")]
    fn a_nan_stamp_is_refused_in_sim_mode() {
        let mut trace = synthetic_trace(1, 10);
        trace.records[4].arrival = f64::NAN;
        replay_requests(&scenario(), &trace);
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
