//! Trace-driven what-if sweeps: one recorded `HCT1` trace replayed
//! deterministically under a grid of modified configs, side-by-side.
//!
//! The paper tunes the push/pull cutoff offline against synthetic Zipf
//! arrivals; this module is the counterfactual layer over *recorded*
//! traffic instead. A [`WhatIfGrid`] enumerates candidate overrides of
//! the recording config — cutoff `K`, channel count `C`, assignment
//! strategy, bandwidth capacity, controller on/off — and
//! [`run_whatif`] replays the identical trace bytes under each
//! candidate through the simulator engine, pricing every point three
//! ways:
//!
//! * **measured QoS** — per-class delay mean/p95, blocking probability,
//!   and the single-tuner conflict rate straight off the replayed
//!   [`SimReport`];
//! * **KSY** — the candidate channel plan's partition cost against the
//!   balanced lower bound `(Σw)²/2C`
//!   ([`hybridcast_core::sharded::PlanPrice`]);
//! * **whole-run backlog-aware cost** ([`backlog_aware_cost`]) — the
//!   ranking key, identical to the adaptive bench's yardstick: per
//!   class `w_c · (delay_sum + pending · PERIOD) / generated`, so a
//!   config that strands requests cannot win on survivorship bias.
//!
//! **Mismatch semantics.** Replaying a trace under a config it was not
//! recorded with is the entire point of a what-if, so the seam is
//! *explicit*: [`run_whatif`] refuses traces whose catalog size or
//! class count disagrees with the replay scenario (item/class ids
//! would be silently reinterpreted) unless the caller passes
//! `allow_mismatch`, in which case out-of-range items are folded back
//! in (`item % catalog_len`), out-of-range classes clamp to the last
//! class, and the per-point [`RouteStats`] report how many records were
//! remapped and re-routed. Channel-count and
//! cutoff differences are not errors here — they are the override grid
//! itself — but each point's books still state how many records moved
//! channels relative to the recording.
//!
//! **Determinism contract.** Every point is a pure function of
//! `(scenario, base config, trace bytes, override)`: evaluating the
//! same point twice yields byte-identical serialized reports, which is
//! what lets the testkit oracle demand that the *recommended* config,
//! re-replayed standalone, reproduce its reported cost bit-for-bit.

use std::cmp::Ordering;

use serde::Serialize;

use hybridcast_core::adaptive::ControllerConfig;
use hybridcast_core::config::{AssignmentStrategy, ChannelLayout, HybridConfig};
use hybridcast_core::metrics::SimReport;
use hybridcast_core::sharded::{ChannelPlan, PlanPrice};
use hybridcast_core::sim_driver::{AdaptiveConfig, Simulation};
use hybridcast_telemetry::NullSink;
use hybridcast_workload::requests::ReplaySource;
use hybridcast_workload::scenario::Scenario;

use crate::digest::{fnv1a64, hex64};
use crate::replay::{
    replay_requests, route_stats, sim_params_for, structural_mismatches, RouteStats,
};
use crate::trace::Trace;

/// Starvation penalty per never-served request in the whole-run cost —
/// the adaptive controller's retune window (PR 9's yardstick), so
/// what-if rankings and controller regret are directly comparable.
pub const STARVATION_PERIOD: f64 = 250.0;

/// Whole-run analogue of the controller's windowed prioritized cost:
/// per class, `w_c · (delay_sum + pending · STARVATION_PERIOD) /
/// generated`, where `pending` counts every request that arrived but
/// was never served. The plain served-only cost would reward a
/// saturated pull queue for the few requests that *do* complete.
pub fn backlog_aware_cost(report: &SimReport) -> f64 {
    report
        .per_class
        .iter()
        .map(|c| {
            if c.generated == 0 {
                return 0.0;
            }
            let delay_sum = c.delay.mean * c.served as f64;
            let pending = c.generated.saturating_sub(c.served) as f64;
            c.priority * (delay_sum + pending * STARVATION_PERIOD) / c.generated as f64
        })
        .sum()
}

/// One candidate config: the fields it overrides relative to the base
/// (recording) config. `None` inherits the base value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OverrideSpec {
    /// Push/pull cutoff `K`.
    pub cutoff: Option<usize>,
    /// Broadcast channel count `C`.
    pub channels: Option<u32>,
    /// Item→channel assignment strategy.
    pub assignment: Option<AssignmentStrategy>,
    /// Admission bandwidth capacity (`bandwidth.total_capacity`).
    pub bandwidth: Option<f64>,
    /// Replay through the online cutoff controller instead of the
    /// static scheduler (single-channel only).
    pub adaptive: bool,
}

impl OverrideSpec {
    /// The point that changes nothing: replay under the base config.
    pub fn baseline() -> OverrideSpec {
        OverrideSpec {
            cutoff: None,
            channels: None,
            assignment: None,
            bandwidth: None,
            adaptive: false,
        }
    }

    /// The effective `(cutoff, channels, assignment)` this spec resolves
    /// to over `base`.
    pub fn effective(&self, base: &HybridConfig) -> (usize, u32, AssignmentStrategy) {
        (
            self.cutoff.unwrap_or(base.cutoff),
            self.channels.unwrap_or_else(|| base.channels.shard_count()),
            self.assignment.unwrap_or(base.channels.assignment()),
        )
    }

    /// Applies the override to `base`, producing the candidate config.
    /// Touching either channel axis rebuilds the layout as
    /// [`ChannelLayout::Sharded`] (`C = 1` stays bit-identical to the
    /// paper's interleaved single channel — the testkit asserts it).
    pub fn apply(&self, base: &HybridConfig) -> HybridConfig {
        let mut hybrid = base.clone();
        if let Some(k) = self.cutoff {
            hybrid.cutoff = k;
        }
        if self.channels.is_some() || self.assignment.is_some() {
            let (_, channels, assignment) = self.effective(base);
            hybrid.channels = ChannelLayout::Sharded {
                channels,
                assignment,
            };
        }
        if let Some(capacity) = self.bandwidth {
            hybrid.bandwidth.total_capacity = capacity;
        }
        hybrid
    }

    /// Compact human label, e.g. `K=30 C=2 pattern_aware ctl=off`.
    pub fn label(&self, base: &HybridConfig) -> String {
        let (k, c, assignment) = self.effective(base);
        let strategy = match assignment {
            AssignmentStrategy::Range => "range",
            AssignmentStrategy::Hash => "hash",
            AssignmentStrategy::PatternAware => "pattern_aware",
        };
        let bw = match self.bandwidth {
            Some(capacity) => format!(" bw={capacity}"),
            None => String::new(),
        };
        format!(
            "K={k} C={c} {strategy}{bw} ctl={}",
            if self.adaptive { "on" } else { "off" }
        )
    }
}

/// The override grid: the cross product of every non-empty axis (an
/// empty axis inherits the base config's value). Points enumerate in a
/// fixed nesting order — cutoff, channels, assignment, bandwidth,
/// controller — so grid order, report order, and ranking tie-breaks
/// are all deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct WhatIfGrid {
    /// Candidate cutoffs `K` (empty = base cutoff only).
    pub cutoffs: Vec<usize>,
    /// Candidate channel counts `C` (empty = base layout only).
    pub channels: Vec<u32>,
    /// Candidate assignment strategies (empty = base strategy only).
    pub assignments: Vec<AssignmentStrategy>,
    /// Candidate bandwidth capacities (empty = base bandwidth only).
    pub bandwidths: Vec<f64>,
    /// Controller off/on legs (empty = off only).
    pub controller: Vec<bool>,
}

impl WhatIfGrid {
    /// Expands the grid into override points in deterministic order.
    pub fn points(&self) -> Vec<OverrideSpec> {
        fn axis<T: Copy>(values: &[T]) -> Vec<Option<T>> {
            if values.is_empty() {
                vec![None]
            } else {
                values.iter().copied().map(Some).collect()
            }
        }
        let cutoffs = axis(&self.cutoffs);
        let channels = axis(&self.channels);
        let assignments = axis(&self.assignments);
        let bandwidths = axis(&self.bandwidths);
        let controller = if self.controller.is_empty() {
            vec![false]
        } else {
            self.controller.clone()
        };
        let mut out = Vec::new();
        for &cutoff in &cutoffs {
            for &c in &channels {
                for &assignment in &assignments {
                    for &bandwidth in &bandwidths {
                        for &adaptive in &controller {
                            out.push(OverrideSpec {
                                cutoff,
                                channels: c,
                                assignment,
                                bandwidth,
                                adaptive,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// Per-class outcome of one replayed candidate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassOutcome {
    /// Class name.
    pub name: String,
    /// Priority weight `q_c`.
    pub priority: f64,
    /// Requests the trace generated for this class.
    pub generated: u64,
    /// Requests served under this candidate.
    pub served: u64,
    /// Admission blocking probability.
    pub blocking_probability: f64,
    /// Mean access time, broadcast units.
    pub delay_mean: f64,
    /// 95th-percentile access time, within relative 2⁻⁷ (`None` when
    /// the class served nothing).
    pub delay_p95: Option<f64>,
}

/// One fully-priced grid point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PointReport {
    /// Human label (`K=30 C=2 pattern_aware ctl=off`).
    pub label: String,
    /// The override that produced this point.
    pub spec: OverrideSpec,
    /// Effective cutoff.
    pub cutoff: usize,
    /// Effective channel count.
    pub channels: u32,
    /// Effective assignment strategy.
    pub assignment: AssignmentStrategy,
    /// Replayed through the online controller.
    pub adaptive: bool,
    /// Controller's final cutoff (adaptive points only).
    pub final_k: Option<usize>,
    /// Controller retune decisions taken (adaptive points only).
    pub retunes: Option<u64>,
    /// KSY pricing of the candidate channel plan.
    pub ksy: PlanPrice,
    /// Records re-routed/remapped relative to the recording.
    pub route: RouteStats,
    /// Requests served, all classes.
    pub served: u64,
    /// Requests generated, all classes.
    pub generated: u64,
    /// Single-tuner conflicts charged.
    pub conflicts: u64,
    /// `conflicts / (conflicts + push-served)`.
    pub conflict_rate: f64,
    /// Whole-run backlog-aware prioritized cost — the ranking key.
    pub cost: f64,
    /// Per-class outcomes, priority order.
    pub per_class: Vec<ClassOutcome>,
}

/// A grid point that could not be evaluated (e.g. controller × multi-
/// channel), with the reason it was skipped.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SkippedPoint {
    /// The point's label.
    pub label: String,
    /// Why it was skipped.
    pub reason: String,
}

/// The complete what-if report: every evaluated point in grid order,
/// the skips, and the ranking.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WhatIfReport {
    /// Hex config hash from the trace header.
    pub trace_config_hash: String,
    /// Records in the trace.
    pub records: u64,
    /// Channels the recording daemon ran.
    pub trace_channels: u32,
    /// Label of the base (inherit-everything) config.
    pub base_label: String,
    /// Structural mismatches acknowledged via `allow_mismatch` (empty
    /// on a clean trace/config pairing).
    pub mismatches: Vec<String>,
    /// The grid swept.
    pub grid: WhatIfGrid,
    /// Evaluated points, grid order.
    pub points: Vec<PointReport>,
    /// Skipped points, grid order.
    pub skipped: Vec<SkippedPoint>,
    /// Indices into `points` by ascending cost (ties: grid order).
    pub ranking: Vec<usize>,
    /// The winning point (`ranking[0]`), restated for direct access.
    pub recommendation: Option<PointReport>,
}

/// The controller configuration adaptive what-if points replay under:
/// the measured-feedback hill climber over the full catalog band, with
/// the same window the cost model penalizes starvation by.
pub fn whatif_adaptive_config(scenario: &Scenario) -> AdaptiveConfig {
    AdaptiveConfig {
        period: STARVATION_PERIOD,
        candidate_ks: vec![0], // unused on the controller path
        smoothing: 0.5,
        rerank: true,
        controller: Some(ControllerConfig {
            k_max: scenario.catalog.len(),
            ..ControllerConfig::default()
        }),
    }
}

/// Replays the trace under one override and prices the outcome.
/// Deterministic: same inputs, byte-identical serialized report.
pub fn evaluate_point(
    scenario: &Scenario,
    base: &HybridConfig,
    trace: &Trace,
    spec: &OverrideSpec,
) -> Result<PointReport, String> {
    let label = spec.label(base);
    let hybrid = spec.apply(base);
    let (cutoff, channels, assignment) = spec.effective(base);
    if spec.adaptive && channels > 1 {
        return Err(format!(
            "{label}: the online cutoff controller drives a single channel; \
             drop the controller leg or sweep C=1"
        ));
    }
    let params = sim_params_for(trace);
    let adaptive = spec.adaptive.then(|| whatif_adaptive_config(scenario));
    let out = Simulation {
        source: Some(Box::new(ReplaySource::new(replay_requests(
            scenario, trace,
        )))),
        adaptive: adaptive.as_ref(),
        ..Simulation::new(scenario, &hybrid, &params)
    }
    .run(&mut NullSink);
    let final_k = spec.adaptive.then_some(out.final_k);
    let retunes = spec.adaptive.then_some(out.retunes.len() as u64);
    let report = out.report;
    let plan = ChannelPlan::build(&scenario.catalog, channels, assignment);
    let route = route_stats(trace, scenario, &plan);
    let per_class: Vec<ClassOutcome> = report
        .per_class
        .iter()
        .map(|c| ClassOutcome {
            name: c.name.clone(),
            priority: c.priority,
            generated: c.generated,
            served: c.served,
            blocking_probability: c.blocking_probability,
            delay_mean: c.delay.mean,
            delay_p95: c.delay_p95,
        })
        .collect();
    Ok(PointReport {
        label,
        spec: *spec,
        cutoff,
        channels,
        assignment,
        adaptive: spec.adaptive,
        final_k,
        retunes,
        ksy: plan.price(),
        route,
        served: per_class.iter().map(|c| c.served).sum(),
        generated: per_class.iter().map(|c| c.generated).sum(),
        conflicts: report.conflicts,
        conflict_rate: report.conflict_rate,
        cost: backlog_aware_cost(&report),
        per_class,
    })
}

/// Runs the full what-if sweep serially in grid order.
///
/// Errors when the trace's catalog size or class count disagrees with
/// the replay scenario and `allow_mismatch` is false — under such a
/// mismatch every item/class id in the trace would be silently
/// reinterpreted, so proceeding must be an explicit decision.
pub fn run_whatif(
    scenario: &Scenario,
    base: &HybridConfig,
    trace: &Trace,
    grid: &WhatIfGrid,
    allow_mismatch: bool,
) -> Result<WhatIfReport, String> {
    // Channel count and unit_millis are passed back from the trace header
    // so only the id-reinterpreting axes (catalog, classes) can trip:
    // channel overrides are the grid itself, and the simulator engine
    // carries no wall-clock deadlines.
    let mismatches = structural_mismatches(
        trace,
        scenario.catalog.len() as u32,
        scenario.classes.len() as u8,
        trace.meta.channels,
        trace.meta.unit_millis,
    );
    if !mismatches.is_empty() && !allow_mismatch {
        return Err(format!(
            "trace/config structural mismatch:\n  {}\nre-run with --allow-mismatch to \
             acknowledge (out-of-range items fold back in via modulo and are counted)",
            mismatches.join("\n  ")
        ));
    }
    let mut points = Vec::new();
    let mut skipped = Vec::new();
    for spec in grid.points() {
        match evaluate_point(scenario, base, trace, &spec) {
            Ok(point) => points.push(point),
            Err(reason) => skipped.push(SkippedPoint {
                label: spec.label(base),
                reason,
            }),
        }
    }
    let mut ranking: Vec<usize> = (0..points.len()).collect();
    ranking.sort_by(|&a, &b| {
        points[a]
            .cost
            .partial_cmp(&points[b].cost)
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    });
    let recommendation = ranking.first().map(|&i| points[i].clone());
    Ok(WhatIfReport {
        trace_config_hash: hex64(trace.meta.config_hash),
        records: trace.records.len() as u64,
        trace_channels: trace.meta.channels,
        base_label: OverrideSpec::baseline().label(base),
        mismatches,
        grid: grid.clone(),
        points,
        skipped,
        ranking,
        recommendation,
    })
}

/// The deterministic artifact name for this `(trace, grid)` pairing:
/// `WHATIF_<hex>` with `<hex>` the FNV-1a of the trace's config hash
/// and the serialized grid — same sweep, same file.
pub fn whatif_hash(trace: &Trace, grid: &WhatIfGrid) -> String {
    let doc = format!(
        "{:016x}|{}",
        trace.meta.config_hash,
        serde_json::to_string(grid).expect("grid serializes")
    );
    hex64(fnv1a64(doc.as_bytes()))
}

/// Renders the ranked side-by-side text table.
pub fn render_table(report: &WhatIfReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "what-if over trace {} ({} records, {} channel(s)); base {}\n",
        report.trace_config_hash, report.records, report.trace_channels, report.base_label
    ));
    if !report.mismatches.is_empty() {
        out.push_str("acknowledged mismatches:\n");
        for m in &report.mismatches {
            out.push_str(&format!("  - {m}\n"));
        }
    }
    out.push_str(&format!(
        "{:>4}  {:<34} {:>12} {:>10} {:>8} {:>9} {:>9} {:>10} {:>9}\n",
        "rank",
        "config",
        "cost",
        "ksy_cost",
        "ksy_gap",
        "served",
        "blocked%",
        "conflict%",
        "rerouted"
    ));
    for (rank, &i) in report.ranking.iter().enumerate() {
        let p = &report.points[i];
        let blocked = if p.generated > 0 {
            100.0 * (1.0 - p.served as f64 / p.generated as f64)
        } else {
            0.0
        };
        let gap = p
            .ksy
            .gap
            .map(|g| format!("{:.1}%", g * 100.0))
            .unwrap_or_else(|| "n/a".into());
        out.push_str(&format!(
            "{:>4}  {:<34} {:>12.3} {:>10.3} {:>8} {:>9} {:>8.2}% {:>9.3}% {:>9}\n",
            rank + 1,
            p.label,
            p.cost,
            p.ksy.cost,
            gap,
            p.served,
            blocked,
            p.conflict_rate * 100.0,
            p.route.rerouted,
        ));
    }
    for s in &report.skipped {
        out.push_str(&format!("skip  {:<34} {}\n", s.label, s.reason));
    }
    if let Some(winner) = &report.recommendation {
        out.push_str(&format!(
            "recommendation: {} (cost {:.3})\n",
            winner.label, winner.cost
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceMeta, TraceRecord, VERSION};
    use hybridcast_workload::scenario::ScenarioConfig;

    fn scenario() -> Scenario {
        ScenarioConfig::icpp2005(0.6).with_seed(7).build()
    }

    fn trace(n: u64) -> Trace {
        let scenario = scenario();
        let records = (0..n)
            .map(|i| {
                let item = (i * 13 % scenario.catalog.len() as u64) as u32;
                TraceRecord {
                    arrival: i as f64 * 0.37,
                    item,
                    class: (i % 3) as u8,
                    channel: 0,
                    deadline_ms: 0,
                }
            })
            .collect();
        Trace {
            meta: TraceMeta {
                version: VERSION,
                config_hash: 0xfeed,
                channels: 1,
                plan_digest: 0,
                unit_millis: 1.0,
                num_items: scenario.catalog.len() as u32,
                num_classes: 3,
                default_deadline_ms: 0,
            },
            records,
        }
    }

    fn grid() -> WhatIfGrid {
        WhatIfGrid {
            cutoffs: vec![20, 40],
            channels: vec![1, 2],
            assignments: vec![AssignmentStrategy::Hash, AssignmentStrategy::PatternAware],
            bandwidths: vec![],
            controller: vec![],
        }
    }

    #[test]
    fn grid_expansion_is_the_cross_product_in_fixed_order() {
        let g = grid();
        let points = g.points();
        assert_eq!(points.len(), 8);
        assert_eq!(points[0].cutoff, Some(20));
        assert_eq!(points[0].channels, Some(1));
        assert_eq!(points[7].cutoff, Some(40));
        assert_eq!(points[7].assignment, Some(AssignmentStrategy::PatternAware));
        // Empty axes collapse to a single inherit point.
        assert_eq!(
            WhatIfGrid::default().points(),
            vec![OverrideSpec::baseline()]
        );
    }

    #[test]
    fn sweep_ranks_and_recommendation_reevaluates_bit_for_bit() {
        let scenario = scenario();
        let base = HybridConfig::default();
        let trace = trace(400);
        let report = run_whatif(&scenario, &base, &trace, &grid(), false).expect("clean trace");
        assert_eq!(report.points.len(), 8);
        assert_eq!(report.ranking.len(), 8);
        // Ranking is ascending in cost.
        for pair in report.ranking.windows(2) {
            assert!(report.points[pair[0]].cost <= report.points[pair[1]].cost);
        }
        let winner = report.recommendation.as_ref().expect("non-empty grid");
        // The oracle property: the winning point, re-evaluated standalone,
        // reproduces its reported books bit-for-bit.
        let again = evaluate_point(&scenario, &base, &trace, &winner.spec).expect("reevaluates");
        assert_eq!(
            serde_json::to_string(winner).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn structural_mismatch_is_refused_without_acknowledgement() {
        let scenario = scenario();
        let base = HybridConfig::default();
        let mut bad = trace(50);
        bad.meta.num_items += 10;
        for rec in bad.records.iter_mut().take(5) {
            rec.item = scenario.catalog.len() as u32 + 3;
        }
        let err = run_whatif(&scenario, &base, &bad, &grid(), false).unwrap_err();
        assert!(err.contains("structural mismatch"), "{err}");
        // Acknowledged: the sweep proceeds and counts the remaps.
        let report = run_whatif(&scenario, &base, &bad, &grid(), true).expect("acknowledged");
        assert!(!report.mismatches.is_empty());
        assert!(report.points.iter().all(|p| p.route.remapped_items == 5));
    }

    #[test]
    fn controller_points_are_skipped_on_multichannel_grids() {
        let scenario = scenario();
        let base = HybridConfig::default();
        let trace = trace(200);
        let g = WhatIfGrid {
            cutoffs: vec![30],
            channels: vec![1, 2],
            assignments: vec![],
            bandwidths: vec![],
            controller: vec![false, true],
        };
        let report = run_whatif(&scenario, &base, &trace, &g, false).expect("clean");
        // C=1 off, C=1 on, C=2 off evaluate; C=2 on is skipped.
        assert_eq!(report.points.len(), 3);
        assert_eq!(report.skipped.len(), 1);
        assert!(report.skipped[0].reason.contains("single channel"));
        let adaptive = report.points.iter().find(|p| p.adaptive).expect("ctl leg");
        assert!(adaptive.final_k.is_some());
    }

    #[test]
    fn whatif_hash_is_stable_and_grid_sensitive() {
        let t = trace(10);
        let a = whatif_hash(&t, &grid());
        assert_eq!(a, whatif_hash(&t, &grid()));
        let mut other = grid();
        other.cutoffs.push(60);
        assert_ne!(a, whatif_hash(&t, &other));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn table_renders_every_rank_and_the_recommendation() {
        let scenario = scenario();
        let base = HybridConfig::default();
        let trace = trace(200);
        let report = run_whatif(&scenario, &base, &trace, &grid(), false).expect("clean");
        let table = render_table(&report);
        // 8 ranked rows, plus the base label in the header and the
        // recommendation line.
        assert_eq!(table.matches("K=").count(), 8 + 2);
        assert!(table.contains("recommendation: "));
    }
}
