//! Replicated experiments with confidence-interval aggregation.
//!
//! A single simulation run is a point estimate: every delay and blocking
//! figure it reports carries sampling noise from one seed, and comparing
//! two policies on point estimates is statistically meaningless. This
//! module runs `R` *independent replications* — each with its own RNG
//! stream family derived via [`SimParams::with_replication`] — and reduces
//! them into a [`ReplicatedReport`] carrying, per class:
//!
//! * **across-replication statistics** of the per-replication mean delay,
//!   pull delay, blocking probability, and prioritized cost: mean,
//!   variance, and a 95% CI half-width (Student-t below 30 replications,
//!   see [`Welford::ci95_halfwidth`]) — the honest "error
//!   bar" on every reported number;
//! * **pooled per-request statistics** over all `R·n_r` served requests,
//!   obtained by reconstructing each replication's [`Welford`] accumulator
//!   from its serialized snapshot and merging them with the parallel
//!   Chan-et-al. reduction ([`Welford::merge`]).
//!
//! ## Determinism & parallelism
//!
//! Every configuration search in the workspace — this module's
//! replications, [`crate::cutoff::CutoffOptimizer::sweep`], the what-if
//! grid, the figure grids and the bench gates — runs through one
//! evaluator, [`evaluate`]: (point, replication) jobs fan out across
//! threads through one order-preserving `collect`, and each point's
//! results are then reduced in replication order (`r = 0, 1, …, R−1`).
//! The reduction never sees the thread schedule, so an aggregated report
//! is **bit-identical** to a plain in-order loop over the same runs — the
//! tests and the `replication_sweep` gate check exactly that. The searches
//! share one argmin, [`rank`]. Merge-order invariance of the underlying
//! Welford reduction (up to ulp-scale noise for variances) is
//! property-tested in `crates/core/tests/replication_equivalence.rs`.
//!
//! ## Seed derivation
//!
//! Replication `i` runs with
//! `params.with_replication(params.replication + i)`: the scenario's
//! master seed is mixed with the replication index
//! through a splitmix64 round ([`hybridcast_sim::rng::RngFactory`]), which
//! reseeds *every* stream family (arrivals, item choice, classes,
//! bandwidth, uplink) at once. A non-zero base `params.replication`
//! shifts the whole family, so disjoint replication blocks can be farmed
//! out to different machines without overlap.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use hybridcast_sim::stats::{SummaryStats, Welford};
use hybridcast_telemetry::{AggregatedSeries, TelemetryConfig, TimeSeries};
use hybridcast_workload::scenario::Scenario;

use crate::config::HybridConfig;
use crate::metrics::SimReport;
use crate::sim_driver::{simulate, simulate_telemetry, SimParams};

/// Across-replication and pooled statistics for one service class.
///
/// The `delay`/`pull_delay`/`blocking_probability`/`prioritized_cost`
/// snapshots treat *per-replication aggregates* as observations: their
/// `count` is the number of replications that produced a value (a
/// replication in which the class served zero requests contributes no mean
/// delay — see `count < replications` to detect starvation), their `ci95`
/// is the Student-t/normal half-width across replications. `pooled_delay`
/// instead pools every individual served request across all replications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedClassReport {
    /// Class name ("Class-A", ...).
    pub name: String,
    /// Priority weight `q_c`.
    pub priority: f64,
    /// Across-replication stats of the per-replication mean access delay.
    pub delay: SummaryStats,
    /// Across-replication stats of the per-replication mean pull delay.
    pub pull_delay: SummaryStats,
    /// Across-replication stats of the per-replication blocking
    /// probability.
    pub blocking_probability: SummaryStats,
    /// Across-replication stats of `q_c × E[delay_c]`.
    pub prioritized_cost: SummaryStats,
    /// Per-request delay statistics pooled over all replications
    /// ([`Welford::merge`], Chan et al.).
    pub pooled_delay: SummaryStats,
    /// Total requests generated across all replications.
    pub generated: u64,
    /// Total requests served across all replications.
    pub served: u64,
    /// Total requests blocked across all replications.
    pub blocked: u64,
}

/// CI-aggregated result of `R` independent replications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedReport {
    /// Number of independent replications reduced.
    pub replications: u64,
    /// Per-class aggregates, highest priority first.
    pub per_class: Vec<ReplicatedClassReport>,
    /// Across-replication stats of the per-replication overall mean delay.
    pub overall_delay: SummaryStats,
    /// Across-replication stats of `Σ_c q_c × E[delay_c]`.
    pub total_prioritized_cost: SummaryStats,
    /// Per-request overall delay pooled over all replications.
    pub pooled_overall_delay: SummaryStats,
}

impl ReplicatedReport {
    /// Reduces finished per-replication reports (in replication order)
    /// into the aggregate. The fold order is fixed, so the result is
    /// independent of how the reports were *produced* (threads, machines).
    ///
    /// # Panics
    /// Panics if `reports` is empty or the reports disagree on the class
    /// set.
    pub fn from_reports(reports: &[SimReport]) -> Self {
        assert!(!reports.is_empty(), "need at least one replication");
        let classes = reports[0].per_class.len();
        assert!(
            reports.iter().all(|r| r.per_class.len() == classes),
            "replications must share one class set"
        );
        let per_class = (0..classes)
            .map(|c| {
                let runs = || reports.iter().map(move |r| &r.per_class[c]);
                let served = || runs().filter(|cls| cls.delay.count > 0);
                let pulled = || runs().filter(|cls| cls.pull_delay.count > 0);
                ReplicatedClassReport {
                    name: reports[0].per_class[c].name.clone(),
                    priority: reports[0].per_class[c].priority,
                    delay: across(served().map(|cls| cls.delay.mean)),
                    pull_delay: across(pulled().map(|cls| cls.pull_delay.mean)),
                    blocking_probability: across(runs().map(|cls| cls.blocking_probability)),
                    prioritized_cost: across(served().map(|cls| cls.prioritized_cost)),
                    pooled_delay: pooled(runs().map(|cls| &cls.delay)),
                    generated: runs().map(|cls| cls.generated).sum(),
                    served: runs().map(|cls| cls.served).sum(),
                    blocked: runs().map(|cls| cls.blocked).sum(),
                }
            })
            .collect();
        let measured = reports.iter().filter(|r| r.overall_delay.count > 0);
        ReplicatedReport {
            replications: reports.len() as u64,
            per_class,
            overall_delay: across(measured.map(|r| r.overall_delay.mean)),
            total_prioritized_cost: across(reports.iter().map(|r| r.total_prioritized_cost)),
            pooled_overall_delay: pooled(reports.iter().map(|r| &r.overall_delay)),
        }
    }
}

/// Across-replication statistics: one observation per value, in order.
fn across(values: impl Iterator<Item = f64>) -> SummaryStats {
    let mut acc = Welford::new();
    values.for_each(|v| acc.push(v));
    acc.summary()
}

/// Per-request statistics pooled over the snapshots, merged in order.
fn pooled<'a>(snapshots: impl Iterator<Item = &'a SummaryStats>) -> SummaryStats {
    let mut acc = Welford::new();
    snapshots.for_each(|s| acc.merge(&Welford::from_summary(s)));
    acc.summary()
}

/// Runs every `(point, replication)` job and reduces each point's results.
///
/// The jobs — `replications` of them per point, point-major — go through
/// one order-preserving parallel map: `run(point, i)` receives the
/// replication index `i ∈ 0..replications`, and callers add their own base
/// (`params.replication + i`). `reduce` then sees each point's results in
/// replication order, points in input order, so the output is a pure
/// function of the inputs whatever the thread schedule.
pub fn evaluate<P: Sync, R: Send, O>(
    points: &[P],
    replications: u64,
    run: impl Fn(&P, u64) -> R + Sync,
    mut reduce: impl FnMut(&P, Vec<R>) -> O,
) -> Vec<O> {
    let jobs = points
        .iter()
        .flat_map(|p| (0..replications).map(move |i| (p, i)));
    let results: Vec<R> = jobs.into_par_iter().map(|(p, i)| run(p, i)).collect();
    let mut results = results.into_iter();
    points
        .iter()
        .map(|p| reduce(p, results.by_ref().take(replications as usize).collect()))
        .collect()
}

/// Indices of `costs` in ascending [`f64::total_cmp`] order, grid order
/// breaking ties: `rank(costs)[0]` is the argmin every configuration
/// search reports. `+∞` ranks after every finite cost, and NaN — of
/// either sign, where `total_cmp` alone would put a negative NaN first —
/// after `+∞`.
pub fn rank(costs: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (costs[a], costs[b]);
        a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(&b))
    });
    order
}

/// Runs replications `base, base+1, …, base+r−1` (where `base =
/// params.replication`) across the thread pool and reduces them into a
/// CI-aggregated report.
///
/// # Panics
/// Panics if `r == 0`.
pub fn run_replicated(
    scenario: &Scenario,
    hybrid: &HybridConfig,
    params: &SimParams,
    r: u64,
) -> ReplicatedReport {
    assert!(r >= 1, "need at least one replication");
    let run = |p: &SimParams, i| simulate(scenario, hybrid, &p.with_replication(p.replication + i));
    let reduce = |_: &_, reports: Vec<SimReport>| ReplicatedReport::from_reports(&reports);
    evaluate(&[*params], r, run, reduce).remove(0)
}

/// [`run_replicated`] plus a window-aligned [`AggregatedSeries`]: every
/// replication records the same fixed windows, and each per-window QoS
/// value becomes an across-replication summary with a 95% CI. Recording
/// is purely observational, so the report is bit-identical to
/// [`run_replicated`]'s.
///
/// # Panics
/// Panics if `r == 0`.
pub fn run_replicated_with_telemetry(
    scenario: &Scenario,
    hybrid: &HybridConfig,
    params: &SimParams,
    r: u64,
    telemetry: TelemetryConfig,
) -> (ReplicatedReport, AggregatedSeries) {
    assert!(r >= 1, "need at least one replication");
    let run = |p: &SimParams, i| {
        simulate_telemetry(
            scenario,
            hybrid,
            &p.with_replication(p.replication + i),
            telemetry,
        )
    };
    let reduce = |_: &_, runs: Vec<(SimReport, TimeSeries)>| {
        let (reports, series): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
        (
            ReplicatedReport::from_reports(&reports),
            AggregatedSeries::from_series(&series),
        )
    };
    evaluate(&[*params], r, run, reduce).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_workload::scenario::ScenarioConfig;

    fn setup() -> (Scenario, HybridConfig, SimParams) {
        (
            ScenarioConfig::icpp2005(0.6).build(),
            HybridConfig::paper(40, 0.5),
            SimParams::quick(),
        )
    }

    /// The in-order reference: replications `base, base+1, …` one after
    /// another on this thread.
    fn in_order(
        scenario: &Scenario,
        cfg: &HybridConfig,
        params: &SimParams,
        r: u64,
    ) -> Vec<SimReport> {
        (0..r)
            .map(|i| {
                simulate(
                    scenario,
                    cfg,
                    &params.with_replication(params.replication + i),
                )
            })
            .collect()
    }

    /// `evaluate` against the nested in-order loop it replaces, on a
    /// trivial job whose result names its (point, replication).
    #[test]
    fn evaluate_matches_the_nested_in_order_loop() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (n_points, replications) in [(1usize, 1u64), (7, 3), (4 * cores + 5, 3)] {
            let points: Vec<u64> = (0..n_points as u64).map(|p| p * 1_000).collect();
            let run = |&p: &u64, i: u64| p + i;
            let reduce = |&p: &u64, results: Vec<u64>| (p, results);
            let mut reference = Vec::new();
            for p in &points {
                let mut results = Vec::new();
                for i in 0..replications {
                    results.push(run(p, i));
                }
                reference.push(reduce(p, results));
            }
            assert_eq!(
                evaluate(&points, replications, run, reduce),
                reference,
                "{n_points} points x {replications} replications"
            );
        }
    }

    #[test]
    fn rank_orders_by_total_cmp_with_grid_order_breaking_ties() {
        assert_eq!(rank(&[]), Vec::<usize>::new());
        assert_eq!(rank(&[3.0, 1.0, 2.0, 1.0]), vec![1, 3, 2, 0]);
        // +∞ after every finite cost, NaN of either sign after +∞, ties in
        // grid order.
        let costs = [f64::NAN, f64::INFINITY, 5.0, f64::INFINITY, -f64::NAN, 5.0];
        assert_eq!(rank(&costs)[..4], [2, 5, 1, 3]);
        assert_eq!(rank(&[f64::NAN, f64::INFINITY])[0], 1);
        assert_eq!(rank(&[-f64::NAN, f64::NEG_INFINITY, 0.0]), vec![1, 2, 0]);
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let (scenario, cfg, params) = setup();
        let par = run_replicated(&scenario, &cfg, &params, 4);
        let reference = ReplicatedReport::from_reports(&in_order(&scenario, &cfg, &params, 4));
        assert_eq!(par, reference);
    }

    #[test]
    fn aggregates_cover_all_replications() {
        let (scenario, cfg, params) = setup();
        let rep = run_replicated(&scenario, &cfg, &params, 3);
        assert_eq!(rep.replications, 3);
        assert_eq!(rep.per_class.len(), 3);
        for c in &rep.per_class {
            assert_eq!(c.delay.count, 3, "{}: every replication served", c.name);
            assert!(c.delay.mean > 0.0);
            assert!(c.delay.ci95 > 0.0, "{}: spread across seeds", c.name);
            // pooled stats see every individual request
            assert_eq!(c.pooled_delay.count, c.served);
            assert!(c.served > 1_000);
        }
        assert_eq!(rep.overall_delay.count, 3);
        assert_eq!(
            rep.pooled_overall_delay.count,
            rep.per_class.iter().map(|c| c.served).sum::<u64>()
        );
    }

    #[test]
    fn pooled_mean_is_bit_identical_to_manual_merge() {
        let (scenario, cfg, params) = setup();
        let reports = in_order(&scenario, &cfg, &params, 3);
        let rep = ReplicatedReport::from_reports(&reports);
        let mut manual = Welford::new();
        for r in &reports {
            manual.merge(&Welford::from_summary(&r.per_class[0].delay));
        }
        assert_eq!(rep.per_class[0].pooled_delay.mean, manual.mean());
        assert_eq!(rep.per_class[0].pooled_delay.count, manual.count());
    }

    #[test]
    fn single_replication_has_zero_ci() {
        let (scenario, cfg, params) = setup();
        let rep = run_replicated(&scenario, &cfg, &params, 1);
        assert_eq!(rep.replications, 1);
        assert_eq!(rep.overall_delay.ci95, 0.0);
        // and matches the plain simulate() means exactly
        let single = simulate(&scenario, &cfg, &params);
        assert_eq!(rep.overall_delay.mean, single.overall_delay.mean);
        assert_eq!(rep.per_class[0].delay.mean, single.per_class[0].delay.mean);
    }

    #[test]
    fn base_replication_offsets_the_family() {
        let (scenario, cfg, params) = setup();
        let block0 = in_order(&scenario, &cfg, &params, 3);
        let block1 = in_order(&scenario, &cfg, &params.with_replication(1), 3);
        // overlapping indices produce identical runs; shifted ones differ
        assert_eq!(block0[1], block1[0]);
        assert_eq!(block0[2], block1[1]);
        assert_ne!(block0[0], block1[2]);
    }

    #[test]
    fn report_round_trips_via_serde() {
        let (scenario, cfg, params) = setup();
        let rep = run_replicated(&scenario, &cfg, &params, 2);
        let js = serde_json::to_string(&rep).unwrap();
        let back: ReplicatedReport = serde_json::from_str(&js).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn telemetry_replication_leaves_reports_untouched() {
        let (scenario, cfg, params) = setup();
        let plain = run_replicated(&scenario, &cfg, &params, 3);
        let (instrumented, series) =
            run_replicated_with_telemetry(&scenario, &cfg, &params, 3, TelemetryConfig::new(250.0));
        assert_eq!(plain, instrumented, "recording must be observational");
        assert_eq!(series.replications, 3);
        assert_eq!(series.window, 250.0);
        assert!(!series.windows.is_empty());
        // every window's across-replication arrival summary saw 3 values
        for w in &series.windows {
            for c in &w.per_class {
                assert_eq!(c.arrivals.count, 3);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_panics() {
        let (scenario, cfg, params) = setup();
        let _ = run_replicated(&scenario, &cfg, &params, 0);
    }
}
