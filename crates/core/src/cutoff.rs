//! Cutoff-point optimization.
//!
//! "Periodically the algorithm is executed for different cutoff-points and
//! obtains the optimal cutoff-point which minimizes the overall access time"
//! (§3). [`CutoffOptimizer`] sweeps `K` over a grid, simulates each value
//! through [`crate::experiment::evaluate`] (each point optionally averaged
//! over independent replications), and picks the argmin of a configurable
//! objective — the paper's headline objective is the **total prioritized
//! cost** `Σ_c q_c·E[delay_c]` (§5.3).
//!
//! A cutoff under which the objective's class completes *zero* requests is
//! not a free lunch — it is an unmeasurable configuration. The empty
//! [`hybridcast_sim::stats::Welford`] reports a mean of `0.0`, which
//! silently wins any argmin; [`Objective::evaluate`] therefore maps
//! zero-served reports to `+∞`, and the argmin
//! ([`crate::experiment::rank`]) orders non-finite values last via
//! `total_cmp` instead of panicking.

use serde::{Deserialize, Serialize};

use hybridcast_workload::scenario::Scenario;

use crate::config::HybridConfig;
use crate::experiment::{evaluate, rank};
use crate::metrics::SimReport;
use crate::sim_driver::{simulate, SimParams};
use hybridcast_sim::stats::{SummaryStats, Welford};

/// What the sweep minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Objective {
    /// `Σ_c q_c × E[delay_c]` — the paper's cost (§5.3).
    TotalPrioritizedCost,
    /// Plain mean access time over all requests.
    MeanDelay,
    /// Mean delay of the highest-priority class only.
    PremiumDelay,
}

impl Objective {
    /// Evaluates the objective on a finished report.
    ///
    /// A report in which the objective's class (any class, for the
    /// all-class objectives) served zero requests evaluates to `+∞`: an
    /// empty accumulator's `0.0` mean is an absence of evidence, not a
    /// perfect delay, and must never win the argmin.
    pub fn evaluate(&self, report: &SimReport) -> f64 {
        match self {
            Objective::TotalPrioritizedCost => total_cost(report),
            Objective::MeanDelay => measured(&report.overall_delay),
            Objective::PremiumDelay => measured(&report.per_class[0].delay),
        }
        .unwrap_or(f64::INFINITY)
    }
}

/// The mean of `s`, or `None` when it counted nothing: an empty
/// accumulator's `0.0` mean is an absence of evidence, not a perfect delay.
fn measured(s: &SummaryStats) -> Option<f64> {
    (s.count > 0).then_some(s.mean)
}

/// `Σ_c q_c × E[delay_c]`, or `None` when any class served nothing: the
/// sum silently drops a class with no completions, which makes the total
/// incomparable.
fn total_cost(report: &SimReport) -> Option<f64> {
    let every_class = report.per_class.iter().all(|c| c.delay.count > 0);
    every_class.then_some(report.total_prioritized_cost)
}

/// One evaluated cutoff: the objective plus a compact per-K summary.
///
/// Deliberately does *not* retain the full [`SimReport`] — a sweep keeps
/// only these scalars per point, so the finished curve stays cheap to
/// hold and serialize however large the grid.
///
/// A delay that some replication did not measure is `None` (`null` in
/// JSON), never `0.0` — the rule that makes [`Objective::evaluate`] `+∞`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CutoffPoint {
    /// The cutoff `K`.
    pub k: usize,
    /// Objective value at `K` (mean across replications; `+∞` when any
    /// replication was unmeasurable).
    pub objective: f64,
    /// 95% CI half-width of the objective across replications (0 with a
    /// single replication or a non-finite objective).
    pub objective_ci95: f64,
    /// `Σ_c q_c × E[delay_c]`, averaged across replications.
    pub total_prioritized_cost: Option<f64>,
    /// Overall mean access delay, averaged across replications.
    pub overall_delay: Option<f64>,
    /// Per-class mean access delay, averaged across replications.
    pub per_class_delay: Vec<Option<f64>>,
    /// Per-class blocking probability, averaged across replications.
    pub per_class_blocking: Vec<f64>,
    /// Requests served, summed across replications.
    pub served: u64,
    /// Requests blocked, summed across replications.
    pub blocked: u64,
}

impl CutoffPoint {
    /// Reduces the per-replication reports for one `K` (in replication
    /// order) into a point.
    ///
    /// # Panics
    /// Panics if `reports` is empty.
    pub fn from_reports(objective: Objective, k: usize, reports: &[SimReport]) -> Self {
        assert!(!reports.is_empty(), "need at least one replication");
        let n = reports.len() as f64;
        // The mean over the runs of a per-run value, `None` when any run
        // did not measure it.
        let mean = |value: &dyn Fn(&SimReport) -> Option<f64>| {
            reports
                .iter()
                .try_fold(0.0, |sum, r| Some(sum + value(r)? / n))
        };
        let values: Vec<f64> = reports.iter().map(|r| objective.evaluate(r)).collect();
        let (objective, objective_ci95) = if values.iter().all(|v| v.is_finite()) {
            let mut obj = Welford::new();
            values.iter().for_each(|&v| obj.push(v));
            (obj.mean(), obj.ci95_halfwidth())
        } else {
            (f64::INFINITY, 0.0)
        };
        let classes = 0..reports[0].per_class.len();
        CutoffPoint {
            k,
            objective,
            objective_ci95,
            total_prioritized_cost: mean(&total_cost),
            overall_delay: mean(&|r| measured(&r.overall_delay)),
            per_class_delay: classes
                .clone()
                .map(|c| mean(&|r| measured(&r.per_class[c].delay)))
                .collect(),
            per_class_blocking: classes
                .map(|c| {
                    let blocking =
                        |sum, r: &SimReport| sum + r.per_class[c].blocking_probability / n;
                    reports.iter().fold(0.0, blocking)
                })
                .collect(),
            served: reports.iter().map(SimReport::total_served).sum(),
            blocked: reports.iter().map(SimReport::total_blocked).sum(),
        }
    }
}

/// Result of a sweep: the winner plus the whole curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CutoffSweep {
    /// Objective that was minimized.
    pub objective: Objective,
    /// Replications averaged per point.
    #[serde(default = "default_replications")]
    pub replications: u64,
    /// Every evaluated point, in grid order.
    pub points: Vec<CutoffPoint>,
    /// Index into `points` of the minimizer.
    pub best_index: usize,
}

fn default_replications() -> u64 {
    1
}

impl CutoffSweep {
    /// The optimal point.
    pub fn best(&self) -> &CutoffPoint {
        &self.points[self.best_index]
    }

    /// The optimal cutoff `K*`.
    pub fn best_k(&self) -> usize {
        self.best().k
    }
}

/// Grid-search cutoff optimizer.
#[derive(Debug, Clone)]
pub struct CutoffOptimizer {
    objective: Objective,
    params: SimParams,
    replications: u64,
}

impl CutoffOptimizer {
    /// An optimizer minimizing `objective` with per-point run length
    /// `params` and a single replication per point.
    pub fn new(objective: Objective, params: SimParams) -> Self {
        CutoffOptimizer {
            objective,
            params,
            replications: 1,
        }
    }

    /// Averages each grid point over `r` independent replications
    /// (seeded `params.replication + i` as in [`crate::experiment`]), so
    /// the argmin compares means with confidence intervals instead of
    /// single-seed point estimates.
    ///
    /// # Panics
    /// Panics if `r == 0`.
    pub fn with_replications(mut self, r: u64) -> Self {
        assert!(r >= 1, "need at least one replication per point");
        self.replications = r;
        self
    }

    /// Evaluates every cutoff in `ks` through [`evaluate`] — every
    /// (K, replication) run fanned across the thread pool, each point
    /// reduced in replication order — and picks the [`rank`] argmin:
    /// non-finite objectives order last, the first minimum in grid order
    /// wins on exact ties.
    ///
    /// # Panics
    /// Panics if `ks` is empty or contains a value beyond the catalog size.
    pub fn sweep(
        &self,
        scenario: &Scenario,
        base: &HybridConfig,
        ks: impl IntoIterator<Item = usize>,
    ) -> CutoffSweep {
        let ks: Vec<usize> = ks.into_iter().collect();
        assert!(!ks.is_empty(), "cutoff sweep needs at least one K");
        let params = &self.params;
        let run = |&k: &usize, i| {
            let params = params.with_replication(params.replication + i);
            simulate(scenario, &base.with_cutoff(k), &params)
        };
        let reduce = |&k: &usize, reports: Vec<SimReport>| {
            CutoffPoint::from_reports(self.objective, k, &reports)
        };
        let points = evaluate(&ks, self.replications, run, reduce);
        let objectives: Vec<f64> = points.iter().map(|p| p.objective).collect();
        CutoffSweep {
            objective: self.objective,
            replications: self.replications,
            best_index: rank(&objectives)[0],
            points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_workload::scenario::ScenarioConfig;

    /// The in-order reference for [`CutoffOptimizer::sweep`]: every K, every
    /// replication, one after another on this thread.
    fn in_order_points(
        opt: &CutoffOptimizer,
        scenario: &Scenario,
        base: &HybridConfig,
        ks: &[usize],
    ) -> Vec<CutoffPoint> {
        let mut points = Vec::new();
        for &k in ks {
            let mut reports = Vec::new();
            for i in 0..opt.replications {
                let params = opt.params.with_replication(opt.params.replication + i);
                reports.push(simulate(scenario, &base.with_cutoff(k), &params));
            }
            points.push(CutoffPoint::from_reports(opt.objective, k, &reports));
        }
        points
    }

    fn quick_optimizer(obj: Objective) -> CutoffOptimizer {
        CutoffOptimizer::new(
            obj,
            SimParams {
                horizon: 3_000.0,
                warmup: 400.0,
                replication: 0,
            },
        )
    }

    #[test]
    fn sweep_covers_requested_grid() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let base = HybridConfig::paper(0, 0.5);
        let sweep = quick_optimizer(Objective::TotalPrioritizedCost).sweep(
            &scenario,
            &base,
            (20..=80).step_by(20),
        );
        let ks: Vec<usize> = sweep.points.iter().map(|p| p.k).collect();
        assert_eq!(ks, vec![20, 40, 60, 80]);
        assert!(ks.contains(&sweep.best_k()));
    }

    #[test]
    fn best_is_the_minimum() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let base = HybridConfig::paper(0, 0.5);
        let sweep =
            quick_optimizer(Objective::MeanDelay).sweep(&scenario, &base, [20usize, 50, 80]);
        let best = sweep.best().objective;
        for p in &sweep.points {
            assert!(best <= p.objective + 1e-12);
        }
    }

    #[test]
    fn objectives_extract_expected_fields() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let cfg = HybridConfig::paper(40, 0.5);
        let report = simulate(&scenario, &cfg, &SimParams::quick());
        assert_eq!(
            Objective::TotalPrioritizedCost.evaluate(&report),
            report.total_prioritized_cost
        );
        assert_eq!(
            Objective::MeanDelay.evaluate(&report),
            report.overall_delay.mean
        );
        assert_eq!(
            Objective::PremiumDelay.evaluate(&report),
            report.per_class[0].delay.mean
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_sweep_panics() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let base = HybridConfig::default();
        let _ = quick_optimizer(Objective::MeanDelay).sweep(&scenario, &base, []);
    }

    /// Regression for the zero-served argmin bug: a `K` under which the
    /// premium class completes zero requests must never win the sweep.
    ///
    /// At `K = 0` everything is pull, and with per-class partitions
    /// holding less than 1 bandwidth unit (demands are always ≥ 1) every
    /// pull transmission is inadmissible — nothing is ever served. The
    /// empty `Welford` reports mean `0.0`, so pre-fix the sweep evaluated
    /// `PremiumDelay(K = 0) = 0.0` and selected the cutoff that serves
    /// nobody over one that serves everyone.
    #[test]
    fn zero_served_cutoff_is_never_selected() {
        use crate::bandwidth::BandwidthConfig;
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let mut base = HybridConfig::paper(0, 0.5);
        base.bandwidth = BandwidthConfig::per_class(0.9, 2.0);
        for objective in [
            Objective::PremiumDelay,
            Objective::MeanDelay,
            Objective::TotalPrioritizedCost,
        ] {
            let sweep = quick_optimizer(objective).with_replications(2).sweep(
                &scenario,
                &base,
                [0usize, 40],
            );
            let [starved, served] = &sweep.points[..] else {
                panic!("two grid points");
            };
            assert_eq!(starved.k, 0);
            assert_eq!(starved.served, 0, "K = 0 must serve nothing");
            assert!(
                starved.objective.is_infinite(),
                "{objective:?}: zero-served K must evaluate to +inf, got {}",
                starved.objective
            );
            // Unmeasured delays are `None` (JSON `null`), never `0.0`.
            assert_eq!(starved.total_prioritized_cost, None);
            assert_eq!(starved.overall_delay, None);
            assert_eq!(starved.per_class_delay, vec![None; 3]);
            let json = serde_json::to_string(starved).expect("point serializes");
            assert!(
                json.contains(r#""total_prioritized_cost":null,"overall_delay":null,"per_class_delay":[null,null,null]"#),
                "{json}"
            );
            assert!(served.total_prioritized_cost.is_some());
            assert!(served.overall_delay.is_some());
            assert!(served.per_class_delay.iter().all(Option::is_some));
            assert_eq!(
                sweep.best_k(),
                40,
                "{objective:?}: sweep must not select the zero-served K"
            );
        }
    }

    /// The same starved K = 0 point as a report: a class that served
    /// nothing has no delay quantiles, and says so as `null`, never as a
    /// measured `0.0`.
    #[test]
    fn starved_classes_report_null_quantiles() {
        use crate::bandwidth::BandwidthConfig;
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let mut cfg = HybridConfig::paper(0, 0.5);
        cfg.bandwidth = BandwidthConfig::per_class(0.9, 2.0);
        let report = simulate(
            &scenario,
            &cfg,
            &quick_optimizer(Objective::MeanDelay).params,
        );
        assert_eq!(report.total_served(), 0);
        let json = serde_json::to_string(&report).expect("report serializes");
        for key in ["delay_p50", "delay_p95", "delay_p99"] {
            let null = format!("\"{key}\":null");
            assert_eq!(json.matches(&null).count(), 3, "{key} per class: {json}");
        }
    }

    /// All-unmeasurable grids must still return a sweep (NaN/∞ ordering
    /// instead of the old `partial_cmp(..).expect(..)` panic).
    #[test]
    fn all_infinite_objectives_do_not_panic() {
        use crate::bandwidth::BandwidthConfig;
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let mut base = HybridConfig::paper(0, 0.5);
        base.bandwidth = BandwidthConfig::per_class(0.9, 2.0);
        // Pure pull at every K = 0 grid point: nothing is measurable.
        let sweep = quick_optimizer(Objective::PremiumDelay).sweep(&scenario, &base, [0usize]);
        assert!(sweep.best().objective.is_infinite());
        assert_eq!(sweep.best_k(), 0);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let base = HybridConfig::paper(0, 0.5);
        let opt = quick_optimizer(Objective::TotalPrioritizedCost);
        let ks = [20usize, 40, 60, 80];
        let par = opt.sweep(&scenario, &base, ks);
        assert_eq!(par.points, in_order_points(&opt, &scenario, &base, &ks));
    }

    #[test]
    fn replicated_points_carry_confidence_intervals() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let base = HybridConfig::paper(0, 0.5);
        let opt = quick_optimizer(Objective::TotalPrioritizedCost).with_replications(3);
        let sweep = opt.sweep(&scenario, &base, [20usize, 60]);
        assert_eq!(sweep.replications, 3);
        for p in &sweep.points {
            assert!(p.objective.is_finite());
            assert!(p.objective_ci95 > 0.0, "K={}: spread across seeds", p.k);
            assert_eq!(p.per_class_delay.len(), 3);
        }
        // replicated parallel == the in-order loop, bit for bit
        assert_eq!(
            sweep.points,
            in_order_points(&opt, &scenario, &base, &[20, 60])
        );
    }

    #[test]
    fn sweep_round_trips_via_serde() {
        let scenario = ScenarioConfig::icpp2005(0.6).build();
        let base = HybridConfig::paper(0, 0.5);
        let sweep = quick_optimizer(Objective::MeanDelay).sweep(&scenario, &base, [20usize, 60]);
        let js = serde_json::to_string(&sweep).unwrap();
        let back: CutoffSweep = serde_json::from_str(&js).unwrap();
        assert_eq!(back, sweep);
    }
}
