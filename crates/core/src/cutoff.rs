//! Cutoff-point optimization.
//!
//! "Periodically the algorithm is executed for different cutoff-points and
//! obtains the optimal cutoff-point which minimizes the overall access time"
//! (§3). [`CutoffOptimizer`] sweeps `K` over a grid, simulates each value
//! (fanning the grid across threads; each point optionally averaged over
//! independent replications), and picks the argmin of a configurable
//! objective — the paper's headline objective is the **total prioritized
//! cost** `Σ_c q_c·E[delay_c]` (§5.3).
//!
//! A cutoff under which the objective's class completes *zero* requests is
//! not a free lunch — it is an unmeasurable configuration. The empty
//! [`hybridcast_sim::stats::Welford`] reports a mean of `0.0`, which
//! silently wins any argmin; [`Objective::evaluate`] therefore maps
//! zero-served reports to `+∞`, and the argmin orders non-finite values
//! last via `total_cmp` instead of panicking.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use hybridcast_workload::scenario::Scenario;

use crate::config::HybridConfig;
use crate::metrics::SimReport;
use crate::sim_driver::{simulate, SimParams};
use hybridcast_sim::stats::Welford;

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
            Objective::TotalPrioritizedCost => {
                // The sum silently drops any class with no completions —
                // a zero-served class makes the total incomparable.
                if report.per_class.iter().any(|c| c.delay.count == 0) {
                    f64::INFINITY
                } else {
                    report.total_prioritized_cost
                }
            }
            Objective::MeanDelay => {
                if report.overall_delay.count == 0 {
                    f64::INFINITY
                } else {
                    report.overall_delay.mean
                }
            }
            Objective::PremiumDelay => {
                let premium = &report.per_class[0];
                if premium.delay.count == 0 {
                    f64::INFINITY
                } else {
                    premium.delay.mean
                }
            }
        }
    }
}

/// One evaluated cutoff: the objective plus a compact per-K summary.
///
/// Deliberately does *not* retain the full [`SimReport`] — a sweep over a
/// large grid (each point possibly replicated) would otherwise hold every
/// per-class histogram and quantile estimator of every run alive at once.
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
    pub total_prioritized_cost: f64,
    /// Overall mean access delay, averaged across replications.
    pub overall_delay: f64,
    /// Per-class mean access delay, averaged across replications.
    pub per_class_delay: Vec<f64>,
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
    fn from_reports(objective: Objective, k: usize, reports: &[SimReport]) -> Self {
        assert!(!reports.is_empty());
        let n = reports.len() as f64;
        let classes = reports[0].per_class.len();
        let mut obj = Welford::new();
        let mut unmeasurable = false;
        let mut point = CutoffPoint {
            k,
            objective: 0.0,
            objective_ci95: 0.0,
            total_prioritized_cost: 0.0,
            overall_delay: 0.0,
            per_class_delay: vec![0.0; classes],
            per_class_blocking: vec![0.0; classes],
            served: 0,
            blocked: 0,
        };
        for r in reports {
            let value = objective.evaluate(r);
            if value.is_finite() {
                obj.push(value);
            } else {
                unmeasurable = true;
            }
            point.total_prioritized_cost += r.total_prioritized_cost / n;
            point.overall_delay += r.overall_delay.mean / n;
            for (c, cls) in r.per_class.iter().enumerate() {
                point.per_class_delay[c] += cls.delay.mean / n;
                point.per_class_blocking[c] += cls.blocking_probability / n;
            }
            point.served += r.total_served();
            point.blocked += r.total_blocked();
        }
        if unmeasurable {
            point.objective = f64::INFINITY;
        } else {
            point.objective = obj.mean();
            point.objective_ci95 = obj.ci95_halfwidth();
        }
        point
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

    /// Evaluates one cutoff: `replications` runs, reduced in order.
    fn evaluate_point(&self, scenario: &Scenario, base: &HybridConfig, k: usize) -> CutoffPoint {
        let cfg = base.with_cutoff(k);
        let reports: Vec<SimReport> = (0..self.replications)
            .map(|i| {
                simulate(
                    scenario,
                    &cfg,
                    &self.params.with_replication(self.params.replication + i),
                )
            })
            .collect();
        CutoffPoint::from_reports(self.objective, k, &reports)
    }

    /// Argmin over finished points: non-finite objectives order last
    /// (`total_cmp`), first minimum wins on exact ties.
    fn best_index(points: &[CutoffPoint]) -> usize {
        points
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.objective.total_cmp(&b.objective))
            .map(|(i, _)| i)
            .expect("non-empty")
    }

    /// Evaluates every cutoff in `ks`, fanning the grid across the thread
    /// pool, and returns the sweep. Each point is simulated with the same
    /// seeds the sequential path uses and the results are collected in
    /// grid order, so the sweep — `best_k` included — is **bit-identical**
    /// to [`CutoffOptimizer::sweep_serial`].
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
        let points: Vec<CutoffPoint> = ks
            .into_par_iter()
            .map(|k| self.evaluate_point(scenario, base, k))
            .collect();
        self.finish(points)
    }

    /// Single-threaded twin of [`CutoffOptimizer::sweep`], for speedup
    /// baselines and equivalence checks.
    ///
    /// # Panics
    /// Panics if `ks` is empty or contains a value beyond the catalog size.
    pub fn sweep_serial(
        &self,
        scenario: &Scenario,
        base: &HybridConfig,
        ks: impl IntoIterator<Item = usize>,
    ) -> CutoffSweep {
        let points: Vec<CutoffPoint> = ks
            .into_iter()
            .map(|k| self.evaluate_point(scenario, base, k))
            .collect();
        self.finish(points)
    }

    fn finish(&self, points: Vec<CutoffPoint>) -> CutoffSweep {
        assert!(!points.is_empty(), "cutoff sweep needs at least one K");
        CutoffSweep {
            objective: self.objective,
            replications: self.replications,
            best_index: Self::best_index(&points),
            points,
        }
    }

    /// Convenience: sweep `K` from `lo` to `hi` in steps of `step`.
    pub fn sweep_range(
        &self,
        scenario: &Scenario,
        base: &HybridConfig,
        lo: usize,
        hi: usize,
        step: usize,
    ) -> CutoffSweep {
        assert!(step > 0, "step must be positive");
        assert!(lo <= hi, "need lo ≤ hi");
        self.sweep(scenario, base, (lo..=hi).step_by(step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_workload::scenario::ScenarioConfig;

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
        let sweep = quick_optimizer(Objective::TotalPrioritizedCost)
            .sweep_range(&scenario, &base, 20, 80, 20);
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
            let sweep = quick_optimizer(objective).sweep(&scenario, &base, [0usize, 40]);
            let starved = &sweep.points[0];
            assert_eq!(starved.k, 0);
            assert_eq!(starved.served, 0, "K = 0 must serve nothing");
            assert!(
                starved.objective.is_infinite(),
                "{objective:?}: zero-served K must evaluate to +inf, got {}",
                starved.objective
            );
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
        let par = opt.sweep(&scenario, &base, [20usize, 40, 60, 80]);
        let ser = opt.sweep_serial(&scenario, &base, [20usize, 40, 60, 80]);
        assert_eq!(par, ser);
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
        // replicated parallel == replicated serial, bit for bit
        let ser = opt.sweep_serial(&scenario, &base, [20usize, 60]);
        assert_eq!(sweep, ser);
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
