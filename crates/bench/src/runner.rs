//! Replication-averaged simulation runs, parallelized with rayon.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use hybridcast_core::config::HybridConfig;
use hybridcast_core::metrics::SimReport;
use hybridcast_core::sim_driver::simulate;
use hybridcast_workload::scenario::ScenarioConfig;

use crate::scale::RunScale;

/// Replication-averaged per-class and aggregate figures for one
/// (scenario, scheduler) configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AveragedReport {
    /// Mean access delay per class (broadcast units), class A first.
    pub per_class_delay: Vec<f64>,
    /// Mean *pull-only* delay per class.
    pub per_class_pull_delay: Vec<f64>,
    /// Prioritized cost `q_c·E[delay_c]` per class.
    pub per_class_cost: Vec<f64>,
    /// Blocking probability per class.
    pub per_class_blocking: Vec<f64>,
    /// `Σ_c q_c·E[delay_c]`.
    pub total_cost: f64,
    /// Mean access delay over all classes.
    pub overall_delay: f64,
    /// Time-averaged distinct items in the pull queue (`E[L_pull]`).
    pub mean_queue_items: f64,
    /// 95th-percentile access delay per class (histogram quantile, within
    /// relative 2⁻⁷), averaged across replications; NaN, never 0, when a
    /// replication's class served nothing.
    pub per_class_p95: Vec<f64>,
    /// 95% CI half-width of the overall mean delay across replications
    /// (0 with a single replication).
    pub overall_delay_ci95: f64,
    /// Replications averaged.
    pub replications: u64,
}

impl AveragedReport {
    fn from_reports(reports: &[SimReport]) -> Self {
        assert!(!reports.is_empty());
        let n = reports.len() as f64;
        let classes = reports[0].per_class.len();
        let mut out = AveragedReport {
            per_class_delay: vec![0.0; classes],
            per_class_pull_delay: vec![0.0; classes],
            per_class_cost: vec![0.0; classes],
            per_class_blocking: vec![0.0; classes],
            total_cost: 0.0,
            overall_delay: 0.0,
            mean_queue_items: 0.0,
            per_class_p95: vec![0.0; classes],
            overall_delay_ci95: 0.0,
            replications: reports.len() as u64,
        };
        let mut overall = hybridcast_sim::stats::Welford::new();
        for r in reports {
            for (c, cls) in r.per_class.iter().enumerate() {
                out.per_class_delay[c] += cls.delay.mean / n;
                out.per_class_pull_delay[c] += cls.pull_delay.mean / n;
                out.per_class_cost[c] += cls.prioritized_cost / n;
                out.per_class_blocking[c] += cls.blocking_probability / n;
                out.per_class_p95[c] += cls.delay_p95.unwrap_or(f64::NAN) / n;
            }
            out.total_cost += r.total_prioritized_cost / n;
            out.overall_delay += r.overall_delay.mean / n;
            out.mean_queue_items += r.mean_queue_items / n;
            overall.push(r.overall_delay.mean);
        }
        out.overall_delay_ci95 = overall.ci95_halfwidth();
        out
    }
}

/// Simulates `hybrid` over `scenario` for `scale.replications` independent
/// replications (in parallel) and averages the reports.
pub fn averaged_run(
    scenario: &ScenarioConfig,
    hybrid: &HybridConfig,
    scale: &RunScale,
) -> AveragedReport {
    let built = scenario.build();
    let reports: Vec<SimReport> = (0..scale.replications)
        .into_par_iter()
        .map(|r| simulate(&built, hybrid, &scale.params(r)))
        .collect();
    AveragedReport::from_reports(&reports)
}

/// Runs a whole grid of configurations in parallel, preserving input order.
pub fn grid_run<T: Send>(
    cells: Vec<T>,
    f: impl Fn(&T) -> AveragedReport + Sync,
) -> Vec<(T, AveragedReport)> {
    cells
        .into_par_iter()
        .map(|cell| {
            let rep = f(&cell);
            (cell, rep)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averaged_run_is_deterministic() {
        let scenario = ScenarioConfig::icpp2005(0.6);
        let hybrid = HybridConfig::paper(40, 0.5);
        let scale = RunScale::quick();
        let a = averaged_run(&scenario, &hybrid, &scale);
        let b = averaged_run(&scenario, &hybrid, &scale);
        assert_eq!(a, b);
        assert_eq!(a.replications, 1);
        assert!(a.overall_delay > 0.0);
        assert_eq!(a.per_class_delay.len(), 3);
    }

    #[test]
    fn more_replications_change_nothing_structural() {
        let scenario = ScenarioConfig::icpp2005(0.6);
        let hybrid = HybridConfig::paper(40, 0.5);
        let scale = RunScale {
            replications: 2,
            ..RunScale::quick()
        };
        let r = averaged_run(&scenario, &hybrid, &scale);
        assert_eq!(r.replications, 2);
        // cost must equal Σ q_c·delay_c of the averaged values
        let manual: f64 = [3.0, 2.0, 1.0]
            .iter()
            .zip(&r.per_class_delay)
            .map(|(&q, &d)| q * d)
            .sum();
        assert!((r.total_cost - manual).abs() < 1e-9);
    }

    #[test]
    fn ci_and_p95_are_populated_with_replications() {
        let scenario = ScenarioConfig::icpp2005(0.6);
        let hybrid = HybridConfig::paper(40, 0.5);
        let scale = RunScale {
            replications: 3,
            ..RunScale::quick()
        };
        let r = averaged_run(&scenario, &hybrid, &scale);
        assert!(r.overall_delay_ci95 > 0.0);
        for c in 0..3 {
            assert!(r.per_class_p95[c] >= r.per_class_delay[c] * 0.5);
        }
        let single = averaged_run(&scenario, &hybrid, &RunScale::quick());
        assert_eq!(single.overall_delay_ci95, 0.0);
    }

    #[test]
    fn a_class_that_served_nothing_averages_to_nan_not_zero() {
        let mut starved = HybridConfig::paper(0, 0.5);
        starved.bandwidth = hybridcast_core::bandwidth::BandwidthConfig::per_class(0.9, 2.0);
        let r = averaged_run(&ScenarioConfig::icpp2005(0.6), &starved, &RunScale::quick());
        assert!(
            r.per_class_p95.iter().all(|p| p.is_nan()),
            "{:?}",
            r.per_class_p95
        );
    }

    #[test]
    fn grid_preserves_order() {
        let scenario = ScenarioConfig::icpp2005(0.6);
        let scale = RunScale::quick();
        let ks = vec![20usize, 60];
        let results = grid_run(ks, |&k| {
            averaged_run(&scenario, &HybridConfig::paper(k, 0.5), &scale)
        });
        assert_eq!(results[0].0, 20);
        assert_eq!(results[1].0, 60);
    }
}
