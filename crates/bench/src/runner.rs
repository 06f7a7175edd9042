//! Replication-averaged simulation runs over a grid of configurations,
//! fanned out through core's one evaluator.

use serde::{Deserialize, Serialize};

use hybridcast_core::config::HybridConfig;
use hybridcast_core::experiment::evaluate;
use hybridcast_core::metrics::{ClassReport, SimReport};
use hybridcast_core::sim_driver::simulate;
use hybridcast_workload::scenario::{Scenario, ScenarioConfig};

use crate::scale::RunScale;

/// Replication-averaged per-class and aggregate figures for one
/// (scenario, scheduler) configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct AveragedReport {
    /// Mean access delay per class (broadcast units), class A first; NaN,
    /// never 0, when a replication's class served nothing.
    pub per_class_delay: Vec<f64>,
    /// Mean *pull-only* delay per class.
    pub per_class_pull_delay: Vec<f64>,
    /// Prioritized cost `q_c·E[delay_c]` per class; NaN, never 0, when a
    /// replication's class served nothing.
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
    /// Averages one configuration's per-replication reports (in
    /// replication order).
    pub fn from_reports(reports: &[SimReport]) -> Self {
        assert!(!reports.is_empty());
        let n = reports.len() as f64;
        let mean = |value: &dyn Fn(&SimReport) -> f64| {
            reports.iter().fold(0.0, |sum, r| sum + value(r) / n)
        };
        let per_class = |value: &dyn Fn(&ClassReport) -> f64| -> Vec<f64> {
            let classes = 0..reports[0].per_class.len();
            classes.map(|c| mean(&|r| value(&r.per_class[c]))).collect()
        };
        // A class that served nothing has no delay: NaN, never 0.
        let served =
            |cls: &ClassReport, value: f64| if cls.delay.count > 0 { value } else { f64::NAN };
        let mut overall = hybridcast_sim::stats::Welford::new();
        for r in reports {
            overall.push(r.overall_delay.mean);
        }
        AveragedReport {
            per_class_delay: per_class(&|cls| served(cls, cls.delay.mean)),
            per_class_pull_delay: per_class(&|cls| cls.pull_delay.mean),
            per_class_cost: per_class(&|cls| served(cls, cls.prioritized_cost)),
            per_class_blocking: per_class(&|cls| cls.blocking_probability),
            total_cost: mean(&|r| r.total_prioritized_cost),
            overall_delay: mean(&|r| r.overall_delay.mean),
            mean_queue_items: mean(&|r| r.mean_queue_items),
            per_class_p95: per_class(&|cls| cls.delay_p95.unwrap_or(f64::NAN)),
            overall_delay_ci95: overall.ci95_halfwidth(),
            replications: reports.len() as u64,
        }
    }
}

/// Simulates every cell's `(scenario, hybrid)` configuration for
/// `scale.replications` independent replications — every (cell,
/// replication) run through one [`evaluate`] — and averages each cell's
/// reports, preserving input order.
pub(crate) fn grid_run<T>(
    cells: Vec<T>,
    scale: &RunScale,
    config: impl Fn(&T) -> (ScenarioConfig, HybridConfig),
) -> Vec<(T, AveragedReport)> {
    let configs: Vec<(Scenario, HybridConfig)> = cells
        .iter()
        .map(|cell| {
            let (scenario, hybrid) = config(cell);
            (scenario.build(), hybrid)
        })
        .collect();
    let run = |(scenario, hybrid): &(Scenario, HybridConfig), r| {
        simulate(scenario, hybrid, &scale.params(r))
    };
    let reduce = |_: &_, reports: Vec<SimReport>| AveragedReport::from_reports(&reports);
    let reports = evaluate(&configs, scale.replications, run, reduce);
    cells.into_iter().zip(reports).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One configuration's replication-averaged report.
    fn averaged(
        scenario: &ScenarioConfig,
        hybrid: &HybridConfig,
        scale: &RunScale,
    ) -> AveragedReport {
        grid_run(vec![()], scale, |_| (scenario.clone(), hybrid.clone()))
            .remove(0)
            .1
    }

    #[test]
    fn grid_run_is_deterministic() {
        let scenario = ScenarioConfig::icpp2005(0.6);
        let hybrid = HybridConfig::paper(40, 0.5);
        let scale = RunScale::quick();
        let a = averaged(&scenario, &hybrid, &scale);
        let b = averaged(&scenario, &hybrid, &scale);
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
        let r = averaged(&scenario, &hybrid, &scale);
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
        let r = averaged(&scenario, &hybrid, &scale);
        assert!(r.overall_delay_ci95 > 0.0);
        for c in 0..3 {
            assert!(r.per_class_p95[c] >= r.per_class_delay[c] * 0.5);
        }
        let single = averaged(&scenario, &hybrid, &RunScale::quick());
        assert_eq!(single.overall_delay_ci95, 0.0);
    }

    #[test]
    fn a_class_that_served_nothing_averages_to_nan_not_zero() {
        let mut starved = HybridConfig::paper(0, 0.5);
        starved.bandwidth = hybridcast_core::bandwidth::BandwidthConfig::per_class(0.9, 2.0);
        let scale = RunScale {
            replications: 2,
            ..RunScale::quick()
        };
        let r = averaged(&ScenarioConfig::icpp2005(0.6), &starved, &scale);
        for (what, values) in [
            ("per_class_p95", &r.per_class_p95),
            ("per_class_delay", &r.per_class_delay),
            ("per_class_cost", &r.per_class_cost),
        ] {
            assert!(values.iter().all(|v| v.is_nan()), "{what}: {values:?}");
        }
    }

    /// The evaluator against the nested in-order loop: every cell, every
    /// replication, one after another on this thread.
    #[test]
    fn grid_preserves_order() {
        let scenario = ScenarioConfig::icpp2005(0.6);
        let scale = RunScale {
            replications: 2,
            ..RunScale::quick()
        };
        let ks = vec![20usize, 60, 40];
        let results = grid_run(ks.clone(), &scale, |&k| {
            (scenario.clone(), HybridConfig::paper(k, 0.5))
        });
        let built = scenario.build();
        let mut reference = Vec::new();
        for &k in &ks {
            let mut reports = Vec::new();
            for r in 0..scale.replications {
                reports.push(simulate(
                    &built,
                    &HybridConfig::paper(k, 0.5),
                    &scale.params(r),
                ));
            }
            reference.push((k, AveragedReport::from_reports(&reports)));
        }
        assert_eq!(results, reference);
    }
}
