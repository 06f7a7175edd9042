//! One regenerator per paper figure (plus the ablations DESIGN.md calls
//! out). Each function returns a [`FigureData`] ready to print, CSV, or
//! JSON — the binaries in `src/bin/` and the `figures` bench target are
//! thin wrappers over these.

use hybridcast_analysis::erlang::PartitionBlockingModel;
use hybridcast_analysis::hybrid_model::HybridDelayModel;
use hybridcast_core::bandwidth::BandwidthConfig;
use hybridcast_core::config::HybridConfig;
use hybridcast_core::pull::PullPolicyKind;
use hybridcast_core::push::PushKind;
use hybridcast_core::sim_driver::AdaptiveConfig;
use hybridcast_workload::scenario::ScenarioConfig;

use crate::runner::{grid_run, AveragedReport};
use crate::scale::RunScale;
use crate::series::{FigureData, Series};

/// The paper's default cutoff grid for the K sweeps.
pub fn default_ks() -> Vec<usize> {
    (10..=90).step_by(10).collect()
}

/// The paper's α grid (§5.1, assumption 5).
pub const ALPHAS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The paper's θ grid (§5.1, assumption 4).
pub const THETAS: [f64; 4] = [0.2, 0.6, 1.0, 1.4];

const CLASS_NAMES: [&str; 3] = ["Class-A", "Class-B", "Class-C"];

/// The paper's scenario at skew `theta` with an overridable aggregate
/// arrival rate (λ′ = 5 is the §5.1 default; lighter loads land the
/// absolute delays in the paper's reported ranges — see EXPERIMENTS.md).
pub fn scenario_for(theta: f64, lambda: f64) -> ScenarioConfig {
    ScenarioConfig {
        arrival_rate: lambda,
        ..ScenarioConfig::icpp2005(theta)
    }
}

fn variant_suffix(theta: f64, lambda: f64) -> String {
    let mut s = String::new();
    if (theta - 0.6).abs() > 1e-9 {
        s.push_str(&format!("-th{:02}", (theta * 10.0).round() as u32));
    }
    if (lambda - 5.0).abs() > 1e-9 {
        s.push_str(&format!("-lam{:03}", (lambda * 10.0).round() as u32));
    }
    s
}

/// Figures 3/4 (and the §5.2 middle-α variants): per-class total delay vs
/// the cutoff K, at one (θ, α).
pub fn delay_vs_cutoff(
    theta: f64,
    lambda: f64,
    alpha: f64,
    ks: &[usize],
    scale: &RunScale,
) -> FigureData {
    let scenario = scenario_for(theta, lambda);
    let results = grid_run(ks.to_vec(), scale, |&k| {
        (scenario.clone(), HybridConfig::paper(k, alpha))
    });
    let xs: Vec<f64> = results.iter().map(|(k, _)| *k as f64).collect();
    let mut series = Vec::new();
    for (c, name) in CLASS_NAMES.iter().enumerate() {
        series.push(Series::new(
            *name,
            xs.clone(),
            results.iter().map(|(_, r)| r.per_class_delay[c]).collect(),
        ));
        series.push(Series::new(
            format!("{name} (pull-only)"),
            xs.clone(),
            results
                .iter()
                .map(|(_, r)| r.per_class_pull_delay[c])
                .collect(),
        ));
    }
    let id = if alpha == 0.0 {
        format!("fig3{}", variant_suffix(theta, lambda))
    } else if alpha == 1.0 {
        format!("fig4{}", variant_suffix(theta, lambda))
    } else {
        format!(
            "fig3b-alpha{:02}{}",
            (alpha * 100.0) as u32,
            variant_suffix(theta, lambda)
        )
    };
    FigureData {
        id,
        title: format!("Delay Variation with alpha = {alpha} (theta = {theta})"),
        x_label: "K".into(),
        y_label: "mean access delay [broadcast units]".into(),
        series,
        notes: format!(
            "Paper Figs. 3-4: per-class delay vs cutoff. theta={theta}, alpha={alpha}, \
             lambda'={lambda}, D=100, horizon={}, replications={}. Total delay includes the \
             class-independent flat-broadcast wait; the pull-only columns isolate the \
             differentiated component.",
            scale.horizon, scale.replications
        ),
    }
}

/// Figure 5: per-class prioritized cost vs cutoff at θ = 0.6 for one α.
pub fn cost_dynamics(
    theta: f64,
    lambda: f64,
    alpha: f64,
    ks: &[usize],
    scale: &RunScale,
) -> FigureData {
    let scenario = scenario_for(theta, lambda);
    let results = grid_run(ks.to_vec(), scale, |&k| {
        (scenario.clone(), HybridConfig::paper(k, alpha))
    });
    let xs: Vec<f64> = results.iter().map(|(k, _)| *k as f64).collect();
    let mut series = Vec::new();
    for (c, name) in CLASS_NAMES.iter().enumerate() {
        series.push(Series::new(
            *name,
            xs.clone(),
            results.iter().map(|(_, r)| r.per_class_cost[c]).collect(),
        ));
    }
    series.push(Series::new(
        "total",
        xs,
        results.iter().map(|(_, r)| r.total_cost).collect(),
    ));
    FigureData {
        id: format!(
            "fig5-alpha{:02}{}",
            (alpha * 100.0) as u32,
            variant_suffix(theta, lambda)
        ),
        title: format!("Cost Dynamics for Service Classes (alpha = {alpha}, theta = {theta})"),
        x_label: "K".into(),
        y_label: "prioritized cost q_c x E[delay_c]".into(),
        series,
        notes: format!(
            "Paper Fig. 5: prioritized cost vs cutoff; the total column is the \
             objective the cutoff optimizer minimizes. horizon={}, replications={}.",
            scale.horizon, scale.replications
        ),
    }
}

/// Figure 6: total *optimal* prioritized cost (min over K) vs α, one series
/// per θ.
pub fn cost_vs_alpha(
    thetas: &[f64],
    lambda: f64,
    alphas: &[f64],
    ks: &[usize],
    scale: &RunScale,
) -> FigureData {
    let mut series = Vec::new();
    for &theta in thetas {
        let scenario = scenario_for(theta, lambda);
        let cells: Vec<(f64, usize)> = alphas
            .iter()
            .flat_map(|&a| ks.iter().map(move |&k| (a, k)))
            .collect();
        let results = grid_run(cells, scale, |&(a, k)| {
            (scenario.clone(), HybridConfig::paper(k, a))
        });
        let ys: Vec<f64> = alphas
            .iter()
            .map(|&a| {
                results
                    .iter()
                    .filter(|((aa, _), _)| *aa == a)
                    .map(|(_, r)| r.total_cost)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        series.push(Series::new(format!("theta={theta}"), alphas.to_vec(), ys));
    }
    FigureData {
        id: format!("fig6{}", variant_suffix(0.6, lambda)),
        title: "Variation of Prioritized Cost".into(),
        x_label: "alpha".into(),
        y_label: "optimal total prioritized cost (min over K)".into(),
        series,
        notes: format!(
            "Paper Fig. 6: for each alpha the cutoff K is optimized over {ks:?}; \
             lower alpha = stronger priority influence. horizon={}, replications={}.",
            scale.horizon, scale.replications
        ),
    }
}

/// Figure 7: analytical model vs simulation, per class, θ = 0.6, α = 0.75.
pub fn analytic_vs_sim(
    theta: f64,
    lambda: f64,
    alpha: f64,
    ks: &[usize],
    scale: &RunScale,
) -> FigureData {
    let scenario_cfg = scenario_for(theta, lambda);
    let results = grid_run(ks.to_vec(), scale, |&k| {
        (scenario_cfg.clone(), HybridConfig::paper(k, alpha))
    });
    let xs: Vec<f64> = results.iter().map(|(k, _)| *k as f64).collect();

    let built = scenario_cfg.build();
    let model_delays: Vec<Vec<f64>> = ks
        .iter()
        .map(|&k| {
            HybridDelayModel::new(&built.catalog, &built.classes, built.arrival_rate, k)
                .with_alpha(alpha)
                .delays()
                .per_class
        })
        .collect();

    let mut series = Vec::new();
    for (c, name) in CLASS_NAMES.iter().enumerate() {
        series.push(Series::new(
            format!("{name} (sim)"),
            xs.clone(),
            results.iter().map(|(_, r)| r.per_class_delay[c]).collect(),
        ));
        series.push(Series::new(
            format!("{name} (model)"),
            xs.clone(),
            model_delays.iter().map(|d| d[c]).collect(),
        ));
    }
    FigureData {
        id: format!("fig7{}", variant_suffix(theta, lambda)),
        title: format!("Analytical Vs. Simulation Results (theta = {theta}, alpha = {alpha})"),
        x_label: "K".into(),
        y_label: "mean access delay [broadcast units]".into(),
        series,
        notes: format!(
            "Paper Fig. 7: simulation against the analytic hybrid-delay model \
             (rotation fixed point + Cobham class ratios; see \
             hybridcast-analysis::hybrid_model). horizon={}, replications={}.",
            scale.horizon, scale.replications
        ),
    }
}

/// CLAIM-BLOCK: per-class blocking probability as Class-A's bandwidth share
/// grows (remaining bandwidth split between B and C in 2:1).
pub fn blocking_vs_bandwidth(shares_a: &[f64], k: usize, scale: &RunScale) -> FigureData {
    let base = ScenarioConfig::icpp2005(0.6);
    let cells: Vec<f64> = shares_a.to_vec();
    let results = grid_run(cells, scale, |&share_a| {
        let rest = 1.0 - share_a;
        let classes = base
            .classes
            .with_bandwidth_shares(&[share_a, rest * 2.0 / 3.0, rest / 3.0]);
        let scenario = ScenarioConfig {
            classes,
            ..base.clone()
        };
        let hybrid = HybridConfig {
            cutoff: k,
            bandwidth: BandwidthConfig::per_class(6.0, 2.0),
            ..HybridConfig::paper(k, 0.5)
        };
        (scenario, hybrid)
    });
    let xs: Vec<f64> = results.iter().map(|(s, _)| *s).collect();
    let mut series: Vec<Series> = CLASS_NAMES
        .iter()
        .enumerate()
        .map(|(c, name)| {
            Series::new(
                *name,
                xs.clone(),
                results
                    .iter()
                    .map(|(_, r)| r.per_class_blocking[c])
                    .collect(),
            )
        })
        .collect();
    // Analytic Erlang-B overlay: ν_c approximated by splitting the total
    // pull-transmission rate by the probability that class c dominates a
    // mean-sized batch.
    {
        let built = base.clone().build();
        let model = HybridDelayModel::new(&built.catalog, &built.classes, built.arrival_rate, k);
        let nu_total = model.pull_service_rate();
        let mean_hold = model.mean_pull_length();
        let batch = {
            let w = model.rotation_wait();
            1.0 + built.arrival_rate * model.pull_mass() * w
                / (model.pull_service_rate().max(1e-9) * 1.0)
        };
        let shares: Vec<f64> = built
            .classes
            .iter()
            .map(|(_, c)| c.population_share)
            .collect();
        // P(dominant = c): no higher-priority requester in the batch, at
        // least one class-c requester.
        let dom = |c: usize| -> f64 {
            let higher: f64 = shares[..c].iter().sum();
            let upto: f64 = shares[..=c].iter().sum();
            (1.0 - higher).powf(batch) - (1.0 - upto).powf(batch)
        };
        let dom_norm: f64 = (0..shares.len()).map(dom).sum();
        for (c, name) in CLASS_NAMES.iter().enumerate() {
            let nu_c = nu_total * dom(c) / dom_norm.max(1e-12);
            let ys: Vec<f64> = shares_a
                .iter()
                .map(|&share_a| {
                    let rest = 1.0 - share_a;
                    let caps = [share_a * 6.0, rest * 2.0 / 3.0 * 6.0, rest / 3.0 * 6.0];
                    PartitionBlockingModel {
                        capacities: vec![caps[c]],
                        mean_demand: 2.0,
                        tx_rates: vec![nu_c],
                        mean_hold,
                    }
                    .blocking()[0]
                })
                .collect();
            series.push(Series::new(format!("{name} (Erlang-B)"), xs.clone(), ys));
        }
    }
    FigureData {
        id: "claim-block".into(),
        title: "Blocking vs Class-A bandwidth fraction".into(),
        x_label: "Class-A bandwidth share".into(),
        y_label: "blocking probability".into(),
        series,
        notes: format!(
            "Section 5 claim: premium blocking can be driven down by assigning it \
             an appropriate bandwidth fraction. Total capacity 6, Poisson demand \
             mean 2, K={k}. horizon={}, replications={}.",
            scale.horizon, scale.replications
        ),
    }
}

/// ADAPT: the paper's periodic cutoff re-optimization against static
/// cutoffs. For each θ, an adaptive run starting from a deliberately bad
/// cutoff (K = 10) is compared with the best and worst static cutoffs on
/// the same grid.
pub fn adaptive_vs_static(thetas: &[f64], alpha: f64, scale: &RunScale) -> FigureData {
    use hybridcast_core::sim_driver::{SimParams, Simulation};
    use hybridcast_telemetry::NullSink;
    let ks = default_ks();
    let mut adaptive_cost = Vec::new();
    let mut static_best = Vec::new();
    let mut static_worst = Vec::new();
    let mut final_ks = Vec::new();
    for &theta in thetas {
        let scenario = scenario_for(theta, 5.0).build();
        let params = SimParams {
            horizon: scale.horizon,
            warmup: scale.warmup,
            replication: 0,
        };
        let adaptive = AdaptiveConfig {
            period: (scale.horizon / 10.0).max(250.0),
            candidate_ks: ks.clone(),
            smoothing: 0.5,
            rerank: false,
            controller: None,
        };
        let out = Simulation {
            adaptive: Some(&adaptive),
            ..Simulation::new(&scenario, &HybridConfig::paper(10, alpha), &params)
        }
        .run(&mut NullSink);
        adaptive_cost.push(out.report.total_prioritized_cost);
        final_ks.push(out.final_k as f64);
        let one_run = RunScale {
            replications: 1,
            ..*scale
        };
        let statics = grid_run(ks.clone(), &one_run, |&k| {
            (scenario_for(theta, 5.0), HybridConfig::paper(k, alpha))
        });
        let costs: Vec<f64> = statics.iter().map(|(_, r)| r.total_cost).collect();
        static_best.push(costs.iter().copied().fold(f64::INFINITY, f64::min));
        static_worst.push(costs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }
    let xs: Vec<f64> = thetas.to_vec();
    FigureData {
        id: "adapt-cutoff".into(),
        title: format!("Adaptive cutoff re-optimization vs static cutoffs (alpha = {alpha})"),
        x_label: "theta".into(),
        y_label: "total prioritized cost".into(),
        series: vec![
            Series::new("adaptive (from K=10)", xs.clone(), adaptive_cost),
            Series::new("best static K", xs.clone(), static_best),
            Series::new("worst static K", xs.clone(), static_worst),
            Series::new("adaptive final K", xs, final_ks),
        ],
        notes: format!(
            "Paper §3: \"periodically the algorithm is executed for different \
             cutoff-points and obtains the optimal cutoff-point\". The controller \
             re-estimates popularity/load each period and moves K via the analytic \
             model. horizon={}, replications=1.",
            scale.horizon
        ),
    }
}

/// ADAPT-DRIFT: under popularity drift, a static prefix push set goes
/// stale; the K-only controller helps a little, the re-ranking controller
/// tracks the hot set. X is the drift shift per epoch.
pub fn drift_tracking(shifts: &[usize], scale: &RunScale) -> FigureData {
    use hybridcast_core::sim_driver::{simulate, SimParams, Simulation};
    use hybridcast_telemetry::NullSink;
    use hybridcast_workload::requests::DriftConfig;
    let mut static_cost = Vec::new();
    let mut k_only_cost = Vec::new();
    let mut rerank_cost = Vec::new();
    for &shift in shifts {
        let scenario = ScenarioConfig {
            drift: (shift > 0).then_some(DriftConfig {
                period: 1_000.0,
                shift,
            }),
            ..scenario_for(1.0, 5.0)
        }
        .build();
        let cfg = HybridConfig::paper(40, 0.25);
        let params = SimParams {
            horizon: scale.horizon,
            warmup: scale.warmup,
            replication: 0,
        };
        static_cost.push(simulate(&scenario, &cfg, &params).total_prioritized_cost);
        for (rerank, costs) in [(false, &mut k_only_cost), (true, &mut rerank_cost)] {
            let adaptive = AdaptiveConfig {
                period: 400.0,
                candidate_ks: default_ks(),
                smoothing: 0.5,
                rerank,
                controller: None,
            };
            let run = Simulation {
                adaptive: Some(&adaptive),
                ..Simulation::new(&scenario, &cfg, &params)
            }
            .run(&mut NullSink);
            costs.push(run.report.total_prioritized_cost);
        }
    }
    let xs: Vec<f64> = shifts.iter().map(|&s| s as f64).collect();
    FigureData {
        id: "adapt-drift".into(),
        title: "Tracking popularity drift: static vs K-only vs re-ranking controller".into(),
        x_label: "ranks shifted per 1000-bu epoch".into(),
        y_label: "total prioritized cost".into(),
        series: vec![
            Series::new("static K=40", xs.clone(), static_cost),
            Series::new("adaptive K only", xs.clone(), k_only_cost),
            Series::new("adaptive re-ranking", xs, rerank_cost),
        ],
        notes: format!(
            "Abstract claim: \"the scheme dynamically computes the data access \
             probabilities\". theta=1.0, lambda'=5, drift period 1000 bu, retune \
             period 400 bu. horizon={}, replications=1.",
            scale.horizon
        ),
    }
}

/// UPLINK: the back-channel the architecture presumes, stressed. X is the
/// per-attempt uplink success probability; series show pull-request loss
/// and the delay penalty of retry latency.
pub fn uplink_stress(probs: &[f64], k: usize, scale: &RunScale) -> FigureData {
    use hybridcast_core::experiment::evaluate;
    use hybridcast_core::metrics::SimReport;
    use hybridcast_core::sim_driver::simulate;
    use hybridcast_core::uplink::UplinkConfig;
    let scenario = scenario_for(0.6, 5.0).build();
    let run = |&p: &f64, r| {
        let hybrid = HybridConfig {
            uplink: (p < 1.0).then_some(UplinkConfig {
                slot_time: 0.5,
                success_prob: p,
                max_attempts: 4,
                backoff_slots: 2.0,
            }),
            ..HybridConfig::paper(k, 0.25)
        };
        simulate(&scenario, &hybrid, &scale.params(r))
    };
    // The averaged figures, plus the uplink loss of replication 0.
    let reduce = |_: &f64, reports: Vec<SimReport>| {
        let lost: u64 = reports[0].uplink_lost.iter().sum();
        let generated: u64 = reports[0].per_class.iter().map(|c| c.generated).sum();
        let loss = if generated == 0 {
            0.0
        } else {
            lost as f64 / generated as f64
        };
        (AveragedReport::from_reports(&reports), loss)
    };
    let (results, loss): (Vec<AveragedReport>, Vec<f64>) =
        evaluate(probs, scale.replications, run, reduce)
            .into_iter()
            .unzip();
    let xs: Vec<f64> = probs.to_vec();
    FigureData {
        id: "uplink".into(),
        title: format!("Back-channel contention (K = {k})"),
        x_label: "per-attempt uplink success probability".into(),
        y_label: "broadcast units / fraction".into(),
        series: vec![
            Series::new(
                "overall delay",
                xs.clone(),
                results.iter().map(|r| r.overall_delay).collect(),
            ),
            Series::new(
                "Class-A delay",
                xs.clone(),
                results.iter().map(|r| r.per_class_delay[0]).collect(),
            ),
            Series::new("uplink loss fraction", xs, loss),
        ],
        notes: format!(
            "Section 2's \"limited back-channel\" modeled as slotted-ALOHA-style \
             retries (slot 0.5 bu, 4 attempts, backoff 2 slots). Push requests \
             bypass the uplink (clients simply keep listening). horizon={}, \
             replications={}.",
            scale.horizon, scale.replications
        ),
    }
}

/// CHURN: the paper's motivation quantified — per-class churn and the
/// priority-weighted retention (revenue proxy) as the importance blend α
/// moves from pure priority (0) to priority-blind stretch (1).
pub fn churn_vs_alpha(alphas: &[f64], k: usize, scale: &RunScale) -> FigureData {
    use hybridcast_core::churn::{ChurnConfig, ChurnReport};
    use hybridcast_core::sim_driver::{SimParams, Simulation};
    use hybridcast_telemetry::NullSink;
    let scenario = scenario_for(0.6, 5.0).build();
    let churn_cfg = ChurnConfig::default();
    let params = SimParams {
        horizon: scale.horizon,
        warmup: 0.0, // churn is a transient process; measure from t = 0
        replication: 0,
    };
    let results: Vec<ChurnReport> = alphas
        .iter()
        .map(|&alpha| {
            Simulation {
                churn: Some(&churn_cfg),
                ..Simulation::new(&scenario, &HybridConfig::paper(k, alpha), &params)
            }
            .run(&mut NullSink)
            .into()
        })
        .collect();
    let xs: Vec<f64> = alphas.to_vec();
    let mut series = vec![Series::new(
        "weighted retention",
        xs.clone(),
        results.iter().map(|r| r.weighted_retention).collect(),
    )];
    for (c, name) in CLASS_NAMES.iter().enumerate() {
        series.push(Series::new(
            format!("{name} churn"),
            xs.clone(),
            results.iter().map(|r| r.churn_per_class[c]).collect(),
        ));
    }
    FigureData {
        id: "churn".into(),
        title: format!("Churn vs importance blend (K = {k})"),
        x_label: "alpha".into(),
        y_label: "fraction".into(),
        series,
        notes: format!(
            "Section 1 motivation quantified: {} subscribers, per-class EMA-delay \
             tolerances {:?}, grace {} samples. Retention is the priority-weighted \
             alive fraction (revenue proxy). horizon={}, replications=1.",
            churn_cfg.total_clients, churn_cfg.tolerance, churn_cfg.grace_samples, scale.horizon
        ),
    }
}

/// ABL-POLICY: every pull policy at a fixed operating point. X is the
/// policy index; the mapping is in the notes.
pub fn policy_shootout(theta: f64, k: usize, alpha: f64, scale: &RunScale) -> FigureData {
    let mut kinds = PullPolicyKind::baselines();
    kinds.push(PullPolicyKind::importance(alpha));
    kinds.push(PullPolicyKind::ImportanceExpected {
        alpha,
        exponent: 2.0,
    });
    let labels: Vec<String> = kinds.iter().map(|p| format!("{p:?}")).collect();
    let scenario = ScenarioConfig::icpp2005(theta);
    let results = grid_run(kinds.clone(), scale, |kind| {
        (
            scenario.clone(),
            HybridConfig::paper(k, alpha).with_pull(*kind),
        )
    });
    let xs: Vec<f64> = (0..results.len()).map(|i| i as f64).collect();
    let series = vec![
        Series::new(
            "overall delay",
            xs.clone(),
            results.iter().map(|(_, r)| r.overall_delay).collect(),
        ),
        Series::new(
            "Class-A pull delay",
            xs.clone(),
            results
                .iter()
                .map(|(_, r)| r.per_class_pull_delay[0])
                .collect(),
        ),
        Series::new(
            "Class-C pull delay",
            xs.clone(),
            results
                .iter()
                .map(|(_, r)| r.per_class_pull_delay[2])
                .collect(),
        ),
        Series::new(
            "Class-A delay p95",
            xs.clone(),
            results.iter().map(|(_, r)| r.per_class_p95[0]).collect(),
        ),
        Series::new(
            "Class-C delay p95",
            xs.clone(),
            results.iter().map(|(_, r)| r.per_class_p95[2]).collect(),
        ),
        Series::new(
            "total cost",
            xs,
            results.iter().map(|(_, r)| r.total_cost).collect(),
        ),
    ];
    FigureData {
        id: "abl-policy".into(),
        title: format!("Pull-policy shoot-out (theta = {theta}, K = {k})"),
        x_label: "policy index".into(),
        y_label: "broadcast units / cost".into(),
        series,
        notes: format!(
            "Policies by index: {}. horizon={}, replications={}.",
            labels
                .iter()
                .enumerate()
                .map(|(i, l)| format!("{i}={l}"))
                .collect::<Vec<_>>()
                .join(", "),
            scale.horizon,
            scale.replications
        ),
    }
}

/// ABL-CHANNELS: the paper's single interleaved channel against a split
/// layout (dedicated broadcast channel + n parallel pull channels). Raw
/// capacity grows with the channel count — this quantifies what extra
/// downlink spectrum buys under the same scheduling policy.
pub fn channel_ablation(ks: &[usize], scale: &RunScale) -> FigureData {
    use hybridcast_core::config::ChannelLayout;
    let scenario = scenario_for(0.6, 5.0);
    let layouts = [
        ("interleaved", ChannelLayout::Interleaved),
        ("split-1", ChannelLayout::Split { pull_channels: 1 }),
        ("split-2", ChannelLayout::Split { pull_channels: 2 }),
        ("split-4", ChannelLayout::Split { pull_channels: 4 }),
    ];
    let mut series = Vec::new();
    for (label, layout) in layouts {
        let results = grid_run(ks.to_vec(), scale, |&k| {
            let hybrid = HybridConfig {
                channels: layout,
                ..HybridConfig::paper(k, 0.25)
            };
            (scenario.clone(), hybrid)
        });
        series.push(Series::new(
            label,
            results.iter().map(|(k, _)| *k as f64).collect(),
            results.iter().map(|(_, r)| r.overall_delay).collect(),
        ));
    }
    // analytic overlays for the interleaved and split-2 layouts
    {
        let built = scenario.build();
        let xs: Vec<f64> = ks.iter().map(|&k| k as f64).collect();
        let model_at = |k: usize, split: Option<u32>| {
            let mut m =
                HybridDelayModel::new(&built.catalog, &built.classes, built.arrival_rate, k)
                    .with_alpha(0.25);
            if let Some(n) = split {
                m = m.with_split_channels(n);
            }
            m.delays().overall
        };
        series.push(Series::new(
            "interleaved (model)",
            xs.clone(),
            ks.iter().map(|&k| model_at(k, None)).collect(),
        ));
        series.push(Series::new(
            "split-2 (model)",
            xs,
            ks.iter().map(|&k| model_at(k, Some(2))).collect(),
        ));
    }
    FigureData {
        id: "abl-channels".into(),
        title: "Channel-layout ablation: interleaved vs split downlink".into(),
        x_label: "K".into(),
        y_label: "overall mean access delay".into(),
        series,
        notes: format!(
            "Paper: one channel, one pull slot per push slot. Split-n adds a \
             dedicated broadcast channel plus n parallel pull channels (raw \
             capacity 1+n x). theta=0.6, alpha=0.25. horizon={}, replications={}.",
            scale.horizon, scale.replications
        ),
    }
}

/// ABL-STRETCH: the `R/L` vs `R/L²` design choice.
pub fn stretch_ablation(theta: f64, k: usize, scale: &RunScale) -> FigureData {
    let exponents = [0.5, 1.0, 1.5, 2.0, 3.0];
    let scenario = ScenarioConfig::icpp2005(theta);
    let results = grid_run(exponents.to_vec(), scale, |&exponent| {
        (
            scenario.clone(),
            HybridConfig::paper(k, 0.5).with_pull(PullPolicyKind::Importance {
                alpha: 0.5,
                exponent,
            }),
        )
    });
    let xs: Vec<f64> = exponents.to_vec();
    let series = vec![
        Series::new(
            "overall delay",
            xs.clone(),
            results.iter().map(|(_, r)| r.overall_delay).collect(),
        ),
        Series::new(
            "total cost",
            xs,
            results.iter().map(|(_, r)| r.total_cost).collect(),
        ),
    ];
    FigureData {
        id: "abl-stretch".into(),
        title: format!("Stretch-exponent ablation (theta = {theta}, K = {k})"),
        x_label: "length exponent in S_i = R_i/L_i^e".into(),
        y_label: "broadcast units / cost".into(),
        series,
        notes: format!(
            "DESIGN.md ABL-STRETCH: the paper fixes e = 2; this sweeps it. \
             horizon={}, replications={}.",
            scale.horizon, scale.replications
        ),
    }
}

/// ABL-PUSH: flat vs broadcast-disks vs square-root push scheduling.
pub fn push_ablation(theta: f64, ks: &[usize], scale: &RunScale) -> FigureData {
    let kinds = [
        ("flat", PushKind::Flat),
        ("bdisk-3", PushKind::BroadcastDisks { num_disks: 3 }),
        ("sqrt", PushKind::SquareRoot),
    ];
    let scenario = ScenarioConfig::icpp2005(theta);
    let mut series = Vec::new();
    for (label, kind) in kinds {
        let results = grid_run(ks.to_vec(), scale, |&k| {
            let hybrid = HybridConfig {
                push: kind,
                ..HybridConfig::paper(k, 0.5)
            };
            (scenario.clone(), hybrid)
        });
        series.push(Series::new(
            label,
            results.iter().map(|(k, _)| *k as f64).collect(),
            results.iter().map(|(_, r)| r.overall_delay).collect(),
        ));
    }
    FigureData {
        id: "abl-push".into(),
        title: format!("Push-scheduler ablation (theta = {theta})"),
        x_label: "K".into(),
        y_label: "overall mean access delay".into(),
        series,
        notes: format!(
            "DESIGN.md ABL-PUSH: the paper uses flat round-robin; popularity-aware \
             push schedules shift the optimum. horizon={}, replications={}.",
            scale.horizon, scale.replications
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunScale {
        RunScale {
            horizon: 1_200.0,
            warmup: 200.0,
            replications: 1,
        }
    }

    #[test]
    fn fig3_structure_and_class_ordering() {
        let fig = delay_vs_cutoff(0.6, 5.0, 0.0, &[30, 60], &tiny());
        assert_eq!(fig.id, "fig3");
        assert_eq!(fig.series.len(), 6); // 3 classes × (total, pull-only)
                                         // pull-only delays at α = 0 must be ordered A < C at each K
        let a = &fig.series[1]; // Class-A (pull-only)
        let c = &fig.series[5]; // Class-C (pull-only)
        for i in 0..a.y.len() {
            assert!(
                a.y[i] < c.y[i],
                "K={}: A {} vs C {}",
                a.x[i],
                a.y[i],
                c.y[i]
            );
        }
    }

    #[test]
    fn fig4_id_for_alpha_one() {
        let fig = delay_vs_cutoff(0.6, 5.0, 1.0, &[40], &tiny());
        assert_eq!(fig.id, "fig4");
        let mid = delay_vs_cutoff(0.6, 5.0, 0.25, &[40], &tiny());
        assert_eq!(mid.id, "fig3b-alpha25");
    }

    #[test]
    fn fig5_total_is_sum_of_classes() {
        let fig = cost_dynamics(0.6, 5.0, 0.25, &[40], &tiny());
        let total = fig.series.last().unwrap().y[0];
        let sum: f64 = fig.series[..3].iter().map(|s| s.y[0]).sum();
        assert!((total - sum).abs() < 1e-9);
    }

    #[test]
    fn fig6_has_one_series_per_theta() {
        let fig = cost_vs_alpha(&[0.2, 1.4], 5.0, &[0.0, 1.0], &[30, 60], &tiny());
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].x, vec![0.0, 1.0]);
        assert!(fig
            .series
            .iter()
            .all(|s| s.y.iter().all(|&y| y.is_finite())));
    }

    #[test]
    fn fig7_pairs_sim_and_model() {
        let fig = analytic_vs_sim(0.6, 5.0, 0.75, &[30, 60], &tiny());
        assert_eq!(fig.series.len(), 6);
        assert!(fig.series[0].label.contains("sim"));
        assert!(fig.series[1].label.contains("model"));
        for s in &fig.series {
            assert!(s.y.iter().all(|&y| y > 0.0 && y.is_finite()), "{}", s.label);
        }
    }

    #[test]
    fn blocking_decreases_with_premium_share() {
        let fig = blocking_vs_bandwidth(&[0.1, 0.8], 40, &tiny());
        let a = &fig.series[0];
        assert!(
            a.y[1] <= a.y[0] + 0.02,
            "Class-A blocking should drop with its share: {:?}",
            a.y
        );
    }

    #[test]
    fn shootout_covers_all_policies() {
        let fig = policy_shootout(0.6, 40, 0.25, &tiny());
        assert_eq!(fig.series[0].x.len(), 8); // 6 baselines + 2 importance forms
        assert!(fig.notes.contains("0=Fcfs"));
    }

    /// The seven figure functions the tests above do not reach, at the
    /// preset `all_experiments --scale quick` runs them with.
    #[test]
    fn remaining_figures_produce_their_series_on_two_point_grids() {
        let scale = RunScale::quick();
        let figs = [
            (
                adaptive_vs_static(&[0.6, 1.4], 0.25, &scale),
                "adapt-cutoff",
                4,
            ),
            (drift_tracking(&[0, 30], &scale), "adapt-drift", 3),
            (churn_vs_alpha(&[0.0, 1.0], 40, &scale), "churn", 4),
            (uplink_stress(&[0.5, 1.0], 40, &scale), "uplink", 3),
            (stretch_ablation(0.6, 40, &scale), "abl-stretch", 2),
            (push_ablation(0.6, &[20, 60], &scale), "abl-push", 3),
            (channel_ablation(&[20, 60], &scale), "abl-channels", 6),
        ];
        for (fig, id, series) in &figs {
            assert_eq!(fig.id, *id);
            assert_eq!(fig.series.len(), *series, "{id}");
            for s in &fig.series {
                assert!(!s.y.is_empty(), "{id}/{}", s.label);
                assert!(
                    s.y.iter().all(|y| y.is_finite()),
                    "{id}/{}: {:?}",
                    s.label,
                    s.y
                );
            }
        }
    }
}
