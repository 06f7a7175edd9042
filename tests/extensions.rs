//! Integration tests for the extension systems: churn, uplink, adaptive
//! re-ranking, drift, trace replay and tail percentiles — exercised
//! through the public facade.

use hybridcast::prelude::*;

fn churn_run(
    scenario: &Scenario,
    hybrid: &HybridConfig,
    params: &SimParams,
    churn: &ChurnConfig,
) -> ChurnReport {
    Simulation {
        churn: Some(churn),
        ..Simulation::new(scenario, hybrid, params)
    }
    .run(&mut NullSink)
    .into()
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

#[test]
fn tail_percentiles_are_reported_and_ordered() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let r = simulate(
        &scenario,
        &HybridConfig::paper(40, 0.25),
        &SimParams::quick(),
    );
    let p95 = |c: &ClassReport| c.delay_p95.expect("every class served");
    for c in &r.per_class {
        let (p50, p99) = (c.delay_p50.unwrap(), c.delay_p99.unwrap());
        assert!(p50 > 0.0);
        assert!(p50 <= p95(c), "{}: p50 {p50} p95 {}", c.name, p95(c));
        assert!(p95(c) <= p99);
        // the median sits near (below, for a right-skewed law) the mean
        assert!(p50 < c.delay.mean * 1.5);
        // p99 within the observed extremes
        assert!(p99 <= c.delay.max);
    }
    // premium tails beat junior tails on the pull-differentiated component
    assert!(p95(&r.per_class[0]) <= p95(&r.per_class[2]) * 1.1);
}

/// The quantile contract end to end: every p50/p95/p99 a `SimReport`
/// prints is within relative 2⁻⁷ of the exact ceil-rank order statistic
/// of the delays the run actually served (arrivals at or after warmup),
/// and inside their [min, max].
#[test]
fn reported_quantiles_match_the_served_delays() {
    use hybridcast::sim::quantile::MAX_RELATIVE_ERROR;
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let (hybrid, params) = (HybridConfig::paper(40, 0.25), SimParams::quick());
    let mut sink = VecSink::new();
    let report = Simulation::new(&scenario, &hybrid, &params)
        .run(&mut sink)
        .report;
    let mut delays = vec![Vec::new(); report.per_class.len()];
    for event in sink.events() {
        if let TelemetryEvent::RequestServed {
            time,
            class,
            arrival,
            ..
        } = *event
        {
            if arrival.as_f64() >= params.warmup {
                delays[class.index()].push(time.since(arrival).as_f64());
            }
        }
    }
    for (c, mut d) in report.per_class.iter().zip(delays) {
        assert_eq!(d.len() as u64, c.served, "{}", c.name);
        d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let exact = |q: f64| d[((q * d.len() as f64).ceil() as usize).clamp(1, d.len()) - 1];
        for (q, got) in [(0.5, c.delay_p50), (0.95, c.delay_p95), (0.99, c.delay_p99)] {
            let (got, want) = (got.expect("served"), exact(q));
            assert!(
                (got - want).abs() <= want * MAX_RELATIVE_ERROR,
                "{} p{q}: {got} vs exact {want}",
                c.name
            );
            assert!(d[0] <= got && got <= d[d.len() - 1], "{} p{q}", c.name);
        }
    }
}

#[test]
fn churn_end_to_end_and_revenue_ordering() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let churn_cfg = ChurnConfig::default();
    let params = SimParams {
        horizon: 8_000.0,
        warmup: 0.0,
        replication: 0,
    };
    let run = |alpha: f64| {
        churn_run(
            &scenario,
            &HybridConfig::paper(40, alpha),
            &params,
            &churn_cfg,
        )
    };
    let c0 = run(0.0);
    let c_half = run(0.5);
    let c1 = run(1.0);
    assert!(
        c0.weighted_retention > 0.8,
        "priority scheduling retains most subscribers: {}",
        c0.weighted_retention
    );
    assert!(
        c1.weighted_retention < 0.2,
        "stretch-only scheduling loses them: {}",
        c1.weighted_retention
    );
    // The simulation is deterministic under the vendored RNG, so pin the
    // exact outcomes rather than a slack-masked weak ordering: at this
    // horizon the pure-priority policy churns exactly one client (the
    // retention figures for α = 0 and α = 0.5 sit within one client of
    // each other), while stretch-only scheduling loses the whole
    // population.
    assert_eq!(c0.departures, 1, "α=0 churns exactly one client");
    assert_eq!(c_half.departures, 0, "α=0.5 retains everyone");
    assert_eq!(
        c1.departures, churn_cfg.total_clients as u64,
        "α=1 loses everyone"
    );
    assert!(
        (c0.weighted_retention - 0.9944444444444445).abs() < 1e-12,
        "α=0 retention pinned to the RNG draw sequence: {}",
        c0.weighted_retention
    );
    assert_eq!(c_half.weighted_retention, 1.0);
    assert_eq!(c1.weighted_retention, 0.0);
}

#[test]
fn churn_report_serializes() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let r = churn_run(
        &scenario,
        &HybridConfig::paper(40, 0.25),
        &SimParams {
            horizon: 2_000.0,
            warmup: 0.0,
            replication: 0,
        },
        &ChurnConfig::default(),
    );
    let js = serde_json::to_string(&r).unwrap();
    let back: ChurnReport = serde_json::from_str(&js).unwrap();
    assert_eq!(back, r);
}

#[test]
fn uplink_loss_scales_with_channel_quality() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let run = |p: f64| {
        let cfg = HybridConfig {
            uplink: Some(UplinkConfig {
                slot_time: 0.5,
                success_prob: p,
                max_attempts: 3,
                backoff_slots: 1.0,
            }),
            ..HybridConfig::paper(40, 0.5)
        };
        let r = simulate(&scenario, &cfg, &SimParams::quick());
        let lost: u64 = r.uplink_lost.iter().sum();
        let gen: u64 = r.per_class.iter().map(|c| c.generated).sum();
        lost as f64 / gen as f64
    };
    let bad = run(0.3);
    let good = run(0.9);
    // theory: pull-mass × (1−p)^3 → bad ≈ 0.45·0.343 ≈ 0.15, good ≈ 0.0005
    assert!(bad > 0.08, "bad channel loss {bad}");
    assert!(good < 0.01, "good channel loss {good}");
    assert!(bad > 10.0 * good);
}

#[test]
fn adaptive_controller_via_facade() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let adaptive = AdaptiveConfig {
        period: 600.0,
        candidate_ks: vec![20, 40, 60, 80],
        smoothing: 0.5,
        rerank: false,
        controller: None,
    };
    let out = adaptive_run(
        &scenario,
        &HybridConfig::paper(80, 0.25),
        &SimParams::quick(),
        &adaptive,
    );
    assert!(!out.retunes.is_empty());
    assert!(out
        .retunes
        .iter()
        .all(|r| [20, 40, 60, 80].contains(&r.to_k)));
    // the serialized trajectory round-trips
    let js = serde_json::to_string(&out).unwrap();
    let back: AdaptiveReport = serde_json::from_str(&js).unwrap();
    assert_eq!(back, out);
}

#[test]
fn drift_degrades_static_but_not_rerank() {
    // Slow drift (10 ranks per 1000 bu) with a 400-bu retune window: the
    // estimator sees mostly-stationary epochs, which is the regime where
    // re-ranking reliably pays (see EXPERIMENTS.md ADAPT-DRIFT).
    let drifting = ScenarioConfig {
        drift: Some(DriftConfig {
            period: 1_000.0,
            shift: 10,
        }),
        ..ScenarioConfig::icpp2005(1.0)
    }
    .build();
    let stable = ScenarioConfig::icpp2005(1.0).build();
    let cfg = HybridConfig::paper(40, 0.25);
    let params = SimParams {
        horizon: 12_000.0,
        warmup: 1_500.0,
        replication: 0,
    };
    let cost_stable = simulate(&stable, &cfg, &params).total_prioritized_cost;
    let cost_drift = simulate(&drifting, &cfg, &params).total_prioritized_cost;
    assert!(
        cost_drift > cost_stable * 1.05,
        "drift must hurt a static schedule: {cost_drift} vs {cost_stable}"
    );
    let rerank = AdaptiveConfig {
        period: 400.0,
        candidate_ks: (10..=90).step_by(10).collect(),
        smoothing: 0.5,
        rerank: true,
        controller: None,
    };
    let tracked = adaptive_run(&drifting, &cfg, &params, &rerank)
        .report
        .total_prioritized_cost;
    assert!(
        tracked < cost_drift,
        "re-ranking must recover under drift: {tracked} vs {cost_drift}"
    );
}

#[test]
fn replayed_trace_is_bit_identical_via_facade() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let cfg = HybridConfig::paper(40, 0.5);
    let params = SimParams::quick();
    let live = simulate(&scenario, &cfg, &params);
    let mut gen = RequestGenerator::new(
        &scenario.catalog,
        &scenario.classes,
        scenario.arrival_rate,
        &scenario.factory.replication(0),
    );
    let trace = gen.take_until(hybridcast::sim::time::SimTime::new(params.horizon));
    let replayed = Simulation {
        source: Some(Box::new(ReplaySource::new(trace))),
        ..Simulation::new(&scenario, &cfg, &params)
    }
    .run(&mut NullSink)
    .report;
    assert_eq!(replayed, live);
}

#[test]
fn pull_burst_config_round_trips_and_runs() {
    let cfg = HybridConfig {
        pull_per_push: 3,
        ..HybridConfig::paper(40, 0.5)
    };
    let js = serde_json::to_string(&cfg).unwrap();
    let back: HybridConfig = serde_json::from_str(&js).unwrap();
    assert_eq!(back, cfg);
    // old configs without the field still parse (serde default)
    let legacy = serde_json::json!({
        "cutoff": 40,
        "push": {"kind": "flat"},
        "pull": {"kind": "importance", "alpha": 0.5, "exponent": 2.0},
        "bandwidth": BandwidthConfig::default(),
    });
    let parsed: HybridConfig = serde_json::from_value(legacy).unwrap();
    assert_eq!(parsed.pull_per_push, 1);
    assert_eq!(parsed.uplink, None);
}
