//! Edge-case and failure-injection tests: degenerate catalogs, extreme
//! loads, single-class systems, zero-credit disciplines, and every
//! configuration knob at its boundary — the system must stay consistent
//! (and never panic) everywhere.

use hybridcast::prelude::*;

fn tiny_params() -> SimParams {
    SimParams {
        horizon: 800.0,
        warmup: 100.0,
        replication: 0,
    }
}

#[test]
fn single_item_catalog_works_in_both_modes() {
    let scenario = ScenarioConfig {
        num_items: 1,
        ..ScenarioConfig::icpp2005(0.6)
    }
    .build();
    // pure push: the lone item cycles forever
    let push = simulate(&scenario, &HybridConfig::paper(1, 0.5), &tiny_params());
    assert!(push.push_transmissions > 0);
    assert_eq!(push.pull_transmissions, 0);
    assert!(push.total_served() > 0);
    // pure pull: the lone item is served on demand
    let pull = simulate(&scenario, &HybridConfig::paper(0, 0.5), &tiny_params());
    assert_eq!(pull.push_transmissions, 0);
    assert!(pull.pull_transmissions > 0);
}

#[test]
fn single_class_population_degenerates_cleanly() {
    let scenario = ScenarioConfig {
        classes: ClassSet::single(),
        ..ScenarioConfig::icpp2005(0.6)
    }
    .build();
    let r = simulate(&scenario, &HybridConfig::paper(40, 0.25), &tiny_params());
    assert_eq!(r.per_class.len(), 1);
    assert!(r.per_class[0].served > 0);
    assert!((r.total_prioritized_cost - r.per_class[0].delay.mean).abs() < 1e-9);
}

#[test]
fn extreme_overload_stays_bounded() {
    // 100× the paper's load: batching keeps the queue bounded by D − K.
    let scenario = ScenarioConfig {
        arrival_rate: 500.0,
        ..ScenarioConfig::icpp2005(0.6)
    }
    .build();
    let r = simulate(&scenario, &HybridConfig::paper(40, 0.25), &tiny_params());
    assert!(
        r.mean_queue_items <= 60.0 + 1e-9,
        "queue {}",
        r.mean_queue_items
    );
    assert!(r.total_served() > 0);
    assert!(r.overall_delay.mean.is_finite());
}

#[test]
fn vanishing_load_mostly_idles_the_pull_side() {
    let scenario = ScenarioConfig {
        arrival_rate: 0.01,
        ..ScenarioConfig::icpp2005(0.6)
    }
    .build();
    let params = SimParams {
        horizon: 20_000.0,
        warmup: 1_000.0,
        replication: 0,
    };
    let r = simulate(&scenario, &HybridConfig::paper(40, 0.25), &params);
    assert!(r.mean_queue_items < 1.0);
    // served counts are small but the report stays consistent
    for c in &r.per_class {
        assert!(c.served <= c.generated);
    }
}

#[test]
fn zero_pull_credits_disable_on_demand_service() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let cfg = HybridConfig {
        pull_per_push: 0,
        ..HybridConfig::paper(40, 0.5)
    };
    let r = simulate(&scenario, &cfg, &tiny_params());
    assert_eq!(r.pull_transmissions, 0, "no pull slots were granted");
    assert!(r.push_transmissions > 0);
    // pull demand accumulates but is bounded by the distinct pull set
    assert!(r.mean_queue_items <= 60.0 + 1e-9);
}

#[test]
fn uniform_popularity_still_orders_classes() {
    let scenario = ScenarioConfig {
        popularity: PopularityModel::Uniform,
        ..ScenarioConfig::icpp2005(0.6)
    }
    .build();
    let r = simulate(&scenario, &HybridConfig::paper(40, 0.0), &tiny_params());
    assert!(r.per_class[0].pull_delay.mean < r.per_class[2].pull_delay.mean);
}

#[test]
fn fixed_length_catalog_matches_mean_targeted_shape() {
    let fixed = ScenarioConfig {
        lengths: LengthModel::Fixed { length: 2 },
        ..ScenarioConfig::icpp2005(0.6)
    }
    .build();
    let r = simulate(&fixed, &HybridConfig::paper(40, 0.25), &tiny_params());
    assert!(r.per_class[0].pull_delay.mean < r.per_class[2].pull_delay.mean);
}

#[test]
fn shared_bandwidth_pool_blocks_without_class_bias() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let cfg = HybridConfig {
        bandwidth: BandwidthConfig {
            policy: BandwidthPolicy::Shared,
            total_capacity: 2.0,
            mean_demand: 2.0,
        },
        ..HybridConfig::paper(40, 0.5)
    };
    let params = SimParams {
        horizon: 4_000.0,
        warmup: 400.0,
        replication: 0,
    };
    let r = simulate(&scenario, &cfg, &params);
    assert!(r.total_blocked() > 0, "tiny shared pool must block");
    // blocking exists but the run still completes and serves requests
    assert!(r.total_served() > 0);
}

#[test]
fn split_layout_with_pure_pull_cutoff() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let cfg = HybridConfig {
        channels: ChannelLayout::Split { pull_channels: 2 },
        ..HybridConfig::paper(0, 0.5)
    };
    let r = simulate(&scenario, &cfg, &tiny_params());
    assert_eq!(r.push_transmissions, 0);
    assert!(r.pull_transmissions > 0);
}

#[test]
fn adaptive_with_single_candidate_never_moves() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let adaptive = AdaptiveConfig {
        period: 200.0,
        candidate_ks: vec![40],
        smoothing: 0.5,
        rerank: false,
        controller: None,
    };
    let out = Simulation {
        adaptive: Some(&adaptive),
        ..Simulation::new(&scenario, &HybridConfig::paper(40, 0.5), &tiny_params())
    }
    .run(&mut NullSink);
    assert!(out.retunes.iter().all(|r| r.from_k == 40 && r.to_k == 40));
    assert_eq!(out.final_k, 40);
}

#[test]
fn cold_horizon_shorter_than_cycle_is_fine() {
    // horizon barely fits a single broadcast cycle
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let params = SimParams {
        horizon: 50.0,
        warmup: 0.0,
        replication: 0,
    };
    let r = simulate(&scenario, &HybridConfig::paper(90, 0.5), &params);
    assert!(r.push_transmissions <= 90);
    for c in &r.per_class {
        assert!(c.served <= c.generated);
    }
}

#[test]
fn bursty_arrivals_fatten_the_tail() {
    let smooth = ScenarioConfig::icpp2005(0.6).build();
    let bursty = ScenarioConfig {
        batch_mean: Some(8.0),
        ..ScenarioConfig::icpp2005(0.6)
    }
    .build();
    let cfg = HybridConfig::paper(40, 0.25);
    let params = SimParams {
        horizon: 8_000.0,
        warmup: 800.0,
        replication: 0,
    };
    let rs = simulate(&smooth, &cfg, &params);
    let rb = simulate(&bursty, &cfg, &params);
    // same aggregate demand within noise...
    let gen = |r: &SimReport| r.per_class.iter().map(|c| c.generated).sum::<u64>() as f64;
    assert!((gen(&rb) / gen(&rs) - 1.0).abs() < 0.1);
    // ...but bursts spike the pending-request peak
    assert!(
        rb.peak_queue_requests > rs.peak_queue_requests,
        "bursty peak {} vs smooth peak {}",
        rb.peak_queue_requests,
        rs.peak_queue_requests
    );
}

#[test]
fn many_classes_scale() {
    // 6 classes with strictly decreasing priority, Zipf-ish population
    let weights = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
    let mut shares: Vec<f64> = (1..=6).map(|i| 1.0 / i as f64).collect();
    shares.reverse(); // smallest share to the highest priority
    let norm: f64 = shares.iter().sum();
    let classes = ClassSet::new(
        (0..6)
            .map(|i| ServiceClass {
                name: format!("Class-{}", (b'A' + i as u8) as char),
                priority: weights[i],
                population_share: shares[i] / norm,
                bandwidth_share: weights[i] / 21.0,
            })
            .collect(),
    );
    let scenario = ScenarioConfig {
        classes,
        ..ScenarioConfig::icpp2005(0.6)
    }
    .build();
    let params = SimParams {
        horizon: 6_000.0,
        warmup: 600.0,
        replication: 0,
    };
    let r = simulate(&scenario, &HybridConfig::paper(40, 0.0), &params);
    assert_eq!(r.per_class.len(), 6);
    // top class still beats bottom class on the pull side
    assert!(
        r.per_class[0].pull_delay.mean < r.per_class[5].pull_delay.mean,
        "A {:.1} vs F {:.1}",
        r.per_class[0].pull_delay.mean,
        r.per_class[5].pull_delay.mean
    );
}
