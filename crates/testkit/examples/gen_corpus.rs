//! Regenerates the committed corpus under `crates/testkit/corpus/`.
//!
//! Run with `cargo run -p hybridcast-testkit --example gen_corpus` after
//! changing the generator or the config schema; corpus entries are
//! ordinary [`hybridcast_testkit::FuzzCase`] JSON, so hand-editing is
//! fine too. Every entry must pass the oracles — `corpus_replay` in the
//! test suite enforces that. Also rewrites the golden simulator runs
//! under `corpus/golden/`; a diff there means the simulator's output
//! moved.

use std::fs;
use std::path::Path;

use hybridcast_core::prelude::{
    AdaptiveConfig, BandwidthConfig, ChannelLayout, ControllerConfig, FaultSpec, HybridConfig,
    PlantedControllerBugs, SloConfig,
};
use hybridcast_core::uplink::UplinkConfig;
use hybridcast_testkit::corpus::{
    golden_churn_cases, golden_churn_json, golden_dir, golden_run_json,
};
use hybridcast_testkit::{generate_case, run_case, FuzzCase};
use hybridcast_workload::nonstationary::NonstationaryConfig;
use hybridcast_workload::requests::DriftConfig;
use hybridcast_workload::scenario::ScenarioConfig;

/// `corpus/retune/`: four adaptive runs under popularity drift, golden
/// only (not part of the oracle replay corpus) — the retune ledger for
/// both decision sources (model argmin, measured-feedback controller)
/// with the push set re-ranked and not. The corpus proper has no
/// re-ranking case, and re-ranking is where the two sources have to agree
/// on the order they cut the push set from.
fn retune_cases() -> Vec<(String, FuzzCase)> {
    let mut cases = Vec::new();
    for (source, controller) in [
        ("model", None),
        (
            "controller",
            Some(ControllerConfig {
                step: 10,
                ..ControllerConfig::default()
            }),
        ),
    ] {
        for rerank in [false, true] {
            let stem = format!(
                "retune-{source}-{}",
                if rerank { "rerank" } else { "prefix" }
            );
            let case = FuzzCase {
                seed: 0,
                scenario: ScenarioConfig {
                    drift: Some(DriftConfig {
                        period: 1_000.0,
                        shift: 10,
                    }),
                    ..ScenarioConfig::icpp2005(1.0)
                },
                hybrid: HybridConfig::paper(40, 0.25),
                horizon: 6_000.0,
                adaptive: Some(AdaptiveConfig {
                    period: 400.0,
                    candidate_ks: (10..=90).step_by(10).collect(),
                    smoothing: 0.5,
                    rerank,
                    controller: controller.clone(),
                }),
                faults: Vec::new(),
            };
            cases.push((stem, case));
        }
    }
    cases
}

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let golden = golden_dir();
    let retune = dir.join("retune");
    for d in [&golden, &retune] {
        fs::create_dir_all(d).expect("create corpus dirs");
    }

    let mut entries: Vec<(&str, FuzzCase)> = vec![
        (
            "paper-midpoint",
            FuzzCase {
                seed: 0,
                scenario: ScenarioConfig::icpp2005(0.6),
                hybrid: HybridConfig::paper(40, 0.5),
                horizon: 1_500.0,
                adaptive: None,
                faults: Vec::new(),
            },
        ),
        (
            "pure-pull-corner",
            FuzzCase {
                seed: 0,
                scenario: ScenarioConfig::icpp2005(1.0),
                hybrid: HybridConfig::paper(0, 0.25),
                horizon: 1_000.0,
                adaptive: None,
                faults: Vec::new(),
            },
        ),
        (
            "pure-push-corner",
            FuzzCase {
                seed: 0,
                scenario: ScenarioConfig::icpp2005(0.2),
                hybrid: HybridConfig::paper(100, 0.75),
                horizon: 1_000.0,
                adaptive: None,
                faults: Vec::new(),
            },
        ),
        (
            "fault-storm",
            FuzzCase {
                seed: 0,
                scenario: ScenarioConfig::icpp2005(0.6),
                hybrid: HybridConfig {
                    uplink: Some(UplinkConfig::default()),
                    ..HybridConfig::paper(40, 0.5)
                },
                horizon: 2_000.0,
                adaptive: Some(AdaptiveConfig {
                    period: 400.0,
                    candidate_ks: vec![10, 40, 70],
                    smoothing: 0.5,
                    rerank: false,
                    controller: None,
                }),
                faults: vec![
                    FaultSpec::UplinkBurst {
                        start: 300.0,
                        duration: 400.0,
                        success_prob: 0.05,
                    },
                    FaultSpec::ArrivalSurge {
                        start: 800.0,
                        duration: 400.0,
                        factor: 3.0,
                    },
                    FaultSpec::MassDeparture {
                        time: 1_400.0,
                        fraction: 0.5,
                    },
                    FaultSpec::ForceCutoff {
                        time: 1_600.0,
                        k: 15,
                    },
                ],
            },
        ),
        (
            "nonstat-theta-switch",
            FuzzCase {
                seed: 0,
                scenario: ScenarioConfig {
                    num_items: 40,
                    arrival_rate: 2.0,
                    nonstationary: Some(NonstationaryConfig::ThetaSwitch {
                        at: 900.0,
                        theta_after: 0.2,
                    }),
                    ..ScenarioConfig::icpp2005(0.9).with_seed(11)
                },
                hybrid: HybridConfig {
                    cutoff: 12,
                    ..HybridConfig::paper(12, 0.5)
                },
                horizon: 1_800.0,
                adaptive: None,
                faults: Vec::new(),
            },
        ),
        (
            "nonstat-flash-crowd",
            FuzzCase {
                seed: 0,
                scenario: ScenarioConfig {
                    num_items: 50,
                    arrival_rate: 1.0,
                    nonstationary: Some(NonstationaryConfig::FlashCrowd {
                        start: 1_000.0,
                        duration: 600.0,
                        factor: 3.0,
                    }),
                    ..ScenarioConfig::icpp2005(0.6).with_seed(23)
                },
                hybrid: HybridConfig::paper(10, 0.5),
                horizon: 3_000.0,
                adaptive: Some(AdaptiveConfig {
                    period: 300.0,
                    candidate_ks: vec![10],
                    smoothing: 0.5,
                    rerank: false,
                    controller: Some(ControllerConfig {
                        step: 5,
                        hysteresis: 0.05,
                        cost_smoothing: 0.0,
                        settle_windows: 0,
                        k_min: 0,
                        k_max: 50,
                        slo: Some(SloConfig {
                            grace_windows: 1,
                            min_service_ratio: 0.0,
                        }),
                        rebalance: false,
                        planted: PlantedControllerBugs::default(),
                    }),
                }),
                faults: Vec::new(),
            },
        ),
        (
            // Several transmitters on one scheduler: a broadcast channel
            // and three pull channels drawing from one queue, a lossy
            // uplink, per-class admission tight enough to drop items, and
            // listeners walking off mid-run.
            "split-three-pull",
            FuzzCase {
                seed: 0,
                scenario: ScenarioConfig::icpp2005(0.6).with_seed(29),
                hybrid: HybridConfig {
                    bandwidth: BandwidthConfig::per_class(16.0, 2.0),
                    uplink: Some(UplinkConfig::default()),
                    channels: ChannelLayout::Split { pull_channels: 3 },
                    ..HybridConfig::paper(30, 0.5)
                },
                horizon: 2_002.5,
                adaptive: None,
                faults: vec![FaultSpec::MassDeparture {
                    time: 1_200.0,
                    fraction: 0.4,
                }],
            },
        ),
    ];
    // Plus a band of generator-grown cases pinning today's generator.
    for seed in [3u64, 17, 42, 101] {
        entries.push(("", generate_case(seed)));
    }

    for (name, case) in entries {
        let outcome = run_case(&case);
        assert!(
            outcome.passed(),
            "corpus entry must pass the oracles: {}",
            outcome.to_json()
        );
        let file = if name.is_empty() {
            format!("seed-{:04}.json", case.seed)
        } else {
            format!("{name}.json")
        };
        let path = dir.join(&file);
        fs::write(&path, case.to_json()).expect("write corpus entry");
        println!("wrote {}", path.display());
        let path = golden.join(&file);
        fs::write(&path, golden_run_json(&case) + "\n").expect("write golden run");
        println!("wrote {}", path.display());
    }
    for (stem, case) in retune_cases() {
        let path = retune.join(format!("{stem}.json"));
        fs::write(&path, case.to_json()).expect("write retune case");
        println!("wrote {}", path.display());
        let path = golden.join(format!("{stem}.json"));
        fs::write(&path, golden_run_json(&case) + "\n").expect("write golden run");
        println!("wrote {}", path.display());
    }
    for (stem, hybrid, churn) in golden_churn_cases() {
        let path = golden.join(format!("{stem}.json"));
        fs::write(&path, golden_churn_json(&hybrid, &churn) + "\n").expect("write golden run");
        println!("wrote {}", path.display());
    }
}
