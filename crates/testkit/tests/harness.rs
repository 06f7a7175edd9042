//! End-to-end validation of the simulation-testing harness itself:
//! a fuzz quick-gate, byte-identical corpus replay, the statistical
//! dominance oracle, and the mutation smoke — every hand-seeded bug must
//! be caught by the oracle built to catch it.

use hybridcast_core::bandwidth::BandwidthConfig;
use hybridcast_core::config::AssignmentStrategy;
use hybridcast_core::prelude::{
    AdaptiveConfig, ChannelLayout, ControllerConfig, CutoffOptimizer, HybridConfig, NullSink,
    Objective, PlantedControllerBugs, SimParams, Simulation,
};
use hybridcast_core::uplink::UplinkConfig;
use hybridcast_testkit::{
    check_dominance, committed_corpus_dir, fuzz, generate_case, load_corpus, replay_corpus,
    run_case, FuzzCase, MutatingSink, Mutation, NegatedPolicy, OracleSink, ALL_MUTATIONS,
};
use hybridcast_workload::scenario::ScenarioConfig;

/// A busy mid-size configuration that exercises every event kind the
/// stream mutations tamper with: pushes cycle (small K), pulls flow,
/// admission control blocks some items, the uplink loses some requests.
fn smoke_case() -> FuzzCase {
    FuzzCase {
        seed: 9_999,
        scenario: ScenarioConfig::icpp2005(0.6),
        hybrid: HybridConfig {
            bandwidth: BandwidthConfig::per_class(3.0, 3.0),
            uplink: Some(UplinkConfig::default()),
            ..HybridConfig::paper(5, 0.5)
        },
        horizon: 2_000.0,
        adaptive: None,
        faults: Vec::new(),
    }
}

/// Runs `case` with `mutation` planted into the observed event stream.
fn violations_under(case: &FuzzCase, mutation: Mutation) -> Vec<String> {
    let scenario = case.scenario.build();
    let classes = scenario.classes.len();
    let mut sink = MutatingSink::new(OracleSink::new(classes), mutation, classes);
    let params = case.params();
    let out = case.simulation(&scenario, &params).run(&mut sink);
    sink.into_inner().finalize(case, &out)
}

#[test]
fn clean_smoke_case_passes_every_oracle() {
    let outcome = run_case(&smoke_case());
    assert!(outcome.passed(), "{}", outcome.to_json());
}

#[test]
fn mutation_smoke_every_planted_bug_is_caught() {
    let case = smoke_case();
    let mut caught = 0;
    for &mutation in ALL_MUTATIONS {
        let detected = match mutation {
            Mutation::InvertedScoring => {
                // The scheduler-level mutant: sign-flipped Eq. 1 scoring
                // inverts priority dominance; the statistical oracle and
                // only that oracle sees it.
                check_dominance(
                    &case.scenario,
                    &HybridConfig::paper(40, 0.25),
                    &SimParams::quick(),
                    8,
                    || Some(NegatedPolicy::importance(0.25)),
                )
                .is_err()
            }
            _ => !violations_under(&case, mutation).is_empty(),
        };
        assert!(
            detected,
            "mutant {mutation:?} survived — an oracle is blind"
        );
        caught += 1;
    }
    assert!(caught >= 6, "smoke must cover at least 6 mutants");
}

#[test]
fn mutation_smoke_names_the_right_oracle() {
    let case = smoke_case();
    let find = |mutation: Mutation, needle: &str| {
        let violations = violations_under(&case, mutation);
        assert!(
            violations.iter().any(|v| v.contains(needle)),
            "{mutation:?} should trip the '{needle}' oracle, got {violations:?}"
        );
    };
    find(Mutation::DropBlocked, "conservation");
    find(Mutation::DropEveryNthServed, "conservation");
    find(Mutation::SkewClockBackwards, "clock ran backwards");
    find(Mutation::NegativeDelay, "negative delay");
    find(Mutation::DropPushTx, "push cycle");
    find(Mutation::ReclassifyServed, "conservation");
    find(Mutation::PhantomPullChannel, "channel accounting");
}

/// A measured-feedback controller case sized so every regret-oracle gate
/// opens: stationary load, no faults or uplink, one channel, incumbent
/// inside the band, plenty of windows before the horizon. At `rate` 1.0
/// the single channel is moderately loaded and the cost landscape over
/// `K` rises steeply toward the pure-push corner (a wrong-way climber
/// pays dearly); at the paper's rate 5.0 the channel saturates and the
/// landscape flattens into backlog (noise to hold against).
fn controller_case(theta: f64, rate: f64) -> FuzzCase {
    FuzzCase {
        seed: 4_242,
        scenario: ScenarioConfig {
            arrival_rate: rate,
            ..ScenarioConfig::icpp2005(theta)
        },
        hybrid: HybridConfig::paper(20, 0.5),
        horizon: 6_000.0,
        adaptive: Some(AdaptiveConfig {
            period: 250.0,
            candidate_ks: vec![20],
            smoothing: 0.5,
            rerank: false,
            controller: Some(ControllerConfig {
                step: 10,
                hysteresis: 0.05,
                cost_smoothing: 0.0,
                settle_windows: 0,
                k_min: 0,
                k_max: 100,
                slo: None,
                rebalance: false,
                planted: PlantedControllerBugs::default(),
            }),
        }),
        faults: Vec::new(),
    }
}

/// `controller_case(theta, rate)` with one controller defect planted.
fn with_planted(theta: f64, rate: f64, plant: fn(&mut PlantedControllerBugs)) -> FuzzCase {
    let mut case = controller_case(theta, rate);
    let ctrl = case.adaptive.as_mut().unwrap().controller.as_mut().unwrap();
    plant(&mut ctrl.planted);
    case
}

#[test]
fn clean_controller_cases_pass_every_oracle() {
    for (theta, rate) in [(1.0, 1.0), (0.6, 5.0)] {
        let outcome = run_case(&controller_case(theta, rate));
        assert!(
            outcome.passed(),
            "theta {theta} rate {rate}: {}",
            outcome.to_json()
        );
    }
}

#[test]
fn controller_mutation_smoke_names_the_right_oracle() {
    // Each planted controller defect must be caught by exactly the oracle
    // built for it — the other controller needles must stay silent, or
    // the attribution (and any future bisection on it) is mush.
    const NEEDLES: [&str; 3] = ["regret", "stale telemetry", "hysteresis"];
    let check = |case: &FuzzCase, needle: &str| {
        let outcome = run_case(case);
        assert!(
            outcome.panicked.is_none(),
            "planted '{needle}' bug crashed: {:?}",
            outcome.panicked
        );
        assert!(
            outcome.violations.iter().any(|v| v.contains(needle)),
            "planted bug should trip the '{needle}' oracle, got {:?}",
            outcome.violations
        );
        for other in NEEDLES.iter().filter(|&&n| n != needle) {
            assert!(
                !outcome.violations.iter().any(|v| v.contains(other)),
                "'{other}' oracle misfired on the '{needle}' bug: {:?}",
                outcome.violations
            );
        }
    };
    // The sign-flipped gradient seeks the in-band cost maximum, which
    // only shows against a steep landscape — the half-loaded channel.
    check(
        &with_planted(1.0, 1.0, |p| p.flip_gradient = true),
        "regret",
    );
    // Chasing noise needs noise to chase: the saturated channel's flat,
    // backlog-heavy landscape keeps the honest controller holding, so every
    // sub-band move the bypass bug makes is unjustified.
    check(
        &with_planted(0.6, 5.0, |p| p.bypass_hysteresis = true),
        "hysteresis",
    );
    check(
        &with_planted(0.6, 5.0, |p| p.stale_window = true),
        "stale telemetry",
    );
}

#[test]
fn controller_converges_to_the_offline_optimum_band() {
    // The convergence property: on a stationary workload with a steep
    // cost landscape the controller must end within one hysteresis band
    // (one step) of the offline sweep's best K — and the extraction
    // ledger must balance at every retune (empty queue audit), so
    // conservation survived every migration it took to get there.
    let case = controller_case(1.0, 1.0);
    let scenario = case.scenario.build();
    let params = case.params();
    let step = case
        .adaptive
        .as_ref()
        .unwrap()
        .controller
        .as_ref()
        .unwrap()
        .step;
    // The controller starts at K = 20 and moves in steps of 10, so its
    // reachable set is exactly this grid.
    let sweep = CutoffOptimizer::new(Objective::TotalPrioritizedCost, params)
        .with_replications(2)
        .sweep(&scenario, &case.hybrid, (0..=100).step_by(step));
    let best_k = sweep.best_k();
    for replication in 0..3u64 {
        let params = params.with_replication(replication);
        let out = case.simulation(&scenario, &params).run(&mut NullSink);
        assert!(
            out.queue_audit.is_empty(),
            "replication {replication}: books unbalanced at a retune: {:?}",
            out.queue_audit
        );
        // P&O probes the neighbors forever, so "converged" means parked
        // on the optimum or mid-probe one step off it.
        assert!(
            out.final_k.abs_diff(best_k) <= step,
            "replication {replication}: settled at K = {} vs offline best \
             K = {best_k} — more than one step away",
            out.final_k
        );
    }
}

#[test]
fn priority_dominance_holds_on_the_paper_config() {
    let result = check_dominance(
        &ScenarioConfig::icpp2005(0.6),
        &HybridConfig::paper(40, 0.25),
        &SimParams::quick(),
        8,
        || None,
    );
    assert!(result.is_ok(), "{result:?}");
}

#[test]
fn fuzz_quick_gate_passes() {
    // CI's release-mode gate runs 500 seeds via the fuzz_sweep example;
    // this debug-mode slice keeps tier-1 honest without the wait.
    let report = fuzz(0, 60, None);
    assert_eq!(report.cases_run, 60);
    assert!(
        report.failure.is_none(),
        "fuzzer found a real failure: {}",
        report.failure.unwrap().outcome.to_json()
    );
}

#[test]
fn committed_corpus_replays_bit_identically() {
    let dir = committed_corpus_dir();
    let first = replay_corpus(&dir).expect("corpus must load");
    let second = replay_corpus(&dir).expect("corpus must load");
    assert!(!first.is_empty());
    for ((name_a, out_a), (name_b, out_b)) in first.iter().zip(&second) {
        assert_eq!(name_a, name_b);
        assert_eq!(
            out_a.to_json(),
            out_b.to_json(),
            "corpus entry {name_a} replayed differently"
        );
        assert!(out_a.passed(), "corpus entry {name_a}: {}", out_a.to_json());
    }
}

/// Runs `case` with the channel layout swapped to `channels`, returning
/// the full harness report (census, retunes, audit trail and all).
fn run_with_layout(case: &FuzzCase, channels: ChannelLayout) -> hybridcast_core::prelude::SimRun {
    let (scenario, params) = (case.scenario.build(), case.params());
    let mut hybrid = case.hybrid.clone();
    hybrid.channels = channels;
    Simulation {
        hybrid: &hybrid,
        ..case.simulation(&scenario, &params)
    }
    .run(&mut NullSink)
}

#[test]
fn one_channel_sharded_layout_is_bit_identical_on_the_replay_corpus() {
    // The acceptance property for the sharded refactor: routing through
    // `ShardedScheduler` with C = 1 must not perturb a single bit of the
    // report — same RNG draws, same schedule, same census — for every
    // committed corpus case and every assignment strategy.
    let cases = load_corpus(&committed_corpus_dir()).expect("corpus must load");
    let fuzzed: Vec<FuzzCase> = (100..112).map(generate_case).collect();
    for (name, case) in cases
        .iter()
        .map(|(n, c)| (n.as_str(), c))
        .chain(fuzzed.iter().map(|c| ("generated", c)))
    {
        let baseline = run_with_layout(case, ChannelLayout::Interleaved);
        for assignment in [
            AssignmentStrategy::Range,
            AssignmentStrategy::Hash,
            AssignmentStrategy::PatternAware,
        ] {
            let sharded = run_with_layout(
                case,
                ChannelLayout::Sharded {
                    channels: 1,
                    assignment,
                },
            );
            assert!(
                baseline == sharded,
                "case {name} (seed {}) diverges under a 1-channel sharded \
                 layout with {assignment:?} assignment",
                case.seed
            );
        }
    }
}

#[test]
fn degenerate_corners_run_clean_under_faults() {
    // Hand-picked corners with a fault on top: the harness must neither
    // panic nor leak a request.
    let corners = [
        (0usize, 1usize), // one item, pure pull
        (1, 1),           // one item, pure push
        (0, 100),         // big catalog, pure pull
        (100, 100),       // big catalog, pure push
    ];
    for (k, d) in corners {
        let case = FuzzCase {
            seed: 1,
            scenario: ScenarioConfig {
                num_items: d,
                ..ScenarioConfig::icpp2005(0.6)
            },
            hybrid: HybridConfig::paper(k, 0.5),
            horizon: 800.0,
            adaptive: None,
            faults: vec![hybridcast_core::prelude::FaultSpec::ForceCutoff {
                time: 400.0,
                k: d / 2,
            }],
        };
        let outcome = run_case(&case);
        assert!(outcome.passed(), "K={k} D={d}: {}", outcome.to_json());
    }
}

#[test]
fn run_case_reports_panics_as_failures_not_crashes() {
    // An illegal config (cutoff beyond the catalog) must surface as a
    // caught panic in the outcome, not take the process down.
    let mut case = generate_case(0);
    case.scenario.num_items = 5;
    case.hybrid.cutoff = 50;
    case.adaptive = None;
    let outcome = run_case(&case);
    assert!(outcome.panicked.is_some());
    assert!(!outcome.passed());
}
