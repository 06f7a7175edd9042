//! The telemetry subsystem's core guarantee, property-tested: recording is
//! **purely observational**. A run with the windowed recorder attached (or
//! any other sink) produces a `SimReport` bit-identical to the same run
//! with `NullSink` — telemetry never perturbs scheduling decisions, RNG
//! draws, or metric accumulation, across randomized scenarios, cutoffs,
//! importance weights, uplink models, and window sizes.

use proptest::prelude::*;

use hybridcast_core::churn::ChurnConfig;
use hybridcast_core::config::HybridConfig;
use hybridcast_core::sim_driver::{
    simulate, simulate_telemetry, AdaptiveConfig, SimParams, Simulation,
};
use hybridcast_core::uplink::UplinkConfig;
use hybridcast_sim::time::SimTime;
use hybridcast_telemetry::{NullSink, TelemetryConfig, TelemetryEvent, VecSink, WindowRecorder};
use hybridcast_workload::scenario::ScenarioConfig;

proptest! {
    // Each case runs the same scenario three times (null, vec, windowed);
    // keep the budget small enough for debug-mode CI.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `simulate` with any sink attached returns the exact report of the
    /// uninstrumented run — and the recorder's series is self-consistent.
    #[test]
    fn reports_are_bit_identical_with_and_without_telemetry(
        seed in 0u64..1_000_000,
        theta in prop_oneof![Just(0.2), Just(0.6), Just(1.0)],
        num_items in 20usize..60,
        arrival_rate in 1.0f64..8.0,
        cutoff_frac in 0.0f64..1.0,
        alpha in 0.0f64..=1.0,
        with_uplink in proptest::bool::ANY,
        window in prop_oneof![Just(50.0), Just(200.0), Just(1000.0)],
    ) {
        let scenario = ScenarioConfig {
            num_items,
            arrival_rate,
            ..ScenarioConfig::icpp2005(theta).with_seed(seed)
        }
        .build();
        let k = ((num_items as f64) * cutoff_frac) as usize;
        let mut cfg = HybridConfig::paper(k, alpha);
        if with_uplink {
            cfg.uplink = Some(UplinkConfig::default());
        }
        // warmup 0 so the run-wide `generated` count (warmup-gated) and the
        // recorder's ungated arrival stream count the same population.
        let params = SimParams {
            horizon: 600.0,
            warmup: 0.0,
            replication: 0,
        };

        let baseline = simulate(&scenario, &cfg, &params);
        let via_vec = Simulation::new(&scenario, &cfg, &params)
            .run(&mut VecSink::default())
            .report;
        prop_assert_eq!(&baseline, &via_vec, "VecSink perturbed the run");
        let (via_recorder, series) =
            simulate_telemetry(&scenario, &cfg, &params, TelemetryConfig::new(window));
        prop_assert_eq!(&baseline, &via_recorder, "WindowRecorder perturbed the run");

        // Series self-consistency: windows tile [0, horizon), per-window
        // arrivals/served totals never exceed the run-wide generated count.
        let expected_windows = (params.horizon / window).ceil() as usize;
        prop_assert!(series.windows.len() <= expected_windows);
        let generated: u64 = baseline.per_class.iter().map(|c| c.generated).sum();
        let windowed_arrivals: u64 = series
            .windows
            .iter()
            .flat_map(|w| w.per_class.iter())
            .map(|c| c.arrivals)
            .sum();
        // With warmup 0 the recorder and the metrics see the same arrivals.
        prop_assert_eq!(windowed_arrivals, generated);
    }
}

#[test]
fn adaptive_reports_are_bit_identical_with_telemetry() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let cfg = HybridConfig::paper(40, 0.5);
    let params = SimParams {
        horizon: 4_000.0,
        warmup: 200.0,
        replication: 0,
    };
    let adaptive = AdaptiveConfig::default();
    let run = || Simulation {
        adaptive: Some(&adaptive),
        ..Simulation::new(&scenario, &cfg, &params)
    };
    let baseline = run().run(&mut NullSink);
    let mut recorder = WindowRecorder::new(
        TelemetryConfig::new(500.0),
        &scenario.classes,
        &scenario.catalog,
        cfg.cutoff,
    );
    assert_eq!(baseline, run().run(&mut recorder));
    let series = recorder.finish(SimTime::new(params.horizon));
    // Every retune the controller performed shows up as a CutoffChange.
    let moves = baseline
        .retunes
        .iter()
        .filter(|r| r.from_k != r.to_k)
        .count() as u64;
    let recorded: u64 = series.windows.iter().map(|w| w.cutoff_changes).sum();
    assert_eq!(moves, recorded);
}

#[test]
fn churn_reports_are_bit_identical_with_telemetry() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let cfg = HybridConfig::paper(40, 0.5);
    let params = SimParams {
        horizon: 6_000.0,
        warmup: 0.0,
        replication: 0,
    };
    let churn = ChurnConfig {
        tolerance: vec![90.0, 105.0, 130.0],
        ..ChurnConfig::default()
    };
    let run = || Simulation {
        churn: Some(&churn),
        ..Simulation::new(&scenario, &cfg, &params)
    };
    let baseline = run().run(&mut NullSink);
    let departures = baseline.churn.as_ref().expect("churn was on").departures;
    assert!(departures > 0, "the tolerances must bite");

    let mut events = VecSink::default();
    assert_eq!(
        baseline,
        run().run(&mut events),
        "VecSink perturbed the run"
    );
    let churn_events = events
        .events()
        .iter()
        .filter(|e| matches!(e, TelemetryEvent::ChurnEvent { .. }))
        .count() as u64;
    assert_eq!(churn_events, departures);

    let mut recorder = WindowRecorder::new(
        TelemetryConfig::new(500.0),
        &scenario.classes,
        &scenario.catalog,
        cfg.cutoff,
    );
    assert_eq!(
        baseline,
        run().run(&mut recorder),
        "WindowRecorder perturbed the run"
    );
    let series = recorder.finish(SimTime::new(params.horizon));
    // Departures stream through the event layer, window by window.
    let recorded: u64 = series.windows.iter().map(|w| w.churn_departures).sum();
    assert_eq!(recorded, departures);
}
