//! Telemetry overhead gate: the cost of instrumentation on the simulation
//! hot path, measured end-to-end on the `D = 10_000` scale scenario.
//!
//! ```text
//! cargo run --release -p hybridcast-bench --bin bench -- telemetry_overhead [quick]
//! ```
//!
//! Two variants of the *same seeded run*:
//!
//! * **off** — `simulate`, i.e. `Simulation::run(&mut NullSink)`: every
//!   guarded emission monomorphizes away (what every experiment binary
//!   executes);
//! * **windowed** — `simulate_telemetry` with the full per-class windowed
//!   recorder (counters, gauges, one delay histogram per class, cleared
//!   at each window close).
//!
//! Acceptance gate (checked in-process, non-zero exit on failure):
//! `windowed ≤ 1.10 × off`, taken on the minimum wall time over the
//! repetitions (minimum is the standard robust estimator against
//! scheduler noise); when one variant's repetitions spread wider than the
//! 10% margin the verdict is `skipped (unresolvable …)` instead
//! (`Report::ratio_gate`). The run also re-checks the observational
//! guarantee: both variants must return bit-identical reports. Results
//! land in `results/BENCH_telemetry.json`.

use std::time::Instant;

use hybridcast_core::config::HybridConfig;
use hybridcast_core::metrics::SimReport;
use hybridcast_core::sim_driver::{simulate, simulate_telemetry, SimParams};
use hybridcast_telemetry::TelemetryConfig;
use hybridcast_workload::scenario::{Scenario, ScenarioConfig};
use serde_json::json;

use crate::report::{min_of, Host, Needs, Report};

/// One timed invocation: wall seconds plus the report for identity checks.
fn timed<F: FnOnce() -> SimReport>(f: F) -> (f64, SimReport) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// Runs the gate.
pub fn run(host: &Host) -> Report {
    let (horizon, reps) = host.pick((2_500.0, 10), (8_000.0, 20));

    // The scale_sweep scenario: D = 10k catalog under proportionally
    // scaled demand, cutoff covering the popular head.
    let scenario: Scenario = ScenarioConfig {
        num_items: 10_000,
        arrival_rate: 40.0,
        ..ScenarioConfig::icpp2005(0.6)
    }
    .build();
    let cfg = HybridConfig::paper(500, 0.5);
    let params = SimParams {
        horizon,
        warmup: horizon * 0.1,
        replication: 0,
    };
    let telemetry = TelemetryConfig::new(100.0);

    // One untimed warm-up, then interleaved rounds (off, windowed)
    // with the per-variant minimum: slow drift of the host (frequency
    // scaling, noisy neighbours) hits all variants alike instead of
    // whichever happened to run last.
    let _ = simulate(&scenario, &cfg, &params);
    let (mut off_runs, mut win_runs) = (Vec::new(), Vec::new());
    let (mut r_off, mut r_win) = (None, None);
    for _ in 0..reps {
        let (t, r) = timed(|| simulate(&scenario, &cfg, &params));
        off_runs.push(t);
        r_off = Some(r);
        let (t, r) = timed(|| simulate_telemetry(&scenario, &cfg, &params, telemetry).0);
        win_runs.push(t);
        r_win = Some(r);
    }
    assert_eq!(r_off, r_win, "windowed recording changed the report");

    let (t_off, t_win) = (min_of(&off_runs), min_of(&win_runs));
    let win_ratio = t_win / t_off;

    println!("# BENCH_telemetry — instrumentation overhead on D=10k\n");
    println!("| variant | min wall s | vs off |");
    println!("|---------|-----------|--------|");
    println!("| off (simulate) | {t_off:.4} | 1.000 |");
    println!("| windowed recorder | {t_win:.4} | {win_ratio:.3} |");
    println!("reports bit-identical across variants: PASS");

    let mut report = Report::new(
        "telemetry",
        host,
        json!({
            "scenario": "zipf(0.6), D=10_000, lambda=40, K=500",
            "horizon": horizon,
            "repetitions": reps,
            "window": telemetry.window,
            "off_runs_s": off_runs,
            "windowed_runs_s": win_runs,
            "off_s": t_off,
            "windowed_s": t_win,
            "windowed_ratio": win_ratio,
            "gate_windowed_max": 1.10,
        }),
    );
    report.ratio_gate(
        Needs::NOTHING,
        "windowed <= 1.10x off",
        1.10,
        win_ratio,
        win_ratio <= 1.10,
        [&off_runs, &win_runs],
    );
    report
}
