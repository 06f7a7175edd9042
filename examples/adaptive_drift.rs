//! The adaptive cutoff controller under popularity drift.
//!
//! The paper's server "periodically executes the algorithm for different
//! cutoff-points and obtains the optimal cutoff-point"; its abstract adds
//! that the scheme "dynamically computes the data access probabilities".
//! This example shows why both matter: when the hot set rotates over time,
//! a static push prefix decays, the K-only controller can merely shrink
//! the push set, and the re-ranking controller keeps pushing whatever is
//! *currently* hot.
//!
//! ```text
//! cargo run --release --example adaptive_drift
//! ```

use hybridcast::prelude::*;

fn main() {
    // Hot set rotates by 30 ranks every 1000 broadcast units.
    let scenario = ScenarioConfig {
        drift: Some(DriftConfig {
            period: 1_000.0,
            shift: 30,
        }),
        ..ScenarioConfig::icpp2005(1.0)
    }
    .build();
    let cfg = HybridConfig::paper(40, 0.25);
    let params = SimParams {
        horizon: 12_000.0,
        warmup: 1_000.0,
        replication: 0,
    };

    println!("workload: theta = 1.0, drift = 30 ranks / 1000 bu\n");

    let static_run = simulate(&scenario, &cfg, &params);
    println!(
        "static K=40            : total cost {:8.2}, overall delay {:6.2} bu",
        static_run.total_prioritized_cost, static_run.overall_delay.mean
    );

    let base = AdaptiveConfig {
        period: 400.0,
        candidate_ks: (10..=90).step_by(10).collect(),
        smoothing: 0.5,
        rerank: false,
        controller: None,
    };
    let adaptive_run = |adaptive: &AdaptiveConfig| -> AdaptiveReport {
        Simulation {
            adaptive: Some(adaptive),
            ..Simulation::new(&scenario, &cfg, &params)
        }
        .run(&mut NullSink)
        .into()
    };
    let k_only = adaptive_run(&base);
    println!(
        "adaptive K only        : total cost {:8.2}, final K = {}, {} retunes",
        k_only.report.total_prioritized_cost,
        k_only.final_k,
        k_only.retunes.len()
    );

    let rerank = AdaptiveConfig {
        rerank: true,
        ..base
    };
    let tracked = adaptive_run(&rerank);
    println!(
        "adaptive re-ranking    : total cost {:8.2}, final K = {}, {} retunes",
        tracked.report.total_prioritized_cost,
        tracked.final_k,
        tracked.retunes.len()
    );

    println!("\ncutoff trajectory of the re-ranking controller:");
    for r in tracked.retunes.iter().take(10) {
        println!(
            "  t = {:7.0}: K {} -> {} (lambda_est = {:.2}/bu)",
            r.time, r.from_k, r.to_k, r.estimated_lambda
        );
    }
    if tracked.retunes.len() > 10 {
        println!("  ... {} more", tracked.retunes.len() - 10);
    }

    assert!(
        tracked.report.total_prioritized_cost < static_run.total_prioritized_cost,
        "re-ranking must beat the stale static schedule under drift"
    );
}
