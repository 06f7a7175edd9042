//! Finding the optimal cutoff K*: sweep the push/pull split with the
//! simulation-backed optimizer and cross-check against the analytic model.
//!
//! ```text
//! cargo run --release --example cutoff_tuning
//! ```

use hybridcast::prelude::*;

fn main() {
    let theta = 0.6;
    let alpha = 0.25;
    let scenario = ScenarioConfig::icpp2005(theta).build();
    let base = HybridConfig::paper(0, alpha);

    // Simulation-backed grid search over K (the paper re-runs this
    // periodically to track workload drift).
    let optimizer = CutoffOptimizer::new(
        Objective::TotalPrioritizedCost,
        SimParams {
            horizon: 8_000.0,
            warmup: 1_000.0,
            replication: 0,
        },
    );
    let sweep = optimizer.sweep(&scenario, &base, (10..=90).step_by(10));

    println!("cutoff sweep (theta = {theta}, alpha = {alpha}):\n");
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>12}",
        "K", "total cost", "A delay", "C delay", "served"
    );
    // A class that served nothing has no delay to print.
    let delay = |d: Option<f64>| d.map_or("n/a".into(), |d| format!("{d:.2}"));
    for p in &sweep.points {
        let marker = if p.k == sweep.best_k() { " <-- K*" } else { "" };
        println!(
            "{:>4} {:>12.2} {:>12} {:>12} {:>12}{marker}",
            p.k,
            p.objective,
            delay(p.per_class_delay[0]),
            delay(p.per_class_delay[2]),
            p.served,
        );
    }
    println!(
        "\nsimulation-optimal cutoff K* = {} (cost {:.2})",
        sweep.best_k(),
        sweep.best().objective
    );

    // The analytic model's pick, for comparison (no simulation involved).
    let (k_model, cost_model) = HybridDelayModel::optimal_cutoff(
        &scenario.catalog,
        &scenario.classes,
        scenario.arrival_rate,
        (10..=90).step_by(10),
    );
    println!("analytic-model cutoff  K* = {k_model} (model cost {cost_model:.2})");
    println!(
        "\nBoth should land in the same region: small K floods the pull queue,\n\
         large K stretches the broadcast cycle — the optimum balances the two."
    );
}
