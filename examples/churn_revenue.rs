//! Churn and revenue: the paper's motivation, end to end.
//!
//! Section 1 argues that dissatisfied clients churn, that premium churn
//! hurts most, and that differentiated QoS exists to prevent it. This
//! example runs the finite-population churn model across the importance
//! blend α and prints the per-class survivor counts and the
//! priority-weighted retention (a revenue proxy).
//!
//! ```text
//! cargo run --release --example churn_revenue
//! ```

use hybridcast::prelude::*;

fn main() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let churn_cfg = ChurnConfig::default();
    let params = SimParams {
        horizon: 15_000.0,
        warmup: 0.0, // churn is a transient process — watch it from t = 0
        replication: 0,
    };

    println!(
        "population: {} subscribers (A/B/C by Zipf split), tolerances {:?} bu\n",
        churn_cfg.total_clients, churn_cfg.tolerance
    );
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>12} {:>12}",
        "alpha", "A alive", "B alive", "C alive", "departures", "retention"
    );

    let mut retentions = Vec::new();
    for &alpha in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        let config = HybridConfig::paper(40, alpha);
        let r: ChurnReport = Simulation {
            churn: Some(&churn_cfg),
            ..Simulation::new(&scenario, &config, &params)
        }
        .run(&mut NullSink)
        .into();
        println!(
            "{:>6.2} {:>9} {:>9} {:>9} {:>12} {:>11.1}%",
            alpha,
            r.alive_per_class[0],
            r.alive_per_class[1],
            r.alive_per_class[2],
            r.departures,
            100.0 * r.weighted_retention
        );
        retentions.push((alpha, r.weighted_retention));
    }

    let best = retentions
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty");
    println!(
        "\nrevenue-optimal blend: alpha = {} ({:.1}% weighted retention)",
        best.0,
        100.0 * best.1
    );
    println!(
        "Pure stretch (alpha = 1) starves rare items and ignores priority — the\n\
         premium class walks away first, which is exactly the churn scenario\n\
         the paper's service classification is designed to prevent."
    );
}
