//! Trace-driven simulation: record a request trace, persist it as JSON,
//! replay it bit-identically, and replay the *same* trace under a
//! different scheduler — the cleanest possible A/B comparison (identical
//! demand, zero sampling noise).
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use hybridcast::prelude::*;
use hybridcast::sim::time::SimTime;

fn main() {
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let params = SimParams {
        horizon: 5_000.0,
        warmup: 500.0,
        replication: 0,
    };

    // 1. Record the exact request stream a live run would consume.
    let mut gen = RequestGenerator::new(
        &scenario.catalog,
        &scenario.classes,
        scenario.arrival_rate,
        &scenario.factory.replication(0),
    );
    let trace = gen.take_until(SimTime::new(params.horizon));
    println!(
        "recorded {} requests over {} bu",
        trace.len(),
        params.horizon
    );

    // 2. Persist and reload (any store works; JSON here).
    let json = serde_json::to_string(&trace).expect("trace serializes");
    println!("trace serializes to {} KiB of JSON", json.len() / 1024);
    let reloaded: Vec<Request> = serde_json::from_str(&json).expect("round-trips");

    // 3. Replay equals live, bit for bit.
    let cfg = HybridConfig::paper(40, 0.25);
    let live = simulate(&scenario, &cfg, &params);
    let replay = |cfg: &HybridConfig| {
        Simulation {
            source: Some(Box::new(ReplaySource::new(reloaded.clone()))),
            ..Simulation::new(&scenario, cfg, &params)
        }
        .run(&mut NullSink)
        .report
    };
    let replayed = replay(&cfg);
    assert_eq!(replayed, live);
    println!(
        "replay == live: overall delay {:.2} bu, {} served",
        replayed.overall_delay.mean,
        replayed.total_served()
    );

    // 4. A/B test two schedulers on *identical* demand.
    println!("\nA/B on the same trace:");
    for (label, pull) in [
        ("importance a=0.25", PullPolicyKind::importance(0.25)),
        ("rxw             ", PullPolicyKind::Rxw),
        ("fcfs            ", PullPolicyKind::Fcfs),
    ] {
        let r = replay(&cfg.with_pull(pull));
        println!(
            "  {label}  total cost {:8.2}  Class-A pull delay {:6.2} bu",
            r.total_prioritized_cost, r.per_class[0].pull_delay.mean
        );
    }
    println!("\nDifferences above are pure scheduling effects — the demand is frozen.");
}
