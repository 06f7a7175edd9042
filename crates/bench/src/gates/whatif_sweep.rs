//! What-if sweep benchmark: the trace-driven counterfactual grid fanned
//! out through core's evaluator, gated on the determinism contract.
//!
//! ```text
//! cargo run --release -p hybridcast-bench --bin bench -- whatif_sweep [quick]
//! ```
//!
//! A deterministic synthetic `HCT1` trace (seeded SplitMix64 arrivals,
//! popularity skewed toward low item ids) is swept under a cutoff ×
//! channels × assignment grid three ways, and the runs must agree:
//!
//! * **parallel** — [`run_whatif`], which fans the grid out across
//!   threads, run **twice**: the same trace under the same grid must
//!   produce string-equal reports (the replay-twice gate);
//! * **serial** — a plain in-order loop of [`evaluate_point`] over the
//!   same grid points, which the parallel points must serialize
//!   bit-identically to (the same reference check `replication_sweep`
//!   makes for the replication engine);
//! * **oracle** — the recommended config, re-replayed standalone, must
//!   reproduce its reported books bit-for-bit.
//!
//! Wall-clock speedup is recorded but, as everywhere in this bench
//! suite, only *enforced* where the hardware can express it; the
//! determinism gates are enforced unconditionally — they are the
//! bench's reason to exist. Writes `results/BENCH_whatif.json`.

use std::time::Instant;

use hybridcast_core::config::{AssignmentStrategy, HybridConfig};
use hybridcast_ops::trace::{Trace, TraceMeta, TraceRecord, VERSION};
use hybridcast_ops::whatif::{evaluate_point, run_whatif, WhatIfGrid};
use hybridcast_sim::rng::splitmix64;
use hybridcast_workload::scenario::{Scenario, ScenarioConfig};
use serde_json::json;

use crate::report::{Host, Needs, Report};

/// Deterministic synthetic trace: SplitMix64 inter-arrivals quantized to
/// 1/1024 units, squared-uniform item skew, cycling classes, a deadline
/// on every fourth record — enough structure to exercise both the push
/// and pull sides of every candidate.
fn synthesize(scenario: &Scenario, seed: u64, n: u32) -> Trace {
    let num_items = scenario.catalog.len() as u32;
    let num_classes = scenario.classes.len() as u8;
    let mut state = seed;
    let mut next = move || splitmix64(&mut state);
    let mut arrival = 0.0f64;
    let records = (0..n)
        .map(|i| {
            arrival += ((next() % 1024) + 1) as f64 / 1024.0;
            let u = (next() % 10_000) as f64 / 10_000.0;
            let item = ((u * u * num_items as f64) as u32).min(num_items - 1);
            TraceRecord {
                arrival,
                item,
                class: (i % num_classes as u32) as u8,
                channel: 0,
                deadline_ms: if i % 4 == 0 { 2_000 } else { 0 },
            }
        })
        .collect();
    Trace {
        meta: TraceMeta {
            version: VERSION,
            config_hash: 0xbe7c_ca57,
            channels: 1,
            plan_digest: 0,
            unit_millis: 1.0,
            num_items,
            num_classes,
            default_deadline_ms: 0,
        },
        records,
    }
}

/// Runs the gate.
pub fn run(host: &Host) -> Report {
    let cores = host.cores;
    let records: u32 = host.pick(800, 4_000);

    let scenario = ScenarioConfig::icpp2005(0.6).with_seed(7).build();
    let base = HybridConfig::paper(40, 0.5);
    let trace = synthesize(&scenario, 0xc0ffee, records);

    let grid = WhatIfGrid {
        cutoffs: host.pick(vec![20, 40], vec![10, 20, 30, 40, 60]),
        channels: vec![1, 2],
        assignments: vec![
            AssignmentStrategy::Range,
            AssignmentStrategy::Hash,
            AssignmentStrategy::PatternAware,
        ],
        bandwidths: Vec::new(),
        controller: Vec::new(),
    };
    let specs = grid.points();
    println!(
        "# BENCH_whatif — trace-driven what-if grid (|grid| = {}, {} records, cores = {cores})\n",
        specs.len(),
        records
    );

    // Serial leg: the in-order reference, one point after another.
    let t0 = Instant::now();
    let mut serial_points = Vec::new();
    for spec in &specs {
        if let Ok(point) = evaluate_point(&scenario, &base, &trace, spec) {
            serial_points.push(point);
        }
    }
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Parallel leg, twice: the replay-twice gate, and the parallel points
    // must serialize bit-identically to the serial ones.
    let t1 = Instant::now();
    let first = run_whatif(&scenario, &base, &trace, &grid, false).expect("clean trace");
    let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;
    let second = run_whatif(&scenario, &base, &trace, &grid, false).expect("clean trace");
    let first_json = serde_json::to_string(&first).expect("report serializes");
    let replay_twice_identical = first_json == serde_json::to_string(&second).expect("serializes");
    let parallel_identical = serde_json::to_string(&first.points).expect("serializes")
        == serde_json::to_string(&serial_points).expect("serializes");
    let speedup = serial_ms / parallel_ms;

    // Oracle: the recommendation, re-replayed standalone, reproduces its
    // reported books bit-for-bit.
    let winner = first.recommendation.as_ref().expect("non-empty grid");
    let again = evaluate_point(&scenario, &base, &trace, &winner.spec).expect("reevaluates");
    let oracle_identical = serde_json::to_string(winner).expect("serializes")
        == serde_json::to_string(&again).expect("serializes");

    println!("| rank | config | cost | ksy_gap | conflict_rate |");
    println!("|------|--------|------|---------|---------------|");
    for (rank, &i) in first.ranking.iter().enumerate() {
        let p = &first.points[i];
        println!(
            "| {} | {} | {:.3} | {} | {:.4} |",
            rank + 1,
            p.label,
            p.cost,
            p.ksy
                .gap
                .map(|g| format!("{:.2}%", g * 100.0))
                .unwrap_or_else(|| "n/a".into()),
            p.conflict_rate
        );
    }
    println!();
    println!(
        "serial {serial_ms:.1} ms, parallel {parallel_ms:.1} ms ({speedup:.2}x on {cores} cores)"
    );
    println!("recommendation: {} (cost {:.3})", winner.label, winner.cost);

    let mut report = Report::new(
        "whatif",
        host,
        json!({
            "workload": "icpp2005(theta=0.6) seed 7, base paper(K=40, alpha=0.5)",
            "trace": { "records": records, "seed": "0xc0ffee" },
            "grid": &grid,
            "timing": { "serial_ms": serial_ms, "parallel_ms": parallel_ms, "speedup": speedup },
            "recommendation": winner,
            "ranking": first.ranking,
            "acceptance": {
                "replay_twice_identical": replay_twice_identical,
                "parallel_identical": parallel_identical,
                "oracle_identical": oracle_identical,
            },
        }),
    );
    // The determinism gates are the contract — enforced even in quick
    // mode and on single-core hosts (they do not depend on speedup).
    for (name, identical) in [
        ("replay-twice string-equal books", replay_twice_identical),
        ("parallel grid bit-identical to serial", parallel_identical),
        ("recommendation re-replays bit-for-bit", oracle_identical),
    ] {
        report.gate(Needs::NOTHING, name, true, identical, identical);
    }
    report
}
