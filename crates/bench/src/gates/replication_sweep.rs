//! Replication-engine and parallel-sweep benchmark: wall-clock scaling of
//! `run_replicated` and of the parallel cutoff sweep against plain
//! in-order loops over the same runs — with the aggregation equivalences
//! checked in-process.
//!
//! ```text
//! cargo run --release -p hybridcast-bench --bin bench -- replication_sweep [quick]
//! ```
//!
//! Writes `results/BENCH_experiments.json`:
//!
//! * `replication_rows` — for each `R ∈ {1, 2, 4, 8}`: serial and parallel
//!   wall-clock, speedup, and whether the parallel reduction was
//!   bit-identical to the in-order loop's (it must be — order-preserving
//!   collect + fixed-order reduce);
//! * `sweep` — the in-order loop vs the parallel grid sweep over
//!   `K ∈ {10, …, 90}` on the icpp2005 scenario: wall-clock, speedup,
//!   `best_k` agreement;
//! * the speedup acceptance gate (≥ 4× at `R = 8`) is only enforced where
//!   the hardware can express it (full mode, ≥ 4 cores); a smaller host
//!   records its honest ≈1× and reports the gate as skipped.

use std::time::Instant;

use hybridcast_core::config::HybridConfig;
use hybridcast_core::cutoff::{CutoffOptimizer, CutoffPoint, CutoffSweep, Objective};
use hybridcast_core::experiment::{rank, run_replicated, ReplicatedReport};
use hybridcast_core::metrics::SimReport;
use hybridcast_core::sim_driver::{simulate, SimParams};
use hybridcast_workload::scenario::{Scenario, ScenarioConfig};
use serde_json::json;

use crate::report::{Host, Needs, Report};

/// The in-order reference: replications `base, …, base + r − 1` of `cfg`,
/// one after another on this thread.
fn in_order(scenario: &Scenario, cfg: &HybridConfig, params: &SimParams, r: u64) -> Vec<SimReport> {
    let base = params.replication;
    let run = |i| simulate(scenario, cfg, &params.with_replication(base + i));
    (0..r).map(run).collect()
}

/// Runs the gate.
pub fn run(host: &Host) -> Report {
    let (horizon, warmup) = host.pick((2_500.0, 300.0), (12_000.0, 1_500.0));
    let params = SimParams {
        horizon,
        warmup,
        replication: 0,
    };
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let cfg = HybridConfig::paper(40, 0.5);

    println!("# BENCH_experiments — parallel replication & sweep engine ({host})\n");
    println!("## run_replicated: parallel fan-out vs the in-order loop\n");
    println!("| R | serial ms | parallel ms | speedup | bit-identical |");
    println!("|---|-----------|-------------|---------|---------------|");

    let mut replication_rows = Vec::new();
    let mut speedup_r8 = 0.0_f64;
    let mut all_identical = true;
    for &r in &[1u64, 2, 4, 8] {
        // Warm-up pass (untimed) so allocator/page-cache effects don't
        // poison the first measurement.
        let _ = run_replicated(&scenario, &cfg, &params, r);
        let t0 = Instant::now();
        let serial = ReplicatedReport::from_reports(&in_order(&scenario, &cfg, &params, r));
        let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let parallel = run_replicated(&scenario, &cfg, &params, r);
        let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;
        let identical = parallel == serial;
        all_identical &= identical;
        let speedup = serial_ms / parallel_ms;
        if r == 8 {
            speedup_r8 = speedup;
        }
        println!(
            "| {r} | {serial_ms:.1} | {parallel_ms:.1} | {speedup:.2}x | {} |",
            if identical { "yes" } else { "NO" }
        );
        replication_rows.push(json!({
            "replications": r,
            "serial_ms": serial_ms,
            "parallel_ms": parallel_ms,
            "speedup": speedup,
            "bit_identical": identical,
            "overall_delay_mean": parallel.overall_delay.mean,
            "overall_delay_ci95": parallel.overall_delay.ci95,
        }));
    }

    println!("\n## cutoff sweep: parallel grid vs the in-order loop\n");
    let ks: Vec<usize> = (10..=90).step_by(10).collect();
    let objective = Objective::TotalPrioritizedCost;
    let opt = CutoffOptimizer::new(objective, params);
    let _ = opt.sweep(&scenario, &cfg, ks.clone());
    let t0 = Instant::now();
    let mut points = Vec::new();
    for &k in &ks {
        let reports = in_order(&scenario, &cfg.with_cutoff(k), &params, 1);
        points.push(CutoffPoint::from_reports(objective, k, &reports));
    }
    let best_index = rank(&points.iter().map(|p| p.objective).collect::<Vec<_>>())[0];
    let serial_sweep = CutoffSweep {
        objective,
        replications: 1,
        best_index,
        points,
    };
    let sweep_serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let parallel_sweep = opt.sweep(&scenario, &cfg, ks.clone());
    let sweep_parallel_ms = t1.elapsed().as_secs_f64() * 1e3;
    let sweep_identical = parallel_sweep == serial_sweep;
    all_identical &= sweep_identical;
    let sweep_speedup = sweep_serial_ms / sweep_parallel_ms;
    println!(
        "grid |K| = {}: serial {sweep_serial_ms:.1} ms, parallel {sweep_parallel_ms:.1} ms \
         ({sweep_speedup:.2}x), best_k = {} (serial {}), bit-identical: {}",
        ks.len(),
        parallel_sweep.best_k(),
        serial_sweep.best_k(),
        if sweep_identical { "yes" } else { "NO" }
    );

    let mut report = Report::new(
        "experiments",
        host,
        json!({
            "workload": "icpp2005(theta=0.6), paper(K=40, alpha=0.5)",
            "params": { "horizon": params.horizon, "warmup": params.warmup },
            "replication_rows": replication_rows,
            "sweep": {
                "ks": ks,
                "serial_ms": sweep_serial_ms,
                "parallel_ms": sweep_parallel_ms,
                "speedup": sweep_speedup,
                "best_k_parallel": parallel_sweep.best_k(),
                "best_k_serial": serial_sweep.best_k(),
                "bit_identical": sweep_identical,
            },
            "acceptance": {
                "bit_identical_reduction": all_identical,
                "best_k_agrees": sweep_identical,
                "speedup_r8": speedup_r8,
            },
        }),
    );
    report.gate(
        Needs::NOTHING,
        "parallel reduction bit-identical to sequential fold",
        true,
        all_identical,
        all_identical,
    );
    report.gate(
        Needs::NOTHING,
        "parallel sweep best_k == serial best_k",
        true,
        sweep_identical,
        sweep_identical,
    );
    report.gate(
        Needs::full(4),
        ">=4x speedup at R=8",
        4.0,
        speedup_r8,
        speedup_r8 >= 4.0,
    );
    report
}
