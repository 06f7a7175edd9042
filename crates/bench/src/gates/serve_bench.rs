//! Serving-throughput trajectory for `hybridcastd`'s event-driven front
//! end: an in-process daemon is driven by the open-loop epoll loadgen at
//! escalating request rates, and the highest rate the daemon *sustains*
//! (every request answered, offered rate actually achieved) is recorded
//! against the PR-5 thread-per-connection baseline.
//!
//! ```text
//! cargo run --release -p hybridcast-bench --bin bench -- serve_bench [quick]
//! ```
//!
//! Each rate gets a fresh daemon on an ephemeral loopback port; the
//! sustained rule and the CPU accounting are [`crate::ladder`]'s.
//!
//! Acceptance gates, enforced in CI where the runner has cores:
//!
//! * quick mode, ≥ 2 cores: sustained ≥ 40 000 req/s;
//! * full mode, ≥ 4 cores: sustained ≥ 100 000 req/s (≥ 8× baseline).
//!
//! On a single-core host the trajectory still runs and records honest
//! numbers, but the gate is skipped with a note — an epoll front end
//! can't demonstrate parallel speedup without parallelism.
//!
//! Results land in `results/BENCH_serve.json`.

use hybridcast_server::loadgen::fmt_quantile_ms;
use serde_json::json;

use crate::ladder::{self, Setup};
use crate::report::{Host, Needs, Report};

/// PR-5 thread-per-connection sustained throughput on the reference CI
/// class (loopback, 4 cores) — the denominator of the speedup claim.
const BASELINE_RPS: f64 = 12_043.0;

/// Runs the gate.
pub fn run(host: &Host) -> Report {
    let cores = host.cores;
    let (targets, duration): (&[f64], f64) = host.pick(
        (&[20_000.0, 40_000.0, 60_000.0], 1.5),
        (&[25_000.0, 50_000.0, 100_000.0, 150_000.0], 3.0),
    );
    let setup = Setup {
        loop_threads: if cores >= 8 {
            4
        } else if cores >= 2 {
            2
        } else {
            1
        },
        channels: Default::default(),
        trace_path: None,
        connections: 8,
        seed: 0xBEEF,
        duration_secs: duration,
    };

    println!("# serve_bench — event-driven front-end trajectory\n");
    println!("{host}, baseline (thread-per-conn): {BASELINE_RPS:.0} req/s\n");
    println!("| target rps | achieved rps | answered | unanswered | shed % | A p50/p99 ms | C p50/p99 ms | cpu µs/req | conserved | sustained |");
    println!("|---|---|---|---|---|---|---|---|---|---|");

    let runs = ladder::climb(&setup, targets);
    for run in &runs {
        let r = &run.report;
        let shed_pct = if r.answered > 0 {
            100.0 * r.shed as f64 / r.answered as f64
        } else {
            0.0
        };
        let q = |c: usize| {
            r.per_class
                .get(c)
                .map(|p| (fmt_quantile_ms(p.rtt_ms.p50), fmt_quantile_ms(p.rtt_ms.p99)))
                .unwrap_or_else(|| ("n/a".into(), "n/a".into()))
        };
        let (a50, a99) = q(0);
        let (c50, c99) = q(2);
        println!(
            "| {:.0} | {:.0} | {} | {} | {shed_pct:.1} | {a50}/{a99} | {c50}/{c99} | {} | {} | {} |",
            run.target_rps,
            r.achieved_rps,
            r.answered,
            r.unanswered,
            run.cpu_us_per_request()
                .map_or_else(|| "n/a".into(), |c| format!("{c:.1}")),
            run.summary.conservation_ok,
            run.sustained,
        );
    }

    let sustained_rps = ladder::sustained_rps(&runs);
    let speedup = sustained_rps / BASELINE_RPS;
    println!("\nsustained: {sustained_rps:.0} req/s ({speedup:.1}x over baseline)");

    let every_conserved = runs.iter().all(|r| r.summary.conservation_ok);
    // Quick: one core can't overlap event loops and scheduler. Full: the
    // 8x target assumes parallel loops.
    let (gate_rps, gate_cores) = host.pick((40_000.0, 2), (100_000.0, 4));

    let mut report = Report::new(
        "serve",
        host,
        json!({
            "baseline_rps": BASELINE_RPS,
            "duration_secs": duration,
            "runs": runs.iter().map(|run| json!({
                "target_rps": run.target_rps,
                "achieved_rps": run.report.achieved_rps,
                "sent": run.report.sent,
                "answered": run.report.answered,
                "unanswered": run.report.unanswered,
                "served": run.report.served,
                "shed": run.report.shed,
                "cpu_us_per_request": run.cpu_us_per_request(),
                "conservation_ok": run.summary.conservation_ok,
                "accept_errors": run.summary.accept_errors,
                "stalled_conns": run.summary.stalled_conns,
                "sustained": run.sustained,
                "per_class": run.report.per_class.iter().map(|p| json!({
                    "class": p.class,
                    "sent": p.sent,
                    "shed": p.shed,
                    "shed_rate": if p.sent > 0 { p.shed as f64 / p.sent as f64 } else { 0.0 },
                    "rtt_ms": {
                        "count": p.rtt_ms.count,
                        "mean": p.rtt_ms.mean,
                        "p50": p.rtt_ms.p50,
                        "p95": p.rtt_ms.p95,
                        "p99": p.rtt_ms.p99,
                        "max": p.rtt_ms.max,
                    },
                })).collect::<Vec<_>>(),
            })).collect::<Vec<_>>(),
            "sustained_rps": sustained_rps,
            "speedup_over_baseline": speedup,
            "gate_rps": gate_rps,
        }),
    );
    report.gate(
        Needs::cores(gate_cores),
        &format!("sustained >= {gate_rps:.0} req/s with conservation"),
        gate_rps,
        sustained_rps,
        sustained_rps >= gate_rps && every_conserved,
    );
    report
}
