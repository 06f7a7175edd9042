//! Multi-channel broadcast sweep: how the sharded scheduler behaves as
//! the catalog is partitioned across `C ∈ {1, 2, 4, 8}` channels.
//!
//! ```text
//! cargo run --release -p hybridcast-bench --bin bench -- multichannel_sweep [quick]
//! ```
//!
//! Two independent measurements per channel count:
//!
//! 1. **Simulation** — the deterministic driver runs the ICPP-2005
//!    workload under every assignment strategy (range, hash,
//!    pattern-aware), recording mean/per-class access delay, the
//!    single-tuner conflict rate, and the KSY gap of the item→channel
//!    partition above the balanced lower bound `(Σ√(pᵢlᵢ))²/(2C)`.
//!    Per-shard bandwidth is the paper's budget divided by `C`, so the
//!    sweep answers "what does splitting one downlink buy": less cycle
//!    length per channel, paid for with tuning conflicts.
//!
//! 2. **Serving throughput** — an in-process `hybridcastd` with one
//!    scheduler thread per shard is driven by the open-loop epoll
//!    loadgen over an escalating rate ladder; the highest *sustained*
//!    rate (every request answered, ≥ 90% of the offered rate achieved)
//!    is recorded at `C = 1` and `C = 4`.
//!
//! Acceptance gate (exit 1 on failure), enforced where the runner has
//! cores: with ≥ 4 cores, the `C = 4` daemon must sustain ≥ 2× the
//! single-shard rate with conservation intact on every run. On smaller
//! hosts the numbers are still recorded but the gate is skipped with a
//! note — four scheduler threads cannot demonstrate speedup on one core.
//!
//! Results land in `results/BENCH_multichannel.json`.

use hybridcast_core::config::{AssignmentStrategy, ChannelLayout, HybridConfig};
use hybridcast_core::metrics::SimReport;
use hybridcast_core::sharded::ChannelPlan;
use hybridcast_core::sim_driver::simulate;
use hybridcast_workload::scenario::ScenarioConfig;
use serde_json::json;

use crate::ladder::{self, Run, Setup};
use crate::report::{Host, Needs, Report};
use crate::scale::RunScale;

const CHANNEL_COUNTS: [u32; 4] = [1, 2, 4, 8];
const STRATEGIES: [AssignmentStrategy; 3] = [
    AssignmentStrategy::Range,
    AssignmentStrategy::Hash,
    AssignmentStrategy::PatternAware,
];

fn strategy_name(s: AssignmentStrategy) -> &'static str {
    match s {
        AssignmentStrategy::Range => "range",
        AssignmentStrategy::Hash => "hash",
        AssignmentStrategy::PatternAware => "pattern_aware",
    }
}

/// One simulated (channel count, assignment strategy) cell.
struct SimCell {
    channels: u32,
    strategy: AssignmentStrategy,
    report: SimReport,
    ksy_cost: f64,
    ksy_lower_bound: f64,
    ksy_gap: Option<f64>,
}

fn sim_sweep(scale: &RunScale) -> Vec<SimCell> {
    let scenario = ScenarioConfig::icpp2005(0.6);
    let built = scenario.build();
    let mut cells = Vec::new();
    for &channels in &CHANNEL_COUNTS {
        for &strategy in &STRATEGIES {
            let hybrid = HybridConfig {
                channels: ChannelLayout::Sharded {
                    channels,
                    assignment: strategy,
                },
                ..HybridConfig::paper(40, 0.5)
            };
            let plan = ChannelPlan::build(&built.catalog, channels, strategy);
            let report = simulate(&built, &hybrid, &scale.params(0));
            cells.push(SimCell {
                channels,
                strategy,
                ksy_cost: plan.cost(),
                ksy_lower_bound: plan.lower_bound(),
                ksy_gap: plan.gap(),
                report,
            });
        }
    }
    cells
}

fn serve_runs_json(runs: &[Run]) -> Vec<serde_json::Value> {
    runs.iter()
        .map(|run| {
            json!({
                "target_rps": run.target_rps,
                "achieved_rps": run.report.achieved_rps,
                "answered": run.report.answered,
                "unanswered": run.report.unanswered,
                "shed": run.report.shed,
                "channels": run.summary.channels,
                "conservation_ok": run.summary.conservation_ok,
                "per_channel_ok": run.summary.per_channel.iter()
                    .all(|c| c.conservation_ok),
                "sustained": run.sustained,
            })
        })
        .collect()
}

/// The pattern-aware partition must never have a *larger* KSY gap than
/// the naive baselines on the same channel count. A gap that was not
/// measured fails the check: nothing measured is not a win.
fn pattern_beats_naive(cells: &[SimCell]) -> bool {
    let mut beats = true;
    for &channels in &CHANNEL_COUNTS {
        let gap_of = |s: AssignmentStrategy| {
            cells
                .iter()
                .find(|c| c.channels == channels && c.strategy == s)
                .and_then(|c| c.ksy_gap)
        };
        for naive in [AssignmentStrategy::Range, AssignmentStrategy::Hash] {
            let (aware, base) = (gap_of(AssignmentStrategy::PatternAware), gap_of(naive));
            match aware.zip(base) {
                Some((aware, base)) if aware <= base + 1e-9 => {}
                _ => {
                    beats = false;
                    println!(
                        "note: pattern-aware gap {aware:?} does not beat {} ({base:?}) at C={channels}",
                        strategy_name(naive)
                    );
                }
            }
        }
    }
    beats
}

/// Runs the gate.
pub fn run(host: &Host) -> Report {
    let scale = host.pick(RunScale::quick(), RunScale::full());

    println!("# multichannel_sweep — sharded broadcast across C channels\n");
    println!("{host}, horizon: {} units\n", scale.horizon);

    // ── 1. Simulation: delay, conflicts, KSY gap ─────────────────────
    let cells = sim_sweep(&scale);
    println!(
        "| C | assignment | overall delay | A/B/C delay | conflict rate | KSY cost | KSY gap |"
    );
    println!("|---|---|---|---|---|---|---|");
    for cell in &cells {
        let r = &cell.report;
        let per_class: Vec<String> = r
            .per_class
            .iter()
            .map(|p| format!("{:.2}", p.delay.mean))
            .collect();
        println!(
            "| {} | {} | {:.2} | {} | {:.4} | {:.3} | {} |",
            cell.channels,
            strategy_name(cell.strategy),
            r.overall_delay.mean,
            per_class.join("/"),
            r.conflict_rate,
            cell.ksy_cost,
            cell.ksy_gap
                .map(|g| format!("{g:.4}"))
                .unwrap_or_else(|| "-".into()),
        );
    }

    let pattern_beats_naive = pattern_beats_naive(&cells);

    // ── 2. Daemon throughput: C=1 vs C=4 ─────────────────────────────
    let (targets, duration): (&[f64], f64) = host.pick(
        (&[10_000.0, 20_000.0, 40_000.0], 1.5),
        (&[20_000.0, 40_000.0, 80_000.0, 120_000.0], 3.0),
    );
    println!("\n## serving throughput (pattern-aware assignment)\n");
    println!("| C | target rps | achieved rps | unanswered | conserved | sustained |");
    println!("|---|---|---|---|---|---|");
    let mut ladders = Vec::new();
    for &channels in &[1u32, 4] {
        let setup = Setup {
            loop_threads: if host.cores >= 8 { 2 } else { 1 },
            channels: ChannelLayout::Sharded {
                channels,
                assignment: AssignmentStrategy::PatternAware,
            },
            trace_path: None,
            connections: 8,
            seed: 0xC0DE,
            duration_secs: duration,
        };
        let runs = ladder::climb(&setup, targets);
        for run in &runs {
            println!(
                "| {channels} | {:.0} | {:.0} | {} | {} | {} |",
                run.target_rps,
                run.report.achieved_rps,
                run.report.unanswered,
                run.summary.conservation_ok,
                run.sustained,
            );
        }
        ladders.push((channels, runs));
    }
    let single = ladder::sustained_rps(&ladders[0].1);
    let sharded = ladder::sustained_rps(&ladders[1].1);
    let speedup = if single > 0.0 { sharded / single } else { 0.0 };
    println!("\nsustained: C=1 {single:.0} req/s, C=4 {sharded:.0} req/s ({speedup:.2}x)");

    let every_conserved = ladders
        .iter()
        .flat_map(|(_, runs)| runs.iter())
        .all(|r| r.summary.conservation_ok);
    let doc = json!({
        "horizon": scale.horizon,
        "simulation": cells.iter().map(|cell| json!({
            "channels": cell.channels,
            "assignment": strategy_name(cell.strategy),
            "overall_delay": cell.report.overall_delay.mean,
            "per_class_delay": cell.report.per_class.iter()
                .map(|p| p.delay.mean).collect::<Vec<_>>(),
            "total_prioritized_cost": cell.report.total_prioritized_cost,
            "push_transmissions": cell.report.push_transmissions,
            "pull_transmissions": cell.report.pull_transmissions,
            "conflicts": cell.report.conflicts,
            "conflict_rate": cell.report.conflict_rate,
            "ksy_cost": cell.ksy_cost,
            "ksy_lower_bound": cell.ksy_lower_bound,
            "ksy_gap": cell.ksy_gap,
        })).collect::<Vec<_>>(),
        "pattern_beats_naive": pattern_beats_naive,
        "serving": {
            "duration_secs": duration,
            "ladders": ladders.iter().map(|(channels, runs)| json!({
                "channels": channels,
                "runs": serve_runs_json(runs),
                "sustained_rps": ladder::sustained_rps(runs),
            })).collect::<Vec<_>>(),
            "single_shard_rps": single,
            "four_shard_rps": sharded,
            "speedup": speedup,
        },
    });
    let mut report = Report::new("multichannel", host, doc);
    // Four scheduler shards can't run in parallel on fewer than four cores.
    report.gate(
        Needs::cores(4),
        "C=4 sustains >= 2x C=1 with conservation",
        2.0,
        speedup,
        speedup >= 2.0 && every_conserved && pattern_beats_naive,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every (C, strategy) cell, with `gaps` per strategy in `STRATEGIES`
    /// order (range, hash, pattern-aware) on every channel count.
    fn cells(report: &SimReport, gaps: [Option<f64>; 3]) -> Vec<SimCell> {
        CHANNEL_COUNTS
            .iter()
            .flat_map(|&channels| {
                STRATEGIES
                    .iter()
                    .zip(gaps)
                    .map(move |(&s, g)| (channels, s, g))
            })
            .map(|(channels, strategy, ksy_gap)| SimCell {
                channels,
                strategy,
                report: report.clone(),
                ksy_cost: 0.0,
                ksy_lower_bound: 0.0,
                ksy_gap,
            })
            .collect()
    }

    #[test]
    fn a_missing_ksy_gap_fails_the_pattern_check() {
        let report = simulate(
            &ScenarioConfig::icpp2005(0.6).build(),
            &HybridConfig::paper(40, 0.5),
            &RunScale::quick().params(0),
        );
        let beats = |gaps| pattern_beats_naive(&cells(&report, gaps));
        assert!(beats([Some(0.3), Some(0.2), Some(0.1)]));
        assert!(
            !beats([Some(0.3), Some(0.2), Some(0.25)]),
            "aware above hash"
        );
        assert!(!beats([Some(0.3), Some(0.2), None]), "aware unmeasured");
        assert!(!beats([None, Some(0.2), Some(0.1)]), "range unmeasured");
    }
}
