//! What-if determinism oracles: replay-under-override must be a pure
//! function of `(config, override, trace bytes)`.
//!
//! Extends the trace corpus's determinism contract
//! (`replay_twice` in its tests) to *overridden* replays — the
//! seam the what-if harness stands on. Three oracles:
//!
//! * [`replay_override_twice`] — the same trace under the same override
//!   replayed twice in **both** engines (daemon discipline and
//!   simulator) must produce bit-identical serialized books, and the
//!   daemon books must conserve even when the override re-routes or
//!   remaps records;
//! * [`sharded_c1_matches_unsharded`] — an override to
//!   `Sharded { channels: 1 }` must equal the paper's unsharded
//!   interleaved scheduler **verbatim** in both engines (the sharding
//!   layer at `C = 1` is a pure refactor, not a behavior change);
//! * [`whatif_recommendation_oracle`] — the full sweep's recommended
//!   config, re-replayed standalone, must reproduce its reported books
//!   bit-for-bit (no ambient state leaks from sweeping into pricing).

use hybridcast_core::config::{ChannelLayout, HybridConfig};
use hybridcast_ops::trace::Trace;
use hybridcast_ops::whatif::{evaluate_point, run_whatif, WhatIfGrid, WhatIfReport};
use hybridcast_ops::{replay_daemon, replay_simulator, sim_params_for, ReplayBooks};

use crate::trace_corpus::TraceCase;

/// Replays `trace` twice through each engine under `hybrid` (which may
/// differ arbitrarily from the recording config), asserting the
/// determinism contract per engine and conservation of the daemon
/// books. Returns the daemon books on success.
pub(crate) fn replay_override_twice(
    case: &TraceCase,
    hybrid: &HybridConfig,
    trace: &Trace,
) -> Result<ReplayBooks, String> {
    let scenario = case.scenario.build();
    let first = replay_daemon(&scenario, hybrid, case.unit_millis, trace);
    let second = replay_daemon(&scenario, hybrid, case.unit_millis, trace);
    let a = serde_json::to_string(&first).expect("books serialize");
    let b = serde_json::to_string(&second).expect("books serialize");
    if a != b {
        return Err("daemon-mode replay under override is not deterministic: books differ".into());
    }
    if !first.conservation_ok {
        return Err(format!(
            "daemon-mode replay under override does not conserve: {a}"
        ));
    }
    let params = sim_params_for(trace);
    let sim_a = replay_simulator(&scenario, hybrid, &params, trace);
    let sim_b = replay_simulator(&scenario, hybrid, &params, trace);
    if serde_json::to_string(&sim_a).expect("report serializes")
        != serde_json::to_string(&sim_b).expect("report serializes")
    {
        return Err("sim-mode replay under override is not deterministic: reports differ".into());
    }
    Ok(first)
}

/// Replays `trace` under an explicit `Sharded { channels: 1 }` override
/// and under the unsharded interleaved layout, in both engines; any
/// serialized difference is an error. `C = 1` sharding must be a pure
/// refactor of the paper's single channel.
pub(crate) fn sharded_c1_matches_unsharded(case: &TraceCase, trace: &Trace) -> Result<(), String> {
    let scenario = case.scenario.build();
    let unsharded = HybridConfig {
        channels: ChannelLayout::Interleaved,
        ..case.hybrid.clone()
    };
    let sharded = HybridConfig {
        channels: ChannelLayout::Sharded {
            channels: 1,
            assignment: Default::default(),
        },
        ..case.hybrid.clone()
    };
    let books_a = replay_daemon(&scenario, &unsharded, case.unit_millis, trace);
    let books_b = replay_daemon(&scenario, &sharded, case.unit_millis, trace);
    if serde_json::to_string(&books_a).expect("books serialize")
        != serde_json::to_string(&books_b).expect("books serialize")
    {
        return Err("daemon replay: Sharded{channels: 1} differs from Interleaved".into());
    }
    let params = sim_params_for(trace);
    let sim_a = replay_simulator(&scenario, &unsharded, &params, trace);
    let sim_b = replay_simulator(&scenario, &sharded, &params, trace);
    if serde_json::to_string(&sim_a).expect("report serializes")
        != serde_json::to_string(&sim_b).expect("report serializes")
    {
        return Err("sim replay: Sharded{channels: 1} differs from Interleaved".into());
    }
    Ok(())
}

/// Runs the full what-if sweep and asserts the recommendation oracle:
/// the winning point, re-evaluated standalone, must serialize
/// byte-identically to what the sweep reported. Returns the report.
pub(crate) fn whatif_recommendation_oracle(
    case: &TraceCase,
    trace: &Trace,
    grid: &WhatIfGrid,
) -> Result<WhatIfReport, String> {
    let scenario = case.scenario.build();
    let report = run_whatif(&scenario, &case.hybrid, trace, grid, false)?;
    let Some(winner) = &report.recommendation else {
        return Err("what-if sweep produced no recommendation".into());
    };
    let again = evaluate_point(&scenario, &case.hybrid, trace, &winner.spec)?;
    if serde_json::to_string(winner).expect("point serializes")
        != serde_json::to_string(&again).expect("point serializes")
    {
        return Err(format!(
            "recommendation `{}` does not reproduce its reported books when \
             re-replayed standalone",
            winner.label
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_corpus::{smoke_case, synthesize_trace};
    use hybridcast_core::config::AssignmentStrategy;

    /// The override matrix the determinism property is checked over:
    /// channel count × assignment × cutoff changes, across several
    /// synthesized traces (seed-indexed arrival streams).
    fn overrides(base: &HybridConfig) -> Vec<HybridConfig> {
        vec![
            base.with_cutoff(10),
            HybridConfig {
                channels: ChannelLayout::Sharded {
                    channels: 2,
                    assignment: AssignmentStrategy::Hash,
                },
                ..base.clone()
            },
            HybridConfig {
                channels: ChannelLayout::Sharded {
                    channels: 3,
                    assignment: AssignmentStrategy::PatternAware,
                },
                ..base.with_cutoff(15)
            },
        ]
    }

    #[test]
    fn replay_under_override_is_deterministic_in_both_engines() {
        let case = smoke_case();
        for seed in [1u64, 42, 0x5ca1_ab1e] {
            let trace = synthesize_trace(&case, seed, 300);
            for hybrid in overrides(&case.hybrid) {
                let books = replay_override_twice(&case, &hybrid, &trace)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                assert_eq!(books.records, 300);
                // Re-routing only happens when the override moved records
                // off their recorded (single) channel.
                if hybrid.channels.shard_count() == 1 {
                    assert_eq!(books.rerouted, 0);
                }
            }
        }
    }

    #[test]
    fn c1_override_equals_the_unsharded_scheduler_verbatim() {
        let case = smoke_case();
        for seed in [3u64, 7, 99] {
            let trace = synthesize_trace(&case, seed, 250);
            sharded_c1_matches_unsharded(&case, &trace)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn recommendation_reproduces_its_books_on_the_smoke_workload() {
        let case = smoke_case();
        let trace = synthesize_trace(&case, 11, 400);
        let grid = WhatIfGrid {
            cutoffs: vec![15, 30, 45],
            channels: vec![1, 2],
            assignments: vec![AssignmentStrategy::PatternAware],
            bandwidths: Vec::new(),
            controller: Vec::new(),
        };
        let report = whatif_recommendation_oracle(&case, &trace, &grid).expect("oracle holds");
        assert_eq!(report.points.len(), 6);
        assert!(report.recommendation.is_some());
    }
}
