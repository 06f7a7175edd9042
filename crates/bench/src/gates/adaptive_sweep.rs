//! Online cutoff controller vs the offline per-regime optimum, on the four
//! nonstationary workload families and on a replayed `HCT1` trace.
//!
//! ```text
//! cargo run --release -p hybridcast-bench --bin bench -- adaptive_sweep [quick]
//! ```
//!
//! For each nonstationary scenario the bench prices three agents on the
//! *identical* arrival stream (same seed, same replication):
//!
//! * **static** — the cutoff an offline tuner would ship: `K*` of the
//!   first (pre-disturbance) regime, held for the whole horizon;
//! * **controller** — the measured-feedback hill climber
//!   ([`ControllerConfig`]) with re-ranking on, *starting from that same
//!   static `K*`* so every improvement is earned online;
//! * **oracle** — the clairvoyant per-regime optimum: the scenario's
//!   piecewise-stationary decomposition ([`NonstationaryConfig::regimes`])
//!   is swept offline per regime, and the winning cutoffs are applied at
//!   the exact regime boundaries via [`FaultSpec::ForceCutoff`].
//!
//! All three agents (and the offline sweeps that pick the yardstick Ks)
//! are scored on the same **backlog-aware prioritized cost** the
//! controller itself steers on ([`backlog_aware_cost`], the what-if
//! tool's) — the whole-run analogue of
//! `FeedbackSnapshot::prioritized_cost`: per class,
//! `w_c · (delay_sum_c + pending_c · period) / generated_c`, where
//! `pending_c` counts every request that arrived but was never served
//! (still queued, blocked, or stranded at the horizon) and `period` is
//! the controller's retune window, [`STARVATION_PERIOD`]. The repo's plain
//! served-only cost would reward a saturated pull queue for the few
//! requests that *do* complete — exactly the survivorship bias the
//! controller exists to avoid — so it is not a meaningful yardstick for
//! nonstationary comparisons.
//!
//! Regret is `controller_cost / oracle_cost`. The trace leg records a
//! flash-crowd stream into the binary `HCT1` format, reads it back, and
//! replays the identical bytes under the static and controller policies
//! (plus a static grid, for the trace's own offline optimum).
//!
//! Writes `results/BENCH_adaptive.json` with the per-scenario costs, the
//! retune (regret) trajectory, and the acceptance verdicts. Acceptance —
//! controller beats static on every scenario and stays within 1.25× of
//! the oracle — is only *enforced* on multi-core hosts in full mode; a
//! `quick` or single-core run records the honest measurements and reports
//! the gate as skipped.

use hybridcast_core::experiment::{evaluate, rank};
use hybridcast_core::prelude::{
    AdaptiveConfig, ControllerConfig, FaultSpec, HybridConfig, NullSink, PlantedControllerBugs,
    SimParams, Simulation, SloConfig,
};
use hybridcast_ops::trace::{Trace, TraceMeta, TraceRecord, VERSION};
use hybridcast_ops::whatif::{backlog_aware_cost, STARVATION_PERIOD};
use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::ItemId;
use hybridcast_workload::classes::ClassId;
use hybridcast_workload::nonstationary::NonstationaryConfig;
use hybridcast_workload::requests::{ReplaySource, Request};
use hybridcast_workload::scenario::{Scenario, ScenarioConfig};
use serde_json::json;

use crate::report::{Host, Needs, Report};

/// Regret acceptance bound: controller within this factor of the
/// clairvoyant per-regime oracle.
const REGRET_BOUND: f64 = 1.25;

/// One named nonstationary benchmark scenario.
struct Spec {
    name: &'static str,
    theta: f64,
    rate: f64,
    seed: u64,
    ns: NonstationaryConfig,
}

fn specs(horizon: f64) -> Vec<Spec> {
    vec![
        Spec {
            name: "flash-crowd",
            theta: 1.8,
            rate: 0.8,
            seed: 101,
            ns: NonstationaryConfig::FlashCrowd {
                start: horizon / 3.0,
                duration: horizon / 3.0,
                factor: 10.0,
            },
        },
        Spec {
            name: "theta-switch",
            theta: 0.2,
            rate: 6.0,
            seed: 202,
            ns: NonstationaryConfig::ThetaSwitch {
                at: horizon / 2.0,
                theta_after: 1.8,
            },
        },
        Spec {
            name: "diurnal-rotation",
            theta: 1.4,
            rate: 3.0,
            seed: 303,
            ns: NonstationaryConfig::DiurnalRotation {
                period: horizon / 4.0,
                shift: 37,
            },
        },
        Spec {
            name: "permutation",
            theta: 1.4,
            rate: 3.0,
            seed: 404,
            ns: NonstationaryConfig::Permutation { at: horizon / 2.0 },
        },
    ]
}

/// The controller under test: measured-feedback hill climbing with
/// re-ranking, over the full catalog band.
fn adaptive_config() -> AdaptiveConfig {
    AdaptiveConfig {
        period: STARVATION_PERIOD,
        candidate_ks: vec![0], // unused on the controller path
        smoothing: 0.5,
        rerank: true,
        controller: Some(ControllerConfig {
            step: 5,
            hysteresis: 0.05,
            cost_smoothing: 0.5,
            settle_windows: 2,
            k_min: 0,
            k_max: 20,
            slo: Some(SloConfig {
                grace_windows: 2,
                min_service_ratio: 0.85,
            }),
            rebalance: false,
            planted: PlantedControllerBugs::default(),
        }),
    }
}

/// Runs a scenario-generated stream under `faults` (no controller) and
/// returns the backlog-aware score.
fn static_score(
    scenario: &Scenario,
    hybrid: &HybridConfig,
    params: &SimParams,
    faults: &[FaultSpec],
) -> f64 {
    let run = Simulation {
        faults,
        ..Simulation::new(scenario, hybrid, params)
    };
    backlog_aware_cost(&run.run(&mut NullSink).report)
}

/// Offline grid search minimizing the backlog-aware score on a stationary
/// scenario; returns the best `K`.
fn offline_best_k(cfg: &ScenarioConfig, grid: &[usize], params: &SimParams, alpha: f64) -> usize {
    let scenario = cfg.build();
    let run = |&k: &usize, _| static_score(&scenario, &HybridConfig::paper(k, alpha), params, &[]);
    let scores = evaluate(grid, 1, run, |_, mut runs| runs.remove(0));
    grid[rank(&scores)[0]]
}

/// Runs the gate.
pub fn run(host: &Host) -> Report {
    let horizon = host.pick(4_000.0, 12_000.0);
    let run_params = SimParams {
        horizon,
        warmup: 0.0,
        replication: 0,
    };
    let offline_params = SimParams {
        horizon: host.pick(2_000.0, 4_000.0),
        warmup: 0.0,
        replication: 0,
    };
    // Fine resolution at small K where the cost landscape lives, coarse
    // above (pushing the cold tail is monotonically worse).
    let grid: Vec<usize> = host.pick(
        vec![0, 5, 10, 20, 40, 70, 100],
        vec![0, 2, 5, 8, 10, 15, 20, 30, 50, 75, 100],
    );
    let alpha = 0.5;

    println!(
        "# BENCH_adaptive — online cutoff controller vs offline per-regime optimum ({host})\n"
    );
    println!("| scenario | static K* | oracle Ks | static cost | controller cost | oracle cost | regret | final K |");
    println!("|----------|-----------|-----------|-------------|-----------------|-------------|--------|---------|");

    let mut rows = Vec::new();
    let mut all_beat_static = true;
    let mut worst_regret = 0.0_f64;
    for spec in specs(horizon) {
        let base_cfg = ScenarioConfig {
            arrival_rate: spec.rate,
            nonstationary: Some(spec.ns),
            ..ScenarioConfig::icpp2005(spec.theta).with_seed(spec.seed)
        };
        // Offline per-regime sweep: each piecewise-stationary segment gets
        // its own grid search over K.
        let regimes = spec.ns.regimes(&base_cfg, horizon);
        let regime_ks: Vec<usize> = regimes
            .iter()
            .map(|r| offline_best_k(&r.scenario, &grid, &offline_params, alpha))
            .collect();
        let k_static = regime_ks[0];
        let hybrid = HybridConfig::paper(k_static, alpha);
        let scenario = base_cfg.build();

        // Static: the pre-disturbance optimum held for the whole horizon.
        let static_cost = static_score(&scenario, &hybrid, &run_params, &[]);

        // Oracle: the same stream with the per-regime winners applied at
        // the exact boundaries (clairvoyant retuning, zero learning cost).
        let boundary_faults: Vec<FaultSpec> = regimes
            .iter()
            .zip(&regime_ks)
            .skip(1)
            .map(|(r, &k)| FaultSpec::ForceCutoff { time: r.start, k })
            .collect();
        let oracle_cost = static_score(&scenario, &hybrid, &run_params, &boundary_faults);

        // Controller: starts at the static K and must earn every move.
        let adaptive = adaptive_config();
        let out = Simulation {
            adaptive: Some(&adaptive),
            ..Simulation::new(&scenario, &hybrid, &run_params)
        }
        .run(&mut NullSink);
        let controller_cost = backlog_aware_cost(&out.report);

        let regret = controller_cost / oracle_cost;
        let beats = controller_cost < static_cost;
        all_beat_static &= beats;
        worst_regret = worst_regret.max(regret);
        println!(
            "| {} | {k_static} | {regime_ks:?} | {static_cost:.2} | {controller_cost:.2} | {oracle_cost:.2} | {regret:.3} | {} |",
            spec.name, out.final_k
        );

        // The regret trajectory: every retune decision over time.
        let trajectory: Vec<serde_json::Value> = out
            .retunes
            .iter()
            .map(|r| {
                json!({
                    "time": r.time,
                    "k": r.to_k,
                    "measured_cost": r.measured_cost,
                    "held": r.held,
                    "slo_rescue": r.slo_rescue,
                })
            })
            .collect();
        rows.push(json!({
            "scenario": spec.name,
            "theta": spec.theta,
            "rate": spec.rate,
            "seed": spec.seed,
            "regime_boundaries": spec.ns.boundaries(horizon),
            "regime_best_ks": regime_ks,
            "static_k": k_static,
            "static_cost": static_cost,
            "controller_cost": controller_cost,
            "oracle_cost": oracle_cost,
            "regret": regret,
            "beats_static": beats,
            "final_k": out.final_k,
            "trajectory": trajectory,
        }));
    }

    // ------------------------------------------------------------------
    // Trace leg: record a flash-crowd stream as HCT1 bytes, read it back,
    // and replay the identical arrivals under static vs controller.
    // ------------------------------------------------------------------
    println!("\n## HCT1 trace replay\n");
    let trace_cfg = ScenarioConfig {
        arrival_rate: 0.8,
        nonstationary: Some(NonstationaryConfig::FlashCrowd {
            start: horizon / 3.0,
            duration: horizon / 3.0,
            factor: 10.0,
        }),
        ..ScenarioConfig::icpp2005(1.8).with_seed(515)
    };
    let trace = record_trace(&trace_cfg, horizon);
    let path = std::env::temp_dir().join("hybridcast_adaptive_sweep.hct");
    trace.write(&path).expect("trace write must succeed");
    let trace = Trace::read(&path).expect("read back the recorded trace");
    let requests: Vec<Request> = trace
        .sorted_by_arrival()
        .into_iter()
        .map(|r| Request {
            arrival: SimTime::new(r.arrival),
            item: ItemId(r.item),
            class: ClassId(r.class),
        })
        .collect();
    // Replay under the *stationary* base config: the disturbance lives in
    // the recorded arrivals now, not in the generator.
    let replay_cfg = ScenarioConfig {
        nonstationary: None,
        ..trace_cfg.clone()
    };
    let replay_scenario = replay_cfg.build();
    let replay = |hybrid: &HybridConfig, adaptive: Option<&AdaptiveConfig>| {
        Simulation {
            source: Some(Box::new(ReplaySource::new(requests.clone()))),
            adaptive,
            ..Simulation::new(&replay_scenario, hybrid, &run_params)
        }
        .run(&mut NullSink)
    };
    let replay_score =
        |k: usize| backlog_aware_cost(&replay(&HybridConfig::paper(k, alpha), None).report);
    let coarse: Vec<usize> = vec![0, 5, 10, 15, 25, 50, 100];
    let coarse_costs = evaluate(
        &coarse,
        1,
        |&k, _| replay_score(k),
        |_, mut runs| runs.remove(0),
    );
    let best = rank(&coarse_costs)[0];
    let (best_trace_k, best_trace_cost) = (coarse[best], coarse_costs[best]);
    // Static K for the trace: the pre-crowd regime's offline optimum,
    // re-swept on this seed's stationary base for honesty.
    let trace_static_k = offline_best_k(
        &trace_cfg
            .nonstationary
            .expect("set above")
            .regimes(&trace_cfg, horizon)[0]
            .scenario,
        &grid,
        &offline_params,
        alpha,
    );
    let trace_hybrid = HybridConfig::paper(trace_static_k, alpha);
    let trace_static_cost = replay_score(trace_static_k);
    let trace_out = replay(&trace_hybrid, Some(&adaptive_config()));
    let trace_controller_cost = backlog_aware_cost(&trace_out.report);
    let trace_regret = trace_controller_cost / best_trace_cost;
    let trace_beats = trace_controller_cost < trace_static_cost;
    all_beat_static &= trace_beats;
    println!(
        "records = {}, static K* = {trace_static_k}: static {trace_static_cost:.2}, controller \
         {trace_controller_cost:.2} (final K = {}), best static on trace {best_trace_cost:.2} \
         (K = {best_trace_k}), regret {trace_regret:.3}",
        trace.records.len(),
        trace_out.final_k
    );
    let _ = std::fs::remove_file(&path);

    let mut report = Report::new(
        "adaptive",
        host,
        json!({
            "params": {
                "horizon": horizon,
                "period": STARVATION_PERIOD,
                "grid": grid,
                "score": "backlog-aware prioritized cost (pending charged one period)",
                "controller": { "step": 5, "hysteresis": 0.05, "band": [0, 100], "rerank": true },
            },
            "scenarios": rows,
            "trace": {
                "records": trace.records.len(),
                "static_k": trace_static_k,
                "static_cost": trace_static_cost,
                "controller_cost": trace_controller_cost,
                "controller_final_k": trace_out.final_k,
                "best_static_k": best_trace_k,
                "best_static_cost": best_trace_cost,
                "regret": trace_regret,
                "beats_static": trace_beats,
            },
            "acceptance": {
                "beats_static": all_beat_static,
                "worst_regret": worst_regret,
                "regret_bound": REGRET_BOUND,
            },
        }),
    );
    report.gate(
        Needs::full(2),
        "controller beats static on every nonstationary scenario",
        true,
        all_beat_static,
        all_beat_static,
    );
    report.gate(
        Needs::full(2),
        &format!("regret <= {REGRET_BOUND} vs per-regime oracle"),
        REGRET_BOUND,
        worst_regret,
        worst_regret <= REGRET_BOUND,
    );
    report
}

/// Drains the scenario's replication-0 request stream to `horizon` into a
/// single-channel `HCT1` trace (no deadlines — the simulator path models
/// patience through blocking, not wall-clock deadlines).
fn record_trace(cfg: &ScenarioConfig, horizon: f64) -> Trace {
    let scenario = cfg.build();
    let mut source = scenario.request_source_replication(0);
    let mut records = Vec::new();
    while let Some(t) = source.peek() {
        if t > SimTime::new(horizon) {
            break;
        }
        let req = source.next_request();
        records.push(TraceRecord {
            arrival: req.arrival.as_f64(),
            item: req.item.0,
            class: req.class.0,
            channel: 0,
            deadline_ms: 0,
        });
    }
    Trace {
        meta: TraceMeta {
            version: VERSION,
            config_hash: 0,
            channels: 1,
            plan_digest: 0,
            unit_millis: 1.0,
            num_items: cfg.num_items as u32,
            num_classes: cfg.classes.len() as u8,
            default_deadline_ms: 0,
        },
        records,
    }
}
