//! # hybridcast-cli — JSON-config front end
//!
//! Drives the `hybridcast` stack from serializable configs, so experiments
//! can be scripted without writing Rust:
//!
//! ```text
//! hybridcast init-config > experiment.json   # starter config (paper defaults)
//! hybridcast simulate experiment.json        # one run → JSON report on stdout
//! hybridcast adaptive experiment.json        # with periodic cutoff re-optimization
//! hybridcast optimize experiment.json        # K grid search → sweep JSON
//! hybridcast model    experiment.json        # analytic delays, no simulation
//! ```
//!
//! The library half holds the [`ExperimentConfig`] schema and pure
//! `run_*` functions (unit-tested); `main.rs` is a thin dispatcher.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};

use hybridcast_analysis::hybrid_model::{HybridDelayModel, ModelDelays};
use hybridcast_core::adaptive::ControllerConfig;
use hybridcast_core::churn::{ChurnConfig, ChurnReport};
use hybridcast_core::config::HybridConfig;
use hybridcast_core::cutoff::{CutoffOptimizer, CutoffSweep, Objective};
use hybridcast_core::experiment::run_replicated_with_telemetry;
use hybridcast_core::experiment::{run_replicated, ReplicatedReport};
use hybridcast_core::metrics::SimReport;
use hybridcast_core::sim_driver::{
    simulate, simulate_telemetry, AdaptiveConfig, AdaptiveReport, SimParams, Simulation,
};
use hybridcast_telemetry::{AggregatedSeries, NullSink, TelemetryConfig, TimeSeries};
use hybridcast_workload::scenario::ScenarioConfig;

/// The complete, serializable description of one experiment.
///
/// Unknown top-level keys are rejected at parse time: a typo like
/// `"replicatons"` silently reverting to the default would corrupt an
/// experiment, so the config surface is closed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Workload: catalog, classes, arrival process, seed.
    pub scenario: ScenarioConfig,
    /// Scheduler: cutoff, push/pull policies, bandwidth.
    pub hybrid: HybridConfig,
    /// Run length and replication index.
    pub params: SimParams,
    /// Optional periodic cutoff re-optimization (used by `adaptive`).
    #[serde(default)]
    pub adaptive: Option<AdaptiveConfig>,
    /// Cutoff grid for `optimize` (defaults to 10..=90 step 10).
    #[serde(default)]
    pub optimize_ks: Option<Vec<usize>>,
    /// Objective for `optimize` (defaults to total prioritized cost).
    #[serde(default)]
    pub objective: Option<Objective>,
    /// Churn-model parameters for the `churn` subcommand (defaults apply
    /// when absent).
    #[serde(default)]
    pub churn: Option<ChurnConfig>,
    /// Independent replications for `simulate`/`summary`/`optimize`
    /// (defaults to 1; the `--replications N` flag overrides).
    #[serde(default)]
    pub replications: Option<u64>,
    /// Telemetry window width in simulation time units. When set (or the
    /// `--telemetry [window]` flag is given), instrumented runs export a
    /// windowed QoS time series and an SVG dashboard under `results/`.
    #[serde(default)]
    pub telemetry: Option<f64>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scenario: ScenarioConfig::default(),
            hybrid: HybridConfig::default(),
            params: SimParams::default(),
            adaptive: Some(AdaptiveConfig::default()),
            optimize_ks: None,
            objective: None,
            churn: None,
            replications: None,
            telemetry: None,
        }
    }
}

/// Every key `ExperimentConfig` understands, for typo detection.
const KNOWN_KEYS: &[&str] = &[
    "scenario",
    "hybrid",
    "params",
    "adaptive",
    "optimize_ks",
    "objective",
    "churn",
    "replications",
    "telemetry",
];

/// The most telemetry windows one run may cut (`params.horizon /
/// telemetry`).
const MAX_TELEMETRY_WINDOWS: f64 = 1e6;

impl ExperimentConfig {
    /// Parses a config from JSON text. Unknown top-level keys are an
    /// error: a typo'd key silently falling back to a default would
    /// corrupt an experiment without a trace.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value: serde_json::Value =
            serde_json::from_str(text).map_err(|e| format!("invalid config: {e}"))?;
        if let Some(map) = value.as_object() {
            for (key, _) in map {
                if !KNOWN_KEYS.contains(&key.as_str()) {
                    return Err(format!(
                        "invalid config: unknown key `{key}` (expected one of {})",
                        KNOWN_KEYS.join(", ")
                    ));
                }
            }
        }
        let cfg: ExperimentConfig =
            serde_json::from_value(value).map_err(|e| format!("invalid config: {e}"))?;
        cfg.validate_values()
            .map_err(|e| format!("invalid config: {e}"))?;
        Ok(cfg)
    }

    /// Every value inside the range the code that consumes it requires —
    /// a typed error naming the field here, where the config enters,
    /// instead of that code's panic mid-run.
    fn validate_values(&self) -> Result<(), String> {
        self.scenario.validate(true)?;
        self.hybrid.validate()?;
        self.validate_telemetry()
    }

    /// The telemetry window, when set, is positive and cuts the run's
    /// horizon into at most 10⁶ windows: the recorder keeps every window
    /// it closes, so a far shorter window exhausts memory instead of
    /// finishing.
    pub fn validate_telemetry(&self) -> Result<(), String> {
        let Some(window) = self.telemetry else {
            return Ok(());
        };
        TelemetryConfig { window }
            .validate()
            .map_err(|e| format!("telemetry: {e}"))?;
        let windows = self.params.horizon / window;
        if windows > MAX_TELEMETRY_WINDOWS {
            return Err(format!(
                "telemetry: a {window}-unit window cuts the {}-unit horizon into {windows:.0} \
                 windows; at most {MAX_TELEMETRY_WINDOWS} fit one run",
                self.params.horizon
            ));
        }
        Ok(())
    }

    /// The `optimize`/`model` cutoff grid is non-empty and inside the
    /// catalog: a typed error naming `optimize_ks`, not a sweep panic.
    pub fn validate_grid(&self) -> Result<(), String> {
        let (ks, items) = (self.ks(), self.scenario.num_items);
        match ks.iter().find(|&&k| k > items) {
            _ if ks.is_empty() => Err("the cutoff grid needs at least one K".to_string()),
            Some(k) => Err(format!("cutoff {k} exceeds catalog size {items}")),
            None => Ok(()),
        }
        .map_err(|e| format!("invalid config: optimize_ks: {e}"))
    }

    /// Renders the config as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    fn ks(&self) -> Vec<usize> {
        self.optimize_ks
            .clone()
            .unwrap_or_else(|| (10..=90).step_by(10).collect())
    }

    /// Effective replication count (config field, defaulting to 1).
    pub fn effective_replications(&self) -> u64 {
        self.replications.unwrap_or(1).max(1)
    }

    /// The telemetry recorder config, when telemetry is enabled.
    pub(crate) fn telemetry_config(&self) -> Option<TelemetryConfig> {
        self.telemetry.map(TelemetryConfig::new)
    }

    /// Arms the online cutoff controller (the `--adaptive` flag): fills
    /// in a default `adaptive` block when the config has none, and adds
    /// a default hysteresis controller when the block only describes the
    /// sweep-based re-optimizer. An already-configured controller is
    /// left untouched, so the flag is idempotent over explicit configs.
    pub fn enable_controller(&mut self) {
        let adaptive = self.adaptive.get_or_insert_with(AdaptiveConfig::default);
        if adaptive.controller.is_none() {
            adaptive.controller = Some(ControllerConfig::default());
        }
    }

    /// The typed preconditions of the run a subcommand is about to start
    /// ([`Simulation::validate`]): the static run, with the `adaptive`
    /// block or the `churn` model on top when the subcommand uses it.
    pub fn validate_run(&self, adaptive: bool, churn: bool) -> Result<(), String> {
        let scenario = self.scenario.build();
        let adaptive = adaptive.then(|| self.adaptive.clone().unwrap_or_default());
        let churn = churn.then(|| self.churn.clone().unwrap_or_default());
        Simulation {
            adaptive: adaptive.as_ref(),
            churn: churn.as_ref(),
            ..Simulation::new(&scenario, &self.hybrid, &self.params)
        }
        .validate()
        .map_err(|e| format!("invalid config: {e}"))
    }
}

/// `simulate`: one static run.
pub fn run_simulate(cfg: &ExperimentConfig) -> SimReport {
    let scenario = cfg.scenario.build();
    simulate(&scenario, &cfg.hybrid, &cfg.params)
}

/// `adaptive`: one run with periodic cutoff re-optimization.
pub fn run_adaptive(cfg: &ExperimentConfig) -> AdaptiveReport {
    let scenario = cfg.scenario.build();
    let adaptive = cfg.adaptive.clone().unwrap_or_default();
    Simulation {
        adaptive: Some(&adaptive),
        ..Simulation::new(&scenario, &cfg.hybrid, &cfg.params)
    }
    .run(&mut NullSink)
    .into()
}

/// `churn`: one run with the finite-population churn model attached.
pub fn run_churn(cfg: &ExperimentConfig) -> ChurnReport {
    let scenario = cfg.scenario.build();
    let churn = cfg.churn.clone().unwrap_or_default();
    Simulation {
        churn: Some(&churn),
        ..Simulation::new(&scenario, &cfg.hybrid, &cfg.params)
    }
    .run(&mut NullSink)
    .into()
}

/// `simulate --telemetry`: one instrumented run returning the report plus
/// the windowed QoS time series (bit-identical report to [`run_simulate`]).
pub fn run_simulate_telemetry(cfg: &ExperimentConfig) -> (SimReport, TimeSeries) {
    let scenario = cfg.scenario.build();
    let telemetry = cfg.telemetry_config().unwrap_or_default();
    simulate_telemetry(&scenario, &cfg.hybrid, &cfg.params, telemetry)
}

/// `simulate --replications N --telemetry`: replicated runs with
/// per-replication series reduced into a window-aligned aggregate with
/// 95% CIs.
pub fn run_replications_telemetry(cfg: &ExperimentConfig) -> (ReplicatedReport, AggregatedSeries) {
    let scenario = cfg.scenario.build();
    let telemetry = cfg.telemetry_config().unwrap_or_default();
    run_replicated_with_telemetry(
        &scenario,
        &cfg.hybrid,
        &cfg.params,
        cfg.effective_replications(),
        telemetry,
    )
}

/// `optimize --telemetry`: the grid search of [`run_optimize`], plus an
/// instrumented re-run of the best cutoff so the winning configuration's
/// transient behavior can be inspected on a dashboard.
pub fn run_optimize_telemetry(cfg: &ExperimentConfig) -> (CutoffSweep, TimeSeries) {
    let sweep = run_optimize(cfg);
    let scenario = cfg.scenario.build();
    let telemetry = cfg.telemetry_config().unwrap_or_default();
    let best = HybridConfig {
        cutoff: sweep.best_k(),
        ..cfg.hybrid.clone()
    };
    let (_, series) = simulate_telemetry(&scenario, &best, &cfg.params, telemetry);
    (sweep, series)
}

/// `simulate --replications N`: `N` independent replications fanned
/// across threads, reduced into a CI-aggregated report.
pub fn run_replications(cfg: &ExperimentConfig) -> ReplicatedReport {
    let scenario = cfg.scenario.build();
    run_replicated(
        &scenario,
        &cfg.hybrid,
        &cfg.params,
        cfg.effective_replications(),
    )
}

/// `optimize`: simulation-backed cutoff grid search (parallel over the
/// grid; each point averaged over `cfg.replications`).
pub fn run_optimize(cfg: &ExperimentConfig) -> CutoffSweep {
    let scenario = cfg.scenario.build();
    let objective = cfg.objective.unwrap_or(Objective::TotalPrioritizedCost);
    CutoffOptimizer::new(objective, cfg.params)
        .with_replications(cfg.effective_replications())
        .sweep(&scenario, &cfg.hybrid, cfg.ks())
}

/// `model`: analytic per-class delays at every grid cutoff (no simulation).
pub fn run_model(cfg: &ExperimentConfig) -> Vec<ModelDelays> {
    let scenario = cfg.scenario.build();
    let alpha = cfg.hybrid.pull.blend_alpha();
    cfg.ks()
        .into_iter()
        .map(|k| {
            HybridDelayModel::new(
                &scenario.catalog,
                &scenario.classes,
                scenario.arrival_rate,
                k,
            )
            .with_alpha(alpha)
            .delays()
        })
        .collect()
}

/// `fuzz`: run `count` seeded scenarios under full oracle supervision,
/// stopping at the first failure (minimized before reporting) or when the
/// optional wall-clock budget runs out.
pub fn run_fuzz(
    start_seed: u64,
    count: u64,
    budget_secs: Option<f64>,
) -> hybridcast_testkit::FuzzReport {
    let budget = budget_secs.map(std::time::Duration::from_secs_f64);
    hybridcast_testkit::fuzz(start_seed, count, budget)
}

/// `fuzz --replay <dir|file>`: re-run committed corpus cases (a directory
/// of `*.json` entries, or one case file) and return each verdict in
/// file-name order.
pub fn run_replay(
    path: &std::path::Path,
) -> Result<Vec<(String, hybridcast_testkit::CaseOutcome)>, String> {
    if path.is_dir() {
        return hybridcast_testkit::replay_corpus(path);
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let case = hybridcast_testkit::FuzzCase::from_json(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default()
        .to_string();
    Ok(vec![(name, hybridcast_testkit::run_case(&case))])
}

/// Writes a minimized failing fuzz configuration under `results/` (or
/// `$HYBRIDCAST_RESULTS`) so CI can upload it as an artifact; returns the
/// path written.
pub fn export_fuzz_failure(
    failure: &hybridcast_testkit::FuzzFailure,
) -> Result<std::path::PathBuf, String> {
    let dir = hybridcast_bench::results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("fuzz-failure.json");
    let text = serde_json::to_string_pretty(failure).expect("failure serializes");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Writes a single-run telemetry series under `results/` (or
/// `$HYBRIDCAST_RESULTS`) as `<stem>.jsonl` plus a stacked-panel SVG
/// dashboard `<stem>.svg`, returning the two paths.
pub fn export_series(
    stem: &str,
    label: &str,
    series: &TimeSeries,
) -> Result<(std::path::PathBuf, std::path::PathBuf), String> {
    use hybridcast_bench::dashboard::{dashboard_figures, dashboard_svg};
    let svg = dashboard_svg(&dashboard_figures(series, label));
    write_exports(stem, &series.to_jsonl(), &svg)
}

/// [`export_series`] for a replicated run's window-aligned aggregate
/// (means ± 95% CI).
pub fn export_aggregated_series(
    stem: &str,
    label: &str,
    series: &AggregatedSeries,
) -> Result<(std::path::PathBuf, std::path::PathBuf), String> {
    use hybridcast_bench::dashboard::{aggregated_dashboard_figures, dashboard_svg};
    let svg = dashboard_svg(&aggregated_dashboard_figures(series, label));
    write_exports(stem, &series.to_jsonl(), &svg)
}

fn write_exports(
    stem: &str,
    jsonl: &str,
    svg: &str,
) -> Result<(std::path::PathBuf, std::path::PathBuf), String> {
    let dir = hybridcast_bench::results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let jsonl_path = dir.join(format!("{stem}.jsonl"));
    std::fs::write(&jsonl_path, jsonl)
        .map_err(|e| format!("cannot write {}: {e}", jsonl_path.display()))?;
    let svg_path = dir.join(format!("{stem}.svg"));
    std::fs::write(&svg_path, svg)
        .map_err(|e| format!("cannot write {}: {e}", svg_path.display()))?;
    Ok((jsonl_path, svg_path))
}

/// A compact human-readable summary of a report, for terminal use.
pub fn summarize(report: &SimReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>9} {:>12} {:>12} {:>10}",
        "class", "served", "blocked", "delay [bu]", "pull [bu]", "cost"
    );
    for c in &report.per_class {
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>9} {:>12.2} {:>12.2} {:>10.2}",
            c.name, c.served, c.blocked, c.delay.mean, c.pull_delay.mean, c.prioritized_cost
        );
    }
    let _ = writeln!(
        out,
        "overall {:.2} bu | total cost {:.2} | E[L_pull] {:.2} | {} push / {} pull tx",
        report.overall_delay.mean,
        report.total_prioritized_cost,
        report.mean_queue_items,
        report.push_transmissions,
        report.pull_transmissions
    );
    out
}

/// A compact human-readable summary of a replicated report: every figure
/// carries its 95% CI half-width across replications.
pub fn summarize_replicated(report: &ReplicatedReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>9} {:>18} {:>18} {:>16}",
        "class", "served", "blocked", "delay ±95% [bu]", "pull ±95% [bu]", "cost ±95%"
    );
    for c in &report.per_class {
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>9} {:>11.2} ±{:<5.2} {:>11.2} ±{:<5.2} {:>9.2} ±{:<5.2}",
            c.name,
            c.served,
            c.blocked,
            c.delay.mean,
            c.delay.ci95,
            c.pull_delay.mean,
            c.pull_delay.ci95,
            c.prioritized_cost.mean,
            c.prioritized_cost.ci95,
        );
    }
    let _ = writeln!(
        out,
        "overall {:.2} ±{:.2} bu | total cost {:.2} ±{:.2} | R = {} replications (Student-t CIs)",
        report.overall_delay.mean,
        report.overall_delay.ci95,
        report.total_prioritized_cost.mean,
        report.total_prioritized_cost.ci95,
        report.replications
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig {
            params: SimParams::quick(),
            ..Default::default()
        }
    }

    #[test]
    fn default_config_round_trips() {
        let cfg = ExperimentConfig::default();
        let text = cfg.to_json();
        let back = ExperimentConfig::from_json(&text).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn missing_optional_fields_default() {
        let minimal = serde_json::json!({
            "scenario": ScenarioConfig::default(),
            "hybrid": HybridConfig::default(),
            "params": SimParams::quick(),
        });
        let cfg = ExperimentConfig::from_json(&minimal.to_string()).unwrap();
        assert_eq!(cfg.adaptive, None);
        assert_eq!(cfg.ks(), (10..=90).step_by(10).collect::<Vec<_>>());
    }

    #[test]
    fn a_telemetry_window_cutting_the_horizon_into_too_many_windows_is_rejected() {
        let mut cfg = ExperimentConfig::default();
        cfg.telemetry = Some(cfg.params.horizon / 1e6);
        cfg.validate_telemetry().unwrap();
        cfg.telemetry = Some(0.001);
        let err = cfg.validate_telemetry().unwrap_err();
        assert!(err.starts_with("telemetry: "), "{err}");
        let err = ExperimentConfig::from_json(&cfg.to_json()).unwrap_err();
        assert!(err.starts_with("invalid config: telemetry: "), "{err}");
    }

    #[test]
    fn invalid_json_is_reported() {
        let err = ExperimentConfig::from_json("{ not json").unwrap_err();
        assert!(err.contains("invalid config"));
    }

    #[test]
    fn high_surrogate_followed_by_a_non_surrogate_is_an_error_not_a_panic() {
        let err = ExperimentConfig::from_json(r#"{"\ud800\u0041": 1}"#).unwrap_err();
        assert!(err.contains("surrogate"), "{err}");
        // A well-formed pair still decodes.
        let ok: String = serde_json::from_str(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(ok, "\u{1F600}");
    }

    /// The parser recurses once per nesting level: 100 000 levels used to
    /// overflow the stack and abort the process. Nesting is capped at 128.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deep = format!(r#"{{"scenario": {}}}"#, nested(100_000));
        let err = ExperimentConfig::from_json(&deep).unwrap_err();
        assert!(
            err.contains("invalid config") && err.contains("depth 128"),
            "{err}"
        );
        let value: serde_json::Value =
            serde_json::from_str(&nested(128)).expect("128 levels parse");
        assert_eq!(value.as_array().map(Vec::len), Some(1));
        assert!(serde_json::from_str::<serde_json::Value>(&nested(129)).is_err());
    }

    #[test]
    fn parse_time_is_linear_in_document_size() {
        let mut doc = String::from("[");
        for i in 0..20_000 {
            doc.push_str(&format!("{{\"name\":\"item-{i:05}\",\"w\":0.5}},"));
        }
        doc.push_str("null]");
        let start = std::time::Instant::now();
        let value: serde_json::Value = serde_json::from_str(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(value.as_array().map(Vec::len), Some(20_001));
        assert_eq!(value[19_999]["name"].as_str(), Some("item-19999"));
        // The per-character re-validation this replaces took minutes here.
        assert!(elapsed.as_secs_f64() < 1.0, "parse took {elapsed:?}");
    }

    #[test]
    fn unknown_top_level_key_is_rejected_with_its_name() {
        let mut value: serde_json::Value =
            serde_json::from_str(&ExperimentConfig::default().to_json()).unwrap();
        value["replicatons"] = serde_json::json!(4); // typo'd "replications"
        let err = ExperimentConfig::from_json(&value.to_string()).unwrap_err();
        assert!(err.contains("replicatons"), "{err}");
        assert!(err.contains("invalid config"), "{err}");
    }

    #[test]
    fn fuzz_campaign_runs_clean_over_the_first_seeds() {
        let report = run_fuzz(0, 5, None);
        assert_eq!(report.cases_run, 5);
        assert!(report.failure.is_none());
    }

    #[test]
    fn replay_accepts_a_single_case_file() {
        let dir = std::env::temp_dir().join(format!("hybridcast-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.json");
        std::fs::write(&path, hybridcast_testkit::generate_case(3).to_json()).unwrap();
        let verdicts = run_replay(&path).unwrap();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].0, "one");
        assert!(verdicts[0].1.passed());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_reports_unreadable_paths() {
        let err = run_replay(std::path::Path::new("/nonexistent/case.json")).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn simulate_runs_from_config() {
        let report = run_simulate(&quick_cfg());
        assert!(report.total_served() > 1_000);
        let text = summarize(&report);
        assert!(text.contains("Class-A"));
        assert!(text.contains("total cost"));
    }

    #[test]
    fn adaptive_runs_from_config() {
        let mut cfg = quick_cfg();
        cfg.adaptive = Some(AdaptiveConfig {
            period: 800.0,
            candidate_ks: vec![20, 40, 60],
            smoothing: 0.5,
            rerank: false,
            controller: None,
        });
        let out = run_adaptive(&cfg);
        assert!(!out.retunes.is_empty());
        assert!([20, 40, 60].contains(&out.final_k));
    }

    #[test]
    fn enable_controller_arms_the_online_controller() {
        // No adaptive block at all: the flag installs both.
        let mut cfg = quick_cfg();
        cfg.adaptive = None;
        cfg.enable_controller();
        let armed = cfg.adaptive.as_ref().unwrap();
        assert!(armed.controller.is_some());

        // Sweep-only block: the controller is added, the sweep kept.
        let mut cfg = quick_cfg();
        cfg.adaptive = Some(AdaptiveConfig {
            candidate_ks: vec![15, 35],
            controller: None,
            ..AdaptiveConfig::default()
        });
        cfg.enable_controller();
        let armed = cfg.adaptive.as_ref().unwrap();
        assert_eq!(armed.candidate_ks, vec![15, 35]);
        assert!(armed.controller.is_some());

        // Explicit controller: idempotent, nothing overwritten.
        let mut cfg = quick_cfg();
        cfg.adaptive = Some(AdaptiveConfig {
            controller: Some(ControllerConfig {
                step: 7,
                ..ControllerConfig::default()
            }),
            ..AdaptiveConfig::default()
        });
        cfg.enable_controller();
        let ctrl = cfg.adaptive.as_ref().unwrap().controller.as_ref().unwrap();
        assert_eq!(ctrl.step, 7);

        // The armed config drives a real controller-backed run.
        let mut cfg = quick_cfg();
        cfg.adaptive = None;
        cfg.enable_controller();
        let out = run_adaptive(&cfg);
        assert!(out.final_k <= 100);
    }

    #[test]
    fn churn_runs_from_config() {
        let mut cfg = quick_cfg();
        cfg.params = SimParams {
            horizon: 2_000.0,
            warmup: 0.0,
            replication: 0,
        };
        let out = run_churn(&cfg);
        assert_eq!(out.churn_per_class.len(), 3);
        assert!((0.0..=1.0).contains(&out.weighted_retention));
    }

    #[test]
    fn replicated_simulate_reports_cis() {
        let mut cfg = quick_cfg();
        cfg.replications = Some(3);
        let rep = run_replications(&cfg);
        assert_eq!(rep.replications, 3);
        let text = summarize_replicated(&rep);
        assert!(text.contains("Class-A"));
        assert!(text.contains("±"));
        assert!(text.contains("R = 3 replications"));
        assert!(rep.overall_delay.ci95 > 0.0);
    }

    #[test]
    fn replications_default_to_one() {
        let cfg = quick_cfg();
        assert_eq!(cfg.effective_replications(), 1);
        let rep = run_replications(&cfg);
        assert_eq!(rep.replications, 1);
        // single replication mean equals the plain simulate() mean
        let single = run_simulate(&cfg);
        assert_eq!(rep.overall_delay.mean, single.overall_delay.mean);
    }

    #[test]
    fn optimize_with_replications_populates_point_cis() {
        let mut cfg = quick_cfg();
        cfg.optimize_ks = Some(vec![30, 60]);
        cfg.replications = Some(2);
        cfg.params = SimParams {
            horizon: 1_500.0,
            warmup: 200.0,
            replication: 0,
        };
        let sweep = run_optimize(&cfg);
        assert_eq!(sweep.replications, 2);
        for p in &sweep.points {
            assert!(p.objective_ci95 > 0.0);
        }
    }

    #[test]
    fn optimize_respects_custom_grid() {
        let mut cfg = quick_cfg();
        cfg.optimize_ks = Some(vec![30, 60]);
        cfg.params = SimParams {
            horizon: 1_500.0,
            warmup: 200.0,
            replication: 0,
        };
        let sweep = run_optimize(&cfg);
        assert_eq!(
            sweep.points.iter().map(|p| p.k).collect::<Vec<_>>(),
            vec![30, 60]
        );
    }

    #[test]
    fn model_covers_grid_without_simulation() {
        let mut cfg = quick_cfg();
        cfg.optimize_ks = Some(vec![20, 50, 80]);
        let delays = run_model(&cfg);
        assert_eq!(delays.len(), 3);
        for d in &delays {
            assert_eq!(d.per_class.len(), 3);
            assert!(d.per_class[0] <= d.per_class[2] + 1e-9);
        }
    }

    #[test]
    fn telemetry_config_defaults_off_and_validates() {
        let cfg = quick_cfg();
        assert!(cfg.telemetry_config().is_none());
        let mut cfg = quick_cfg();
        cfg.telemetry = Some(250.0);
        assert_eq!(cfg.telemetry_config().unwrap().window, 250.0);
    }

    #[test]
    fn telemetry_field_survives_json_round_trip() {
        let mut cfg = quick_cfg();
        cfg.telemetry = Some(125.0);
        let back = ExperimentConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.telemetry, Some(125.0));
    }

    #[test]
    fn simulate_telemetry_is_observational_and_covers_the_horizon() {
        let mut cfg = quick_cfg();
        cfg.telemetry = Some(200.0);
        let plain = run_simulate(&cfg);
        let (report, series) = run_simulate_telemetry(&cfg);
        assert_eq!(report, plain, "telemetry must not perturb the report");
        assert_eq!(series.window, 200.0);
        assert_eq!(series.classes.len(), 3);
        let expected = (cfg.params.horizon / 200.0).ceil() as usize;
        assert_eq!(series.windows.len(), expected);
    }

    #[test]
    fn replicated_telemetry_aggregates_all_replications() {
        let mut cfg = quick_cfg();
        cfg.replications = Some(3);
        cfg.telemetry = Some(200.0);
        let plain = run_replications(&cfg);
        let (report, series) = run_replications_telemetry(&cfg);
        assert_eq!(report, plain, "telemetry must not perturb the report");
        assert_eq!(series.replications, 3);
        assert!(!series.windows.is_empty());
    }

    #[test]
    fn optimize_telemetry_records_the_best_cutoff_run() {
        let mut cfg = quick_cfg();
        cfg.optimize_ks = Some(vec![20, 60]);
        let (sweep, series) = run_optimize_telemetry(&cfg);
        assert!(sweep.points.len() == 2);
        assert!(!series.windows.is_empty());
        assert_eq!(series.window, hybridcast_telemetry::DEFAULT_WINDOW);
    }
}
