//! The fuzz loop and the on-disk corpus.
//!
//! A corpus entry is one [`FuzzCase`] serialized as JSON. The committed
//! corpus (`crates/testkit/corpus/`) pins regression configurations —
//! previously-minimized failures and hand-picked corners — and the replay
//! path re-runs them under full oracle supervision. Replays are
//! deterministic: the same corpus file must produce a byte-identical
//! serialized verdict on every run, which CI checks by replaying twice.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hybridcast_core::bandwidth::BandwidthConfig;
use hybridcast_core::prelude::{
    ChurnConfig, ChurnReport, HybridConfig, NullSink, SimParams, Simulation,
};
use hybridcast_workload::scenario::ScenarioConfig;

use crate::case::FuzzCase;
use crate::generate::generate_case;
use crate::oracle::{run_case, CaseOutcome};
use crate::shrink::shrink;

/// One fuzzing campaign's result.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FuzzReport {
    /// Seeds actually executed (may stop early on failure or budget).
    pub cases_run: u64,
    /// Whether the loop stopped because the time budget ran out.
    pub budget_exhausted: bool,
    /// The first failure found, if any, already minimized.
    pub failure: Option<FuzzFailure>,
}

/// A failing configuration, before and after shrinking.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FuzzFailure {
    /// The seed that grew the failing case.
    pub seed: u64,
    /// The case exactly as generated.
    pub original: FuzzCase,
    /// The greedily minimized case that still fails.
    pub minimized: FuzzCase,
    /// The minimized case's verdict (what went wrong).
    pub outcome: CaseOutcome,
}

/// Runs up to `count` seeded scenarios starting at `start_seed`, stopping
/// early on the first oracle failure (after shrinking it) or when the
/// optional wall-clock `budget` runs out.
pub fn fuzz(start_seed: u64, count: u64, budget: Option<Duration>) -> FuzzReport {
    let t0 = Instant::now();
    let mut cases_run = 0;
    for seed in start_seed..start_seed.saturating_add(count) {
        if let Some(budget) = budget {
            if t0.elapsed() >= budget {
                return FuzzReport {
                    cases_run,
                    budget_exhausted: true,
                    failure: None,
                };
            }
        }
        let case = generate_case(seed);
        let outcome = run_case(&case);
        cases_run += 1;
        if !outcome.passed() {
            let minimized = shrink(&case, |c| !run_case(c).passed());
            let outcome = run_case(&minimized);
            return FuzzReport {
                cases_run,
                budget_exhausted: false,
                failure: Some(FuzzFailure {
                    seed,
                    original: case,
                    minimized,
                    outcome,
                }),
            };
        }
    }
    FuzzReport {
        cases_run,
        budget_exhausted: false,
        failure: None,
    }
}

/// The committed corpus directory (`crates/testkit/corpus/`).
pub fn committed_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Loads every `*.json` case under `dir`, sorted by file name for a
/// stable replay order.
pub fn load_corpus(dir: &Path) -> Result<Vec<(String, FuzzCase)>, String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?;
    let mut cases = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("corpus dir error: {e}"))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let case = FuzzCase::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        cases.push((name, case));
    }
    if cases.is_empty() {
        return Err(format!("no *.json cases under {}", dir.display()));
    }
    cases.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(cases)
}

/// Replays every corpus case under full oracle supervision, returning
/// `(name, verdict)` pairs in file-name order.
pub fn replay_corpus(dir: &Path) -> Result<Vec<(String, CaseOutcome)>, String> {
    Ok(load_corpus(dir)?
        .into_iter()
        .map(|(name, case)| {
            let outcome = run_case(&case);
            (name, outcome)
        })
        .collect())
}

/// The golden simulator runs committed under `corpus/golden/`: the full
/// serialized result of every corpus case, of the four drifting adaptive
/// cases under `corpus/retune/` (both retune decision sources, push set
/// re-ranked and not — the corpus proper has no re-ranking case) and of
/// a handful of churn runs.
/// The corpus itself stores pass/fail verdicts only; these pin the
/// simulator's *numbers*, so a driver refactor that shifts any counter,
/// delay moment or retune decision shows up as a file diff.
pub fn golden_dir() -> PathBuf {
    committed_corpus_dir().join("golden")
}

/// The full result of running `case` with the queue audit on — report,
/// horizon census, retune ledger, final cutoff and audit trail — as the
/// exact string a golden file holds.
pub fn golden_run_json(case: &FuzzCase) -> String {
    let (scenario, params) = (case.scenario.build(), case.params());
    let out = case.simulation(&scenario, &params).run(&mut NullSink);
    let value = serde_json::json!({
        "report": out.report,
        "census": out.census,
        "retunes": out.retunes,
        "final_k": out.final_k,
        "queue_audit": out.queue_audit,
    });
    serde_json::to_string_pretty(&value).expect("run serializes")
}

/// The churn runs pinned next to the corpus goldens, as
/// `(file stem, scheduler config, churn config)`: the paper scenario at
/// α ∈ {0, 0.75} with push delays observed and not, plus one
/// bandwidth-starved run so the blocked-request penalty path is covered.
/// Tolerances sit inside the achieved delays so clients do depart.
pub fn golden_churn_cases() -> Vec<(String, HybridConfig, ChurnConfig)> {
    let churn = |observe_push| ChurnConfig {
        tolerance: vec![90.0, 105.0, 130.0],
        observe_push,
        ..ChurnConfig::default()
    };
    let mut cases = Vec::new();
    for (alpha, tag) in [(0.0, "000"), (0.75, "075")] {
        for observe_push in [false, true] {
            let stem = format!(
                "churn-alpha{tag}{}",
                if observe_push { "-observe-push" } else { "" }
            );
            cases.push((stem, HybridConfig::paper(40, alpha), churn(observe_push)));
        }
    }
    cases.push((
        "churn-blocking".to_string(),
        HybridConfig {
            bandwidth: BandwidthConfig::per_class(3.0, 3.0),
            ..HybridConfig::paper(40, 0.5)
        },
        churn(false),
    ));
    cases
}

/// The serialized [`ChurnReport`] of one golden
/// churn run over `ScenarioConfig::icpp2005(0.6)`.
pub fn golden_churn_json(hybrid: &HybridConfig, churn: &ChurnConfig) -> String {
    let params = SimParams {
        horizon: 6_000.0,
        warmup: 0.0,
        replication: 0,
    };
    let scenario = ScenarioConfig::icpp2005(0.6).build();
    let report: ChurnReport = Simulation {
        churn: Some(churn),
        ..Simulation::new(&scenario, hybrid, &params)
    }
    .run(&mut NullSink)
    .into();
    serde_json::to_string_pretty(&report).expect("report serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_reports_how_many_cases_ran() {
        let report = fuzz(0, 3, None);
        assert_eq!(report.cases_run, 3);
        assert!(
            report.failure.is_none(),
            "seeds 0..3 must pass: {:?}",
            report.failure
        );
    }

    #[test]
    fn zero_budget_stops_immediately() {
        let report = fuzz(0, 100, Some(Duration::ZERO));
        assert_eq!(report.cases_run, 0);
        assert!(report.budget_exhausted);
    }

    #[test]
    fn missing_corpus_dir_is_an_error_not_a_panic() {
        let err = load_corpus(Path::new("/nonexistent/corpus")).unwrap_err();
        assert!(err.contains("cannot read corpus dir"), "{err}");
    }

    /// String equality against `corpus/golden/`; regenerate with
    /// `cargo run -p hybridcast-testkit --example gen_corpus` only for an
    /// intended change to the simulator's output, and read the diff.
    #[test]
    fn committed_simulator_runs_are_golden() {
        let read = |stem: &str| {
            let path = golden_dir().join(format!("{stem}.json"));
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        };
        let corpus = committed_corpus_dir();
        let cases = load_corpus(&corpus).expect("committed corpus loads");
        let retunes = load_corpus(&corpus.join("retune")).expect("retune cases load");
        assert_eq!((cases.len(), retunes.len()), (11, 4));
        for (name, case) in cases.iter().chain(&retunes) {
            assert_eq!(
                golden_run_json(case),
                read(name).trim_end(),
                "{name} drifted from its golden run"
            );
        }
        for (stem, hybrid, churn) in golden_churn_cases() {
            assert_eq!(
                golden_churn_json(&hybrid, &churn),
                read(&stem).trim_end(),
                "{stem} drifted from its golden run"
            );
        }
    }
}
