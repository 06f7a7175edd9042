//! The unit of fuzzing: one fully-serializable simulation configuration.

use serde::{Deserialize, Serialize};

use hybridcast_core::prelude::{AdaptiveConfig, FaultSpec, HybridConfig, SimParams, Simulation};
use hybridcast_workload::scenario::{Scenario, ScenarioConfig};

/// One fuzzed scenario: everything needed to reproduce a run bit-for-bit.
///
/// A `FuzzCase` round-trips through JSON, which is how failing cases are
/// reported, minimized cases are archived, and the committed corpus is
/// stored. Fuzz runs always use **zero warmup** so the telemetry event
/// stream covers every request the report counts — the conservation oracle
/// depends on that.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzCase {
    /// The generator seed this case was grown from (0 for hand-written
    /// corpus entries).
    pub seed: u64,
    /// Workload side: catalog, classes, arrival process.
    pub scenario: ScenarioConfig,
    /// Server side: cutoff, policies, bandwidth, uplink, layout.
    pub hybrid: HybridConfig,
    /// Simulated horizon in broadcast units.
    pub horizon: f64,
    /// Optional periodic cutoff re-optimization.
    #[serde(default)]
    pub adaptive: Option<AdaptiveConfig>,
    /// Injected faults, applied on top of whatever mode runs.
    #[serde(default)]
    pub faults: Vec<FaultSpec>,
}

impl FuzzCase {
    /// Run-length parameters for this case (warmup is always zero — see
    /// the type-level docs).
    pub fn params(&self) -> SimParams {
        SimParams {
            horizon: self.horizon,
            warmup: 0.0,
            replication: 0,
        }
    }

    /// The harness run this case describes — adaptive block, faults and
    /// the queue audit on — over its built `scenario` and its `params`.
    pub fn simulation<'a>(
        &'a self,
        scenario: &'a Scenario,
        params: &'a SimParams,
    ) -> Simulation<'a> {
        Simulation {
            adaptive: self.adaptive.as_ref(),
            faults: &self.faults,
            audit_queue: true,
            ..Simulation::new(scenario, &self.hybrid, params)
        }
    }

    /// Serializes the case as pretty JSON (the corpus/artifact format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FuzzCase serializes")
    }

    /// Parses a case from its JSON form.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid fuzz case: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_json() {
        let case = FuzzCase {
            seed: 42,
            scenario: ScenarioConfig::icpp2005(0.6),
            hybrid: HybridConfig::paper(40, 0.5),
            horizon: 1_000.0,
            adaptive: None,
            faults: vec![FaultSpec::ForceCutoff { time: 500.0, k: 10 }],
        };
        let back = FuzzCase::from_json(&case.to_json()).unwrap();
        assert_eq!(back, case);
    }

    #[test]
    fn params_never_use_warmup() {
        let case = FuzzCase {
            seed: 0,
            scenario: ScenarioConfig::default(),
            hybrid: HybridConfig::default(),
            horizon: 700.0,
            adaptive: None,
            faults: Vec::new(),
        };
        let p = case.params();
        assert_eq!(p.warmup, 0.0);
        assert_eq!(p.horizon, 700.0);
    }
}
