//! Run-length presets shared by every experiment.

use hybridcast_core::sim_driver::SimParams;
use serde::{Deserialize, Serialize};

/// How long (and how often) each simulated configuration runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunScale {
    /// Simulated horizon per replication, broadcast units.
    pub horizon: f64,
    /// Warm-up discarded from samples.
    pub warmup: f64,
    /// Independent replications averaged per point.
    pub replications: u64,
}

impl RunScale {
    /// Publication scale: the numbers recorded in EXPERIMENTS.md.
    pub fn full() -> Self {
        RunScale {
            horizon: 20_000.0,
            warmup: 2_000.0,
            replications: 3,
        }
    }

    /// Smoke scale for `all_experiments --scale quick` and tests.
    pub fn quick() -> Self {
        RunScale {
            horizon: 2_500.0,
            warmup: 300.0,
            replications: 1,
        }
    }

    /// The [`SimParams`] of replication `r`.
    pub fn params(&self, r: u64) -> SimParams {
        SimParams {
            horizon: self.horizon,
            warmup: self.warmup,
            replication: r,
        }
    }

    /// Parses `--scale full|quick` style strings.
    pub(crate) fn from_flag(s: &str) -> Option<Self> {
        match s {
            "full" => Some(Self::full()),
            "quick" => Some(Self::quick()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let f = RunScale::full();
        assert!(f.horizon > f.warmup);
        assert!(f.replications >= 1);
        let q = RunScale::quick();
        assert!(q.horizon < f.horizon);
    }

    #[test]
    fn params_carry_replication() {
        let p = RunScale::full().params(2);
        assert_eq!(p.replication, 2);
        assert_eq!(p.horizon, 20_000.0);
    }

    #[test]
    fn flag_parsing() {
        assert_eq!(RunScale::from_flag("full"), Some(RunScale::full()));
        assert_eq!(RunScale::from_flag("quick"), Some(RunScale::quick()));
        assert_eq!(RunScale::from_flag("bogus"), None);
    }
}
