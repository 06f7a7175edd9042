//! Serializable configuration of the hybrid scheduler.

use serde::{Deserialize, Serialize};

use crate::bandwidth::BandwidthConfig;
use crate::pull::PullPolicyKind;
use crate::push::PushKind;
use crate::sharded::ChannelPlan;
use crate::uplink::UplinkConfig;

/// How items are mapped onto the channels of a
/// [`ChannelLayout::Sharded`] downlink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum AssignmentStrategy {
    /// Contiguous popularity-rank blocks: item of rank `r` (out of `D`)
    /// lands on channel `r·C / D`. The naive "range partition" baseline —
    /// the hottest items all share channel 0.
    Range,
    /// Round-robin by item id (`id mod C`). The naive hash baseline:
    /// load-oblivious but spreads hot items across channels.
    Hash,
    /// Pattern-aware balancing of the Kenyon–Schabanel–Young cost:
    /// greedy longest-processing-time seeding by `√(pᵢ·lᵢ)` weight,
    /// then local-search moves until no single-item move lowers
    /// `Σ_c L_c²` (see `crate::sharded::ChannelPlan`).
    #[default]
    PatternAware,
}

/// How the downlink is organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ChannelLayout {
    /// The paper's single channel: push and pull transmissions interleave
    /// (one pull slot after each push slot).
    #[default]
    Interleaved,
    /// A dedicated broadcast channel plus `pull_channels` parallel
    /// on-demand channels — the classic alternative architecture. Raw
    /// capacity is `1 + pull_channels` times the interleaved layout's.
    Split {
        /// Number of dedicated pull channels (≥ 1).
        pull_channels: u32,
    },
    /// The catalog is partitioned across `channels` self-contained
    /// hybrid sub-schedulers, each running the paper's interleaved
    /// discipline over its own slice of the catalog with `1/C` of the
    /// admission capacity. Raw capacity is `channels` times the
    /// interleaved layout's; single-tuner clients listen to one channel
    /// at a time and may miss pushes on others (the conflict model).
    Sharded {
        /// Number of broadcast channels (≥ 1). `1` is bit-identical to
        /// `Interleaved`.
        channels: u32,
        /// Item→channel assignment strategy.
        #[serde(default)]
        assignment: AssignmentStrategy,
    },
}

impl ChannelLayout {
    /// Number of concurrently running sharded sub-schedulers (`1` for the
    /// single-scheduler layouts).
    pub fn shard_count(&self) -> u32 {
        match self {
            ChannelLayout::Sharded { channels, .. } => (*channels).max(1),
            _ => 1,
        }
    }
}

/// Everything that parameterizes the hybrid server (the workload side lives
/// in [`hybridcast_workload::scenario::ScenarioConfig`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridConfig {
    /// The cutoff point `K`: items `0..K` are pushed, `K..D` pulled.
    pub cutoff: usize,
    /// Push-side schedule (paper: flat round-robin).
    pub push: PushKind,
    /// Pull-side selection policy (paper: importance factor).
    pub pull: PullPolicyKind,
    /// Bandwidth/admission model.
    pub bandwidth: BandwidthConfig,
    /// Pull transmissions granted after each push slot (paper Fig. 1
    /// serves exactly one). `0` disables the pull side entirely.
    #[serde(default = "default_pull_per_push")]
    pub pull_per_push: u32,
    /// Optional back-channel contention model. `None` (the paper's
    /// implicit assumption) delivers requests instantly and losslessly.
    #[serde(default)]
    pub uplink: Option<UplinkConfig>,
    /// Downlink organization (paper: one interleaved channel).
    #[serde(default)]
    pub channels: ChannelLayout,
}

fn default_pull_per_push() -> u32 {
    1
}

impl Default for HybridConfig {
    /// The paper's configuration at a mid-range operating point:
    /// `K = 40`, flat push, importance factor with α = 0.5, no admission
    /// control (delay experiments).
    fn default() -> Self {
        HybridConfig {
            cutoff: 40,
            push: PushKind::Flat,
            pull: PullPolicyKind::importance(0.5),
            bandwidth: BandwidthConfig::default(),
            pull_per_push: 1,
            uplink: None,
            channels: ChannelLayout::Interleaved,
        }
    }
}

impl HybridConfig {
    /// Every range a value of this config must lie in, as a typed error
    /// that names the field — for a config that arrives from outside the
    /// program. Each condition is its consumer's own check (the consumers
    /// panic with the same text). Conditions that involve the catalog
    /// (`cutoff ≤ D`) belong to the run:
    /// [`Simulation::validate`](crate::sim_driver::Simulation::validate).
    pub fn validate(&self) -> Result<(), String> {
        let field = |name: &'static str| move |e: String| format!("hybrid.{name}: {e}");
        self.pull.validate().map_err(field("pull"))?;
        self.bandwidth.validate().map_err(field("bandwidth"))?;
        if let Some(uplink) = &self.uplink {
            uplink.validate().map_err(field("uplink"))?;
        }
        if let ChannelLayout::Sharded { channels, .. } = self.channels {
            ChannelPlan::validate_channels(channels).map_err(field("channels"))?;
        }
        Ok(())
    }

    /// The paper's setup at cutoff `k` and importance blend `alpha`.
    pub fn paper(k: usize, alpha: f64) -> Self {
        HybridConfig {
            cutoff: k,
            pull: PullPolicyKind::importance(alpha),
            ..Default::default()
        }
    }

    /// Returns a copy with a different cutoff.
    pub fn with_cutoff(&self, k: usize) -> Self {
        HybridConfig {
            cutoff: k,
            ..self.clone()
        }
    }

    /// Returns a copy with a different pull policy.
    pub fn with_pull(&self, pull: PullPolicyKind) -> Self {
        HybridConfig {
            pull,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_papers_midpoint() {
        let c = HybridConfig::default();
        assert_eq!(c.cutoff, 40);
        assert_eq!(c.push, PushKind::Flat);
        assert_eq!(c.pull, PullPolicyKind::importance(0.5));
    }

    #[test]
    fn builders_override_single_fields() {
        let c = HybridConfig::paper(30, 0.25)
            .with_cutoff(60)
            .with_pull(PullPolicyKind::Rxw);
        assert_eq!(c.cutoff, 60);
        assert_eq!(c.pull, PullPolicyKind::Rxw);
        assert_eq!(c.push, PushKind::Flat);
    }

    #[test]
    fn serde_round_trip() {
        let c = HybridConfig::paper(25, 0.75);
        let js = serde_json::to_string_pretty(&c).unwrap();
        let back: HybridConfig = serde_json::from_str(&js).unwrap();
        assert_eq!(back, c);
    }
}
