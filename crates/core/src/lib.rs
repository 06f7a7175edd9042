//! # hybridcast-core — hybrid push/pull broadcast scheduling with service
//! classification
//!
//! The primary contribution of *"A New Service Classification Strategy in
//! Hybrid Scheduling to Support Differentiated QoS in Wireless Data
//! Networks"* (Saxena, Basu, Das, Pinotti — ICPP 2005), as a library:
//!
//! * [`push`] — broadcast schedulers for the popular prefix: the paper's
//!   flat round-robin, plus broadcast-disks and square-root-rule baselines;
//! * [`pull`] — on-demand selection policies, headlined by the paper's
//!   **importance factor** `γ_i = α·S_i + (1−α)·Q_i` blending stretch and
//!   client priority;
//! * [`queue`] — the aggregated pull queue (`R_i`, `Q_i`, per-requester
//!   bookkeeping);
//! * [`bandwidth`] — per-class bandwidth partitions with Poisson demands
//!   and blocking;
//! * [`hybrid`] — the Fig. 1 dispatch loop tying it all together;
//! * [`channel`] — the per-channel request state machine around it (live
//!   requests, waiters, deadlines, uplink deliveries, books), driven by
//!   the daemon's wall clock and by trace replay's virtual time alike;
//! * [`sim_driver`] — the event-driven end-to-end simulation: one
//!   [`Simulation`](sim_driver::Simulation) value describes a run (replayed
//!   source, adaptive cutoff, faults, churn are fields on it), one event
//!   loop executes it;
//! * [`adaptive`] — the online cutoff controller: hysteresis-banded hill
//!   climbing on measured windowed cost, with per-class SLO rescue;
//! * [`clock`] — the sim-time/wall-time seam the serving daemon drives the
//!   same scheduler core through;
//! * [`shard`] — per-shard SPSC ingress rings + doorbell, the seam between
//!   the daemon's event-loop reader shards and the scheduler thread;
//! * [`sharded`] — the multi-channel layer: the catalog partitioned across
//!   `C` self-contained sub-schedulers by a KSY-cost-minimizing
//!   item→channel plan;
//! * [`metrics`] — per-class delay/blocking/prioritized-cost reports;
//! * [`cutoff`] — the optimal-cutoff (`K*`) grid search, parallelized
//!   over the candidate grid;
//! * [`experiment`] — the replication engine: independent seeded
//!   replications fanned across threads, reduced into CI-carrying reports;
//! * [`churn`] — the finite-population churn model behind the paper's
//!   motivation (dissatisfied clients leave; premium departures cost
//!   most), carried by the simulation driver as optional state.
//!
//! ## Quickstart
//!
//! ```
//! use hybridcast_core::prelude::*;
//! use hybridcast_workload::scenario::ScenarioConfig;
//!
//! // The paper's workload (D = 100, λ' = 5, Zipf θ = 0.6, classes A/B/C)…
//! let scenario = ScenarioConfig::icpp2005(0.6).build();
//! // …under the paper's scheduler (cutoff K = 40, importance α = 0.5):
//! let config = HybridConfig::paper(40, 0.5);
//! let report = simulate(&scenario, &config, &SimParams::quick());
//!
//! // Differentiated QoS: the premium class sees the smallest pull delay.
//! let a = report.per_class[0].pull_delay.mean;
//! let c = report.per_class[2].pull_delay.mean;
//! assert!(a < c);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod bandwidth;
pub mod channel;
pub mod churn;
pub mod clock;
pub mod config;
pub mod cutoff;
pub mod experiment;
mod heap;
pub mod hybrid;
pub mod metrics;
pub mod pull;
pub mod push;
pub mod queue;
pub mod shard;
pub mod sharded;
pub mod sim_driver;
mod transmitters;
pub mod uplink;

/// One-stop imports for scheduler users.
pub mod prelude {
    pub use crate::adaptive::{ControllerConfig, PlantedControllerBugs, SloConfig};
    pub use crate::bandwidth::{BandwidthConfig, BandwidthManager, BandwidthPolicy, Grant};
    pub use crate::churn::{ChurnConfig, ChurnReport};
    pub use crate::clock::WallClock;
    pub use crate::config::{AssignmentStrategy, ChannelLayout, HybridConfig};
    pub use crate::cutoff::{CutoffOptimizer, CutoffPoint, CutoffSweep, Objective};
    pub use crate::experiment::{run_replicated, run_replicated_with_telemetry, ReplicatedReport};
    pub use crate::hybrid::{Disposition, HybridScheduler};
    pub use crate::metrics::{ClassReport, MetricsCollector, SimReport, TxKind};
    pub use crate::pull::{PullContext, PullPolicy, PullPolicyKind};
    pub use crate::push::{PushKind, PushScheduler};
    pub use crate::queue::{PendingItem, PullQueue};
    pub use crate::sharded::ChannelPlan;
    pub use crate::sim_driver::{
        simulate, simulate_telemetry, AdaptiveConfig, AdaptiveReport, FaultSpec, SimParams, SimRun,
        Simulation,
    };
    pub use crate::uplink::UplinkConfig;
    pub use hybridcast_telemetry::{
        AggregatedSeries, FeedbackSnapshot, FeedbackWindow, NullSink, Sink, TelemetryConfig,
        TelemetryEvent, TimeSeries, VecSink, WindowRecorder,
    };
}
