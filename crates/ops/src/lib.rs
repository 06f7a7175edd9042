//! Live operations surface for the hybrid broadcast scheduler.
//!
//! Three capabilities, designed to observe and reproduce *running*
//! deployments without touching the data plane's hot path:
//!
//! * **Digests** ([`digest`]): FNV-1a fingerprints of the serve config and
//!   the item→channel plan, embedded in every artifact a run emits
//!   (`serve.jsonl` header, trace header, `/stats`) so cross-artifact
//!   identity is checkable.
//! * **Binary traces** ([`trace`]): the accepted-request stream recorded
//!   from the scheduler threads in a compact length-prefixed format
//!   (`HCT1`) with a self-describing header.
//! * **Ops endpoint** ([`http`] + [`hub`]): a dependency-free HTTP/1.0
//!   thread serving `/healthz`, `/stats` (live windowed per-class QoS) and
//!   `/config`, fed by per-channel snapshots the cores publish.
//! * **Replay** ([`replay`]): deterministic re-execution of a recorded
//!   trace through the simulator or through the daemon's scheduling
//!   discipline in virtual time — same trace in, bit-identical books out.
//! * **What-if** ([`whatif`]): the counterfactual sweep over replay — one
//!   recorded trace re-run under a grid of modified configs (cutoff,
//!   channels, assignment, bandwidth, controller) with KSY pricing and a
//!   ranked recommendation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod digest;
pub mod http;
pub mod hub;
pub mod replay;
pub mod trace;
pub mod whatif;

pub use digest::{config_hash, fnv1a64, hex64, plan_digest};
pub use http::OpsServer;
pub use hub::{ChannelSnapshot, OpsHub};
pub use replay::{
    replay_daemon, replay_requests, replay_simulator, sim_params_for, structural_mismatches,
    ReplayBooks,
};
pub use trace::{Trace, TraceBuffer, TraceMeta, TraceRecord, TraceSink};
pub use whatif::{
    backlog_aware_cost, evaluate_point, render_table, run_whatif, whatif_hash, PointReport,
    WhatIfGrid, WhatIfReport,
};
