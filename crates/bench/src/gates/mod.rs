//! The eight acceptance gates `bench <gate> [quick]` runs. Each is one
//! `fn(&Host) -> Report`: it measures, prints its table and states its
//! thresholds; [`crate::report`] decides what binds on this host.

pub mod adaptive_sweep;
pub mod multichannel_sweep;
pub mod ops_bench;
pub mod replication_sweep;
pub mod scale_sweep;
pub mod serve_bench;
pub mod telemetry_overhead;
pub mod whatif_sweep;

/// Every gate, under the name `bench` is asked for it by.
pub const ALL: [crate::report::GateFn; 8] = [
    ("adaptive_sweep", adaptive_sweep::run),
    ("multichannel_sweep", multichannel_sweep::run),
    ("ops_bench", ops_bench::run),
    ("replication_sweep", replication_sweep::run),
    ("scale_sweep", scale_sweep::run),
    ("serve_bench", serve_bench::run),
    ("telemetry_overhead", telemetry_overhead::run),
    ("whatif_sweep", whatif_sweep::run),
];
