//! Typed telemetry for the hybrid broadcast scheduler.
//!
//! Three layers, designed so that the hot path pays nothing when telemetry is
//! off (see DESIGN.md §10 and `bench telemetry_overhead`):
//!
//! 1. **Events** ([`TelemetryEvent`]): a closed enum of everything observable
//!    in a run — arrivals, deliveries, blocks, broadcast/pull transmissions,
//!    cutoff moves, uplink losses, churn departures, queue gauges. Each
//!    carries the simulation time plus the item/class it concerns.
//! 2. **Sinks** ([`Sink`]): where events go. [`NullSink`] advertises
//!    `enabled() == false`, so instrumentation guarded by [`emit`]
//!    monomorphizes to nothing. [`VecSink`] captures events for tests.
//! 3. **Windows** ([`WindowRecorder`]): a sink that buckets events into
//!    fixed-width [`SimTime`](hybridcast_sim::time::SimTime) windows,
//!    producing a per-class [`TimeSeries`] (delay mean/p50/p95/max, stretch,
//!    blocking ratio, throughput, uplink losses) plus queue/push-set gauges.
//!    Replicated runs aggregate window-aligned series into an
//!    [`AggregatedSeries`] with 95% confidence intervals.
//!
//! Telemetry is purely observational: recording never touches scheduler or
//! RNG state, so reports with telemetry on and off are bit-identical
//! (property-tested in `hybridcast-core`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod event;
pub mod feedback;
pub mod sink;
pub mod window;

pub use aggregate::AggregatedSeries;
pub use event::{ServiceKind, TelemetryEvent};
pub use feedback::{FeedbackSnapshot, FeedbackWindow};
pub use sink::{emit, NullSink, Sink, VecSink};
pub use window::{TelemetryConfig, TimeSeries, WindowRecorder, WindowStats, DEFAULT_WINDOW};
