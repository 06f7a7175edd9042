//! # hybridcast-server — the scheduler behind a real socket
//!
//! Everything below `crates/core` is *time-passive*: the scheduler takes
//! `now` as an argument and never reads a clock. The simulator drives it
//! from an event heap; this crate drives the identical code from a
//! [`WallClock`](hybridcast_core::clock::WallClock) behind a TCP front
//! end:
//!
//! * [`frame`] — the tiny length-prefixed wire protocol, including the
//!   batched [`FrameBatch`](frame::FrameBatch) decoder the event loops run;
//! * [`config`] — the serializable [`ServeConfig`] (scenario + scheduler +
//!   serving knobs);
//! * [`poll`] — a minimal `epoll(7)`/`eventfd(2)`/`writev(2)` FFI shim
//!   (no async runtime, no external crates);
//! * [`server`] — `hybridcastd`'s event-loop/scheduler thread topology:
//!   edge-triggered readiness loops with batched decode and `writev`
//!   reply coalescing, per-shard ingress rings with explicit-`Shed`
//!   backpressure (never silent drops), per-request deadlines, graceful
//!   drain on SIGTERM, and live windowed-QoS JSONL streaming;
//! * [`loadgen`] — an open-loop Poisson/Zipf traffic generator
//!   (epoll-multiplexed, per-worker tallies merged exactly at the end);
//! * [`signal`] — SIGTERM/SIGINT → shutdown flag (with [`poll`], one of
//!   the crate's two unsafe islands);
//! * [`cli`] — the daemon's and the load generator's command lines, shared
//!   by the two binaries and the `hybridcast serve` / `loadgen`
//!   subcommands.
//!
//! The hard invariant, checked at exit and recorded in the summary:
//! **`accepted = served + shed + timed_out + uplink_lost`** — every frame
//! read off a socket is answered exactly once.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cli;
pub mod config;
mod event_loop;
pub mod frame;
pub mod loadgen;
#[allow(unsafe_code)]
pub mod poll;
pub mod server;
#[allow(unsafe_code)]
pub mod signal;

pub use cli::{daemon_main, loadgen_main};
pub use config::{ServeConfig, ServeParams};
pub use frame::{ReplyFrame, ReplyStatus, RequestFrame};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use server::{serve, ServeSummary, ServerHandle};
