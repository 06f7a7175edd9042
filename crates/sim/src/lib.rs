//! # hybridcast-sim — discrete-event simulation kernel
//!
//! The substrate every other `hybridcast` crate stands on:
//!
//! * [`time`] — NaN-free [`time::SimTime`] / [`time::SimDuration`] measured
//!   in *broadcast units* (the time to transmit one unit-length item);
//! * [`event`] — a stable (FIFO within ties) event queue;
//! * [`engine`] — the single-threaded event loop with horizon/budget bounds;
//! * [`rng`] — deterministic, splittable xoshiro256** streams for
//!   reproducible experiments with common random numbers;
//! * [`dist`] — Zipf (alias-method), exponential, Poisson, and general
//!   discrete sampling;
//! * [`stats`] — Welford moments, time-weighted averages and MSER
//!   warm-up truncation;
//! * [`quantile`] — a fixed-memory log-linear histogram with exact merge
//!   (tail latencies within 2⁻⁷ relative error).
//!
//! Nothing here knows about broadcast scheduling; it is a small, reusable
//! DES toolkit.
//!
//! ## Example: an M/M/1 queue in ~40 lines
//!
//! ```
//! use hybridcast_sim::prelude::*;
//!
//! #[derive(Debug)]
//! enum Ev { Arrival, Departure }
//!
//! let lam = 0.5;   // arrivals per unit time
//! let mu = 1.0;    // services per unit time
//! let factory = RngFactory::new(7);
//! let mut arr_rng = factory.stream(rng_streams::ARRIVALS);
//! let mut svc_rng = factory.stream(rng_streams::LENGTHS);
//! let arr = Exponential::new(lam);
//! let svc = Exponential::new(mu);
//!
//! let mut engine = Engine::new();
//! engine.schedule_in(SimDuration::new(arr.sample(&mut arr_rng)), Ev::Arrival);
//! let mut in_system = 0u64;
//! let mut q = TimeWeighted::new(SimTime::ZERO, 0.0);
//! let horizon = SimTime::new(50_000.0);
//! engine.run_until(horizon, |eng, ev| match ev {
//!     Ev::Arrival => {
//!         in_system += 1;
//!         q.set(eng.now(), in_system as f64);
//!         if in_system == 1 {
//!             eng.schedule_in(SimDuration::new(svc.sample(&mut svc_rng)), Ev::Departure);
//!         }
//!         eng.schedule_in(SimDuration::new(arr.sample(&mut arr_rng)), Ev::Arrival);
//!     }
//!     Ev::Departure => {
//!         in_system -= 1;
//!         q.set(eng.now(), in_system as f64);
//!         if in_system > 0 {
//!             eng.schedule_in(SimDuration::new(svc.sample(&mut svc_rng)), Ev::Departure);
//!         }
//!     }
//! });
//! // E[L] for M/M/1 is ρ/(1-ρ) = 1 at ρ = 0.5
//! let l = q.time_average(horizon).unwrap();
//! assert!((l - 1.0).abs() < 0.1, "L = {l}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod engine;
pub mod event;
pub mod quantile;
pub mod rng;
pub mod stats;
pub mod time;

/// `Err(what)` unless `ok`: one range check on a value from outside the
/// program (a config file), written where the matching `assert!` used to
/// be. `validate` methods chain these with `?`; the constructors that
/// must not be handed a bad value call `validate` and panic with its text.
pub fn ensure(ok: bool, what: impl std::fmt::Display) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// One-stop imports for simulation authors.
pub mod prelude {
    pub use crate::dist::{Discrete, Exponential, PoissonCount, Zipf};
    pub use crate::engine::Engine;
    pub use crate::event::EventQueue;
    pub use crate::quantile::Histogram;
    pub use crate::rng::{streams as rng_streams, RngFactory, Xoshiro256};
    pub use crate::stats::{mser_truncation, SummaryStats, TimeWeighted, Welford};
    pub use crate::time::{SimDuration, SimTime};
}
