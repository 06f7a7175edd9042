//! The clock seam: one time axis, two drivers.
//!
//! Every scheduler-core API ([`crate::hybrid::HybridScheduler`],
//! [`crate::queue::PullQueue`], [`crate::bandwidth::BandwidthManager`])
//! is *time-passive*: callers pass `now: SimTime` in, nothing inside reads
//! a clock. That is the seam that lets the identical scheduling code run
//! under two drivers:
//!
//! * the **simulator** ([`crate::sim_driver`]) advances `SimTime` from the
//!   event engine's heap — virtual time, decoupled from the host clock;
//! * the **serving daemon** (`hybridcast-server`) advances `SimTime` from
//!   a [`WallClock`], which maps real elapsed time onto the broadcast-unit
//!   axis at a configured `unit_millis` exchange rate.

use std::time::{Duration, Instant};

use hybridcast_sim::time::SimTime;

/// Maps the host's monotonic clock onto the broadcast-unit axis.
///
/// One broadcast unit lasts `unit_millis` wall milliseconds, so a catalog
/// item of length `L` occupies the downlink for `L × unit_millis` ms of
/// real time. Smaller units mean a faster (higher-capacity) modeled
/// downlink.
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Instant,
    unit_millis: f64,
}

impl WallClock {
    /// Starts the clock now: wall instant `epoch` is broadcast time 0.
    ///
    /// # Panics
    /// Panics unless `unit_millis` is positive and finite.
    pub fn start(unit_millis: f64) -> Self {
        assert!(
            unit_millis > 0.0 && unit_millis.is_finite(),
            "broadcast unit must last a positive finite number of milliseconds, got {unit_millis}"
        );
        WallClock {
            epoch: Instant::now(),
            unit_millis,
        }
    }

    /// The current time, in broadcast units.
    pub fn now(&self) -> SimTime {
        let elapsed_ms = self.epoch.elapsed().as_secs_f64() * 1e3;
        SimTime::new(elapsed_ms / self.unit_millis)
    }

    /// How long to wait (wall time) until broadcast instant `t`;
    /// `Duration::ZERO` when `t` is already in the past.
    pub fn wall_until(&self, t: SimTime) -> Duration {
        let remaining = t.as_f64() - self.now().as_f64();
        Duration::from_secs_f64((remaining * self.unit_millis / 1e3).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_advances_on_the_unit_axis() {
        let clock = WallClock::start(0.5); // 1 bu = 0.5 ms
        let t0 = clock.now();
        std::thread::sleep(Duration::from_millis(5));
        let t1 = clock.now();
        // ≥ 5 ms elapsed = ≥ 10 broadcast units; allow generous slack up.
        assert!(t1 > t0);
        assert!(t1.as_f64() - t0.as_f64() >= 9.0, "elapsed {t1:?} - {t0:?}");
    }

    #[test]
    fn wall_until_is_zero_for_the_past() {
        let clock = WallClock::start(1.0);
        assert_eq!(clock.wall_until(SimTime::ZERO), Duration::ZERO);
        let ahead = SimTime::new(clock.now().as_f64() + 1000.0);
        assert!(clock.wall_until(ahead) > Duration::from_millis(500));
    }
}
