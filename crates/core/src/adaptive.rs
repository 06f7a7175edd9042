//! Online cutoff control from measured feedback (ROADMAP item 4).
//!
//! The paper retunes the cutoff `K` by re-running its analytic model over
//! the last window's popularity estimate — an *open-loop* controller that
//! is only as good as the model. This module closes the loop: the
//! [`CutoffController`] steers `K` (and, optionally, the per-class
//! bandwidth partitions) from the *measured* prioritized cost of each
//! window, delivered by the driver as a
//! [`FeedbackSnapshot`].
//!
//! The control law is hysteresis-banded perturb-and-observe hill climbing:
//!
//! 1. move `K` by `step` in the current direction;
//! 2. after the next window (optionally EWMA-smoothed via
//!    `cost_smoothing`, and optionally skipping `settle_windows`
//!    post-move transient windows), compare the measured cost to the
//!    previous judged window's: an improvement of at least `hysteresis`
//!    keeps the direction, a regression of at least `hysteresis`
//!    reverses it, and anything inside the band *holds* (no move) — the
//!    band is what keeps the controller from chattering on measurement
//!    noise;
//! 3. an under-served class (window completions at or below the SLO's
//!    `min_service_ratio` of its demand — zero completions by default)
//!    overrides the climb: `K` is forced upward so the starving class
//!    can ride the broadcast.
//!
//! Every decision is clamped to `[k_min, k_max]` and to the catalog. The
//! cutoff *move* itself rides the existing migration ledger
//! (`set_push_set`), so conservation survives every retune by
//! construction.
//!
//! [`PlantedControllerBugs`] deliberately mis-wires the law (sign-flipped
//! step, hysteresis bypass, one-window-stale telemetry) so the testkit's
//! regret / freshness / hysteresis-discipline oracles can each prove they
//! catch exactly the failure they were built for.

use serde::{Deserialize, Serialize};

use hybridcast_telemetry::FeedbackSnapshot;

fn default_step() -> usize {
    5
}

fn default_hysteresis() -> f64 {
    0.05
}

fn default_k_max() -> usize {
    usize::MAX
}

/// Configuration of the measured-feedback cutoff controller. Attach it to
/// [`AdaptiveConfig::controller`](crate::sim_driver::AdaptiveConfig) to
/// replace the model-argmin retune path with the closed control loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Cutoff increment per move, in items (≥ 1).
    #[serde(default = "default_step")]
    pub step: usize,
    /// Relative cost band treated as noise: a window-over-window change
    /// below this fraction neither confirms nor reverses the climb — the
    /// controller holds.
    #[serde(default = "default_hysteresis")]
    pub hysteresis: f64,
    /// EWMA retention on the measured cost before it is compared:
    /// `s_t = cost_smoothing · s_{t-1} + (1 − cost_smoothing) · raw_t`.
    /// `0.0` (the default) steers on raw window costs; values toward one
    /// trade reaction speed for noise rejection — a perturb step is then
    /// judged on the smoothed series, so a single unlucky window cannot
    /// bounce the climb. Note the smoothed window-over-window delta is
    /// `(1 − cost_smoothing)` times the raw one, so the hysteresis band
    /// effectively widens by `1 / (1 − cost_smoothing)`.
    #[serde(default)]
    pub cost_smoothing: f64,
    /// Measured windows to discard after each actual cutoff move before
    /// judging it (`0`, the default, judges the very next window). A move
    /// perturbs the queues it is being judged on — the first window after
    /// a retune mixes the old operating point's backlog with the new
    /// push set — so with `settle_windows = n` the controller holds for
    /// `n` windows and then compares the settled cost against the
    /// *pre-move* cost, attributing the delta to the move rather than to
    /// the transient.
    #[serde(default)]
    pub settle_windows: u32,
    /// Smallest cutoff the controller may set.
    #[serde(default)]
    pub k_min: usize,
    /// Largest cutoff the controller may set (clamped to the catalog).
    #[serde(default = "default_k_max")]
    pub k_max: usize,
    /// Per-class service-frequency guard; `None` disables the rescue path.
    #[serde(default)]
    pub slo: Option<SloConfig>,
    /// When `true`, each decision also repartitions per-class bandwidth
    /// toward the window's priority-weighted demand (no-op unless the run
    /// uses [`BandwidthPolicy::PerClass`](crate::bandwidth::BandwidthPolicy)).
    #[serde(default)]
    pub rebalance: bool,
    /// Deliberate mis-wirings for the mutation-smoke harness. All `false`
    /// in production.
    #[serde(default)]
    pub planted: PlantedControllerBugs,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            step: default_step(),
            hysteresis: default_hysteresis(),
            cost_smoothing: 0.0,
            settle_windows: 0,
            k_min: 0,
            k_max: default_k_max(),
            slo: Some(SloConfig::default()),
            rebalance: false,
            planted: PlantedControllerBugs::default(),
        }
    }
}

impl ControllerConfig {
    /// Panics with a diagnostic when the configuration is unusable.
    pub fn validate(&self) {
        assert!(self.step >= 1, "controller step must be at least one item");
        assert!(
            self.hysteresis.is_finite() && self.hysteresis >= 0.0,
            "hysteresis band must be a finite non-negative fraction (got {})",
            self.hysteresis
        );
        assert!(
            (0.0..1.0).contains(&self.cost_smoothing),
            "cost smoothing must lie in [0, 1) (got {})",
            self.cost_smoothing
        );
        if let Some(slo) = self.slo {
            assert!(
                (0.0..1.0).contains(&slo.min_service_ratio),
                "SLO service ratio must lie in [0, 1) (got {})",
                slo.min_service_ratio
            );
        }
        assert!(
            self.k_min <= self.k_max,
            "cutoff band is empty: k_min {} > k_max {}",
            self.k_min,
            self.k_max
        );
    }
}

/// Service-frequency (SLO) guard: a class with demand but completions at
/// or below `min_service_ratio` of that demand over a window is
/// *starved*; after `grace_windows` consecutive starved windows the
/// controller abandons the hill climb for one decision and forces `K`
/// upward so the class can catch the cyclic broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SloConfig {
    /// Consecutive starved windows tolerated before the rescue fires
    /// (0 = rescue on the first starved window).
    #[serde(default)]
    pub grace_windows: u32,
    /// Fraction of a class's window demand that must complete in that
    /// window, in `[0, 1)`. The default `0.0` alarms only on total
    /// starvation (zero completions against live demand); positive
    /// ratios also alarm while a class's backlog *grows* — a saturated
    /// pull queue under-serves every window, which pure
    /// perturb-and-observe cannot attribute to the cutoff because the
    /// degradation trend swamps its window-over-window comparisons.
    #[serde(default)]
    pub min_service_ratio: f64,
}

/// Deliberately planted controller defects, used only by the testkit's
/// mutation-smoke suite: each flag breaks the control law in a way exactly
/// one oracle was built to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlantedControllerBugs {
    /// Sign-flip the improvement test: the climber keeps its direction on
    /// cost *increases* and reverses on improvements, so it seeks the
    /// in-band cost maximum (caught by the regret oracle). Note a naive
    /// "negate the applied step" bug would be behaviorally invisible —
    /// P&O is symmetric, so flipping every move and letting the reversal
    /// rule flip back cancels out; the gradient *test* is what must lie.
    #[serde(default)]
    pub flip_gradient: bool,
    /// Ignore the hysteresis band: move every window, even on noise
    /// (caught by the hysteresis-discipline oracle).
    #[serde(default)]
    pub bypass_hysteresis: bool,
    /// Decide on the *previous* window's telemetry instead of the one
    /// just sealed (caught by the telemetry-freshness oracle).
    #[serde(default)]
    pub stale_window: bool,
}

impl PlantedControllerBugs {
    /// `true` when any defect is planted.
    pub fn any(&self) -> bool {
        self.flip_gradient || self.bypass_hysteresis || self.stale_window
    }
}

/// One controller decision, returned by [`CutoffController::decide`] and
/// recorded (field for field) in the run's
/// [`RetuneRecord`](crate::sim_driver::RetuneRecord) trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerDecision {
    /// The cutoff to apply (clamped; may equal the current cutoff).
    pub target_k: usize,
    /// Measured prioritized cost of the decided window (`None` when the
    /// window saw no traffic).
    pub measured_cost: Option<f64>,
    /// Arrivals in the decided window (as the controller saw them — under
    /// the planted stale-telemetry bug this lags reality by one window,
    /// which is exactly what the freshness oracle detects).
    pub window_arrivals: u64,
    /// The SLO rescue path fired.
    pub slo_rescue: bool,
    /// The decision held the incumbent cutoff (inside the hysteresis
    /// band, idle window, or clamped at the band edge).
    pub held: bool,
    /// Target per-class bandwidth shares (rebalance mode only; normalized
    /// by the receiver).
    pub shares: Option<Vec<f64>>,
}

/// The hysteresis-banded perturb-and-observe cutoff controller. Pure
/// state machine: feed it one [`FeedbackSnapshot`] per window via
/// [`decide`](Self::decide); it never touches scheduler or RNG state.
#[derive(Debug, Clone)]
pub struct CutoffController {
    cfg: ControllerConfig,
    /// Per-class cost weights (the classes' priorities).
    weights: Vec<f64>,
    /// Window length in broadcast units (the pessimistic delay charged to
    /// a starved class).
    period: f64,
    prev_cost: Option<f64>,
    /// Climb direction: `+1` grows the push set, `-1` shrinks it.
    direction: isize,
    /// Measured windows still to discard before judging the last move.
    settle: u32,
    starved_streak: u32,
    /// Stale-telemetry bug only: the one-window delay line.
    staged: Option<FeedbackSnapshot>,
}

impl CutoffController {
    /// Builds a controller weighting class `c`'s delay by `weights[c]`
    /// (normally the class priorities) over windows of `period` broadcast
    /// units.
    pub fn new(cfg: ControllerConfig, weights: Vec<f64>, period: f64) -> Self {
        cfg.validate();
        assert!(!weights.is_empty(), "need at least one service class");
        assert!(
            period.is_finite() && period > 0.0,
            "controller window must be positive"
        );
        CutoffController {
            cfg,
            weights,
            period,
            prev_cost: None,
            direction: 1,
            settle: 0,
            starved_streak: 0,
            staged: None,
        }
    }

    /// The configuration this controller runs under.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Decides the next cutoff from the window just sealed. `current_k`
    /// is the cutoff in force; `catalog_size` bounds the clamp.
    pub fn decide(
        &mut self,
        current_k: usize,
        window: FeedbackSnapshot,
        catalog_size: usize,
    ) -> ControllerDecision {
        let window = if self.cfg.planted.stale_window {
            // Planted bug: decide on last window's snapshot.
            let n = self.weights.len();
            self.staged
                .replace(window)
                .unwrap_or_else(|| FeedbackSnapshot {
                    arrivals: vec![0; n],
                    served: vec![0; n],
                    delay_sum: vec![0.0; n],
                })
        } else {
            window
        };
        let window_arrivals = window.total_arrivals();
        let hi = self.cfg.k_max.min(catalog_size);
        let lo = self.cfg.k_min.min(hi);
        let clamp = |k: isize| -> usize { (k.max(lo as isize) as usize).min(hi) };
        let shares = self.target_shares(&window);

        let Some(raw_cost) = window.prioritized_cost(&self.weights, self.period) else {
            // Idle window: nothing to steer on.
            return ControllerDecision {
                target_k: current_k,
                measured_cost: None,
                window_arrivals,
                slo_rescue: false,
                held: true,
                shares,
            };
        };
        // `prev_cost` is the previous smoothed value, so it doubles as the
        // EWMA accumulator; with `cost_smoothing = 0` this is `raw_cost`.
        let cost = match self.prev_cost {
            Some(prev) => {
                self.cfg.cost_smoothing * prev + (1.0 - self.cfg.cost_smoothing) * raw_cost
            }
            None => raw_cost,
        };
        // Tick the settling countdown on every measured window, before the
        // SLO guard gets its look — safety can interrupt a settling
        // interval (and its move re-arms it), but an uneventful rescue
        // evaluation must still consume the window.
        let settling = self.settle > 0;
        if settling {
            self.settle -= 1;
        }

        if let Some(slo) = self.cfg.slo {
            if window.underserved_class(slo.min_service_ratio).is_some() {
                self.starved_streak += 1;
            } else {
                self.starved_streak = 0;
            }
            if self.starved_streak > slo.grace_windows {
                // Rescue: grow the push set so the starving class can ride
                // the broadcast; resume climbing from there. Safety
                // overrides settling — but a rescue move re-arms it.
                self.prev_cost = Some(cost);
                self.direction = 1;
                let target = clamp(current_k as isize + self.cfg.step as isize);
                if target != current_k {
                    self.settle = self.cfg.settle_windows;
                }
                return ControllerDecision {
                    target_k: target,
                    measured_cost: Some(cost),
                    window_arrivals,
                    slo_rescue: true,
                    held: target == current_k,
                    shares,
                };
            }
        }

        if settling {
            // The last move's transient is still washing through the
            // queues: hold, and keep this window out of the smoothed
            // series so the eventual judgment compares settled state
            // against the pre-move cost.
            return ControllerDecision {
                target_k: current_k,
                measured_cost: Some(raw_cost),
                window_arrivals,
                slo_rescue: false,
                held: true,
                shares,
            };
        }

        let (held, direction) = match self.prev_cost {
            // First measured window: probe in the current direction.
            None => (false, self.direction),
            Some(prev) => {
                let delta = (cost - prev) / prev.max(f64::MIN_POSITIVE);
                if self.cfg.planted.bypass_hysteresis {
                    // Planted bug: chase every wiggle.
                    let dir = if delta <= 0.0 {
                        self.direction
                    } else {
                        -self.direction
                    };
                    (false, dir)
                } else if delta.abs() < self.cfg.hysteresis {
                    (true, self.direction)
                } else if (delta < 0.0) != self.cfg.planted.flip_gradient {
                    // Improved (or, under the planted sign-flipped
                    // gradient test, worsened): keep climbing this way.
                    (false, self.direction)
                } else {
                    (false, -self.direction)
                }
            }
        };
        self.prev_cost = Some(cost);
        self.direction = direction;
        let target = if held {
            current_k
        } else {
            clamp(current_k as isize + direction * self.cfg.step as isize)
        };
        if target != current_k {
            self.settle = self.cfg.settle_windows;
        }
        ControllerDecision {
            held: held || target == current_k,
            target_k: target,
            measured_cost: Some(cost),
            window_arrivals,
            slo_rescue: false,
            shares,
        }
    }

    /// Rebalance mode: per-class bandwidth shares proportional to the
    /// window's priority-weighted demand, floored so no class is starved
    /// of capacity outright.
    fn target_shares(&self, window: &FeedbackSnapshot) -> Option<Vec<f64>> {
        if !self.cfg.rebalance {
            return None;
        }
        let raw: Vec<f64> = (0..self.weights.len())
            .map(|c| self.weights[c] * window.arrivals[c] as f64)
            .collect();
        let total: f64 = raw.iter().sum();
        if total <= 0.0 {
            return None;
        }
        Some(raw.iter().map(|r| (r / total).max(0.02)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-class window whose mean delay is exactly `cost` (weight 1).
    fn window(cost: f64) -> FeedbackSnapshot {
        FeedbackSnapshot {
            arrivals: vec![10],
            served: vec![10],
            delay_sum: vec![cost * 10.0],
        }
    }

    fn controller(cfg: ControllerConfig) -> CutoffController {
        CutoffController::new(cfg, vec![1.0], 100.0)
    }

    #[test]
    fn probes_then_keeps_an_improving_direction() {
        let mut c = controller(ControllerConfig::default());
        let d0 = c.decide(40, window(50.0), 100);
        assert_eq!(d0.target_k, 45, "first window probes upward");
        assert!(!d0.held);
        // cost fell by 20% ≥ band: keep climbing
        let d1 = c.decide(45, window(40.0), 100);
        assert_eq!(d1.target_k, 50);
        assert_eq!(d1.measured_cost, Some(40.0));
    }

    #[test]
    fn reverses_when_cost_regresses_beyond_the_band() {
        let mut c = controller(ControllerConfig::default());
        c.decide(40, window(50.0), 100); // probe → 45
        let d = c.decide(45, window(60.0), 100); // +20% ≥ band: reverse
        assert_eq!(d.target_k, 40);
        // the reversal sticks: another regression flips it back up
        let d = c.decide(40, window(75.0), 100);
        assert_eq!(d.target_k, 45);
    }

    #[test]
    fn holds_inside_the_hysteresis_band() {
        let mut c = controller(ControllerConfig::default());
        c.decide(40, window(50.0), 100); // probe → 45
        let d = c.decide(45, window(50.5), 100); // +1% < 5% band
        assert_eq!(d.target_k, 45);
        assert!(d.held);
    }

    #[test]
    fn idle_window_holds_without_updating_the_reference() {
        let mut c = controller(ControllerConfig::default());
        let d = c.decide(
            40,
            FeedbackSnapshot {
                arrivals: vec![0],
                served: vec![0],
                delay_sum: vec![0.0],
            },
            100,
        );
        assert!(d.held);
        assert_eq!(d.target_k, 40);
        assert_eq!(d.measured_cost, None);
    }

    #[test]
    fn clamps_to_the_configured_band_and_catalog() {
        let cfg = ControllerConfig {
            k_min: 10,
            k_max: 44,
            ..ControllerConfig::default()
        };
        let mut c = controller(cfg);
        let d = c.decide(42, window(50.0), 100);
        assert_eq!(d.target_k, 44, "clamped to k_max");
        // catalog smaller than the band: catalog wins
        let mut c2 = controller(ControllerConfig {
            k_min: 10,
            k_max: 90,
            ..ControllerConfig::default()
        });
        let d2 = c2.decide(28, window(50.0), 30);
        assert_eq!(d2.target_k, 30);
    }

    #[test]
    fn slo_rescue_forces_the_cutoff_up() {
        let mut c = CutoffController::new(ControllerConfig::default(), vec![3.0, 1.0], 100.0);
        // class 1 starves: demand, zero completions
        let starved = FeedbackSnapshot {
            arrivals: vec![20, 5],
            served: vec![20, 0],
            delay_sum: vec![100.0, 0.0],
        };
        // drive the climb downward first so the rescue visibly overrides it
        c.direction = -1;
        let d = c.decide(40, starved, 100);
        assert!(d.slo_rescue);
        assert_eq!(d.target_k, 45, "rescue grows the push set");
    }

    #[test]
    fn slo_grace_windows_delay_the_rescue() {
        let cfg = ControllerConfig {
            slo: Some(SloConfig {
                grace_windows: 1,
                ..Default::default()
            }),
            ..ControllerConfig::default()
        };
        let mut c = CutoffController::new(cfg, vec![1.0, 1.0], 100.0);
        let starved = || FeedbackSnapshot {
            arrivals: vec![10, 5],
            served: vec![10, 0],
            delay_sum: vec![50.0, 0.0],
        };
        let d0 = c.decide(40, starved(), 100);
        assert!(!d0.slo_rescue, "first starved window is within grace");
        let d1 = c.decide(d0.target_k, starved(), 100);
        assert!(d1.slo_rescue, "second consecutive starved window rescues");
    }

    #[test]
    fn flip_gradient_seeks_the_cost_maximum() {
        let cfg = ControllerConfig {
            planted: PlantedControllerBugs {
                flip_gradient: true,
                ..Default::default()
            },
            ..ControllerConfig::default()
        };
        let mut c = controller(cfg);
        // Ground truth: cost improves toward K = 60, worsens past it. The
        // flipped gradient test reverses on every improvement and keeps
        // direction on every regression, so the climber walks *down*,
        // away from the optimum, as long as that keeps hurting.
        let d0 = c.decide(40, window(50.0), 100);
        assert_eq!(d0.target_k, 45, "the probe itself is unflipped");
        let d1 = c.decide(45, window(40.0), 100); // improved → flipped reverses
        assert_eq!(d1.target_k, 40);
        let d2 = c.decide(40, window(48.0), 100); // worsened → flipped keeps going
        assert_eq!(d2.target_k, 35);
        let d3 = c.decide(35, window(58.0), 100); // worse again → still down
        assert_eq!(d3.target_k, 30);
    }

    #[test]
    fn bypass_hysteresis_moves_on_noise() {
        let cfg = ControllerConfig {
            planted: PlantedControllerBugs {
                bypass_hysteresis: true,
                ..Default::default()
            },
            ..ControllerConfig::default()
        };
        let mut c = controller(cfg);
        c.decide(40, window(50.0), 100); // probe → 45
        let d = c.decide(45, window(50.2), 100); // +0.4%, inside any sane band
        assert!(!d.held, "bypass bug chases noise");
        assert_ne!(d.target_k, 45);
    }

    #[test]
    fn stale_window_lags_telemetry_by_one_decision() {
        let cfg = ControllerConfig {
            planted: PlantedControllerBugs {
                stale_window: true,
                ..Default::default()
            },
            ..ControllerConfig::default()
        };
        let mut c = controller(cfg);
        let d0 = c.decide(40, window(50.0), 100);
        assert_eq!(d0.window_arrivals, 0, "first decision sees nothing");
        assert!(d0.held);
        let d1 = c.decide(40, window(60.0), 100);
        assert_eq!(d1.window_arrivals, 10, "second decision sees window one");
        assert_eq!(d1.measured_cost, Some(50.0));
    }

    #[test]
    fn rebalance_shares_follow_priority_weighted_demand() {
        let cfg = ControllerConfig {
            rebalance: true,
            ..ControllerConfig::default()
        };
        let mut c = CutoffController::new(cfg, vec![3.0, 1.0], 100.0);
        let d = c.decide(
            40,
            FeedbackSnapshot {
                arrivals: vec![10, 10],
                served: vec![10, 10],
                delay_sum: vec![100.0, 100.0],
            },
            100,
        );
        let shares = d.shares.expect("rebalance mode emits shares");
        assert!((shares[0] - 0.75).abs() < 1e-12);
        assert!((shares[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn config_serde_round_trips_and_defaults_are_backward_compatible() {
        let cfg = ControllerConfig {
            step: 3,
            hysteresis: 0.1,
            cost_smoothing: 0.25,
            settle_windows: 1,
            k_min: 5,
            k_max: 80,
            slo: Some(SloConfig {
                grace_windows: 2,
                min_service_ratio: 0.25,
            }),
            rebalance: true,
            planted: PlantedControllerBugs::default(),
        };
        let js = serde_json::to_string(&cfg).unwrap();
        let back: ControllerConfig = serde_json::from_str(&js).unwrap();
        assert_eq!(back, cfg);
        // an empty object yields the defaults (old configs keep parsing)
        let empty: ControllerConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(empty.step, 5);
        assert!(!empty.planted.any());
    }

    #[test]
    #[should_panic(expected = "cutoff band is empty")]
    fn empty_cutoff_band_is_rejected() {
        ControllerConfig {
            k_min: 50,
            k_max: 40,
            ..ControllerConfig::default()
        }
        .validate();
    }
}
