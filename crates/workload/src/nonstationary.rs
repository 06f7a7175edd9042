//! First-class nonstationary workload families.
//!
//! The paper tunes the cutoff `K` offline against a *stationary* Zipf
//! workload; production traffic is not stationary. [`NonstationaryConfig`]
//! names the four disturbance families the online cutoff controller exists
//! to survive, as a serializable scenario field shared by the simulator,
//! the fuzzer and the `adaptive_sweep` bench:
//!
//! * **flash crowd** — the aggregate arrival rate multiplies by `factor`
//!   inside one window (a time change of the base stream, reusing
//!   [`SurgeSource`]);
//! * **diurnal rotation** — the identity of the hot items rotates every
//!   `period` units while the popularity *law* is unchanged (the wrapper
//!   twin of [`DriftConfig`](crate::requests::DriftConfig), usable over any
//!   inner source);
//! * **Zipf-θ regime switch** — at time `at` the access skew jumps to
//!   `theta_after`: post-switch items are redrawn from the new law on a
//!   dedicated RNG stream (a relabeling could never change the *shape* of
//!   the distribution);
//! * **popularity permutation** — at time `at` a seeded random permutation
//!   remaps every item id, so rank no longer predicts popularity and a
//!   static popularity-sorted push prefix goes stale at a stroke.
//!
//! All four are deterministic given the scenario seed. The permutation is
//! drawn from the scenario's *base* factory (it is structure, shared by
//! every replication); the θ-switch redraws come from the *replication*
//! factory (they are sampling noise, independent across replications).
//!
//! [`NonstationaryConfig::regimes`] decomposes the horizon into piecewise-
//! stationary segments, each described by a plain [`ScenarioConfig`] — the
//! yardstick the bench sweeps offline to price the controller's regret.
//! Rotation and permutation relabel items without changing the law, so
//! their offline yardstick is the base stationary scenario itself (an
//! offline agent would re-sort the catalog and face the same optimization
//! problem).

use rand::RngCore;
use serde::{Deserialize, Serialize};

use hybridcast_sim::dist::Discrete;
use hybridcast_sim::ensure;
use hybridcast_sim::rng::{RngFactory, Xoshiro256};

use crate::catalog::ItemId;
use crate::popularity::PopularityModel;
use crate::requests::{Request, RequestSource, SurgeSource, SurgeWindow};
use crate::scenario::ScenarioConfig;

/// RNG stream id for regime-switch redraws and the permutation draw —
/// far from the driver's `UPLINK_STREAM + channel` band and the other
/// named streams.
const REGIME_STREAM: u64 = 0x40_00;

/// One nonstationary disturbance family applied to a scenario's request
/// stream (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum NonstationaryConfig {
    /// Arrival-rate surge: rate × `factor` during `[start, start+duration)`.
    FlashCrowd {
        /// Window start (broadcast units).
        start: f64,
        /// Window length, positive.
        duration: f64,
        /// Rate multiplier inside the window, positive and finite
        /// (`> 1` is a crowd; `< 1` is a lull).
        factor: f64,
    },
    /// The hot set rotates by `shift` item ids every `period` units.
    DiurnalRotation {
        /// Rotation period in broadcast units.
        period: f64,
        /// Item ids shifted per period.
        shift: usize,
    },
    /// The Zipf skew jumps to `theta_after` at time `at`.
    ThetaSwitch {
        /// Switch instant (broadcast units).
        at: f64,
        /// Post-switch access skew, finite and ≥ 0.
        theta_after: f64,
    },
    /// A seeded random permutation remaps every item id from time `at`.
    Permutation {
        /// Switch instant (broadcast units).
        at: f64,
    },
}

/// One piecewise-stationary segment of a nonstationary scenario: the
/// stationary [`ScenarioConfig`] that describes traffic inside
/// `[start, end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Regime {
    /// Segment start (broadcast units).
    pub start: f64,
    /// Segment end, exclusive.
    pub end: f64,
    /// Stationary scenario matching this segment's law and rate.
    pub scenario: ScenarioConfig,
}

impl NonstationaryConfig {
    /// Checks structural validity: the first violated constraint, as a
    /// typed error (`wrap` panics with its text).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            NonstationaryConfig::FlashCrowd {
                start,
                duration,
                factor,
            } => {
                ensure(
                    start.is_finite() && start >= 0.0,
                    format_args!("flash crowd start must be finite and non-negative, got {start}"),
                )?;
                ensure(
                    duration.is_finite() && duration > 0.0,
                    format_args!("flash crowd duration must be positive, got {duration}"),
                )?;
                ensure(
                    factor.is_finite() && factor > 0.0,
                    format_args!("flash crowd factor must be positive and finite, got {factor}"),
                )
            }
            NonstationaryConfig::DiurnalRotation { period, .. } => ensure(
                period.is_finite() && period > 0.0,
                format_args!("rotation period must be positive, got {period}"),
            ),
            NonstationaryConfig::ThetaSwitch { at, theta_after } => {
                ensure(
                    at.is_finite() && at >= 0.0,
                    format_args!("theta switch time must be finite and non-negative, got {at}"),
                )?;
                ensure(
                    theta_after.is_finite() && theta_after >= 0.0,
                    format_args!(
                        "post-switch theta must be finite and non-negative, got {theta_after}"
                    ),
                )
            }
            NonstationaryConfig::Permutation { at } => ensure(
                at.is_finite() && at >= 0.0,
                format_args!("permutation switch time must be finite and non-negative, got {at}"),
            ),
        }
    }

    /// The regime-boundary instants inside `[0, horizon)`, sorted — where
    /// an offline per-regime agent would re-tune.
    pub fn boundaries(&self, horizon: f64) -> Vec<f64> {
        let mut out = match *self {
            NonstationaryConfig::FlashCrowd {
                start, duration, ..
            } => vec![start, start + duration],
            NonstationaryConfig::DiurnalRotation { period, .. } => {
                let mut ts = Vec::new();
                let mut t = period;
                while t < horizon {
                    ts.push(t);
                    t += period;
                }
                ts
            }
            NonstationaryConfig::ThetaSwitch { at, .. } => vec![at],
            NonstationaryConfig::Permutation { at } => vec![at],
        };
        out.retain(|t| *t > 0.0 && *t < horizon);
        out
    }

    /// Decomposes `[0, horizon)` into piecewise-stationary [`Regime`]s of
    /// the `base` scenario (see the module docs for the relabeling-
    /// invariance argument for rotation and permutation).
    pub fn regimes(&self, base: &ScenarioConfig, horizon: f64) -> Vec<Regime> {
        assert!(horizon > 0.0, "horizon must be positive");
        let stationary = |cfg: &ScenarioConfig| {
            let mut c = cfg.clone();
            c.nonstationary = None;
            c
        };
        match *self {
            NonstationaryConfig::FlashCrowd {
                start,
                duration,
                factor,
            } => {
                let mut crowded = stationary(base);
                crowded.arrival_rate *= factor;
                let lo = start.min(horizon);
                let hi = (start + duration).min(horizon);
                let mut out = Vec::new();
                if lo > 0.0 {
                    out.push(Regime {
                        start: 0.0,
                        end: lo,
                        scenario: stationary(base),
                    });
                }
                if hi > lo {
                    out.push(Regime {
                        start: lo,
                        end: hi,
                        scenario: crowded,
                    });
                }
                if horizon > hi {
                    out.push(Regime {
                        start: hi,
                        end: horizon,
                        scenario: stationary(base),
                    });
                }
                out
            }
            NonstationaryConfig::ThetaSwitch { at, theta_after } => {
                let mut after = stationary(base);
                after.popularity = PopularityModel::zipf(theta_after);
                let at = at.min(horizon);
                let mut out = Vec::new();
                if at > 0.0 {
                    out.push(Regime {
                        start: 0.0,
                        end: at,
                        scenario: stationary(base),
                    });
                }
                if horizon > at {
                    out.push(Regime {
                        start: at,
                        end: horizon,
                        scenario: after,
                    });
                }
                out
            }
            // Relabelings: the law is unchanged, so the offline yardstick
            // is the base stationary problem over the whole horizon.
            NonstationaryConfig::DiurnalRotation { .. }
            | NonstationaryConfig::Permutation { .. } => {
                vec![Regime {
                    start: 0.0,
                    end: horizon,
                    scenario: stationary(base),
                }]
            }
        }
    }

    /// Wraps `inner` with this disturbance. `base` is the scenario's root
    /// factory (shared structure such as the permutation); `replication`
    /// is the per-replication factory (sampling noise such as θ-switch
    /// redraws).
    pub(crate) fn wrap(
        &self,
        inner: Box<dyn RequestSource>,
        num_items: usize,
        base: &RngFactory,
        replication: &RngFactory,
    ) -> Box<dyn RequestSource> {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        assert!(num_items > 0, "catalog must contain at least one item");
        match *self {
            NonstationaryConfig::FlashCrowd {
                start,
                duration,
                factor,
            } => Box::new(SurgeSource::new(
                inner,
                vec![SurgeWindow {
                    start,
                    end: start + duration,
                    factor,
                }],
            )),
            NonstationaryConfig::DiurnalRotation { period, shift } => Box::new(RemapSource {
                inner,
                kind: RemapKind::Rotation { period, shift },
                num_items,
            }),
            NonstationaryConfig::ThetaSwitch { at, theta_after } => {
                let probs = PopularityModel::zipf(theta_after).probabilities(num_items);
                Box::new(RemapSource {
                    inner,
                    kind: RemapKind::ThetaSwitch {
                        at,
                        sampler: Discrete::new(&probs),
                        rng: replication.stream(REGIME_STREAM),
                    },
                    num_items,
                })
            }
            NonstationaryConfig::Permutation { at } => Box::new(RemapSource {
                inner,
                kind: RemapKind::Permutation {
                    at,
                    perm: random_permutation(num_items, &mut base.stream(REGIME_STREAM)),
                },
                num_items,
            }),
        }
    }
}

/// A seeded Fisher–Yates permutation of `0..n`.
fn random_permutation(n: usize, rng: &mut Xoshiro256) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        // uniform index in 0..=i via rejection-free modulo (n is small and
        // determinism, not bias at the 2^-64 level, is what matters here)
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// How a [`RemapSource`] rewrites item ids.
enum RemapKind {
    Rotation {
        period: f64,
        shift: usize,
    },
    ThetaSwitch {
        at: f64,
        sampler: Discrete,
        rng: Xoshiro256,
    },
    Permutation {
        at: f64,
        perm: Vec<u32>,
    },
}

/// A [`RequestSource`] adaptor that rewrites the *item* of each request as
/// a function of its arrival time — arrivals and classes pass through
/// untouched, so the output stream stays sorted and rate-identical.
struct RemapSource {
    inner: Box<dyn RequestSource>,
    kind: RemapKind,
    num_items: usize,
}

impl RequestSource for RemapSource {
    fn peek(&self) -> Option<hybridcast_sim::time::SimTime> {
        self.inner.peek()
    }

    fn next_request(&mut self) -> Request {
        let req = self.inner.next_request();
        let t = req.arrival.as_f64();
        let item = match &mut self.kind {
            RemapKind::Rotation { period, shift } => {
                let epochs = (t / *period).floor() as usize;
                ItemId(((req.item.index() + epochs * *shift) % self.num_items) as u32)
            }
            RemapKind::ThetaSwitch { at, sampler, rng } => {
                if t >= *at {
                    ItemId(sampler.sample(rng) as u32)
                } else {
                    req.item
                }
            }
            RemapKind::Permutation { at, perm } => {
                if t >= *at {
                    ItemId(perm[req.item.index()])
                } else {
                    req.item
                }
            }
        };
        Request { item, ..req }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use hybridcast_sim::time::SimTime;

    fn drain(mut src: Box<dyn RequestSource>, horizon: f64) -> Vec<Request> {
        let mut out = Vec::new();
        while let Some(t) = src.peek() {
            if t > SimTime::new(horizon) {
                break;
            }
            out.push(src.next_request());
        }
        out
    }

    fn source_for(ns: NonstationaryConfig, theta: f64, horizon: f64) -> Vec<Request> {
        let mut cfg = ScenarioConfig::icpp2005(theta);
        cfg.nonstationary = Some(ns);
        drain(cfg.build().request_source_replication(0), horizon)
    }

    #[test]
    fn flash_crowd_multiplies_the_window_rate() {
        let reqs = source_for(
            NonstationaryConfig::FlashCrowd {
                start: 2_000.0,
                duration: 1_000.0,
                factor: 4.0,
            },
            0.6,
            6_000.0,
        );
        let rate = |lo: f64, hi: f64| {
            reqs.iter()
                .filter(|r| r.arrival.as_f64() >= lo && r.arrival.as_f64() < hi)
                .count() as f64
                / (hi - lo)
        };
        let before = rate(0.0, 2_000.0);
        let during = rate(2_000.0, 3_000.0);
        assert!((before - 5.0).abs() < 0.7, "base rate {before}");
        assert!(during > 3.0 * before, "crowd rate {during} vs {before}");
    }

    #[test]
    fn rotation_moves_the_hot_set_each_period() {
        let reqs = source_for(
            NonstationaryConfig::DiurnalRotation {
                period: 1_000.0,
                shift: 50,
            },
            1.4,
            2_000.0,
        );
        let share = |lo: f64, hi: f64, head: std::ops::Range<usize>| {
            let (mut n, mut hits) = (0u64, 0u64);
            for r in &reqs {
                let t = r.arrival.as_f64();
                if t >= lo && t < hi {
                    n += 1;
                    if head.contains(&r.item.index()) {
                        hits += 1;
                    }
                }
            }
            hits as f64 / n as f64
        };
        // Zipf(100, 1.4) top-10 mass ≈ 0.74; each epoch carries it on its
        // own rotated window.
        assert!(share(0.0, 1_000.0, 0..10) > 0.6);
        assert!(share(1_000.0, 2_000.0, 50..60) > 0.6);
    }

    #[test]
    fn theta_switch_changes_the_distribution_shape() {
        // Skew 1.4 → 0.0 (uniform): the top-10 share must collapse from
        // ≈ 0.74 to ≈ 0.10 after the switch. A mere relabeling could never
        // produce this.
        let reqs = source_for(
            NonstationaryConfig::ThetaSwitch {
                at: 3_000.0,
                theta_after: 0.0,
            },
            1.4,
            9_000.0,
        );
        let head_share = |lo: f64, hi: f64| {
            let (mut n, mut hits) = (0u64, 0u64);
            for r in &reqs {
                let t = r.arrival.as_f64();
                if t >= lo && t < hi {
                    n += 1;
                    if r.item.index() < 10 {
                        hits += 1;
                    }
                }
            }
            hits as f64 / n as f64
        };
        assert!(head_share(0.0, 3_000.0) > 0.6);
        let after = head_share(3_000.0, 9_000.0);
        assert!(
            (after - 0.10).abs() < 0.05,
            "post-switch head share {after}"
        );
    }

    #[test]
    fn permutation_is_a_bijective_relabeling_after_the_switch() {
        let mut cfg = ScenarioConfig::icpp2005(1.0);
        cfg.nonstationary = Some(NonstationaryConfig::Permutation { at: 1_000.0 });
        let scenario = cfg.build();
        let permuted = drain(scenario.request_source_replication(0), 3_000.0);
        let plain: Vec<Request> = {
            let mut cfg = cfg.clone();
            cfg.nonstationary = None;
            drain(cfg.build().request_source_replication(0), 3_000.0)
        };
        assert_eq!(permuted.len(), plain.len());
        let mut mapping = vec![None; 100];
        for (a, b) in plain.iter().zip(&permuted) {
            assert_eq!((a.arrival, a.class), (b.arrival, b.class));
            if a.arrival.as_f64() < 1_000.0 {
                assert_eq!(a.item, b.item, "pre-switch items untouched");
            } else {
                match mapping[a.item.index()] {
                    None => mapping[a.item.index()] = Some(b.item),
                    Some(prev) => assert_eq!(prev, b.item, "mapping must be a function"),
                }
            }
        }
        // injective on the observed support, and not the identity
        let seen: Vec<ItemId> = mapping.iter().flatten().copied().collect();
        let mut uniq = seen.clone();
        uniq.sort_by_key(|i| i.0);
        uniq.dedup();
        assert_eq!(uniq.len(), seen.len(), "permutation must be injective");
        assert!(
            mapping
                .iter()
                .enumerate()
                .any(|(i, m)| matches!(m, Some(id) if id.index() != i)),
            "permutation should move at least one observed item"
        );
    }

    #[test]
    fn permutation_is_shared_across_replications() {
        let mut cfg = ScenarioConfig::icpp2005(1.0);
        cfg.nonstationary = Some(NonstationaryConfig::Permutation { at: 0.0 });
        let scenario = cfg.build();
        // Replications draw different requests, but the *mapping* item →
        // permuted item is scenario structure: rebuild it per replication
        // by comparing against the unpermuted twin.
        let observed_map = |r: u64| {
            let permuted = drain(scenario.request_source_replication(r), 2_000.0);
            let plain = {
                let mut c = cfg.clone();
                c.nonstationary = None;
                drain(c.build().request_source_replication(r), 2_000.0)
            };
            let mut map = vec![None; 100];
            for (a, b) in plain.iter().zip(&permuted) {
                map[a.item.index()] = Some(b.item);
            }
            map
        };
        let m0 = observed_map(0);
        let m1 = observed_map(1);
        for (i, (a, b)) in m0.iter().zip(&m1).enumerate() {
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a, b, "item {i} permuted differently across replications");
            }
        }
    }

    #[test]
    fn nonstationary_sources_are_deterministic() {
        for ns in [
            NonstationaryConfig::FlashCrowd {
                start: 500.0,
                duration: 400.0,
                factor: 3.0,
            },
            NonstationaryConfig::DiurnalRotation {
                period: 300.0,
                shift: 7,
            },
            NonstationaryConfig::ThetaSwitch {
                at: 700.0,
                theta_after: 1.2,
            },
            NonstationaryConfig::Permutation { at: 400.0 },
        ] {
            let a = source_for(ns, 0.6, 2_000.0);
            let b = source_for(ns, 0.6, 2_000.0);
            assert_eq!(a, b, "{ns:?} must replay bit-identically");
        }
    }

    #[test]
    fn regimes_partition_the_horizon() {
        let base = ScenarioConfig::icpp2005(1.4);
        let ns = NonstationaryConfig::FlashCrowd {
            start: 1_000.0,
            duration: 500.0,
            factor: 6.0,
        };
        let regimes = ns.regimes(&base, 4_000.0);
        assert_eq!(regimes.len(), 3);
        assert_eq!(regimes[0].start, 0.0);
        assert_eq!(regimes.last().unwrap().end, 4_000.0);
        for w in regimes.windows(2) {
            assert_eq!(w[0].end, w[1].start, "regimes must tile the horizon");
        }
        assert!((regimes[1].scenario.arrival_rate - 30.0).abs() < 1e-12);
        assert!(regimes.iter().all(|r| r.scenario.nonstationary.is_none()));

        let sw = NonstationaryConfig::ThetaSwitch {
            at: 2_000.0,
            theta_after: 0.2,
        };
        let regimes = sw.regimes(&base, 4_000.0);
        assert_eq!(regimes.len(), 2);
        assert_eq!(regimes[1].scenario.popularity, PopularityModel::zipf(0.2));
        assert_eq!(sw.boundaries(4_000.0), vec![2_000.0]);

        let rot = NonstationaryConfig::DiurnalRotation {
            period: 1_000.0,
            shift: 10,
        };
        assert_eq!(rot.regimes(&base, 4_000.0).len(), 1);
        assert_eq!(rot.boundaries(4_000.0), vec![1_000.0, 2_000.0, 3_000.0]);
    }

    #[test]
    fn config_serde_round_trips_through_scenario() {
        let cfg = ScenarioConfig {
            nonstationary: Some(NonstationaryConfig::ThetaSwitch {
                at: 123.0,
                theta_after: 0.9,
            }),
            ..ScenarioConfig::default()
        };
        let js = serde_json::to_string(&cfg).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&js).unwrap();
        assert_eq!(back, cfg);
        // old configs (no field) still parse
        let legacy: ScenarioConfig =
            serde_json::from_str(&serde_json::to_string(&ScenarioConfig::default()).unwrap())
                .unwrap();
        assert_eq!(legacy.nonstationary, None);
    }
}
