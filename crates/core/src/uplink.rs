//! The uplink (back-channel) — slotted-ALOHA style request delivery.
//!
//! The hybrid architecture assumes "the clients are provided with a limited
//! back-channel capacity to make requests" (§2, citing Acharya & Franklin
//! '97). The rest of the stack treats that channel as instantaneous and
//! lossless; [`UplinkChannel`] models it as a contention channel: each
//! request transmission succeeds with probability `success_prob` per
//! attempt, retries up to `max_attempts` times after an exponentially
//! distributed random backoff (mean `backoff_slots` slots per gap, as in
//! ALOHA-style randomized retransmission), and is **lost** if every
//! attempt collides. A request delivered on attempt `k` reaches the
//! server `slot·(k + Σ gaps)` later, where the `k−1` gaps are i.i.d.
//! `Exp(mean = backoff_slots)` draws from the channel's own RNG stream;
//! the mean delivered latency is therefore
//! `slot·E[attempts] + slot·backoff·E[attempts−1 | delivered]`. The
//! requester's access-time clock still starts at the original request
//! instant, so uplink latency shows up in the measured QoS.
//!
//! Delivery counts and latency statistics are kept both globally and per
//! service class, mirroring the per-class loss attribution, so
//! `ClassReport` and the telemetry windows can break uplink QoS down by
//! class.

use serde::{Deserialize, Serialize};

use hybridcast_sim::ensure;
use hybridcast_sim::rng::Xoshiro256;
use hybridcast_sim::stats::Welford;
use hybridcast_sim::time::SimDuration;
use hybridcast_workload::classes::ClassId;

/// RNG stream id for uplink contention draws. The simulator draws from
/// this lane and channel `c` of a multi-channel host from `UPLINK_STREAM +
/// c`, so a serve, a replay of its trace and a sim run over one seed see
/// the same loss/latency sequence.
pub const UPLINK_STREAM: u64 = 7;

/// Back-channel parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UplinkConfig {
    /// Time to transmit one request attempt, broadcast units.
    pub slot_time: f64,
    /// Per-attempt success probability (collision model collapsed to a
    /// Bernoulli; slotted ALOHA at offered load G has `p = e^{−G}`).
    pub success_prob: f64,
    /// Attempts before the request is abandoned.
    pub max_attempts: u32,
    /// Mean backoff between attempts, in slots.
    pub backoff_slots: f64,
}

impl Default for UplinkConfig {
    fn default() -> Self {
        UplinkConfig {
            slot_time: 0.1,
            success_prob: 0.8,
            max_attempts: 5,
            backoff_slots: 2.0,
        }
    }
}

impl UplinkConfig {
    /// What [`UplinkChannel::new`] requires, as a typed error.
    pub fn validate(&self) -> Result<(), String> {
        ensure(
            self.slot_time > 0.0 && self.slot_time.is_finite(),
            "slot time must be positive",
        )?;
        ensure(
            self.success_prob > 0.0 && self.success_prob <= 1.0,
            "success probability must lie in (0, 1]",
        )?;
        ensure(self.max_attempts >= 1, "need at least one attempt")?;
        ensure(
            self.backoff_slots >= 0.0 && self.backoff_slots.is_finite(),
            "backoff must be non-negative",
        )
    }
}

/// Outcome of pushing one request through the back-channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UplinkOutcome {
    /// Delivered to the server after this much uplink latency.
    Delivered(SimDuration),
    /// Lost after exhausting every attempt.
    Lost,
}

/// A stateful back-channel with loss/latency statistics.
#[derive(Debug, Clone)]
pub struct UplinkChannel {
    cfg: UplinkConfig,
    rng: Xoshiro256,
    delivered: u64,
    lost: u64,
    delivered_per_class: Vec<u64>,
    lost_per_class: Vec<u64>,
    latency: Welford,
    latency_per_class: Vec<Welford>,
}

impl UplinkChannel {
    /// Builds the channel for a population of `num_classes` service
    /// classes (losses are attributed per class).
    ///
    /// # Panics
    /// Panics on non-positive slot time, a success probability outside
    /// `(0, 1]`, or zero attempts.
    pub fn new(cfg: UplinkConfig, rng: Xoshiro256, num_classes: usize) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        UplinkChannel {
            cfg,
            rng,
            delivered: 0,
            lost: 0,
            delivered_per_class: vec![0; num_classes],
            lost_per_class: vec![0; num_classes],
            latency: Welford::new(),
            latency_per_class: vec![Welford::new(); num_classes],
        }
    }

    /// Attempts to deliver one request from a client of `class`.
    ///
    /// Each retry gap is an independent `Exp(mean = backoff_slots)` draw —
    /// `backoff_slots` is a *mean*, not a fixed spacing — so delivered
    /// latencies are `slot·(k + Σ gaps)` for success on attempt `k`. With
    /// `backoff_slots = 0` no backoff draws are consumed and the channel's
    /// draw sequence is one `next_f64` per attempt, as before.
    pub fn transmit(&mut self, class: ClassId) -> UplinkOutcome {
        let mut backoff = 0.0;
        for attempt in 1..=self.cfg.max_attempts {
            if self.rng.next_f64() < self.cfg.success_prob {
                let latency = self.cfg.slot_time * (attempt as f64 + backoff);
                self.delivered += 1;
                self.delivered_per_class[class.index()] += 1;
                self.latency.push(latency);
                self.latency_per_class[class.index()].push(latency);
                return UplinkOutcome::Delivered(SimDuration::new(latency));
            }
            if attempt < self.cfg.max_attempts && self.cfg.backoff_slots > 0.0 {
                // Inverse-CDF exponential: u in [0,1) makes 1−u in (0,1].
                backoff -= self.cfg.backoff_slots * (1.0 - self.rng.next_f64()).ln();
            }
        }
        self.lost += 1;
        self.lost_per_class[class.index()] += 1;
        UplinkOutcome::Lost
    }

    /// Current per-attempt success probability.
    pub fn success_prob(&self) -> f64 {
        self.cfg.success_prob
    }

    /// Overrides the per-attempt success probability mid-run — the fault
    /// injector's "loss burst" lever (a congested or jammed back-channel).
    /// Statistics keep accumulating across the change.
    ///
    /// # Panics
    /// Panics unless `p` lies in `(0, 1]`.
    pub fn set_success_prob(&mut self, p: f64) {
        assert!(
            p > 0.0 && p <= 1.0,
            "success probability must lie in (0, 1], got {p}"
        );
        self.cfg.success_prob = p;
    }

    /// Requests delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Requests of `class` delivered so far.
    pub fn delivered_for(&self, class: ClassId) -> u64 {
        self.delivered_per_class[class.index()]
    }

    /// Per-class delivery counts, indexed by class.
    pub fn delivered_per_class(&self) -> &[u64] {
        &self.delivered_per_class
    }

    /// Requests lost on the uplink so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Requests of `class` lost on the uplink so far.
    pub fn lost_for(&self, class: ClassId) -> u64 {
        self.lost_per_class[class.index()]
    }

    /// Per-class loss counts, indexed by class.
    pub fn lost_per_class(&self) -> &[u64] {
        &self.lost_per_class
    }

    /// Empirical loss probability (`None` before any attempt).
    pub fn loss_probability(&self) -> Option<f64> {
        let total = self.delivered + self.lost;
        (total > 0).then(|| self.lost as f64 / total as f64)
    }

    /// Mean uplink latency of delivered requests.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Mean uplink latency of delivered requests of `class`.
    pub fn mean_latency_for(&self, class: ClassId) -> f64 {
        self.latency_per_class[class.index()].mean()
    }

    /// Theoretical loss probability `(1 − p)^max_attempts`.
    pub fn theoretical_loss(&self) -> f64 {
        (1.0 - self.cfg.success_prob).powi(self.cfg.max_attempts as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_sim::rng::RngFactory;

    fn channel(p: f64, attempts: u32) -> UplinkChannel {
        let cfg = UplinkConfig {
            slot_time: 0.1,
            success_prob: p,
            max_attempts: attempts,
            backoff_slots: 2.0,
        };
        UplinkChannel::new(cfg, RngFactory::new(31).stream(77), 2)
    }

    #[test]
    fn perfect_channel_is_one_slot() {
        let mut ch = channel(1.0, 3);
        for _ in 0..100 {
            match ch.transmit(ClassId(0)) {
                UplinkOutcome::Delivered(d) => assert!((d.as_f64() - 0.1).abs() < 1e-12),
                UplinkOutcome::Lost => panic!("perfect channel lost a request"),
            }
        }
        assert_eq!(ch.lost(), 0);
        assert_eq!(ch.loss_probability(), Some(0.0));
    }

    #[test]
    fn loss_rate_matches_theory() {
        let mut ch = channel(0.5, 3);
        let n = 100_000;
        for _ in 0..n {
            let _ = ch.transmit(ClassId(0));
        }
        let got = ch.loss_probability().unwrap();
        let want = ch.theoretical_loss(); // 0.125
        assert!((want - 0.125).abs() < 1e-12);
        assert!((got - want).abs() < 0.01, "loss {got} vs theory {want}");
    }

    #[test]
    fn latency_grows_with_retries() {
        // attempt-k latency = slot·(k + Σ Exp(mean=backoff) gaps); each gap
        // has mean `backoff`, so the mean over the truncated geometric
        // attempt distribution is slot·E[k] + slot·backoff·E[k−1].
        let mut ch = channel(0.5, 5);
        for _ in 0..100_000 {
            let _ = ch.transmit(ClassId(0));
        }
        // E[latency | delivered]: attempts k w.p. 0.5^k / (1−0.5^5)
        let norm = 1.0 - 0.5f64.powi(5);
        let want: f64 = (1..=5)
            .map(|k| {
                let pk = 0.5f64.powi(k) / norm;
                pk * 0.1 * (k as f64 + 2.0 * (k - 1) as f64)
            })
            .sum();
        let got = ch.mean_latency();
        assert!((got - want).abs() / want < 0.03, "latency {got} vs {want}");
    }

    #[test]
    fn mean_latency_matches_the_closed_form() {
        // ISSUE 5 closed form: E[latency | delivered]
        //   = slot·E[attempts | delivered] + slot·backoff·E[attempts−1 | delivered].
        let p = 0.6;
        let attempts = 4;
        let cfg = UplinkConfig {
            slot_time: 0.25,
            success_prob: p,
            max_attempts: attempts,
            backoff_slots: 1.5,
        };
        let mut ch = UplinkChannel::new(cfg, RngFactory::new(9).stream(77), 1);
        for _ in 0..200_000 {
            let _ = ch.transmit(ClassId(0));
        }
        let norm = 1.0 - (1.0 - p).powi(attempts as i32);
        let e_attempts: f64 = (1..=attempts)
            .map(|k| k as f64 * p * (1.0 - p).powi(k as i32 - 1) / norm)
            .sum();
        let want =
            cfg.slot_time * e_attempts + cfg.slot_time * cfg.backoff_slots * (e_attempts - 1.0);
        let got = ch.mean_latency();
        assert!((got - want).abs() / want < 0.02, "latency {got} vs {want}");
    }

    #[test]
    fn backoff_is_random_with_the_documented_mean_not_deterministic() {
        // Pre-fix, a deterministic backoff put every delivered latency on
        // the lattice {slot·(k + backoff·(k−1))}: at most `max_attempts`
        // distinct values and zero variance within an attempt count. With
        // the documented *mean* backoff, retried deliveries spread over a
        // continuum.
        let mut ch = channel(0.5, 5);
        let mut latencies = Vec::new();
        for _ in 0..10_000 {
            if let UplinkOutcome::Delivered(d) = ch.transmit(ClassId(0)) {
                latencies.push(d.as_f64());
            }
        }
        let mut distinct = latencies.clone();
        distinct.sort_by(|a, b| a.partial_cmp(b).unwrap());
        distinct.dedup();
        assert!(
            distinct.len() > 100,
            "retried latencies must be continuously distributed; saw only {} distinct values",
            distinct.len()
        );
        // Retried deliveries (latency > one slot) carry Exp-distributed
        // excess: their variance is strictly positive, unlike the
        // deterministic lattice where k = 2 deliveries were all identical.
        let mut retried = Welford::new();
        for &l in latencies.iter().filter(|&&l| l > 0.1 + 1e-12) {
            retried.push(l);
        }
        assert!(retried.count() > 1_000);
        assert!(
            retried.variance() > 1e-4,
            "retry latencies must vary, got variance {}",
            retried.variance()
        );
    }

    #[test]
    fn deliveries_and_latency_are_attributed_per_class() {
        let mut ch = channel(0.5, 3);
        for i in 0..20_000u32 {
            let _ = ch.transmit(ClassId((i % 2) as u8));
        }
        assert_eq!(
            ch.delivered_for(ClassId(0)) + ch.delivered_for(ClassId(1)),
            ch.delivered()
        );
        assert_eq!(ch.delivered_per_class().len(), 2);
        assert!(ch.delivered_for(ClassId(0)) > 5_000);
        assert_eq!(
            ch.latency_per_class.iter().map(Welford::count).sum::<u64>(),
            ch.delivered()
        );
        // Same channel, same parameters: the two class means agree loosely.
        let (m0, m1) = (
            ch.mean_latency_for(ClassId(0)),
            ch.mean_latency_for(ClassId(1)),
        );
        assert!(
            (m0 - m1).abs() / m0 < 0.1,
            "class means diverged: {m0} vs {m1}"
        );
    }

    #[test]
    fn zero_backoff_consumes_one_draw_per_attempt() {
        // backoff_slots = 0 must keep the historical draw sequence: a twin
        // RNG consuming one next_f64 per attempt predicts every outcome.
        let cfg = UplinkConfig {
            slot_time: 0.1,
            success_prob: 0.5,
            max_attempts: 3,
            backoff_slots: 0.0,
        };
        let mut ch = UplinkChannel::new(cfg, RngFactory::new(5).stream(11), 1);
        let mut twin = RngFactory::new(5).stream(11);
        for _ in 0..1_000 {
            let mut want = UplinkOutcome::Lost;
            for k in 1..=3u32 {
                if twin.next_f64() < 0.5 {
                    want = UplinkOutcome::Delivered(SimDuration::new(0.1 * k as f64));
                    break;
                }
            }
            assert_eq!(ch.transmit(ClassId(0)), want);
        }
    }

    #[test]
    fn single_attempt_channel() {
        let mut ch = channel(0.3, 1);
        for _ in 0..50_000 {
            let _ = ch.transmit(ClassId(0));
        }
        let got = ch.loss_probability().unwrap();
        assert!((got - 0.7).abs() < 0.01);
    }

    #[test]
    fn losses_are_attributed_to_the_transmitting_class() {
        let mut ch = channel(0.5, 1);
        for i in 0..10_000u32 {
            let _ = ch.transmit(ClassId((i % 2) as u8));
        }
        assert_eq!(ch.lost_for(ClassId(0)) + ch.lost_for(ClassId(1)), ch.lost());
        assert!(ch.lost_for(ClassId(0)) > 1_000);
        assert!(ch.lost_for(ClassId(1)) > 1_000);
        assert_eq!(ch.lost_per_class().len(), 2);
    }

    #[test]
    #[should_panic(expected = "success probability")]
    fn zero_success_rejected() {
        let _ = channel(0.0, 3);
    }
}
