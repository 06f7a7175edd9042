//! The uplink (back-channel) — slotted-ALOHA style request delivery.
//!
//! The hybrid architecture assumes "the clients are provided with a limited
//! back-channel capacity to make requests" (§2, citing Acharya & Franklin
//! '97). The rest of the stack treats that channel as instantaneous and
//! lossless; `UplinkChannel` models it as a contention channel: each
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
//! The channel keeps no books of its own: each caller books the outcome
//! `UplinkChannel::transmit` returns — the simulator per class in its
//! metrics, the channel core in its conservation books.

use serde::{Deserialize, Serialize};

use hybridcast_sim::ensure;
use hybridcast_sim::rng::Xoshiro256;
use hybridcast_sim::time::SimDuration;

/// RNG stream id for uplink contention draws. The simulator draws from
/// this lane and channel `c` of a multi-channel host from `UPLINK_STREAM +
/// c`, so a serve, a replay of its trace and a sim run over one seed see
/// the same loss/latency sequence.
pub(crate) const UPLINK_STREAM: u64 = 7;

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
    /// What `UplinkChannel::new` requires, as a typed error.
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
pub(crate) enum UplinkOutcome {
    /// Delivered to the server after this much uplink latency.
    Delivered(SimDuration),
    /// Lost after exhausting every attempt.
    Lost,
}

/// A stateful back-channel: its configuration and its own RNG stream.
#[derive(Debug, Clone)]
pub(crate) struct UplinkChannel {
    cfg: UplinkConfig,
    rng: Xoshiro256,
}

impl UplinkChannel {
    /// Builds the channel.
    ///
    /// # Panics
    /// Panics on non-positive slot time, a success probability outside
    /// `(0, 1]`, or zero attempts.
    pub(crate) fn new(cfg: UplinkConfig, rng: Xoshiro256) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        UplinkChannel { cfg, rng }
    }

    /// Attempts to deliver one request.
    ///
    /// Each retry gap is an independent `Exp(mean = backoff_slots)` draw —
    /// `backoff_slots` is a *mean*, not a fixed spacing — so delivered
    /// latencies are `slot·(k + Σ gaps)` for success on attempt `k`. With
    /// `backoff_slots = 0` no backoff draws are consumed and the channel's
    /// draw sequence is one `next_f64` per attempt, as before.
    pub(crate) fn transmit(&mut self) -> UplinkOutcome {
        let mut backoff = 0.0;
        for attempt in 1..=self.cfg.max_attempts {
            if self.rng.next_f64() < self.cfg.success_prob {
                let latency = self.cfg.slot_time * (attempt as f64 + backoff);
                return UplinkOutcome::Delivered(SimDuration::new(latency));
            }
            if attempt < self.cfg.max_attempts && self.cfg.backoff_slots > 0.0 {
                // Inverse-CDF exponential: u in [0,1) makes 1−u in (0,1].
                backoff -= self.cfg.backoff_slots * (1.0 - self.rng.next_f64()).ln();
            }
        }
        UplinkOutcome::Lost
    }

    /// Overrides the per-attempt success probability mid-run — the fault
    /// injector's "loss burst" lever (a congested or jammed back-channel).
    ///
    /// # Panics
    /// Panics unless `p` lies in `(0, 1]`.
    pub(crate) fn set_success_prob(&mut self, p: f64) {
        assert!(
            p > 0.0 && p <= 1.0,
            "success probability must lie in (0, 1], got {p}"
        );
        self.cfg.success_prob = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_sim::rng::RngFactory;
    use hybridcast_sim::stats::Welford;

    fn channel(p: f64, attempts: u32) -> UplinkChannel {
        let cfg = UplinkConfig {
            slot_time: 0.1,
            success_prob: p,
            max_attempts: attempts,
            backoff_slots: 2.0,
        };
        UplinkChannel::new(cfg, RngFactory::new(31).stream(77))
    }

    /// The outcomes of `n` transmissions: delivered latencies and losses.
    fn tally(ch: &mut UplinkChannel, n: u32) -> (Welford, u32) {
        let (mut latency, mut lost) = (Welford::new(), 0);
        for _ in 0..n {
            match ch.transmit() {
                UplinkOutcome::Delivered(d) => latency.push(d.as_f64()),
                UplinkOutcome::Lost => lost += 1,
            }
        }
        (latency, lost)
    }

    #[test]
    fn perfect_channel_is_one_slot() {
        let (latency, lost) = tally(&mut channel(1.0, 3), 100);
        assert_eq!(lost, 0);
        assert_eq!(latency.count(), 100);
        assert!((latency.min().unwrap() - 0.1).abs() < 1e-12);
        assert!((latency.max().unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn loss_rate_matches_theory() {
        let n = 100_000;
        let (_, lost) = tally(&mut channel(0.5, 3), n);
        let got = f64::from(lost) / f64::from(n);
        let want = 0.5f64.powi(3); // (1 − p)^max_attempts
        assert!((got - want).abs() < 0.01, "loss {got} vs theory {want}");
    }

    #[test]
    fn latency_grows_with_retries() {
        // attempt-k latency = slot·(k + Σ Exp(mean=backoff) gaps); each gap
        // has mean `backoff`, so the mean over the truncated geometric
        // attempt distribution is slot·E[k] + slot·backoff·E[k−1].
        let (latency, _) = tally(&mut channel(0.5, 5), 100_000);
        // E[latency | delivered]: attempts k w.p. 0.5^k / (1−0.5^5)
        let norm = 1.0 - 0.5f64.powi(5);
        let want: f64 = (1..=5)
            .map(|k| {
                let pk = 0.5f64.powi(k) / norm;
                pk * 0.1 * (k as f64 + 2.0 * (k - 1) as f64)
            })
            .sum();
        let got = latency.mean();
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
        let (latency, _) = tally(
            &mut UplinkChannel::new(cfg, RngFactory::new(9).stream(77)),
            200_000,
        );
        let norm = 1.0 - (1.0 - p).powi(attempts as i32);
        let e_attempts: f64 = (1..=attempts)
            .map(|k| k as f64 * p * (1.0 - p).powi(k as i32 - 1) / norm)
            .sum();
        let want =
            cfg.slot_time * e_attempts + cfg.slot_time * cfg.backoff_slots * (e_attempts - 1.0);
        let got = latency.mean();
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
            if let UplinkOutcome::Delivered(d) = ch.transmit() {
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
        // Two classes taking turns on one channel: the caller attributes
        // each outcome to the class that sent it, and both classes see the
        // same channel.
        let mut ch = channel(0.5, 3);
        let mut latency = [Welford::new(), Welford::new()];
        for i in 0..20_000usize {
            if let UplinkOutcome::Delivered(d) = ch.transmit() {
                latency[i % 2].push(d.as_f64());
            }
        }
        assert!(latency[0].count() > 5_000);
        assert!(latency[1].count() > 5_000);
        let (m0, m1) = (latency[0].mean(), latency[1].mean());
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
        let mut ch = UplinkChannel::new(cfg, RngFactory::new(5).stream(11));
        let mut twin = RngFactory::new(5).stream(11);
        for _ in 0..1_000 {
            let mut want = UplinkOutcome::Lost;
            for k in 1..=3u32 {
                if twin.next_f64() < 0.5 {
                    want = UplinkOutcome::Delivered(SimDuration::new(0.1 * k as f64));
                    break;
                }
            }
            assert_eq!(ch.transmit(), want);
        }
    }

    #[test]
    fn single_attempt_channel() {
        let (_, lost) = tally(&mut channel(0.3, 1), 50_000);
        let got = f64::from(lost) / 50_000.0;
        assert!((got - 0.7).abs() < 0.01);
    }

    #[test]
    fn losses_are_attributed_to_the_transmitting_class() {
        // Two classes taking turns, as in the per-class delivery test.
        let mut ch = channel(0.5, 1);
        let mut lost = [0u32; 2];
        for i in 0..10_000usize {
            if ch.transmit() == UplinkOutcome::Lost {
                lost[i % 2] += 1;
            }
        }
        assert!(lost[0] > 1_000);
        assert!(lost[1] > 1_000);
    }

    #[test]
    #[should_panic(expected = "success probability")]
    fn zero_success_rejected() {
        let _ = channel(0.0, 3);
    }
}
