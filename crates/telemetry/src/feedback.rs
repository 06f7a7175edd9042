//! Windowed per-class feedback for the online cutoff controller.
//!
//! [`FeedbackWindow`] is the measurement seam between the simulation driver
//! and `core::adaptive`: the driver notes every arrival and every service
//! completion (with its delay) into the current window; at each retune
//! instant the controller [takes](FeedbackWindow::take) the window as an
//! immutable [`FeedbackSnapshot`] and decides from *measured* cost, not
//! from the analytic model. Like the rest of telemetry it is purely
//! observational — no scheduler or RNG state is touched, so runs with the
//! controller's measurement on and off stay bit-identical until the
//! controller actually moves `K`.

use serde::{Deserialize, Serialize};

/// Accumulates per-class arrivals, service completions and delay mass over
/// one controller window.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackWindow {
    arrivals: Vec<u64>,
    served: Vec<u64>,
    delay_sum: Vec<f64>,
}

/// One sealed controller window: per-class arrivals, completions and total
/// delay, frozen at the retune instant.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FeedbackSnapshot {
    /// Requests that arrived in the window, per class.
    pub arrivals: Vec<u64>,
    /// Requests served (push or pull) in the window, per class.
    pub served: Vec<u64>,
    /// Sum of service delays accrued in the window, per class.
    pub delay_sum: Vec<f64>,
}

impl FeedbackWindow {
    /// An empty window over `num_classes` service classes.
    pub fn new(num_classes: usize) -> Self {
        FeedbackWindow {
            arrivals: vec![0; num_classes],
            served: vec![0; num_classes],
            delay_sum: vec![0.0; num_classes],
        }
    }

    /// Notes one arrival of class `class`.
    pub fn note_arrival(&mut self, class: usize) {
        self.arrivals[class] += 1;
    }

    /// Notes one completed service of class `class` after waiting `delay`.
    pub fn note_served(&mut self, class: usize, delay: f64) {
        debug_assert!(delay >= 0.0, "negative delay {delay}");
        self.served[class] += 1;
        self.delay_sum[class] += delay;
    }

    /// Total arrivals in the current window.
    pub fn total_arrivals(&self) -> u64 {
        self.arrivals.iter().sum()
    }

    /// Seals the current window, returning its snapshot and resetting the
    /// accumulators for the next one.
    pub fn take(&mut self) -> FeedbackSnapshot {
        let n = self.arrivals.len();
        FeedbackSnapshot {
            arrivals: std::mem::replace(&mut self.arrivals, vec![0; n]),
            served: std::mem::replace(&mut self.served, vec![0; n]),
            delay_sum: std::mem::replace(&mut self.delay_sum, vec![0.0; n]),
        }
    }
}

impl FeedbackSnapshot {
    /// Total arrivals in the window.
    pub fn total_arrivals(&self) -> u64 {
        self.arrivals.iter().sum()
    }

    /// Total completions in the window.
    pub fn total_served(&self) -> u64 {
        self.served.iter().sum()
    }

    /// Mean delay of class `c`, or `None` if nothing of that class was
    /// served this window.
    pub fn mean_delay(&self, c: usize) -> Option<f64> {
        (self.served[c] > 0).then(|| self.delay_sum[c] / self.served[c] as f64)
    }

    /// The first class whose window completions fall at or below
    /// `min_ratio` of its window demand. `min_ratio = 0` is the classic
    /// full-starvation alarm;
    /// positive ratios also flag a class whose backlog is *growing* — the
    /// queue serves some requests but falls behind by more than
    /// `1 − min_ratio` of each window's arrivals.
    pub fn underserved_class(&self, min_ratio: f64) -> Option<usize> {
        (0..self.arrivals.len()).find(|&c| {
            self.arrivals[c] > 0 && (self.served[c] as f64) <= min_ratio * self.arrivals[c] as f64
        })
    }

    /// Measured prioritized cost `Σ_c w_c · mean_delay_c` over classes
    /// with traffic, **backlog-aware**: every request that arrived in the
    /// window but was not served in it is charged the pessimistic
    /// `starved_delay` (the caller passes the window length: "at least a
    /// full window of waiting, still counting"). Without that charge a
    /// controller steering on completions alone is blind to survivorship
    /// bias — under an unstable cutoff the few requests that *do* complete
    /// look cheap precisely while the backlog explodes. The per-class mean
    /// is normalized by `max(arrivals, served)` so draining a prior
    /// window's backlog is never rewarded either. Returns `None` when the
    /// window saw no traffic at all — nothing to steer on.
    pub fn prioritized_cost(&self, weights: &[f64], starved_delay: f64) -> Option<f64> {
        assert_eq!(
            weights.len(),
            self.arrivals.len(),
            "one weight per service class"
        );
        let mut cost = 0.0;
        let mut any = false;
        for (c, w) in weights.iter().enumerate() {
            let n = self.arrivals[c].max(self.served[c]);
            if n == 0 {
                continue;
            }
            let pending = self.arrivals[c].saturating_sub(self.served[c]);
            cost += w * (self.delay_sum[c] + pending as f64 * starved_delay) / n as f64;
            any = true;
        }
        any.then_some(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_seals_and_resets() {
        let mut w = FeedbackWindow::new(2);
        w.note_arrival(0);
        w.note_arrival(1);
        w.note_served(0, 4.0);
        assert_eq!(w.total_arrivals(), 2);
        let snap = w.take();
        assert_eq!(snap.arrivals, vec![1, 1]);
        assert_eq!(snap.served, vec![1, 0]);
        assert_eq!(snap.delay_sum, vec![4.0, 0.0]);
        assert_eq!(w.total_arrivals(), 0);
        let empty = w.take();
        assert_eq!(empty.total_arrivals(), 0);
        assert_eq!(empty.total_served(), 0);
    }

    #[test]
    fn cost_weights_mean_delays() {
        let mut w = FeedbackWindow::new(2);
        for _ in 0..2 {
            w.note_arrival(0);
        }
        w.note_arrival(1);
        w.note_served(0, 2.0);
        w.note_served(0, 4.0);
        w.note_served(1, 10.0);
        let snap = w.take();
        // fully served classes: the plain priority-weighted mean delays
        // class 0: mean 3.0 × weight 3 = 9; class 1: 10 × 1 = 10
        let cost = snap.prioritized_cost(&[3.0, 1.0], 100.0).unwrap();
        assert!((cost - 19.0).abs() < 1e-12);
        assert_eq!(snap.mean_delay(0), Some(3.0));
        assert_eq!(snap.underserved_class(0.0), None);
    }

    #[test]
    fn unserved_backlog_pays_the_pessimistic_delay() {
        let mut w = FeedbackWindow::new(3);
        w.note_arrival(0);
        w.note_served(0, 1.0);
        w.note_arrival(1); // demand, no service: fully starved
        let snap = w.take();
        assert_eq!(snap.underserved_class(0.0), Some(1));
        let cost = snap.prioritized_cost(&[1.0, 2.0, 5.0], 50.0).unwrap();
        // class 2 had no traffic: contributes nothing
        assert!((cost - (1.0 + 2.0 * 50.0)).abs() < 1e-12);

        // partial service: the unserved remainder is charged too (this is
        // what makes the controller immune to survivorship bias)
        let mut w = FeedbackWindow::new(1);
        for _ in 0..4 {
            w.note_arrival(0);
        }
        w.note_served(0, 2.0);
        let snap = w.take();
        // (2.0 + 3 pending × 50) / 4 arrivals = 38.0
        let cost = snap.prioritized_cost(&[1.0], 50.0).unwrap();
        assert!((cost - 38.0).abs() < 1e-12);
    }

    #[test]
    fn draining_backlog_is_not_rewarded() {
        // more served than arrived (a prior window's backlog drains):
        // normalize by served, not arrivals
        let mut w = FeedbackWindow::new(1);
        w.note_arrival(0);
        w.note_served(0, 10.0);
        w.note_served(0, 30.0);
        let snap = w.take();
        let cost = snap.prioritized_cost(&[1.0], 100.0).unwrap();
        assert!((cost - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_has_no_cost() {
        let mut w = FeedbackWindow::new(2);
        let snap = w.take();
        assert_eq!(snap.prioritized_cost(&[1.0, 1.0], 10.0), None);
        assert_eq!(snap.underserved_class(0.0), None);
    }
}
