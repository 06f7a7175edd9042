//! §4.1 — the birth–death model of the alternating push/pull server.
//!
//! States are `(i, j)`: `i` items in the pull system, `j = 0` while a push
//! item is on the air, `j = 1` while a pull item is on the air (Figure 2 of
//! the paper). Transitions:
//!
//! * arrival of a pull request: `(i, j) → (i+1, j)` at rate λ;
//! * push completion with work waiting: `(i, 0) → (i, 1)` at rate μ₁
//!   (`i ≥ 1`; with an empty pull queue the server starts the next push,
//!   which is a self-loop and drops out of the generator);
//! * pull completion: `(i, 1) → (i−1, 0)` at rate μ₂.
//!
//! The paper manipulates z-transforms to get the idle probability
//! `p(0,0) = 1 − ρ − ρ/f` (with `ρ = λ/μ₂`, `f = μ₁/μ₂`) and leaves
//! `E[L_pull]` in terms of an unevaluated boundary term 𝒩 (its Eq. 5).
//! [`BirthDeathModel`] therefore provides the closed-form idle probability
//! *and* a numerically exact stationary solution of the same chain
//! (truncated at a configurable population cap) from which `E[L_pull]` and
//! every occupancy probability follow without hand-waving.

use serde::{Deserialize, Serialize};

/// The §4.1 hybrid-server chain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BirthDeathModel {
    /// Pull-request arrival rate λ.
    pub lambda: f64,
    /// Push service rate μ₁.
    pub mu1: f64,
    /// Pull service rate μ₂.
    pub mu2: f64,
}

/// Stationary solution of the truncated chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BirthDeathSolution {
    /// `p(i, 0)` for `i = 0..=cap`: push-serving states.
    pub p_push: Vec<f64>,
    /// `p(i, 1)` for `i = 0..=cap` (`p(0,1)` is structurally 0).
    pub p_pull: Vec<f64>,
    /// Expected number of items in the pull system `E[L_pull]`.
    pub mean_pull_items: f64,
    /// Probability the server is in a pull-serving state.
    pub pull_occupancy: f64,
    /// `p(0, 0)` — probability of an empty pull system during push service.
    pub empty_probability: f64,
}

impl BirthDeathModel {
    /// # Panics
    /// Panics unless all three rates are positive and finite.
    pub fn new(lambda: f64, mu1: f64, mu2: f64) -> Self {
        for (name, v) in [("lambda", lambda), ("mu1", mu1), ("mu2", mu2)] {
            assert!(
                v > 0.0 && v.is_finite(),
                "{name} must be positive and finite (got {v})"
            );
        }
        BirthDeathModel { lambda, mu1, mu2 }
    }

    /// `ρ = λ/μ₂` — pull-service utilization.
    pub fn rho(&self) -> f64 {
        self.lambda / self.mu2
    }

    /// `f = μ₁/μ₂` — push/pull service-rate ratio.
    pub fn f(&self) -> f64 {
        self.mu1 / self.mu2
    }

    /// The paper's closed-form idle probability `p(0,0) = 1 − ρ − ρ/f`.
    pub fn idle_probability_closed_form(&self) -> f64 {
        1.0 - self.rho() - self.rho() / self.f()
    }

    /// Solves the truncated chain (population capped at `cap`) by damped
    /// Gauss–Seidel sweeps on the global-balance equations.
    ///
    /// # Panics
    /// Panics if `cap < 2`.
    pub fn solve(&self, cap: usize) -> BirthDeathSolution {
        assert!(cap >= 2, "population cap must be at least 2");
        let n = cap + 1;
        let (lam, mu1, mu2) = (self.lambda, self.mu1, self.mu2);

        // Unknowns: x[i] = p(i,0), y[i] = p(i,1) (y[0] unused ≡ 0).
        let mut x = vec![1.0 / (2.0 * n as f64); n];
        let mut y = vec![1.0 / (2.0 * n as f64); n];
        y[0] = 0.0;

        // Out-rates. Self-loops (push completion at i = 0, i.e.
        // (0,0) → (0,0)) are excluded from both sides.
        // (i,0): out = λ (arrival, i<cap) + μ1·[i ≥ 1] (push completes,
        //        hands over to pull)
        // (i,1): out = λ·[i<cap] + μ2
        // In-flows:
        // (i,0) ← (i-1,0) by arrival; ← (i+1,1) by pull completion
        // (i,1) ← (i-1,1) by arrival (i ≥ 2); ← (i,0) by push completion
        for _sweep in 0..20_000 {
            let mut max_delta: f64 = 0.0;
            for i in 0..n {
                // p(i, 0)
                let out0 = if i < cap { lam } else { 0.0 } + if i >= 1 { mu1 } else { 0.0 };
                let mut inflow0 = 0.0;
                if i >= 1 {
                    inflow0 += x[i - 1] * lam;
                }
                if i + 1 < n {
                    inflow0 += y[i + 1] * mu2;
                }
                if out0 > 0.0 {
                    let new = inflow0 / out0;
                    max_delta = max_delta.max((new - x[i]).abs());
                    x[i] = new;
                }
                // p(i, 1), i ≥ 1
                if i >= 1 {
                    let out1 = if i < cap { lam } else { 0.0 } + mu2;
                    let mut inflow1 = x[i] * mu1;
                    if i >= 2 {
                        inflow1 += y[i - 1] * lam;
                    }
                    let new = inflow1 / out1;
                    max_delta = max_delta.max((new - y[i]).abs());
                    y[i] = new;
                }
            }
            // Normalize to keep the iteration from drifting to zero.
            let total: f64 = x.iter().sum::<f64>() + y.iter().sum::<f64>();
            if total > 0.0 {
                for v in x.iter_mut().chain(y.iter_mut()) {
                    *v /= total;
                }
            }
            if max_delta < 1e-14 {
                break;
            }
        }

        let mean_pull_items: f64 = (0..n).map(|i| i as f64 * (x[i] + y[i])).sum();
        let pull_occupancy: f64 = y.iter().sum();
        BirthDeathSolution {
            empty_probability: x[0],
            mean_pull_items,
            pull_occupancy,
            p_push: x,
            p_pull: y,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solution_is_a_distribution() {
        let m = BirthDeathModel::new(0.2, 1.0, 0.8);
        let s = m.solve(400);
        let total: f64 = s.p_push.iter().sum::<f64>() + s.p_pull.iter().sum::<f64>();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(s.p_push.iter().all(|&p| p >= -1e-12));
        assert!(s.p_pull.iter().all(|&p| p >= -1e-12));
        assert_eq!(s.p_pull[0], 0.0, "pull-serving with 0 items is impossible");
    }

    #[test]
    fn numeric_idle_matches_closed_form_when_stable() {
        for (lam, mu1, mu2) in [(0.1, 1.0, 0.8), (0.2, 2.0, 1.0), (0.15, 0.9, 0.7)] {
            let m = BirthDeathModel::new(lam, mu1, mu2);
            assert!(
                m.idle_probability_closed_form() > 0.0,
                "test case must be stable"
            );
            let s = m.solve(600);
            let cf = m.idle_probability_closed_form();
            assert!(
                (s.empty_probability - cf).abs() < 0.02,
                "λ={lam}: numeric {:.4} vs closed-form {cf:.4}",
                s.empty_probability
            );
        }
    }

    #[test]
    fn pull_occupancy_approaches_rho() {
        // The paper: Σ p(i,1) = ρ.
        let m = BirthDeathModel::new(0.2, 1.0, 0.8);
        let s = m.solve(600);
        assert!(
            (s.pull_occupancy - m.rho()).abs() < 0.02,
            "occupancy {} vs ρ {}",
            s.pull_occupancy,
            m.rho()
        );
    }

    #[test]
    fn queue_grows_with_load() {
        let lo = BirthDeathModel::new(0.1, 1.0, 1.0).solve(400);
        let hi = BirthDeathModel::new(0.4, 1.0, 1.0).solve(400);
        assert!(hi.mean_pull_items > lo.mean_pull_items);
    }

    #[test]
    fn faster_push_leaves_less_backlog() {
        // Bigger μ1 means the server returns to the pull queue sooner.
        let slow = BirthDeathModel::new(0.3, 0.5, 1.0).solve(400);
        let fast = BirthDeathModel::new(0.3, 5.0, 1.0).solve(400);
        assert!(fast.mean_pull_items < slow.mean_pull_items);
    }

    #[test]
    fn saturated_system_has_tiny_idle_probability() {
        // ρ(1+1/f) ≥ 1 → not stable; truncated chain piles up at the cap.
        let m = BirthDeathModel::new(0.9, 1.0, 1.0);
        assert!(m.idle_probability_closed_form() <= 0.0);
        let s = m.solve(300);
        assert!(s.empty_probability < 0.01);
        assert!(s.mean_pull_items > 100.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = BirthDeathModel::new(0.0, 1.0, 1.0);
    }
}
