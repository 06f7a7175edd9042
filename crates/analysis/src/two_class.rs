//! §4.2.1 — the two-class non-preemptive priority queue, solved exactly.
//!
//! The paper attacks this chain with two-dimensional z-transforms and
//! reaches a closed form (its Eq. 13) that still contains the unevaluated
//! boundary generating function `P₀,₂(z)` — the per-class means are then
//! obtained "by differentiation" without that function ever being pinned
//! down, and §4.2.2 immediately falls back to Cobham's formula. We instead
//! solve the *same* Markov chain numerically: truncate the state space,
//! run damped Gauss–Seidel on the global-balance equations, and read off
//! `L₁`, `L₂` and (via Little's law) `E[W₁]`, `E[W₂]`. The unit tests close
//! the loop the paper leaves open by checking the numeric solution against
//! Cobham's closed form.
//!
//! State `(m, n, r)`: `m` class-1 (premium) items in system, `n` class-2
//! items, `r ∈ {1, 2}` the class in service (`r` is meaningful only when
//! the system is non-empty; service is non-preemptive, so `r` can be 2
//! while `m > 0`).

use serde::{Deserialize, Serialize};

/// The two-class chain with common exponential service.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoClassQueue {
    /// Premium-class arrival rate λ₁.
    pub lambda1: f64,
    /// Junior-class arrival rate λ₂.
    pub lambda2: f64,
    /// Common service rate μ₂ (the paper's pull service rate).
    pub mu: f64,
}

/// Numeric stationary solution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoClassSolution {
    /// Mean number of class-1 items in system `L₁`.
    pub l1: f64,
    /// Mean number of class-2 items in system `L₂`.
    pub l2: f64,
    /// Mean class-1 sojourn time `E[W₁] = L₁/λ₁`.
    pub w1: f64,
    /// Mean class-2 sojourn time `E[W₂] = L₂/λ₂`.
    pub w2: f64,
    /// Probability of the empty system.
    pub p_empty: f64,
}

impl TwoClassQueue {
    /// # Panics
    /// Panics unless all rates are positive and finite.
    pub fn new(lambda1: f64, lambda2: f64, mu: f64) -> Self {
        for (name, v) in [("lambda1", lambda1), ("lambda2", lambda2), ("mu", mu)] {
            assert!(
                v > 0.0 && v.is_finite(),
                "{name} must be positive and finite (got {v})"
            );
        }
        TwoClassQueue {
            lambda1,
            lambda2,
            mu,
        }
    }

    /// Total utilization `ρ = (λ₁ + λ₂)/μ`.
    pub fn rho(&self) -> f64 {
        (self.lambda1 + self.lambda2) / self.mu
    }

    /// Solves the chain truncated at `cap` items *per class*.
    ///
    /// # Panics
    /// Panics if `cap < 2`.
    pub fn solve(&self, cap: usize) -> TwoClassSolution {
        assert!(cap >= 2, "per-class cap must be at least 2");
        let n = cap + 1;
        let (l1, l2, mu) = (self.lambda1, self.lambda2, self.mu);

        // π[r][m][n]; r = 0 → class 1 in service, r = 1 → class 2.
        // The empty state is tracked separately.
        let idx = |m: usize, nn: usize| m * n + nn;
        let mut pi = vec![vec![0.0f64; n * n]; 2];
        let mut p_empty = 0.5;
        // Uniform-ish start over reachable states.
        for m in 0..n {
            for nn in 0..n {
                if m >= 1 {
                    pi[0][idx(m, nn)] = 1e-3;
                }
                if nn >= 1 {
                    pi[1][idx(m, nn)] = 1e-3;
                }
            }
        }

        // Gauss–Seidel on balance: out-rate·π(s) = Σ inflows.
        for _sweep in 0..30_000 {
            let mut max_delta: f64 = 0.0;

            // Empty state: out = λ1 + λ2; in = μ·(π[0][1,0] + π[1][0,1]).
            {
                let inflow = mu * (pi[0][idx(1, 0)] + pi[1][idx(0, 1)]);
                let new = inflow / (l1 + l2);
                max_delta = max_delta.max((new - p_empty).abs());
                p_empty = new;
            }

            for m in 0..n {
                for nn in 0..n {
                    // ---- r = 1 (class 1 in service): requires m ≥ 1 ----
                    if m >= 1 {
                        let arr1 = if m < cap { l1 } else { 0.0 };
                        let arr2 = if nn < cap { l2 } else { 0.0 };
                        let out = arr1 + arr2 + mu;
                        let mut inflow = 0.0;
                        // arrivals into (m,n,1)
                        if m >= 2 {
                            inflow += l1 * pi[0][idx(m - 1, nn)];
                        }
                        if nn >= 1 {
                            inflow += l2 * pi[0][idx(m, nn - 1)];
                        }
                        // from empty by a class-1 arrival
                        if m == 1 && nn == 0 {
                            inflow += l1 * p_empty;
                        }
                        // completions that start a class-1 service: the
                        // departing state must leave m ≥ 1 behind.
                        // class-1 completes in (m+1, n, 1) → (m, n, 1)
                        if m + 1 < n {
                            inflow += mu * pi[0][idx(m + 1, nn)];
                        }
                        // class-2 completes in (m, n+1, 2) → m ≥ 1 so next
                        // is class 1 → (m, n, 1)
                        if nn + 1 < n {
                            inflow += mu * pi[1][idx(m, nn + 1)];
                        }
                        let new = inflow / out;
                        max_delta = max_delta.max((new - pi[0][idx(m, nn)]).abs());
                        pi[0][idx(m, nn)] = new;
                    }

                    // ---- r = 2 (class 2 in service): requires n ≥ 1 ----
                    if nn >= 1 {
                        let arr1 = if m < cap { l1 } else { 0.0 };
                        let arr2 = if nn < cap { l2 } else { 0.0 };
                        let out = arr1 + arr2 + mu;
                        let mut inflow = 0.0;
                        if m >= 1 {
                            inflow += l1 * pi[1][idx(m - 1, nn)];
                        }
                        if nn >= 2 {
                            inflow += l2 * pi[1][idx(m, nn - 1)];
                        }
                        if m == 0 && nn == 1 {
                            inflow += l2 * p_empty;
                        }
                        // a completion starts class-2 service only when no
                        // class-1 items remain (m = 0):
                        if m == 0 {
                            // class-1 completes in (1, n, 1) → (0, n, 2)
                            // (needs n ≥ 1, which holds here)
                            inflow += mu * pi[0][idx(1, nn)];
                            // class-2 completes in (0, n+1, 2) → (0, n, 2)
                            if nn + 1 < n {
                                inflow += mu * pi[1][idx(0, nn + 1)];
                            }
                        }
                        let new = inflow / out;
                        max_delta = max_delta.max((new - pi[1][idx(m, nn)]).abs());
                        pi[1][idx(m, nn)] = new;
                    }
                }
            }

            // Normalize.
            let total: f64 = p_empty + pi[0].iter().sum::<f64>() + pi[1].iter().sum::<f64>();
            if total > 0.0 {
                p_empty /= total;
                for r in &mut pi {
                    for v in r.iter_mut() {
                        *v /= total;
                    }
                }
            }
            if max_delta < 1e-13 {
                break;
            }
        }

        let mut l1_mean = 0.0;
        let mut l2_mean = 0.0;
        for m in 0..n {
            for nn in 0..n {
                let p = pi[0][idx(m, nn)] + pi[1][idx(m, nn)];
                l1_mean += m as f64 * p;
                l2_mean += nn as f64 * p;
            }
        }
        TwoClassSolution {
            l1: l1_mean,
            l2: l2_mean,
            w1: l1_mean / self.lambda1,
            w2: l2_mean / self.lambda2,
            p_empty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cobham::CobhamQueue;

    #[test]
    fn distribution_and_empty_probability() {
        let q = TwoClassQueue::new(0.2, 0.2, 1.0);
        let s = q.solve(40);
        // For a work-conserving single server, P(empty) = 1 − ρ.
        assert!(
            (s.p_empty - (1.0 - q.rho())).abs() < 1e-3,
            "p_empty {} vs 1−ρ {}",
            s.p_empty,
            1.0 - q.rho()
        );
    }

    #[test]
    fn premium_class_waits_less() {
        let q = TwoClassQueue::new(0.25, 0.25, 1.0);
        let s = q.solve(40);
        assert!(s.w1 < s.w2, "w1 {} vs w2 {}", s.w1, s.w2);
    }

    #[test]
    fn matches_cobham_closed_form() {
        for (l1, l2) in [(0.2, 0.2), (0.1, 0.4), (0.3, 0.15)] {
            let q = TwoClassQueue::new(l1, l2, 1.0);
            let s = q.solve(60);
            let cob = CobhamQueue::with_common_service(&[l1, l2], 1.0);
            let w1 = cob.class_sojourn(0).unwrap();
            let w2 = cob.class_sojourn(1).unwrap();
            assert!(
                (s.w1 - w1).abs() / w1 < 0.02,
                "λ=({l1},{l2}): numeric W1 {} vs Cobham {}",
                s.w1,
                w1
            );
            assert!(
                (s.w2 - w2).abs() / w2 < 0.02,
                "λ=({l1},{l2}): numeric W2 {} vs Cobham {}",
                s.w2,
                w2
            );
        }
    }

    #[test]
    fn littles_law_consistency() {
        let q = TwoClassQueue::new(0.2, 0.3, 1.0);
        let s = q.solve(50);
        assert!((s.l1 - q.lambda1 * s.w1).abs() < 1e-12);
        assert!((s.l2 - q.lambda2 * s.w2).abs() < 1e-12);
    }

    #[test]
    fn symmetric_load_heavier_junior_wait() {
        // With equal rates the junior class still waits strictly longer;
        // the gap widens as load grows.
        let light = TwoClassQueue::new(0.1, 0.1, 1.0).solve(40);
        let heavy = TwoClassQueue::new(0.35, 0.35, 1.0).solve(60);
        let gap_light = light.w2 / light.w1;
        let gap_heavy = heavy.w2 / heavy.w1;
        assert!(gap_heavy > gap_light);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_rates_rejected() {
        let _ = TwoClassQueue::new(0.0, 0.1, 1.0);
    }
}
