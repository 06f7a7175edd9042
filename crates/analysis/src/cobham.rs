//! §4.2.2 — Cobham's formula for the non-preemptive multi-class priority
//! queue.
//!
//! Class `1` has the highest priority; a data item of class `j` arrives at
//! rate `λ_j` and is served at rate `μ_j`. With `ρ_j = λ_j/μ_j` and
//! `σ_i = Σ_{j≤i} ρ_j`, the paper derives (its Eqs. 15–18):
//!
//! ```text
//! E[S₀]        = Σ_j ρ_j / μ_j                      (mean residual work)
//! E[W_q^{(i)}] = E[S₀] / ((1 − σ_{i−1})(1 − σ_i))   (class-i queueing wait)
//! E[W_q]       = Σ_i λ_i·E[W_q^{(i)}] / λ           (aggregate wait)
//! ```
//!
//! Indexing here is zero-based: class 0 is the paper's class 1.

use serde::{Deserialize, Serialize};

/// One priority class of the queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct PriorityClass {
    /// Arrival rate λ_j.
    pub lambda: f64,
    /// Service rate μ_j.
    pub mu: f64,
}

/// The non-preemptive priority M/M/1 with per-class rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CobhamQueue {
    classes: Vec<PriorityClass>,
}

impl CobhamQueue {
    /// Builds the queue; `classes[0]` is the highest priority.
    ///
    /// # Panics
    /// Panics if `classes` is empty or any rate is non-positive.
    pub(crate) fn new(classes: Vec<PriorityClass>) -> Self {
        assert!(!classes.is_empty(), "need at least one class");
        for (i, c) in classes.iter().enumerate() {
            assert!(
                c.lambda > 0.0 && c.lambda.is_finite(),
                "class {i} lambda invalid: {}",
                c.lambda
            );
            assert!(
                c.mu > 0.0 && c.mu.is_finite(),
                "class {i} mu invalid: {}",
                c.mu
            );
        }
        CobhamQueue { classes }
    }

    /// Convenience: all classes share one service rate `mu` (the paper's
    /// §4.2.1 two-class setting generalized).
    pub fn with_common_service(lambdas: &[f64], mu: f64) -> Self {
        Self::new(
            lambdas
                .iter()
                .map(|&lambda| PriorityClass { lambda, mu })
                .collect(),
        )
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Per-class utilization `ρ_j`.
    pub fn rho(&self, j: usize) -> f64 {
        self.classes[j].lambda / self.classes[j].mu
    }

    /// Cumulative utilization `σ_i = Σ_{j≤i} ρ_j` (zero-based, inclusive).
    /// `sigma(None)` ≡ `σ_0 = 0` in the paper's notation.
    fn sigma_through(&self, i: usize) -> f64 {
        (0..=i).map(|j| self.rho(j)).sum()
    }

    /// Mean residual service `E[S₀] = Σ_j ρ_j/μ_j` (paper Eq. 15).
    pub(crate) fn mean_residual(&self) -> f64 {
        self.classes.iter().map(|c| (c.lambda / c.mu) / c.mu).sum()
    }

    /// Queueing wait of class `i` (zero-based), paper Eq. 18.
    /// `None` when class `i` is saturated (`σ_i ≥ 1`).
    pub(crate) fn class_wait(&self, i: usize) -> Option<f64> {
        let sigma_prev = if i == 0 {
            0.0
        } else {
            self.sigma_through(i - 1)
        };
        let sigma_i = self.sigma_through(i);
        if sigma_i >= 1.0 || sigma_prev >= 1.0 {
            return None;
        }
        Some(self.mean_residual() / ((1.0 - sigma_prev) * (1.0 - sigma_i)))
    }

    /// Queueing waits of all classes; `None` entries are saturated classes.
    pub fn waits(&self) -> Vec<Option<f64>> {
        (0..self.classes.len())
            .map(|i| self.class_wait(i))
            .collect()
    }

    /// Aggregate queueing wait `Σ λ_i W_i / λ` (paper Eq. 18, second line).
    /// `None` if any class is saturated.
    pub fn aggregate_wait(&self) -> Option<f64> {
        let total_lambda: f64 = self.classes.iter().map(|c| c.lambda).sum();
        let mut acc = 0.0;
        for (i, c) in self.classes.iter().enumerate() {
            acc += c.lambda * self.class_wait(i)?;
        }
        Some(acc / total_lambda)
    }

    /// Sojourn (wait + service) time of class `i`.
    pub fn class_sojourn(&self, i: usize) -> Option<f64> {
        Some(self.class_wait(i)? + 1.0 / self.classes[i].mu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_class_reduces_to_mm1() {
        let q = CobhamQueue::with_common_service(&[0.5], 1.0);
        // M/M/1 Wq = ρ/(μ−λ) = 0.5/0.5 = 1.0
        let w = q.class_wait(0).unwrap();
        assert!((w - 1.0).abs() < 1e-12);
        assert_eq!(q.aggregate_wait(), Some(w));
    }

    #[test]
    fn higher_priority_waits_less() {
        let q = CobhamQueue::with_common_service(&[0.2, 0.2, 0.2], 1.0);
        let w: Vec<f64> = q.waits().into_iter().map(Option::unwrap).collect();
        assert!(w[0] < w[1] && w[1] < w[2], "waits {w:?}");
    }

    #[test]
    fn hand_computed_two_class_example() {
        // λ1 = λ2 = 0.25, μ = 1 → ρ1 = ρ2 = 0.25, E[S0] = 0.5
        // W1 = 0.5 / (1·0.75)     = 2/3
        // W2 = 0.5 / (0.75·0.5)   = 4/3
        let q = CobhamQueue::with_common_service(&[0.25, 0.25], 1.0);
        assert!((q.class_wait(0).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.class_wait(1).unwrap() - 4.0 / 3.0).abs() < 1e-12);
        // aggregate = (0.25·2/3 + 0.25·4/3)/0.5 = 1
        assert!((q.aggregate_wait().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conservation_law_holds() {
        // Kleinrock's conservation law: Σ ρ_i·W_i is invariant under any
        // non-preemptive work-conserving discipline and equals
        // ρ·E[S₀]/(1−ρ) for common exponential service.
        let lambdas = [0.15, 0.25, 0.1];
        let mu = 1.0;
        let q = CobhamQueue::with_common_service(&lambdas, mu);
        let lhs: f64 = (0..3).map(|i| q.rho(i) * q.class_wait(i).unwrap()).sum();
        let rho: f64 = (0..3).map(|i| q.rho(i)).sum();
        let rhs = rho * q.mean_residual() / (1.0 - rho);
        assert!((lhs - rhs).abs() < 1e-12, "{lhs} vs {rhs}");

        // ... and is unchanged when priorities are re-ordered.
        let q2 = CobhamQueue::with_common_service(&[0.1, 0.15, 0.25], mu);
        let lhs2: f64 = (0..3).map(|i| q2.rho(i) * q2.class_wait(i).unwrap()).sum();
        assert!((lhs - lhs2).abs() < 1e-12);
    }

    #[test]
    fn premium_class_is_shielded_from_junior_load() {
        // Increasing the lowest class's load barely moves class 0 (only via
        // the residual term), but blows up the lowest class's own wait.
        let light = CobhamQueue::with_common_service(&[0.2, 0.2, 0.1], 1.0);
        let heavy = CobhamQueue::with_common_service(&[0.2, 0.2, 0.55], 1.0);
        let w0_light = light.class_wait(0).unwrap();
        let w0_heavy = heavy.class_wait(0).unwrap();
        let w2_light = light.class_wait(2).unwrap();
        let w2_heavy = heavy.class_wait(2).unwrap();
        assert!(w0_heavy / w0_light < 2.5);
        assert!(w2_heavy / w2_light > 5.0);
    }

    #[test]
    fn saturated_class_yields_none() {
        let q = CobhamQueue::with_common_service(&[0.4, 0.7], 1.0);
        assert!(q.class_wait(0).is_some(), "premium class still stable");
        assert_eq!(q.class_wait(1), None, "σ₂ = 1.1 ≥ 1");
        assert_eq!(q.aggregate_wait(), None);
    }

    #[test]
    fn heterogeneous_service_rates() {
        let q = CobhamQueue::new(vec![
            PriorityClass {
                lambda: 0.2,
                mu: 2.0,
            },
            PriorityClass {
                lambda: 0.2,
                mu: 0.5,
            },
        ]);
        // E[S0] = 0.1/2 + 0.4/0.5 = 0.05 + 0.8 = 0.85
        assert!((q.mean_residual() - 0.85).abs() < 1e-12);
        // σ1 = 0.1, σ2 = 0.5
        let w1 = q.class_wait(0).unwrap();
        let w2 = q.class_wait(1).unwrap();
        assert!((w1 - 0.85 / 0.9).abs() < 1e-12);
        assert!((w2 - 0.85 / (0.9 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn sojourn_adds_service_time() {
        let q = CobhamQueue::with_common_service(&[0.25, 0.25], 2.0);
        let w = q.class_wait(0).unwrap();
        assert!((q.class_sojourn(0).unwrap() - (w + 0.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_classes_rejected() {
        let _ = CobhamQueue::new(vec![]);
    }
}
