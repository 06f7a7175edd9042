//! Probability distributions used by the workload and service models.
//!
//! The paper's workload is driven by three laws:
//!
//! * **Zipf** over items: `P_i = (1/i)^θ / Σ_j (1/j)^θ` with skew θ
//!   (θ = 0 ⇒ uniform; larger θ ⇒ more skew toward low-index items);
//! * **Poisson** arrivals with aggregate rate λ′ (equivalently exponential
//!   inter-arrival gaps);
//! * **Poisson**-distributed per-transmission bandwidth demand.
//!
//! [`Zipf`] and general [`Discrete`] sampling use Walker's alias method:
//! O(n) construction, O(1) sampling — the simulator samples millions of item
//! choices per experiment, so constant-time draws matter.

use rand::Rng;
use rand_distr::Distribution;
use serde::{Deserialize, Serialize};

/// Walker alias table over `n` outcomes: O(1) weighted sampling.
#[derive(Debug, Clone)]
pub(crate) struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds a table from non-negative `weights` (need not be normalized).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative/NaN entry, or sums
    /// to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weights must sum to a positive finite value (got {total})"
        );
        for (i, &w) in weights.iter().enumerate() {
            assert!(w >= 0.0 && w.is_finite(), "weight[{i}] = {w} is invalid");
        }
        let n = weights.len();
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        // Scaled probabilities: mean 1.
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = *large.last().expect("checked non-empty");
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers are ≈ 1 up to rounding.
        for l in large {
            prob[l as usize] = 1.0;
        }
        for s in small {
            prob[s as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Draws an outcome index in `0..len()`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let n = self.prob.len();
        let i = rng.gen_range(0..n);
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// The Zipf law over `1..=n` used for item popularity and the client-class
/// population split: `P_i ∝ (1/i)^θ`.
///
/// Outcomes are **zero-indexed** (`sample` returns `0..n`, where outcome 0 is
/// the most popular rank).
#[derive(Debug, Clone)]
pub struct Zipf {
    theta: f64,
    probs: Vec<f64>,
    alias: AliasTable,
}

impl Zipf {
    /// Builds a Zipf distribution over `n` ranks with skew `theta ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is negative/NaN.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one outcome");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "Zipf skew must be a finite non-negative number (got {theta})"
        );
        let mut probs: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-theta)).collect();
        let norm: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= norm;
        }
        let alias = AliasTable::new(&probs);
        Zipf {
            theta,
            probs,
            alias,
        }
    }

    /// The skew coefficient θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` if the distribution has no outcomes (unreachable).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability of rank `i` (zero-indexed).
    pub fn pmf(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// All probabilities, most popular first. Sums to 1.
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Total probability mass of ranks `range` (zero-indexed, half-open).
    pub fn mass(&self, range: std::ops::Range<usize>) -> f64 {
        self.probs[range].iter().sum()
    }

    /// Draws a rank in `0..n`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.alias.sample(rng)
    }
}

/// A general finite discrete distribution with O(1) sampling.
#[derive(Debug, Clone)]
pub struct Discrete {
    probs: Vec<f64>,
    alias: AliasTable,
}

impl Discrete {
    /// Builds from non-negative weights (normalized internally).
    pub fn new(weights: &[f64]) -> Self {
        let alias = AliasTable::new(weights);
        let total: f64 = weights.iter().sum();
        let probs = weights.iter().map(|&w| w / total).collect();
        Discrete { probs, alias }
    }

    /// Probability of outcome `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` if there are no outcomes (unreachable by construction).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Draws an outcome index.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.alias.sample(rng)
    }
}

/// Exponential law with rate `rate` (mean `1/rate`): inter-arrival gaps of a
/// Poisson process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// # Panics
    /// Panics unless `rate` is positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "exponential rate must be positive and finite (got {rate})"
        );
        Exponential { rate }
    }

    /// The rate parameter λ.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The mean `1/λ`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Draws via inverse CDF. Never returns exactly 0 or ∞.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // gen::<f64>() ∈ [0,1); use 1-u ∈ (0,1] so ln() is finite.
        let u: f64 = rng.gen();
        -(1.0 - u).ln() / self.rate
    }
}

/// Poisson counting law with the given mean, used for per-transmission
/// bandwidth demand (§3 of the paper). Thin wrapper over `rand_distr`.
#[derive(Debug, Clone, Copy)]
pub struct PoissonCount {
    mean: f64,
    inner: rand_distr::Poisson<f64>,
}

impl PoissonCount {
    /// # Panics
    /// Panics unless `mean` is positive and finite.
    pub fn new(mean: f64) -> Self {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "Poisson mean must be positive and finite (got {mean})"
        );
        PoissonCount {
            mean,
            inner: rand_distr::Poisson::new(mean).expect("validated above"),
        }
    }

    /// The mean (= variance) of the law.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws a count.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.inner.sample(rng) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn chi2_ok(observed: &[u64], expected: &[f64], n: u64) -> bool {
        // Very loose χ² bound: statistic under k-1 dof should be ≲ 3k for
        // the sample sizes used here. This is a sanity check, not a formal
        // hypothesis test.
        let k = observed.len();
        let stat: f64 = observed
            .iter()
            .zip(expected)
            .map(|(&o, &p)| {
                let e = p * n as f64;
                if e < 1e-9 {
                    0.0
                } else {
                    (o as f64 - e).powi(2) / e
                }
            })
            .sum();
        stat < 3.0 * k as f64
    }

    #[test]
    fn alias_uniform_weights() {
        let t = AliasTable::new(&[1.0; 10]);
        let mut rng = Xoshiro256::new(1);
        let mut counts = [0u64; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        assert!(chi2_ok(&counts, &[0.1; 10], n));
    }

    #[test]
    fn alias_skewed_weights() {
        let w = [8.0, 4.0, 2.0, 1.0, 1.0];
        let t = AliasTable::new(&w);
        let total: f64 = w.iter().sum();
        let exp: Vec<f64> = w.iter().map(|&x| x / total).collect();
        let mut rng = Xoshiro256::new(2);
        let mut counts = [0u64; 5];
        let n = 200_000;
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        assert!(chi2_ok(&counts, &exp, n));
    }

    #[test]
    fn alias_zero_weight_never_sampled() {
        let t = AliasTable::new(&[1.0, 0.0, 1.0]);
        let mut rng = Xoshiro256::new(3);
        for _ in 0..50_000 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn alias_rejects_empty() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn alias_rejects_all_zero() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn zipf_zero_theta_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for i in 0..4 {
            assert!((z.pmf(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_probabilities_sum_to_one_and_decrease() {
        for &theta in &[0.2, 0.6, 1.0, 1.4] {
            let z = Zipf::new(100, theta);
            let sum: f64 = z.probabilities().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "theta={theta}: sum={sum}");
            for i in 1..100 {
                assert!(
                    z.pmf(i - 1) >= z.pmf(i),
                    "theta={theta}: pmf not non-increasing at {i}"
                );
            }
        }
    }

    #[test]
    fn zipf_exact_values_match_formula() {
        let z = Zipf::new(3, 1.0);
        // weights 1, 1/2, 1/3 → norm 11/6
        let norm = 1.0 + 0.5 + 1.0 / 3.0;
        assert!((z.pmf(0) - 1.0 / norm).abs() < 1e-12);
        assert!((z.pmf(1) - 0.5 / norm).abs() < 1e-12);
        assert!((z.pmf(2) - (1.0 / 3.0) / norm).abs() < 1e-12);
    }

    #[test]
    fn zipf_sampling_matches_pmf() {
        let z = Zipf::new(20, 1.0);
        let mut rng = Xoshiro256::new(4);
        let mut counts = vec![0u64; 20];
        let n = 300_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(chi2_ok(&counts, z.probabilities(), n));
    }

    #[test]
    fn zipf_mass_over_ranges() {
        let z = Zipf::new(10, 0.8);
        let total = z.mass(0..10);
        assert!((total - 1.0).abs() < 1e-9);
        let head = z.mass(0..3);
        let tail = z.mass(3..10);
        assert!((head + tail - 1.0).abs() < 1e-9);
        assert!(head > 0.3); // the head carries the bulk under skew
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let e = Exponential::new(5.0);
        assert!((e.mean() - 0.2).abs() < 1e-12);
        let mut rng = Xoshiro256::new(5);
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = e.sample(&mut rng);
            assert!(x > 0.0 && x.is_finite());
            sum += x;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 0.2).abs() < 0.005,
            "sample mean {mean} too far from 0.2"
        );
    }

    #[test]
    fn poisson_count_mean_and_variance() {
        let p = PoissonCount::new(3.0);
        let mut rng = Xoshiro256::new(6);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = p.sample(&mut rng) as f64;
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 3.0).abs() < 0.15, "var {var}");
    }

    #[test]
    #[should_panic(expected = "skew")]
    fn zipf_rejects_negative_theta() {
        let _ = Zipf::new(5, -0.1);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }
}
