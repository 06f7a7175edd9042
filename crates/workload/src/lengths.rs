//! Item-length models.
//!
//! The paper's items are *heterogeneous*: "the length of the data items are
//! varied from 1 to 5, with an average of 2" (§5.1, assumption 3). A uniform
//! law on `1..=5` has mean 3, so the authors must have used a skewed law;
//! [`LengthModel::MeanTargeted`] reproduces the stated moments exactly with
//! a truncated-geometric weighting whose ratio is solved by bisection.

use rand::Rng;
use serde::{Deserialize, Serialize};

use hybridcast_sim::dist::Discrete;
use hybridcast_sim::ensure;

/// How the integer lengths of catalog items are drawn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum LengthModel {
    /// Every item has the same length (homogeneous special case).
    Fixed {
        /// The common length.
        length: u32,
    },
    /// Uniform over `min..=max`.
    Uniform {
        /// Smallest length, ≥ 1.
        min: u32,
        /// Largest length, ≥ min.
        max: u32,
    },
    /// Truncated-geometric over `min..=max` with the requested mean — the
    /// paper's "1 to 5, average 2".
    MeanTargeted {
        /// Smallest length, ≥ 1.
        min: u32,
        /// Largest length, ≥ min.
        max: u32,
        /// Target mean, strictly inside `(min, max)` (or equal for the
        /// degenerate single-point case).
        mean: f64,
    },
    /// Explicit per-item lengths.
    Custom {
        /// One length per item, all ≥ 1.
        lengths: Vec<u32>,
    },
}

impl LengthModel {
    /// The paper's §5.1 default: lengths in `1..=5` with mean 2.
    pub fn paper_default() -> Self {
        LengthModel::MeanTargeted {
            min: 1,
            max: 5,
            mean: 2.0,
        }
    }

    /// Whether this model can draw lengths for `d` items: everything
    /// [`generate`](Self::generate) requires, as a typed error.
    pub fn validate(&self, d: usize) -> Result<(), String> {
        ensure(d > 0, "catalog must contain at least one item")?;
        match self {
            LengthModel::Fixed { length } => ensure(*length >= 1, "length must be at least 1"),
            LengthModel::Uniform { min, max } => Self::validate_range(*min, *max),
            LengthModel::MeanTargeted { min, max, mean } => {
                Self::validate_mean_targeted(*min, *max, *mean)
            }
            LengthModel::Custom { lengths } => {
                ensure(
                    lengths.len() == d,
                    format_args!(
                        "custom lengths need exactly {d} entries (got {})",
                        lengths.len()
                    ),
                )?;
                ensure(lengths.iter().all(|&l| l >= 1), "lengths must be ≥ 1")
            }
        }
    }

    /// Draws lengths for `d` items.
    ///
    /// # Panics
    /// Panics with [`validate`](Self::validate)'s message on invalid
    /// parameters (see variant docs) or, for `Custom`, a length-vector
    /// size mismatch.
    pub fn generate<R: Rng + ?Sized>(&self, d: usize, rng: &mut R) -> Vec<u32> {
        self.validate(d).unwrap_or_else(|e| panic!("{e}"));
        match self {
            LengthModel::Fixed { length } => vec![*length; d],
            LengthModel::Uniform { min, max } => {
                (0..d).map(|_| rng.gen_range(*min..=*max)).collect()
            }
            LengthModel::MeanTargeted { min, max, mean } => {
                let weights = Self::mean_targeted_weights(*min, *max, *mean);
                let dist = Discrete::new(&weights);
                (0..d).map(|_| min + dist.sample(rng) as u32).collect()
            }
            LengthModel::Custom { lengths } => lengths.clone(),
        }
    }

    fn validate_range(min: u32, max: u32) -> Result<(), String> {
        ensure(
            min >= 1,
            format_args!("minimum length must be at least 1 (got {min})"),
        )?;
        ensure(
            max >= min,
            format_args!("length range needs max ≥ min (got {min}..={max})"),
        )
    }

    fn validate_mean_targeted(min: u32, max: u32, mean: f64) -> Result<(), String> {
        Self::validate_range(min, max)?;
        ensure(
            mean >= min as f64 && mean <= max as f64,
            format_args!("target mean {mean} outside [{min}, {max}]"),
        )
    }

    /// Weights `w_k ∝ r^(k-min)` over `k ∈ min..=max` with the geometric
    /// ratio `r` solved by bisection so the weighted mean equals `mean`.
    ///
    /// Exposed for tests and for the analytical models, which need the exact
    /// length pmf rather than samples.
    pub fn mean_targeted_weights(min: u32, max: u32, mean: f64) -> Vec<f64> {
        Self::validate_mean_targeted(min, max, mean).unwrap_or_else(|e| panic!("{e}"));
        let lo = min as f64;
        let hi = max as f64;
        let n = (max - min + 1) as usize;
        if n == 1 {
            return vec![1.0];
        }
        let mean_for = |r: f64| -> f64 {
            let mut wsum = 0.0;
            let mut msum = 0.0;
            let mut w = 1.0;
            for k in 0..n {
                wsum += w;
                msum += w * (lo + k as f64);
                w *= r;
            }
            msum / wsum
        };
        // mean_for is increasing in r: r→0 gives `lo`, r→∞ gives `hi`.
        let (mut a, mut b) = (1e-9f64, 1e9f64);
        if (mean - lo).abs() < 1e-12 {
            // Degenerate: all mass on `min`.
            let mut w = vec![0.0; n];
            w[0] = 1.0;
            return w;
        }
        if (mean - hi).abs() < 1e-12 {
            let mut w = vec![0.0; n];
            w[n - 1] = 1.0;
            return w;
        }
        for _ in 0..200 {
            let mid = (a + b) / 2.0;
            if mean_for(mid) < mean {
                a = mid;
            } else {
                b = mid;
            }
        }
        let r = (a + b) / 2.0;
        let mut w = Vec::with_capacity(n);
        let mut cur = 1.0;
        for _ in 0..n {
            w.push(cur);
            cur *= r;
        }
        let total: f64 = w.iter().sum();
        for x in &mut w {
            *x /= total;
        }
        w
    }

    /// The pmf over lengths `min..=max` (index 0 ↦ `min`), exact where the
    /// model admits one. `Custom` returns its empirical pmf over the
    /// observed support `min..=max`.
    pub fn pmf(&self) -> (u32, Vec<f64>) {
        match self {
            LengthModel::Fixed { length } => (*length, vec![1.0]),
            LengthModel::Uniform { min, max } => {
                let n = (max - min + 1) as usize;
                (*min, vec![1.0 / n as f64; n])
            }
            LengthModel::MeanTargeted { min, max, mean } => {
                (*min, Self::mean_targeted_weights(*min, *max, *mean))
            }
            LengthModel::Custom { lengths } => {
                let min = *lengths.iter().min().expect("validated non-empty");
                let max = *lengths.iter().max().expect("validated non-empty");
                let mut pmf = vec![0.0; (max - min + 1) as usize];
                for &l in lengths {
                    pmf[(l - min) as usize] += 1.0;
                }
                for p in &mut pmf {
                    *p /= lengths.len() as f64;
                }
                (min, pmf)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_sim::rng::Xoshiro256;

    #[test]
    fn paper_default_hits_mean_two() {
        let w = LengthModel::mean_targeted_weights(1, 5, 2.0);
        assert_eq!(w.len(), 5);
        let mean: f64 = w
            .iter()
            .enumerate()
            .map(|(k, &p)| p * (k as f64 + 1.0))
            .sum();
        assert!((mean - 2.0).abs() < 1e-9, "solved mean {mean}");
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // geometric with r < 1: strictly decreasing weights
        for k in 1..5 {
            assert!(w[k] < w[k - 1]);
        }
    }

    #[test]
    fn mean_targeted_midpoint_is_uniform() {
        let w = LengthModel::mean_targeted_weights(1, 5, 3.0);
        for &p in &w {
            assert!((p - 0.2).abs() < 1e-6, "weights {w:?}");
        }
    }

    #[test]
    fn mean_targeted_extremes_degenerate() {
        let w_lo = LengthModel::mean_targeted_weights(1, 5, 1.0);
        assert_eq!(w_lo[0], 1.0);
        let w_hi = LengthModel::mean_targeted_weights(1, 5, 5.0);
        assert_eq!(w_hi[4], 1.0);
    }

    #[test]
    fn generated_lengths_stay_in_range_with_right_mean() {
        let model = LengthModel::paper_default();
        let mut rng = Xoshiro256::new(42);
        let lens = model.generate(50_000, &mut rng);
        assert!(lens.iter().all(|&l| (1..=5).contains(&l)));
        let mean = lens.iter().map(|&l| l as f64).sum::<f64>() / lens.len() as f64;
        assert!((mean - 2.0).abs() < 0.02, "sample mean {mean}");
    }

    #[test]
    fn fixed_and_uniform_models() {
        let mut rng = Xoshiro256::new(1);
        let fixed = LengthModel::Fixed { length: 3 }.generate(10, &mut rng);
        assert_eq!(fixed, vec![3; 10]);
        let uni = LengthModel::Uniform { min: 2, max: 4 }.generate(10_000, &mut rng);
        assert!(uni.iter().all(|&l| (2..=4).contains(&l)));
        let mean = uni.iter().map(|&l| l as f64).sum::<f64>() / uni.len() as f64;
        assert!((mean - 3.0).abs() < 0.05);
    }

    #[test]
    fn custom_lengths_pass_through() {
        let mut rng = Xoshiro256::new(1);
        let lens = LengthModel::Custom {
            lengths: vec![1, 2, 3],
        }
        .generate(3, &mut rng);
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn pmf_support_and_mass() {
        let (min, pmf) = LengthModel::paper_default().pmf();
        assert_eq!(min, 1);
        assert_eq!(pmf.len(), 5);
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-9);

        let (min, pmf) = LengthModel::Custom {
            lengths: vec![2, 2, 4],
        }
        .pmf();
        assert_eq!(min, 2);
        assert_eq!(pmf.len(), 3);
        assert!((pmf[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((pmf[2] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn mean_outside_range_panics() {
        let _ = LengthModel::mean_targeted_weights(1, 5, 6.0);
    }

    #[test]
    fn serde_round_trip() {
        let m = LengthModel::paper_default();
        let js = serde_json::to_string(&m).unwrap();
        let back: LengthModel = serde_json::from_str(&js).unwrap();
        assert_eq!(back, m);
    }
}
