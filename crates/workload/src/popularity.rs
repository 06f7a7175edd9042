//! Item popularity (access-probability) models.
//!
//! The paper assumes `P_i = (1/i)^θ / Σ_j (1/j)^θ` — Zipf with skew θ over
//! item ranks, so item 1 is the most popular. [`PopularityModel`] also
//! offers uniform and fully custom laws for ablations and tests.

use serde::{Deserialize, Serialize};

use hybridcast_sim::ensure;

/// How access probabilities are assigned to the `D` items of a catalog.
///
/// Probabilities are always returned sorted non-increasing: index 0 is the
/// most popular item, matching the paper's convention that the push set is
/// the prefix `1..=K`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum PopularityModel {
    /// Zipf with skew coefficient θ ≥ 0 (θ = 0 degenerates to uniform).
    Zipf {
        /// Access skew coefficient θ.
        theta: f64,
    },
    /// Every item equally likely.
    Uniform,
    /// Explicit weights (normalized, then sorted non-increasing).
    Custom {
        /// Non-negative weights, one per item.
        weights: Vec<f64>,
    },
}

impl PopularityModel {
    /// The paper's default: Zipf with the given skew.
    pub fn zipf(theta: f64) -> Self {
        PopularityModel::Zipf { theta }
    }

    /// Whether this model describes a catalog of `d` items: everything
    /// [`probabilities`](Self::probabilities) requires, as a typed error.
    pub fn validate(&self, d: usize) -> Result<(), String> {
        ensure(d > 0, "catalog must contain at least one item")?;
        match self {
            PopularityModel::Zipf { theta } => ensure(
                *theta >= 0.0 && theta.is_finite(),
                format_args!("Zipf skew must be finite and non-negative (got {theta})"),
            ),
            PopularityModel::Uniform => Ok(()),
            PopularityModel::Custom { weights } => {
                ensure(
                    weights.len() == d,
                    format_args!(
                        "custom popularity needs exactly {d} weights (got {})",
                        weights.len()
                    ),
                )?;
                let total: f64 = weights.iter().sum();
                ensure(
                    total.is_finite() && total > 0.0,
                    "custom weights must sum to a positive finite value",
                )?;
                weights.iter().enumerate().try_for_each(|(i, &w)| {
                    ensure(
                        w >= 0.0 && w.is_finite(),
                        format_args!("weight[{i}] = {w} invalid"),
                    )
                })
            }
        }
    }

    /// Access probabilities for a catalog of `d` items, sorted
    /// non-increasing and summing to 1.
    ///
    /// # Panics
    /// Panics with [`validate`](Self::validate)'s message: if `d == 0`, if
    /// a custom weight vector has the wrong length or invalid entries, or
    /// if θ is negative/NaN.
    pub fn probabilities(&self, d: usize) -> Vec<f64> {
        self.validate(d).unwrap_or_else(|e| panic!("{e}"));
        match self {
            PopularityModel::Zipf { theta } => {
                let mut probs: Vec<f64> = (1..=d).map(|i| (i as f64).powf(-theta)).collect();
                let norm: f64 = probs.iter().sum();
                for p in &mut probs {
                    *p /= norm;
                }
                probs
            }
            PopularityModel::Uniform => vec![1.0 / d as f64; d],
            PopularityModel::Custom { weights } => {
                let total: f64 = weights.iter().sum();
                let mut probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
                probs.sort_by(|a, b| b.partial_cmp(a).expect("finite by validation"));
                probs
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_matches_paper_formula() {
        let p = PopularityModel::zipf(1.0).probabilities(3);
        let norm = 1.0 + 0.5 + 1.0 / 3.0;
        assert!((p[0] - 1.0 / norm).abs() < 1e-12);
        assert!((p[1] - 0.5 / norm).abs() < 1e-12);
        assert!((p[2] - (1.0 / 3.0) / norm).abs() < 1e-12);
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let p = PopularityModel::zipf(0.0).probabilities(5);
        for x in p {
            assert!((x - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn all_models_sum_to_one() {
        for model in [
            PopularityModel::zipf(1.4),
            PopularityModel::Uniform,
            PopularityModel::Custom {
                weights: vec![3.0, 1.0, 2.0, 4.0],
            },
        ] {
            let d = if matches!(model, PopularityModel::Custom { .. }) {
                4
            } else {
                100
            };
            let probs = model.probabilities(d);
            let sum: f64 = probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{model:?} sums to {sum}");
        }
    }

    #[test]
    fn probabilities_are_sorted_non_increasing() {
        let probs = PopularityModel::Custom {
            weights: vec![1.0, 5.0, 3.0],
        }
        .probabilities(3);
        assert!(probs[0] >= probs[1] && probs[1] >= probs[2]);
        assert!((probs[0] - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn higher_skew_concentrates_mass() {
        let low = PopularityModel::zipf(0.2).probabilities(100);
        let high = PopularityModel::zipf(1.4).probabilities(100);
        let head_low: f64 = low[..10].iter().sum();
        let head_high: f64 = high[..10].iter().sum();
        assert!(head_high > head_low);
    }

    #[test]
    #[should_panic(expected = "exactly")]
    fn custom_length_mismatch_panics() {
        let _ = PopularityModel::Custom {
            weights: vec![1.0, 2.0],
        }
        .probabilities(3);
    }

    #[test]
    fn serde_round_trip() {
        let m = PopularityModel::zipf(0.6);
        let js = serde_json::to_string(&m).unwrap();
        let back: PopularityModel = serde_json::from_str(&js).unwrap();
        assert_eq!(back, m);
    }
}
