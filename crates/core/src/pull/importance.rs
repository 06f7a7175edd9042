//! The **importance factor** — the paper's contribution (Eq. 1 / Eq. 6).
//!
//! Selection score of item `i`:
//!
//! ```text
//! γ_i = α · S_i + (1 − α) · Q_i                              (Eq. 1)
//! S_i = R_i / L_i²          Q_i = Σ_{j ∈ requesters(i)} q_j
//! ```
//!
//! `α = 1` degenerates to stretch-optimal scheduling, `α = 0` to pure
//! priority scheduling; intermediate values blend throughput-fairness with
//! service differentiation.
//!
//! §4.2 generalizes the request count `R_i` to its *expectation*
//! `E[L_pull]·p_i`, giving
//!
//! ```text
//! ϱ_i = α · E[L_pull]·p_i / L_i² + (1 − α) · E[L_pull]·p_i · Q_i   (Eq. 6)
//! ```
//!
//! which reduces to Eq. 1 when `E[L_pull]·p_i = 1`. Both forms are
//! implemented — [`ImportanceFactor::eq1`] scores with the observed `R_i`
//! (what a real server knows), `ImportanceFactor::eq6` with the online
//! estimate of `E[L_pull]` carried in [`PullContext::mean_queue_len`].

use hybridcast_sim::ensure;
use hybridcast_workload::catalog::Catalog;

use crate::pull::length_pow::LengthPow;
use crate::pull::stretch::StretchOptimal;
use crate::pull::{IndexContext, PullContext, PullPolicy};
use crate::queue::PendingItem;

/// Which form of the importance factor to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// Eq. 1: observed request count `R_i`.
    Observed,
    /// Eq. 6: expected count `E[L_pull]·p_i`.
    Expected,
}

/// The paper's importance-factor policy.
#[derive(Debug, Clone, Copy)]
pub struct ImportanceFactor {
    alpha: f64,
    len_pow: LengthPow,
    form: Form,
}

impl ImportanceFactor {
    /// Eq. 1 form: `γ_i = α·R_i/L_i^exp + (1−α)·Q_i`.
    ///
    /// # Panics
    /// Panics unless `alpha ∈ [0, 1]` and `exponent > 0`.
    pub fn eq1(alpha: f64, exponent: f64) -> Self {
        Self::validated(alpha, exponent, Form::Observed)
    }

    /// Eq. 6 form: `ϱ_i = α·E[L]p_i/L_i^exp + (1−α)·E[L]p_i·Q_i`.
    ///
    /// # Panics
    /// Panics unless `alpha ∈ [0, 1]` and `exponent > 0`.
    pub(crate) fn eq6(alpha: f64, exponent: f64) -> Self {
        Self::validated(alpha, exponent, Form::Expected)
    }

    /// What both forms require of their parameters, as a typed error.
    pub fn validate(alpha: f64, exponent: f64) -> Result<(), String> {
        ensure(
            (0.0..=1.0).contains(&alpha),
            format_args!("alpha must lie in [0, 1] (got {alpha})"),
        )?;
        StretchOptimal::validate(exponent)
    }

    fn validated(alpha: f64, exponent: f64, form: Form) -> Self {
        Self::validate(alpha, exponent).unwrap_or_else(|e| panic!("{e}"));
        ImportanceFactor {
            alpha,
            len_pow: LengthPow::new(exponent),
            form,
        }
    }

    /// The blend α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The clock-free per-entry score that drives the incremental index.
    ///
    /// * Eq. 1: the full score `α·R_i/L_i^exp + (1−α)·Q_i` — it only
    ///   depends on the entry's own aggregates.
    /// * Eq. 6: `p_i·(α/L_i^exp + (1−α)·Q_i)`. The true score is this
    ///   times `E[L_pull]`, a *common positive factor* across all queued
    ///   items, so the ordering (ties included) is unchanged — except when
    ///   `E[L_pull] = 0` collapses every score, handled by
    ///   [`ImportanceFactor::index_usable`].
    fn local_score(&self, entry: &PendingItem, catalog: &Catalog) -> f64 {
        let len_pow = self.len_pow.of(catalog.length(entry.item));
        match self.form {
            Form::Observed => {
                self.alpha * (entry.count() as f64 / len_pow)
                    + (1.0 - self.alpha) * entry.total_priority
            }
            Form::Expected => {
                catalog.prob(entry.item)
                    * (self.alpha / len_pow + (1.0 - self.alpha) * entry.total_priority)
            }
        }
    }
}

impl Default for ImportanceFactor {
    /// Eq. 1 with the paper's middle blend α = 0.5 and exponent 2.
    fn default() -> Self {
        ImportanceFactor::eq1(0.5, 2.0)
    }
}

impl PullPolicy for ImportanceFactor {
    fn name(&self) -> &'static str {
        match self.form {
            Form::Observed => "importance",
            Form::Expected => "importance-expected",
        }
    }

    fn score(&self, entry: &PendingItem, ctx: &PullContext<'_>) -> f64 {
        match self.form {
            Form::Observed => self.local_score(entry, ctx.catalog),
            // Eq. 6: both the stretch and the priority term carry the
            // expected count `E[L_pull]·p_i`, so the whole score factors
            // as `E[L_pull] · local_score`.
            Form::Expected => ctx.mean_queue_len * self.local_score(entry, ctx.catalog),
        }
    }

    fn score_is_local(&self) -> bool {
        true
    }

    fn rescore(&self, entry: &PendingItem, ctx: &IndexContext<'_>) -> Option<f64> {
        Some(self.local_score(entry, ctx.catalog))
    }

    fn index_usable(&self, ctx: &PullContext<'_>) -> bool {
        match self.form {
            Form::Observed => true,
            // With E[L_pull] = 0 all true scores are 0 and selection falls
            // to the scan tie-break (lowest active item id); the index
            // ordering would pick something else, so scan instead.
            Form::Expected => ctx.mean_queue_len > 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pull::priority::PriorityOnly;
    use crate::pull::stretch::StretchOptimal;
    use crate::pull::testutil::{catalog, ctx, queue_with};
    use hybridcast_workload::catalog::ItemId;
    use hybridcast_workload::classes::ClassSet;

    #[test]
    fn alpha_one_equals_stretch_optimal() {
        let cat = catalog();
        let classes = ClassSet::paper_default();
        let q = queue_with(
            &classes,
            &[(1.0, 2, 0), (2.0, 2, 1), (1.5, 6, 2), (3.0, 8, 0)],
        );
        let c = ctx(&cat, &classes, 5.0, 0.0);
        let imp = ImportanceFactor::eq1(1.0, 2.0);
        let st = StretchOptimal::default();
        for e in q.iter() {
            assert!((imp.score(e, &c) - st.score(e, &c)).abs() < 1e-12);
        }
    }

    #[test]
    fn alpha_zero_equals_priority_only() {
        let cat = catalog();
        let classes = ClassSet::paper_default();
        let q = queue_with(
            &classes,
            &[(1.0, 2, 0), (2.0, 2, 1), (1.5, 6, 2), (3.0, 8, 0)],
        );
        let c = ctx(&cat, &classes, 5.0, 0.0);
        let imp = ImportanceFactor::eq1(0.0, 2.0);
        let pr = PriorityOnly;
        for e in q.iter() {
            assert!((imp.score(e, &c) - pr.score(e, &c)).abs() < 1e-12);
        }
    }

    #[test]
    fn blend_is_linear_in_alpha() {
        let cat = catalog();
        let classes = ClassSet::paper_default();
        let q = queue_with(&classes, &[(1.0, 3, 0), (2.0, 3, 2)]);
        let e = q.get(ItemId(3)).unwrap();
        let c = ctx(&cat, &classes, 5.0, 0.0);
        let s0 = ImportanceFactor::eq1(0.0, 2.0).score(e, &c);
        let s1 = ImportanceFactor::eq1(1.0, 2.0).score(e, &c);
        let smid = ImportanceFactor::eq1(0.25, 2.0).score(e, &c);
        assert!((smid - (0.25 * s1 + 0.75 * s0)).abs() < 1e-12);
    }

    #[test]
    fn lower_alpha_favors_premium_items() {
        let cat = catalog();
        let classes = ClassSet::paper_default();
        // item 5: 4 basic requests (stretch-heavy); item 2: 1 premium request
        let q = queue_with(
            &classes,
            &[
                (1.0, 5, 2),
                (1.1, 5, 2),
                (1.2, 5, 2),
                (1.3, 5, 2),
                (2.0, 2, 0),
            ],
        );
        let c = ctx(&cat, &classes, 5.0, 0.0);
        // Find selections at the two extremes.
        let hi = ImportanceFactor::eq1(1.0, 2.0);
        let lo = ImportanceFactor::eq1(0.0, 2.0);
        let sel_hi = q.select_max(|e| hi.score(e, &c)).unwrap();
        let sel_lo = q.select_max(|e| lo.score(e, &c)).unwrap();
        // α=0 ranks by Q: item5 Q=4 vs item2 Q=3 → item 5; but the premium
        // item must score *relatively* better as α drops:
        let ratio = |p: &ImportanceFactor| {
            p.score(q.get(ItemId(2)).unwrap(), &c) / p.score(q.get(ItemId(5)).unwrap(), &c)
        };
        assert!(ratio(&lo) > ratio(&hi));
        // and the concrete winners are deterministic:
        let _ = (sel_hi, sel_lo);
    }

    #[test]
    fn eq6_uses_expected_counts() {
        let cat = catalog();
        let classes = ClassSet::paper_default();
        let q = queue_with(&classes, &[(1.0, 3, 0)]);
        let e = q.get(ItemId(3)).unwrap();
        // With mean queue len 0 the expected count is 0 ⇒ score 0.
        let c0 = ctx(&cat, &classes, 5.0, 0.0);
        let imp6 = ImportanceFactor::eq6(0.5, 2.0);
        assert_eq!(imp6.score(e, &c0), 0.0);
        // Score scales linearly with E[L_pull].
        let c1 = ctx(&cat, &classes, 5.0, 4.0);
        let c2 = ctx(&cat, &classes, 5.0, 8.0);
        let s1 = imp6.score(e, &c1);
        let s2 = imp6.score(e, &c2);
        assert!(s1 > 0.0);
        assert!((s2 - 2.0 * s1).abs() < 1e-12);
    }

    #[test]
    fn eq6_reduces_to_eq1_when_expected_count_is_one() {
        let cat = catalog();
        let classes = ClassSet::paper_default();
        let q = queue_with(&classes, &[(1.0, 3, 1)]); // single request: R=1
        let e = q.get(ItemId(3)).unwrap();
        // Choose mean_queue_len so E[L]·p_3 = 1.
        let ml = 1.0 / cat.prob(ItemId(3));
        let c = ctx(&cat, &classes, 5.0, ml);
        let s6 = ImportanceFactor::eq6(0.7, 2.0).score(e, &c);
        let s1 = ImportanceFactor::eq1(0.7, 2.0).score(e, &c);
        assert!((s6 - s1).abs() < 1e-9, "eq6 {s6} vs eq1 {s1}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_out_of_range_rejected() {
        let _ = ImportanceFactor::eq1(1.5, 2.0);
    }
}
