//! Stretch-optimal scheduling — "max-request min-service-time first".
//!
//! The paper's §4.2 defines the stretch of item `i` as `S_i = R_i / L_i²`:
//! many pending requests push an item forward, a long transmission time
//! pushes it back quadratically (one factor of `L` for the service time
//! itself, one because *stretch* normalizes response time by service time).
//! The exponent is exposed for the ABL-STRETCH ablation (`R/L` vs `R/L²`).

use hybridcast_sim::ensure;

use crate::pull::length_pow::LengthPow;
use crate::pull::{IndexContext, PullContext, PullPolicy};
use crate::queue::PendingItem;

/// Stretch-optimal: score `S_i = R_i / L_i^exponent`.
#[derive(Debug, Clone, Copy)]
pub struct StretchOptimal {
    len_pow: LengthPow,
}

impl StretchOptimal {
    /// The paper's form uses `exponent = 2.0`.
    ///
    /// # Panics
    /// Panics unless `exponent` is finite and positive.
    pub fn new(exponent: f64) -> Self {
        Self::validate(exponent).unwrap_or_else(|e| panic!("{e}"));
        StretchOptimal {
            len_pow: LengthPow::new(exponent),
        }
    }

    /// What a stretch exponent must satisfy, as a typed error.
    pub fn validate(exponent: f64) -> Result<(), String> {
        ensure(
            exponent > 0.0 && exponent.is_finite(),
            format_args!("stretch exponent must be positive and finite (got {exponent})"),
        )
    }

    /// The length exponent in use.
    pub fn exponent(&self) -> f64 {
        self.len_pow.exponent()
    }

    /// The stretch value of `entry` given its catalog length.
    pub fn stretch(&self, entry: &PendingItem, ctx: &PullContext<'_>) -> f64 {
        self.local_stretch(entry, &ctx.into())
    }

    fn local_stretch(&self, entry: &PendingItem, ctx: &IndexContext<'_>) -> f64 {
        entry.count() as f64 / self.len_pow.of(ctx.catalog.length(entry.item))
    }
}

impl PullPolicy for StretchOptimal {
    fn name(&self) -> &'static str {
        "stretch"
    }

    fn score(&self, entry: &PendingItem, ctx: &PullContext<'_>) -> f64 {
        self.stretch(entry, ctx)
    }

    // `R_i / L_i^e` depends only on the entry's own request count, so the
    // score index stays exact between queue events.
    fn score_is_local(&self) -> bool {
        true
    }

    fn rescore(&self, entry: &PendingItem, ctx: &IndexContext<'_>) -> Option<f64> {
        Some(self.local_stretch(entry, ctx))
    }
}

impl Default for StretchOptimal {
    fn default() -> Self {
        StretchOptimal::new(2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pull::testutil::req;
    use crate::pull::testutil::{catalog, ctx, queue_with};
    use crate::queue::PullQueue;
    use hybridcast_workload::catalog::{Catalog, ItemId};
    use hybridcast_workload::classes::ClassSet;

    /// Catalog with hand-picked lengths so stretch ordering is exact.
    fn fixed_catalog() -> Catalog {
        // 10 items, uniform-ish probs sorted desc, lengths item0..: 1..5,1..5
        let probs: Vec<f64> = vec![0.2, 0.15, 0.12, 0.11, 0.1, 0.09, 0.08, 0.06, 0.05, 0.04];
        let lengths = vec![1, 2, 3, 4, 5, 1, 2, 3, 4, 5];
        Catalog::from_parts(probs, lengths)
    }

    #[test]
    fn short_items_with_many_requests_win() {
        let cat = fixed_catalog();
        let classes = ClassSet::paper_default();
        let mut q = PullQueue::new(10);
        // item 4 (len 5): 10 requests → S = 10/25 = 0.4
        for i in 0..10 {
            q.insert(&req(i as f64 * 0.1, 4, 0), 3.0);
        }
        // item 5 (len 1): 1 request → S = 1/1 = 1.0
        q.insert(&req(0.0, 5, 2), 1.0);
        let c = ctx(&cat, &classes, 10.0, 0.0);
        let policy = StretchOptimal::default();
        let sel = q.select_max(|e| policy.score(e, &c)).unwrap();
        assert_eq!(sel, ItemId(5));
    }

    #[test]
    fn exact_stretch_values() {
        let cat = fixed_catalog();
        let classes = ClassSet::paper_default();
        let q = queue_with(&classes, &[(1.0, 2, 0), (2.0, 2, 1)]); // len 3, R=2
        let c = ctx(&cat, &classes, 5.0, 0.0);
        let s = StretchOptimal::default().score(q.get(ItemId(2)).unwrap(), &c);
        assert!((s - 2.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn exponent_one_is_linear_in_length() {
        let cat = fixed_catalog();
        let classes = ClassSet::paper_default();
        let q = queue_with(&classes, &[(1.0, 4, 0)]); // len 5, R=1
        let c = ctx(&cat, &classes, 5.0, 0.0);
        let s1 = StretchOptimal::new(1.0).score(q.get(ItemId(4)).unwrap(), &c);
        let s2 = StretchOptimal::new(2.0).score(q.get(ItemId(4)).unwrap(), &c);
        assert!((s1 - 0.2).abs() < 1e-12);
        assert!((s2 - 0.04).abs() < 1e-12);
    }

    #[test]
    fn priority_is_ignored() {
        let cat = catalog();
        let classes = ClassSet::paper_default();
        let q_premium = queue_with(&classes, &[(1.0, 3, 0)]);
        let q_basic = queue_with(&classes, &[(1.0, 3, 2)]);
        let c = ctx(&cat, &classes, 5.0, 0.0);
        let p = StretchOptimal::default();
        assert_eq!(
            p.score(q_premium.get(ItemId(3)).unwrap(), &c),
            p.score(q_basic.get(ItemId(3)).unwrap(), &c)
        );
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn zero_exponent_rejected() {
        let _ = StretchOptimal::new(0.0);
    }
}
