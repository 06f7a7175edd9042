//! Longest-wait-first (LWF): serve the item whose pending requests have
//! accumulated the most *total* waiting time. A classic on-demand
//! broadcast baseline (Dykeman/Ammar; also evaluated by Aksoy & Franklin):
//! unlike RxW's product form it sums each requester's wait, so both crowd
//! size and age push an item forward, still blind to length and priority.

use crate::pull::{PullContext, PullPolicy};
use crate::queue::PendingItem;

/// LWF — score is `Σ_j (now − arrival_j)` over pending requesters,
/// evaluated in O(1) from the entry's aggregates as `R_i·now − Σ_j A_j`.
///
/// LWF does **not** get an incremental score index: total accumulated
/// wait grows at rate `R_i` per unit time, so two items' scores drift
/// relative to each other *between* queue events and no insert-time
/// snapshot can preserve the ordering (`R=1, A=0` vs `R=2, A=10` flip at
/// `now = 20`; see "Scheduler complexity" in `DESIGN.md`). Selection
/// stays on the linear scan — but each scanned entry is now O(1) instead
/// of O(requesters).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Lwf;

impl PullPolicy for Lwf {
    fn name(&self) -> &'static str {
        "lwf"
    }

    fn score(&self, entry: &PendingItem, ctx: &PullContext<'_>) -> f64 {
        entry.count() as f64 * ctx.now.as_f64() - entry.arrival_sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pull::testutil::{catalog, ctx, queue_with};
    use hybridcast_workload::catalog::ItemId;
    use hybridcast_workload::classes::ClassSet;

    #[test]
    fn total_wait_wins_over_head_wait() {
        let cat = catalog();
        let classes = ClassSet::paper_default();
        // item 1: one request waiting 8 → total 8
        // item 2: three requests waiting 3 each → total 9
        let q = queue_with(
            &classes,
            &[(2.0, 1, 0), (7.0, 2, 0), (7.0, 2, 1), (7.0, 2, 2)],
        );
        let c = ctx(&cat, &classes, 10.0, 0.0);
        let p = Lwf;
        let sel = q.select_max(|e| p.score(e, &c)).unwrap();
        assert_eq!(sel, ItemId(2));
    }

    #[test]
    fn score_is_sum_of_waits() {
        let cat = catalog();
        let classes = ClassSet::paper_default();
        let q = queue_with(&classes, &[(1.0, 5, 0), (4.0, 5, 1)]);
        let c = ctx(&cat, &classes, 10.0, 0.0);
        let s = Lwf.score(q.get(ItemId(5)).unwrap(), &c);
        assert!((s - (9.0 + 6.0)).abs() < 1e-12);
    }

    #[test]
    fn grows_linearly_with_time() {
        let cat = catalog();
        let classes = ClassSet::paper_default();
        let q = queue_with(&classes, &[(0.0, 5, 0), (0.0, 5, 1)]);
        let e = q.get(ItemId(5)).unwrap();
        let s1 = Lwf.score(e, &ctx(&cat, &classes, 5.0, 0.0));
        let s2 = Lwf.score(e, &ctx(&cat, &classes, 10.0, 0.0));
        assert!((s2 - 2.0 * s1).abs() < 1e-12);
    }
}
