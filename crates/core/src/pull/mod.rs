//! Pull-side scheduling policies.
//!
//! A [`PullPolicy`] maps each queued [`PendingItem`] to a score; the hybrid
//! server transmits the active item with the largest score. The paper's
//! contribution — the priority-blended **importance factor** — lives in
//! [`importance`]; the remaining modules are the standard baselines the
//! broadcast-scheduling literature compares against (and that Section 2 of
//! the paper surveys):
//!
//! | policy | score | reference |
//! |--------|-------|-----------|
//! | [`fcfs::Fcfs`] | oldest pending request first | classic |
//! | `lwf::Lwf` | largest total accumulated wait | Dykeman & Ammar |
//! | [`mrf::Mrf`] | most pending requests first | classic |
//! | [`rxw::Rxw`] | requests × wait | Aksoy & Franklin '99 |
//! | [`stretch::StretchOptimal`] | `R_i / L_i²` | Wu et al. (max-request min-service-time) |
//! | [`priority::PriorityOnly`] | `Q_i` | paper, α = 0 limit |
//! | [`importance::ImportanceFactor`] | `α·S_i + (1−α)·Q_i` | **the paper, Eq. 1/6** |

pub mod fcfs;
pub mod importance;
mod length_pow;
pub mod lwf;
pub mod mrf;
pub mod priority;
pub mod rxw;
pub mod stretch;

use serde::{Deserialize, Serialize};

use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::Catalog;
use hybridcast_workload::classes::ClassSet;

use crate::queue::PendingItem;

/// Read-only state a policy may consult when scoring an item.
#[derive(Debug, Clone, Copy)]
pub struct PullContext<'a> {
    /// The item database (lengths, access probabilities).
    pub catalog: &'a Catalog,
    /// The service classes (priority weights).
    pub classes: &'a ClassSet,
    /// Current simulated time.
    pub now: SimTime,
    /// Running time-average of the pull-queue length — the simulator's
    /// online estimate of the paper's `E[L_pull]` (used by the Eq. 6 form
    /// of the importance factor).
    pub mean_queue_len: f64,
}

/// The clock-free subset of [`PullContext`] available when a queue event
/// (insert) triggers an incremental rescore: catalog and classes only — a
/// local score must not depend on `now` or on the running queue average.
#[derive(Debug, Clone, Copy)]
pub struct IndexContext<'a> {
    /// The item database (lengths, access probabilities).
    pub catalog: &'a Catalog,
    /// The service classes (priority weights).
    pub classes: &'a ClassSet,
}

impl<'a> From<&PullContext<'a>> for IndexContext<'a> {
    fn from(ctx: &PullContext<'a>) -> Self {
        IndexContext {
            catalog: ctx.catalog,
            classes: ctx.classes,
        }
    }
}

/// A pull-selection policy: higher score wins.
///
/// # Incremental scoring
///
/// Policies whose score changes only when an item's own queue entry
/// changes (a request arrives, the entry is served/dropped) can opt into
/// the *incremental score* capability: `score_is_local` returns `true`
/// and [`PullPolicy::rescore`] recomputes the entry's score without a
/// clock. The scheduler then keeps a max-heap with one record per queued
/// item over these scores ([`crate::queue::PullQueue::reindex`] /
/// [`crate::queue::PullQueue::select_max_indexed`]): each queue event
/// costs O(log n) and selection is a peek instead of a full scan.
/// `rescore` must order entries exactly like `score` whenever
/// [`PullPolicy::index_usable`] holds — including ties (equal `rescore`
/// values ⇔ equal `score` values); time-dependent policies keep the
/// default scan path. See "Scheduler complexity" in
/// `DESIGN.md` for the per-policy arguments.
pub trait PullPolicy: std::fmt::Debug + Send {
    /// Short identifier for reports ("importance", "rxw", ...).
    fn name(&self) -> &'static str;

    /// The selection score of `entry` — must be finite.
    fn score(&self, entry: &PendingItem, ctx: &PullContext<'_>) -> f64;

    /// `true` when this policy's ordering is reproducible from per-entry
    /// state alone, so a score index maintained at insert/remove time stays
    /// valid between queue events.
    fn score_is_local(&self) -> bool {
        false
    }

    /// Recomputes `entry`'s index score after a queue event. Only
    /// meaningful when [`PullPolicy::score_is_local`] is `true`; the default
    /// `None` declares the policy non-indexable, and a policy that
    /// misadvertises `score_is_local` without overriding this degrades the
    /// scheduler to the linear scan instead of panicking.
    fn rescore(&self, entry: &PendingItem, ctx: &IndexContext<'_>) -> Option<f64> {
        let _ = (entry, ctx);
        None
    }

    /// Whether the maintained index orders items exactly like `score`
    /// under `ctx` *right now*. Differs from [`PullPolicy::score_is_local`]
    /// only for policies whose true score is the index score times a
    /// context-dependent common factor that can degenerate to zero (Eq. 6
    /// with `E[L_pull] = 0` collapses every score to 0, where the scan's
    /// tie-break takes over and the index ordering no longer applies).
    fn index_usable(&self, ctx: &PullContext<'_>) -> bool {
        let _ = ctx;
        self.score_is_local()
    }
}

/// Serializable policy selector, turned into a boxed policy with
/// [`PullPolicyKind::build`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum PullPolicyKind {
    /// First-come-first-served on the oldest pending request.
    Fcfs,
    /// Most requests first.
    Mrf,
    /// Longest total accumulated wait first.
    Lwf,
    /// Requests × wait (RxW).
    Rxw,
    /// Stretch-optimal `R_i / L_i^exponent`.
    Stretch {
        /// Length exponent; the paper uses 2.
        exponent: f64,
    },
    /// Pure priority `Q_i` (the α = 0 limit).
    Priority,
    /// The paper's importance factor `γ_i = α·S_i + (1−α)·Q_i` (Eq. 1).
    Importance {
        /// Stretch/priority blend `α ∈ [0, 1]`.
        alpha: f64,
        /// Length exponent in the stretch term; the paper uses 2.
        exponent: f64,
    },
    /// The generalized Eq. 6 form `ϱ_i = α·E[L]p_i/L_i² + (1−α)·E[L]p_i·Q_i`
    /// that replaces the observed `R_i` with its expectation.
    ImportanceExpected {
        /// Stretch/priority blend `α ∈ [0, 1]`.
        alpha: f64,
        /// Length exponent in the stretch term; the paper uses 2.
        exponent: f64,
    },
}

impl PullPolicyKind {
    /// The paper's default policy at blend `alpha`.
    pub fn importance(alpha: f64) -> Self {
        PullPolicyKind::Importance {
            alpha,
            exponent: 2.0,
        }
    }

    /// Whether [`build`](Self::build) accepts the parameters, as a typed
    /// error (the policies' constructors panic with the same text).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            PullPolicyKind::Stretch { exponent } => stretch::StretchOptimal::validate(exponent),
            PullPolicyKind::Importance { alpha, exponent }
            | PullPolicyKind::ImportanceExpected { alpha, exponent } => {
                importance::ImportanceFactor::validate(alpha, exponent)
            }
            _ => Ok(()),
        }
    }

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn PullPolicy> {
        match *self {
            PullPolicyKind::Fcfs => Box::new(fcfs::Fcfs),
            PullPolicyKind::Mrf => Box::new(mrf::Mrf),
            PullPolicyKind::Lwf => Box::new(lwf::Lwf),
            PullPolicyKind::Rxw => Box::new(rxw::Rxw),
            PullPolicyKind::Stretch { exponent } => {
                Box::new(stretch::StretchOptimal::new(exponent))
            }
            PullPolicyKind::Priority => Box::new(priority::PriorityOnly),
            PullPolicyKind::Importance { alpha, exponent } => {
                Box::new(importance::ImportanceFactor::eq1(alpha, exponent))
            }
            PullPolicyKind::ImportanceExpected { alpha, exponent } => {
                Box::new(importance::ImportanceFactor::eq6(alpha, exponent))
            }
        }
    }

    /// The importance blend `α` the analytic model should assume for this
    /// policy: pure priority is `α = 0`, the priority-blind baselines
    /// behave like the `α = 1` limit.
    pub fn blend_alpha(&self) -> f64 {
        match *self {
            PullPolicyKind::Importance { alpha, .. }
            | PullPolicyKind::ImportanceExpected { alpha, .. } => alpha,
            PullPolicyKind::Priority => 0.0,
            _ => 1.0,
        }
    }

    /// All baseline kinds, for shoot-out experiments.
    pub fn baselines() -> Vec<PullPolicyKind> {
        vec![
            PullPolicyKind::Fcfs,
            PullPolicyKind::Mrf,
            PullPolicyKind::Lwf,
            PullPolicyKind::Rxw,
            PullPolicyKind::Stretch { exponent: 2.0 },
            PullPolicyKind::Priority,
        ]
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use hybridcast_sim::rng::{streams, RngFactory};
    use hybridcast_workload::catalog::{Catalog, ItemId};
    use hybridcast_workload::classes::{ClassId, ClassSet};
    use hybridcast_workload::lengths::LengthModel;
    use hybridcast_workload::popularity::PopularityModel;
    use hybridcast_workload::requests::Request;

    use super::PullContext;
    use crate::queue::PullQueue;
    use hybridcast_sim::time::SimTime;

    /// A 10-item catalog with known lengths for policy tests.
    pub fn catalog() -> Catalog {
        let factory = RngFactory::new(77);
        let mut rng = factory.stream(streams::LENGTHS);
        Catalog::build(
            10,
            &PopularityModel::zipf(1.0),
            &LengthModel::Uniform { min: 1, max: 5 },
            &mut rng,
        )
    }

    pub fn req(t: f64, item: u32, class: u8) -> Request {
        Request {
            arrival: SimTime::new(t),
            item: ItemId(item),
            class: ClassId(class),
        }
    }

    /// Builds a queue with requests described as `(time, item, class)`.
    pub fn queue_with(classes: &ClassSet, reqs: &[(f64, u32, u8)]) -> PullQueue {
        let mut q = PullQueue::new(10);
        for &(t, i, c) in reqs {
            let r = req(t, i, c);
            q.insert(&r, classes.priority(r.class));
        }
        q
    }

    pub fn ctx<'a>(
        catalog: &'a Catalog,
        classes: &'a ClassSet,
        now: f64,
        mean_queue_len: f64,
    ) -> PullContext<'a> {
        PullContext {
            catalog,
            classes,
            now: SimTime::new(now),
            mean_queue_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_with_matching_names() {
        let cases = [
            (PullPolicyKind::Fcfs, "fcfs"),
            (PullPolicyKind::Mrf, "mrf"),
            (PullPolicyKind::Lwf, "lwf"),
            (PullPolicyKind::Rxw, "rxw"),
            (PullPolicyKind::Stretch { exponent: 2.0 }, "stretch"),
            (PullPolicyKind::Priority, "priority"),
            (PullPolicyKind::importance(0.5), "importance"),
            (
                PullPolicyKind::ImportanceExpected {
                    alpha: 0.5,
                    exponent: 2.0,
                },
                "importance-expected",
            ),
        ];
        for (kind, name) in cases {
            assert_eq!(kind.build().name(), name);
        }
    }

    #[test]
    fn baselines_exclude_the_contribution() {
        let bs = PullPolicyKind::baselines();
        assert_eq!(bs.len(), 6);
        assert!(!bs
            .iter()
            .any(|k| matches!(k, PullPolicyKind::Importance { .. })));
    }

    #[test]
    fn serde_round_trip() {
        let k = PullPolicyKind::importance(0.25);
        let js = serde_json::to_string(&k).unwrap();
        let back: PullPolicyKind = serde_json::from_str(&js).unwrap();
        assert_eq!(back, k);
    }
}
