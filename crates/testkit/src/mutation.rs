//! Mutation smoke: hand-seeded bugs the oracles must catch.
//!
//! A testing harness that never fails proves nothing. Each [`Mutation`]
//! plants one specific bug — corrupting the observed event stream the way
//! a real accounting defect would, or (for [`Mutation::InvertedScoring`])
//! sign-flipping the Eq. 1 importance score inside the live scheduler —
//! and the smoke test asserts the corresponding oracle *fails*. A mutant
//! that survives means an oracle has gone blind.

use hybridcast_core::prelude::{PullContext, PullPolicy, Sink, TelemetryEvent};
use hybridcast_core::pull::{IndexContext, PullPolicyKind};
use hybridcast_core::queue::PendingItem;
use hybridcast_sim::time::SimTime;
use hybridcast_workload::classes::ClassId;

/// One plantable bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Swallow every `RequestBlocked` event — breaks conservation the way
    /// a lost blocking counter would.
    DropBlocked,
    /// Swallow every 50th `RequestServed` event — a skipped service tally.
    DropEveryNthServed,
    /// Report every 40th `RequestArrival` one broadcast unit in the past —
    /// a clock that runs backwards.
    SkewClockBackwards,
    /// Stamp every 50th `RequestServed` with an arrival *after* its
    /// completion — a negative measured delay.
    NegativeDelay,
    /// Swallow every 7th `PushTx` — the broadcast cycle looks aperiodic.
    DropPushTx,
    /// Attribute every `RequestServed` to the next class over — per-class
    /// books stop balancing while the totals still do.
    ReclassifyServed,
    /// Sign-flip the pull policy's score inside the scheduler itself: the
    /// least important item is always served first, inverting priority
    /// dominance. Caught by the statistical oracle, not the stream ones.
    InvertedScoring,
    /// Duplicate every 9th `PullTx` — the observable symptom of a
    /// double-decremented idle-channel counter: two pull transmissions
    /// occupying the same channel at the same time. Caught by the
    /// channel-accounting oracle.
    PhantomPullChannel,
}

/// Every mutation, in a stable order (the smoke test iterates this).
pub const ALL_MUTATIONS: &[Mutation] = &[
    Mutation::DropBlocked,
    Mutation::DropEveryNthServed,
    Mutation::SkewClockBackwards,
    Mutation::NegativeDelay,
    Mutation::DropPushTx,
    Mutation::ReclassifyServed,
    Mutation::InvertedScoring,
    Mutation::PhantomPullChannel,
];

/// A sink adapter that corrupts the event stream according to one
/// [`Mutation`] before forwarding to the wrapped oracle — simulating an
/// instrumentation or accounting bug without touching the simulator.
#[derive(Debug)]
pub struct MutatingSink<S> {
    inner: S,
    mutation: Mutation,
    num_classes: usize,
    seen_served: u64,
    seen_arrivals: u64,
    seen_push: u64,
    seen_pull: u64,
}

impl<S: Sink> MutatingSink<S> {
    /// Wraps `inner`, planting `mutation` into everything it records.
    pub fn new(inner: S, mutation: Mutation, num_classes: usize) -> Self {
        MutatingSink {
            inner,
            mutation,
            num_classes,
            seen_served: 0,
            seen_arrivals: 0,
            seen_push: 0,
            seen_pull: 0,
        }
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Sink> Sink for MutatingSink<S> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TelemetryEvent) {
        let forwarded = match (*event, self.mutation) {
            (TelemetryEvent::RequestBlocked { .. }, Mutation::DropBlocked) => return,
            (TelemetryEvent::RequestServed { .. }, Mutation::DropEveryNthServed) => {
                self.seen_served += 1;
                if self.seen_served.is_multiple_of(50) {
                    return;
                }
                *event
            }
            (
                TelemetryEvent::RequestArrival { time, item, class },
                Mutation::SkewClockBackwards,
            ) => {
                self.seen_arrivals += 1;
                if self.seen_arrivals.is_multiple_of(40) {
                    TelemetryEvent::RequestArrival {
                        time: SimTime::new((time.as_f64() - 1.0).max(0.0)),
                        item,
                        class,
                    }
                } else {
                    *event
                }
            }
            (
                TelemetryEvent::RequestServed {
                    time,
                    item,
                    class,
                    kind,
                    ..
                },
                Mutation::NegativeDelay,
            ) => {
                self.seen_served += 1;
                if self.seen_served.is_multiple_of(50) {
                    TelemetryEvent::RequestServed {
                        time,
                        item,
                        class,
                        kind,
                        arrival: SimTime::new(time.as_f64() + 10.0),
                    }
                } else {
                    *event
                }
            }
            (TelemetryEvent::PullTx { .. }, Mutation::PhantomPullChannel) => {
                self.seen_pull += 1;
                if self.seen_pull.is_multiple_of(9) {
                    // Forward the event twice: an identical occupancy
                    // interval is exactly what a double-decremented
                    // idle-channel counter produces.
                    self.inner.record(event);
                }
                *event
            }
            (TelemetryEvent::PushTx { .. }, Mutation::DropPushTx) => {
                self.seen_push += 1;
                if self.seen_push.is_multiple_of(7) {
                    return;
                }
                *event
            }
            (
                TelemetryEvent::RequestServed {
                    time,
                    item,
                    class,
                    kind,
                    arrival,
                },
                Mutation::ReclassifyServed,
            ) => TelemetryEvent::RequestServed {
                time,
                item,
                class: ClassId(((class.index() + 1) % self.num_classes) as u8),
                kind,
                arrival,
            },
            _ => *event,
        };
        self.inner.record(&forwarded);
    }
}

/// A pull policy that negates another policy's score: the scheduler keeps
/// running, but always picks the item the real policy likes *least* — the
/// planted scheduler bug behind [`Mutation::InvertedScoring`].
#[derive(Debug)]
pub struct NegatedPolicy {
    inner: Box<dyn PullPolicy>,
}

impl NegatedPolicy {
    /// Negates the paper's importance policy at blend `alpha`.
    pub fn importance(alpha: f64) -> Box<dyn PullPolicy> {
        Box::new(NegatedPolicy {
            inner: PullPolicyKind::importance(alpha).build(),
        })
    }
}

impl PullPolicy for NegatedPolicy {
    fn name(&self) -> &'static str {
        "negated"
    }

    fn score(&self, entry: &PendingItem, ctx: &PullContext<'_>) -> f64 {
        -self.inner.score(entry, ctx)
    }

    fn score_is_local(&self) -> bool {
        self.inner.score_is_local()
    }

    fn rescore(&self, entry: &PendingItem, ctx: &IndexContext<'_>) -> Option<f64> {
        self.inner.rescore(entry, ctx).map(|s| -s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_telemetry::VecSink;
    use hybridcast_workload::catalog::ItemId;

    fn served(t: f64, class: u8) -> TelemetryEvent {
        TelemetryEvent::RequestServed {
            time: SimTime::new(t),
            item: ItemId(0),
            class: ClassId(class),
            kind: hybridcast_telemetry::ServiceKind::Pull,
            arrival: SimTime::new(t - 1.0),
        }
    }

    #[test]
    fn drop_blocked_swallows_only_blocked_events() {
        let mut sink = MutatingSink::new(VecSink::new(), Mutation::DropBlocked, 3);
        sink.record(&TelemetryEvent::RequestBlocked {
            time: SimTime::new(1.0),
            item: ItemId(0),
            class: ClassId(0),
        });
        sink.record(&served(2.0, 0));
        let events = sink.into_inner().into_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], TelemetryEvent::RequestServed { .. }));
    }

    #[test]
    fn reclassify_rotates_the_class() {
        let mut sink = MutatingSink::new(VecSink::new(), Mutation::ReclassifyServed, 3);
        sink.record(&served(2.0, 2));
        match sink.into_inner().into_events()[0] {
            TelemetryEvent::RequestServed { class, .. } => assert_eq!(class, ClassId(0)),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negated_policy_inverts_the_preference() {
        use hybridcast_core::queue::PullQueue;
        use hybridcast_sim::rng::{streams, RngFactory};
        use hybridcast_workload::catalog::Catalog;
        use hybridcast_workload::classes::ClassSet;
        use hybridcast_workload::lengths::LengthModel;
        use hybridcast_workload::popularity::PopularityModel;
        use hybridcast_workload::requests::Request;

        let classes = ClassSet::paper_default();
        let factory = RngFactory::new(77);
        let catalog = Catalog::build(
            10,
            &PopularityModel::zipf(1.0),
            &LengthModel::Uniform { min: 1, max: 5 },
            &mut factory.stream(streams::LENGTHS),
        );
        let mut queue = PullQueue::new(10);
        for &(t, item, class) in &[(0.0, 5u32, 0u8), (1.0, 7, 1), (2.0, 7, 2)] {
            let req = Request {
                arrival: SimTime::new(t),
                item: ItemId(item),
                class: ClassId(class),
            };
            queue.insert(&req, classes.priority(req.class));
        }
        let normal = PullPolicyKind::importance(0.5).build();
        let negated = NegatedPolicy::importance(0.5);
        let ctx = PullContext {
            catalog: &catalog,
            classes: &classes,
            now: SimTime::new(5.0),
            mean_queue_len: 2.0,
        };
        for entry in queue.iter() {
            assert!((normal.score(entry, &ctx) + negated.score(entry, &ctx)).abs() < 1e-12);
        }
    }
}
