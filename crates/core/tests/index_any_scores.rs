//! Property test for the score index under scores no policy produces:
//! `reindex` with arbitrary values that go up, go down, repeat, and include
//! ±0.0 and values near the largest finite `f64`, interleaved with inserts,
//! removals and drains. After every operation the indexed selection must
//! equal the scan over the scores last published, and the queue's audit
//! (which checks one heap record per active item, positions and heap
//! order) must come back clean.

use proptest::prelude::*;

use hybridcast_core::queue::PullQueue;
use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::ItemId;
use hybridcast_workload::classes::ClassId;
use hybridcast_workload::requests::Request;

const D: u32 = 10;

#[derive(Debug, Clone)]
enum Op {
    /// Queue a request for `item`, then publish `score` for it.
    Insert { item: u32, score: f64 },
    /// Publish `score` for the `pick`-th active item, if any.
    Rescore { pick: usize, score: f64 },
    /// Serve the indexed choice.
    RemoveBest,
    /// Remove the `pick`-th active item, if any.
    Remove { pick: usize },
    /// Drop every active item whose bit is set in `mask`.
    DrainMatching { mask: u16 },
}

fn score_strategy() -> BoxedStrategy<f64> {
    prop_oneof![
        4 => (-3i32..=3).prop_map(f64::from),
        2 => -1e6f64..1e6,
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => Just(f64::MAX),
        1 => Just(-f64::MAX),
        1 => Just(1e300),
        1 => Just(f64::MIN_POSITIVE),
    ]
    .boxed()
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        4 => (0u32..D, score_strategy()).prop_map(|(item, score)| Op::Insert { item, score }),
        4 => (0usize..D as usize, score_strategy())
            .prop_map(|(pick, score)| Op::Rescore { pick, score }),
        2 => Just(Op::RemoveBest),
        1 => (0usize..D as usize).prop_map(|pick| Op::Remove { pick }),
        1 => (0u16..1 << D).prop_map(|mask| Op::DrainMatching { mask }),
    ]
    .boxed()
}

/// The `pick`-th active item, wrapping around the active count.
fn nth_active(q: &PullQueue, pick: usize) -> Option<ItemId> {
    let n = q.len();
    (n > 0).then(|| q.iter().nth(pick % n).expect("in range").item)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indexed_selection_follows_arbitrary_score_sequences(
        ops in proptest::collection::vec(op_strategy(), 1..200)
    ) {
        let mut q = PullQueue::new(D as usize);
        let mut published = [f64::NAN; D as usize];
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert { item, score } => {
                    q.insert(
                        &Request {
                            arrival: SimTime::new(step as f64),
                            item: ItemId(item),
                            class: ClassId(0),
                        },
                        1.0,
                    );
                    q.reindex(ItemId(item), score);
                    published[item as usize] = score;
                }
                Op::Rescore { pick, score } => {
                    if let Some(item) = nth_active(&q, pick) {
                        q.reindex(item, score);
                        published[item.index()] = score;
                    }
                }
                Op::RemoveBest => {
                    if let Some(item) = q.select_max_indexed() {
                        q.remove(item);
                    }
                }
                Op::Remove { pick } => {
                    if let Some(item) = nth_active(&q, pick) {
                        q.remove(item);
                    }
                }
                Op::DrainMatching { mask } => {
                    q.drain_matching(|item| mask & (1 << item.0) != 0);
                }
            }
            let scan = q.select_max(|e| published[e.item.index()]);
            prop_assert_eq!(q.select_max_indexed(), scan, "after step {}", step);
            let audit = q.verify_shadow(|_| 1.0);
            prop_assert!(audit.is_empty(), "after step {}: {:?}", step, audit);
        }
    }
}
