//! Model-based property test: the production [`PullQueue`] against a
//! naive reference implementation (a `Vec` of raw requests) under
//! arbitrary interleavings of inserts, selections, removals and drains.

use proptest::prelude::*;
use std::collections::BTreeMap;

use hybridcast_core::queue::PullQueue;
use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::ItemId;
use hybridcast_workload::classes::ClassId;
use hybridcast_workload::requests::Request;

const D: usize = 12;

/// The reference model: a flat list of (arrival-sequence, request,
/// priority) entries.
#[derive(Default)]
struct Model {
    entries: Vec<(Request, f64)>,
}

impl Model {
    fn insert(&mut self, req: Request, prio: f64) {
        self.entries.push((req, prio));
    }

    fn count(&self, item: ItemId) -> usize {
        self.entries.iter().filter(|(r, _)| r.item == item).count()
    }

    fn total_priority(&self, item: ItemId) -> f64 {
        self.entries
            .iter()
            .filter(|(r, _)| r.item == item)
            .map(|(_, p)| p)
            .sum()
    }

    fn remove(&mut self, item: ItemId) -> Vec<(Request, f64)> {
        let (taken, kept): (Vec<_>, Vec<_>) =
            self.entries.drain(..).partition(|(r, _)| r.item == item);
        self.entries = kept;
        taken
    }

    fn active_items(&self) -> Vec<u32> {
        let mut by: BTreeMap<u32, ()> = BTreeMap::new();
        for (r, _) in &self.entries {
            by.insert(r.item.0, ());
        }
        by.into_keys().collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert { item: u32, class: u8 },
    RemoveBest,
    DrainBelow { k: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..D as u32, 0u8..3).prop_map(|(item, class)| Op::Insert { item, class }),
        2 => Just(Op::RemoveBest),
        1 => (0usize..=D).prop_map(|k| Op::DrainBelow { k }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pull_queue_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..250)) {
        let mut q = PullQueue::new(D);
        let mut model = Model::default();
        let mut t = 0.0f64;
        for op in ops {
            match op {
                Op::Insert { item, class } => {
                    t += 0.25;
                    let prio = (3 - class) as f64; // weights 3,2,1
                    let req = Request {
                        arrival: SimTime::new(t),
                        item: ItemId(item),
                        class: ClassId(class),
                    };
                    q.insert(&req, prio);
                    model.insert(req, prio);
                }
                Op::RemoveBest => {
                    // deterministic score: total priority, ties to lower id
                    let selected = q.select_max(|e| e.total_priority);
                    match selected {
                        Some(item) => {
                            let entry = q.remove(item);
                            let reference = model.remove(item);
                            prop_assert_eq!(entry.count(), reference.len());
                            let ref_prio: f64 = reference.iter().map(|(_, p)| p).sum();
                            prop_assert!((entry.total_priority - ref_prio).abs() < 1e-9);
                            // the selected item maximizes the model's score
                            for other in model.active_items() {
                                prop_assert!(
                                    model.total_priority(ItemId(other)) <= ref_prio + 1e-9,
                                    "queue picked {} (Q={ref_prio}) but item {} has more",
                                    item.0,
                                    other
                                );
                            }
                        }
                        None => prop_assert!(model.entries.is_empty()),
                    }
                }
                Op::DrainBelow { k } => {
                    let drained = q.drain_below(k);
                    let mut ref_total = 0usize;
                    for item in 0..k as u32 {
                        ref_total += model.remove(ItemId(item)).len();
                    }
                    let got: usize = drained.iter().map(|e| e.count()).sum();
                    prop_assert_eq!(got, ref_total);
                }
            }
            // standing invariants after every operation
            prop_assert_eq!(q.total_requests(), model.entries.len());
            let active: Vec<u32> = q.iter().map(|e| e.item.0).collect();
            prop_assert_eq!(active, model.active_items());
            for e in q.iter() {
                prop_assert_eq!(e.count(), model.count(e.item));
                prop_assert!((e.total_priority - model.total_priority(e.item)).abs() < 1e-9);
                // the first arrival is no later than any requester's
                for &(a, _) in &e.requesters {
                    prop_assert!(a >= e.first_arrival);
                }
            }
        }
    }
}
