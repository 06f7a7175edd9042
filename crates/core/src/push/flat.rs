//! Flat round-robin broadcast — the paper's push schedule.
//!
//! Items `0..K` are broadcast cyclically in rank order. Every item appears
//! exactly once per cycle, so a client requesting push item `i` waits on
//! average half the cycle length `½·Σ_{j<K} L_j` (plus its own transmission)
//! regardless of popularity — the "fixed average delay" §2 attributes to
//! flat scheduling.

use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::ItemId;

use crate::push::PushScheduler;

/// Cyclic broadcast of a fixed item list (rank order for the paper's
/// prefix push set; any ordering for a re-ranked set).
#[derive(Debug, Clone)]
pub struct FlatRoundRobin {
    items: Vec<ItemId>,
    cursor: usize,
}

impl FlatRoundRobin {
    /// A flat schedule over the rank prefix `0..k` (the paper's push set).
    pub fn new(k: usize) -> Self {
        Self::over_items((0..k as u32).map(ItemId).collect())
    }

    /// A flat schedule over an arbitrary ordered item list.
    pub(crate) fn over_items(items: Vec<ItemId>) -> Self {
        FlatRoundRobin { items, cursor: 0 }
    }

    /// The item the next call to `next` will return (if any).
    pub fn peek(&self) -> Option<ItemId> {
        self.items.get(self.cursor).copied()
    }
}

impl PushScheduler for FlatRoundRobin {
    fn name(&self) -> &'static str {
        "flat"
    }

    fn push_set_size(&self) -> usize {
        self.items.len()
    }

    fn next(&mut self, _now: SimTime) -> Option<ItemId> {
        if self.items.is_empty() {
            return None;
        }
        let item = self.items[self.cursor];
        self.cursor = (self.cursor + 1) % self.items.len();
        Some(item)
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_in_rank_order() {
        let mut s = FlatRoundRobin::new(3);
        let order: Vec<u32> = (0..7).map(|_| s.next(SimTime::ZERO).unwrap().0).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn every_item_once_per_cycle() {
        let mut s = FlatRoundRobin::new(10);
        let mut counts = [0u32; 10];
        for _ in 0..100 {
            counts[s.next(SimTime::ZERO).unwrap().index()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10));
    }

    #[test]
    fn reset_restarts_the_cycle() {
        let mut s = FlatRoundRobin::new(3);
        s.next(SimTime::ZERO);
        s.next(SimTime::ZERO);
        s.reset();
        assert_eq!(s.peek(), Some(ItemId(0)));
    }

    #[test]
    fn over_items_preserves_given_order() {
        let mut s = FlatRoundRobin::over_items(vec![ItemId(7), ItemId(2), ItemId(9)]);
        let order: Vec<u32> = (0..6).map(|_| s.next(SimTime::ZERO).unwrap().0).collect();
        assert_eq!(order, vec![7, 2, 9, 7, 2, 9]);
    }

    #[test]
    fn empty_push_set() {
        let mut s = FlatRoundRobin::new(0);
        assert_eq!(s.next(SimTime::ZERO), None);
        assert_eq!(s.peek(), None);
    }
}
