//! A stable priority queue of timestamped events.
//!
//! [`EventQueue`] orders events by time; events scheduled for the *same*
//! instant are delivered in insertion (FIFO) order. FIFO stability matters
//! for reproducibility: the hybrid server schedules a transmission-complete
//! and the next dispatch at the same instant, and their relative order must
//! be deterministic across runs and platforms.
//!
//! Besides its heap the queue holds at most one *staged* event — the slot
//! a driver uses for an event it re-arms after every delivery, such as a
//! request stream's next arrival, so that event never pays for a heap
//! push and pop. A staged event draws its sequence number from the same
//! counter as [`EventQueue::push`], and every accessor compares it with
//! the heap top on the same `(time, seq)` key, so the FIFO contract covers
//! it too: the delivery order, ties included, is exactly what pushing it
//! would have given.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One scheduled entry: payload plus firing time plus a tie-breaking
/// sequence number.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (and, within a
        // tie, the first-inserted) entry surfaces first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-heap of events keyed by [`SimTime`] with FIFO tie-breaking, plus
/// one staged event beside it.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    staged: Option<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            staged: None,
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `cap` events before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            staged: None,
            next_seq: 0,
        }
    }

    /// `event` at `time` with the next sequence number.
    fn entry(&mut self, time: SimTime, event: E) -> Scheduled<E> {
        let seq = self.next_seq;
        self.next_seq += 1;
        Scheduled { time, seq, event }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let entry = self.entry(time, event);
        self.heap.push(entry);
    }

    /// Schedules `event` to fire at `time` in the staged slot beside the
    /// heap. It is ordered exactly as if [`push`](Self::push)ed now.
    ///
    /// # Panics
    /// Panics if an event is already staged.
    pub fn stage(&mut self, time: SimTime, event: E) {
        assert!(self.staged.is_none(), "an event is already staged");
        self.staged = Some(self.entry(time, event));
    }

    /// `true` when the staged event precedes the heap top (the heap's
    /// ordering is reversed: the greater entry fires first).
    fn staged_first(&self) -> bool {
        match (&self.staged, self.heap.peek()) {
            (Some(staged), Some(top)) => staged > top,
            (staged, _) => staged.is_some(),
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let next = if self.staged_first() {
            self.staged.take()
        } else {
            self.heap.pop()
        };
        next.map(|s| (s.time, s.event))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.staged_first() {
            self.staged.as_ref().map(|s| s.time)
        } else {
            self.heap.peek().map(|s| s.time)
        }
    }

    /// Number of pending events, the staged one included.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.staged.is_some())
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.staged.is_none()
    }

    /// Discards all pending events, the staged one included.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.staged = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(3.0), "c");
        q.push(SimTime::new(1.0), "a");
        q.push(SimTime::new(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::new(5.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_ties_stay_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(1.0), "t1-first");
        q.push(SimTime::new(2.0), "t2-first");
        q.push(SimTime::new(1.0), "t1-second");
        q.push(SimTime::new(2.0), "t2-second");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec!["t1-first", "t1-second", "t2-first", "t2-second"]
        );
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::new(7.0), ());
        q.push(SimTime::new(4.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::new(4.0)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::new(4.0));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 3);
        assert_eq!(q.len(), 1);
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect()
    }

    #[test]
    fn staged_before_heap_at_equal_times_when_staged_first() {
        let mut q = EventQueue::new();
        let t = SimTime::new(3.0);
        q.stage(t, "staged");
        q.push(t, "heap");
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(drain(&mut q), vec!["staged", "heap"]);
    }

    #[test]
    fn heap_before_staged_at_equal_times_when_pushed_first() {
        let mut q = EventQueue::new();
        let t = SimTime::new(3.0);
        q.push(t, "heap");
        q.stage(t, "staged");
        assert_eq!(drain(&mut q), vec!["heap", "staged"]);
    }

    #[test]
    fn staged_event_orders_by_time_first() {
        let mut q = EventQueue::new();
        q.stage(SimTime::new(2.0), "staged");
        q.push(SimTime::new(1.0), "early");
        q.push(SimTime::new(3.0), "late");
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        assert_eq!(drain(&mut q), vec!["early", "staged", "late"]);
        // the slot frees up once its event is delivered
        q.stage(SimTime::new(4.0), "again");
        assert_eq!(drain(&mut q), vec!["again"]);
    }

    #[test]
    fn accessors_count_the_staged_event() {
        let mut q = EventQueue::new();
        q.stage(SimTime::new(5.0), 0);
        assert!(!q.is_empty());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::new(5.0)));
        q.push(SimTime::new(6.0), 1);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        // clearing empties the slot, so staging again is allowed
        q.stage(SimTime::new(1.0), 2);
        assert_eq!(q.pop(), Some((SimTime::new(1.0), 2)));
    }

    #[test]
    #[should_panic(expected = "already staged")]
    fn staging_twice_panics() {
        let mut q = EventQueue::new();
        q.stage(SimTime::new(1.0), ());
        q.stage(SimTime::new(2.0), ());
    }
}
