//! An indexed binary heap: one record at most per dense slot, which knows
//! where its record sits, so a record moves or leaves in place in O(log n).
//! The pull queue's score index and the channel core's timers are these.

/// A heap record: its order, and the dense slot it is filed under.
pub(crate) trait Record: Copy {
    /// Whether `self` belongs nearer the root than `other` (a strict total
    /// order over one heap's records).
    fn above(&self, other: &Self) -> bool;
    /// The slot the record is filed under.
    fn slot(&self) -> usize;
}

/// The heap; its tables are open to the pull queue's shadow audit.
#[derive(Debug, Clone)]
pub(crate) struct IndexedHeap<R> {
    /// The records, each above its children.
    pub(crate) heap: Vec<R>,
    /// Per slot, its record's position in `heap`; grows to the highest
    /// slot filed.
    pub(crate) pos: Vec<Option<u32>>,
}

impl<R: Record> IndexedHeap<R> {
    /// An empty heap with room for `slots` slots.
    pub(crate) fn new(slots: usize) -> Self {
        IndexedHeap {
            heap: Vec::new(),
            pos: vec![None; slots],
        }
    }

    /// The record above all others.
    pub(crate) fn peek(&self) -> Option<R> {
        self.heap.first().copied()
    }

    /// Files `record` under its slot, in place of the slot's record if it
    /// has one; the order may move either way.
    pub(crate) fn set(&mut self, record: R) {
        let slot = record.slot();
        if slot >= self.pos.len() {
            self.pos.resize(slot + 1, None);
        }
        let at = match self.pos[slot] {
            Some(at) => at as usize,
            None => {
                self.heap.push(record);
                self.heap.len() - 1
            }
        };
        self.sift(at, record);
    }

    /// Drops `slot`'s record, if it has one; the last record takes its
    /// place.
    pub(crate) fn remove(&mut self, slot: usize) {
        if let Some(at) = self.pos.get_mut(slot).and_then(Option::take) {
            let last = self.heap.pop().expect("a filed slot has a record");
            if (at as usize) < self.heap.len() {
                self.sift(at as usize, last);
            }
        }
    }

    /// Stores `record` at heap position `at` or wherever heap order puts it
    /// from there: up past every parent it beats, or else down past every
    /// child that beats it. Every record it passes gets its new position.
    fn sift(&mut self, mut at: usize, record: R) {
        let start = at;
        while at > 0 && record.above(&self.heap[(at - 1) / 2]) {
            let parent = (at - 1) / 2;
            self.place(at, self.heap[parent]);
            at = parent;
        }
        if at == start {
            loop {
                let left = 2 * at + 1;
                let Some(&left_record) = self.heap.get(left) else {
                    break;
                };
                let (child, child_record) = match self.heap.get(left + 1) {
                    Some(&right) if right.above(&left_record) => (left + 1, right),
                    _ => (left, left_record),
                };
                if !child_record.above(&record) {
                    break;
                }
                self.place(at, child_record);
                at = child;
            }
        }
        self.place(at, record);
    }

    /// Writes `record` at heap position `at` and points its slot there.
    fn place(&mut self, at: usize, record: R) {
        self.heap[at] = record;
        self.pos[record.slot()] = Some(at as u32);
    }
}
