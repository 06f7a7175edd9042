//! The server-side pull queue.
//!
//! Requests for pull items are *aggregated per item* (Fig. 1 of the paper):
//! the queue stores, for each item with pending requests, the request count
//! `R_i`, the accumulated requester priority `Q_i = Σ q_j`, and the
//! individual `(arrival, class)` pairs so the simulator can attribute the
//! exact delay of every requester when the item is finally transmitted.
//! Serving an item clears *all* its pending requests at once (batch
//! service), which is what keeps the pull side bounded: the queue never
//! holds more than `D − K` distinct items.
//!
//! # Selection
//!
//! Two selection paths share one tie-break contract (equal scores go to the
//! lower [`ItemId`]):
//!
//! * [`PullQueue::select_max`] — the original linear scan over the active
//!   items; policies see the full [`PendingItem`]. O(active) per slot.
//! * [`PullQueue::select_max_indexed`] — an O(1) peek at a binary
//!   max-heap holding exactly one `(score, item)` record per indexed item,
//!   with each slot's position in it. [`PullQueue::reindex`] moves an
//!   item's record in place and every extraction swap-removes it, O(log n)
//!   each. Usable whenever the policy's score depends only on
//!   queue-event-local state (see the `score_is_local` capability on
//!   `PullPolicy` and the "Scheduler complexity" section of `DESIGN.md`).
//!
//! The index exploits the paper's Eq. 1 structure: a request arrival
//! changes the score of *one* item, so the heap absorbs one sift per
//! insert instead of rescoring the whole queue per slot.

use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::ItemId;
use hybridcast_workload::classes::ClassId;
use hybridcast_workload::requests::Request;

use crate::heap::{IndexedHeap, Record};

/// One queued item with all its pending requests.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingItem {
    /// The item awaiting a pull transmission.
    pub item: ItemId,
    /// Accumulated requester priority `Q_i = Σ_{j ∈ requesters} q_j`.
    pub total_priority: f64,
    /// Arrival time of the oldest pending request.
    pub first_arrival: SimTime,
    /// Every pending request: `(arrival, class)`.
    pub requesters: Vec<(SimTime, ClassId)>,
    /// Dense pending-request count per class, indexed by `ClassId`; the
    /// length is `1 + max class index seen` on this entry.
    class_counts: Vec<u32>,
    /// Sum of all requester arrival times `Σ A_j` — gives O(1) total-wait
    /// scores (`R_i·now − Σ A_j`) and mean-delay attribution.
    arrival_sum: f64,
}

impl PendingItem {
    fn new(req: &Request, priority: f64) -> Self {
        let mut entry = PendingItem {
            item: req.item,
            total_priority: 0.0,
            first_arrival: req.arrival,
            requesters: Vec::with_capacity(4),
            class_counts: Vec::new(),
            arrival_sum: 0.0,
        };
        entry.push_request(req, priority);
        entry
    }

    /// Reinitializes a recycled entry for `req` (capacity is retained).
    fn reset(&mut self, req: &Request, priority: f64) {
        debug_assert!(self.requesters.is_empty(), "recycled entry must be clear");
        self.item = req.item;
        self.total_priority = 0.0;
        self.first_arrival = req.arrival;
        self.arrival_sum = 0.0;
        self.push_request(req, priority);
    }

    /// Folds one request into the aggregates.
    fn push_request(&mut self, req: &Request, priority: f64) {
        self.total_priority += priority;
        // Uplink latency can deliver requests out of arrival order; keep
        // the true oldest.
        self.first_arrival = self.first_arrival.min(req.arrival);
        self.requesters.push((req.arrival, req.class));
        let c = req.class.index();
        if c >= self.class_counts.len() {
            self.class_counts.resize(c + 1, 0);
        }
        self.class_counts[c] += 1;
        self.arrival_sum += req.arrival.as_f64();
    }

    /// Clears the aggregates for pooling, keeping allocated capacity.
    fn clear(&mut self) {
        self.requesters.clear();
        self.class_counts.clear();
    }

    /// Number of pending requests `R_i`.
    #[inline]
    pub fn count(&self) -> usize {
        self.requesters.len()
    }

    /// The class with the most pending requesters, ties broken toward the
    /// higher-priority (smaller) `ClassId`; used by the bandwidth manager
    /// to decide whose partition a transmission draws from. `None` only
    /// for an entry with no requesters, which the queue never hands out.
    pub fn dominant_class(&self) -> Option<ClassId> {
        self.class_counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            // max_by_key keeps the *last* maximum, so scan from the highest
            // class id down: the lowest id wins ties.
            .rev()
            .max_by_key(|&(_, &n)| n)
            .map(|(i, _)| ClassId(i as u8))
    }

    /// Writes the pending request count per class into `counts`.
    ///
    /// # Panics
    /// Panics if `counts` is shorter than the highest class index seen on
    /// this entry.
    pub(crate) fn class_counts(&self, counts: &mut [usize]) {
        assert!(
            counts.len() >= self.class_counts.len(),
            "need {} class slots, got {}",
            self.class_counts.len(),
            counts.len()
        );
        counts.fill(0);
        for (out, &n) in counts.iter_mut().zip(&self.class_counts) {
            *out = n as usize;
        }
    }

    /// Sum of all requester arrival times `Σ A_j`. The total accumulated
    /// wait at time `t` is `count()·t − arrival_sum()` without walking
    /// `requesters`.
    pub(crate) fn arrival_sum(&self) -> f64 {
        self.arrival_sum
    }
}

/// The score index's order: the higher score, then the lower item id — the
/// scan's tie-break (`reindex` keeps out NaN and folds −0.0 into 0.0, so
/// `total_cmp` agrees with the scan's `<=`). Filed by item.
impl Record for (f64, u32) {
    fn above(&self, b: &Self) -> bool {
        self.0.total_cmp(&b.0).then_with(|| b.1.cmp(&self.1)) == std::cmp::Ordering::Greater
    }

    fn slot(&self) -> usize {
        self.1 as usize
    }
}

/// The pull queue: per-item request aggregation with linear-scan *and*
/// heap-indexed selection (see the module docs for when each applies).
#[derive(Debug, Clone)]
pub struct PullQueue {
    /// Slot per catalog item; `None` when the item has no pending requests.
    slots: Vec<Option<PendingItem>>,
    /// Number of `Some` slots.
    active: usize,
    /// Total pending requests across all items.
    total_requests: usize,
    /// Lifetime counters.
    inserted: u64,
    served_items: u64,
    served_requests: u64,
    /// The score index: one `(score, item)` record per reindexed active
    /// item, highest score on top; empty unless `reindex` is used.
    index: IndexedHeap<(f64, u32)>,
    /// Recycled entries whose buffers are reused by `insert`.
    pool: Vec<PendingItem>,
}

/// Upper bound on pooled entries — enough to cover the in-flight batches
/// of any channel layout without holding memory proportional to the
/// catalog.
const POOL_LIMIT: usize = 1024;

impl PullQueue {
    /// A queue over a catalog of `num_items` items.
    pub fn new(num_items: usize) -> Self {
        PullQueue {
            slots: vec![None; num_items],
            active: 0,
            total_requests: 0,
            inserted: 0,
            served_items: 0,
            served_requests: 0,
            index: IndexedHeap::new(num_items),
            pool: Vec::new(),
        }
    }

    /// Appends `req` (with its requester's priority weight `q_j`) to the
    /// queue, creating the item entry on first request. The index is left
    /// alone; callers maintaining it must [`PullQueue::reindex`] the item
    /// afterwards.
    pub fn insert(&mut self, req: &Request, priority: f64) {
        debug_assert!(priority > 0.0, "priority weights are positive");
        match &mut self.slots[req.item.index()] {
            Some(entry) => entry.push_request(req, priority),
            slot @ None => {
                *slot = Some(match self.pool.pop() {
                    Some(mut recycled) => {
                        recycled.reset(req, priority);
                        recycled
                    }
                    None => PendingItem::new(req, priority),
                });
                self.active += 1;
            }
        }
        self.total_requests += 1;
        self.inserted += 1;
    }

    /// Returns a consumed entry's buffers to the allocation pool. Entirely
    /// optional — skipping it only costs fresh allocations on later
    /// inserts.
    pub fn recycle(&mut self, mut entry: PendingItem) {
        if self.pool.len() < POOL_LIMIT {
            entry.clear();
            self.pool.push(entry);
        }
    }

    /// The entry for `item`, if it has pending requests.
    pub fn get(&self, item: ItemId) -> Option<&PendingItem> {
        self.slots[item.index()].as_ref()
    }

    /// Iterates over all items with pending requests, in ascending item
    /// order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &PendingItem> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Picks the active item maximizing `score`, ties broken toward the
    /// more popular (lower-ranked) item — deterministic across runs.
    /// Returns `None` when the queue is empty.
    pub fn select_max<F>(&self, mut score: F) -> Option<ItemId>
    where
        F: FnMut(&PendingItem) -> f64,
    {
        let mut best: Option<(f64, ItemId)> = None;
        for entry in self.iter() {
            let s = score(entry);
            debug_assert!(!s.is_nan(), "policy produced NaN score for {}", entry.item);
            match best {
                Some((bs, _)) if s <= bs => {}
                _ => best = Some((s, entry.item)),
            }
        }
        best.map(|(_, id)| id)
    }

    /// Publishes `score` as `item`'s current index score. Must be called
    /// after every [`PullQueue::insert`] touching `item` for
    /// [`PullQueue::select_max_indexed`] to be usable. The score may move
    /// either way; the item's one record is sifted from where it is.
    ///
    /// # Panics
    /// Panics (debug) if `item` has no pending requests or `score` is NaN.
    pub fn reindex(&mut self, item: ItemId, score: f64) {
        debug_assert!(!score.is_nan(), "index score for {item} is NaN");
        debug_assert!(
            self.slots[item.index()].is_some(),
            "{item} is not in the pull queue"
        );
        // Fold −0.0 into 0.0 so total_cmp ties exactly where the scan's
        // `<=` ties.
        let score = if score == 0.0 { 0.0 } else { score };
        self.index.set((score, item.0));
    }

    /// The indexed counterpart of [`PullQueue::select_max`]: the item with
    /// the highest indexed score, ties broken toward the lower item id —
    /// decision-identical to a scan of the same scores. O(1).
    ///
    /// Requires every active item to have an index score (insert →
    /// reindex discipline); coverage is asserted in debug builds.
    pub fn select_max_indexed(&self) -> Option<ItemId> {
        debug_assert_eq!(
            self.index.heap.len(),
            self.active,
            "indexed selection requires every active item to be reindexed"
        );
        self.index.peek().map(|(_, item)| ItemId(item))
    }

    /// Removes `item` from the queue, returning its aggregated entry. Used
    /// both when the item is served and when it is dropped (blocked).
    ///
    /// # Panics
    /// Panics if `item` has no pending requests.
    pub fn remove(&mut self, item: ItemId) -> PendingItem {
        self.take(item.index())
            .unwrap_or_else(|| panic!("{item} is not in the pull queue"))
    }

    /// Extracts slot `idx`'s entry, if any, with its index record.
    fn take(&mut self, idx: usize) -> Option<PendingItem> {
        let entry = self.slots[idx].take()?;
        self.index.remove(idx);
        self.active -= 1;
        self.total_requests -= entry.count();
        // Every extraction is credited, cutoff migration included: without
        // that the lifetime ledger `inserted = extracted + pending` breaks
        // after every cutoff move.
        self.served_items += 1;
        self.served_requests += entry.count() as u64;
        Some(entry)
    }

    /// Number of distinct items with pending requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.active
    }

    /// `true` when no item has pending requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.active == 0
    }

    /// Total pending requests across all items.
    #[inline]
    pub fn total_requests(&self) -> usize {
        self.total_requests
    }

    /// Removes and returns every queued entry whose item rank is below
    /// `k` — used when the cutoff moves up and those items join the push
    /// set (their requesters will be satisfied by the broadcast instead).
    pub fn drain_below(&mut self, k: usize) -> Vec<PendingItem> {
        let k = k.min(self.slots.len());
        (0..k).filter_map(|idx| self.take(idx)).collect()
    }

    /// Removes and returns every queued entry whose item satisfies `pred`
    /// — the membership-based generalization of [`PullQueue::drain_below`]
    /// used by the re-ranking adaptive controller.
    pub fn drain_matching<F: FnMut(ItemId) -> bool>(&mut self, mut pred: F) -> Vec<PendingItem> {
        let mut out = Vec::new();
        for idx in 0..self.slots.len() {
            if self.slots[idx].as_ref().is_some_and(|e| pred(e.item)) {
                out.extend(self.take(idx));
            }
        }
        out
    }

    /// Lifetime count of requests ever inserted.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Lifetime count of item extractions (serves + drops).
    pub fn extracted_items(&self) -> u64 {
        self.served_items
    }

    /// Shadow recount of every incrementally-maintained aggregate: walks
    /// all entries and recomputes `R_i` (count), `Q_i` (total priority),
    /// the per-class counts, the queue-wide request total and the lifetime
    /// conservation identity `inserted = requests cleared by extractions +
    /// total_requests` from scratch, comparing each against its cached
    /// counterpart. `priority_of` maps a requester's class to its priority
    /// weight `q_j` (normally `|q| ClassSet::priority(q)`). Once the score
    /// index is in use (its heap is non-empty) it is audited too: every
    /// active slot has exactly one record, each position and its record
    /// point at each other, and the heap order holds.
    ///
    /// O(total requests + catalog) — this is the testing harness's queue oracle, run
    /// at audit points (faults, retunes, horizon), not on the hot path.
    /// Returns every discrepancy found, empty when the queue is
    /// consistent.
    pub fn verify_shadow(&self, priority_of: impl Fn(ClassId) -> f64) -> Vec<String> {
        let mut bad = Vec::new();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
        let mut active = 0usize;
        let mut total = 0usize;
        for (idx, slot) in self.slots.iter().enumerate() {
            let Some(e) = slot else { continue };
            active += 1;
            total += e.requesters.len();
            if e.item.index() != idx {
                bad.push(format!("slot {idx} holds entry for item {}", e.item));
            }
            if e.requesters.is_empty() {
                bad.push(format!("item {idx}: active entry with no requesters"));
                continue;
            }
            let n = e.requesters.len();
            let first = e
                .requesters
                .iter()
                .map(|r| r.0)
                .fold(e.requesters[0].0, SimTime::min);
            if e.first_arrival != first {
                bad.push(format!(
                    "item {idx}: first_arrival {} vs recount {first}",
                    e.first_arrival
                ));
            }
            let arrival_sum: f64 = e.requesters.iter().map(|r| r.0.as_f64()).sum();
            if !close(e.arrival_sum, arrival_sum) {
                bad.push(format!(
                    "item {idx}: arrival_sum {} vs recount {arrival_sum}",
                    e.arrival_sum
                ));
            }
            let q_i: f64 = e.requesters.iter().map(|r| priority_of(r.1)).sum();
            if !close(e.total_priority, q_i) {
                bad.push(format!(
                    "item {idx}: Q_i {} vs recount {q_i}",
                    e.total_priority
                ));
            }
            let width = e.class_counts.len();
            let mut counts = vec![0u32; width];
            for &(_, c) in &e.requesters {
                if c.index() >= width {
                    bad.push(format!("item {idx}: class {c} beyond aggregate width"));
                    continue;
                }
                counts[c.index()] += 1;
            }
            if counts != e.class_counts {
                bad.push(format!(
                    "item {idx}: class_counts {:?} vs recount {counts:?}",
                    e.class_counts
                ));
            }
            let count_sum: u32 = e.class_counts.iter().sum();
            if count_sum as usize != n {
                bad.push(format!(
                    "item {idx}: class_counts sum {count_sum} vs R_i {n}"
                ));
            }
        }
        if active != self.active {
            bad.push(format!(
                "active entries {} vs recount {active}",
                self.active
            ));
        }
        if total != self.total_requests {
            bad.push(format!(
                "total_requests {} vs recount {total}",
                self.total_requests
            ));
        }
        if self.inserted != self.served_requests + self.total_requests as u64 {
            bad.push(format!(
                "conservation: inserted {} ≠ extracted {} + pending {}",
                self.inserted, self.served_requests, self.total_requests
            ));
        }
        let (heap, pos) = (&self.index.heap, &self.index.pos);
        let indexed = !heap.is_empty();
        let mut records = vec![0u32; self.slots.len()];
        for (at, &(score, item)) in heap.iter().enumerate() {
            let Some(n) = records.get_mut(item as usize) else {
                bad.push(format!("index record {at} names unknown item {item}"));
                continue;
            };
            *n += 1;
            if pos[item as usize] != Some(at as u32) {
                bad.push(format!(
                    "index record {at} is item {item}, whose position is {:?}",
                    pos[item as usize]
                ));
            }
            if at > 0 && heap[at].above(&heap[(at - 1) / 2]) {
                bad.push(format!(
                    "index record {at} (item {item}, score {score}) beats its parent"
                ));
            }
        }
        for (idx, (slot, &n)) in self.slots.iter().zip(&records).enumerate() {
            let expected = u32::from(indexed && slot.is_some());
            if n != expected {
                bad.push(format!(
                    "item {idx}: {n} index records, expected {expected}"
                ));
            }
            if n == 0 && pos[idx].is_some() {
                bad.push(format!(
                    "item {idx}: position {:?} but no index record",
                    pos[idx]
                ));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: f64, item: u32, class: u8) -> Request {
        Request {
            arrival: SimTime::new(t),
            item: ItemId(item),
            class: ClassId(class),
        }
    }

    #[test]
    fn insert_aggregates_per_item() {
        let mut q = PullQueue::new(10);
        q.insert(&req(1.0, 3, 0), 3.0);
        q.insert(&req(2.0, 3, 2), 1.0);
        q.insert(&req(3.0, 5, 1), 2.0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_requests(), 3);
        let e = q.get(ItemId(3)).unwrap();
        assert_eq!(e.count(), 2);
        assert!((e.total_priority - 4.0).abs() < 1e-12);
        assert_eq!(e.first_arrival, SimTime::new(1.0));
        assert!((e.arrival_sum() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dominant_class_is_highest_priority() {
        let mut q = PullQueue::new(10);
        q.insert(&req(1.0, 3, 2), 1.0);
        q.insert(&req(2.0, 3, 0), 3.0);
        q.insert(&req(3.0, 3, 1), 2.0);
        let e = q.get(ItemId(3)).unwrap();
        assert_eq!(e.dominant_class(), Some(ClassId(0)));
        let mut counts = [0usize; 3];
        e.class_counts(&mut counts);
        assert_eq!(counts, [1, 1, 1]);
    }

    #[test]
    fn dominant_class_is_the_most_numerous_not_the_first_nonzero() {
        // Regression: one class-0 requester batched with three class-2
        // ones must draw from class 2's partition. The pre-fix
        // first-nonzero scan answered ClassId(0) here.
        let mut q = PullQueue::new(10);
        q.insert(&req(1.0, 3, 0), 3.0);
        q.insert(&req(2.0, 3, 2), 1.0);
        q.insert(&req(3.0, 3, 2), 1.0);
        q.insert(&req(4.0, 3, 2), 1.0);
        let e = q.get(ItemId(3)).unwrap();
        assert_eq!(e.dominant_class(), Some(ClassId(2)));

        // A strict majority in a middle class wins over both neighbors.
        let mut q = PullQueue::new(10);
        q.insert(&req(1.0, 4, 0), 3.0);
        q.insert(&req(2.0, 4, 1), 2.0);
        q.insert(&req(3.0, 4, 1), 2.0);
        q.insert(&req(4.0, 4, 2), 1.0);
        let e = q.get(ItemId(4)).unwrap();
        assert_eq!(e.dominant_class(), Some(ClassId(1)));
    }

    #[test]
    fn class_aggregates_track_inserts() {
        let mut q = PullQueue::new(10);
        q.insert(&req(1.0, 3, 2), 1.0);
        q.insert(&req(4.0, 3, 2), 1.0);
        q.insert(&req(2.0, 3, 1), 2.0);
        let e = q.get(ItemId(3)).unwrap();
        assert!((e.arrival_sum() - 7.0).abs() < 1e-12);
        // a wider caller buffer is zero-filled beyond the seen classes
        let mut counts = [9usize; 5];
        e.class_counts(&mut counts);
        assert_eq!(counts, [0, 1, 2, 0, 0]);
    }

    #[test]
    fn select_max_picks_highest_score() {
        let mut q = PullQueue::new(10);
        q.insert(&req(1.0, 2, 0), 1.0);
        q.insert(&req(1.5, 7, 0), 1.0);
        q.insert(&req(2.0, 7, 0), 1.0);
        // score = count → item 7 wins
        let sel = q.select_max(|e| e.count() as f64).unwrap();
        assert_eq!(sel, ItemId(7));
    }

    #[test]
    fn select_max_ties_break_to_lower_rank() {
        let mut q = PullQueue::new(10);
        q.insert(&req(1.0, 8, 0), 1.0);
        q.insert(&req(1.0, 4, 0), 1.0);
        let sel = q.select_max(|_| 1.0).unwrap();
        assert_eq!(sel, ItemId(4));
    }

    #[test]
    fn select_on_empty_is_none() {
        let q = PullQueue::new(5);
        assert_eq!(q.select_max(|e| e.count() as f64), None);
    }

    #[test]
    fn indexed_select_matches_scan() {
        let mut q = PullQueue::new(10);
        for &(t, i) in &[(1.0, 2u32), (1.5, 7), (2.0, 7), (2.5, 4)] {
            q.insert(&req(t, i, 0), 1.0);
            let e = q.get(ItemId(i)).unwrap();
            let s = e.count() as f64;
            q.reindex(ItemId(i), s);
        }
        assert_eq!(q.index.heap.len(), 3);
        let scan = q.select_max(|e| e.count() as f64);
        let indexed = q.select_max_indexed();
        assert_eq!(indexed, scan);
        assert_eq!(indexed, Some(ItemId(7)));
    }

    #[test]
    fn indexed_select_ties_break_to_lower_rank() {
        let mut q = PullQueue::new(10);
        for i in [8u32, 4, 6] {
            q.insert(&req(1.0, i, 0), 1.0);
            q.reindex(ItemId(i), 1.0);
        }
        assert_eq!(q.select_max_indexed(), Some(ItemId(4)));
        // −0.0 and 0.0 are the same tie class
        let mut q = PullQueue::new(10);
        q.insert(&req(1.0, 5, 0), 1.0);
        q.reindex(ItemId(5), 0.0);
        q.insert(&req(1.0, 3, 0), 1.0);
        q.reindex(ItemId(3), -0.0);
        assert_eq!(q.select_max_indexed(), Some(ItemId(3)));
    }

    #[test]
    fn remove_clears_all_pending_requests() {
        let mut q = PullQueue::new(10);
        q.insert(&req(1.0, 3, 0), 3.0);
        q.insert(&req(2.0, 3, 1), 2.0);
        let e = q.remove(ItemId(3));
        assert_eq!(e.count(), 2);
        assert!(q.is_empty());
        assert_eq!(q.total_requests(), 0);
        assert_eq!(q.extracted_items(), 1);
        assert_eq!(q.served_requests, 2);
    }

    #[test]
    fn reinsert_after_remove_starts_fresh() {
        let mut q = PullQueue::new(10);
        q.insert(&req(1.0, 3, 0), 3.0);
        q.remove(ItemId(3));
        q.insert(&req(5.0, 3, 1), 2.0);
        let e = q.get(ItemId(3)).unwrap();
        assert_eq!(e.count(), 1);
        assert_eq!(e.first_arrival, SimTime::new(5.0));
        assert!((e.total_priority - 2.0).abs() < 1e-12);
    }

    #[test]
    fn recycled_entries_start_fresh() {
        let mut q = PullQueue::new(10);
        q.insert(&req(1.0, 3, 0), 3.0);
        q.insert(&req(2.0, 3, 2), 1.0);
        let served = q.remove(ItemId(3));
        q.recycle(served);
        // the pooled buffers must not leak into the next entry
        q.insert(&req(5.0, 7, 1), 2.0);
        let e = q.get(ItemId(7)).unwrap();
        assert_eq!(e.item, ItemId(7));
        assert_eq!(e.count(), 1);
        assert_eq!(e.first_arrival, SimTime::new(5.0));
        assert_eq!(e.dominant_class(), Some(ClassId(1)));
        assert!((e.total_priority - 2.0).abs() < 1e-12);
        assert!((e.arrival_sum() - 5.0).abs() < 1e-12);
        let mut counts = [0usize; 3];
        e.class_counts(&mut counts);
        assert_eq!(counts, [0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "not in the pull queue")]
    fn remove_missing_panics() {
        let mut q = PullQueue::new(5);
        let _ = q.remove(ItemId(1));
    }

    #[test]
    fn iter_is_ascending_item_order() {
        let mut q = PullQueue::new(10);
        for &i in &[9u32, 1, 5] {
            q.insert(&req(1.0, i, 0), 1.0);
        }
        let order: Vec<u32> = q.iter().map(|e| e.item.0).collect();
        assert_eq!(order, vec![1, 5, 9]);
    }

    #[test]
    fn drain_below_and_matching() {
        let mut q = PullQueue::new(10);
        for i in [1u32, 4, 7] {
            q.insert(&req(1.0, i, 0), 1.0);
            q.reindex(ItemId(i), 1.0);
        }
        let below = q.drain_below(5);
        assert_eq!(below.len(), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.index.heap.len(), 1);
        q.insert(&req(2.0, 2, 0), 1.0);
        q.reindex(ItemId(2), 1.0);
        let odd = q.drain_matching(|it| it.0 % 2 == 1);
        assert_eq!(odd.len(), 1);
        assert_eq!(odd[0].item, ItemId(7));
        assert_eq!(q.len(), 1);
        assert_eq!(q.get(ItemId(2)).unwrap().count(), 1);
        // the drained items' records left the heap with them
        assert_eq!(q.select_max_indexed(), Some(ItemId(2)));
    }

    #[test]
    fn bookkeeping_under_many_operations() {
        let mut q = PullQueue::new(50);
        let mut t = 0.0;
        for round in 0..100u32 {
            for i in 0..50u32 {
                if (round + i) % 3 == 0 {
                    t += 0.01;
                    q.insert(&req(t, i, (i % 3) as u8), 1.0 + (i % 3) as f64);
                }
            }
            if let Some(sel) = q.select_max(|e| e.total_priority) {
                let served = q.remove(sel);
                q.recycle(served);
            }
        }
        // conservation: inserted == extracted + still pending
        assert_eq!(q.inserted(), q.served_requests + q.total_requests() as u64);
        // active count equals number of Some slots seen by iter
        assert_eq!(q.len(), q.iter().count());
        // total_requests equals the sum of per-item counts
        assert_eq!(
            q.total_requests(),
            q.iter().map(|e| e.count()).sum::<usize>()
        );
        // per-entry aggregates stay consistent with the requester lists
        for e in q.iter() {
            assert_eq!(
                e.count() as u64,
                e.class_counts.iter().map(|&n| n as u64).sum::<u64>()
            );
            let walked: f64 = e.requesters.iter().map(|&(a, _)| a.as_f64()).sum();
            assert!((e.arrival_sum() - walked).abs() < 1e-9);
        }
    }

    #[test]
    fn shadow_recount_passes_on_a_consistent_queue() {
        let mut q = PullQueue::new(20);
        let mut t = 0.0;
        for i in 0..200u32 {
            t += 0.1;
            q.insert(&req(t, i % 20, (i % 3) as u8), 1.0 + (i % 3) as f64);
            if i % 7 == 0 {
                if let Some(sel) = q.select_max(|e| e.total_priority) {
                    let served = q.remove(sel);
                    q.recycle(served);
                }
            }
        }
        assert_eq!(
            q.verify_shadow(|c| 1.0 + c.index() as f64),
            Vec::<String>::new()
        );
    }

    #[test]
    fn shadow_recount_flags_corrupted_aggregates() {
        let mut q = PullQueue::new(5);
        q.insert(&req(1.0, 2, 0), 3.0);
        q.insert(&req(2.0, 2, 1), 2.0);
        assert!(q.verify_shadow(|c| 3.0 - c.index() as f64).is_empty());
        // hand-corrupt each cached aggregate and confirm detection
        {
            let e = q.slots[2].as_mut().unwrap();
            e.total_priority += 1.0;
        }
        let bad = q.verify_shadow(|c| 3.0 - c.index() as f64);
        assert!(bad.iter().any(|m| m.contains("Q_i")), "{bad:?}");
        {
            let e = q.slots[2].as_mut().unwrap();
            e.total_priority -= 1.0;
            e.class_counts[0] += 1; // phantom request
        }
        let bad = q.verify_shadow(|c| 3.0 - c.index() as f64);
        assert!(bad.iter().any(|m| m.contains("class_counts")), "{bad:?}");
        {
            let e = q.slots[2].as_mut().unwrap();
            e.class_counts[0] -= 1;
        }
        // a dropped decrement on the queue-wide total
        q.total_requests += 1;
        let bad = q.verify_shadow(|c| 3.0 - c.index() as f64);
        assert!(bad.iter().any(|m| m.contains("total_requests")), "{bad:?}");
        assert!(bad.iter().any(|m| m.contains("conservation")), "{bad:?}");
    }

    /// Three indexed items, audited clean, for the index corruption tests.
    fn indexed_queue() -> PullQueue {
        let mut q = PullQueue::new(5);
        for (i, score) in [(1u32, 2.0), (2, 3.0), (4, 1.0)] {
            q.insert(&req(1.0, i, 0), 1.0);
            q.reindex(ItemId(i), score);
        }
        assert!(q.verify_shadow(|_| 1.0).is_empty());
        q
    }

    #[test]
    fn shadow_recount_flags_a_duplicated_or_missing_index_record() {
        let mut q = indexed_queue();
        q.index.heap.push(q.index.heap[1]);
        let bad = q.verify_shadow(|_| 1.0);
        assert!(bad.iter().any(|m| m.contains("2 index records")), "{bad:?}");
        let mut q = indexed_queue();
        let (_, item) = q.index.heap.pop().unwrap();
        let bad = q.verify_shadow(|_| 1.0);
        let lost = format!("item {item}: 0 index records, expected 1");
        assert!(bad.contains(&lost), "{bad:?}");
    }

    #[test]
    fn shadow_recount_flags_crossed_index_positions() {
        let mut q = indexed_queue();
        q.index.pos.swap(1, 4);
        let bad = q.verify_shadow(|_| 1.0);
        assert!(
            bad.iter().any(|m| m.contains("whose position is")),
            "{bad:?}"
        );
        let mut q = indexed_queue();
        q.index.pos[3] = Some(0);
        let bad = q.verify_shadow(|_| 1.0);
        assert!(bad.iter().any(|m| m.contains("no index record")), "{bad:?}");
    }

    #[test]
    fn shadow_recount_flags_a_broken_heap_order() {
        let mut q = indexed_queue();
        q.index.heap[0].0 = -1.0;
        let bad = q.verify_shadow(|_| 1.0);
        assert!(
            bad.iter().any(|m| m.contains("beats its parent")),
            "{bad:?}"
        );
    }
}
