//! The per-channel request state machine, written once.
//!
//! A [`HybridScheduler`] decides *what airs next*; a [`ChannelCore`] wraps
//! one and owns everything about *who is waiting for it*: the live-request
//! slab, one push-waiter and one pull-waiter list per catalog item, the
//! deadline and uplink-delivery heaps, the in-flight transmission with
//! the batch it will satisfy, and the books. It is **time-passive** — it
//! never reads a clock. A driver tells it what time it is:
//!
//! * `hybridcastd` (`T = (seq, Conn)`, `S = WindowRecorder`) calls
//!   [`advance`](ChannelCore::advance) / [`dispatch`](ChannelCore::dispatch)
//!   with wall-clock readings whenever it wakes, then
//!   [`ingest`](ChannelCore::ingest)s what the rings hold;
//! * trace replay (`T = ()`, `S = NullSink`) steps virtual time from one
//!   [`next_due`](ChannelCore::next_due) to the next, so nothing ever
//!   fires late.
//!
//! Both run the same transitions in the same order, so a replay's books
//! can differ from the live run's only because the *times* the driver
//! reported differ — never because the state machine does.
//!
//! Every request leaves exactly once, as a [`Resolution`] handed to the
//! caller's outbox closure; every telemetry event leaves through the
//! [`Sink`]. Outbox, tag and sink are type parameters: the tick has no
//! `dyn`, no lock and no per-request allocation of its own.
//!
//! Cost model: one broadcast answers every request outstanding for *that
//! item*, so a transmission costs O(requests it answers) — it walks the
//! aired item's waiter list and nobody else's — and every per-request
//! step (file, look up, answer) is an index into a dense table: O(1), no
//! hashing.
//!
//! One deliberate asymmetry with the simulator: a request that times out
//! while queued leaves its aggregated entry in the pull queue (the queue
//! has no per-requester removal), so the scheduler may still air the
//! item. The stale requester is skipped at completion.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::AddAssign;

use serde::Serialize;

use hybridcast_sim::stats::Welford;
use hybridcast_sim::time::SimTime;
use hybridcast_telemetry::{emit, ServiceKind, Sink, TelemetryEvent};
use hybridcast_workload::catalog::ItemId;
use hybridcast_workload::classes::ClassId;
use hybridcast_workload::requests::Request;
use hybridcast_workload::scenario::Scenario;

use crate::config::HybridConfig;
use crate::hybrid::{Disposition, HybridScheduler, Transmission};
use crate::metrics::TxKind;
use crate::sharded::{build_shards, ChannelPlan};
use crate::uplink::{UplinkChannel, UplinkOutcome, UPLINK_STREAM};

/// How a request left the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Delivered by the cyclic broadcast.
    ServedPush,
    /// Delivered by an on-demand pull transmission.
    ServedPull,
    /// Rejected: bandwidth admission, or still live when the driver called
    /// [`ChannelCore::shed_remaining`].
    Shed,
    /// Its deadline passed before service.
    TimedOut,
    /// Lost on the contended uplink.
    UplinkLost,
}

/// One request's final answer, handed to the driver's outbox.
#[derive(Debug)]
pub struct Resolution<T> {
    /// Whatever the driver attached at ingest (reply address, or nothing).
    pub tag: T,
    /// The requested item.
    pub item: ItemId,
    /// How the request left.
    pub outcome: Outcome,
    /// Ingest → decision, in broadcast units (0 for an uplink loss).
    pub wait: f64,
}

/// The six conservation counters: `accepted = answered()` once nothing is
/// live.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests that entered.
    pub accepted: u64,
    /// Served off the broadcast schedule.
    pub served_push: u64,
    /// Served by pull transmissions.
    pub served_pull: u64,
    /// Explicit rejections.
    pub shed: u64,
    /// Deadline expiries.
    pub timed_out: u64,
    /// Uplink losses.
    pub uplink_lost: u64,
}

impl Tally {
    /// Served over both channels.
    pub fn served(&self) -> u64 {
        self.served_push + self.served_pull
    }

    /// Requests that got a final answer.
    pub fn answered(&self) -> u64 {
        self.served() + self.shed + self.timed_out + self.uplink_lost
    }

    /// The conservation identity for a drained channel.
    pub fn conserves(&self) -> bool {
        self.accepted == self.answered()
    }

    fn count(&mut self, outcome: Outcome) {
        *match outcome {
            Outcome::ServedPush => &mut self.served_push,
            Outcome::ServedPull => &mut self.served_pull,
            Outcome::Shed => &mut self.shed,
            Outcome::TimedOut => &mut self.timed_out,
            Outcome::UplinkLost => &mut self.uplink_lost,
        } += 1;
    }
}

impl AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.accepted += o.accepted;
        self.served_push += o.served_push;
        self.served_pull += o.served_pull;
        self.shed += o.shed;
        self.timed_out += o.timed_out;
        self.uplink_lost += o.uplink_lost;
    }
}

/// One class's books on one channel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassBooks {
    /// The class's conservation counters.
    pub tally: Tally,
    /// Wait of served requests, in broadcast units.
    pub wait: Welford,
    /// Plain sum of the same waits. Replay books report `sum / served`,
    /// whose low bits differ from Welford's running mean; keeping the sum
    /// leaves both the daemon summary and the replay books bit-stable.
    pub wait_sum: f64,
}

/// A channel's complete accounting; `+=` merges channels.
#[derive(Debug, Clone, PartialEq)]
pub struct Books {
    /// All classes. Exceeds the per-class sum by the class-less front-end
    /// rejections (see [`ChannelCore::refuse`]).
    pub total: Tally,
    /// Push transmissions aired.
    pub push_tx: u64,
    /// Pull transmissions aired.
    pub pull_tx: u64,
    /// Per class, class order.
    pub per_class: Vec<ClassBooks>,
}

impl Books {
    /// Empty books for `num_classes` classes.
    pub fn new(num_classes: usize) -> Books {
        Books {
            total: Tally::default(),
            push_tx: 0,
            pull_tx: 0,
            per_class: vec![ClassBooks::default(); num_classes],
        }
    }

    /// The channel's line in a summary. `drained` is whether the core has
    /// nothing live left — a channel conserves only once it has.
    pub fn counters(&self, channel: u32, drained: bool) -> ChannelCounters {
        ChannelCounters {
            channel,
            accepted: self.total.accepted,
            served_push: self.total.served_push,
            served_pull: self.total.served_pull,
            shed: self.total.shed,
            timed_out: self.total.timed_out,
            uplink_lost: self.total.uplink_lost,
            push_tx: self.push_tx,
            pull_tx: self.pull_tx,
            conservation_ok: drained && self.total.conserves(),
        }
    }
}

/// One channel's books as the daemon summary and the replay books print
/// them (flat: the vendored serde has no `flatten`). In the daemon,
/// front-end sheds (ring overflow, malformed frames) are accounted on
/// channel 0.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChannelCounters {
    /// Channel index.
    pub channel: u32,
    /// Requests this channel's core ingested.
    pub accepted: u64,
    /// Served off this channel's broadcast schedule.
    pub served_push: u64,
    /// Served by this channel's pull transmissions.
    pub served_pull: u64,
    /// Explicit rejections.
    pub shed: u64,
    /// Deadline expiries.
    pub timed_out: u64,
    /// Uplink losses.
    pub uplink_lost: u64,
    /// Push transmissions aired on this channel.
    pub push_tx: u64,
    /// Pull transmissions aired on this channel.
    pub pull_tx: u64,
    /// Every request this channel accepted was answered exactly once *by
    /// this channel*.
    pub conservation_ok: bool,
}

impl AddAssign<&Books> for Books {
    fn add_assign(&mut self, o: &Books) {
        self.total += o.total;
        self.push_tx += o.push_tx;
        self.pull_tx += o.pull_tx;
        for (dst, src) in self.per_class.iter_mut().zip(&o.per_class) {
            dst.tally += src.tally;
            dst.wait.merge(&src.wait);
            dst.wait_sum += src.wait_sum;
        }
    }
}

/// A request the channel still owes an answer.
struct LiveReq<T> {
    /// The ingest counter that filled this slot (see [`Handle`]).
    id: u64,
    tag: T,
    item: ItemId,
    class: ClassId,
    /// Raw ingest stamp: prices the wait, never clamped.
    ingest: SimTime,
    /// Filed in `push_waiters`, so counted in `live_push`.
    push: bool,
}

/// A live request's address in the slab. `id` is the monotone ingest
/// counter: it is what the heaps break ties on and what the final shed
/// sorts by (both must follow ingest order for a replay to repeat), and it
/// is the guard that makes a reused `slot` reject a handle to the request
/// that held it before. `id` is unique, so `slot` never decides an order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Handle {
    id: u64,
    slot: u32,
}

/// The live-request table: a slab whose freed slots are reused, so filing,
/// finding and answering a request are each one index.
struct Slab<T> {
    slots: Vec<Option<LiveReq<T>>>,
    free: Vec<u32>,
    next_id: u64,
}

impl<T> Slab<T> {
    fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            next_id: 0,
        }
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Files a request under the next ingest id.
    fn insert(&mut self, tag: T, item: ItemId, class: ClassId, ingest: SimTime) -> Handle {
        let id = self.next_id;
        self.next_id += 1;
        let req = LiveReq {
            id,
            tag,
            item,
            class,
            ingest,
            push: false,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(req);
                slot
            }
            None => {
                self.slots.push(Some(req));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 live requests")
            }
        };
        Handle { id, slot }
    }

    /// The request `handle` was issued for, if it is still live.
    fn get_mut(&mut self, handle: Handle) -> Option<&mut LiveReq<T>> {
        self.slots[handle.slot as usize]
            .as_mut()
            .filter(|req| req.id == handle.id)
    }

    fn remove(&mut self, handle: Handle) -> Option<LiveReq<T>> {
        self.get_mut(handle)?;
        self.free.push(handle.slot);
        self.slots[handle.slot as usize].take()
    }

    /// Every live request's handle, lowest id first.
    fn handles(&self) -> Vec<Handle> {
        let mut handles: Vec<Handle> = (0u32..)
            .zip(&self.slots)
            .filter_map(|(slot, req)| req.as_ref().map(|req| Handle { id: req.id, slot }))
            .collect();
        handles.sort_unstable();
        handles
    }
}

struct Inflight {
    tx: Transmission,
    /// Pull: the item's waiter list taken at dispatch (the same batch the
    /// scheduler removed from its queue). Push: empty.
    batch: Vec<Handle>,
}

type DueHeap = BinaryHeap<Reverse<(SimTime, Handle)>>;

/// One core per broadcast channel of `hybrid`'s layout (a single one
/// outside the sharded layout), each over its own scheduler shard — built
/// exactly like the simulator's — and its own uplink lane, plus the plan
/// that routes items to them. `sink` makes each channel's sink.
pub fn channel_cores<T, S: Sink>(
    scenario: &Scenario,
    hybrid: &HybridConfig,
    mut sink: impl FnMut() -> S,
) -> (Vec<ChannelCore<T, S>>, ChannelPlan) {
    let num_classes = scenario.classes.len();
    let num_items = scenario.catalog.len();
    let (schedulers, plan) = build_shards(
        &scenario.catalog,
        &scenario.classes,
        hybrid,
        &scenario.factory,
        None,
    );
    let cores = schedulers
        .into_iter()
        .zip(UPLINK_STREAM..)
        .map(|(scheduler, lane)| ChannelCore {
            scheduler,
            uplink: hybrid
                .uplink
                .map(|cfg| UplinkChannel::new(cfg, scenario.factory.stream(lane), num_classes)),
            sink: sink(),
            live: Slab::new(),
            push_waiters: vec![Vec::new(); num_items],
            live_push: 0,
            pull_waiters: vec![Vec::new(); num_items],
            spare: Vec::new(),
            timeouts: BinaryHeap::new(),
            deliveries: BinaryHeap::new(),
            inflight: None,
            cursor: SimTime::ZERO,
            books: Books::new(num_classes),
        });
    (cores.collect(), plan)
}

/// One broadcast channel's request state machine (see the module docs).
pub struct ChannelCore<T, S: Sink> {
    scheduler: HybridScheduler,
    uplink: Option<UplinkChannel>,
    sink: S,
    live: Slab<T>,
    /// Per catalog item, in filing order: `(handle, scheduler_arrival)` of
    /// the requests waiting for its next broadcast. A waiter answered some
    /// other way (timed out, shed) keeps its entry until the item airs.
    push_waiters: Vec<Vec<(Handle, SimTime)>>,
    /// Live requests filed in `push_waiters` — exact, unlike the lists'
    /// lengths: the push half of `dispatch`'s demand test.
    live_push: usize,
    /// Per catalog item, in filing order: the requesters behind its
    /// pull-queue entry. Taken whole when the scheduler takes the entry
    /// (dispatch or admission drop), so an item's list is the batch.
    pull_waiters: Vec<Vec<Handle>>,
    /// Emptied batch vectors, reused by the next item whose list has no
    /// buffer; there are never more than the peak number of items waited
    /// on at once.
    spare: Vec<Vec<Handle>>,
    timeouts: DueHeap,
    /// Requests in flight on the uplink.
    deliveries: DueHeap,
    inflight: Option<Inflight>,
    /// Monotone high-water mark of scheduler/sink time. Ingest stamps are
    /// taken upstream and due events fire at their (possibly already
    /// past) due times, so raw stamps can trail events already processed;
    /// the scheduler and time-weighted gauges need non-decreasing time,
    /// so every such time is clamped up through the cursor. It advances
    /// whether or not the sink is enabled — otherwise the sink would
    /// change what the scheduler sees.
    cursor: SimTime,
    books: Books,
}

impl<T, S: Sink> ChannelCore<T, S> {
    /// The books so far.
    pub fn books(&self) -> &Books {
        &self.books
    }

    /// Requests still owed an answer.
    pub fn live(&self) -> usize {
        self.live.len()
    }

    /// The wrapped scheduler (queue depth, cutoff).
    pub fn scheduler(&self) -> &HybridScheduler {
        &self.scheduler
    }

    /// The sink, for drivers that drain it mid-run.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Ends the run: the books, the sink, and `now` clamped through the
    /// cursor (the sink's closing time).
    pub fn into_parts(mut self, now: SimTime) -> (Books, S, SimTime) {
        let end = self.tick(now);
        (self.books, self.sink, end)
    }

    /// Advances the cursor and returns the clamped time.
    fn tick(&mut self, t: SimTime) -> SimTime {
        if t > self.cursor {
            self.cursor = t;
        }
        self.cursor
    }

    fn gauge(&mut self, now: SimTime) {
        let time = self.tick(now);
        emit(&mut self.sink, || TelemetryEvent::QueueGauge {
            time,
            items: self.scheduler.queue().len() as u32,
            requests: self.scheduler.queue().total_requests() as u32,
        });
    }

    /// Books `req`'s exit and hands it to the outbox.
    fn resolve(
        &mut self,
        req: LiveReq<T>,
        outcome: Outcome,
        wait: f64,
        out: &mut impl FnMut(Resolution<T>),
    ) {
        if req.push {
            self.live_push -= 1;
        }
        let class = &mut self.books.per_class[req.class.index()];
        self.books.total.count(outcome);
        class.tally.count(outcome);
        if matches!(outcome, Outcome::ServedPush | Outcome::ServedPull) {
            class.wait.push(wait);
            class.wait_sum += wait;
        }
        out(Resolution {
            tag: req.tag,
            item: req.item,
            outcome,
            wait,
        });
    }

    /// Accepts one request stamped `stamp`, due (if ever) at `deadline`.
    /// It contends for the uplink first when there is one; a loss resolves
    /// immediately.
    pub fn ingest(
        &mut self,
        tag: T,
        item: ItemId,
        class: ClassId,
        stamp: SimTime,
        deadline: Option<SimTime>,
        mut out: impl FnMut(Resolution<T>),
    ) {
        self.books.total.accepted += 1;
        self.books.per_class[class.index()].tally.accepted += 1;
        let time = self.tick(stamp);
        emit(&mut self.sink, || TelemetryEvent::RequestArrival {
            time,
            item,
            class,
        });
        let handle = self.live.insert(tag, item, class, stamp);
        if let Some(due) = deadline {
            self.timeouts.push(Reverse((due, handle)));
        }
        match self.uplink.as_mut().map(|up| up.transmit(class)) {
            Some(UplinkOutcome::Lost) => {
                emit(&mut self.sink, || TelemetryEvent::UplinkLoss {
                    time,
                    item,
                    class,
                });
                let req = self.live.remove(handle).expect("just inserted");
                self.resolve(req, Outcome::UplinkLost, 0.0, &mut out);
            }
            Some(UplinkOutcome::Delivered(latency)) => {
                self.deliveries.push(Reverse((stamp + latency, handle)));
            }
            None => self.route(handle, item, class, stamp),
        }
    }

    /// Books a request the driver's front end already answered `Shed`
    /// (ring overflow, malformed frame) so the channel's books and
    /// telemetry still see the arrival. A malformed frame has no class.
    pub fn refuse(&mut self, stamp: SimTime, request: Option<(ItemId, ClassId)>) {
        self.books.total.accepted += 1;
        self.books.total.shed += 1;
        if let Some((item, class)) = request {
            let tally = &mut self.books.per_class[class.index()].tally;
            tally.accepted += 1;
            tally.shed += 1;
            let time = self.tick(stamp);
            emit(&mut self.sink, || TelemetryEvent::RequestArrival {
                time,
                item,
                class,
            });
            emit(&mut self.sink, || TelemetryEvent::RequestBlocked {
                time,
                item,
                class,
            });
        }
    }

    /// Hands a live request to the scheduler at `arrival` (clamped through
    /// the cursor; the raw ingest stamp still prices its wait) and files
    /// it under the transmission kind that will serve it.
    fn route(&mut self, handle: Handle, item: ItemId, class: ClassId, arrival: SimTime) {
        let arrival = self.tick(arrival);
        match self.scheduler.on_request(&Request {
            arrival,
            item,
            class,
        }) {
            Disposition::PushIgnored => {
                self.live.get_mut(handle).expect("routed while live").push = true;
                self.live_push += 1;
                self.push_waiters[item.index()].push((handle, arrival));
            }
            Disposition::Queued => {
                let waiters = &mut self.pull_waiters[item.index()];
                if waiters.capacity() == 0 {
                    *waiters = self.spare.pop().unwrap_or_default();
                }
                waiters.push(handle);
                self.gauge(arrival);
            }
        }
    }

    /// Earliest instant anything is due: the in-flight completion, a
    /// deadline, or an uplink delivery.
    pub fn next_due(&self) -> Option<SimTime> {
        let head = |heap: &DueHeap| heap.peek().map(|Reverse((due, _))| *due);
        let completion = self.inflight.as_ref().map(|i| i.tx.completes_at());
        [completion, head(&self.timeouts), head(&self.deliveries)]
            .into_iter()
            .flatten()
            .min()
    }

    /// Fires everything due at or before `now`: uplink deliveries, then
    /// deadlines, then the in-flight completion. A late `now` is fine —
    /// each event is processed at its own due time, clamped through the
    /// cursor. Returns the due stamp of the completion it fired, if any,
    /// so a wall-clock driver can see how late it ran.
    pub fn advance(&mut self, now: SimTime, mut out: impl FnMut(Resolution<T>)) -> Option<SimTime> {
        while let Some(&Reverse((due, handle))) = self.deliveries.peek() {
            if due > now {
                break;
            }
            self.deliveries.pop();
            let Some(req) = self.live.get_mut(handle) else {
                continue; // timed out while on the uplink
            };
            let (item, class, ingest) = (req.item, req.class, req.ingest);
            let time = self.tick(due);
            emit(&mut self.sink, || TelemetryEvent::UplinkDelivered {
                time,
                item,
                class,
                latency: due - ingest,
            });
            self.route(handle, item, class, due);
        }
        while let Some(&Reverse((due, handle))) = self.timeouts.peek() {
            if due > now {
                break;
            }
            self.timeouts.pop();
            if let Some(req) = self.live.remove(handle) {
                let wait = due.since(req.ingest).as_f64();
                self.resolve(req, Outcome::TimedOut, wait, &mut out);
            }
        }
        let due = self.inflight.as_ref()?.tx.completes_at();
        now.reached(due).then(|| {
            self.complete(&mut out);
            due
        })
    }

    /// Starts the next transmission at `now` if the downlink is idle and
    /// anyone is waiting; queue entries the bandwidth check rejects on the
    /// way are shed.
    pub fn dispatch(&mut self, now: SimTime, mut out: impl FnMut(Resolution<T>)) {
        let demand = !self.scheduler.queue().is_empty() || self.live_push > 0;
        if self.inflight.is_some() || !demand {
            return;
        }
        let now = self.tick(now);
        let (tx, dropped) = self.scheduler.next_transmission(now);
        for entry in dropped {
            let mut batch = std::mem::take(&mut self.pull_waiters[entry.item.index()]);
            for handle in batch.drain(..) {
                self.shed(handle, now, &mut out);
            }
            self.spare.push(batch);
            self.scheduler.recycle(entry);
        }
        if let Some(tx) = tx {
            let batch = match tx.kind {
                TxKind::Pull => std::mem::take(&mut self.pull_waiters[tx.item.index()]),
                TxKind::Push => Vec::new(),
            };
            self.gauge(now);
            self.inflight = Some(Inflight { tx, batch });
        }
    }

    /// Sheds every request still live, lowest id first — the driver's
    /// drain budget ran out.
    pub fn shed_remaining(&mut self, now: SimTime, mut out: impl FnMut(Resolution<T>)) {
        for handle in self.live.handles() {
            self.shed(handle, now, &mut out);
        }
        self.push_waiters.iter_mut().for_each(Vec::clear);
        self.pull_waiters.iter_mut().for_each(Vec::clear);
    }

    fn shed(&mut self, handle: Handle, now: SimTime, out: &mut impl FnMut(Resolution<T>)) {
        let Some(req) = self.live.remove(handle) else {
            return; // already timed out
        };
        let (item, class) = (req.item, req.class);
        let time = self.tick(now);
        emit(&mut self.sink, || TelemetryEvent::RequestBlocked {
            time,
            item,
            class,
        });
        let wait = now.since(req.ingest).as_f64();
        self.resolve(req, Outcome::Shed, wait, out);
    }

    fn complete(&mut self, out: &mut impl FnMut(Resolution<T>)) {
        let Some(inf) = self.inflight.take() else {
            return;
        };
        let at = inf.tx.completes_at();
        let (item, kind, start, duration) =
            (inf.tx.item, inf.tx.kind, inf.tx.start, inf.tx.duration);
        let entry = self.scheduler.complete_transmission(inf.tx);
        let time = self.tick(at);
        match kind {
            TxKind::Push => {
                self.books.push_tx += 1;
                emit(&mut self.sink, || TelemetryEvent::PushTx {
                    time,
                    item,
                    duration,
                });
                // The item's waiters who tuned in before this slot started
                // are done; later ones catch its next broadcast. Entries
                // answered some other way (timed out, shed) drop out here.
                let mut waiters = std::mem::take(&mut self.push_waiters[item.index()]);
                waiters.retain(|&(handle, arrival)| {
                    if arrival > start {
                        return self.live.get_mut(handle).is_some();
                    }
                    self.serve(handle, at, ServiceKind::Push, out);
                    false
                });
                self.push_waiters[item.index()] = waiters;
            }
            TxKind::Pull => {
                self.books.pull_tx += 1;
                let entry = entry.expect("pull transmissions carry their batch");
                emit(&mut self.sink, || TelemetryEvent::PullTx {
                    time,
                    item,
                    duration,
                    requests: entry.count() as u32,
                    class: entry.dominant_class().unwrap_or(ClassId(0)),
                });
                let mut batch = inf.batch;
                for handle in batch.drain(..) {
                    self.serve(handle, at, ServiceKind::Pull, out);
                }
                self.spare.push(batch);
                self.scheduler.recycle(entry);
                self.gauge(at);
            }
        }
    }

    fn serve(
        &mut self,
        handle: Handle,
        at: SimTime,
        kind: ServiceKind,
        out: &mut impl FnMut(Resolution<T>),
    ) {
        let Some(req) = self.live.remove(handle) else {
            return; // timed out before the transmission landed
        };
        let (item, class, arrival) = (req.item, req.class, req.ingest);
        let time = self.tick(at);
        emit(&mut self.sink, || TelemetryEvent::RequestServed {
            time,
            item,
            class,
            kind,
            arrival,
        });
        let outcome = match kind {
            ServiceKind::Push => Outcome::ServedPush,
            ServiceKind::Pull => Outcome::ServedPull,
        };
        self.resolve(req, outcome, at.since(arrival).as_f64(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HybridConfig;
    use crate::pull::PullPolicyKind;
    use crate::uplink::UplinkConfig;
    use hybridcast_sim::time::SimDuration;
    use hybridcast_telemetry::{NullSink, VecSink};
    use hybridcast_workload::scenario::ScenarioConfig;

    const REQUESTS: u64 = 600;

    /// A request script: `n` requests `gap` units apart over mixed
    /// push/pull items and cycling classes, every `deadline_every`-th due
    /// `deadline` units after it arrives.
    struct Script {
        n: u64,
        gap: f64,
        deadline_every: u64,
        deadline: f64,
    }

    /// The script the books tests read.
    const BASE: Script = Script {
        n: REQUESTS,
        gap: 0.37,
        deadline_every: 4,
        deadline: 40.0,
    };

    /// Eight times the arrival rate with a short deadline on every other
    /// request: the live table turns over many times, so slab slots are
    /// reused hundreds of times.
    const CHURN: Script = Script {
        n: 5_000,
        gap: 0.37 / 8.0,
        deadline_every: 2,
        deadline: 3.0,
    };

    /// A single-channel core over the paper's catalog at K = 30 (items
    /// below 30 are pushed, the rest pulled).
    fn core_of<T, S: Sink>(config: HybridConfig, sink: impl FnMut() -> S) -> ChannelCore<T, S> {
        let scenario = ScenarioConfig::icpp2005(0.6).with_seed(7).build();
        let config = HybridConfig {
            cutoff: 30,
            ..config
        };
        let (mut cores, _) = channel_cores(&scenario, &config, sink);
        cores.pop().expect("one channel")
    }

    /// [`core_of`] with a lossy uplink and RxW, which scores by waiting
    /// time, so the times the core reports to the scheduler steer the
    /// books.
    fn core<T, S: Sink>(sink: impl FnMut() -> S) -> ChannelCore<T, S> {
        let config = HybridConfig {
            pull: PullPolicyKind::Rxw,
            uplink: Some(UplinkConfig {
                slot_time: 0.1,
                success_prob: 0.7,
                max_attempts: 2,
                backoff_slots: 1.0,
            }),
            ..HybridConfig::default()
        };
        core_of(config, sink)
    }

    /// Request `i` of `script`.
    fn ingest<T, S: Sink>(
        core: &mut ChannelCore<T, S>,
        script: &Script,
        i: u64,
        tag: T,
        out: &mut impl FnMut(Resolution<T>),
    ) {
        let stamp = SimTime::new(i as f64 * script.gap);
        let deadline = i
            .is_multiple_of(script.deadline_every)
            .then(|| stamp + SimDuration::new(script.deadline));
        let (item, class) = (ItemId((i * 13 % 100) as u32), ClassId((i % 3) as u8));
        core.ingest(tag, item, class, stamp, deadline, out);
    }

    /// Fires due events in order until `until` (inclusive).
    fn run_until<T, S: Sink>(
        core: &mut ChannelCore<T, S>,
        until: SimTime,
        out: &mut impl FnMut(Resolution<T>),
    ) {
        while let Some(due) = core.next_due().filter(|&due| due <= until) {
            core.advance(due, &mut *out);
            core.dispatch(due, &mut *out);
        }
    }

    /// The virtual-time driver: every event fires exactly when due; after
    /// the last arrival only `drain` more events run, so some requests are
    /// left for `shed_remaining`.
    fn drive<T, S: Sink>(
        core: &mut ChannelCore<T, S>,
        script: &Script,
        tag: impl Fn(u64) -> T,
        drain: usize,
        mut out: impl FnMut(Resolution<T>),
    ) {
        let mut now = SimTime::ZERO;
        for i in 0..script.n {
            now = SimTime::new(i as f64 * script.gap);
            run_until(core, now, &mut out);
            ingest(core, script, i, tag(i), &mut out);
            core.dispatch(now, &mut out);
        }
        for _ in 0..drain {
            let Some(due) = core.next_due() else { break };
            core.advance(due, &mut out);
            core.dispatch(due, &mut out);
            now = now.max(due);
        }
        core.shed_remaining(now, &mut out);
    }

    fn count(events: &[TelemetryEvent], pick: impl Fn(&TelemetryEvent) -> bool) -> u64 {
        events.iter().filter(|e| pick(e)).count() as u64
    }

    #[test]
    fn both_instantiations_keep_the_same_books() {
        let mut tagged: ChannelCore<u64, VecSink> = core(VecSink::new);
        let mut replies: Vec<Resolution<u64>> = Vec::new();
        drive(&mut tagged, &BASE, |i| i, 20, |r| replies.push(r));
        let mut bare: ChannelCore<(), NullSink> = core(|| NullSink);
        drive(&mut bare, &BASE, |_| (), 20, |_| {});
        assert_eq!(tagged.books(), bare.books(), "tag and sink never steer");

        let books = tagged.books().clone();
        assert_eq!(books.total.accepted, REQUESTS);
        assert!(books.total.conserves() && tagged.live() == 0, "{books:?}");
        for (name, n) in [
            ("served_push", books.total.served_push),
            ("served_pull", books.total.served_pull),
            ("shed", books.total.shed),
            ("timed_out", books.total.timed_out),
            ("uplink_lost", books.total.uplink_lost),
        ] {
            assert!(n > 0, "the script exercises {name}: {books:?}");
        }
        let mut per_class = Tally::default();
        for class in &books.per_class {
            per_class += class.tally;
            assert_eq!(class.wait.count(), class.tally.served());
        }
        assert_eq!(per_class, books.total);

        // Every accepted request resolved exactly once, and the outbox saw
        // what the books say.
        let mut tags: Vec<u64> = replies.iter().map(|r| r.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..REQUESTS).collect::<Vec<_>>());
        let mut seen = Tally {
            accepted: REQUESTS,
            ..Tally::default()
        };
        for r in &replies {
            seen.count(r.outcome);
        }
        assert_eq!(seen, books.total);

        // The sink saw the same run.
        let (_, sink, _) = tagged.into_parts(SimTime::ZERO);
        let events = sink.events();
        use TelemetryEvent as E;
        assert_eq!(
            count(events, |e| matches!(e, E::RequestArrival { .. })),
            REQUESTS
        );
        assert_eq!(
            count(events, |e| matches!(e, E::RequestServed { .. })),
            books.total.served()
        );
        assert_eq!(
            count(events, |e| matches!(e, E::RequestBlocked { .. })),
            books.total.shed
        );
        assert_eq!(
            count(events, |e| matches!(e, E::UplinkLoss { .. })),
            books.total.uplink_lost
        );
        assert_eq!(
            count(events, |e| matches!(e, E::PushTx { .. })),
            books.push_tx
        );
        assert_eq!(
            count(events, |e| matches!(e, E::PullTx { .. })),
            books.pull_tx
        );
    }

    /// The wall-clock shape no virtual-time driver reaches: the core is
    /// only told the time every 25 units (the daemon's poll cap), so
    /// deliveries, deadlines and completions all fire late and ingest
    /// stamps trail the cursor. Returns the last time reported.
    fn drive_late<T, S: Sink>(
        core: &mut ChannelCore<T, S>,
        tag: impl Fn(u64) -> T,
        mut out: impl FnMut(Resolution<T>),
    ) -> SimTime {
        let mut next = 0;
        let mut now = SimTime::ZERO;
        for tick in 1..400 {
            now = SimTime::new(tick as f64 * 25.0);
            core.advance(now, &mut out);
            core.dispatch(now, &mut out);
            while next < REQUESTS && next as f64 * BASE.gap <= now.as_f64() {
                ingest(core, &BASE, next, tag(next), &mut out);
                next += 1;
            }
            if next == REQUESTS && core.live() == 0 {
                break;
            }
        }
        core.shed_remaining(now, &mut out);
        now
    }

    #[test]
    fn late_ticks_conserve_and_keep_time_monotone() {
        let mut core: ChannelCore<u64, VecSink> = core(VecSink::new);
        let mut resolved = 0u64;
        let now = drive_late(&mut core, |i| i, |_| resolved += 1);
        let books = core.books().clone();
        assert_eq!(books.total.accepted, REQUESTS);
        assert!(books.total.conserves() && core.live() == 0, "{books:?}");
        assert_eq!(resolved, REQUESTS, "exactly one resolution each");
        assert!(books.total.served() > 0 && books.total.timed_out > 0);

        // The cursor moves the same with the sink off: a disabled sink
        // must not change what the scheduler sees.
        let mut bare: ChannelCore<(), NullSink> = self::core(|| NullSink);
        drive_late(&mut bare, |_| (), |_| {});
        assert_eq!(&books, bare.books());

        let (_, sink, end) = core.into_parts(now);
        let times: Vec<SimTime> = sink.events().iter().map(|e| e.time()).collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "scheduler/sink time never runs backwards"
        );
        assert!(times.last().is_some_and(|&t| t <= end));
    }

    /// FNV-1a over `(tag, outcome, wait bits)` of every resolution in
    /// emission order: the reply stream, not just the books it sums to.
    struct ReplyDigest(u64);

    impl ReplyDigest {
        fn new() -> ReplyDigest {
            ReplyDigest(0xcbf2_9ce4_8422_2325)
        }

        fn fold(&mut self, r: &Resolution<u64>) {
            for word in [r.tag, r.outcome as u64, r.wait.to_bits()] {
                for byte in word.to_le_bytes() {
                    self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }

    /// Whoever is answered, in what order and after what wait must not
    /// depend on how the request table is stored: these digests were
    /// recorded at the commit before it became a slab with per-item waiter
    /// lists, when it was two hash maps and one flat push-waiter list.
    #[test]
    fn reply_streams_match_the_recorded_digests() {
        fn digest_of(run: impl FnOnce(&mut dyn FnMut(Resolution<u64>))) -> u64 {
            let mut digest = ReplyDigest::new();
            run(&mut |r| digest.fold(&r));
            digest.0
        }
        let lossy = digest_of(|out| drive(&mut core(|| NullSink), &BASE, |i| i, 20, out));
        let late = digest_of(|out| {
            drive_late(&mut core(|| NullSink), |i| i, out);
        });
        let mut churn: ChannelCore<u64, NullSink> = core_of(HybridConfig::default(), || NullSink);
        let churned = digest_of(|out| drive(&mut churn, &CHURN, |i| i, usize::MAX, out));
        assert_eq!(
            [lossy, late, churned].map(|d| format!("{d:016x}")),
            ["c82562e3946eefa9", "15acca59731b9c41", "1654aaa8f6ceaf52"],
            "virtual-time, late-tick and churn scripts"
        );
        let books = churn.books();
        assert!(books.total.conserves() && churn.live() == 0, "{books:?}");
        assert!(
            books.total.timed_out > 500 && books.total.served() > 500,
            "slots turn over both ways: {books:?}"
        );
    }

    #[test]
    fn a_reused_slot_rejects_a_stale_handle() {
        let mut core: ChannelCore<&'static str, NullSink> =
            core_of(HybridConfig::default(), || NullSink);
        let mut replies: Vec<(&'static str, Outcome, f64)> = Vec::new();
        let mut out = |r: Resolution<&'static str>| replies.push((r.tag, r.outcome, r.wait));
        let (item, class) = (ItemId(0), ClassId(0));
        let at = SimTime::new;

        // `old` tunes in as item 0 goes on the air and gives up half-way
        // through the slot, leaving its waiter entry behind.
        let slot = core.scheduler().catalog().length(item) as f64;
        core.ingest("old", item, class, at(0.0), Some(at(slot * 0.5)), &mut out);
        core.dispatch(at(0.0), &mut out);
        assert_eq!(core.next_due(), Some(at(slot * 0.5)));
        run_until(&mut core, at(slot * 0.5), &mut out);
        assert_eq!(core.live(), 0);

        // `new` takes over the freed slot while item 0 is still airing. The
        // stale entry (tuned in before the slot started) must not serve it
        // off a broadcast it missed the start of.
        core.ingest("new", item, class, at(slot * 0.75), None, &mut out);
        assert_eq!(core.live.slots.len(), 1, "one slot, used twice");
        run_until(&mut core, at(slot), &mut out);
        assert_eq!(core.books().push_tx, 1);
        assert_eq!(core.live(), 1, "`new` waits for the next broadcast");

        while let Some(due) = core.next_due() {
            run_until(&mut core, due, &mut out);
        }
        assert_eq!(
            replies[0],
            ("old", Outcome::TimedOut, slot * 0.5),
            "{replies:?}"
        );
        assert!(
            matches!(replies[1], ("new", Outcome::ServedPush, wait) if wait > slot),
            "{replies:?}"
        );
        assert_eq!(replies.len(), 2, "one answer each: {replies:?}");
        let books = core.books();
        assert!(books.total.conserves() && core.live() == 0, "{books:?}");
    }

    #[test]
    fn a_timed_out_push_waiter_is_not_demand() {
        let mut core: ChannelCore<(), NullSink> = core_of(HybridConfig::default(), || NullSink);
        let at = SimTime::new;
        // A pull request alone: the cycle's push slot airs first, then the
        // pull transmission that answers it.
        core.ingest((), ItemId(50), ClassId(0), at(0.0), None, |_| {});
        core.dispatch(at(0.0), |_| {});
        let pull_start = core.next_due().expect("push slot on the air");
        run_until(&mut core, pull_start, &mut |_| {});
        let pull_end = core.next_due().expect("pull transmission on the air");
        let books = core.books();
        assert_eq!((books.push_tx, books.pull_tx, core.live()), (1, 0, 1));

        // A push waiter files behind the pull transmission and gives up
        // before it lands.
        let mid = |f: f64| at(pull_start.as_f64() + (pull_end.as_f64() - pull_start.as_f64()) * f);
        core.ingest((), ItemId(7), ClassId(1), mid(0.25), Some(mid(0.5)), |_| {});
        run_until(&mut core, pull_end, &mut |_| {});

        let books = core.books();
        assert_eq!((books.total.timed_out, books.total.served_pull), (1, 1));
        assert_eq!(core.live(), 0);
        assert_eq!(
            core.next_due(),
            None,
            "nobody is waiting: the downlink idles"
        );
        assert_eq!(books.push_tx, 1, "no push slot aired to nobody");
    }
}
