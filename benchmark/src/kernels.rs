//! Per-layer kernels: each times calls into one module's public functions,
//! fed the workload's own inputs, from outside the module. `ns` results
//! are per operation. Every kernel runs under a span, so the trace file
//! shows where the traced run's own time went.

use std::hint::black_box;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hybridcast_core::config::HybridConfig;
use hybridcast_core::hybrid::HybridScheduler;
use hybridcast_core::metrics::{MetricsCollector, TxKind};
use hybridcast_core::pull::{IndexContext, PullContext};
use hybridcast_core::queue::PullQueue;
use hybridcast_core::shard::{ring, Doorbell, ShardSet};
use hybridcast_server::frame::{Frame, FrameBatch, ReplyFrame, ReplyStatus, RequestFrame};
use hybridcast_sim::event::EventQueue;
use hybridcast_sim::rng::RngFactory;
use hybridcast_sim::time::{SimDuration, SimTime};
use hybridcast_telemetry::{ServiceKind, Sink, TelemetryConfig, TelemetryEvent, WindowRecorder};
use hybridcast_workload::requests::Request;
use hybridcast_workload::scenario::Scenario;

use crate::report::Metrics;
use crate::spans::Tracer;

/// Bytes handed to the frame decoder per `extend`, as the event loop's
/// read buffer does.
const READ_CHUNK: usize = 64 * 1024;
/// Capacity of the kernel's rings (the daemon's default `ingress_capacity`).
const RING_CAPACITY: usize = 8192;
/// Rings in the kernel's `ShardSet` (the daemon's `loop_threads`).
const RINGS: usize = 2;

/// Scheduler-kernel by-products other kernels and reports reuse.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerRun {
    pub ns_per_request: f64,
    pub on_request_ns: f64,
    pub next_tx_ns: f64,
    pub complete_tx_ns: f64,
}

pub struct Kernels<'a> {
    pub tracer: &'a mut Tracer,
    pub scenario: &'a Scenario,
    pub hybrid: &'a HybridConfig,
    /// The workload's requests in arrival order, stamps in broadcast units.
    pub requests: &'a [Request],
}

/// The request as the wire carries it.
fn frame_of(seq: usize, r: &Request) -> RequestFrame {
    RequestFrame {
        seq: seq as u64,
        class: r.class.0,
        item: r.item.0,
        deadline_ms: 0,
    }
}

fn per_op(elapsed: Duration, ops: usize) -> f64 {
    elapsed.as_nanos() as f64 / ops.max(1) as f64
}

/// Cost of one `Instant::now()` pair, subtracted where a kernel has to
/// time calls one by one.
fn timer_overhead() -> Duration {
    const N: u32 = 20_000;
    let t0 = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    t0.elapsed() / N
}

impl Kernels<'_> {
    /// `server::frame` and `core::shard`: what the front end does to every
    /// request whatever the scheduler then decides. Returns the kernels'
    /// ns per request (decode + encode + single-thread ring).
    pub fn front_end(&mut self, m: &mut Metrics) -> f64 {
        let n = self.requests.len();
        let span = self.tracer.open("kernels.front_end", None);

        // The workload's request byte stream through the batch decoder.
        let mut wire = Vec::with_capacity(n * 22);
        for (seq, r) in self.requests.iter().enumerate() {
            wire.extend_from_slice(&frame_of(seq, r).encode());
        }
        let decode = self.tracer.time("frame.req_decode", span, || {
            let mut batch = FrameBatch::new();
            let mut decoded = 0usize;
            let t0 = Instant::now();
            for chunk in wire.chunks(READ_CHUNK) {
                batch.extend(chunk);
                while let Ok(Some(frame)) = batch.decode_next() {
                    if let Frame::Request(req) = frame {
                        black_box(req);
                        decoded += 1;
                    }
                }
            }
            assert_eq!(decoded, n, "decoder lost frames");
            per_op(t0.elapsed(), n)
        });
        m.set("frame.req_decode_ns", decode);

        let encode = self.tracer.time("frame.reply_encode", span, || {
            let mut outbound = Vec::with_capacity(READ_CHUNK + 26);
            let t0 = Instant::now();
            for (seq, r) in self.requests.iter().enumerate() {
                let reply = ReplyFrame {
                    seq: seq as u64,
                    status: ReplyStatus::ServedPush,
                    item: r.item.0,
                    wait_ms: r.arrival.as_f64(),
                };
                outbound.extend_from_slice(&black_box(reply).encode());
                if outbound.len() >= READ_CHUNK {
                    black_box(&outbound);
                    outbound.clear();
                }
            }
            per_op(t0.elapsed(), n)
        });
        m.set("frame.reply_encode_ns", encode);

        // Ring push + round-robin drain on one thread: the pure cost.
        let ring_ns = self.tracer.time("shard.ring", span, || {
            let (producers, consumers): (Vec<_>, Vec<_>) = (0..RINGS)
                .map(|_| ring::<RequestFrame>(RING_CAPACITY))
                .unzip();
            let mut set = ShardSet::new(consumers);
            let frames = self
                .requests
                .iter()
                .enumerate()
                .map(|(seq, r)| frame_of(seq, r));
            let mut drained = 0usize;
            let t0 = Instant::now();
            for (i, frame) in frames.enumerate() {
                let full = producers[i % RINGS].push(frame).is_err();
                assert!(!full, "kernel ring overflowed");
                if i % 64 == 63 {
                    drained += set.drain(usize::MAX, |f| {
                        black_box(f);
                    });
                }
            }
            drained += set.drain(usize::MAX, |f| {
                black_box(f);
            });
            assert_eq!(drained, n, "ring lost frames");
            per_op(t0.elapsed(), n)
        });
        m.set("shard.ring_ns", ring_ns);

        // Producer and consumer on two threads with the doorbell: the
        // hand-off as the daemon runs it, wake-ups included.
        let xthread_ns = self.tracer.time("shard.ring_xthread", span, || {
            let (producer, consumer) = ring::<RequestFrame>(RING_CAPACITY);
            let mut set = ShardSet::new(vec![consumer]);
            let bell = Arc::new(Doorbell::new());
            let requests = self.requests;
            let t0 = Instant::now();
            thread::scope(|s| {
                let bell_tx = Arc::clone(&bell);
                s.spawn(move || {
                    for (seq, r) in requests.iter().enumerate() {
                        let mut frame = frame_of(seq, r);
                        while let Err(back) = producer.push(frame) {
                            frame = back;
                            thread::yield_now();
                        }
                        bell_tx.ring();
                    }
                });
                let mut got = 0usize;
                while got < n {
                    let k = set.drain(usize::MAX, |f| {
                        black_box(f);
                    });
                    got += k;
                    if k == 0 {
                        bell.wait(Duration::from_millis(1), || !set.all_idle());
                    }
                }
            });
            per_op(t0.elapsed(), n)
        });
        m.set("shard.ring_xthread_ns", xthread_ns);
        self.tracer.close(span);
        decode + encode + ring_ns
    }

    /// `core::hybrid` / `queue` / `pull`: a `HybridScheduler` fed the
    /// workload's requests in virtual time — arrivals up to each slot's
    /// end, then the slot's completion, as every driver does.
    pub fn scheduler(&mut self, m: &mut Metrics) -> SchedulerRun {
        let n = self.requests.len();
        let span = self.tracer.open("kernels.scheduler", None);
        let tick = timer_overhead();
        let run = self.tracer.time("hybrid.drive", span, || {
            let mut sched = HybridScheduler::new(
                self.scenario.catalog.clone(),
                self.scenario.classes.clone(),
                self.hybrid,
                &self.scenario.factory,
            );
            let (mut t_req, mut t_next, mut t_done) =
                (Duration::ZERO, Duration::ZERO, Duration::ZERO);
            let (mut batches, mut slots, mut peak) = (0u32, 0u32, 0usize);
            let mut now = SimTime::ZERO;
            let mut i = 0usize;
            while i < n {
                let t0 = Instant::now();
                let (tx, dropped) = sched.next_transmission(now);
                t_next += t0.elapsed();
                slots += 1;
                black_box(dropped);
                let until = match &tx {
                    Some(tx) => tx.completes_at(),
                    // K = 0 and an empty queue: idle until the next arrival.
                    None => self.requests[i].arrival,
                };
                let t0 = Instant::now();
                while i < n && self.requests[i].arrival <= until {
                    black_box(sched.on_request(&self.requests[i]));
                    i += 1;
                }
                t_req += t0.elapsed();
                batches += 1;
                peak = peak.max(sched.queue().len());
                if let Some(tx) = tx {
                    let t0 = Instant::now();
                    let served = sched.complete_transmission(tx);
                    t_done += t0.elapsed();
                    if let Some(entry) = served {
                        sched.recycle(entry);
                    }
                }
                now = until;
            }
            m.set("queue.inserted", sched.queue().inserted() as f64);
            m.set(
                "queue.extracted_items",
                sched.queue().extracted_items() as f64,
            );
            m.set("queue.peak_len", peak as f64);
            let on_request_ns = per_op(t_req.saturating_sub(tick * batches), n);
            let next_tx_ns = per_op(t_next.saturating_sub(tick * slots), slots as usize);
            let complete_tx_ns = per_op(t_done.saturating_sub(tick * slots), slots as usize);
            let tx_per_request = slots as f64 / n.max(1) as f64;
            SchedulerRun {
                ns_per_request: on_request_ns + (next_tx_ns + complete_tx_ns) * tx_per_request,
                on_request_ns,
                next_tx_ns,
                complete_tx_ns,
            }
        });
        m.set("hybrid.on_request_ns", run.on_request_ns);
        m.set("hybrid.next_tx_ns", run.next_tx_ns);
        m.set("hybrid.complete_tx_ns", run.complete_tx_ns);

        // The queue alone: insert + re-index per pull request, one indexed
        // selection per `batch` requests (the ratio the drive above saw).
        let inserted = m.get("queue.inserted").unwrap_or(0.0);
        let extracted = m.get("queue.extracted_items").unwrap_or(0.0);
        let policy = self.hybrid.pull.build();
        let catalog = &self.scenario.catalog;
        let classes = &self.scenario.classes;
        let ictx = IndexContext { catalog, classes };
        let pulls: Vec<&Request> = self
            .requests
            .iter()
            .filter(|r| r.item.index() >= self.hybrid.cutoff)
            .collect();
        if !pulls.is_empty() && extracted > 0.0 {
            let batch = (inserted / extracted).round().max(1.0) as usize;
            let (insert_ns, select_ns) = self.tracer.time("queue.insert_select", span, || {
                let mut queue = PullQueue::new(catalog.len());
                let (mut t_ins, mut t_sel) = (Duration::ZERO, Duration::ZERO);
                let mut selections = 0u32;
                for group in pulls.chunks(batch) {
                    let t0 = Instant::now();
                    for req in group {
                        queue.insert(req, classes.priority(req.class));
                        let entry = queue.get(req.item).expect("just inserted");
                        let score = policy.rescore(entry, &ictx).expect("importance is local");
                        queue.reindex(req.item, score);
                    }
                    t_ins += t0.elapsed();
                    let t0 = Instant::now();
                    let best = queue.select_max_indexed().expect("queue is non-empty");
                    let entry = queue.remove(best);
                    t_sel += t0.elapsed();
                    selections += 1;
                    queue.recycle(entry);
                }
                (
                    per_op(t_ins.saturating_sub(tick * selections), pulls.len()),
                    per_op(t_sel.saturating_sub(tick * selections), selections as usize),
                )
            });
            m.set("queue.insert_ns", insert_ns);
            m.set("queue.select_indexed_ns", select_ns);

            // Eq. 1 itself: the full score over a queue holding one entry
            // per pull item the workload touched.
            let score_ns = self.tracer.time("pull.score", span, || {
                let mut queue = PullQueue::new(catalog.len());
                for req in pulls.iter().take(catalog.len() * 8) {
                    queue.insert(req, classes.priority(req.class));
                }
                let ctx = PullContext {
                    catalog,
                    classes,
                    now: pulls[pulls.len() - 1].arrival,
                    mean_queue_len: queue.len() as f64,
                };
                let rounds = (200_000 / queue.len().max(1)).max(1);
                let t0 = Instant::now();
                let mut acc = 0.0;
                for _ in 0..rounds {
                    for entry in queue.iter() {
                        acc += policy.score(black_box(entry), &ctx);
                    }
                }
                black_box(acc);
                per_op(t0.elapsed(), rounds * queue.len())
            });
            m.set("pull.score_ns", score_ns);
        }
        self.tracer.close(span);
        run
    }

    /// `sim::engine`: push + pop on an `EventQueue` holding `depth` events
    /// (the hold model), the depth the workload's driver keeps pending.
    pub fn engine(&mut self, m: &mut Metrics, depth: usize) -> f64 {
        let ns = self.tracer.time("engine.event", None, || {
            const OPS: usize = 2_000_000;
            let mut q: EventQueue<u64> = EventQueue::with_capacity(depth + 1);
            for i in 0..depth {
                q.push(SimTime::new(i as f64), i as u64);
            }
            let t0 = Instant::now();
            for i in 0..OPS {
                let (t, e) = q.pop().expect("hold model keeps the queue full");
                q.push(t + SimDuration::new(1.0 + (e % 7) as f64), i as u64);
            }
            black_box(&q);
            per_op(t0.elapsed(), OPS)
        });
        m.set("engine.event_ns", ns);
        ns
    }

    /// `sim::dist` and `workload::requests`: the item law alone, then the
    /// whole generator (gap + item + class per request).
    pub fn generator(&mut self, m: &mut Metrics) -> f64 {
        const OPS: usize = 2_000_000;
        let sampler = self.scenario.catalog.sampler();
        let zipf_ns = self.tracer.time("dist.zipf_sample", None, || {
            let mut rng = RngFactory::new(self.scenario.config.seed).stream(0xD1);
            let t0 = Instant::now();
            let mut acc = 0usize;
            for _ in 0..OPS {
                acc += sampler.sample(&mut rng);
            }
            black_box(acc);
            per_op(t0.elapsed(), OPS)
        });
        m.set("dist.zipf_sample_ns", zipf_ns);
        let next_ns = self.tracer.time("workload.next_request", None, || {
            let mut stream = self.scenario.request_stream();
            let t0 = Instant::now();
            for _ in 0..OPS {
                black_box(stream.next_request());
            }
            per_op(t0.elapsed(), OPS)
        });
        m.set("workload.next_request_ns", next_ns);
        next_ns
    }

    /// `core::metrics` and `telemetry`: one served-request record each.
    /// Returns `metrics.record_served_ns`.
    pub fn accounting(&mut self, m: &mut Metrics) -> f64 {
        let n = self.requests.len();
        let classes = &self.scenario.classes;
        let served_ns = self.tracer.time("metrics.record_served", None, || {
            let mut collector = MetricsCollector::new(classes.len(), SimTime::ZERO);
            let t0 = Instant::now();
            for r in self.requests {
                collector.record_served(
                    r.class,
                    TxKind::Pull,
                    r.arrival,
                    r.arrival + SimDuration::new(3.0),
                );
            }
            black_box(&collector);
            per_op(t0.elapsed(), n)
        });
        m.set("metrics.record_served_ns", served_ns);
        let window_ns = self.tracer.time("telemetry.window_event", None, || {
            let mut recorder = WindowRecorder::new(
                TelemetryConfig::default(),
                classes,
                &self.scenario.catalog,
                self.hybrid.cutoff,
            );
            let t0 = Instant::now();
            for r in self.requests {
                recorder.record(&TelemetryEvent::RequestArrival {
                    time: r.arrival,
                    item: r.item,
                    class: r.class,
                });
                recorder.record(&TelemetryEvent::RequestServed {
                    time: r.arrival,
                    item: r.item,
                    class: r.class,
                    kind: ServiceKind::Pull,
                    arrival: r.arrival,
                });
            }
            black_box(&recorder);
            per_op(t0.elapsed(), 2 * n)
        });
        m.set("telemetry.window_event_ns", window_ns);
        served_ns
    }
}
