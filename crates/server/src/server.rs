//! `hybridcastd`: the wall-clock serving loop.
//!
//! Thread topology (epoll readiness loops + one scheduler thread; no
//! async runtime):
//!
//! ```text
//!          ┌ event loop 0 ┐  per-shard SPSC rings   ┌───────────┐
//! accept ─▶│ epoll, batch │ ───── ingress ────────▶ │ scheduler │
//! (loop 0) │ decode,      │ ── notices (mpsc) ────▶ │  thread   │
//!          │ writev flush │ ◀─ mailbox: one reply ──│           │
//!          └ event loop N ┘    batch per tick       └───────────┘
//! ```
//!
//! * **Event loops** (`event_loop`) own the connections — socket,
//!   read buffer, outbound reply queue — and nothing else touches them:
//!   nonblocking, edge-triggered epoll, stateful per-connection read
//!   buffers feeding a batched frame decoder, and `writev`-coalesced reply
//!   flushing. Each loop is the single producer of one bounded ingress
//!   ring; a full ring is *backpressure*: the loop immediately writes an
//!   explicit `Shed` reply itself (the scheduler never sees the frame) and
//!   posts a notice so the counters and telemetry still see the arrival.
//!   No accepted frame is ever silently dropped.
//! * **The scheduler thread** (one per broadcast channel) drives a
//!   [`ChannelCore`] — the request state machine trace replay also runs —
//!   against a [`WallClock`]: a transmission of `L` broadcast units
//!   occupies the downlink for `L × unit_millis` wall milliseconds. It
//!   drains the shard rings round-robin and encodes each resolution into
//!   an outbox it alone owns, one batch per loop, addressed by the
//!   request's `Copy` `ConnId`; **once per tick** it hands each
//!   non-empty batch to that loop's mailbox — one lock and one waker ring
//!   per loop however many replies. An idle daemon parks on the
//!   [`Doorbell`] instead of broadcasting to nobody.
//! * **Graceful shutdown** (SIGTERM/ctrl-c via [`crate::signal`], the
//!   in-band shutdown frame, or [`ServerHandle::shutdown`]): stop
//!   accepting and reading, keep draining queued pull work for at most
//!   `drain_timeout_ms`, shed whatever is left (every outstanding request
//!   still gets a reply), flush the telemetry JSONL, exit 0.
//!
//! Conservation is a hard invariant checked at exit and recorded in the
//! summary: `accepted = served + shed + timed_out + uplink_lost`.

use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use serde::Serialize;

use hybridcast_core::channel::{
    channel_cores, Books, ChannelCore, ChannelCounters, Outcome, Resolution,
};
use hybridcast_core::clock::WallClock;
use hybridcast_core::shard::{ring as shard_ring, Doorbell, ShardConsumer, ShardSet};
use hybridcast_ops::trace::VERSION as TRACE_VERSION;
use hybridcast_ops::{
    config_hash, hex64, plan_digest, ChannelSnapshot, OpsHub, OpsServer, TraceBuffer, TraceMeta,
    TraceRecord, TraceSink,
};
use hybridcast_sim::stats::{SummaryStats, Welford};
use hybridcast_sim::time::SimDuration;
use hybridcast_telemetry::{TelemetryConfig, WindowRecorder, WindowStats};

use crate::config::ServeConfig;
use crate::event_loop::{
    run_loop, Bounds, ConnId, Ingress, Ledger, LoopCtx, LoopShared, Notice, Reply, POLL,
};
use crate::frame::{ReplyFrame, ReplyStatus};
use crate::poll::tighten_timer_slack;

/// Ring items ingested per scheduler tick before time-driven work
/// (completions, deadlines) gets another look.
const DRAIN_BUDGET: usize = 4096;

/// How often a core refreshes its ops-hub snapshot when no telemetry
/// window closed (window closes publish immediately). One uncontended
/// lock + small memcpy per publish: invisible next to a 25 ms poll tick.
const PUBLISH_EVERY: Duration = Duration::from_millis(200);

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

/// Per-class serving counters.
#[derive(Debug, Clone, Serialize)]
pub struct ClassCounters {
    /// Class name ("Class-A", …).
    pub name: String,
    /// Frames accepted (read off a socket) for this class.
    pub accepted: u64,
    /// Served by the broadcast channel.
    pub served_push: u64,
    /// Served by pull transmissions.
    pub served_pull: u64,
    /// Explicitly rejected (ingress overflow, admission control, drain).
    pub shed: u64,
    /// Deadline expired before service.
    pub timed_out: u64,
    /// Lost on the contended uplink.
    pub uplink_lost: u64,
    /// Server-side wait of served requests, in broadcast units.
    pub wait_units: SummaryStats,
}

/// End-of-run accounting, also written as the JSONL summary line.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSummary {
    /// Every frame read off a socket (including front-end-shed ones).
    pub accepted: u64,
    /// Served by the broadcast channel.
    pub served_push: u64,
    /// Served by pull transmissions.
    pub served_pull: u64,
    /// Explicit rejections.
    pub shed: u64,
    /// Deadline expiries.
    pub timed_out: u64,
    /// Uplink losses.
    pub uplink_lost: u64,
    /// Push transmissions aired.
    pub push_tx: u64,
    /// Pull transmissions aired.
    pub pull_tx: u64,
    /// Accept-loop failures (fd exhaustion and otherwise); each is a
    /// connection that never opened, not an unanswered request.
    pub accept_errors: u64,
    /// Connections killed for exceeding the outbound reply bound (stalled
    /// readers). Their replies are still counted as answered.
    pub stalled_conns: u64,
    /// Wall seconds from first bind to summary.
    pub wall_seconds: f64,
    /// How late each transmission's completion fired, in wall
    /// milliseconds: the wake-up instant minus the slot's due stamp, one
    /// sample per transmission, all channels merged. The daemon keeps
    /// about `mean slot ÷ (mean slot + mean lateness)` of its nominal
    /// broadcast pace.
    pub slot_late_ms: SummaryStats,
    /// `accepted == served + shed + timed_out + uplink_lost` — every
    /// accepted frame was answered exactly once — and the same identity
    /// holds on every individual channel.
    pub conservation_ok: bool,
    /// Number of broadcast channels (scheduler shards) this daemon ran.
    pub channels: u32,
    /// Per-channel breakdown, in channel order.
    pub per_channel: Vec<ChannelCounters>,
    /// Per-class breakdown.
    pub per_class: Vec<ClassCounters>,
}

impl ServeSummary {
    /// Total served over both channels.
    pub fn served(&self) -> u64 {
        self.served_push + self.served_pull
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Runs the daemon until `shutdown` goes true (or an in-band shutdown
/// frame arrives), then drains and returns the summary. Blocking.
pub fn serve(config: ServeConfig, shutdown: Arc<AtomicBool>) -> io::Result<ServeSummary> {
    config
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let listener = TcpListener::bind(&config.serve.addr)?;
    let ops_listener = bind_ops(&config)?;
    if let Some(l) = &ops_listener {
        eprintln!("hybridcastd: ops endpoint on http://{}", l.local_addr()?);
    }
    run(config, listener, ops_listener, shutdown)
}

/// Binds the ops HTTP listener up front (so `:0` resolves before the run
/// starts), when `serve.ops_addr` asks for one.
fn bind_ops(config: &ServeConfig) -> io::Result<Option<TcpListener>> {
    match &config.serve.ops_addr {
        Some(addr) => Ok(Some(TcpListener::bind(addr)?)),
        None => Ok(None),
    }
}

/// A daemon running on a background thread — the embedding/test harness.
pub struct ServerHandle {
    addr: SocketAddr,
    ops_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    join: JoinHandle<io::Result<ServeSummary>>,
}

impl ServerHandle {
    /// Binds (so the ephemeral port is known immediately) and starts the
    /// serve loop on a background thread.
    pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(&config.serve.addr)?;
        let addr = listener.local_addr()?;
        let ops_listener = bind_ops(&config)?;
        let ops_addr = match &ops_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let join = thread::spawn(move || run(config, listener, ops_listener, flag));
        Ok(ServerHandle {
            addr,
            ops_addr,
            shutdown,
            join,
        })
    }

    /// The actual bound address (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ops endpoint's bound address, when `serve.ops_addr` enabled it.
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.ops_addr
    }

    /// Requests graceful shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the daemon to drain and returns its summary.
    pub fn join(self) -> io::Result<ServeSummary> {
        self.join
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("serve thread panicked")))
    }
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

fn run(
    config: ServeConfig,
    listener: TcpListener,
    ops_listener: Option<TcpListener>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<ServeSummary> {
    let started = Instant::now();
    let scenario = config.scenario.build();
    let clock = WallClock::start(config.serve.unit_millis);
    let bounds = Bounds {
        num_items: scenario.catalog.len() as u32,
        num_classes: scenario.classes.len() as u8,
    };
    let nloops = config.serve.loop_threads.max(1);
    let outbound_bound = config.serve.conn_outbound_kib.saturating_mul(1024);
    let ledger = Arc::new(Ledger::default());
    let done = Arc::new(AtomicBool::new(false));
    let (notice_tx, notice_rx) = channel::<Notice>();
    listener.set_nonblocking(true)?;

    // One channel core per scheduler shard — one core thread each.
    // Outside the sharded layout this is a single shard and the topology
    // collapses to the classic N-loops-one-scheduler shape.
    let (channel_cores, plan) = channel_cores(&scenario, &config.hybrid, || {
        WindowRecorder::new(
            TelemetryConfig::new(config.serve.telemetry_window),
            &scenario.classes,
            &scenario.catalog,
            config.hybrid.cutoff,
        )
    });
    let channels = plan.channels() as usize;
    let class_names: Vec<String> = scenario
        .classes
        .iter()
        .map(|(_, c)| c.name.clone())
        .collect();
    let route: Arc<[u8]> = plan.assignment().to_vec().into();
    let doorbells: Vec<Arc<Doorbell>> = (0..channels).map(|_| Arc::new(Doorbell::new())).collect();

    // The run's identity: config hash (over the canonical identity JSON)
    // and channel-plan digest, stamped into every artifact this run emits.
    let cfg_hash = config_hash(&config.identity_json());
    let plan_dig = plan_digest(plan.channels(), plan.assignment());

    let mut shareds: Vec<Arc<LoopShared>> = Vec::with_capacity(nloops);
    for _ in 0..nloops {
        shareds.push(Arc::new(LoopShared::new()?));
    }
    // The ring matrix: each loop produces into one ring per channel;
    // channel c's core consumes column c across all loops.
    let mut columns: Vec<Vec<ShardConsumer<Ingress>>> =
        (0..channels).map(|_| Vec::with_capacity(nloops)).collect();
    let mut joins = Vec::with_capacity(nloops);
    let mut listener = Some(listener);
    for (i, shared) in shareds.iter().enumerate() {
        let mut rings = Vec::with_capacity(channels);
        for column in columns.iter_mut() {
            let (producer, consumer) = shard_ring::<Ingress>(config.serve.ingress_capacity);
            rings.push(producer);
            column.push(consumer);
        }
        let ctx = LoopCtx {
            index: i,
            shared: Arc::clone(shared),
            peers: shareds.clone(),
            listener: listener.take(), // loop 0 owns the accept path
            rings,
            route: Arc::clone(&route),
            notices: notice_tx.clone(),
            doorbells: doorbells.clone(),
            shutdown: Arc::clone(&shutdown),
            done: Arc::clone(&done),
            outbound_bound,
            ledger: Arc::clone(&ledger),
            bounds,
            clock: clock.clone(),
        };
        joins.push(thread::spawn(move || run_loop(ctx)));
    }
    drop(notice_tx);

    // One shared JSONL writer; each core tags its window lines with its
    // channel index.
    let mut out: Option<SharedOut> = None;
    if let Some(path) = &config.serve.results_path {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let header = serde_json::json!({
            "kind": "header",
            "classes": &class_names,
            "channels": channels,
            "window": config.serve.telemetry_window,
            "unit_millis": config.serve.unit_millis,
            "config_hash": hex64(cfg_hash),
            "plan_digest": hex64(plan_dig),
        });
        writeln!(w, "{}", serde_json::to_string(&header).expect("header"))?;
        out = Some(Arc::new(Mutex::new(w)));
    }

    // The ops hub + HTTP endpoint (when enabled): cores publish snapshots,
    // the endpoint thread serves them — the data plane never blocks on it.
    let hub: Option<Arc<OpsHub>> = ops_listener.as_ref().map(|_| {
        Arc::new(OpsHub::new(
            cfg_hash,
            plan_dig,
            channels as u32,
            class_names.clone(),
            config.serve.telemetry_window,
            config.serve.unit_millis,
            config.to_json(),
        ))
    });
    let ops_server = match (ops_listener, &hub) {
        (Some(l), Some(h)) => Some(OpsServer::start_on(l, Arc::clone(h))?),
        _ => None,
    };

    // The trace sink (when enabled): one shared writer, each core appends
    // its own records through a bounded local buffer.
    let trace_sink: Option<Arc<TraceSink>> = match &config.serve.trace_path {
        Some(path) => {
            let meta = TraceMeta {
                version: TRACE_VERSION,
                config_hash: cfg_hash,
                channels: channels as u32,
                plan_digest: plan_dig,
                unit_millis: config.serve.unit_millis,
                num_items: scenario.catalog.len() as u32,
                num_classes: scenario.classes.len() as u8,
                default_deadline_ms: config.serve.default_deadline_ms,
            };
            Some(TraceSink::create(std::path::Path::new(path), &meta)?)
        }
        None => None,
    };

    let drain_budget = Duration::from_millis(config.serve.drain_timeout_ms);
    // Channel 0's core drains the notice queue (front-end sheds).
    let mut notice_rx = Some(notice_rx);
    let cores = channel_cores.into_iter().zip(0u32..).map(|(core, c)| Core {
        channel: c,
        core,
        clock: clock.clone(),
        unit_millis: config.serve.unit_millis,
        default_deadline_ms: config.serve.default_deadline_ms,
        notices: notice_rx.take(),
        outbox: vec![Vec::new(); nloops],
        out: out.clone(),
        hub: hub.clone(),
        last_pub: Instant::now(),
        last_window: None,
        trace: trace_sink.clone().map(TraceBuffer::new),
        slot_late_ms: Welford::new(),
    });

    // Channels 1.. run on their own threads; channel 0 on this one.
    let mut core_iter = cores.zip(columns);
    let (mut core0, consumers0) = core_iter.next().expect("at least one channel");
    let mut handles = Vec::new();
    for (c, (mut core, consumers)) in core_iter.enumerate() {
        let doorbell = Arc::clone(&doorbells[c + 1]);
        let loops = shareds.clone();
        let stop = Arc::clone(&shutdown);
        handles.push(thread::spawn(move || {
            let mut shards = ShardSet::new(consumers);
            core.run(&mut shards, &doorbell, &loops, &stop);
            core.drain(&mut shards, &loops, drain_budget);
            core.seal()
        }));
    }
    let mut shards0 = ShardSet::new(consumers0);
    core0.run(&mut shards0, &doorbells[0], &shareds, &shutdown);
    core0.drain(&mut shards0, &shareds, drain_budget);
    let mut sealed = vec![core0.seal()];
    for h in handles {
        sealed.push(
            h.join()
                .map_err(|_| io::Error::other("channel core thread panicked"))?,
        );
    }
    sealed.sort_by_key(|s| s.channel);

    // Loops final-flush every queued reply, close all connections (clients
    // see EOF), and exit.
    done.store(true, Ordering::SeqCst);
    for s in &shareds {
        s.wake();
    }
    for j in joins {
        let _ = j.join();
    }
    // Cores have sealed (flushing their trace buffers); push the sink's
    // remaining bytes to disk, then retire the ops endpoint.
    if let Some(sink) = &trace_sink {
        let _ = sink.flush();
    }
    if let Some(ops) = ops_server {
        ops.stop();
    }
    finish(sealed, started.elapsed(), &ledger, out, &class_names)
}

/// Merges the per-channel cores' books into the global summary —
/// conservation checked per channel *and* globally — and writes the JSONL
/// summary line.
fn finish(
    sealed: Vec<SealedCore>,
    elapsed: Duration,
    ledger: &Ledger,
    out: Option<SharedOut>,
    class_names: &[String],
) -> io::Result<ServeSummary> {
    let mut total = Books::new(class_names.len());
    let mut slot_late_ms = Welford::new();
    let mut per_channel = Vec::with_capacity(sealed.len());
    for s in &sealed {
        per_channel.push(s.books.counters(s.channel, s.live_empty));
        total += &s.books;
        slot_late_ms.merge(&s.slot_late_ms);
    }
    let summary = ServeSummary {
        accepted: total.total.accepted,
        served_push: total.total.served_push,
        served_pull: total.total.served_pull,
        shed: total.total.shed,
        timed_out: total.total.timed_out,
        uplink_lost: total.total.uplink_lost,
        push_tx: total.push_tx,
        pull_tx: total.pull_tx,
        accept_errors: ledger.accept_errors.load(Ordering::Relaxed),
        stalled_conns: ledger.stalled_conns.load(Ordering::Relaxed),
        wall_seconds: elapsed.as_secs_f64(),
        slot_late_ms: slot_late_ms.summary(),
        conservation_ok: per_channel.iter().all(|ch| ch.conservation_ok),
        channels: sealed.len() as u32,
        per_channel,
        per_class: total
            .per_class
            .iter()
            .zip(class_names)
            .map(|(class, name)| ClassCounters {
                name: name.clone(),
                accepted: class.tally.accepted,
                served_push: class.tally.served_push,
                served_pull: class.tally.served_pull,
                shed: class.tally.shed,
                timed_out: class.tally.timed_out,
                uplink_lost: class.tally.uplink_lost,
                wait_units: class.wait.summary(),
            })
            .collect(),
    };
    if let Some(out) = &out {
        let line = serde_json::json!({
            "kind": "summary",
            "summary": &summary,
        });
        let mut w = out.lock().expect("jsonl writer lock");
        writeln!(w, "{}", serde_json::to_string(&line).expect("summary line"))?;
        w.flush()?;
    }
    Ok(summary)
}

// ---------------------------------------------------------------------------
// Scheduler core
// ---------------------------------------------------------------------------

/// The shared JSONL telemetry writer (one file, all channel cores).
type SharedOut = Arc<Mutex<BufWriter<std::fs::File>>>;

/// One channel core's final books, handed back to the topology thread
/// for the global merge.
struct SealedCore {
    channel: u32,
    books: Books,
    live_empty: bool,
    slot_late_ms: Welford,
}

/// The wall-clock driver of one channel's [`ChannelCore`]: it owns what is
/// the daemon's alone — the clock, front-end notices, default-deadline
/// resolution, trace recording, JSONL/hub publishing — and turns each
/// [`Resolution`] into a [`ReplyFrame`] for the loop that owns the
/// request's connection.
struct Core {
    /// This core's broadcast-channel index.
    channel: u32,
    /// The request state machine; a request's tag is its `(seq, conn)`
    /// reply address.
    core: ChannelCore<(u64, ConnId), WindowRecorder>,
    clock: WallClock,
    unit_millis: f64,
    default_deadline_ms: u32,
    /// Front-end shed notices; only channel 0's core holds the receiver.
    notices: Option<Receiver<Notice>>,
    /// Replies resolved since the last hand-over, one batch per event
    /// loop (indexed like the loops). The core's own: filling it takes no
    /// lock.
    outbox: Vec<Vec<Reply>>,
    out: Option<SharedOut>,
    /// Live-stats hub (when the ops endpoint is enabled).
    hub: Option<Arc<OpsHub>>,
    /// Wall time of the last hub publish (throttles refreshes between
    /// window closes).
    last_pub: Instant,
    /// Latest closed telemetry window, republished with every snapshot.
    last_window: Option<WindowStats>,
    /// Accepted-request trace recorder (when trace recording is enabled).
    trace: Option<TraceBuffer>,
    /// Completion lateness per transmission (see
    /// [`ServeSummary::slot_late_ms`]).
    slot_late_ms: Welford,
}

/// The outbox: encodes one resolution as its reply frame and files it in
/// the batch of the loop that owns the connection (`wait` arrives in
/// broadcast units).
fn reply(
    unit_millis: f64,
    outbox: &mut [Vec<Reply>],
) -> impl FnMut(Resolution<(u64, ConnId)>) + '_ {
    move |r| {
        let (seq, conn) = r.tag;
        let frame = ReplyFrame {
            seq,
            status: match r.outcome {
                Outcome::ServedPush => ReplyStatus::ServedPush,
                Outcome::ServedPull => ReplyStatus::ServedPull,
                Outcome::Shed => ReplyStatus::Shed,
                Outcome::TimedOut => ReplyStatus::TimedOut,
                Outcome::UplinkLost => ReplyStatus::UplinkLost,
            },
            item: r.item.0,
            wait_ms: r.wait * unit_millis,
        };
        outbox[conn.loop_index()].push((conn, frame.encode()));
    }
}

/// One JSONL line tagging a serializable payload with its kind and the
/// channel that produced it.
fn jsonl_line(kind: &str, channel: u32, field: &str, payload: &impl Serialize) -> String {
    let value = serde_json::Value::Object(vec![
        (
            "kind".to_string(),
            serde_json::Value::String(kind.to_string()),
        ),
        (
            "channel".to_string(),
            serde_json::to_value(&channel).expect("channel serializes"),
        ),
        (
            field.to_string(),
            serde_json::to_value(payload).expect("payload serializes"),
        ),
    ]);
    serde_json::to_string(&value).expect("jsonl line serializes")
}

impl Core {
    /// The steady-state loop: wake for ingress (doorbell), due
    /// deliveries/timeouts, and transmission completions; dispatch
    /// whenever the downlink is idle and demand exists. Replies are
    /// batched: each loop gets at most one hand-over per tick.
    fn run(
        &mut self,
        shards: &mut ShardSet<Ingress>,
        doorbell: &Doorbell,
        loops: &[Arc<LoopShared>],
        stop: &AtomicBool,
    ) {
        tighten_timer_slack();
        loop {
            self.drain_notices();
            self.advance();
            if stop.load(Ordering::SeqCst) {
                self.hand_over(loops);
                return;
            }
            self.core
                .dispatch(self.clock.now(), reply(self.unit_millis, &mut self.outbox));
            self.stream_windows();

            let drained = shards.drain(DRAIN_BUDGET, |ing| self.ingest(ing));
            self.hand_over(loops);
            if drained == 0 {
                let wait = self
                    .core
                    .next_due()
                    .map(|t| self.clock.wall_until(t))
                    .unwrap_or(POLL)
                    .min(POLL);
                doorbell.wait(wait, || !shards.all_idle());
            }
        }
    }

    /// Shutdown path: requests already pushed into the shard rings still
    /// get scheduled (they were admitted before the flag), then the loop
    /// keeps completing and dispatching until the backlog is empty or the
    /// drain budget runs out; whatever remains is shed explicitly.
    fn drain(
        &mut self,
        shards: &mut ShardSet<Ingress>,
        loops: &[Arc<LoopShared>],
        budget: Duration,
    ) {
        let deadline = Instant::now() + budget;
        loop {
            shards.drain(usize::MAX, |ing| self.ingest(ing));
            self.drain_notices();
            self.advance();
            self.hand_over(loops);
            if self.core.live() == 0 || Instant::now() >= deadline {
                break;
            }
            self.core
                .dispatch(self.clock.now(), reply(self.unit_millis, &mut self.outbox));
            let wait = self
                .core
                .next_due()
                .map(|t| self.clock.wall_until(t))
                .unwrap_or(Duration::from_millis(1))
                .min(Duration::from_millis(5))
                .max(Duration::from_micros(100));
            thread::sleep(wait);
        }
        // A loop may have pushed a final trickle between our last drain
        // pass and it observing the flag: ingest (counts the acceptance)
        // so the leftovers sweep below answers it.
        shards.drain(usize::MAX, |ing| self.ingest(ing));
        self.drain_notices();
        // Out of budget (or nothing left): shed the remainder.
        self.core
            .shed_remaining(self.clock.now(), reply(self.unit_millis, &mut self.outbox));
        self.hand_over(loops);
    }

    /// Gives every loop the replies resolved for its connections since the
    /// last hand-over: per loop with any, one mailbox lock and one wake.
    fn hand_over(&mut self, loops: &[Arc<LoopShared>]) {
        for (l, batch) in loops.iter().zip(&mut self.outbox) {
            l.deliver(batch);
        }
    }

    /// Fires what is due now and books how late the completion ran, if
    /// one fired.
    fn advance(&mut self) {
        let now = self.clock.now();
        let fired = self
            .core
            .advance(now, reply(self.unit_millis, &mut self.outbox));
        if let Some(due) = fired {
            self.slot_late_ms
                .push(now.since(due).as_f64() * self.unit_millis);
        }
    }

    /// Closes out this channel's telemetry (flushing the window tail to
    /// the shared writer) and hands back its books for the global merge.
    fn seal(mut self) -> SealedCore {
        self.stream_windows();
        let mut snapshot = self.snapshot();
        let live_empty = self.core.live() == 0;
        let (books, recorder, end) = self.core.into_parts(self.clock.now());
        let tail = recorder.finish(end);
        if let Some(out) = &self.out {
            let mut w = out.lock().expect("jsonl writer lock");
            for stats in &tail.windows {
                let _ = writeln!(w, "{}", jsonl_line("window", self.channel, "stats", stats));
            }
        }
        // Final hub refresh (with the closed partial tail window) and
        // trace-buffer flush before the books are handed back.
        if let Some(hub) = &self.hub {
            if let Some(last) = tail.windows.last() {
                snapshot.last_window = Some(last.clone());
            }
            hub.publish(self.channel, snapshot);
        }
        if let Some(trace) = &mut self.trace {
            trace.finish();
        }
        SealedCore {
            channel: self.channel,
            books,
            live_empty,
            slot_late_ms: self.slot_late_ms,
        }
    }

    /// Resolves the effective deadline, records the request, and hands it
    /// to the channel core.
    fn ingest(&mut self, ing: Ingress) {
        let deadline_ms = if ing.deadline_ms > 0 {
            ing.deadline_ms
        } else {
            self.default_deadline_ms
        };
        // Record the scheduler-ingested stream (raw stamp, effective
        // deadline) — front-end sheds never reach a core and are not
        // traced; replay reproduces the scheduler's books, not the
        // socket layer's.
        if let Some(trace) = &mut self.trace {
            trace.push(&TraceRecord {
                arrival: ing.ingest.as_f64(),
                item: ing.item.0,
                class: ing.class.0,
                channel: self.channel as u8,
                deadline_ms,
            });
        }
        let deadline = (deadline_ms > 0)
            .then(|| ing.ingest + SimDuration::new(deadline_ms as f64 / self.unit_millis));
        self.core.ingest(
            (ing.seq, ing.conn),
            ing.item,
            ing.class,
            ing.ingest,
            deadline,
            reply(self.unit_millis, &mut self.outbox),
        );
    }

    fn drain_notices(&mut self) {
        // Only channel 0's core holds a receiver.
        let Some(notices) = &self.notices else {
            return;
        };
        while let Ok(n) = notices.try_recv() {
            self.core.refuse(n.ingest, n.item.zip(n.class));
        }
    }

    fn stream_windows(&mut self) {
        if self.out.is_none() && self.hub.is_none() {
            return;
        }
        let closed = self.core.sink_mut().drain_closed();
        if !closed.is_empty() {
            self.last_window = closed.last().cloned();
            let channel = self.channel;
            if let Some(out) = &self.out {
                let mut w = out.lock().expect("jsonl writer lock");
                let mut failed = false;
                for stats in &closed {
                    if writeln!(w, "{}", jsonl_line("window", channel, "stats", stats)).is_err() {
                        failed = true;
                        break;
                    }
                }
                if failed {
                    drop(w);
                    self.out = None;
                } else {
                    let _ = w.flush();
                }
            }
        }
        self.publish(!closed.is_empty());
    }

    /// This core's books and queue state as the hub publishes them.
    fn snapshot(&self) -> ChannelSnapshot {
        let books = self.core.books();
        let queue = self.core.scheduler().queue();
        ChannelSnapshot {
            accepted: books.total.accepted,
            served_push: books.total.served_push,
            served_pull: books.total.served_pull,
            shed: books.total.shed,
            timed_out: books.total.timed_out,
            uplink_lost: books.total.uplink_lost,
            push_tx: books.push_tx,
            pull_tx: books.pull_tx,
            live: self.core.live() as u64,
            queue_items: queue.len() as u32,
            queue_requests: queue.total_requests() as u32,
            cutoff_k: self.core.scheduler().cutoff() as u32,
            slot_late_ms: self.slot_late_ms.summary(),
            last_window: self.last_window.clone(),
        }
    }

    /// Publishes this core's snapshot to the ops hub: immediately when
    /// `force` (a window just closed), otherwise at most every
    /// [`PUBLISH_EVERY`].
    fn publish(&mut self, force: bool) {
        let Some(hub) = &self.hub else {
            return;
        };
        if !force && self.last_pub.elapsed() < PUBLISH_EVERY {
            return;
        }
        self.last_pub = Instant::now();
        hub.publish(self.channel, self.snapshot());
    }
}
