//! Open-loop load generator for `hybridcastd`.
//!
//! A handful of worker threads (at most four) multiplex all the
//! connections over nonblocking sockets and one epoll instance each —
//! 64 connections no longer cost 128 threads. Every *connection* still
//! paces an independent Poisson process at `rps / connections` requests
//! per wall second — *open loop*: send instants are scheduled from the
//! arrival process alone, never from reply latency, so a slow server
//! faces mounting concurrency instead of a politely backing-off client
//! (the only honest way to measure a daemon's backpressure). Items follow
//! a Zipf law and classes a population-share law, both drawn from seeded
//! [`RngFactory`] streams keyed by the *global* connection index, so two
//! loadgen runs with one seed offer the identical request sequence
//! regardless of how connections land on workers.
//!
//! Replies are matched to send timestamps by the echoed `seq` and
//! recorded as per-class round-trip latencies in a fixed-memory
//! [`Histogram`] (quantiles within relative 2⁻⁷) — a million-reply run
//! costs 40 KiB per class instead of a gigabyte of samples. Each worker
//! keeps its own tally; histograms merge exactly, so [`run_loadgen`]
//! adds the workers' tallies up once they are joined.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::thread;
use std::time::{Duration, Instant};

use serde::Serialize;

use hybridcast_sim::dist::{Discrete, Exponential, Zipf};
use hybridcast_sim::quantile::Histogram;
use hybridcast_sim::rng::{RngFactory, Xoshiro256};

use crate::frame::{Frame, FrameBatch, ReplyStatus, RequestFrame};
use crate::poll::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT};

/// RNG stream lanes per connection (offset by the connection index).
const GAP_STREAM: u64 = 0x10_000;
const ITEM_STREAM: u64 = 0x20_000;
const CLASS_STREAM: u64 = 0x30_000;

/// Most worker threads the generator spawns; connections are multiplexed.
const MAX_WORKERS: usize = 4;

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address, e.g. `127.0.0.1:4650`.
    pub addr: String,
    /// Aggregate target request rate (requests per wall second).
    pub rps: f64,
    /// Concurrent connections sharing the load.
    pub connections: usize,
    /// Send-window length in wall seconds.
    pub duration_secs: f64,
    /// Master seed for the arrival/item/class streams.
    pub seed: u64,
    /// Catalog size the item law draws over (must match the server's).
    pub num_items: usize,
    /// Zipf skew of the item law.
    pub zipf_theta: f64,
    /// Class population shares (sum ≈ 1); index = class id.
    pub class_shares: Vec<f64>,
    /// Per-request deadline in ms sent in each frame (0 = server default).
    pub deadline_ms: u32,
    /// After the send window, wait at most this long for outstanding
    /// replies before closing.
    pub grace_ms: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:4650".into(),
            rps: 1_000.0,
            connections: 4,
            duration_secs: 5.0,
            seed: 0xC0FFEE,
            num_items: 100,
            zipf_theta: 0.6,
            // The paper's three-tier population split (Zipf θ = 1 over
            // {C,B,A}): A smallest.
            class_shares: vec![2.0 / 11.0, 3.0 / 11.0, 6.0 / 11.0],
            deadline_ms: 0,
            grace_ms: 2_000,
        }
    }
}

impl LoadgenConfig {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rps > 0.0 && self.rps.is_finite()) {
            return Err(format!("rps must be positive, got {}", self.rps));
        }
        if self.connections == 0 {
            return Err("need at least one connection".into());
        }
        if !(self.duration_secs > 0.0 && self.duration_secs.is_finite()) {
            return Err(format!(
                "duration must be positive, got {}",
                self.duration_secs
            ));
        }
        if self.num_items == 0 {
            return Err("need at least one item".into());
        }
        if self.class_shares.is_empty() || self.class_shares.len() > 255 {
            return Err("class_shares must list 1..=255 classes".into());
        }
        Ok(())
    }
}

/// Per-class latency/outcome breakdown.
#[derive(Debug, Clone, Serialize)]
pub struct ClassLoadReport {
    /// Class index (0 = highest priority).
    pub class: u8,
    /// Requests sent.
    pub sent: u64,
    /// Replies by status.
    pub served_push: u64,
    /// Pull-served replies.
    pub served_pull: u64,
    /// Shed replies.
    pub shed: u64,
    /// Timed-out replies.
    pub timed_out: u64,
    /// Uplink-lost replies.
    pub uplink_lost: u64,
    /// Requests never answered (daemon died or grace expired).
    pub unanswered: u64,
    /// Round-trip latency of *served* replies, milliseconds.
    pub rtt_ms: LatencyQuantiles,
}

/// Latency statistics of one class's served replies; quantiles within
/// relative 2⁻⁷ of the exact order statistics (`sim::quantile`).
///
/// Everything but the count is `Option`: an empty sample has no mean,
/// quantiles or maximum. `None` serializes as JSON `null` and renders as
/// `n/a` — never as a fabricated `0.0` that reads like a measured
/// zero-millisecond RTT.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LatencyQuantiles {
    /// Sample count.
    pub count: u64,
    /// Mean.
    pub mean: Option<f64>,
    /// Median.
    pub p50: Option<f64>,
    /// 95th percentile.
    pub p95: Option<f64>,
    /// 99th percentile.
    pub p99: Option<f64>,
    /// Maximum.
    pub max: Option<f64>,
}

/// Renders an optional quantile for text reports: `n/a` when absent.
pub fn fmt_quantile_ms(q: Option<f64>) -> String {
    match q {
        Some(v) => format!("{v:.2}"),
        None => "n/a".into(),
    }
}

/// Per-class RTT accumulator: the histogram holds count, maximum and
/// quantiles, the sum gives the mean.
#[derive(Default)]
struct RttAccum {
    hist: Histogram,
    sum: f64,
}

impl RttAccum {
    fn push(&mut self, x: f64) {
        self.hist.record(x);
        self.sum += x;
    }

    fn merge(&mut self, other: &RttAccum) {
        self.hist.merge(&other.hist);
        self.sum += other.sum;
    }

    fn quantiles(&self) -> LatencyQuantiles {
        let count = self.hist.count();
        LatencyQuantiles {
            count,
            mean: (count > 0).then(|| self.sum / count as f64),
            p50: self.hist.quantile(0.5),
            p95: self.hist.quantile(0.95),
            p99: self.hist.quantile(0.99),
            max: self.hist.max(),
        }
    }
}

/// Aggregate loadgen result.
#[derive(Debug, Clone, Serialize)]
pub struct LoadgenReport {
    /// Requests sent across all connections.
    pub sent: u64,
    /// Replies received.
    pub answered: u64,
    /// Served (push + pull) replies.
    pub served: u64,
    /// Shed replies.
    pub shed: u64,
    /// Timed-out replies.
    pub timed_out: u64,
    /// Uplink-lost replies.
    pub uplink_lost: u64,
    /// Requests never answered within the grace window.
    pub unanswered: u64,
    /// Target request rate.
    pub target_rps: f64,
    /// Sent / elapsed — how close the client got to the target.
    pub achieved_rps: f64,
    /// Send-window wall seconds.
    pub elapsed_secs: f64,
    /// Per-class breakdown.
    pub per_class: Vec<ClassLoadReport>,
}

/// One worker's per-class results: requests sent, replies by status, and
/// the RTTs of served replies. Each worker owns its tally outright;
/// [`run_loadgen`] merges them after the join.
struct Tally {
    sent: Vec<u64>,
    by_status: Vec<[u64; 5]>,
    rtt: Vec<RttAccum>,
}

impl Tally {
    fn new(classes: usize) -> Self {
        Tally {
            sent: vec![0; classes],
            by_status: vec![[0; 5]; classes],
            rtt: (0..classes).map(|_| RttAccum::default()).collect(),
        }
    }

    /// A reply to a request of `class` (always one this worker drew from
    /// the class law, so in range).
    fn record(&mut self, class: u8, status: ReplyStatus, rtt_ms: f64) {
        let c = class as usize;
        self.by_status[c][status.as_u8() as usize] += 1;
        if status.is_served() {
            self.rtt[c].push(rtt_ms);
        }
    }

    fn merge(&mut self, other: &Tally) {
        for c in 0..self.sent.len() {
            self.sent[c] += other.sent[c];
            for (mine, theirs) in self.by_status[c].iter_mut().zip(other.by_status[c]) {
                *mine += theirs;
            }
            self.rtt[c].merge(&other.rtt[c]);
        }
    }
}

/// Runs the load, blocking for `duration_secs` + up to `grace_ms`.
pub fn run_loadgen(cfg: &LoadgenConfig) -> io::Result<LoadgenReport> {
    cfg.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let factory = RngFactory::new(cfg.seed);
    let ncls = cfg.class_shares.len();
    let nworkers = cfg.connections.min(MAX_WORKERS);
    let start = Instant::now();
    let mut workers = Vec::new();
    for w in 0..nworkers {
        let cfg = cfg.clone();
        // Worker `w` drives global connections {i : i % nworkers == w}.
        let conn_ids: Vec<usize> = (w..cfg.connections).step_by(nworkers).collect();
        workers.push(thread::spawn(move || {
            worker_loop(&cfg, &factory, &conn_ids)
        }));
    }
    let mut tally = Tally::new(ncls);
    for w in workers {
        let worker = w
            .join()
            .map_err(|_| io::Error::other("loadgen worker panicked"))??;
        tally.merge(&worker);
    }
    let elapsed = start
        .elapsed()
        .as_secs_f64()
        .min(cfg.duration_secs.max(1e-9));

    let sent: u64 = tally.sent.iter().sum();
    let per_class: Vec<ClassLoadReport> = (0..ncls)
        .map(|c| {
            let s = &tally.by_status[c];
            let answered: u64 = s.iter().sum();
            ClassLoadReport {
                class: c as u8,
                sent: tally.sent[c],
                served_push: s[0],
                served_pull: s[1],
                shed: s[2],
                timed_out: s[3],
                uplink_lost: s[4],
                unanswered: tally.sent[c].saturating_sub(answered),
                rtt_ms: tally.rtt[c].quantiles(),
            }
        })
        .collect();
    let answered: u64 = per_class
        .iter()
        .map(|p| p.served_push + p.served_pull + p.shed + p.timed_out + p.uplink_lost)
        .sum();
    let served = per_class
        .iter()
        .map(|p| p.served_push + p.served_pull)
        .sum();
    Ok(LoadgenReport {
        sent,
        answered,
        served,
        shed: per_class.iter().map(|p| p.shed).sum(),
        timed_out: per_class.iter().map(|p| p.timed_out).sum(),
        uplink_lost: per_class.iter().map(|p| p.uplink_lost).sum(),
        unanswered: sent.saturating_sub(answered),
        target_rps: cfg.rps,
        achieved_rps: sent as f64 / elapsed,
        elapsed_secs: elapsed,
        per_class,
    })
}

/// One multiplexed connection: its own seeded streams (keyed by global
/// index), open-loop schedule, pending map, outbound buffer, and reply
/// decoder.
struct ConnDriver {
    stream: TcpStream,
    fd: RawFd,
    gap_rng: Xoshiro256,
    item_rng: Xoshiro256,
    class_rng: Xoshiro256,
    /// Next scheduled send instant, seconds since the worker's start.
    next_at: f64,
    seq: u64,
    pending: HashMap<u64, (Instant, u8)>,
    out: Vec<u8>,
    off: usize,
    want_write: bool,
    dead: bool,
    batch: FrameBatch,
}

/// The three per-request draw distributions, bundled so the pacing hot
/// path passes a single reference.
struct Samplers {
    gaps: Exponential,
    items: Zipf,
    classes: Discrete,
}

impl ConnDriver {
    /// Queues every frame due by `now`, pacing open-loop: a stall catches
    /// up with a burst rather than rescheduling.
    fn enqueue_due(
        &mut self,
        cfg: &LoadgenConfig,
        s: &Samplers,
        now: f64,
        window: f64,
        sent: &mut [u64],
    ) {
        while self.next_at < window && self.next_at <= now {
            let class = s.classes.sample(&mut self.class_rng) as u8;
            let item = s.items.sample(&mut self.item_rng) as u32;
            let frame = RequestFrame {
                seq: self.seq,
                class,
                item,
                deadline_ms: cfg.deadline_ms,
            };
            self.pending.insert(self.seq, (Instant::now(), class));
            self.out.extend_from_slice(&frame.encode());
            sent[class as usize] += 1;
            self.seq += 1;
            self.next_at += s.gaps.sample(&mut self.gap_rng);
        }
    }

    /// Writes buffered frames until drained or `WouldBlock`; returns
    /// whether EPOLLOUT interest should change.
    fn flush(&mut self) {
        while self.off < self.out.len() {
            match (&self.stream).write(&self.out[self.off..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.off >= self.out.len() {
            self.out.clear();
            self.off = 0;
        }
    }

    /// Reads and decodes every available reply, matching against pending.
    fn pump_replies(&mut self, tally: &mut Tally) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.batch.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        loop {
            match self.batch.decode_next() {
                Ok(Some(Frame::Reply(rep))) => {
                    if let Some((sent_at, class)) = self.pending.remove(&rep.seq) {
                        tally.record(class, rep.status, sent_at.elapsed().as_secs_f64() * 1e3);
                    }
                }
                Ok(Some(_)) => continue, // the server never sends these
                Ok(None) => break,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
    }
}

fn worker_loop(cfg: &LoadgenConfig, factory: &RngFactory, conn_ids: &[usize]) -> io::Result<Tally> {
    let samplers = Samplers {
        gaps: Exponential::new(cfg.rps / cfg.connections as f64),
        items: Zipf::new(cfg.num_items, cfg.zipf_theta),
        classes: Discrete::new(&cfg.class_shares),
    };
    let epoll = Epoll::new()?;
    let mut conns: Vec<ConnDriver> = Vec::with_capacity(conn_ids.len());
    for (slot, &cid) in conn_ids.iter().enumerate() {
        let stream = TcpStream::connect(&cfg.addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let fd = stream.as_raw_fd();
        epoll.add(fd, EPOLLIN, slot as u64)?;
        let mut gap_rng = factory.stream(GAP_STREAM + cid as u64);
        let first = Exponential::new(cfg.rps / cfg.connections as f64).sample(&mut gap_rng);
        conns.push(ConnDriver {
            stream,
            fd,
            gap_rng,
            item_rng: factory.stream(ITEM_STREAM + cid as u64),
            class_rng: factory.stream(CLASS_STREAM + cid as u64),
            next_at: first,
            seq: 0,
            pending: HashMap::new(),
            out: Vec::new(),
            off: 0,
            want_write: false,
            dead: false,
            batch: FrameBatch::new(),
        });
    }

    let start = Instant::now();
    let window = cfg.duration_secs;
    let mut tally = Tally::new(cfg.class_shares.len());
    let mut events = [EpollEvent::zeroed(); 64];

    // Send window: pace, flush, poll, read — all on this one thread.
    loop {
        let now = start.elapsed().as_secs_f64();
        if now >= window {
            break;
        }
        let mut earliest = window;
        for (slot, conn) in conns.iter_mut().enumerate() {
            if conn.dead {
                continue;
            }
            conn.enqueue_due(cfg, &samplers, now, window, &mut tally.sent);
            conn.flush();
            if conn.next_at < earliest {
                earliest = conn.next_at;
            }
            let want = conn.off < conn.out.len();
            if want != conn.want_write {
                conn.want_write = want;
                let interest = if want { EPOLLIN | EPOLLOUT } else { EPOLLIN };
                let _ = epoll.modify(conn.fd, interest, slot as u64);
            }
        }
        let timeout = Duration::from_secs_f64((earliest - now).clamp(0.0, 0.01));
        let n = epoll.wait(&mut events, Some(timeout))?;
        for ev in &events[..n] {
            let slot = ev.cookie() as usize;
            if slot >= conns.len() {
                continue;
            }
            let conn = &mut conns[slot];
            if conn.dead {
                continue;
            }
            if ev.ready() & EPOLLOUT != 0 {
                conn.flush();
            }
            if ev.ready() & EPOLLIN != 0 {
                conn.pump_replies(&mut tally);
            }
        }
    }

    // Grace: give stragglers a bounded chance to be answered.
    let grace_deadline = Instant::now() + Duration::from_millis(cfg.grace_ms);
    loop {
        for conn in conns.iter_mut() {
            if !conn.dead {
                conn.flush();
            }
        }
        let outstanding = conns
            .iter()
            .any(|c| !c.dead && (!c.pending.is_empty() || c.off < c.out.len()));
        if !outstanding || Instant::now() >= grace_deadline {
            break;
        }
        let n = epoll.wait(&mut events, Some(Duration::from_millis(10)))?;
        for ev in &events[..n] {
            let slot = ev.cookie() as usize;
            if slot >= conns.len() || conns[slot].dead {
                continue;
            }
            if ev.ready() & EPOLLOUT != 0 {
                conns[slot].flush();
            }
            if ev.ready() & EPOLLIN != 0 {
                conns[slot].pump_replies(&mut tally);
            }
        }
    }
    for conn in &conns {
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let mut acc = RttAccum::default();
        // Fed out of order; integers below 256 sit on histogram bucket
        // edges, so their order statistics come back exactly.
        for i in (1..=100).rev() {
            acc.push(i as f64);
        }
        let q = acc.quantiles();
        assert_eq!(q.count, 100);
        assert_eq!(q.p50, Some(50.0));
        assert_eq!(q.p95, Some(95.0));
        assert_eq!(q.p99, Some(99.0));
        assert_eq!(q.max, Some(100.0));
        assert_eq!(q.mean, Some(50.5));
    }

    #[test]
    fn empty_sample_reports_unknown_quantiles_not_zeros() {
        let q = RttAccum::default().quantiles();
        assert_eq!(q.count, 0);
        assert_eq!((q.mean, q.max), (None, None));
        assert_eq!(q.p50, None);
        assert_eq!(q.p95, None);
        assert_eq!(q.p99, None);
        assert_eq!(fmt_quantile_ms(q.p50), "n/a");
        assert_eq!(fmt_quantile_ms(Some(12.5)), "12.50");
        // Serializes as null, not 0.0 — downstream tooling can tell
        // "unknown" from "zero milliseconds".
        let json = serde_json::to_string(&q).expect("serializes");
        assert!(json.contains("\"p50\":null"), "{json}");
        assert!(json.contains("\"max\":null"), "{json}");
    }

    #[test]
    fn config_validation_catches_nonsense() {
        let cfg = LoadgenConfig {
            rps: 0.0,
            ..LoadgenConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = LoadgenConfig {
            connections: 0,
            ..LoadgenConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(LoadgenConfig::default().validate().is_ok());
    }

    /// The limit is eight significant bits: below it a sample is a bucket
    /// edge and exact, above it the histogram reports the edge under it.
    #[test]
    fn accumulator_is_exact_below_the_limit() {
        let mut acc = RttAccum::default();
        for i in 1..=255 {
            acc.push(i as f64);
        }
        let q = acc.quantiles();
        assert_eq!(
            (q.p50, q.p99, q.max),
            (Some(128.0), Some(253.0), Some(255.0))
        );
        for i in 256..=1_000 {
            acc.push(i as f64);
        }
        // exact p99 of 1..=1000 is 990; in [512, 1024) buckets are 4 wide
        assert_eq!(acc.quantiles().p99, Some(988.0));
    }

    /// Two workers' tallies merged equal one tally that saw every reply.
    #[test]
    fn worker_tallies_merge_into_the_whole_run() {
        let (mut a, mut b, mut whole) = (Tally::new(3), Tally::new(3), Tally::new(3));
        for i in 0..1_000u32 {
            let (class, rtt) = ((i % 3) as u8, 0.1 + f64::from(i % 97) * 1.7);
            let status = if i % 10 == 0 {
                ReplyStatus::Shed
            } else {
                ReplyStatus::ServedPull
            };
            let worker = if i % 4 == 0 { &mut a } else { &mut b };
            worker.sent[class as usize] += 1;
            worker.record(class, status, rtt);
            whole.sent[class as usize] += 1;
            whole.record(class, status, rtt);
        }
        a.merge(&b);
        assert_eq!((&a.sent, &a.by_status), (&whole.sent, &whole.by_status));
        for (merged, one) in a.rtt.iter().zip(&whole.rtt) {
            assert!(merged.hist == one.hist);
        }
    }
}
