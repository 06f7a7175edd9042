//! The benchmark's own open-loop generator: one thread, a fixed number of
//! nonblocking loopback connections, a schedule fixed before the run.
//!
//! Independent wireless clients do not wait for each other, so send
//! instants come from the precomputed Poisson schedule alone and every
//! request is timed **from its due instant**: a stall anywhere (generator
//! included) shows up as latency of the requests it delayed, and how late
//! the generator itself ran is reported next to the result.
//!
//! This is deliberately not `hybridcast_server::loadgen` — that is product
//! code later changes will touch; the measuring stick must not move with
//! the thing it measures. Only the wire codec (`frame`) and the `epoll`
//! wrapper are shared.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::thread;
use std::time::{Duration, Instant};

use hybridcast_server::frame::{Frame, FrameBatch, RequestFrame};
use hybridcast_server::poll::{Epoll, EpollEvent, EPOLLIN};

use crate::schedule::Planned;
use crate::spans::Tracer;

/// Requests are released to the daemon at slot boundaries, as a base
/// station hands a radio frame's worth of uplink requests to its scheduler
/// at once (the LTE TTI is 1 ms). Fixed slots also make the daemon's
/// wake-ups per request a property of the workload, not of how two
/// processes happened to interleave — that race made CPU per request
/// bimodal (8 vs 14 µs) between otherwise identical runs.
const SLOT_NS: u64 = 1_000_000;

/// Longest idle nap between polls. Short enough that lateness stays well
/// under the 2 ms noise limit, long enough not to spin a shared core.
const IDLE_NAP: Duration = Duration::from_micros(100);

/// One in this many requests gets client-side spans in a traced run.
pub const SPAN_SAMPLE: u64 = 64;

pub const NUM_CLASSES: usize = 3;
pub const NUM_STATUSES: usize = 5;

/// Phases of the schedule, as offsets from its start. The measured window
/// is cut into equal slices; every timing is reported as the median over
/// slices of the slice's own statistic, so one stall of the host (seen in
/// a quarter of all runs, 100–350 ms long) spoils one slice, not the run.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Requests due before this are sent but not measured.
    pub warmup_ns: u64,
    pub slice_ns: u64,
    pub slices: usize,
    /// After the last send, wait at most this long for outstanding replies.
    /// Requests due after the window keep the daemon in steady state while
    /// the window's stragglers are answered.
    pub grace: Duration,
}

impl Phases {
    /// The slice a request due at `due_ns` belongs to, if it is measured.
    fn slice_of(&self, due_ns: u64) -> Option<usize> {
        let k = (due_ns.checked_sub(self.warmup_ns)? / self.slice_ns) as usize;
        (k < self.slices).then_some(k)
    }
}

/// The served requests of one slice of the measured window.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    /// Requests due in the slice.
    pub due: u64,
    /// RTT from due instant, ms, per class.
    pub rtt_ms: [Vec<f64>; NUM_CLASSES],
    /// `RTT − reply.wait_ms`: the software share.
    pub overhead_ms: Vec<f64>,
    /// How long after its due instant each request was fully written to
    /// its socket, ms.
    pub late_ms: Vec<f64>,
}

impl Slice {
    pub fn served(&self) -> usize {
        self.rtt_ms.iter().map(Vec::len).sum()
    }
}

/// What the generator saw.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Replies by `[class][status]` over the whole run — must equal the
    /// daemon's own books.
    pub by_class_status: [[u64; NUM_STATUSES]; NUM_CLASSES],
    pub sent: u64,
    pub answered: u64,
    /// Replies whose `seq` was unknown, already answered, or whose `item`
    /// differed from the request's.
    pub echo_errors: u64,
    /// Requests due inside the measured window.
    pub window_sent: u64,
    /// Of those: answered with a non-served status, or never answered.
    pub window_failed: u64,
    pub slices: Vec<Slice>,
    pub reads: u64,
    pub replies: u64,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    off: usize,
    /// Stream offsets: bytes appended / bytes the kernel took so far.
    enqueued: u64,
    written: u64,
    /// `(seq, stream offset of the frame's last byte)` not yet written.
    unsent: VecDeque<(usize, u64)>,
    batch: FrameBatch,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(64 * 1024),
            off: 0,
            enqueued: 0,
            written: 0,
            unsent: VecDeque::new(),
            batch: FrameBatch::new(),
        })
    }

    /// Writes until drained or the socket would block.
    fn flush(&mut self) -> io::Result<()> {
        while self.off < self.out.len() {
            match (&self.stream).write(&self.out[self.off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.off += n;
                    self.written += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.off = 0;
        Ok(())
    }
}

/// Per-request client state, indexed by `seq` (= schedule index).
#[derive(Clone, Copy, Default)]
struct Slot {
    /// ns after start when the frame was fully written; 0 = not yet.
    sent_ns: u64,
    answered: bool,
}

/// Sends `schedule` to `addr` over `conns` connections and collects every
/// reply. `on_edge(k)` fires on the generator thread when the clock passes
/// the start of slice `k` (`k == slices` closes the window); the caller
/// samples the daemon's CPU clock there.
pub fn run(
    addr: SocketAddr,
    conns: usize,
    schedule: &[Planned],
    phases: Phases,
    tracer: &mut Tracer,
    mut on_edge: impl FnMut(usize),
) -> io::Result<Outcome> {
    let epoll = Epoll::new()?;
    let mut links = Vec::with_capacity(conns);
    for i in 0..conns {
        let c = Conn::open(addr)?;
        epoll.add(c.stream.as_raw_fd(), EPOLLIN, i as u64)?;
        links.push(c);
    }
    let mut slots = vec![Slot::default(); schedule.len()];
    let mut out = Outcome {
        slices: vec![Slice::default(); phases.slices],
        ..Outcome::default()
    };
    let mut events = [EpollEvent::zeroed(); 8];
    let mut chunk = vec![0u8; 64 * 1024];
    let run_span = tracer.open("client.run", None);

    let start = Instant::now();
    let at = |ns: u64| start + Duration::from_nanos(ns);
    let mut next = 0usize;
    let mut edges_passed = 0usize;
    let mut last_send: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let t = now.duration_since(start).as_nanos() as u64;
        while edges_passed <= phases.slices
            && t >= phases.warmup_ns + phases.slice_ns * edges_passed as u64
        {
            on_edge(edges_passed);
            edges_passed += 1;
        }

        // Everything due by the last slot boundary goes out, however late
        // we are: open loop.
        let released = t - t % SLOT_NS;
        while next < schedule.len() && schedule[next].due_ns <= released {
            let p = &schedule[next];
            let c = &mut links[next % conns];
            let frame = RequestFrame {
                seq: next as u64,
                class: p.class,
                item: p.item,
                deadline_ms: p.deadline_ms,
            };
            c.out.extend_from_slice(&frame.encode());
            c.enqueued += 22;
            c.unsent.push_back((next, c.enqueued));
            next += 1;
        }
        for c in links.iter_mut() {
            if c.off < c.out.len() {
                c.flush()?;
            }
            if c.unsent.front().is_some_and(|&(_, end)| end <= c.written) {
                let sent_ns = (start.elapsed().as_nanos() as u64).max(1);
                while let Some(&(seq, end)) = c.unsent.front() {
                    if end > c.written {
                        break;
                    }
                    c.unsent.pop_front();
                    slots[seq].sent_ns = sent_ns;
                    out.sent += 1;
                    let p = &schedule[seq];
                    if let Some(k) = phases.slice_of(p.due_ns) {
                        let late_ms = sent_ns.saturating_sub(p.due_ns) as f64 / 1e6;
                        out.slices[k].late_ms.push(late_ms);
                    }
                }
            }
        }
        if next == schedule.len() && links.iter().all(|c| c.unsent.is_empty()) {
            let done_at = *last_send.get_or_insert(now);
            if out.answered >= out.sent || now.duration_since(done_at) > phases.grace {
                break;
            }
        }

        let n = epoll.wait(&mut events, Some(Duration::ZERO))?;
        for ev in &events[..n] {
            let c = &mut links[ev.cookie() as usize];
            loop {
                match (&c.stream).read(&mut chunk) {
                    Ok(0) => return Err(io::Error::other("daemon closed a connection mid-run")),
                    Ok(k) => {
                        out.reads += 1;
                        c.batch.extend(&chunk[..k]);
                        if k < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let got = Instant::now();
            let got_ns = got.duration_since(start).as_nanos() as u64;
            loop {
                let rep = match c.batch.decode_next() {
                    Ok(Some(Frame::Reply(rep))) => rep,
                    Ok(Some(_)) => return Err(io::Error::other("daemon sent a non-reply frame")),
                    Ok(None) => break,
                    Err(e) => return Err(io::Error::other(format!("reply stream: {e}"))),
                };
                out.replies += 1;
                let seq = rep.seq as usize;
                let known = seq < slots.len()
                    && slots[seq].sent_ns != 0
                    && !slots[seq].answered
                    && schedule[seq].item == rep.item;
                if !known {
                    out.echo_errors += 1;
                    continue;
                }
                slots[seq].answered = true;
                out.answered += 1;
                let p = &schedule[seq];
                let class = p.class as usize;
                out.by_class_status[class][rep.status.as_u8() as usize] += 1;
                let Some(k) = phases.slice_of(p.due_ns).filter(|_| rep.status.is_served()) else {
                    continue;
                };
                let rtt_ms = got_ns.saturating_sub(p.due_ns) as f64 / 1e6;
                out.slices[k].rtt_ms[class].push(rtt_ms);
                out.slices[k].overhead_ms.push(rtt_ms - rep.wait_ms);
                if tracer.enabled() && rep.seq % SPAN_SAMPLE == 0 {
                    let sent = at(slots[seq].sent_ns);
                    let req = tracer.record("client.request", run_span, at(p.due_ns), got, rep.seq);
                    tracer.record("client.send_wait", req, at(p.due_ns), sent, rep.seq);
                    // The daemon reports its own wait; place it ending at
                    // the reply so `residual` is what nobody accounts for.
                    let wait = Duration::from_secs_f64((rep.wait_ms / 1e3).max(0.0));
                    let wait_from = got.checked_sub(wait).map_or(sent, |w| w.max(sent));
                    tracer.record("server.wait", req, wait_from, got, rep.seq);
                    tracer.record("residual", req, sent, wait_from, rep.seq);
                }
            }
        }

        if n == 0 {
            let next_slot = Duration::from_nanos(SLOT_NS - t % SLOT_NS);
            let due_in = if next < schedule.len() {
                next_slot
            } else {
                IDLE_NAP
            };
            if !due_in.is_zero() {
                thread::sleep(due_in.min(IDLE_NAP));
            }
        }
    }
    tracer.close(run_span);
    assert!(
        edges_passed > phases.slices,
        "the schedule must outlast the measured window"
    );

    for p in schedule {
        if let Some(k) = phases.slice_of(p.due_ns) {
            out.slices[k].due += 1;
        }
    }
    out.window_sent = out.slices.iter().map(|s| s.due).sum();
    let window_served: u64 = out.slices.iter().map(|s| s.served() as u64).sum();
    // Refused, expired, lost and never-answered all miss: count them once.
    out.window_failed = out.window_sent - window_served;
    Ok(out)
}
