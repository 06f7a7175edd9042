//! The event-driven front end: N epoll readiness loops replacing the old
//! thread-per-connection readers.
//!
//! Each loop thread owns one [`Epoll`] instance, an [`EventFd`] waker, a
//! subset of the connections (assigned round-robin at accept), and the
//! single-producer end of one ingress ring *per broadcast channel*
//! (frames route to their item's home channel; a single ring outside the
//! sharded layout). The loop:
//!
//! * **accepts** (loop 0 only) with bounded backoff on `EMFILE`/`ENFILE` —
//!   the listener is deregistered and re-armed after a sleep instead of
//!   hot-spinning, and every failed accept lands in the
//!   [`Ledger::accept_errors`] counter;
//! * **reads edge-triggered**: on a readable edge it drains the socket to
//!   `WouldBlock` into the connection's [`FrameBatch`] and decodes every
//!   complete frame in one pass, pushing validated requests into its shard
//!   ring (a full ring is answered with an explicit `Shed` right here —
//!   backpressure, never a silent drop);
//! * **coalesces replies**: the scheduler enqueues encoded reply frames
//!   into a bounded per-connection outbound queue and files the connection
//!   into this loop's dirty list; the loop flushes each dirty connection
//!   with one `writev(2)` per [`MAX_IOV`] replies, resuming short writes
//!   from a byte offset and arming `EPOLLOUT` only while the socket
//!   pushes back. A connection whose un-flushed queue exceeds
//!   `conn_outbound_kib` is a *stalled reader*: it is killed, counted in
//!   [`Ledger::stalled_conns`], and its requests remain *answered* in the
//!   conservation ledger (the daemon answered; the peer stopped
//!   listening — the same "dead peer still counted" rule writes to a
//!   closed socket have always had).
//!
//! Wakeups are batched: the scheduler marks loops dirty as it enqueues
//! replies and rings each loop's eventfd once per tick, so a pull
//! transmission answering thousands of waiters costs one syscall per
//! loop, not one per reply.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hybridcast_core::clock::WallClock;
use hybridcast_core::shard::{Doorbell, ShardProducer};
use hybridcast_sim::time::SimTime;
use hybridcast_workload::catalog::ItemId;
use hybridcast_workload::classes::ClassId;

use crate::frame::{DecodeError, Frame, FrameBatch, ReplyFrame, ReplyStatus};
use crate::poll::{
    is_fd_exhaustion, writev_fd, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN,
    EPOLLOUT, EPOLLRDHUP, MAX_IOV,
};

/// Encoded reply frame size (the only thing the daemon ever writes).
const REPLY_LEN: usize = 26;
/// Read-side scratch buffer per loop.
const READ_CHUNK: usize = 64 * 1024;
/// Longest park of either kind of thread — an event loop in `epoll_wait`,
/// a scheduler core on its doorbell — and so the bound on wake latency for
/// time-driven work when nothing arrives.
pub(crate) const POLL: Duration = Duration::from_millis(25);
/// First sleep after an fd-exhaustion accept failure; doubles per repeat.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Backoff ceiling.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);
/// After the scheduler finishes draining, loops keep flushing pending
/// replies for at most this long before closing everything.
const FINAL_FLUSH_GRACE: Duration = Duration::from_secs(1);
/// Epoll cookie of the listening socket.
const LISTENER_COOKIE: u64 = u64::MAX;
/// Epoll cookie of the waker eventfd.
const WAKER_COOKIE: u64 = u64::MAX - 1;

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

/// Front-end incident counters, surfaced in the exit summary.
#[derive(Default)]
pub(crate) struct Ledger {
    /// Accepts that failed (fd exhaustion and otherwise).
    pub accept_errors: AtomicU64,
    /// Connections killed for exceeding the outbound-queue bound.
    pub stalled_conns: AtomicU64,
    /// Drain-phase disagreements between the O(1) backlogged-connection
    /// counter and a fresh per-connection sweep. Must stay zero; the
    /// writer-path tests assert it.
    pub backlog_mismatches: AtomicU64,
}

/// One validated request frame on its way to the scheduler.
pub(crate) struct Ingress {
    pub seq: u64,
    pub item: ItemId,
    pub class: ClassId,
    pub deadline_ms: u32,
    pub ingest: SimTime,
    pub conn: Conn,
}

/// A request the front end already answered (`Shed`) without the
/// scheduler: ring overflow or an out-of-range item/class. Carried so the
/// counters and telemetry still account for the arrival.
pub(crate) struct Notice {
    /// `None` for malformed (out-of-range) frames.
    pub class: Option<ClassId>,
    pub item: Option<ItemId>,
    pub ingest: SimTime,
}

/// Catalog/class bounds the loops validate against.
#[derive(Clone, Copy)]
pub(crate) struct Bounds {
    pub num_items: u32,
    pub num_classes: u8,
}

/// The canonical explicit-rejection reply.
pub(crate) fn shed_reply(seq: u64, item: u32, wait_ms: f64) -> ReplyFrame {
    ReplyFrame {
        seq,
        status: ReplyStatus::Shed,
        item,
        wait_ms,
    }
}

/// The cross-thread face of one event loop: its waker, the hand-off inbox
/// for freshly accepted connections, and the dirty list of connections
/// with queued replies.
pub(crate) struct LoopShared {
    waker: EventFd,
    inbox: Mutex<Vec<TcpStream>>,
    dirty: Mutex<Vec<Conn>>,
    dirty_flag: AtomicBool,
    outbound_bound: usize,
    ledger: Arc<Ledger>,
    /// Number of this loop's connections with un-flushed outbound bytes.
    /// Every transition happens under the owning connection's `out` lock
    /// (see [`ConnShared::sync_backlog`]), so the count is exact — the
    /// drain check reads this instead of sweeping one mutex per
    /// connection per pass.
    backlogged: AtomicI64,
}

impl LoopShared {
    pub(crate) fn new(outbound_bound: usize, ledger: Arc<Ledger>) -> io::Result<LoopShared> {
        Ok(LoopShared {
            waker: EventFd::new()?,
            inbox: Mutex::new(Vec::new()),
            dirty: Mutex::new(Vec::new()),
            dirty_flag: AtomicBool::new(false),
            outbound_bound,
            ledger,
            backlogged: AtomicI64::new(0),
        })
    }

    /// Connections with queued outbound bytes (exact; see `backlogged`).
    pub(crate) fn backlogged_conns(&self) -> i64 {
        self.backlogged.load(Ordering::Acquire)
    }

    /// Rings the loop's waker iff replies were filed since the last kick —
    /// the scheduler calls this once per tick per loop.
    pub(crate) fn kick(&self) {
        if self.dirty_flag.swap(false, Ordering::AcqRel) {
            self.waker.ring();
        }
    }

    /// Unconditional wake (shutdown/done transitions).
    pub(crate) fn wake(&self) {
        self.waker.ring();
    }
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// Queued-but-unwritten replies for one connection.
struct Outbound {
    queue: VecDeque<[u8; REPLY_LEN]>,
    /// Bytes of the front entry already written (short-write resumption).
    offset: usize,
    /// Total unwritten bytes across the queue.
    bytes: usize,
    /// `EPOLLOUT` currently armed.
    want_write: bool,
    /// This connection currently contributes +1 to the owner's
    /// backlogged-connection counter.
    counted: bool,
    /// Set by `close_conn` under this lock: late sends racing the close
    /// must not resurrect the counter (or the queue).
    closed: bool,
}

/// The shared handle to one client connection. Cloned into every live
/// request; the scheduler only ever calls [`Conn::send`].
#[derive(Clone)]
pub(crate) struct Conn(Arc<ConnShared>);

struct ConnShared {
    stream: TcpStream,
    fd: RawFd,
    id: u64,
    owner: Arc<LoopShared>,
    alive: AtomicBool,
    /// `true` while the conn sits in its owner's dirty list.
    queued: AtomicBool,
    out: Mutex<Outbound>,
}

impl Conn {
    fn new(stream: TcpStream, id: u64, owner: Arc<LoopShared>) -> Conn {
        let fd = stream.as_raw_fd();
        Conn(Arc::new(ConnShared {
            stream,
            fd,
            id,
            owner,
            alive: AtomicBool::new(true),
            queued: AtomicBool::new(false),
            out: Mutex::new(Outbound {
                queue: VecDeque::new(),
                offset: 0,
                bytes: 0,
                want_write: false,
                counted: false,
                closed: false,
            }),
        }))
    }

    /// Enqueues one reply for the owning loop to flush. A dead peer is a
    /// no-op (the request is still *counted* as answered — we answered).
    /// Exceeding the outbound bound marks the connection stalled: it is
    /// killed and ledger-counted, and the loop closes it on its next pass.
    pub(crate) fn send(&self, rep: &ReplyFrame) {
        let inner = &*self.0;
        if !inner.alive.load(Ordering::Acquire) {
            return;
        }
        let stalled = {
            let mut out = inner.out.lock().expect("outbound lock");
            if out.closed {
                return;
            }
            out.queue.push_back(rep.encode());
            out.bytes += REPLY_LEN;
            let stalled = if out.bytes > inner.owner.outbound_bound {
                out.queue.clear();
                out.bytes = 0;
                out.offset = 0;
                true
            } else {
                false
            };
            inner.sync_backlog(&mut out);
            stalled
        };
        if stalled {
            inner.alive.store(false, Ordering::Release);
            inner
                .owner
                .ledger
                .stalled_conns
                .fetch_add(1, Ordering::Relaxed);
        }
        // File into the dirty list either way: the loop must wake to
        // flush — or, for a stalled conn, to close it.
        self.file_dirty();
    }

    fn file_dirty(&self) {
        if !self.0.queued.swap(true, Ordering::AcqRel) {
            self.0
                .owner
                .dirty
                .lock()
                .expect("dirty lock")
                .push(self.clone());
            self.0.owner.dirty_flag.store(true, Ordering::Release);
        }
    }

    fn has_outbound(&self) -> bool {
        self.0.out.lock().expect("outbound lock").bytes > 0
    }
}

impl ConnShared {
    /// Re-syncs the owner's backlogged-connection counter with this
    /// connection's `bytes > 0` state. Must be called with `out` held
    /// after every change to `bytes` — the lock makes each connection's
    /// ±1 contribution exact.
    fn sync_backlog(&self, out: &mut Outbound) {
        let backlogged = out.bytes > 0 && !out.closed;
        if backlogged != out.counted {
            out.counted = backlogged;
            let delta = if backlogged { 1 } else { -1 };
            self.owner.backlogged.fetch_add(delta, Ordering::AcqRel);
        }
    }
}

// ---------------------------------------------------------------------------
// The loop itself
// ---------------------------------------------------------------------------

/// Everything one event-loop thread needs.
pub(crate) struct LoopCtx {
    /// This loop's index into `peers`.
    pub index: usize,
    /// This loop's own shared face (same Arc as `peers[index]`).
    pub shared: Arc<LoopShared>,
    /// All loops, for round-robin connection assignment.
    pub peers: Vec<Arc<LoopShared>>,
    /// The listening socket (loop 0 only).
    pub listener: Option<TcpListener>,
    /// This loop's ingress rings, one per broadcast channel (single
    /// producer: this thread). A frame is routed to its item's home
    /// channel by `route`.
    pub rings: Vec<ShardProducer<Ingress>>,
    /// Item index → home channel, from the sharded scheduler's
    /// [`hybridcast_core::sharded::ChannelPlan`]. One channel outside the
    /// sharded layout, so every entry is 0.
    pub route: Arc<[u8]>,
    /// Out-of-band accounting for front-end sheds.
    pub notices: Sender<Notice>,
    /// Wakes each channel's scheduler thread after ingress pushes.
    pub doorbells: Vec<Arc<Doorbell>>,
    /// Graceful-shutdown flag (stop accepting/reading; keep flushing).
    pub shutdown: Arc<AtomicBool>,
    /// Drain-finished flag (final flush, then close everything).
    pub done: Arc<AtomicBool>,
    pub bounds: Bounds,
    pub clock: WallClock,
}

/// Per-connection loop-local state.
struct ConnState {
    conn: Conn,
    batch: FrameBatch,
    read_closed: bool,
}

enum ReadOutcome {
    Keep,
    Close,
}

pub(crate) fn run_loop(ctx: LoopCtx) {
    let Ok(epoll) = Epoll::new() else { return };
    let _ = epoll.add(ctx.shared.waker.fd(), EPOLLIN, WAKER_COOKIE);
    let mut listener_armed = false;
    if let Some(l) = &ctx.listener {
        let _ = l.set_nonblocking(true);
        listener_armed = epoll
            .add(l.as_raw_fd(), EPOLLIN | EPOLLET, LISTENER_COOKIE)
            .is_ok();
    }

    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut next_peer: usize = 0;
    let mut events = [EpollEvent::zeroed(); 256];
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut rearm_at: Option<Instant> = None;
    let mut backoff = ACCEPT_BACKOFF_MIN;
    let mut done_since: Option<Instant> = None;
    let mut pushed = vec![false; ctx.doorbells.len()];

    loop {
        let mut timeout = POLL;
        if let Some(at) = rearm_at {
            timeout = timeout.min(at.saturating_duration_since(Instant::now()));
        }
        if done_since.is_some() {
            timeout = Duration::from_millis(5);
        }
        let n = epoll.wait(&mut events, Some(timeout)).unwrap_or(0);

        let shutting = ctx.shutdown.load(Ordering::SeqCst);
        pushed.fill(false);
        for &ev in &events[..n] {
            match ev.cookie() {
                WAKER_COOKIE => ctx.shared.waker.drain(),
                LISTENER_COOKIE => {
                    if !shutting {
                        accept_burst(
                            &ctx,
                            &epoll,
                            &mut conns,
                            &mut next_id,
                            &mut next_peer,
                            &mut listener_armed,
                            &mut rearm_at,
                            &mut backoff,
                        );
                    }
                }
                id => {
                    let ready = ev.ready();
                    if ready & (EPOLLERR | EPOLLHUP) != 0 {
                        close_conn(&epoll, &mut conns, id);
                        continue;
                    }
                    if ready & (EPOLLIN | EPOLLRDHUP) != 0 && !shutting {
                        if let Some(state) = conns.get_mut(&id) {
                            if let ReadOutcome::Close =
                                read_pump(&ctx, state, &mut chunk, &mut pushed)
                            {
                                close_conn(&epoll, &mut conns, id);
                                continue;
                            }
                        }
                    }
                    if ready & EPOLLOUT != 0 {
                        if let Some(state) = conns.get(&id) {
                            if !flush_conn(&epoll, &state.conn) {
                                close_conn(&epoll, &mut conns, id);
                            }
                        }
                    }
                }
            }
        }

        // Adopt connections loop 0 handed over.
        let adopted: Vec<TcpStream> = {
            let mut inbox = ctx.shared.inbox.lock().expect("inbox lock");
            std::mem::take(&mut *inbox)
        };
        for stream in adopted {
            register_conn(&ctx, &epoll, &mut conns, &mut next_id, stream);
        }

        // Re-arm the listener after an fd-exhaustion backoff.
        if let (Some(at), Some(l)) = (rearm_at, ctx.listener.as_ref()) {
            if Instant::now() >= at && !shutting {
                rearm_at = None;
                listener_armed = epoll
                    .add(l.as_raw_fd(), EPOLLIN | EPOLLET, LISTENER_COOKIE)
                    .is_ok();
                if listener_armed {
                    accept_burst(
                        &ctx,
                        &epoll,
                        &mut conns,
                        &mut next_id,
                        &mut next_peer,
                        &mut listener_armed,
                        &mut rearm_at,
                        &mut backoff,
                    );
                }
            }
        }

        // Flush every connection the scheduler (or this loop) marked dirty.
        let dirty: Vec<Conn> = {
            let mut d = ctx.shared.dirty.lock().expect("dirty lock");
            std::mem::take(&mut *d)
        };
        for conn in dirty {
            // Reset before flushing: sends racing the flush re-file.
            conn.0.queued.store(false, Ordering::Release);
            if !flush_conn(&epoll, &conn) {
                close_conn(&epoll, &mut conns, conn.0.id);
            }
        }

        for (channel, p) in pushed.iter().enumerate() {
            if *p {
                ctx.doorbells[channel].ring();
            }
        }

        if ctx.done.load(Ordering::SeqCst) {
            let since = *done_since.get_or_insert_with(Instant::now);
            // O(1): the shared counter replaces the one-mutex-per-
            // connection sweep the old drain check paid on every pass.
            let pending = ctx.shared.backlogged_conns() > 0;
            // The scheduler is quiescent once `done` is set, so a fresh
            // sweep must agree with the counter; any divergence is
            // ledger-counted and asserted zero by the writer-path tests.
            let sweep = conns.values().any(|s| s.conn.has_outbound());
            if pending != sweep {
                ctx.shared
                    .ledger
                    .backlog_mismatches
                    .fetch_add(1, Ordering::Relaxed);
            }
            if !pending || since.elapsed() >= FINAL_FLUSH_GRACE {
                // Dropping the map closes every stream still owned solely
                // by this loop — clients see EOF after their last reply.
                return;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_burst(
    ctx: &LoopCtx,
    epoll: &Epoll,
    conns: &mut HashMap<u64, ConnState>,
    next_id: &mut u64,
    next_peer: &mut usize,
    listener_armed: &mut bool,
    rearm_at: &mut Option<Instant>,
    backoff: &mut Duration,
) {
    let Some(listener) = ctx.listener.as_ref() else {
        return;
    };
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                *backoff = ACCEPT_BACKOFF_MIN;
                let target = *next_peer % ctx.peers.len();
                *next_peer = next_peer.wrapping_add(1);
                if target == ctx.index {
                    register_conn(ctx, epoll, conns, next_id, stream);
                } else {
                    let peer = &ctx.peers[target];
                    peer.inbox.lock().expect("inbox lock").push(stream);
                    peer.wake();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                ctx.shared
                    .ledger
                    .accept_errors
                    .fetch_add(1, Ordering::Relaxed);
                if is_fd_exhaustion(&e) && *listener_armed {
                    // Bounded backoff instead of a hot spin: deregister,
                    // sleep (via the loop's timeout), re-arm.
                    let _ = epoll.delete(listener.as_raw_fd());
                    *listener_armed = false;
                    *rearm_at = Some(Instant::now() + *backoff);
                    *backoff = (*backoff * 2).min(ACCEPT_BACKOFF_MAX);
                }
                return;
            }
        }
    }
}

fn register_conn(
    ctx: &LoopCtx,
    epoll: &Epoll,
    conns: &mut HashMap<u64, ConnState>,
    next_id: &mut u64,
    stream: TcpStream,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let id = *next_id;
    *next_id += 1;
    let conn = Conn::new(stream, id, Arc::clone(&ctx.shared));
    if epoll
        .add(conn.0.fd, EPOLLIN | EPOLLRDHUP | EPOLLET, id)
        .is_err()
    {
        return;
    }
    conns.insert(
        id,
        ConnState {
            conn,
            batch: FrameBatch::new(),
            read_closed: false,
        },
    );
}

/// Edge-triggered read: drain the socket, then decode every complete
/// frame in one pass.
fn read_pump(
    ctx: &LoopCtx,
    state: &mut ConnState,
    chunk: &mut [u8],
    pushed: &mut [bool],
) -> ReadOutcome {
    if state.read_closed {
        return ReadOutcome::Keep;
    }
    let mut saw_eof = false;
    loop {
        match (&state.conn.0.stream).read(chunk) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => state.batch.extend(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Close,
        }
    }
    loop {
        match state.batch.decode_next() {
            Ok(Some(Frame::Request(req))) => {
                let ingest = ctx.clock.now();
                if req.class >= ctx.bounds.num_classes || req.item >= ctx.bounds.num_items {
                    // Out-of-range request: answered (shed), counted.
                    state.conn.send(&shed_reply(req.seq, req.item, 0.0));
                    let _ = ctx.notices.send(Notice {
                        class: None,
                        item: None,
                        ingest,
                    });
                    pushed[0] = true; // notices drain on channel 0's core
                    continue;
                }
                let channel = ctx.route[req.item as usize] as usize;
                let ing = Ingress {
                    seq: req.seq,
                    item: ItemId(req.item),
                    class: ClassId(req.class),
                    deadline_ms: req.deadline_ms,
                    ingest,
                    conn: state.conn.clone(),
                };
                match ctx.rings[channel].push(ing) {
                    Ok(()) => pushed[channel] = true,
                    Err(ing) => {
                        // Ring full: explicit shed, never silent delay.
                        ing.conn.send(&shed_reply(ing.seq, ing.item.0, 0.0));
                        let _ = ctx.notices.send(Notice {
                            class: Some(ing.class),
                            item: Some(ing.item),
                            ingest: ing.ingest,
                        });
                        pushed[0] = true;
                    }
                }
            }
            Ok(Some(Frame::Shutdown)) => {
                ctx.shutdown.store(true, Ordering::SeqCst);
                for bell in &ctx.doorbells {
                    bell.ring();
                }
                // Frames already buffered behind the shutdown marker are
                // still decoded — they arrived before it on this stream.
            }
            Ok(Some(Frame::Reply(_))) => return ReadOutcome::Close, // clients don't send replies
            Ok(None) => break,
            Err(
                DecodeError::BadLength(_) | DecodeError::BadOpcode(_) | DecodeError::BadBody(_),
            ) => {
                return ReadOutcome::Close;
            }
        }
    }
    if saw_eof {
        if !state.batch.at_boundary() {
            return ReadOutcome::Close; // truncated mid-frame
        }
        // Half-close: the peer is done sending but may still be reading
        // replies; keep the write side until the daemon exits.
        state.read_closed = true;
    }
    ReadOutcome::Keep
}

/// Flushes a connection's outbound queue with `writev`, resuming short
/// writes and arming `EPOLLOUT` only while the socket pushes back.
/// Returns `false` when the connection is dead and must be closed.
fn flush_conn(epoll: &Epoll, conn: &Conn) -> bool {
    let inner = &*conn.0;
    if !inner.alive.load(Ordering::Acquire) {
        return false;
    }
    let mut out = inner.out.lock().expect("outbound lock");
    loop {
        if out.queue.is_empty() {
            out.offset = 0;
            inner.sync_backlog(&mut out);
            if out.want_write {
                out.want_write = false;
                let _ = epoll.modify(inner.fd, EPOLLIN | EPOLLRDHUP | EPOLLET, inner.id);
            }
            return true;
        }
        let wrote = {
            let mut bufs: Vec<&[u8]> = Vec::with_capacity(out.queue.len().min(MAX_IOV));
            for (i, entry) in out.queue.iter().take(MAX_IOV).enumerate() {
                bufs.push(if i == 0 {
                    &entry[out.offset..]
                } else {
                    &entry[..]
                });
            }
            writev_fd(inner.fd, &bufs)
        };
        match wrote {
            Ok(0) => return true, // nothing accepted; wait for EPOLLOUT
            Ok(mut n) => {
                out.bytes = out.bytes.saturating_sub(n);
                inner.sync_backlog(&mut out);
                while n > 0 {
                    let remaining = REPLY_LEN - out.offset;
                    if n >= remaining {
                        out.queue.pop_front();
                        out.offset = 0;
                        n -= remaining;
                    } else {
                        out.offset += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !out.want_write {
                    out.want_write = true;
                    let _ = epoll.modify(
                        inner.fd,
                        EPOLLIN | EPOLLRDHUP | EPOLLOUT | EPOLLET,
                        inner.id,
                    );
                }
                return true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                drop(out);
                inner.alive.store(false, Ordering::Release);
                return false;
            }
        }
    }
}

fn close_conn(epoll: &Epoll, conns: &mut HashMap<u64, ConnState>, id: u64) {
    if let Some(state) = conns.remove(&id) {
        let inner = &*state.conn.0;
        inner.alive.store(false, Ordering::Release);
        {
            // Mark closed under the out lock so a send racing this close
            // cannot re-enqueue or re-count the connection.
            let mut out = inner.out.lock().expect("outbound lock");
            out.closed = true;
            out.queue.clear();
            out.bytes = 0;
            out.offset = 0;
            inner.sync_backlog(&mut out);
        }
        let _ = epoll.delete(inner.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn conn(id: u64, shared: &Arc<LoopShared>) -> (Conn, TcpStream) {
        let (local, peer) = pair();
        local.set_nonblocking(true).unwrap();
        (Conn::new(local, id, Arc::clone(shared)), peer)
    }

    fn sweep(conns: &[Conn]) -> bool {
        conns.iter().any(|c| c.has_outbound())
    }

    /// The O(1) backlogged counter must agree with the per-connection
    /// sweep after every transition: first enqueue, repeat enqueue, full
    /// flush, stall-kill, close with queued bytes, and a send racing a
    /// close.
    #[test]
    fn backlog_counter_matches_the_sweep_through_every_transition() {
        let ledger = Arc::new(Ledger::default());
        let shared = Arc::new(LoopShared::new(4 * REPLY_LEN, Arc::clone(&ledger)).unwrap());
        let epoll = Epoll::new().unwrap();
        let (a, _a_peer) = conn(0, &shared);
        let (b, _b_peer) = conn(1, &shared);
        let conns = [a.clone(), b.clone()];
        let rep = shed_reply(1, 0, 0.0);

        assert_eq!(shared.backlogged_conns(), 0);
        assert!(!sweep(&conns));

        // First enqueue counts the connection once; repeats don't.
        a.send(&rep);
        assert_eq!(shared.backlogged_conns(), 1);
        a.send(&rep);
        assert_eq!(shared.backlogged_conns(), 1);
        b.send(&rep);
        assert_eq!(shared.backlogged_conns(), 2);
        assert_eq!(shared.backlogged_conns() > 0, sweep(&conns));

        // A full flush decrements exactly once.
        assert!(flush_conn(&epoll, &a));
        assert_eq!(shared.backlogged_conns(), 1);
        assert_eq!(shared.backlogged_conns() > 0, sweep(&conns));

        // Blowing the outbound bound stall-kills: the cleared queue no
        // longer counts as backlog.
        for seq in 0..5 {
            b.send(&shed_reply(seq, 0, 0.0));
        }
        assert_eq!(ledger.stalled_conns.load(Ordering::Relaxed), 1);
        assert_eq!(shared.backlogged_conns(), 0);
        assert!(!sweep(&conns));

        // close_conn uncounts a connection that still had queued bytes,
        // and a send racing the close cannot resurrect the count.
        let (c, _c_peer) = conn(2, &shared);
        let mut map = HashMap::new();
        map.insert(
            2u64,
            ConnState {
                conn: c.clone(),
                batch: FrameBatch::new(),
                read_closed: false,
            },
        );
        c.send(&rep);
        assert_eq!(shared.backlogged_conns(), 1);
        close_conn(&epoll, &mut map, 2);
        assert_eq!(shared.backlogged_conns(), 0);
        c.send(&rep);
        assert_eq!(shared.backlogged_conns(), 0);
        assert_eq!(ledger.backlog_mismatches.load(Ordering::Relaxed), 0);
    }
}
