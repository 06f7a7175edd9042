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
//! * **coalesces replies**: a scheduler core collects a tick's encoded
//!   replies in a batch per loop that it alone owns, and hands each
//!   non-empty batch to that loop's mailbox ([`LoopShared::deliver`]) —
//!   one lock and one eventfd write per tick per loop, however many
//!   waiters a transmission answered. The loop empties its mailbox once
//!   per pass, appends each reply to the bounded outbound queue inside its
//!   own [`ConnState`], and flushes the connections it touched with one
//!   `writev(2)` per [`MAX_IOV`] replies, resuming short writes from a
//!   byte offset and arming `EPOLLOUT` only while the socket pushes back.
//!   A connection whose un-flushed queue exceeds `conn_outbound_kib` is a
//!   *stalled reader*: it is closed, counted in
//!   [`Ledger::stalled_conns`], and its requests remain *answered* in the
//!   conservation ledger (the daemon answered; the peer stopped listening
//!   — the same "dead peer still counted" rule writes to a closed socket
//!   have always had).
//!
//! **One owner.** A connection's socket, read buffer and outbound queue
//! are fields of the loop-local [`ConnState`] and of nothing else: every
//! other thread names the connection by its `Copy` [`ConnId`], and the
//! mailbox mutex is the only lock between a loop and the rest of the
//! daemon. Closing a connection is dropping its `ConnState` — the peer
//! sees EOF there and then, however many of its requests the scheduler
//! still holds. Their replies arrive for a serial the loop no longer
//! knows and are dropped; serials are never reused, so a late reply
//! cannot reach a newer connection.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
}

/// The reply address of one connection, and its epoll cookie: the owning
/// loop's index in the top 16 bits, that loop's never-reused serial in the
/// low 48. `Copy`: a request carries it through the rings and the
/// scheduler's live-request table without sharing anything with the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConnId(u64);

impl ConnId {
    /// `ServeConfig::validate` keeps `loop_threads` within the 16 bits, and
    /// 2^48 connections on one loop are out of reach — so an id never
    /// meets the two reserved cookies either.
    fn new(loop_index: usize, serial: u64) -> ConnId {
        debug_assert!(loop_index < 1 << 16 && serial < 1 << 48);
        ConnId(((loop_index as u64) << 48) | serial)
    }

    /// Index of the loop that owns the connection.
    pub(crate) fn loop_index(self) -> usize {
        (self.0 >> 48) as usize
    }
}

/// One encoded reply on its way from a scheduler core to the loop that
/// owns its connection.
pub(crate) type Reply = (ConnId, [u8; REPLY_LEN]);

/// One validated request frame on its way to the scheduler.
pub(crate) struct Ingress {
    pub seq: u64,
    pub item: ItemId,
    pub class: ClassId,
    pub deadline_ms: u32,
    pub ingest: SimTime,
    pub conn: ConnId,
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

/// What other threads leave for one loop: sockets loop 0 accepted on its
/// behalf, and the replies scheduler cores resolved for its connections.
#[derive(Default)]
struct Mailbox {
    streams: Vec<TcpStream>,
    replies: Vec<Reply>,
}

/// The cross-thread face of one event loop: its waker and its mailbox —
/// the only state a loop shares with any other thread.
pub(crate) struct LoopShared {
    waker: EventFd,
    mailbox: Mutex<Mailbox>,
}

impl LoopShared {
    pub(crate) fn new() -> io::Result<LoopShared> {
        Ok(LoopShared {
            waker: EventFd::new()?,
            mailbox: Mutex::new(Mailbox::default()),
        })
    }

    /// Hands one scheduler core's batch of replies to the loop, in order,
    /// and wakes it: one lock and one eventfd write however long the
    /// batch. `batch` comes back empty; the loop and the cores swap
    /// buffers through the mailbox, so once warm nothing allocates. The
    /// scheduler calls this once per tick per loop.
    pub(crate) fn deliver(&self, batch: &mut Vec<Reply>) {
        if batch.is_empty() {
            return;
        }
        {
            let mut mail = self.mailbox.lock().expect("mailbox lock");
            if mail.replies.is_empty() {
                std::mem::swap(&mut mail.replies, batch);
            } else {
                // Another core's batch is still waiting for the loop.
                mail.replies.append(batch);
            }
        }
        self.waker.ring();
    }

    /// Unconditional wake (shutdown/done transitions).
    pub(crate) fn wake(&self) {
        self.waker.ring();
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
    /// The stall rule's bound: un-flushed reply bytes one connection may
    /// hold (`conn_outbound_kib`).
    pub outbound_bound: usize,
    pub ledger: Arc<Ledger>,
    pub bounds: Bounds,
    pub clock: WallClock,
}

/// One connection, whole: the loop that accepted it owns this value and
/// nothing else refers to it. Dropping it closes the socket.
struct ConnState {
    id: ConnId,
    stream: TcpStream,
    batch: FrameBatch,
    read_closed: bool,
    /// Queued-but-unwritten replies.
    queue: VecDeque<[u8; REPLY_LEN]>,
    /// Bytes of the front entry already written (short-write resumption).
    offset: usize,
    /// `EPOLLOUT` currently armed.
    want_write: bool,
    /// Already in this pass's list of connections to flush.
    listed: bool,
}

impl ConnState {
    fn new(id: ConnId, stream: TcpStream) -> ConnState {
        ConnState {
            id,
            stream,
            batch: FrameBatch::new(),
            read_closed: false,
            queue: VecDeque::new(),
            offset: 0,
            want_write: false,
            listed: false,
        }
    }

    /// Total unwritten bytes across the queue.
    fn unflushed(&self) -> usize {
        self.queue.len() * REPLY_LEN - self.offset
    }
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
    let mut next_serial: u64 = 0;
    let mut next_peer: usize = 0;
    let mut events = [EpollEvent::zeroed(); 256];
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut rearm_at: Option<Instant> = None;
    let mut backoff = ACCEPT_BACKOFF_MIN;
    let mut done_since: Option<Instant> = None;
    let mut pushed = vec![false; ctx.doorbells.len()];
    // This loop's side of the mailbox buffer swap (empty between passes).
    let mut replies: Vec<Reply> = Vec::new();
    // Connections that had a reply queued this pass, each listed once.
    let mut touched: Vec<u64> = Vec::new();

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
        // Read before the mailbox is emptied below: the cores' last
        // hand-overs happen before `done` is set, so a pass that sees it
        // set has every reply there will ever be.
        let done = ctx.done.load(Ordering::SeqCst);
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
                            &mut next_serial,
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
                    // Closed earlier in this batch of events: nothing left.
                    let Some(state) = conns.get_mut(&id) else {
                        continue;
                    };
                    if ready & (EPOLLIN | EPOLLRDHUP) != 0
                        && !shutting
                        && !read_pump(&ctx, state, &mut chunk, &mut pushed, &mut touched)
                    {
                        close_conn(&epoll, &mut conns, id);
                        continue;
                    }
                    if ready & EPOLLOUT != 0 && !flush_conn(&epoll, state) {
                        close_conn(&epoll, &mut conns, id);
                    }
                }
            }
        }

        // Empty the mailbox: the one lock this loop takes per pass.
        let adopted: Vec<TcpStream> = {
            let mut mail = ctx.shared.mailbox.lock().expect("mailbox lock");
            std::mem::swap(&mut mail.replies, &mut replies);
            std::mem::take(&mut mail.streams)
        };
        // Adopt connections loop 0 handed over.
        for stream in adopted {
            register_conn(&ctx, &epoll, &mut conns, &mut next_serial, stream);
        }
        queue_replies(&ctx, &epoll, &mut conns, &mut replies, &mut touched);

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
                        &mut next_serial,
                        &mut next_peer,
                        &mut listener_armed,
                        &mut rearm_at,
                        &mut backoff,
                    );
                }
            }
        }

        // Flush every connection this pass queued a reply on.
        for id in touched.drain(..) {
            if let Some(state) = conns.get_mut(&id) {
                state.listed = false;
                if !flush_conn(&epoll, state) {
                    close_conn(&epoll, &mut conns, id);
                }
            }
        }

        for (channel, p) in pushed.iter().enumerate() {
            if *p {
                ctx.doorbells[channel].ring();
            }
        }

        if done {
            let since = *done_since.get_or_insert_with(Instant::now);
            let pending = conns.values().any(|s| !s.queue.is_empty());
            if !pending || since.elapsed() >= FINAL_FLUSH_GRACE {
                // Dropping the map closes every stream — clients see EOF
                // after their last reply.
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
    next_serial: &mut u64,
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
                    register_conn(ctx, epoll, conns, next_serial, stream);
                } else {
                    let peer = &ctx.peers[target];
                    let mut mail = peer.mailbox.lock().expect("mailbox lock");
                    mail.streams.push(stream);
                    drop(mail);
                    peer.wake();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                ctx.ledger.accept_errors.fetch_add(1, Ordering::Relaxed);
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
    next_serial: &mut u64,
    stream: TcpStream,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let id = ConnId::new(ctx.index, *next_serial);
    *next_serial += 1;
    if epoll
        .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP | EPOLLET, id.0)
        .is_err()
    {
        return;
    }
    conns.insert(id.0, ConnState::new(id, stream));
}

/// Appends one reply to a connection's outbound queue and lists the
/// connection for this pass's flush. Returns `false` when that trips the
/// stall rule — the un-flushed queue exceeds the bound: the peer stopped
/// reading, the stall is ledger-counted and the caller must close the
/// connection (the request stays *answered*: the daemon answered).
fn queue_reply(
    ctx: &LoopCtx,
    state: &mut ConnState,
    reply: [u8; REPLY_LEN],
    touched: &mut Vec<u64>,
) -> bool {
    state.queue.push_back(reply);
    if state.unflushed() > ctx.outbound_bound {
        ctx.ledger.stalled_conns.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    if !state.listed {
        state.listed = true;
        touched.push(state.id.0);
    }
    true
}

/// Moves one mailbox-load of scheduler replies, in order, onto their
/// connections' outbound queues and leaves `replies` empty. A reply whose
/// connection is gone is dropped — the scheduler already counted the
/// request answered, and the serial belongs to no other connection.
fn queue_replies(
    ctx: &LoopCtx,
    epoll: &Epoll,
    conns: &mut HashMap<u64, ConnState>,
    replies: &mut Vec<Reply>,
    touched: &mut Vec<u64>,
) {
    for (conn, reply) in replies.drain(..) {
        if let Some(state) = conns.get_mut(&conn.0) {
            if !queue_reply(ctx, state, reply, touched) {
                close_conn(epoll, conns, conn.0);
            }
        }
    }
}

/// Edge-triggered read: drain the socket, then decode every complete
/// frame in one pass. Returns `false` when the connection must be closed.
fn read_pump(
    ctx: &LoopCtx,
    state: &mut ConnState,
    chunk: &mut [u8],
    pushed: &mut [bool],
    touched: &mut Vec<u64>,
) -> bool {
    if state.read_closed {
        return true;
    }
    let mut saw_eof = false;
    loop {
        match (&state.stream).read(chunk) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => state.batch.extend(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    loop {
        match state.batch.decode_next() {
            Ok(Some(Frame::Request(req))) => {
                let ingest = ctx.clock.now();
                let notice =
                    if req.class >= ctx.bounds.num_classes || req.item >= ctx.bounds.num_items {
                        // Out-of-range request: answered (shed), counted.
                        Notice {
                            class: None,
                            item: None,
                            ingest,
                        }
                    } else {
                        let channel = ctx.route[req.item as usize] as usize;
                        let ing = Ingress {
                            seq: req.seq,
                            item: ItemId(req.item),
                            class: ClassId(req.class),
                            deadline_ms: req.deadline_ms,
                            ingest,
                            conn: state.id,
                        };
                        match ctx.rings[channel].push(ing) {
                            Ok(()) => {
                                pushed[channel] = true;
                                continue;
                            }
                            // Ring full: explicit shed, never silent delay.
                            Err(ing) => Notice {
                                class: Some(ing.class),
                                item: Some(ing.item),
                                ingest,
                            },
                        }
                    };
                let _ = ctx.notices.send(notice);
                pushed[0] = true; // notices drain on channel 0's core
                let reply = shed_reply(req.seq, req.item, 0.0).encode();
                if !queue_reply(ctx, state, reply, touched) {
                    return false;
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
            Ok(Some(Frame::Reply(_))) => return false, // clients don't send replies
            Ok(None) => break,
            Err(
                DecodeError::BadLength(_) | DecodeError::BadOpcode(_) | DecodeError::BadBody(_),
            ) => {
                return false;
            }
        }
    }
    if saw_eof {
        if !state.batch.at_boundary() {
            return false; // truncated mid-frame
        }
        // Half-close: the peer is done sending but may still be reading
        // replies; keep the write side until the daemon exits.
        state.read_closed = true;
    }
    true
}

/// Flushes a connection's outbound queue with `writev`, resuming short
/// writes and arming `EPOLLOUT` only while the socket pushes back.
/// Returns `false` when the connection is dead and must be closed.
fn flush_conn(epoll: &Epoll, state: &mut ConnState) -> bool {
    let fd = state.stream.as_raw_fd();
    loop {
        if state.queue.is_empty() {
            state.offset = 0;
            if state.want_write {
                state.want_write = false;
                let _ = epoll.modify(fd, EPOLLIN | EPOLLRDHUP | EPOLLET, state.id.0);
            }
            return true;
        }
        let wrote = {
            let mut bufs: Vec<&[u8]> = Vec::with_capacity(state.queue.len().min(MAX_IOV));
            for (i, entry) in state.queue.iter().take(MAX_IOV).enumerate() {
                bufs.push(if i == 0 {
                    &entry[state.offset..]
                } else {
                    &entry[..]
                });
            }
            writev_fd(fd, &bufs)
        };
        match wrote {
            Ok(0) => return true, // nothing accepted; wait for EPOLLOUT
            Ok(mut n) => {
                while n > 0 {
                    let remaining = REPLY_LEN - state.offset;
                    if n >= remaining {
                        state.queue.pop_front();
                        state.offset = 0;
                        n -= remaining;
                    } else {
                        state.offset += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !state.want_write {
                    state.want_write = true;
                    let _ = epoll.modify(fd, EPOLLIN | EPOLLRDHUP | EPOLLOUT | EPOLLET, state.id.0);
                }
                return true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Closes a connection there and then: deregisters it and drops its
/// `ConnState`, socket included, so the peer sees EOF now — whatever
/// requests of its the scheduler still holds resolve into dropped replies.
fn close_conn(epoll: &Epoll, conns: &mut HashMap<u64, ConnState>, id: u64) {
    if let Some(state) = conns.remove(&id) {
        let _ = epoll.delete(state.stream.as_raw_fd());
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

    /// Registers one end of a socket pair as the loop's next connection;
    /// returns its id and the client's end.
    fn conn(
        ctx: &LoopCtx,
        epoll: &Epoll,
        conns: &mut HashMap<u64, ConnState>,
        next_serial: &mut u64,
    ) -> (ConnId, TcpStream) {
        let (local, peer) = pair();
        let id = ConnId::new(ctx.index, *next_serial);
        register_conn(ctx, epoll, conns, next_serial, local);
        assert!(conns.contains_key(&id.0));
        (id, peer)
    }

    /// A loop context with nothing behind it but the stall bound and the
    /// ledger: no listener, no rings, an empty catalog.
    fn ctx(outbound_bound: usize) -> LoopCtx {
        let shared = Arc::new(LoopShared::new().unwrap());
        LoopCtx {
            index: 0,
            peers: vec![Arc::clone(&shared)],
            shared,
            listener: None,
            rings: Vec::new(),
            route: Vec::new().into(),
            notices: std::sync::mpsc::channel().0,
            doorbells: Vec::new(),
            shutdown: Arc::default(),
            done: Arc::default(),
            outbound_bound,
            ledger: Arc::default(),
            bounds: Bounds {
                num_items: 0,
                num_classes: 0,
            },
            clock: WallClock::start(1.0),
        }
    }

    fn reply(seq: u64) -> [u8; REPLY_LEN] {
        shed_reply(seq, 0, 0.0).encode()
    }

    #[test]
    fn conn_id_round_trips_its_loop_index() {
        for (index, serial) in [(0, 0), (1, 7), (3, (1 << 48) - 1), (65_535, 42)] {
            let id = ConnId::new(index, serial);
            assert_eq!(id.loop_index(), index);
            assert_eq!(id.0 & ((1 << 48) - 1), serial);
            assert!(id.0 < WAKER_COOKIE, "never a reserved cookie");
        }
        assert_ne!(ConnId::new(0, 5), ConnId::new(1, 5));
    }

    /// Two hand-overs before the loop looks reach it as one ordered run,
    /// and each leaves the core's batch empty for the next tick.
    #[test]
    fn deliver_keeps_reply_order_and_returns_an_empty_buffer() {
        let shared = LoopShared::new().unwrap();
        let id = ConnId::new(0, 0);

        let mut batch: Vec<Reply> = Vec::new();
        shared.deliver(&mut batch); // empty: no lock, no wake, no change
        assert!(shared.mailbox.lock().unwrap().replies.is_empty());

        batch.extend([(id, reply(0)), (id, reply(1))]);
        shared.deliver(&mut batch);
        assert!(batch.is_empty());
        batch.push((id, reply(2)));
        shared.deliver(&mut batch);
        assert!(batch.is_empty());

        // The loop's side of the swap: it takes everything, in order, and
        // leaves its own (empty) buffer behind for the next hand-over.
        let mut taken: Vec<Reply> = Vec::with_capacity(64);
        std::mem::swap(&mut shared.mailbox.lock().unwrap().replies, &mut taken);
        let want: Vec<Reply> = (0..3).map(|seq| (id, reply(seq))).collect();
        assert_eq!(taken, want);
        batch.push((id, reply(3)));
        shared.deliver(&mut batch);
        assert!(batch.is_empty());
        assert!(batch.capacity() >= 64, "the loop's buffer came back");
    }

    /// The stall rule trips exactly where the shared outbound queue's did:
    /// with room for four un-flushed replies, on the fifth. The connection
    /// is closed there and then; what the batch still holds for it, and a
    /// reply for a serial the loop never had, are dropped without touching
    /// the connection next to it.
    #[test]
    fn stall_rule_trips_on_the_fifth_reply_and_late_replies_are_dropped() {
        let bound = 4 * REPLY_LEN;
        let ctx = ctx(bound);
        let ledger = Arc::clone(&ctx.ledger);
        let epoll = Epoll::new().unwrap();
        let mut conns = HashMap::new();
        let (mut touched, mut next_serial) = (Vec::new(), 0);
        let (a, mut a_peer) = conn(&ctx, &epoll, &mut conns, &mut next_serial);
        let (b, mut b_peer) = conn(&ctx, &epoll, &mut conns, &mut next_serial);
        let gone = ConnId::new(ctx.index, next_serial);

        let mut replies: Vec<Reply> = (0..4).map(|seq| (a, reply(seq))).collect();
        replies.push((gone, reply(99)));
        replies.push((b, reply(0)));
        queue_replies(&ctx, &epoll, &mut conns, &mut replies, &mut touched);
        assert!(replies.is_empty());
        assert_eq!(ledger.stalled_conns.load(Ordering::Relaxed), 0);
        assert_eq!(conns[&a.0].unflushed(), bound);
        assert_eq!(conns[&b.0].queue, [reply(0)]);
        assert_eq!(touched, [a.0, b.0], "each listed once, nothing for `gone`");

        // The fifth un-flushed reply is one too many.
        replies.extend([(a, reply(4)), (a, reply(5)), (b, reply(1))]);
        queue_replies(&ctx, &epoll, &mut conns, &mut replies, &mut touched);
        assert_eq!(ledger.stalled_conns.load(Ordering::Relaxed), 1);
        assert!(!conns.contains_key(&a.0), "closed on the spot");
        assert_eq!(conns[&b.0].queue, [reply(0), reply(1)]);
        let mut buf = [0u8; 64];
        assert_eq!(
            a_peer.read(&mut buf).unwrap(),
            0,
            "a closed connection is closed"
        );

        // The pass's flush skips the closed connection and writes b's two
        // replies, in order.
        for id in touched.drain(..) {
            if let Some(state) = conns.get_mut(&id) {
                state.listed = false;
                assert!(flush_conn(&epoll, state));
            }
        }
        assert_eq!(conns[&b.0].unflushed(), 0);
        b_peer.read_exact(&mut buf[..2 * REPLY_LEN]).unwrap();
        assert_eq!(buf[..REPLY_LEN], reply(0));
        assert_eq!(buf[REPLY_LEN..2 * REPLY_LEN], reply(1));

        // A flushed queue has its whole bound again.
        replies.extend((2..6).map(|seq| (b, reply(seq))));
        queue_replies(&ctx, &epoll, &mut conns, &mut replies, &mut touched);
        assert_eq!(ledger.stalled_conns.load(Ordering::Relaxed), 1);
        assert_eq!(conns[&b.0].unflushed(), bound);
    }
}
