//! Minimal `epoll(7)`/`eventfd(2)`/`writev(2)` FFI shim.
//!
//! The event-driven front end needs exactly four kernel facilities the
//! standard library does not expose: an epoll instance, an eventfd waker,
//! vectored writes, and raw-fd close; the scheduler cores add a fifth, a
//! per-thread timer slack (`tighten_timer_slack`). In the same spirit as
//! [`crate::signal`] (the workspace vendors no `libc` crate), the shim
//! declares the C entry points directly — every constant used is stable
//! Linux ABI on the x86-64/aarch64 targets this builds and runs on. This
//! module and [`crate::signal`] are the only unsafe islands in the
//! workspace; everything above them is safe Rust over [`Epoll`],
//! `EventFd`, `writev_fd` and `tighten_timer_slack`.
//!
//! Why no async runtime: the daemon needs readiness notification for a
//! few thousand sockets feeding one scheduler thread — a single
//! `epoll_wait` loop per shard covers that with zero dependencies, no
//! executor machinery on the hot path, and behavior that maps 1:1 onto
//! the syscalls a profiler shows.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

#[allow(non_camel_case_types)]
type c_int = i32;
#[allow(non_camel_case_types)]
type c_uint = u32;

// Stable Linux ABI constants (asm-generic + x86-64/aarch64 uapi).
/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never needs registering).
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup (always reported).
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery.
pub(crate) const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// `EMFILE`: the per-process fd table is exhausted.
pub(crate) const ERR_EMFILE: i32 = 24;
/// `ENFILE`: the system-wide fd table is exhausted.
pub(crate) const ERR_ENFILE: i32 = 23;

const SOL_SOCKET: c_int = 1;
const SO_RCVBUF: c_int = 8;
const PR_SET_TIMERSLACK: c_int = 29;

/// The kernel's `struct epoll_event`. Packed on x86-64 (kernel uapi uses
/// `__attribute__((packed))` there), naturally aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | …).
    pub events: u32,
    /// Caller-chosen cookie (we store the registered fd).
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event (placeholder for the wait buffer).
    pub const fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }

    /// The ready bitmask (copied out of the possibly-packed struct).
    pub(crate) fn ready(&self) -> u32 {
        let e = *self;
        e.events
    }

    /// The registration cookie (copied out of the possibly-packed struct).
    pub fn cookie(&self) -> u64 {
        let e = *self;
        e.data
    }
}

/// `struct iovec` for `writev(2)`.
#[repr(C)]
#[derive(Clone, Copy)]
struct IoVec {
    base: *const u8,
    len: usize,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_int,
        optlen: c_uint,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Asks the kernel to expire the calling thread's timed waits on time
/// (`PR_SET_TIMERSLACK`, 1 ns). By default it may defer each by up to 50 µs
/// to coalesce wake-ups — a seventh of a 0.35 ms broadcast slot, paid by
/// every transmission a scheduler core parks on. Best effort: a kernel
/// that refuses leaves the default slack in place.
pub(crate) fn tighten_timer_slack() {
    // SAFETY: this option takes one `unsigned long` by value (`usize` on
    // the LP64 targets this builds for), reads and writes no user memory,
    // and changes nothing but the calling thread's own slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1usize);
    }
}

fn set_sock_int(fd: RawFd, optname: c_int, value: c_int) -> io::Result<()> {
    // SAFETY: passes a pointer to an owned int that outlives the call.
    let r = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            optname,
            &value,
            std::mem::size_of::<c_int>() as c_uint,
        )
    };
    if r < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// Shrinks (or grows) a socket's kernel receive buffer (`SO_RCVBUF`).
/// Tests use a tiny receive buffer to force real short writes on the peer.
pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_sock_int(fd, SO_RCVBUF, bytes.min(c_int::MAX as usize) as c_int)
}

/// Largest iovec batch one [`writev_fd`] call submits. Linux's `IOV_MAX`
/// is 1024; 64 keeps the stack array small while still coalescing a full
/// reply burst into a handful of syscalls.
pub(crate) const MAX_IOV: usize = 64;

/// Vectored write of up to [`MAX_IOV`] buffers in one syscall. Returns
/// the number of bytes accepted (possibly short — the caller resumes from
/// the unwritten tail).
pub(crate) fn writev_fd(fd: RawFd, bufs: &[&[u8]]) -> io::Result<usize> {
    let n = bufs.len().min(MAX_IOV);
    if n == 0 {
        return Ok(0);
    }
    let mut iov = [IoVec {
        base: std::ptr::null(),
        len: 0,
    }; MAX_IOV];
    for (slot, buf) in iov.iter_mut().zip(bufs) {
        slot.base = buf.as_ptr();
        slot.len = buf.len();
    }
    // SAFETY: the iovecs point into borrowed slices that outlive the call;
    // the kernel only reads them.
    let r = unsafe { writev(fd, iov.as_ptr(), n as c_int) };
    if r < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(r as usize)
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates the instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(Epoll { fd })
        }
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, cookie: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: cookie,
        };
        // SAFETY: `ev` lives across the call; DEL ignores the pointer.
        let r = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if r < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    /// Registers `fd` for `events`, delivering `cookie` on readiness.
    pub fn add(&self, fd: RawFd, events: u32, cookie: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, cookie)
    }

    /// Changes the interest set of an already-registered `fd`.
    pub(crate) fn modify(&self, fd: RawFd, events: u32, cookie: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, cookie)
    }

    /// Deregisters `fd`.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, filling `events`; `None` blocks indefinitely.
    /// Interrupted waits report zero events rather than erroring.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let ms: c_int = match timeout {
            None => -1,
            Some(t) if t.is_zero() => 0,
            // Round up so a 0.4 ms wait doesn't busy-spin at timeout 0.
            Some(t) => t.as_millis().clamp(1, c_int::MAX as u128) as c_int,
        };
        // SAFETY: the event buffer is exclusively borrowed for the call.
        let r = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, ms) };
        if r < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(err)
            }
        } else {
            Ok(r as usize)
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe {
            close(self.fd);
        }
    }
}

/// A nonblocking `eventfd(2)` used as a cross-thread waker: writers
/// [`EventFd::ring`] it, the epoll loop registers it readable and
/// [`EventFd::drain`]s on wake.
pub(crate) struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates the waker.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(EventFd { fd })
        }
    }

    /// The raw fd (for epoll registration).
    pub(crate) fn fd(&self) -> RawFd {
        self.fd
    }

    /// Wakes the loop. A full counter (`EAGAIN`, u64::MAX pending wakes)
    /// still leaves the fd readable, so the wake is never lost.
    pub fn ring(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: writes 8 owned bytes.
        unsafe {
            write(self.fd, one.as_ptr(), 8);
        }
    }

    /// Consumes pending wakes (nonblocking).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: reads into an owned buffer.
        unsafe {
            read(self.fd, buf.as_mut_ptr(), 8);
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe {
            close(self.fd);
        }
    }
}

/// `true` for the fd-exhaustion accept errors (`EMFILE`/`ENFILE`) that
/// must trigger bounded accept backoff instead of a hot spin.
pub(crate) fn is_fd_exhaustion(err: &io::Error) -> bool {
    matches!(err.raw_os_error(), Some(ERR_EMFILE) | Some(ERR_ENFILE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn eventfd_rings_and_epoll_reports_it() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing pending: a zero-timeout wait reports no events.
        assert_eq!(ep.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        ev.ring();
        let n = ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].cookie(), 7);
        assert_ne!(events[0].ready() & EPOLLIN, 0);
        ev.drain();
        assert_eq!(ep.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn writev_coalesces_multiple_buffers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let parts: [&[u8]; 3] = [b"alpha-", b"beta-", b"gamma"];
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let n = writev_fd(server.as_raw_fd(), &parts).unwrap();
        assert_eq!(n, total, "loopback accepts a tiny writev whole");
        drop(server);
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"alpha-beta-gamma");
        // Exercise the short-write contract shape: empty batch is Ok(0).
        assert_eq!(writev_fd(client.as_raw_fd(), &[]).unwrap(), 0);
        let _ = client.write(b"x");
    }

    #[test]
    fn fd_exhaustion_classifier_matches_emfile_enfile() {
        assert!(is_fd_exhaustion(&io::Error::from_raw_os_error(ERR_EMFILE)));
        assert!(is_fd_exhaustion(&io::Error::from_raw_os_error(ERR_ENFILE)));
        assert!(!is_fd_exhaustion(&io::Error::from_raw_os_error(11))); // EAGAIN
        assert!(!is_fd_exhaustion(&io::Error::other("no raw errno")));
    }

    #[test]
    fn epoll_reports_socket_readability_edge_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(
            server.as_raw_fd(),
            EPOLLIN | EPOLLRDHUP | EPOLLET,
            server.as_raw_fd() as u64,
        )
        .unwrap();
        client.write_all(b"ping").unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        let n = ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_ne!(events[0].ready() & EPOLLIN, 0);
        // ET: without reading, no further edge arrives on a quiet socket.
        let mut buf = [0u8; 16];
        let mut sref = &server;
        assert_eq!(sref.read(&mut buf).unwrap(), 4);
        assert_eq!(ep.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
    }
}
