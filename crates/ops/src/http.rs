//! The minimal HTTP/1.0 ops endpoint.
//!
//! One dedicated thread owns a nonblocking listener and a small bounded
//! set of nonblocking connections — no async runtime, no new
//! dependencies, and (unlike the data-plane event loops) no epoll
//! registration either: the ops surface sees a handful of curls per
//! minute, so a 5 ms scan of ≤ 64 connections is cheaper and simpler than
//! readiness plumbing, and it keeps this crate `forbid(unsafe_code)`.
//! The scheduler cores never see this thread: `/stats` reads the
//! [`OpsHub`] snapshots, so a slow HTTP client cannot stall a tick.
//!
//! Protocol surface, deliberately tiny: `GET` only, three paths
//! (`/healthz`, `/stats`, `/config`), every response `HTTP/1.0` with
//! `Connection: close`. Robustness bounds: request heads over
//! `MAX_REQUEST_BYTES` get `431` and the connection closed; malformed
//! request lines get `400`; non-GET methods `405`; unknown paths `404`;
//! connections idle past a 2 s deadline are dropped; at most
//! `MAX_CONNS` connections are tracked and surplus accepts are closed
//! immediately — a misbehaving peer can never leak a connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::hub::OpsHub;

/// Largest request head (request line + headers) accepted.
pub(crate) const MAX_REQUEST_BYTES: usize = 4096;
/// Most connections tracked at once; surplus accepts are closed at once.
pub(crate) const MAX_CONNS: usize = 64;
/// A connection must complete its request and drain its response within
/// this budget.
const CONN_DEADLINE: Duration = Duration::from_secs(2);
/// Scan cadence when nothing is readable/writable.
const IDLE_SLEEP: Duration = Duration::from_millis(5);

/// Parses an HTTP request head, returning the path or the error status to
/// answer with. Pure (unit-tested separately from the socket loop).
pub(crate) fn parse_request(head: &str) -> Result<&str, u16> {
    let line = head.split(['\r', '\n']).next().unwrap_or("");
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(400);
    };
    if !version.starts_with("HTTP/") {
        return Err(400);
    }
    if method != "GET" {
        return Err(405);
    }
    if !path.starts_with('/') {
        return Err(400);
    }
    Ok(path)
}

/// Builds a full HTTP/1.0 response.
fn response(status: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn error_response(status: u16) -> Vec<u8> {
    let reason = match status {
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    response(
        status,
        reason,
        "application/json",
        &format!("{{\"error\":{status}}}"),
    )
}

/// Routes a parsed request to its JSON body.
fn route(hub: &OpsHub, head: &str) -> Vec<u8> {
    match parse_request(head) {
        Ok("/healthz") => response(200, "OK", "application/json", &hub.healthz_json()),
        Ok("/stats") => response(200, "OK", "application/json", &hub.stats_json()),
        Ok("/config") => response(200, "OK", "application/json", &hub.config_json()),
        Ok(_) => error_response(404),
        Err(status) => error_response(status),
    }
}

struct OpsConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    deadline: Instant,
    responding: bool,
}

enum Step {
    Progress,
    Idle,
    Done,
}

impl OpsConn {
    fn new(stream: TcpStream) -> OpsConn {
        OpsConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            deadline: Instant::now() + CONN_DEADLINE,
            responding: false,
        }
    }

    /// Advances the connection one step; `Done` means close it.
    fn step(&mut self, hub: &OpsHub) -> Step {
        if Instant::now() >= self.deadline {
            return Step::Done;
        }
        if !self.responding {
            return self.step_read(hub);
        }
        self.step_write()
    }

    fn step_read(&mut self, hub: &OpsHub) -> Step {
        let mut chunk = [0u8; 1024];
        let mut progressed = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Step::Done, // EOF before a full request
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                    if self.rbuf.len() > MAX_REQUEST_BYTES {
                        self.wbuf = error_response(431);
                        self.responding = true;
                        return Step::Progress;
                    }
                    if let Some(head_end) = find_head_end(&self.rbuf) {
                        let head = String::from_utf8_lossy(&self.rbuf[..head_end]).into_owned();
                        self.wbuf = route(hub, &head);
                        self.responding = true;
                        return Step::Progress;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return if progressed {
                        Step::Progress
                    } else {
                        Step::Idle
                    };
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Step::Done,
            }
        }
    }

    fn step_write(&mut self) -> Step {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Step::Done,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Idle,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Step::Done,
            }
        }
        Step::Done // response fully flushed: HTTP/1.0, close
    }
}

/// End of the request head: blank line (CRLF or bare LF form).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n"))
}

/// Handle to the running ops endpoint.
pub struct OpsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: JoinHandle<()>,
}

impl OpsServer {
    /// Binds `addr` (`:0` picks an ephemeral port) and serves `hub` on a
    /// background thread until [`OpsServer::stop`].
    pub fn start(addr: &str, hub: Arc<OpsHub>) -> io::Result<OpsServer> {
        OpsServer::start_on(TcpListener::bind(addr)?, hub)
    }

    /// Serves `hub` on an already-bound listener — the daemon binds early
    /// so embedders can read the ephemeral ops port before startup
    /// finishes.
    pub fn start_on(listener: TcpListener, hub: Arc<OpsHub>) -> io::Result<OpsServer> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = thread::spawn(move || serve_loop(listener, hub, flag));
        Ok(OpsServer { addr, stop, join })
    }

    /// The actual bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the endpoint and waits for the thread (closing every tracked
    /// connection).
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.join.join();
    }
}

fn serve_loop(listener: TcpListener, hub: Arc<OpsHub>, stop: Arc<AtomicBool>) {
    let mut conns: Vec<OpsConn> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let mut progressed = false;
        // Accept everything pending; over the cap, close immediately.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progressed = true;
                    if conns.len() >= MAX_CONNS || stream.set_nonblocking(true).is_err() {
                        drop(stream);
                    } else {
                        conns.push(OpsConn::new(stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        conns.retain_mut(|c| match c.step(&hub) {
            Step::Progress => {
                progressed = true;
                true
            }
            Step::Idle => true,
            Step::Done => false,
        });
        if !progressed {
            thread::sleep(IDLE_SLEEP);
        }
    }
    // Dropping `conns` and the listener closes every fd.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parsing() {
        assert_eq!(parse_request("GET /stats HTTP/1.0\r\n\r\n"), Ok("/stats"));
        assert_eq!(
            parse_request("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            Ok("/healthz")
        );
        assert_eq!(parse_request("POST /stats HTTP/1.0\r\n\r\n"), Err(405));
        assert_eq!(parse_request("GET stats HTTP/1.0\r\n\r\n"), Err(400));
        assert_eq!(parse_request("GET /stats\r\n\r\n"), Err(400));
        assert_eq!(parse_request("garbage\r\n\r\n"), Err(400));
        assert_eq!(parse_request(""), Err(400));
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.0\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.0\n\n"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.0\r\n"), None);
    }

    #[test]
    fn responses_carry_content_length() {
        let bytes = response(200, "OK", "application/json", "{\"a\":1}");
        let text = String::from_utf8(bytes).expect("utf8");
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("{\"a\":1}"));
    }
}
